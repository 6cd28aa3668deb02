//! The plan IR: the form both backends run, between the §4.3 planner's
//! operator trees and execution.
//!
//! A lowered query body is a [`Block`] of [`Step`]s. Unlike [`Plan`]
//! operators — which are implicit about *what* they traverse — every step
//! names the concrete edge or node it addresses and carries the column sets
//! it binds and checks, computed once during lowering (see
//! [`crate::lower`]). This is the level the peephole optimizer rewrites
//! (see [`crate::peephole`]); `relic_core`'s interpreter and
//! `relic_codegen`'s emitter walk the optimized IR and never re-derive
//! binding information.
//!
//! [`Plan`]: crate::Plan

use relic_decomp::{EdgeId, NodeId};
use relic_spec::ColSet;
use std::fmt;

/// A sequence of steps executed in order under the current bindings.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Block(pub Vec<Step>);

/// One IR step. `Probe`/`Scan`/`Range` establish the instance of their
/// edge's target node for the steps nested under them; every other step
/// reads the instances enclosing steps established (a step addressing node
/// `n` reads the innermost `n`). `Unit` reads a unit leaf of an
/// established node; `HashJoin` materializes two sub-blocks; `Emit`
/// invokes the query sink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Point-probe `edge` with its fully bound key; on a hit, run `then`
    /// with the target instance established (misses fall through).
    Probe {
        /// The probed edge.
        edge: EdgeId,
        /// Steps run per hit.
        then: Block,
    },
    /// Iterate every entry of `edge`. `bind` are the key columns newly
    /// bound from each entry, `check` the key columns already bound outside
    /// (compared per entry), `filter` the newly bound columns that must also
    /// satisfy the pattern's comparison predicates.
    Scan {
        /// The iterated edge.
        edge: EdgeId,
        /// Key columns bound by this scan.
        bind: ColSet,
        /// Key columns equality-checked against outer bindings.
        check: ColSet,
        /// Newly bound columns filtered by a comparison predicate.
        filter: ColSet,
        /// Steps run per matching entry.
        then: Block,
    },
    /// Seek the contiguous run of an *ordered* edge whose final key column
    /// lies in the active range window (prefix columns are bound outside).
    Range {
        /// The seeked edge.
        edge: EdgeId,
        /// Key columns bound by the seek (⊆ {final key column}).
        bind: ColSet,
        /// Steps run per entry in the window.
        then: Block,
    },
    /// At the `unit C` leaf `leaf` of `node`: equality-check `check`,
    /// filter `filter`, bind `bind` from the unit tuple, run `then`.
    Unit {
        /// The node owning the unit leaf.
        node: NodeId,
        /// The leaf's index among the leaves of `node`'s body.
        leaf: usize,
        /// Unit columns equality-checked against outer bindings.
        check: ColSet,
        /// Newly bound unit columns filtered by a comparison predicate.
        filter: ColSet,
        /// Unit columns newly bound from instance fields.
        bind: ColSet,
        /// Steps run when all checks pass.
        then: Block,
    },
    /// `qhashjoin`: run `build` and `probe` once each, materializing what
    /// they emit, and run `then` once per pair that agrees on `on` (the
    /// columns both sides bind), with the pair bound. The one step that is
    /// not constant-space, so only the interpreter runs it.
    HashJoin {
        /// The materialized build side.
        build: Block,
        /// The materialized probe side.
        probe: Block,
        /// The natural-join columns: bound by both sides.
        on: ColSet,
        /// Steps run per joined pair.
        then: Block,
    },
    /// Invoke the sink with the current bindings. `used` is the set of
    /// columns the sink reads (drives dead-column elimination).
    Emit {
        /// Columns the sink consumes.
        used: ColSet,
    },
}

impl Step {
    /// Calls `f` on each block nested directly under this step.
    pub(crate) fn for_each_block(&mut self, mut f: impl FnMut(&mut Block)) {
        match self {
            Step::Probe { then, .. }
            | Step::Scan { then, .. }
            | Step::Range { then, .. }
            | Step::Unit { then, .. } => f(then),
            Step::HashJoin {
                build, probe, then, ..
            } => {
                f(build);
                f(probe);
                f(then);
            }
            Step::Emit { .. } => {}
        }
    }
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, s) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Step {
    /// Compact s-expression rendering used in generated-module comments and
    /// unit tests, e.g. `probe(e2 probe(e0 unit(n0 bind=8 emit)))`. Column
    /// sets print as raw bitset hex; each filtered column prints as
    /// `range=cN`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let set = |s: ColSet| format!("{:x}", s.bits());
        let filters = |f: &mut fmt::Formatter<'_>, s: ColSet| {
            s.iter()
                .try_for_each(|c| write!(f, " range=c{}", c.index()))
        };
        match self {
            Step::Probe { edge, then } => write!(f, "probe(e{} {then})", edge.index()),
            Step::Scan {
                edge,
                bind,
                check,
                filter,
                then,
            } => {
                write!(f, "scan(e{}", edge.index())?;
                if !bind.is_empty() {
                    write!(f, " bind={}", set(*bind))?;
                }
                if !check.is_empty() {
                    write!(f, " check={}", set(*check))?;
                }
                filters(f, *filter)?;
                write!(f, " {then})")
            }
            Step::Range { edge, bind, then } => {
                write!(f, "range(e{}", edge.index())?;
                if !bind.is_empty() {
                    write!(f, " bind={}", set(*bind))?;
                }
                write!(f, " {then})")
            }
            Step::Unit {
                node,
                check,
                filter,
                bind,
                then,
                ..
            } => {
                write!(f, "unit(n{}", node.index())?;
                if !check.is_empty() {
                    write!(f, " check={}", set(*check))?;
                }
                filters(f, *filter)?;
                if !bind.is_empty() {
                    write!(f, " bind={}", set(*bind))?;
                }
                write!(f, " {then})")
            }
            Step::HashJoin {
                build,
                probe,
                on,
                then,
            } => write!(f, "hashjoin(on={} {build}, {probe}, {then})", set(*on)),
            Step::Emit { .. } => write!(f, "emit"),
        }
    }
}
