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
//! Writes have their own form, a [`WriteBlock`] of [`WriteStep`]s: §4.4's
//! find-or-create insert, §4.5's cut removal and the in-place update, each
//! lowered once per decomposition (see [`crate::lower_insert`],
//! [`crate::lower_remove`], [`crate::lower_update`]). A write step names the
//! node or edge it addresses and the row positions of the key columns it
//! probes with, so the interpreter runs it over a row of values and the
//! emitter renders it without deriving a walk of its own.
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

/// One edge as a write step follows it: from the parent's instance, probe
/// (or fill) the container of leaf `leaf` with the row's values at `key`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hop {
    /// The edge.
    pub edge: EdgeId,
    /// Its source node.
    pub from: NodeId,
    /// Its target node.
    pub to: NodeId,
    /// The edge's leaf index among the leaves of `from`'s body.
    pub leaf: usize,
    /// Row positions of the edge's key columns, in ascending column order.
    pub key: Box<[u16]>,
}

/// A lowered write: steps run in order over one row, the values of the
/// columns it was lowered for in ascending column order. Every step's
/// parent is resolved by an earlier step (or is the root).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteBlock {
    /// The steps.
    pub steps: Vec<WriteStep>,
    /// An insert block's key guard: the index of the `create` or `store`
    /// of the node whose instance exists iff a stored tuple has the row's
    /// minimal key (see [`crate::lower_insert`]). The steps up to it walk
    /// that node's path; run read-only, a hit there means the key is
    /// stored, a miss that it is not. `None` in every other block.
    pub guard: Option<usize>,
}

/// One write step. Insert blocks hold `Create`, `Link` and `Store`;
/// removal blocks `Resolve`, `Break`, `Free` and `Reclaim`; update blocks
/// `Resolve` and `Set`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteStep {
    /// Resolve `node`'s instance through the first hop of `via` whose
    /// parent's container holds the row's key, or create it — keyed by the
    /// row's values at `bound`, unit leaves filled from the row — when none
    /// does.
    Create {
        /// The node.
        node: NodeId,
        /// Its incoming edges.
        via: Box<[Hop]>,
        /// Row positions of the node's bound columns.
        bound: Box<[u16]>,
        /// Row positions of the columns of the node's unit leaves, leaf
        /// after leaf.
        units: Box<[u16]>,
    },
    /// Enter the instance of the hop's target into its container, unless
    /// the row's key is already there.
    Link(Hop),
    /// The hop's target is an inline leaf (see [`crate::inline_units`]):
    /// store its unit — the row's values at `unit` — in the entry of `hop`,
    /// its one incoming edge, unless the row's key is already there.
    Store {
        /// The inline leaf's incoming edge.
        hop: Hop,
        /// Row positions of the node's bound columns.
        bound: Box<[u16]>,
        /// The unit's columns.
        cols: ColSet,
        /// Row positions of the unit's columns.
        unit: Box<[u16]>,
    },
    /// Follow the hop from its parent's instance to the row's instance of
    /// its target, which is unresolved when the parent is or the key is
    /// absent. An inline leaf has no instance: its entry is the parent's.
    Resolve(Hop),
    /// Remove the row's entry from the container of the hop, an edge
    /// crossing the cut, dropping one reference to the child it held.
    Break(Hop),
    /// Free the row's instance of `node`, below the cut, once nothing
    /// references it. Below the root, the whole relation goes.
    Free {
        /// The node.
        node: NodeId,
    },
    /// If the row's instance of `node`, above the cut and holding no unit
    /// leaf, has emptied, unlink it from every edge of `via` and free it.
    Reclaim {
        /// The node.
        node: NodeId,
        /// Its incoming edges.
        via: Box<[Hop]>,
    },
    /// Overwrite, in the unit leaf `leaf` of the row's instance of `node`,
    /// the changed values among `cols`. For an inline leaf the unit is the
    /// entry of `entry` in the parent's container.
    Set {
        /// The node holding the unit.
        node: NodeId,
        /// The unit leaf's index among the leaves of `node`'s body.
        leaf: usize,
        /// The unit's columns.
        cols: ColSet,
        /// The incoming edge whose entry holds an inline leaf's unit.
        entry: Option<Hop>,
    },
}

impl fmt::Display for WriteBlock {
    /// The steps in order; the key guard prints as `guard(step)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            match self.guard {
                Some(g) if g == i => write!(f, "guard({s})")?,
                _ => write!(f, "{s}")?,
            }
        }
        Ok(())
    }
}

impl fmt::Display for WriteStep {
    /// Compact rendering for unit tests, e.g. `create(n1 via=e2)`,
    /// `store(n0 e0)`, `break(e1)`, `set(n0 e0 cols=c)`. Column sets print
    /// as raw bitset hex.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let via = |f: &mut fmt::Formatter<'_>, hops: &[Hop]| {
            write!(f, " via=")?;
            for (i, h) in hops.iter().enumerate() {
                let sep = if i > 0 { "," } else { "" };
                write!(f, "{sep}e{}", h.edge.index())?;
            }
            Ok(())
        };
        match self {
            WriteStep::Create {
                node, via: hops, ..
            } => {
                write!(f, "create(n{}", node.index())?;
                via(f, hops)?;
                write!(f, ")")
            }
            WriteStep::Link(hop) => write!(f, "link(e{})", hop.edge.index()),
            WriteStep::Store { hop, .. } => {
                write!(f, "store(n{} e{})", hop.to.index(), hop.edge.index())
            }
            WriteStep::Resolve(hop) => {
                write!(f, "resolve(n{} e{})", hop.to.index(), hop.edge.index())
            }
            WriteStep::Break(hop) => write!(f, "break(e{})", hop.edge.index()),
            WriteStep::Free { node } => write!(f, "free(n{})", node.index()),
            WriteStep::Reclaim { node, via: hops } => {
                write!(f, "reclaim(n{}", node.index())?;
                via(f, hops)?;
                write!(f, ")")
            }
            WriteStep::Set {
                node,
                leaf,
                cols,
                entry,
            } => match entry {
                Some(h) => write!(
                    f,
                    "set(n{} e{} cols={:x})",
                    node.index(),
                    h.edge.index(),
                    cols.bits()
                ),
                None => write!(
                    f,
                    "set(n{} leaf={leaf} cols={:x})",
                    node.index(),
                    cols.bits()
                ),
            },
        }
    }
}
