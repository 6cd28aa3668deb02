//! Peephole optimization over the plan IR.
//!
//! Four rewrites:
//!
//! 1. **Collapse unit-key hops** — a `Scan` over a `{} -[ψ]-> v` edge has
//!    at most one entry and binds nothing; rewrite it to a `Probe` (the
//!    layout stage independently turns the container into an `Option<u32>`
//!    slot, so the emitted form is a single field read).
//! 2. **Fuse probe-then-iterate** — a `Scan` whose key columns are all
//!    equality-bound outside (`bind = ∅`, `check = key`, no filter)
//!    iterates only to find one key; rewrite to a `Probe`, turning an
//!    `O(n)` filter loop into a container point-probe.
//! 3. **Hoist loop-invariant probes** — a `Probe` directly under a
//!    `Scan`/`Range` whose key and source instance are both established
//!    outside the loop re-executes identically per iteration; swap it
//!    outside (probing once, and skipping the whole loop on a miss).
//! 4. **Eliminate dead columns** — a `bind` column no step below ever
//!    consumes is never unpacked or compared; drop it from the step's bind
//!    set (for packed keys this deletes shift/mask work in the loop body).
//!
//! Rules 1–3 run to a fixpoint; rule 4 is a single bottom-up pass that
//! cannot enable the structural rewrites (they only inspect check/key
//! sets), so it runs once, last. It drops nothing from an interpreted
//! block, whose sink reads every column.

use crate::ir::{Block, Step};
use relic_decomp::Decomposition;
use relic_spec::ColSet;
use std::mem::take;

/// Counters for what the optimizer did — surfaced in `relic_codegen`'s
/// `Report` and the generated module header.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeepholeStats {
    /// `Scan` → `Probe` rewrites on unit-key edges (rule 1).
    pub unit_hops_collapsed: usize,
    /// `Scan` → `Probe` rewrites on fully bound keys (rule 2).
    pub scans_fused: usize,
    /// Probes moved out of enclosing loops (rule 3).
    pub probes_hoisted: usize,
    /// Bound-but-unused columns dropped (rule 4).
    pub dead_cols_elided: usize,
}

impl PeepholeStats {
    /// Adds `other`'s counts to these.
    pub fn absorb(&mut self, other: PeepholeStats) {
        self.unit_hops_collapsed += other.unit_hops_collapsed;
        self.scans_fused += other.scans_fused;
        self.probes_hoisted += other.probes_hoisted;
        self.dead_cols_elided += other.dead_cols_elided;
    }
}

/// Runs all passes and returns the optimized block.
pub fn optimize(d: &Decomposition, mut block: Block) -> (Block, PeepholeStats) {
    let mut stats = PeepholeStats::default();
    loop {
        let mut round = PeepholeStats::default();
        collapse_and_fuse(d, &mut block, &mut round);
        block = hoist_invariant_probes(d, block, &mut round);
        if round == PeepholeStats::default() {
            break;
        }
        stats.absorb(round);
    }
    let (block, _) = eliminate_dead_cols(d, block, &mut stats);
    (block, stats)
}

/// Rules 1 and 2: rewrite scans that cannot select more than one entry
/// into probes.
fn collapse_and_fuse(d: &Decomposition, block: &mut Block, stats: &mut PeepholeStats) {
    for step in &mut block.0 {
        step.for_each_block(|b| collapse_and_fuse(d, b, stats));
        if let Step::Scan {
            edge,
            bind,
            check,
            filter,
            then,
        } = step
        {
            let key = d.edge(*edge).key;
            if key.is_empty() {
                stats.unit_hops_collapsed += 1;
            } else if bind.is_empty() && filter.is_empty() && *check == key {
                stats.scans_fused += 1;
            } else {
                continue;
            }
            *step = Step::Probe {
                edge: *edge,
                then: take(then),
            };
        }
    }
}

/// Rule 3: `loop { if probe { … } }` → `if probe { loop { … } }` when the
/// probe's key columns and source instance do not depend on the loop.
///
/// In well-formed IR every instance a probe reads was established by an
/// enclosing step, so "independent of the loop" reduces to: the probed
/// edge's source is not the loop's target node, and the probe's key shares
/// no column with the loop's `bind` set.
fn hoist_invariant_probes(d: &Decomposition, block: Block, stats: &mut PeepholeStats) -> Block {
    Block(
        block
            .0
            .into_iter()
            .map(|step| hoist_step(d, step, stats))
            .collect(),
    )
}

fn hoist_step(d: &Decomposition, mut step: Step, stats: &mut PeepholeStats) -> Step {
    let (Step::Scan {
        edge, bind, then, ..
    }
    | Step::Range { edge, bind, then }) = &mut step
    else {
        step.for_each_block(|b| *b = hoist_invariant_probes(d, take(b), stats));
        return step;
    };
    let (loop_target, loop_bind) = (d.edge(*edge).to, *bind);
    // Peel hoistable probes off the front of the loop body.
    let mut hoisted = Vec::new();
    while let [Step::Probe { edge: pe, .. }] = then.0.as_slice() {
        let pe = d.edge(*pe);
        if pe.from == loop_target || !pe.key.is_disjoint(loop_bind) {
            break;
        }
        // Detach the probe, reattach the loop under it.
        let Some(Step::Probe { edge, then: inner }) = then.0.pop() else {
            break;
        };
        *then = inner;
        hoisted.push(edge);
        stats.probes_hoisted += 1;
    }
    // Recurse into whatever body remains.
    *then = hoist_invariant_probes(d, take(then), stats);
    // Wrap the loop back in the hoisted probes, innermost-first.
    hoisted
        .into_iter()
        .rev()
        .fold(step, |inner, edge| Step::Probe {
            edge,
            then: Block(vec![inner]),
        })
}

/// Rule 4: bottom-up used-column analysis; prunes `bind` sets. Returns the
/// pruned block and the columns it consumes from outer bindings.
fn eliminate_dead_cols(
    d: &Decomposition,
    block: Block,
    stats: &mut PeepholeStats,
) -> (Block, ColSet) {
    let mut used_outer = ColSet::EMPTY;
    let steps = block
        .0
        .into_iter()
        .map(|step| {
            let (step, u) = prune_step(d, step, stats);
            used_outer = used_outer | u;
            step
        })
        .collect();
    (Block(steps), used_outer)
}

fn prune_step(d: &Decomposition, step: Step, stats: &mut PeepholeStats) -> (Step, ColSet) {
    match step {
        Step::Emit { used } => (Step::Emit { used }, used),
        Step::Probe { edge, then } => {
            let (then, below) = eliminate_dead_cols(d, then, stats);
            // A probe's key is built entirely from outer bindings — those
            // columns are live even if nothing below reads them again.
            (Step::Probe { edge, then }, d.edge(edge).key | below)
        }
        Step::Scan {
            edge,
            bind,
            check,
            filter,
            then,
        } => {
            let (then, below) = eliminate_dead_cols(d, then, stats);
            let bind2 = bind & (below | filter);
            stats.dead_cols_elided += bind.len() - bind2.len();
            (
                Step::Scan {
                    edge,
                    bind: bind2,
                    check,
                    filter,
                    then,
                },
                check | (below - bind),
            )
        }
        Step::Range { edge, bind, then } => {
            let (then, below) = eliminate_dead_cols(d, then, stats);
            // The seek enforces the window without materializing the
            // column; binding it is only needed downstream. Prefix key
            // columns (key − bind) are consumed from outer bindings.
            let bind2 = bind & below;
            stats.dead_cols_elided += bind.len() - bind2.len();
            let prefix = d.edge(edge).key - bind;
            (
                Step::Range {
                    edge,
                    bind: bind2,
                    then,
                },
                prefix | (below - bind),
            )
        }
        Step::Unit {
            node,
            leaf,
            check,
            filter,
            bind,
            then,
        } => {
            let (then, below) = eliminate_dead_cols(d, then, stats);
            let bind2 = bind & (below | filter);
            stats.dead_cols_elided += bind.len() - bind2.len();
            (
                Step::Unit {
                    node,
                    leaf,
                    check,
                    filter,
                    bind: bind2,
                    then,
                },
                check | (below - bind),
            )
        }
        Step::HashJoin {
            build,
            probe,
            on,
            then,
        } => {
            // Each side emits its full valuation, so nothing it binds is
            // dead; what the pair feeds below is consumed from the sides.
            let (then, below) = eliminate_dead_cols(d, then, stats);
            let (build, from_build) = eliminate_dead_cols(d, build, stats);
            let (probe, from_probe) = eliminate_dead_cols(d, probe, stats);
            (
                Step::HashJoin {
                    build,
                    probe,
                    on,
                    then,
                },
                from_build | from_probe | below,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relic_decomp::{DecompBuilder, DsKind, EdgeId, NodeId, Prim};
    use relic_spec::{Catalog, ColId};

    /// `x -{a}-> y -{b}-> w = unit {v}` over htables.
    fn chain() -> (Decomposition, ColId, ColId, ColId) {
        let mut cat = Catalog::new();
        let (a, b, v) = (cat.intern("a"), cat.intern("b"), cat.intern("v"));
        let mut bld = DecompBuilder::new();
        let w = bld.node("w", a | b, Prim::Unit(v.into())).unwrap();
        let y = bld
            .node("y", a.into(), Prim::Map(b.into(), DsKind::HashTable, w))
            .unwrap();
        bld.node(
            "x",
            ColSet::EMPTY,
            Prim::Map(a.into(), DsKind::HashTable, y),
        )
        .unwrap();
        (bld.finish().unwrap(), a, b, v)
    }

    #[test]
    fn fully_bound_scan_fuses_to_probe() {
        let (d, _a, b, v) = chain();
        // scan(e0 check={b}) with b bound outside → probe(e0).
        let ir = Block(vec![Step::Scan {
            edge: EdgeId(0),
            bind: ColSet::EMPTY,
            check: b.set(),
            filter: ColSet::EMPTY,
            then: Block(vec![Step::Unit {
                node: NodeId(0),
                leaf: 0,
                check: ColSet::EMPTY,
                filter: ColSet::EMPTY,
                bind: v.set(),
                then: Block(vec![Step::Emit { used: v.set() }]),
            }]),
        }]);
        let (opt, stats) = optimize(&d, ir);
        assert_eq!(stats.scans_fused, 1);
        assert!(opt.to_string().starts_with("probe(e0"), "{opt}");
    }

    #[test]
    fn invariant_probe_hoists_out_of_scan() {
        let (d, a, b, v) = chain();
        // Scan over x's {a} edge (e1) binding a, with a probe of e0 (whose
        // source y IS the scan target) inside: must NOT hoist.
        let ir = Block(vec![Step::Scan {
            edge: EdgeId(1),
            bind: a.set(),
            check: ColSet::EMPTY,
            filter: ColSet::EMPTY,
            then: Block(vec![Step::Probe {
                edge: EdgeId(0),
                then: Block(vec![Step::Emit { used: v.set() }]),
            }]),
        }]);
        let (opt, stats) = optimize(&d, ir);
        assert_eq!(stats.probes_hoisted, 0, "{opt}");
        // Scan e0 (target w) with a probe of e1 (source x, key {a} bound
        // outside the loop): invariant, hoists.
        let ir = Block(vec![Step::Scan {
            edge: EdgeId(0),
            bind: b.set(),
            check: ColSet::EMPTY,
            filter: ColSet::EMPTY,
            then: Block(vec![Step::Probe {
                edge: EdgeId(1),
                then: Block(vec![Step::Emit { used: v.set() }]),
            }]),
        }]);
        let (opt, stats) = optimize(&d, ir);
        assert_eq!(stats.probes_hoisted, 1);
        assert!(opt.to_string().starts_with("probe(e1 scan(e0"), "{opt}");
    }

    #[test]
    fn dead_bind_columns_are_dropped() {
        let (d, _a, b, v) = chain();
        // Scan binds b, but the sink only reads v.
        let ir = Block(vec![Step::Scan {
            edge: EdgeId(0),
            bind: b.set(),
            check: ColSet::EMPTY,
            filter: ColSet::EMPTY,
            then: Block(vec![Step::Unit {
                node: NodeId(0),
                leaf: 0,
                check: ColSet::EMPTY,
                filter: ColSet::EMPTY,
                bind: v.set(),
                then: Block(vec![Step::Emit { used: v.set() }]),
            }]),
        }]);
        let (opt, stats) = optimize(&d, ir);
        assert_eq!(stats.dead_cols_elided, 1);
        assert!(opt.to_string().starts_with("scan(e0 unit("), "{opt}");
    }

    #[test]
    fn probe_keys_keep_outer_binds_live() {
        let (d, _a, b, v) = chain();
        // The scan binds b; a probe of e0 (key {b}) below consumes it even
        // though the sink reads only v — b must survive elimination.
        let ir = Block(vec![Step::Scan {
            edge: EdgeId(1),
            bind: b.set(),
            check: ColSet::EMPTY,
            filter: ColSet::EMPTY,
            then: Block(vec![Step::Probe {
                edge: EdgeId(0),
                then: Block(vec![Step::Emit { used: v.set() }]),
            }]),
        }]);
        let (opt, stats) = optimize(&d, ir);
        assert_eq!(stats.dead_cols_elided, 0);
        assert!(opt.to_string().contains("bind="), "{opt}");
    }

    #[test]
    fn unit_key_scan_collapses_to_probe() {
        // y's edge to w has an empty key: {} -[vec]-> w.
        let mut cat = Catalog::new();
        let (k, v) = (cat.intern("k"), cat.intern("v"));
        let mut bld = DecompBuilder::new();
        let w = bld.node("w", k.into(), Prim::Unit(v.into())).unwrap();
        let y = bld
            .node("y", k.into(), Prim::Map(ColSet::EMPTY, DsKind::AssocVec, w))
            .unwrap();
        bld.node(
            "x",
            ColSet::EMPTY,
            Prim::Map(k.into(), DsKind::HashTable, y),
        )
        .unwrap();
        let d = bld.finish().unwrap();
        let ir = Block(vec![Step::Scan {
            edge: EdgeId(0),
            bind: ColSet::EMPTY,
            check: ColSet::EMPTY,
            filter: ColSet::EMPTY,
            then: Block(vec![Step::Emit { used: v.set() }]),
        }]);
        let (opt, stats) = optimize(&d, ir);
        assert_eq!(stats.unit_hops_collapsed, 1);
        assert!(opt.to_string().starts_with("probe(e0"), "{opt}");
    }
}
