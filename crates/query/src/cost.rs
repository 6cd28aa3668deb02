//! The query cost estimator `E` of §4.3.

use crate::{Plan, Side};
use relic_decomp::{Body, Decomposition, EdgeId};

/// How `qjoin` is charged by the estimator.
///
/// The paper's definition sums the two sides — "optimistic since it assumes
/// that queries on each side of the join need only be performed once each,
/// whereas in general one side of a join is executed once for each tuple
/// yielded by the other side" (§4.3). The realistic mode implements exactly
/// that correction, which is what lets `qhashjoin` (each side once + build)
/// win where it should.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinCostMode {
    /// The paper's formula: `E(qjoin(q₁, q₂)) = E(q₁) + E(q₂)`.
    #[default]
    Optimistic,
    /// `E(qjoin(q₁, q₂)) = E(q₁) + N(q₁) × E(q₂)`, where `N` estimates the
    /// number of tuples the outer side yields.
    Realistic,
}

/// The planner's cost model: an expected fan-out count `c(u, v)` per map
/// edge, combined with the per-structure lookup cost `m_ψ(n)`.
///
/// Counts "can be provided by the user, or recorded as part of a profiling
/// run" (§4.3); [`CostModel::uniform`] supplies a default, and
/// `relic-core`'s `SynthRelation::observed_cost_model` profiles a live
/// instance.
#[derive(Debug, Clone)]
pub struct CostModel {
    fanout: Vec<f64>,
    range_selectivity: f64,
    join_mode: JoinCostMode,
}

impl CostModel {
    /// The fan-out assumed per edge (and per equality-bound column) when
    /// nothing has been profiled: what a fresh `SynthRelation` plans with,
    /// so a front end that estimates with it agrees with the plans it runs.
    pub const DEFAULT_FANOUT: f64 = 16.0;

    /// The fraction of an ordered edge's entries a `qrange` is assumed to
    /// visit until [`set_range_selectivity`](CostModel::set_range_selectivity)
    /// says otherwise.
    pub const DEFAULT_RANGE_SELECTIVITY: f64 = 0.3;

    /// A model assigning the same expected fan-out to every edge.
    pub fn uniform(d: &Decomposition, fanout: f64) -> Self {
        CostModel {
            fanout: vec![fanout.max(1.0); d.edge_count()],
            range_selectivity: Self::DEFAULT_RANGE_SELECTIVITY,
            join_mode: JoinCostMode::Optimistic,
        }
    }

    /// A model with explicit per-edge fan-outs (indexed by [`EdgeId`]).
    ///
    /// # Panics
    ///
    /// Panics if `fanout.len()` differs from the decomposition's edge count.
    pub fn from_fanouts(d: &Decomposition, fanout: Vec<f64>) -> Self {
        assert_eq!(fanout.len(), d.edge_count(), "one fan-out per edge");
        CostModel {
            fanout: fanout.into_iter().map(|f| f.max(1.0)).collect(),
            range_selectivity: Self::DEFAULT_RANGE_SELECTIVITY,
            join_mode: JoinCostMode::Optimistic,
        }
    }

    /// The join charging mode (the paper's optimistic sum by default).
    pub fn join_mode(&self) -> JoinCostMode {
        self.join_mode
    }

    /// Sets the join charging mode.
    pub fn set_join_mode(&mut self, mode: JoinCostMode) {
        self.join_mode = mode;
    }

    /// The assumed fraction of an ordered edge's entries a `qrange` visits
    /// (default 0.3). Not part of the paper's model, which has no ranges.
    pub fn range_selectivity(&self) -> f64 {
        self.range_selectivity
    }

    /// Sets the assumed `qrange` selectivity, clamped to `(0, 1]`.
    pub fn set_range_selectivity(&mut self, s: f64) {
        self.range_selectivity = s.clamp(f64::MIN_POSITIVE, 1.0);
    }

    /// The expected fan-out `c(u, v)` of an edge.
    pub fn fanout(&self, e: EdgeId) -> f64 {
        self.fanout[e.index()]
    }

    /// Overrides one edge's fan-out.
    pub fn set_fanout(&mut self, e: EdgeId, fanout: f64) {
        self.fanout[e.index()] = fanout.max(1.0);
    }

    /// The estimator `E(q, v, dˆ)`: expected memory accesses to execute
    /// `plan` against `body`.
    ///
    /// Exactly the paper's recursive definition: units cost 1, scans cost
    /// `c(e) × E(child)`, lookups cost `m_ψ(c(e)) × E(child)`, joins add
    /// their sides (optimistically, as the paper notes), `qlr` costs its
    /// inner plan.
    pub fn cost(&self, d: &Decomposition, body: &Body, plan: &Plan) -> f64 {
        match (plan, body) {
            (Plan::Unit, Body::Unit(_)) => 1.0,
            (Plan::Scan { child }, Body::Map(eid)) => {
                let e = d.edge(*eid);
                self.fanout(*eid) * self.cost(d, &d.node(e.to).body, child)
            }
            (Plan::Lookup { child }, Body::Map(eid)) => {
                let e = d.edge(*eid);
                e.ds.lookup_cost(self.fanout(*eid)) * self.cost(d, &d.node(e.to).body, child)
            }
            // qrange: locate the interval start (one ordered lookup), then
            // visit the selected fraction of the edge's entries.
            (Plan::Range { child }, Body::Map(eid)) => {
                let e = d.edge(*eid);
                let n = self.fanout(*eid);
                e.ds.lookup_cost(n)
                    + (self.range_selectivity * n).max(1.0)
                        * self.cost(d, &d.node(e.to).body, child)
            }
            (Plan::Lr { side, inner }, Body::Join(l, r)) => {
                let sub = match side {
                    Side::Left => l,
                    Side::Right => r,
                };
                self.cost(d, sub, inner)
            }
            (
                Plan::Join {
                    side,
                    first,
                    second,
                },
                Body::Join(l, r),
            ) => {
                let (outer, inner) = match side {
                    Side::Left => (l, r),
                    Side::Right => (r, l),
                };
                match self.join_mode {
                    JoinCostMode::Optimistic => {
                        self.cost(d, outer, first) + self.cost(d, inner, second)
                    }
                    JoinCostMode::Realistic => {
                        self.cost(d, outer, first)
                            + self.expected_results(d, outer, first) * self.cost(d, inner, second)
                    }
                }
            }
            // qhashjoin: each side exactly once, plus hashing every build
            // tuple and probing once per probe tuple (unit charge each).
            (
                Plan::HashJoin {
                    side,
                    first,
                    second,
                },
                Body::Join(l, r),
            ) => {
                let (outer, inner) = match side {
                    Side::Left => (l, r),
                    Side::Right => (r, l),
                };
                self.cost(d, outer, first)
                    + self.cost(d, inner, second)
                    + self.expected_results(d, outer, first)
                    + self.expected_results(d, inner, second)
            }
            _ => f64::INFINITY,
        }
    }

    /// The static cost of `dinsert` (§4.4): one find-or-create lookup along
    /// every map edge of the decomposition.
    ///
    /// This is the single source of truth for insert charging — the
    /// autotuner's static ranking routes through it rather than re-deriving
    /// per-edge arithmetic, so planner and tuner can never disagree on what
    /// an insertion costs.
    pub fn insert_cost(&self, d: &Decomposition) -> f64 {
        d.edges()
            .map(|(eid, e)| e.ds.lookup_cost(self.fanout(eid)))
            .sum()
    }

    /// The static cost of breaking a §4.5 removal cut: one container
    /// removal per crossing edge — a keyed lookup for map structures, a
    /// constant unlink for intrusive lists (whose entries carry their own
    /// links, the very reason the paper's scheduler uses them).
    ///
    /// `crossing` is the cut's crossing edge set (`relic_decomp::Cut`).
    pub fn remove_break_cost(&self, d: &Decomposition, crossing: &[EdgeId]) -> f64 {
        crossing
            .iter()
            .map(|&eid| {
                let e = d.edge(eid);
                if e.ds.is_intrusive() {
                    1.0
                } else {
                    e.ds.lookup_cost(self.fanout(eid))
                }
            })
            .sum()
    }

    /// `N(q)`: the expected number of tuples `plan` yields — the product of
    /// the iteration widths along it (scans contribute their fan-out, ranges
    /// the selected fraction, lookups and units one).
    pub fn expected_results(&self, d: &Decomposition, body: &Body, plan: &Plan) -> f64 {
        match (plan, body) {
            (Plan::Unit, Body::Unit(_)) => 1.0,
            (Plan::Lookup { child }, Body::Map(eid)) => {
                let e = d.edge(*eid);
                self.expected_results(d, &d.node(e.to).body, child)
            }
            (Plan::Scan { child }, Body::Map(eid)) => {
                let e = d.edge(*eid);
                self.fanout(*eid) * self.expected_results(d, &d.node(e.to).body, child)
            }
            (Plan::Range { child }, Body::Map(eid)) => {
                let e = d.edge(*eid);
                (self.range_selectivity * self.fanout(*eid)).max(1.0)
                    * self.expected_results(d, &d.node(e.to).body, child)
            }
            (Plan::Lr { side, inner }, Body::Join(l, r)) => {
                let sub = match side {
                    Side::Left => l,
                    Side::Right => r,
                };
                self.expected_results(d, sub, inner)
            }
            (
                Plan::Join {
                    side,
                    first,
                    second,
                }
                | Plan::HashJoin {
                    side,
                    first,
                    second,
                },
                Body::Join(l, r),
            ) => {
                let (outer, inner) = match side {
                    Side::Left => (l, r),
                    Side::Right => (r, l),
                };
                // Join determinacy (Fig. 8) matches each outer tuple with at
                // most one inner tuple, so the join yields min(N₁, N₂).
                self.expected_results(d, outer, first)
                    .min(self.expected_results(d, inner, second))
            }
            _ => f64::INFINITY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Plan;
    use relic_decomp::parse;
    use relic_spec::Catalog;

    fn chain() -> (Catalog, Decomposition) {
        let mut cat = Catalog::new();
        let d = parse(
            &mut cat,
            "let z : {src,dst} . {weight} = unit {weight} in
             let y : {src} . {dst,weight} = {dst} -[dlist]-> z in
             let x : {} . {src,dst,weight} = {src} -[htable]-> y in x",
        )
        .unwrap();
        (cat, d)
    }

    #[test]
    fn lookup_beats_scan_under_uniform_model() {
        let (_, d) = chain();
        let m = CostModel::uniform(&d, 64.0);
        let body = &d.node(d.root()).body;
        let lookup2 = Plan::lookup(Plan::lookup(Plan::Unit));
        let scan2 = Plan::scan(Plan::scan(Plan::Unit));
        assert!(m.cost(&d, body, &lookup2) < m.cost(&d, body, &scan2));
    }

    #[test]
    fn ds_kind_affects_lookup_cost() {
        // The inner edge is a dlist: looking it up costs n, so with large
        // fan-out a lookup chain through a dlist is as bad as scanning it.
        let (_, d) = chain();
        let m = CostModel::uniform(&d, 64.0);
        let body = &d.node(d.root()).body;
        let lookup2 = Plan::lookup(Plan::lookup(Plan::Unit));
        // htable lookup (1.5) * dlist lookup (64) * unit(1)
        let got = m.cost(&d, body, &lookup2);
        assert!((got - 1.5 * 64.0).abs() < 1e-9, "{got}");
    }

    #[test]
    fn fanout_overrides() {
        let (_, d) = chain();
        let mut m = CostModel::uniform(&d, 8.0);
        let body = &d.node(d.root()).body;
        let scan2 = Plan::scan(Plan::scan(Plan::Unit));
        let before = m.cost(&d, body, &scan2);
        for (eid, _) in d.edges() {
            m.set_fanout(eid, 2.0);
        }
        let after = m.cost(&d, body, &scan2);
        assert!(after < before);
        assert_eq!(after, 4.0);
    }

    #[test]
    fn mismatched_plan_costs_infinity() {
        let (_, d) = chain();
        let m = CostModel::uniform(&d, 8.0);
        let body = &d.node(d.root()).body;
        assert!(m.cost(&d, body, &Plan::Unit).is_infinite());
    }

    #[test]
    fn insert_and_break_costs_sum_per_edge() {
        let (_, d) = chain();
        let m = CostModel::uniform(&d, 64.0);
        // htable lookup (1.5) + dlist lookup (64).
        assert!((m.insert_cost(&d) - (1.5 + 64.0)).abs() < 1e-9);
        let crossing: Vec<EdgeId> = d.edges().map(|(eid, _)| eid).collect();
        assert!((m.remove_break_cost(&d, &crossing) - (1.5 + 64.0)).abs() < 1e-9);
        assert_eq!(m.remove_break_cost(&d, &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "one fan-out per edge")]
    fn from_fanouts_checks_arity() {
        let (_, d) = chain();
        let _ = CostModel::from_fanouts(&d, vec![1.0]);
    }
}
