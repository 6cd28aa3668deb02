//! The exhaustive minimum-cost query planner (§4.3).

use crate::{check_valid_where, checked_cols, CostModel, Plan, Side};
use relic_decomp::{Body, Decomposition};
use relic_spec::{ColSet, RelSpec};
use std::error::Error;
use std::fmt;

/// Failure to find a valid plan.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlanError {
    /// No valid plan produces the requested output columns from the given
    /// input columns. With an adequate decomposition this indicates columns
    /// outside the relation.
    NoPlan {
        /// Input (pattern) columns.
        avail: ColSet,
        /// Requested output columns.
        out: ColSet,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::NoPlan { avail, out } => write!(
                f,
                "no valid query plan from input columns {avail:?} to output columns {out:?}"
            ),
        }
    }
}

impl Error for PlanError {}

/// A planned query: the chosen plan, its bound output columns, and its
/// estimated cost.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// The minimum-cost valid plan.
    pub plan: Plan,
    /// Columns the plan binds (`B` in Fig. 8).
    pub bound: ColSet,
    /// Estimated cost under the planner's [`CostModel`].
    pub cost: f64,
}

/// The query planner: enumerates every valid plan for a query signature and
/// returns the cheapest (ties broken deterministically by enumeration
/// order).
#[derive(Debug, Clone)]
pub struct Planner<'a> {
    d: &'a Decomposition,
    spec: &'a RelSpec,
    cost: CostModel,
}

impl<'a> Planner<'a> {
    /// Creates a planner for a decomposition and specification.
    pub fn new(d: &'a Decomposition, spec: &'a RelSpec, cost: CostModel) -> Self {
        Planner { d, spec, cost }
    }

    /// The cost model in use.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Replaces the cost model (e.g. with profiled fan-outs).
    pub fn set_cost_model(&mut self, cost: CostModel) {
        self.cost = cost;
    }

    /// Enumerates *all* plans for the root body with input columns `avail`,
    /// returning `(plan, bound columns)` pairs. Exponential in decomposition
    /// size; decompositions are small by construction.
    pub fn enumerate(&self, avail: ColSet) -> Vec<(Plan, ColSet)> {
        self.enum_body(&self.d.node(self.d.root()).body, avail, ColSet::EMPTY)
    }

    /// [`enumerate`](Planner::enumerate) for comparison patterns: `avail`
    /// are the equality-bound columns, `ranged` the interval-constrained
    /// ones (candidates for `qrange` on ordered edges).
    pub fn enumerate_where(&self, avail: ColSet, ranged: ColSet) -> Vec<(Plan, ColSet)> {
        self.enum_body(&self.d.node(self.d.root()).body, avail, ranged)
    }

    fn enum_body(&self, body: &Body, avail: ColSet, ranged: ColSet) -> Vec<(Plan, ColSet)> {
        let fds = self.spec.fds();
        match body {
            Body::Unit(c) => vec![(Plan::Unit, *c)],
            Body::Map(eid) => {
                let e = self.d.edge(*eid);
                let mut out = Vec::new();
                if e.key.is_subset(avail) {
                    for (child, b) in self.enum_body(&self.d.node(e.to).body, avail, ranged) {
                        out.push((Plan::lookup(child), b | e.key));
                    }
                }
                // (QRANGE): ordered edge whose final key column carries the
                // interval, with the earlier key columns equality-bound.
                let rangeable = e.ds.is_ordered()
                    && e.key.max_col().is_some_and(|c| {
                        ranged.contains(c)
                            && !avail.contains(c)
                            && (e.key - c.set()).is_subset(avail)
                    });
                if rangeable {
                    for (child, b) in self.enum_body(&self.d.node(e.to).body, avail | e.key, ranged)
                    {
                        out.push((Plan::range(child), b | e.key));
                    }
                }
                for (child, b) in self.enum_body(&self.d.node(e.to).body, avail | e.key, ranged) {
                    out.push((Plan::scan(child), b | e.key));
                }
                out
            }
            Body::Join(l, r) => {
                let mut out = Vec::new();
                for (side, first_body, second_body) in [(Side::Left, l, r), (Side::Right, r, l)] {
                    for (p, b) in self.enum_body(first_body, avail, ranged) {
                        out.push((Plan::lr(side, p), b));
                    }
                    for (p1, b1) in self.enum_body(first_body, avail, ranged) {
                        for (p2, b2) in self.enum_body(second_body, avail | b1, ranged) {
                            if fds.implies(avail | b1, b2) && fds.implies(avail | b2, b1) {
                                out.push((Plan::join(side, p1.clone(), p2), b1 | b2));
                            }
                        }
                        // qhashjoin candidates: the probe side runs with the
                        // original bindings only (it executes exactly once).
                        for (p2, b2) in self.enum_body(second_body, avail, ranged) {
                            if fds.implies(avail | b1, b2) && fds.implies(avail | b2, b1) {
                                out.push((Plan::hash_join(side, p1.clone(), p2), b1 | b2));
                            }
                        }
                    }
                }
                out
            }
        }
    }

    /// Plans `query r ⟨avail⟩ out`: the cheapest valid plan that binds all of
    /// `out` and checks every pattern column (see
    /// [`checked_cols`](crate::checked_cols)).
    ///
    /// # Errors
    ///
    /// [`PlanError::NoPlan`] if `out` or `avail` mention columns outside the
    /// relation (with an adequate decomposition, the scan-everything plan
    /// covers all in-relation signatures).
    pub fn plan_query(&self, avail: ColSet, out: ColSet) -> Result<PlannedQuery, PlanError> {
        self.plan_by(avail, ColSet::EMPTY, ColSet::EMPTY, out, |_| true)
    }

    /// Like [`plan_query`](Planner::plan_query), restricted to plans
    /// accepted by `admit`. Backends with a limited operator repertoire use
    /// this to carve out the sub-language they implement — e.g.
    /// [`Plan::is_constant_space`] for compilers without materialization
    /// support (`qhashjoin`).
    ///
    /// # Errors
    ///
    /// [`PlanError::NoPlan`] if no admissible valid plan covers the
    /// signature.
    pub fn plan_query_admissible(
        &self,
        avail: ColSet,
        out: ColSet,
        admit: impl Fn(&Plan) -> bool,
    ) -> Result<PlannedQuery, PlanError> {
        self.plan_by(avail, ColSet::EMPTY, ColSet::EMPTY, out, admit)
    }

    /// Like [`plan_query_where`](Planner::plan_query_where), restricted to
    /// plans accepted by `admit`.
    ///
    /// # Errors
    ///
    /// [`PlanError::NoPlan`] if no admissible valid plan covers the
    /// signature.
    pub fn plan_query_where_admissible(
        &self,
        eq: ColSet,
        ranged: ColSet,
        filtered: ColSet,
        out: ColSet,
        admit: impl Fn(&Plan) -> bool,
    ) -> Result<PlannedQuery, PlanError> {
        self.plan_by(eq, ranged, filtered, out, admit)
    }

    /// Plans a comparison query `query_where r P out` (§2's extension):
    /// `eq` are `P`'s equality-constrained columns, `ranged` its
    /// interval-constrained columns (eligible for `qrange`), and `filtered`
    /// its remaining comparison columns (e.g. `≠`, checkable only by
    /// scanning). The chosen plan binds all of `out` and checks *every*
    /// pattern column.
    ///
    /// # Errors
    ///
    /// [`PlanError::NoPlan`] if the signature mentions columns outside the
    /// relation.
    pub fn plan_query_where(
        &self,
        eq: ColSet,
        ranged: ColSet,
        filtered: ColSet,
        out: ColSet,
    ) -> Result<PlannedQuery, PlanError> {
        self.plan_by(eq, ranged, filtered, out, |_| true)
    }

    fn plan_by(
        &self,
        avail: ColSet,
        ranged: ColSet,
        filtered: ColSet,
        out: ColSet,
        admit: impl Fn(&Plan) -> bool,
    ) -> Result<PlannedQuery, PlanError> {
        let body = &self.d.node(self.d.root()).body;
        let pattern_cols = avail | ranged | filtered;
        let mut best: Option<PlannedQuery> = None;
        for (plan, bound) in self.enumerate_where(avail, ranged) {
            if !out.is_subset(bound | avail) {
                continue;
            }
            if !admit(&plan) {
                continue;
            }
            if !pattern_cols
                .intersection(self.spec.cols())
                .is_subset(checked_cols(self.d, body, &plan))
            {
                continue;
            }
            debug_assert!(
                check_valid_where(self.d, self.spec.fds(), body, avail, ranged, &plan).is_ok(),
                "enumerated plan must be valid"
            );
            let cost = self.cost.cost(self.d, body, &plan);
            if best.as_ref().is_none_or(|b| cost < b.cost) {
                best = Some(PlannedQuery { plan, bound, cost });
            }
        }
        best.ok_or(PlanError::NoPlan { avail, out })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relic_decomp::parse;
    use relic_spec::Catalog;

    fn scheduler() -> (Catalog, RelSpec, Decomposition) {
        let mut cat = Catalog::new();
        let d = parse(
            &mut cat,
            "let w : {ns,pid,state} . {cpu} = unit {cpu} in
             let y : {ns} . {pid,cpu} = {pid} -[htable]-> w in
             let z : {state} . {ns,pid,cpu} = {ns,pid} -[dlist]-> w in
             let x : {} . {ns,pid,state,cpu} =
               ({ns} -[htable]-> y) join ({state} -[vec]-> z) in x",
        )
        .unwrap();
        let spec = RelSpec::new(cat.all()).with_fd(
            cat.col("ns").unwrap() | cat.col("pid").unwrap(),
            cat.col("state").unwrap() | cat.col("cpu").unwrap(),
        );
        (cat, spec, d)
    }

    #[test]
    fn point_query_uses_left_lookups() {
        let (cat, spec, d) = scheduler();
        let ns = cat.col("ns").unwrap();
        let pid = cat.col("pid").unwrap();
        let cpu = cat.col("cpu").unwrap();
        let p = Planner::new(&d, &spec, CostModel::uniform(&d, 32.0));
        let got = p.plan_query(ns | pid, cpu.into()).unwrap();
        // The paper's q_cpu: qlr(qlookup(qlookup(qunit)), left).
        assert_eq!(got.plan.to_string(), "qlr(qlookup(qlookup(qunit)), left)");
    }

    #[test]
    fn state_query_scans_right_side() {
        let (cat, spec, d) = scheduler();
        let state = cat.col("state").unwrap();
        let ns = cat.col("ns").unwrap();
        let pid = cat.col("pid").unwrap();
        let p = Planner::new(&d, &spec, CostModel::uniform(&d, 32.0));
        let got = p.plan_query(state.into(), ns | pid).unwrap();
        // Enumerate running processes: lookup state, scan its dlist.
        assert_eq!(
            got.plan.to_string(),
            "qlr(qscan(qunit), right)".replace("qscan(qunit)", "qlookup(qscan(qunit))")
        );
    }

    #[test]
    fn ns_state_query_prefers_cheaper_strategy() {
        // The paper's motivating query ⟨ns, state⟩ → {pid}: candidates q1
        // (join) and q2 (right-side scan). Under a uniform fan-out the
        // planner must pick one of them and it must check both pattern
        // columns.
        let (cat, spec, d) = scheduler();
        let ns = cat.col("ns").unwrap();
        let state = cat.col("state").unwrap();
        let pid = cat.col("pid").unwrap();
        let p = Planner::new(&d, &spec, CostModel::uniform(&d, 32.0));
        let got = p.plan_query(ns | state, pid.into()).unwrap();
        let body = &d.node(d.root()).body;
        let checked = checked_cols(&d, body, &got.plan);
        assert!(
            checked.contains(ns) && checked.contains(state),
            "{}",
            got.plan
        );
    }

    #[test]
    fn pattern_coverage_rejects_blind_plans() {
        // Query ⟨state⟩ with output {cpu}: the left-only path binds cpu but
        // never checks state, so the planner must not choose a pure-left lr.
        let (cat, spec, d) = scheduler();
        let state = cat.col("state").unwrap();
        let cpu = cat.col("cpu").unwrap();
        let p = Planner::new(&d, &spec, CostModel::uniform(&d, 32.0));
        let got = p.plan_query(state.into(), cpu.into()).unwrap();
        let body = &d.node(d.root()).body;
        assert!(
            checked_cols(&d, body, &got.plan).contains(state),
            "{}",
            got.plan
        );
    }

    #[test]
    fn full_scan_plan_exists_for_empty_pattern() {
        let (cat, spec, d) = scheduler();
        let p = Planner::new(&d, &spec, CostModel::uniform(&d, 32.0));
        let got = p.plan_query(ColSet::EMPTY, cat.all()).unwrap();
        assert!(got.bound == cat.all());
    }

    #[test]
    fn no_plan_for_foreign_columns() {
        let (mut cat, spec, d) = scheduler();
        let alien = cat.intern("alien");
        let p = Planner::new(&d, &spec, CostModel::uniform(&d, 32.0));
        let err = p.plan_query(ColSet::EMPTY, alien.into()).unwrap_err();
        assert!(matches!(err, PlanError::NoPlan { .. }));
    }

    #[test]
    fn fanout_shifts_plan_choice() {
        // With a tiny state fan-out (2 states) and huge ns fan-out, scanning
        // the right side should win the ⟨state⟩ → {ns, pid} query; with the
        // reverse, plans that avoid the huge right-side lists win.
        let (cat, spec, d) = scheduler();
        let state = cat.col("state").unwrap();
        let ns = cat.col("ns").unwrap();
        let pid = cat.col("pid").unwrap();
        let mut small_state = CostModel::uniform(&d, 1000.0);
        // Edge order: y->w (pid), z->w (ns,pid), x->y (ns), x->z (state).
        for (eid, e) in d.edges() {
            if e.key == state.set() {
                small_state.set_fanout(eid, 2.0);
            }
        }
        let p = Planner::new(&d, &spec, small_state);
        let got = p.plan_query(state.into(), ns | pid).unwrap();
        assert_eq!(got.plan.to_string(), "qlr(qlookup(qscan(qunit)), right)");
    }

    #[test]
    fn where_planner_prefers_range_to_scan() {
        let mut cat = Catalog::new();
        let d = parse(
            &mut cat,
            "let u : {host,ts} . {bytes} = unit {bytes} in
             let h : {host} . {ts,bytes} = {ts} -[avl]-> u in
             let x : {} . {host,ts,bytes} = {host} -[htable]-> h in x",
        )
        .unwrap();
        let host = cat.col("host").unwrap();
        let ts = cat.col("ts").unwrap();
        let bytes = cat.col("bytes").unwrap();
        let spec = RelSpec::new(cat.all()).with_fd(host | ts, bytes.set());
        let p = Planner::new(&d, &spec, CostModel::uniform(&d, 64.0));
        let got = p
            .plan_query_where(host.set(), ts.set(), ColSet::EMPTY, bytes.set())
            .unwrap();
        assert_eq!(got.plan.to_string(), "qlookup(qrange(qunit))");
        // The range plan must be strictly cheaper than the scan fallback.
        let scan = Plan::lookup(Plan::scan(Plan::Unit));
        let body = &d.node(d.root()).body;
        assert!(got.cost < p.cost_model().cost(&d, body, &scan));
    }

    #[test]
    fn where_planner_covers_filter_only_columns() {
        // A ≠-predicate on ts cannot drive qrange; the plan must still check
        // ts (scan), not skip it via a blind path.
        let mut cat = Catalog::new();
        let d = parse(
            &mut cat,
            "let u : {host,ts} . {bytes} = unit {bytes} in
             let h : {host} . {ts,bytes} = {ts} -[avl]-> u in
             let x : {} . {host,ts,bytes} = {host} -[htable]-> h in x",
        )
        .unwrap();
        let host = cat.col("host").unwrap();
        let ts = cat.col("ts").unwrap();
        let bytes = cat.col("bytes").unwrap();
        let spec = RelSpec::new(cat.all()).with_fd(host | ts, bytes.set());
        let p = Planner::new(&d, &spec, CostModel::uniform(&d, 64.0));
        let got = p
            .plan_query_where(host.set(), ColSet::EMPTY, ts.set(), bytes.set())
            .unwrap();
        let body = &d.node(d.root()).body;
        assert!(
            checked_cols(&d, body, &got.plan).contains(ts),
            "{}",
            got.plan
        );
        assert_eq!(got.plan.to_string(), "qlookup(qscan(qunit))");
    }

    #[test]
    fn range_selectivity_controls_range_vs_scan_cost() {
        let mut cat = Catalog::new();
        let d = parse(
            &mut cat,
            "let u : {ts} . {bytes} = unit {bytes} in
             let x : {} . {ts,bytes} = {ts} -[sortedvec]-> u in x",
        )
        .unwrap();
        let ts = cat.col("ts").unwrap();
        let bytes = cat.col("bytes").unwrap();
        let spec = RelSpec::new(cat.all()).with_fd(ts.set(), bytes.set());
        let body = &d.node(d.root()).body;
        let range = Plan::range(Plan::Unit);
        let scan = Plan::scan(Plan::Unit);
        let mut narrow = CostModel::uniform(&d, 1000.0);
        narrow.set_range_selectivity(0.01);
        assert!(narrow.cost(&d, body, &range) < narrow.cost(&d, body, &scan));
        let mut wide = CostModel::uniform(&d, 1000.0);
        wide.set_range_selectivity(1.0);
        // At selectivity 1 a range still pays the seek on top of the scan.
        assert!(wide.cost(&d, body, &range) >= wide.cost(&d, body, &scan));
        let _ = spec;
    }

    #[test]
    fn enumerate_includes_paper_plans() {
        let (cat, spec, d) = scheduler();
        let ns = cat.col("ns").unwrap();
        let state = cat.col("state").unwrap();
        let p = Planner::new(&d, &spec, CostModel::uniform(&d, 32.0));
        let plans: Vec<String> = p
            .enumerate(ns | state)
            .into_iter()
            .map(|(q, _)| q.to_string())
            .collect();
        assert!(plans
            .contains(&"qjoin(qlookup(qscan(qunit)), qlookup(qlookup(qunit)), left)".to_string()));
        assert!(plans.contains(&"qlr(qlookup(qscan(qunit)), right)".to_string()));
    }
}
