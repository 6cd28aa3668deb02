//! The autotuner (paper §5): exhaustively constructs decompositions for a
//! relation up to a bound on the number of edges, measures each candidate
//! with a caller-supplied benchmark, and returns candidates sorted by
//! increasing cost.
//!
//! Two ranking modes are provided:
//!
//! * [`Autotuner::tune`] — dynamic: runs an arbitrary benchmark closure per
//!   candidate (the paper's mode; it recompiled and re-ran the program —
//!   our interpreted runtime just rebuilds the relation),
//! * [`Autotuner::tune_static`] — static: ranks candidates by the §4.3 cost
//!   model over a declared [`Workload`] of query/update signatures, without
//!   executing anything. Useful for pre-filtering the candidate set, the
//!   way the `fig11`/`fig13` binaries of `relic_bench` select which
//!   decompositions to run.
//!
//! A third entry point closes the adaptive loop:
//! [`Autotuner::recommend`] reads a live relation's *measured* workload
//! (`SynthRelation::profile`) and observed fan-outs, rebuilds a [`Workload`]
//! with [`Workload::from_profile`], and returns the statically best
//! candidate together with the current representation's cost — the
//! profile → recommend → migrate lifecycle
//! (`SynthRelation::migrate_to` performs the final step).
//!
//! # Example
//!
//! ```
//! use relic_spec::{Catalog, RelSpec};
//! use relic_autotune::{Autotuner, Workload};
//!
//! let mut cat = Catalog::new();
//! let (src, dst, w) = (cat.intern("src"), cat.intern("dst"), cat.intern("weight"));
//! let spec = RelSpec::new(src | dst | w).with_fd(src | dst, w.into());
//! let tuner = Autotuner::new(&spec);
//! // Rank decompositions for a successor-query-heavy workload.
//! let workload = Workload::new().query(src.into(), dst | w, 1.0);
//! let ranking = tuner.tune_static(&workload);
//! assert!(!ranking.is_empty());
//! assert!(ranking.windows(2).all(|p| p[0].cost <= p[1].cost));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use relic_core::{SynthRelation, WorkloadProfile};
use relic_decomp::{enumerate_decompositions, Decomposition, EnumerateOptions};
use relic_query::{CostModel, Planner};
use relic_spec::{ColSet, RelSpec};

/// A candidate decomposition with its measured (or estimated) cost.
#[derive(Debug, Clone)]
pub struct TuneResult {
    /// The candidate.
    pub decomposition: Decomposition,
    /// Cost; lower is better. `f64::INFINITY` marks candidates that cannot
    /// execute the workload (no valid plan) or whose benchmark failed.
    pub cost: f64,
}

/// A declarative workload: weighted query signatures plus mutation weights,
/// used by static ranking.
#[derive(Debug, Clone, Default)]
pub struct Workload {
    queries: Vec<(ColSet, ColSet, f64)>,
    range_queries: Vec<(ColSet, ColSet, ColSet, f64)>,
    insert_weight: f64,
    remove_patterns: Vec<(ColSet, f64)>,
}

impl Workload {
    /// An empty workload.
    pub fn new() -> Self {
        Workload::default()
    }

    /// Adds a query signature `(pattern columns, output columns)` with a
    /// relative weight (builder style).
    pub fn query(mut self, avail: ColSet, out: ColSet, weight: f64) -> Self {
        self.queries.push((avail, out, weight));
        self
    }

    /// Adds a *comparison* query signature: `eq` columns bound by equality,
    /// `ranged` columns carrying interval comparisons, `out` the output
    /// columns (§2's extension). Candidates with an ordered edge in the
    /// right position answer it with a `qrange` seek and rank accordingly.
    pub fn query_where(mut self, eq: ColSet, ranged: ColSet, out: ColSet, weight: f64) -> Self {
        self.range_queries.push((eq, ranged, out, weight));
        self
    }

    /// Sets the relative weight of insertions. Inserting locates or creates
    /// an instance along every edge, so its static cost is the sum of one
    /// lookup per edge.
    pub fn inserts(mut self, weight: f64) -> Self {
        self.insert_weight = weight;
        self
    }

    /// Adds a removal pattern with a relative weight; its static cost is the
    /// cost of the full-tuple enumeration query for the pattern plus one
    /// lookup per crossing edge.
    pub fn removes(mut self, pattern: ColSet, weight: f64) -> Self {
        self.remove_patterns.push((pattern, weight));
        self
    }

    /// Rebuilds a workload from a relation's measured operation mix
    /// (`SynthRelation::profile`): every observed query signature becomes a
    /// weighted [`query`](Workload::query) (or
    /// [`query_where`](Workload::query_where) when interval columns were
    /// recorded), the insert count becomes the insertion weight, and each
    /// observed removal pattern becomes a weighted
    /// [`removes`](Workload::removes) entry. Weights are the raw counts, so
    /// the ranking optimizes exactly the mix the relation actually served.
    pub fn from_profile(p: &WorkloadProfile) -> Workload {
        let mut w = Workload::new();
        for &(avail, ranged, out, n) in &p.queries {
            if n == 0 {
                continue;
            }
            w = if ranged.is_empty() {
                w.query(avail, out, n as f64)
            } else {
                w.query_where(avail, ranged, out, n as f64)
            };
        }
        w = w.inserts(p.inserts as f64);
        for &(pattern, n) in &p.removes {
            if n > 0 {
                w = w.removes(pattern, n as f64);
            }
        }
        w
    }
}

/// The outcome of [`Autotuner::recommend`]: the statically best candidate
/// for the measured workload, alongside what the *current* representation
/// costs on that workload under its observed fan-outs.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// The best-ranked candidate (finite cost, adequate).
    pub best: TuneResult,
    /// The current decomposition's cost on the same workload, estimated
    /// with the fan-outs measured from the live instance.
    pub current_cost: f64,
    /// The workload the ranking was computed for (rebuilt from the
    /// profile), for inspection and logging.
    pub workload: Workload,
}

impl Recommendation {
    /// The estimated speedup of migrating: `current_cost / best.cost`
    /// (`> 1` means the recommendation beats the status quo).
    pub fn improvement(&self) -> f64 {
        if self.best.cost > 0.0 {
            self.current_cost / self.best.cost
        } else if self.current_cost > 0.0 {
            f64::INFINITY
        } else {
            1.0
        }
    }

    /// Is the estimated speedup at least `min_improvement`? The margin
    /// absorbs the model mismatch between the candidate's derived fan-outs
    /// and the current representation's measured ones, and damps
    /// migration churn between near-equal candidates.
    pub fn should_migrate(&self, min_improvement: f64) -> bool {
        self.best.cost.is_finite() && self.improvement() >= min_improvement
    }
}

/// The autotuner for one relational specification.
#[derive(Debug, Clone)]
pub struct Autotuner<'a> {
    spec: &'a RelSpec,
    opts: EnumerateOptions,
    relation_size: f64,
}

impl<'a> Autotuner<'a> {
    /// Creates an autotuner with default enumeration options (≤ 4 edges,
    /// hash tables only) and an assumed relation size of 4096 tuples.
    pub fn new(spec: &'a RelSpec) -> Self {
        Autotuner {
            spec,
            opts: EnumerateOptions::default(),
            relation_size: 4096.0,
        }
    }

    /// Overrides the enumeration options (edge bound, sharing, structure
    /// palette).
    pub fn with_options(mut self, opts: EnumerateOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Sets the assumed relation size used to derive per-edge fan-outs for
    /// static ranking.
    pub fn with_relation_size(mut self, n: f64) -> Self {
        self.relation_size = n.max(1.0);
        self
    }

    /// Derives a cost model for a candidate: an edge whose key covers a
    /// fraction `k/m` of the relation's minimal key gets fan-out `n^(k/m)`
    /// (so fan-outs along any key-covering path multiply to roughly the
    /// relation size `n`); edges keyed only by non-key columns get `√n`.
    pub fn default_model(&self, d: &Decomposition) -> CostModel {
        let minkey = self.spec.minimal_key();
        let m = minkey.len().max(1) as f64;
        let n = self.relation_size;
        let fanouts = d
            .edges()
            .map(|(_, e)| {
                let k = e.key.intersection(minkey).len();
                if k > 0 {
                    n.powf(k as f64 / m)
                } else {
                    n.sqrt()
                }
            })
            .collect();
        CostModel::from_fanouts(d, fanouts)
    }

    /// The candidate decompositions (adequate, deduplicated, deterministic).
    pub fn candidates(&self) -> Vec<Decomposition> {
        enumerate_decompositions(self.spec, &self.opts)
    }

    /// Benchmarks every candidate with `bench` (which returns a cost, e.g.
    /// elapsed seconds) and returns candidates sorted by increasing cost.
    /// `NaN` costs are treated as `INFINITY`.
    pub fn tune<F: FnMut(&Decomposition) -> f64>(&self, mut bench: F) -> Vec<TuneResult> {
        let mut results: Vec<TuneResult> = self
            .candidates()
            .into_iter()
            .map(|d| {
                let cost = bench(&d);
                TuneResult {
                    decomposition: d,
                    cost: if cost.is_nan() { f64::INFINITY } else { cost },
                }
            })
            .collect();
        results.sort_by(|a, b| a.cost.total_cmp(&b.cost));
        results
    }

    /// Ranks every candidate by the §4.3 cost model over `workload`, without
    /// executing anything.
    pub fn tune_static(&self, workload: &Workload) -> Vec<TuneResult> {
        let mut results: Vec<TuneResult> = self
            .candidates()
            .into_iter()
            .map(|d| {
                let cost = self.static_cost(&d, workload);
                TuneResult {
                    decomposition: d,
                    cost,
                }
            })
            .collect();
        results.sort_by(|a, b| a.cost.total_cmp(&b.cost));
        results
    }

    /// The static cost of a single candidate for a workload, under the
    /// candidate's [`default_model`](Autotuner::default_model).
    pub fn static_cost(&self, d: &Decomposition, workload: &Workload) -> f64 {
        self.static_cost_with_model(d, self.default_model(d), workload)
    }

    /// The static cost of a decomposition for a workload under an explicit
    /// cost model (e.g. one profiled from a live instance's observed
    /// fan-outs). All per-operation charging routes through the shared
    /// [`CostModel`] — query plans via the §4.3 planner,
    /// insertions via [`CostModel::insert_cost`], removal cut-breaking via
    /// [`CostModel::remove_break_cost`] — so the tuner can never disagree
    /// with the planner about what an operation costs.
    pub fn static_cost_with_model(
        &self,
        d: &Decomposition,
        model: CostModel,
        workload: &Workload,
    ) -> f64 {
        let planner = Planner::new(d, self.spec, model);
        let mut total = 0.0;
        for (avail, out, weight) in &workload.queries {
            match planner.plan_query(*avail, *out) {
                Ok(p) => total += weight * p.cost,
                Err(_) => return f64::INFINITY,
            }
        }
        for (eq, ranged, out, weight) in &workload.range_queries {
            match planner.plan_query_where(*eq, *ranged, relic_spec::ColSet::EMPTY, *out) {
                Ok(p) => total += weight * p.cost,
                Err(_) => return f64::INFINITY,
            }
        }
        if workload.insert_weight > 0.0 {
            total += workload.insert_weight * planner.cost_model().insert_cost(d);
        }
        for (pattern, weight) in &workload.remove_patterns {
            match planner.plan_query(*pattern, self.spec.cols()) {
                Ok(p) => {
                    let c = relic_decomp::cut(d, self.spec.fds(), *pattern);
                    let break_cost = planner.cost_model().remove_break_cost(d, &c.crossing);
                    total += weight * (p.cost + break_cost);
                }
                Err(_) => return f64::INFINITY,
            }
        }
        total
    }

    /// Closes the adaptive loop for a live relation: rebuilds the workload
    /// from the relation's measured profile
    /// ([`Workload::from_profile`]), sizes the candidate models by the
    /// relation's *actual* tuple count, and ranks every candidate against
    /// the *current* representation's cost under its **observed** fan-outs
    /// (`SynthRelation::observed_cost_model`).
    ///
    /// Returns `None` when nothing has been recorded yet or no candidate
    /// can execute the workload. Act on the result with
    /// [`Recommendation::should_migrate`] and
    /// `SynthRelation::migrate_to(rec.best.decomposition)`.
    ///
    /// The relation must have been built for the same specification this
    /// tuner was (`Autotuner::new(rel.spec())`).
    pub fn recommend(&self, r: &SynthRelation) -> Option<Recommendation> {
        debug_assert_eq!(self.spec, r.spec(), "tuner and relation specs differ");
        let profile = r.profile();
        if profile.is_empty() {
            return None;
        }
        let workload = Workload::from_profile(&profile);
        let sized = self.clone().with_relation_size(r.len() as f64);
        let current_cost =
            sized.static_cost_with_model(r.decomposition(), r.observed_cost_model(), &workload);
        let best = sized
            .tune_static(&workload)
            .into_iter()
            .next()
            .filter(|t| t.cost.is_finite())?;
        Some(Recommendation {
            best,
            current_cost,
            workload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relic_spec::Catalog;

    fn graph() -> (Catalog, RelSpec) {
        let mut cat = Catalog::new();
        let src = cat.intern("src");
        let dst = cat.intern("dst");
        let weight = cat.intern("weight");
        let spec = RelSpec::new(src | dst | weight).with_fd(src | dst, weight.into());
        (cat, spec)
    }

    #[test]
    fn candidates_are_adequate_and_bounded() {
        let (_, spec) = graph();
        let tuner = Autotuner::new(&spec).with_options(EnumerateOptions {
            max_edges: 3,
            ..Default::default()
        });
        let cs = tuner.candidates();
        assert!(!cs.is_empty());
        for c in &cs {
            assert!(c.edge_count() <= 3);
            relic_decomp::check_adequacy(c, &spec).unwrap();
        }
    }

    #[test]
    fn dynamic_tune_sorts_by_cost() {
        let (_, spec) = graph();
        let tuner = Autotuner::new(&spec).with_options(EnumerateOptions {
            max_edges: 2,
            ..Default::default()
        });
        // Fake benchmark: prefer fewer edges, penalize more nodes.
        let results = tuner.tune(|d| (d.edge_count() * 10 + d.node_count()) as f64);
        assert!(results.windows(2).all(|p| p[0].cost <= p[1].cost));
    }

    #[test]
    fn nan_costs_sort_last() {
        let (_, spec) = graph();
        let tuner = Autotuner::new(&spec).with_options(EnumerateOptions {
            max_edges: 2,
            ..Default::default()
        });
        let mut flip = false;
        let results = tuner.tune(|_| {
            flip = !flip;
            if flip {
                f64::NAN
            } else {
                1.0
            }
        });
        let last = results.last().unwrap();
        assert!(last.cost.is_infinite());
        assert_eq!(results.first().unwrap().cost, 1.0);
    }

    #[test]
    fn static_ranking_prefers_matching_index() {
        // For a pure successor-query workload, a decomposition keyed by src
        // first should out-rank one keyed by weight first.
        let (mut cat, spec) = graph();
        let src = cat.intern("src");
        let dst = cat.intern("dst");
        let weight = cat.intern("weight");
        let tuner = Autotuner::new(&spec);
        let workload = Workload::new().query(src.into(), dst | weight, 1.0);
        let ranking = tuner.tune_static(&workload);
        assert!(ranking.windows(2).all(|p| p[0].cost <= p[1].cost));
        let best = &ranking[0].decomposition;
        // The best decomposition's root must allow a lookup on src.
        let root_keys: Vec<_> = best
            .node(best.root())
            .body
            .edges()
            .iter()
            .map(|e| best.edge(*e).key)
            .collect();
        assert!(
            root_keys.iter().any(|k| k.is_subset(src.into())),
            "best root keys {root_keys:?}"
        );
    }

    #[test]
    fn static_cost_accounts_for_intrusive_removal() {
        // Identical shapes, one with dlist and one with ilist on the shared
        // leaf: removal by key should be cheaper with the intrusive list.
        let (mut cat, spec) = graph();
        let src = cat.col("src").unwrap();
        let dst = cat.col("dst").unwrap();
        let mut shared = |ds: &str| {
            relic_decomp::parse(
                &mut cat,
                &format!(
                    "let w : {{src,dst}} . {{weight}} = unit {{weight}} in
                     let y : {{src}} . {{dst,weight}} = {{dst}} -[{ds}]-> w in
                     let z : {{dst}} . {{src,weight}} = {{src}} -[{ds}]-> w in
                     let x : {{}} . {{src,dst,weight}} =
                       ({{src}} -[htable]-> y) join ({{dst}} -[htable]-> z) in x"
                ),
            )
            .unwrap()
        };
        let with_dlist = shared("dlist");
        let with_ilist = shared("ilist");
        let tuner = Autotuner::new(&spec).with_relation_size(4096.0);
        let workload = Workload::new().removes(src | dst, 1.0);
        let c_dlist = tuner.static_cost(&with_dlist, &workload);
        let c_ilist = tuner.static_cost(&with_ilist, &workload);
        assert!(
            c_ilist < c_dlist,
            "intrusive {c_ilist} should beat dlist {c_dlist}"
        );
    }

    #[test]
    fn range_workload_prefers_ordered_index() {
        // A time-window-heavy workload over an event log: with trees in the
        // palette, the statically best candidate must seek (an ordered edge
        // whose final key column is the ranged one).
        let mut cat = Catalog::new();
        let host = cat.intern("host");
        let ts = cat.intern("ts");
        let bytes = cat.intern("bytes");
        let spec = RelSpec::new(host | ts | bytes).with_fd(host | ts, bytes.into());
        let tuner = Autotuner::new(&spec).with_options(EnumerateOptions {
            max_edges: 2,
            structures: vec![
                relic_decomp::DsKind::HashTable,
                relic_decomp::DsKind::AvlTree,
            ],
            ..Default::default()
        });
        let workload = Workload::new().query_where(host.into(), ts.into(), bytes.into(), 1.0);
        let ranking = tuner.tune_static(&workload);
        assert!(ranking.windows(2).all(|p| p[0].cost <= p[1].cost));
        let best = &ranking[0].decomposition;
        let planner = Planner::new(best, &spec, tuner.default_model(best));
        let plan = planner
            .plan_query_where(host.into(), ts.into(), ColSet::EMPTY, bytes.into())
            .unwrap();
        assert!(
            plan.plan.to_string().contains("qrange"),
            "best candidate should seek: {}",
            plan.plan
        );
        // And it must strictly beat the best hash-only candidate.
        let hash_tuner = Autotuner::new(&spec).with_options(EnumerateOptions {
            max_edges: 2,
            ..Default::default()
        });
        let hash_best = &hash_tuner.tune_static(&workload)[0];
        assert!(ranking[0].cost < hash_best.cost);
    }

    #[test]
    fn from_profile_round_trips_the_op_mix() {
        let mut cat = Catalog::new();
        let a = cat.intern("a");
        let b = cat.intern("b");
        let profile = WorkloadProfile {
            queries: vec![
                (a.set(), ColSet::EMPTY, b.set(), 3),
                (ColSet::EMPTY, a.set(), b.set(), 2),
            ],
            inserts: 5,
            removes: vec![(a | b, 4)],
        };
        let w = Workload::from_profile(&profile);
        assert_eq!(w.queries, vec![(a.set(), b.set(), 3.0)]);
        assert_eq!(
            w.range_queries,
            vec![(ColSet::EMPTY, a.set(), b.set(), 2.0)]
        );
        assert_eq!(w.insert_weight, 5.0);
        assert_eq!(w.remove_patterns, vec![(a | b, 4.0)]);
    }

    #[test]
    fn recommend_migrates_a_mismatched_representation() {
        use relic_spec::{Tuple, Value};
        // An event log represented flat, hashed by its full key: perfect
        // for point reads, pathological for the scan/remove-by-ts phase
        // this test observes.
        let mut cat = Catalog::new();
        let host = cat.intern("host");
        let ts = cat.intern("ts");
        let bytes = cat.intern("bytes");
        let spec = RelSpec::new(host | ts | bytes).with_fd(host | ts, bytes.into());
        let flat = relic_decomp::parse(
            &mut cat,
            "let u : {host,ts} . {bytes} = unit {bytes} in
             let x : {} . {host,ts,bytes} = {host,ts} -[htable]-> u in x",
        )
        .unwrap();
        let mut r = relic_core::SynthRelation::new(&cat, spec.clone(), flat).unwrap();
        for h in 0..32i64 {
            for t in 0..32i64 {
                r.insert(Tuple::from_pairs([
                    (host, Value::from(h)),
                    (ts, Value::from(t)),
                    (bytes, Value::from(h + t)),
                ]))
                .unwrap();
            }
        }
        let tuner = Autotuner::new(&spec).with_options(EnumerateOptions {
            max_edges: 2,
            structures: vec![
                relic_decomp::DsKind::HashTable,
                relic_decomp::DsKind::AvlTree,
            ],
            ..Default::default()
        });
        // Nothing observed yet: no recommendation.
        r.reset_profile();
        assert!(tuner.recommend(&r).is_none());
        // A ts-heavy phase: window queries and removals by timestamp.
        for t in 0..16i64 {
            r.query(&Tuple::from_pairs([(ts, Value::from(t))]), host | bytes)
                .unwrap();
        }
        for t in 0..4i64 {
            r.remove(&Tuple::from_pairs([(ts, Value::from(t))]))
                .unwrap();
        }
        let rec = tuner.recommend(&r).expect("observed workload");
        assert!(
            rec.should_migrate(1.5),
            "ts-heavy phase must beat the flat hash by 1.5x: improvement {}",
            rec.improvement()
        );
        let before = r.to_relation();
        r.migrate_to(rec.best.decomposition.clone()).unwrap();
        assert_eq!(r.to_relation(), before);
        r.validate().unwrap();
        // The migrated representation serves the same phase without another
        // worthwhile migration (margin absorbs model mismatch).
        r.reset_profile();
        for t in 4..16i64 {
            r.query(&Tuple::from_pairs([(ts, Value::from(t))]), host | bytes)
                .unwrap();
            r.remove(&Tuple::from_pairs([(ts, Value::from(t))]))
                .unwrap();
        }
        if let Some(rec2) = tuner.recommend(&r) {
            assert!(
                !rec2.should_migrate(1.5),
                "already-matched representation should stay: improvement {}",
                rec2.improvement()
            );
        }
    }

    #[test]
    fn impossible_workload_is_infinite() {
        let (mut cat, spec) = graph();
        let alien = cat.intern("alien");
        let tuner = Autotuner::new(&spec).with_options(EnumerateOptions {
            max_edges: 2,
            ..Default::default()
        });
        let workload = Workload::new().query(ColSet::EMPTY, alien.into(), 1.0);
        let ranking = tuner.tune_static(&workload);
        assert!(ranking.iter().all(|r| r.cost.is_infinite()));
    }
}
