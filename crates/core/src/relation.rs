//! [`SynthRelation`]: the synthesized implementation of a relational
//! specification for a chosen decomposition.

use crate::alpha;
use crate::error::{BuildError, MigrateError, OpError};
use crate::exec::{exec_plan, Bindings, ExecEnv};
use crate::instance::{InstanceRef, Key, Layout, PrimInst, Store};
use crate::profile::{ProfileCounters, WorkloadProfile};
use crate::read::{interval_cols, plan_memoized, PlanCache, ReadCore, RelRead};
use relic_decomp::{check_adequacy, cut, Decomposition, NodeId};
use relic_query::{CostModel, JoinCostMode, Plan};
use relic_spec::{Catalog, ColSet, Pattern, RelSpec, Relation, Tuple};
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, RwLock};

/// A relation synthesized from a [`RelSpec`] and an adequate
/// [`Decomposition`] — the Rust analog of the C++ classes emitted by RELC.
///
/// Supports the five relational operations of §2 (`empty` = [`SynthRelation::new`],
/// [`insert`](SynthRelation::insert), [`remove`](SynthRelation::remove),
/// [`update`](SynthRelation::update), [`query`](SynthRelation::query))
/// with per-query plans chosen by the §4.3 cost-based planner and memoized
/// per signature.
///
/// Functional-dependency checking (the preconditions of Lemma 4) is **on**
/// by default and can be disabled with
/// [`set_fd_checking`](SynthRelation::set_fd_checking) for benchmarks.
///
/// # Example
///
/// ```
/// use relic_spec::{Catalog, RelSpec, Tuple, Value};
/// use relic_decomp::parse;
/// use relic_core::SynthRelation;
///
/// let mut cat = Catalog::new();
/// let d = parse(
///     &mut cat,
///     "let w : {ns,pid,state} . {cpu} = unit {cpu} in
///      let y : {ns} . {pid,cpu} = {pid} -[htable]-> w in
///      let z : {state} . {ns,pid,cpu} = {ns,pid} -[dlist]-> w in
///      let x : {} . {ns,pid,state,cpu} =
///        ({ns} -[htable]-> y) join ({state} -[vec]-> z) in x",
/// )?;
/// let (ns, pid, state, cpu) = (
///     cat.col("ns").unwrap(),
///     cat.col("pid").unwrap(),
///     cat.col("state").unwrap(),
///     cat.col("cpu").unwrap(),
/// );
/// let spec = RelSpec::new(cat.all()).with_fd(ns | pid, state | cpu);
/// let mut r = SynthRelation::new(&cat, spec, d)?;
/// r.insert(Tuple::from_pairs([
///     (ns, Value::from(7)),
///     (pid, Value::from(42)),
///     (state, Value::from("R")),
///     (cpu, Value::from(0)),
/// ]))?;
/// let running = r.query(&Tuple::from_pairs([(state, Value::from("R"))]), ns | pid)?;
/// assert_eq!(running.len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct SynthRelation {
    cat: Catalog,
    spec: RelSpec,
    /// The decomposition, `Arc`-shared with every outstanding
    /// [`Snapshot`](crate::Snapshot) (it is only ever *replaced* — by
    /// migration — never mutated in place, so sharing is always sound).
    d: Arc<Decomposition>,
    layout: Arc<Layout>,
    /// The instance store. Mutations go through `Arc::make_mut`: while no
    /// snapshot shares the store the relation mutates in place; the first
    /// mutation after a snapshot was taken pays one *shallow* store clone
    /// (chunk `Arc` bumps, `O(live/64)` — the store is a persistent chunked
    /// structure, see [`Store`]), after which touched chunks/instances are
    /// path-copied lazily. The snapshot's version stays frozen while the
    /// writer pays only for what it touches.
    store: Arc<Store>,
    root: InstanceRef,
    cost: CostModel,
    /// Read-mostly plan cache: the warm path takes only a read lock and
    /// clones an `Arc`, never a `Plan`. Invalidation (`set_cost_model`,
    /// `set_join_cost_mode`, `clear`, migration) *replaces* the `Arc` with a
    /// fresh cache instead of clearing in place, so snapshots sharing the
    /// old cache keep plans consistent with their frozen representation.
    plan_cache: Arc<PlanCache>,
    /// Scratch accumulator reused by the mutation paths (`insert`, `remove`,
    /// `update`) for FD-check and duplicate-detection probes.
    scratch: Bindings,
    /// Scratch key buffer reused for container probes along mutation paths.
    key_scratch: Vec<relic_spec::Value>,
    /// Workload recorder: per-signature query counts, insert count,
    /// per-pattern remove counts. Interior-mutable so `&self` queries can
    /// record; warm signatures cost one read lock + one relaxed increment.
    /// `Arc`-shared with snapshots, so read traffic served wait-free through
    /// a [`Snapshot`](crate::Snapshot) still feeds the autotuner.
    profile: Arc<ProfileCounters>,
    /// Whether the recorder is armed (on by default; see
    /// [`set_profiling`](SynthRelation::set_profiling)).
    profiling: bool,
    check_fds: bool,
    len: usize,
    min_key: ColSet,
}

impl SynthRelation {
    /// `empty()`: creates an empty relation represented by `d`.
    ///
    /// # Errors
    ///
    /// [`BuildError::Adequacy`] if `d` is not adequate for `spec` — i.e. the
    /// decomposition could not represent every relation conforming to the
    /// specification (Fig. 6, Lemma 1).
    pub fn new(cat: &Catalog, spec: RelSpec, d: Decomposition) -> Result<Self, BuildError> {
        check_adequacy(&d, &spec)?;
        let layout = Layout::new(&d);
        let mut store = Store::new(&d);
        let root_node = d.root();
        let root_inst = layout.new_instance(&d, root_node, Box::new([]), &Tuple::empty());
        let root = store.alloc(root_node, root_inst);
        let cost = CostModel::uniform(&d, CostModel::DEFAULT_FANOUT);
        let min_key = spec.minimal_key();
        Ok(SynthRelation {
            cat: cat.clone(),
            spec,
            d: Arc::new(d),
            layout: Arc::new(layout),
            store: Arc::new(store),
            root,
            cost,
            plan_cache: Arc::new(RwLock::new(HashMap::new())),
            scratch: Bindings::new(),
            key_scratch: Vec::new(),
            profile: Arc::new(ProfileCounters::default()),
            profiling: true,
            check_fds: true,
            len: 0,
            min_key,
        })
    }

    /// Estimated heap bytes of the current store version (an O(1) running
    /// estimate — see [`Store::approx_bytes`]).
    pub fn store_approx_bytes(&self) -> usize {
        self.store.approx_bytes()
    }

    /// An immutable, `Arc`-shared view of the relation's current state —
    /// O(1) to take, independent of the relation's size.
    ///
    /// The snapshot shares the decomposition, instance store, plan cache and
    /// workload recorder with the live relation. Subsequent mutations
    /// copy-on-write the store (the first mutation after a snapshot pays one
    /// store clone; later mutations are in-place again), so the snapshot is
    /// frozen at the moment it was taken while the relation moves on. Reads
    /// served through the snapshot still record into the live relation's
    /// workload profile, keeping the autotuner's picture complete.
    pub fn snapshot(&self) -> crate::Snapshot {
        crate::snapshot::Snapshot::new(
            self.spec.clone(),
            Arc::clone(&self.d),
            Arc::clone(&self.store),
            self.root,
            self.cost.clone(),
            Arc::clone(&self.plan_cache),
            Arc::clone(&self.profile),
            self.profiling,
            self.len,
        )
    }

    /// The relation's specification.
    pub fn spec(&self) -> &RelSpec {
        &self.spec
    }

    /// The decomposition in use.
    pub fn decomposition(&self) -> &Decomposition {
        &self.d
    }

    /// The column catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.cat
    }

    /// Number of tuples in the relation.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total node instances across all arenas (a memory-shape statistic;
    /// shared nodes are counted once).
    pub fn instance_count(&self) -> usize {
        self.store.total_live()
    }

    /// Enables or disables functional-dependency checking on mutations.
    /// With checking off, operating outside Lemma 4's preconditions silently
    /// corrupts the relation — exactly as in the paper's generated code.
    pub fn set_fd_checking(&mut self, on: bool) {
        self.check_fds = on;
    }

    /// Replaces the planner's cost model (e.g. with
    /// [`observed_cost_model`](SynthRelation::observed_cost_model)) and
    /// clears the plan cache.
    pub fn set_cost_model(&mut self, cost: CostModel) {
        self.cost = cost;
        self.invalidate_plans();
    }

    /// Switches how joins are charged by the planner (and clears the plan
    /// cache). With [`JoinCostMode::Realistic`], the planner may choose the
    /// non-constant-space `qhashjoin` operator where nested execution would
    /// re-run one join side per outer tuple (§4.1's noted extension); the
    /// default optimistic mode reproduces the paper's constant-space plans.
    pub fn set_join_cost_mode(&mut self, mode: JoinCostMode) {
        self.cost.set_join_mode(mode);
        self.invalidate_plans();
    }

    /// Drops every memoized plan by *replacing* the cache. Snapshots sharing
    /// the old `Arc` keep their (still valid for their frozen
    /// representation) plans; the live relation re-plans from scratch.
    fn invalidate_plans(&mut self) {
        self.plan_cache = Arc::new(RwLock::new(HashMap::new()));
    }

    /// Number of memoized query plans (for tests and cache-behaviour
    /// inspection).
    pub fn plan_cache_len(&self) -> usize {
        self.plan_cache.read().expect("plan cache poisoned").len()
    }

    /// Arms or disarms the workload recorder (armed by default). Disarming
    /// freezes the counters without clearing them.
    pub fn set_profiling(&mut self, on: bool) {
        self.profiling = on;
    }

    /// Snapshots the workload recorder: per-signature query counts, the
    /// insert count, and per-pattern remove counts since construction (or
    /// the last [`reset_profile`](SynthRelation::reset_profile)).
    ///
    /// The snapshot is keyed by column *sets*, so it is independent of the
    /// current decomposition — `relic_autotune`'s `Workload::from_profile`
    /// turns it into a workload for ranking candidate representations.
    pub fn profile(&self) -> WorkloadProfile {
        self.profile.snapshot()
    }

    /// Zeroes the workload recorder, starting a fresh observation window
    /// (e.g. after acting on a recommendation, so the next window measures
    /// the new phase rather than averaging over the old one).
    pub fn reset_profile(&self) {
        self.profile.reset();
    }

    /// Records one query signature if the recorder is armed.
    #[inline]
    fn record_query(&self, avail: ColSet, ranged: ColSet, out: ColSet) {
        if self.profiling {
            self.profile.record_query(avail, ranged, out);
        }
    }

    /// Records one removal pattern if the recorder is armed.
    #[inline]
    fn record_remove(&self, pattern: ColSet) {
        if self.profiling {
            self.profile.record_remove(pattern);
        }
    }

    /// Records `n` inserted tuples if the recorder is armed.
    #[inline]
    fn record_inserts(&self, n: usize) {
        if self.profiling {
            self.profile.record_inserts(n as u64);
        }
    }

    /// Profiles the live instance: the average fan-out of every edge, for
    /// re-planning with measured counts (§4.3's "recorded as part of a
    /// profiling run").
    pub fn observed_cost_model(&self) -> CostModel {
        let mut fanouts = Vec::with_capacity(self.d.edge_count());
        for (eid, e) in self.d.edges() {
            let leaf = self.layout.leaf_of_edge[eid.index()];
            let mut total = 0usize;
            let mut count = 0usize;
            for (slot, _) in self.store.arena(e.from).iter() {
                let r = InstanceRef {
                    node: e.from.0,
                    slot,
                };
                total += self.store.cont_len(r, leaf);
                count += 1;
            }
            fanouts.push(if count == 0 {
                1.0
            } else {
                total as f64 / count as f64
            });
        }
        CostModel::from_fanouts(&self.d, fanouts)
    }

    /// The plan the relation will use for a query signature (for inspection
    /// and tests), rendered in the paper's notation.
    pub fn plan_for(&self, pattern_cols: ColSet, out: ColSet) -> Result<String, OpError> {
        Ok(self.planned(pattern_cols, out)?.to_string())
    }

    fn planned(&self, avail: ColSet, out: ColSet) -> Result<Arc<Plan>, OpError> {
        self.planned_where(avail, ColSet::EMPTY, ColSet::EMPTY, out)
    }

    /// Memoized planning. The warm path takes one read lock and hands out a
    /// shared `Arc<Plan>` — no exclusive lock, no plan clone. On a miss the
    /// (expensive) planning runs outside any lock; the subsequent insert
    /// re-checks the entry so concurrent planners that raced converge on one
    /// plan instead of clobbering each other (the seed's get-then-insert
    /// under separate `Mutex` acquisitions re-planned *and* re-inserted).
    fn planned_where(
        &self,
        eq: ColSet,
        ranged: ColSet,
        filtered: ColSet,
        out: ColSet,
    ) -> Result<Arc<Plan>, OpError> {
        plan_memoized(
            &self.plan_cache,
            &self.d,
            &self.spec,
            &self.cost,
            eq,
            ranged,
            filtered,
            out,
        )
    }

    /// `query r s C` (§2): [`RelRead::query`], kept inherent for callers
    /// without the trait in scope.
    ///
    /// # Errors
    ///
    /// [`OpError::ForeignColumns`] if `pattern` or `out` mention columns
    /// outside the relation.
    pub fn query(&self, pattern: &Tuple, out: ColSet) -> Result<Vec<Tuple>, OpError> {
        RelRead::query(self, pattern, out)
    }

    /// The raw streaming query path: calls `f` with the execution
    /// accumulator for each match, without materializing any tuple.
    ///
    /// This is the zero-allocation hot path: with a reused `scratch` and a
    /// warm plan cache, a query performs **no heap allocation per emitted
    /// tuple** (and none per query at all on lookup-only plans) — the
    /// callback reads the columns it needs via [`Bindings::get`] or projects
    /// with [`Bindings::project`] if it wants an owned tuple. The
    /// accumulator's domain is the pattern's columns plus every column the
    /// plan bound on the emitted path (a superset of `out`).
    ///
    /// # Errors
    ///
    /// [`OpError::ForeignColumns`] if `pattern` or `out` mention columns
    /// outside the relation.
    pub fn query_for_each_bindings(
        &self,
        scratch: &mut Bindings,
        pattern: &Tuple,
        out: ColSet,
        f: impl FnMut(&Bindings),
    ) -> Result<(), OpError> {
        // Record only valid signatures: an unplannable (foreign-column)
        // signature in the profile would make every candidate rank infinite
        // and silently disable recommendations.
        if (pattern.dom() | out).is_subset(self.spec.cols()) {
            self.record_query(pattern.dom(), ColSet::EMPTY, out);
        }
        self.stream_bindings(scratch, pattern, out, f)
    }

    /// The borrowed read core over this relation's current state (shared
    /// with [`crate::Snapshot`], which builds the same core over its frozen
    /// `Arc`s — one implementation of plan + execute serves both).
    fn read_core(&self) -> ReadCore<'_> {
        ReadCore {
            spec: &self.spec,
            d: &self.d,
            store: &self.store,
            root: self.root,
            cost: &self.cost,
            plan_cache: &self.plan_cache,
        }
    }

    /// [`query_for_each_bindings`](SynthRelation::query_for_each_bindings)
    /// without workload recording — the internal path for operations (like
    /// `remove`'s matching enumeration or a migration drain) whose embedded
    /// queries are accounted by their own operation counter, not as observed
    /// query traffic.
    fn stream_bindings(
        &self,
        scratch: &mut Bindings,
        pattern: &Tuple,
        out: ColSet,
        f: impl FnMut(&Bindings),
    ) -> Result<(), OpError> {
        self.read_core().stream(scratch, pattern, out, f)
    }

    /// All full tuples extending `pattern`, sorted: [`RelRead::query_full`],
    /// kept inherent like [`query`](SynthRelation::query).
    ///
    /// # Errors
    ///
    /// As for [`query`](SynthRelation::query).
    pub fn query_full(&self, pattern: &Tuple) -> Result<Vec<Tuple>, OpError> {
        RelRead::query_full(self, pattern)
    }

    /// The unrecorded equivalent of [`query_full`](SynthRelation::query_full)
    /// for mutation paths: the tuples they enumerate are part of the
    /// mutation's own cost, not observed query traffic.
    fn collect_full(&self, pattern: &Tuple) -> Result<Vec<Tuple>, OpError> {
        let all = self.spec.cols();
        let mut set: BTreeSet<Tuple> = BTreeSet::new();
        let mut scratch = Bindings::new();
        self.stream_bindings(&mut scratch, pattern, all, |b| {
            set.insert(b.project(all));
        })?;
        Ok(set.into_iter().collect())
    }

    /// The raw streaming path for comparison patterns (§2's "comparisons
    /// other than equality" extension): calls `f` with the execution
    /// accumulator for each tuple satisfying `pattern` — see
    /// [`RelRead::query_where_for_each_bindings`] for how predicates map to
    /// plan operators and
    /// [`query_for_each_bindings`](SynthRelation::query_for_each_bindings)
    /// for the allocation contract.
    ///
    /// # Errors
    ///
    /// [`OpError::ForeignColumns`] if `pattern` or `out` mention columns
    /// outside the relation.
    pub fn query_where_for_each_bindings(
        &self,
        scratch: &mut Bindings,
        pattern: &Pattern,
        out: ColSet,
        f: impl FnMut(&Bindings),
    ) -> Result<(), OpError> {
        if (pattern.dom() | out).is_subset(self.spec.cols()) {
            self.record_query(pattern.eq_cols(), interval_cols(pattern), out);
        }
        self.stream_where_bindings(scratch, pattern, out, f)
    }

    /// The unrecorded core of
    /// [`query_where_for_each_bindings`](SynthRelation::query_where_for_each_bindings)
    /// (see [`stream_bindings`](SynthRelation::stream_bindings) for why
    /// mutation paths bypass the recorder).
    fn stream_where_bindings(
        &self,
        scratch: &mut Bindings,
        pattern: &Pattern,
        out: ColSet,
        f: impl FnMut(&Bindings),
    ) -> Result<(), OpError> {
        self.read_core().stream_where(scratch, pattern, out, f)
    }

    /// The unrecorded equivalent of `query_where(pattern, all)` for
    /// [`remove_where`](SynthRelation::remove_where)'s matching enumeration.
    fn collect_where_full(&self, pattern: &Pattern) -> Result<Vec<Tuple>, OpError> {
        let all = self.spec.cols();
        let mut set: BTreeSet<Tuple> = BTreeSet::new();
        let mut scratch = Bindings::new();
        self.stream_where_bindings(&mut scratch, pattern, all, |b| {
            set.insert(b.project(all));
        })?;
        Ok(set.into_iter().collect())
    }

    /// The plan [`query_where`](RelRead::query_where) will use for a
    /// pattern's signature (for inspection and tests), rendered in the
    /// paper's notation.
    pub fn plan_for_where(&self, pattern: &Pattern, out: ColSet) -> Result<String, OpError> {
        let ranged = interval_cols(pattern);
        let filtered = pattern.cmp_cols() - ranged;
        Ok(self
            .planned_where(pattern.eq_cols(), ranged, filtered, out)?
            .to_string())
    }

    /// `insert r t` (§2): inserts a full tuple. Returns `Ok(false)` if the
    /// exact tuple was already present.
    ///
    /// # Errors
    ///
    /// * [`OpError::ColumnMismatch`] — `t` is not a valuation of the
    ///   relation's columns.
    /// * [`OpError::FdViolation`] — inserting would violate a functional
    ///   dependency (always detected on the relation's minimal key; detected
    ///   on every dependency when FD checking is enabled).
    pub fn insert(&mut self, t: Tuple) -> Result<bool, OpError> {
        if t.dom() != self.spec.cols() {
            return Err(OpError::ColumnMismatch {
                expected: self.spec.cols(),
                actual: t.dom(),
            });
        }
        // Key lookup: duplicate detection and first-line FD enforcement,
        // streamed through the relation's scratch accumulator — no pattern
        // tuple, no materialized result set.
        let plan = self.planned(self.min_key, self.spec.cols())?;
        let (dup, conflict) = self.probe_key(&plan, &t);
        if dup {
            return Ok(false);
        }
        if let Some(existing) = conflict {
            return Err(OpError::FdViolation { tuple: t, existing });
        }
        if self.check_fds {
            self.check_fds_against(&t, None)?;
        }
        self.dinsert(&t);
        self.len += 1;
        self.record_inserts(1);
        Ok(true)
    }

    /// Streams stored tuples matching `t` on the minimal key through the
    /// relation's scratch accumulator, returning `(exact duplicate present,
    /// first differing match)` — the duplicate/conflict probe shared by
    /// [`insert`](SynthRelation::insert) and the batch paths.
    fn probe_key(&mut self, plan: &Plan, t: &Tuple) -> (bool, Option<Tuple>) {
        let all = self.spec.cols();
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut dup = false;
        let mut conflict: Option<Tuple> = None;
        for_each_matching(
            &self.store,
            &self.d,
            self.root,
            plan,
            &mut scratch,
            t,
            self.min_key,
            &mut |b| {
                if dup || conflict.is_some() {
                    return;
                }
                if all.iter().all(|c| b.get(c) == t.get(c)) {
                    dup = true;
                } else {
                    conflict = Some(b.project(all));
                }
            },
        );
        self.scratch = scratch;
        (dup, conflict)
    }

    /// Checks every declared dependency of the specification against the
    /// instance for prospective tuple `t`, ignoring `exclude` (used by
    /// `update`, where the old version of the tuple is about to disappear).
    ///
    /// Each dependency probe streams through the relation's scratch
    /// accumulator; the offending tuple is materialized only on the error
    /// path.
    fn check_fds_against(&mut self, t: &Tuple, exclude: Option<&Tuple>) -> Result<(), OpError> {
        let all = self.spec.cols();
        let nfds = self.spec.fds().len();
        for i in 0..nfds {
            let fd = self.spec.fds().nth(i);
            let plan = self.planned(fd.lhs & all, all)?;
            let mut scratch = std::mem::take(&mut self.scratch);
            let mut violation: Option<Tuple> = None;
            for_each_matching(
                &self.store,
                &self.d,
                self.root,
                &plan,
                &mut scratch,
                t,
                fd.lhs & all,
                &mut |b| {
                    if violation.is_some() {
                        return;
                    }
                    if let Some(ex) = exclude {
                        if all.iter().all(|c| b.get(c) == ex.get(c)) {
                            return;
                        }
                    }
                    if fd
                        .rhs
                        .iter()
                        .any(|c| all.contains(c) && b.get(c) != t.get(c))
                    {
                        violation = Some(b.project(all));
                    }
                },
            );
            self.scratch = scratch;
            if let Some(existing) = violation {
                return Err(OpError::FdViolation {
                    tuple: t.clone(),
                    existing,
                });
            }
        }
        Ok(())
    }

    /// The `dinsert` operation (§4.4): find-or-create instances in
    /// topological order, then link them through every incoming edge.
    ///
    /// All existence probes go through the relation's reusable key buffer
    /// and the containers' borrowed-key lookups; an owned key is only built
    /// when an entry is actually stored.
    fn dinsert(&mut self, t: &Tuple) {
        let nn = self.d.node_count();
        let mut resolved: Vec<Option<InstanceRef>> = vec![None; nn];
        let mut kb = std::mem::take(&mut self.key_scratch);
        let order: Vec<NodeId> = self.d.topo_root_first().collect();
        for node in order {
            let inst = if node == self.d.root() {
                self.root
            } else {
                let mut found = None;
                for &e in self.d.incoming_edges(node) {
                    let edge = self.d.edge(e);
                    let parent = resolved[edge.from.index()]
                        .expect("parents resolved before children (topological order)");
                    t.write_key_into(edge.key, &mut kb);
                    if let Some(r) =
                        self.store
                            .cont_get(parent, self.layout.leaf_of_edge[e.index()], &kb)
                    {
                        found = Some(r);
                        break;
                    }
                }
                found.unwrap_or_else(|| {
                    let key = t.key_for(self.d.node(node).bound);
                    let inst = self.layout.new_instance(&self.d, node, key, t);
                    Arc::make_mut(&mut self.store).alloc(node, inst)
                })
            };
            for &e in self.d.incoming_edges(node) {
                let edge = self.d.edge(e);
                let parent = resolved[edge.from.index()].expect("topological order");
                let leaf = self.layout.leaf_of_edge[e.index()];
                t.write_key_into(edge.key, &mut kb);
                if self.store.cont_get(parent, leaf, &kb).is_none() {
                    let ekey: Key = kb.as_slice().into();
                    Arc::make_mut(&mut self.store).cont_insert(parent, leaf, ekey, inst);
                }
            }
            resolved[node.index()] = Some(inst);
        }
        self.key_scratch = kb;
    }

    // -- batch operations ---------------------------------------------------

    /// `insert_many`: inserts a batch of tuples with per-batch (rather than
    /// per-tuple) setup — plans are fetched once, duplicate and
    /// functional-dependency screening runs over the sorted batch instead of
    /// issuing a planned probe per tuple, and the decomposition walk reuses
    /// the previous tuple's instances wherever the bound valuations agree.
    ///
    /// Observably equivalent to folding [`insert`](SynthRelation::insert)
    /// over the batch in order: exact duplicates (within the batch or
    /// against the relation) are no-ops, the returned count is the number of
    /// tuples actually added, and on error the relation holds exactly the
    /// tuples the fold would have inserted before failing.
    ///
    /// # Errors
    ///
    /// The error the fold would have hit first
    /// ([`OpError::ColumnMismatch`] or [`OpError::FdViolation`]); the
    /// `existing` witness of an [`OpError::FdViolation`] is *a* conflicting
    /// tuple, not necessarily the one a fold would have streamed first.
    pub fn insert_many<I: IntoIterator<Item = Tuple>>(
        &mut self,
        tuples: I,
    ) -> Result<usize, OpError> {
        self.bulk_insert(tuples, false)
    }

    /// `bulk_load`: [`insert_many`](SynthRelation::insert_many) with the
    /// accepted batch additionally sorted by the decomposition's root-down
    /// key order before the structural walk, so consecutive tuples share
    /// every instance on their common path and each key-group's containers
    /// are probed once. Root containers are pre-sized to the number of
    /// distinct key groups. This is the intended path for O(n) ingest of
    /// large batches (case-study startup, replay, snapshot restore).
    ///
    /// # Errors
    ///
    /// As for [`insert_many`](SynthRelation::insert_many).
    pub fn bulk_load<I: IntoIterator<Item = Tuple>>(
        &mut self,
        tuples: I,
    ) -> Result<usize, OpError> {
        self.bulk_insert(tuples, true)
    }

    /// Shared batch-insert engine: screen the batch (duplicates, conflicts,
    /// FDs) in fold order, then walk the decomposition once per key-group.
    fn bulk_insert<I: IntoIterator<Item = Tuple>>(
        &mut self,
        tuples: I,
        sort_structural: bool,
    ) -> Result<usize, OpError> {
        let all = self.spec.cols();
        let w = all.len();
        // The first error the fold would hit, as (tuple index, check stage,
        // error): stage 0 = column mismatch, 1 = minimal-key probe, 2+i =
        // the i-th declared dependency — the order `insert` checks them in.
        let mut err: Option<(usize, u32, OpError)> = None;
        fn better(err: &Option<(usize, u32, OpError)>, idx: usize, stage: u32) -> bool {
            err.as_ref().is_none_or(|(i, s, _)| (idx, stage) < (*i, *s))
        }
        // Stream the batch into one contiguous row array, *moving* each
        // tuple's values (ascending column order) — no per-tuple heap
        // traffic, and everything downstream (screening comparisons, the
        // structural walk) indexes rows instead of chasing a tuple pointer
        // per access. The stream stops at the first malformed tuple, exactly
        // where the fold would.
        let mut flat: Vec<relic_spec::Value> = Vec::new();
        let mut n = 0usize;
        for (i, t) in tuples.into_iter().enumerate() {
            if t.dom() != all {
                err = Some((
                    i,
                    0,
                    OpError::ColumnMismatch {
                        expected: all,
                        actual: t.dom(),
                    },
                ));
                break; // later tuples cannot produce an earlier error
            }
            let (_, vals) = t.into_parts();
            flat.extend(vals.into_vec());
            n += 1;
        }
        if n == 0 {
            return match err {
                Some((_, _, e)) => Err(e),
                None => Ok(0),
            };
        }
        // Rebuilds a streamed tuple from its row (error payloads and store
        // probes only — never on the per-tuple path).
        let row_tuple = |flat: &[relic_spec::Value], i: usize| {
            Tuple::from_parts(all, flat[i * w..i * w + w].to_vec())
        };
        let mut dup = vec![false; n];
        // One sort serves everything: the sequence starts with the minimal
        // key (so equal-key runs are contiguous for screening) and continues
        // root-down through the node bounds (so the structural walk visits
        // each shared instance in one consecutive group). Comparisons go
        // through precomputed value positions — every valid tuple is a full
        // valuation, so column values sit at fixed ranks.
        let sort_cols = self.batch_sort_cols();
        let pos: Vec<usize> = sort_cols
            .iter()
            .map(|c| all.rank(*c).expect("sort column in relation"))
            .collect();
        let mk = self.min_key.len();
        let cmp_upto = |a: usize, b: usize, k: usize| -> std::cmp::Ordering {
            let (ra, rb) = (&flat[a * w..a * w + w], &flat[b * w..b * w + w]);
            for &p in &pos[..k] {
                match ra[p].cmp(&rb[p]) {
                    std::cmp::Ordering::Equal => {}
                    o => return o,
                }
            }
            std::cmp::Ordering::Equal
        };
        let mut sorted: Vec<usize> = (0..n).collect();
        // Integer sort keys (≤ 4 columns, the common case-study shape) pack
        // into order-preserving u64 words and sort as one contiguous array —
        // no comparator calls, no row accesses. Anything else falls back to
        // the positional comparator.
        let packed: Option<Vec<([u64; 4], u32)>> = if pos.len() <= 4 {
            (0..n)
                .map(|i| {
                    let row = &flat[i * w..i * w + w];
                    let mut key = [0u64; 4];
                    for (j, &p) in pos.iter().enumerate() {
                        key[j] = (row[p].as_int()? as u64) ^ (1 << 63);
                    }
                    Some((key, i as u32))
                })
                .collect()
        } else {
            None
        };
        match packed {
            Some(mut packed) => {
                packed.sort_unstable();
                for (slot, (_, i)) in sorted.iter_mut().zip(packed) {
                    *slot = i as usize;
                }
            }
            None => {
                sorted.sort_unstable_by(|&a, &b| cmp_upto(a, b, pos.len()).then(a.cmp(&b)));
            }
        }
        // Minimal-key screening: within each run, every member must equal
        // the earliest (fold-order reference) member exactly; the store is
        // probed once per run, not once per tuple.
        let key_plan = if self.len > 0 {
            Some(self.planned(self.min_key, all)?)
        } else {
            None
        };
        let mut start = 0;
        while start < sorted.len() {
            let mut end = start + 1;
            while end < sorted.len() && cmp_upto(sorted[end], sorted[start], mk).is_eq() {
                end += 1;
            }
            let run = &sorted[start..end];
            let i0 = *run.iter().min().expect("non-empty run");
            if let Some(plan) = &key_plan {
                let plan = Arc::clone(plan);
                let probe = row_tuple(&flat, i0);
                let (stored_dup, stored_conflict) = self.probe_key(&plan, &probe);
                if stored_dup {
                    dup[i0] = true;
                } else if let Some(existing) = stored_conflict {
                    if better(&err, i0, 1) {
                        err = Some((
                            i0,
                            1,
                            OpError::FdViolation {
                                tuple: probe,
                                existing,
                            },
                        ));
                    }
                }
            }
            let mut first_conflict: Option<usize> = None;
            for &j in run {
                if j == i0 {
                    continue;
                }
                // Valid tuples all share the relation's domain, so row
                // equality is tuple equality.
                if flat[j * w..j * w + w] == flat[i0 * w..i0 * w + w] {
                    dup[j] = true;
                } else if first_conflict.is_none_or(|x| j < x) {
                    first_conflict = Some(j);
                }
            }
            if let Some(j) = first_conflict {
                if better(&err, j, 1) {
                    err = Some((
                        j,
                        1,
                        OpError::FdViolation {
                            tuple: row_tuple(&flat, j),
                            existing: row_tuple(&flat, i0),
                        },
                    ));
                }
            }
            start = end;
        }
        // Per-dependency screening, in declaration order (matching
        // `check_fds_against`): runs of equal determinant valuations must
        // agree on the dependent columns, in the batch and against the
        // store. Only dependencies whose determinant does not contain the
        // minimal key get here (see the `continue` below) — the common
        // key → rest dependency is fully covered by stage 1.
        if self.check_fds {
            let nfds = self.spec.fds().len();
            let mut fd_sorted: Vec<usize> = Vec::new();
            for fi in 0..nfds {
                let fd = self.spec.fds().nth(fi);
                let (lhs, rhs) = (fd.lhs & all, fd.rhs & all);
                let stage = 2 + fi as u32;
                // A determinant containing the minimal key can never fire
                // after minimal-key screening passed: equal determinants
                // force equal minimal keys, and stage 1 already flagged
                // every same-key pair that is not an exact duplicate.
                if self.min_key.is_subset(lhs) {
                    continue;
                }
                let rhs_pos: Vec<usize> = rhs
                    .iter()
                    .map(|c| all.rank(c).expect("rhs column in relation"))
                    .collect();
                let rhs_eq = |a: usize, b: &Tuple| -> bool {
                    let ra = &flat[a * w..a * w + w];
                    rhs_pos.iter().zip(rhs.iter()).all(|(&p, c)| {
                        debug_assert!(b.get(c).is_some());
                        Some(&ra[p]) == b.get(c)
                    })
                };
                let rhs_eq_rows = |a: usize, b: usize| -> bool {
                    let (ra, rb) = (&flat[a * w..a * w + w], &flat[b * w..b * w + w]);
                    rhs_pos.iter().all(|&p| ra[p] == rb[p])
                };
                let lhs_pos: Vec<usize> = lhs
                    .iter()
                    .map(|c| all.rank(c).expect("lhs column in relation"))
                    .collect();
                let cmp_lhs = |a: usize, b: usize| -> std::cmp::Ordering {
                    let (ra, rb) = (&flat[a * w..a * w + w], &flat[b * w..b * w + w]);
                    for &p in &lhs_pos {
                        match ra[p].cmp(&rb[p]) {
                            std::cmp::Ordering::Equal => {}
                            o => return o,
                        }
                    }
                    std::cmp::Ordering::Equal
                };
                fd_sorted.clear();
                fd_sorted.extend(0..n);
                fd_sorted.sort_unstable_by(|&a, &b| cmp_lhs(a, b).then(a.cmp(&b)));
                let runs: &[usize] = &fd_sorted;
                let fd_plan = if self.len > 0 {
                    Some(self.planned(lhs, all)?)
                } else {
                    None
                };
                let mut start = 0;
                while start < runs.len() {
                    let mut end = start + 1;
                    while end < runs.len() && cmp_lhs(runs[end], runs[start]).is_eq() {
                        end += 1;
                    }
                    let run = &runs[start..end];
                    let i0 = *run.iter().min().expect("non-empty run");
                    let mut first_conflict: Option<usize> = None;
                    for &j in run {
                        if j != i0 && !rhs_eq_rows(j, i0) && first_conflict.is_none_or(|x| j < x) {
                            first_conflict = Some(j);
                        }
                    }
                    if let Some(j) = first_conflict {
                        if better(&err, j, stage) {
                            err = Some((
                                j,
                                stage,
                                OpError::FdViolation {
                                    tuple: row_tuple(&flat, j),
                                    existing: row_tuple(&flat, i0),
                                },
                            ));
                        }
                    }
                    if let Some(plan) = &fd_plan {
                        let plan = Arc::clone(plan);
                        let probe = row_tuple(&flat, i0);
                        let (w1, w2) = self.probe_fd_witnesses(&plan, &probe, lhs, rhs);
                        if let Some(w1) = w1 {
                            // Earliest non-duplicate member disagreeing with
                            // a stored tuple — exact duplicates return
                            // before dependency checks, as in `insert`.
                            let mut cand: Option<(usize, &Tuple)> = None;
                            for &j in run {
                                if dup[j] || cand.is_some_and(|(x, _)| x < j) {
                                    continue;
                                }
                                let witness = if !rhs_eq(j, &w1) {
                                    Some(&w1)
                                } else {
                                    w2.as_ref()
                                };
                                if let Some(w) = witness {
                                    cand = Some((j, w));
                                }
                            }
                            if let Some((j, witness)) = cand {
                                if better(&err, j, stage) {
                                    let witness = witness.clone();
                                    err = Some((
                                        j,
                                        stage,
                                        OpError::FdViolation {
                                            tuple: row_tuple(&flat, j),
                                            existing: witness,
                                        },
                                    ));
                                }
                            }
                        }
                    }
                    start = end;
                }
            }
        }
        // Accept everything the fold would have inserted before the error;
        // the walk runs in key-group order for `bulk_load`, input order for
        // `insert_many`.
        let err_idx = err.as_ref().map(|(i, _, _)| *i).unwrap_or(usize::MAX);
        let accepted: Vec<usize> = if sort_structural {
            sorted
                .iter()
                .copied()
                .filter(|&i| i < err_idx && !dup[i])
                .collect()
        } else {
            (0..n).filter(|&i| i < err_idx && !dup[i]).collect()
        };
        if !accepted.is_empty() {
            let prefix = if sort_structural {
                Some(sort_cols.as_slice())
            } else {
                None
            };
            self.dinsert_batch(&flat, w, &accepted, prefix);
            self.len += accepted.len();
            self.record_inserts(accepted.len());
        }
        match err {
            Some((_, _, e)) => Err(e),
            None => Ok(accepted.len()),
        }
    }

    /// Streams stored tuples matching `t` on `lhs`, returning the first
    /// match and the first match whose `rhs` projection differs from it —
    /// enough to decide, for every batch member sharing `t`'s determinant
    /// valuation, whether the store holds a conflicting witness.
    fn probe_fd_witnesses(
        &mut self,
        plan: &Plan,
        t: &Tuple,
        lhs: ColSet,
        rhs: ColSet,
    ) -> (Option<Tuple>, Option<Tuple>) {
        let all = self.spec.cols();
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut w1: Option<Tuple> = None;
        let mut w2: Option<Tuple> = None;
        for_each_matching(
            &self.store,
            &self.d,
            self.root,
            plan,
            &mut scratch,
            t,
            lhs,
            &mut |b| match &w1 {
                None => w1 = Some(b.project(all)),
                Some(first) => {
                    if w2.is_none() && rhs.iter().any(|c| b.get(c) != first.get(c)) {
                        w2 = Some(b.project(all));
                    }
                }
            },
        );
        self.scratch = scratch;
        (w1, w2)
    }

    /// The batch sort sequence: the minimal key first (so screening runs are
    /// contiguous), then the remaining columns in root-down first-appearance
    /// order of the node bounds (so the structural walk visits each shared
    /// instance in one consecutive group). Columns bound by no node and
    /// outside the key never influence grouping and are left unsorted.
    fn batch_sort_cols(&self) -> Vec<relic_spec::ColId> {
        let mut cols: Vec<relic_spec::ColId> = self.min_key.iter().collect();
        let mut seen = self.min_key;
        for node in self.d.topo_root_first() {
            let bound = self.d.node(node).bound;
            cols.extend((bound - seen).iter());
            seen = seen | bound;
        }
        cols
    }

    /// The batched `dinsert` walk: like [`dinsert`](SynthRelation::dinsert),
    /// but each node memoizes the previous tuple's bound valuation and
    /// instance. When the valuation repeats, the instance — and all its
    /// incoming links, which the builder's binding-consistency rule
    /// (`B_child = ⋃ B_parent ∪ K`, hence `B_parent ⊆ B_child`) guarantees
    /// were already made for the previous tuple — is reused without a single
    /// container probe. Over a sorted batch the walk therefore touches each
    /// decomposition path once per key-group, not once per tuple.
    ///
    /// When `sort_prefix` is given (the batch is ordered by that column
    /// sequence), every map edge whose parent and child groups are
    /// consecutive under it gets **container-level batching**: while a
    /// parent instance's group is being walked, the edge's entries
    /// accumulate outside the container, and when the group ends the
    /// container is assembled in one shot through the containers' bulk
    /// constructors — the O(n) balanced AVL build from sorted input, the
    /// pre-sized hash build, … — instead of one probing insertion (and one
    /// find probe) per tuple.
    ///
    /// The walk reads tuple valuations from `flat` — `w`-wide value rows in
    /// ascending column order, indexed by tuple index — so visiting the
    /// batch in sorted order stays within one contiguous allocation.
    fn dinsert_batch(
        &mut self,
        flat: &[relic_spec::Value],
        w: usize,
        order: &[usize],
        sort_prefix: Option<&[relic_spec::ColId]>,
    ) {
        let all = self.spec.cols();
        let root_node = self.d.root();
        let ne = self.d.edge_count();
        let nn = self.d.node_count();
        // Row positions of every node's bound columns and every edge's key
        // columns (ascending column order, matching `write_key_into`).
        let bound_pos: Vec<Box<[usize]>> = (0..nn)
            .map(|i| {
                self.d
                    .node(NodeId(i as u16))
                    .bound
                    .iter()
                    .map(|c| all.rank(c).expect("bound column in relation"))
                    .collect()
            })
            .collect();
        let key_pos: Vec<Box<[usize]>> = self
            .d
            .edges()
            .map(|(_, e)| {
                e.key
                    .iter()
                    .map(|c| all.rank(c).expect("key column in relation"))
                    .collect()
            })
            .collect();
        fn write_row_cols(
            row: &[relic_spec::Value],
            ps: &[usize],
            out: &mut Vec<relic_spec::Value>,
        ) {
            out.clear();
            out.extend(ps.iter().map(|&p| row[p].clone()));
        }
        // Per-edge accumulation state. An edge is eligible when its key
        // determines the child given the parent (`B_child = B_parent ∪ K`,
        // so each container key maps to exactly one child instance) and the
        // child's bound is a sort prefix (so each parent's entries — and
        // each entry's duplicates — are consecutive in walk order).
        // Accumulation then runs per parent instance: it starts when the
        // parent is created (its container is empty by construction),
        // collects one entry per child group, and flushes into a
        // bulk-constructed container when the parent's group ends.
        let mut accs: Vec<EdgeAcc> = Vec::with_capacity(ne);
        for (eid, edge) in self.d.edges() {
            let eligible = sort_prefix.is_some_and(|prefix| {
                !edge.ds.is_intrusive()
                    && self.d.node(edge.to).bound == (self.d.node(edge.from).bound | edge.key)
                    && key_is_sort_prefix(self.d.node(edge.to).bound, prefix)
            });
            accs.push(EdgeAcc {
                leaf: self.layout.leaf_of_edge[eid.index()],
                ds: edge.ds,
                eligible,
                parent: None,
                entries: Vec::new(),
                ascending: true,
            });
        }
        // Root edges: an empty container accumulates from the start; a
        // standing one is pre-sized to the incoming group count instead.
        for eid in self.d.node(root_node).body.edges() {
            let a = &mut accs[eid.index()];
            if !a.eligible {
                continue;
            }
            if self.store.cont_len(self.root, a.leaf) == 0 {
                a.parent = Some(self.root);
            } else {
                let ps = &key_pos[eid.index()];
                let mut groups = 1usize;
                for pair in order.windows(2) {
                    let (ra, rb) = (&flat[pair[0] * w..], &flat[pair[1] * w..]);
                    if ps.iter().any(|&p| ra[p] != rb[p]) {
                        groups += 1;
                    }
                }
                let leaf = a.leaf;
                let to = self.d.edge(eid).to;
                let store = Arc::make_mut(&mut self.store);
                store.cont_reserve(self.root, leaf, groups);
                store.reserve_node(to, groups);
            }
        }
        // Nodes bound by (a superset of) the minimal key get one instance
        // per accepted tuple — pre-size their arenas once.
        for (id, node) in self.d.nodes() {
            if self.min_key.is_subset(node.bound) && !self.min_key.is_empty() {
                Arc::make_mut(&mut self.store).reserve_node(id, order.len());
            }
        }
        let topo: Vec<NodeId> = self.d.topo_root_first().collect();
        let mut memo_val: Vec<Vec<relic_spec::Value>> = vec![Vec::new(); nn];
        let mut memo_inst: Vec<Option<InstanceRef>> = vec![None; nn];
        let mut resolved: Vec<Option<InstanceRef>> = vec![None; nn];
        let mut created_now = vec![false; nn];
        let mut kb = std::mem::take(&mut self.key_scratch);
        let mut bv: Vec<relic_spec::Value> = Vec::new();
        for &ti in order {
            let row = &flat[ti * w..ti * w + w];
            resolved.iter_mut().for_each(|r| *r = None);
            created_now.iter_mut().for_each(|c| *c = false);
            for &node in &topo {
                let idx = node.index();
                write_row_cols(row, &bound_pos[idx], &mut bv);
                if memo_inst[idx].is_some() && memo_val[idx] == bv {
                    resolved[idx] = memo_inst[idx];
                    continue;
                }
                let (inst, created) = if node == root_node {
                    (self.root, false)
                } else {
                    let mut found = None;
                    for &e in self.d.incoming_edges(node) {
                        let edge = self.d.edge(e);
                        let parent = resolved[edge.from.index()]
                            .expect("parents resolved before children (topological order)");
                        // An accumulating container is empty behind its
                        // buffered entries, and grouping guarantees this
                        // child's key is fresh — the probe would miss.
                        if accs[e.index()].parent == Some(parent) {
                            continue;
                        }
                        write_row_cols(row, &key_pos[e.index()], &mut kb);
                        if let Some(r) =
                            self.store
                                .cont_get(parent, self.layout.leaf_of_edge[e.index()], &kb)
                        {
                            found = Some(r);
                            break;
                        }
                    }
                    match found {
                        Some(r) => (r, false),
                        None => {
                            // `bv` already holds the bound valuation; unit
                            // leaves project straight out of the row.
                            let prims: Vec<PrimInst> = self.layout.leaves_of_node[idx]
                                .iter()
                                .map(|leaf| match leaf {
                                    crate::instance::LeafSpec::Unit(c) => {
                                        let vals: Vec<relic_spec::Value> = c
                                            .iter()
                                            .map(|cc| {
                                                row[all.rank(cc).expect("unit column")].clone()
                                            })
                                            .collect();
                                        PrimInst::Unit(Tuple::from_parts(*c, vals))
                                    }
                                    crate::instance::LeafSpec::Map(e) => {
                                        PrimInst::Map(self.layout.new_container(&self.d, *e))
                                    }
                                })
                                .collect();
                            let inst = crate::instance::Instance {
                                key: bv.as_slice().into(),
                                prims: prims.into_boxed_slice(),
                                links: vec![
                                    crate::instance::Link::default();
                                    self.layout.islots_of_node[idx] as usize
                                ]
                                .into_boxed_slice(),
                                refs: 0,
                            };
                            (Arc::make_mut(&mut self.store).alloc(node, inst), true)
                        }
                    }
                };
                for &e in self.d.incoming_edges(node) {
                    let edge = self.d.edge(e);
                    let parent = resolved[edge.from.index()].expect("topological order");
                    let leaf = self.layout.leaf_of_edge[e.index()];
                    let a = &mut accs[e.index()];
                    write_row_cols(row, &key_pos[e.index()], &mut kb);
                    if a.eligible {
                        if a.parent != Some(parent) && created_now[edge.from.index()] {
                            // The previous parent's group is over — build
                            // its container — and this freshly created
                            // parent (whose container is empty) takes over.
                            a.flush(Arc::make_mut(&mut self.store));
                            a.parent = Some(parent);
                        }
                        if a.parent == Some(parent) {
                            // One entry per child group: the group's first
                            // tuple creates the child, later members
                            // memo-hit and never reach this loop. The
                            // reference count is bumped here, while the
                            // child is cache-hot, not at flush time.
                            debug_assert!(created, "accumulated entry for a found instance");
                            let key: Key = kb.as_slice().into();
                            if let Some((last, _)) = a.entries.last() {
                                a.ascending &= last < &key;
                            }
                            a.entries.push((key, inst));
                            Arc::make_mut(&mut self.store).get_mut(inst).refs += 1;
                            continue;
                        }
                    }
                    if created || self.store.cont_get(parent, leaf, &kb).is_none() {
                        // A freshly created instance was probed for through
                        // every incoming edge and missed, so the container
                        // cannot hold its key yet — insert without
                        // re-probing.
                        let ekey: Key = kb.as_slice().into();
                        Arc::make_mut(&mut self.store).cont_insert(parent, leaf, ekey, inst);
                    }
                }
                resolved[idx] = Some(inst);
                memo_inst[idx] = Some(inst);
                if created {
                    created_now[idx] = true;
                }
                std::mem::swap(&mut memo_val[idx], &mut bv);
            }
        }
        self.key_scratch = kb;
        for a in &mut accs {
            a.flush(Arc::make_mut(&mut self.store));
        }
    }

    /// `remove_many`: removes every tuple matching each pattern in turn,
    /// amortizing the per-pattern setup — the §4.5 decomposition cut is
    /// computed once per distinct pattern column-set instead of once per
    /// call. Returns the total number of tuples removed. Equivalent to
    /// folding [`remove`](SynthRelation::remove) over the patterns.
    ///
    /// # Errors
    ///
    /// [`OpError::ForeignColumns`] on the first pattern mentioning columns
    /// outside the relation; earlier patterns' removals persist, as a fold
    /// would leave them.
    pub fn remove_many<'a, I: IntoIterator<Item = &'a Tuple>>(
        &mut self,
        patterns: I,
    ) -> Result<usize, OpError> {
        let mut cuts: HashMap<u64, relic_decomp::Cut> = HashMap::new();
        let mut total = 0usize;
        for pattern in patterns {
            let foreign = pattern.dom() - self.spec.cols();
            if !foreign.is_empty() {
                return Err(OpError::ForeignColumns { cols: foreign });
            }
            self.record_remove(pattern.dom());
            let matching = self.collect_full(pattern)?;
            if matching.is_empty() {
                continue;
            }
            let c = cuts
                .entry(pattern.dom().bits())
                .or_insert_with(|| cut(&self.d, self.spec.fds(), pattern.dom()));
            if c.is_below(self.d.root()) {
                debug_assert_eq!(matching.len(), self.len);
                total += self.len;
                self.clear();
                continue;
            }
            for t in &matching {
                self.remove_tuple(t, c);
            }
            self.len -= matching.len();
            total += matching.len();
        }
        Ok(total)
    }

    /// `remove r s` (§2, §4.5): removes every tuple extending `pattern` by
    /// breaking the edges that cross the decomposition cut for
    /// `dom pattern`. Returns the number of tuples removed.
    ///
    /// # Errors
    ///
    /// [`OpError::ForeignColumns`] if the pattern mentions columns outside
    /// the relation.
    pub fn remove(&mut self, pattern: &Tuple) -> Result<usize, OpError> {
        let foreign = pattern.dom() - self.spec.cols();
        if !foreign.is_empty() {
            return Err(OpError::ForeignColumns { cols: foreign });
        }
        self.record_remove(pattern.dom());
        let matching = self.collect_full(pattern)?;
        if matching.is_empty() {
            return Ok(0);
        }
        let c = cut(&self.d, self.spec.fds(), pattern.dom());
        if c.is_below(self.d.root()) {
            // The root itself only represents matching tuples: every tuple
            // matches, so clear the whole store.
            debug_assert_eq!(matching.len(), self.len);
            let n = self.len;
            self.clear();
            return Ok(n);
        }
        for t in &matching {
            self.remove_tuple(t, &c);
        }
        self.len -= matching.len();
        Ok(matching.len())
    }

    /// `remove_where r P` — removal by comparison pattern, the mutation
    /// counterpart of [`query_where`](RelRead::query_where): removes
    /// every tuple satisfying `P`. This is the idiom thttpd's cache uses
    /// ("traverses through the mappings removing those older than a certain
    /// threshold", §6.2), expressed as one relational operation.
    ///
    /// The decomposition cut (§4.5) depends only on the pattern's *columns*,
    /// so the same cut machinery applies: matching tuples are located with
    /// the comparison-aware planner, then their crossing edges are broken
    /// exactly as for [`remove`](SynthRelation::remove). Returns the number
    /// of tuples removed.
    ///
    /// # Errors
    ///
    /// [`OpError::ForeignColumns`] if the pattern mentions columns outside
    /// the relation.
    pub fn remove_where(&mut self, pattern: &Pattern) -> Result<usize, OpError> {
        let foreign = pattern.dom() - self.spec.cols();
        if !foreign.is_empty() {
            return Err(OpError::ForeignColumns { cols: foreign });
        }
        self.record_remove(pattern.dom());
        let matching = self.collect_where_full(pattern)?;
        if matching.is_empty() {
            return Ok(0);
        }
        let c = cut(&self.d, self.spec.fds(), pattern.dom());
        if c.is_below(self.d.root()) {
            // ∅ determines the pattern columns: all tuples agree on them,
            // so one match means every tuple matches.
            debug_assert_eq!(matching.len(), self.len);
            let n = self.len;
            self.clear();
            return Ok(n);
        }
        for t in &matching {
            self.remove_tuple(t, &c);
        }
        self.len -= matching.len();
        Ok(matching.len())
    }

    /// Removes every tuple (constant-time reset of the store).
    ///
    /// Also drops memoized plans: plans chosen under an
    /// [`observed_cost_model`](SynthRelation::observed_cost_model) reflect
    /// the old instance's fan-outs, so a reset conservatively forces
    /// re-planning.
    pub fn clear(&mut self) {
        // A fresh store (not an in-place reset), so outstanding snapshots
        // keep the pre-clear instance graph.
        let mut store = Store::new(&self.d);
        let root_node = self.d.root();
        let root_inst = self
            .layout
            .new_instance(&self.d, root_node, Box::new([]), &Tuple::empty());
        self.root = store.alloc(root_node, root_inst);
        self.store = Arc::new(store);
        self.len = 0;
        self.invalidate_plans();
    }

    /// Migrates the relation to a different decomposition **in place**: the
    /// tuple set, specification, catalog, FD-checking mode, and workload
    /// profile are preserved; the representation — decomposition, instance
    /// store, plan cache, cost model — is rebuilt for `d`.
    ///
    /// The value rows are drained through the abstraction function α and
    /// rebuilt with the O(n) [`bulk_load`](SynthRelation::bulk_load) path,
    /// so a migration costs one linear drain plus one bulk build. The new
    /// representation starts with a cost model profiled from its own
    /// observed fan-outs (join-cost mode and range selectivity carry over),
    /// so the first plans already reflect the real instance shape. The swap
    /// is all-or-nothing: the new store is built completely before any field
    /// of `self` changes, and on error the relation is untouched.
    ///
    /// Migrating to the current decomposition is a no-op.
    ///
    /// # Errors
    ///
    /// * [`MigrateError::Build`] — `d` is not adequate for the
    ///   specification.
    /// * [`MigrateError::Rebuild`] — the drained tuple set was rejected by
    ///   the bulk load. This is only reachable when FD checking was disabled
    ///   and the stored tuples already violate the specification's minimal
    ///   key (the paper's "silently corrupts" regime): the rebuild's
    ///   screening detects what the original mutations did not.
    pub fn migrate_to(&mut self, d: Decomposition) -> Result<(), MigrateError> {
        if d == *self.d {
            return Ok(());
        }
        let mut next = SynthRelation::new(&self.cat, self.spec.clone(), d)?;
        next.check_fds = self.check_fds;
        next.profiling = false; // the drain is not observed traffic
                                // Drain through the unrecorded streaming scan (not `to_relation`,
                                // whose per-instance unions are quadratic in fan-out; and not the
                                // public query path, which would record the migration into the very
                                // profile that triggered it).
        let tuples = self
            .collect_full(&Tuple::empty())
            .map_err(MigrateError::Rebuild)?;
        next.bulk_load(tuples).map_err(MigrateError::Rebuild)?;
        debug_assert_eq!(next.len, self.len);
        let mut model = next.observed_cost_model();
        model.set_join_mode(self.cost.join_mode());
        model.set_range_selectivity(self.cost.range_selectivity());
        next.cost = model;
        // Commit: swap the representation, keep identity (spec, catalog,
        // profile counters, FD mode).
        self.d = next.d;
        self.layout = next.layout;
        self.store = next.store;
        self.root = next.root;
        self.cost = next.cost;
        self.len = next.len;
        self.min_key = next.min_key;
        self.invalidate_plans();
        Ok(())
    }

    fn remove_tuple(&mut self, t: &Tuple, c: &relic_decomp::Cut) {
        let nn = self.d.node_count();
        let mut kb = std::mem::take(&mut self.key_scratch);
        // Resolve the above-cut instances along t's path.
        let mut resolved: Vec<Option<InstanceRef>> = vec![None; nn];
        let order: Vec<NodeId> = self.d.topo_root_first().collect();
        for node in &order {
            if c.is_below(*node) {
                continue;
            }
            let inst = if *node == self.d.root() {
                Some(self.root)
            } else {
                let mut found = None;
                for &e in self.d.incoming_edges(*node) {
                    let edge = self.d.edge(e);
                    if let Some(parent) = resolved[edge.from.index()] {
                        t.write_key_into(edge.key, &mut kb);
                        if let Some(r) =
                            self.store
                                .cont_get(parent, self.layout.leaf_of_edge[e.index()], &kb)
                        {
                            found = Some(r);
                            break;
                        }
                    }
                }
                found
            };
            resolved[node.index()] = inst;
        }
        // Break every crossing edge for this tuple.
        for &e in &c.crossing {
            let edge = self.d.edge(e);
            let Some(parent) = resolved[edge.from.index()] else {
                continue;
            };
            let leaf = self.layout.leaf_of_edge[e.index()];
            t.write_key_into(edge.key, &mut kb);
            if let Some(child) = Arc::make_mut(&mut self.store).cont_remove(parent, leaf, &kb) {
                self.decref(child);
            }
        }
        // Deallocate empty maps above the cut (children before parents, i.e.
        // ascending let order), cascading upwards.
        for i in 0..nn {
            let node = NodeId(i as u16);
            if c.is_below(node) || node == self.d.root() {
                continue;
            }
            let Some(inst) = resolved[i] else { continue };
            if !self.store.is_live(inst) || !self.instance_is_empty(node, inst) {
                continue;
            }
            for &e in self.d.incoming_edges(node) {
                let edge = self.d.edge(e);
                let Some(parent) = resolved[edge.from.index()] else {
                    continue;
                };
                if !self.store.is_live(parent) {
                    continue;
                }
                let leaf = self.layout.leaf_of_edge[e.index()];
                t.write_key_into(edge.key, &mut kb);
                if let Some(child) = Arc::make_mut(&mut self.store).cont_remove(parent, leaf, &kb) {
                    debug_assert_eq!(child, inst);
                    Arc::make_mut(&mut self.store).get_mut(child).refs -= 1;
                }
            }
            if self.store.get(inst).refs == 0 {
                let _ = Arc::make_mut(&mut self.store).free(inst);
            }
        }
        self.key_scratch = kb;
    }

    /// True when the instance holds no data: no unit leaves and all maps
    /// empty.
    fn instance_is_empty(&self, node: NodeId, inst: InstanceRef) -> bool {
        let leaves = &self.layout.leaves_of_node[node.index()];
        leaves.iter().enumerate().all(|(i, leaf)| match leaf {
            crate::instance::LeafSpec::Unit(_) => false,
            crate::instance::LeafSpec::Map(_) => self.store.cont_len(inst, i) == 0,
        })
    }

    /// Decrements an instance's reference count, freeing (recursively) at
    /// zero.
    fn decref(&mut self, r: InstanceRef) {
        let inst = Arc::make_mut(&mut self.store).get_mut(r);
        inst.refs -= 1;
        if inst.refs == 0 {
            self.free_recursive(r);
        }
    }

    fn free_recursive(&mut self, r: InstanceRef) {
        let node = NodeId(r.node);
        let leaves_len = self.layout.leaves_of_node[node.index()].len();
        let mut children: Vec<InstanceRef> = Vec::new();
        let mut intrusive_children: Vec<(usize, InstanceRef)> = Vec::new();
        for i in 0..leaves_len {
            match &self.store.get(r).prims[i] {
                PrimInst::Map(crate::instance::EdgeContainer::Intrusive { slot, .. }) => {
                    let slot = *slot as usize;
                    self.store
                        .cont_for_each(r, i, |_, c| intrusive_children.push((slot, c)));
                }
                PrimInst::Map(_) => {
                    self.store.cont_for_each(r, i, |_, c| children.push(c));
                }
                PrimInst::Unit(_) => {}
            }
        }
        let _ = Arc::make_mut(&mut self.store).free(r);
        // Intrusive children carry stale links to the freed parent's list;
        // reset them before releasing the reference.
        for (slot, c) in intrusive_children {
            Arc::make_mut(&mut self.store).get_mut(c).links[slot] =
                crate::instance::Link::default();
            self.decref(c);
        }
        for c in children {
            self.decref(c);
        }
    }

    /// `update r s u` (§2, §4.5): merges `changes` into the unique tuple
    /// matching key pattern `pattern`. Returns `Ok(false)` when no tuple
    /// matches.
    ///
    /// As in the paper, only the common case is supported: the pattern must
    /// be a key for the relation and must not overlap the changed columns —
    /// so updates never merge tuples. When the changed columns appear only
    /// in unit leaves, the update is performed in place; otherwise it
    /// executes as remove + insert, reusing the relation's machinery.
    ///
    /// # Errors
    ///
    /// * [`OpError::PatternNotKey`] — `∆ ⊬ dom s → C`.
    /// * [`OpError::UpdateOverlapsPattern`] — `dom s ∩ dom u ≠ ∅`.
    /// * [`OpError::ForeignColumns`] — columns outside the relation.
    /// * [`OpError::FdViolation`] — the updated relation would violate `∆`
    ///   (checked when FD checking is enabled).
    pub fn update(&mut self, pattern: &Tuple, changes: &Tuple) -> Result<bool, OpError> {
        let foreign = (pattern.dom() | changes.dom()) - self.spec.cols();
        if !foreign.is_empty() {
            return Err(OpError::ForeignColumns { cols: foreign });
        }
        if !self.spec.fds().implies(pattern.dom(), self.spec.cols()) {
            return Err(OpError::PatternNotKey {
                pattern: pattern.dom(),
            });
        }
        let overlap = pattern.dom() & changes.dom();
        if !overlap.is_empty() {
            return Err(OpError::UpdateOverlapsPattern { overlap });
        }
        // An update *is* a key query followed by a (possibly structural)
        // rewrite; record the query signature it exercises. The structural
        // path's inner remove + insert record their own counters below.
        self.record_query(pattern.dom(), ColSet::EMPTY, self.spec.cols());
        let matching = self.collect_full(pattern)?;
        let Some(t_old) = matching.first() else {
            return Ok(false);
        };
        debug_assert_eq!(matching.len(), 1, "key pattern matches at most one tuple");
        let t_old = t_old.clone();
        let t_new = t_old.merge(changes);
        if t_new == t_old {
            return Ok(true);
        }
        if self.check_fds {
            self.check_fds_against(&t_new, Some(&t_old))?;
        }
        let changed: ColSet = t_new
            .dom()
            .iter()
            .filter(|c| t_new.get(*c) != t_old.get(*c))
            .collect();
        let structural = self.structural_cols();
        if changed.is_disjoint(structural) {
            // In-place fast path: only unit payloads change.
            self.update_units_in_place(&t_old, &t_new, changed);
        } else {
            let removed = self.remove(&t_old)?;
            debug_assert_eq!(removed, 1);
            let inserted = self.insert(t_new)?;
            debug_assert!(inserted);
        }
        Ok(true)
    }

    /// Columns appearing in any edge key or node binding — changes to these
    /// require structural (remove + insert) updates.
    fn structural_cols(&self) -> ColSet {
        let mut s = ColSet::EMPTY;
        for (_, e) in self.d.edges() {
            s = s | e.key;
        }
        for (_, n) in self.d.nodes() {
            s = s | n.bound;
        }
        s
    }

    fn update_units_in_place(&mut self, t_old: &Tuple, t_new: &Tuple, changed: ColSet) {
        let mut kb = std::mem::take(&mut self.key_scratch);
        for (id, _) in self.d.nodes() {
            // `(leaf index, columns)` pairs are `Copy`; indexing avoids
            // cloning the layout's per-node vector on every update.
            let units = &self.layout.unit_leaves[id.index()];
            if units.iter().all(|(_, c)| c.is_disjoint(changed)) {
                continue;
            }
            let Some(inst) = self.locate(id, t_old, &mut kb) else {
                continue;
            };
            for ui in 0..self.layout.unit_leaves[id.index()].len() {
                let (leaf, cols) = self.layout.unit_leaves[id.index()][ui];
                if cols.is_disjoint(changed) {
                    continue;
                }
                match &mut Arc::make_mut(&mut self.store).get_mut(inst).prims[leaf] {
                    PrimInst::Unit(u) => *u = t_new.project(cols),
                    PrimInst::Map(_) => unreachable!("unit leaf expected"),
                }
            }
        }
        self.key_scratch = kb;
    }

    /// Locates the instance of `node` on `t`'s path via the canonical root
    /// path, probing through the caller's reusable key buffer.
    fn locate(
        &self,
        node: NodeId,
        t: &Tuple,
        kb: &mut Vec<relic_spec::Value>,
    ) -> Option<InstanceRef> {
        let mut inst = self.root;
        for &e in &self.layout.path_of_node[node.index()] {
            let edge = self.d.edge(e);
            t.write_key_into(edge.key, kb);
            inst = self
                .store
                .cont_get(inst, self.layout.leaf_of_edge[e.index()], kb)?;
        }
        Some(inst)
    }

    /// The abstraction function α: the reference [`Relation`] this instance
    /// represents (§3.2). This is the **test oracle**, not a scan: it
    /// follows the paper's definition structurally — materialising the
    /// relation of every sub-instance and joining the sides of every join
    /// body — so tests can hold the query paths to something independent
    /// of them. Production readers stream through
    /// [`query_for_each_bindings`](SynthRelation::query_for_each_bindings)
    /// or a snapshot's [`scan_all`](crate::Snapshot::scan_all) instead.
    pub fn to_relation(&self) -> Relation {
        alpha::alpha(&self.store, &self.d, self.root)
    }

    /// Deep well-formedness validation (Fig. 5) plus implementation
    /// invariants (reference counts, reachability, length bookkeeping,
    /// functional dependencies). Expensive; for tests and debugging.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        alpha::validate(&self.store, &self.d, &self.layout, self.root)?;
        let rel = self.to_relation();
        if rel.len() != self.len {
            return Err(format!(
                "length bookkeeping: α has {} tuples, len() says {}",
                rel.len(),
                self.len
            ));
        }
        if !self.spec.fds().holds_on(&rel) {
            return Err("represented relation violates the specification's FDs".to_string());
        }
        Ok(())
    }
}

/// Forwards to the inherent getters and streaming primitives above; the
/// derived forms are the trait's.
impl RelRead for SynthRelation {
    fn spec(&self) -> &RelSpec {
        &self.spec
    }

    fn len(&self) -> usize {
        self.len
    }

    fn query_for_each_bindings(
        &self,
        scratch: &mut Bindings,
        pattern: &Tuple,
        out: ColSet,
        f: impl FnMut(&Bindings),
    ) -> Result<(), OpError> {
        SynthRelation::query_for_each_bindings(self, scratch, pattern, out, f)
    }

    fn query_where_for_each_bindings(
        &self,
        scratch: &mut Bindings,
        pattern: &Pattern,
        out: ColSet,
        f: impl FnMut(&Bindings),
    ) -> Result<(), OpError> {
        SynthRelation::query_where_for_each_bindings(self, scratch, pattern, out, f)
    }
}

/// Streams every stored tuple extending `t`'s projection onto
/// `pattern_cols` through `f`, as full-tuple bindings, using `plan` (which
/// must have been planned for exactly that signature).
///
/// A free function (rather than a method) so mutation paths can run it with
/// a scratch accumulator taken out of the relation while still borrowing the
/// store — the borrow-splitting that makes `insert`'s probes reuse one
/// buffer.
/// Per-edge container accumulation state for the batched walk (see
/// [`SynthRelation::dinsert_batch`]): while `parent`'s group is walked, the
/// edge's `(key, child)` entries collect here instead of being inserted one
/// at a time; `flush` assembles them into the parent's container wholesale.
struct EdgeAcc {
    leaf: usize,
    ds: relic_decomp::DsKind,
    eligible: bool,
    parent: Option<InstanceRef>,
    entries: Vec<(Key, InstanceRef)>,
    ascending: bool,
}

impl EdgeAcc {
    /// Builds the accumulated entries into the current parent's container
    /// through the container's bulk constructor — `from_sorted` when the
    /// keys arrived in ascending order (the common case under the batch
    /// sort), the sorting bulk build otherwise. Child reference counts were
    /// already bumped when each entry was accumulated.
    fn flush(&mut self, store: &mut Store) {
        use crate::instance::EdgeContainer;
        use relic_containers::{AssocVec, AvlMap, DListMap, HashTable, SortedVecMap};
        use relic_decomp::DsKind;
        let Some(parent) = self.parent.take() else {
            return;
        };
        if self.entries.is_empty() {
            return;
        }
        // The next group is probably as large as this one: its buffer is
        // sized once. `htable`, `sortedvec` and `vec` adopt the buffer, so
        // growing it by doubling would leave every group's discarded copies
        // as holes between the instances (and a mostly-free heap that the
        // allocator trims and faults in again on the next load).
        let next = Vec::with_capacity(self.entries.len());
        let mut entries = std::mem::replace(&mut self.entries, next);
        if entries.capacity() > 2 * entries.len() {
            entries.shrink_to_fit(); // a much smaller group than the last
        }
        let cont = match self.ds {
            DsKind::HashTable => EdgeContainer::Hash(HashTable::from_batch(entries)),
            DsKind::AvlTree => EdgeContainer::Avl(if self.ascending {
                AvlMap::from_sorted(entries)
            } else {
                AvlMap::bulk_build(entries)
            }),
            DsKind::SortedVec => EdgeContainer::Sorted(if self.ascending {
                SortedVecMap::from_sorted(entries)
            } else {
                let mut m = SortedVecMap::new();
                m.bulk_insert(entries);
                m
            }),
            DsKind::AssocVec => EdgeContainer::Assoc(AssocVec::from_batch(entries)),
            DsKind::DList => EdgeContainer::DList(DListMap::from_batch(entries)),
            DsKind::IntrusiveList => unreachable!("intrusive edges are never bulk-assembled"),
        };
        match &mut store.get_mut(parent).prims[self.leaf] {
            PrimInst::Map(c) => *c = cont,
            PrimInst::Unit(_) => unreachable!("map leaf expected"),
        }
        self.ascending = true;
    }
}

/// Is `key` exactly the set of the first `m` columns of the sort sequence,
/// for some `m`? Then sorting by the sequence makes equal-`key` runs
/// contiguous.
fn key_is_sort_prefix(key: ColSet, seq: &[relic_spec::ColId]) -> bool {
    let mut acc = ColSet::EMPTY;
    for &c in seq {
        if acc == key {
            return true;
        }
        if !key.contains(c) {
            return false;
        }
        acc = acc | c;
    }
    acc == key
}

#[allow(clippy::too_many_arguments)]
fn for_each_matching(
    store: &Store,
    d: &Decomposition,
    root: InstanceRef,
    plan: &Plan,
    scratch: &mut Bindings,
    t: &Tuple,
    pattern_cols: ColSet,
    f: &mut dyn FnMut(&Bindings),
) {
    // Loads `t`'s projection onto `pattern_cols` without materializing it.
    debug_assert!(pattern_cols.is_subset(t.dom()), "pattern column absent");
    scratch.load(t.iter().filter(|(c, _)| pattern_cols.contains(*c)));
    let env = ExecEnv {
        store,
        d,
        cmp: &Pattern::new(),
    };
    let body = &d.node(d.root()).body;
    exec_plan(&env, plan, body, 0, root, scratch, &mut |b| f(b));
}

#[cfg(test)]
mod tests {
    use super::*;
    use relic_decomp::parse;
    use relic_spec::Value;

    fn scheduler() -> (Catalog, SynthRelation) {
        let mut cat = Catalog::new();
        let d = parse(
            &mut cat,
            "let w : {ns,pid,state} . {cpu} = unit {cpu} in
             let y : {ns} . {pid,cpu} = {pid} -[htable]-> w in
             let z : {state} . {ns,pid,cpu} = {ns,pid} -[ilist]-> w in
             let x : {} . {ns,pid,state,cpu} =
               ({ns} -[htable]-> y) join ({state} -[vec]-> z) in x",
        )
        .unwrap();
        let spec = RelSpec::new(cat.all()).with_fd(
            cat.col("ns").unwrap() | cat.col("pid").unwrap(),
            cat.col("state").unwrap() | cat.col("cpu").unwrap(),
        );
        let r = SynthRelation::new(&cat, spec, d).unwrap();
        (cat, r)
    }

    fn proc(cat: &Catalog, ns: i64, pid: i64, state: &str, cpu: i64) -> Tuple {
        Tuple::from_pairs([
            (cat.col("ns").unwrap(), Value::from(ns)),
            (cat.col("pid").unwrap(), Value::from(pid)),
            (cat.col("state").unwrap(), Value::from(state)),
            (cat.col("cpu").unwrap(), Value::from(cpu)),
        ])
    }

    fn rs(cat: &Catalog, r: &mut SynthRelation) {
        // The paper's example relation r_s (Equation 1).
        r.insert(proc(cat, 1, 1, "S", 7)).unwrap();
        r.insert(proc(cat, 1, 2, "R", 4)).unwrap();
        r.insert(proc(cat, 2, 1, "S", 5)).unwrap();
    }

    #[test]
    fn empty_relation_is_well_formed() {
        let (_, r) = scheduler();
        assert!(r.is_empty());
        r.validate().unwrap();
        assert_eq!(r.to_relation().len(), 0);
    }

    #[test]
    fn paper_example_inserts_and_queries() {
        let (cat, mut r) = scheduler();
        rs(&cat, &mut r);
        assert_eq!(r.len(), 3);
        r.validate().unwrap();
        let state = cat.col("state").unwrap();
        let ns = cat.col("ns").unwrap();
        let pid = cat.col("pid").unwrap();
        let cpu = cat.col("cpu").unwrap();
        // Sleeping processes: (1,1) and (2,1).
        let sleeping = r
            .query(&Tuple::from_pairs([(state, Value::from("S"))]), ns | pid)
            .unwrap();
        assert_eq!(sleeping.len(), 2);
        // Point query.
        let got = r
            .query(
                &Tuple::from_pairs([(ns, Value::from(1)), (pid, Value::from(2))]),
                state | cpu,
            )
            .unwrap();
        assert_eq!(
            got,
            vec![Tuple::from_pairs([
                (state, Value::from("R")),
                (cpu, Value::from(4))
            ])]
        );
    }

    #[test]
    fn duplicate_insert_is_noop() {
        let (cat, mut r) = scheduler();
        rs(&cat, &mut r);
        assert!(!r.insert(proc(&cat, 1, 1, "S", 7)).unwrap());
        assert_eq!(r.len(), 3);
        r.validate().unwrap();
    }

    #[test]
    fn fd_violation_detected() {
        let (cat, mut r) = scheduler();
        rs(&cat, &mut r);
        let err = r.insert(proc(&cat, 1, 1, "R", 9)).unwrap_err();
        assert!(matches!(err, OpError::FdViolation { .. }));
        assert_eq!(r.len(), 3);
        r.validate().unwrap();
    }

    #[test]
    fn update_in_place_cpu() {
        let (cat, mut r) = scheduler();
        rs(&cat, &mut r);
        let ns = cat.col("ns").unwrap();
        let pid = cat.col("pid").unwrap();
        let cpu = cat.col("cpu").unwrap();
        let ok = r
            .update(
                &Tuple::from_pairs([(ns, Value::from(1)), (pid, Value::from(1))]),
                &Tuple::from_pairs([(cpu, Value::from(99))]),
            )
            .unwrap();
        assert!(ok);
        r.validate().unwrap();
        let got = r
            .query(
                &Tuple::from_pairs([(ns, Value::from(1)), (pid, Value::from(1))]),
                cpu.into(),
            )
            .unwrap();
        assert_eq!(got, vec![Tuple::from_pairs([(cpu, Value::from(99))])]);
    }

    #[test]
    fn update_structural_state_change() {
        // Marking process (1,2) sleeping moves it between the z-lists.
        let (cat, mut r) = scheduler();
        rs(&cat, &mut r);
        let ns = cat.col("ns").unwrap();
        let pid = cat.col("pid").unwrap();
        let state = cat.col("state").unwrap();
        r.update(
            &Tuple::from_pairs([(ns, Value::from(1)), (pid, Value::from(2))]),
            &Tuple::from_pairs([(state, Value::from("S"))]),
        )
        .unwrap();
        r.validate().unwrap();
        let sleeping = r
            .query(&Tuple::from_pairs([(state, Value::from("S"))]), ns | pid)
            .unwrap();
        assert_eq!(sleeping.len(), 3);
        let running = r
            .query(&Tuple::from_pairs([(state, Value::from("R"))]), ns | pid)
            .unwrap();
        assert!(running.is_empty());
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn remove_by_key() {
        let (cat, mut r) = scheduler();
        rs(&cat, &mut r);
        let ns = cat.col("ns").unwrap();
        let pid = cat.col("pid").unwrap();
        let n = r
            .remove(&Tuple::from_pairs([
                (ns, Value::from(2)),
                (pid, Value::from(1)),
            ]))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(r.len(), 2);
        r.validate().unwrap();
    }

    #[test]
    fn remove_by_partial_pattern() {
        let (cat, mut r) = scheduler();
        rs(&cat, &mut r);
        let ns = cat.col("ns").unwrap();
        let n = r
            .remove(&Tuple::from_pairs([(ns, Value::from(1))]))
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(r.len(), 1);
        r.validate().unwrap();
    }

    #[test]
    fn remove_by_state_pattern_uses_state_cut() {
        let (cat, mut r) = scheduler();
        rs(&cat, &mut r);
        let state = cat.col("state").unwrap();
        let n = r
            .remove(&Tuple::from_pairs([(state, Value::from("S"))]))
            .unwrap();
        assert_eq!(n, 2);
        r.validate().unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn remove_everything_with_empty_pattern() {
        let (cat, mut r) = scheduler();
        rs(&cat, &mut r);
        let n = r.remove(&Tuple::empty()).unwrap();
        assert_eq!(n, 3);
        assert!(r.is_empty());
        r.validate().unwrap();
        // The relation remains usable.
        r.insert(proc(&cat, 5, 5, "R", 1)).unwrap();
        assert_eq!(r.len(), 1);
        r.validate().unwrap();
    }

    #[test]
    fn reinsertion_after_removal() {
        let (cat, mut r) = scheduler();
        rs(&cat, &mut r);
        let ns = cat.col("ns").unwrap();
        let pid = cat.col("pid").unwrap();
        r.remove(&Tuple::from_pairs([
            (ns, Value::from(1)),
            (pid, Value::from(2)),
        ]))
        .unwrap();
        r.insert(proc(&cat, 1, 2, "S", 11)).unwrap();
        r.validate().unwrap();
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn matches_reference_relation() {
        let (cat, mut r) = scheduler();
        rs(&cat, &mut r);
        let mut reference = Relation::empty(cat.all());
        reference.insert(proc(&cat, 1, 1, "S", 7));
        reference.insert(proc(&cat, 1, 2, "R", 4));
        reference.insert(proc(&cat, 2, 1, "S", 5));
        assert_eq!(r.to_relation(), reference);
    }

    #[test]
    fn update_rejects_non_key_and_overlap() {
        let (cat, mut r) = scheduler();
        rs(&cat, &mut r);
        let ns = cat.col("ns").unwrap();
        let pid = cat.col("pid").unwrap();
        let cpu = cat.col("cpu").unwrap();
        let err = r
            .update(
                &Tuple::from_pairs([(ns, Value::from(1))]),
                &Tuple::from_pairs([(cpu, Value::from(0))]),
            )
            .unwrap_err();
        assert!(matches!(err, OpError::PatternNotKey { .. }));
        let err = r
            .update(
                &Tuple::from_pairs([(ns, Value::from(1)), (pid, Value::from(1))]),
                &Tuple::from_pairs([(pid, Value::from(9))]),
            )
            .unwrap_err();
        assert!(matches!(err, OpError::UpdateOverlapsPattern { .. }));
    }

    #[test]
    fn update_missing_tuple_returns_false() {
        let (cat, mut r) = scheduler();
        rs(&cat, &mut r);
        let ns = cat.col("ns").unwrap();
        let pid = cat.col("pid").unwrap();
        let cpu = cat.col("cpu").unwrap();
        let ok = r
            .update(
                &Tuple::from_pairs([(ns, Value::from(9)), (pid, Value::from(9))]),
                &Tuple::from_pairs([(cpu, Value::from(1))]),
            )
            .unwrap();
        assert!(!ok);
    }

    #[test]
    fn foreign_columns_rejected() {
        let (mut cat, mut r) = scheduler();
        rs(&cat, &mut r);
        let alien = cat.intern("alien");
        let t = Tuple::from_pairs([(alien, Value::from(1))]);
        assert!(matches!(
            r.query(&t, alien.into()),
            Err(OpError::ForeignColumns { .. })
        ));
        assert!(matches!(r.remove(&t), Err(OpError::ForeignColumns { .. })));
    }

    #[test]
    fn shared_node_is_physically_shared() {
        let (cat, mut r) = scheduler();
        rs(&cat, &mut r);
        // 3 tuples: instances = 1 root + 2 y (ns 1,2) + 2 z (S,R) + 3 w.
        assert_eq!(r.instance_count(), 8);
        let _ = cat;
    }

    #[test]
    fn plan_cache_and_inspection() {
        let (cat, mut r) = scheduler();
        rs(&cat, &mut r);
        let ns = cat.col("ns").unwrap();
        let pid = cat.col("pid").unwrap();
        let cpu = cat.col("cpu").unwrap();
        let plan = r.plan_for(ns | pid, cpu.into()).unwrap();
        assert_eq!(plan, "qlr(qlookup(qlookup(qunit)), left)");
        // Re-planning with observed fan-outs keeps answers identical.
        let observed = r.observed_cost_model();
        r.set_cost_model(observed);
        let got = r
            .query(
                &Tuple::from_pairs([(ns, Value::from(1)), (pid, Value::from(1))]),
                cpu.into(),
            )
            .unwrap();
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn bulk_load_matches_insert_fold() {
        let (cat, mut bulk) = scheduler();
        let (_, mut fold) = scheduler();
        let tuples: Vec<Tuple> = (0..60)
            .map(|i| proc(&cat, i % 5, i, if i % 2 == 0 { "S" } else { "R" }, i % 3))
            .collect();
        let n_bulk = bulk.bulk_load(tuples.clone()).unwrap();
        let mut n_fold = 0;
        for t in tuples {
            if fold.insert(t).unwrap() {
                n_fold += 1;
            }
        }
        assert_eq!(n_bulk, n_fold);
        assert_eq!(bulk.len(), fold.len());
        assert_eq!(bulk.to_relation(), fold.to_relation());
        bulk.validate().unwrap();
    }

    #[test]
    fn bulk_load_skips_exact_duplicates_within_and_against() {
        let (cat, mut r) = scheduler();
        rs(&cat, &mut r);
        let n = r
            .bulk_load(vec![
                proc(&cat, 1, 1, "S", 7), // already stored
                proc(&cat, 9, 9, "R", 1),
                proc(&cat, 9, 9, "R", 1), // in-batch duplicate
            ])
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(r.len(), 4);
        r.validate().unwrap();
    }

    #[test]
    fn bulk_load_reports_first_fold_error_and_keeps_prefix() {
        let (cat, mut r) = scheduler();
        rs(&cat, &mut r);
        // Fold order: accept (5,5), then (1,1) conflicts with the stored
        // tuple (same key, different cpu); (6,6) must NOT be inserted.
        let err = r
            .bulk_load(vec![
                proc(&cat, 5, 5, "R", 0),
                proc(&cat, 1, 1, "S", 99),
                proc(&cat, 6, 6, "R", 0),
            ])
            .unwrap_err();
        match err {
            OpError::FdViolation { tuple, .. } => assert_eq!(tuple, proc(&cat, 1, 1, "S", 99)),
            e => panic!("unexpected error {e:?}"),
        }
        assert_eq!(r.len(), 4, "prefix inserted, error and suffix not");
        assert!(r.contains(&proc(&cat, 5, 5, "R", 0)).unwrap());
        assert!(!r.contains(&proc(&cat, 6, 6, "R", 0)).unwrap());
        r.validate().unwrap();
    }

    #[test]
    fn bulk_load_detects_in_batch_fd_conflicts() {
        let (cat, mut r) = scheduler();
        let err = r
            .bulk_load(vec![proc(&cat, 1, 1, "S", 7), proc(&cat, 1, 1, "R", 9)])
            .unwrap_err();
        assert!(matches!(err, OpError::FdViolation { .. }));
        assert_eq!(r.len(), 1);
        r.validate().unwrap();
    }

    #[test]
    fn bulk_load_rejects_malformed_tuples_at_fold_position() {
        let (cat, mut r) = scheduler();
        let ns = cat.col("ns").unwrap();
        let err = r
            .bulk_load(vec![
                proc(&cat, 1, 1, "S", 7),
                Tuple::from_pairs([(ns, Value::from(1))]),
            ])
            .unwrap_err();
        assert!(matches!(err, OpError::ColumnMismatch { .. }));
        assert_eq!(r.len(), 1, "tuple before the malformed one is kept");
    }

    #[test]
    fn insert_many_agrees_with_bulk_load() {
        let (cat, mut a) = scheduler();
        let (_, mut b) = scheduler();
        let tuples: Vec<Tuple> = (0..40)
            .map(|i| proc(&cat, i % 3, i, if i % 4 == 0 { "R" } else { "S" }, i))
            .collect();
        assert_eq!(
            a.insert_many(tuples.clone()).unwrap(),
            b.bulk_load(tuples).unwrap()
        );
        assert_eq!(a.to_relation(), b.to_relation());
        a.validate().unwrap();
        b.validate().unwrap();
    }

    #[test]
    fn remove_many_amortizes_cuts() {
        let (cat, mut r) = scheduler();
        for i in 0..30 {
            r.insert(proc(&cat, i % 5, i, if i % 2 == 0 { "S" } else { "R" }, i))
                .unwrap();
        }
        let ns = cat.col("ns").unwrap();
        let pats: Vec<Tuple> = (0..5)
            .map(|i| Tuple::from_pairs([(ns, Value::from(i))]))
            .collect();
        let n = r.remove_many(pats.iter()).unwrap();
        assert_eq!(n, 30);
        assert!(r.is_empty());
        r.validate().unwrap();
        // Foreign columns error after partial progress, like a fold.
        let mut cat2 = cat.clone();
        let alien = cat2.intern("alien");
        rs(&cat, &mut r);
        let pats = [
            Tuple::from_pairs([(ns, Value::from(1))]),
            Tuple::from_pairs([(alien, Value::from(1))]),
        ];
        let err = r.remove_many(pats.iter()).unwrap_err();
        assert!(matches!(err, OpError::ForeignColumns { .. }));
        assert_eq!(r.len(), 1, "first pattern's removals persist");
        r.validate().unwrap();
    }

    #[test]
    fn bulk_load_empty_batch_is_noop() {
        let (_, mut r) = scheduler();
        assert_eq!(r.bulk_load(Vec::new()).unwrap(), 0);
        assert_eq!(r.insert_many(Vec::new()).unwrap(), 0);
        assert_eq!(r.remove_many(std::iter::empty()).unwrap(), 0);
        assert!(r.is_empty());
    }

    #[test]
    fn profile_records_the_op_mix() {
        let (mut cat, mut r) = scheduler();
        rs(&cat, &mut r); // 3 inserts
        let ns = cat.col("ns").unwrap();
        let pid = cat.col("pid").unwrap();
        let state = cat.col("state").unwrap();
        let cpu = cat.col("cpu").unwrap();
        for _ in 0..5 {
            r.query(&Tuple::from_pairs([(state, Value::from("S"))]), ns | pid)
                .unwrap();
        }
        r.remove(&Tuple::from_pairs([
            (ns, Value::from(2)),
            (pid, Value::from(1)),
        ]))
        .unwrap();
        let p = r.profile();
        assert_eq!(p.inserts, 3);
        assert_eq!(p.queries, vec![(state.set(), ColSet::EMPTY, ns | pid, 5)]);
        assert_eq!(p.removes, vec![(ns | pid, 1)]);
        // Internal probes (FD checks, remove enumeration) are not traffic.
        assert_eq!(p.total_ops(), 9);
        // An update records its key query; the in-place path adds nothing.
        r.update(
            &Tuple::from_pairs([(ns, Value::from(1)), (pid, Value::from(1))]),
            &Tuple::from_pairs([(cpu, Value::from(3))]),
        )
        .unwrap();
        assert_eq!(r.profile().total_ops(), 10);
        r.reset_profile();
        assert!(r.profile().is_empty());
        // Disarmed recorder freezes the counters.
        r.set_profiling(false);
        r.query_full(&Tuple::empty()).unwrap();
        assert!(r.profile().is_empty());
        // Rejected (foreign-column) queries never enter the profile: an
        // unplannable signature would rank every candidate infinite.
        r.set_profiling(true);
        let alien = cat.intern("alien");
        assert!(r
            .query(&Tuple::from_pairs([(alien, Value::from(1))]), alien.into())
            .is_err());
        assert!(r.profile().is_empty(), "rejected query was recorded");
    }

    /// The scheduler spec represented as a flat AVL keyed by the minimal
    /// key — a structurally very different, also-adequate decomposition.
    fn flat_scheduler_decomposition(cat: &mut Catalog) -> Decomposition {
        parse(
            cat,
            "let w : {ns,pid} . {state,cpu} = unit {state,cpu} in
             let x : {} . {ns,pid,state,cpu} = {ns,pid} -[avl]-> w in x",
        )
        .unwrap()
    }

    #[test]
    fn migrate_preserves_tuples_answers_and_profile() {
        let (mut cat, mut r) = scheduler();
        rs(&cat, &mut r);
        let ns = cat.col("ns").unwrap();
        let pid = cat.col("pid").unwrap();
        let state = cat.col("state").unwrap();
        let before = r.to_relation();
        let sleeping_before = r
            .query(&Tuple::from_pairs([(state, Value::from("S"))]), ns | pid)
            .unwrap();
        let ops_before = r.profile().total_ops();
        let d2 = flat_scheduler_decomposition(&mut cat);
        r.migrate_to(d2.clone()).unwrap();
        assert_eq!(r.decomposition(), &d2);
        assert_eq!(r.to_relation(), before);
        assert_eq!(r.len(), 3);
        r.validate().unwrap();
        // Same answers through the new representation.
        let sleeping_after = r
            .query(&Tuple::from_pairs([(state, Value::from("S"))]), ns | pid)
            .unwrap();
        assert_eq!(sleeping_after, sleeping_before);
        // The workload profile survives the swap (plus the query above).
        assert_eq!(r.profile().total_ops(), ops_before + 1);
        // The relation stays fully operational: mutate and migrate back.
        r.insert(proc(&cat, 9, 9, "R", 2)).unwrap();
        let (_, fresh) = scheduler();
        r.migrate_to(fresh.decomposition().clone()).unwrap();
        assert_eq!(r.len(), 4);
        r.validate().unwrap();
    }

    #[test]
    fn migrate_to_current_decomposition_is_noop() {
        let (cat, mut r) = scheduler();
        rs(&cat, &mut r);
        let d = r.decomposition().clone();
        let plans_before = {
            // Warm a plan so we can observe the cache surviving the no-op.
            r.query_full(&Tuple::empty()).unwrap();
            r.plan_cache_len()
        };
        r.migrate_to(d).unwrap();
        assert_eq!(r.plan_cache_len(), plans_before, "no-op keeps the cache");
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn migrate_rejects_inadequate_target() {
        let (mut cat, mut r) = scheduler();
        rs(&cat, &mut r);
        // Drops `cpu` entirely: inadequate for the four-column spec.
        let bad = parse(
            &mut cat,
            "let w : {ns,pid} . {state} = unit {state} in
             let x : {} . {ns,pid,state} = {ns,pid} -[htable]-> w in x",
        )
        .unwrap();
        let err = r.migrate_to(bad).unwrap_err();
        assert!(matches!(err, MigrateError::Build(_)));
        // Untouched on error.
        assert_eq!(r.len(), 3);
        r.validate().unwrap();
    }

    #[test]
    fn len_and_instance_accounting_after_churn() {
        let (cat, mut r) = scheduler();
        for i in 0..50 {
            r.insert(proc(&cat, i % 5, i, if i % 2 == 0 { "S" } else { "R" }, i))
                .unwrap();
        }
        assert_eq!(r.len(), 50);
        r.validate().unwrap();
        let ns = cat.col("ns").unwrap();
        for i in 0..5 {
            r.remove(&Tuple::from_pairs([(ns, Value::from(i))]))
                .unwrap();
        }
        assert!(r.is_empty());
        r.validate().unwrap();
    }
}
