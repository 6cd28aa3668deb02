//! [`SynthRelation`]: the synthesized implementation of a relational
//! specification for a chosen decomposition.

use crate::alpha;
use crate::error::{BuildError, MigrateError, OpError};
use crate::exec::Bindings;
use crate::instance::{InlineUnit, InstanceRef, Key, Layout, Store};
use crate::profile::{ProfileCounters, WorkloadProfile};
use crate::read::{interval_cols, plan_memoized, PlanCache, ReadCore, RelRead};
use crate::write::WriteScratch;
use crate::{FxHashMap, Op};
use relic_decomp::{check_adequacy, Decomposition};
use relic_query::{Block, CostModel, JoinCostMode, PlanError, Planner, WriteBlock};
use relic_spec::{Catalog, ColSet, Pattern, RelSpec, Relation, Tuple};
use std::sync::Arc;

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
    pub(crate) cat: Catalog,
    pub(crate) spec: RelSpec,
    /// The decomposition, `Arc`-shared with every outstanding
    /// [`Snapshot`](crate::Snapshot) (it is only ever *replaced* — by
    /// migration — never mutated in place, so sharing is always sound).
    pub(crate) d: Arc<Decomposition>,
    pub(crate) layout: Arc<Layout>,
    /// The instance store. Mutations go through `Arc::make_mut`: while no
    /// snapshot shares the store the relation mutates in place; the first
    /// mutation after a snapshot was taken pays one *shallow* store clone
    /// (chunk `Arc` bumps, `O(live/64)` — the store is a persistent chunked
    /// structure, see [`Store`]), after which touched chunks/instances are
    /// path-copied lazily. The snapshot's version stays frozen while the
    /// writer pays only for what it touches.
    pub(crate) store: Arc<Store>,
    pub(crate) root: InstanceRef,
    pub(crate) cost: CostModel,
    /// Read-mostly plan cache: the warm path takes only a read lock and
    /// clones an `Arc`, never a `Block`. Invalidation (`set_cost_model`,
    /// `set_join_cost_mode`, migration) *replaces* the `Arc` with a fresh
    /// cache instead of clearing in place, so snapshots sharing the old
    /// cache keep plans consistent with their frozen representation.
    pub(crate) plan_cache: Arc<PlanCache>,
    /// Scratch accumulator reused by the mutation paths (`insert`, `remove`,
    /// `update`) for their key, FD-check and matching probes.
    pub(crate) scratch: Bindings,
    /// Buffers reused by the write runner.
    pub(crate) write: WriteScratch,
    /// The lowered §4.5 removal of every pattern column set seen so far,
    /// dropped only when `migrate_to` replaces the decomposition.
    pub(crate) removals: FxHashMap<ColSet, Arc<WriteBlock>>,
    /// The lowered in-place update of every `(row columns, changed
    /// columns)` signature seen so far, dropped with `removals`.
    pub(crate) updates: FxHashMap<(ColSet, ColSet), Result<Arc<WriteBlock>, PlanError>>,
    /// Workload recorder: per-signature query counts, insert count,
    /// per-pattern remove counts. Interior-mutable so `&self` queries can
    /// record; warm signatures cost one read lock + one relaxed increment.
    /// `Arc`-shared with snapshots, so read traffic served wait-free through
    /// a [`Snapshot`](crate::Snapshot) still feeds the autotuner.
    pub(crate) profile: Arc<ProfileCounters>,
    /// Whether the recorder is armed (on by default; see
    /// [`set_profiling`](SynthRelation::set_profiling)).
    pub(crate) profiling: bool,
    pub(crate) check_fds: bool,
    pub(crate) len: usize,
    pub(crate) min_key: ColSet,
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
        let min_key = spec.minimal_key();
        let layout = Layout::new(&d, min_key).map_err(BuildError::Plan)?;
        let (store, root) = fresh_store(&d, &layout);
        let cost = CostModel::uniform(&d, CostModel::DEFAULT_FANOUT);
        Ok(SynthRelation {
            cat: cat.clone(),
            spec,
            d: Arc::new(d),
            layout: Arc::new(layout),
            store,
            root,
            cost,
            plan_cache: Arc::default(),
            scratch: Bindings::new(),
            write: WriteScratch::default(),
            removals: FxHashMap::default(),
            updates: FxHashMap::default(),
            profile: Arc::new(ProfileCounters::default()),
            profiling: true,
            check_fds: true,
            len: 0,
            min_key,
        })
    }

    /// Estimated heap bytes of the current store version: instance and
    /// container-entry overheads, keys and unit values, excluding string
    /// payloads. A running counter, O(1) to read; every tuple inserted adds
    /// what its removal subtracts, however it was inserted.
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
            Arc::clone(&self.layout),
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
    /// shared nodes are counted once). An *inline leaf* — a `unit C` node
    /// reached by exactly one edge that is not an intrusive list — has no
    /// instances: its units are container entries of its parent and are not
    /// counted here.
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
        self.plan_cache = Arc::default();
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
    pub(crate) fn record_query(&self, avail: ColSet, ranged: ColSet, out: ColSet) {
        if self.profiling {
            self.profile.record_query(avail, ranged, out);
        }
    }

    /// Records one removal pattern if the recorder is armed.
    #[inline]
    pub(crate) fn record_remove(&self, pattern: ColSet) {
        if self.profiling {
            self.profile.record_remove(pattern);
        }
    }

    /// Records `n` inserted tuples if the recorder is armed.
    #[inline]
    pub(crate) fn record_inserts(&self, n: usize) {
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
        self.plan_for_sig(pattern_cols, ColSet::EMPTY, ColSet::EMPTY, out)
    }

    /// The §4.3 planner's choice for a signature — the plan the cached
    /// block was lowered from — in the paper's notation.
    fn plan_for_sig(
        &self,
        eq: ColSet,
        ranged: ColSet,
        filtered: ColSet,
        out: ColSet,
    ) -> Result<String, OpError> {
        let planner = Planner::new(&self.d, &self.spec, self.cost.clone());
        Ok(planner
            .plan_query_where(eq, ranged, filtered, out)?
            .plan
            .to_string())
    }

    /// The memoized block for an equality signature (see
    /// [`plan_memoized`]).
    pub(crate) fn planned(&self, avail: ColSet, out: ColSet) -> Result<Arc<Block>, OpError> {
        plan_memoized(
            &self.plan_cache,
            &self.d,
            &self.spec,
            &self.cost,
            avail,
            ColSet::EMPTY,
            ColSet::EMPTY,
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
        self.read_core().stream(scratch, pattern, out, f)
    }

    /// The borrowed read core over this relation's current state (shared
    /// with [`crate::Snapshot`], which builds the same core over its frozen
    /// `Arc`s — one implementation of plan + execute serves both). Its
    /// streams record nothing: the public queries record before calling it,
    /// and the mutation paths' embedded queries are accounted by their own
    /// operation counters.
    fn read_core(&self) -> ReadCore<'_> {
        ReadCore {
            spec: &self.spec,
            d: &self.d,
            layout: &self.layout,
            store: &self.store,
            root: self.root,
            cost: &self.cost,
            plan_cache: &self.plan_cache,
        }
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

    /// The matching collector of the mutation paths (`remove`,
    /// `remove_where`, and through them `remove_many` and a structural
    /// `update`; the `migrate_to` drain): every full tuple `stream` emits
    /// from the read core, sorted and deduplicated. Unrecorded — the tuples
    /// a mutation enumerates are part of its own cost, not observed query
    /// traffic — and streamed through the relation's own scratch
    /// accumulator. A key pattern's single row is neither sorted nor
    /// deduplicated.
    pub(crate) fn collect_matching(
        &mut self,
        stream: impl FnOnce(
            &ReadCore<'_>,
            &mut Bindings,
            &mut dyn FnMut(&Bindings),
        ) -> Result<(), OpError>,
    ) -> Result<Vec<Tuple>, OpError> {
        let all = self.spec.cols();
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut rows = Vec::new();
        let streamed = stream(&self.read_core(), &mut scratch, &mut |b| {
            rows.push(b.project(all))
        });
        self.scratch = scratch;
        streamed?;
        if rows.len() > 1 {
            rows.sort_unstable();
            rows.dedup();
        }
        Ok(rows)
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
        self.read_core().stream_where(scratch, pattern, out, f)
    }

    /// The plan [`query_where`](RelRead::query_where) will use for a
    /// pattern's signature (for inspection and tests), rendered in the
    /// paper's notation.
    pub fn plan_for_where(&self, pattern: &Pattern, out: ColSet) -> Result<String, OpError> {
        let ranged = interval_cols(pattern);
        self.plan_for_sig(pattern.eq_cols(), ranged, pattern.cmp_cols() - ranged, out)
    }

    /// Applies one [`Op`] by calling the write method it names. Returns
    /// how many tuples it inserted or removed; an [`Op::Update`] counts 1
    /// when it changed a tuple, and an [`Op::Migrate`] counts 0.
    ///
    /// # Errors
    ///
    /// As for that method. A migration's error arrives as
    /// [`OpError::Migrate`], with [`MigrateError::Parse`] when the
    /// let-notation does not parse against the relation's catalog.
    pub fn apply(&mut self, op: Op) -> Result<usize, OpError> {
        match op {
            Op::Insert(t) => Ok(usize::from(self.insert(t)?)),
            Op::InsertMany(ts) => self.insert_many(ts),
            Op::BulkLoad(ts) => self.bulk_load(ts),
            op => self.apply_ref(&op),
        }
    }

    /// [`apply`](SynthRelation::apply) for a borrowed op: the tuples an
    /// insert adds are cloned out of it.
    ///
    /// # Errors
    ///
    /// As for [`apply`](SynthRelation::apply).
    pub fn apply_ref(&mut self, op: &Op) -> Result<usize, OpError> {
        match op {
            Op::Insert(t) => Ok(usize::from(self.insert(t.clone())?)),
            Op::InsertMany(ts) => self.insert_many(ts.iter().cloned()),
            Op::BulkLoad(ts) => self.bulk_load(ts.iter().cloned()),
            Op::Remove(p) => self.remove(p),
            Op::RemoveMany(ps) => self.remove_many(ps),
            Op::RemoveWhere(p) => self.remove_where(p),
            Op::Update { pattern, changes } => Ok(usize::from(self.update(pattern, changes)?)),
            Op::Migrate(src) => {
                self.migrate_to(self.migrate_target(src)?)?;
                Ok(0)
            }
        }
    }

    /// The decomposition an [`Op::Migrate`] names: its let-notation parsed
    /// against (a copy of) the relation's catalog.
    ///
    /// # Errors
    ///
    /// [`MigrateError::Parse`] if the let-notation does not parse.
    pub fn migrate_target(&self, src: &str) -> Result<Decomposition, MigrateError> {
        relic_decomp::parse(&mut self.cat.clone(), src).map_err(MigrateError::Parse)
    }

    /// Every stored tuple satisfying `pattern`, full and sorted — the
    /// tuples [`remove_where`](SynthRelation::remove_where) would remove —
    /// read without recording a query in the workload profile: for a layer
    /// that logs what a write will change before it applies it.
    ///
    /// # Errors
    ///
    /// As for [`query_where`](RelRead::query_where).
    pub fn matching_where(&self, pattern: &Pattern) -> Result<Vec<Tuple>, OpError> {
        let all = self.spec.cols();
        let mut rows = Vec::new();
        self.read_core()
            .stream_where(&mut Bindings::new(), pattern, all, |b| {
                rows.push(b.project(all))
            })?;
        rows.sort_unstable();
        rows.dedup();
        Ok(rows)
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
        // The drain is not observed traffic.
        next.profiling = false;
        // Drain through the unrecorded collector (not `to_relation`, whose
        // per-instance unions are quadratic in fan-out; and not the public
        // query path, which would record the migration into the very profile
        // that triggered it).
        let all = self.spec.cols();
        let tuples = self
            .collect_matching(|core, s, f| core.stream(s, &Tuple::empty(), all, f))
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
        self.removals.clear();
        self.updates.clear();
        Ok(())
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

/// An empty store for `d`: its root instance alone.
pub(crate) fn fresh_store(d: &Decomposition, layout: &Layout) -> (Arc<Store>, InstanceRef) {
    let mut store = Store::new(d);
    let root_inst = layout.new_instance(d, d.root(), Key::Zero, |_, _| {
        InlineUnit::new(ColSet::EMPTY, std::iter::empty())
    });
    let root = store.alloc(d.root(), root_inst);
    (Arc::new(store), root)
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

    /// An update that rewrites a row with the values it already holds is
    /// answered before the store is made unique: under a pinned snapshot the
    /// writer's store stays the snapshot's, so no chunk or instance is
    /// copied — on the keyed path (FD checking off) and on the walk (on).
    #[test]
    fn no_op_update_under_a_snapshot_copies_nothing() {
        for fd_checking in [false, true] {
            let (cat, mut r) = scheduler();
            r.set_fd_checking(fd_checking);
            rs(&cat, &mut r);
            let (ns, pid, cpu) = (
                cat.col("ns").unwrap(),
                cat.col("pid").unwrap(),
                cat.col("cpu").unwrap(),
            );
            let key = Tuple::from_pairs([(ns, Value::from(1)), (pid, Value::from(2))]);
            let snap = r.snapshot();
            assert_eq!(Arc::strong_count(&r.store), 2);
            let same = Tuple::from_pairs([(cpu, Value::from(4))]);
            assert!(r.update(&key, &same).unwrap());
            assert_eq!(Arc::strong_count(&r.store), 2, "fd checking {fd_checking}");
            // A real change copies, and the snapshot keeps the old value.
            let new = Tuple::from_pairs([(cpu, Value::from(9))]);
            assert!(r.update(&key, &new).unwrap());
            assert_eq!(Arc::strong_count(&r.store), 1);
            assert_eq!(snap.query(&key, cpu.into()).unwrap(), vec![same]);
            assert_eq!(r.query(&key, cpu.into()).unwrap(), vec![new]);
            r.validate().unwrap();
        }
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
