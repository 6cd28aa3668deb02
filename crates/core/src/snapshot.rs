//! [`Snapshot`]: a frozen, shareable read-only view of a [`SynthRelation`].
//!
//! A snapshot is the read half of an RCU-style split (McKenney, *Is
//! Parallel Programming Hard*): [`SynthRelation::snapshot`] captures the
//! relation's current decomposition, instance store, plan cache and cost
//! model behind `Arc`s in O(1), and every later mutation copy-on-writes the
//! store instead of touching the captured one. The snapshot therefore
//! answers queries against exactly the state it was taken at — forever,
//! without any lock — while the live relation keeps mutating.
//!
//! Three sharing decisions make this safe and useful:
//!
//! * **Store, decomposition, layout** are `Arc`-shared and never mutated in
//!   place by the live relation (mutations go through `Arc::make_mut`,
//!   migrations replace the `Arc`s wholesale), so the snapshot's instance
//!   graph is immutable.
//! * **The plan cache** is `Arc`-shared with the relation *as of the
//!   snapshot*: plans memoized by either side serve both, and invalidation
//!   on the live side (migration, cost-model swap) replaces the relation's
//!   `Arc` rather than clearing the map, so the snapshot's plans always
//!   match its frozen representation.
//! * **The workload recorder** is `Arc`-shared with the live relation, so
//!   reads served through a snapshot still count toward the profile the
//!   autotuner consumes — moving read traffic off the locks does not blind
//!   the profile → recommend → migrate loop. Recording uses the recorder's
//!   existing read-mostly locking and relaxed atomics.
//!
//! [`SynthRelation`]: crate::SynthRelation
//! [`SynthRelation::snapshot`]: crate::SynthRelation::snapshot

use crate::error::OpError;
use crate::exec::Bindings;
use crate::instance::{InstanceRef, Layout, Store};
use crate::profile::ProfileCounters;
use crate::read::{interval_cols, PlanCache, ReadCore, RelRead};
use relic_decomp::Decomposition;
use relic_query::CostModel;
use relic_spec::{ColSet, Pattern, RelSpec, Relation, Tuple};
use std::sync::Arc;

/// An immutable view of a [`SynthRelation`](crate::SynthRelation) at one
/// moment: the full read-side query API ([`RelRead`]), no locks, no
/// mutation.
///
/// Snapshots are cheap to take (a handful of `Arc` bumps), cheap to clone,
/// and `Send + Sync` — the intended use is publishing them from a writer to
/// wait-free readers (see `relic_concurrent`'s `read_view`).
#[derive(Debug, Clone)]
pub struct Snapshot {
    spec: RelSpec,
    d: Arc<Decomposition>,
    layout: Arc<Layout>,
    store: Arc<Store>,
    root: InstanceRef,
    cost: CostModel,
    plan_cache: Arc<PlanCache>,
    profile: Arc<ProfileCounters>,
    profiling: bool,
    len: usize,
}

impl Snapshot {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        spec: RelSpec,
        d: Arc<Decomposition>,
        layout: Arc<Layout>,
        store: Arc<Store>,
        root: InstanceRef,
        cost: CostModel,
        plan_cache: Arc<PlanCache>,
        profile: Arc<ProfileCounters>,
        profiling: bool,
        len: usize,
    ) -> Self {
        Snapshot {
            spec,
            d,
            layout,
            store,
            root,
            cost,
            plan_cache,
            profile,
            profiling,
            len,
        }
    }

    /// The relation's specification.
    pub fn spec(&self) -> &RelSpec {
        &self.spec
    }

    /// The decomposition this snapshot was represented by when taken.
    pub fn decomposition(&self) -> &Decomposition {
        &self.d
    }

    /// Number of tuples in the snapshot.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Estimated heap bytes of this snapshot's store version (the O(1)
    /// running estimate of
    /// [`SynthRelation::store_approx_bytes`](crate::SynthRelation::store_approx_bytes);
    /// versions sharing structure each report their full logical size). Feeds
    /// `relic_concurrent`'s `limbo_bytes()` accounting for retired
    /// snapshots.
    pub fn store_approx_bytes(&self) -> usize {
        self.store.approx_bytes()
    }

    /// Is the snapshot empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Records one query signature into the live relation's shared
    /// recorder, gated on `valid` — the pattern's full domain plus the
    /// output. Only valid signatures are recorded: an unplannable
    /// (foreign-column) signature in the profile would make every candidate
    /// rank infinite and silently disable recommendations, exactly as on
    /// the live relation's recorded paths.
    #[inline]
    fn record_query(&self, valid: ColSet, avail: ColSet, ranged: ColSet, out: ColSet) {
        if self.profiling && valid.is_subset(self.spec.cols()) {
            self.profile.record_query(avail, ranged, out);
        }
    }

    /// The shared read core over the frozen state (the same plan + execute
    /// implementation the live relation uses).
    fn core(&self) -> ReadCore<'_> {
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

    /// Streams every tuple of the snapshot through `f`, **each exactly
    /// once**, as a full valuation in the execution accumulator — the one
    /// linear "every tuple" read (checkpoints, reports, recovery probes).
    ///
    /// It runs the plan of `query_for_each_bindings(∅, all columns)`: a
    /// constant-space walk (§4.1) in which every container entry is visited
    /// once and every emitted valuation binds all columns, so distinct
    /// paths are distinct tuples and no deduplication is needed. With a
    /// reused `scratch` it allocates nothing per tuple. Unlike the query
    /// methods it is **not recorded** in the workload profile: draining a
    /// relation is not the traffic the autotuner should tune for (the same
    /// rule [`migrate_to`](crate::SynthRelation::migrate_to)'s drain
    /// follows).
    ///
    /// # Errors
    ///
    /// Only if no plan covers the relation's own columns, which an
    /// adequate decomposition rules out.
    pub fn scan_all(
        &self,
        scratch: &mut Bindings,
        f: impl FnMut(&Bindings),
    ) -> Result<(), OpError> {
        self.core()
            .stream(scratch, &Tuple::empty(), self.spec.cols(), f)
    }

    /// The abstraction function α over the frozen instance: the reference
    /// [`Relation`] this snapshot represents. The **test oracle**, not a
    /// scan — see
    /// [`SynthRelation::to_relation`](crate::SynthRelation::to_relation);
    /// production readers use [`scan_all`](Snapshot::scan_all).
    pub fn to_relation(&self) -> Relation {
        crate::alpha::alpha(&self.store, &self.d, self.root)
    }
}

/// Queries answer against the frozen state — identical to the live
/// relation's answers at the moment the snapshot was taken, with the same
/// plan selection and (given a reused `scratch` and the shared, warm plan
/// cache) the same no-allocation-per-row contract.
impl RelRead for Snapshot {
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
        self.record_query(pattern.dom() | out, pattern.dom(), ColSet::EMPTY, out);
        self.core().stream(scratch, pattern, out, f)
    }

    fn query_where_for_each_bindings(
        &self,
        scratch: &mut Bindings,
        pattern: &Pattern,
        out: ColSet,
        f: impl FnMut(&Bindings),
    ) -> Result<(), OpError> {
        self.record_query(
            pattern.dom() | out,
            pattern.eq_cols(),
            interval_cols(pattern),
            out,
        );
        self.core().stream_where(scratch, pattern, out, f)
    }
}

#[cfg(test)]
mod tests {
    use crate::{RelRead, SynthRelation};
    use relic_decomp::parse;
    use relic_spec::{Catalog, ColSet, RelSpec, Tuple, Value};

    fn event_log() -> (Catalog, SynthRelation) {
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
        let r = SynthRelation::new(&cat, spec, d).unwrap();
        (cat, r)
    }

    fn tup(cat: &Catalog, h: i64, t: i64, b: i64) -> Tuple {
        Tuple::from_pairs([
            (cat.col("host").unwrap(), Value::from(h)),
            (cat.col("ts").unwrap(), Value::from(t)),
            (cat.col("bytes").unwrap(), Value::from(b)),
        ])
    }

    #[test]
    fn snapshot_is_send_sync_and_answers_like_the_relation() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::Snapshot>();
        let (cat, mut r) = event_log();
        for h in 0..4i64 {
            for t in 0..8i64 {
                r.insert(tup(&cat, h, t, h + t)).unwrap();
            }
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), r.len());
        let host = cat.col("host").unwrap();
        let ts = cat.col("ts").unwrap();
        let bytes = cat.col("bytes").unwrap();
        let pat = Tuple::from_pairs([(host, Value::from(2))]);
        assert_eq!(
            snap.query(&pat, ts | bytes).unwrap(),
            r.query(&pat, ts | bytes).unwrap()
        );
        assert_eq!(snap.to_relation(), r.to_relation());
        assert!(snap.contains(&tup(&cat, 1, 1, 2)).unwrap());
        assert!(!snap
            .contains_matching(&Tuple::from_pairs([(host, Value::from(9))]))
            .unwrap());
        // Foreign columns are rejected exactly as on the live relation.
        let mut cat2 = cat.clone();
        let alien = cat2.intern("alien");
        assert!(snap
            .query(&Tuple::from_pairs([(alien, Value::from(1))]), alien.set())
            .is_err());
    }

    #[test]
    fn snapshot_is_frozen_while_the_relation_mutates() {
        let (cat, mut r) = event_log();
        for t in 0..10i64 {
            r.insert(tup(&cat, 1, t, t)).unwrap();
        }
        let before = r.to_relation();
        let snap = r.snapshot();
        // Mutate through every path: insert, remove, update, batch, clear.
        r.insert(tup(&cat, 2, 0, 7)).unwrap();
        r.remove(&Tuple::from_pairs([
            (cat.col("host").unwrap(), Value::from(1)),
            (cat.col("ts").unwrap(), Value::from(3)),
        ]))
        .unwrap();
        r.update(
            &Tuple::from_pairs([
                (cat.col("host").unwrap(), Value::from(1)),
                (cat.col("ts").unwrap(), Value::from(5)),
            ]),
            &Tuple::from_pairs([(cat.col("bytes").unwrap(), Value::from(99))]),
        )
        .unwrap();
        r.insert_many((0..5i64).map(|t| tup(&cat, 3, t, t)))
            .unwrap();
        assert_eq!(snap.to_relation(), before, "snapshot must not move");
        assert_eq!(snap.len(), 10);
        r.clear();
        assert_eq!(snap.to_relation(), before, "snapshot survives clear");
        r.validate().unwrap();
    }

    #[test]
    fn snapshot_reads_feed_the_live_profile() {
        let (cat, mut r) = event_log();
        r.insert(tup(&cat, 1, 1, 1)).unwrap();
        r.reset_profile();
        let snap = r.snapshot();
        let host = cat.col("host").unwrap();
        let pat = Tuple::from_pairs([(host, Value::from(1))]);
        for _ in 0..5 {
            snap.query(&pat, ColSet::EMPTY).unwrap();
        }
        let p = r.profile();
        assert_eq!(
            p.queries,
            vec![(host.set(), ColSet::EMPTY, ColSet::EMPTY, 5)],
            "snapshot reads count as live traffic"
        );
        // Rejected signatures are never recorded (as on the live relation).
        let mut cat2 = cat.clone();
        let alien = cat2.intern("alien");
        let _ = snap.query(&Tuple::from_pairs([(alien, Value::from(1))]), ColSet::EMPTY);
        assert_eq!(r.profile().total_ops(), 5);
    }

    #[test]
    fn snapshot_stays_on_the_pre_migration_representation() {
        let (mut cat, mut r) = event_log();
        for h in 0..3i64 {
            for t in 0..4i64 {
                r.insert(tup(&cat, h, t, h * t)).unwrap();
            }
        }
        let snap = r.snapshot();
        let old_d = snap.decomposition().clone();
        let flat = parse(
            &mut cat,
            "let u : {host,ts} . {bytes} = unit {bytes} in
             let x : {} . {host,ts,bytes} = {host,ts} -[avl]-> u in x",
        )
        .unwrap();
        r.migrate_to(flat.clone()).unwrap();
        assert_eq!(r.decomposition(), &flat);
        assert_eq!(snap.decomposition(), &old_d, "snapshot keeps the old shape");
        // Both answer identically (migration preserves the tuple set, and
        // the snapshot was taken before any post-migration mutation).
        assert_eq!(snap.to_relation(), r.to_relation());
        let ts = cat.col("ts").unwrap();
        let pat = Tuple::from_pairs([(ts, Value::from(2))]);
        assert_eq!(
            snap.query(&pat, cat.col("host").unwrap().set()).unwrap(),
            r.query(&pat, cat.col("host").unwrap().set()).unwrap()
        );
        // And the snapshot's plans still execute against its old store after
        // the live side replaced its plan cache.
        r.insert(tup(&cat, 9, 9, 9)).unwrap();
        assert_eq!(snap.len(), 12);
        assert_eq!(r.len(), 13);
    }
}
