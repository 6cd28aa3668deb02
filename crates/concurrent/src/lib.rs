//! Thread-safe synthesized relations.
//!
//! The paper's follow-on work ("Concurrent Data Representation Synthesis",
//! PLDI 2012) extends RELC to emit concurrent containers by attaching locks
//! to decomposition nodes and acquiring them in a two-phase discipline
//! guided by the decomposition's *domains* — the valuations of the columns
//! bound on a path. This crate reproduces the essence of that design in a
//! deliberately simplified form — one lock per partition instead of one per
//! node instance:
//!
//! * the relation is **partitioned by a set of shard columns** — the analog
//!   of locking on the valuation of the first-level key columns: every
//!   tuple routes to the shard owning its shard-column valuation,
//! * each shard is an independent [`SynthRelation`] behind a
//!   reader-writer lock — mutations whose pattern *pins* the shard columns
//!   touch exactly one lock, mirroring how the PLDI'12 system takes only
//!   the locks on the domains an operation visits,
//! * mutations that do not pin the shard columns take **all shard locks in
//!   index order** (a total order, so the discipline is deadlock-free),
//!   like a whole-relation domain lock,
//! * queries take no shard lock at all: they read the snapshots every
//!   mutation publishes before it releases its locks (below).
//!
//! Every individual mutation is atomic (linearizable): it holds all the
//! locks it needs for its whole duration. Compound read-modify-write
//! sequences can be made atomic with
//! [`ConcurrentRelation::with_partition_mut`].
//!
//! Every write is an [`Op`] applied through
//! [`apply`](ConcurrentRelation::apply); the one routing rule — which
//! shards an op locks, in what order, where it stops — lives in
//! [`apply_with`](ConcurrentRelation::apply_with), which the durability
//! layer's logging and its replay reuse through a [`WriteHook`].
//!
//! # Per-shard batch lock discipline
//!
//! The batch mutations ([`Op::BulkLoad`], [`Op::InsertMany`]) first
//! partition the batch by shard **without holding any lock** — routing only hashes shard
//! columns — then visit the non-empty shards in index order, taking each
//! shard's write lock **once per batch** and running the underlying
//! [`SynthRelation`] batch operation under it. A batch of n tuples touching
//! s shards therefore costs s lock acquisitions instead of n, and two
//! concurrent batches over disjoint shards never contend. The trade-off is
//! granularity: a batch is atomic *per shard*, not across shards — readers
//! may observe a shard-prefix of a concurrent batch (each individual shard
//! load is still atomic and linearizable).
//!
//! # Wait-free snapshot reads
//!
//! There is one read path, and it does not touch the shard locks: every
//! shard **publishes** an immutable [`relic_core::Snapshot`] of itself after
//! each mutation epoch — before the mutation's lock is released, so a reader
//! that starts after a mutation returned sees it — and
//! [`ConcurrentRelation::read_view`] collects the published snapshots into a
//! [`ReadView`], which answers every form of `query` through
//! [`relic_core::RelRead`]. A per-thread [`ReadHandle`] caches the view and
//! refreshes only when the relation's epoch counter moves, so a
//! steady-state point query costs one atomic load plus the snapshot probe —
//! readers never wait on writers.
//! Writers mutate the (persistent, structure-sharing) store in place under
//! the shard lock and *retire* replaced snapshots onto per-shard limbo
//! lists; each handle pins the epochs it reads at, and retired state is
//! torn down writer-side once the minimum pinned epoch passes it — see the
//! [`epoch`] module for the reclamation design and the [`snapshot`] module
//! for the view lifecycle and consistency contract.
//!
//! # Adaptive migration epochs
//!
//! The representation itself is a runtime decision:
//! [`ConcurrentRelation::migrate_to`] re-represents every shard under a new
//! decomposition, and [`ConcurrentRelation::recommend_and_migrate`] first
//! aggregates the shards' measured workload profiles and only migrates when
//! the autotuner's best candidate clears an improvement margin. Both follow
//! McKenney's ordered-acquisition discipline: every shard write lock is
//! taken in **index order** — the same total order every other
//! whole-relation operation uses, so the acquisition phase cannot deadlock —
//! and held until the last shard has swapped. The swap is therefore one
//! epoch: no reader or writer ever observes two decompositions at once, and
//! a failing shard rolls the earlier ones back before the error surfaces.
//!
//! # Example
//!
//! ```
//! use relic_concurrent::ConcurrentRelation;
//! use relic_core::SynthRelation;
//! use relic_decomp::parse;
//! use relic_spec::{Catalog, RelSpec, Tuple, Value};
//!
//! let mut cat = Catalog::new();
//! let d = parse(
//!     &mut cat,
//!     "let u : {host,ts} . {bytes} = unit {bytes} in
//!      let h : {host} . {ts,bytes} = {ts} -[avl]-> u in
//!      let x : {} . {host,ts,bytes} = {host} -[htable]-> h in x",
//! )?;
//! let host = cat.col("host").unwrap();
//! let ts = cat.col("ts").unwrap();
//! let bytes = cat.col("bytes").unwrap();
//! let spec = RelSpec::new(host | ts | bytes).with_fd(host | ts, bytes.into());
//! // Partition by host: per-host traffic from different threads never
//! // contends on the same lock.
//! let log = ConcurrentRelation::new(&cat, spec, d, host.into(), 8)?;
//! std::thread::scope(|s| {
//!     for h in 0..4i64 {
//!         let log = &log;
//!         s.spawn(move || {
//!             for t in 0..100i64 {
//!                 log.insert(Tuple::from_pairs([
//!                     (host, Value::from(h)),
//!                     (ts, Value::from(t)),
//!                     (bytes, Value::from(t % 7)),
//!                 ]))
//!                 .unwrap();
//!             }
//!         });
//!     }
//! });
//! assert_eq!(log.len(), 400);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod epoch;
pub mod snapshot;

pub use snapshot::{ReadHandle, ReadView};

use relic_autotune::{Autotuner, Recommendation, Workload};
use relic_containers::FxHasher;
use relic_core::{BuildError, MigrateError, Op, OpError, Snapshot, SynthRelation, WorkloadProfile};
use relic_decomp::{Decomposition, EnumerateOptions};
use relic_spec::{Catalog, ColId, ColSet, RelSpec, Relation, Tuple, Value};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// The one routing decision, shared by the write paths, [`ReadView`] and
/// [`ReadHandle`] so all land on the same shard: the index of the shard (of
/// `shards`) owning the shard-column valuation that `get` reports — a
/// tuple's values, or a comparison pattern's equality constraints — or
/// `None` when some shard column is unconstrained (the operation is
/// *unpinned* and concerns every shard).
pub(crate) fn route<'v>(
    shard_cols: ColSet,
    shards: usize,
    get: impl Fn(ColId) -> Option<&'v Value>,
) -> Option<usize> {
    let mut h = FxHasher::new();
    for c in shard_cols.iter() {
        get(c)?.hash(&mut h);
    }
    Some((h.finish() % shards as u64) as usize)
}

/// A layering client's part in a routed write
/// ([`ConcurrentRelation::apply_with`]). The relation decides which shards
/// a write touches; the hook sees each *unit* of it — the whole op, or one
/// shard's group of a batch — and can refuse it, skip shards, and stamp
/// the publish. The durability layer logs through a hook, and its replay
/// skips shards already past a record through another, so the live path
/// and recovery share one routing.
pub trait WriteHook {
    /// Does shard `i` take part? The default takes every shard.
    fn admits(&self, _i: usize) -> bool {
        true
    }

    /// Called outside every lock, before the unit's shards are locked. An
    /// error refuses the unit, and nothing changes.
    fn prepare(&mut self, _unit: &Op) -> Result<(), OpError> {
        Ok(())
    }

    /// Called with the unit's shards write-locked, before the unit applies
    /// to them. An error refuses the unit, and nothing changes.
    fn before(&mut self, _unit: &Op, _shards: &[&SynthRelation]) -> Result<(), OpError> {
        Ok(())
    }

    /// Called with the same locks held after the unit applied to `shards`
    /// (`applied` is its count, or `None` if it failed). Returns the stamp
    /// those shards publish with; `None` keeps their stamps.
    fn after(&mut self, _shards: &[usize], _applied: Option<usize>) -> Option<u64> {
        None
    }
}

/// The hook of a plain [`ConcurrentRelation::apply`]: takes every shard,
/// refuses nothing, stamps nothing.
impl WriteHook for () {}

/// Errors specific to building a concurrent relation.
#[derive(Debug)]
pub enum ConcurrentBuildError {
    /// The underlying synthesized relation could not be built.
    Build(BuildError),
    /// The shard columns are not a subset of the relation's columns.
    ForeignShardColumns {
        /// The offending columns.
        cols: ColSet,
    },
    /// Zero shards requested.
    ZeroShards,
}

impl std::fmt::Display for ConcurrentBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConcurrentBuildError::Build(e) => write!(f, "{e}"),
            ConcurrentBuildError::ForeignShardColumns { cols } => {
                write!(f, "shard columns {cols:?} outside the relation")
            }
            ConcurrentBuildError::ZeroShards => write!(f, "shard count must be at least 1"),
        }
    }
}

impl std::error::Error for ConcurrentBuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConcurrentBuildError::Build(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BuildError> for ConcurrentBuildError {
    fn from(e: BuildError) -> Self {
        ConcurrentBuildError::Build(e)
    }
}

/// A coherent reading of the reclamation-pressure gauges, collected by
/// [`ConcurrentRelation::pressure`] in one pass. A serving front end's
/// admission control sheds writes when these cross its thresholds:
/// applying more mutations while readers pin old epochs only grows the
/// limbo lists it cannot drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryPressure {
    /// Estimated heap bytes parked on the limbo lists
    /// (see [`ConcurrentRelation::limbo_bytes`]).
    pub limbo_bytes: usize,
    /// Retired snapshots currently parked
    /// (see [`ConcurrentRelation::limbo_len`]).
    pub limbo_len: usize,
    /// Publish epochs the slowest pinned reader trails by
    /// (see [`ConcurrentRelation::pinned_epoch_lag`]).
    pub pinned_epoch_lag: u64,
}

/// One shard's publish slot: the frozen snapshot readers collect, paired
/// with the *writer stamp* of the last stamped publish.
///
/// The stamp is an opaque `u64` supplied by a layering client (the
/// durability layer stamps each publish with the shard's last write-ahead
/// log sequence number); it is swapped **atomically with the snapshot**
/// under the slot's latch, so a collector always observes a consistent
/// `(state, stamp)` pair — the invariant a fuzzy-free checkpoint needs.
/// Unstamped publishes keep the previous stamp.
#[derive(Debug)]
struct PublishSlot {
    snap: Option<Arc<Snapshot>>,
    stamp: u64,
}

/// A thread-safe relation: `shards` independent [`SynthRelation`]s, each
/// owning the tuples whose shard-column valuation hashes to it.
///
/// See the [crate docs](crate) for the locking discipline and its
/// relationship to the PLDI 2012 concurrent-synthesis design.
#[derive(Debug)]
pub struct ConcurrentRelation {
    shards: Vec<RwLock<SynthRelation>>,
    /// Per-shard publish slots: the shard's current [`Snapshot`] plus its
    /// writer stamp, swapped under the slot's latch by the writer that
    /// finished a mutation epoch. The snapshot is `None` only inside a
    /// writer's prune→publish window (the writer still holds the shard's
    /// write lock then). See the [`snapshot`] module.
    published: Vec<RwLock<PublishSlot>>,
    /// Monotonic publish counter: bumped (`Release`) after every publish so
    /// cached [`ReadHandle`]s can detect staleness with one `Acquire` load.
    epoch: AtomicU64,
    /// Per-shard publish counters: bumped when the shard's slot is swapped,
    /// so a handle serving a *pinned* point query refreshes only the one
    /// shard it routes to instead of re-collecting the whole view.
    shard_epochs: Vec<AtomicU64>,
    /// Migration seqlock: odd while a migration's all-shard publish burst is
    /// in flight. [`read_view`](ConcurrentRelation::read_view) retries
    /// collection around odd windows, making migration epochs atomic across
    /// a view (no mixed-decomposition views, ever).
    migration_epoch: AtomicU64,
    /// Reader pin registry: every live [`ReadHandle`]'s per-shard epoch
    /// pins, scanned by writers for grace-period detection (see the
    /// [`epoch`] module).
    registry: epoch::EpochRegistry,
    /// Per-shard limbo lists: retired published snapshots awaiting their
    /// grace period, drained writer-side after each mutation's lock
    /// release.
    limbo: Vec<epoch::ShardLimbo>,
    shard_cols: ColSet,
    cols: ColSet,
}

impl ConcurrentRelation {
    /// Creates an empty concurrent relation with `shards` partitions, routed
    /// by the valuation of `shard_cols`.
    ///
    /// Every shard uses the same decomposition; adequacy is checked once per
    /// shard exactly as for [`SynthRelation::new`]. Choosing shard columns
    /// that most operations pin (e.g. the leading key of the hot path)
    /// minimizes whole-relation locking.
    ///
    /// # Errors
    ///
    /// [`ConcurrentBuildError`] if the decomposition is inadequate, the
    /// shard columns are foreign, or `shards == 0`.
    pub fn new(
        cat: &Catalog,
        spec: RelSpec,
        d: Decomposition,
        shard_cols: ColSet,
        shards: usize,
    ) -> Result<Self, ConcurrentBuildError> {
        if shards == 0 {
            return Err(ConcurrentBuildError::ZeroShards);
        }
        let foreign = shard_cols - spec.cols();
        if !foreign.is_empty() {
            return Err(ConcurrentBuildError::ForeignShardColumns { cols: foreign });
        }
        let cols = spec.cols();
        let mut v = Vec::with_capacity(shards);
        for _ in 0..shards {
            v.push(SynthRelation::new(cat, spec.clone(), d.clone())?);
        }
        // Publish each shard's (empty) state up front, so readers always
        // find a snapshot without ever touching a shard lock.
        let published = v
            .iter()
            .map(|r| {
                RwLock::new(PublishSlot {
                    snap: Some(Arc::new(r.snapshot())),
                    stamp: 0,
                })
            })
            .collect();
        Ok(ConcurrentRelation {
            shard_epochs: (0..v.len()).map(|_| AtomicU64::new(0)).collect(),
            registry: epoch::EpochRegistry::new(v.len()),
            limbo: (0..v.len()).map(|_| epoch::ShardLimbo::default()).collect(),
            shards: v.into_iter().map(RwLock::new).collect(),
            published,
            epoch: AtomicU64::new(0),
            migration_epoch: AtomicU64::new(0),
            shard_cols,
            cols,
        })
    }

    /// The number of partitions.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The columns tuples are routed by.
    pub fn shard_cols(&self) -> ColSet {
        self.shard_cols
    }

    /// The shard a pattern pins ([`route`] over its values), if it binds
    /// every shard column.
    fn route(&self, t: &Tuple) -> Option<usize> {
        route(self.shard_cols, self.shards.len(), |c| t.get(c))
    }

    /// Shared access to shard `i`. Lock poisoning (a panic inside an earlier
    /// critical section) is unrecoverable for an in-memory structure, so
    /// every lock site funnels through this pair of helpers and panics with
    /// one consistent message.
    fn read_shard(&self, i: usize) -> RwLockReadGuard<'_, SynthRelation> {
        self.shards[i].read().expect("shard lock poisoned")
    }

    /// Exclusive access to shard `i` (see
    /// [`read_shard`](ConcurrentRelation::read_shard)).
    fn write_shard(&self, i: usize) -> RwLockWriteGuard<'_, SynthRelation> {
        self.shards[i].write().expect("shard lock poisoned")
    }

    fn read_all(&self) -> Vec<RwLockReadGuard<'_, SynthRelation>> {
        // Index order — a total order, hence deadlock-free.
        (0..self.shards.len()).map(|i| self.read_shard(i)).collect()
    }

    fn write_all(&self) -> Vec<RwLockWriteGuard<'_, SynthRelation>> {
        (0..self.shards.len())
            .map(|i| self.write_shard(i))
            .collect()
    }

    // -- snapshot publication (see the `snapshot` module docs) --------------

    /// Shared access to shard `i`'s publish slot. Slot locks recover from
    /// poisoning (`into_inner`): the slot holds only whole-value swaps (an
    /// `Option<Arc>` replace and a stamp word), so a panic elsewhere in a
    /// critical section cannot leave it torn — unlike the shard locks,
    /// whose mid-mutation state is genuinely unrecoverable and which keep
    /// the panic funnel.
    fn slot_read(&self, i: usize) -> RwLockReadGuard<'_, PublishSlot> {
        self.published[i].read().unwrap_or_else(|e| e.into_inner())
    }

    /// Exclusive access to shard `i`'s publish slot (see
    /// [`slot_read`](ConcurrentRelation::slot_read) for the poison policy).
    fn slot_write(&self, i: usize) -> RwLockWriteGuard<'_, PublishSlot> {
        self.published[i].write().unwrap_or_else(|e| e.into_inner())
    }

    /// Drops shard `i`'s published snapshot when no reader holds it, so the
    /// upcoming mutation runs fully in place (the store stays unshared).
    /// Called with the shard's write lock held (the slot's `None` window is
    /// therefore invisible to anyone holding any shard lock).
    fn prune_slot(&self, i: usize) {
        let mut slot = self.slot_write(i);
        if slot
            .snap
            .as_ref()
            .is_some_and(|s| Arc::strong_count(s) == 1)
        {
            slot.snap = None;
        }
    }

    /// Publishes shard `i`'s current state (O(1): the snapshot shares the
    /// persistent store), with an optional writer stamp; `None` keeps the
    /// slot's previous stamp. Called with the shard's write lock held, after
    /// the mutation epoch completed. Snapshot and stamp swap together under
    /// the slot's latch, so collectors always see a consistent pair. Does
    /// not bump the epoch counter — callers bump once per logical operation
    /// via [`bump_epoch`](ConcurrentRelation::bump_epoch).
    ///
    /// The replaced snapshot, if any reader still references it, is
    /// *retired* onto shard `i`'s limbo list tagged with the pre-swap
    /// epoch — its teardown is deferred to
    /// [`drain_limbo`](ConcurrentRelation::drain_limbo) once the grace
    /// period expires (see the [`epoch`] module). An unreferenced
    /// replacement drops immediately (the writer already holds the last
    /// `Arc`).
    fn publish_slot_stamped(&self, i: usize, shard: &SynthRelation, stamp: Option<u64>) {
        let old = {
            let mut slot = self.slot_write(i);
            let old = slot.snap.replace(Arc::new(shard.snapshot()));
            if let Some(s) = stamp {
                slot.stamp = s;
            }
            old
        };
        let retire_epoch = self.shard_epochs[i].fetch_add(1, Ordering::Release);
        if let Some(snap) = old {
            if Arc::strong_count(&snap) > 1 {
                self.limbo[i].retire(retire_epoch, snap);
            }
        }
    }

    /// Drains shard `i`'s limbo list past the grace period: every retired
    /// snapshot no pinned reader can still hold is dropped **here, on the
    /// writer/maintenance thread, outside every lock** — reclamation cost
    /// never lands on a reader's query and never extends a shard critical
    /// section. Returns the number of snapshots freed.
    fn drain_limbo(&self, i: usize) -> usize {
        self.limbo[i].drain(self.registry.min_pinned(i))
    }

    /// Announces a completed publish to cached [`ReadHandle`]s.
    fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// The write-side epoch discipline for one shard: write-lock shard `i`,
    /// prune its unreferenced published snapshot (making the mutation
    /// in-place when no reader holds a view), run `f`, republish —
    /// stamped with the stamp `f` returns (see
    /// [`ReadView::shard_stamp`](crate::ReadView::shard_stamp)); `None`
    /// keeps the previous stamp — and bump the epoch. Every single-shard
    /// mutation funnels through here, so a published snapshot is always a
    /// committed per-shard state and a batch applied to a shard is never
    /// visible half-done. A layering client uses it for what is not a
    /// routed op: a logged partition read-modify-write, the stamps of a
    /// recovered relation.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn with_shard_mut_stamped<T>(
        &self,
        i: usize,
        f: impl FnOnce(&mut SynthRelation) -> (T, Option<u64>),
    ) -> T {
        let out = {
            let mut guard = self.write_shard(i);
            self.prune_slot(i);
            let (out, stamp) = f(&mut guard);
            self.publish_slot_stamped(i, &guard, stamp);
            self.bump_epoch();
            out
        };
        // After the write lock is released: reclaim whatever this (or any
        // earlier) epoch retired, now that the grace period may have
        // expired.
        self.drain_limbo(i);
        out
    }

    /// The multi-shard analog of
    /// [`with_shard_mut_stamped`](ConcurrentRelation::with_shard_mut_stamped): write-locks the
    /// shards `idx` lists (ascending — the crate's total lock order, so the
    /// acquisition cannot deadlock), prunes them, runs `f` over their
    /// guards, republishes every one under the stamp `f` returns, and bumps
    /// the epoch once.
    fn mutate_shards<T>(
        &self,
        idx: &[usize],
        f: impl FnOnce(&mut [RwLockWriteGuard<'_, SynthRelation>]) -> (T, Option<u64>),
    ) -> T {
        let out = {
            let mut guards: Vec<_> = idx.iter().map(|&i| self.write_shard(i)).collect();
            for &i in idx {
                self.prune_slot(i);
            }
            let (out, stamp) = f(&mut guards);
            for (&i, g) in idx.iter().zip(&guards) {
                self.publish_slot_stamped(i, g, stamp);
            }
            self.bump_epoch();
            out
        };
        for &i in idx {
            self.drain_limbo(i);
        }
        out
    }

    /// [`drain_limbo`](ConcurrentRelation::drain_limbo) across every shard.
    fn drain_all_limbo(&self) -> usize {
        (0..self.shards.len()).map(|i| self.drain_limbo(i)).sum()
    }

    /// Republishes every (already write-locked) shard as **one migration
    /// epoch**, each slot stamped with `stamp` if given: the seqlock counter
    /// is odd while the slots are being swapped, and
    /// [`read_view`](ConcurrentRelation::read_view) retries collection
    /// around odd windows — so no view ever holds a mix of pre- and
    /// post-migration shards.
    fn publish_all_migration(
        &self,
        guards: &[RwLockWriteGuard<'_, SynthRelation>],
        stamp: Option<u64>,
    ) {
        self.migration_epoch.fetch_add(1, Ordering::Release);
        for (i, g) in guards.iter().enumerate() {
            self.publish_slot_stamped(i, g, stamp);
        }
        self.bump_epoch();
        self.migration_epoch.fetch_add(1, Ordering::Release);
    }

    // -- writes -------------------------------------------------------------

    /// Applies one [`Op`]: the data form of every write method below, which
    /// all call it. Returns what [`SynthRelation::apply`] counts, summed
    /// over the shards the op touched.
    ///
    /// # Errors
    ///
    /// As for [`apply_with`](ConcurrentRelation::apply_with).
    pub fn apply(&self, op: Op) -> Result<usize, OpError> {
        self.apply_with(op, &mut ())
    }

    /// [`apply`](ConcurrentRelation::apply) with a layering client's
    /// [`WriteHook`] — the one place that decides which shards a write
    /// touches, in what order, and where it stops:
    ///
    /// * `Insert` locks its tuple's owning shard (shard 0 for a tuple that
    ///   does not bind the shard columns, which rejects it).
    /// * `InsertMany` and `BulkLoad` group the batch by owning shard without
    ///   holding any lock, then apply each group as a unit under one hold of
    ///   its shard, in index order: a batch is atomic per shard, not across
    ///   shards, and stops at the first shard that fails (earlier groups and
    ///   the failing group's accepted prefix persist).
    /// * `Remove`, `RemoveWhere` and `Update` lock one shard when the
    ///   pattern's equalities pin the shard columns; otherwise they lock
    ///   every shard, apply in index order and stop at the first error.
    /// * `RemoveMany` locks every shard, likewise.
    /// * `Migrate` parses its let-notation against the relation's catalog,
    ///   then migrates every shard as one epoch, as
    ///   [`migrate_to`](ConcurrentRelation::migrate_to) does.
    ///
    /// Every unit is applied under one continuous hold of its shards and
    /// published before they are released.
    ///
    /// # Errors
    ///
    /// The op's error from [`SynthRelation::apply`], the first a shard
    /// reports; a hook's refusal; [`OpError::ShardColumnsChanged`] for an
    /// unpinned update that would move its tuple to another shard.
    pub fn apply_with(&self, op: Op, hook: &mut impl WriteHook) -> Result<usize, OpError> {
        let n = self.shards.len();
        let pin = match op {
            Op::InsertMany(ts) => return self.apply_batch_with(ts, false, hook),
            Op::BulkLoad(ts) => return self.apply_batch_with(ts, true, hook),
            Op::Migrate(src) => {
                let d = self.read_shard(0).migrate_target(&src)?;
                if !(0..n).all(|i| hook.admits(i)) {
                    return Ok(0);
                }
                hook.prepare(&Op::Migrate(src))?;
                return Ok(self.migrate_with(d, hook).map(|()| 0)?);
            }
            Op::Insert(ref t) => Some(self.owning_shard(t)),
            Op::Remove(ref p) => self.route(p),
            Op::RemoveWhere(ref p) => route(self.shard_cols, n, |c| p.pred(c)?.as_eq()),
            Op::Update {
                ref pattern,
                ref changes,
            } => {
                let pin = self.route(pattern);
                let moved = changes.dom() & self.shard_cols;
                if pin.is_none() && n > 1 && !moved.is_empty() {
                    return Err(OpError::ShardColumnsChanged { cols: moved });
                }
                pin
            }
            Op::RemoveMany(_) => None,
        };
        match pin {
            Some(i) => self.apply_on(i, op, hook),
            None => self.apply_on_all(op, hook),
        }
    }

    /// [`apply_with`](ConcurrentRelation::apply_with) for an
    /// [`Op::BulkLoad`] (`bulk`) or [`Op::InsertMany`] batch given as an
    /// iterator, with its errors: the tuples are grouped by owning shard as
    /// they stream in, never collected into one vector first, and each
    /// group is applied as a unit.
    pub fn apply_batch_with<I: IntoIterator<Item = Tuple>>(
        &self,
        tuples: I,
        bulk: bool,
        hook: &mut impl WriteHook,
    ) -> Result<usize, OpError> {
        let unit = if bulk { Op::BulkLoad } else { Op::InsertMany };
        let mut groups: Vec<Vec<Tuple>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        for t in tuples {
            groups[self.owning_shard(&t)].push(t);
        }
        let mut inserted = 0;
        for (i, group) in groups.into_iter().enumerate() {
            if !group.is_empty() {
                inserted += self.apply_on(i, unit(group), hook)?;
            }
        }
        Ok(inserted)
    }

    /// Applies a unit to shard `i` under its hold, with the hook's part.
    fn apply_on(&self, i: usize, op: Op, hook: &mut impl WriteHook) -> Result<usize, OpError> {
        if !hook.admits(i) {
            return Ok(0);
        }
        hook.prepare(&op)?;
        self.with_shard_mut_stamped(i, |s| {
            if let Err(e) = hook.before(&op, &[&*s]) {
                return (Err(e), None);
            }
            let res = s.apply(op);
            let stamp = hook.after(&[i], res.as_ref().ok().copied());
            (res, stamp)
        })
    }

    /// Applies a unit to every admitted shard under one hold of them all,
    /// in index order, stopping at the first error.
    fn apply_on_all(&self, op: Op, hook: &mut impl WriteHook) -> Result<usize, OpError> {
        let idx: Vec<usize> = (0..self.shards.len()).filter(|&i| hook.admits(i)).collect();
        if idx.is_empty() {
            return Ok(0);
        }
        hook.prepare(&op)?;
        self.mutate_shards(&idx, |guards| {
            let held: Vec<&SynthRelation> = guards.iter().map(|g| &**g).collect();
            if let Err(e) = hook.before(&op, &held) {
                return (Err(e), None);
            }
            let res = guards
                .iter_mut()
                .try_fold(0, |n, g| Ok(n + g.apply_ref(&op)?));
            let stamp = hook.after(&idx, res.as_ref().ok().copied());
            (res, stamp)
        })
    }

    /// `insert r t`, `apply(Op::Insert(t))`: `true` if the tuple was new.
    /// Errors as for [`SynthRelation::insert`].
    pub fn insert(&self, t: Tuple) -> Result<bool, OpError> {
        Ok(self.apply(Op::Insert(t))? == 1)
    }

    /// `bulk_load`, `apply(Op::BulkLoad(..))` without collecting the
    /// batch first. Errors as for
    /// [`apply_with`](ConcurrentRelation::apply_with).
    pub fn bulk_load<I: IntoIterator<Item = Tuple>>(&self, tuples: I) -> Result<usize, OpError> {
        self.apply_batch_with(tuples, true, &mut ())
    }

    /// `remove r s`, `apply(Op::Remove(..))`. Errors as for
    /// [`SynthRelation::remove`].
    pub fn remove(&self, pattern: &Tuple) -> Result<usize, OpError> {
        self.apply(Op::Remove(pattern.clone()))
    }

    /// Number of tuples across the published shard snapshots — the
    /// [`read_view`](ConcurrentRelation::read_view)'s count, like every
    /// other read (a mutation has republished by the time it returns).
    pub fn len(&self) -> usize {
        self.read_view().len()
    }

    /// Is the relation (as published) empty?
    pub fn is_empty(&self) -> bool {
        self.read_view().is_empty()
    }

    /// Runs `f` with exclusive access to the shard owning `key`'s
    /// valuation — an atomic compound operation on one partition (e.g.
    /// read-modify-write), the analog of holding a domain lock across a
    /// client-side critical section.
    ///
    /// `key` must bind all shard columns.
    ///
    /// # Panics
    ///
    /// Panics if `key` does not bind every shard column.
    pub fn with_partition_mut<T>(&self, key: &Tuple, f: impl FnOnce(&mut SynthRelation) -> T) -> T {
        let i = self
            .route(key)
            .expect("with_partition_mut requires all shard columns bound");
        self.with_shard_mut_stamped(i, |s| (f(s), None))
    }

    // -- durability hooks ---------------------------------------------------
    //
    // A layering client (e.g. `relic_persist`'s `DurableRelation`) that logs
    // mutations takes part in every routed write through a `WriteHook`
    // (`apply_with`): it logs each unit under the hold that applies it, so
    // per-shard log order equals per-shard apply order, and stamps the
    // unit's publish with the record's sequence number — under the
    // publish-before-unlock discipline — so a checkpoint built from
    // published snapshots knows, per shard, exactly which log prefix the
    // snapshot contains (no fuzzy replay, no idempotency hacks). The
    // helpers below serve what is not a routed op: a partition's
    // read-modify-write and the rebuild of a recovered relation.

    /// The index of the shard owning tuple `t`'s shard-column valuation
    /// (shard 0 for malformed tuples that do not bind the shard columns,
    /// matching [`insert`](ConcurrentRelation::insert)'s routing).
    pub fn owning_shard(&self, t: &Tuple) -> usize {
        self.route(t).unwrap_or(0)
    }

    /// Turns FD checking on or off in every shard (see
    /// [`SynthRelation::set_fd_checking`]).
    pub fn set_fd_checking(&self, on: bool) {
        let all: Vec<usize> = (0..self.shards.len()).collect();
        self.mutate_shards(&all, |guards| {
            for g in guards.iter_mut() {
                g.set_fd_checking(on);
            }
            ((), None)
        });
    }

    /// The aggregated workload profile across all shards (read-locks every
    /// shard, so the snapshot is consistent).
    ///
    /// Per-shard counters sum: an operation that pinned the shard columns
    /// counted once in its owning shard, while an unpinned operation visited
    /// — and counted in — every shard. The aggregate therefore weights
    /// unpinned traffic by the shard count, which is exactly its relative
    /// cost under this locking discipline.
    pub fn profile(&self) -> WorkloadProfile {
        let guards = self.read_all();
        let mut p = WorkloadProfile::default();
        for g in &guards {
            p.merge(&g.profile());
        }
        p
    }

    /// Zeroes every shard's workload recorder, starting a fresh observation
    /// window (takes all read locks; the reset itself is per-shard atomic).
    pub fn reset_profile(&self) {
        for g in &self.read_all() {
            g.reset_profile();
        }
    }

    /// Migrates every shard to decomposition `d` as **one epoch**: all
    /// shard write locks are taken in index order (the crate's total lock
    /// order, so the acquisition cannot deadlock against any other
    /// whole-relation operation) and held until every shard has swapped —
    /// no reader or writer can ever observe a mix of representations.
    ///
    /// Each shard preserves its tuple set and workload profile exactly as
    /// [`SynthRelation::migrate_to`] does. If a shard's rebuild fails, the
    /// already-migrated shards are rolled back to the prior decomposition
    /// before the error is returned, so the epoch is all-or-nothing.
    ///
    /// # Errors
    ///
    /// As for [`SynthRelation::migrate_to`].
    pub fn migrate_to(&self, d: Decomposition) -> Result<(), MigrateError> {
        self.migrate_with(d, &mut ())
    }

    /// [`migrate_to`](ConcurrentRelation::migrate_to) with the hook's
    /// [`after`](WriteHook::after) called under the hold of every shard,
    /// whether the migration succeeded or not; its stamp lands on the
    /// post-migration publish.
    fn migrate_with(
        &self,
        d: Decomposition,
        hook: &mut impl WriteHook,
    ) -> Result<(), MigrateError> {
        let all: Vec<usize> = (0..self.shards.len()).collect();
        let res = {
            let mut guards = self.write_all();
            let res = Self::migrate_shards(&mut guards, d);
            let stamp = hook.after(&all, res.as_ref().ok().map(|()| 0));
            if res.is_ok() {
                // One migration epoch: all shards republished inside the
                // seqlock window, so a view is never mixed-decomposition.
                // (On error the rollback restored the published tuple set,
                // so the standing snapshots remain correct.)
                self.publish_all_migration(&guards, stamp);
            }
            res
        };
        // The retired pre-migration snapshots (the whole old
        // representation) tear down here — or on a later drain once the
        // last pinned reader refreshes — never on a reader's query path.
        self.drain_all_limbo();
        res
    }

    /// The locked core of [`migrate_to`](ConcurrentRelation::migrate_to):
    /// migrates every already-write-locked shard, rolling back on failure.
    fn migrate_shards(
        guards: &mut [RwLockWriteGuard<'_, SynthRelation>],
        d: Decomposition,
    ) -> Result<(), MigrateError> {
        let old = guards[0].decomposition().clone();
        for i in 0..guards.len() {
            if let Err(e) = guards[i].migrate_to(d.clone()) {
                for g in guards[..i].iter_mut() {
                    // The prior decomposition held these exact tuples a
                    // moment ago, so rolling back cannot fail.
                    g.migrate_to(old.clone())
                        .expect("rollback to the prior decomposition");
                }
                return Err(e);
            }
        }
        Ok(())
    }

    /// The adaptive convenience: aggregates the shards' measured workload,
    /// ranks candidate decompositions for it, and — when the best candidate
    /// beats the current representation's observed-fan-out cost by at least
    /// `min_improvement` — migrates every shard to it in one epoch (same
    /// lock discipline as [`migrate_to`](ConcurrentRelation::migrate_to);
    /// the decision and the migration happen under one continuous hold of
    /// all write locks, so the profile that justified the migration is the
    /// profile that was live when it ran).
    ///
    /// Every evaluation (migrating or not) resets the shards' recorders, so
    /// each call scores exactly one observation window and a phase shift
    /// stops being averaged against history after one window — the same
    /// sliding-window discipline as `AdaptiveRelation::retune`. Returns the
    /// estimated improvement factor when a migration happened, `None`
    /// otherwise (nothing recorded, no feasible candidate, margin not met,
    /// or the best candidate is the current decomposition).
    ///
    /// Candidate cost models are sized by the mean shard population (each
    /// shard holds roughly `len / shard_count` tuples under hash routing),
    /// and the current cost averages each shard's observed fan-outs.
    ///
    /// # Errors
    ///
    /// As for [`migrate_to`](ConcurrentRelation::migrate_to).
    pub fn recommend_and_migrate(
        &self,
        opts: &EnumerateOptions,
        min_improvement: f64,
    ) -> Result<Option<f64>, MigrateError> {
        let mut guards = self.write_all();
        let mut profile = WorkloadProfile::default();
        for g in guards.iter() {
            profile.merge(&g.profile());
        }
        if profile.is_empty() {
            return Ok(None);
        }
        let workload = Workload::from_profile(&profile);
        let spec = guards[0].spec().clone();
        let total: usize = guards.iter().map(|g| g.len()).sum();
        let per_shard = (total as f64 / guards.len() as f64).max(1.0);
        let tuner = Autotuner::new(&spec)
            .with_options(opts.clone())
            .with_relation_size(per_shard);
        let current_cost: f64 = guards
            .iter()
            .map(|g| {
                tuner.static_cost_with_model(g.decomposition(), g.observed_cost_model(), &workload)
            })
            .sum::<f64>()
            / guards.len() as f64;
        // This window has been scored; the next call observes a fresh one
        // whatever we decide below.
        for g in guards.iter() {
            g.reset_profile();
        }
        let Some(best) = tuner
            .tune_static(&workload)
            .into_iter()
            .next()
            .filter(|t| t.cost.is_finite())
        else {
            return Ok(None);
        };
        let rec = Recommendation {
            best,
            current_cost,
            workload,
        };
        if !rec.should_migrate(min_improvement)
            || rec.best.decomposition == *guards[0].decomposition()
        {
            return Ok(None);
        }
        let improvement = rec.improvement();
        Self::migrate_shards(&mut guards, rec.best.decomposition)?;
        self.publish_all_migration(&guards, None);
        drop(guards);
        self.drain_all_limbo();
        Ok(Some(improvement))
    }

    // -- reclamation introspection (see the `epoch` module) -----------------

    /// Drains every shard's limbo list past its grace period, returning the
    /// number of retired snapshots freed. Mutations drain opportunistically
    /// after releasing their locks; call this for on-demand reclamation
    /// (maintenance ticks, memory pressure, tests) — e.g. after dropping a
    /// long-held [`ReadHandle`] whose pin was blocking a chain of retired
    /// stores.
    pub fn reclaim(&self) -> usize {
        self.drain_all_limbo()
    }

    /// Estimated heap bytes parked on the limbo lists: retired snapshots
    /// whose grace period has not yet expired (typically because a pinned
    /// reader has not refreshed past their retirement). Sizes are the
    /// stores' O(1) running estimates
    /// ([`relic_core::Snapshot::store_approx_bytes`]); versions sharing
    /// structure each count in full, so this is an upper bound on what a
    /// drain can actually return to the allocator.
    pub fn limbo_bytes(&self) -> usize {
        self.limbo.iter().map(|l| l.bytes()).sum()
    }

    /// Number of retired snapshots currently parked across all limbo lists.
    pub fn limbo_len(&self) -> usize {
        self.limbo.iter().map(|l| l.len()).sum()
    }

    /// How far the slowest pinned reader lags the newest published state,
    /// in per-shard publish epochs (the maximum over shards of
    /// `shard_epoch - min pinned epoch`; 0 with no pinned readers). A large
    /// or growing lag means some [`ReadHandle`] is not refreshing and its
    /// pins are holding retired snapshots in limbo.
    pub fn pinned_epoch_lag(&self) -> u64 {
        (0..self.shards.len())
            .map(|i| {
                let min = self.registry.min_pinned(i);
                if min == epoch::UNPINNED {
                    0
                } else {
                    self.shard_epochs[i]
                        .load(Ordering::Acquire)
                        .saturating_sub(min)
                }
            })
            .max()
            .unwrap_or(0)
    }

    /// One coherent snapshot of the reclamation-pressure gauges
    /// ([`limbo_bytes`](ConcurrentRelation::limbo_bytes),
    /// [`limbo_len`](ConcurrentRelation::limbo_len),
    /// [`pinned_epoch_lag`](ConcurrentRelation::pinned_epoch_lag)) — the
    /// per-worker admission-control probe of a serving front end, which
    /// wants all three without three separate shard walks.
    pub fn pressure(&self) -> MemoryPressure {
        let (mut bytes, mut len) = (0usize, 0usize);
        for l in self.limbo.iter() {
            bytes += l.bytes();
            len += l.len();
        }
        MemoryPressure {
            limbo_bytes: bytes,
            limbo_len: len,
            pinned_epoch_lag: self.pinned_epoch_lag(),
        }
    }

    /// A consistent snapshot of the whole relation as a reference
    /// [`Relation`]: the union of every shard's abstraction function α
    /// (read-locks every shard for the duration). The **test oracle**, not
    /// a scan (see [`SynthRelation::to_relation`]); production readers
    /// stream a [`read_view`](ConcurrentRelation::read_view) through
    /// [`ReadView::scan_all`].
    pub fn to_relation(&self) -> Relation {
        let guards = self.read_all();
        let mut out = Relation::empty(self.cols);
        for g in &guards {
            for t in g.to_relation().iter() {
                out.insert(t.clone());
            }
        }
        out
    }

    /// Validates every shard's instance against Fig. 5 well-formedness (for
    /// tests).
    ///
    /// # Errors
    ///
    /// The first shard's failure message, if any shard is ill-formed.
    pub fn validate(&self) -> Result<(), String> {
        for (i, g) in self.read_all().iter().enumerate() {
            g.validate().map_err(|e| format!("shard {i}: {e}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relic_core::RelRead;
    use relic_decomp::parse;
    use relic_spec::{Pattern, Pred};

    fn setup(shards: usize) -> (Catalog, ConcurrentRelation) {
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
        let r = ConcurrentRelation::new(&cat, spec, d, host.set(), shards).unwrap();
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
    fn concurrent_relation_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ConcurrentRelation>();
    }

    #[test]
    fn build_rejects_bad_inputs() {
        let (cat, _) = setup(4);
        let mut cat2 = cat.clone();
        let alien = cat2.intern("alien");
        let d = parse(
            &mut Catalog::new(),
            "let u : {a} . {} = unit {} in let x : {} . {a} = {a} -[htable]-> u in x",
        );
        // Columns from a different catalog -> foreign shard columns.
        let mut cat3 = Catalog::new();
        let d3 = parse(
            &mut cat3,
            "let u : {a} . {} = unit {} in let x : {} . {a} = {a} -[htable]-> u in x",
        )
        .unwrap();
        let spec3 = RelSpec::new(cat3.all());
        let err =
            ConcurrentRelation::new(&cat3, spec3.clone(), d3.clone(), alien.set(), 2).unwrap_err();
        assert!(matches!(
            err,
            ConcurrentBuildError::ForeignShardColumns { .. }
        ));
        let err = ConcurrentRelation::new(&cat3, spec3, d3, ColSet::EMPTY, 0).unwrap_err();
        assert!(matches!(err, ConcurrentBuildError::ZeroShards));
        let _ = d;
    }

    #[test]
    fn sequential_ops_agree_with_reference() {
        let (cat, r) = setup(4);
        let host = cat.col("host").unwrap();
        let ts = cat.col("ts").unwrap();
        let bytes = cat.col("bytes").unwrap();
        let mut m = Relation::empty(cat.all());
        for h in 0..6i64 {
            for t in 0..10i64 {
                let tu = tup(&cat, h, t, h + t);
                r.insert(tu.clone()).unwrap();
                m.insert(tu);
            }
        }
        assert_eq!(r.len(), m.len());
        let view = r.read_view();
        // Pinned query (single shard).
        let pat = Tuple::from_pairs([(host, Value::from(3))]);
        assert_eq!(
            view.query(&pat, ts | bytes).unwrap(),
            m.query(&pat, ts | bytes)
        );
        // Unpinned query (all shards, merged + sorted).
        let pat = Tuple::from_pairs([(ts, Value::from(7))]);
        assert_eq!(
            view.query(&pat, host | bytes).unwrap(),
            m.query(&pat, host | bytes)
        );
        // Unpinned remove crosses shards.
        let n = r.remove(&pat).unwrap();
        assert_eq!(n, m.remove(&pat));
        // Pinned update.
        let key = Tuple::from_pairs([(host, Value::from(2)), (ts, Value::from(3))]);
        let chg = Tuple::from_pairs([(bytes, Value::from(99))]);
        let update = Op::Update {
            pattern: key.clone(),
            changes: chg.clone(),
        };
        assert_eq!(r.apply(update).unwrap(), 1);
        m.update(&key, &chg);
        assert_eq!(r.to_relation(), m);
        r.validate().unwrap();
    }

    /// Sharded by the payload, an update keyed by `(host, ts)` that
    /// rewrites the payload would leave its tuple in the old payload's
    /// shard, where pinned reads no longer look: it is refused, and
    /// nothing changes.
    #[test]
    fn an_update_may_not_move_a_tuple_across_shards() {
        let (cat, _) = setup(1);
        let bytes = cat.col("bytes").unwrap();
        let mut cat2 = cat.clone();
        let d = parse(
            &mut cat2,
            "let u : {host,ts} . {bytes} = unit {bytes} in
             let x : {} . {host,ts,bytes} = {host,ts} -[htable]-> u in x",
        )
        .unwrap();
        let spec = RelSpec::new(cat.all()).with_fd(cat.all() - bytes.set(), bytes.set());
        let r = ConcurrentRelation::new(&cat, spec, d, bytes.set(), 4).unwrap();
        r.insert(tup(&cat, 1, 1, 10)).unwrap();
        let before = r.to_relation();
        let update = Op::Update {
            pattern: tup(&cat, 1, 1, 10).project(cat.all() - bytes.set()),
            changes: Tuple::from_pairs([(bytes, Value::from(11))]),
        };
        assert_eq!(
            r.apply(update),
            Err(OpError::ShardColumnsChanged { cols: bytes.set() })
        );
        assert_eq!(r.to_relation(), before);
    }

    #[test]
    fn range_queries_cross_shards() {
        let (cat, r) = setup(3);
        let host = cat.col("host").unwrap();
        let ts = cat.col("ts").unwrap();
        let mut m = Relation::empty(cat.all());
        for h in 0..5i64 {
            for t in 0..20i64 {
                let tu = tup(&cat, h, t, t % 4);
                r.insert(tu.clone()).unwrap();
                m.insert(tu);
            }
        }
        let view = r.read_view();
        let p = Pattern::new().with(ts, Pred::Between(Value::from(5), Value::from(8)));
        assert_eq!(
            view.query_where(&p, host | ts).unwrap(),
            m.query_where(&p, host | ts)
        );
        let p = Pattern::new()
            .with(host, Pred::Eq(Value::from(1)))
            .with(ts, Pred::Ge(Value::from(17)));
        assert_eq!(
            view.query_where(&p, ts.set()).unwrap(),
            m.query_where(&p, ts.set())
        );
    }

    #[test]
    fn bulk_load_groups_by_shard_and_matches_per_tuple_inserts() {
        let (cat, bulk) = setup(4);
        let (_, loop_rel) = setup(4);
        let tuples: Vec<Tuple> = (0..8i64)
            .flat_map(|h| (0..25i64).map(move |t| (h, t)))
            .map(|(h, t)| tup(&cat, h, t, h + t))
            .collect();
        let n = bulk.bulk_load(tuples.clone()).unwrap();
        assert_eq!(n, 200);
        for t in tuples {
            loop_rel.insert(t).unwrap();
        }
        assert_eq!(bulk.to_relation(), loop_rel.to_relation());
        assert_eq!(bulk.len(), 200);
        bulk.validate().unwrap();
        // Duplicates across a second batch are no-ops; new tuples count.
        let n = bulk
            .apply(Op::InsertMany(vec![
                tup(&cat, 0, 0, 0),
                tup(&cat, 99, 0, 7),
            ]))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(bulk.len(), 201);
    }

    #[test]
    fn bulk_load_reports_shard_errors() {
        let (cat, r) = setup(2);
        r.insert(tup(&cat, 1, 1, 5)).unwrap();
        // Same (host, ts) key, different bytes: an FD violation inside the
        // owning shard.
        let err = r
            .bulk_load(vec![tup(&cat, 2, 2, 2), tup(&cat, 1, 1, 6)])
            .unwrap_err();
        assert!(matches!(err, OpError::FdViolation { .. }));
        // The clean tuple persists (per-shard atomicity).
        assert!(r.to_relation().contains(&tup(&cat, 2, 2, 2)));
        r.validate().unwrap();
    }

    #[test]
    fn concurrent_bulk_loads_on_disjoint_shards() {
        let (cat, r) = setup(8);
        std::thread::scope(|s| {
            for h in 0..8i64 {
                let r = &r;
                let cat = &cat;
                s.spawn(move || {
                    let batch: Vec<Tuple> = (0..100i64).map(|t| tup(cat, h, t, t % 5)).collect();
                    assert_eq!(r.bulk_load(batch).unwrap(), 100);
                });
            }
        });
        assert_eq!(r.len(), 800);
        r.validate().unwrap();
    }

    #[test]
    fn profile_aggregates_across_shards() {
        let (cat, r) = setup(4);
        let host = cat.col("host").unwrap();
        let ts = cat.col("ts").unwrap();
        let bytes = cat.col("bytes").unwrap();
        for h in 0..8i64 {
            r.insert(tup(&cat, h, 1, 0)).unwrap();
        }
        // Pinned query: counted once, in one shard.
        let view = r.read_view();
        view.query(&Tuple::from_pairs([(host, Value::from(3))]), ts | bytes)
            .unwrap();
        // Unpinned query: counted once per shard it visited.
        view.query(&Tuple::from_pairs([(ts, Value::from(1))]), host | bytes)
            .unwrap();
        let p = r.profile();
        assert_eq!(p.inserts, 8);
        let pinned = p
            .queries
            .iter()
            .find(|&&(a, _, _, _)| a == host.set())
            .unwrap();
        assert_eq!(pinned.3, 1);
        let unpinned = p
            .queries
            .iter()
            .find(|&&(a, _, _, _)| a == ts.set())
            .unwrap();
        assert_eq!(unpinned.3, 4, "unpinned traffic weighs in every shard");
        r.reset_profile();
        assert!(r.profile().is_empty());
    }

    #[test]
    fn migrate_to_swaps_every_shard_in_one_epoch() {
        let (mut cat, r) = setup(4);
        for h in 0..12i64 {
            for t in 0..6i64 {
                r.insert(tup(&cat, h, t, h * t)).unwrap();
            }
        }
        let before = r.to_relation();
        let flat = parse(
            &mut cat,
            "let u : {host,ts} . {bytes} = unit {bytes} in
             let x : {} . {host,ts,bytes} = {host,ts} -[avl]-> u in x",
        )
        .unwrap();
        r.migrate_to(flat.clone()).unwrap();
        assert_eq!(r.to_relation(), before);
        r.validate().unwrap();
        // Every shard swapped; the relation keeps operating.
        let view = r.read_view();
        for i in 0..view.shard_count() {
            assert_eq!(view.shard(i).decomposition(), &flat);
        }
        r.insert(tup(&cat, 99, 0, 1)).unwrap();
        assert_eq!(r.len(), 73);
        r.validate().unwrap();
    }

    #[test]
    fn recommend_and_migrate_reacts_to_a_phase_shift() {
        use relic_decomp::DsKind;
        // Start from a representation hashed flat on the full key — ideal
        // for pinned point reads, mismatched for the by-ts phase below.
        let mut cat = Catalog::new();
        let d = parse(
            &mut cat,
            "let u : {host,ts} . {bytes} = unit {bytes} in
             let x : {} . {host,ts,bytes} = {host,ts} -[htable]-> u in x",
        )
        .unwrap();
        let host = cat.col("host").unwrap();
        let ts = cat.col("ts").unwrap();
        let bytes = cat.col("bytes").unwrap();
        let spec = RelSpec::new(cat.all()).with_fd(host | ts, bytes.set());
        let r = ConcurrentRelation::new(&cat, spec, d, host.set(), 4).unwrap();
        for h in 0..16i64 {
            for t in 0..32i64 {
                r.insert(tup(&cat, h, t, h + t)).unwrap();
            }
        }
        let opts = EnumerateOptions {
            max_edges: 2,
            structures: vec![DsKind::HashTable, DsKind::AvlTree],
            ..Default::default()
        };
        // Nothing recorded yet.
        r.reset_profile();
        assert!(r.recommend_and_migrate(&opts, 1.5).unwrap().is_none());
        // A by-ts phase: unpinned window queries and removals.
        for t in 0..12i64 {
            r.read_view()
                .query(&Tuple::from_pairs([(ts, Value::from(t))]), host | bytes)
                .unwrap();
        }
        for t in 0..4i64 {
            r.remove(&Tuple::from_pairs([(ts, Value::from(t))]))
                .unwrap();
        }
        let before = r.to_relation();
        let improvement = r
            .recommend_and_migrate(&opts, 1.5)
            .unwrap()
            .expect("mismatched representation must migrate");
        assert!(improvement >= 1.5);
        assert_eq!(r.to_relation(), before, "migration preserves the tuples");
        r.validate().unwrap();
        // Recorders were reset for the next window.
        assert!(r.profile().is_empty());
        // The same phase no longer triggers churn — and a declined
        // evaluation still consumes its observation window, so old-phase
        // traffic can never dilute a later shift.
        for t in 4..12i64 {
            r.read_view()
                .query(&Tuple::from_pairs([(ts, Value::from(t))]), host | bytes)
                .unwrap();
            r.remove(&Tuple::from_pairs([(ts, Value::from(t))]))
                .unwrap();
        }
        assert!(r.recommend_and_migrate(&opts, 1.5).unwrap().is_none());
        assert!(
            r.profile().is_empty(),
            "declined evaluation keeps its window"
        );
        r.validate().unwrap();
    }

    #[test]
    fn is_empty_short_circuits() {
        let (cat, r) = setup(4);
        assert!(r.is_empty());
        r.insert(tup(&cat, 3, 1, 0)).unwrap();
        assert!(!r.is_empty());
        r.remove(&Tuple::from_pairs([
            (cat.col("host").unwrap(), Value::from(3)),
            (cat.col("ts").unwrap(), Value::from(1)),
        ]))
        .unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn with_partition_mut_is_atomic_rmw() {
        let (cat, r) = setup(4);
        let host = cat.col("host").unwrap();
        let ts = cat.col("ts").unwrap();
        let bytes = cat.col("bytes").unwrap();
        r.insert(tup(&cat, 1, 1, 0)).unwrap();
        let key = Tuple::from_pairs([(host, Value::from(1)), (ts, Value::from(1))]);
        // 8 threads × 50 increments, each a locked read-modify-write.
        std::thread::scope(|s| {
            for _ in 0..8 {
                let r = &r;
                let key = key.clone();
                s.spawn(move || {
                    for _ in 0..50 {
                        r.with_partition_mut(&key, |shard| {
                            let cur = shard.query(&key, bytes.set()).unwrap()[0]
                                .get(bytes)
                                .and_then(|v| v.as_int())
                                .unwrap();
                            let chg = Tuple::from_pairs([(bytes, Value::from(cur + 1))]);
                            shard.update(&key, &chg).unwrap();
                        });
                    }
                });
            }
        });
        let got = r.read_view().query(&key, bytes.set()).unwrap()[0]
            .get(bytes)
            .and_then(|v| v.as_int())
            .unwrap();
        assert_eq!(got, 400, "all increments must survive");
    }

    #[test]
    fn concurrent_disjoint_writers_preserve_all_tuples() {
        let (cat, r) = setup(8);
        std::thread::scope(|s| {
            for h in 0..8i64 {
                let r = &r;
                let cat = &cat;
                s.spawn(move || {
                    for t in 0..200i64 {
                        r.insert(tup(cat, h, t, t % 9)).unwrap();
                    }
                    // Interleave some removals on this thread's own host.
                    for t in (0..200i64).step_by(4) {
                        let pat = Tuple::from_pairs([
                            (cat.col("host").unwrap(), Value::from(h)),
                            (cat.col("ts").unwrap(), Value::from(t)),
                        ]);
                        assert_eq!(r.remove(&pat).unwrap(), 1);
                    }
                });
            }
        });
        assert_eq!(r.len(), 8 * (200 - 50));
        r.validate().unwrap();
    }

    #[test]
    fn readers_run_against_writers_without_corruption() {
        let (cat, r) = setup(4);
        let host = cat.col("host").unwrap();
        let ts = cat.col("ts").unwrap();
        std::thread::scope(|s| {
            for h in 0..4i64 {
                let r = &r;
                let cat = &cat;
                s.spawn(move || {
                    for t in 0..300i64 {
                        r.insert(tup(cat, h, t, t)).unwrap();
                    }
                });
            }
            // Concurrent readers: counts are monotonic per host and never
            // exceed the writer's total.
            for h in 0..4i64 {
                let r = &r;
                s.spawn(move || {
                    let mut last = 0usize;
                    for _ in 0..50 {
                        let pat = Tuple::from_pairs([(host, Value::from(h))]);
                        let full = r.read_view().query(&pat, ts.set()).unwrap().len();
                        assert!(full >= last && full <= 300);
                        last = full;
                    }
                });
            }
        });
        assert_eq!(r.len(), 1200);
        r.validate().unwrap();
    }
}
