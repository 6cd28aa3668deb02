//! Wait-free snapshot reads: per-shard epoch-published [`Snapshot`]s, the
//! [`ReadView`] taken from them, and the cached [`ReadHandle`].
//!
//! # Design
//!
//! Every shard of a [`ConcurrentRelation`] *publishes* an immutable
//! [`Snapshot`] of itself after each mutation epoch (a single mutation, or
//! one shard's slice of a batch): the writer, still holding the shard's
//! write lock, swaps an `Arc<Snapshot>` into the shard's publish slot. The
//! snapshot shares the shard's instance store structurally (the store is a
//! persistent chunked structure — see [`SynthRelation::snapshot`]), so
//! publishing is O(1) and a snapshot-holding reader costs the writer only
//! path-copies of the instances it actually touches, not a store clone per
//! epoch. Replaced snapshots still referenced by readers are *retired*
//! onto per-shard limbo lists and torn down writer-side after a grace
//! period (see the [`crate::epoch`] module); mutations while no reader
//! holds a view stay fully in place — the writer *prunes* an unreferenced
//! published snapshot before mutating.
//!
//! Readers never take a shard lock:
//!
//! * [`ConcurrentRelation::read_view`] collects each shard's published
//!   `Arc` under the publish slot's latch — a critical section of one
//!   reference-count increment, never held across a shard mutation.
//! * A [`ReadHandle`] caches the view and re-collects only when the
//!   relation's epoch counter has moved. In the steady state a query
//!   through a handle costs **one relaxed-consistency atomic load** on top
//!   of the snapshot query itself: no lock, no reference-count traffic, no
//!   waiting on writers — wait-free in the practical sense that no reader
//!   step can be blocked or retried because of a writer's progress. (The
//!   only loop on the read side is the migration seqlock below, which
//!   retries a view *collection* — not a query — while a migration's
//!   publish burst is in flight.)
//!
//! # Consistency
//!
//! Each shard's snapshot is a committed, per-shard-atomic state: a batch
//! applied to a shard is visible either not at all or in full, because the
//! publish happens after the shard's whole slice of the batch under the
//! same write-lock hold. Across shards a view is *per-shard consistent*
//! (shard A's snapshot may be one epoch fresher than shard B's — the same
//! granularity the locked batch API already exposes), with one exception:
//! **migration epochs are atomic across the whole view.** A
//! [`migrate_to`](ConcurrentRelation::migrate_to) publishes all shards
//! inside a seqlock window and `read_view` retries collection around it, so
//! every view holds shards of exactly one decomposition — readers that took
//! their view before the migration keep answering from the pre-migration
//! representation, views taken after are entirely post-migration, and no
//! view ever mixes the two.
//!
//! [`SynthRelation::snapshot`]: relic_core::SynthRelation::snapshot

use crate::ConcurrentRelation;
use relic_core::{Bindings, OpError, RelRead, Snapshot};
use relic_spec::{ColId, ColSet, Pattern, RelSpec, Relation, Tuple, Value};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A consistent per-shard snapshot vector: one frozen [`Snapshot`] per
/// shard, all of the same decomposition (migration epochs are atomic across
/// the view), each individually a committed per-shard state.
///
/// A view is fully detached from the relation: queries against it never
/// touch a lock, never block, and keep answering from the captured state
/// even while writers mutate or migrate the live relation. It reads
/// through [`RelRead`]: a query whose pattern pins the shard columns (for a
/// comparison pattern, whose *equality part* does) visits exactly one
/// shard's snapshot; any other visits every shard in turn.
#[derive(Debug, Clone)]
pub struct ReadView {
    pub(crate) shards: Vec<Arc<Snapshot>>,
    pub(crate) shard_cols: ColSet,
    pub(crate) epoch: u64,
    /// The per-shard publish epochs the slots were collected at, so a
    /// [`ReadHandle`] can refresh exactly the shard a pinned query routes
    /// to.
    pub(crate) shard_epochs: Vec<u64>,
    /// The per-shard writer stamps collected atomically with the
    /// snapshots (see
    /// [`with_shard_mut_stamped`](ConcurrentRelation::with_shard_mut_stamped)).
    pub(crate) shard_stamps: Vec<u64>,
}

impl ReadView {
    /// The publish epoch this view was collected at (monotonic; used by
    /// [`ReadHandle`] to detect staleness).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of shard snapshots in the view.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The columns tuples are routed by.
    pub fn shard_cols(&self) -> ColSet {
        self.shard_cols
    }

    /// The frozen snapshot of shard `i`.
    pub fn shard(&self, i: usize) -> &Snapshot {
        &self.shards[i]
    }

    /// Shard `i`'s writer stamp: the opaque `u64` the last *stamped*
    /// publish attached to the shard's snapshot (0 if none ever was). The
    /// durability layer stamps each publish with the shard's last logged
    /// write-ahead sequence number, making `(shard(i), shard_stamp(i))` a
    /// consistent pair — shard `i`'s snapshot contains exactly the logged
    /// ops with sequence ≤ the stamp.
    pub fn shard_stamp(&self, i: usize) -> u64 {
        self.shard_stamps[i]
    }

    /// The shard snapshots a read must visit: the owning one when `eq` —
    /// the read's equality constraints — pins the shard columns, all of
    /// them otherwise.
    fn targets<'v>(&self, eq: impl Fn(ColId) -> Option<&'v Value>) -> &[Arc<Snapshot>] {
        match crate::route(self.shard_cols, self.shards.len(), eq) {
            Some(i) => &self.shards[i..=i],
            None => &self.shards,
        }
    }

    /// The raw zero-allocation streaming path
    /// ([`RelRead::query_for_each_bindings`]): the wait-free analog of
    /// [`relic_core::SynthRelation::query_for_each_bindings`], routed to the
    /// owning shard's snapshot for a pinned pattern and streamed shard by
    /// shard otherwise.
    ///
    /// # Errors
    ///
    /// As for [`RelRead::query_for_each_bindings`].
    pub fn query_for_each_bindings(
        &self,
        scratch: &mut Bindings,
        pattern: &Tuple,
        out: ColSet,
        mut f: impl FnMut(&Bindings),
    ) -> Result<(), OpError> {
        for s in self.targets(|c| pattern.get(c)) {
            s.query_for_each_bindings(scratch, pattern, out, &mut f)?;
        }
        Ok(())
    }

    /// Number of tuples across the view's shard snapshots.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Is the view empty?
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty())
    }

    /// Streams every tuple of the view through `f`, each exactly once, as
    /// a full valuation — shard by shard through
    /// [`Snapshot::scan_all`] (shards partition the relation, so no tuple
    /// repeats across them). Linear, lock-free, allocation-free per tuple
    /// with a reused `scratch`, and unrecorded in the workload profile:
    /// the one entry point every whole-relation reader shares (checkpoints,
    /// flow reports, the recovery-time address probe).
    ///
    /// # Errors
    ///
    /// As for [`Snapshot::scan_all`].
    pub fn scan_all(
        &self,
        scratch: &mut Bindings,
        mut f: impl FnMut(&Bindings),
    ) -> Result<(), OpError> {
        for s in &self.shards {
            s.scan_all(scratch, &mut f)?;
        }
        Ok(())
    }

    /// The whole view as a reference [`Relation`]: the union of every
    /// shard's abstraction function α. The **test oracle**, not a scan
    /// (see [`Snapshot::to_relation`]); production readers use
    /// [`scan_all`](ReadView::scan_all).
    pub fn to_relation(&self) -> Relation {
        let cols = self.shards[0].spec().cols();
        let mut out = Relation::empty(cols);
        for s in &self.shards {
            for t in s.to_relation().iter() {
                out.insert(t.clone());
            }
        }
        out
    }
}

impl RelRead for ReadView {
    fn spec(&self) -> &RelSpec {
        self.shards[0].spec()
    }

    fn len(&self) -> usize {
        ReadView::len(self)
    }

    fn query_for_each_bindings(
        &self,
        scratch: &mut Bindings,
        pattern: &Tuple,
        out: ColSet,
        f: impl FnMut(&Bindings),
    ) -> Result<(), OpError> {
        ReadView::query_for_each_bindings(self, scratch, pattern, out, f)
    }

    /// Routed to one shard when the equality part of `pattern` pins the
    /// shard columns — what a streaming join executor runs its durable legs
    /// through.
    fn query_where_for_each_bindings(
        &self,
        scratch: &mut Bindings,
        pattern: &Pattern,
        out: ColSet,
        mut f: impl FnMut(&Bindings),
    ) -> Result<(), OpError> {
        for s in self.targets(|c| pattern.pred(c)?.as_eq()) {
            s.query_where_for_each_bindings(scratch, pattern, out, &mut f)?;
        }
        Ok(())
    }
}

/// A cursor that keeps a [`ReadView`] fresh: the steady-state wait-free
/// read path.
///
/// The handle answers nothing itself — it hands out its cached view
/// ([`cached`](ReadHandle::cached), no staleness check), the view
/// re-collected if anything was published since
/// ([`view`](ReadHandle::view)), or the view made fresh *for one read*
/// ([`fresh_for`](ReadHandle::fresh_for)): a **pinned** read (its equality
/// constraints bind all shard columns) re-checks only the shard it routes
/// to — one `Acquire` load when that shard did not move, no locks and no
/// `Arc` traffic at all, regardless of write activity on *other* shards —
/// and any other read gets the coherent `view()`. Queries then go through
/// the view's [`RelRead`] methods. Each reader thread owns its handle
/// (`ReadHandle` is `Send` but, like any cached cursor, not meant to be
/// shared).
///
/// After a pinned refresh the cached vector holds shards of mixed recency
/// (visible through `cached()`; a pinned read touches one shard, so it
/// never sees the mix); the next unpinned access re-collects a coherent
/// view, and migration epochs stay atomic because they bump every epoch
/// counter at once.
#[derive(Debug)]
pub struct ReadHandle<'a> {
    rel: &'a ConcurrentRelation,
    view: ReadView,
    /// This reader's epoch pins, one per shard (see the [`crate::epoch`]
    /// module): registered at handle creation, re-stored on every
    /// view/shard refresh, cleared on drop. While a pin holds an epoch,
    /// writers keep every snapshot retired at or after it on the limbo
    /// list instead of tearing it down — so reclamation cost never lands
    /// on this reader, and a dropped (or refreshed) handle is what lets
    /// the retired chain drain.
    slot: Arc<crate::epoch::ReaderSlot>,
}

impl<'a> ReadHandle<'a> {
    pub(crate) fn new(rel: &'a ConcurrentRelation) -> Self {
        let view = rel.read_view();
        let slot = rel.registry.register();
        let handle = ReadHandle { rel, view, slot };
        handle.pin_all();
        handle
    }

    /// Stores every shard's collected epoch into this reader's pins.
    fn pin_all(&self) {
        for (i, &e) in self.view.shard_epochs.iter().enumerate() {
            self.slot.pin(i, e);
        }
    }

    /// The freshest coherent view, re-collected only if a publish happened
    /// since the cached one (one `Acquire` load when nothing changed).
    /// Re-collection advances this reader's epoch pins, releasing retired
    /// snapshots the old view was keeping on limbo.
    pub fn view(&mut self) -> &ReadView {
        if self.rel.epoch_now() != self.view.epoch {
            self.view = self.rel.read_view();
            self.pin_all();
        }
        &self.view
    }

    /// The cached view, without any staleness check — the strictly
    /// wait-free path (the view may lag the relation by design).
    pub fn cached(&self) -> &ReadView {
        &self.view
    }

    /// Refreshes the cached slot of shard `i` iff its publish epoch moved,
    /// advancing the shard's pin with it (the other shards' pins stay — the
    /// handle still holds their older snapshots).
    fn refresh_shard(&mut self, i: usize) {
        let e = self.rel.shard_epoch_now(i);
        if e != self.view.shard_epochs[i] {
            let (snap, stamp) = self.rel.shard_view(i);
            self.view.shards[i] = snap;
            self.view.shard_stamps[i] = stamp;
            self.view.shard_epochs[i] = e;
            self.slot.pin(i, e);
        }
    }

    /// The view, fresh for one read whose equality constraints are `eq`
    /// (`|c| pattern.get(c)` for a tuple pattern, `|c|
    /// pattern.pred(c)?.as_eq()` for a comparison pattern): if they pin the
    /// shard columns only the owning shard is re-checked, otherwise this is
    /// [`view`](ReadHandle::view).
    pub fn fresh_for<'v>(&mut self, eq: impl Fn(ColId) -> Option<&'v Value>) -> &ReadView {
        match crate::route(self.view.shard_cols, self.view.shards.len(), eq) {
            Some(i) => {
                self.refresh_shard(i);
                &self.view
            }
            None => self.view(),
        }
    }

    /// [`ReadView::query_for_each_bindings`] on the view
    /// [fresh for](ReadHandle::fresh_for) `pattern` — the raw
    /// zero-allocation point-read path.
    ///
    /// # Errors
    ///
    /// As for [`ReadView::query_for_each_bindings`].
    pub fn query_for_each_bindings(
        &mut self,
        scratch: &mut Bindings,
        pattern: &Tuple,
        out: ColSet,
        f: impl FnMut(&Bindings),
    ) -> Result<(), OpError> {
        self.fresh_for(|c| pattern.get(c))
            .query_for_each_bindings(scratch, pattern, out, f)
    }

    /// [`RelRead::query_where_for_each_bindings`] on the view
    /// [fresh for](ReadHandle::fresh_for) `pattern`'s equality part — the
    /// raw zero-allocation path for comparison queries.
    ///
    /// # Errors
    ///
    /// As for [`RelRead::query_where_for_each_bindings`].
    pub fn query_where_for_each_bindings(
        &mut self,
        scratch: &mut Bindings,
        pattern: &Pattern,
        out: ColSet,
        f: impl FnMut(&Bindings),
    ) -> Result<(), OpError> {
        self.fresh_for(|c| pattern.pred(c)?.as_eq())
            .query_where_for_each_bindings(scratch, pattern, out, f)
    }

    /// [`ReadView::len`] on the fresh coherent view.
    pub fn len(&mut self) -> usize {
        self.view().len()
    }

    /// Is the fresh view empty?
    pub fn is_empty(&mut self) -> bool {
        self.view().is_empty()
    }
}

impl Drop for ReadHandle<'_> {
    fn drop(&mut self) {
        // Release every pin so retired snapshots this handle was holding in
        // limbo become reclaimable at the next drain. (The snapshots the
        // handle itself held are released by the `ReadView` drop; `Arc`
        // sharing keeps any still-referenced state alive regardless.)
        self.slot.unpin_all();
    }
}

impl ConcurrentRelation {
    /// The current publish epoch (monotonic; bumped on every publish).
    pub(crate) fn epoch_now(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Shard `i`'s publish epoch (monotonic; bumped per slot swap).
    pub(crate) fn shard_epoch_now(&self, i: usize) -> u64 {
        self.shard_epochs[i].load(Ordering::Acquire)
    }

    /// Collects a [`ReadView`]: each shard's currently published snapshot,
    /// without taking any shard lock. Retries collection around a
    /// migration's publish burst (seqlock), so the returned view never
    /// mixes decompositions.
    pub fn read_view(&self) -> ReadView {
        loop {
            let m1 = self.migration_epoch.load(Ordering::Acquire);
            if m1 % 2 == 1 {
                // A migration is publishing right now; its window is a few
                // Arc swaps.
                std::hint::spin_loop();
                continue;
            }
            let epoch = self.epoch.load(Ordering::Acquire);
            let mut shards = Vec::with_capacity(self.shards.len());
            let mut shard_epochs = Vec::with_capacity(self.shards.len());
            let mut shard_stamps = Vec::with_capacity(self.shards.len());
            for i in 0..self.shards.len() {
                // Epoch first, slot second: a publish racing in between
                // leaves the recorded epoch *behind* the collected snapshot,
                // which costs one redundant refresh later — never a missed
                // one.
                shard_epochs.push(self.shard_epoch_now(i));
                let (snap, stamp) = self.shard_view(i);
                shards.push(snap);
                shard_stamps.push(stamp);
            }
            if self.migration_epoch.load(Ordering::Acquire) == m1 {
                return ReadView {
                    shards,
                    shard_cols: self.shard_cols(),
                    epoch,
                    shard_epochs,
                    shard_stamps,
                };
            }
        }
    }

    /// A cached [`ReadHandle`] for a reader thread: collects one view now,
    /// then refreshes only when the epoch moves.
    pub fn read_handle(&self) -> ReadHandle<'_> {
        ReadHandle::new(self)
    }

    /// Shard `i`'s published writer stamp — the sequence number of the last
    /// logged operation the shard's visible state contains (0 if the shard
    /// was never stamped). Lock-free: reads the publish slot only.
    pub fn shard_stamp(&self, i: usize) -> u64 {
        self.shard_view(i).1
    }

    /// Every shard's published writer stamp, in shard order — the catch-up
    /// cursor vector replication followers resume from: shard `i`'s state
    /// contains exactly the logged operations with `seq <=
    /// shard_stamps()[i]`, so re-applying a shipped tail through the
    /// watermark-checked replay is idempotent from any crash point.
    ///
    /// Stamps are collected per shard without a cross-shard barrier; a
    /// concurrent writer may land between reads. That skew is harmless for
    /// catch-up (the minimum is a safe resume point) but means the vector
    /// is not a consistent cut — use [`read_view`](Self::read_view) when
    /// one is needed.
    pub fn shard_stamps(&self) -> Vec<u64> {
        (0..self.shard_count())
            .map(|i| self.shard_stamp(i))
            .collect()
    }

    /// Shard `i`'s published snapshot and its writer stamp (read together
    /// under the slot's latch, so the pair is always consistent). The
    /// snapshot is `None` only inside a writer's prune→publish window; the
    /// fallback waits that writer out on the shard's read lock (the one
    /// place a reader can touch it) and re-reads the slot the writer
    /// republished.
    fn shard_view(&self, i: usize) -> (Arc<Snapshot>, u64) {
        {
            let slot = self.slot_read(i);
            if let Some(s) = slot.snap.as_ref() {
                return (Arc::clone(s), slot.stamp);
            }
        }
        let shard = self.read_shard(i);
        let slot = self.slot_read(i);
        if let Some(s) = slot.snap.as_ref() {
            return (Arc::clone(s), slot.stamp);
        }
        // Unreachable in practice: every mutation republishes before
        // releasing its write lock. Build directly rather than panic.
        (Arc::new(shard.snapshot()), slot.stamp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relic_core::{Op, SynthRelation};
    use relic_decomp::parse;
    use relic_spec::{Catalog, Pred, RelSpec, Value};
    use std::collections::BTreeSet;

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
    fn where_bindings_stream_matches_collected_query_where() {
        let (cat, r) = setup(4);
        let host = cat.col("host").unwrap();
        let ts = cat.col("ts").unwrap();
        let bytes = cat.col("bytes").unwrap();
        for h in 0..5i64 {
            for t in 0..8i64 {
                r.insert(tup(&cat, h, t, h * 10 + t)).unwrap();
            }
        }
        let mut scratch = Bindings::new();
        for p in [
            // Pinned: equality on the shard column + a range.
            Pattern::new()
                .with(host, Pred::Eq(Value::from(2)))
                .with(ts, Pred::Between(Value::from(1), Value::from(5))),
            // Unpinned: range only, streamed across every shard.
            Pattern::new().with(ts, Pred::Ge(Value::from(6))),
        ] {
            let out = host | ts | bytes;
            let want = r.to_relation().query_where(&p, out);
            let view = r.read_view();
            let mut got = BTreeSet::new();
            view.query_where_for_each_bindings(&mut scratch, &p, out, |b| {
                got.insert(b.project(out));
            })
            .unwrap();
            assert_eq!(got.into_iter().collect::<Vec<_>>(), want);
            let mut handle = r.read_handle();
            let mut got = BTreeSet::new();
            handle
                .query_where_for_each_bindings(&mut scratch, &p, out, |b| {
                    got.insert(b.project(out));
                })
                .unwrap();
            assert_eq!(got.into_iter().collect::<Vec<_>>(), want);
        }
    }

    #[test]
    fn views_are_frozen_and_handles_refresh() {
        let (cat, r) = setup(2);
        r.insert(tup(&cat, 1, 1, 1)).unwrap();
        let frozen = r.read_view();
        let mut handle = r.read_handle();
        assert_eq!(handle.len(), 1);
        r.insert(tup(&cat, 2, 2, 2)).unwrap();
        r.insert(tup(&cat, 1, 9, 9)).unwrap();
        // The detached view stays at its epoch; the handle moves.
        assert_eq!(frozen.len(), 1);
        assert_eq!(handle.len(), 3);
        assert_eq!(handle.view().to_relation(), r.to_relation());
        // The cached accessor does not refresh by itself.
        r.insert(tup(&cat, 3, 3, 3)).unwrap();
        assert_eq!(handle.cached().len(), 3);
        assert_eq!(handle.len(), 4);
    }

    #[test]
    fn batch_publish_is_per_shard_atomic() {
        let (cat, r) = setup(4);
        let batch: Vec<Tuple> = (0..8i64)
            .flat_map(|h| (0..5i64).map(move |t| (h, t)))
            .map(|(h, t)| tup(&cat, h, t, h))
            .collect();
        r.apply(Op::InsertMany(batch)).unwrap();
        let view = r.read_view();
        // Every shard reflects its whole slice of the batch.
        assert_eq!(view.len(), 40);
        assert_eq!(view.to_relation(), r.to_relation());
    }

    #[test]
    fn epoch_moves_on_every_mutation_kind() {
        let (cat, r) = setup(2);
        let mut last = r.epoch_now();
        let mut bumped = |r: &ConcurrentRelation, what: &str| {
            let e = r.epoch_now();
            assert!(e > last, "{what} must publish");
            last = e;
        };
        r.insert(tup(&cat, 1, 1, 1)).unwrap();
        bumped(&r, "insert");
        r.bulk_load((0..4i64).map(|t| tup(&cat, 2, t, t))).unwrap();
        bumped(&r, "bulk_load");
        r.apply(Op::Update {
            pattern: Tuple::from_pairs([
                (cat.col("host").unwrap(), Value::from(1)),
                (cat.col("ts").unwrap(), Value::from(1)),
            ]),
            changes: Tuple::from_pairs([(cat.col("bytes").unwrap(), Value::from(5))]),
        })
        .unwrap();
        bumped(&r, "update");
        r.remove(&Tuple::from_pairs([(
            cat.col("ts").unwrap(),
            Value::from(0),
        )]))
        .unwrap();
        bumped(&r, "remove");
        r.with_partition_mut(&tup(&cat, 1, 1, 1), |s: &mut SynthRelation| {
            s.insert(tup(&cat, 1, 7, 7)).unwrap();
        });
        bumped(&r, "with_partition_mut");
    }
}
