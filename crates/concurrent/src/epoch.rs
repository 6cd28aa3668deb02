//! Epoch-based reclamation: reader pin slots, grace-period detection, and
//! per-shard limbo lists for retired snapshots.
//!
//! # Why
//!
//! The store is a persistent structure (`relic_core::Store`): publishing a
//! snapshot is O(1) and writers path-copy only what they touch. What is
//! *not* O(1) is tearing a retired version down: when the last `Arc` to a
//! replaced snapshot drops, the cascade of instance/container frees runs on
//! whichever thread happened to hold that last reference. Before this
//! module existed, that was frequently a **reader** — e.g. a read handle
//! refreshing across a migration paid the teardown of the entire
//! pre-migration store on its next query (119µs when PR 4 recorded
//! exactly this). The RCU playbook (McKenney, "Is Parallel Programming
//! Hard", ch. 9) fixes the asymmetry: retired state parks on a limbo list
//! and is freed by the *write side* once a grace period proves no reader
//! still holds it.
//!
//! # Epoch lifecycle
//!
//! Epochs here are the per-shard publish counters the snapshot layer
//! already maintains (`ConcurrentRelation::shard_epoch_now`): shard `i`'s
//! counter increments on every slot swap.
//!
//! * **Pin** — a [`ReadHandle`](crate::ReadHandle) owns a `ReaderSlot`
//!   with one pin word per shard. Collecting or refreshing a view stores
//!   the collected shard epoch into the corresponding pin (`Release`);
//!   dropping the handle stores `UNPINNED`. The read path takes **no
//!   lock**: registration happens once at handle creation, pin updates are
//!   single atomic stores.
//! * **Retire** — a writer replacing shard `i`'s published snapshot while
//!   readers still reference it pushes the old `Arc` onto shard `i`'s
//!   `ShardLimbo` tagged with the pre-swap epoch. (With no readers the
//!   prune fast path already dropped the snapshot before the mutation, and
//!   the store mutated fully in place.)
//! * **Grace period** — retired state tagged with epoch `R` is reclaimable
//!   once `min_pinned(i) > R`: every handle pinned at or before `R` has
//!   refreshed past the retirement (or unpinned). Writers detect this with
//!   one `Acquire` scan of the registered slots.
//! * **Reclaim** — each mutation drains its shard's limbo *after releasing
//!   the shard write lock*, so teardown never extends a critical section;
//!   [`ConcurrentRelation::reclaim`](crate::ConcurrentRelation::reclaim)
//!   drains every shard on demand (maintenance, tests, memory pressure).
//!
//! # Safety vs. performance
//!
//! Memory safety never depends on this module: snapshots are `Arc`-shared,
//! so a detached [`ReadView`](crate::ReadView) (which does not pin) keeps
//! whatever it holds alive. The pins and grace periods decide *which
//! thread* pays the final teardown and *when*: a limbo entry is dropped
//! only after every pinned reader moved past it, which makes the limbo
//! drop the last drop — the heavy cascade free always lands on the writer
//! or an explicit `reclaim()`, never on a reader's query. Conservatively,
//! a pinned handle also delays reclamation of snapshots it technically no
//! longer holds for the shards it has not refreshed — bounded by the
//! handle's staleness, observable via
//! [`pinned_epoch_lag`](crate::ConcurrentRelation::pinned_epoch_lag).
//!
//! Interaction with **migration epochs**: a migration republishes every
//! shard inside the seqlock window, retiring every pre-migration snapshot
//! into its shard's limbo in the same burst. Pre-migration readers keep
//! answering from their pinned (whole, single-decomposition) views; as
//! they refresh, the grace period expires shard by shard and the old
//! representation's entire store chain is torn down writer-side.
//! **Checkpoint serialization** (`relic_persist`) walks pinned views the
//! same way any reader does — a long-running checkpoint simply holds its
//! epoch pinned, visible as `limbo_bytes()` growth until it completes.

use relic_core::Snapshot;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The pin value meaning "this reader holds no epoch for this shard".
pub(crate) const UNPINNED: u64 = u64::MAX;

/// One reader's pin words, one per shard. Owned (via `Arc`) by a
/// `ReadHandle`; scanned by writers computing grace periods.
#[derive(Debug)]
pub(crate) struct ReaderSlot {
    pins: Box<[AtomicU64]>,
}

impl ReaderSlot {
    fn new(shards: usize) -> Self {
        ReaderSlot {
            pins: (0..shards).map(|_| AtomicU64::new(UNPINNED)).collect(),
        }
    }

    /// Pins shard `i` at epoch `e` (`Release`: the pin is visible before
    /// any later writer scan that could retire what the reader collected).
    pub(crate) fn pin(&self, i: usize, e: u64) {
        self.pins[i].store(e, Ordering::Release);
    }

    /// Clears every pin (handle drop / full-view release).
    pub(crate) fn unpin_all(&self) {
        for p in self.pins.iter() {
            p.store(UNPINNED, Ordering::Release);
        }
    }
}

/// The reader registry: every live `ReadHandle`'s [`ReaderSlot`], scanned
/// by writers to detect grace periods. Registration/deregistration are the
/// only locked operations; the per-query read path never touches the lock.
#[derive(Debug)]
pub(crate) struct EpochRegistry {
    readers: Mutex<Vec<Arc<ReaderSlot>>>,
    shards: usize,
}

impl EpochRegistry {
    pub(crate) fn new(shards: usize) -> Self {
        EpochRegistry {
            readers: Mutex::new(Vec::new()),
            shards,
        }
    }

    /// Registers a new reader, returning its slot. Slots whose handle has
    /// dropped (registry holds the only `Arc`) are pruned opportunistically
    /// here and during scans.
    pub(crate) fn register(&self) -> Arc<ReaderSlot> {
        let slot = Arc::new(ReaderSlot::new(self.shards));
        // A poisoned registry lock only means some thread panicked while
        // pushing/scanning a Vec of `Arc`s — the Vec itself is never left
        // half-updated (push/retain are the only mutations), so recovery is
        // sound; see the crate's lock-error policy.
        let mut readers = self.readers.lock().unwrap_or_else(|e| e.into_inner());
        readers.retain(|s| Arc::strong_count(s) > 1);
        readers.push(Arc::clone(&slot));
        slot
    }

    /// The minimum epoch any live reader has pinned for shard `i`
    /// ([`UNPINNED`] when none has): retired state tagged `< min` is past
    /// its grace period.
    pub(crate) fn min_pinned(&self, i: usize) -> u64 {
        let mut readers = self.readers.lock().unwrap_or_else(|e| e.into_inner());
        readers.retain(|s| Arc::strong_count(s) > 1);
        readers
            .iter()
            .map(|s| s.pins[i].load(Ordering::Acquire))
            .min()
            .unwrap_or(UNPINNED)
    }
}

/// A retired snapshot awaiting its grace period.
#[derive(Debug)]
struct Retired {
    /// Shard epoch at retirement: reclaimable once `min_pinned > epoch`.
    epoch: u64,
    /// The snapshot's `store_approx_bytes()` at retirement, for
    /// `limbo_bytes()` accounting.
    bytes: usize,
    /// Held only to defer its drop: popping the entry after the grace
    /// period is what finally tears the retired snapshot down.
    #[allow(dead_code)]
    snap: Arc<Snapshot>,
}

/// One shard's limbo list: retired published snapshots in retirement-epoch
/// order, drained from the front as grace periods expire.
#[derive(Debug, Default)]
pub(crate) struct ShardLimbo {
    entries: Mutex<VecDeque<Retired>>,
    /// Mirror of the queued entries' byte estimates, readable without the
    /// lock for cheap `limbo_bytes()` polling.
    bytes: AtomicUsize,
}

impl ShardLimbo {
    /// Parks a retired snapshot tagged with its retirement epoch.
    pub(crate) fn retire(&self, epoch: u64, snap: Arc<Snapshot>) {
        let bytes = snap.store_approx_bytes();
        // Retirement epochs are monotone per shard (tagged under the shard
        // write lock), so push_back keeps the queue ordered and draining
        // from the front is exact. Lock recovery is sound for the same
        // reason as the registry: push/pop of whole entries only.
        let mut q = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        q.push_back(Retired { epoch, bytes, snap });
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Pops every entry whose grace period has expired (`epoch <
    /// min_pinned`) and **drops them after releasing the limbo lock** — the
    /// teardown cascade never runs inside any lock. Returns the number of
    /// entries freed.
    pub(crate) fn drain(&self, min_pinned: u64) -> usize {
        let mut expired: Vec<Retired> = Vec::new();
        {
            let mut q = self.entries.lock().unwrap_or_else(|e| e.into_inner());
            while q.front().is_some_and(|r| r.epoch < min_pinned) {
                if let Some(r) = q.pop_front() {
                    self.bytes.fetch_sub(r.bytes, Ordering::Relaxed);
                    expired.push(r);
                }
            }
        }
        let n = expired.len();
        drop(expired);
        n
    }

    /// Estimated bytes parked in this shard's limbo.
    pub(crate) fn bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Number of retired snapshots parked in this shard's limbo.
    pub(crate) fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}
