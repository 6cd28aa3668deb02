//! Workload profiling: cheap operation counters on the relation's hot
//! paths, and the [`WorkloadProfile`] snapshot the autotuner consumes.
//!
//! The paper's §4.3 notes that the cost model's counts "can be provided by
//! the user, or recorded as part of a profiling run"; §5's autotuner then
//! picks the best decomposition for a *measured* workload. The recorder here
//! closes that loop at runtime: every public query records its
//! `(avail, ranged, out)` column-set signature, every successful insert and
//! every removal pattern bumps a counter, and
//! [`SynthRelation::profile`](crate::SynthRelation::profile) snapshots the
//! counts so `relic_autotune` can rebuild a `Workload` from what actually
//! ran (profile → recommend → migrate).
//!
//! Recording is designed to stay off the allocator once warm: a signature
//! seen before costs one shared-lock acquisition, one hash probe, and one
//! relaxed atomic increment. Only the *first* occurrence of a signature
//! takes the write lock and allocates its counter entry.

use crate::FxHashMap;
use relic_spec::ColSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// The `(avail, ranged, out)` bit signature of a query.
type SigKey = (u64, u64, u64);

/// Interior-mutable operation counters, owned by a `SynthRelation`.
///
/// Queries take `&self`, so the recorder mirrors the plan cache's
/// read-mostly discipline: warm signatures increment an existing
/// [`AtomicU64`] under the read lock; the write lock is only taken to
/// insert a signature's first counter.
#[derive(Debug, Default)]
pub(crate) struct ProfileCounters {
    queries: RwLock<FxHashMap<SigKey, AtomicU64>>,
    inserts: AtomicU64,
    removes: RwLock<FxHashMap<u64, AtomicU64>>,
}

impl ProfileCounters {
    /// Counts one query with equality columns `avail`, interval columns
    /// `ranged`, and output columns `out`.
    pub(crate) fn record_query(&self, avail: ColSet, ranged: ColSet, out: ColSet) {
        let key = (avail.bits(), ranged.bits(), out.bits());
        if let Some(c) = self.queries.read().expect("profile poisoned").get(&key) {
            c.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.queries
            .write()
            .expect("profile poisoned")
            .entry(key)
            .or_insert_with(|| AtomicU64::new(0))
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Counts `n` inserted tuples.
    pub(crate) fn record_inserts(&self, n: u64) {
        if n > 0 {
            self.inserts.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Counts one removal with pattern columns `pattern`.
    pub(crate) fn record_remove(&self, pattern: ColSet) {
        let key = pattern.bits();
        if let Some(c) = self.removes.read().expect("profile poisoned").get(&key) {
            c.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.removes
            .write()
            .expect("profile poisoned")
            .entry(key)
            .or_insert_with(|| AtomicU64::new(0))
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshots the counters into a [`WorkloadProfile`] (sorted, hence
    /// deterministic).
    pub(crate) fn snapshot(&self) -> WorkloadProfile {
        let mut queries: Vec<(ColSet, ColSet, ColSet, u64)> = self
            .queries
            .read()
            .expect("profile poisoned")
            .iter()
            .map(|(&(a, r, o), c)| {
                (
                    ColSet::from_bits(a),
                    ColSet::from_bits(r),
                    ColSet::from_bits(o),
                    c.load(Ordering::Relaxed),
                )
            })
            .collect();
        queries.sort_by_key(|&(a, r, o, _)| (a.bits(), r.bits(), o.bits()));
        let mut removes: Vec<(ColSet, u64)> = self
            .removes
            .read()
            .expect("profile poisoned")
            .iter()
            .map(|(&p, c)| (ColSet::from_bits(p), c.load(Ordering::Relaxed)))
            .collect();
        removes.sort_by_key(|&(p, _)| p.bits());
        WorkloadProfile {
            queries,
            inserts: self.inserts.load(Ordering::Relaxed),
            removes,
        }
    }

    /// Zeroes every counter (the recording window restarts).
    pub(crate) fn reset(&self) {
        self.queries.write().expect("profile poisoned").clear();
        self.inserts.store(0, Ordering::Relaxed);
        self.removes.write().expect("profile poisoned").clear();
    }
}

/// A snapshot of the operations a relation has served: the measured
/// workload the autotuner's `Workload::from_profile` consumes.
///
/// Signatures are column *sets*, not values, so a profile is independent of
/// the decomposition that recorded it — it survives a
/// [`migrate_to`](crate::SynthRelation::migrate_to) unchanged and keeps
/// accumulating across representations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkloadProfile {
    /// Per-signature query counts: `(avail, ranged, out, count)`, where
    /// `avail` are the equality-bound columns and `ranged` the columns
    /// carrying interval comparisons (empty for plain queries).
    pub queries: Vec<(ColSet, ColSet, ColSet, u64)>,
    /// Number of tuples successfully inserted.
    pub inserts: u64,
    /// Per-pattern removal counts: `(pattern columns, count)`.
    pub removes: Vec<(ColSet, u64)>,
}

impl WorkloadProfile {
    /// Has nothing been recorded?
    pub fn is_empty(&self) -> bool {
        self.total_ops() == 0
    }

    /// Total recorded operations (queries + inserts + removes).
    pub fn total_ops(&self) -> u64 {
        self.queries.iter().map(|&(_, _, _, n)| n).sum::<u64>()
            + self.inserts
            + self.removes.iter().map(|&(_, n)| n).sum::<u64>()
    }

    /// Accumulates another profile into this one (used to aggregate
    /// per-shard profiles into a whole-relation view).
    pub fn merge(&mut self, other: &WorkloadProfile) {
        for &(a, r, o, n) in &other.queries {
            match self
                .queries
                .iter_mut()
                .find(|(qa, qr, qo, _)| *qa == a && *qr == r && *qo == o)
            {
                Some(q) => q.3 += n,
                None => self.queries.push((a, r, o, n)),
            }
        }
        self.queries
            .sort_by_key(|&(a, r, o, _)| (a.bits(), r.bits(), o.bits()));
        self.inserts += other.inserts;
        for &(p, n) in &other.removes {
            match self.removes.iter_mut().find(|(rp, _)| *rp == p) {
                Some(r) => r.1 += n,
                None => self.removes.push((p, n)),
            }
        }
        self.removes.sort_by_key(|&(p, _)| p.bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relic_spec::ColId;

    fn cs(ids: &[usize]) -> ColSet {
        ids.iter().map(|&i| ColId::from_index(i)).collect()
    }

    #[test]
    fn counters_accumulate_and_snapshot_deterministically() {
        let c = ProfileCounters::default();
        c.record_query(cs(&[0]), ColSet::EMPTY, cs(&[1]));
        c.record_query(cs(&[0]), ColSet::EMPTY, cs(&[1]));
        c.record_query(cs(&[1]), cs(&[2]), cs(&[0]));
        c.record_inserts(3);
        c.record_remove(cs(&[0]));
        let p = c.snapshot();
        assert_eq!(p.queries.len(), 2);
        assert_eq!(p.queries[0], (cs(&[0]), ColSet::EMPTY, cs(&[1]), 2));
        assert_eq!(p.inserts, 3);
        assert_eq!(p.removes, vec![(cs(&[0]), 1)]);
        assert_eq!(p.total_ops(), 7);
        c.reset();
        assert!(c.snapshot().is_empty());
    }

    #[test]
    fn merge_sums_matching_signatures() {
        let a = ProfileCounters::default();
        a.record_query(cs(&[0]), ColSet::EMPTY, cs(&[1]));
        a.record_inserts(1);
        let b = ProfileCounters::default();
        b.record_query(cs(&[0]), ColSet::EMPTY, cs(&[1]));
        b.record_query(cs(&[2]), ColSet::EMPTY, cs(&[1]));
        b.record_remove(cs(&[2]));
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.queries.len(), 2);
        assert_eq!(m.queries[0].3, 2);
        assert_eq!(m.inserts, 1);
        assert_eq!(m.removes, vec![(cs(&[2]), 1)]);
    }
}
