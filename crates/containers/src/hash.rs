//! A dense, open-addressed hash table with a deterministic hasher.
//!
//! Entries sit contiguously in insertion order and are found through a
//! separate array of `u32` positions, so a scan is a slice walk (no bucket
//! per entry, no hash-order pointer chase) and a table that was bulk-loaded
//! or filled sequentially is scanned in the order its values were created.

use std::borrow::Borrow;
use std::hash::{Hash, Hasher};

/// A fast, deterministic, non-cryptographic hasher (FxHash-style
/// multiply-rotate). Determinism keeps benchmark runs and test failures
/// reproducible; the table is not exposed to untrusted keys.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    state: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    /// Creates a hasher with the fixed initial state.
    pub fn new() -> Self {
        FxHasher::default()
    }

    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }
}

fn hash_of<K: Hash + ?Sized>(k: &K) -> u64 {
    let mut h = FxHasher::new();
    k.hash(&mut h);
    h.finish()
}

/// Marks a free index slot. Never a valid position: see [`HashTable::reserve`].
const EMPTY: u32 = u32::MAX;

/// A dense, open-addressed hash table (the paper's `htable` primitive).
///
/// Entries live in one `Vec<(K, V)>`, found through an open-addressed array
/// of `u32` entry positions (power-of-two sized, linear probing, backward-
/// shift deletion). The index stores no hash bits, so every occupied slot a
/// probe passes costs a key comparison in the entry array: the load is kept
/// at most 1/2 (a slot is 4 bytes). The home slot comes from the *high* bits
/// of the hash — a multiply hash's low bits depend only on the key's low
/// bits, so keys that agree modulo the table size (/24 networks,
/// page-aligned addresses) would otherwise share one probe run. Expected
/// lookup cost is O(1); the query-planner cost model treats `m_htable(n)` as
/// a small constant.
///
/// **Iteration order** is the entry array's: insertion order until the first
/// [`remove`](HashTable::remove), which moves the last entry into the vacated
/// position. It is a pure function of the operation sequence (no addresses,
/// no random seed), so replicas and checkpoints replaying the same
/// operations scan alike; nothing may rely on any *particular* order.
#[derive(Debug, Clone)]
pub struct HashTable<K, V> {
    entries: Vec<(K, V)>,
    /// Positions into `entries`, or [`EMPTY`]. Unallocated until the first
    /// insertion, then a power of two ≥ `2 * entries.len()`.
    index: Vec<u32>,
    /// `64 - log2(index.len())`: a key's home slot is `hash >> shift`.
    shift: u32,
}

impl<K, V> Default for HashTable<K, V> {
    fn default() -> Self {
        HashTable {
            entries: Vec::new(),
            index: Vec::new(),
            shift: 0,
        }
    }
}

impl<K: Hash + Eq, V> HashTable<K, V> {
    /// Creates an empty table (no allocation until first insert).
    pub fn new() -> Self {
        HashTable::default()
    }

    /// Creates a table pre-sized for `cap` entries.
    pub fn with_capacity(cap: usize) -> Self {
        let mut t = HashTable::new();
        t.reserve(cap);
        t
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The home slot of any borrowed form of a key. `Hash` for a key and for
    /// its `Borrow` target are required to agree (the `Borrow` contract, and
    /// what [`FxHasher`]'s structural hashing provides for slice-like keys),
    /// so borrowed-key probes start where the owned insertion did.
    ///
    /// The slot is the high bits of the hash, folded and multiplied once
    /// more: Fx's low bits depend only on the key's low bits, and its raw
    /// high bits pile sequential keys up (the multiplier is 2⁶⁴/π, and
    /// 355/113 ≈ π sends `i` and `i + 355` to the same slot).
    fn home<Q: Hash + ?Sized>(&self, k: &Q) -> usize {
        let h = hash_of(k);
        ((h ^ (h >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Probes an allocated index for `k`: `Ok` of the slot pointing at its
    /// entry, or `Err` of the free slot ending its probe run (load ≤ 1/2
    /// guarantees one).
    fn find<Q>(&self, k: &Q) -> Result<usize, usize>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mut s = self.home(k);
        loop {
            match self.index[s] {
                EMPTY => return Err(s),
                p if self.entries[p as usize].0.borrow() == k => return Ok(s),
                _ => s = (s + 1) & (self.index.len() - 1),
            }
        }
    }

    /// The position in `entries` of `k`'s entry, if present.
    fn position<Q>(&self, k: &Q) -> Option<usize>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if self.entries.is_empty() {
            return None; // also covers the unallocated index
        }
        self.find(k).ok().map(|s| self.index[s] as usize)
    }

    /// Reserves capacity for at least `additional` more entries: both arrays
    /// are sized once, so a batch of insertions re-indexes at most once
    /// instead of O(log n) times.
    ///
    /// # Panics
    ///
    /// Panics if the index would exceed 2³² slots (2³¹ entries): positions
    /// are `u32` and must stay below the free-slot marker.
    pub fn reserve(&mut self, additional: usize) {
        self.entries.reserve(additional);
        let slots = ((self.entries.len() + additional) * 2)
            .next_power_of_two()
            .max(8);
        if slots <= self.index.len() {
            return;
        }
        assert!(
            slots - 1 <= u32::MAX as usize,
            "HashTable position overflow"
        );
        self.shift = 64 - slots.trailing_zeros();
        self.index.clear();
        self.index.resize(slots, EMPTY);
        // Index entries where they lie. `entries[..kept]` are indexed and
        // distinct; only `from_batch` brings duplicates, which overwrite
        // their first occurrence and are truncated away.
        let mut kept = 0;
        for i in 0..self.entries.len() {
            match self.find(&self.entries[i].0) {
                Ok(s) => self.entries.swap(self.index[s] as usize, i),
                Err(s) => {
                    self.entries.swap(kept, i);
                    self.index[s] = kept as u32;
                    kept += 1;
                }
            }
        }
        self.entries.truncate(kept);
    }

    /// Builds a table from a batch of entries, adopting the vector and
    /// sizing the index once. Duplicate keys follow
    /// [`insert`](HashTable::insert)'s replace semantics (the last entry
    /// wins, at the first one's position).
    pub fn from_batch(entries: Vec<(K, V)>) -> Self {
        let mut t = HashTable {
            entries,
            ..HashTable::default()
        };
        t.reserve(0);
        t
    }

    /// Inserts `k → v`, returning the previous value for `k`, if any.
    pub fn insert(&mut self, k: K, v: V) -> Option<V> {
        if (self.entries.len() + 1) * 2 > self.index.len() {
            self.reserve(1);
        }
        match self.find(&k) {
            Ok(s) => {
                let old = &mut self.entries[self.index[s] as usize].1;
                Some(std::mem::replace(old, v))
            }
            Err(s) => {
                self.index[s] = self.entries.len() as u32;
                self.entries.push((k, v));
                None
            }
        }
    }

    /// Looks up the value for `k`, which may be any borrowed form of the key
    /// (e.g. `&[Value]` for a `Box<[Value]>`-keyed table) — the zero-copy
    /// probe the query hot path relies on.
    pub fn get<Q>(&self, k: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.position(k).map(|p| &self.entries[p].1)
    }

    /// Looks up the value for `k` (any borrowed form), mutably.
    pub fn get_mut<Q>(&mut self, k: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.position(k).map(|p| &mut self.entries[p].1)
    }

    /// Removes the entry for `k` (any borrowed form), returning its value.
    /// The last entry takes over the vacated position.
    pub fn remove<Q>(&mut self, k: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if self.entries.is_empty() {
            return None;
        }
        let mut hole = self.find(k).ok()?;
        let pos = self.index[hole] as usize;
        let mask = self.index.len() - 1;
        // Backward shift: pull each later entry of the probe run into the
        // hole unless that would place it before its home slot.
        let mut s = (hole + 1) & mask;
        while self.index[s] != EMPTY {
            let home = self.home(&self.entries[self.index[s] as usize].0);
            if (s.wrapping_sub(home) & mask) >= (s.wrapping_sub(hole) & mask) {
                self.index[hole] = self.index[s];
                hole = s;
            }
            s = (s + 1) & mask;
        }
        self.index[hole] = EMPTY;
        // `swap_remove` moves the last entry to `pos`: re-point its slot.
        let last = self.entries.len() - 1;
        if pos != last {
            let mut s = self.home(&self.entries[last].0);
            while self.index[s] != last as u32 {
                s = (s + 1) & mask;
            }
            self.index[s] = pos as u32;
        }
        Some(self.entries.swap_remove(pos).1)
    }

    /// Iterates entries in entry-array order (see the type's docs).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Removes all entries, keeping both arrays' capacity.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.index.fill(EMPTY);
    }
}

impl<K: Hash + Eq, V> FromIterator<(K, V)> for HashTable<K, V> {
    fn from_iter<T: IntoIterator<Item = (K, V)>>(iter: T) -> Self {
        let mut t = HashTable::new();
        t.extend(iter);
        t
    }
}

impl<K: Hash + Eq, V> Extend<(K, V)> for HashTable<K, V> {
    fn extend<T: IntoIterator<Item = (K, V)>>(&mut self, iter: T) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn basic_ops() {
        let mut t = HashTable::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(1, "a"), None);
        assert_eq!(t.insert(2, "b"), None);
        assert_eq!(t.insert(1, "c"), Some("a"));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(&1), Some(&"c"));
        assert_eq!(t.get(&3), None);
        assert_eq!(t.remove(&1), Some("c"));
        assert_eq!(t.remove(&1), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut t = HashTable::new();
        t.insert("k", 1);
        *t.get_mut(&"k").unwrap() += 10;
        assert_eq!(t.get(&"k"), Some(&11));
        assert_eq!(t.get_mut(&"absent"), None);
    }

    #[test]
    fn growth_preserves_entries() {
        let mut t = HashTable::new();
        for i in 0..1000 {
            t.insert(i, i * 2);
        }
        assert_eq!(t.len(), 1000);
        for i in 0..1000 {
            assert_eq!(t.get(&i), Some(&(i * 2)));
        }
        assert_eq!(t.iter().count(), 1000);
    }

    #[test]
    fn with_capacity_avoids_empty_bucket_panic() {
        let mut t = HashTable::with_capacity(100);
        assert_eq!(t.get(&5), None);
        t.insert(5, 5);
        assert_eq!(t.get(&5), Some(&5));
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut t = HashTable::new();
        for i in 0..100 {
            t.insert(i, i);
        }
        let (slots, cap) = (t.index.len(), t.entries.capacity());
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.get(&1), None);
        assert_eq!((t.index.len(), t.entries.capacity()), (slots, cap));
        t.insert(1, 1);
        assert_eq!(t.len(), 1);
        assert_eq!(t.iter().count(), 1);
    }

    #[test]
    fn from_iterator_collects() {
        let t: HashTable<i32, i32> = (0..10).map(|i| (i, i)).collect();
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn hasher_is_deterministic() {
        assert_eq!(hash_of(&"hello"), hash_of(&"hello"));
        assert_ne!(hash_of(&"hello"), hash_of(&"world"));
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
    }

    #[test]
    fn boxed_slice_keys() {
        // The runtime uses Box<[Value]>-style composite keys.
        let mut t: HashTable<Box<[i64]>, u32> = HashTable::new();
        t.insert(vec![1, 2].into_boxed_slice(), 7);
        assert_eq!(t.get(&vec![1, 2].into_boxed_slice()), Some(&7));
        assert_eq!(t.get(&vec![2, 1].into_boxed_slice()), None);
    }

    #[test]
    fn reserve_avoids_rehash_during_batch() {
        let mut t: HashTable<i64, i64> = HashTable::new();
        t.insert(-1, -1);
        t.reserve(1000);
        let (slots, cap) = (t.index.len(), t.entries.capacity());
        t.extend((0..1000).map(|i| (i, i)));
        assert_eq!(t.index.len(), slots, "no re-index during reserved batch");
        assert_eq!(t.entries.capacity(), cap, "no entry-array growth either");
        assert_eq!(t.len(), 1001);
        assert_eq!(t.get(&-1), Some(&-1));
        // Shrinking reserve is a no-op.
        t.reserve(0);
        assert_eq!(t.index.len(), slots);
    }

    #[test]
    fn grows_exactly_at_half_load() {
        let mut t: HashTable<i64, i64> = HashTable::new();
        assert!(t.index.is_empty(), "no allocation until first insert");
        for n in 1..=64usize {
            t.insert(n as i64, 0);
            assert_eq!(t.index.len(), (n * 2).next_power_of_two().max(8), "n={n}");
            assert_eq!(t.shift, 64 - t.index.len().trailing_zeros());
        }
        // Removing never shrinks, and the freed room is reused.
        t.remove(&2);
        t.insert(65, 0);
        assert_eq!(t.index.len(), 128);
    }

    #[test]
    fn index_and_entries_stay_in_step() {
        // Every live slot points at a distinct entry reachable from its home
        // slot without crossing a free slot — after growth, duplicate-laden
        // batches and backward-shift removals (clustered keys force runs).
        let mut t: HashTable<i64, i64> =
            HashTable::from_batch((0..300).map(|i| ((i % 90) << 40, i)).collect());
        for step in 0..200i64 {
            match step % 3 {
                0 => drop(t.remove(&(((step * 7) % 90) << 40))),
                _ => drop(t.insert((step % 120) << 40, step)),
            }
            let live: Vec<u32> = t.index.iter().copied().filter(|&p| p != EMPTY).collect();
            let mut sorted = live.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..t.len() as u32).collect::<Vec<_>>());
            for (k, v) in t.iter() {
                assert_eq!(t.get(k), Some(v), "step {step}: key {k} unreachable");
            }
        }
    }

    #[test]
    fn from_batch_is_presized_and_replaces() {
        let t: HashTable<i64, i64> =
            HashTable::from_batch((0..500).map(|i| (i % 100, i)).collect());
        assert_eq!(t.len(), 100);
        for k in 0..100 {
            assert_eq!(t.get(&k), Some(&(400 + k)), "last entry wins");
        }
        let empty: HashTable<i64, i64> = HashTable::from_batch(Vec::new());
        assert!(empty.is_empty());
        assert_eq!(empty.get(&0), None);
    }

    proptest! {
        /// Removal-heavy interleavings against `std`'s map for contents and
        /// against a `Vec` model for order: a new key is pushed, a replaced
        /// one keeps its place, a removed one is `swap_remove`d — checked
        /// after every step, so the order is a function of the ops alone.
        #[test]
        fn behaves_like_std_hashmap(ops in proptest::collection::vec((0u8..5, 0i64..50, 0i64..100), 0..300)) {
            let mut sut: HashTable<i64, i64> = HashTable::new();
            let mut model: HashMap<i64, i64> = HashMap::new();
            let mut order: Vec<(i64, i64)> = Vec::new();
            for (op, k, v) in ops {
                // Keys cluster in the low bits of a shifted word: long runs.
                let k = k << 32;
                let at = order.iter().position(|e| e.0 == k);
                match op {
                    0 | 1 => {
                        prop_assert_eq!(sut.insert(k, v), model.insert(k, v));
                        match at {
                            Some(i) => order[i].1 = v,
                            None => order.push((k, v)),
                        }
                    }
                    2 | 3 => {
                        prop_assert_eq!(sut.remove(&k), model.remove(&k));
                        at.map(|i| order.swap_remove(i));
                    }
                    _ => prop_assert_eq!(sut.get(&k), model.get(&k)),
                }
                prop_assert_eq!(sut.len(), model.len());
                let got: Vec<(i64, i64)> = sut.iter().map(|(k, v)| (*k, *v)).collect();
                prop_assert_eq!(&got, &order);
                for (k, v) in &order {
                    prop_assert_eq!(model.get(k), Some(v));
                }
            }
        }
    }
}
