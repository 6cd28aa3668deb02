//! Contracts of the dense [`HashTable`] that callers above the crate rely
//! on: O(1) probes whatever bits the keys differ in, removal that keeps
//! every other key reachable, batch loading equal to sequential insertion,
//! and an iteration order that is a function of the operation sequence.

use relic_containers::HashTable;
use relic_spec::Value;
use std::cell::Cell;
use std::hash::{Hash, Hasher};

thread_local! {
    /// Key comparisons made by this test thread.
    static COMPARES: Cell<usize> = const { Cell::new(0) };
}

/// A key that hashes as `T` and counts every `==`.
#[derive(Debug)]
struct Counted<T>(T);

impl<T: PartialEq> PartialEq for Counted<T> {
    fn eq(&self, other: &Self) -> bool {
        COMPARES.with(|c| c.set(c.get() + 1));
        self.0 == other.0
    }
}
impl<T: Eq> Eq for Counted<T> {}
impl<T: Hash> Hash for Counted<T> {
    fn hash<H: Hasher>(&self, h: &mut H) {
        self.0.hash(h)
    }
}

/// Inserts then looks up `n` keys, returning comparisons per operation.
fn compares_per_op<T: Hash + Eq>(n: i64, key: impl Fn(i64) -> T) -> f64 {
    let mut t = HashTable::new();
    COMPARES.with(|c| c.set(0));
    for i in 0..n {
        assert_eq!(t.insert(Counted(key(i)), i), None);
    }
    for i in 0..n {
        assert_eq!(t.get(&Counted(key(i))), Some(&i));
    }
    COMPARES.with(Cell::get) as f64 / (2 * n) as f64
}

/// Keys that differ only above bit 20 (page-aligned addresses, /24 networks)
/// agree modulo any table size up to 2²⁰: a slot masked from the hash's low
/// bits chains them all (≈ n/2 comparisons per lookup); one taken from the
/// high bits keeps probes O(1).
#[test]
fn keys_differing_only_in_high_bits_probe_in_constant_time() {
    let n = 4_000;
    let dense = compares_per_op(n, |i| i);
    let ints = compares_per_op(n, |i| i << 20);
    let rows = compares_per_op(n, |i| -> Box<[Value]> { Box::new([Value::from(i << 20)]) });
    for (name, c) in [("i", dense), ("i << 20", ints), ("[Value(i << 20)]", rows)] {
        assert!(c < 3.0, "{name}: {c:.1} key comparisons per operation");
    }
}

fn table(keys: impl IntoIterator<Item = i64>) -> HashTable<i64, i64> {
    keys.into_iter().map(|k| (k, k * 10)).collect()
}

fn order(t: &HashTable<i64, i64>) -> Vec<i64> {
    t.iter().map(|(k, _)| *k).collect()
}

#[test]
fn remove_keeps_every_other_key_reachable() {
    // The only entry.
    let mut t = table([7]);
    assert_eq!(t.remove(&7), Some(70));
    assert!(t.is_empty());
    assert_eq!((t.get(&7), t.iter().count()), (None, 0));
    assert_eq!(t.insert(7, 1), None);

    // The last, the first and a middle entry of a table at full load (64
    // entries, 128 slots: probe runs are common), so removal must shift
    // slots back and re-point the entry that `swap_remove` moved.
    let keys: Vec<i64> = (0..64).map(|i| i << 44).collect();
    for victim in [63usize, 0, 29] {
        let mut t = table(keys.iter().copied());
        assert_eq!(t.remove(&keys[victim]), Some(keys[victim] * 10));
        assert_eq!(t.remove(&keys[victim]), None);
        assert_eq!(t.len(), 63);
        for &k in keys.iter().filter(|&&k| k != keys[victim]) {
            assert_eq!(t.get(&k), Some(&(k * 10)), "victim {victim}, key {k}");
        }
        let mut expect = keys.clone();
        expect.swap_remove(victim);
        assert_eq!(order(&t), expect, "last entry takes the vacated position");
    }

    // Draining in an order unrelated to insertion empties it exactly.
    let mut t = table(keys.iter().copied());
    for i in (0..64).map(|i| (i * 17) % 64) {
        assert_eq!(t.remove(&keys[i]), Some(keys[i] * 10));
        assert_eq!(t.iter().count(), t.len());
    }
    assert!(t.is_empty());
}

#[test]
fn from_batch_equals_sequential_insertion() {
    let batch: Vec<(i64, i64)> = (0..500).map(|i| ((i * 7) % 100, i)).collect();
    let loaded = HashTable::from_batch(batch.clone());
    let mut inserted = HashTable::new();
    for (k, v) in batch.iter().copied() {
        inserted.insert(k, v);
    }
    assert_eq!(loaded.len(), 100);
    for k in 0..100 {
        let last = batch.iter().rev().find(|e| e.0 == k).unwrap().1;
        assert_eq!(loaded.get(&k), Some(&last), "last duplicate wins");
    }
    // ... at the first occurrence's position, as repeated `insert` leaves it.
    let pairs = |t: &HashTable<i64, i64>| t.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>();
    assert_eq!(pairs(&loaded), pairs(&inserted));
    assert_eq!(order(&loaded)[..3], [0, 7, 14]);
}

#[test]
fn iteration_is_insertion_order_until_a_remove_and_always_repeatable() {
    let keys: Vec<i64> = (0..1000).map(|i| (i * 2_654_435_761) % 100_003).collect();
    let t = table(keys.iter().copied());
    assert_eq!(order(&t), keys, "growth never reorders");
    assert_eq!(
        order(&HashTable::from_batch(
            keys.iter().map(|&k| (k, 0)).collect()
        )),
        keys
    );

    // The same operations give the same order, run to run (no address- or
    // seed-dependence): checkpoints and replicas replay operations.
    let run = || {
        let mut t = table(keys.iter().copied());
        for k in keys.iter().step_by(3) {
            t.remove(k);
        }
        t.extend(keys.iter().step_by(6).map(|&k| (k, -k)));
        t.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}
