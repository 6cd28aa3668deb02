//! Property tests (same style as `relic_core`'s `bulk_equiv.rs`):
//! **checkpoint + tail replay ≡ full-log replay ≡ live relation**, across
//! every enumerated decomposition candidate and across a mid-log
//! representation migration (a logged migration epoch marker).
//!
//! Each case drives one randomized op sequence into two durable relations
//! with identical schemas — one takes a checkpoint (truncating the log)
//! partway through, the other never does — then commits, recovers both,
//! and asserts all four states (two live, two recovered) hold exactly the
//! same tuples, answer queries identically, and re-synthesized the same
//! final representation.

use proptest::prelude::*;
use relic_core::RelRead;
use relic_decomp::{enumerate_decompositions, Decomposition, DsKind, EnumerateOptions};
use relic_persist::{DurableRelation, GroupCommitPolicy};
use relic_spec::{Catalog, ColSet, RelSpec, Tuple, Value};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Unique scratch directories per proptest case (cases run sequentially,
/// but shrinking re-enters).
static CASE: AtomicUsize = AtomicUsize::new(0);

fn case_dir(tag: &str) -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("relic_recprops_{tag}_{}_{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The candidate set: every adequate decomposition of `{a,b} → {v}` with
/// up to two edges over the hash-table and AVL palettes (the same universe
/// `bulk_equiv.rs` migrates across).
fn candidates() -> (Catalog, RelSpec, Vec<Decomposition>) {
    let mut cat = Catalog::new();
    let (a, b, v) = (cat.intern("a"), cat.intern("b"), cat.intern("v"));
    let spec = RelSpec::new(a | b | v).with_fd(a | b, v.set());
    let opts = EnumerateOptions {
        max_edges: 2,
        structures: vec![DsKind::HashTable, DsKind::AvlTree],
        ..Default::default()
    };
    let cs = enumerate_decompositions(&spec, &opts);
    assert!(cs.len() >= 2, "need at least two candidates");
    (cat, spec, cs)
}

fn tuple(cat: &Catalog, a: i64, b: i64, v: i64) -> Tuple {
    Tuple::from_pairs([
        (cat.col("a").unwrap(), Value::from(a)),
        (cat.col("b").unwrap(), Value::from(b)),
        (cat.col("v").unwrap(), Value::from(v)),
    ])
}

/// One scripted operation (generated by proptest).
#[derive(Debug, Clone)]
enum Op {
    Insert(i64, i64, i64),
    RemoveKey(i64, i64),
    RemoveA(i64),
    RemoveB(i64),
    InsertMany(Vec<(i64, i64, i64)>),
    BulkLoad(Vec<(i64, i64, i64)>),
    RemoveMany(Vec<(i64, i64)>),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let t = || (0i64..3, 0i64..4, 0i64..3);
    // Inserts listed three times: the mix should mostly grow the relation
    // (the local proptest stand-in's `prop_oneof` is unweighted).
    prop_oneof![
        t().prop_map(|(a, b, v)| Op::Insert(a, b, v)),
        t().prop_map(|(a, b, v)| Op::Insert(a, b, v)),
        t().prop_map(|(a, b, v)| Op::Insert(a, b, v)),
        (0i64..3, 0i64..4).prop_map(|(a, b)| Op::RemoveKey(a, b)),
        (0i64..3).prop_map(Op::RemoveA),
        (0i64..4).prop_map(Op::RemoveB),
        proptest::collection::vec(t(), 1..6).prop_map(Op::InsertMany),
        proptest::collection::vec(t(), 1..6).prop_map(Op::BulkLoad),
        proptest::collection::vec((0i64..3, 0i64..4), 1..3).prop_map(Op::RemoveMany),
    ]
}

fn apply(r: &DurableRelation, cat: &Catalog, op: &Op) {
    let (ca, cb) = (cat.col("a").unwrap(), cat.col("b").unwrap());
    match op {
        Op::Insert(a, b, v) => {
            let _ = r.insert(tuple(cat, *a, *b, *v));
        }
        Op::RemoveKey(a, b) => {
            r.remove(&Tuple::from_pairs([
                (ca, Value::from(*a)),
                (cb, Value::from(*b)),
            ]))
            .unwrap();
        }
        Op::RemoveA(a) => {
            r.remove(&Tuple::from_pairs([(ca, Value::from(*a))]))
                .unwrap();
        }
        Op::RemoveB(b) => {
            // Unpinned: crosses every shard.
            r.remove(&Tuple::from_pairs([(cb, Value::from(*b))]))
                .unwrap();
        }
        Op::InsertMany(ts) => {
            let _ = r.insert_many(ts.iter().map(|&(a, b, v)| tuple(cat, a, b, v)));
        }
        Op::BulkLoad(ts) => {
            let _ = r.bulk_load(ts.iter().map(|&(a, b, v)| tuple(cat, a, b, v)));
        }
        Op::RemoveMany(pats) => {
            let pats: Vec<Tuple> = pats
                .iter()
                .map(|&(a, b)| Tuple::from_pairs([(ca, Value::from(a)), (cb, Value::from(b))]))
                .collect();
            r.remove_many(&pats).unwrap();
        }
    }
}

/// Every query signature over `{a, b, v}` answers identically on both
/// relations.
fn assert_all_queries_agree(x: &DurableRelation, y: &DurableRelation, cat: &Catalog) {
    let cols = [
        cat.col("a").unwrap(),
        cat.col("b").unwrap(),
        cat.col("v").unwrap(),
    ];
    let subsets: Vec<ColSet> = (0u8..8)
        .map(|m| {
            cols.iter()
                .enumerate()
                .filter(|&(i, _)| m & (1 << i) != 0)
                .map(|(_, &c)| c)
                .collect()
        })
        .collect();
    let model = x.to_relation();
    let (x, y) = (x.read_view(), y.read_view());
    for &pat_cols in &subsets {
        let mut pats: Vec<Tuple> = model.iter().map(|t| t.project(pat_cols)).collect();
        pats.sort();
        pats.dedup();
        pats.push(Tuple::from_pairs(
            pat_cols.iter().map(|c| (c, Value::from(-1))),
        ));
        for pat in &pats {
            for &out in &subsets {
                assert_eq!(
                    x.query(pat, out).unwrap(),
                    y.query(pat, out).unwrap(),
                    "query({pat}, {out:?}) diverged between arms"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The equivalence chain, with a mid-log migration epoch marker:
    /// drive identical ops into a checkpointing arm and a log-only arm,
    /// migrating both to a random candidate partway; recover both; all
    /// states agree exactly and re-synthesize the same representation.
    #[test]
    fn checkpoint_tail_equals_full_log_equals_live(
        ops in proptest::collection::vec(op_strategy(), 1..24),
        from in 0usize..64,
        to in 0usize..64,
        cut in 0usize..24,
        shards in 1usize..4,
    ) {
        let (cat, spec, cs) = candidates();
        let (from, to) = (from % cs.len(), to % cs.len());
        let cut = cut % ops.len().max(1);
        let shard_cols = cat.col("a").unwrap().set();
        let dir_ck = case_dir("ck");
        let dir_log = case_dir("log");
        let mk = |dir: &PathBuf| {
            DurableRelation::create(
                dir, &cat, spec.clone(), cs[from].clone(), shard_cols, shards,
                true, GroupCommitPolicy::manual(),
            ).unwrap()
        };
        let r_ck = mk(&dir_ck);
        let r_log = mk(&dir_log);
        for (i, op) in ops.iter().enumerate() {
            if i == cut {
                // Mid-log: one arm checkpoints (truncating its log), and
                // both log a migration epoch marker.
                r_ck.checkpoint().unwrap();
                r_ck.migrate_to(cs[to].clone()).unwrap();
                r_log.migrate_to(cs[to].clone()).unwrap();
            }
            apply(&r_ck, &cat, op);
            apply(&r_log, &cat, op);
        }
        r_ck.commit().unwrap();
        r_log.commit().unwrap();
        let live = r_log.to_relation();
        prop_assert_eq!(r_ck.to_relation(), live.clone(), "arms diverged while live");
        drop(r_ck);
        drop(r_log);
        // Recover both arms: checkpoint + tail on one side, the full log
        // on the other.
        let rec_ck = DurableRelation::open(&dir_ck, GroupCommitPolicy::manual()).unwrap();
        let rec_log = DurableRelation::open(&dir_log, GroupCommitPolicy::manual()).unwrap();
        prop_assert_eq!(rec_ck.to_relation(), live.clone(), "checkpoint + tail replay diverged");
        prop_assert_eq!(rec_log.to_relation(), live, "full-log replay diverged");
        rec_ck.relation().validate().map_err(TestCaseError::fail)?;
        rec_log.relation().validate().map_err(TestCaseError::fail)?;
        // Both recoveries re-synthesized the migrated representation.
        let d_ck = rec_ck.read_view().shard(0).decomposition().clone();
        let d_log = rec_log.read_view().shard(0).decomposition().clone();
        prop_assert_eq!(&d_ck, &cs[to], "checkpoint arm recovered the wrong representation");
        prop_assert_eq!(&d_log, &cs[to], "log arm recovered the wrong representation");
        assert_all_queries_agree(&rec_ck, &rec_log, &cat);
        let _ = std::fs::remove_dir_all(&dir_ck);
        let _ = std::fs::remove_dir_all(&dir_log);
    }

    /// Recovery is idempotent: recovering, committing nothing, and
    /// recovering again reproduces the same state for any op sequence and
    /// candidate.
    #[test]
    fn recovery_is_idempotent(
        ops in proptest::collection::vec(op_strategy(), 1..16),
        which in 0usize..64,
        checkpoint in proptest::bool::ANY,
    ) {
        let (cat, spec, cs) = candidates();
        let d = cs[which % cs.len()].clone();
        let dir = case_dir("idem");
        let r = DurableRelation::create(
            &dir, &cat, spec, d, cat.col("a").unwrap().set(), 2,
            true, GroupCommitPolicy::manual(),
        ).unwrap();
        for op in &ops {
            apply(&r, &cat, op);
        }
        if checkpoint {
            r.checkpoint().unwrap();
        }
        r.commit().unwrap();
        let live = r.to_relation();
        drop(r);
        for _ in 0..3 {
            let rec = DurableRelation::open(&dir, GroupCommitPolicy::manual()).unwrap();
            prop_assert_eq!(rec.to_relation(), live.clone());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
