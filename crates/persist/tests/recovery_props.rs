//! Property tests (same style as `relic_core`'s `bulk_equiv.rs`):
//! **checkpoint + tail replay ≡ full-log replay ≡ live relation**, across
//! every enumerated decomposition candidate and across a mid-log
//! representation migration (a logged migration epoch marker).
//!
//! Each case drives one randomized op sequence into two durable relations
//! with identical schemas — one takes a checkpoint (truncating the log)
//! partway through, the other never does — then commits, recovers both,
//! and asserts all four states (two live, two recovered) hold exactly the
//! same tuples — those of the ops' reference model, unless a batch
//! spanning shards was refused — answer queries identically, and
//! re-synthesized the same final representation.

mod common;

use common::model_apply;
use proptest::prelude::*;
use relic_core::{Op, RelRead};
use relic_decomp::{enumerate_decompositions, Decomposition, DsKind, EnumerateOptions};
use relic_persist::{DurableRelation, GroupCommitPolicy};
use relic_spec::{Catalog, ColId, ColSet, Pattern, Pred, RelSpec, Relation, Tuple, Value};
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

/// Columns `a`, `b`, `v`: the ids [`candidates`] interns them under.
fn abv() -> [ColId; 3] {
    let mut cat = Catalog::new();
    ["a", "b", "v"].map(|c| cat.intern(c))
}

fn tuple(a: i64, b: i64, v: i64) -> Tuple {
    let [ca, cb, cv] = abv();
    Tuple::from_pairs([
        (ca, Value::from(a)),
        (cb, Value::from(b)),
        (cv, Value::from(v)),
    ])
}

/// A pattern binding `a` and `b` where given.
fn key(a: Option<i64>, b: Option<i64>) -> Tuple {
    let [ca, cb, _] = abv();
    Tuple::from_pairs(
        [(ca, a), (cb, b)]
            .into_iter()
            .filter_map(|(c, x)| Some((c, Value::from(x?)))),
    )
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let t = || (0i64..3, 0i64..4, 0i64..3).prop_map(|(a, b, v)| tuple(a, b, v));
    // A batch over any `a` may span shards; one sharing its `a` lands on
    // one shard, where it is the single fold the model applies even when a
    // tuple is refused.
    let ts = || {
        let bvs = proptest::collection::vec((0i64..4, 0i64..3), 1..6);
        (0i64..3, bvs).prop_map(|(a, bvs)| bvs.into_iter().map(|(b, v)| tuple(a, b, v)).collect())
    };
    let [_, cb, cv] = abv();
    // Inserts listed three times: the mix should mostly grow the relation
    // (the local proptest stand-in's `prop_oneof` is unweighted). A
    // `b`-only pattern is unpinned (the shard column is `a`) and crosses
    // every shard.
    prop_oneof![
        t().prop_map(Op::Insert),
        t().prop_map(Op::Insert),
        t().prop_map(Op::Insert),
        (0i64..3, 0i64..4).prop_map(|(a, b)| Op::Remove(key(Some(a), Some(b)))),
        (0i64..3).prop_map(|a| Op::Remove(key(Some(a), None))),
        (0i64..4).prop_map(|b| Op::Remove(key(None, Some(b)))),
        proptest::collection::vec(t(), 1..6).prop_map(Op::InsertMany),
        proptest::collection::vec(t(), 1..6).prop_map(Op::BulkLoad),
        ts().prop_map(Op::InsertMany),
        ts().prop_map(Op::BulkLoad),
        proptest::collection::vec((0i64..3, 0i64..4), 1..3).prop_map(|ks| Op::RemoveMany(
            ks.into_iter().map(|(a, b)| key(Some(a), Some(b))).collect()
        )),
        (0i64..4, 0i64..4).prop_map(move |(lo, hi)| Op::RemoveWhere(
            Pattern::new().with(cb, Pred::Between(Value::from(lo), Value::from(hi)))
        )),
        (0i64..3, 0i64..4, 0i64..3).prop_map(move |(a, b, v)| Op::Update {
            pattern: key(Some(a), Some(b)),
            changes: Tuple::from_pairs([(cv, Value::from(v))]),
        }),
    ]
}

/// Applies `op` to every relation and to `model`. Returns whether the
/// model still holds the relations' state: a batch is atomic per shard,
/// so once a batch spanning shards has been refused, the model's
/// whole-batch fold may differ from what the shards kept.
fn apply(rels: &[&DurableRelation], model: &mut Relation, op: &Op) -> bool {
    let [ca, cb, _] = abv();
    let mut exact = true;
    for r in rels {
        // Only inserts may fail (duplicate keys with other payloads).
        let res = r.apply(op.clone());
        if let Op::InsertMany(ts) | Op::BulkLoad(ts) = op {
            let shard = |t| r.relation().owning_shard(t);
            exact &= res.is_ok() || ts.iter().all(|t| shard(t) == shard(&ts[0]));
        } else if !matches!(op, Op::Insert(_)) {
            res.unwrap();
        }
    }
    model_apply(model, ca | cb, op);
    exact
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
        let mut model = Relation::empty(cat.all());
        let mut exact = true;
        for (i, op) in ops.iter().enumerate() {
            if i == cut {
                // Mid-log: one arm checkpoints (truncating its log), and
                // both log a migration epoch marker.
                r_ck.checkpoint().unwrap();
                let migrate = Op::Migrate(cs[to].to_let_notation(&cat));
                apply(&[&r_ck, &r_log], &mut model, &migrate);
            }
            exact &= apply(&[&r_ck, &r_log], &mut model, op);
        }
        r_ck.commit().unwrap();
        r_log.commit().unwrap();
        let live = r_log.to_relation();
        if exact {
            prop_assert_eq!(&live, &model, "the log arm diverged from the model");
        }
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
        let mut model = Relation::empty(cat.all());
        let mut exact = true;
        for op in &ops {
            exact &= apply(&[&r], &mut model, op);
        }
        if checkpoint {
            r.checkpoint().unwrap();
        }
        r.commit().unwrap();
        let live = r.to_relation();
        if exact {
            prop_assert_eq!(&live, &model);
        }
        drop(r);
        for _ in 0..3 {
            let rec = DurableRelation::open(&dir, GroupCommitPolicy::manual()).unwrap();
            prop_assert_eq!(rec.to_relation(), live.clone());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
