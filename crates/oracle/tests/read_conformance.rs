//! Every reader after every write: a [`ConcurrentRelation`] read through a
//! fresh `read_view()` — its one read path, which must read its own writes
//! after every mutation kind — and through a long-lived `ReadHandle`, both
//! with a pinned `fresh_for` read that re-checks only the owning shard and
//! with the whole refreshed view; and a `SynthRelation` live and through
//! its snapshot. Batches are atomic per shard and stop at the first shard
//! that refuses, as the model's per-shard fold says.

use relic_concurrent::ConcurrentRelation;
use relic_core::{Bindings, Op, RelRead};
use relic_decomp::Decomposition;
use relic_oracle::{check_cases, check_steps, run, Mix, Model, Sharded, Step, Synth, Universe};
use relic_spec::{ColSet, Pattern, Pred, Relation, Tuple, Value};
use std::collections::BTreeSet;

/// The steps `s` with a commit point, so a check of every reader, after each.
fn checked(s: &[Step]) -> Vec<Step> {
    s.iter().flat_map(|x| [x.clone(), Step::Commit]).collect()
}

/// Runs `steps` on `u`'s candidate `d` over `shards` shards.
fn sharded(u: &Universe, d: &Decomposition, shards: usize, steps: &[Step]) {
    let rel = ConcurrentRelation::new(&u.cat, u.spec.clone(), d.clone(), u.shard_cols, shards);
    let (rel, mut m) = (rel.unwrap(), Model::new(u, d));
    run(&mut Sharded::new(&rel), &mut m, steps);
}

#[test]
fn readers_conform_after_every_op_of_a_random_sequence() {
    let (u, mix) = (Universe::flows(), Mix::new(1..14, [0; 3]));
    let draw = |rng: &mut _| checked(&u.steps(rng, &mix));
    check_cases("readers_flows", &u, 12, draw, |i, d, steps| {
        run(&mut Synth::new(&u, d, true), &mut Model::new(&u, d), steps);
        sharded(&u, d, 1 + i as usize % 4, steps);
    });
}

/// Every mutation kind, pinned and unpinned where it has both forms, and a
/// batch refused on one shard of several, on one and four shards and on the
/// solo relation — deterministic, so a kind that stops republishing before
/// it returns fails here by name.
#[test]
fn every_mutation_kind_is_read_back_by_every_reader() {
    let u = Universe::flows();
    let col = |c| u.cat.col(c).unwrap();
    let t = |h, ts, b| u.tuple(&["host", "ts", "bytes"], &[h, ts, b]);
    // `(host, ts, bytes)` triples, back to back.
    let ts = |xs: &[i64]| xs.chunks(3).map(|x| t(x[0], x[1], x[2])).collect();
    let key = |h, ts| u.tuple(&["host", "ts"], &[h, ts]);
    let between = |lo: i64, hi: i64| Pred::Between(Value::from(lo), Value::from(hi));
    let update = |pattern, b| Op::Update {
        pattern,
        changes: u.tuple(&["bytes"], &[b]),
    };
    let [nested, flat] = [0, 1].map(|i| Op::Migrate(u.candidates[i].to_let_notation(&u.cat)));
    let script = [
        Op::Insert(t(1, 1, 11)),
        Op::Insert(t(2, 3, 23)),
        Op::Insert(t(1, 1, 11)),
        Op::Insert(t(1, 1, 12)),
        Op::InsertMany(ts(&[1, 2, 12, 3, 1, 31, 4, 4, 44, 1, 1, 11, 3, 1, 31])),
        Op::BulkLoad(ts(&[5, 0, 50, 5, 1, 51, 0, 7, 7, 2, 3, 23, 4, 2, 42])),
        Op::InsertMany(ts(&[0, 0, 0, 2, 3, 9, 5, 2, 52, 3, 3, 33])),
        update(key(1, 2), 99),
        update(key(9, 9), 1),
        Op::Remove(u.tuple(&["host"], &[3])),
        Op::Remove(u.tuple(&["ts"], &[1])),
        Op::RemoveWhere(
            Pattern::new()
                .with(col("host"), Pred::Eq(Value::from(5)))
                .with(col("ts"), between(0, 0)),
        ),
        Op::RemoveWhere(Pattern::new().with(col("ts"), between(3, 5))),
        Op::RemoveMany(vec![u.tuple(&["host"], &[4]), key(2, 3)]),
        flat,
        Op::Insert(t(0, 0, 0)),
        Op::InsertMany(ts(&[7, 7, 77, 1, 2, 99])),
        nested,
        Op::Remove(Tuple::empty()),
    ];
    let mut steps: Vec<Step> = script.into_iter().map(Step::Op).collect();
    steps.insert(8, Step::Rmw(t(1, 2, 100)));
    steps.insert(9, Step::Rmw(t(6, 6, 1)));
    let (steps, d) = (checked(&steps), &u.candidates[0]);
    check_steps("synth_every_kind", &u, d, steps.clone(), |s| {
        run(&mut Synth::new(&u, d, true), &mut Model::new(&u, d), s);
    });
    for shards in [1, 4] {
        check_steps("sharded_every_kind", &u, d, steps.clone(), |s| {
            sharded(&u, d, shards, s)
        });
    }
}

/// The collecting forms, on projections that repeat rows far past their
/// compaction floor, answer as a `BTreeSet` of the bindings stream does,
/// and that as the model does.
fn check_duplicate_heavy<R: RelRead>(r: &R, u: &Universe, model: &Relation) {
    let reference = |p: &Pattern, out: ColSet| {
        let mut set = BTreeSet::new();
        r.query_where_for_each_bindings(&mut Bindings::new(), p, out, |b| {
            set.insert(b.project(out));
        })
        .unwrap();
        set.into_iter().collect::<Vec<_>>()
    };
    let col = |c| u.cat.col(c).unwrap();
    let (host, bytes, all) = (col("host"), col("bytes"), Tuple::empty());
    let ranged = Pattern::new().with(col("ts"), Pred::Ge(Value::from(100)));
    for out in [host.set(), bytes.set(), host | bytes] {
        for p in [Pattern::new(), ranged.clone()] {
            let want = reference(&p, out);
            assert_eq!(want, model.query_where(&p, out), "{p:?} {out:?}");
            assert_eq!(r.query_where(&p, out).unwrap(), want, "{p:?} {out:?}");
        }
        assert_eq!(r.query(&all, out).unwrap(), model.query(&all, out));
    }
    assert_eq!(r.query(&all, host.set()).unwrap().len(), 3);
}

/// 6 000 rows projected onto a 3-valued column and a 1 500-valued one: the
/// sorted-vector collection compacts many times along the way.
#[test]
fn duplicate_heavy_projections_collect_as_a_set() {
    let (u, cols, row) = (Universe::flows(), ["host", "ts", "bytes"], |i| {
        [i % 3, i, i % 1500]
    });
    let rows: Vec<Tuple> = (0..6000).map(|i| u.tuple(&cols, &row(i))).collect();
    let model = Relation::from_tuples(u.spec.cols(), rows.clone());
    let (nested, flat) = (&u.candidates[0], &u.candidates[1]);
    let mut solo = Synth::new(&u, nested, true).rel;
    assert_eq!(solo.bulk_load(rows.clone()).unwrap(), rows.len());
    let rel =
        ConcurrentRelation::new(&u.cat, u.spec.clone(), flat.clone(), u.shard_cols, 2).unwrap();
    assert_eq!(rel.bulk_load(rows.clone()).unwrap(), rows.len());
    check_duplicate_heavy(&solo, &u, &model);
    check_duplicate_heavy(&solo.snapshot(), &u, &model);
    check_duplicate_heavy(&rel.read_view(), &u, &model);
    check_duplicate_heavy(rel.read_handle().view(), &u, &model);
}
