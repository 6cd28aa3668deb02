//! Batches on the interpreted path, on `a, b → v` with and without the
//! dependency over every container kind and the enumerated candidates:
//! every batch is held to the model's fold of its single writes (count,
//! first refused tuple, kept prefix), every commit point holds the store's
//! byte estimate to one `bulk_load` of the same tuples, and `Migrate`
//! moves between the candidates mid-run.

use proptest::test_runner::TestRng;
use relic_core::{Op, OpError, SynthRelation};
use relic_decomp::Decomposition;
use relic_oracle::{check_cases, check_steps, run, Mix, Model, Path, Step, Synth, Universe};
use relic_spec::Tuple;

/// Row `row`: 64 cases on `u`'s six container-kind candidates in turn, each
/// fewer than `seed` single inserts, then the write `last` draws; every step
/// is validated, and the byte estimate is held at the end.
fn fold_row(row: &str, mut u: Universe, seed: u64, last: impl Fn(&Universe, &mut TestRng) -> Op) {
    u.candidates.truncate(6);
    let draw = |rng: &mut TestRng| {
        let ins = |rng: &mut TestRng| Step::Op(Op::Insert(u.random_tuple(rng)));
        let mut steps: Vec<Step> = (0..rng.below(seed)).map(|_| ins(rng)).collect();
        steps.push(Step::Op(last(&u, rng)));
        steps
    };
    check_cases(row, &u, 64, draw, |_, d, s| {
        let mut p = Synth::new(&u, d, true);
        p.validate_steps = true;
        run(&mut p, &mut Model::new(&u, d), s);
        p.check_bytes();
    });
}

fn batch(u: &Universe, rng: &mut TestRng) -> Vec<Tuple> {
    (0..rng.below(24)).map(|_| u.random_tuple(rng)).collect()
}

/// On the accounting shape a fold of `insert` and a `bulk_load` of the same
/// 64 × 64 flows read the same byte estimate, and removing every flow
/// returns it to the empty store's.
#[test]
fn approx_bytes_follow_the_tuples_on_ipcap() {
    let u = Universe::flows();
    let (key, cols) = (u.spec.minimal_key(), ["host", "ts", "bytes"]);
    let flow = |i: i64| [i / 64, (i % 64) << 12, 40 * (i % 64)];
    let flows: Vec<Tuple> = (0..64 * 64).map(|i| u.tuple(&cols, &flow(i))).collect();
    let mut p = Synth::new(&u, &u.candidates[0], true);
    let empty = p.rel.store_approx_bytes();
    for t in &flows {
        assert_eq!(p.apply(Op::Insert(t.clone())), Ok(1));
    }
    assert!(p.rel.store_approx_bytes() > empty);
    p.check_bytes();
    for t in &flows {
        assert_eq!(p.apply(Op::Remove(t.project(key))), Ok(1));
    }
    assert_eq!(p.rel.store_approx_bytes(), empty);
}

#[test]
fn bulk_load_equals_insert_fold() {
    let u = Universe::abv(true);
    fold_row("bulk_load_fold", u, 8, |u, r| Op::BulkLoad(batch(u, r)));
}

#[test]
fn insert_many_equals_insert_fold() {
    let u = Universe::abv(true);
    fold_row("insert_many_fold", u, 8, |u, r| Op::InsertMany(batch(u, r)));
}

/// Without the dependency the key is every column: nothing conflicts, on
/// any container kind.
#[test]
fn bulk_load_without_fds_never_errors() {
    let u = Universe::abv(false);
    fold_row("bulk_load_no_fd", u, 1, |u, r| Op::BulkLoad(batch(u, r)));
}

#[test]
fn remove_many_equals_remove_fold() {
    fold_row("remove_many_fold", Universe::abv(false), 20, |u, rng| {
        Op::RemoveMany((0..rng.below(8)).map(|_| u.pattern(rng)).collect())
    });
}

/// A relation of `u` under `d` holding `stored`, inserted one by one.
fn holding(u: &Universe, d: &Decomposition, stored: &[Tuple]) -> SynthRelation {
    let mut r = SynthRelation::new(&u.cat, u.spec.clone(), d.clone()).unwrap();
    for t in stored {
        assert!(r.insert(t.clone()).unwrap());
    }
    r
}

/// A batch's outcome as the fold sees it: the count, or the refused tuple.
fn outcome(r: Result<usize, OpError>) -> Result<usize, Tuple> {
    r.map_err(|e| match e {
        OpError::FdViolation { tuple, .. } => tuple,
        e => panic!("unexpected {e}"),
    })
}

/// The batch walk decides which refusal comes first, as the fold does. On
/// `a, b → v` with the non-key dependency `b → v` beside it, on every
/// candidate: batches whose first refusal is a key conflict between two
/// batch rows, a key conflict with a stored tuple, a dependency violation
/// after an exact duplicate of a stored tuple, a key conflict after an
/// in-batch duplicate, and a dependency violation between batch rows.
/// `insert_many` and `bulk_load`, over the stored tuples and over an empty
/// relation, each match a fold of `insert` over the same rows: the count
/// or the refused tuple, and the tuples that went in.
#[test]
fn batch_refusals_follow_the_fold_order() {
    let mut u = Universe::abv(true);
    let [b, v] = ["b", "v"].map(|c| u.cat.col(c).unwrap());
    u.spec = u.spec.clone().with_fd(b.set(), v.set());
    let t = |a, b, v| u.tuple(&["a", "b", "v"], &[a, b, v]);
    let cases = [
        (
            "key conflict in the batch",
            vec![],
            vec![t(0, 0, 0), t(1, 1, 1), t(0, 0, 2)],
        ),
        (
            "key conflict with a stored tuple",
            vec![t(0, 0, 0)],
            vec![t(1, 1, 1), t(0, 0, 2), t(2, 2, 2)],
        ),
        (
            "dependency after a stored duplicate",
            vec![t(0, 0, 0)],
            vec![t(0, 0, 0), t(1, 0, 1), t(2, 2, 2)],
        ),
        (
            "conflict after an in-batch duplicate",
            vec![t(2, 2, 2)],
            vec![t(0, 0, 0), t(0, 0, 0), t(0, 0, 1)],
        ),
        (
            "dependency in the batch",
            vec![t(2, 2, 2)],
            vec![t(0, 1, 1), t(1, 1, 1), t(2, 1, 2)],
        ),
    ];
    for d in &u.candidates {
        for (case, stored, batch) in &cases {
            for stored in [&stored[..], &[]] {
                let mut fold = holding(&u, d, stored);
                let mut n = 0;
                let want = batch.iter().try_for_each(|t| {
                    n += usize::from(fold.insert(t.clone())?);
                    Ok(())
                });
                let want = outcome(want.map(|()| n));
                assert!(want.is_err() || stored.is_empty(), "{case}: no refusal");
                for bulk in [false, true] {
                    let mut r = holding(&u, d, stored);
                    let got = match bulk {
                        false => r.insert_many(batch.clone()),
                        true => r.bulk_load(batch.clone()),
                    };
                    let at = format!(
                        "{case} ({} into {} tuples) on\n{}",
                        if bulk { "bulk_load" } else { "insert_many" },
                        stored.len(),
                        d.to_let_notation(&u.cat)
                    );
                    assert_eq!(outcome(got), want, "{at}");
                    let all = Tuple::empty();
                    assert_eq!(
                        r.query_full(&all).unwrap(),
                        fold.query_full(&all).unwrap(),
                        "{at}"
                    );
                    r.validate().unwrap();
                }
            }
        }
    }
}

/// Random sequences with `Migrate` steps between all the candidates — the
/// drawn ones, one at the midpoint and one at the end: the tuples and the
/// representation are held to the model after every step, the relation or,
/// by turns, its snapshot at the end.
#[test]
fn migrate_preserves_tuples_and_answers() {
    let (u, mix) = (Universe::abv(true), Mix::new(1..30, [0; 3]));
    Synth::cases("synth_abv", &u, 64, |rng| {
        let mut steps = u.steps(rng, &mix);
        steps.insert(steps.len() / 2, u.migrate(rng));
        steps.push(u.migrate(rng));
        steps
    });
}

/// Twelve collision-rich tuples loaded under each candidate, then migrated
/// to every candidate in turn: the tuple set and decomposition are held to
/// the model and validated after every migration, every reader at the end.
#[test]
fn migrate_between_every_candidate_pair_preserves_everything() {
    let u = Universe::abv(true);
    let tuples = (0..12).map(|i| u.tuple(&["a", "b", "v"], &[i % 3, i % 4, (i % 3) * 10 + i % 4]));
    let mut steps = vec![Step::Op(Op::BulkLoad(tuples.collect()))];
    for d in &u.candidates {
        steps.push(Step::Op(Op::Migrate(d.to_let_notation(&u.cat))));
    }
    steps.push(Step::Commit);
    for d in &u.candidates {
        check_steps("synth_migrate_pairs", &u, d, steps.clone(), |s| {
            let mut p = Synth::new(&u, d, true);
            p.validate_steps = true;
            run(&mut p, &mut Model::new(&u, d), s);
        });
    }
}
