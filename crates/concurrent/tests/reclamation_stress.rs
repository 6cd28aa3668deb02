//! Reclamation-safety stress tests for the epoch-based write path.
//!
//! The invariant being re-proven (the tentpole changed it): published
//! snapshots no longer own immutable clones — they pin epochs over a
//! shared persistent store, writers mutate in place, and replaced
//! snapshots park on per-shard limbo lists until no pinned reader can
//! hold them. These tests check, under single-threaded determinism,
//! multi-threaded churn, and randomized (proptest) schedules:
//!
//! * a pinned [`ReadHandle`](relic_concurrent::ReadHandle) keeps exactly
//!   its frozen state answerable — hundreds of mutation epochs and full
//!   migrations later, its cached view still replays the model state at
//!   its pin time, bit for bit;
//! * retired snapshots accumulate on limbo (`limbo_len`/`limbo_bytes`)
//!   precisely while a stale pin exists, and dropping the pinning handle
//!   lets the whole retired chain drain;
//! * no view ever observes a partially-drained limbo state: draining is
//!   invisible to readers — every live view keeps answering exactly its
//!   pin-time model no matter how many grace periods expire around it;
//! * the multi-threaded melee still replays exactly against the
//!   single-threaded reference model (commuting per-thread histories).

use proptest::prelude::*;
use relic_concurrent::ConcurrentRelation;
use relic_core::RelRead;
use relic_decomp::parse;
use relic_spec::{Catalog, ColId, RelSpec, Relation, Tuple, Value};
use std::sync::atomic::{AtomicBool, Ordering};

struct Cols {
    host: ColId,
    ts: ColId,
    bytes: ColId,
}

fn setup(shards: usize) -> (Catalog, Cols, ConcurrentRelation) {
    let mut cat = Catalog::new();
    let d = parse(
        &mut cat,
        "let u : {host,ts} . {bytes} = unit {bytes} in
         let h : {host} . {ts,bytes} = {ts} -[avl]-> u in
         let x : {} . {host,ts,bytes} = {host} -[htable]-> h in x",
    )
    .unwrap();
    let cols = Cols {
        host: cat.col("host").unwrap(),
        ts: cat.col("ts").unwrap(),
        bytes: cat.col("bytes").unwrap(),
    };
    let spec = RelSpec::new(cat.all()).with_fd(cols.host | cols.ts, cols.bytes.set());
    let r = ConcurrentRelation::new(&cat, spec, d, cols.host.set(), shards).unwrap();
    (cat, cols, r)
}

fn tup(cols: &Cols, h: i64, t: i64, b: i64) -> Tuple {
    Tuple::from_pairs([
        (cols.host, Value::from(h)),
        (cols.ts, Value::from(t)),
        (cols.bytes, Value::from(b)),
    ])
}

/// Satellite test for the retention fix: a long-held `ReadHandle` parks
/// the retired chain on limbo (observable via `limbo_len`/`limbo_bytes`/
/// `pinned_epoch_lag`), `reclaim` cannot free past the pin, and dropping
/// the handle lets the entire chain drain.
#[test]
fn dropped_handle_lets_the_retired_chain_drain() {
    let (_cat, cols, r) = setup(4);
    for h in 0..8i64 {
        for t in 0..4i64 {
            r.insert(tup(&cols, h, t, h + t)).unwrap();
        }
    }
    // Settle: nothing pinned yet, limbo must be drainable to empty.
    r.reclaim();

    // A stale pin: `hoarder` collects once and never refreshes. Its model
    // is the committed state right now.
    let frozen = r.to_relation();
    let hoarder = r.read_handle();
    // An active reader: refreshes after every epoch, so each mutation
    // replaces a still-referenced published snapshot (which must then be
    // retired, not torn down).
    let mut active = r.read_handle();

    const EPOCHS: usize = 300;
    for e in 0..EPOCHS {
        let h = (e % 8) as i64;
        let t = (e % 4) as i64;
        let chg = Tuple::from_pairs([(cols.bytes, Value::from(e as i64))]);
        let key = Tuple::from_pairs([(cols.host, Value::from(h)), (cols.ts, Value::from(t))]);
        r.apply(relic_core::Op::Update {
            pattern: key,
            changes: chg,
        })
        .unwrap();
        let v = active.view();
        assert_eq!(v.len(), frozen.len());
    }

    // The chain is parked: retired snapshots accumulated behind the
    // hoarder's pin, and the writer-side drains could not free them.
    assert!(r.limbo_len() > 0, "stale pin must park retired snapshots");
    assert!(r.limbo_bytes() > 0, "parked snapshots must be accounted");
    // Pigeonhole: the heaviest of the 4 shards absorbed ≥ EPOCHS/4
    // publishes, all behind the hoarder's pin.
    assert!(
        r.pinned_epoch_lag() >= EPOCHS as u64 / 4,
        "the stale pin must show up as epoch lag"
    );
    assert_eq!(
        r.reclaim(),
        0,
        "reclaim must not free snapshots a pinned reader may hold"
    );
    let parked = r.limbo_len();

    // The hoarder still answers exactly from its pin-time state.
    for h in 0..8i64 {
        let pat = Tuple::from_pairs([(cols.host, Value::from(h))]);
        assert_eq!(
            hoarder.cached().query(&pat, cols.ts | cols.bytes).unwrap(),
            frozen.query(&pat, cols.ts | cols.bytes),
            "a pinned view diverged from its pin-time state"
        );
    }

    // Dropping the pin lets the whole chain drain.
    drop(hoarder);
    let freed = r.reclaim();
    assert!(freed >= parked.saturating_sub(1), "the chain must drain");
    assert_eq!(r.limbo_len(), 0, "limbo must be empty after the drain");
    assert_eq!(r.limbo_bytes(), 0, "limbo bytes must return to zero");

    // The active handle is pinned at the current epochs: no lag left.
    active.view();
    assert_eq!(r.pinned_epoch_lag(), 0, "a fresh pin has no lag");
    drop(active);
    r.validate().unwrap();
}

/// A deterministic splitmix64 stream, seeded per thread.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One committed operation, as logged by a writer thread (the commuting
/// per-thread histories trick from `concurrent_stress.rs`: every op pins
/// `host`, threads own disjoint host slices).
enum Op {
    Insert(Tuple, bool),
    Remove(Tuple, usize),
    Update(Tuple, Tuple, bool),
}

fn replay(model: &mut Relation, op: &Op) {
    match op {
        Op::Insert(t, inserted) => {
            let had = model.contains(t);
            if *inserted {
                assert!(!had, "insert reported new but model already held it");
                model.insert(t.clone());
            } else {
                assert!(had, "no-op insert must be an exact duplicate");
            }
        }
        Op::Remove(pat, removed) => {
            assert_eq!(model.remove(pat), *removed, "remove count diverged");
        }
        Op::Update(key, chg, changed) => {
            let matched = !model.select(key).is_empty();
            assert_eq!(matched, *changed, "update outcome diverged");
            model.update(key, chg);
        }
    }
}

/// The reclamation melee: readers hold pinned views across hundreds of
/// mutation epochs *including full migrations* while writers churn and
/// drains run after every epoch — then the committed history replays
/// exactly against the reference model and limbo drains to empty.
#[test]
fn pinned_views_survive_hundreds_of_epochs_and_migrations() {
    const WRITERS: usize = 3;
    const OPS: usize = 250;
    const HOSTS_PER_WRITER: i64 = 5;
    const TS_DOM: u64 = 8;
    let (mut cat, cols, r) = setup(4);
    let d_flat = parse(
        &mut cat,
        "let u : {host,ts} . {bytes} = unit {bytes} in
         let x : {} . {host,ts,bytes} = {host,ts} -[avl]-> u in x",
    )
    .unwrap();
    let d_nested = r.read_view().shard(0).decomposition().clone();
    // A stable slice (hosts ≥ 1000) no writer touches: the long-held
    // views check their frozen answers against it.
    let mut stable = Relation::empty(cat.all());
    for h in 1000..1006i64 {
        for t in 0..4i64 {
            let tu = tup(&cols, h, t, h - t);
            r.insert(tu.clone()).unwrap();
            stable.insert(tu);
        }
    }
    let done = AtomicBool::new(false);
    let r = &r;
    let cols = &cols;
    let stable = &stable;
    let logs: Vec<Vec<Op>> = std::thread::scope(|s| {
        // Long-held readers: each pins a handle, holds it across many
        // epochs (validating the frozen stable slice on every poll), and
        // only then refreshes — so grace periods are long and limbo
        // genuinely accumulates while they hold.
        let readers: Vec<_> = (0..2)
            .map(|ri| {
                let done = &done;
                s.spawn(move || {
                    let mut held = 0usize;
                    while !done.load(Ordering::Acquire) {
                        let handle = r.read_handle();
                        let pin_time = handle.cached().to_relation();
                        // Hold the pin across ~100 polls of the melee.
                        for _ in 0..100 {
                            for h in [1000i64, 1003 + ri as i64] {
                                let pat = Tuple::from_pairs([(cols.host, Value::from(h))]);
                                assert_eq!(
                                    handle.cached().query(&pat, cols.ts | cols.bytes).unwrap(),
                                    stable.query(&pat, cols.ts | cols.bytes),
                                    "a pinned view lost stable data mid-hold"
                                );
                            }
                            assert_eq!(
                                handle.cached().len(),
                                pin_time.len(),
                                "a pinned view's cardinality drifted"
                            );
                        }
                        // The full frozen state still replays exactly.
                        assert_eq!(
                            handle.cached().to_relation(),
                            pin_time,
                            "a pinned view diverged from its pin-time state"
                        );
                        drop(handle);
                        held += 1;
                    }
                    held
                })
            })
            .collect();
        let migrator = s.spawn(move || {
            for i in 0..10 {
                let target = if i % 2 == 0 { &d_flat } else { &d_nested };
                r.migrate_to(target.clone()).unwrap();
            }
        });
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                s.spawn(move || {
                    let mut rng = Rng(0xEB0C_0000 + w as u64);
                    let mut log: Vec<Op> = Vec::with_capacity(OPS);
                    let base = w as i64 * HOSTS_PER_WRITER;
                    for _ in 0..OPS {
                        let h = base + rng.below(HOSTS_PER_WRITER as u64) as i64;
                        let t = rng.below(TS_DOM) as i64;
                        match rng.below(10) {
                            0..=5 => {
                                let tu = tup(cols, h, t, (t * 3) % 7);
                                if let Ok(ins) = r.insert(tu.clone()) {
                                    log.push(Op::Insert(tu, ins));
                                }
                            }
                            6 | 7 => {
                                let key = Tuple::from_pairs([
                                    (cols.host, Value::from(h)),
                                    (cols.ts, Value::from(t)),
                                ]);
                                let chg = Tuple::from_pairs([(
                                    cols.bytes,
                                    Value::from(rng.below(512) as i64),
                                )]);
                                let update = relic_core::Op::Update {
                                    pattern: key.clone(),
                                    changes: chg.clone(),
                                };
                                let did = r.apply(update).unwrap() == 1;
                                log.push(Op::Update(key, chg, did));
                            }
                            _ => {
                                let pat = if rng.below(2) == 0 {
                                    Tuple::from_pairs([
                                        (cols.host, Value::from(h)),
                                        (cols.ts, Value::from(t)),
                                    ])
                                } else {
                                    Tuple::from_pairs([(cols.host, Value::from(h))])
                                };
                                let n = r.remove(&pat).unwrap();
                                log.push(Op::Remove(pat, n));
                            }
                        }
                    }
                    log
                })
            })
            .collect();
        migrator.join().expect("migrator thread");
        let logs: Vec<Vec<Op>> = writers
            .into_iter()
            .map(|h| h.join().expect("writer thread"))
            .collect();
        done.store(true, Ordering::Release);
        for h in readers {
            let held = h.join().expect("reader thread");
            assert!(held > 0, "each reader must have held pinned views");
        }
        logs
    });
    // Exact replay: thread by thread (disjoint pinned keyspaces commute).
    let mut model = stable.clone();
    for log in &logs {
        for op in log {
            replay(&mut model, op);
        }
    }
    r.validate().unwrap();
    assert_eq!(r.to_relation(), model, "locked α diverged from the model");
    let view = r.read_view();
    assert_eq!(view.to_relation(), model, "view α diverged from the model");
    // Every handle is gone: the retired chain must fully drain.
    drop(view);
    r.reclaim();
    assert_eq!(r.limbo_len(), 0, "limbo must drain once all pins drop");
    assert_eq!(r.limbo_bytes(), 0);
    assert_eq!(r.pinned_epoch_lag(), 0);
}

/// A randomized schedule step for the proptest below.
#[derive(Debug, Clone)]
enum Step {
    Insert(i64, i64, i64),
    Remove(i64),
    Update(i64, i64, i64),
    Migrate,
    NewHandle,
    DropHandle(usize),
    RefreshHandle(usize),
    Reclaim,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    // Uniform choice (the vendored prop_oneof! has no weights): inserts
    // and updates appear twice to bias the schedule toward mutation.
    prop_oneof![
        (0i64..6, 0i64..4, 0i64..16).prop_map(|(h, t, b)| Step::Insert(h, t, b)),
        (0i64..6, 0i64..4, 0i64..16).prop_map(|(h, t, b)| Step::Insert(h, t, b)),
        (0i64..6).prop_map(Step::Remove),
        (0i64..6, 0i64..4, 0i64..16).prop_map(|(h, t, b)| Step::Update(h, t, b)),
        (0i64..6, 0i64..4, 0i64..16).prop_map(|(h, t, b)| Step::Update(h, t, b)),
        Just(Step::Migrate),
        Just(Step::NewHandle),
        Just(Step::NewHandle),
        (0usize..4).prop_map(Step::DropHandle),
        (0usize..4).prop_map(Step::RefreshHandle),
        (0usize..4).prop_map(Step::RefreshHandle),
        Just(Step::Reclaim),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// No view ever observes a partially-drained limbo state: under a
    /// randomized schedule of mutations, migrations, handle churn, and
    /// explicit `reclaim` calls, every live handle's cached view replays
    /// *exactly* the model state at its pin time after every step —
    /// drains (and the retired snapshots they tear down) are never
    /// visible to any reader. Limbo accounting invariants hold
    /// throughout, and dropping every handle drains limbo to empty.
    #[test]
    fn views_never_observe_partial_drains(
        steps in proptest::collection::vec(step_strategy(), 10..80),
        shards in 1usize..4,
    ) {
        let (mut cat, cols, r) = setup(shards);
        let d_flat = parse(
            &mut cat,
            "let u : {host,ts} . {bytes} = unit {bytes} in
             let x : {} . {host,ts,bytes} = {host,ts} -[avl]-> u in x",
        )
        .unwrap();
        let d_nested = r.read_view().shard(0).decomposition().clone();
        let mut model = Relation::empty(cat.all());
        // Live handles, each paired with the model state at its pin time.
        let mut handles: Vec<(relic_concurrent::ReadHandle<'_>, Relation)> = Vec::new();
        let mut migrations = 0usize;
        for step in &steps {
            match step {
                Step::Insert(h, t, b) => {
                    let tu = tup(&cols, *h, *t, *b);
                    if r.insert(tu.clone()).unwrap_or(false) {
                        model.insert(tu);
                    }
                }
                Step::Remove(h) => {
                    let pat = Tuple::from_pairs([(cols.host, Value::from(*h))]);
                    let n = r.remove(&pat).unwrap();
                    prop_assert_eq!(model.remove(&pat), n);
                }
                Step::Update(h, t, b) => {
                    let key = Tuple::from_pairs([
                        (cols.host, Value::from(*h)),
                        (cols.ts, Value::from(*t)),
                    ]);
                    let chg = Tuple::from_pairs([(cols.bytes, Value::from(*b))]);
                    let update = relic_core::Op::Update {
                        pattern: key.clone(),
                        changes: chg.clone(),
                    };
                    let did = r.apply(update).unwrap() == 1;
                    prop_assert_eq!(did, !model.select(&key).is_empty());
                    model.update(&key, &chg);
                }
                Step::Migrate => {
                    migrations += 1;
                    let target = if migrations % 2 == 1 { &d_flat } else { &d_nested };
                    r.migrate_to(target.clone()).unwrap();
                }
                Step::NewHandle => {
                    if handles.len() < 4 {
                        handles.push((r.read_handle(), model.clone()));
                    }
                }
                Step::DropHandle(i) => {
                    if !handles.is_empty() {
                        handles.remove(i % handles.len());
                    }
                }
                Step::RefreshHandle(i) => {
                    if !handles.is_empty() {
                        let n = handles.len();
                        let (h, m) = &mut handles[i % n];
                        h.view();
                        *m = model.clone();
                    }
                }
                Step::Reclaim => {
                    r.reclaim();
                }
            }
            // The reclamation-safety property: after *every* step, every
            // live handle still replays exactly its pin-time model —
            // whatever was retired or drained around it.
            for (h, m) in &handles {
                prop_assert_eq!(
                    &h.cached().to_relation(),
                    m,
                    "a view observed state changing under its pin"
                );
            }
            // Accounting never goes inconsistent.
            if r.limbo_len() == 0 {
                prop_assert_eq!(r.limbo_bytes(), 0);
            }
        }
        r.validate().unwrap();
        prop_assert_eq!(&r.to_relation(), &model);
        handles.clear();
        r.reclaim();
        prop_assert_eq!(r.limbo_len(), 0, "limbo must drain once all pins drop");
        prop_assert_eq!(r.limbo_bytes(), 0);
    }
}
