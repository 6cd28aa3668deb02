//! Concurrent stress/model tests: randomized multi-threaded op mixes
//! against [`ConcurrentRelation`] with wait-free readers spinning on
//! [`read_view`](ConcurrentRelation::read_view), then an exact replay of
//! the committed history against the single-threaded reference model.
//!
//! The harness exploits commutativity: each writer thread owns a disjoint
//! slice of the `host` keyspace (the shard columns), and every operation it
//! issues *pins* `host` — so the committed histories of different threads
//! commute, and replaying the per-thread logs in any thread order (here:
//! thread by thread, in-thread order preserved) must land on exactly the
//! final state. Readers run during the melee and check, on every view they
//! collect, invariants no interleaving is allowed to break:
//!
//! * the view's bookkeeping agrees with its α (`len == to_relation().len`),
//! * the specification's functional dependencies hold on the view — an
//!   FD-violating view would mean a reader caught a shard mid-mutation
//!   (published snapshots are committed per-shard states, so this can
//!   never happen),
//! * pinned point queries against the view agree with the view's own α.

use relic_concurrent::ConcurrentRelation;
use relic_core::RelRead;
use relic_decomp::parse;
use relic_spec::{Catalog, RelSpec, Relation, Tuple, Value};
use std::sync::atomic::{AtomicBool, Ordering};

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

struct Cols {
    host: relic_spec::ColId,
    ts: relic_spec::ColId,
    bytes: relic_spec::ColId,
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

/// One committed operation, as logged by a writer thread.
enum Op {
    /// `insert` returned `Ok(inserted)`.
    Insert(Tuple, bool),
    /// `insert_many` over the batch returned `Ok(n)` or `Err` after the
    /// fold prefix; `accepted` is the returned count on success, or the
    /// fold-prefix count reconstructed by the replay on error.
    InsertMany(Vec<Tuple>, Option<usize>),
    /// A pinned `remove` returned `Ok(n)`.
    Remove(Tuple, usize),
    /// A pinned `update` returned `Ok(changed)`.
    Update(Tuple, Tuple, bool),
}

/// Replays a committed op against the reference model, asserting the
/// logged outcome. `insert_many` is replayed as the fold it is specified
/// to be equivalent to (exact duplicates are no-ops, the first
/// FD-conflicting tuple stops the fold).
fn replay(model: &mut Relation, cols: &Cols, op: &Op) {
    match op {
        Op::Insert(t, inserted) => {
            let had = model.contains(t);
            if *inserted {
                assert!(!had, "insert reported new but model already held it");
                model.insert(t.clone());
            } else {
                // A false insert is an exact duplicate (FD errors are not
                // logged as committed ops).
                assert!(had, "no-op insert must be an exact duplicate");
            }
        }
        Op::InsertMany(batch, accepted) => {
            let mut n = 0usize;
            for t in batch {
                if model.contains(t) {
                    continue; // exact duplicate: fold no-op
                }
                let key = t.project(cols.host | cols.ts);
                if !model.query(&key, cols.bytes.set()).is_empty() {
                    break; // FD conflict: the fold stops here
                }
                model.insert(t.clone());
                n += 1;
            }
            if let Some(accepted) = accepted {
                assert_eq!(n, *accepted, "insert_many accepted-count diverged");
            }
        }
        Op::Remove(pat, removed) => {
            let n = model.remove(pat);
            assert_eq!(n, *removed, "remove count diverged");
        }
        Op::Update(key, chg, changed) => {
            let matched = !model.select(key).is_empty();
            assert_eq!(matched, *changed, "update outcome diverged");
            model.update(key, chg);
        }
    }
}

/// The main stress/model test: 4 writer threads on disjoint host slices,
/// 3 wait-free readers spinning on views, then exact replay agreement.
#[test]
fn randomized_mix_replays_exactly_against_the_model() {
    const WRITERS: usize = 4;
    const READERS: usize = 3;
    const OPS: usize = 300;
    const HOSTS_PER_WRITER: i64 = 6;
    const TS_DOM: u64 = 12;
    let (cat, cols, r) = setup(8);
    let r = &r;
    let cols = &cols;
    let done = AtomicBool::new(false);
    let logs: Vec<Vec<Op>> = std::thread::scope(|s| {
        let readers: Vec<_> = (0..READERS)
            .map(|ri| {
                let done = &done;
                s.spawn(move || {
                    let mut views = 0usize;
                    let mut rng = Rng(0xC0FFEE + ri as u64);
                    while !done.load(Ordering::Acquire) {
                        let view = r.read_view();
                        let alpha = view.to_relation();
                        assert_eq!(view.len(), alpha.len(), "view bookkeeping diverged from α");
                        let spec = view.shard(0).spec().clone();
                        assert!(
                            spec.fds().holds_on(&alpha),
                            "a view observed an FD-violating (mid-mutation) state"
                        );
                        // A pinned point query answers from the same frozen
                        // state as the view's α.
                        let h = rng.below((WRITERS as u64) * HOSTS_PER_WRITER as u64) as i64;
                        let pat = Tuple::from_pairs([(cols.host, Value::from(h))]);
                        assert_eq!(
                            view.query(&pat, cols.ts | cols.bytes).unwrap(),
                            alpha.query(&pat, cols.ts | cols.bytes),
                            "pinned view query diverged from the view's α"
                        );
                        views += 1;
                    }
                    views
                })
            })
            .collect();
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                s.spawn(move || {
                    let mut rng = Rng(0xBADD_CAFE + w as u64);
                    let mut log: Vec<Op> = Vec::with_capacity(OPS);
                    let base = w as i64 * HOSTS_PER_WRITER;
                    let host = |rng: &mut Rng| base + rng.below(HOSTS_PER_WRITER as u64) as i64;
                    for _ in 0..OPS {
                        match rng.below(10) {
                            // 0-4: single insert (sometimes an exact dup,
                            // sometimes an FD conflict — conflicts are
                            // rejected and not logged).
                            0..=4 => {
                                let (h, t) = (host(&mut rng), rng.below(TS_DOM) as i64);
                                let b = (t * 7) % 5 + rng.below(2) as i64 * 1000;
                                let tu = tup(cols, h, t, b);
                                // An Err is an FD conflict: not committed,
                                // not logged.
                                if let Ok(ins) = r.insert(tu.clone()) {
                                    log.push(Op::Insert(tu, ins));
                                }
                            }
                            // 5-6: a pinned batch over this writer's hosts.
                            5 | 6 => {
                                let n = 2 + rng.below(6) as i64;
                                let h = host(&mut rng);
                                let t0 = rng.below(TS_DOM) as i64;
                                let batch: Vec<Tuple> = (0..n)
                                    .map(|i| {
                                        let t = (t0 + i) % TS_DOM as i64;
                                        tup(cols, h, t, (t * 7) % 5)
                                    })
                                    .collect();
                                match r.apply(relic_core::Op::InsertMany(batch.clone())) {
                                    Ok(acc) => log.push(Op::InsertMany(batch, Some(acc))),
                                    Err(_) => log.push(Op::InsertMany(batch, None)),
                                }
                            }
                            // 7: pinned removal (full key or whole host).
                            7 => {
                                let h = host(&mut rng);
                                let pat = if rng.below(2) == 0 {
                                    Tuple::from_pairs([
                                        (cols.host, Value::from(h)),
                                        (cols.ts, Value::from(rng.below(TS_DOM) as i64)),
                                    ])
                                } else {
                                    Tuple::from_pairs([(cols.host, Value::from(h))])
                                };
                                let n = r.remove(&pat).unwrap();
                                log.push(Op::Remove(pat, n));
                            }
                            // 8: pinned key update of the payload.
                            8 => {
                                let key = Tuple::from_pairs([
                                    (cols.host, Value::from(host(&mut rng))),
                                    (cols.ts, Value::from(rng.below(TS_DOM) as i64)),
                                ]);
                                let chg = Tuple::from_pairs([(
                                    cols.bytes,
                                    Value::from(rng.below(2000) as i64),
                                )]);
                                let update = relic_core::Op::Update {
                                    pattern: key.clone(),
                                    changes: chg.clone(),
                                };
                                let did = r.apply(update).unwrap() == 1;
                                log.push(Op::Update(key, chg, did));
                            }
                            // 9: atomic read-modify-write in the partition.
                            _ => {
                                let h = host(&mut rng);
                                let t = rng.below(TS_DOM) as i64;
                                let key = Tuple::from_pairs([
                                    (cols.host, Value::from(h)),
                                    (cols.ts, Value::from(t)),
                                ]);
                                let op = r.with_partition_mut(&key, |shard| {
                                    match shard.query(&key, cols.bytes.set()).unwrap().first() {
                                        Some(row) => {
                                            let cur = row
                                                .get(cols.bytes)
                                                .and_then(Value::as_int)
                                                .unwrap();
                                            let chg = Tuple::from_pairs([(
                                                cols.bytes,
                                                Value::from(cur + 1),
                                            )]);
                                            shard.update(&key, &chg).unwrap();
                                            Op::Update(key.clone(), chg, true)
                                        }
                                        None => {
                                            let tu = tup(cols, h, t, 1);
                                            shard.insert(tu.clone()).unwrap();
                                            Op::Insert(tu, true)
                                        }
                                    }
                                });
                                log.push(op);
                            }
                        }
                    }
                    log
                })
            })
            .collect();
        let logs: Vec<Vec<Op>> = writers
            .into_iter()
            .map(|h| h.join().expect("writer thread"))
            .collect();
        done.store(true, Ordering::Release);
        for h in readers {
            let views = h.join().expect("reader thread");
            assert!(views > 0, "each reader must have validated views");
        }
        logs
    });
    // Replay: thread by thread (the histories commute — disjoint pinned
    // keyspaces), in-thread order preserved.
    let mut model = Relation::empty(cat.all());
    for log in &logs {
        for op in log {
            replay(&mut model, cols, op);
        }
    }
    r.validate().unwrap();
    // Exact tuple-set agreement, through both the locked path and a view.
    assert_eq!(r.to_relation(), model, "locked α diverged from the model");
    let view = r.read_view();
    assert_eq!(view.to_relation(), model, "view α diverged from the model");
    assert_eq!(view.len(), model.len());
    // Query-answer agreement across representative signatures.
    for h in 0..(WRITERS as i64 * HOSTS_PER_WRITER) {
        let pat = Tuple::from_pairs([(cols.host, Value::from(h))]);
        assert_eq!(
            view.query(&pat, cols.ts | cols.bytes).unwrap(),
            model.query(&pat, cols.ts | cols.bytes)
        );
    }
    for t in 0..TS_DOM as i64 {
        let pat = Tuple::from_pairs([(cols.ts, Value::from(t))]);
        assert_eq!(
            view.query(&pat, cols.host | cols.bytes).unwrap(),
            model.query(&pat, cols.host | cols.bytes)
        );
    }
    assert_eq!(
        view.query(&Tuple::empty(), cat.all()).unwrap(),
        model.query(&Tuple::empty(), cat.all())
    );
}

/// Migration-vs-snapshot interaction, under concurrency: while one thread
/// flip-flops the representation with `migrate_to` (each an all-shard
/// epoch) and another churns pinned writes, readers collect views and must
/// always see (a) a single decomposition across every shard of a view —
/// never a mix — and (b) exactly the committed tuple set for stable hosts.
#[test]
fn migration_epochs_are_atomic_to_readers() {
    let (mut cat, cols, r) = setup(4);
    let d_flat = parse(
        &mut cat,
        "let u : {host,ts} . {bytes} = unit {bytes} in
         let x : {} . {host,ts,bytes} = {host,ts} -[avl]-> u in x",
    )
    .unwrap();
    let d_nested = r.read_view().shard(0).decomposition().clone();
    // Stable data on hosts 0..8 that no writer touches: every view must
    // answer for it identically, whatever representation it lands on.
    let mut stable = Relation::empty(cat.all());
    for h in 0..8i64 {
        for t in 0..6i64 {
            let tu = tup(&cols, h, t, h * t);
            r.insert(tu.clone()).unwrap();
            stable.insert(tu);
        }
    }
    let done = AtomicBool::new(false);
    let r = &r;
    let cols = &cols;
    std::thread::scope(|s| {
        let done_ref = &done;
        let migrator = {
            let (d_flat, d_nested) = (d_flat.clone(), d_nested.clone());
            s.spawn(move || {
                for i in 0..24 {
                    let target = if i % 2 == 0 { &d_flat } else { &d_nested };
                    r.migrate_to(target.clone()).unwrap();
                }
            })
        };
        // A churn writer on hosts ≥ 100 (disjoint from the stable slice).
        let churn = s.spawn(move || {
            let mut rng = Rng(7);
            while !done_ref.load(Ordering::Acquire) {
                let h = 100 + rng.below(4) as i64;
                let t = rng.below(8) as i64;
                r.insert(tup(cols, h, t, 0)).ok();
                if rng.below(3) == 0 {
                    r.remove(&Tuple::from_pairs([(cols.host, Value::from(h))]))
                        .unwrap();
                }
            }
        });
        for _ in 0..2 {
            let stable = &stable;
            s.spawn(move || {
                let mut last_epoch = 0u64;
                while !done_ref.load(Ordering::Acquire) {
                    let view = r.read_view();
                    let d0 = view.shard(0).decomposition();
                    for i in 1..view.shard_count() {
                        assert_eq!(
                            view.shard(i).decomposition(),
                            d0,
                            "a view mixed pre- and post-migration shards"
                        );
                    }
                    // The stable slice answers identically on every view.
                    for h in [0i64, 3, 7] {
                        let pat = Tuple::from_pairs([(cols.host, Value::from(h))]);
                        assert_eq!(
                            view.query(&pat, cols.ts | cols.bytes).unwrap(),
                            stable.query(&pat, cols.ts | cols.bytes),
                            "stable data diverged across a migration epoch"
                        );
                    }
                    assert!(view.epoch() >= last_epoch, "epochs are monotonic");
                    last_epoch = view.epoch();
                }
            });
        }
        migrator.join().expect("migrator thread");
        done.store(true, Ordering::Release);
        churn.join().expect("churn thread");
    });
    r.validate().unwrap();
    // Old views taken before a final migration stay on their decomposition.
    let before = r.read_view();
    let old_d = before.shard(0).decomposition().clone();
    r.migrate_to(if old_d == d_flat { d_nested } else { d_flat })
        .unwrap();
    let after = r.read_view();
    assert_eq!(before.shard(0).decomposition(), &old_d);
    assert_ne!(
        after.shard(0).decomposition(),
        &old_d,
        "new views are post-migration"
    );
    assert_eq!(before.to_relation(), after.to_relation());
}
