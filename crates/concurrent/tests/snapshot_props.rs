//! Property tests for the published-snapshot read path.
//!
//! The central property is **batch atomicity per shard**: for every
//! published epoch, a shard's snapshot reflects either none or all of any
//! `insert_many`/`bulk_load` batch slice applied to that shard — a reader
//! can never observe a torn per-shard batch. The harness stamps every
//! batch with a unique payload value and a private `ts` range, runs a
//! writer applying the batches while a reader samples views, and checks
//! that each host's count of batch-stamped tuples is always zero or full
//! (a host's tuples all route to one shard, so per-host atomicity *is*
//! per-shard atomicity here — and hosts sharing a shard additionally land
//! in the same per-shard group, which only strengthens the guarantee).
//!
//! A second property pins down migration-vs-snapshot interaction
//! deterministically: views taken before a `migrate_to` stay entirely on
//! the pre-migration representation and keep answering, views taken after
//! are entirely post-migration, and both agree on every answer.

use proptest::prelude::*;
use relic_concurrent::ConcurrentRelation;
use relic_core::RelRead;
use relic_decomp::parse;
use relic_spec::{Catalog, ColId, Pattern, Pred, RelSpec, Tuple, Value};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A snapshot never observes a torn per-shard batch: while a writer
    /// applies stamped `insert_many`/`bulk_load` batches, every sampled
    /// view shows, per host and per batch, either none or all of that
    /// host's slice of the batch.
    #[test]
    fn snapshots_never_observe_torn_batches(
        hosts in proptest::collection::vec(0i64..12, 1..6),
        per_host in 2usize..7,
        batches in 2usize..6,
        shards in 1usize..5,
        use_bulk in proptest::bool::ANY,
    ) {
        // Distinct hosts only (duplicates would double a batch's slice and
        // make "full" ambiguous).
        let mut hosts = hosts;
        hosts.sort_unstable();
        hosts.dedup();
        let (_cat, cols, r) = setup(shards);
        let cols = &cols;
        let r = &r;
        let hosts = &hosts;
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let done = &done;
            let writer = s.spawn(move || {
                for b in 0..batches {
                    // Batch b: `per_host` tuples for every host, all
                    // stamped bytes = b, in b's private ts range.
                    let t0 = (b * per_host) as i64;
                    let batch: Vec<Tuple> = hosts
                        .iter()
                        .flat_map(|&h| {
                            (0..per_host as i64).map(move |i| (h, t0 + i))
                        })
                        .map(|(h, t)| tup(cols, h, t, b as i64))
                        .collect();
                    let n = if use_bulk {
                        r.bulk_load(batch).unwrap()
                    } else {
                        r.insert_many(batch).unwrap()
                    };
                    assert_eq!(n, hosts.len() * per_host);
                }
                done.store(true, Ordering::Release);
            });
            let sampler = s.spawn(move || {
                let mut samples = 0usize;
                loop {
                    let finished = done.load(Ordering::Acquire);
                    let view = r.read_view();
                    for &h in hosts {
                        for b in 0..batches as i64 {
                            let t0 = b * per_host as i64;
                            let p = Pattern::new()
                                .with(cols.host, Pred::Eq(Value::from(h)))
                                .with(cols.ts, Pred::Between(
                                    Value::from(t0),
                                    Value::from(t0 + per_host as i64 - 1),
                                ));
                            let got = view.query_where(&p, cols.ts | cols.bytes).unwrap();
                            assert!(
                                got.is_empty() || got.len() == per_host,
                                "torn batch: host {h} shows {} of {} tuples of batch {b}",
                                got.len(),
                                per_host,
                            );
                            // And the stamp is uniform: no mixing with
                            // another batch's range.
                            for t in &got {
                                assert_eq!(
                                    t.get(cols.bytes).and_then(Value::as_int),
                                    Some(b),
                                    "batch {b} range shows foreign payload"
                                );
                            }
                        }
                    }
                    samples += 1;
                    if finished {
                        break;
                    }
                }
                samples
            });
            writer.join().expect("writer thread");
            let samples = sampler.join().expect("sampler thread");
            assert!(samples > 0);
        });
        // Terminal state: everything visible.
        let view = r.read_view();
        prop_assert_eq!(view.len(), hosts.len() * per_host * batches);
        r.validate().map_err(TestCaseError::fail)?;
    }

    /// Pre-migration views stay on the old representation and keep
    /// answering; post-migration views are entirely on the new one; both
    /// agree on every answer (the tuple set is preserved).
    #[test]
    fn old_views_survive_migration_new_views_follow(
        seed in proptest::collection::vec((0i64..6, 0i64..8), 1..24),
        shards in 1usize..5,
    ) {
        let (mut cat, cols, r) = setup(shards);
        for &(h, t) in &seed {
            let _ = r.insert(tup(&cols, h, t, h + t));
        }
        let before = r.read_view();
        let old_d = before.shard(0).decomposition().clone();
        for i in 0..before.shard_count() {
            prop_assert_eq!(before.shard(i).decomposition(), &old_d);
        }
        let flat = parse(
            &mut cat,
            "let u : {host,ts} . {bytes} = unit {bytes} in
             let x : {} . {host,ts,bytes} = {host,ts} -[avl]-> u in x",
        )
        .unwrap();
        r.migrate_to(flat.clone()).unwrap();
        let after = r.read_view();
        for i in 0..after.shard_count() {
            prop_assert_eq!(after.shard(i).decomposition(), &flat);
            prop_assert_eq!(before.shard(i).decomposition(), &old_d);
        }
        prop_assert_eq!(before.to_relation(), after.to_relation());
        for h in 0..6i64 {
            let pat = Tuple::from_pairs([(cols.host, Value::from(h))]);
            prop_assert_eq!(
                before.query(&pat, cols.ts | cols.bytes).unwrap(),
                after.query(&pat, cols.ts | cols.bytes).unwrap()
            );
        }
        // The old view keeps answering even after further mutations and a
        // second migration retire its representation entirely.
        let frozen = before.to_relation();
        r.insert(tup(&cols, 50, 0, 0)).unwrap();
        r.migrate_to(old_d).unwrap();
        prop_assert_eq!(before.to_relation(), frozen);
        r.validate().map_err(TestCaseError::fail)?;
    }
}
