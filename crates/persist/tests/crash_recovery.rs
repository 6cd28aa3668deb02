//! Crash-injection recovery tests: drive randomized op mixes through a
//! [`DurableRelation`], then simulate a crash by truncating (or
//! corrupting) the write-ahead log at **every byte boundary of the final
//! record** — and at every record boundary of the whole log — and assert
//! the recovered relation exactly equals the reference model at the last
//! durable prefix.
//!
//! The reference model replays the *log records* (not the driver's
//! intentions) through [`common::model_apply`]. An op is logged whether
//! it failed or not — the ones logged lowered (a predicate removal, an
//! update) as what they did — so a record whose operation failed live
//! fails identically in the model: the model and the engine agree at
//! every prefix, which the test verifies wholesale before injecting any
//! crash.

mod common;

use common::model_apply;
use relic_core::Op;
use relic_persist::{read_wal, DurableRelation, GroupCommitPolicy, WalRecord};
use relic_spec::{Catalog, ColSet, Pattern, Pred, RelSpec, Relation, Tuple, Value};
use std::path::{Path, PathBuf};

/// A deterministic splitmix64 stream.
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

const D_NESTED: &str = "let u : {host,ts} . {bytes} = unit {bytes} in
     let h : {host} . {ts,bytes} = {ts} -[avl]-> u in
     let x : {} . {host,ts,bytes} = {host} -[htable]-> h in x";
const D_FLAT: &str = "let u : {host,ts} . {bytes} = unit {bytes} in
     let x : {} . {host,ts,bytes} = {host,ts} -[avl]-> u in x";

/// A fresh `(host, ts) → bytes` relation in `dir`, sharded four ways by
/// host.
fn create(dir: &Path) -> (Cols, DurableRelation) {
    let mut cat = Catalog::new();
    let d = relic_decomp::parse(&mut cat, D_NESTED).unwrap();
    let cols = Cols {
        host: cat.col("host").unwrap(),
        ts: cat.col("ts").unwrap(),
        bytes: cat.col("bytes").unwrap(),
    };
    let spec = RelSpec::new(cat.all()).with_fd(cols.host | cols.ts, cols.bytes.set());
    let policy = GroupCommitPolicy::manual();
    let r = DurableRelation::create(dir, &cat, spec, d, cols.host.set(), 4, true, policy).unwrap();
    (cols, r)
}

fn tup(cols: &Cols, h: i64, t: i64, b: i64) -> Tuple {
    Tuple::from_pairs([
        (cols.host, Value::from(h)),
        (cols.ts, Value::from(t)),
        (cols.bytes, Value::from(b)),
    ])
}

fn key(cols: &Cols, h: i64, t: i64) -> Tuple {
    Tuple::from_pairs([(cols.host, Value::from(h)), (cols.ts, Value::from(t))])
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("relic_crash_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Applies one logged record's ops to the reference model.
fn model_apply_record(model: &mut Relation, key: ColSet, rec: &WalRecord) {
    match rec {
        WalRecord::Meta { .. } | WalRecord::TermBump(_) => {}
        WalRecord::Op(op) => model_apply(model, key, op),
        WalRecord::Txn(ops) => ops.iter().for_each(|op| model_apply(model, key, op)),
    }
}

/// A randomized op mix (seeded) of `n` ops over every record kind:
/// singles, batches, pinned/unpinned removes, remove_many, predicate
/// removes, updates, and representation migrations.
fn script(cols: &Cols, seed: u64, n: usize) -> Vec<Op> {
    let mut rng = Rng(seed);
    const HOSTS: u64 = 8;
    const TS: u64 = 6;
    (0..n)
        .map(|_| {
            let h = rng.below(HOSTS) as i64;
            let t = rng.below(TS) as i64;
            let host = Tuple::from_pairs([(cols.host, Value::from(h))]);
            match rng.below(13) {
                // Single insert; small value domain forces duplicates and
                // FD conflicts (both logged, both deterministic).
                0..=4 => Op::Insert(tup(cols, h, t, (t % 3) + rng.below(2) as i64 * 100)),
                5 => Op::InsertMany(
                    (0..2 + rng.below(5) as i64)
                        .map(|i| {
                            let tt = (t + i) % TS as i64;
                            tup(cols, h, tt, tt % 3)
                        })
                        .collect(),
                ),
                6 => Op::BulkLoad(
                    (0..2 + rng.below(5) as i64)
                        .map(|i| tup(cols, (h + i) % HOSTS as i64, t, t % 3))
                        .collect(),
                ),
                // Pinned remove: full key or whole host.
                7 if rng.below(2) == 0 => Op::Remove(key(cols, h, t)),
                7 => Op::Remove(host),
                // Unpinned remove crosses every shard.
                8 => Op::Remove(Tuple::from_pairs([(cols.ts, Value::from(t))])),
                9 => Op::RemoveMany(vec![Tuple::from_pairs([(cols.ts, Value::from(t))]), host]),
                // A range removal, logged as the exact tuples it removed;
                // pinned to one host or across every shard.
                10 => {
                    let range = Pred::Between(Value::from(t.min(2)), Value::from(t));
                    let p = Pattern::new().with(cols.ts, range);
                    Op::RemoveWhere(if rng.below(2) == 0 {
                        p.with(cols.host, Pred::Eq(Value::from(h)))
                    } else {
                        p
                    })
                }
                11 => Op::Update {
                    pattern: key(cols, h, t),
                    changes: Tuple::from_pairs([(cols.bytes, Value::from(rng.below(50) as i64))]),
                },
                _ => Op::Migrate(if rng.below(2) == 0 { D_FLAT } else { D_NESTED }.to_string()),
            }
        })
        .collect()
}

/// Applies `ops` to `r`. Every other update runs instead as a partition
/// read-modify-write upsert (the ipcap accounting idiom: read the row,
/// replace it, or insert it when absent), logged as one compound record.
fn drive(r: &DurableRelation, ops: Vec<Op>) {
    let all = r.spec().cols();
    for (i, op) in ops.into_iter().enumerate() {
        match op {
            Op::Update { pattern, changes } if i % 2 == 0 => {
                r.with_partition_mut(&pattern, |p| {
                    let row = match p.query(&pattern, all).unwrap().first() {
                        Some(old) => {
                            p.remove(&pattern).unwrap();
                            old.merge(&changes)
                        }
                        None => pattern.merge(&changes),
                    };
                    p.insert(row).unwrap();
                })
                .unwrap();
            }
            // Only inserts may fail (duplicate keys with other payloads).
            op @ (Op::Insert(_) | Op::InsertMany(_) | Op::BulkLoad(_)) => {
                let _ = r.apply(op);
            }
            op => {
                r.apply(op).unwrap();
            }
        }
    }
}

/// Recovers `dir`'s state with the log file replaced by `wal_bytes`.
fn recover_with_log(dir: &Path, scratch: &Path, wal_bytes: &[u8]) -> DurableRelation {
    let _ = std::fs::remove_dir_all(scratch);
    std::fs::create_dir_all(scratch).unwrap();
    let ckpt = dir.join("checkpoint.bin");
    if ckpt.exists() {
        std::fs::copy(&ckpt, scratch.join("checkpoint.bin")).unwrap();
    }
    std::fs::write(scratch.join("wal.log"), wal_bytes).unwrap();
    DurableRelation::open(scratch, GroupCommitPolicy::manual()).unwrap()
}

/// The core harness: drive a seeded op mix, then recover from the log
/// truncated at every record boundary and at every byte boundary of the
/// final record (plus corrupted variants), asserting exact equality with
/// the model at the last durable prefix. `checkpoint_at` optionally takes
/// a checkpoint (and therefore a log truncation) mid-run.
fn crash_injection_case(seed: u64, ops: usize, checkpoint_at: Option<usize>) {
    let name = format!("case_{seed}_{}", checkpoint_at.map_or(0, |c| c + 1));
    let dir = tmpdir(&name);
    let scratch = tmpdir(&format!("{name}_scratch"));
    let (cols, r) = create(&dir);
    let key = cols.host | cols.ts;
    match checkpoint_at {
        Some(at) => {
            drive(&r, script(&cols, seed, at));
            r.checkpoint().unwrap();
            drive(&r, script(&cols, seed.wrapping_add(1), ops - at));
        }
        None => drive(&r, script(&cols, seed, ops)),
    }
    r.commit().unwrap();
    let live = r.to_relation();
    drop(r);

    // Model every durable prefix by replaying the log records, and verify
    // the model agrees with the live engine at the full log first. With a
    // checkpoint, the replayable file only holds the tail; the prefix
    // state is the checkpoint image, whose own watermarks cover every
    // pre-checkpoint record — so the model starts from the recovered
    // checkpoint-only state and injection points stay past the highest
    // watermark (where every shard replays uniformly).
    let wal_path = dir.join("wal.log");
    let full = std::fs::read(&wal_path).unwrap();
    let scanned = read_wal(&wal_path).unwrap();
    assert_eq!(scanned.valid_len, full.len() as u64, "log must be clean");
    let max_stamp = match checkpoint_at {
        None => 0,
        Some(_) => relic_persist::read_checkpoint(&dir)
            .unwrap()
            .expect("checkpoint written")
            .shard_stamps
            .iter()
            .copied()
            .max()
            .unwrap(),
    };
    let base_state = if checkpoint_at.is_some() {
        // The checkpoint image alone (tail cut at the first record):
        // recovery must reproduce it exactly for records <= max_stamp.
        let first_past = scanned
            .entries
            .iter()
            .find(|e| e.seq > max_stamp)
            .map_or(full.len() as u64, |e| e.start);
        let rec = recover_with_log(&dir, &scratch, &full[..first_past as usize]);
        rec.relation().validate().unwrap();
        rec.to_relation()
    } else {
        Relation::empty(key | cols.bytes)
    };
    // states[k] = expected relation once entries[..=k] (past the stamp
    // horizon) are durable.
    let mut model = base_state.clone();
    let mut states: Vec<Relation> = Vec::with_capacity(scanned.entries.len());
    for e in &scanned.entries {
        if e.seq > max_stamp {
            model_apply_record(&mut model, key, &e.record);
        }
        states.push(model.clone());
    }
    assert_eq!(
        model, live,
        "model replay of the full log must equal the live relation (seed {seed})"
    );

    let state_at = |cut: u64| -> &Relation {
        let mut last: Option<usize> = None;
        for (k, e) in scanned.entries.iter().enumerate() {
            if e.end <= cut {
                last = Some(k);
            }
        }
        last.map_or(&base_state, |k| &states[k])
    };

    // Every record boundary of the whole log.
    for e in &scanned.entries {
        if e.seq <= max_stamp {
            continue;
        }
        let rec = recover_with_log(&dir, &scratch, &full[..e.end as usize]);
        assert_eq!(
            rec.to_relation(),
            *state_at(e.end),
            "record-boundary cut at seq {} diverged (seed {seed})",
            e.seq
        );
        rec.relation().validate().unwrap();
    }

    // Every byte boundary of the final record: recovery succeeds and
    // equals the model with the final record excluded.
    let last = scanned.entries.last().expect("ops were logged");
    assert!(last.seq > max_stamp);
    let expect_without_last = state_at(last.start);
    for cut in last.start..last.end {
        let rec = recover_with_log(&dir, &scratch, &full[..cut as usize]);
        assert_eq!(
            rec.to_relation(),
            *expect_without_last,
            "byte cut at {cut} of final record diverged (seed {seed})"
        );
    }
    // And the whole file recovers to the full model.
    let rec = recover_with_log(&dir, &scratch, &full);
    assert_eq!(rec.to_relation(), live);
    rec.relation().validate().unwrap();

    // Corruption (not truncation): flipping any byte of the final record
    // is caught by the checksum, recovering the same prefix state.
    for delta in [0u64, (last.end - last.start) / 2, last.end - last.start - 1] {
        let mut bad = full.clone();
        bad[(last.start + delta) as usize] ^= 0x5A;
        let rec = recover_with_log(&dir, &scratch, &bad);
        assert_eq!(
            rec.to_relation(),
            *expect_without_last,
            "byte flip at +{delta} of final record diverged (seed {seed})"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn crash_injection_without_checkpoint() {
    for seed in [0xA11CE, 0xB0B, 0xCAFE] {
        crash_injection_case(seed, 70, None);
    }
}

#[test]
fn crash_injection_with_mid_run_checkpoint() {
    for seed in [0xD00D, 0xFEED] {
        crash_injection_case(seed, 70, Some(35));
    }
}

/// A partition read-modify-write is one compound log frame: truncating the
/// log anywhere inside it drops the **whole** sequence — recovery can
/// never observe the remove without its re-insert (the torn-counter bug a
/// two-frame encoding would allow).
#[test]
fn partition_rmw_is_crash_atomic_in_the_log() {
    let dir = tmpdir("rmw_atomic");
    let scratch = tmpdir("rmw_atomic_scratch");
    let (cols, r) = create(&dir);
    let key = key(&cols, 1, 1);
    r.insert(tup(&cols, 1, 1, 5)).unwrap();
    // The RMW: read the counter, remove, re-insert incremented.
    r.with_partition_mut(&key, |p| {
        let cur = p
            .query(&key, cols.bytes.set())
            .unwrap()
            .first()
            .and_then(|row| row.get(cols.bytes).and_then(Value::as_int))
            .unwrap();
        p.remove(&key).unwrap();
        p.insert(tup(&cols, 1, 1, cur + 1)).unwrap();
    })
    .unwrap();
    r.commit().unwrap();
    drop(r);
    let wal_path = dir.join("wal.log");
    let full = std::fs::read(&wal_path).unwrap();
    let scanned = read_wal(&wal_path).unwrap();
    let last = scanned.entries.last().unwrap();
    assert!(
        matches!(last.record, WalRecord::Txn(ref ops) if ops.len() == 2),
        "the RMW must be one compound record, got {:?}",
        last.record
    );
    let before = tup(&cols, 1, 1, 5);
    let after = tup(&cols, 1, 1, 6);
    // Any cut inside the Txn frame keeps the pre-RMW tuple intact; the
    // full file holds the post-RMW tuple; no cut anywhere loses both.
    for cut in last.start..=last.end {
        let rec = recover_with_log(&dir, &scratch, &full[..cut as usize]);
        let state = rec.to_relation();
        if cut < last.end {
            assert!(state.contains(&before), "cut {cut} tore the RMW apart");
        } else {
            assert!(state.contains(&after));
        }
        assert_eq!(state.len(), 1, "cut {cut} must never lose the tuple");
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&scratch);
}

/// A recovered relation is a full citizen: it keeps serving, logging,
/// checkpointing and recovering again.
#[test]
fn recovery_chains() {
    let dir = tmpdir("chain");
    let (cols, r) = create(&dir);
    drive(&r, script(&cols, 7, 40));
    r.commit().unwrap();
    drop(r);
    let mut previous_len = None;
    for round in 0..4u64 {
        let r = DurableRelation::open(&dir, GroupCommitPolicy::manual()).unwrap();
        if let Some(n) = previous_len {
            assert_eq!(r.len(), n, "round {round} lost state");
        }
        drive(&r, script(&cols, 100 + round, 25));
        if round % 2 == 0 {
            r.checkpoint().unwrap();
        }
        r.commit().unwrap();
        r.relation().validate().unwrap();
        previous_len = Some(r.len());
    }
    let _ = std::fs::remove_dir_all(&dir);
}
