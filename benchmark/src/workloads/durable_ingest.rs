//! `durable_ingest`: batched ingest into a `DurableRelation`, then a crash
//! and a recovery.
//!
//! Per repeat, in a fresh directory: `BATCH`-tuple `insert_many` + `commit`,
//! every 4th batch also a 128-key `remove_many`, one `checkpoint` after the
//! first batch. Then one more batch that is never committed, drop, copy the
//! directory keeping of the log only the bytes that were on disk when the
//! last commit returned plus a torn partial frame, `open` the copy, and
//! compare with a model of the state at the last commit.

use super::{peak_rss_mb, repeat_for, timed_setups, Cfg, FlowSchema, Outcome, Repeat};
use crate::gen::{Flow, Rng};
use crate::trace::{Tracer, NONE};
use relic_core::Bindings;
use relic_persist::durable::WAL_FILE;
use relic_persist::{DurableRelation, GroupCommitPolicy, PersistError};
use relic_spec::{Tuple, Value};
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// Tuples per commit. A flush to this recorder's disk takes 0.25 to 0.55 ms
/// depending on the minute; over 4096 tuples (about 5 ms of work) that is
/// under a tenth of a batch, so the batch time is the program's.
pub const BATCH: usize = 4096;
const REMOVE_EVERY: usize = 4;
const REMOVE_KEYS: usize = 128;
/// The batch after which the one checkpoint is taken. A checkpoint costs
/// 30 to 55 us per live tuple today, so it comes early, while the table is
/// small; recovery then loads it and replays the batches after it.
pub const CHECKPOINT_AT: usize = 1;
const LOCALS: i64 = 4096;
pub const SHARDS: usize = 4;
/// Four `i64` columns.
const USER_BYTES_PER_TUPLE: f64 = 32.0;

/// Batches per repeat.
fn sizes(cfg: &Cfg) -> usize {
    cfg.size(16, 4)
}

/// The generated operations: `batches + 1` insert batches (the last one is
/// the uncommitted tail) with globally distinct keys, and for every
/// `REMOVE_EVERY`-th batch the keys to remove, drawn from the batch before.
pub struct Input {
    pub inserts: Vec<Vec<Flow>>,
    pub removes: Vec<Option<Vec<(i64, i64)>>>,
}

pub fn generate(batches: usize, seed: u64) -> Input {
    let mut rng = Rng::new(seed ^ 0xD0_4A_B1_E5);
    let inserts: Vec<Vec<Flow>> = (0..=batches)
        .map(|b| {
            (0..BATCH)
                .map(|j| {
                    let i = (b * BATCH + j) as i64;
                    (
                        i % LOCALS,
                        i / LOCALS,
                        40 + rng.below(1461) as i64,
                        1 + rng.below(1000) as i64,
                    )
                })
                .collect()
        })
        .collect();
    let removes = (0..batches)
        .map(|b| {
            (b % REMOVE_EVERY == REMOVE_EVERY - 1).then(|| {
                let from = &inserts[b - 1];
                let start = rng.below((BATCH - REMOVE_KEYS) as u64) as usize;
                from[start..start + REMOVE_KEYS]
                    .iter()
                    .map(|f| (f.0, f.1))
                    .collect()
            })
        })
        .collect();
    Input { inserts, removes }
}

/// The state every acknowledged commit adds up to.
pub fn model(input: &Input, batches: usize) -> HashMap<(i64, i64), (i64, i64)> {
    let mut m = HashMap::new();
    for b in 0..batches {
        m.extend(
            input.inserts[b]
                .iter()
                .map(|&(l, r, by, p)| ((l, r), (by, p))),
        );
        for k in input.removes[b].iter().flatten() {
            m.remove(k);
        }
    }
    m
}

pub fn create(s: &FlowSchema, dir: &Path) -> Result<DurableRelation, PersistError> {
    DurableRelation::create(
        dir,
        &s.cat,
        s.spec.clone(),
        s.d.clone(),
        s.cols.local.set(),
        SHARDS,
        true,
        GroupCommitPolicy::manual(),
    )
}

/// What one ingest-crash-recover cycle measured.
#[derive(Debug, Default)]
pub struct Cycle {
    pub rep: Repeat,
    pub recover_ns: u64,
    pub stored_bytes: u64,
    /// Bytes handed to the log, summed over the commits.
    pub wal_bytes: u64,
    pub commits: u64,
    /// Tuples in batches whose acknowledged counts were wrong or errored.
    pub failed: u64,
    /// Tuples by which the recovered relation differs from the model.
    pub mismatches: u64,
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// Copies `from` to `to` as a crash would leave it: every file as it is,
/// except that the log keeps only its first `wal_len` bytes (what the last
/// acknowledged commit had flushed) followed by a frame header that promises
/// more payload than is there.
fn copy_crashed(from: &Path, to: &Path, wal_len: u64) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_name() == WAL_FILE {
            let mut bytes = std::fs::read(entry.path())?;
            bytes.truncate(wal_len as usize);
            bytes.extend_from_slice(&4096u32.to_le_bytes());
            bytes.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
            bytes.extend_from_slice(&[0xAB; 100]);
            std::fs::write(target, bytes)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// Everything a cycle needs that does not change from one cycle to the next:
/// the schema, the generated operations, and the state every acknowledged
/// commit adds up to.
pub struct Plan {
    pub s: FlowSchema,
    pub input: Input,
    pub batches: usize,
    pub want: HashMap<(i64, i64), (i64, i64)>,
}

impl Plan {
    pub fn new(batches: usize, seed: u64) -> Plan {
        let input = generate(batches, seed);
        let want = model(&input, batches);
        Plan {
            s: FlowSchema::new(),
            input,
            batches,
            want,
        }
    }

    /// One cycle in `dir` (and `dir.crash`); both are removed afterwards.
    /// `checkpoint_at` checkpoints after that many batches; `checkpoint_last`
    /// checkpoints after the final commit.
    pub fn cycle(
        &self,
        dir: &Path,
        checkpoint_at: Option<usize>,
        checkpoint_last: bool,
        tr: &mut Tracer,
    ) -> Cycle {
        let Plan {
            s,
            input,
            batches,
            want,
        } = self;
        let batches = *batches;
        let mut c = Cycle::default();
        let crash_dir = dir.with_extension("crash");
        let _ = std::fs::remove_dir_all(dir);
        let _ = std::fs::remove_dir_all(&crash_dir);
        // The caller's tuples, built before the clock starts.
        let mut tuples: Vec<Vec<Tuple>> = input
            .inserts
            .iter()
            .map(|b| b.iter().map(|&f| s.tuple(f)).collect())
            .collect();
        let tail = tuples
            .pop()
            .expect("generate() adds the uncommitted tail batch");
        let removes: Vec<Option<Vec<Tuple>>> = input
            .removes
            .iter()
            .map(|r| {
                r.as_ref()
                    .map(|keys| keys.iter().map(|&(l, r)| s.key(l, r)).collect())
            })
            .collect();

        c.rep.ops = (batches * BATCH) as u64;
        c.rep.lat_tile = 1.0;
        // Creating the directory is set-up (`setup_s` times it); the clock
        // covers the batches, which are the latency samples end to end.
        let rel = create(s, dir).expect("create durable relation");
        let start = Instant::now();
        for (b, batch) in tuples.into_iter().take(batches).enumerate() {
            let op = b as u32;
            let t = Instant::now();
            let root = tr.begin("persist", "batch", op, NONE);
            let inserted = tr.leaf("persist", "insert_many", op, root, || {
                let r = rel.insert_many(batch);
                let n = *r.as_ref().unwrap_or(&0) as u32;
                (r, n)
            });
            let mut ok = matches!(inserted, Ok(n) if n == BATCH);
            if let Some(keys) = &removes[b] {
                let removed = tr.leaf("persist", "remove_many", op, root, || {
                    let r = rel.remove_many(keys);
                    let n = *r.as_ref().unwrap_or(&0) as u32;
                    (r, n)
                });
                ok &= matches!(removed, Ok(n) if n == REMOVE_KEYS);
            }
            c.wal_bytes += rel.wal_pending_bytes() as u64;
            ok &= tr.leaf("persist", "commit", op, root, || (rel.commit().is_ok(), 1));
            c.commits += 1;
            let last = b + 1 == batches;
            if checkpoint_at == Some(b + 1) || (last && checkpoint_last) {
                ok &= tr.leaf("persist", "checkpoint", op, root, || {
                    (rel.checkpoint().is_ok(), 1)
                });
            }
            tr.end(root, BATCH as u32);
            c.rep.lat_ns.push(t.elapsed().as_nanos() as f64);
            if !ok {
                c.failed += BATCH as u64;
            }
        }
        c.rep.wall_ns = start.elapsed().as_nanos() as u64;
        c.stored_bytes = dir_bytes(dir);
        let wal_len = std::fs::metadata(dir.join(WAL_FILE)).map_or(0, |m| m.len());

        // Acknowledged work ends here. The tail batch is applied and logged in
        // memory but never committed; the crash takes it.
        let _ = rel.insert_many(tail);
        drop(rel);
        copy_crashed(dir, &crash_dir, wal_len).expect("copy the crashed directory");

        let t = Instant::now();
        let recovered = tr.leaf("persist", "open", batches as u32, NONE, || {
            (
                DurableRelation::open(&crash_dir, GroupCommitPolicy::manual()),
                1,
            )
        });
        c.recover_ns = t.elapsed().as_nanos() as u64;
        match recovered {
            Ok(rel) => {
                // Streamed off a read view: `to_relation` (the abstraction
                // function) costs tens of microseconds per tuple.
                let (mut got, mut matching) = (0usize, 0usize);
                let streamed = rel.read_view().query_for_each_bindings(
                    &mut Bindings::new(),
                    &Tuple::empty(),
                    s.spec.cols(),
                    |b| {
                        let int = |col| b.get(col).and_then(Value::as_int).unwrap_or(i64::MIN);
                        got += 1;
                        matching += usize::from(
                            want.get(&(int(s.cols.local), int(s.cols.remote)))
                                == Some(&(int(s.cols.bytes), int(s.cols.pkts))),
                        );
                    },
                );
                c.mismatches = match streamed {
                    Ok(()) => (got - matching + want.len() - matching) as u64,
                    Err(_) => want.len() as u64,
                };
            }
            Err(_) => c.mismatches = want.len() as u64,
        }
        let _ = std::fs::remove_dir_all(dir);
        let _ = std::fs::remove_dir_all(&crash_dir);
        c
    }
}

pub fn run(cfg: &Cfg, tr: &mut Tracer) -> Outcome {
    let batches = sizes(cfg);
    let plan = Plan::new(batches, cfg.seed);
    let mut out = Outcome::default();

    // Set-up is what precedes the first batch: a durable relation on disk
    // that has taken and committed its first two batches.
    let ((), setup_s) = timed_setups(cfg, 31, || {
        let dir = cfg.work_dir.join("ingest_setup");
        let rel = create(&plan.s, &dir).expect("create durable relation");
        for batch in plan.input.inserts.iter().take(2) {
            rel.insert_many(batch.iter().map(|&f| plan.s.tuple(f)))
                .expect("warm-up batch");
        }
        rel.commit().expect("warm-up commit");
        drop(rel);
        let _ = std::fs::remove_dir_all(&dir);
    });
    out.setup_s = setup_s;

    let (mut recover_s, mut stored) = (Vec::new(), Vec::new());
    out.correct = true;
    out.repeats = repeat_for(cfg.seconds, |i| {
        let dir = cfg.work_dir.join(format!("ingest_{i}"));
        let c = plan.cycle(&dir, Some(CHECKPOINT_AT), false, tr);
        out.attempted += c.rep.ops;
        out.failed += c.failed + c.mismatches;
        out.correct &= c.failed == 0 && c.mismatches == 0;
        recover_s.push(c.recover_ns as f64 / 1e9);
        stored.push(c.stored_bytes as f64 / (c.rep.ops as f64 * USER_BYTES_PER_TUPLE));
        c.rep
    });
    out.peak_rss_mb = peak_rss_mb();
    out.extra("recover_s", "s", &recover_s);
    out.extra("stored_bytes_per_user_byte", "ratio", &stored);
    out.notes.push(format!(
        "{batches} batches of {BATCH} tuples per repeat, {SHARDS} shards, checkpoint after batch {CHECKPOINT_AT}; {} tuples live at the last commit",
        plan.want.len()
    ));
    out
}

/// A small cycle for the traced run.
pub fn mini(cfg: &Cfg, tr: &mut Tracer) -> Cycle {
    Plan::new(cfg.size(8, 2), cfg.seed).cycle(
        &cfg.work_dir.join("ingest_mini"),
        Some(CHECKPOINT_AT),
        false,
        tr,
    )
}
