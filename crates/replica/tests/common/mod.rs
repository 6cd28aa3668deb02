//! Shared scaffolding for the replication test suites: a small sharded
//! schema, a deterministic random op-mix generator, and per-commit
//! reference snapshots of the primary's committed history.

use relic_core::Op;
use relic_persist::{DurableRelation, GroupCommitPolicy};
use relic_replica::Primary;
use relic_spec::{Catalog, ColId, RelSpec, Relation, Tuple, Value};
use std::path::{Path, PathBuf};

pub struct Cols {
    pub host: ColId,
    pub ts: ColId,
    pub bytes: ColId,
}

pub fn schema_parts() -> (Catalog, Cols, RelSpec, relic_decomp::Decomposition) {
    let mut cat = Catalog::new();
    let d = relic_decomp::parse(
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
    (cat, cols, spec, d)
}

pub fn tup(cols: &Cols, h: i64, t: i64, b: i64) -> Tuple {
    Tuple::from_pairs([
        (cols.host, Value::from(h)),
        (cols.ts, Value::from(t)),
        (cols.bytes, Value::from(b)),
    ])
}

pub fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("relic_replica_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A fresh primary in `dir` with a deliberately tiny shipping batch so
/// catch-up spans many fetch rounds.
pub fn fresh_primary(dir: &Path, max_batch_bytes: usize) -> (Cols, Primary) {
    let (cat, cols, spec, d) = schema_parts();
    let rel = DurableRelation::create(
        dir,
        &cat,
        spec,
        d,
        cols.host.set(),
        4,
        true,
        GroupCommitPolicy::manual(),
    )
    .unwrap();
    (cols, Primary::with_max_batch_bytes(rel, max_batch_bytes))
}

/// A deterministic op mix (multiplicative LCG — no clock, no globals):
/// inserts, and removals of one host partition.
pub fn random_ops(cols: &Cols, n: usize, seed: u64) -> Vec<Op> {
    let mut s = seed
        .wrapping_mul(2862933555777941757)
        .wrapping_add(3037000493);
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        s >> 33
    };
    (0..n)
        .map(|_| {
            let r = next();
            if r % 5 == 4 {
                Op::Remove(Tuple::from_pairs([(
                    cols.host,
                    Value::from((next() % 6) as i64),
                )]))
            } else {
                let (h, t) = ((next() % 6) as i64, (next() % 16) as i64);
                Op::Insert(tup(cols, h, t, (next() % 100) as i64))
            }
        })
        .collect()
}

/// Applies `ops` to the primary one commit per op, recording the exact
/// committed relation after every sequence number — the reference model
/// a follower's state is compared against at any shipped prefix.
/// Operation-level rejections (duplicate keys, FD conflicts) are ignored:
/// they still consume a log sequence number, exactly as live.
pub fn apply_with_snapshots(p: &Primary, ops: &[Op]) -> Vec<(u64, Relation)> {
    let mut snaps = vec![(p.relation().durable_seq(), p.relation().to_relation())];
    for op in ops {
        let _ = p.apply(op.clone());
        p.commit().unwrap();
        snaps.push((p.relation().durable_seq(), p.relation().to_relation()));
    }
    snaps
}

/// Looks up the reference relation at sequence number `seq`.
// Shared across test binaries; not every binary calls every helper.
#[allow(dead_code)]
pub fn snapshot_at(snaps: &[(u64, Relation)], seq: u64) -> &Relation {
    snaps
        .iter()
        .rev()
        .find(|(s, _)| *s <= seq)
        .map(|(_, r)| r)
        .expect("snapshot history starts at seq 0")
}
