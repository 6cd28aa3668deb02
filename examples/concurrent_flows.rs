//! Concurrent flow accounting: the IpCap workload with multiple ingest
//! threads, on a sharded synthesized relation.
//!
//! Reproduces the essence of the paper's concurrent follow-on (PLDI 2012):
//! the relation is partitioned by `local` (the shard columns); packets for
//! different local hosts are counted by different threads without lock
//! contention, and the per-packet read-modify-write runs atomically inside
//! one partition's lock.
//!
//! ```sh
//! cargo run -p relic-bench --example concurrent_flows
//! ```

use relic_concurrent::ConcurrentRelation;
use relic_core::RelRead;
use relic_decomp::parse;
use relic_spec::{Catalog, RelSpec, Tuple, Value};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cat = Catalog::new();
    let local = cat.intern("local");
    let remote = cat.intern("remote");
    let bytes = cat.intern("bytes");
    let spec = RelSpec::new(local | remote | bytes).with_fd(local | remote, bytes.into());

    // The winning Fig. 13 shape: index locals first, then remotes.
    let d = parse(
        &mut cat,
        "let u : {local,remote} . {bytes} = unit {bytes} in
         let l : {local} . {remote,bytes} = {remote} -[htable]-> u in
         let x : {} . {local,remote,bytes} = {local} -[htable]-> l in x",
    )?;

    const THREADS: i64 = 4;
    const PACKETS: i64 = 20_000;
    let flows = ConcurrentRelation::new(&cat, spec, d, local.into(), 16)?;

    let start = Instant::now();
    std::thread::scope(|s| {
        for th in 0..THREADS {
            let flows = &flows;
            s.spawn(move || {
                // Each thread ingests packets for its own local hosts —
                // shard-disjoint traffic, so no cross-thread lock contention.
                let mut seed = 0x9E37u64.wrapping_mul(th as u64 + 1);
                for _ in 0..PACKETS {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    let lo = th * 64 + (seed % 64) as i64;
                    let re = (seed >> 8) as i64 % 256;
                    let sz = 64 + (seed >> 16) as i64 % 1400;
                    let key =
                        Tuple::from_pairs([(local, Value::from(lo)), (remote, Value::from(re))]);
                    // Atomic read-modify-write inside the partition lock:
                    // create the flow or bump its byte counter.
                    flows.with_partition_mut(&key, |shard| {
                        match shard.query(&key, bytes.into()).unwrap().first() {
                            Some(row) => {
                                let cur = row.get(bytes).and_then(|v| v.as_int()).unwrap();
                                let chg = Tuple::from_pairs([(bytes, Value::from(cur + sz))]);
                                shard.update(&key, &chg).unwrap();
                            }
                            None => {
                                shard
                                    .insert(
                                        key.merge(&Tuple::from_pairs([(bytes, Value::from(sz))])),
                                    )
                                    .unwrap();
                            }
                        }
                    });
                }
            });
        }
    });
    let elapsed = start.elapsed();

    println!(
        "{} packets across {THREADS} threads in {elapsed:.2?} — {} distinct flows",
        THREADS * PACKETS,
        flows.len(),
    );

    // A cross-shard accounting sweep over full flow rows, off the
    // published snapshots.
    let mut total: i64 = 0;
    for row in flows
        .read_view()
        .query(&Tuple::empty(), local | remote | bytes)?
    {
        total += row.get(bytes).and_then(|v| v.as_int()).unwrap_or(0);
    }
    println!("total accounted bytes: {total}");
    flows.validate().map_err(std::io::Error::other)?;
    println!("all shards well-formed (Fig. 5) ✓");
    Ok(())
}
