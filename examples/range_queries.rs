//! Range queries: an event log indexed by time, queried with comparison
//! predicates (§2's "comparisons other than equality" extension).
//!
//! A network monitor stores one row per (host, ts) observation. The
//! decomposition puts an ordered AVL index on `ts` inside each host bucket,
//! so "bytes sent by host 2 between t=20 and t=40" becomes an ordered seek
//! (`qrange`) instead of a scan — inspect the plans to see the difference.
//!
//! ```sh
//! cargo run -p relic-bench --example range_queries
//! ```

use relic_core::{RelRead, SynthRelation};
use relic_decomp::parse;
use relic_spec::{parse_pattern, Catalog, Pattern, Pred, RelSpec, Tuple, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cat = Catalog::new();
    let host = cat.intern("host");
    let ts = cat.intern("ts");
    let bytes = cat.intern("bytes");
    let spec = RelSpec::new(host | ts | bytes).with_fd(host | ts, bytes.into());

    // Hash the hosts; order the timestamps within each host.
    let d = parse(
        &mut cat,
        "let u : {host,ts} . {bytes} = unit {bytes} in
         let h : {host} . {ts,bytes} = {ts} -[avl]-> u in
         let x : {} . {host,ts,bytes} = {host} -[htable]-> h in x",
    )?;
    let mut log = SynthRelation::new(&cat, spec, d)?;

    // Simulated observations: 8 hosts × 100 ticks.
    for hid in 0..8i64 {
        for t in 0..100i64 {
            log.insert(Tuple::from_pairs([
                (host, Value::from(hid)),
                (ts, Value::from(t)),
                (bytes, Value::from((hid * 131 + t * 17) % 1000)),
            ]))?;
        }
    }
    println!("log holds {} observations\n", log.len());

    // A window query on one host: equality on host drives the hash lookup,
    // the interval on ts drives an ordered seek. Patterns also have a
    // concrete syntax:
    let window = parse_pattern(&cat, "host = 2, ts between 20 and 24")?;
    println!(
        "plan for {}: {}",
        window.display(&cat),
        log.plan_for_where(&window, ts | bytes)?
    );
    for row in log.query_where(&window, ts | bytes)? {
        println!("  {}", row.display(&cat));
    }

    // An open-ended tail query: everything since t=97, across all hosts.
    // No host is pinned, so the planner scans hosts but still seeks in ts.
    let tail = Pattern::new().with(ts, Pred::Ge(Value::from(97)));
    println!(
        "\nplan for {}: {}",
        tail.display(&cat),
        log.plan_for_where(&tail, host | ts)?
    );
    println!(
        "  {} rows in the last 3 ticks",
        log.query_where(&tail, host | ts)?.len()
    );

    // A filter-only predicate: ≠ cannot seek, so it is checked by scanning.
    let noisy = Pattern::new()
        .with(host, Pred::Eq(Value::from(5)))
        .with(bytes, Pred::Gt(Value::from(900)));
    println!(
        "\nplan for {}: {}",
        noisy.display(&cat),
        log.plan_for_where(&noisy, ts.into())?
    );
    println!(
        "  host 5 exceeded 900 bytes at {} ticks",
        log.query_where(&noisy, ts.into())?.len()
    );

    Ok(())
}
