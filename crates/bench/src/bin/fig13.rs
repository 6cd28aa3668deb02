//! Figure 13: elapsed time for IpCap to log packets across decompositions of
//! the flow relation, ranked by time.
//!
//! Usage: `cargo run --release -p relic-bench --bin fig13 [-- <packets> <candidates>]`

use relic_bench::{fig13_candidates, render_table, time_once};
use relic_systems::ipcap::{flow_spec, packet_trace, run_accounting, SynthFlows};

fn main() {
    let args: Vec<usize> = std::env::args()
        .skip(1)
        .filter_map(|a| a.parse().ok())
        .collect();
    let packets = args.first().copied().unwrap_or(300_000 / 10);
    let take = args.get(1).copied().unwrap_or(26);
    let (cat, cols, spec) = flow_spec();
    let trace = packet_trace(packets, 256, 4096, 0xF13);
    println!(
        "Figure 13 — IpCap: elapsed time to log {packets} random packets across {take} decompositions"
    );
    println!("(paper: 3e5 packets, 26 of 84 decompositions finished; default here is a tenth of the packets)\n");
    let candidates = fig13_candidates(&cat, &spec, take);
    let mut results = Vec::new();
    for c in &candidates {
        let mut flows = SynthFlows::new(&cat, cols, &spec, c.decomposition.clone()).unwrap();
        let (t, log) =
            time_once(|| run_accounting(&mut flows, &trace, 65_536).expect("accounting run"));
        results.push((c.label.clone(), t, log.len()));
    }
    results.sort_by_key(|r| r.1);
    let mut rows = vec![vec![
        "rank".to_string(),
        "decomposition (static rank)".to_string(),
        "elapsed (s)".to_string(),
        "flows logged".to_string(),
    ]];
    for (i, (label, t, flows)) in results.iter().enumerate() {
        rows.push(vec![
            format!("{}", i + 1),
            label.clone(),
            format!("{:.3}", t.as_secs_f64()),
            format!("{flows}"),
        ]);
    }
    println!("{}", render_table(&rows));
    println!("Paper shape to check: a tree/hash of locals mapping to hash tables of");
    println!("remotes wins; transposing local/remote or indexing by counters is several");
    println!("times slower (the paper saw ~5x between best and rank 18).");
}
