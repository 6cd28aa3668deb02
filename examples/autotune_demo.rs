//! The autotuner (§5) as a demo: enumerate every adequate decomposition of
//! the scheduler relation up to 4 edges, rank them statically for a
//! scheduler-like workload, then confirm the ranking with real timings for
//! the extremes.
//!
//! ```sh
//! cargo run --release -p relic-bench --example autotune_demo
//! ```

use relic_autotune::{Autotuner, Workload};
use relic_core::{RelRead, SynthRelation};
use relic_decomp::{Decomposition, DsKind, EnumerateOptions};
use relic_spec::{Catalog, RelSpec, Tuple, Value};
use std::time::Instant;

fn main() {
    let mut cat = Catalog::new();
    let ns = cat.intern("ns");
    let pid = cat.intern("pid");
    let state = cat.intern("state");
    let cpu = cat.intern("cpu");
    let spec = RelSpec::new(ns | pid | state | cpu).with_fd(ns | pid, state | cpu);

    let tuner = Autotuner::new(&spec)
        .with_options(EnumerateOptions {
            max_edges: 3,
            max_branches: 2,
            structures: vec![DsKind::HashTable],
            ..Default::default()
        })
        .with_relation_size(10_000.0);
    let candidates = tuner.candidates();
    println!(
        "adequate decompositions (≤3 edges, ≤2 branches): {}",
        candidates.len()
    );

    // A scheduler-ish workload: point lookups dominate, plus per-state scans
    // and key removals.
    let workload = Workload::new()
        .query(ns | pid, state | cpu, 10.0)
        .query(state.into(), ns | pid, 2.0)
        .inserts(1.0)
        .removes(ns | pid, 1.0);
    let ranking = tuner.tune_static(&workload);
    println!("\ntop 5 by static cost model:");
    for r in ranking.iter().take(5) {
        println!(
            "  cost {:8.1}  {}",
            r.cost,
            r.decomposition.to_let_notation(&cat).replace('\n', " ")
        );
    }
    println!("\nbottom 3 (of the finite ones):");
    let finite: Vec<_> = ranking.iter().filter(|r| r.cost.is_finite()).collect();
    for r in finite.iter().rev().take(3) {
        println!(
            "  cost {:8.1}  {}",
            r.cost,
            r.decomposition.to_let_notation(&cat).replace('\n', " ")
        );
    }

    // Validate the extremes by measurement.
    let measure = |d: &Decomposition| {
        let mut rel = SynthRelation::new(&cat, spec.clone(), d.clone()).unwrap();
        rel.set_fd_checking(false);
        for i in 0..3_000i64 {
            rel.insert(Tuple::from_pairs([
                (ns, Value::from(i % 16)),
                (pid, Value::from(i)),
                (state, Value::from(if i % 2 == 0 { "R" } else { "S" })),
                (cpu, Value::from(0)),
            ]))
            .unwrap();
        }
        let start = Instant::now();
        for i in 0..3_000i64 {
            let pat = Tuple::from_pairs([(ns, Value::from(i % 16)), (pid, Value::from(i))]);
            rel.query_for_each(&pat, state | cpu, |_| {}).unwrap();
        }
        start.elapsed()
    };
    let best = measure(&finite.first().unwrap().decomposition);
    let worst = measure(&finite.last().unwrap().decomposition);
    println!("\nmeasured point-lookup time: best candidate {best:?}, worst candidate {worst:?}");
    println!(
        "({}x spread)",
        (worst.as_secs_f64() / best.as_secs_f64()).round()
    );
}
