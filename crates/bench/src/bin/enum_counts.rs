//! §5 enumeration counts: how many adequate decomposition shapes exist per
//! edge bound for the graph/IpCap-like relations (the paper reports 84 with
//! ≤ 4 map edges for both).
//!
//! Usage: `cargo run --release -p relic-bench --bin enum_counts`

use relic_bench::render_table;
use relic_decomp::{enumerate_shapes, EnumerateOptions};
use relic_spec::{Catalog, RelSpec};

fn main() {
    let mut cat = Catalog::new();
    let src = cat.intern("src");
    let dst = cat.intern("dst");
    let weight = cat.intern("weight");
    let graph = RelSpec::new(src | dst | weight).with_fd(src | dst, weight.into());

    let (cat_f, _, flows) = relic_systems::ipcap::flow_spec();
    let _ = cat_f;

    println!("§5 — adequate decomposition shapes per edge bound");
    println!("(paper: 84 decompositions with ≤ 4 map edges for the 3-column graph and");
    println!("flow relations; our enumerator explores a somewhat larger space, so its");
    println!("counts should dominate the paper's)\n");

    let mut rows = vec![vec![
        "relation".to_string(),
        "≤1 edge".to_string(),
        "≤2 edges".to_string(),
        "≤3 edges".to_string(),
        "≤4 edges".to_string(),
    ]];
    for (name, spec, max4) in [
        ("edges⟨src,dst,weight⟩", &graph, true),
        ("flows⟨local,remote,bytes,pkts⟩", &flows, false),
    ] {
        let mut row = vec![name.to_string()];
        let upper = if max4 { 4 } else { 3 };
        for max in 1..=4usize {
            if max > upper {
                row.push("(skipped)".to_string());
                continue;
            }
            let n = enumerate_shapes(
                spec,
                &EnumerateOptions {
                    max_edges: max,
                    max_branches: 3,
                    ..Default::default()
                },
            )
            .len();
            row.push(format!("{n}"));
        }
        rows.push(row);
    }
    println!("{}", render_table(&rows));
}
