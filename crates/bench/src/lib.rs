//! Shared infrastructure for the printable harness binaries (`src/bin/`)
//! that reproduce the paper's §6 — `table1` (Table 1), `fig11` / `fig12` /
//! `fig13` (Figs. 11–13), `parity` (§6.2) and `enum_counts` (§5): the
//! figure-specific decomposition sets, candidate selection, and table
//! printing. Perf-trajectory measurement lives in `benchmark/`, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use relic_autotune::{Autotuner, Workload};
use relic_decomp::{parse, Decomposition, EnumerateOptions};
use relic_spec::{Catalog, RelSpec};
use std::time::{Duration, Instant};

/// A labelled decomposition for reporting.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Short label (e.g. `#1 chain` or a canonical shape string).
    pub label: String,
    /// The decomposition.
    pub decomposition: Decomposition,
}

/// The three representative graph decompositions of Fig. 12.
///
/// * `#1` — chain: `src → dst → unit{weight}` (maps only); fastest forward
///   traversal, quadratic backward traversal.
/// * `#5` — forward and backward indexes *sharing* one physical tuple node,
///   reached by intrusive lists (removal needs no extra lookups).
/// * `#9` — the same two indexes with *separate* weight nodes.
pub fn fig12_decompositions(cat: &mut Catalog) -> Vec<Candidate> {
    let one = parse(
        cat,
        "let z : {src,dst} . {weight} = unit {weight} in
         let y : {src} . {dst,weight} = {dst} -[avl]-> z in
         let x : {} . {src,dst,weight} = {src} -[avl]-> y in x",
    )
    .expect("fig12 #1 parses");
    let five = parse(
        cat,
        "let w : {src,dst} . {weight} = unit {weight} in
         let y : {src} . {dst,weight} = {dst} -[ilist]-> w in
         let z : {dst} . {src,weight} = {src} -[ilist]-> w in
         let x : {} . {src,dst,weight} =
           ({src} -[avl]-> y) join ({dst} -[avl]-> z) in x",
    )
    .expect("fig12 #5 parses");
    let nine = parse(
        cat,
        "let l : {src,dst} . {weight} = unit {weight} in
         let r : {src,dst} . {weight} = unit {weight} in
         let y : {src} . {dst,weight} = {dst} -[ilist]-> l in
         let z : {dst} . {src,weight} = {src} -[ilist]-> r in
         let x : {} . {src,dst,weight} =
           ({src} -[avl]-> y) join ({dst} -[avl]-> z) in x",
    )
    .expect("fig12 #9 parses");
    vec![
        Candidate {
            label: "#1 chain (src->dst->unit)".to_string(),
            decomposition: one,
        },
        Candidate {
            label: "#5 join, shared leaf".to_string(),
            decomposition: five,
        },
        Candidate {
            label: "#9 join, unshared leaves".to_string(),
            decomposition: nine,
        },
    ]
}

/// Selects the graph-benchmark candidate set for Fig. 11: the Fig. 12
/// representatives plus the statically best `extra` enumerated shapes for a
/// mixed F+B+D workload. (The paper enumerated all 84 size ≤ 4 shapes and
/// timed out 68 of them; static pre-ranking keeps the harness fast while
/// preserving the interesting candidates. `enum_counts` reports the full
/// counts.)
pub fn fig11_candidates(cat: &mut Catalog, spec: &RelSpec, extra: usize) -> Vec<Candidate> {
    let mut out = fig12_decompositions(cat);
    let src = cat.col("src").expect("graph catalog");
    let dst = cat.col("dst").expect("graph catalog");
    let weight = cat.col("weight").expect("graph catalog");
    let tuner = Autotuner::new(spec)
        .with_options(EnumerateOptions {
            max_edges: 3,
            ..Default::default()
        })
        .with_relation_size(10_000.0);
    let workload = Workload::new()
        .query(src.into(), dst | weight, 1.0) // forward DFS
        .query(dst.into(), src | weight, 1.0) // backward DFS
        .inserts(1.0)
        .removes(src | dst, 1.0); // edge deletion
    let ranked = tuner.tune_static(&workload);
    let existing: Vec<String> = out
        .iter()
        .map(|c| c.decomposition.canonical_string(false))
        .collect();
    for (i, r) in ranked
        .into_iter()
        .filter(|r| r.cost.is_finite())
        .filter(|r| !existing.contains(&r.decomposition.canonical_string(false)))
        .take(extra)
        .enumerate()
    {
        out.push(Candidate {
            label: format!(
                "enum#{:02} ({} edges, cost {:.0})",
                i + 1,
                r.decomposition.edge_count(),
                r.cost
            ),
            decomposition: r.decomposition,
        });
    }
    out
}

/// Selects the IpCap candidate set for Fig. 13: the statically best `take`
/// decompositions of the flow relation for the accounting workload
/// (point query + update per packet, full scan + clear per flush).
pub fn fig13_candidates(cat: &Catalog, spec: &RelSpec, take: usize) -> Vec<Candidate> {
    let local = cat.col("local").expect("flow catalog");
    let remote = cat.col("remote").expect("flow catalog");
    let bytes = cat.col("bytes").expect("flow catalog");
    let pkts = cat.col("pkts").expect("flow catalog");
    let tuner = Autotuner::new(spec)
        .with_options(EnumerateOptions {
            max_edges: 3,
            max_branches: 2,
            ..Default::default()
        })
        .with_relation_size(4_096.0);
    let workload = Workload::new()
        .query(local | remote, bytes | pkts, 10.0) // per-packet lookup
        .inserts(1.0)
        .query(Default::default(), cat.all(), 0.1); // periodic flush scan
    let ranked = tuner.tune_static(&workload);
    ranked
        .into_iter()
        .filter(|r| r.cost.is_finite())
        .take(take)
        .enumerate()
        .map(|(i, r)| Candidate {
            label: format!("rank {:02} (static {:.0})", i + 1, r.cost),
            decomposition: r.decomposition,
        })
        .collect()
}

/// Times a closure once.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed(), out)
}

/// Renders a fixed-width text table (first row = header).
pub fn render_table(rows: &[Vec<String>]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let cols = rows.iter().map(|r| r.len()).max().unwrap_or(0);
    let mut widths = vec![0usize; cols];
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    for (ri, row) in rows.iter().enumerate() {
        for (i, cell) in row.iter().enumerate() {
            out.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
        }
        out.push('\n');
        if ri == 0 {
            for (i, w) in widths.iter().enumerate() {
                out.push_str(&"-".repeat(*w));
                if i + 1 < cols {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use relic_decomp::check_adequacy;
    use relic_systems::graph::graph_spec;

    #[test]
    fn fig12_set_is_adequate_and_distinct() {
        let (mut cat, _, spec) = graph_spec();
        let cs = fig12_decompositions(&mut cat);
        assert_eq!(cs.len(), 3);
        let mut canon: Vec<String> = cs
            .iter()
            .map(|c| c.decomposition.canonical_string(true))
            .collect();
        canon.dedup();
        assert_eq!(canon.len(), 3);
        for c in &cs {
            check_adequacy(&c.decomposition, &spec).unwrap();
        }
        // #5 shares the leaf: one fewer node than #9.
        assert_eq!(
            cs[1].decomposition.node_count() + 1,
            cs[2].decomposition.node_count()
        );
    }

    #[test]
    fn fig11_candidates_extend_fig12() {
        let (mut cat, _, spec) = graph_spec();
        let cs = fig11_candidates(&mut cat, &spec, 5);
        assert_eq!(cs.len(), 8);
        for c in &cs {
            check_adequacy(&c.decomposition, &spec).unwrap();
        }
    }

    #[test]
    fn fig13_candidates_are_ranked() {
        let (cat, _, spec) = relic_systems::ipcap::flow_spec();
        let cs = fig13_candidates(&cat, &spec, 8);
        assert_eq!(cs.len(), 8);
        for c in &cs {
            check_adequacy(&c.decomposition, &spec).unwrap();
        }
    }

    #[test]
    fn table_rendering() {
        let t = render_table(&[
            vec!["a".into(), "long-header".into()],
            vec!["1".into(), "2".into()],
        ]);
        assert!(t.contains("long-header"));
        assert!(t.contains("---"));
        assert!(render_table(&[]).is_empty());
    }
}
