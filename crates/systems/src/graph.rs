//! The directed-graph benchmark of §6.1 and its synthetic road network.
//!
//! The paper reads "the road network of the northwestern USA" (1.2M nodes,
//! 2.8M edges) and measures, per decomposition of the relation
//! `edges⟨src, dst, weight⟩` with `src, dst → weight`:
//!
//! * **F** — construct the edge relation + forward DFS over the whole graph,
//! * **F+B** — F plus a backward DFS (predecessor queries),
//! * **F+B+D** — F+B plus deleting every edge one by one.
//!
//! The original dataset is not distributed with this repository, so
//! [`road_network`] generates a deterministic synthetic stand-in: a
//! `nx × ny` grid (streets) with seeded diagonal shortcuts (highways) and
//! integer weights — a sparse directed graph with comparable in/out-degree
//! structure at configurable scale.

use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relic_core::{RelRead, SynthRelation};
use relic_decomp::Decomposition;
use relic_spec::{Catalog, ColId, RelSpec, Tuple, Value};

/// A directed weighted graph workload.
#[derive(Debug, Clone)]
pub struct GraphWorkload {
    /// Edges as `(src, dst, weight)` triples.
    pub edges: Vec<(i64, i64, i64)>,
    /// Number of nodes (ids are `0..nodes`).
    pub nodes: usize,
}

/// Generates the synthetic road network: an `nx × ny` 4-connected grid with
/// one-way streets in both directions, plus `shortcuts` random long-range
/// edges. Deterministic in `seed`.
pub fn road_network(nx: usize, ny: usize, shortcuts: usize, seed: u64) -> GraphWorkload {
    let mut rng = StdRng::seed_from_u64(seed);
    let id = |x: usize, y: usize| (y * nx + x) as i64;
    let mut edges = Vec::new();
    for y in 0..ny {
        for x in 0..nx {
            if x + 1 < nx {
                edges.push((id(x, y), id(x + 1, y), rng.gen_range(1..=9)));
                edges.push((id(x + 1, y), id(x, y), rng.gen_range(1..=9)));
            }
            if y + 1 < ny {
                edges.push((id(x, y), id(x, y + 1), rng.gen_range(1..=9)));
                edges.push((id(x, y + 1), id(x, y), rng.gen_range(1..=9)));
            }
        }
    }
    let n = nx * ny;
    let mut seen: std::collections::HashSet<(i64, i64)> =
        edges.iter().map(|&(a, b, _)| (a, b)).collect();
    let mut added = 0;
    while added < shortcuts {
        let a = rng.gen_range(0..n) as i64;
        let b = rng.gen_range(0..n) as i64;
        if a != b && seen.insert((a, b)) {
            edges.push((a, b, rng.gen_range(10..=99)));
            added += 1;
        }
    }
    GraphWorkload { edges, nodes: n }
}

/// Column handles for the edge relation.
#[derive(Debug, Clone, Copy)]
pub struct GraphCols {
    /// Source node id.
    pub src: ColId,
    /// Destination node id.
    pub dst: ColId,
    /// Edge weight.
    pub weight: ColId,
}

/// Creates the edge relation's catalog, columns, and specification.
pub fn graph_spec() -> (Catalog, GraphCols, RelSpec) {
    let mut cat = Catalog::new();
    let cols = GraphCols {
        src: cat.intern("src"),
        dst: cat.intern("dst"),
        weight: cat.intern("weight"),
    };
    let spec = RelSpec::new(cols.src | cols.dst | cols.weight)
        .with_fd(cols.src | cols.dst, cols.weight.into());
    (cat, cols, spec)
}

/// The graph benchmark driver: a synthesized edge relation plus the DFS /
/// deletion clients from the paper's §6.1 listing.
#[derive(Debug)]
pub struct GraphBench {
    /// The synthesized edge relation.
    pub rel: SynthRelation,
    cols: GraphCols,
    workload: GraphWorkload,
}

impl GraphBench {
    /// Builds the edge relation for a decomposition, inserting every edge.
    /// FD checking is disabled (the generator produces no duplicates), as in
    /// the paper's generated code.
    ///
    /// # Errors
    ///
    /// Propagates adequacy failures from [`SynthRelation::new`].
    pub fn build(
        cat: &Catalog,
        cols: GraphCols,
        spec: &RelSpec,
        d: Decomposition,
        workload: &GraphWorkload,
    ) -> Result<Self, relic_core::BuildError> {
        let mut rel = SynthRelation::new(cat, spec.clone(), d)?;
        rel.set_fd_checking(false);
        let mut bench = GraphBench {
            rel,
            cols,
            workload: workload.clone(),
        };
        bench.populate();
        Ok(bench)
    }

    fn populate(&mut self) {
        // The construction phase is a pure ingest: one bulk load sorts the
        // edge batch into the decomposition's key order and walks each
        // key-group once, instead of paying the full per-tuple insert path
        // 2.8M times at the paper's scale.
        let cols = self.cols;
        let batch = self.workload.edges.iter().map(|&(s, t, w)| {
            Tuple::from_pairs([
                (cols.src, Value::from(s)),
                (cols.dst, Value::from(t)),
                (cols.weight, Value::from(w)),
            ])
        });
        let n = self
            .rel
            .bulk_load(batch)
            .expect("workload edges are unique");
        debug_assert_eq!(n, self.workload.edges.len());
    }

    /// Forward DFS from every unvisited node (whole-graph traversal).
    /// Returns the number of visited nodes as a checksum.
    pub fn dfs_forward(&self) -> usize {
        self.dfs(self.cols.src, self.cols.dst)
    }

    /// Backward DFS (predecessor traversal).
    pub fn dfs_backward(&self) -> usize {
        self.dfs(self.cols.dst, self.cols.src)
    }

    /// The §6.1 DFS client: a stack of node ids, a visited set, and a
    /// neighbor query per node — `query(edges, ⟨from: v⟩, {to})`.
    fn dfs(&self, from: ColId, to: ColId) -> usize {
        let mut visited = vec![false; self.workload.nodes];
        let mut count = 0usize;
        let mut stack: Vec<i64> = Vec::new();
        for v0 in 0..self.workload.nodes as i64 {
            if visited[v0 as usize] {
                continue;
            }
            stack.push(v0);
            while let Some(v) = stack.pop() {
                if std::mem::replace(&mut visited[v as usize], true) {
                    continue;
                }
                count += 1;
                let pat = Tuple::from_pairs([(from, Value::from(v))]);
                self.rel
                    .query_for_each(&pat, to.into(), |t| {
                        let n = t.get(to).and_then(Value::as_int).expect("node id");
                        if !visited[n as usize] {
                            stack.push(n);
                        }
                    })
                    .expect("in-relation query");
            }
        }
        count
    }

    /// Deletes every edge, one pattern per edge (the benchmark's D phase),
    /// through the amortized batch-removal path: the `{src,dst}` cut is
    /// computed once for the whole sequence instead of once per edge.
    pub fn delete_all_edges(&mut self) {
        let pats: Vec<Tuple> = self
            .workload
            .edges
            .iter()
            .map(|&(s, t, _)| {
                Tuple::from_pairs([
                    (self.cols.src, Value::from(s)),
                    (self.cols.dst, Value::from(t)),
                ])
            })
            .collect();
        self.rel
            .remove_many(pats.iter())
            .expect("pattern columns are in the relation");
    }

    /// Number of edges currently stored.
    pub fn edge_count(&self) -> usize {
        self.rel.len()
    }
}

/// A Zipf-skewed random edge workload, for when grid regularity would hide
/// data-structure effects.
pub fn skewed_graph(nodes: usize, edges: usize, seed: u64) -> GraphWorkload {
    let mut z = Zipf::new(nodes, 0.8, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
    let mut set = std::collections::HashSet::new();
    let mut out = Vec::new();
    while out.len() < edges {
        let a = z.sample() as i64;
        let b = z.sample() as i64;
        if a != b && set.insert((a, b)) {
            out.push((a, b, rng.gen_range(1..=9)));
        }
    }
    GraphWorkload { edges: out, nodes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relic_decomp::parse;

    fn chain_decomp(cat: &mut Catalog) -> Decomposition {
        parse(
            cat,
            "let z : {src,dst} . {weight} = unit {weight} in
             let y : {src} . {dst,weight} = {dst} -[htable]-> z in
             let x : {} . {src,dst,weight} = {src} -[htable]-> y in x",
        )
        .unwrap()
    }

    fn shared_decomp(cat: &mut Catalog) -> Decomposition {
        parse(
            cat,
            "let w : {src,dst} . {weight} = unit {weight} in
             let y : {src} . {dst,weight} = {dst} -[ilist]-> w in
             let z : {dst} . {src,weight} = {src} -[ilist]-> w in
             let x : {} . {src,dst,weight} =
               ({src} -[htable]-> y) join ({dst} -[htable]-> z) in x",
        )
        .unwrap()
    }

    #[test]
    fn road_network_shape() {
        let g = road_network(5, 4, 10, 1);
        assert_eq!(g.nodes, 20);
        // Grid edges: horizontal 4*4*2 + vertical 5*3*2 = 62, plus shortcuts.
        assert_eq!(g.edges.len(), 62 + 10);
        // Determinism.
        let g2 = road_network(5, 4, 10, 1);
        assert_eq!(g.edges, g2.edges);
    }

    #[test]
    fn dfs_visits_whole_grid() {
        let (mut cat, cols, spec) = graph_spec();
        let g = road_network(6, 6, 0, 2);
        let d = chain_decomp(&mut cat);
        let bench = GraphBench::build(&cat, cols, &spec, d, &g).unwrap();
        // The grid is strongly connected: one DFS reaches everything.
        assert_eq!(bench.dfs_forward(), 36);
        assert_eq!(bench.dfs_backward(), 36);
    }

    #[test]
    fn forward_and_backward_agree_across_decompositions() {
        let (mut cat, cols, spec) = graph_spec();
        let g = road_network(4, 4, 6, 3);
        let chain = chain_decomp(&mut cat);
        let shared = shared_decomp(&mut cat);
        let b1 = GraphBench::build(&cat, cols, &spec, chain, &g).unwrap();
        let b2 = GraphBench::build(&cat, cols, &spec, shared, &g).unwrap();
        assert_eq!(b1.dfs_forward(), b2.dfs_forward());
        assert_eq!(b1.dfs_backward(), b2.dfs_backward());
        assert_eq!(b1.edge_count(), b2.edge_count());
    }

    #[test]
    fn delete_all_edges_empties_the_relation() {
        let (mut cat, cols, spec) = graph_spec();
        let g = road_network(4, 3, 5, 4);
        let d = shared_decomp(&mut cat);
        let mut bench = GraphBench::build(&cat, cols, &spec, d, &g).unwrap();
        assert_eq!(bench.edge_count(), g.edges.len());
        bench.delete_all_edges();
        assert_eq!(bench.edge_count(), 0);
        bench.rel.validate().unwrap();
    }

    #[test]
    fn skewed_graph_is_deterministic_and_unique() {
        let g = skewed_graph(100, 300, 9);
        assert_eq!(g.edges.len(), 300);
        let set: std::collections::HashSet<(i64, i64)> =
            g.edges.iter().map(|&(a, b, _)| (a, b)).collect();
        assert_eq!(set.len(), 300, "edges are unique");
        assert_eq!(skewed_graph(100, 300, 9).edges, g.edges);
    }
}
