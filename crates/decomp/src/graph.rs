//! The decomposition graph AST and its builder.

use crate::{DecompError, DsKind};
use relic_spec::{Catalog, ColSet};
use std::collections::HashMap;
use std::fmt;

/// Identifies a node (a let-bound variable `v : B ▷ C`) of a decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u16);

impl NodeId {
    /// The node's index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifies a map edge `C -[ψ]-> v` of a decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u16);

impl EdgeId {
    /// The edge's index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A map edge: for each valuation of `key`, the data structure `ds` maps to
/// an instance of node `to`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    /// Source node (the node whose body contains this map primitive).
    pub from: NodeId,
    /// Key columns `C` of the map.
    pub key: ColSet,
    /// The implementing data structure `ψ`.
    pub ds: DsKind,
    /// Target node `v`.
    pub to: NodeId,
}

impl Edge {
    /// Is this a *unit-key* edge (`{} -[ψ]-> v`)? Such a map holds at most
    /// one entry, so backends may collapse the container to a plain
    /// optional slot reference regardless of `ψ`.
    pub fn is_unit_key(&self) -> bool {
        self.key.is_empty()
    }
}

/// A node body: the primitive `pˆ` on the right-hand side of a let binding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Body {
    /// `unit C` — a single tuple with columns `C` (possibly empty).
    Unit(ColSet),
    /// A map primitive, stored in the edge table.
    Map(EdgeId),
    /// A natural join `pˆ₁ ⋈ pˆ₂` of two sub-bodies.
    Join(Box<Body>, Box<Body>),
}

impl Body {
    /// Iterates the body's leaves in left-to-right order.
    pub fn leaves(&self) -> Vec<&Body> {
        let mut out = Vec::new();
        fn walk<'a>(b: &'a Body, out: &mut Vec<&'a Body>) {
            match b {
                Body::Join(l, r) => {
                    walk(l, out);
                    walk(r, out);
                }
                leaf => out.push(leaf),
            }
        }
        walk(self, &mut out);
        out
    }

    /// The number of leaves in this body. A join's right operand starts at
    /// leaf `l.leaf_count()` of the node's flattened leaves.
    pub fn leaf_count(&self) -> usize {
        match self {
            Body::Unit(_) | Body::Map(_) => 1,
            Body::Join(l, r) => l.leaf_count() + r.leaf_count(),
        }
    }

    /// The edges mentioned in this body, left-to-right.
    pub fn edges(&self) -> Vec<EdgeId> {
        self.leaves()
            .into_iter()
            .filter_map(|l| match l {
                Body::Map(e) => Some(*e),
                _ => None,
            })
            .collect()
    }
}

/// A let-bound decomposition node `v : B ▷ C`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// The variable name.
    pub name: String,
    /// `B`: columns bound on any path from the root to this node. Every
    /// instance of the node corresponds to a distinct valuation of `B`.
    pub bound: ColSet,
    /// `C`: columns represented by the subgraph rooted here.
    pub cols: ColSet,
    /// The node's body `pˆ`.
    pub body: Body,
}

/// A decomposition: a rooted DAG of nodes and map edges (paper §3.1).
///
/// Nodes are stored in *let order* — every edge points from a later node to
/// an earlier one, and the root is the last node. Construct with
/// [`DecompBuilder`] or [`crate::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decomposition {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    incoming: Vec<Vec<EdgeId>>,
}

impl Decomposition {
    /// The root node (always the last in let order).
    pub fn root(&self) -> NodeId {
        NodeId((self.nodes.len() - 1) as u16)
    }

    /// Node lookup.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Edge lookup.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// All nodes in let order (targets before sources; root last).
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u16), n))
    }

    /// All edges.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId(i as u16), e))
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of map edges — the paper's decomposition "size" (§5, §6).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The edges whose target is `id`.
    pub fn incoming_edges(&self, id: NodeId) -> &[EdgeId] {
        &self.incoming[id.index()]
    }

    /// Nodes in topological order, root first (parents before children) —
    /// the traversal order of `dinsert` (§4.4).
    pub fn topo_root_first(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).rev().map(|i| NodeId(i as u16))
    }

    /// Looks a node up by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|n| n.name == name)
            .map(|i| NodeId(i as u16))
    }

    /// Renders the decomposition in the concrete let-notation accepted by
    /// [`crate::parse`].
    pub fn to_let_notation(&self, cat: &Catalog) -> String {
        let mut out = String::new();
        for (_, n) in self.nodes() {
            out.push_str(&format!(
                "let {} : {} . {} = {} in\n",
                n.name,
                n.bound.display(cat),
                n.cols.display(cat),
                self.body_to_string(&n.body, cat)
            ));
        }
        out.push_str(&self.nodes.last().unwrap().name);
        out
    }

    fn body_to_string(&self, b: &Body, cat: &Catalog) -> String {
        match b {
            Body::Unit(c) => format!("unit {}", c.display(cat)),
            Body::Map(e) => {
                let e = self.edge(*e);
                format!(
                    "{} -[{}]-> {}",
                    e.key.display(cat),
                    e.ds,
                    self.node(e.to).name
                )
            }
            Body::Join(l, r) => {
                let ls = match **l {
                    Body::Join(..) => format!("({})", self.body_to_string(l, cat)),
                    _ => format!("({})", self.body_to_string(l, cat)),
                };
                let rs = format!("({})", self.body_to_string(r, cat));
                format!("{ls} join {rs}")
            }
        }
    }

    /// A canonical serialization of the decomposition *shape*: node names are
    /// normalized by first-visit order from the root, join branches are
    /// sorted, and data-structure kinds are included iff `with_ds`. Two
    /// decompositions are isomorphic (in the paper's Fig. 11 sense, "up to
    /// the choice of data structures") iff their `with_ds = false` forms
    /// agree.
    pub fn canonical_string(&self, with_ds: bool) -> String {
        let mut names: HashMap<NodeId, usize> = HashMap::new();
        let mut counter = 0usize;
        let mut memo: HashMap<NodeId, String> = HashMap::new();
        self.canon_node(self.root(), with_ds, &mut names, &mut counter, &mut memo)
    }

    fn canon_node(
        &self,
        id: NodeId,
        with_ds: bool,
        names: &mut HashMap<NodeId, usize>,
        counter: &mut usize,
        memo: &mut HashMap<NodeId, String>,
    ) -> String {
        if let Some(&n) = names.get(&id) {
            // Shared node: refer back by normalized name.
            return format!("@{n}");
        }
        names.insert(id, *counter);
        let my_name = *counter;
        *counter += 1;
        let body = self.canon_body(&self.node(id).body, with_ds, names, counter, memo);
        let s = format!("#{my_name}:{}", body);
        memo.insert(id, s.clone());
        s
    }

    fn canon_body(
        &self,
        b: &Body,
        with_ds: bool,
        names: &mut HashMap<NodeId, usize>,
        counter: &mut usize,
        memo: &mut HashMap<NodeId, String>,
    ) -> String {
        match b {
            Body::Unit(c) => format!("u{:x}", c.iter().fold(0u64, |a, c| a | (1 << c.index()))),
            Body::Map(e) => {
                let e = self.edge(*e);
                let key: u64 = e.key.iter().fold(0u64, |a, c| a | (1 << c.index()));
                let child = self.canon_node(e.to, with_ds, names, counter, memo);
                if with_ds {
                    format!("m{key:x}[{}]({child})", e.ds)
                } else {
                    format!("m{key:x}({child})")
                }
            }
            Body::Join(l, r) => {
                // Decide branch order *before* committing normalized names:
                // serialize each side against a throwaway copy of the naming
                // state, compare, then serialize in that order for real.
                // Both probes start from identical state, so the order is
                // independent of the original left/right arrangement.
                let probe = |b: &Body| {
                    let mut names2 = names.clone();
                    let mut counter2 = *counter;
                    let mut memo2 = memo.clone();
                    self.canon_body(b, with_ds, &mut names2, &mut counter2, &mut memo2)
                };
                let (first, second) = if probe(l) <= probe(r) { (l, r) } else { (r, l) };
                let a = self.canon_body(first, with_ds, names, counter, memo);
                let b = self.canon_body(second, with_ds, names, counter, memo);
                format!("j({a},{b})")
            }
        }
    }
}

/// A body specification used when building nodes (the user-facing analog of
/// [`Body`], with node references instead of edge ids).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Prim {
    /// `unit C`.
    Unit(ColSet),
    /// `C -[ψ]-> v`.
    Map(ColSet, DsKind, NodeId),
    /// `pˆ₁ ⋈ pˆ₂`.
    Join(Box<Prim>, Box<Prim>),
}

impl Prim {
    /// Convenience constructor for a join.
    pub fn join(l: Prim, r: Prim) -> Prim {
        Prim::Join(Box::new(l), Box::new(r))
    }
}

/// Builds a [`Decomposition`] bottom-up, one let binding at a time.
///
/// # Example
///
/// The chain decomposition `x = {src} -> y = {dst} -> unit {weight}`:
///
/// ```
/// use relic_spec::Catalog;
/// use relic_decomp::{DecompBuilder, DsKind, Prim};
///
/// let mut cat = Catalog::new();
/// let (src, dst, weight) = (cat.intern("src"), cat.intern("dst"), cat.intern("weight"));
/// let mut b = DecompBuilder::new();
/// let z = b.node("z", src | dst, Prim::Unit(weight.into()))?;
/// let y = b.node("y", src.into(), Prim::Map(dst.into(), DsKind::HashTable, z))?;
/// let _x = b.node("x", Default::default(), Prim::Map(src.into(), DsKind::HashTable, y))?;
/// let d = b.finish()?;
/// assert_eq!(d.edge_count(), 2);
/// # Ok::<(), relic_decomp::DecompError>(())
/// ```
#[derive(Debug, Default)]
pub struct DecompBuilder {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    names: HashMap<String, NodeId>,
}

impl DecompBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        DecompBuilder::default()
    }

    /// Adds the binding `let name : bound ▷ C = prim`, where `C` is computed
    /// from the body. Targets of map primitives must already be bound
    /// (decompositions are built bottom-up), which enforces acyclicity.
    ///
    /// # Errors
    ///
    /// Returns [`DecompError::DuplicateName`] if `name` is already bound and
    /// [`DecompError::UnknownNode`] if a map target has not been added.
    pub fn node(&mut self, name: &str, bound: ColSet, prim: Prim) -> Result<NodeId, DecompError> {
        if self.names.contains_key(name) {
            return Err(DecompError::DuplicateName(name.to_string()));
        }
        let id = NodeId(self.nodes.len() as u16);
        let (body, cols) = self.lower(id, prim)?;
        self.nodes.push(Node {
            name: name.to_string(),
            bound,
            cols,
            body,
        });
        self.names.insert(name.to_string(), id);
        Ok(id)
    }

    fn lower(&mut self, from: NodeId, prim: Prim) -> Result<(Body, ColSet), DecompError> {
        match prim {
            Prim::Unit(c) => Ok((Body::Unit(c), c)),
            Prim::Map(key, ds, to) => {
                if to.index() >= self.nodes.len() {
                    return Err(DecompError::UnknownNode(format!("node #{}", to.0)));
                }
                let eid = EdgeId(self.edges.len() as u16);
                self.edges.push(Edge { from, key, ds, to });
                let cols = key | self.nodes[to.index()].cols;
                Ok((Body::Map(eid), cols))
            }
            Prim::Join(l, r) => {
                let (lb, lc) = self.lower(from, *l)?;
                let (rb, rc) = self.lower(from, *r)?;
                Ok((Body::Join(Box::new(lb), Box::new(rb)), lc | rc))
            }
        }
    }

    /// Resolves a previously added node by name.
    pub fn get(&self, name: &str) -> Option<NodeId> {
        self.names.get(name).copied()
    }

    /// The computed columns `C` of a node already added to the builder.
    pub fn node_cols(&self, id: NodeId) -> ColSet {
        self.nodes[id.index()].cols
    }

    /// Finalizes the decomposition. The last node added becomes the root.
    ///
    /// # Errors
    ///
    /// * [`DecompError::Empty`] — no nodes were added.
    /// * [`DecompError::RootBound`] — the root's bound columns are not `∅`.
    /// * [`DecompError::UnreachableNode`] — a non-root node has no incoming
    ///   edge (the paper requires every let-bound variable to appear in the
    ///   rest of the decomposition).
    /// * [`DecompError::BindingMismatch`] — some node's declared `B` differs
    ///   from the union of `B_parent ∪ K` over its incoming edges.
    pub fn finish(self) -> Result<Decomposition, DecompError> {
        if self.nodes.is_empty() {
            return Err(DecompError::Empty);
        }
        let root = NodeId((self.nodes.len() - 1) as u16);
        if !self.nodes[root.index()].bound.is_empty() {
            return Err(DecompError::RootBound(
                self.nodes[root.index()].name.clone(),
            ));
        }
        let mut incoming: Vec<Vec<EdgeId>> = vec![Vec::new(); self.nodes.len()];
        for (i, e) in self.edges.iter().enumerate() {
            incoming[e.to.index()].push(EdgeId(i as u16));
        }
        for (i, node) in self.nodes.iter().enumerate() {
            let id = NodeId(i as u16);
            if id != root && incoming[i].is_empty() {
                return Err(DecompError::UnreachableNode(node.name.clone()));
            }
            let derived: ColSet = incoming[i]
                .iter()
                .map(|e| {
                    let e = &self.edges[e.index()];
                    self.nodes[e.from.index()].bound | e.key
                })
                .fold(ColSet::EMPTY, ColSet::union);
            if id != root && derived != node.bound {
                return Err(DecompError::BindingMismatch {
                    node: node.name.clone(),
                    declared: node.bound,
                    derived,
                });
            }
        }
        Ok(Decomposition {
            nodes: self.nodes,
            edges: self.edges,
            incoming,
        })
    }
}

impl fmt::Display for Decomposition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.canonical_string(true))
    }
}

/// Renders the decomposition as a Graphviz `dot` digraph: solid edges for
/// hash tables / trees, dashed for lists, dotted for vectors — following the
/// paper's Fig. 2 conventions.
pub fn to_dot(d: &Decomposition, cat: &Catalog) -> String {
    let mut out = String::from("digraph decomposition {\n  rankdir=TB;\n");
    for (id, n) in d.nodes() {
        let unit = n
            .body
            .leaves()
            .iter()
            .find_map(|l| match l {
                Body::Unit(c) => Some(format!("\\nunit {}", c.display(cat))),
                _ => None,
            })
            .unwrap_or_default();
        out.push_str(&format!(
            "  n{} [label=\"{}: {} . {}{}\"];\n",
            id.0,
            n.name,
            n.bound.display(cat),
            n.cols.display(cat),
            unit
        ));
    }
    for (_, e) in d.edges() {
        let style = match e.ds {
            DsKind::HashTable | DsKind::AvlTree => "solid",
            DsKind::DList | DsKind::IntrusiveList => "dashed",
            DsKind::AssocVec | DsKind::SortedVec => "dotted",
        };
        out.push_str(&format!(
            "  n{} -> n{} [label=\"{} ({})\", style={}];\n",
            e.from.0,
            e.to.0,
            e.key.display(cat),
            e.ds,
            style
        ));
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use relic_spec::Catalog;

    fn scheduler() -> (Catalog, Decomposition) {
        let mut cat = Catalog::new();
        let ns = cat.intern("ns");
        let pid = cat.intern("pid");
        let state = cat.intern("state");
        let cpu = cat.intern("cpu");
        let mut b = DecompBuilder::new();
        let w = b
            .node("w", ns | pid | state, Prim::Unit(cpu.into()))
            .unwrap();
        let y = b
            .node("y", ns.into(), Prim::Map(pid.into(), DsKind::HashTable, w))
            .unwrap();
        let z = b
            .node("z", state.into(), Prim::Map(ns | pid, DsKind::DList, w))
            .unwrap();
        b.node(
            "x",
            ColSet::EMPTY,
            Prim::join(
                Prim::Map(ns.into(), DsKind::HashTable, y),
                Prim::Map(state.into(), DsKind::AssocVec, z),
            ),
        )
        .unwrap();
        (cat, b.finish().unwrap())
    }

    #[test]
    fn builder_constructs_paper_decomposition() {
        let (cat, d) = scheduler();
        assert_eq!(d.node_count(), 4);
        assert_eq!(d.edge_count(), 4);
        assert_eq!(d.node(d.root()).name, "x");
        assert_eq!(d.node(d.root()).cols, cat.all());
        let w = d.node_by_name("w").unwrap();
        assert_eq!(d.incoming_edges(w).len(), 2, "w is shared");
    }

    #[test]
    fn topo_order_is_root_first() {
        let (_, d) = scheduler();
        let order: Vec<&str> = d
            .topo_root_first()
            .map(|id| d.node(id).name.as_str())
            .collect();
        assert_eq!(order, vec!["x", "z", "y", "w"]);
        // Every edge goes from earlier to later in this order.
        let pos = |id: NodeId| order.iter().position(|n| *n == d.node(id).name).unwrap();
        for (_, e) in d.edges() {
            assert!(pos(e.from) < pos(e.to));
        }
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut cat = Catalog::new();
        let a = cat.intern("a");
        let mut b = DecompBuilder::new();
        b.node("v", a.into(), Prim::Unit(ColSet::EMPTY)).unwrap();
        let err = b
            .node("v", a.into(), Prim::Unit(ColSet::EMPTY))
            .unwrap_err();
        assert!(matches!(err, DecompError::DuplicateName(_)));
    }

    #[test]
    fn root_must_be_unbound() {
        let mut cat = Catalog::new();
        let a = cat.intern("a");
        let mut b = DecompBuilder::new();
        b.node("x", a.into(), Prim::Unit(ColSet::EMPTY)).unwrap();
        assert!(matches!(b.finish(), Err(DecompError::RootBound(_))));
    }

    #[test]
    fn unreachable_node_rejected() {
        let mut cat = Catalog::new();
        let a = cat.intern("a");
        let mut b = DecompBuilder::new();
        b.node("orphan", a.into(), Prim::Unit(ColSet::EMPTY))
            .unwrap();
        b.node("x", ColSet::EMPTY, Prim::Unit(a.into())).unwrap();
        assert!(matches!(b.finish(), Err(DecompError::UnreachableNode(_))));
    }

    #[test]
    fn binding_mismatch_rejected() {
        let mut cat = Catalog::new();
        let a = cat.intern("a");
        let b_ = cat.intern("b");
        let mut b = DecompBuilder::new();
        // Child claims bound = {a, b} but only {a} is bound on its path.
        let y = b.node("y", a | b_, Prim::Unit(ColSet::EMPTY)).unwrap();
        b.node(
            "x",
            ColSet::EMPTY,
            Prim::Map(a.into(), DsKind::HashTable, y),
        )
        .unwrap();
        assert!(matches!(
            b.finish(),
            Err(DecompError::BindingMismatch { .. })
        ));
    }

    #[test]
    fn empty_builder_rejected() {
        assert!(matches!(
            DecompBuilder::new().finish(),
            Err(DecompError::Empty)
        ));
    }

    #[test]
    fn let_notation_mentions_all_nodes() {
        let (cat, d) = scheduler();
        let s = d.to_let_notation(&cat);
        for name in ["w", "y", "z", "x"] {
            assert!(s.contains(&format!("let {name} ")), "missing {name} in {s}");
        }
        assert!(s.contains("join"));
        assert!(s.contains("-[htable]->"));
    }

    #[test]
    fn canonical_string_distinguishes_ds_only_when_asked() {
        let (_, d1) = scheduler();
        // Same shape, different data structure on one edge.
        let mut cat = Catalog::new();
        let ns = cat.intern("ns");
        let pid = cat.intern("pid");
        let state = cat.intern("state");
        let cpu = cat.intern("cpu");
        let mut b = DecompBuilder::new();
        let w = b
            .node("w", ns | pid | state, Prim::Unit(cpu.into()))
            .unwrap();
        let y = b
            .node("y", ns.into(), Prim::Map(pid.into(), DsKind::AvlTree, w))
            .unwrap();
        let z = b
            .node("z", state.into(), Prim::Map(ns | pid, DsKind::DList, w))
            .unwrap();
        b.node(
            "x",
            ColSet::EMPTY,
            Prim::join(
                Prim::Map(ns.into(), DsKind::HashTable, y),
                Prim::Map(state.into(), DsKind::AssocVec, z),
            ),
        )
        .unwrap();
        let d2 = b.finish().unwrap();
        assert_eq!(d1.canonical_string(false), d2.canonical_string(false));
        assert_ne!(d1.canonical_string(true), d2.canonical_string(true));
    }

    #[test]
    fn join_order_does_not_change_canonical_shape() {
        let mut cat = Catalog::new();
        let a = cat.intern("a");
        let b_ = cat.intern("b");
        let build = |flip: bool| {
            let mut bld = DecompBuilder::new();
            let u1 = bld.node("u1", a.into(), Prim::Unit(ColSet::EMPTY)).unwrap();
            let u2 = bld
                .node("u2", b_.into(), Prim::Unit(ColSet::EMPTY))
                .unwrap();
            let l = Prim::Map(a.into(), DsKind::HashTable, u1);
            let r = Prim::Map(b_.into(), DsKind::HashTable, u2);
            let body = if flip {
                Prim::join(r, l)
            } else {
                Prim::join(l, r)
            };
            bld.node("x", ColSet::EMPTY, body).unwrap();
            bld.finish().unwrap()
        };
        assert_eq!(
            build(false).canonical_string(true),
            build(true).canonical_string(true)
        );
    }

    #[test]
    fn dot_export_contains_nodes_and_styles() {
        let (cat, d) = scheduler();
        let dot = to_dot(&d, &cat);
        assert!(dot.contains("digraph"));
        assert!(dot.contains("style=dashed")); // dlist edge
        assert!(dot.contains("style=solid")); // htable edge
        assert!(dot.contains("style=dotted")); // vec edge
    }

    #[test]
    fn body_leaves_and_edges() {
        let (_, d) = scheduler();
        let root = d.node(d.root());
        assert_eq!(root.body.leaves().len(), 2);
        assert_eq!(root.body.edges().len(), 2);
        let w = d.node(d.node_by_name("w").unwrap());
        assert_eq!(w.body.edges().len(), 0);
        assert_eq!(w.body.leaves().len(), 1);
    }
}
