//! Lowering: [`Plan`] → plan IR.
//!
//! The walk aligns the plan with the decomposition's bodies (naming each
//! operator's edge and each `qunit`'s leaf) and threads the *available*
//! (bound) columns through it, computing each step's `bind`/`check`/`filter`
//! sets once for both backends. `qlr` selects its side here; `qjoin(first,
//! second)` dissolves by grafting `second`'s steps at `first`'s emit points,
//! and `qhashjoin` becomes a [`Step::HashJoin`] with static join columns.
//!
//! The write side lowers the decomposition itself, once: [`lower_insert`]
//! is §4.4's topological find-or-create, [`lower_remove`] §4.5's cut
//! removal, [`lower_update`] the in-place update's locate-and-set. Each
//! step carries the edge it follows, the edge's leaf index and the row
//! positions of its key, so neither backend re-derives a walk.

use crate::ir::{Block, Hop, Step, WriteBlock, WriteStep};
use crate::{Plan, PlanError, Side};
use relic_decomp::{Body, Cut, Decomposition, EdgeId, NodeId};
use relic_spec::ColSet;

/// Lowers `plan`, planned for `d`'s root, to IR.
///
/// * `avail` — the equality-bound pattern columns,
/// * `filter` — the columns whose comparison predicates filter the rows
///   binding them (a compiled range signature's column; every non-equality
///   column of an interpreted `query_where`),
/// * `used` — the columns the sink reads (the interpreter's: all of them).
///
/// # Errors
///
/// [`PlanError::Misaligned`] if the plan does not fit the decomposition:
/// an operator on the wrong kind of body, or a `qlookup` / `qrange` whose
/// key prefix is not bound where it runs (a valid plan always lowers).
pub fn lower_plan(
    d: &Decomposition,
    plan: &Plan,
    avail: ColSet,
    filter: ColSet,
    used: ColSet,
) -> Result<Block, PlanError> {
    let root = d.root();
    Lowering { d, filter }.walk(root, &d.node(root).body, 0, plan, avail, &mut |_| {
        Ok(emit(used))
    })
}

/// The one-step block invoking the sink.
fn emit(used: ColSet) -> Block {
    Block(vec![Step::Emit { used }])
}

/// The continuation: builds the block run after a sub-plan has matched,
/// from the columns bound at that point.
type Cont<'k> = dyn FnMut(ColSet) -> Result<Block, PlanError> + 'k;

struct Lowering<'a> {
    d: &'a Decomposition,
    filter: ColSet,
}

impl Lowering<'_> {
    /// Lowers `plan` against `body`, a sub-body of `node`'s whose leftmost
    /// leaf is the node's leaf number `leaf`.
    fn walk(
        &self,
        node: NodeId,
        body: &Body,
        leaf: usize,
        plan: &Plan,
        avail: ColSet,
        k: &mut Cont<'_>,
    ) -> Result<Block, PlanError> {
        let misaligned = || PlanError::Misaligned {
            plan: plan.to_string(),
        };
        let step = match (plan, body) {
            (Plan::Unit, Body::Unit(cols)) => {
                let bind = *cols - avail;
                Step::Unit {
                    node,
                    leaf,
                    check: *cols & avail,
                    filter: bind & self.filter,
                    bind,
                    then: k(avail | *cols)?,
                }
            }
            (
                Plan::Lookup { child } | Plan::Scan { child } | Plan::Range { child },
                Body::Map(edge),
            ) => {
                let e = self.d.edge(*edge);
                let bind = e.key - avail;
                let then = self.walk(e.to, &self.d.node(e.to).body, 0, child, avail | e.key, k)?;
                match plan {
                    Plan::Lookup { .. } if bind.is_empty() => Step::Probe { edge: *edge, then },
                    Plan::Scan { .. } => Step::Scan {
                        edge: *edge,
                        bind,
                        check: e.key & avail,
                        filter: bind & self.filter,
                        then,
                    },
                    // Only the final key column may be unbound at a seek.
                    Plan::Range { .. }
                        if e.key.max_col().is_some_and(|c| bind.is_subset(c.set())) =>
                    {
                        Step::Range {
                            edge: *edge,
                            bind,
                            then,
                        }
                    }
                    _ => return Err(misaligned()),
                }
            }
            (Plan::Lr { side, inner }, Body::Join(l, r)) => {
                let [(b, at), _] = sides(*side, l, r, leaf);
                return self.walk(node, b, at, inner, avail, k);
            }
            (
                Plan::Join {
                    side,
                    first,
                    second,
                },
                Body::Join(l, r),
            ) => {
                let [(fb, fl), (sb, sl)] = sides(*side, l, r, leaf);
                return self.walk(node, fb, fl, first, avail, &mut |avail1| {
                    self.walk(node, sb, sl, second, avail1, k)
                });
            }
            (
                Plan::HashJoin {
                    side,
                    first,
                    second,
                },
                Body::Join(l, r),
            ) => {
                let [(fb, fl), (sb, sl)] = sides(*side, l, r, leaf);
                // Each side emits its full valuation into the join.
                let (mut built, mut probed) = (avail, avail);
                let build = self.walk(node, fb, fl, first, avail, &mut |a| {
                    built = a;
                    Ok(emit(a))
                })?;
                let probe = self.walk(node, sb, sl, second, avail, &mut |a| {
                    probed = a;
                    Ok(emit(a))
                })?;
                Step::HashJoin {
                    build,
                    probe,
                    on: built & probed,
                    then: k(built | probed)?,
                }
            }
            _ => return Err(misaligned()),
        };
        Ok(Block(vec![step]))
    }
}

/// The two operands of a join body as `(sub-body, first leaf)` pairs, the
/// `side` operand first.
fn sides<'b>(side: Side, l: &'b Body, r: &'b Body, leaf: usize) -> [(&'b Body, usize); 2] {
    let right = (r, leaf + l.leaf_count());
    match side {
        Side::Left => [(l, leaf), right],
        Side::Right => [right, (l, leaf)],
    }
}

/// For each node, its unit columns `C` if it is an *inline leaf*: not the
/// root, body exactly `unit C`, one incoming edge, not an intrusive list.
/// The interpreter stores such a leaf's units in that edge's container
/// entries, so it has no instances; its insert step is a
/// [`WriteStep::Store`].
pub fn inline_units(d: &Decomposition) -> Vec<Option<ColSet>> {
    d.nodes()
        .map(|(id, node)| match (&node.body, d.incoming_edges(id)) {
            (Body::Unit(c), [e]) if id != d.root() && !d.edge(*e).ds.is_intrusive() => Some(*c),
            _ => None,
        })
        .collect()
}

/// Every column of an edge key or a node binding: a change to one moves a
/// tuple between instances, so an update touching one cannot run in place.
pub fn structural_cols(d: &Decomposition) -> ColSet {
    d.edges().fold(ColSet::EMPTY, |s, (_, e)| s | e.key)
        | d.nodes().fold(ColSet::EMPTY, |s, (_, n)| s | n.bound)
}

/// Lowers §4.4's `dinsert` for `d` over rows whose minimal key is `key`:
/// every node below the root — a [`WriteStep::Create`] through its
/// resolved incoming edges and a [`WriteStep::Link`] per incoming edge, or
/// a [`WriteStep::Store`] for an inline leaf. The row is a full tuple of
/// the root's columns.
///
/// The *identity path* comes first: the canonical path of the node whose
/// [`path_key`] is exactly `key` (the shortest such path), so that node's
/// instance exists iff a stored tuple has the row's key. Its last probe —
/// the identity node's `create`, or `store` for an inline leaf — is the
/// block's [`WriteBlock::guard`]: walked read-only up to it, the block
/// says whether the key is stored before anything is written. The other
/// nodes follow in topological order, and an incoming edge of a path node
/// from a later node is linked right after that node's `create`. Without
/// an identity node the block is topological and has no guard.
///
/// # Errors
///
/// [`PlanError::WriteMisaligned`] if a node is reached before all of its
/// parents and no parent of it is resolved.
pub fn lower_insert(d: &Decomposition, key: ColSet) -> Result<WriteBlock, PlanError> {
    let mut w = WriteLowering::new(d, d.node(d.root()).cols);
    let inline = inline_units(d);
    let identity = d
        .nodes()
        .map(|(id, _)| id)
        .filter(|&n| n != d.root() && !key.is_empty() && path_key(d, n) == key)
        .min_by_key(|&n| canonical_edges(d, n).len());
    let path: Vec<NodeId> = identity.map_or_else(Vec::new, |n| {
        canonical_edges(d, n)
            .iter()
            .rev()
            .map(|&e| d.edge(e).to)
            .collect()
    });
    let rest = d
        .topo_root_first()
        .filter(|n| *n != d.root() && !path.contains(n));
    let (mut steps, mut guard) = (Vec::new(), None);
    for node in path.iter().copied().chain(rest) {
        let bound = w.positions(d.node(node).bound)?;
        let resolved = d
            .incoming_edges(node)
            .iter()
            .copied()
            .filter(|&e| w.resolved[d.edge(e).from.index()]);
        let via: Box<[Hop]> = resolved.map(|e| w.hop(e)).collect::<Result<_, _>>()?;
        if via.is_empty() {
            return Err(w.err(format!("n{} has no resolved parent", node.index())));
        }
        if Some(node) == identity {
            guard = Some(steps.len());
        }
        if let Some(cols) = inline[node.index()] {
            let unit = w.positions(cols)?;
            let hop = via[0].clone();
            steps.push(WriteStep::Store {
                hop,
                bound,
                cols,
                unit,
            });
        } else {
            let links: Vec<WriteStep> = via.iter().cloned().map(WriteStep::Link).collect();
            let unit_cols = d.node(node).body.leaves().into_iter().map(|b| match b {
                Body::Unit(c) => w.positions(*c),
                _ => Ok(Box::default()),
            });
            let units: Vec<Box<[u16]>> = unit_cols.collect::<Result<_, _>>()?;
            steps.push(WriteStep::Create {
                node,
                via,
                bound,
                units: units.concat().into(),
            });
            steps.extend(links);
        }
        w.resolved[node.index()] = true;
        // Edges into path nodes that were created before this parent.
        for e in d.node(node).body.edges() {
            if w.resolved[d.edge(e).to.index()] && path.contains(&d.edge(e).to) {
                steps.push(WriteStep::Link(w.hop(e)?));
            }
        }
    }
    Ok(WriteBlock { steps, guard })
}

/// Lowers §4.5's removal of one stored row for `cut`: a
/// [`WriteStep::Resolve`] of every node below the root along its canonical
/// edge (topological order), a [`WriteStep::Break`] per crossing edge, a
/// [`WriteStep::Free`] per node below the cut and a [`WriteStep::Reclaim`]
/// per node above it that holds no unit leaf (children first). When the
/// root itself is below the cut the block is one `Free` of the root.
///
/// # Errors
///
/// [`PlanError::WriteMisaligned`] if `cut` was not computed for `d` or has
/// an edge from below the cut back above it.
pub fn lower_remove(d: &Decomposition, cut: &Cut) -> Result<WriteBlock, PlanError> {
    let mut w = WriteLowering::new(d, d.node(d.root()).cols);
    if cut.below.len() != d.node_count() {
        return Err(w.err("the cut is of another decomposition"));
    }
    let mut crossing = Vec::new();
    for (id, e) in d.edges() {
        match (cut.is_below(e.from), cut.is_below(e.to)) {
            (true, false) => return Err(w.err(format!("e{} leaves the cut upwards", id.index()))),
            (false, true) => crossing.push(id),
            _ => {}
        }
    }
    if crossing != cut.crossing {
        return Err(w.err("the cut's crossing edges are not this decomposition's"));
    }
    if cut.is_below(d.root()) {
        return Ok(WriteBlock {
            steps: vec![WriteStep::Free { node: d.root() }],
            guard: None,
        });
    }
    let mut steps = Vec::new();
    for node in d.topo_root_first().filter(|&n| n != d.root()) {
        steps.push(WriteStep::Resolve(w.hop(d.incoming_edges(node)[0])?));
        w.resolved[node.index()] = true;
    }
    for &e in &crossing {
        steps.push(WriteStep::Break(w.hop(e)?));
    }
    let has_unit = |n: NodeId| {
        d.node(n)
            .body
            .leaves()
            .iter()
            .any(|l| matches!(l, Body::Unit(_)))
    };
    let below = d.nodes().filter(|&(n, _)| n != d.root() && cut.is_below(n));
    steps.extend(below.map(|(node, _)| WriteStep::Free { node }));
    for (node, _) in d.nodes() {
        if node != d.root() && !cut.is_below(node) && !has_unit(node) {
            let via = w.hops(d.incoming_edges(node))?;
            steps.push(WriteStep::Reclaim { node, via });
        }
    }
    Ok(WriteBlock { steps, guard: None })
}

/// Lowers the in-place update of the unit columns among `changes`, over a
/// row of the columns `row`. It locates every node holding a unit leaf
/// with a column in `changes` and, unless one of those is, a *witness*:
/// the first node holding a unit leaf whose canonical path binds exactly
/// `row`. A witness's instance (an inline leaf's entry) exists iff a row
/// with these values is stored, so locating it tells an absent row from a
/// present one. Per located node
/// (let order): the [`WriteStep::Resolve`]s along its canonical path (the
/// first incoming edge at every hop, root first), then a [`WriteStep::Set`] per unit leaf. An inline
/// leaf's `Set` names the edge whose entry holds its unit instead of
/// resolving the leaf.
///
/// # Errors
///
/// [`PlanError::WriteMisaligned`] if `row` does not bind an edge key on one
/// of those paths, or `changes` holds a structural column (see
/// [`structural_cols`]).
pub fn lower_update(
    d: &Decomposition,
    row: ColSet,
    changes: ColSet,
) -> Result<WriteBlock, PlanError> {
    let mut w = WriteLowering::new(d, row);
    let moved = changes & structural_cols(d);
    if !moved.is_empty() {
        return Err(w.err(format!(
            "columns {:x} move tuples between instances",
            moved.bits()
        )));
    }
    let inline = inline_units(d);
    let units_of = |n: &relic_decomp::Node| -> Vec<(usize, ColSet)> {
        let leaves = n.body.leaves().into_iter().enumerate();
        leaves
            .filter_map(|(leaf, b)| match b {
                Body::Unit(cols) => Some((leaf, *cols)),
                _ => None,
            })
            .collect()
    };
    let touches = |n: &relic_decomp::Node| units_of(n).iter().any(|(_, c)| !c.is_disjoint(changes));
    let witnesses = d
        .nodes()
        .filter(|(id, n)| !units_of(n).is_empty() && path_key(d, *id) == row);
    let mut witness = None;
    for (id, n) in witnesses {
        witness.get_or_insert(id);
        if touches(n) {
            witness = None;
            break;
        }
    }
    let mut steps = Vec::new();
    for (node, n) in d.nodes() {
        let units = units_of(n);
        if units.is_empty() || !(touches(n) || witness == Some(node)) {
            continue;
        }
        let mut path = w.canonical_path(node)?;
        let entry = inline[node.index()].and_then(|_| path.pop());
        steps.extend(path.into_iter().map(WriteStep::Resolve));
        steps.extend(units.into_iter().map(|(leaf, cols)| WriteStep::Set {
            node,
            leaf,
            cols,
            entry: entry.clone(),
        }));
    }
    Ok(WriteBlock { steps, guard: None })
}

/// The key columns of the edges on `node`'s canonical path (the first
/// incoming edge at every node): what a row must bind to locate the node.
pub fn path_key(d: &Decomposition, node: NodeId) -> ColSet {
    let edges = canonical_edges(d, node);
    edges.iter().fold(ColSet::EMPTY, |k, &e| k | d.edge(e).key)
}

/// The edges of `node`'s canonical path (the first incoming edge at every
/// node), from `node` up to the root.
fn canonical_edges(d: &Decomposition, mut node: NodeId) -> Vec<EdgeId> {
    let mut edges = Vec::new();
    while node != d.root() {
        let e = d.incoming_edges(node)[0];
        edges.push(e);
        node = d.edge(e).from;
    }
    edges
}

/// Shared state of the write lowerings: the row's columns and which nodes
/// earlier steps resolved.
struct WriteLowering<'a> {
    d: &'a Decomposition,
    row: ColSet,
    resolved: Vec<bool>,
}

impl<'a> WriteLowering<'a> {
    fn new(d: &'a Decomposition, row: ColSet) -> Self {
        let mut resolved = vec![false; d.node_count()];
        resolved[d.root().index()] = true;
        WriteLowering { d, row, resolved }
    }

    fn err(&self, reason: impl Into<String>) -> PlanError {
        PlanError::WriteMisaligned {
            reason: reason.into(),
        }
    }

    /// The row positions of `cols`.
    fn positions(&self, cols: ColSet) -> Result<Box<[u16]>, PlanError> {
        cols.iter()
            .map(|c| {
                let p = self.row.rank(c).ok_or_else(|| {
                    self.err(format!("the row does not bind column {}", c.index()))
                })?;
                Ok(p as u16)
            })
            .collect()
    }

    /// Edge `e` as a hop, its parent resolved.
    fn hop(&self, e: EdgeId) -> Result<Hop, PlanError> {
        let edge = self.d.edge(e);
        if !self.resolved[edge.from.index()] {
            return Err(self.err(format!("e{} runs before its parent resolves", e.index())));
        }
        let leaves = self.d.node(edge.from).body.leaves();
        let leaf = leaves
            .iter()
            .position(|b| matches!(b, Body::Map(x) if *x == e))
            .ok_or_else(|| self.err(format!("e{} is no leaf of its parent", e.index())))?;
        Ok(Hop {
            edge: e,
            from: edge.from,
            to: edge.to,
            leaf,
            key: self.positions(edge.key)?,
        })
    }

    fn hops(&self, es: &[EdgeId]) -> Result<Box<[Hop]>, PlanError> {
        es.iter().map(|&e| self.hop(e)).collect()
    }

    /// The hops of `node`'s canonical path, root first; each resolves its
    /// target.
    fn canonical_path(&mut self, node: NodeId) -> Result<Vec<Hop>, PlanError> {
        let edges = canonical_edges(self.d, node);
        let mut path = Vec::with_capacity(edges.len());
        for &e in edges.iter().rev() {
            let hop = self.hop(e)?;
            self.resolved[hop.to.index()] = true;
            path.push(hop);
        }
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostModel, Planner};
    use relic_decomp::parse;
    use relic_spec::{Catalog, RelSpec};

    fn scheduler() -> (Catalog, RelSpec, Decomposition) {
        let mut cat = Catalog::new();
        let d = parse(
            &mut cat,
            "let w : {ns,pid,state} . {cpu} = unit {cpu} in
             let y : {ns} . {pid,cpu} = {pid} -[htable]-> w in
             let z : {state} . {ns,pid,cpu} = {ns,pid} -[dlist]-> w in
             let x : {} . {ns,pid,state,cpu} =
               ({ns} -[htable]-> y) join ({state} -[vec]-> z) in x",
        )
        .unwrap();
        let ns = cat.col("ns").unwrap();
        let pid = cat.col("pid").unwrap();
        let spec = RelSpec::new(cat.all()).with_fd(ns | pid, cat.all() - (ns | pid));
        (cat, spec, d)
    }

    #[test]
    fn point_lookup_lowers_to_probe_chain() {
        let (cat, spec, d) = scheduler();
        let ns = cat.col("ns").unwrap();
        let pid = cat.col("pid").unwrap();
        let cpu = cat.col("cpu").unwrap();
        let planner = Planner::new(&d, &spec, CostModel::uniform(&d, 16.0));
        let planned = planner.plan_query(ns | pid, cpu.into()).unwrap();
        let ir = lower_plan(&d, &planned.plan, ns | pid, ColSet::EMPTY, cpu.into()).unwrap();
        // qlr(qlookup(qlookup(qunit))) → probe(x→y), probe(y→w), unit(w).
        assert_eq!(ir.to_string(), "probe(e2 probe(e0 unit(n0 bind=8 emit)))");
    }

    #[test]
    fn resolves_lr_to_concrete_edges() {
        let (cat, spec, d) = scheduler();
        let ns = cat.col("ns").unwrap();
        let pid = cat.col("pid").unwrap();
        let cpu = cat.col("cpu").unwrap();
        let planner = Planner::new(&d, &spec, CostModel::uniform(&d, 16.0));
        let planned = planner.plan_query(ns | pid, cpu.into()).unwrap();
        // qlr(qlookup(qlookup(qunit)), left): the lr dissolves; the two
        // lookups anchor to the x→y and y→w edges.
        let ir = lower_plan(&d, &planned.plan, ns | pid, ColSet::EMPTY, cpu.into()).unwrap();
        let [Step::Probe { edge, then }] = ir.0.as_slice() else {
            panic!("expected probe at root, got {ir}");
        };
        assert_eq!(d.edge(*edge).key, ns.set());
        let [Step::Probe { edge, then }] = then.0.as_slice() else {
            panic!("expected inner probe, got {then}");
        };
        assert_eq!(d.edge(*edge).key, pid.set());
        let [Step::Unit {
            node, leaf, bind, ..
        }] = then.0.as_slice()
        else {
            panic!("expected unit leaf, got {then}");
        };
        assert_eq!((d.node(*node).name.as_str(), *leaf), ("w", 0));
        assert_eq!(*bind, cpu.set());
    }

    #[test]
    fn join_grafts_second_at_first_emit_points() {
        let (cat, spec, d) = scheduler();
        let ns = cat.col("ns").unwrap();
        let state = cat.col("state").unwrap();
        let pid = cat.col("pid").unwrap();
        let planner = Planner::new(&d, &spec, CostModel::uniform(&d, 16.0));
        // Force the paper's join plan q1 explicitly: scan left under ns,
        // then check the right side.
        let q1 = planner
            .enumerate(ns | state)
            .into_iter()
            .find(|(p, _)| {
                p.to_string() == "qjoin(qlookup(qscan(qunit)), qlookup(qlookup(qunit)), left)"
            })
            .expect("paper plan enumerated")
            .0;
        let ir = lower_plan(&d, &q1, ns | state, ColSet::EMPTY, pid.into()).unwrap();
        // The join is gone: second's probes are nested directly under
        // first's unit leaf.
        let s = ir.to_string();
        assert!(!s.contains("join"), "{s}");
        assert!(s.contains("scan(e0"), "{s}");
        assert!(s.contains("probe(e3"), "{s}");
    }

    #[test]
    fn hashjoin_lowers_with_static_join_columns() {
        let (cat, spec, d) = scheduler();
        let planner = Planner::new(&d, &spec, CostModel::uniform(&d, 16.0));
        let hj = planner
            .enumerate(ColSet::EMPTY)
            .into_iter()
            .find(|(p, _)| matches!(p, Plan::HashJoin { .. }))
            .expect("a hash join enumerated")
            .0;
        let ir = lower_plan(&d, &hj, ColSet::EMPTY, ColSet::EMPTY, cat.all()).unwrap();
        let [Step::HashJoin { on, then, .. }] = ir.0.as_slice() else {
            panic!("expected a hash join at root, got {ir}");
        };
        // Both sides of the scheduler bind ns, pid and cpu.
        let shared = ["ns", "pid", "cpu"].map(|c| cat.col(c).unwrap());
        assert_eq!(*on, ColSet::from_cols(shared));
        assert_eq!(then.to_string(), "emit");
    }

    #[test]
    fn misaligned_plan_is_an_error() {
        let mut cat = Catalog::new();
        let d = parse(
            &mut cat,
            "let w : {k} . {v} = unit {v} in
             let x : {} . {k,v} = {k} -[htable]-> w in x",
        )
        .unwrap();
        let k = cat.col("k").unwrap();
        // A join plan cannot align with a map body.
        let bogus = Plan::join(Side::Left, Plan::Unit, Plan::Unit);
        let err = lower_plan(&d, &bogus, ColSet::EMPTY, ColSet::EMPTY, cat.all());
        assert!(matches!(err, Err(PlanError::Misaligned { .. })), "{err:?}");
        // Nor can a lookup run without its key bound.
        let unbound = Plan::lookup(Plan::Unit);
        assert!(lower_plan(&d, &unbound, ColSet::EMPTY, ColSet::EMPTY, cat.all()).is_err());
        assert!(lower_plan(&d, &unbound, k.set(), ColSet::EMPTY, cat.all()).is_ok());
    }
}

#[cfg(test)]
mod write_tests {
    use super::*;
    use relic_decomp::{cut, parse};
    use relic_spec::{Catalog, RelSpec};

    const SCHEDULER: &str = "let w : {ns,pid,state} . {cpu} = unit {cpu} in
         let y : {ns} . {pid,cpu} = {pid} -[htable]-> w in
         let z : {state} . {ns,pid,cpu} = {ns,pid} -[dlist]-> w in
         let x : {} . {ns,pid,state,cpu} =
           ({ns} -[htable]-> y) join ({state} -[vec]-> z) in x";

    const FLOWS: &str = "let w : {local,remote} . {bytes,pkts} = unit {bytes,pkts} in
         let y : {local} . {remote,bytes,pkts} = {remote} -[htable]-> w in
         let x : {} . {local,remote,bytes,pkts} = {local} -[avl]-> y in x";

    fn setup(src: &str, key: &[&str]) -> (Catalog, RelSpec, Decomposition) {
        let mut cat = Catalog::new();
        let d = parse(&mut cat, src).unwrap();
        let k = key
            .iter()
            .fold(ColSet::EMPTY, |s, c| s | cat.col(c).unwrap());
        let spec = RelSpec::new(cat.all()).with_fd(k, cat.all() - k);
        (cat, spec, d)
    }

    fn cols(cat: &Catalog, names: &[&str]) -> ColSet {
        names
            .iter()
            .fold(ColSet::EMPTY, |s, c| s | cat.col(c).unwrap())
    }

    #[test]
    fn scheduler_insert_finds_or_creates_root_first() {
        // n0 = w (shared by y and z), n1 = y, n2 = z; e0 = y→w, e1 = z→w,
        // e2 = x→y, e3 = x→z. w's canonical path x→y→w is keyed by exactly
        // {ns, pid}, so it comes first and w's create is the guard; the
        // {state} index z follows, and w is linked under it after its
        // create.
        let (_, spec, d) = setup(SCHEDULER, &["ns", "pid"]);
        assert_eq!(
            lower_insert(&d, spec.minimal_key()).unwrap().to_string(),
            "create(n1 via=e2); link(e2); guard(create(n0 via=e0)); link(e0); \
             create(n2 via=e3); link(e3); link(e1)"
        );
    }

    #[test]
    fn no_identity_node_means_no_guard() {
        // The leaf's path is keyed by {a, b, v}, a superset of the key: a
        // miss there does not prove the key absent.
        let src = "let u : {a,b,v} . {} = unit {} in
             let y : {a} . {b,v} = {b,v} -[htable]-> u in
             let x : {} . {a,b,v} = {a} -[avl]-> y in x";
        let (_, spec, d) = setup(src, &["a", "b"]);
        let block = lower_insert(&d, spec.minimal_key()).unwrap();
        assert_eq!(block.guard, None);
        assert_eq!(
            block.to_string(),
            "create(n1 via=e1); link(e1); store(n0 e0)"
        );
    }

    #[test]
    fn scheduler_removals_follow_fig_10s_cuts() {
        let (cat, spec, d) = setup(SCHEDULER, &["ns", "pid"]);
        // Fig. 10(a): only w is below the {ns, pid} cut; both its edges
        // cross, and emptied y and z are reclaimed.
        let c = cut(&d, spec.fds(), cols(&cat, &["ns", "pid"]));
        assert_eq!(
            lower_remove(&d, &c).unwrap().to_string(),
            "resolve(n2 e3); resolve(n1 e2); resolve(n0 e0); break(e0); break(e1); \
             free(n0); reclaim(n1 via=e2); reclaim(n2 via=e3)"
        );
        // Fig. 10(b): z and w are below the {state} cut; x→z and y→w cross.
        let c = cut(&d, spec.fds(), cols(&cat, &["state"]));
        assert_eq!(
            lower_remove(&d, &c).unwrap().to_string(),
            "resolve(n2 e3); resolve(n1 e2); resolve(n0 e0); break(e0); break(e3); \
             free(n0); free(n2); reclaim(n1 via=e2)"
        );
    }

    #[test]
    fn scheduler_update_locates_and_sets_the_shared_unit() {
        let (cat, _, d) = setup(SCHEDULER, &["ns", "pid"]);
        let (ns_pid, cpu) = (cols(&cat, &["ns", "pid"]), cols(&cat, &["cpu"]));
        assert_eq!(
            lower_update(&d, ns_pid, cpu).unwrap().to_string(),
            "resolve(n1 e2); resolve(n0 e0); set(n0 leaf=0 cols=8)"
        );
        // A changed edge key or binding cannot be set in place.
        assert!(lower_update(&d, ns_pid, cols(&cat, &["state"])).is_err());
        // Nor can a row that leaves a key on the path unbound locate it.
        let err = lower_update(&d, cols(&cat, &["ns"]), cpu);
        assert!(
            matches!(err, Err(PlanError::WriteMisaligned { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn inline_leaf_is_stored_in_its_parents_entry() {
        // n0 = w, inline under y (n1); e0 = y→w, e1 = x→y.
        let (cat, spec, d) = setup(FLOWS, &["local", "remote"]);
        assert_eq!(inline_units(&d)[0], Some(cols(&cat, &["bytes", "pkts"])));
        assert_eq!(
            lower_insert(&d, spec.minimal_key()).unwrap().to_string(),
            "create(n1 via=e1); link(e1); guard(store(n0 e0))"
        );
        let key = cols(&cat, &["local", "remote"]);
        let c = cut(&d, spec.fds(), key);
        assert_eq!(
            lower_remove(&d, &c).unwrap().to_string(),
            "resolve(n1 e1); resolve(n0 e0); break(e0); free(n0); reclaim(n1 via=e1)"
        );
        let units = cols(&cat, &["bytes", "pkts"]);
        assert_eq!(
            lower_update(&d, key, units).unwrap().to_string(),
            "resolve(n1 e1); set(n0 e0 cols=c)"
        );
    }

    #[test]
    fn steps_carry_row_positions_of_their_keys() {
        let (cat, spec, d) = setup(FLOWS, &["local", "remote"]);
        let block = lower_insert(&d, spec.minimal_key()).unwrap();
        let WriteStep::Store { hop, unit, .. } = &block.steps[2] else {
            panic!("expected the inline store, got {block}");
        };
        // Row = (local, remote, bytes, pkts): e0 is keyed by remote.
        assert_eq!((&*hop.key, &**unit), (&[1u16][..], &[2u16, 3][..]));
        // Over a key-only row the same edge reads position 1 of (local, remote).
        let key = cols(&cat, &["local", "remote"]);
        let upd = lower_update(&d, key, cols(&cat, &["pkts"])).unwrap();
        let WriteStep::Set {
            entry: Some(hop), ..
        } = &upd.steps[1]
        else {
            panic!("expected an inline set, got {upd}");
        };
        assert_eq!(&*hop.key, &[1u16][..]);
    }

    #[test]
    fn a_foreign_or_inverted_cut_is_a_typed_error() {
        let (cat, spec, d) = setup(SCHEDULER, &["ns", "pid"]);
        let (fcat, fspec, flows) = setup(FLOWS, &["local", "remote"]);
        let foreign = cut(&flows, fspec.fds(), cols(&fcat, &["local"]));
        let err = lower_remove(&d, &foreign);
        assert!(
            matches!(err, Err(PlanError::WriteMisaligned { .. })),
            "{err:?}"
        );
        // Put x→y's source below the cut and its target above it.
        let mut inverted = cut(&d, spec.fds(), cols(&cat, &["ns", "pid"]));
        inverted.below = vec![false, false, false, true];
        let err = lower_remove(&d, &inverted);
        assert!(
            matches!(err, Err(PlanError::WriteMisaligned { .. })),
            "{err:?}"
        );
        // Crossing edges that disagree with `below` are refused too.
        let mut stale = cut(&d, spec.fds(), cols(&cat, &["ns", "pid"]));
        stale.crossing.pop();
        assert!(lower_remove(&d, &stale).is_err());
    }
}
