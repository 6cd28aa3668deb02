//! The abstraction function α and the well-formedness judgment (Fig. 5).
//!
//! `alpha` maps a decomposition instance back to the relation it represents;
//! `validate` checks that an instance is a well-formed instance of its
//! decomposition. Both are *specification-level* tools: the test suite uses
//! them to establish (empirically) the soundness theorem — after any sequence
//! of operations, the instance is well-formed and `α(d) = r` for the
//! reference relation `r`.
//!
//! An inline leaf's container entry stands for the leaf's instance: its unit
//! tuple is `α` of that instance, and its bound valuation is the path's.

use crate::instance::{ChildRef, InlineUnit, InstanceRef, Layout, PrimInst, Store};
use relic_decomp::{Body, Decomposition, EdgeId, NodeId};
use relic_spec::{ColSet, Relation, Tuple};
use std::collections::HashMap;
use std::rc::Rc;

/// α of every instance visited so far. An instance shared by several
/// parents (a DAG decomposition) is abstracted once; later visits borrow
/// the memoised relation instead of deep-cloning it.
type Memo = HashMap<InstanceRef, Rc<Relation>>;

/// `α(d)`: the relation the whole decomposition instance rooted at `root`
/// represents. The root has no parent, so it is never memoised.
pub fn alpha(store: &Store, d: &Decomposition, root: InstanceRef) -> Relation {
    let mut memo = Memo::new();
    alpha_body(store, d, &d.node(d.root()).body, 0, root, &mut memo)
}

/// Computes `α(v_t, Γ)` for an instance of node `node`.
fn alpha_node(
    store: &Store,
    d: &Decomposition,
    node: NodeId,
    inst: InstanceRef,
    memo: &mut Memo,
) -> Rc<Relation> {
    if let Some(r) = memo.get(&inst) {
        return Rc::clone(r);
    }
    let rel = Rc::new(alpha_body(store, d, &d.node(node).body, 0, inst, memo));
    memo.insert(inst, Rc::clone(&rel));
    rel
}

/// α of the child a container entry holds: a child instance of `node`, or
/// an inline leaf's unit `{t}`.
fn alpha_child(
    store: &Store,
    d: &Decomposition,
    node: NodeId,
    child: ChildRef<'_>,
    memo: &mut Memo,
) -> Rc<Relation> {
    match child {
        ChildRef::Node(r) => alpha_node(store, d, node, r, memo),
        ChildRef::Unit(u) => Rc::new(Relation::from_tuples(u.dom(), [u.to_tuple()])),
    }
}

fn alpha_body(
    store: &Store,
    d: &Decomposition,
    body: &Body,
    leaf: usize,
    inst: InstanceRef,
    memo: &mut Memo,
) -> Relation {
    match body {
        // α(t, Γ) = {t}
        Body::Unit(c) => {
            let PrimInst::Unit(u) = &store.get(inst).prims[leaf] else {
                panic!("leaf/prim misalignment");
            };
            Relation::from_tuples(*c, [u.to_tuple()])
        }
        // α({t ↦ v_t'}) = ⋃ {t} ⋈ α(v_t'). Each `{t} ⋈ α(v_t')` tuple goes
        // straight into the union: rebuilding the union per entry would
        // re-copy everything gathered so far, once per container entry.
        Body::Map(eid) => {
            let e = d.edge(*eid);
            let mut out = Relation::empty(e.key | d.node(e.to).cols);
            store.cont_for_each(inst, leaf, |k, child| {
                let kt = Tuple::from_parts(e.key, k.to_vec());
                let sub = alpha_child(store, d, e.to, child, memo);
                for t in sub.iter().filter(|t| kt.matches(t)) {
                    out.insert(kt.merge(t));
                }
            });
            out
        }
        // α(p₁ ⋈ p₂) = α(p₁) ⋈ α(p₂)
        Body::Join(l, r) => {
            let loff = l.leaf_count();
            let la = alpha_body(store, d, l, leaf, inst, memo);
            let ra = alpha_body(store, d, r, leaf + loff, inst, memo);
            la.natural_join(&ra)
        }
    }
}

/// (WFUNIT): a unit of node `node` must be a valuation of its columns `c`.
fn check_unit(d: &Decomposition, node: NodeId, u: &InlineUnit, c: ColSet) -> Result<(), String> {
    if u.dom() == c {
        return Ok(());
    }
    Err(format!(
        "unit in `{}` has domain {:?}, expected {:?}",
        d.node(node).name,
        u.dom(),
        c
    ))
}

/// Checks the well-formedness judgment `Γ, d ⊨ Γˆ, dˆ` (Fig. 5) plus the
/// implementation invariants (reference counts, intrusive links, arena
/// bookkeeping, and that every container entry holds the kind of child —
/// instance or inline unit — the layout names for its edge). Returns a
/// human-readable description of the first violation.
pub fn validate(
    store: &Store,
    d: &Decomposition,
    layout: &Layout,
    root: InstanceRef,
) -> Result<(), String> {
    let mut refcounts: HashMap<InstanceRef, u32> = HashMap::new();
    let mut visited: Vec<InstanceRef> = Vec::new();
    let mut memo = Memo::new();
    // Walk reachable instances from the root.
    let mut stack = vec![(d.root(), root)];
    let mut seen: std::collections::HashSet<InstanceRef> = std::collections::HashSet::new();
    while let Some((node, inst)) = stack.pop() {
        if !seen.insert(inst) {
            continue;
        }
        visited.push(inst);
        if !store.is_live(inst) {
            return Err(format!("dangling instance handle {inst:?} reachable"));
        }
        if layout.inline_unit[node.index()].is_some() {
            return Err(format!(
                "inline leaf `{}` has an instance",
                d.node(node).name
            ));
        }
        let data = store.get(inst);
        // (WFLET-ish) The stored key must be a valuation of B.
        if data.key.len() != d.node(node).bound.len() {
            return Err(format!(
                "instance of `{}` stores {} key values for {} bound columns",
                d.node(node).name,
                data.key.len(),
                d.node(node).bound.len()
            ));
        }
        if data.prims.len() != d.node(node).body.leaves().len() {
            return Err(format!(
                "instance of `{}` has wrong prim arity",
                d.node(node).name
            ));
        }
        // (WFUNIT)/(WFMAP): check each leaf.
        let node_bound = d.node(node).bound;
        let key_tuple = Tuple::from_parts(node_bound, data.key.to_vec());
        for (i, leaf) in d.node(node).body.leaves().iter().enumerate() {
            match (leaf, &data.prims[i]) {
                (Body::Unit(c), PrimInst::Unit(u)) => check_unit(d, node, u, *c)?,
                (Body::Map(eid), PrimInst::Map(_)) => {
                    let e = d.edge(*eid);
                    let mut checked = Ok(());
                    store.cont_for_each(inst, i, |k, child| {
                        if checked.is_err() {
                            return;
                        }
                        let kt = Tuple::from_parts(e.key, k.to_vec());
                        match check_entry(store, d, layout, *eid, &key_tuple, &kt, child, &mut memo)
                        {
                            Ok(Some(r)) => {
                                *refcounts.entry(r).or_insert(0) += 1;
                                stack.push((e.to, r));
                            }
                            Ok(None) => {}
                            Err(msg) => checked = Err(msg),
                        }
                    });
                    checked?;
                }
                _ => return Err("leaf/prim misalignment".to_string()),
            }
        }
        // (WFJOIN): no dangling tuples on either side of a join.
        check_joins(store, d, node, &d.node(node).body, 0, inst, &mut memo)?;
    }
    // Reference counts must match the number of incoming container entries.
    for inst in &visited {
        let expected = refcounts.get(inst).copied().unwrap_or(0);
        let actual = store.get(*inst).refs;
        // The root is referenced zero times.
        if actual != expected {
            return Err(format!(
                "instance {inst:?} has refcount {actual}, expected {expected}"
            ));
        }
    }
    // No unreachable live instances (space leak check).
    let live = store.total_live();
    if live != visited.len() {
        return Err(format!(
            "{} live instances but only {} reachable from the root",
            live,
            visited.len()
        ));
    }
    Ok(())
}

/// (WFMAP) for one entry of edge `eid` in an instance with bound valuation
/// `parent_key`, mapping key `kt` to `child`: the child is the kind the
/// layout names for the edge; an inline unit is a valuation of the leaf's
/// columns; a child instance is live and its stored bound valuation agrees
/// with both the entry key and the parent's; and `α(child)` holds a tuple,
/// every one of which matches the key. Returns the child instance, if any.
#[allow(clippy::too_many_arguments)]
fn check_entry(
    store: &Store,
    d: &Decomposition,
    layout: &Layout,
    eid: EdgeId,
    parent_key: &Tuple,
    kt: &Tuple,
    child: ChildRef<'_>,
    memo: &mut Memo,
) -> Result<Option<InstanceRef>, String> {
    let e = d.edge(eid);
    let (from, to) = (&d.node(e.from).name, &d.node(e.to).name);
    let instance = match (child, layout.inline_unit[e.to.index()]) {
        // An inline entry is the leaf's instance: its bound valuation is
        // the path's by construction.
        (ChildRef::Unit(u), Some(c)) => {
            check_unit(d, e.to, u, c)?;
            None
        }
        (ChildRef::Node(r), None) => {
            if !store.is_live(r) {
                return Err(format!(
                    "edge `{from}`→`{to}` maps {kt} to a dangling instance"
                ));
            }
            let child_key = Tuple::from_parts(d.node(e.to).bound, store.get(r).key.to_vec());
            if !child_key.extends(kt) {
                return Err(format!(
                    "child of `{from}` via key {kt} stores mismatched bound valuation {child_key}"
                ));
            }
            if !child_key.matches(parent_key) {
                return Err(format!(
                    "child bound valuation {child_key} disagrees with parent {parent_key}"
                ));
            }
            Some(r)
        }
        (_, inline) => {
            let want = if inline.is_some() {
                "inline units"
            } else {
                "instances"
            };
            return Err(format!(
                "edge `{from}`→`{to}` maps {kt} to the wrong kind of child (the layout stores {want})"
            ));
        }
    };
    // (WFMAP): t ∼ α(v_t'): every tuple below matches the key.
    let sub = alpha_child(store, d, e.to, child, memo);
    // An entry stands for the tuples below it: an instance that represents
    // none is a leftover no removal reclaimed.
    if sub.is_empty() {
        return Err(format!(
            "edge `{from}`→`{to}` maps {kt} to an instance that represents no tuple"
        ));
    }
    if !sub.iter().all(|t| t.matches(kt)) {
        return Err(format!(
            "subtree under `{to}`[{kt}] contains non-matching tuples"
        ));
    }
    Ok(instance)
}

fn check_joins(
    store: &Store,
    d: &Decomposition,
    node: NodeId,
    body: &Body,
    leaf: usize,
    inst: InstanceRef,
    memo: &mut Memo,
) -> Result<(), String> {
    if let Body::Join(l, r) = body {
        let loff = l.leaf_count();
        check_joins(store, d, node, l, leaf, inst, memo)?;
        check_joins(store, d, node, r, leaf + loff, inst, memo)?;
        let la = alpha_body(store, d, l, leaf, inst, memo);
        let ra = alpha_body(store, d, r, leaf + loff, inst, memo);
        let common = la.cols() & ra.cols();
        if la.project(common) != ra.project(common) {
            return Err(format!(
                "(WFJOIN) join sides of `{}` disagree on common columns",
                d.node(node).name
            ));
        }
    }
    Ok(())
}
