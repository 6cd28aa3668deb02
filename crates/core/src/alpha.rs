//! The abstraction function α and the well-formedness judgment (Fig. 5).
//!
//! `alpha` maps a decomposition instance back to the relation it represents;
//! `validate` checks that an instance is a well-formed instance of its
//! decomposition. Both are *specification-level* tools: the test suite uses
//! them to establish (empirically) the soundness theorem — after any sequence
//! of operations, the instance is well-formed and `α(d) = r` for the
//! reference relation `r`.

use crate::instance::{InstanceRef, Layout, PrimInst, Store};
use relic_decomp::{Body, Decomposition, NodeId};
use relic_spec::{Relation, Tuple};
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
            Relation::from_tuples(*c, [u.clone()])
        }
        // α({t ↦ v_t'}) = ⋃ {t} ⋈ α(v_t'). Each `{t} ⋈ α(v_t')` tuple goes
        // straight into the union: rebuilding the union per entry would
        // re-copy everything gathered so far, once per container entry.
        Body::Map(eid) => {
            let e = d.edge(*eid);
            let mut out = Relation::empty(e.key | d.node(e.to).cols);
            store.cont_for_each(inst, leaf, |k, child| {
                let kt = Tuple::from_parts(e.key, k.to_vec());
                let sub = alpha_node(store, d, e.to, child, memo);
                for t in sub.iter().filter(|t| kt.matches(t)) {
                    out.insert(kt.merge(t));
                }
            });
            out
        }
        // α(p₁ ⋈ p₂) = α(p₁) ⋈ α(p₂)
        Body::Join(l, r) => {
            let loff = crate::exec::leaf_count(l);
            let la = alpha_body(store, d, l, leaf, inst, memo);
            let ra = alpha_body(store, d, r, leaf + loff, inst, memo);
            la.natural_join(&ra)
        }
    }
}

/// Checks the well-formedness judgment `Γ, d ⊨ Γˆ, dˆ` (Fig. 5) plus the
/// implementation invariants (reference counts, intrusive links, arena
/// bookkeeping). Returns a human-readable description of the first violation.
pub fn validate(
    store: &Store,
    d: &Decomposition,
    _layout: &Layout,
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
                (Body::Unit(c), PrimInst::Unit(u)) => {
                    if u.dom() != *c {
                        return Err(format!(
                            "unit in `{}` has domain {:?}, expected {:?}",
                            d.node(node).name,
                            u.dom(),
                            c
                        ));
                    }
                }
                (Body::Map(eid), PrimInst::Map(_)) => {
                    let e = d.edge(*eid);
                    let mut err: Option<String> = None;
                    let mut entries: Vec<(Tuple, InstanceRef)> = Vec::new();
                    store.cont_for_each(inst, i, |k, r| {
                        entries.push((Tuple::from_parts(e.key, k.to_vec()), r));
                    });
                    for (kt, child) in entries {
                        if !store.is_live(child) {
                            err = Some(format!(
                                "edge `{}`→`{}` maps {kt} to a dangling instance",
                                d.node(node).name,
                                d.node(e.to).name
                            ));
                            break;
                        }
                        // (WFMAP): dom t = C, and the child's stored bound
                        // valuation must agree with both the entry key and
                        // the parent's bound valuation.
                        let child_key =
                            Tuple::from_parts(d.node(e.to).bound, store.get(child).key.to_vec());
                        if !child_key.extends(&kt) {
                            err = Some(format!(
                                "child of `{}` via key {kt} stores mismatched bound valuation {child_key}",
                                d.node(node).name
                            ));
                            break;
                        }
                        if !child_key.matches(&key_tuple) {
                            err = Some(format!(
                                "child bound valuation {child_key} disagrees with parent {key_tuple}"
                            ));
                            break;
                        }
                        // (WFMAP): t ∼ α(v_t'): every tuple below matches the key.
                        let sub = alpha_node(store, d, e.to, child, &mut memo);
                        if !sub.iter().all(|t| t.matches(&kt)) {
                            err = Some(format!(
                                "subtree under `{}`[{kt}] contains non-matching tuples",
                                d.node(e.to).name
                            ));
                            break;
                        }
                        *refcounts.entry(child).or_insert(0) += 1;
                        stack.push((e.to, child));
                    }
                    if let Some(e) = err {
                        return Err(e);
                    }
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
        let loff = crate::exec::leaf_count(l);
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
