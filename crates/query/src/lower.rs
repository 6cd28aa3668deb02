//! Lowering: [`Plan`] → plan IR.
//!
//! The walk aligns the plan with the decomposition's bodies (naming each
//! operator's edge and each `qunit`'s leaf) and threads the *available*
//! (bound) columns through it, computing each step's `bind`/`check`/`filter`
//! sets once for both backends. `qlr` selects its side here; `qjoin(first,
//! second)` dissolves by grafting `second`'s steps at `first`'s emit points,
//! and `qhashjoin` becomes a [`Step::HashJoin`] with static join columns.

use crate::ir::{Block, Step};
use crate::{Plan, PlanError, Side};
use relic_decomp::{Body, Decomposition, NodeId};
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
