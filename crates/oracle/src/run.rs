//! The runner, the read battery, and the shrinker.

use crate::{Model, State, Step, Universe};
use proptest::test_runner::TestRng;
use relic_core::{Op, OpError, RelRead};
use relic_decomp::Decomposition;
use relic_spec::{ColId, ColSet, Pattern, Pred, Relation, Tuple, Value};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A path to drive: its writes, and the readers a check holds to the model.
/// The fault steps default to no-ops for a path without a log.
pub trait Path {
    /// Applies one write.
    fn apply(&mut self, op: Op) -> Result<usize, OpError>;
    /// [`Step::Rmw`] on the partition owning `t`'s `key` projection.
    fn rmw(&mut self, t: &Tuple, key: ColSet);
    /// The shard `t` routes to; a batch is atomic per shard.
    fn shard_of(&self, _t: &Tuple) -> usize {
        0
    }
    /// The state the path's primary reader shows; the runner asks after
    /// every step.
    fn state(&self) -> State;
    /// Holds the path's readers to `m` at a commit point, and
    /// validates the representation (Fig. 5).
    fn check(&mut self, m: &State);
    /// Makes everything applied so far durable.
    fn commit(&mut self) {}
    /// [`Step::Checkpoint`].
    fn checkpoint(&mut self) {}
    /// [`Step::CrashAt`].
    fn crash(&mut self, _keep: u64) {}
}

/// Drives `steps` through `p` and `m` in lock-step. After every step the
/// engine's outcome must be the model's and the path's state the model's;
/// at a commit point the path's readers are held to the model.
///
/// # Panics
///
/// At the first disagreement.
pub fn run(p: &mut impl Path, m: &mut Model, steps: &[Step]) {
    for (i, step) in steps.iter().enumerate() {
        match step {
            Step::Op(op) => {
                let want = m.apply(op, &|t| p.shard_of(t));
                let got = p.apply(op.clone());
                let agree = match (&got, &want) {
                    (Ok(n), Ok(k)) => n == k,
                    (Err(OpError::FdViolation { tuple, .. }), Err(t)) => tuple == t,
                    _ => false,
                };
                assert!(agree, "step {i}: engine {got:?}, model {want:?}");
            }
            Step::Rmw(t) => {
                m.upsert(t);
                p.rmw(t, m.key);
            }
            Step::Commit => {
                p.commit();
                p.check(&m.now);
                m.committed();
            }
            Step::Checkpoint => {
                p.checkpoint();
                m.rebase();
            }
            Step::CrashAt(keep) => {
                p.crash(*keep);
                m.recovered(p.state());
            }
        }
        let got = p.state();
        assert!(
            got == m.now,
            "after step {i} the path holds\n{}\nand the model\n{}",
            m.show(&got),
            m.show(&m.now)
        );
    }
}

/// Holds one reader to the reference relation: `len`, `is_empty`, `query`,
/// `query_full`, `query_for_each`, `query_where`, `contains`,
/// `contains_matching` and the foreign-column error.
///
/// Probe patterns come from the model: its smallest and largest tuple and a
/// splice of the two (usually absent), projected onto every column subset
/// for the equality forms; for the comparison forms every operator on every
/// column around those values, alone and beside an equality on each other
/// column — so whatever columns a reader routes or indexes by, it sees
/// patterns that pin them and patterns that do not.
pub(crate) fn check_reader<R: RelRead>(r: &R, model: &Relation) {
    let cols = model.cols();
    assert_eq!(r.spec().cols(), cols, "spec");
    assert_eq!(r.len(), model.len(), "len");
    assert_eq!(r.is_empty(), model.is_empty(), "is_empty");

    let mut probes: Vec<Tuple> = Vec::new();
    if let (Some(lo), Some(hi)) = (model.iter().next(), model.iter().last()) {
        let c0 = cols.iter().next().expect("a relation has columns").set();
        let splice = lo.project(c0).merge(&hi.project(cols - c0));
        probes = vec![lo.clone(), hi.clone(), splice];
    }

    // Equality patterns, each distinct one once: the empty one (so an empty
    // model is still queried) and every projection of a probe.
    let eqs: BTreeSet<Tuple> = std::iter::once(Tuple::empty())
        .chain(
            probes
                .iter()
                .flat_map(|t| t.dom().subsets().map(|d| t.project(d))),
        )
        .collect();
    for pat in &eqs {
        for out in cols.subsets() {
            let want = model.query(pat, out);
            assert_eq!(r.query(pat, out).unwrap(), want, "query {pat} {out:?}");
            // An all-equality comparison pattern is the same query.
            let as_where = r.query_where(&Pattern::from_tuple(pat), out).unwrap();
            assert_eq!(as_where, want, "query_where(=) {pat} {out:?}");
            // Streaming delivers a multiset that dedups to `query`.
            let mut seen = Vec::new();
            r.query_for_each(pat, out, |row| seen.push(row.clone()))
                .unwrap();
            assert!(seen.iter().all(|row| row.dom() == out), "row domain");
            seen.sort();
            seen.dedup();
            assert_eq!(seen, want, "query_for_each {pat} {out:?}");
        }
        assert_eq!(r.query_full(pat).unwrap(), model.query(pat, cols));
        let any = !model.select(pat).is_empty();
        assert_eq!(r.contains_matching(pat).unwrap(), any, "matching {pat}");
        assert_eq!(r.contains(pat).unwrap(), model.contains(pat), "{pat}");
    }

    // Comparison patterns, each distinct one once: `≠`, the orders and an
    // interval, each alone and beside an equality.
    let mut wheres: Vec<Pattern> = Vec::new();
    for (i, t) in probes.iter().enumerate() {
        let u = &probes[(i + 1) % probes.len()];
        for c in cols.iter() {
            let (v, w) = (t.get(c).unwrap().clone(), u.get(c).unwrap().clone());
            let between = Pred::Between(v.clone().min(w.clone()), v.clone().max(w));
            let orders = [
                Pred::Ne as fn(Value) -> Pred,
                Pred::Lt,
                Pred::Le,
                Pred::Gt,
                Pred::Ge,
            ];
            for p in orders.map(|o| o(v.clone())).into_iter().chain([between]) {
                let alone = Pattern::new().with(c, p);
                let eq = |e| alone.clone().with(e, Pred::Eq(t.get(e).unwrap().clone()));
                for p in (cols - c.set()).iter().map(eq).chain([alone.clone()]) {
                    if !wheres.contains(&p) {
                        wheres.push(p);
                    }
                }
            }
        }
    }
    for p in &wheres {
        for out in [cols, cols - p.dom(), ColSet::EMPTY] {
            let got = r.query_where(p, out).unwrap();
            assert_eq!(got, model.query_where(p, out), "query_where {p:?} {out:?}");
        }
    }

    // A column outside the relation is refused by every form, by name.
    let alien = ColId::from_index(cols.max_col().expect("columns").index() + 1);
    let pat = Tuple::from_pairs([(alien, Value::from(0))]);
    let ranged = Pattern::new().with(alien, Pred::Ge(Value::from(0)));
    for err in [
        r.query(&pat, ColSet::EMPTY).unwrap_err(),
        r.query(&Tuple::empty(), alien.set()).unwrap_err(),
        r.query_full(&pat).unwrap_err(),
        r.query_for_each(&pat, ColSet::EMPTY, |_| {}).unwrap_err(),
        r.query_where(&Pattern::from_tuple(&pat), ColSet::EMPTY)
            .unwrap_err(),
        r.query_where(&ranged, ColSet::EMPTY).unwrap_err(),
        r.contains(&pat).unwrap_err(),
        r.contains_matching(&pat).unwrap_err(),
    ] {
        assert!(
            matches!(err, OpError::ForeignColumns { cols } if cols == alien.set()),
            "{err:?}"
        );
    }
}

/// Greedy delta debugging: removes the largest chunks of `steps` it can
/// while `fails` still holds, halving the chunk size whenever no chunk of
/// the current size can go, down to single steps, until a pass removes
/// nothing. The result still fails and no single step can be removed from
/// it.
fn shrink(mut steps: Vec<Step>, mut fails: impl FnMut(&[Step]) -> bool) -> Vec<Step> {
    let mut chunk = steps.len().div_ceil(2).max(1);
    loop {
        let (mut at, before) = (0, steps.len());
        while at < steps.len() {
            let end = (at + chunk).min(steps.len());
            let rest: Vec<Step> = [&steps[..at], &steps[end..]].concat();
            if fails(&rest) {
                steps = rest;
            } else {
                at = end;
            }
        }
        if chunk == 1 && steps.len() == before {
            return steps;
        }
        chunk = chunk.div_ceil(2);
    }
}

/// Runs `case` on `steps`; if it panics, shrinks `steps` and panics with
/// a report: the row, the decomposition in let-notation, the shrunk steps
/// and the failure.
pub fn check_steps(
    row: &str,
    u: &Universe,
    d: &Decomposition,
    steps: Vec<Step>,
    case: impl Fn(&[Step]),
) {
    let failure = |s: &[Step]| {
        let err = catch_unwind(AssertUnwindSafe(|| case(s))).err()?;
        let text = err.downcast_ref::<String>().cloned();
        let text = text.or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()));
        Some(text.unwrap_or_default())
    };
    if failure(&steps).is_some() {
        let from = steps.len();
        let small = shrink(steps, |s| failure(s).is_some());
        let err = failure(&small).unwrap_or_default();
        let shown: Vec<String> = small.iter().map(|s| s.show(&u.cat)).collect();
        let (d, to, shown) = (d.to_let_notation(&u.cat), small.len(), shown.join("\n  "));
        panic!("oracle row `{row}` failed on\n{d}\nafter the steps, shrunk from {from} to {to}:\n  {shown}\n{err}");
    }
}

/// Runs `cases` cases of row `row`: case `i` starts on candidate
/// `i % candidates` and drives the steps `draw` makes (from a generator
/// seeded by the row's name) through `case(i, d, steps)`.
pub fn check_cases(
    row: &str,
    u: &Universe,
    cases: u32,
    draw: impl Fn(&mut TestRng) -> Vec<Step>,
    case: impl Fn(u32, &Decomposition, &[Step]),
) {
    let mut rng = TestRng::from_name(row);
    for i in 0..cases {
        let d = &u.candidates[i as usize % u.candidates.len()];
        check_steps(row, u, d, draw(&mut rng), |s| case(i, d, s));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mix;
    use std::collections::BTreeMap;

    /// The planted property: no `Remove` of a key after two `Insert`s of it.
    fn removes_a_twice_inserted_key(steps: &[Step], key: ColSet) -> bool {
        let mut inserts = BTreeMap::<Tuple, usize>::new();
        steps.iter().any(|s| match s {
            Step::Op(Op::Insert(t)) => {
                *inserts.entry(t.project(key)).or_default() += 1;
                false
            }
            Step::Op(Op::Remove(p)) => inserts.get(p).is_some_and(|&n| n >= 2),
            _ => false,
        })
    }

    #[test]
    fn a_planted_failure_shrinks_to_its_minimum_and_is_reported() {
        let (u, mix) = (Universe::flows(), Mix::new(37..38, [1, 0, 0]));
        let (key, d) = (u.spec.minimal_key(), &u.candidates[0]);
        let fails = |s: &[Step]| removes_a_twice_inserted_key(s, key);
        let mut steps = u.steps(&mut TestRng::from_name("planted"), &mix);
        assert!(!fails(&steps));
        let t = |b| u.tuple(&["host", "ts", "bytes"], &[9, 9, b]);
        let k = t(0).project(key);
        let planted = [Op::Insert(t(1)), Op::Insert(t(2)), Op::Remove(k)].map(Step::Op);
        for (at, s) in [5, 20, 39].into_iter().zip(planted.clone()) {
            steps.insert(at, s);
        }
        assert_eq!(steps.len(), 40);
        assert_eq!(shrink(steps.clone(), fails), planted);

        let case = |s: &[Step]| assert!(!fails(s), "planted");
        let err = catch_unwind(|| check_steps("planted", &u, d, steps, case)).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains(&d.to_let_notation(&u.cat)), "{msg}");
        assert!(msg.contains("shrunk from 40 to 3:"), "{msg}");
        let shown = |s: &Step| msg.contains(&s.show(&u.cat));
        assert!(planted.iter().all(shown), "{msg}");
    }
}
