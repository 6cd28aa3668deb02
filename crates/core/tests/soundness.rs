//! Empirical soundness (Theorem 5): for random operation sequences over
//! random adequate decompositions, the synthesized relation agrees with the
//! reference implementation of the relational specification, and the
//! instance stays well-formed (Fig. 5).

use proptest::prelude::*;
use relic_core::{OpError, SynthRelation};
use relic_decomp::{enumerate_decompositions, parse, Decomposition, DsKind, EnumerateOptions};
use relic_spec::{Catalog, ColSet, Pattern, Pred, RelSpec, Relation, Tuple, Value};

/// The scheduler catalog, specification, and a palette of hand-picked
/// decompositions exercising every container kind and sharing.
fn scheduler_setup() -> (Catalog, RelSpec, Vec<Decomposition>) {
    let mut cat = Catalog::new();
    let sources = [
        // The paper's Fig. 2(a), with an intrusive list on the z path.
        "let w : {ns,pid,state} . {cpu} = unit {cpu} in
         let y : {ns} . {pid,cpu} = {pid} -[htable]-> w in
         let z : {state} . {ns,pid,cpu} = {ns,pid} -[ilist]-> w in
         let x : {} . {ns,pid,state,cpu} =
           ({ns} -[htable]-> y) join ({state} -[vec]-> z) in x",
        // Same shape, non-intrusive dlist.
        "let w : {ns,pid,state} . {cpu} = unit {cpu} in
         let y : {ns} . {pid,cpu} = {pid} -[avl]-> w in
         let z : {state} . {ns,pid,cpu} = {ns,pid} -[dlist]-> w in
         let x : {} . {ns,pid,state,cpu} =
           ({ns} -[sortedvec]-> y) join ({state} -[vec]-> z) in x",
        // A simple chain: ns -> pid -> unit{state,cpu}.
        "let w : {ns,pid} . {state,cpu} = unit {state,cpu} in
         let y : {ns} . {pid,state,cpu} = {pid} -[htable]-> w in
         let x : {} . {ns,pid,state,cpu} = {ns} -[htable]-> y in x",
        // Single flat map keyed by the whole key.
        "let w : {ns,pid} . {state,cpu} = unit {state,cpu} in
         let x : {} . {ns,pid,state,cpu} = {ns,pid} -[avl]-> w in x",
        // Unshared join of two chains.
        "let l : {ns,pid} . {state,cpu} = unit {state,cpu} in
         let r : {state,ns,pid} . {cpu} = unit {cpu} in
         let z : {state} . {ns,pid,cpu} = {ns,pid} -[dlist]-> r in
         let x : {} . {ns,pid,state,cpu} =
           ({ns,pid} -[htable]-> l) join ({state} -[vec]-> z) in x",
    ];
    let ds: Vec<Decomposition> = sources
        .iter()
        .map(|s| parse(&mut cat, s).unwrap())
        .collect();
    let spec = RelSpec::new(cat.all()).with_fd(
        cat.col("ns").unwrap() | cat.col("pid").unwrap(),
        cat.col("state").unwrap() | cat.col("cpu").unwrap(),
    );
    (cat, spec, ds)
}

#[derive(Debug, Clone)]
enum Op {
    Insert(i64, i64, bool, i64),
    RemoveKey(i64, i64),
    RemoveNs(i64),
    RemoveState(bool),
    UpdateCpu(i64, i64, i64),
    UpdateState(i64, i64, bool),
    QueryByNs(i64),
    QueryByState(bool),
    QueryPoint(i64, i64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let ns = 0i64..4;
    let pid = 0i64..6;
    let cpu = 0i64..4;
    prop_oneof![
        (ns.clone(), pid.clone(), any::<bool>(), cpu.clone())
            .prop_map(|(a, b, c, d)| Op::Insert(a, b, c, d)),
        (ns.clone(), pid.clone()).prop_map(|(a, b)| Op::RemoveKey(a, b)),
        ns.clone().prop_map(Op::RemoveNs),
        any::<bool>().prop_map(Op::RemoveState),
        (ns.clone(), pid.clone(), cpu.clone()).prop_map(|(a, b, c)| Op::UpdateCpu(a, b, c)),
        (ns.clone(), pid.clone(), any::<bool>()).prop_map(|(a, b, c)| Op::UpdateState(a, b, c)),
        ns.clone().prop_map(Op::QueryByNs),
        any::<bool>().prop_map(Op::QueryByState),
        (ns, pid).prop_map(|(a, b)| Op::QueryPoint(a, b)),
    ]
}

fn state_val(s: bool) -> Value {
    Value::from(if s { "R" } else { "S" })
}

/// Applies an operation to both implementations, checking agreement.
fn apply(
    cat: &Catalog,
    synth: &mut SynthRelation,
    reference: &mut Relation,
    op: &Op,
) -> Result<(), TestCaseError> {
    let ns = cat.col("ns").unwrap();
    let pid = cat.col("pid").unwrap();
    let state = cat.col("state").unwrap();
    let cpu = cat.col("cpu").unwrap();
    match op {
        Op::Insert(a, b, s, c) => {
            let t = Tuple::from_pairs([
                (ns, Value::from(*a)),
                (pid, Value::from(*b)),
                (state, state_val(*s)),
                (cpu, Value::from(*c)),
            ]);
            let dup = reference.contains(&t);
            let conflict = reference
                .query(
                    &Tuple::from_pairs([(ns, Value::from(*a)), (pid, Value::from(*b))]),
                    cat.all(),
                )
                .into_iter()
                .any(|u| u != t);
            match synth.insert(t.clone()) {
                Ok(true) => {
                    prop_assert!(!dup && !conflict, "insert should have failed");
                    reference.insert(t);
                }
                Ok(false) => prop_assert!(dup, "false only for duplicates"),
                Err(OpError::FdViolation { .. }) => {
                    prop_assert!(conflict, "FdViolation only on real conflicts")
                }
                Err(e) => prop_assert!(false, "unexpected error {e}"),
            }
        }
        Op::RemoveKey(a, b) => {
            let pat = Tuple::from_pairs([(ns, Value::from(*a)), (pid, Value::from(*b))]);
            let got = synth.remove(&pat).unwrap();
            let want = reference.remove(&pat);
            prop_assert_eq!(got, want);
        }
        Op::RemoveNs(a) => {
            let pat = Tuple::from_pairs([(ns, Value::from(*a))]);
            let got = synth.remove(&pat).unwrap();
            let want = reference.remove(&pat);
            prop_assert_eq!(got, want);
        }
        Op::RemoveState(s) => {
            let pat = Tuple::from_pairs([(state, state_val(*s))]);
            let got = synth.remove(&pat).unwrap();
            let want = reference.remove(&pat);
            prop_assert_eq!(got, want);
        }
        Op::UpdateCpu(a, b, c) => {
            let pat = Tuple::from_pairs([(ns, Value::from(*a)), (pid, Value::from(*b))]);
            let chg = Tuple::from_pairs([(cpu, Value::from(*c))]);
            let had = !reference.query(&pat, cat.all()).is_empty();
            let got = synth.update(&pat, &chg).unwrap();
            prop_assert_eq!(got, had);
            reference.update(&pat, &chg);
        }
        Op::UpdateState(a, b, s) => {
            let pat = Tuple::from_pairs([(ns, Value::from(*a)), (pid, Value::from(*b))]);
            let chg = Tuple::from_pairs([(state, state_val(*s))]);
            let had = !reference.query(&pat, cat.all()).is_empty();
            let got = synth.update(&pat, &chg).unwrap();
            prop_assert_eq!(got, had);
            reference.update(&pat, &chg);
        }
        Op::QueryByNs(a) => {
            let pat = Tuple::from_pairs([(ns, Value::from(*a))]);
            let got = synth.query(&pat, pid | state | cpu).unwrap();
            let want = reference.query(&pat, pid | state | cpu);
            prop_assert_eq!(got, want);
        }
        Op::QueryByState(s) => {
            let pat = Tuple::from_pairs([(state, state_val(*s))]);
            let got = synth.query(&pat, ns | pid).unwrap();
            let want = reference.query(&pat, ns | pid);
            prop_assert_eq!(got, want);
        }
        Op::QueryPoint(a, b) => {
            let pat = Tuple::from_pairs([(ns, Value::from(*a)), (pid, Value::from(*b))]);
            let got = synth.query(&pat, state | cpu).unwrap();
            let want = reference.query(&pat, state | cpu);
            prop_assert_eq!(got, want);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 5, empirically: synthesized ≡ reference across five
    /// hand-picked decompositions covering all container kinds and sharing.
    #[test]
    fn synth_matches_reference(ops in proptest::collection::vec(op_strategy(), 1..60), which in 0usize..5) {
        let (cat, spec, ds) = scheduler_setup();
        let d = ds[which].clone();
        let mut synth = SynthRelation::new(&cat, spec.clone(), d).unwrap();
        let mut reference = Relation::empty(cat.all());
        for op in &ops {
            apply(&cat, &mut synth, &mut reference, op)?;
        }
        // Final deep checks: abstraction agreement and well-formedness.
        prop_assert_eq!(synth.to_relation(), reference.clone());
        prop_assert_eq!(synth.len(), reference.len());
        synth.validate().map_err(|e| TestCaseError::fail(format!("ill-formed: {e}")))?;
    }

    /// Well-formedness is maintained *after every operation*, not just at
    /// the end (uses the intrusive-list decomposition, the trickiest one).
    #[test]
    fn wellformed_after_every_op(ops in proptest::collection::vec(op_strategy(), 1..25)) {
        let (cat, spec, ds) = scheduler_setup();
        let mut synth = SynthRelation::new(&cat, spec, ds[0].clone()).unwrap();
        let mut reference = Relation::empty(cat.all());
        for op in &ops {
            apply(&cat, &mut synth, &mut reference, op)?;
            synth.validate().map_err(|e| TestCaseError::fail(format!("ill-formed after {op:?}: {e}")))?;
        }
    }
}

/// A deterministic stress over *enumerated* decompositions of the graph
/// relation, with mixed data structures: insert / remove / `weight` update /
/// `remove_where` / `remove_many` / query churn, with FD checking on and
/// off, migrating mid-run to another sampled candidate, checking
/// α-agreement and well-formedness per decomposition.
#[test]
fn enumerated_decompositions_sound_under_churn() {
    let mut cat = Catalog::new();
    let src = cat.intern("src");
    let dst = cat.intern("dst");
    let weight = cat.intern("weight");
    let spec = RelSpec::new(src | dst | weight).with_fd(src | dst, weight.into());
    let opts = EnumerateOptions {
        max_edges: 3,
        structures: vec![DsKind::HashTable, DsKind::DList],
        ..Default::default()
    };
    let all = enumerate_decompositions(&spec, &opts);
    assert!(
        all.len() >= 20,
        "expected a rich candidate set, got {}",
        all.len()
    );
    // Deterministically sample to keep the test fast.
    let sampled: Vec<usize> = (0..all.len()).step_by(7).collect();
    for (k, (i, check_fds)) in sampled
        .iter()
        .flat_map(|&i| [(i, true), (i, false)])
        .enumerate()
    {
        let d = &all[i];
        // Mid-run, the relation moves to the next sampled candidate.
        let next = sampled[(k / 2 + 1) % sampled.len()];
        let mut synth = SynthRelation::new(&cat, spec.clone(), d.clone())
            .unwrap_or_else(|e| panic!("decomposition {i} rejected: {e}"));
        synth.set_fd_checking(check_fds);
        let mut reference = Relation::empty(src | dst | weight);
        // Insert a small dense graph.
        let mut x: u64 = 0x9E3779B97F4A7C15 ^ (i as u64);
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let key =
            |s: i64, t: i64| Tuple::from_pairs([(src, Value::from(s)), (dst, Value::from(t))]);
        for step in 0..60 {
            if step == 30 {
                synth
                    .migrate_to(all[next].clone())
                    .unwrap_or_else(|e| panic!("decomposition {i} → {next}: {e}"));
                assert_eq!(synth.to_relation(), reference, "{i} → {next} diverged");
            }
            if rand() % 3 == 0 {
                // Rewrites the weight of a stored edge, when there is one.
                let pat = key((rand() % 5) as i64, (rand() % 5) as i64);
                let chg = Tuple::from_pairs([(weight, Value::from((rand() % 3) as i64))]);
                let had = !reference.query(&pat, weight.into()).is_empty();
                assert_eq!(synth.update(&pat, &chg).unwrap(), had, "decomposition {i}");
                reference.update(&pat, &chg);
            }
            if rand() % 9 == 0 {
                let lo = (rand() % 5) as i64;
                let pat =
                    Pattern::new().with(dst, Pred::Between(Value::from(lo), Value::from(lo + 1)));
                assert_eq!(
                    synth.remove_where(&pat).unwrap(),
                    reference.remove_where(&pat),
                    "decomposition {i}"
                );
            }
            if rand() % 9 == 0 {
                let pats = [
                    key((rand() % 5) as i64, (rand() % 5) as i64),
                    key((rand() % 5) as i64, (rand() % 5) as i64),
                ];
                let want: usize = pats.iter().map(|p| reference.remove(p)).sum();
                assert_eq!(synth.remove_many(&pats).unwrap(), want, "decomposition {i}");
            }
            let s = (rand() % 5) as i64;
            let t = (rand() % 5) as i64;
            let w = (rand() % 3) as i64;
            let tup = Tuple::from_pairs([
                (src, Value::from(s)),
                (dst, Value::from(t)),
                (weight, Value::from(w)),
            ]);
            let conflicting = reference
                .query(&key(s, t), src | dst | weight)
                .into_iter()
                .any(|u| u != tup);
            match synth.insert(tup.clone()) {
                Ok(true) => {
                    reference.insert(tup);
                }
                Ok(false) => {}
                Err(OpError::FdViolation { .. }) => assert!(conflicting),
                Err(e) => panic!("unexpected {e}"),
            }
            if rand() % 3 == 0 {
                let s = (rand() % 5) as i64;
                let pat = Tuple::from_pairs([(src, Value::from(s))]);
                assert_eq!(
                    synth.remove(&pat).unwrap(),
                    reference.remove(&pat),
                    "decomposition {i}"
                );
            }
        }
        assert_eq!(synth.to_relation(), reference, "decomposition {i} diverged");
        synth
            .validate()
            .unwrap_or_else(|e| panic!("decomposition {i} ill-formed: {e}"));
        // Successor and predecessor queries agree.
        for v in 0..5i64 {
            let pat = Tuple::from_pairs([(src, Value::from(v))]);
            assert_eq!(
                synth.query(&pat, dst.into()).unwrap(),
                reference.query(&pat, dst.into())
            );
            let pat = Tuple::from_pairs([(dst, Value::from(v))]);
            assert_eq!(
                synth.query(&pat, src.into()).unwrap(),
                reference.query(&pat, src.into())
            );
        }
    }
}

/// The §3.4 inadequacy counterexample: the Fig. 2 decomposition cannot
/// represent a relation violating ns,pid → state,cpu — and the runtime
/// surfaces this as an `FdViolation` instead of corrupting the structure.
#[test]
fn inadequate_data_rejected_not_corrupted() {
    let (cat, spec, ds) = scheduler_setup();
    let mut r = SynthRelation::new(&cat, spec, ds[0].clone()).unwrap();
    let ns = cat.col("ns").unwrap();
    let pid = cat.col("pid").unwrap();
    let state = cat.col("state").unwrap();
    let cpu = cat.col("cpu").unwrap();
    r.insert(Tuple::from_pairs([
        (ns, Value::from(1)),
        (pid, Value::from(2)),
        (state, Value::from("S")),
        (cpu, Value::from(42)),
    ]))
    .unwrap();
    let err = r
        .insert(Tuple::from_pairs([
            (ns, Value::from(1)),
            (pid, Value::from(2)),
            (state, Value::from("R")),
            (cpu, Value::from(34)),
        ]))
        .unwrap_err();
    assert!(matches!(err, OpError::FdViolation { .. }));
    r.validate().unwrap();
    assert_eq!(r.len(), 1);
}

/// Queries with empty output columns act as existence tests.
#[test]
fn empty_output_projection() {
    let (cat, spec, ds) = scheduler_setup();
    let mut r = SynthRelation::new(&cat, spec, ds[2].clone()).unwrap();
    let ns = cat.col("ns").unwrap();
    let pid = cat.col("pid").unwrap();
    let state = cat.col("state").unwrap();
    let cpu = cat.col("cpu").unwrap();
    r.insert(Tuple::from_pairs([
        (ns, Value::from(1)),
        (pid, Value::from(1)),
        (state, Value::from("S")),
        (cpu, Value::from(0)),
    ]))
    .unwrap();
    let got = r
        .query(&Tuple::from_pairs([(ns, Value::from(1))]), ColSet::EMPTY)
        .unwrap();
    assert_eq!(got, vec![Tuple::empty()]);
    let got = r
        .query(&Tuple::from_pairs([(ns, Value::from(9))]), ColSet::EMPTY)
        .unwrap();
    assert!(got.is_empty());
}
