//! Theorem 5, empirically, on the interpreted path: a [`SynthRelation`]
//! and its snapshot answer every generated sequence like the reference
//! model, on every candidate decomposition, with FD checking on and off.
//! Every commit point validates the instance (Fig. 5) and runs the read battery;
//! the random rows end each case with one and alternate relation and snapshot.

use relic_core::Op;
use relic_oracle::{check_cases, check_steps, run, Mix, Model, Step, Synth, Universe};
use relic_spec::{ColSet, Tuple, Value};

/// The scheduler tuple `ns, pid, state, cpu`.
fn task(u: &Universe, ns: i64, pid: i64, state: &str, cpu: i64) -> Tuple {
    let state = Tuple::from_pairs([(u.cat.col("state").unwrap(), Value::from(state))]);
    u.tuple(&["ns", "pid", "cpu"], &[ns, pid, cpu])
        .merge(&state)
}

#[test]
fn synth_matches_reference() {
    let (u, mix) = (Universe::scheduler(), Mix::new(1..61, [1, 0, 0]));
    Synth::cases("soundness_reference", &u, 48, |rng| u.steps(rng, &mix));
}

/// Every case on Fig. 2(a)'s intrusive-list decomposition, the trickiest,
/// validated after every step.
#[test]
fn wellformed_after_every_op() {
    let (mut u, mix) = (Universe::scheduler(), Mix::new(1..25, [0; 3]));
    u.candidates.truncate(1);
    let draw = |rng: &mut _| u.steps(rng, &mix);
    check_cases("soundness_wellformed", &u, 48, draw, |_, d, steps| {
        let mut p = Synth::new(&u, d, true);
        p.validate_steps = true;
        run(&mut p, &mut Model::new(&u, d), steps);
    });
}

/// Every 7th enumerated graph candidate, with FD checking on and off:
/// 112–119 steps a case, with a `Migrate` at the midpoint.
#[test]
fn enumerated_decompositions_sound_under_churn() {
    let u = Universe::graph();
    assert!(u.candidates.len() >= 20, "{}", u.candidates.len());
    let (mix, cases) = (Mix::new(112..120, [0; 3]), 2 * u.candidates.len() as u32);
    let draw = |rng: &mut _| {
        let mut steps = u.steps(rng, &mix);
        steps.insert(steps.len() / 2, u.migrate(rng));
        steps
    };
    Synth::cases("soundness_graph", &u, cases, draw);
}

/// §3.4: data that breaks the dependency is refused with the offending
/// tuple, and the instance stays well-formed and unchanged, on every
/// candidate.
#[test]
fn inadequate_data_rejected_not_corrupted() {
    let u = Universe::scheduler();
    let (t, conflict) = (task(&u, 1, 2, "S", 42), task(&u, 1, 2, "R", 34));
    let steps = [t.clone(), conflict.clone(), t].map(|t| Step::Op(Op::Insert(t)));
    let batch = Op::InsertMany(vec![task(&u, 3, 0, "R", 1), conflict]);
    let steps = [&steps[..], &[Step::Op(batch), Step::Commit]].concat();
    for d in &u.candidates {
        check_steps("soundness_inadequate", &u, d, steps.clone(), |s| {
            run(&mut Synth::new(&u, d, true), &mut Model::new(&u, d), s);
        });
    }
}

/// A query with the empty output set answers `[()]` when some tuple
/// matches and `[]` when none does.
#[test]
fn empty_output_projection() {
    let u = Universe::scheduler();
    let (ns, none) = (|v| u.tuple(&["ns"], &[v]), ColSet::EMPTY);
    for d in &u.candidates {
        let mut p = Synth::new(&u, d, true);
        let steps = [Step::Op(Op::Insert(task(&u, 1, 1, "S", 0))), Step::Commit];
        run(&mut p, &mut Model::new(&u, d), &steps);
        assert_eq!(p.rel.query(&ns(1), none).unwrap(), [Tuple::empty()]);
        assert!(p.rel.query(&ns(9), none).unwrap().is_empty());
    }
}
