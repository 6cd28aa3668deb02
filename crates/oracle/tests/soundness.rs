//! Theorem 5, empirically, on the interpreted path: a [`SynthRelation`]
//! and its snapshot answer every generated sequence like the reference
//! model, on every candidate decomposition, with FD checking on and off.
//! Every commit point validates the instance (Fig. 5) and runs the read battery;
//! the random rows end each case with one and alternate relation and snapshot.

use proptest::test_runner::TestRng;
use relic_core::Op;
use relic_decomp::parse;
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
    let u = Universe::widths();
    Synth::cases("soundness_reference_widths", &u, 24, |rng| {
        u.steps(rng, &mix)
    });
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

/// One update a key locates: the key of a random tuple `t`, now and then
/// with more of its columns, as the pattern, and new values for some other
/// columns — now and then `t`'s own, a no-op when `t` is stored, or none
/// at all. Half the time `t` is inserted first, so the row is usually
/// present; otherwise the key holds whatever it holds, often nothing.
fn keyed_update(u: &Universe, rng: &mut TestRng, steps: &mut Vec<Step>) {
    let pick = |rng: &mut TestRng, xs: &[ColSet]| xs[rng.below(xs.len() as u64) as usize];
    let key = u.spec.minimal_key();
    let rest: Vec<ColSet> = (u.spec.cols() - key).subsets().collect();
    let t = u.random_tuple(rng);
    let extra = if rng.below(4) == 0 {
        pick(rng, &rest)
    } else {
        ColSet::EMPTY
    };
    let free = (u.spec.cols() - key - extra).subsets();
    let free: Vec<ColSet> = free.filter(|s| !s.is_empty()).collect();
    let changed = if free.is_empty() || rng.below(8) == 0 {
        ColSet::EMPTY
    } else {
        pick(rng, &free)
    };
    if rng.next_bool() {
        steps.push(Step::Op(Op::Insert(t.clone())));
    }
    let source = if rng.below(4) == 0 {
        t.clone()
    } else {
        u.random_tuple(rng)
    };
    let (pattern, changes) = (t.project(key | extra), source.project(changed));
    steps.push(Step::Op(Op::Update { pattern, changes }));
}

/// `update` against the model on every candidate of every universe, with
/// FD checking on (every update walks a planned probe) and off (an update
/// whose units its key locates takes the keyed path): present rows, absent
/// rows, no-op rewrites and patterns wider than the key. The scheduler's
/// last candidate reaches `cpu`'s unit through the non-key column `state`,
/// so its updates walk even with FD checking off. Beside the universes'
/// candidates, three decompositions of `a, b → v`: a unit on a shared node,
/// the value kept in two unit nodes (both must be rewritten), and an index
/// on the non-key column `v` whose empty unit is the only node a pattern
/// naming `v` locates. The `widths` universe rewrites inline units of
/// every width; every update runs under the snapshot the last check pinned
/// (see [`Synth`]).
#[test]
fn keyed_updates_match_the_model() {
    let mut extra = Universe::abv(true);
    extra.candidates = [
        "let u : {a,b} . {v} = unit {v} in
         let y : {a} . {b,v} = {b} -[htable]-> u in
         let z : {b} . {a,v} = {a} -[avl]-> u in
         let x : {} . {a,b,v} = ({a} -[htable]-> y) join ({b} -[avl]-> z) in x",
        "let u : {a,b} . {v} = unit {v} in
         let w : {a,b} . {v} = unit {v} in
         let y : {a} . {b,v} = {b} -[htable]-> u in
         let x : {} . {a,b,v} = ({a} -[avl]-> y) join ({a,b} -[htable]-> w) in x",
        "let u : {a,b,v} . {} = unit {} in
         let w : {a,b} . {v} = unit {v} in
         let z : {v} . {a,b} = {a,b} -[htable]-> u in
         let x : {} . {a,b,v} = ({v} -[avl]-> z) join ({a,b} -[htable]-> w) in x",
    ]
    .iter()
    .map(|src| parse(&mut extra.cat, src).unwrap())
    .collect();
    let universes = [
        ("scheduler", Universe::scheduler()),
        ("abv", Universe::abv(true)),
        ("abv_no_fd", Universe::abv(false)),
        ("flows", Universe::flows()),
        ("graph", Universe::graph()),
        ("widths", Universe::widths()),
        ("shapes", extra),
    ];
    for (name, u) in &universes {
        let n = u.candidates.len() as u32;
        let draw = |rng: &mut TestRng| {
            let mut steps = Vec::new();
            for i in 0..24 {
                keyed_update(u, rng, &mut steps);
                if i % 12 == 11 {
                    steps.push(Step::Op(Op::Remove(u.pattern(rng))));
                    steps.push(Step::Commit);
                }
            }
            steps
        };
        check_cases(
            &format!("soundness_keyed_{name}"),
            u,
            2 * n,
            draw,
            |i, d, s| {
                run(
                    &mut Synth::new(u, d, (i / n).is_multiple_of(2)),
                    &mut Model::new(u, d),
                    s,
                );
            },
        );
    }
}
