//! Recovery on the durable path: what a reopen rebuilds — from a checkpoint
//! and its log tail, or from the whole log — is the model's state,
//! representation included, however often it is reopened.

use proptest::test_runner::TestRng;
use relic_oracle::{check_cases, run, Durable, Mix, Model, Step, Universe};

/// Every case has a `Checkpoint` and a `Migrate` at a drawn cut, and runs
/// twice over one to three shards: as drawn, with its checkpoints, and with
/// them dropped, so one arm recovers checkpoint + tail and the other the
/// full log (`Migrate` steps write epoch markers into both). Each arm ends
/// with a crash that keeps the whole log.
#[test]
fn checkpoint_tail_equals_full_log_equals_live() {
    let u = Universe::abv(true);
    let mix = Mix::new(1..28, [3, 6, 0]);
    let draw = |rng: &mut TestRng| {
        let mut steps = u.steps(rng, &mix);
        let cut = rng.below(steps.len() as u64 + 1) as usize;
        steps.splice(cut..cut, [Step::Checkpoint, u.migrate(rng)]);
        steps
    };
    check_cases("recovery_arms", &u, 24, draw, |i, d, steps| {
        let mut log_only = steps.to_vec();
        log_only.retain(|s| *s != Step::Checkpoint);
        for arm in [steps, &log_only] {
            let mut p = Durable::create(&u, d, 1 + i as usize % 3);
            let end = [Step::CrashAt(u64::MAX), Step::Commit];
            run(&mut p, &mut Model::new(&u, d), &[arm, &end].concat());
        }
    });
}

/// Reopening three times in a row, with nothing written between, rebuilds
/// the same state each time; every other case checkpoints first.
#[test]
fn recovery_is_idempotent() {
    let u = Universe::abv(true);
    let mix = Mix::new(1..17, [0, 4, 0]);
    let draw = |rng: &mut TestRng| u.steps(rng, &mix);
    check_cases("recovery_idempotent", &u, 24, draw, |i, d, steps| {
        let reopen = || Step::CrashAt(u64::MAX);
        let end = [Step::Checkpoint, reopen(), reopen(), reopen(), Step::Commit];
        let steps = [steps, &end[(i % 2) as usize..]].concat();
        let (mut p, mut m) = (Durable::create(&u, d, 2), Model::new(&u, d));
        run(&mut p, &mut m, &steps);
    });
}
