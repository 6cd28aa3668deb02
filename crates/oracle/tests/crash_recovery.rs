//! The durable path under crashes: a [`DurableRelation`](relic_persist::DurableRelation)
//! whose log is cut at every record boundary since the last checkpoint (or
//! the start), at every byte of the final record, and with bytes of the
//! final record flipped. A cut is judged by state: what recovery rebuilds
//! must be the model after some prefix of the driven steps past the last
//! commit point — a batch spanning shards counting one unit per shard — and
//! that prefix may only grow as the cut grows.

use proptest::test_runner::TestRng;
use relic_core::Op;
use relic_decomp::Decomposition;
use relic_oracle::{check_cases, check_steps, run, Durable, Mix, Model, Step, Universe};

/// Drives `steps` on `d` over `shards` shards, then crash-scans the log.
fn crash_case(row: &str, u: &Universe, d: &Decomposition, shards: usize, steps: Vec<Step>) {
    check_steps(row, u, d, steps, |s| {
        let (mut p, mut m) = (Durable::create(u, d, shards), Model::new(u, d));
        run(&mut p, &mut m, s);
        p.crash_scan(&m);
    });
}

/// `seeds` runs of 70 steps over four shards on the flows relation, with a
/// checkpoint after step 35 if `checkpoint`.
fn crash_row(row: &str, seeds: usize, checkpoint: bool) {
    let u = Universe::flows();
    let mut rng = TestRng::from_name(row);
    for seed in 0..seeds {
        let mut steps = u.steps(&mut rng, &Mix::new(70..71, [0; 3]));
        steps.splice(35..35, checkpoint.then_some(Step::Checkpoint));
        crash_case(row, &u, &u.candidates[seed % 2], 4, steps);
    }
}

#[test]
fn crash_injection_without_checkpoint() {
    crash_row("crash_no_checkpoint", 3, false);
}

#[test]
fn crash_injection_with_mid_run_checkpoint() {
    crash_row("crash_mid_checkpoint", 2, true);
}

/// A partition read-modify-write is one unit in the log: no cut recovers
/// the key's old row removed and the new one not yet inserted.
#[test]
fn partition_rmw_is_crash_atomic_in_the_log() {
    let u = Universe::flows();
    let t = |h, ts, b| u.tuple(&["host", "ts", "bytes"], &[h, ts, b]);
    let mut steps = vec![Step::Op(Op::Insert(t(1, 1, 5))), Step::Commit];
    steps.extend([t(1, 1, 6), t(2, 3, 0)].map(Step::Rmw));
    for d in &u.candidates {
        crash_case("crash_rmw", &u, d, 2, steps.clone());
    }
}

/// Long runs of reopen rounds: random commits, checkpoints and crashes that
/// keep a random part of the uncommitted log, over one to three shards,
/// each reopen held to the model, representation included.
#[test]
fn recovery_chains() {
    let u = Universe::abv(true);
    let mix = Mix::new(170..190, [8, 6, 8]);
    let draw = |rng: &mut TestRng| u.steps(rng, &mix);
    check_cases("crash_chains", &u, 4, draw, |i, d, steps| {
        let mut p = Durable::create(&u, d, 1 + i as usize % 3);
        let end = [Step::CrashAt(u64::MAX), Step::Commit];
        run(&mut p, &mut Model::new(&u, d), &[steps, &end].concat());
    });
}
