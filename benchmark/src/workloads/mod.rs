//! The five workloads and what they share: run configuration, the timed
//! repeat loop, and the shape of a result.

pub mod durable_ingest;
pub mod ipcap_embed;
pub mod query_embed;
pub mod served_mix;
pub mod shell_script;

use crate::report::Row;
use crate::stats::{self, Summary};
use crate::trace::Tracer;
use relic_spec::{Catalog, Pattern, Pred, RelSpec, Tuple, Value};
use relic_systems::ipcap::{default_decomposition, flow_spec, FlowCols};
use std::path::PathBuf;
use std::time::Instant;

/// Name and one-line rationale of each workload, in run order.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "ipcap_embed",
        "write-heavy core on a hot working set: the paper's IpCap daemon loop in-process, no wire, no log",
    ),
    (
        "query_embed_1m",
        "read-only core over 1 M flows, far beyond cache: point, range and scan beside no writes",
    ),
    (
        "durable_ingest",
        "persist does most of the work: batched insert, commit, checkpoint, crash and recovery, no wire",
    ),
    (
        "served_mix",
        "the whole stack under one request: frame, decode, pinned read or coalesced commit, encode",
    ),
    (
        "shell_script",
        "the front door does most of the work: lex, parse, compile and execute a 9-statement script",
    ),
];

/// How one invocation was asked to run.
#[derive(Debug, Clone)]
pub struct Cfg {
    pub seed: u64,
    /// Length of the timed section.
    pub seconds: f64,
    /// Sizes cut by about a hundred: a smoke run, not a measurement.
    pub quick: bool,
    /// A directory of this run's own, inside the checkout.
    pub work_dir: PathBuf,
}

impl Cfg {
    /// A quick configuration with a fresh directory of its own, for a test.
    #[cfg(test)]
    pub fn for_test(name: &str) -> Cfg {
        let work_dir =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/test_{name}"));
        let _ = std::fs::remove_dir_all(&work_dir);
        std::fs::create_dir_all(&work_dir).expect("create the test's directory");
        Cfg {
            seed: 11,
            seconds: 0.05,
            quick: true,
            work_dir,
        }
    }

    /// `full`, or `quick` under `--quick`.
    pub fn size(&self, full: usize, quick: usize) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

/// One pass over the workload's fixed operation list.
#[derive(Debug, Default)]
pub struct Repeat {
    pub ops: u64,
    pub wall_ns: u64,
    /// One latency sample per operation or per chunk of operations.
    pub lat_ns: Vec<f64>,
    /// The samples laid end to end, times this, are the repeat's wall time:
    /// the operations a sample was divided by, 1 if by none. 0 when the
    /// samples overlap (pipelined requests) and add up to nothing.
    pub lat_tile: f64,
}

/// What the small traced pass of a workload with a hand-written arm hands to
/// the layer report.
pub struct Mini {
    pub rep: Repeat,
    pub failed: u64,
    /// The hand-written arm on the same input, ns per operation.
    pub hand_ns_per_op: f64,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub repeats: Vec<Repeat>,
    pub attempted: u64,
    pub failed: u64,
    /// Every output matched the independent reference.
    pub correct: bool,
    /// `VmHWM` once the program's own work was over, before the
    /// hand-written arm allocated anything.
    pub peak_rss_mb: f64,
    /// Metrics only this workload has (`vs_hand_x`, `recover_s`, ...).
    pub extras: Vec<Row>,
    pub notes: Vec<String>,
}

impl Outcome {
    /// Operations per second of a repeat.
    ///
    /// Where the latency samples tile the repeat (`lat_tile`), the repeat's
    /// time is the latency profile's samples added up: a repeat of a few
    /// tenths of a second rarely passes without a neighbour taking a slice of
    /// it, a sample of a few milliseconds mostly does, so the profile is the
    /// repeat with the neighbour's slices left out. Where they do not, it is
    /// the fast quartile of the repeats' own rates. min, max and MAD are
    /// those of the repeats' rates either way.
    pub fn ops_per_s(&self) -> Summary {
        let rates: Vec<f64> = self
            .repeats
            .iter()
            .map(|r| r.ops as f64 / (r.wall_ns as f64 / 1e9))
            .collect();
        let of_repeats = Summary::fast(&rates, true);
        let first = &self.repeats[0];
        if first.lat_tile == 0.0 {
            return of_repeats;
        }
        let wall_ns = self.lat_profile().iter().sum::<f64>() * first.lat_tile;
        Summary {
            value: first.ops as f64 / (wall_ns / 1e9),
            ..of_repeats
        }
    }

    /// The latency profile: for each sample position, the fast quartile over
    /// the repeats (see [`Summary::fast`]).
    ///
    /// Every repeat runs the same operations in the same order from the same
    /// state, so sample `i` measures the same work in each repeat: what a
    /// neighbour on the machine added to some repeats drops out, what the
    /// work itself costs (a flush, a checkpoint, a long scan) stays.
    fn lat_profile(&self) -> Vec<f64> {
        let positions = self.repeats[0].lat_ns.len();
        assert!(
            self.repeats.iter().all(|r| r.lat_ns.len() == positions),
            "every repeat takes the same latency samples"
        );
        (0..positions)
            .map(|i| {
                let at_i: Vec<f64> = self.repeats.iter().map(|r| r.lat_ns[i]).collect();
                Summary::fast(&at_i, false).value
            })
            .collect()
    }

    /// The `p`-th percentile of the latency profile. The summary's min, max
    /// and MAD are those of the per-repeat percentiles (the MAD of their
    /// fast half), which keep the noise and so show the spread.
    pub fn lat_percentile(&self, p: f64) -> Summary {
        let per_repeat: Vec<f64> = self
            .repeats
            .iter()
            .map(|r| {
                let mut s = r.lat_ns.clone();
                stats::sort(&mut s);
                stats::percentile(&s, p)
            })
            .collect();
        let mut profile = self.lat_profile();
        stats::sort(&mut profile);
        Summary {
            value: stats::percentile(&profile, p),
            ..Summary::fast(&per_repeat, false)
        }
    }

    /// The highest percentile the pooled samples support, as `(p, value, n)`.
    pub fn pooled_tail(&self) -> Option<(f64, f64, usize)> {
        let mut all: Vec<f64> = self
            .repeats
            .iter()
            .flat_map(|r| r.lat_ns.iter().copied())
            .collect();
        let p = stats::highest_supported_percentile(all.len())?;
        stats::sort(&mut all);
        Some((p, stats::percentile(&all, p), all.len()))
    }

    /// Times the hand-written arm — `hand_pass` runs it over the repeat's
    /// operations and returns the nanoseconds that took — for a fifth of the
    /// timed section (one pass of a few milliseconds is too noisy a
    /// denominator), and records `vs_hand_x`. Returns the arm's time per
    /// pass and how many passes that is the fast quartile of.
    pub fn versus_hand(
        &mut self,
        seconds: f64,
        mut hand_pass: impl FnMut() -> u64,
    ) -> (f64, usize) {
        let walls: Vec<f64> = repeat_for(seconds / 5.0, |_| Repeat {
            wall_ns: hand_pass(),
            ..Repeat::default()
        })
        .iter()
        .map(|r| r.wall_ns as f64)
        .collect();
        let hand_wall = Summary::fast(&walls, false).value;
        let ratios: Vec<f64> = self
            .repeats
            .iter()
            .map(|r| r.wall_ns as f64 / hand_wall)
            .collect();
        self.extra("vs_hand_x", "ratio", &ratios);
        (hand_wall, walls.len())
    }

    /// Records a metric only this workload has; all of them are durations or
    /// ratios of durations, so lower is faster.
    pub fn extra(&mut self, name: &str, unit: &str, samples: &[f64]) {
        self.extras
            .push(Row::new(name, unit, Summary::fast(samples, false)));
    }
}

/// Calls `one_repeat` until `seconds` have passed, and at least twice.
pub fn repeat_for(seconds: f64, mut one_repeat: impl FnMut(usize) -> Repeat) -> Vec<Repeat> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        out.push(one_repeat(out.len()));
    }
    out
}

/// Runs `setup` `times` times (once under `--quick`), timing each, and keeps
/// the last state. Earlier states are dropped before the next is built, so
/// peak memory is one state's. Cheap set-ups are repeated more often: the
/// fast quartile of the times is what `setup_s` reports.
pub fn timed_setups<S>(cfg: &Cfg, times: usize, mut setup: impl FnMut() -> S) -> (S, Vec<f64>) {
    let n = cfg.size(times, 1);
    let mut times = Vec::new();
    let mut state = None;
    for _ in 0..n {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (state.expect("at least one set-up"), times)
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs the named workload.
pub fn run(name: &str, cfg: &Cfg, tr: &mut Tracer) -> Option<Outcome> {
    Some(match name {
        "ipcap_embed" => ipcap_embed::run(cfg, tr),
        "query_embed_1m" => query_embed::run(cfg, tr),
        "durable_ingest" => durable_ingest::run(cfg, tr),
        "served_mix" => served_mix::run(cfg, tr),
        "shell_script" => shell_script::run(cfg, tr),
        _ => return None,
    })
}

/// The paper's IpCap relation `flows<local, remote, bytes, pkts>` with its
/// default decomposition, and builders for the tuples and patterns every
/// workload sends into it.
pub struct FlowSchema {
    pub cat: Catalog,
    pub cols: FlowCols,
    pub spec: RelSpec,
    pub d: relic_decomp::Decomposition,
}

impl FlowSchema {
    pub fn new() -> FlowSchema {
        let (mut cat, cols, spec) = flow_spec();
        let d = default_decomposition(&mut cat);
        FlowSchema { cat, cols, spec, d }
    }

    pub fn tuple(&self, (l, r, b, p): crate::gen::Flow) -> Tuple {
        Tuple::from_pairs([
            (self.cols.local, Value::from(l)),
            (self.cols.remote, Value::from(r)),
            (self.cols.bytes, Value::from(b)),
            (self.cols.pkts, Value::from(p)),
        ])
    }

    pub fn key(&self, l: i64, r: i64) -> Tuple {
        Tuple::from_pairs([
            (self.cols.local, Value::from(l)),
            (self.cols.remote, Value::from(r)),
        ])
    }

    pub fn local(&self, l: i64) -> Tuple {
        Tuple::from_pairs([(self.cols.local, Value::from(l))])
    }

    /// `local = l, remote between lo and hi`.
    pub fn range(&self, l: i64, lo: i64, hi: i64) -> Pattern {
        Pattern::new()
            .with(self.cols.local, Pred::Eq(Value::from(l)))
            .with(
                self.cols.remote,
                Pred::Between(Value::from(lo), Value::from(hi)),
            )
    }
}

impl Default for FlowSchema {
    fn default() -> Self {
        FlowSchema::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::StreamHash;

    /// A hash of everything the generators hand to the five workloads.
    fn op_stream_hash(seed: u64) -> u64 {
        let mut h = StreamHash::default();
        let s = FlowSchema::new();
        for (l, r, len) in
            crate::gen::packet_trace(4_096, ipcap_embed::LOCALS, ipcap_embed::REMOTES, seed)
        {
            h.push((l as u64) << 40 | (r as u64) << 20 | len as u64);
        }
        for (kind, l, r) in query_embed::generate_queries(2_048, 64, seed) {
            h.push(kind as u64);
            h.push((l as u64) << 32 | r as u64);
        }
        let ingest = durable_ingest::generate(4, seed);
        for f in ingest.inserts.iter().flatten() {
            h.push((f.0 as u64) << 48 | (f.1 as u64) << 32 | (f.2 as u64) << 12 | f.3 as u64);
        }
        for (l, r) in ingest.removes.iter().flatten().flatten() {
            h.push((*l as u64) << 32 | *r as u64);
        }
        for conn in 0..2 {
            for req in served_mix::generate(&s, 512, 8, conn, seed) {
                h.push_str(&format!("{:?}", req.request()));
            }
        }
        let dir =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/test_gen_{seed}"));
        std::fs::create_dir_all(&dir).unwrap();
        for pass in shell_script::generate(&dir, 2_000, 8, seed).passes {
            for line in pass.lines {
                h.push_str(&line);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        h.finish()
    }

    #[test]
    fn the_same_seed_gives_the_same_op_streams_and_another_seed_others() {
        assert_eq!(op_stream_hash(11), op_stream_hash(11));
        assert_ne!(op_stream_hash(11), op_stream_hash(12));
    }

    #[test]
    fn every_second_shell_pass_replays_the_one_before() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test_replay");
        std::fs::create_dir_all(&dir).unwrap();
        let input = shell_script::generate(&dir, 2_000, 4, 11);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(input.passes[0].lines, input.passes[1].lines);
        assert_eq!(input.passes[2].lines, input.passes[3].lines);
        assert_ne!(input.passes[0].lines, input.passes[2].lines);
    }

    #[test]
    fn tiled_throughput_leaves_out_what_hit_only_some_repeats() {
        // Two chunks of two operations each; a neighbour took 80 ns out of a
        // different chunk in each repeat.
        let repeat = |lat_ns: [f64; 2], lat_tile| Repeat {
            ops: 4,
            wall_ns: 120,
            lat_ns: lat_ns.to_vec(),
            lat_tile,
        };
        let outcome = |lat_tile| Outcome {
            repeats: vec![
                repeat([10.0, 50.0], lat_tile),
                repeat([50.0, 10.0], lat_tile),
            ],
            ..Outcome::default()
        };
        let per_s = |ops: f64, ns: f64| ops / (ns / 1e9);
        let tiled = outcome(2.0).ops_per_s();
        assert_eq!(tiled.value, per_s(4.0, 40.0));
        assert_eq!(
            (tiled.min, tiled.max),
            (per_s(4.0, 120.0), per_s(4.0, 120.0))
        );
        assert_eq!(outcome(0.0).ops_per_s().value, per_s(4.0, 120.0));
    }

    #[test]
    fn every_workload_runs_green_at_quick_size() {
        for (name, _) in WORKLOADS {
            let cfg = Cfg::for_test(name);
            let o = run(name, &cfg, &mut Tracer::off()).expect("a known workload");
            let _ = std::fs::remove_dir_all(&cfg.work_dir);
            assert!(o.correct, "{name}: outputs disagree with the reference");
            assert_eq!(o.failed, 0, "{name}");
            assert!(o.attempted > 0 && o.repeats.len() >= 2, "{name}");
            assert!(
                o.ops_per_s().value > 0.0 && o.lat_percentile(99.0).value > 0.0,
                "{name}"
            );
        }
    }

    #[test]
    fn durable_ingest_repeats_its_bytes_exactly_and_recovers_every_commit() {
        let cfg = Cfg::for_test("ingest_bytes");
        let plan = durable_ingest::Plan::new(6, 11);
        let cycle =
            |dir: &str| plan.cycle(&cfg.work_dir.join(dir), Some(2), false, &mut Tracer::off());
        let (a, b) = (cycle("a"), cycle("b"));
        let _ = std::fs::remove_dir_all(&cfg.work_dir);
        assert_eq!((a.failed, a.mismatches), (0, 0));
        assert_eq!((b.failed, b.mismatches), (0, 0));
        assert_eq!(a.stored_bytes, b.stored_bytes);
        assert_eq!((a.wal_bytes, a.commits), (b.wal_bytes, b.commits));
        assert!(a.stored_bytes > 0);
    }

    #[test]
    fn a_wrong_recovery_is_noticed() {
        // The model of one batch fewer than was committed must not match.
        let cfg = Cfg::for_test("ingest_wrong");
        let mut plan = durable_ingest::Plan::new(4, 11);
        plan.want = durable_ingest::model(&plan.input, 3);
        let c = plan.cycle(&cfg.work_dir.join("a"), None, false, &mut Tracer::off());
        let _ = std::fs::remove_dir_all(&cfg.work_dir);
        assert!(c.mismatches > 0);
    }
}
