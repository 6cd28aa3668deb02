//! The traced run: every per-layer metric, from the ladder, the probes, and
//! a small traced pass of each workload, plus the tracing overhead of the
//! workload that was asked for.
//!
//! Operation counts here are fixed (they do not stretch with `--seconds`),
//! so that counts repeat exactly from run to run.

pub mod ladder;
pub mod probes;

use crate::report::Row;
use crate::stats::Summary;
use crate::trace::{self, SpanStats, Tracer};
use crate::workloads::{
    durable_ingest, ipcap_embed, query_embed, served_mix, shell_script, Cfg, Mini, Repeat,
};
use std::collections::BTreeMap;
use std::path::Path;

/// Room for the spans of the largest small pass (`ipcap_embed`: four per
/// packet).
const SPAN_CAPACITY: usize = 400_000;

/// What the traced run hands back to `main`.
pub struct Traced {
    pub text: String,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub rows: Vec<Row>,
}

/// Collects metrics, checks and remarks as the probes run.
#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<String, Summary>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: Summary) {
        let dup = self.metrics.insert(name.to_string(), value);
        assert!(dup.is_none(), "{name} reported twice");
    }

    /// A metric measured once.
    pub fn put1(&mut self, name: &str, value: f64) {
        self.put(name, Summary::single(value));
    }

    /// Records a correctness check over `attempted` operations.
    pub fn check(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed != 0 {
            self.notes
                .push(format!("FAILED: {what}: {failed} of {attempted}"));
        }
    }

    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }
}

type Agg = BTreeMap<(&'static str, &'static str), SpanStats>;

fn span(agg: &Agg, layer: &'static str, name: &'static str) -> SpanStats {
    agg.get(&(layer, name)).copied().unwrap_or_default()
}

fn ops_per_s(rep: &Repeat) -> f64 {
    rep.ops as f64 / (rep.wall_ns.max(1) as f64 / 1e9)
}

/// Runs the workloads' small traced passes. The workload that was asked for
/// runs the same pass untraced first, for the overhead, and its spans are the
/// ones kept for writing out.
struct Passes<'a> {
    workload: &'a str,
    report: &'a mut Report,
    overhead: Option<f64>,
    chosen: Option<Tracer>,
}

impl Passes<'_> {
    fn run(&mut self, name: &str, pass: &mut dyn FnMut(&mut Tracer) -> (Repeat, u64)) -> Agg {
        // Untraced twice: the first pass pays for cold caches and fresh pages,
        // which the traced pass after it would otherwise be spared.
        let untraced = (name == self.workload).then(|| {
            pass(&mut Tracer::off());
            pass(&mut Tracer::off()).0
        });
        let mut tr = Tracer::on(SPAN_CAPACITY);
        let (rep, failed) = pass(&mut tr);
        self.report
            .check(rep.ops, failed, &format!("traced pass of {name}"));
        if tr.dropped() != 0 {
            self.report.note(format!(
                "{name}: {} spans did not fit and were dropped",
                tr.dropped()
            ));
        }
        let agg = tr.aggregate();
        if let Some(u) = untraced {
            self.overhead = Some(ops_per_s(&rep) / ops_per_s(&u));
            self.chosen = Some(tr);
        }
        agg
    }

    /// [`run`](Passes::run) for a workload with a hand-written arm; also
    /// returns that arm's ns per operation.
    fn run_mini(
        &mut self,
        name: &str,
        cfg: &Cfg,
        mini: fn(&Cfg, &mut Tracer) -> Mini,
    ) -> (Agg, f64) {
        let mut hand_ns = 0.0;
        let agg = self.run(name, &mut |tr| {
            let m = mini(cfg, tr);
            hand_ns = m.hand_ns_per_op;
            (m.rep, m.failed)
        });
        (agg, hand_ns)
    }
}

pub fn traced_run(workload: &str, cfg: &Cfg, out_dir: &Path) -> Traced {
    let mut r = Report::default();
    let mut text = String::new();

    // The ladder, and the core metrics its core rung yields on the way.
    let l = ladder::run(cfg);
    text.push_str(&ladder::render(&l));
    for (name, value) in ladder::metrics(&l) {
        r.put(&name, value);
    }
    for (rung, m) in crate::metrics::RUNGS.iter().zip(&l.rungs) {
        r.check(m.attempted, m.wrong, &format!("ladder rung {rung}"));
    }
    r.put1("core.bulk_load_ns_per_tuple", l.bulk_load_ns_per_tuple);
    r.put1("core.live_bytes_per_tuple", l.live_bytes_per_tuple);
    r.put1("core.allocs_per_point", l.allocs_per_point);
    r.put1("core.allocs_per_write", l.allocs_per_write);
    let mut rtt = l.rtt_ns.clone();
    crate::stats::sort(&mut rtt);
    r.put1("server.rtt_p50_ns", crate::stats::percentile(&rtt, 50.0));
    r.put1("server.rtt_p99_ns", crate::stats::percentile(&rtt, 99.0));

    probes::front_doors(cfg, &mut r);
    probes::concurrent_pinned(cfg, &mut r);
    probes::recovery_and_replica(cfg, &mut r);
    probes::shell_stages(cfg, &mut r);

    // A small pass of each workload with spans on.
    let mut passes = Passes {
        workload,
        report: &mut r,
        overhead: None,
        chosen: None,
    };

    let (ipcap, hand_account_ns) = passes.run_mini("ipcap_embed", cfg, ipcap_embed::mini);
    let (_, hand_query_ns) = passes.run_mini("query_embed_1m", cfg, query_embed::mini);
    let mut cycle = durable_ingest::Cycle::default();
    let ingest = passes.run("durable_ingest", &mut |tr| {
        let c = durable_ingest::mini(cfg, tr);
        let out = (
            Repeat {
                ops: c.rep.ops,
                wall_ns: c.rep.wall_ns,
                ..Repeat::default()
            },
            c.failed + c.mismatches,
        );
        cycle = c;
        out
    });
    let mut served_stats = None;
    let served = passes.run("served_mix", &mut |tr| {
        let (rep, failed, stats) = served_mix::mini(cfg, tr);
        served_stats = Some(stats);
        (rep, failed)
    });
    let (_, hand_script_ns) = passes.run_mini("shell_script", cfg, shell_script::mini);
    let Passes {
        overhead, chosen, ..
    } = passes;

    // ipcap_embed: where a packet's time goes inside core, and what a flush
    // costs per flow.
    r.put1(
        "core.account_query_ns",
        span(&ipcap, "core", "account_query").mean_ns(),
    );
    r.put1(
        "core.account_update_ns",
        span(&ipcap, "core", "account_update").mean_ns(),
    );
    r.put1(
        "core.account_insert_ns",
        span(&ipcap, "core", "account_insert").mean_ns(),
    );
    // A flush span's count is the number of flows it flushed.
    let flush = span(&ipcap, "systems", "flush");
    r.put1(
        "core.flush_ns_per_flow",
        flush.total_ns as f64 / flush.count.max(1) as f64,
    );

    // durable_ingest: the log's share of a batch.
    let tuples = cycle.rep.ops.max(1) as f64;
    let commit = span(&ingest, "persist", "commit");
    r.put1(
        "persist.batch_apply_ns_per_tuple",
        span(&ingest, "persist", "insert_many").total_ns as f64 / tuples,
    );
    r.put1("persist.commit_p50_ns", commit.p50_ns);
    r.put1("persist.commit_p99_ns", commit.p99_ns);
    r.put1("persist.commits", cycle.commits as f64);
    r.put1(
        "persist.wal_bytes_per_tuple",
        cycle.wal_bytes as f64 / tuples,
    );
    r.put1(
        "persist.checkpoint_ns",
        span(&ingest, "persist", "checkpoint").mean_ns(),
    );

    // served_mix: reads and writes at window 8, and the server's own counters.
    // Point reads are the bulk of the reads; theirs is the median reported.
    r.put1(
        "server.read_p50_ns",
        span(&served, "server", "request_point").p50_ns,
    );
    r.put1(
        "server.write_p50_ns",
        span(&served, "server", "request_insert").p50_ns,
    );
    let stats = served_stats.expect("the served_mix pass ran");
    r.put1("server.batch_flushes", stats.batch_flushes as f64);
    r.put1(
        "server.mutations_per_flush",
        stats.mutations as f64 / stats.batch_flushes.max(1) as f64,
    );
    r.put1("server.sheds", stats.sheds as f64);

    // The hand-written arms.
    r.put1("systems.hand_account_ns", hand_account_ns);
    r.put1("systems.hand_query_ns", hand_query_ns);
    r.put1("systems.hand_script_ns", hand_script_ns);

    r.put1(
        "bench.trace_overhead_x",
        overhead.expect("the requested workload is one of the five"),
    );

    if let Some(tr) = chosen {
        text.push_str(&format!("\nspans of the traced pass of {workload}:\n"));
        text.push_str(&trace::render(&tr.aggregate()));
        let path = out_dir.join(format!("trace_{workload}.jsonl"));
        match std::fs::create_dir_all(out_dir).and_then(|()| tr.write_jsonl(&path)) {
            Ok(()) => text.push_str(&format!(
                "wrote {} spans to {}\n",
                tr.spans().len(),
                path.display()
            )),
            Err(e) => text.push_str(&format!("could not write {}: {e}\n", path.display())),
        }
    }
    for n in &r.notes {
        text.push_str(&format!("  note: {n}\n"));
    }

    let mut rows: Vec<Row> = r
        .metrics
        .iter()
        .map(|(name, value)| {
            let unit = crate::metrics::PER_LAYER
                .iter()
                .find(|m| m.name == name)
                .map_or("?", |m| m.unit);
            Row::new(name, unit, *value)
        })
        .collect();
    crate::report::sort_like_manifest(&mut rows);
    Traced {
        text,
        correct: r.failed == 0,
        attempted: r.attempted,
        failed: r.failed,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::FlowSchema;

    #[test]
    fn every_rung_of_the_ladder_answers_like_the_generator() {
        let cfg = Cfg::for_test("ladder");
        let l = ladder::run(&cfg);
        let _ = std::fs::remove_dir_all(&cfg.work_dir);
        assert_eq!(l.rungs.len(), crate::metrics::RUNGS.len());
        for (rung, m) in crate::metrics::RUNGS.iter().zip(&l.rungs) {
            assert_eq!(
                m.wrong, 0,
                "rung {rung} answered {} of {} operations wrongly",
                m.wrong, m.attempted
            );
            assert!(m.ns.iter().all(|s| s.value > 0.0), "rung {rung}");
        }
        // `allocs_per_point` is not asserted here: the allocator counts for
        // the whole process, and the other tests allocate on their threads.
        assert_eq!(ladder::metrics(&l).len(), 28);
    }

    #[test]
    fn codegen_repeats_exactly_and_matches_the_build_time_module() {
        let s = FlowSchema::new();
        let (a, b) = (
            probes::generate_flows_module(&s),
            probes::generate_flows_module(&s),
        );
        assert_eq!(a, b);
        assert_eq!(a.0.len(), ladder::flows_gen_consts::BUILD_EMITTED_BYTES);
        assert_eq!(a.2, ladder::flows_gen_consts::BUILD_REPORT);
    }

    #[test]
    fn build_rs_compiles_the_systems_default_decomposition() {
        // build.rs cannot depend on relic_systems; it carries the text.
        let s = FlowSchema::new();
        let mut cat = s.cat.clone();
        let d =
            relic_decomp::parse(&mut cat, ladder::flows_gen_consts::FLOW_DECOMPOSITION).unwrap();
        assert_eq!(d.to_let_notation(&cat), s.d.to_let_notation(&s.cat));
    }
}
