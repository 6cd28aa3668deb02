//! `ipcap_embed`: the paper's IpCap daemon loop (§6.2) in-process.
//!
//! Every packet is a point query plus an update or an insert on
//! `SynthFlows`; every `PERIOD` packets the table is scanned, logged and
//! cleared. The same trace runs through the hand-written `BaselineFlows`,
//! and the flushed logs must be equal.

use super::{peak_rss_mb, repeat_for, timed_setups, Cfg, FlowSchema, Mini, Outcome, Repeat};
use crate::gen::{packet_trace, Packet};
use crate::stats;
use crate::trace::{Tracer, NONE};
use relic_core::SynthRelation;
use relic_spec::{Tuple, Value};
use relic_systems::ipcap::{BaselineFlows, FlowCols, FlowRecord, FlowStore, SynthFlows};
use std::time::Instant;

/// Packets per latency sample.
const CHUNK: usize = 1024;
pub const LOCALS: usize = 64;
pub const REMOTES: usize = 512;

/// `(packets between flushes, flush periods per repeat)`. A flush every 64
/// chunks puts 1.6 % of the latency samples on a flush, so `lat_p99_ns`
/// sees them.
fn sizes(cfg: &Cfg) -> (usize, usize) {
    (cfg.size(64 * CHUNK, 4 * CHUNK), cfg.size(4, 2))
}

pub fn generate(cfg: &Cfg) -> Vec<Packet> {
    let (period, periods) = sizes(cfg);
    packet_trace(period * periods, LOCALS, REMOTES, cfg.seed)
}

/// Builds the synthesized flow table and runs one flush period through it,
/// so plan caches and container capacity are warm.
fn setup(trace: &[Packet], period: usize) -> SynthFlows {
    let s = FlowSchema::new();
    let mut flows =
        SynthFlows::new(&s.cat, s.cols, &s.spec, s.d).expect("default decomposition is adequate");
    for p in &trace[..period] {
        flows.account(*p).expect("warm-up accounting");
    }
    flows.flush().expect("warm-up flush");
    flows
}

/// One pass of the daemon loop over `trace`: the log of every flush, and the
/// number of packets whose accounting (or whose period's flush) errored.
fn pass<S: FlowStore>(
    store: &mut S,
    trace: &[Packet],
    period: usize,
) -> (Repeat, Vec<Vec<FlowRecord>>, u64) {
    let mut rep = Repeat {
        ops: trace.len() as u64,
        lat_ns: Vec::with_capacity(trace.len() / CHUNK),
        lat_tile: CHUNK as f64,
        ..Repeat::default()
    };
    let mut logs = Vec::with_capacity(trace.len() / period);
    let mut errors = 0u64;
    let start = Instant::now();
    for (i, chunk) in trace.chunks(CHUNK).enumerate() {
        let t = Instant::now();
        for p in chunk {
            errors += u64::from(store.account(*p).is_err());
        }
        if ((i + 1) * CHUNK).is_multiple_of(period) {
            match store.flush() {
                Ok(log) => logs.push(log),
                Err(_) => errors += period as u64,
            }
        }
        rep.lat_ns
            .push(t.elapsed().as_nanos() as f64 / chunk.len() as f64);
    }
    rep.wall_ns = start.elapsed().as_nanos() as u64;
    (rep, logs, errors)
}

pub fn run(cfg: &Cfg, _tr: &mut Tracer) -> Outcome {
    let (period, _) = sizes(cfg);
    let trace = generate(cfg);
    let mut out = Outcome::default();
    let (mut flows, setup_s) = timed_setups(cfg, 15, || setup(&trace, period));
    out.setup_s = setup_s;

    let mut hand = BaselineFlows::new();
    let (_, want, _) = pass(&mut hand, &trace, period);

    out.correct = true;
    out.repeats = repeat_for(cfg.seconds, |_| {
        let (rep, logs, errors) = pass(&mut flows, &trace, period);
        let wrong = logs
            .iter()
            .zip(&want)
            .filter(|(got, want)| got != want)
            .count()
            + want.len().abs_diff(logs.len());
        out.attempted += rep.ops;
        out.failed += errors + (wrong * period) as u64;
        out.correct &= errors == 0 && wrong == 0;
        rep
    });
    out.peak_rss_mb = peak_rss_mb();
    drop(flows);

    let (hand_wall, passes) =
        out.versus_hand(cfg.seconds, || pass(&mut hand, &trace, period).0.wall_ns);
    out.notes.push(format!(
        "{} packets per repeat, flush every {period}; hand-written arm {:.1} ns/packet over {passes} passes",
        trace.len(),
        hand_wall / trace.len() as f64,
    ));
    out
}

/// The bench-side copy of `SynthFlows::account` / `flush` over a bare
/// `SynthRelation`, with a span around each call into `relic_core`. Returns
/// the repeat and the number of flows flushed.
pub fn traced_pass(
    rel: &mut SynthRelation,
    cols: FlowCols,
    trace: &[Packet],
    period: usize,
    tr: &mut Tracer,
) -> (Repeat, u64) {
    let out_cols = cols.bytes | cols.pkts;
    let mut flushed = 0u64;
    let start = Instant::now();
    for (i, &(l, r, len)) in trace.iter().enumerate() {
        let op = i as u32;
        let root = tr.begin("systems", "account", op, NONE);
        let key = Tuple::from_pairs([(cols.local, Value::from(l)), (cols.remote, Value::from(r))]);
        let existing = tr.leaf("core", "account_query", op, root, || {
            let rows = rel.query(&key, out_cols).expect("query");
            let n = rows.len() as u32;
            (rows, n)
        });
        match existing.first() {
            Some(t) => {
                let bytes = t
                    .get(cols.bytes)
                    .and_then(Value::as_int)
                    .expect("int bytes");
                let pkts = t.get(cols.pkts).and_then(Value::as_int).expect("int pkts");
                let changes = Tuple::from_pairs([
                    (cols.bytes, Value::from(bytes + len)),
                    (cols.pkts, Value::from(pkts + 1)),
                ]);
                tr.leaf("core", "account_update", op, root, || {
                    (rel.update(&key, &changes).expect("update"), 1)
                });
            }
            None => {
                let t = key.merge(&Tuple::from_pairs([
                    (cols.bytes, Value::from(len)),
                    (cols.pkts, Value::from(1)),
                ]));
                tr.leaf("core", "account_insert", op, root, || {
                    (rel.insert(t).expect("insert"), 1)
                });
            }
        }
        tr.end(root, 1);
        if (i + 1).is_multiple_of(period) {
            let root = tr.begin("systems", "flush", op, NONE);
            let all = tr.leaf("core", "flush_query_full", op, root, || {
                let rows = rel.query_full(&Tuple::empty()).expect("scan");
                let n = rows.len() as u32;
                (rows, n)
            });
            tr.leaf("core", "flush_clear", op, root, || (rel.clear(), 0));
            flushed += all.len() as u64;
            tr.end(root, all.len() as u32);
        }
    }
    let rep = Repeat {
        ops: trace.len() as u64,
        wall_ns: start.elapsed().as_nanos() as u64,
        ..Repeat::default()
    };
    (rep, flushed)
}

/// A small pass of the bench-side accounting loop, for the traced run: two
/// flush periods over a bare `SynthRelation`. Fails what the hand-written
/// table, run over the same trace, would not have flushed.
pub fn mini(cfg: &Cfg, tr: &mut Tracer) -> Mini {
    let period = cfg.size(32 * CHUNK, 2 * CHUNK);
    let trace = packet_trace(2 * period, LOCALS, REMOTES, cfg.seed);
    let s = FlowSchema::new();
    let mut rel = SynthRelation::new(&s.cat, s.spec.clone(), s.d.clone())
        .expect("default decomposition is adequate");
    rel.set_fd_checking(false);
    let (rep, flushed) = traced_pass(&mut rel, s.cols, &trace, period, tr);
    let mut hand = BaselineFlows::new();
    let (_, want, _) = pass(&mut hand, &trace, period);
    let want: u64 = want.iter().map(|log| log.len() as u64).sum();
    let mut walls: Vec<f64> = (0..9)
        .map(|_| pass(&mut hand, &trace, period).0.wall_ns as f64)
        .collect();
    Mini {
        rep,
        failed: want.abs_diff(flushed),
        hand_ns_per_op: stats::median(&mut walls) / trace.len() as f64,
    }
}
