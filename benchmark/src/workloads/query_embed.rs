//! `query_embed_1m`: read-only queries over a dense 1 M-flow table, through
//! the zero-allocation bindings API: 70 % point lookups, 20 % 64-row ranges
//! on `remote`, 10 % per-`local` scans. The hand-written arm answers the same
//! query stream from a `BTreeMap<i64, HashMap<i64, (i64, i64)>>`, and the
//! per-chunk result checksums must be equal.

use super::{peak_rss_mb, repeat_for, timed_setups, Cfg, FlowSchema, Mini, Outcome, Repeat};
use crate::gen::{dense_flows, fold, Flow, Rng};
use crate::stats;
use crate::trace::{Tracer, NONE};
use relic_concurrent::ReadHandle;
use relic_core::{Bindings, OpError, SynthRelation};
use relic_spec::{ColSet, Pattern, Tuple, Value};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Queries per latency sample.
const CHUNK: usize = 64;
pub const REMOTES: usize = 256;
pub const RANGE_ROWS: i64 = 64;

/// `(locals, queries per repeat)`.
fn sizes(cfg: &Cfg) -> (usize, usize) {
    (cfg.size(4096, 64), cfg.size(256 * CHUNK, 8 * CHUNK))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Point,
    Range,
    Scan,
}

/// One generated query: its kind, its `local`, and its `remote` (the key of
/// a point lookup, the lower end of a range, unused by a scan).
pub type RawQuery = (Kind, i64, i64);

pub fn generate_queries(n: usize, locals: usize, seed: u64) -> Vec<RawQuery> {
    let mut rng = Rng::new(seed ^ 0x51_7E_A5);
    (0..n)
        .map(|_| {
            let l = rng.below(locals as u64) as i64;
            match rng.below(10) {
                0..=6 => (Kind::Point, l, rng.below(REMOTES as u64) as i64),
                7..=8 => (
                    Kind::Range,
                    l,
                    rng.below(REMOTES as u64 - RANGE_ROWS as u64 + 1) as i64,
                ),
                _ => (Kind::Scan, l, 0),
            }
        })
        .collect()
}

/// A query in the form the relation takes it, built before timing starts.
pub enum Query {
    Eq(Tuple),
    Where(Pattern),
}

pub fn compile_queries(s: &FlowSchema, raw: &[RawQuery]) -> Vec<Query> {
    raw.iter()
        .map(|&(kind, l, r)| match kind {
            Kind::Point => Query::Eq(s.key(l, r)),
            Kind::Range => Query::Where(s.range(l, r, r + RANGE_ROWS - 1)),
            Kind::Scan => Query::Eq(s.local(l)),
        })
        .collect()
}

pub fn build_relation(s: &FlowSchema, flows: &[Flow]) -> SynthRelation {
    let mut rel = SynthRelation::new(&s.cat, s.spec.clone(), s.d.clone())
        .expect("default decomposition is adequate");
    rel.set_fd_checking(false);
    rel.bulk_load(flows.iter().map(|&f| s.tuple(f)))
        .expect("bulk load of distinct keys");
    rel
}

/// The streaming-bindings read API, which `SynthRelation` and `ReadHandle`
/// offer under the same two names.
pub trait Reads {
    fn read<F: FnMut(&Bindings)>(
        &mut self,
        scratch: &mut Bindings,
        q: &Query,
        out: ColSet,
        f: F,
    ) -> Result<(), OpError>;
}

impl Reads for &SynthRelation {
    #[inline(always)]
    fn read<F: FnMut(&Bindings)>(
        &mut self,
        scratch: &mut Bindings,
        q: &Query,
        out: ColSet,
        f: F,
    ) -> Result<(), OpError> {
        match q {
            Query::Eq(t) => self.query_for_each_bindings(scratch, t, out, f),
            Query::Where(p) => self.query_where_for_each_bindings(scratch, p, out, f),
        }
    }
}

impl Reads for ReadHandle<'_> {
    #[inline(always)]
    fn read<F: FnMut(&Bindings)>(
        &mut self,
        scratch: &mut Bindings,
        q: &Query,
        out: ColSet,
        f: F,
    ) -> Result<(), OpError> {
        match q {
            Query::Eq(t) => self.query_for_each_bindings(scratch, t, out, f),
            Query::Where(p) => self.query_where_for_each_bindings(scratch, p, out, f),
        }
    }
}

/// Runs one query and folds its rows' counters: `(fold, rows)`.
#[inline(always)]
pub fn fold_query<R: Reads>(
    reader: &mut R,
    scratch: &mut Bindings,
    s: &FlowSchema,
    q: &Query,
) -> Result<(u64, u32), OpError> {
    let (bytes, pkts) = (s.cols.bytes, s.cols.pkts);
    let (mut acc, mut rows) = (0u64, 0u32);
    reader.read(scratch, q, bytes | pkts, |b| {
        let v = |c| b.get(c).and_then(Value::as_int).unwrap_or(0);
        acc = fold(acc, v(bytes), v(pkts));
        rows += 1;
    })?;
    Ok((acc, rows))
}

/// One pass over the query stream: per-chunk latencies and checksums.
fn pass(
    mut rel: &SynthRelation,
    s: &FlowSchema,
    queries: &[Query],
    scratch: &mut Bindings,
    tr: &mut Tracer,
) -> (Repeat, Vec<u64>, u64) {
    let mut rep = Repeat {
        ops: queries.len() as u64,
        lat_ns: Vec::with_capacity(queries.len() / CHUNK),
        lat_tile: CHUNK as f64,
        ..Repeat::default()
    };
    let mut sums = Vec::with_capacity(queries.len() / CHUNK);
    let mut errors = 0u64;
    let start = Instant::now();
    for (c, chunk) in queries.chunks(CHUNK).enumerate() {
        let t = Instant::now();
        let mut acc = 0u64;
        for (i, q) in chunk.iter().enumerate() {
            let name = match q {
                Query::Eq(t) if t.len() == 2 => "query_point",
                Query::Eq(_) => "query_scan",
                Query::Where(_) => "query_range",
            };
            let id = tr.begin("core", name, (c * CHUNK + i) as u32, NONE);
            let answer = fold_query(&mut rel, scratch, s, q);
            tr.end(id, answer.as_ref().map_or(0, |a| a.1));
            match answer {
                Ok((fold, _)) => acc = acc.wrapping_add(fold),
                Err(_) => errors += 1,
            }
        }
        rep.lat_ns
            .push(t.elapsed().as_nanos() as f64 / chunk.len() as f64);
        sums.push(acc);
    }
    rep.wall_ns = start.elapsed().as_nanos() as u64;
    (rep, sums, errors)
}

/// The hand-written arm.
pub struct HandFlows(BTreeMap<i64, HashMap<i64, (i64, i64)>>);

impl HandFlows {
    pub fn build(flows: &[Flow]) -> HandFlows {
        let mut m: BTreeMap<i64, HashMap<i64, (i64, i64)>> = BTreeMap::new();
        for &(l, r, b, p) in flows {
            m.entry(l).or_default().insert(r, (b, p));
        }
        HandFlows(m)
    }

    /// One pass: wall time and per-chunk checksums.
    pub fn pass(&self, raw: &[RawQuery]) -> (u64, Vec<u64>) {
        let mut sums = Vec::with_capacity(raw.len() / CHUNK);
        let start = Instant::now();
        for chunk in raw.chunks(CHUNK) {
            let mut acc = 0u64;
            for &(kind, l, r) in chunk {
                let Some(inner) = self.0.get(&l) else {
                    continue;
                };
                match kind {
                    Kind::Point => {
                        if let Some(&(b, p)) = inner.get(&r) {
                            acc = fold(acc, b, p);
                        }
                    }
                    Kind::Range => {
                        for (&k, &(b, p)) in inner {
                            if (r..r + RANGE_ROWS).contains(&k) {
                                acc = fold(acc, b, p);
                            }
                        }
                    }
                    Kind::Scan => {
                        for &(b, p) in inner.values() {
                            acc = fold(acc, b, p);
                        }
                    }
                }
            }
            sums.push(acc);
        }
        (start.elapsed().as_nanos() as u64, sums)
    }
}

pub fn run(cfg: &Cfg, tr: &mut Tracer) -> Outcome {
    let (locals, n_queries) = sizes(cfg);
    let s = FlowSchema::new();
    let flows = dense_flows(locals, REMOTES, cfg.seed);
    let raw = generate_queries(n_queries, locals, cfg.seed);
    let queries = compile_queries(&s, &raw);
    let mut scratch = Bindings::new();
    let mut out = Outcome::default();

    let (rel, setup_s) = timed_setups(cfg, 5, || {
        let rel = build_relation(&s, &flows);
        // Warm-up: the first chunks fill the plan cache for all three shapes.
        pass(
            &rel,
            &s,
            &queries[..(4 * CHUNK).min(queries.len())],
            &mut Bindings::new(),
            &mut Tracer::off(),
        );
        rel
    });
    out.setup_s = setup_s;

    let mut got: Vec<Vec<u64>> = Vec::new();
    let mut errors = 0u64;
    out.repeats = repeat_for(cfg.seconds, |_| {
        let (rep, sums, e) = pass(&rel, &s, &queries, &mut scratch, tr);
        errors += e;
        if got.last() != Some(&sums) {
            got.push(sums);
        }
        rep
    });
    out.peak_rss_mb = peak_rss_mb();
    drop(rel);

    let hand = HandFlows::build(&flows);
    let (_, want) = hand.pass(&raw);

    // Every repeat ran the same queries, so `got` holds one checksum vector
    // unless a repeat disagreed with another; each must equal the hand arm's.
    let wrong_chunks: usize = got
        .iter()
        .map(|sums| {
            sums.iter().zip(&want).filter(|(a, b)| a != b).count() + sums.len().abs_diff(want.len())
        })
        .sum();
    out.attempted = out.repeats.iter().map(|r| r.ops).sum();
    out.failed = errors + (wrong_chunks * CHUNK) as u64;
    out.correct = errors == 0 && wrong_chunks == 0 && got.len() == 1;

    let (hand_wall, passes) = out.versus_hand(cfg.seconds, || hand.pass(&raw).0);
    out.notes.push(format!(
        "{} flows ({locals} locals x {REMOTES} remotes), {n_queries} queries per repeat; hand-written arm {:.1} ns/query over {passes} passes",
        flows.len(),
        hand_wall / n_queries as f64,
    ));
    out
}

/// A small pass for the traced run, over the ladder's dataset size; `aux` is
/// the hand-written arm's ns per query on the same stream.
pub fn mini(cfg: &Cfg, tr: &mut Tracer) -> Mini {
    let locals = cfg.size(256, 16);
    let s = FlowSchema::new();
    let flows = dense_flows(locals, REMOTES, cfg.seed);
    let raw = generate_queries(cfg.size(128 * CHUNK, 4 * CHUNK), locals, cfg.seed);
    let queries = compile_queries(&s, &raw);
    let rel = build_relation(&s, &flows);
    pass(
        &rel,
        &s,
        &queries[..CHUNK],
        &mut Bindings::new(),
        &mut Tracer::off(),
    );
    let (rep, got, errors) = pass(&rel, &s, &queries, &mut Bindings::new(), tr);
    let hand = HandFlows::build(&flows);
    let (_, want) = hand.pass(&raw);
    let mut walls: Vec<f64> = (0..9).map(|_| hand.pass(&raw).0 as f64).collect();
    let wrong = got.iter().zip(&want).filter(|(a, b)| a != b).count();
    Mini {
        rep,
        failed: errors + (wrong * CHUNK) as u64,
        hand_ns_per_op: stats::median(&mut walls) / raw.len() as f64,
    }
}
