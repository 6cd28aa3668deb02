//! `served_mix`: the whole stack under one request.
//!
//! An in-process `ServeHandle` (one worker, coalesced commits) over a
//! `DurableRelation` preloaded with 256 x 512 flows; two generator threads,
//! one pipelined `Client` each (window 8), in a closed loop. Per connection:
//! 78 % point `Query`, 15.5 % 64-row `QueryWhere`, 5.5 % 512-row scan, 1 %
//! `Insert`/`Remove` pairs on a key range of the connection's own, so the
//! relation ends every repeat as it began. Keys are Zipf(1.1). Every response
//! is checked against what the generator knows the answer to be.
//!
//! Writes are 1 %, not more, because with two connections nearly every write
//! is a disk flush of its own (about one mutation per batch flush), and a
//! flush on the recorder takes 0.25 to 0.55 ms depending on the minute: at
//! 10 % writes the whole workload measured the disk, and differed by 17 %
//! from one run to the next.

use super::durable_ingest::create;
use super::{peak_rss_mb, repeat_for, timed_setups, Cfg, FlowSchema, Outcome, Repeat};
use crate::gen::{dense_flows, expected_fold, flow_at, fold, Rng, Zipf};
use crate::trace::{Tracer, NONE};
use relic_core::netmsg::{NetRequest, NetResponse};
use relic_core::Bindings;
use relic_persist::DurableRelation;
use relic_server::{Client, CommitMode, ServeHandle, ServerConfig, ServerStats};
use relic_spec::{Tuple, Value};
use std::sync::{Arc, Barrier};
use std::time::Instant;

pub const LOCALS: usize = 256;
pub const REMOTES: usize = 512;
const CONNS: usize = 2;
const RANGE_ROWS: i64 = 64;
/// Each connection inserts and removes under a `local` nobody queries.
const PRIVATE_LOCAL: i64 = 1_000;

/// `(locals, requests per connection per repeat)`.
fn sizes(cfg: &Cfg) -> (usize, usize) {
    (cfg.size(LOCALS, 8), cfg.size(4_000, 400))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Point,
    Range,
    Scan,
    Insert,
    Remove,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Point => "request_point",
            Kind::Range => "request_range",
            Kind::Scan => "request_scan",
            Kind::Insert => "request_insert",
            Kind::Remove => "request_remove",
        }
    }
}

/// One request with what the generator expects back: for a read, the row
/// count and the fold of the rows; for a write, nothing (acknowledged counts
/// are checked as a sum, because coalesced runs report theirs on the first
/// ack).
pub struct Request {
    kind: Kind,
    req: NetRequest,
    rows: usize,
    fold: u64,
}

impl Request {
    #[cfg(test)]
    pub fn request(&self) -> &NetRequest {
        &self.req
    }
}

/// The fold of a response's rows, projected onto `remote, bytes, pkts` (in
/// column order).
pub fn fold_rows(tuples: &[Tuple]) -> u64 {
    tuples.iter().fold(0, |acc, t| {
        let v = |i: usize| t.values().get(i).and_then(Value::as_int).unwrap_or(0);
        fold(acc, v(1), v(2))
    })
}

/// The request stream of connection `conn`.
pub fn generate(s: &FlowSchema, n: usize, locals: usize, conn: usize, seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed ^ (0x5E_47_ED << 8) ^ conn as u64);
    let (zl, zr) = (Zipf::new(locals, 1.1), Zipf::new(REMOTES, 1.1));
    let out = s.cols.remote | s.cols.bytes | s.cols.pkts;
    let expect = |l: i64, rs: std::ops::Range<i64>| {
        ((rs.end - rs.start) as usize, expected_fold(l, rs, seed))
    };
    let point = |l: i64, r: i64| Request {
        kind: Kind::Point,
        req: NetRequest::Query {
            pattern: s.key(l, r),
            out,
        },
        rows: 1,
        fold: expect(l, r..r + 1).1,
    };
    let remove = |k: i64| Request {
        kind: Kind::Remove,
        req: NetRequest::Remove {
            pattern: s.key(PRIVATE_LOCAL + conn as i64, k),
        },
        rows: 0,
        fold: 0,
    };
    let mut reqs = Vec::with_capacity(n);
    let mut pending: Option<i64> = None;
    let mut next_key = 0i64;
    while reqs.len() + 1 < n {
        let (l, r) = (zl.sample(&mut rng) as i64, zr.sample(&mut rng) as i64);
        reqs.push(match rng.below(1000) {
            0..=779 => point(l, r),
            780..=934 => {
                let lo = r.min(REMOTES as i64 - RANGE_ROWS);
                let (rows, fold) = expect(l, lo..lo + RANGE_ROWS);
                Request {
                    kind: Kind::Range,
                    req: NetRequest::QueryWhere {
                        pattern: format!(
                            "local = {l}, remote between {lo} and {}",
                            lo + RANGE_ROWS - 1
                        ),
                        out,
                    },
                    rows,
                    fold,
                }
            }
            935..=989 => {
                let (rows, fold) = expect(l, 0..REMOTES as i64);
                Request {
                    kind: Kind::Scan,
                    req: NetRequest::Query {
                        pattern: s.local(l),
                        out,
                    },
                    rows,
                    fold,
                }
            }
            _ => match pending.take() {
                None => {
                    pending = Some(next_key);
                    next_key += 1;
                    let tuple = s.tuple((PRIVATE_LOCAL + conn as i64, next_key - 1, 40 + l, 1 + r));
                    Request {
                        kind: Kind::Insert,
                        req: NetRequest::Insert { tuple },
                        rows: 0,
                        fold: 0,
                    }
                }
                Some(k) => remove(k),
            },
        });
    }
    // The last request leaves nothing behind: the repeat must end in the
    // state it began in.
    reqs.push(match pending {
        Some(k) => remove(k),
        None => point(zl.sample(&mut rng) as i64, zr.sample(&mut rng) as i64),
    });
    reqs
}

/// A served relation with its connected clients.
pub struct Served {
    rel: Arc<DurableRelation>,
    server: ServeHandle,
    clients: Vec<Client>,
}

pub fn setup(
    s: &FlowSchema,
    cfg: &Cfg,
    locals: usize,
    window: usize,
    streams: &[Vec<Request>],
) -> Served {
    let dir = cfg.work_dir.join("served");
    let _ = std::fs::remove_dir_all(&dir);
    let rel = create(s, &dir).expect("create durable relation");
    rel.bulk_load(
        dense_flows(locals, REMOTES, cfg.seed)
            .into_iter()
            .map(|f| s.tuple(f)),
    )
    .expect("bulk load");
    rel.commit().expect("commit the load");
    let rel = Arc::new(rel);
    let config = ServerConfig {
        workers: 1,
        commit: CommitMode::Coalesced,
        ..ServerConfig::default()
    };
    let server = ServeHandle::spawn(Arc::clone(&rel), config).expect("spawn server");
    let clients: Vec<Client> = (0..streams.len())
        .map(|_| {
            let mut c = Client::connect(server.addr()).expect("connect");
            let (cat, _) = c.catalog().expect("fetch catalog");
            assert_eq!(cat, s.cat, "the served catalog is the flow catalog");
            c
        })
        .collect();
    let mut served = Served {
        rel,
        server,
        clients,
    };
    // Warm-up: the head of each stream, so plan caches, socket buffers and
    // the worker's read handle are in their steady state. It holds whole
    // insert/remove pairs only if it ends on no pending insert, so replay a
    // prefix that does.
    let warm: Vec<&[Request]> = streams
        .iter()
        .map(|st| &st[..balanced_prefix(st, 256)])
        .collect();
    let (_, failed) = served.pass(&warm, window, &mut Tracer::off());
    assert_eq!(failed, 0, "warm-up requests are answered correctly");
    served
}

/// The longest prefix of at most `max` requests with no insert left pending.
fn balanced_prefix(stream: &[Request], max: usize) -> usize {
    let mut end = 0;
    let mut pending = false;
    for (i, r) in stream.iter().take(max).enumerate() {
        match r.kind {
            Kind::Insert => pending = true,
            Kind::Remove => pending = false,
            _ => {}
        }
        if !pending {
            end = i + 1;
        }
    }
    end
}

impl Served {
    /// Every connection sends its stream once, `window` requests in flight.
    /// Returns the repeat and the number of requests that failed: refused,
    /// errored, or answered with the wrong rows or the wrong ack total.
    pub fn pass(
        &mut self,
        streams: &[&[Request]],
        window: usize,
        tr: &mut Tracer,
    ) -> (Repeat, u64) {
        let barrier = Barrier::new(streams.len() + 1);
        let mut forks: Vec<Tracer> = streams.iter().map(|_| tr.fork()).collect();
        let (wall_ns, results) = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(streams)
                .zip(forks.iter_mut())
                .map(|((client, stream), tr)| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        drive(client, stream, window, tr)
                    })
                })
                .collect();
            barrier.wait();
            let start = Instant::now();
            let results: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().expect("generator thread"))
                .collect();
            (start.elapsed().as_nanos() as u64, results)
        });
        for f in forks {
            tr.absorb(f);
        }
        let mut rep = Repeat {
            ops: streams.iter().map(|s| s.len() as u64).sum(),
            wall_ns,
            ..Repeat::default()
        };
        // Every insert adds one tuple and every remove takes one away. The
        // server reports a coalesced run's count on the run's first ack,
        // whichever connection that belongs to, so only the total is exact.
        let mutations = streams
            .iter()
            .flat_map(|s| s.iter())
            .filter(|r| matches!(r.kind, Kind::Insert | Kind::Remove))
            .count() as u64;
        let (mut failed, mut acked) = (0, 0);
        for (lat, f, a) in results {
            rep.lat_ns.extend(lat);
            failed += f;
            acked += a;
        }
        (rep, failed + mutations.abs_diff(acked))
    }

    /// Stops the server and checks that the relation holds exactly the
    /// preloaded flows. Returns the server's counters and whether it does.
    pub fn finish(self, s: &FlowSchema, locals: usize, seed: u64) -> (ServerStats, bool) {
        drop(self.clients);
        let stats = self.server.stop().expect("server stops cleanly");
        let (mut n, mut ok) = (0usize, true);
        let streamed = self.rel.read_view().query_for_each_bindings(
            &mut Bindings::new(),
            &Tuple::empty(),
            s.spec.cols(),
            |b| {
                let int = |col| b.get(col).and_then(Value::as_int).unwrap_or(i64::MIN);
                n += 1;
                ok &= flow_at(int(s.cols.local), int(s.cols.remote), seed).2 == int(s.cols.bytes);
            },
        );
        let dir = self.rel.dir().to_path_buf();
        drop(self.rel);
        let _ = std::fs::remove_dir_all(dir);
        (stats, streamed.is_ok() && ok && n == locals * REMOTES)
    }
}

/// One connection's closed loop: keep `window` requests in flight, match
/// each response to its request, time it from send to receive. Returns the
/// latencies, the requests that failed, and the sum of the acknowledged
/// counts.
fn drive(
    client: &mut Client,
    stream: &[Request],
    window: usize,
    tr: &mut Tracer,
) -> (Vec<f64>, u64, u64) {
    let mut lat = Vec::with_capacity(stream.len());
    let mut sent_at: Vec<(Instant, u32)> = Vec::with_capacity(stream.len());
    let (mut failed, mut acked) = (0u64, 0u64);
    let mut next = 0;
    for (done, want) in stream.iter().enumerate() {
        while next < stream.len() && next - done < window {
            let span = tr.begin("server", stream[next].kind.span(), next as u32, NONE);
            sent_at.push((Instant::now(), span));
            if client.send(&stream[next].req).is_err() {
                // The connection is gone: everything not yet answered fails.
                return (lat, failed + (stream.len() - done) as u64, acked);
            }
            next += 1;
        }
        let resp = client.recv();
        let (t, span) = sent_at[done];
        lat.push(t.elapsed().as_nanos() as f64);
        let mut rows_seen = 0u32;
        let ok = match (want.kind, resp) {
            (Kind::Insert | Kind::Remove, Ok(NetResponse::Ack { n })) => {
                acked += n;
                true
            }
            (Kind::Point | Kind::Range | Kind::Scan, Ok(NetResponse::Rows { tuples })) => {
                rows_seen = tuples.len() as u32;
                tuples.len() == want.rows && fold_rows(&tuples) == want.fold
            }
            (_, Err(_)) => return (lat, failed + (stream.len() - done) as u64, acked),
            _ => false,
        };
        tr.end(span, rows_seen);
        failed += u64::from(!ok);
    }
    (lat, failed, acked)
}

pub fn run(cfg: &Cfg, tr: &mut Tracer) -> Outcome {
    let (locals, per_conn) = sizes(cfg);
    let window = 8;
    let s = FlowSchema::new();
    let streams: Vec<Vec<Request>> = (0..CONNS)
        .map(|c| generate(&s, per_conn, locals, c, cfg.seed))
        .collect();
    let views: Vec<&[Request]> = streams.iter().map(Vec::as_slice).collect();
    let mut out = Outcome::default();

    let (mut served, setup_s) = timed_setups(cfg, 7, || setup(&s, cfg, locals, window, &streams));
    out.setup_s = setup_s;

    out.repeats = repeat_for(cfg.seconds, |_| {
        let (rep, failed) = served.pass(&views, window, tr);
        out.attempted += rep.ops;
        out.failed += failed;
        rep
    });
    out.peak_rss_mb = peak_rss_mb();
    let (stats, intact) = served.finish(&s, locals, cfg.seed);
    out.correct = out.failed == 0 && intact;
    out.notes.push(format!(
        "{} flows, {CONNS} connections x {per_conn} requests per repeat, window {window}; server saw {} requests, {} mutations in {} batch flushes, {} sheds, {} frame errors",
        locals * REMOTES,
        stats.requests,
        stats.mutations,
        stats.batch_flushes,
        stats.sheds,
        stats.frame_errors
    ));
    out
}

/// A small pass for the traced run. Returns the repeat, the failed requests
/// (a relation that did not end as it began fails them all) and the server's
/// counters.
pub fn mini(cfg: &Cfg, tr: &mut Tracer) -> (Repeat, u64, ServerStats) {
    let (locals, _) = sizes(cfg);
    let per_conn = cfg.size(2_000, 100);
    let s = FlowSchema::new();
    let streams: Vec<Vec<Request>> = (0..CONNS)
        .map(|c| generate(&s, per_conn, locals, c, cfg.seed))
        .collect();
    let views: Vec<&[Request]> = streams.iter().map(Vec::as_slice).collect();
    let mut served = setup(&s, cfg, locals, 8, &streams);
    let (rep, failed) = served.pass(&views, 8, tr);
    let (stats, intact) = served.finish(&s, locals, cfg.seed);
    let failed = if intact { failed } else { rep.ops };
    (rep, failed, stats)
}
