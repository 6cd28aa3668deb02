//! The serving event loop: acceptor plus worker threads, no async
//! runtime.
//!
//! The build is offline and `std`-only, so there is no epoll/kqueue
//! binding to wait on. Instead each worker *owns* a disjoint set of
//! connections outright — no cross-worker locking, no connection
//! migration — and scans them round-robin with nonblocking reads. A scan
//! that moves no bytes anywhere ramps an adaptive backoff up to
//! [`ServerConfig::idle_backoff`]; any progress snaps it back to a spin.
//! Under load the loop is hot and batches hard; idle, it costs a few
//! wakeups per millisecond at most.
//!
//! Division of labor per scan:
//!
//! 1. Adopt newly accepted connections from the acceptor's queue.
//! 2. For each connection: buffer readable bytes, then decode and
//!    dispatch up to [`ServerConfig::max_requests_per_scan`] requests.
//!    Reads answer immediately from the worker's [`ReadHandle`]: a query
//!    streams its rows into the worker's reused [`FlatRows`] — values back
//!    to back, one index entry per row, no `Tuple` — whose sorted,
//!    deduplicated index is framed straight into the connection's output
//!    queue. Mutations queue into the worker's `MutationBatch`.
//! 3. Flush the mutation batch — each op applied on its own, one group
//!    commit — and distribute the acks to their connections.
//! 4. Push queued response bytes at every socket that will take them.
//!
//! A query from a connection with queued mutations flushes the batch
//! early (read-your-writes); admission control can force a flush (delay)
//! or refuse the mutation outright (shed) before it is ever queued.

use crate::admission::Admission;
use crate::batch::MutationBatch;
use crate::conn::{Conn, ReadPass};
use crate::ServerConfig;
use relic_concurrent::ReadHandle;
use relic_core::netmsg::{NetRequest, NetResponse, ServingStats};
use relic_core::{Bindings, FlatRows, Op, RelRead};
use relic_persist::DurableRelation;
use relic_spec::{parse_pattern, ColSet};
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Counters aggregated across workers while serving.
#[derive(Debug, Default)]
struct SharedStats {
    connections: AtomicU64,
    requests: AtomicU64,
    queries: AtomicU64,
    mutations: AtomicU64,
    batch_flushes: AtomicU64,
    sheds: AtomicU64,
    delay_commits: AtomicU64,
    frame_errors: AtomicU64,
}

/// A snapshot of the serving counters, returned when the loop stops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Request frames decoded and dispatched.
    pub requests: u64,
    /// Read requests (catalog, query, stats) served from snapshots.
    pub queries: u64,
    /// Mutation requests admitted into batches.
    pub mutations: u64,
    /// Batch flushes (each is at most one group commit).
    pub batch_flushes: u64,
    /// Mutations refused under reclamation pressure.
    pub sheds: u64,
    /// Forced commits taken to pay down flush lag before admitting.
    pub delay_commits: u64,
    /// Connections dropped for framing violations.
    pub frame_errors: u64,
}

impl SharedStats {
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            mutations: self.mutations.load(Ordering::Relaxed),
            batch_flushes: self.batch_flushes.load(Ordering::Relaxed),
            sheds: self.sheds.load(Ordering::Relaxed),
            delay_commits: self.delay_commits.load(Ordering::Relaxed),
            frame_errors: self.frame_errors.load(Ordering::Relaxed),
        }
    }
}

/// Serves `rel` on `listener` until `stop` goes true, then drains and
/// returns the counters. Blocks the calling thread (which runs the
/// acceptor); see [`ServeHandle::spawn`] for the backgrounded form.
///
/// # Errors
///
/// Only listener-level failures surface here; per-connection errors are
/// handled by dropping the connection.
pub fn serve(
    rel: &DurableRelation,
    listener: TcpListener,
    config: &ServerConfig,
    stop: &AtomicBool,
) -> std::io::Result<ServerStats> {
    listener.set_nonblocking(true)?;
    let workers = config.workers.max(1);
    let stats = SharedStats::default();
    thread::scope(|scope| {
        let mut senders = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = mpsc::channel();
            senders.push(tx);
            let stats = &stats;
            thread::Builder::new()
                .name(format!("relic-serve-{w}"))
                .spawn_scoped(scope, move || worker_loop(rel, rx, config, stop, stats))
                .expect("spawn worker thread");
        }
        // Acceptor: round-robin new connections across workers.
        let mut next = 0usize;
        let mut backoff = IdleBackoff::new(config.idle_backoff);
        while !stop.load(Ordering::Acquire) {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    stats.connections.fetch_add(1, Ordering::Relaxed);
                    // A worker that exited takes its receiver with it;
                    // dropping the stream then refuses the connection.
                    let _ = senders[next % senders.len()].send(stream);
                    next = next.wrapping_add(1);
                    backoff.reset();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => backoff.sleep(),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    // Listener failure: signal workers down and surface it.
                    stop.store(true, Ordering::Release);
                    return Err(e);
                }
            }
        }
        drop(senders);
        Ok(())
    })?;
    Ok(stats.snapshot())
}

/// Adaptive idle backoff: spin (yielding) for [`IdleBackoff::SPIN`] after
/// the last progress, then sleep in doubling steps up to the configured
/// ceiling. Any progress resets it.
///
/// The spin phase is a duration, not a count of idle scans, because an
/// idle scan costs only a few microseconds: a count of them can end before
/// a window-1 client's next request arrives, and the first sleep then adds
/// 50 µs or more to that client's round trip.
struct IdleBackoff {
    ceiling: Duration,
    current: Duration,
    idle_since: Option<Instant>,
}

impl IdleBackoff {
    /// How long an idle loop keeps yielding before its first sleep.
    const SPIN: Duration = Duration::from_micros(100);
    const FIRST_SLEEP: Duration = Duration::from_micros(50);

    fn new(ceiling: Duration) -> IdleBackoff {
        IdleBackoff {
            ceiling,
            current: IdleBackoff::FIRST_SLEEP,
            idle_since: None,
        }
    }

    fn reset(&mut self) {
        self.current = IdleBackoff::FIRST_SLEEP;
        self.idle_since = None;
    }

    fn sleep(&mut self) {
        if self.idle_since.get_or_insert_with(Instant::now).elapsed() < IdleBackoff::SPIN {
            thread::yield_now();
            return;
        }
        thread::sleep(self.current);
        self.current = (self.current * 2).min(self.ceiling.max(IdleBackoff::FIRST_SLEEP));
    }
}

fn worker_loop(
    rel: &DurableRelation,
    rx: mpsc::Receiver<std::net::TcpStream>,
    config: &ServerConfig,
    stop: &AtomicBool,
    stats: &SharedStats,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut reads = Reads {
        handle: rel.read_handle(),
        scratch: Bindings::new(),
        rows: FlatRows::new(),
    };
    let mut batch = MutationBatch::default();
    let mut backoff = IdleBackoff::new(config.idle_backoff);
    let budget = config.max_requests_per_scan.max(1);
    loop {
        let stopping = stop.load(Ordering::Acquire);
        // Adopt new connections (unless shutting down).
        if !stopping {
            while let Ok(stream) = rx.try_recv() {
                if let Ok(c) = Conn::new(stream) {
                    conns.push(c);
                }
            }
        }
        let mut progress = false;
        for i in 0..conns.len() {
            match conns[i].read_pass() {
                ReadPass::Data => progress = true,
                ReadPass::Empty => {}
                ReadPass::Closed => continue,
            }
            let mut served = 0;
            while served < budget {
                let frame = match conns[i].next_frame() {
                    Ok(Some(f)) => f,
                    Ok(None) => break,
                    Err(e) => {
                        // Framing violation: the stream is desynced.
                        // Answer once, stop reading, close after drain.
                        stats.frame_errors.fetch_add(1, Ordering::Relaxed);
                        conns[i].push_response(&NetResponse::Err {
                            message: format!("framing error: {e}"),
                        });
                        conns[i].corrupt = true;
                        break;
                    }
                };
                served += 1;
                progress = true;
                stats.requests.fetch_add(1, Ordering::Relaxed);
                match NetRequest::decode(&frame) {
                    Ok(req) => dispatch(
                        req, i, rel, &mut reads, &mut batch, &mut conns, config, stats,
                    ),
                    Err(e) => {
                        // The frame passed its checksum, so the stream is
                        // still in sync — answer and keep going.
                        conns[i].push_response(&NetResponse::Err {
                            message: format!("bad request: {e}"),
                        });
                    }
                }
            }
        }
        if !batch.is_empty() {
            flush_batch(rel, &mut batch, &mut conns, stats);
            progress = true;
        }
        for c in &mut conns {
            if c.flush_writes() {
                progress = true;
            }
        }
        conns.retain(|c| !c.reapable());
        // Keep this worker's own reader pins current: an idle handle
        // would otherwise pin retired epochs indefinitely and read as
        // reclamation pressure to admission control on other workers.
        let _ = reads.handle.view();
        if stopping && conns.iter().all(|c| !c.has_backlog()) {
            break;
        }
        if progress {
            backoff.reset();
        } else {
            backoff.sleep();
        }
    }
}

/// What a worker answers reads with: its freshness cursor over the
/// published snapshots, plus the scratch accumulator and the row collector
/// every query reuses.
struct Reads<'a> {
    handle: ReadHandle<'a>,
    scratch: Bindings,
    rows: FlatRows,
}

/// Flushes the worker's mutation batch and routes the acks back onto
/// their connections, in order.
fn flush_batch(
    rel: &DurableRelation,
    batch: &mut MutationBatch,
    conns: &mut [Conn],
    stats: &SharedStats,
) {
    stats.batch_flushes.fetch_add(1, Ordering::Relaxed);
    for (conn, resp) in batch.flush(rel) {
        conns[conn].push_response(&resp);
    }
}

#[allow(clippy::too_many_arguments)]
fn dispatch(
    req: NetRequest,
    i: usize,
    rel: &DurableRelation,
    reads: &mut Reads<'_>,
    batch: &mut MutationBatch,
    conns: &mut [Conn],
    config: &ServerConfig,
    stats: &SharedStats,
) {
    match req {
        NetRequest::Catalog => {
            stats.queries.fetch_add(1, Ordering::Relaxed);
            conns[i].push_response(&NetResponse::Catalog {
                catalog: rel.catalog().clone(),
                spec: rel.spec().clone(),
            });
        }
        NetRequest::Query { pattern, out } => {
            stats.queries.fetch_add(1, Ordering::Relaxed);
            // Read-your-writes: apply this connection's queued mutations
            // before answering its read.
            if batch.conn_has_pending(i) {
                flush_batch(rel, batch, conns, stats);
            }
            let out = effective_out(rel, out);
            let Reads {
                handle,
                scratch,
                rows,
            } = reads;
            conns[i].push_rows(rows, |rows| {
                handle
                    .fresh_for(|c| pattern.get(c))
                    .query_for_each_bindings(scratch, &pattern, out, |b| rows.push(b, out))
            });
        }
        NetRequest::QueryWhere { pattern, out } => {
            stats.queries.fetch_add(1, Ordering::Relaxed);
            if batch.conn_has_pending(i) {
                flush_batch(rel, batch, conns, stats);
            }
            // Untrusted concrete syntax, parsed by the hardened
            // `parse_pattern` (typed errors, no panics).
            match parse_pattern(rel.catalog(), &pattern) {
                Ok(p) => {
                    let out = effective_out(rel, out);
                    let Reads {
                        handle,
                        scratch,
                        rows,
                    } = reads;
                    conns[i].push_rows(rows, |rows| {
                        handle
                            .fresh_for(|c| p.pred(c)?.as_eq())
                            .query_where_for_each_bindings(scratch, &p, out, |b| rows.push(b, out))
                    });
                }
                Err(e) => conns[i].push_response(&NetResponse::Err {
                    message: e.to_string(),
                }),
            }
        }
        NetRequest::Insert { tuple } => {
            admit_mutation(Op::Insert(tuple), i, rel, batch, conns, config, stats);
        }
        NetRequest::Remove { pattern } => {
            admit_mutation(Op::Remove(pattern), i, rel, batch, conns, config, stats);
        }
        NetRequest::Apply(op) => admit_mutation(op, i, rel, batch, conns, config, stats),
        NetRequest::Commit => {
            // Everything this worker has queued rides the commit.
            if !batch.is_empty() {
                flush_batch(rel, batch, conns, stats);
            }
            let resp = match rel.commit() {
                Ok(seq) => NetResponse::Committed { seq },
                Err(e) => NetResponse::Err {
                    message: e.to_string(),
                },
            };
            conns[i].push_response(&resp);
        }
        NetRequest::Stats => {
            stats.queries.fetch_add(1, Ordering::Relaxed);
            let p = rel.relation().pressure();
            conns[i].push_response(&NetResponse::Stats(ServingStats {
                len: rel.len() as u64,
                wal_pending_bytes: rel.wal_pending_bytes() as u64,
                limbo_bytes: p.limbo_bytes as u64,
                pinned_epoch_lag: p.pinned_epoch_lag,
            }));
        }
    }
}

/// An empty projection set means "every column of the spec".
fn effective_out(rel: &DurableRelation, out: ColSet) -> ColSet {
    if out.is_empty() {
        rel.spec().cols()
    } else {
        out
    }
}

/// Runs admission control and either queues the mutation, queues it after
/// a forced commit (delay), or refuses it with `Busy` (shed).
fn admit_mutation(
    op: Op,
    i: usize,
    rel: &DurableRelation,
    batch: &mut MutationBatch,
    conns: &mut [Conn],
    config: &ServerConfig,
    stats: &SharedStats,
) {
    match config.admission.decide(rel) {
        Admission::Accept => {
            stats.mutations.fetch_add(1, Ordering::Relaxed);
            batch.push(i, op);
        }
        Admission::Delay => {
            // Pay down the flush lag first: apply what is queued and
            // force the commit, then admit.
            if !batch.is_empty() {
                flush_batch(rel, batch, conns, stats);
            }
            let _ = rel.commit();
            stats.delay_commits.fetch_add(1, Ordering::Relaxed);
            stats.mutations.fetch_add(1, Ordering::Relaxed);
            batch.push(i, op);
        }
        Admission::Shed { retry_ms } => {
            stats.sheds.fetch_add(1, Ordering::Relaxed);
            conns[i].push_response(&NetResponse::Busy { retry_ms });
        }
    }
}

/// A backgrounded server for tests, benches, and the ported scenarios:
/// binds an ephemeral (or given) address, runs [`serve`] on its own
/// thread, and stops on command or drop.
#[derive(Debug)]
pub struct ServeHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<thread::JoinHandle<std::io::Result<ServerStats>>>,
}

impl ServeHandle {
    /// Spawns a server for `rel` on `127.0.0.1:0` (an ephemeral port).
    ///
    /// # Errors
    ///
    /// Socket-level bind/spawn failures.
    pub fn spawn(rel: Arc<DurableRelation>, config: ServerConfig) -> std::io::Result<ServeHandle> {
        ServeHandle::spawn_on(rel, config, "127.0.0.1:0")
    }

    /// Spawns a server for `rel` bound to `addr`.
    ///
    /// # Errors
    ///
    /// Socket-level bind/spawn failures.
    pub fn spawn_on(
        rel: Arc<DurableRelation>,
        config: ServerConfig,
        addr: &str,
    ) -> std::io::Result<ServeHandle> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = thread::Builder::new()
            .name("relic-serve-acceptor".to_string())
            .spawn(move || serve(&rel, listener, &config, &stop2))?;
        Ok(ServeHandle {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals the server down, joins it, and returns its counters.
    ///
    /// # Errors
    ///
    /// A listener-level failure the serve loop died on.
    pub fn stop(mut self) -> std::io::Result<ServerStats> {
        self.stop.store(true, Ordering::Release);
        match self.thread.take().expect("stop is called once").join() {
            Ok(res) => res,
            Err(_) => Err(std::io::Error::other("server thread panicked")),
        }
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}
