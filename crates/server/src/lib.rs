//! `relic_server`: a synthesized relation on the network.
//!
//! A nonblocking, multi-worker serving front end for a
//! [`DurableRelation`](relic_persist::DurableRelation), speaking the length-prefixed, CRC-guarded framed
//! protocol of `relic_persist::frame` with the request/response payloads
//! of [`relic_core::netmsg`]. No async runtime and no platform bindings —
//! the build is offline and `std`-only — so the event loop is a
//! readiness-*scan* over nonblocking sockets rather than an epoll wait:
//! each worker owns a subset of the connections outright and polls them
//! round-robin with adaptive idle backoff (see [`server`]).
//!
//! The design carries the paper's division of labor onto the wire:
//!
//! * **Reads never touch a shard lock.** Each worker owns a
//!   [`ReadHandle`](relic_concurrent::ReadHandle) and serves queries from
//!   published snapshots, exactly like the in-process wait-free read path
//!   — a slow scan on one connection cannot block ingest on another.
//! * **Every write is one [`Op`](relic_core::Op), applied whole** through
//!   `DurableRelation::apply`, under one hold of every shard it touches.
//! * **Commits coalesce across connections.** A worker drains whole
//!   batches of pipelined mutation frames from *all* its connections
//!   before applying them, applies each op on its own, and group-commits
//!   the whole batch with **one fsync**, amortized across every
//!   connection that contributed ([`batch`]). Acknowledgements arrive per
//!   request, in order, each with its own op's count or refusal.
//! * **Admission control watches the write side's two lag gauges**
//!   ([`admission`]): the write-ahead log's unflushed bytes
//!   ([`DurableRelation::wal_pending_bytes`](relic_persist::DurableRelation::wal_pending_bytes)) and the epoch-reclamation
//!   pressure ([`relic_concurrent::MemoryPressure`]). Past the flush-lag
//!   threshold the worker forces a commit before accepting more frames
//!   (delay); past the reclamation thresholds it sheds new mutations with
//!   [`NetResponse::Busy`](relic_core::netmsg::NetResponse::Busy) rather
//!   than growing limbo it cannot drain.
//!
//! Per-connection ordering is strict: responses are written in request
//! order, and a query from a connection with batched-but-unapplied
//! mutations forces the batch to flush first, so every client reads its
//! own writes. Cross-connection visibility is that of the underlying
//! snapshots (a committed write becomes visible to other connections on
//! their next refreshed view).
//!
//! [`Client`] is the matching blocking client, with explicit pipelining
//! (`send` / `recv`) so drivers can keep many requests in flight on one
//! connection.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod batch;
pub mod client;
pub mod conn;
pub mod server;

pub use admission::{Admission, AdmissionConfig};
pub use client::Client;
pub use server::{serve, ServeHandle, ServerStats};

use relic_core::wire::WireError;
use relic_persist::PersistError;
use std::fmt;
use std::time::Duration;

/// When the server fsyncs. A vestige: the per-request comparison arm is
/// gone and nothing reads this, but the frozen `benchmark/` names the type,
/// the variant and [`ServerConfig::commit`] — kept until ROADMAP item 6
/// stops naming them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommitMode {
    /// Apply each op of a worker's drained batch on its own, then commit
    /// the whole batch with one fsync.
    #[default]
    Coalesced,
}

/// Serving configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads; each owns its connections and its own `ReadHandle`.
    pub workers: usize,
    /// Unused (see [`CommitMode`]).
    pub commit: CommitMode,
    /// Admission-control thresholds.
    pub admission: AdmissionConfig,
    /// Ceiling of the adaptive idle backoff: how long a worker with no
    /// readable connection sleeps before rescanning (it ramps up to this).
    pub idle_backoff: Duration,
    /// Most requests handled from one connection per scan before moving
    /// on — fairness under pipelining, so one fire-hose connection cannot
    /// starve its neighbors on the same worker.
    pub max_requests_per_scan: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            commit: CommitMode::Coalesced,
            admission: AdmissionConfig::default(),
            idle_backoff: Duration::from_millis(2),
            max_requests_per_scan: 64,
        }
    }
}

/// Client-side errors.
#[derive(Debug)]
pub enum ServerError {
    /// A socket-level failure.
    Io(std::io::Error),
    /// A frame failed its checksum, length cap, or payload decode.
    Wire(WireError),
    /// A framing-level refusal (oversized frame, corrupt stream).
    Persist(PersistError),
    /// The server reported a request failure.
    Remote(String),
    /// The server shed the request under admission control.
    Busy {
        /// Suggested backoff before retrying, in milliseconds.
        retry_ms: u32,
    },
    /// The server answered with a response kind the call did not expect.
    Protocol(String),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "serving I/O error: {e}"),
            ServerError::Wire(e) => write!(f, "serving decode error: {e}"),
            ServerError::Persist(e) => write!(f, "serving frame error: {e}"),
            ServerError::Remote(m) => write!(f, "server reported: {m}"),
            ServerError::Busy { retry_ms } => {
                write!(f, "server busy; retry in {retry_ms} ms")
            }
            ServerError::Protocol(m) => write!(f, "protocol violation: {m}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Io(e) => Some(e),
            ServerError::Wire(e) => Some(e),
            ServerError::Persist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e)
    }
}

impl From<WireError> for ServerError {
    fn from(e: WireError) -> Self {
        ServerError::Wire(e)
    }
}

impl From<PersistError> for ServerError {
    fn from(e: PersistError) -> Self {
        ServerError::Persist(e)
    }
}
