//! The §6.2 daemons put on the network: client/server flavours of IpCap
//! and the thttpd mmap cache.
//!
//! Every other flavour in this crate links the relation into the daemon's
//! own process. Here the relation lives behind `relic_server` and the
//! daemon becomes a *client*: it discovers the schema over the wire
//! ([`NetRequest::Catalog`](relic_core::netmsg::NetRequest::Catalog) —
//! no out-of-band column agreement), and every lookup, accumulation and
//! sweep rides the framed protocol. The observable behaviour must be
//! *identical* to the in-process baselines — the parity tests drive the
//! same deterministic workloads through
//! [`BaselineFlows`](crate::ipcap::BaselineFlows) and [`ServedFlows`]
//! (resp. [`BaselineMmapCache`](crate::thttpd::BaselineMmapCache) /
//! [`ServedMmapCache`])
//! and compare outputs exactly — which is the paper's substitution claim
//! extended across a process boundary.
//!
//! Mutations issued by these clients are admission-controlled: a
//! [`ServerError::Busy`] shed is retried after the server's hinted
//! backoff, so a pressured server degrades daemon throughput instead of
//! daemon correctness.

use crate::ipcap::default_decomposition as flow_decomposition;
use crate::ipcap::{flow_spec, FlowCols, FlowRecord, Packet};
use crate::thttpd::default_decomposition as mmap_decomposition;
use crate::thttpd::{mmap_spec, MmapCols, Outcome, Request};
use relic_core::Op;
use relic_persist::{DurableRelation, GroupCommitPolicy, PersistError};
use relic_server::{Client, ServeHandle, ServerConfig, ServerError};
use relic_spec::{ColSet, Pattern, Pred, Tuple, Value};
use std::path::Path;
use std::sync::Arc;

/// Creates a fresh durable flow table in `dir` and serves it.
///
/// # Errors
///
/// [`PersistError`] from creating the relation (socket failures surface
/// as its `Io` variant).
pub fn spawn_flow_server(
    dir: &Path,
    shards: usize,
    config: ServerConfig,
) -> Result<ServeHandle, PersistError> {
    let (mut cat, cols, spec) = flow_spec();
    let d = flow_decomposition(&mut cat);
    let rel = DurableRelation::create(
        dir,
        &cat,
        spec,
        d,
        cols.local.set(),
        shards,
        true,
        GroupCommitPolicy::manual(),
    )?;
    ServeHandle::spawn(Arc::new(rel), config).map_err(PersistError::Io)
}

/// Creates a fresh durable mmap-cache relation in `dir` and serves it.
///
/// # Errors
///
/// As for [`spawn_flow_server`].
pub fn spawn_mmap_server(
    dir: &Path,
    shards: usize,
    config: ServerConfig,
) -> Result<ServeHandle, PersistError> {
    let (mut cat, cols, spec) = mmap_spec();
    let d = mmap_decomposition(&mut cat);
    let rel = DurableRelation::create(
        dir,
        &cat,
        spec,
        d,
        cols.path.set(),
        shards,
        true,
        GroupCommitPolicy::manual(),
    )?;
    ServeHandle::spawn(Arc::new(rel), config).map_err(PersistError::Io)
}

/// Retries a mutation through admission-control sheds: on
/// [`ServerError::Busy`], sleeps the server's hinted backoff and tries
/// again. Every other error propagates.
fn with_busy_retry<T>(mut op: impl FnMut() -> Result<T, ServerError>) -> Result<T, ServerError> {
    loop {
        match op() {
            Err(ServerError::Busy { retry_ms }) => {
                std::thread::sleep(std::time::Duration::from_millis(u64::from(retry_ms.max(1))));
            }
            other => return other,
        }
    }
}

// ---------------------------------------------------------------------------
// IpCap over the wire.
// ---------------------------------------------------------------------------

/// The flow-accounting daemon as a network client: the same observable
/// behaviour as [`BaselineFlows`](crate::ipcap::BaselineFlows), with the
/// flow relation living behind a `relic_server`.
#[derive(Debug)]
pub struct ServedFlows {
    client: Client,
    cols: FlowCols,
}

impl ServedFlows {
    /// Connects to a flow server and resolves the flow columns from the
    /// schema it advertises.
    ///
    /// # Errors
    ///
    /// Connection failures, or a served catalog missing a flow column.
    pub fn connect(addr: std::net::SocketAddr) -> Result<ServedFlows, ServerError> {
        let mut client = Client::connect(addr)?;
        let (cat, _spec) = client.catalog()?;
        let col = |name: &str| {
            cat.col(name)
                .ok_or_else(|| ServerError::Protocol(format!("served catalog lacks `{name}`")))
        };
        let cols = FlowCols {
            local: col("local")?,
            remote: col("remote")?,
            bytes: col("bytes")?,
            pkts: col("pkts")?,
        };
        Ok(ServedFlows { client, cols })
    }

    /// Accounts one packet: a remote lookup plus a remote update (or
    /// plain insert) of the accumulated flow.
    ///
    /// # Errors
    ///
    /// Transport or server-side relational failures.
    pub fn account(&mut self, (l, r, len): Packet) -> Result<(), ServerError> {
        let cols = self.cols;
        let key = Tuple::from_pairs([(cols.local, Value::from(l)), (cols.remote, Value::from(r))]);
        let existing = self.client.query(key.clone(), cols.bytes | cols.pkts)?;
        let (bytes, pkts) = match existing.first() {
            Some(t) => {
                let b = t.get(cols.bytes).and_then(Value::as_int).ok_or_else(|| {
                    ServerError::Protocol("flow row lost its `bytes` integer".to_string())
                })?;
                let k = t.get(cols.pkts).and_then(Value::as_int).ok_or_else(|| {
                    ServerError::Protocol("flow row lost its `pkts` integer".to_string())
                })?;
                (b + len, k + 1)
            }
            None => (len, 1),
        };
        let counters = Tuple::from_pairs([
            (cols.bytes, Value::from(bytes)),
            (cols.pkts, Value::from(pkts)),
        ]);
        let op = match existing.first() {
            Some(_) => Op::Update {
                pattern: key,
                changes: counters,
            },
            None => Op::Insert(key.merge(&counters)),
        };
        with_busy_retry(|| self.client.apply(op.clone()))?;
        Ok(())
    }

    /// Logs and removes all flows, returning them sorted — the remote
    /// flush, group-committed on the server before it returns.
    ///
    /// # Errors
    ///
    /// Transport or server-side failures.
    pub fn flush(&mut self) -> Result<Vec<FlowRecord>, ServerError> {
        let cols = self.cols;
        let all = self.client.query(Tuple::empty(), ColSet::empty())?;
        let mut out = Vec::with_capacity(all.len());
        for t in &all {
            let int = |c| {
                t.get(c).and_then(Value::as_int).ok_or_else(|| {
                    ServerError::Protocol("flow row lost an integer column".to_string())
                })
            };
            out.push(FlowRecord {
                local: int(cols.local)?,
                remote: int(cols.remote)?,
                bytes: int(cols.bytes)?,
                pkts: int(cols.pkts)?,
            });
        }
        out.sort();
        with_busy_retry(|| self.client.apply(Op::Remove(Tuple::empty())))?;
        self.client.commit()?;
        Ok(out)
    }

    /// Number of live flows, per the server's published state.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn live_flows(&mut self) -> Result<usize, ServerError> {
        Ok(self.client.stats()?.len as usize)
    }
}

/// Runs a packet trace through a served flow table, flushing every
/// `flush_every` packets — the network twin of
/// [`run_accounting`](crate::ipcap::run_accounting).
///
/// # Errors
///
/// The first transport or server-side failure; accounting stops there.
pub fn run_served_accounting(
    flows: &mut ServedFlows,
    trace: &[Packet],
    flush_every: usize,
) -> Result<Vec<FlowRecord>, ServerError> {
    let mut log = Vec::new();
    for (i, p) in trace.iter().enumerate() {
        flows.account(*p)?;
        if flush_every > 0 && (i + 1) % flush_every == 0 {
            log.extend(flows.flush()?);
        }
    }
    log.extend(flows.flush()?);
    Ok(log)
}

// ---------------------------------------------------------------------------
// thttpd over the wire.
// ---------------------------------------------------------------------------

/// The mmap cache as a network client: behaviourally identical to
/// [`BaselineMmapCache`](crate::thttpd::BaselineMmapCache), with the
/// mapping relation served remotely. The address allocator stays
/// client-side, exactly where the original daemon kept it.
#[derive(Debug)]
pub struct ServedMmapCache {
    client: Client,
    cols: MmapCols,
    next_addr: i64,
}

impl ServedMmapCache {
    /// Connects to an mmap-cache server and resolves the mapping columns
    /// from the schema it advertises.
    ///
    /// # Errors
    ///
    /// Connection failures, or a served catalog missing a column.
    pub fn connect(addr: std::net::SocketAddr) -> Result<ServedMmapCache, ServerError> {
        let mut client = Client::connect(addr)?;
        let (cat, _spec) = client.catalog()?;
        let col = |name: &str| {
            cat.col(name)
                .ok_or_else(|| ServerError::Protocol(format!("served catalog lacks `{name}`")))
        };
        let cols = MmapCols {
            path: col("path")?,
            addr: col("addr")?,
            size: col("size")?,
            stamp: col("stamp")?,
        };
        Ok(ServedMmapCache {
            client,
            cols,
            next_addr: 0,
        })
    }

    /// Serves one request remotely, returning hit/miss. A hit refreshes
    /// the stamp (a remote update, preserving `addr`/`size`); a miss
    /// allocates an address locally and inserts the new mapping.
    ///
    /// # Errors
    ///
    /// Transport or server-side failures.
    pub fn serve(&mut self, req: &Request) -> Result<Outcome, ServerError> {
        let cols = self.cols;
        let key = Tuple::from_pairs([(cols.path, Value::from(req.path.as_str()))]);
        let stamp = Tuple::from_pairs([(cols.stamp, Value::from(req.now))]);
        let refresh = Op::Update {
            pattern: key.clone(),
            changes: stamp,
        };
        if with_busy_retry(|| self.client.apply(refresh.clone()))? == 1 {
            return Ok(Outcome::Hit);
        }
        self.next_addr += 4096;
        let size = 1024 + (req.path.len() as i64) * 7;
        let row = key.merge(&Tuple::from_pairs([
            (cols.addr, Value::from(self.next_addr)),
            (cols.size, Value::from(size)),
            (cols.stamp, Value::from(req.now)),
        ]));
        with_busy_retry(|| self.client.insert(row.clone()))?;
        Ok(Outcome::Miss)
    }

    /// Removes mappings with `stamp < cutoff`, returning how many were
    /// unmapped: one predicate removal, applied atomically on the server.
    ///
    /// # Errors
    ///
    /// Transport or server-side failures.
    pub fn cleanup(&mut self, cutoff: i64) -> Result<usize, ServerError> {
        let stale = Pattern::new().with(self.cols.stamp, Pred::Lt(Value::from(cutoff)));
        let unmapped = with_busy_retry(|| self.client.apply(Op::RemoveWhere(stale.clone())))?;
        self.client.commit()?;
        Ok(unmapped as usize)
    }

    /// Number of live mappings, per the server's published state.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn live(&mut self) -> Result<usize, ServerError> {
        Ok(self.client.stats()?.len as usize)
    }
}

/// Drives a request stream with periodic cleanups through a served cache
/// — the network twin of [`run_cache`](crate::thttpd::run_cache).
///
/// # Errors
///
/// The first transport or server-side failure; serving stops there.
pub fn run_served_cache(
    cache: &mut ServedMmapCache,
    reqs: &[Request],
    sweep_every: usize,
    max_age: i64,
) -> Result<(Vec<Outcome>, usize), ServerError> {
    let mut outcomes = Vec::with_capacity(reqs.len());
    let mut unmapped = 0;
    for (i, r) in reqs.iter().enumerate() {
        outcomes.push(cache.serve(r)?);
        if sweep_every > 0 && (i + 1) % sweep_every == 0 {
            unmapped += cache.cleanup(r.now - max_age)?;
        }
    }
    Ok((outcomes, unmapped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipcap::{packet_trace, run_accounting, BaselineFlows};
    use crate::thttpd::{request_stream, run_cache, BaselineMmapCache, MmapCache};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static CASE: AtomicUsize = AtomicUsize::new(0);

    fn case_dir(tag: &str) -> PathBuf {
        let n = CASE.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("relic_served_{tag}_{}_{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn served_ipcap_matches_the_baseline_exactly() {
        let dir = case_dir("ipcap");
        let server = spawn_flow_server(&dir, 4, ServerConfig::default()).unwrap();
        let trace = packet_trace(600, 12, 24, 0xC0FFEE);

        let mut baseline = BaselineFlows::new();
        let want = run_accounting(&mut baseline, &trace, 150).unwrap();

        let mut served = ServedFlows::connect(server.addr()).unwrap();
        let got = run_served_accounting(&mut served, &trace, 150).unwrap();

        assert_eq!(got, want, "served accounting diverged from the baseline");
        assert_eq!(served.live_flows().unwrap(), 0, "final flush left flows");
        server.stop().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn served_thttpd_matches_the_baseline_exactly() {
        let dir = case_dir("thttpd");
        let server = spawn_mmap_server(&dir, 4, ServerConfig::default()).unwrap();
        let reqs = request_stream(400, 60, 0xBEEF);

        let mut baseline = BaselineMmapCache::new();
        let (want_outcomes, want_unmapped) = run_cache(&mut baseline, &reqs, 100, 40);

        let mut served = ServedMmapCache::connect(server.addr()).unwrap();
        let (got_outcomes, got_unmapped) = run_served_cache(&mut served, &reqs, 100, 40).unwrap();

        assert_eq!(got_outcomes, want_outcomes, "hit/miss streams diverged");
        assert_eq!(got_unmapped, want_unmapped, "sweep counts diverged");
        assert_eq!(
            served.live().unwrap(),
            baseline.live(),
            "live mapping counts diverged"
        );
        server.stop().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn served_accounting_survives_server_restart() {
        // Committed accounting outlives the serving process: stop the
        // server mid-trace, reopen the same directory, keep accounting.
        let dir = case_dir("restart");
        let trace = packet_trace(300, 8, 16, 0xD00D);
        let (first, rest) = trace.split_at(150);

        let server = spawn_flow_server(&dir, 2, ServerConfig::default()).unwrap();
        let mut served = ServedFlows::connect(server.addr()).unwrap();
        for p in first {
            served.account(*p).unwrap();
        }
        // Commit (not flush): flows stay live, durably.
        served.client.commit().unwrap();
        drop(served);
        server.stop().unwrap();

        // Reopen the same state and serve it again.
        let rel = DurableRelation::open(&dir, GroupCommitPolicy::manual()).unwrap();
        let server = ServeHandle::spawn(Arc::new(rel), ServerConfig::default()).unwrap();
        let mut served = ServedFlows::connect(server.addr()).unwrap();
        for p in rest {
            served.account(*p).unwrap();
        }
        let got = served.flush().unwrap();

        let mut baseline = BaselineFlows::new();
        let want = run_accounting(&mut baseline, &trace, 0).unwrap();
        assert_eq!(got, want, "restarted served accounting diverged");
        server.stop().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
