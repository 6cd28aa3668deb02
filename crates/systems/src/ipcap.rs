//! The IpCap flow-accounting daemon (§6.2, Fig. 13).
//!
//! IpCap counts bytes per network flow on a gateway: for every packet it
//! looks up the flow `(local, remote)` and either creates an entry or
//! increments its byte/packet counters; periodically it iterates all flows,
//! logs them, and removes the flushed entries.
//!
//! The flow table is the relation
//! `flows⟨local, remote, bytes, pkts⟩` with `local, remote → bytes, pkts`.
//!
//! [`BaselineFlows`] is the hand-coded original (open-coded hash map);
//! [`SynthFlows`] delegates to a [`SynthRelation`]. Figure 13 ranks all
//! decompositions of the flow relation on the same packet trace.

use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relic_concurrent::{ConcurrentBuildError, ConcurrentRelation, ReadHandle, ReadView};
use relic_core::{Bindings, OpError, RelRead, SynthRelation};
use relic_decomp::Decomposition;
use relic_persist::{DurableRelation, GroupCommitPolicy, PersistError};
use relic_spec::{Catalog, ColId, RelSpec, Tuple, Value};
use std::collections::HashMap;

/// A packet: `(local host, remote host, length in bytes)`.
pub type Packet = (i64, i64, i64);

/// Generates a deterministic Zipf-skewed packet trace over `locals × remotes`
/// host pairs.
pub fn packet_trace(packets: usize, locals: usize, remotes: usize, seed: u64) -> Vec<Packet> {
    let mut zl = Zipf::new(locals, 1.1, seed);
    let mut zr = Zipf::new(remotes, 1.1, seed.wrapping_add(1));
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(2));
    (0..packets)
        .map(|_| {
            (
                zl.sample() as i64,
                zr.sample() as i64,
                rng.gen_range(40..=1500),
            )
        })
        .collect()
}

/// One accumulated flow record, as written to the log on flush.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FlowRecord {
    /// Local host id.
    pub local: i64,
    /// Remote host id.
    pub remote: i64,
    /// Accumulated bytes.
    pub bytes: i64,
    /// Accumulated packets.
    pub pkts: i64,
}

/// The flow-store interface both implementations provide.
///
/// The hot-path operations are fallible: the synthesized store runs real
/// relational operations underneath, and a daemon must surface their errors
/// through its run/step API rather than aborting mid-trace (the baseline
/// simply never fails).
pub trait FlowStore {
    /// Accounts one packet.
    ///
    /// # Errors
    ///
    /// Any relational-operation failure of the underlying store.
    fn account(&mut self, p: Packet) -> Result<(), OpError>;
    /// Logs and removes all flows, returning them sorted (deterministic).
    ///
    /// # Errors
    ///
    /// As for [`account`](FlowStore::account).
    fn flush(&mut self) -> Result<Vec<FlowRecord>, OpError>;
    /// Number of live flows.
    fn live_flows(&self) -> usize;
}

/// Runs a trace through a store, flushing every `flush_every` packets;
/// returns all flushed records in order. This is the §6.2 daemon loop.
///
/// # Errors
///
/// The first error any step reports; accounting stops there (the §6.2
/// daemon would log and drop the table — the caller decides).
pub fn run_accounting<S: FlowStore>(
    store: &mut S,
    trace: &[Packet],
    flush_every: usize,
) -> Result<Vec<FlowRecord>, OpError> {
    let mut log = Vec::new();
    for (i, p) in trace.iter().enumerate() {
        store.account(*p)?;
        if flush_every > 0 && (i + 1) % flush_every == 0 {
            log.extend(store.flush()?);
        }
    }
    log.extend(store.flush()?);
    Ok(log)
}

// ---------------------------------------------------------------------------
// Baseline: the hand-coded flow table, as in the original C daemon.
// ---------------------------------------------------------------------------

// [baseline:begin]
/// Hand-coded flow table: one hash map keyed by `(local, remote)`.
#[derive(Debug, Default)]
pub struct BaselineFlows {
    table: HashMap<(i64, i64), (i64, i64)>,
}

impl BaselineFlows {
    /// Creates an empty table.
    pub fn new() -> Self {
        BaselineFlows::default()
    }
}

impl FlowStore for BaselineFlows {
    fn account(&mut self, (l, r, len): Packet) -> Result<(), OpError> {
        let e = self.table.entry((l, r)).or_insert((0, 0));
        e.0 += len;
        e.1 += 1;
        Ok(())
    }

    fn flush(&mut self) -> Result<Vec<FlowRecord>, OpError> {
        let mut out: Vec<FlowRecord> = self
            .table
            .drain()
            .map(|((local, remote), (bytes, pkts))| FlowRecord {
                local,
                remote,
                bytes,
                pkts,
            })
            .collect();
        out.sort();
        Ok(out)
    }

    fn live_flows(&self) -> usize {
        self.table.len()
    }
}
// [baseline:end]

// ---------------------------------------------------------------------------
// Synthesized: the flow table as a relation + decomposition.
// ---------------------------------------------------------------------------

/// Column handles for the flow relation.
#[derive(Debug, Clone, Copy)]
pub struct FlowCols {
    /// Local host id.
    pub local: ColId,
    /// Remote host id.
    pub remote: ColId,
    /// Accumulated bytes.
    pub bytes: ColId,
    /// Accumulated packets.
    pub pkts: ColId,
}

/// Creates the flow relation's catalog, columns and specification.
pub fn flow_spec() -> (Catalog, FlowCols, RelSpec) {
    let mut cat = Catalog::new();
    let cols = FlowCols {
        local: cat.intern("local"),
        remote: cat.intern("remote"),
        bytes: cat.intern("bytes"),
        pkts: cat.intern("pkts"),
    };
    let spec = RelSpec::new(cols.local | cols.remote | cols.bytes | cols.pkts)
        .with_fd(cols.local | cols.remote, cols.bytes | cols.pkts);
    (cat, cols, spec)
}

/// Column handles for the address-metadata relation.
///
/// The gateway's side table: who owns each local host and which service
/// tier it belongs to — `addrs⟨local, owner, tier⟩` with `local → owner,
/// tier`. Joining it against the flow table (on the shared `local`
/// column) is the canonical multi-relation query of the shell demo:
/// "bytes per owner", "flows of tier-0 hosts", and so on.
#[derive(Debug, Clone, Copy)]
pub struct AddrCols {
    /// Local host id (the join column with the flow relation).
    pub local: ColId,
    /// Owning team name.
    pub owner: ColId,
    /// Service tier (0 = most critical).
    pub tier: ColId,
}

/// Creates the address-metadata relation's catalog, columns and
/// specification.
pub fn addr_spec() -> (Catalog, AddrCols, RelSpec) {
    let mut cat = Catalog::new();
    let cols = AddrCols {
        local: cat.intern("local"),
        owner: cat.intern("owner"),
        tier: cat.intern("tier"),
    };
    let spec = RelSpec::new(cols.local | cols.owner | cols.tier)
        .with_fd(cols.local.set(), cols.owner | cols.tier);
    (cat, cols, spec)
}

/// Renders an accounted packet trace as a TSV flow table (`local remote
/// bytes pkts` header + one row per flow, sorted) — the `load`-able input
/// of the relational shell's join demo.
pub fn flows_tsv(trace: &[Packet]) -> String {
    let mut base = BaselineFlows::new();
    for p in trace {
        base.account(*p).expect("baseline accounting never fails");
    }
    let mut flows: Vec<FlowRecord> = base
        .table
        .iter()
        .map(|(&(local, remote), &(bytes, pkts))| FlowRecord {
            local,
            remote,
            bytes,
            pkts,
        })
        .collect();
    flows.sort();
    let mut out = String::from("local\tremote\tbytes\tpkts\n");
    for f in flows {
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\n",
            f.local, f.remote, f.bytes, f.pkts
        ));
    }
    out
}

/// Renders deterministic address metadata for local hosts `0..locals` as a
/// TSV table (`local owner tier`): hosts rotate through four owning teams
/// and three service tiers.
pub fn addrs_tsv(locals: usize) -> String {
    let mut out = String::from("local\towner\ttier\n");
    for h in 0..locals as i64 {
        out.push_str(&format!("{}\tteam-{}\t{}\n", h, h % 4, h % 3));
    }
    out
}

/// The default decomposition: hash locals, then hash remotes per local —
/// the shape the paper found best ("a binary tree mapping local hosts to
/// hash-tables of foreign hosts"; we default both levels to hash tables and
/// let Fig. 13 sweep the alternatives).
pub fn default_decomposition(cat: &mut Catalog) -> Decomposition {
    relic_decomp::parse(
        cat,
        "let w : {local,remote} . {bytes,pkts} = unit {bytes,pkts} in
         let y : {local} . {remote,bytes,pkts} = {remote} -[htable]-> w in
         let x : {} . {local,remote,bytes,pkts} = {local} -[avl]-> y in x",
    )
    .expect("default decomposition parses")
}

/// Decodes one stored row — read column by column through `get`, so a
/// [`Tuple`] and a scan's [`Bindings`] both serve — into a [`FlowRecord`],
/// surfacing a typed [`OpError::MalformedRow`] (instead of panicking) if any
/// accounting column lost its integer shape.
fn flow_record<'a>(
    cols: &FlowCols,
    get: impl Fn(ColId) -> Option<&'a Value>,
) -> Result<FlowRecord, OpError> {
    let int = |col: ColId| {
        get(col)
            .and_then(Value::as_int)
            .ok_or(OpError::MalformedRow { col })
    };
    Ok(FlowRecord {
        local: int(cols.local)?,
        remote: int(cols.remote)?,
        bytes: int(cols.bytes)?,
        pkts: int(cols.pkts)?,
    })
}

/// The `(bytes, pkts)` counters of one stored flow row, or a typed
/// [`OpError::MalformedRow`] naming the column that lost its integer shape.
fn counters(cols: &FlowCols, t: &Tuple) -> Result<(i64, i64), OpError> {
    let int = |col: ColId| {
        t.get(col)
            .and_then(Value::as_int)
            .ok_or(OpError::MalformedRow { col })
    };
    Ok((int(cols.bytes)?, int(cols.pkts)?))
}

/// Every flow `view` holds, sorted: one streaming pass over the pinned
/// snapshots ([`ReadView::scan_all`]), decoding each emitted valuation in
/// place. A row with a malformed accounting value is skipped rather than
/// taking the dashboard down; every well-formed flow is still reported.
fn report_view(view: &ReadView, cols: &FlowCols) -> Vec<FlowRecord> {
    let mut out = Vec::with_capacity(view.len());
    // The scan reads the relation's own columns, which an adequate
    // decomposition always has a plan for, so it has no way to fail here;
    // were it to, the report would come back short rather than panic.
    let _ = view.scan_all(&mut Bindings::new(), |b| {
        out.extend(flow_record(cols, |c| b.get(c)).ok());
    });
    out.sort();
    out
}

// [synth:begin]
/// The synthesized flow table.
///
/// A packet is the paper's pair of calls — a keyed `query` for the flow's
/// counters, then an `update` (or an `insert` for a new flow) — made with
/// buffers the table keeps: one scratch accumulator the reads stream
/// through, and a key and a change tuple whose values are re-set per
/// packet. On a live flow that costs no allocation.
#[derive(Debug)]
pub struct SynthFlows {
    rel: SynthRelation,
    cols: FlowCols,
    scratch: Bindings,
    /// `(local, remote)` of the packet being accounted.
    key: Tuple,
    /// `(bytes, pkts)` written back to a live flow.
    changes: Tuple,
}

impl SynthFlows {
    /// Creates a flow table over any adequate decomposition of the flow
    /// relation.
    ///
    /// # Errors
    ///
    /// Propagates adequacy failures.
    pub fn new(
        cat: &Catalog,
        cols: FlowCols,
        spec: &RelSpec,
        d: Decomposition,
    ) -> Result<Self, relic_core::BuildError> {
        let mut rel = SynthRelation::new(cat, spec.clone(), d)?;
        rel.set_fd_checking(false);
        let zeros =
            |a: ColId, b: ColId| Tuple::from_pairs([(a, Value::from(0)), (b, Value::from(0))]);
        Ok(SynthFlows {
            rel,
            cols,
            scratch: Bindings::new(),
            key: zeros(cols.local, cols.remote),
            changes: zeros(cols.bytes, cols.pkts),
        })
    }

    /// Access to the underlying relation (for validation in tests).
    pub fn relation(&self) -> &SynthRelation {
        &self.rel
    }

    /// Restores flushed flow records into the table — the daemon's
    /// restart-from-log path — as one bulk load instead of one insert walk
    /// per flow. Returns the number of flows restored.
    ///
    /// # Errors
    ///
    /// As for [`SynthRelation::bulk_load`] (e.g. two records for one flow).
    pub fn preload<'a, I: IntoIterator<Item = &'a FlowRecord>>(
        &mut self,
        records: I,
    ) -> Result<usize, relic_core::OpError> {
        let cols = self.cols;
        let batch: Vec<Tuple> = records
            .into_iter()
            .map(|f| {
                Tuple::from_pairs([
                    (cols.local, Value::from(f.local)),
                    (cols.remote, Value::from(f.remote)),
                    (cols.bytes, Value::from(f.bytes)),
                    (cols.pkts, Value::from(f.pkts)),
                ])
            })
            .collect();
        self.rel.bulk_load(batch)
    }
}

impl FlowStore for SynthFlows {
    fn account(&mut self, (l, r, len): Packet) -> Result<(), OpError> {
        let cols = self.cols;
        self.key.set(cols.local, Value::from(l));
        self.key.set(cols.remote, Value::from(r));
        let mut found = None;
        self.rel.query_for_each_bindings(
            &mut self.scratch,
            &self.key,
            cols.bytes | cols.pkts,
            |b| {
                found = Some(flow_record(&cols, |c| b.get(c)));
            },
        )?;
        match found {
            Some(flow) => {
                let flow = flow?;
                self.changes.set(cols.bytes, Value::from(flow.bytes + len));
                self.changes.set(cols.pkts, Value::from(flow.pkts + 1));
                self.rel.update(&self.key, &self.changes)?;
            }
            None => {
                self.rel.insert(self.key.merge(&Tuple::from_pairs([
                    (cols.bytes, Value::from(len)),
                    (cols.pkts, Value::from(1)),
                ])))?;
            }
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<Vec<FlowRecord>, OpError> {
        let cols = self.cols;
        let mut out = Vec::with_capacity(self.rel.len());
        let mut malformed = None;
        let all = self.rel.spec().cols();
        self.rel
            .query_for_each_bindings(
                &mut self.scratch,
                &Tuple::empty(),
                all,
                |b| match flow_record(&cols, |c| b.get(c)) {
                    Ok(flow) => out.push(flow),
                    Err(e) => {
                        malformed.get_or_insert(e);
                    }
                },
            )?;
        if let Some(e) = malformed {
            return Err(e);
        }
        // A scan may meet a flow once per path that reaches it.
        out.sort_unstable();
        out.dedup();
        self.rel.clear();
        Ok(out)
    }

    fn live_flows(&self) -> usize {
        self.rel.len()
    }
}
// [synth:end]

// ---------------------------------------------------------------------------
// Concurrent: the sharded flow table with a wait-free read side.
// ---------------------------------------------------------------------------

/// The concurrent flow table: a [`ConcurrentRelation`] partitioned by
/// `local` (per-gateway-interface traffic from different ingest threads
/// never contends on one lock), with the **read side served wait-free**
/// through published snapshots — a monitoring dashboard polling flows, or a
/// CLI `iftop`, never blocks a packet.
///
/// Writes (`account`) are atomic read-modify-writes inside the owning
/// partition's lock; reads (`lookup`, `report`, `total_bytes`) go through
/// [`ConcurrentRelation::read_view`]/[`ReadHandle`] and therefore observe
/// the last *published* per-shard state without acquiring any shard lock.
#[derive(Debug)]
pub struct ConcurrentFlows {
    rel: ConcurrentRelation,
    cols: FlowCols,
}

impl ConcurrentFlows {
    /// Creates a sharded flow table over any adequate decomposition of the
    /// flow relation, partitioned by `local` into `shards` partitions.
    ///
    /// # Errors
    ///
    /// As for [`ConcurrentRelation::new`].
    pub fn new(
        cat: &Catalog,
        cols: FlowCols,
        spec: &RelSpec,
        d: Decomposition,
        shards: usize,
    ) -> Result<Self, ConcurrentBuildError> {
        let rel = ConcurrentRelation::new(cat, spec.clone(), d, cols.local.set(), shards)?;
        Ok(ConcurrentFlows { rel, cols })
    }

    /// The underlying relation (for validation and direct queries in tests).
    pub fn relation(&self) -> &ConcurrentRelation {
        &self.rel
    }

    /// Accounts one packet: an atomic read-modify-write inside the
    /// partition owning the packet's `local` host. Safe to call from many
    /// threads; traffic for different locals on different shards never
    /// contends.
    ///
    /// # Errors
    ///
    /// Any relational-operation failure of the underlying store.
    pub fn account(&self, (l, r, len): Packet) -> Result<(), OpError> {
        let cols = self.cols;
        let key = Tuple::from_pairs([(cols.local, Value::from(l)), (cols.remote, Value::from(r))]);
        self.rel.with_partition_mut(&key, |shard| {
            match shard.query(&key, cols.bytes | cols.pkts)?.first() {
                Some(t) => {
                    let (bytes, pkts) = counters(&cols, t)?;
                    shard.update(
                        &key,
                        &Tuple::from_pairs([
                            (cols.bytes, Value::from(bytes + len)),
                            (cols.pkts, Value::from(pkts + 1)),
                        ]),
                    )?;
                }
                None => {
                    shard.insert(key.merge(&Tuple::from_pairs([
                        (cols.bytes, Value::from(len)),
                        (cols.pkts, Value::from(1)),
                    ])))?;
                }
            }
            Ok(())
        })
    }

    /// A cached wait-free read handle for a monitoring thread.
    pub fn read_handle(&self) -> ReadHandle<'_> {
        self.rel.read_handle()
    }

    /// Wait-free point lookup of one flow's `(bytes, pkts)` through a
    /// cached handle — the pattern pins `local`, so the probe touches
    /// exactly one shard's published snapshot and no lock.
    ///
    /// # Errors
    ///
    /// As for the underlying snapshot query.
    pub fn lookup(
        &self,
        handle: &mut ReadHandle<'_>,
        local: i64,
        remote: i64,
    ) -> Result<Option<(i64, i64)>, OpError> {
        let cols = self.cols;
        let key = Tuple::from_pairs([
            (cols.local, Value::from(local)),
            (cols.remote, Value::from(remote)),
        ]);
        let rows = handle
            .fresh_for(|c| key.get(c))
            .query(&key, cols.bytes | cols.pkts)?;
        match rows.first() {
            None => Ok(None),
            Some(t) => Ok(Some(counters(&cols, t)?)),
        }
    }

    /// All currently published flows, sorted — the dashboard scan, served
    /// entirely from snapshots (no shard lock, packets keep flowing). A
    /// row with a malformed accounting value is skipped rather than taking
    /// the dashboard down; every well-formed flow is still reported.
    pub fn report(&self) -> Vec<FlowRecord> {
        report_view(&self.rel.read_view(), &self.cols)
    }

    /// Number of live flows in the published state.
    pub fn live_flows(&self) -> usize {
        self.rel.read_view().len()
    }
}

/// Runs a trace through a [`ConcurrentFlows`] with `writers` ingest threads
/// (packets partitioned by `local % writers`, so every flow is owned by
/// exactly one thread and the per-flow read-modify-writes never race;
/// threads may still share shards, where the partition lock serializes
/// them) while one monitor thread spins wait-free lookups and report scans
/// against published snapshots. Returns the final sorted flow report and
/// the number of monitor reads served.
///
/// The serving loops degrade gracefully: a failed monitor lookup is simply
/// not counted as a served read, and a failed accounting step stops that
/// writer and surfaces the first such error after the remaining writers
/// drain — no thread ever panics.
///
/// # Errors
///
/// The first accounting failure, if any writer hit one.
pub fn run_concurrent_accounting(
    flows: &ConcurrentFlows,
    trace: &[Packet],
    writers: usize,
) -> Result<(Vec<FlowRecord>, usize), OpError> {
    use std::sync::atomic::{AtomicBool, Ordering};
    let done = AtomicBool::new(false);
    let (served, failure) = std::thread::scope(|s| {
        let monitor = {
            let done = &done;
            s.spawn(move || {
                let mut handle = flows.read_handle();
                let mut served = 0usize;
                while !done.load(Ordering::Acquire) {
                    // Point lookups on the hottest pairs + a standing-state
                    // poll: the dashboard mix, entirely off the shard locks.
                    // Only *successful* lookups count as served reads.
                    for l in 0..4 {
                        if let Ok(Some(_)) = flows.lookup(&mut handle, l, 0) {
                            served += 1;
                        }
                    }
                    std::hint::black_box(handle.len());
                }
                // The trace is fully accounted now, so its first flow must
                // be visible wait-free — a deterministic final hit.
                if let Some(&(l, r, _)) = trace.first() {
                    if let Ok(Some(_)) = flows.lookup(&mut handle, l, r) {
                        served += 1;
                    }
                }
                served
            })
        };
        let writer_handles: Vec<_> = (0..writers)
            .map(|w| {
                s.spawn(move || -> Result<(), OpError> {
                    for p in trace
                        .iter()
                        .filter(|(l, _, _)| (l.unsigned_abs() as usize) % writers == w)
                    {
                        flows.account(*p)?;
                    }
                    Ok(())
                })
            })
            .collect();
        let mut failure = None;
        for h in writer_handles {
            if let Err(e) = h.join().expect("writer thread") {
                failure.get_or_insert(e);
            }
        }
        done.store(true, Ordering::Release);
        (monitor.join().expect("monitor thread"), failure)
    });
    match failure {
        Some(e) => Err(e),
        None => Ok((flows.report(), served)),
    }
}

// ---------------------------------------------------------------------------
// Durable: the restartable flow daemon (serve → kill → recover → serve).
// ---------------------------------------------------------------------------

/// The durable flow table: a [`DurableRelation`] partitioned by `local`,
/// whose committed accounting survives a daemon restart.
///
/// This is the §6.2 daemon grown into a production shape: packets are
/// accounted as logged read-modify-writes inside the owning partition's
/// critical section (each a remove + insert record pair in the write-ahead
/// log), [`commit`](DurableFlows::commit) group-commits the log, and
/// [`checkpoint`](DurableFlows::checkpoint) serializes the published
/// per-shard snapshots — packets keep flowing while the checkpoint writes.
/// After a crash, [`DurableFlows::open`] recovers exactly the accounting
/// up to the last durable point: nothing committed is ever lost, nothing
/// uncommitted ever resurfaces half-applied.
#[derive(Debug)]
pub struct DurableFlows {
    rel: DurableRelation,
    cols: FlowCols,
}

impl DurableFlows {
    /// Creates a fresh durable flow table in `dir` (any previous state
    /// there is discarded), partitioned by `local` into `shards`.
    ///
    /// # Errors
    ///
    /// As for [`DurableRelation::create`].
    pub fn create(
        dir: &std::path::Path,
        shards: usize,
        policy: GroupCommitPolicy,
    ) -> Result<Self, PersistError> {
        let (mut cat, cols, spec) = flow_spec();
        let d = default_decomposition(&mut cat);
        let rel =
            DurableRelation::create(dir, &cat, spec, d, cols.local.set(), shards, true, policy)?;
        Ok(DurableFlows { rel, cols })
    }

    /// Recovers the flow table stored in `dir`: checkpoint + log-tail
    /// replay, continuing exactly from the last durable accounting.
    ///
    /// # Errors
    ///
    /// As for [`DurableRelation::open`]; [`PersistError::Corrupt`] if `dir`
    /// holds a durable relation that is not a flow table.
    pub fn open(dir: &std::path::Path, policy: GroupCommitPolicy) -> Result<Self, PersistError> {
        let rel = DurableRelation::open(dir, policy)?;
        let col = |name| crate::recovered_col(&rel, dir, "a flow table", name);
        let cols = FlowCols {
            local: col("local")?,
            remote: col("remote")?,
            bytes: col("bytes")?,
            pkts: col("pkts")?,
        };
        Ok(DurableFlows { rel, cols })
    }

    /// The underlying durable relation (validation, checkpoint control).
    pub fn relation(&self) -> &DurableRelation {
        &self.rel
    }

    /// Accounts one packet durably: a logged read-modify-write inside the
    /// partition owning the packet's `local` host (counter accumulation is
    /// expressed as remove + insert, the write-ahead log's record kinds).
    ///
    /// # Errors
    ///
    /// Any relational or log failure of the underlying store.
    pub fn account(&self, (l, r, len): Packet) -> Result<(), PersistError> {
        let cols = self.cols;
        let key = Tuple::from_pairs([(cols.local, Value::from(l)), (cols.remote, Value::from(r))]);
        self.rel
            .with_partition_mut(&key, |p| {
                let existing = p.query(&key, cols.bytes | cols.pkts)?;
                let (bytes, pkts) = match existing.first() {
                    Some(t) => {
                        let (b, k) = counters(&cols, t)?;
                        p.remove(&key)?;
                        (b + len, k + 1)
                    }
                    None => (len, 1),
                };
                p.insert(key.merge(&Tuple::from_pairs([
                    (cols.bytes, Value::from(bytes)),
                    (cols.pkts, Value::from(pkts)),
                ])))?;
                Ok(())
            })?
            .map_err(PersistError::Op)
    }

    /// Group-commits the log: every packet accounted so far is durable on
    /// return.
    ///
    /// # Errors
    ///
    /// As for [`DurableRelation::commit`].
    pub fn commit(&self) -> Result<u64, PersistError> {
        self.rel.commit()
    }

    /// Checkpoints the table off published snapshots (packets keep
    /// flowing) and truncates the covered log prefix.
    ///
    /// # Errors
    ///
    /// As for [`DurableRelation::checkpoint`].
    pub fn checkpoint(&self) -> Result<u64, PersistError> {
        self.rel.checkpoint()
    }

    /// All currently accounted flows, sorted — served wait-free from
    /// published snapshots, exactly like [`ConcurrentFlows::report`].
    pub fn report(&self) -> Vec<FlowRecord> {
        report_view(&self.rel.read_view(), &self.cols)
    }

    /// Number of live flows in the published state.
    pub fn live_flows(&self) -> usize {
        self.rel.read_view().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_deterministic() {
        let a = packet_trace(100, 16, 64, 5);
        let b = packet_trace(100, 16, 64, 5);
        assert_eq!(a, b);
        assert!(a.iter().all(|&(_, _, len)| (40..=1500).contains(&len)));
    }

    #[test]
    fn baseline_and_synth_agree() {
        let trace = packet_trace(2000, 8, 32, 11);
        let mut base = BaselineFlows::new();
        let (mut cat, cols, spec) = flow_spec();
        let d = default_decomposition(&mut cat);
        let mut synth = SynthFlows::new(&cat, cols, &spec, d).unwrap();
        let log_base = run_accounting(&mut base, &trace, 500).unwrap();
        let log_synth = run_accounting(&mut synth, &trace, 500).unwrap();
        assert_eq!(log_base, log_synth);
        assert_eq!(base.live_flows(), 0);
        assert_eq!(synth.live_flows(), 0);
    }

    /// The port is representation independent: under every adequate
    /// decomposition of the flow relation with up to three (`htable`)
    /// edges — nested, flat, joined and shared — `SynthFlows` flushes the
    /// baseline's logs, whether its updates locate their units by key or
    /// walk a plan.
    #[test]
    fn every_small_decomposition_flushes_the_baseline_logs() {
        let trace = packet_trace(200, 4, 8, 17);
        let want = run_accounting(&mut BaselineFlows::new(), &trace, 100).unwrap();
        let (cat, cols, spec) = flow_spec();
        let opts = relic_decomp::EnumerateOptions {
            max_edges: 3,
            ..Default::default()
        };
        let candidates = relic_decomp::enumerate_decompositions(&spec, &opts);
        assert!(candidates.len() > 10, "{} candidates", candidates.len());
        for d in candidates {
            let shown = d.to_let_notation(&cat);
            let mut synth = SynthFlows::new(&cat, cols, &spec, d).unwrap();
            let got = run_accounting(&mut synth, &trace, 100).unwrap();
            assert_eq!(got, want, "{shown}");
            synth.relation().validate().unwrap();
        }
    }

    #[test]
    fn totals_conserved() {
        let trace = packet_trace(1000, 4, 16, 13);
        let (mut cat, cols, spec) = flow_spec();
        let d = default_decomposition(&mut cat);
        let mut synth = SynthFlows::new(&cat, cols, &spec, d).unwrap();
        let log = run_accounting(&mut synth, &trace, 0).unwrap();
        let total_bytes: i64 = log.iter().map(|f| f.bytes).sum();
        let want: i64 = trace.iter().map(|&(_, _, l)| l).sum();
        assert_eq!(total_bytes, want);
        let total_pkts: i64 = log.iter().map(|f| f.pkts).sum();
        assert_eq!(total_pkts, trace.len() as i64);
    }

    #[test]
    fn preload_restores_a_flushed_table() {
        let trace = packet_trace(800, 8, 24, 19);
        let (mut cat, cols, spec) = flow_spec();
        let d = default_decomposition(&mut cat);
        let mut synth = SynthFlows::new(&cat, cols, &spec, d.clone()).unwrap();
        for p in &trace {
            synth.account(*p).unwrap();
        }
        let snapshot = synth.flush().unwrap();
        assert_eq!(synth.live_flows(), 0);
        // Restore from the log and keep accounting: totals are preserved.
        let n = synth.preload(&snapshot).unwrap();
        assert_eq!(n, snapshot.len());
        assert_eq!(synth.live_flows(), snapshot.len());
        synth.relation().validate().unwrap();
        assert_eq!(synth.flush().unwrap(), snapshot);
    }

    #[test]
    fn concurrent_flows_agree_with_baseline_under_threads() {
        let trace = packet_trace(3000, 16, 24, 23);
        let mut base = BaselineFlows::new();
        for p in &trace {
            base.account(*p).unwrap();
        }
        let mut expect: Vec<FlowRecord> = base
            .table
            .iter()
            .map(|(&(local, remote), &(bytes, pkts))| FlowRecord {
                local,
                remote,
                bytes,
                pkts,
            })
            .collect();
        expect.sort();
        let (mut cat, cols, spec) = flow_spec();
        let d = default_decomposition(&mut cat);
        let flows = ConcurrentFlows::new(&cat, cols, &spec, d, 8).unwrap();
        let (report, served) = run_concurrent_accounting(&flows, &trace, 4).unwrap();
        assert_eq!(report, expect, "concurrent accounting must match baseline");
        assert!(served > 0, "the monitor served wait-free reads");
        flows.relation().validate().unwrap();
        assert_eq!(
            report,
            alpha_report(&flows.relation().to_relation(), &flows.cols),
            "the streamed report is the report read off α"
        );
    }

    /// The oracle for `report_view`: the report read off the abstraction
    /// function's relation, malformed rows skipped, sorted.
    fn alpha_report(rel: &relic_spec::Relation, cols: &FlowCols) -> Vec<FlowRecord> {
        let mut out: Vec<FlowRecord> = rel
            .iter()
            .filter_map(|t| flow_record(cols, |c| t.get(c)).ok())
            .collect();
        out.sort();
        out
    }

    #[test]
    fn report_skips_a_malformed_row_and_matches_alpha() {
        let (mut cat, cols, spec) = flow_spec();
        let d = default_decomposition(&mut cat);
        let flows = ConcurrentFlows::new(&cat, cols, &spec, d, 4).unwrap();
        for p in packet_trace(400, 8, 24, 7) {
            flows.account(p).unwrap();
        }
        let good = flows.report();
        assert_eq!(good.len(), flows.live_flows());
        // A row whose byte count lost its integer shape.
        flows
            .relation()
            .insert(Tuple::from_pairs([
                (cols.local, Value::from(-1)),
                (cols.remote, Value::from(-1)),
                (cols.bytes, Value::from("lots")),
                (cols.pkts, Value::from(1)),
            ]))
            .unwrap();
        assert_eq!(flows.live_flows(), good.len() + 1);
        assert_eq!(flows.report(), good, "the malformed row is skipped");
        assert_eq!(
            flows.report(),
            alpha_report(&flows.relation().to_relation(), &cols)
        );
    }

    #[test]
    fn concurrent_lookup_reads_published_state() {
        let (mut cat, cols, spec) = flow_spec();
        let d = default_decomposition(&mut cat);
        let flows = ConcurrentFlows::new(&cat, cols, &spec, d, 4).unwrap();
        let mut handle = flows.read_handle();
        assert_eq!(flows.lookup(&mut handle, 1, 2).unwrap(), None);
        flows.account((1, 2, 100)).unwrap();
        flows.account((1, 2, 50)).unwrap();
        assert_eq!(flows.lookup(&mut handle, 1, 2).unwrap(), Some((150, 2)));
        assert_eq!(flows.live_flows(), 1);
        assert_eq!(flows.report().len(), 1);
    }

    /// Accounts `trace` against a reference baseline, returning the sorted
    /// expected report.
    fn baseline_report(trace: &[Packet]) -> Vec<FlowRecord> {
        let mut base = BaselineFlows::new();
        for p in trace {
            base.account(*p).unwrap();
        }
        let mut expect: Vec<FlowRecord> = base
            .table
            .iter()
            .map(|(&(local, remote), &(bytes, pkts))| FlowRecord {
                local,
                remote,
                bytes,
                pkts,
            })
            .collect();
        expect.sort();
        expect
    }

    /// The restartable daemon scenario: serve → kill → recover → serve.
    /// Nothing accounted before the last commit is lost; nothing
    /// uncommitted survives; the recovered daemon finishes the trace and
    /// matches the baseline exactly.
    #[test]
    fn durable_accounting_survives_a_crash() {
        let dir = std::env::temp_dir().join(format!("relic_ipcap_crash_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let trace = packet_trace(1200, 8, 24, 41);
        let committed_at = 800;
        {
            // Serve phase 1: account 800 packets, commit, then account a
            // suffix that is never committed (lost in the crash).
            let flows = DurableFlows::create(&dir, 4, GroupCommitPolicy::manual()).unwrap();
            for p in &trace[..committed_at] {
                flows.account(*p).unwrap();
            }
            flows.commit().unwrap();
            for p in &trace[committed_at..1000] {
                flows.account(*p).unwrap();
            }
            // Crash: drop without committing the tail.
        }
        // Recover: exactly the committed 800-packet accounting.
        let flows = DurableFlows::open(&dir, GroupCommitPolicy::manual()).unwrap();
        assert_eq!(
            flows.report(),
            baseline_report(&trace[..committed_at]),
            "recovery must reproduce exactly the last committed accounting"
        );
        flows.relation().relation().validate().unwrap();
        // Serve phase 2: the recovered daemon re-accounts the lost tail
        // and finishes the trace; totals match the full baseline.
        for p in &trace[committed_at..] {
            flows.account(*p).unwrap();
        }
        flows.commit().unwrap();
        assert_eq!(flows.report(), baseline_report(&trace));
        drop(flows);
        // And one more restart for good measure (checkpoint this time).
        let flows = DurableFlows::open(&dir, GroupCommitPolicy::manual()).unwrap();
        assert_eq!(flows.report(), baseline_report(&trace));
        assert_eq!(
            flows.report(),
            alpha_report(&flows.relation().to_relation(), &flows.cols),
            "the streamed report is the report read off α"
        );
        flows.checkpoint().unwrap();
        drop(flows);
        let flows = DurableFlows::open(&dir, GroupCommitPolicy::manual()).unwrap();
        assert_eq!(flows.report(), baseline_report(&trace));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A recovered log whose flow row lost its integer `bytes` is a typed
    /// error on the packet that reads it back, and the shard it was read
    /// under stays usable (the error used to be a panic inside the shard's
    /// write lock).
    #[test]
    fn durable_accounting_reports_a_malformed_recovered_row() {
        let dir =
            std::env::temp_dir().join(format!("relic_ipcap_malformed_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let flows = DurableFlows::create(&dir, 1, GroupCommitPolicy::manual()).unwrap();
            let cols = flows.cols;
            flows
                .relation()
                .insert(Tuple::from_pairs([
                    (cols.local, Value::from(1)),
                    (cols.remote, Value::from(2)),
                    (cols.bytes, Value::from("lots")),
                    (cols.pkts, Value::from(1)),
                ]))
                .unwrap();
            flows.commit().unwrap();
        }
        let flows = DurableFlows::open(&dir, GroupCommitPolicy::manual()).unwrap();
        let bytes = flows.cols.bytes;
        assert!(matches!(
            flows.account((1, 2, 100)),
            Err(PersistError::Op(OpError::MalformedRow { col })) if col == bytes
        ));
        // Same shard (there is only one), a well-formed flow: still served.
        flows.account((1, 3, 100)).unwrap();
        flows.account((1, 3, 50)).unwrap();
        assert_eq!(
            flows.report(),
            vec![FlowRecord {
                local: 1,
                remote: 3,
                bytes: 150,
                pkts: 2
            }]
        );
        assert_eq!(flows.live_flows(), 2, "the malformed row was left in place");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Each durable system refuses the other's directory with a typed
    /// error naming the missing column (both used to panic on it).
    #[test]
    fn durable_open_refuses_another_relations_directory() {
        use crate::thttpd::DurableMmapCache;
        let tmp = std::env::temp_dir();
        let flow_dir = tmp.join(format!("relic_ipcap_not_mmap_{}", std::process::id()));
        let mmap_dir = tmp.join(format!("relic_mmap_not_ipcap_{}", std::process::id()));
        for dir in [&flow_dir, &mmap_dir] {
            let _ = std::fs::remove_dir_all(dir);
        }
        drop(DurableFlows::create(&flow_dir, 2, GroupCommitPolicy::manual()).unwrap());
        drop(DurableMmapCache::create(&mmap_dir, 2, GroupCommitPolicy::manual()).unwrap());
        match DurableFlows::open(&mmap_dir, GroupCommitPolicy::manual()) {
            Err(PersistError::Corrupt(msg)) => {
                assert!(
                    msg.ends_with("not a flow table: no column `local`"),
                    "{msg}"
                )
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        match DurableMmapCache::open(&flow_dir, GroupCommitPolicy::manual()) {
            Err(PersistError::Corrupt(msg)) => {
                assert!(
                    msg.ends_with("not an mmap cache: no column `path`"),
                    "{msg}"
                )
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        for dir in [&flow_dir, &mmap_dir] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// Checkpoints run concurrently with packet ingest: multi-threaded
    /// accounting with a checkpointer mid-churn, then a crash and an exact
    /// recovery of the full committed trace.
    #[test]
    fn durable_accounting_checkpoints_under_ingest() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let dir = std::env::temp_dir().join(format!("relic_ipcap_ckpt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let trace = packet_trace(2000, 16, 24, 43);
        {
            let flows = DurableFlows::create(&dir, 8, GroupCommitPolicy::default()).unwrap();
            let done = AtomicBool::new(false);
            std::thread::scope(|s| {
                let flows = &flows;
                let done = &done;
                let ckpt = s.spawn(move || {
                    let mut rounds = 0usize;
                    while !done.load(Ordering::Acquire) {
                        flows.commit().unwrap();
                        flows.checkpoint().unwrap();
                        rounds += 1;
                        std::thread::yield_now();
                    }
                    rounds
                });
                let writers: Vec<_> = (0..4usize)
                    .map(|w| {
                        let trace = &trace;
                        s.spawn(move || {
                            for p in trace
                                .iter()
                                .filter(|(l, _, _)| (l.unsigned_abs() as usize) % 4 == w)
                            {
                                flows.account(*p).unwrap();
                            }
                        })
                    })
                    .collect();
                for h in writers {
                    h.join().unwrap();
                }
                done.store(true, Ordering::Release);
                assert!(ckpt.join().unwrap() > 0, "checkpointer ran mid-ingest");
            });
            flows.commit().unwrap();
        }
        let flows = DurableFlows::open(&dir, GroupCommitPolicy::default()).unwrap();
        assert_eq!(flows.report(), baseline_report(&trace));
        flows.relation().relation().validate().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn synth_stays_well_formed_under_accounting() {
        let trace = packet_trace(300, 4, 8, 17);
        let (mut cat, cols, spec) = flow_spec();
        let d = default_decomposition(&mut cat);
        let mut synth = SynthFlows::new(&cat, cols, &spec, d).unwrap();
        for p in &trace {
            synth.account(*p).unwrap();
        }
        synth.relation().validate().unwrap();
        let flows = synth.flush().unwrap();
        assert!(!flows.is_empty());
        synth.relation().validate().unwrap();
    }
}
