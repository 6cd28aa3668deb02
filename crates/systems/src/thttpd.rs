//! The thttpd `mmap()` cache (§6.2).
//!
//! thttpd caches file→memory mappings: a request for a file first consults
//! the cache; a hit reuses the existing mapping (refreshing its timestamp),
//! a miss creates one. When the cache grows past its high-water mark, a
//! cleanup pass removes mappings older than a threshold.
//!
//! The cache is the relation `maps⟨path, addr, size, stamp⟩` with
//! `path → addr, size, stamp` (and `addr → path, size, stamp`: mapped
//! addresses are unique).
//!
//! [`BaselineMmapCache`] is the hand-coded original (open-coded hash map +
//! manual sweep); [`SynthMmapCache`] delegates to a [`SynthRelation`].

use crate::zipf::Zipf;
use relic_concurrent::{ConcurrentBuildError, ConcurrentRelation, ReadHandle};
use relic_core::{Bindings, OpError, RelRead, SynthRelation};
use relic_decomp::Decomposition;
use relic_persist::{DurableRelation, GroupCommitPolicy, PersistError};
use relic_spec::{Catalog, ColId, Pattern, Pred, RelSpec, Tuple, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, Ordering};

/// A cache request: fetch `path` at (logical) time `now`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Requested file path.
    pub path: String,
    /// Logical timestamp of the request.
    pub now: i64,
}

/// Generates a deterministic Zipf-popular request stream over `files`
/// distinct paths.
pub fn request_stream(requests: usize, files: usize, seed: u64) -> Vec<Request> {
    let mut z = Zipf::new(files, 1.0, seed);
    (0..requests)
        .map(|i| Request {
            path: format!("/www/site/file-{:05}.html", z.sample()),
            now: i as i64,
        })
        .collect()
}

/// Observable outcome of one request (used to check behavioural parity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The mapping existed.
    Hit,
    /// A new mapping was created.
    Miss,
}

/// The cache interface both implementations provide.
pub trait MmapCache {
    /// Serves one request, returning hit/miss.
    fn serve(&mut self, req: &Request) -> Outcome;
    /// Removes mappings with `stamp < cutoff`, returning how many were
    /// unmapped.
    fn cleanup(&mut self, cutoff: i64) -> usize;
    /// Number of live mappings.
    fn live(&self) -> usize;
}

/// Drives a request stream with periodic cleanups (every `sweep_every`
/// requests, dropping entries older than `max_age`); returns per-request
/// outcomes plus the total number of unmapped entries.
pub fn run_cache<C: MmapCache>(
    cache: &mut C,
    reqs: &[Request],
    sweep_every: usize,
    max_age: i64,
) -> (Vec<Outcome>, usize) {
    let mut outcomes = Vec::with_capacity(reqs.len());
    let mut unmapped = 0;
    for (i, r) in reqs.iter().enumerate() {
        outcomes.push(cache.serve(r));
        if sweep_every > 0 && (i + 1) % sweep_every == 0 {
            unmapped += cache.cleanup(r.now - max_age);
        }
    }
    (outcomes, unmapped)
}

// [baseline:begin]
/// Hand-coded mmap cache: a hash map keyed by path, swept linearly.
#[derive(Debug, Default)]
pub struct BaselineMmapCache {
    table: HashMap<String, (i64, i64, i64)>, // path -> (addr, size, stamp)
    next_addr: i64,
}

impl BaselineMmapCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        BaselineMmapCache::default()
    }
}

impl MmapCache for BaselineMmapCache {
    fn serve(&mut self, req: &Request) -> Outcome {
        if let Some(entry) = self.table.get_mut(&req.path) {
            entry.2 = req.now;
            return Outcome::Hit;
        }
        self.next_addr += 4096;
        let size = 1024 + (req.path.len() as i64) * 7;
        self.table
            .insert(req.path.clone(), (self.next_addr, size, req.now));
        Outcome::Miss
    }

    fn cleanup(&mut self, cutoff: i64) -> usize {
        let before = self.table.len();
        self.table.retain(|_, (_, _, stamp)| *stamp >= cutoff);
        before - self.table.len()
    }

    fn live(&self) -> usize {
        self.table.len()
    }
}
// [baseline:end]

/// Column handles for the mmap-cache relation.
#[derive(Debug, Clone, Copy)]
pub struct MmapCols {
    /// File path.
    pub path: ColId,
    /// Mapped address.
    pub addr: ColId,
    /// Mapping size.
    pub size: ColId,
    /// Last-used timestamp.
    pub stamp: ColId,
}

/// Creates the mmap-cache relation's catalog, columns and specification.
pub fn mmap_spec() -> (Catalog, MmapCols, RelSpec) {
    let mut cat = Catalog::new();
    let cols = MmapCols {
        path: cat.intern("path"),
        addr: cat.intern("addr"),
        size: cat.intern("size"),
        stamp: cat.intern("stamp"),
    };
    let all = cols.path | cols.addr | cols.size | cols.stamp;
    let spec = RelSpec::new(all)
        .with_fd(cols.path.into(), cols.addr | cols.size | cols.stamp)
        .with_fd(cols.addr.into(), cols.path | cols.size | cols.stamp);
    (cat, cols, spec)
}

/// The default decomposition: a hash table from path to a unit holding the
/// mapping; the sweep is a scan, as in the original.
pub fn default_decomposition(cat: &mut Catalog) -> Decomposition {
    relic_decomp::parse(
        cat,
        "let w : {path} . {addr,size,stamp} = unit {addr,size,stamp} in
         let x : {} . {path,addr,size,stamp} = {path} -[htable]-> w in x",
    )
    .expect("default decomposition parses")
}

/// An age-indexed decomposition: the path hash joined with an ordered stamp
/// index sharing the mapping leaf. Point lookups stay O(1); the cleanup
/// sweep (`stamp < cutoff`) becomes an ordered seek over exactly the stale
/// run (`qrange`) instead of a full scan — a representation change the
/// client code never sees.
pub fn ordered_decomposition(cat: &mut Catalog) -> Decomposition {
    relic_decomp::parse(
        cat,
        "let w : {path,stamp} . {addr,size} = unit {addr,size} in
         let y : {path} . {stamp,addr,size} = {stamp} -[vec]-> w in
         let z : {stamp} . {path,addr,size} = {path} -[htable]-> w in
         let x : {} . {path,addr,size,stamp} =
           ({path} -[htable]-> y) join ({stamp} -[avl]-> z) in x",
    )
    .expect("ordered decomposition parses")
}

// [synth:begin]
/// The synthesized mmap cache.
#[derive(Debug)]
pub struct SynthMmapCache {
    rel: SynthRelation,
    cols: MmapCols,
    next_addr: i64,
}

impl SynthMmapCache {
    /// Creates a cache over any adequate decomposition of the relation.
    ///
    /// # Errors
    ///
    /// Propagates adequacy failures.
    pub fn new(
        cat: &Catalog,
        cols: MmapCols,
        spec: &RelSpec,
        d: Decomposition,
    ) -> Result<Self, relic_core::BuildError> {
        let mut rel = SynthRelation::new(cat, spec.clone(), d)?;
        rel.set_fd_checking(false);
        Ok(SynthMmapCache {
            rel,
            cols,
            next_addr: 0,
        })
    }

    /// Access to the underlying relation (for validation in tests).
    pub fn relation(&self) -> &SynthRelation {
        &self.rel
    }

    /// Warm-starts the cache from saved `(path, addr, size, stamp)`
    /// mappings — the restart/replay path — in one bulk load instead of one
    /// full insert walk per mapping. The address allocator resumes past the
    /// highest preloaded address. Returns the number of mappings loaded.
    ///
    /// # Errors
    ///
    /// As for [`SynthRelation::bulk_load`] (e.g. two mappings for one path).
    pub fn preload<I: IntoIterator<Item = (String, i64, i64, i64)>>(
        &mut self,
        mappings: I,
    ) -> Result<usize, relic_core::OpError> {
        let cols = self.cols;
        let mut max_addr = self.next_addr;
        let batch: Vec<Tuple> = mappings
            .into_iter()
            .map(|(path, addr, size, stamp)| {
                max_addr = max_addr.max(addr);
                Tuple::from_pairs([
                    (cols.path, Value::from(path.as_str())),
                    (cols.addr, Value::from(addr)),
                    (cols.size, Value::from(size)),
                    (cols.stamp, Value::from(stamp)),
                ])
            })
            .collect();
        let res = self.rel.bulk_load(batch);
        // Even on a partial load (the accepted prefix stays inserted), the
        // allocator must resume past every address the snapshot mentioned —
        // a later miss handing out an already-preloaded address would alias
        // two paths to one mapping.
        self.next_addr = max_addr;
        res
    }
}

impl MmapCache for SynthMmapCache {
    fn serve(&mut self, req: &Request) -> Outcome {
        let key = Tuple::from_pairs([(self.cols.path, Value::from(req.path.as_str()))]);
        if self.rel.contains_matching(&key).expect("in-relation query") {
            self.rel
                .update(
                    &key,
                    &Tuple::from_pairs([(self.cols.stamp, Value::from(req.now))]),
                )
                .expect("touch existing mapping");
            return Outcome::Hit;
        }
        self.next_addr += 4096;
        let size = 1024 + (req.path.len() as i64) * 7;
        self.rel
            .insert(key.merge(&Tuple::from_pairs([
                (self.cols.addr, Value::from(self.next_addr)),
                (self.cols.size, Value::from(size)),
                (self.cols.stamp, Value::from(req.now)),
            ])))
            .expect("new mapping");
        Outcome::Miss
    }

    fn cleanup(&mut self, cutoff: i64) -> usize {
        // The paper's description of this module — "removes those older
        // than a certain threshold" — is one predicate removal. With an
        // ordered decomposition (e.g. a stamp index) the planner seeks the
        // stale run instead of scanning.
        let stale = Pattern::new().with(self.cols.stamp, Pred::Lt(Value::from(cutoff)));
        self.rel.remove_where(&stale).expect("sweep stale mappings")
    }

    fn live(&self) -> usize {
        self.rel.len()
    }
}
// [synth:end]

// ---------------------------------------------------------------------------
// Concurrent: the sharded mmap cache with a wait-free hit check.
// ---------------------------------------------------------------------------

/// The concurrent mmap cache: a [`ConcurrentRelation`] partitioned by
/// `path`, with the serving loop's **read side** — the hit check that runs
/// on every single request — performed wait-free against published
/// snapshots instead of taking a shard lock per request.
///
/// Only a miss (insert) or a hit's stamp refresh (update) touches a lock,
/// and only the one shard owning the path. The cleanup sweep is the usual
/// predicate removal across shards.
#[derive(Debug)]
pub struct ConcurrentMmapCache {
    rel: ConcurrentRelation,
    cols: MmapCols,
    next_addr: AtomicI64,
}

impl ConcurrentMmapCache {
    /// Creates a sharded cache over any adequate decomposition of the
    /// relation, partitioned by `path` into `shards` partitions.
    ///
    /// # Errors
    ///
    /// As for [`ConcurrentRelation::new`].
    pub fn new(
        cat: &Catalog,
        cols: MmapCols,
        spec: &RelSpec,
        d: Decomposition,
        shards: usize,
    ) -> Result<Self, ConcurrentBuildError> {
        let rel = ConcurrentRelation::new(cat, spec.clone(), d, cols.path.set(), shards)?;
        Ok(ConcurrentMmapCache {
            rel,
            cols,
            next_addr: AtomicI64::new(0),
        })
    }

    /// The underlying relation (for validation in tests).
    pub fn relation(&self) -> &ConcurrentRelation {
        &self.rel
    }

    /// A cached wait-free read handle for a serving thread.
    pub fn read_handle(&self) -> ReadHandle<'_> {
        self.rel.read_handle()
    }

    /// Serves one request through `handle`: the hit check is a wait-free
    /// snapshot probe (pinned by `path`, one shard, no lock); only the
    /// outcome's mutation — stamp refresh or new mapping — takes the owning
    /// shard's lock.
    ///
    /// Safe under concurrent serving threads: the snapshot probe is only a
    /// fast path. A confirmed hit refreshes the stamp through the locked
    /// update; if the mapping vanished between probe and update (a
    /// concurrent [`cleanup`](ConcurrentMmapCache::cleanup)), or the probe
    /// missed, the decide-and-mutate runs as one atomic read-modify-write
    /// inside the owning partition's critical section — two threads racing
    /// on the same new path produce exactly one mapping (one `Miss`, one
    /// `Hit`), never an FD conflict.
    ///
    /// # Errors
    ///
    /// Any relational-operation failure of the underlying store — surfaced
    /// typed, so a serving thread can log and drop one request instead of
    /// panicking the whole server.
    pub fn serve(&self, handle: &mut ReadHandle<'_>, req: &Request) -> Result<Outcome, OpError> {
        let cols = self.cols;
        let key = Tuple::from_pairs([(cols.path, Value::from(req.path.as_str()))]);
        let stamp = Tuple::from_pairs([(cols.stamp, Value::from(req.now))]);
        if handle.fresh_for(|c| key.get(c)).contains_matching(&key)?
            && self.rel.update(&key, &stamp)?
        {
            return Ok(Outcome::Hit);
        }
        // Probe missed (or the mapping vanished meanwhile): create or
        // refresh atomically in the partition.
        let addr = self.next_addr.fetch_add(4096, Ordering::Relaxed) + 4096;
        let size = 1024 + (req.path.len() as i64) * 7;
        self.rel.with_partition_mut(&key, |shard| {
            if shard.update(&key, &stamp)? {
                // Another serving thread mapped the path first.
                return Ok(Outcome::Hit);
            }
            shard.insert(key.merge(&Tuple::from_pairs([
                (cols.addr, Value::from(addr)),
                (cols.size, Value::from(size)),
                (cols.stamp, Value::from(req.now)),
            ])))?;
            Ok(Outcome::Miss)
        })
    }

    /// Removes mappings with `stamp < cutoff`, returning how many were
    /// unmapped (the sweep is a cross-shard predicate removal).
    ///
    /// # Errors
    ///
    /// Any relational-operation failure of the underlying store.
    pub fn cleanup(&self, cutoff: i64) -> Result<usize, OpError> {
        let stale = Pattern::new().with(self.cols.stamp, Pred::Lt(Value::from(cutoff)));
        self.rel.remove_where(&stale)
    }

    /// Number of live mappings in the published state (wait-free).
    pub fn live(&self) -> usize {
        self.rel.read_view().len()
    }
}

/// Drives a request stream against a [`ConcurrentMmapCache`] with periodic
/// cleanups — the concurrent analog of [`run_cache`], its hit checks served
/// from snapshots through one cached handle. Returns per-request outcomes
/// plus the total number of unmapped entries.
///
/// # Errors
///
/// The first serve or cleanup failure.
pub fn run_concurrent_cache(
    cache: &ConcurrentMmapCache,
    reqs: &[Request],
    sweep_every: usize,
    max_age: i64,
) -> Result<(Vec<Outcome>, usize), OpError> {
    let mut handle = cache.read_handle();
    let mut outcomes = Vec::with_capacity(reqs.len());
    let mut unmapped = 0;
    for (i, r) in reqs.iter().enumerate() {
        outcomes.push(cache.serve(&mut handle, r)?);
        if sweep_every > 0 && (i + 1) % sweep_every == 0 {
            unmapped += cache.cleanup(r.now - max_age)?;
        }
    }
    Ok((outcomes, unmapped))
}

// ---------------------------------------------------------------------------
// Durable: the restartable mmap cache (serve → kill → recover → serve).
// ---------------------------------------------------------------------------

/// The durable mmap cache: a [`DurableRelation`] partitioned by `path`.
/// Committed mappings survive a server restart — a warm cache comes back
/// warm, instead of re-mapping the whole working set from scratch.
///
/// Misses insert durably; a hit's stamp refresh is a logged remove +
/// insert inside the owning partition (the log's record kinds); the
/// cleanup sweep collects stale paths from a wait-free snapshot and
/// removes them as one logged `remove_many`.
#[derive(Debug)]
pub struct DurableMmapCache {
    rel: DurableRelation,
    cols: MmapCols,
    next_addr: AtomicI64,
}

impl DurableMmapCache {
    /// Creates a fresh durable cache in `dir` (discarding any previous
    /// state), partitioned by `path` into `shards`.
    ///
    /// # Errors
    ///
    /// As for [`DurableRelation::create`].
    pub fn create(
        dir: &std::path::Path,
        shards: usize,
        policy: GroupCommitPolicy,
    ) -> Result<Self, PersistError> {
        let (mut cat, cols, spec) = mmap_spec();
        let d = default_decomposition(&mut cat);
        let rel =
            DurableRelation::create(dir, &cat, spec, d, cols.path.set(), shards, true, policy)?;
        Ok(DurableMmapCache {
            rel,
            cols,
            next_addr: AtomicI64::new(0),
        })
    }

    /// Recovers the cache stored in `dir`. The address allocator resumes
    /// past the highest recovered address, so re-mapped files never
    /// collide with surviving mappings (`addr` is functionally unique).
    ///
    /// # Errors
    ///
    /// As for [`DurableRelation::open`]; [`PersistError::Corrupt`] if `dir`
    /// holds a durable relation that is not an mmap cache.
    pub fn open(dir: &std::path::Path, policy: GroupCommitPolicy) -> Result<Self, PersistError> {
        let rel = DurableRelation::open(dir, policy)?;
        let col = |name| crate::recovered_col(&rel, dir, "an mmap cache", name);
        let cols = MmapCols {
            path: col("path")?,
            addr: col("addr")?,
            size: col("size")?,
            stamp: col("stamp")?,
        };
        // One streaming pass over the recovered table: this runs at every
        // open, over the whole cache.
        let mut max_addr: Option<i64> = None;
        rel.read_view().scan_all(&mut Bindings::new(), |b| {
            max_addr = max_addr.max(b.get(cols.addr).and_then(Value::as_int));
        })?;
        Ok(DurableMmapCache {
            rel,
            cols,
            next_addr: AtomicI64::new(max_addr.unwrap_or(0)),
        })
    }

    /// The underlying durable relation (validation, checkpoint control).
    pub fn relation(&self) -> &DurableRelation {
        &self.rel
    }

    /// Serves one request durably: the decide-and-mutate runs as one
    /// logged read-modify-write inside the partition owning the path.
    ///
    /// # Errors
    ///
    /// Any relational or log failure of the underlying store.
    pub fn serve(&self, req: &Request) -> Result<Outcome, PersistError> {
        let cols = self.cols;
        let key = Tuple::from_pairs([(cols.path, Value::from(req.path.as_str()))]);
        let addr_candidate = self.next_addr.fetch_add(4096, Ordering::Relaxed) + 4096;
        let size = 1024 + (req.path.len() as i64) * 7;
        self.rel
            .with_partition_mut(&key, |p| {
                match p.query(&key, cols.addr | cols.size)?.first() {
                    Some(t) => {
                        // Hit: refresh the stamp, keeping the mapping.
                        let addr = t
                            .get(cols.addr)
                            .and_then(Value::as_int)
                            .ok_or(OpError::MalformedRow { col: cols.addr })?;
                        let size = t
                            .get(cols.size)
                            .and_then(Value::as_int)
                            .ok_or(OpError::MalformedRow { col: cols.size })?;
                        p.remove(&key)?;
                        p.insert(key.merge(&Tuple::from_pairs([
                            (cols.addr, Value::from(addr)),
                            (cols.size, Value::from(size)),
                            (cols.stamp, Value::from(req.now)),
                        ])))?;
                        Ok(Outcome::Hit)
                    }
                    None => {
                        p.insert(key.merge(&Tuple::from_pairs([
                            (cols.addr, Value::from(addr_candidate)),
                            (cols.size, Value::from(size)),
                            (cols.stamp, Value::from(req.now)),
                        ])))?;
                        Ok(Outcome::Miss)
                    }
                }
            })?
            .map_err(PersistError::Op)
    }

    /// Removes mappings with `stamp < cutoff`, durably: stale paths are
    /// collected from a wait-free snapshot, then removed as one logged
    /// `remove_many` of pinned path patterns. Returns how many were
    /// unmapped.
    ///
    /// # Errors
    ///
    /// As for [`DurableRelation::remove_many`].
    pub fn cleanup(&self, cutoff: i64) -> Result<usize, PersistError> {
        let cols = self.cols;
        let stale = Pattern::new().with(cols.stamp, Pred::Lt(Value::from(cutoff)));
        let victims = self
            .rel
            .read_view()
            .query_where(&stale, cols.path.set())
            .map_err(PersistError::Op)?;
        if victims.is_empty() {
            return Ok(0);
        }
        self.rel.remove_many(&victims)
    }

    /// Group-commits the log.
    ///
    /// # Errors
    ///
    /// As for [`DurableRelation::commit`].
    pub fn commit(&self) -> Result<u64, PersistError> {
        self.rel.commit()
    }

    /// Number of live mappings in the published state (wait-free).
    pub fn live(&self) -> usize {
        self.rel.read_view().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic_and_skewed() {
        let a = request_stream(500, 50, 3);
        let b = request_stream(500, 50, 3);
        assert_eq!(a, b);
        // The hottest file should recur.
        let hot = a.iter().filter(|r| r.path.contains("file-00000")).count();
        assert!(hot > 10, "hot file appeared {hot} times");
    }

    #[test]
    fn baseline_and_synth_agree() {
        let reqs = request_stream(800, 40, 21);
        let mut base = BaselineMmapCache::new();
        let (mut cat, cols, spec) = mmap_spec();
        let d = default_decomposition(&mut cat);
        let mut synth = SynthMmapCache::new(&cat, cols, &spec, d).unwrap();
        let (o1, u1) = run_cache(&mut base, &reqs, 100, 150);
        let (o2, u2) = run_cache(&mut synth, &reqs, 100, 150);
        assert_eq!(o1, o2);
        assert_eq!(u1, u2);
        assert_eq!(base.live(), synth.live());
        synth.relation().validate().unwrap();
    }

    #[test]
    fn ordered_decomposition_agrees_and_seeks() {
        let reqs = request_stream(600, 32, 5);
        let mut base = BaselineMmapCache::new();
        let (mut cat, cols, spec) = mmap_spec();
        let d = ordered_decomposition(&mut cat);
        let mut synth = SynthMmapCache::new(&cat, cols, &spec, d).unwrap();
        // The stale-sweep pattern plans to an ordered seek on this layout.
        let stale = Pattern::new().with(cols.stamp, Pred::Lt(Value::from(0)));
        let plan = synth.relation().plan_for_where(&stale, cat.all()).unwrap();
        assert!(plan.contains("qrange"), "{plan}");
        let (o1, u1) = run_cache(&mut base, &reqs, 80, 120);
        let (o2, u2) = run_cache(&mut synth, &reqs, 80, 120);
        assert_eq!(o1, o2);
        assert_eq!(u1, u2);
        assert_eq!(base.live(), synth.live());
        synth.relation().validate().unwrap();
    }

    #[test]
    fn concurrent_cache_agrees_with_baseline() {
        let reqs = request_stream(700, 36, 29);
        let mut base = BaselineMmapCache::new();
        let (mut cat, cols, spec) = mmap_spec();
        let d = default_decomposition(&mut cat);
        let synth = ConcurrentMmapCache::new(&cat, cols, &spec, d, 4).unwrap();
        let (o1, u1) = run_cache(&mut base, &reqs, 100, 150);
        let (o2, u2) = run_concurrent_cache(&synth, &reqs, 100, 150).unwrap();
        assert_eq!(o1, o2, "hit/miss stream must match the baseline");
        assert_eq!(u1, u2, "sweeps must unmap the same entries");
        assert_eq!(base.live(), synth.live());
        synth.relation().validate().unwrap();
    }

    #[test]
    fn concurrent_cache_hit_check_reads_while_writers_run() {
        // Readers poll the snapshot state from other threads while the
        // serving thread mutates: no torn reads, counts only grow within a
        // request burst (no cleanup here).
        let reqs = request_stream(400, 24, 31);
        let (mut cat, cols, spec) = mmap_spec();
        let d = default_decomposition(&mut cat);
        let synth = &ConcurrentMmapCache::new(&cat, cols, &spec, d, 4).unwrap();
        std::thread::scope(|s| {
            let serve = s.spawn(move || {
                let mut handle = synth.read_handle();
                for r in &reqs {
                    synth.serve(&mut handle, r).unwrap();
                }
            });
            for _ in 0..2 {
                s.spawn(move || {
                    let mut last = 0usize;
                    let mut handle = synth.read_handle();
                    for _ in 0..200 {
                        let n = handle.len();
                        assert!(n >= last, "live mappings only grow in this run");
                        last = n;
                    }
                });
            }
            serve.join().unwrap();
        });
        synth.relation().validate().unwrap();
    }

    #[test]
    fn cleanup_removes_only_stale() {
        let (mut cat, cols, spec) = mmap_spec();
        let d = default_decomposition(&mut cat);
        let mut synth = SynthMmapCache::new(&cat, cols, &spec, d).unwrap();
        for (i, path) in ["/a", "/b", "/c"].iter().enumerate() {
            synth.serve(&Request {
                path: path.to_string(),
                now: i as i64 * 10,
            });
        }
        assert_eq!(synth.cleanup(15), 2); // /a (0) and /b (10) are stale
        assert_eq!(synth.live(), 1);
        synth.relation().validate().unwrap();
    }

    #[test]
    fn preload_warm_starts_like_served_traffic() {
        let (mut cat, cols, spec) = mmap_spec();
        let d = ordered_decomposition(&mut cat);
        let mut warm = SynthMmapCache::new(&cat, cols, &spec, d.clone()).unwrap();
        let n = warm
            .preload((0..50).map(|i| (format!("/f{i:03}"), 4096 * (i + 1), 1024, i)))
            .unwrap();
        assert_eq!(n, 50);
        assert_eq!(warm.live(), 50);
        warm.relation().validate().unwrap();
        // A preloaded path is a hit; a new path allocates past the highest
        // preloaded address.
        assert_eq!(
            warm.serve(&Request {
                path: "/f007".into(),
                now: 100
            }),
            Outcome::Hit
        );
        assert_eq!(
            warm.serve(&Request {
                path: "/new".into(),
                now: 101
            }),
            Outcome::Miss
        );
        // Sweeping behaves identically to a cache that served the traffic:
        // stamps 0..40 are stale except /f007, refreshed by its hit.
        assert_eq!(warm.cleanup(40), 39);
        warm.relation().validate().unwrap();
    }

    #[test]
    fn hits_refresh_stamps() {
        let (mut cat, cols, spec) = mmap_spec();
        let d = default_decomposition(&mut cat);
        let mut synth = SynthMmapCache::new(&cat, cols, &spec, d).unwrap();
        synth.serve(&Request {
            path: "/hot".into(),
            now: 0,
        });
        assert_eq!(
            synth.serve(&Request {
                path: "/hot".into(),
                now: 100
            }),
            Outcome::Hit
        );
        // Refreshed: a cleanup at cutoff 50 keeps it.
        assert_eq!(synth.cleanup(50), 0);
        assert_eq!(synth.live(), 1);
    }

    /// The restartable server scenario: serve → kill → recover → serve.
    /// A warm cache comes back warm (committed mappings Hit after the
    /// restart), uncommitted mappings vanish, addresses never collide, and
    /// a durable cleanup stays cleaned up across another restart.
    #[test]
    fn durable_cache_survives_a_crash_warm() {
        let dir = std::env::temp_dir().join(format!("relic_thttpd_crash_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let reqs = request_stream(400, 60, 0xD00D);
        let committed_at = 300;
        let (live_before, outcomes_before) = {
            let cache = DurableMmapCache::create(&dir, 4, GroupCommitPolicy::manual()).unwrap();
            let outcomes: Vec<Outcome> = reqs[..committed_at]
                .iter()
                .map(|r| cache.serve(r).unwrap())
                .collect();
            cache.commit().unwrap();
            let committed_state = cache.relation().to_relation();
            // An uncommitted tail: mappings the crash must forget.
            for r in &reqs[committed_at..350] {
                cache.serve(r).unwrap();
            }
            (committed_state, outcomes)
        };
        let _ = outcomes_before;
        let cache = DurableMmapCache::open(&dir, GroupCommitPolicy::manual()).unwrap();
        assert_eq!(
            cache.relation().to_relation(),
            live_before,
            "recovery must reproduce exactly the committed cache"
        );
        assert_eq!(
            cache.next_addr.load(Ordering::Relaxed),
            live_before
                .iter()
                .filter_map(|t| t.get(cache.cols.addr).and_then(Value::as_int))
                .max()
                .unwrap_or(0),
            "the allocator resumes from the highest address α holds"
        );
        // Warm restart: every committed path is a Hit, and re-serving a
        // brand-new path allocates an address that collides with nothing.
        let warm = cache
            .serve(&Request {
                path: reqs[0].path.clone(),
                now: 10_000,
            })
            .unwrap();
        assert_eq!(warm, Outcome::Hit, "a committed mapping must survive warm");
        cache
            .serve(&Request {
                path: "/www/site/brand-new.html".into(),
                now: 10_001,
            })
            .unwrap();
        cache.relation().relation().validate().unwrap();
        let mut addrs: Vec<i64> = cache
            .relation()
            .to_relation()
            .iter()
            .map(|t| {
                t.get(cache.cols.addr)
                    .and_then(Value::as_int)
                    .expect("addr column")
            })
            .collect();
        addrs.sort_unstable();
        let unique = addrs.len();
        addrs.dedup();
        assert_eq!(addrs.len(), unique, "recovered allocator reused an address");
        // A durable cleanup survives the next restart too.
        cache.cleanup(10_000).unwrap();
        assert_eq!(cache.live(), 2, "only the two post-restart touches remain");
        cache.commit().unwrap();
        drop(cache);
        let cache = DurableMmapCache::open(&dir, GroupCommitPolicy::manual()).unwrap();
        assert_eq!(cache.live(), 2, "the sweep must persist across restart");
        cache.relation().relation().validate().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
