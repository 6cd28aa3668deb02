//! [`DurableRelation`]: a sharded, concurrently-writable relation whose
//! committed state survives a crash.
//!
//! # Logging discipline
//!
//! Every mutation runs inside its shard's write-lock critical section
//! (via the stamped hooks `relic_concurrent` exposes), where it:
//!
//! 1. appends its record to the write-ahead log's in-memory segment,
//!    drawing a global sequence number — **no file I/O under the shard
//!    lock**;
//! 2. applies the operation to the shard;
//! 3. publishes the shard's snapshot *stamped with the record's sequence
//!    number* — under the existing publish-before-unlock discipline, so
//!    the published `(state, stamp)` pair is exact: the state contains
//!    precisely the logged operations with `seq <= stamp`.
//!
//! Per-shard log order therefore equals per-shard apply order, which is
//! what makes replay deterministic: recovery re-applies each shard's
//! missing suffix against exactly the states those operations originally
//! saw. Operations that failed live (duplicate inserts, FD rejections)
//! fail identically on replay and are swallowed.
//!
//! Batches are logged **per shard**: `insert_many`/`bulk_load` group the
//! batch by owning shard (lock-free), then log + apply each group under
//! its shard's single write-lock hold — one record, one lock acquisition,
//! one publish per touched shard. Partition read-modify-write sequences
//! ([`with_partition_mut`](DurableRelation::with_partition_mut)) are the
//! one exception to append-before-apply: their writes apply as the
//! closure runs and are appended as **one compound
//! [`Txn`](crate::wal::WalRecord::Txn) frame when it ends**, still under
//! the shard lock — so the whole sequence is one crash-atomic log unit,
//! and per-shard log order still equals per-shard apply order (the
//! closure is a single apply unit no same-shard writer can interleave).
//!
//! # Durability contract
//!
//! An operation is *durable* once a group commit containing its record has
//! fsynced ([`commit`](DurableRelation::commit), an automatic
//! threshold flush, or a later checkpoint containing its effect). A crash
//! loses at most the operations after the last durable point — never a
//! torn prefix, never a committed suffix ([`wal`](crate::wal) scan stops
//! at the first bad checksum).
//!
//! [`checkpoint`](DurableRelation::checkpoint) serializes the published
//! per-shard snapshot vector **without holding any shard write lock** —
//! writers keep committing while the checkpoint writes — then truncates
//! the log prefix the checkpoint covers. It is a streaming read of the
//! pinned snapshots (one linear scan, encoded as it goes), priced like any
//! other traversal of a frozen version.

use crate::checkpoint::{read_checkpoint, write_checkpoint, CheckpointWriter};
use crate::wal::{read_wal, GroupCommitPolicy, TailRead, TxnBuilder, Wal, WalRecord, MAX_PAYLOAD};
use crate::{DurableSchema, PersistError};
use relic_concurrent::{ConcurrentRelation, ReadHandle, ReadView};
use relic_core::wire::WireError;
use relic_core::{Bindings, OpError, SynthRelation};
use relic_decomp::Decomposition;
use relic_spec::{Catalog, ColSet, RelSpec, Relation, Tuple};
use std::path::{Path, PathBuf};

/// The log file name inside a durable relation's directory.
pub const WAL_FILE: &str = "wal.log";

/// A sharded relation backed by a write-ahead log and checkpoints.
///
/// All mutating methods are `&self` and thread-safe, with the same
/// concurrency profile as [`ConcurrentRelation`] (pinned operations touch
/// one shard lock; the log append inside the critical section is an
/// in-memory push under the log's mutex). Reads are unlogged and
/// lock-free: [`read_view`](DurableRelation::read_view) and
/// [`read_handle`](DurableRelation::read_handle) hand out the underlying
/// relation's published snapshots, queried through
/// [`RelRead`](relic_core::RelRead).
#[derive(Debug)]
pub struct DurableRelation {
    rel: ConcurrentRelation,
    wal: Wal,
    cat: Catalog,
    spec: RelSpec,
    shard_cols: ColSet,
    shards: usize,
    fd_checking: bool,
    dir: PathBuf,
}

impl DurableRelation {
    /// Creates a fresh durable relation in `dir` (created if needed; any
    /// previous log or checkpoint there is discarded).
    ///
    /// # Errors
    ///
    /// [`PersistError::Build`] if the decomposition is inadequate or the
    /// sharding is invalid; [`PersistError::Io`] on file-system failures.
    #[allow(clippy::too_many_arguments)]
    pub fn create(
        dir: &Path,
        cat: &Catalog,
        spec: RelSpec,
        d: Decomposition,
        shard_cols: ColSet,
        shards: usize,
        fd_checking: bool,
        policy: GroupCommitPolicy,
    ) -> Result<Self, PersistError> {
        std::fs::create_dir_all(dir)?;
        match std::fs::remove_file(dir.join(crate::checkpoint::CHECKPOINT_FILE)) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        let rel = ConcurrentRelation::new(cat, spec.clone(), d.clone(), shard_cols, shards)?;
        if !fd_checking {
            rel.with_all_shards_mut_stamped(|ss| {
                for s in ss.iter_mut() {
                    s.set_fd_checking(false);
                }
                ((), None)
            });
        }
        let schema = DurableSchema {
            catalog: cat.clone(),
            spec: spec.clone(),
            shard_cols,
            shards: shards as u32,
            decomposition_src: d.to_let_notation(cat),
            fd_checking,
        };
        let wal = Wal::create(&dir.join(WAL_FILE), policy, &schema, 0, 0)?;
        Ok(DurableRelation {
            rel,
            wal,
            cat: cat.clone(),
            spec,
            shard_cols,
            shards,
            fd_checking,
            dir: dir.to_path_buf(),
        })
    }

    /// Recovers the durable relation stored in `dir`: loads the checkpoint
    /// (if one exists), rebuilds it through the O(n) bulk loader, replays
    /// the log tail per shard past each shard's checkpoint watermark, and
    /// reopens the log for appending (discarding a torn tail, whose
    /// records were by definition never committed).
    ///
    /// The recovered relation re-synthesizes the decomposition it crashed
    /// with — including any representation migrations the log replayed —
    /// and continues serving and logging from there.
    ///
    /// # Errors
    ///
    /// [`PersistError::Corrupt`] when neither a checkpoint nor a readable
    /// log meta record exists, or when the log was truncated by a
    /// checkpoint that has since been lost; [`PersistError::Io`] /
    /// [`PersistError::Wire`] on lower-level failures.
    pub fn open(dir: &Path, policy: GroupCommitPolicy) -> Result<Self, PersistError> {
        let wal_path = dir.join(WAL_FILE);
        let ck = read_checkpoint(dir)?;
        let scanned = read_wal(&wal_path)?;
        let term = scanned.term.max(ck.as_ref().map_or(0, |c| c.term));
        let (schema, mut w, image) = match (ck, &scanned.meta) {
            (Some(ck), _) => {
                if ck.shard_stamps.len() != ck.schema.shards as usize {
                    return Err(PersistError::Corrupt(
                        "checkpoint watermark count disagrees with its shard count".into(),
                    ));
                }
                (ck.schema, ck.shard_stamps, Some(ck.tuples))
            }
            (None, Some((schema, base))) => {
                if *base != 0 {
                    return Err(PersistError::Corrupt(
                        "log was truncated by a checkpoint that is now missing".into(),
                    ));
                }
                (schema.clone(), vec![0; schema.shards as usize], None)
            }
            (None, None) => {
                return Err(PersistError::Corrupt(
                    "no checkpoint and no readable log meta record".into(),
                ))
            }
        };
        let rel = build_relation(&schema, image.map(|tuples| (tuples, &w[..])))?;
        let mut max_seq = scanned
            .meta
            .as_ref()
            .map_or(0, |(_, b)| *b)
            .max(w.iter().copied().max().unwrap_or(0));
        for e in &scanned.entries {
            max_seq = max_seq.max(e.seq);
            replay_record(&rel, &schema, &mut w, e.seq, &e.record)?;
        }
        // Reopen for appending. If the log's own meta was unreadable (the
        // checkpoint carried us), start a fresh self-describing log instead
        // of appending to a headerless file.
        let wal = if scanned.meta.is_some() {
            Wal::open_for_append(&wal_path, policy, max_seq + 1, scanned.valid_len, term)?
        } else {
            Wal::create(&wal_path, policy, &schema, max_seq, term)?
        };
        Ok(DurableRelation {
            rel,
            wal,
            cat: schema.catalog.clone(),
            spec: schema.spec.clone(),
            shard_cols: schema.shard_cols,
            shards: schema.shards as usize,
            fd_checking: schema.fd_checking,
            dir: dir.to_path_buf(),
        })
    }

    // -- mutations (all logged) ---------------------------------------------

    /// Does this pattern pin the shard columns?
    fn pins(&self, dom: ColSet) -> bool {
        self.shard_cols.is_subset(dom)
    }
    /// Durable `insert`: logs and applies under the owning shard's lock.
    ///
    /// # Errors
    ///
    /// [`PersistError::Op`] with the underlying
    /// [`SynthRelation::insert`] error; [`PersistError::Io`] if a
    /// threshold group commit fails.
    pub fn insert(&self, t: Tuple) -> Result<bool, PersistError> {
        let i = self.rel.owning_shard(&t);
        // Encode (and size-check) outside the lock: the in-lock append is
        // then infallible, so a refused record changes no state.
        let rec = Wal::encode_record(&WalRecord::Insert(t.clone()))?;
        let res = self.rel.with_shard_mut_stamped(i, |shard| {
            let seq = self.wal.append_encoded(&rec);
            (shard.insert(t), Some(seq))
        });
        self.wal.maybe_commit()?;
        res.map_err(PersistError::Op)
    }

    /// Durable `remove` by pattern: one shard when the pattern pins the
    /// shard columns, all shards (index order, one record) otherwise.
    /// Returns the number of tuples removed.
    ///
    /// # Errors
    ///
    /// As for [`SynthRelation::remove`], wrapped in
    /// [`PersistError::Op`].
    pub fn remove(&self, pattern: &Tuple) -> Result<usize, PersistError> {
        let rec = Wal::encode_record(&WalRecord::Remove(pattern.clone()))?;
        let res = if self.pins(pattern.dom()) {
            let i = self.rel.owning_shard(pattern);
            self.rel.with_shard_mut_stamped(i, |shard| {
                let seq = self.wal.append_encoded(&rec);
                (shard.remove(pattern), Some(seq))
            })
        } else {
            self.rel.with_all_shards_mut_stamped(|shards| {
                let seq = self.wal.append_encoded(&rec);
                let mut n = 0;
                for s in shards.iter_mut() {
                    match s.remove(pattern) {
                        Ok(k) => n += k,
                        Err(e) => return (Err(e), Some(seq)),
                    }
                }
                (Ok(n), Some(seq))
            })
        };
        self.wal.maybe_commit()?;
        res.map_err(PersistError::Op)
    }

    /// Durable `insert_many`: the batch is grouped by owning shard without
    /// holding any lock, then each group is logged as **one per-shard
    /// record** and applied under one write-lock hold of its shard.
    /// Returns the total number of tuples inserted.
    ///
    /// # Errors
    ///
    /// The first error any shard reports (earlier shards' groups persist,
    /// as for [`ConcurrentRelation::insert_many`]).
    pub fn insert_many<I: IntoIterator<Item = Tuple>>(
        &self,
        tuples: I,
    ) -> Result<usize, PersistError> {
        self.batch_insert(tuples, false)
    }

    /// Durable `bulk_load`: as [`insert_many`](DurableRelation::insert_many)
    /// but each shard runs the O(n) structural bulk loader.
    ///
    /// # Errors
    ///
    /// As for [`insert_many`](DurableRelation::insert_many).
    pub fn bulk_load<I: IntoIterator<Item = Tuple>>(
        &self,
        tuples: I,
    ) -> Result<usize, PersistError> {
        self.batch_insert(tuples, true)
    }

    fn batch_insert<I: IntoIterator<Item = Tuple>>(
        &self,
        tuples: I,
        bulk: bool,
    ) -> Result<usize, PersistError> {
        let mut groups: Vec<Vec<Tuple>> = (0..self.shards).map(|_| Vec::new()).collect();
        for t in tuples {
            groups[self.rel.owning_shard(&t)].push(t);
        }
        let mut inserted = 0;
        for (i, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            // The record is serialized straight from the group (no owned
            // WalRecord clone) and size-checked before the shard lock is
            // taken; the group then moves into the shard's batch engine.
            let rec = match Wal::encode_insert_batch(bulk, &group) {
                Ok(rec) => rec,
                Err(e) => {
                    self.wal.maybe_commit()?;
                    return Err(e);
                }
            };
            let res = self.rel.with_shard_mut_stamped(i, |shard| {
                let seq = self.wal.append_encoded(&rec);
                let r = if bulk {
                    shard.bulk_load(group)
                } else {
                    shard.insert_many(group)
                };
                (r, Some(seq))
            });
            match res {
                Ok(n) => inserted += n,
                Err(e) => {
                    self.wal.maybe_commit()?;
                    return Err(PersistError::Op(e));
                }
            }
        }
        self.wal.maybe_commit()?;
        Ok(inserted)
    }

    /// Durable `remove_many`: one record, applied to every shard under one
    /// all-shard hold (pattern removals are the cross-shard maintenance
    /// path — cleanup sweeps, retention). Returns the number removed.
    ///
    /// # Errors
    ///
    /// As for [`SynthRelation::remove_many`], wrapped in
    /// [`PersistError::Op`].
    pub fn remove_many(&self, patterns: &[Tuple]) -> Result<usize, PersistError> {
        let rec = Wal::encode_record(&WalRecord::RemoveMany(patterns.to_vec()))?;
        let res = self.rel.with_all_shards_mut_stamped(|shards| {
            let seq = self.wal.append_encoded(&rec);
            let mut n = 0;
            for s in shards.iter_mut() {
                match s.remove_many(patterns.iter()) {
                    Ok(k) => n += k,
                    Err(e) => return (Err(e), Some(seq)),
                }
            }
            (Ok(n), Some(seq))
        });
        self.wal.maybe_commit()?;
        res.map_err(PersistError::Op)
    }

    /// Durable representation migration: logs a migration epoch marker
    /// (the new decomposition identity) and re-represents every shard as
    /// one epoch. A recovered relation replays the marker and comes back
    /// in the migrated representation.
    ///
    /// # Errors
    ///
    /// As for [`ConcurrentRelation::migrate_to`], wrapped in
    /// [`PersistError::Migrate`].
    pub fn migrate_to(&self, d: Decomposition) -> Result<(), PersistError> {
        let rec = Wal::encode_record(&WalRecord::MigrationEpoch(d.to_let_notation(&self.cat)))?;
        let res = self
            .rel
            .migrate_to_stamped(d, || self.wal.append_encoded(&rec));
        self.wal.maybe_commit()?;
        res.map_err(PersistError::Migrate)
    }

    /// Runs `f` with exclusive, *logged* access to the partition owning
    /// `key` — the durable analog of
    /// [`ConcurrentRelation::with_partition_mut`] for atomic
    /// read-modify-write sequences: reads inside the closure go straight
    /// to the shard; writes apply immediately and are collected into **one
    /// compound log record** ([`WalRecord::Txn`]) appended when the
    /// closure ends, still under the shard's write lock. One frame means
    /// the whole sequence is crash-atomic: a torn log tail (or a
    /// group-commit flush racing mid-closure) can never persist a remove
    /// without its re-insert.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] if the closing threshold group commit fails.
    ///
    /// # Panics
    ///
    /// Panics if `key` does not bind every shard column.
    pub fn with_partition_mut<T>(
        &self,
        key: &Tuple,
        f: impl FnOnce(&mut DurablePartition<'_>) -> T,
    ) -> Result<T, PersistError> {
        assert!(
            self.pins(key.dom()),
            "with_partition_mut requires all shard columns bound"
        );
        let i = self.rel.owning_shard(key);
        let out = self.rel.with_shard_mut_stamped(i, |shard| {
            let mut txn = TxnBuilder::default();
            let r = {
                let mut p = DurablePartition {
                    shard,
                    shard_cols: self.shard_cols,
                    txn: &mut txn,
                };
                f(&mut p)
            };
            let stamp = if txn.is_empty() {
                None // read-only closure: nothing to log or re-stamp
            } else {
                // Infallible: every op was size-checked (and encoded) by
                // the builder before it was applied to the shard.
                Some(self.wal.append_encoded(&txn.finish()))
            };
            (r, stamp)
        });
        self.wal.maybe_commit()?;
        Ok(out)
    }

    // -- durability control -------------------------------------------------

    /// The group commit: flushes every pending log record as one
    /// contiguous write + one fsync. Returns the highest durable sequence
    /// number — every operation logged at or below it now survives a
    /// crash.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] from the write or fsync.
    pub fn commit(&self) -> Result<u64, PersistError> {
        Ok(self.wal.commit()?)
    }

    /// Writes a checkpoint and truncates the log prefix it covers.
    ///
    /// The per-shard snapshot vector is collected from the published
    /// snapshots (**no shard write lock is held at any point** — writers
    /// keep committing while the checkpoint serializes), each paired with
    /// its exact log watermark. After the checkpoint file is durable
    /// (sidecar + fsync + atomic rename), the log keeps only records past
    /// the lowest watermark. Returns that truncation point.
    ///
    /// # Cost
    ///
    /// A checkpoint is a streaming read of the pinned view: one linear
    /// scan ([`ReadView::scan_all`] — the constant-space full-relation
    /// plan, every tuple exactly once), each emitted valuation encoded
    /// straight into the image buffer, then one write + fsync of that
    /// buffer. It builds no [`Relation`] and no tuple, so its cost is the
    /// traversal plus the I/O — a fraction of a microsecond per live tuple
    /// on top of the fsync — and its only allocation that grows with the
    /// relation is the image buffer itself. The abstraction function α
    /// ([`to_relation`](DurableRelation::to_relation)) is what the tests
    /// hold the image to; it is not how the image is produced.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] from the checkpoint write or log rotation;
    /// [`PersistError::CheckpointCount`] if the scan disagrees with the
    /// view's tuple count (nothing is written, the log is not truncated).
    pub fn checkpoint(&self) -> Result<u64, PersistError> {
        let view = self.rel.read_view();
        // Group-commit the log before the checkpoint can become a source
        // of truth: the view may contain operations whose records are
        // still buffer-only, and a durable checkpoint holding seq `s`
        // while some record below `s` is unflushed would let a crash keep
        // a later operation and lose an earlier one — a state no live
        // execution produces. After this flush, every record at or below
        // any collected watermark is log-durable. (Records appended after
        // the view was collected may flush too — harmless, commits only
        // strengthen durability.)
        self.wal.commit()?;
        let shard_stamps: Vec<u64> = (0..view.shard_count())
            .map(|i| view.shard_stamp(i))
            .collect();
        let schema = self.schema_of(&view);
        let image = CheckpointWriter::new(&schema, self.wal.term(), &shard_stamps, view.len());
        write_view_checkpoint(&self.dir, &view, image)?;
        let keep_after = shard_stamps.iter().copied().min().unwrap_or(0);
        self.wal.rotate(keep_after, &schema)?;
        Ok(keep_after)
    }

    /// The highest log sequence number known durable.
    pub fn durable_seq(&self) -> u64 {
        self.wal.durable_seq()
    }

    /// Bytes appended to the log but not yet flushed — the group-commit
    /// flush lag ([`Wal::pending_bytes`]). A serving front end's admission
    /// control watches this: past its threshold it forces a commit (or
    /// delays new frames) instead of letting the unflushed segment grow
    /// without bound.
    pub fn wal_pending_bytes(&self) -> usize {
        self.wal.pending_bytes()
    }

    // -- replication hooks --------------------------------------------------

    /// The current replication term (0 until a promotion ever happens).
    pub fn term(&self) -> u64 {
        self.wal.term()
    }

    /// The current log segment's base sequence number: shipping cursors at
    /// or past it can be served from the log; older cursors need a
    /// checkpoint.
    pub fn base_seq(&self) -> u64 {
        self.wal.base_seq()
    }

    /// Seals the log under `new_term`: appends a durable
    /// [`WalRecord::TermBump`] and group-commits it, so by the time this
    /// returns the relation is fenced against every older term. Promotion
    /// calls this before accepting its first write.
    ///
    /// # Errors
    ///
    /// [`PersistError::Corrupt`] if `new_term` does not exceed the current
    /// term; [`PersistError::Io`] if the commit fails.
    pub fn bump_term(&self, new_term: u64) -> Result<u64, PersistError> {
        let seq = self.wal.bump_term(new_term)?;
        self.wal.commit()?;
        Ok(seq)
    }

    /// Reads the raw bytes of committed log frames with sequence numbers in
    /// `(after, durable_seq]` (bounded to roughly `max_bytes` per call) —
    /// the primary-side shipping read. See [`Wal::committed_frames_after`].
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] if the log file cannot be read.
    pub fn committed_frames_after(
        &self,
        after: u64,
        max_bytes: usize,
    ) -> Result<TailRead, PersistError> {
        Ok(self.wal.committed_frames_after(after, max_bytes)?)
    }

    /// The relation's rebuild description as of the *published* state —
    /// catalog, spec, sharding, FD mode and the currently published
    /// decomposition identity.
    pub fn durable_schema(&self) -> DurableSchema {
        self.schema_of(&self.rel.read_view())
    }

    /// The rebuild description with the decomposition identity `view` was
    /// published under (a view never mixes decompositions).
    fn schema_of(&self, view: &ReadView) -> DurableSchema {
        DurableSchema {
            catalog: self.cat.clone(),
            spec: self.spec.clone(),
            shard_cols: self.shard_cols,
            shards: self.shards as u32,
            decomposition_src: view.shard(0).decomposition().to_let_notation(&self.cat),
            fd_checking: self.fd_checking,
        }
    }

    /// The raw bytes of the latest durable checkpoint image, or `None` if
    /// no checkpoint has ever been written — shipped verbatim to
    /// bootstrapping followers.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on a read failure other than absence.
    pub fn checkpoint_bytes(&self) -> Result<Option<Vec<u8>>, PersistError> {
        match std::fs::read(self.dir.join(crate::checkpoint::CHECKPOINT_FILE)) {
            Ok(b) => Ok(Some(b)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    // -- reads (unlogged: the underlying relation's published snapshots) ----

    /// The underlying concurrent relation, for reads, validation and
    /// profiling. Mutating through it **bypasses the log** — recovery will
    /// not know about such writes; use the durable methods instead.
    pub fn relation(&self) -> &ConcurrentRelation {
        &self.rel
    }

    /// The relation's directory (log + checkpoint files).
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The column catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.cat
    }

    /// The relational specification.
    pub fn spec(&self) -> &RelSpec {
        &self.spec
    }

    /// A cached wait-free read handle (see
    /// [`ConcurrentRelation::read_handle`]).
    pub fn read_handle(&self) -> ReadHandle<'_> {
        self.rel.read_handle()
    }

    /// A detached per-shard snapshot vector (see
    /// [`ConcurrentRelation::read_view`]).
    pub fn read_view(&self) -> ReadView {
        self.rel.read_view()
    }

    /// Number of tuples across the published shard snapshots (see
    /// [`ConcurrentRelation::len`]).
    pub fn len(&self) -> usize {
        self.rel.len()
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.rel.is_empty()
    }

    /// The whole relation as a reference [`Relation`]: the abstraction
    /// function α over every shard — the test oracle, not a scan (see
    /// [`ConcurrentRelation::to_relation`]).
    pub fn to_relation(&self) -> Relation {
        self.rel.to_relation()
    }
}

/// Streams every tuple of `view` into `image`, seals it, and only then
/// writes it atomically into `dir` — so an image the scan and the header
/// disagree about never reaches the disk.
fn write_view_checkpoint(
    dir: &Path,
    view: &ReadView,
    mut image: CheckpointWriter,
) -> Result<(), PersistError> {
    let cols = view.shard(0).spec().cols();
    view.scan_all(&mut Bindings::new(), |b| image.push_bindings(b, cols))?;
    write_checkpoint(dir, &image.finish()?)?;
    Ok(())
}

/// Builds the in-memory relation `schema` describes and, given a decoded
/// checkpoint `image` (its tuples and per-shard watermarks), loads the
/// tuples through the O(n) bulk loader and stamps each shard with its
/// watermark. The tuples are consumed: they move into the relation, they
/// are not cloned out of the decoded checkpoint.
///
/// Shared by crash recovery ([`DurableRelation::open`]) and replication
/// followers, like [`replay_record`].
///
/// # Errors
///
/// [`PersistError::Wire`] if the schema's decomposition no longer parses,
/// [`PersistError::Build`] if it is inadequate, [`PersistError::Op`] if the
/// bulk load rejects the image.
pub fn build_relation(
    schema: &DurableSchema,
    image: Option<(Vec<Tuple>, &[u64])>,
) -> Result<ConcurrentRelation, PersistError> {
    let rel = ConcurrentRelation::new(
        &schema.catalog,
        schema.spec.clone(),
        schema.build_decomposition()?,
        schema.shard_cols,
        schema.shards as usize,
    )?;
    if !schema.fd_checking {
        rel.with_all_shards_mut_stamped(|ss| {
            for s in ss.iter_mut() {
                s.set_fd_checking(false);
            }
            ((), None)
        });
    }
    if let Some((tuples, shard_stamps)) = image {
        // Routing is deterministic (same shard columns, same shard count,
        // same hash), so every tuple lands on the shard whose watermark
        // covers it.
        rel.bulk_load(tuples)?;
        for (i, &s) in shard_stamps.iter().enumerate() {
            rel.with_shard_mut_stamped(i, |_| ((), Some(s)));
        }
    }
    Ok(rel)
}

/// Applies one logged record to `rel`, respecting the per-shard watermarks
/// `w` (a record reaches a shard only if its sequence number exceeds the
/// shard's watermark, and stamps the shard's publish with that sequence
/// number). Operation-level errors are swallowed: they re-occur exactly as
/// they did live, where the record was logged but the operation returned
/// the error to the caller.
///
/// This is the single replay routine shared by crash recovery
/// ([`DurableRelation::open`]) and replication followers, which apply
/// shipped frames through it one at a time — the exactness argument (state
/// = logged prefix, per shard) is therefore identical on both paths.
///
/// # Errors
///
/// [`PersistError::Corrupt`] if a migration marker straddles the
/// watermarks; [`PersistError::Wire`] if a logged decomposition fails to
/// re-parse.
pub fn replay_record(
    rel: &ConcurrentRelation,
    schema: &DurableSchema,
    w: &mut [u64],
    seq: u64,
    rec: &WalRecord,
) -> Result<(), PersistError> {
    match rec {
        // `read_wal` only surfaces a meta record at offset 0, which is
        // filtered into `ScannedWal::meta`, never into the entries. A
        // term bump carries no state; the caller tracks the term itself.
        WalRecord::Meta { .. } | WalRecord::TermBump(_) => {}
        WalRecord::Insert(t) => {
            let i = rel.owning_shard(t);
            if w[i] < seq {
                rel.with_shard_mut_stamped(i, |s| {
                    let _ = s.insert(t.clone());
                    ((), Some(seq))
                });
                w[i] = seq;
            }
        }
        WalRecord::Remove(pat) => {
            if schema.shard_cols.is_subset(pat.dom()) {
                let i = rel.owning_shard(pat);
                if w[i] < seq {
                    rel.with_shard_mut_stamped(i, |s| {
                        let _ = s.remove(pat);
                        ((), Some(seq))
                    });
                    w[i] = seq;
                }
            } else {
                // Unpinned: every shard not yet past this record, in
                // index order, stopping at the first (deterministic)
                // error exactly as the live loop did.
                for (i, wi) in w.iter_mut().enumerate() {
                    if *wi < seq {
                        let ok =
                            rel.with_shard_mut_stamped(i, |s| (s.remove(pat).is_ok(), Some(seq)));
                        *wi = seq;
                        if !ok {
                            break;
                        }
                    }
                }
            }
        }
        WalRecord::InsertMany(ts) | WalRecord::BulkLoad(ts) => {
            let Some(first) = ts.first() else {
                return Ok(());
            };
            let bulk = matches!(rec, WalRecord::BulkLoad(_));
            let i = rel.owning_shard(first);
            if w[i] < seq {
                rel.with_shard_mut_stamped(i, |s| {
                    let _ = if bulk {
                        s.bulk_load(ts.iter().cloned())
                    } else {
                        s.insert_many(ts.iter().cloned())
                    };
                    ((), Some(seq))
                });
                w[i] = seq;
            }
        }
        WalRecord::RemoveMany(pats) => {
            for (i, wi) in w.iter_mut().enumerate() {
                if *wi < seq {
                    let ok = rel.with_shard_mut_stamped(i, |s| {
                        (s.remove_many(pats.iter()).is_ok(), Some(seq))
                    });
                    *wi = seq;
                    if !ok {
                        break;
                    }
                }
            }
        }
        WalRecord::Txn(ops) => {
            // Every sub-operation of a partition critical section pins
            // the same shard; route by the first one.
            let Some(i) = ops.first().map(|op| match op {
                WalRecord::Insert(t) | WalRecord::Remove(t) => rel.owning_shard(t),
                _ => 0,
            }) else {
                return Ok(());
            };
            if w[i] < seq {
                rel.with_shard_mut_stamped(i, |s| {
                    for op in ops {
                        match op {
                            WalRecord::Insert(t) => {
                                let _ = s.insert(t.clone());
                            }
                            WalRecord::Remove(pat) => {
                                let _ = s.remove(pat);
                            }
                            // Only single-tuple writes are ever logged
                            // inside a transaction.
                            _ => {}
                        }
                    }
                    ((), Some(seq))
                });
                w[i] = seq;
            }
        }
        WalRecord::MigrationEpoch(src) => {
            // Migration publishes are seqlock-atomic across a view, so
            // a checkpoint's watermarks sit entirely on one side of
            // every marker.
            if w.iter().all(|&x| x >= seq) {
                return Ok(());
            }
            if !w.iter().all(|&x| x < seq) {
                return Err(PersistError::Corrupt(
                    "migration marker straddles the checkpoint's shard watermarks".into(),
                ));
            }
            let mut cat = schema.catalog.clone();
            let d = relic_decomp::parse(&mut cat, src)
                .map_err(|e| PersistError::Wire(WireError::Decomposition(e.to_string())))?;
            if rel.migrate_to_stamped(d, || seq).is_ok() {
                for x in w.iter_mut() {
                    *x = seq;
                }
            }
            // On failure the live migration failed too, published
            // nothing and stamped nothing — leave the watermarks alone.
        }
    }
    Ok(())
}

/// Logged exclusive access to one partition, handed to
/// [`DurableRelation::with_partition_mut`]'s closure: reads pass straight
/// through to the shard; writes apply immediately and accumulate into the
/// critical section's single compound [`WalRecord::Txn`] (appended when
/// the closure ends — the sub-operations replay in order against the same
/// per-shard state they originally saw, so outcomes — including rejected
/// writes — reproduce exactly).
///
/// Each write is encoded into the transaction frame *before* it is
/// applied; a write that would overflow the frame cap is refused with
/// [`OpError::TooLarge`] and changes nothing, so an oversized sequence can
/// never end up applied to the shard but unloggable.
#[derive(Debug)]
pub struct DurablePartition<'a> {
    shard: &'a mut SynthRelation,
    shard_cols: ColSet,
    txn: &'a mut TxnBuilder,
}

impl DurablePartition<'_> {
    /// Read access to the partition's relation (queries are not logged).
    pub fn relation(&self) -> &SynthRelation {
        self.shard
    }

    /// `query` against this partition.
    ///
    /// # Errors
    ///
    /// As for [`SynthRelation::query`].
    pub fn query(&self, pattern: &Tuple, out: ColSet) -> Result<Vec<Tuple>, OpError> {
        self.shard.query(pattern, out)
    }

    /// Logged `insert` into this partition.
    ///
    /// # Errors
    ///
    /// As for [`SynthRelation::insert`], plus [`OpError::TooLarge`] if the
    /// write would overflow the transaction's log frame (refused before
    /// applying).
    pub fn insert(&mut self, t: Tuple) -> Result<bool, OpError> {
        self.txn
            .push(&WalRecord::Insert(t.clone()))
            .map_err(frame_cap_to_op)?;
        self.shard.insert(t)
    }

    /// Logged `remove` from this partition. The pattern must pin the shard
    /// columns (an unpinned pattern would be replayed against every shard,
    /// while the live removal only saw this one).
    ///
    /// # Errors
    ///
    /// As for [`SynthRelation::remove`], plus [`OpError::TooLarge`] if the
    /// write would overflow the transaction's log frame (refused before
    /// applying).
    ///
    /// # Panics
    ///
    /// Panics if `pattern` does not bind every shard column.
    pub fn remove(&mut self, pattern: &Tuple) -> Result<usize, OpError> {
        assert!(
            self.shard_cols.is_subset(pattern.dom()),
            "partition removals must pin the shard columns"
        );
        self.txn
            .push(&WalRecord::Remove(pattern.clone()))
            .map_err(frame_cap_to_op)?;
        self.shard.remove(pattern)
    }
}

/// Maps [`TxnBuilder::push`]'s cap refusal into the operation-level error
/// a partition closure's caller sees.
fn frame_cap_to_op(e: PersistError) -> OpError {
    match e {
        PersistError::FrameTooLarge { len, max } => OpError::TooLarge { len, max },
        // push only ever reports FrameTooLarge; keep a sane fallback.
        _ => OpError::TooLarge {
            len: usize::MAX,
            max: MAX_PAYLOAD as usize,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relic_spec::Value;

    struct Cols {
        host: relic_spec::ColId,
        ts: relic_spec::ColId,
        bytes: relic_spec::ColId,
    }

    fn schema_parts() -> (Catalog, Cols, RelSpec, Decomposition) {
        let mut cat = Catalog::new();
        let d = relic_decomp::parse(
            &mut cat,
            "let u : {host,ts} . {bytes} = unit {bytes} in
             let h : {host} . {ts,bytes} = {ts} -[avl]-> u in
             let x : {} . {host,ts,bytes} = {host} -[htable]-> h in x",
        )
        .unwrap();
        let cols = Cols {
            host: cat.col("host").unwrap(),
            ts: cat.col("ts").unwrap(),
            bytes: cat.col("bytes").unwrap(),
        };
        let spec = RelSpec::new(cat.all()).with_fd(cols.host | cols.ts, cols.bytes.set());
        (cat, cols, spec, d)
    }

    fn tup(cols: &Cols, h: i64, t: i64, b: i64) -> Tuple {
        Tuple::from_pairs([
            (cols.host, Value::from(h)),
            (cols.ts, Value::from(t)),
            (cols.bytes, Value::from(b)),
        ])
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("relic_durable_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fresh(dir: &Path, policy: GroupCommitPolicy) -> (Cols, DurableRelation) {
        let (cat, cols, spec, d) = schema_parts();
        let r =
            DurableRelation::create(dir, &cat, spec, d, cols.host.set(), 4, true, policy).unwrap();
        (cols, r)
    }

    #[test]
    fn committed_ops_survive_reopen() {
        let dir = tmpdir("reopen");
        let (cols, r) = fresh(&dir, GroupCommitPolicy::manual());
        for h in 0..6i64 {
            for t in 0..5i64 {
                r.insert(tup(&cols, h, t, h + t)).unwrap();
            }
        }
        r.remove(&Tuple::from_pairs([(cols.host, Value::from(2))]))
            .unwrap();
        r.insert_many((0..4i64).map(|t| tup(&cols, 9, t, t)))
            .unwrap();
        let live = r.to_relation();
        r.commit().unwrap();
        drop(r);
        let r2 = DurableRelation::open(&dir, GroupCommitPolicy::manual()).unwrap();
        assert_eq!(r2.to_relation(), live);
        r2.relation().validate().unwrap();
        // The reopened relation keeps serving and logging.
        r2.insert(tup(&cols, 50, 0, 0)).unwrap();
        r2.commit().unwrap();
        let live2 = r2.to_relation();
        drop(r2);
        let r3 = DurableRelation::open(&dir, GroupCommitPolicy::manual()).unwrap();
        assert_eq!(r3.to_relation(), live2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncommitted_tail_is_lost_committed_prefix_is_not() {
        let dir = tmpdir("uncommitted");
        let (cols, r) = fresh(&dir, GroupCommitPolicy::manual());
        for t in 0..5i64 {
            r.insert(tup(&cols, 1, t, t)).unwrap();
        }
        r.commit().unwrap();
        let committed = r.to_relation();
        // Uncommitted suffix: never flushed, must vanish on recovery.
        for t in 5..9i64 {
            r.insert(tup(&cols, 1, t, t)).unwrap();
        }
        drop(r);
        let r2 = DurableRelation::open(&dir, GroupCommitPolicy::manual()).unwrap();
        assert_eq!(r2.to_relation(), committed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_truncates_and_recovers_without_log_tail() {
        let dir = tmpdir("ckpt");
        let (cols, r) = fresh(&dir, GroupCommitPolicy::manual());
        for h in 0..8i64 {
            for t in 0..6i64 {
                r.insert(tup(&cols, h, t, h * t)).unwrap();
            }
        }
        r.checkpoint().unwrap();
        // Post-checkpoint tail, committed.
        r.insert(tup(&cols, 100, 1, 1)).unwrap();
        r.remove(&Tuple::from_pairs([(cols.host, Value::from(3))]))
            .unwrap();
        r.commit().unwrap();
        let live = r.to_relation();
        drop(r);
        let r2 = DurableRelation::open(&dir, GroupCommitPolicy::manual()).unwrap();
        assert_eq!(r2.to_relation(), live);
        r2.relation().validate().unwrap();
        // A second checkpoint over the recovered relation still works.
        r2.checkpoint().unwrap();
        let live2 = r2.to_relation();
        drop(r2);
        let r3 = DurableRelation::open(&dir, GroupCommitPolicy::manual()).unwrap();
        assert_eq!(r3.to_relation(), live2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A scan that disagrees with the header's tuple count is a typed
    /// error raised before anything touches the disk: the previous
    /// checkpoint survives byte for byte and no sidecar is left behind.
    #[test]
    fn checkpoint_count_mismatch_is_typed_and_writes_nothing() {
        let dir = tmpdir("ckcount");
        let (cols, r) = fresh(&dir, GroupCommitPolicy::manual());
        for h in 0..5i64 {
            r.insert(tup(&cols, h, 1, h)).unwrap();
        }
        r.checkpoint().unwrap();
        let ck_path = dir.join(crate::checkpoint::CHECKPOINT_FILE);
        let before = std::fs::read(&ck_path).unwrap();
        r.insert(tup(&cols, 9, 9, 9)).unwrap();
        let view = r.read_view();
        let schema = r.durable_schema();
        for declared in [view.len() - 1, view.len() + 1] {
            let image = CheckpointWriter::new(&schema, 0, &[0; 4], declared);
            match write_view_checkpoint(&dir, &view, image) {
                Err(PersistError::CheckpointCount {
                    declared: d,
                    scanned,
                }) => {
                    assert_eq!(d, declared as u64);
                    assert_eq!(scanned, view.len() as u64);
                }
                other => panic!("expected a count mismatch, got {other:?}"),
            }
            assert_eq!(std::fs::read(&ck_path).unwrap(), before);
            assert!(!dir.join(crate::checkpoint::CHECKPOINT_TMP).exists());
        }
        // The same scan under the honest count is written.
        let image = CheckpointWriter::new(&schema, 0, &[0; 4], view.len());
        write_view_checkpoint(&dir, &view, image).unwrap();
        assert_ne!(std::fs::read(&ck_path).unwrap(), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn migration_marker_recovers_the_migrated_representation() {
        let dir = tmpdir("migrate");
        let (cols, r) = fresh(&dir, GroupCommitPolicy::manual());
        for h in 0..6i64 {
            r.insert(tup(&cols, h, 1, h)).unwrap();
        }
        let mut cat = r.catalog().clone();
        let flat = relic_decomp::parse(
            &mut cat,
            "let u : {host,ts} . {bytes} = unit {bytes} in
             let x : {} . {host,ts,bytes} = {host,ts} -[avl]-> u in x",
        )
        .unwrap();
        r.migrate_to(flat.clone()).unwrap();
        r.insert(tup(&cols, 7, 7, 7)).unwrap();
        r.commit().unwrap();
        let live = r.to_relation();
        drop(r);
        let r2 = DurableRelation::open(&dir, GroupCommitPolicy::manual()).unwrap();
        assert_eq!(r2.to_relation(), live);
        let view = r2.read_view();
        assert_eq!(
            view.shard(0).decomposition(),
            &flat,
            "recovery must re-synthesize the migrated representation"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn partition_rmw_is_logged_and_recovered() {
        let dir = tmpdir("rmw");
        let (cols, r) = fresh(&dir, GroupCommitPolicy::manual());
        let key = Tuple::from_pairs([(cols.host, Value::from(1)), (cols.ts, Value::from(1))]);
        for round in 0..5i64 {
            r.with_partition_mut(&key, |p| {
                let cur = p
                    .query(&key, cols.bytes.set())
                    .unwrap()
                    .first()
                    .and_then(|t| t.get(cols.bytes).and_then(Value::as_int))
                    .unwrap_or(0);
                if cur > 0 {
                    p.remove(&key).unwrap();
                }
                p.insert(tup(&cols, 1, 1, cur + round + 1)).unwrap();
            })
            .unwrap();
        }
        r.commit().unwrap();
        let live = r.to_relation();
        drop(r);
        let r2 = DurableRelation::open(&dir, GroupCommitPolicy::manual()).unwrap();
        assert_eq!(r2.to_relation(), live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_over_an_old_relation_discards_it() {
        let dir = tmpdir("recreate");
        let (cols, r) = fresh(&dir, GroupCommitPolicy::manual());
        r.insert(tup(&cols, 1, 1, 1)).unwrap();
        r.checkpoint().unwrap();
        drop(r);
        let (cols, r2) = fresh(&dir, GroupCommitPolicy::manual());
        assert!(r2.is_empty(), "create starts fresh");
        r2.insert(tup(&cols, 2, 2, 2)).unwrap();
        r2.commit().unwrap();
        drop(r2);
        let r3 = DurableRelation::open(&dir, GroupCommitPolicy::manual()).unwrap();
        assert_eq!(r3.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
