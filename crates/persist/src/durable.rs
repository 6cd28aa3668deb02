//! [`DurableRelation`]: a sharded, concurrently-writable relation whose
//! committed state survives a crash.
//!
//! # Logging discipline
//!
//! Every write is an [`Op`] routed by
//! [`ConcurrentRelation::apply_with`]; this module's hook logs each unit
//! of it — the op, or one shard's group of a batch — inside the write-lock
//! critical section of the shards it touches, where:
//!
//! 1. the record is appended to the write-ahead log's in-memory segment,
//!    drawing a global sequence number — **no file I/O under the shard
//!    lock** (it was encoded and size-checked before any lock was taken,
//!    so a refused record changes nothing);
//! 2. the op applies to the shards — a migration or an update first, its
//!    record appended only once it succeeded;
//! 3. the shards publish their snapshots *stamped with the record's
//!    sequence number* — under the existing publish-before-unlock
//!    discipline, so the published `(state, stamp)` pair is exact: the
//!    state contains precisely the logged operations with `seq <= stamp`.
//!
//! Per-shard log order therefore equals per-shard apply order, which is
//! what makes replay deterministic: recovery re-applies each shard's
//! missing suffix, routed by the same `apply_with`, against exactly the
//! states those operations originally saw. Operations that failed live
//! (duplicate inserts, FD rejections) are logged all the same, fail
//! identically on replay and are swallowed. A failed migration rolled
//! back and changed nothing, and is not logged.
//!
//! Batches are logged **per shard** — one record, one lock acquisition,
//! one publish per touched shard. Two ops are logged *lowered*: a
//! predicate removal as the `RemoveMany` of the exact tuples it removed,
//! found under the hold that removes them, and an update as a
//! [`Txn`](crate::wal::WalRecord::Txn) removing the old tuple and
//! inserting the new one (an update whose key matches two stored tuples,
//! possible only with FD checking off, is refused as not a key).
//! Partition read-modify-write sequences
//! ([`with_partition_mut`](DurableRelation::with_partition_mut)) apply as
//! the closure runs and are appended as **one compound `Txn` frame when it
//! ends**, still under the shard lock — so the whole sequence is one
//! crash-atomic log unit, and per-shard log order still equals per-shard
//! apply order (the closure is a single apply unit no same-shard writer
//! can interleave).
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
use crate::wal::{
    read_wal, EncodedRecord, GroupCommitPolicy, TailRead, TxnBuilder, Wal, WalRecord, MAX_PAYLOAD,
};
use crate::{DurableSchema, PersistError};
use relic_concurrent::{ConcurrentRelation, ReadHandle, ReadView, WriteHook};
use relic_core::wire::WireError;
use relic_core::{Bindings, MigrateError, Op, OpError, SynthRelation};
use relic_decomp::Decomposition;
use relic_spec::{Catalog, ColSet, Pattern, RelSpec, Relation, Tuple};
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
        rel.set_fd_checking(fd_checking);
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
        let meta = scanned.meta.is_some();
        for e in scanned.entries {
            max_seq = max_seq.max(e.seq);
            replay_record(&rel, &mut w, e.seq, e.record)?;
        }
        // Reopen for appending. If the log's own meta was unreadable (the
        // checkpoint carried us), start a fresh self-describing log instead
        // of appending to a headerless file.
        let wal = if meta {
            Wal::open_for_append(&wal_path, policy, max_seq + 1, scanned.valid_len, term)?
        } else {
            Wal::create(&wal_path, policy, &schema, max_seq, term)?
        };
        Ok(DurableRelation {
            rel,
            wal,
            cat: schema.catalog.clone(),
            spec: schema.spec.clone(),
            fd_checking: schema.fd_checking,
            dir: dir.to_path_buf(),
        })
    }

    // -- mutations (all logged) ---------------------------------------------

    /// Applies one [`Op`] durably: routed by
    /// [`ConcurrentRelation::apply_with`], each unit logged under the hold
    /// that applies it as the module docs describe — a `RemoveWhere` and an
    /// `Update` lowered, any other op as itself, a failed insert or removal
    /// too (a failed migration is not logged). A record is encoded and
    /// size-checked before any state changes, so a refused op changes
    /// nothing. Returns what [`ConcurrentRelation::apply`] counts.
    ///
    /// # Errors
    ///
    /// [`PersistError::Op`] with the op's error ([`OpError::TooLarge`] for
    /// a record past the frame cap); [`PersistError::Io`] if a threshold
    /// group commit fails.
    pub fn apply(&self, op: Op) -> Result<usize, PersistError> {
        self.logged(|log| self.rel.apply_with(op, log))
    }

    /// Runs a routed write with the log's hook, then the threshold group
    /// commit.
    fn logged(
        &self,
        write: impl FnOnce(&mut LogHook<'_>) -> Result<usize, OpError>,
    ) -> Result<usize, PersistError> {
        let res = write(&mut LogHook {
            wal: &self.wal,
            rec: None,
            on_success: None,
            seq: None,
        });
        self.wal.maybe_commit()?;
        res.map_err(PersistError::Op)
    }

    /// Durable `insert`, `apply(Op::Insert(t))`: `true` if the tuple was
    /// new. Errors as for [`apply`](DurableRelation::apply).
    pub fn insert(&self, t: Tuple) -> Result<bool, PersistError> {
        Ok(self.apply(Op::Insert(t))? == 1)
    }

    /// Durable `remove` by pattern, `apply(Op::Remove(..))`. Errors as for
    /// [`apply`](DurableRelation::apply).
    pub fn remove(&self, pattern: &Tuple) -> Result<usize, PersistError> {
        self.apply(Op::Remove(pattern.clone()))
    }

    /// Durable `insert_many`, `apply(Op::InsertMany(..))` without
    /// collecting the batch first. Errors as for
    /// [`apply`](DurableRelation::apply).
    pub fn insert_many<I: IntoIterator<Item = Tuple>>(
        &self,
        tuples: I,
    ) -> Result<usize, PersistError> {
        self.logged(|log| self.rel.apply_batch_with(tuples, false, log))
    }

    /// Durable `bulk_load`, `apply(Op::BulkLoad(..))` without collecting
    /// the batch first. Errors as for [`apply`](DurableRelation::apply).
    pub fn bulk_load<I: IntoIterator<Item = Tuple>>(
        &self,
        tuples: I,
    ) -> Result<usize, PersistError> {
        self.logged(|log| self.rel.apply_batch_with(tuples, true, log))
    }

    /// Durable `remove_many`, `apply(Op::RemoveMany(..))`. Errors as for
    /// [`apply`](DurableRelation::apply).
    pub fn remove_many(&self, patterns: &[Tuple]) -> Result<usize, PersistError> {
        self.apply(Op::RemoveMany(patterns.to_vec()))
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
            self.rel.shard_cols().is_subset(key.dom()),
            "with_partition_mut requires all shard columns bound"
        );
        let i = self.rel.owning_shard(key);
        let out = self.rel.with_shard_mut_stamped(i, |shard| {
            let mut txn = TxnBuilder::default();
            let r = {
                let mut p = DurablePartition {
                    shard,
                    shard_cols: self.rel.shard_cols(),
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
            shard_cols: self.rel.shard_cols(),
            shards: self.rel.shard_count() as u32,
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
    rel.set_fd_checking(schema.fd_checking);
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
/// number). An op record is routed by [`ConcurrentRelation::apply_with`],
/// exactly as the live write was. Operation-level errors are swallowed:
/// they re-occur exactly as they did live, where the record was logged but
/// the operation returned the error to the caller.
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
    w: &mut [u64],
    seq: u64,
    rec: WalRecord,
) -> Result<(), PersistError> {
    match rec {
        // `read_wal` only surfaces a meta record at offset 0, which is
        // filtered into `ScannedWal::meta`, never into the entries. A
        // term bump carries no state; the caller tracks the term itself.
        WalRecord::Meta { .. } | WalRecord::TermBump(_) => Ok(()),
        WalRecord::Op(op) => {
            // Migration publishes are seqlock-atomic across a view, so a
            // checkpoint's watermarks sit entirely on one side of every
            // marker.
            if matches!(op, Op::Migrate(_))
                && w.iter().any(|&x| x >= seq)
                && w.iter().any(|&x| x < seq)
            {
                return Err(PersistError::Corrupt(
                    "migration marker straddles the checkpoint's shard watermarks".into(),
                ));
            }
            match rel.apply_with(op, &mut Replay { w, seq }) {
                Err(OpError::Migrate(e)) if matches!(*e, MigrateError::Parse(_)) => {
                    Err(PersistError::Wire(WireError::Decomposition(e.to_string())))
                }
                _ => Ok(()),
            }
        }
        WalRecord::Txn(ops) => {
            // Every write of a partition critical section pins its shard.
            let Some(Op::Insert(key) | Op::Remove(key)) = ops.first() else {
                return Ok(());
            };
            let i = rel.owning_shard(key);
            if w[i] < seq {
                rel.with_shard_mut_stamped(i, |s| {
                    for op in &ops {
                        let _ = s.apply_ref(op);
                    }
                    ((), Some(seq))
                });
                w[i] = seq;
            }
            Ok(())
        }
    }
}

/// The live log's part in a routed write: each unit's record is encoded
/// before any lock is taken (the two ops logged lowered: under the hold,
/// from what it finds, read without touching the workload profile) and
/// appended under the hold; its sequence number stamps the unit's publish.
struct LogHook<'a> {
    wal: &'a Wal,
    /// The unit's record, appended before the unit applies. A failed
    /// insert or removal is logged, because replay reproduces the failure
    /// (a batch keeps its accepted prefix).
    rec: Option<EncodedRecord>,
    /// The unit's record when it is appended only after the unit
    /// succeeded: a failed migration or lowered update changed nothing.
    on_success: Option<EncodedRecord>,
    /// The sequence number `rec` was appended under.
    seq: Option<u64>,
}

impl WriteHook for LogHook<'_> {
    fn prepare(&mut self, unit: &Op) -> Result<(), OpError> {
        let encode = |op| Wal::encode_op(op).map_err(frame_cap_to_op);
        (self.rec, self.on_success) = match unit {
            Op::RemoveWhere(_) | Op::Update { .. } => (None, None),
            Op::Migrate(_) => (None, Some(encode(unit)?)),
            op => (Some(encode(op)?), None),
        };
        Ok(())
    }

    fn before(&mut self, unit: &Op, shards: &[&SynthRelation]) -> Result<(), OpError> {
        match unit {
            Op::RemoveWhere(p) => {
                let mut hits = Vec::new();
                for s in shards {
                    hits.extend(s.matching_where(p)?);
                }
                if !hits.is_empty() {
                    let rec = Wal::encode_op(&Op::RemoveMany(hits)).map_err(frame_cap_to_op)?;
                    self.rec = Some(rec);
                }
            }
            Op::Update { pattern, changes } => {
                let mut old = Vec::new();
                for s in shards {
                    old.extend(s.matching_where(&Pattern::from_tuple(pattern))?);
                }
                match &old[..] {
                    [old] => {
                        let mut txn = TxnBuilder::default();
                        txn.push(&Op::Remove(old.clone()))
                            .and_then(|()| txn.push(&Op::Insert(old.merge(changes))))
                            .map_err(frame_cap_to_op)?;
                        self.on_success = Some(txn.finish());
                    }
                    // Two stored tuples under one key (FD checking off):
                    // `update` would rewrite one, and the log could not
                    // say which.
                    [_, _, ..] => {
                        return Err(OpError::PatternNotKey {
                            pattern: pattern.dom(),
                        })
                    }
                    [] => {}
                }
            }
            _ => {}
        }
        // Appended, the record is dropped before the unit applies.
        self.seq = self.rec.take().map(|rec| self.wal.append_encoded(&rec));
        Ok(())
    }

    fn after(&mut self, _shards: &[usize], applied: Option<usize>) -> Option<u64> {
        match self.on_success.take() {
            Some(rec) if applied.is_some() => Some(self.wal.append_encoded(&rec)),
            _ => self.seq.take(),
        }
    }
}

/// Replay's part in a routed write: a shard takes part only while its
/// watermark is below the record, and each shard it reaches advances to
/// the record and publishes stamped with it.
struct Replay<'w> {
    w: &'w mut [u64],
    seq: u64,
}

impl WriteHook for Replay<'_> {
    fn admits(&self, i: usize) -> bool {
        self.w[i] < self.seq
    }

    fn after(&mut self, shards: &[usize], _applied: Option<usize>) -> Option<u64> {
        for &i in shards {
            self.w[i] = self.seq;
        }
        Some(self.seq)
    }
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
            .push(&Op::Insert(t.clone()))
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
            .push(&Op::Remove(pattern.clone()))
            .map_err(frame_cap_to_op)?;
        self.shard.remove(pattern)
    }
}

/// Maps a record encoder's cap refusal into the operation-level error the
/// writer sees.
fn frame_cap_to_op(e: PersistError) -> OpError {
    match e {
        PersistError::FrameTooLarge { len, max } => OpError::TooLarge { len, max },
        // The encoders report only FrameTooLarge for the ops they are
        // given; keep a sane fallback.
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
        r.apply(Op::Migrate(flat.to_let_notation(&cat))).unwrap();
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

    /// A failed migration changed nothing and leaves no marker behind, so
    /// a later write that stamps only some shards, then a checkpoint, does
    /// not leave a marker straddling the shards' watermarks.
    #[test]
    fn a_failed_migration_is_not_logged() {
        let dir = tmpdir("badmigrate");
        let (cols, r) = fresh(&dir, GroupCommitPolicy::manual());
        for h in 0..6i64 {
            r.insert(tup(&cols, h, 1, h)).unwrap();
        }
        let inadequate = "let u : {} . {host,ts,bytes} = unit {host,ts,bytes} in u";
        assert!(matches!(
            r.apply(Op::Migrate(inadequate.to_string())),
            Err(PersistError::Op(OpError::Migrate(_)))
        ));
        r.insert(tup(&cols, 0, 2, 2)).unwrap();
        r.checkpoint().unwrap();
        r.commit().unwrap();
        let live = r.to_relation();
        drop(r);
        let r2 = DurableRelation::open(&dir, GroupCommitPolicy::manual()).unwrap();
        assert_eq!(r2.to_relation(), live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// With FD checking off two stored tuples can share a key the minimal
    /// key screen does not cover. An update by that key is refused, not
    /// applied to one of them unlogged.
    #[test]
    fn an_ambiguous_update_is_refused() {
        let dir = tmpdir("ambiguous");
        // Interned first, `id` is the column the minimal key drops.
        let mut cat = Catalog::new();
        let [id, name, v] = ["id", "name", "v"].map(|c| cat.intern(c));
        let d = relic_decomp::parse(
            &mut cat,
            "let u : {name} . {id,v} = unit {id,v} in
             let x : {} . {id,name,v} = {name} -[htable]-> u in x",
        )
        .unwrap();
        let spec = RelSpec::new(cat.all())
            .with_fd(id.set(), name | v)
            .with_fd(name.set(), id | v);
        let r = DurableRelation::create(
            &dir,
            &cat,
            spec,
            d,
            name.set(),
            2,
            false,
            GroupCommitPolicy::manual(),
        )
        .unwrap();
        let row = |n: &str| {
            Tuple::from_pairs([
                (id, Value::from(1)),
                (name, Value::from(n)),
                (v, Value::from(0)),
            ])
        };
        r.insert(row("a")).unwrap();
        r.insert(row("b")).unwrap();
        let before = r.to_relation();
        let update = Op::Update {
            pattern: Tuple::from_pairs([(id, Value::from(1))]),
            changes: Tuple::from_pairs([(v, Value::from(9))]),
        };
        assert!(matches!(
            r.apply(update),
            Err(PersistError::Op(OpError::PatternNotKey { .. }))
        ));
        assert_eq!(r.to_relation(), before);
        r.commit().unwrap();
        drop(r);
        let r2 = DurableRelation::open(&dir, GroupCommitPolicy::manual()).unwrap();
        assert_eq!(r2.to_relation(), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Lowering a `RemoveWhere` or an `Update` for the log reads the shard
    /// without recording a query: a durable write profiles like a plain one.
    #[test]
    fn lowering_records_nothing_in_the_profile() {
        let dir = tmpdir("lowerprofile");
        let (cols, r) = fresh(&dir, GroupCommitPolicy::manual());
        let (cat, _, spec, d) = schema_parts();
        let plain = ConcurrentRelation::new(&cat, spec, d, cols.host.set(), 4).unwrap();
        let ops = [
            Op::InsertMany((0..8i64).map(|t| tup(&cols, t % 3, t, t)).collect()),
            Op::RemoveWhere(Pattern::new().with(
                cols.ts,
                relic_spec::Pred::Between(Value::from(2), Value::from(4)),
            )),
            Op::Update {
                pattern: Tuple::from_pairs([
                    (cols.host, Value::from(0)),
                    (cols.ts, Value::from(0)),
                ]),
                changes: Tuple::from_pairs([(cols.bytes, Value::from(7))]),
            },
        ];
        for op in ops {
            r.apply(op.clone()).unwrap();
            plain.apply(op).unwrap();
        }
        assert_eq!(r.to_relation(), plain.to_relation());
        assert_eq!(r.relation().profile(), plain.profile());
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
