//! Durable relations: a group-commit write-ahead log, snapshot
//! checkpoints, and crash recovery for the synthesized relations of
//! `relic_core` / `relic_concurrent`.
//!
//! The paper synthesizes purely in-memory representations; this crate makes
//! them survive a process restart without giving up the hot path:
//!
//! * **Write-ahead log** ([`wal`]): an append-only file of length-prefixed,
//!   CRC-checksummed records: one [`relic_core::Op`] each (single insert,
//!   remove-by-pattern, per-shard `insert_many`/`bulk_load` batches,
//!   `remove_many`, migration epoch markers; a predicate removal is logged
//!   as the `remove_many` of what it removed), or a compound transaction
//!   frame for a partition read-modify-write sequence or an update.
//!   Writers append to an in-memory segment under the log's own
//!   mutex — never doing I/O inside a shard critical section — and a
//!   [`commit`](DurableRelation::commit) call or a size/record-count
//!   threshold flushes the whole segment as **one contiguous write + one
//!   fsync** (group commit).
//! * **Checkpoints** ([`checkpoint`]): a sidecar file serializing the
//!   per-shard snapshot vector collected by
//!   [`read_view`](relic_concurrent::ConcurrentRelation::read_view) — no
//!   shard write lock is held while the checkpoint serializes, so writers
//!   keep committing throughout. Serializing is a streaming read: one
//!   linear scan of the pinned snapshots, each emitted valuation encoded
//!   straight into the image (the abstraction function α is the tests'
//!   oracle, not the writer). Each shard's snapshot is paired with the
//!   *writer stamp* its publish carried (the shard's last logged sequence
//!   number), so the checkpoint knows exactly which log prefix each shard
//!   contains; after the checkpoint file is durable, the log is truncated
//!   to the still-needed suffix.
//! * **Recovery** ([`DurableRelation::open`]): load the checkpoint (if
//!   any), rebuild through the existing O(n)
//!   [`bulk_load`](relic_concurrent::ConcurrentRelation::bulk_load), then
//!   replay the log tail per shard — a record applies to a shard only if
//!   its sequence number exceeds the shard's checkpoint stamp, so replay is
//!   exact, not fuzzy. A torn or truncated final record is tolerated *by
//!   design*: the scan stops at the first bad checksum, and everything
//!   before it is recovered. The recovered relation re-synthesizes the same
//!   representation it crashed with (the decomposition identity is stored
//!   in both checkpoint and log), and the autotuner is free to re-migrate
//!   it afterwards.
//!
//! The consistency argument, in one paragraph: every logged mutation runs
//! inside its shard's write-lock critical section, appending its record
//! (and drawing its sequence number) *before* applying, so per-shard log
//! order equals per-shard apply order; the publish that makes the mutation
//! visible carries the record's sequence number as its stamp, atomically
//! with the snapshot. A checkpoint collects published `(snapshot, stamp)`
//! pairs; replay applies record `s` to shard `i` iff `s > stamp_i`. Each
//! shard therefore replays exactly the ops its checkpoint state has not
//! seen, against exactly the state those ops originally saw — errors
//! (duplicate inserts, FD rejections) re-occur deterministically and are
//! swallowed, and cross-shard records (unpinned removes) filter per shard.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod durable;
pub mod frame;
pub mod wal;

pub use checkpoint::{read_checkpoint, write_checkpoint, Checkpoint, CheckpointWriter};
pub use durable::{build_relation, replay_record, DurablePartition, DurableRelation};
pub use frame::{
    begin_frame, frame_message, seal_frame, shrink_drained, FrameReader, MAX_FRAME_PAYLOAD,
};
pub use wal::{
    crc32, decode_frame, read_wal, Crc32, EncodedRecord, GroupCommitPolicy, ScannedWal, TailRead,
    TxnBuilder, Wal, WalEntry, WalRecord, MAX_PAYLOAD,
};

use relic_concurrent::ConcurrentBuildError;
use relic_core::wire::{self, WireError};
use relic_core::OpError;
use relic_decomp::Decomposition;
use relic_spec::{Catalog, ColSet, RelSpec};
use std::fmt;

/// Errors surfaced by the durability layer.
#[derive(Debug)]
pub enum PersistError {
    /// An I/O failure on the log or checkpoint files.
    Io(std::io::Error),
    /// A wire-format decode failure (corruption the checksum missed, or a
    /// schema written by an incompatible version).
    Wire(WireError),
    /// A relational operation failed (the live operation's error, passed
    /// through).
    Op(OpError),
    /// Building the recovered relation failed.
    Build(ConcurrentBuildError),
    /// The on-disk state is unusable: a required checkpoint is missing or
    /// unreadable, or the log is internally inconsistent.
    Corrupt(String),
    /// A record or batch too large to frame: its byte length (or element
    /// count) does not fit the wire's `u32` prefix / the frame cap. The
    /// refusal replaces an unchecked `as u32` cast that silently truncated
    /// the length prefix and corrupted everything after it in the stream.
    FrameTooLarge {
        /// The offending length (bytes, or elements for a count prefix).
        len: usize,
        /// The largest length a frame accepts.
        max: usize,
    },
    /// A checkpoint's scan delivered a different number of tuples than the
    /// image header declares (the pinned view's `len()`). The image was
    /// discarded: nothing was written and the previous checkpoint and the
    /// log are untouched.
    CheckpointCount {
        /// Tuples the header declares.
        declared: u64,
        /// Tuples the scan delivered.
        scanned: u64,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "persistence I/O error: {e}"),
            PersistError::Wire(e) => write!(f, "persistence decode error: {e}"),
            PersistError::Op(e) => write!(f, "{e}"),
            PersistError::Build(e) => write!(f, "recovered relation failed to build: {e}"),
            PersistError::Corrupt(m) => write!(f, "persistent state corrupt: {m}"),
            PersistError::FrameTooLarge { len, max } => {
                write!(f, "record of length {len} exceeds the frame cap {max}")
            }
            PersistError::CheckpointCount { declared, scanned } => write!(
                f,
                "checkpoint scan delivered {scanned} tuples where the view holds {declared}"
            ),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Wire(e) => Some(e),
            PersistError::Op(e) => Some(e),
            PersistError::Build(e) => Some(e),
            PersistError::Corrupt(_) => None,
            PersistError::FrameTooLarge { .. } | PersistError::CheckpointCount { .. } => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<WireError> for PersistError {
    fn from(e: WireError) -> Self {
        PersistError::Wire(e)
    }
}

impl From<OpError> for PersistError {
    fn from(e: OpError) -> Self {
        PersistError::Op(e)
    }
}

impl From<ConcurrentBuildError> for PersistError {
    fn from(e: ConcurrentBuildError) -> Self {
        PersistError::Build(e)
    }
}

/// Everything needed to rebuild an empty relation identical in shape to
/// the one that crashed: catalog, specification, sharding, the
/// decomposition identity (let-notation), and the FD-checking mode.
///
/// Stored in the log's leading meta record and in every checkpoint, so
/// either file alone describes the relation.
#[derive(Debug, Clone, PartialEq)]
pub struct DurableSchema {
    /// The column catalog (names in id order).
    pub catalog: Catalog,
    /// The relational specification (columns + functional dependencies).
    pub spec: RelSpec,
    /// The shard-routing columns.
    pub shard_cols: ColSet,
    /// The shard count.
    pub shards: u32,
    /// The decomposition identity, in let-notation.
    pub decomposition_src: String,
    /// Whether mutations check every declared functional dependency.
    pub fd_checking: bool,
}

impl DurableSchema {
    /// Re-parses the stored decomposition identity.
    ///
    /// # Errors
    ///
    /// [`PersistError::Wire`] if the notation no longer parses.
    pub fn build_decomposition(&self) -> Result<Decomposition, PersistError> {
        let mut cat = self.catalog.clone();
        relic_decomp::parse(&mut cat, &self.decomposition_src)
            .map_err(|e| PersistError::Wire(WireError::Decomposition(e.to_string())))
    }

    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        wire::put_catalog(out, &self.catalog);
        wire::put_spec(out, &self.spec);
        wire::put_u64(out, self.shard_cols.bits());
        wire::put_u32(out, self.shards);
        wire::put_str(out, &self.decomposition_src);
        out.push(u8::from(self.fd_checking));
    }

    pub(crate) fn decode(r: &mut wire::Reader<'_>) -> Result<Self, WireError> {
        let catalog = wire::take_catalog(r)?;
        let spec = wire::take_spec(r)?;
        let shard_cols = ColSet::from_bits(r.take_u64()?);
        let shards = r.take_u32()?;
        let decomposition_src = r.take_str()?.to_string();
        let fd_checking = r.take_u8()? != 0;
        Ok(DurableSchema {
            catalog,
            spec,
            shard_cols,
            shards,
            decomposition_src,
            fd_checking,
        })
    }
}
