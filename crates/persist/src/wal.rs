//! The write-ahead log: append-only, checksummed, length-prefixed records
//! with batched group commit.
//!
//! # On-disk format
//!
//! The log is a single file of *frames*:
//!
//! ```text
//! ┌──────────┬──────────┬─────────────────────────────┐
//! │ len: u32 │ crc: u32 │ payload (len bytes)          │
//! └──────────┴──────────┴─────────────────────────────┘
//! payload = seq: u64 │ kind: u8 │ body (record-specific)
//! ```
//!
//! `crc` is the IEEE CRC-32 of the payload. Sequence numbers are assigned
//! by the log's single counter and are strictly consecutive in the file
//! (rotation keeps a suffix, so the invariant survives truncation). The
//! first frame is always a [`WalRecord::Meta`] carrying the relation's
//! [`DurableSchema`] and the log's base sequence number, so a log file is
//! self-describing.
//!
//! # Torn-write tolerance
//!
//! The scan ([`read_wal`]) accepts the longest valid prefix: it stops at
//! the first frame whose header is short, whose length runs past the file,
//! whose checksum fails, or whose sequence number breaks the consecutive
//! run. A crash mid-write therefore costs at most the records that had not
//! reached a completed frame — exactly the records a caller had not yet
//! [`commit`](Wal::commit)ted.
//!
//! # Group commit
//!
//! [`Wal::append`] only appends to an in-memory segment under the log's
//! mutex — it never touches the file, so it is safe (and cheap) to call
//! inside a shard's write-lock critical section. The segment reaches disk
//! as **one contiguous write followed by one fsync** when
//! [`commit`](Wal::commit) is called or when [`maybe_commit`](Wal::maybe_commit)
//! finds the [`GroupCommitPolicy`] thresholds exceeded.

use crate::{DurableSchema, PersistError};
use relic_core::wire::{self, Reader};
use relic_core::Op;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// IEEE CRC-32 (reflected, polynomial `0xEDB88320`) slicing-by-8 tables:
/// `t[0]` is the classic bytewise table, and `t[k][b]` is the CRC register
/// contribution of byte `b` followed by `k` zero bytes, so eight table
/// lookups fold eight input bytes at once.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// The IEEE CRC-32 of `bytes` (reflected, polynomial `0xEDB88320`; the
/// digest of `b"123456789"` is `0xCBF4_3926`). Computed by [`Crc32`]'s
/// slicing-by-8 loop — the same digest the bytewise table gave, so every
/// frame, log and checkpoint written before it still verifies.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// An incremental IEEE CRC-32: feed slices with [`update`](Crc32::update),
/// read the digest with [`finish`](Crc32::finish). Lets the append path
/// checksum a frame's seq prefix and pre-encoded body without first
/// concatenating them. Splitting the input at any point yields the same
/// digest as one [`crc32`] call over the whole.
///
/// [`update`](Crc32::update) is slicing-by-8: eight bytes per step through
/// eight 256-entry tables (8 KiB, built at compile time), with the bytewise
/// loop only for the last `len % 8` bytes. The eight lookups of a step are
/// independent, where the bytewise loop chains every byte through the
/// register; the digest is unchanged.
#[derive(Debug, Clone)]
pub struct Crc32 {
    c: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// A fresh digest (equal to `crc32(b"")` if finished immediately).
    pub fn new() -> Crc32 {
        Crc32 { c: !0 }
    }

    /// Feeds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC_TABLES;
        let mut c = self.c;
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
            let lo = c ^ word as u32;
            let hi = (word >> 32) as u32;
            c = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.c = c;
    }

    /// The digest of everything fed so far.
    pub fn finish(&self) -> u32 {
        !self.c
    }
}

/// Frame header size: `len: u32` + `crc: u32`.
const HEADER: usize = 8;
/// Payload prefix: `seq: u64` + `kind: u8`.
const PAYLOAD_PREFIX: usize = 9;
/// Upper bound on a single frame's payload — anything larger is treated as
/// corruption by the scan (a real batch record tops out far below this).
///
/// The bound is enforced symmetrically: writers *refuse* to frame a larger
/// payload ([`PersistError::FrameTooLarge`]) and readers treat a larger
/// length prefix as corruption. Before the write-side check existed, a
/// payload past `u32::MAX` silently truncated its own length prefix (`as
/// u32`) and everything after it in the stream misparsed.
pub const MAX_PAYLOAD: u32 = 1 << 30;

/// Checks that a frame payload of `len` bytes is frameable (fits the `u32`
/// length prefix *and* the scanner's sanity cap).
///
/// # Errors
///
/// [`PersistError::FrameTooLarge`] when it is not.
pub(crate) fn check_payload_len(len: usize) -> Result<u32, PersistError> {
    match u32::try_from(len) {
        Ok(l) if l <= MAX_PAYLOAD => Ok(l),
        _ => Err(PersistError::FrameTooLarge {
            len,
            max: MAX_PAYLOAD as usize,
        }),
    }
}

/// Checks that an element count fits its `u32` wire prefix.
///
/// # Errors
///
/// [`PersistError::FrameTooLarge`] when it does not (the error's `len` is
/// the element count — far past the byte cap anyway, since every element
/// encodes to at least one byte).
fn check_count(n: usize) -> Result<u32, PersistError> {
    u32::try_from(n).map_err(|_| PersistError::FrameTooLarge {
        len: n,
        max: u32::MAX as usize,
    })
}

const KIND_META: u8 = 0;
const KIND_TXN: u8 = 7;
const KIND_TERM: u8 = 8;

/// One log record. Kinds 1–6 are [`Op`]s, under their [`wire::put_op`]
/// tags; kinds 0, 7 and 8 frame them.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// The log's leading record: the relation's schema and the sequence
    /// number the log starts after (0 for a fresh log; the checkpoint's
    /// truncation point after a rotation).
    Meta {
        /// The relation's rebuild description.
        schema: DurableSchema,
        /// Records in this file have sequence numbers strictly greater
        /// than this.
        base_seq: u64,
        /// The replication term the log was sealed under (0 for an
        /// unreplicated relation). Rotation re-stamps the current term so
        /// it survives prefix truncation even when the
        /// [`TermBump`](WalRecord::TermBump) record that set it is dropped.
        term: u64,
    },
    /// One write, lowered: never an [`Op::RemoveWhere`] or an
    /// [`Op::Update`] (see [`Wal::encode_op`]). A batch insert is one
    /// shard's group of the batch.
    Op(Op),
    /// One partition read-modify-write critical section's writes
    /// ([`Op::Insert`] / [`Op::Remove`] only, all pinned to one shard),
    /// logged as **one frame** so the whole sequence is crash-atomic: a
    /// torn tail drops the entire RMW or none of it, never a remove
    /// without its re-insert. An [`Op::Update`] is logged as one, too.
    Txn(Vec<Op>),
    /// A replication term bump: written by a promoted follower when it
    /// seals its log and starts accepting writes. Replay treats it as a
    /// state no-op but remembers the new term; shipping it in sequence is
    /// how followers learn — durably and in frame order — that leadership
    /// changed, which is what fences stale primaries at apply time.
    TermBump(u64),
}

/// Appends `op` in the log's format, refusing what the log cannot hold:
/// an op it stores lowered, or a batch whose count overflows its prefix.
fn put_logged_op(out: &mut Vec<u8>, op: &Op) -> Result<(), PersistError> {
    match op {
        Op::RemoveWhere(_) | Op::Update { .. } => {
            return Err(PersistError::Corrupt(
                "remove_where and update are logged lowered, never as themselves".into(),
            ))
        }
        // The count prefix is a `u32`: a larger batch must be refused, not
        // silently truncated (`as u32`) into a frame whose count disagrees
        // with its contents.
        Op::InsertMany(ts) | Op::BulkLoad(ts) | Op::RemoveMany(ts) => {
            check_count(ts.len())?;
        }
        _ => {}
    }
    wire::put_op(out, op);
    Ok(())
}

impl WalRecord {
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), PersistError> {
        match self {
            WalRecord::Meta {
                schema,
                base_seq,
                term,
            } => {
                out.push(KIND_META);
                wire::put_u64(out, *base_seq);
                wire::put_u64(out, *term);
                schema.encode(out);
            }
            WalRecord::Op(op) => put_logged_op(out, op)?,
            WalRecord::Txn(ops) => {
                out.push(KIND_TXN);
                wire::put_u32(out, check_count(ops.len())?);
                for op in ops {
                    debug_assert!(
                        matches!(op, Op::Insert(_) | Op::Remove(_)),
                        "transactions hold only single-tuple writes"
                    );
                    put_logged_op(out, op)?;
                }
            }
            WalRecord::TermBump(term) => {
                out.push(KIND_TERM);
                wire::put_u64(out, *term);
            }
        }
        Ok(())
    }

    fn decode(kind: u8, r: &mut Reader<'_>) -> Result<WalRecord, wire::WireError> {
        Ok(match kind {
            KIND_META => {
                let base_seq = r.take_u64()?;
                let term = r.take_u64()?;
                let schema = DurableSchema::decode(r)?;
                WalRecord::Meta {
                    schema,
                    base_seq,
                    term,
                }
            }
            KIND_TXN => {
                let n = r.take_u32()? as usize;
                let mut ops = Vec::with_capacity(n.min(1 << 12));
                for _ in 0..n {
                    let t = r.take_u8()?;
                    ops.push(match wire::take_logged_op(t, r)? {
                        op @ (Op::Insert(_) | Op::Remove(_)) => op,
                        _ => return Err(wire::WireError::BadTag(t)),
                    });
                }
                WalRecord::Txn(ops)
            }
            KIND_TERM => WalRecord::TermBump(r.take_u64()?),
            kind => WalRecord::Op(wire::take_logged_op(kind, r)?),
        })
    }
}

/// Encodes one complete frame (header + payload) for `rec` at `seq`.
///
/// # Errors
///
/// [`PersistError::FrameTooLarge`] if the payload exceeds the frame cap —
/// the unchecked cast this replaces wrote a wrapped length prefix instead,
/// corrupting every frame after it.
fn encode_frame(out: &mut Vec<u8>, seq: u64, rec: &WalRecord) -> Result<(), PersistError> {
    let mut payload = Vec::with_capacity(64);
    wire::put_u64(&mut payload, seq);
    rec.encode(&mut payload)?;
    wire::put_u32(out, check_payload_len(payload.len())?);
    wire::put_u32(out, crc32(&payload));
    out.extend_from_slice(&payload);
    Ok(())
}

/// A record pre-encoded (`kind` byte + body) and length-validated, ready
/// for an **infallible** append inside a shard's critical section.
///
/// Encoding and the [`MAX_PAYLOAD`] check both happen in
/// [`Wal::encode_op`] / [`TxnBuilder`], *outside* any lock — so an
/// oversized record is refused before any shard state changes, and the
/// append under the lock is pure memory movement.
#[derive(Debug)]
pub struct EncodedRecord {
    /// `kind` byte followed by the record body (everything after the
    /// payload's seq prefix).
    bytes: Vec<u8>,
}

impl EncodedRecord {
    /// The record's kind byte.
    fn kind(&self) -> u8 {
        self.bytes[0]
    }
}

/// Incrementally builds the encoded form of a [`WalRecord::Txn`] as a
/// partition critical section runs, enforcing the frame cap **per
/// operation**: [`push`](TxnBuilder::push) refuses the op that would
/// overflow the frame *before* the caller applies it to the shard, so an
/// oversized transaction can never end up applied-but-unloggable.
#[derive(Debug, Default)]
pub struct TxnBuilder {
    count: u32,
    ops: Vec<u8>,
}

impl TxnBuilder {
    /// Encodes `op` — an [`Op::Insert`] or [`Op::Remove`] — into the
    /// transaction.
    ///
    /// # Errors
    ///
    /// [`PersistError::FrameTooLarge`] if adding `op` would overflow the
    /// frame cap — the builder is left exactly as it was (the refused op
    /// must not be applied).
    pub fn push(&mut self, op: &Op) -> Result<(), PersistError> {
        let start = self.ops.len();
        put_logged_op(&mut self.ops, op)?;
        // Final payload shape: seq(8) + kind(1) + count(4) + ops.
        match check_payload_len(13 + self.ops.len()) {
            Ok(_) => {
                // Can't overflow: each op adds ≥ 1 byte and the byte cap
                // is far below u32::MAX ops.
                self.count += 1;
                Ok(())
            }
            Err(e) => {
                self.ops.truncate(start);
                Err(e)
            }
        }
    }

    /// Has nothing been pushed?
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Finishes into an appendable record (encoding-identical to
    /// `WalRecord::Txn(ops)`).
    pub fn finish(self) -> EncodedRecord {
        let mut bytes = Vec::with_capacity(5 + self.ops.len());
        bytes.push(KIND_TXN);
        bytes.extend_from_slice(&self.count.to_le_bytes());
        bytes.extend_from_slice(&self.ops);
        EncodedRecord { bytes }
    }
}

/// A raw frame located by the scanner (payload not yet decoded).
struct Frame {
    seq: u64,
    kind: u8,
    /// Byte range of the whole frame in the file.
    start: usize,
    end: usize,
}

/// Locates the longest valid frame prefix of `bytes`: every frame has a
/// complete header, an in-bounds sane length, a matching checksum, and a
/// sequence number exactly one past its predecessor's.
fn scan_frames(bytes: &[u8]) -> (Vec<Frame>, usize) {
    let mut frames = Vec::new();
    let mut pos = 0usize;
    let mut prev_seq: Option<u64> = None;
    while bytes.len() - pos >= HEADER {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len < PAYLOAD_PREFIX as u32 || len > MAX_PAYLOAD {
            break;
        }
        let len = len as usize;
        if bytes.len() - pos - HEADER < len {
            break; // truncated final frame
        }
        let payload = &bytes[pos + HEADER..pos + HEADER + len];
        if crc32(payload) != crc {
            break; // torn or corrupted frame: stop at the first bad checksum
        }
        let seq = u64::from_le_bytes(payload[..8].try_into().unwrap());
        if prev_seq.is_some_and(|p| seq != p + 1) {
            break; // a gap can only come from corruption
        }
        prev_seq = Some(seq);
        frames.push(Frame {
            seq,
            kind: payload[8],
            start: pos,
            end: pos + HEADER + len,
        });
        pos += HEADER + len;
    }
    let valid_len = frames.last().map_or(0, |f| f.end);
    (frames, valid_len)
}

/// One decoded log entry (excluding the leading meta record).
#[derive(Debug)]
pub struct WalEntry {
    /// The record's sequence number.
    pub seq: u64,
    /// The operation.
    pub record: WalRecord,
    /// Byte offset of the frame's first byte (for crash-injection tests).
    pub start: u64,
    /// Byte offset one past the frame's last byte.
    pub end: u64,
}

/// The result of scanning a log file: the leading schema record, the valid
/// entries in sequence order, and the byte length of the valid prefix.
#[derive(Debug)]
pub struct ScannedWal {
    /// The log's schema + base sequence, if the leading meta record is
    /// intact.
    pub meta: Option<(DurableSchema, u64)>,
    /// The replication term in force at the end of the valid prefix: the
    /// meta record's term, superseded by any
    /// [`WalRecord::TermBump`] further in.
    pub term: u64,
    /// The decoded operation records of the valid prefix.
    pub entries: Vec<WalEntry>,
    /// Bytes of the longest valid frame prefix (everything after is torn
    /// or corrupt and is discarded on the next append).
    pub valid_len: u64,
}

/// Scans a log file, accepting the longest valid prefix (the scan stops at
/// the first bad checksum, short frame, or sequence gap — a torn final
/// record is expected after a crash, not an error).
///
/// # Errors
///
/// [`PersistError::Io`] if the file cannot be read;
/// [`PersistError::Wire`] if a checksum-valid frame fails to decode (true
/// corruption, distinct from a torn tail).
pub fn read_wal(path: &Path) -> Result<ScannedWal, PersistError> {
    let bytes = std::fs::read(path)?;
    let (frames, valid_len) = scan_frames(&bytes);
    let mut meta = None;
    let mut term = 0u64;
    let mut entries = Vec::with_capacity(frames.len());
    for f in &frames {
        let payload = &bytes[f.start + HEADER + 8..f.end];
        let mut r = Reader::new(payload);
        let kind = r.take_u8().expect("scanner verified the prefix");
        let record = WalRecord::decode(kind, &mut r)?;
        // A checksum-valid frame with leftover bytes is corruption (or a
        // newer writer), not slack to ignore — fail with a typed error.
        r.expect_end()?;
        match record {
            WalRecord::Meta {
                schema,
                base_seq,
                term: t,
            } if f.start == 0 => {
                term = term.max(t);
                meta = Some((schema, base_seq));
            }
            WalRecord::Meta { .. } => {
                return Err(PersistError::Corrupt(
                    "meta record not at the start of the log".into(),
                ))
            }
            record => {
                if let WalRecord::TermBump(t) = &record {
                    term = term.max(*t);
                }
                entries.push(WalEntry {
                    seq: f.seq,
                    record,
                    start: f.start as u64,
                    end: f.end as u64,
                });
            }
        }
    }
    Ok(ScannedWal {
        meta,
        term,
        entries,
        valid_len: valid_len as u64,
    })
}

/// Decodes one complete shipped frame (`len | crc | payload`) into its
/// sequence number and record, validating the length, the checksum, and
/// that the payload has no trailing bytes.
///
/// This is the follower-side twin of the scanner: replication transports
/// hand frames around as opaque byte blobs, and every blob is re-verified
/// here before it is applied or appended to a local log.
///
/// # Errors
///
/// [`PersistError::Corrupt`] for a short frame, length mismatch, or
/// checksum failure; [`PersistError::Wire`] if the payload fails to decode
/// or has trailing bytes.
pub fn decode_frame(bytes: &[u8]) -> Result<(u64, WalRecord), PersistError> {
    if bytes.len() < HEADER + PAYLOAD_PREFIX {
        return Err(PersistError::Corrupt("frame shorter than header".into()));
    }
    let len = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if len != bytes.len() - HEADER {
        return Err(PersistError::Corrupt(format!(
            "frame length {} disagrees with payload size {}",
            len,
            bytes.len() - HEADER
        )));
    }
    let payload = &bytes[HEADER..];
    if crc32(payload) != crc {
        return Err(PersistError::Corrupt("frame checksum mismatch".into()));
    }
    let mut r = Reader::new(payload);
    let seq = r.take_u64().map_err(PersistError::Wire)?;
    let kind = r.take_u8().map_err(PersistError::Wire)?;
    let record = WalRecord::decode(kind, &mut r)?;
    r.expect_end()?;
    Ok((seq, record))
}

/// When the in-memory segment is flushed without an explicit
/// [`commit`](Wal::commit): at `max_records` pending records or
/// `max_bytes` pending bytes, whichever comes first.
#[derive(Debug, Clone, Copy)]
pub struct GroupCommitPolicy {
    /// Flush when this many records are pending.
    pub max_records: usize,
    /// Flush when this many payload bytes are pending.
    pub max_bytes: usize,
}

impl Default for GroupCommitPolicy {
    fn default() -> Self {
        GroupCommitPolicy {
            max_records: 128,
            max_bytes: 256 * 1024,
        }
    }
}

impl GroupCommitPolicy {
    /// Never auto-flush: records reach disk only on an explicit
    /// [`commit`](Wal::commit) (used by tests that control durability
    /// points exactly).
    pub fn manual() -> Self {
        GroupCommitPolicy {
            max_records: usize::MAX,
            max_bytes: usize::MAX,
        }
    }
}

/// The byte range of one frame in the log file, kept in memory so shipping
/// reads never rescan the file.
#[derive(Debug, Clone, Copy)]
struct FrameLoc {
    seq: u64,
    kind: u8,
    start: u64,
    end: u64,
}

/// Committed frames fetched for shipping ([`Wal::committed_frames_after`]).
#[derive(Debug)]
pub enum TailRead {
    /// The raw bytes of each frame with sequence numbers consecutively
    /// following the requested cursor (possibly empty: caught up).
    Frames(Vec<Vec<u8>>),
    /// The cursor predates this log's base — rotation discarded the prefix.
    /// The fetcher must catch up from a checkpoint at or past `base_seq`.
    Truncated {
        /// The current log segment's base sequence number.
        base_seq: u64,
    },
}

#[derive(Debug)]
struct WalInner {
    file: File,
    /// The in-memory segment: encoded frames not yet written.
    buf: Vec<u8>,
    /// Records in `buf`.
    pending: usize,
    next_seq: u64,
    /// Highest sequence number synced to disk.
    durable_seq: u64,
    /// The current replication term (see [`WalRecord::TermBump`]).
    term: u64,
    /// The current segment's base: frames in the file have `seq > base_seq`
    /// except the leading meta frame (whose seq *is* `base_seq`).
    base_seq: u64,
    /// Durable bytes in the file (pending buffered frames sit past this).
    file_len: u64,
    /// Byte locations of every frame, durable or pending (pending entries
    /// describe where the frame *will* land once flushed). Rebuilt on
    /// rotation.
    index: Vec<FrameLoc>,
}

/// The write-ahead log handle. All methods are `&self`; the single
/// internal mutex orders sequence assignment, buffering, flushing and
/// rotation (appends are pure memory operations — I/O happens only in
/// flushes and rotations).
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    policy: GroupCommitPolicy,
    inner: Mutex<WalInner>,
}

impl Wal {
    /// Locks the log state, recovering from a poisoned mutex: every
    /// critical section leaves `inner` structurally consistent before any
    /// fallible step (I/O errors are returned, not panicked), and the
    /// frame checksums catch anything a panicking writer could have left
    /// half-framed — so a serving loop degrades to an I/O error instead of
    /// cascading panics across threads.
    fn lock(&self) -> MutexGuard<'_, WalInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Creates a fresh log at `path` (truncating any existing file) whose
    /// leading meta record carries `schema`, `base_seq` and `term`. The
    /// meta record is written and synced immediately, so the log is
    /// self-describing from the first byte.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on file creation or the initial write.
    pub fn create(
        path: &Path,
        policy: GroupCommitPolicy,
        schema: &DurableSchema,
        base_seq: u64,
        term: u64,
    ) -> Result<Wal, PersistError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut buf = Vec::new();
        encode_frame(
            &mut buf,
            base_seq,
            &WalRecord::Meta {
                schema: schema.clone(),
                base_seq,
                term,
            },
        )?;
        file.write_all(&buf)?;
        file.sync_data()?;
        let index = vec![FrameLoc {
            seq: base_seq,
            kind: KIND_META,
            start: 0,
            end: buf.len() as u64,
        }];
        Ok(Wal {
            path: path.to_path_buf(),
            policy,
            inner: Mutex::new(WalInner {
                file,
                buf: Vec::new(),
                pending: 0,
                next_seq: base_seq + 1,
                durable_seq: base_seq,
                term,
                base_seq,
                file_len: index[0].end,
                index,
            }),
        })
    }

    /// Opens an existing log for appending: the file is truncated to
    /// `valid_len` (discarding any torn tail found by [`read_wal`]) and
    /// appends continue at `next_seq` under `term`.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] on open/truncate/seek.
    pub fn open_for_append(
        path: &Path,
        policy: GroupCommitPolicy,
        next_seq: u64,
        valid_len: u64,
        term: u64,
    ) -> std::io::Result<Wal> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(valid_len)?;
        file.seek(SeekFrom::Start(0))?;
        let mut bytes = Vec::with_capacity(valid_len as usize);
        file.read_to_end(&mut bytes)?;
        let (frames, _) = scan_frames(&bytes);
        let index: Vec<FrameLoc> = frames
            .iter()
            .map(|f| FrameLoc {
                seq: f.seq,
                kind: f.kind,
                start: f.start as u64,
                end: f.end as u64,
            })
            .collect();
        let base_seq = index
            .iter()
            .find(|l| l.kind == KIND_META)
            .map(|l| l.seq)
            .unwrap_or_else(|| {
                index
                    .first()
                    .map_or(next_seq.saturating_sub(1), |l| l.seq.saturating_sub(1))
            });
        file.seek(SeekFrom::End(0))?;
        file.sync_data()?;
        Ok(Wal {
            path: path.to_path_buf(),
            policy,
            inner: Mutex::new(WalInner {
                file,
                buf: Vec::new(),
                pending: 0,
                next_seq,
                durable_seq: next_seq.saturating_sub(1),
                term,
                base_seq,
                file_len: valid_len,
                index,
            }),
        })
    }

    /// Encodes and length-validates a [`WalRecord::Op`] for a later
    /// [`append_encoded`](Wal::append_encoded) — call this *outside* any
    /// shard critical section, so oversized records are refused before any
    /// state changes and no serialization work happens under a lock. It
    /// serializes straight from the borrowed op: the bulk-ingest hot loop
    /// builds no owned record, which would double peak memory.
    ///
    /// # Errors
    ///
    /// [`PersistError::FrameTooLarge`] if the op would not fit a frame;
    /// [`PersistError::Corrupt`] for an [`Op::RemoveWhere`] or
    /// [`Op::Update`], which the log holds only lowered.
    pub fn encode_op(op: &Op) -> Result<EncodedRecord, PersistError> {
        let mut bytes = Vec::with_capacity(64);
        put_logged_op(&mut bytes, op)?;
        check_payload_len(8 + bytes.len())?;
        Ok(EncodedRecord { bytes })
    }

    /// Appends `rec` to the in-memory segment and returns its sequence
    /// number.
    ///
    /// # Errors
    ///
    /// [`PersistError::FrameTooLarge`] if the record would not fit a
    /// frame. Callers that append inside a shard critical section should
    /// [`encode_op`](Wal::encode_op) first and use the infallible
    /// [`append_encoded`](Wal::append_encoded) under the lock instead.
    pub fn append(&self, rec: &WalRecord) -> Result<u64, PersistError> {
        let mut bytes = Vec::with_capacity(64);
        rec.encode(&mut bytes)?;
        check_payload_len(8 + bytes.len())?;
        Ok(self.append_encoded(&EncodedRecord { bytes }))
    }

    /// Appends a pre-validated record to the in-memory segment and returns
    /// its sequence number. Infallible and I/O-free: safe to call inside a
    /// shard critical section. The record reaches disk at the next flush
    /// ([`commit`](Wal::commit), or [`maybe_commit`](Wal::maybe_commit)
    /// past the policy thresholds).
    pub fn append_encoded(&self, rec: &EncodedRecord) -> u64 {
        let mut inner = self.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let payload_len = 8 + rec.bytes.len();
        let mut header = [0u8; HEADER];
        // Validated by its encoder: fits u32 and the scanner's cap.
        header[..4].copy_from_slice(&(payload_len as u32).to_le_bytes());
        let mut crc = Crc32::new();
        crc.update(&seq.to_le_bytes());
        crc.update(&rec.bytes);
        header[4..].copy_from_slice(&crc.finish().to_le_bytes());
        let start = inner.file_len + inner.buf.len() as u64;
        inner.index.push(FrameLoc {
            seq,
            kind: rec.kind(),
            start,
            end: start + (HEADER + payload_len) as u64,
        });
        inner.buf.extend_from_slice(&header);
        inner.buf.extend_from_slice(&seq.to_le_bytes());
        inner.buf.extend_from_slice(&rec.bytes);
        inner.pending += 1;
        seq
    }

    fn flush_locked(inner: &mut WalInner) -> std::io::Result<u64> {
        if inner.pending > 0 {
            inner.file.write_all(&inner.buf)?;
            inner.file.sync_data()?;
            inner.file_len += inner.buf.len() as u64;
            inner.buf.clear();
            inner.pending = 0;
            inner.durable_seq = inner.next_seq - 1;
        }
        Ok(inner.durable_seq)
    }

    /// Flushes the pending segment iff the group-commit thresholds are
    /// exceeded; returns the new durable sequence number if it flushed.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] from the write or fsync.
    pub fn maybe_commit(&self) -> std::io::Result<Option<u64>> {
        let mut inner = self.lock();
        if inner.pending >= self.policy.max_records || inner.buf.len() >= self.policy.max_bytes {
            return Self::flush_locked(&mut inner).map(Some);
        }
        Ok(None)
    }

    /// The group commit: writes every pending record as one contiguous
    /// write and fsyncs once. Returns the highest durable sequence number.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] from the write or fsync.
    pub fn commit(&self) -> std::io::Result<u64> {
        let mut inner = self.lock();
        Self::flush_locked(&mut inner)
    }

    /// The highest sequence number known durable (synced).
    pub fn durable_seq(&self) -> u64 {
        self.lock().durable_seq
    }

    /// The next sequence number to be assigned.
    pub fn next_seq(&self) -> u64 {
        self.lock().next_seq
    }

    /// Bytes sitting in the in-memory segment, appended but not yet
    /// flushed — the WAL flush lag. A serving front end uses this for
    /// admission control: when the lag crosses a threshold, new mutation
    /// frames are delayed or shed instead of growing the unflushed window
    /// without bound.
    pub fn pending_bytes(&self) -> usize {
        self.lock().buf.len()
    }

    /// The current segment's base sequence number (frames in the file have
    /// strictly greater sequence numbers).
    pub fn base_seq(&self) -> u64 {
        self.lock().base_seq
    }

    /// The current replication term.
    pub fn term(&self) -> u64 {
        self.lock().term
    }

    /// Appends a [`WalRecord::TermBump`] to `new_term` and adopts it,
    /// returning the record's sequence number. `new_term` must exceed the
    /// current term (promotion only moves forward). The record is *not*
    /// flushed — callers commit before acting on the new term, so a
    /// promoted primary's fencing bump is durable before it accepts writes.
    ///
    /// # Errors
    ///
    /// [`PersistError::Corrupt`] if `new_term` does not exceed the current
    /// term (a stale promoter lost the race).
    pub fn bump_term(&self, new_term: u64) -> Result<u64, PersistError> {
        let mut inner = self.lock();
        if new_term <= inner.term {
            return Err(PersistError::Corrupt(format!(
                "term bump to {new_term} does not exceed current term {}",
                inner.term
            )));
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let mut frame = Vec::with_capacity(HEADER + PAYLOAD_PREFIX + 8);
        encode_frame(&mut frame, seq, &WalRecord::TermBump(new_term))?;
        let start = inner.file_len + inner.buf.len() as u64;
        inner.index.push(FrameLoc {
            seq,
            kind: KIND_TERM,
            start,
            end: start + frame.len() as u64,
        });
        inner.buf.extend_from_slice(&frame);
        inner.pending += 1;
        inner.term = new_term;
        Ok(seq)
    }

    /// Reads the raw bytes of committed frames with sequence numbers in
    /// `(after, durable_seq]`, at most `max_bytes` of frames per call
    /// (always at least one frame when any is due) — the shipping read used
    /// by replication. The frames come back in sequence order, each blob a
    /// complete checksummed frame.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] if the log file cannot be re-opened or read.
    pub fn committed_frames_after(
        &self,
        after: u64,
        max_bytes: usize,
    ) -> std::io::Result<TailRead> {
        let inner = self.lock();
        if after < inner.base_seq {
            return Ok(TailRead::Truncated {
                base_seq: inner.base_seq,
            });
        }
        let due: Vec<FrameLoc> = inner
            .index
            .iter()
            .filter(|l| l.kind != KIND_META && l.seq > after && l.seq <= inner.durable_seq)
            .copied()
            .collect();
        if due.is_empty() {
            return Ok(TailRead::Frames(Vec::new()));
        }
        let mut take = Vec::new();
        let mut total = 0usize;
        for l in &due {
            let sz = (l.end - l.start) as usize;
            if !take.is_empty() && total + sz > max_bytes {
                break;
            }
            take.push(*l);
            total += sz;
        }
        // Consecutive seqs are contiguous bytes, so one read covers the
        // whole batch. A fresh read handle leaves the append cursor alone.
        let (lo, hi) = (take[0].start, take[take.len() - 1].end);
        let mut rf = File::open(&self.path)?;
        rf.seek(SeekFrom::Start(lo))?;
        let mut bytes = vec![0u8; (hi - lo) as usize];
        rf.read_exact(&mut bytes)?;
        drop(inner);
        let frames = take
            .iter()
            .map(|l| bytes[(l.start - lo) as usize..(l.end - lo) as usize].to_vec())
            .collect();
        Ok(TailRead::Frames(frames))
    }

    /// Truncates the log prefix after a checkpoint: keeps only frames with
    /// `seq > keep_after` (plus a fresh meta record with `base_seq =
    /// keep_after`), built as a sidecar file and atomically renamed over
    /// the log. Pending records are flushed first; appends block for the
    /// duration (the tail is small right after a checkpoint, so the hold is
    /// short — and it is the *log* mutex, never a shard lock).
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] from any of the file operations.
    pub fn rotate(&self, keep_after: u64, schema: &DurableSchema) -> Result<(), PersistError> {
        let mut inner = self.lock();
        Self::flush_locked(&mut inner)?;
        let bytes = std::fs::read(&self.path)?;
        let (frames, _) = scan_frames(&bytes);
        let mut out = Vec::with_capacity(bytes.len() / 2 + 128);
        let mut index = Vec::with_capacity(frames.len() + 1);
        encode_frame(
            &mut out,
            keep_after,
            &WalRecord::Meta {
                schema: schema.clone(),
                base_seq: keep_after,
                term: inner.term,
            },
        )?;
        index.push(FrameLoc {
            seq: keep_after,
            kind: KIND_META,
            start: 0,
            end: out.len() as u64,
        });
        for f in frames.iter().filter(|f| f.kind != KIND_META) {
            if f.seq > keep_after {
                let start = out.len() as u64;
                out.extend_from_slice(&bytes[f.start..f.end]);
                index.push(FrameLoc {
                    seq: f.seq,
                    kind: f.kind,
                    start,
                    end: out.len() as u64,
                });
            }
        }
        let tmp = self.path.with_extension("log.tmp");
        {
            let mut tf = File::create(&tmp)?;
            tf.write_all(&out)?;
            tf.sync_data()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        file.seek(SeekFrom::End(0))?;
        inner.file = file;
        inner.base_seq = keep_after;
        inner.file_len = out.len() as u64;
        inner.index = index;
        // Make the rename itself durable (best effort: not all platforms
        // allow opening a directory for sync).
        if let Some(dir) = self.path.parent() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relic_spec::{Catalog, Pattern, RelSpec, Tuple, Value};

    fn schema() -> DurableSchema {
        let mut cat = Catalog::new();
        let a = cat.intern("a");
        let v = cat.intern("v");
        let d = relic_decomp::parse(
            &mut cat,
            "let u : {a} . {v} = unit {v} in let x : {} . {a,v} = {a} -[htable]-> u in x",
        )
        .unwrap();
        DurableSchema {
            spec: RelSpec::new(cat.all()).with_fd(a.set(), v.set()),
            shard_cols: a.set(),
            shards: 4,
            decomposition_src: d.to_let_notation(&cat),
            fd_checking: true,
            catalog: cat,
        }
    }

    fn tup(cat: &Catalog, a: i64, v: i64) -> Tuple {
        Tuple::from_pairs([
            (cat.col("a").unwrap(), Value::from(a)),
            (cat.col("v").unwrap(), Value::from(v)),
        ])
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("relic_wal_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc_matches_known_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn txn_builder_matches_whole_record_encoding() {
        let s = schema();
        let cat = s.catalog.clone();
        let ops = vec![Op::Remove(tup(&cat, 4, 40)), Op::Insert(tup(&cat, 4, 41))];
        let mut b = TxnBuilder::default();
        for op in &ops {
            b.push(op).unwrap();
        }
        assert!(!b.is_empty());
        let mut whole = Vec::new();
        WalRecord::Txn(ops).encode(&mut whole).unwrap();
        assert_eq!(b.finish().bytes, whole);
    }

    /// The log holds `RemoveWhere` and `Update` only lowered: encoding
    /// them as themselves is refused, so their tags (9, 10) never reach a
    /// frame the decoder would reject.
    #[test]
    fn unlowered_ops_are_refused() {
        let cat = schema().catalog;
        let key = tup(&cat, 1, 1).project(cat.col("a").unwrap().set());
        for op in [
            Op::RemoveWhere(Pattern::from_tuple(&key)),
            Op::Update {
                pattern: key.clone(),
                changes: tup(&cat, 1, 2).project(cat.col("v").unwrap().set()),
            },
        ] {
            assert!(matches!(Wal::encode_op(&op), Err(PersistError::Corrupt(_))));
            assert!(TxnBuilder::default().push(&op).is_err());
        }
    }

    #[test]
    fn oversized_payloads_are_refused_not_truncated() {
        assert!(check_payload_len(MAX_PAYLOAD as usize).is_ok());
        // Both past-the-cap and past-u32 sizes must come back as the typed
        // error — the old `as u32` cast wrapped the second case silently.
        for n in [MAX_PAYLOAD as usize + 1, u32::MAX as usize + 1] {
            match check_payload_len(n) {
                Err(PersistError::FrameTooLarge { len, .. }) => assert_eq!(len, n),
                other => panic!("expected FrameTooLarge, got {other:?}"),
            }
        }
        assert!(check_count(u32::MAX as usize).is_ok());
        assert!(matches!(
            check_count(u32::MAX as usize + 1),
            Err(PersistError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn append_commit_read_round_trip() {
        let dir = tmpdir("round_trip");
        let path = dir.join("wal.log");
        let s = schema();
        let cat = s.catalog.clone();
        let wal = Wal::create(&path, GroupCommitPolicy::manual(), &s, 0, 0).unwrap();
        let recs = vec![
            WalRecord::Op(Op::Insert(tup(&cat, 1, 10))),
            WalRecord::Op(Op::Remove(tup(&cat, 1, 10))),
            WalRecord::Op(Op::InsertMany(vec![tup(&cat, 2, 20), tup(&cat, 3, 30)])),
            WalRecord::Op(Op::BulkLoad(vec![tup(&cat, 4, 40)])),
            WalRecord::Op(Op::RemoveMany(vec![tup(&cat, 2, 20)])),
            WalRecord::Op(Op::Migrate(s.decomposition_src.clone())),
            WalRecord::Txn(vec![
                Op::Remove(tup(&cat, 4, 40)),
                Op::Insert(tup(&cat, 4, 41)),
            ]),
        ];
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(wal.append(r).unwrap(), i as u64 + 1);
        }
        // Nothing durable until the group commit.
        assert_eq!(wal.durable_seq(), 0);
        assert_eq!(read_wal(&path).unwrap().entries.len(), 0);
        assert_eq!(wal.commit().unwrap(), recs.len() as u64);
        let scanned = read_wal(&path).unwrap();
        let (schema_back, base) = scanned.meta.expect("meta record");
        assert_eq!(base, 0);
        assert_eq!(schema_back, s);
        assert_eq!(scanned.entries.len(), recs.len());
        for (e, r) in scanned.entries.iter().zip(&recs) {
            assert_eq!(&e.record, r);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_stops_at_torn_and_corrupt_tails() {
        let dir = tmpdir("torn");
        let path = dir.join("wal.log");
        let s = schema();
        let cat = s.catalog.clone();
        let wal = Wal::create(&path, GroupCommitPolicy::manual(), &s, 0, 0).unwrap();
        for i in 0..5i64 {
            wal.append(&WalRecord::Op(Op::Insert(tup(&cat, i, i * 10))))
                .unwrap();
        }
        wal.commit().unwrap();
        let full = std::fs::read(&path).unwrap();
        let scanned = read_wal(&path).unwrap();
        assert_eq!(scanned.entries.len(), 5);
        assert_eq!(scanned.valid_len, full.len() as u64);
        let last = scanned.entries.last().unwrap();
        // Every truncation point inside the final frame loses exactly that
        // record and nothing else.
        for cut in last.start..last.end {
            std::fs::write(&path, &full[..cut as usize]).unwrap();
            let s2 = read_wal(&path).unwrap();
            assert_eq!(s2.entries.len(), 4, "cut at {cut}");
            assert_eq!(s2.valid_len, last.start, "cut at {cut}");
        }
        // A flipped byte inside the final frame is caught by the checksum.
        for delta in [0, 9, (last.end - last.start - 1)] {
            let mut bad = full.clone();
            bad[(last.start + delta) as usize] ^= 0xA5;
            std::fs::write(&path, &bad).unwrap();
            let s2 = read_wal(&path).unwrap();
            assert_eq!(s2.entries.len(), 4, "flip at +{delta}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_thresholds_flush_automatically() {
        let dir = tmpdir("thresholds");
        let path = dir.join("wal.log");
        let s = schema();
        let cat = s.catalog.clone();
        let wal = Wal::create(
            &path,
            GroupCommitPolicy {
                max_records: 3,
                max_bytes: usize::MAX,
            },
            &s,
            0,
            0,
        )
        .unwrap();
        wal.append(&WalRecord::Op(Op::Insert(tup(&cat, 1, 1))))
            .unwrap();
        assert!(wal.maybe_commit().unwrap().is_none());
        wal.append(&WalRecord::Op(Op::Insert(tup(&cat, 2, 2))))
            .unwrap();
        wal.append(&WalRecord::Op(Op::Insert(tup(&cat, 3, 3))))
            .unwrap();
        assert_eq!(wal.maybe_commit().unwrap(), Some(3));
        assert_eq!(read_wal(&path).unwrap().entries.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_keeps_the_tail_and_stays_scannable() {
        let dir = tmpdir("rotate");
        let path = dir.join("wal.log");
        let s = schema();
        let cat = s.catalog.clone();
        let wal = Wal::create(&path, GroupCommitPolicy::manual(), &s, 0, 0).unwrap();
        for i in 0..10i64 {
            wal.append(&WalRecord::Op(Op::Insert(tup(&cat, i, i))))
                .unwrap();
        }
        // Rotation flushes pending records itself.
        wal.rotate(7, &s).unwrap();
        let scanned = read_wal(&path).unwrap();
        let (_, base) = scanned.meta.expect("rotated meta");
        assert_eq!(base, 7);
        let seqs: Vec<u64> = scanned.entries.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![8, 9, 10]);
        // Appends continue past rotation with consecutive seqs.
        assert_eq!(
            wal.append(&WalRecord::Op(Op::Insert(tup(&cat, 99, 99))))
                .unwrap(),
            11
        );
        wal.commit().unwrap();
        let scanned = read_wal(&path).unwrap();
        assert_eq!(
            scanned.entries.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![8, 9, 10, 11]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
