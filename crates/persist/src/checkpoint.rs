//! Snapshot checkpoints: a sidecar file holding a consistent per-shard
//! image of the relation, paired with per-shard log watermarks.
//!
//! A checkpoint is built from the per-shard snapshot vector of
//! [`read_view`](relic_concurrent::ConcurrentRelation::read_view) — taken
//! **without any shard lock**, so writers keep committing while the
//! checkpoint serializes. Each shard's snapshot carries the writer stamp of
//! its last logged operation ([`ReadView::shard_stamp`]), recorded here as
//! the shard's *watermark*: recovery applies a log record to a shard only
//! if its sequence number exceeds the shard's watermark, which makes
//! replay exact (never fuzzy) even though different shards may be
//! checkpointed at slightly different points of the log.
//!
//! # Writing is a streaming read
//!
//! The image is produced by a [`CheckpointWriter`]: the header fields go in
//! first (they are all known before the first tuple — the tuple count is
//! the view's `len()`), then every valuation the view's one linear scan
//! ([`ReadView::scan_all`]) emits is encoded straight into the body. No
//! [`Relation`](relic_spec::Relation), no `Vec<Tuple>`, no per-tuple clone:
//! a checkpoint costs one pass over the pinned snapshots plus one write and
//! fsync of the bytes, and allocates only the image buffer. The
//! abstraction function α (`to_relation`) defines what the image must
//! *mean* and is what the tests compare it against; it is not on this
//! path. [`CheckpointWriter::finish`] refuses an image whose scan delivered
//! a different number of tuples than the header declares, so a
//! disagreement is a typed error and never a written file.
//!
//! Tuple order inside the body is unspecified (it is the scan's order);
//! recovery bulk-loads the tuples and re-routes them to shards, so any
//! order decodes to the same relation. [`Checkpoint`] is the *decoded*
//! form — what recovery and replica bootstrap consume.
//!
//! # Atomicity
//!
//! The file is written to a sidecar (`checkpoint.tmp`), fsynced, and
//! atomically renamed over `checkpoint.bin` — a crash mid-checkpoint
//! leaves the previous checkpoint (or none) intact, never a torn one. The
//! body is CRC-guarded like a log frame.
//!
//! [`ReadView::shard_stamp`]: relic_concurrent::ReadView::shard_stamp
//! [`ReadView::scan_all`]: relic_concurrent::ReadView::scan_all

use crate::wal::crc32;
use crate::{DurableSchema, PersistError};
use relic_core::wire::{self, Reader};
use relic_core::Bindings;
use relic_spec::{ColSet, Tuple};
use std::fs::File;
use std::io::Write;
use std::path::Path;

/// File magic: `RELICCKP` as little-endian bytes.
const MAGIC: &[u8; 8] = b"RELICCKP";
/// Format version.
const VERSION: u32 = 1;
/// Bytes before the body: magic, version, body length (`u64`), body CRC.
const HEADER_LEN: usize = 24;
/// Offset of the body length + CRC, which [`CheckpointWriter::finish`]
/// fills in once the body is complete.
const LEN_AT: usize = 12;

/// The checkpoint file name inside a durable relation's directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.bin";
/// The sidecar a checkpoint is staged in before the atomic rename. A crash
/// between the sidecar write and the rename leaves this file orphaned;
/// [`read_checkpoint`] ignores and removes it.
pub const CHECKPOINT_TMP: &str = "checkpoint.tmp";

/// A decoded checkpoint: the relation's schema (with the decomposition
/// identity *as of the checkpoint*), one watermark per shard, and the
/// tuple image.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The rebuild description (catalog, spec, sharding, decomposition,
    /// FD-checking mode).
    pub schema: DurableSchema,
    /// Per-shard log watermarks: shard `i`'s image contains exactly the
    /// logged operations with `seq <= shard_stamps[i]`.
    pub shard_stamps: Vec<u64>,
    /// The replication term in force when the checkpoint was taken (0 for
    /// an unreplicated relation) — a follower bootstrapping from this image
    /// starts fenced against anything older.
    pub term: u64,
    /// The tuple image (shard routing is recomputed on load — the schema's
    /// shard columns and count make it deterministic).
    pub tuples: Vec<Tuple>,
}

/// Incremental encoder of a checkpoint file image: the header fields
/// first, then one tuple at a time, then [`finish`](CheckpointWriter::finish)
/// seals length and checksum. The one place the format is written —
/// [`DurableRelation::checkpoint`](crate::DurableRelation::checkpoint)
/// streams a scan through it and [`Checkpoint::to_bytes`] replays a decoded
/// image through it.
#[derive(Debug)]
pub struct CheckpointWriter {
    /// Header (length and CRC still zero) followed by the body so far.
    out: Vec<u8>,
    /// The tuple count the body's header declares.
    declared: u64,
    /// Tuples encoded so far.
    written: u64,
}

impl CheckpointWriter {
    /// Starts an image that will hold exactly `tuples` tuples of
    /// `schema`'s relation.
    pub fn new(schema: &DurableSchema, term: u64, shard_stamps: &[u64], tuples: usize) -> Self {
        // Sized for all-integer tuples (domain bits + a tag byte and eight
        // bytes per column), so such an image never regrows; strings cost
        // a few doublings.
        let per_tuple = 8 + 9 * schema.spec.cols().len();
        let mut out = Vec::with_capacity(HEADER_LEN + 256 + tuples * per_tuple);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.resize(HEADER_LEN, 0);
        schema.encode(&mut out);
        wire::put_u64(&mut out, term);
        wire::put_u32(&mut out, shard_stamps.len() as u32);
        for &s in shard_stamps {
            wire::put_u64(&mut out, s);
        }
        wire::put_u64(&mut out, tuples as u64);
        CheckpointWriter {
            out,
            declared: tuples as u64,
            written: 0,
        }
    }

    /// Appends one tuple.
    pub fn push_tuple(&mut self, t: &Tuple) {
        wire::put_tuple(&mut self.out, t);
        self.written += 1;
    }

    /// Appends the valuation a scan just emitted, projected onto `cols` —
    /// the same bytes as [`push_tuple`](CheckpointWriter::push_tuple) of
    /// `b.project(cols)`, without building the tuple.
    pub fn push_bindings(&mut self, b: &Bindings, cols: ColSet) {
        wire::put_bindings(&mut self.out, b, cols);
        self.written += 1;
    }

    /// Seals the image (body length and checksum) and returns the complete
    /// file bytes.
    ///
    /// # Errors
    ///
    /// [`PersistError::CheckpointCount`] if the number of tuples pushed is
    /// not the number declared at [`new`](CheckpointWriter::new): such an
    /// image would decode as garbage, so it is never handed out.
    pub fn finish(mut self) -> Result<Vec<u8>, PersistError> {
        if self.written != self.declared {
            return Err(PersistError::CheckpointCount {
                declared: self.declared,
                scanned: self.written,
            });
        }
        let body = &self.out[HEADER_LEN..];
        let (len, crc) = (body.len() as u64, crc32(body));
        self.out[LEN_AT..LEN_AT + 8].copy_from_slice(&len.to_le_bytes());
        self.out[LEN_AT + 8..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
        Ok(self.out)
    }
}

impl Checkpoint {
    fn decode(body: &[u8]) -> Result<Checkpoint, PersistError> {
        let mut r = Reader::new(body);
        let schema = DurableSchema::decode(&mut r)?;
        let term = r.take_u64()?;
        let nstamps = r.take_u32()? as usize;
        let mut shard_stamps = Vec::with_capacity(nstamps);
        for _ in 0..nstamps {
            shard_stamps.push(r.take_u64()?);
        }
        let n = r.take_u64()? as usize;
        let mut tuples = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            tuples.push(wire::take_tuple(&mut r)?);
        }
        r.expect_end().map_err(PersistError::Wire)?;
        Ok(Checkpoint {
            schema,
            shard_stamps,
            term,
            tuples,
        })
    }

    /// Serializes the checkpoint as a complete self-checking file image
    /// (magic + version + length + CRC + body) — the bytes
    /// [`write_checkpoint`] stages, and a replication catch-up payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = CheckpointWriter::new(
            &self.schema,
            self.term,
            &self.shard_stamps,
            self.tuples.len(),
        );
        for t in &self.tuples {
            w.push_tuple(t);
        }
        w.finish()
            .expect("the declared count is the vector's length")
    }

    /// Decodes a complete checkpoint image produced by
    /// [`Checkpoint::to_bytes`] (or read raw from `checkpoint.bin`),
    /// validating magic, version, length and checksum.
    ///
    /// # Errors
    ///
    /// [`PersistError::Corrupt`] on bad magic/version/length/checksum,
    /// [`PersistError::Wire`] on a body decode failure.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, PersistError> {
        if bytes.len() < HEADER_LEN || &bytes[..8] != MAGIC {
            return Err(PersistError::Corrupt("checkpoint magic mismatch".into()));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(PersistError::Corrupt(format!(
                "checkpoint version {version} unsupported"
            )));
        }
        let (len, crc) = bytes[LEN_AT..HEADER_LEN].split_at(8);
        let len = u64::from_le_bytes(len.try_into().expect("8 bytes")) as usize;
        let crc = u32::from_le_bytes(crc.try_into().expect("4 bytes"));
        if bytes.len() - HEADER_LEN < len {
            return Err(PersistError::Corrupt("checkpoint body truncated".into()));
        }
        let body = &bytes[HEADER_LEN..HEADER_LEN + len];
        if crc32(body) != crc {
            return Err(PersistError::Corrupt("checkpoint checksum mismatch".into()));
        }
        Checkpoint::decode(body)
    }
}

/// Writes a finished checkpoint `image` ([`CheckpointWriter::finish`], or
/// the verified bytes a primary shipped) atomically into `dir`: sidecar +
/// fsync + rename. On return the checkpoint is durable and it is safe to
/// truncate the log prefix it covers.
///
/// # Errors
///
/// [`std::io::Error`] from any file operation.
pub fn write_checkpoint(dir: &Path, image: &[u8]) -> std::io::Result<()> {
    let tmp = dir.join(CHECKPOINT_TMP);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(image)?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp, dir.join(CHECKPOINT_FILE))?;
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Reads the checkpoint from `dir`. `Ok(None)` if none was ever written;
/// an error if one exists but is unreadable (rename atomicity makes this
/// genuine corruption, not a crash artifact).
///
/// A leftover `checkpoint.tmp` — a crash landed between the sidecar write
/// and the atomic rename — is deleted here and never consulted: only the
/// renamed `checkpoint.bin` is ever a source of truth, so the orphan is
/// garbage by construction, and leaving it around would let a *later*
/// crash-recovery sequence mistake a stale image for a fresh one.
///
/// # Errors
///
/// [`PersistError::Corrupt`] on bad magic/version/length/checksum,
/// [`PersistError::Wire`] on a decode failure, [`PersistError::Io`] on
/// read failures other than the file being absent.
pub fn read_checkpoint(dir: &Path) -> Result<Option<Checkpoint>, PersistError> {
    match std::fs::remove_file(dir.join(CHECKPOINT_TMP)) {
        Ok(()) | Err(_) => {} // best effort: absence is the common case
    }
    let path = dir.join(CHECKPOINT_FILE);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    Checkpoint::from_bytes(&bytes).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relic_spec::{Catalog, RelSpec, Value};

    fn sample() -> Checkpoint {
        let mut cat = Catalog::new();
        let a = cat.intern("a");
        let v = cat.intern("v");
        let d = relic_decomp::parse(
            &mut cat,
            "let u : {a} . {v} = unit {v} in let x : {} . {a,v} = {a} -[avl]-> u in x",
        )
        .unwrap();
        let tuples = (0..5i64)
            .map(|i| Tuple::from_pairs([(a, Value::from(i)), (v, Value::from(i * 2))]))
            .collect();
        Checkpoint {
            schema: DurableSchema {
                spec: RelSpec::new(cat.all()).with_fd(a.set(), v.set()),
                shard_cols: a.set(),
                shards: 2,
                decomposition_src: d.to_let_notation(&cat),
                fd_checking: true,
                catalog: cat,
            },
            shard_stamps: vec![7, 9],
            term: 3,
            tuples,
        }
    }

    #[test]
    fn round_trips_atomically() {
        let dir = std::env::temp_dir().join(format!("relic_ckpt_round_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert!(read_checkpoint(&dir).unwrap().is_none());
        let ck = sample();
        write_checkpoint(&dir, &ck.to_bytes()).unwrap();
        assert_eq!(read_checkpoint(&dir).unwrap().unwrap(), ck);
        // A second checkpoint replaces the first atomically.
        let mut ck2 = ck.clone();
        ck2.shard_stamps = vec![11, 12];
        write_checkpoint(&dir, &ck2.to_bytes()).unwrap();
        assert_eq!(read_checkpoint(&dir).unwrap().unwrap(), ck2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_is_detected() {
        let dir = std::env::temp_dir().join(format!("relic_ckpt_corrupt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        write_checkpoint(&dir, &sample().to_bytes()).unwrap();
        let path = dir.join(CHECKPOINT_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_checkpoint(&dir),
            Err(PersistError::Corrupt(_)) | Err(PersistError::Wire(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
