//! The follower side of replication: a durable local replica fed by
//! pulled log frames.
//!
//! A follower's directory is byte-compatible with a primary's (checkpoint
//! sidecar + write-ahead log), maintained by appending shipped frames
//! **verbatim** to the local log. That single invariant buys three things:
//!
//! * crash recovery of a follower is literally
//!   [`DurableRelation::open`]'s recovery, re-expressed over the same
//!   files ([`Follower::open_or_bootstrap`]);
//! * [promotion](Follower::promote) is `DurableRelation::open` plus a
//!   term bump — no state conversion at the worst possible moment;
//! * every byte the follower serves to readers has already passed the
//!   log-frame checksum **twice**: once on receipt, once if it is ever
//!   re-read from disk.
//!
//! The apply discipline per synced batch: verify every frame (checksum,
//! length, decode, no trailing bytes, contiguous sequence numbers), then
//! append the verified prefix to the local log and fsync, then apply it
//! to the in-memory relation through the shared
//! `replay_record` routine in `relic_persist` — so a reader
//! can never observe an operation the local log could still lose, and
//! follower reads never regress.

use crate::msg::{Request, Response};
use crate::primary::Primary;
use crate::transport::Transport;
use crate::ReplicaError;
use relic_concurrent::{ConcurrentRelation, ReadHandle, ReadView};
use relic_persist::checkpoint::CHECKPOINT_FILE;
use relic_persist::durable::WAL_FILE;
use relic_persist::{
    build_relation, decode_frame, read_checkpoint, read_wal, replay_record, write_checkpoint,
    Checkpoint, DurableRelation, DurableSchema, GroupCommitPolicy, PersistError, WalRecord,
};
use relic_spec::Relation;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Where a quarantined (corrupt) local log is moved before re-bootstrap.
pub const QUARANTINE_SUFFIX: &str = ".quarantine";

/// What one pull round accomplished (see [`Follower::sync_once`]).
#[derive(Debug, Clone, Copy)]
pub struct SyncProgress {
    /// Frames durably applied this round.
    pub applied: usize,
    /// Did the round end with the cursor at the primary's reported
    /// durable frontier? (`false` after a truncation resync or a damaged
    /// batch, even if nothing newer exists — the next round confirms.)
    pub caught_up: bool,
}

/// A durable replica that catches up from, and then tails, a primary.
#[derive(Debug)]
pub struct Follower {
    dir: PathBuf,
    rel: ConcurrentRelation,
    schema: DurableSchema,
    /// Per-shard replay watermarks (`replay_record`'s cursor state).
    w: Vec<u64>,
    /// Last sequence number durably appended to the local log *and*
    /// applied. The next fetch asks for frames past this.
    cursor: u64,
    term: u64,
    log: File,
}

impl Follower {
    // -- lifecycle ----------------------------------------------------------

    /// Bootstraps a fresh follower in `dir` from the primary behind `t`:
    /// fetches a checkpoint image, installs it atomically, and rebuilds
    /// the in-memory relation from it. Any previous replica state in
    /// `dir` is discarded.
    ///
    /// # Errors
    ///
    /// Transport errors from the fetch; [`ReplicaError::Corrupt`] if the
    /// shipped image fails verification; [`ReplicaError::Persist`] if the
    /// rebuild fails.
    pub fn bootstrap(dir: &Path, t: &mut dyn Transport) -> Result<Follower, ReplicaError> {
        std::fs::create_dir_all(dir)?;
        let resp = t.request(&Request::FetchCheckpoint { term: 0 })?;
        let (term, bytes) = match resp {
            Response::Checkpoint { term, bytes } => (term, bytes),
            Response::Fenced { term } => {
                return Err(ReplicaError::Fenced {
                    ours: 0,
                    theirs: term,
                })
            }
            other => {
                return Err(ReplicaError::Protocol(format!(
                    "expected a checkpoint, got {other:?}"
                )))
            }
        };
        // Verify before trusting a single byte of it.
        let ck = Checkpoint::from_bytes(&bytes)
            .map_err(|e| ReplicaError::Corrupt(format!("shipped checkpoint: {e}")))?;
        Follower::install(dir, &bytes, ck, term)
    }

    /// Opens the replica already in `dir`, or bootstraps a fresh one if
    /// the directory holds nothing usable. Local corruption (a log or
    /// checkpoint that fails verification) is **quarantined** — the file
    /// is renamed aside with [`QUARANTINE_SUFFIX`] — and the follower
    /// re-bootstraps from the primary instead of panicking or serving
    /// bad data.
    ///
    /// # Errors
    ///
    /// As [`Follower::bootstrap`] when a bootstrap is needed;
    /// [`ReplicaError::Io`] on filesystem failures.
    pub fn open_or_bootstrap(dir: &Path, t: &mut dyn Transport) -> Result<Follower, ReplicaError> {
        std::fs::create_dir_all(dir)?;
        match Follower::open_local(dir) {
            Ok(f) => Ok(f),
            Err(OpenFailure::Empty) => Follower::bootstrap(dir, t),
            Err(OpenFailure::Corrupt(why)) => {
                quarantine(dir, &why)?;
                Follower::bootstrap(dir, t)
            }
            Err(OpenFailure::Fatal(e)) => Err(e),
        }
    }

    /// Opens strictly from local state (no transport): the follower
    /// resumes from whatever it durably applied before the restart.
    fn open_local(dir: &Path) -> Result<Follower, OpenFailure> {
        let wal_path = dir.join(WAL_FILE);
        if !wal_path.exists() {
            return Err(OpenFailure::Empty);
        }
        let ck = match read_checkpoint(dir) {
            Ok(ck) => ck,
            Err(PersistError::Io(e)) => return Err(OpenFailure::Fatal(e.into())),
            Err(e) => return Err(OpenFailure::Corrupt(format!("local checkpoint: {e}"))),
        };
        let scanned = match read_wal(&wal_path) {
            Ok(s) => s,
            Err(PersistError::Io(e)) => return Err(OpenFailure::Fatal(e.into())),
            Err(e) => return Err(OpenFailure::Corrupt(format!("local log: {e}"))),
        };
        let term = scanned.term.max(ck.as_ref().map_or(0, |c| c.term));
        let (schema, mut w, image) = match (ck, &scanned.meta) {
            // A local log whose meta frame failed verification is corrupt
            // even when a checkpoint exists: raw appends behind a missing
            // meta would build an unreadable file.
            (Some(ck), Some(_)) => (ck.schema, ck.shard_stamps, Some(ck.tuples)),
            (None, Some((schema, base))) if *base == 0 => {
                (schema.clone(), vec![0; schema.shards as usize], None)
            }
            _ => {
                return Err(OpenFailure::Corrupt(
                    "no checkpoint and no usable log meta".into(),
                ))
            }
        };
        if w.len() != schema.shards as usize {
            return Err(OpenFailure::Corrupt(
                "checkpoint watermark count disagrees with shard count".into(),
            ));
        }
        let rel = match build_relation(&schema, image.map(|tuples| (tuples, &w[..]))) {
            Ok(rel) => rel,
            Err(e) => return Err(OpenFailure::Corrupt(format!("rebuild: {e}"))),
        };
        let mut cursor = scanned.meta.as_ref().map_or(0, |(_, b)| *b);
        cursor = cursor.max(w.iter().copied().min().unwrap_or(0));
        for e in &scanned.entries {
            if let Err(e) = replay_record(&rel, &schema, &mut w, e.seq, &e.record) {
                return Err(OpenFailure::Corrupt(format!("replay: {e}")));
            }
            cursor = cursor.max(e.seq);
        }
        // Discard the torn tail (its frames were never acknowledged as
        // applied) and continue appending after the valid prefix.
        let log = match open_log_for_append(&wal_path, scanned.valid_len) {
            Ok(f) => f,
            Err(e) => return Err(OpenFailure::Fatal(e.into())),
        };
        Ok(Follower {
            dir: dir.to_path_buf(),
            rel,
            schema,
            w,
            cursor,
            term,
            log,
        })
    }

    /// Installs a verified checkpoint image as the replica's new ground
    /// truth: atomic sidecar write, fresh local log based at the
    /// checkpoint's replay cursor, in-memory rebuild.
    fn install(
        dir: &Path,
        raw: &[u8],
        ck: Checkpoint,
        term: u64,
    ) -> Result<Follower, ReplicaError> {
        if ck.shard_stamps.len() != ck.schema.shards as usize {
            return Err(ReplicaError::Corrupt(
                "shipped checkpoint watermark count disagrees with its shard count".into(),
            ));
        }
        // The image is already a complete self-checking file: stage +
        // rename it exactly like a local checkpoint write.
        write_checkpoint(dir, raw)?;
        let term = term.max(ck.term);
        let cursor = ck.shard_stamps.iter().copied().min().unwrap_or(0);
        let wal_path = dir.join(WAL_FILE);
        // A throwaway Wal handle writes the self-describing meta frame;
        // shipped frames are appended raw behind it.
        let wal = relic_persist::Wal::create(
            &wal_path,
            GroupCommitPolicy::manual(),
            &ck.schema,
            cursor,
            term,
        )?;
        drop(wal);
        let rel = build_relation(&ck.schema, Some((ck.tuples, &ck.shard_stamps)))?;
        let log = OpenOptions::new().append(true).open(&wal_path)?;
        Ok(Follower {
            dir: dir.to_path_buf(),
            rel,
            schema: ck.schema,
            w: ck.shard_stamps,
            cursor,
            term,
            log,
        })
    }

    // -- syncing ------------------------------------------------------------

    /// One pull round: fetch committed frames past the cursor, verify
    /// them, append the verified prefix durably, apply it, and advance.
    /// Returns how many frames applied, and whether the cursor reached
    /// the primary's durable frontier (damage forces another round: a
    /// dropped frame and a caught-up follower look identical in a single
    /// response, so the frontier is the only honest signal).
    ///
    /// Damage handling is uniform: verification stops at the first bad or
    /// out-of-order frame, everything before it is kept, everything after
    /// it is discarded and re-requested on the next round — every
    /// single-fault scenario (drop, duplicate, reorder, truncation) heals
    /// this way. A response bearing an older term is refused outright
    /// ([`ReplicaError::Fenced`]): stale primaries cannot roll us back.
    ///
    /// # Errors
    ///
    /// Transport failures, fencing, or local I/O failures. Damaged
    /// frames are *not* errors — they are discarded and re-fetched.
    pub fn sync_once(&mut self, t: &mut dyn Transport) -> Result<SyncProgress, ReplicaError> {
        let resp = t.request(&Request::Fetch {
            term: self.term,
            after: self.cursor,
        })?;
        match resp {
            Response::Frames {
                term,
                frontier,
                frames,
            } => {
                if term < self.term {
                    return Err(ReplicaError::Fenced {
                        ours: self.term,
                        theirs: term,
                    });
                }
                let applied = self.apply_frames(&frames)?;
                Ok(SyncProgress {
                    applied,
                    caught_up: self.cursor >= frontier,
                })
            }
            Response::Truncated { term, .. } => {
                if term < self.term {
                    return Err(ReplicaError::Fenced {
                        ours: self.term,
                        theirs: term,
                    });
                }
                // Our cursor predates the primary's log: re-seed from its
                // checkpoint, then keep tailing.
                let fresh = Follower::bootstrap(&self.dir.clone(), t)?;
                *self = fresh;
                Ok(SyncProgress {
                    applied: 0,
                    caught_up: false,
                })
            }
            Response::Checkpoint { .. } => Err(ReplicaError::Protocol(
                "unsolicited checkpoint in a fetch response".into(),
            )),
            Response::Fenced { term } => Err(ReplicaError::Fenced {
                ours: self.term,
                theirs: term,
            }),
        }
    }

    /// Verifies and applies one shipped batch; returns frames applied.
    fn apply_frames(&mut self, frames: &[Vec<u8>]) -> Result<usize, ReplicaError> {
        // Stage 1: verify a contiguous prefix. Duplicates (seq <= cursor)
        // are skipped; the first gap, reorder, or corrupt frame ends the
        // batch (the rest re-ships next round).
        let mut verified: Vec<(u64, WalRecord, &[u8])> = Vec::new();
        let mut expect = self.cursor + 1;
        for raw in frames {
            match decode_frame(raw) {
                Ok((seq, _)) if seq < expect => continue, // duplicate: already durable
                Ok((seq, rec)) if seq == expect => {
                    verified.push((seq, rec, raw));
                    expect += 1;
                }
                Ok(_) => break,  // gap or reorder: refuse the suffix
                Err(_) => break, // damaged: refuse, it re-ships
            }
        }
        if verified.is_empty() {
            return Ok(0);
        }
        // Stage 2: durable append of the verified prefix — one write, one
        // fsync, exactly the primary's group-commit discipline.
        let mut buf = Vec::with_capacity(verified.iter().map(|(_, _, r)| r.len()).sum());
        for (_, _, raw) in &verified {
            buf.extend_from_slice(raw);
        }
        self.log.write_all(&buf)?;
        self.log.sync_data()?;
        // Stage 3: apply. Only now may readers observe these operations.
        let n = verified.len();
        for (seq, rec, _) in verified {
            if let WalRecord::TermBump(t) = &rec {
                self.term = self.term.max(*t);
            }
            replay_record(&self.rel, &self.schema, &mut self.w, seq, &rec)?;
            self.cursor = seq;
        }
        Ok(n)
    }

    /// Pulls until the cursor reaches the primary's durable frontier,
    /// retrying transient disconnections up to `max_retries` with linear
    /// `backoff` between attempts.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::Disconnected`] when the retry budget is exhausted;
    /// [`ReplicaError::Protocol`] if many consecutive rounds make no
    /// progress without reaching the frontier (a misbehaving primary);
    /// fencing and local failures immediately.
    pub fn catch_up(
        &mut self,
        t: &mut dyn Transport,
        max_retries: u32,
        backoff: Duration,
    ) -> Result<(), ReplicaError> {
        let mut stalled = 0u32;
        let mut retries = 0u32;
        loop {
            match self.sync_once(t) {
                Ok(p) if p.caught_up => return Ok(()),
                Ok(p) => {
                    if p.applied == 0 {
                        stalled += 1;
                        if stalled > 64 {
                            return Err(ReplicaError::Protocol(
                                "no catch-up progress in 64 consecutive rounds".into(),
                            ));
                        }
                    } else {
                        stalled = 0;
                        retries = 0;
                    }
                }
                Err(ReplicaError::Disconnected) if retries < max_retries => {
                    retries += 1;
                    std::thread::sleep(backoff * retries);
                }
                Err(e) => return Err(e),
            }
        }
    }

    // -- failover -----------------------------------------------------------

    /// Promotes this follower to a primary: reopens its directory as a
    /// full [`DurableRelation`] (the formats are identical) and seals the
    /// log under `term + 1` — durably, before a single write is accepted.
    /// Frames the new primary ships carry the bumped term in-band, so
    /// surviving followers adopt it and stale primaries get fenced on
    /// first contact.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::Persist`] if the reopen or the term seal fails (the
    /// directory is left unchanged — the follower state is recoverable
    /// with [`Follower::open_or_bootstrap`]).
    pub fn promote(self, policy: GroupCommitPolicy) -> Result<Primary, ReplicaError> {
        let term = self.term;
        let dir = self.dir.clone();
        drop(self); // release the log file handle before reopening
        let rel = DurableRelation::open(&dir, policy)?;
        rel.bump_term(term + 1)?;
        Ok(Primary::new(rel))
    }

    // -- reads --------------------------------------------------------------

    /// Last sequence number durably applied (the fetch cursor).
    pub fn applied_seq(&self) -> u64 {
        self.cursor
    }

    /// The follower's current term.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// The replica's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The served relation (reads only — writing to a follower's relation
    /// would fork it from the primary).
    pub fn relation(&self) -> &ConcurrentRelation {
        &self.rel
    }

    /// A wait-free read handle over the replica.
    pub fn read_handle(&self) -> ReadHandle<'_> {
        self.rel.read_handle()
    }

    /// A detached consistent per-shard snapshot of the replica.
    pub fn read_view(&self) -> ReadView {
        self.rel.read_view()
    }

    /// Number of tuples in the replica.
    pub fn len(&self) -> usize {
        self.rel.len()
    }

    /// Is the replica empty?
    pub fn is_empty(&self) -> bool {
        self.rel.is_empty()
    }

    /// The whole replica as a reference [`Relation`]: the abstraction
    /// function α over every shard — the test oracle, not a scan (see
    /// [`ConcurrentRelation::to_relation`]).
    pub fn to_relation(&self) -> Relation {
        self.rel.to_relation()
    }
}

/// Why a local open could not produce a follower.
enum OpenFailure {
    /// Nothing on disk: plain bootstrap.
    Empty,
    /// On-disk state failed verification: quarantine, then bootstrap.
    Corrupt(String),
    /// An environmental failure (I/O) that re-bootstrapping won't fix.
    Fatal(ReplicaError),
}

/// Renames the replica's files aside (`<name>.quarantine`) so a
/// re-bootstrap starts clean while the evidence survives for inspection.
fn quarantine(dir: &Path, why: &str) -> Result<(), ReplicaError> {
    eprintln!("replica quarantine ({}): {why}", dir.display());
    for name in [WAL_FILE, CHECKPOINT_FILE] {
        let from = dir.join(name);
        if from.exists() {
            std::fs::rename(&from, dir.join(format!("{name}{QUARANTINE_SUFFIX}")))?;
        }
    }
    Ok(())
}

/// Truncates the local log to its valid prefix and opens it for raw
/// appends.
fn open_log_for_append(path: &Path, valid_len: u64) -> std::io::Result<File> {
    let f = OpenOptions::new().read(true).write(true).open(path)?;
    f.set_len(valid_len)?;
    f.sync_data()?;
    drop(f);
    OpenOptions::new().append(true).open(path)
}
