//! The primary side of replication: a [`DurableRelation`] that serves its
//! committed log frames to pulling followers.
//!
//! The primary is stateless per follower — each request carries the
//! follower's cursor — so any number of followers can sync from one
//! primary, and a follower can switch primaries without a handshake. The
//! only replication state a primary keeps is its *fenced* flag: set the
//! moment any request arrives bearing a newer term, after which every
//! write is refused (see the crate docs on fencing).

use crate::msg::{Request, Response};
use crate::ReplicaError;
use relic_core::Op;
use relic_persist::{Checkpoint, DurableRelation, TailRead};
use std::sync::atomic::{AtomicBool, Ordering};

/// Default byte budget per shipped batch.
pub const DEFAULT_MAX_BATCH_BYTES: usize = 1 << 20;

/// A durable relation serving its committed write-ahead log to followers.
#[derive(Debug)]
pub struct Primary {
    rel: DurableRelation,
    fenced: AtomicBool,
    max_batch_bytes: usize,
}

impl Primary {
    /// Wraps a durable relation as a replication primary.
    pub fn new(rel: DurableRelation) -> Primary {
        Primary::with_max_batch_bytes(rel, DEFAULT_MAX_BATCH_BYTES)
    }

    /// As [`new`](Primary::new), with a custom per-batch byte budget
    /// (tests use tiny budgets to force multi-batch catch-up).
    pub fn with_max_batch_bytes(rel: DurableRelation, max_batch_bytes: usize) -> Primary {
        Primary {
            rel,
            fenced: AtomicBool::new(false),
            max_batch_bytes: max_batch_bytes.max(1),
        }
    }

    /// The underlying durable relation (reads are always allowed;
    /// mutating through it bypasses the fence — use
    /// [`apply`](Primary::apply) instead).
    pub fn relation(&self) -> &DurableRelation {
        &self.rel
    }

    /// The primary's current term.
    pub fn term(&self) -> u64 {
        self.rel.term()
    }

    /// Has this primary been superseded by a newer term? A fenced primary
    /// refuses writes and serves nothing to followers.
    pub fn is_fenced(&self) -> bool {
        self.fenced.load(Ordering::Acquire)
    }

    fn check_fence(&self) -> Result<(), ReplicaError> {
        if self.is_fenced() {
            Err(ReplicaError::Fenced {
                ours: self.term(),
                theirs: self.term() + 1,
            })
        } else {
            Ok(())
        }
    }

    /// Fence-checked durable write: every [`Op`] a primary accepts comes
    /// through here.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::Fenced`] if superseded, otherwise as
    /// [`DurableRelation::apply`].
    pub fn apply(&self, op: Op) -> Result<usize, ReplicaError> {
        self.check_fence()?;
        Ok(self.rel.apply(op)?)
    }

    /// Fence-checked group commit. Returns the highest durable sequence
    /// number — the shipping frontier.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::Fenced`] if superseded, otherwise as
    /// [`DurableRelation::commit`].
    pub fn commit(&self) -> Result<u64, ReplicaError> {
        self.check_fence()?;
        Ok(self.rel.commit()?)
    }

    /// Fence-checked checkpoint (also rotates the log — followers whose
    /// cursors predate the rotation will be told to re-bootstrap).
    ///
    /// # Errors
    ///
    /// [`ReplicaError::Fenced`] if superseded, otherwise as
    /// [`DurableRelation::checkpoint`].
    pub fn checkpoint(&self) -> Result<u64, ReplicaError> {
        self.check_fence()?;
        Ok(self.rel.checkpoint()?)
    }

    /// Serves one follower request. This is the whole primary-side
    /// protocol; transports are thin pipes around it.
    ///
    /// A request bearing a newer term fences this primary permanently and
    /// answers [`Response::Fenced`]. Requests at or below our term are
    /// served normally — a follower still at an older term learns the
    /// current term from the response and from the in-band
    /// [`TermBump`](relic_persist::WalRecord::TermBump) record in the
    /// frame stream.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::Persist`] if reading the log or checkpoint fails.
    pub fn handle(&self, req: &Request) -> Result<Response, ReplicaError> {
        let my_term = self.term();
        let peer_term = match *req {
            Request::Fetch { term, .. } | Request::FetchCheckpoint { term } => term,
        };
        if peer_term > my_term || self.is_fenced() {
            self.fenced.store(true, Ordering::Release);
            return Ok(Response::Fenced { term: my_term });
        }
        match *req {
            Request::Fetch { after, .. } => match self
                .rel
                .committed_frames_after(after, self.max_batch_bytes)?
            {
                TailRead::Frames(frames) => Ok(Response::Frames {
                    term: my_term,
                    frontier: self.rel.durable_seq(),
                    frames,
                }),
                TailRead::Truncated { base_seq } => Ok(Response::Truncated {
                    term: my_term,
                    base_seq,
                }),
            },
            Request::FetchCheckpoint { .. } => {
                let bytes = match self.rel.checkpoint_bytes()? {
                    Some(b) => b,
                    // Never checkpointed: synthesize an empty image so
                    // followers always bootstrap the same way. Its
                    // watermarks are zero, so the whole log replays on
                    // top of it.
                    None => {
                        let schema = self.rel.durable_schema();
                        let stamps = vec![0; schema.shards as usize];
                        Checkpoint {
                            schema,
                            shard_stamps: stamps,
                            term: my_term,
                            tuples: Vec::new(),
                        }
                        .to_bytes()
                    }
                };
                Ok(Response::Checkpoint {
                    term: my_term,
                    bytes,
                })
            }
        }
    }

    /// Consumes the primary, returning the relation (used by tests that
    /// restart a primary in place).
    pub fn into_relation(self) -> DurableRelation {
        self.rel
    }
}
