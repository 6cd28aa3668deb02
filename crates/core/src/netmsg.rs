//! The serving wire protocol: request/response frames for a relation
//! served over a socket (`relic_server`).
//!
//! Messages ride inside the shared length-prefixed, CRC-guarded frames of
//! `relic_persist::frame` — this module defines only the *payloads*. The
//! encoding reuses the [`wire`] primitives of the durable formats, every
//! decode ends with an explicit [`Reader::expect_end`], and unknown tags
//! are typed errors: the server hands these decoders
//! checksummed-but-untrusted bytes, so nothing here panics on garbage
//! (pinned by the `wire_no_panic` suite).
//!
//! Protocol shape, in brief:
//!
//! * [`NetRequest::Catalog`] fetches the relation's schema, so a client
//!   can build tuples without out-of-band agreement.
//! * Mutations are acknowledged in request order. [`Apply`](NetRequest::Apply)
//!   carries any [`Op`], applied atomically under one hold of every shard
//!   it touches; [`Insert`](NetRequest::Insert) and
//!   [`Remove`](NetRequest::Remove) are the older spellings of
//!   `Apply(Op::Insert(..))` and `Apply(Op::Remove(..))`. An ack's `n`
//!   counts the tuples an `InsertMany` or `BulkLoad` inserted, or a
//!   `Remove`, `RemoveMany` or `RemoveWhere` removed; 1 for an `Insert` of
//!   a new tuple or an `Update` that changed one, else 0; 0 for a
//!   `Migrate`. Every op is applied and acked on its own, with its own
//!   count or its own refusal, however the server batches the commit.
//! * Queries ([`Query`](NetRequest::Query) with a tuple pattern,
//!   [`QueryWhere`](NetRequest::QueryWhere) with concrete predicate
//!   syntax parsed server-side) return [`NetResponse::Rows`]: the answer
//!   `RelRead::query` gives, sorted and distinct. The server writes that
//!   payload from a [`FlatRows`] collector with [`encode_rows_into`],
//!   without building the tuples; clients decode it as `Vec<Tuple>`.
//! * [`Commit`](NetRequest::Commit) forces a group commit and returns the
//!   durable frontier; [`Stats`](NetRequest::Stats) exposes the flush-lag
//!   and reclamation-pressure gauges the server's admission control runs
//!   on.
//! * [`NetResponse::Busy`] is the admission-control shed: the server is
//!   over its write-pressure thresholds and the client should back off
//!   for the hinted duration before retrying.

use crate::wire::{self, Reader, WireError};
use crate::{FlatRows, Op};
use relic_spec::{Catalog, ColSet, RelSpec, Tuple};

const REQ_CATALOG: u8 = 1;
const REQ_INSERT: u8 = 2;
const REQ_REMOVE: u8 = 3;
const REQ_QUERY: u8 = 4;
const REQ_QUERY_WHERE: u8 = 5;
const REQ_COMMIT: u8 = 6;
const REQ_STATS: u8 = 7;
const REQ_APPLY: u8 = 8;

const RESP_CATALOG: u8 = 1;
const RESP_ROWS: u8 = 2;
const RESP_ACK: u8 = 3;
const RESP_COMMITTED: u8 = 4;
const RESP_STATS: u8 = 5;
const RESP_BUSY: u8 = 6;
const RESP_ERR: u8 = 7;

/// The bytes a [`NetResponse::Rows`] payload spends before its first row:
/// the tag and the `u32` row count.
pub const ROWS_HEADER_LEN: usize = 5;

/// Appends the [`NetResponse::Rows`] payload of a
/// [finished](FlatRows::finish) [`FlatRows`]: byte for byte what
/// `NetResponse::Rows { tuples }.encode_into(out)` writes when `tuples` are
/// the collector's rows as tuples, without building them. This is how the
/// server answers a query.
pub fn encode_rows_into(rows: &FlatRows, out: &mut Vec<u8>) {
    out.reserve(ROWS_HEADER_LEN + rows.encoded_len());
    out.push(RESP_ROWS);
    wire::put_u32(out, rows.len() as u32);
    for (dom, vals) in rows.rows() {
        wire::put_row(out, dom, vals);
    }
}

/// A client-to-server request.
#[derive(Debug, Clone, PartialEq)]
pub enum NetRequest {
    /// Fetch the served relation's catalog and specification.
    Catalog,
    /// Insert one tuple (acknowledged with [`NetResponse::Ack`]).
    Insert {
        /// The tuple to insert.
        tuple: Tuple,
    },
    /// Remove every tuple matching an equality pattern (a tuple over a
    /// subset of the columns; the empty tuple matches everything).
    Remove {
        /// The equality pattern.
        pattern: Tuple,
    },
    /// Query by equality pattern, projecting onto `out` (empty set means
    /// all columns).
    Query {
        /// The equality pattern.
        pattern: Tuple,
        /// Projection columns (empty: all).
        out: ColSet,
    },
    /// Query by predicate pattern in concrete syntax
    /// (`relic_spec::parse_pattern`), parsed — and type-checked against
    /// the catalog — on the server.
    QueryWhere {
        /// The predicate source text.
        pattern: String,
        /// Projection columns (empty: all).
        out: ColSet,
    },
    /// Force a group commit of everything acknowledged so far.
    Commit,
    /// Fetch the server's pressure gauges.
    Stats,
    /// Apply one write (acknowledged with [`NetResponse::Ack`]).
    Apply(Op),
}

impl NetRequest {
    /// Serializes the request.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        match self {
            NetRequest::Catalog => out.push(REQ_CATALOG),
            NetRequest::Insert { tuple } => {
                out.push(REQ_INSERT);
                wire::put_tuple(&mut out, tuple);
            }
            NetRequest::Remove { pattern } => {
                out.push(REQ_REMOVE);
                wire::put_tuple(&mut out, pattern);
            }
            NetRequest::Query { pattern, out: o } => {
                out.push(REQ_QUERY);
                wire::put_u64(&mut out, o.bits());
                wire::put_tuple(&mut out, pattern);
            }
            NetRequest::QueryWhere { pattern, out: o } => {
                out.push(REQ_QUERY_WHERE);
                wire::put_u64(&mut out, o.bits());
                wire::put_str(&mut out, pattern);
            }
            NetRequest::Commit => out.push(REQ_COMMIT),
            NetRequest::Stats => out.push(REQ_STATS),
            NetRequest::Apply(op) => {
                out.push(REQ_APPLY);
                wire::put_op(&mut out, op);
            }
        }
        out
    }

    /// Deserializes a request, rejecting unknown tags and trailing bytes.
    ///
    /// # Errors
    ///
    /// [`WireError`] on any malformed input.
    pub fn decode(bytes: &[u8]) -> Result<NetRequest, WireError> {
        let mut r = Reader::new(bytes);
        let req = match r.take_u8()? {
            REQ_CATALOG => NetRequest::Catalog,
            REQ_INSERT => NetRequest::Insert {
                tuple: wire::take_tuple(&mut r)?,
            },
            REQ_REMOVE => NetRequest::Remove {
                pattern: wire::take_tuple(&mut r)?,
            },
            REQ_QUERY => {
                let out = ColSet::from_bits(r.take_u64()?);
                NetRequest::Query {
                    pattern: wire::take_tuple(&mut r)?,
                    out,
                }
            }
            REQ_QUERY_WHERE => {
                let out = ColSet::from_bits(r.take_u64()?);
                NetRequest::QueryWhere {
                    pattern: r.take_str()?.to_string(),
                    out,
                }
            }
            REQ_COMMIT => NetRequest::Commit,
            REQ_STATS => NetRequest::Stats,
            REQ_APPLY => NetRequest::Apply(wire::take_op(&mut r)?),
            t => return Err(WireError::BadTag(t)),
        };
        r.expect_end()?;
        Ok(req)
    }
}

/// The server's pressure gauges, as reported by [`NetResponse::Stats`] —
/// the same inputs its admission control decides on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServingStats {
    /// Tuples in the served relation (published state).
    pub len: u64,
    /// Bytes appended to the write-ahead log but not yet flushed — the
    /// group-commit flush lag.
    pub wal_pending_bytes: u64,
    /// Bytes of retired snapshots pinned on the limbo list by lagging
    /// readers (epoch reclamation pressure).
    pub limbo_bytes: u64,
    /// How many epochs the oldest pinned reader trails the newest publish.
    pub pinned_epoch_lag: u64,
}

/// A server-to-client response.
#[derive(Debug, Clone, PartialEq)]
pub enum NetResponse {
    /// The served relation's schema.
    Catalog {
        /// The column catalog.
        catalog: Catalog,
        /// The relational specification (columns + FDs).
        spec: RelSpec,
    },
    /// Query results.
    Rows {
        /// The matching (projected) tuples.
        tuples: Vec<Tuple>,
    },
    /// A mutation acknowledgement (see the module docs for what each op
    /// counts).
    Ack {
        /// Tuples inserted/removed by this request's op.
        n: u64,
    },
    /// A commit acknowledgement.
    Committed {
        /// The durable log frontier after the commit.
        seq: u64,
    },
    /// The server's pressure gauges.
    Stats(ServingStats),
    /// Admission control shed this request; retry after the hinted delay.
    Busy {
        /// Suggested client backoff in milliseconds.
        retry_ms: u32,
    },
    /// The request failed (decode error, relational error, bad pattern).
    Err {
        /// Human-readable failure description.
        message: String,
    },
}

impl NetResponse {
    /// Serializes the response.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        self.encode_into(&mut out);
        out
    }

    /// Serializes the response, appending to `out` — the bytes
    /// [`encode`](NetResponse::encode) returns. The server encodes straight
    /// into its per-connection output queue this way, with no payload-sized
    /// temporary.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            NetResponse::Catalog { catalog, spec } => {
                out.push(RESP_CATALOG);
                wire::put_catalog(out, catalog);
                wire::put_spec(out, spec);
            }
            NetResponse::Rows { tuples } => {
                out.push(RESP_ROWS);
                wire::put_tuples(out, tuples);
            }
            NetResponse::Ack { n } => {
                out.push(RESP_ACK);
                wire::put_u64(out, *n);
            }
            NetResponse::Committed { seq } => {
                out.push(RESP_COMMITTED);
                wire::put_u64(out, *seq);
            }
            NetResponse::Stats(s) => {
                out.push(RESP_STATS);
                wire::put_u64(out, s.len);
                wire::put_u64(out, s.wal_pending_bytes);
                wire::put_u64(out, s.limbo_bytes);
                wire::put_u64(out, s.pinned_epoch_lag);
            }
            NetResponse::Busy { retry_ms } => {
                out.push(RESP_BUSY);
                wire::put_u32(out, *retry_ms);
            }
            NetResponse::Err { message } => {
                out.push(RESP_ERR);
                wire::put_str(out, message);
            }
        }
    }

    /// Deserializes a response, rejecting unknown tags and trailing bytes.
    ///
    /// # Errors
    ///
    /// [`WireError`] on any malformed input.
    pub fn decode(bytes: &[u8]) -> Result<NetResponse, WireError> {
        let mut r = Reader::new(bytes);
        let resp = match r.take_u8()? {
            RESP_CATALOG => NetResponse::Catalog {
                catalog: wire::take_catalog(&mut r)?,
                spec: wire::take_spec(&mut r)?,
            },
            RESP_ROWS => NetResponse::Rows {
                tuples: wire::take_tuples(&mut r)?,
            },
            RESP_ACK => NetResponse::Ack { n: r.take_u64()? },
            RESP_COMMITTED => NetResponse::Committed { seq: r.take_u64()? },
            RESP_STATS => NetResponse::Stats(ServingStats {
                len: r.take_u64()?,
                wal_pending_bytes: r.take_u64()?,
                limbo_bytes: r.take_u64()?,
                pinned_epoch_lag: r.take_u64()?,
            }),
            RESP_BUSY => NetResponse::Busy {
                retry_ms: r.take_u32()?,
            },
            RESP_ERR => NetResponse::Err {
                message: r.take_str()?.to_string(),
            },
            t => return Err(WireError::BadTag(t)),
        };
        r.expect_end()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relic_spec::Value;

    fn sample_tuple() -> Tuple {
        let mut cat = Catalog::new();
        let a = cat.intern("a");
        let b = cat.intern("b");
        Tuple::from_pairs([(a, Value::from(3)), (b, Value::from("x"))])
    }

    #[test]
    fn requests_round_trip() {
        let t = sample_tuple();
        for req in [
            NetRequest::Catalog,
            NetRequest::Insert { tuple: t.clone() },
            NetRequest::Remove { pattern: t.clone() },
            NetRequest::Query {
                pattern: t.clone(),
                out: ColSet::from_bits(0b11),
            },
            NetRequest::QueryWhere {
                pattern: "a >= 3, b = \"x\"".to_string(),
                out: ColSet::empty(),
            },
            NetRequest::Commit,
            NetRequest::Stats,
            NetRequest::Apply(Op::RemoveWhere(relic_spec::Pattern::from_tuple(&t))),
            NetRequest::Apply(Op::Migrate("let u : {} . {a} = unit {a} in u".to_string())),
        ] {
            assert_eq!(NetRequest::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let mut cat = Catalog::new();
        let a = cat.intern("a");
        let b = cat.intern("b");
        let spec = RelSpec::new(a | b).with_fd(a.set(), b.set());
        for resp in [
            NetResponse::Catalog {
                catalog: cat.clone(),
                spec,
            },
            NetResponse::Rows {
                tuples: vec![sample_tuple(), Tuple::empty()],
            },
            NetResponse::Ack { n: 7 },
            NetResponse::Committed { seq: 41 },
            NetResponse::Stats(ServingStats {
                len: 1,
                wal_pending_bytes: 2,
                limbo_bytes: 3,
                pinned_epoch_lag: 4,
            }),
            NetResponse::Busy { retry_ms: 25 },
            NetResponse::Err {
                message: "no such column".to_string(),
            },
        ] {
            assert_eq!(NetResponse::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn flat_rows_encode_as_the_rows_response_of_the_collected_tuples() {
        let mut cat = Catalog::new();
        let (a, b) = (cat.intern("a"), cat.intern("b"));
        // Unsorted, repeating once projected onto `b`, with a row whose
        // domain is smaller than the others'.
        let streamed: Vec<Tuple> = (0..40i64)
            .rev()
            .map(|i| {
                Tuple::from_pairs([(a, Value::from(i)), (b, Value::from(format!("s{}", i % 7)))])
            })
            .chain([Tuple::from_pairs([(b, Value::from("only-b"))])])
            .collect();
        let mut rows = FlatRows::new();
        let mut scratch = crate::Bindings::new();
        for out in [a | b, b.set(), a.set(), ColSet::EMPTY] {
            rows.begin(usize::MAX);
            for t in &streamed {
                scratch.load(t.iter());
                rows.push(&scratch, out);
            }
            rows.finish();
            let mut tuples: Vec<Tuple> = streamed.iter().map(|t| t.project(out)).collect();
            tuples.sort();
            tuples.dedup();
            let want = NetResponse::Rows { tuples }.encode();
            let mut got = vec![0xAB];
            encode_rows_into(&rows, &mut got);
            assert_eq!(got[1..], want[..], "out = {out:?}");
            assert_eq!(rows.encoded_len() + ROWS_HEADER_LEN, want.len());
        }
    }

    #[test]
    fn unknown_tags_and_trailing_bytes_are_typed_errors() {
        assert!(NetRequest::decode(&[0xEE]).is_err());
        assert!(NetResponse::decode(&[0xEE]).is_err());
        let mut ok = NetRequest::Commit.encode();
        ok.push(0);
        assert!(matches!(
            NetRequest::decode(&ok),
            Err(WireError::Trailing { .. })
        ));
        let mut ok = NetResponse::Ack { n: 1 }.encode();
        ok.push(0);
        assert!(matches!(
            NetResponse::decode(&ok),
            Err(WireError::Trailing { .. })
        ));
        assert!(NetRequest::decode(&[]).is_err());
        assert!(NetResponse::decode(&[]).is_err());
    }
}
