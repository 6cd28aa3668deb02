//! Per-connection state: one nonblocking socket, one resumable frame
//! reader, one ordered output queue.
//!
//! The inbound half wraps the shared [`FrameReader`] — the same resumable
//! reassembly the replication transport uses — so a request split across
//! any number of TCP segments is reassembled without ever losing buffered
//! bytes to a `WouldBlock`. The outbound half is a byte queue with a write
//! cursor: responses are framed into it in request order, and
//! `flush_writes` pushes as much as the socket will
//! take, tracking partial writes so a slow reader never desyncs its own
//! response stream (the client-side mirror of the slow-*writer* framing
//! fix in the replica transport).

use relic_core::netmsg::{self, NetResponse};
use relic_core::{FlatRows, OpError};
use relic_persist::{
    begin_frame, frame_message, seal_frame, shrink_drained, FrameReader, PersistError,
    MAX_FRAME_PAYLOAD,
};
use std::io::{ErrorKind, Write};
use std::net::TcpStream;

/// Frames `resp` onto the end of `out` in place: the payload is encoded
/// straight behind a header placeholder, which is then patched with its
/// length and CRC — the bytes `frame_message(out, &resp.encode(), ..)`
/// would append, without the payload-sized temporary or its copy.
///
/// A payload over `max_payload` is rolled back and a typed
/// [`NetResponse::Err`] takes its slot, so the response order stays intact.
pub(crate) fn push_framed(out: &mut Vec<u8>, resp: &NetResponse, max_payload: u32) {
    let start = begin_frame(out);
    resp.encode_into(out);
    seal_or_substitute(out, start, max_payload);
}

/// Streams one read's answer into the reused collector `rows` and frames
/// it onto the end of `out` as a `Rows` response: the bytes
/// [`push_framed`] writes for `NetResponse::Rows { tuples }`, where `tuples`
/// is what `RelRead::query` returns for the same read, without a `Tuple`
/// per row.
///
/// `stream` pushes the read's rows into the collector; its error becomes a
/// typed [`NetResponse::Err`]. So does an answer whose distinct rows do not
/// fit `max_payload`: the collector stops buffering once they pass it, so
/// the answer is never held, encoded and rolled back whole. Either way the
/// `Err` takes the answer's slot. Afterwards the collector is emptied, and
/// shrunk if the answer grew it past 1 MiB.
pub(crate) fn push_rows_framed(
    out: &mut Vec<u8>,
    rows: &mut FlatRows,
    max_payload: u32,
    stream: impl FnOnce(&mut FlatRows) -> Result<(), OpError>,
) {
    rows.begin((max_payload as usize).saturating_sub(netmsg::ROWS_HEADER_LEN));
    let streamed = stream(rows);
    rows.finish();
    let message = match streamed {
        Err(e) => Some(e.to_string()),
        Ok(()) if rows.is_over() => {
            Some(format!("response exceeds the {max_payload} byte frame cap"))
        }
        Ok(()) => None,
    };
    match message {
        Some(message) => push_framed(out, &NetResponse::Err { message }, max_payload),
        None => {
            let start = begin_frame(out);
            netmsg::encode_rows_into(rows, out);
            seal_or_substitute(out, start, max_payload);
        }
    }
    rows.shrink_large();
}

/// Seals the frame begun at `start`; a payload over `max_payload` is rolled
/// back and a typed [`NetResponse::Err`] framed in its place.
fn seal_or_substitute(out: &mut Vec<u8>, start: usize, max_payload: u32) {
    if let Err(PersistError::FrameTooLarge { len, max }) = seal_frame(out, start, max_payload) {
        let err = NetResponse::Err {
            message: format!("response of {len} bytes exceeds the {max} byte frame cap"),
        };
        frame_message(out, &err.encode(), max_payload)
            .expect("error response fits any sane frame cap");
    }
}

/// What one nonblocking read pass against a connection produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReadPass {
    /// New bytes were buffered.
    Data,
    /// Nothing to read right now (`WouldBlock`).
    Empty,
    /// The peer closed (or the socket failed); the connection is dead.
    Closed,
}

/// One client connection owned by one worker.
#[derive(Debug)]
pub(crate) struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    /// Framed responses not yet fully written, in request order.
    out: Vec<u8>,
    /// How much of `out` has already reached the socket.
    out_pos: usize,
    /// Set on EOF or socket error: reap after draining any backlog.
    pub(crate) dead: bool,
    /// Set on a framing violation (oversized length prefix, bad checksum,
    /// mid-frame EOF): the byte stream can no longer be trusted, so the
    /// worker stops reading and closes once the error response drains.
    pub(crate) corrupt: bool,
}

impl Conn {
    /// Adopts an accepted stream, switching it to nonblocking mode.
    pub(crate) fn new(stream: TcpStream) -> std::io::Result<Conn> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            reader: FrameReader::with_max_payload(MAX_FRAME_PAYLOAD),
            out: Vec::new(),
            out_pos: 0,
            dead: false,
            corrupt: false,
        })
    }

    /// One nonblocking read pass: buffer whatever the socket has.
    pub(crate) fn read_pass(&mut self) -> ReadPass {
        if self.dead || self.corrupt {
            return ReadPass::Empty;
        }
        let mut got_any = false;
        loop {
            match self.reader.fill(&mut self.stream) {
                Ok(0) => {
                    // EOF: a mid-frame close means the peer died while a
                    // request was in flight — nothing to answer either way.
                    self.dead = true;
                    return if got_any {
                        ReadPass::Data
                    } else {
                        ReadPass::Closed
                    };
                }
                Ok(_) => got_any = true,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    return if got_any {
                        ReadPass::Data
                    } else {
                        ReadPass::Empty
                    };
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return ReadPass::Closed;
                }
            }
        }
    }

    /// The next complete request frame, if one is buffered.
    ///
    /// # Errors
    ///
    /// Propagates the frame reader's refusals (oversized frame, checksum
    /// mismatch) — the caller marks the connection corrupt.
    pub(crate) fn next_frame(&mut self) -> Result<Option<Vec<u8>>, PersistError> {
        if self.corrupt {
            return Ok(None);
        }
        self.reader.next_frame()
    }

    /// Queues a response behind everything already queued. Responses are
    /// written strictly in the order they are pushed.
    pub(crate) fn push_response(&mut self, resp: &NetResponse) {
        push_framed(&mut self.out, resp, MAX_FRAME_PAYLOAD);
    }

    /// Queues the answer `stream` collects into `rows` behind everything
    /// already queued (see [`push_rows_framed`]).
    pub(crate) fn push_rows(
        &mut self,
        rows: &mut FlatRows,
        stream: impl FnOnce(&mut FlatRows) -> Result<(), OpError>,
    ) {
        push_rows_framed(&mut self.out, rows, MAX_FRAME_PAYLOAD, stream);
    }

    /// Pushes queued bytes at the socket until it blocks or empties.
    /// Returns whether any bytes moved.
    pub(crate) fn flush_writes(&mut self) -> bool {
        let mut progressed = false;
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    self.out_pos += n;
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.out_pos == self.out.len() && !self.out.is_empty() {
            self.out.clear();
            self.out_pos = 0;
            shrink_drained(&mut self.out);
        }
        progressed
    }

    /// Whether responses are still queued (fully or partially unwritten).
    pub(crate) fn has_backlog(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// Whether this connection should be reaped: dead, or corrupt with its
    /// final error response already drained.
    pub(crate) fn reapable(&self) -> bool {
        self.dead || (self.corrupt && !self.has_backlog())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relic_core::netmsg::ServingStats;
    use relic_core::{Bindings, SynthRelation};
    use relic_spec::{Catalog, ColSet, RelSpec, Tuple, Value};
    use std::net::TcpListener;

    fn rows(n: usize) -> NetResponse {
        let mut cat = Catalog::new();
        let (a, b) = (cat.intern("a"), cat.intern("b"));
        NetResponse::Rows {
            tuples: (0..n)
                .map(|i| {
                    Tuple::from_pairs([
                        (a, Value::from(i as i64)),
                        (b, Value::from(format!("host-{i}").as_str())),
                    ])
                })
                .collect(),
        }
    }

    /// `rows(n)`'s tuples in a relation whose hash scan order is not their
    /// sorted order.
    fn relation(n: usize) -> SynthRelation {
        let mut cat = Catalog::new();
        let (a, b) = (cat.intern("a"), cat.intern("b"));
        let d = relic_decomp::parse(
            &mut cat,
            "let u : {a} . {b} = unit {b} in let x : {} . {a,b} = {a} -[htable]-> u in x",
        )
        .unwrap();
        let spec = RelSpec::new(a | b).with_fd(a.set(), b.set());
        let mut r = SynthRelation::new(&cat, spec, d).unwrap();
        let NetResponse::Rows { tuples } = rows(n) else {
            unreachable!()
        };
        for t in tuples {
            r.insert(t).unwrap();
        }
        r
    }

    /// Frames `r`'s answer to a full scan projected onto `out` through the
    /// flat collector.
    fn push_scan(
        out: &mut Vec<u8>,
        flat: &mut FlatRows,
        r: &SynthRelation,
        cols: ColSet,
        max_payload: u32,
    ) {
        push_rows_framed(out, flat, max_payload, |flat| {
            r.query_for_each_bindings(&mut Bindings::new(), &Tuple::empty(), cols, |b| {
                flat.push(b, cols)
            })
        });
    }

    fn every_variant() -> Vec<NetResponse> {
        let mut cat = Catalog::new();
        let (a, b) = (cat.intern("a"), cat.intern("b"));
        vec![
            NetResponse::Catalog {
                catalog: cat,
                spec: RelSpec::new(a | b).with_fd(a.set(), b.set()),
            },
            rows(0),
            rows(1),
            rows(512),
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
        ]
    }

    fn frames(bytes: &[u8], max_payload: u32) -> Vec<NetResponse> {
        let mut r = FrameReader::with_max_payload(max_payload);
        r.extend(bytes);
        let got = std::iter::from_fn(|| r.next_frame().unwrap())
            .map(|f| NetResponse::decode(&f).unwrap())
            .collect();
        assert!(!r.mid_frame());
        got
    }

    #[test]
    fn in_place_frames_equal_frame_message_of_encode() {
        // Appending to one queue also covers frames that start mid-buffer.
        let (mut out, mut want) = (Vec::new(), Vec::new());
        for resp in every_variant() {
            push_framed(&mut out, &resp, MAX_FRAME_PAYLOAD);
            frame_message(&mut want, &resp.encode(), MAX_FRAME_PAYLOAD).unwrap();
            assert_eq!(out, want, "{resp:?}");
        }
        // The flat path frames what `RelRead::query` answers, byte for
        // byte: sorted, distinct, `Str` values included.
        let mut sent = every_variant();
        let mut flat = FlatRows::new();
        for n in [0, 1, 512] {
            let r = relation(n);
            for cols in [r.spec().cols(), ColSet::from_bits(0b10), ColSet::EMPTY] {
                let resp = NetResponse::Rows {
                    tuples: r.query(&Tuple::empty(), cols).unwrap(),
                };
                push_scan(&mut out, &mut flat, &r, cols, MAX_FRAME_PAYLOAD);
                frame_message(&mut want, &resp.encode(), MAX_FRAME_PAYLOAD).unwrap();
                assert_eq!(out, want, "{n} rows onto {cols:?}");
                sent.push(resp);
            }
        }
        assert_eq!(sent[sent.len() - 3], rows(512));
        assert_eq!(frames(&out, MAX_FRAME_PAYLOAD), sent);
    }

    #[test]
    fn an_oversized_response_becomes_a_typed_err_in_its_slot() {
        let cap = 256;
        let big = rows(64);
        assert!(big.encode().len() > cap as usize);
        let mut out = Vec::new();
        push_framed(&mut out, &NetResponse::Ack { n: 1 }, cap);
        push_framed(&mut out, &big, cap);
        push_framed(&mut out, &NetResponse::Ack { n: 2 }, cap);
        let got = frames(&out, cap);
        assert_eq!(got.len(), 3, "{got:?}");
        assert_eq!(got[0], NetResponse::Ack { n: 1 });
        match &got[1] {
            NetResponse::Err { message } => assert_eq!(
                *message,
                format!(
                    "response of {} bytes exceeds the 256 byte frame cap",
                    big.encode().len()
                )
            ),
            other => panic!("expected the substituted Err, got {other:?}"),
        }
        assert_eq!(got[2], NetResponse::Ack { n: 2 });
    }

    #[test]
    fn an_answer_past_the_cap_stops_buffering_and_becomes_a_typed_err() {
        let cap = 256;
        let r = relation(5000);
        let cols = r.spec().cols();
        let mut flat = FlatRows::new();
        let mut out = Vec::new();
        push_framed(&mut out, &NetResponse::Ack { n: 1 }, cap);
        let (mut streamed, mut most_held) = (0, 0);
        push_rows_framed(&mut out, &mut flat, cap, |flat| {
            r.query_for_each_bindings(&mut Bindings::new(), &Tuple::empty(), cols, |b| {
                flat.push(b, cols);
                streamed += 1;
                most_held = most_held.max(flat.encoded_len());
            })
        });
        push_framed(&mut out, &NetResponse::Ack { n: 2 }, cap);
        assert_eq!(streamed, 5000);
        assert!(most_held <= 2 * cap as usize, "held {most_held} bytes");
        assert!(flat.capacity_bytes() < 4096, "{}", flat.capacity_bytes());
        let got = frames(&out, cap);
        assert_eq!(
            got,
            vec![
                NetResponse::Ack { n: 1 },
                NetResponse::Err {
                    message: "response exceeds the 256 byte frame cap".to_string()
                },
                NetResponse::Ack { n: 2 },
            ]
        );
        // The collector is reusable: an answer that fits is framed whole.
        let small = relation(3);
        push_scan(&mut out, &mut flat, &small, cols, cap);
        assert_eq!(frames(&out, cap).last(), Some(&rows(3)));
    }

    #[test]
    fn a_large_answer_gives_the_row_buffer_back() {
        let r = relation(30_000);
        let cols = r.spec().cols();
        let mut flat = FlatRows::new();
        let mut grown = 0;
        push_rows_framed(&mut Vec::new(), &mut flat, MAX_FRAME_PAYLOAD, |flat| {
            let scan =
                r.query_for_each_bindings(&mut Bindings::new(), &Tuple::empty(), cols, |b| {
                    flat.push(b, cols)
                });
            grown = flat.capacity_bytes();
            scan
        });
        assert!(grown > 1 << 20, "{grown}");
        assert!(
            flat.capacity_bytes() <= 1 << 20,
            "{}",
            flat.capacity_bytes()
        );
        // Steady traffic keeps its capacity.
        let r = relation(512);
        push_scan(&mut Vec::new(), &mut flat, &r, cols, MAX_FRAME_PAYLOAD);
        let kept = flat.capacity_bytes();
        push_scan(&mut Vec::new(), &mut flat, &r, cols, MAX_FRAME_PAYLOAD);
        assert_eq!(flat.capacity_bytes(), kept);
    }

    #[test]
    fn a_drained_large_response_gives_its_memory_back() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let mut conn = Conn::new(stream).unwrap();
        let big = NetResponse::Err {
            message: "x".repeat(4 << 20),
        };
        conn.push_response(&big);
        assert!(conn.out.capacity() > 4 << 20);
        let reader = std::thread::spawn(move || {
            let mut r = FrameReader::new();
            loop {
                if let Some(f) = r.next_frame().unwrap() {
                    return f.len();
                }
                assert_ne!(r.fill(&mut peer).unwrap(), 0, "closed mid-frame");
            }
        });
        while conn.has_backlog() {
            if !conn.flush_writes() {
                std::thread::yield_now();
            }
            assert!(!conn.dead);
        }
        assert_eq!(reader.join().unwrap(), big.encode().len());
        assert!(conn.out.capacity() <= 1 << 20, "{}", conn.out.capacity());
    }
}
