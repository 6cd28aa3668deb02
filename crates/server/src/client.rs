//! The blocking client, with explicit pipelining.
//!
//! [`Client::request`] is the simple call-and-wait form. For throughput,
//! drivers use [`send`](Client::send) / [`recv`](Client::recv) directly:
//! the server answers strictly in request order, so a client may keep any
//! number of requests in flight on one connection and match responses by
//! position. The ported scenarios and the `serving` bench family both
//! drive the protocol this way — it is what gives the server whole batches
//! of mutation frames to share one group commit.

use crate::ServerError;
use relic_core::netmsg::{NetRequest, NetResponse, ServingStats};
use relic_core::Op;
use relic_persist::{frame_message, FrameReader, MAX_FRAME_PAYLOAD};
use relic_spec::{Catalog, ColSet, RelSpec, Tuple};
use std::io::{ErrorKind, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A blocking connection to a `relic_server`.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    reader: FrameReader,
    /// Requests sent but not yet answered (pipelining depth).
    in_flight: usize,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Socket-level connect failures.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            reader: FrameReader::with_max_payload(MAX_FRAME_PAYLOAD),
            in_flight: 0,
        })
    }

    /// Requests currently in flight (sent, not yet received).
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Sends one request without waiting for its response.
    ///
    /// # Errors
    ///
    /// Socket-level write failures.
    pub fn send(&mut self, req: &NetRequest) -> Result<(), ServerError> {
        let mut buf = Vec::with_capacity(64);
        frame_message(&mut buf, &req.encode(), MAX_FRAME_PAYLOAD)?;
        self.stream.write_all(&buf)?;
        self.in_flight += 1;
        Ok(())
    }

    /// Receives the next response, in request order.
    ///
    /// # Errors
    ///
    /// Socket-level failures, a server close mid-response, or a framing /
    /// decode violation.
    pub fn recv(&mut self) -> Result<NetResponse, ServerError> {
        loop {
            if let Some(frame) = self.reader.next_frame()? {
                self.in_flight = self.in_flight.saturating_sub(1);
                return Ok(NetResponse::decode(&frame)?);
            }
            match self.reader.fill(&mut self.stream) {
                Ok(0) => {
                    return Err(ServerError::Io(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        if self.reader.mid_frame() {
                            "server closed mid-response"
                        } else {
                            "server closed the connection"
                        },
                    )))
                }
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(ServerError::Io(e)),
            }
        }
    }

    /// Sends a request and waits for its response.
    ///
    /// # Errors
    ///
    /// As for [`send`](Client::send) and [`recv`](Client::recv). Calling
    /// this with other requests still in flight is a usage error and
    /// reported as [`ServerError::Protocol`].
    pub fn request(&mut self, req: &NetRequest) -> Result<NetResponse, ServerError> {
        if self.in_flight != 0 {
            return Err(ServerError::Protocol(format!(
                "request() with {} responses still in flight",
                self.in_flight
            )));
        }
        self.send(req)?;
        self.recv()
    }

    /// Fetches the served relation's schema.
    ///
    /// # Errors
    ///
    /// Transport errors, or an unexpected response kind.
    pub fn catalog(&mut self) -> Result<(Catalog, RelSpec), ServerError> {
        match self.request(&NetRequest::Catalog)? {
            NetResponse::Catalog { catalog, spec } => Ok((catalog, spec)),
            other => Err(unexpected("Catalog", &other)),
        }
    }

    /// Applies one write; returns the ack's count (per op kind, as the
    /// `relic_core::netmsg` module docs list it).
    ///
    /// # Errors
    ///
    /// Transport errors, [`ServerError::Busy`] if shed, or
    /// [`ServerError::Remote`] if the server refused the op.
    pub fn apply(&mut self, op: Op) -> Result<u64, ServerError> {
        match self.request(&NetRequest::Apply(op))? {
            NetResponse::Ack { n } => Ok(n),
            other => Err(unexpected("Ack", &other)),
        }
    }

    /// `apply(Op::Insert(tuple))`. Errors as for [`apply`](Client::apply).
    pub fn insert(&mut self, tuple: Tuple) -> Result<u64, ServerError> {
        self.apply(Op::Insert(tuple))
    }

    /// Queries by equality pattern, projecting onto `out` (empty = all).
    ///
    /// # Errors
    ///
    /// Transport errors or a server-side query failure.
    pub fn query(&mut self, pattern: Tuple, out: ColSet) -> Result<Vec<Tuple>, ServerError> {
        match self.request(&NetRequest::Query { pattern, out })? {
            NetResponse::Rows { tuples } => Ok(tuples),
            other => Err(unexpected("Rows", &other)),
        }
    }

    /// Queries by predicate source text, parsed on the server.
    ///
    /// # Errors
    ///
    /// Transport errors, a server-side parse refusal, or a query failure.
    pub fn query_where(&mut self, pattern: &str, out: ColSet) -> Result<Vec<Tuple>, ServerError> {
        let req = NetRequest::QueryWhere {
            pattern: pattern.to_string(),
            out,
        };
        match self.request(&req)? {
            NetResponse::Rows { tuples } => Ok(tuples),
            other => Err(unexpected("Rows", &other)),
        }
    }

    /// Forces a group commit; returns the durable frontier.
    ///
    /// # Errors
    ///
    /// Transport errors or a server-side commit failure.
    pub fn commit(&mut self) -> Result<u64, ServerError> {
        match self.request(&NetRequest::Commit)? {
            NetResponse::Committed { seq } => Ok(seq),
            other => Err(unexpected("Committed", &other)),
        }
    }

    /// Fetches the server's pressure gauges.
    ///
    /// # Errors
    ///
    /// Transport errors or an unexpected response kind.
    pub fn stats(&mut self) -> Result<ServingStats, ServerError> {
        match self.request(&NetRequest::Stats)? {
            NetResponse::Stats(s) => Ok(s),
            other => Err(unexpected("Stats", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &NetResponse) -> ServerError {
    match got {
        NetResponse::Err { message } => ServerError::Remote(message.clone()),
        NetResponse::Busy { retry_ms } => ServerError::Busy {
            retry_ms: *retry_ms,
        },
        other => ServerError::Protocol(format!("expected {wanted}, got {other:?}")),
    }
}
