//! Regression for the framing-desync bug: the replication server reads
//! with a 100 ms timeout (to stay responsive to its stop flag), and the
//! old `read_exact`-based reader could consume *part* of a frame before
//! the timeout fired, losing those bytes — the next read then started
//! mid-frame and every subsequent message misparsed.
//!
//! The test trickles one byte per timeout window, so **every** server
//! read observes a partial frame, then proves the same connection still
//! parses a full-speed request afterwards (no desync).

// The shared scaffolding serves several suites; this one uses a subset.
#[allow(dead_code)]
mod common;

use common::{fresh_primary, tmpdir, tup};
use relic_core::Op;
use relic_persist::{frame_message, FrameReader, MAX_FRAME_PAYLOAD};
use relic_replica::{serve_tcp, Request, Response};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn send(stream: &mut TcpStream, req: &Request) {
    let mut msg = Vec::new();
    frame_message(&mut msg, &req.encode(), MAX_FRAME_PAYLOAD).unwrap();
    stream.write_all(&msg).unwrap();
}

fn read_response(stream: &mut TcpStream, reader: &mut FrameReader) -> Response {
    loop {
        if let Some(payload) = reader.next_frame().unwrap() {
            return Response::decode(&payload).unwrap();
        }
        assert_ne!(reader.fill(stream).unwrap(), 0, "server closed the stream");
    }
}

#[test]
fn slow_writer_does_not_desync_server_framing() {
    let dir = tmpdir("slow_writer");
    let (cols, primary) = fresh_primary(&dir, 1 << 20);
    for t in 0..3i64 {
        primary.apply(Op::Insert(tup(&cols, 1, t, t))).unwrap();
    }
    primary.commit().unwrap();
    let frontier = primary.relation().durable_seq();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let primary = Arc::new(primary);
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let primary = Arc::clone(&primary);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || serve_tcp(primary, listener, stop))
    };

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reader = FrameReader::new();

    // One byte per 110 ms: every 100 ms server read sees a partial frame.
    let mut msg = Vec::new();
    frame_message(
        &mut msg,
        &Request::Fetch { term: 0, after: 0 }.encode(),
        MAX_FRAME_PAYLOAD,
    )
    .unwrap();
    for &b in &msg {
        stream.write_all(&[b]).unwrap();
        std::thread::sleep(Duration::from_millis(110));
    }
    match read_response(&mut stream, &mut reader) {
        Response::Frames {
            frontier: f,
            frames,
            ..
        } => {
            assert_eq!(f, frontier);
            assert_eq!(frames.len(), 3, "all three committed frames ship");
        }
        other => panic!("unexpected response to the trickled request: {other:?}"),
    }

    // Full speed on the same connection: framing survived the trickle.
    send(
        &mut stream,
        &Request::Fetch {
            term: 0,
            after: frontier,
        },
    );
    match read_response(&mut stream, &mut reader) {
        Response::Frames { frames, .. } => assert!(frames.is_empty(), "caught up"),
        other => panic!("unexpected response after the trickle: {other:?}"),
    }

    stop.store(true, Ordering::Release);
    drop(stream);
    server.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
