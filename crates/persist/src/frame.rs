//! A resumable, buffered reader for `len: u32 | crc: u32 | payload`
//! message frames — the socket-side twin of the on-disk log framing.
//!
//! # Why buffered and resumable
//!
//! The naive socket read path (`read_exact` the 8-byte header, then
//! `read_exact` the payload) is wrong on any stream with a read timeout or
//! in nonblocking mode: `read_exact` may consume *part* of the header or
//! payload and then fail with `WouldBlock`/`TimedOut`, and the consumed
//! bytes are gone — the next read starts mid-frame and every subsequent
//! message misparses. That desync was a real bug in the replication
//! transport's serve loop (a 100 ms read timeout kept the worker
//! responsive to its stop flag, and a slow writer trickling bytes across
//! timeout windows desynced the stream).
//!
//! [`FrameReader`] fixes this by construction: [`fill`](FrameReader::fill)
//! moves whatever bytes are available into an internal buffer (a timeout
//! mid-fill loses nothing), and [`next_frame`](FrameReader::next_frame)
//! extracts complete frames from the buffer only when all their bytes have
//! arrived. Partial frames simply wait in the buffer across any number of
//! fill calls. Both the replication transport and the serving front end
//! (`relic_server`) read through this one implementation.
//!
//! Writers use [`frame_message`], which refuses payloads whose length
//! does not fit the `u32` prefix or exceeds the reader's cap — the checked
//! replacement for the `payload.len() as u32` cast that silently truncated
//! oversized messages. A writer that encodes its payload straight into the
//! output buffer uses the same check through [`begin_frame`] /
//! [`seal_frame`], which patch the header in place instead of copying a
//! finished payload.

use crate::wal::crc32;
use crate::PersistError;
use std::io::{self, Read};

/// Frame header size: `len: u32` + `crc: u32`.
const HEADER: usize = 8;

/// The default cap on a message payload: large enough for a shipped
/// checkpoint image or WAL batch, small enough that a hostile length
/// prefix cannot make the reader allocate unbounded memory.
pub const MAX_FRAME_PAYLOAD: u32 = 1 << 26;

/// How many bytes one [`fill`](FrameReader::fill) call asks the source for
/// at least, and the capacity a drained oversized buffer shrinks back to.
const FILL_CHUNK: usize = 64 * 1024;

/// A drained frame buffer whose capacity exceeds this is shrunk back to
/// [`FILL_CHUNK`] (see [`shrink_drained`]).
const SHRINK_ABOVE: usize = 1 << 20;

/// Encodes one message frame (`len | crc | payload`) for `payload`,
/// appending to `out`.
///
/// # Errors
///
/// [`PersistError::FrameTooLarge`] if `payload` exceeds `max_payload` —
/// the peer's reader would refuse it anyway, so the writer refuses first
/// instead of truncating the length prefix. `out` is left as it was.
pub fn frame_message(
    out: &mut Vec<u8>,
    payload: &[u8],
    max_payload: u32,
) -> Result<(), PersistError> {
    // Refuse before copying: `seal_frame` would only refuse after.
    if payload.len() > max_payload as usize {
        return Err(too_large(payload.len(), max_payload));
    }
    out.reserve(HEADER + payload.len());
    let start = begin_frame(out);
    out.extend_from_slice(payload);
    seal_frame(out, start, max_payload)
}

fn too_large(len: usize, max_payload: u32) -> PersistError {
    PersistError::FrameTooLarge {
        len,
        max: max_payload as usize,
    }
}

/// Starts a frame written in place: appends the 8-byte header placeholder
/// to `out` and returns the frame's start offset. Append the payload to
/// `out`, then call [`seal_frame`] with the returned offset.
pub fn begin_frame(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; HEADER]);
    start
}

/// Seals the frame [`begin_frame`] started at `start`: everything after its
/// header placeholder is the payload, and the placeholder is patched with
/// the payload's length and CRC. The bytes equal [`frame_message`]'s for the
/// same payload.
///
/// # Errors
///
/// [`PersistError::FrameTooLarge`] if the payload exceeds `max_payload`;
/// `out` is then truncated back to `start`, as if the frame was never
/// begun, so the caller can put something else in its place.
///
/// # Panics
///
/// If `out` is shorter than `start` plus the header — `start` did not come
/// from [`begin_frame`] on this buffer (a caller bug, not an input).
pub fn seal_frame(out: &mut Vec<u8>, start: usize, max_payload: u32) -> Result<(), PersistError> {
    let payload_len = out.len() - (start + HEADER);
    let len = match u32::try_from(payload_len) {
        Ok(l) if l <= max_payload => l,
        _ => {
            out.truncate(start);
            return Err(too_large(payload_len, max_payload));
        }
    };
    let crc = crc32(&out[start + HEADER..]);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + HEADER].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// Gives back the memory of a drained frame buffer that once held a large
/// message: a capacity above 1 MiB shrinks to one 64 KiB fill chunk.
/// Without this, one response or request near [`MAX_FRAME_PAYLOAD`] would
/// pin up to 64 MiB for the rest of the connection. Buffers that stay under
/// the threshold keep their capacity, so steady traffic never reallocates.
pub fn shrink_drained(buf: &mut Vec<u8>) {
    if buf.capacity() > SHRINK_ABOVE {
        buf.truncate(FILL_CHUNK);
        buf.shrink_to(FILL_CHUNK);
    }
}

/// A per-connection frame reassembly buffer: feed bytes in with
/// [`fill`](FrameReader::fill) (or [`extend`](FrameReader::extend)), take
/// complete verified payloads out with [`next_frame`](FrameReader::next_frame).
///
/// The reader never loses state on a short or failed read, so it is safe
/// on nonblocking sockets, sockets with read timeouts, and byte-trickling
/// peers.
///
/// # Buffer invariant
///
/// `pos <= end <= buf.len()`. `buf[pos..end]` holds the bytes received and
/// not yet consumed; `buf[end..]` is initialised spare room that `fill`
/// reads into directly. Its contents are stale (zeroes or bytes of frames
/// already consumed) and are never parsed: every read of frame bytes is
/// bounded by `end`. Keeping the spare room initialised is what lets
/// `fill` skip re-zeroing 64 KiB on every socket read.
#[derive(Debug)]
pub struct FrameReader {
    /// Received bytes (`..end`) followed by initialised spare room.
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted lazily).
    pos: usize,
    /// End of the received bytes; `pos..end` is the live region.
    end: usize,
    max_payload: u32,
}

impl Default for FrameReader {
    fn default() -> Self {
        FrameReader::new()
    }
}

impl FrameReader {
    /// A reader with the default [`MAX_FRAME_PAYLOAD`] cap.
    pub fn new() -> FrameReader {
        FrameReader::with_max_payload(MAX_FRAME_PAYLOAD)
    }

    /// A reader refusing frames whose payload exceeds `max_payload`.
    pub fn with_max_payload(max_payload: u32) -> FrameReader {
        FrameReader {
            buf: Vec::new(),
            pos: 0,
            end: 0,
            max_payload,
        }
    }

    /// Reads once from `src` into the buffer, returning the byte count
    /// (`0` means the peer closed the stream). A `WouldBlock`/`TimedOut`
    /// error passes through with the buffer intact — nothing read so far
    /// is lost, which is the whole point.
    ///
    /// The read lands in the buffer's spare room, which is grown (and
    /// zeroed) only when less than one 64 KiB chunk of it is left.
    ///
    /// # Errors
    ///
    /// Whatever `src.read` reports.
    pub fn fill(&mut self, src: &mut impl Read) -> io::Result<usize> {
        self.compact();
        if self.buf.len() - self.end < FILL_CHUNK {
            self.buf.resize(self.end + FILL_CHUNK, 0);
        }
        let n = src.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Appends already-received bytes (for sources that hand out slices
    /// rather than implementing [`Read`]).
    pub fn extend(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.truncate(self.end);
        self.buf.extend_from_slice(bytes);
        self.end = self.buf.len();
    }

    /// Extracts the next complete frame's payload, if all its bytes have
    /// arrived. `Ok(None)` means "keep filling" — a partial header or
    /// payload stays buffered.
    ///
    /// # Errors
    ///
    /// [`PersistError::FrameTooLarge`] if the length prefix exceeds the
    /// cap (a hostile or desynced peer — the connection should be
    /// dropped); [`PersistError::Corrupt`] on a checksum mismatch.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, PersistError> {
        let live = &self.buf[self.pos..self.end];
        if live.len() < HEADER {
            return Ok(None);
        }
        let len = u32::from_le_bytes(live[..4].try_into().expect("4 bytes"));
        if len > self.max_payload {
            return Err(PersistError::FrameTooLarge {
                len: len as usize,
                max: self.max_payload as usize,
            });
        }
        let crc = u32::from_le_bytes(live[4..8].try_into().expect("4 bytes"));
        let len = len as usize;
        if live.len() - HEADER < len {
            return Ok(None);
        }
        let payload = &live[HEADER..HEADER + len];
        if crc32(payload) != crc {
            return Err(PersistError::Corrupt("message checksum mismatch".into()));
        }
        let payload = payload.to_vec();
        self.pos += HEADER + len;
        self.compact();
        Ok(Some(payload))
    }

    /// Whether bytes of an incomplete frame are buffered — after an EOF
    /// ([`fill`](FrameReader::fill) returning `0`), a true value means the
    /// peer died mid-frame (report it), a false value a clean close.
    pub fn mid_frame(&self) -> bool {
        self.pos < self.end
    }

    /// Bytes currently buffered (diagnostics / backpressure accounting).
    pub fn buffered(&self) -> usize {
        self.end - self.pos
    }

    /// Drops the consumed prefix once it dominates the buffer, keeping the
    /// resident footprint proportional to the unconsumed remainder. A fully
    /// drained buffer rewinds to the start, giving back its memory if a
    /// large frame had grown it ([`shrink_drained`]).
    fn compact(&mut self) {
        if self.pos == self.end {
            self.pos = 0;
            self.end = 0;
            shrink_drained(&mut self.buf);
        } else if self.pos >= FILL_CHUNK {
            self.buf.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        frame_message(&mut out, payload, MAX_FRAME_PAYLOAD).unwrap();
        out
    }

    #[test]
    fn frames_round_trip_one_byte_at_a_time() {
        // The regression shape: bytes trickle in one per "timeout window".
        let msgs: [&[u8]; 3] = [b"hello", b"", b"a longer message body"];
        let stream: Vec<u8> = msgs.iter().flat_map(|m| framed(m)).collect();
        let mut r = FrameReader::new();
        let mut got = Vec::new();
        for &b in &stream {
            r.extend(&[b]);
            while let Some(p) = r.next_frame().unwrap() {
                got.push(p);
            }
        }
        assert_eq!(got, msgs.iter().map(|m| m.to_vec()).collect::<Vec<_>>());
        assert!(!r.mid_frame());
    }

    #[test]
    fn many_frames_in_one_fill_all_extract() {
        let stream: Vec<u8> = (0u8..50)
            .flat_map(|i| framed(&vec![i; i as usize]))
            .collect();
        let mut r = FrameReader::new();
        r.extend(&stream);
        for i in 0u8..50 {
            assert_eq!(r.next_frame().unwrap().unwrap(), vec![i; i as usize]);
        }
        assert_eq!(r.next_frame().unwrap(), None);
    }

    #[test]
    fn fill_from_reader_resumes_across_short_reads() {
        // One byte per call: the worst-case legal stream source.
        let mut src = Trickle {
            bytes: framed(b"slow and steady"),
            at: 0,
            step: 1,
        };
        let mut r = FrameReader::new();
        loop {
            if let Some(p) = r.next_frame().unwrap() {
                assert_eq!(p, b"slow and steady");
                break;
            }
            assert_ne!(r.fill(&mut src).unwrap(), 0, "EOF before frame completed");
        }
    }

    #[test]
    fn oversized_length_prefix_is_refused() {
        let mut r = FrameReader::with_max_payload(16);
        let mut bytes = Vec::new();
        frame_message(&mut bytes, &[7u8; 17], MAX_FRAME_PAYLOAD).unwrap();
        r.extend(&bytes);
        assert!(matches!(
            r.next_frame(),
            Err(PersistError::FrameTooLarge { len: 17, max: 16 })
        ));
        // And the writer refuses symmetrically.
        let mut out = Vec::new();
        assert!(matches!(
            frame_message(&mut out, &[7u8; 17], 16),
            Err(PersistError::FrameTooLarge { len: 17, max: 16 })
        ));
    }

    #[test]
    fn byte_flips_are_caught_by_the_checksum() {
        let good = framed(b"checksummed payload");
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            let mut r = FrameReader::new();
            r.extend(&bad);
            match r.next_frame() {
                // A flip in the length prefix usually yields "keep
                // filling" (longer frame) or a short frame — never a
                // silently wrong payload.
                Ok(None) => assert!(i < 4, "only a length flip may stall, not byte {i}"),
                Ok(Some(p)) => panic!("flip at byte {i} produced a payload: {p:?}"),
                Err(PersistError::Corrupt(_)) | Err(PersistError::FrameTooLarge { .. }) => {}
                Err(e) => panic!("unexpected error for flip at {i}: {e}"),
            }
        }
    }

    #[test]
    fn truncated_frame_reports_mid_frame_at_eof() {
        let good = framed(b"will be cut short");
        for cut in 1..good.len() {
            let mut r = FrameReader::new();
            r.extend(&good[..cut]);
            assert_eq!(r.next_frame().unwrap(), None, "cut at {cut}");
            assert!(r.mid_frame(), "cut at {cut}");
        }
    }

    /// A `Read` source handing out at most `step` bytes per call.
    struct Trickle {
        bytes: Vec<u8>,
        at: usize,
        step: usize,
    }

    impl Read for Trickle {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(out.len()).min(self.bytes.len() - self.at);
            out[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    #[test]
    fn trickled_frames_after_a_large_one_never_parse_stale_bytes() {
        // A 40 KB frame leaves its bytes in the spare room past `end`; the
        // small frames trickled in afterwards must parse from their own
        // bytes only — never complete early off a stale header or payload.
        let big: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
        let small: Vec<Vec<u8>> = (0u8..20).map(|i| vec![i; usize::from(i % 7)]).collect();
        let mut stream = framed(&big);
        for m in &small {
            stream.extend(framed(m));
        }
        let mut src = Trickle {
            bytes: stream,
            at: 0,
            step: HEADER + big.len(),
        };
        let mut r = FrameReader::new();
        assert_eq!(r.fill(&mut src).unwrap(), HEADER + big.len());
        src.step = 1;
        assert_eq!(r.next_frame().unwrap().unwrap(), big);
        let mut got = Vec::new();
        while got.len() < small.len() {
            while let Some(p) = r.next_frame().unwrap() {
                got.push(p);
            }
            if got.len() < small.len() {
                assert_eq!(r.fill(&mut src).unwrap(), 1);
            }
            assert!(r.pos <= r.end && r.end <= r.buf.len());
        }
        assert_eq!(got, small);
        assert!(!r.mid_frame());
    }

    #[test]
    fn a_drained_large_frame_gives_its_memory_back() {
        let big = framed(&vec![5u8; 4 << 20]);
        let mut r = FrameReader::new();
        let mut src = Trickle {
            bytes: big.clone(),
            at: 0,
            step: usize::MAX,
        };
        let frame = loop {
            if let Some(p) = r.next_frame().unwrap() {
                break p;
            }
            assert_ne!(r.fill(&mut src).unwrap(), 0);
        };
        assert_eq!(frame.len(), 4 << 20);
        assert!(r.buf.capacity() <= SHRINK_ABOVE, "{}", r.buf.capacity());
        // And through `extend`, then steady small traffic does not regrow it.
        r.extend(&big);
        assert!(r.next_frame().unwrap().is_some());
        assert!(r.buf.capacity() <= SHRINK_ABOVE, "{}", r.buf.capacity());
        r.extend(&framed(b"small"));
        assert_eq!(r.next_frame().unwrap().unwrap(), b"small");
    }

    #[test]
    fn sealed_in_place_frames_equal_frame_message() {
        for payload in [&b""[..], b"x", &[0xA5; 1000]] {
            let mut out = b"prefix".to_vec();
            let start = begin_frame(&mut out);
            out.extend_from_slice(payload);
            seal_frame(&mut out, start, MAX_FRAME_PAYLOAD).unwrap();
            let mut want = b"prefix".to_vec();
            want.extend(framed(payload));
            assert_eq!(out, want);
        }
        // An oversized payload is refused and rolled back to the frame start.
        let mut out = b"prefix".to_vec();
        let start = begin_frame(&mut out);
        out.extend_from_slice(&[1; 17]);
        assert!(matches!(
            seal_frame(&mut out, start, 16),
            Err(PersistError::FrameTooLarge { len: 17, max: 16 })
        ));
        assert_eq!(out, b"prefix");
    }

    #[test]
    fn compaction_keeps_the_buffer_bounded() {
        let mut r = FrameReader::new();
        let frame = framed(&[9u8; 1000]);
        for _ in 0..1000 {
            r.extend(&frame);
            assert!(r.next_frame().unwrap().is_some());
            assert!(r.buf.len() < 2 * FILL_CHUNK + frame.len());
        }
    }
}
