//! Length-prefixed framing over TCP streams.
//!
//! Wire layout per frame:
//!
//! ```text
//! [u32 LE: body length] [u16 LE: sender replica id] [body: Message bytes]
//! ```
//!
//! The first frame on every connection is a `HELLO` (empty body) that
//! identifies the sender, after which only protocol messages flow. Frames
//! are bounded by [`MAX_FRAME`] to protect receivers from hostile lengths.
//!
//! [`encode_frame`] is the one writer of the layout; `body_len` and
//! `decode` below are its one reader, called by both the blocking
//! [`read_frame`] and the incremental `FrameBuf` the replica loop reads
//! its non-blocking sockets with.

use std::io::{self, Read, Write};

use banyan_types::codec::{Wire, Writer};
use banyan_types::ids::ReplicaId;
use banyan_types::message::Message;

/// Upper bound on a frame body (64 MiB — comfortably above the largest
/// block the benchmarks ship).
pub const MAX_FRAME: usize = 64 << 20;

/// A decoded frame: who sent it and what.
// `Msg` carries a whole protocol message inline; `Hello` happens once per
// connection, so the size skew is irrelevant.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Connection handshake: identifies the sender.
    Hello {
        /// The dialing replica.
        from: ReplicaId,
    },
    /// A protocol message.
    Msg {
        /// The sending replica.
        from: ReplicaId,
        /// The message.
        msg: Message,
    },
}

/// Bytes ahead of a frame's body: its length and its sender.
const HEADER: usize = 4 + 2;

/// Writes a hello frame.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_hello<W: Write>(w: &mut W, from: ReplicaId) -> io::Result<()> {
    // One write: on an unbuffered socket, one segment.
    let mut hello = [0u8; HEADER];
    hello[4..].copy_from_slice(&from.0.to_le_bytes());
    w.write_all(&hello)?;
    w.flush()
}

/// Encodes one message frame, header and body, into a fresh buffer: the
/// one place the frame layout is written. A broadcast is encoded once and
/// the same bytes go to every peer.
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidInput`] if the body is too long for
/// the `u32` length field.
pub fn encode_frame(from: ReplicaId, msg: &Message) -> io::Result<Vec<u8>> {
    // Sized once: a frame is shared until every peer's socket has taken it.
    let mut w = Writer::with_capacity(HEADER + msg.encoded_len());
    w.u32(0); // the length, patched below
    w.u16(from.0);
    msg.encode(&mut w);
    let mut frame = w.into_bytes();
    let len = u32::try_from(frame.len() - HEADER)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    frame[..4].copy_from_slice(&len.to_le_bytes());
    Ok(frame)
}

/// Writes and flushes one message frame.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer, and
/// [`encode_frame`]'s.
pub fn write_msg<W: Write>(w: &mut W, from: ReplicaId, msg: &Message) -> io::Result<()> {
    w.write_all(&encode_frame(from, msg)?)?;
    w.flush()
}

/// The body length a frame's first four bytes declare, checked against
/// [`MAX_FRAME`] before anything is allocated for it.
fn body_len(prefix: [u8; 4]) -> io::Result<usize> {
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame exceeds MAX_FRAME",
        ));
    }
    Ok(len)
}

/// The frame a sender id and a whole body make: an empty body is a hello.
fn decode(from: [u8; 2], body: &[u8]) -> io::Result<Frame> {
    let from = ReplicaId(u16::from_le_bytes(from));
    if body.is_empty() {
        return Ok(Frame::Hello { from });
    }
    let msg = Message::from_bytes(body)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad message: {e}")))?;
    Ok(Frame::Msg { from, msg })
}

/// Reads one frame, blocking. The body grows as its bytes arrive, so a
/// header alone never allocates what its length claims.
///
/// # Errors
///
/// Returns an error on I/O failure (a stream that ends mid-frame is
/// [`io::ErrorKind::UnexpectedEof`]), oversized frames, or undecodable
/// bodies.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Frame> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix)?;
    let len = body_len(prefix)?;
    let mut from = [0u8; 2];
    r.read_exact(&mut from)?;
    let mut body = Vec::with_capacity(len.min(INITIAL_BUF));
    r.by_ref().take(len as u64).read_to_end(&mut body)?;
    if body.len() < len {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    decode(from, &body)
}

/// Bytes a [`FrameBuf`] starts with, and the most [`read_frame`] reserves
/// for a body before its bytes arrive.
const INITIAL_BUF: usize = 64 << 10;

/// The incremental reader of the frame layout, for a non-blocking
/// stream: [`fill`](FrameBuf::fill) reads whatever bytes have arrived,
/// [`next_frame`](FrameBuf::next_frame) splits off each frame they
/// complete, and a frame still arriving stays buffered for the next read.
/// It yields the frames, and the error, that [`read_frame`] called over
/// and over yields on the same bytes; where `read_frame` would wait for
/// more, it yields `None`.
///
/// The buffer starts at [`INITIAL_BUF`] and doubles only when one
/// unfinished frame fills it, never past that frame's length, so its
/// capacity stays within twice the bytes received plus its initial size
/// whatever a header claims.
#[derive(Debug)]
pub(crate) struct FrameBuf {
    /// Always initialized to its full length; `start..end` holds the
    /// bytes received and not yet split off.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Default for FrameBuf {
    fn default() -> Self {
        FrameBuf {
            buf: vec![0; INITIAL_BUF],
            start: 0,
            end: 0,
        }
    }
}

impl FrameBuf {
    /// Room left for the next read.
    pub(crate) fn free(&self) -> usize {
        self.buf.len() - self.end
    }

    /// One `read` from `r` into the free space. An unfinished frame is
    /// first moved to the front, and if it fills the whole buffer the
    /// buffer doubles (up to that frame's length), so there is always
    /// room. `Ok(0)` is end of stream.
    ///
    /// # Errors
    ///
    /// Propagates the read's error, `WouldBlock` included.
    pub(crate) fn fill<R: Read>(&mut self, r: &mut R) -> io::Result<usize> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.end == self.buf.len() {
            let grown = 2 * self.buf.len();
            let frame = self
                .buf
                .first_chunk::<4>()
                .map(|&prefix| HEADER + u32::from_le_bytes(prefix) as usize)
                .filter(|&frame| frame > self.buf.len());
            self.buf
                .resize(frame.map_or(grown, |frame| frame.min(grown)), 0);
        }
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Splits the next frame off the front: `Ok(None)` while its bytes
    /// have not all arrived.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] for an oversized frame or an
    /// undecodable body, as [`read_frame`] returns; the stream is then
    /// unusable.
    pub(crate) fn next_frame(&mut self) -> io::Result<Option<Frame>> {
        let bytes = &self.buf[self.start..self.end];
        let Some(&prefix) = bytes.first_chunk::<4>() else {
            return Ok(None);
        };
        let len = body_len(prefix)?;
        let Some(frame) = bytes.get(..HEADER + len) else {
            return Ok(None);
        };
        let frame = decode([frame[4], frame[5]], &frame[HEADER..])?;
        self.start += HEADER + len;
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
        }
        Ok(Some(frame))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use banyan_types::ids::{BlockHash, Round};
    use banyan_types::message::SyncMsg;

    fn sample_msg() -> Message {
        Message::Sync(SyncMsg::Request {
            hash: BlockHash([7; 32]),
        })
    }

    #[test]
    fn hello_roundtrip() {
        let mut buf = Vec::new();
        write_hello(&mut buf, ReplicaId(3)).unwrap();
        let frame = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(frame, Frame::Hello { from: ReplicaId(3) });
    }

    #[test]
    fn msg_roundtrip() {
        let mut buf = Vec::new();
        write_msg(&mut buf, ReplicaId(1), &sample_msg()).unwrap();
        let frame = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(
            frame,
            Frame::Msg {
                from: ReplicaId(1),
                msg: sample_msg()
            }
        );
    }

    #[test]
    fn several_frames_stream() {
        let mut buf = Vec::new();
        write_hello(&mut buf, ReplicaId(0)).unwrap();
        write_msg(&mut buf, ReplicaId(0), &sample_msg()).unwrap();
        write_msg(&mut buf, ReplicaId(0), &sample_msg()).unwrap();
        let mut r = buf.as_slice();
        assert!(matches!(read_frame(&mut r).unwrap(), Frame::Hello { .. }));
        assert!(matches!(read_frame(&mut r).unwrap(), Frame::Msg { .. }));
        assert!(matches!(read_frame(&mut r).unwrap(), Frame::Msg { .. }));
        assert!(read_frame(&mut r).is_err(), "EOF");
    }

    /// Distinct messages from distinct senders, so an order or boundary
    /// slip shows.
    fn distinct_msgs() -> Vec<(ReplicaId, Message)> {
        (0..5u8)
            .map(|i| {
                let msg = match i % 3 {
                    0 => Message::Sync(SyncMsg::Request {
                        hash: BlockHash([i; 32]),
                    }),
                    1 => Message::Sync(SyncMsg::FrontierProbe),
                    _ => Message::Sync(SyncMsg::FrontierInfo {
                        finalized: Round(u64::from(i) * 1_000),
                    }),
                };
                (ReplicaId(u16::from(i)), msg)
            })
            .collect()
    }

    /// A peer's backlog goes out as its frames back to back; the
    /// reader must split it into the same frames, in order.
    #[test]
    fn coalesced_frames_read_back_in_order() {
        let sent = distinct_msgs();
        let mut wire = Vec::new();
        for (from, msg) in &sent {
            wire.extend_from_slice(&encode_frame(*from, msg).unwrap());
        }
        let mut r = wire.as_slice();
        for (from, msg) in sent {
            assert_eq!(read_frame(&mut r).unwrap(), Frame::Msg { from, msg });
        }
        assert!(r.is_empty(), "nothing left over");
    }

    /// A broadcast is encoded once for every peer: those bytes must be the
    /// ones `write_msg` puts on each peer's stream.
    #[test]
    fn one_encoding_equals_per_peer_write_msg() {
        for (from, msg) in distinct_msgs() {
            let shared = encode_frame(from, &msg).unwrap();
            for _peer in 0..3 {
                let mut wire = Vec::new();
                write_msg(&mut wire, from, &msg).unwrap();
                assert_eq!(wire, shared);
            }
        }
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_body_errors() {
        let mut buf = Vec::new();
        write_msg(&mut buf, ReplicaId(1), &sample_msg()).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_frame(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn garbage_body_errors() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&[0xFF, 0xFF, 0xFF]);
        assert!(read_frame(&mut buf.as_slice()).is_err());
    }

    /// The framing half of `arbitrary_bytes_never_panic_the_decoder`
    /// (`banyan-types`' codec proptest, which cannot reach this crate):
    /// noise up to 4 KiB — half of it behind a header whose length is
    /// honest, so the body reaches the message decoder — and real frames
    /// with a few bytes overwritten return a frame or an error, never a
    /// panic.
    #[test]
    fn arbitrary_bytes_never_panic_read_frame() {
        let mut next = splitmix(0x9E37_79B9_7F4A_7C15);
        let mut real = Vec::new();
        write_msg(&mut real, ReplicaId(2), &sample_msg()).unwrap();
        for case in 0..4_000 {
            let buf = hostile_bytes(case, &real, &mut next);
            let _ = read_frame(&mut buf.as_slice());
        }
    }

    /// A deterministic stream of pseudo-random words (splitmix64).
    pub(crate) fn splitmix(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// Case `case` of the hostile inputs: noise up to 4 KiB on even cases,
    /// `real` with a few bytes overwritten on odd ones; every fourth case
    /// gets a header whose length is honest, so the body reaches the
    /// message decoder.
    fn hostile_bytes(case: usize, real: &[u8], next: &mut impl FnMut() -> u64) -> Vec<u8> {
        let mut buf: Vec<u8> = if case.is_multiple_of(2) {
            let len = (next() % 4096) as usize;
            (0..len).map(|_| next() as u8).collect()
        } else {
            let mut frame = real.to_vec();
            for _ in 0..1 + next() % 4 {
                let at = (next() as usize) % frame.len();
                frame[at] = next() as u8;
            }
            frame
        };
        if case.is_multiple_of(4) && buf.len() >= HEADER {
            let body = (buf.len() - HEADER) as u32;
            buf[..4].copy_from_slice(&body.to_le_bytes());
        }
        buf
    }

    /// What a [`FrameBuf`] yields for `wire` arriving in chunks whose
    /// sizes `next` picks (often a few bytes, sometimes all that is
    /// left): every frame, then the error it stopped at, if any.
    fn split_in_chunks(
        wire: &[u8],
        next: &mut impl FnMut() -> u64,
    ) -> (Vec<Frame>, Option<io::Error>) {
        let mut frames = FrameBuf::default();
        let (mut got, mut rest) = (Vec::new(), wire);
        loop {
            match frames.next_frame() {
                Ok(Some(frame)) => {
                    got.push(frame);
                    continue;
                }
                Ok(None) => {}
                Err(e) => return (got, Some(e)),
            }
            if rest.is_empty() {
                return (got, None);
            }
            let most = if next().is_multiple_of(2) {
                8
            } else {
                rest.len()
            };
            let chunk = 1 + (next() as usize) % most.min(rest.len());
            let n = frames.fill(&mut &rest[..chunk]).unwrap();
            rest = &rest[n..];
        }
    }

    /// The splitter and `read_frame` are one reader: on hostile bytes —
    /// the cases above, and whole streams of real frames with a few
    /// bytes overwritten — fed in random chunkings, the splitter yields
    /// exactly the frames `read_frame` yields over and over on the
    /// concatenation, then the same error; where `read_frame` runs out of
    /// bytes, the splitter waits for more.
    #[test]
    fn the_splitter_yields_what_read_frame_yields_in_any_chunking() {
        let mut next = splitmix(0x2545_F491_4F6C_DD1D);
        let mut real = Vec::new();
        write_msg(&mut real, ReplicaId(2), &sample_msg()).unwrap();
        let mut stream = Vec::new();
        write_hello(&mut stream, ReplicaId(0)).unwrap();
        for (from, msg) in distinct_msgs() {
            write_msg(&mut stream, from, &msg).unwrap();
        }
        for case in 0..3_000 {
            let wire = if case % 3 == 2 {
                let mut wire = stream.clone();
                for _ in 0..next() % 3 {
                    let at = (next() as usize) % wire.len();
                    wire[at] = next() as u8;
                }
                wire
            } else {
                hostile_bytes(case, &real, &mut next)
            };
            let mut r = wire.as_slice();
            let mut want = Vec::new();
            let end = loop {
                match read_frame(&mut r) {
                    Ok(frame) => want.push(frame),
                    Err(e) => break e,
                }
            };
            let (got, err) = split_in_chunks(&wire, &mut next);
            assert_eq!(got, want, "case {case}: frames");
            match err {
                None => assert_eq!(end.kind(), io::ErrorKind::UnexpectedEof, "case {case}"),
                Some(err) => {
                    assert_eq!(err.kind(), end.kind(), "case {case}");
                    assert_eq!(err.to_string(), end.to_string(), "case {case}");
                }
            }
        }
    }

    /// A header claiming `MAX_FRAME` buys its sender no memory: with 10
    /// body bytes and EOF, `read_frame` returns an error, and a
    /// connection buffer fed a whole MiB of that body stays within twice
    /// the bytes received plus its initial size.
    #[test]
    fn a_header_claiming_max_frame_allocates_only_what_arrives() {
        let mut header = (MAX_FRAME as u32).to_le_bytes().to_vec();
        header.extend_from_slice(&1u16.to_le_bytes());
        let mut wire = header.clone();
        wire.extend_from_slice(&[0xAB; 10]);
        let err = read_frame(&mut wire.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        let mut frames = FrameBuf::default();
        let mut received = frames.fill(&mut header.as_slice()).unwrap();
        let body = vec![0xAB; 4 << 10];
        while received < 1 << 20 {
            received += frames.fill(&mut body.as_slice()).unwrap();
            assert!(frames.next_frame().unwrap().is_none());
            assert!(
                frames.buf.len() <= 2 * received + INITIAL_BUF,
                "{} bytes buffered for {received} received",
                frames.buf.len()
            );
        }
    }
}
