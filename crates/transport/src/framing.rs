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

/// Reads one frame, blocking.
///
/// # Errors
///
/// Returns an error on I/O failure, oversized frames, or undecodable
/// bodies.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Frame> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame exceeds MAX_FRAME",
        ));
    }
    let mut from_buf = [0u8; 2];
    r.read_exact(&mut from_buf)?;
    let from = ReplicaId(u16::from_le_bytes(from_buf));
    if len == 0 {
        return Ok(Frame::Hello { from });
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    let msg = Message::from_bytes(&body)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad message: {e}")))?;
    Ok(Frame::Msg { from, msg })
}

#[cfg(test)]
mod tests {
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
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut real = Vec::new();
        write_msg(&mut real, ReplicaId(2), &sample_msg()).unwrap();
        for case in 0..4_000 {
            let mut buf: Vec<u8> = if case % 2 == 0 {
                let len = (next() % 4096) as usize;
                (0..len).map(|_| next() as u8).collect()
            } else {
                let mut frame = real.clone();
                for _ in 0..1 + next() % 4 {
                    let at = (next() as usize) % frame.len();
                    frame[at] = next() as u8;
                }
                frame
            };
            if case % 4 == 0 && buf.len() >= 6 {
                let body = (buf.len() - 6) as u32;
                buf[..4].copy_from_slice(&body.to_le_bytes());
            }
            let _ = read_frame(&mut buf.as_slice());
        }
    }
}
