//! TCP framing, format v2: `len: u32 le`, `crc32(body): u32 le`, then
//! the message encoding from [`allconcur_core::message`] — the same
//! checksummed frame grammar the WAL speaks
//! ([`allconcur_core::wire::put_frame`]) — plus the versioned
//! connection handshake (the connecting side announces the wire format
//! version and its server id so the receiver can attribute frames).
//!
//! The CRC turns a flipped bit on the wire into a *detected* fault: the
//! reader rejects the frame with a typed [`FrameFault`] (distinct from
//! EOF), the runtime counts it in `LinkStats` and drops the connection,
//! and the reader-grace/reconnect path heals the link — the corrupted
//! payload is never delivered to the protocol.

use allconcur_core::message::{CodecError, Message};
use allconcur_core::wire::crc32;
use allconcur_core::ServerId;
use bytes::Bytes;
use std::io::{self, Read, Write};

/// Maximum accepted frame, guarding against corrupt length prefixes.
/// One constant for every checksummed framing path — re-exported from
/// [`allconcur_core::wire`] so the TCP transport and the WAL cannot
/// drift apart.
pub use allconcur_core::wire::MAX_FRAME;

/// Wire format version spoken by this build, carried in the handshake.
/// v1 was the unchecksummed `[len][body]` framing with a bare-id
/// handshake; v2 adds the CRC32 header field and this versioned
/// handshake. There is no v1 interop path — a v1 peer fails the magic
/// check and the connection is retried until both sides run v2.
pub const WIRE_VERSION: u8 = 2;

/// Handshake magic, so a stray (or corrupted) connection cannot be
/// mistaken for a peer speaking an unknown older format.
pub const HANDSHAKE_MAGIC: [u8; 2] = *b"AC";

/// Why an inbound frame (or handshake) was rejected — the typed payload
/// of an `InvalidData` [`io::Error`], distinct from `UnexpectedEof`.
/// Classify with [`frame_fault`] / [`is_corrupt_frame`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameFault {
    /// The body's CRC32 does not match the header — a flipped bit on
    /// the wire (or a desynchronised stream).
    CrcMismatch {
        /// Checksum the header claimed.
        expected: u32,
        /// Checksum the received body actually has.
        actual: u32,
    },
    /// The body passed its CRC but is not a valid message encoding —
    /// a sender-side corruption (flipped before the checksum was
    /// computed) or a protocol bug.
    Decode(CodecError),
    /// The length prefix exceeds [`MAX_FRAME`] — a corrupt header.
    Oversize {
        /// The claimed payload length.
        len: usize,
    },
    /// The connection preamble is not a v2 handshake (bad magic or an
    /// unsupported version byte).
    Handshake {
        /// The 3 preamble bytes received (magic + version).
        got: [u8; 3],
    },
}

impl std::fmt::Display for FrameFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameFault::CrcMismatch { expected, actual } => {
                write!(f, "frame checksum mismatch (header {expected:#010x}, body {actual:#010x})")
            }
            FrameFault::Decode(e) => write!(f, "frame body undecodable: {e}"),
            FrameFault::Oversize { len } => {
                write!(f, "oversized frame ({len} bytes > {MAX_FRAME})")
            }
            FrameFault::Handshake { got } => {
                write!(f, "bad handshake preamble {got:02x?} (want magic {HANDSHAKE_MAGIC:02x?} version {WIRE_VERSION})")
            }
        }
    }
}

impl std::error::Error for FrameFault {}

impl From<FrameFault> for io::Error {
    fn from(fault: FrameFault) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, fault)
    }
}

/// Extract the typed [`FrameFault`] from an I/O error, if it carries
/// one. EOF and transport errors return `None`.
pub fn frame_fault(e: &io::Error) -> Option<&FrameFault> {
    e.get_ref().and_then(|inner| inner.downcast_ref::<FrameFault>())
}

/// Was this read error a *corrupt frame* (CRC mismatch, undecodable
/// body, corrupt length prefix) as opposed to EOF or a transport
/// failure? The runtime feeds these into `LinkStats::corrupt_frames`
/// and heals the link through the reader-grace/reconnect path.
pub fn is_corrupt_frame(e: &io::Error) -> bool {
    frame_fault(e).is_some()
}

/// Encode one message into its wire frame, bounds-checked.
///
/// The frame is refcounted [`Bytes`]: encode once, then hand the same
/// frame to every successor's write buffer — the fan-out path of the
/// protocol loop never re-encodes per destination.
pub fn encode_frame(msg: &Message) -> io::Result<Bytes> {
    if msg.encoded_len() > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "frame too large"));
    }
    Ok(msg.to_frame())
}

/// Write one framed message (encode + write in one step; the fan-out
/// hot path keeps the [`encode_frame`] result instead so one encoding
/// serves all `d` successors).
pub fn write_frame<W: Write>(w: &mut W, msg: &Message) -> io::Result<()> {
    w.write_all(&encode_frame(msg)?)
}

/// Verify and decode one complete frame body against its header CRC.
fn decode_checked(body: &[u8], sum: u32) -> io::Result<Message> {
    let actual = crc32(body);
    if actual != sum {
        return Err(FrameFault::CrcMismatch { expected: sum, actual }.into());
    }
    let mut bytes = Bytes::copy_from_slice(body);
    Message::decode(&mut bytes).map_err(|e| FrameFault::Decode(e).into())
}

/// Buffered frame reader, one per inbound connection.
///
/// Under pipelined rounds a predecessor's link carries dense bursts of
/// small frames, so this reader pulls whole bursts into one buffer with
/// a single `read` syscall and parses frames out of it. It is built for
/// non-blocking sockets: a `WouldBlock`/`TimedOut` mid-frame keeps the
/// partial bytes buffered and resumes cleanly on the next call, where
/// reading the header and then the body to completion would lose its
/// place in the stream. Every parsed frame is CRC-checked before its
/// body is decoded.
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

/// Wire frame header bytes: length + CRC32.
const HEADER: usize = 8;

impl Default for FrameReader {
    fn default() -> Self {
        FrameReader::new()
    }
}

impl FrameReader {
    /// A reader with the default 64 KiB burst buffer.
    pub fn new() -> FrameReader {
        FrameReader { buf: vec![0u8; 64 * 1024], start: 0, end: 0 }
    }

    /// Bytes buffered but not yet parsed.
    fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// Read the next frame from `r`. `Ok(Some(msg))` on a complete,
    /// checksum-verified frame, `Ok(None)` when the underlying read
    /// timed out or would block (call again later — partial frames stay
    /// buffered), `Err` on EOF, I/O failure, or a corrupt frame (the
    /// latter carrying a typed [`FrameFault`]; see [`is_corrupt_frame`]).
    pub fn read_frame<R: Read>(&mut self, r: &mut R) -> io::Result<Option<Message>> {
        loop {
            if self.buffered() >= HEADER {
                // Infallible 8-byte header read: `buffered() >= HEADER`
                // guarantees the indices, no fallible conversion needed.
                let s = self.start;
                let len_buf = [self.buf[s], self.buf[s + 1], self.buf[s + 2], self.buf[s + 3]];
                let len = u32::from_le_bytes(len_buf) as usize;
                let sum_buf = [self.buf[s + 4], self.buf[s + 5], self.buf[s + 6], self.buf[s + 7]];
                let sum = u32::from_le_bytes(sum_buf);
                if len > MAX_FRAME {
                    return Err(FrameFault::Oversize { len }.into());
                }
                if self.buffered() >= HEADER + len {
                    let body = &self.buf[self.start + HEADER..self.start + HEADER + len];
                    let msg = decode_checked(body, sum);
                    self.start += HEADER + len;
                    return msg.map(Some);
                }
                // Incomplete frame: make sure it can ever fit.
                if HEADER + len > self.buf.len() {
                    self.compact();
                    self.buf.resize(HEADER + len, 0);
                }
            }
            if self.end == self.buf.len() {
                self.compact();
            }
            match r.read(&mut self.buf[self.end..]) {
                Ok(0) => {
                    return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"))
                }
                Ok(k) => self.end += k,
                Err(ref e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(None)
                }
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Slide the unparsed tail to the front of the buffer.
    fn compact(&mut self) {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
    }
}

/// Wire size of the connection handshake: magic, version, sender id.
pub const HANDSHAKE_LEN: usize = HANDSHAKE_MAGIC.len() + 1 + std::mem::size_of::<ServerId>();

/// Handshake sent by the connecting (predecessor) side: magic,
/// wire-format version, then the sender's id. Versioned so a future v3
/// can negotiate instead of desyncing against an old peer.
pub fn write_handshake<W: Write>(w: &mut W, id: ServerId) -> io::Result<()> {
    let mut buf = [0u8; HANDSHAKE_LEN];
    buf[..2].copy_from_slice(&HANDSHAKE_MAGIC);
    buf[2] = WIRE_VERSION;
    buf[3..].copy_from_slice(&id.to_le_bytes());
    w.write_all(&buf)
}

/// Parse the handshake the accepting (successor) side read. Rejects a
/// bad magic or an unsupported version with a typed
/// [`FrameFault::Handshake`].
pub fn parse_handshake(buf: &[u8; HANDSHAKE_LEN]) -> Result<ServerId, FrameFault> {
    if buf[..2] != HANDSHAKE_MAGIC || buf[2] != WIRE_VERSION {
        return Err(FrameFault::Handshake { got: [buf[0], buf[1], buf[2]] });
    }
    Ok(ServerId::from_le_bytes([buf[3], buf[4], buf[5], buf[6]]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_roundtrip() {
        let msgs = vec![
            Message::Bcast { round: 9, origin: 2, payload: Bytes::from(vec![7u8; 1000]) },
            Message::Fail { round: 9, failed: 1, detector: 3 },
            Message::Fwd { round: 9, origin: 0 },
        ];
        let mut wire = Vec::new();
        for m in &msgs {
            write_frame(&mut wire, m).unwrap();
        }
        let mut cursor = Cursor::new(wire);
        let mut reader = FrameReader::new();
        for m in &msgs {
            assert_eq!(reader.read_frame(&mut cursor).unwrap().as_ref(), Some(m));
        }
    }

    #[test]
    fn handshake_roundtrip() {
        let mut wire = Vec::new();
        write_handshake(&mut wire, 42).unwrap();
        assert_eq!(parse_handshake(wire.as_slice().try_into().unwrap()), Ok(42));
    }

    #[test]
    fn handshake_rejects_v1_and_garbage() {
        // A v1 peer sent a bare 4-byte id; whatever those bytes are,
        // they cannot pass the magic check. (7 zero bytes stands in for
        // the prefix of any v1 stream plus padding.)
        let v1 = [0u8; HANDSHAKE_LEN];
        assert!(matches!(parse_handshake(&v1), Err(FrameFault::Handshake { .. })));
        // Right magic, wrong version.
        let mut wrong_ver = Vec::new();
        write_handshake(&mut wrong_ver, 3).unwrap();
        wrong_ver[2] = 99;
        let err = parse_handshake(wrong_ver.as_slice().try_into().unwrap()).unwrap_err();
        assert!(matches!(err, FrameFault::Handshake { got } if got[2] == 99));
    }

    #[test]
    fn corrupt_body_is_typed_and_distinct_from_eof() {
        let msg = Message::Bcast { round: 4, origin: 1, payload: Bytes::from(vec![5u8; 32]) };
        let mut wire = Vec::new();
        write_frame(&mut wire, &msg).unwrap();
        let last = wire.len() - 1;
        wire[last] ^= 0x01;
        let err = FrameReader::new().read_frame(&mut Cursor::new(wire)).unwrap_err();
        assert!(matches!(frame_fault(&err), Some(FrameFault::CrcMismatch { .. })));
        assert!(is_corrupt_frame(&err));
        // EOF carries no FrameFault.
        let eof = FrameReader::new().read_frame(&mut Cursor::new(Vec::new())).unwrap_err();
        assert_eq!(eof.kind(), io::ErrorKind::UnexpectedEof);
        assert!(!is_corrupt_frame(&eof));
    }

    /// A reader that hands out bytes in dribbles and injects timeouts,
    /// for the buffered reader's resume-mid-frame path.
    struct Dribble {
        data: Vec<u8>,
        pos: usize,
        chunk: usize,
        timeout_every: usize,
        reads: usize,
    }

    impl Read for Dribble {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            if self.timeout_every > 0 && self.reads.is_multiple_of(self.timeout_every) {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "dribble timeout"));
            }
            let k = self.chunk.min(self.data.len() - self.pos).min(buf.len());
            buf[..k].copy_from_slice(&self.data[self.pos..self.pos + k]);
            self.pos += k;
            Ok(k)
        }
    }

    #[test]
    fn frame_reader_parses_bursts_and_survives_midframe_timeouts() {
        let msgs: Vec<Message> = (0..50)
            .map(|i| Message::Bcast {
                round: i,
                origin: (i % 5) as u32,
                payload: Bytes::from(vec![i as u8; (i as usize * 7) % 300]),
            })
            .collect();
        let mut wire = Vec::new();
        for m in &msgs {
            write_frame(&mut wire, m).unwrap();
        }
        // 3-byte chunks with a timeout every 4th read: every frame is
        // split mid-header or mid-body many times over.
        let mut src = Dribble { data: wire, pos: 0, chunk: 3, timeout_every: 4, reads: 0 };
        let mut reader = FrameReader::new();
        let mut out = Vec::new();
        while out.len() < msgs.len() {
            match reader.read_frame(&mut src).unwrap() {
                Some(m) => out.push(m),
                None => continue, // timeout: partial frame stays buffered
            }
        }
        assert_eq!(out, msgs);
    }

    #[test]
    fn frame_reader_grows_for_oversized_payloads() {
        let big = Message::Bcast { round: 1, origin: 0, payload: Bytes::from(vec![3u8; 200_000]) };
        let mut wire = Vec::new();
        write_frame(&mut wire, &big).unwrap();
        let mut cursor = Cursor::new(wire);
        let mut reader = FrameReader::new();
        assert_eq!(reader.read_frame(&mut cursor).unwrap(), Some(big));
    }

    #[test]
    fn frame_reader_reports_eof_and_corrupt_lengths() {
        let mut reader = FrameReader::new();
        let mut empty = Cursor::new(Vec::new());
        assert!(reader.read_frame(&mut empty).is_err(), "EOF is an error");
        let mut corrupt = Cursor::new([0xFFu8; 8].to_vec());
        let mut reader = FrameReader::new();
        let err = reader.read_frame(&mut corrupt).unwrap_err();
        assert!(matches!(frame_fault(&err), Some(FrameFault::Oversize { .. })));
        assert!(is_corrupt_frame(&err));
    }

    #[test]
    fn frame_reader_detects_flipped_bit() {
        let msg = Message::Bcast { round: 6, origin: 2, payload: Bytes::from(vec![1u8; 48]) };
        let mut wire = Vec::new();
        write_frame(&mut wire, &msg).unwrap();
        let mid = wire.len() / 2;
        wire[mid] ^= 0x10;
        let mut reader = FrameReader::new();
        let err = reader.read_frame(&mut Cursor::new(wire)).unwrap_err();
        assert!(is_corrupt_frame(&err), "flipped bit must classify as corrupt, got {err}");
    }

    #[test]
    fn truncated_stream_errors() {
        let msg = Message::Bcast { round: 1, origin: 0, payload: Bytes::from(vec![1u8; 64]) };
        let mut wire = Vec::new();
        write_frame(&mut wire, &msg).unwrap();
        wire.truncate(wire.len() - 10);
        assert!(FrameReader::new().read_frame(&mut Cursor::new(wire)).is_err());
    }
}
