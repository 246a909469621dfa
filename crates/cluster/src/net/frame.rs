//! Varint-headed framing over byte streams.
//!
//! Every frame on a byte link is:
//!
//! ```text
//! [ header: varint((body_len << 1) | method) ][ body: body_len bytes ]
//! ```
//!
//! The header is one canonical LEB128 varint (the encoding of
//! [`crate::net::bytes`]): 1 byte for a body under 64 bytes, 2 under
//! 8 KiB, 3 under 1 MiB and at most `MAX_HEADER_BYTES` up to
//! [`MAX_FRAME_BYTES`]. Its low bit is the method, how the body is packed:
//! `METHOD_STORED` (verbatim) or `METHOD_LZ` ([`crate::lz`]-compressed).
//! This module alone knows the layout: every meter prices a frame with
//! `frame_wire_len`, whether or not its substrate writes the header.
//!
//! Bodies larger than [`MAX_FRAME_BYTES`] are rejected on both sides — an
//! oversized length is a protocol error, not an allocation request. So are
//! a header running past `MAX_HEADER_BYTES`, a non-minimal varint (a
//! trailing zero group, as in `80 00`), and a header or body cut short.
//! Each is a [`ClusterError::Transport`], never a panic, and none sizes an
//! allocation: a body buffer grows with the bytes that actually arrive.

use crate::net::bytes::varint_len;
use crate::ClusterError;
use std::io::{Read, Write};

/// Hard ceiling on one frame's body (64 MiB).
pub const MAX_FRAME_BYTES: usize = 64 << 20;
/// Longest header: `(MAX_FRAME_BYTES << 1) | 1` takes 28 bits, four
/// 7-bit groups.
pub(crate) const MAX_HEADER_BYTES: usize = 4;
/// Body is stored verbatim.
pub(crate) const METHOD_STORED: u8 = 0;
/// Body is [`crate::lz`]-compressed; decompressed size ≤ [`MAX_FRAME_BYTES`].
pub(crate) const METHOD_LZ: u8 = 1;

/// Body bytes reserved ahead of a read: a larger frame's buffer grows as
/// its bytes arrive, so a header that lies costs no more than this.
const BODY_RESERVE: usize = 64 << 10;

/// Bytes a frame with a `body_len`-byte body occupies on the wire, header
/// included.
pub(crate) fn frame_wire_len(body_len: usize) -> usize {
    varint_len((body_len as u64) << 1) + body_len
}

fn io_err(what: &str, e: std::io::Error) -> ClusterError {
    ClusterError::Transport(format!("{what}: {e}"))
}

/// Write one frame **without** flushing — for buffered writers whose
/// owner coalesces a burst of frames into one flush.
pub(crate) fn queue_frame(w: &mut impl Write, method: u8, body: &[u8]) -> Result<(), ClusterError> {
    let len = body.len();
    if len > MAX_FRAME_BYTES {
        return Err(ClusterError::Transport(format!(
            "refusing to send an oversized frame ({len} > {MAX_FRAME_BYTES} bytes)"
        )));
    }
    if method > METHOD_LZ {
        return Err(ClusterError::Transport(format!(
            "refusing to send unknown frame method {method}"
        )));
    }
    let mut header = [0u8; MAX_HEADER_BYTES];
    let (mut x, mut n) = ((len as u64) << 1 | u64::from(method), 0);
    while x >= 0x80 {
        header[n] = x as u8 | 0x80;
        x >>= 7;
        n += 1;
    }
    header[n] = x as u8;
    w.write_all(&header[..=n])
        .map_err(|e| io_err("writing frame header", e))?;
    w.write_all(body)
        .map_err(|e| io_err("writing frame body", e))
}

/// One byte off `r`, or `None` at end of stream.
fn read_byte(r: &mut impl Read) -> Result<Option<u8>, ClusterError> {
    let mut b = [0u8];
    loop {
        match r.read(&mut b) {
            Ok(0) => return Ok(None),
            Ok(_) => return Ok(Some(b[0])),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_err("reading frame header", e)),
        }
    }
}

/// Read one frame, or `None` on a clean end-of-stream **at a frame
/// boundary** (the peer closed between frames). Everything else — a
/// header or body cut short, a header past [`MAX_HEADER_BYTES`] or not
/// minimal, an oversized length — is a [`ClusterError::Transport`].
pub(crate) fn read_frame_opt(r: &mut impl Read) -> Result<Option<(u8, Vec<u8>)>, ClusterError> {
    let mut x = 0u64;
    for i in 0..MAX_HEADER_BYTES {
        let b = match read_byte(r)? {
            Some(b) => b,
            None if i == 0 => return Ok(None), // clean close
            None => {
                return Err(ClusterError::Transport(
                    "mid-stream disconnect: frame header truncated".into(),
                ))
            }
        };
        x |= u64::from(b & 0x7f) << (7 * i);
        if b & 0x80 != 0 {
            continue;
        }
        if b == 0 && i > 0 {
            return Err(ClusterError::Transport(
                "frame header is not a minimal varint".into(),
            ));
        }
        let len = (x >> 1) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(ClusterError::Transport(format!(
                "oversized frame length ({len} > {MAX_FRAME_BYTES} bytes)"
            )));
        }
        let mut body = Vec::with_capacity(len.min(BODY_RESERVE));
        r.take(len as u64)
            .read_to_end(&mut body)
            .map_err(|e| io_err("reading frame body", e))?;
        if body.len() < len {
            return Err(ClusterError::Transport(
                "mid-stream disconnect: frame body truncated".into(),
            ));
        }
        return Ok(Some(((x & 1) as u8, body)));
    }
    Err(ClusterError::Transport(format!(
        "frame header runs past {MAX_HEADER_BYTES} bytes"
    )))
}

/// [`read_frame_opt`] where a frame **must** be available — a clean close
/// is also an error (used where the caller knows a frame is in flight).
pub(crate) fn read_frame(r: &mut impl Read) -> Result<(u8, Vec<u8>), ClusterError> {
    read_frame_opt(r)?
        .ok_or_else(|| ClusterError::Transport("link closed while a frame was expected".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn framed(method: u8, body: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        queue_frame(&mut wire, method, body).unwrap();
        wire
    }

    fn decode(wire: &[u8]) -> Result<Option<(u8, Vec<u8>)>, ClusterError> {
        read_frame_opt(&mut Cursor::new(wire))
    }

    fn transport_err(wire: &[u8]) -> String {
        match decode(wire) {
            Err(ClusterError::Transport(e)) => e,
            other => panic!("{wire:02x?} decoded to {other:?}"),
        }
    }

    #[test]
    fn frame_round_trips() {
        let mut wire = framed(METHOD_STORED, b"hello frames");
        wire.extend(framed(METHOD_LZ, b"packed"));
        wire.extend(framed(METHOD_STORED, b""));
        assert_eq!(wire.len(), (1 + 12) + (1 + 6) + 1);
        assert_eq!(&wire[..2], [12 << 1, b'h']);
        assert_eq!(wire[13], 6 << 1 | METHOD_LZ);
        let mut r = Cursor::new(wire);
        assert_eq!(
            read_frame(&mut r).unwrap(),
            (METHOD_STORED, b"hello frames".to_vec())
        );
        assert_eq!(read_frame(&mut r).unwrap(), (METHOD_LZ, b"packed".to_vec()));
        assert_eq!(read_frame(&mut r).unwrap(), (METHOD_STORED, Vec::new()));
        assert_eq!(read_frame_opt(&mut r).unwrap(), None, "clean close");
        assert!(read_frame(&mut r).is_err(), "forced read past close errors");
    }

    /// The header is 1, 2, 3 or 4 bytes at each width's edges, and
    /// `frame_wire_len` is what the writer writes.
    #[test]
    fn header_width_follows_the_body_length() {
        for (len, header) in [
            (0, 1),
            (63, 1),
            (64, 2),
            (8_191, 2),
            (8_192, 3),
            ((1 << 20) - 1, 3),
            (1 << 20, 4),
            (MAX_FRAME_BYTES, 4),
        ] {
            assert_eq!(frame_wire_len(len), header + len, "{len}");
            if len > 1 << 20 {
                continue;
            }
            let body = vec![0xA5; len];
            for method in [METHOD_STORED, METHOD_LZ] {
                let wire = framed(method, &body);
                assert_eq!(wire.len(), frame_wire_len(len), "{len}");
                assert_eq!(decode(&wire).unwrap(), Some((method, body.clone())));
            }
        }
        assert!(
            queue_frame(&mut Vec::new(), 2, b"x").is_err(),
            "unknown method"
        );
    }

    /// Every hostile header is a typed transport error: cut short at each
    /// byte of every width, a fifth byte, a trailing zero group, a length
    /// past the limit (refused before a body byte is read).
    #[test]
    fn hostile_headers_are_refused() {
        for len in [64, 8_192, 1 << 20] {
            let wire = framed(METHOD_STORED, &vec![7; len]);
            let width = frame_wire_len(len) - len;
            for cut in 1..width {
                let e = transport_err(&wire[..cut]);
                assert!(e.contains("header truncated"), "{len} cut at {cut}: {e}");
            }
            // A header whole, the body missing or one byte short.
            for cut in [width, wire.len() - 1] {
                let e = transport_err(&wire[..cut]);
                assert!(e.contains("body truncated"), "{len} cut at {cut}: {e}");
            }
        }
        let one = framed(METHOD_LZ, b"abc");
        assert!(transport_err(&one[..1]).contains("body truncated"));
        for five in [&[0x80, 0x80, 0x80, 0x80, 0x01][..], &[0xff; 5], &[0x81; 9]] {
            let e = transport_err(five);
            assert!(e.contains("past 4 bytes"), "{five:02x?}: {e}");
        }
        for overlong in [
            &[0x80, 0x00][..],
            &[0x86, 0x00],
            &[0x80, 0x80, 0x00],
            &[0xff, 0xff, 0x80, 0x00],
        ] {
            let e = transport_err(overlong);
            assert!(e.contains("not a minimal varint"), "{overlong:02x?}: {e}");
        }
        // `(MAX_FRAME_BYTES + 1) << 1`, and the largest four-byte header.
        let oversized = [0x82, 0x80, 0x80, 0x40].to_vec();
        for header in [oversized.clone(), vec![0xff, 0xff, 0xff, 0x7f]] {
            let e = transport_err(&header);
            assert!(e.contains("oversized"), "{header:02x?}: {e}");
        }
        // Nothing behind the header is read: a reader that fails on the
        // body shows the refusal came first.
        struct HeaderOnly<'a>(&'a [u8]);
        impl Read for HeaderOnly<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let Some((&b, rest)) = self.0.split_first() else {
                    panic!("read past the header");
                };
                (buf[0], self.0) = (b, rest);
                Ok(1)
            }
        }
        assert!(read_frame_opt(&mut HeaderOnly(&oversized)).is_err());
        // And the writer refuses to produce one.
        let huge = vec![0u8; MAX_FRAME_BYTES + 1];
        assert!(queue_frame(&mut Vec::new(), METHOD_STORED, &huge).is_err());
    }

    /// A clean close is `None` only between frames; a reader that yields a
    /// byte per `read` (or is interrupted) decodes the same frames.
    #[test]
    fn close_at_a_boundary_and_one_byte_reads() {
        struct Trickle<'a>(&'a [u8], bool);
        impl Read for Trickle<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.1 = !self.1;
                if self.1 {
                    return Err(std::io::ErrorKind::Interrupted.into());
                }
                let Some((&b, rest)) = self.0.split_first().filter(|_| !buf.is_empty()) else {
                    return Ok(0);
                };
                (buf[0], self.0) = (b, rest);
                Ok(1)
            }
        }
        let bodies = [vec![], vec![1; 63], vec![2; 64], vec![3; 8_192]];
        let wire: Vec<u8> = bodies
            .iter()
            .flat_map(|b| framed(METHOD_STORED, b))
            .collect();
        let mut r = Trickle(&wire, false);
        for body in &bodies {
            assert_eq!(
                read_frame_opt(&mut r).unwrap(),
                Some((METHOD_STORED, body.clone()))
            );
        }
        assert_eq!(read_frame_opt(&mut r).unwrap(), None);
        assert_eq!(decode(&[]).unwrap(), None);
    }

    /// Arbitrary bytes give an error or a frame that re-encodes to exactly
    /// the bytes it was read from — never a panic.
    #[test]
    fn arbitrary_bytes_error_or_re_encode() {
        let mut rng = 0x5EED_u64;
        let mut next = move || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) as u8
        };
        let (mut frames, mut errors) = (0, 0);
        for _ in 0..20_000 {
            let len = usize::from(next() % 12);
            // Short headers are the interesting ones: bias the first byte.
            let bytes: Vec<u8> = (0..len)
                .map(|i| match next() {
                    b if i == 0 && b % 2 == 0 => next() % 24,
                    _ => next(),
                })
                .collect();
            let mut r = Cursor::new(&bytes[..]);
            match read_frame_opt(&mut r) {
                Ok(Some((method, body))) => {
                    let used = r.position() as usize;
                    assert_eq!(framed(method, &body), bytes[..used], "{bytes:02x?}");
                    frames += 1;
                }
                Ok(None) => assert!(bytes.is_empty()),
                Err(ClusterError::Transport(_)) => errors += 1,
                Err(e) => panic!("{bytes:02x?}: untyped {e:?}"),
            }
        }
        assert!(
            frames > 1_000 && errors > 1_000,
            "{frames} frames, {errors} errors"
        );
    }
}
