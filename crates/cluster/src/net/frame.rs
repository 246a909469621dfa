//! Length-prefixed framing over byte streams.
//!
//! Every frame on a byte link is:
//!
//! ```text
//! [ length: u32 LE ][ method: u8 ][ body: length − 1 bytes ]
//! ```
//!
//! `length` counts the method byte plus the body, so the full frame
//! occupies `FRAME_HEADER_BYTES + length` bytes on the wire. `method`
//! says how the body is packed: [`METHOD_STORED`] (verbatim) or
//! [`METHOD_LZ`] ([`crate::lz`]-compressed). Frames larger than
//! [`MAX_FRAME_BYTES`] are rejected on both sides — an oversized length
//! prefix is a protocol error, not an allocation request.
//!
//! All failure modes (truncated header, truncated body, oversized
//! prefix, mid-stream disconnect) surface as
//! [`ClusterError::Transport`] — never panics.

use crate::ClusterError;
use std::io::{Read, Write};

/// Bytes of the length prefix.
pub const FRAME_HEADER_BYTES: usize = 4;
/// Bytes of the method (compression) marker, counted inside `length`.
pub const FRAME_METHOD_BYTES: usize = 1;
/// Hard ceiling on one frame's `length` field (64 MiB).
pub const MAX_FRAME_BYTES: usize = 64 << 20;
/// Body is stored verbatim.
pub const METHOD_STORED: u8 = 0;
/// Body is [`crate::lz`]-compressed; decompressed size ≤ [`MAX_FRAME_BYTES`].
pub const METHOD_LZ: u8 = 1;

fn io_err(what: &str, e: std::io::Error) -> ClusterError {
    ClusterError::Transport(format!("{what}: {e}"))
}

/// Write one frame **without** flushing — for buffered writers whose
/// owner coalesces a burst of frames into one flush.
pub fn queue_frame(w: &mut impl Write, method: u8, body: &[u8]) -> Result<(), ClusterError> {
    let len = body.len() + FRAME_METHOD_BYTES;
    if len > MAX_FRAME_BYTES {
        return Err(ClusterError::Transport(format!(
            "refusing to send an oversized frame ({len} > {MAX_FRAME_BYTES} bytes)"
        )));
    }
    w.write_all(&(len as u32).to_le_bytes())
        .map_err(|e| io_err("writing frame header", e))?;
    w.write_all(&[method])
        .map_err(|e| io_err("writing frame method", e))?;
    w.write_all(body)
        .map_err(|e| io_err("writing frame body", e))
}

/// Read one frame, or `None` on a clean end-of-stream **at a frame
/// boundary** (the peer closed between frames). Everything else —
/// a header or body cut short, an oversized or empty length prefix —
/// is a [`ClusterError::Transport`].
pub fn read_frame_opt(r: &mut impl Read) -> Result<Option<(u8, Vec<u8>)>, ClusterError> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    let mut got = 0usize;
    while got < FRAME_HEADER_BYTES {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None), // clean close
            Ok(0) => {
                return Err(ClusterError::Transport(
                    "mid-stream disconnect: frame header truncated".into(),
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_err("reading frame header", e)),
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    if len < FRAME_METHOD_BYTES {
        return Err(ClusterError::Transport(
            "frame length prefix shorter than the method byte".into(),
        ));
    }
    if len > MAX_FRAME_BYTES {
        return Err(ClusterError::Transport(format!(
            "oversized frame length prefix ({len} > {MAX_FRAME_BYTES} bytes)"
        )));
    }
    let mut method = [0u8; FRAME_METHOD_BYTES];
    r.read_exact(&mut method).map_err(|_| {
        ClusterError::Transport("mid-stream disconnect: frame method truncated".into())
    })?;
    let mut body = vec![0u8; len - FRAME_METHOD_BYTES];
    r.read_exact(&mut body).map_err(|_| {
        ClusterError::Transport("mid-stream disconnect: frame body truncated".into())
    })?;
    Ok(Some((method[0], body)))
}

/// [`read_frame_opt`] where a frame **must** be available — a clean close
/// is also an error (used where the caller knows a frame is in flight).
pub fn read_frame(r: &mut impl Read) -> Result<(u8, Vec<u8>), ClusterError> {
    read_frame_opt(r)?
        .ok_or_else(|| ClusterError::Transport("link closed while a frame was expected".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_round_trips() {
        let mut wire = Vec::new();
        queue_frame(&mut wire, METHOD_STORED, b"hello frames").unwrap();
        queue_frame(&mut wire, METHOD_LZ, b"packed").unwrap();
        assert_eq!(
            wire.len(),
            2 * (FRAME_HEADER_BYTES + FRAME_METHOD_BYTES) + 12 + 6
        );
        let mut r = Cursor::new(wire);
        assert_eq!(
            read_frame(&mut r).unwrap(),
            (METHOD_STORED, b"hello frames".to_vec())
        );
        assert_eq!(read_frame(&mut r).unwrap(), (METHOD_LZ, b"packed".to_vec()));
        assert_eq!(read_frame_opt(&mut r).unwrap(), None, "clean close");
        assert!(read_frame(&mut r).is_err(), "forced read past close errors");
    }

    #[test]
    fn truncated_header_is_an_error() {
        let mut wire = Vec::new();
        queue_frame(&mut wire, METHOD_STORED, b"abc").unwrap();
        wire.truncate(2); // half a header
        let e = read_frame_opt(&mut Cursor::new(wire)).unwrap_err();
        assert!(matches!(e, ClusterError::Transport(_)));
        assert!(e.to_string().contains("header"));
    }

    #[test]
    fn truncated_body_is_an_error() {
        let mut wire = Vec::new();
        queue_frame(&mut wire, METHOD_STORED, b"abcdefgh").unwrap();
        wire.truncate(FRAME_HEADER_BYTES + 4);
        let e = read_frame_opt(&mut Cursor::new(wire)).unwrap_err();
        assert!(e.to_string().contains("truncated"));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        wire.push(METHOD_STORED);
        let e = read_frame_opt(&mut Cursor::new(wire)).unwrap_err();
        assert!(e.to_string().contains("oversized"), "{e}");
        // Zero-length prefix (shorter than the method byte) likewise.
        let e = read_frame_opt(&mut Cursor::new(vec![0, 0, 0, 0])).unwrap_err();
        assert!(matches!(e, ClusterError::Transport(_)));
        // And the writer refuses to produce one.
        let huge = vec![0u8; MAX_FRAME_BYTES];
        assert!(queue_frame(&mut Vec::new(), METHOD_STORED, &huge).is_err());
    }
}
