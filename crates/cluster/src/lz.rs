//! In-tree LZ77-class block compressor.
//!
//! The offline crate set has no compression dependency, so — like the
//! RFC 1321 [`crate::md5`] next door — this is a small, self-contained
//! implementation: a greedy LZ77/LZSS with a 4-byte hash index over a
//! 64 KiB window. It packs the runtime's control frames of
//! [`crate::run::CTRL_LZ_MIN_BYTES`] or more ([`crate::run::Node::send_ctrl`]),
//! kept only when smaller; protocol frames always ship stored.
//!
//! # Format
//!
//! The compressed stream is a sequence of ops, each introduced by a tag
//! byte `t`:
//!
//! * `t < 0x80` — a **literal run**: the next `t + 1` bytes are copied
//!   verbatim (runs of 1..=128 bytes);
//! * `t >= 0x80` — a **match**: copy `(t & 0x7f) + MIN_MATCH` bytes
//!   (4..=131) from `distance` bytes back in the output, where `distance`
//!   is the following 2-byte little-endian integer (1..=65535).
//!   Overlapping copies are allowed (RLE-style), as in every LZ77 family
//!   member.
//!
//! Compression is deterministic (no randomized data structures), which
//! keeps measured byte counts reproducible (`tests/gated_integers.rs`
//! pins them).

/// Minimum match length the encoder emits / the decoder expects.
const MIN_MATCH: usize = 4;
/// Maximum match length one op can encode.
const MAX_MATCH: usize = 0x7f + MIN_MATCH;
/// Maximum literal-run length one op can encode.
const MAX_LITERAL_RUN: usize = 0x80;
/// Match window (the 2-byte distance field's range).
const WINDOW: usize = u16::MAX as usize;
const HASH_BITS: u32 = 13;

/// A malformed compressed stream (truncated op, bad distance, or output
/// beyond the declared bound).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LzError(pub(crate) &'static str);

impl std::fmt::Display for LzError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed LZ stream: {}", self.0)
    }
}

impl std::error::Error for LzError {}

#[inline]
fn hash4(b: &[u8]) -> usize {
    let v = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    (v.wrapping_mul(0x9e37_79b1) >> (32 - HASH_BITS)) as usize
}

fn flush_literals(out: &mut Vec<u8>, mut lits: &[u8]) {
    while !lits.is_empty() {
        let n = lits.len().min(MAX_LITERAL_RUN);
        out.push((n - 1) as u8);
        out.extend_from_slice(&lits[..n]);
        lits = &lits[n..];
    }
}

/// Compress `input`. The output is never *guaranteed* smaller — callers
/// (the frame layer) compare against the stored size and keep whichever
/// is shorter.
pub(crate) fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 8);
    if input.len() < MIN_MATCH {
        flush_literals(&mut out, input);
        return out;
    }
    // `head[h]` = most recent position whose 4-byte prefix hashed to `h`.
    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    // Last position where a 4-byte prefix fits.
    let last_indexable = input.len() - MIN_MATCH;
    let mut i = 0usize;
    let mut lit_start = 0usize;
    while i < input.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i <= last_indexable {
            let h = hash4(&input[i..]);
            let cand = head[h];
            head[h] = i;
            if cand != usize::MAX && i - cand <= WINDOW {
                let max = (input.len() - i).min(MAX_MATCH);
                let mut l = 0usize;
                while l < max && input[cand + l] == input[i + l] {
                    l += 1;
                }
                if l >= MIN_MATCH {
                    best_len = l;
                    best_dist = i - cand;
                }
            }
        }
        if best_len >= MIN_MATCH {
            flush_literals(&mut out, &input[lit_start..i]);
            out.push(0x80 | (best_len - MIN_MATCH) as u8);
            out.extend_from_slice(&(best_dist as u16).to_le_bytes());
            // Index the positions the match skips so later repeats of the
            // matched text are still found.
            let end = (i + best_len).min(last_indexable + 1);
            for k in i + 1..end {
                head[hash4(&input[k..])] = k;
            }
            i += best_len;
            lit_start = i;
        } else {
            i += 1;
        }
    }
    flush_literals(&mut out, &input[lit_start..]);
    out
}

/// Decompress `input`, refusing to produce more than `max_out` bytes
/// (frames declare their bound, so a malicious stream cannot balloon).
pub(crate) fn decompress(input: &[u8], max_out: usize) -> Result<Vec<u8>, LzError> {
    let mut out = Vec::with_capacity(input.len().min(max_out));
    let mut i = 0usize;
    while i < input.len() {
        let tag = input[i];
        i += 1;
        if tag < 0x80 {
            let n = tag as usize + 1;
            if i + n > input.len() {
                return Err(LzError("truncated literal run"));
            }
            if out.len() + n > max_out {
                return Err(LzError("output exceeds declared bound"));
            }
            out.extend_from_slice(&input[i..i + n]);
            i += n;
        } else {
            let len = (tag & 0x7f) as usize + MIN_MATCH;
            if i + 2 > input.len() {
                return Err(LzError("truncated match op"));
            }
            let dist = u16::from_le_bytes([input[i], input[i + 1]]) as usize;
            i += 2;
            if dist == 0 || dist > out.len() {
                return Err(LzError("match distance outside produced output"));
            }
            if out.len() + len > max_out {
                return Err(LzError("output exceeds declared bound"));
            }
            let start = out.len() - dist;
            for k in 0..len {
                // Overlapping copy: byte-by-byte, as the format requires.
                let b = out[start + k];
                out.push(b);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) {
        let packed = compress(data);
        let unpacked = decompress(&packed, data.len().max(1)).expect("valid stream");
        assert_eq!(unpacked, data);
    }

    #[test]
    fn round_trips_common_shapes() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"abc");
        round_trip(b"abcd");
        round_trip(b"the quick brown fox jumps over the lazy dog");
        round_trip(&[0u8; 1000]);
        round_trip(&(0..=255u8).collect::<Vec<_>>());
        let mut mixed = Vec::new();
        for i in 0..2000u32 {
            mixed.extend_from_slice(format!("Customer#{:09}", i % 37).as_bytes());
        }
        round_trip(&mixed);
    }

    #[test]
    fn repetitive_input_compresses_hard() {
        let data: Vec<u8> = b"Glenna Goodacre Boulevard|".repeat(100);
        let packed = compress(&data);
        assert!(
            packed.len() * 5 < data.len(),
            "{} vs {}",
            packed.len(),
            data.len()
        );
        assert_eq!(decompress(&packed, data.len()).unwrap(), data);
    }

    #[test]
    fn incompressible_input_stays_bounded() {
        // A pseudo-random byte soup: the literal-run framing adds at most
        // one tag byte per 128 literals.
        let data: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        let packed = compress(&data);
        assert!(packed.len() <= data.len() + data.len() / 128 + 2);
        round_trip(&data);
    }

    #[test]
    fn overlapping_matches_round_trip() {
        // Classic RLE-through-LZ: distance 1, long match.
        let data = vec![7u8; 500];
        let packed = compress(&data);
        assert!(packed.len() < 20);
        assert_eq!(decompress(&packed, 500).unwrap(), data);
    }

    #[test]
    fn malformed_streams_error_out() {
        // Truncated literal run: tag promises 4 bytes, only 1 present.
        assert!(decompress(&[3, b'x'], 100).is_err());
        // Truncated match op: tag but no distance.
        assert!(decompress(&[0x80], 100).is_err());
        // Distance beyond produced output.
        assert!(decompress(&[0x00, b'a', 0x80, 5, 0], 100).is_err());
        // Zero distance.
        assert!(decompress(&[0x00, b'a', 0x80, 0, 0], 100).is_err());
        // Output bound enforced.
        let data = vec![9u8; 300];
        let packed = compress(&data);
        assert!(decompress(&packed, 10).is_err());
        let e = decompress(&[0x80], 100).unwrap_err();
        assert!(e.to_string().contains("malformed"));
    }

    /// 20 000 seeded inputs, each under a bound of 0 to 599 bytes: odd
    /// ones arbitrary bytes (tags of both kinds, distances near the output
    /// produced), even ones a packed specimen with one byte overwritten.
    /// Each is an error or at most the bound's bytes, never a panic.
    #[test]
    fn arbitrary_streams_error_or_stay_bounded() {
        let specimens: Vec<Vec<u8>> = [
            &b"Glenna Goodacre Boulevard|".repeat(20)[..],
            &[7u8; 300],
            b"the quick brown fox jumps over the lazy dog",
        ]
        .iter()
        .map(|data| compress(data))
        .collect();
        let mut rng = 0x5EED_u64;
        let mut next = move || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) as usize
        };
        let (mut ok, mut err) = (0, 0);
        for k in 0..20_000 {
            let max_out = next() % 600;
            let input: Vec<u8> = if k % 2 == 1 {
                (0..next() % 48)
                    .map(|_| match next() % 3 {
                        0 => (next() % 8) as u8,
                        1 => 0x80 | (next() % 8) as u8,
                        _ => next() as u8,
                    })
                    .collect()
            } else {
                let mut b = specimens[next() % specimens.len()].clone();
                let at = next() % b.len();
                b[at] = next() as u8;
                b
            };
            match decompress(&input, max_out) {
                Ok(out) => {
                    assert!(out.len() <= max_out, "input {k}: {} > {max_out}", out.len());
                    ok += 1;
                }
                Err(_) => err += 1,
            }
        }
        assert!(ok > 1_000 && err > 1_000, "{ok} streams, {err} errors");
    }
}
