//! MD5 (RFC 1321), implemented from scratch.
//!
//! §6 of the paper: *"We use MD5 in our implementation to further reduce the
//! communication cost, by sending a 128-bit MD5 code instead of an entire
//! tuple."* The offline crate set has no `md5` crate, so this is a direct
//! implementation of RFC 1321, validated against the RFC's test vectors.
//! Cryptographic strength is irrelevant here — the detector only needs a
//! stable, collision-improbable 128-bit fingerprint for value vectors.

/// A 128-bit MD5 digest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 16]);

impl Digest {
    /// Render as the conventional lowercase hex string.
    pub fn to_hex(self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Wire size of a shipped digest (16 bytes).
    pub const WIRE_SIZE: usize = 16;
}

/// Per-round shift amounts (RFC 1321 §3.4).
const S: [u32; 64] = [
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, //
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, //
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, //
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
];

/// Sine-derived constants `K[i] = floor(2^32 · |sin(i+1)|)`.
const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

/// One compression round over a 64-byte block (RFC 1321 §3.4).
#[inline]
fn compress(state: &mut [u32; 4], chunk: &[u8]) {
    debug_assert_eq!(chunk.len(), 64);
    let mut m = [0u32; 16];
    for (w, b) in m.iter_mut().zip(chunk.chunks_exact(4)) {
        *w = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    }
    let (mut a, mut b, mut c, mut d) = (state[0], state[1], state[2], state[3]);
    for i in 0..64 {
        let (f, g) = match i / 16 {
            0 => ((b & c) | (!b & d), i),
            1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
            2 => (b ^ c ^ d, (3 * i + 5) % 16),
            _ => (c ^ (b | !d), (7 * i) % 16),
        };
        let tmp = d;
        d = c;
        c = b;
        b = b.wrapping_add(
            a.wrapping_add(f)
                .wrapping_add(K[i])
                .wrapping_add(m[g])
                .rotate_left(S[i]),
        );
        a = tmp;
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
}

/// Compute the MD5 digest of `data`. Allocation-free: full blocks are
/// compressed straight from the input slice and the padded tail (at most
/// two blocks) lives on the stack — this sits on the per-probe hot path of
/// the horizontal detector, which digests every shipped attribute.
pub fn md5(data: &[u8]) -> Digest {
    let mut state: [u32; 4] = [0x6745_2301, 0xefcd_ab89, 0x98ba_dcfe, 0x1032_5476];

    let mut chunks = data.chunks_exact(64);
    for chunk in &mut chunks {
        compress(&mut state, chunk);
    }
    let rem = chunks.remainder();

    // Padded tail: remainder, 0x80, zeros, then the 64-bit LE bit length.
    let bit_len = (data.len() as u64).wrapping_mul(8);
    let mut tail = [0u8; 128];
    tail[..rem.len()].copy_from_slice(rem);
    tail[rem.len()] = 0x80;
    let tail_len = if rem.len() < 56 { 64 } else { 128 };
    tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_le_bytes());
    for chunk in tail[..tail_len].chunks_exact(64) {
        compress(&mut state, chunk);
    }

    let mut out = [0u8; 16];
    for (i, w) in state.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&w.to_le_bytes());
    }
    Digest(out)
}

/// [`digest_values`] through a caller-supplied scratch buffer: the buffer
/// is cleared, filled with the injective byte encoding and digested —
/// callers on hot loops reuse one allocation across all their probes.
pub fn digest_values_into(scratch: &mut Vec<u8>, values: &[relation::Value]) -> Digest {
    scratch.clear();
    for v in values {
        v.digest_bytes(scratch);
    }
    md5(scratch)
}

/// Digest of a value vector, using the injective per-value byte encoding
/// from [`relation::Value::digest_bytes`]. Two value vectors collide iff
/// MD5 collides — equality on digests is a sound stand-in for equality on
/// the vectors. Thin wrapper over [`digest_values_into`] with a fresh
/// scratch buffer.
pub fn digest_values(values: &[relation::Value]) -> Digest {
    let mut buf = Vec::with_capacity(values.len() * 12);
    digest_values_into(&mut buf, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::Value;

    /// RFC 1321 §A.5 test suite.
    #[test]
    fn rfc1321_test_vectors() {
        let cases: &[(&str, &str)] = &[
            ("", "d41d8cd98f00b204e9800998ecf8427e"),
            ("a", "0cc175b9c0f1b6a831c399e269772661"),
            ("abc", "900150983cd24fb0d6963f7d28e17f72"),
            ("message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                "abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, expect) in cases {
            assert_eq!(md5(input.as_bytes()).to_hex(), *expect, "input {input:?}");
        }
    }

    #[test]
    fn padding_boundaries() {
        // 55, 56 and 64 byte messages straddle the padding block boundary.
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120] {
            let data = vec![b'x'; len];
            let d = md5(&data);
            // Deterministic and different from neighbouring lengths.
            assert_eq!(d, md5(&data));
            let data2 = vec![b'x'; len + 1];
            assert_ne!(d, md5(&data2));
        }
    }

    #[test]
    fn value_digests_distinguish_vectors() {
        let a = digest_values(&[Value::int(44), Value::str("EH4 8LE")]);
        let b = digest_values(&[Value::int(44), Value::str("EH2 4HF")]);
        let c = digest_values(&[Value::int(44), Value::str("EH4 8LE")]);
        assert_ne!(a, b);
        assert_eq!(a, c);
        // The scratch-buffer path is byte-identical, and reuse across calls
        // (stale content cleared) does not leak between digests.
        let mut scratch = vec![0xffu8; 64];
        let a2 = digest_values_into(&mut scratch, &[Value::int(44), Value::str("EH4 8LE")]);
        assert_eq!(a, a2);
        let b2 = digest_values_into(&mut scratch, &[Value::int(44), Value::str("EH2 4HF")]);
        assert_eq!(b, b2);
        // Boundary shifting must not collide.
        let d = digest_values(&[Value::str("ab"), Value::str("c")]);
        let e = digest_values(&[Value::str("a"), Value::str("bc")]);
        assert_ne!(d, e);
    }

    #[test]
    fn hex_rendering() {
        assert_eq!(md5(b"").to_hex().len(), 32);
        assert_eq!(Digest::WIRE_SIZE, 16);
    }
}
