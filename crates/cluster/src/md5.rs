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

/// One step of round function `$f`: `a = b + ((a + f(b, c, d) + k + m)
/// <<< s)`, the caller rotating the roles of `a`–`d` from step to step.
macro_rules! step {
    ($f:expr, $a:ident, $b:ident, $c:ident, $d:ident, $m:expr, $k:expr, $s:expr) => {
        $a = $b.wrapping_add(
            $a.wrapping_add($f)
                .wrapping_add($k)
                .wrapping_add($m)
                .rotate_left($s),
        );
    };
}

/// Round 1's step: `F(b, c, d) = (b ∧ c) ∨ (¬b ∧ d)`.
macro_rules! ff {
    ($a:ident, $b:ident, $c:ident, $d:ident, $m:expr, $i:literal, $s:literal) => {
        step!(($b & $c) | (!$b & $d), $a, $b, $c, $d, $m, K[$i], $s)
    };
}

/// Round 2's step: `G(b, c, d) = (d ∧ b) ∨ (¬d ∧ c)`.
macro_rules! gg {
    ($a:ident, $b:ident, $c:ident, $d:ident, $m:expr, $i:literal, $s:literal) => {
        step!(($d & $b) | (!$d & $c), $a, $b, $c, $d, $m, K[$i], $s)
    };
}

/// Round 3's step: `H(b, c, d) = b ⊕ c ⊕ d`.
macro_rules! hh {
    ($a:ident, $b:ident, $c:ident, $d:ident, $m:expr, $i:literal, $s:literal) => {
        step!($b ^ $c ^ $d, $a, $b, $c, $d, $m, K[$i], $s)
    };
}

/// Round 4's step: `I(b, c, d) = c ⊕ (b ∨ ¬d)`.
macro_rules! ii {
    ($a:ident, $b:ident, $c:ident, $d:ident, $m:expr, $i:literal, $s:literal) => {
        step!($c ^ ($b | !$d), $a, $b, $c, $d, $m, K[$i], $s)
    };
}

/// One compression round over a 64-byte block (RFC 1321 §3.4), its 64
/// steps written out: every message index, constant and shift is a
/// literal, so no step computes an index or looks up a shift at run time.
#[inline]
fn compress(state: &mut [u32; 4], chunk: &[u8]) {
    debug_assert_eq!(chunk.len(), 64);
    let mut m = [0u32; 16];
    for (w, b) in m.iter_mut().zip(chunk.chunks_exact(4)) {
        *w = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    }
    let [mut a, mut b, mut c, mut d] = *state;

    ff!(a, b, c, d, m[0], 0, 7);
    ff!(d, a, b, c, m[1], 1, 12);
    ff!(c, d, a, b, m[2], 2, 17);
    ff!(b, c, d, a, m[3], 3, 22);
    ff!(a, b, c, d, m[4], 4, 7);
    ff!(d, a, b, c, m[5], 5, 12);
    ff!(c, d, a, b, m[6], 6, 17);
    ff!(b, c, d, a, m[7], 7, 22);
    ff!(a, b, c, d, m[8], 8, 7);
    ff!(d, a, b, c, m[9], 9, 12);
    ff!(c, d, a, b, m[10], 10, 17);
    ff!(b, c, d, a, m[11], 11, 22);
    ff!(a, b, c, d, m[12], 12, 7);
    ff!(d, a, b, c, m[13], 13, 12);
    ff!(c, d, a, b, m[14], 14, 17);
    ff!(b, c, d, a, m[15], 15, 22);

    gg!(a, b, c, d, m[1], 16, 5);
    gg!(d, a, b, c, m[6], 17, 9);
    gg!(c, d, a, b, m[11], 18, 14);
    gg!(b, c, d, a, m[0], 19, 20);
    gg!(a, b, c, d, m[5], 20, 5);
    gg!(d, a, b, c, m[10], 21, 9);
    gg!(c, d, a, b, m[15], 22, 14);
    gg!(b, c, d, a, m[4], 23, 20);
    gg!(a, b, c, d, m[9], 24, 5);
    gg!(d, a, b, c, m[14], 25, 9);
    gg!(c, d, a, b, m[3], 26, 14);
    gg!(b, c, d, a, m[8], 27, 20);
    gg!(a, b, c, d, m[13], 28, 5);
    gg!(d, a, b, c, m[2], 29, 9);
    gg!(c, d, a, b, m[7], 30, 14);
    gg!(b, c, d, a, m[12], 31, 20);

    hh!(a, b, c, d, m[5], 32, 4);
    hh!(d, a, b, c, m[8], 33, 11);
    hh!(c, d, a, b, m[11], 34, 16);
    hh!(b, c, d, a, m[14], 35, 23);
    hh!(a, b, c, d, m[1], 36, 4);
    hh!(d, a, b, c, m[4], 37, 11);
    hh!(c, d, a, b, m[7], 38, 16);
    hh!(b, c, d, a, m[10], 39, 23);
    hh!(a, b, c, d, m[13], 40, 4);
    hh!(d, a, b, c, m[0], 41, 11);
    hh!(c, d, a, b, m[3], 42, 16);
    hh!(b, c, d, a, m[6], 43, 23);
    hh!(a, b, c, d, m[9], 44, 4);
    hh!(d, a, b, c, m[12], 45, 11);
    hh!(c, d, a, b, m[15], 46, 16);
    hh!(b, c, d, a, m[2], 47, 23);

    ii!(a, b, c, d, m[0], 48, 6);
    ii!(d, a, b, c, m[7], 49, 10);
    ii!(c, d, a, b, m[14], 50, 15);
    ii!(b, c, d, a, m[5], 51, 21);
    ii!(a, b, c, d, m[12], 52, 6);
    ii!(d, a, b, c, m[3], 53, 10);
    ii!(c, d, a, b, m[10], 54, 15);
    ii!(b, c, d, a, m[1], 55, 21);
    ii!(a, b, c, d, m[8], 56, 6);
    ii!(d, a, b, c, m[15], 57, 10);
    ii!(c, d, a, b, m[6], 58, 15);
    ii!(b, c, d, a, m[13], 59, 21);
    ii!(a, b, c, d, m[4], 60, 6);
    ii!(d, a, b, c, m[11], 61, 10);
    ii!(c, d, a, b, m[2], 62, 15);
    ii!(b, c, d, a, m[9], 63, 21);

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
    md5_by(data, compress)
}

/// [`md5`] with the block function `compress`.
#[inline]
fn md5_by(data: &[u8], compress: impl Fn(&mut [u32; 4], &[u8])) -> Digest {
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

/// Digest of a value vector, using the injective per-value byte encoding
/// from [`relation::Value::digest_bytes`]. Two value vectors collide iff
/// MD5 collides — equality on digests is a sound stand-in for equality on
/// the vectors. `scratch` is cleared and filled with the encoding, so
/// callers on hot loops reuse one allocation across all their probes.
pub fn digest_values_into(scratch: &mut Vec<u8>, values: &[relation::Value]) -> Digest {
    scratch.clear();
    for v in values {
        v.digest_bytes(scratch);
    }
    md5(scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::Value;

    /// Per-round shift amounts (RFC 1321 §3.4).
    const S: [u32; 64] = [
        7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, //
        5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, //
        4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, //
        6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
    ];

    /// The block function as RFC 1321 §3.4 states it: one loop over the
    /// 64 steps, the round function, message index and shift of each
    /// computed from its number.
    fn compress_reference(state: &mut [u32; 4], chunk: &[u8]) {
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

    /// The written-out block function is the loop, bit for bit: 10⁴
    /// seeded inputs of every length 0–200 (so one to four blocks, and
    /// every padding case) digest the same through both.
    #[test]
    fn unrolled_compress_is_the_reference_loop() {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut data = Vec::new();
        for i in 0..10_000 {
            data.clear();
            data.extend((0..i % 201).map(|_| next() as u8));
            let want = md5_by(&data, compress_reference);
            assert_eq!(md5(&data), want, "input {i} of {} bytes", data.len());
        }
    }

    fn digest_values(values: &[Value]) -> Digest {
        digest_values_into(&mut Vec::new(), values)
    }

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
