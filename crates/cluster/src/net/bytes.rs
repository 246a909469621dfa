//! Byte-level serialization of the wire vocabulary: [`Value`],
//! [`Digest`], [`WireValue`], and the integer primitives protocol
//! messages are built from.
//!
//! # Overhead accounting
//!
//! The paper's `|M|` model ([`crate::Wire::wire_size`]) counts *payload*
//! bytes: value widths, 16-byte digests, 4-byte symbols, 2-byte attribute
//! ids, 4-byte CFD ids. A decodable byte stream additionally needs
//! **structural** bytes — enum tags, item counts, value-type markers —
//! that the model deliberately ignores. Every `put_*` function therefore
//! returns the structural overhead it introduced, so encoders can prove
//! (and [`crate::run::Node::send`] debug-asserts) the identity
//!
//! ```text
//! encoded_len == wire_size() + structural_overhead
//! ```
//!
//! Per-item overheads:
//!
//! | item                    | modeled          | encoded              | overhead |
//! |-------------------------|------------------|----------------------|----------|
//! | `Value::Null`           | 1                | 1 (tag only)         | 0        |
//! | `Value::Int`            | 8                | 1 + 8                | 1        |
//! | `Value::Str`            | 4 + len          | 1 + 4 + len          | 1        |
//! | `WireValue::Raw`        | value            | 1 + value            | 1 + val  |
//! | `WireValue::Md5`        | 16               | 1 + 16               | 1        |
//! | `WireValue::Sym(None)`  | 4                | 1 + 4                | 1        |
//! | `WireValue::Sym(Some)`  | 8 + value        | 1 + 4 + 4 + value    | 1 + val  |
//! | item count (`u16`/`u32`)| 0                | 2 / 4                | 2 / 4    |
//! | item count (varint)     | 0                | 1 below 128 items    | 1–10     |
//!
//! (`Sym(Some)` carries the dictionary entry the model already charges:
//! the 4-byte entry id plus the raw value. The §6 protocol's counts are
//! varints, [`Reader::count`] on the way in; the batch baselines' columns
//! keep fixed-width ones.)
//!
//! # Compact primitives
//!
//! Control frames have no modeled size to stay aligned with (their whole
//! encoding is structural overhead), so they use the compact primitives
//! instead of the fixed-width ones above: LEB128 varints
//! ([`put_varint`] / [`Reader::varint`], canonical encodings only),
//! zig-zag for signed quantities, and [`put_cell`] / [`get_cell`] —
//! a [`Value`] as one varint header (`0` null, `1` int followed by a
//! zig-zag varint, `n + 2` a string of `n` bytes).

use crate::codec::WireValue;
use crate::md5::Digest;
use crate::ClusterError;
use relation::{Sym, Value};

const TAG_VALUE_NULL: u8 = 0;
const TAG_VALUE_INT: u8 = 1;
const TAG_VALUE_STR: u8 = 2;

const TAG_WIRE_RAW: u8 = 0;
const TAG_WIRE_MD5: u8 = 1;
const TAG_WIRE_SYM: u8 = 2;
const TAG_WIRE_SYM_DELTA: u8 = 3;

fn bad(what: &'static str) -> ClusterError {
    ClusterError::Transport(format!("malformed frame payload: {what}"))
}

/// A bounds-checked cursor over one decoded frame body.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Take the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ClusterError> {
        if n > self.remaining() {
            return Err(bad("truncated field"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next `N` bytes.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], ClusterError> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Next `u8`.
    pub fn u8(&mut self) -> Result<u8, ClusterError> {
        Ok(self.take(1)?[0])
    }

    /// Next little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, ClusterError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ClusterError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, ClusterError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Next LEB128 varint. Only the canonical encoding is accepted:
    /// at most ten bytes, no bits beyond the 64th, no trailing zero
    /// groups.
    pub fn varint(&mut self) -> Result<u64, ClusterError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return Err(bad("varint overflows 64 bits"));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                if b == 0 && shift > 0 {
                    return Err(bad("overlong varint"));
                }
                return Ok(v);
            }
        }
        Err(bad("varint longer than ten bytes"))
    }

    /// Next varint as the count of items that follow, each at least one
    /// byte long: a count the rest of the frame cannot hold is rejected
    /// here, so it never sizes an allocation.
    pub fn count(&mut self) -> Result<usize, ClusterError> {
        match usize::try_from(self.varint()?) {
            Ok(n) if n <= self.remaining() => Ok(n),
            _ => Err(bad("item count exceeds the frame")),
        }
    }

    /// The frame must be fully consumed.
    pub fn finish(self) -> Result<(), ClusterError> {
        if self.pos != self.buf.len() {
            return Err(bad("trailing bytes after message"));
        }
        Ok(())
    }
}

/// Serialize a [`Value`]; returns structural overhead (see module table).
pub fn put_value(out: &mut Vec<u8>, v: &Value) -> usize {
    match v {
        Value::Null => {
            // The model charges 1 byte for Null — the tag *is* that byte.
            out.push(TAG_VALUE_NULL);
            0
        }
        Value::Int(i) => {
            out.push(TAG_VALUE_INT);
            out.extend_from_slice(&i.to_le_bytes());
            1
        }
        Value::Str(s) => {
            out.push(TAG_VALUE_STR);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
            1
        }
    }
}

/// Deserialize a [`Value`].
pub fn get_value(r: &mut Reader<'_>) -> Result<Value, ClusterError> {
    match r.u8()? {
        TAG_VALUE_NULL => Ok(Value::Null),
        TAG_VALUE_INT => Ok(Value::Int(r.u64()? as i64)),
        TAG_VALUE_STR => {
            let len = r.u32()? as usize;
            let bytes = r.take(len)?;
            let s = std::str::from_utf8(bytes).map_err(|_| bad("non-UTF-8 string value"))?;
            Ok(Value::str(s))
        }
        _ => Err(bad("unknown value tag")),
    }
}

/// Append `v` as a LEB128 varint (1 byte below 128, at most 10).
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Bytes [`put_varint`] spends on `v`.
pub fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Zig-zag map of a signed value onto the varint-friendly unsigned
/// range (`0, -1, 1, -2, …` → `0, 1, 2, 3, …`).
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(u: u64) -> i64 {
    (u >> 1) as i64 ^ -((u & 1) as i64)
}

/// Serialize a [`Value`] compactly (see the module docs).
pub fn put_cell(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Int(i) => {
            out.push(1);
            put_varint(out, zigzag(*i));
        }
        Value::Str(s) => {
            put_varint(out, s.len() as u64 + 2);
            out.extend_from_slice(s.as_bytes());
        }
    }
}

/// Bytes [`put_cell`] spends on `v`.
pub fn cell_len(v: &Value) -> usize {
    match v {
        Value::Null => 1,
        Value::Int(i) => 1 + varint_len(zigzag(*i)),
        Value::Str(s) => varint_len(s.len() as u64 + 2) + s.len(),
    }
}

/// Deserialize a [`put_cell`] value.
pub fn get_cell(r: &mut Reader<'_>) -> Result<Value, ClusterError> {
    match r.varint()? {
        0 => Ok(Value::Null),
        1 => Ok(Value::Int(unzigzag(r.varint()?))),
        h => {
            let len = usize::try_from(h - 2).map_err(|_| bad("string length"))?;
            let s = std::str::from_utf8(r.take(len)?).map_err(|_| bad("non-UTF-8 string value"))?;
            Ok(Value::str(s))
        }
    }
}

/// Serialize a [`Digest`] (16 bytes, no overhead — the model charges 16).
pub(crate) fn put_digest(out: &mut Vec<u8>, d: &Digest) {
    out.extend_from_slice(&d.0);
}

/// Deserialize a [`Digest`].
pub(crate) fn get_digest(r: &mut Reader<'_>) -> Result<Digest, ClusterError> {
    Ok(Digest(r.array()?))
}

/// Serialize a [`WireValue`]; returns structural overhead.
pub fn put_wire_value(out: &mut Vec<u8>, w: &WireValue) -> usize {
    match w {
        WireValue::Raw(v) => {
            out.push(TAG_WIRE_RAW);
            1 + put_value(out, v)
        }
        WireValue::Md5(d) => {
            out.push(TAG_WIRE_MD5);
            put_digest(out, d);
            1
        }
        WireValue::Sym(s, None) => {
            out.push(TAG_WIRE_SYM);
            out.extend_from_slice(&s.to_le_bytes());
            1
        }
        WireValue::Sym(s, Some(v)) => {
            out.push(TAG_WIRE_SYM_DELTA);
            out.extend_from_slice(&s.to_le_bytes());
            // The dictionary entry the model charges as `4 + |value|`:
            // the entry's own symbol id, then the raw value.
            out.extend_from_slice(&s.to_le_bytes());
            1 + put_value(out, v)
        }
    }
}

/// Deserialize a [`WireValue`].
pub fn get_wire_value(r: &mut Reader<'_>) -> Result<WireValue, ClusterError> {
    match r.u8()? {
        TAG_WIRE_RAW => Ok(WireValue::Raw(get_value(r)?)),
        TAG_WIRE_MD5 => Ok(WireValue::Md5(get_digest(r)?)),
        TAG_WIRE_SYM => Ok(WireValue::Sym(r.u32()? as Sym, None)),
        TAG_WIRE_SYM_DELTA => {
            let sym = r.u32()? as Sym;
            let entry = r.u32()? as Sym;
            if entry != sym {
                return Err(bad("dictionary delta id does not match its symbol"));
            }
            Ok(WireValue::Sym(sym, Some(get_value(r)?)))
        }
        _ => Err(bad("unknown wire-value tag")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::value_digest;

    fn value_round_trip(v: &Value) {
        let mut buf = Vec::new();
        let ovh = put_value(&mut buf, v);
        assert_eq!(
            buf.len(),
            v.wire_size() + ovh,
            "overhead identity for {v:?}"
        );
        let mut r = Reader::new(&buf);
        assert_eq!(&get_value(&mut r).unwrap(), v);
        r.finish().unwrap();
    }

    #[test]
    fn values_round_trip_with_declared_overhead() {
        value_round_trip(&Value::Null);
        value_round_trip(&Value::int(0));
        value_round_trip(&Value::int(-987654321));
        value_round_trip(&Value::str(""));
        value_round_trip(&Value::str("Mayfield Gardens"));
        value_round_trip(&Value::str("ünïcodé — 东京"));
    }

    #[test]
    fn wire_values_round_trip_with_declared_overhead() {
        let v = Value::str("EH4 8LE");
        let cases = vec![
            WireValue::Raw(v.clone()),
            WireValue::Raw(Value::int(44)),
            WireValue::Md5(value_digest(&v)),
            WireValue::Sym(7, None),
            WireValue::Sym(9, Some(v.clone())),
            WireValue::Sym(3, Some(Value::Null)),
        ];
        for w in &cases {
            let mut buf = Vec::new();
            let ovh = put_wire_value(&mut buf, w);
            // WireValue::wire_size is the model; encoded adds `ovh`.
            assert_eq!(buf.len(), w.wire_size() + ovh, "{w:?}");
            let mut r = Reader::new(&buf);
            assert_eq!(&get_wire_value(&mut r).unwrap(), w);
            r.finish().unwrap();
        }
    }

    #[test]
    fn varints_round_trip_and_reject_non_canonical_encodings() {
        for v in [0, 1, 127, 128, 300, 1 << 32, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v));
            assert!(buf.len() <= 10);
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint().unwrap(), v);
            r.finish().unwrap();
        }
        for i in [0, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(i)), i);
        }
        assert_eq!((zigzag(0), zigzag(-1), zigzag(1)), (0, 1, 2));
        let decode = |b: &[u8]| Reader::new(b).varint();
        // Overlong: a trailing zero group re-encodes a shorter number.
        assert!(decode(&[0x80, 0x00]).is_err());
        assert!(decode(&[0xff, 0x80, 0x00]).is_err());
        // Eleven bytes, and a tenth byte carrying bits past the 64th.
        assert!(decode(&[0xff; 11]).is_err());
        let mut ten = [0xff; 10];
        ten[9] = 0x02;
        assert!(decode(&ten).is_err());
        ten[9] = 0x01;
        assert_eq!(decode(&ten).unwrap(), u64::MAX);
        // Truncated mid-number.
        assert!(decode(&[0x80]).is_err());
        // A count the frame cannot hold never reaches an allocator.
        let mut buf = Vec::new();
        put_varint(&mut buf, 1 << 40);
        assert!(Reader::new(&buf).count().is_err());
        assert!(Reader::new(&[u8::MAX; 9]).take(usize::MAX).is_err());
    }

    #[test]
    fn cells_round_trip() {
        for v in [
            Value::Null,
            Value::int(0),
            Value::int(-987654321),
            Value::int(i64::MIN),
            Value::int(i64::MAX),
            Value::str(""),
            Value::str("Mayfield Gardens"),
            Value::str("ünïcodé — 东京"),
        ] {
            let mut buf = Vec::new();
            put_cell(&mut buf, &v);
            assert_eq!(buf.len(), cell_len(&v));
            let mut r = Reader::new(&buf);
            assert_eq!(get_cell(&mut r).unwrap(), v);
            r.finish().unwrap();
        }
        // Short strings and small ints cost one byte of header.
        let mut buf = Vec::new();
        put_cell(&mut buf, &Value::str("EDI"));
        assert_eq!(buf.len(), 4);
        assert!(get_cell(&mut Reader::new(&[4, 0xff, 0xfe])).is_err());
        assert!(get_cell(&mut Reader::new(&[9, b'a'])).is_err());
    }

    #[test]
    fn malformed_payloads_error_not_panic() {
        // Unknown tags.
        assert!(get_value(&mut Reader::new(&[9])).is_err());
        assert!(get_wire_value(&mut Reader::new(&[9])).is_err());
        // Truncations at every level.
        assert!(get_value(&mut Reader::new(&[TAG_VALUE_INT, 1, 2])).is_err());
        assert!(get_value(&mut Reader::new(&[TAG_VALUE_STR, 5, 0, 0, 0, b'a'])).is_err());
        assert!(get_wire_value(&mut Reader::new(&[TAG_WIRE_MD5, 1, 2, 3])).is_err());
        assert!(get_wire_value(&mut Reader::new(&[TAG_WIRE_SYM, 1])).is_err());
        // Invalid UTF-8.
        assert!(get_value(&mut Reader::new(&[TAG_VALUE_STR, 2, 0, 0, 0, 0xff, 0xfe])).is_err());
        // Mismatched dictionary delta id.
        let mut buf = vec![TAG_WIRE_SYM_DELTA];
        buf.extend_from_slice(&7u32.to_le_bytes());
        buf.extend_from_slice(&8u32.to_le_bytes());
        put_value(&mut buf, &Value::int(1));
        assert!(get_wire_value(&mut Reader::new(&buf)).is_err());
        // Trailing bytes rejected.
        let mut buf = Vec::new();
        put_value(&mut buf, &Value::int(5));
        buf.push(0);
        let mut r = Reader::new(&buf);
        get_value(&mut r).unwrap();
        assert!(r.finish().is_err());
    }
}
