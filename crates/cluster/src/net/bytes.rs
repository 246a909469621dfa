//! Byte-level serialization of the wire vocabulary: [`Value`],
//! [`Digest`], [`WireValue`], and the integer primitives every frame is
//! built from.
//!
//! # Modeled vs encoded
//!
//! The paper's `|M|` model ([`crate::Wire::wire_size`]) prices a payload
//! by fixed widths: 8 bytes per integer, `4 + len` per string, 16 per
//! digest, 4 per symbol, 2 per attribute id, 4 per rule or operator id.
//! A frame is a separate format. It writes ids and counts as canonical
//! LEB128 varints ([`put_varint`] / [`Reader::varint`]), signed
//! quantities zig-zagged, and a [`Value`] as a *cell* ([`put_cell`] /
//! [`get_cell`]): one varint header (`0` null, `1` int followed by a
//! zig-zag varint, `n + 2` a string of `n` bytes). A [`WireValue`] is one
//! varint header `(key << 2) | kind` — `key` the attribute id it carries,
//! `kind` raw, md5, symbol or symbol-with-entry — then its body. Per item:
//!
//! | item                     | modeled `\|M\|`  | encoded                                   |
//! |--------------------------|------------------|-------------------------------------------|
//! | `Value::Null`            | 1                | 1                                         |
//! | `Value::Int(i)`          | 8                | 1 + varint(zigzag(i)): 2 for −64 ≤ i < 64, at most 11 |
//! | `Value::Str(s)`          | 4 + len          | varint(len + 2) + len: 1 + len below 126 bytes |
//! | `WireValue` header       | 2 (the attribute id) | varint((attr << 2) \| kind): 1 below attribute 32, 2 below 4 096 |
//! | `WireValue::Raw(v)`      | v                | header + cell(v)                          |
//! | `WireValue::Md5(d)`      | 16               | header + 16                               |
//! | `WireValue::Sym(s, None)`| 4                | header + varint(s): 1 below symbol 128    |
//! | `WireValue::Sym(s, Some(v))` | 8 + v        | header + varint(s) + cell(v)              |
//! | operator / rule id       | 4                | varint: 1 below 128                       |
//! | tid (batch columns)      | 8                | varint of the gap from the previous tid   |
//! | item count               | 0                | varint: 1 below 128 items                 |
//! | message tag              | 0 or 1           | 1                                         |
//!
//! So a frame may be longer or shorter than the model. The node that
//! ships it ([`crate::run::Node::send`]) meters both and books the
//! difference: bytes above the model as `structural_bytes`, bytes below
//! it as `saved_bytes` ([`crate::net::TransportMeter`]).
//!
//! Every decoder here accepts only the encoding its encoder writes — no
//! overlong varint, no id past its type — so a byte string decodes to a
//! message that re-encodes to exactly those bytes, or to a
//! [`ClusterError::Transport`].

use crate::codec::WireValue;
use crate::md5::Digest;
use crate::ClusterError;
use relation::{AttrId, Value};

// The `kind` bits of a wire value's header.
const WIRE_RAW: u64 = 0;
const WIRE_MD5: u64 = 1;
const WIRE_SYM: u64 = 2;
const WIRE_SYM_ENTRY: u64 = 3;

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

    /// Next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ClusterError> {
        Ok(u32::from_le_bytes(self.array()?))
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

    /// Next varint as an id of type `T`: one past `T`'s range is refused,
    /// naming `what`.
    pub fn id<T: TryFrom<u64>>(&mut self, what: &str) -> Result<T, ClusterError> {
        T::try_from(self.varint()?).map_err(|_| {
            ClusterError::Transport(format!("malformed frame payload: {what} past its range"))
        })
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

/// Serialize a [`Digest`] (its 16 bytes).
pub(crate) fn put_digest(out: &mut Vec<u8>, d: &Digest) {
    out.extend_from_slice(&d.0);
}

/// Deserialize a [`Digest`].
pub(crate) fn get_digest(r: &mut Reader<'_>) -> Result<Digest, ClusterError> {
    Ok(Digest(r.array()?))
}

/// Serialize a [`WireValue`] behind its header `(key << 2) | kind` (see
/// the module table); `key` is the attribute it carries, or `0` where a
/// frame names none.
pub fn put_wire_value(out: &mut Vec<u8>, key: AttrId, w: &WireValue) {
    let head = |kind: u64| (u64::from(key) << 2) | kind;
    match w {
        WireValue::Raw(v) => {
            put_varint(out, head(WIRE_RAW));
            put_cell(out, v);
        }
        WireValue::Md5(d) => {
            put_varint(out, head(WIRE_MD5));
            put_digest(out, d);
        }
        WireValue::Sym(s, None) => {
            put_varint(out, head(WIRE_SYM));
            put_varint(out, u64::from(*s));
        }
        WireValue::Sym(s, Some(v)) => {
            // The dictionary entry the model charges as `4 + |value|`: the
            // symbol is already on the wire, so only the value follows.
            put_varint(out, head(WIRE_SYM_ENTRY));
            put_varint(out, u64::from(*s));
            put_cell(out, v);
        }
    }
}

/// Deserialize a [`put_wire_value`] value: its key and the value. A key
/// past [`AttrId`] is refused.
pub fn get_wire_value(r: &mut Reader<'_>) -> Result<(AttrId, WireValue), ClusterError> {
    let head = r.varint()?;
    let key =
        AttrId::try_from(head >> 2).map_err(|_| bad("attribute id past the attribute range"))?;
    let w = match head & 3 {
        WIRE_RAW => WireValue::Raw(get_cell(r)?),
        WIRE_MD5 => WireValue::Md5(get_digest(r)?),
        WIRE_SYM => WireValue::Sym(r.id("symbol")?, None),
        _ => WireValue::Sym(r.id("symbol")?, Some(get_cell(r)?)),
    };
    Ok((key, w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::value_digest;
    use relation::Sym;

    fn wire_frame(key: AttrId, w: &WireValue) -> Vec<u8> {
        let mut buf = Vec::new();
        put_wire_value(&mut buf, key, w);
        buf
    }

    /// Every payload shape round-trips with its key, at the exact length
    /// the module table gives — shorter than the model for ints, symbols
    /// and entries, one header byte longer for a digest.
    #[test]
    fn wire_values_round_trip_at_their_table_lengths() {
        let v = Value::str("EH4 8LE");
        let cases = [
            (WireValue::Raw(v.clone()), 0, 1 + 1 + 7, 11),
            (WireValue::Raw(Value::int(44)), 5, 1 + 2, 8),
            (WireValue::Raw(Value::int(-987_654_321)), 31, 1 + 1 + 5, 8),
            (WireValue::Raw(Value::Null), 32, 2 + 1, 1),
            (WireValue::Md5(value_digest(&v)), 7, 1 + 16, 16),
            (WireValue::Sym(7, None), 1, 1 + 1, 4),
            (WireValue::Sym(300, None), 4_095, 2 + 2, 4),
            (WireValue::Sym(9, Some(v.clone())), 2, 1 + 1 + 8, 19),
            (
                WireValue::Sym(Sym::MAX, Some(Value::Null)),
                AttrId::MAX,
                3 + 5 + 1,
                9,
            ),
        ];
        for (w, key, encoded, modeled) in cases {
            let buf = wire_frame(key, &w);
            assert_eq!((buf.len(), w.wire_size()), (encoded, modeled), "{w:?}");
            let mut r = Reader::new(&buf);
            assert_eq!(get_wire_value(&mut r).unwrap(), (key, w));
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
        let refused = |bytes: &[u8], why: &str| match get_wire_value(&mut Reader::new(bytes)) {
            Err(ClusterError::Transport(e)) => assert!(e.contains(why), "{bytes:02x?}: {e}"),
            other => panic!("{bytes:02x?}: {other:?}"),
        };
        // Truncations at every level: a digest, a symbol, a cell.
        refused(&[1, 1, 2, 3], "truncated field");
        refused(&[2, 0x80], "truncated field");
        refused(&[0, 5, b'a'], "truncated field");
        refused(&[3, 9], "truncated field");
        // A header past the attribute range: attribute 2¹⁶, raw null.
        let mut buf = Vec::new();
        put_varint(&mut buf, 1 << 18);
        buf.push(0);
        refused(&buf, "attribute id past");
        // A symbol one past `Sym::MAX`.
        let mut buf = vec![2];
        put_varint(&mut buf, u64::from(Sym::MAX) + 1);
        refused(&buf, "symbol past");
        // Invalid UTF-8, and an overlong header.
        refused(&[0, 4, 0xff, 0xfe], "non-UTF-8");
        refused(&[0x80, 0x00, 0], "overlong varint");
        // Trailing bytes are the frame's to refuse.
        let mut r = Reader::new(&[0, 0, 0]);
        get_wire_value(&mut r).unwrap();
        assert!(r.finish().is_err());
    }
}
