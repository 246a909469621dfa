//! Byte-level serialization of the wire vocabulary: the [`Field`] forms
//! every frame is built from, and [`wire!`](crate::wire), which declares
//! a frame once and derives both its encoder and its decoder.
//!
//! The paper's `|M|` model ([`crate::Wire::wire_size`]) prices a payload
//! by fixed widths: 8 bytes per integer, `4 + len` per string, 16 per
//! digest, 4 per symbol, 2 per attribute id, 4 per rule or operator id.
//! A frame is a separate format. It writes ids and counts as canonical
//! LEB128 varints ([`put_varint`] / [`Reader::varint`]), signed
//! quantities zig-zagged, and a [`Value`] as a *cell*: one varint header
//! (`0` null, `1` int followed by a zig-zag varint, `n + 2` a string of
//! `n` bytes). A [`WireValue`] is one varint header `(key << 2) | kind` —
//! `key` the attribute id it carries, `kind` raw, md5, symbol or
//! symbol-with-entry — then its body. Each form, with what `get` refuses
//! besides a field cut short:
//!
//! | form | modeled `\|M\|` | encoded | refused |
//! |---|---|---|---|
//! | `Value::Null` | 1 | 1 | — |
//! | `Value::Int(i)` | 8 | 1 + varint(zigzag(i)): 2 for −64 ≤ i < 64, at most 11 | — |
//! | `Value::Str(s)` | 4 + len | varint(len + 2) + len: 1 + len below 126 bytes | not UTF-8 |
//! | [`Attr`] header | 2 (the attribute id) | varint((attr << 2) \| kind): 1 below attribute 32, 2 below 4 096 | an attribute past [`AttrId`] |
//! | `WireValue::Raw(v)` | v | header + cell(v) | — |
//! | `WireValue::Md5(d)` | 16 | header + 16 ([`Digest`]) | — |
//! | `WireValue::Sym(s, None)` | 4 | header + varint(s): 1 below symbol 128 | a symbol past `u32` |
//! | `WireValue::Sym(s, Some(v))` | 8 + v | header + varint(s) + cell(v) | as above |
//! | [`WireValue`] alone | as above | the same under attribute 0 | a header naming an attribute |
//! | `u32`, `usize`, `u64` | 4 an operator or rule id | varint: 1 below 128 | an overlong varint; a value past the type |
//! | [`AtLeast<MIN>`] | 0 | varint | a value below `MIN` |
//! | `i64` (a delta) | 0 | zig-zag varint | — |
//! | `String` | 0 | varint(len) + len UTF-8 bytes | not UTF-8 |
//! | `Vec<F>`, `(A, B)`, `Box<F>` | 0 for the count | varint(n) + n × F; A then B; F | a count past the bytes left (an item is at least one byte) |
//! | [`Le32`] | 0 | 4 bytes little-endian | — |
//! | [`Gaps`] (ascending tids) | 8 a tid | varint(n) varint(first), then each gap from the tid before | a gap of zero; a tid past `u64` |
//! | [`Runs`] (`(cfd, tid)` marks) | 0 | varint(runs), each run of one CFD's ascending tids as zigzag(Δcfd) varint(len) zigzag(Δfirst), then each gap | an empty run; a gap of zero; a run that continues the one before; a CFD past `u32` |
//! | [`Nested<M>`] | `M`'s | the rest of the frame, an `M` frame | what `M`'s decoder refuses |
//! | message tag | 0 or 1 | 1 | an unknown tag; bytes after the message |
//!
//! So a frame may be longer or shorter than the model. The node that
//! ships it ([`crate::run::Node::send`]) meters both and books the
//! difference: bytes above the model as `structural_bytes`, bytes below
//! it as `saved_bytes` ([`crate::net::TransportMeter`]).
//!
//! A byte string decodes to a message that re-encodes to exactly those
//! bytes, or to a [`ClusterError::Transport`]: every decoder accepts only
//! its encoder's bytes. Canonicality covers the message body the sender
//! serialized — what [`crate::net::unpack_body`] returns — and not the
//! packing: an LZ-packed body ([`crate::lz`]) may have other packings of
//! the same bytes.

use crate::codec::WireValue;
use crate::md5::Digest;
use crate::net::FrameCodec;
use crate::ClusterError;
use relation::{AttrId, Value};

// The `kind` bits of a wire value's header.
const WIRE_RAW: u64 = 0;
const WIRE_MD5: u64 = 1;
const WIRE_SYM: u64 = 2;
const WIRE_SYM_ENTRY: u64 = 3;

/// The typed error of a frame body its encoder did not write.
pub fn malformed(what: &str) -> ClusterError {
    ClusterError::Transport(format!("malformed frame payload: {what}"))
}

/// A bounds-checked cursor over one decoded frame body.
#[derive(Debug, Clone)]
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
            return Err(malformed("truncated field"));
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

    /// Next LEB128 varint. Only the canonical encoding is accepted:
    /// at most ten bytes, no bits beyond the 64th, no trailing zero
    /// groups.
    pub fn varint(&mut self) -> Result<u64, ClusterError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return Err(malformed("varint overflows 64 bits"));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                if b == 0 && shift > 0 {
                    return Err(malformed("overlong varint"));
                }
                return Ok(v);
            }
        }
        Err(malformed("varint longer than ten bytes"))
    }

    /// Next varint as the count of items that follow, each at least one
    /// byte long: a count the rest of the frame cannot hold is rejected
    /// here, so it never sizes an allocation.
    pub fn count(&mut self) -> Result<usize, ClusterError> {
        match usize::try_from(self.varint()?) {
            Ok(n) if n <= self.remaining() => Ok(n),
            _ => Err(malformed("item count exceeds the frame")),
        }
    }

    /// The frame must be fully consumed.
    pub fn finish(self) -> Result<(), ClusterError> {
        if self.pos != self.buf.len() {
            return Err(malformed("trailing bytes after message"));
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
fn unzigzag(u: u64) -> i64 {
    (u >> 1) as i64 ^ -((u & 1) as i64)
}

/// Bytes a [`Value`] cell takes.
pub fn cell_len(v: &Value) -> usize {
    match v {
        Value::Null => 1,
        Value::Int(i) => 1 + varint_len(zigzag(*i)),
        Value::Str(s) => varint_len(s.len() as u64 + 2) + s.len(),
    }
}

/// Serialize a [`WireValue`] behind its header `(key << 2) | kind` (see
/// the module table); `key` is the attribute it carries, or `0` where a
/// frame names none.
pub fn put_wire_value(out: &mut Vec<u8>, key: AttrId, w: &WireValue) {
    let head = |kind: u64| (u64::from(key) << 2) | kind;
    match w {
        WireValue::Raw(v) => {
            put_varint(out, head(WIRE_RAW));
            Value::put(out, v);
        }
        WireValue::Md5(d) => {
            put_varint(out, head(WIRE_MD5));
            Digest::put(out, d);
        }
        WireValue::Sym(s, None) => {
            put_varint(out, head(WIRE_SYM));
            u32::put(out, s);
        }
        WireValue::Sym(s, Some(v)) => {
            // The dictionary entry the model charges as `4 + |value|`: the
            // symbol is already on the wire, so only the value follows.
            put_varint(out, head(WIRE_SYM_ENTRY));
            u32::put(out, s);
            Value::put(out, v);
        }
    }
}

/// Deserialize a [`put_wire_value`] value: its key and the value. A key
/// past [`AttrId`] is refused.
pub fn get_wire_value(r: &mut Reader<'_>) -> Result<(AttrId, WireValue), ClusterError> {
    let head = r.varint()?;
    let key = AttrId::try_from(head >> 2)
        .map_err(|_| malformed("attribute id past the attribute range"))?;
    let w = match head & 3 {
        WIRE_RAW => WireValue::Raw(Value::get(r)?),
        WIRE_MD5 => WireValue::Md5(Digest::get(r)?),
        WIRE_SYM => WireValue::Sym(u32::get(r)?, None),
        _ => WireValue::Sym(u32::get(r)?, Some(Value::get(r)?)),
    };
    Ok((key, w))
}

/// One wire form: how a [`Field::Value`] is written, and how it is read
/// back. `get` accepts exactly the byte strings `put` writes — a value
/// re-encodes to the bytes it was read from — and refuses every other
/// with a [`ClusterError::Transport`], before anything it sizes is
/// allocated. The module table lists the forms.
pub trait Field {
    /// What the form carries.
    type Value;

    /// Append `v`.
    fn put(out: &mut Vec<u8>, v: &Self::Value);

    /// Read one value.
    fn get(r: &mut Reader<'_>) -> Result<Self::Value, ClusterError>;
}

/// Unsigned ids and numbers: a varint, refused past the type.
macro_rules! varint_fields {
    ($($t:ty)*) => {$(
        impl Field for $t {
            type Value = $t;

            fn put(out: &mut Vec<u8>, v: &$t) {
                put_varint(out, *v as u64);
            }

            fn get(r: &mut Reader<'_>) -> Result<$t, ClusterError> {
                <$t>::try_from(r.varint()?)
                    .map_err(|_| malformed(concat!("a varint past ", stringify!($t))))
            }
        }
    )*};
}

varint_fields!(u32 u64 usize);

/// A `u32` no sender writes below `MIN`: a smaller value is another
/// message's spelling, and refused.
pub struct AtLeast<const MIN: u32>;

impl<const MIN: u32> Field for AtLeast<MIN> {
    type Value = u32;

    fn put(out: &mut Vec<u8>, v: &u32) {
        debug_assert!(*v >= MIN, "{v} below {MIN}");
        u32::put(out, v);
    }

    fn get(r: &mut Reader<'_>) -> Result<u32, ClusterError> {
        match u32::get(r)? {
            v if v < MIN => Err(malformed(&format!("{v} below its least value {MIN}"))),
            v => Ok(v),
        }
    }
}

/// A signed delta, zig-zagged.
impl Field for i64 {
    type Value = i64;

    fn put(out: &mut Vec<u8>, v: &i64) {
        put_varint(out, zigzag(*v));
    }

    fn get(r: &mut Reader<'_>) -> Result<i64, ClusterError> {
        Ok(unzigzag(r.varint()?))
    }
}

/// A cell (see the module docs).
impl Field for Value {
    type Value = Value;

    fn put(out: &mut Vec<u8>, v: &Value) {
        match v {
            Value::Null => out.push(0),
            Value::Int(i) => {
                out.push(1);
                i64::put(out, i);
            }
            Value::Str(s) => {
                put_varint(out, s.len() as u64 + 2);
                out.extend_from_slice(s.as_bytes());
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Value, ClusterError> {
        match r.varint()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Int(i64::get(r)?)),
            h => {
                let len = usize::try_from(h - 2).map_err(|_| malformed("string length"))?;
                let s = std::str::from_utf8(r.take(len)?)
                    .map_err(|_| malformed("non-UTF-8 string value"))?;
                Ok(Value::str(s))
            }
        }
    }
}

/// A digest's 16 bytes.
impl Field for Digest {
    type Value = Digest;

    fn put(out: &mut Vec<u8>, d: &Digest) {
        out.extend_from_slice(&d.0);
    }

    fn get(r: &mut Reader<'_>) -> Result<Digest, ClusterError> {
        Ok(Digest(r.array()?))
    }
}

/// A payload that names no attribute: its header's key is `0`.
impl Field for WireValue {
    type Value = WireValue;

    fn put(out: &mut Vec<u8>, w: &WireValue) {
        put_wire_value(out, 0, w);
    }

    fn get(r: &mut Reader<'_>) -> Result<WireValue, ClusterError> {
        match get_wire_value(r)? {
            (0, w) => Ok(w),
            _ => Err(malformed("a value names an attribute")),
        }
    }
}

/// An attribute and its payload, behind one header.
pub struct Attr;

impl Field for Attr {
    type Value = (AttrId, WireValue);

    fn put(out: &mut Vec<u8>, (a, w): &(AttrId, WireValue)) {
        put_wire_value(out, *a, w);
    }

    fn get(r: &mut Reader<'_>) -> Result<(AttrId, WireValue), ClusterError> {
        get_wire_value(r)
    }
}

/// Text: its byte length, then its UTF-8 bytes.
impl Field for String {
    type Value = String;

    fn put(out: &mut Vec<u8>, s: &String) {
        put_varint(out, s.len() as u64);
        out.extend_from_slice(s.as_bytes());
    }

    fn get(r: &mut Reader<'_>) -> Result<String, ClusterError> {
        let len = r.count()?;
        String::from_utf8(r.take(len)?.to_vec()).map_err(|_| malformed("text is not UTF-8"))
    }
}

/// A counted list.
impl<F: Field> Field for Vec<F> {
    type Value = Vec<F::Value>;

    fn put(out: &mut Vec<u8>, items: &Vec<F::Value>) {
        put_varint(out, items.len() as u64);
        items.iter().for_each(|v| F::put(out, v));
    }

    fn get(r: &mut Reader<'_>) -> Result<Vec<F::Value>, ClusterError> {
        let n = r.count()?;
        (0..n).map(|_| F::get(r)).collect()
    }
}

impl<F: Field> Field for Box<F> {
    type Value = Box<F::Value>;

    fn put(out: &mut Vec<u8>, v: &Box<F::Value>) {
        F::put(out, v);
    }

    fn get(r: &mut Reader<'_>) -> Result<Box<F::Value>, ClusterError> {
        F::get(r).map(Box::new)
    }
}

impl<A: Field, B: Field> Field for (A, B) {
    type Value = (A::Value, B::Value);

    fn put(out: &mut Vec<u8>, (a, b): &(A::Value, B::Value)) {
        A::put(out, a);
        B::put(out, b);
    }

    fn get(r: &mut Reader<'_>) -> Result<(A::Value, B::Value), ClusterError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// A `u32` in four bytes, little-endian.
pub struct Le32;

impl Field for Le32 {
    type Value = u32;

    fn put(out: &mut Vec<u8>, v: &u32) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    fn get(r: &mut Reader<'_>) -> Result<u32, ClusterError> {
        r.array().map(u32::from_le_bytes)
    }
}

/// Append the gaps between `tids`, which ascend.
fn put_gaps(out: &mut Vec<u8>, tids: impl Iterator<Item = u64> + Clone) {
    for (prev, t) in tids.clone().zip(tids.skip(1)) {
        debug_assert!(prev < t, "tids ascend");
        put_varint(out, t - prev);
    }
}

/// The tid a gap past `prev` names: a gap of zero, or one past `u64`,
/// is refused.
fn get_gap(r: &mut Reader<'_>, prev: u64) -> Result<u64, ClusterError> {
    let gap = r.varint()?;
    prev.checked_add(gap)
        .filter(|_| gap > 0)
        .ok_or_else(|| malformed("a tid gap of zero or past u64"))
}

/// Tids, strictly ascending: the count, the first, then each gap from
/// the one before.
pub struct Gaps;

impl Field for Gaps {
    type Value = Vec<u64>;

    fn put(out: &mut Vec<u8>, tids: &Vec<u64>) {
        put_varint(out, tids.len() as u64);
        if let Some(first) = tids.first() {
            put_varint(out, *first);
        }
        put_gaps(out, tids.iter().copied());
    }

    fn get(r: &mut Reader<'_>) -> Result<Vec<u64>, ClusterError> {
        let n = r.count()?;
        let mut tids: Vec<u64> = Vec::with_capacity(n);
        for _ in 0..n {
            let t = match tids.last() {
                None => r.varint()?,
                Some(&prev) => get_gap(r, prev)?,
            };
            tids.push(t);
        }
        Ok(tids)
    }
}

/// `(cfd, tid)` marks as runs: a run is a stretch of one CFD's marks with
/// ascending tids, as long as it goes (a sorted list has one per CFD).
/// Its CFD and first tid are zig-zag deltas from the run before, the rest
/// of its tids gaps.
pub struct Runs;

impl Field for Runs {
    type Value = Vec<(u32, u64)>;

    fn put(out: &mut Vec<u8>, marks: &Vec<(u32, u64)>) {
        let runs = || marks.chunk_by(|a, b| a.0 == b.0 && a.1 < b.1);
        put_varint(out, runs().count() as u64);
        let (mut prev_c, mut prev_t) = (0u32, 0u64);
        for run in runs() {
            let (c, first) = run[0];
            i64::put(out, &(i64::from(c) - i64::from(prev_c)));
            put_varint(out, run.len() as u64);
            i64::put(out, &(first.wrapping_sub(prev_t) as i64));
            put_gaps(out, run.iter().map(|m| m.1));
            (prev_c, prev_t) = (c, first);
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Vec<(u32, u64)>, ClusterError> {
        let runs = r.count()?;
        let mut marks: Vec<(u32, u64)> = Vec::new();
        let (mut prev_c, mut prev_t) = (0u32, 0u64);
        for _ in 0..runs {
            let c = i64::from(prev_c)
                .checked_add(i64::get(r)?)
                .and_then(|c| u32::try_from(c).ok())
                .ok_or_else(|| malformed("CFD id out of range"))?;
            // Every tid of the run is at least one byte.
            let len = r.count()?;
            if len == 0 {
                return Err(malformed("an empty run of marks"));
            }
            let first = prev_t.wrapping_add(i64::get(r)? as u64);
            if marks.last().is_some_and(|&(pc, pt)| pc == c && pt < first) {
                return Err(malformed("a run of marks continues the one before"));
            }
            marks.reserve(len);
            marks.push((c, first));
            let mut t = first;
            for _ in 1..len {
                t = get_gap(r, t)?;
                marks.push((c, t));
            }
            (prev_c, prev_t) = (c, first);
        }
        Ok(marks)
    }
}

/// A whole `M` frame as the rest of this one.
pub struct Nested<M>(std::marker::PhantomData<M>);

impl<M: FrameCodec> Field for Nested<M> {
    type Value = M;

    fn put(out: &mut Vec<u8>, m: &M) {
        m.encode_frame(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<M, ClusterError> {
        M::decode_frame(r.take(r.remaining())?)
    }
}

/// Declare a wire type once: the type and both halves of its codec.
///
/// A field `name: Type` is written in the form `Type`, `name: Type as F`
/// in the form `F`, whose [`Field::Value`] is `Type`. `wire! { struct S
/// { … } }` defines `S` as its own [`Field`], its fields in order. `wire!
/// { enum E { TAG = 0x81 => V(a: A), … } }` defines `E`, a `u8` constant
/// per tag, and [`FrameCodec`](crate::net::FrameCodec) for `E`: the tag,
/// then the variant's fields; a variant is a tuple, a struct or a unit.
/// Variants after a `;` take a range of first bytes, `0x00..=0x7f =>
/// W(M)`: the frame is a whole `M` frame, tag and all. The decoder
/// refuses an unknown tag and trailing bytes.
#[macro_export]
macro_rules! wire {
    (@form $T:ty as $F:ty) => { $F };
    (@form $T:ty) => { $T };
    (
        $(#[$m:meta])*
        $vis:vis struct $S:ident {
            $($(#[$fm:meta])* $fvis:vis $f:ident: $T:ty $(as $F:ty)?),* $(,)?
        }
    ) => {
        $(#[$m])*
        $vis struct $S {
            $($(#[$fm])* $fvis $f: $T,)*
        }

        impl $crate::net::bytes::Field for $S {
            type Value = $S;

            fn put(out: &mut Vec<u8>, v: &$S) {
                $(<$crate::wire!(@form $T $(as $F)?) as $crate::net::bytes::Field>::put(out, &v.$f);)*
            }

            fn get(r: &mut $crate::net::bytes::Reader<'_>) -> Result<$S, $crate::ClusterError> {
                Ok($S {
                    $($f: <$crate::wire!(@form $T $(as $F)?) as $crate::net::bytes::Field>::get(r)?,)*
                })
            }
        }
    };
    (
        $(#[$m:meta])*
        $vis:vis enum $E:ident {
            $(
                $(#[$vm:meta])*
                $tag:ident = $byte:literal => $v:ident
                $(($($tf:ident: $TT:ty $(as $TF:ty)?),*))?
                $({$($(#[$sm:meta])* $sf:ident: $ST:ty $(as $SF:ty)?),* $(,)?})?,
            )*
            $(; $($(#[$nm:meta])* $lo:literal..=$hi:literal => $nv:ident($N:ty),)*)?
        }
    ) => {
        $(#[$m])*
        $vis enum $E {
            $(
                $(#[$vm])*
                $v $(($($TT),*))? $({$($(#[$sm])* $sf: $ST),*})?,
            )*
            $($($(#[$nm])* $nv($N),)*)?
        }

        $(const $tag: u8 = $byte;)*

        impl $crate::net::FrameCodec for $E {
            fn encode_frame(&self, out: &mut Vec<u8>) {
                match self {
                    $($E::$v $(($($tf),*))? $({$($sf),*})? => {
                        out.push($tag);
                        $($(<$crate::wire!(@form $TT $(as $TF)?) as $crate::net::bytes::Field>::put(out, $tf);)*)?
                        $($(<$crate::wire!(@form $ST $(as $SF)?) as $crate::net::bytes::Field>::put(out, $sf);)*)?
                    })*
                    $($($E::$nv(m) => m.encode_frame(out),)*)?
                }
            }

            fn decode_frame(body: &[u8]) -> Result<Self, $crate::ClusterError> {
                let mut r = $crate::net::bytes::Reader::new(body);
                #[allow(unreachable_patterns)]
                let msg = match r.u8()? {
                    $($tag => $E::$v
                        $(($(<$crate::wire!(@form $TT $(as $TF)?) as $crate::net::bytes::Field>::get(&mut r)?),*))?
                        $({$($sf: <$crate::wire!(@form $ST $(as $SF)?) as $crate::net::bytes::Field>::get(&mut r)?),*})?,
                    )*
                    $($($lo..=$hi => return <$N as $crate::net::FrameCodec>::decode_frame(body).map($E::$nv),)*)?
                    t => {
                        let what = format!("unknown {} tag {t:#04x}", stringify!($E));
                        return Err($crate::net::bytes::malformed(&what));
                    }
                };
                r.finish()?;
                Ok(msg)
            }
        }
    };
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
            Value::put(&mut buf, &v);
            assert_eq!(buf.len(), cell_len(&v));
            let mut r = Reader::new(&buf);
            assert_eq!(Value::get(&mut r).unwrap(), v);
            r.finish().unwrap();
        }
        // Short strings and small ints cost one byte of header.
        let mut buf = Vec::new();
        Value::put(&mut buf, &Value::str("EDI"));
        assert_eq!(buf.len(), 4);
        assert!(Value::get(&mut Reader::new(&[4, 0xff, 0xfe])).is_err());
        assert!(Value::get(&mut Reader::new(&[9, b'a'])).is_err());
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
        refused(&buf, "a varint past u32");
        // Invalid UTF-8, and an overlong header.
        refused(&[0, 4, 0xff, 0xfe], "non-UTF-8");
        refused(&[0x80, 0x00, 0], "overlong varint");
        // Trailing bytes are the frame's to refuse.
        let mut r = Reader::new(&[0, 0, 0]);
        get_wire_value(&mut r).unwrap();
        assert!(r.finish().is_err());
    }

    /// Encode `v` in form `F`.
    fn put<F: Field>(v: &F::Value) -> Vec<u8> {
        let mut buf = Vec::new();
        F::put(&mut buf, v);
        buf
    }

    /// Decode `bytes` whole in form `F`.
    fn get<F: Field>(bytes: &[u8]) -> Result<F::Value, ClusterError> {
        let mut r = Reader::new(bytes);
        let v = F::get(&mut r)?;
        r.finish()?;
        Ok(v)
    }

    /// Each form reads back what it writes, at the bytes the module table
    /// gives.
    #[test]
    fn forms_round_trip_at_their_table_bytes() {
        assert_eq!(put::<Gaps>(&vec![5, 6, 300]), [3, 5, 1, 0xa6, 0x02]);
        assert_eq!(put::<Gaps>(&vec![]), [0]);
        // CFD 0 at tids 5, 6 and 10, then CFD 2 at tid 1: two runs.
        let marks = vec![(0, 5), (0, 6), (0, 10), (2, 1)];
        assert_eq!(put::<Runs>(&marks), [2, 0, 3, 10, 1, 4, 4, 1, 7]);
        // A tid that does not ascend starts a run of the same CFD.
        assert_eq!(put::<Runs>(&vec![(0, 6), (0, 5)]), [2, 0, 1, 12, 0, 1, 1]);
        assert_eq!(put::<AtLeast<2>>(&300), [0xac, 0x02]);
        assert_eq!(put::<i64>(&-3), [5]);
        assert_eq!(put::<Le32>(&0xC0FFEE), [0xee, 0xff, 0xc0, 0]);
        assert_eq!(put::<String>(&"ü".into()), [2, 0xc3, 0xbc]);
        let list = vec![(7, Value::Null), (300, Value::int(-1))];
        assert_eq!(put::<Vec<(u32, Value)>>(&list), [2, 7, 0, 0xac, 0x02, 1, 1]);
        assert_eq!(put::<Box<u32>>(&Box::new(9)), [9]);
        for tids in [vec![], vec![0], vec![u64::MAX], vec![1, 2, u64::MAX]] {
            assert_eq!(get::<Gaps>(&put::<Gaps>(&tids)).unwrap(), tids);
        }
        let marks = vec![(0, u64::MAX), (u32::MAX, 0), (u32::MAX, 7), (0, 0), (0, 0)];
        assert_eq!(get::<Runs>(&put::<Runs>(&marks)).unwrap(), marks);
        assert_eq!(
            get::<Vec<(u32, Value)>>(&put::<Vec<(u32, Value)>>(&list)).unwrap(),
            list
        );
    }

    /// Each form refuses the byte strings its `put` never writes.
    #[test]
    fn forms_refuse_what_their_put_never_writes() {
        fn refused<T: std::fmt::Debug>(got: Result<T, ClusterError>, why: &str) {
            match got {
                Err(ClusterError::Transport(e)) => assert!(e.contains(why), "{why}: {e}"),
                other => panic!("{why}: {other:?}"),
            }
        }
        refused(
            get::<u32>(&[0x80, 0x80, 0x80, 0x80, 0x10]),
            "a varint past u32",
        );
        refused(get::<usize>(&[0x80, 0x00]), "overlong varint");
        refused(get::<AtLeast<2>>(&[1]), "1 below its least value 2");
        refused(get::<AtLeast<1>>(&[0]), "0 below its least value 1");
        assert_eq!(get::<AtLeast<1>>(&[1]).unwrap(), 1);
        refused(get::<WireValue>(&[4, 0]), "a value names an attribute");
        refused(get::<String>(&[2, 0xc3, 0x28]), "not UTF-8");
        refused(get::<String>(&[5, b'a']), "item count exceeds the frame");
        refused(get::<Vec<u64>>(&[3, 1, 2]), "item count exceeds the frame");
        refused(get::<Le32>(&[1, 2, 3]), "truncated field");
        // A repeated tid, and a gap past `u64::MAX`.
        refused(get::<Gaps>(&[2, 5, 0]), "a tid gap of zero");
        let mut wrap = vec![2, 1];
        put_varint(&mut wrap, u64::MAX);
        refused(get::<Gaps>(&wrap), "past u64");
        // An empty run; a gap of zero inside a run; a CFD past `u32`.
        refused(get::<Runs>(&[1, 0, 0, 0]), "an empty run");
        refused(get::<Runs>(&[1, 0, 2, 10, 0]), "a tid gap of zero");
        let mut far = vec![1];
        put_varint(&mut far, zigzag(1 << 32));
        refused(
            get::<Runs>(&[&far[..], &[1, 0]].concat()),
            "CFD id out of range",
        );
        refused(get::<Runs>(&[1, 1, 1, 0]), "CFD id out of range");
        // Two runs of CFD 0 where one would do: t5, then t6.
        refused(
            get::<Runs>(&[2, 0, 1, 10, 0, 1, 2]),
            "a run of marks continues the one before",
        );
        // The same two marks as the encoder writes them, and a second run
        // of CFD 0 that does not ascend: both decode.
        assert_eq!(get::<Runs>(&[1, 0, 2, 10, 1]).unwrap(), [(0, 5), (0, 6)]);
        assert_eq!(
            get::<Runs>(&[2, 0, 1, 12, 0, 1, 1]).unwrap(),
            [(0, 6), (0, 5)]
        );
    }
}
