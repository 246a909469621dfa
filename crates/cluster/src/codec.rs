//! Pluggable wire codecs for value payloads.
//!
//! The paper's central metric is shipped data `|M|` (§2.3), and §6 spends a
//! whole optimization on shrinking it: *"we use MD5 … by sending a 128-bit
//! MD5 code instead of an entire tuple."* That makes the payload encoding a
//! first-class protocol decision, not a boolean buried in one detector —
//! this module promotes it to an API every protocol (and every future
//! transport backend) plugs into:
//!
//! * [`PayloadCodec`] — encode one value for a given `(src, dst)` link,
//!   report its wire size ([`WireValue::wire_size`]), and account any
//!   per-link state the encoding needs;
//! * [`RawValues`] — ship the value verbatim (the unoptimized §6 variant);
//! * [`Md5Digest`] — the §6 optimization: ship the 128-bit code whenever
//!   the value is wider than it, the raw value otherwise;
//! * [`DictSyms`] — dictionary shipping: every value travels as a 4-byte
//!   symbol, plus a **one-time per-link dictionary delta** the first time
//!   that value crosses the link, metered exactly as
//!   [`DictMeter`] models. Repeat values cost
//!   4 bytes instead of their full size, which is what collapses `|M|` on
//!   skewed update streams.
//!
//! What a receiver needs is the *digest* of each shipped value (group keys
//! in the §6 protocol are MD5 digests over per-attribute digests), derived
//! from the received payloads alone: [`ReceiverCodec`], one per link, is
//! that half. For [`DictSyms`] it resolves bare symbols through the
//! dictionary the link's deltas taught it, so a symbol is digested once per
//! distinct value rather than once per shipment.
//!
//! The vertical protocol (§4) is untouched by codecs: it ships equivalence
//! ids, never attribute values — eqids *are* its encoding.

use crate::md5::{md5, Digest};
use crate::transport::DictMeter;
use crate::{ClusterError, SiteId};
use relation::{FxHashMap, Sym, Value, ValuePool};

/// Digest of one value (tag + payload through MD5), built in a
/// caller-supplied scratch buffer so hot loops reuse one allocation.
pub fn value_digest_into(v: &Value, scratch: &mut Vec<u8>) -> Digest {
    scratch.clear();
    v.digest_bytes(scratch);
    md5(scratch)
}

/// [`value_digest_into`] with a fresh buffer — construction-time paths.
pub fn value_digest(v: &Value) -> Digest {
    value_digest_into(v, &mut Vec::with_capacity(16))
}

/// One encoded value as it crosses a link. The variant records exactly
/// what the wire carries, so [`WireValue::wire_size`] *is* the payload's
/// `|M|` contribution.
#[derive(Debug, Clone, PartialEq)]
pub enum WireValue {
    /// The raw value, full wire size.
    Raw(Value),
    /// A 128-bit MD5 code (16 bytes).
    Md5(Digest),
    /// A 4-byte dictionary symbol; `Some` carries the one-time dictionary
    /// entry (symbol id + raw value) on the value's first crossing of the
    /// link, `None` once the destination dictionary holds it.
    Sym(Sym, Option<Value>),
}

impl WireValue {
    /// Serialized size in bytes — the quantity the §2.3 `|M|` meter sums.
    pub fn wire_size(&self) -> usize {
        match self {
            WireValue::Raw(v) => v.wire_size(),
            WireValue::Md5(_) => Digest::WIRE_SIZE,
            WireValue::Sym(_, None) => DictMeter::SYM_WIRE_SIZE,
            WireValue::Sym(_, Some(v)) => 2 * DictMeter::SYM_WIRE_SIZE + v.wire_size(),
        }
    }
}

/// Selector for the built-in codecs — what `incdetect`'s `Suite::codec`
/// and the horizontal / hybrid detector constructors take.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CodecKind {
    /// Ship raw values ([`RawValues`]).
    RawValues,
    /// Ship MD5 digests when smaller ([`Md5Digest`]) — the §6 default.
    #[default]
    Md5,
    /// Ship dictionary symbols with per-link deltas ([`DictSyms`]).
    Dict,
    /// Ship raw values and compress **each message's frame** with the
    /// in-tree LZ77 compressor ([`LzBlock`] + [`crate::lz`]). The win
    /// happens at the byte-transport layer, so on the simulated
    /// [`crate::Network`] this meters exactly like [`RawValues`]; on a
    /// [`crate::net::ByteNetwork`] the measured on-wire bytes reflect
    /// the per-frame compression.
    Lz,
}

impl CodecKind {
    /// Stable name used in reports and labels.
    pub fn name(self) -> &'static str {
        match self {
            CodecKind::RawValues => "raw_values",
            CodecKind::Md5 => "md5",
            CodecKind::Dict => "dict",
            CodecKind::Lz => "lz",
        }
    }

    /// A fresh codec instance of this kind.
    pub fn codec(self) -> Box<dyn PayloadCodec> {
        match self {
            CodecKind::RawValues => Box::new(RawValues),
            CodecKind::Md5 => Box::new(Md5Digest::default()),
            CodecKind::Dict => Box::new(DictSyms::new()),
            CodecKind::Lz => Box::new(LzBlock),
        }
    }

    /// The frame-level compression this codec asks of a byte transport
    /// ([`crate::net::ByteNetwork::with_compression`]).
    pub fn compression(self) -> crate::net::Compression {
        match self {
            CodecKind::Lz => crate::net::Compression::Lz,
            _ => crate::net::Compression::None,
        }
    }
}

/// A pluggable payload encoding for cross-site value shipment.
///
/// One codec instance serves one sending site's session: [`encode`] is
/// called for every value that crosses a `(src, dst)` link and may update
/// per-link state (dictionary residency). The receiving side's view — the
/// shipped payload turned back into the 128-bit fingerprint the §6
/// group-key derivation runs on — is [`ReceiverCodec`]'s, from the
/// payloads alone.
///
/// [`encode`]: PayloadCodec::encode
///
/// # Worked example
///
/// A skewed stream re-ships the same wide value; the three codecs price it
/// differently ([`RawValues`] pays full freight every time, [`Md5Digest`]
/// caps it at 16 bytes, [`DictSyms`] pays the dictionary entry once and 4
/// bytes per repeat) while the receiver-side digest — what detection
/// actually consumes — is identical for all of them:
///
/// ```
/// use cluster::codec::{value_digest, CodecKind, PayloadCodec, ReceiverCodec};
/// use relation::Value;
///
/// let street = Value::str("Glenna Goodacre Boulevard"); // 29 B raw
/// let mut raw = CodecKind::RawValues.codec();
/// let mut md5 = CodecKind::Md5.codec();
/// let mut dict = CodecKind::Dict.codec();
///
/// // First crossing of link 0 → 1.
/// assert_eq!(raw.encode(0, 1, &street).wire_size(), 29);
/// assert_eq!(md5.encode(0, 1, &street).wire_size(), 16);
/// let first = dict.encode(0, 1, &street);
/// assert_eq!(first.wire_size(), 4 + 4 + 29); // symbol + one-time entry
///
/// // Every repeat on the same link: dict ships the bare 4-byte symbol.
/// let repeat = dict.encode(0, 1, &street);
/// assert_eq!(repeat.wire_size(), 4);
///
/// // A different link pays its own entry (dictionaries are per link)…
/// assert_eq!(dict.encode(0, 2, &street).wire_size(), 4 + 4 + 29);
///
/// // …and every codec's payloads resolve to the same group-key digest
/// // at the receiver (the dict link taught by the first crossing).
/// let d = value_digest(&street);
/// let mut rx = ReceiverCodec::for_link(0, 1);
/// assert_eq!(rx.digest(&raw.encode(0, 1, &street)).unwrap(), d);
/// assert_eq!(rx.digest(&md5.encode(0, 1, &street)).unwrap(), d);
/// assert_eq!(rx.digest(&first).unwrap(), d);
/// assert_eq!(rx.digest(&repeat).unwrap(), d);
/// ```
pub trait PayloadCodec: std::fmt::Debug + Send {
    /// Which built-in kind this codec is (drives labels and builder plumbing).
    fn kind(&self) -> CodecKind;

    /// Stable name for reports and tier labels.
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Encode `value` for shipment from `src` to `dst`, updating any
    /// per-link codec state. The returned payload knows its own wire size.
    fn encode(&mut self, src: SiteId, dst: SiteId, value: &Value) -> WireValue;

    /// Does the encoding depend on the `(src, dst)` link? Stateless
    /// codecs (`false`, the default) produce identical payloads for every
    /// peer, so senders may encode once and clone per link instead of
    /// re-encoding — the §6 broadcast paths rely on this to avoid
    /// re-digesting per peer.
    fn per_link(&self) -> bool {
        false
    }
}

/// Ship values verbatim — the unoptimized §6 variant.
#[derive(Debug, Default)]
pub struct RawValues;

impl PayloadCodec for RawValues {
    fn kind(&self) -> CodecKind {
        CodecKind::RawValues
    }

    fn encode(&mut self, _src: SiteId, _dst: SiteId, value: &Value) -> WireValue {
        WireValue::Raw(value.clone())
    }
}

/// The §6 MD5 optimization: ship the 128-bit code whenever the value is
/// wider than it ("to reduce the shipping cost" of large tuples — digesting
/// a 4-byte integer would *grow* it), the raw value otherwise.
#[derive(Debug, Default)]
pub struct Md5Digest {
    scratch: Vec<u8>,
}

impl PayloadCodec for Md5Digest {
    fn kind(&self) -> CodecKind {
        CodecKind::Md5
    }

    fn encode(&mut self, _src: SiteId, _dst: SiteId, value: &Value) -> WireValue {
        if value.wire_size() > Digest::WIRE_SIZE {
            WireValue::Md5(value_digest_into(value, &mut self.scratch))
        } else {
            WireValue::Raw(value.clone())
        }
    }
}

/// Dictionary shipping: symbols on the wire, one-time per-link deltas.
///
/// The codec owns the wire dictionary (an append-only [`ValuePool`]
/// assigning each distinct shipped value one symbol) and a [`DictMeter`]
/// tracking which symbols are resident at which `(src, dst)` link. The
/// first time a value crosses a link, the payload carries the dictionary
/// entry (4 B id + the raw value) on top of the 4-byte symbol; afterwards
/// the bare symbol suffices. A receiver ([`ReceiverCodec`]) keeps each
/// taught symbol's digest, so it pays one MD5 per distinct value instead
/// of one per shipment; the sender computes none.
///
/// The batch coordinators' columnar shipments
/// (`incdetect::baselines::ColsMsg`) route their sizing through
/// [`DictSyms::ship_sym`], which accounts *caller-interned* symbols (the
/// shipping fragment's own pool ids) against the same meter. One instance
/// must stick to one path — the symbol namespaces differ.
/// Which of [`DictSyms`]'s two symbol namespaces an instance serves (set
/// on first use; mixing them would corrupt the shared residency meter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DictMode {
    /// The value-level [`PayloadCodec`] path (codec-owned dictionary).
    Codec,
    /// The columnar [`DictSyms::ship_sym`] path (caller-owned symbols).
    Columnar,
}

#[derive(Debug, Default)]
pub struct DictSyms {
    dict: ValuePool,
    meter: DictMeter,
    mode: Option<DictMode>,
}

impl DictSyms {
    /// Fresh codec: empty dictionary, nothing resident anywhere.
    pub fn new() -> Self {
        DictSyms::default()
    }

    /// The underlying per-link residency meter.
    pub fn meter(&self) -> &DictMeter {
        &self.meter
    }

    /// Cost-account a **caller-interned** symbol crossing `src → dst`,
    /// delegating to the inner [`DictMeter`]; returns the charged bytes
    /// (`> `[`DictMeter::SYM_WIRE_SIZE`] exactly when the link must carry
    /// the one-time dictionary entry). This is the columnar fast path for
    /// senders that already hold per-value symbols (fragment stores).
    ///
    /// # Panics
    /// Panics (debug builds) when the instance has already encoded
    /// through the [`PayloadCodec`] path — the two symbol namespaces must
    /// not share one residency meter.
    pub fn ship_sym(&mut self, src: SiteId, dst: SiteId, sym: Sym, value: &Value) -> usize {
        self.enter(DictMode::Columnar);
        self.meter.ship_sym(src, dst, sym, value)
    }

    /// Record (and in debug builds enforce) which symbol namespace this
    /// instance serves.
    fn enter(&mut self, mode: DictMode) {
        let entered = *self.mode.get_or_insert(mode);
        debug_assert!(
            entered == mode,
            "DictSyms instance mixed codec-path and columnar-path symbols"
        );
        let _ = entered;
    }
}

impl PayloadCodec for DictSyms {
    fn kind(&self) -> CodecKind {
        CodecKind::Dict
    }

    fn encode(&mut self, src: SiteId, dst: SiteId, value: &Value) -> WireValue {
        self.enter(DictMode::Codec);
        let sym = match self.dict.lookup(value) {
            Some(s) => s,
            None => self.dict.acquire(value),
        };
        let cost = self.meter.ship_sym(src, dst, sym, value);
        let delta = (cost > DictMeter::SYM_WIRE_SIZE).then(|| value.clone());
        WireValue::Sym(sym, delta)
    }

    fn per_link(&self) -> bool {
        true
    }
}

/// The `lz` codec's value-level half: values ship verbatim (like
/// [`RawValues`]) — the actual compression is applied per message frame
/// by the byte transport ([`crate::net::ByteNetwork`] with
/// [`crate::net::Compression::Lz`]), which is where whole-message
/// redundancy (repeated attribute prefixes, shared strings) lives. On
/// the simulated network this codec therefore meters exactly like
/// `raw_values`; the measured savings only exist where real bytes do.
#[derive(Debug, Default)]
pub struct LzBlock;

impl PayloadCodec for LzBlock {
    fn kind(&self) -> CodecKind {
        CodecKind::Lz
    }

    fn encode(&mut self, _src: SiteId, _dst: SiteId, value: &Value) -> WireValue {
        WireValue::Raw(value.clone())
    }
}

/// The receiver-side half of a codec session.
///
/// The [`PayloadCodec`] object lives at the *sender*: it owns the
/// per-link residency meter and decides what each payload carries. A real
/// transport's receiving host never sees that state — it must derive
/// every digest from **received payloads alone**. `ReceiverCodec` is that
/// state machine, one instance per ordered `(src → dst)` link (symbol
/// namespaces are per sender session):
///
/// * raw and MD5 payloads resolve statelessly;
/// * a dictionary delta ([`WireValue::Sym`]`(s, Some(v))`) *teaches* the
///   receiver symbol `s` (the digest is cached), after which bare
///   symbols (`Sym(s, None)`) resolve from the link dictionary.
///
/// A bare symbol the link never taught is a protocol error
/// ([`ClusterError::UntaughtSymbol`], naming the ordered link and the
/// symbol), not a panic — byte streams can be malformed.
///
/// ```
/// use cluster::codec::{value_digest, CodecKind, ReceiverCodec};
/// use relation::Value;
///
/// let street = Value::str("Glenna Goodacre Boulevard");
/// let mut tx = CodecKind::Dict.codec(); // sender half
/// let mut rx = ReceiverCodec::for_link(0, 1); // receiver half, link 0 → 1
///
/// let first = tx.encode(0, 1, &street); // carries the delta
/// let repeat = tx.encode(0, 1, &street); // bare symbol
/// assert_eq!(rx.digest(&first).unwrap(), value_digest(&street));
/// assert_eq!(rx.digest(&repeat).unwrap(), value_digest(&street));
/// ```
#[derive(Debug, Default)]
pub struct ReceiverCodec {
    /// The ordered `(src, dst)` link this state machine decodes, named
    /// in protocol-error diagnostics.
    link: (SiteId, SiteId),
    /// Link dictionary built from received deltas.
    dict: FxHashMap<Sym, Digest>,
    scratch: Vec<u8>,
}

impl ReceiverCodec {
    /// Fresh receiver state: empty link dictionary, anonymous link
    /// `0 → 0`. Prefer [`ReceiverCodec::for_link`] so protocol errors
    /// name the real link.
    pub fn new() -> Self {
        ReceiverCodec::default()
    }

    /// Fresh receiver state for the ordered link `src → dst`; an
    /// untaught bare symbol then reports exactly which per-sender
    /// session lost its delta.
    pub fn for_link(src: SiteId, dst: SiteId) -> Self {
        ReceiverCodec {
            link: (src, dst),
            ..ReceiverCodec::default()
        }
    }

    /// The ordered `(src, dst)` link this receiver decodes.
    pub fn link(&self) -> (SiteId, SiteId) {
        self.link
    }

    /// Distinct symbols this link has been taught.
    pub fn resident_symbols(&self) -> usize {
        self.dict.len()
    }

    /// Digest of a received payload, for group-key derivation.
    pub fn digest(&mut self, w: &WireValue) -> Result<Digest, ClusterError> {
        match w {
            WireValue::Raw(v) => Ok(value_digest_into(v, &mut self.scratch)),
            WireValue::Md5(d) => Ok(*d),
            WireValue::Sym(s, Some(v)) => {
                let d = value_digest_into(v, &mut self.scratch);
                self.dict.insert(*s, d);
                Ok(d)
            }
            WireValue::Sym(s, None) => {
                self.dict
                    .get(s)
                    .copied()
                    .ok_or(ClusterError::UntaughtSymbol {
                        src: self.link.0,
                        dst: self.link.1,
                        sym: *s,
                    })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What a fresh receiver on the link derives from `w`.
    fn received(w: &WireValue) -> Digest {
        ReceiverCodec::new().digest(w).unwrap()
    }

    #[test]
    fn kinds_name_and_construct() {
        for (kind, name) in [
            (CodecKind::RawValues, "raw_values"),
            (CodecKind::Md5, "md5"),
            (CodecKind::Dict, "dict"),
            (CodecKind::Lz, "lz"),
        ] {
            assert_eq!(kind.name(), name);
            let codec = kind.codec();
            assert_eq!(codec.kind(), kind);
            assert_eq!(codec.name(), name);
        }
        assert_eq!(CodecKind::default(), CodecKind::Md5, "§6 default");
    }

    #[test]
    fn raw_ships_full_size() {
        let mut c = RawValues;
        let v = Value::str("a street name longer than a digest");
        let w = c.encode(0, 1, &v);
        assert_eq!(w.wire_size(), v.wire_size());
        assert_eq!(received(&w), value_digest(&v));
    }

    #[test]
    fn md5_ships_whichever_is_smaller() {
        let mut c = Md5Digest::default();
        let wide = Value::str("a street name longer than a digest");
        let narrow = Value::int(44);
        let w = c.encode(0, 1, &wide);
        assert!(matches!(w, WireValue::Md5(_)));
        assert_eq!(w.wire_size(), Digest::WIRE_SIZE);
        let n = c.encode(0, 1, &narrow);
        assert!(matches!(n, WireValue::Raw(_)), "8 B int ships raw");
        assert_eq!(n.wire_size(), narrow.wire_size());
        assert_eq!(received(&w), value_digest(&wide));
        assert_eq!(received(&n), value_digest(&narrow));
    }

    #[test]
    fn dict_charges_entry_once_per_link() {
        let mut c = DictSyms::new();
        let v = Value::str("EH4 8LE");
        let first = c.encode(0, 1, &v);
        assert_eq!(
            first.wire_size(),
            2 * DictMeter::SYM_WIRE_SIZE + v.wire_size()
        );
        assert!(matches!(first, WireValue::Sym(_, Some(_))));
        let repeat = c.encode(0, 1, &v);
        assert_eq!(repeat.wire_size(), DictMeter::SYM_WIRE_SIZE);
        assert!(matches!(repeat, WireValue::Sym(_, None)));
        // A different link pays its own entry; the symbol is stable.
        let other = c.encode(1, 0, &v);
        assert!(matches!(other, WireValue::Sym(_, Some(_))));
        let (WireValue::Sym(a, _), WireValue::Sym(b, _)) = (&first, &other) else {
            panic!("both links carry a symbol");
        };
        assert_eq!(a, b, "one symbol per distinct value");
        // The link's receiver resolves the repeat through what the first
        // crossing taught it.
        let mut rx = ReceiverCodec::for_link(0, 1);
        assert_eq!(rx.digest(&first).unwrap(), value_digest(&v));
        assert_eq!(rx.digest(&repeat).unwrap(), value_digest(&v));
        assert_eq!(c.meter().dict_bytes(), 2 * (4 + v.wire_size() as u64));
    }

    #[test]
    fn dict_repeat_heavy_stream_beats_raw_and_md5() {
        let (mut raw, mut md5c, mut dict) = (RawValues, Md5Digest::default(), DictSyms::new());
        let v = Value::str("Glenna Goodacre Boulevard");
        let (mut r, mut m, mut d) = (0usize, 0usize, 0usize);
        for _ in 0..1000 {
            r += raw.encode(0, 1, &v).wire_size();
            m += md5c.encode(0, 1, &v).wire_size();
            d += dict.encode(0, 1, &v).wire_size();
        }
        assert!(d < m && m < r, "dict {d} < md5 {m} < raw {r}");
    }

    #[test]
    fn lz_codec_is_raw_at_the_value_level() {
        let mut c = LzBlock;
        let v = Value::str("a street name longer than a digest");
        let w = c.encode(0, 1, &v);
        assert!(matches!(w, WireValue::Raw(_)));
        assert_eq!(w.wire_size(), v.wire_size(), "models like raw_values");
        assert_eq!(received(&w), value_digest(&v));
        assert_eq!(
            CodecKind::Lz.compression(),
            crate::net::Compression::Lz,
            "the frame layer carries the actual compression"
        );
        assert_eq!(
            CodecKind::RawValues.compression(),
            crate::net::Compression::None
        );
    }

    #[test]
    fn receiver_codec_resolves_all_payload_shapes() {
        let v = Value::str("Glenna Goodacre Boulevard");
        let d = value_digest(&v);
        let mut rx = ReceiverCodec::for_link(2, 7);
        assert_eq!(rx.link(), (2, 7));
        assert_eq!(rx.digest(&WireValue::Raw(v.clone())).unwrap(), d);
        assert_eq!(rx.digest(&WireValue::Md5(d)).unwrap(), d);
        // Delta teaches the link; bare symbol then resolves.
        assert_eq!(rx.digest(&WireValue::Sym(5, Some(v.clone()))).unwrap(), d);
        assert_eq!(rx.digest(&WireValue::Sym(5, None)).unwrap(), d);
        assert_eq!(rx.resident_symbols(), 1);
        // An untaught bare symbol is a structured error naming the
        // ordered link and the symbol, not a panic.
        let e = rx.digest(&WireValue::Sym(99, None)).unwrap_err();
        assert_eq!(
            e,
            ClusterError::UntaughtSymbol {
                src: 2,
                dst: 7,
                sym: 99
            }
        );
        let msg = e.to_string();
        assert!(
            msg.contains("99") && msg.contains('2') && msg.contains('7'),
            "{msg}"
        );
    }

    #[test]
    fn sender_and_receiver_halves_agree_over_a_link() {
        // Split session: DictSyms encodes at the sender, ReceiverCodec
        // resolves at the destination from payloads alone — the digests
        // must match the sender-side view for every shipment.
        let mut tx = DictSyms::new();
        let mut rx01 = ReceiverCodec::new();
        let mut rx02 = ReceiverCodec::new();
        let values = [
            Value::str("EH4 8LE"),
            Value::int(44),
            Value::str("EH4 8LE"),
            Value::Null,
            Value::str("Mayfield Gardens"),
            Value::str("EH4 8LE"),
        ];
        for v in &values {
            let w = tx.encode(0, 1, v);
            assert_eq!(rx01.digest(&w).unwrap(), value_digest(v));
        }
        // A different link has its own receiver state and gets its own
        // deltas — the first crossing teaches it.
        let w = tx.encode(0, 2, &values[0]);
        assert!(matches!(w, WireValue::Sym(_, Some(_))));
        assert_eq!(rx02.digest(&w).unwrap(), value_digest(&values[0]));
    }

    #[test]
    fn dict_ship_sym_delegates_to_meter() {
        let mut c = DictSyms::new();
        let v = Value::str("caller-interned");
        let first = c.ship_sym(0, 1, 7, &v);
        assert_eq!(first, 2 * DictMeter::SYM_WIRE_SIZE + v.wire_size());
        assert_eq!(c.ship_sym(0, 1, 7, &v), DictMeter::SYM_WIRE_SIZE);
        assert_eq!(c.meter().total_bytes() as usize, first + 4);
    }
}
