//! The metered, synchronous message network.
//!
//! Detection algorithms exchange typed messages (eqids, digests, partial
//! tuples, probe requests/replies). [`Network`] is generic over the message
//! type; the only requirement is [`Wire`], which reports the payload size so
//! shipment can be accounted the way the paper counts `|M|`.
//!
//! The network is synchronous and deterministic: `send` enqueues into the
//! destination inbox, `drain` empties an inbox in FIFO order. This models
//! the round-structured protocols of §4/§6 faithfully while keeping tests
//! reproducible. Metering is the load-bearing part — the experiments'
//! communication columns come straight from here. It writes no bytes, so
//! its [`Meters`] block is [`Meters::modeled`]: its report has no measured
//! tier. [`MsgTransport`] is the one surface both it and the byte mesh
//! ([`crate::net::ByteNetwork`]) present to a detector, metering included.

use crate::{ClusterError, Meters, SiteId};
use relation::{FxHashMap, FxHashSet, Sym, Value};
use std::collections::VecDeque;

/// Payloads that know their wire size (and optionally how many eqids they
/// carry, for the Fig. 10 metric).
pub trait Wire {
    /// Serialized size in bytes.
    fn wire_size(&self) -> usize;

    /// Number of eqids in the payload (0 for non-eqid messages).
    fn eqid_count(&self) -> usize {
        0
    }
}

/// A synchronous, metered `n`-site message network.
#[derive(Debug)]
pub struct Network<M> {
    inboxes: Vec<VecDeque<(SiteId, M)>>,
    meters: Meters,
}

impl<M: Wire> Network<M> {
    /// A network connecting `n` sites.
    pub fn new(n: usize) -> Self {
        Network {
            inboxes: (0..n).map(|_| VecDeque::new()).collect(),
            meters: Meters::modeled(n),
        }
    }

    /// Number of sites.
    pub fn n_sites(&self) -> usize {
        self.inboxes.len()
    }

    /// Ship `msg` from `src` to `dst`. Local sends are rejected — algorithms
    /// must branch to local processing instead, so that metering stays
    /// honest. Rejection is [`ClusterError::Loopback`], which carries only
    /// the site id: this check sits on the metering hot path (every
    /// protocol send crosses it), so the error arm must not format or
    /// allocate.
    pub fn send(&mut self, src: SiteId, dst: SiteId, msg: M) -> Result<(), ClusterError> {
        if src == dst {
            return Err(ClusterError::Loopback(src));
        }
        if dst >= self.inboxes.len() {
            return Err(ClusterError::UnknownSite(dst));
        }
        let modeled = &mut self.meters.modeled;
        modeled.record(src, dst, msg.wire_size(), msg.eqid_count());
        self.inboxes[dst].push_back((src, msg));
        Ok(())
    }

    /// Drain the inbox of `site` in FIFO order.
    pub fn drain(&mut self, site: SiteId) -> Vec<(SiteId, M)> {
        self.inboxes[site].drain(..).collect()
    }

    /// Are all inboxes empty? (protocol-completion assertion)
    pub(crate) fn quiescent(&self) -> bool {
        self.inboxes.iter().all(VecDeque::is_empty)
    }

    /// Accumulated statistics: modeled `|M|` only.
    pub fn meters(&self) -> &Meters {
        &self.meters
    }

    /// Reset statistics (inboxes must be empty).
    pub fn reset_stats(&mut self) {
        debug_assert!(self.quiescent());
        self.meters.reset();
    }
}

/// One substrate a round-structured protocol can run on: the simulated
/// [`Network`] (modeled `|M|` only) or a [`crate::net::ByteNetwork`]
/// (real serialized frames over in-process channels or TCP sockets).
///
/// Detectors hold a `Box<dyn MsgTransport<M>>` and drive send/drain
/// rounds without knowing which substrate is underneath; both implement
/// identical modeled accounting, and byte backends additionally meter the
/// measured on-wire traffic, in one [`Meters`] block
/// ([`MsgTransport::meters`]) whose report says which it was.
pub trait MsgTransport<M>: std::fmt::Debug + Send {
    /// Number of sites.
    fn n_sites(&self) -> usize;

    /// Ship `msg` from `src` to `dst` (loopback and out-of-range sites
    /// rejected, as by [`Network::send`]).
    fn send(&mut self, src: SiteId, dst: SiteId, msg: M) -> Result<(), ClusterError>;

    /// Deliver every in-flight message addressed to `site`. Fallible:
    /// byte backends can hit truncated frames or disconnects.
    fn try_drain(&mut self, site: SiteId) -> Result<Vec<(SiteId, M)>, ClusterError>;

    /// The frames in flight to the lowest-numbered site that has any, from
    /// its lowest-numbered sender: `(src, dst, frames)`. `None` when every
    /// link is idle.
    fn in_flight(&self) -> Option<(SiteId, SiteId, usize)>;

    /// Everything metered since the last reset.
    fn meters(&self) -> &Meters;

    /// Reset every meter (links must be idle).
    fn reset_stats(&mut self);
}

impl<M: Wire + std::fmt::Debug + Send> MsgTransport<M> for Network<M> {
    fn n_sites(&self) -> usize {
        Network::n_sites(self)
    }

    fn send(&mut self, src: SiteId, dst: SiteId, msg: M) -> Result<(), ClusterError> {
        Network::send(self, src, dst, msg)
    }

    fn try_drain(&mut self, site: SiteId) -> Result<Vec<(SiteId, M)>, ClusterError> {
        Ok(Network::drain(self, site))
    }

    fn in_flight(&self) -> Option<(SiteId, SiteId, usize)> {
        let (dst, inbox) = (0..).zip(&self.inboxes).find(|(_, q)| !q.is_empty())?;
        let src = inbox.iter().map(|m| m.0).min()?;
        Some((src, dst, inbox.iter().filter(|m| m.0 == src).count()))
    }

    fn meters(&self) -> &Meters {
        Network::meters(self)
    }

    fn reset_stats(&mut self) {
        Network::reset_stats(self);
    }
}

/// Wire accounting for **dictionary-encoded** payloads.
///
/// When values are interned ([`relation::ValuePool`]), a shipped value can
/// travel as its fixed-size symbol — but only if the receiving site can
/// resolve it, which means the dictionary *entry* must have crossed that
/// link once. `DictMeter` charges exactly that cost model, per ordered
/// `(src, dst)` link:
///
/// * every shipment of a symbol costs [`DictMeter::SYM_WIRE_SIZE`] (4 B);
/// * the *first* time a given symbol crosses a given link it additionally
///   costs one dictionary entry: the 4-byte symbol id plus the value's
///   full [`Value::wire_size`].
///
/// This preserves the paper's `|M|` semantics: nothing is free — a value
/// that crosses a link once pays (slightly more than) its raw wire size,
/// and only *repeat* shipments over the same link are cheap. The existing
/// `md5` and `raw_values` shipping modes are deliberately untouched; this
/// meter quantifies what a dictionary-shipping protocol *would* cost.
#[derive(Debug, Default)]
pub struct DictMeter {
    /// Symbols already resident at the destination, per ordered link.
    resident: FxHashMap<(SiteId, SiteId), FxHashSet<Sym>>,
    /// Cumulative bytes attributable to one-time dictionary entries.
    dict_bytes: u64,
    /// Cumulative bytes of the symbol stream itself.
    sym_bytes: u64,
}

impl DictMeter {
    /// Serialized size of one symbol (`u32`).
    pub const SYM_WIRE_SIZE: usize = 4;

    /// Fresh meter (no symbols resident anywhere).
    pub fn new() -> Self {
        DictMeter::default()
    }

    /// Cost in bytes of shipping `sym` (resolving to `value`) from `src`
    /// to `dst`, updating residency. First crossing of a link pays the
    /// one-time dictionary entry on top of the 4-byte symbol.
    pub fn ship_sym(&mut self, src: SiteId, dst: SiteId, sym: Sym, value: &Value) -> usize {
        debug_assert!(src != dst, "local access must not be metered");
        let mut cost = Self::SYM_WIRE_SIZE;
        self.sym_bytes += Self::SYM_WIRE_SIZE as u64;
        if self.resident.entry((src, dst)).or_default().insert(sym) {
            let entry = Self::SYM_WIRE_SIZE + value.wire_size();
            self.dict_bytes += entry as u64;
            cost += entry;
        }
        cost
    }

    /// Bytes attributable to one-time dictionary entries.
    pub fn dict_bytes(&self) -> u64 {
        self.dict_bytes
    }

    /// Bytes of the 4-byte-per-value symbol stream.
    pub fn sym_bytes(&self) -> u64 {
        self.sym_bytes
    }
}

/// Blanket wire impls for common payload shapes.
impl Wire for Vec<u8> {
    fn wire_size(&self) -> usize {
        self.len()
    }
}

impl Wire for u64 {
    fn wire_size(&self) -> usize {
        8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct EqidMsg(Vec<u64>);

    impl Wire for EqidMsg {
        fn wire_size(&self) -> usize {
            8 * self.0.len()
        }
        fn eqid_count(&self) -> usize {
            self.0.len()
        }
    }

    #[test]
    fn send_meters_and_delivers_fifo() {
        let mut net: Network<EqidMsg> = Network::new(3);
        net.send(0, 2, EqidMsg(vec![1])).unwrap();
        net.send(1, 2, EqidMsg(vec![2, 3])).unwrap();
        net.send(0, 2, EqidMsg(vec![4])).unwrap();
        let got = net.drain(2);
        assert_eq!(
            got,
            vec![
                (0, EqidMsg(vec![1])),
                (1, EqidMsg(vec![2, 3])),
                (0, EqidMsg(vec![4])),
            ]
        );
        assert_eq!(net.meters().modeled.total_messages(), 3);
        assert_eq!(net.meters().modeled.total_bytes(), 8 * 4);
        assert_eq!(net.meters().modeled.total_eqids(), 4);
        assert!(net.quiescent());
        // The typed network writes no bytes: no measured tier.
        let report = net.meters().report("net");
        assert!(report.measured().is_none());
        assert_eq!(report.total_bytes(), 8 * 4);
        assert_eq!(net.meters().transport, Default::default());
    }

    #[test]
    fn local_send_is_rejected_without_allocating() {
        let mut net: Network<EqidMsg> = Network::new(2);
        // Loopback rejection carries only the site id — no formatted
        // string on the metering path.
        assert_eq!(
            net.send(1, 1, EqidMsg(vec![1])),
            Err(ClusterError::Loopback(1))
        );
        assert_eq!(
            net.send(0, 0, EqidMsg(vec![2])),
            Err(ClusterError::Loopback(0))
        );
        assert!(matches!(
            net.send(0, 9, EqidMsg(vec![1])),
            Err(ClusterError::UnknownSite(9))
        ));
        // Nothing was metered or delivered by the rejected calls.
        assert_eq!(net.meters().modeled.total_messages(), 0);
        assert!(net.quiescent());
        assert!(ClusterError::Loopback(1).to_string().contains("site 1"));
    }

    #[test]
    fn dict_meter_charges_entry_once_per_link() {
        let mut m = DictMeter::new();
        let v = Value::str("a long street name value"); // 24 + 4 B raw
                                                        // First crossing of 0→1: 4 B symbol + (4 + 28) B dictionary entry.
        assert_eq!(m.ship_sym(0, 1, 7, &v), 4 + 4 + v.wire_size());
        // Repeat on the same link: just the symbol.
        assert_eq!(m.ship_sym(0, 1, 7, &v), 4);
        // A different link pays its own entry (dictionaries are per site).
        assert_eq!(m.ship_sym(0, 2, 7, &v), 4 + 4 + v.wire_size());
        // Direction matters: 1→0 is a separate link from 0→1.
        assert_eq!(m.ship_sym(1, 0, 7, &v), 4 + 4 + v.wire_size());
        assert_eq!(m.sym_bytes(), 16);
        assert_eq!(m.dict_bytes(), 3 * (4 + v.wire_size() as u64));
    }

    #[test]
    fn dict_meter_repeat_heavy_stream_beats_raw_shipping() {
        // The model's point: a skewed stream of wide values approaches
        // 4 B/value on the wire, where raw shipping pays full size each
        // time. (The md5/raw modes of the horizontal detector keep their
        // own |M| accounting — this meter is a what-if model.)
        let mut m = DictMeter::new();
        let v = Value::str("Glenna Goodacre Boulevard");
        let raw: u64 = (0..1000).map(|_| v.wire_size() as u64).sum();
        let mut dict = 0u64;
        for _ in 0..1000 {
            dict += m.ship_sym(0, 1, 1, &v) as u64;
        }
        assert!(dict < raw / 5, "dict {dict} vs raw {raw}");
    }
}
