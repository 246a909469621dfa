//! The real byte-level transport.
//!
//! The rest of the workspace *models* data shipment: the synchronous
//! [`crate::Network`] meters each payload's declared
//! [`crate::Wire::wire_size`] and calls it `|M|` (§2.3). This module
//! ships **actual bytes**: typed messages serialize to length-prefixed
//! frames ([`frame`]), frames cross either a deterministic in-process
//! channel or real `TcpListener`/`TcpStream` sockets ([`tcp`]), and the
//! receiving site reconstructs the message from nothing but the received
//! bytes. [`ByteNetwork`] meters both quantities side by side — the
//! modeled `|M|` (identical accounting to [`crate::Network`]) and the
//! measured on-wire bytes — so the tests can hold the model to the wire.
//!
//! # Accounting identity
//!
//! For every frame the network maintains, constructively (each counter
//! incremented at its own source, never derived by subtraction):
//!
//! ```text
//! wire_bytes == modeled |M| + structural_bytes − saved_bytes
//! ```
//!
//! where `structural_bytes` is the framing the model ignores (the
//! 4-byte length prefix + 1-byte method marker per frame, plus the
//! per-message tags and item counts itemized in [`bytes`]), and
//! `saved_bytes` is what per-frame LZ compression ([`crate::lz`],
//! enabled by [`Compression::Lz`]) recovered. The differential test
//! suite asserts this identity over whole protocol runs.

pub mod bytes;
pub mod frame;
pub mod tcp;

use crate::{lz, ClusterError, MsgTransport, NetStats, SiteId, Wire};
use frame::{FRAME_HEADER_BYTES, FRAME_METHOD_BYTES, MAX_FRAME_BYTES, METHOD_LZ, METHOD_STORED};
use std::collections::VecDeque;
use std::time::Duration;

pub use frame::{in_mem_pair, InMemLink};
pub use tcp::{join_mesh, Inbound, NodeEndpoint, ReaderGuard, TcpLink};

/// One end of one framed byte link. `send_frame` writes a complete
/// `[len][method][body]` frame; `recv_frame` blocks for (or, on the
/// in-process channel, requires) the next one. All failures are
/// [`ClusterError::Transport`] — implementations never panic on
/// malformed or truncated input.
pub trait ByteTransport: Send + std::fmt::Debug {
    /// Write one frame (`method` says how `body` is packed — see
    /// [`frame::METHOD_STORED`] / [`frame::METHOD_LZ`]).
    fn send_frame(&mut self, method: u8, body: &[u8]) -> Result<(), ClusterError>;

    /// Read the next frame.
    fn recv_frame(&mut self) -> Result<(u8, Vec<u8>), ClusterError>;
}

impl ByteTransport for InMemLink {
    fn send_frame(&mut self, method: u8, body: &[u8]) -> Result<(), ClusterError> {
        frame::write_frame(self, method, body)
    }

    fn recv_frame(&mut self) -> Result<(u8, Vec<u8>), ClusterError> {
        frame::read_frame(self)
    }
}

/// Messages that can cross a byte link: they know their modeled size
/// ([`Wire`]) *and* how to serialize/deserialize themselves.
pub trait FrameCodec: Wire + Sized + Send + std::fmt::Debug {
    /// Append the serialized message to `out`, returning the
    /// **structural overhead**: bytes written beyond
    /// [`Wire::wire_size`] (tags, counts — see [`bytes`]). Encoders
    /// must uphold `out-growth == wire_size() + overhead`;
    /// [`ByteNetwork::send`] debug-asserts it.
    fn encode_frame(&self, out: &mut Vec<u8>) -> usize;

    /// Rebuild a message from one decoded frame body.
    fn decode_frame(body: &[u8]) -> Result<Self, ClusterError>;
}

/// Per-frame body packing applied by a [`ByteNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Compression {
    /// Bodies ship verbatim.
    #[default]
    None,
    /// Each body is [`lz`]-compressed when that is smaller ("per-message
    /// LZ"); the method byte records the choice per frame.
    Lz,
}

/// Which substrate a detection session's protocol traffic rides on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// The synchronous, metered in-process [`crate::Network`] — modeled
    /// `|M|` only (the pre-transport default).
    #[default]
    Simulated,
    /// [`ByteNetwork`] over deterministic in-process framed channels:
    /// real serialized bytes, reproducible counts — the CI substrate.
    Framed,
    /// [`ByteNetwork`] over localhost TCP sockets, each site's receive
    /// side on its own threads.
    Tcp,
}

impl TransportKind {
    /// Stable label for reports (`"simulated"` / `"framed"` / `"tcp"`).
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::Simulated => "simulated",
            TransportKind::Framed => "framed",
            TransportKind::Tcp => "tcp",
        }
    }
}

/// Whole-run transport counters, each maintained constructively at its
/// own increment site (see the module docs for the identity they obey).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportMeter {
    /// Frames shipped.
    pub frames: u64,
    /// Actual bytes on the wire, including the per-frame header.
    pub wire_bytes: u64,
    /// Modeled `|M|` bytes ([`Wire::wire_size`] sums).
    pub modeled_bytes: u64,
    /// Structural bytes the model ignores: frame headers + method bytes
    /// + message tags + item counts.
    pub structural_bytes: u64,
    /// Bytes recovered by per-frame compression.
    pub saved_bytes: u64,
}

impl TransportMeter {
    /// Meter one frame whose message serialized to `modeled` `|M|` bytes
    /// plus `structural` bytes the model ignores, and whose body —
    /// packed or stored — put `body` bytes behind the frame header.
    pub fn record_frame(&mut self, modeled: usize, structural: usize, body: usize) {
        let framing = FRAME_HEADER_BYTES + FRAME_METHOD_BYTES;
        self.frames += 1;
        self.wire_bytes += (framing + body) as u64;
        self.modeled_bytes += modeled as u64;
        self.structural_bytes += (structural + framing) as u64;
        self.saved_bytes += (modeled + structural - body) as u64;
    }

    /// Add another meter's counters to this one.
    pub fn merge(&mut self, other: &TransportMeter) {
        self.frames += other.frames;
        self.wire_bytes += other.wire_bytes;
        self.modeled_bytes += other.modeled_bytes;
        self.structural_bytes += other.structural_bytes;
        self.saved_bytes += other.saved_bytes;
    }
}

/// Undo the packing a frame's method byte names: the serialized message
/// the sender framed.
pub fn unpack_body(method: u8, body: Vec<u8>) -> Result<Vec<u8>, ClusterError> {
    match method {
        METHOD_STORED => Ok(body),
        METHOD_LZ => lz::decompress(&body, MAX_FRAME_BYTES)
            .map_err(|e| ClusterError::Transport(e.to_string())),
        other => Err(ClusterError::Transport(format!(
            "unknown frame method {other}"
        ))),
    }
}

/// Unpack one received frame body per its method byte and decode the
/// message — the receive half of the [`ByteNetwork::send`] recipe,
/// shared with the per-site runtime (`cluster::run`).
pub fn decode_body<M: FrameCodec>(method: u8, body: Vec<u8>) -> Result<M, ClusterError> {
    M::decode_frame(&unpack_body(method, body)?)
}

/// How the receive side of a [`ByteNetwork`] is wired.
#[derive(Debug)]
enum RxSide {
    /// Receive halves held directly, read deterministically in site
    /// order (the in-process mesh).
    Direct(Vec<Vec<Option<Box<dyn ByteTransport>>>>),
    /// Per-site inbox channels fed by reader threads (the TCP mesh),
    /// plus the guards that shut the readers down and join them when
    /// the network is dropped.
    Inboxes {
        inboxes: Vec<std::sync::mpsc::Receiver<tcp::Inbound>>,
        _guards: Vec<tcp::ReaderGuard>,
    },
}

/// A byte-shipping drop-in for [`crate::Network`]: same send/drain
/// discipline and identical modeled `|M|` accounting, but every message
/// is serialized, framed, optionally compressed, pushed through a real
/// byte link, and decoded on the receiving side from the received bytes
/// alone.
///
/// Determinism: the network tracks how many frames are in flight per
/// ordered link, so `try_drain` reads exactly the frames it knows exist
/// (in sender-site order) — no polling, no timeouts on the in-process
/// mesh, and reproducible byte counts for the benchmark gate.
#[derive(Debug)]
pub struct ByteNetwork<M> {
    n: usize,
    tx: Vec<Vec<Option<Box<dyn ByteTransport>>>>,
    rx: RxSide,
    /// Frames in flight per `(src, dst)`.
    pending: Vec<Vec<usize>>,
    /// Modeled `|M|` — identical accounting to [`crate::Network`].
    stats: NetStats,
    /// Measured on-wire traffic (bytes include the frame header).
    wire: NetStats,
    meter: TransportMeter,
    compression: Compression,
    scratch: Vec<u8>,
    _msg: std::marker::PhantomData<fn() -> M>,
}

impl<M: FrameCodec> ByteNetwork<M> {
    /// An `n`-site network over deterministic in-process framed channels.
    pub fn in_memory(n: usize) -> Self {
        let mut tx: Vec<Vec<Option<Box<dyn ByteTransport>>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        let mut rx: Vec<Vec<Option<Box<dyn ByteTransport>>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        for src in 0..n {
            for dst in 0..n {
                if src == dst {
                    continue;
                }
                let (a, b) = in_mem_pair();
                tx[src][dst] = Some(Box::new(a));
                rx[src][dst] = Some(Box::new(b));
            }
        }
        ByteNetwork::with_parts(n, tx, RxSide::Direct(rx))
    }

    /// An `n`-site network over localhost TCP sockets (one connection per
    /// ordered pair; each site's inbound links serviced by dedicated
    /// reader threads).
    pub fn tcp_localhost(n: usize) -> Result<Self, ClusterError> {
        let mesh = tcp::TcpMesh::localhost(n)?;
        let tx = mesh
            .tx
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .map(|l| l.map(|l| Box::new(l) as Box<dyn ByteTransport>))
                    .collect()
            })
            .collect();
        Ok(ByteNetwork::with_parts(
            n,
            tx,
            RxSide::Inboxes {
                inboxes: mesh.rx,
                _guards: mesh.guards,
            },
        ))
    }

    fn with_parts(n: usize, tx: Vec<Vec<Option<Box<dyn ByteTransport>>>>, rx: RxSide) -> Self {
        ByteNetwork {
            n,
            tx,
            rx,
            pending: vec![vec![0; n]; n],
            stats: NetStats::new(n),
            wire: NetStats::new(n),
            meter: TransportMeter::default(),
            compression: Compression::default(),
            scratch: Vec::new(),
            _msg: std::marker::PhantomData,
        }
    }

    /// Select the per-frame body packing.
    pub fn with_compression(mut self, compression: Compression) -> Self {
        self.compression = compression;
        self
    }

    /// Number of sites.
    pub fn n_sites(&self) -> usize {
        self.n
    }

    /// Modeled `|M|` statistics (same accounting as [`crate::Network`]).
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Measured on-wire statistics: per-link frame counts and actual
    /// bytes including framing.
    pub fn wire_stats(&self) -> &NetStats {
        &self.wire
    }

    /// Whole-run transport counters.
    pub fn meter(&self) -> TransportMeter {
        self.meter
    }

    /// Ship `msg` from `src` to `dst` as a real frame.
    pub fn send(&mut self, src: SiteId, dst: SiteId, msg: M) -> Result<(), ClusterError> {
        if src == dst {
            return Err(ClusterError::Loopback(src));
        }
        if src >= self.n || dst >= self.n {
            return Err(ClusterError::UnknownSite(dst.max(src)));
        }
        self.scratch.clear();
        let structural = msg.encode_frame(&mut self.scratch);
        debug_assert_eq!(
            self.scratch.len(),
            msg.wire_size() + structural,
            "encoder broke the overhead identity"
        );
        // The frame bound applies to the *serialized* message, not to
        // whatever compression makes of it: receivers cap decompressed
        // output at MAX_FRAME_BYTES, so a message accepted here must be
        // decodable there regardless of how well it packed.
        if self.scratch.len() + FRAME_METHOD_BYTES > MAX_FRAME_BYTES {
            return Err(ClusterError::Transport(format!(
                "refusing to send an oversized message ({} > {MAX_FRAME_BYTES} bytes serialized)",
                self.scratch.len() + FRAME_METHOD_BYTES
            )));
        }
        let packed;
        let (method, body): (u8, &[u8]) = match self.compression {
            Compression::None => (METHOD_STORED, &self.scratch),
            Compression::Lz => {
                packed = lz::compress(&self.scratch);
                if packed.len() < self.scratch.len() {
                    (METHOD_LZ, &packed)
                } else {
                    (METHOD_STORED, &self.scratch)
                }
            }
        };
        let link = self.tx[src][dst]
            .as_mut()
            .expect("off-diagonal links always exist");
        link.send_frame(method, body)?;
        let wire_len = FRAME_HEADER_BYTES + FRAME_METHOD_BYTES + body.len();
        self.stats
            .record(src, dst, msg.wire_size(), msg.eqid_count());
        self.wire.record(src, dst, wire_len, 0);
        self.meter
            .record_frame(msg.wire_size(), structural, body.len());
        self.pending[src][dst] += 1;
        Ok(())
    }

    fn decode(method: u8, body: Vec<u8>) -> Result<M, ClusterError> {
        decode_body(method, body)
    }

    /// Receive and decode every in-flight frame addressed to `site`,
    /// grouped in sender-site order (FIFO within each sender).
    pub fn try_drain(&mut self, site: SiteId) -> Result<Vec<(SiteId, M)>, ClusterError> {
        if site >= self.n {
            return Err(ClusterError::UnknownSite(site));
        }
        // Pending counters are decremented exactly when a frame has been
        // consumed off its link (even if it then fails to decode), so an
        // error mid-drain leaves the bookkeeping matching what is still
        // buffered: unread frames stay pending, consumed frames don't.
        let mut out = Vec::new();
        match &mut self.rx {
            RxSide::Direct(links) => {
                for (src, row) in links.iter_mut().enumerate() {
                    let k = self.pending[src][site];
                    for _ in 0..k {
                        let link = row[site].as_mut().expect("pending frames imply a link");
                        let (method, body) = link.recv_frame()?;
                        self.pending[src][site] -= 1;
                        out.push((src, Self::decode(method, body)?));
                    }
                }
            }
            RxSide::Inboxes { inboxes, .. } => {
                let total: usize = (0..self.n).map(|src| self.pending[src][site]).sum();
                let mut per_src: Vec<VecDeque<M>> = (0..self.n).map(|_| VecDeque::new()).collect();
                for _ in 0..total {
                    let (src, res) = inboxes[site]
                        .recv_timeout(Duration::from_secs(10))
                        .map_err(|_| {
                            ClusterError::Transport(
                                "timed out waiting for an in-flight frame (reader thread gone?)"
                                    .into(),
                            )
                        })?;
                    let (method, body) = res?;
                    self.pending[src][site] =
                        self.pending[src][site].checked_sub(1).ok_or_else(|| {
                            ClusterError::Transport(format!(
                                "unexpected frame from site {src} (nothing in flight)"
                            ))
                        })?;
                    per_src[src].push_back(Self::decode(method, body)?);
                }
                for (src, msgs) in per_src.iter_mut().enumerate() {
                    out.extend(msgs.drain(..).map(|m| (src, m)));
                }
            }
        }
        Ok(out)
    }

    /// Are all links idle? (protocol-completion assertion)
    pub fn quiescent(&self) -> bool {
        self.pending.iter().all(|row| row.iter().all(|&p| p == 0))
    }

    /// Reset every meter (links must be idle).
    pub fn reset_stats(&mut self) {
        debug_assert!(self.quiescent());
        self.stats.reset();
        self.wire.reset();
        self.meter = TransportMeter::default();
    }
}

impl<M: FrameCodec> MsgTransport<M> for ByteNetwork<M> {
    fn n_sites(&self) -> usize {
        ByteNetwork::n_sites(self)
    }

    fn send(&mut self, src: SiteId, dst: SiteId, msg: M) -> Result<(), ClusterError> {
        ByteNetwork::send(self, src, dst, msg)
    }

    fn try_drain(&mut self, site: SiteId) -> Result<Vec<(SiteId, M)>, ClusterError> {
        ByteNetwork::try_drain(self, site)
    }

    fn in_flight(&self) -> Option<(SiteId, SiteId, usize)> {
        let links = (0..self.n).flat_map(|dst| (0..self.n).map(move |src| (src, dst)));
        let mut busy = links.map(|(src, dst)| (src, dst, self.pending[src][dst]));
        busy.find(|&(.., k)| k > 0)
    }

    fn stats(&self) -> &NetStats {
        ByteNetwork::stats(self)
    }

    fn wire_stats(&self) -> Option<&NetStats> {
        Some(ByteNetwork::wire_stats(self))
    }

    fn transport_meter(&self) -> Option<TransportMeter> {
        Some(self.meter())
    }

    fn reset_stats(&mut self) {
        ByteNetwork::reset_stats(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy message: a run of `u64`s (modeled at 8 B each, like eqids).
    #[derive(Debug, Clone, PartialEq)]
    struct Nums(Vec<u64>);

    impl Wire for Nums {
        fn wire_size(&self) -> usize {
            8 * self.0.len()
        }
        fn eqid_count(&self) -> usize {
            self.0.len()
        }
    }

    impl FrameCodec for Nums {
        fn encode_frame(&self, out: &mut Vec<u8>) -> usize {
            out.extend_from_slice(&(self.0.len() as u32).to_le_bytes());
            for v in &self.0 {
                out.extend_from_slice(&v.to_le_bytes());
            }
            4
        }

        fn decode_frame(body: &[u8]) -> Result<Self, ClusterError> {
            let mut r = bytes::Reader::new(body);
            let n = r.u32()? as usize;
            let mut v = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                v.push(r.u64()?);
            }
            r.finish()?;
            Ok(Nums(v))
        }
    }

    #[test]
    fn in_memory_network_ships_decodes_and_meters() {
        let mut net: ByteNetwork<Nums> = ByteNetwork::in_memory(3);
        net.send(0, 2, Nums(vec![1, 2, 3])).unwrap();
        net.send(1, 2, Nums(vec![4])).unwrap();
        assert!(!net.quiescent());
        let got = net.try_drain(2).unwrap();
        assert_eq!(
            got,
            vec![(0, Nums(vec![1, 2, 3])), (1, Nums(vec![4]))],
            "sender order, FIFO per sender"
        );
        assert!(net.quiescent());
        // Modeled |M| matches the simulated network's accounting…
        assert_eq!(net.stats().total_bytes(), 8 * 4);
        assert_eq!(net.stats().total_eqids(), 4);
        // …and the constructive identity holds.
        let m = net.meter();
        assert_eq!(m.frames, 2);
        assert_eq!(m.saved_bytes, 0);
        assert_eq!(m.wire_bytes, m.modeled_bytes + m.structural_bytes);
        assert_eq!(net.wire_stats().total_bytes(), m.wire_bytes);
        // Structural = per-frame header+method (5) + the u32 count (4).
        assert_eq!(m.structural_bytes, 2 * (5 + 4));
    }

    #[test]
    fn loopback_and_unknown_sites_are_rejected() {
        let mut net: ByteNetwork<Nums> = ByteNetwork::in_memory(2);
        assert_eq!(
            net.send(1, 1, Nums(vec![1])),
            Err(ClusterError::Loopback(1))
        );
        assert!(matches!(
            net.send(0, 9, Nums(vec![1])),
            Err(ClusterError::UnknownSite(9))
        ));
        assert!(matches!(
            net.try_drain(5),
            Err(ClusterError::UnknownSite(5))
        ));
    }

    #[test]
    fn lz_compression_shrinks_repetitive_frames_and_balances() {
        let repetitive = Nums(vec![0xABCD_EF00; 400]);
        let mut plain: ByteNetwork<Nums> = ByteNetwork::in_memory(2);
        let mut lz: ByteNetwork<Nums> = ByteNetwork::in_memory(2).with_compression(Compression::Lz);
        plain.send(0, 1, repetitive.clone()).unwrap();
        lz.send(0, 1, repetitive.clone()).unwrap();
        assert_eq!(lz.try_drain(1).unwrap(), vec![(0, repetitive.clone())]);
        assert_eq!(plain.try_drain(1).unwrap(), vec![(0, repetitive)]);
        // Same model, smaller wire.
        assert_eq!(lz.stats().total_bytes(), plain.stats().total_bytes());
        let (pm, lm) = (plain.meter(), lz.meter());
        assert!(lm.saved_bytes > 0);
        assert!(lm.wire_bytes < pm.wire_bytes / 4, "{lm:?} vs {pm:?}");
        assert_eq!(
            lm.wire_bytes,
            lm.modeled_bytes + lm.structural_bytes - lm.saved_bytes
        );
    }

    #[test]
    fn incompressible_frames_fall_back_to_stored() {
        let noise = Nums(
            (0..64)
                .map(|i: u64| i.wrapping_mul(0x9E3779B97F4A7C15))
                .collect(),
        );
        let mut lz: ByteNetwork<Nums> = ByteNetwork::in_memory(2).with_compression(Compression::Lz);
        lz.send(0, 1, noise.clone()).unwrap();
        assert_eq!(lz.try_drain(1).unwrap(), vec![(0, noise)]);
        // Stored fallback: wire never exceeds modeled + structural.
        let m = lz.meter();
        assert_eq!(
            m.wire_bytes,
            m.modeled_bytes + m.structural_bytes - m.saved_bytes
        );
        assert!(m.wire_bytes <= m.modeled_bytes + m.structural_bytes);
    }

    #[test]
    fn tcp_network_round_trips_small_protocol() {
        let mut net: ByteNetwork<Nums> = ByteNetwork::tcp_localhost(3).unwrap();
        for round in 0..5u64 {
            net.send(0, 1, Nums(vec![round, round + 1])).unwrap();
            net.send(2, 1, Nums(vec![round * 10])).unwrap();
            let got = net.try_drain(1).unwrap();
            assert_eq!(
                got,
                vec![
                    (0, Nums(vec![round, round + 1])),
                    (2, Nums(vec![round * 10])),
                ]
            );
            // Replies flow back over the same mesh.
            net.send(1, 0, Nums(vec![round])).unwrap();
            assert_eq!(net.try_drain(0).unwrap(), vec![(1, Nums(vec![round]))]);
        }
        assert!(net.quiescent());
        let m = net.meter();
        assert_eq!(m.frames, 15);
        assert_eq!(m.wire_bytes, m.modeled_bytes + m.structural_bytes);
    }

    #[test]
    fn tcp_network_drop_mid_round_is_clean() {
        let mut net: ByteNetwork<Nums> = ByteNetwork::tcp_localhost(3).unwrap();
        net.send(0, 1, Nums(vec![1, 2])).unwrap();
        net.send(2, 1, Nums(vec![3])).unwrap();
        // Frames still in flight — dropping must shut down and join the
        // reader threads without panicking or hanging.
        drop(net);
        // And a fresh mesh stands up fine afterwards.
        let mut net: ByteNetwork<Nums> = ByteNetwork::tcp_localhost(2).unwrap();
        net.send(1, 0, Nums(vec![9])).unwrap();
        assert_eq!(net.try_drain(0).unwrap(), vec![(1, Nums(vec![9]))]);
    }

    /// A message whose decode rejects a sentinel payload — for testing
    /// that decode failures leave the link accounting consistent.
    #[derive(Debug, Clone, PartialEq)]
    struct Fussy(u64);

    const POISON: u64 = 0xDEAD;

    impl Wire for Fussy {
        fn wire_size(&self) -> usize {
            8
        }
    }

    impl FrameCodec for Fussy {
        fn encode_frame(&self, out: &mut Vec<u8>) -> usize {
            out.extend_from_slice(&self.0.to_le_bytes());
            0
        }

        fn decode_frame(body: &[u8]) -> Result<Self, ClusterError> {
            let mut r = bytes::Reader::new(body);
            let v = r.u64()?;
            r.finish()?;
            if v == POISON {
                return Err(ClusterError::Transport("poisoned payload".into()));
            }
            Ok(Fussy(v))
        }
    }

    #[test]
    fn drain_error_keeps_pending_frames_in_sync() {
        let mut net: ByteNetwork<Fussy> = ByteNetwork::in_memory(2);
        net.send(0, 1, Fussy(POISON)).unwrap();
        net.send(0, 1, Fussy(7)).unwrap();
        // First drain consumes the poisoned frame and errors on decode.
        assert!(net.try_drain(1).is_err());
        // The second frame is still buffered — and still accounted for:
        // the network must not claim quiescence nor lose the frame.
        assert!(!net.quiescent(), "unread frame must stay pending");
        assert_eq!(net.try_drain(1).unwrap(), vec![(0, Fussy(7))]);
        assert!(net.quiescent());
        // Subsequent traffic on the link is unaffected.
        net.send(0, 1, Fussy(8)).unwrap();
        assert_eq!(net.try_drain(1).unwrap(), vec![(0, Fussy(8))]);
    }

    #[test]
    fn oversized_serialized_messages_are_rejected_even_under_lz() {
        // The frame bound applies to the serialized size: receivers cap
        // decompressed output at MAX_FRAME_BYTES, so a message that only
        // fits *compressed* must be refused at the sender (symmetrically
        // with Compression::None) instead of dying at every receiver.
        let huge = Nums(vec![0u64; MAX_FRAME_BYTES / 8 + 1]);
        let mut lznet: ByteNetwork<Nums> =
            ByteNetwork::in_memory(2).with_compression(Compression::Lz);
        let e = lznet.send(0, 1, huge).unwrap_err();
        assert!(matches!(e, ClusterError::Transport(_)));
        assert!(e.to_string().contains("oversized"), "{e}");
        assert!(lznet.quiescent(), "nothing was shipped");
        assert_eq!(lznet.meter().frames, 0, "nothing was metered");
    }

    #[test]
    fn reset_clears_all_meters() {
        let mut net: ByteNetwork<Nums> = ByteNetwork::in_memory(2);
        net.send(0, 1, Nums(vec![7])).unwrap();
        net.try_drain(1).unwrap();
        net.reset_stats();
        assert_eq!(net.meter(), TransportMeter::default());
        assert_eq!(net.stats().total_bytes(), 0);
        assert_eq!(net.wire_stats().total_messages(), 0);
    }
}
