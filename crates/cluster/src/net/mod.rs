//! The real byte-level transport.
//!
//! The rest of the workspace *models* data shipment: the synchronous
//! [`crate::Network`] meters each payload's declared
//! [`crate::Wire::wire_size`] and calls it `|M|` (§2.3). This module
//! ships **actual bytes**: typed messages serialize to length-prefixed
//! frames ([`frame`]), frames cross either in-process frame channels or
//! real `TcpListener`/`TcpStream` sockets (`tcp`) between the nodes of
//! [`crate::run`], and the receiving site reconstructs the message from
//! nothing but the received bytes. [`ByteNetwork`] is those `n` nodes
//! driven by one thread; its one [`Meters`] block holds both quantities
//! side by side — the modeled `|M|` (identical accounting to
//! [`crate::Network`]) and the measured on-wire bytes — so the tests can
//! hold the model to the wire.
//!
//! # Accounting identity
//!
//! A frame is not the model: [`bytes`] writes ids and counts as varints
//! and values as cells, where `|M|` charges fixed widths. Each frame is
//! metered at both sizes and the difference is booked, constructively
//! (each counter incremented at its own source, never derived by
//! subtraction), so that for every meter
//!
//! ```text
//! wire_bytes == modeled |M| + structural_bytes − saved_bytes
//! ```
//!
//! `structural_bytes` is what a frame spends above the model: each
//! frame's one-varint header of body length and method, 1 byte below a
//! 64-byte body ([`frame`]), plus whatever its encoding writes beyond
//! `wire_size()` — tags and counts the model ignores, a digest's
//! one-byte header. `saved_bytes` is what it spends below: the fixed
//! widths a varint or a cell undercuts, and what [`crate::lz`] packing
//! of large control frames ([`crate::run::Node::send_ctrl`]) recovered.
//! The differential test suite asserts this identity over whole
//! protocol runs.

pub mod bytes;
pub mod frame;
pub(crate) mod tcp;

use crate::run::{self, Node};
use crate::{lz, ClusterError, Meters, MsgTransport, SiteId, Wire};
use frame::{frame_wire_len, MAX_FRAME_BYTES, METHOD_LZ, METHOD_STORED};

/// Messages that can cross a byte link: they know their modeled size
/// ([`Wire`]) *and* how to serialize/deserialize themselves. The two are
/// independent: [`Node::send`] meters `wire_size()` as `|M|` and the
/// frame's length as the wire, and books the difference.
pub trait FrameCodec: Wire + Sized + Send + std::fmt::Debug {
    /// Append the serialized message to `out`.
    fn encode_frame(&self, out: &mut Vec<u8>);

    /// Rebuild a message from one decoded frame body.
    fn decode_frame(body: &[u8]) -> Result<Self, ClusterError>;
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

crate::wire! {
    /// Whole-run transport counters, each maintained constructively at its
    /// own increment site (see the module docs for the identity they obey).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct TransportMeter {
        /// Frames shipped.
        pub frames: u64,
        /// Actual bytes on the wire, each frame's header included
        /// (`frame::frame_wire_len`).
        pub wire_bytes: u64,
        /// Modeled `|M|` bytes ([`Wire::wire_size`] sums).
        pub modeled_bytes: u64,
        /// Bytes above the model: frame headers (1–4 bytes each, the method
        /// bit inside), plus each message's encoding where it is longer than
        /// its `|M|` (every byte of a control frame).
        pub structural_bytes: u64,
        /// Bytes below the model: each message's encoding where it is
        /// shorter than its `|M|`, plus what [`lz`] packing of control frames
        /// recovered.
        pub saved_bytes: u64,
    }
}

impl TransportMeter {
    /// Meter one frame whose message is `modeled` `|M|` bytes and
    /// serialized to `encoded` bytes, and whose body — packed or stored —
    /// put `body` bytes behind the frame header.
    pub(crate) fn record_frame(&mut self, modeled: usize, encoded: usize, body: usize) {
        let wire = frame_wire_len(body);
        self.frames += 1;
        self.wire_bytes += wire as u64;
        self.modeled_bytes += modeled as u64;
        self.structural_bytes += (encoded.saturating_sub(modeled) + wire - body) as u64;
        self.saved_bytes += (modeled.saturating_sub(encoded) + encoded - body) as u64;
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

/// Undo the packing a frame's method bit names: the serialized message
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

/// Unpack one received frame body per its method bit and decode the
/// message — the receive half of the [`Node::send`] recipe.
pub(crate) fn decode_body<M: FrameCodec>(method: u8, body: Vec<u8>) -> Result<M, ClusterError> {
    M::decode_frame(&unpack_body(method, body)?)
}

/// A byte-shipping drop-in for [`crate::Network`]: the `n` nodes of a
/// [`run::mem_mesh`] or [`run::tcp_mesh`] driven by one thread, with the
/// same send/drain discipline and identical modeled `|M|` accounting.
/// Every message is serialized, framed, pushed
/// through a real byte link by its sender's [`Node`], and decoded on the
/// receiving side from the received bytes alone.
///
/// Determinism: the network tracks how many frames are in flight per
/// ordered link, so `try_drain` takes exactly the frames it knows exist
/// and hands them over in sender-site order — reproducible byte counts
/// for the benchmark gate, whichever order the frames arrived in.
#[derive(Debug)]
pub struct ByteNetwork<M> {
    nodes: Vec<Node>,
    /// Frames in flight per `(src, dst)`.
    pending: Vec<Vec<usize>>,
    /// Every node's sends and receives, metered here rather than at the
    /// node.
    meters: Meters,
    _msg: std::marker::PhantomData<fn() -> M>,
}

impl<M: FrameCodec> ByteNetwork<M> {
    /// An `n`-site network over in-process frame channels.
    pub fn in_memory(n: usize) -> Self {
        ByteNetwork::over(run::mem_mesh(n))
    }

    /// An `n`-site network over localhost TCP sockets (one connection per
    /// ordered pair; each site's inbound links serviced by dedicated
    /// reader threads).
    pub fn tcp_localhost(n: usize) -> Result<Self, ClusterError> {
        Ok(ByteNetwork::over(run::tcp_mesh(n)?))
    }

    fn over(nodes: Vec<Node>) -> Self {
        let n = nodes.len();
        ByteNetwork {
            nodes,
            pending: vec![vec![0; n]; n],
            meters: Meters::framed(n),
            _msg: std::marker::PhantomData,
        }
    }

    /// Number of sites.
    pub fn n_sites(&self) -> usize {
        self.nodes.len()
    }

    /// Every node's sends and receives: modeled `|M|` (same accounting as
    /// [`crate::Network`]) beside the measured on-wire bytes.
    pub fn meters(&self) -> &Meters {
        &self.meters
    }

    /// Whole-run transport counters.
    pub fn meter(&self) -> TransportMeter {
        self.meters.transport
    }

    /// Ship `msg` from `src` to `dst` as a real frame ([`Node::send`]).
    pub fn send(&mut self, src: SiteId, dst: SiteId, msg: M) -> Result<(), ClusterError> {
        let node = self
            .nodes
            .get_mut(src)
            .ok_or(ClusterError::UnknownSite(src))?;
        node.metered_into(&mut self.meters, |node| node.send(dst, &msg))?;
        self.pending[src][dst] += 1;
        Ok(())
    }

    /// Receive and decode every in-flight frame addressed to `site`,
    /// grouped in sender-site order (FIFO within each sender).
    pub fn try_drain(&mut self, site: SiteId) -> Result<Vec<(SiteId, M)>, ClusterError> {
        if site >= self.n_sites() {
            return Err(ClusterError::UnknownSite(site));
        }
        // The drain waits on `site`'s inbox, not the senders' own: put
        // what they queued on the wire first.
        let mut total = 0;
        for (node, row) in self.nodes.iter_mut().zip(&self.pending) {
            if row[site] > 0 {
                node.flush()?;
                total += row[site];
            }
        }
        // Pending counters are decremented exactly when a frame has been
        // taken off the inbox (even if it then fails to decode), so an
        // error mid-drain leaves the bookkeeping matching what is still
        // queued: unread frames stay pending, consumed frames don't.
        let mut out = Vec::with_capacity(total);
        let pending = &mut self.pending;
        self.nodes[site].metered_into(&mut self.meters, |node| {
            for _ in 0..total {
                let (src, method, body) = node.recv()?;
                let pending = &mut pending[src][site];
                *pending = pending.checked_sub(1).ok_or_else(|| {
                    ClusterError::Transport(format!(
                        "unexpected frame from site {src} (nothing in flight)"
                    ))
                })?;
                out.push((src, decode_body(method, body)?));
            }
            Ok::<_, ClusterError>(())
        })?;
        // Arrival interleaves the senders; a stable sort restores sender
        // order and keeps each sender's FIFO.
        out.sort_by_key(|&(src, _)| src);
        Ok(out)
    }

    /// Are all links idle? (protocol-completion assertion)
    pub(crate) fn quiescent(&self) -> bool {
        self.pending.iter().all(|row| row.iter().all(|&p| p == 0))
    }

    /// Reset every meter (links must be idle).
    pub fn reset_stats(&mut self) {
        debug_assert!(self.quiescent());
        self.meters.reset();
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
        let n = self.n_sites();
        let links = (0..n).flat_map(|dst| (0..n).map(move |src| (src, dst)));
        let mut busy = links.map(|(src, dst)| (src, dst, self.pending[src][dst]));
        busy.find(|&(.., k)| k > 0)
    }

    fn meters(&self) -> &Meters {
        ByteNetwork::meters(self)
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

    /// Frames a count and the numbers as varints.
    impl FrameCodec for Nums {
        fn encode_frame(&self, out: &mut Vec<u8>) {
            bytes::put_varint(out, self.0.len() as u64);
            self.0.iter().for_each(|&v| bytes::put_varint(out, v));
        }

        fn decode_frame(body: &[u8]) -> Result<Self, ClusterError> {
            let mut r = bytes::Reader::new(body);
            let n = r.count()?;
            let v = (0..n).map(|_| r.varint()).collect::<Result<_, _>>()?;
            r.finish()?;
            Ok(Nums(v))
        }
    }

    /// The same `n`-site network over each substrate: in-process
    /// channels, then localhost TCP.
    fn both<M: FrameCodec>(n: usize) -> [ByteNetwork<M>; 2] {
        [
            ByteNetwork::in_memory(n),
            ByteNetwork::tcp_localhost(n).unwrap(),
        ]
    }

    #[test]
    fn in_memory_network_ships_decodes_and_meters() {
        for mut net in both(3) {
            // Three senders interleaved: the drain hands frames over in
            // sender-site order, FIFO per sender, whatever the arrival
            // order — the sequential detector's determinism rests on it.
            net.send(0, 2, Nums(vec![1, 2, 3])).unwrap();
            net.send(1, 2, Nums(vec![4])).unwrap();
            net.send(0, 2, Nums(vec![5, 6])).unwrap();
            net.send(2, 0, Nums(vec![7])).unwrap();
            net.send(1, 2, Nums(vec![8])).unwrap();
            assert!(!net.quiescent());
            let got = net.try_drain(2).unwrap();
            let want = [
                (0, vec![1, 2, 3]),
                (0, vec![5, 6]),
                (1, vec![4]),
                (1, vec![8]),
            ];
            let want: Vec<_> = want.into_iter().map(|(s, v)| (s, Nums(v))).collect();
            assert_eq!(got, want, "sender order, FIFO per sender");
            assert_eq!(net.in_flight(), Some((2, 0, 1)));
            assert_eq!(net.try_drain(0).unwrap(), vec![(2, Nums(vec![7]))]);
            assert!(net.quiescent());
            // Modeled |M| matches the simulated network's accounting…
            assert_eq!(net.meters().modeled.total_bytes(), 8 * 8);
            assert_eq!(net.meters().modeled.total_eqids(), 8);
            assert_eq!(net.meters().modeled.pair(0, 2).messages, 2);
            // …and the constructive identity holds.
            let m = net.meter();
            assert_eq!(m.frames, 5);
            assert_eq!(
                m.wire_bytes,
                m.modeled_bytes + m.structural_bytes - m.saved_bytes
            );
            assert_eq!(net.meters().wire.total_bytes(), m.wire_bytes);
            // A frame is its header, a one-byte count and a byte a number.
            assert_eq!(net.meters().wire.pair(0, 2).bytes, (1 + 4) + (1 + 3));
            // Above the model: one header byte per frame (bodies below 64
            // bytes). Below it: each body against its 8 B a number.
            assert_eq!(m.structural_bytes, 5);
            assert_eq!(m.saved_bytes, (24 - 4) + (16 - 3) + 3 * (8 - 2));
        }
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
        assert_eq!(
            m.wire_bytes,
            m.modeled_bytes + m.structural_bytes - m.saved_bytes
        );
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
        fn encode_frame(&self, out: &mut Vec<u8>) {
            bytes::put_varint(out, self.0);
        }

        fn decode_frame(body: &[u8]) -> Result<Self, ClusterError> {
            let mut r = bytes::Reader::new(body);
            let v = r.varint()?;
            r.finish()?;
            if v == POISON {
                return Err(ClusterError::Transport("poisoned payload".into()));
            }
            Ok(Fussy(v))
        }
    }

    #[test]
    fn drain_error_keeps_pending_frames_in_sync() {
        for mut net in both::<Fussy>(2) {
            net.send(0, 1, Fussy(POISON)).unwrap();
            net.send(0, 1, Fussy(7)).unwrap();
            // First drain consumes the poisoned frame and errors on decode.
            assert!(net.try_drain(1).is_err());
            // The second frame is still queued — and still accounted for:
            // the network must not claim quiescence nor lose the frame.
            assert!(!net.quiescent(), "unread frame must stay pending");
            assert_eq!(net.try_drain(1).unwrap(), vec![(0, Fussy(7))]);
            assert!(net.quiescent());
            // Subsequent traffic on the link is unaffected.
            net.send(0, 1, Fussy(8)).unwrap();
            assert_eq!(net.try_drain(1).unwrap(), vec![(0, Fussy(8))]);
        }
    }

    #[test]
    fn oversized_messages_are_refused_and_leave_the_network_idle() {
        for mut net in both::<Nums>(2) {
            // Ten bytes a number serialized.
            let huge = Nums(vec![u64::MAX; MAX_FRAME_BYTES / 10 + 1]);
            let e = net.send(0, 1, huge).unwrap_err();
            assert!(e.to_string().contains("oversized"), "{e}");
            assert!(net.quiescent(), "nothing was shipped");
            assert_eq!(net.meter().frames, 0, "nothing was metered");
        }
    }

    #[test]
    fn reset_clears_all_meters() {
        for mut net in both::<Nums>(2) {
            net.send(0, 1, Nums(vec![7])).unwrap();
            net.try_drain(1).unwrap();
            assert_eq!(net.meters().received, net.meter().wire_bytes);
            net.reset_stats();
            assert_eq!(net.meters().received, 0, "received resets too");
            let report = net.meters().report("net");
            assert_eq!(report.measured_bytes(), Some(0), "still framed");
            assert_eq!(net.meter(), TransportMeter::default());
            assert_eq!(net.meters().modeled.total_bytes(), 0);
            assert_eq!(net.meters().wire.total_messages(), 0);
        }
    }
}
