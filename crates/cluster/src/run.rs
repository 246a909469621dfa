//! The per-node frame runtime: what one site's **thread or process**
//! owns when every site is a real unit of execution.
//!
//! [`crate::net::ByteNetwork`] holds all `n²` links in one struct and is
//! driven by a single thread. This module splits the same substrate into
//! `n` independent [`Node`]s — each owning its write halves, its inbox,
//! and its own meters — so a detector can run one OS thread (or one OS
//! process) per site, communicating *only* via frames:
//!
//! * [`mem_mesh`] — `n` nodes over in-process frame channels (each send
//!   delivers one complete `(method, body)` frame into the receiver's
//!   inbox; receivers block, senders don't);
//! * [`tcp_mesh`] — `n` nodes over the localhost TCP mesh, each node's
//!   inbound links serviced by its own reader threads (joined on drop);
//! * [`join_mesh`](crate::net::join_mesh) + [`Node::from_endpoint`] —
//!   the multi-process former: every participating process builds its
//!   own node over fixed localhost ports.
//!
//! # Metering
//!
//! Each node meters its *sends* with exactly the [`ByteNetwork::send`]
//! recipe (modeled `|M|`, measured wire bytes, and the transport-meter
//! identity `wire == modeled + structural − saved`), into node-local
//! [`NetStats`] matrices. Merging every node's meters therefore
//! reproduces, counter for counter, what a single-threaded
//! [`ByteNetwork`] drive of the same frames would have recorded — the
//! differential suites assert this. Protocol messages go through
//! [`Node::send`]; runtime control traffic (acks, wave barriers, op
//! shipments) goes through [`Node::send_ctrl`], which is framed and
//! wire-metered identically but contributes **zero** modeled `|M|` and
//! zero modeled messages — the model meters the detection protocol, not
//! the harness that schedules it. Control frames of
//! [`CTRL_LZ_MIN_BYTES`] or more are offered to [`lz`] whatever the
//! session's [`Compression`] (receivers dispatch on the method byte
//! either way); the savings land in `saved_bytes`, so the identity
//! holds with packed control frames in the mix. Each node also counts
//! the wire bytes of the frames it *receives*
//! ([`Node::received_bytes`]) — summed over a mesh at rest, that is
//! every byte the senders metered.
//!
//! # Flush before you park
//!
//! TCP write halves are buffered: a send queues its frame, and the
//! frames queued towards one peer leave in one `write` when the node
//! flushes. The node flushes **itself** at the one point a site can
//! park — [`Node::recv`] / [`Node::recv_opt`] finding the inbox empty,
//! just before they block — and the buffers flush once more when the
//! node drops. So whenever a node is blocked, everything it ever sent is
//! on the wire, and a cycle of nodes each waiting for a frame still
//! sitting in another's buffer cannot form; a node that is not blocked
//! is making progress towards its next park. The only caller-visible
//! duty: a node that will wait on something *other* than its inbox
//! (a thread join, process exit with the node kept alive) calls
//! [`Node::flush`] first. In-process links deliver on send and have
//! nothing to flush.
//!
//! [`ByteNetwork`]: crate::net::ByteNetwork
//! [`ByteNetwork::send`]: crate::net::ByteNetwork::send

use crate::net::frame::{
    FRAME_HEADER_BYTES, FRAME_METHOD_BYTES, MAX_FRAME_BYTES, METHOD_LZ, METHOD_STORED,
};
use crate::net::tcp::{self, Inbound, NodeEndpoint, ReaderGuard, TcpLink};
use crate::net::{decode_body, Compression, FrameCodec, TransportMeter};
use crate::{lz, ClusterError, NetStats, SiteId};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

/// How long a node waits for an expected frame before declaring the
/// peer dead. Generous: on a loaded box with fewer cores than sites, n
/// site threads and their readers all contend for the same CPUs.
pub const RECV_TIMEOUT: Duration = Duration::from_secs(60);

/// Control frames at least this long are offered to [`lz`] regardless of
/// the session codec (kept only if smaller). Below it a frame is an ack
/// or a barrier — a handful of bytes no match can shorten.
pub const CTRL_LZ_MIN_BYTES: usize = 128;

/// One inbound frame: `(src, method, body)`.
type Frame = (SiteId, u8, Vec<u8>);

/// A node's write halves.
#[derive(Debug)]
enum TxSide {
    /// In-process: each send delivers one complete frame into the
    /// destination's inbox channel.
    Mem(Vec<Option<Sender<Inbound>>>),
    /// TCP write halves (the destination's reader threads feed its
    /// inbox).
    Tcp(Vec<Option<TcpLink>>),
}

/// One site's endpoint in an `n`-node mesh: write halves to every peer,
/// a blocking inbox of inbound frames, and send-side meters. `Send` —
/// hand each node to its thread (or build one per process).
#[derive(Debug)]
pub struct Node {
    n: usize,
    me: SiteId,
    tx: TxSide,
    rx: Receiver<Inbound>,
    /// TCP reader threads for this node's inbound links (joined on drop).
    _guard: Option<ReaderGuard>,
    compression: Compression,
    /// Modeled `|M|` of this node's sends (row `me` of the global matrix).
    stats: NetStats,
    /// Measured on-wire bytes of this node's sends, framing included.
    wire: NetStats,
    meter: TransportMeter,
    /// Wire bytes of the frames taken off the inbox, framing included.
    received: u64,
    scratch: Vec<u8>,
}

impl Node {
    fn new(
        n: usize,
        me: SiteId,
        tx: TxSide,
        rx: Receiver<Inbound>,
        guard: Option<ReaderGuard>,
    ) -> Self {
        Node {
            n,
            me,
            tx,
            rx,
            _guard: guard,
            compression: Compression::default(),
            stats: NetStats::new(n),
            wire: NetStats::new(n),
            meter: TransportMeter::default(),
            received: 0,
            scratch: Vec::new(),
        }
    }

    /// Wrap a multi-process [`NodeEndpoint`] (from
    /// [`crate::net::join_mesh`]) as a runtime node.
    pub fn from_endpoint(n: usize, me: SiteId, ep: NodeEndpoint) -> Self {
        Node::new(n, me, TxSide::Tcp(ep.tx), ep.rx, Some(ep.guard))
    }

    /// Select the per-frame body packing (default: none).
    pub fn with_compression(mut self, compression: Compression) -> Self {
        self.compression = compression;
        self
    }

    /// Number of nodes in the mesh.
    pub fn n_nodes(&self) -> usize {
        self.n
    }

    /// This node's id.
    pub fn me(&self) -> SiteId {
        self.me
    }

    /// Ship a **protocol** message: full [`crate::net::ByteNetwork`]
    /// accounting (modeled `|M|` + wire).
    pub fn send<M: FrameCodec>(&mut self, dst: SiteId, msg: &M) -> Result<(), ClusterError> {
        self.check_dst(dst)?;
        self.scratch.clear();
        let structural = msg.encode_frame(&mut self.scratch);
        debug_assert_eq!(
            self.scratch.len(),
            msg.wire_size() + structural,
            "encoder broke the overhead identity"
        );
        let try_lz = self.compression == Compression::Lz;
        self.ship(dst, msg.wire_size(), structural, try_lz)?;
        self.stats
            .record(self.me, dst, msg.wire_size(), msg.eqid_count());
        Ok(())
    }

    /// Ship a **control** frame: framed and wire-metered like any other
    /// frame, but zero modeled `|M|` and zero modeled messages — its
    /// whole encoding is structural overhead.
    pub fn send_ctrl<M: FrameCodec>(&mut self, dst: SiteId, msg: &M) -> Result<(), ClusterError> {
        self.send_ctrl_with(dst, |out| {
            msg.encode_frame(out);
        })
    }

    /// [`send_ctrl`](Node::send_ctrl) for a sender that serializes from
    /// borrowed data: `encode` writes the frame body straight into the
    /// node's frame buffer, no owned message in between.
    pub fn send_ctrl_with(
        &mut self,
        dst: SiteId,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), ClusterError> {
        self.check_dst(dst)?;
        self.scratch.clear();
        encode(&mut self.scratch);
        let len = self.scratch.len();
        let try_lz = self.compression == Compression::Lz || len >= CTRL_LZ_MIN_BYTES;
        self.ship(dst, 0, len, try_lz)
    }

    fn check_dst(&self, dst: SiteId) -> Result<(), ClusterError> {
        if dst == self.me {
            return Err(ClusterError::Loopback(dst));
        }
        if dst >= self.n {
            return Err(ClusterError::UnknownSite(dst));
        }
        Ok(())
    }

    /// Frame the serialized message in `scratch` (packed when `try_lz`
    /// and that is smaller), hand it to the link towards `dst`, and
    /// meter it: `modeled` of its bytes are `|M|`, `structural` are not.
    fn ship(
        &mut self,
        dst: SiteId,
        modeled: usize,
        structural: usize,
        try_lz: bool,
    ) -> Result<(), ClusterError> {
        if self.scratch.len() + FRAME_METHOD_BYTES > MAX_FRAME_BYTES {
            return Err(ClusterError::Transport(format!(
                "refusing to send an oversized message ({} > {MAX_FRAME_BYTES} bytes serialized)",
                self.scratch.len() + FRAME_METHOD_BYTES
            )));
        }
        let packed = try_lz
            .then(|| lz::compress(&self.scratch))
            .filter(|p| p.len() < self.scratch.len());
        let (method, body): (u8, &[u8]) = match &packed {
            Some(p) => (METHOD_LZ, p),
            None => (METHOD_STORED, &self.scratch),
        };
        match &mut self.tx {
            TxSide::Mem(chans) => {
                let chan = chans[dst]
                    .as_ref()
                    .expect("off-diagonal links always exist");
                chan.send((self.me, Ok((method, body.to_vec()))))
                    .map_err(|_| {
                        ClusterError::Transport(format!("node {dst} hung up (inbox closed)"))
                    })?;
            }
            TxSide::Tcp(links) => {
                let link = links[dst]
                    .as_mut()
                    .expect("off-diagonal links always exist");
                link.queue(method, body)?;
            }
        }
        let wire_len = FRAME_HEADER_BYTES + FRAME_METHOD_BYTES + body.len();
        self.wire.record(self.me, dst, wire_len, 0);
        self.meter.record_frame(modeled, structural, body.len());
        Ok(())
    }

    /// Push every queued frame to its socket (see the module docs: the
    /// receive calls do this before they block, so only a node about to
    /// wait on something other than its inbox needs to call it).
    pub fn flush(&mut self) -> Result<(), ClusterError> {
        if let TxSide::Tcp(links) = &mut self.tx {
            for link in links.iter_mut().flatten() {
                link.flush()?;
            }
        }
        Ok(())
    }

    fn accept(&mut self, (src, frame): Inbound) -> Result<Frame, ClusterError> {
        let (method, body) = frame
            .map_err(|e| ClusterError::Transport(format!("link from node {src} failed: {e}")))?;
        self.received += (FRAME_HEADER_BYTES + FRAME_METHOD_BYTES + body.len()) as u64;
        Ok((src, method, body))
    }

    /// Block for the next inbound frame: `(src, method, body)`. Errors
    /// forwarded by a reader thread (mid-stream disconnect) and timeouts
    /// surface as [`ClusterError::Transport`].
    pub fn recv(&mut self) -> Result<(SiteId, u8, Vec<u8>), ClusterError> {
        match self.recv_opt()? {
            Some(frame) => Ok(frame),
            None => Err(ClusterError::Transport(
                "timed out waiting for a frame (peer node gone?)".into(),
            )),
        }
    }

    /// Block up to [`RECV_TIMEOUT`] for a frame; `Ok(None)` on timeout.
    /// For idle loops (a site waiting for its next batch) where silence
    /// is normal, not a dead peer. This is where a node parks, so this
    /// is where queued sends are flushed: only when the inbox is empty,
    /// immediately before blocking.
    pub fn recv_opt(&mut self) -> Result<Option<(SiteId, u8, Vec<u8>)>, ClusterError> {
        if let Some(frame) = self.try_recv()? {
            return Ok(Some(frame));
        }
        self.flush()?;
        match self.rx.recv_timeout(RECV_TIMEOUT) {
            Ok(inbound) => self.accept(inbound).map(Some),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(ClusterError::Transport(
                "inbox closed: all senders and readers are gone".into(),
            )),
        }
    }

    /// Non-blocking poll: `Ok(None)` when the inbox is currently empty.
    /// Never flushes — a node that keeps finding frames keeps batching
    /// its sends.
    pub fn try_recv(&mut self) -> Result<Option<(SiteId, u8, Vec<u8>)>, ClusterError> {
        match self.rx.try_recv() {
            Ok(inbound) => self.accept(inbound).map(Some),
            Err(std::sync::mpsc::TryRecvError::Empty) => Ok(None),
            Err(std::sync::mpsc::TryRecvError::Disconnected) => Err(ClusterError::Transport(
                "inbox closed: all senders and readers are gone".into(),
            )),
        }
    }

    /// Block for the next frame and decode it as `M` (see
    /// [`decode_body`]).
    pub fn recv_msg<M: FrameCodec>(&mut self) -> Result<(SiteId, M), ClusterError> {
        let (src, method, body) = self.recv()?;
        Ok((src, decode_body(method, body)?))
    }

    /// Modeled `|M|` of this node's sends.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Measured on-wire bytes of this node's sends.
    pub fn wire_stats(&self) -> &NetStats {
        &self.wire
    }

    /// This node's transport counters.
    pub fn meter(&self) -> TransportMeter {
        self.meter
    }

    /// Wire bytes (framing included) of every frame this node has taken
    /// off its inbox — the receive-side twin of `meter().wire_bytes`.
    pub fn received_bytes(&self) -> u64 {
        self.received
    }

    /// Reset this node's meters.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
        self.wire.reset();
        self.meter = TransportMeter::default();
        self.received = 0;
    }
}

/// `n` nodes over in-process frame channels. Deterministic framing, no
/// sockets — the default substrate for thread-per-site runs.
pub fn mem_mesh(n: usize) -> Vec<Node> {
    let (txs, rxs): (Vec<Sender<Inbound>>, Vec<Receiver<Inbound>>) =
        (0..n).map(|_| channel()).unzip();
    rxs.into_iter()
        .enumerate()
        .map(|(me, rx)| {
            let chans = txs
                .iter()
                .enumerate()
                .map(|(dst, tx)| (dst != me).then(|| tx.clone()))
                .collect();
            Node::new(n, me, TxSide::Mem(chans), rx, None)
        })
        .collect()
}

/// `n` nodes over the localhost TCP mesh (ephemeral ports, in-process).
/// Each node's inbound links are serviced by its own reader threads,
/// joined when the node drops.
pub fn tcp_mesh(n: usize) -> Result<Vec<Node>, ClusterError> {
    let eps = tcp::TcpMesh::localhost(n)?.into_node_endpoints();
    Ok(eps
        .into_iter()
        .enumerate()
        .map(|(me, ep)| Node::from_endpoint(n, me, ep))
        .collect())
}

/// Join an `n`-node **multi-process** mesh on fixed localhost ports as
/// node `me` (see [`crate::net::join_mesh`]).
pub fn join(n: usize, me: SiteId, base_port: u16) -> Result<Node, ClusterError> {
    Ok(Node::from_endpoint(
        n,
        me,
        tcp::join_mesh(n, me, base_port)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::bytes;
    use crate::Wire;

    #[derive(Debug, Clone, PartialEq)]
    struct Nums(Vec<u64>);

    impl Wire for Nums {
        fn wire_size(&self) -> usize {
            8 * self.0.len()
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

    fn exercise(mut nodes: Vec<Node>) {
        // Spawn every node on its own thread; node 0 is the hub.
        let n = nodes.len();
        let hub = nodes.remove(0);
        let workers: Vec<_> = nodes
            .into_iter()
            .map(|mut node| {
                std::thread::spawn(move || {
                    let (src, msg): (SiteId, Nums) = node.recv_msg().unwrap();
                    assert_eq!(src, 0);
                    let reply = Nums(msg.0.iter().map(|v| v * 2).collect());
                    node.send(0, &reply).unwrap();
                    // This worker never parks in `recv` again and its
                    // node outlives the thread: flush by hand.
                    node.flush().unwrap();
                    node
                })
            })
            .collect();
        let hub = std::thread::spawn(move || {
            let mut hub = hub;
            for dst in 1..n {
                hub.send(dst, &Nums(vec![dst as u64, 7])).unwrap();
            }
            let mut got = Vec::new();
            for _ in 1..n {
                let (src, msg): (SiteId, Nums) = hub.recv_msg().unwrap();
                got.push((src, msg));
            }
            got.sort_by_key(|(s, _)| *s);
            assert_eq!(
                got,
                (1..n)
                    .map(|s| (s, Nums(vec![2 * s as u64, 14])))
                    .collect::<Vec<_>>()
            );
            hub
        })
        .join()
        .unwrap();

        // Meters merge to the whole-mesh picture.
        let mut stats = hub.stats().clone();
        let mut meter = hub.meter();
        for w in workers {
            let w = w.join().unwrap();
            stats.merge(w.stats());
            meter.merge(&w.meter());
        }
        assert_eq!(stats.total_messages(), 2 * (n as u64 - 1));
        assert_eq!(stats.total_bytes(), 2 * (n as u64 - 1) * 16);
        assert_eq!(meter.frames, 2 * (n as u64 - 1));
        assert_eq!(
            meter.wire_bytes,
            meter.modeled_bytes + meter.structural_bytes - meter.saved_bytes
        );
        // Prove the meters match what a single-threaded ByteNetwork
        // records for the same message set.
        let mut reference: crate::net::ByteNetwork<Nums> = crate::net::ByteNetwork::in_memory(n);
        for dst in 1..n {
            reference.send(0, dst, Nums(vec![dst as u64, 7])).unwrap();
            reference.try_drain(dst).unwrap();
            reference
                .send(dst, 0, Nums(vec![2 * dst as u64, 14]))
                .unwrap();
            reference.try_drain(0).unwrap();
        }
        assert_eq!(stats.total_bytes(), reference.stats().total_bytes());
        assert_eq!(meter.wire_bytes, reference.meter().wire_bytes);
        assert_eq!(meter.structural_bytes, reference.meter().structural_bytes);
    }

    #[test]
    fn mem_mesh_round_trips_and_meters_like_bytenetwork() {
        exercise(mem_mesh(4));
    }

    #[test]
    fn tcp_mesh_round_trips_and_meters_like_bytenetwork() {
        exercise(tcp_mesh(4).unwrap());
    }

    #[test]
    fn ctrl_frames_are_wire_only() {
        /// A control frame: zero modeled size, all structure.
        #[derive(Debug, PartialEq)]
        struct Ack;
        impl Wire for Ack {
            fn wire_size(&self) -> usize {
                0
            }
        }
        impl FrameCodec for Ack {
            fn encode_frame(&self, out: &mut Vec<u8>) -> usize {
                out.push(0xAC);
                1
            }
            fn decode_frame(body: &[u8]) -> Result<Self, ClusterError> {
                if body == [0xAC] {
                    Ok(Ack)
                } else {
                    Err(ClusterError::Transport("not an ack".into()))
                }
            }
        }
        let mut nodes = mem_mesh(2);
        let mut b = nodes.pop().unwrap();
        let mut a = nodes.pop().unwrap();
        a.send_ctrl(1, &Ack).unwrap();
        let (src, msg): (SiteId, Ack) = b.recv_msg().unwrap();
        assert_eq!((src, msg), (0, Ack));
        // No modeled |M|, no modeled messages — but real wire bytes and
        // the meter identity still holds.
        assert_eq!(a.stats().total_messages(), 0);
        assert_eq!(a.stats().total_bytes(), 0);
        assert_eq!(a.wire_stats().total_messages(), 1);
        let m = a.meter();
        assert_eq!(m.frames, 1);
        assert_eq!(m.wire_bytes, 5 + 1);
        assert_eq!(
            m.wire_bytes,
            m.modeled_bytes + m.structural_bytes - m.saved_bytes
        );
    }

    /// TCP sends only queue; the blocking receive is what puts them on
    /// the wire. Large control frames are packed whatever the session
    /// compression, and the receiver's byte count matches the meter.
    #[test]
    fn queued_frames_leave_when_the_node_parks() {
        let mut nodes = tcp_mesh(2).unwrap();
        let mut b = nodes.pop().unwrap();
        let mut a = nodes.pop().unwrap();
        let big = Nums(vec![7; 64]);
        let sender = std::thread::spawn(move || {
            a.send_ctrl(1, &Nums(vec![1])).unwrap();
            a.send_ctrl(1, &big).unwrap();
            a.send(1, &Nums(vec![2])).unwrap();
            // No flush: parking in `recv` must push all three out.
            let (src, reply): (SiteId, Nums) = a.recv_msg().unwrap();
            assert_eq!((src, reply), (1, Nums(vec![3])));
            a
        });
        let frames: Vec<_> = (0..3).map(|_| b.recv().unwrap()).collect();
        let methods: Vec<u8> = frames.iter().map(|(_, m, _)| *m).collect();
        assert_eq!(methods, [METHOD_STORED, METHOD_LZ, METHOD_STORED]);
        let (_, method, body) = frames[1].clone();
        assert_eq!(
            decode_body::<Nums>(method, body).unwrap(),
            Nums(vec![7; 64])
        );
        b.send(0, &Nums(vec![3])).unwrap();
        b.flush().unwrap();
        let a = sender.join().unwrap();
        let m = a.meter();
        assert_eq!(m.frames, 3);
        assert!(m.saved_bytes > 0, "the 516-byte control frame packs");
        assert_eq!(m.modeled_bytes, 8, "control frames model nothing");
        assert_eq!(
            m.wire_bytes,
            m.modeled_bytes + m.structural_bytes - m.saved_bytes
        );
        assert_eq!(b.received_bytes(), m.wire_bytes);
        assert_eq!(a.received_bytes(), b.meter().wire_bytes);
    }

    #[test]
    fn loopback_and_unknown_nodes_are_rejected() {
        let mut nodes = mem_mesh(2);
        let e = nodes[1].send(1, &Nums(vec![1])).unwrap_err();
        assert_eq!(e, ClusterError::Loopback(1));
        let e = nodes[0].send(9, &Nums(vec![1])).unwrap_err();
        assert!(matches!(e, ClusterError::UnknownSite(9)));
    }

    #[test]
    fn hung_up_peer_surfaces_as_transport_error() {
        let mut nodes = mem_mesh(2);
        let gone = nodes.pop().unwrap();
        drop(gone);
        let e = nodes[0].send(1, &Nums(vec![1])).unwrap_err();
        assert!(matches!(e, ClusterError::Transport(_)), "{e:?}");
    }
}
