//! The per-node frame runtime: the one byte substrate every real
//! transport runs on.
//!
//! A mesh is `n` independent [`Node`]s, each owning its write halves, its
//! inbox and its own meters. A detector can run one OS thread (or one OS
//! process) per site, communicating *only* via frames, or drive every
//! node from one thread: [`ByteNetwork`] is exactly that.
//!
//! * [`mem_mesh`] — `n` nodes over in-process frame channels (each send
//!   delivers one complete `(method, body)` frame into the receiver's
//!   inbox; receivers block, senders don't);
//! * [`tcp_mesh`] — `n` nodes over the localhost TCP mesh, each node's
//!   inbound links serviced by its own reader threads (joined on drop);
//! * `join_mesh` + `Node::from_endpoint` —
//!   the multi-process former: every participating process builds its
//!   own node over fixed localhost ports.
//!
//! # Metering
//!
//! Each node meters its *sends* — modeled `|M|` (the message's
//! `wire_size()`), measured wire bytes (its frame), and the
//! transport-meter identity `wire == modeled + structural − saved`, the
//! frame's bytes above and below the model — into its own [`Meters`]
//! block ([`Node::meters`]); merging
//! every node's block gives the whole mesh's picture. Protocol messages go through
//! [`Node::send`]; runtime control traffic (acks, wave barriers, op
//! shipments) goes through [`Node::send_ctrl`], which is framed and
//! wire-metered identically but contributes **zero** modeled `|M|` and
//! zero modeled messages — the model meters the detection protocol, not
//! the harness that schedules it. How a frame is packed is the node's
//! call alone: protocol frames ship stored, and control frames of
//! [`CTRL_LZ_MIN_BYTES`] or more are offered to [`lz`] and kept packed
//! when that is smaller (receivers dispatch on the header's method bit).
//! The savings land in `saved_bytes`, so the identity holds with packed
//! control frames in the mix. Each node also counts
//! the wire bytes of the frames it *receives* (`Meters::received`) —
//! summed over a mesh at rest, that is every byte the senders metered.
//! Both ends price a frame at `frame_wire_len` of its body, the one
//! place that knows the header ([`crate::net::frame`]): the in-process
//! links write no header but meter the one a socket would carry, so the
//! two substrates read the same bytes.
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
//! (a thread join, process exit with the node kept alive, or another
//! node's inbox, as in [`ByteNetwork`]'s drain) calls [`Node::flush`]
//! first. In-process links deliver on send and have nothing to flush.
//!
//! [`ByteNetwork`]: crate::net::ByteNetwork

use crate::net::frame::{frame_wire_len, MAX_FRAME_BYTES, METHOD_LZ, METHOD_STORED};
use crate::net::tcp::{self, Inbound, NodeEndpoint, ReaderGuard, TcpLink};
use crate::net::{decode_body, FrameCodec};
use crate::{lz, ClusterError, Meters, SiteId};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

/// How long a node waits for an expected frame before declaring the
/// peer dead. Generous: on a loaded box with fewer cores than sites, n
/// site threads and their readers all contend for the same CPUs.
pub(crate) const RECV_TIMEOUT: Duration = Duration::from_secs(60);

/// Control frames at least this long are offered to [`lz`] (kept only if
/// smaller). Below it a frame is an ack or a barrier — a handful of bytes
/// no match can shorten.
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
/// a blocking inbox of inbound frames, and its meters. `Send` —
/// hand each node to its thread (or build one per process).
#[derive(Debug)]
pub struct Node {
    n: usize,
    me: SiteId,
    tx: TxSide,
    rx: Receiver<Inbound>,
    /// TCP reader threads for this node's inbound links (joined on drop).
    _guard: Option<ReaderGuard>,
    /// Its sends (a node fills its own row) and the bytes it received.
    meters: Meters,
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
            meters: Meters::framed(n),
            scratch: Vec::new(),
        }
    }

    /// Wrap a multi-process [`NodeEndpoint`] (from
    /// [`crate::net::join_mesh`]) as a runtime node.
    pub(crate) fn from_endpoint(n: usize, me: SiteId, ep: NodeEndpoint) -> Self {
        Node::new(n, me, TxSide::Tcp(ep.tx), ep.rx, Some(ep.guard))
    }

    /// Number of nodes in the mesh.
    pub fn n_nodes(&self) -> usize {
        self.n
    }

    /// This node's id.
    pub fn me(&self) -> SiteId {
        self.me
    }

    /// Ship a **protocol** message, stored: its `wire_size()` is metered
    /// as modeled `|M|`, and its frame's length is booked against it.
    pub fn send<M: FrameCodec>(&mut self, dst: SiteId, msg: &M) -> Result<(), ClusterError> {
        self.check_dst(dst)?;
        self.scratch.clear();
        msg.encode_frame(&mut self.scratch);
        self.ship(dst, msg.wire_size(), false)?;
        self.meters
            .modeled
            .record(self.me, dst, msg.wire_size(), msg.eqid_count());
        Ok(())
    }

    /// Run `f` on this node with `meters` in place of its own: how a
    /// caller that owns every node keeps one merged block at O(1) per send
    /// or receive (the blocks are swapped in and out, never added).
    pub(crate) fn metered_into<T>(
        &mut self,
        meters: &mut Meters,
        f: impl FnOnce(&mut Node) -> T,
    ) -> T {
        std::mem::swap(&mut self.meters, meters);
        let out = f(self);
        std::mem::swap(&mut self.meters, meters);
        out
    }

    /// Ship a **control** frame: framed and wire-metered like any other
    /// frame, but zero modeled `|M|` and zero modeled messages — every
    /// byte of it is above the model. A frame of
    /// [`CTRL_LZ_MIN_BYTES`] or more ships [`lz`]-packed when that is
    /// smaller.
    pub fn send_ctrl<M: FrameCodec>(&mut self, dst: SiteId, msg: &M) -> Result<(), ClusterError> {
        self.send_ctrl_with(dst, |out| msg.encode_frame(out))
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
        self.ship(dst, 0, self.scratch.len() >= CTRL_LZ_MIN_BYTES)
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
    /// meter it against its modeled `|M|` of `modeled` bytes.
    fn ship(&mut self, dst: SiteId, modeled: usize, try_lz: bool) -> Result<(), ClusterError> {
        if self.scratch.len() > MAX_FRAME_BYTES {
            return Err(ClusterError::Transport(format!(
                "refusing to send an oversized message ({} > {MAX_FRAME_BYTES} bytes serialized)",
                self.scratch.len()
            )));
        }
        let packed = try_lz
            .then(|| lz::compress(&self.scratch))
            .filter(|p| p.len() < self.scratch.len());
        let (method, body): (u8, &[u8]) = match &packed {
            Some(p) => (METHOD_LZ, p),
            None => (METHOD_STORED, &self.scratch),
        };
        let me = self.me;
        let no_link = || ClusterError::Transport(format!("node {me} has no link to node {dst}"));
        match &mut self.tx {
            TxSide::Mem(chans) => {
                let chan = chans
                    .get(dst)
                    .and_then(Option::as_ref)
                    .ok_or_else(no_link)?;
                chan.send((me, Ok((method, body.to_vec())))).map_err(|_| {
                    ClusterError::Transport(format!("node {dst} hung up (inbox closed)"))
                })?;
            }
            TxSide::Tcp(links) => {
                let link = links.get_mut(dst).and_then(Option::as_mut);
                link.ok_or_else(no_link)?.queue(method, body)?;
            }
        }
        // An in-process link writes no header, but the frame is priced as
        // one on any byte link would be.
        self.meters
            .wire
            .record(me, dst, frame_wire_len(body.len()), 0);
        let transport = &mut self.meters.transport;
        transport.record_frame(modeled, self.scratch.len(), body.len());
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
        self.meters.received += frame_wire_len(body.len()) as u64;
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

    /// Block up to `RECV_TIMEOUT` for a frame; `Ok(None)` on timeout.
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
    /// `decode_body`).
    pub fn recv_msg<M: FrameCodec>(&mut self) -> Result<(SiteId, M), ClusterError> {
        let (src, method, body) = self.recv()?;
        Ok((src, decode_body(method, body)?))
    }

    /// What this node metered: its sends, in its own row, and the frames
    /// it took off its inbox.
    pub fn meters(&self) -> &Meters {
        &self.meters
    }

    /// Reset this node's meters.
    pub fn reset_stats(&mut self) {
        self.meters.reset();
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
    Ok(tcp::localhost(n)?
        .into_iter()
        .enumerate()
        .map(|(me, ep)| Node::from_endpoint(n, me, ep))
        .collect())
}

/// Join an `n`-node **multi-process** mesh on fixed localhost ports as
/// node `me` (see `net::tcp::join_mesh`).
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
    use crate::net::bytes::{self, Field};
    use crate::net::{ByteNetwork, TransportMeter};
    use crate::{NetStats, Wire};

    #[derive(Debug, Clone, PartialEq)]
    struct Nums(Vec<u64>);

    impl Wire for Nums {
        fn wire_size(&self) -> usize {
            8 * self.0.len()
        }
    }

    /// Fixed widths: a 4-byte count, then 8 bytes a number — every frame
    /// 4 bytes above its model.
    impl FrameCodec for Nums {
        fn encode_frame(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&(self.0.len() as u32).to_le_bytes());
            for v in &self.0 {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }

        fn decode_frame(body: &[u8]) -> Result<Self, ClusterError> {
            let mut r = bytes::Reader::new(body);
            let n = bytes::Le32::get(&mut r)? as usize;
            let mut v = Vec::with_capacity(n.min(r.remaining()));
            for _ in 0..n {
                let (lo, hi) = (bytes::Le32::get(&mut r)?, bytes::Le32::get(&mut r)?);
                v.push(u64::from(lo) | u64::from(hi) << 32);
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

        // Meters merge to the whole-mesh picture. Every frame is one
        // two-`u64` message each way per worker: 16 modeled bytes, 4 of
        // item count and 1 of frame header.
        let mut meters = hub.meters().clone();
        for w in workers {
            meters.merge(w.join().unwrap().meters());
        }
        let Meters {
            modeled: stats,
            wire,
            transport: meter,
            received,
            ..
        } = meters;
        let frames = 2 * (n as u64 - 1);
        let expected = TransportMeter {
            frames,
            wire_bytes: 21 * frames,
            modeled_bytes: 16 * frames,
            structural_bytes: 5 * frames,
            saved_bytes: 0,
        };
        assert_eq!(meter, expected);
        assert_eq!(received, 21 * frames);
        for (src, dst) in (1..n).flat_map(|s| [(0, s), (s, 0)]) {
            assert_eq!(
                (stats.pair(src, dst).messages, stats.pair(src, dst).bytes),
                (1, 16)
            );
            assert_eq!(
                (wire.pair(src, dst).messages, wire.pair(src, dst).bytes),
                (1, 21)
            );
        }
        assert_eq!(stats.total_messages(), frames);
        assert_eq!(wire.total_bytes(), 21 * frames);
    }

    #[test]
    fn mem_mesh_round_trips_and_meters_every_frame() {
        exercise(mem_mesh(4));
    }

    #[test]
    fn tcp_mesh_round_trips_and_meters_every_frame() {
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
            fn encode_frame(&self, out: &mut Vec<u8>) {
                out.push(0xAC);
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
        assert_eq!(a.meters().modeled.total_messages(), 0);
        assert_eq!(a.meters().modeled.total_bytes(), 0);
        assert_eq!(a.meters().wire.total_messages(), 1);
        let m = a.meters().transport;
        assert_eq!(m.frames, 1);
        assert_eq!(m.wire_bytes, 1 + 1);
        assert_eq!(
            m.wire_bytes,
            m.modeled_bytes + m.structural_bytes - m.saved_bytes
        );
    }

    /// Two nodes over in-process links: `a` sends, `b` receives.
    fn pair() -> (Node, Node) {
        let mut nodes = mem_mesh(2);
        let b = nodes.pop().unwrap();
        let a = nodes.pop().unwrap();
        (a, b)
    }

    /// A repetitive control frame of `CTRL_LZ_MIN_BYTES` or more ships
    /// packed and round-trips, and the saving balances the identity; the
    /// same message sent as protocol ships stored.
    #[test]
    fn large_ctrl_frames_pack_round_trip_and_balance() {
        let repetitive = Nums(vec![0xABCD_EF00; 400]);
        let (mut a, mut b) = pair();
        a.send_ctrl(1, &repetitive).unwrap();
        let (_, method, body) = b.recv().unwrap();
        assert_eq!(method, METHOD_LZ);
        assert_eq!(decode_body::<Nums>(method, body).unwrap(), repetitive);
        let m = a.meters().transport;
        let serialized = 4 + 8 * 400;
        assert!(serialized >= CTRL_LZ_MIN_BYTES);
        assert_eq!(m.modeled_bytes, 0, "control frames model nothing");
        assert!(m.saved_bytes > 0);
        assert!(m.wire_bytes < serialized as u64 / 4, "{m:?}");
        assert_eq!(
            m.wire_bytes,
            m.modeled_bytes + m.structural_bytes - m.saved_bytes
        );
        assert_eq!(b.meters().received, m.wire_bytes);

        let (mut a, mut b) = pair();
        a.send(1, &repetitive).unwrap();
        let (_, method, _) = b.recv().unwrap();
        assert_eq!(method, METHOD_STORED, "protocol frames ship stored");
        let m = a.meters().transport;
        assert_eq!(m.saved_bytes, 0);
        assert_eq!(m.wire_bytes, m.modeled_bytes + m.structural_bytes);
    }

    /// A control frame LZ cannot shorten ships stored: nothing saved,
    /// wire never above modeled + structural.
    #[test]
    fn incompressible_ctrl_frames_ship_stored() {
        // SplitMix64: no four bytes repeat for a match to reach back to.
        let mix = |i: u64| {
            let z = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let noise = Nums((0..64).map(mix).collect());
        let (mut a, mut b) = pair();
        a.send_ctrl(1, &noise).unwrap();
        let (_, method, body) = b.recv().unwrap();
        assert_eq!(method, METHOD_STORED);
        assert_eq!(decode_body::<Nums>(method, body).unwrap(), noise);
        let m = a.meters().transport;
        assert_eq!(m.saved_bytes, 0);
        assert_eq!(m.wire_bytes, m.structural_bytes);
        assert_eq!(m.wire_bytes, frame_wire_len(4 + 8 * 64) as u64);
    }

    /// The frame bound applies to the serialized size on both send
    /// paths: receivers cap unpacked output at `MAX_FRAME_BYTES`, so a
    /// message that would only fit packed is refused at the sender,
    /// before anything is shipped or metered.
    #[test]
    fn oversized_frames_are_refused_on_both_send_paths() {
        let huge = Nums(vec![0u64; MAX_FRAME_BYTES / 8 + 1]);
        for mut nodes in [mem_mesh(2), tcp_mesh(2).unwrap()] {
            let a = &mut nodes[0];
            for e in [a.send(1, &huge), a.send_ctrl(1, &huge)] {
                let e = e.unwrap_err();
                assert!(matches!(e, ClusterError::Transport(_)));
                assert!(e.to_string().contains("oversized"), "{e}");
            }
            assert_eq!(a.meters().transport, TransportMeter::default());
            assert_eq!(a.meters().wire.total_messages(), 0);
        }
    }

    /// TCP sends only queue; the blocking receive is what puts them on
    /// the wire. Large control frames are packed, protocol frames are
    /// not, and the receiver's byte count matches the meter.
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
        let m = a.meters().transport;
        assert_eq!(m.frames, 3);
        assert!(m.saved_bytes > 0, "the 516-byte control frame packs");
        assert_eq!(m.modeled_bytes, 8, "control frames model nothing");
        assert_eq!(
            m.wire_bytes,
            m.modeled_bytes + m.structural_bytes - m.saved_bytes
        );
        assert_eq!(b.meters().received, m.wire_bytes);
        assert_eq!(a.meters().received, b.meters().transport.wire_bytes);
    }

    /// Two nodes' blocks, merged, are the block of one `ByteNetwork` that
    /// made the same sends and drains: modeled, wire, transport and
    /// received alike, and both report the same measured tier.
    #[test]
    fn two_nodes_blocks_merge_into_the_block_that_saw_both() {
        let mut nodes = mem_mesh(2);
        let mut b = nodes.pop().unwrap();
        let mut a = nodes.pop().unwrap();
        let mut net = ByteNetwork::<Nums>::in_memory(2);
        a.send(1, &Nums(vec![1, 2, 3])).unwrap();
        a.send(1, &Nums(vec![4])).unwrap();
        b.send(0, &Nums(vec![5])).unwrap();
        net.send(0, 1, Nums(vec![1, 2, 3])).unwrap();
        net.send(0, 1, Nums(vec![4])).unwrap();
        net.send(1, 0, Nums(vec![5])).unwrap();
        for _ in 0..2 {
            b.recv().unwrap();
        }
        a.recv().unwrap();
        net.try_drain(1).unwrap();
        net.try_drain(0).unwrap();
        let mut merged = a.meters().clone();
        merged.merge(b.meters());
        let one = net.meters();
        assert_eq!(merged.modeled.to_bytes(), one.modeled.to_bytes());
        assert_eq!(merged.wire.to_bytes(), one.wire.to_bytes());
        assert_eq!(merged.transport, one.transport);
        assert_eq!(merged.received, one.received);
        assert_eq!(merged.received, merged.transport.wire_bytes, "at rest");
        let measured = merged.report("net").measured().map(NetStats::to_bytes);
        assert_eq!(
            measured,
            Some(one.wire.to_bytes()),
            "the measured tier is the wire"
        );
        // A modeled block merged with a framed one gains the measured tier.
        let mut modeled = Meters::modeled(2);
        assert!(modeled.report("net").measured().is_none());
        modeled.merge(&merged);
        assert_eq!(
            modeled.report("net").measured().map(NetStats::to_bytes),
            measured
        );
    }

    #[test]
    fn loopback_and_unknown_nodes_are_rejected() {
        let mut nodes = mem_mesh(2);
        let e = nodes[1].send(1, &Nums(vec![1])).unwrap_err();
        assert_eq!(e, ClusterError::Loopback(1));
        let e = nodes[0].send(9, &Nums(vec![1])).unwrap_err();
        assert!(matches!(e, ClusterError::UnknownSite(9)));
    }

    /// A hand-made endpoint whose write halves are short or missing is a
    /// typed error naming both nodes, never a panic.
    #[test]
    fn an_endpoint_without_a_link_names_both_nodes() {
        for tx in [vec![None, None], vec![None], Vec::new()] {
            let (_inbox, rx) = channel();
            let ep = NodeEndpoint {
                tx,
                rx,
                guard: ReaderGuard::default(),
            };
            let mut node = Node::from_endpoint(2, 0, ep);
            let e = node.send(1, &Nums(vec![1])).unwrap_err();
            let msg = "transport error: node 0 has no link to node 1";
            assert_eq!(e.to_string(), msg);
            let e = node.send_ctrl(1, &Nums(vec![1])).unwrap_err();
            assert_eq!(e.to_string(), msg);
            let m = node.meters().transport;
            assert_eq!(m, TransportMeter::default(), "nothing metered");
        }
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
