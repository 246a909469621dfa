//! Truly concurrent horizontal detection: one unit of execution per site.
//!
//! [`crate::HorizontalDetector`] keeps every site's §6 machine
//! (`horizontal::site`) in one struct and one thread drives all
//! rounds synchronously. Here each machine runs as a real OS thread
//! ([`ConcurrentHorizontal::threaded`]) or a real OS process
//! ([`ConcurrentHorizontal::distributed`] plus the `site` binary in the
//! bench crate), communicating **only** via byte frames over a
//! [`cluster::run::Node`] mesh. The protocol — case analysis, [`HorMsg`]
//! construction and serving, codecs, input validation — is the machine's,
//! so frames and modeled `|M|` are the sequential drive's by construction.
//! What this file owns is everything around it: which updates may run at
//! once (waves), how a pipelined site matches replies to rounds and closes
//! silent ones (slot queues, owed acks), the barriers between waves, and
//! the per-batch images that carry each site's slice of `ΔV` and its
//! meters home. No detector state is shared: each site owns its fragment,
//! its per-operator group state, its slice of `V`, and its receiver-side codec
//! state, exactly as the paper's EC2 deployment would.
//!
//! # Wave-parallel scheduling
//!
//! A batch is deterministic only if conflicting updates never race. The
//! coordinator (site 0 — just another site that also happens to own the
//! batch) assigns every normalized update a **wave**: the footprint of an
//! update is the set of `(operator, group-key digest)` pairs it can touch
//! anywhere in the mesh (the implicit-query walk only ever reads groups
//! keyed by the probing tuple's own digests), plus its tid (a
//! modification normalizes to `delete(t); insert(t')` of the same tid).
//! An update lands in the first wave after every conflicting predecessor.
//! Within a wave, footprints are disjoint, so sites fire *all* their
//! probes up front and serve peers while their own rounds are in flight.
//! With fewer cores than sites (the reference box has two for four
//! sites) that pipelining is what turns a context switch per frame into
//! one per burst of frames; with a core per site it is what lets the
//! sites work at once.
//!
//! # The control plane
//!
//! Wave barriers, op shipment, acks and result collection ride on
//! [`CtrlMsg`] frames, which are wire-metered but contribute **zero**
//! modeled `|M|` ([`Node::send_ctrl`]): the model meters the detection
//! protocol, not the harness that schedules it. The differential suite
//! asserts threaded, multi-process and sequential drives agree on
//! violations, `ΔV` *and* the full per-link modeled byte matrix.
//!
//! Since every byte of a control frame is overhead, the frames are
//! written compactly (varints, per-frame column dictionaries — layouts
//! in the [`ctrl`] module docs; larger frames are then LZ-packed by the
//! node whatever the session codec) and the coordinator writes each
//! site's `Ops` frame straight from the borrowed batch. Body sizes, old
//! fixed-width row format → current, measured on `thr_tcp_batch` seed 1
//! (4 sites, 16-column TPCH rows, 256-op batches, so ≈ 64 ops a slice
//! and ≈ 165 `ΔV` marks an image; 879 frames of each kind a round):
//!
//! | frame                     | was (B)           | is (B)                    |
//! |---------------------------|-------------------|---------------------------|
//! | `Ack`, `Collect`, `Shutdown` | 1              | 1                         |
//! | `AckN(k)`                 | 5                 | 1 + varint `k` (2)        |
//! | `WaveDone` / `WaveAdvance`| 5                 | 1 + varint wave (2)       |
//! | [`RtFrame::Piggy`] envelope | + 5             | + 1 + varint `k` (+ 2)    |
//! | `Ops`, ≈ 64-op slice      | 9 452 mean        | 3 899 mean, 2 540 packed  |
//! | `Ops`, the 10 000-row `D₀` slice | 2.15 M     | 313 k, 244 k packed       |
//! | `BatchResult`             | 2 791 mean, 833 + 12/mark | 360 mean, 305 packed; ≈ 20 + 2/mark |
//!
//! The old `BatchResult` shipped two dense `n × n × 24 B` matrices of
//! which a site can only ever fill its own row, and was sent *after*
//! the meters it carried were cut and *before* they were reset — its
//! bytes were on the wire and in no report. An image still cannot count
//! the frame that carries it, so the coordinator, who holds that frame,
//! adds it ([`BatchImage::count_own_frame`]):
//! [`ConcurrentHorizontal::wire_stats`] is every byte the nodes wrote,
//! and [`ConcurrentHorizontal::received_bytes`] — counted independently
//! on the inboxes — must equal it between batches.
//!
//! # Piggybacked cumulative acks, flushed on idle
//!
//! Pipelining needs every round closed eventually, but a per-round ack
//! frame for each silent request is pure overhead when several rounds
//! could share one. A serving site therefore *accumulates* an owed-ack
//! counter per requesting peer and closes many silent rounds at once,
//! over two vehicles. While traffic flows, the count rides for free:
//! every outbound protocol frame towards a peer with a non-zero owed
//! counter is wrapped in a [`RtFrame::Piggy`] envelope (two structural
//! bytes below 128 owed rounds; the carried message's modeled `|M|` is
//! untouched) whose cumulative ack pops the `k` oldest outstanding
//! rounds at the receiver *before* the payload is matched — the owed
//! rounds are strictly older, so FIFO reply matching is preserved by
//! construction. When the inbox goes quiet — [`Node::try_recv`] finds
//! nothing and the site is about to block — all owed counters flush as
//! one standalone frame per peer ([`CtrlMsg::Ack`] for a single round,
//! the same six wire bytes a per-round scheme pays; [`CtrlMsg::AckN`]
//! when several rounds batch up).
//!
//! # Flush before you park
//!
//! Two things are held back while a site is busy: owed acks (above) and,
//! on TCP, the frames themselves — a node's write halves are buffered,
//! so a burst of probes, barrier frames and acks towards one peer costs
//! one `write`, not one each. Both are released at the same place and
//! for the same reason. A site parks in exactly one spot, the blocking
//! receive under the runner's frame pump and [`SiteRunner::serve`]; right
//! before it, the runner flushes what it owes and [`Node::recv`] /
//! [`Node::recv_opt`] — which enforce the invariant themselves, see the
//! [`cluster::run`] module docs — flush the sockets. So a blocked site
//! has nothing withheld, and a cycle of sites each waiting on a frame
//! another still buffers (or an ack another still owes) cannot form; no
//! demand/poll round-trip is ever needed. The coordinator adds two
//! flushes that are not parks but hand-offs — after shipping the `Ops`
//! frames and after releasing a barrier — so the sites start while it
//! turns to its own serial work, and one before it joins the site
//! threads on drop (a wait that is not on its inbox).

use crate::detector::{DetectError, Detector};
use crate::horizontal::site::{OpScratch, Round, Site};
use crate::horizontal::HorMsg;
use crate::optimize::SharingMode;
use cfd::{Cfd, DeltaV, OpId, Violations};
use cluster::codec::CodecKind;
use cluster::md5::Digest;
use cluster::net::{unpack_body, FrameCodec, TransportKind};
use cluster::partition::HorizontalScheme;
use cluster::run::{self, Node};
use cluster::{ClusterError, NetReport, NetStats, SiteId, TransportMeter};
use relation::{FxHashMap, RelError, Relation, Schema, Tid, Tuple, Update, UpdateBatch};
use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;

pub mod ctrl;

pub use crate::horizontal::site::SiteConfig;
use ctrl::encode_ops;
pub use ctrl::{BatchImage, CtrlMsg, RtFrame};

/// The coordinator's site id. It is an ordinary site that additionally
/// owns batch admission, wave barriers and result collection.
pub const COORD: SiteId = 0;

/// In-flight ops per site within a wave. Bounds peak buffering; the
/// window never deadlocks because reader threads always drain sockets
/// into unbounded inboxes.
const WINDOW: usize = 128;

fn proto(msg: impl Into<String>) -> DetectError {
    DetectError::Cluster(ClusterError::Transport(msg.into()))
}

// ---------------------------------------------------------------------
// The per-site runner
// ---------------------------------------------------------------------

/// What [`SiteRunner::pump`] surfaces to its caller. Requests (probes,
/// del-queries, clears) are served inside `pump` and never surface.
enum Event {
    /// A reply (or ack) from `src` to one of our outstanding rounds.
    Response(SiteId, Response),
    /// Barrier release for the given wave.
    Advance(u32),
    /// Our slice of a new batch.
    Ops(Vec<(u32, Update)>, u32),
    /// The coordinator wants our batch image.
    Collect,
    /// A site's batch image (coordinator side), its own frame counted.
    Result(Box<BatchImage>),
    /// End of session.
    Shutdown,
}

enum Response {
    /// A `ProbeReply` or `DelReply`.
    Reply(HorMsg),
    Ack,
    /// Cumulative ack: close the `k` oldest outstanding rounds at once.
    AckN(u32),
}

/// What one inbound frame produced: the piggybacked cumulative ack (if
/// any — closes rounds towards `src`, strictly older than whatever the
/// carried payload closes) plus the payload's event.
struct Pumped {
    src: SiteId,
    /// Rounds towards `src` closed by a piggybacked ack count.
    acks: u32,
    event: Option<Event>,
}

/// One outstanding update of the current wave: the peers still to answer
/// and the machine's open round — `None` once a delete has sent its
/// `ClearFlags` and only acks remain.
struct Pending {
    pending: usize,
    round: Option<Round>,
}

/// Reply routing for a pipelined wave. Links are FIFO and peers serve
/// requests in arrival order, so the reply from `src` always belongs to
/// the *oldest* outstanding round we opened towards `src`.
struct WaveState {
    inflight: Vec<Option<Pending>>,
    /// Per peer: outstanding round slots, in send order.
    queues: Vec<VecDeque<usize>>,
    /// Rounds not yet complete.
    open: usize,
}

/// One site of the concurrent runtime: the §6 `Site` machine, the
/// fragment its steps are handed, its slice of `V`, and what is the
/// runtime's own — the frame pump, the owed-ack counters and the barrier
/// bookkeeping. The same struct runs on a spawned thread (threaded mode),
/// on the caller's thread (site 0), or alone inside a `site` process
/// (multi-process mode).
pub struct SiteRunner {
    site: Site,
    /// This site's fragment `σ_{F_me}(D)`: the only copy of a row this
    /// thread or process holds.
    rows: Relation,
    me: SiteId,
    n: usize,
    node: Node,
    violations: Violations,
    dv: DeltaV,
    /// Coordinator only: sites done with the current wave.
    done_count: usize,
    /// Per requesting peer: silently-served rounds not yet acked.
    /// Piggybacked onto the next protocol frame towards that peer
    /// ([`RtFrame::Piggy`]) while traffic flows, flushed as standalone
    /// [`CtrlMsg::Ack`]/[`CtrlMsg::AckN`] frames the moment the inbox
    /// goes idle ([`SiteRunner::flush_owed`]).
    owed: Vec<u32>,
}

impl SiteRunner {
    /// Build a fresh site over its mesh node. Fragments start empty:
    /// initial data flows through the first batch like any other update.
    pub fn new(cfg: SiteConfig, codec: CodecKind, node: Node) -> Self {
        let (n, me) = (node.n_nodes(), node.me());
        SiteRunner {
            rows: Relation::new(cfg.schema.clone()),
            violations: Violations::new(cfg.cfds.len()),
            dv: DeltaV::default(),
            done_count: 0,
            owed: vec![0; n],
            site: Site::new(cfg, me, codec),
            me,
            n,
            node,
        }
    }

    // -- frame pump ----------------------------------------------------

    fn dispatch(&mut self, src: SiteId, method: u8, body: Vec<u8>) -> Result<Pumped, DetectError> {
        let on_wire = body.len();
        let body = unpack_body(method, body).map_err(DetectError::Cluster)?;
        let mut frame = RtFrame::decode_frame(&body).map_err(DetectError::Cluster)?;
        // The one frame its sender could not meter: the image it carries
        // was cut before the frame existed.
        if let RtFrame::Ctrl(CtrlMsg::BatchResult(img)) = &mut frame {
            img.count_own_frame(self.me, body.len(), on_wire);
        }
        match frame {
            RtFrame::Piggy(k, m) => {
                let event = self.on_hor(src, m)?;
                Ok(Pumped {
                    src,
                    acks: k,
                    event,
                })
            }
            RtFrame::Hor(m) => Ok(Pumped {
                src,
                acks: 0,
                event: self.on_hor(src, m)?,
            }),
            RtFrame::Ctrl(c) => Ok(Pumped {
                src,
                acks: 0,
                event: self.on_ctrl(src, c)?,
            }),
        }
    }

    /// Requests are served by the machine on the spot — its reply rides
    /// back at once, a silent round is owed an ack; replies surface.
    fn on_hor(&mut self, src: SiteId, msg: HorMsg) -> Result<Option<Event>, DetectError> {
        if matches!(msg, HorMsg::ProbeReply { .. } | HorMsg::DelReply { .. }) {
            return Ok(Some(Event::Response(src, Response::Reply(msg))));
        }
        let sink = (&mut self.violations, &mut self.dv);
        match self.site.on_request(src, msg, &self.rows, sink)? {
            // A protocol reply carries the owed acks with it, so FIFO
            // matching holds.
            Some(reply) => self.send_hor(src, reply)?,
            // Pipelining needs every round closed eventually: a silent
            // round bumps the owed counter (piggybacked or flushed later).
            None => self.owed[src] += 1,
        }
        Ok(None)
    }

    fn on_ctrl(&mut self, src: SiteId, msg: CtrlMsg) -> Result<Option<Event>, DetectError> {
        match msg {
            CtrlMsg::Ack => Ok(Some(Event::Response(src, Response::Ack))),
            CtrlMsg::AckN(k) => Ok(Some(Event::Response(src, Response::AckN(k)))),
            CtrlMsg::WaveDone(_) => {
                self.done_count += 1;
                Ok(None)
            }
            CtrlMsg::WaveAdvance(w) => Ok(Some(Event::Advance(w))),
            CtrlMsg::Ops { ops, n_waves } => Ok(Some(Event::Ops(ops, n_waves))),
            CtrlMsg::Collect => Ok(Some(Event::Collect)),
            CtrlMsg::BatchResult(img) => Ok(Some(Event::Result(img))),
            CtrlMsg::Shutdown => Ok(Some(Event::Shutdown)),
        }
    }

    /// Take the next frame; serve requests inline, surface everything
    /// else (piggybacked acks included). While the inbox has frames
    /// queued they are drained as-is — owed acks keep accumulating (and
    /// riding piggyback on whatever we send while serving). Only when
    /// the inbox goes idle, *before* blocking, every owed counter is
    /// flushed: nothing else would carry those acks soon, and a peer
    /// may be blocked on exactly them.
    fn pump(&mut self) -> Result<Pumped, DetectError> {
        let (src, method, body) = match self.node.try_recv().map_err(DetectError::Cluster)? {
            Some(frame) => frame,
            None => {
                self.flush_owed()?;
                self.node.recv().map_err(DetectError::Cluster)?
            }
        };
        self.dispatch(src, method, body)
    }

    /// Close every owed silent round with one standalone frame per
    /// peer: the protocol-minimum [`CtrlMsg::Ack`] when a single round
    /// is owed (the common sparse case — same cost as an unbatched
    /// per-round ack), a cumulative [`CtrlMsg::AckN`] when several
    /// batched up.
    fn flush_owed(&mut self) -> Result<(), DetectError> {
        for j in 0..self.n {
            let k = std::mem::take(&mut self.owed[j]);
            match k {
                0 => continue,
                1 => self.node.send_ctrl(j, &CtrlMsg::Ack),
                k => self.node.send_ctrl(j, &CtrlMsg::AckN(k)),
            }
            .map_err(DetectError::Cluster)?;
        }
        Ok(())
    }

    /// Ship a protocol frame towards `dst`, carrying any owed
    /// silent-round acks in a [`RtFrame::Piggy`] envelope. The owed
    /// rounds are strictly older than anything this frame opens or
    /// closes, and the receiver settles the piggybacked count before
    /// matching the payload, so FIFO round matching holds without a
    /// separate [`CtrlMsg::AckN`] frame.
    fn send_hor(&mut self, dst: SiteId, msg: HorMsg) -> Result<(), DetectError> {
        let k = std::mem::take(&mut self.owed[dst]);
        if k == 0 {
            self.node.send(dst, &msg)
        } else {
            self.node.send(dst, &RtFrame::Piggy(k, msg))
        }
        .map_err(DetectError::Cluster)
    }

    // -- own updates ---------------------------------------------------

    /// Run this site's slice of one wave: fire all rounds up front
    /// (windowed), serve peers while they're in flight, fold replies as
    /// they arrive.
    fn run_wave(&mut self, ops: Vec<Update>) -> Result<(), DetectError> {
        let mut ws = WaveState {
            inflight: Vec::new(),
            queues: (0..self.n).map(|_| VecDeque::new()).collect(),
            open: 0,
        };
        for op in ops {
            while ws.open >= WINDOW {
                self.step(&mut ws)?;
            }
            let (rows, sink) = (&mut self.rows, (&mut self.violations, &mut self.dv));
            let opened = match op {
                Update::Insert(t) => self.site.begin_insert(&t, rows, sink)?,
                Update::Delete(tid) => self.site.begin_delete(tid, rows, sink)?,
            };
            if let Some((round, requests)) = opened {
                let slot = ws.inflight.len();
                ws.inflight.push(None);
                ws.open += 1;
                self.open_round(&mut ws, slot, Some(round), requests)?;
            }
        }
        // Drain: silent rounds close via (piggybacked or flushed) acks,
        // which every peer pushes no later than its next idle moment —
        // and `step`'s own pump flushes what *we* owe before blocking,
        // so two draining sites can never starve each other.
        while ws.open > 0 {
            self.step(&mut ws)?;
        }
        Ok(())
    }

    /// Send `requests` and park `round` in `slot` until each asked peer
    /// has answered or acked.
    fn open_round(
        &mut self,
        ws: &mut WaveState,
        slot: usize,
        round: Option<Round>,
        requests: Vec<(SiteId, HorMsg)>,
    ) -> Result<(), DetectError> {
        let pending = requests.len();
        for (j, msg) in requests {
            self.send_hor(j, msg)?;
            ws.queues[j].push_back(slot);
        }
        ws.inflight[slot] = Some(Pending { pending, round });
        Ok(())
    }

    /// Pump one frame and, if it completes rounds, fold them. A
    /// cumulative ack — piggybacked or a standalone
    /// [`Response::AckN`]`(k)` — closes the `k` oldest outstanding
    /// rounds towards `src`; piggybacked acks settle *before* the
    /// carried payload (they cover strictly older rounds).
    fn step(&mut self, ws: &mut WaveState) -> Result<(), DetectError> {
        let p = self.pump()?;
        for _ in 0..p.acks {
            self.settle(p.src, Response::Ack, ws)?;
        }
        let Some(event) = p.event else {
            return Ok(());
        };
        let Event::Response(src, resp) = event else {
            return Err(proto("unexpected control frame mid-wave"));
        };
        if let Response::AckN(k) = resp {
            for _ in 0..k {
                self.settle(src, Response::Ack, ws)?;
            }
            return Ok(());
        }
        self.settle(src, resp, ws)
    }

    /// Fold one reply (or ack) into the oldest outstanding round
    /// towards `src`; the last one finishes the round.
    fn settle(
        &mut self,
        src: SiteId,
        resp: Response,
        ws: &mut WaveState,
    ) -> Result<(), DetectError> {
        let slot = ws.queues[src]
            .pop_front()
            .ok_or_else(|| proto(format!("reply from site {src} with no outstanding round")))?;
        let p = ws.inflight[slot].as_mut().expect("routed slot is live");
        match (resp, &mut p.round) {
            (Response::Reply(msg), Some(round)) => self.site.on_reply(round, src, msg)?,
            (Response::Ack, _) => {}
            _ => return Err(proto("reply type does not match the outstanding round")),
        }
        p.pending -= 1;
        if p.pending > 0 {
            return Ok(());
        }
        let p = ws.inflight[slot].take().expect("routed slot is live");
        let clears = match p.round {
            Some(round) => self
                .site
                .finish(round, (&mut self.violations, &mut self.dv))?,
            None => Vec::new(),
        };
        if clears.is_empty() {
            ws.open -= 1;
            return Ok(());
        }
        // The clear round of a delete keeps the slot: only acks remain.
        self.open_round(ws, slot, None, clears)
    }

    // -- batch / session loops -----------------------------------------

    /// Run our slice of one batch: per wave, execute our ops, report
    /// done, serve peers until the barrier releases; then report the
    /// batch image when asked.
    fn run_batch(&mut self, ops: Vec<(u32, Update)>, n_waves: u32) -> Result<(), DetectError> {
        let mut by_wave: Vec<Vec<Update>> = (0..n_waves).map(|_| Vec::new()).collect();
        for (w, op) in ops {
            by_wave
                .get_mut(w as usize)
                .ok_or_else(|| proto("op wave out of range"))?
                .push(op);
        }
        for (w, wave_ops) in by_wave.into_iter().enumerate() {
            self.run_wave(wave_ops)?;
            self.node
                .send_ctrl(COORD, &CtrlMsg::WaveDone(w as u32))
                .map_err(DetectError::Cluster)?;
            loop {
                let p = self.pump()?;
                match (p.acks, p.event) {
                    (0, None) => {}
                    (0, Some(Event::Advance(x))) if x == w as u32 => break,
                    _ => return Err(proto("unexpected frame at a wave barrier")),
                }
            }
        }
        loop {
            let p = self.pump()?;
            match (p.acks, p.event) {
                (0, None) => {}
                (0, Some(Event::Collect)) => break,
                _ => return Err(proto("unexpected frame before collection")),
            }
        }
        // Settled marks are sorted (small deltas on the wire) and net of
        // this site's own add/remove pairs; `ΔV` sums across sites, so
        // the coordinator's global settle sees the same net change.
        self.dv.settle();
        let img = BatchImage {
            added: std::mem::take(&mut self.dv.added),
            removed: std::mem::take(&mut self.dv.removed),
            stats: self.node.stats().row(self.me).collect(),
            wire: self.node.wire_stats().row(self.me).collect(),
            meter: self.node.meter(),
            received: self.node.received_bytes(),
        };
        // The image's own frame is metered by its receiver (the image
        // was cut before the frame existed), so resetting *after* the
        // send drops nothing: every byte this node wrote is in exactly
        // one image or counted by the coordinator.
        self.node
            .send_ctrl(COORD, &CtrlMsg::BatchResult(Box::new(img)))
            .map_err(DetectError::Cluster)?;
        self.node.reset_stats();
        Ok(())
    }

    /// The site main loop: serve batches until shutdown. This is what a
    /// spawned site thread (or a `site` process) runs. Same idle-flush
    /// discipline as the frame pump: a peer's wave-0 probe can
    /// outrace our own `Ops` frame across links, so rounds served here
    /// must still ack the moment the inbox goes quiet.
    pub fn serve(mut self) -> Result<(), DetectError> {
        loop {
            let (src, method, body) = match self.node.try_recv().map_err(DetectError::Cluster)? {
                Some(frame) => frame,
                None => {
                    self.flush_owed()?;
                    match self.node.recv_opt().map_err(DetectError::Cluster)? {
                        Some(frame) => frame,
                        None => continue, // idle between batches
                    }
                }
            };
            let p = self.dispatch(src, method, body)?;
            match (p.acks, p.event) {
                (0, None) => {}
                (0, Some(Event::Ops(ops, n_waves))) => self.run_batch(ops, n_waves)?,
                (0, Some(Event::Shutdown)) => return Ok(()),
                _ => return Err(proto("unexpected frame while idle")),
            }
        }
    }
}

// ---------------------------------------------------------------------
// The coordinator-side detector
// ---------------------------------------------------------------------

/// The scheduler's footprint rule: an update waits for the last earlier
/// one sharing an `(operator, group-key)` pair it can touch anywhere in the
/// mesh — the machine's own candidate list, by operator — or its
/// tid (a modification normalizes to `delete + insert` of one tid,
/// possibly at *different* homes). The scratch is kept between batches —
/// placing is the one part of a batch no site can overlap with — but the
/// two maps are sized by the batch and go with it, so the load's
/// 4 096-op windows do not stay resident.
#[derive(Default)]
pub(crate) struct WavePlanner {
    last_fp: FxHashMap<(OpId, Digest), u32>,
    last_tid: FxHashMap<Tid, u32>,
    sx: OpScratch,
    /// Waves the batch needs so far.
    pub(crate) n_waves: u32,
}

impl WavePlanner {
    /// End the batch: the waves it needs, with the maps given back.
    pub(crate) fn finish(&mut self) -> u32 {
        self.last_fp = FxHashMap::default();
        self.last_tid = FxHashMap::default();
        std::mem::take(&mut self.n_waves)
    }

    /// The first wave after every conflicting predecessor of `t`'s update.
    pub(crate) fn place(&mut self, cfg: &SiteConfig, t: &Tuple) -> u32 {
        cfg.candidates(SharingMode::Shared, t, &mut self.sx);
        let footprint = || self.sx.footprint(&cfg.plan);
        let after_tid = self.last_tid.get(&t.tid).map_or(0, |&x| x + 1);
        let earlier = footprint().filter_map(|k| self.last_fp.get(&k));
        let w = earlier.fold(after_tid, |w, &x| w.max(x + 1));
        self.last_fp.extend(footprint().map(|k| (k, w)));
        self.last_tid.insert(t.tid, w);
        self.n_waves = self.n_waves.max(w + 1);
        w
    }
}

/// Run one non-coordinator site of a **multi-process** mesh to
/// completion: join the mesh on fixed localhost ports, serve batches,
/// return on shutdown. The entry point of the bench crate's `site`
/// binary.
pub fn run_site(
    schema: Arc<Schema>,
    cfds: Vec<Cfd>,
    scheme: &HorizontalScheme,
    me: SiteId,
    codec: CodecKind,
    base_port: u16,
) -> Result<(), DetectError> {
    let cfg = SiteConfig::new(schema, cfds, scheme);
    let node = run::join(scheme.n_sites(), me, base_port)
        .map_err(DetectError::Cluster)?
        .with_compression(codec.compression());
    SiteRunner::new(cfg, codec, node).serve()
}

/// One site's wave-tagged batch slice, borrowed from the batch.
type WaveOps<'a> = Vec<(u32, &'a Update)>;

/// The concurrent `incHor` session: site 0 (the coordinator) runs on
/// the caller's thread; sites `1..n` are OS threads (threaded mode) or
/// separate processes joined over localhost TCP (distributed mode).
pub struct ConcurrentHorizontal {
    scheme: HorizontalScheme,
    /// Mirror of the logical relation (union of all fragments): what
    /// admission normalises against, what deletes are scheduled from and
    /// what [`Detector::current`] returns — the sites' rows live on other
    /// threads or in other processes. The coordinator being site 0 too,
    /// its own slice is in here and in its runner's fragment.
    current: Relation,
    site_of_tid: FxHashMap<Tid, SiteId>,
    /// Global `V` mirror, folded from the per-site images.
    violations: Violations,
    runner: SiteRunner,
    handles: Vec<JoinHandle<Result<(), DetectError>>>,
    codec_kind: CodecKind,
    label: &'static str,
    stats: NetStats,
    wire: NetStats,
    meter: TransportMeter,
    /// Wire bytes of the frames every site took off its inbox.
    received: u64,
    /// Total scheduler waves executed across all batches (deterministic).
    waves: u64,
    planner: WavePlanner,
    n: usize,
}

impl ConcurrentHorizontal {
    /// One OS thread per site over the chosen transport:
    /// [`TransportKind::Tcp`] uses the localhost socket mesh, anything
    /// else the in-process frame channels.
    pub fn threaded(
        schema: Arc<Schema>,
        cfds: Vec<Cfd>,
        scheme: HorizontalScheme,
        d: &Relation,
        codec: CodecKind,
        transport: TransportKind,
    ) -> Result<Self, DetectError> {
        let n = scheme.n_sites();
        let cfg = SiteConfig::new(schema, cfds, &scheme);
        let nodes = match transport {
            TransportKind::Tcp => run::tcp_mesh(n).map_err(DetectError::Cluster)?,
            _ => run::mem_mesh(n),
        };
        let mut it = nodes
            .into_iter()
            .map(|nd| nd.with_compression(codec.compression()));
        let node0 = it.next().expect("mesh has at least one node");
        let handles = it
            .map(|node| {
                let runner = SiteRunner::new(cfg.clone(), codec, node);
                std::thread::Builder::new()
                    .name(format!("site-{}", runner.me))
                    .spawn(move || runner.serve())
                    .expect("spawn site thread")
            })
            .collect();
        Self::finish_build(
            scheme,
            SiteRunner::new(cfg, codec, node0),
            handles,
            codec,
            "incHorMt",
            d,
        )
    }

    /// Join an `n`-process mesh on fixed localhost ports as the
    /// coordinator. The `n - 1` site processes must run
    /// [`run_site`] with the same `(schema, Σ, scheme, codec,
    /// base_port)` — each site derives its configuration independently,
    /// nothing but frames crosses process boundaries.
    pub fn distributed(
        schema: Arc<Schema>,
        cfds: Vec<Cfd>,
        scheme: HorizontalScheme,
        d: &Relation,
        codec: CodecKind,
        base_port: u16,
    ) -> Result<Self, DetectError> {
        let n = scheme.n_sites();
        let cfg = SiteConfig::new(schema, cfds, &scheme);
        let node0 = run::join(n, COORD, base_port)
            .map_err(DetectError::Cluster)?
            .with_compression(codec.compression());
        Self::finish_build(
            scheme,
            SiteRunner::new(cfg, codec, node0),
            Vec::new(),
            codec,
            "incHorMp",
            d,
        )
    }

    fn finish_build(
        scheme: HorizontalScheme,
        runner: SiteRunner,
        handles: Vec<JoinHandle<Result<(), DetectError>>>,
        codec: CodecKind,
        label: &'static str,
        d: &Relation,
    ) -> Result<Self, DetectError> {
        let n = scheme.n_sites();
        let cfg = runner.site.cfg();
        let mut det = ConcurrentHorizontal {
            current: Relation::new(cfg.schema.clone()),
            site_of_tid: FxHashMap::default(),
            violations: Violations::new(cfg.cfds.len()),
            stats: NetStats::new(n),
            wire: NetStats::new(n),
            meter: TransportMeter::default(),
            received: 0,
            waves: 0,
            planner: WavePlanner::default(),
            codec_kind: codec,
            label,
            scheme,
            runner,
            handles,
            n,
        };
        // Initial load: every site starts empty; d flows through the
        // regular batch path (then the meters reset, like the
        // sequential constructor).
        crate::detector::ingest(d, |window| det.apply_batch(window))?;
        det.reset_meters();
        Ok(det)
    }

    /// Assign every op of an admitted batch a home site and a wave
    /// ([`WavePlanner`]): `(home, wave)` per op in batch order, plus the
    /// number of waves. Tuples are read where they lie.
    fn schedule(&mut self, delta: &UpdateBatch) -> Result<(Vec<(SiteId, u32)>, u32), DetectError> {
        let cfg = self.runner.site.cfg();
        let place = |op: &Update| match op {
            Update::Insert(t) => Ok((self.scheme.route(t)?, self.planner.place(cfg, t))),
            Update::Delete(tid) => {
                let t = self.current.get(*tid).ok_or(RelError::MissingTid(*tid))?;
                let home = *self
                    .site_of_tid
                    .get(tid)
                    .expect("live tuple has a home site");
                Ok((home, self.planner.place(cfg, &t)))
            }
        };
        let placed: Result<_, DetectError> = delta.ops().iter().map(place).collect();
        // A failed batch ends here too: its footprints must not outlive it.
        let n_waves = self.planner.finish();
        Ok((placed?, n_waves))
    }

    fn apply_batch(&mut self, delta: &UpdateBatch) -> Result<DeltaV, DetectError> {
        let delta = crate::detector::admit(&self.current, delta)?;
        let mut dv = DeltaV::default();
        if delta.ops().is_empty() {
            return Ok(dv);
        }
        let (placed, n_waves) = self.schedule(&delta)?;
        self.waves += u64::from(n_waves);
        // Remote slices are written to their frames straight from the
        // batch; only our own slice is ever held as owned ops.
        let mut per_site: Vec<WaveOps<'_>> = (0..self.n).map(|_| Vec::new()).collect();
        for (op, &(home, w)) in delta.ops().iter().zip(&placed) {
            per_site[home].push((w, op));
        }
        let node = &mut self.runner.node;
        for (j, slice) in per_site.iter().enumerate().skip(1) {
            node.send_ctrl_with(j, |out| encode_ops(out, n_waves, slice))
                .map_err(DetectError::Cluster)?;
        }
        // Not a park, but the next stretch is ours alone (the mirror
        // update): put the sites to work before starting on it.
        node.flush().map_err(DetectError::Cluster)?;
        let mut mine: Vec<Vec<Update>> = (0..n_waves).map(|_| Vec::new()).collect();
        for &(w, op) in &per_site[COORD] {
            mine[w as usize].push(op.clone());
        }
        // Update the logical mirror (sites own the physical fragments).
        for (op, &(home, _)) in delta.ops().iter().zip(&placed) {
            match op {
                Update::Insert(t) => {
                    self.site_of_tid.insert(t.tid, home);
                    self.current
                        .insert_row(t.tid, t.values.iter())
                        .map_err(DetectError::Rel)?;
                }
                Update::Delete(tid) => {
                    self.site_of_tid.remove(tid);
                    self.current.delete_quiet(*tid).map_err(DetectError::Rel)?;
                }
            }
        }
        // Drive our own slice, holding every wave barrier until all
        // sites report done.
        for (w, ops) in mine.into_iter().enumerate() {
            self.runner.run_wave(ops)?;
            while self.runner.done_count < self.n - 1 {
                let p = self.runner.pump()?;
                if p.acks > 0 || p.event.is_some() {
                    return Err(proto("unexpected frame at a wave barrier"));
                }
            }
            self.runner.done_count = 0;
            for j in 1..self.n {
                self.runner
                    .node
                    .send_ctrl(j, &CtrlMsg::WaveAdvance(w as u32))
                    .map_err(DetectError::Cluster)?;
            }
            // Every site is parked on this barrier: release them before
            // computing our own slice of the next wave.
            self.runner.node.flush().map_err(DetectError::Cluster)?;
        }
        // Collect per-site images; fold ΔV and the meters.
        for j in 1..self.n {
            self.runner
                .node
                .send_ctrl(j, &CtrlMsg::Collect)
                .map_err(DetectError::Cluster)?;
        }
        dv.added = std::mem::take(&mut self.runner.dv.added);
        dv.removed = std::mem::take(&mut self.runner.dv.removed);
        let mut got = 0;
        while got < self.n - 1 {
            let p = self.runner.pump()?;
            match (p.acks, p.event) {
                (0, None) => {}
                (0, Some(Event::Result(img))) => {
                    self.absorb_image(p.src, &img)?;
                    dv.added.extend(img.added);
                    dv.removed.extend(img.removed);
                    got += 1;
                }
                _ => return Err(proto("unexpected frame during collection")),
            }
        }
        self.absorb_runner_meters();
        dv.settle();
        for &(c, t) in &dv.added {
            self.violations.add(c, t);
        }
        for &(c, t) in &dv.removed {
            self.violations.remove(c, t);
        }
        Ok(dv)
    }

    /// Fold site `src`'s meters into the session's.
    fn absorb_image(&mut self, src: SiteId, img: &BatchImage) -> Result<(), DetectError> {
        for (matrix, cells) in [(&mut self.stats, &img.stats), (&mut self.wire, &img.wire)] {
            for (dst, c) in cells {
                if *dst >= self.n || *dst == src {
                    return Err(proto(format!("site {src} metered a link to site {dst}")));
                }
                matrix.add(src, *dst, c);
            }
        }
        self.meter.merge(&img.meter);
        self.received += img.received;
        Ok(())
    }

    fn absorb_runner_meters(&mut self) {
        let node = &mut self.runner.node;
        self.stats.merge(node.stats());
        self.wire.merge(node.wire_stats());
        self.meter.merge(&node.meter());
        self.received += node.received_bytes();
        node.reset_stats();
    }

    fn reset_meters(&mut self) {
        self.stats.reset();
        self.wire.reset();
        self.meter = TransportMeter::default();
        self.received = 0;
        self.waves = 0;
    }

    /// Scheduler waves executed since the last reset. Deterministic:
    /// the greedy wave assignment depends only on the op stream.
    pub fn waves(&self) -> u64 {
        self.waves
    }

    /// Cumulative modeled `|M|` since the last reset (all sites merged).
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Cumulative measured on-wire bytes, control frames included.
    pub fn wire_stats(&self) -> &NetStats {
        &self.wire
    }

    /// Merged transport counters of every site.
    pub fn transport_meter(&self) -> TransportMeter {
        self.meter
    }

    /// Wire bytes of the frames every site took off its inbox — the
    /// receive-side twin of `transport_meter().wire_bytes`. Between
    /// batches the mesh is at rest and the two are equal: every frame a
    /// node metered was read, every frame read had been metered.
    pub fn received_bytes(&self) -> u64 {
        self.received
    }

    /// Number of sites.
    pub fn n_sites(&self) -> usize {
        self.n
    }

    /// Group-state census of the coordinator's own site (the others live
    /// on their threads; rolling them up would widen `BatchResult`).
    #[cfg(test)]
    pub(crate) fn coordinator_census(&self) -> crate::horizontal::StateCensus {
        let mut census = crate::horizontal::StateCensus::default();
        self.runner.site.count_into(&mut census);
        census
    }

    /// Symbols resident on each link into the coordinator.
    #[cfg(test)]
    pub(crate) fn coordinator_resident_symbols(&self) -> Vec<usize> {
        self.runner.site.resident_symbols().collect()
    }
}

impl Detector for ConcurrentHorizontal {
    fn strategy(&self) -> &'static str {
        self.label
    }

    fn schema(&self) -> &Arc<Schema> {
        &self.runner.site.cfg().schema
    }

    fn cfds(&self) -> &[Cfd] {
        &self.runner.site.cfg().cfds
    }

    fn current(&self) -> &Relation {
        &self.current
    }

    fn violations(&self) -> &Violations {
        &self.violations
    }

    fn apply(&mut self, delta: &UpdateBatch) -> Result<DeltaV, DetectError> {
        self.apply_batch(delta)
    }

    fn net(&self) -> NetReport {
        NetReport::single(self.stats.clone())
            .with_codec(self.codec_kind.name())
            .with_measured(self.wire.clone())
    }

    fn reset_stats(&mut self) {
        self.reset_meters();
    }
}

impl Drop for ConcurrentHorizontal {
    fn drop(&mut self) {
        for j in 1..self.n {
            let _ = self.runner.node.send_ctrl(j, &CtrlMsg::Shutdown);
        }
        // We wait on the threads, not on the inbox: flush by hand.
        let _ = self.runner.node.flush();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::horizontal::fixtures::{d0, emp_schema, emp_tuple, fig1_cfds, fig2_scheme};
    use crate::HorizontalDetector;

    /// The differential script: zero-shipment inserts, cross-site
    /// conflicts, witness-protected deletes, remote clears, and a
    /// same-tid modification that *moves* the tuple across fragments.
    fn script() -> Vec<UpdateBatch> {
        let mut b1 = UpdateBatch::new();
        b1.insert(emp_tuple(6, "C", 44, 131, "EH4 8LE", "Mayfield", "EDI"));
        b1.insert(emp_tuple(10, "A", 44, 131, "EH7 7AA", "Foo", "EDI"));
        b1.insert(emp_tuple(11, "B", 44, 131, "EH7 7AA", "Bar", "EDI"));
        let mut b2 = UpdateBatch::new();
        b2.delete(4);
        b2.delete(11);
        b2.insert(emp_tuple(12, "C", 44, 131, "EH2 4HF", "Preston", "EDI"));
        let mut b3 = UpdateBatch::new();
        // Modification: t3 changes grade (B → A fragment) and street.
        b3.insert(emp_tuple(3, "A", 44, 131, "EH4 8LE", "Crichton", "EDI"));
        b3.delete(10);
        vec![b1, b2, b3]
    }

    fn assert_tracks_sequential(
        mut conc: ConcurrentHorizontal,
        codec: CodecKind,
        batches: &[UpdateBatch],
    ) {
        let s = emp_schema();
        let mut seq =
            HorizontalDetector::with_codec(s.clone(), fig1_cfds(&s), fig2_scheme(&s), &d0(), codec)
                .unwrap();
        assert_eq!(
            conc.violations().marks_sorted(),
            seq.violations().marks_sorted(),
            "initial load diverged"
        );
        for (i, b) in batches.iter().enumerate() {
            let dv_c = conc.apply_batch(b).unwrap();
            let dv_s = Detector::apply(&mut seq, b).unwrap();
            assert_eq!(
                (dv_c.added.clone(), dv_c.removed.clone()),
                (dv_s.added.clone(), dv_s.removed.clone()),
                "ΔV diverged at batch {i}"
            );
            assert_eq!(
                conc.violations().marks_sorted(),
                seq.violations().marks_sorted(),
                "V diverged at batch {i}"
            );
            assert_eq!(
                conc.stats().to_bytes(),
                seq.stats().to_bytes(),
                "modeled |M| matrix diverged at batch {i}"
            );
        }
        assert_eq!(conc.current().len(), seq.current().len());
    }

    #[test]
    fn threaded_mem_matches_sequential_for_every_codec() {
        for codec in [
            CodecKind::RawValues,
            CodecKind::Md5,
            CodecKind::Dict,
            CodecKind::Lz,
        ] {
            let s = emp_schema();
            let conc = ConcurrentHorizontal::threaded(
                s.clone(),
                fig1_cfds(&s),
                fig2_scheme(&s),
                &d0(),
                codec,
                TransportKind::Framed,
            )
            .unwrap();
            assert_eq!(conc.strategy(), "incHorMt");
            assert_tracks_sequential(conc, codec, &script());
        }
    }

    #[test]
    fn threaded_tcp_matches_sequential() {
        let s = emp_schema();
        let conc = ConcurrentHorizontal::threaded(
            s.clone(),
            fig1_cfds(&s),
            fig2_scheme(&s),
            &d0(),
            CodecKind::Md5,
            TransportKind::Tcp,
        )
        .unwrap();
        assert!(conc.transport_meter().frames > 0 || conc.stats().total_bytes() == 0);
        assert_tracks_sequential(conc, CodecKind::Md5, &script());
    }

    #[test]
    fn wire_meter_identity_holds_and_ctrl_is_unmodeled() {
        let s = emp_schema();
        let mut conc = ConcurrentHorizontal::threaded(
            s.clone(),
            fig1_cfds(&s),
            fig2_scheme(&s),
            &d0(),
            CodecKind::Md5,
            TransportKind::Framed,
        )
        .unwrap();
        let mut b = UpdateBatch::new();
        b.insert(emp_tuple(10, "A", 44, 131, "EH7 7AA", "Foo", "EDI"));
        b.insert(emp_tuple(11, "B", 44, 131, "EH7 7AA", "Bar", "EDI"));
        conc.apply_batch(&b).unwrap();
        let m = conc.transport_meter();
        assert_eq!(
            m.wire_bytes,
            m.modeled_bytes + m.structural_bytes - m.saved_bytes,
            "transport identity"
        );
        // Wave barriers + acks exist, but only protocol frames are |M|.
        assert!(m.frames > conc.stats().total_messages());
        assert_eq!(conc.stats().total_bytes(), m.modeled_bytes);
    }

    /// What the nodes metered on the way out is, byte for byte, what
    /// their peers took off the inboxes — `BatchResult` frames and
    /// LZ-packed control frames included.
    #[test]
    fn every_written_byte_is_metered_and_received() {
        let s = emp_schema();
        let mut conc = ConcurrentHorizontal::threaded(
            s.clone(),
            fig1_cfds(&s),
            fig2_scheme(&s),
            &d0(),
            CodecKind::Md5,
            TransportKind::Framed,
        )
        .unwrap();
        assert_eq!(conc.received_bytes(), 0, "the load is not on the meters");
        // A slice long enough for its `Ops` frame to be offered to LZ.
        let mut wide = UpdateBatch::new();
        for i in 0..48 {
            let street = format!("{} Long Meadow Gardens", 100 + i);
            wide.insert(emp_tuple(100 + i, "B", 44, 131, "EH9 1AA", &street, "EDI"));
        }
        let mut batches = script();
        batches.push(wide);
        let mut before = 0;
        for (i, b) in batches.iter().enumerate() {
            conc.apply_batch(b).unwrap();
            let m = conc.transport_meter();
            assert!(m.wire_bytes > before, "batch {i} moved bytes");
            before = m.wire_bytes;
            assert_eq!(conc.received_bytes(), m.wire_bytes, "batch {i}");
            assert_eq!(conc.wire_stats().total_bytes(), m.wire_bytes, "batch {i}");
            assert_eq!(conc.wire_stats().total_messages(), m.frames, "batch {i}");
            assert_eq!(
                m.wire_bytes,
                m.modeled_bytes + m.structural_bytes - m.saved_bytes,
                "batch {i}"
            );
            assert_eq!(conc.stats().total_bytes(), m.modeled_bytes, "batch {i}");
        }
        // The md5 session packs no protocol frame: every saved byte is a
        // control frame's.
        assert!(conc.transport_meter().saved_bytes > 0);
    }

    /// Seeded interleaving stress: many small conflicting batches over
    /// a wider hash-partitioned mesh, checked batch-by-batch against
    /// the sequential drive (state, ΔV and the modeled byte matrix).
    fn stress(n_sites: usize, seed: u64, n_batches: usize) {
        let s = emp_schema();
        let scheme =
            HorizontalScheme::by_hash(s.clone(), s.attr_id("id").unwrap(), n_sites).unwrap();
        let cfds = fig1_cfds(&s);
        let mut conc = ConcurrentHorizontal::threaded(
            s.clone(),
            cfds.clone(),
            scheme.clone(),
            &Relation::new(s.clone()),
            CodecKind::Md5,
            TransportKind::Framed,
        )
        .unwrap();
        let mut seq = HorizontalDetector::with_codec(
            s.clone(),
            cfds,
            scheme,
            &Relation::new(s.clone()),
            CodecKind::Md5,
        )
        .unwrap();
        let mut rng = seed;
        let mut next = move || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) as usize
        };
        let zips = ["Z1", "Z2", "Z3"];
        let streets = ["S1", "S2", "S3", "S4"];
        let cities = ["EDI", "NYC"];
        let mut live: Vec<Tid> = Vec::new();
        let mut tid_next: Tid = 1;
        for i in 0..n_batches {
            let mut b = UpdateBatch::new();
            for _ in 0..(2 + next() % 6) {
                let del = !live.is_empty() && next() % 4 == 0;
                if del {
                    let k = next() % live.len();
                    b.delete(live.swap_remove(k));
                } else {
                    let modify = !live.is_empty() && next() % 5 == 0;
                    let tid = if modify {
                        live[next() % live.len()]
                    } else {
                        tid_next += 1;
                        live.push(tid_next);
                        tid_next
                    };
                    b.insert(emp_tuple(
                        tid,
                        "A",
                        44,
                        131,
                        zips[next() % zips.len()],
                        streets[next() % streets.len()],
                        cities[next() % cities.len()],
                    ));
                }
            }
            let dv_c = conc.apply_batch(&b).unwrap();
            let dv_s = Detector::apply(&mut seq, &b).unwrap();
            assert_eq!(dv_c.added, dv_s.added, "batch {i} Δ⁺");
            assert_eq!(dv_c.removed, dv_s.removed, "batch {i} Δ⁻");
            assert_eq!(
                conc.violations().marks_sorted(),
                seq.violations().marks_sorted(),
                "batch {i} V"
            );
            assert_eq!(
                conc.stats().to_bytes(),
                seq.stats().to_bytes(),
                "batch {i} |M| matrix"
            );
        }
    }

    #[test]
    fn interleaving_stress_8_sites() {
        stress(8, 0xC0FFEE, 30);
    }

    #[test]
    fn interleaving_stress_16_sites() {
        stress(16, 0xBADCAB, 18);
    }

    /// A frame the codec decodes but the protocol cannot mean ends the
    /// site's `serve` with a typed error naming the link — its thread
    /// returns, it does not panic.
    #[test]
    fn forged_frame_ends_the_site_with_a_typed_error() {
        let s = emp_schema();
        let cfg = SiteConfig::new(s.clone(), fig1_cfds(&s), &fig2_scheme(&s));
        let mut nodes = run::mem_mesh(2).into_iter();
        let (mut forger, node) = (nodes.next().unwrap(), nodes.next().unwrap());
        let site = SiteRunner::new(cfg, CodecKind::Md5, node);
        let handle = std::thread::spawn(move || site.serve());
        let forged = HorMsg::ClearFlags {
            attrs: vec![],
            cfds: vec![u32::MAX],
        };
        forger.send(1, &forged).unwrap();
        forger.flush().unwrap();
        match handle.join().expect("the site thread must not panic") {
            Err(DetectError::Cluster(e)) => {
                let msg = e.to_string();
                assert!(msg.contains("0 → 1") && msg.contains("ClearFlags"), "{msg}");
                assert!(msg.contains("operator 4294967295"), "{msg}");
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    #[test]
    fn schedule_separates_conflicting_ops_into_waves() {
        let s = emp_schema();
        let mut conc = ConcurrentHorizontal::threaded(
            s.clone(),
            fig1_cfds(&s),
            fig2_scheme(&s),
            &d0(),
            CodecKind::Md5,
            TransportKind::Framed,
        )
        .unwrap();
        // Same zip ⇒ same φ0 group ⇒ must serialize. φ1's RHS is a
        // constant (`city = EDI`), so it is a *constant* CFD and adds no
        // footprint: the distinct-zip tuple rides in wave 0.
        let mut b = UpdateBatch::new();
        b.insert(emp_tuple(20, "A", 44, 131, "EH9 9ZZ", "P", "EDI"));
        b.insert(emp_tuple(21, "B", 44, 131, "EH9 9ZZ", "Q", "EDI"));
        b.insert(emp_tuple(22, "C", 44, 131, "EH8 8YY", "R", "EDI"));
        let delta = b.normalize(&conc.current);
        let (placed, n_waves) = conc.schedule(&delta).unwrap();
        assert_eq!(n_waves, 2, "the shared-zip pair serializes on φ0");
        // One (home, wave) per op, in batch order: grades A, B, C live
        // at sites 0, 1, 2, and only the second shared-zip op waits.
        assert_eq!(placed, vec![(0, 0), (1, 1), (2, 0)]);
        // Distinct tids with no shared group: one wave.
        let mut b2 = UpdateBatch::new();
        b2.insert(emp_tuple(30, "A", 1, 1, "X1", "P", "EDI"));
        b2.insert(emp_tuple(31, "B", 2, 2, "X2", "Q", "EDI"));
        let delta2 = b2.normalize(&conc.current);
        let (_, n_waves2) = conc.schedule(&delta2).unwrap();
        assert_eq!(n_waves2, 1, "disjoint footprints share a wave");
    }
}
