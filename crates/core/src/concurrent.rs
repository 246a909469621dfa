//! Truly concurrent horizontal detection: one unit of execution per site.
//!
//! [`crate::HorizontalDetector`] runs the §6 protocol with every site's
//! state in one struct, one thread driving all rounds synchronously. This
//! module re-runs the *same* protocol — same [`HorMsg`] frames, same
//! codecs, same case analysis, bit-identical modeled `|M|` — with each
//! site as a real OS thread ([`ConcurrentHorizontal::threaded`]) or a
//! real OS process ([`ConcurrentHorizontal::distributed`] plus the
//! `site` binary in the bench crate), communicating **only** via byte
//! frames over a [`cluster::run::Node`] mesh. No detector state is
//! shared: each site owns its fragment, its per-CFD group state, its
//! slice of `V`, and its receiver-side codec state, exactly as the
//! paper's EC2 deployment would.
//!
//! # Wave-parallel scheduling
//!
//! A batch is deterministic only if conflicting updates never race. The
//! coordinator (site 0 — just another site that also happens to own the
//! batch) assigns every normalized update a **wave**: the footprint of an
//! update is the set of `(CFD, group-key digest)` pairs it can touch
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
//!
//! Candidate generation itself runs through the shared [`SharedPlan`]
//! dispatch (one pass over the rule set per update instead of one
//! `matches_lhs` scan per CFD), with per-update attribute digests hashed
//! once and shared across every CFD in the same LHS key group.

use crate::detector::{DetectError, Detector};
use crate::horizontal::{
    class_values, clear_group, delete_case, insert_case, key_digest_from, mark_group, wire_attrs,
    GroupState, HorMsg, HorizontalDetector,
};
use crate::md5::Digest;
use cfd::{Cfd, CfdId, DeltaV, MatchScratch, SharedPlan, Violations};
use cluster::codec::{value_digest as attr_digest, CodecKind, PayloadCodec, ReceiverCodec};
use cluster::net::{unpack_body, FrameCodec, TransportKind};
use cluster::partition::HorizontalScheme;
use cluster::run::{self, Node};
use cluster::{ClusterError, NetReport, NetStats, SiteId, TransportMeter, WireValue};
use relation::{
    AttrId, FxHashMap, FxHashSet, RelError, Relation, Schema, Tid, Tuple, Update, UpdateBatch,
};
use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;

pub mod ctrl;

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
// Shared per-site configuration
// ---------------------------------------------------------------------

/// Everything a site derives from `(schema, Σ, scheme)` alone —
/// identical at every site, cheap to clone (all `Arc`s), and
/// reconstructible in a separate process from the same inputs.
#[derive(Debug, Clone)]
pub struct SiteConfig {
    pub(crate) schema: Arc<Schema>,
    pub(crate) cfds: Arc<[Cfd]>,
    /// Operator-shared dispatch over `Σ` (one pass per update).
    plan: Arc<SharedPlan>,
    atom_digests: Arc<[Vec<(AttrId, Digest)>]>,
    lhs_groups: Arc<[(Vec<AttrId>, Vec<CfdId>)]>,
    /// `local_ok[cfd][site]`: `X_{F_i} ⊆ X` — no cross-site conflicts.
    local_ok: Arc<[Vec<bool>]>,
    /// `relevant[cfd]`: sites where `F_i ∧ F_φ` is satisfiable.
    relevant: Arc<[Vec<SiteId>]>,
}

impl SiteConfig {
    /// Derive the shared configuration (same computation as the
    /// sequential detector's constructor).
    pub fn new(schema: Arc<Schema>, cfds: Vec<Cfd>, scheme: &HorizontalScheme) -> Self {
        let n = scheme.n_sites();
        let mut local_ok = Vec::with_capacity(cfds.len());
        let mut relevant = Vec::with_capacity(cfds.len());
        for cfd in &cfds {
            let lhs: FxHashSet<_> = cfd.lhs.iter().copied().collect();
            local_ok.push(
                (0..n)
                    .map(|i| scheme.predicate(i).attrs().iter().all(|a| lhs.contains(a)))
                    .collect::<Vec<bool>>(),
            );
            let atoms = cfd.constant_atoms();
            relevant.push(
                (0..n)
                    .filter(|&i| !scheme.predicate(i).conflicts_with_atoms(&atoms))
                    .collect::<Vec<SiteId>>(),
            );
        }
        let atom_digests: Arc<[Vec<(AttrId, Digest)>]> = cfds
            .iter()
            .map(|c| {
                c.constant_atoms()
                    .into_iter()
                    .map(|(a, v)| (a, attr_digest(&v)))
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
            .into();
        let plan = Arc::new(SharedPlan::new(&cfds));
        // The receiver-side implicit-query walk groups variable CFDs by
        // identical LHS; the shared plan's key groups are exactly that
        // partition, in the same first-seen order.
        let lhs_groups: Arc<[(Vec<AttrId>, Vec<CfdId>)]> = plan.key_groups().to_vec().into();
        SiteConfig {
            schema,
            cfds: cfds.into(),
            plan,
            atom_digests,
            lhs_groups,
            local_ok: local_ok.into(),
            relevant: relevant.into(),
        }
    }
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
    Conflicts(Vec<CfdId>),
    Bvals(Vec<(CfdId, Vec<WireValue>)>),
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

/// One outstanding update of the current wave.
enum InFlight {
    Insert {
        t: Tuple,
        queries: Vec<CfdId>,
        conflicting: FxHashSet<CfdId>,
    },
    DelQuery {
        t: Tuple,
        queries: Vec<CfdId>,
        global: FxHashMap<CfdId, FxHashSet<Digest>>,
        holders: FxHashMap<CfdId, Vec<SiteId>>,
    },
    /// Clear round of a delete: only acks remain.
    DelClear,
}

struct Pending {
    pending: usize,
    kind: InFlight,
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

/// One site of the concurrent runtime: fragment, group state, its slice
/// of `V`, codec state, and the frame pump. The same struct runs on a
/// spawned thread (threaded mode), on the caller's thread (site 0), or
/// alone inside a `site` process (multi-process mode).
pub struct SiteRunner {
    cfg: SiteConfig,
    me: SiteId,
    n: usize,
    node: Node,
    fragment: Relation,
    /// Group state per CFD (this site's row of the sequential matrix).
    state: Vec<FxHashMap<Digest, GroupState>>,
    violations: Violations,
    dv: DeltaV,
    codec: Box<dyn PayloadCodec>,
    /// Receiver-side codec state per sending site.
    rx: Vec<ReceiverCodec>,
    /// Coordinator only: sites done with the current wave.
    done_count: usize,
    /// Per requesting peer: silently-served rounds not yet acked.
    /// Piggybacked onto the next protocol frame towards that peer
    /// ([`RtFrame::Piggy`]) while traffic flows, flushed as standalone
    /// [`CtrlMsg::Ack`]/[`CtrlMsg::AckN`] frames the moment the inbox
    /// goes idle ([`SiteRunner::flush_owed`]).
    owed: Vec<u32>,
    /// Shared-plan dispatch scratch (generation-stamped counters).
    scratch: MatchScratch,
    vbuf: Vec<u8>,
    kbuf: Vec<u8>,
}

impl SiteRunner {
    /// Build a fresh site over its mesh node. Fragments start empty:
    /// initial data flows through the first batch like any other update.
    pub fn new(cfg: SiteConfig, codec: CodecKind, node: Node) -> Self {
        let n = node.n_nodes();
        let me = node.me();
        let n_cfds = cfg.cfds.len();
        SiteRunner {
            fragment: Relation::new(cfg.schema.clone()),
            state: (0..n_cfds).map(|_| FxHashMap::default()).collect(),
            violations: Violations::new(n_cfds),
            dv: DeltaV::default(),
            codec: codec.codec(),
            rx: (0..n).map(|src| ReceiverCodec::for_link(src, me)).collect(),
            done_count: 0,
            owed: vec![0; n],
            scratch: MatchScratch::default(),
            vbuf: Vec::new(),
            kbuf: Vec::new(),
            cfg,
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

    fn on_hor(&mut self, src: SiteId, msg: HorMsg) -> Result<Option<Event>, DetectError> {
        match msg {
            HorMsg::TupleProbe { attrs, probes } => {
                self.serve_probe(src, attrs, probes)?;
                Ok(None)
            }
            HorMsg::TupleDelQuery { attrs, queries } => {
                self.serve_del_query(src, attrs, queries)?;
                Ok(None)
            }
            HorMsg::ClearFlags { attrs, cfds } => {
                self.serve_clear(src, attrs, cfds)?;
                Ok(None)
            }
            HorMsg::ProbeReply { conflicts } => {
                Ok(Some(Event::Response(src, Response::Conflicts(conflicts))))
            }
            HorMsg::DelReply { bvals } => Ok(Some(Event::Response(src, Response::Bvals(bvals)))),
        }
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

    fn digests_of(
        &mut self,
        src: SiteId,
        attrs: &[(AttrId, WireValue)],
    ) -> Result<FxHashMap<AttrId, Digest>, DetectError> {
        let rx = &mut self.rx[src];
        attrs
            .iter()
            .map(|(a, w)| Ok((*a, rx.digest(w)?)))
            .collect::<Result<_, ClusterError>>()
            .map_err(DetectError::Cluster)
    }

    // -- serving peers (mirrors the sequential receiver-side blocks) ---

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

    fn serve_probe(
        &mut self,
        src: SiteId,
        attrs: Vec<(AttrId, WireValue)>,
        probes: Vec<CfdId>,
    ) -> Result<(), DetectError> {
        let cfds = Arc::clone(&self.cfg.cfds);
        let digests = self.digests_of(src, &attrs)?;
        let mut kbuf = std::mem::take(&mut self.kbuf);
        // Explicit probes: a brand-new conflict at the sender flips every
        // remote group of the CFD.
        for &c in &probes {
            let cfd = &cfds[c as usize];
            let kd = HorizontalDetector::key_from_wire(cfd, &digests, &mut kbuf);
            if let Some(h) = self.state[c as usize].get_mut(&kd) {
                if !h.violating() {
                    mark_group(h, c, &mut self.violations, &mut self.dv);
                }
            }
        }
        // Implicit queries: every other derivable variable CFD.
        let probe_set: FxHashSet<CfdId> = probes.iter().copied().collect();
        let lhs_groups = Arc::clone(&self.cfg.lhs_groups);
        let mut reply: Vec<CfdId> = Vec::new();
        for (lhs, ids) in lhs_groups.iter() {
            if !lhs.iter().all(|a| digests.contains_key(a)) {
                continue;
            }
            let kd = key_digest_from(lhs.iter().map(|a| digests[a]), &mut kbuf);
            for &cid in ids {
                let c = cid as usize;
                if probe_set.contains(&cid) {
                    continue;
                }
                let cfd = &cfds[c];
                if !digests.contains_key(&cfd.rhs) {
                    continue;
                }
                if !self.cfg.atom_digests[c]
                    .iter()
                    .all(|(a, d)| digests[a] == *d)
                {
                    continue;
                }
                let bd = digests[&cfd.rhs];
                let hit = match self.state[c].get_mut(&kd) {
                    None => false,
                    Some(h) => {
                        let other = h.has_other(bd);
                        if other && !h.violating() {
                            mark_group(h, cid, &mut self.violations, &mut self.dv);
                        }
                        other || h.violating()
                    }
                };
                if hit {
                    reply.push(cid);
                }
            }
        }
        self.kbuf = kbuf;
        // Pipelining needs every round closed eventually: a silent round
        // just bumps the owed counter (piggybacked later), a protocol
        // reply carries the owed acks with it so FIFO matching holds.
        if reply.is_empty() {
            self.owed[src] += 1;
            Ok(())
        } else {
            self.send_hor(src, HorMsg::ProbeReply { conflicts: reply })
        }
    }

    fn serve_del_query(
        &mut self,
        src: SiteId,
        attrs: Vec<(AttrId, WireValue)>,
        queries: Vec<CfdId>,
    ) -> Result<(), DetectError> {
        let cfds = Arc::clone(&self.cfg.cfds);
        let digests = self.digests_of(src, &attrs)?;
        let mut kbuf = std::mem::take(&mut self.kbuf);
        let me = self.me;
        let codec = self.codec.as_mut();
        let mut reply: Vec<(CfdId, Vec<WireValue>)> = Vec::new();
        for &c in &queries {
            let cfd = &cfds[c as usize];
            let kd = HorizontalDetector::key_from_wire(cfd, &digests, &mut kbuf);
            // Within a wave footprints are disjoint, so the group read
            // here is never one an own in-flight update is half through.
            if let Some(h) = self.state[c as usize].get(&kd) {
                let bvals = class_values(h, &self.fragment, (me, cfd, kd), |v| {
                    codec.encode(me, src, v)
                })
                .map_err(DetectError::Internal)?;
                reply.push((c, bvals));
            }
        }
        self.kbuf = kbuf;
        if reply.is_empty() {
            self.owed[src] += 1;
            Ok(())
        } else {
            self.send_hor(src, HorMsg::DelReply { bvals: reply })
        }
    }

    fn serve_clear(
        &mut self,
        src: SiteId,
        attrs: Vec<(AttrId, WireValue)>,
        to_clear: Vec<CfdId>,
    ) -> Result<(), DetectError> {
        let cfds = Arc::clone(&self.cfg.cfds);
        let digests = self.digests_of(src, &attrs)?;
        let mut kbuf = std::mem::take(&mut self.kbuf);
        for c in to_clear {
            let cfd = &cfds[c as usize];
            let kd = HorizontalDetector::key_from_wire(cfd, &digests, &mut kbuf);
            self.clear_group_local(c, kd);
        }
        self.kbuf = kbuf;
        // Clears never carry a payload back: always a silent round.
        self.owed[src] += 1;
        Ok(())
    }

    fn clear_group_local(&mut self, cfd: CfdId, kd: Digest) {
        let groups = &mut self.state[cfd as usize];
        clear_group(groups, cfd, kd, &mut self.violations, &mut self.dv);
    }

    // -- own updates (mirrors the sequential sender-side blocks) -------

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
            match op {
                Update::Insert(t) => self.begin_insert(t, &mut ws)?,
                Update::Delete(tid) => self.begin_delete(tid, &mut ws)?,
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

    fn begin_insert(&mut self, t: Tuple, ws: &mut WaveState) -> Result<(), DetectError> {
        let cfds = Arc::clone(&self.cfg.cfds);
        // Row first, group state second: a class can be asked for its
        // RHS value (`class_values`) from the moment it exists.
        self.fragment
            .insert_row(t.tid, t.values.iter())
            .map_err(DetectError::Rel)?;
        let plan = Arc::clone(&self.cfg.plan);
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut probes: Vec<CfdId> = Vec::new();
        let mut queries: Vec<CfdId> = Vec::new();
        let (mut vbuf, mut kbuf) = (
            std::mem::take(&mut self.vbuf),
            std::mem::take(&mut self.kbuf),
        );
        // One shared dispatch pass instead of a per-CFD `matches_lhs`
        // scan; attribute digests are hashed once per update and key
        // digests once per LHS group (identical bytes to `key_of`).
        let mut attr_d: FxHashMap<AttrId, Digest> = FxHashMap::default();
        let mut group_kd: Vec<Option<Digest>> = vec![None; plan.key_groups().len()];
        for &cid in plan.matched(&t, &mut scratch) {
            let c = cid as usize;
            let cfd = &cfds[c];
            if cfd.is_constant() {
                if cfd.constant_violation(&t) && self.violations.add(cfd.id, t.tid) {
                    self.dv.add(cfd.id, t.tid);
                }
                continue;
            }
            let g = plan.group_of(cid).expect("variable CFD joins a key group");
            let kd = match group_kd[g] {
                Some(kd) => kd,
                None => {
                    let kd = key_digest_from(
                        cfd.lhs.iter().map(|&a| {
                            HorizontalDetector::digest_cached(&mut attr_d, &t, a, &mut vbuf)
                        }),
                        &mut kbuf,
                    );
                    group_kd[g] = Some(kd);
                    kd
                }
            };
            let bd = HorizontalDetector::digest_cached(&mut attr_d, &t, cfd.rhs, &mut vbuf);
            insert_case(
                &mut self.state[c],
                (&mut self.violations, &mut self.dv),
                cfd.id,
                t.tid,
                (kd, bd),
                self.cfg.local_ok[c][self.me],
                &mut probes,
                &mut queries,
            );
        }
        self.scratch = scratch;
        self.vbuf = vbuf;
        self.kbuf = kbuf;

        if !probes.is_empty() || !queries.is_empty() {
            let mut attr_set = Vec::new();
            wire_attrs(&mut attr_set, &cfds, &probes, &queries);
            let peers = self.peers_of(probes.iter().chain(&queries));
            if !peers.is_empty() {
                let mut cached = None;
                for &j in &peers {
                    let attrs = HorizontalDetector::encode_attrs_for_peer(
                        self.codec.as_mut(),
                        &t,
                        &attr_set,
                        self.me,
                        j,
                        &mut cached,
                    );
                    self.send_hor(
                        j,
                        HorMsg::TupleProbe {
                            attrs,
                            probes: probes.clone(),
                        },
                    )?;
                }
                let slot = ws.inflight.len();
                for &j in &peers {
                    ws.queues[j].push_back(slot);
                }
                ws.inflight.push(Some(Pending {
                    pending: peers.len(),
                    kind: InFlight::Insert {
                        t: t.clone(),
                        queries,
                        conflicting: FxHashSet::default(),
                    },
                }));
                ws.open += 1;
            }
        }
        Ok(())
    }

    fn begin_delete(&mut self, tid: Tid, ws: &mut WaveState) -> Result<(), DetectError> {
        let cfds = Arc::clone(&self.cfg.cfds);
        let t = self
            .fragment
            .get(tid)
            .ok_or(DetectError::Rel(RelError::MissingTid(tid)))?;
        let plan = Arc::clone(&self.cfg.plan);
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut queries: Vec<CfdId> = Vec::new();
        let (mut vbuf, mut kbuf) = (
            std::mem::take(&mut self.vbuf),
            std::mem::take(&mut self.kbuf),
        );
        let mut attr_d: FxHashMap<AttrId, Digest> = FxHashMap::default();
        let mut group_kd: Vec<Option<Digest>> = vec![None; plan.key_groups().len()];
        // Restricting the constant-CFD sweep to dispatched CFDs is safe:
        // `tid ∈ V(φ)` implies the (immutable) tuple matched φ's LHS at
        // insert time, so a non-matching φ cannot hold `tid`.
        for &cid in plan.matched(&t, &mut scratch) {
            let c = cid as usize;
            let cfd = &cfds[c];
            if cfd.is_constant() {
                if self.violations.remove(cfd.id, tid) {
                    self.dv.remove(cfd.id, tid);
                }
                continue;
            }
            let g = plan.group_of(cid).expect("variable CFD joins a key group");
            let kd = match group_kd[g] {
                Some(kd) => kd,
                None => {
                    let kd = key_digest_from(
                        cfd.lhs.iter().map(|&a| {
                            HorizontalDetector::digest_cached(&mut attr_d, &t, a, &mut vbuf)
                        }),
                        &mut kbuf,
                    );
                    group_kd[g] = Some(kd);
                    kd
                }
            };
            let bd = HorizontalDetector::digest_cached(&mut attr_d, &t, cfd.rhs, &mut vbuf);
            delete_case(
                &mut self.state[c],
                (&mut self.violations, &mut self.dv),
                cfd.id,
                tid,
                (kd, bd),
                self.cfg.local_ok[c][self.me],
                &mut queries,
            );
        }
        self.scratch = scratch;
        self.vbuf = vbuf;
        self.kbuf = kbuf;

        if !queries.is_empty() {
            let mut attr_set = Vec::new();
            wire_attrs(&mut attr_set, &cfds, &queries, &[]);
            let peers = self.peers_of(queries.iter());
            let global: FxHashMap<CfdId, FxHashSet<Digest>> =
                queries.iter().map(|&c| (c, FxHashSet::default())).collect();
            let holders: FxHashMap<CfdId, Vec<SiteId>> =
                queries.iter().map(|&c| (c, Vec::new())).collect();
            if peers.is_empty() {
                // No peer holds relevant data: decide from local state
                // alone (mirrors the sequential empty-peer round).
                let clears = self.decide_delete(&t, &queries, global, holders)?;
                debug_assert!(clears.is_empty(), "no peers, no remote holders");
            } else {
                let mut cached = None;
                for &j in &peers {
                    let attrs = HorizontalDetector::encode_attrs_for_peer(
                        self.codec.as_mut(),
                        &t,
                        &attr_set,
                        self.me,
                        j,
                        &mut cached,
                    );
                    self.send_hor(
                        j,
                        HorMsg::TupleDelQuery {
                            attrs,
                            queries: queries.clone(),
                        },
                    )?;
                }
                let slot = ws.inflight.len();
                for &j in &peers {
                    ws.queues[j].push_back(slot);
                }
                ws.inflight.push(Some(Pending {
                    pending: peers.len(),
                    kind: InFlight::DelQuery {
                        t: t.clone(),
                        queries,
                        global,
                        holders,
                    },
                }));
                ws.open += 1;
            }
        }
        self.fragment.delete(tid).map_err(DetectError::Rel)?;
        Ok(())
    }

    /// Sites relevant to at least one of the given CFDs, minus us, sorted.
    fn peers_of<'a>(&self, cfds: impl Iterator<Item = &'a CfdId>) -> Vec<SiteId> {
        let mut peers = Vec::new();
        HorizontalDetector::peers_of(&mut peers, &self.cfg.relevant, cfds, self.me);
        peers
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
    /// towards `src`.
    fn settle(
        &mut self,
        src: SiteId,
        resp: Response,
        ws: &mut WaveState,
    ) -> Result<(), DetectError> {
        let slot = *ws.queues[src]
            .front()
            .ok_or_else(|| proto(format!("reply from site {src} with no outstanding round")))?;
        ws.queues[src].pop_front();
        let p = ws.inflight[slot].as_mut().expect("routed slot is live");
        match (&mut p.kind, resp) {
            (InFlight::Insert { conflicting, .. }, Response::Conflicts(cs)) => {
                conflicting.extend(cs);
            }
            (
                InFlight::DelQuery {
                    global, holders, ..
                },
                Response::Bvals(bvals),
            ) => {
                for (c, vs) in bvals {
                    holders
                        .get_mut(&c)
                        .ok_or_else(|| proto("reply names an unqueried CFD"))?
                        .push(src);
                    let set = global.get_mut(&c).expect("holders and global share keys");
                    for v in vs {
                        set.insert(self.rx[src].digest(&v).map_err(DetectError::Cluster)?);
                    }
                }
            }
            (_, Response::Ack) => {}
            _ => return Err(proto("reply type does not match the outstanding round")),
        }
        p.pending -= 1;
        if p.pending > 0 {
            return Ok(());
        }
        let p = ws.inflight[slot].take().expect("routed slot is live");
        match p.kind {
            InFlight::Insert {
                t,
                queries,
                conflicting,
            } => {
                self.finish_insert(&t, &queries, &conflicting)?;
                ws.open -= 1;
            }
            InFlight::DelQuery {
                t,
                queries,
                global,
                holders,
            } => {
                let clears = self.decide_delete(&t, &queries, global, holders)?;
                if clears.is_empty() {
                    ws.open -= 1;
                } else {
                    let mut pend = 0;
                    for (j, clear_list) in clears {
                        let mut attr_set = Vec::new();
                        wire_attrs(&mut attr_set, &self.cfg.cfds, &clear_list, &[]);
                        let attrs = HorizontalDetector::encode_attrs(
                            self.codec.as_mut(),
                            &t,
                            &attr_set,
                            self.me,
                            j,
                        );
                        self.send_hor(
                            j,
                            HorMsg::ClearFlags {
                                attrs,
                                cfds: clear_list,
                            },
                        )?;
                        ws.queues[j].push_back(slot);
                        pend += 1;
                    }
                    ws.inflight[slot] = Some(Pending {
                        pending: pend,
                        kind: InFlight::DelClear,
                    });
                }
            }
            InFlight::DelClear => {
                ws.open -= 1;
            }
        }
        Ok(())
    }

    /// Fold probe replies into the querying CFDs' flags (insert round).
    fn finish_insert(
        &mut self,
        t: &Tuple,
        queries: &[CfdId],
        conflicting: &FxHashSet<CfdId>,
    ) -> Result<(), DetectError> {
        let cfds = Arc::clone(&self.cfg.cfds);
        let (mut vbuf, mut kbuf) = (
            std::mem::take(&mut self.vbuf),
            std::mem::take(&mut self.kbuf),
        );
        for &c in queries {
            if conflicting.contains(&c) {
                let cfd = &cfds[c as usize];
                let kd = HorizontalDetector::key_of(cfd, t, &mut vbuf, &mut kbuf);
                let g = self.state[c as usize]
                    .get_mut(&kd)
                    .expect("group created during insert");
                g.set_violating(true);
                if self.violations.add(c, t.tid) {
                    self.dv.add(c, t.tid);
                }
            }
        }
        self.vbuf = vbuf;
        self.kbuf = kbuf;
        Ok(())
    }

    /// Decide each queried CFD from the folded replies; returns the
    /// coalesced clear lists per peer (sorted by peer).
    fn decide_delete(
        &mut self,
        t: &Tuple,
        queries: &[CfdId],
        mut global: FxHashMap<CfdId, FxHashSet<Digest>>,
        holders: FxHashMap<CfdId, Vec<SiteId>>,
    ) -> Result<Vec<(SiteId, Vec<CfdId>)>, DetectError> {
        let cfds = Arc::clone(&self.cfg.cfds);
        let (mut vbuf, mut kbuf) = (
            std::mem::take(&mut self.vbuf),
            std::mem::take(&mut self.kbuf),
        );
        let mut clears_by_peer: FxHashMap<SiteId, Vec<CfdId>> = FxHashMap::default();
        for &c in queries {
            let cfd = &cfds[c as usize];
            let kd = HorizontalDetector::key_of(cfd, t, &mut vbuf, &mut kbuf);
            let mut all = global.remove(&c).expect("queried cfd");
            if let Some(h) = self.state[c as usize].get(&kd) {
                h.for_each_class(|bd, _| {
                    all.insert(bd);
                });
            }
            if all.len() >= 2 {
                continue;
            }
            self.clear_group_local(c, kd);
            for &j in &holders[&c] {
                clears_by_peer.entry(j).or_default().push(c);
            }
        }
        self.vbuf = vbuf;
        self.kbuf = kbuf;
        let mut peers: Vec<SiteId> = clears_by_peer.keys().copied().collect();
        peers.sort_unstable();
        Ok(peers
            .into_iter()
            .map(|j| {
                let list = clears_by_peer.remove(&j).expect("listed peer");
                (j, list)
            })
            .collect())
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
    /// Mirror of the logical relation (union of all fragments).
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
        let n_cfds = runner.cfg.cfds.len();
        let mut det = ConcurrentHorizontal {
            current: Relation::new(runner.cfg.schema.clone()),
            site_of_tid: FxHashMap::default(),
            violations: Violations::new(n_cfds),
            stats: NetStats::new(n),
            wire: NetStats::new(n),
            meter: TransportMeter::default(),
            received: 0,
            waves: 0,
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

    /// Assign every normalized op a home site and a wave: `(home, wave)`
    /// per op in batch order, plus the number of waves. An op waits
    /// for the last previous op that shares a `(CFD, group-key)`
    /// footprint or its tid (modifications normalize to
    /// `delete + insert` of one tid, possibly at *different* homes).
    /// Tuples are read where they lie and the scratch containers are
    /// cleared, not rebuilt, between ops — this loop is the one part of
    /// a batch no site can overlap with.
    fn schedule(&mut self, delta: &UpdateBatch) -> Result<(Vec<(SiteId, u32)>, u32), DetectError> {
        let cfds = Arc::clone(&self.runner.cfg.cfds);
        let plan = Arc::clone(&self.runner.cfg.plan);
        let arity = self.runner.cfg.schema.arity();
        let mut scratch = std::mem::take(&mut self.runner.scratch);
        let mut last_fp: FxHashMap<(CfdId, Digest), u32> = FxHashMap::default();
        let mut last_tid: FxHashMap<Tid, u32> = FxHashMap::default();
        let mut placed = Vec::with_capacity(delta.ops().len());
        let (mut vbuf, mut kbuf) = (Vec::new(), Vec::new());
        let mut keys: Vec<(CfdId, Digest)> = Vec::new();
        let mut attr_d: FxHashMap<AttrId, Digest> = FxHashMap::default();
        let mut group_kd: Vec<Option<Digest>> = vec![None; plan.key_groups().len()];
        let mut n_waves = 0u32;
        for op in delta.ops() {
            let deleted;
            let (home, t) = match op {
                Update::Insert(t) => {
                    if t.values.len() != arity {
                        return Err(DetectError::Rel(RelError::ArityMismatch {
                            expected: arity,
                            got: t.values.len(),
                        }));
                    }
                    (self.scheme.route(t).map_err(DetectError::Cluster)?, t)
                }
                Update::Delete(tid) => {
                    deleted = self
                        .current
                        .get(*tid)
                        .ok_or(DetectError::Rel(RelError::MissingTid(*tid)))?;
                    let home = *self
                        .site_of_tid
                        .get(tid)
                        .expect("live tuple has a home site");
                    (home, &deleted)
                }
            };
            let mut w = last_tid.get(&t.tid).map_or(0, |&x| x + 1);
            keys.clear();
            attr_d.clear();
            group_kd.fill(None);
            for &cid in plan.matched(t, &mut scratch) {
                if !plan.is_variable(cid) {
                    continue;
                }
                let cfd = &cfds[cid as usize];
                let g = plan.group_of(cid).expect("variable CFD joins a key group");
                let kd = match group_kd[g] {
                    Some(kd) => kd,
                    None => {
                        let kd = key_digest_from(
                            cfd.lhs.iter().map(|&a| {
                                HorizontalDetector::digest_cached(&mut attr_d, t, a, &mut vbuf)
                            }),
                            &mut kbuf,
                        );
                        group_kd[g] = Some(kd);
                        kd
                    }
                };
                if let Some(&x) = last_fp.get(&(cid, kd)) {
                    w = w.max(x + 1);
                }
                keys.push((cid, kd));
            }
            for &k in &keys {
                last_fp.insert(k, w);
            }
            last_tid.insert(t.tid, w);
            n_waves = n_waves.max(w + 1);
            placed.push((home, w));
        }
        self.runner.scratch = scratch;
        Ok((placed, n_waves))
    }

    fn apply_batch(&mut self, delta: &UpdateBatch) -> Result<DeltaV, DetectError> {
        let delta = delta.normalize(&self.current);
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
        self.runner.state.iter().for_each(|map| census.count(map));
        census
    }

    /// Symbols resident on each link into the coordinator.
    #[cfg(test)]
    pub(crate) fn coordinator_resident_symbols(&self) -> Vec<usize> {
        let links = self.runner.rx.iter();
        links.map(ReceiverCodec::resident_symbols).collect()
    }
}

impl Detector for ConcurrentHorizontal {
    fn strategy(&self) -> &'static str {
        self.label
    }

    fn schema(&self) -> &Arc<Schema> {
        &self.runner.cfg.schema
    }

    fn cfds(&self) -> &[Cfd] {
        &self.runner.cfg.cfds
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
    use cfd::Cfd;
    use relation::Value;

    fn emp_schema() -> Arc<Schema> {
        Schema::new(
            "EMP",
            &["id", "grade", "CC", "AC", "zip", "street", "city"],
            "id",
        )
        .unwrap()
    }

    fn emp_tuple(
        tid: Tid,
        grade: &str,
        cc: i64,
        ac: i64,
        zip: &str,
        street: &str,
        city: &str,
    ) -> Tuple {
        Tuple::new(
            tid,
            vec![
                Value::int(tid as i64),
                Value::str(grade),
                Value::int(cc),
                Value::int(ac),
                Value::str(zip),
                Value::str(street),
                Value::str(city),
            ],
        )
    }

    fn d0() -> Relation {
        let mut d = Relation::new(emp_schema());
        d.insert(emp_tuple(1, "A", 44, 131, "EH4 8LE", "Mayfield", "NYC"))
            .unwrap();
        d.insert(emp_tuple(2, "A", 44, 131, "EH2 4HF", "Preston", "EDI"))
            .unwrap();
        d.insert(emp_tuple(3, "B", 44, 131, "EH4 8LE", "Mayfield", "EDI"))
            .unwrap();
        d.insert(emp_tuple(4, "B", 44, 131, "EH4 8LE", "Mayfield", "EDI"))
            .unwrap();
        d.insert(emp_tuple(5, "C", 44, 131, "EH4 8LE", "Crichton", "EDI"))
            .unwrap();
        d
    }

    fn fig1_cfds(s: &Schema) -> Vec<Cfd> {
        vec![
            Cfd::from_names(
                0,
                s,
                &[("CC", Some(Value::int(44))), ("zip", None)],
                ("street", None),
            )
            .unwrap(),
            Cfd::from_names(
                1,
                s,
                &[("CC", Some(Value::int(44))), ("AC", Some(Value::int(131)))],
                ("city", Some(Value::str("EDI"))),
            )
            .unwrap(),
        ]
    }

    fn fig2_scheme(s: &Arc<Schema>) -> HorizontalScheme {
        HorizontalScheme::by_values(
            s.clone(),
            s.attr_id("grade").unwrap(),
            vec![
                vec![Value::str("A")],
                vec![Value::str("B")],
                vec![Value::str("C")],
            ],
        )
        .unwrap()
    }

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
