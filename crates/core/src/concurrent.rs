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
//! # Wave-parallel scheduling: what must be ordered, and why
//!
//! A batch is deterministic only if no update can tell in which order the
//! others ran — and most could not tell anyway. All a site ever shows of a
//! group is the *set* of its RHS classes and its flag: that is what a
//! `ProbeReply`'s conflicts, a `DelReply`'s values and the holders a
//! `ClearFlags` goes to are computed from, and what decides whether an
//! update of its own ships. How many tuples a class holds shows nowhere.
//! So an update is one of two kinds, told apart at its home site by the
//! size of its RHS class in every group it matches:
//!
//! * **class-preserving** — an insert that finds a member of its class, a
//!   delete that leaves one behind. These are §6's zero-shipment cases
//!   (Examples 2 and 9: a local same-RHS witness decides): the update
//!   ships nothing under either value of the flag, reads nothing remote,
//!   and changes nothing a peer's request reads. It commutes with every
//!   update of every *other* site.
//! * a **writer** — it creates or empties a class. Its round can flip the
//!   group's flag across the mesh, and what it concludes depends on the
//!   classes its peers hold when asked.
//!
//! The four commutation cases — a class-preserving insert or delete
//! against another site's writer that raises or clears the flag of their
//! group — come out the same in either order because `mark_group` and
//! `clear_group` act on whoever is a member when the flag moves, an insert
//! takes the flag it finds and a delete takes its own marks with it: `V`
//! is a function of the final state, and a batch's `ΔV` is settled (net)
//! before anyone sees it.
//!
//! Hence a schedule in two steps, `Ops` → `Deferred` → `Waves`:
//!
//! 1. **Settle pass.** Every site gets its slice of the batch in batch
//!    order and walks it once (the machine's `try_settle` step), the coordinator —
//!    site 0, just another site that also happens to own the batch — from
//!    the borrowed batch. A class-preserving update is applied on the
//!    spot, unless an earlier update of the slice was deferred and shares
//!    a group key or the tid with it; everything else is *deferred*
//!    untouched. Class sizes change only through the home site's own
//!    updates, in slice order — counted as stored plus what the slice's
//!    deferred updates will add and remove — so the classification is a
//!    function of `(state, slice)`. The site reports the slice positions
//!    it deferred, each with one bit: does the update *write*, or is it
//!    class-preserving and merely **held** behind a deferred one.
//! 2. **Waves over the rest.** The coordinator places the deferred
//!    updates in batch order (`WavePlanner`). The footprint of an update
//!    is the set of `(operator, group-key digest)` pairs it can touch
//!    anywhere in the mesh (the implicit-query walk only ever reads groups
//!    keyed by the probing tuple's own digests). A writer goes in the
//!    first wave after every earlier writer, at any site, sharing any pair
//!    of its footprint. A held update needs program order at its own site
//!    and nothing else, being class-preserving by the time it runs: the
//!    wave after an own writer on a shared key, the same wave as an own
//!    held one (a site runs its slice of a wave in slice order, and held
//!    updates complete on the spot). A shared tid is always the next wave
//!    (a modification normalizes to `delete(t); insert(t')` of one tid,
//!    possibly at two homes). Within a wave the writers' footprints are
//!    disjoint, so sites fire *all* their probes up front and serve peers
//!    while their own rounds are in flight.
//!
//! The sequential driver ([`crate::HorizontalDetector`], whose module docs
//! describe its batch loop) applies the same rule *online*: it begins
//! every update in batch order and keeps the rounds it opens in flight,
//! holding an update back — draining first — only if it could observe a
//! round still unfinished: it shares the round's tid, or its footprint
//! meets the keys the round's requests carry and it either writes or lives
//! at the round's own home.
//! That last case is the same-home trap, and the reason a held update above
//! waits for its own site's writer: an insert round's `finish` raises the
//! flag and marks its own tuple only, so a class-preserving newcomer to the
//! group at that site that ran before the round finished would find the
//! flag down and stay unmarked. Everything else runs at once, by the four
//! cases. Online, the rule needs only the keys of the rounds in flight and
//! the stored state — exact, since every earlier update has begun — where
//! the two steps above, applied to a whole `D₀` window, defer nearly all
//! of it behind its first writers.
//!
//! Every round thus opens with the payload, towards the peers, and to the
//! replies it would have had in batch order — the differential suites
//! compare the full per-link traffic matrix — while barrier rounds stop
//! scaling with batch size ÷ smallest key cardinality: `tpch_rules` keys
//! one operator on 25 nations, so no footprint-only wave held more than
//! 25 updates; of `thr_tcp_batch`'s updates over 90 % settle on arrival.
//! [`ConcurrentHorizontal::waves`] counts those barrier rounds, coordinator
//! round trips every site waits out: per non-empty batch the settle
//! handshake and one per wave. With fewer cores than sites (the reference
//! box has two for four sites) pipelining within a wave is what turns a
//! context switch per frame into one per burst of frames; with a core per
//! site it is what lets the sites work at once.
//!
//! # The control plane
//!
//! Op shipment, the settle handshake, wave barriers, acks, result
//! collection and a failing site's last words ride on [`CtrlMsg`] frames,
//! which are wire-metered but contribute **zero** modeled `|M|`
//! ([`Node::send_ctrl`]): the model meters the detection protocol, not the
//! harness that schedules it. The differential suite asserts threaded,
//! multi-process and sequential drives agree on violations, `ΔV` *and*
//! the full per-link modeled byte matrix.
//!
//! Since every byte of a control frame is overhead, the frames are
//! written compactly (varints, bit and per-frame dictionary columns —
//! layouts in the [`ctrl`] module docs; larger frames are then LZ-packed
//! by the node whatever the session codec), the coordinator writes each
//! site's `Ops` frame straight from the borrowed batch, and no frame asks
//! for what its receiver can tell itself: a site cuts its batch image on
//! the last barrier release (or on a schedule of no waves), so there is no
//! `Collect`. Body sizes, old fixed-width row format → current, measured
//! on `thr_tcp_batch` seed 1 (4 sites, 16-column TPCH rows, 256-op
//! batches, so ≈ 64 ops a slice, 5 to 6 of them deferred, and ≈ 165 `ΔV`
//! marks an image; 879 frames of each per-batch kind a round):
//!
//! | frame                     | was (B)           | is (B)                    |
//! |---------------------------|-------------------|---------------------------|
//! | `Ack`, `Shutdown`         | 1                 | 1                         |
//! | `AckN(k)`                 | 5                 | 1 + varint `k` (2)        |
//! | `WaveDone` / `WaveAdvance`| 5                 | 1 + varint wave (2)       |
//! | [`RtFrame::Piggy`] envelope | + 5             | + 1 + varint `k` (+ 2)    |
//! | `Ops`, ≈ 64-op slice      | 9 452 mean        | 3 843 mean, 2 483 packed  |
//! | `Ops`, ≈ 1 024-op slice of a `D₀` window | —  | 48.7 k mean, 30.4 k packed |
//! | `Deferred`                | —                 | 7.7 mean; 2 + 1–2 per deferred update |
//! | `Waves`                   | —                 | 8.4 mean; 3 + 1 per deferred update |
//! | `Failed`                  | —                 | 2 + the error's text      |
//! | `BatchResult`             | 2 791 mean, 833 + 12/mark | 349 mean, 295 packed; ≈ 20 + 2/mark |
//!
//! A site that fails says so before it goes: [`SiteRunner::serve`] sends
//! the error it is about to return to the coordinator as a best-effort
//! `Failed`, and the coordinator's pump turns that into the batch's error
//! from whatever wait it is in — the settle handshake, a barrier, the
//! collection — instead of a closed inbox or a receive timeout a minute
//! later.
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
//! demand/poll round-trip is ever needed. The coordinator adds three
//! flushes that are not parks but hand-offs — after shipping the `Ops`
//! frames, after shipping the `Waves` frames and after releasing a
//! barrier — so the sites start while it turns to its own serial work
//! (its settle pass and the mirror of the batch), and one before it joins
//! the site threads on drop (a wait that is not on its inbox); a failing
//! site flushes its `Failed` before it returns.

use crate::detector::{DetectError, Detector};
use crate::horizontal::site::{Deferrals, OpScratch, Round, Settled, Site};
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

/// In-flight rounds per site within a wave, and across the mesh between
/// two drains of the sequential driver. Bounds peak buffering; the window
/// never deadlocks because reader threads always drain sockets into
/// unbounded inboxes.
pub(crate) const WINDOW: usize = 128;

fn proto(msg: impl Into<String>) -> DetectError {
    DetectError::Cluster(ClusterError::Transport(msg.into()))
}

/// A control frame on the `src → dst` link that its receiver cannot act on.
fn bad_link(src: SiteId, dst: SiteId, what: impl std::fmt::Display) -> DetectError {
    proto(format!("link {src} → {dst}: {what}"))
}

/// What a site's [`CtrlMsg::Failed`] becomes at the coordinator.
fn site_failed(src: SiteId, cause: &str) -> DetectError {
    proto(format!("site {src} failed: {cause}"))
}

/// Check a site's `Deferred` list against the slice it was sent, before
/// anything is scheduled from it: positions inside the slice, ascending.
fn check_deferred(src: SiteId, deferred: &[(u32, bool)], slice: usize) -> Result<(), DetectError> {
    let mut floor = 0;
    for &(pos, _) in deferred {
        if pos as usize >= slice {
            let what = format!("Deferred names position {pos} of a {slice}-op slice");
            return Err(bad_link(src, COORD, what));
        }
        if pos < floor {
            let what = format!("Deferred position {pos} repeats or is out of order");
            return Err(bad_link(src, COORD, what));
        }
        floor = pos + 1;
    }
    Ok(())
}

/// One deferred update as its site runs it: `(wave, slice position,
/// writes)`.
type Placed = (u32, u32, bool);

/// Check the coordinator's `Waves` against the list site `me` deferred,
/// before any of it runs, and pair the two: the deferred updates sorted by
/// wave, in slice order within one.
fn wave_order(
    me: SiteId,
    deferred: &[(u32, bool)],
    n_waves: u32,
    waves: &[u32],
) -> Result<Vec<Placed>, DetectError> {
    if waves.len() != deferred.len() {
        let (got, want) = (waves.len(), deferred.len());
        let what = format!("Waves places {got} updates, {want} were deferred");
        return Err(bad_link(COORD, me, what));
    }
    if let Some(w) = waves.iter().find(|&&w| w >= n_waves) {
        let what = format!("Waves names wave {w} of {n_waves}");
        return Err(bad_link(COORD, me, what));
    }
    let placed = waves.iter().zip(deferred);
    let mut order: Vec<Placed> = placed
        .map(|(&w, &(pos, writes))| (w, pos, writes))
        .collect();
    order.sort_unstable();
    Ok(order)
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
    Ops(Vec<Update>),
    /// What a site's settle pass left for the waves (coordinator side).
    Deferred(Vec<(u32, bool)>),
    /// The wave of each update we deferred.
    Waves(u32, Vec<u32>),
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
    /// The settle pass's memory of what it deferred, cleared per batch.
    held: Deferrals,
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
            held: Deferrals::default(),
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
            CtrlMsg::Ops(ops) => Ok(Some(Event::Ops(ops))),
            CtrlMsg::Deferred(deferred) => Ok(Some(Event::Deferred(deferred))),
            CtrlMsg::Waves { n_waves, waves } => Ok(Some(Event::Waves(n_waves, waves))),
            CtrlMsg::BatchResult(img) => Ok(Some(Event::Result(img))),
            // Whatever we were waiting for, it is not coming.
            CtrlMsg::Failed(cause) => Err(site_failed(src, &cause)),
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

    /// The settle pass over our slice of a new batch, in slice order and
    /// before any round of the batch opens anywhere: every update the
    /// machine finds class-preserving and unentangled is applied on the
    /// spot ([`Site::try_settle`]). Returns what is left for the waves —
    /// slice position and whether the update writes — ascending.
    fn settle_pass(&mut self, slice: &[&Update]) -> Result<Vec<(u32, bool)>, DetectError> {
        self.held.clear();
        let mut deferred = Vec::new();
        for (pos, &op) in (0..).zip(slice) {
            let (rows, sink) = (&mut self.rows, (&mut self.violations, &mut self.dv));
            match self.site.try_settle(op, rows, sink, &mut self.held)? {
                Settled::Applied => {}
                Settled::Deferred { writes } => deferred.push((pos, writes)),
            }
        }
        Ok(deferred)
    }

    /// Run this site's share of wave `w` — the head of `order`, our
    /// deferred updates of `slice` by wave, then slice position — in slice
    /// order, and return the rest of `order`: fire all rounds up front
    /// (windowed), serve peers while they're in flight, fold replies as
    /// they arrive. Each update comes with its `writes` bit: a held one is
    /// class-preserving by the time it runs and must not ship.
    fn run_wave<'o>(
        &mut self,
        w: u32,
        order: &'o [Placed],
        slice: &[&Update],
    ) -> Result<&'o [Placed], DetectError> {
        let (mine, rest) = order.split_at(order.partition_point(|p| p.0 <= w));
        let mut ws = WaveState {
            inflight: Vec::new(),
            queues: (0..self.n).map(|_| VecDeque::new()).collect(),
            open: 0,
        };
        for &(_, pos, writes) in mine {
            while ws.open >= WINDOW {
                self.step(&mut ws)?;
            }
            let op = slice[pos as usize];
            let (rows, sink) = (&mut self.rows, (&mut self.violations, &mut self.dv));
            if let Some((round, requests)) = self.site.begin(op, rows, sink)? {
                if !writes {
                    return Err(self.site.shipped_unscheduled(op.tid()));
                }
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
        Ok(rest)
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

    /// Run our slice of one batch: settle what needs no scheduling, report
    /// the rest, take its waves from the coordinator; then per wave execute
    /// our updates, report done and serve peers until the barrier releases.
    /// The last release — or a schedule of no waves — is the cue to cut the
    /// batch image.
    fn run_batch(&mut self, ops: Vec<Update>) -> Result<(), DetectError> {
        let slice: Vec<&Update> = ops.iter().collect();
        let deferred = self.settle_pass(&slice)?;
        self.node
            .send_ctrl(COORD, &CtrlMsg::Deferred(deferred.clone()))
            .map_err(DetectError::Cluster)?;
        let (n_waves, waves) = loop {
            let p = self.pump()?;
            match (p.acks, p.event) {
                (0, None) => {}
                (0, Some(Event::Waves(n_waves, waves))) => break (n_waves, waves),
                _ => return Err(proto("unexpected frame before the wave schedule")),
            }
        };
        let order = wave_order(self.me, &deferred, n_waves, &waves)?;
        let mut rest = order.as_slice();
        for w in 0..n_waves {
            rest = self.run_wave(w, rest, &slice)?;
            self.node
                .send_ctrl(COORD, &CtrlMsg::WaveDone(w))
                .map_err(DetectError::Cluster)?;
            loop {
                let p = self.pump()?;
                match (p.acks, p.event) {
                    (0, None) => {}
                    (0, Some(Event::Advance(x))) if x == w => break,
                    _ => return Err(proto("unexpected frame at a wave barrier")),
                }
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
    /// spawned site thread (or a `site` process) runs. A site that fails
    /// says so before it goes: the coordinator gets a best-effort
    /// [`CtrlMsg::Failed`] carrying the error this returns, so whatever it
    /// is waiting on ends at once with the cause, not at a receive timeout.
    pub fn serve(mut self) -> Result<(), DetectError> {
        let served = self.serve_batches();
        if let Err(e) = &served {
            let _ = self.node.send_ctrl(COORD, &CtrlMsg::Failed(e.to_string()));
            let _ = self.node.flush();
        }
        served
    }

    /// Same idle-flush discipline as the frame pump: whatever round is
    /// served here is acked the moment the inbox goes quiet.
    fn serve_batches(&mut self) -> Result<(), DetectError> {
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
                (0, Some(Event::Ops(ops))) => self.run_batch(ops)?,
                (0, Some(Event::Shutdown)) => return Ok(()),
                _ => return Err(proto("unexpected frame while idle")),
            }
        }
    }
}

// ---------------------------------------------------------------------
// The coordinator-side detector
// ---------------------------------------------------------------------

/// The coordinator's placing rule for the updates the settle passes
/// deferred, fed in batch order. A *writer* creates or empties an RHS class
/// at its home, which peers can see: it goes after every earlier deferred
/// writer, at any site, that shares one of its `(operator, group key)`
/// pairs — the machine's own candidate list, the full footprint, so the
/// implicit queries its probe raises at a peer never meet a half-done
/// write there. A *held* update is class-preserving — it commutes with
/// whatever other sites do — and only keeps program order at its own site:
/// the wave after an own writer on a shared key (whose round may still be
/// open), the same wave as an own held one (a site runs a wave's slice in
/// slice order and held updates complete on the spot); an own writer
/// behind it waits likewise. A shared tid is always the next wave (a
/// modification normalizes to `delete + insert` of one tid, possibly at
/// *different* homes). The scratch is kept between batches — placing is
/// the one part of a batch no site can overlap with — but the maps are
/// sized by the deferred updates and go with the batch.
#[derive(Default)]
pub(crate) struct WavePlanner {
    /// Per group key: the wave after its last deferred writer, anywhere.
    after_writer: FxHashMap<(OpId, Digest), u32>,
    /// Per site and group key: the first wave its next deferred update on
    /// that key may take.
    own_floor: FxHashMap<(SiteId, OpId, Digest), u32>,
    after_tid: FxHashMap<Tid, u32>,
    sx: OpScratch,
    /// Waves the batch needs so far.
    pub(crate) n_waves: u32,
}

impl WavePlanner {
    /// End the batch: the waves it needs, with the maps given back.
    pub(crate) fn finish(&mut self) -> u32 {
        self.after_writer = FxHashMap::default();
        self.own_floor = FxHashMap::default();
        self.after_tid = FxHashMap::default();
        std::mem::take(&mut self.n_waves)
    }

    /// The wave of the deferred update of `t` at its home site.
    pub(crate) fn place(&mut self, cfg: &SiteConfig, home: SiteId, t: &Tuple, writes: bool) -> u32 {
        cfg.candidates(SharingMode::Shared, t, &mut self.sx);
        let mut w = self.after_tid.get(&t.tid).copied().unwrap_or(0);
        for (op, kd) in self.sx.footprint(&cfg.plan) {
            let own = self.own_floor.get(&(home, op, kd));
            let writer = self.after_writer.get(&(op, kd)).filter(|_| writes);
            w = own.into_iter().chain(writer).fold(w, |w, &x| w.max(x));
        }
        for (op, kd) in self.sx.footprint(&cfg.plan) {
            self.own_floor.insert((home, op, kd), w + u32::from(writes));
            if writes {
                self.after_writer.insert((op, kd), w + 1);
            }
        }
        self.after_tid.insert(t.tid, w + 1);
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
    /// Barrier rounds since the last reset (deterministic): per batch the
    /// settle handshake and one per wave.
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

    /// The home of every update of an admitted batch, in batch order. All
    /// are routed before anything is sent, so an unroutable tuple fails its
    /// batch whole.
    fn route(&self, delta: &UpdateBatch) -> Result<Vec<SiteId>, DetectError> {
        let home = |op: &Update| match op {
            Update::Insert(t) => Ok(self.scheme.route(t)?),
            Update::Delete(tid) => {
                let home = self.site_of_tid.get(tid);
                Ok(*home.ok_or(RelError::MissingTid(*tid))?)
            }
        };
        delta.ops().iter().map(home).collect()
    }

    /// Update the logical mirror (sites own the physical fragments), in two
    /// passes over the batch so that the first can run while the sites
    /// settle: scheduling reads the tuples of deferred deletes from the
    /// mirror, so deletes — and the insert half of a modification, whose
    /// tid is live until its delete is through — wait for the second.
    fn mirror(
        &mut self,
        delta: &UpdateBatch,
        homes: &[SiteId],
        deletes: bool,
    ) -> Result<(), DetectError> {
        for (op, &home) in delta.ops().iter().zip(homes) {
            match op {
                Update::Insert(t) if !self.current.contains(t.tid) => {
                    self.site_of_tid.insert(t.tid, home);
                    self.current.insert_row(t.tid, t.values.iter())?;
                }
                Update::Delete(tid) if deletes => {
                    self.site_of_tid.remove(tid);
                    self.current.delete_quiet(*tid)?;
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Place what the settle passes deferred ([`WavePlanner`]), in batch
    /// order: the number of waves and, per site, the wave of each update
    /// it listed. `deferred` has passed [`check_deferred`], and no delete
    /// of the batch has reached the mirror yet.
    fn schedule(
        &mut self,
        delta: &UpdateBatch,
        homes: &[SiteId],
        deferred: &[Vec<(u32, bool)>],
    ) -> Result<(u32, Vec<Vec<u32>>), DetectError> {
        let cfg = self.runner.site.cfg();
        let mut waves: Vec<Vec<u32>> = deferred.iter().map(|_| Vec::new()).collect();
        let mut at = vec![0; self.n];
        let mut place_all = || {
            for (op, &home) in delta.ops().iter().zip(homes) {
                let pos = at[home];
                at[home] += 1;
                let next = deferred[home].get(waves[home].len());
                let Some(&(_, writes)) = next.filter(|d| d.0 == pos) else {
                    continue;
                };
                waves[home].push(match op {
                    Update::Insert(t) => self.planner.place(cfg, home, t, writes),
                    Update::Delete(tid) => {
                        let t = self.current.get(*tid).ok_or(RelError::MissingTid(*tid))?;
                        self.planner.place(cfg, home, &t, writes)
                    }
                });
            }
            Ok::<(), DetectError>(())
        };
        let placed = place_all();
        // A failed batch ends here too: its footprints must not outlive it.
        let n_waves = self.planner.finish();
        placed.map(|()| (n_waves, waves))
    }

    /// One batch through the mesh. A site that fails says why before it
    /// goes ([`CtrlMsg::Failed`]) and the pump reports that from any wait —
    /// but a *send* to the node it left behind fails first, in the
    /// transport's words: prefer the site's own, if they are in the inbox.
    fn apply_batch(&mut self, delta: &UpdateBatch) -> Result<DeltaV, DetectError> {
        let applied = self.drive_batch(delta);
        applied.map_err(|e| match e {
            DetectError::Cluster(ClusterError::Transport(_)) => self.last_words().unwrap_or(e),
            e => e,
        })
    }

    /// The `Failed` frame waiting in the inbox, if any, as the error it is.
    fn last_words(&mut self) -> Option<DetectError> {
        let node = &mut self.runner.node;
        while let Ok(Some((src, method, body))) = node.try_recv() {
            let frame = unpack_body(method, body).and_then(|body| RtFrame::decode_frame(&body));
            if let Ok(RtFrame::Ctrl(CtrlMsg::Failed(cause))) = frame {
                return Some(site_failed(src, &cause));
            }
        }
        None
    }

    /// Admit, route and ship the batch; settle our slice while the sites
    /// settle theirs; place what everyone deferred and drive the waves;
    /// fold the sites' images into `ΔV`, `V` and the meters.
    fn drive_batch(&mut self, delta: &UpdateBatch) -> Result<DeltaV, DetectError> {
        let delta = crate::detector::admit(&self.current, delta)?;
        let mut dv = DeltaV::default();
        if delta.ops().is_empty() {
            return Ok(dv);
        }
        let homes = self.route(&delta)?;
        // Slices are written to their frames straight from the batch, and
        // ours is settled and run from it: no op is copied.
        let mut slices: Vec<Vec<&Update>> = (0..self.n).map(|_| Vec::new()).collect();
        for (op, &home) in delta.ops().iter().zip(&homes) {
            slices[home].push(op);
        }
        let node = &mut self.runner.node;
        for (j, slice) in slices.iter().enumerate().skip(1) {
            node.send_ctrl_with(j, |out| encode_ops(out, slice))
                .map_err(DetectError::Cluster)?;
        }
        // Not a park, but the next stretch is ours alone: put the sites to
        // work on their settle passes before starting on ours and on the
        // mirror.
        node.flush().map_err(DetectError::Cluster)?;
        let mut deferred: Vec<Vec<(u32, bool)>> = (0..self.n).map(|_| Vec::new()).collect();
        deferred[COORD] = self.runner.settle_pass(&slices[COORD])?;
        self.mirror(&delta, &homes, false)?;
        let mut reported = vec![false; self.n];
        for _ in 1..self.n {
            let (src, list) = loop {
                let p = self.runner.pump()?;
                match (p.acks, p.event) {
                    (0, None) => {}
                    (0, Some(Event::Deferred(list))) => break (p.src, list),
                    _ => return Err(proto("unexpected frame during the settle handshake")),
                }
            };
            if std::mem::replace(&mut reported[src], true) {
                return Err(bad_link(src, COORD, "a second Deferred for one batch"));
            }
            check_deferred(src, &list, slices[src].len())?;
            deferred[src] = list;
        }
        let (n_waves, waves) = self.schedule(&delta, &homes, &deferred)?;
        self.waves += 1 + u64::from(n_waves);
        let node = &mut self.runner.node;
        let mut waves = waves.into_iter();
        let own_waves = waves.next().expect("the coordinator is a site");
        for (j, waves) in (1..).zip(waves) {
            node.send_ctrl(j, &CtrlMsg::Waves { n_waves, waves })
                .map_err(DetectError::Cluster)?;
        }
        // Wave 0 is the sites' to start while the mirror catches up.
        node.flush().map_err(DetectError::Cluster)?;
        self.mirror(&delta, &homes, true)?;
        // Drive our own deferred updates, holding every wave barrier until
        // all sites report done.
        let order = wave_order(COORD, &deferred[COORD], n_waves, &own_waves)?;
        let mut rest = order.as_slice();
        for w in 0..n_waves {
            rest = self.runner.run_wave(w, rest, &slices[COORD])?;
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
                    .send_ctrl(j, &CtrlMsg::WaveAdvance(w))
                    .map_err(DetectError::Cluster)?;
            }
            // Every site is parked on this barrier: release them before
            // computing our own slice of the next wave.
            self.runner.node.flush().map_err(DetectError::Cluster)?;
        }
        // The last release (or the empty schedule) was the sites' cue:
        // collect their images; fold ΔV and the meters.
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

    /// Barrier rounds — coordinator round trips every site waits out —
    /// since the last reset: per non-empty batch, the settle handshake
    /// (`Ops` out, `Deferred` back) and one per wave of deferred updates.
    /// Deterministic: classification depends only on a site's state and
    /// slice, placement only on the op stream.
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
    use std::time::{Duration, Instant};

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

    /// Fig. 1's rules over Fig. 2's fragments of `d`: the threaded drive
    /// and the sequential one it must track.
    fn emp_pair(
        d: &Relation,
        codec: CodecKind,
        transport: TransportKind,
    ) -> (ConcurrentHorizontal, HorizontalDetector) {
        let s = emp_schema();
        let (cfds, scheme) = (fig1_cfds(&s), fig2_scheme(&s));
        let conc = ConcurrentHorizontal::threaded(
            s.clone(),
            cfds.clone(),
            scheme.clone(),
            d,
            codec,
            transport,
        );
        let seq = HorizontalDetector::with_codec(s, cfds, scheme, d, codec);
        (conc.unwrap(), seq.unwrap())
    }

    /// One batch through both drives: per-batch `ΔV`, `V` (the oracle's)
    /// and the full per-link modeled matrix agree. Returns the barrier
    /// rounds the threaded drive took.
    fn apply_both(
        (conc, seq): &mut (ConcurrentHorizontal, HorizontalDetector),
        b: &UpdateBatch,
        what: &str,
    ) -> u64 {
        let before = conc.waves();
        let dv_c = conc.apply_batch(b).unwrap();
        let dv_s = Detector::apply(seq, b).unwrap();
        assert_eq!(dv_c, dv_s, "{what}: ΔV");
        let marks = conc.violations().marks_sorted();
        assert_eq!(marks, seq.violations().marks_sorted(), "{what}: V");
        let oracle = cfd::naive::detect(conc.cfds(), conc.current());
        assert_eq!(marks, oracle.marks_sorted(), "{what}: the oracle's V");
        let (got, want) = (conc.stats().to_bytes(), seq.stats().to_bytes());
        assert_eq!(got, want, "{what}: modeled |M| matrix");
        conc.waves() - before
    }

    fn assert_tracks_sequential(
        mut pair: (ConcurrentHorizontal, HorizontalDetector),
        batches: &[UpdateBatch],
    ) {
        let loaded = pair.0.violations().marks_sorted();
        assert_eq!(loaded, pair.1.violations().marks_sorted(), "initial load");
        for (i, b) in batches.iter().enumerate() {
            apply_both(&mut pair, b, &format!("batch {i}"));
        }
        assert_eq!(pair.0.current().len(), pair.1.current().len());
    }

    #[test]
    fn threaded_mem_matches_sequential_for_every_codec() {
        for codec in [
            CodecKind::RawValues,
            CodecKind::Md5,
            CodecKind::Dict,
            CodecKind::Lz,
        ] {
            let pair = emp_pair(&d0(), codec, TransportKind::Framed);
            assert_eq!(pair.0.strategy(), "incHorMt");
            assert_tracks_sequential(pair, &script());
        }
    }

    #[test]
    fn threaded_tcp_matches_sequential() {
        let pair = emp_pair(&d0(), CodecKind::Md5, TransportKind::Tcp);
        let conc = &pair.0;
        assert!(conc.transport_meter().frames > 0 || conc.stats().total_bytes() == 0);
        assert_tracks_sequential(pair, &script());
    }

    #[test]
    fn wire_meter_identity_holds_and_ctrl_is_unmodeled() {
        let (mut conc, _) = emp_pair(&d0(), CodecKind::Md5, TransportKind::Framed);
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
    /// their peers took off the inboxes — `Deferred`, `Waves` and
    /// `BatchResult` frames and LZ-packed control frames included.
    #[test]
    fn every_written_byte_is_metered_and_received() {
        let (mut conc, _) = emp_pair(&d0(), CodecKind::Md5, TransportKind::Framed);
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

    /// Seeded interleaving stress: conflicting batches of about `batch`
    /// updates over a wider hash-partitioned mesh, checked batch by batch
    /// against the sequential drive (state, ΔV and the modeled byte
    /// matrix). The key domain grows with the batch, so a large window —
    /// the build's, where nothing else compares `ΔV` — still creates,
    /// empties and re-enters classes instead of settling whole.
    fn stress(n_sites: usize, seed: u64, n_batches: usize, batch: usize) {
        let s = emp_schema();
        let scheme =
            HorizontalScheme::by_hash(s.clone(), s.attr_id("id").unwrap(), n_sites).unwrap();
        let (cfds, empty) = (fig1_cfds(&s), Relation::new(s.clone()));
        let conc = ConcurrentHorizontal::threaded(
            s.clone(),
            cfds.clone(),
            scheme.clone(),
            &empty,
            CodecKind::Md5,
            TransportKind::Framed,
        );
        let seq = HorizontalDetector::with_codec(s.clone(), cfds, scheme, &empty, CodecKind::Md5);
        let mut pair = (conc.unwrap(), seq.unwrap());
        let mut rng = seed;
        let mut next = move || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) as usize
        };
        let n_zips = (batch / 8).max(3);
        let streets = ["S1", "S2", "S3", "S4"];
        let cities = ["EDI", "NYC"];
        let mut live: Vec<Tid> = Vec::new();
        let mut tid_next: Tid = 1;
        let mut waves = 0;
        for i in 0..n_batches {
            let mut b = UpdateBatch::new();
            for _ in 0..(batch / 2 + next() % batch) {
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
                        &format!("Z{}", next() % n_zips),
                        streets[next() % streets.len()],
                        cities[next() % cities.len()],
                    ));
                }
            }
            waves += apply_both(
                &mut pair,
                &b,
                &format!("{n_sites} sites, batch {i} of {batch}"),
            );
        }
        // Every batch shakes hands once, and some deferred an update.
        assert!(waves > n_batches as u64, "{waves} barrier rounds");
    }

    #[test]
    fn interleaving_stress_8_sites() {
        stress(8, 0xC0FFEE, 30, 4);
        stress(8, 0xC0FFEE, 12, 16);
        stress(8, 0xC0FFEE, 4, 256);
        stress(8, 0xC0FFEE, 2, 4_096);
    }

    #[test]
    fn interleaving_stress_16_sites() {
        stress(16, 0xBADCAB, 18, 4);
        stress(16, 0xBADCAB, 8, 16);
        stress(16, 0xBADCAB, 3, 256);
        stress(16, 0xBADCAB, 2, 4_096);
    }

    // -- what must be ordered, case by case -----------------------------

    fn tuples_of(batch: &[Update]) -> UpdateBatch {
        UpdateBatch::from_ops(batch.to_vec())
    }

    /// `d0` and more tuples.
    fn d0_with(more: &[Tuple]) -> Relation {
        let mut d = d0();
        for t in more {
            d.insert(t.clone()).unwrap();
        }
        d
    }

    /// Run `batch` over `d` through both drives and return the barrier
    /// rounds it took.
    fn rounds_of(d: &Relation, batch: &[Update], what: &str) -> u64 {
        let mut pair = emp_pair(d, CodecKind::Md5, TransportKind::Framed);
        apply_both(&mut pair, &tuples_of(batch), what)
    }

    /// The four commutation cases: a class-preserving insert or delete at
    /// site 0, listed after a writer of site 1 on the same group that
    /// raises the group's flag or clears it. Site 0 applies its update on
    /// arrival — before the writer's round, whichever is listed first —
    /// and nothing tells: one wave (the writer's) behind the handshake,
    /// `ΔV`, `V` and traffic those of batch order.
    #[test]
    fn class_preserving_updates_commute_with_a_remote_writer() {
        let at = |tid, grade, street| emp_tuple(tid, grade, 44, 131, "EH9 1AA", street, "EDI");
        // Site 0 (grade A) holds street S twice; site 1 (grade B) holds
        // the group's only other street, or nothing of the group yet.
        let satisfied = d0_with(&[at(30, "A", "S"), at(31, "A", "S")]);
        let violating = d0_with(&[at(30, "A", "S"), at(31, "A", "S"), at(32, "B", "T")]);
        let raises = (&satisfied, Update::Insert(at(32, "B", "T")));
        let clears = (&violating, Update::Delete(32));
        let preserving = [Update::Insert(at(33, "A", "S")), Update::Delete(31)];
        for (flag, (d, writer)) in [("raises", raises), ("clears", clears)] {
            for own in &preserving {
                let what = format!("{own:?} behind the writer that {flag} the flag");
                let batch = [writer.clone(), own.clone()];
                assert_eq!(rounds_of(d, &batch, &what), 2, "{what}");
                let batch = [own.clone(), writer.clone()];
                assert_eq!(rounds_of(d, &batch, &what), 2, "{what}, swapped");
            }
        }
    }

    /// Program order at one site: an insert into the class a writer of the
    /// same slice creates is class-preserving only once that writer ran —
    /// held, and placed in the wave behind it.
    #[test]
    fn an_insert_into_a_class_its_slice_creates_is_held_a_wave_behind() {
        let at = |tid, street| emp_tuple(tid, "A", 44, 131, "EH7 7AA", street, "EDI");
        let batch = [Update::Insert(at(40, "S")), Update::Insert(at(41, "S"))];
        assert_eq!(rounds_of(&d0(), &batch, "creator, joiner"), 3);
        // A third that opens another class of the group writes: behind the
        // creator like the joiner, and in the joiner's wave.
        let batch = [
            batch[0].clone(),
            batch[1].clone(),
            Update::Insert(at(42, "T")),
        ];
        assert_eq!(rounds_of(&d0(), &batch, "creator, joiner, clasher"), 3);
    }

    /// The trap: `t5` is the only Crichton of its group at site 2. Behind
    /// the delete that empties the class, an insert into it finds the
    /// class populated in the *stored* state — but creates it anew by the
    /// time it runs. It must be classified a writer (the stored size plus
    /// what the slice's deferred updates will do to it): taken for
    /// class-preserving, it would be held, left unordered against the
    /// other sites' writers, and would open a round it has no wave for.
    #[test]
    fn an_insert_behind_the_delete_that_empties_its_class_writes() {
        let back = emp_tuple(51, "C", 44, 131, "EH4 8LE", "Crichton", "EDI");
        let batch = [Update::Delete(5), Update::Insert(back)];
        assert_eq!(rounds_of(&d0(), &batch, "empty, refill"), 3);
    }

    /// A modification is `delete + insert` of one tid, and the two may
    /// live at different sites: each home classifies its half on its own.
    #[test]
    fn a_modification_across_homes_settles_each_half_at_its_home() {
        // t5 (site 2, the group's only Crichton) becomes a Mayfield of
        // site 1: the delete writes and clears the group's flag, the insert
        // joins t3 and t4 on arrival — while t5 still lives at site 2.
        let moved = emp_tuple(5, "B", 44, 131, "EH4 8LE", "Mayfield", "EDI");
        assert_eq!(rounds_of(&d0(), &[Update::Insert(moved)], "writer out"), 2);
        // t3 (site 1, leaves t4 behind) becomes site 0's first Crichton:
        // the delete settles on arrival, the insert writes.
        let moved = emp_tuple(3, "A", 44, 131, "EH4 8LE", "Crichton", "EDI");
        assert_eq!(rounds_of(&d0(), &[Update::Insert(moved)], "writer in"), 2);
        // Both halves at site 0, both writers (t1 is its only Mayfield):
        // one tid, consecutive waves.
        let moved = emp_tuple(1, "A", 44, 131, "EH4 8LE", "Crichton", "NYC");
        assert_eq!(rounds_of(&d0(), &[Update::Insert(moved)], "in place"), 3);
    }

    /// A batch of class-preserving updates costs the handshake and no
    /// wave, whatever its size.
    #[test]
    fn a_class_preserving_batch_is_one_handshake_whatever_its_size() {
        let mut pair = emp_pair(&d0(), CodecKind::Md5, TransportKind::Framed);
        let mut tid = 100;
        for size in [6, 12] {
            let mut b = UpdateBatch::new();
            for i in 0..size {
                // Every site's class of zip EH4 8LE, and site 0's Preston.
                let (grade, zip, street) = [
                    ("A", "EH4 8LE", "Mayfield"),
                    ("B", "EH4 8LE", "Mayfield"),
                    ("C", "EH4 8LE", "Crichton"),
                    ("A", "EH2 4HF", "Preston"),
                ][i % 4];
                b.insert(emp_tuple(tid, grade, 44, 131, zip, street, "EDI"));
                tid += 1;
            }
            // … and a delete that leaves its class a member.
            b.delete(tid - 4);
            assert_eq!(apply_both(&mut pair, &b, &format!("{size} inserts")), 1);
        }
    }

    #[test]
    fn schedule_separates_conflicting_ops_into_waves() {
        let s = emp_schema();
        let cfg = SiteConfig::new(s.clone(), fig1_cfds(&s), &fig2_scheme(&s));
        let at = |tid, zip| emp_tuple(tid, "A", 44, 131, zip, "S", "EDI");
        let mut planner = WavePlanner::default();
        let mut place = |home, t: Tuple, writes| planner.place(&cfg, home, &t, writes);
        // Same zip ⇒ same φ0 group ⇒ writers serialize, wherever they
        // live. φ1's RHS is a constant, so it is a *constant* CFD and adds
        // no footprint: the distinct-zip writer rides in wave 0.
        assert_eq!(place(0, at(20, "Z1"), true), 0);
        assert_eq!(place(1, at(21, "Z1"), true), 1);
        assert_eq!(place(2, at(22, "Z2"), true), 0);
        // A held update waits for its own site's writer on the key, and
        // for nobody else's: site 1's is in wave 1, site 2 has none.
        assert_eq!(place(1, at(23, "Z1"), false), 2);
        assert_eq!(place(2, at(24, "Z1"), false), 0);
        // Held updates of one site share a wave, and a writer behind them
        // may join it (slice order; they complete on the spot) — but the
        // next writer on the key, anywhere, goes behind that one.
        assert_eq!(place(1, at(25, "Z1"), false), 2);
        assert_eq!(place(1, at(26, "Z1"), true), 2);
        assert_eq!(place(2, at(27, "Z1"), false), 0);
        assert_eq!(place(0, at(28, "Z1"), true), 3);
        // A shared tid is the next wave, whatever else.
        assert_eq!(place(0, at(22, "Z3"), false), 1);
        assert_eq!(planner.finish(), 4);
        // The next batch starts over.
        assert_eq!(planner.place(&cfg, 1, &at(21, "Z1"), true), 0);
        assert_eq!(planner.finish(), 1);

        // End to end: three creators of new groups, two on one zip.
        let batch = [
            Update::Insert(emp_tuple(20, "A", 44, 131, "EH9 9ZZ", "P", "EDI")),
            Update::Insert(emp_tuple(21, "B", 44, 131, "EH9 9ZZ", "Q", "EDI")),
            Update::Insert(emp_tuple(22, "C", 44, 131, "EH8 8YY", "R", "EDI")),
        ];
        assert_eq!(
            rounds_of(&d0(), &batch, "the shared-zip pair serializes"),
            3
        );
        assert_eq!(rounds_of(&d0(), &batch[1..], "disjoint footprints"), 2);
    }

    /// The acceptance count: a relation that is being loaded settles more
    /// of every window than of the one before. The 40 000-row TPCH base of
    /// `detbench`'s `thr_tcp_batch` (its generator's proportions, its
    /// rules), replayed into an empty session in the build's 4 096-op
    /// windows: the footprint-only schedule needed 209–230 waves for each
    /// of them, 2 184 in all.
    #[test]
    fn a_loading_relation_needs_fewer_waves_window_by_window() {
        use workload::{rules, tpch};
        let n_rows = 40_000;
        let (schema, base) = tpch::generate(&tpch::TpchConfig {
            n_rows,
            n_customers: n_rows / 20,
            n_parts: n_rows / 30,
            n_suppliers: n_rows / 100,
            error_rate: 0.0,
            seed: 1,
        });
        let mut conc = ConcurrentHorizontal::threaded(
            schema.clone(),
            rules::tpch_rules(&schema, 8, 0xCFD),
            tpch::horizontal_scheme(&schema, 4),
            &Relation::new(schema.clone()),
            CodecKind::Md5,
            TransportKind::Framed,
        )
        .unwrap();
        let rows: Vec<Update> = base.iter().map(Update::Insert).collect();
        let mut per_window = Vec::new();
        for window in rows.chunks(4_096) {
            let before = conc.waves();
            conc.apply_batch(&tuples_of(window)).unwrap();
            per_window.push(conc.waves() - before);
        }
        let full = &per_window[..n_rows / 4_096];
        assert!(conc.waves() <= 650, "{per_window:?}");
        assert!(full[full.len() - 1] * 10 <= full[0], "{per_window:?}");
        let oracle = cfd::naive::detect(conc.cfds(), &base);
        assert_eq!(conc.violations().marks_sorted(), oracle.marks_sorted());
    }

    // -- failure and hostile frames -------------------------------------

    /// A frame the codec decodes but the protocol cannot mean ends the
    /// site's `serve` with a typed error naming the link — its thread
    /// returns, it does not panic — and the coordinator is told.
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
        let msg = match handle.join().expect("the site thread must not panic") {
            Err(DetectError::Cluster(e)) => e.to_string(),
            other => panic!("expected a protocol error, got {other:?}"),
        };
        assert!(msg.contains("0 → 1") && msg.contains("ClearFlags"), "{msg}");
        assert!(msg.contains("operator 4294967295"), "{msg}");
        let last_words = forger.recv_msg::<CtrlMsg>().unwrap();
        assert_eq!(last_words, (1, CtrlMsg::Failed(msg)));
    }

    /// A site that fails says so before it goes: the `apply` that meets
    /// the gap returns at once with the site and its own words, not a
    /// closed inbox or a receive timeout a minute later — whether the site
    /// is still on its way out (the coordinator's wait ends on its
    /// `Failed`) or long gone (the send to it fails first).
    #[test]
    fn a_failing_site_fails_the_batch_at_once_with_its_own_words() {
        for let_it_go in [false, true] {
            let (mut conc, _) = emp_pair(&d0(), CodecKind::Md5, TransportKind::Framed);
            // No site expects a barrier release between batches.
            let node = &mut conc.runner.node;
            node.send_ctrl(1, &CtrlMsg::WaveAdvance(7)).unwrap();
            while let_it_go && !conc.handles[0].is_finished() {
                std::thread::yield_now();
            }
            let mut b = UpdateBatch::new();
            b.insert(emp_tuple(10, "A", 44, 131, "EH7 7AA", "Foo", "EDI"));
            b.insert(emp_tuple(11, "B", 44, 131, "EH7 7AA", "Bar", "EDI"));
            let asked = Instant::now();
            let err = match conc.apply_batch(&b) {
                Err(DetectError::Cluster(e)) => e.to_string(),
                other => panic!("expected a transport error, got {other:?}"),
            };
            assert!(asked.elapsed() < Duration::from_secs(1), "{err}");
            assert!(err.contains("site 1 failed"), "{err}");
            assert!(err.contains("unexpected frame while idle"), "{err}");
            // Sites 2 is parked mid-batch; the drop must not wait it out.
            let dropped = Instant::now();
            drop(conc);
            assert!(dropped.elapsed() < Duration::from_secs(1));
        }
    }

    /// A session over `n` hash fragments of EMP whose sites `1..` are
    /// played by `script`: it is handed the site's node and each control
    /// frame the coordinator sends it, until `Shutdown`.
    fn scripted_session(
        n: usize,
        script: impl Fn(&mut Node, CtrlMsg) + Clone + Send + 'static,
    ) -> ConcurrentHorizontal {
        let s = emp_schema();
        let scheme = HorizontalScheme::by_hash(s.clone(), s.attr_id("id").unwrap(), n).unwrap();
        let cfg = SiteConfig::new(s.clone(), fig1_cfds(&s), &scheme);
        let mut nodes = run::mem_mesh(n).into_iter();
        let node0 = nodes.next().expect("a coordinator");
        let play = |mut node: Node| {
            let script = script.clone();
            std::thread::spawn(move || loop {
                match node.recv_msg::<RtFrame>().map_err(DetectError::Cluster)? {
                    (_, RtFrame::Ctrl(CtrlMsg::Shutdown)) => return Ok(()),
                    (_, RtFrame::Ctrl(frame)) => script(&mut node, frame),
                    _ => {}
                }
            })
        };
        let runner = SiteRunner::new(cfg, CodecKind::Md5, node0);
        let (handles, codec) = (nodes.map(play).collect(), CodecKind::Md5);
        let empty = Relation::new(s);
        ConcurrentHorizontal::finish_build(scheme, runner, handles, codec, "scripted", &empty)
            .unwrap()
    }

    /// A `Deferred` list the coordinator cannot schedule from — a position
    /// outside the slice, out of order, repeated, a second list — fails
    /// the batch with the link and the cause before anything is placed.
    #[test]
    fn hostile_deferred_lists_fail_the_batch_before_anything_is_placed() {
        // Site 1 answers its 8-op slice with `forged`; under three sites,
        // site 2 stays silent, so that both lists read are site 1's.
        let answering = |forged: Vec<(u32, bool)>| {
            move |node: &mut Node, frame: CtrlMsg| {
                if let (1, CtrlMsg::Ops(ops)) = (node.me(), &frame) {
                    assert_eq!(ops.len(), 8);
                    let repeats = node.n_nodes() - 1;
                    for _ in 0..repeats {
                        node.send_ctrl(COORD, &CtrlMsg::Deferred(forged.clone()))
                            .unwrap();
                    }
                    node.flush().unwrap();
                }
            }
        };
        let cases = [
            (2, vec![(8, true)], "position 8 of a 8-op slice"),
            (
                2,
                vec![(0, true), (u32::MAX, false)],
                "position 4294967295 of a 8-op slice",
            ),
            (
                2,
                vec![(3, true), (2, true)],
                "position 2 repeats or is out of order",
            ),
            (
                2,
                vec![(1, false), (1, true)],
                "position 1 repeats or is out of order",
            ),
            (3, vec![(0, true)], "a second Deferred for one batch"),
        ];
        for (n, forged, cause) in cases {
            let mut conc = scripted_session(n, answering(forged));
            // Eight tuples at every site, whatever the hash makes of ids.
            let mut b = UpdateBatch::new();
            let mut slices = vec![0; n];
            for tid in 1.. {
                let t = emp_tuple(tid, "A", 44, 131, "EH7 7AA", "Foo", "EDI");
                let home = conc.scheme.route(&t).unwrap();
                if slices[home] < 8 {
                    slices[home] += 1;
                    b.insert(t);
                }
                if slices.iter().all(|&k| k == 8) {
                    break;
                }
            }
            let err = match conc.apply_batch(&b) {
                Err(DetectError::Cluster(e)) => e.to_string(),
                other => panic!("expected a protocol error, got {other:?}"),
            };
            assert!(err.contains("link 1 → 0") && err.contains(cause), "{err}");
            assert_eq!(conc.waves(), 0, "{err}");
        }
    }

    /// A `Waves` frame that does not answer the list the site deferred —
    /// another length, a wave the batch does not have — ends the site
    /// with the link and the cause, and none of the deferred updates ran.
    #[test]
    fn hostile_wave_schedules_end_the_site_before_a_wave_runs() {
        let s = emp_schema();
        let cfg = SiteConfig::new(s.clone(), fig1_cfds(&s), &fig2_scheme(&s));
        let waves = |n_waves, waves: &[u32]| CtrlMsg::Waves {
            n_waves,
            waves: waves.to_vec(),
        };
        let cases = [
            (waves(1, &[0]), "Waves places 1 updates, 2 were deferred"),
            (
                waves(1, &[0, 0, 0]),
                "Waves places 3 updates, 2 were deferred",
            ),
            (waves(0, &[]), "Waves places 0 updates, 2 were deferred"),
            (waves(2, &[1, 2]), "Waves names wave 2 of 2"),
            (waves(0, &[0, 0]), "Waves names wave 0 of 0"),
        ];
        for (forged, cause) in cases {
            let mut nodes = run::mem_mesh(2).into_iter();
            let (mut coord, node) = (nodes.next().unwrap(), nodes.next().unwrap());
            let mut site = SiteRunner::new(cfg.clone(), CodecKind::Md5, node);
            let served = std::thread::scope(|scope| {
                let serving = scope.spawn(|| site.serve_batches());
                // Two creators of new groups: both deferred, both writers.
                let ops = vec![
                    Update::Insert(emp_tuple(1, "B", 44, 131, "EH7 7AA", "Foo", "EDI")),
                    Update::Insert(emp_tuple(2, "B", 44, 131, "EH8 8BB", "Bar", "EDI")),
                ];
                coord.send_ctrl(1, &CtrlMsg::Ops(ops)).unwrap();
                let deferred = CtrlMsg::Deferred(vec![(0, true), (1, true)]);
                assert_eq!(coord.recv_msg::<CtrlMsg>().unwrap(), (1, deferred));
                coord.send_ctrl(1, &forged).unwrap();
                coord.flush().unwrap();
                serving.join().expect("the site thread must not panic")
            });
            let err = match served {
                Err(DetectError::Cluster(e)) => e.to_string(),
                other => panic!("expected a protocol error, got {other:?}"),
            };
            assert!(err.contains("link 0 → 1") && err.contains(cause), "{err}");
            let mut census = crate::horizontal::StateCensus::default();
            site.site.count_into(&mut census);
            assert_eq!((site.rows.len(), census.groups), (0, 0), "{err}");
        }
    }
}
