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
//! the per-batch images that carry each site's slice of `ΔV` home. No
//! detector state is shared: each site owns its fragment, its per-operator
//! group state, its receiver-side codec state and its meters, exactly as
//! the paper's EC2 deployment would. A site's steps record `ΔV` and never
//! read `V`, which is kept once, at the coordinator, and changed only by
//! committing each batch's `ΔV` to it. No process holds `D` whole: a row
//! lives in its home's fragment only, and the coordinator
//! gathers `D`, and the meters, when asked for them (the control plane's
//! gathers, below).
//!
//! # Wave-parallel scheduling
//!
//! A batch is deterministic only if no update can tell in which order the
//! others ran — and most could not tell anyway. Which pairs of updates
//! must keep batch order is the `horizontal::order`
//! module's one rule: a shared tid, a shared group key at one site, or a
//! shared key between two writers (updates that create or empty an RHS
//! class). A class-preserving update commutes with every other site's
//! update. The runtime applies the rule in two steps, `Take` → `Deferred`
//! → `Waves`:
//!
//! 1. **Settle pass.** Every site, site 0 among them, gets its slice of
//!    the batch in batch order and walks it once (the machine's `settle`
//!    step). A class-preserving update that
//!    commutes with every update deferred before it is applied on the
//!    spot; everything else is *deferred* untouched. Class sizes change
//!    only through the home site's own updates, in slice order — counted
//!    as stored plus what the slice's deferred updates will add and remove
//!    — so the classification is a function of `(state, slice)`. The site
//!    reports the slice positions it deferred, each with one bit: does the
//!    update *write*, or is it class-preserving and merely **held** behind
//!    a deferred one; and, of a deferred delete, its footprint, for the
//!    row it reads it from is only there.
//! 2. **Waves over the rest.** The coordinator places the deferred updates
//!    in batch order, each in the first wave its verdicts against the ones
//!    placed before it allow: after an earlier writer of any site on a
//!    shared key if it writes, after an own writer on a shared key, in the
//!    same wave as an own held one (a site runs its slice of a wave in
//!    slice order, and held updates complete on the spot), after the
//!    other half of its tid. Within a wave the writers' footprints are
//!    disjoint, so sites fire *all* their probes up front and serve peers
//!    while their own rounds are in flight.
//!
//! **Who waits at a barrier.** A wave's barrier involves only the sites
//! holding an update of it: a site with no update in a wave has nothing to
//! report about it. A site sends `WaveDone(w)` only for a wave its `Waves`
//! list gives it updates in, and waits for a `WaveAdvance` only before
//! such a wave (`w > 0`) and before it cuts its batch image; all the
//! while it serves whatever request reaches it. The coordinator closes
//! wave `w` once each of its holders has sent `WaveDone(w)`, then sends
//! `WaveAdvance(w)` to the holders of wave `w + 1` only, and after the
//! last wave to every site. That is enough: a round completes only once
//! every peer it asked has answered or acked, so when the last holder of
//! a wave reports it, every site is through with the wave's requests.
//!
//! The coordinator admits a batch against the homes of the live tids alone:
//! presence is all it can normalise by. A re-insert of a row as stored
//! therefore reaches its home as the delete and the insert of one tid,
//! and the home's settle pass, row at hand, drops the pair.
//!
//! The sequential driver ([`crate::HorizontalDetector`]) applies the same
//! rule *online*, to the rounds it keeps in flight — exact, since every
//! earlier update has begun — where the two steps above apply it to a
//! whole batch at once.
//!
//! Every round thus opens with the payload, towards the peers, and to the
//! replies it would have had in batch order — the differential suites
//! compare the full per-link traffic matrix — while barrier rounds stop
//! scaling with batch size ÷ smallest key cardinality (`tpch_rules` keys
//! one operator on 25 nations; over 90 % of `thr_tcp_batch`'s updates
//! settle on arrival). [`ConcurrentHorizontal::waves`] counts the barrier
//! rounds: per non-empty batch the settle handshake and one per wave. With
//! fewer cores than sites, pipelining within a wave turns a context switch
//! per frame into one per burst of frames.
//!
//! # The build
//!
//! A session starts from `V(Σ, D₀)`; it does not negotiate it. Both
//! constructors run `horizontal::Build` — the sequential detector's two
//! local passes over `n` machines — before any mesh exists, so the build
//! sends nothing and leaves every meter at zero.
//! [`ConcurrentHorizontal::threaded`] runs it once, on the caller's
//! thread: it routes the caller's `D₀` into one fragment per site (the
//! rows that site is home to), builds over the fragments — so every
//! member of a site's group state is a row id of its own fragment, as a
//! replay of `D₀` through the batch path would have left it — and moves
//! into each site's runner its machine and its fragment. The coordinator
//! keeps no row: only every row's home, in a dense [`TidMap`] at 4 B a
//! tid, and `V`. Only then does it open the mesh and spawn the site
//! threads.
//!
//! In a multi-process session no row of `D₀` crosses a link: each `site`
//! process derives `D₀` from the parameters it derives `(schema, Σ,
//! scheme)` from, runs the same build and keeps its own machine, and the
//! processes build in parallel. Each then sends the coordinator one
//! `Built` frame, a fingerprint of its fragment and of the marks its build
//! of `V` holds on it (`BuildPrint`), which
//! [`ConcurrentHorizontal::distributed`] holds to
//! its own build of that site: a site that derived another `D₀` is
//! [`DetectError::BuildMismatch`] naming the site, and every site is shut
//! down. That handshake is the build's, not `ΔD`'s: both ends take it off
//! their meters.
//!
//! # The control plane
//!
//! The slice hand-over, the settle handshake, wave barriers, acks, result
//! collection, the gathers of `D` and of the meters, a failing site's last
//! words and a process's build fingerprint ride on `CtrlMsg` frames,
//! which are wire-metered but contribute **zero** modeled `|M|`
//! ([`Node::send_ctrl`]): the model meters the detection protocol, not the
//! harness that schedules it. The differential suite asserts threaded,
//! multi-process and sequential drives agree on violations, `ΔV` *and*
//! the full per-link modeled byte matrix.
//!
//! Since every byte of a control frame is overhead, the frames are
//! written compactly (layouts in the `ctrl` module docs; larger frames are
//! then LZ-packed by the node when that is smaller), and no frame
//! carries what its receiver can have without it. `ΔD_i` enters at `S_i`,
//! as in the paper: a site *thread* is in the caller's process, so the
//! coordinator hands it its slice in memory — into the site's inlet, an
//! in-process channel whose rows share their values with the batch — and
//! sends a one-byte `Take`; no row crosses a link. Only a site *process*,
//! whose one way in is its links, gets an `Ops` frame, written straight
//! from the batch. A site cuts its batch image on the last barrier release
//! (or on a schedule of no waves), so there is no `Collect`. Sizes on the
//! wire, header included (one varint: 1 byte below a 64-byte body, 2 below
//! 8 KiB; [`cluster::net::frame`]), on `thr_tcp_batch` seed 1 (4 sites,
//! 16-column TPCH rows, 256-op batches, so ≈ 64 ops a slice, 5 to 6 of
//! them deferred, and ≈ 165 `ΔV` marks an image):
//!
//! | frame | bytes |
//! |---|---|
//! | `Ack`, `Shutdown`, `Take` (site threads), `Gather`, `Meters` | 1 + 1 |
//! | `AckN(k)`, `WaveDone`, `WaveAdvance`; a `Piggy` envelope | 1 + 1 + a varint (3); + 1 + a varint |
//! | `Ops`, ≈ 64-op slice (site processes) | 2 + 3 843 mean, 2 + 2 483 packed |
//! | `Deferred` | 27.2 mean; 3 + 1–2 per deferred update + 1 + 4 a key per deferred delete |
//! | `Waves` | 1 + 8.4 mean; 3 + 1 per deferred update |
//! | `BatchResult` | 157.7 mean, packed where smaller; ≈ 1.2 a mark, a pure delete's removals left out |
//! | `Failed`; `Built`, once a session | 1–2 + 2 + the error's text; 1 + 17 + two varints |
//! | a fragment; `Metered` | 3 + 481 096 mean, 398 419 packed; 1 + 61 mean |
//! | `HorMsg` protocol frames, `Piggy` included | 2.15 B/update in all, against 2.96 B/update of modeled `\|M\|`: ids as varints, values as cells ([`HorMsg`]'s `FrameCodec`) |
//!
//! **The gathers.** [`Detector::current`] — and the fallible
//! `ConcurrentHorizontal::gather` behind it — sends every site a tag-only
//! `Gather`; each answers with its fragment in tid order, in the `Ops`
//! frame's insert layout, each row checked against its home. Likewise
//! [`ConcurrentHorizontal::meters`] — and `net()` and `reset_stats()` —
//! sends a tag-only `Meters`; each site answers with its row of the
//! modeled and wire matrices, its transport counters and its received
//! bytes (`MeterImage`), each cell checked to be a link out of it, and
//! zeroes them: a batch image carries `ΔV` and nothing else. Like the
//! `Built` handshake, these exchanges belong to no batch: both ends take
//! them off their meters, so the `wire` of `meters()` is every byte the
//! nodes wrote for batches, and its `received` — counted independently on
//! the inboxes — equals it between batches. What a gather got is kept
//! until the next `apply`; one that fails leaves its error for that
//! `apply` to return.
//!
//! # The machines and the one loop
//!
//! A site and the coordinator are sans-IO machines. `on_frame` steps one
//! by one frame and never blocks: it sends through the node, which queues
//! and meters a frame but never parks. A site goes idle → scheduled (its
//! `Deferred` sent) → for each wave it holds an update of, the barrier
//! before it (past wave 0) and the wave (beginning updates while fewer
//! than `WINDOW` rounds are open) → the barrier before its image; the
//! coordinator goes settle → a wave → collection, taking one answer from
//! every site in settle and collection, once, and in a wave from each of
//! the wave's holders. Each is
//! one `match (phase, frame)` behind one check of who may send what: acks
//! and `Failed` aside, only the coordinator sends `Take`, an `Ops` slice,
//! `Waves`, `WaveAdvance`, `Gather`, `Meters` and `Shutdown`, and only a
//! site sends the coordinator `Deferred`, `WaveDone`, `BatchResult`,
//! `Built`, `Metered` and a fragment. A frame its phase does not take is
//! refused naming the link. Site 0 is an ordinary site machine beside the
//! coordinator's: the coordinator calls it with the same `CtrlMsg` it
//! sends the others, and its answers come back as return values, never as
//! frames. One loop receives — a frame off the inbox, or flush and park
//! for one — and feeds it to the machine; the exchanges between batches
//! are phases over it that take their answer alone. So the same machines
//! also run stepped on one thread, in an order a test chooses. A site
//! that fails says so before it goes: `SiteRunner::serve` sends its error
//! to the coordinator as a best-effort `Failed`, which ends whatever the
//! coordinator waits for at once, not at a receive timeout a minute later.
//!
//! # Piggybacked cumulative acks, flushed on idle
//!
//! A per-round ack frame for each silent request is pure overhead when
//! several rounds could share one, so a serving site *accumulates* an
//! owed-ack counter per requesting peer. While traffic flows, the count
//! rides every protocol frame towards that peer in a `RtFrame::Piggy`
//! envelope (the carried message's modeled `|M|` is untouched), whose
//! cumulative ack pops the `k` oldest outstanding rounds at the receiver
//! *before* the payload is matched — the owed rounds are strictly older,
//! so FIFO reply matching holds. When the inbox goes quiet, all owed
//! counters flush as one standalone frame per peer (`CtrlMsg::Ack` for a
//! single round, as small as the envelope it would have ridden in;
//! `CtrlMsg::AckN` when several batch up).
//!
//! # Flush before you park
//!
//! Two things are held back while a site is busy: owed acks and, on TCP,
//! the frames themselves — a node's write halves are buffered, so a burst
//! towards one peer costs one `write`. Both are released in the one loop,
//! the one place a machine parks: right before its blocking receive it
//! flushes what it owes, and [`Node::recv`] / [`Node::recv_opt`] flush the
//! sockets (see the [`cluster::run`] module docs). So a blocked site has
//! nothing withheld, and a cycle of sites each waiting on a frame another
//! still buffers (or an ack another still owes) cannot form. (A site
//! thread's inlet is no second parking spot: its slice is in it before the
//! `Take` is sent.) The coordinator adds three flushes that are hand-offs,
//! not parks — after the slices, after `Waves` and after releasing a
//! barrier, each before site 0's serial work — and one before it joins the
//! site threads on drop; a failing site flushes its `Failed` before it
//! returns.

use crate::detector::{DetectError, Detector};
use crate::horizontal::order::{Deferrals, DeferredList, WavePlanner};
use crate::horizontal::site::{Round, Site, SiteConfig};
use crate::horizontal::{Build, HorMsg};
use cfd::{Cfd, DeltaV, Violations};
use cluster::codec::CodecKind;
use cluster::net::{unpack_body, FrameCodec, TransportKind};
use cluster::partition::HorizontalScheme;
use cluster::run::{self, Node};
use cluster::{ClusterError, Meters, NetReport, SiteId};
use relation::{RelError, Relation, RowId, Schema, Tid, TidMap, Update, UpdateBatch};
use std::cell::{Cell, OnceCell, RefCell, RefMut};
use std::collections::VecDeque;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

mod ctrl;

use ctrl::encode_ops;
use ctrl::{BatchImage, BuildPrint, CtrlMsg, MeterImage, RtFrame};

/// The coordinator's site id. It is an ordinary site that additionally
/// owns batch admission, wave barriers and result collection.
pub(crate) const COORD: SiteId = 0;

/// In-flight rounds per site within a wave, and across the mesh between
/// two drains of the sequential driver. Bounds peak buffering; the window
/// never deadlocks because reader threads always drain sockets into
/// unbounded inboxes.
pub(crate) const WINDOW: usize = 128;

fn proto(msg: impl Into<String>) -> DetectError {
    DetectError::Cluster(ClusterError::Transport(msg.into()))
}

/// A frame on the `src → dst` link that its receiver cannot take, for
/// `cause`.
fn on_link(src: SiteId, dst: SiteId, cause: ClusterError) -> DetectError {
    let cause = Box::new(cause);
    DetectError::Cluster(ClusterError::Link { src, dst, cause })
}

/// A control frame on the `src → dst` link that its receiver cannot act on.
fn bad_link(src: SiteId, dst: SiteId, what: impl std::fmt::Display) -> DetectError {
    on_link(src, dst, ClusterError::Transport(what.to_string()))
}

/// What a site's [`CtrlMsg::Failed`] becomes at the coordinator.
fn site_failed(src: SiteId, cause: &str) -> DetectError {
    proto(format!("site {src} failed: {cause}"))
}

/// Mark `src` in `seen`, the sites a coordinator phase has heard from,
/// and say whether every site now has: a second time is `a second
/// {what}` on its link.
fn heard(seen: &mut [bool], src: SiteId, what: &str) -> Result<bool, DetectError> {
    match seen.get_mut(src).map(|seen| std::mem::replace(seen, true)) {
        Some(false) => Ok(!seen.contains(&false)),
        _ => Err(bad_link(src, COORD, format!("a second {what}"))),
    }
}

/// Check a site's `Deferred` list against the slice it was sent, before
/// anything is scheduled from it: positions inside the slice, ascending,
/// and a footprint for each deferred delete.
fn check_deferred(src: SiteId, deferred: &DeferredList, slice: &[&Update]) -> Step {
    let (mut floor, mut deletes) = (0, 0);
    for &(pos, _) in &deferred.updates {
        let Some(op) = slice.get(pos as usize) else {
            let len = slice.len();
            let what = format!("Deferred names position {pos} of a {len}-op slice");
            return Err(bad_link(src, COORD, what));
        };
        if pos < floor {
            let what = format!("Deferred position {pos} repeats or is out of order");
            return Err(bad_link(src, COORD, what));
        }
        floor = pos + 1;
        deletes += usize::from(!op.is_insert());
    }
    let keyed = deferred.footprints.len();
    if keyed != deletes {
        let what = format!("Deferred carries {keyed} footprints for {deletes} deferred deletes");
        return Err(bad_link(src, COORD, what));
    }
    Ok(())
}

/// One deferred update as its site runs it: `(wave, slice position,
/// writes)`.
pub(crate) type Placed = (u32, u32, bool);

/// Check the coordinator's `Waves` against the list site `me` deferred,
/// before any of it runs, and pair the two: the deferred updates sorted by
/// wave, in slice order within one.
pub(crate) fn wave_order(
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

/// The tids `slice` deletes and does not insert, ascending: its *pure*
/// deletes. Their home at batch start is the slice's site, and their
/// marks, which live only there, are all gone by the batch end: `V`'s
/// marks of them are the removals. The site's image leaves them out, and
/// the coordinator derives them ([`implied_removals`]).
fn pure_deletes<'a>(slice: impl Iterator<Item = &'a Update> + Clone) -> Vec<Tid> {
    let mut inserted: Vec<Tid> = (slice.clone())
        .filter(|op| op.is_insert())
        .map(Update::tid)
        .collect();
    inserted.sort_unstable();
    let mut pure: Vec<Tid> = slice
        .filter(|op| !op.is_insert() && inserted.binary_search(&op.tid()).is_err())
        .map(Update::tid)
        .collect();
    pure.sort_unstable();
    pure
}

/// The removals no batch image carries: `V`'s marks of the pure deletes
/// of each of the `n` sites' slices of `delta` (`homes`, in batch order).
/// Exact while `V` is the batch's starting one: a tid's marks live only at
/// its home, the site deleting it is that home, and marks it gains during
/// the batch net out there.
fn implied_removals(v: &Violations, delta: &UpdateBatch, homes: &[SiteId], n: usize) -> DeltaV {
    let mut dv = DeltaV::default();
    for j in 0..n {
        let slice = delta.ops().iter().zip(homes).filter(move |o| *o.1 == j);
        for tid in pure_deletes(slice.map(|o| o.0)) {
            v.cfds_of(tid).for_each(|c| dv.remove(c, tid));
        }
    }
    dv
}

/// Per wave of `n_waves`, the sites holding an update of it, ascending:
/// `waves[j]` is the wave of each update site `j` deferred.
fn wave_holders(n_waves: u32, waves: &[Vec<u32>]) -> Vec<Vec<SiteId>> {
    let mut holders = vec![Vec::new(); n_waves as usize];
    for (j, waves) in waves.iter().enumerate() {
        for &w in waves {
            let held: &mut Vec<SiteId> = &mut holders[w as usize];
            if held.last() != Some(&j) {
                held.push(j);
            }
        }
    }
    holders
}

// ---------------------------------------------------------------------
// The per-site machine
// ---------------------------------------------------------------------

/// Where a site is in a batch: between batches; settled, its `Deferred`
/// sent, awaiting the schedule (with the list it sent, to pair the
/// schedule with); running its share of wave `w` of `n`; awaiting the
/// release of wave `w` — the wave before its next one, or the batch's
/// last — at its barrier; shut down.
#[derive(PartialEq)]
enum SitePhase {
    Idle,
    Scheduled(Vec<(u32, bool)>),
    Wave { w: u32, n: u32 },
    Barrier { w: u32, n: u32 },
    Down,
}

/// One outstanding update of the current wave: the peers still to answer
/// and the machine's open round — `None` once a delete has sent its
/// `ClearFlags` and only acks remain.
struct Pending {
    pending: usize,
    round: Option<Round>,
}

/// What a site's step has for the coordinator to hear: at the
/// coordinator's own site, the answer that is a frame anywhere else.
type Answer = Result<Option<CtrlMsg>, DetectError>;

/// A step with nothing to hand on.
type Step = Result<(), DetectError>;

/// One site's machine: the §6 `Site` machine, the fragment its steps are
/// handed, the `ΔV` they record, and what is the runtime's own — its
/// phase, the wave's rounds, the owed-ack counters. It runs on a spawned
/// thread (threaded mode), alone inside a `site` process (multi-process
/// mode), or beside the coordinator on the caller's thread (site 0).
pub(crate) struct SiteRunner {
    site: Site,
    /// This site's fragment `σ_{F_me}(D)`: the only copy of a row this
    /// thread or process holds.
    rows: Relation,
    me: SiteId,
    n: usize,
    node: Node,
    /// The batch's marks, recorded by the machine's steps.
    dv: DeltaV,
    /// Per requesting peer: silently-served rounds not yet acked.
    owed: Vec<u32>,
    /// The settle pass's memory of what it deferred, cleared per batch.
    held: Deferrals,
    /// Site threads only: the slices the coordinator hands over in memory,
    /// one per batch, each announced by a [`CtrlMsg::Take`]. A site process
    /// has none; its slices arrive in [`CtrlMsg::Ops`] frames.
    inlet: Option<Receiver<Vec<Update>>>,
    /// What the node metered before the frame being served between batches
    /// ([`SiteRunner::keep_meters`]), kept until the coordinator asks for
    /// it. At the coordinator: its own, and every site's it was sent.
    kept: Meters,
    phase: SitePhase,
    /// The batch's slice, and its deferred updates by wave, then slice
    /// position, with how many of them have begun.
    slice: Vec<Update>,
    order: Vec<Placed>,
    next: usize,
    /// The wave's rounds, and per peer the slots of those still owed an
    /// answer, oldest first: links are FIFO and peers serve requests in
    /// arrival order, so a reply from `src` answers the oldest round we
    /// opened towards `src`.
    inflight: Vec<Option<Pending>>,
    queues: Vec<VecDeque<usize>>,
    /// Rounds not yet complete.
    open: usize,
}

impl SiteRunner {
    /// The site of `node` as the build left it: its machine and its
    /// fragment ([`split`]).
    pub(crate) fn new(site: Site, rows: Relation, node: Node) -> Self {
        let (n, me) = (node.n_nodes(), node.me());
        SiteRunner {
            rows,
            dv: DeltaV::default(),
            owed: vec![0; n],
            held: Deferrals::default(),
            inlet: None,
            kept: Meters::framed(n),
            phase: SitePhase::Idle,
            slice: Vec::new(),
            order: Vec::new(),
            next: 0,
            inflight: Vec::new(),
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            open: 0,
            site,
            me,
            n,
            node,
        }
    }

    // -- the one loop ----------------------------------------------------

    /// The one receive, and so the one place a machine parks: the next
    /// frame, decoded and checked, with what we owe flushed only when the
    /// inbox is empty, right before blocking. An `idle` site keeps what its
    /// node metered before each frame ([`SiteRunner::keep_meters`]), so a
    /// request between batches finds the node's block holding only itself,
    /// and waits out silence (`None`) instead of calling it a dead peer.
    fn next_frame(&mut self, idle: bool) -> Result<Option<(SiteId, RtFrame)>, DetectError> {
        if idle {
            self.keep_meters();
        }
        let frame = match self.node.try_recv()? {
            Some(frame) => Some(frame),
            None if idle => {
                self.flush_owed()?;
                self.keep_meters();
                self.node.recv_opt()?
            }
            None => {
                self.flush_owed()?;
                Some(self.node.recv()?)
            }
        };
        let Some((src, method, body)) = frame else {
            return Ok(None);
        };
        Ok(Some((src, self.admit(src, method, body)?)))
    }

    /// A received frame as the machine takes it: unpacked, decoded and
    /// checked against its link. A body that does not decode is an error
    /// naming the link it came over.
    fn admit(&self, src: SiteId, method: u8, body: Vec<u8>) -> Result<RtFrame, DetectError> {
        let frame = unpack_body(method, body).and_then(|b| RtFrame::decode_frame(&b));
        self.check(src, frame.map_err(|e| on_link(src, self.me, e))?)
    }

    /// Who may send what: acks and `Failed` aside, the coordinator sends a
    /// site what runs a batch or a session, and a site sends the
    /// coordinator its answers. A `Failed` is the error it carries, and a
    /// `Take` becomes the `Ops` of the slice it announces.
    fn check(&self, src: SiteId, frame: RtFrame) -> Result<RtFrame, DetectError> {
        use CtrlMsg as C;
        let RtFrame::Ctrl(msg) = frame else {
            return Ok(frame);
        };
        let (from_coord, to_coord) = (src == COORD, self.me == COORD);
        let allowed = match &msg {
            C::Ack | C::AckN(_) => true,
            // Whatever we were waiting for, it is not coming.
            C::Failed(cause) => return Err(site_failed(src, cause)),
            // A slice out, a fragment back.
            C::Ops(_) => from_coord || to_coord,
            C::Take | C::Waves { .. } | C::WaveAdvance(_) | C::Gather => from_coord,
            C::Meters | C::Shutdown => from_coord,
            C::Deferred(_) | C::WaveDone(_) | C::BatchResult(_) | C::Built(_) => to_coord,
            C::Metered(_) => to_coord,
        };
        if !allowed {
            let what = "a control frame this link does not carry";
            return Err(bad_link(src, self.me, what));
        } else if msg != C::Take {
            return Ok(RtFrame::Ctrl(msg));
        }
        // The coordinator fills the inlet before it sends the `Take`, so
        // the slice is there to take: no site ever parks on its inlet.
        let Some(inlet) = &self.inlet else {
            return Err(bad_link(src, self.me, "Take at a site with no inlet"));
        };
        let slice = inlet.try_recv();
        let slice = slice.map_err(|_| bad_link(src, self.me, "Take with nothing in the inlet"));
        Ok(RtFrame::Ctrl(C::Ops(slice?)))
    }

    /// The site's loop: frames until shutdown. This is what a spawned site
    /// thread (or a `site` process) runs.
    fn serve_batches(&mut self) -> Step {
        while self.phase != SitePhase::Down {
            let idle = self.phase == SitePhase::Idle;
            if let Some((src, frame)) = self.next_frame(idle)? {
                self.on_frame(src, frame)?;
            }
        }
        Ok(())
    }

    /// Serve batches until shutdown. A site that fails says so before it
    /// goes: the coordinator gets a best-effort [`CtrlMsg::Failed`]
    /// carrying the error this returns, so whatever it is waiting on ends
    /// at once with the cause, not at a receive timeout.
    pub(crate) fn serve(mut self) -> Step {
        let served = self.serve_batches();
        if let Err(e) = &served {
            let _ = self.node.send_ctrl(COORD, &CtrlMsg::Failed(e.to_string()));
            let _ = self.node.flush();
        }
        served
    }

    // -- the machine -----------------------------------------------------

    /// Step the machine by one checked frame from `src`: serve a request on
    /// the spot, close the wave's rounds with acks — an envelope's *before*
    /// the reply it carries, as they are older — and replies, and hand a
    /// control frame to the phase.
    fn on_frame(&mut self, src: SiteId, frame: RtFrame) -> Answer {
        let (acks, msg) = match frame {
            RtFrame::Ctrl(CtrlMsg::Ack) => (1, None),
            RtFrame::Ctrl(CtrlMsg::AckN(k)) => (k, None),
            RtFrame::Ctrl(msg) => return self.on_ctrl(src, msg),
            RtFrame::Hor(msg) => (0, Some(msg)),
            RtFrame::Piggy(k, msg) => (k, Some(msg)),
        };
        let reply = matches!(
            msg,
            Some(HorMsg::ProbeReply { .. } | HorMsg::DelReply { .. })
        );
        // No round of ours is open outside a wave.
        if (acks > 0 || reply) && !matches!(self.phase, SitePhase::Wave { .. }) {
            return Err(self.refusal(src));
        }
        let msg = match msg {
            Some(request) if !reply => {
                let (rows, dv) = (&self.rows, &mut self.dv);
                match self.site.on_request(src, request, rows, dv)? {
                    // A protocol reply carries the owed acks with it, so
                    // FIFO matching holds.
                    Some(answer) => self.send_hor(src, answer)?,
                    // Pipelining needs every round closed eventually: a
                    // silent round bumps the owed counter.
                    None => self.owed[src] += 1,
                }
                None
            }
            msg => msg,
        };
        for _ in 0..acks {
            self.close(src, None)?;
        }
        if let Some(msg) = msg {
            self.close(src, Some(msg))?;
        }
        self.advance()
    }

    /// The site's phase table: which control frame each phase takes.
    fn on_ctrl(&mut self, src: SiteId, msg: CtrlMsg) -> Answer {
        match (&self.phase, msg) {
            (SitePhase::Idle, CtrlMsg::Ops(ops)) => self.settle_pass(ops),
            (SitePhase::Idle, CtrlMsg::Gather) => self.send_fragment().map(|()| None),
            (SitePhase::Idle, CtrlMsg::Meters) => self.send_meters().map(|()| None),
            (SitePhase::Idle, CtrlMsg::Shutdown) => {
                self.phase = SitePhase::Down;
                Ok(None)
            }
            (SitePhase::Scheduled(deferred), CtrlMsg::Waves { n_waves, waves }) => {
                self.order = wave_order(self.me, deferred, n_waves, &waves)?;
                self.next = 0;
                match self.next_wave(n_waves) {
                    0 => self.start_wave(0, n_waves),
                    w => {
                        self.await_release(w, n_waves);
                        Ok(None)
                    }
                }
            }
            (&SitePhase::Barrier { w, n }, CtrlMsg::WaveAdvance(x)) if x == w => {
                self.start_wave(w + 1, n)
            }
            _ => Err(self.refusal(src)),
        }
    }

    /// A frame from `src` that this site's phase does not take.
    fn refusal(&self, src: SiteId) -> DetectError {
        let at = match self.phase {
            SitePhase::Idle | SitePhase::Down => "while idle",
            SitePhase::Scheduled(_) => "before the wave schedule",
            SitePhase::Wave { .. } => "mid-wave",
            SitePhase::Barrier { .. } => "at a wave barrier",
        };
        bad_link(src, self.me, format!("unexpected frame {at}"))
    }

    /// What the coordinator is to hear: sent to it, or — at its own site —
    /// returned.
    fn tell_coord(&mut self, msg: CtrlMsg) -> Answer {
        if self.me == COORD {
            return Ok(Some(msg));
        }
        self.node.send_ctrl(COORD, &msg)?;
        Ok(None)
    }

    /// A new batch's slice: the settle pass ([`Site::settle`]) applies what
    /// needs no scheduling, and the coordinator hears what it left.
    fn settle_pass(&mut self, ops: Vec<Update>) -> Answer {
        self.slice = ops;
        let slice: Vec<&Update> = self.slice.iter().collect();
        let (rows, dv) = (&mut self.rows, &mut self.dv);
        let deferred = self.site.settle(&slice, rows, dv, &mut self.held)?;
        self.phase = SitePhase::Scheduled(deferred.updates.clone());
        self.tell_coord(CtrlMsg::Deferred(deferred))
    }

    /// The next wave of `n` this site holds an update of, or `n` past its
    /// last.
    fn next_wave(&self, n: u32) -> u32 {
        self.order.get(self.next).map_or(n, |p| p.0)
    }

    /// Wait at the barrier before wave `w` of `n` (`w > 0`), or, with `w ==
    /// n`, before the batch image: for the release of wave `w - 1`. A wave
    /// this site holds nothing of has nothing to report about it.
    fn await_release(&mut self, w: u32, n: u32) {
        self.phase = SitePhase::Barrier { w: w - 1, n };
    }

    /// Start wave `w` of `n`; past the last one, cut the batch image: its
    /// marks settled (sorted, net of this site's own add/remove pairs),
    /// less the removals of every tid the slice deletes and does not
    /// insert, which the coordinator derives from `V` ([`implied_removals`]).
    fn start_wave(&mut self, w: u32, n: u32) -> Answer {
        if w < n {
            self.phase = SitePhase::Wave { w, n };
            self.inflight.clear();
            return self.advance();
        }
        self.phase = SitePhase::Idle;
        self.dv.settle();
        let pure = pure_deletes(self.slice.iter());
        let removed = std::mem::take(&mut self.dv.removed).into_iter();
        let img = BatchImage {
            added: std::mem::take(&mut self.dv.added),
            removed: removed
                .filter(|m| pure.binary_search(&m.1).is_err())
                .collect(),
        };
        self.tell_coord(CtrlMsg::BatchResult(Box::new(img)))
    }

    /// In a wave, after every frame: begin our updates of it in slice
    /// order, firing their rounds up front while fewer than [`WINDOW`] are
    /// open — each with its `writes` bit: a held one is class-preserving by
    /// the time it runs and must not ship. Once all have begun and every
    /// round is closed, report the wave done and wait at its barrier.
    fn advance(&mut self) -> Answer {
        let SitePhase::Wave { w, n } = self.phase else {
            return Ok(None);
        };
        while self.open < WINDOW {
            let Some(&(_, pos, writes)) = self.order.get(self.next).filter(|p| p.0 == w) else {
                break;
            };
            self.next += 1;
            let (rows, dv) = (&mut self.rows, &mut self.dv);
            let op = &self.slice[pos as usize];
            if let Some((round, requests)) = self.site.begin(op, writes, rows, dv)? {
                let slot = self.inflight.len();
                self.inflight.push(None);
                self.open += 1;
                self.open_round(slot, Some(round), requests)?;
            }
        }
        let next = self.next_wave(n);
        if next == w || self.open > 0 {
            return Ok(None);
        }
        self.await_release(next, n);
        self.tell_coord(CtrlMsg::WaveDone(w))
    }

    /// Send `requests` and park `round` in `slot` until each asked peer
    /// has answered or acked.
    fn open_round(
        &mut self,
        slot: usize,
        round: Option<Round>,
        requests: Vec<(SiteId, HorMsg)>,
    ) -> Step {
        let pending = requests.len();
        for (j, msg) in requests {
            self.send_hor(j, msg)?;
            self.queues[j].push_back(slot);
        }
        self.inflight[slot] = Some(Pending { pending, round });
        Ok(())
    }

    /// Fold one reply (or, `None`, an ack) into the oldest outstanding
    /// round towards `src`; the last one finishes the round.
    fn close(&mut self, src: SiteId, reply: Option<HorMsg>) -> Step {
        let me = self.me;
        let Some(slot) = self.queues[src].pop_front() else {
            return Err(bad_link(src, me, "an answer with no round open"));
        };
        let Some(p) = self.inflight[slot].as_mut() else {
            return Err(DetectError::Internal(format!(
                "site {me}: slot {slot} is closed"
            )));
        };
        match (reply, &mut p.round) {
            (Some(msg), Some(round)) => self.site.on_reply(round, src, msg)?,
            (None, _) => {}
            _ => return Err(bad_link(src, me, "a reply to a round that takes only acks")),
        }
        p.pending -= 1;
        if p.pending > 0 {
            return Ok(());
        }
        let round = p.round.take();
        self.inflight[slot] = None;
        let clears = match round {
            Some(round) => self.site.finish(round, &self.rows, &mut self.dv)?,
            None => Vec::new(),
        };
        if clears.is_empty() {
            self.open -= 1;
            return Ok(());
        }
        // The clear round of a delete keeps the slot: only acks remain.
        self.open_round(slot, None, clears)
    }

    /// Close every owed silent round with one standalone frame per peer:
    /// [`CtrlMsg::Ack`] for one round, [`CtrlMsg::AckN`] for several.
    fn flush_owed(&mut self) -> Step {
        for j in 0..self.n {
            let k = std::mem::take(&mut self.owed[j]);
            match k {
                0 => {}
                1 => self.node.send_ctrl(j, &CtrlMsg::Ack)?,
                k => self.node.send_ctrl(j, &CtrlMsg::AckN(k))?,
            }
        }
        Ok(())
    }

    /// Ship a protocol frame towards `dst`, carrying any acks we owe it in
    /// a [`RtFrame::Piggy`] envelope.
    fn send_hor(&mut self, dst: SiteId, msg: HorMsg) -> Step {
        let k = std::mem::take(&mut self.owed[dst]);
        match k {
            0 => self.node.send(dst, &msg)?,
            k => self.node.send(dst, &RtFrame::Piggy(k, msg))?,
        }
        Ok(())
    }

    /// Fold what the node metered into [`kept`](SiteRunner::kept) and
    /// zero the node's block.
    fn keep_meters(&mut self) {
        self.kept.merge(self.node.meters());
        self.node.reset_stats();
    }

    /// Answer a [`CtrlMsg::Gather`]: our fragment, one insert per row in
    /// tid order, in an `Ops` frame. The exchange reads `D` and belongs to
    /// no batch: like the `Built` handshake, it leaves the meters.
    fn send_fragment(&mut self) -> Step {
        let rows: Vec<Update> = self.rows.iter().map(Update::Insert).collect();
        let rows: Vec<&Update> = rows.iter().collect();
        let node = &mut self.node;
        node.send_ctrl_with(COORD, |out| encode_ops(out, &rows))?;
        node.reset_stats();
        Ok(())
    }

    /// Answer a [`CtrlMsg::Meters`]: what we metered since we last
    /// answered one, which we then zero. The exchange itself is traffic
    /// about traffic: it leaves the meters.
    fn send_meters(&mut self) -> Step {
        let (me, kept) = (self.me, &mut self.kept);
        let img = MeterImage {
            stats: kept.modeled.row(me).collect(),
            wire: kept.wire.row(me).collect(),
            meter: kept.transport,
            received: kept.received,
        };
        kept.reset();
        let node = &mut self.node;
        node.send_ctrl(COORD, &CtrlMsg::Metered(Box::new(img)))?;
        node.reset_stats();
        Ok(())
    }
}

// ---------------------------------------------------------------------
// The coordinator machine
// ---------------------------------------------------------------------

/// Where the coordinator is in a batch: awaiting the settle passes, with
/// the admitted batch, the home of each update and each site's `Deferred`
/// as it comes in; at wave `w`, with the sites holding an update of each
/// wave, the sites through with `w` — a site holding none of it is from
/// the start — and `ΔV` so far; collecting, with `ΔV` so far and the sites
/// whose image is in. Site 0 answers in each phase like any site, as a
/// return value.
enum CoordPhase {
    Settle(UpdateBatch, Vec<SiteId>, Vec<Option<DeferredList>>),
    Wave(u32, Vec<Vec<SiteId>>, Vec<bool>, DeltaV),
    Collect(DeltaV, Vec<bool>),
}

impl CoordPhase {
    /// Wave `w` of the batch whose waves `holders` holds, over `sites`
    /// sites, or, past the last, collection; `ΔV` so far is `dv`.
    fn wave(w: u32, holders: Vec<Vec<SiteId>>, dv: DeltaV, sites: usize) -> Self {
        let Some(held) = holders.get(w as usize) else {
            return CoordPhase::Collect(dv, vec![false; sites]);
        };
        let mut done = vec![true; sites];
        held.iter().for_each(|&j| done[j] = false);
        CoordPhase::Wave(w, holders, done, dv)
    }
}

/// What the coordinator asks every other site for between batches, and
/// where their answers go: the build handshake (each site's fingerprint
/// as the coordinator built it), the gather of `D`, the meters.
enum Asked<'a> {
    Built(&'a [BuildPrint]),
    Fragments(&'a mut Relation),
    Meters(&'a mut Meters),
}

/// One site's share of a build: its machine and its fragment.
type Share = (Site, Relation);

/// Route the rows of `d` into one fragment per site, build over the
/// fragments, and take the build apart: by site, its machine and its
/// fragment — the rows of `d` it is home to, whose row ids its state
/// holds; and what the coordinator keeps, every row's home and `V`. A
/// site's share is what a replay of `D₀` through the batch path leaves
/// there: a site stores only the rows it is home to, and records marks
/// only of members of its own groups.
fn split(
    schema: Arc<Schema>,
    cfds: Vec<Cfd>,
    scheme: &HorizontalScheme,
    d: &Relation,
    codec: CodecKind,
) -> Result<(Vec<Share>, TidMap, Violations), DetectError> {
    crate::detector::positional(&cfds)?;
    let (expected, got) = (schema.arity(), d.schema().arity());
    if expected != got {
        return Err(RelError::ArityMismatch { expected, got }.into());
    }
    let mut fragments: Vec<Relation> = (0..scheme.n_sites())
        .map(|_| Relation::new(schema.clone()))
        .collect();
    let mut homes = TidMap::default();
    let store = d.store();
    for homed in crate::horizontal::homes(scheme, d) {
        let (tid, home) = homed?;
        let row = store.row_of(tid).ok_or(RelError::MissingTid(tid))?;
        let values = store.row_syms(row).map(|s| store.pool().resolve(s));
        fragments[home].insert_row(tid, values)?;
        homes.insert(tid, home as RowId);
    }
    let rows: Vec<&Relation> = fragments.iter().collect();
    let homed = homes.iter().map(|(tid, home)| Ok((tid, home as SiteId)));
    let Build {
        sites, violations, ..
    } = Build::new(schema, cfds, scheme, &rows, homed, codec)?;
    Ok((
        sites.into_iter().zip(fragments).collect(),
        homes,
        violations,
    ))
}

/// Run one non-coordinator site of a **multi-process** mesh to
/// completion: build site `me`'s share of `d`, join the mesh on fixed
/// localhost ports, tell the coordinator what the build left
/// (`CtrlMsg::Built`), serve batches, return on shutdown. The entry
/// point of the `site` binary, which derives `d` — like `(schema, Σ,
/// scheme)` — from the same parameters as the coordinator.
pub fn run_site(
    schema: Arc<Schema>,
    cfds: Vec<Cfd>,
    scheme: &HorizontalScheme,
    d: &Relation,
    me: SiteId,
    codec: CodecKind,
    base_port: u16,
) -> Step {
    let (shares, _, violations) = split(schema, cfds, scheme, d, codec)?;
    let share = shares.into_iter().nth(me);
    let (site, rows) = share.ok_or(ClusterError::UnknownSite(me))?;
    let print = BuildPrint::of(&rows, &violations);
    let node = run::join(scheme.n_sites(), me, base_port)?;
    let mut runner = SiteRunner::new(site, rows, node);
    let node = &mut runner.node;
    node.send_ctrl(COORD, &CtrlMsg::Built(print))?;
    // The handshake is the build's, not ΔD's.
    node.reset_stats();
    runner.serve()
}

/// The concurrent `incHor` session: site 0 (the coordinator) runs on
/// the caller's thread; sites `1..n` are OS threads (threaded mode) or
/// separate processes joined over localhost TCP (distributed mode).
///
/// A row of `D` lives only in its home site's fragment. The coordinator
/// keeps what ordering a batch needs — every live tid's home, `V` and
/// site 0's runner — and gathers `D` ([`Detector::current`]) and the
/// meters ([`meters`](Self::meters)) from the sites when asked for them.
pub struct ConcurrentHorizontal {
    scheme: HorizontalScheme,
    /// What every site derives from `(schema, Σ, scheme)`.
    cfg: SiteConfig,
    /// The home site of every live tid: what admission asks presence of
    /// and what routes a delete.
    homes: TidMap,
    /// `V`, the one copy: each batch's `ΔV` is committed to it.
    violations: Violations,
    /// Site 0. In a cell so that [`Detector::current`], which takes
    /// `&self`, can drive its node to gather; every `&mut self` path
    /// reaches it with `get_mut`.
    runner: RefCell<SiteRunner>,
    /// `D` as the last gather since the last `apply` left it.
    gathered: OnceCell<Relation>,
    /// Every site's meters, as the last request since the last `apply`
    /// left them.
    metered: OnceCell<Meters>,
    /// What a gather behind [`Detector::current`] or a meters request
    /// failed with first, for the next `apply` to return.
    failed: Cell<Option<DetectError>>,
    /// Where site thread `j` takes its slices from, at `j - 1`. A site
    /// process has no inlet, so a multi-process session has none.
    inlets: Vec<Sender<Vec<Update>>>,
    handles: Vec<JoinHandle<Result<(), DetectError>>>,
    codec_kind: CodecKind,
    label: &'static str,
    /// Barrier rounds since the last reset (deterministic): per batch the
    /// settle handshake and one per wave.
    waves: u64,
    planner: WavePlanner,
    n: usize,
}

/// A scheme of no site leaves nobody to coordinate.
fn no_site() -> DetectError {
    ClusterError::BadScheme("a scheme of no site".into()).into()
}

/// The `Failed` frame waiting in `node`'s inbox, if any, as the error it
/// is: a site's own words, which beat the transport's for a send to it.
fn last_words(node: &mut Node) -> Option<DetectError> {
    while let Ok(Some((src, method, body))) = node.try_recv() {
        let frame = unpack_body(method, body).and_then(|body| RtFrame::decode_frame(&body));
        if let Ok(RtFrame::Ctrl(CtrlMsg::Failed(cause))) = frame {
            return Some(site_failed(src, &cause));
        }
    }
    None
}

/// Prefer a site's own words ([`last_words`]) to a transport error.
fn in_own_words(node: &mut Node, e: DetectError) -> DetectError {
    match e {
        DetectError::Cluster(ClusterError::Transport(_) | ClusterError::Link { .. }) => {
            last_words(node).unwrap_or(e)
        }
        e => e,
    }
}

/// Move the tids of a scheduled batch to their homes, in batch order:
/// a modification's delete frees the tid its insert takes.
fn rehome(tids: &mut TidMap, delta: &UpdateBatch, homes: &[SiteId]) {
    for (op, &home) in delta.ops().iter().zip(homes) {
        match op {
            Update::Insert(t) => tids.insert(t.tid, home as RowId),
            Update::Delete(tid) => tids.remove(*tid).is_some(),
        };
    }
}

impl ConcurrentHorizontal {
    /// One OS thread per site over the chosen transport:
    /// [`TransportKind::Tcp`] uses the localhost socket mesh, anything
    /// else the in-process frame channels. `V(Σ, D₀)` is built from `d` on
    /// the caller's thread before the mesh exists (the module docs'
    /// build); an unroutable row of `d` is the scheme's
    /// [`ClusterError::Routing`], one of another arity a
    /// [`RelError::ArityMismatch`], and neither opens a mesh or spawns a
    /// thread.
    pub fn threaded(
        schema: Arc<Schema>,
        cfds: Vec<Cfd>,
        scheme: HorizontalScheme,
        d: &Relation,
        codec: CodecKind,
        transport: TransportKind,
    ) -> Result<Self, DetectError> {
        let (shares, homes, v) = split(schema, cfds, &scheme, d, codec)?;
        let nodes = match transport {
            TransportKind::Tcp => run::tcp_mesh(shares.len())?,
            _ => run::mem_mesh(shares.len()),
        };
        let mut runners = shares
            .into_iter()
            .zip(nodes)
            .map(|((site, rows), node)| SiteRunner::new(site, rows, node));
        let coord = runners.next().ok_or_else(no_site)?;
        let mut det = Self::coordinating(scheme, (homes, v), coord, codec, "incHorMt");
        for mut runner in runners {
            let me = runner.me;
            let (inlet, outlet) = mpsc::channel();
            runner.inlet = Some(outlet);
            det.inlets.push(inlet);
            let spawned = std::thread::Builder::new()
                .name(format!("site-{me}"))
                .spawn(move || runner.serve());
            // On failure, dropping `det` shuts down the threads spawned.
            let spawned = spawned.map_err(|e| proto(format!("spawn site thread {me}: {e}")))?;
            det.handles.push(spawned);
        }
        Ok(det)
    }

    /// Join an `n`-process mesh on fixed localhost ports as the
    /// coordinator. The `n - 1` site processes must run [`run_site`] with
    /// the same `(schema, Σ, scheme, D₀, codec, base_port)`: each builds
    /// its own share of `d` while this builds every site's, and no row
    /// crosses a process boundary. A site whose `CtrlMsg::Built` does not
    /// match this build of it is [`DetectError::BuildMismatch`], and every
    /// site is shut down.
    pub fn distributed(
        schema: Arc<Schema>,
        cfds: Vec<Cfd>,
        scheme: HorizontalScheme,
        d: &Relation,
        codec: CodecKind,
        base_port: u16,
    ) -> Result<Self, DetectError> {
        let (shares, homes, v) = split(schema, cfds, &scheme, d, codec)?;
        let print = |(_, rows): &Share| BuildPrint::of(rows, &v);
        let prints: Vec<BuildPrint> = shares.iter().map(print).collect();
        let (site, rows) = shares.into_iter().next().ok_or_else(no_site)?;
        let node0 = run::join(scheme.n_sites(), COORD, base_port)?;
        let coord = SiteRunner::new(site, rows, node0);
        let det = Self::coordinating(scheme, (homes, v), coord, codec, "incHorMp");
        // The handshake is the build's, not ΔD's; on a refusal, dropping
        // `det` shuts every site down.
        det.exchange(&mut det.runner.borrow_mut(), None, Asked::Built(&prints))?;
        Ok(det)
    }

    /// The session over the coordinator's part of a build — every row's
    /// home, `V` and site 0's runner — with no site thread yet and every
    /// meter at zero.
    fn coordinating(
        scheme: HorizontalScheme,
        (homes, violations): (TidMap, Violations),
        runner: SiteRunner,
        codec: CodecKind,
        label: &'static str,
    ) -> Self {
        let n = scheme.n_sites();
        ConcurrentHorizontal {
            cfg: runner.site.cfg().clone(),
            homes,
            violations,
            gathered: OnceCell::new(),
            metered: OnceCell::new(),
            failed: Cell::new(None),
            waves: 0,
            planner: WavePlanner::default(),
            codec_kind: codec,
            label,
            scheme,
            runner: RefCell::new(runner),
            inlets: Vec::new(),
            handles: Vec::new(),
            n,
        }
    }

    // -- between batches -------------------------------------------------

    /// One exchange between batches over the one loop: send every other
    /// site `ask` (the build handshake asks nothing) and take one answer
    /// from each. Both ends take the exchange off their meters: it reads
    /// the build, `D` or the meters, and belongs to no batch.
    fn exchange(&self, zero: &mut SiteRunner, ask: Option<CtrlMsg>, mut asked: Asked<'_>) -> Step {
        zero.keep_meters();
        if let Some(ask) = &ask {
            for j in 1..self.n {
                zero.node.send_ctrl(j, ask)?;
            }
        }
        let mut seen = vec![false; self.n];
        seen[COORD] = true;
        while seen.contains(&false) {
            if let Some((src, frame)) = zero.next_frame(false)? {
                self.on_answer(&mut asked, &mut seen, src, frame)?;
            }
        }
        zero.node.reset_stats();
        Ok(())
    }

    /// An exchange's phase table: the answer it asked for, once from each
    /// site, checked before it is folded; anything else — a protocol
    /// frame among it — is refused naming the link.
    fn on_answer(
        &self,
        asked: &mut Asked<'_>,
        seen: &mut [bool],
        src: SiteId,
        frame: RtFrame,
    ) -> Step {
        use {CtrlMsg as C, RtFrame::Ctrl};
        match (asked, frame) {
            (Asked::Built(prints), Ctrl(C::Built(theirs))) => {
                heard(seen, src, "Built")?;
                let ours = prints[src];
                if theirs != ours {
                    let what = format!("{theirs}, where the coordinator built it {ours}").into();
                    return Err(DetectError::BuildMismatch { site: src, what });
                }
            }
            (Asked::Fragments(d), Ctrl(C::Ops(rows))) => {
                heard(seen, src, "fragment")?;
                let mut floor = None;
                for op in rows {
                    let Update::Insert(t) = op else {
                        return Err(bad_link(src, COORD, "a fragment with a delete in it"));
                    };
                    let (tid, home) = (t.tid, self.homes.get(t.tid).map(|h| h as SiteId));
                    if home != Some(src) || floor >= Some(tid) {
                        let what =
                            format!("fragment row {tid} is out of tid order or homed elsewhere");
                        return Err(bad_link(src, COORD, what));
                    }
                    floor = Some(tid);
                    d.insert(t)?;
                }
            }
            (Asked::Meters(got), Ctrl(C::Metered(img))) => {
                heard(seen, src, "Metered")?;
                for (matrix, cells) in [(&mut got.modeled, img.stats), (&mut got.wire, img.wire)] {
                    for (dst, c) in cells {
                        if dst >= self.n || dst == src {
                            let what = format!("metered a link to site {dst}");
                            return Err(bad_link(src, COORD, what));
                        }
                        matrix.add(src, dst, &c);
                    }
                }
                got.transport.merge(&img.meter);
                got.received += img.received;
            }
            (asked, _) => {
                let at = match asked {
                    Asked::Built(_) => "during the build handshake",
                    Asked::Fragments(_) => "during the gather",
                    Asked::Meters(_) => "during the meters request",
                };
                return Err(bad_link(src, COORD, format!("unexpected frame {at}")));
            }
        }
        Ok(())
    }

    /// `D`, gathered from the sites: each other site's fragment joins site
    /// 0's. A reply that is not the fragment the coordinator's homes say
    /// the site holds — a delete, a row out of tid order or homed
    /// elsewhere, a row missing — is an error naming the link; a site that
    /// failed is its own error, naming it.
    pub(crate) fn gather(&self) -> Result<Relation, DetectError> {
        let zero = &mut *self.runner.borrow_mut();
        let gathered = self.gather_from(zero);
        gathered.map_err(|e| in_own_words(&mut zero.node, e))
    }

    fn gather_from(&self, zero: &mut SiteRunner) -> Result<Relation, DetectError> {
        let mut d = Relation::new(self.cfg.schema.clone());
        zero.rows.iter().try_for_each(|t| d.insert(t))?;
        self.exchange(zero, Some(CtrlMsg::Gather), Asked::Fragments(&mut d))?;
        if d.len() != self.homes.len() {
            let (got, want) = (d.len(), self.homes.len());
            return Err(proto(format!("the fragments hold {got} of {want} rows")));
        }
        Ok(d)
    }

    /// Site 0's runner, every site's meters merged into its `kept` block
    /// for the infallible accessors; an error is kept for the next `apply`.
    fn gathered_meters(&self) -> RefMut<'_, SiteRunner> {
        let mut zero = self.runner.borrow_mut();
        let mut got = Meters::framed(self.n);
        match self.exchange(&mut zero, Some(CtrlMsg::Meters), Asked::Meters(&mut got)) {
            Ok(()) => zero.kept.merge(&got),
            Err(e) => self.defer(in_own_words(&mut zero.node, e)),
        }
        zero
    }

    /// Keep `e` for the next `apply` to return, unless an earlier error is
    /// already waiting there.
    fn defer(&self, e: DetectError) {
        let first = self.failed.take().unwrap_or(e);
        self.failed.set(Some(first));
    }

    // -- a batch ---------------------------------------------------------

    /// The home of every update of an admitted batch, in batch order. All
    /// are routed before anything is sent, so an unroutable tuple fails its
    /// batch whole.
    fn route(&self, delta: &UpdateBatch) -> Result<Vec<SiteId>, DetectError> {
        let home = |op: &Update| match op {
            Update::Insert(t) => Ok(self.scheme.route(t)?),
            Update::Delete(tid) => {
                let home = self.homes.get(*tid).ok_or(RelError::MissingTid(*tid))?;
                Ok(home as SiteId)
            }
        };
        delta.ops().iter().map(home).collect()
    }

    /// Admit and route a batch and hand the sites their slices — site 0's
    /// by a direct call — to settle: the coordinator machine in its first
    /// phase, or `None` for a batch of no update, which sends nothing.
    fn start(&mut self, delta: &UpdateBatch) -> Result<Option<CoordPhase>, DetectError> {
        // No row is at hand to compare a re-insert with: its home drops the
        // pair if it re-inserts the row as stored (`Site::settle`).
        let live = |tid| self.homes.get(tid).is_some();
        let delta = delta.normalize_by(live, |_| false);
        let delta = crate::detector::fitted(delta, &self.cfg.schema)?;
        if delta.ops().is_empty() {
            return Ok(None);
        }
        let homes = self.route(&delta)?;
        // A site process's slice is written to its frame from the batch;
        // a site machine's, here or on its thread, shares its rows.
        let mut slices: Vec<Vec<&Update>> = vec![Vec::new(); self.n];
        for (op, &home) in delta.ops().iter().zip(&homes) {
            slices[home].push(op);
        }
        let owned = |slice: &[&Update]| slice.iter().map(|&op| op.clone()).collect();
        let zero = self.runner.get_mut();
        for (j, slice) in slices.iter().enumerate().skip(1) {
            let out = &mut zero.node;
            match self.inlets.get(j - 1) {
                Some(inlet) => {
                    let left = |_| proto(format!("site {j} has left: its inlet is closed"));
                    inlet.send(owned(slice)).map_err(left)?;
                    out.send_ctrl(j, &CtrlMsg::Take)?;
                }
                None => out.send_ctrl_with(j, |out| encode_ops(out, slice))?,
            }
        }
        // Not a park, but the next stretch is site 0's alone: put the
        // sites to work on their settle passes before starting on ours.
        zero.node.flush()?;
        let answer = zero.on_ctrl(COORD, CtrlMsg::Ops(owned(&slices[COORD])))?;
        let mut phase = CoordPhase::Settle(delta, homes, vec![None; self.n]);
        if let Some(msg) = answer {
            self.on_frame(&mut phase, COORD, RtFrame::Ctrl(msg))?;
        }
        Ok(Some(phase))
    }

    /// Step the coordinator by one checked frame off node 0: the phase
    /// takes the sites' answers, site 0's machine the rest. What site 0
    /// answers the calls an answer makes goes to the phase in turn.
    fn on_frame(&mut self, phase: &mut CoordPhase, src: SiteId, frame: RtFrame) -> Step {
        use CtrlMsg::{Ack, AckN};
        let zero = self.runner.get_mut();
        let mut heard = match frame {
            RtFrame::Ctrl(msg) if !matches!(msg, Ack | AckN(_)) => Some((src, msg)),
            frame => zero.on_frame(src, frame)?.map(|msg| (COORD, msg)),
        };
        while let Some((src, msg)) = heard {
            heard = self.on_ctrl(phase, src, msg)?.map(|msg| (COORD, msg));
        }
        Ok(())
    }

    /// The coordinator's phase table. The last `Deferred` sends the wave
    /// plan; the last `WaveDone` of a wave from the sites holding an
    /// update of it releases the sites holding one of the next, or after
    /// the last wave every site — each hand-off flushed before site 0,
    /// called directly, takes it; and the last `BatchResult` folds `ΔV`
    /// into `V`.
    fn on_ctrl(&mut self, phase: &mut CoordPhase, src: SiteId, msg: CtrlMsg) -> Answer {
        let (n, zero) = (self.n, self.runner.get_mut());
        match (&mut *phase, msg) {
            (CoordPhase::Settle(delta, homes, lists), CtrlMsg::Deferred(list)) => {
                if lists[src].is_some() {
                    return Err(bad_link(src, COORD, "a second Deferred for one batch"));
                }
                let ops = delta.ops().iter().zip(&*homes);
                let slice: Vec<&Update> = ops.filter(|o| *o.1 == src).map(|o| o.0).collect();
                check_deferred(src, &list, &slice)?;
                lists[src] = Some(list);
                if lists.contains(&None) {
                    return Ok(None);
                }
                let deferred: Vec<_> = std::mem::take(lists).into_iter().flatten().collect();
                let ops = homes.iter().copied().zip(delta.ops());
                let (n_waves, waves) = self.planner.schedule(&self.cfg, ops, &deferred)?;
                self.waves += 1 + u64::from(n_waves);
                let holders = wave_holders(n_waves, &waves);
                // `V` is still the batch's starting one.
                let implied = implied_removals(&self.violations, delta, homes, n);
                let mut per_site = waves.into_iter();
                let waves = per_site.next().unwrap_or_default();
                for (j, waves) in (1..).zip(per_site) {
                    zero.node.send_ctrl(j, &CtrlMsg::Waves { n_waves, waves })?;
                }
                // Wave 0 is the sites' to start while the homes catch up.
                zero.node.flush()?;
                rehome(&mut self.homes, delta, homes);
                *phase = CoordPhase::wave(0, holders, implied, n);
                zero.on_ctrl(COORD, CtrlMsg::Waves { n_waves, waves })
            }
            (CoordPhase::Wave(w, holders, done, dv), CtrlMsg::WaveDone(x)) => {
                let w = *w;
                if !holders[w as usize].contains(&src) {
                    let what = format!("WaveDone({x}) from a site with no update in wave {w}");
                    return Err(bad_link(src, COORD, what));
                }
                let all = heard(done, src, "WaveDone")?;
                if x != w {
                    return Err(bad_link(src, COORD, format!("WaveDone({x}) in wave {w}")));
                } else if !all {
                    return Ok(None);
                }
                let released = match holders.get(w as usize + 1) {
                    Some(next) => next.clone(),
                    None => (0..n).collect(),
                };
                for &j in released.iter().filter(|&&j| j != COORD) {
                    zero.node.send_ctrl(j, &CtrlMsg::WaveAdvance(w))?;
                }
                // The released sites are parked on this barrier: release
                // them before computing our own share of the next wave.
                zero.node.flush()?;
                let (holders, dv) = (std::mem::take(holders), std::mem::take(dv));
                *phase = CoordPhase::wave(w + 1, holders, dv, n);
                match released.first() {
                    Some(&COORD) => zero.on_ctrl(COORD, CtrlMsg::WaveAdvance(w)),
                    _ => Ok(None),
                }
            }
            (CoordPhase::Collect(dv, answered), CtrlMsg::BatchResult(img)) => {
                let all = heard(answered, src, "BatchResult")?;
                dv.added.extend(img.added);
                dv.removed.extend(img.removed);
                if all {
                    dv.settle();
                    crate::detector::commit(&mut self.violations, dv)?;
                }
                Ok(None)
            }
            (phase, _) => {
                let at = match phase {
                    CoordPhase::Settle(..) => "during the settle handshake",
                    CoordPhase::Wave(..) => "at a wave barrier",
                    CoordPhase::Collect(..) => "during collection",
                };
                Err(bad_link(src, COORD, format!("unexpected frame {at}")))
            }
        }
    }

    /// One batch through the machines: start it, then the one loop on
    /// node 0 until every image is in.
    fn drive_batch(&mut self, delta: &UpdateBatch) -> Result<DeltaV, DetectError> {
        let Some(mut phase) = self.start(delta)? else {
            return Ok(DeltaV::default());
        };
        loop {
            if let CoordPhase::Collect(dv, answered) = &mut phase {
                if !answered.contains(&false) {
                    return Ok(std::mem::take(dv));
                }
            }
            if let Some((src, frame)) = self.runner.get_mut().next_frame(false)? {
                self.on_frame(&mut phase, src, frame)?;
            }
        }
    }

    /// Barrier rounds — coordinator round trips every site waits out —
    /// since the last reset: per non-empty batch, the settle handshake
    /// (`Take` or `Ops` out, `Deferred` back) and one per wave of deferred
    /// updates. Deterministic: classification depends only on a site's
    /// state and slice, placement only on the op stream.
    pub fn waves(&self) -> u64 {
        self.waves
    }

    /// Every site's meters since the last reset, merged: modeled `|M|`,
    /// measured bytes with control frames included, and the bytes read
    /// off the inboxes. Gathered from the sites on first call after an
    /// `apply` (one `CtrlMsg::Meters` each, off the meters) and kept
    /// until the next. Between batches the mesh is at rest and `received`
    /// equals `transport.wire_bytes`: every frame a node metered was read,
    /// every frame read had been metered. If the request fails, what was
    /// gathered before it, and the next `apply` returns its error.
    pub fn meters(&self) -> &Meters {
        self.metered
            .get_or_init(|| self.gathered_meters().kept.clone())
    }
}

impl Detector for ConcurrentHorizontal {
    fn strategy(&self) -> &'static str {
        self.label
    }

    fn schema(&self) -> &Arc<Schema> {
        &self.cfg.schema
    }

    fn cfds(&self) -> &[Cfd] {
        &self.cfg.cfds
    }

    /// `D`, gathered from the sites on first call after an `apply` and
    /// kept until the next (`ConcurrentHorizontal::gather`). If the
    /// gather fails, the empty relation, and the next `apply` returns the
    /// gather's error.
    fn current(&self) -> &Relation {
        self.gathered.get_or_init(|| {
            self.gather().unwrap_or_else(|e| {
                self.defer(e);
                Relation::new(self.cfg.schema.clone())
            })
        })
    }

    fn violations(&self) -> &Violations {
        &self.violations
    }

    /// One batch through the mesh. A site that fails says why before it
    /// goes (`CtrlMsg::Failed`) and the loop reports that in any phase —
    /// but a *send* to the node it left behind fails first, in the
    /// transport's words: prefer the site's own, if they are in the inbox.
    /// What a gather of `D` or of the meters since the last batch gathered
    /// goes; what one failed with is this batch's error.
    fn apply(&mut self, delta: &UpdateBatch) -> Result<DeltaV, DetectError> {
        self.gathered.take();
        self.metered.take();
        if let Some(e) = self.failed.take() {
            return Err(e);
        }
        let applied = self.drive_batch(delta);
        applied.map_err(|e| in_own_words(&mut self.runner.get_mut().node, e))
    }

    fn net(&self) -> NetReport {
        self.meters()
            .report("net")
            .with_codec(self.codec_kind.name())
    }

    /// Zero every site's meters — each answers a `CtrlMsg::Meters`,
    /// whose block is dropped — and the barrier rounds.
    fn reset_stats(&mut self) {
        self.gathered_meters().kept.reset();
        self.metered.take();
        self.waves = 0;
    }
}

impl Drop for ConcurrentHorizontal {
    fn drop(&mut self) {
        let node = &mut self.runner.get_mut().node;
        for j in 1..self.n {
            let _ = node.send_ctrl(j, &CtrlMsg::Shutdown);
        }
        // We wait on the threads, not on the inbox: flush by hand.
        let _ = node.flush();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::horizontal::fixtures::{
        d0, emp_schema, emp_tuple, fig1_cfds, fig2_scheme, simulated,
    };
    use crate::horizontal::site;
    use crate::HorizontalDetector;
    use cfd::CfdId;
    use cluster::TransportMeter;
    use relation::Tuple;
    use std::time::{Duration, Instant};

    /// Group-state census summed over `runners`' sites.
    fn census<'a>(runners: impl IntoIterator<Item = &'a SiteRunner>) -> crate::StateCensus {
        site::census(runners.into_iter().map(|r| &r.site))
    }

    /// Symbols resident on each link into the coordinator.
    fn coordinator_resident_symbols(det: &ConcurrentHorizontal) -> Vec<usize> {
        det.runner.borrow().site.resident_symbols().collect()
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
        let seq = simulated(cfds, scheme, d, codec);
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
        let dv_c = conc.apply(b).unwrap();
        let dv_s = Detector::apply(seq, b).unwrap();
        assert_eq!(dv_c, dv_s, "{what}: ΔV");
        let marks = conc.violations().marks_sorted();
        assert_eq!(marks, seq.violations().marks_sorted(), "{what}: V");
        assert_same_rows(conc.current(), seq.current(), what);
        let oracle = cfd::naive::detect(conc.cfds(), conc.current());
        assert_eq!(marks, oracle.marks_sorted(), "{what}: the oracle's V");
        let (got, want) = (
            conc.meters().modeled.to_bytes(),
            seq.meters().modeled.to_bytes(),
        );
        assert_eq!(got, want, "{what}: modeled |M| matrix");
        conc.waves() - before
    }

    /// Two relations hold the same rows, tid for tid.
    fn assert_same_rows(got: &Relation, want: &Relation, what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: rows of D");
        assert!(got.iter().eq(want.iter()), "{what}: D");
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

    /// The threaded build — `horizontal::Build` on the caller's thread, its
    /// machines and fragments moved to the sites — is an empty
    /// runtime handed `D₀` as one batch and then reset. Right after
    /// construction, with no reset on the built side: the same `V`, the
    /// coordinator's group census and the symbols resident on its links,
    /// and no barrier round, frame or received byte. Then, over a seeded
    /// stream, the same `ΔV` and barrier rounds batch by batch — a wave
    /// count is a function of every site's class sizes, so equal waves say
    /// every site's state is the replay's, not only the coordinator's — and
    /// the same modeled traffic matrix. Under every codec, over framed
    /// channels and TCP; for Fig. 1's rules at |D₀| ∈ {0, 1, 97, 3 000}
    /// (≈ 60-member classes over 5 streets per zip, singleton zips, rows
    /// outside CC 44), and the TPCH 8-rule and 96-rule catalogs of
    /// `fixtures::build_catalogs` (operators local to a site among them) —
    /// every `D₀` but the empty one with free rows and an overflow tid.
    #[test]
    fn the_threaded_build_is_one_apply() {
        use crate::horizontal::fixtures::{build_catalogs, stream, with_history};
        let s = emp_schema();
        let row = |tid: Tid| {
            let zip = format!("Z{}", if tid % 10 == 0 { tid } else { tid % 97 });
            let grade = ["A", "B", "C"][(tid % 3) as usize];
            let cc = if tid % 7 == 0 { 1 } else { 44 };
            let street = format!("street {}", (tid / 3) % 5);
            let city = if tid % 13 == 0 { "NYC" } else { "EDI" };
            emp_tuple(tid, grade, cc, 131, &zip, &street, city)
        };
        let follow_up = |n: Tid| {
            let mut b1 = UpdateBatch::new();
            (n + 1..n + 40).for_each(|tid| b1.insert(row(tid)));
            let mut b2 = UpdateBatch::new();
            (1..=n.min(60)).step_by(3).for_each(|tid| b2.delete(tid));
            for tid in (2..=n.min(60)).step_by(3) {
                b2.insert(Tuple::new(tid, row(tid + 1).values.to_vec()));
            }
            (n + 1..n + 20).for_each(|tid| b2.delete(tid));
            vec![b1, b2]
        };
        let mut cases = Vec::new();
        for n in [0, 1, 97, 3_000] {
            let rows = Relation::from_tuples(s.clone(), (1..=n).map(row)).unwrap();
            let d0 = match n {
                0 => rows,
                n => with_history(&rows, &row(n + 1)),
            };
            let (cfds, scheme) = (fig1_cfds(&s), fig2_scheme(&s));
            cases.push((
                format!("EMP, |D0| = {}", d0.len()),
                cfds,
                scheme,
                d0,
                follow_up(n),
            ));
        }
        let (d0, fresh, catalogs) = build_catalogs();
        for (name, cfds, scheme) in catalogs {
            let rhs = cfds.iter().find(|c| c.is_variable()).unwrap().rhs;
            let batches = stream(&d0, &fresh[..40], rhs);
            cases.push((name.into(), cfds, scheme, d0.clone(), batches));
        }
        let seen = |det: &ConcurrentHorizontal| {
            let marks = det.violations().marks_sorted();
            // The coordinator's own site: the others live on their threads.
            let census = census([&*det.runner.borrow()]);
            (marks, census, coordinator_resident_symbols(det))
        };
        let codecs = [CodecKind::RawValues, CodecKind::Md5, CodecKind::Dict];
        for (name, cfds, scheme, d0, batches) in &cases {
            let schema = d0.schema().clone();
            let mut all = UpdateBatch::new();
            d0.iter().for_each(|t| all.insert(t));
            for codec in codecs {
                for transport in [TransportKind::Framed, TransportKind::Tcp] {
                    let at = format!("{name}, {codec:?} over {transport:?}");
                    let build = |d: &Relation| {
                        let (s, c, sc) = (schema.clone(), cfds.clone(), scheme.clone());
                        ConcurrentHorizontal::threaded(s, c, sc, d, codec, transport).unwrap()
                    };
                    let mut built = build(d0);
                    let mut replayed = build(&Relation::new(schema.clone()));
                    replayed.apply(&all).unwrap();
                    replayed.reset_stats();
                    assert_eq!(seen(&built), seen(&replayed), "{at}");
                    assert_eq!(built.waves(), 0, "{at}");
                    assert_eq!(built.meters().transport, TransportMeter::default(), "{at}");
                    assert_eq!(built.meters().received, 0, "{at}");
                    for (i, batch) in batches.iter().enumerate() {
                        let dv = built.apply(batch).unwrap();
                        assert_eq!(dv, replayed.apply(batch).unwrap(), "{at}: ΔV of batch {i}");
                        assert_eq!(built.waves(), replayed.waves(), "{at}: batch {i}");
                    }
                    assert!(built.waves() > 0, "{at}: the stream waves");
                    assert_eq!(seen(&built).0, seen(&replayed).0, "{at}");
                    // Measured bytes move with ack timing; modeled |M| may not.
                    let (got, want) = (
                        built.meters().modeled.to_bytes(),
                        replayed.meters().modeled.to_bytes(),
                    );
                    assert_eq!(got, want, "{at}: modeled |M| matrix");
                }
            }
        }
    }

    #[test]
    fn threaded_mem_matches_sequential_for_every_codec() {
        for codec in [CodecKind::RawValues, CodecKind::Md5, CodecKind::Dict] {
            let pair = emp_pair(&d0(), codec, TransportKind::Framed);
            assert_eq!(pair.0.strategy(), "incHorMt");
            assert_tracks_sequential(pair, &script());
        }
    }

    #[test]
    fn threaded_tcp_matches_sequential() {
        let pair = emp_pair(&d0(), CodecKind::Md5, TransportKind::Tcp);
        let conc = &pair.0;
        assert!(conc.meters().transport.frames > 0 || conc.meters().modeled.total_bytes() == 0);
        assert_tracks_sequential(pair, &script());
    }

    #[test]
    fn wire_meter_identity_holds_and_ctrl_is_unmodeled() {
        let (mut conc, _) = emp_pair(&d0(), CodecKind::Md5, TransportKind::Framed);
        let mut b = UpdateBatch::new();
        b.insert(emp_tuple(10, "A", 44, 131, "EH7 7AA", "Foo", "EDI"));
        b.insert(emp_tuple(11, "B", 44, 131, "EH7 7AA", "Bar", "EDI"));
        conc.apply(&b).unwrap();
        let m = conc.meters().transport;
        assert_eq!(
            m.wire_bytes,
            m.modeled_bytes + m.structural_bytes - m.saved_bytes,
            "transport identity"
        );
        // Wave barriers + acks exist, but only protocol frames are |M|.
        assert!(m.frames > conc.meters().modeled.total_messages());
        assert_eq!(conc.meters().modeled.total_bytes(), m.modeled_bytes);
    }

    /// What the nodes metered on the way out is, byte for byte, what
    /// their peers took off the inboxes — `Deferred`, `Waves` and
    /// `BatchResult` frames and LZ-packed control frames included.
    #[test]
    fn every_written_byte_is_metered_and_received() {
        let (mut conc, _) = emp_pair(&d0(), CodecKind::Md5, TransportKind::Framed);
        assert_eq!(conc.meters().received, 0, "the load is not on the meters");
        // Site 1's slice is handed over in memory, but its image carries a
        // mark per row, a byte or so each: a control frame long enough to
        // be offered to LZ.
        let mut wide = UpdateBatch::new();
        for i in 0..160 {
            let street = format!("{} Long Meadow Gardens", 100 + i);
            wide.insert(emp_tuple(100 + i, "B", 44, 131, "EH9 1AA", &street, "EDI"));
        }
        let mut batches = script();
        batches.push(wide);
        let (mut before, mut saved) = (0, Vec::new());
        for (i, b) in batches.iter().enumerate() {
            conc.apply(b).unwrap();
            let m = conc.meters().transport;
            assert!(m.wire_bytes > before, "batch {i} moved bytes");
            before = m.wire_bytes;
            saved.push(m.saved_bytes);
            assert_eq!(conc.meters().received, m.wire_bytes, "batch {i}");
            assert_eq!(conc.meters().wire.total_bytes(), m.wire_bytes, "batch {i}");
            assert_eq!(conc.meters().wire.total_messages(), m.frames, "batch {i}");
            assert_eq!(
                m.wire_bytes,
                m.modeled_bytes + m.structural_bytes - m.saved_bytes,
                "batch {i}"
            );
            assert_eq!(
                conc.meters().modeled.total_bytes(),
                m.modeled_bytes,
                "batch {i}"
            );
        }
        // The md5 session packs no protocol frame: every saved byte is a
        // control frame's, and the wide batch's image saved some.
        let n = saved.len();
        assert!(saved[n - 1] > saved[n - 2], "saved {saved:?}");
    }

    /// Seeded interleaving stress: conflicting batches of about `batch`
    /// updates over a wider hash-partitioned mesh, checked batch by batch
    /// against the sequential drive (state, ΔV and the modeled byte
    /// matrix). The key domain grows with the batch, so a large batch
    /// still creates, empties and re-enters classes instead of settling
    /// whole.
    fn stress(n_sites: usize, seed: u64, n_batches: usize, batch: usize) {
        let mut pair = stress_pair(n_sites);
        let mut waves = 0;
        for (i, b) in stress_batches(seed, n_batches, batch).iter().enumerate() {
            let what = format!("{n_sites} sites, batch {i} of {batch}");
            waves += apply_both(&mut pair, b, &what);
        }
        // Every batch shakes hands once, and some deferred an update.
        assert!(waves > n_batches as u64, "{waves} barrier rounds");
    }

    /// Fig. 1's rules over `n_sites` hash fragments of an empty EMP: the
    /// threaded drive and the sequential one.
    fn stress_pair(n_sites: usize) -> (ConcurrentHorizontal, HorizontalDetector) {
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
        let seq = simulated(cfds, scheme, &empty, CodecKind::Md5);
        (conc.unwrap(), seq.unwrap())
    }

    /// The stress fixture's batches, a function of `seed` alone.
    fn stress_batches(seed: u64, n_batches: usize, batch: usize) -> Vec<UpdateBatch> {
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
        let mut batches = Vec::new();
        for _ in 0..n_batches {
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
            batches.push(b);
        }
        batches
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

    // -- the ordering rule, case by case --------------------------------

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
    /// wave, whatever its size — and, the rows being handed to the site
    /// threads in memory, the same control bytes on every link out of the
    /// coordinator: no row crosses one.
    #[test]
    fn a_class_preserving_batch_is_one_handshake_whatever_its_size() {
        // Wire bytes less modeled |M| on each link out of the coordinator.
        let ctrl_out = |conc: &ConcurrentHorizontal| -> Vec<u64> {
            let (wire, modeled) = (&conc.meters().wire, &conc.meters().modeled);
            let ctrl = |j| wire.pair(COORD, j).bytes - modeled.pair(COORD, j).bytes;
            (1..conc.n).map(ctrl).collect()
        };
        for transport in [TransportKind::Framed, TransportKind::Tcp] {
            let mut pair = emp_pair(&d0(), CodecKind::Md5, transport);
            let mut tid = 100;
            let mut per_batch = Vec::new();
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
                let what = format!("{size} inserts over {transport:?}");
                let before = ctrl_out(&pair.0);
                assert_eq!(apply_both(&mut pair, &b, &what), 1, "{what}");
                let after = ctrl_out(&pair.0);
                let moved: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
                assert!(moved.iter().all(|&bytes| bytes > 0), "{what}: {moved:?}");
                per_batch.push(moved);
            }
            assert_eq!(
                per_batch[0], per_batch[1],
                "{transport:?}: control bytes out"
            );
        }
    }

    /// An empty batch, and one whose updates cancel (an insert, then the
    /// delete of its tid), move nothing: no barrier round, no frame, no
    /// byte written or received, and no slice in any site's inlet — and
    /// the gather of `D` behind `current()` none either.
    #[test]
    fn an_empty_or_self_cancelling_batch_moves_nothing() {
        let mut cancelling = UpdateBatch::new();
        cancelling.insert(emp_tuple(10, "A", 44, 131, "EH7 7AA", "Foo", "EDI"));
        cancelling.delete(10);
        for transport in [TransportKind::Framed, TransportKind::Tcp] {
            let mut pair = emp_pair(&d0(), CodecKind::Md5, transport);
            // Stand-ins for the inlets, read here instead of by the sites.
            let (spies, outlets): (Vec<_>, Vec<_>) = (1..3).map(|_| mpsc::channel()).unzip();
            let inlets = std::mem::replace(&mut pair.0.inlets, spies);
            for (what, b) in [
                ("empty", UpdateBatch::new()),
                ("cancelling", cancelling.clone()),
            ] {
                let what = format!("{what} batch over {transport:?}");
                assert_eq!(apply_both(&mut pair, &b, &what), 0, "{what}");
                let conc = &pair.0;
                assert_same_rows(&conc.gather().unwrap(), pair.1.current(), &what);
                assert_eq!(conc.meters().transport, TransportMeter::default(), "{what}");
                assert_eq!(conc.meters().wire.total_bytes(), 0, "{what}");
                assert_eq!(conc.meters().received, 0, "{what}");
                let empty = |o: &Receiver<Vec<Update>>| o.try_recv().is_err();
                assert!(outlets.iter().all(empty), "{what}: a slice was handed over");
            }
            // The session is none the worse: the next batches track the
            // sequential drive.
            pair.0.inlets = inlets;
            assert_tracks_sequential(pair, &script());
        }
    }

    /// A re-insert of a row as stored is no update, but the coordinator,
    /// holding no row to compare it with, admits it as the delete and the
    /// insert of one tid, and the home's settle pass drops the pair. Mixed
    /// into a batch with a modification and an insert its batch deletes,
    /// the re-inserts change nothing: `ΔV`, `V`, the waves, the messages
    /// and the modeled matrix are those of the batch without them — and,
    /// by `apply_both`, the sequential drive's, which never sees them.
    #[test]
    fn a_reinsert_of_the_stored_row_moves_no_frame() {
        let d = d0();
        let again = |tid| Update::Insert(d.get(tid).unwrap());
        let modified = Update::Insert(emp_tuple(3, "A", 44, 131, "EH4 8LE", "Crichton", "EDI"));
        let fleeting = Update::Insert(emp_tuple(10, "A", 44, 131, "EH7 7AA", "Foo", "EDI"));
        let mixed = UpdateBatch::from_ops(vec![
            again(1),
            modified.clone(),
            again(2),
            fleeting.clone(),
            again(4),
            Update::Delete(10),
            again(5),
        ]);
        let plain = UpdateBatch::from_ops(vec![modified, fleeting, Update::Delete(10)]);
        for transport in [TransportKind::Framed, TransportKind::Tcp] {
            let mut with = emp_pair(&d, CodecKind::Md5, transport);
            let mut without = emp_pair(&d, CodecKind::Md5, transport);
            let what = format!("re-inserts over {transport:?}");
            let waves = apply_both(&mut with, &mixed, &what);
            assert_eq!(waves, apply_both(&mut without, &plain, &what), "{what}");
            let (with, without) = (&with.0, &without.0);
            let marks = with.violations().marks_sorted();
            assert_eq!(marks, without.violations().marks_sorted(), "{what}");
            let (got, want) = (&with.meters().modeled, &without.meters().modeled);
            assert_eq!(got.total_messages(), want.total_messages(), "{what}");
            assert_eq!(got.to_bytes(), want.to_bytes(), "{what}");
        }
        // Both halves of the pair are the home's to drop: its settle pass
        // applies nothing and defers nothing of them (the delete alone, of
        // a row no group holds, would empty a class: deferred).
        let s = emp_schema();
        let cfg = SiteConfig::new(s.clone(), fig1_cfds(&s), &fig2_scheme(&s));
        let (mut site, mut rows) = (Site::new(cfg.clone(), 1, CodecKind::Md5), d0());
        let (mut dv, mut held) = (DeltaV::default(), Deferrals::default());
        let pair = [Update::Delete(4), again(4)];
        let slice: Vec<&Update> = pair.iter().collect();
        let left = site.settle(&slice, &mut rows, &mut dv, &mut held).unwrap();
        assert_eq!(left, DeferredList::default());
        assert_eq!(dv, DeltaV::default());
        assert_same_rows(&rows, &d, "after the pair");
    }

    /// `D` and the meters are gathered from the sites when asked for, and
    /// both exchanges are off the meters at both ends: between batches
    /// `gather()`, `current()` and a second meters request move no meter,
    /// every byte written reads as received, and a twin session that never
    /// asked until the end reads the same modeled matrix and waves.
    #[test]
    fn a_gather_between_batches_moves_no_meter() {
        for transport in [TransportKind::Framed, TransportKind::Tcp] {
            let (mut gathering, seq) = emp_pair(&d0(), CodecKind::Md5, transport);
            let (mut twin, _) = emp_pair(&d0(), CodecKind::Md5, transport);
            // Each reading is a fresh request to every site.
            let meters = |c: &mut ConcurrentHorizontal| {
                c.metered.take();
                let m = c.meters();
                let (wire, stats) = (m.wire.to_bytes(), m.modeled.to_bytes());
                (m.transport, m.received, wire, stats, c.waves())
            };
            assert_same_rows(&gathering.gather().unwrap(), seq.current(), "the build");
            assert_eq!(meters(&mut gathering).0, TransportMeter::default());
            for (i, b) in script().iter().enumerate() {
                let at = format!("batch {i} over {transport:?}");
                gathering.apply(b).unwrap();
                twin.apply(b).unwrap();
                let before = meters(&mut gathering);
                let gathered = gathering.gather().unwrap();
                assert_same_rows(gathering.current(), &gathered, &at);
                assert_eq!(meters(&mut gathering), before, "{at}");
                let (transport, received, ..) = before;
                assert_eq!(received, transport.wire_bytes, "{at}");
                assert!(transport.frames > 0, "{at}");
                assert_eq!(gathering.waves(), twin.waves(), "{at}");
            }
            let (got, want) = (&gathering.meters().modeled, &twin.meters().modeled);
            assert_eq!(got.to_bytes(), want.to_bytes(), "over {transport:?}");
            let m = twin.meters();
            assert_eq!(m.received, m.transport.wire_bytes, "over {transport:?}");
        }
    }

    /// A meters answer the coordinator cannot fold — a cell on a link out
    /// of another site, or a second answer — fails the request with the
    /// link; `meters()` then reads what was gathered before it, and the
    /// next `apply` returns the error.
    #[test]
    fn hostile_meter_images_fail_the_request() {
        let cell = |dst| {
            let c = cluster::netstats::Counters {
                messages: 1,
                bytes: 9,
                eqids: 0,
            };
            MeterImage {
                wire: vec![(dst, c)],
                ..MeterImage::default()
            }
        };
        for (n, img, cause) in [
            (2, cell(1), "link 1 → 0: metered a link to site 1"),
            (2, cell(2), "link 1 → 0: metered a link to site 2"),
            (3, MeterImage::default(), "link 1 → 0: a second Metered"),
        ] {
            let answering = move |node: &mut Node, frame: CtrlMsg| {
                if let (1, CtrlMsg::Meters) = (node.me(), &frame) {
                    for _ in 1..node.n_nodes() {
                        let img = Box::new(img.clone());
                        node.send_ctrl(COORD, &CtrlMsg::Metered(img)).unwrap();
                    }
                    node.flush().unwrap();
                }
            };
            let mut conc = scripted_session(n, answering);
            assert_eq!(conc.meters().wire.total_bytes(), 0, "{cause}");
            let err = conc.apply(&UpdateBatch::new()).unwrap_err();
            assert!(err.to_string().contains(cause), "{err}");
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
    /// rules), replayed into an empty session in 4 096-op windows: the
    /// footprint-only schedule needed 209–230 waves for each of them,
    /// 2 184 in all.
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
            conc.apply(&tuples_of(window)).unwrap();
            per_window.push(conc.waves() - before);
        }
        let full = &per_window[..n_rows / 4_096];
        assert!(conc.waves() <= 650, "{per_window:?}");
        assert!(full[full.len() - 1] * 10 <= full[0], "{per_window:?}");
        let oracle = cfd::naive::detect(conc.cfds(), &base);
        assert_eq!(conc.violations().marks_sorted(), oracle.marks_sorted());
    }

    // -- failure and hostile frames -------------------------------------

    /// Site `node.me()` of a session over an empty `D₀`.
    fn empty_runner(cfg: SiteConfig, node: Node) -> SiteRunner {
        let rows = Relation::new(cfg.schema.clone());
        let site = Site::new(cfg, node.me(), CodecKind::Md5);
        SiteRunner::new(site, rows, node)
    }

    /// A frame the codec decodes but the protocol cannot mean ends the
    /// site's `serve` with a typed error naming the link — its thread
    /// returns, it does not panic — and the coordinator is told: a request
    /// for an operator the site does not have, a `Take` at a site thread
    /// with nothing in its inlet, a `Take` at a site process (no inlet).
    #[test]
    fn forged_frame_ends_the_site_with_a_typed_error() {
        let s = emp_schema();
        let cfg = SiteConfig::new(s.clone(), fig1_cfds(&s), &fig2_scheme(&s));
        let clear = RtFrame::Hor(HorMsg::ClearFlags {
            attrs: vec![],
            cfds: vec![u32::MAX],
        });
        let take = || RtFrame::Ctrl(CtrlMsg::Take);
        let cases: [(_, _, &[&str]); 3] = [
            (clear, false, &["ClearFlags", "operator 4294967295"]),
            (take(), true, &["Take with nothing in the inlet"]),
            (take(), false, &["Take at a site with no inlet"]),
        ];
        for (forged, thread, cause) in cases {
            let mut nodes = run::mem_mesh(2).into_iter();
            let (mut forger, node) = (nodes.next().unwrap(), nodes.next().unwrap());
            let mut site = empty_runner(cfg.clone(), node);
            // The sending half stays open: an empty inlet, not a closed one.
            let (_inlet, outlet) = mpsc::channel();
            site.inlet = thread.then_some(outlet);
            let handle = std::thread::spawn(move || site.serve());
            forger.send(1, &forged).unwrap();
            forger.flush().unwrap();
            let msg = match handle.join().expect("the site thread must not panic") {
                Err(DetectError::Cluster(e)) => e.to_string(),
                other => panic!("expected a protocol error, got {other:?}"),
            };
            assert!(msg.contains("0 → 1"), "{msg}");
            assert!(cause.iter().all(|c| msg.contains(c)), "{msg}");
            let last_words = forger.recv_msg::<CtrlMsg>().unwrap();
            assert_eq!(last_words, (1, CtrlMsg::Failed(msg)));
        }
    }

    /// A site takes what runs a batch or a session from the coordinator
    /// alone: an `Ops` slice, a `Waves` or a `Shutdown` that site 2 sends
    /// site 1 ends site 1's `serve` with a typed error naming the link, and
    /// the coordinator is told. Every case is run before any is judged, so
    /// a failure lists them all.
    #[test]
    fn a_site_takes_the_coordinators_frames_from_the_coordinator_alone() {
        let s = emp_schema();
        let cfg = SiteConfig::new(s.clone(), fig1_cfds(&s), &fig2_scheme(&s));
        let row = emp_tuple(1, "B", 44, 131, "EH7 7AA", "Foo", "EDI");
        let cases = [
            CtrlMsg::Ops(vec![Update::Insert(row)]),
            CtrlMsg::Waves {
                n_waves: 1,
                waves: vec![0],
            },
            CtrlMsg::Shutdown,
        ];
        let mut wrong = Vec::new();
        for forged in cases {
            let mut nodes = run::mem_mesh(3).into_iter();
            let (mut coord, node) = (nodes.next().unwrap(), nodes.next().unwrap());
            let mut peer = nodes.next().unwrap();
            let site = empty_runner(cfg.clone(), node);
            let handle = std::thread::spawn(move || site.serve());
            peer.send_ctrl(1, &forged).unwrap();
            peer.flush().unwrap();
            let served = handle.join().expect("the site thread must not panic");
            let refused = match &served {
                Err(DetectError::Cluster(ClusterError::Link { src, dst, .. })) => {
                    (*src, *dst) == (2, 1)
                }
                _ => false,
            };
            let told = served
                .as_ref()
                .err()
                .map(|e| CtrlMsg::Failed(e.to_string()));
            if !refused || told.is_none_or(|f| coord.recv_msg::<CtrlMsg>().unwrap() != (1, f)) {
                wrong.push(format!("{forged:?}: {served:?}"));
            }
        }
        assert!(wrong.is_empty(), "{wrong:#?}");
    }

    /// The coordinator takes one answer from each site, and a `WaveDone`
    /// for the wave it runs from the sites holding an update of it alone:
    /// at three sites, in a batch of one wave that both sites 1 and 2 hold
    /// an update of, a second `BatchResult` from site 1 (site 2 silent), a
    /// second `WaveDone(0)` (site 2 silent) or a `WaveDone(7)`; in one only
    /// site 1 holds an update of, a `WaveDone(0)` from site 2. Each fails
    /// the batch with a typed error naming the link, and each case is run
    /// before any is judged.
    #[test]
    fn a_second_answer_or_a_stray_wave_fails_the_batch() {
        let wave_done = CtrlMsg::WaveDone;
        let cases = [
            (
                &[1, 2][..],
                [vec![wave_done(0)], vec![wave_done(0)]],
                [2, 0],
                1,
                "a second BatchResult",
            ),
            (
                &[1, 2],
                [vec![wave_done(0); 2], vec![]],
                [1, 1],
                1,
                "a second WaveDone",
            ),
            (
                &[1, 2],
                [vec![wave_done(7)], vec![wave_done(0)]],
                [1, 1],
                1,
                "WaveDone(7) in wave 0",
            ),
            (
                &[1],
                [vec![], vec![wave_done(0)]],
                [1, 1],
                2,
                "WaveDone(0) from a site with no update in wave 0",
            ),
        ];
        let mut wrong = Vec::new();
        for (homed, done, results, src, cause) in cases {
            // Sites 1 and 2 defer every op of their slices as writers,
            // then answer `Waves` and `WaveAdvance` as the case says.
            let playing = move |node: &mut Node, frame: CtrlMsg| {
                let at = node.me() - 1;
                let answers = match frame {
                    CtrlMsg::Ops(ops) => vec![CtrlMsg::Deferred(DeferredList {
                        updates: (0..ops.len() as u32).map(|pos| (pos, true)).collect(),
                        footprints: Vec::new(),
                    })],
                    CtrlMsg::Waves { .. } => done[at].clone(),
                    CtrlMsg::WaveAdvance(_) => {
                        vec![CtrlMsg::BatchResult(Box::default()); results[at]]
                    }
                    _ => Vec::new(),
                };
                for answer in &answers {
                    node.send_ctrl(COORD, answer).unwrap();
                }
                node.flush().unwrap();
            };
            let mut conc = scripted_session(3, playing);
            // One insert homed at each site of `homed`, each into a group
            // of its own: the batch's one wave.
            let mut b = UpdateBatch::new();
            for &home in homed {
                let zip = format!("EH{home} 7AA");
                let mut tuples = (1..).map(|tid| emp_tuple(tid, "A", 44, 131, &zip, "Foo", "EDI"));
                b.insert(
                    tuples
                        .find(|t| conc.scheme.route(t).unwrap() == home)
                        .unwrap(),
                );
            }
            let applied = conc.apply(&b);
            match &applied {
                Err(DetectError::Cluster(e @ ClusterError::Link { src: s, dst: 0, .. }))
                    if *s == src && e.to_string().contains(cause) => {}
                _ => wrong.push(format!("{cause}: {applied:?}")),
            }
        }
        assert!(wrong.is_empty(), "{wrong:#?}");
    }

    /// A site thread that is gone takes no slice: handing it one is a
    /// transport error that names the site, before any frame is sent.
    #[test]
    fn a_slice_for_a_site_that_left_names_the_site() {
        let mut pair = emp_pair(&d0(), CodecKind::Md5, TransportKind::Framed);
        // Site 1's inlet, as its thread's exit would leave it: closed.
        let (closed, _) = mpsc::channel();
        let open = std::mem::replace(&mut pair.0.inlets[0], closed);
        let mut b = UpdateBatch::new();
        b.insert(emp_tuple(10, "A", 44, 131, "EH7 7AA", "Foo", "EDI"));
        b.insert(emp_tuple(11, "B", 44, 131, "EH7 7AA", "Bar", "EDI"));
        let err = match pair.0.apply(&b) {
            Err(DetectError::Cluster(ClusterError::Transport(e))) => e,
            other => panic!("expected a transport error, got {other:?}"),
        };
        assert!(err.contains("site 1 has left"), "{err}");
        assert_eq!(
            pair.0.runner.get_mut().node.meters().transport.frames,
            0,
            "{err}"
        );
        // Nothing of the batch was applied anywhere: with the inlet back,
        // it runs as if for the first time.
        pair.0.inlets[0] = open;
        apply_both(&mut pair, &b, "the batch again");
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
            let node = &mut conc.runner.get_mut().node;
            node.send_ctrl(1, &CtrlMsg::WaveAdvance(7)).unwrap();
            while let_it_go && !conc.handles[0].is_finished() {
                std::thread::yield_now();
            }
            let mut b = UpdateBatch::new();
            b.insert(emp_tuple(10, "A", 44, 131, "EH7 7AA", "Foo", "EDI"));
            b.insert(emp_tuple(11, "B", 44, 131, "EH7 7AA", "Bar", "EDI"));
            let asked = Instant::now();
            let err = match conc.apply(&b) {
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
        let kept = (TidMap::default(), Violations::new(cfg.cfds.len()));
        let runner = empty_runner(cfg, node0);
        let mut det =
            ConcurrentHorizontal::coordinating(scheme, kept, runner, CodecKind::Md5, "scripted");
        det.handles = nodes.map(play).collect();
        det
    }

    /// A fragment the coordinator's homes say the site does not hold — a
    /// delete in it, a row homed elsewhere, rows out of tid order, a row
    /// missing, a second fragment — fails the gather with the link and the
    /// cause. `current()` cannot say so: it reads empty, and the next
    /// `apply` returns the gather's error.
    #[test]
    fn hostile_fragments_fail_the_gather() {
        let row = |tid| Update::Insert(emp_tuple(tid, "A", 44, 131, "EH7 7AA", "Foo", "EDI"));
        let cases = [
            (
                2,
                vec![Update::Delete(5)],
                vec![],
                "a fragment with a delete in it",
            ),
            (
                2,
                vec![row(5)],
                vec![(5, 2)],
                "row 5 is out of tid order or homed elsewhere",
            ),
            (
                2,
                vec![row(5)],
                vec![],
                "row 5 is out of tid order or homed elsewhere",
            ),
            (
                2,
                vec![row(6), row(5)],
                vec![(5, 1), (6, 1)],
                "row 5 is out of tid order or homed elsewhere",
            ),
            (
                2,
                vec![row(5)],
                vec![(5, 1), (6, 1)],
                "the fragments hold 1 of 2 rows",
            ),
            (3, vec![], vec![], "a second fragment"),
        ];
        for (n, fragment, homes, cause) in cases {
            let answering = move |node: &mut Node, frame: CtrlMsg| {
                if let (1, CtrlMsg::Gather) = (node.me(), &frame) {
                    for _ in 1..node.n_nodes() {
                        node.send_ctrl(COORD, &CtrlMsg::Ops(fragment.clone()))
                            .unwrap();
                    }
                    node.flush().unwrap();
                }
            };
            for through_current in [false, true] {
                let mut conc = scripted_session(n, answering.clone());
                for &(tid, home) in &homes {
                    conc.homes.insert(tid, home as RowId);
                }
                let err = if through_current {
                    assert_eq!(conc.current().len(), 0, "{cause}");
                    conc.apply(&UpdateBatch::new()).map(|_| ()).unwrap_err()
                } else {
                    conc.gather().map(drop).unwrap_err()
                };
                let err = err.to_string();
                let link = cause.contains("rows") || err.contains("link 1 → 0");
                assert!(link && err.contains(cause), "{err}");
            }
        }
    }

    /// A gather after a site has failed ends with the site's own words —
    /// whether its `Failed` is still on the way or the site long gone —
    /// and neither end panics.
    #[test]
    fn a_gather_after_a_site_failed_names_the_site() {
        for let_it_go in [false, true] {
            for through_current in [false, true] {
                let (mut conc, _) = emp_pair(&d0(), CodecKind::Md5, TransportKind::Framed);
                // No site expects a barrier release between batches.
                let node = &mut conc.runner.get_mut().node;
                node.send_ctrl(1, &CtrlMsg::WaveAdvance(7)).unwrap();
                while let_it_go && !conc.handles[0].is_finished() {
                    std::thread::yield_now();
                }
                let err = if through_current {
                    assert_eq!(conc.current().len(), 0);
                    conc.apply(&script()[0]).map(|_| ()).unwrap_err()
                } else {
                    conc.gather().map(drop).unwrap_err()
                };
                let err = err.to_string();
                assert!(err.contains("site 1 failed"), "{err}");
                assert!(err.contains("unexpected frame while idle"), "{err}");
            }
        }
    }

    /// A `Deferred` list the coordinator cannot schedule from — a position
    /// outside the slice, out of order, repeated, a second list — fails
    /// the batch with the link and the cause before anything is placed.
    #[test]
    fn hostile_deferred_lists_fail_the_batch_before_anything_is_placed() {
        // Site 1 answers its 8-op slice with `forged`; under three sites,
        // site 2 stays silent, so that both lists read are site 1's.
        let answering = |forged: DeferredList| {
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
            (2, vec![(8, true)], 0, "position 8 of a 8-op slice"),
            (
                2,
                vec![(0, true), (u32::MAX, false)],
                0,
                "position 4294967295 of a 8-op slice",
            ),
            (
                2,
                vec![(3, true), (2, true)],
                0,
                "position 2 repeats or is out of order",
            ),
            (
                2,
                vec![(1, false), (1, true)],
                0,
                "position 1 repeats or is out of order",
            ),
            (3, vec![(0, true)], 0, "a second Deferred for one batch"),
            // The slice is all inserts: a footprint names no delete.
            (
                2,
                vec![(0, true)],
                1,
                "Deferred carries 1 footprints for 0 deferred deletes",
            ),
        ];
        for (n, updates, keyed, cause) in cases {
            let footprints = vec![vec![0xC0FFEE]; keyed];
            let forged = DeferredList {
                updates,
                footprints,
            };
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
            let err = match conc.apply(&b) {
                Err(DetectError::Cluster(e)) => e.to_string(),
                other => panic!("expected a protocol error, got {other:?}"),
            };
            assert!(err.contains("link 1 → 0") && err.contains(cause), "{err}");
            assert_eq!(conc.waves(), 0, "{err}");
        }
    }

    /// A `Deferred` frame cut inside one of its 4-byte footprint keys does
    /// not decode: the batch fails naming the link it came over, the
    /// decoder's words beneath, and nothing is placed.
    #[test]
    fn a_deferred_frame_cut_inside_a_key_names_the_link() {
        let list = DeferredList {
            updates: vec![(0, true)],
            footprints: vec![vec![7, 0xC0FF_EE00]],
        };
        let mut frame = Vec::new();
        CtrlMsg::Deferred(list).encode_frame(&mut frame);
        for cut in 1..4 {
            let frame = frame[..frame.len() - cut].to_vec();
            let answering = move |node: &mut Node, msg: CtrlMsg| {
                if let CtrlMsg::Ops(_) = msg {
                    node.send_ctrl_with(COORD, |out| out.extend_from_slice(&frame))
                        .unwrap();
                    node.flush().unwrap();
                }
            };
            let mut conc = scripted_session(2, answering);
            let mut tuples = (1..).map(|tid| emp_tuple(tid, "A", 44, 131, "EH7 7AA", "Foo", "EDI"));
            let mut b = UpdateBatch::new();
            b.insert(tuples.find(|t| conc.scheme.route(t).unwrap() == 1).unwrap());
            let err = conc.apply(&b).map(drop).unwrap_err();
            let text = err.to_string();
            let DetectError::Cluster(ClusterError::Link { src, dst, cause }) = err else {
                panic!("{cut} bytes short: {text}");
            };
            assert_eq!((src, dst), (1, COORD), "{text}");
            assert!(matches!(*cause, ClusterError::Transport(_)), "{text}");
            assert_eq!(text, "link 1 → 0: malformed frame payload: truncated field");
            assert_eq!(conc.waves(), 0, "{text}");
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
            let mut site = empty_runner(cfg.clone(), node);
            let served = std::thread::scope(|scope| {
                let serving = scope.spawn(|| site.serve_batches());
                // Two creators of new groups: both deferred, both writers.
                let ops = vec![
                    Update::Insert(emp_tuple(1, "B", 44, 131, "EH7 7AA", "Foo", "EDI")),
                    Update::Insert(emp_tuple(2, "B", 44, 131, "EH8 8BB", "Bar", "EDI")),
                ];
                coord.send_ctrl(1, &CtrlMsg::Ops(ops)).unwrap();
                let deferred = CtrlMsg::Deferred(DeferredList {
                    updates: vec![(0, true), (1, true)],
                    footprints: Vec::new(),
                });
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
            assert_eq!((site.rows.len(), census([&site]).groups), (0, 0), "{err}");
        }
    }

    // -- the machines on one thread -------------------------------------

    /// A session over `n_sites` hash fragments of an empty EMP whose
    /// machines all run on the caller's thread over in-memory nodes: the
    /// coordinator with site 0, and sites `1..` each with its inlet, as
    /// `threaded` makes them, unspawned.
    fn on_one_thread(n_sites: usize) -> (ConcurrentHorizontal, Vec<SiteRunner>) {
        let s = emp_schema();
        let scheme =
            HorizontalScheme::by_hash(s.clone(), s.attr_id("id").unwrap(), n_sites).unwrap();
        on_one_thread_over(scheme, fig1_cfds(&s), &Relation::new(s))
    }

    /// [`on_one_thread`] over `cfds`, `scheme` and `d`.
    fn on_one_thread_over(
        scheme: HorizontalScheme,
        cfds: Vec<Cfd>,
        d: &Relation,
    ) -> (ConcurrentHorizontal, Vec<SiteRunner>) {
        let (s, md5) = (scheme.schema().clone(), CodecKind::Md5);
        let (shares, homes, v) = split(s.clone(), cfds, &scheme, d, md5).unwrap();
        let nodes = run::mem_mesh(scheme.n_sites()).into_iter();
        let mut runners = shares
            .into_iter()
            .zip(nodes)
            .map(|((site, rows), node)| SiteRunner::new(site, rows, node));
        let zero = runners.next().unwrap();
        let mut det = ConcurrentHorizontal::coordinating(scheme, (homes, v), zero, md5, "stepped");
        let mut sites = Vec::new();
        for mut runner in runners {
            let (inlet, outlet) = mpsc::channel();
            runner.inlet = Some(outlet);
            det.inlets.push(inlet);
            sites.push(runner);
        }
        (det, sites)
    }

    /// A fault [`step_batch`] puts into the frames it reads: the body of
    /// frame `at` (counting every frame read, from 0, across batches) is
    /// cut to `len` modulo its length. `reads` counts the frames read, and
    /// `hit` is the link of the frame that was cut; `tally` holds, per
    /// frame kind, the frames read whole and their wire bytes.
    #[derive(Default)]
    struct Cut {
        at: Option<usize>,
        len: usize,
        reads: usize,
        hit: Option<(SiteId, SiteId)>,
        tally: std::collections::BTreeMap<&'static str, (u64, u64)>,
    }

    /// The kind of a frame as it crossed the link: a control tag, a
    /// protocol message, or the envelope of one.
    fn kind(frame: &RtFrame) -> &'static str {
        use CtrlMsg as C;
        match frame {
            RtFrame::Hor(m) => m.kind(),
            RtFrame::Piggy(..) => "Piggy",
            RtFrame::Ctrl(m) => match m {
                C::Ack => "Ack",
                C::AckN(_) => "AckN",
                C::Ops(_) => "Ops",
                C::Take => "Take",
                C::Deferred(_) => "Deferred",
                C::Waves { .. } => "Waves",
                C::WaveDone(_) => "WaveDone",
                C::WaveAdvance(_) => "WaveAdvance",
                C::BatchResult(_) => "BatchResult",
                C::Meters => "Meters",
                C::Metered(_) => "Metered",
                C::Failed(_) => "Failed",
                C::Built(_) => "Built",
                C::Gather => "Gather",
                C::Shutdown => "Shutdown",
            },
        }
    }

    /// Take the frame `node` holds next, as the loop reads it: decoded and
    /// checked against its link, after `cut` had its way with it.
    fn read(
        runner: &mut SiteRunner,
        cut: &mut Cut,
    ) -> Option<Result<(SiteId, RtFrame), DetectError>> {
        let received = runner.node.meters().received;
        let (src, method, mut body) = runner.node.try_recv().unwrap()?;
        let wire = runner.node.meters().received - received;
        let whole = unpack_body(method, body.clone()).and_then(|b| RtFrame::decode_frame(&b));
        let tally = cut.tally.entry(kind(&whole.unwrap())).or_default();
        (tally.0, tally.1) = (tally.0 + 1, tally.1 + wire);
        if cut.at == Some(cut.reads) {
            assert!(!body.is_empty(), "every frame has a tag");
            body.truncate(cut.len % body.len());
            cut.hit = Some((src, runner.me));
        }
        cut.reads += 1;
        Some(runner.admit(src, method, body).map(|f| (src, f)))
    }

    /// Step one batch to its end on this thread, `pick` choosing which
    /// machine takes its next frame: 0 is node 0 (the coordinator, with
    /// site 0 beside it), `j` site `j`. A machine whose inbox is empty
    /// flushes what it owes, as the loop does before it parks. Once every
    /// machine has been found empty since the last frame was taken and
    /// nothing was flushed to it, no machine can step: the batch is stuck.
    /// Every frame read goes through `cut`.
    fn step_batch(
        det: &mut ConcurrentHorizontal,
        sites: &mut [SiteRunner],
        b: &UpdateBatch,
        pick: &mut impl FnMut() -> usize,
        cut: &mut Cut,
    ) -> Result<DeltaV, DetectError> {
        let Some(mut phase) = det.start(b)? else {
            return Ok(DeltaV::default());
        };
        let n = sites.len() + 1;
        let mut quiet = vec![false; n];
        loop {
            if let CoordPhase::Collect(dv, answered) = &mut phase {
                if !answered.contains(&false) {
                    return Ok(std::mem::take(dv));
                }
            }
            if !quiet.contains(&false) {
                let stuck = "no machine can step and the batch is not done";
                return Err(DetectError::Internal(stuck.into()));
            }
            let j = pick() % n;
            let runner = match j {
                0 => det.runner.get_mut(),
                j => &mut sites[j - 1],
            };
            let Some(frame) = read(runner, cut) else {
                for (k, owed) in runner.owed.iter().enumerate() {
                    quiet[k] &= *owed == 0;
                }
                runner.flush_owed().unwrap();
                quiet[j] = true;
                continue;
            };
            quiet.fill(false);
            let stepped = frame.and_then(|(src, frame)| match j {
                0 => det.on_frame(&mut phase, src, frame),
                j => sites[j - 1].on_frame(src, frame).map(drop),
            });
            stepped?;
        }
    }

    /// The machine picks of schedule `seed`, a function of the seed alone.
    fn schedule(seed: u64) -> impl FnMut() -> usize {
        let mut rng = seed;
        move || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) as usize
        }
    }

    /// What a batch came to: `ΔV`, `V`, the modeled matrix and its message
    /// count so far, and the barrier rounds the batch took.
    type Outcome = (DeltaV, Vec<(CfdId, Tid)>, Vec<u8>, u64, u64);

    /// The stress fixture at `n_sites`, its batches of about `batch`
    /// updates, stepped on one thread once per schedule seed, each batch
    /// held to the sequential drive (`ΔV`, `V`, the modeled matrix and its
    /// messages) and to the threaded run (the waves). A failure names its
    /// schedule seed, and `scheduled_stress(n_sites, …, &[seed])` replays it
    /// alone: the schedule is a function of the seed.
    fn scheduled_stress(n_sites: usize, n_batches: usize, batch: usize, seeds: &[u64]) {
        let batches = stress_batches(0x5EED, n_batches, batch);
        let (mut conc, mut seq) = stress_pair(n_sites);
        let reference: Vec<Outcome> = (batches.iter())
            .map(|b| {
                let before = conc.waves();
                conc.apply(b).unwrap();
                let dv = Detector::apply(&mut seq, b).unwrap();
                let (marks, m) = (seq.violations().marks_sorted(), &seq.meters().modeled);
                let waves = conc.waves() - before;
                (dv, marks, m.to_bytes(), m.total_messages(), waves)
            })
            .collect();
        for &seed in seeds {
            let (mut det, mut sites) = on_one_thread(n_sites);
            let mut pick = schedule(seed);
            let mut whole = Cut::default();
            for (i, (b, want)) in batches.iter().zip(&reference).enumerate() {
                let at =
                    format!("{n_sites} sites, batches of {batch}: schedule seed {seed}, batch {i}");
                let before = det.waves();
                let stepped = step_batch(&mut det, &mut sites, b, &mut pick, &mut whole);
                let dv = stepped.unwrap_or_else(|e| panic!("{at}: {e}"));
                let mut m = Meters::framed(n_sites);
                for r in std::iter::once(&*det.runner.get_mut()).chain(&sites) {
                    m.merge(&r.kept);
                    m.merge(r.node.meters());
                }
                assert_eq!(dv, want.0, "{at}: ΔV");
                assert_eq!(det.violations().marks_sorted(), want.1, "{at}: V");
                assert!(m.modeled.to_bytes() == want.2, "{at}: modeled |M| matrix");
                assert_eq!(m.modeled.total_messages(), want.3, "{at}: messages");
                assert_eq!(det.waves() - before, want.4, "{at}: waves");
            }
        }
    }

    /// `V` is a function of the group state, which is why no site keeps a
    /// copy of it: after every batch of the stress fixture at 4 sites, the
    /// marks every site's violating groups and stored rows imply are the
    /// committed `V`, on the sequential drive and on the threaded machines
    /// stepped under 10 schedule seeds.
    #[test]
    fn v_is_a_function_of_the_group_state() {
        let batches = [(12, 4), (6, 16), (2, 256)];
        let batches: Vec<_> = (batches.iter())
            .flat_map(|&(n, size)| stress_batches(0x5EED, n, size))
            .collect();
        let (_, mut seq) = stress_pair(4);
        for (i, b) in batches.iter().enumerate() {
            Detector::apply(&mut seq, b).unwrap();
            let implied = seq.implied_violations().marks_sorted();
            assert_eq!(implied, seq.violations().marks_sorted(), "batch {i}");
        }
        for seed in 1..=10 {
            let (mut det, mut sites) = on_one_thread(4);
            let mut pick = schedule(seed);
            for (i, b) in batches.iter().enumerate() {
                step_batch(&mut det, &mut sites, b, &mut pick, &mut Cut::default()).unwrap();
                let zero = &*det.runner.get_mut();
                let runners: Vec<&SiteRunner> = std::iter::once(zero).chain(&sites).collect();
                let held = runners.iter().map(|r| (&r.site, &r.rows));
                let rows = runners.iter().flat_map(|r| r.rows.iter());
                let implied = site::tests::implied_violations(held, rows, &det.cfg.cfds);
                let marks = det.violations().marks_sorted();
                assert_eq!(
                    implied.marks_sorted(),
                    marks,
                    "schedule seed {seed}, batch {i}"
                );
            }
        }
    }

    /// A row freed by a batch is handed out again within it, while rounds
    /// are in flight, and no state names it meanwhile: a delete's groups
    /// let go of its row before the store frees it, an insert stores its
    /// row before it enters a group, and rounds carry tids and tuples,
    /// never rows. On Fig. 2's fragments, one batch opens a query round
    /// (the insert of t10 into a zip no site knows), deletes t2 — alone
    /// in its group — and t5 — whose round clears t1, t3 and t4 — and
    /// right behind each delete inserts a tuple at the same home (t11,
    /// t12), which takes the row the delete freed. The sequential drive
    /// runs the batch with every round in flight until its one drain; the
    /// threaded machines run it under 100 schedules. Both reuse the rows
    /// and end on the oracle's `V`, with the sequential drive's `ΔV`.
    #[test]
    fn a_row_freed_in_a_batch_is_reused_in_it_with_rounds_in_flight() {
        let s = emp_schema();
        let mut b = UpdateBatch::new();
        b.insert(emp_tuple(10, "A", 44, 131, "EH9 9ZZ", "Newington", "EDI"));
        b.delete(2);
        b.insert(emp_tuple(11, "A", 44, 131, "EH2 4HF", "Leith", "EDI"));
        b.delete(5);
        b.insert(emp_tuple(12, "C", 44, 131, "EH1 1AA", "Royal Mile", "EDI"));
        let mut d1 = d0();
        b.normalize(&d1).apply(&mut d1).unwrap();
        let oracle = cfd::naive::detect(&fig1_cfds(&s), &d1).marks_sorted();

        // One store: t11 takes t2's row, t12 takes t5's.
        let mut seq = simulated(fig1_cfds(&s), fig2_scheme(&s), &d0(), CodecKind::Md5).unwrap();
        let freed = [2, 5].map(|tid| seq.current().row_of(tid).unwrap());
        let dv = Detector::apply(&mut seq, &b).unwrap();
        assert_eq!(
            seq.waves(),
            1,
            "every round stayed in flight to the batch end"
        );
        assert_eq!(
            [11, 12].map(|tid| seq.current().row_of(tid).unwrap()),
            freed
        );
        assert_eq!(seq.violations().marks_sorted(), oracle);
        assert_eq!(seq.implied_violations().marks_sorted(), oracle);

        // A fragment each: t11 takes t2's row at site 0, t12 t5's at site 2.
        for seed in 1..=100 {
            let (mut det, mut sites) = on_one_thread_over(fig2_scheme(&s), fig1_cfds(&s), &d0());
            let freed = (det.runner.get_mut().rows.row_of(2), sites[1].rows.row_of(5));
            let mut pick = schedule(seed);
            let stepped = step_batch(&mut det, &mut sites, &b, &mut pick, &mut Cut::default());
            let at = format!("schedule seed {seed}");
            assert_eq!(stepped.unwrap(), dv, "{at}: ΔV");
            assert_eq!(det.violations().marks_sorted(), oracle, "{at}: V");
            let taken = (
                det.runner.get_mut().rows.row_of(11),
                sites[1].rows.row_of(12),
            );
            assert_eq!(taken, freed, "{at}: rows");
            let zero = &*det.runner.get_mut();
            let runners: Vec<&SiteRunner> = std::iter::once(zero).chain(&sites).collect();
            let held = runners.iter().map(|r| (&r.site, &r.rows));
            let rows = runners.iter().flat_map(|r| r.rows.iter());
            let implied = site::tests::implied_violations(held, rows, &det.cfg.cfds);
            assert_eq!(implied.marks_sorted(), oracle, "{at}: V implied");
        }
    }

    // -- bounded by live data ------------------------------------------

    /// A net-zero churn over `d0`: `ops` updates in batches of `batch`,
    /// each deleting the `batch / 2` oldest live rows and inserting their
    /// values again under fresh tids past every tid seen. Live rows stay
    /// |D₀| while tids run on; once `ops / 2` is a multiple of |D₀|, the
    /// relation ends holding `D₀`'s values again, in the same order.
    fn net_zero_churn(d0: &Relation, batch: usize, ops: usize) -> Vec<UpdateBatch> {
        let mut live: VecDeque<Tuple> = d0.iter().collect();
        let mut fresh = d0.max_tid().map_or(0, |t| t + 1);
        let churn = |_| {
            let mut b = UpdateBatch::new();
            let gone: Vec<Tuple> = live.drain(..batch / 2).collect();
            gone.iter().for_each(|t| b.delete(t.tid));
            for t in gone {
                let again = Tuple::new(fresh, t.values.to_vec());
                fresh += 1;
                live.push_back(again.clone());
                b.insert(again);
            }
            b
        };
        (0..ops / batch).map(churn).collect()
    }

    /// What the soak reads of a drive's resident state: the census's
    /// counts and bytes, `V`'s heap bytes, and per store the arena's rows
    /// and its `TidMap`'s bytes (the threaded coordinator's map of homes
    /// last).
    #[derive(Debug, Clone, PartialEq)]
    struct Resident {
        counts: [usize; 5],
        bytes: usize,
        v_bytes: usize,
        n_rows: Vec<usize>,
        tid_maps: Vec<usize>,
    }

    impl Resident {
        fn read<'a>(
            census: crate::StateCensus,
            v: &Violations,
            stores: impl IntoIterator<Item = &'a Relation>,
            homes: Option<&TidMap>,
        ) -> Self {
            let stores: Vec<_> = stores.into_iter().map(Relation::store).collect();
            let maps = stores.iter().map(|s| s.tid_map()).chain(homes);
            Resident {
                counts: [
                    census.groups,
                    census.classes,
                    census.memberships,
                    census.spilled_class_maps,
                    census.spilled_tid_sets,
                ],
                bytes: census.resident_bytes,
                v_bytes: (0..v.n_cfds())
                    .map(|i| v.of_cfd(i as CfdId).heap_bytes())
                    .sum(),
                n_rows: stores.iter().map(|s| s.n_rows()).collect(),
                tid_maps: maps.map(TidMap::heap_bytes).collect(),
            }
        }

        /// Back where `start` was: every count and arena exactly, every
        /// byte figure within one growth step (twice the start's).
        fn returned_to(&self, start: &Resident, what: &str) {
            assert_eq!(self.counts, start.counts, "{what}: census counts");
            assert_eq!(self.n_rows, start.n_rows, "{what}: arena rows");
            let step = |end: usize, start: usize, name: &str| {
                assert!(end <= 2 * start, "{what}: {name} {end} B against {start} B");
            };
            step(self.bytes, start.bytes, "census");
            step(self.v_bytes, start.v_bytes, "V");
            for (&end, &start) in self.tid_maps.iter().zip(&start.tid_maps) {
                step(end, start, "TidMap");
            }
        }
    }

    /// Resident state is bounded by live data, not by history: a net-zero
    /// churn of fresh tids ([`net_zero_churn`]) over TPCH's 8 rules leaves
    /// `incHor`, `incVer` and the threaded machines stepped under
    /// `step_batch` with the census counts and the arenas' rows they
    /// started with, and the census bytes, `V`'s heap bytes and every
    /// `TidMap`'s bytes (the stores', and the coordinator's homes) within
    /// one growth step — after every full turn of `D₀`, while the largest
    /// tid runs on. `updates` is the length of the churn.
    fn soak(updates: usize) {
        use workload::{rules, tpch};
        let tcfg = tpch::TpchConfig {
            n_rows: 400,
            n_customers: 40,
            n_parts: 30,
            n_suppliers: 10,
            error_rate: 0.05,
            ..tpch::TpchConfig::default()
        };
        let (schema, d0) = tpch::generate(&tcfg);
        let cfds = rules::tpch_rules(&schema, 8, 1);
        let (batch, turn) = (80, 2 * d0.len());
        let churn = net_zero_churn(&d0, batch, updates);
        // The samples: after every full turn of `D₀`.
        let sampled = |i: usize| ((i + 1) * batch) % turn == 0;
        assert!(churn.len() * batch >= 2 * turn && sampled(churn.len() - 1));
        let scheme = HorizontalScheme::by_hash(schema.clone(), schema.key(), 4).unwrap();

        let mut seq = simulated(cfds.clone(), scheme.clone(), &d0, CodecKind::Md5).unwrap();
        let read = |d: &HorizontalDetector| {
            Resident::read(d.state_census(), d.violations(), [d.current()], None)
        };
        let start = read(&seq);
        for (i, b) in churn.iter().enumerate() {
            Detector::apply(&mut seq, b).unwrap();
            if sampled(i) {
                read(&seq).returned_to(&start, &format!("incHor, batch {i}"));
            }
        }
        let oracle = cfd::naive::detect(&cfds, seq.current()).marks_sorted();
        assert_eq!(seq.violations().marks_sorted(), oracle);

        let ver = cluster::partition::VerticalScheme::round_robin(schema.clone(), 4).unwrap();
        let mut inc_ver = crate::VerticalDetector::new(schema, cfds.clone(), ver, &d0).unwrap();
        let read = |d: &crate::VerticalDetector| {
            Resident::read(d.state_census(), d.violations(), [d.current()], None)
        };
        let start = read(&inc_ver);
        for (i, b) in churn.iter().enumerate() {
            inc_ver.apply(b).unwrap();
            if sampled(i) {
                read(&inc_ver).returned_to(&start, &format!("incVer, batch {i}"));
            }
        }
        assert_eq!(inc_ver.violations().marks_sorted(), oracle);

        let (mut det, mut sites) = on_one_thread_over(scheme, cfds, &d0);
        let read = |det: &mut ConcurrentHorizontal, sites: &[SiteRunner]| {
            let zero = &*det.runner.get_mut();
            let runners: Vec<&SiteRunner> = std::iter::once(zero).chain(sites).collect();
            let stores = runners.iter().map(|r| &r.rows);
            let census = census(runners.iter().copied());
            Resident::read(census, &det.violations, stores, Some(&det.homes))
        };
        let start = read(&mut det, &sites);
        let mut pick = schedule(7);
        for (i, b) in churn.iter().enumerate() {
            step_batch(&mut det, &mut sites, b, &mut pick, &mut Cut::default()).unwrap();
            if sampled(i) {
                let what = format!("threaded, batch {i}");
                read(&mut det, &sites).returned_to(&start, &what);
            }
        }
        assert_eq!(det.violations().marks_sorted(), oracle);
    }

    /// The tier-1 length of the soak: five turns of `D₀`.
    #[test]
    fn a_net_zero_churn_returns_resident_state_to_start() {
        soak(4_000);
    }

    /// The soak at 10⁵ updates, 125 turns of `D₀`.
    #[test]
    #[ignore = "10⁵ updates: cargo test --release -p incdetect net_zero_churn -- --ignored"]
    fn a_long_net_zero_churn_returns_resident_state_to_start() {
        soak(100_000);
    }

    /// The threaded runtime's own logic — wave slots, owed acks, barriers,
    /// the settle handshake, image collection — under 100 schedules of
    /// its machines on one thread, each as the sequential drive and the
    /// threaded run have it.
    #[test]
    fn any_schedule_of_the_machines_is_the_sequential_drive() {
        let seeds: Vec<u64> = (1..=100).collect();
        scheduled_stress(4, 12, 4, &seeds);
        scheduled_stress(4, 6, 16, &seeds);
        scheduled_stress(4, 2, 256, &seeds);
    }

    /// A frame whose body is cut short ends its batch in an error naming
    /// the link it came over, whichever frame it is and wherever it is cut:
    /// never a panic, a stuck batch or a `ΔV`. Each of 100 schedule seeds
    /// of the stress fixture at 4 sites runs once whole, counting the
    /// frames read, then again with the body of a frame the seed picks cut
    /// to a length the seed picks; the batches before the cut come to the
    /// whole run's `ΔV`.
    #[test]
    fn a_truncated_frame_fails_its_batch_naming_the_link() {
        let batches = stress_batches(0x5EED, 6, 16);
        for seed in 1..=100u64 {
            let (mut det, mut sites) = on_one_thread(4);
            let (mut pick, mut whole) = (schedule(seed), Cut::default());
            let whole_dvs: Vec<DeltaV> = (batches.iter())
                .map(|b| step_batch(&mut det, &mut sites, b, &mut pick, &mut whole).unwrap())
                .collect();
            let r = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut cut = Cut {
                at: Some((r >> 32) as usize % whole.reads),
                len: r as u32 as usize,
                ..Cut::default()
            };
            let (mut det, mut sites) = on_one_thread(4);
            let mut pick = schedule(seed);
            for (i, (b, whole_dv)) in batches.iter().zip(&whole_dvs).enumerate() {
                let at = format!("schedule seed {seed}, batch {i}");
                let stepped = step_batch(&mut det, &mut sites, b, &mut pick, &mut cut);
                let Some(hit) = cut.hit else {
                    let dv = stepped.unwrap_or_else(|e| panic!("{at}: before the cut: {e}"));
                    assert_eq!(&dv, whole_dv, "{at}: before the cut");
                    continue;
                };
                // The link is named once, then the decoder's own words; the
                // decode error stays typed beneath it.
                let Err(e) = stepped else {
                    panic!("{at}: a cut frame makes no ΔV");
                };
                let text = e.to_string();
                match e {
                    DetectError::Cluster(ClusterError::Link { src, dst, cause }) => {
                        assert_eq!((src, dst), hit, "{at}: {text}");
                        let ClusterError::Transport(what) = *cause else {
                            panic!("{at}: the cause is not the decoder's: {text}");
                        };
                        assert!(what.starts_with("malformed "), "{at}: {text}");
                        assert_eq!(text, format!("link {src} → {dst}: {what}"), "{at}");
                    }
                    e => panic!("{at}: not a link error: {e}"),
                }
                break;
            }
            assert!(cut.hit.is_some(), "seed {seed}: the cut frame was read");
        }
        // The typed cause costs the error no width.
        assert_eq!(std::mem::size_of::<DetectError>(), 32);
    }

    /// The control plane, kind by kind: the frames and wire bytes of every
    /// frame the stress fixture at 4 sites puts on a link, stepped under
    /// schedule seed 1 — one thread in a seeded order, so ack timing is
    /// fixed and every count is exact. Whatever changes what a frame
    /// carries, or which frames a batch sends, moves its row. The state
    /// the run leaves resident is pinned the same way.
    #[test]
    fn the_control_plane_kind_by_kind() {
        let batches = stress_batches(0x5EED, 6, 64);
        let (mut det, mut sites) = on_one_thread(4);
        let (mut pick, mut reads) = (schedule(1), Cut::default());
        for b in &batches {
            step_batch(&mut det, &mut sites, b, &mut pick, &mut reads).unwrap();
        }
        assert_eq!(det.waves(), 41);
        // (kind, frames, wire bytes)
        let want = [
            ("Ack", 53, 106),
            ("AckN", 15, 45),
            ("BatchResult", 18, 318),
            ("ClearFlags", 1, 12),
            ("Deferred", 18, 356),
            ("DelReply", 68, 776),
            ("Piggy", 14, 117),
            ("ProbeReply", 59, 236),
            ("Take", 18, 36),
            ("TupleDelQuery", 96, 1_152),
            ("TupleProbe", 147, 2_169),
            ("WaveAdvance", 80, 240),
            ("WaveDone", 78, 234),
            ("Waves", 18, 206),
        ];
        let got: Vec<_> = reads
            .tally
            .into_iter()
            .map(|(k, (f, b))| (k, f, b))
            .collect();
        assert_eq!(got, want);

        // The state the run leaves resident: group state summed over every
        // site, and `V`, which only the coordinator keeps.
        let coordinator = &*det.runner.get_mut();
        let runners = || std::iter::once(coordinator).chain(&sites);
        let want = crate::StateCensus {
            groups: 32,
            classes: 76,
            memberships: 112,
            spilled_class_maps: 25,
            spilled_tid_sets: 4,
            resident_bytes: 8_420,
        };
        assert_eq!(census(runners()), want);
        let v_bytes = |v: &Violations| -> usize {
            (0..v.n_cfds())
                .map(|c| v.of_cfd(c as CfdId).heap_bytes())
                .sum()
        };
        assert_eq!(v_bytes(&det.violations), 704);
    }

    /// A pure delete's removals — `V`'s marks of a tid its home deletes
    /// and does not re-insert — are left out of the home's image and
    /// derived by the coordinator. Case by case over Fig. 1 and Fig. 2
    /// (t1 at site 0 violates φ0 and φ1; t3, t4 at site 1 and t5 at site 2
    /// violate φ0), each batch through the threaded runtime and under 100
    /// schedules of the machines on one thread: per batch the sequential
    /// drive's `ΔV`, and `V` the brute-force detector's.
    #[test]
    fn a_pure_delete_is_derived_case_by_case() {
        let d = d0();
        let t = |tid, grade, street| emp_tuple(tid, grade, 44, 131, "EH4 8LE", street, "EDI");
        let (ins, del) = (Update::Insert, Update::Delete);
        let fresh = || ins(emp_tuple(10, "B", 44, 131, "EH4 8LE", "Foo", "EDI"));
        let cases: Vec<(&str, Vec<Vec<Update>>)> = vec![
            (
                "a pure delete of a violating tid",
                vec![vec![del(5)], vec![del(1)]],
            ),
            (
                "a delete and re-insert at one home, values changed",
                vec![vec![del(3), ins(t(3, "B", "Crichton"))]],
            ),
            (
                "a delete and re-insert at one home, values the same",
                vec![vec![del(3), ins(d.get(3).unwrap())]],
            ),
            (
                "a modify that moves its tid's home",
                vec![vec![ins(t(3, "A", "Mayfield"))]],
            ),
            (
                "an insert, then the delete, of a fresh tid",
                vec![vec![fresh(), del(10)]],
            ),
            (
                "a fresh tid's marks, then its pure delete",
                vec![vec![fresh()], vec![del(10)]],
            ),
            (
                "a delete at A, a re-insert at B, a delete at B",
                vec![vec![del(3), ins(t(3, "A", "Mayfield")), del(3)]],
            ),
            (
                // t5's delete empties its class and clears φ0's flag at
                // sites 0 and 1 in wave 0; t1's delete, a wave behind it,
                // finds only its φ1 mark left.
                "a delete behind a ClearFlags that removed some of its marks",
                vec![vec![del(5), del(1)]],
            ),
        ];
        let s = emp_schema();
        for (case, batches) in &cases {
            let batches: Vec<UpdateBatch> = batches.iter().map(|b| tuples_of(b)).collect();
            // The sequential drive's `ΔV`, batch by batch; `apply_both`
            // holds the threaded runtime to it, and `V` to the oracle's.
            let mut seq = simulated(fig1_cfds(&s), fig2_scheme(&s), &d, CodecKind::Md5).unwrap();
            let want: Vec<DeltaV> = (batches.iter())
                .map(|b| Detector::apply(&mut seq, b).unwrap())
                .collect();
            let oracle = cfd::naive::detect(seq.cfds(), seq.current());
            assert_eq!(
                seq.violations().marks_sorted(),
                oracle.marks_sorted(),
                "{case}"
            );
            let mut pair = emp_pair(&d, CodecKind::Md5, TransportKind::Framed);
            for (i, b) in batches.iter().enumerate() {
                apply_both(&mut pair, b, &format!("{case}, batch {i}"));
            }
            for seed in 1..=100 {
                let (mut det, mut sites) = on_one_thread_over(fig2_scheme(&s), fig1_cfds(&s), &d);
                let (mut pick, mut reads) = (schedule(seed), Cut::default());
                for (i, (b, want)) in batches.iter().zip(&want).enumerate() {
                    let at = format!("{case}, schedule seed {seed}, batch {i}");
                    let stepped = step_batch(&mut det, &mut sites, b, &mut pick, &mut reads);
                    let dv = stepped.unwrap_or_else(|e| panic!("{at}: {e}"));
                    assert_eq!(&dv, want, "{at}: ΔV");
                }
                let marks = det.violations().marks_sorted();
                assert_eq!(
                    marks,
                    oracle.marks_sorted(),
                    "{case}, schedule seed {seed}: V"
                );
            }
        }
    }

    /// The long sweep: 1 000 schedules at 8 and 16 sites, with the stress
    /// tests' batch sizes (CI runs it optimized, `-- --ignored`).
    #[test]
    #[ignore = "a long sweep; run optimized with --ignored"]
    fn a_thousand_schedules_at_8_and_16_sites() {
        let seeds: Vec<u64> = (1..=1_000).collect();
        for n_sites in [8, 16] {
            for (n_batches, batch) in [(30, 4), (12, 16), (4, 256), (2, 4_096)] {
                scheduled_stress(n_sites, n_batches, batch, &seeds);
            }
        }
    }

    /// Every control frame kind, and a reply and an ack.
    fn every_frame() -> Vec<RtFrame> {
        let c = RtFrame::Ctrl;
        vec![
            c(CtrlMsg::Ack),
            c(CtrlMsg::AckN(2)),
            c(CtrlMsg::Ops(Vec::new())),
            c(CtrlMsg::Take),
            c(CtrlMsg::Deferred(DeferredList::default())),
            c(CtrlMsg::Waves {
                n_waves: 2,
                waves: vec![0, 1],
            }),
            c(CtrlMsg::WaveDone(0)),
            c(CtrlMsg::WaveAdvance(0)),
            c(CtrlMsg::BatchResult(Box::default())),
            c(CtrlMsg::Meters),
            c(CtrlMsg::Metered(Box::default())),
            c(CtrlMsg::Failed("gone".into())),
            c(CtrlMsg::Built(BuildPrint::default())),
            c(CtrlMsg::Gather),
            c(CtrlMsg::Shutdown),
            RtFrame::Hor(HorMsg::ProbeReply {
                conflicts: Vec::new(),
            }),
        ]
    }

    /// What a refused frame must leave alone: rows, the batch's `ΔV` and
    /// group state.
    fn state(r: &SiteRunner) -> (Vec<Tuple>, DeltaV, crate::StateCensus) {
        (r.rows.iter().collect(), r.dv.clone(), census([r]))
    }

    /// Hold one step to the table: a frame the phase takes steps it (or
    /// fails typed), any other is a typed error naming its link — a
    /// `Failed`, its sender — and leaves `seen` as it was. Nothing panics.
    fn judge<T: PartialEq + std::fmt::Debug>(
        at: &str,
        taken: bool,
        (src, dst): (SiteId, SiteId),
        stepped: Result<(), DetectError>,
        (before, after): (T, T),
        wrong: &mut Vec<String>,
    ) {
        let named = match &stepped {
            Err(DetectError::Cluster(ClusterError::Link { src: s, dst: d, .. })) => {
                (*s, *d) == (src, dst)
            }
            Err(DetectError::Cluster(ClusterError::Transport(e))) => {
                *e == format!("site {src} failed: gone")
            }
            _ => false,
        };
        if taken && stepped.is_err() && !named {
            wrong.push(format!("{at}: taken, then {stepped:?}"));
        } else if !taken && (!named || before != after) {
            wrong.push(format!("{at}: {stepped:?}, {before:?} → {after:?}"));
        }
    }

    /// Site 1 of three over Fig. 2's fragments, stepped by hand: idle;
    /// scheduled, two creators of new groups deferred; in wave 0 of 2, the
    /// first creator's round open; at wave 0's barrier, its round answered;
    /// before its wave, both creators placed in wave 1 of 2; awaiting the
    /// image, with nothing deferred in a batch of 2 waves.
    fn site_in(phase: &str) -> (SiteRunner, Vec<Node>) {
        let s = emp_schema();
        let cfg = SiteConfig::new(s.clone(), fig1_cfds(&s), &fig2_scheme(&s));
        let mut nodes = run::mem_mesh(3);
        let mut site = empty_runner(cfg, nodes.remove(1));
        let (_, outlet) = mpsc::channel();
        site.inlet = Some(outlet);
        let ops = vec![
            Update::Insert(emp_tuple(1, "B", 44, 131, "EH7 7AA", "Foo", "EDI")),
            Update::Insert(emp_tuple(2, "B", 44, 131, "EH8 8BB", "Bar", "EDI")),
        ];
        let waves = |waves| CtrlMsg::Waves { n_waves: 2, waves };
        let steps = match phase {
            "idle" => vec![],
            "scheduled" => vec![CtrlMsg::Ops(ops)],
            "before its wave" => vec![CtrlMsg::Ops(ops), waves(vec![1, 1])],
            "awaiting the image" => vec![CtrlMsg::Ops(Vec::new()), waves(vec![])],
            _ => vec![CtrlMsg::Ops(ops), waves(vec![0, 1])],
        };
        for msg in steps {
            site.on_ctrl(COORD, msg).unwrap();
        }
        if phase == "at a barrier" {
            for j in [0, 2] {
                while !site.queues[j].is_empty() {
                    let reply = HorMsg::ProbeReply {
                        conflicts: Vec::new(),
                    };
                    site.on_frame(j, RtFrame::Hor(reply)).unwrap();
                }
            }
        }
        (site, nodes)
    }

    /// Every site phase and every coordinator phase against every frame,
    /// stepped directly on one thread: what the phase does not take is a
    /// typed error naming the link, and leaves rows, `V` and group state
    /// as they were. Site phases hear each control frame from the
    /// coordinator and the reply and acks from site 2, which has a round
    /// open only in a wave; coordinator phases hear every frame from site
    /// 1, and the exchanges between batches are fed their phase table.
    #[test]
    fn every_phase_refuses_what_it_does_not_take() {
        let mut wrong = Vec::new();
        let site_phases: [(&str, &[&str]); 6] = [
            ("idle", &["Ops", "Gather", "Meters", "Shutdown"]),
            ("scheduled", &["Waves"]),
            ("in a wave", &["Ack", "AckN", "ProbeReply"]),
            ("at a barrier", &["WaveAdvance"]),
            ("before its wave", &["WaveAdvance"]),
            // Only the release of the last wave, 1, which no row sends.
            ("awaiting the image", &[]),
        ];
        for (phase, takes) in site_phases {
            for (k, frame) in every_frame().into_iter().enumerate() {
                let (mut site, _nodes) = site_in(phase);
                assert_eq!(site.phase != SitePhase::Idle, phase != "idle");
                let kind = format!("{frame:?}");
                let taken = takes.iter().any(|t| kind.starts_with(&format!("Ctrl({t}")))
                    || (kind.starts_with("Hor") && takes.contains(&"ProbeReply"));
                let src = if k < 2 || k == 15 { 2 } else { COORD };
                let before = state(&site);
                let stepped = site.check(src, frame).and_then(|f| site.on_frame(src, f));
                let at = format!("site {phase}, {kind} from {src}");
                let after = state(&site);
                judge(
                    &at,
                    taken,
                    (src, 1),
                    stepped.map(drop),
                    (before, after),
                    &mut wrong,
                );
            }
        }
        // The coordinator, over a batch of one insert homed at site 1 (or,
        // in the wave site 1 holds no update of, at site 2): settling (site
        // 0's `Deferred` in), in wave 0, collecting (site 0's image in).
        let batch_at = |home| {
            let (det, _) = on_one_thread(3);
            let mut tuples = (1..).map(|tid| emp_tuple(tid, "A", 44, 131, "EH7 7AA", "Foo", "EDI"));
            let mut b = UpdateBatch::new();
            b.insert(
                tuples
                    .find(|t| det.scheme.route(t).unwrap() == home)
                    .unwrap(),
            );
            b
        };
        let coord_in = |phase: &str| {
            let (mut det, sites) = on_one_thread(3);
            let home = if phase == "in a wave site 1 holds nothing of" {
                2
            } else {
                1
            };
            let mut at = det.start(&batch_at(home)).unwrap().unwrap();
            let deferred = |updates| DeferredList {
                updates,
                footprints: Vec::new(),
            };
            let mut steps = vec![(1, deferred(vec![])), (2, deferred(vec![]))];
            steps[home - 1].1.updates.push((0, true));
            if phase == "settling" {
                steps.clear();
            }
            for (j, list) in steps {
                let frame = RtFrame::Ctrl(CtrlMsg::Deferred(list));
                det.on_frame(&mut at, j, frame).unwrap();
            }
            if phase == "collecting" {
                let frame = RtFrame::Ctrl(CtrlMsg::WaveDone(0));
                det.on_frame(&mut at, 1, frame).unwrap();
            }
            (det, sites, at)
        };
        let seen = |det: &mut ConcurrentHorizontal| {
            let zero = det.runner.get_mut();
            (state(zero), det.violations.marks_sorted(), det.waves)
        };
        let coord_phases: [(&str, &[&str]); 4] = [
            ("settling", &["Deferred"]),
            ("in a wave", &["WaveDone"]),
            ("in a wave site 1 holds nothing of", &[]),
            ("collecting", &["BatchResult"]),
        ];
        for (phase, takes) in coord_phases {
            for frame in every_frame() {
                let (mut det, _sites, mut at) = coord_in(phase);
                let kind = format!("{frame:?}");
                let taken = takes.iter().any(|t| kind.starts_with(&format!("Ctrl({t}")));
                let before = seen(&mut det);
                let zero = det.runner.get_mut();
                let stepped = zero
                    .check(1, frame)
                    .and_then(|f| det.on_frame(&mut at, 1, f));
                let after = seen(&mut det);
                let what = format!("coordinator {phase}, {kind}");
                judge(
                    &what,
                    taken,
                    (1, COORD),
                    stepped,
                    (before, after),
                    &mut wrong,
                );
            }
        }
        // The exchanges between batches.
        for (phase, takes) in [("Built", "Built"), ("gather", "Ops"), ("meters", "Metered")] {
            for frame in every_frame() {
                let (det, _sites) = on_one_thread(3);
                let (prints, mut d) = ([BuildPrint::default(); 3], Relation::new(emp_schema()));
                let mut got = Meters::framed(3);
                let mut asked = match phase {
                    "Built" => Asked::Built(&prints),
                    "gather" => Asked::Fragments(&mut d),
                    _ => Asked::Meters(&mut got),
                };
                let kind = format!("{frame:?}");
                let taken = kind.starts_with(&format!("Ctrl({takes}"));
                let mut seen = vec![true, false, false];
                let zero = &mut *det.runner.borrow_mut();
                let before = (state(zero), seen.clone());
                let stepped =
                    (zero.check(1, frame)).and_then(|f| det.on_answer(&mut asked, &mut seen, 1, f));
                let after = (state(zero), seen.clone());
                let what = format!("the {phase} exchange, {kind}");
                judge(
                    &what,
                    taken,
                    (1, COORD),
                    stepped,
                    (before, after),
                    &mut wrong,
                );
            }
        }
        assert!(wrong.is_empty(), "{wrong:#?}");
    }
}
