//! The §6 site machine: one site's whole share of `incHor` — group state
//! and codec state — behind six steps with no transport, no threads, no
//! `V` and no rows inside: the four steps that touch a row are handed the
//! store their driver owns. The [parent module](super) documents the steps
//! and the invariants; [`HorizontalDetector`](super::HorizontalDetector)
//! drives `n` machines synchronously over a `MsgTransport` and hands each
//! the one logical relation, the thread-per-site
//! [`SiteRunner`](crate::concurrent::SiteRunner) drives one behind its
//! wave scheduler and hands it the fragment its thread or process holds —
//! after [`Site::try_settle`] has applied, on arrival, every update of the
//! batch that needs no scheduling at all.
//!
//! Group state, the case analyses and every id on the wire are per
//! *operator* `(X → B)` ([`SharedPlan::operators`]); CFD ids appear only
//! where a mark is written to `V`.

use super::{
    add_marks, class_values, clear_group, delete_case, insert_case, mark_group, GroupState, HorMsg,
    Ship, StateCensus,
};
use crate::detector::DetectError;
use crate::optimize::SharingMode;
use cfd::{Cfd, CfdId, DeltaV, MatchScratch, OpId, SharedPlan, Violations};
use cluster::codec::{
    value_digest, value_digest_into, CodecKind, PayloadCodec, ReceiverCodec, WireValue,
};
use cluster::md5::{md5, Digest};
use cluster::partition::HorizontalScheme;
use cluster::{ClusterError, SiteId};
use relation::{AttrId, FxHashMap, FxHashSet, RelError, Relation, Schema, Tid, Tuple, Update};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// Where a step records what it decides: the caller's `V` and the `ΔV` of
/// the batch in progress (the sequential driver has one of each, a
/// threaded site its own slice).
pub(crate) type Sink<'a> = (&'a mut Violations, &'a mut DeltaV);

/// What a shipping `begin_*` hands its driver: the open round and the
/// requests to send, ascending by peer.
pub(crate) type Opened = (Round, Vec<(SiteId, HorMsg)>);

/// Group-key digest of an LHS list: MD5 over the concatenated per-attribute
/// digests (in LHS order). Computable both from raw values and from shipped
/// attribute digests, which is what lets one message serve every operator.
fn key_digest_from(attr_digests: impl IntoIterator<Item = Digest>, kbuf: &mut Vec<u8>) -> Digest {
    kbuf.clear();
    for d in attr_digests {
        kbuf.extend_from_slice(&d.0);
    }
    md5(kbuf)
}

/// Digest of `t[a]`, memoized across the rules sharing the attribute: each
/// attribute of an update is hashed once, however many rules read it.
fn digest_cached(
    cache: &mut FxHashMap<AttrId, Digest>,
    t: &Tuple,
    a: AttrId,
    vbuf: &mut Vec<u8>,
) -> Digest {
    *cache
        .entry(a)
        .or_insert_with(|| value_digest_into(t.get(a), vbuf))
}

/// Wire payload for the (sorted) attributes `attrs` of `t` on the
/// `src → dst` link. Encoding is per link because codecs may keep per-link
/// state (dictionary residency): the same value can ship as a full entry
/// to one peer and a bare symbol to the next.
fn encode_attrs(
    codec: &mut dyn PayloadCodec,
    t: &Tuple,
    attrs: &[AttrId],
    (src, dst): (SiteId, SiteId),
) -> Vec<(AttrId, WireValue)> {
    let encode = |&a| (a, codec.encode(src, dst, t.get(a)));
    attrs.iter().map(encode).collect()
}

/// One message per peer in `sx.peers` carrying `sx.attrs` of `t`, built at
/// site `me`. Link-stateful codecs ([`PayloadCodec::per_link`]) encode
/// fresh per peer; stateless ones (md5/raw) encode once and clone, so the
/// attribute digests of an update are computed once, not per peer.
fn broadcast(
    codec: &mut dyn PayloadCodec,
    me: SiteId,
    sx: &OpScratch,
    t: &Tuple,
    msg: impl Fn(Vec<(AttrId, WireValue)>) -> HorMsg,
) -> Vec<(SiteId, HorMsg)> {
    let mut shared = None;
    let to_peer = sx.peers.iter().map(|&j| {
        let payload = if codec.per_link() {
            encode_attrs(codec, t, &sx.attrs, (me, j))
        } else {
            shared
                .get_or_insert_with(|| encode_attrs(codec, t, &sx.attrs, (me, j)))
                .clone()
        };
        (j, msg(payload))
    });
    to_peer.collect()
}

/// Everything a site derives from `(schema, Σ, scheme)` alone — identical
/// at every site, cheap to clone (all `Arc`s), and reconstructible in a
/// separate process from the same inputs.
#[derive(Debug, Clone)]
pub struct SiteConfig {
    pub(crate) schema: Arc<Schema>,
    pub(crate) cfds: Arc<[Cfd]>,
    /// The merged multi-CFD evaluation plan: one dispatch scan decides LHS
    /// matching for the whole rule set, its key groups (variable CFDs by
    /// identical LHS list) let senders and receivers compute one group-key
    /// digest per distinct LHS rather than per CFD, and its operators
    /// (key group × RHS attribute) are what group state is kept per.
    pub(crate) plan: Arc<SharedPlan>,
    pub(crate) n_sites: usize,
    /// Per CFD: digests of the LHS constant atoms (pattern checks on
    /// shipped payloads without re-hashing constants).
    atom_digests: Arc<[Vec<(AttrId, Digest)>]>,
    /// `local_ok[operator][site]`: `X_{F_i} ⊆ X` — no cross-site conflicts.
    local_ok: Arc<[Vec<bool>]>,
    /// `relevant[cfd]`: sites where `F_i ∧ F_φ` is satisfiable.
    relevant: Arc<[Vec<SiteId>]>,
}

impl SiteConfig {
    /// Derive the shared configuration.
    pub fn new(schema: Arc<Schema>, cfds: Vec<Cfd>, scheme: &HorizontalScheme) -> Self {
        let n_sites = scheme.n_sites();
        let plan = SharedPlan::new(&cfds);
        let mut relevant = Vec::with_capacity(cfds.len());
        let mut atom_digests = Vec::with_capacity(cfds.len());
        for cfd in &cfds {
            let atoms = cfd.constant_atoms();
            let satisfiable = |i: &SiteId| !scheme.predicate(*i).conflicts_with_atoms(&atoms);
            relevant.push((0..n_sites).filter(satisfiable).collect::<Vec<SiteId>>());
            let digest = |(a, v)| (a, value_digest(&v));
            atom_digests.push(atoms.into_iter().map(digest).collect::<Vec<_>>());
        }
        let local_ok = plan.operators().iter().map(|(g, ..)| {
            let x = &plan.key_groups()[*g].0;
            let on_lhs = |i| scheme.predicate(i).attrs().iter().all(|a| x.contains(a));
            (0..n_sites).map(on_lhs).collect::<Vec<bool>>()
        });
        SiteConfig {
            schema,
            local_ok: local_ok.collect(),
            plan: Arc::new(plan),
            cfds: cfds.into(),
            n_sites,
            atom_digests: atom_digests.into(),
            relevant: relevant.into(),
        }
    }

    /// The CFDs whose LHS pattern `t` matches: the constant ones into
    /// `sx.consts`, the variable ones into `sx.vars` grouped by operator,
    /// with the key digest of every key group one of them sits on in
    /// `sx.group_kd` ([`matched_ops`] reads the two back). The only
    /// place the evaluation mode shows: one shared dispatch pass with one
    /// key digest per key group, or ([`SharingMode::PerCfd`], the tests'
    /// reference) a `matches_lhs` scan hashing every CFD's key on its own.
    pub(crate) fn candidates(&self, mode: SharingMode, t: &Tuple, sx: &mut OpScratch) {
        sx.begin(self.plan.key_groups().len());
        match mode {
            SharingMode::Shared => {
                for &cid in self.plan.matched(t, &mut sx.dispatch) {
                    let Some(g) = self.plan.group_of(cid) else {
                        sx.consts.push(cid);
                        continue;
                    };
                    sx.group_kd[g].get_or_insert_with(|| {
                        let lhs = self.plan.key_groups()[g].0.iter();
                        let digests =
                            lhs.map(|&a| digest_cached(&mut sx.attr_d, t, a, &mut sx.vbuf));
                        key_digest_from(digests, &mut sx.kbuf)
                    });
                    sx.vars.push(cid);
                }
            }
            SharingMode::PerCfd => {
                for cfd in self.cfds.iter().filter(|c| c.matches_lhs(t)) {
                    let Some(g) = self.plan.group_of(cfd.id) else {
                        sx.consts.push(cfd.id);
                        continue;
                    };
                    let lhs = cfd.lhs.iter();
                    let digests = lhs.map(|&a| value_digest_into(t.get(a), &mut sx.vbuf));
                    sx.group_kd[g] = Some(key_digest_from(digests, &mut sx.kbuf));
                    sx.vars.push(cfd.id);
                }
            }
        }
        // Ids ascend and operators are numbered in first-seen order, so
        // this is already sorted unless two operators' rules interleave.
        sx.vars
            .sort_unstable_by_key(|&c| (self.plan.operator_of(c), c));
    }

    /// Operator `o`: `X` in LHS order, `B`, and its CFDs ascending.
    fn operator(&self, o: OpId) -> (&[AttrId], AttrId, &[CfdId]) {
        let (g, b, cfds) = &self.plan.operators()[o as usize];
        (&self.plan.key_groups()[*g].0, *b, cfds)
    }

    /// Does `o` name an operator of `Σ`? The protocol ships no other id: a
    /// constant CFD has no group state, and so no operator.
    fn listed(&self, o: OpId) -> Result<(), String> {
        let n = self.plan.operators().len();
        if (o as usize) < n {
            Ok(())
        } else {
            Err(format!("lists operator {o} of {n}"))
        }
    }

    /// The attributes a coalesced message carries, sorted: `X` of every
    /// listed operator, plus `B` of the `with_rhs` ones.
    fn wire_attrs(&self, out: &mut Vec<AttrId>, lhs_only: &[OpId], with_rhs: &[OpId]) {
        out.clear();
        for &o in lhs_only.iter().chain(with_rhs) {
            out.extend_from_slice(self.operator(o).0);
        }
        out.extend(with_rhs.iter().map(|&o| self.operator(o).1));
        out.sort_unstable();
        out.dedup();
    }

    /// Add to `peers` whoever but `me` could hold a group of one of `cfds`
    /// (the matched CFDs of an operator that ships).
    fn peers_of(&self, cfds: &[CfdId], me: SiteId, peers: &mut Vec<SiteId>) {
        for &c in cfds {
            let relevant = self.relevant[c as usize].iter();
            peers.extend(relevant.filter(|&&j| j != me));
        }
    }

    /// The CFDs of operator `o` whose pattern a received payload matches,
    /// into `hit` — through the precomputed atom digests. Senders never
    /// need this (dispatch told them); a receiver runs it only where a
    /// flag flips or clears, to find whose marks to write.
    fn matched_under(&self, o: OpId, digests: &FxHashMap<AttrId, Digest>, hit: &mut Vec<CfdId>) {
        let matches = |c: &CfdId| {
            let mut atoms = self.atom_digests[*c as usize].iter();
            atoms.all(|(a, d)| digests.get(a) == Some(d))
        };
        hit.clear();
        hit.extend(self.operator(o).2.iter().copied().filter(matches));
    }
}

/// The operators an update's candidates sit on, ascending — each with its
/// group key and the CFDs of it the key matches — read back from the
/// `vars` and `group_kd` that [`SiteConfig::candidates`] left in the
/// scratch. Whether `tp[X]` matches depends on `t[X]` alone, so the run of
/// an operator is the matched set of *every* tuple of that group.
fn matched_ops<'a>(
    plan: &'a SharedPlan,
    vars: &'a [CfdId],
    group_kd: &'a [Option<Digest>],
) -> impl Iterator<Item = (OpId, Digest, &'a [CfdId])> {
    let runs = vars.chunk_by(|&a, &b| plan.operator_of(a) == plan.operator_of(b));
    runs.map(|cfds| {
        let op = plan.operator_of(cfds[0]).expect("a variable CFD");
        let kd = group_kd[plan.operators()[op as usize].0];
        (op, kd.expect("digested as it matched"), cfds)
    })
}

/// Per-update scratch a site owns: cleared, not rebuilt, per step.
#[derive(Default)]
pub(crate) struct OpScratch {
    /// Shared-plan dispatch scratch (generation-stamped counters).
    dispatch: MatchScratch,
    /// Value bytes / key bytes of the digest being computed.
    vbuf: Vec<u8>,
    kbuf: Vec<u8>,
    /// This update's attribute digests and per-key-group key digests.
    attr_d: FxHashMap<AttrId, Digest>,
    group_kd: Vec<Option<Digest>>,
    /// This update's matching CFDs ([`SiteConfig::candidates`]): constant
    /// ones ascending, variable ones by `(operator, id)`.
    consts: Vec<CfdId>,
    vars: Vec<CfdId>,
    /// Operators needing a probe / a query round for this update.
    probes: Vec<OpId>,
    queries: Vec<OpId>,
    /// Attributes and peers of the coalesced message being shipped.
    attrs: Vec<AttrId>,
    peers: Vec<SiteId>,
    /// Receiver side: the digests of one request, the matched CFDs of one
    /// of its operators, the resolved values of one reply.
    rx_digests: FxHashMap<AttrId, Digest>,
    hit: Vec<CfdId>,
    reply_d: Vec<Digest>,
}

impl OpScratch {
    /// Reset for the next update under a plan with `key_groups` groups.
    fn begin(&mut self, key_groups: usize) {
        self.attr_d.clear();
        self.group_kd.clear();
        self.group_kd.resize(key_groups, None);
        self.consts.clear();
        self.vars.clear();
        self.probes.clear();
        self.queries.clear();
        self.peers.clear();
    }

    /// The footprint of the update [`SiteConfig::candidates`] was last run
    /// for: the `(operator, group key)` pairs it can touch anywhere in the
    /// mesh, which is what the wave scheduler reads.
    pub(crate) fn footprint<'a>(
        &'a self,
        plan: &'a SharedPlan,
    ) -> impl Iterator<Item = (OpId, Digest)> + 'a {
        matched_ops(plan, &self.vars, &self.group_kd).map(|(op, kd, _)| (op, kd))
    }

    /// Sort the peers collected for the message being shipped; any?
    fn settle_peers(&mut self) -> bool {
        self.peers.sort_unstable();
        self.peers.dedup();
        !self.peers.is_empty()
    }
}

/// One operator an open round asks the peers about: its group and — a
/// range of the round's `cfds` — the CFDs of the operator that the group
/// key matches, whose marks the round's conclusion writes.
pub(crate) struct Asked {
    op: OpId,
    kd: Digest,
    cfds: Range<usize>,
}

impl Asked {
    /// Ask about group `kd` of `op`, appending its matched `cfds` to the
    /// round's.
    fn new(op: OpId, kd: Digest, cfds: &[CfdId], round_cfds: &mut Vec<CfdId>) -> Self {
        let start = round_cfds.len();
        round_cfds.extend_from_slice(cfds);
        let cfds = start..round_cfds.len();
        Asked { op, kd, cfds }
    }
}

/// One queried operator of an open delete round, with the distinct RHS
/// values peers reported for its group and who reported any.
pub(crate) struct DelQuery {
    asked: Asked,
    remote: FxHashSet<Digest>,
    holders: Vec<SiteId>,
}

/// An update whose outcome waits on peers: opened by `begin_*`, fed by
/// [`Site::on_reply`], consumed — so finished exactly once — by
/// [`Site::finish`]. Queries ascend by operator.
pub(crate) enum Round {
    /// Per queried operator: whether a peer reported a conflicting group.
    Insert {
        tid: Tid,
        cfds: Vec<CfdId>,
        queries: Vec<(Asked, bool)>,
    },
    /// The deleted tuple (its values address the `ClearFlags`) and the
    /// operators whose global multiplicity is in doubt.
    Delete {
        t: Tuple,
        cfds: Vec<CfdId>,
        queries: Vec<DelQuery>,
    },
}

/// What [`Site::try_settle`] did with one update of a batch slice.
pub(crate) enum Settled {
    /// Class-preserving and clear of every deferred update before it:
    /// applied, nothing shipped.
    Applied,
    /// Left untouched for the wave schedule. `writes`: the update creates
    /// or empties a local RHS class, so peers can tell it happened;
    /// otherwise it is class-preserving and only *held* behind an earlier
    /// deferred update of the slice that shares a group key or its tid.
    Deferred { writes: bool },
}

/// Tables of a [`Deferrals`] keep this much room between batches; a `D₀`
/// window defers thousands of updates, a steady batch a handful.
const DEFERRALS_KEPT: usize = 64;

/// What the settle pass of one batch slice remembers of the updates it
/// deferred, so that every later update of the slice is classified — and
/// kept in program order — as if they had run. Sized by the deferred
/// updates, not by the slice; the driver keeps one and clears it per batch.
#[derive(Default)]
pub(crate) struct Deferrals {
    /// Group keys and tids a deferred update touches: whatever shares one
    /// waits behind it.
    keys: FxHashSet<(OpId, Digest)>,
    tids: FxHashSet<Tid>,
    /// Per `(operator, group key, RHS class)`: members the deferred
    /// updates will add, less those they will remove. Without it an insert
    /// behind a deferred delete that empties its class would count a
    /// member that is gone by the time it runs.
    pending: FxHashMap<(OpId, Digest, Digest), i32>,
}

impl Deferrals {
    /// Forget the slice; give back what a large one grew.
    pub(crate) fn clear(&mut self) {
        self.keys.clear();
        self.keys.shrink_to(DEFERRALS_KEPT);
        self.tids.clear();
        self.tids.shrink_to(DEFERRALS_KEPT);
        self.pending.clear();
        self.pending.shrink_to(DEFERRALS_KEPT);
    }
}

/// One site of the §6 protocol, sans IO.
pub(crate) struct Site {
    cfg: SiteConfig,
    me: SiteId,
    pub(crate) sharing: SharingMode,
    /// Group state per operator: every tuple of this site that matches at
    /// least one CFD of the operator, by group key.
    state: Vec<FxHashMap<Digest, GroupState>>,
    /// Sender-side payload encoding; per-link state (dictionary
    /// residency) lives in the codec.
    codec: Box<dyn PayloadCodec>,
    /// Receiver-side codec state per sending site: link dictionaries built
    /// **only from received payloads** (deltas), so digests derive from
    /// what actually crossed the wire.
    rx: Vec<ReceiverCodec>,
    sx: OpScratch,
}

impl Site {
    /// Site `me`, holding no group yet.
    pub(crate) fn new(cfg: SiteConfig, me: SiteId, codec: CodecKind) -> Self {
        let operators = cfg.plan.operators().iter();
        Site {
            state: operators.map(|_| FxHashMap::default()).collect(),
            codec: codec.codec(),
            rx: (0..cfg.n_sites)
                .map(|src| ReceiverCodec::for_link(src, me))
                .collect(),
            sx: OpScratch::default(),
            sharing: SharingMode::default(),
            cfg,
            me,
        }
    }

    pub(crate) fn cfg(&self) -> &SiteConfig {
        &self.cfg
    }

    /// Add this site's group maps to `census`.
    pub(crate) fn count_into(&self, census: &mut StateCensus) {
        self.state.iter().for_each(|map| census.count(map));
    }

    /// Symbols resident on each link into this site, by sender.
    #[cfg(test)]
    pub(crate) fn resident_symbols(&self) -> impl Iterator<Item = usize> + '_ {
        self.rx.iter().map(ReceiverCodec::resident_symbols)
    }

    /// A protocol error on the `src → me` link.
    fn bad(&self, src: SiteId, kind: &str, what: impl std::fmt::Display) -> DetectError {
        let me = self.me;
        ClusterError::Transport(format!("link {src} → {me}: {kind} {what}")).into()
    }

    // -- own updates ----------------------------------------------------

    /// §6 insertion at the tuple's home site, into the driver's `rows`.
    /// `None` when the local case analysis settles every operator
    /// (Examples 2(1)(b) and 9) or no peer could hold a conflicting group.
    pub(crate) fn begin_insert(
        &mut self,
        t: &Tuple,
        rows: &mut Relation,
        sink: Sink<'_>,
    ) -> Result<Option<Opened>, DetectError> {
        // Row before group state: every class this update creates has,
        // from its first instant, a member whose RHS value `rows` can
        // produce (`class_values`).
        rows.insert_row(t.tid, t.values.iter())?;
        self.cfg.candidates(self.sharing, t, &mut self.sx);
        self.insert_matched(t, sink)
    }

    /// The insertion case analysis over the candidates the scratch holds
    /// for `t`, whose row is stored.
    fn insert_matched(
        &mut self,
        t: &Tuple,
        (v, dv): Sink<'_>,
    ) -> Result<Option<Opened>, DetectError> {
        let (cfg, me, sx) = (&self.cfg, self.me, &mut self.sx);
        for &c in &sx.consts {
            if cfg.cfds[c as usize].constant_violation(t) && v.add(c, t.tid) {
                dv.add(c, t.tid);
            }
        }
        let (mut asked, mut asked_cfds) = (Vec::new(), Vec::new());
        for (op, kd, cfds) in matched_ops(&cfg.plan, &sx.vars, &sx.group_kd) {
            let bd = digest_cached(&mut sx.attr_d, t, cfg.operator(op).1, &mut sx.vbuf);
            let local_only = cfg.local_ok[op as usize][me];
            let groups = &mut self.state[op as usize];
            let sink = (&mut *v, &mut *dv);
            match insert_case(groups, sink, cfds, t.tid, (kd, bd), local_only) {
                Ship::Nothing => continue,
                Ship::Probe => sx.probes.push(op),
                Ship::Query => {
                    sx.queries.push(op);
                    asked.push((Asked::new(op, kd, cfds, &mut asked_cfds), false));
                }
            }
            cfg.peers_of(cfds, me, &mut sx.peers);
        }
        if !sx.settle_peers() {
            return Ok(None);
        }
        // Probed operators need X on the wire, queried ones X and B.
        cfg.wire_attrs(&mut sx.attrs, &sx.probes, &sx.queries);
        let out = broadcast(self.codec.as_mut(), me, sx, t, |attrs| {
            let probes = sx.probes.clone();
            HorMsg::TupleProbe { attrs, probes }
        });
        let round = Round::Insert {
            tid: t.tid,
            cfds: asked_cfds,
            queries: asked,
        };
        Ok(Some((round, out)))
    }

    /// §6 deletion at the tuple's home site, out of the driver's `rows`.
    /// `None` when a local witness keeps every violating group's
    /// multiplicity ≥ 2 (Example 2(2)), or no peer is relevant and the
    /// site decided alone.
    pub(crate) fn begin_delete(
        &mut self,
        tid: Tid,
        rows: &mut Relation,
        sink: Sink<'_>,
    ) -> Result<Option<Opened>, DetectError> {
        let t = rows.get(tid).ok_or(RelError::MissingTid(tid))?;
        self.cfg.candidates(self.sharing, &t, &mut self.sx);
        self.delete_matched(t, rows, sink)
    }

    /// The deletion case analysis over the candidates the scratch holds
    /// for `t`, which is still in `rows`.
    fn delete_matched(
        &mut self,
        t: Tuple,
        rows: &mut Relation,
        (v, dv): Sink<'_>,
    ) -> Result<Option<Opened>, DetectError> {
        let tid = t.tid;
        let (cfg, me, sx) = (&self.cfg, self.me, &mut self.sx);
        // A constant CFD outside the list holds no mark for `tid`: a mark
        // implies the (immutable) tuple matched its LHS.
        for &c in &sx.consts {
            if v.remove(c, tid) {
                dv.remove(c, tid);
            }
        }
        let (mut queries, mut asked_cfds) = (Vec::new(), Vec::new());
        for (op, kd, cfds) in matched_ops(&cfg.plan, &sx.vars, &sx.group_kd) {
            let bd = digest_cached(&mut sx.attr_d, &t, cfg.operator(op).1, &mut sx.vbuf);
            let local_only = cfg.local_ok[op as usize][me];
            let groups = &mut self.state[op as usize];
            let sink = (&mut *v, &mut *dv);
            let lost = |what| {
                let at = format!("site {me}: operator {op} group {}", kd.to_hex());
                DetectError::Internal(format!("{at} lost the {what} of tuple {tid}"))
            };
            if !delete_case(groups, sink, cfds, tid, (kd, bd), local_only).map_err(lost)? {
                continue;
            }
            sx.queries.push(op);
            queries.push(DelQuery {
                asked: Asked::new(op, kd, cfds, &mut asked_cfds),
                remote: FxHashSet::default(),
                holders: Vec::new(),
            });
            cfg.peers_of(cfds, me, &mut sx.peers);
        }
        // The groups have let go of the row; peers never read it.
        rows.delete_quiet(tid)?;
        if queries.is_empty() {
            return Ok(None);
        }
        let cfds = asked_cfds;
        if !sx.settle_peers() {
            // Global = local: decide from this site's classes alone.
            let clears = self.finish(Round::Delete { t, cfds, queries }, (v, dv))?;
            debug_assert!(clears.is_empty(), "no peers, no remote holders");
            return Ok(None);
        }
        cfg.wire_attrs(&mut sx.attrs, &sx.queries, &[]);
        let out = broadcast(self.codec.as_mut(), me, sx, &t, |attrs| {
            let queries = sx.queries.clone();
            HorMsg::TupleDelQuery { attrs, queries }
        });
        Ok(Some((Round::Delete { t, cfds, queries }, out)))
    }

    // -- settling a batch slice -----------------------------------------

    /// The settle step, once per update of a batch slice, in slice order,
    /// before any round of the batch opens anywhere. An update is
    /// *class-preserving* when, for every operator it matches, the local
    /// group holds its RHS class before and after it: an insert finds a
    /// member there, a delete leaves one — counting what the slice's
    /// deferred updates (`held`) will have added and removed by the time it
    /// runs. Such an update ships nothing under either value of the
    /// group's flag, and changes neither the set of classes nor the flag,
    /// which is all a peer's request reads: it commutes with every update
    /// of every other site. One that also shares no group key and no tid
    /// with a deferred update before it is applied here, through the case
    /// analysis of `begin_insert` / `begin_delete`; any other is recorded
    /// in `held` and left for the driver to schedule, untouched.
    pub(crate) fn try_settle(
        &mut self,
        op: &Update,
        rows: &mut Relation,
        sink: Sink<'_>,
        held: &mut Deferrals,
    ) -> Result<Settled, DetectError> {
        let opened = match op {
            Update::Insert(t) => {
                self.cfg.candidates(self.sharing, t, &mut self.sx);
                if let Some(writes) = self.defer(t, 1, held) {
                    return Ok(Settled::Deferred { writes });
                }
                rows.insert_row(t.tid, t.values.iter())?;
                self.insert_matched(t, sink)?
            }
            Update::Delete(tid) => {
                let t = rows.get(*tid).ok_or(RelError::MissingTid(*tid))?;
                self.cfg.candidates(self.sharing, &t, &mut self.sx);
                if let Some(writes) = self.defer(&t, -1, held) {
                    return Ok(Settled::Deferred { writes });
                }
                self.delete_matched(t, rows, sink)?
            }
        };
        match opened {
            None => Ok(Settled::Applied),
            Some(_) => Err(self.shipped_unscheduled(op.tid())),
        }
    }

    /// A class-preserving update asked for a round: the classification and
    /// the case analysis disagree.
    pub(crate) fn shipped_unscheduled(&self, tid: Tid) -> DetectError {
        let me = self.me;
        let what = format!("site {me}: the class-preserving update of tuple {tid} opened a round");
        DetectError::Internal(what)
    }

    /// Classify the update the scratch holds the candidates of — `t`
    /// inserted (`sign` 1) or deleted (−1). `None`: apply it now. Otherwise
    /// it is entered into `held`, and `Some(writes)` says whether it is a
    /// writer or merely held. The RHS digests stay cached for the apply
    /// half.
    fn defer(&mut self, t: &Tuple, sign: i32, held: &mut Deferrals) -> Option<bool> {
        let (cfg, sx) = (&self.cfg, &mut self.sx);
        // An insert needs a member to join, a delete one to leave behind.
        let needed = if sign > 0 { 1 } else { 2 };
        let (mut preserves, mut blocked) = (true, held.tids.contains(&t.tid));
        for (op, kd, _) in matched_ops(&cfg.plan, &sx.vars, &sx.group_kd) {
            let bd = digest_cached(&mut sx.attr_d, t, cfg.operator(op).1, &mut sx.vbuf);
            let group = self.state[op as usize].get(&kd);
            let stored = group.map_or(0, |g| g.class_len(bd)) as i64;
            let pending = held.pending.get(&(op, kd, bd)).copied().unwrap_or(0);
            preserves &= stored + i64::from(pending) >= needed;
            blocked |= held.keys.contains(&(op, kd));
        }
        if preserves && !blocked {
            return None;
        }
        held.tids.insert(t.tid);
        for (op, kd, _) in matched_ops(&cfg.plan, &sx.vars, &sx.group_kd) {
            let bd = digest_cached(&mut sx.attr_d, t, cfg.operator(op).1, &mut sx.vbuf);
            held.keys.insert((op, kd));
            *held.pending.entry((op, kd, bd)).or_insert(0) += sign;
        }
        Some(!preserves)
    }

    // -- serving peers --------------------------------------------------

    /// Check a request before anything is mutated, and resolve its payload
    /// into `sx.rx_digests` through the `src → me` link's own dictionary
    /// (fed only by received deltas). Every *listed* id must name an
    /// operator whose whole `X` the payload carries.
    fn admit(
        &mut self,
        src: SiteId,
        kind: &str,
        attrs: &[(AttrId, WireValue)],
        listed: &[OpId],
    ) -> Result<(), DetectError> {
        for &o in listed {
            self.cfg.listed(o).map_err(|e| self.bad(src, kind, e))?;
        }
        let unknown = ClusterError::UnknownSite(src);
        let rx = self.rx.get_mut(src).filter(|_| src != self.me);
        let rx = rx.ok_or(unknown)?;
        self.sx.rx_digests.clear();
        for (a, w) in attrs {
            if self.sx.rx_digests.insert(*a, rx.digest(w)?).is_some() {
                return Err(self.bad(src, kind, format!("carries attribute {a} twice")));
            }
        }
        for &o in listed {
            let mut lhs = self.cfg.operator(o).0.iter();
            if let Some(a) = lhs.find(|a| !self.sx.rx_digests.contains_key(*a)) {
                let what = format!("lists operator {o} without its LHS attribute {a}");
                return Err(self.bad(src, kind, what));
            }
        }
        Ok(())
    }

    /// Group key of listed operator `o` from the admitted payload.
    fn wire_key(&mut self, o: OpId) -> Digest {
        let lhs = self.cfg.operator(o).0.iter();
        key_digest_from(lhs.map(|a| self.sx.rx_digests[a]), &mut self.sx.kbuf)
    }

    /// Serve a peer's `TupleProbe`, `TupleDelQuery` or `ClearFlags`. The
    /// reply, if the protocol has one to give; `None` is a silent round.
    /// `rows` is read for one thing: the RHS value of a queried class,
    /// through a member this site inserted.
    pub(crate) fn on_request(
        &mut self,
        src: SiteId,
        msg: HorMsg,
        rows: &Relation,
        (v, dv): Sink<'_>,
    ) -> Result<Option<HorMsg>, DetectError> {
        match msg {
            HorMsg::TupleProbe { attrs, probes } => {
                self.admit(src, "TupleProbe", &attrs, &probes)?;
                // Explicit probes: a brand-new conflict at the sender
                // flips every remote group of the operator.
                for &o in &probes {
                    let kd = self.wire_key(o);
                    let h = self.state[o as usize].get_mut(&kd);
                    if let Some(h) = h.filter(|h| !h.violating()) {
                        let sx = &mut self.sx;
                        self.cfg.matched_under(o, &sx.rx_digests, &mut sx.hit);
                        mark_group(h, &sx.hit, v, dv);
                    }
                }
                // Implicit queries: every other operator the payload can
                // derive — one key digest per distinct LHS list, one
                // lookup per operator.
                let (cfg, sx) = (&self.cfg, &mut self.sx);
                let digests = &sx.rx_digests;
                sx.group_kd.clear();
                for (lhs, _) in cfg.plan.key_groups() {
                    let covered = lhs.iter().all(|a| digests.contains_key(a));
                    let kd = || key_digest_from(lhs.iter().map(|a| digests[a]), &mut sx.kbuf);
                    sx.group_kd.push(covered.then(kd));
                }
                let mut conflicts = Vec::new();
                for (o, (g, b, _)) in (0..).zip(cfg.plan.operators()) {
                    let (Some(kd), Some(&bd)) = (sx.group_kd[*g], digests.get(b)) else {
                        continue;
                    };
                    let Some(h) = self.state[o as usize].get_mut(&kd) else {
                        continue;
                    };
                    if probes.contains(&o) {
                        continue;
                    }
                    let other = h.has_other(bd);
                    if other && !h.violating() {
                        cfg.matched_under(o, digests, &mut sx.hit);
                        mark_group(h, &sx.hit, v, dv);
                    }
                    if other || h.violating() {
                        conflicts.push(o);
                    }
                }
                Ok((!conflicts.is_empty()).then_some(HorMsg::ProbeReply { conflicts }))
            }
            HorMsg::TupleDelQuery { attrs, queries } => {
                self.admit(src, "TupleDelQuery", &attrs, &queries)?;
                let mut bvals = Vec::new();
                for o in queries {
                    let kd = self.wire_key(o);
                    // Only peers answer, and footprints within a wave are
                    // disjoint, so the group read here is never one an
                    // in-flight update of this site is half through.
                    if let Some(h) = self.state[o as usize].get(&kd) {
                        let (me, codec) = (self.me, self.codec.as_mut());
                        let at = (me, o, self.cfg.operator(o).1, kd);
                        let encode = |v: &_| codec.encode(me, src, v);
                        let vals = class_values(h, rows, at, encode);
                        bvals.push((o, vals.map_err(DetectError::Internal)?));
                    }
                }
                Ok((!bvals.is_empty()).then_some(HorMsg::DelReply { bvals }))
            }
            HorMsg::ClearFlags { attrs, cfds } => {
                self.admit(src, "ClearFlags", &attrs, &cfds)?;
                for o in cfds {
                    let kd = self.wire_key(o);
                    if let Some(h) = self.state[o as usize].get_mut(&kd) {
                        let sx = &mut self.sx;
                        self.cfg.matched_under(o, &sx.rx_digests, &mut sx.hit);
                        clear_group(h, &sx.hit, v, dv);
                    }
                }
                Ok(None)
            }
            reply => Err(self.bad(src, reply.kind(), "is not a request")),
        }
    }

    // -- closing own rounds ---------------------------------------------

    /// Fold a peer's reply into the round it answers. Checked before
    /// anything is folded: a refused reply leaves the round as it was.
    pub(crate) fn on_reply(
        &mut self,
        round: &mut Round,
        src: SiteId,
        msg: HorMsg,
    ) -> Result<(), DetectError> {
        match (round, msg) {
            (Round::Insert { queries, .. }, HorMsg::ProbeReply { conflicts }) => {
                // A peer answers every operator the payload derives,
                // queried or not; only the queried ones matter here.
                for &o in &conflicts {
                    let checked = self.cfg.listed(o);
                    checked.map_err(|e| self.bad(src, "ProbeReply", e))?;
                }
                for o in conflicts {
                    if let Ok(i) = queries.binary_search_by_key(&o, |q| q.0.op) {
                        queries[i].1 = true;
                    }
                }
                Ok(())
            }
            (Round::Delete { queries, .. }, HorMsg::DelReply { bvals }) => {
                let queried = |o: &OpId| queries.binary_search_by_key(o, |q| q.asked.op);
                if let Some((o, _)) = bvals.iter().find(|(o, _)| queried(o).is_err()) {
                    let what = format!("names operator {o}, which the round did not query");
                    return Err(self.bad(src, "DelReply", what));
                }
                let unknown = ClusterError::UnknownSite(src);
                let rx = self.rx.get_mut(src).ok_or(unknown)?;
                self.sx.reply_d.clear();
                for w in bvals.iter().flat_map(|(_, vs)| vs) {
                    self.sx.reply_d.push(rx.digest(w)?);
                }
                let mut resolved = self.sx.reply_d.drain(..);
                for (o, vs) in bvals {
                    let i = queries.binary_search_by_key(&o, |q| q.asked.op);
                    let q = &mut queries[i.expect("checked above")];
                    q.holders.push(src);
                    q.remote.extend(resolved.by_ref().take(vs.len()));
                }
                Ok(())
            }
            (Round::Insert { .. }, msg) => {
                Err(self.bad(src, msg.kind(), "does not answer an insert round"))
            }
            (Round::Delete { .. }, msg) => {
                Err(self.bad(src, msg.kind(), "does not answer a delete round"))
            }
        }
    }

    /// Close a round once every asked peer has answered (or stayed
    /// silent). An insert raises the flags peers reported and ships
    /// nothing; a delete decides each queried group from the folded RHS
    /// values and returns one coalesced `ClearFlags` per peer still
    /// holding a group that stopped violating, ascending by peer.
    pub(crate) fn finish(
        &mut self,
        round: Round,
        (v, dv): Sink<'_>,
    ) -> Result<Vec<(SiteId, HorMsg)>, DetectError> {
        let me = self.me;
        match round {
            Round::Insert { tid, cfds, queries } => {
                for (q, _) in queries.into_iter().filter(|q| q.1) {
                    let g = self.state[q.op as usize].get_mut(&q.kd).ok_or_else(|| {
                        let (op, group) = (q.op, q.kd.to_hex());
                        let what = format!("site {me}: operator {op} group {group} left mid-round");
                        DetectError::Internal(what)
                    })?;
                    g.set_violating(true);
                    add_marks(&cfds[q.cfds], tid, v, dv);
                }
                Ok(Vec::new())
            }
            Round::Delete { t, cfds, queries } => {
                let mut clears: BTreeMap<SiteId, Vec<OpId>> = BTreeMap::new();
                for q in queries {
                    let Asked { op, kd, cfds: ids } = q.asked;
                    let h = self.state[op as usize].get_mut(&kd);
                    let mut all = q.remote;
                    if let Some(h) = &h {
                        h.for_each_class(|bd, _| {
                            all.insert(bd);
                        });
                    }
                    if all.len() >= 2 {
                        continue; // still violating everywhere
                    }
                    if let Some(h) = h {
                        clear_group(h, &cfds[ids], v, dv);
                    }
                    for j in q.holders {
                        clears.entry(j).or_default().push(op);
                    }
                }
                let to_peer = clears.into_iter().map(|(j, cfds)| {
                    self.cfg.wire_attrs(&mut self.sx.attrs, &cfds, &[]);
                    let attrs = encode_attrs(self.codec.as_mut(), &t, &self.sx.attrs, (me, j));
                    (j, HorMsg::ClearFlags { attrs, cfds })
                });
                Ok(to_peer.collect())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrent::WavePlanner;
    use crate::horizontal::fixtures::{d0, emp_schema, emp_tuple, fig1_cfds, fig2_scheme};
    use crate::HorizontalDetector;
    use cluster::{NetStats, Wire};
    use relation::{UpdateBatch, Value};
    use std::collections::VecDeque;
    use workload::updates::{self, UpdateMix};

    /// What crosses a link of the [`Mesh`]: a request, or what came of one
    /// — the reply, or the ack of a silent round (free and unmetered, as
    /// in the synchronous driver, which sends nothing for it).
    enum Frame {
        Request(HorMsg),
        Answer(Option<HorMsg>),
    }

    /// An open round of the [`Mesh`]: peers still to answer, and the
    /// machine's round (`None` for the clear round of a delete).
    type Slot = (usize, Option<Round>);

    /// One update of a routed batch as the two-step schedule runs it: its
    /// home site and whether it may ship (`false`: settled or held — it
    /// must complete on the spot).
    type Step = (SiteId, Update, bool);

    /// `n` machines, each over a row store of its own, and per-link FIFO
    /// queues — no sockets, no threads, no driver. Whoever holds the mesh
    /// decides what happens next: a site begins its next update, or a link
    /// delivers its oldest frame.
    struct Mesh {
        sites: Vec<Site>,
        /// `[site]`: the fragment that site's steps are handed.
        rows: Vec<Relation>,
        v: Violations,
        dv: DeltaV,
        /// `[src][dst]`, oldest first.
        links: Vec<Vec<VecDeque<Frame>>>,
        /// `[site][slot]`, `None` once finished.
        rounds: Vec<Vec<Option<Slot>>>,
        /// `[site][peer]`: slots awaiting that peer's answer, oldest first
        /// (links are FIFO and a peer answers in arrival order).
        queues: Vec<Vec<VecDeque<usize>>>,
        /// Modeled bytes and messages per link.
        stats: NetStats,
        /// `[site]`: the settle pass's memory of what it deferred.
        held: Vec<Deferrals>,
    }

    impl Mesh {
        fn new(cfg: &SiteConfig, codec: CodecKind) -> Self {
            let n = cfg.n_sites;
            fn per_link<T>(n: usize) -> Vec<Vec<VecDeque<T>>> {
                let row = || (0..n).map(|_| VecDeque::new()).collect();
                (0..n).map(|_| row()).collect()
            }
            Mesh {
                sites: (0..n).map(|i| Site::new(cfg.clone(), i, codec)).collect(),
                rows: (0..n).map(|_| Relation::new(cfg.schema.clone())).collect(),
                v: Violations::new(cfg.cfds.len()),
                dv: DeltaV::default(),
                links: per_link(n),
                rounds: (0..n).map(|_| Vec::new()).collect(),
                queues: per_link(n),
                stats: NetStats::new(n),
                held: (0..n).map(|_| Deferrals::default()).collect(),
            }
        }

        fn send(
            &mut self,
            home: SiteId,
            slot: usize,
            round: Option<Round>,
            requests: Vec<(SiteId, HorMsg)>,
        ) {
            self.rounds[home][slot] = Some((requests.len(), round));
            for (j, msg) in requests {
                self.stats.record(home, j, msg.wire_size(), 0);
                self.links[home][j].push_back(Frame::Request(msg));
                self.queues[home][j].push_back(slot);
            }
        }

        fn begin(&mut self, home: SiteId, op: &Update, writes: bool) {
            let (sink, rows) = ((&mut self.v, &mut self.dv), &mut self.rows[home]);
            let opened = match op {
                Update::Insert(t) => self.sites[home].begin_insert(t, rows, sink),
                Update::Delete(tid) => self.sites[home].begin_delete(*tid, rows, sink),
            };
            if let Some((round, requests)) = opened.unwrap() {
                assert!(writes, "site {home}: held {op:?} opened a round");
                self.rounds[home].push(None);
                self.send(home, self.rounds[home].len() - 1, Some(round), requests);
            }
        }

        /// Deliver the oldest frame of the `src → dst` link.
        fn deliver(&mut self, src: SiteId, dst: SiteId) {
            let frame = self.links[src][dst].pop_front().expect("a frame in flight");
            let sink = (&mut self.v, &mut self.dv);
            match frame {
                Frame::Request(msg) => {
                    let rows = &self.rows[dst];
                    let reply = self.sites[dst].on_request(src, msg, rows, sink).unwrap();
                    if let Some(msg) = &reply {
                        self.stats.record(dst, src, msg.wire_size(), 0);
                    }
                    self.links[dst][src].push_back(Frame::Answer(reply));
                }
                Frame::Answer(reply) => {
                    let slot = self.queues[dst][src].pop_front().expect("a round is open");
                    let (left, round) = self.rounds[dst][slot].as_mut().expect("live slot");
                    if let Some(msg) = reply {
                        let round = round.as_mut().expect("a clear round takes acks only");
                        self.sites[dst].on_reply(round, src, msg).unwrap();
                    }
                    *left -= 1;
                    if *left > 0 {
                        return;
                    }
                    let (_, round) = self.rounds[dst][slot].take().expect("live slot");
                    let clears = round.map_or_else(Vec::new, |round| {
                        self.sites[dst].finish(round, sink).unwrap()
                    });
                    if !clears.is_empty() {
                        self.send(dst, slot, None, clears);
                    }
                }
            }
        }

        /// Run one wave to quiescence. Each site begins its own ops in
        /// wave order (as a runner does); everything else — who begins
        /// next, which link delivers next — is `pick`'s choice among the
        /// `k` moves possible.
        fn run_wave(&mut self, wave: &[Step], mut pick: impl FnMut(usize) -> usize) {
            let n = self.sites.len();
            let mut todo: Vec<VecDeque<(&Update, bool)>> =
                (0..n).map(|_| VecDeque::new()).collect();
            for (home, op, writes) in wave {
                todo[*home].push_back((op, *writes));
            }
            loop {
                let mut moves = Vec::new();
                for (i, ops) in todo.iter().enumerate() {
                    if !ops.is_empty() {
                        moves.push((i, None));
                    }
                    let busy = (0..n).filter(|&j| !self.links[i][j].is_empty());
                    moves.extend(busy.map(|j| (i, Some(j))));
                }
                if moves.is_empty() {
                    break;
                }
                match moves[pick(moves.len())] {
                    (i, None) => {
                        let (op, writes) = todo[i].pop_front().expect("listed");
                        self.begin(i, op, writes);
                    }
                    (i, Some(j)) => self.deliver(i, j),
                }
            }
            let mut slots = self.rounds.iter().flatten();
            assert!(slots.all(Option::is_none), "a round was left open");
            self.rounds.iter_mut().for_each(Vec::clear);
        }

        /// One routed batch through the two-step schedule, as the
        /// threaded runtime drives it: every site's settle pass over its
        /// slice, the coordinator's placing of what they deferred, then
        /// the waves, each to quiescence under `pick`. `after` sees the
        /// mesh after the settle passes (with the updates they applied,
        /// in batch order) and after every wave (with the wave).
        fn run_batch(
            &mut self,
            batch: &[(SiteId, Update)],
            mut pick: impl FnMut(usize) -> usize,
            mut after: impl FnMut(&Mesh, &[Step]),
        ) {
            let cfg = self.sites[0].cfg().clone();
            self.held.iter_mut().for_each(Deferrals::clear);
            // Sites do not interact while they settle, so batch order is
            // every site's slice order at once.
            let mut settled = Vec::new();
            let mut waves: Vec<Vec<Step>> = Vec::new();
            let mut deferred = Vec::new();
            for (home, op) in batch {
                let (sink, rows) = ((&mut self.v, &mut self.dv), &mut self.rows[*home]);
                let held = &mut self.held[*home];
                match self.sites[*home].try_settle(op, rows, sink, held).unwrap() {
                    Settled::Applied => settled.push((*home, op.clone(), false)),
                    Settled::Deferred { writes } => deferred.push((*home, op, writes)),
                }
            }
            after(self, &settled);
            let mut planner = WavePlanner::default();
            for (home, op, writes) in deferred {
                let w = match op {
                    Update::Insert(t) => planner.place(&cfg, home, t, writes),
                    Update::Delete(tid) => {
                        let t = self.rows[home].get(*tid).expect("deferred untouched");
                        planner.place(&cfg, home, &t, writes)
                    }
                };
                waves.resize_with(planner.n_waves as usize, Vec::new);
                waves[w as usize].push((home, op.clone(), writes));
            }
            planner.finish();
            for wave in &waves {
                self.run_wave(wave, &mut pick);
                after(self, wave);
            }
        }

        fn census(&self) -> StateCensus {
            let mut census = StateCensus::default();
            self.sites.iter().for_each(|s| s.count_into(&mut census));
            census
        }

        fn snapshot(&self) -> Snapshot {
            Snapshot {
                marks: self.v.marks_sorted(),
                census: self.census(),
                resident_symbols: self.resident_symbols(),
                stats: self.stats.to_bytes(),
            }
        }

        fn resident_symbols(&self) -> Vec<usize> {
            let links = self.sites.iter().flat_map(Site::resident_symbols);
            links.collect()
        }
    }

    /// What a driver left behind after one step of a batch.
    #[derive(Debug, PartialEq)]
    struct Snapshot {
        marks: Vec<(CfdId, Tid)>,
        census: StateCensus,
        resident_symbols: Vec<usize>,
        /// The per-link modeled-byte and message-count matrix.
        stats: Vec<u8>,
    }

    fn xorshift(mut state: u64) -> impl FnMut(usize) -> usize {
        move |k| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % k as u64) as usize
        }
    }

    /// A seeded stream over `d0`: the load itself, a mixed batch, a batch
    /// of modifications rewriting `rhs` (same tid, possibly another home),
    /// and a delete-heavy one.
    fn stream(d0: &Relation, fresh: &[Tuple], rhs: AttrId) -> Vec<UpdateBatch> {
        let mut cur = Relation::new(d0.schema().clone());
        let mut batches = vec![UpdateBatch::from_ops(
            d0.iter().map(Update::Insert).collect(),
        )];
        let (early, late) = fresh.split_at(fresh.len() / 2);
        for step in 1..4 {
            batches[step - 1].normalize(&cur).apply(&mut cur).unwrap();
            batches.push(match step {
                1 => {
                    let insert_fraction = 0.6;
                    let n = (early.len() as f64 / insert_fraction) as usize;
                    updates::generate(&cur, early, n, UpdateMix { insert_fraction }, 5)
                }
                2 => updates::generate_modifications(&cur, cur.len() / 3, 11, |t, rng| {
                    updates::corrupt_attr(t, rhs, rng)
                }),
                _ => {
                    let insert_fraction = 0.4;
                    let n = (late.len() as f64 / insert_fraction) as usize;
                    updates::generate(&cur, late, n, UpdateMix { insert_fraction }, 13)
                }
            });
        }
        batches
    }

    /// ROADMAP item 6's harness in its deterministic form: what
    /// `interleaving_stress_{8,16}_sites` samples through the OS scheduler,
    /// enumerated, over the two-step schedule the threaded runtime runs.
    /// Every batch is settled site by site, and what the passes deferred
    /// is placed and run wave by wave; within a wave, every
    /// FIFO-respecting order of begins and deliveries leaves `V`, the
    /// group state, the link dictionaries and the per-link traffic matrix
    /// exactly where the synchronous driver leaves them when it is fed the
    /// same steps — and at the end of every batch exactly where a second
    /// synchronous driver, fed the batch whole and in batch order, is: the
    /// reordering is invisible. (Message *contents* may differ under dict —
    /// a teach delta rides whichever frame crosses its link first — which
    /// is why the matrix, not the frames, is compared.)
    #[test]
    fn any_fifo_interleaving_of_a_wave_gives_the_same_state() {
        use workload::{emp, rules, tpch};
        const PERMUTATIONS: u64 = 200;

        let tpch_cfg = tpch::TpchConfig {
            n_rows: 30,
            n_customers: 12,
            n_parts: 8,
            n_suppliers: 5,
            error_rate: 0.3,
            ..tpch::TpchConfig::default()
        };
        let emp_cfg = emp::EmpConfig {
            n_rows: 30,
            n_zips: 6,
            error_rate: 0.3,
            ..emp::EmpConfig::default()
        };
        let (tpch_schema, tpch_d0) = tpch::generate(&tpch_cfg);
        let (emp_schema, emp_d0) = emp::generate(&emp_cfg);
        // EMP once more, under rules that share operators: `[CC, zip] →
        // street` under three patterns (one of them twice) and `[CC, zip]
        // → city` on the same key list. The generator only knows CC = 44;
        // spread it, so that a key matches three, two or one of the
        // street rules.
        let cc = emp_schema.attr_id("CC").unwrap();
        let spread = |t: Tuple| {
            let mut values = t.values.to_vec();
            values[cc as usize] = Value::int([44, 1, 7][(t.tid % 3) as usize]);
            Tuple::new(t.tid, values)
        };
        let on_cc_zip = |id, cc, rhs| {
            Cfd::from_names(id, &emp_schema, &[("CC", cc), ("zip", None)], (rhs, None)).unwrap()
        };
        let shared_ops = vec![
            on_cc_zip(0, None, "street"),
            on_cc_zip(1, Some(Value::int(44)), "street"),
            on_cc_zip(2, Some(Value::int(1)), "street"),
            on_cc_zip(3, Some(Value::int(44)), "city"),
            on_cc_zip(4, Some(Value::int(44)), "street"),
        ];
        let plan = SharedPlan::new(&shared_ops);
        assert_eq!(
            (plan.operators().len(), plan.operators()[0].2.len()),
            (2, 4)
        );
        let datasets = [
            (
                rules::tpch_rules(&tpch_schema, 8, 1),
                tpch::generate_fresh(&tpch_cfg, 1_000, 30, 7),
                tpch_d0,
            ),
            (
                emp::emp_cfds(&emp_schema),
                emp::generate_fresh(&emp_cfg, 1_000, 30, 7),
                emp_d0.clone(),
            ),
            (
                shared_ops,
                emp::generate_fresh(&emp_cfg, 1_000, 30, 7)
                    .into_iter()
                    .map(spread)
                    .collect(),
                Relation::from_tuples(emp_schema.clone(), emp_d0.iter().map(spread)).unwrap(),
            ),
        ];
        for (cfds, fresh, d0) in &datasets {
            let schema = d0.schema();
            let rhs = cfds.iter().find(|c| c.is_variable()).expect("a rule").rhs;
            let batches = stream(d0, fresh, rhs);
            for n in [3, 8] {
                let scheme = HorizontalScheme::by_hash(schema.clone(), schema.key(), n).unwrap();
                let cfg = SiteConfig::new(schema.clone(), cfds.clone(), &scheme);
                for codec in [CodecKind::Md5, CodecKind::RawValues, CodecKind::Dict] {
                    // The references: one synchronous driver fed step by
                    // step, one fed whole batches, both from an empty
                    // relation (so the load is metered too). A pilot mesh,
                    // delivering in the synchronous order, says what the
                    // steps are.
                    let build = || {
                        let (schema, empty) = (schema.clone(), Relation::new(schema.clone()));
                        HorizontalDetector::with_codec(
                            schema,
                            cfds.clone(),
                            scheme.clone(),
                            &empty,
                            codec,
                        )
                        .unwrap()
                    };
                    let snapshot = |seq: &HorizontalDetector| Snapshot {
                        marks: seq.violations().marks_sorted(),
                        census: seq.state_census(),
                        resident_symbols: seq.resident_symbols(),
                        stats: seq.stats().to_bytes(),
                    };
                    let (mut seq, mut whole) = (build(), build());
                    let mut pilot = Mesh::new(&cfg, codec);
                    let mut routed: Vec<Vec<(SiteId, Update)>> = Vec::new();
                    let mut steps: Vec<Vec<Step>> = Vec::new();
                    let mut want = Vec::new();
                    for batch in &batches {
                        let delta = batch.normalize(seq.current());
                        let home = |op: &Update| match op {
                            Update::Insert(t) => scheme.route(t).unwrap(),
                            Update::Delete(tid) => seq.site_of_tid[tid],
                        };
                        let ops = delta.ops().iter();
                        routed.push(ops.map(|op| (home(op), op.clone())).collect());
                        pilot.run_batch(
                            routed.last().expect("pushed"),
                            |_| 0,
                            |mesh, step| {
                                let ops = step.iter().map(|(_, op, _)| op.clone()).collect();
                                seq.apply(&UpdateBatch::from_ops(ops)).unwrap();
                                let oracle = cfd::naive::detect(cfds, seq.current());
                                assert_eq!(seq.violations().marks_sorted(), oracle.marks_sorted());
                                assert_eq!(mesh.snapshot(), snapshot(&seq), "the pilot");
                                want.push(snapshot(&seq));
                                steps.push(step.to_vec());
                            },
                        );
                        whole.apply(&delta).unwrap();
                        // Table capacities remember the order of growth.
                        let logical = |mut at: Snapshot| {
                            at.census.resident_bytes = 0;
                            at
                        };
                        let (stepped, whole) = (snapshot(&seq), snapshot(&whole));
                        assert_eq!(logical(stepped), logical(whole), "batch order");
                    }
                    // The stream exercises all three kinds of update, and
                    // some batch needs more than one wave.
                    let count =
                        |f: fn(&Step) -> bool| steps.iter().flatten().filter(|s| f(s)).count();
                    let settled: usize = steps.iter().filter(|s| s.iter().any(|x| !x.2)).count();
                    assert!(seq.stats().total_messages() > 0 && steps.len() > 2 * batches.len());
                    assert!(settled > 0 && count(|s| s.2) > 0, "{settled} settled steps");

                    for seed in 1..=PERMUTATIONS {
                        let mut pick = xorshift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                        let mut mesh = Mesh::new(&cfg, codec);
                        let mut at = 0;
                        for batch in &routed {
                            mesh.run_batch(batch, &mut pick, |mesh, step| {
                                let what = format!("{codec:?}, {n} sites, seed {seed}, step {at}");
                                assert_eq!(step, steps[at], "{what}");
                                assert_eq!(mesh.snapshot(), want[at], "{what}");
                                at += 1;
                            });
                        }
                        assert_eq!(at, steps.len());
                    }
                }
            }
        }
    }

    /// Fig. 1's rules, an FD twin of φ1 — the same operator `([CC, zip] →
    /// street)`, so the two share every group — and `([zip] → AC)`, a
    /// second operator, which `D₀` satisfies.
    fn two_operator_cfds(s: &Schema) -> Vec<Cfd> {
        let mut cfds = fig1_cfds(s);
        let twin = [("CC", None), ("zip", None)];
        cfds.push(Cfd::from_names(2, s, &twin, ("street", None)).unwrap());
        cfds.push(Cfd::from_names(3, s, &[("zip", None)], ("AC", None)).unwrap());
        cfds
    }

    /// The Fig. 2 mesh under [`two_operator_cfds`] after loading `D₀`, and
    /// the open delete round of `t5` at site 2 (the only other street of
    /// its zip) with its requests: it queries operator 0 and not 1.
    fn fig2_mesh_deleting_t5() -> (Mesh, Round, Vec<(SiteId, HorMsg)>) {
        let s = emp_schema();
        let cfg = SiteConfig::new(s.clone(), two_operator_cfds(&s), &fig2_scheme(&s));
        assert_eq!(cfg.plan.operators().len(), 2);
        let mut mesh = Mesh::new(&cfg, CodecKind::Dict);
        let scheme = fig2_scheme(&s);
        for t in d0().iter() {
            // One op per wave: the load is five conflicting inserts.
            let wave = [(scheme.route(&t).unwrap(), Update::Insert(t), true)];
            mesh.run_wave(&wave, |_| 0);
        }
        let (sink, rows) = ((&mut mesh.v, &mut mesh.dv), &mut mesh.rows[2]);
        let opened = mesh.sites[2].begin_delete(5, rows, sink).unwrap();
        let (round, requests) = opened.unwrap();
        (mesh, round, requests)
    }

    fn message_of(e: DetectError) -> String {
        match e {
            DetectError::Cluster(e) => e.to_string(),
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    /// Everything `HorMsg::decode_frame` cannot range-check reaches the
    /// machine raw. Each forged request is refused with an error naming
    /// the link, the message kind and the offender, leaves the site as it
    /// was, and does not disturb the well-formed round that follows.
    #[test]
    fn hostile_requests_are_errors_and_leave_the_site_untouched() {
        let (mut mesh, round, requests) = fig2_mesh_deleting_t5();
        let s = emp_schema();
        let attr = |name| s.attr_id(name).unwrap();
        let raw = |name, v| (attr(name), WireValue::Raw(v));
        let lhs = || vec![raw("CC", Value::int(44)), raw("zip", Value::str("EH4 8LE"))];
        let probe = |probes| HorMsg::TupleProbe {
            attrs: lhs(),
            probes,
        };
        let (no_zip, no_cc, cc_twice) = (
            format!("operator 0 without its LHS attribute {}", attr("zip")),
            format!("operator 0 without its LHS attribute {}", attr("CC")),
            format!("attribute {} twice", attr("CC")),
        );
        let forged: Vec<(HorMsg, [&str; 2])> = vec![
            (probe(vec![2]), ["TupleProbe", "operator 2 of 2"]),
            (probe(vec![u32::MAX]), ["TupleProbe", "operator 4294967295"]),
            (
                HorMsg::TupleDelQuery {
                    attrs: vec![raw("CC", Value::int(44))],
                    queries: vec![0],
                },
                ["TupleDelQuery", &no_zip],
            ),
            (
                // Operator 1's `X` is covered, operator 0's is not.
                HorMsg::ClearFlags {
                    attrs: vec![raw("zip", Value::str("EH4 8LE"))],
                    cfds: vec![1, 0],
                },
                ["ClearFlags", &no_cc],
            ),
            (
                HorMsg::ClearFlags {
                    attrs: [lhs(), lhs()].concat(),
                    cfds: vec![0],
                },
                ["ClearFlags", &cc_twice],
            ),
            (
                HorMsg::TupleProbe {
                    attrs: vec![
                        raw("CC", Value::int(44)),
                        (attr("zip"), WireValue::Sym(77, None)),
                    ],
                    probes: vec![0],
                },
                ["symbol 77", "1 → 0"],
            ),
            (
                HorMsg::ProbeReply { conflicts: vec![0] },
                ["ProbeReply", "not a request"],
            ),
        ];
        let before = (mesh.v.marks_sorted(), mesh.census());
        for (msg, needles) in forged {
            let (sink, rows) = ((&mut mesh.v, &mut mesh.dv), &mesh.rows[0]);
            let err = message_of(mesh.sites[0].on_request(1, msg, rows, sink).unwrap_err());
            assert!(err.contains("1 → 0"), "{err}");
            assert!(needles.iter().all(|n| err.contains(n)), "{err}");
            assert_eq!((mesh.v.marks_sorted(), mesh.census()), before, "{err}");
        }
        // An unknown or own site id is refused before the codec is asked.
        for src in [0, 3] {
            let (sink, rows) = ((&mut mesh.v, &mut mesh.dv), &mesh.rows[0]);
            let err = mesh.sites[0].on_request(src, probe(vec![0]), rows, sink);
            assert!(message_of(err.unwrap_err()).contains("unknown site"));
        }

        // The real round still runs to the oracle's V: t5's street was the
        // group's only other one, so t1, t3 and t4 are cleared with it.
        mesh.rounds[2].push(None);
        mesh.send(2, 0, Some(round), requests);
        mesh.run_wave(&[], |_| 0);
        let mut d = d0();
        d.delete(5).unwrap();
        let oracle = cfd::naive::detect(&two_operator_cfds(&s), &d);
        assert_eq!(mesh.v.marks_sorted(), oracle.marks_sorted());
        assert_eq!(mesh.v.marks_sorted(), vec![(1, 1)]);
    }

    /// Replies are checked against the round they claim to answer, before
    /// anything is folded: the refused ones leave the round able to take
    /// the real replies and finish on the oracle's `V`.
    #[test]
    fn hostile_replies_are_errors_and_leave_the_round_intact() {
        let (mut mesh, mut round, requests) = fig2_mesh_deleting_t5();
        let street = |o| (o, vec![WireValue::Raw(Value::str("Mayfield"))]);
        let forged = [
            (
                // An operator of Σ, but not one this round asked about.
                HorMsg::DelReply {
                    bvals: vec![street(0), street(1)],
                },
                ["DelReply", "operator 1, which the round did not query"],
            ),
            (
                HorMsg::DelReply {
                    bvals: vec![street(u32::MAX)],
                },
                ["DelReply", "operator 4294967295"],
            ),
            (
                HorMsg::DelReply {
                    bvals: vec![(0, vec![WireValue::Sym(9, None)])],
                },
                ["symbol 9", "1 → 2"],
            ),
            (
                HorMsg::ProbeReply { conflicts: vec![0] },
                ["ProbeReply", "delete round"],
            ),
            (
                HorMsg::ClearFlags {
                    attrs: vec![],
                    cfds: vec![],
                },
                ["ClearFlags", "delete round"],
            ),
        ];
        for (msg, needles) in forged {
            let err = message_of(mesh.sites[2].on_reply(&mut round, 1, msg).unwrap_err());
            assert!(err.contains("1 → 2"), "{err}");
            assert!(needles.iter().all(|n| err.contains(n)), "{err}");
        }
        mesh.rounds[2].push(None);
        mesh.send(2, 0, Some(round), requests);
        mesh.run_wave(&[], |_| 0);
        assert_eq!(mesh.v.marks_sorted(), vec![(1, 1)], "t5 gone, φ1 satisfied");

        // An insert round refuses a delete's reply, and ids out of Σ.
        let t = emp_tuple(7, "C", 44, 131, "EH2 4HF", "Lauriston", "EDI");
        let (sink, rows) = ((&mut mesh.v, &mut mesh.dv), &mut mesh.rows[2]);
        let opened = mesh.sites[2].begin_insert(&t, rows, sink).unwrap();
        let (mut round, requests) = opened.unwrap();
        let forged = [
            (
                HorMsg::DelReply {
                    bvals: vec![street(0)],
                },
                ["DelReply", "insert round"],
            ),
            (
                HorMsg::ProbeReply { conflicts: vec![2] },
                ["ProbeReply", "operator 2 of 2"],
            ),
            (
                HorMsg::ProbeReply {
                    conflicts: vec![0, u32::MAX],
                },
                ["ProbeReply", "operator 4294967295"],
            ),
        ];
        for (msg, needles) in forged {
            let err = message_of(mesh.sites[2].on_reply(&mut round, 0, msg).unwrap_err());
            assert!(needles.iter().all(|n| err.contains(n)), "{err}");
        }
        mesh.rounds[2].push(None);
        mesh.send(2, 0, Some(round), requests);
        mesh.run_wave(&[], |_| 0);
        // t7's street clashes with t2's (site 0) on zip EH2 4HF, under
        // both rules of the operator; their AC agrees.
        let marks = vec![(0, 2), (0, 7), (1, 1), (2, 2), (2, 7)];
        assert_eq!(mesh.v.marks_sorted(), marks);
    }

    /// The same refusal end to end through the synchronous driver: a frame
    /// forged onto the transport fails the `apply` that meets it with a
    /// typed error; the process lives.
    #[test]
    fn forged_frame_fails_apply_with_a_typed_error() {
        let s = emp_schema();
        let mut det =
            HorizontalDetector::new(s.clone(), fig1_cfds(&s), fig2_scheme(&s), &d0()).unwrap();
        let forged = HorMsg::TupleDelQuery {
            attrs: vec![],
            queries: vec![9],
        };
        det.net.send(2, 1, forged).unwrap();
        // Deleting t5 queries site 1, whose inbox the forged frame heads.
        let mut delta = UpdateBatch::new();
        delta.delete(5);
        let err = message_of(det.apply(&delta).unwrap_err());
        assert!(
            err.contains("2 → 1") && err.contains("operator 9 of 1"),
            "{err}"
        );
    }

    #[test]
    fn orphaned_class_is_an_internal_error_not_a_null() {
        let s = emp_schema();
        let mut det =
            HorizontalDetector::new(s.clone(), fig1_cfds(&s), fig2_scheme(&s), &d0()).unwrap();
        // Break the invariant by hand: t3 and t4 (site 1, grade B) lose
        // their rows while their class stays in the group state.
        det.current.delete_quiet(3).unwrap();
        det.current.delete_quiet(4).unwrap();
        // Deleting t5 (site 2, the only other street) sends a del-query.
        let mut delta = UpdateBatch::new();
        delta.delete(5);
        match det.apply(&delta) {
            Err(DetectError::Internal(msg)) => {
                assert!(
                    msg.contains("site 1") && msg.contains("operator 0"),
                    "{msg}"
                );
            }
            other => panic!("expected an internal error, got {other:?}"),
        }
    }

    /// What an `apply` that failed mid-batch can leave behind: a row whose
    /// group the state no longer holds. Deleting it is an error that says
    /// where, not a panic, and the detector goes on serving.
    #[test]
    fn lost_group_is_an_internal_error_not_a_panic() {
        let s = emp_schema();
        let mut det =
            HorizontalDetector::new(s.clone(), fig1_cfds(&s), fig2_scheme(&s), &d0()).unwrap();
        // t2 is alone in its group (zip EH2 4HF, site 0): drop the group
        // behind the machine's back.
        let holds_t2 = |g: &GroupState| {
            let mut found = false;
            g.for_each_member(|m| found |= m == 2);
            found
        };
        det.sites[0].state[0].retain(|_, g| !holds_t2(g));
        let mut delta = UpdateBatch::new();
        delta.delete(2);
        match det.apply(&delta) {
            Err(DetectError::Internal(msg)) => {
                let named = ["site 0", "operator 0", "lost the group of tuple 2"];
                assert!(named.iter().all(|n| msg.contains(n)), "{msg}");
            }
            other => panic!("expected an internal error, got {other:?}"),
        }
        // A group that is there but holds another class reads the same.
        let groups = det.sites[1].state[0].values_mut();
        groups.for_each(|g| *g = GroupState::new(Digest([9; 16]), 3));
        let mut delta = UpdateBatch::new();
        delta.delete(3);
        match det.apply(&delta) {
            Err(DetectError::Internal(msg)) => assert!(msg.contains("lost the RHS class"), "{msg}"),
            other => panic!("expected an internal error, got {other:?}"),
        }
        // A batch that stays clear of the damage runs as ever.
        let mut delta = UpdateBatch::new();
        delta.insert(emp_tuple(8, "C", 44, 131, "EH9 1ZZ", "Marchmont", "EDI"));
        delta.insert(emp_tuple(9, "A", 44, 131, "EH9 1ZZ", "Sciennes", "EDI"));
        assert_eq!(det.apply(&delta).unwrap().added_tids_sorted(), vec![8, 9]);
    }
}
