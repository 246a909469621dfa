//! The §6 site machine: one site's whole share of `incHor` — group state
//! and codec state — behind six steps with no transport, no threads, no
//! `V` and no rows inside: the four steps that touch a row are handed the
//! store their driver owns. The [parent module](super) documents the steps
//! and the invariants; [`HorizontalDetector`](super::HorizontalDetector)
//! drives `n` machines from one thread over a `MsgTransport`, rounds in
//! flight across a batch, and hands each the one logical relation, the
//! thread-per-site
//! [`SiteRunner`](crate::concurrent::SiteRunner) drives one behind its
//! wave scheduler and hands it the fragment its thread or process holds —
//! after [`Site::settle`] has applied, on arrival, every update of the
//! batch that needs no scheduling at all. When an update may run is
//! decided by the [`order`](super::order) module's one rule.
//!
//! Group state, the case analyses and every id on the wire are per
//! *operator* `(X → B)` ([`SharedPlan::operators`]); CFD ids appear only
//! where a mark is written to `V`.

use super::order::{self, Class, Deferrals, DeferredList, Key, Party, Verdict};
use super::{
    add_marks, class_values, clear_group, delete_case, insert_case, insert_ship, mark_group,
    GroupState, HorMsg, Ship, StateCensus,
};
use crate::detector::DetectError;
use cfd::{Cfd, CfdId, DeltaV, MatchScratch, OpId, SharedPlan, Violations};
use cluster::codec::{
    value_digest, value_digest_into, CodecKind, PayloadCodec, ReceiverCodec, WireValue,
};
use cluster::md5::{md5, Digest};
use cluster::partition::HorizontalScheme;
use cluster::{ClusterError, SiteId};
use relation::{
    AttrId, ColumnStore, FxHashMap, FxHashSet, RelError, Relation, RowId, Schema, Tid, Tuple,
    Update,
};
use std::collections::hash_map::Entry;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

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
/// fresh per peer; stateless ones (md5/raw) encode once, clone for all but
/// the last peer and hand that one the original, so the attribute digests
/// of an update are computed once, not per peer.
fn broadcast(
    codec: &mut dyn PayloadCodec,
    me: SiteId,
    sx: &OpScratch,
    t: &Tuple,
    msg: impl Fn(Vec<(AttrId, WireValue)>) -> HorMsg,
) -> Vec<(SiteId, HorMsg)> {
    let mut shared = None;
    let last = sx.peers.len().saturating_sub(1);
    let to_peer = sx.peers.iter().enumerate().map(|(i, &j)| {
        let payload = if codec.per_link() {
            encode_attrs(codec, t, &sx.attrs, (me, j))
        } else {
            let once = shared.get_or_insert_with(|| encode_attrs(codec, t, &sx.attrs, (me, j)));
            if i == last {
                std::mem::take(once)
            } else {
                once.clone()
            }
        };
        (j, msg(payload))
    });
    to_peer.collect()
}

/// Everything a site derives from `(schema, Σ, scheme)` alone — identical
/// at every site, cheap to clone (all `Arc`s), and reconstructible in a
/// separate process from the same inputs.
#[derive(Debug, Clone)]
pub(crate) struct SiteConfig {
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
    pub(crate) fn new(schema: Arc<Schema>, cfds: Vec<Cfd>, scheme: &HorizontalScheme) -> Self {
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
    /// `sx.group_kd` ([`matched_ops`] reads the two back): one shared
    /// dispatch pass, and one key digest per key group however many of
    /// its CFDs match.
    pub(crate) fn candidates(&self, t: &Tuple, sx: &mut OpScratch) {
        sx.begin(self.plan.key_groups().len());
        for &cid in self.plan.matched(t, &mut sx.dispatch) {
            let Some(g) = self.plan.group_of(cid) else {
                sx.consts.push(cid);
                continue;
            };
            sx.group_kd[g].get_or_insert_with(|| {
                let lhs = self.plan.key_groups()[g].0.iter();
                let digests = lhs.map(|&a| digest_cached(&mut sx.attr_d, t, a, &mut sx.vbuf));
                key_digest_from(digests, &mut sx.kbuf)
            });
            sx.vars.push(cid);
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
#[expect(
    clippy::expect_used,
    reason = "a candidate CFD is variable, and its group key was digested as it matched"
)]
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

/// `V(Σ, D₀)` and every site's group and codec state, built over `D₀`
/// already stored — `rows[i]` is the store site `i`'s steps are handed,
/// holding at least the rows it is home to — as a replay of `D₀`'s rows as
/// inserts in tid order through the protocol leaves them, with no round
/// and no frame. `homes` is every row's tid and home, ascending by tid.
///
/// 1. each row is read off its home's store, classified once there
///    (shared dispatch, key and RHS digests), and entered: into the home's
///    group maps by its row id in that store, and into `V` for each
///    constant CFD it violates. Under a codec with per-link state it first
///    teaches the links what the replay's frame for it would have
///    ([`Site::teach`]).
/// 2. per operator, each group's flag is the global fact the protocol
///    maintains — its classes across all sites hold ≥ 2 distinct RHS
///    digests — and a violating group's members are marked.
///
/// Site `i`'s peers are the sites before and after it; what a pass reads
/// of them is their group maps as they stand, so nothing sized by `D₀` is
/// kept beside the state itself.
pub(crate) fn build(
    sites: &mut [Site],
    rows: &[&Relation],
    homes: impl IntoIterator<Item = Result<(Tid, SiteId), DetectError>>,
    v: &mut Violations,
) -> Result<(), DetectError> {
    for homed in homes {
        let (tid, home) = homed?;
        let store = rows.get(home).ok_or(ClusterError::UnknownSite(home))?;
        let row = store.row_of(tid).ok_or_else(|| {
            DetectError::Internal(format!("row {tid} is not stored at its home {home}"))
        })?;
        let t = store.tuple_at(row);
        let (before, site, after) = split(sites, home)?;
        site.classify(&Own::Insert(&t));
        site.enter(&t, row, (before, after), v)?;
    }
    let operators = sites.first().map_or(0, |s| s.state.len());
    for op in (0..operators).map(|o| o as OpId) {
        for (i, store) in rows.iter().enumerate() {
            let (before, site, after) = split(sites, i)?;
            site.flag(op, (before, after), store, v)?;
        }
    }
    Ok(())
}

/// Site `i`, between the sites before and after it.
fn split(
    sites: &mut [Site],
    i: SiteId,
) -> Result<(&mut [Site], &mut Site, &mut [Site]), DetectError> {
    let (before, rest) = sites.split_at_mut(i.min(sites.len()));
    let (site, after) = rest.split_first_mut().ok_or(ClusterError::UnknownSite(i))?;
    Ok((before, site, after))
}

/// Own-update scratch: cleared, not rebuilt, per update. What
/// [`SiteConfig::candidates`] leaves here survives everything a site does
/// for its peers meanwhile ([`ServeScratch`] is theirs), so an update
/// classified before a drain is begun after it without recomputing.
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
}

/// Serving scratch: the digests of one request and the key digest per key
/// group it derives, the matched CFDs of one of its operators, the resolved
/// values of one reply.
#[derive(Default)]
struct ServeScratch {
    digests: FxHashMap<AttrId, Digest>,
    group_kd: Vec<Option<Digest>>,
    kbuf: Vec<u8>,
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

    /// The key groups the update [`SiteConfig::candidates`] was last run
    /// for matches, each with its group key.
    fn keyed(&self) -> impl Iterator<Item = (usize, Digest)> + '_ {
        let keyed = self.group_kd.iter().enumerate();
        keyed.filter_map(|(g, kd)| kd.map(|kd| (g, kd)))
    }

    /// That update's footprint: every group it, or a round it opens, can
    /// touch at any site ([`order`]).
    pub(crate) fn footprint(&self) -> impl Iterator<Item = Key> + '_ {
        self.keyed().map(|(g, kd)| order::key(g, kd))
    }

    /// The RHS class that update joins or leaves in each group it matches;
    /// [`Site::classify`] has digested every RHS value.
    fn classes<'a>(&'a self, cfg: &'a SiteConfig) -> impl Iterator<Item = Class> + 'a {
        let matched = matched_ops(&cfg.plan, &self.vars, &self.group_kd);
        matched.map(|(op, kd, _)| (op, kd, self.attr_d[&cfg.operator(op).1]))
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

/// An update at its home site as the machine reads it: the inserted tuple,
/// or the stored tuple a delete removes — read off the rows once, for the
/// classification and the case analysis alike.
pub(crate) enum Own<'a> {
    Insert(&'a Tuple),
    Delete(Tuple),
}

impl<'a> Own<'a> {
    /// `op` at its home, whose rows hold every tuple it may delete.
    pub(crate) fn read(op: &'a Update, rows: &Relation) -> Result<Self, DetectError> {
        Ok(match op {
            Update::Insert(t) => Own::Insert(t),
            Update::Delete(tid) => Own::Delete(rows.get(*tid).ok_or(RelError::MissingTid(*tid))?),
        })
    }

    fn tuple(&self) -> &Tuple {
        match self {
            Own::Insert(t) => t,
            Own::Delete(t) => t,
        }
    }

    /// Members the update adds to its classes: 1, or −1 for a delete.
    fn sign(&self) -> i32 {
        match self {
            Own::Insert(_) => 1,
            Own::Delete(_) => -1,
        }
    }
}

/// Census of the group maps of `sites`.
pub(crate) fn census<'a>(sites: impl IntoIterator<Item = &'a Site>) -> StateCensus {
    let mut census = StateCensus::default();
    for site in sites {
        site.state.iter().for_each(|map| census.count(map));
    }
    census
}

/// One site of the §6 protocol, sans IO.
pub(crate) struct Site {
    cfg: SiteConfig,
    me: SiteId,
    /// Group state per operator: every tuple of this site that matches at
    /// least one CFD of the operator, by group key.
    state: Vec<FxHashMap<Digest, GroupState<Digest>>>,
    /// Sender-side payload encoding; per-link state (dictionary
    /// residency) lives in the codec.
    codec: Box<dyn PayloadCodec>,
    /// Receiver-side codec state per sending site: link dictionaries built
    /// **only from received payloads** (deltas), so digests derive from
    /// what actually crossed the wire.
    rx: Vec<ReceiverCodec>,
    sx: OpScratch,
    served: ServeScratch,
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
            served: ServeScratch::default(),
            cfg,
            me,
        }
    }

    pub(crate) fn cfg(&self) -> &SiteConfig {
        &self.cfg
    }

    /// Symbols resident on each link into this site, by sender.
    #[cfg(test)]
    pub(crate) fn resident_symbols(&self) -> impl Iterator<Item = usize> + '_ {
        self.rx.iter().map(ReceiverCodec::resident_symbols)
    }

    /// Every group's flag, by operator and key.
    #[cfg(test)]
    pub(crate) fn flags(&self) -> impl Iterator<Item = (OpId, Digest, bool)> + '_ {
        let ops = (0..).zip(&self.state);
        ops.flat_map(|(op, map)| map.iter().map(move |(kd, g)| (op, *kd, g.violating())))
    }

    /// A protocol error on the `src → me` link.
    fn bad(&self, src: SiteId, kind: &str, what: impl std::fmt::Display) -> DetectError {
        let me = self.me;
        ClusterError::Transport(format!("link {src} → {me}: {kind} {what}")).into()
    }

    // -- own updates ----------------------------------------------------

    /// `op` at its home site, both halves at once: [`classify`](Self::classify),
    /// then [`begin_classified`](Self::begin_classified).
    pub(crate) fn begin(
        &mut self,
        op: &Update,
        may_ship: bool,
        rows: &mut Relation,
        dv: &mut DeltaV,
    ) -> Result<Option<Opened>, DetectError> {
        let own = Own::read(op, rows)?;
        self.classify(&own);
        self.begin_classified(own, may_ship, rows, dv)
    }

    /// The first half of an own update: its candidates — the CFDs it
    /// matches and a key digest per key group they sit on — and the RHS
    /// digest of each class it touches, into the own-update scratch. They
    /// stay there, whatever this site serves its peers meanwhile, until
    /// the update begins.
    pub(crate) fn classify(&mut self, own: &Own<'_>) {
        let (cfg, sx, t) = (&self.cfg, &mut self.sx, own.tuple());
        cfg.candidates(t, sx);
        for (op, ..) in matched_ops(&cfg.plan, &sx.vars, &sx.group_kd) {
            digest_cached(&mut sx.attr_d, t, cfg.operator(op).1, &mut sx.vbuf);
        }
    }

    /// The classified update's footprint ([`order`]).
    pub(crate) fn footprint(&self) -> impl Iterator<Item = Key> + '_ {
        self.sx.footprint()
    }

    /// The part of the footprint the round the update just opened can
    /// touch: the key groups whose whole `X` its requests carry. A peer
    /// derives keys from the payload alone, and every operator the round
    /// queries, probes or may clear is among them.
    pub(crate) fn reach(&self) -> impl Iterator<Item = Key> + '_ {
        let carried = |g: usize| {
            let lhs = &self.cfg.plan.key_groups()[g].0;
            lhs.iter().all(|a| self.sx.attrs.binary_search(a).is_ok())
        };
        let keyed = self.sx.keyed().filter(move |&(g, _)| carried(g));
        keyed.map(|(g, kd)| order::key(g, kd))
    }

    /// Does the classified update create or empty a local RHS class, so
    /// that a peer could tell it happened? Exact for an update about to
    /// begin: the stored state is the state it will find.
    pub(crate) fn writes(&self, own: &Own<'_>) -> bool {
        !self.preserves(own, |_| 0)
    }

    /// The second half: the case analysis over the classified candidates —
    /// the insert's row stored first, the delete's row dropped last. `None`
    /// when the local case analysis settles every operator (Examples
    /// 2(1)(b), 2(2) and 9), no peer could hold a group of it, or the site
    /// decided a delete alone. An update the driver runs as
    /// class-preserving (`!may_ship`) that opens a round is an internal
    /// error: the classification and the case analysis disagree.
    pub(crate) fn begin_classified(
        &mut self,
        own: Own<'_>,
        may_ship: bool,
        rows: &mut Relation,
        dv: &mut DeltaV,
    ) -> Result<Option<Opened>, DetectError> {
        let tid = own.tuple().tid;
        let opened = match own {
            Own::Insert(t) => {
                // Row before group state: every class this update creates
                // has, from its first instant, a member whose RHS value
                // `rows` can produce (`class_values`).
                let row = rows.insert_row(t.tid, t.values.iter())?;
                self.insert_matched(t, row, rows.store(), dv)?
            }
            Own::Delete(t) => self.delete_matched(t, rows, dv)?,
        };
        if opened.is_some() && !may_ship {
            let me = self.me;
            let what =
                format!("site {me}: the class-preserving update of tuple {tid} opened a round");
            return Err(DetectError::Internal(what));
        }
        Ok(opened)
    }

    /// The insertion case analysis over the candidates the scratch holds
    /// for `t`, stored at `row` of `rows`.
    fn insert_matched(
        &mut self,
        t: &Tuple,
        row: RowId,
        rows: &ColumnStore,
        dv: &mut DeltaV,
    ) -> Result<Option<Opened>, DetectError> {
        let (cfg, me, sx) = (&self.cfg, self.me, &mut self.sx);
        for &c in &sx.consts {
            if cfg.cfds[c as usize].constant_violation(t) {
                dv.add(c, t.tid);
            }
        }
        let (mut asked, mut asked_cfds) = (Vec::new(), Vec::new());
        for (op, kd, cfds) in matched_ops(&cfg.plan, &sx.vars, &sx.group_kd) {
            let bd = digest_cached(&mut sx.attr_d, t, cfg.operator(op).1, &mut sx.vbuf);
            let local_only = cfg.local_ok[op as usize][me];
            let groups = &mut self.state[op as usize];
            match insert_case(groups, (rows, dv), cfds, row, (kd, bd), local_only) {
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

    /// The deletion case analysis over the candidates the scratch holds
    /// for `t`, which is still in `rows`.
    fn delete_matched(
        &mut self,
        t: Tuple,
        rows: &mut Relation,
        dv: &mut DeltaV,
    ) -> Result<Option<Opened>, DetectError> {
        let tid = t.tid;
        let row = rows.row_of(tid).ok_or(RelError::MissingTid(tid))?;
        let (cfg, me, sx) = (&self.cfg, self.me, &mut self.sx);
        // The stored tuple is the inserted one: it holds the marks its
        // insert recorded, and a constant CFD outside the list holds none.
        for &c in &sx.consts {
            if cfg.cfds[c as usize].constant_violation(&t) {
                dv.remove(c, tid);
            }
        }
        let (mut queries, mut asked_cfds) = (Vec::new(), Vec::new());
        for (op, kd, cfds) in matched_ops(&cfg.plan, &sx.vars, &sx.group_kd) {
            let bd = digest_cached(&mut sx.attr_d, &t, cfg.operator(op).1, &mut sx.vbuf);
            let local_only = cfg.local_ok[op as usize][me];
            let groups = &mut self.state[op as usize];
            let lost = |what| {
                let at = format!("site {me}: operator {op} group {}", kd.to_hex());
                DetectError::Internal(format!("{at} lost the {what} of tuple {tid}"))
            };
            let marks = (rows.store(), &mut *dv);
            if !delete_case(groups, marks, cfds, row, (kd, bd), local_only).map_err(lost)? {
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
        // The groups have let go of the row, so no state names it once it
        // is freed — and handed out again, perhaps within this batch — and
        // peers never read it.
        rows.delete_quiet(tid)?;
        if queries.is_empty() {
            return Ok(None);
        }
        let cfds = asked_cfds;
        if !sx.settle_peers() {
            // Global = local: decide from this site's classes alone.
            let clears = self.finish(Round::Delete { t, cfds, queries }, rows, dv)?;
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

    /// The settle step: once per batch, over this site's slice in slice
    /// order, before any round of the batch opens anywhere. An update is
    /// *class-preserving* when, for every operator it matches, the local
    /// group holds its RHS class before and after it: an insert finds a
    /// member there, a delete leaves one — counting what the slice's
    /// deferred updates will have added and removed by the time it runs.
    /// One that also commutes ([`order::verdict`]) with every update
    /// deferred before it is applied here, through the same case analysis,
    /// which must ship nothing. Every other update is left untouched for
    /// the wave schedule, entered in `held` (which the driver keeps between
    /// batches) and listed: its slice position, and whether it writes or
    /// is only held behind a deferred update; a deferred delete also with
    /// its footprint, read off the row only its home holds.
    ///
    /// A delete followed by the insert of its tid as stored — a re-insert
    /// admitted where no row was at hand to compare it with — is dropped
    /// whole, as `normalize` drops it where the row is at hand.
    pub(crate) fn settle(
        &mut self,
        slice: &[&Update],
        rows: &mut Relation,
        dv: &mut DeltaV,
        held: &mut Deferrals,
    ) -> Result<DeferredList, DetectError> {
        held.clear();
        let mut deferred = DeferredList::default();
        let mut ops = (0..).zip(slice).peekable();
        while let Some((pos, &op)) = ops.next() {
            let (own, tid, me) = (Own::read(op, rows)?, op.tid(), self.me);
            if let Own::Delete(stored) = &own {
                let same = |t: &Tuple| t.tid == tid && t.values == stored.values;
                if ops
                    .next_if(|(_, next)| matches!(next, Update::Insert(t) if same(t)))
                    .is_some()
                {
                    continue;
                }
            }
            self.classify(&own);
            let writes = !self.preserves(&own, |class| held.pending(class));
            let (verdict, _) = held.ledger.wait(me, tid, self.footprint(), || writes);
            if writes || verdict != Verdict::Commutes {
                let (keys, classes) = (self.sx.footprint(), self.sx.classes(&self.cfg));
                held.defer(Party { home: me, writes }, tid, keys, own.sign(), classes);
                deferred.updates.push((pos, writes));
                if let Own::Delete(_) = own {
                    deferred.footprints.push(self.sx.footprint().collect());
                }
            } else {
                self.begin_classified(own, false, rows, dv)?;
            }
        }
        Ok(deferred)
    }

    /// Is the classified update class-preserving: does every RHS class it
    /// touches hold a member before and after it? `pending` adds, per
    /// class, the members earlier updates not yet applied will have added
    /// or removed by the time it runs.
    fn preserves(&self, own: &Own<'_>, pending: impl Fn(Class) -> i32) -> bool {
        // An insert needs a member to join, a delete one to leave behind.
        let needed = if own.sign() > 0 { 1 } else { 2 };
        self.sx.classes(&self.cfg).all(|(op, kd, bd)| {
            let group = self.state[op as usize].get(&kd);
            let stored = group.map_or(0, |g| g.class_len(bd)) as i64;
            stored + i64::from(pending((op, kd, bd))) >= needed
        })
    }

    // -- the direct build -----------------------------------------------

    /// Pass 1 of [`build`] for the classified row `t`, stored at `row` of
    /// this site's store and entered after every row of a lower tid: its
    /// codec traffic first, then its constant-CFD marks and its
    /// memberships.
    fn enter(
        &mut self,
        t: &Tuple,
        row: RowId,
        (before, after): (&mut [Site], &mut [Site]),
        v: &mut Violations,
    ) -> Result<(), DetectError> {
        if self.codec.per_link() {
            self.teach(t, (before, after))?;
        }
        let (cfg, sx) = (&self.cfg, &self.sx);
        for &c in &sx.consts {
            if cfg.cfds[c as usize].constant_violation(t) {
                v.add(c, t.tid);
            }
        }
        for (op, kd, bd) in sx.classes(cfg) {
            match self.state[op as usize].entry(kd) {
                Entry::Vacant(e) => {
                    e.insert(GroupState::new(bd, row));
                }
                Entry::Occupied(e) => e.into_mut().insert(bd, row),
            }
        }
        Ok(())
    }

    /// Teach each link the classified row `t` would have crossed in the
    /// replay what its frame would have: [`insert_ship`] against the
    /// classes the earlier rows left here and at the peers — where a
    /// group's flag is the global fact — says whether it ships, and the
    /// payload is encoded here and decoded at each peer in peer order, so
    /// both ends' dictionaries hold the replay's symbols.
    fn teach(
        &mut self,
        t: &Tuple,
        (before, after): (&mut [Site], &mut [Site]),
    ) -> Result<(), DetectError> {
        let (cfg, me, sx) = (&self.cfg, self.me, &mut self.sx);
        for (op, kd, cfds) in matched_ops(&cfg.plan, &sx.vars, &sx.group_kd) {
            let bd = digest_cached(&mut sx.attr_d, t, cfg.operator(op).1, &mut sx.vbuf);
            let found = self.state[op as usize].get(&kd).map(|g| {
                let peers = before.iter().chain(&*after);
                let held = peers.filter_map(|p| p.state[op as usize].get(&kd));
                // The flag is read only when t brings another class.
                let other = g.has_other(bd);
                (other, other && g.violates_among(held))
            });
            match insert_ship(found, cfg.local_ok[op as usize][me]) {
                Ship::Nothing => continue,
                Ship::Probe => sx.probes.push(op),
                Ship::Query => sx.queries.push(op),
            }
            cfg.peers_of(cfds, me, &mut sx.peers);
        }
        if !sx.settle_peers() {
            return Ok(());
        }
        cfg.wire_attrs(&mut sx.attrs, &sx.probes, &sx.queries);
        let peers = before.iter_mut().chain(after);
        for peer in peers.filter(|p| sx.peers.binary_search(&p.me).is_ok()) {
            let rx = peer.rx.get_mut(me).ok_or(ClusterError::UnknownSite(me))?;
            for &a in &sx.attrs {
                rx.digest(&self.codec.encode(me, peer.me, t.get(a)))?;
            }
        }
        Ok(())
    }

    /// Pass 2 of [`build`] at this site for operator `op`: raise the flag
    /// of every group whose classes here and at the peers hold ≥ 2
    /// distinct RHS digests, and mark its members for the CFDs of `op`
    /// whose pattern the group key matches — read off one member's row in
    /// `rows`, this site's store.
    fn flag(
        &mut self,
        op: OpId,
        (before, after): (&[Site], &[Site]),
        rows: &Relation,
        v: &mut Violations,
    ) -> Result<(), DetectError> {
        let (cfg, me) = (&self.cfg, self.me);
        let mut hit = Vec::new();
        for (kd, g) in self.state[op as usize].iter_mut() {
            let held = before.iter().chain(after);
            if !g.violates_among(held.filter_map(|p| p.state[op as usize].get(kd))) {
                continue;
            }
            g.set_violating(true);
            let mut member = None;
            g.for_each_class(|_, members| member = member.or(members.first()));
            let store = rows.store();
            let Some(row) = member.filter(|&row| store.is_live(row)) else {
                let what = format!("site {me}: operator {op} group {} has no row", kd.to_hex());
                return Err(DetectError::Internal(what));
            };
            let t = rows.tuple_at(row);
            let matched = cfg.operator(op).2.iter().copied();
            hit.clear();
            hit.extend(matched.filter(|&c| cfg.cfds[c as usize].matches_lhs(&t)));
            g.for_each_member(|m| {
                for &c in &hit {
                    v.add(c, store.tid_of(m));
                }
            });
        }
        Ok(())
    }

    // -- serving peers --------------------------------------------------

    /// Check a request before anything is mutated, and resolve its payload
    /// into the serving scratch through the `src → me` link's own dictionary
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
        self.served.digests.clear();
        for (a, w) in attrs {
            if self.served.digests.insert(*a, rx.digest(w)?).is_some() {
                return Err(self.bad(src, kind, format!("carries attribute {a} twice")));
            }
        }
        for &o in listed {
            let mut lhs = self.cfg.operator(o).0.iter();
            if let Some(a) = lhs.find(|a| !self.served.digests.contains_key(*a)) {
                let what = format!("lists operator {o} without its LHS attribute {a}");
                return Err(self.bad(src, kind, what));
            }
        }
        Ok(())
    }

    /// Group key of listed operator `o` from the admitted payload.
    fn wire_key(&mut self, o: OpId) -> Digest {
        let lhs = self.cfg.operator(o).0.iter();
        key_digest_from(lhs.map(|a| self.served.digests[a]), &mut self.served.kbuf)
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
        dv: &mut DeltaV,
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
                        let sx = &mut self.served;
                        self.cfg.matched_under(o, &sx.digests, &mut sx.hit);
                        mark_group(h, &sx.hit, rows.store(), dv);
                    }
                }
                // Implicit queries: every other operator the payload can
                // derive — one key digest per distinct LHS list, one
                // lookup per operator.
                let (cfg, sx) = (&self.cfg, &mut self.served);
                let digests = &sx.digests;
                sx.group_kd.clear();
                for (lhs, _) in cfg.plan.key_groups() {
                    let covered = lhs.iter().all(|a| digests.contains_key(a));
                    let kd = || key_digest_from(lhs.iter().map(|a| digests[a]), &mut sx.kbuf);
                    sx.group_kd.push(covered.then(kd));
                }
                let mut conflicts = Vec::new();
                for (o, (g, b, _)) in (0..).zip(cfg.plan.operators()) {
                    // Cheapest test first: most key groups are not derivable.
                    let Some(kd) = sx.group_kd[*g] else { continue };
                    let Some(&bd) = digests.get(b) else { continue };
                    if probes.contains(&o) {
                        continue;
                    }
                    let Some(h) = self.state[o as usize].get_mut(&kd) else {
                        continue;
                    };
                    let other = h.has_other(bd);
                    if other && !h.violating() {
                        cfg.matched_under(o, digests, &mut sx.hit);
                        mark_group(h, &sx.hit, rows.store(), dv);
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
                    // Only peers answer, and the footprints of rounds open
                    // at once are disjoint, so the group read here is never
                    // one an in-flight update of this site is half through.
                    if let Some(h) = self.state[o as usize].get(&kd) {
                        let (me, codec) = (self.me, self.codec.as_mut());
                        let at = (me, o, self.cfg.operator(o).1, kd);
                        let encode = |v: &_| codec.encode(me, src, v);
                        let vals = class_values(h, rows.store(), at, encode);
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
                        let sx = &mut self.served;
                        self.cfg.matched_under(o, &sx.digests, &mut sx.hit);
                        clear_group(h, &sx.hit, rows.store(), dv);
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
                self.served.reply_d.clear();
                for w in bvals.iter().flat_map(|(_, vs)| vs) {
                    self.served.reply_d.push(rx.digest(w)?);
                }
                let mut resolved = self.served.reply_d.drain(..);
                for (o, vs) in bvals {
                    let i = queries.binary_search_by_key(&o, |q| q.asked.op);
                    #[expect(clippy::expect_used, reason = "every operator was checked above")]
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
    /// values — a group it clears names its members by their tids in
    /// `rows` — and returns one coalesced `ClearFlags` per peer still
    /// holding a group that stopped violating, ascending by peer.
    pub(crate) fn finish(
        &mut self,
        round: Round,
        rows: &Relation,
        dv: &mut DeltaV,
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
                    add_marks(&cfds[q.cfds], tid, dv);
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
                        clear_group(h, &cfds[ids], rows.store(), dv);
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
pub(crate) mod tests {
    use super::*;
    use crate::concurrent::wave_order;
    use crate::horizontal::fixtures::{
        d0, emp_schema, emp_tuple, fig1_cfds, fig2_scheme, simulated,
    };
    use crate::horizontal::order::WavePlanner;
    use crate::{Detector, HorizontalDetector};
    use cluster::{NetStats, Wire};
    use relation::{UpdateBatch, Value};
    use std::collections::VecDeque;
    use workload::updates::{self, UpdateMix};

    /// `V` as the state implies it: each member of a violating group, for
    /// each CFD of the group's operator whose pattern the group key matches
    /// (read off a member's row), and each stored row, for each constant CFD
    /// it violates. `sites` pairs each machine with rows holding its
    /// members; `rows` is every stored row. No mark is implied twice.
    pub(crate) fn implied_violations<'a>(
        sites: impl IntoIterator<Item = (&'a Site, &'a Relation)>,
        rows: impl IntoIterator<Item = Tuple>,
        cfds: &[Cfd],
    ) -> Violations {
        let mut v = Violations::new(cfds.len());
        let mut mark = |c: CfdId, tid| assert!(v.add(c, tid), "CFD {c} on {tid} twice");
        for (site, held) in sites {
            for (op, groups) in (0..).zip(&site.state) {
                for g in groups.values().filter(|g| g.violating()) {
                    let mut members = Vec::new();
                    g.for_each_member(|m| members.push(m));
                    let t = held.tuple_at(members[0]);
                    let matched = site.cfg.operator(op).2.iter().copied();
                    for c in matched.filter(|&c| cfds[c as usize].matches_lhs(&t)) {
                        members
                            .iter()
                            .for_each(|&m| mark(c, held.store().tid_of(m)));
                    }
                }
            }
        }
        for t in rows {
            let constant = cfds.iter().filter(|c| c.is_constant());
            for c in constant.filter(|c| c.constant_violation(&t)) {
                mark(c.id, t.tid);
            }
        }
        v
    }

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
        /// `[site]`: what its settle pass deferred.
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
            let (rows, dv) = (&mut self.rows[home], &mut self.dv);
            let opened = self.sites[home].begin(op, writes, rows, dv);
            if let Some((round, requests)) = opened.unwrap() {
                self.rounds[home].push(None);
                self.send(home, self.rounds[home].len() - 1, Some(round), requests);
            }
        }

        /// Deliver the oldest frame of the `src → dst` link.
        fn deliver(&mut self, src: SiteId, dst: SiteId) {
            let frame = self.links[src][dst].pop_front().expect("a frame in flight");
            let dv = &mut self.dv;
            match frame {
                Frame::Request(msg) => {
                    let rows = &self.rows[dst];
                    let reply = self.sites[dst].on_request(src, msg, rows, dv).unwrap();
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
                    let rows = &self.rows[dst];
                    let clears = round.map_or_else(Vec::new, |round| {
                        self.sites[dst].finish(round, rows, dv).unwrap()
                    });
                    if !clears.is_empty() {
                        self.send(dst, slot, None, clears);
                    }
                }
            }
        }

        /// `V` takes the `ΔV` recorded since the last commit, settled.
        fn commit(&mut self) {
            self.dv.settle();
            self.v.commit(&std::mem::take(&mut self.dv)).unwrap();
        }

        /// Run one wave to quiescence, then commit it. Each site begins
        /// its own ops in wave order (as a runner does); everything else —
        /// who begins next, which link delivers next — is `pick`'s choice
        /// among the `k` moves possible.
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
            self.commit();
        }

        /// One routed batch through the two-step schedule, by the
        /// runtime's own steps: every site's settle pass over its slice,
        /// the coordinator's placing of what they deferred, each site's
        /// wave order — then the waves, each to quiescence under `pick`.
        /// `after` sees the mesh after the settle passes (with the updates
        /// they applied) and after every wave (with the wave), each site's
        /// share in slice order.
        fn run_batch(
            &mut self,
            batch: &[(SiteId, Update)],
            mut pick: impl FnMut(usize) -> usize,
            mut after: impl FnMut(&Mesh, &[Step]),
        ) {
            let n = self.sites.len();
            let mut slices: Vec<Vec<&Update>> = (0..n).map(|_| Vec::new()).collect();
            batch.iter().for_each(|(home, op)| slices[*home].push(op));
            // Sites do not interact while they settle.
            let mut deferred = Vec::new();
            for (i, slice) in slices.iter().enumerate() {
                let (rows, dv, held) = (&mut self.rows[i], &mut self.dv, &mut self.held[i]);
                deferred.push(self.sites[i].settle(slice, rows, dv, held).unwrap());
            }
            self.commit();
            let cfg = self.sites[0].cfg().clone();
            let ops = batch.iter().map(|(home, op)| (*home, op));
            let schedule = WavePlanner::default().schedule(&cfg, ops, &deferred);
            let (n_waves, waves) = schedule.unwrap();
            let mut steps: Vec<Vec<Step>> = (0..=n_waves).map(|_| Vec::new()).collect();
            for (home, slice) in slices.iter().enumerate() {
                let mut listed = deferred[home].updates.iter().map(|d| d.0).peekable();
                for (pos, &op) in (0..).zip(slice) {
                    if listed.next_if_eq(&pos).is_none() {
                        steps[0].push((home, op.clone(), false));
                    }
                }
                let listed = &deferred[home].updates;
                let order = wave_order(home, listed, n_waves, &waves[home]).unwrap();
                for (w, pos, writes) in order {
                    let op = slice[pos as usize].clone();
                    steps[w as usize + 1].push((home, op, writes));
                }
            }
            after(self, &steps[0]);
            for wave in &steps[1..] {
                self.run_wave(wave, &mut pick);
                after(self, wave);
            }
        }

        fn snapshot(&self) -> Snapshot {
            Snapshot {
                marks: self.v.marks_sorted(),
                census: census(&self.sites),
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

    /// Delivery order is invisible, checked deterministically: what
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
    /// is why the matrix, not the frames, is compared.) The streams'
    /// batches mix deletes and inserts, so a row a delete frees is handed
    /// out again within its batch, at its site, under every order.
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
                        let empty = Relation::new(schema.clone());
                        simulated(cfds.clone(), scheme.clone(), &empty, codec).unwrap()
                    };
                    let snapshot = |seq: &HorizontalDetector| Snapshot {
                        marks: seq.violations().marks_sorted(),
                        census: seq.state_census(),
                        resident_symbols: seq.resident_symbols(),
                        stats: seq.meters().modeled.to_bytes(),
                    };
                    let (mut seq, mut whole) = (build(), build());
                    let mut pilot = Mesh::new(&cfg, codec);
                    let mut routed: Vec<Vec<(SiteId, Update)>> = Vec::new();
                    let mut steps: Vec<Vec<Step>> = Vec::new();
                    let mut want = Vec::new();
                    // Inserts that took, at their home, a row a delete of
                    // their own batch freed.
                    let mut reused = 0;
                    for batch in &batches {
                        let delta = batch.normalize(seq.current());
                        let home = |op: &Update| match op {
                            Update::Insert(t) => scheme.route(t).unwrap(),
                            Update::Delete(tid) => {
                                scheme.route(&seq.current().get(*tid).unwrap()).unwrap()
                            }
                        };
                        let ops = delta.ops().iter();
                        routed.push(ops.map(|op| (home(op), op.clone())).collect());
                        let ops = routed.last().expect("pushed");
                        let row = |mesh: &Mesh, home: SiteId, tid| mesh.rows[home].row_of(tid);
                        let freed: Vec<_> = (ops.iter())
                            .filter_map(|(home, op)| match op {
                                Update::Delete(tid) => Some((*home, row(&pilot, *home, *tid))),
                                Update::Insert(_) => None,
                            })
                            .collect();
                        pilot.run_batch(
                            ops,
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
                        reused += (ops.iter())
                            .filter_map(|(home, op)| match op {
                                Update::Insert(t) => Some((*home, row(&pilot, *home, t.tid))),
                                Update::Delete(_) => None,
                            })
                            .filter(|at| freed.contains(at))
                            .count();
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
                    assert!(
                        seq.meters().modeled.total_messages() > 0
                            && steps.len() > 2 * batches.len()
                    );
                    assert!(settled > 0 && count(|s| s.2) > 0, "{settled} settled steps");
                    assert!(reused > 0, "no row freed in a batch was reused in it");

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

    /// The one candidate producer is the per-rule scan it replaced: on
    /// stored rows and fresh tuples of TPCH, under the 8-rule catalog and
    /// under a mined 128-rule family whose rules share operators, the
    /// shared dispatch leaves in the scratch exactly what a `matches_lhs`
    /// scan over Σ derives — the matched constant CFDs, the matched
    /// variable ones by `(operator, id)`, and per key group the digest of
    /// each matched CFD's own LHS.
    #[test]
    fn candidates_are_the_per_cfd_scan() {
        use workload::family::{cfd_family, FamilyConfig};
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
        let rows: Vec<Tuple> = d0.iter().collect();
        let fresh = tpch::generate_fresh(&tcfg, 1_000_000, 200, 7);
        let family = FamilyConfig {
            n: 128,
            overlap: 0.9,
            seed: 0xCA7,
            ..FamilyConfig::default()
        };
        let scheme = HorizontalScheme::by_hash(schema.clone(), schema.key(), 4).unwrap();
        let catalogs = [
            rules::tpch_rules(&schema, 8, 1),
            cfd_family(&schema, &d0, &family),
        ];
        let mut pick = xorshift(0x5EED);
        for cfds in catalogs {
            let cfg = SiteConfig::new(schema.clone(), cfds.clone(), &scheme);
            let plan = &cfg.plan;
            let mut sx = OpScratch::default();
            let (mut vbuf, mut kbuf) = (Vec::new(), Vec::new());
            // How many constant and variable matches the tuples made, and
            // how many key digests served more than one matched CFD.
            let (mut n_consts, mut n_vars, mut n_shared) = (0, 0, 0);
            for i in 0..600 {
                let t = match i % 2 {
                    0 => &rows[pick(rows.len())],
                    _ => &fresh[pick(fresh.len())],
                };
                cfg.candidates(t, &mut sx);

                let (mut consts, mut vars) = (Vec::new(), Vec::new());
                let mut group_kd = vec![None; plan.key_groups().len()];
                let mut served = vec![0; plan.key_groups().len()];
                for cfd in cfds.iter().filter(|c| c.matches_lhs(t)) {
                    let Some(g) = plan.group_of(cfd.id) else {
                        consts.push(cfd.id);
                        continue;
                    };
                    let lhs = cfd.lhs.iter();
                    let digests = lhs.map(|&a| value_digest_into(t.get(a), &mut vbuf));
                    let kd = key_digest_from(digests, &mut kbuf);
                    assert!(
                        group_kd[g].is_none_or(|other| other == kd),
                        "one key per group"
                    );
                    group_kd[g] = Some(kd);
                    served[g] += 1;
                    vars.push(cfd.id);
                }
                vars.sort_unstable_by_key(|&c| (plan.operator_of(c), c));
                let at = format!("{} rules, tuple {}", cfds.len(), t.tid);
                assert_eq!(sx.consts, consts, "{at}: constant CFDs");
                assert_eq!(sx.vars, vars, "{at}: variable CFDs");
                assert_eq!(sx.group_kd, group_kd, "{at}: key digests");
                n_consts += consts.len();
                n_vars += vars.len();
                n_shared += served.iter().filter(|&&n| n > 1).count();
            }
            assert!(n_consts > 0 && n_vars > 0, "{n_consts} / {n_vars} matches");
            assert!(cfds.len() < 64 || n_shared > 0, "no key digest was shared");
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
        let (rows, dv) = (&mut mesh.rows[2], &mut mesh.dv);
        let opened = mesh.sites[2]
            .begin(&Update::Delete(5), true, rows, dv)
            .unwrap();
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
        let before = (mesh.dv.clone(), census(&mesh.sites));
        for (msg, needles) in forged {
            let (rows, dv) = (&mesh.rows[0], &mut mesh.dv);
            let err = message_of(mesh.sites[0].on_request(1, msg, rows, dv).unwrap_err());
            assert!(err.contains("1 → 0"), "{err}");
            assert!(needles.iter().all(|n| err.contains(n)), "{err}");
            assert_eq!((mesh.dv.clone(), census(&mesh.sites)), before, "{err}");
        }
        // An unknown or own site id is refused before the codec is asked.
        for src in [0, 3] {
            let (rows, dv) = (&mesh.rows[0], &mut mesh.dv);
            let err = mesh.sites[0].on_request(src, probe(vec![0]), rows, dv);
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
        let (rows, dv) = (&mut mesh.rows[2], &mut mesh.dv);
        let opened = mesh.sites[2]
            .begin(&Update::Insert(t), true, rows, dv)
            .unwrap();
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

    /// The same refusal end to end through the sequential driver: a frame
    /// forged onto the transport fails the `apply` that meets it with a
    /// typed error, and leaves every link idle; the process lives. A
    /// well-formed request that no round sent fails its batch too.
    #[test]
    fn forged_frame_fails_apply_with_a_typed_error() {
        let s = emp_schema();
        let mut det = simulated(fig1_cfds(&s), fig2_scheme(&s), &d0(), CodecKind::Md5).unwrap();
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
        assert_eq!(det.net.in_flight(), None);
        let stray = HorMsg::TupleDelQuery {
            attrs: vec![(4, WireValue::Raw(Value::str("EH4 8LE")))],
            queries: vec![],
        };
        det.net.send(0, 1, stray).unwrap();
        // t6 joins site 2's Crichton class: nothing ships.
        let mut delta = UpdateBatch::new();
        delta.insert(emp_tuple(6, "C", 44, 131, "EH4 8LE", "Crichton", "EDI"));
        let err = message_of(det.apply(&delta).unwrap_err());
        assert!(
            err.contains("link 0 → 1: TupleDelQuery of no open round"),
            "{err}"
        );
        assert_eq!(det.net.in_flight(), None);
    }

    #[test]
    fn orphaned_class_is_an_internal_error_not_a_null() {
        let s = emp_schema();
        let mut det = simulated(fig1_cfds(&s), fig2_scheme(&s), &d0(), CodecKind::Md5).unwrap();
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
    /// where, not a panic — with rounds in flight too — and the detector
    /// goes on serving.
    #[test]
    fn lost_group_is_an_internal_error_not_a_panic() {
        let s = emp_schema();
        let mut det = simulated(fig1_cfds(&s), fig2_scheme(&s), &d0(), CodecKind::Md5).unwrap();
        // t2 is alone in its group (zip EH2 4HF, site 0): drop the group
        // behind the machine's back.
        let t2 = det.current.row_of(2).unwrap();
        let holds_t2 = |g: &GroupState<Digest>| {
            let mut found = false;
            g.for_each_member(|m| found |= m == t2);
            found
        };
        det.sites[0].state[0].retain(|_, g| !holds_t2(g));
        let lost_t2 = |det: &mut HorizontalDetector, delta: &UpdateBatch| match det.apply(delta) {
            Err(DetectError::Internal(msg)) => {
                let named = ["site 0", "operator 0", "lost the group of tuple 2"];
                assert!(named.iter().all(|n| msg.contains(n)), "{msg}");
            }
            other => panic!("expected an internal error, got {other:?}"),
        };
        let mut delta = UpdateBatch::new();
        delta.delete(2);
        lost_t2(&mut det, &delta);
        // A group that is there but holds another class reads the same.
        let groups = det.sites[1].state[0].values_mut();
        let t3 = det.current.row_of(3).unwrap();
        groups.for_each(|g| *g = GroupState::new(Digest([9; 16]), t3));
        let mut delta = UpdateBatch::new();
        delta.delete(3);
        match det.apply(&delta) {
            Err(DetectError::Internal(msg)) => assert!(msg.contains("lost the RHS class"), "{msg}"),
            other => panic!("expected an internal error, got {other:?}"),
        }
        // The first delete again, behind a shipping insert of site 1 whose
        // round — a street of site 0's t12 clashes with it — is still in
        // flight when the delete fails: the round runs to its end, as the
        // blocking drive had run it before the delete began, and nothing is
        // left on a link for the next batch to fold into a round of its own.
        let mut delta = UpdateBatch::new();
        delta.insert(emp_tuple(12, "A", 44, 131, "EH6 6AA", "Leith", "EDI"));
        det.apply(&delta).unwrap();
        let mut delta = UpdateBatch::new();
        delta.insert(emp_tuple(10, "B", 44, 131, "EH6 6AA", "Foo", "EDI"));
        delta.delete(2);
        lost_t2(&mut det, &delta);
        assert_eq!(det.net.in_flight(), None);
        let v = det.violations();
        assert!(v.is_violation(10) && v.is_violation(12));
        // A batch that stays clear of the damage runs as ever, to the
        // oracle's V.
        let mut delta = UpdateBatch::new();
        delta.insert(emp_tuple(8, "C", 44, 131, "EH9 1ZZ", "Marchmont", "EDI"));
        delta.insert(emp_tuple(9, "A", 44, 131, "EH9 1ZZ", "Sciennes", "EDI"));
        assert_eq!(det.apply(&delta).unwrap().added_tids_sorted(), vec![8, 9]);
        let oracle = cfd::naive::detect(det.cfds(), det.current());
        assert_eq!(det.violations().marks_sorted(), oracle.marks_sorted());
    }
}
