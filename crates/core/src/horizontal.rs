//! Incremental detection over horizontal partitions (§6).
//!
//! Per site and per variable CFD, the detector keeps the group state of the
//! local tuples: for each pattern-matching `X`-value group, its distinct
//! RHS classes (each with member tids) plus one `violating` flag.
//!
//! **Invariant.** For a variable CFD, a tuple violates iff its *global*
//! group (across all sites) holds ≥ 2 distinct RHS values — so "violating"
//! is uniform per global group, and every site's flag for a group equals
//! that global fact. The insert/delete case analysis below maintains the
//! flags with the minimum communication:
//!
//! * inserts ship nothing when a local same-RHS witness or an
//!   already-violating group decides the outcome (the zero-shipment cases
//!   of Examples 2 and 9); a broadcast probe/query is needed only when a
//!   *new* conflict arises or the group is locally unknown;
//! * deletes ship nothing while a local witness keeps the group's RHS
//!   multiplicity ≥ 2; otherwise one query round (and possibly a targeted
//!   flag-clear round) resolves the global state.
//!
//! **One shipment per tuple** (§6 complexity analysis: *"each tuple in ΔD
//! is sent to other sites at most once"*): all per-CFD probes and queries
//! triggered by one update are coalesced into a single message per peer,
//! carrying the tuple's *per-attribute* payloads plus the list of CFD ids
//! concerned. How each attribute is encoded on the wire is delegated to
//! the session's [`cluster::codec::PayloadCodec`] — MD5 digests (§6's
//! optimization, the default), raw values (the unoptimized variant), or
//! dictionary symbols with one-time per-link deltas
//! ([`cluster::codec::DictSyms`]). Receivers derive every CFD's group key
//! from the attribute digests the codec resolves. Hence `O(n)` messages
//! per update regardless of `|Σ|`, and `O(|ΔD| + |ΔV|)` overall
//! (Proposition 8).
//!
//! **Local checkability.** Constant CFDs never ship (single-tuple checks).
//! A variable CFD ships nothing at site `i` when `X_{F_i} ⊆ X` (violating
//! pairs are co-located) and is skipped entirely at sites where
//! `F_i ∧ F_φ` is unsatisfiable.
//!
//! # State layout
//!
//! §6 keeps per site "the group's distinct RHS values and a flag"; the
//! containers below (`GroupState`, `ClassEntry`) cost bytes only
//! where a group has more structure than that. Each `(site, CFD)` owns
//! one `FxHashMap<Digest, GroupState>`; the nested
//! `FxHashMap<Digest, {FxHashMap<Digest, {FxHashSet<Tid>, Option<Value>}>, bool}>`
//! it replaces gave every group a heap table and every class a heap set
//! and a cloned RHS value:
//!
//! | per … | was | is |
//! |---|---|---|
//! | group (map slot) | 56 B + a class table of its own (≥ 308 B) | 64 B, holding the flag, one class digest and ≤ 3 tids; no allocation while one class of ≤ 3 members |
//! | class | 72 B slot (`ClassEntry` 56 B) + a tid table (≥ 52 B) + a `Value` clone | in the group slot, or a 48 B slot (`ClassEntry` 32 B) of the group's spilled class map |
//! | membership | ≥ 9 B of a heap table | 8 B inline up to 3 per class, ≈ 9 B in a boxed `FxHashSet` beyond |
//! | all in, per membership (`hor_wide_sigma`) | ≈ 140 B (≈ 160 MB) | ≈ 44 B (51.7 MB by [`StateCensus`]) |
//!
//! The thresholds come from `detbench`'s `hor_wide_sigma` (seed 1: 78 946
//! groups, 435 020 classes, 1 182 697 memberships). 74 022 groups (94 %)
//! hold exactly one class, so one class lives inline; but 1 180 groups
//! (1.5 %) hold 319 324 of the classes, 65–512 each, so beyond one the
//! classes are *hashed* (a flat `Vec` there cost 30 % of `updates_per_s`).
//! 272 386 classes (63 %) hold exactly one tid, so tids start inline; but
//! `hor_tcp_skew`'s Zipf classes reach 65–512 tids, so beyond three they
//! are a boxed set and removal stays `O(1)`. A class's RHS value is read
//! back from the site's own fragment through any member (`class_values`).
//! Removals demote (`Many → One`, set → inline) and tables give their
//! slack back under a quarter full, so the state follows deletes down as
//! well as inserts up; [`HorizontalDetector::state_census`] counts it.

use crate::detector::{DetectError, Detector};
use crate::md5::{md5, Digest};
use crate::optimize::SharingMode;
use cfd::{Cfd, CfdId, DeltaV, MatchScratch, SharedPlan, Violations};
use cluster::codec::{
    value_digest as attr_digest, value_digest_into as attr_digest_into, CodecKind, PayloadCodec,
    ReceiverCodec, WireValue,
};
use cluster::net::{bytes as wirefmt, ByteNetwork, FrameCodec, TransportKind};
use cluster::partition::HorizontalScheme;
use cluster::{ClusterError, MsgTransport, Network, SiteId, Wire};
use relation::{
    AttrId, FxHashMap, FxHashSet, RelError, Relation, Schema, Tid, Tuple, Update, UpdateBatch,
    Value,
};
use std::collections::hash_map::Entry;
use std::sync::Arc;

/// Group-key digest of a CFD's LHS: MD5 over the concatenated per-attribute
/// digests (in LHS order). Computable both from raw values and from shipped
/// attribute digests, which is what lets one message serve every CFD. The
/// key buffer is caller-supplied and reused across probes.
pub(crate) fn key_digest_from(
    attr_digests: impl IntoIterator<Item = Digest>,
    kbuf: &mut Vec<u8>,
) -> Digest {
    kbuf.clear();
    for d in attr_digests {
        kbuf.extend_from_slice(&d.0);
    }
    md5(kbuf)
}

/// Messages of the horizontal protocol. One `TupleProbe`/`TupleDelQuery`
/// carries *all* CFD work for one update — the tuple crosses each link at
/// most once. Every value payload is a [`WireValue`] produced by the
/// session's [`PayloadCodec`], so the same message shapes serve all three
/// encodings.
#[derive(Debug, Clone, PartialEq)]
pub enum HorMsg {
    /// Insert-side probe/query for one updated tuple. Receivers know `Σ`,
    /// so the CFDs to check are *implicit*: every variable CFD whose
    /// attributes are all present in the payload (and whose pattern the
    /// digests match) is processed. Only the rare `probes` (brand-new
    /// local conflicts, which force a flag flip even on agreeing remote
    /// classes) are listed explicitly.
    TupleProbe {
        /// Per-attribute payload for the union of attributes the involved
        /// CFDs need (attr id + digest/raw value).
        attrs: Vec<(AttrId, WireValue)>,
        /// CFDs whose group gained a brand-new conflict (flip flags).
        probes: Vec<CfdId>,
    },
    /// Reply to a [`HorMsg::TupleProbe`]: the CFD ids whose groups
    /// conflict with the inserted tuple at the replying site (sparse —
    /// non-listed CFDs don't conflict).
    ProbeReply {
        /// Conflicting CFD ids.
        conflicts: Vec<CfdId>,
    },
    /// Delete-side query: report your distinct RHS values per listed CFD.
    TupleDelQuery {
        /// Attribute payload (union of the listed CFDs' LHS attributes).
        attrs: Vec<(AttrId, WireValue)>,
        /// CFDs whose global multiplicity is in doubt.
        queries: Vec<CfdId>,
    },
    /// Reply to [`HorMsg::TupleDelQuery`].
    DelReply {
        /// Per CFD, the distinct local RHS values of the group.
        bvals: Vec<(CfdId, Vec<WireValue>)>,
    },
    /// The listed CFDs' groups no longer violate anywhere: clear flags.
    ClearFlags {
        /// Attribute payload for group-key derivation.
        attrs: Vec<(AttrId, WireValue)>,
        /// CFDs to clear.
        cfds: Vec<CfdId>,
    },
}

impl Wire for HorMsg {
    fn wire_size(&self) -> usize {
        let attrs_size = |attrs: &Vec<(AttrId, WireValue)>| {
            attrs.iter().map(|(_, a)| 2 + a.wire_size()).sum::<usize>()
        };
        match self {
            HorMsg::TupleProbe { attrs, probes } => 1 + attrs_size(attrs) + 4 * probes.len(),
            HorMsg::ProbeReply { conflicts } => 1 + 4 * conflicts.len(),
            HorMsg::TupleDelQuery { attrs, queries } => attrs_size(attrs) + 4 * queries.len(),
            HorMsg::DelReply { bvals } => bvals
                .iter()
                .map(|(_, vs)| 4 + vs.iter().map(WireValue::wire_size).sum::<usize>())
                .sum(),
            HorMsg::ClearFlags { attrs, cfds } => attrs_size(attrs) + 4 * cfds.len(),
        }
    }
}

// Frame tags of the five message shapes.
const HF_PROBE: u8 = 0;
const HF_PROBE_REPLY: u8 = 1;
const HF_DEL_QUERY: u8 = 2;
const HF_DEL_REPLY: u8 = 3;
const HF_CLEAR: u8 = 4;

/// Serialize `(attr, payload)` pairs; returns structural overhead (the
/// 2-byte count plus each payload's tag bytes — attr ids themselves are
/// modeled at 2 B).
fn put_attrs(out: &mut Vec<u8>, attrs: &[(AttrId, WireValue)]) -> usize {
    let mut ovh = 2;
    out.extend_from_slice(&(attrs.len() as u16).to_le_bytes());
    for (a, w) in attrs {
        out.extend_from_slice(&a.to_le_bytes());
        ovh += wirefmt::put_wire_value(out, w);
    }
    ovh
}

fn get_attrs(r: &mut wirefmt::Reader<'_>) -> Result<Vec<(AttrId, WireValue)>, ClusterError> {
    let n = r.u16()? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let a = r.u16()? as AttrId;
        out.push((a, wirefmt::get_wire_value(r)?));
    }
    Ok(out)
}

/// Serialize a CFD-id list; overhead is the 2-byte count (ids are
/// modeled at 4 B each).
fn put_cfds(out: &mut Vec<u8>, cfds: &[CfdId]) -> usize {
    out.extend_from_slice(&(cfds.len() as u16).to_le_bytes());
    for c in cfds {
        out.extend_from_slice(&c.to_le_bytes());
    }
    2
}

fn get_cfds(r: &mut wirefmt::Reader<'_>) -> Result<Vec<CfdId>, ClusterError> {
    let n = r.u16()? as usize;
    (0..n).map(|_| Ok(r.u32()? as CfdId)).collect()
}

/// Real byte framing for the §6 protocol: every [`HorMsg`] serializes to
/// a self-describing frame body and decodes from received bytes alone.
/// The structural overhead (returned by `encode_frame`) is the message
/// tag, the item counts and the per-payload type tags — everything the
/// `|M|` model of [`Wire::wire_size`] deliberately ignores. The probe
/// and probe-reply shapes already model 1 byte of framing (their leading
/// tag), so their tag contributes no overhead.
impl FrameCodec for HorMsg {
    fn encode_frame(&self, out: &mut Vec<u8>) -> usize {
        match self {
            HorMsg::TupleProbe { attrs, probes } => {
                out.push(HF_PROBE); // modeled: wire_size counts this byte
                put_attrs(out, attrs) + put_cfds(out, probes)
            }
            HorMsg::ProbeReply { conflicts } => {
                out.push(HF_PROBE_REPLY); // modeled
                put_cfds(out, conflicts)
            }
            HorMsg::TupleDelQuery { attrs, queries } => {
                out.push(HF_DEL_QUERY);
                1 + put_attrs(out, attrs) + put_cfds(out, queries)
            }
            HorMsg::DelReply { bvals } => {
                out.push(HF_DEL_REPLY);
                out.extend_from_slice(&(bvals.len() as u16).to_le_bytes());
                let mut ovh = 1 + 2;
                for (c, vs) in bvals {
                    out.extend_from_slice(&c.to_le_bytes());
                    out.extend_from_slice(&(vs.len() as u16).to_le_bytes());
                    ovh += 2;
                    for v in vs {
                        ovh += wirefmt::put_wire_value(out, v);
                    }
                }
                ovh
            }
            HorMsg::ClearFlags { attrs, cfds } => {
                out.push(HF_CLEAR);
                1 + put_attrs(out, attrs) + put_cfds(out, cfds)
            }
        }
    }

    fn decode_frame(body: &[u8]) -> Result<Self, ClusterError> {
        let mut r = wirefmt::Reader::new(body);
        let msg = match r.u8()? {
            HF_PROBE => HorMsg::TupleProbe {
                attrs: get_attrs(&mut r)?,
                probes: get_cfds(&mut r)?,
            },
            HF_PROBE_REPLY => HorMsg::ProbeReply {
                conflicts: get_cfds(&mut r)?,
            },
            HF_DEL_QUERY => HorMsg::TupleDelQuery {
                attrs: get_attrs(&mut r)?,
                queries: get_cfds(&mut r)?,
            },
            HF_DEL_REPLY => {
                let n = r.u16()? as usize;
                let mut bvals = Vec::with_capacity(n);
                for _ in 0..n {
                    let c = r.u32()? as CfdId;
                    let k = r.u16()? as usize;
                    let mut vs = Vec::with_capacity(k);
                    for _ in 0..k {
                        vs.push(wirefmt::get_wire_value(&mut r)?);
                    }
                    bvals.push((c, vs));
                }
                HorMsg::DelReply { bvals }
            }
            HF_CLEAR => HorMsg::ClearFlags {
                attrs: get_attrs(&mut r)?,
                cfds: get_cfds(&mut r)?,
            },
            _ => {
                return Err(ClusterError::Transport(
                    "unknown horizontal-protocol message tag".into(),
                ))
            }
        };
        r.finish()?;
        Ok(msg)
    }
}

/// Per-`[cfd][op]` precomputed `(group-key digest, RHS digest)` pairs for
/// a batch — `None` where the op's tuple does not fall under the CFD.
type PreDigests = Vec<Vec<Option<(Digest, Digest)>>>;

/// Give a hash table's slack back once removals leave it under a quarter
/// full. Amortised: the ≥ ¾·capacity removals before a shrink pay for it,
/// and the shrunk table is over a quarter full, so growth and shrinkage
/// cannot alternate op by op.
macro_rules! shrink_if_sparse {
    ($table:expr) => {
        if $table.len() * 4 < $table.capacity() {
            $table.shrink_to($table.len());
        }
    };
}

/// Member tids a class keeps inline before spilling to a boxed set.
const INLINE_TIDS: usize = 3;

/// The member tids of one RHS class within a group at one site: up to
/// [`INLINE_TIDS`] inline, a boxed hash set beyond (Zipf-keyed classes
/// reach hundreds of members, and removal must stay `O(1)` there). The
/// layout is a function of the members alone — removals demote — and the
/// class's RHS *value* is not kept: any member's row in the site's own
/// fragment has it ([`class_values`]).
#[derive(Debug)]
pub(crate) enum ClassEntry {
    Inline { len: u8, tids: [Tid; INLINE_TIDS] },
    Spilled(Box<FxHashSet<Tid>>),
}

impl ClassEntry {
    /// The class holding just `tid`.
    fn of(tid: Tid) -> Self {
        let mut tids = [0; INLINE_TIDS];
        tids[0] = tid;
        ClassEntry::Inline { len: 1, tids }
    }

    fn insert(&mut self, tid: Tid) {
        match self {
            ClassEntry::Inline { len, tids } => {
                let n = usize::from(*len);
                if tids[..n].contains(&tid) {
                    return;
                }
                if n < INLINE_TIDS {
                    tids[n] = tid;
                    *len += 1;
                } else {
                    let set = tids.iter().copied().chain([tid]).collect();
                    *self = ClassEntry::Spilled(Box::new(set));
                }
            }
            ClassEntry::Spilled(set) => {
                set.insert(tid);
            }
        }
    }

    fn remove(&mut self, tid: Tid) {
        match self {
            ClassEntry::Inline { len, tids } => {
                let n = usize::from(*len);
                if let Some(i) = tids[..n].iter().position(|&t| t == tid) {
                    tids[i] = tids[n - 1];
                    *len -= 1;
                }
            }
            ClassEntry::Spilled(set) => {
                set.remove(&tid);
                if set.len() <= INLINE_TIDS {
                    let mut tids = [0; INLINE_TIDS];
                    for (slot, &t) in tids.iter_mut().zip(set.iter()) {
                        *slot = t;
                    }
                    let len = set.len() as u8;
                    *self = ClassEntry::Inline { len, tids };
                } else {
                    shrink_if_sparse!(set);
                }
            }
        }
    }

    fn members(&self) -> Members<'_> {
        match self {
            ClassEntry::Inline { len, tids } => Members::Inline(&tids[..usize::from(*len)]),
            ClassEntry::Spilled(set) => Members::Spilled(set),
        }
    }
}

/// Borrowed view of one class's member tids, however they are stored.
#[derive(Clone, Copy)]
pub(crate) enum Members<'a> {
    Inline(&'a [Tid]),
    Spilled(&'a FxHashSet<Tid>),
}

impl Members<'_> {
    fn len(self) -> usize {
        match self {
            Members::Inline(tids) => tids.len(),
            Members::Spilled(set) => set.len(),
        }
    }

    fn first(self) -> Option<Tid> {
        match self {
            Members::Inline(tids) => tids.first().copied(),
            Members::Spilled(set) => set.iter().next().copied(),
        }
    }

    fn for_each(self, f: impl FnMut(Tid)) {
        match self {
            Members::Inline(tids) => tids.iter().copied().for_each(f),
            Members::Spilled(set) => set.iter().copied().for_each(f),
        }
    }
}

/// Per-site, per-CFD state of one `X`-value group: its RHS classes and
/// whether the *global* group violates (uniform across sites). One class
/// lives inline — `Few`/`One` are a [`ClassEntry`] flattened next to its
/// digest and the flag, so a satisfied group allocates nothing and a map
/// slot is 64 B — and a hashed spill takes over from the second class.
/// The layout is canonical: `Many` holds ≥ 2 classes and removals demote,
/// so state follows the data down as well as up.
#[derive(Debug)]
pub(crate) enum GroupState {
    Few {
        violating: bool,
        len: u8,
        bd: Digest,
        tids: [Tid; INLINE_TIDS],
    },
    One {
        violating: bool,
        bd: Digest,
        tids: Box<FxHashSet<Tid>>,
    },
    Many {
        violating: bool,
        classes: Box<FxHashMap<Digest, ClassEntry>>,
    },
}

impl GroupState {
    /// A new, satisfied group holding `tid` in class `bd`.
    pub(crate) fn new(bd: Digest, tid: Tid) -> Self {
        Self::single(false, bd, ClassEntry::of(tid))
    }

    /// The group of one class.
    fn single(violating: bool, bd: Digest, class: ClassEntry) -> Self {
        match class {
            ClassEntry::Inline { len, tids } => GroupState::Few {
                violating,
                len,
                bd,
                tids,
            },
            ClassEntry::Spilled(tids) => GroupState::One {
                violating,
                bd,
                tids,
            },
        }
    }

    /// Move the class of a single-class group out; the caller writes the
    /// group back.
    fn take_single(&mut self) -> (Digest, ClassEntry) {
        let hole = Self::single(false, Digest([0; 16]), ClassEntry::of(0));
        match std::mem::replace(self, hole) {
            GroupState::Few { bd, len, tids, .. } => (bd, ClassEntry::Inline { len, tids }),
            GroupState::One { bd, tids, .. } => (bd, ClassEntry::Spilled(tids)),
            GroupState::Many { .. } => unreachable!("callers handle Many first"),
        }
    }

    pub(crate) fn violating(&self) -> bool {
        match self {
            GroupState::Few { violating, .. }
            | GroupState::One { violating, .. }
            | GroupState::Many { violating, .. } => *violating,
        }
    }

    pub(crate) fn set_violating(&mut self, v: bool) {
        match self {
            GroupState::Few { violating, .. }
            | GroupState::One { violating, .. }
            | GroupState::Many { violating, .. } => *violating = v,
        }
    }

    /// Does the group hold a class other than `bd`?
    pub(crate) fn has_other(&self, bd: Digest) -> bool {
        match self {
            GroupState::Few { bd: b, .. } | GroupState::One { bd: b, .. } => *b != bd,
            GroupState::Many { .. } => true,
        }
    }

    /// Add `tid` to class `bd`, creating the class if need be.
    pub(crate) fn insert(&mut self, bd: Digest, tid: Tid) {
        if let GroupState::Many { classes, .. } = self {
            match classes.entry(bd) {
                Entry::Occupied(e) => e.into_mut().insert(tid),
                Entry::Vacant(e) => {
                    e.insert(ClassEntry::of(tid));
                }
            }
            return;
        }
        let violating = self.violating();
        let (b, mut class) = self.take_single();
        *self = if b == bd {
            class.insert(tid);
            Self::single(violating, b, class)
        } else {
            // A second class arrives: the inline one moves into the spill.
            let classes = [(b, class), (bd, ClassEntry::of(tid))];
            GroupState::Many {
                violating,
                classes: Box::new(classes.into_iter().collect()),
            }
        };
    }

    /// Remove `tid` from class `bd`: `(class now empty, classes left)`, or
    /// `None` when the group has no such class. A group left with no
    /// class is the caller's to drop.
    pub(crate) fn remove(&mut self, bd: Digest, tid: Tid) -> Option<(bool, usize)> {
        let violating = self.violating();
        if let GroupState::Many { classes, .. } = self {
            let class = classes.get_mut(&bd)?;
            class.remove(tid);
            let class_empty = class.members().len() == 0;
            if class_empty {
                classes.remove(&bd);
            }
            let left = classes.len();
            if left == 1 {
                let (b, last) = classes.drain().next().expect("one class left");
                *self = Self::single(violating, b, last);
            } else {
                shrink_if_sparse!(classes);
            }
            return Some((class_empty, left));
        }
        let (b, mut class) = self.take_single();
        if b == bd {
            class.remove(tid);
        }
        let left = usize::from(class.members().len() > 0);
        *self = Self::single(violating, b, class);
        (b == bd).then_some((left == 0, left))
    }

    /// Every class: its RHS digest and its members.
    pub(crate) fn for_each_class(&self, mut f: impl FnMut(Digest, Members<'_>)) {
        match self {
            GroupState::Few { len, bd, tids, .. } => {
                f(*bd, Members::Inline(&tids[..usize::from(*len)]));
            }
            GroupState::One { bd, tids, .. } => f(*bd, Members::Spilled(tids)),
            GroupState::Many { classes, .. } => {
                classes.iter().for_each(|(bd, c)| f(*bd, c.members()));
            }
        }
    }

    /// Every member tid, class by class.
    pub(crate) fn for_each_member(&self, mut f: impl FnMut(Tid)) {
        self.for_each_class(|_, members| members.for_each(&mut f));
    }
}

/// The §6 insertion case analysis at one site for one variable CFD whose
/// pattern matches the inserted tuple `tid`, given its group-key and RHS
/// digests. Every runtime and evaluation mode funnels here, so the state
/// transitions (and the probe/query lists that drive shipping) are
/// identical by construction.
#[allow(clippy::too_many_arguments)]
pub(crate) fn insert_case(
    groups: &mut FxHashMap<Digest, GroupState>,
    (v, dv): (&mut Violations, &mut DeltaV),
    cfd: CfdId,
    tid: Tid,
    (kd, bd): (Digest, Digest),
    local_only: bool,
    probes: &mut Vec<CfdId>,
    queries: &mut Vec<CfdId>,
) {
    match groups.entry(kd) {
        Entry::Vacant(e) => {
            // Group unknown locally.
            e.insert(GroupState::new(bd, tid));
            if !local_only {
                queries.push(cfd);
            }
        }
        Entry::Occupied(e) => {
            let g = e.into_mut();
            let (has_other, was_violating) = (g.has_other(bd), g.violating());
            g.insert(bd, tid);
            if was_violating {
                // Everyone concerned is already in V (≥ 2 classes, or a
                // known remote conflict): only t is new. Zero shipment —
                // Examples 2(1)(b)/9.
                if v.add(cfd, tid) {
                    dv.add(cfd, tid);
                }
            } else if has_other {
                // One clashing class and the group was satisfied: a
                // brand-new conflict. Everyone in the group joins V.
                mark_group(g, cfd, v, dv);
                if !local_only {
                    probes.push(cfd);
                }
            }
            // else: a satisfied single class agreeing with t.
        }
    }
}

/// The §6 deletion case analysis at one site for one variable CFD whose
/// pattern matches the deleted tuple `tid`, given its group-key and RHS
/// digests.
pub(crate) fn delete_case(
    groups: &mut FxHashMap<Digest, GroupState>,
    (v, dv): (&mut Violations, &mut DeltaV),
    cfd: CfdId,
    tid: Tid,
    (kd, bd): (Digest, Digest),
    local_only: bool,
    queries: &mut Vec<CfdId>,
) {
    let g = groups
        .get_mut(&kd)
        .expect("deleted tuple's group must exist");
    let was_violating = g.violating();
    let (class_empty, n_rem) = g.remove(bd, tid).expect("deleted tuple's class must exist");
    if n_rem == 0 {
        // An empty group carries no information — future inserts will
        // re-query — so it is dropped, and with it the map's slack once
        // deletes dominate: state stays proportional to the live fragment.
        groups.remove(&kd);
        shrink_if_sparse!(groups);
    }
    if !was_violating {
        return; // deletions never create violations
    }
    // t was a violation; it leaves V in every remaining case.
    if v.remove(cfd, tid) {
        dv.remove(cfd, tid);
    }
    if !class_empty || n_rem >= 2 {
        // Same-RHS witness survives or ≥2 local RHS values remain: global
        // multiplicity still ≥ 2. Zero shipment — Example 2(2).
        return;
    }
    if local_only {
        // Global = local: the group dropped to ≤ 1 RHS value.
        clear_group(groups, cfd, kd, v, dv);
        return;
    }
    queries.push(cfd);
}

/// Clear the violating flag of a local group (if the site still holds
/// it), removing its members from V.
pub(crate) fn clear_group(
    groups: &mut FxHashMap<Digest, GroupState>,
    cfd: CfdId,
    kd: Digest,
    v: &mut Violations,
    dv: &mut DeltaV,
) {
    if let Some(g) = groups.get_mut(&kd) {
        g.set_violating(false);
        g.for_each_member(|m| {
            if v.remove(cfd, m) {
                dv.remove(cfd, m);
            }
        });
    }
}

/// Raise a group's flag: every member joins `V(φ)`.
pub(crate) fn mark_group(g: &mut GroupState, cfd: CfdId, v: &mut Violations, dv: &mut DeltaV) {
    g.set_violating(true);
    g.for_each_member(|m| {
        if v.add(cfd, m) {
            dv.add(cfd, m);
        }
    });
}

/// The `DelReply` payload of one group at `site`: each class's RHS value,
/// read from the site's own fragment through a member's row. Both
/// runtimes store an inserted row *before* they touch group state, so a
/// class always has a member to read; one that has none means the state
/// contradicts the fragment, and the error text says where.
pub(crate) fn class_values(
    g: &GroupState,
    fragment: &Relation,
    (site, cfd, kd): (SiteId, &Cfd, Digest),
    mut encode: impl FnMut(&Value) -> WireValue,
) -> Result<Vec<WireValue>, String> {
    let mut vals = Vec::new();
    let mut orphan = false;
    g.for_each_class(|_, members| {
        match members
            .first()
            .and_then(|tid| fragment.value_at(tid, cfd.rhs))
        {
            Some(v) => vals.push(encode(v)),
            None => orphan = true,
        }
    });
    if orphan {
        return Err(format!(
            "site {site}: a class of CFD {} group {} has no member in the fragment",
            cfd.id,
            kd.to_hex()
        ));
    }
    Ok(vals)
}

/// The attributes a coalesced message carries, sorted: the LHS of every
/// listed CFD, plus the RHS of the `with_rhs` ones.
pub(crate) fn wire_attrs(
    out: &mut Vec<AttrId>,
    cfds: &[Cfd],
    lhs_only: &[CfdId],
    with_rhs: &[CfdId],
) {
    out.clear();
    for &c in lhs_only.iter().chain(with_rhs) {
        out.extend_from_slice(&cfds[c as usize].lhs);
    }
    out.extend(with_rhs.iter().map(|&c| cfds[c as usize].rhs));
    out.sort_unstable();
    out.dedup();
}

/// What the §6 group state holds and what it costs: a census over every
/// `(site, CFD)` map, `O(state)` when asked for and free otherwise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StateCensus {
    /// Live `(site, CFD, X-value)` groups.
    pub groups: usize,
    /// RHS classes over all groups.
    pub classes: usize,
    /// `(CFD, tid)` memberships over all classes.
    pub memberships: usize,
    /// Groups whose classes spilled to a hashed map (≥ 2 classes).
    pub spilled_class_maps: usize,
    /// Classes whose tids spilled to a boxed set (> 3 members).
    pub spilled_tid_sets: usize,
    /// Heap bytes of the group maps and every spill, from capacities.
    pub resident_bytes: usize,
}

/// Heap bytes of a hash table with room for `capacity` entries of `T`:
/// power-of-two buckets at 7/8 load, one control byte each plus a group.
fn table_bytes<T>(capacity: usize) -> usize {
    if capacity == 0 {
        return 0;
    }
    let buckets = (capacity * 8).div_ceil(7).next_power_of_two();
    buckets * (std::mem::size_of::<T>() + 1) + 16
}

impl StateCensus {
    /// Add one `(site, CFD)` group map.
    pub(crate) fn count(&mut self, map: &FxHashMap<Digest, GroupState>) {
        self.groups += map.len();
        self.resident_bytes += table_bytes::<(Digest, GroupState)>(map.capacity());
        for g in map.values() {
            if let GroupState::Many { classes, .. } = g {
                self.spilled_class_maps += 1;
                self.resident_bytes += std::mem::size_of::<FxHashMap<Digest, ClassEntry>>()
                    + table_bytes::<(Digest, ClassEntry)>(classes.capacity());
            }
            g.for_each_class(|_, members| {
                self.classes += 1;
                self.memberships += members.len();
                if let Members::Spilled(set) = members {
                    self.spilled_tid_sets += 1;
                    self.resident_bytes +=
                        std::mem::size_of::<FxHashSet<Tid>>() + table_bytes::<Tid>(set.capacity());
                }
            });
        }
    }
}

/// Per-update scratch the detector owns: cleared, not rebuilt, per op.
#[derive(Default)]
struct OpScratch {
    /// Shared-plan dispatch scratch (generation-stamped counters).
    dispatch: MatchScratch,
    /// Value bytes / key bytes of the digest being computed.
    vbuf: Vec<u8>,
    kbuf: Vec<u8>,
    /// This update's attribute digests and per-key-group key digests.
    attr_d: FxHashMap<AttrId, Digest>,
    group_kd: Vec<Option<Digest>>,
    /// CFDs needing a probe / a query round for this update.
    probes: Vec<CfdId>,
    queries: Vec<CfdId>,
    /// Attributes and peers of the coalesced message being shipped.
    attrs: Vec<AttrId>,
    peers: Vec<SiteId>,
    /// Receiver side: the digests and explicit probes of one message.
    rx_digests: FxHashMap<AttrId, Digest>,
    probe_set: FxHashSet<CfdId>,
    /// Sender side: CFDs some peer reported a conflict for.
    conflicting: FxHashSet<CfdId>,
}

impl OpScratch {
    /// Reset for the next update under a plan with `key_groups` groups.
    fn begin(&mut self, key_groups: usize) {
        self.attr_d.clear();
        self.group_kd.clear();
        self.group_kd.resize(key_groups, None);
        self.probes.clear();
        self.queries.clear();
    }
}

/// Errors from the horizontal detector.
#[derive(Debug)]
pub enum HorizontalError {
    /// Underlying relational error.
    Rel(RelError),
    /// Underlying cluster error.
    Cluster(ClusterError),
    /// Maintained state contradicted itself (a bug in this library).
    Internal(String),
}

impl std::fmt::Display for HorizontalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HorizontalError::Rel(e) => write!(f, "{e}"),
            HorizontalError::Cluster(e) => write!(f, "{e}"),
            HorizontalError::Internal(msg) => write!(f, "internal inconsistency: {msg}"),
        }
    }
}

impl std::error::Error for HorizontalError {}

impl From<RelError> for HorizontalError {
    fn from(e: RelError) -> Self {
        HorizontalError::Rel(e)
    }
}

impl From<ClusterError> for HorizontalError {
    fn from(e: ClusterError) -> Self {
        HorizontalError::Cluster(e)
    }
}

/// The incremental violation detector for horizontally partitioned data.
pub struct HorizontalDetector {
    schema: Arc<Schema>,
    cfds: Arc<[Cfd]>,
    /// Per CFD: digests of the LHS constant atoms (pattern checks on
    /// shipped payloads without re-hashing constants).
    atom_digests: Arc<[Vec<(AttrId, Digest)>]>,
    /// Variable CFDs grouped by identical LHS attribute list, so receivers
    /// compute one group-key digest per distinct LHS rather than per CFD.
    /// Derived from the shared plan's key groups.
    lhs_groups: Arc<[(Vec<AttrId>, Vec<CfdId>)]>,
    /// The merged multi-CFD evaluation plan: one dispatch scan decides
    /// LHS matching for the whole rule set, one key-group digest serves
    /// every CFD with the same `GroupBy` operator ([`cfd::SharedPlan`]).
    plan: Arc<SharedPlan>,
    /// Per-update scratch (dispatch counters, digest caches, the lists
    /// and sets of the message being shipped).
    scratch: OpScratch,
    /// Sender-side multi-CFD evaluation mode: shared plan (default) or
    /// the legacy per-CFD loop (kept as a differential baseline).
    sharing: SharingMode,
    scheme: HorizontalScheme,
    fragments: Vec<Relation>,
    /// Which fragment holds each live tuple.
    site_of_tid: FxHashMap<Tid, SiteId>,
    /// Group state, indexed `[site][cfd]` (empty maps for constant CFDs).
    state: Vec<Vec<FxHashMap<Digest, GroupState>>>,
    /// Mirror of the logical relation (union of fragments).
    current: Relation,
    violations: Violations,
    /// The substrate protocol rounds ride on: the simulated metered
    /// [`Network`] or a real [`ByteNetwork`] (framed in-process channels
    /// or TCP sockets) that serializes every [`HorMsg`] to bytes.
    net: Box<dyn MsgTransport<HorMsg>>,
    transport: TransportKind,
    /// Sender-side payload encoding for every shipped value (per-link
    /// state lives in the codec — e.g. [`cluster::codec::DictSyms`]
    /// dictionary residency).
    codec: Box<dyn PayloadCodec>,
    /// Receiver-side codec state, `[receiving site][sending site]`: link
    /// dictionaries built **only from received payloads** (deltas), so
    /// digests derive from what actually crossed the wire — the codec
    /// state machine split the real transport requires.
    rx_codecs: Vec<Vec<ReceiverCodec>>,
    /// `local_ok[cfd][site]`: `X_{F_i} ⊆ X` — no cross-site conflicts.
    local_ok: Vec<Vec<bool>>,
    /// `relevant[cfd]`: sites where `F_i ∧ F_φ` is satisfiable.
    relevant: Vec<Vec<SiteId>>,
}

impl HorizontalDetector {
    /// Build a detector over `d` with the default §6 MD5 digest codec.
    pub fn new(
        schema: Arc<Schema>,
        cfds: Vec<Cfd>,
        scheme: HorizontalScheme,
        d: &Relation,
    ) -> Result<Self, DetectError> {
        Self::with_codec(schema, cfds, scheme, d, CodecKind::Md5)
    }

    /// Build with an explicit payload codec: [`CodecKind::Md5`] (the §6
    /// optimization), [`CodecKind::RawValues`] (the unoptimized variant),
    /// [`CodecKind::Dict`] (symbols on the wire, one-time per-link
    /// dictionary deltas), or [`CodecKind::Lz`] (raw values with
    /// per-frame LZ compression on byte transports). Runs on the
    /// simulated network; see [`HorizontalDetector::with_session`] for
    /// real byte transports.
    pub fn with_codec(
        schema: Arc<Schema>,
        cfds: Vec<Cfd>,
        scheme: HorizontalScheme,
        d: &Relation,
        codec: CodecKind,
    ) -> Result<Self, DetectError> {
        Self::with_session(schema, cfds, scheme, d, codec, TransportKind::Simulated)
    }

    /// Build a full session: payload codec **and** transport substrate.
    /// With [`TransportKind::Framed`] or [`TransportKind::Tcp`] every
    /// protocol message is serialized to a length-prefixed byte frame,
    /// shipped through the chosen link (in-process channel or localhost
    /// socket), and decoded at the receiving site from the bytes alone;
    /// the detector then meters modeled `|M|` and measured on-wire bytes
    /// side by side ([`HorizontalDetector::wire_stats`]).
    pub fn with_session(
        schema: Arc<Schema>,
        cfds: Vec<Cfd>,
        scheme: HorizontalScheme,
        d: &Relation,
        codec: CodecKind,
        transport: TransportKind,
    ) -> Result<Self, DetectError> {
        let n = scheme.n_sites();
        let net: Box<dyn MsgTransport<HorMsg>> = match transport {
            TransportKind::Simulated => Box::new(Network::new(n)),
            TransportKind::Framed => {
                Box::new(ByteNetwork::in_memory(n).with_compression(codec.compression()))
            }
            TransportKind::Tcp => Box::new(
                ByteNetwork::tcp_localhost(n)
                    .map_err(DetectError::Cluster)?
                    .with_compression(codec.compression()),
            ),
        };
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
        let lhs_groups: Arc<[(Vec<AttrId>, Vec<CfdId>)]> = plan.key_groups().to_vec().into();
        let cfds: Arc<[Cfd]> = cfds.into();
        let mut det = HorizontalDetector {
            fragments: (0..n).map(|_| Relation::new(schema.clone())).collect(),
            site_of_tid: FxHashMap::default(),
            state: (0..n)
                .map(|_| (0..cfds.len()).map(|_| FxHashMap::default()).collect())
                .collect(),
            current: Relation::new(schema.clone()),
            violations: Violations::new(cfds.len()),
            net,
            transport,
            codec: codec.codec(),
            rx_codecs: (0..n)
                .map(|dst| {
                    (0..n)
                        .map(|src| ReceiverCodec::for_link(src, dst))
                        .collect()
                })
                .collect(),
            local_ok,
            relevant,
            schema,
            cfds,
            atom_digests,
            lhs_groups,
            plan,
            scratch: OpScratch::default(),
            sharing: SharingMode::default(),
            scheme,
        };
        crate::detector::ingest(d, |window| det.apply(window))?;
        det.net.reset_stats();
        Ok(det)
    }

    /// Current violation set `V(Σ, D)`.
    pub fn violations(&self) -> &Violations {
        &self.violations
    }

    /// The payload codec this session ships values with.
    pub fn codec_kind(&self) -> CodecKind {
        self.codec.kind()
    }

    /// The transport substrate this session runs on.
    pub fn transport_kind(&self) -> TransportKind {
        self.transport
    }

    /// Network statistics since construction (or last reset).
    pub fn stats(&self) -> &cluster::NetStats {
        self.net.stats()
    }

    /// Measured on-wire statistics (frames, actual bytes including
    /// framing), when the session runs over a real byte transport.
    pub fn wire_stats(&self) -> Option<&cluster::NetStats> {
        self.net.wire_stats()
    }

    /// Whole-run transport counters (frames, wire/modeled/structural/
    /// saved bytes), when the session runs over a real byte transport.
    pub fn transport_meter(&self) -> Option<cluster::TransportMeter> {
        self.net.transport_meter()
    }

    /// Reset network statistics.
    pub fn reset_stats(&mut self) {
        self.net.reset_stats();
    }

    /// The rule set.
    pub fn cfds(&self) -> &[Cfd] {
        &self.cfds
    }

    /// The merged multi-CFD evaluation plan.
    pub fn shared_plan(&self) -> &Arc<SharedPlan> {
        &self.plan
    }

    /// Current multi-CFD evaluation mode.
    pub fn sharing_mode(&self) -> SharingMode {
        self.sharing
    }

    /// Select the multi-CFD evaluation mode. Both modes produce
    /// bit-identical violations, `ΔV` and shipments — [`SharingMode::PerCfd`]
    /// only re-enables the legacy `O(|Σ| · |X|)` loop as a baseline.
    pub fn set_sharing(&mut self, mode: SharingMode) {
        self.sharing = mode;
    }

    /// The global schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The mirror of the logical relation.
    pub fn current(&self) -> &Relation {
        &self.current
    }

    /// Fragment relation at `site`.
    pub fn fragment(&self, site: SiteId) -> &Relation {
        &self.fragments[site]
    }

    /// Apply a batch update `ΔD`, returning `ΔV` — algorithm `incHor`.
    ///
    /// For large batches the per-CFD MD5 work (group-key and RHS digests
    /// of every op, for every matching variable CFD) is precomputed on
    /// scoped threads — the per-CFD loop's dominant CPU cost fans out the
    /// way the batch baselines' per-CFD checks already do — and the
    /// protocol itself then replays serially, so message counts and `|M|`
    /// are identical to a sequential run.
    pub fn apply(&mut self, delta: &UpdateBatch) -> Result<DeltaV, DetectError> {
        let delta = delta.normalize(&self.current);
        let pre = self.precompute_digests(&delta);
        let mut dv = DeltaV::default();
        for (i, op) in delta.ops().iter().enumerate() {
            let pre_op = pre.as_ref().map(|p| (p, i));
            match op {
                Update::Insert(t) => self.insert_one(t.clone(), &mut dv, pre_op)?,
                Update::Delete(tid) => self.delete_one(*tid, &mut dv, pre_op)?,
            }
        }
        debug_assert!(self.net.quiescent(), "protocol rounds must complete");
        dv.settle();
        Ok(dv)
    }

    // ------------------------------------------------------------------
    // Digest helpers
    // ------------------------------------------------------------------

    /// Per-`[cfd][op]` precomputed `(group-key digest, RHS digest)` for
    /// variable CFDs whose pattern the op's tuple matches (`None`
    /// otherwise, and everywhere for constant CFDs). Deletion digests read
    /// the store's borrowed values — normalization guarantees every
    /// deleted tid is live in the pre-batch relation. Returns `None`
    /// (compute inline) below the parallel threshold, and always under
    /// [`SharingMode::Shared`]: the shared dispatch pass hashes each
    /// attribute once per update instead of once per CFD, so the per-CFD
    /// fan-out this precompute parallelizes no longer exists.
    fn precompute_digests(&self, delta: &UpdateBatch) -> Option<PreDigests> {
        if self.sharing == SharingMode::Shared {
            return None;
        }
        let ops = delta.ops();
        let n_var = self.cfds.iter().filter(|c| c.is_variable()).count();
        if ops.len() * n_var < crate::par::PAR_THRESHOLD {
            return None;
        }
        let cfds = Arc::clone(&self.cfds);
        let current = &self.current;
        Some(crate::par::par_map(cfds.len(), true, &|c| {
            let cfd = &cfds[c];
            if cfd.is_constant() {
                return vec![None; ops.len()];
            }
            let (mut vbuf, mut kbuf) = (Vec::new(), Vec::new());
            ops.iter()
                .map(|op| match op {
                    Update::Insert(t) => cfd.matches_lhs(t).then(|| {
                        (
                            Self::key_of(cfd, t, &mut vbuf, &mut kbuf),
                            attr_digest_into(t.get(cfd.rhs), &mut vbuf),
                        )
                    }),
                    Update::Delete(tid) => {
                        let store = current.store();
                        let row = store
                            .row_of(*tid)
                            .expect("normalized deletes target live tuples");
                        let matches = cfd
                            .lhs
                            .iter()
                            .zip(&cfd.lhs_pattern)
                            .all(|(&a, p)| p.matches(store.value(row, a)));
                        matches.then(|| {
                            let kd = key_digest_from(
                                cfd.lhs
                                    .iter()
                                    .map(|&a| attr_digest_into(store.value(row, a), &mut vbuf)),
                                &mut kbuf,
                            );
                            (kd, attr_digest_into(store.value(row, cfd.rhs), &mut vbuf))
                        })
                    }
                })
                .collect()
        }))
    }

    /// Group-key digest of `cfd`'s LHS for tuple `t`, built in the two
    /// caller-supplied scratch buffers (value bytes, key bytes).
    pub(crate) fn key_of(cfd: &Cfd, t: &Tuple, vbuf: &mut Vec<u8>, kbuf: &mut Vec<u8>) -> Digest {
        key_digest_from(
            cfd.lhs.iter().map(|&a| attr_digest_into(t.get(a), vbuf)),
            kbuf,
        )
    }

    /// Digest of `t[a]`, memoized across the CFDs sharing the attribute:
    /// under the shared plan each attribute of an update is hashed once,
    /// no matter how many plans read it.
    pub(crate) fn digest_cached(
        cache: &mut FxHashMap<AttrId, Digest>,
        t: &Tuple,
        a: AttrId,
        vbuf: &mut Vec<u8>,
    ) -> Digest {
        match cache.get(&a) {
            Some(d) => *d,
            None => {
                let d = attr_digest_into(t.get(a), vbuf);
                cache.insert(a, d);
                d
            }
        }
    }

    /// Group-key digest derived from shipped attribute payloads.
    pub(crate) fn key_from_wire(
        cfd: &Cfd,
        attrs: &FxHashMap<AttrId, Digest>,
        kbuf: &mut Vec<u8>,
    ) -> Digest {
        key_digest_from(cfd.lhs.iter().map(|a| attrs[a]), kbuf)
    }

    /// Wire payload for the (sorted) attributes `attrs` of `t`, encoded
    /// by `codec` for the `src → dst` link. Encoding is per link because
    /// codecs may keep per-link state (dictionary residency): the same
    /// value can ship as a full entry to one peer and a bare symbol to
    /// the next.
    pub(crate) fn encode_attrs(
        codec: &mut dyn PayloadCodec,
        t: &Tuple,
        attrs: &[AttrId],
        src: SiteId,
        dst: SiteId,
    ) -> Vec<(AttrId, WireValue)> {
        attrs
            .iter()
            .map(|&a| (a, codec.encode(src, dst, t.get(a))))
            .collect()
    }

    /// [`Self::encode_attrs`] for one peer of a broadcast: link-stateful
    /// codecs ([`PayloadCodec::per_link`]) encode fresh per peer, while
    /// stateless ones (md5/raw) encode once into `cached` and clone — the
    /// per-attribute digests of one update are computed once, not once
    /// per peer.
    pub(crate) fn encode_attrs_for_peer(
        codec: &mut dyn PayloadCodec,
        t: &Tuple,
        attrs: &[AttrId],
        src: SiteId,
        dst: SiteId,
        cached: &mut Option<Vec<(AttrId, WireValue)>>,
    ) -> Vec<(AttrId, WireValue)> {
        if codec.per_link() {
            return Self::encode_attrs(codec, t, attrs, src, dst);
        }
        cached
            .get_or_insert_with(|| Self::encode_attrs(codec, t, attrs, src, dst))
            .clone()
    }

    /// Sites relevant to at least one of `cfds`, minus `me`, sorted.
    pub(crate) fn peers_of<'a>(
        out: &mut Vec<SiteId>,
        relevant: &[Vec<SiteId>],
        cfds: impl Iterator<Item = &'a CfdId>,
        me: SiteId,
    ) {
        out.clear();
        for &c in cfds {
            out.extend(relevant[c as usize].iter().filter(|&&j| j != me));
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Resolve a received payload's per-attribute digests through the
    /// `from → at` link's own dictionary state (fed only by received
    /// deltas) into `out`.
    fn resolve_digests(
        &mut self,
        out: &mut FxHashMap<AttrId, Digest>,
        at: SiteId,
        from: SiteId,
        attrs: &[(AttrId, WireValue)],
    ) -> Result<(), ClusterError> {
        let rx = &mut self.rx_codecs[at][from];
        out.clear();
        for (a, w) in attrs {
            out.insert(*a, rx.digest(w)?);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Insertion (§6 insertion case analysis, coalesced shipping)
    // ------------------------------------------------------------------

    fn insert_one(
        &mut self,
        t: Tuple,
        dv: &mut DeltaV,
        pre: Option<(&PreDigests, usize)>,
    ) -> Result<(), HorizontalError> {
        let cfds = Arc::clone(&self.cfds);
        let site = self.scheme.route(&t)?;
        // The row goes in before any group state: every class this update
        // creates has, from its first instant, a member whose RHS value
        // the fragment can produce ([`class_values`]).
        self.fragments[site].insert_row(t.tid, t.values.iter())?;
        let mut sx = std::mem::take(&mut self.scratch);
        sx.begin(self.plan.key_groups().len());

        match self.sharing {
            SharingMode::PerCfd => {
                for c in 0..cfds.len() {
                    let cfd = &cfds[c];
                    if cfd.is_constant() {
                        if cfd.constant_violation(&t) && self.violations.add(cfd.id, t.tid) {
                            dv.add(cfd.id, t.tid);
                        }
                        continue;
                    }
                    let (kd, bd) = match pre {
                        Some((p, i)) => match p[c][i] {
                            Some(x) => x,
                            None => continue, // pattern does not match
                        },
                        None => {
                            if !cfd.matches_lhs(&t) {
                                continue;
                            }
                            (
                                Self::key_of(cfd, &t, &mut sx.vbuf, &mut sx.kbuf),
                                attr_digest_into(t.get(cfd.rhs), &mut sx.vbuf),
                            )
                        }
                    };
                    insert_case(
                        &mut self.state[site][c],
                        (&mut self.violations, dv),
                        c as CfdId,
                        t.tid,
                        (kd, bd),
                        self.local_ok[c][site],
                        &mut sx.probes,
                        &mut sx.queries,
                    );
                }
            }
            SharingMode::Shared => {
                // One dispatch pass decides LHS matching for every CFD;
                // the hit list is ascending by id, so the case analysis
                // runs in the exact order of the per-CFD loop.
                let plan = Arc::clone(&self.plan);
                for &cid in plan.matched(&t, &mut sx.dispatch) {
                    let c = cid as usize;
                    let cfd = &cfds[c];
                    if cfd.is_constant() {
                        if cfd.constant_violation(&t) && self.violations.add(cid, t.tid) {
                            dv.add(cid, t.tid);
                        }
                        continue;
                    }
                    // One group-key digest per key group, one value digest
                    // per attribute — the shared group-by pass.
                    let g = plan.group_of(cid).expect("variable CFD joins a key group");
                    let kd = *sx.group_kd[g].get_or_insert_with(|| {
                        key_digest_from(
                            cfd.lhs
                                .iter()
                                .map(|&a| Self::digest_cached(&mut sx.attr_d, &t, a, &mut sx.vbuf)),
                            &mut sx.kbuf,
                        )
                    });
                    let bd = Self::digest_cached(&mut sx.attr_d, &t, cfd.rhs, &mut sx.vbuf);
                    insert_case(
                        &mut self.state[site][c],
                        (&mut self.violations, dv),
                        c as CfdId,
                        t.tid,
                        (kd, bd),
                        self.local_ok[c][site],
                        &mut sx.probes,
                        &mut sx.queries,
                    );
                }
            }
        }

        if !sx.probes.is_empty() || !sx.queries.is_empty() {
            self.ship_probe(&t, site, &mut sx, dv)?;
        }
        self.scratch = sx;

        self.site_of_tid.insert(t.tid, site);
        self.current.insert(t)?;
        Ok(())
    }

    /// Ship one coalesced `TupleProbe` per peer covering every CFD that
    /// needs remote work for this insertion, process it at each peer, and
    /// fold the query replies back into the inserting site's flags.
    fn ship_probe(
        &mut self,
        t: &Tuple,
        site: SiteId,
        sx: &mut OpScratch,
        dv: &mut DeltaV,
    ) -> Result<(), HorizontalError> {
        let cfds = Arc::clone(&self.cfds);
        let lhs_groups = Arc::clone(&self.lhs_groups);
        // Attribute union: probe CFDs need the LHS, query CFDs LHS + RHS.
        wire_attrs(&mut sx.attrs, &cfds, &sx.probes, &sx.queries);
        // Peers: any site relevant to at least one involved CFD.
        Self::peers_of(
            &mut sx.peers,
            &self.relevant,
            sx.probes.iter().chain(&sx.queries),
            site,
        );

        let mut cached = None;
        for &j in &sx.peers {
            let attrs = Self::encode_attrs_for_peer(
                self.codec.as_mut(),
                t,
                &sx.attrs,
                site,
                j,
                &mut cached,
            );
            self.net.send(
                site,
                j,
                HorMsg::TupleProbe {
                    attrs,
                    probes: sx.probes.clone(),
                },
            )?;
            // Peer processes immediately (synchronous round).
            for (from, msg) in self.net.try_drain(j)? {
                let HorMsg::TupleProbe { attrs, probes } = msg else {
                    continue;
                };
                let digests = &mut sx.rx_digests;
                self.resolve_digests(digests, j, from, &attrs)?;
                // Explicit probes: a brand-new conflict at the sender
                // flips every remote group of the CFD.
                for &c in &probes {
                    let kd = Self::key_from_wire(&cfds[c as usize], digests, &mut sx.kbuf);
                    if let Some(h) = self.state[j][c as usize].get_mut(&kd) {
                        if !h.violating() {
                            mark_group(h, c, &mut self.violations, dv);
                        }
                    }
                }
                // Implicit queries: every other derivable variable
                // CFD, one key digest per distinct LHS set.
                sx.probe_set.clear();
                sx.probe_set.extend(probes.iter().copied());
                let mut reply: Vec<CfdId> = Vec::new();
                for (lhs, ids) in lhs_groups.iter() {
                    if !lhs.iter().all(|a| digests.contains_key(a)) {
                        continue;
                    }
                    let kd = key_digest_from(lhs.iter().map(|a| digests[a]), &mut sx.kbuf);
                    for &cid in ids {
                        let c = cid as usize;
                        if sx.probe_set.contains(&cid) {
                            continue;
                        }
                        let Some(&bd) = digests.get(&cfds[c].rhs) else {
                            continue;
                        };
                        // Pattern check through precomputed atom digests.
                        if !self.atom_digests[c].iter().all(|(a, d)| digests[a] == *d) {
                            continue;
                        }
                        let hit = match self.state[j][c].get_mut(&kd) {
                            None => false,
                            Some(h) => {
                                let other = h.has_other(bd);
                                if other && !h.violating() {
                                    mark_group(h, cid, &mut self.violations, dv);
                                }
                                other || h.violating()
                            }
                        };
                        if hit {
                            reply.push(cid);
                        }
                    }
                }
                if !reply.is_empty() {
                    self.net
                        .send(j, site, HorMsg::ProbeReply { conflicts: reply })?;
                }
            }
        }
        // Fold replies into the querying CFDs' flags.
        sx.conflicting.clear();
        for (_, msg) in self.net.try_drain(site)? {
            if let HorMsg::ProbeReply { conflicts } = msg {
                sx.conflicting.extend(conflicts);
            }
        }
        for &c in &sx.queries {
            if sx.conflicting.contains(&c) {
                let kd = Self::key_of(&cfds[c as usize], t, &mut sx.vbuf, &mut sx.kbuf);
                let g = self.state[site][c as usize]
                    .get_mut(&kd)
                    .expect("group created during insert");
                g.set_violating(true);
                if self.violations.add(c, t.tid) {
                    dv.add(c, t.tid);
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Deletion (§6 deletion case analysis, coalesced shipping)
    // ------------------------------------------------------------------

    fn delete_one(
        &mut self,
        tid: Tid,
        dv: &mut DeltaV,
        pre: Option<(&PreDigests, usize)>,
    ) -> Result<(), HorizontalError> {
        let cfds = Arc::clone(&self.cfds);
        let t = self.current.get(tid).ok_or(RelError::MissingTid(tid))?;
        let site = *self
            .site_of_tid
            .get(&tid)
            .expect("live tuple has a home site");
        let mut sx = std::mem::take(&mut self.scratch);
        sx.begin(self.plan.key_groups().len());

        match self.sharing {
            SharingMode::PerCfd => {
                for c in 0..cfds.len() {
                    let cfd = &cfds[c];
                    if cfd.is_constant() {
                        if self.violations.remove(cfd.id, tid) {
                            dv.remove(cfd.id, tid);
                        }
                        continue;
                    }
                    let (kd, bd) = match pre {
                        Some((p, i)) => match p[c][i] {
                            Some(x) => x,
                            None => continue, // pattern does not match
                        },
                        None => {
                            if !cfd.matches_lhs(&t) {
                                continue;
                            }
                            (
                                Self::key_of(cfd, &t, &mut sx.vbuf, &mut sx.kbuf),
                                attr_digest_into(t.get(cfd.rhs), &mut sx.vbuf),
                            )
                        }
                    };
                    delete_case(
                        &mut self.state[site][c],
                        (&mut self.violations, dv),
                        c as CfdId,
                        tid,
                        (kd, bd),
                        self.local_ok[c][site],
                        &mut sx.queries,
                    );
                }
            }
            SharingMode::Shared => {
                // Dispatch restricted to LHS-matching CFDs is sound for
                // the constant-CFD removals too: `tid ∈ V(φ)` implies the
                // (immutable) tuple matched `φ`'s LHS at insert, so a CFD
                // outside the hit list cannot hold a mark for `tid`.
                let plan = Arc::clone(&self.plan);
                for &cid in plan.matched(&t, &mut sx.dispatch) {
                    let c = cid as usize;
                    let cfd = &cfds[c];
                    if cfd.is_constant() {
                        if self.violations.remove(cid, tid) {
                            dv.remove(cid, tid);
                        }
                        continue;
                    }
                    let g = plan.group_of(cid).expect("variable CFD joins a key group");
                    let kd = *sx.group_kd[g].get_or_insert_with(|| {
                        key_digest_from(
                            cfd.lhs
                                .iter()
                                .map(|&a| Self::digest_cached(&mut sx.attr_d, &t, a, &mut sx.vbuf)),
                            &mut sx.kbuf,
                        )
                    });
                    let bd = Self::digest_cached(&mut sx.attr_d, &t, cfd.rhs, &mut sx.vbuf);
                    delete_case(
                        &mut self.state[site][c],
                        (&mut self.violations, dv),
                        c as CfdId,
                        tid,
                        (kd, bd),
                        self.local_ok[c][site],
                        &mut sx.queries,
                    );
                }
            }
        }

        if !sx.queries.is_empty() {
            self.ship_del_query(&t, site, &mut sx, dv)?;
        }
        self.scratch = sx;

        self.fragments[site].delete_quiet(tid)?;
        self.site_of_tid.remove(&tid);
        self.current.delete_quiet(tid)?;
        Ok(())
    }

    /// One coalesced `TupleDelQuery` per peer; fold the per-CFD RHS-value
    /// replies, and send (coalesced) `ClearFlags` where groups stopped
    /// violating globally.
    fn ship_del_query(
        &mut self,
        t: &Tuple,
        site: SiteId,
        sx: &mut OpScratch,
        dv: &mut DeltaV,
    ) -> Result<(), HorizontalError> {
        let all_cfds = Arc::clone(&self.cfds);
        wire_attrs(&mut sx.attrs, &all_cfds, &sx.queries, &[]);
        Self::peers_of(&mut sx.peers, &self.relevant, sx.queries.iter(), site);

        // Per CFD: global distinct bvals and the peers holding members.
        let mut global: FxHashMap<CfdId, FxHashSet<Digest>> = sx
            .queries
            .iter()
            .map(|&c| (c, FxHashSet::default()))
            .collect();
        let mut holders: FxHashMap<CfdId, Vec<SiteId>> =
            sx.queries.iter().map(|&c| (c, Vec::new())).collect();

        let mut cached = None;
        for &j in &sx.peers {
            let attrs = Self::encode_attrs_for_peer(
                self.codec.as_mut(),
                t,
                &sx.attrs,
                site,
                j,
                &mut cached,
            );
            self.net.send(
                site,
                j,
                HorMsg::TupleDelQuery {
                    attrs,
                    queries: sx.queries.clone(),
                },
            )?;
            for (from, msg) in self.net.try_drain(j)? {
                let HorMsg::TupleDelQuery { attrs, queries } = msg else {
                    continue;
                };
                self.resolve_digests(&mut sx.rx_digests, j, from, &attrs)?;
                let codec = self.codec.as_mut();
                let mut reply: Vec<(CfdId, Vec<WireValue>)> = Vec::new();
                for &c in &queries {
                    let cfd = &all_cfds[c as usize];
                    let kd = Self::key_from_wire(cfd, &sx.rx_digests, &mut sx.kbuf);
                    // Only peers answer, so the querying site's own
                    // half-updated group is never the one read here.
                    if let Some(h) = self.state[j][c as usize].get(&kd) {
                        let bvals = class_values(h, &self.fragments[j], (j, cfd, kd), |v| {
                            codec.encode(j, site, v)
                        })
                        .map_err(HorizontalError::Internal)?;
                        reply.push((c, bvals));
                    }
                }
                if !reply.is_empty() {
                    self.net.send(j, site, HorMsg::DelReply { bvals: reply })?;
                }
            }
        }
        for (from, msg) in self.net.try_drain(site)? {
            if let HorMsg::DelReply { bvals } = msg {
                for (c, vs) in bvals {
                    holders.get_mut(&c).expect("queried cfd").push(from);
                    let set = global.get_mut(&c).expect("queried cfd");
                    for v in vs {
                        set.insert(self.rx_codecs[site][from].digest(&v)?);
                    }
                }
            }
        }

        // Decide per CFD; coalesce clears per peer.
        let mut clears_by_peer: FxHashMap<SiteId, Vec<CfdId>> = FxHashMap::default();
        for &c in &sx.queries {
            let cfd = &all_cfds[c as usize];
            let kd = Self::key_of(cfd, t, &mut sx.vbuf, &mut sx.kbuf);
            let mut all = global.remove(&c).expect("queried cfd");
            if let Some(h) = self.state[site][c as usize].get(&kd) {
                h.for_each_class(|bd, _| {
                    all.insert(bd);
                });
            }
            if all.len() >= 2 {
                continue; // still violating everywhere
            }
            self.clear_group_local(c, site, kd, dv);
            for &j in &holders[&c] {
                clears_by_peer.entry(j).or_default().push(c);
            }
        }
        let mut clear_peers: Vec<SiteId> = clears_by_peer.keys().copied().collect();
        clear_peers.sort_unstable();
        for j in clear_peers {
            let clear_list = clears_by_peer.remove(&j).expect("listed peer");
            wire_attrs(&mut sx.attrs, &all_cfds, &clear_list, &[]);
            let attrs = Self::encode_attrs(self.codec.as_mut(), t, &sx.attrs, site, j);
            self.net.send(
                site,
                j,
                HorMsg::ClearFlags {
                    attrs,
                    cfds: clear_list,
                },
            )?;
            for (from, msg) in self.net.try_drain(j)? {
                let HorMsg::ClearFlags {
                    attrs,
                    cfds: to_clear,
                } = msg
                else {
                    continue;
                };
                self.resolve_digests(&mut sx.rx_digests, j, from, &attrs)?;
                for c in to_clear {
                    let kd =
                        Self::key_from_wire(&all_cfds[c as usize], &sx.rx_digests, &mut sx.kbuf);
                    self.clear_group_local(c, j, kd, dv);
                }
            }
        }
        Ok(())
    }

    fn clear_group_local(&mut self, cfd: CfdId, site: SiteId, kd: Digest, dv: &mut DeltaV) {
        let groups = &mut self.state[site][cfd as usize];
        clear_group(groups, cfd, kd, &mut self.violations, dv);
    }

    /// Census of the §6 group state over every site: what it holds and
    /// the heap bytes it keeps resident. `O(state)`; nothing is counted
    /// unless this is called.
    pub fn state_census(&self) -> StateCensus {
        let mut census = StateCensus::default();
        for map in self.state.iter().flatten() {
            census.count(map);
        }
        census
    }

    /// Symbols resident per receiving link, `[dst][src]` flattened.
    #[cfg(test)]
    pub(crate) fn resident_symbols(&self) -> Vec<usize> {
        let links = self.rx_codecs.iter().flatten();
        links.map(ReceiverCodec::resident_symbols).collect()
    }
}

impl Detector for HorizontalDetector {
    fn strategy(&self) -> &'static str {
        "incHor"
    }

    fn schema(&self) -> &Arc<Schema> {
        HorizontalDetector::schema(self)
    }

    fn cfds(&self) -> &[Cfd] {
        HorizontalDetector::cfds(self)
    }

    fn current(&self) -> &Relation {
        HorizontalDetector::current(self)
    }

    fn violations(&self) -> &Violations {
        HorizontalDetector::violations(self)
    }

    fn apply(&mut self, delta: &UpdateBatch) -> Result<DeltaV, DetectError> {
        HorizontalDetector::apply(self, delta)
    }

    fn net(&self) -> cluster::NetReport {
        let report =
            cluster::NetReport::single(self.net.stats().clone()).with_codec(self.codec.name());
        match self.net.wire_stats() {
            Some(wire) => report.with_measured(wire.clone()),
            None => report,
        }
    }

    fn reset_stats(&mut self) {
        HorizontalDetector::reset_stats(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::partition::HorizontalScheme;

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

    /// Fig. 2: grade A / B / C fragments.
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

    fn detector() -> HorizontalDetector {
        let s = emp_schema();
        HorizontalDetector::new(s.clone(), fig1_cfds(&s), fig2_scheme(&s), &d0()).unwrap()
    }

    #[test]
    fn initial_violations_match_fig1() {
        let det = detector();
        let v = det.violations();
        let mut phi1: Vec<Tid> = v.of_cfd(0).iter().copied().collect();
        phi1.sort_unstable();
        assert_eq!(phi1, vec![1, 3, 4, 5]);
        assert_eq!(v.of_cfd(1).iter().copied().collect::<Vec<_>>(), vec![1]);
        assert_eq!(det.stats().total_bytes(), 0, "load is unmetered");
    }

    #[test]
    fn example9_insert_t6_ships_nothing() {
        let mut det = detector();
        let mut delta = UpdateBatch::new();
        delta.insert(emp_tuple(6, "C", 44, 131, "EH4 8LE", "Mayfield", "EDI"));
        let dv = det.apply(&delta).unwrap();
        // ΔV⁺ = {t6} (Example 9); t5 is a known violation at the same site,
        // so no data is shipped (Example 2(1)(b), horizontal case).
        assert_eq!(dv.added, vec![(0, 6)]);
        assert!(dv.removed.is_empty());
        assert_eq!(det.stats().total_bytes(), 0);
    }

    #[test]
    fn example2_delete_t4_ships_nothing() {
        let mut det = detector();
        let mut d1 = UpdateBatch::new();
        d1.insert(emp_tuple(6, "C", 44, 131, "EH4 8LE", "Mayfield", "EDI"));
        det.apply(&d1).unwrap();
        det.reset_stats();
        let mut d2 = UpdateBatch::new();
        d2.delete(4);
        let dv = det.apply(&d2).unwrap();
        // t3 remains in t4's class at the same site: only t4 leaves V.
        assert_eq!(dv.removed, vec![(0, 4)]);
        assert!(dv.added.is_empty());
        assert_eq!(det.stats().total_bytes(), 0);
    }

    #[test]
    fn cross_site_conflict_detected_on_insert() {
        let mut det = detector();
        let mut d1 = UpdateBatch::new();
        d1.insert(emp_tuple(10, "A", 44, 131, "EH7 7AA", "Foo", "EDI"));
        let dv1 = det.apply(&d1).unwrap();
        assert!(dv1.added.is_empty(), "single member group");
        det.reset_stats();
        let mut d2 = UpdateBatch::new();
        d2.insert(emp_tuple(11, "B", 44, 131, "EH7 7AA", "Bar", "EDI"));
        let dv2 = det.apply(&d2).unwrap();
        assert_eq!(dv2.added_tids_sorted(), vec![10, 11]);
        assert!(det.stats().total_bytes() > 0, "query round was needed");
    }

    #[test]
    fn cross_site_deletion_clears_remote_marks() {
        let mut det = detector();
        let mut d1 = UpdateBatch::new();
        d1.insert(emp_tuple(10, "A", 44, 131, "EH7 7AA", "Foo", "EDI"));
        d1.insert(emp_tuple(11, "B", 44, 131, "EH7 7AA", "Bar", "EDI"));
        det.apply(&d1).unwrap();
        assert!(det.violations().is_violation(10));
        // Deleting t11 leaves t10 as the only member: both marks must go.
        let mut d2 = UpdateBatch::new();
        d2.delete(11);
        let dv = det.apply(&d2).unwrap();
        assert_eq!(dv.removed_tids_sorted(), vec![10, 11]);
        assert!(!det.violations().is_violation(10));
    }

    #[test]
    fn one_message_per_peer_regardless_of_cfd_count() {
        // §6: "each tuple in ΔD is sent to other sites at most once". Ten
        // variable CFDs all needing a query must still produce exactly one
        // probe per peer (plus at most one reply each).
        let s = emp_schema();
        let mut cfds = Vec::new();
        for (i, rhs) in ["street", "city", "AC", "street", "city"]
            .iter()
            .enumerate()
        {
            cfds.push(
                Cfd::from_names(
                    i as u32,
                    &s,
                    &[("CC", Some(Value::int(44))), ("zip", None)],
                    (rhs, None),
                )
                .unwrap(),
            );
        }
        for (i, rhs) in ["grade", "AC"].iter().enumerate() {
            cfds.push(Cfd::from_names((5 + i) as u32, &s, &[("zip", None)], (rhs, None)).unwrap());
        }
        let mut det = HorizontalDetector::new(s.clone(), cfds, fig2_scheme(&s), &d0()).unwrap();
        det.reset_stats();
        let mut d = UpdateBatch::new();
        // Brand-new zip → every variable CFD queries.
        d.insert(emp_tuple(30, "A", 44, 131, "ZZ1 1ZZ", "Somewhere", "EDI"));
        det.apply(&d).unwrap();
        // 2 peers: ≤ 1 probe + ≤ 1 reply each.
        assert!(
            det.stats().total_messages() <= 4,
            "got {} messages",
            det.stats().total_messages()
        );
    }

    #[test]
    fn md5_codec_ships_fewer_bytes_than_raw() {
        let s = emp_schema();
        let mk = |codec: CodecKind| {
            HorizontalDetector::with_codec(s.clone(), fig1_cfds(&s), fig2_scheme(&s), &d0(), codec)
                .unwrap()
        };
        let run = |det: &mut HorizontalDetector| {
            let mut d = UpdateBatch::new();
            d.insert(emp_tuple(
                20,
                "A",
                44,
                131,
                "a-very-long-postal-code-value-0001",
                "An Extremely Long Street Name Indeed",
                "EDI",
            ));
            det.apply(&d).unwrap();
            det.stats().total_bytes()
        };
        let md5_bytes = run(&mut mk(CodecKind::Md5));
        let raw_bytes = run(&mut mk(CodecKind::RawValues));
        assert!(
            md5_bytes > 0 && raw_bytes > md5_bytes,
            "md5 {md5_bytes} vs raw {raw_bytes}"
        );
    }

    #[test]
    fn dict_codec_matches_md5_violations_and_wins_on_repeats() {
        let s = emp_schema();
        let mk = |codec: CodecKind| {
            HorizontalDetector::with_codec(s.clone(), fig1_cfds(&s), fig2_scheme(&s), &d0(), codec)
                .unwrap()
        };
        // Insert/delete cycles of the same cross-site conflict: every
        // cycle re-ships the same zip (probe + delete query) and street
        // values (delete replies) over the same links. Raw pays their full
        // width each cycle; dict pays each link's dictionary entry in
        // cycle one and 4 B per value thereafter.
        let run = |det: &mut HorizontalDetector| {
            for _ in 0..8 {
                let mut ins = UpdateBatch::new();
                ins.insert(emp_tuple(
                    100,
                    "A",
                    44,
                    131,
                    "a-very-long-postal-code-0001",
                    "Mayfield Gardens Extension",
                    "EDI",
                ));
                ins.insert(emp_tuple(
                    101,
                    "B",
                    44,
                    131,
                    "a-very-long-postal-code-0001",
                    "Crichton Street The Longer",
                    "EDI",
                ));
                det.apply(&ins).unwrap();
                let mut del = UpdateBatch::new();
                del.delete(100);
                del.delete(101);
                det.apply(&del).unwrap();
            }
            (det.violations().marks_sorted(), det.stats().total_bytes())
        };
        let (v_dict, dict_bytes) = run(&mut mk(CodecKind::Dict));
        let (v_raw, raw_bytes) = run(&mut mk(CodecKind::RawValues));
        let (v_md5, _) = run(&mut mk(CodecKind::Md5));
        assert_eq!(v_dict, v_raw, "codec must not change results");
        assert_eq!(v_dict, v_md5);
        let oracle = {
            let mut det = mk(CodecKind::Dict);
            run(&mut det);
            cfd::naive::detect(det.cfds(), det.current())
        };
        assert_eq!(v_dict, oracle.marks_sorted());
        assert!(
            dict_bytes > 0 && dict_bytes < raw_bytes,
            "dict {dict_bytes} vs raw {raw_bytes}"
        );
    }

    #[test]
    fn constant_cfd_is_local() {
        let mut det = detector();
        det.reset_stats();
        let mut d = UpdateBatch::new();
        d.insert(emp_tuple(30, "B", 44, 131, "EH8 8XX", "Baz", "GLA"));
        let dv = det.apply(&d).unwrap();
        assert!(dv.added.contains(&(1, 30)));
        let mut d2 = UpdateBatch::new();
        d2.delete(30);
        let dv2 = det.apply(&d2).unwrap();
        assert!(dv2.removed.contains(&(1, 30)));
    }

    #[test]
    fn local_ok_partition_never_ships() {
        // Partition on zip (⊆ X of φ1): conflicts are always co-located.
        let s = emp_schema();
        let zip = s.attr_id("zip").unwrap();
        let scheme = HorizontalScheme::by_hash(s.clone(), zip, 4).unwrap();
        let cfds = vec![fig1_cfds(&s).remove(0)];
        let mut det = HorizontalDetector::new(s, cfds, scheme, &d0()).unwrap();
        let mut d = UpdateBatch::new();
        d.insert(emp_tuple(40, "A", 44, 131, "EH4 8LE", "Zig", "EDI"));
        d.insert(emp_tuple(41, "B", 44, 131, "ZZ9 9ZZ", "Zag", "EDI"));
        d.delete(5);
        d.delete(40);
        det.apply(&d).unwrap();
        assert_eq!(det.stats().total_bytes(), 0, "X_{{F_i}} ⊆ X ⇒ no shipment");
        let oracle = cfd::naive::detect(det.cfds(), det.current());
        assert_eq!(det.violations().marks_sorted(), oracle.marks_sorted());
    }

    #[test]
    fn irrelevant_sites_are_skipped() {
        let s = emp_schema();
        let cc = s.attr_id("CC").unwrap();
        let scheme = HorizontalScheme::by_values(
            s.clone(),
            cc,
            vec![vec![Value::int(44)], vec![Value::int(1)]],
        )
        .unwrap();
        let cfds = vec![Cfd::from_names(
            0,
            &s,
            &[("CC", Some(Value::int(44))), ("zip", None)],
            ("street", None),
        )
        .unwrap()];
        let mut det = HorizontalDetector::new(s, cfds, scheme, &d0()).unwrap();
        det.reset_stats();
        let mut d = UpdateBatch::new();
        d.insert(emp_tuple(50, "A", 44, 131, "NEW 111", "Foo", "EDI"));
        det.apply(&d).unwrap();
        // Only peer (CC=1) is irrelevant (F_j ∧ F_φ unsat) → nothing sent.
        assert_eq!(det.stats().total_messages(), 0);
    }

    #[test]
    fn matches_oracle_after_mixed_batch() {
        let mut det = detector();
        let mut delta = UpdateBatch::new();
        delta.insert(emp_tuple(6, "C", 44, 131, "EH4 8LE", "Mayfield", "EDI"));
        delta.delete(4);
        delta.insert(emp_tuple(9, "B", 44, 131, "EH2 4HF", "Lauriston", "EDI"));
        delta.delete(2);
        delta.insert(emp_tuple(12, "A", 44, 131, "EH2 4HF", "Lauriston", "NYC"));
        det.apply(&delta).unwrap();
        let oracle = cfd::naive::detect(det.cfds(), det.current());
        assert_eq!(det.violations().marks_sorted(), oracle.marks_sorted());
    }

    #[test]
    fn group_state_garbage_collected() {
        let mut det = detector();
        let mut delta = UpdateBatch::new();
        for tid in 1..=5 {
            delta.delete(tid);
        }
        det.apply(&delta).unwrap();
        assert!(det.violations().is_empty());
        // No group, and no table allocation either, outlives the data.
        assert_eq!(det.state_census(), StateCensus::default());
    }

    /// A later field shows up here before it shows up in `state_rss_mb`.
    #[test]
    fn group_state_sizes_are_guarded() {
        assert!(std::mem::size_of::<ClassEntry>() <= 32);
        assert!(std::mem::size_of::<(Digest, GroupState)>() <= 64);
    }

    /// Seeded op sequences over a few classes and a dozen tids cross both
    /// spill thresholds (3 ↔ 4 members, 1 ↔ 2 classes) in both directions,
    /// re-insert members and remove absent ones; after every op the group
    /// agrees with a map-of-sets model and its layout is canonical.
    #[test]
    fn group_state_matches_a_hash_map_model() {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let kd = Digest([7; 16]);
        for round in 0..40 {
            let n_classes = 1 + round % 4;
            let mut groups: FxHashMap<Digest, GroupState> = FxHashMap::default();
            let mut model: FxHashMap<Digest, FxHashSet<Tid>> = FxHashMap::default();
            for step in 0..400 {
                let bd = Digest([next(n_classes) as u8; 16]);
                let tid = next(12);
                // Drift up, then down, so spills are entered and left.
                if next(100) < if step < 200 { 65 } else { 35 } {
                    match groups.entry(kd) {
                        Entry::Vacant(e) => {
                            e.insert(GroupState::new(bd, tid));
                        }
                        Entry::Occupied(e) => {
                            let g = e.into_mut();
                            assert_eq!(g.has_other(bd), model.keys().any(|&k| k != bd));
                            g.insert(bd, tid);
                        }
                    }
                    model.entry(bd).or_default().insert(tid);
                } else if let Some(g) = groups.get_mut(&kd) {
                    let got = g.remove(bd, tid);
                    let want = model.get_mut(&bd).map(|set| {
                        set.remove(&tid);
                        set.is_empty()
                    });
                    if want == Some(true) {
                        model.remove(&bd);
                    }
                    assert_eq!(got, want.map(|empty| (empty, model.len())));
                    if model.is_empty() {
                        groups.remove(&kd);
                    }
                }
                let mut census = StateCensus::default();
                census.count(&groups);
                let spilled = model.values().filter(|s| s.len() > INLINE_TIDS).count();
                assert_eq!(census.groups, usize::from(!model.is_empty()));
                assert_eq!(census.classes, model.len());
                assert_eq!(
                    census.memberships,
                    model.values().map(FxHashSet::len).sum::<usize>()
                );
                assert_eq!(census.spilled_class_maps, usize::from(model.len() >= 2));
                assert_eq!(census.spilled_tid_sets, spilled);
                let Some(g) = groups.get(&kd) else { continue };
                let (mut members, mut classes) = (Vec::new(), Vec::new());
                g.for_each_member(|t| members.push(t));
                g.for_each_class(|bd, m| {
                    classes.push((bd, m.first().is_some_and(|t| model[&bd].contains(&t))));
                });
                members.sort_unstable();
                classes.sort_unstable();
                let mut want_members: Vec<Tid> = model.values().flatten().copied().collect();
                let mut want_classes: Vec<_> = model.keys().map(|&bd| (bd, true)).collect();
                want_members.sort_unstable();
                want_classes.sort_unstable();
                assert_eq!(members, want_members);
                assert_eq!(classes, want_classes);
            }
        }
    }

    #[test]
    fn orphaned_class_is_an_internal_error_not_a_null() {
        let mut det = detector();
        // Break the invariant by hand: site 1 (grade B) loses t3 and t4's
        // rows while their class stays in the group state.
        det.fragments[1].delete_quiet(3).unwrap();
        det.fragments[1].delete_quiet(4).unwrap();
        // Deleting t5 (site 2, the only other street) sends a del-query.
        let mut delta = UpdateBatch::new();
        delta.delete(5);
        match det.apply(&delta) {
            Err(DetectError::Internal(msg)) => {
                assert!(msg.contains("site 1") && msg.contains("CFD 0"), "{msg}");
            }
            other => panic!("expected an internal error, got {other:?}"),
        }
    }
}
