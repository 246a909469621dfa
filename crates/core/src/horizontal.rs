//! Incremental detection over horizontal partitions (§6).
//!
//! Per site and per operator — the embedded FD `(X → B)` of one or more
//! variable CFDs ([`SharedPlan::operators`]) — the detector keeps the group
//! state of the local tuples: for each `X`-value group that matches a
//! pattern of the operator, its distinct RHS classes (each with member
//! tids) plus one `violating` flag. Per operator, not per CFD, because
//! whether `tp[X]` matches is a function of `t[X]` alone: every tuple of a
//! group matches the same CFDs of the operator, so those CFDs would keep
//! the same members, the same classes and the same flag, and run the same
//! case analysis to the same shipment. The pattern only decides which
//! `V(φ)` a group's marks are written to.
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
//! is sent to other sites at most once"*): all per-operator probes and
//! queries triggered by one update are coalesced into a single message per
//! peer, carrying the tuple's *per-attribute* payloads plus the list of
//! operator ids concerned. How each attribute is encoded on the wire is delegated to
//! the session's [`cluster::codec::PayloadCodec`] — MD5 digests (§6's
//! optimization, the default), raw values (the unoptimized variant), or
//! dictionary symbols with one-time per-link deltas
//! ([`cluster::codec::DictSyms`]). Receivers derive every operator's group
//! key from the attribute digests the codec resolves. Hence `O(n)` messages
//! per update regardless of `|Σ|`, and `O(|ΔD| + |ΔV|)` overall
//! (Proposition 8).
//!
//! **Local checkability.** Constant CFDs never ship (single-tuple checks).
//! A variable CFD ships nothing at site `i` when `X_{F_i} ⊆ X` (violating
//! pairs are co-located) and is skipped entirely at sites where
//! `F_i ∧ F_φ` is unsatisfiable.
//!
//! # One machine, six steps
//!
//! The protocol is written once, in the `site` submodule: a `Site` is one
//! site's group state and codec state, with no transport, no threads, no
//! `V` and no rows inside — every step takes the `(V, ΔV)` it records
//! into, and the four that touch a row take the store (`rows`) their
//! driver owns. [`HorizontalDetector`] holds `n` machines, drives them
//! synchronously over a [`MsgTransport`] and hands every one of them its
//! single logical relation; the thread-per-site runtime
//! ([`crate::concurrent`]) drives one per thread behind its wave scheduler
//! and hands it the fragment that thread holds — and is the one caller of
//! the sixth step, which lets a site apply on arrival every update of a
//! batch that no peer could tell from its absence. Both have no path to
//! group state but these:
//!
//! | step | called by | in | `rows` | out | the paper's case |
//! |---|---|---|---|---|---|
//! | `begin_insert(t, rows)` | the driver, at `t`'s home site | — | `t` is inserted, first thing | nothing, or an open round and one `TupleProbe` per relevant peer | insertion case analysis, once per matched operator; *nothing* is Examples 2(1)(b) and 9: a local same-RHS witness or an already-violating group decides |
//! | `begin_delete(tid, rows)` | the driver, at the tuple's home site | — | the tuple is read, and deleted once its groups let go | nothing, or an open round and one `TupleDelQuery` per relevant peer | deletion case analysis, once per matched operator; *nothing* is Example 2(2): a local witness keeps the RHS multiplicity ≥ 2 |
//! | `on_request(src, msg, rows)` | whoever took `msg` off the `src →` link | `TupleProbe`, `TupleDelQuery`, `ClearFlags`, each listing operator ids | read only, and only for a `TupleDelQuery`: the RHS value of each class of a queried group, through one of its members | `ProbeReply` / `DelReply` by operator id, or nothing (a silent round) | the receiving half of each exchange, one group lookup per operator: flip or report conflicting groups, report distinct RHS values, clear flags — and only where a flag flips or clears, the pattern check that says which CFDs' marks to write |
//! | `on_reply(round, src, msg)` | the driver, per reply to an open round | `ProbeReply`, `DelReply` | — | — | fold: which queried operators' groups conflict somewhere, which RHS values remain and who holds them |
//! | `finish(round)` | the driver, once every asked peer answered or stayed silent | — | — (the deleted tuple, and the matched CFD ids of every queried operator, travel in the round) | insert: flags raised, nothing to ship; delete: the decision, plus one coalesced `ClearFlags` per peer still holding a group that stopped violating | the round's conclusion, its marks fanned out to the operator's matched CFDs |
//! | `try_settle(op, rows, held)` | a driver that schedules a batch, at the update's home site, once per update in slice order before any round of the batch opens | — | as `begin_insert` / `begin_delete` when it applies; a deferred update touches nothing | *applied*, or *deferred* with one bit: does it write (create or empty a local RHS class) or is it only held behind a deferred update of the slice sharing a group key or its tid | the zero-shipment cases told apart *before* the case analysis runs: an update whose RHS class is populated before and after it (`GroupState::class_len`, plus what the slice's deferred updates will add or remove) ships nothing whatever the group's flag and leaves unchanged everything a peer's request reads — the set of classes and the flag — so it is applied through the same `insert_case` / `delete_case`, which must ship nothing |
//!
//! The machine enforces, for every driver:
//!
//! * **Row before group state, and the machine stores both.** The driver
//!   owns `rows` but neither inserts nor deletes: `begin_insert` stores the
//!   row before any class that could be asked for its RHS value exists,
//!   `begin_delete` drops it only after its groups let go of it. A machine
//!   reads no row but the one being deleted and members of its own
//!   classes — rows it inserted itself — so `n` machines may share one
//!   store (tids are global) or hold one each.
//! * **Validate before mutate.** Operator ids and payloads off the wire
//!   are checked at `on_request` / `on_reply` entry — every *listed* id
//!   names an operator of `Σ` whose whole `X` the payload carries, no
//!   attribute twice, a reply answers the kind of round it is folded into and names
//!   only what that round queried — and a refusal is a
//!   [`ClusterError`] naming the link, the message kind and the offender,
//!   with group state, `V` and the round untouched. (Implicit probe
//!   queries skip operators the payload cannot derive; that is the
//!   protocol, not an error.)
//! * **A round is finished exactly once.** `finish` consumes it.
//!
//! # State layout
//!
//! §6 keeps per site "the group's distinct RHS values and a flag"; the
//! containers below (`GroupState`, `ClassEntry`) cost bytes only
//! where a group has more structure than that. Each `(site, operator)`
//! owns one `FxHashMap<Digest, GroupState>`; the nested
//! `FxHashMap<Digest, {FxHashMap<Digest, {FxHashSet<Tid>, Option<Value>}>, bool}>`
//! it replaces gave every group a heap table and every class a heap set
//! and a cloned RHS value:
//!
//! | per … | was | is |
//! |---|---|---|
//! | group (map slot) | 56 B + a class table of its own (≥ 308 B) | 64 B, holding the flag, one class digest and ≤ 3 tids; no allocation while one class of ≤ 3 members |
//! | class | 72 B slot (`ClassEntry` 56 B) + a tid table (≥ 52 B) + a `Value` clone | in the group slot, or a 48 B slot (`ClassEntry` 32 B) of the group's spilled class map |
//! | membership | ≥ 9 B of a heap table | 8 B inline up to 3 per class, ≈ 9 B in a boxed `FxHashSet` beyond |
//! | all in, per membership (`hor_wide_sigma`) | ≈ 140 B | ≈ 44 B (25.6 MB by [`StateCensus`]) |
//!
//! The thresholds come from `detbench`'s `hor_wide_sigma`: 768 variable
//! CFDs on 53 operators, seed 1's `D₀` 56 002 groups, 225 571 classes,
//! 575 398 memberships, 3 584 spilled class maps, 20 359 spilled tid sets
//! (kept per CFD, the same data was 78 946 / 435 020 / 1 182 697 / 4 924 /
//! 36 915 and 51.7 MB). 52 418 groups (94 %)
//! hold exactly one class, so one class lives inline; but 540 groups
//! (1 %) hold 142 000 of the classes, 65–378 each, so beyond one the
//! classes are *hashed* (a flat `Vec` there cost 30 % of `updates_per_s`).
//! 139 272 classes (62 %) hold exactly one tid, so tids start inline; but
//! `hor_tcp_skew`'s Zipf classes reach 65–512 tids, so beyond three they
//! are a boxed set and removal stays `O(1)`. A class's RHS value is read
//! back from the rows through any member (`class_values`).
//! Removals demote (`Many → One`, set → inline) and tables give their
//! slack back under a quarter full, so the state follows deletes down as
//! well as inserts up; [`HorizontalDetector::state_census`] counts it.

use crate::detector::{DetectError, Detector};
use crate::optimize::SharingMode;
use cfd::{Cfd, CfdId, DeltaV, OpId, SharedPlan, Violations};
use cluster::codec::{CodecKind, WireValue};
use cluster::md5::Digest;
use cluster::net::{bytes as wirefmt, ByteNetwork, FrameCodec, TransportKind};
use cluster::partition::HorizontalScheme;
use cluster::{ClusterError, MsgTransport, Network, SiteId, Wire};
use relation::{
    AttrId, FxHashMap, FxHashSet, RelError, Relation, Schema, Tid, Update, UpdateBatch, Value,
};
use site::{Site, SiteConfig};
use std::collections::hash_map::Entry;
use std::sync::Arc;

#[cfg(test)]
pub(crate) mod fixtures;
pub(crate) mod site;

/// Messages of the horizontal protocol. One `TupleProbe`/`TupleDelQuery`
/// carries *all* rule work for one update — the tuple crosses each link at
/// most once. Every id list names *operators* ([`OpId`]: the embedded FDs
/// `(X → B)` of `Σ`'s variable CFDs, numbered alike at every site), never
/// CFDs: a group is shared by every CFD of its operator whose pattern its
/// key matches, and the receiver works those out from the payload. Every value payload is a [`WireValue`] produced by the
/// session's [`cluster::codec::PayloadCodec`], so the same message shapes serve all three
/// encodings.
#[derive(Debug, Clone, PartialEq)]
pub enum HorMsg {
    /// Insert-side probe/query for one updated tuple. Receivers know `Σ`,
    /// so the operators to check are *implicit*: every operator whose `X`
    /// and `B` are all present in the payload (and whose group the
    /// receiver holds) is processed. Only the rare `probes` (brand-new
    /// local conflicts, which force a flag flip even on agreeing remote
    /// classes) are listed explicitly.
    TupleProbe {
        /// Per-attribute payload for the union of attributes the involved
        /// operators need (attr id + digest/raw value).
        attrs: Vec<(AttrId, WireValue)>,
        /// Operators whose group gained a brand-new conflict (flip flags).
        probes: Vec<OpId>,
    },
    /// Reply to a [`HorMsg::TupleProbe`]: the operators whose groups
    /// conflict with the inserted tuple at the replying site (sparse —
    /// non-listed operators don't conflict).
    ProbeReply {
        /// Conflicting operator ids.
        conflicts: Vec<OpId>,
    },
    /// Delete-side query: report your distinct RHS values per listed
    /// operator.
    TupleDelQuery {
        /// Attribute payload (union of the listed operators' `X`).
        attrs: Vec<(AttrId, WireValue)>,
        /// Operators whose global multiplicity is in doubt.
        queries: Vec<OpId>,
    },
    /// Reply to [`HorMsg::TupleDelQuery`].
    DelReply {
        /// Per operator, the distinct local RHS values of the group —
        /// once, however many of the operator's CFDs the group serves.
        bvals: Vec<(OpId, Vec<WireValue>)>,
    },
    /// The listed operators' groups no longer violate anywhere: clear
    /// flags.
    ClearFlags {
        /// Attribute payload for group-key derivation.
        attrs: Vec<(AttrId, WireValue)>,
        /// Operators to clear.
        cfds: Vec<OpId>,
    },
}

impl HorMsg {
    /// The variant's name, for protocol-error messages.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            HorMsg::TupleProbe { .. } => "TupleProbe",
            HorMsg::ProbeReply { .. } => "ProbeReply",
            HorMsg::TupleDelQuery { .. } => "TupleDelQuery",
            HorMsg::DelReply { .. } => "DelReply",
            HorMsg::ClearFlags { .. } => "ClearFlags",
        }
    }
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

/// Serialize an operator-id list; overhead is the 2-byte count (ids are
/// modeled at 4 B each).
fn put_ops(out: &mut Vec<u8>, ops: &[OpId]) -> usize {
    out.extend_from_slice(&(ops.len() as u16).to_le_bytes());
    for o in ops {
        out.extend_from_slice(&o.to_le_bytes());
    }
    2
}

fn get_ops(r: &mut wirefmt::Reader<'_>) -> Result<Vec<OpId>, ClusterError> {
    let n = r.u16()? as usize;
    (0..n).map(|_| Ok(r.u32()? as OpId)).collect()
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
                put_attrs(out, attrs) + put_ops(out, probes)
            }
            HorMsg::ProbeReply { conflicts } => {
                out.push(HF_PROBE_REPLY); // modeled
                put_ops(out, conflicts)
            }
            HorMsg::TupleDelQuery { attrs, queries } => {
                out.push(HF_DEL_QUERY);
                1 + put_attrs(out, attrs) + put_ops(out, queries)
            }
            HorMsg::DelReply { bvals } => {
                out.push(HF_DEL_REPLY);
                out.extend_from_slice(&(bvals.len() as u16).to_le_bytes());
                let mut ovh = 1 + 2;
                for (o, vs) in bvals {
                    out.extend_from_slice(&o.to_le_bytes());
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
                1 + put_attrs(out, attrs) + put_ops(out, cfds)
            }
        }
    }

    fn decode_frame(body: &[u8]) -> Result<Self, ClusterError> {
        let mut r = wirefmt::Reader::new(body);
        let msg = match r.u8()? {
            HF_PROBE => HorMsg::TupleProbe {
                attrs: get_attrs(&mut r)?,
                probes: get_ops(&mut r)?,
            },
            HF_PROBE_REPLY => HorMsg::ProbeReply {
                conflicts: get_ops(&mut r)?,
            },
            HF_DEL_QUERY => HorMsg::TupleDelQuery {
                attrs: get_attrs(&mut r)?,
                queries: get_ops(&mut r)?,
            },
            HF_DEL_REPLY => {
                let n = r.u16()? as usize;
                let mut bvals = Vec::with_capacity(n);
                for _ in 0..n {
                    let o = r.u32()? as OpId;
                    let k = r.u16()? as usize;
                    let mut vs = Vec::with_capacity(k);
                    for _ in 0..k {
                        vs.push(wirefmt::get_wire_value(&mut r)?);
                    }
                    bvals.push((o, vs));
                }
                HorMsg::DelReply { bvals }
            }
            HF_CLEAR => HorMsg::ClearFlags {
                attrs: get_attrs(&mut r)?,
                cfds: get_ops(&mut r)?,
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
/// class's RHS *value* is not kept: any member's row has it
/// ([`class_values`]).
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

/// Per-site, per-operator state of one `X`-value group: its RHS classes
/// and whether the *global* group violates (uniform across sites, and
/// across the operator's CFDs the group key matches). One class
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

    /// Members of class `bd` (0: the group has no such class). What
    /// [`site::Site::try_settle`] reads: an insert into a populated class,
    /// or a delete that leaves one populated, changes nothing a peer sees.
    pub(crate) fn class_len(&self, bd: Digest) -> usize {
        match self {
            GroupState::Few { bd: b, len, .. } if *b == bd => usize::from(*len),
            GroupState::One { bd: b, tids, .. } if *b == bd => tids.len(),
            GroupState::Many { classes, .. } => classes.get(&bd).map_or(0, |c| c.members().len()),
            _ => 0,
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

/// What one operator's insertion case analysis asks of the peers.
pub(crate) enum Ship {
    /// Decided locally — the zero-shipment cases.
    Nothing,
    /// A brand-new local conflict: every remote group of the operator
    /// flips.
    Probe,
    /// The group is locally unknown: ask whether anyone conflicts.
    Query,
}

/// The §6 insertion case analysis at one site for one operator, given the
/// inserted tuple `tid`'s group-key and RHS digests. `cfds` are the
/// operator's CFDs whose pattern the group key matches (at least one):
/// they share the group, so the analysis runs once and only what it
/// writes to `V` fans out over them.
pub(crate) fn insert_case(
    groups: &mut FxHashMap<Digest, GroupState>,
    (v, dv): (&mut Violations, &mut DeltaV),
    cfds: &[CfdId],
    tid: Tid,
    (kd, bd): (Digest, Digest),
    local_only: bool,
) -> Ship {
    let g = match groups.entry(kd) {
        Entry::Vacant(e) => {
            // Group unknown locally.
            e.insert(GroupState::new(bd, tid));
            return if local_only {
                Ship::Nothing
            } else {
                Ship::Query
            };
        }
        Entry::Occupied(e) => e.into_mut(),
    };
    let (has_other, was_violating) = (g.has_other(bd), g.violating());
    g.insert(bd, tid);
    if was_violating {
        // Everyone concerned is already in V (≥ 2 classes, or a known
        // remote conflict): only t is new. Zero shipment — Examples
        // 2(1)(b)/9.
        add_marks(cfds, tid, v, dv);
    } else if has_other {
        // One clashing class and the group was satisfied: a brand-new
        // conflict. Everyone in the group joins V.
        mark_group(g, cfds, v, dv);
        if !local_only {
            return Ship::Probe;
        }
    }
    // else: a satisfied single class agreeing with t.
    Ship::Nothing
}

/// The §6 deletion case analysis at one site for one operator, given the
/// deleted tuple `tid`'s group-key and RHS digests; `cfds` as for
/// [`insert_case`]. `Ok(true)` when only the peers can tell whether the
/// group still violates. `Err` says what the state no longer holds — a
/// tuple that is in the rows was entered into its groups, so this is state
/// an earlier failed `apply` left behind — and nothing was touched.
pub(crate) fn delete_case(
    groups: &mut FxHashMap<Digest, GroupState>,
    (v, dv): (&mut Violations, &mut DeltaV),
    cfds: &[CfdId],
    tid: Tid,
    (kd, bd): (Digest, Digest),
    local_only: bool,
) -> Result<bool, &'static str> {
    let g = groups.get_mut(&kd).ok_or("group")?;
    let was_violating = g.violating();
    let (class_empty, n_rem) = g.remove(bd, tid).ok_or("RHS class")?;
    if n_rem == 0 {
        // An empty group carries no information — future inserts will
        // re-query — so it is dropped, and with it the map's slack once
        // deletes dominate: state stays proportional to the live fragment.
        groups.remove(&kd);
        shrink_if_sparse!(groups);
    }
    if !was_violating {
        return Ok(false); // deletions never create violations
    }
    // t was a violation; it leaves V in every remaining case.
    drop_marks(cfds, tid, v, dv);
    if !class_empty || n_rem >= 2 {
        // Same-RHS witness survives or ≥2 local RHS values remain: global
        // multiplicity still ≥ 2. Zero shipment — Example 2(2).
        return Ok(false);
    }
    if local_only {
        // Global = local: the group dropped to ≤ 1 RHS value.
        if let Some(g) = groups.get_mut(&kd) {
            clear_group(g, cfds, v, dv);
        }
    }
    Ok(!local_only)
}

/// Clear a group's violating flag: its members leave `V(φ)` for every
/// matched CFD `φ` of its operator.
pub(crate) fn clear_group(g: &mut GroupState, cfds: &[CfdId], v: &mut Violations, dv: &mut DeltaV) {
    g.set_violating(false);
    g.for_each_member(|m| drop_marks(cfds, m, v, dv));
}

/// Raise a group's flag: every member joins `V(φ)` for every matched CFD
/// `φ` of its operator.
pub(crate) fn mark_group(g: &mut GroupState, cfds: &[CfdId], v: &mut Violations, dv: &mut DeltaV) {
    g.set_violating(true);
    g.for_each_member(|m| add_marks(cfds, m, v, dv));
}

/// `tid` joins `V(φ)` for each `φ` of `cfds`.
pub(crate) fn add_marks(cfds: &[CfdId], tid: Tid, v: &mut Violations, dv: &mut DeltaV) {
    for &c in cfds {
        if v.add(c, tid) {
            dv.add(c, tid);
        }
    }
}

/// `tid` leaves `V(φ)` for each `φ` of `cfds`.
fn drop_marks(cfds: &[CfdId], tid: Tid, v: &mut Violations, dv: &mut DeltaV) {
    for &c in cfds {
        if v.remove(c, tid) {
            dv.remove(c, tid);
        }
    }
}

/// The `DelReply` payload of one group of operator `op` (`→ rhs`) at
/// `site`: each class's RHS value, read through a member's row in `rows`,
/// the store the site's driver hands it. The machine stores an inserted
/// row *before* it touches group state, so a class always has a member to
/// read; one that has none means the state contradicts the rows, and the
/// error text says where.
pub(crate) fn class_values(
    g: &GroupState,
    rows: &Relation,
    (site, op, rhs, kd): (SiteId, OpId, AttrId, Digest),
    mut encode: impl FnMut(&Value) -> WireValue,
) -> Result<Vec<WireValue>, String> {
    let mut vals = Vec::new();
    let mut orphan = false;
    g.for_each_class(
        |_, members| match members.first().and_then(|tid| rows.value_at(tid, rhs)) {
            Some(v) => vals.push(encode(v)),
            None => orphan = true,
        },
    );
    if orphan {
        return Err(format!(
            "site {site}: a class of operator {op} group {} has no member among the rows",
            kd.to_hex()
        ));
    }
    Ok(vals)
}

/// What the §6 group state holds and what it costs: a census over every
/// `(site, operator)` map, `O(state)` when asked for and free otherwise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StateCensus {
    /// Live `(site, operator, X-value)` groups.
    pub groups: usize,
    /// RHS classes over all groups.
    pub classes: usize,
    /// `(operator, tid)` memberships over all classes.
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
    /// Add one `(site, operator)` group map.
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

/// The incremental violation detector for horizontally partitioned data:
/// every site's `Site` machine and the one relation they all store into in
/// one struct, one thread driving all rounds synchronously over the
/// session's transport.
pub struct HorizontalDetector {
    cfg: SiteConfig,
    scheme: HorizontalScheme,
    sites: Vec<Site>,
    /// Which site is home to each live tuple.
    site_of_tid: FxHashMap<Tid, SiteId>,
    /// The logical relation, and the only copy of its rows: site `i`'s
    /// fragment `σ_{F_i}(D)` is the rows `site_of_tid` maps to `i`, and
    /// every machine's steps are handed this store.
    current: Relation,
    violations: Violations,
    /// The substrate protocol rounds ride on: the simulated metered
    /// [`Network`] or a real [`ByteNetwork`] (framed in-process channels
    /// or TCP sockets) that serializes every [`HorMsg`] to bytes.
    net: Box<dyn MsgTransport<HorMsg>>,
    transport: TransportKind,
    codec: CodecKind,
    sharing: SharingMode,
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
            TransportKind::Tcp => {
                Box::new(ByteNetwork::tcp_localhost(n)?.with_compression(codec.compression()))
            }
        };
        let cfg = SiteConfig::new(schema.clone(), cfds, &scheme);
        let mut det = HorizontalDetector {
            sites: (0..n).map(|i| Site::new(cfg.clone(), i, codec)).collect(),
            site_of_tid: FxHashMap::default(),
            current: Relation::new(schema),
            violations: Violations::new(cfg.cfds.len()),
            net,
            transport,
            codec,
            sharing: SharingMode::default(),
            cfg,
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
        self.codec
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
        &self.cfg.cfds
    }

    /// The merged multi-CFD evaluation plan.
    pub fn shared_plan(&self) -> &Arc<SharedPlan> {
        &self.cfg.plan
    }

    /// Current multi-CFD evaluation mode.
    pub fn sharing_mode(&self) -> SharingMode {
        self.sharing
    }

    /// Select the multi-CFD evaluation mode. Both modes produce
    /// bit-identical violations, `ΔV` and shipments — [`SharingMode::PerCfd`]
    /// only re-enables the legacy `O(|Σ| · |X|)` scan as the tests'
    /// reference.
    pub fn set_sharing(&mut self, mode: SharingMode) {
        self.sharing = mode;
        self.sites.iter_mut().for_each(|s| s.sharing = mode);
    }

    /// The global schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.cfg.schema
    }

    /// The logical relation (`scheme.partition` of it materialises any
    /// fragment a caller wants).
    pub fn current(&self) -> &Relation {
        &self.current
    }

    /// Apply a batch update `ΔD`, returning `ΔV` — algorithm `incHor`:
    /// each update runs at its home site's machine, and one that opens a
    /// round is driven to its end before the next begins.
    pub fn apply(&mut self, delta: &UpdateBatch) -> Result<DeltaV, DetectError> {
        let delta = crate::detector::admit(&self.current, delta)?;
        let homes = self.route(&delta)?;
        self.apply_routed(&delta, homes)
    }

    /// The home of every insert of an admitted batch, in batch order. All
    /// are routed before the first is stored, so an unroutable tuple fails
    /// its batch whole.
    pub(crate) fn route(&self, delta: &UpdateBatch) -> Result<Vec<SiteId>, DetectError> {
        let homes = delta.insertions().map(|t| self.scheme.route(t));
        Ok(homes.collect::<Result<_, _>>()?)
    }

    /// [`apply`](Self::apply) for an admitted batch and the
    /// [`route`](Self::route) of it.
    pub(crate) fn apply_routed(
        &mut self,
        delta: &UpdateBatch,
        homes: Vec<SiteId>,
    ) -> Result<DeltaV, DetectError> {
        let mut homes = homes.into_iter();
        let mut dv = DeltaV::default();
        for op in delta.ops() {
            let (rows, sink) = (&mut self.current, (&mut self.violations, &mut dv));
            let (home, opened) = match op {
                Update::Insert(t) => {
                    let home = homes.next().expect("one home per insert");
                    let opened = self.sites[home].begin_insert(t, rows, sink)?;
                    self.site_of_tid.insert(t.tid, home);
                    (home, opened)
                }
                Update::Delete(tid) => {
                    let home = self.site_of_tid.remove(tid);
                    let home = home.ok_or(RelError::MissingTid(*tid))?;
                    (home, self.sites[home].begin_delete(*tid, rows, sink)?)
                }
            };
            if let Some((mut round, requests)) = opened {
                self.serve(home, requests, &mut dv)?;
                for (from, reply) in self.net.try_drain(home)? {
                    self.sites[home].on_reply(&mut round, from, reply)?;
                }
                let clears = self.sites[home].finish(round, (&mut self.violations, &mut dv))?;
                self.serve(home, clears, &mut dv)?;
            }
        }
        debug_assert!(self.net.quiescent(), "protocol rounds must complete");
        dv.settle();
        Ok(dv)
    }

    /// Ship `home`'s requests; each peer serves its own at once (the
    /// rounds are synchronous) and whatever it replies is shipped back.
    fn serve(
        &mut self,
        home: SiteId,
        requests: Vec<(SiteId, HorMsg)>,
        dv: &mut DeltaV,
    ) -> Result<(), DetectError> {
        for (j, request) in requests {
            self.net.send(home, j, request)?;
            for (from, msg) in self.net.try_drain(j)? {
                let sink = (&mut self.violations, &mut *dv);
                if let Some(reply) = self.sites[j].on_request(from, msg, &self.current, sink)? {
                    self.net.send(j, from, reply)?;
                }
            }
        }
        Ok(())
    }

    /// Census of the §6 group state over every site: what it holds and
    /// the heap bytes it keeps resident. `O(state)`; nothing is counted
    /// unless this is called.
    pub fn state_census(&self) -> StateCensus {
        let mut census = StateCensus::default();
        self.sites.iter().for_each(|s| s.count_into(&mut census));
        census
    }

    /// Symbols resident per receiving link, `[dst][src]` flattened.
    #[cfg(test)]
    pub(crate) fn resident_symbols(&self) -> Vec<usize> {
        let links = self.sites.iter().flat_map(Site::resident_symbols);
        links.collect()
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
    use super::fixtures::{d0, emp_schema, emp_tuple, fig1_cfds, fig2_scheme};
    use super::*;

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
}
