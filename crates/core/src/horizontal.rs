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
//! from one thread over a [`MsgTransport`] — rounds pipelined across a
//! batch, below — and hands every one of them its single logical
//! relation; the thread-per-site runtime
//! ([`crate::concurrent`]) drives one per thread behind its wave scheduler
//! and hands it the fragment that thread holds — and is the one caller of
//! the sixth step, which lets a site apply on arrival every update of a
//! batch that no peer could tell from its absence. Both have no path to
//! group state but these:
//!
//! | step | called by | in | `rows` | out | the paper's case |
//! |---|---|---|---|---|---|
//! | `classify(own)` | the driver, at the update's home site, before anything mutates | — (the inserted tuple, or a delete's stored tuple, read once for both halves) | — | the candidates and their RHS digests, kept in the own-update scratch — whatever the site serves meanwhile — until the update begins; the driver reads off them what the `order` rule asks: the footprint, whether the update *writes* (creates or empties a local RHS class), and the reach of a round it opens | which operators and groups the update touches |
//! | `begin_classified(own, may_ship, rows)` | the driver, once the update may run | — | an insert's row is stored first thing; a delete's is dropped once its groups let go | nothing, or an open round and one `TupleProbe` / `TupleDelQuery` per relevant peer (a [`DetectError::Internal`] if the driver ran it as class-preserving) | insertion / deletion case analysis, once per matched operator; *nothing* is Examples 2(1)(b), 2(2) and 9: a local same-RHS witness or an already-violating group decides |
//! | `on_request(src, msg, rows)` | whoever took `msg` off the `src →` link | `TupleProbe`, `TupleDelQuery`, `ClearFlags`, each listing operator ids | read only, and only for a `TupleDelQuery`: the RHS value of each class of a queried group, through one of its members | `ProbeReply` / `DelReply` by operator id, or nothing (a silent round) | the receiving half of each exchange, one group lookup per operator: flip or report conflicting groups, report distinct RHS values, clear flags — and only where a flag flips or clears, the pattern check that says which CFDs' marks to write |
//! | `on_reply(round, src, msg)` | the driver, per reply to an open round | `ProbeReply`, `DelReply` | — | — | fold: which queried operators' groups conflict somewhere, which RHS values remain and who holds them |
//! | `finish(round, rows)` | the driver, once every asked peer answered or stayed silent | — | read only, to name by tid the members of a group a delete clears (the deleted tuple, and the matched CFD ids of every queried operator, travel in the round) | insert: flags raised, nothing to ship; delete: the decision, plus one coalesced `ClearFlags` per peer still holding a group that stopped violating | the round's conclusion, its marks fanned out to the operator's matched CFDs |
//! | `settle(slice, rows, held)` | the threaded runtime, at every site, once per batch before any round of it opens | — | as `begin_classified` for what it applies; a deferred update touches nothing | the deferred updates' slice positions, each with one bit: does it write, or is it only held behind a deferred update of the slice | the zero-shipment cases told apart *before* the case analysis runs: an update whose RHS class is populated before and after it (`GroupState::class_len`, plus what the slice's deferred updates will add or remove) ships nothing whatever the group's flag and leaves unchanged everything a peer's request reads — the set of classes and the flag — so it is applied through the same `insert_case` / `delete_case`, which must ship nothing |
//!
//! The machine enforces, for every driver:
//!
//! * **Row before group state, and the machine stores both.** The driver
//!   owns `rows` but neither inserts nor deletes: `begin_classified` stores
//!   an inserted row before any class that could be asked for its RHS
//!   value exists, and drops a deleted one only after its groups let go of
//!   it. A machine
//!   reads no row but the one being deleted and members of its own
//!   classes — rows it inserted itself — so `n` machines may share one
//!   store or hold one each.
//! * **Row ids inside, tids at the edge.** A class member is the row id
//!   the store handed out for it (`RowId`, 4 bytes, dense: a freed row is
//!   handed out again). A tid appears only where a mark enters `ΔV`
//!   (`add_marks`, `drop_marks`, and `mark_group` / `clear_group`, which
//!   name each member by `ColumnStore::tid_of`), where a delete looks up
//!   its row, and on the wire. A freed row may be taken again within the
//!   same batch — the two orders above mean no group names it meanwhile —
//!   and a round carries its update's tid and tuple, never a row, so a
//!   round in flight cannot name a row another update took.
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
//! **The build.** `V(Σ, D₀)` is where both drivers start, not a stream
//! they negotiate: `site::build` computes, over `n` machines and
//! before any transport exists, what replaying `D₀` as inserts in tid
//! order through the steps above would leave — in two local passes and
//! with no message. Pass 1 routes each row, classifies it once at its home
//! and enters it into the home's group maps and the constant CFDs' marks;
//! pass 2, once per operator, raises a group's flag iff its classes across
//! all sites hold ≥ 2 distinct RHS digests — the global fact every flag
//! stands for — and marks its members. A codec with per-link state (the
//! dictionary) is warmed in pass 1: `insert_ship`, the case analysis's own
//! rule, says which rows the replay would have shipped, and their payloads
//! are encoded and decoded on each link they would have crossed, so every
//! link's dictionary holds the replay's symbols. The build keys on the
//! rows each machine will be handed, stored before it runs: `Build::new`
//! takes each site's store. [`HorizontalDetector`] hands every site its
//! one store, a clone of `D₀`, and keeps it with the `n` machines; the
//! thread-per-site runtime routes `D₀` into one fragment per site first
//! and moves each machine to its thread with its fragment, and each
//! process of a multi-process session runs the same build from the same
//! parameters and keeps its own machine.
//!
//! # The sequential driver: rounds in flight across a batch
//!
//! [`HorizontalDetector`] runs a batch in one loop. Each update is
//! classified and begun at its home in batch order. A round it opens sends
//! its request to every asked peer at once and stays in flight, entered in
//! an `order::Ledger` with its tid and its *reach*: the footprint keys
//! whose whole `X` the requests carry, all a peer can derive a key for. The
//! loop *drains* — serves every site's inbox, folds each reply into its
//! round through the link's FIFO slot queue, finishes the rounds and waits
//! out the `ClearFlags` they send — before an update whose
//! `order::verdict` against an open round is not `Commutes` (a shared
//! tid; a shared key at its own home; a shared key, and it writes — exact
//! here, every earlier update having begun), when `concurrent::WINDOW`
//! (128) rounds are open, and when the batch ends. Any other update runs at
//! once, and a round it opened would be a [`DetectError::Internal`]. Open
//! rounds thus never share a key or a tid, and the order a site serves them
//! in leaves the state, the replies and the per-link traffic of the
//! blocking schedule (one update at a time, `apply_one`). What it saves is
//! waiting: over TCP a drain waits once per busy inbox where the blocking
//! drive waited a round trip per peer of every shipping update —
//! `detbench`'s `hor_tcp_skew` `D₀`, replayed into an empty detector in
//! 4 096-op windows, opens 10 088 rounds and drains 1 752 times. A batch
//! that fails runs the rounds earlier updates opened to
//! their end (unless a drain is what failed) and discards whatever is
//! still in flight: it leaves every link idle.
//!
//! # State layout
//!
//! Each `(site, operator)` owns one `FxHashMap<Digest, GroupState<Digest>>`:
//! one class and ≤ 3 member rows inline, hashed spills beyond, RHS values
//! read back from the rows (`class_values`). The container, its layout table
//! and its thresholds live in `crate::group`, shared with §4's IDX;
//! [`HorizontalDetector::state_census`] counts it.

use crate::concurrent::WINDOW;
use crate::detector::{DetectError, Detector};
use crate::group::{shrink_if_sparse, GroupState, StateCensus};
use cfd::{Cfd, CfdId, DeltaV, OpId, SharedPlan, Violations};
use cluster::codec::{CodecKind, WireValue};
use cluster::md5::Digest;
use cluster::net::{bytes as wirefmt, ByteNetwork, FrameCodec, TransportKind};
use cluster::partition::HorizontalScheme;
use cluster::{ClusterError, Meters, MsgTransport, Network, SiteId, Wire};
use order::{Ledger, Party, Verdict};
use relation::{AttrId, ColumnStore, FxHashMap, Relation, RowId, Schema, Tid, UpdateBatch, Value};
use site::{Own, Round, Site, SiteConfig};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::sync::Arc;

#[cfg(test)]
pub(crate) mod fixtures;
pub(crate) mod order;
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

/// `(attr, payload)` pairs: a count, then each payload behind its
/// attribute's header.
fn put_attrs(out: &mut Vec<u8>, attrs: &[(AttrId, WireValue)]) {
    wirefmt::put_varint(out, attrs.len() as u64);
    for (a, w) in attrs {
        wirefmt::put_wire_value(out, *a, w);
    }
}

fn get_attrs(r: &mut wirefmt::Reader<'_>) -> Result<Vec<(AttrId, WireValue)>, ClusterError> {
    let n = r.count()?;
    (0..n).map(|_| wirefmt::get_wire_value(r)).collect()
}

fn put_ops(out: &mut Vec<u8>, ops: &[OpId]) {
    wirefmt::put_varint(out, ops.len() as u64);
    ops.iter()
        .for_each(|&o| wirefmt::put_varint(out, u64::from(o)));
}

fn get_ops(r: &mut wirefmt::Reader<'_>) -> Result<Vec<OpId>, ClusterError> {
    let n = r.count()?;
    (0..n).map(|_| r.id("operator id")).collect()
}

/// Real byte framing for the §6 protocol: every [`HorMsg`] serializes to
/// a self-describing frame body and decodes from received bytes alone,
/// in the compact forms of [`cluster::net::bytes`] — `v(x)` a canonical
/// varint, `wire(a)` a [`WireValue`] behind its one-varint header
/// `(a << 2) | kind`:
///
/// ```text
/// TupleProbe     00 v(n) n × wire(attr)  v(m) m × v(op)   probes
/// ProbeReply     01 v(m) m × v(op)                        conflicts
/// TupleDelQuery  02 v(n) n × wire(attr)  v(m) m × v(op)   queries
/// DelReply       03 v(m) m × (v(op) v(k) k × wire(0))     RHS values
/// ClearFlags     04 v(n) n × wire(attr)  v(m) m × v(op)   operators
/// ```
///
/// Every count is checked against the bytes left before it sizes an
/// allocation, and an id past its type is refused, so the decoder takes
/// exactly what the encoder writes. The frame is not the `|M|` model of
/// [`Wire::wire_size`] — that charges 2 bytes an attribute id, 4 an
/// operator id and 8 an integer — and the node that ships it books the
/// difference.
impl FrameCodec for HorMsg {
    fn encode_frame(&self, out: &mut Vec<u8>) {
        match self {
            HorMsg::TupleProbe { attrs, probes } => {
                out.push(HF_PROBE);
                put_attrs(out, attrs);
                put_ops(out, probes);
            }
            HorMsg::ProbeReply { conflicts } => {
                out.push(HF_PROBE_REPLY);
                put_ops(out, conflicts);
            }
            HorMsg::TupleDelQuery { attrs, queries } => {
                out.push(HF_DEL_QUERY);
                put_attrs(out, attrs);
                put_ops(out, queries);
            }
            HorMsg::DelReply { bvals } => {
                out.push(HF_DEL_REPLY);
                wirefmt::put_varint(out, bvals.len() as u64);
                for (o, vs) in bvals {
                    wirefmt::put_varint(out, u64::from(*o));
                    wirefmt::put_varint(out, vs.len() as u64);
                    vs.iter().for_each(|v| wirefmt::put_wire_value(out, 0, v));
                }
            }
            HorMsg::ClearFlags { attrs, cfds } => {
                out.push(HF_CLEAR);
                put_attrs(out, attrs);
                put_ops(out, cfds);
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
                let n = r.count()?;
                let mut bvals = Vec::with_capacity(n);
                for _ in 0..n {
                    let o = r.id("operator id")?;
                    let k = r.count()?;
                    let mut vs = Vec::with_capacity(k);
                    for _ in 0..k {
                        let (0, v) = wirefmt::get_wire_value(&mut r)? else {
                            return Err(ClusterError::Transport(
                                "malformed frame payload: an RHS value names an attribute".into(),
                            ));
                        };
                        vs.push(v);
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

/// What the §6 insertion case analysis asks of the peers, from what the
/// inserted tuple finds in its home group before it joins: `None` for a
/// group unknown locally, else whether the group holds another RHS class
/// and whether it violates. [`insert_case`] runs by it, and so does the
/// direct build where it decides which rows a replay would have shipped.
pub(crate) fn insert_ship(found: Option<(bool, bool)>, local_only: bool) -> Ship {
    match found {
        _ if local_only => Ship::Nothing,
        None => Ship::Query,
        // One clashing class and the group was satisfied: a brand-new
        // conflict.
        Some((true, false)) => Ship::Probe,
        // Already violating (Examples 2(1)(b)/9), or a satisfied single
        // class agreeing with t.
        Some(_) => Ship::Nothing,
    }
}

/// The §6 insertion case analysis at one site for one operator, given the
/// inserted tuple's stored `row` in `rows` and its group-key and RHS
/// digests. `cfds` are the operator's CFDs whose pattern the group key
/// matches (at least one): they share the group, so the analysis runs once
/// and only the marks it records in `ΔV` fan out over them.
pub(crate) fn insert_case(
    groups: &mut FxHashMap<Digest, GroupState<Digest>>,
    (rows, dv): (&ColumnStore, &mut DeltaV),
    cfds: &[CfdId],
    row: RowId,
    (kd, bd): (Digest, Digest),
    local_only: bool,
) -> Ship {
    let g = match groups.entry(kd) {
        Entry::Vacant(e) => {
            e.insert(GroupState::new(bd, row));
            return insert_ship(None, local_only);
        }
        Entry::Occupied(e) => e.into_mut(),
    };
    let (has_other, was_violating) = (g.has_other(bd), g.violating());
    g.insert(bd, row);
    if was_violating {
        // Everyone concerned is already in V (≥ 2 classes, or a known
        // remote conflict): only t is new.
        add_marks(cfds, rows.tid_of(row), dv);
    } else if has_other {
        // Everyone in the group joins V.
        mark_group(g, cfds, rows, dv);
    }
    insert_ship(Some((has_other, was_violating)), local_only)
}

/// The §6 deletion case analysis at one site for one operator, given the
/// deleted tuple's `row` in `rows` — still stored: its groups let go of it
/// first — and its group-key and RHS digests; `cfds` as for
/// [`insert_case`]. `Ok(true)` when only the peers can tell whether the
/// group still violates. `Err` says what the state no longer holds — a
/// tuple that is in the rows was entered into its groups, so this is state
/// an earlier failed `apply` left behind — and nothing was touched.
pub(crate) fn delete_case(
    groups: &mut FxHashMap<Digest, GroupState<Digest>>,
    (rows, dv): (&ColumnStore, &mut DeltaV),
    cfds: &[CfdId],
    row: RowId,
    (kd, bd): (Digest, Digest),
    local_only: bool,
) -> Result<bool, &'static str> {
    let g = groups.get_mut(&kd).ok_or("group")?;
    let was_violating = g.violating();
    let (class_empty, n_rem) = g.remove(bd, row).ok_or("RHS class")?;
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
    drop_marks(cfds, rows.tid_of(row), dv);
    if !class_empty || n_rem >= 2 {
        // Same-RHS witness survives or ≥2 local RHS values remain: global
        // multiplicity still ≥ 2. Zero shipment — Example 2(2).
        return Ok(false);
    }
    if local_only {
        // Global = local: the group dropped to ≤ 1 RHS value.
        if let Some(g) = groups.get_mut(&kd) {
            clear_group(g, cfds, rows, dv);
        }
    }
    Ok(!local_only)
}

/// Clear a violating group's flag: its members — rows of `rows`, named
/// by their tids — leave `V(φ)` for every matched CFD `φ` of its
/// operator.
pub(crate) fn clear_group(
    g: &mut GroupState<Digest>,
    cfds: &[CfdId],
    rows: &ColumnStore,
    dv: &mut DeltaV,
) {
    g.set_violating(false);
    g.for_each_member(|m| drop_marks(cfds, rows.tid_of(m), dv));
}

/// Raise a satisfied group's flag: every member — a row of `rows`, named
/// by its tid — joins `V(φ)` for every matched CFD `φ` of its operator.
pub(crate) fn mark_group(
    g: &mut GroupState<Digest>,
    cfds: &[CfdId],
    rows: &ColumnStore,
    dv: &mut DeltaV,
) {
    g.set_violating(true);
    g.for_each_member(|m| add_marks(cfds, rows.tid_of(m), dv));
}

/// `tid` joins `V(φ)` for each `φ` of `cfds`.
pub(crate) fn add_marks(cfds: &[CfdId], tid: Tid, dv: &mut DeltaV) {
    cfds.iter().for_each(|&c| dv.add(c, tid));
}

/// `tid` leaves `V(φ)` for each `φ` of `cfds`.
fn drop_marks(cfds: &[CfdId], tid: Tid, dv: &mut DeltaV) {
    cfds.iter().for_each(|&c| dv.remove(c, tid));
}

/// The `DelReply` payload of one group of operator `op` (`→ rhs`) at
/// `site`: each class's RHS value, read through a member's row in `rows`,
/// the store the site's driver hands it. The machine stores an inserted
/// row *before* it touches group state, so a class always has a live
/// member to read; one that has none means the state contradicts the
/// rows, and the error text says where.
pub(crate) fn class_values(
    g: &GroupState<Digest>,
    rows: &ColumnStore,
    (site, op, rhs, kd): (SiteId, OpId, AttrId, Digest),
    mut encode: impl FnMut(&Value) -> WireValue,
) -> Result<Vec<WireValue>, String> {
    let mut vals = Vec::new();
    let mut orphan = false;
    g.for_each_class(
        |_, members| match members.first().filter(|&row| rows.is_live(row)) {
            Some(row) => vals.push(encode(rows.value(row, rhs))),
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

/// A round of the batch loop in flight: its home, the asked peers yet to
/// answer, the machine's round.
struct Open {
    home: SiteId,
    left: usize,
    round: Round,
}

/// The batch loop's rounds in flight and the links they ride. Kept between
/// batches — an `apply` that ships nothing allocates nothing here — and
/// empty between drains.
#[derive(Default)]
struct InFlight {
    /// Rounds in the order they opened, `None` once finished.
    slots: Vec<Option<Open>>,
    open: usize,
    /// Every open round, entered with its reach at wave 0: an update whose
    /// verdict against one is not `Commutes` waits for the next drain.
    ledger: Ledger,
    /// `[src][dst]`: the slots of the requests on the link, oldest first
    /// (a peer serves its inbox in arrival order) — and of the replies.
    asked: Vec<Vec<VecDeque<usize>>>,
    answering: Vec<Vec<VecDeque<usize>>>,
    /// A drain has begun and not ended: the tables may not match the links.
    draining: bool,
    /// Drains that waited on an open round, and rounds opened, since the
    /// last reset.
    waves: u64,
    opened: u64,
}

impl InFlight {
    fn new(n: usize) -> Self {
        let links = || vec![vec![VecDeque::new(); n]; n];
        let (asked, answering) = (links(), links());
        InFlight {
            asked,
            answering,
            ..InFlight::default()
        }
    }

    /// Every round is finished and every link idle.
    fn settle(&mut self) {
        self.slots.clear();
        self.ledger.clear();
        self.draining = false;
    }

    /// Forget every round and every frame: what a failed batch leaves.
    fn reset(&mut self) {
        self.settle();
        self.open = 0;
        let queues = self.asked.iter_mut().chain(&mut self.answering).flatten();
        queues.for_each(VecDeque::clear);
        self.ledger.give_back();
    }
}

/// The module docs' build, for a driver to take apart: `n` fresh machines
/// holding `D₀`'s group and codec state, and `V(Σ, D₀)`. It keys on the
/// rows each machine will be handed, stored before it runs, and the rows
/// stay the caller's: [`HorizontalDetector`] builds over its own clone of
/// `D₀`, the one store of every site, and keeps it; the thread-per-site
/// runtime routes `D₀` into one fragment per site first, builds over
/// those, and moves each machine to its site with its fragment.
pub(crate) struct Build {
    pub(crate) cfg: SiteConfig,
    pub(crate) sites: Vec<Site>,
    pub(crate) violations: Violations,
}

impl Build {
    /// Build over `D₀` already stored, with no transport in existence, so
    /// nothing can be sent: `rows[i]` is the store site `i`'s steps will
    /// be handed — holding at least the rows it is home to — and `homes`
    /// every row's tid and home, ascending by tid ([`homes`]). Every
    /// member of the state built is a row id of its site's store.
    pub(crate) fn new(
        schema: Arc<Schema>,
        cfds: Vec<Cfd>,
        scheme: &HorizontalScheme,
        rows: &[&Relation],
        homes: impl IntoIterator<Item = Result<(Tid, SiteId), DetectError>>,
        codec: CodecKind,
    ) -> Result<Self, DetectError> {
        let n = scheme.n_sites();
        let cfg = SiteConfig::new(schema, cfds, scheme);
        let mut sites: Vec<Site> = (0..n).map(|i| Site::new(cfg.clone(), i, codec)).collect();
        let mut violations = Violations::new(cfg.cfds.len());
        site::build(&mut sites, rows, homes, &mut violations)?;
        Ok(Build {
            cfg,
            sites,
            violations,
        })
    }
}

/// Every row of `d` with its home under `scheme`, ascending by tid: routed
/// off the store's columns, with no tuple built. An unroutable row is the
/// scheme's [`ClusterError::Routing`].
pub(crate) fn homes<'a>(
    scheme: &'a HorizontalScheme,
    d: &'a Relation,
) -> impl Iterator<Item = Result<(Tid, SiteId), DetectError>> + 'a {
    let store = d.store();
    d.scan().map(move |(tid, row)| {
        let home = scheme.route_with(tid, &|a| store.value(row, a))?;
        Ok((tid, home))
    })
}

/// The incremental violation detector for horizontally partitioned data:
/// every site's `Site` machine and the one relation they all store into in
/// one struct, one thread driving every round over the session's
/// transport, pipelined across the batch.
pub struct HorizontalDetector {
    cfg: SiteConfig,
    scheme: HorizontalScheme,
    sites: Vec<Site>,
    /// The logical relation, and the only copy of its rows: site `i`'s
    /// fragment `σ_{F_i}(D)` is the rows `scheme` routes to `i`, and every
    /// machine's steps are handed this store.
    current: Relation,
    violations: Violations,
    /// The substrate protocol rounds ride on: the simulated metered
    /// [`Network`] or a real [`ByteNetwork`] (framed in-process channels
    /// or TCP sockets) that serializes every [`HorMsg`] to bytes.
    net: Box<dyn MsgTransport<HorMsg>>,
    flight: InFlight,
    codec: CodecKind,
}

impl HorizontalDetector {
    /// Build a detector over `d` shipping values with `codec` —
    /// [`CodecKind::Md5`] (the §6 optimization), [`CodecKind::RawValues`]
    /// (the unoptimized variant) or [`CodecKind::Dict`] (symbols on the
    /// wire, one-time per-link dictionary deltas) — over `transport`.
    /// With [`TransportKind::Framed`] or [`TransportKind::Tcp`] every
    /// protocol message is serialized to a length-prefixed byte frame,
    /// shipped through the chosen link (in-process channel or localhost
    /// socket), and decoded at the receiving site from the bytes alone;
    /// the detector then meters modeled `|M|` and measured on-wire bytes
    /// side by side ([`HorizontalDetector::meters`]).
    ///
    /// `V(Σ, D₀)` and every site's group and codec state are built from `d`
    /// directly — a clone of its store, two local passes, no round and no
    /// frame (the module docs' build) — and only then is the transport
    /// opened. They equal what replaying `d` as inserts in tid order would
    /// leave. An unroutable tuple of `d` is the scheme's
    /// [`ClusterError::Routing`], one of another arity a
    /// [`RelError::ArityMismatch`](relation::RelError::ArityMismatch);
    /// neither leaves a detector behind.
    pub fn new(
        schema: Arc<Schema>,
        cfds: Vec<Cfd>,
        scheme: HorizontalScheme,
        d: &Relation,
        codec: CodecKind,
        transport: TransportKind,
    ) -> Result<Self, DetectError> {
        crate::detector::positional(&cfds)?;
        let current = d.clone_under(schema.clone())?;
        // One store, and every site is handed it.
        let rows = vec![&current; scheme.n_sites()];
        let homes = homes(&scheme, &current);
        let Build {
            cfg,
            sites,
            violations,
        } = Build::new(schema, cfds, &scheme, &rows, homes, codec)?;
        // Only now is there a transport: the build cannot send.
        let n = sites.len();
        let net: Box<dyn MsgTransport<HorMsg>> = match transport {
            TransportKind::Simulated => Box::new(Network::new(n)),
            TransportKind::Framed => Box::new(ByteNetwork::in_memory(n)),
            TransportKind::Tcp => Box::new(ByteNetwork::tcp_localhost(n)?),
        };
        Ok(HorizontalDetector {
            sites,
            current,
            violations,
            net,
            flight: InFlight::new(n),
            codec,
            cfg,
            scheme,
        })
    }

    /// The payload codec this session ships values with.
    pub fn codec_kind(&self) -> CodecKind {
        self.codec
    }

    /// Traffic since construction (or last reset): modeled `|M|`, and
    /// the measured bytes when the session runs over a real byte
    /// transport.
    pub fn meters(&self) -> &Meters {
        self.net.meters()
    }

    /// Drains since the last reset that waited on at least one open round:
    /// the sequential drive's barrier rounds, as
    /// [`ConcurrentHorizontal::waves`](crate::ConcurrentHorizontal::waves)
    /// counts the threaded drive's. Per batch that ships, one at its end,
    /// plus one per update that could observe a round still in flight and
    /// one per window of rounds open at once. Deterministic.
    pub fn waves(&self) -> u64 {
        self.flight.waves
    }

    /// The merged multi-CFD evaluation plan.
    pub fn shared_plan(&self) -> &Arc<SharedPlan> {
        &self.cfg.plan
    }

    /// The home of every insert of an admitted batch, in batch order. All
    /// are routed before the first is stored, so an unroutable tuple fails
    /// its batch whole.
    pub(crate) fn route(&self, delta: &UpdateBatch) -> Result<Vec<SiteId>, DetectError> {
        let homes = delta.insertions().map(|t| self.scheme.route(t));
        Ok(homes.collect::<Result<_, _>>()?)
    }

    /// [`apply`](Self::apply) for an admitted batch and the
    /// [`route`](Self::route) of it. A batch that fails leaves no round
    /// open and no frame in flight, and commits the `ΔV` it recorded.
    pub(crate) fn apply_routed(
        &mut self,
        delta: &UpdateBatch,
        homes: Vec<SiteId>,
    ) -> Result<DeltaV, DetectError> {
        let mut dv = DeltaV::default();
        let driven = self.drive(delta, homes, &mut dv);
        let driven = driven.map_err(|e| self.recover(e, &mut dv));
        self.flight.ledger.give_back();
        dv.settle();
        crate::detector::commit(&mut self.violations, &dv)?;
        driven.map(|()| dv)
    }

    /// The batch loop. Each update begins at its home in batch order, after
    /// a drain if it could observe a round still in flight; a round it
    /// opens sends every request at once and stays in flight until the
    /// next such update, a full window, or the end of the batch.
    fn drive(
        &mut self,
        delta: &UpdateBatch,
        homes: Vec<SiteId>,
        dv: &mut DeltaV,
    ) -> Result<(), DetectError> {
        let mut homes = homes.into_iter();
        for op in delta.ops() {
            if self.flight.open == WINDOW {
                self.drain(dv)?;
            }
            let own = Own::read(op, &self.current)?;
            let home = match &own {
                Own::Insert(t) => homes.next().ok_or_else(|| {
                    DetectError::Internal(format!("insert of tid {} was routed nowhere", t.tid))
                })?,
                // Where its insert was routed: the scheme is the session's.
                Own::Delete(t) => self.scheme.route(t)?,
            };
            self.sites[home].classify(&own);
            // Whether it writes is read only if another site's round meets it.
            let (site, mut writes) = (&self.sites[home], None);
            let (verdict, _) = self
                .flight
                .ledger
                .wait(home, op.tid(), site.footprint(), || {
                    *writes.get_or_insert_with(|| site.writes(&own))
                });
            let ordered = verdict != Verdict::Commutes;
            if ordered {
                self.drain(dv)?;
            }
            // Run at once behind another site's writer, it is
            // class-preserving and must not ship.
            let may_ship = ordered || writes != Some(false);
            let opened = self.sites[home].begin_classified(own, may_ship, &mut self.current, dv)?;
            let Some((round, requests)) = opened else {
                continue;
            };
            let (party, reach) = (Party { home, writes: true }, self.sites[home].reach());
            self.flight.ledger.enter(party, 0, op.tid(), reach);
            let slot = self.flight.slots.len();
            let left = requests.len();
            self.flight.slots.push(Some(Open { home, left, round }));
            self.flight.open += 1;
            self.flight.opened += 1;
            for (j, request) in requests {
                self.net.send(home, j, request)?;
                self.flight.asked[home][j].push_back(slot);
            }
        }
        self.drain(dv)
    }

    /// Run every open round to its end: serve each site's inbox, fold each
    /// reply into its round through the link's slot queue, finish a round
    /// once every asked peer has answered or stayed silent, and serve the
    /// `ClearFlags` it sends — until no frame is in flight.
    fn drain(&mut self, dv: &mut DeltaV) -> Result<(), DetectError> {
        self.flight.draining = true;
        self.flight.waves += u64::from(self.flight.open > 0);
        while let Some((_, dst, _)) = self.net.in_flight() {
            for (src, msg) in self.net.try_drain(dst)? {
                self.deliver(src, dst, msg, dv)?;
            }
        }
        if self.flight.open > 0 {
            let open = self.flight.open;
            let what = format!("{open} rounds still open with no frame in flight");
            return Err(DetectError::Internal(what));
        }
        self.flight.settle();
        Ok(())
    }

    /// Hand one frame to site `dst`: a request is served, its reply shipped
    /// back or its silence counted as the answer; a reply is folded into
    /// the oldest round still waiting on that link.
    fn deliver(
        &mut self,
        src: SiteId,
        dst: SiteId,
        msg: HorMsg,
        dv: &mut DeltaV,
    ) -> Result<(), DetectError> {
        let (kind, fl) = (msg.kind(), &mut self.flight);
        let stray =
            || ClusterError::Transport(format!("link {src} → {dst}: {kind} of no open round"));
        if let HorMsg::ProbeReply { .. } | HorMsg::DelReply { .. } = msg {
            let slot = fl.answering[src][dst].pop_front().ok_or_else(stray)?;
            let open = fl.slots[slot].as_mut().ok_or_else(|| {
                let what = format!("link {src} → {dst}: {kind} for slot {slot}, which is closed");
                DetectError::Internal(what)
            })?;
            self.sites[dst].on_reply(&mut open.round, src, msg)?;
            return self.answered(slot, dv);
        }
        // A `ClearFlags` ends its delete's exchange with that peer: no slot.
        let slot = match msg {
            HorMsg::ClearFlags { .. } => None,
            _ => Some(fl.asked[src][dst].pop_front().ok_or_else(stray)?),
        };
        let reply = self.sites[dst].on_request(src, msg, &self.current, dv)?;
        match (slot, reply) {
            (Some(slot), Some(reply)) => {
                self.net.send(dst, src, reply)?;
                self.flight.answering[dst][src].push_back(slot);
            }
            (Some(slot), None) => self.answered(slot, dv)?,
            (None, _) => {}
        }
        Ok(())
    }

    /// One asked peer of the round in `slot` has answered; the last one
    /// finishes it, and its home ships the `ClearFlags` it decides.
    fn answered(&mut self, slot: usize, dv: &mut DeltaV) -> Result<(), DetectError> {
        let closed =
            || DetectError::Internal(format!("an answer for slot {slot}, which is closed"));
        let open = self.flight.slots[slot].as_mut().ok_or_else(closed)?;
        open.left -= 1;
        if open.left > 0 {
            return Ok(());
        }
        let Open { home, round, .. } = self.flight.slots[slot].take().ok_or_else(closed)?;
        self.flight.open -= 1;
        for (j, clear) in self.sites[home].finish(round, &self.current, dv)? {
            self.net.send(home, j, clear)?;
        }
        Ok(())
    }

    /// After a batch failed with `e`: finish the rounds that earlier
    /// updates opened, as the blocking drive had before the failing update
    /// began — unless a drain was what failed, leaving tables that no
    /// longer match the links — then throw away whatever is still in
    /// flight, so that no later batch folds a stranded reply into a round
    /// of its own. A link the transport cannot empty is named.
    fn recover(&mut self, e: DetectError, dv: &mut DeltaV) -> DetectError {
        if !self.flight.draining {
            let _ = self.drain(dv);
        }
        // A pass over every inbox that takes nothing off the links ends it.
        let mut left = self.net.in_flight();
        while left.is_some() {
            for s in 0..self.sites.len() {
                let _ = self.net.try_drain(s);
            }
            let now = self.net.in_flight();
            if now == left {
                break;
            }
            left = now;
        }
        self.flight.reset();
        match left {
            None => e,
            Some((src, dst, k)) => DetectError::Internal(format!(
                "link {src} → {dst}: {k} frames left in flight by a failed batch ({e})"
            )),
        }
    }

    /// Census of the §6 group state over every site: what it holds and
    /// the heap bytes it keeps resident. `O(state)`; nothing is counted
    /// unless this is called.
    pub fn state_census(&self) -> StateCensus {
        site::census(&self.sites)
    }

    /// Symbols resident per receiving link, `[dst][src]` flattened.
    #[cfg(test)]
    pub(crate) fn resident_symbols(&self) -> Vec<usize> {
        let links = self.sites.iter().flat_map(Site::resident_symbols);
        links.collect()
    }

    /// `V` as the sites' group state and the rows imply it.
    #[cfg(test)]
    pub(crate) fn implied_violations(&self) -> Violations {
        let sites = self.sites.iter().map(|s| (s, &self.current));
        site::tests::implied_violations(sites, self.current.iter(), &self.cfg.cfds)
    }

    /// Every group's flag at every site, sorted by site, operator and key.
    #[cfg(test)]
    pub(crate) fn group_flags(&self) -> Vec<(SiteId, OpId, Digest, bool)> {
        let sites = self.sites.iter().enumerate();
        let flags = sites.flat_map(|(i, s)| s.flags().map(move |(op, kd, f)| (i, op, kd, f)));
        let mut flags: Vec<_> = flags.collect();
        flags.sort_unstable();
        flags
    }
}

impl Detector for HorizontalDetector {
    fn strategy(&self) -> &'static str {
        "incHor"
    }

    /// The global schema.
    fn schema(&self) -> &Arc<Schema> {
        &self.cfg.schema
    }

    /// The rule set.
    fn cfds(&self) -> &[Cfd] {
        &self.cfg.cfds
    }

    /// The logical relation (`scheme.partition` of it materialises any
    /// fragment a caller wants).
    fn current(&self) -> &Relation {
        &self.current
    }

    /// Current violation set `V(Σ, D)`.
    fn violations(&self) -> &Violations {
        &self.violations
    }

    /// Apply a batch update `ΔD`, returning `ΔV` — algorithm `incHor`:
    /// each update runs at its home site's machine in batch order, and a
    /// round it opens stays in flight until an update could observe it
    /// unfinished (the module docs' sequential driver).
    fn apply(&mut self, delta: &UpdateBatch) -> Result<DeltaV, DetectError> {
        let delta = crate::detector::admit(&self.current, delta)?;
        let homes = self.route(&delta)?;
        self.apply_routed(&delta, homes)
    }

    fn net(&self) -> cluster::NetReport {
        self.net
            .meters()
            .report("net")
            .with_codec(self.codec.name())
    }

    /// Reset network statistics and the wave count.
    fn reset_stats(&mut self) {
        self.net.reset_stats();
        self.flight.waves = 0;
        self.flight.opened = 0;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::fixtures::{d0, emp_schema, emp_tuple, fig1_cfds, fig2_scheme, simulated};
    use super::*;
    use relation::{Tuple, Update};

    fn detector() -> HorizontalDetector {
        let s = emp_schema();
        simulated(fig1_cfds(&s), fig2_scheme(&s), &d0(), CodecKind::Md5).unwrap()
    }

    #[test]
    fn initial_violations_match_fig1() {
        let det = detector();
        let v = det.violations();
        let mut phi1: Vec<Tid> = v.of_cfd(0).iter().collect();
        phi1.sort_unstable();
        assert_eq!(phi1, vec![1, 3, 4, 5]);
        assert_eq!(v.of_cfd(1).iter().collect::<Vec<_>>(), vec![1]);
        assert_eq!(det.meters().modeled.total_bytes(), 0, "load is unmetered");
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
        assert_eq!(det.meters().modeled.total_bytes(), 0);
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
        assert_eq!(det.meters().modeled.total_bytes(), 0);
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
        assert!(
            det.meters().modeled.total_bytes() > 0,
            "query round was needed"
        );
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
        let mut det = simulated(cfds, fig2_scheme(&s), &d0(), CodecKind::Md5).unwrap();
        det.reset_stats();
        let mut d = UpdateBatch::new();
        // Brand-new zip → every variable CFD queries.
        d.insert(emp_tuple(30, "A", 44, 131, "ZZ1 1ZZ", "Somewhere", "EDI"));
        det.apply(&d).unwrap();
        // 2 peers: ≤ 1 probe + ≤ 1 reply each.
        assert!(
            det.meters().modeled.total_messages() <= 4,
            "got {} messages",
            det.meters().modeled.total_messages()
        );
    }

    #[test]
    fn md5_codec_ships_fewer_bytes_than_raw() {
        let s = emp_schema();
        let mk =
            |codec: CodecKind| simulated(fig1_cfds(&s), fig2_scheme(&s), &d0(), codec).unwrap();
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
            det.meters().modeled.total_bytes()
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
        let mk =
            |codec: CodecKind| simulated(fig1_cfds(&s), fig2_scheme(&s), &d0(), codec).unwrap();
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
            (
                det.violations().marks_sorted(),
                det.meters().modeled.total_bytes(),
            )
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
        let mut det = simulated(cfds, scheme, &d0(), CodecKind::Md5).unwrap();
        let mut d = UpdateBatch::new();
        d.insert(emp_tuple(40, "A", 44, 131, "EH4 8LE", "Zig", "EDI"));
        d.insert(emp_tuple(41, "B", 44, 131, "ZZ9 9ZZ", "Zag", "EDI"));
        d.delete(5);
        d.delete(40);
        det.apply(&d).unwrap();
        assert_eq!(
            det.meters().modeled.total_bytes(),
            0,
            "X_{{F_i}} ⊆ X ⇒ no shipment"
        );
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
        let mut det = simulated(cfds, scheme, &d0(), CodecKind::Md5).unwrap();
        det.reset_stats();
        let mut d = UpdateBatch::new();
        d.insert(emp_tuple(50, "A", 44, 131, "NEW 111", "Foo", "EDI"));
        det.apply(&d).unwrap();
        // Only peer (CC=1) is irrelevant (F_j ∧ F_φ unsat) → nothing sent.
        assert_eq!(det.meters().modeled.total_messages(), 0);
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

    // -- what the batch loop keeps in flight, case by case ---------------

    /// `batch` over `d` through the batch loop and one update at a time
    /// (`apply_one` drains after every update: the blocking schedule). The
    /// settled `ΔV`, `V` (the oracle's) and the per-link traffic matrix
    /// agree, and the loop took `waves` drains.
    fn pipelined_as_blocking(d: &Relation, batch: &[Update], waves: u64, what: &str) {
        let s = emp_schema();
        let build = || simulated(fig1_cfds(&s), fig2_scheme(&s), d, CodecKind::Md5);
        let (mut piped, mut blocking) = (build().unwrap(), build().unwrap());
        let batch = UpdateBatch::from_ops(batch.to_vec());
        let dv = piped.apply(&batch).unwrap();
        let mut want = DeltaV::default();
        for op in batch.normalize(d).ops() {
            want.merge(Detector::apply_one(&mut blocking, op).unwrap());
        }
        assert_eq!(dv, want, "{what}: ΔV");
        let marks = piped.violations().marks_sorted();
        assert_eq!(marks, blocking.violations().marks_sorted(), "{what}: V");
        let oracle = cfd::naive::detect(piped.cfds(), piped.current());
        assert_eq!(marks, oracle.marks_sorted(), "{what}: the oracle's V");
        let (got, want) = (
            piped.meters().modeled.to_bytes(),
            blocking.meters().modeled.to_bytes(),
        );
        assert_eq!(got, want, "{what}: modeled |M| matrix");
        assert_eq!(piped.waves(), waves, "{what}: drains");
    }

    /// `d0` and more tuples.
    fn d0_with(more: &[Tuple]) -> Relation {
        let mut d = d0();
        more.iter().for_each(|t| d.insert(t.clone()).unwrap());
        d
    }

    /// Behind a writer of site 1 — an insert whose probe raises the flag
    /// of zip EH9 1AA, or a delete whose round clears it — a
    /// class-preserving insert or delete of site 0 on the same group runs
    /// while the round is in flight: one drain, the batch's own.
    #[test]
    fn a_class_preserving_update_runs_behind_a_remote_round() {
        let at = |tid, grade, street| emp_tuple(tid, grade, 44, 131, "EH9 1AA", street, "EDI");
        let satisfied = d0_with(&[at(30, "A", "S"), at(31, "A", "S")]);
        let violating = d0_with(&[at(30, "A", "S"), at(31, "A", "S"), at(32, "B", "T")]);
        let raises = (&satisfied, Update::Insert(at(32, "B", "T")));
        let clears = (&violating, Update::Delete(32));
        for (flag, (d, writer)) in [("raises", raises), ("clears", clears)] {
            for own in [Update::Insert(at(33, "A", "S")), Update::Delete(31)] {
                let what = format!("{own:?} behind the writer that {flag} the flag");
                pipelined_as_blocking(d, &[writer.clone(), own], 1, &what);
            }
        }
    }

    /// The trap: an insert round of site 0 asks the peers about zip
    /// EH7 7AA, and site 1 holds another street there. A second insert of
    /// site 0 into the first one's class is class-preserving — but had it
    /// run before the round finished, it would have found the flag down,
    /// and `finish` marks only its own tuple. Its own site's round makes it
    /// wait: two drains, where a writer of site 2 on a fresh zip behind it
    /// would otherwise have shared one with the first round.
    #[test]
    fn a_class_preserving_update_waits_for_a_round_of_its_own_site() {
        let at = |tid, grade, street| emp_tuple(tid, grade, 44, 131, "EH7 7AA", street, "EDI");
        let d = d0_with(&[at(32, "B", "T")]);
        let fresh = emp_tuple(43, "C", 44, 131, "EH8 8ZZ", "U", "EDI");
        let batch = [at(40, "A", "S"), at(41, "A", "S"), fresh].map(Update::Insert);
        pipelined_as_blocking(&d, &batch, 2, "joiner behind its site's round");
    }

    /// A writer on a key a round is open on waits for it, wherever it
    /// lives; a modification waits for the round of its own tid, though
    /// its halves have different homes.
    #[test]
    fn writers_and_tids_wait_for_the_rounds_they_meet() {
        let at = |tid, grade, street| emp_tuple(tid, grade, 44, 131, "EH7 7AA", street, "EDI");
        let batch = [
            Update::Insert(at(40, "A", "S")),
            Update::Insert(at(42, "B", "T")),
        ];
        pipelined_as_blocking(&d0(), &batch, 2, "writer behind writer");
        // t5, site 2's only Crichton, moves to site 0 and a fresh zip: the
        // delete empties its class and asks, the insert opens a group and
        // asks — on a key of its own, behind the round of its tid.
        let moved = emp_tuple(5, "A", 44, 131, "EH7 7AA", "Crichton", "EDI");
        pipelined_as_blocking(&d0(), &[Update::Insert(moved)], 2, "modification");
    }

    /// Writers on keys no round shares stay in flight together up to the
    /// window: one drain at the cap, one at the end of the batch.
    #[test]
    fn key_disjoint_writers_drain_at_the_window_and_at_the_end() {
        let batch: Vec<Update> = (0..200)
            .map(|i| {
                let (grade, zip) = (["A", "B", "C"][i % 3], format!("K{i}"));
                Update::Insert(emp_tuple(100 + i as Tid, grade, 44, 131, &zip, "S", "EDI"))
            })
            .collect();
        pipelined_as_blocking(&d0(), &batch, 2, "200 writers");
    }

    /// The acceptance count of the batch loop: `detbench`'s TCP workloads'
    /// `D₀` — the 40 000-row TPCH base of seed 1, its rules, four sites —
    /// replayed as inserts into an empty detector in 4 096-op windows keeps
    /// its rounds in flight: one drain or fewer for every five rounds
    /// opened (1 752 for 10 088), where the blocking drive waited out every
    /// round. The build itself opens none.
    #[test]
    fn a_replay_drains_once_per_five_rounds_or_fewer() {
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
        let mut det = HorizontalDetector::new(
            schema.clone(),
            rules::tpch_rules(&schema, 8, 0xCFD),
            tpch::horizontal_scheme(&schema, 4),
            &Relation::new(schema.clone()),
            CodecKind::Md5,
            TransportKind::Simulated,
        )
        .unwrap();
        let rows: Vec<Update> = base.iter().map(Update::Insert).collect();
        for window in rows.chunks(4_096) {
            det.apply(&UpdateBatch::from_ops(window.to_vec())).unwrap();
        }
        let (drains, rounds) = (det.waves(), det.flight.opened);
        assert_eq!((drains, rounds), (1_752, 10_088));
        let oracle = cfd::naive::detect(det.cfds(), &base);
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

    // -- the frame codec -------------------------------------------------

    /// A seeded `HorMsg` of shape `seed % 5`: attributes of every payload
    /// kind, lists of no item to a few hundred, and — every 250th seed —
    /// one list of 2¹⁶ + 1 items, more than a 16-bit count could carry.
    fn seeded_msg(seed: u64) -> HorMsg {
        let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut len = |long: bool| match next() % 7 {
            _ if long => (1 << 16) + 1,
            0 => 0,
            1 => 1,
            2 => 127,
            3 => 128,
            4 => 300,
            k => k as usize,
        };
        let long = seed % 250 == 0;
        let value = |x: u64| match x % 4 {
            0 => WireValue::Raw(Value::int(x as i64)),
            1 => WireValue::Md5(cluster::md5::md5(&x.to_le_bytes())),
            2 => WireValue::Sym(x as u32, None),
            _ => WireValue::Sym(x as u32, Some(Value::str(format!("v{x}")))),
        };
        let (n_attrs, n_ops) = (len(false), len(long));
        let attrs: Vec<(AttrId, WireValue)> = (0..n_attrs)
            .map(|i| (i as AttrId, value(seed ^ i as u64)))
            .collect();
        let ops: Vec<OpId> = (0..n_ops).map(|i| (i as u64 ^ seed) as OpId).collect();
        match seed % 5 {
            0 => HorMsg::TupleProbe { attrs, probes: ops },
            1 => HorMsg::ProbeReply { conflicts: ops },
            2 => HorMsg::TupleDelQuery {
                attrs,
                queries: ops,
            },
            3 => {
                let vals = |o: OpId| (0..u64::from(o) % 4).map(move |k| value(k + u64::from(o)));
                let bvals = ops.iter().take(n_attrs).map(|&o| (o, vals(o).collect()));
                HorMsg::DelReply {
                    bvals: bvals.collect(),
                }
            }
            _ => HorMsg::ClearFlags { attrs, cfds: ops },
        }
    }

    pub(crate) fn frame_of<M: FrameCodec>(m: &M) -> Vec<u8> {
        let mut buf = Vec::new();
        m.encode_frame(&mut buf);
        buf
    }

    /// 1 000 seeded frames of the five shapes round-trip — a count of
    /// 2¹⁶ + 1 items among them — and fixed shapes take exactly the bytes
    /// the layout gives, against their modeled `|M|`.
    #[test]
    fn protocol_frames_round_trip_and_balance() {
        let mut long = 0;
        for seed in 0..1_000 {
            let m = seeded_msg(seed);
            let buf = frame_of(&m);
            assert_eq!(HorMsg::decode_frame(&buf).unwrap(), m, "seed {seed}");
            long += usize::from(buf.len() > 1 << 17);
        }
        assert!(long >= 2, "{long} frames carry a count of 2^16 + 1");
        let probe = |w: WireValue| HorMsg::TupleProbe {
            attrs: vec![(3, w)],
            probes: vec![],
        };
        let street = Value::str("EH4 8LE");
        let reply = |n: usize| HorMsg::ProbeReply {
            conflicts: vec![7; n],
        };
        // `[encoded, modeled]`: tag, counts, one header per attribute, then
        // a digest, a two-byte int cell, or a symbol and its string cell;
        // one byte an operator id, a count of 128 taking two.
        for (m, want) in [
            (probe(WireValue::Md5(cluster::md5::md5(b"x"))), [20, 19]),
            (probe(WireValue::Raw(Value::int(44))), [6, 11]),
            (probe(WireValue::Sym(9, Some(street))), [13, 22]),
            (reply(1), [3, 5]),
            (reply(127), [129, 509]),
            (reply(128), [131, 513]),
        ] {
            assert_eq!([frame_of(&m).len(), m.wire_size()], want, "{m:?}");
        }
    }

    /// Bytes no encoder writes decode to a typed error, never a panic or
    /// an allocation they size: every proper prefix of a frame of each
    /// shape; a count past the bytes left; a count in a non-canonical
    /// (overlong) varint; an attribute header, an operator id or a symbol
    /// past its type; a string longer than the frame; an RHS value that
    /// names an attribute.
    #[test]
    fn hostile_protocol_frames_are_refused() {
        for seed in 1..=10 {
            let buf = frame_of(&seeded_msg(seed));
            for cut in 0..buf.len() {
                let got = HorMsg::decode_frame(&buf[..cut]);
                assert!(got.is_err(), "seed {seed}: prefix {cut} of {buf:02x?}");
            }
        }
        let refused = |frame: &[u8], why: &str| match HorMsg::decode_frame(frame) {
            Err(ClusterError::Transport(e)) => assert!(e.contains(why), "{frame:02x?}: {e}"),
            other => panic!("{frame:02x?}: {other:?}"),
        };
        // 2⁴⁰ conflicts, attributes or RHS values; then one conflict
        // whose varint stops short.
        let huge = [0x80, 0x80, 0x80, 0x80, 0x80, 0x20];
        for head in [&[HF_PROBE_REPLY][..], &[HF_PROBE], &[HF_DEL_REPLY, 1, 9]] {
            refused(&[head, &huge[..]].concat(), "item count exceeds the frame");
        }
        refused(&[HF_PROBE_REPLY, 1, 0x80], "truncated field");
        // One conflict, its count written in two bytes where one will do.
        refused(&[HF_PROBE_REPLY, 0x81, 0x00, 4], "overlong varint");
        assert!(HorMsg::decode_frame(&[HF_PROBE_REPLY, 0x01, 4]).is_ok());
        // Attribute 2¹⁶ (a raw null); operator 2³²; symbol 2³² of
        // attribute 0.
        let past = |x: u64| {
            let mut v = Vec::new();
            wirefmt::put_varint(&mut v, x);
            v
        };
        refused(
            &[&[HF_PROBE, 1][..], &past(1 << 18), &[0, 0]].concat(),
            "attribute id past",
        );
        refused(
            &[&[HF_PROBE_REPLY, 1][..], &past(1 << 32)].concat(),
            "operator id past",
        );
        refused(
            &[&[HF_PROBE, 1, 2][..], &past(1 << 32), &[0]].concat(),
            "symbol past",
        );
        // A raw string of 100 bytes with one there.
        refused(&[HF_PROBE, 1, 0, 102, b'a', 0], "truncated field");
        // An RHS value under attribute 1's header.
        refused(&[HF_DEL_REPLY, 1, 9, 1, 4, 0], "names an attribute");
        assert!(HorMsg::decode_frame(&[HF_DEL_REPLY, 1, 9, 1, 0, 0]).is_ok());
    }

    /// Arbitrary bytes give a typed error, or a message that re-encodes to
    /// exactly the bytes it was read from — the encoding is canonical.
    #[test]
    fn arbitrary_bytes_error_or_re_encode() {
        let specimens: Vec<_> = (1..=40).map(|s| frame_of(&seeded_msg(s))).collect();
        let (msgs, errors, _) = arbitrary_bytes::<HorMsg>(0..6, &[], &specimens);
        assert!(
            msgs > 1_000 && errors > 1_000,
            "{msgs} messages, {errors} errors"
        );
    }

    /// Feed `M`'s decoder 20 000 seeded inputs: odd ones short runs of
    /// arbitrary bytes (the first a tag in `tags`), even ones a
    /// `specimens` frame with one byte overwritten. Each must give a typed
    /// [`ClusterError::Transport`], or a message that re-encodes to exactly
    /// the bytes it was read from — the encoding is canonical — or, under a
    /// first byte in `loose`, to bytes that decode to the same message.
    /// Returns `(messages, errors, rewritten)`, the last the messages
    /// whose bytes were not the encoder's.
    pub(crate) fn arbitrary_bytes<M: FrameCodec + PartialEq>(
        tags: std::ops::Range<u8>,
        loose: &[u8],
        specimens: &[Vec<u8>],
    ) -> (usize, usize, usize) {
        let mut rng = 0x5EED_u64;
        let mut next = move || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) as u8
        };
        let (mut msgs, mut errors, mut rewritten) = (0, 0, 0);
        for k in 0..20_000 {
            let bytes: Vec<u8> = if k % 2 == 1 {
                // Short varints are the interesting bytes: bias towards them.
                let len = usize::from(next() % 16);
                (0..len)
                    .map(|i| match next() {
                        _ if i == 0 => tags.start + next() % tags.len() as u8,
                        b if b % 2 == 0 => next() % 8,
                        _ => next(),
                    })
                    .collect()
            } else {
                let mut b = specimens[usize::from(next()) % specimens.len()].clone();
                let at = (usize::from(next()) << 8 | usize::from(next())) % b.len();
                b[at] = next();
                b
            };
            match M::decode_frame(&bytes) {
                Ok(m) => {
                    let mut again = Vec::new();
                    m.encode_frame(&mut again);
                    if again != bytes {
                        let tag = bytes[0];
                        assert!(loose.contains(&tag), "{m:?}: tag {tag:#x} is canonical");
                        assert_eq!(M::decode_frame(&again).ok().as_ref(), Some(&m));
                        rewritten += 1;
                    }
                    msgs += 1;
                }
                Err(ClusterError::Transport(_)) => errors += 1,
                Err(e) => panic!("{bytes:02x?}: untyped {e:?}"),
            }
        }
        (msgs, errors, rewritten)
    }
}
