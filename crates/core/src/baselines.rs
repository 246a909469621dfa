//! Batch baselines.
//!
//! * [`bat_ver`] / [`bat_hor`] — batch detection "from scratch" following
//!   the coordinator heuristic the paper attributes to [Fan et al., ICDE
//!   2010] and uses as `batVer` / `batHor` in §7: for each CFD, ship the
//!   pattern-relevant attributes (vertical) or tuples (horizontal) to a
//!   per-CFD coordinator site and check the violations there. Their
//!   communication and computation grow with `|D|`, which is precisely what
//!   the incremental algorithms avoid.
//! * [`bat_ver_parallel`] / [`bat_hor_parallel`] — the same work with the
//!   per-CFD checks running on parallel threads (§7, step 3: "the
//!   violations of all CFDs are checked in parallel"); each CFD task owns
//!   a private meter, merged afterwards.
//! * [`ibat_ver`] / [`ibat_hor`] — the *refined* batch algorithms of
//!   Exp-10: recompute from scratch, but through the incremental insertion
//!   machinery and its indices.
//!
//! The coordinator drives are substrate-generic ([`MsgTransport`]): the
//! default simulated network delivers typed messages through metered
//! inboxes, while [`bat_ver_with`] / [`bat_hor_with`] /
//! [`ibat_hor_with`] (and [`BatVer::with_transport`] &c.) run the same
//! protocol over [`ByteNetwork`] — every shipment crosses as a real
//! length-prefixed frame and is decoded by the coordinator from received
//! bytes alone, with measured wire bytes reported beside the (identical)
//! modeled `|M|`.

use crate::detector::{DetectError, Detector};
use crate::horizontal::HorizontalDetector;
use crate::vertical::VerticalDetector;
use cfd::pattern::PatternValue;
use cfd::{Cfd, CfdId, DeltaV, Violations};
use cluster::codec::DictSyms;
use cluster::net::{bytes as wirefmt, FrameCodec, TransportKind, TransportMeter};
use cluster::partition::{HorizontalScheme, VerticalScheme};
use cluster::{
    ByteNetwork, ClusterError, DictMeter, MsgTransport, NetReport, NetStats, Network, SiteId, Wire,
};
use relation::{
    AttrId, FxHashMap, Relation, RowId, Schema, SmallVec, Sym, Tid, UpdateBatch, ValuePool,
};
use std::sync::Arc;

/// Interned group key for the coordinator-side `GROUP BY t[X]`.
type GroupKey = SmallVec<Sym, 4>;

/// Sentinel for "attribute not yet assembled" in coordinator slots.
const SYM_NONE: Sym = Sym::MAX;

/// A columnar, dictionary-backed shipment of projected rows: the tid
/// vector, one symbol column per served attribute (sender-local symbols),
/// and the **dictionary delta** — the `(sym, value)` entries this link has
/// not carried before. Sizing routes through the same
/// [`cluster::codec::DictSyms`] codec the incremental `dict` mode uses
/// (4 B per shipped symbol, one-time `4 B + |value|` per new entry, per
/// ordered link). Repeat values therefore cost 4 bytes instead of their
/// full wire size, which is what collapses the coordinators' `|M|` on
/// skewed columns.
#[derive(Debug, Clone, PartialEq)]
pub struct ColsMsg {
    /// Row tids, in the sender's scan order (ascending).
    pub tids: Vec<Tid>,
    /// One column per served attribute, aligned with `tids`.
    pub cols: Vec<Vec<Sym>>,
    /// Dictionary entries new to this `(src → dst)` link.
    pub dict: Vec<(Sym, relation::Value)>,
}

impl ColsMsg {
    /// Serialized size: 8 B per tid, 4 B per symbol, `4 + |value|` per
    /// dictionary entry.
    pub fn wire_size(&self) -> usize {
        8 * self.tids.len()
            + DictMeter::SYM_WIRE_SIZE * self.cols.iter().map(Vec::len).sum::<usize>()
            + self
                .dict
                .iter()
                .map(|(_, v)| DictMeter::SYM_WIRE_SIZE + v.wire_size())
                .sum::<usize>()
    }

    /// Encode the `rows` of `frag` projected onto `attrs` (fragment-local
    /// positions), updating `codec`'s per-link residency to pick the
    /// dictionary delta ([`DictSyms::ship_sym`] — the symbols here are the
    /// fragment store's own). Returns the message plus what the retired
    /// row-oriented format would have cost for the same shipment.
    pub fn encode(
        frag: &Relation,
        rows: &[(Tid, RowId)],
        attrs: &[AttrId],
        codec: &mut DictSyms,
        src: SiteId,
        dst: SiteId,
    ) -> (ColsMsg, u64) {
        let store = frag.store();
        let mut msg = ColsMsg {
            tids: Vec::with_capacity(rows.len()),
            cols: vec![Vec::with_capacity(rows.len()); attrs.len()],
            dict: Vec::new(),
        };
        let mut rows_equiv = 0u64;
        for &(tid, row) in rows {
            msg.tids.push(tid);
            rows_equiv += 8;
            for (k, &a) in attrs.iter().enumerate() {
                let s = store.sym(row, a);
                let v = store.value(row, a);
                rows_equiv += v.wire_size() as u64;
                if codec.ship_sym(src, dst, s, v) > DictMeter::SYM_WIRE_SIZE {
                    msg.dict.push((s, v.clone()));
                }
                msg.cols[k].push(s);
            }
        }
        (msg, rows_equiv)
    }

    /// Receiver-side decode back to `(tid, values)` rows. `link` is the
    /// receiver's dictionary for this `(src → dst)` link, fed by every
    /// message's delta — symbols not in the delta must already be resident
    /// from earlier messages on the same link.
    pub fn decode(
        &self,
        link: &mut FxHashMap<Sym, relation::Value>,
    ) -> Vec<(Tid, Vec<relation::Value>)> {
        for (s, v) in &self.dict {
            link.insert(*s, v.clone());
        }
        self.tids
            .iter()
            .enumerate()
            .map(|(i, &tid)| (tid, self.cols.iter().map(|c| link[&c[i]].clone()).collect()))
            .collect()
    }
}

/// Column payloads shipped by the batch baselines (the row-oriented
/// `BatMsg::Rows(Vec<(Tid, Vec<Value>)>)` of earlier revisions is retired;
/// its equivalent cost is still tracked per run in
/// [`BatchOutcome::rows_equiv_bytes`] for the benchmark report).
#[derive(Debug, Clone, PartialEq)]
pub enum BatMsg {
    /// Dictionary-backed projected columns.
    Cols(ColsMsg),
}

impl Wire for BatMsg {
    fn wire_size(&self) -> usize {
        match self {
            BatMsg::Cols(m) => m.wire_size(),
        }
    }
}

/// Real byte framing for the coordinator shipments, so [`BatMsg::Cols`]
/// crosses a [`cluster::net::ByteNetwork`] as an actual frame: tids,
/// symbol columns and the per-link dictionary delta serialize in column
/// order and decode from received bytes alone (the receiver's link
/// dictionary is [`ColsMsg::decode`], fed by each frame's delta). The
/// structural overhead beyond the modeled [`Wire::wire_size`] is the
/// message tag, three item counts and the per-value type tags.
impl FrameCodec for BatMsg {
    fn encode_frame(&self, out: &mut Vec<u8>) -> usize {
        let BatMsg::Cols(m) = self;
        out.push(0); // message tag
        out.extend_from_slice(&(m.tids.len() as u32).to_le_bytes());
        for t in &m.tids {
            out.extend_from_slice(&t.to_le_bytes());
        }
        out.extend_from_slice(&(m.cols.len() as u16).to_le_bytes());
        for col in &m.cols {
            debug_assert_eq!(col.len(), m.tids.len(), "columns align with tids");
            for s in col {
                out.extend_from_slice(&s.to_le_bytes());
            }
        }
        out.extend_from_slice(&(m.dict.len() as u32).to_le_bytes());
        let mut ovh = 1 + 4 + 2 + 4;
        for (s, v) in &m.dict {
            out.extend_from_slice(&s.to_le_bytes());
            ovh += wirefmt::put_value(out, v);
        }
        ovh
    }

    fn decode_frame(body: &[u8]) -> Result<Self, ClusterError> {
        let mut r = wirefmt::Reader::new(body);
        if r.u8()? != 0 {
            return Err(ClusterError::Transport(
                "unknown batch-protocol message tag".into(),
            ));
        }
        let n_rows = r.u32()? as usize;
        let mut tids = Vec::with_capacity(n_rows.min(1 << 20));
        for _ in 0..n_rows {
            tids.push(r.u64()? as Tid);
        }
        let n_cols = r.u16()? as usize;
        let mut cols = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            let mut col = Vec::with_capacity(n_rows.min(1 << 20));
            for _ in 0..n_rows {
                col.push(r.u32()? as Sym);
            }
            cols.push(col);
        }
        let n_dict = r.u32()? as usize;
        let mut dict = Vec::with_capacity(n_dict.min(1 << 20));
        for _ in 0..n_dict {
            let s = r.u32()? as Sym;
            dict.push((s, wirefmt::get_value(&mut r)?));
        }
        r.finish()?;
        Ok(BatMsg::Cols(ColsMsg { tids, cols, dict }))
    }
}

/// Coordinator-side re-interning: translate a site's columns into the
/// coordinator's own pool. Remote columns resolve through the link's
/// dictionary delta (one value intern per *distinct* symbol, integer map
/// probes per row); local columns resolve through the fragment's pool with
/// a lazy symbol→symbol cache.
struct CoordPool {
    pool: ValuePool,
}

impl CoordPool {
    fn new() -> Self {
        CoordPool {
            pool: ValuePool::new(),
        }
    }

    /// Symbol for a pattern constant, if any shipped row carried it.
    fn lookup(&self, v: &relation::Value) -> Option<Sym> {
        self.pool.lookup(v)
    }

    /// Translate a [`ColsMsg`] drained off the network — the receive half
    /// of the coordinator protocol, driven purely by message content: the
    /// dictionary delta feeds the link's value map, then every column
    /// symbol re-interns through it (one pool acquisition per *distinct*
    /// symbol). A symbol missing from the delta is a protocol error —
    /// each per-CFD run opens a fresh link, so its first (and only)
    /// message must carry the full dictionary.
    fn translate_received(
        &mut self,
        msg: &ColsMsg,
    ) -> Result<(Vec<Tid>, Vec<Vec<Sym>>), ClusterError> {
        let mut link: FxHashMap<Sym, Sym> = FxHashMap::default();
        for (s, v) in &msg.dict {
            let cs = self.pool.acquire(v);
            link.insert(*s, cs);
        }
        let mut cols = Vec::with_capacity(msg.cols.len());
        for c in &msg.cols {
            let mut out = Vec::with_capacity(c.len());
            for s in c {
                let cs = *link.get(s).ok_or_else(|| {
                    ClusterError::Transport(format!(
                        "column symbol {s} missing from the link dictionary"
                    ))
                })?;
                out.push(cs);
            }
            cols.push(out);
        }
        Ok((msg.tids.clone(), cols))
    }

    /// Translate the coordinator's own (unshipped) rows.
    fn translate_local(
        &mut self,
        frag: &Relation,
        rows: &[(Tid, RowId)],
        served_local: &[AttrId],
    ) -> (Vec<Tid>, Vec<Vec<Sym>>) {
        let store = frag.store();
        let mut cache: FxHashMap<Sym, Sym> = FxHashMap::default();
        let mut tids = Vec::with_capacity(rows.len());
        let mut cols: Vec<Vec<Sym>> = vec![Vec::with_capacity(rows.len()); served_local.len()];
        for &(tid, row) in rows {
            tids.push(tid);
            for (k, &a) in served_local.iter().enumerate() {
                let s = store.sym(row, a);
                let cs = *cache
                    .entry(s)
                    .or_insert_with(|| self.pool.acquire(store.pool().resolve(s)));
                cols[k].push(cs);
            }
        }
        (tids, cols)
    }
}

/// The constant LHS atoms of `cfd` that are locally evaluable in `frag`
/// under the fragment's positional mapping, resolved to fragment symbols.
/// `None` ⇒ some locally-held constant never occurs in the fragment, so no
/// row passes. `local_pos` maps a global attribute to its fragment
/// position (identity for horizontal fragments).
fn local_atom_syms(
    cfd: &Cfd,
    frag: &Relation,
    local_pos: impl Fn(AttrId) -> Option<AttrId>,
) -> Option<SmallVec<(AttrId, Sym), 4>> {
    let mut out = SmallVec::new();
    for (&a, p) in cfd.lhs.iter().zip(&cfd.lhs_pattern) {
        if let PatternValue::Const(v) = p {
            if let Some(pos) = local_pos(a) {
                out.push((pos, frag.pool().lookup(v)?));
            }
        }
    }
    Some(out)
}

/// Rows of `frag` whose locally evaluable atoms all match.
fn filter_rows(frag: &Relation, atoms: &Option<SmallVec<(AttrId, Sym), 4>>) -> Vec<(Tid, RowId)> {
    let Some(atoms) = atoms else {
        return Vec::new();
    };
    let store = frag.store();
    store
        .rows()
        .filter(|&(_, row)| atoms.iter().all(|&(a, s)| store.col(a)[row as usize] == s))
        .collect()
}

/// Outcome of a batch run: the violations plus the traffic it cost.
#[derive(Debug)]
pub struct BatchOutcome {
    /// `V(Σ, D)` computed from scratch.
    pub violations: Violations,
    /// Shipment metered during the run ([`BatMsg::Cols`] accounting).
    pub stats: NetStats,
    /// Measured on-wire bytes (framing included) when the run crossed a
    /// byte transport; `None` on the simulated network.
    pub wire: Option<NetStats>,
    /// Whole-run transport counters of the byte transport, if one ran.
    pub meter: Option<TransportMeter>,
    /// What the same shipments would have cost in the retired row-oriented
    /// format (`8 B` tid + full value wire sizes per row) — 0 for runs
    /// that ship no columnar messages (`ibatVer`/`ibatHor`).
    pub rows_equiv_bytes: u64,
}

/// One CFD's coordinator run: marked tids plus every meter of the net it
/// drove (each CFD owns a private substrate, merged afterwards).
struct CfdRun {
    tids: Vec<Tid>,
    stats: NetStats,
    wire: Option<NetStats>,
    meter: Option<TransportMeter>,
    rows_equiv: u64,
}

/// One CFD's private substrate under the chosen transport. Simulated
/// delivers typed messages through metered inboxes; framed/TCP serialize
/// every [`BatMsg`] to a length-prefixed byte frame through
/// [`ByteNetwork`] — the coordinator then decodes from received bytes
/// alone.
fn bat_net(
    n: usize,
    transport: TransportKind,
) -> Result<Box<dyn MsgTransport<BatMsg>>, DetectError> {
    Ok(match transport {
        TransportKind::Simulated => Box::new(Network::new(n)),
        TransportKind::Framed => Box::new(ByteNetwork::in_memory(n)),
        TransportKind::Tcp => {
            Box::new(ByteNetwork::tcp_localhost(n).map_err(DetectError::Cluster)?)
        }
    })
}

/// Field-wise accumulation of transport counters.
fn merge_meter(acc: &mut Option<TransportMeter>, m: TransportMeter) {
    let a = acc.get_or_insert_with(TransportMeter::default);
    a.frames += m.frames;
    a.wire_bytes += m.wire_bytes;
    a.modeled_bytes += m.modeled_bytes;
    a.structural_bytes += m.structural_bytes;
    a.saved_bytes += m.saved_bytes;
}

// ----------------------------------------------------------------------
// batVer
// ----------------------------------------------------------------------

/// One CFD's worth of `batVer` work: each site holding attributes of
/// `X ∪ {B}` ships its projected **symbol columns** plus per-link
/// dictionary deltas ([`BatMsg::Cols`], pre-filtered by the constant atoms
/// it can evaluate locally) to the CFD's coordinator, which re-interns the
/// deltas once, sort-merges the columns by tid, and checks the violations
/// with pure integer comparisons.
fn bat_ver_one(
    cfd: &Cfd,
    scheme: &VerticalScheme,
    fragments: &[Relation],
    transport: TransportKind,
) -> Result<CfdRun, DetectError> {
    let n = scheme.n_sites();
    let mut net = bat_net(n, transport)?;
    let mut codec = DictSyms::new();
    let mut rows_equiv = 0u64;
    let mut out: Vec<Tid> = Vec::new();

    // Coordinator: the site holding the most attributes of the CFD.
    let attrs = cfd.attrs();
    let coord = (0..n)
        .max_by_key(|&s| {
            attrs
                .iter()
                .filter(|&&a| scheme.local_pos(s, a).is_some())
                .count()
        })
        .expect("at least one site");

    // Each attribute is served by one site (coordinator if it holds it).
    let mut serving: FxHashMap<SiteId, Vec<AttrId>> = FxHashMap::default();
    for &a in &attrs {
        let site = if scheme.local_pos(coord, a).is_some() {
            coord
        } else {
            scheme.primary_site(a)
        };
        serving.entry(site).or_default().push(a);
    }

    // Sending pass: each remote serving site filters by its locally
    // evaluable constant atoms, encodes its columns and ships them as one
    // frame; the coordinator's own rows stay local.
    let mut sites: Vec<SiteId> = serving.keys().copied().collect();
    sites.sort_unstable();
    let mut local_rows: Vec<(Tid, RowId)> = Vec::new();
    let mut local_served: Vec<AttrId> = Vec::new();
    for &site in &sites {
        let served = &serving[&site];
        let frag = &fragments[site];
        let served_local: Vec<AttrId> = served
            .iter()
            .map(|&a| scheme.local_pos(site, a).expect("served attr is local") as AttrId)
            .collect();
        let atoms = local_atom_syms(cfd, frag, |a| {
            scheme.local_pos(site, a).map(|p| p as AttrId)
        });
        let rows = filter_rows(frag, &atoms);
        if site != coord {
            let (msg, re) = ColsMsg::encode(frag, &rows, &served_local, &mut codec, site, coord);
            rows_equiv += re;
            net.send(site, coord, BatMsg::Cols(msg))
                .map_err(DetectError::Cluster)?;
        } else {
            local_rows = rows;
            local_served = served_local;
        }
    }

    // Receiving pass: the coordinator drains its inbox — on byte
    // transports the messages arrive as real frames and decode from the
    // bytes alone — and re-interns every contribution into one pool, in
    // site order so the run is deterministic across substrates.
    let mut received: FxHashMap<SiteId, ColsMsg> = net
        .try_drain(coord)
        .map_err(DetectError::Cluster)?
        .into_iter()
        .map(|(src, BatMsg::Cols(m))| (src, m))
        .collect();
    let mut cpool = CoordPool::new();
    let mut columns: Vec<(SiteId, Vec<Tid>, Vec<Vec<Sym>>)> = Vec::new();
    for &site in &sites {
        let (tids, cols) = if site != coord {
            let msg = received.remove(&site).ok_or_else(|| {
                DetectError::Cluster(ClusterError::Transport(format!(
                    "no columns received from serving site {site}"
                )))
            })?;
            cpool
                .translate_received(&msg)
                .map_err(DetectError::Cluster)?
        } else {
            cpool.translate_local(&fragments[site], &local_rows, &local_served)
        };
        columns.push((site, tids, cols));
    }

    // Coordinator: merge the columns by tid into `attrs`-ordered symbol
    // slots and detect violations of this CFD.
    let attr_pos: FxHashMap<AttrId, usize> =
        attrs.iter().enumerate().map(|(i, &a)| (a, i)).collect();
    let mut assembled: FxHashMap<Tid, (Vec<Sym>, usize)> = FxHashMap::default();
    let n_serving = serving.len();
    for (site, tids, cols) in &columns {
        let served = &serving[site];
        for (i, tid) in tids.iter().enumerate() {
            let slot = assembled
                .entry(*tid)
                .or_insert_with(|| (vec![SYM_NONE; attrs.len()], 0));
            for (k, &a) in served.iter().enumerate() {
                slot.0[attr_pos[&a]] = cols[k][i];
            }
            slot.1 += 1;
        }
    }
    // Only tuples surviving every site's local filter participate. Pattern
    // constants resolve to coordinator symbols once; group keys are the
    // assembled symbol slots themselves — no per-row interning at all.
    let lhs_syms: Vec<Option<Sym>> = cfd
        .lhs_pattern
        .iter()
        .map(|p| match p {
            PatternValue::Const(v) => Some(cpool.lookup(v).unwrap_or(SYM_NONE)),
            PatternValue::Wildcard => None,
        })
        .collect();
    let rhs_sym = match &cfd.rhs_pattern {
        PatternValue::Const(v) => Some(cpool.lookup(v).unwrap_or(SYM_NONE)),
        PatternValue::Wildcard => None,
    };
    let rhs_pos = attr_pos[&cfd.rhs];
    let mut groups: FxHashMap<GroupKey, (Vec<Tid>, Sym, bool)> = FxHashMap::default();
    for (tid, (syms, site_count)) in &assembled {
        if *site_count != n_serving {
            continue;
        }
        let matches = lhs_syms
            .iter()
            .enumerate()
            .all(|(i, p)| p.is_none_or(|s| syms[i] == s));
        if !matches {
            continue;
        }
        match rhs_sym {
            Some(s) => {
                // Constant CFD: RHS symbol must equal the constant's.
                if syms[rhs_pos] != s {
                    out.push(*tid);
                }
            }
            None => {
                let key: GroupKey = cfd.lhs.iter().map(|a| syms[attr_pos[a]]).collect();
                let b = syms[rhs_pos];
                let e = groups.entry(key).or_insert((Vec::new(), b, false));
                e.0.push(*tid);
                if e.1 != b {
                    e.2 = true;
                }
            }
        }
    }
    for (_, (tids, _, mixed)) in groups {
        if mixed {
            out.extend(tids);
        }
    }
    Ok(CfdRun {
        tids: out,
        stats: net.stats().clone(),
        wire: net.wire_stats().cloned(),
        meter: net.transport_meter(),
        rows_equiv,
    })
}

/// `batVer`: batch detection over vertical fragments on the simulated
/// network, CFDs checked one after another.
pub fn bat_ver(cfds: &[Cfd], scheme: &VerticalScheme, d: &Relation) -> BatchOutcome {
    bat_ver_with(cfds, scheme, d, TransportKind::Simulated)
        .expect("the simulated substrate cannot fail")
}

/// [`bat_ver`] over an explicit transport: with [`TransportKind::Framed`]
/// or [`TransportKind::Tcp`] every coordinator shipment crosses a
/// [`ByteNetwork`] as a real frame (and [`BatchOutcome::wire`] reports
/// the measured bytes); the modeled `|M|` is identical on every
/// substrate.
pub fn bat_ver_with(
    cfds: &[Cfd],
    scheme: &VerticalScheme,
    d: &Relation,
    transport: TransportKind,
) -> Result<BatchOutcome, DetectError> {
    let fragments = scheme.partition(d);
    let mut results = Vec::with_capacity(cfds.len());
    for cfd in cfds {
        results.push((cfd.id, bat_ver_one(cfd, scheme, &fragments, transport)?));
    }
    Ok(merge_results(cfds.len(), scheme.n_sites(), results))
}

/// `batVer` with per-CFD checks on parallel threads (simulated network —
/// each CFD task owns a private meter, merged afterwards).
pub fn bat_ver_parallel(cfds: &[Cfd], scheme: &VerticalScheme, d: &Relation) -> BatchOutcome {
    let fragments = scheme.partition(d);
    let results = parallel_per_cfd(cfds, |cfd| {
        bat_ver_one(cfd, scheme, &fragments, TransportKind::Simulated)
            .expect("the simulated substrate cannot fail")
    });
    merge_results(cfds.len(), scheme.n_sites(), results)
}

// ----------------------------------------------------------------------
// batHor
// ----------------------------------------------------------------------

/// One CFD's worth of `batHor` work. Constant CFDs are checked locally
/// (columnar scans, zero shipment); variable CFDs ship the `π_{X∪{B}}`
/// symbol columns of each site's pattern-matching rows to the CFD's
/// coordinator (round-robin) as [`BatMsg::Cols`].
fn bat_hor_one(
    cfd: &Cfd,
    n: usize,
    fragments: &[Relation],
    transport: TransportKind,
) -> Result<CfdRun, DetectError> {
    let mut rows_equiv = 0u64;
    let mut out: Vec<Tid> = Vec::new();

    if cfd.is_constant() {
        let rhs_const = match &cfd.rhs_pattern {
            PatternValue::Const(v) => v,
            PatternValue::Wildcard => unreachable!("constant CFD has a const RHS"),
        };
        for frag in fragments {
            let atoms = local_atom_syms(cfd, frag, Some);
            let store = frag.store();
            let rhs_sym = frag.pool().lookup(rhs_const);
            let rhs_col = store.col(cfd.rhs);
            for (tid, row) in filter_rows(frag, &atoms) {
                if Some(rhs_col[row as usize]) != rhs_sym {
                    out.push(tid);
                }
            }
        }
        // Constant CFDs ship nothing — no substrate is even built.
        return Ok(CfdRun {
            tids: out,
            stats: NetStats::new(n),
            wire: None,
            meter: None,
            rows_equiv,
        });
    }
    let mut net = bat_net(n, transport)?;
    let mut codec = DictSyms::new();
    let coord = (cfd.id as usize) % n;
    let proj: Vec<AttrId> = cfd.attrs();
    let m = cfd.lhs.len();

    // Sending pass: every remote fragment ships one frame of projected,
    // pattern-matching columns to this CFD's coordinator.
    let mut local_rows: Vec<(Tid, RowId)> = Vec::new();
    for (site, frag) in fragments.iter().enumerate() {
        let atoms = local_atom_syms(cfd, frag, Some);
        let rows = filter_rows(frag, &atoms);
        if site != coord {
            let (msg, re) = ColsMsg::encode(frag, &rows, &proj, &mut codec, site, coord);
            rows_equiv += re;
            net.send(site, coord, BatMsg::Cols(msg))
                .map_err(DetectError::Cluster)?;
        } else {
            local_rows = rows;
        }
    }

    // Receiving pass: drain the coordinator's inbox (real frames on byte
    // transports) and fold every contribution into the groups, in site
    // order so the run is deterministic across substrates.
    let mut received: FxHashMap<SiteId, ColsMsg> = net
        .try_drain(coord)
        .map_err(DetectError::Cluster)?
        .into_iter()
        .map(|(src, BatMsg::Cols(msg))| (src, msg))
        .collect();
    let mut cpool = CoordPool::new();
    let mut groups: FxHashMap<GroupKey, (Vec<Tid>, Sym, bool)> = FxHashMap::default();
    for (site, frag) in fragments.iter().enumerate() {
        let (tids, cols) = if site != coord {
            let msg = received.remove(&site).ok_or_else(|| {
                DetectError::Cluster(ClusterError::Transport(format!(
                    "no columns received from site {site}"
                )))
            })?;
            cpool
                .translate_received(&msg)
                .map_err(DetectError::Cluster)?
        } else {
            cpool.translate_local(frag, &local_rows, &proj)
        };
        // Group by X symbols (positions 0..m of the projection) — already
        // coordinator symbols, so grouping never touches a value.
        for (i, tid) in tids.into_iter().enumerate() {
            let key: GroupKey = (0..m).map(|k| cols[k][i]).collect();
            let b = cols[m][i];
            let e = groups.entry(key).or_insert((Vec::new(), b, false));
            e.0.push(tid);
            if e.1 != b {
                e.2 = true;
            }
        }
    }
    for (_, (tids, _, mixed)) in groups {
        if mixed {
            out.extend(tids);
        }
    }
    Ok(CfdRun {
        tids: out,
        stats: net.stats().clone(),
        wire: net.wire_stats().cloned(),
        meter: net.transport_meter(),
        rows_equiv,
    })
}

/// `batHor`: batch detection over horizontal fragments on the simulated
/// network.
pub fn bat_hor(cfds: &[Cfd], scheme: &HorizontalScheme, d: &Relation) -> BatchOutcome {
    bat_hor_with(cfds, scheme, d, TransportKind::Simulated)
        .expect("the simulated substrate cannot fail")
}

/// [`bat_hor`] over an explicit transport — see [`bat_ver_with`].
pub fn bat_hor_with(
    cfds: &[Cfd],
    scheme: &HorizontalScheme,
    d: &Relation,
    transport: TransportKind,
) -> Result<BatchOutcome, DetectError> {
    let n = scheme.n_sites();
    let fragments = scheme.partition(d).expect("scheme partitions D");
    let mut results = Vec::with_capacity(cfds.len());
    for cfd in cfds {
        results.push((cfd.id, bat_hor_one(cfd, n, &fragments, transport)?));
    }
    Ok(merge_results(cfds.len(), n, results))
}

/// `batHor` with per-CFD checks on parallel threads (simulated network).
pub fn bat_hor_parallel(cfds: &[Cfd], scheme: &HorizontalScheme, d: &Relation) -> BatchOutcome {
    let n = scheme.n_sites();
    let fragments = scheme.partition(d).expect("scheme partitions D");
    let results = parallel_per_cfd(cfds, |cfd| {
        bat_hor_one(cfd, n, &fragments, TransportKind::Simulated)
            .expect("the simulated substrate cannot fail")
    });
    merge_results(cfds.len(), n, results)
}

// ----------------------------------------------------------------------
// Parallel scaffolding
// ----------------------------------------------------------------------

/// Run `work` for every CFD on a bounded scoped thread pool, preserving
/// CFD association.
fn parallel_per_cfd<F>(cfds: &[Cfd], work: F) -> Vec<(CfdId, CfdRun)>
where
    F: Fn(&Cfd) -> CfdRun + Sync,
{
    let idx: Vec<usize> = (0..cfds.len()).collect();
    let results = crate::par::par_map(idx.len(), true, &|i| (cfds[i].id, work(&cfds[i])));
    let mut results = results;
    results.sort_by_key(|(id, _)| *id);
    results
}

fn merge_results(n_cfds: usize, n_sites: usize, results: Vec<(CfdId, CfdRun)>) -> BatchOutcome {
    let mut violations = Violations::new(n_cfds);
    let mut stats = NetStats::new(n_sites);
    let mut wire: Option<NetStats> = None;
    let mut meter: Option<TransportMeter> = None;
    let mut rows_equiv_bytes = 0u64;
    for (cfd, run) in results {
        for t in run.tids {
            violations.add(cfd, t);
        }
        stats.merge(&run.stats);
        if let Some(w) = run.wire {
            wire.get_or_insert_with(|| NetStats::new(n_sites)).merge(&w);
        }
        if let Some(m) = run.meter {
            merge_meter(&mut meter, m);
        }
        rows_equiv_bytes += run.rows_equiv;
    }
    BatchOutcome {
        violations,
        stats,
        wire,
        meter,
        rows_equiv_bytes,
    }
}

// ----------------------------------------------------------------------
// ibatVer / ibatHor
// ----------------------------------------------------------------------

/// `ibatVer` (Exp-10): recompute from scratch with the incremental
/// machinery — build the detector on an empty database and feed the whole
/// target relation through metered incremental insertions.
pub fn ibat_ver(
    schema: Arc<Schema>,
    cfds: Vec<Cfd>,
    scheme: VerticalScheme,
    d: &Relation,
) -> Result<BatchOutcome, DetectError> {
    let empty = Relation::new(schema.clone());
    let mut det = VerticalDetector::new(schema, cfds, scheme, &empty)?;
    let mut load = UpdateBatch::new();
    for t in d.iter() {
        load.insert(t);
    }
    det.apply(&load)?;
    Ok(BatchOutcome {
        violations: det.violations().clone(),
        stats: det.stats().clone(),
        wire: None,
        meter: None,
        rows_equiv_bytes: 0,
    })
}

/// `ibatHor` (Exp-10): horizontal counterpart of [`ibat_ver`], on the
/// simulated network.
pub fn ibat_hor(
    schema: Arc<Schema>,
    cfds: Vec<Cfd>,
    scheme: HorizontalScheme,
    d: &Relation,
) -> Result<BatchOutcome, DetectError> {
    ibat_hor_with(schema, cfds, scheme, d, TransportKind::Simulated)
}

/// [`ibat_hor`] over an explicit transport: the incremental reload runs
/// its §6 rounds through the chosen substrate (real frames under
/// [`TransportKind::Framed`]/[`TransportKind::Tcp`]).
pub fn ibat_hor_with(
    schema: Arc<Schema>,
    cfds: Vec<Cfd>,
    scheme: HorizontalScheme,
    d: &Relation,
    transport: TransportKind,
) -> Result<BatchOutcome, DetectError> {
    let empty = Relation::new(schema.clone());
    let mut det = HorizontalDetector::with_session(
        schema,
        cfds,
        scheme,
        &empty,
        cluster::codec::CodecKind::Md5,
        transport,
    )?;
    let mut load = UpdateBatch::new();
    for t in d.iter() {
        load.insert(t);
    }
    det.apply(&load)?;
    Ok(BatchOutcome {
        violations: det.violations().clone(),
        stats: det.stats().clone(),
        wire: det.wire_stats().cloned(),
        meter: det.transport_meter(),
        rows_equiv_bytes: 0,
    })
}

/// Convenience used by tests and the experiment harness: the oracle
/// violations computed centrally (no distribution at all).
pub fn centralized(cfds: &[Cfd], d: &Relation) -> Violations {
    cfd::naive::detect(cfds, d)
}

// ----------------------------------------------------------------------
// Baselines as maintained detectors
// ----------------------------------------------------------------------

/// Scheme-side validation of an admitted batch, so a bad update (e.g.
/// an unroutable tuple) surfaces as `Err` from `apply` *before* any
/// state is mutated — matching the incremental detectors' behavior —
/// instead of panicking inside the batch recompute.
trait BatScheme {
    fn check_delta(&self, delta: &UpdateBatch) -> Result<(), DetectError>;
}

impl BatScheme for VerticalScheme {
    fn check_delta(&self, _delta: &UpdateBatch) -> Result<(), DetectError> {
        Ok(()) // projections exist for every tuple
    }
}

impl BatScheme for HorizontalScheme {
    fn check_delta(&self, delta: &UpdateBatch) -> Result<(), DetectError> {
        for t in delta.insertions() {
            self.route(t)?;
        }
        Ok(())
    }
}

/// Implements the stateful parts shared by the four baseline wrappers:
/// construction (initial `V(Σ, D)` is taken as given, per the paper's
/// problem statement, so it is supplied by the caller or computed
/// centrally, unmetered either way) and the `apply` cycle (validate and
/// fold `ΔD` into the mirror, recompute from scratch with the wrapped
/// batch algorithm, return the settled diff).
macro_rules! batch_detector {
    ($(#[$doc:meta])* $name:ident, $strategy:literal, $codec:expr, $scheme_ty:ty,
     |$self_:ident| $recompute:expr) => {
        $(#[$doc])*
        pub struct $name {
            schema: Arc<Schema>,
            cfds: Vec<Cfd>,
            scheme: $scheme_ty,
            current: Relation,
            violations: Violations,
            stats: NetStats,
            transport: TransportKind,
            wire: Option<NetStats>,
            meter: Option<TransportMeter>,
        }

        impl $name {
            /// Build over `d`. The initial violation computation is not
            /// metered; traffic accrues per [`Detector::apply`] recompute.
            pub fn new(
                schema: Arc<Schema>,
                cfds: Vec<Cfd>,
                scheme: $scheme_ty,
                d: &Relation,
            ) -> Result<Self, DetectError> {
                let initial = centralized(&cfds, d);
                Self::with_initial(schema, cfds, scheme, d, initial)
            }

            /// Build over `d` with `V(Σ, D)` supplied by the caller (the
            /// paper's problem statement takes it as given). Skips the
            /// centralized pass of [`new`](Self::new) — harnesses that
            /// already computed the initial violations (e.g. beside an
            /// incremental detector over the same `D`) should use this.
            pub fn with_initial(
                schema: Arc<Schema>,
                cfds: Vec<Cfd>,
                scheme: $scheme_ty,
                d: &Relation,
                initial: Violations,
            ) -> Result<Self, DetectError> {
                let n = scheme.n_sites();
                Ok($name {
                    violations: initial,
                    current: d.clone(),
                    stats: NetStats::new(n),
                    transport: TransportKind::Simulated,
                    wire: None,
                    meter: None,
                    schema,
                    cfds,
                    scheme,
                })
            }

            /// Recompute over an explicit transport substrate: framed or
            /// TCP runs ship real coordinator frames and expose measured
            /// wire bytes beside the modeled `|M|`. (`ibatVer` recomputes
            /// through the vertical detector, which runs on the simulated
            /// network regardless — the setting is a no-op there.)
            pub fn with_transport(mut self, transport: TransportKind) -> Self {
                self.transport = transport;
                self
            }

            /// Cumulative recompute traffic.
            pub fn stats(&self) -> &NetStats {
                &self.stats
            }

            /// Cumulative measured on-wire bytes, if a byte transport ran.
            pub fn wire_stats(&self) -> Option<&NetStats> {
                self.wire.as_ref()
            }

            /// Cumulative transport counters, if a byte transport ran.
            pub fn transport_meter(&self) -> Option<TransportMeter> {
                self.meter
            }
        }

        impl Detector for $name {
            fn strategy(&self) -> &'static str {
                $strategy
            }

            fn schema(&self) -> &Arc<Schema> {
                &self.schema
            }

            fn cfds(&self) -> &[Cfd] {
                &self.cfds
            }

            fn current(&self) -> &Relation {
                &self.current
            }

            fn violations(&self) -> &Violations {
                &self.violations
            }

            fn apply(&mut self, delta: &UpdateBatch) -> Result<DeltaV, DetectError> {
                let delta = crate::detector::admit(&self.current, delta)?;
                self.scheme.check_delta(&delta)?;
                delta.apply(&mut self.current)?;
                let $self_ = &*self;
                let out: BatchOutcome = $recompute;
                self.stats.merge(&out.stats);
                if let Some(w) = &out.wire {
                    let n = self.scheme.n_sites();
                    self.wire.get_or_insert_with(|| NetStats::new(n)).merge(w);
                }
                if let Some(m) = out.meter {
                    merge_meter(&mut self.meter, m);
                }
                let dv = self.violations.diff(&out.violations);
                self.violations = out.violations;
                Ok(dv)
            }

            fn net(&self) -> NetReport {
                let mut report = NetReport::single(self.stats.clone());
                if let Some(codec) = $codec {
                    report = report.with_codec(codec);
                }
                if let Some(w) = &self.wire {
                    report = report.with_measured(w.clone());
                }
                report
            }

            fn reset_stats(&mut self) {
                self.stats.reset();
                self.wire = None;
                self.meter = None;
            }
        }
    };
}

batch_detector!(
    /// `batVer` as a maintained [`Detector`]: every `apply` recomputes
    /// `V(Σ, D ⊕ ΔD)` from scratch with [`bat_ver_with`] over the
    /// configured transport and reports the diff.
    BatVer, "batVer", Some("dict"), VerticalScheme,
    |det| bat_ver_with(&det.cfds, &det.scheme, &det.current, det.transport)?
);

batch_detector!(
    /// `batHor` as a maintained [`Detector`], wrapping [`bat_hor_with`].
    BatHor, "batHor", Some("dict"), HorizontalScheme,
    |det| bat_hor_with(&det.cfds, &det.scheme, &det.current, det.transport)?
);

batch_detector!(
    /// `ibatVer` (Exp-10) as a maintained [`Detector`]: recompute through
    /// the incremental machinery via [`ibat_ver`] (simulated network —
    /// the vertical detector has no byte-transport mode).
    IbatVer, "ibatVer", None::<&str>, VerticalScheme,
    |det| {
        let _ = det.transport; // simulated regardless; see with_transport
        ibat_ver(det.schema.clone(), det.cfds.clone(), det.scheme.clone(), &det.current)?
    }
);

batch_detector!(
    /// `ibatHor` (Exp-10) as a maintained [`Detector`], via
    /// [`ibat_hor_with`] over the configured transport.
    IbatHor, "ibatHor", Some("md5"), HorizontalScheme,
    |det| ibat_hor_with(
        det.schema.clone(),
        det.cfds.clone(),
        det.scheme.clone(),
        &det.current,
        det.transport,
    )?
);

#[cfg(test)]
mod tests {
    use super::*;
    use relation::{Tuple, Value};

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

    fn vscheme(s: &Arc<Schema>) -> VerticalScheme {
        let a = |n: &str| s.attr_id(n).unwrap();
        VerticalScheme::new(
            s.clone(),
            vec![
                vec![a("grade")],
                vec![a("street"), a("city"), a("zip")],
                vec![a("CC"), a("AC")],
            ],
        )
        .unwrap()
    }

    #[test]
    fn bat_ver_matches_oracle_and_ships_data() {
        let s = emp_schema();
        let scheme = vscheme(&s);
        let d = d0();
        let cfds = fig1_cfds(&s);
        let out = bat_ver(&cfds, &scheme, &d);
        let oracle = centralized(&cfds, &d);
        assert_eq!(out.violations.marks_sorted(), oracle.marks_sorted());
        assert!(
            out.stats.total_bytes() > 0,
            "batch must ship attribute data"
        );
    }

    #[test]
    fn bat_hor_matches_oracle_and_ships_data() {
        let s = emp_schema();
        let scheme = HorizontalScheme::by_values(
            s.clone(),
            s.attr_id("grade").unwrap(),
            vec![
                vec![Value::str("A")],
                vec![Value::str("B")],
                vec![Value::str("C")],
            ],
        )
        .unwrap();
        let d = d0();
        let cfds = fig1_cfds(&s);
        let out = bat_hor(&cfds, &scheme, &d);
        let oracle = centralized(&cfds, &d);
        assert_eq!(out.violations.marks_sorted(), oracle.marks_sorted());
        assert!(out.stats.total_bytes() > 0);
    }

    #[test]
    fn parallel_baselines_match_sequential() {
        let s = emp_schema();
        let d = d0();
        let cfds = fig1_cfds(&s);
        let scheme = vscheme(&s);
        let seq = bat_ver(&cfds, &scheme, &d);
        let par = bat_ver_parallel(&cfds, &scheme, &d);
        assert_eq!(seq.violations.marks_sorted(), par.violations.marks_sorted());
        assert_eq!(seq.stats.total_bytes(), par.stats.total_bytes());

        let hscheme = HorizontalScheme::by_hash(s.clone(), 0, 3).unwrap();
        let seq = bat_hor(&cfds, &hscheme, &d);
        let par = bat_hor_parallel(&cfds, &hscheme, &d);
        assert_eq!(seq.violations.marks_sorted(), par.violations.marks_sorted());
        assert_eq!(seq.stats.total_bytes(), par.stats.total_bytes());
    }

    #[test]
    fn byte_transports_match_simulated_drive() {
        // The framed and TCP drives must reproduce the simulated run
        // exactly: same violations, bit-identical modeled |M| matrix,
        // and a wire meter satisfying the overhead identity.
        let s = emp_schema();
        let d = d0();
        let cfds = fig1_cfds(&s);

        let vs = vscheme(&s);
        let sim = bat_ver(&cfds, &vs, &d);
        for transport in [TransportKind::Framed, TransportKind::Tcp] {
            let byte = bat_ver_with(&cfds, &vs, &d, transport).unwrap();
            assert_eq!(
                sim.violations.marks_sorted(),
                byte.violations.marks_sorted(),
                "batVer violations must agree over {transport:?}"
            );
            assert_eq!(
                sim.stats.to_bytes(),
                byte.stats.to_bytes(),
                "batVer modeled |M| must be bit-identical over {transport:?}"
            );
            let m = byte.meter.expect("byte transport meters frames");
            assert_eq!(
                m.wire_bytes,
                m.modeled_bytes + m.structural_bytes - m.saved_bytes,
                "wire overhead identity over {transport:?}"
            );
            let wire = byte.wire.expect("byte transport meters wire stats");
            assert!(wire.total_bytes() > byte.stats.total_bytes());
        }

        let hs = HorizontalScheme::by_hash(s.clone(), 0, 3).unwrap();
        let sim = bat_hor(&cfds, &hs, &d);
        let byte = bat_hor_with(&cfds, &hs, &d, TransportKind::Framed).unwrap();
        assert_eq!(
            sim.violations.marks_sorted(),
            byte.violations.marks_sorted()
        );
        assert_eq!(sim.stats.to_bytes(), byte.stats.to_bytes());
        assert!(byte.wire.is_some() && byte.meter.is_some());
    }

    #[test]
    fn batch_detector_over_framed_transport_reports_measured_wire() {
        let s = emp_schema();
        let d = d0();
        let cfds = fig1_cfds(&s);
        let hs = HorizontalScheme::by_hash(s.clone(), 0, 3).unwrap();

        let mut sim = BatHor::new(s.clone(), cfds.clone(), hs.clone(), &d).unwrap();
        let mut byte = BatHor::new(s.clone(), cfds.clone(), hs, &d)
            .unwrap()
            .with_transport(TransportKind::Framed);
        let mut delta = UpdateBatch::new();
        delta.insert(emp_tuple(6, "C", 44, 131, "EH4 8LE", "Crichton", "NYC"));
        let dv_sim = sim.apply(&delta).unwrap();
        let dv_byte = byte.apply(&delta).unwrap();
        assert_eq!(dv_sim.added, dv_byte.added);
        assert_eq!(dv_sim.removed, dv_byte.removed);
        assert_eq!(sim.stats().to_bytes(), byte.stats().to_bytes());
        assert!(sim.wire_stats().is_none() && sim.transport_meter().is_none());
        let wire = byte.wire_stats().expect("framed run measures wire bytes");
        assert!(wire.total_bytes() > byte.stats().total_bytes());
        assert!(byte.net().measured_bytes().is_some());
    }

    #[test]
    fn ibat_matches_oracle() {
        let s = emp_schema();
        let d = d0();
        let cfds = fig1_cfds(&s);
        let vs = VerticalScheme::round_robin(s.clone(), 3).unwrap();
        let hv = HorizontalScheme::by_hash(s.clone(), 0, 3).unwrap();
        let oracle = centralized(&cfds, &d);
        let o1 = ibat_ver(s.clone(), cfds.clone(), vs, &d).unwrap();
        assert_eq!(o1.violations.marks_sorted(), oracle.marks_sorted());
        let o2 = ibat_hor(s, cfds, hv, &d).unwrap();
        assert_eq!(o2.violations.marks_sorted(), oracle.marks_sorted());
    }

    #[test]
    fn batch_ships_more_than_incremental_for_small_updates() {
        // The headline claim, in miniature: one insertion costs the batch
        // algorithm |D|-scale shipment but the incremental detector O(1).
        let s = emp_schema();
        let scheme = vscheme(&s);
        let d = d0();
        let cfds = fig1_cfds(&s);
        let mut det = VerticalDetector::new(s.clone(), cfds.clone(), scheme.clone(), &d).unwrap();
        let mut delta = UpdateBatch::new();
        delta.insert(emp_tuple(6, "C", 44, 131, "EH4 8LE", "Mayfield", "EDI"));
        det.apply(&delta).unwrap();
        let inc_bytes = det.stats().total_bytes();

        let mut d2 = d0();
        delta.apply(&mut d2).unwrap();
        let bat = bat_ver(&cfds, &scheme, &d2);
        assert!(
            bat.stats.total_bytes() > inc_bytes,
            "batch {} vs incremental {}",
            bat.stats.total_bytes(),
            inc_bytes
        );
    }
}
