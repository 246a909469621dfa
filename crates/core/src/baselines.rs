//! Batch baselines.
//!
//! * [`bat_ver`] / [`bat_hor`] — batch detection "from scratch" following
//!   the coordinator heuristic the paper attributes to [Fan et al., ICDE
//!   2010] and uses as `batVer` / `batHor` in §7: for each CFD, ship the
//!   pattern-relevant attributes (vertical) or tuples (horizontal) to a
//!   per-CFD coordinator site and check the violations there. Their
//!   communication and computation grow with `|D|`, which is precisely what
//!   the incremental algorithms avoid.
//! * [`ibat_ver`] / [`ibat_hor`] — the *refined* batch algorithms of
//!   Exp-10: recompute from scratch, but through the incremental insertion
//!   machinery and its indices.
//!
//! The coordinator drives are substrate-generic ([`MsgTransport`]): each
//! takes a [`TransportKind`]. The simulated network delivers typed
//! messages through metered inboxes; framed and TCP run the same
//! protocol over [`ByteNetwork`] — every shipment crosses as a real
//! length-prefixed frame and is decoded by the coordinator from received
//! bytes alone, with measured wire bytes reported beside the (identical)
//! modeled `|M|`.

use crate::detector::{DetectError, Detector};
use crate::horizontal::HorizontalDetector;
use crate::vertical::VerticalDetector;
use cfd::pattern::PatternValue;
use cfd::{Cfd, CfdId, DeltaV, Violations};
use cluster::net::{bytes as wirefmt, FrameCodec, TransportKind};
use cluster::partition::{HorizontalScheme, VerticalScheme};
use cluster::{
    ByteNetwork, ClusterError, DictMeter, Meters, MsgTransport, NetReport, Network, SiteId, Wire,
};
use relation::{
    AttrId, FxHashMap, Relation, RowId, Schema, SmallVec, Sym, Tid, Tuple, UpdateBatch, ValuePool,
};
use std::borrow::Borrow;
use std::sync::Arc;

/// Interned group key for the coordinator-side `GROUP BY t[X]`.
type GroupKey = SmallVec<Sym, 4>;

/// Sentinel for "attribute not yet assembled" in coordinator slots.
const SYM_NONE: Sym = Sym::MAX;

/// A columnar, dictionary-backed shipment of projected rows: the tid
/// vector, one symbol column per served attribute (sender-local symbols),
/// and the **dictionary delta** — the `(sym, value)` entries this link has
/// not carried before. Sizing is a [`DictMeter`], the residency meter
/// the incremental `dict` codec prices with (4 B per shipped symbol,
/// one-time `4 B + |value|` per new entry, per ordered link). Repeat
/// values therefore cost 4 bytes instead of their full wire size, which
/// is what collapses the coordinators' `|M|` on skewed columns.
#[derive(Debug, Clone, PartialEq)]
pub struct ColsMsg {
    /// Row tids, ascending (the sender's scan order): a frame writes
    /// each as its gap from the one before.
    pub tids: Vec<Tid>,
    /// One column per served attribute, aligned with `tids`.
    pub cols: Vec<Vec<Sym>>,
    /// Dictionary entries new to this `(src → dst)` link.
    pub dict: Vec<(Sym, relation::Value)>,
}

impl ColsMsg {
    /// Modeled `|M|`: 8 B per tid, 4 B per symbol, `4 + |value|` per
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
    /// positions), updating `meter`'s per-link residency to pick the
    /// dictionary delta ([`DictMeter::ship_sym`] — the symbols here are the
    /// fragment store's own).
    pub fn encode(
        frag: &Relation,
        rows: &[(Tid, RowId)],
        attrs: &[AttrId],
        meter: &mut DictMeter,
        src: SiteId,
        dst: SiteId,
    ) -> ColsMsg {
        let store = frag.store();
        let mut msg = ColsMsg {
            tids: Vec::with_capacity(rows.len()),
            cols: vec![Vec::with_capacity(rows.len()); attrs.len()],
            dict: Vec::new(),
        };
        for &(tid, row) in rows {
            msg.tids.push(tid);
            for (k, &a) in attrs.iter().enumerate() {
                let s = store.sym(row, a);
                let v = store.value(row, a);
                if meter.ship_sym(src, dst, s, v) > DictMeter::SYM_WIRE_SIZE {
                    msg.dict.push((s, v.clone()));
                }
                msg.cols[k].push(s);
            }
        }
        msg
    }
}

/// Column payloads shipped by the batch baselines.
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
/// crosses a [`cluster::net::ByteNetwork`] as an actual frame and decodes
/// from received bytes alone, in the compact forms of
/// [`cluster::net::bytes`] (`v(x)` a canonical varint, `cell` a
/// [`wirefmt::put_cell`] value):
///
/// ```text
/// Cols  00 v(rows) v(first tid) (rows − 1) × v(tid − previous tid)
///          v(cols) cols × rows × v(sym)
///          v(entries) entries × (v(sym) cell)
/// ```
///
/// Tids ascend, so every gap is at least 1; a gap of zero, a tid past
/// `u64::MAX`, a symbol past [`Sym`] and a count past the bytes left are
/// refused before anything is allocated. The frame is not the `|M|`
/// model of [`ColsMsg::wire_size`] — 8 bytes a tid, 4 a symbol — and the
/// node that ships it books the difference. The receiver's link
/// dictionary is fed by each frame's delta
/// (`CoordPool::translate_received`).
impl FrameCodec for BatMsg {
    fn encode_frame(&self, out: &mut Vec<u8>) {
        let BatMsg::Cols(m) = self;
        out.push(0); // message tag
        wirefmt::put_varint(out, m.tids.len() as u64);
        let mut prev = None;
        for &t in &m.tids {
            debug_assert!(prev < Some(t), "tids ascend");
            wirefmt::put_varint(out, prev.map_or(t, |p| t.wrapping_sub(p)));
            prev = Some(t);
        }
        wirefmt::put_varint(out, m.cols.len() as u64);
        for col in &m.cols {
            debug_assert_eq!(col.len(), m.tids.len(), "columns align with tids");
            col.iter()
                .for_each(|&s| wirefmt::put_varint(out, u64::from(s)));
        }
        wirefmt::put_varint(out, m.dict.len() as u64);
        for (s, v) in &m.dict {
            wirefmt::put_varint(out, u64::from(*s));
            wirefmt::put_cell(out, v);
        }
    }

    fn decode_frame(body: &[u8]) -> Result<Self, ClusterError> {
        let mut r = wirefmt::Reader::new(body);
        if r.u8()? != 0 {
            return Err(ClusterError::Transport(
                "unknown batch-protocol message tag".into(),
            ));
        }
        let n_rows = r.count()?;
        let mut tids: Vec<Tid> = Vec::with_capacity(n_rows);
        for _ in 0..n_rows {
            let v = r.varint()?;
            let t = match tids.last() {
                None => Some(v),
                Some(&p) => p.checked_add(v).filter(|_| v > 0),
            };
            tids.push(t.ok_or_else(|| {
                ClusterError::Transport(
                    "malformed frame payload: tids do not ascend within u64".into(),
                )
            })?);
        }
        // A column serves one attribute, and each of its symbols takes a
        // byte: columns the frame cannot hold fail before any is reserved.
        let n_cols = usize::try_from(r.varint()?)
            .ok()
            .filter(|&k| k <= usize::from(AttrId::MAX) + 1)
            .filter(|&k| k.checked_mul(n_rows).is_some_and(|n| n <= r.remaining()))
            .ok_or_else(|| {
                ClusterError::Transport("malformed frame payload: columns exceed the frame".into())
            })?;
        let mut cols = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            let col = (0..n_rows).map(|_| r.id("symbol"));
            cols.push(col.collect::<Result<Vec<Sym>, _>>()?);
        }
        let n_dict = r.count()?;
        let mut dict = Vec::with_capacity(n_dict);
        for _ in 0..n_dict {
            dict.push((r.id("symbol")?, wirefmt::get_cell(&mut r)?));
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
    /// Shipment metered during the run ([`BatMsg::Cols`] accounting), with
    /// the measured bytes when the run crossed a byte transport.
    pub meters: Meters,
}

/// One CFD's coordinator run: marked tids plus the meters of the net it
/// drove (each CFD owns a private substrate, merged afterwards).
struct CfdRun {
    tids: Vec<Tid>,
    meters: Meters,
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
    let mut meter = DictMeter::new();
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
        .ok_or_else(|| ClusterError::BadScheme("a scheme of no site".into()))?;

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
        #[expect(
            clippy::expect_used,
            reason = "a site serves only attributes it holds, by `serving`'s construction"
        )]
        let served_local: Vec<AttrId> = served
            .iter()
            .map(|&a| scheme.local_pos(site, a).expect("served attr is local") as AttrId)
            .collect();
        let atoms = local_atom_syms(cfd, frag, |a| {
            scheme.local_pos(site, a).map(|p| p as AttrId)
        });
        let rows = filter_rows(frag, &atoms);
        if site != coord {
            let msg = ColsMsg::encode(frag, &rows, &served_local, &mut meter, site, coord);
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
        meters: net.meters().clone(),
    })
}

/// `batVer`: batch detection over vertical fragments, CFDs checked one
/// after another. With [`TransportKind::Framed`] or [`TransportKind::Tcp`]
/// every coordinator shipment crosses a [`ByteNetwork`] as a real frame
/// (and [`BatchOutcome::meters`] reports the measured bytes beside it);
/// the modeled `|M|` is identical on every substrate.
pub fn bat_ver(
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
    let mut out: Vec<Tid> = Vec::new();

    if let PatternValue::Const(rhs_const) = &cfd.rhs_pattern {
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
            meters: Meters::modeled(n),
        });
    }
    let mut net = bat_net(n, transport)?;
    let mut meter = DictMeter::new();
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
            let msg = ColsMsg::encode(frag, &rows, &proj, &mut meter, site, coord);
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
        meters: net.meters().clone(),
    })
}

/// `batHor`: batch detection over horizontal fragments, over `transport`
/// as in [`bat_ver`]. A row of `d` that `scheme` routes nowhere is its
/// [`ClusterError::Routing`].
pub fn bat_hor(
    cfds: &[Cfd],
    scheme: &HorizontalScheme,
    d: &Relation,
    transport: TransportKind,
) -> Result<BatchOutcome, DetectError> {
    let n = scheme.n_sites();
    let fragments = scheme.partition(d)?;
    let mut results = Vec::with_capacity(cfds.len());
    for cfd in cfds {
        results.push((cfd.id, bat_hor_one(cfd, n, &fragments, transport)?));
    }
    Ok(merge_results(cfds.len(), n, results))
}

/// Fold the per-CFD runs, each on its private substrate, into one outcome.
fn merge_results(n_cfds: usize, n_sites: usize, results: Vec<(CfdId, CfdRun)>) -> BatchOutcome {
    let mut violations = Violations::new(n_cfds);
    let mut meters = Meters::modeled(n_sites);
    for (cfd, run) in results {
        for t in run.tids {
            violations.add(cfd, t);
        }
        meters.merge(&run.meters);
    }
    BatchOutcome { violations, meters }
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
        meters: det.meters().clone(),
    })
}

/// `ibatHor` (Exp-10): horizontal counterpart of [`ibat_ver`]. The
/// incremental reload runs its §6 rounds through `transport` (real frames
/// under [`TransportKind::Framed`]/[`TransportKind::Tcp`]).
pub fn ibat_hor(
    schema: Arc<Schema>,
    cfds: Vec<Cfd>,
    scheme: HorizontalScheme,
    d: &Relation,
    transport: TransportKind,
) -> Result<BatchOutcome, DetectError> {
    let empty = Relation::new(schema.clone());
    let mut det = HorizontalDetector::new(
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
        meters: det.meters().clone(),
    })
}

// ----------------------------------------------------------------------
// Baselines as maintained detectors
// ----------------------------------------------------------------------

/// Scheme-side validation of rows before they are stored — `D₀` at
/// construction, an admitted batch at `apply` — so a row the scheme cannot
/// place (an unroutable tuple) surfaces as `Err` before any state is
/// mutated, matching the incremental detectors' behavior, instead of
/// panicking inside the batch recompute.
trait BatScheme {
    fn check_rows<T: Borrow<Tuple>>(
        &self,
        rows: impl Iterator<Item = T>,
    ) -> Result<(), DetectError>;
}

impl BatScheme for VerticalScheme {
    fn check_rows<T: Borrow<Tuple>>(&self, _: impl Iterator<Item = T>) -> Result<(), DetectError> {
        Ok(()) // projections exist for every tuple
    }
}

impl BatScheme for HorizontalScheme {
    fn check_rows<T: Borrow<Tuple>>(
        &self,
        rows: impl Iterator<Item = T>,
    ) -> Result<(), DetectError> {
        for t in rows {
            self.route(t.borrow())?;
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
     $(transport: $transport:ty,)? |$self_:ident| $recompute:expr) => {
        $(#[$doc])*
        pub struct $name {
            schema: Arc<Schema>,
            cfds: Vec<Cfd>,
            scheme: $scheme_ty,
            current: Relation,
            violations: Violations,
            $(transport: $transport,)?
            meters: Meters,
        }

        impl $name {
            /// Build over `d`, refusing what [`with_initial`](Self::with_initial)
            /// refuses. The initial violation computation is not
            /// metered; traffic accrues per [`Detector::apply`] recompute.
            pub fn new(
                schema: Arc<Schema>,
                cfds: Vec<Cfd>,
                scheme: $scheme_ty,
                d: &Relation,
            ) -> Result<Self, DetectError> {
                let mut det = Self::with_initial(schema, cfds, scheme, d, Violations::new(0))?;
                det.violations = cfd::naive::detect(&det.cfds, &det.current);
                Ok(det)
            }

            /// Build over `d` with `V(Σ, D)` supplied by the caller (the
            /// paper's problem statement takes it as given). Skips the
            /// centralized pass of [`new`](Self::new) — harnesses that
            /// already computed the initial violations (e.g. beside an
            /// incremental detector over the same `D`) should use this.
            /// A `d` the detector could not recompute over is refused as
            /// `incHor` refuses it: another arity than `schema`'s is
            /// [`relation::RelError::ArityMismatch`], a row the scheme
            /// routes nowhere the scheme's [`ClusterError::Routing`].
            pub fn with_initial(
                schema: Arc<Schema>,
                cfds: Vec<Cfd>,
                scheme: $scheme_ty,
                d: &Relation,
                initial: Violations,
            ) -> Result<Self, DetectError> {
                crate::detector::positional(&cfds)?;
                let current = d.clone_under(schema.clone())?;
                scheme.check_rows(current.iter())?;
                let n = scheme.n_sites();
                Ok($name {
                    violations: initial,
                    current,
                    $(transport: <$transport>::default(),)?
                    meters: Meters::modeled(n),
                    schema,
                    cfds,
                    scheme,
                })
            }

            $(
            /// Recompute over an explicit transport substrate: framed or
            /// TCP runs ship real coordinator frames and expose measured
            /// wire bytes beside the modeled `|M|`.
            pub(crate) fn with_transport(mut self, transport: $transport) -> Self {
                self.transport = transport;
                self
            }
            )?

            /// Cumulative recompute traffic, with the measured bytes once
            /// a recompute crossed a byte transport.
            pub fn meters(&self) -> &Meters {
                &self.meters
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
                if delta.ops().is_empty() {
                    return Ok(DeltaV::default());
                }
                self.scheme.check_rows(delta.insertions())?;
                delta.apply(&mut self.current)?;
                let $self_ = &*self;
                let out: BatchOutcome = $recompute;
                self.meters.merge(&out.meters);
                let dv = self.violations.diff(&out.violations);
                self.violations = out.violations;
                Ok(dv)
            }

            fn net(&self) -> NetReport {
                let report = self.meters.report("net");
                match $codec {
                    Some(codec) => report.with_codec(codec),
                    None => report,
                }
            }

            fn reset_stats(&mut self) {
                self.meters.reset();
            }
        }
    };
}

batch_detector!(
    /// `batVer` as a maintained [`Detector`]: every `apply` recomputes
    /// `V(Σ, D ⊕ ΔD)` from scratch with [`bat_ver`] over the
    /// configured transport and reports the diff.
    BatVer, "batVer", Some("dict"), VerticalScheme, transport: TransportKind,
    |det| bat_ver(&det.cfds, &det.scheme, &det.current, det.transport)?
);

batch_detector!(
    /// `batHor` as a maintained [`Detector`], wrapping [`bat_hor`].
    BatHor, "batHor", Some("dict"), HorizontalScheme, transport: TransportKind,
    |det| bat_hor(&det.cfds, &det.scheme, &det.current, det.transport)?
);

batch_detector!(
    /// `ibatVer` (Exp-10) as a maintained [`Detector`]: recompute through
    /// the incremental machinery via [`ibat_ver`] (simulated network —
    /// the vertical detector has no byte-transport mode, so it carries no
    /// transport).
    IbatVer, "ibatVer", None::<&str>, VerticalScheme,
    |det| ibat_ver(det.schema.clone(), det.cfds.clone(), det.scheme.clone(), &det.current)?
);

batch_detector!(
    /// `ibatHor` (Exp-10) as a maintained [`Detector`], via
    /// [`ibat_hor`] over the configured transport.
    IbatHor, "ibatHor", Some("md5"), HorizontalScheme, transport: TransportKind,
    |det| ibat_hor(
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
    use crate::horizontal::tests::{arbitrary_bytes, frame_of};
    use cluster::TransportMeter;
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
        let out = bat_ver(&cfds, &scheme, &d, TransportKind::Simulated).unwrap();
        let oracle = cfd::naive::detect(&cfds, &d);
        assert_eq!(out.violations.marks_sorted(), oracle.marks_sorted());
        assert!(
            out.meters.modeled.total_bytes() > 0,
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
        let out = bat_hor(&cfds, &scheme, &d, TransportKind::Simulated).unwrap();
        let oracle = cfd::naive::detect(&cfds, &d);
        assert_eq!(out.violations.marks_sorted(), oracle.marks_sorted());
        assert!(out.meters.modeled.total_bytes() > 0);
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
        let sim = bat_ver(&cfds, &vs, &d, TransportKind::Simulated).unwrap();
        for transport in [TransportKind::Framed, TransportKind::Tcp] {
            let byte = bat_ver(&cfds, &vs, &d, transport).unwrap();
            assert_eq!(
                sim.violations.marks_sorted(),
                byte.violations.marks_sorted(),
                "batVer violations must agree over {transport:?}"
            );
            assert_eq!(
                sim.meters.modeled.to_bytes(),
                byte.meters.modeled.to_bytes(),
                "batVer modeled |M| must be bit-identical over {transport:?}"
            );
            let m = byte.meters.transport;
            assert!(m.frames > 0, "byte transport meters frames");
            assert_eq!(
                m.wire_bytes,
                m.modeled_bytes + m.structural_bytes - m.saved_bytes,
                "wire overhead identity over {transport:?}"
            );
            let report = byte.meters.report("net");
            let wire = report.measured().expect("byte transport meters wire stats");
            // `[measured, modeled]`: varint tids and symbols undercut the
            // model's 8 and 4 bytes.
            let got = [wire.total_bytes(), byte.meters.modeled.total_bytes()];
            assert_eq!(got, [43, 154], "{transport:?}");
        }

        let hs = HorizontalScheme::by_hash(s.clone(), 0, 3).unwrap();
        let sim = bat_hor(&cfds, &hs, &d, TransportKind::Simulated).unwrap();
        let byte = bat_hor(&cfds, &hs, &d, TransportKind::Framed).unwrap();
        assert_eq!(
            sim.violations.marks_sorted(),
            byte.violations.marks_sorted()
        );
        assert_eq!(
            sim.meters.modeled.to_bytes(),
            byte.meters.modeled.to_bytes()
        );
        assert!(sim.meters.report("net").measured().is_none());
        assert!(byte.meters.report("net").measured().is_some() && byte.meters.transport.frames > 0);
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
        assert_eq!(
            sim.meters().modeled.to_bytes(),
            byte.meters().modeled.to_bytes()
        );
        assert!(sim.net().measured().is_none());
        assert_eq!(sim.meters().transport, TransportMeter::default());
        let report = byte.net();
        let wire = report.measured().expect("framed run measures wire bytes");
        let got = [wire.total_bytes(), byte.meters().modeled.total_bytes()];
        assert_eq!(got, [84, 202], "[measured, modeled]");
        assert!(byte.net().measured_bytes().is_some());
    }

    #[test]
    fn ibat_matches_oracle() {
        let s = emp_schema();
        let d = d0();
        let cfds = fig1_cfds(&s);
        let vs = VerticalScheme::round_robin(s.clone(), 3).unwrap();
        let hv = HorizontalScheme::by_hash(s.clone(), 0, 3).unwrap();
        let oracle = cfd::naive::detect(&cfds, &d);
        let o1 = ibat_ver(s.clone(), cfds.clone(), vs, &d).unwrap();
        assert_eq!(o1.violations.marks_sorted(), oracle.marks_sorted());
        let o2 = ibat_hor(s, cfds, hv, &d, TransportKind::Simulated).unwrap();
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
        let inc_bytes = det.meters().modeled.total_bytes();

        let mut d2 = d0();
        delta.apply(&mut d2).unwrap();
        let bat = bat_ver(&cfds, &scheme, &d2, TransportKind::Simulated).unwrap();
        assert!(
            bat.meters.modeled.total_bytes() > inc_bytes,
            "batch {} vs incremental {}",
            bat.meters.modeled.total_bytes(),
            inc_bytes
        );
    }

    // -- the frame codec -------------------------------------------------

    /// A seeded shipment of `rows` ascending tids (gaps of one to a few
    /// hundred), `cols` symbol columns and a dictionary delta of ints and
    /// strings.
    fn seeded_cols(seed: u64, rows: usize, cols: usize) -> BatMsg {
        let mut t = seed;
        let tids = (0..rows as u64)
            .map(|i| {
                t += 1 + (i * seed) % 300;
                t
            })
            .collect();
        let col = |c: usize| (0..rows).map(|i| (i * 37 + c * 1_000) as Sym).collect();
        let entry = |i: usize| match i % 2 {
            0 => (i as Sym * 200, Value::int(-(i as i64) * 1_000)),
            _ => (i as Sym * 200, Value::str(format!("v{i}"))),
        };
        BatMsg::Cols(ColsMsg {
            tids,
            cols: (0..cols).map(col).collect(),
            dict: (0..rows.min(5)).map(entry).collect(),
        })
    }

    /// Batch frames round-trip at the lengths their layout gives. Bytes
    /// no encoder writes decode to a typed error, never a panic or an
    /// allocation they size: every proper prefix; a count past the bytes
    /// left; an overlong varint; a symbol past [`Sym`]; tids that do not
    /// ascend.
    #[test]
    fn hostile_batch_frames_are_refused() {
        for seed in 1..=6 {
            let m = seeded_cols(seed, [0, 1, 2, 40, 130, 7][seed as usize - 1], 3);
            let buf = frame_of(&m);
            assert_eq!(BatMsg::decode_frame(&buf).unwrap(), m, "seed {seed}");
            for cut in 0..buf.len() {
                let got = BatMsg::decode_frame(&buf[..cut]);
                assert!(got.is_err(), "seed {seed}: prefix {cut} of {buf:02x?}");
            }
        }
        // Tag, three counts, tids 5, 6, 300 as 5 and gaps of 1 and 294,
        // symbols 1, 2, 200, and the entry (200, −3) as a symbol and a
        // cell: 16 bytes, against 24 + 12 + 12 modeled.
        let m = BatMsg::Cols(ColsMsg {
            tids: vec![5, 6, 300],
            cols: vec![vec![1, 2, 200]],
            dict: vec![(200, Value::int(-3))],
        });
        assert_eq!([frame_of(&m).len(), m.wire_size()], [16, 48]);

        let refused = |frame: &[u8], why: &str| match BatMsg::decode_frame(frame) {
            Err(ClusterError::Transport(e)) => assert!(e.contains(why), "{frame:02x?}: {e}"),
            other => panic!("{frame:02x?}: {other:?}"),
        };
        refused(&[9], "unknown batch-protocol message tag");
        // A row count whose varint never ends; 2¹⁵ rows; a column of three
        // symbols with one byte left; 2¹⁶ + 1 empty columns, more than
        // there are attributes; a dictionary of 2⁴⁰ entries.
        refused(&[0, 0xff, 0xff, 0xff, 0xff], "truncated field");
        refused(&[0, 0x80, 0x80, 0x02], "item count exceeds the frame");
        refused(&[0, 3, 1, 1, 1, 1, 7], "columns exceed the frame");
        refused(&[0, 0, 0x81, 0x80, 0x04, 0], "columns exceed the frame");
        assert!(BatMsg::decode_frame(&[0, 0, 2, 0]).is_ok());
        let huge = [0x80, 0x80, 0x80, 0x80, 0x80, 0x20];
        refused(&[&[0, 0, 0][..], &huge].concat(), "item count exceeds");
        // One row, its count written in two bytes where one will do.
        refused(&[0, 0x81, 0x00, 5, 0, 0], "overlong varint");
        assert!(BatMsg::decode_frame(&[0, 0x01, 5, 0, 0]).is_ok());
        // Symbol 2³² in a column, and as a dictionary entry.
        let mut past = vec![0, 1, 5, 1];
        cluster::net::bytes::put_varint(&mut past, 1 << 32);
        refused(&[&past[..], &[0]].concat(), "symbol past");
        refused(
            &[&[0, 0, 0, 1][..], &past[4..], &[0]].concat(),
            "symbol past",
        );
        // A repeated tid; a gap past `u64::MAX`.
        refused(&[0, 2, 5, 0, 0, 0], "tids do not ascend");
        let mut wrap = vec![0, 2];
        cluster::net::bytes::put_varint(&mut wrap, u64::MAX);
        refused(&[&wrap[..], &[1, 0, 0]].concat(), "tids do not ascend");
    }

    /// Arbitrary bytes give a typed error, or a shipment that re-encodes
    /// to exactly the bytes it was read from.
    #[test]
    fn arbitrary_bytes_error_or_re_encode() {
        let specimens: Vec<_> = (1..=20)
            .map(|s| frame_of(&seeded_cols(s, s as usize % 9, s as usize % 3)))
            .collect();
        let (msgs, errors, _) = arbitrary_bytes::<BatMsg>(0..1, &[], &specimens);
        assert!(
            msgs > 1_000 && errors > 1_000,
            "{msgs} messages, {errors} errors"
        );
    }
}
