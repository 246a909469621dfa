//! One seeded differential matrix for the contract of §4–§6: every
//! incremental detector keeps exactly `V(Σ, D)` and `ΔV`, whatever the
//! partition, codec, transport, analysis mode or drive.
//!
//! A [`Family`] is one instance — schema, Σ, `D₀`, the batches, the three
//! schemes and its oracles — and [`run`] drives it through the cells of
//! strategy × codec × transport × analysis × drive that the library
//! accepts, one cell alive at a time:
//!
//! - strategy: the paper's eight algorithms;
//! - codec: `raw_values` / `md5` / `dict`; transport: `simulated` /
//!   `framed` / `tcp`;
//! - analysis: `off`, plus `warn` and `prune` when Σ is satisfiable and
//!   has prunable rules (bare detector families only);
//! - drive: sequential, plus `ConcurrentHorizontal::threaded` for `incHor`
//!   over the in-memory mesh and over TCP (bare detector families only).
//!
//! With a stride above 1, [`run`] runs a rotating share of the cells at
//! each seed (a cell's group is then compared with its first cell run),
//! but every refused cell is asserted refused with its typed
//! `UnsupportedTransport` / `UnsupportedCodec` error. After every batch
//! each cell is held to a mirror of `D` kept in step with it: `V` equals
//! every oracle over the mirror, `ΔV` equals the settled diff of `V`,
//! `current()` holds the mirror's rows, `ΔV` equals the family's first
//! cell's, cells that differ only in transport or drive model the same
//! messages and `|M|` on every link (and the sequential byte cells write
//! the same bytes on every link), the report's roll-ups are its tiers'
//! sums, and an `incHor` or threaded cell's meters agree with its report
//! and obey measured = modeled + structural − saved.
//!
//! A failing cell is shrunk by delta debugging ([`ddmin`], Zeller and
//! Hildebrandt, TSE 2002) over the batches, then over the ops of each
//! batch left, and the panic prints the [`replay`] call that reruns that
//! case alone.

use inc_cfd::cfd::analysis::{analyze, AnalysisConfig, Domains, Sat};
use inc_cfd::cluster::net::TransportKind::{Framed, Simulated, Tcp};
use inc_cfd::cluster::netstats::Counters;
use inc_cfd::cluster::Meters;
use inc_cfd::incdetect::optimize::OptimizeConfig;
use inc_cfd::incdetect::ConcurrentHorizontal;
use inc_cfd::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// `(rule, tid)` marks, sorted.
pub(crate) type Marks = Vec<(u32, Tid)>;

/// `V(Σ, D)` over the mirrors: `D` first, then the family's references.
pub(crate) type Oracle = Box<dyn Fn(&[Relation]) -> Marks>;

/// A family for a seed, or `None` when the seed draws no instance.
pub(crate) type Maker = fn(u64) -> Option<Family>;

/// One instance the matrix drives its cells over.
pub(crate) struct Family {
    /// The maker's name, as [`replay`] calls it.
    pub(crate) name: &'static str,
    pub(crate) schema: Arc<Schema>,
    pub(crate) cfds: Vec<Cfd>,
    pub(crate) d0: Relation,
    /// `(relation, batch)`: relation 0 is `D`, `i` is `refs[i - 1]`.
    pub(crate) batches: Vec<(usize, UpdateBatch)>,
    pub(crate) schemes: (VerticalScheme, HorizontalScheme, HybridScheme),
    pub(crate) opt: OptimizeConfig,
    /// Every oracle must agree with every other and with every cell.
    pub(crate) oracles: Vec<Oracle>,
    /// Non-CFD checks: when present every cell is a suite session.
    pub(crate) checks: Vec<Check>,
    pub(crate) refs: Vec<Relation>,
}

impl Family {
    /// A bare detector family over `D` with `cfd::naive` as its oracle and
    /// no batches yet.
    pub(crate) fn new(
        name: &'static str,
        cfds: Vec<Cfd>,
        d0: Relation,
        schemes: (VerticalScheme, HorizontalScheme, HybridScheme),
    ) -> Family {
        let sigma = cfds.clone();
        Family {
            name,
            schema: d0.schema().clone(),
            cfds,
            d0,
            batches: Vec::new(),
            schemes,
            opt: OptimizeConfig::default(),
            oracles: vec![Box::new(move |d| naive(&sigma, &d[0]))],
            checks: Vec::new(),
            refs: Vec::new(),
        }
    }

    /// Batches on `D`.
    pub(crate) fn batches(mut self, batches: impl IntoIterator<Item = UpdateBatch>) -> Family {
        self.batches = batches.into_iter().map(|b| (0, b)).collect();
        self
    }
}

/// `cfd::naive::detect` as marks.
pub(crate) fn naive(cfds: &[Cfd], d: &Relation) -> Marks {
    cfd::naive::detect(cfds, d).marks_sorted()
}

/// The eight strategies, by [`Strategy::name`].
const STRATEGIES: [&str; 8] = [
    "incVer", "optVer", "incHor", "incHyb", "batVer", "batHor", "ibatVer", "ibatHor",
];
const CODECS: [CodecKind; 3] = [CodecKind::Md5, CodecKind::RawValues, CodecKind::Dict];
const TRANSPORTS: [TransportKind; 3] = [Simulated, Framed, Tcp];
const MODES: [AnalysisMode; 3] = [AnalysisMode::Off, AnalysisMode::Warn, AnalysisMode::Prune];

/// One configuration of a family's detector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Cell {
    pub(crate) strategy: &'static str,
    pub(crate) codec: CodecKind,
    pub(crate) transport: TransportKind,
    pub(crate) mode: AnalysisMode,
    /// `ConcurrentHorizontal::threaded` instead of the sequential drive.
    pub(crate) threaded: bool,
}

impl Cell {
    /// The simulated sequential cell this one differs from only in
    /// transport or drive.
    fn head(self) -> Cell {
        Cell {
            transport: Simulated,
            threaded: false,
            ..self
        }
    }
}

/// Why the library must refuse a sequential cell, stated here apart from
/// the library: `incVer`, `optVer` and `ibatVer` ship eqids on the
/// simulated network only, and only `incHor` and `incHyb` take a codec
/// other than the default. A transport is checked before a codec.
fn refusal(strategy: &str, codec: CodecKind, transport: TransportKind) -> Option<&'static str> {
    let simulated_only = ["incVer", "optVer", "ibatVer"].contains(&strategy);
    let takes_codec = ["incHor", "incHyb"].contains(&strategy);
    if simulated_only && transport != Simulated {
        Some("transport")
    } else if !takes_codec && codec != CodecKind::default() {
        Some("codec")
    } else {
        None
    }
}

/// Whether Σ has rules `Prune` drops and a catalog it builds over.
fn prunable(family: &Family) -> bool {
    let domains = Domains::open(&family.schema);
    let a = analyze(
        &family.schema,
        &family.cfds,
        &domains,
        &AnalysisConfig::default(),
    );
    a.prune.n_pruned() > 0 && !matches!(a.sat, Sat::Unsatisfiable { .. })
}

/// The family's cells, each group's simulated sequential cell ahead of
/// the cells that differ from it only in transport or drive, and every
/// refused cell with the word its error must name.
pub(crate) fn cells(family: &Family) -> (Vec<Cell>, Vec<(Cell, &'static str)>) {
    let bare = family.checks.is_empty();
    let modes = if bare && prunable(family) { 3 } else { 1 };
    let (mut accepted, mut refused) = (Vec::new(), Vec::new());
    for mode in &MODES[..modes] {
        for (strategy, codec) in STRATEGIES.iter().flat_map(|s| CODECS.map(|c| (*s, c))) {
            let cell = |transport, threaded| Cell {
                strategy,
                codec,
                transport,
                mode: *mode,
                threaded,
            };
            for transport in TRANSPORTS {
                match refusal(strategy, codec, transport) {
                    Some(why) => refused.push((cell(transport, false), why)),
                    None => accepted.push(cell(transport, false)),
                }
            }
            if bare && strategy == "incHor" && *mode == AnalysisMode::Off {
                accepted.extend([cell(Framed, true), cell(Tcp, true)]);
            }
        }
    }
    (accepted, refused)
}

/// A built cell: a bare detector (concrete where its meters are needed)
/// or a suite session.
pub(crate) enum Subject {
    Det(Box<dyn Detector>),
    Hor(Box<HorizontalDetector>),
    Thr(Box<ConcurrentHorizontal>),
    Suite(Box<SuiteSession>),
}

impl Subject {
    pub(crate) fn det(&self) -> &dyn Detector {
        match self {
            Subject::Det(det) => det.as_ref(),
            Subject::Hor(det) => det.as_ref(),
            Subject::Thr(det) => det.as_ref(),
            Subject::Suite(session) => session.detector(),
        }
    }

    /// `V`, or the session's findings.
    pub(crate) fn marks(&self) -> Marks {
        match self {
            Subject::Suite(session) => session.finding_set().marks_sorted(),
            other => other.det().violations().marks_sorted(),
        }
    }

    pub(crate) fn net(&self) -> NetReport {
        match self {
            Subject::Suite(session) => session.net(),
            other => other.det().net(),
        }
    }

    fn meters(&self) -> Option<&Meters> {
        match self {
            Subject::Hor(det) => Some(det.meters()),
            Subject::Thr(det) => Some(det.meters()),
            _ => None,
        }
    }

    fn reset_stats(&mut self) {
        match self {
            Subject::Det(det) => det.reset_stats(),
            Subject::Hor(det) => det.reset_stats(),
            Subject::Thr(det) => det.reset_stats(),
            Subject::Suite(session) => session.reset_stats(),
        }
    }

    /// Apply `batch` to relation `to`: `(added, removed)` marks. A suite
    /// finding labelled with another kind than its rule's panics.
    pub(crate) fn apply(
        &mut self,
        to: usize,
        refs: &[Relation],
        batch: &UpdateBatch,
    ) -> Result<(Marks, Marks), DetectError> {
        let dv = match self {
            Subject::Det(det) => det.apply(batch)?,
            Subject::Hor(det) => det.apply(batch)?,
            Subject::Thr(det) => det.apply(batch)?,
            Subject::Suite(session) => {
                let d = match to {
                    0 => session.apply(batch)?,
                    i => session.apply_to(refs[i - 1].schema().name(), batch)?,
                };
                let set = session.finding_set();
                let flat = |fs: &[Finding]| {
                    let mut marks = Vec::new();
                    for f in fs {
                        assert_eq!(f.kind, set.kind(f.rule), "rule {}", f.rule);
                        marks.extend(f.tids.iter().map(|&t| (f.rule, t)));
                    }
                    marks.sort_unstable();
                    marks
                };
                return Ok((flat(&d.findings.added), flat(&d.findings.removed)));
            }
        };
        Ok((dv.added, dv.removed))
    }
}

/// The suite a sequential cell builds from.
fn suite(family: &Family, cell: &Cell) -> Suite {
    let (v, h, y) = family.schemes.clone();
    let strategy = match cell.strategy {
        "incVer" => Strategy::Vertical(v),
        "optVer" => Strategy::OptimizedVertical(v, family.opt),
        "incHor" => Strategy::Horizontal(h),
        "incHyb" => Strategy::Hybrid(y),
        "batVer" => Strategy::BatVer(v),
        "batHor" => Strategy::BatHor(h),
        "ibatVer" => Strategy::IbatVer(v),
        _ => Strategy::IbatHor(h),
    };
    let suite = Suite::on(family.schema.clone()).cfds(family.cfds.clone());
    let suite = suite
        .strategy(strategy)
        .codec(cell.codec)
        .transport(cell.transport);
    let suite = suite.analyze(cell.mode).checks(family.checks.clone());
    family
        .refs
        .iter()
        .fold(suite, |s, r| s.reference(r.clone()))
}

/// Build `cell` over the family's `D₀`.
pub(crate) fn build(family: &Family, cell: &Cell) -> Result<Subject, DetectError> {
    let (schema, cfds, d0) = (family.schema.clone(), family.cfds.clone(), &family.d0);
    let (codec, transport, h) = (cell.codec, cell.transport, family.schemes.1.clone());
    if cell.threaded {
        let det = ConcurrentHorizontal::threaded(schema, cfds, h, d0, codec, transport)?;
        Ok(Subject::Thr(Box::new(det)))
    } else if !family.checks.is_empty() {
        Ok(Subject::Suite(Box::new(suite(family, cell).build(d0)?)))
    } else if cell.strategy == "incHor" && cell.mode == AnalysisMode::Off {
        let det = HorizontalDetector::new(schema, cfds, h, d0, codec, transport)?;
        Ok(Subject::Hor(Box::new(det)))
    } else {
        Ok(Subject::Det(suite(family, cell).build_detector(d0)?))
    }
}

/// Where a drive went wrong: the cell (none for the oracles), the batch
/// (none at the build) and what was seen.
#[derive(Debug)]
pub(crate) struct Failure {
    pub(crate) cell: Option<Cell>,
    pub(crate) batch: Option<usize>,
    pub(crate) msg: String,
}

/// What [`run`] saw, summed over its seeds.
#[derive(Default)]
pub(crate) struct Report {
    pub(crate) accepted: usize,
    pub(crate) refused: usize,
    /// Per batch, the `(added, removed)` marks every cell reported.
    pub(crate) deltas: Vec<(Marks, Marks)>,
    /// Per cell: modeled messages and `|M|`, then measured frames and
    /// bytes (0 when nothing was measured), summed over the batches.
    pub(crate) traffic: Vec<(Cell, [u64; 4])>,
}

/// The marks `after` has and `before` has not, and the converse: the
/// settled `ΔV` between two sorted mark lists.
fn settled(before: &[(u32, Tid)], after: &[(u32, Tid)]) -> (Marks, Marks) {
    let not_in = |xs: &[(u32, Tid)], ys: &[(u32, Tid)]| -> Marks {
        xs.iter()
            .filter(|m| ys.binary_search(m).is_err())
            .copied()
            .collect()
    };
    (not_in(after, before), not_in(before, after))
}

/// Counters link by link.
fn links(s: &NetStats) -> Vec<Counters> {
    let n = s.n_sites();
    (0..n * n).map(|i| s.pair(i / n, i % n)).collect()
}

/// What a cell's traffic must equal in the cells after it: each tier's
/// modeled links, and the measured links of a sequential byte cell.
type Seen = (Vec<Vec<Counters>>, Option<Vec<Counters>>);

/// What every cell must see: the oracles' marks at `D₀`, and after each
/// batch with the mirror of `D`.
type Expected = (Marks, Vec<(Marks, Relation)>);

fn expected(family: &Family, steps: &[(usize, UpdateBatch)]) -> Result<Expected, Failure> {
    let fail = |batch, msg| Failure {
        cell: None,
        batch,
        msg,
    };
    let mut mirrors: Vec<Relation> = std::iter::once(&family.d0)
        .chain(&family.refs)
        .cloned()
        .collect();
    let agreed = |mirrors: &[Relation], batch| {
        let mut all = family.oracles.iter().map(|o| o(mirrors));
        let first = all.next().expect("a family has an oracle");
        match all.position(|m| m != first) {
            Some(i) => Err(fail(
                batch,
                format!("oracle {} disagrees with oracle 0", i + 1),
            )),
            None => Ok(first),
        }
    };
    let initial = agreed(&mirrors, None)?;
    let mut after = Vec::new();
    for (i, (to, batch)) in steps.iter().enumerate() {
        let applied = batch.normalize(&mirrors[*to]).apply(&mut mirrors[*to]);
        applied.map_err(|e| fail(Some(i), format!("mirror: {e}")))?;
        after.push((agreed(&mirrors, Some(i))?, mirrors[0].clone()));
    }
    Ok((initial, after))
}

/// Drive `cells` over `steps`, one cell alive at a time, each held to the
/// oracles and to the cells before it.
fn drive(
    family: &Family,
    cells: &[Cell],
    steps: &[(usize, UpdateBatch)],
) -> Result<Report, Failure> {
    let (initial, want) = expected(family, steps)?;
    let mut report = Report::default();
    // Per group head: what its cells must see after each batch.
    let mut groups: Vec<(Cell, Vec<Seen>)> = Vec::new();
    for cell in cells {
        let at = |batch, msg| Failure {
            cell: Some(*cell),
            batch,
            msg,
        };
        let run = catch_unwind(AssertUnwindSafe(|| -> Result<[u64; 4], Failure> {
            let mut subject = build(family, cell).map_err(|e| at(None, format!("build: {e}")))?;
            if subject.marks() != initial {
                return Err(at(None, "V(Σ, D₀) is not the oracle's".into()));
            }
            let group = groups.iter().position(|(head, _)| *head == cell.head());
            let byte = !cell.threaded && cell.transport != Simulated;
            let mut seen: Vec<Seen> = Vec::new();
            for (i, ((to, batch), (marks, mirror))) in steps.iter().zip(&want).enumerate() {
                let fail = |msg: &str| Err(at(Some(i), msg.to_string()));
                let before = subject.marks();
                let applied = subject.apply(*to, &family.refs, batch);
                let delta = applied.map_err(|e| at(Some(i), format!("apply: {e}")))?;
                let after = subject.marks();
                if after != *marks {
                    return fail("V diverged from the oracle");
                }
                if delta != settled(&before, &after) {
                    return fail("ΔV is not the settled diff of V");
                }
                if !subject.det().current().iter().eq(mirror.iter()) {
                    return fail("current() does not hold the mirror's rows");
                }
                match report.deltas.get(i) {
                    Some(first) if *first != delta => {
                        return fail("ΔV differs from the first cell's")
                    }
                    Some(_) => {}
                    None => report.deltas.push(delta),
                }
                let net = subject.net();
                let tiers = net.tiers();
                let sum = |f: fn(&NetStats) -> u64| tiers.iter().map(|(_, s)| f(s)).sum::<u64>();
                let totals = (net.total_messages(), net.total_bytes());
                if tiers.is_empty()
                    || totals != (sum(NetStats::total_messages), sum(NetStats::total_bytes))
                {
                    return fail("the report's roll-ups are not its tiers' sums");
                }
                let modeled = tiers.iter().map(|(_, s)| links(s)).collect();
                let wire = net.measured().filter(|_| byte).map(links);
                if let Some((model, bytes)) = group.and_then(|g| groups[g].1.get(i)) {
                    if *model != modeled {
                        return fail("modeled messages or |M| differ from the simulated cell's");
                    }
                    if bytes.is_some() && wire.is_some() && *bytes != wire {
                        return fail("wire bytes differ from the other byte cell's");
                    }
                }
                seen.push((modeled, wire));
                if let Some(m) = subject.meters() {
                    let t = m.transport;
                    if totals.1 != m.modeled.total_bytes() {
                        return fail("the report's bytes are not the modeled meter's");
                    }
                    if t.wire_bytes != t.modeled_bytes + t.structural_bytes - t.saved_bytes {
                        return fail("measured ≠ modeled + structural − saved");
                    }
                    let wire = net
                        .measured()
                        .map(|w| (w.total_messages(), w.total_bytes()));
                    if wire.is_some_and(|w| w != (t.frames, t.wire_bytes)) {
                        return fail("the measured tier is not the transport meter");
                    }
                }
                let model = CostModel::default();
                if net.pipelined_seconds(&model) > net.simulated_seconds(&model) + 1e-12 {
                    return fail("pipelined time exceeds serial time");
                }
            }
            let net = subject.net();
            let takes_codec = ["incHor", "incHyb"].contains(&cell.strategy);
            if takes_codec && !cell.threaded && net.codec() != Some(cell.codec.name()) {
                return Err(at(None, format!("net() names codec {:?}", net.codec())));
            }
            let measured = net
                .measured()
                .map(|m| (m.total_messages(), m.total_bytes()));
            let (frames, bytes) = measured.unwrap_or_default();
            let traffic = [net.total_messages(), net.total_bytes(), frames, bytes];
            subject.reset_stats();
            let net = subject.net();
            let left = net.measured().map_or(0, NetStats::total_bytes);
            if net.total_messages() + net.total_bytes() + left != 0 {
                return Err(at(None, "reset_stats left traffic".into()));
            }
            match group {
                None => groups.push((cell.head(), seen)),
                // The first byte cell of a group leaves its wire for the next.
                Some(g) if groups[g].1.first().is_some_and(|s| s.1.is_none()) => {
                    groups[g].1 = seen;
                }
                Some(_) => {}
            }
            Ok(traffic)
        }));
        let traffic = run.unwrap_or_else(|panic| {
            let text = panic.downcast_ref::<&str>().map(ToString::to_string);
            let msg = panic.downcast_ref::<String>().cloned().or(text);
            Err(at(None, format!("panicked: {}", msg.unwrap_or_default())))
        })?;
        report.traffic.push((*cell, traffic));
        report.accepted += 1;
    }
    Ok(report)
}

/// Assert every refused cell of `family` is refused with the typed error
/// that names the strategy and what it refused.
fn assert_refused(family: &Family, refused: &[(Cell, &'static str)]) {
    for (cell, why) in refused {
        let suite = suite(family, cell);
        let built = match family.checks.is_empty() {
            true => suite.build_detector(&family.d0).map(drop),
            false => suite.build(&family.d0).map(drop),
        };
        let (typed, word) = match &built {
            Err(DetectError::UnsupportedTransport {
                strategy,
                transport,
            }) => {
                let typed = (*why, *transport) == ("transport", cell.transport);
                (typed && *strategy == cell.strategy, transport.name())
            }
            Err(DetectError::UnsupportedCodec { strategy, codec }) => {
                let typed = (*why, *codec) == ("codec", cell.codec);
                (typed && *strategy == cell.strategy, codec.name())
            }
            _ => (false, ""),
        };
        let msg = built.as_ref().err().map(ToString::to_string);
        assert!(
            typed && msg.is_some_and(|m| m.contains(cell.strategy) && m.contains(word)),
            "{}: {cell:?} must be refused for its {why}: {built:?}",
            family.name
        );
    }
}

/// Drive the cells of every seed's family, assert every refused cell
/// refused, and print the cell counts. The family at seed s runs every
/// `stride`-th accepted cell from position s mod `stride`, so over that
/// many consecutive seeds each cell runs once. A failure panics with the
/// shrunk case's [`replay`] call.
pub(crate) fn run(make: Maker, seeds: std::ops::Range<u64>, stride: usize) -> Report {
    let mut total = Report::default();
    let mut name = "";
    for seed in seeds {
        let Some(family) = make(seed) else { continue };
        name = family.name;
        let (accepted, refused) = cells(&family);
        let skip = seed as usize % stride;
        let accepted: Vec<Cell> = accepted.into_iter().skip(skip).step_by(stride).collect();
        assert_refused(&family, &refused);
        let report = drive(&family, &accepted, &family.batches);
        let report = report.unwrap_or_else(|failure| shrink(seed, &family, failure));
        total.accepted += report.accepted;
        total.refused += refused.len();
        total.deltas.extend(report.deltas);
        total.traffic.extend(report.traffic);
    }
    println!(
        "matrix {name}: {} accepted cells, {} refused",
        total.accepted, total.refused
    );
    total
}

/// A shrunk case: each entry is `[batch]` (the whole batch) or
/// `[batch, op, …]` (those ops of it, in order).
fn steps_of(family: &Family, picks: &[impl AsRef<[usize]>]) -> Vec<(usize, UpdateBatch)> {
    let step = |p: &[usize]| {
        let (to, batch) = &family.batches[p[0]];
        let ops = p[1..].iter().map(|&o| batch.ops()[o].clone());
        let batch = match p.len() {
            1 => batch.clone(),
            _ => UpdateBatch::from_ops(ops.collect()),
        };
        (*to, batch)
    };
    picks.iter().map(|p| step(p.as_ref())).collect()
}

/// The cells a failure of `cell` is replayed with: the cells of its group
/// it is compared with (the simulated sequential cell, and the framed one
/// for a sequential TCP cell), then itself.
fn replay_cells(cell: Cell) -> Vec<Cell> {
    let framed = Cell {
        transport: Framed,
        ..cell
    };
    let head = refusal(cell.strategy, cell.codec, Simulated)
        .is_none()
        .then(|| cell.head());
    let twin = (cell.transport == Tcp && !cell.threaded).then_some(framed);
    head.into_iter()
        .chain(twin)
        .filter(|&c| c != cell)
        .chain([cell])
        .collect()
}

/// Rerun one case of a family alone: the family `make` draws at `seed`,
/// its `cell`-th accepted cell (with the cells of its group it is
/// compared with), over the batches and ops `picks` names. Panics with
/// what went wrong.
pub(crate) fn replay(make: Maker, seed: u64, cell: usize, picks: &[&[usize]]) {
    let family = make(seed).expect("the seed draws a family");
    let cell = cells(&family).0[cell];
    if let Err(f) = drive(&family, &replay_cells(cell), &steps_of(&family, picks)) {
        panic!("{}: {f:?}", family.name);
    }
}

/// ddmin: a failing subsequence of `items` (which must fail) that is
/// 1-minimal — removing any one element of it makes `fails` false.
pub(crate) fn ddmin<T: Clone>(items: Vec<T>, mut fails: impl FnMut(&[T]) -> bool) -> Vec<T> {
    let (mut c, mut n) = (items, 2);
    while c.len() >= 2 {
        let parts: Vec<&[T]> = c.chunks(c.len().div_ceil(n)).collect();
        let complement = |i: usize| -> Vec<T> {
            let rest = parts.iter().enumerate().filter(|&(j, _)| j != i);
            rest.flat_map(|(_, p)| p.iter().cloned()).collect()
        };
        if let Some(p) = parts.iter().find(|p| fails(p)) {
            (c, n) = (p.to_vec(), 2);
        } else if let Some(rest) = (0..parts.len()).map(complement).find(|r| fails(r)) {
            (c, n) = (rest, (n - 1).max(2));
        } else if n < c.len() {
            n = (2 * n).min(c.len());
        } else {
            break;
        }
    }
    c
}

/// Shrink a failure of `family` and panic with its replay call. The
/// failing cell is rerun alone with the cells it is compared with, over
/// the batches up to the failing one (none for a failed build); the cell
/// that fails there — itself, or one of those cells failing first — is
/// the one shrunk. A smaller case counts as failing only when that cell
/// fails it with the same kind of message (the text before its first
/// colon).
fn shrink(seed: u64, family: &Family, failure: Failure) -> ! {
    let name = family.name;
    let upto = failure.batch.map_or(0, |b| b + 1);
    let all: Vec<Vec<usize>> = (0..upto).map(|b| vec![b]).collect();
    let run = |cell: Cell, picks: &[Vec<usize>]| {
        let steps = steps_of(family, picks);
        catch_unwind(AssertUnwindSafe(|| {
            drive(family, &replay_cells(cell), &steps)
        }))
    };
    let kind = |msg: &str| msg.split(':').next().unwrap_or_default().to_string();
    let (cell, want) = match failure.cell.map(|c| run(c, &all)) {
        Some(Ok(Err(Failure {
            cell: Some(cell),
            msg,
            ..
        }))) => (cell, kind(&msg)),
        _ => panic!("{name} (seed {seed}): {failure:?}, not shrunk"),
    };
    let fails = |picks: &[Vec<usize>]| match run(cell, picks) {
        Ok(Err(f)) => f.cell == Some(cell) && kind(&f.msg) == want,
        _ => false,
    };
    let mut picks = ddmin(all, &fails);
    // Then the ops of each batch kept, the others held as they are.
    for k in 0..picks.len() {
        let batch = picks[k][0];
        let with = |ops: &[usize]| {
            let mut p = picks.clone();
            p[k] = std::iter::once(batch).chain(ops.iter().copied()).collect();
            p
        };
        let ops = ddmin((0..family.batches[batch].1.len()).collect(), |o| {
            fails(&with(o))
        });
        picks = with(&ops);
    }
    let len = |p: &Vec<usize>| match p.len() {
        1 => family.batches[p[0]].1.len(),
        n => n - 1,
    };
    let n: usize = picks.iter().map(len).sum();
    let of: usize = family.batches.iter().map(|(_, b)| b.len()).sum();
    let shown: Vec<String> = picks.iter().map(|p| format!("&{p:?}")).collect();
    let index = cells(family).0.iter().position(|c| *c == cell);
    panic!(
        "{name} (seed {seed}): {failure:?}\n{cell:?} ({want}) shrunk from {of} ops to {n}; \
         rerun alone with\n  matrix::replay({name}, {seed}, {}, &[{}]);",
        index.expect("the cell is accepted"),
        shown.join(", "),
    );
}
