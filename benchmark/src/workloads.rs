//! The five workloads: what each one generates, which detector it
//! builds, and how that detector is driven.
//!
//! Detectors are built only through `Suite::on(..)…build_detector()/build()`
//! and `ConcurrentHorizontal::threaded` — the construction surfaces the
//! roadmap keeps — never through `DetectorBuilder`.

use inc_cfd::cfd::{Check, DeltaV, Finding, Violations};
use inc_cfd::cluster::codec::CodecKind;
use inc_cfd::cluster::net::TransportKind;
use inc_cfd::cluster::NetReport;
use inc_cfd::incdetect::{
    ConcurrentHorizontal, DetectError, Detector, Strategy, Suite, SuiteDelta, SuiteSession,
};
use inc_cfd::loadgen::{
    ArrivalShape, Dataset, DirtyRate, KeyDist, OpMix, Scenario, ScenarioCfg, WorkloadKind,
};
use inc_cfd::relation::{Relation, Update, UpdateBatch};
use inc_cfd::workload;
use inc_cfd::workload::family::{cfd_family, FamilyConfig};

/// Rows of every base relation.
const BASE_ROWS: usize = 40_000;
/// Sites of every horizontal/vertical topology (EMP keeps its fixed 3).
const N_SITES: usize = 4;
/// Ops per tick of the generated stream; also the batch size of the
/// batched workload.
pub const TICK_OPS: usize = 256;
/// Distinct LHS lists of the wide rule family (the `cfd_sweep` catalog size).
const FAMILY_LISTS: usize = 8;
/// Seed of every workload's rule catalog.
const RULES_SEED: u64 = 0xCFD;
/// Share of EMP's cities listed in the `CITIES` reference relation.
const CITY_COVERAGE: f64 = 0.5;

/// Which detector a workload builds and how it is called.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `incVer` behind `dyn Detector`, one `apply_one` per op.
    Vertical,
    /// `incHor` behind `dyn Detector`, one `apply_one` per op.
    Horizontal,
    /// Thread-per-site `incHor`, one `apply` per tick batch.
    Threaded,
    /// `SuiteSession` over `incHor`, one `apply_one` per op.
    Suite,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Why the workload exists (also the `why` of `BENCHMARK.json`).
    pub why: &'static str,
    pub engine: Engine,
    data: WorkloadKind,
    /// `|Σ|` of a mined rule family replacing the dataset's stock rules.
    family_rules: Option<usize>,
    pub codec: CodecKind,
    pub transport: TransportKind,
    keys: KeyDist,
    mix: OpMix,
    dirty: f64,
    /// Ops per round at full scale, sized on a 2-core box so one round's
    /// timed window is 2–3 s.
    ops: usize,
}

pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "ver_stream",
        why: "incVer, 8 TPCH rules, insert-heavy single ops: compute only (intern + HEV/IDX), no codec, frame or socket runs",
        engine: Engine::Vertical,
        data: WorkloadKind::Tpch,
        family_rules: None,
        codec: CodecKind::Md5,
        transport: TransportKind::Simulated,
        keys: KeyDist::Uniform,
        mix: OpMix { insert: 8, delete: 2, modify: 0, churn: 0 },
        dirty: 0.05,
        ops: 75_000,
    },
    Spec {
        name: "hor_wide_sigma",
        why: "incHor md5, simulated transport, 1024 mined rules, delete-heavy: shared-plan dispatch, key digests and dV commit dominate, no bytes move",
        engine: Engine::Horizontal,
        data: WorkloadKind::Tpch,
        family_rules: Some(1024),
        codec: CodecKind::Md5,
        transport: TransportKind::Simulated,
        keys: KeyDist::Uniform,
        mix: OpMix { insert: 3, delete: 5, modify: 2, churn: 0 },
        dirty: 0.05,
        ops: 80_000,
    },
    Spec {
        name: "hor_tcp_skew",
        why: "incHor md5 over localhost TCP, 8 rules, Zipf 1.1 keys, modify-heavy: blocking request/response round trips dominate, dispatch is negligible",
        engine: Engine::Horizontal,
        data: WorkloadKind::Tpch,
        family_rules: None,
        codec: CodecKind::Md5,
        transport: TransportKind::Tcp,
        keys: KeyDist::Zipf { theta: 1.1 },
        mix: OpMix { insert: 2, delete: 1, modify: 6, churn: 1 },
        dirty: 0.10,
        ops: 50_000,
    },
    Spec {
        name: "thr_tcp_batch",
        why: "thread-per-site incHor over TCP, 256-op batches: same frame and socket layers used pipelined per wave with control frames instead of blocking round trips",
        engine: Engine::Threaded,
        data: WorkloadKind::Tpch,
        family_rules: None,
        codec: CodecKind::Md5,
        transport: TransportKind::Tcp,
        keys: KeyDist::Uniform,
        mix: OpMix { insert: 6, delete: 2, modify: 2, churn: 0 },
        dirty: 0.05,
        ops: 75_000,
    },
    Spec {
        name: "suite_mixed",
        why: "Suite session (key, completeness, inclusion, row count + EMP CFDs), dict codec, framed in-memory bytes, churn: frames are encoded but no syscall is made",
        engine: Engine::Suite,
        data: WorkloadKind::Emp,
        family_rules: None,
        codec: CodecKind::Dict,
        transport: TransportKind::Framed,
        keys: KeyDist::Uniform,
        mix: OpMix { insert: 3, delete: 3, modify: 2, churn: 2 },
        dirty: 0.10,
        ops: 140_000,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Everything a run feeds the detector, materialised before any timing.
pub struct Inputs {
    /// Schema, `D₀`, partition schemes and `Σ`.
    pub ds: Dataset,
    /// The `CITIES` reference relation (suite workload only).
    pub cities: Option<Relation>,
    /// The whole update stream, one batch per tick.
    pub ticks: Vec<UpdateBatch>,
    /// The relation the stream ends on.
    pub mirror: Relation,
    pub ops: u64,
    pub inserts: u64,
    pub deletes: u64,
}

impl Inputs {
    /// Every op of the stream, in order.
    pub fn all_ops(&self) -> impl Iterator<Item = &Update> {
        self.ticks.iter().flat_map(UpdateBatch::ops)
    }
}

/// The first half of generation: everything but the stream.
pub struct Base {
    cfg: ScenarioCfg,
    ds: Dataset,
    cities: Option<Relation>,
}

impl Spec {
    /// Does one `apply` call carry a whole tick batch?
    pub fn batched(&self) -> bool {
        self.engine == Engine::Threaded
    }

    /// `apply` calls one round makes over `inputs`.
    pub fn calls(&self, inputs: &Inputs) -> u64 {
        if self.batched() {
            inputs.ticks.len() as u64
        } else {
            inputs.ops
        }
    }

    /// Generate the dataset, rules and reference relation from `seed`;
    /// `scale_div` shrinks rows and ops alike (1 = full scale).
    pub fn dataset(&self, seed: u64, scale_div: usize) -> Base {
        let cfg = ScenarioCfg {
            name: self.name,
            workload: self.data,
            n_rows: BASE_ROWS / scale_div,
            n_sites: N_SITES,
            ticks: (self.ops / scale_div).div_ceil(TICK_OPS),
            shape: ArrivalShape::Steady { per_tick: TICK_OPS },
            keys: self.keys,
            mix: self.mix,
            dirty: DirtyRate::Fixed(self.dirty),
            seed,
        };
        let mut ds = cfg.dataset();
        // The rules are part of the workload, not of its input: they are
        // drawn from a fixed seed so that `--seed` varies data and stream
        // under the same catalog (a mined family's cost swings several-fold
        // with the lists it happens to pick).
        match (self.family_rules, self.data) {
            (Some(n), _) => {
                ds.cfds = cfd_family(
                    &ds.schema,
                    &ds.base,
                    &FamilyConfig {
                        n,
                        overlap: 1.0 - FAMILY_LISTS as f64 / n as f64,
                        seed: RULES_SEED,
                        ..FamilyConfig::default()
                    },
                );
            }
            (None, WorkloadKind::Tpch) => {
                ds.cfds = workload::rules::tpch_rules(&ds.schema, ds.cfds.len(), RULES_SEED);
            }
            // EMP's two rules are fixed (Fig. 1 of the paper).
            (None, _) => {}
        }
        let cities = (self.engine == Engine::Suite)
            .then(|| workload::emp::city_reference(&ds.base, CITY_COVERAGE));
        Base { cfg, ds, cities }
    }

    /// Materialise the whole update stream over `base`.
    pub fn stream(&self, base: Base) -> Inputs {
        let Base { cfg, ds, cities } = base;
        let mut stream = cfg.stream(&ds);
        let ticks: Vec<UpdateBatch> = stream.by_ref().map(|t| t.batch).collect();
        let mirror = stream.mirror().clone();
        let (mut inserts, mut deletes) = (0, 0);
        for op in ticks.iter().flat_map(UpdateBatch::ops) {
            match op {
                Update::Insert(_) => inserts += 1,
                Update::Delete(_) => deletes += 1,
            }
        }
        Inputs {
            ds,
            cities,
            ticks,
            mirror,
            ops: inserts + deletes,
            inserts,
            deletes,
        }
    }

    /// Dataset and stream in one step.
    pub fn generate(&self, seed: u64, scale_div: usize) -> Inputs {
        self.stream(self.dataset(seed, scale_div))
    }

    fn suite(&self, inputs: &Inputs) -> Suite {
        let ds = &inputs.ds;
        let strategy = match self.engine {
            Engine::Vertical => Strategy::Vertical(ds.vertical.clone()),
            _ => Strategy::Horizontal(ds.horizontal.clone()),
        };
        Suite::on(ds.schema.clone())
            .cfds(ds.cfds.clone())
            .strategy(strategy)
            .codec(self.codec)
            .transport(self.transport)
    }

    /// Build a fresh detector over `D₀` (the timed set-up).
    pub fn build(&self, inputs: &Inputs) -> Result<Target, DetectError> {
        let ds = &inputs.ds;
        Ok(match self.engine {
            Engine::Vertical | Engine::Horizontal => {
                Target::Det(self.suite(inputs).build_detector(&ds.base)?)
            }
            Engine::Threaded => Target::Thr(Box::new(ConcurrentHorizontal::threaded(
                ds.schema.clone(),
                ds.cfds.clone(),
                ds.horizontal.clone(),
                &ds.base,
                self.codec,
                self.transport,
            )?)),
            Engine::Suite => Target::Suite(Box::new(
                self.suite(inputs)
                    .check(Check::key(["zip", "phn"]))
                    .check(Check::complete("city"))
                    .check(Check::inclusion(["city"], "CITIES", ["city"]))
                    .check(Check::row_count(["grade"], Some(1), None))
                    .reference(inputs.cities.clone().expect("suite inputs carry CITIES"))
                    .build(&ds.base)?,
            )),
        })
    }

    /// The single-threaded `incHor` detector over the same rules, codec
    /// and transport — the traced run's comparison point for the threaded
    /// runtime and for the suite layer.
    pub fn build_sequential(&self, inputs: &Inputs) -> Result<Target, DetectError> {
        Ok(Target::Det(
            self.suite(inputs).build_detector(&inputs.ds.base)?,
        ))
    }
}

/// What one `apply` call reported.
#[derive(Default)]
pub struct Applied {
    /// The CFD-level `ΔV`.
    pub dv: DeltaV,
    /// Suite finding marks added / removed (all rule kinds).
    pub findings_added: u64,
    pub findings_removed: u64,
}

/// A built detector of any of the three surfaces.
pub enum Target {
    Det(Box<dyn Detector>),
    Thr(Box<ConcurrentHorizontal>),
    Suite(Box<SuiteSession>),
}

impl Target {
    pub fn det(&self) -> &dyn Detector {
        match self {
            Target::Det(d) => d.as_ref(),
            Target::Thr(d) => d.as_ref(),
            Target::Suite(s) => s.detector(),
        }
    }

    pub fn apply_one(&mut self, op: &Update) -> Result<Applied, DetectError> {
        match self {
            Target::Det(d) => d.apply_one(op).map(Applied::from),
            Target::Thr(d) => d.apply_one(op).map(Applied::from),
            Target::Suite(s) => s.apply_one(op).map(Applied::from),
        }
    }

    pub fn apply(&mut self, batch: &UpdateBatch) -> Result<Applied, DetectError> {
        match self {
            Target::Det(d) => d.apply(batch).map(Applied::from),
            Target::Thr(d) => d.apply(batch).map(Applied::from),
            Target::Suite(s) => s.apply(batch).map(Applied::from),
        }
    }

    /// Traffic since construction (the suite adds its `ind` tier).
    pub fn net(&self) -> NetReport {
        match self {
            Target::Suite(s) => s.net(),
            other => other.det().net(),
        }
    }

    pub fn violations(&self) -> &Violations {
        self.det().violations()
    }
}

impl From<DeltaV> for Applied {
    fn from(dv: DeltaV) -> Self {
        Applied {
            dv,
            ..Applied::default()
        }
    }
}

impl From<SuiteDelta> for Applied {
    fn from(sd: SuiteDelta) -> Self {
        let marks = |fs: &[Finding]| fs.iter().map(|f| f.tids.len() as u64).sum::<u64>();
        Applied {
            findings_added: marks(&sd.findings.added),
            findings_removed: marks(&sd.findings.removed),
            dv: sd.cfd_delta,
        }
    }
}
