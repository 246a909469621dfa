//! Experiment harness reproducing the paper's evaluation (§7).
//!
//! Each `exp*` function regenerates one table or figure: it builds the
//! workload, runs the incremental detector against its batch counterpart,
//! and returns a [`Table`] whose rows mirror the paper's series (elapsed
//! time, shipped data, eqid counts, scaleup). The `experiments` binary
//! prints them; [`exp_speedup`] adds the §7 one-detector-per-site curve.
//!
//! Absolute numbers differ from the paper (laptop-scale synthetic data vs.
//! 10 GB TPCH on EC2 — see the README's "Reproducing §7" section); the
//! *shapes* are asserted in this crate's tests: incremental shipment flat
//! in `|D|` and linear in `|ΔD|`, batch shipment growing with `|D|`.

use cfd::Cfd;
use cluster::codec::CodecKind;
use cluster::net::TransportKind;
use cluster::partition::{HorizontalScheme, VerticalScheme};
use cluster::{CostModel, NetReport};
use incdetect::baselines::{BatHor, BatVer, IbatHor, IbatVer};
use incdetect::optimize::{optimize, OptimizeConfig};
use incdetect::{
    ConcurrentHorizontal, DetectError, Detector, HevPlan, HorizontalDetector, Strategy, Suite,
};
use relation::{Relation, Schema, UpdateBatch};
use std::sync::Arc;
use std::time::Instant;
use workload::updates::{self, UpdateMix};
use workload::{dblp, tpch};

/// Scale knob: multiplies every |D| and |ΔD| in the experiment configs.
/// 1.0 runs in seconds on a laptop; the paper's sizes are ~100×.
#[derive(Debug, Clone, Copy)]
pub struct Scale(pub f64);

impl Default for Scale {
    fn default() -> Self {
        Scale(1.0)
    }
}

impl Scale {
    fn rows(&self, base: usize) -> usize {
        ((base as f64) * self.0).round().max(16.0) as usize
    }
}

/// One printed experiment table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id, e.g. "Exp-2 / Fig. 9(b,c)".
    pub id: String,
    /// What is varied on the x axis.
    pub x_label: String,
    /// Column headers (series names).
    pub columns: Vec<String>,
    /// Rows: x value followed by one value per column.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl Table {
    /// Render with aligned columns, paper-style.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        writeln!(s, "== {} ==", self.id).unwrap();
        write!(s, "{:>14}", self.x_label).unwrap();
        for c in &self.columns {
            write!(s, "{c:>22}").unwrap();
        }
        writeln!(s).unwrap();
        for (x, vals) in &self.rows {
            write!(s, "{x:>14}").unwrap();
            for v in vals {
                if *v == 0.0 {
                    write!(s, "{:>22}", "0").unwrap();
                } else if v.abs() >= 1000.0 {
                    write!(s, "{v:>22.0}").unwrap();
                } else {
                    write!(s, "{v:>22.4}").unwrap();
                }
            }
            writeln!(s).unwrap();
        }
        s
    }
}

/// Wall-clock seconds of a closure.
fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Combined elapsed-time metric: wall clock plus the simulated network
/// time of the metered traffic under pipelined links (the EC2
/// substitution — see the README's "Reproducing §7" section). Pipelined,
/// because both the paper's implementation and any real deployment stream
/// payloads over persistent connections rather than paying an RTT per
/// eqid. The roll-up over single- or two-tier traffic lives in
/// [`NetReport`], shared by every strategy.
fn elapsed(wall: f64, net: &NetReport) -> f64 {
    wall + net.pipelined_seconds(&CostModel::default())
}

fn tpch_cfg(rows: usize) -> tpch::TpchConfig {
    tpch::TpchConfig {
        n_rows: rows,
        n_customers: (rows / 20).max(50),
        n_parts: (rows / 30).max(30),
        n_suppliers: (rows / 100).max(10),
        error_rate: 0.02,
        seed: 42,
    }
}

fn dblp_cfg(rows: usize) -> dblp::DblpConfig {
    dblp::DblpConfig {
        n_rows: rows,
        n_venues: (rows / 25).max(20),
        n_authors: (rows / 3).max(100),
        error_rate: 0.02,
        seed: 7,
    }
}

/// Drive one incremental/batch pair through the unified [`Detector`]
/// trait: apply the same `ΔD` to both, assert they agree, and report
/// (inc elapsed, bat elapsed, inc shipped bytes, bat shipped bytes).
///
/// Every experiment goes through this single driver — the per-strategy
/// run functions only choose schemes.
fn run_pair(
    mut inc: Box<dyn Detector>,
    mut bat: Box<dyn Detector>,
    delta: &UpdateBatch,
) -> (f64, f64, u64, u64) {
    let (_, inc_wall) = time(|| inc.apply(delta).expect("incremental apply succeeds"));
    let inc_net = inc.net();
    let (_, bat_wall) = time(|| bat.apply(delta).expect("batch apply succeeds"));
    let bat_net = bat.net();
    assert_eq!(
        inc.violations().marks_sorted(),
        bat.violations().marks_sorted(),
        "{} and {} must agree",
        inc.strategy(),
        bat.strategy()
    );
    (
        elapsed(inc_wall, &inc_net),
        elapsed(bat_wall, &bat_net),
        inc_net.total_bytes(),
        bat_net.total_bytes(),
    )
}

/// `incVer` vs `batVer` over an explicit vertical scheme. The baseline
/// reuses the incremental detector's `V(Σ, D₀)` instead of recomputing
/// it — construction stays off the measured path either way.
fn run_vertical_scheme(
    schema: &Arc<Schema>,
    cfds: &[Cfd],
    scheme: VerticalScheme,
    d: &Relation,
    delta: &UpdateBatch,
) -> (f64, f64, u64, u64) {
    let inc = incremental(schema, cfds, Strategy::Vertical(scheme.clone()), d);
    let v = inc.violations().clone();
    let bat = BatVer::with_initial(schema.clone(), cfds.to_vec(), scheme, d, v);
    run_pair(inc, Box::new(bat.expect("batVer builds")), delta)
}

/// `incHor` vs `batHor` over an explicit horizontal scheme.
fn run_horizontal_scheme(
    schema: &Arc<Schema>,
    cfds: &[Cfd],
    scheme: HorizontalScheme,
    d: &Relation,
    delta: &UpdateBatch,
) -> (f64, f64, u64, u64) {
    let inc = incremental(schema, cfds, Strategy::Horizontal(scheme.clone()), d);
    let v = inc.violations().clone();
    let bat = BatHor::with_initial(schema.clone(), cfds.to_vec(), scheme, d, v);
    run_pair(inc, Box::new(bat.expect("batHor builds")), delta)
}

/// An incremental detector over `d` through [`Suite`].
fn incremental(
    schema: &Arc<Schema>,
    cfds: &[Cfd],
    strategy: Strategy,
    d: &Relation,
) -> Box<dyn Detector> {
    let suite = Suite::on(schema.clone())
        .cfds(cfds.to_vec())
        .strategy(strategy);
    suite
        .build_detector(d)
        .expect("incremental detector builds")
}

/// TPCH layouts used by Exp-1…Exp-9.
fn run_vertical(
    schema: &Arc<Schema>,
    cfds: &[Cfd],
    n_sites: usize,
    d: &Relation,
    delta: &UpdateBatch,
) -> (f64, f64, u64, u64) {
    run_vertical_scheme(
        schema,
        cfds,
        tpch::vertical_scheme(schema, n_sites),
        d,
        delta,
    )
}

fn run_horizontal(
    schema: &Arc<Schema>,
    cfds: &[Cfd],
    n_sites: usize,
    d: &Relation,
    delta: &UpdateBatch,
) -> (f64, f64, u64, u64) {
    run_horizontal_scheme(
        schema,
        cfds,
        tpch::horizontal_scheme(schema, n_sites),
        d,
        delta,
    )
}

fn tpch_delta(cfg: &tpch::TpchConfig, d: &Relation, n: usize, frac: f64) -> UpdateBatch {
    let n_ins = ((n as f64) * frac).round() as usize;
    let fresh = tpch::generate_fresh(cfg, 1_000_000_000, n_ins, cfg.seed ^ 0xdead);
    updates::generate(
        d,
        &fresh,
        n,
        UpdateMix {
            insert_fraction: frac,
        },
        cfg.seed ^ 0xbeef,
    )
}

fn dblp_delta(cfg: &dblp::DblpConfig, d: &Relation, n: usize, frac: f64) -> UpdateBatch {
    let n_ins = ((n as f64) * frac).round() as usize;
    let fresh = dblp::generate_fresh(cfg, 1_000_000_000, n_ins, cfg.seed ^ 0xdead);
    updates::generate(
        d,
        &fresh,
        n,
        UpdateMix {
            insert_fraction: frac,
        },
        cfg.seed ^ 0xbeef,
    )
}

// ----------------------------------------------------------------------
// Vertical experiments (Exp-1 … Exp-5)
// ----------------------------------------------------------------------

/// Exp-1 / Fig. 9(a): TPCH, vertical, vary `|D|` (ΔD, Σ, n fixed).
/// Paper: |D| 2M..10M, |ΔD|=6M, |Σ|=50, n=10 — scaled to laptop size.
pub fn exp1(scale: Scale) -> Table {
    let schema = tpch::tpch_schema();
    let cfds = workload::rules::tpch_rules(&schema, 50, 1);
    let delta_n = scale.rows(6_000);
    let mut rows = Vec::new();
    for step in [2_000usize, 4_000, 6_000, 8_000, 10_000] {
        let n_rows = scale.rows(step);
        let cfg = tpch_cfg(n_rows);
        let (_, d) = tpch::generate(&cfg);
        let dn = delta_n.min(n_rows / 2 + delta_n / 2);
        let delta = tpch_delta(&cfg, &d, dn, 0.8);
        let (inc, bat, inc_b, bat_b) = run_vertical(&schema, &cfds, 10, &d, &delta);
        rows.push((
            format!("{n_rows} ({dn})"),
            vec![inc, bat, inc_b as f64, bat_b as f64],
        ));
    }
    Table {
        id: "Exp-1 / Fig. 9(a): TPCH vertical, varying |D|".into(),
        x_label: "|D| (|ΔD|)".into(),
        columns: vec![
            "incVer (s)".into(),
            "batVer (s)".into(),
            "incVer ship (B)".into(),
            "batVer ship (B)".into(),
        ],
        rows,
    }
}

/// Exp-2 / Fig. 9(b,c): TPCH, vertical, vary `|ΔD|`; reports both elapsed
/// time and shipped data.
pub fn exp2(scale: Scale) -> Table {
    let schema = tpch::tpch_schema();
    let cfds = workload::rules::tpch_rules(&schema, 50, 1);
    let n_rows = scale.rows(10_000);
    let cfg = tpch_cfg(n_rows);
    let (_, d) = tpch::generate(&cfg);
    let mut rows = Vec::new();
    for step in [2_000usize, 4_000, 6_000, 8_000, 10_000] {
        let dn = scale.rows(step).min(d.len());
        let delta = tpch_delta(&cfg, &d, dn, 0.8);
        let (inc, bat, inc_b, bat_b) = run_vertical(&schema, &cfds, 10, &d, &delta);
        rows.push((format!("{dn}"), vec![inc, bat, inc_b as f64, bat_b as f64]));
    }
    Table {
        id: "Exp-2 / Fig. 9(b,c): TPCH vertical, varying |ΔD|".into(),
        x_label: "|ΔD| (ops)".into(),
        columns: vec![
            "incVer (s)".into(),
            "batVer (s)".into(),
            "incVer ship (B)".into(),
            "batVer ship (B)".into(),
        ],
        rows,
    }
}

/// Exp-3 / Fig. 9(d): TPCH, vertical, vary `|Σ|` from 25 to 125.
pub fn exp3(scale: Scale) -> Table {
    let schema = tpch::tpch_schema();
    let n_rows = scale.rows(10_000);
    let cfg = tpch_cfg(n_rows);
    let (_, d) = tpch::generate(&cfg);
    let delta = tpch_delta(&cfg, &d, scale.rows(6_000).min(d.len()), 0.8);
    let mut rows = Vec::new();
    for n_cfds in [25usize, 50, 75, 100, 125] {
        let cfds = workload::rules::tpch_rules(&schema, n_cfds, 1);
        let (inc, bat, _, _) = run_vertical(&schema, &cfds, 10, &d, &delta);
        rows.push((format!("{n_cfds}"), vec![inc, bat]));
    }
    Table {
        id: "Exp-3 / Fig. 9(d): TPCH vertical, varying |Σ|".into(),
        x_label: "#CFDs".into(),
        columns: vec!["incVer (s)".into(), "batVer (s)".into()],
        rows,
    }
}

/// Exp-4 / Fig. 9(e): vertical scaleup — vary `n`, `|D|` and `|ΔD|`
/// together; scaleup = time(small)/time(large), ideal 1.0.
pub fn exp4(scale: Scale) -> Table {
    let schema = tpch::tpch_schema();
    let cfds = workload::rules::tpch_rules(&schema, 50, 1);
    let mut base_times: Option<(f64, f64)> = None;
    let mut rows = Vec::new();
    for n_sites in [2usize, 4, 6, 8, 10] {
        let n_rows = scale.rows(1_000 * n_sites);
        let cfg = tpch_cfg(n_rows);
        let (_, d) = tpch::generate(&cfg);
        let delta = tpch_delta(&cfg, &d, n_rows, 0.8);
        let (inc, bat, _, _) = run_vertical(&schema, &cfds, n_sites, &d, &delta);
        let (i0, b0) = *base_times.get_or_insert((inc, bat));
        rows.push((format!("{n_sites}"), vec![i0 / inc, b0 / bat]));
    }
    Table {
        id: "Exp-4 / Fig. 9(e): TPCH vertical scaleup (n, |D|, |ΔD| together)".into(),
        x_label: "#partitions".into(),
        columns: vec!["incVer scaleup".into(), "batVer scaleup".into()],
        rows,
    }
}

/// Exp-5 / Fig. 10: eqid shipments per unit update, with and without the
/// §5 optimization, for TPCH and DBLP rule sets.
pub fn exp5(_scale: Scale) -> Table {
    let mut rows = Vec::new();
    {
        let schema = tpch::tpch_schema();
        let cfds = workload::rules::tpch_rules(&schema, 50, 1);
        let scheme = tpch::vertical_scheme(&schema, 10);
        let default = HevPlan::default_chains(&cfds, &scheme);
        let opt = optimize(&cfds, &scheme, OptimizeConfig::default());
        rows.push((
            "TPCH".to_string(),
            vec![default.neqid() as f64, opt.neqid() as f64],
        ));
    }
    {
        let schema = dblp::dblp_schema();
        let cfds = workload::rules::dblp_rules(&schema, 16, 3);
        let scheme = dblp::vertical_scheme(&schema, 10);
        let default = HevPlan::default_chains(&cfds, &scheme);
        let opt = optimize(&cfds, &scheme, OptimizeConfig::default());
        rows.push((
            "DBLP".to_string(),
            vec![default.neqid() as f64, opt.neqid() as f64],
        ));
    }
    Table {
        id: "Exp-5 / Fig. 10: #eqid shipments per unit update".into(),
        x_label: "dataset".into(),
        columns: vec!["without opt".into(), "with opt".into()],
        rows,
    }
}

// ----------------------------------------------------------------------
// Horizontal experiments (Exp-6 … Exp-9)
// ----------------------------------------------------------------------

/// Exp-6 / Fig. 9(f): TPCH, horizontal, vary `|D|`.
pub fn exp6(scale: Scale) -> Table {
    let schema = tpch::tpch_schema();
    let cfds = workload::rules::tpch_rules(&schema, 50, 1);
    let delta_n = scale.rows(6_000);
    let mut rows = Vec::new();
    for step in [2_000usize, 4_000, 6_000, 8_000, 10_000] {
        let n_rows = scale.rows(step);
        let cfg = tpch_cfg(n_rows);
        let (_, d) = tpch::generate(&cfg);
        let dn = delta_n.min(n_rows / 2 + delta_n / 2);
        let delta = tpch_delta(&cfg, &d, dn, 0.8);
        let (inc, bat, inc_b, bat_b) = run_horizontal(&schema, &cfds, 10, &d, &delta);
        rows.push((
            format!("{n_rows} ({dn})"),
            vec![inc, bat, inc_b as f64, bat_b as f64],
        ));
    }
    Table {
        id: "Exp-6 / Fig. 9(f): TPCH horizontal, varying |D|".into(),
        x_label: "|D| (|ΔD|)".into(),
        columns: vec![
            "incHor (s)".into(),
            "batHor (s)".into(),
            "incHor ship (B)".into(),
            "batHor ship (B)".into(),
        ],
        rows,
    }
}

/// Exp-7 / Fig. 9(g,h): TPCH, horizontal, vary `|ΔD|` (time + shipment).
pub fn exp7(scale: Scale) -> Table {
    let schema = tpch::tpch_schema();
    let cfds = workload::rules::tpch_rules(&schema, 50, 1);
    let n_rows = scale.rows(10_000);
    let cfg = tpch_cfg(n_rows);
    let (_, d) = tpch::generate(&cfg);
    let mut rows = Vec::new();
    for step in [2_000usize, 4_000, 6_000, 8_000, 10_000] {
        let dn = scale.rows(step).min(d.len());
        let delta = tpch_delta(&cfg, &d, dn, 0.8);
        let (inc, bat, inc_b, bat_b) = run_horizontal(&schema, &cfds, 10, &d, &delta);
        rows.push((format!("{dn}"), vec![inc, bat, inc_b as f64, bat_b as f64]));
    }
    Table {
        id: "Exp-7 / Fig. 9(g,h): TPCH horizontal, varying |ΔD|".into(),
        x_label: "|ΔD| (ops)".into(),
        columns: vec![
            "incHor (s)".into(),
            "batHor (s)".into(),
            "incHor ship (B)".into(),
            "batHor ship (B)".into(),
        ],
        rows,
    }
}

/// Exp-8 / Fig. 9(i): TPCH, horizontal, vary `|Σ|`.
pub fn exp8(scale: Scale) -> Table {
    let schema = tpch::tpch_schema();
    let n_rows = scale.rows(10_000);
    let cfg = tpch_cfg(n_rows);
    let (_, d) = tpch::generate(&cfg);
    let delta = tpch_delta(&cfg, &d, scale.rows(6_000).min(d.len()), 0.8);
    let mut rows = Vec::new();
    for n_cfds in [25usize, 50, 75, 100, 125] {
        let cfds = workload::rules::tpch_rules(&schema, n_cfds, 1);
        let (inc, bat, _, _) = run_horizontal(&schema, &cfds, 10, &d, &delta);
        rows.push((format!("{n_cfds}"), vec![inc, bat]));
    }
    Table {
        id: "Exp-8 / Fig. 9(i): TPCH horizontal, varying |Σ|".into(),
        x_label: "#CFDs".into(),
        columns: vec!["incHor (s)".into(), "batHor (s)".into()],
        rows,
    }
}

/// Exp-9 / Fig. 9(j): horizontal scaleup.
pub fn exp9(scale: Scale) -> Table {
    let schema = tpch::tpch_schema();
    let cfds = workload::rules::tpch_rules(&schema, 50, 1);
    let mut base_times: Option<(f64, f64)> = None;
    let mut rows = Vec::new();
    for n_sites in [2usize, 4, 6, 8, 10] {
        let n_rows = scale.rows(1_000 * n_sites);
        let cfg = tpch_cfg(n_rows);
        let (_, d) = tpch::generate(&cfg);
        let delta = tpch_delta(&cfg, &d, n_rows, 0.8);
        let (inc, bat, _, _) = run_horizontal(&schema, &cfds, n_sites, &d, &delta);
        let (i0, b0) = *base_times.get_or_insert((inc, bat));
        rows.push((format!("{n_sites}"), vec![i0 / inc, b0 / bat]));
    }
    Table {
        id: "Exp-9 / Fig. 9(j): TPCH horizontal scaleup".into(),
        x_label: "#partitions".into(),
        columns: vec!["incHor scaleup".into(), "batHor scaleup".into()],
        rows,
    }
}

// ----------------------------------------------------------------------
// DBLP series (Fig. 9(k,l)) and Exp-10 (Fig. 11)
// ----------------------------------------------------------------------

/// Fig. 9(k): DBLP, vertical, vary `|ΔD|` (part of Exp-2 in the paper).
pub fn exp2_dblp(scale: Scale) -> Table {
    let schema = dblp::dblp_schema();
    let cfds = workload::rules::dblp_rules(&schema, 16, 3);
    let n_rows = scale.rows(5_000);
    let cfg = dblp_cfg(n_rows);
    let (_, d) = dblp::generate(&cfg);
    let mut rows = Vec::new();
    for step in [1_000usize, 2_000, 3_000, 4_000, 5_000] {
        let dn = scale.rows(step).min(d.len());
        let delta = dblp_delta(&cfg, &d, dn, 0.8);
        let scheme = dblp::vertical_scheme(&schema, 10);
        let (inc, bat, _, _) = run_vertical_scheme(&schema, &cfds, scheme, &d, &delta);
        rows.push((format!("{dn}"), vec![inc, bat]));
    }
    Table {
        id: "Exp-2 / Fig. 9(k): DBLP vertical, varying |ΔD|".into(),
        x_label: "|ΔD| (ops)".into(),
        columns: vec!["incVer (s)".into(), "batVer (s)".into()],
        rows,
    }
}

/// Fig. 9(l): DBLP, vertical, vary `|Σ|` from 8 to 40 (part of Exp-3).
pub fn exp3_dblp(scale: Scale) -> Table {
    let schema = dblp::dblp_schema();
    let n_rows = scale.rows(5_000);
    let cfg = dblp_cfg(n_rows);
    let (_, d) = dblp::generate(&cfg);
    let delta = dblp_delta(&cfg, &d, scale.rows(3_000).min(d.len()), 0.8);
    let mut rows = Vec::new();
    for n_cfds in [8usize, 16, 24, 32, 40] {
        let cfds = workload::rules::dblp_rules(&schema, n_cfds, 3);
        let scheme = dblp::vertical_scheme(&schema, 10);
        let (inc, bat, _, _) = run_vertical_scheme(&schema, &cfds, scheme, &d, &delta);
        rows.push((format!("{n_cfds}"), vec![inc, bat]));
    }
    Table {
        id: "Exp-3 / Fig. 9(l): DBLP vertical, varying |Σ|".into(),
        x_label: "#CFDs".into(),
        columns: vec!["incVer (s)".into(), "batVer (s)".into()],
        rows,
    }
}

/// Small-update regime (the paper's headline case: "when ΔD is small, ΔV
/// is often small as well"): |D| fixed at 20k-scale, |ΔD| from 0.5% to
/// 10% of |D|, both layouts. This is where the two-orders-of-magnitude
/// gap of §7 lives; the `exp2`/`exp7` sweeps above cover the large-ΔD
/// crossover regime instead.
pub fn exp_small_updates(scale: Scale) -> Table {
    let schema = tpch::tpch_schema();
    let cfds = workload::rules::tpch_rules(&schema, 50, 1);
    let n_rows = scale.rows(20_000);
    let cfg = tpch_cfg(n_rows);
    let (_, d) = tpch::generate(&cfg);
    let mut rows = Vec::new();
    for pct in [0.5f64, 1.0, 2.0, 5.0, 10.0] {
        let dn = ((n_rows as f64) * pct / 100.0).round().max(8.0) as usize;
        let delta = tpch_delta(&cfg, &d, dn, 0.8);
        let (inc_v, bat_v, _, _) = run_vertical(&schema, &cfds, 10, &d, &delta);
        let (inc_h, bat_h, _, _) = run_horizontal(&schema, &cfds, 10, &d, &delta);
        rows.push((format!("{pct}% ({dn})"), vec![inc_v, bat_v, inc_h, bat_h]));
    }
    Table {
        id: "Exp-S (paper §1 motivation): small updates, |D| fixed".into(),
        x_label: "|ΔD| / |D|".into(),
        columns: vec![
            "incVer (s)".into(),
            "batVer (s)".into(),
            "incHor (s)".into(),
            "batHor (s)".into(),
        ],
        rows,
    }
}

/// Exp-10 / Fig. 11(a,b): incremental vs. *refined* batch (`ibatVer` /
/// `ibatHor`), |D| fixed, |ΔD| varying with 60% insertions / 40% deletions.
pub fn exp10(scale: Scale) -> Table {
    let schema = tpch::tpch_schema();
    let cfds = workload::rules::tpch_rules(&schema, 50, 1);
    let n_rows = scale.rows(6_000);
    let cfg = tpch_cfg(n_rows);
    let (_, d) = tpch::generate(&cfg);
    let mut rows = Vec::new();
    for step in [2_000usize, 4_000, 6_000, 8_000, 10_000] {
        let dn = scale.rows(step);
        let n_del = (dn as f64 * 0.4) as usize;
        let dn = if n_del > d.len() {
            // Cap deletions at |D| (the paper's ΔD can exceed |D| only via
            // insertions).
            (d.len() as f64 / 0.4) as usize
        } else {
            dn
        };
        let delta = tpch_delta(&cfg, &d, dn, 0.6);

        let vs = tpch::vertical_scheme(&schema, 10);
        let inc = incremental(&schema, &cfds, Strategy::Vertical(vs.clone()), &d);
        let v = inc.violations().clone();
        let ibat = IbatVer::with_initial(schema.clone(), cfds.clone(), vs, &d, v).unwrap();
        let (inc_v, ibat_v, _, _) = run_pair(inc, Box::new(ibat), &delta);

        let hs = tpch::horizontal_scheme(&schema, 10);
        let inc = incremental(&schema, &cfds, Strategy::Horizontal(hs.clone()), &d);
        let v = inc.violations().clone();
        let ibat = IbatHor::with_initial(schema.clone(), cfds.clone(), hs, &d, v).unwrap();
        let (inc_h, ibat_h, _, _) = run_pair(inc, Box::new(ibat), &delta);

        rows.push((format!("{dn}"), vec![inc_v, ibat_v, inc_h, ibat_h]));
    }
    Table {
        id: "Exp-10 / Fig. 11(a,b): incremental vs refined batch (60% ins / 40% del)".into(),
        x_label: "|ΔD| (ops)".into(),
        columns: vec![
            "incVer (s)".into(),
            "ibatVer (s)".into(),
            "incHor (s)".into(),
            "ibatHor (s)".into(),
        ],
        rows,
    }
}

/// A fixed-seed TPCH instance: `|D| = n_rows`, the first `n_cfds` TPCH
/// rules and a `ΔD` of `|D|/2` operations, 80 % of them insertions — the
/// input of [`exp_speedup`].
pub fn tpch_fixture(
    n_rows: usize,
    n_cfds: usize,
) -> (Arc<Schema>, Vec<Cfd>, Relation, UpdateBatch) {
    let schema = tpch::tpch_schema();
    let cfds = workload::rules::tpch_rules(&schema, n_cfds, 1);
    let cfg = tpch_cfg(n_rows);
    let (_, d) = tpch::generate(&cfg);
    let delta = tpch_delta(&cfg, &d, n_rows / 2, 0.8);
    (schema, cfds, d, delta)
}

/// One site count of [`exp_speedup`]: the sequential `incHor` drive and
/// the thread-per-site runtime, each over its own localhost TCP mesh, on
/// the same `ΔD`.
#[derive(Debug, Clone)]
pub struct SpeedupPoint {
    /// Modeled `|M|`, identical for both drives.
    pub modeled_bytes: u64,
    /// Protocol messages, identical for both drives.
    pub messages: u64,
    /// Measured on-wire bytes of the sequential drive.
    pub seq_wire_bytes: u64,
    /// Measured on-wire bytes of the threaded drive: the protocol frames
    /// plus its control frames (slice hand-over, settle, barriers, acks,
    /// results). They move by a few frames with ack timing.
    pub thr_wire_bytes: u64,
    /// Barrier rounds of the threaded drive (deterministic).
    pub waves: u64,
    /// Final violation marks, identical for both drives.
    pub marks: u64,
    /// Wall-clock seconds of the sequential `apply`.
    pub seq_wall_s: f64,
    /// Wall-clock seconds of the threaded `apply`.
    pub thr_wall_s: f64,
    /// Sequential wall plus [`CostModel::serialized_seconds`]: one thread
    /// overlaps nothing, so every message pays a full round trip.
    pub seq_elapsed_s: f64,
    /// Threaded wall (the concurrent transport really ran) plus what
    /// localhost cannot show: two model latencies per barrier round and
    /// the busiest link's bytes over the model bandwidth.
    pub thr_elapsed_s: f64,
}

/// Run one [`SpeedupPoint`], asserting that the two drives agree on `V`
/// and on the modeled `|M|` matrix.
pub fn speedup_point(
    schema: &Arc<Schema>,
    cfds: &[Cfd],
    d: &Relation,
    delta: &UpdateBatch,
    n_sites: usize,
) -> Result<SpeedupPoint, DetectError> {
    let hs = tpch::horizontal_scheme(schema, n_sites);
    let mut seq = HorizontalDetector::new(
        schema.clone(),
        cfds.to_vec(),
        hs.clone(),
        d,
        CodecKind::Md5,
        TransportKind::Tcp,
    )?;
    let (res, seq_wall_s) = time(|| seq.apply(delta));
    res?;
    let mut thr = ConcurrentHorizontal::threaded(
        schema.clone(),
        cfds.to_vec(),
        hs,
        d,
        CodecKind::Md5,
        TransportKind::Tcp,
    )?;
    let (res, thr_wall_s) = time(|| thr.apply(delta));
    res?;
    assert_eq!(
        seq.violations().marks_sorted(),
        thr.violations().marks_sorted(),
        "sequential and threaded drives must agree at {n_sites} sites"
    );
    assert_eq!(
        seq.stats().to_bytes(),
        thr.stats().to_bytes(),
        "modeled |M| must be bit-identical at {n_sites} sites"
    );
    let model = CostModel::default();
    let seq_wire = seq.wire_stats().expect("the TCP drive meters wire bytes");
    Ok(SpeedupPoint {
        modeled_bytes: seq.stats().total_bytes(),
        messages: seq.stats().total_messages(),
        seq_wire_bytes: seq_wire.total_bytes(),
        thr_wire_bytes: thr.wire_stats().total_bytes(),
        waves: thr.waves(),
        marks: seq.violations().marks_sorted().len() as u64,
        seq_wall_s,
        thr_wall_s,
        seq_elapsed_s: seq_wall_s + model.serialized_seconds(seq_wire),
        thr_elapsed_s: thr_wall_s
            + 2.0 * thr.waves() as f64 * model.latency_s
            + model.pipelined_seconds(thr.wire_stats()),
    })
}

/// §7's one detector per site: the thread-per-site `incHor` runtime vs
/// the sequential drive at 2…16 sites over localhost TCP, on
/// [`tpch_fixture`] with `|D|` = 4 000 × scale and 50 rules. Two speedup
/// columns: `CostModel` elapsed (the paper's latency-bearing setting) and
/// raw measured wall. On a machine with fewer cores than site threads the
/// wall column says more about the OS scheduler than about the protocol.
pub fn exp_speedup(scale: Scale) -> Table {
    let (schema, cfds, d, delta) = tpch_fixture(scale.rows(4_000), 50);
    let mut rows = Vec::new();
    for n_sites in [2usize, 4, 8, 16] {
        let p = speedup_point(&schema, &cfds, &d, &delta, n_sites).expect("speedup point runs");
        rows.push((
            format!("{n_sites}"),
            vec![
                p.messages as f64,
                p.waves as f64,
                p.seq_wire_bytes as f64,
                p.thr_wire_bytes as f64,
                p.seq_elapsed_s / p.thr_elapsed_s,
                p.seq_wall_s / p.thr_wall_s,
            ],
        ));
    }
    Table {
        id: "§7 speedup: incHor one thread per site vs one thread, TCP".into(),
        x_label: "#sites".into(),
        columns: vec![
            "messages".into(),
            "waves".into(),
            "seq wire (B)".into(),
            "thr wire (B)".into(),
            "speedup (elapsed)".into(),
            "speedup (wall)".into(),
        ],
        rows,
    }
}

/// All experiments in paper order.
pub fn all_experiments(scale: Scale) -> Vec<Table> {
    vec![
        exp1(scale),
        exp2(scale),
        exp2_dblp(scale),
        exp3(scale),
        exp3_dblp(scale),
        exp4(scale),
        exp5(scale),
        exp6(scale),
        exp7(scale),
        exp8(scale),
        exp9(scale),
        exp10(scale),
        exp_small_updates(scale),
        exp_speedup(scale),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Largest over smallest of `xs`.
    fn spread(xs: &[f64]) -> f64 {
        let max = xs.iter().copied().fold(f64::MIN, f64::max);
        let min = xs.iter().copied().fold(f64::MAX, f64::min);
        max / min
    }

    /// Incremental shipment per update is flat across the `|ΔD|` sweep
    /// (within 10 %). Only the deterministic byte columns are read; the
    /// run itself asserts incremental and batch agree on `V`.
    fn assert_linear_in_delta(t: &Table) {
        assert_eq!(t.rows.len(), 5);
        let per_update: Vec<f64> = t
            .rows
            .iter()
            .map(|(x, vals)| vals[2] / x.parse::<f64>().expect("x is |ΔD|"))
            .collect();
        assert!(
            spread(&per_update) <= 1.10,
            "{}: incremental bytes per update {per_update:?}",
            t.id
        );
    }

    /// At rows of equal `|ΔD|`, incremental shipment stays within 10 %
    /// across `|D|` while batch shipment strictly grows.
    fn assert_flat_in_d(t: &Table) {
        assert_eq!(t.rows.len(), 5);
        let mut by_delta: Vec<(&str, Vec<f64>, Vec<f64>)> = Vec::new();
        for (x, vals) in &t.rows {
            let (_, dn) = x.split_once(" (").expect("x is `|D| (|ΔD|)`");
            match by_delta.iter_mut().find(|(d, _, _)| *d == dn) {
                Some((_, inc, bat)) => {
                    inc.push(vals[2]);
                    bat.push(vals[3]);
                }
                None => by_delta.push((dn, vec![vals[2]], vec![vals[3]])),
            }
        }
        let (_, inc, bat) = by_delta
            .iter()
            .max_by_key(|(_, inc, _)| inc.len())
            .expect("rows exist");
        assert!(inc.len() >= 3, "{}: too few rows share a |ΔD|", t.id);
        assert!(spread(inc) <= 1.10, "{}: incremental bytes {inc:?}", t.id);
        assert!(
            bat.windows(2).all(|w| w[0] < w[1]),
            "{}: batch bytes must grow with |D|: {bat:?}",
            t.id
        );
    }

    #[test]
    fn exp2_and_exp7_ship_linearly_in_delta() {
        let t = exp2(Scale(0.02));
        assert_linear_in_delta(&t);
        // Incremental ships less than batch at every ΔD size.
        for (_, vals) in &t.rows {
            assert!(vals[2] < vals[3], "inc {} < bat {}", vals[2], vals[3]);
        }
        assert_linear_in_delta(&exp7(Scale(0.02)));
    }

    #[test]
    fn exp1_and_exp6_ship_independently_of_d() {
        assert_flat_in_d(&exp1(Scale(0.02)));
        assert_flat_in_d(&exp6(Scale(0.02)));
    }

    #[test]
    fn exp10_smoke() {
        let t = exp10(Scale(0.01));
        assert_eq!(t.columns.len(), 4);
        assert!(t.render().contains("ibatVer"));
    }
}
