//! The sustained-load driver: push a stream through a detector, measure
//! throughput and per-update detection latency.
//!
//! [`run_load`] walks an [`UpdateStream`] one operation at a time,
//! timing each [`Detector::apply_one`] call into a [`Histogram`] of
//! nanoseconds. The first [`LoadConfig::warmup_ticks`] ticks are applied
//! but not measured (they fill caches and dictionaries); traffic meters
//! are reset at the measurement boundary so the reported
//! [`NetReport`] covers exactly the measured window.

use crate::hist::Histogram;
use crate::stream::UpdateStream;
use cluster::NetReport;
use incdetect::{DetectError, Detector, SuiteSession};
use std::time::Instant;

/// Driver knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadConfig {
    /// Ticks applied before measurement starts (not timed, not counted).
    pub warmup_ticks: usize,
}

/// Everything measured in one `(scenario, detector)` run.
pub struct LoadReport {
    /// Scenario name (report key).
    pub scenario: String,
    /// Detector strategy name, e.g. `"incHor"`.
    pub strategy: &'static str,
    /// Wire codec in use (`"md5"`, `"dict"`, …) when the strategy has
    /// one.
    pub codec: Option<String>,
    /// Operations applied in the measured window.
    pub updates: u64,
    /// Ticks in the measured window.
    pub ticks: u64,
    /// Total violation-mark changes: Σ |ΔV| over measured operations.
    pub dv_marks: u64,
    /// Marks in `V(Σ, D)` after the last tick.
    pub final_violations: u64,
    /// Wall-clock seconds for the measured window.
    pub wall_seconds: f64,
    /// Per-update detection latency in nanoseconds.
    pub latency: Histogram,
    /// Cumulative network traffic over the measured window.
    pub net: NetReport,
}

impl LoadReport {
    /// Sustained throughput over the measured window.
    pub fn updates_per_sec(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.updates as f64 / self.wall_seconds
        }
    }
}

/// Drive `stream` through `det`, timing every update (see module docs).
///
/// The stream is consumed; the detector ends up holding the stream's
/// final relation state.
pub fn run_load(
    scenario: &str,
    det: &mut dyn Detector,
    mut stream: UpdateStream,
    cfg: &LoadConfig,
) -> Result<LoadReport, DetectError> {
    // Warmup: apply without measuring.
    let mut warmed = 0usize;
    while warmed < cfg.warmup_ticks {
        match stream.next_tick() {
            Some(tick) => {
                det.apply(&tick.batch)?;
                warmed += 1;
            }
            None => break,
        }
    }
    det.reset_stats();

    let mut latency = Histogram::new();
    let mut updates = 0u64;
    let mut ticks = 0u64;
    let mut dv_marks = 0u64;
    let started = Instant::now();
    while let Some(tick) = stream.next_tick() {
        for op in tick.batch.ops() {
            let t0 = Instant::now();
            let dv = det.apply_one(op)?;
            let ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            latency.record(ns);
            dv_marks += dv.len() as u64;
            updates += 1;
        }
        ticks += 1;
    }
    let wall_seconds = started.elapsed().as_secs_f64();

    Ok(LoadReport {
        scenario: scenario.to_string(),
        strategy: det.strategy(),
        codec: det.net().codec().map(str::to_string),
        updates,
        ticks,
        dv_marks,
        final_violations: det.violations().total_marks() as u64,
        wall_seconds,
        latency,
        net: det.net(),
    })
}

/// Everything measured in one sustained-load run over a validation
/// [`SuiteSession`] — the mixed-kind sibling of [`LoadReport`].
pub struct SuiteLoadReport {
    /// Scenario name (report key).
    pub scenario: String,
    /// Inner detector strategy name, e.g. `"incHor"`.
    pub strategy: &'static str,
    /// Operations applied in the measured window.
    pub updates: u64,
    /// Ticks in the measured window.
    pub ticks: u64,
    /// Finding marks added over measured operations (Σ added tids).
    pub findings_added: u64,
    /// Finding marks removed over measured operations (Σ removed tids).
    pub findings_removed: u64,
    /// Violated `(rule, tid)` pairs after the last tick.
    pub final_findings: u64,
    /// Wall-clock seconds for the measured window.
    pub wall_seconds: f64,
    /// Per-update validation latency in nanoseconds (all rule kinds).
    pub latency: Histogram,
    /// Cumulative traffic, including the suite's `ind` tier.
    pub net: NetReport,
}

impl SuiteLoadReport {
    /// Sustained throughput over the measured window.
    pub fn updates_per_sec(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.updates as f64 / self.wall_seconds
        }
    }
}

/// Drive `stream` through a validation [`SuiteSession`], timing every
/// update. The suite analogue of [`run_load`]: same warmup and
/// meter-reset discipline, but latencies cover the whole mixed-kind
/// rule catalog (CFDs plus keys/completeness/inclusion/aggregates).
pub fn run_suite_load(
    scenario: &str,
    session: &mut SuiteSession,
    mut stream: UpdateStream,
    cfg: &LoadConfig,
) -> Result<SuiteLoadReport, DetectError> {
    let mut warmed = 0usize;
    while warmed < cfg.warmup_ticks {
        match stream.next_tick() {
            Some(tick) => {
                session.apply(&tick.batch)?;
                warmed += 1;
            }
            None => break,
        }
    }
    session.reset_stats();

    let mut latency = Histogram::new();
    let mut updates = 0u64;
    let mut ticks = 0u64;
    let mut findings_added = 0u64;
    let mut findings_removed = 0u64;
    let started = Instant::now();
    while let Some(tick) = stream.next_tick() {
        for op in tick.batch.ops() {
            let t0 = Instant::now();
            let delta = session.apply_one(op)?;
            let ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            latency.record(ns);
            findings_added += delta
                .findings
                .added
                .iter()
                .map(|f| f.tids.len() as u64)
                .sum::<u64>();
            findings_removed += delta
                .findings
                .removed
                .iter()
                .map(|f| f.tids.len() as u64)
                .sum::<u64>();
            updates += 1;
        }
        ticks += 1;
    }
    let wall_seconds = started.elapsed().as_secs_f64();

    Ok(SuiteLoadReport {
        scenario: scenario.to_string(),
        strategy: session.strategy(),
        updates,
        ticks,
        findings_added,
        findings_removed,
        final_findings: session.finding_set().len() as u64,
        wall_seconds,
        latency,
        net: session.net(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{catalog, Scenario};
    use incdetect::DetectorBuilder;

    #[test]
    fn run_load_measures_and_matches_oracle() {
        let cfg = catalog().remove(0);
        let ds = cfg.dataset();
        let mut det = DetectorBuilder::new(ds.schema.clone(), ds.cfds.clone())
            .horizontal(ds.horizontal.clone())
            .md5()
            .build(&ds.base)
            .unwrap();
        let report = run_load(
            "steady_uniform",
            &mut det,
            cfg.stream(&ds),
            &LoadConfig { warmup_ticks: 2 },
        )
        .unwrap();

        assert_eq!(report.strategy, "incHor");
        assert_eq!(report.ticks as usize, cfg.ticks - 2);
        assert!(report.updates > 0);
        assert_eq!(report.latency.count(), report.updates);
        assert!(report.updates_per_sec() > 0.0);

        // The detector must end on the centralized ground truth of the
        // stream's final state.
        let mut s = cfg.stream(&ds);
        while s.next_tick().is_some() {}
        let oracle = cfd::naive::detect(det.cfds(), s.mirror());
        assert_eq!(
            det.violations().marks_sorted(),
            oracle.marks_sorted(),
            "final violations match oracle"
        );
        assert_eq!(report.final_violations, oracle.total_marks() as u64);
    }

    #[test]
    fn run_suite_load_drives_mixed_catalogs() {
        use cfd::Check;
        use incdetect::Suite;

        let cfg = catalog().remove(0);
        let ds = cfg.dataset();
        let mut session = Suite::on(ds.schema.clone())
            .cfds(ds.cfds.clone())
            .check(Check::key(["zip", "phn"]))
            .check(Check::complete("city"))
            .check(Check::row_count(["grade"], Some(1), None))
            .strategy(incdetect::Strategy::Horizontal(ds.horizontal.clone()))
            .build(&ds.base)
            .unwrap();
        let report = run_suite_load(
            cfg.name,
            &mut session,
            cfg.stream(&ds),
            &LoadConfig { warmup_ticks: 1 },
        )
        .unwrap();
        assert_eq!(report.strategy, "incHor");
        assert_eq!(report.ticks as usize, cfg.ticks - 1);
        assert!(report.updates > 0);
        assert_eq!(report.latency.count(), report.updates);

        // The CFD portion of the finding set must still equal the
        // centralized oracle over the stream's final state.
        let mut s = cfg.stream(&ds);
        while s.next_tick().is_some() {}
        let oracle = cfd::naive::detect(&ds.cfds, s.mirror());
        let cfd_tids: Vec<_> = (0..ds.cfds.len() as cfd::RuleId)
            .flat_map(|r| {
                session
                    .finding_set()
                    .tids_of(r)
                    .into_iter()
                    .map(move |t| (r, t))
            })
            .collect();
        assert_eq!(cfd_tids, oracle.marks_sorted());
    }

    #[test]
    fn warmup_excludes_early_ticks_from_measurement() {
        let cfg = catalog().remove(0);
        let ds = cfg.dataset();
        let build = || {
            DetectorBuilder::new(ds.schema.clone(), ds.cfds.clone())
                .vertical(ds.vertical.clone())
                .build_dyn(&ds.base)
                .unwrap()
        };
        let mut cold = build();
        let full = run_load("s", cold.as_mut(), cfg.stream(&ds), &LoadConfig::default()).unwrap();
        let mut warm = build();
        let warmed = run_load(
            "s",
            warm.as_mut(),
            cfg.stream(&ds),
            &LoadConfig { warmup_ticks: 5 },
        )
        .unwrap();
        assert_eq!(full.ticks, cfg.ticks as u64);
        assert_eq!(warmed.ticks, (cfg.ticks - 5) as u64);
        assert!(warmed.updates < full.updates);
        // Both walks end in the same state regardless of warmup split.
        assert_eq!(full.final_violations, warmed.final_violations);
    }
}
