//! `detbench compare <a.json> <b.json>`: per (workload, metric), how much
//! worse `b` reads than `a`, against the bound fixed in `BENCHMARK.json`.
//! Both files come from `detbench run --out`.
//!
//! The gated metrics (`end_to_end`) decide the exit code. Every other
//! declared metric both runs carry — the ungated timings of end-to-end
//! runs, the per-layer numbers of traced runs — is judged against
//! [`UNGATED_BOUND`] and shown, because this is also the tool for
//! before/after tables.

use crate::json::Json;
use std::process::ExitCode;

/// Advisory bound for metrics `BENCHMARK.json` gives none (the one ISSUE 11
/// intended for the timings).
const UNGATED_BOUND: f64 = 0.10;

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Ok,
    /// Worse by more than the bound, and by more than the runs' own spread.
    Regressed,
    /// The spread between rounds is wider than the bound: the difference,
    /// whatever its sign, shows nothing.
    Unresolved,
}

/// One side's reading of a metric: median over rounds and their IQR.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    pub value: f64,
    pub iqr: f64,
}

/// Relative amount by which `b` is worse than `a` (negative: better).
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    if higher_is_better {
        -change
    } else {
        change
    }
}

pub fn verdict(a: Reading, b: Reading, higher_is_better: bool, bound: f64) -> Verdict {
    let spread = |r: Reading| r.iqr / r.value.abs().max(f64::MIN_POSITIVE);
    let spread = spread(a).max(spread(b));
    let worse = worsening(a.value, b.value, higher_is_better);
    if worse > bound && worse > spread {
        Verdict::Regressed
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn reading(run: &Json, workload: &str, metric: &str) -> Option<Reading> {
    let m = run
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?;
    Some(Reading {
        value: m.get("value")?.as_f64()?,
        iqr: m.get("iqr")?.as_f64()?,
    })
}

fn failed(run: &Json, workload: &str) -> f64 {
    run.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("failed"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let mut files = Vec::new();
    let mut bench_path = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--bench" {
            bench_path = it.next().ok_or("--bench needs a file")?.clone();
        } else {
            files.push(arg.clone());
        }
    }
    let [a_path, b_path] = files.as_slice() else {
        return Err("usage: detbench compare <a.json> <b.json> [--bench <BENCHMARK.json>]".into());
    };
    let (a, b, bench) = (load(a_path)?, load(b_path)?, load(&bench_path)?);
    let declared = |section: &str| -> Result<&[Json], String> {
        bench
            .get(section)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{bench_path}: no {section} list"))
    };
    let (gated, per_layer) = (declared("end_to_end")?, declared("per_layer")?);
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("{a_path}: no workloads"))?;

    let (mut regressed, mut compared) = (0, 0);
    println!(
        "{:<16} {:<26} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "a", "b", "worse", "bound"
    );
    for (workload, _) in workloads {
        for (m, is_gated) in gated
            .iter()
            .map(|m| (m, true))
            .chain(per_layer.iter().map(|m| (m, false)))
        {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or_default();
            let (name, higher) = (field("name"), field("better") == "higher");
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .unwrap_or(UNGATED_BOUND);
            let (Some(ra), Some(rb)) = (reading(&a, workload, name), reading(&b, workload, name))
            else {
                continue;
            };
            compared += 1;
            let v = verdict(ra, rb, higher, bound);
            regressed += u32::from(is_gated && v == Verdict::Regressed);
            println!(
                "{workload:<16} {name:<26} {:>14.4} {:>14.4} {:>+8.1}% {:>5.0}%  {}{}",
                ra.value,
                rb.value,
                worsening(ra.value, rb.value, higher) * 100.0,
                bound * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                },
                if is_gated { "" } else { " (not gated)" }
            );
        }
        // Failures are counted, not bounded: any new one is a regression.
        let (fa, fb) = (failed(&a, workload), failed(&b, workload));
        if fb > fa {
            regressed += 1;
        }
        println!(
            "{workload:<16} {:<26} {fa:>14} {fb:>14} {:>9} {:>6}  {}",
            "failed_ops",
            "",
            "0",
            if fb > fa { "regressed" } else { "ok" }
        );
    }
    if compared == 0 {
        return Err("the two runs have no declared metric in common".into());
    }
    Ok(if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(value: f64, iqr: f64) -> Reading {
        Reading { value, iqr }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        // Lower is better: 12% slower against a 10% bound, tight rounds.
        assert_eq!(
            verdict(r(100.0, 2.0), r(112.0, 2.0), false, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(r(100.0, 2.0), r(108.0, 2.0), false, 0.10),
            Verdict::Ok
        );
        // Faster is never a regression, whichever way "better" points.
        assert_eq!(
            verdict(r(100.0, 2.0), r(50.0, 1.0), false, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            verdict(r(100.0, 2.0), r(150.0, 2.0), true, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            verdict(r(100.0, 2.0), r(85.0, 2.0), true, 0.10),
            Verdict::Regressed
        );
        // Rounds 20% apart cannot resolve a 10% bound…
        assert_eq!(
            verdict(r(100.0, 20.0), r(105.0, 3.0), false, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(r(100.0, 20.0), r(115.0, 3.0), false, 0.10),
            Verdict::Unresolved
        );
        // …unless the difference stands clear of that spread too.
        assert_eq!(
            verdict(r(100.0, 20.0), r(140.0, 3.0), false, 0.10),
            Verdict::Regressed
        );
        assert!((worsening(200.0, 150.0, true) - 0.25).abs() < 1e-12);
    }
}
