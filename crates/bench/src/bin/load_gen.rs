//! `load_gen` — emit the sustained-load benchmark report (`BENCH_10.json`),
//! including the concurrency `speedup` curve, the shared-plan
//! `cfd_sweep` and the validation-suite `suite` section.
//!
//! Usage:
//!
//! ```text
//! load_gen [--quick] [--out PATH] [--compare BENCH_10.json]
//!          [--require-keys k1,k2,...]
//! ```
//!
//! `--quick` runs the scenario catalog at smoke scale, the speedup
//! curve at 2/4 sites and the CFD sweep over the quick fig9 stream
//! (seconds); the default full run (scenarios at 40k rows, speedup at
//! 2/4/8/16 sites, sweep over the full fig9 stream) is what gets
//! committed as `BENCH_10.json`. Without `--out` the report goes to
//! stdout only.
//!
//! `--compare PATH` is the regression gate: the freshly computed
//! quick-scale deterministic load numbers (`load_quick`: updates
//! applied, Σ|ΔV| marks, final violation marks, modeled and measured
//! wire bytes per scenario × strategy × codec) are checked against the
//! committed report's `load_quick` section, the quick concurrency curve
//! (`speedup_quick`: messages, waves, sequential and threaded wire
//! bytes, control overhead) against its `speedup_quick`, and the
//! validation-suite integers (`suite.quick`: updates, finding marks,
//! inclusion probe bytes) against its `suite.quick`; any integer leaf
//! more than 20% above its reference fails the run with exit code 1.
//! Latency and throughput floats are never gated.
//!
//! `--require-keys k1,k2,...` asserts each named key occurs somewhere in
//! the produced report (any nesting level), failing with the missing
//! key's name otherwise — same contract as `bench_report`.

use bench::load::build_load_report;
use bench::report::{compare_deterministic, Json};
use std::io::Write;

/// Does `key` name a field anywhere in `j`?
fn key_present(j: &Json, key: &str) -> bool {
    match j {
        Json::Obj(fields) => fields.iter().any(|(k, v)| k == key || key_present(v, key)),
        _ => false,
    }
}

fn main() {
    let mut quick = false;
    let mut out: Option<String> = None;
    let mut compare: Option<String> = None;
    let mut require_keys: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => {
                out = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                }));
            }
            "--compare" => {
                compare = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--compare requires a path");
                    std::process::exit(2);
                }));
            }
            "--require-keys" => {
                let list = args.next().unwrap_or_else(|| {
                    eprintln!("--require-keys requires a comma-separated list");
                    std::process::exit(2);
                });
                require_keys.extend(
                    list.split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(String::from),
                );
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: load_gen [--quick] [--out PATH] [--compare BENCH_N.json] \
                     [--require-keys k1,k2,...]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                std::process::exit(2);
            }
        }
    }

    let report = build_load_report(quick);
    let rendered = report.render();
    match out {
        Some(path) => {
            let mut f = std::fs::File::create(&path)
                .unwrap_or_else(|e| panic!("cannot create {path}: {e}"));
            f.write_all(rendered.as_bytes()).expect("write report");
            eprintln!("wrote {path}");
        }
        None => print!("{rendered}"),
    }

    if !require_keys.is_empty() {
        let missing: Vec<&String> = require_keys
            .iter()
            .filter(|k| !key_present(&report, k))
            .collect();
        if missing.is_empty() {
            eprintln!(
                "load gate: all {} required metric keys present",
                require_keys.len()
            );
        } else {
            eprintln!(
                "load gate FAILED: required metric key(s) missing from the report \
                 (renamed or dropped section?):"
            );
            for k in missing {
                eprintln!("  missing key: {k}");
            }
            std::process::exit(1);
        }
    }

    if let Some(path) = compare {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read reference {path}: {e}"));
        let reference =
            Json::parse(&text).unwrap_or_else(|e| panic!("cannot parse reference {path}: {e}"));
        let Some(ref_quick) = reference.get("load_quick") else {
            eprintln!("reference {path} has no `load_quick` section — cannot gate");
            std::process::exit(2);
        };
        let cur_quick = report
            .get("load_quick")
            .expect("load reports always embed load_quick");
        let mut regressions = compare_deterministic(cur_quick, ref_quick, 0.2);
        // The quick concurrency curve gates the same way (message, wave
        // and wire-byte counts; its wall-clock floats are skipped).
        if let Some(ref_speedup) = reference.get("speedup_quick") {
            let cur_speedup = report
                .get("speedup_quick")
                .expect("load reports always embed speedup_quick");
            regressions.extend(compare_deterministic(cur_speedup, ref_speedup, 0.2));
        }
        // The validation-suite quick integers gate the same way; an old
        // reference without the section (pre-BENCH_10) is not an error.
        if let Some(ref_suite) = reference.get("suite").and_then(|s| s.get("quick")) {
            let cur_suite = report
                .get("suite")
                .and_then(|s| s.get("quick"))
                .expect("load reports always embed suite.quick");
            regressions.extend(compare_deterministic(cur_suite, ref_suite, 0.2));
        }
        if regressions.is_empty() {
            eprintln!(
                "load gate: deterministic load, speedup and suite numbers within 20% of {path}"
            );
        } else {
            eprintln!("load gate FAILED against {path}:");
            for r in &regressions {
                eprintln!("  {r}");
            }
            std::process::exit(1);
        }
    }
}
