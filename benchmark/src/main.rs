//! `detbench` — the repository's wall-clock benchmark.
//!
//! ```text
//! detbench run [--workload <name>] [--seed <u64>] [--seconds <s>] [--trace [0|1]] [--out <file>]
//! detbench compare <a.json> <b.json> [--bench <BENCHMARK.json>]
//! detbench smoke [--seed <u64>]
//! ```
//!
//! `run --workload <name>` measures one workload in this process and
//! prints the result line of the benchmark contract last; without
//! `--workload` every workload runs in a child process of its own.
//! See `benchmark/README.md` for what is measured and how to read it.

mod compare;
mod json;
mod probes;
mod run;
mod stats;
mod sys;
mod trace;
mod traced;
mod workloads;

use json::Json;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use workloads::{Spec, WORKLOADS};

/// `smoke` shrinks rows and ops by this factor.
const SMOKE_SCALE: usize = 50;
/// Prefix of the stdout line carrying a workload's detailed result.
const DETAIL_PREFIX: &str = "#detail ";
/// Where traces go, relative to the working directory (the repo root).
const TRACE_DIR: &str = "benchmark/out";

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("a workload name")?),
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                parsed.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--out" => parsed.out = Some(value("a file")?),
            // `--trace` alone switches tracing on; `--trace 0|1` sets it.
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// Run one workload in this process; the result line is printed last.
fn run_workload(spec: &Spec, args: &RunArgs) -> Result<ExitCode, String> {
    let started = std::time::Instant::now();
    let outcome = if args.trace {
        println!("{} seed {} (traced run)", spec.name, args.seed);
        traced::traced(spec, args.seed, Path::new(TRACE_DIR))
            .map_err(|e| format!("writing the trace: {e}"))?
    } else {
        let inputs = spec.generate(args.seed, 1);
        println!(
            "{} seed {} ({} ops per round, closed loop, one caller)\n  {}",
            spec.name, args.seed, inputs.ops, spec.why
        );
        run::end_to_end(spec, &inputs, args.seconds, false)
    };
    outcome.print_table();
    println!("  whole run took {:.1} s", started.elapsed().as_secs_f64());
    println!("{DETAIL_PREFIX}{}", outcome.detail().render());
    println!("{}", outcome.result_line().render());
    Ok(exit_code(outcome.failed == 0))
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload, each in a child process of its own, echoing the
/// children's output; `--out` collects their detailed results.
fn run_all(args: &RunArgs) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating detbench: {e}"))?;
    let mut results = Vec::new();
    let mut ok = true;
    for spec in &WORKLOADS {
        let output = Command::new(&exe)
            .args(["run", "--workload", spec.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("starting {}: {e}", spec.name))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        ok &= output.status.success();
        let detail = stdout
            .lines()
            .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
            .ok_or_else(|| format!("{} printed no result", spec.name))?;
        results.push((spec.name.to_string(), Json::parse(detail)?));
    }
    if let Some(path) = &args.out {
        let doc = Json::obj([
            ("environment", sys::environment(args.seed)),
            ("seconds", Json::Num(args.seconds)),
            ("traced", Json::Bool(args.trace)),
            ("workloads", Json::Obj(results)),
        ]);
        std::fs::write(path, doc.render() + "\n").map_err(|e| format!("writing {path}: {e}"))?;
        println!("results written to {path}");
    }
    Ok(exit_code(ok))
}

/// Every workload at 1/50 scale, one round, checks only.
fn smoke(seed: u64) -> ExitCode {
    let mut ok = true;
    for spec in &WORKLOADS {
        let inputs = spec.generate(seed, SMOKE_SCALE);
        let outcome = run::end_to_end(spec, &inputs, 0.0, true);
        println!(
            "smoke {:<16} {} ops, {} apply calls, {} failed",
            spec.name, inputs.ops, outcome.attempted, outcome.failed
        );
        ok &= outcome.failed == 0;
    }
    exit_code(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_run_args(rest).and_then(|a| match &a.workload {
            Some(name) => workloads::find(name)
                .ok_or_else(|| format!("unknown workload `{name}`"))
                .and_then(|spec| run_workload(spec, &a)),
            None => run_all(&a),
        }),
        Some("smoke") => parse_run_args(rest).map(|a| smoke(a.seed)),
        Some("compare") => compare::main(rest),
        _ => Err("usage: detbench run|compare|smoke … (see benchmark/README.md)".to_string()),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("detbench: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn declared(bench: &Json, section: &str) -> Vec<(String, String, String)> {
        bench
            .get(section)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has `{section}`"))
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn emitted_names_equal_the_declared_ones() {
        let bench = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let owned = |list: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
            list.iter()
                .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(declared(&bench, "end_to_end"), owned(&run::END_TO_END));
        assert_eq!(declared(&bench, "per_layer"), owned(&probes::PER_LAYER));
        let workloads: Vec<(String, String)> = bench
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                let field = |k: &str| w.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("why"))
            })
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, ours);

        let names: Vec<&str> = run::END_TO_END
            .iter()
            .chain(&probes::PER_LAYER)
            .map(|m| m.0)
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        assert!(names.iter().all(|n| well_formed(n)), "{names:?}");
        assert_eq!(
            names.iter().collect::<BTreeSet<_>>().len(),
            names.len(),
            "a name is used once"
        );
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
    }

    #[test]
    fn trace_flag_takes_an_optional_value() {
        let parse = |args: &[&str]| {
            parse_run_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
        };
        assert!(!parse(&["--seed", "3"]).trace);
        assert!(parse(&["--trace"]).trace);
        assert!(parse(&["--trace", "--seed", "3"]).trace);
        assert!(parse(&["--trace", "1"]).trace);
        let a = parse(&["--workload", "w", "--trace", "0", "--seconds", "2.5"]);
        assert!(!a.trace);
        assert_eq!((a.workload.as_deref(), a.seconds), (Some("w"), 2.5));
        assert!(parse_run_args(&["--bogus".to_string()]).is_err());
    }

    #[test]
    fn smoke_passes_every_check_in_seconds() {
        let t0 = std::time::Instant::now();
        for spec in &WORKLOADS {
            let inputs = spec.generate(7, SMOKE_SCALE);
            let outcome = run::end_to_end(spec, &inputs, 0.0, true);
            assert_eq!(outcome.failed, 0, "{}", spec.name);
            assert!(outcome.attempted > 0);
            assert!(outcome.metrics.is_empty(), "smoke reports no timings");
        }
        assert!(t0.elapsed().as_secs() < 60, "smoke took {:?}", t0.elapsed());
    }
}
