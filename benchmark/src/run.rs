//! One workload's run: generate, then rounds of build → drive → verify.
//!
//! A closed loop with one caller: the next `apply` is issued when the
//! previous one returned. Dataset and stream are materialised from the
//! seed before the first timed window; every round builds a fresh
//! detector from `D₀` and drives the identical stream, so rounds are
//! repeats of one measurement and their deterministic outputs must agree.

use crate::json::Json;
use crate::stats::{median_iqr, percentile_sorted, samples_beyond, MIN_TAIL_SAMPLES};
use crate::sys;
use crate::workloads::{Applied, Engine, Inputs, Spec, Target};
use inc_cfd::cfd::{self, ConstraintKind};
use inc_cfd::cluster::NetReport;
use inc_cfd::incdetect::DetectError;
use inc_cfd::relation::{Relation, Tid, Update, UpdateBatch};
use std::cell::OnceCell;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Name, unit and direction of every gated end-to-end metric, in print
/// order.
///
/// The end-to-end timings other than set-up (`run.updates_per_s`,
/// `run.apply_p50_us`, `run.apply_p99_us`, `run.cpu_us_per_update`) are
/// measured and printed by the same run and compared by `detbench
/// compare`, but not gated: on the shared 2-core box this benchmark is
/// sized for, identical runs of them read 1.3–2.5x apart (README, "Why
/// the timings are not gated"), which no bound the contract allows can
/// hold. The traced run reports them under the same names.
pub const END_TO_END: [(&str, &str, &str); 4] = [
    ("wire_bytes_per_update", "B", "lower"),
    ("wire_messages_per_update", "count", "lower"),
    ("state_rss_mb", "MiB", "lower"),
    ("setup_s", "s", "lower"),
];

/// Rounds are added until the timed windows sum to `--seconds` and p99
/// has its tail samples; this caps a run on a stalled machine.
const MAX_ROUNDS: usize = 24;

/// What a drive loop tells its observer about one `apply` call.
pub struct Call<'a> {
    pub start: Instant,
    pub end: Instant,
    /// `Some` for single-op calls.
    pub op: Option<&'a Update>,
    pub ops: u64,
    pub applied: &'a Applied,
}

/// What one drive over the stream produced.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Drive {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Σ|ΔV| over all calls.
    pub marks: u64,
    /// Calls that returned `Err`.
    pub failed: u64,
}

/// Drive the whole stream through `target`, appending one latency sample
/// (ns) per call and handing each call to `observe`. The end-to-end run
/// passes a no-op observer, which compiles away; the traced run records a
/// span per call.
pub fn drive(
    spec: &Spec,
    inputs: &Inputs,
    target: &mut Target,
    latencies: &mut Vec<u64>,
    mut observe: impl FnMut(Call<'_>),
) -> Drive {
    let mut out = Drive::default();
    let mut first_error: Option<DetectError> = None;
    let cpu0 = sys::cpu_seconds();
    let wall0 = Instant::now();
    let mut call = |target: &mut Target, op: Option<&Update>, batch: &UpdateBatch, ops: u64| {
        let start = Instant::now();
        let result = match op {
            Some(op) => target.apply_one(op),
            None => target.apply(batch),
        };
        let end = Instant::now();
        latencies.push((end - start).as_nanos() as u64);
        match result {
            Ok(applied) => {
                out.marks += applied.dv.len() as u64;
                observe(Call {
                    start,
                    end,
                    op,
                    ops,
                    applied: &applied,
                });
            }
            Err(e) => {
                out.failed += 1;
                first_error.get_or_insert(e);
            }
        }
    };
    for tick in &inputs.ticks {
        if spec.batched() {
            call(target, None, tick, tick.len() as u64);
        } else {
            for op in tick.ops() {
                call(target, Some(op), tick, 1);
            }
        }
    }
    out.wall_s = wall0.elapsed().as_secs_f64();
    out.cpu_s = sys::cpu_seconds() - cpu0;
    if let Some(e) = first_error {
        eprintln!(
            "{}: {} apply calls failed, first: {e}",
            spec.name, out.failed
        );
    }
    out
}

/// The outputs of a round that must be identical in every round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub dv_marks: u64,
    pub final_marks: u64,
    pub modeled_bytes: u64,
    pub messages: u64,
    /// Frame bytes on the wire. `None` where the transport is simulated,
    /// and for the threaded runtime: whether an ack rides piggyback or is
    /// flushed on idle depends on thread timing, so its measured bytes
    /// differ by a few dozen in nine million from round to round.
    pub measured_bytes: Option<u64>,
}

impl Fingerprint {
    pub fn of(spec: &Spec, target: &Target, drive: &Drive) -> Self {
        let net = target.net();
        Fingerprint {
            dv_marks: drive.marks,
            final_marks: target.violations().total_marks() as u64,
            modeled_bytes: net.total_bytes(),
            messages: net.total_messages(),
            measured_bytes: net
                .measured_bytes()
                .filter(|_| spec.engine != Engine::Threaded),
        }
    }
}

/// Bytes put on the network: measured frame bytes where the transport
/// moves real bytes, the modeled `|M|` where it is simulated.
pub fn wire_bytes(net: &NetReport) -> u64 {
    net.measured_bytes().unwrap_or_else(|| net.total_bytes())
}

/// The reference results every round is checked against, computed once
/// per run from the generated inputs alone.
pub struct Oracle {
    /// `cfd::naive::detect` of the detector's catalog over the stream's
    /// final relation, with the seconds it took; computed when the first
    /// detector shows its catalog (a suite compiles extra rules into it).
    violations: OnceCell<(Vec<(cfd::CfdId, Tid)>, f64)>,
    /// Tids of the final relation whose city is not listed in `CITIES`.
    dangling: Option<Vec<Tid>>,
}

impl Oracle {
    pub fn new(inputs: &Inputs) -> Self {
        let dangling = inputs.cities.as_ref().map(|cities| {
            let listed: BTreeSet<_> = cities.iter().map(|t| t.values[1].clone()).collect();
            let city = inputs
                .mirror
                .schema()
                .attr_id("city")
                .expect("EMP has a city column");
            inputs
                .mirror
                .iter()
                .filter(|t| !listed.contains(t.get(city)))
                .map(|t| t.tid)
                .collect()
        });
        Oracle {
            violations: OnceCell::new(),
            dangling,
        }
    }

    /// Seconds the brute-force detection took (0 before the first check).
    pub fn detect_s(&self) -> f64 {
        self.violations.get().map_or(0.0, |v| v.1)
    }

    /// Number of checks `target` fails after the stream: final relation,
    /// final violations, and — for the suite — the inclusion findings.
    pub fn mismatches(&self, inputs: &Inputs, target: &Target) -> u64 {
        let mut bad = 0;
        let mut check = |what: &str, ok: bool| {
            if !ok {
                eprintln!("check failed: {what}");
                bad += 1;
            }
        };
        check(
            "current() equals the stream's mirror",
            same_relation(target.det().current(), &inputs.mirror),
        );
        let (expected, _) = self.violations.get_or_init(|| {
            let t0 = Instant::now();
            let v = cfd::naive::detect(target.det().cfds(), &inputs.mirror).marks_sorted();
            (v, t0.elapsed().as_secs_f64())
        });
        check(
            "violations() equals cfd::naive::detect",
            &target.violations().marks_sorted() == expected,
        );
        if let (Target::Suite(session), Some(dangling)) = (target, &self.dangling) {
            let rule = session
                .rules()
                .into_iter()
                .find(|r| r.kind == ConstraintKind::Inclusion)
                .expect("suite has an inclusion rule");
            check(
                "inclusion findings equal a recomputation against CITIES",
                &session.finding_set().tids_of(rule.id) == dangling,
            );
        }
        bad
    }
}

fn same_relation(a: &Relation, b: &Relation) -> bool {
    a.len() == b.len() && a.iter().eq(b.iter())
}

/// One round's measurements.
struct Round {
    setup_s: f64,
    drive: Drive,
    fingerprint: Fingerprint,
    wire_bytes: u64,
    mismatches: u64,
    /// RSS growth from just before the build to the drive's peak, KiB.
    state_kb: u64,
    /// This round's latency samples, ascending.
    latencies: Vec<u64>,
}

fn round(spec: &Spec, inputs: &Inputs, oracle: &Oracle, latencies: &mut Vec<u64>) -> Round {
    sys::reset_peak_rss();
    let (rss0, peak0) = (sys::rss_kb(), sys::peak_rss_kb());
    let t0 = Instant::now();
    let mut target = spec.build(inputs).expect("detector builds from D0");
    let setup_s = t0.elapsed().as_secs_f64();
    let before = latencies.len();
    let drive = drive(spec, inputs, &mut target, latencies, |_| {});
    // Where the kernel refused the reset the old peak still stands; the
    // RSS at the end of the drive is then the best reading there is.
    let peak = sys::peak_rss_kb();
    let high = if peak > peak0 { peak } else { sys::rss_kb() };
    let mut own = latencies[before..].to_vec();
    own.sort_unstable();
    Round {
        setup_s,
        fingerprint: Fingerprint::of(spec, &target, &drive),
        wire_bytes: wire_bytes(&target.net()),
        mismatches: oracle.mismatches(inputs, &target),
        drive,
        state_kb: high.saturating_sub(rss0),
        latencies: own,
    }
}

/// A reported number: the median over rounds with its spread, or a
/// single reading (`samples` says how many values it rests on).
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub iqr: f64,
    pub samples: u64,
}

impl Metric {
    pub fn single(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
            iqr: 0.0,
            samples: 1,
        }
    }

    fn over_rounds(name: &str, unit: &'static str, values: &[f64]) -> Self {
        let (value, iqr) = median_iqr(values);
        Metric {
            name: name.to_string(),
            unit,
            value,
            iqr,
            samples: values.len() as u64,
        }
    }
}

/// What a workload's run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of the result line: the ones `BENCHMARK.json` declares
    /// for this kind of run.
    pub metrics: Vec<Metric>,
    /// Measured and printed, but not part of the result line.
    pub ungated: Vec<Metric>,
}

impl Outcome {
    fn metrics_json<'a>(metrics: impl Iterator<Item = &'a Metric>, spread: bool) -> Json {
        Json::obj(metrics.map(|m| {
            let mut fields = vec![
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(m.unit.to_string())),
            ];
            if spread {
                fields.push(("iqr", Json::Num(m.iqr)));
                fields.push(("samples", Json::Num(m.samples as f64)));
            }
            (m.name.clone(), Json::obj(fields))
        }))
    }

    /// The result line of the benchmark contract.
    pub fn result_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Self::metrics_json(self.metrics.iter(), false)),
        ])
    }

    /// Every number measured, with spread and sample counts, for `compare`.
    pub fn detail(&self) -> Json {
        Json::obj([
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Self::metrics_json(self.metrics.iter().chain(&self.ungated), true),
            ),
        ])
    }

    pub fn print_table(&self) {
        for m in self.metrics.iter().chain(&self.ungated) {
            println!(
                "  {:<44} {:>16.4} {:<6} iqr {:<12.4} n={}",
                m.name, m.value, m.unit, m.iqr, m.samples
            );
        }
        println!(
            "  apply_calls_attempted {}  failed_ops {}",
            self.attempted, self.failed
        );
    }
}

/// Run rounds of `spec` until their timed windows sum to `seconds`
/// (`checks_only`: one round, no timings reported).
pub fn end_to_end(spec: &Spec, inputs: &Inputs, seconds: f64, checks_only: bool) -> Outcome {
    let oracle = Oracle::new(inputs);
    let calls = spec.calls(inputs);
    // Filled once so the sample buffer's pages are resident before the
    // first round measures memory growth.
    let mut latencies = vec![1u64; calls as usize * 6];
    latencies.clear();
    let mut rounds: Vec<Round> = Vec::new();
    let mut failed = 0u64;
    let mut timed = 0.0;
    while rounds.len() < MAX_ROUNDS
        && (rounds.is_empty()
            || (!checks_only
                && (timed < seconds || samples_beyond(latencies.len(), 0.99) < MIN_TAIL_SAMPLES)))
    {
        let before = latencies.len();
        match catch_unwind(AssertUnwindSafe(|| {
            round(spec, inputs, &oracle, &mut latencies)
        })) {
            Ok(r) => {
                timed += r.drive.wall_s;
                if !checks_only {
                    println!(
                        "  round {}: setup {:.3} s, drive {:.3} s wall / {:.3} s cpu, {} dV marks",
                        rounds.len() + 1,
                        r.setup_s,
                        r.drive.wall_s,
                        r.drive.cpu_s,
                        r.drive.marks
                    );
                }
                rounds.push(r);
            }
            Err(_) => {
                // A panicking round fails every call it did not finish.
                let done = (latencies.len() - before) as u64;
                failed += calls.saturating_sub(done).max(1);
                eprintln!("{}: round panicked after {done} calls", spec.name);
                break;
            }
        }
    }
    let attempted = calls * (rounds.len() as u64 + u64::from(failed > 0));
    for r in &rounds {
        failed += r.drive.failed + r.mismatches;
        if r.fingerprint != rounds[0].fingerprint {
            eprintln!(
                "{}: rounds disagree: {:?} vs {:?}",
                spec.name, rounds[0].fingerprint, r.fingerprint
            );
            failed += 1;
        }
    }
    let (mut metrics, mut ungated) = (Vec::new(), Vec::new());
    if !checks_only && !rounds.is_empty() {
        let ops = inputs.ops as f64;
        let over = |name: &str, unit, f: &dyn Fn(&Round) -> f64| {
            Metric::over_rounds(name, unit, &rounds.iter().map(f).collect::<Vec<f64>>())
        };
        // Percentiles come from the samples of all rounds merged; their
        // spread is the IQR of the per-round percentiles.
        latencies.sort_unstable();
        let percentile = |name: &str, q: f64| Metric {
            value: percentile_sorted(&latencies, q) as f64 / 1e3,
            samples: latencies.len() as u64,
            ..over(name, "us", &|r| {
                percentile_sorted(&r.latencies, q) as f64 / 1e3
            })
        };
        metrics = vec![
            over("wire_bytes_per_update", "B", &|r| r.wire_bytes as f64 / ops),
            over("wire_messages_per_update", "count", &|r| {
                r.fingerprint.messages as f64 / ops
            }),
            // Later rounds reuse the memory round 1 freed, so only the
            // first round's growth measures the detector's state.
            Metric::single("state_rss_mb", "MiB", rounds[0].state_kb as f64 / 1024.0),
            over("setup_s", "s", &|r| r.setup_s),
        ];
        assert!(
            metrics
                .iter()
                .map(|m| (m.name.as_str(), m.unit))
                .eq(END_TO_END.map(|d| (d.0, d.1))),
            "emitted end-to-end metrics are the declared ones"
        );
        ungated = vec![
            over("run.updates_per_s", "1/s", &|r| ops / r.drive.wall_s),
            percentile("run.apply_p50_us", 0.5),
            percentile("run.apply_p99_us", 0.99),
            over("run.cpu_us_per_update", "us", &|r| {
                r.drive.cpu_s * 1e6 / ops
            }),
        ];
    }
    Outcome {
        attempted,
        failed,
        metrics,
        ungated,
    }
}
