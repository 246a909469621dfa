//! The `load` section of the benchmark report: sustained-load runs of
//! the [`loadgen`] scenario catalog across strategies and codecs.
//!
//! Every scenario from [`loadgen::catalog`] is pushed through a fixed
//! matrix of detector configurations (vertical, horizontal under three
//! codecs — one over the framed byte transport so measured wire bytes
//! appear — and hybrid), producing per-combination throughput
//! (updates/sec), per-update latency percentiles (p50/p90/p99/p999 ns)
//! and traffic totals.
//!
//! Latency and throughput are machine-dependent and emitted as
//! [`Json::Num`] — never gated. The deterministic integers (updates
//! applied, Σ|ΔV| marks, final violation marks, modeled and measured
//! wire bytes) are duplicated at quick scale in the `load_quick`
//! section, which the `load_gen --compare` gate checks against the
//! committed `BENCH_10.json` exactly like the `fig_quick` gate.

use crate::report::Json;
use cluster::codec::CodecKind;
use cluster::net::TransportKind;
use incdetect::{BaselineStrategy, DetectError, Detector, DetectorBuilder};
use loadgen::{catalog, run_load, Dataset, LoadConfig, LoadReport, Profile, Scenario, ScenarioCfg};

/// Ticks applied before the measured window in every run.
const WARMUP_TICKS: usize = 4;

/// One detector configuration in the load matrix.
struct Combo {
    /// Report key, e.g. `"incHor_dict"`.
    key: &'static str,
    /// Codec for the horizontal/hybrid protocols (`None` = incVer).
    codec: Option<CodecKind>,
    /// Transport for horizontal runs.
    transport: TransportKind,
    /// Which topology to build.
    topology: Topology,
    /// Whether this combo also runs at the Full profile. The batch
    /// baselines recompute `V(Σ, D)` from scratch on *every* update —
    /// exactly the `O(|D|)` cost the incremental detectors avoid — so
    /// at 40k rows they are confined to the quick matrix.
    full: bool,
}

enum Topology {
    Vertical,
    Horizontal,
    Hybrid,
    /// `batVer` batch recomputation (byte-transport coordinator rounds).
    BaselineVer,
    /// `batHor` batch recomputation (byte-transport coordinator rounds).
    BaselineHor,
}

/// The strategy × codec matrix every scenario runs against.
fn combos() -> Vec<Combo> {
    vec![
        Combo {
            key: "incVer",
            codec: None,
            transport: TransportKind::Simulated,
            topology: Topology::Vertical,
            full: true,
        },
        Combo {
            key: "incHor_md5",
            codec: Some(CodecKind::Md5),
            transport: TransportKind::Simulated,
            topology: Topology::Horizontal,
            full: true,
        },
        Combo {
            key: "incHor_dict",
            codec: Some(CodecKind::Dict),
            transport: TransportKind::Simulated,
            topology: Topology::Horizontal,
            full: true,
        },
        Combo {
            key: "incHor_lz_framed",
            codec: Some(CodecKind::Lz),
            transport: TransportKind::Framed,
            topology: Topology::Horizontal,
            full: true,
        },
        Combo {
            key: "incHor_md5_tcp",
            codec: Some(CodecKind::Md5),
            transport: TransportKind::Tcp,
            topology: Topology::Horizontal,
            full: true,
        },
        Combo {
            key: "incHyb_md5",
            codec: Some(CodecKind::Md5),
            transport: TransportKind::Simulated,
            topology: Topology::Hybrid,
            full: true,
        },
        Combo {
            key: "batVer_framed",
            codec: None,
            transport: TransportKind::Framed,
            topology: Topology::BaselineVer,
            full: false,
        },
        Combo {
            key: "batHor_framed",
            codec: None,
            transport: TransportKind::Framed,
            topology: Topology::BaselineHor,
            full: false,
        },
    ]
}

fn build_detector(ds: &Dataset, combo: &Combo) -> Result<Box<dyn Detector>, DetectError> {
    let b = DetectorBuilder::new(ds.schema.clone(), ds.cfds.clone());
    match combo.topology {
        Topology::Vertical => b.vertical(ds.vertical.clone()).build_dyn(&ds.base),
        Topology::Horizontal => b
            .horizontal(ds.horizontal.clone())
            .codec(combo.codec.unwrap_or(CodecKind::Md5))
            .transport(combo.transport)
            .build_dyn(&ds.base),
        Topology::Hybrid => b
            .hybrid(ds.hybrid.clone())
            .codec(combo.codec.unwrap_or(CodecKind::Md5))
            .build_dyn(&ds.base),
        Topology::BaselineVer => b
            .baseline(BaselineStrategy::BatVer(ds.vertical.clone()))
            .transport(combo.transport)
            .build_dyn(&ds.base),
        Topology::BaselineHor => b
            .baseline(BaselineStrategy::BatHor(ds.horizontal.clone()))
            .transport(combo.transport)
            .build_dyn(&ds.base),
    }
}

/// Run one scenario × combo cell.
fn run_cell(cfg: &ScenarioCfg, ds: &Dataset, combo: &Combo) -> LoadReport {
    let mut det = build_detector(ds, combo).expect("detector builds for scenario");
    run_load(
        cfg.name,
        det.as_mut(),
        cfg.stream(ds),
        &LoadConfig {
            warmup_ticks: WARMUP_TICKS,
        },
    )
    .expect("load run succeeds")
}

/// The full per-cell entry: measured floats plus deterministic ints.
fn cell_json(r: &LoadReport) -> Json {
    let mut fields = vec![
        ("strategy", Json::Str(r.strategy.to_string())),
        (
            "codec",
            Json::Str(r.codec.clone().unwrap_or_else(|| "none".into())),
        ),
        ("updates", Json::Int(r.updates)),
        ("ticks", Json::Int(r.ticks)),
        ("updates_per_sec", Json::Num(r.updates_per_sec())),
        ("wall_seconds", Json::Num(r.wall_seconds)),
        ("mean_ns", Json::Num(r.latency.mean())),
        ("p50_ns", Json::Num(r.latency.p50() as f64)),
        ("p90_ns", Json::Num(r.latency.p90() as f64)),
        ("p99_ns", Json::Num(r.latency.p99() as f64)),
        ("p999_ns", Json::Num(r.latency.p999() as f64)),
        ("max_ns", Json::Num(r.latency.max() as f64)),
        ("dv_marks", Json::Int(r.dv_marks)),
        ("final_violations", Json::Int(r.final_violations)),
        ("modeled_bytes", Json::Int(r.net.total_bytes())),
        ("messages", Json::Int(r.net.total_messages())),
    ];
    if let Some(measured) = r.net.measured_bytes() {
        fields.push(("measured_wire_bytes", Json::Int(measured)));
    }
    Json::obj(fields)
}

/// Only the deterministic integers — the gated subset.
fn cell_json_deterministic(r: &LoadReport) -> Json {
    let mut fields = vec![
        ("updates", Json::Int(r.updates)),
        ("dv_marks", Json::Int(r.dv_marks)),
        ("final_violations", Json::Int(r.final_violations)),
        ("modeled_bytes", Json::Int(r.net.total_bytes())),
    ];
    if let Some(measured) = r.net.measured_bytes() {
        fields.push(("measured_wire_bytes", Json::Int(measured)));
    }
    Json::obj(fields)
}

/// Run the whole matrix at `profile`, rendering each cell with `cell`.
fn run_matrix(profile: Profile, cell: fn(&LoadReport) -> Json) -> Json {
    let mut scenarios = Vec::new();
    for cfg in catalog(profile) {
        let ds = cfg.dataset();
        let mut cells = Vec::new();
        for combo in combos() {
            if matches!(profile, Profile::Full) && !combo.full {
                continue; // per-update O(|D|) recompute — quick only
            }
            let report = run_cell(&cfg, &ds, &combo);
            cells.push((combo.key.to_string(), cell(&report)));
        }
        scenarios.push((cfg.name.to_string(), Json::Obj(cells)));
    }
    Json::Obj(scenarios)
}

/// The quick-scale deterministic `load_quick` section (always quick,
/// regardless of report mode — the CI gate's same-scale reference).
pub fn build_load_quick() -> Json {
    run_matrix(Profile::Quick, cell_json_deterministic)
}

/// Build the whole `BENCH_10.json` document. `quick` selects the
/// scenario scale of the headline `load` section, the site counts of
/// the `speedup` curve and the stream scale of the `cfd_sweep`;
/// `load_quick` and `speedup_quick` are always quick-scale.
pub fn build_load_report(quick: bool) -> Json {
    let profile = if quick { Profile::Quick } else { Profile::Full };
    let load = run_matrix(profile, cell_json);
    let load_quick = build_load_quick();
    let speedup_quick = crate::speedup::build_speedup(true);
    let speedup = if quick {
        speedup_quick.clone()
    } else {
        crate::speedup::build_speedup(false)
    };
    Json::obj(vec![
        ("schema_version", Json::Int(1)),
        ("report", Json::Str("BENCH_10".into())),
        (
            "description",
            Json::Str(
                "Sustained-load streaming (crates/loadgen): every catalog \
                 scenario (steady_uniform, bursty_onoff, zipf_hot, \
                 churn_delete_heavy, dirty_ramp) is pushed one update at a \
                 time through incVer, incHor under md5/dict/lz codecs \
                 (lz over the framed byte transport, md5 additionally over \
                 localhost TCP sockets, so measured on-wire bytes appear), \
                 incHyb, and — at quick scale, where their per-update \
                 O(|D|) recompute is tractable — the batVer/batHor batch \
                 baselines over the framed byte transport. Records \
                 updates/sec and per-update detection latency percentiles \
                 from a log-bucketed integer histogram. Floats (latency, \
                 throughput, wall seconds) are machine-dependent and never \
                 gated; `load_quick` holds the quick-scale deterministic \
                 integers (updates, dv_marks, final_violations, modeled \
                 and measured wire bytes) the load_gen --compare gate \
                 checks. `speedup` is the concurrency curve: the \
                 thread-per-site TCP runtime vs the single-thread TCP \
                 drive at 2/4/8/16 sites on the fig9-scale stream — \
                 wall-clock floats plus deterministic message/byte/wave \
                 counts (see crates/bench/src/speedup.rs for the elapsed \
                 accounting), with `ctrl_overhead_bytes`/`ack_overhead` \
                 isolating the control-frame wire tax that the \
                 piggybacked cumulative acks (`AckN`) keep near the \
                 barrier floor; `speedup_quick` is the same curve at \
                 quick scale (2/4 sites), whose integers — threaded wire \
                 bytes and control overhead among them — the load_gen \
                 --compare gate checks. `cfd_sweep` grows `|Σ|` from 16 to 1024 \
                 overlap-heavy generated CFDs over the fig9 stream and \
                 compares per-update cost with operator-level sharing \
                 (one dispatch pass, one digest per attribute, one \
                 group-key per distinct LHS list) against the per-CFD \
                 loop. `analysis` is the static-analysis section (PR 9): \
                 `analyze` wall time vs |Σ|, minimal-cover sizes with a \
                 re-verified equivalence certificate, and the Off-vs-Prune \
                 point where AnalysisMode::Prune detects over the minimal \
                 cover of a half-redundant catalog with bit-identical ΔV \
                 and V. `suite` is the validation-suite section (PR 10): \
                 each non-CFD constraint kind (key, completeness, \
                 inclusion, aggregate) and a mixed CFD+checks catalog \
                 driven through incdetect::Suite over the same churn \
                 stream, with per-update latency floats, finding-mark \
                 deltas, the `ind` tier's inclusion probe bytes, and the \
                 completeness null-count fast path; its `quick` \
                 subsection holds the always-quick deterministic \
                 integers the load_gen --compare gate checks. \
                 `fig_quick` is carried over so the bench_report \
                 gate can target this file too"
                    .into(),
            ),
        ),
        (
            "mode",
            Json::Str(if quick { "quick" } else { "full" }.into()),
        ),
        ("load", load),
        ("load_quick", load_quick),
        ("speedup", speedup),
        ("speedup_quick", speedup_quick),
        ("cfd_sweep", crate::sweep::build_cfd_sweep(quick)),
        ("analysis", crate::analysis::build_analysis(quick)),
        ("suite", crate::suite::build_suite_bench(quick)),
        ("fig_quick", crate::report::build_fig_quick()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::compare_deterministic;

    #[test]
    fn load_quick_is_deterministic_and_complete() {
        let a = build_load_quick();
        let b = build_load_quick();
        assert!(
            compare_deterministic(&a, &b, 0.0).is_empty(),
            "same-seed load_quick must be identical"
        );
        for scenario in [
            "steady_uniform",
            "bursty_onoff",
            "zipf_hot",
            "churn_delete_heavy",
            "dirty_ramp",
        ] {
            let s = a.get(scenario).unwrap_or_else(|| panic!("{scenario}"));
            for combo in [
                "incVer",
                "incHor_md5",
                "incHor_dict",
                "incHor_lz_framed",
                "incHor_md5_tcp",
                "incHyb_md5",
                "batVer_framed",
                "batHor_framed",
            ] {
                let cell = s.get(combo).unwrap_or_else(|| panic!("{scenario}.{combo}"));
                assert!(cell.get("updates").is_some());
                assert!(cell.get("dv_marks").is_some());
                assert!(cell.get("modeled_bytes").is_some());
            }
            // The byte-transport runs must expose real wire bytes.
            for combo in ["incHor_lz_framed", "incHor_md5_tcp", "batHor_framed"] {
                assert!(
                    s.get(combo)
                        .and_then(|c| c.get("measured_wire_bytes"))
                        .is_some(),
                    "{scenario}.{combo} must meter the wire"
                );
            }
        }
    }

    #[test]
    fn strategies_agree_per_scenario() {
        // Every combo sees the same stream, so all final violation counts
        // within a scenario must coincide.
        let j = build_load_quick();
        if let Json::Obj(scenarios) = &j {
            for (name, cells) in scenarios {
                if let Json::Obj(cells) = cells {
                    let finals: Vec<u64> = cells
                        .iter()
                        .filter_map(|(_, c)| match c.get("final_violations") {
                            Some(Json::Int(n)) => Some(*n),
                            _ => None,
                        })
                        .collect();
                    assert!(!finals.is_empty());
                    assert!(
                        finals.windows(2).all(|w| w[0] == w[1]),
                        "{name}: all strategies must end on the same violations, got {finals:?}"
                    );
                }
            }
        } else {
            panic!("load_quick must be an object");
        }
    }
}
