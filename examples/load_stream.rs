//! Sustained load through the loadgen subsystem: one bursty, Zipf-skewed
//! custom scenario pushed update-by-update through `incVer` and `incHor`,
//! with throughput and per-update latency percentiles from the
//! log-bucketed histogram, plus each strategy's `NetReport`.
//!
//! ```sh
//! cargo run --release --example load_stream [-- <rows> <ticks>]
//! ```

use inc_cfd::prelude::*;
use loadgen::{
    run_load, ArrivalShape, DirtyRate, KeyDist, LoadConfig, LoadReport, OpMix, Scenario,
    ScenarioCfg, WorkloadKind,
};

fn main() {
    let mut args = std::env::args().skip(1);
    let rows: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4_000);
    let ticks: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(60);

    // A custom scenario: bursts of Zipf-skewed rewrites over a TPCH base.
    let cfg = ScenarioCfg {
        name: "bursty_zipf_example",
        workload: WorkloadKind::Tpch,
        n_rows: rows,
        n_sites: 5,
        ticks,
        shape: ArrivalShape::Bursty {
            burst: 40,
            idle: 4,
            on_ticks: 3,
            off_ticks: 3,
        },
        keys: KeyDist::Zipf { theta: 1.1 },
        mix: OpMix {
            insert: 3,
            delete: 1,
            modify: 5,
            churn: 1,
        },
        dirty: DirtyRate::Fixed(0.08),
        seed: 0xEC,
    };
    let ds = cfg.dataset();
    println!(
        "scenario {}: |D0|={} tuples, {} CFDs, {} ticks of bursty Zipf load\n",
        cfg.name,
        ds.base.len(),
        ds.cfds.len(),
        ticks
    );

    let load_cfg = LoadConfig { warmup_ticks: 4 };
    let strategies = [
        Strategy::Vertical(ds.vertical.clone()),
        Strategy::Horizontal(ds.horizontal.clone()),
    ];
    let reports: Vec<LoadReport> = strategies
        .into_iter()
        .map(|strategy| {
            let suite = Suite::on(ds.schema.clone()).cfds(ds.cfds.clone());
            let mut det = suite.strategy(strategy).build_detector(&ds.base).unwrap();
            run_load(cfg.name, det.as_mut(), cfg.stream(&ds), &load_cfg).unwrap()
        })
        .collect();

    println!(
        "{:>8} {:>10} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "strategy",
        "updates",
        "upd/sec",
        "p50 µs",
        "p90 µs",
        "p99 µs",
        "p999 µs",
        "ΔV marks",
        "modeled B"
    );
    let us = |ns: u64| ns as f64 / 1_000.0;
    for r in &reports {
        println!(
            "{:>8} {:>10} {:>12.0} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10} {:>12}",
            r.strategy,
            r.updates,
            r.updates_per_sec(),
            us(r.latency.p50()),
            us(r.latency.p90()),
            us(r.latency.p99()),
            us(r.latency.p999()),
            r.dv_marks,
            r.net.total_bytes(),
        );
    }

    let agree = reports
        .windows(2)
        .all(|w: &[LoadReport]| w[0].final_violations == w[1].final_violations);
    println!(
        "\nfinal violation marks: {} ({} across strategies)",
        reports[0].final_violations,
        if agree { "identical" } else { "DIVERGED" }
    );
    for r in &reports {
        println!(
            "{}: {} messages, {} eqids shipped over the measured window",
            r.strategy,
            r.net.total_messages(),
            r.net.total_eqids()
        );
    }
    assert!(agree, "strategies must agree on the final violation set");
}
