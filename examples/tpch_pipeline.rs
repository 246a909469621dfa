//! TPCH-scale pipeline: generate a wide denormalized order relation,
//! partition it vertically over 10 sites, install a 50-CFD rule set, and
//! compare incremental maintenance against batch recomputation over a
//! sequence of update batches — both sides driven through the unified
//! `Detector` trait.
//!
//! ```sh
//! cargo run --release --example tpch_pipeline [-- <rows> <batch> <rounds>]
//! ```

use inc_cfd::prelude::*;
use std::time::Instant;
use workload::tpch::{self, TpchConfig};
use workload::updates::{self, UpdateMix};

fn main() {
    let mut args = std::env::args().skip(1);
    let rows: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(20_000);
    let batch: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(1_000);
    let rounds: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(5);

    let cfg = TpchConfig {
        n_rows: rows,
        n_customers: (rows / 20).max(50),
        n_parts: (rows / 30).max(30),
        n_suppliers: (rows / 100).max(10),
        error_rate: 0.02,
        seed: 42,
    };
    println!("generating TPCH-like relation: {rows} tuples …");
    let (schema, mut d) = tpch::generate(&cfg);
    let cfds = workload::rules::tpch_rules(&schema, 50, 1);
    let scheme = tpch::vertical_scheme(&schema, 10);

    let t0 = Instant::now();
    let mut det = Suite::on(schema.clone())
        .cfds(cfds.clone())
        .strategy(Strategy::Vertical(scheme.clone()))
        .build_detector(&d)
        .expect("detector builds");
    // The baseline takes V(Σ, D₀) from the incremental detector.
    let v0 = det.violations().clone();
    let mut bat = incdetect::baselines::BatVer::with_initial(schema, cfds, scheme, &d, v0)
        .expect("baseline builds");
    println!(
        "initial V(Σ, D): {} violating tuples ({} marks), built in {:.2}s",
        det.violations().len(),
        det.violations().total_marks(),
        t0.elapsed().as_secs_f64()
    );

    let mut next_tid = 1_000_000_000u64;
    for round in 1..=rounds {
        let fresh =
            tpch::generate_fresh(&cfg, next_tid, (batch as f64 * 0.8) as usize, round as u64);
        next_tid += fresh.len() as u64;
        let delta = updates::generate(
            &d,
            &fresh,
            batch,
            UpdateMix {
                insert_fraction: 0.8,
            },
            round as u64 ^ 0xabcd,
        );

        det.reset_stats();
        bat.reset_stats();
        let t_inc = Instant::now();
        let dv = det.apply(&delta).expect("apply succeeds");
        let inc_s = t_inc.elapsed().as_secs_f64();

        // Batch recomputation over the updated database, for comparison.
        let t_bat = Instant::now();
        bat.apply(&delta).expect("batch applies");
        let bat_s = t_bat.elapsed().as_secs_f64();
        assert_eq!(
            det.violations().marks_sorted(),
            bat.violations().marks_sorted()
        );
        delta
            .normalize(&d.clone())
            .apply(&mut d)
            .expect("mirror applies");

        println!(
            "round {round}: |ΔD|={} → |ΔV|={} | {} {:.3}s / {} B shipped ({} eqids) \
             | {} {:.3}s / {} B shipped | speedup {:.0}×",
            delta.len(),
            dv.len(),
            det.strategy(),
            inc_s,
            det.net().total_bytes(),
            det.net().total_eqids(),
            bat.strategy(),
            bat_s,
            bat.net().total_bytes(),
            bat_s / inc_s.max(1e-9),
        );
    }

    println!(
        "\nfinal state: {} tuples, {} violating",
        det.current().len(),
        det.violations().len()
    );
}
