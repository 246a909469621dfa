//! Horizontal partitions as a CDC-style stream: a DBLP-like relation hash
//! partitioned over 8 sites receives a stream of small update batches;
//! violations are maintained incrementally, and the three wire codecs of
//! `cluster::codec` — `md5` (§6's digest optimization), `raw_values` (the
//! unoptimized variant) and `dict` (symbols + one-time per-link
//! dictionary deltas) — are compared on the same stream via `NetReport`.
//!
//! ```sh
//! cargo run --release --example horizontal_stream [-- <rows> <batches>]
//! ```

use inc_cfd::prelude::*;
use workload::dblp::{self, DblpConfig};
use workload::updates::{self, UpdateMix};

struct CodecRun {
    net: NetReport,
    total_dv: usize,
}

fn run(codec: CodecKind, rows: usize, batches: usize) -> CodecRun {
    let cfg = DblpConfig {
        n_rows: rows,
        n_venues: (rows / 25).max(20),
        n_authors: (rows / 3).max(100),
        error_rate: 0.03,
        seed: 7,
    };
    let (schema, mut d) = dblp::generate(&cfg);
    let cfds = workload::rules::dblp_rules(&schema, 16, 3);
    let strategy = Strategy::Horizontal(dblp::horizontal_scheme(&schema, 8));
    let suite = Suite::on(schema).cfds(cfds).strategy(strategy).codec(codec);
    let mut det = suite.build_detector(&d).expect("detector builds");

    let mut next_tid = 1_000_000_000u64;
    let mut total_dv = 0usize;
    for round in 0..batches {
        let fresh = dblp::generate_fresh(&cfg, next_tid, 80, round as u64 + 1);
        next_tid += 80;
        let delta = updates::generate(
            &d,
            &fresh,
            100,
            UpdateMix {
                insert_fraction: 0.8,
            },
            round as u64 ^ 0x77,
        );
        let dv = det.apply(&delta).expect("apply succeeds");
        total_dv += dv.len();
        delta.normalize(&d).apply(&mut d).expect("mirror applies");
    }
    CodecRun {
        net: det.net(),
        total_dv,
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let rows: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(10_000);
    let batches: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(20);

    println!("streaming {batches} batches of 100 updates over {rows} base tuples, 8 sites\n");
    println!(
        "{:<12} {:>12} {:>9} {:>12} {:>8}",
        "codec", "|M| bytes", "messages", "sim seconds", "|ΔV|"
    );
    let model = CostModel::default();
    let mut results: Vec<CodecRun> = Vec::new();
    for codec in [CodecKind::RawValues, CodecKind::Md5, CodecKind::Dict] {
        let r = run(codec, rows, batches);
        println!(
            "{:<12} {:>12} {:>9} {:>12.4} {:>8}",
            r.net.codec().expect("horizontal reports are codec-labeled"),
            r.net.total_bytes(),
            r.net.total_messages(),
            r.net.pipelined_seconds(&model),
            r.total_dv,
        );
        results.push(r);
    }
    let (raw, md5, dict) = (&results[0], &results[1], &results[2]);
    assert_eq!(raw.total_dv, md5.total_dv, "codecs must not change results");
    assert_eq!(
        raw.total_dv, dict.total_dv,
        "codecs must not change results"
    );
    let pct = |a: u64, b: u64| 100.0 * (b.saturating_sub(a)) as f64 / b.max(1) as f64;
    println!(
        "\nvs raw_values: md5 saves {:.1}% (§6, 'Optimization using MD5'), \
         dict saves {:.1}% (symbols + one-time per-link dictionary deltas)",
        pct(md5.net.total_bytes(), raw.net.total_bytes()),
        pct(dict.net.total_bytes(), raw.net.total_bytes()),
    );
}
