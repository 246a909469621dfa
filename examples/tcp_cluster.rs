//! Four-site incremental CFD detection over **real localhost TCP
//! sockets**: every §6 protocol message is serialized to a
//! length-prefixed byte frame and shipped through a
//! `TcpListener`/`TcpStream` mesh (one connection per ordered site pair,
//! each site's inbound links serviced by dedicated reader threads) —
//! the receiving site reconstructs probes, queries and replies from the
//! received bytes alone, per-link dictionary deltas included.
//!
//! The run prints the paper's modeled `|M|` next to the bytes that
//! actually crossed the sockets, per codec:
//!
//! ```sh
//! cargo run --release --example tcp_cluster [-- <rows> <batches>]
//! ```

use inc_cfd::prelude::*;
use workload::dblp::{self, DblpConfig};
use workload::updates::{self, UpdateMix};

fn run(codec: CodecKind, rows: usize, batches: usize) -> (NetReport, TransportMeter, usize) {
    let cfg = DblpConfig {
        n_rows: rows,
        n_venues: (rows / 25).max(20),
        n_authors: (rows / 3).max(100),
        error_rate: 0.03,
        seed: 7,
    };
    let (schema, mut d) = dblp::generate(&cfg);
    let cfds = workload::rules::dblp_rules(&schema, 12, 3);
    let scheme = dblp::horizontal_scheme(&schema, 4);
    let mut det = HorizontalDetector::new(schema, cfds, scheme, &d, codec, TransportKind::Tcp)
        .expect("TCP mesh binds on 127.0.0.1 ephemeral ports");

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
        let dv = det.apply(&delta).expect("apply over sockets");
        total_dv += dv.len();
        delta.normalize(&d).apply(&mut d).expect("mirror applies");
    }
    let oracle = cfd::naive::detect(det.cfds(), det.current());
    assert_eq!(
        det.violations().marks_sorted(),
        oracle.marks_sorted(),
        "socket run must match the centralized oracle"
    );
    let meter = det.transport_meter().expect("TCP sessions meter the wire");
    (det.net(), meter, total_dv)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let rows: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(5_000);
    let batches: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(10);

    println!(
        "4-site detection over localhost TCP: {batches} batches of 100 updates \
         over {rows} base tuples\n(each site's inbound sockets are serviced by \
         dedicated reader threads)\n"
    );
    println!(
        "{:<12} {:>12} {:>13} {:>8} {:>11} {:>8}",
        "codec", "modeled |M|", "wire bytes", "frames", "overhead", "|ΔV|"
    );
    for codec in [
        CodecKind::RawValues,
        CodecKind::Md5,
        CodecKind::Dict,
        CodecKind::Lz,
    ] {
        let (net, meter, total_dv) = run(codec, rows, batches);
        println!(
            "{:<12} {:>12} {:>13} {:>8} {:>11} {:>8}",
            net.codec().expect("labeled"),
            net.total_bytes(),
            meter.wire_bytes,
            meter.frames,
            format!("+{} -{}", meter.structural_bytes, meter.saved_bytes),
            total_dv,
        );
    }
    println!(
        "\nwire bytes = modeled |M| + structural framing (headers, tags, counts) \
         − LZ savings;\nthe `lz` codec ships raw values and compresses each frame \
         (cluster::lz, in-tree LZ77)."
    );
}
