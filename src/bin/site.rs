//! `site` — one OS **process** per detection site.
//!
//! Two modes share one binary:
//!
//! * **Child** (`--me I --sites N`): run site `I` of an `N`-site mesh
//!   to completion via [`incdetect::concurrent::run_site`] — build its
//!   share of `V(Σ, D₀)`, join the fixed-port localhost mesh, send the
//!   coordinator a fingerprint of what the build left it, serve §6
//!   probe/query batches, exit on the coordinator's shutdown frame. No
//!   row of `D₀` reaches a child over a link: it derives `(schema, Σ,
//!   scheme)` and the seeded base relation `D₀` from the same CLI
//!   parameters as the parent, and only the update batch arrives over
//!   TCP.
//! * **Cluster parent** (`--cluster N`): spawn sites `1..N` as child
//!   processes of this same executable, build every site's share of the
//!   seeded TPCH base relation and join the mesh as the coordinator (site
//!   0) through [`incdetect::ConcurrentHorizontal::distributed`], which
//!   holds each child's fingerprint to its own build of that site; push
//!   one fig9-style update batch through the mesh, then check the outcome
//!   against the single-thread [`HorizontalDetector`] — marks and modeled
//!   `|M|` must be bit-identical, and `D` as gathered from the children
//!   (`det.current()`; no process keeps it whole) the reference's.
//!
//! ```sh
//! cargo run --release --bin site -- --cluster 4
//! cargo run --release --bin site -- --cluster 4 --rows 4000 --cfds 50
//! ```
//!
//! The CI `concurrency-smoke` job runs both; the root
//! integration test `tests/multi_process.rs` drives the same spawn path
//! through `CARGO_BIN_EXE_site`.

use inc_cfd::prelude::*;
use incdetect::{ConcurrentHorizontal, HorizontalDetector};
use std::process::{Child, Command};
use workload::updates::{self, UpdateMix};
use workload::{rules, tpch};

/// Default base port: an uncommon range so smoke runs don't collide
/// with dev servers, and below Linux's ephemeral range (32 768–60 999),
/// out of which the kernel hands the tests' own outgoing connections
/// their source ports. Children listen on `port + me`.
const DEFAULT_PORT: u16 = 26_000;

struct Args {
    cluster: Option<usize>,
    me: Option<SiteId>,
    sites: usize,
    port: u16,
    rows: usize,
    cfds: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: site --cluster N [--port P] [--rows R] [--cfds K]\n\
         \x20      site --me I --sites N [--port P] [--rows R] [--cfds K]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        cluster: None,
        me: None,
        sites: 0,
        port: DEFAULT_PORT,
        rows: 400,
        cfds: 10,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> usize {
            it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                eprintln!("site: {name} needs a numeric argument");
                usage()
            })
        };
        match flag.as_str() {
            "--cluster" => args.cluster = Some(val("--cluster")),
            "--me" => args.me = Some(val("--me")),
            "--sites" => args.sites = val("--sites"),
            "--port" => args.port = val("--port") as u16,
            "--rows" => args.rows = val("--rows"),
            "--cfds" => args.cfds = val("--cfds"),
            _ => usage(),
        }
    }
    args
}

/// The deterministic problem instance both sides derive independently:
/// rules, partition scheme and base relation from `(rows, cfds)` at the
/// fixed seed. Only the parent materializes the update batch.
fn instance(rows: usize, n_cfds: usize) -> (std::sync::Arc<Schema>, Vec<Cfd>, tpch::TpchConfig) {
    let schema = tpch::tpch_schema();
    let cfds = rules::tpch_rules(&schema, n_cfds, 1);
    let cfg = tpch::TpchConfig {
        n_rows: rows,
        n_customers: (rows / 20).max(50),
        n_parts: (rows / 30).max(30),
        n_suppliers: (rows / 100).max(10),
        error_rate: 0.02,
        seed: 42,
    };
    (schema, cfds, cfg)
}

/// Child mode: serve one site until the coordinator shuts the mesh down.
fn run_child(args: &Args) -> Result<(), DetectError> {
    let me = args.me.expect("child mode has --me");
    let (schema, cfds, cfg) = instance(args.rows, args.cfds);
    let scheme = tpch::horizontal_scheme(&schema, args.sites);
    let (_, d) = tpch::generate(&cfg);
    incdetect::concurrent::run_site(schema, cfds, &scheme, &d, me, CodecKind::Md5, args.port)
}

/// Parent mode: spawn the children, coordinate, differential-check.
fn run_cluster(args: &Args) -> Result<(), DetectError> {
    let n = args.cluster.expect("cluster mode has --cluster");
    assert!(n >= 2, "a cluster needs at least 2 sites");
    let (schema, cfds, cfg) = instance(args.rows, args.cfds);
    let scheme = tpch::horizontal_scheme(&schema, n);
    let (_, d) = tpch::generate(&cfg);
    let fresh = tpch::generate_fresh(&cfg, 1_000_000_000, args.rows / 2, cfg.seed ^ 0xdead);
    let delta = updates::generate(
        &d,
        &fresh,
        args.rows / 2,
        UpdateMix {
            insert_fraction: 0.8,
        },
        cfg.seed ^ 0xbeef,
    );

    let exe = std::env::current_exe().expect("own executable path");
    let children: Vec<Child> = (1..n)
        .map(|me| {
            Command::new(&exe)
                .args(["--me", &me.to_string()])
                .args(["--sites", &n.to_string()])
                .args(["--port", &args.port.to_string()])
                .args(["--rows", &args.rows.to_string()])
                .args(["--cfds", &args.cfds.to_string()])
                .spawn()
                .expect("spawn site child")
        })
        .collect();

    println!(
        "[site 0] {} child processes spawned, joining the mesh …",
        n - 1
    );
    let mut det = ConcurrentHorizontal::distributed(
        schema.clone(),
        cfds.clone(),
        scheme.clone(),
        &d,
        CodecKind::Md5,
        args.port,
    )?;
    let t0 = std::time::Instant::now();
    let dv = det.apply(&delta)?;
    let wall = t0.elapsed().as_secs_f64();

    // Single-thread reference drive over the simulated substrate.
    let mut seq = HorizontalDetector::new(
        schema,
        cfds,
        scheme,
        &d,
        CodecKind::Md5,
        TransportKind::Simulated,
    )?;
    seq.apply(&delta)?;
    assert_eq!(
        det.violations().marks_sorted(),
        seq.violations().marks_sorted(),
        "multi-process and single-thread drives must agree on V"
    );
    assert_eq!(
        det.stats().to_bytes(),
        seq.stats().to_bytes(),
        "modeled |M| must be bit-identical across runtimes"
    );
    // No process keeps D whole: `current()` gathers every child's fragment.
    let (gathered, kept) = (det.current(), seq.current());
    assert!(
        gathered.len() == kept.len() && gathered.iter().eq(kept.iter()),
        "D gathered from the site processes must be the single-thread drive's"
    );

    let meter = det.transport_meter();
    println!(
        "[site 0] {n} processes · |D|={} |ΔD|={} |ΔV|={} · {} waves in {:.3}s\n\
         [site 0] modeled |M| {} B (== 1-thread drive) · wire {} B over {} frames\n\
         [site 0] differential check vs HorizontalDetector: OK",
        d.len(),
        delta.ops().len(),
        dv.len(),
        det.waves(),
        wall,
        det.stats().total_bytes(),
        meter.wire_bytes,
        meter.frames,
    );

    // Dropping the coordinator broadcasts the shutdown frame.
    drop(det);
    for (i, child) in children.into_iter().enumerate() {
        let status = child.wait_with_output().expect("child exit status");
        assert!(
            status.status.success(),
            "site {} exited with {:?}",
            i + 1,
            status.status
        );
    }
    println!("[site 0] all children exited cleanly");
    Ok(())
}

fn main() {
    let args = parse_args();
    let result = match (args.cluster, args.me) {
        (Some(_), None) => run_cluster(&args),
        (None, Some(_)) if args.sites >= 2 => run_child(&args),
        _ => usage(),
    };
    if let Err(e) = result {
        eprintln!("site: {e}");
        std::process::exit(1);
    }
}
