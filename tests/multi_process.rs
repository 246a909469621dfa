//! Differential tests for the **multi-process** runtime: real `site`
//! processes joined over localhost TCP must produce exactly the
//! violations — and exactly the modeled `|M|` — of the single-thread
//! and thread-per-site drives on the same seeded stream.
//!
//! Ports: each test uses its own fixed base port (the harness runs
//! tests in parallel within one process), below the ephemeral range so
//! no outgoing connection of the same run can be holding it.

use inc_cfd::prelude::*;
use incdetect::{ConcurrentHorizontal, HorizontalDetector};
use std::process::{Child, Command};
use workload::updates::{self, UpdateMix};
use workload::{rules, tpch};

/// Seeded TPCH instance mirroring the `site` binary's derivation.
fn instance(
    rows: usize,
    n_cfds: usize,
) -> (
    std::sync::Arc<Schema>,
    Vec<Cfd>,
    Relation,
    UpdateBatch,
    tpch::TpchConfig,
) {
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
    let (_, d) = tpch::generate(&cfg);
    let fresh = tpch::generate_fresh(&cfg, 1_000_000_000, rows / 2, cfg.seed ^ 0xdead);
    let delta = updates::generate(
        &d,
        &fresh,
        rows / 2,
        UpdateMix {
            insert_fraction: 0.8,
        },
        cfg.seed ^ 0xbeef,
    );
    (schema, cfds, d, delta, cfg)
}

/// Spawn site `me` of an `n`-site mesh as a real OS process of the `site`
/// binary.
fn spawn_child(me: usize, n: usize, port: u16, rows: usize, cfds: usize) -> Child {
    Command::new(env!("CARGO_BIN_EXE_site"))
        .args(["--me", &me.to_string()])
        .args(["--sites", &n.to_string()])
        .args(["--port", &port.to_string()])
        .args(["--rows", &rows.to_string()])
        .args(["--cfds", &cfds.to_string()])
        .spawn()
        .expect("spawn site child process")
}

/// Spawn sites `1..n` as real OS processes of the `site` binary.
fn spawn_children(n: usize, port: u16, rows: usize, cfds: usize) -> Vec<Child> {
    (1..n)
        .map(|me| spawn_child(me, n, port, rows, cfds))
        .collect()
}

fn reap(children: Vec<Child>) {
    for (i, child) in children.into_iter().enumerate() {
        let status = child.wait_with_output().expect("child exit").status;
        assert!(status.success(), "site {} exited with {status:?}", i + 1);
    }
}

/// The self-orchestrating cluster mode: one invocation spawns the whole
/// 4-site mesh and runs its built-in differential check.
#[test]
fn site_binary_cluster_mode_self_checks() {
    let out = Command::new(env!("CARGO_BIN_EXE_site"))
        .args([
            "--cluster",
            "4",
            "--port",
            "26100",
            "--rows",
            "300",
            "--cfds",
            "8",
        ])
        .output()
        .expect("run site --cluster 4");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "cluster run failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("differential check vs HorizontalDetector: OK"),
        "missing differential marker in: {stdout}"
    );
    assert!(stdout.contains("all children exited cleanly"), "{stdout}");
}

/// The same rows, tid for tid.
fn same_rows(a: &Relation, b: &Relation) -> bool {
    a.len() == b.len() && a.iter().eq(b.iter())
}

/// A batch over `d` that changes one row and no other: three rows
/// re-inserted as stored, one modified into another row's values, and a
/// fresh tid inserted and deleted again.
fn reinserts_around_a_modification(d: &Relation) -> UpdateBatch {
    let rows: Vec<Tuple> = d.iter().take(5).collect();
    let mut b = UpdateBatch::new();
    b.insert(rows[0].clone());
    b.insert(Tuple::new(rows[3].tid, rows[4].values.to_vec()));
    b.insert(rows[1].clone());
    b.insert(Tuple::new(u64::from(u32::MAX), rows[4].values.to_vec()));
    b.insert(rows[2].clone());
    b.delete(u64::from(u32::MAX));
    b
}

/// Three-way differential at 4 sites: multi-process vs thread-per-site
/// vs single-thread — identical `V` and `D` (gathered from the sites
/// after every batch), bit-identical modeled `|M|`, and the same
/// deterministic wave count across both concurrent runtimes; a second
/// batch of re-inserts of stored rows around one modification, which the
/// sites drop, changes none of it.
#[test]
fn multi_process_matches_threaded_and_sequential() {
    const N: usize = 4;
    const PORT: u16 = 26_200;
    const ROWS: usize = 300;
    const CFDS: usize = 8;
    let (schema, cfds, d, delta, _) = instance(ROWS, CFDS);
    let scheme = tpch::horizontal_scheme(&schema, N);

    let children = spawn_children(N, PORT, ROWS, CFDS);
    let mut mp = ConcurrentHorizontal::distributed(
        schema.clone(),
        cfds.clone(),
        scheme.clone(),
        &d,
        CodecKind::Md5,
        PORT,
    )
    .expect("multi-process mesh forms");
    mp.apply(&delta).expect("apply over processes");

    let mut thr = ConcurrentHorizontal::threaded(
        schema.clone(),
        cfds.clone(),
        scheme.clone(),
        &d,
        CodecKind::Md5,
        TransportKind::Framed,
    )
    .expect("threaded mesh forms");
    thr.apply(&delta).expect("apply over threads");

    let mut seq = HorizontalDetector::new(
        schema,
        cfds,
        scheme,
        &d,
        CodecKind::Md5,
        TransportKind::Simulated,
    )
    .expect("sequential builds");
    seq.apply(&delta).expect("sequential apply");

    assert_eq!(
        mp.violations().marks_sorted(),
        seq.violations().marks_sorted(),
        "processes vs single thread"
    );
    assert_eq!(
        mp.violations().marks_sorted(),
        thr.violations().marks_sorted(),
        "processes vs threads"
    );
    assert_eq!(
        mp.stats().to_bytes(),
        seq.stats().to_bytes(),
        "modeled |M| is runtime-independent"
    );
    assert_eq!(mp.waves(), thr.waves(), "wave schedule is deterministic");
    assert!(mp.transport_meter().wire_bytes > mp.stats().total_bytes());
    assert!(same_rows(mp.current(), seq.current()), "D over processes");
    assert!(same_rows(thr.current(), seq.current()), "D over threads");

    let again = reinserts_around_a_modification(seq.current());
    let dv = seq.apply(&again).expect("sequential apply");
    assert_eq!(mp.apply(&again).expect("apply over processes"), dv);
    assert_eq!(thr.apply(&again).expect("apply over threads"), dv);
    assert_eq!(
        mp.violations().marks_sorted(),
        seq.violations().marks_sorted(),
        "processes vs single thread, re-inserts"
    );
    assert_eq!(mp.stats().to_bytes(), seq.stats().to_bytes(), "re-inserts");
    assert_eq!(thr.stats().to_bytes(), seq.stats().to_bytes(), "re-inserts");
    assert_eq!(mp.waves(), thr.waves(), "re-inserts");
    assert!(same_rows(mp.current(), seq.current()), "D over processes");
    assert!(same_rows(thr.current(), seq.current()), "D over threads");

    drop(mp); // broadcasts shutdown to the children
    reap(children);
}

/// A child that derives another `D₀` — here from another `--rows` —
/// builds another share of it, and the coordinator refuses the session:
/// `distributed` returns the typed mismatch naming that site within
/// seconds, and every child is shut down and exits.
#[test]
fn a_child_with_another_d0_is_refused() {
    use std::time::{Duration, Instant};
    const N: usize = 3;
    const PORT: u16 = 26_150;
    const ROWS: usize = 300;
    const CFDS: usize = 8;
    let (schema, cfds, d, _, _) = instance(ROWS, CFDS);
    let scheme = tpch::horizontal_scheme(&schema, N);
    // Site 2 derives its base from one row more.
    let children = [
        spawn_child(1, N, PORT, ROWS, CFDS),
        spawn_child(2, N, PORT, ROWS + 1, CFDS),
    ];

    let asked = Instant::now();
    let refused = ConcurrentHorizontal::distributed(schema, cfds, scheme, &d, CodecKind::Md5, PORT);
    let err = refused.map(drop).expect_err("a site built another D₀");
    assert!(asked.elapsed() < Duration::from_secs(10), "{err}");
    assert!(
        matches!(err, DetectError::BuildMismatch { site: 2, .. }),
        "{err:?}"
    );
    assert!(err.to_string().contains("site 2"), "{err}");

    let deadline = Instant::now() + Duration::from_secs(10);
    for (i, mut child) in children.into_iter().enumerate() {
        while child.try_wait().expect("child status").is_none() {
            if Instant::now() > deadline {
                let _ = child.kill();
                panic!("site {} outlived the refused session", i + 1);
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}
