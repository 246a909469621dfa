//! The `speedup` section of the benchmark report: end-to-end scaling of
//! the truly concurrent runtime against the single-thread drive.
//!
//! For each site count the fig9-scale TPCH stream is applied as one
//! large batch to
//!
//! * the sequential [`HorizontalDetector`] driving all sites from one
//!   thread over the localhost TCP mesh — every protocol message is a
//!   synchronous request/response round trip on the critical path, and
//! * [`ConcurrentHorizontal`] — one OS thread per site over the same
//!   TCP mesh, firing each scheduler wave's probes in windows so frames
//!   queue per socket and reader threads drain them in batches; latency
//!   is paid per *wave*, not per message.
//!
//! Both drives execute the identical §6 protocol and the modeled `|M|`
//! matrices are asserted bit-identical, so the curve isolates the
//! runtime difference. The headline `speedup` compares end-to-end
//! *elapsed* numbers under the repo's EC2-like [`CostModel`] (0.5 ms
//! per-message latency, 1 Gbit/s links — the paper's §7 setting):
//!
//! * `seq_elapsed_s` — measured wall **plus the simulated roll-up**
//!   [`CostModel::serialized_seconds`]: one thread overlaps nothing, so
//!   each of its messages is a blocking round trip paying full latency.
//! * `thr_elapsed_s` — measured wall-clock of the pipelined execution
//!   (the concurrent transport really ran, so wall *replaces* the
//!   simulated roll-up) plus the residual the localhost wall cannot
//!   show: two model latencies per wave (probe window + barrier) and
//!   the busiest link's byte volume over model bandwidth.
//!
//! Raw walls are reported alongside. Note the honest caveat: the
//! reference host has two cores for up to sixteen site threads plus
//! their socket readers, so the threaded raw wall is mostly the OS
//! scheduler's doing — one unrepeated raw-wall pair says little either
//! way; the elapsed numbers are what a latency-bearing deployment
//! observes, and `detbench` (`benchmark/`) is where walls are repeated
//! and compared. Wall-clock floats are machine-dependent and emitted as
//! [`Json::Num`] (never gated); message, frame, wave and byte counts are
//! integers, gated at quick scale through the report's `speedup_quick`
//! section (the threaded wire bytes move by a few frames with ack
//! timing, far inside the gate's tolerance).

use crate::report::{fixed_tpch, Json};
use cluster::codec::CodecKind;
use cluster::net::TransportKind;
use cluster::CostModel;
use incdetect::{ConcurrentHorizontal, DetectError, Detector, HorizontalDetector};
use std::time::Instant;
use workload::tpch;

/// Site counts of the full curve (the paper's Exp-* style x-axis).
pub const FULL_SITES: &[usize] = &[2, 4, 8, 16];
/// Quick/CI site counts — enough to see the trend in seconds.
pub const QUICK_SITES: &[usize] = &[2, 4];

/// One measured point of the curve.
struct Point {
    n_sites: usize,
    seq_wall_s: f64,
    thr_wall_s: f64,
    seq_elapsed_s: f64,
    thr_elapsed_s: f64,
    /// Modeled `|M|` — identical for both drives by construction.
    modeled_bytes: u64,
    /// Protocol messages (identical for both drives).
    messages: u64,
    /// Measured on-wire bytes of the sequential drive (protocol frames).
    seq_wire_bytes: u64,
    /// Measured on-wire bytes of the threaded drive (protocol + control
    /// frames: wave barriers, piggybacked cumulative acks, op shipment,
    /// result collection).
    thr_wire_bytes: u64,
    /// Barrier rounds of the threaded drive: per batch the settle
    /// handshake and one per scheduler wave (deterministic).
    waves: u64,
    /// Final violation marks — identical for both drives.
    marks: u64,
}

impl Point {
    fn json(&self) -> Json {
        Json::obj(vec![
            ("n_sites", Json::Int(self.n_sites as u64)),
            ("seq_wall_s", Json::Num(self.seq_wall_s)),
            ("thr_wall_s", Json::Num(self.thr_wall_s)),
            ("seq_elapsed_s", Json::Num(self.seq_elapsed_s)),
            ("thr_elapsed_s", Json::Num(self.thr_elapsed_s)),
            (
                "speedup",
                Json::Num(self.seq_elapsed_s / self.thr_elapsed_s),
            ),
            ("modeled_bytes", Json::Int(self.modeled_bytes)),
            ("messages", Json::Int(self.messages)),
            ("seq_wire_bytes", Json::Int(self.seq_wire_bytes)),
            ("thr_wire_bytes", Json::Int(self.thr_wire_bytes)),
            // The concurrency tax on the wire: everything the threaded
            // drive ships beyond the sequential protocol bytes. Since the
            // cumulative-ack PR, silent protocol rounds are acknowledged
            // by piggybacked or idle-flushed cumulative counters (never
            // a demand round-trip), so this overhead sits close to the
            // barrier/shipment floor rather than growing with the probe
            // count.
            (
                "ctrl_overhead_bytes",
                Json::Int(self.thr_wire_bytes - self.seq_wire_bytes),
            ),
            (
                "ack_overhead",
                Json::Num(self.thr_wire_bytes as f64 / self.seq_wire_bytes as f64),
            ),
            ("waves", Json::Int(self.waves)),
            ("marks", Json::Int(self.marks)),
        ])
    }
}

/// Measure one site count: sequential-TCP vs threaded-TCP on the same
/// stream, asserting the drives agree on `ΔV` and modeled `|M|`.
fn run_point(
    schema: &std::sync::Arc<relation::Schema>,
    cfds: &[cfd::Cfd],
    d: &relation::Relation,
    delta: &relation::UpdateBatch,
    n_sites: usize,
) -> Result<Point, DetectError> {
    let hs = tpch::horizontal_scheme(schema, n_sites);

    let mut seq = HorizontalDetector::with_session(
        schema.clone(),
        cfds.to_vec(),
        hs.clone(),
        d,
        CodecKind::Md5,
        TransportKind::Tcp,
    )?;
    let t0 = Instant::now();
    seq.apply(delta)?;
    let seq_wall_s = t0.elapsed().as_secs_f64();

    let mut thr = ConcurrentHorizontal::threaded(
        schema.clone(),
        cfds.to_vec(),
        hs,
        d,
        CodecKind::Md5,
        TransportKind::Tcp,
    )?;
    let t0 = Instant::now();
    thr.apply(delta)?;
    let thr_wall_s = t0.elapsed().as_secs_f64();

    assert_eq!(
        seq.violations().marks_sorted(),
        thr.violations().marks_sorted(),
        "sequential and threaded drives must agree at {n_sites} sites"
    );
    assert_eq!(
        seq.stats().to_bytes(),
        thr.stats().to_bytes(),
        "modeled |M| must be bit-identical at {n_sites} sites"
    );

    let model = CostModel::default();
    let seq_wire = seq.wire_stats().expect("TCP drive meters wire bytes");
    // One thread overlaps nothing: every protocol message is a blocking
    // round trip, so the simulated roll-up is the serialized time.
    let seq_elapsed_s = seq_wall_s + model.serialized_seconds(seq_wire);
    // The concurrent transport really ran: measured wall replaces the
    // simulated roll-up. Residual model charge: two latencies per wave
    // (probe window + barrier) plus the busiest link's bytes.
    let thr_elapsed_s = thr_wall_s
        + 2.0 * thr.waves() as f64 * model.latency_s
        + model.pipelined_seconds(thr.wire_stats());

    Ok(Point {
        n_sites,
        seq_wall_s,
        thr_wall_s,
        seq_elapsed_s,
        thr_elapsed_s,
        modeled_bytes: seq.stats().total_bytes(),
        messages: seq.stats().total_messages(),
        seq_wire_bytes: seq_wire.total_bytes(),
        thr_wire_bytes: thr.wire_stats().total_bytes(),
        waves: thr.waves(),
        marks: seq.violations().marks_sorted().len() as u64,
    })
}

/// Build the `speedup` section: one point per site count.
pub fn build_speedup(quick: bool) -> Json {
    let (schema, cfds, d, delta) = fixed_tpch(quick);
    let sites = if quick { QUICK_SITES } else { FULL_SITES };
    let mut points = Vec::new();
    for &n in sites {
        let p = run_point(&schema, &cfds, &d, &delta, n).expect("speedup point runs");
        points.push((format!("sites_{n}"), p.json()));
    }
    Json::Obj(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Full-scale curve, printed for inspection. Run explicitly with
    /// `cargo test --release -p bench -- --ignored speedup_full`.
    #[test]
    #[ignore = "minutes-scale; the committed BENCH_10.json carries the curve"]
    fn speedup_full_curve() {
        println!("{}", build_speedup(false).render());
    }

    #[test]
    fn speedup_quick_runs_and_drives_agree() {
        let j = build_speedup(true);
        for n in QUICK_SITES {
            let p = j
                .get(&format!("sites_{n}"))
                .unwrap_or_else(|| panic!("sites_{n} present"));
            assert!(p.get("modeled_bytes").is_some());
            assert!(p.get("waves").is_some());
            // The elapsed accounting must favor per-wave latency over
            // per-message latency even at smoke scale. Only meaningful
            // when compute is optimized: debug walls are ~30× slower
            // and (on few cores) swamp the modeled latencies entirely.
            let (s, t) = match (p.get("seq_elapsed_s"), p.get("thr_elapsed_s")) {
                (Some(Json::Num(s)), Some(Json::Num(t))) => (*s, *t),
                _ => panic!("elapsed fields present"),
            };
            if !cfg!(debug_assertions) {
                assert!(s > t, "per-message round trips must dominate at {n} sites");
            }
            // Control frames make the threaded wire strictly heavier.
            let (sw, tw) = match (p.get("seq_wire_bytes"), p.get("thr_wire_bytes")) {
                (Some(Json::Int(s)), Some(Json::Int(t))) => (*s, *t),
                _ => panic!("wire byte fields present"),
            };
            assert!(tw > sw, "ctrl frames must show up on the wire");
            match p.get("ctrl_overhead_bytes") {
                Some(Json::Int(o)) => assert_eq!(*o, tw - sw),
                other => panic!("ctrl_overhead_bytes present, got {other:?}"),
            }
            assert!(p.get("ack_overhead").is_some());
        }
    }
}
