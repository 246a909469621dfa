//! The traced run: one untraced reference drive, one round with a span
//! per `apply` call, then the per-layer probes. End-to-end metrics are
//! never taken from here; the ratio of the two drives is the tracing
//! overhead.
//!
//! ```text
//! workload
//! ├─ generate.dataset, generate.stream
//! ├─ reference (setup.build, drive — no per-call spans)
//! ├─ round
//! │  ├─ setup.build
//! │  ├─ drive → one `apply` span per call (insert?, ops, ΔV marks)
//! │  └─ verify.oracle
//! └─ probe.<layer> …
//! ```

use crate::probes::{self, DeltaLog, Layers, Traced};
use crate::run::{self, Oracle, Outcome};
use crate::stats::percentile_sorted;
use crate::trace::Tracer;
use crate::workloads::Spec;
use std::path::Path;

#[derive(Default)]
struct KindSums {
    insert_ns: u64,
    inserts: u64,
    delete_ns: u64,
    deletes: u64,
    findings_added: u64,
    findings_removed: u64,
}

fn mean(total_ns: u64, n: u64) -> f64 {
    total_ns as f64 / n.max(1) as f64
}

/// Run the traced round and the probes of `spec`, write
/// `<out_dir>/trace-<workload>.json`, and report every per-layer metric.
pub fn traced(spec: &Spec, seed: u64, out_dir: &Path) -> std::io::Result<Outcome> {
    let mut tr = Tracer::new();
    let root = tr.enter("workload");
    let base = tr.span("generate.dataset", |_| spec.dataset(seed, 1));
    let inputs = &tr.span("generate.stream", |_| spec.stream(base));
    let oracle = Oracle::new(inputs);
    let mut failed = 0;

    // The same drive the end-to-end run times, for the overhead ratio and
    // as the untraced side of the runtime comparisons.
    let reference = tr.enter("reference");
    let mut target = tr
        .span("setup.build", |_| spec.build(inputs))
        .expect("detector builds from D0");
    let mut latencies = Vec::with_capacity(spec.calls(inputs) as usize);
    let plain = tr.span("drive", |_| {
        run::drive(spec, inputs, &mut target, &mut latencies, |_| {})
    });
    drop(target);
    tr.exit(reference);

    let round = tr.enter("round");
    let mut target = tr
        .span("setup.build", |_| spec.build(inputs))
        .expect("detector builds from D0");
    let initial_marks = target.violations().marks_sorted();
    let mut deltas = DeltaLog::default();
    let mut sums = KindSums::default();
    let drive_span = tr.enter("drive");
    let traced = run::drive(spec, inputs, &mut target, &mut Vec::new(), |call| {
        let ns = (call.end - call.start).as_nanos() as u64;
        let insert = call.op.map(|op| op.is_insert());
        match insert {
            Some(true) => {
                sums.insert_ns += ns;
                sums.inserts += 1;
            }
            Some(false) => {
                sums.delete_ns += ns;
                sums.deletes += 1;
            }
            None => {}
        }
        sums.findings_added += call.applied.findings_added;
        sums.findings_removed += call.applied.findings_removed;
        deltas.push(&call.applied.dv);
        let mut counts = vec![
            ("ops", call.ops),
            ("dv_marks", call.applied.dv.len() as u64),
        ];
        if let Some(insert) = insert {
            counts.push(("insert", u64::from(insert)));
        }
        tr.record("apply", call.start, call.end, counts);
    });
    tr.count(drive_span, "ops", inputs.ops);
    tr.count(drive_span, "dv_marks", traced.marks);
    tr.exit(drive_span);
    failed += traced.failed + plain.failed;
    failed += tr.span("verify.oracle", |_| oracle.mismatches(inputs, &target));
    tr.exit(round);

    let cx = Traced {
        spec,
        inputs,
        cfds: target.det().cfds().to_vec(),
        initial_marks,
        deltas,
        net: target.net(),
        apply_ns_per_op: traced.wall_s * 1e9 / inputs.ops as f64,
    };
    let mut layers = Layers::default();
    layers.put("loadgen.dataset_s", tr.seconds_of("generate.dataset"));
    layers.put("loadgen.stream_s", tr.seconds_of("generate.stream"));
    layers.put("loadgen.ops", inputs.ops as f64);
    layers.put("loadgen.inserts", inputs.inserts as f64);
    layers.put("loadgen.deletes", inputs.deletes as f64);
    probes::all(
        &mut tr,
        &cx,
        &target,
        (sums.findings_added, sums.findings_removed),
        plain.wall_s,
        &mut layers,
    );
    // The end-to-end timings, from the untraced reference drive.
    latencies.sort_unstable();
    let ops = inputs.ops as f64;
    layers.put("run.updates_per_s", ops / plain.wall_s);
    layers.put(
        "run.apply_p50_us",
        percentile_sorted(&latencies, 0.5) as f64 / 1e3,
    );
    layers.put(
        "run.apply_p99_us",
        percentile_sorted(&latencies, 0.99) as f64 / 1e3,
    );
    layers.put("run.cpu_us_per_update", plain.cpu_s * 1e6 / ops);
    layers.put("core.detector.apply_ns_mean", cx.apply_ns_per_op);
    layers.put(
        "core.detector.insert_ns_mean",
        mean(sums.insert_ns, sums.inserts),
    );
    layers.put(
        "core.detector.delete_ns_mean",
        mean(sums.delete_ns, sums.deletes),
    );
    layers.put("core.detector.residual_share", layers.residual());
    layers.put("cfd.naive.detect_ms", oracle.detect_s() * 1e3);
    layers.put("trace.overhead_ratio", traced.wall_s / plain.wall_s);
    layers.fill_missing();
    drop(target);
    tr.exit(root);

    std::fs::create_dir_all(out_dir)?;
    let path = out_dir.join(format!("trace-{}.json", spec.name));
    std::fs::write(&path, tr.to_json(spec.name, seed).render())?;
    println!("  {} spans written to {}", tr.spans().len(), path.display());

    let calls = spec.calls(inputs);
    Ok(Outcome {
        attempted: 2 * calls,
        failed: failed + layers.failed,
        metrics: layers.metrics,
        ungated: Vec::new(),
    })
}
