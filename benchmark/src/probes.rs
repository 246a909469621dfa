//! Per-layer probes of the traced run.
//!
//! Each probe times calls into one layer's **public** functions from
//! outside, over the same materialised ops the detector just processed,
//! and is wrapped in a `probe.<layer>` span. A layer's `share` is
//!
//! ```text
//! probe ns per op × calls per op ÷ mean ns of one traced `apply` op
//! ```
//!
//! — an estimate of the layer's cost in isolation (warm caches, no
//! interleaving with the other layers), not a measurement inside the
//! detector. Whatever the probes do not account for lands in
//! `core.detector.residual_share`.

use crate::run::{self, Metric};
use crate::stats::percentile_sorted;
use crate::trace::Tracer;
use crate::workloads::{Engine, Inputs, Spec, Target};
use inc_cfd::cfd::{Cfd, CfdId, DeltaV, MatchScratch, SharedPlan, Violations};
use inc_cfd::cluster::codec::{ReceiverCodec, WireValue};
use inc_cfd::cluster::md5::digest_values_into;
use inc_cfd::cluster::net::{ByteNetwork, TransportKind};
use inc_cfd::cluster::NetReport;
use inc_cfd::incdetect::hev::{BaseHev, EqId, NonBaseHev};
use inc_cfd::incdetect::horizontal::HorMsg;
use inc_cfd::incdetect::idx::Idx;
use inc_cfd::relation::{AttrId, Sym, Tid, Tuple, Update, Value, ValuePool};
use std::hint::black_box;
use std::time::Instant;

/// Name, unit and direction of every per-layer metric, in print order.
pub const PER_LAYER: [(&str, &str, &str); 58] = [
    ("run.updates_per_s", "1/s", "higher"),
    ("run.apply_p50_us", "us", "lower"),
    ("run.apply_p99_us", "us", "lower"),
    ("run.cpu_us_per_update", "us", "lower"),
    ("loadgen.dataset_s", "s", "lower"),
    ("loadgen.stream_s", "s", "lower"),
    ("loadgen.ops", "count", "higher"),
    ("loadgen.inserts", "count", "higher"),
    ("loadgen.deletes", "count", "higher"),
    ("relation.apply_ns_per_op", "ns", "lower"),
    ("relation.pool_syms_final", "count", "lower"),
    ("relation.share", "ratio", "lower"),
    ("cfd.share.compile_ms", "ms", "lower"),
    ("cfd.share.matched_ns_per_op", "ns", "lower"),
    ("cfd.share.matches_per_op", "count", "lower"),
    ("cfd.share.key_groups", "count", "lower"),
    ("cfd.share.share", "ratio", "lower"),
    ("cluster.md5.digest_ns_per_op", "ns", "lower"),
    ("cluster.md5.digests_per_op", "count", "lower"),
    ("cluster.md5.share", "ratio", "lower"),
    ("core.hev.acquire_release_ns_per_op", "ns", "lower"),
    ("core.idx.insert_remove_ns_per_op", "ns", "lower"),
    ("core.hev.share", "ratio", "lower"),
    ("cluster.codec.encode_ns_per_value", "ns", "lower"),
    ("cluster.codec.decode_ns_per_value", "ns", "lower"),
    ("cluster.codec.wire_bytes_per_value", "B", "lower"),
    ("cluster.codec.resident_syms", "count", "lower"),
    ("cluster.codec.share", "ratio", "lower"),
    ("cluster.net.frame.roundtrip_ns_per_msg", "ns", "lower"),
    ("cluster.net.frame.bytes_per_msg", "B", "lower"),
    ("cluster.net.frame.overhead_bytes_per_msg", "B", "lower"),
    ("cluster.net.frame.share", "ratio", "lower"),
    ("cluster.net.tcp.roundtrip_p50_ns", "ns", "lower"),
    ("cluster.net.tcp.roundtrip_p99_ns", "ns", "lower"),
    ("cluster.net.tcp.mesh_setup_ms", "ms", "lower"),
    ("cluster.net.tcp.share", "ratio", "lower"),
    ("cluster.netstats.messages_per_update", "count", "lower"),
    ("cluster.netstats.modeled_bytes_per_update", "B", "lower"),
    ("cluster.netstats.measured_over_modeled", "ratio", "lower"),
    ("cfd.violation.commit_ns_per_mark", "ns", "lower"),
    ("cfd.violation.marks_per_update", "count", "lower"),
    ("cfd.violation.final_marks", "count", "lower"),
    ("cfd.violation.share", "ratio", "lower"),
    ("core.detector.apply_ns_mean", "ns", "lower"),
    ("core.detector.insert_ns_mean", "ns", "lower"),
    ("core.detector.delete_ns_mean", "ns", "lower"),
    ("core.detector.residual_share", "ratio", "lower"),
    ("core.concurrent.waves", "count", "lower"),
    ("core.concurrent.ops_per_wave", "count", "higher"),
    ("core.concurrent.ctrl_overhead_bytes", "B", "lower"),
    ("core.concurrent.seq_updates_per_s", "1/s", "higher"),
    ("core.concurrent.thr_over_seq_wall", "ratio", "lower"),
    ("core.suite.findings_added", "count", "higher"),
    ("core.suite.findings_removed", "count", "higher"),
    ("core.suite.ind_probe_bytes", "B", "lower"),
    ("core.suite.over_detector", "ratio", "lower"),
    ("cfd.naive.detect_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
];

/// Every detector keeps the logical mirror plus the fragments, so one op
/// writes each row twice.
const RELATION_WRITES_PER_OP: f64 = 2.0;
/// Round trips timed by the framing and socket probes.
const NET_PROBE_ROUNDTRIPS: usize = 5_000;

/// The `ΔV` of every traced `apply` call, flattened so that recording it
/// allocates nothing per call.
#[derive(Default)]
pub struct DeltaLog {
    added: Vec<(CfdId, Tid)>,
    removed: Vec<(CfdId, Tid)>,
    /// Lengths of `added` / `removed` after each call.
    cuts: Vec<(usize, usize)>,
}

impl DeltaLog {
    pub fn push(&mut self, dv: &DeltaV) {
        self.added.extend_from_slice(&dv.added);
        self.removed.extend_from_slice(&dv.removed);
        self.cuts.push((self.added.len(), self.removed.len()));
    }

    fn marks(&self) -> usize {
        self.added.len() + self.removed.len()
    }
}

/// What the traced round hands the probes.
pub struct Traced<'a> {
    pub spec: &'a Spec,
    pub inputs: &'a Inputs,
    /// `Σ` as the traced detector holds it (a suite adds compiled rules).
    pub cfds: Vec<Cfd>,
    /// `V(Σ, D₀)` before the drive.
    pub initial_marks: Vec<(CfdId, Tid)>,
    pub deltas: DeltaLog,
    /// Traffic of the traced drive.
    pub net: NetReport,
    /// Mean traced `apply` time per op, ns.
    pub apply_ns_per_op: f64,
}

/// Collects metrics and sums the layer shares.
#[derive(Default)]
pub struct Layers {
    pub metrics: Vec<Metric>,
    shares: f64,
    /// Probe self-checks that failed.
    pub failed: u64,
}

impl Layers {
    pub fn put(&mut self, name: &str, value: f64) {
        let unit = PER_LAYER
            .iter()
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("undeclared per-layer metric {name}"))
            .1;
        self.metrics.push(Metric::single(name, unit, value));
    }

    fn put_share(&mut self, name: &str, share: f64) {
        self.shares += share;
        self.put(name, share);
    }

    pub fn residual(&self) -> f64 {
        1.0 - self.shares
    }

    /// Every declared metric the probes did not report reads 0: the layer
    /// is not on this workload's path.
    pub fn fill_missing(&mut self) {
        for (name, ..) in PER_LAYER {
            if !self.metrics.iter().any(|m| m.name == name) {
                self.put(name, 0.0);
            }
        }
        let order = |m: &Metric| PER_LAYER.iter().position(|p| p.0 == m.name);
        self.metrics.sort_by_key(order);
    }
}

fn per(total_ns: u128, n: usize) -> f64 {
    total_ns as f64 / n.max(1) as f64
}

/// The tuple each op touches: the inserted tuple, or the pre-image of the
/// deleted one (replayed over a copy of `D₀`).
fn op_tuples(inputs: &Inputs) -> Vec<Tuple> {
    let mut rel = inputs.ds.base.clone();
    let mut out = Vec::with_capacity(inputs.ops as usize);
    for op in inputs.all_ops() {
        match op {
            Update::Insert(t) => {
                rel.insert(t.clone()).expect("stream is sequentially valid");
                out.push(t.clone());
            }
            Update::Delete(tid) => {
                out.push(rel.get(*tid).expect("stream is sequentially valid"));
                rel.delete_quiet(*tid)
                    .expect("stream is sequentially valid");
            }
        }
    }
    out
}

/// `relation`: intern + column writes of every op on a copy of `D₀`.
fn relation(tr: &mut Tracer, cx: &Traced<'_>, out: &mut Layers) {
    tr.span("probe.relation", |_| {
        let mut rel = cx.inputs.ds.base.clone();
        let t0 = Instant::now();
        for op in cx.inputs.all_ops() {
            match op {
                Update::Insert(t) => rel.insert(t.clone()).expect("valid stream"),
                Update::Delete(tid) => rel.delete_quiet(*tid).expect("valid stream"),
            }
        }
        let ns = per(t0.elapsed().as_nanos(), cx.inputs.ops as usize);
        out.put("relation.apply_ns_per_op", ns);
        out.put("relation.pool_syms_final", rel.pool().len() as f64);
        out.put_share(
            "relation.share",
            ns * RELATION_WRITES_PER_OP / cx.apply_ns_per_op,
        );
    });
}

/// `cfd::share`: plan compilation and the per-op dispatch pass. Returns
/// the plan and the number of rules matched per op.
fn shared_plan(
    tr: &mut Tracer,
    cx: &Traced<'_>,
    tuples: &[Tuple],
    out: &mut Layers,
) -> (SharedPlan, f64) {
    tr.span("probe.cfd.share", |_| {
        let t0 = Instant::now();
        let plan = SharedPlan::new(&cx.cfds);
        out.put("cfd.share.compile_ms", t0.elapsed().as_secs_f64() * 1e3);
        let mut scratch = MatchScratch::default();
        let mut matches = 0usize;
        let t0 = Instant::now();
        for t in tuples {
            matches += black_box(plan.matched(t, &mut scratch)).len();
        }
        let ns = per(t0.elapsed().as_nanos(), tuples.len());
        let matches_per_op = matches as f64 / tuples.len() as f64;
        out.put("cfd.share.matched_ns_per_op", ns);
        out.put("cfd.share.matches_per_op", matches_per_op);
        out.put("cfd.share.key_groups", plan.key_groups().len() as f64);
        out.put_share("cfd.share.share", ns / cx.apply_ns_per_op);
        (plan, matches_per_op)
    })
}

/// `cluster::md5`: one group-key digest per (op, key group with a
/// matching variable rule).
fn md5(tr: &mut Tracer, cx: &Traced<'_>, plan: &SharedPlan, tuples: &[Tuple], out: &mut Layers) {
    tr.span("probe.cluster.md5", |_| {
        let mut scratch = MatchScratch::default();
        let mut keys: Vec<Vec<Value>> = Vec::new();
        let mut seen = vec![usize::MAX; plan.key_groups().len()];
        for (i, t) in tuples.iter().enumerate() {
            for &c in plan.matched(t, &mut scratch) {
                if let Some(g) = plan.group_of(c) {
                    if seen[g] != i {
                        seen[g] = i;
                        keys.push(t.values_at(&plan.key_groups()[g].0));
                    }
                }
            }
        }
        let mut buf = Vec::new();
        let t0 = Instant::now();
        for key in &keys {
            black_box(digest_values_into(&mut buf, key));
        }
        let ns = per(t0.elapsed().as_nanos(), tuples.len());
        out.put("cluster.md5.digest_ns_per_op", ns);
        out.put(
            "cluster.md5.digests_per_op",
            keys.len() as f64 / tuples.len() as f64,
        );
        out.put_share("cluster.md5.share", ns / cx.apply_ns_per_op);
    });
}

/// `core::hev` / `core::idx`: what one variable rule `X → B` costs per op
/// in HEV reference counting and IDX membership, over `D₀` plus the
/// stream. `share` scales it by the rules matched per op.
fn hev_idx(
    tr: &mut Tracer,
    cx: &Traced<'_>,
    tuples: &[Tuple],
    matches_per_op: f64,
    out: &mut Layers,
) {
    let Some(rule) = cx.cfds.iter().find(|c| c.is_variable()) else {
        return;
    };
    tr.span("probe.core.hev", |_| {
        // Symbols as the detector's own pool would assign them: interned
        // once, outside the timed passes (that cost is `relation`'s).
        let mut pool = ValuePool::new();
        let mut syms = |t: &Tuple| -> (Vec<Sym>, Sym) {
            (
                rule.lhs.iter().map(|&a| pool.acquire(t.get(a))).collect(),
                pool.acquire(t.get(rule.rhs)),
            )
        };
        let base: Vec<_> = cx
            .inputs
            .ds
            .base
            .iter()
            .map(|t| (t.tid, syms(&t)))
            .collect();
        let ops: Vec<_> = cx
            .inputs
            .all_ops()
            .zip(tuples)
            .map(|(op, t)| (op.is_insert(), t.tid, syms(t)))
            .collect();

        let mut base_x: Vec<BaseHev> = rule.lhs.iter().map(|_| BaseHev::new()).collect();
        let mut base_b = BaseHev::new();
        let (mut hev_x, mut hev_xb) = (NonBaseHev::new(), NonBaseHev::new());
        let mut eq_buf: Vec<EqId> = Vec::new();
        let mut hev = |insert: bool, (x, b): &(Vec<Sym>, Sym)| -> (EqId, EqId) {
            eq_buf.clear();
            if insert {
                eq_buf.extend(base_x.iter_mut().zip(x).map(|(h, &s)| h.acquire(s)));
                let eq_x = hev_x.acquire(&eq_buf);
                (eq_x, hev_xb.acquire(&[eq_x, base_b.acquire(*b)]))
            } else {
                eq_buf.extend(base_x.iter_mut().zip(x).map(|(h, &s)| h.release(s)));
                let eq_x = hev_x.release(&eq_buf);
                (eq_x, hev_xb.release(&[eq_x, base_b.release(*b)]))
            }
        };
        let mut idx = Idx::new();
        for (tid, s) in &base {
            let (eq_x, eq_xb) = hev(true, s);
            idx.insert(eq_x, eq_xb, *tid);
        }
        let t0 = Instant::now();
        let eqs: Vec<(EqId, EqId)> = ops.iter().map(|(ins, _, s)| hev(*ins, s)).collect();
        let hev_ns = per(t0.elapsed().as_nanos(), ops.len());
        let t0 = Instant::now();
        for ((insert, tid, _), &(eq_x, eq_xb)) in ops.iter().zip(&eqs) {
            if *insert {
                idx.insert(eq_x, eq_xb, *tid);
            } else {
                black_box(idx.remove(eq_x, eq_xb, *tid));
            }
        }
        let idx_ns = per(t0.elapsed().as_nanos(), ops.len());
        out.put("core.hev.acquire_release_ns_per_op", hev_ns);
        out.put("core.idx.insert_remove_ns_per_op", idx_ns);
        out.put_share(
            "core.hev.share",
            (hev_ns + idx_ns) * matches_per_op / cx.apply_ns_per_op,
        );
    });
}

/// Attributes a `TupleProbe` carries: the union of the variable rules'
/// left-hand sides.
fn probe_attrs(cfds: &[Cfd]) -> Vec<AttrId> {
    let mut attrs: Vec<AttrId> = cfds
        .iter()
        .filter(|c| c.is_variable())
        .flat_map(|c| c.lhs.iter().copied())
        .collect();
    attrs.sort_unstable();
    attrs.dedup();
    attrs
}

/// `cluster::codec`: sender-side encode and receiver-side digest of every
/// value a probe message would carry. Returns the encoded payloads of the
/// first [`NET_PROBE_ROUNDTRIPS`] ops for the network probes.
fn codec(
    tr: &mut Tracer,
    cx: &Traced<'_>,
    tuples: &[Tuple],
    out: &mut Layers,
) -> Vec<Vec<(AttrId, WireValue)>> {
    tr.span("probe.cluster.codec", |_| {
        let attrs = probe_attrs(&cx.cfds);
        let values: Vec<&Value> = tuples
            .iter()
            .flat_map(|t| attrs.iter().map(move |&a| t.get(a)))
            .collect();
        let mut tx = cx.spec.codec.codec();
        let mut rx = ReceiverCodec::for_link(0, 1);
        let mut wire: Vec<WireValue> = Vec::with_capacity(values.len());
        let t0 = Instant::now();
        for v in &values {
            wire.push(tx.encode(0, 1, v));
        }
        let encode_ns = per(t0.elapsed().as_nanos(), values.len());
        let t0 = Instant::now();
        for w in &wire {
            black_box(rx.digest(w).expect("deltas arrive in order"));
        }
        let decode_ns = per(t0.elapsed().as_nanos(), values.len());
        let bytes: usize = wire.iter().map(WireValue::wire_size).sum();
        let bytes_per_value = bytes as f64 / values.len().max(1) as f64;
        out.put("cluster.codec.encode_ns_per_value", encode_ns);
        out.put("cluster.codec.decode_ns_per_value", decode_ns);
        out.put("cluster.codec.wire_bytes_per_value", bytes_per_value);
        out.put("cluster.codec.resident_syms", rx.resident_symbols() as f64);
        // Values shipped per update, from the modeled bytes: every shipped
        // attribute costs its 2-byte id plus the payload.
        let modeled = cx.net.tiers().first().map_or(0, |(_, s)| s.total_bytes());
        let values_per_update = modeled as f64 / cx.inputs.ops as f64 / (2.0 + bytes_per_value);
        out.put_share(
            "cluster.codec.share",
            (encode_ns + decode_ns) * values_per_update / cx.apply_ns_per_op,
        );
        wire.chunks(attrs.len().max(1))
            .take(NET_PROBE_ROUNDTRIPS)
            .map(|vals| attrs.iter().copied().zip(vals.iter().cloned()).collect())
            .collect()
    })
}

/// A blocking request/response exchange per payload over `net`: the
/// shape of the sequential drive's probe rounds. Returns each round
/// trip's ns.
fn roundtrips(net: &mut ByteNetwork<HorMsg>, payloads: &[Vec<(AttrId, WireValue)>]) -> Vec<u64> {
    let requests: Vec<HorMsg> = payloads
        .iter()
        .map(|attrs| HorMsg::TupleProbe {
            attrs: attrs.clone(),
            probes: Vec::new(),
        })
        .collect();
    requests
        .into_iter()
        .map(|request| {
            let t0 = Instant::now();
            net.send(0, 1, request).expect("probe link is up");
            black_box(net.try_drain(1).expect("probe link is up"));
            let reply = HorMsg::ProbeReply {
                conflicts: Vec::new(),
            };
            net.send(1, 0, reply).expect("probe link is up");
            black_box(net.try_drain(0).expect("probe link is up"));
            t0.elapsed().as_nanos() as u64
        })
        .collect()
}

/// `cluster::net::frame` and `cluster::net::tcp`: frame encode/decode
/// over the in-memory byte links, then the same exchange over localhost
/// TCP (loopback, not a real link). The socket's own share is what TCP
/// adds on top of framing.
fn network(
    tr: &mut Tracer,
    cx: &Traced<'_>,
    payloads: &[Vec<(AttrId, WireValue)>],
    out: &mut Layers,
) {
    if cx.spec.transport == TransportKind::Simulated || payloads.is_empty() {
        return;
    }
    let messages_per_update = cx.net.total_messages() as f64 / cx.inputs.ops as f64;
    let frame_ns_per_msg = tr.span("probe.cluster.net.frame", |_| {
        let mut net = ByteNetwork::<HorMsg>::in_memory(2);
        let trips = roundtrips(&mut net, payloads);
        let msgs = 2 * trips.len();
        let ns = per(trips.iter().map(|&t| u128::from(t)).sum(), msgs);
        let meter = net.meter();
        out.put("cluster.net.frame.roundtrip_ns_per_msg", ns);
        out.put(
            "cluster.net.frame.bytes_per_msg",
            meter.wire_bytes as f64 / msgs as f64,
        );
        out.put(
            "cluster.net.frame.overhead_bytes_per_msg",
            meter.structural_bytes as f64 / msgs as f64,
        );
        out.put_share(
            "cluster.net.frame.share",
            ns * messages_per_update / cx.apply_ns_per_op,
        );
        ns
    });
    if cx.spec.transport != TransportKind::Tcp {
        return;
    }
    tr.span("probe.cluster.net.tcp", |_| {
        let n = cx.inputs.ds.horizontal.n_sites();
        let t0 = Instant::now();
        let mut net = ByteNetwork::<HorMsg>::tcp_localhost(n).expect("localhost mesh");
        out.put(
            "cluster.net.tcp.mesh_setup_ms",
            t0.elapsed().as_secs_f64() * 1e3,
        );
        let mut trips = roundtrips(&mut net, payloads);
        let ns_per_msg = per(trips.iter().map(|&t| u128::from(t)).sum(), 2 * trips.len());
        trips.sort_unstable();
        out.put(
            "cluster.net.tcp.roundtrip_p50_ns",
            percentile_sorted(&trips, 0.5) as f64,
        );
        out.put(
            "cluster.net.tcp.roundtrip_p99_ns",
            percentile_sorted(&trips, 0.99) as f64,
        );
        out.put_share(
            "cluster.net.tcp.share",
            (ns_per_msg - frame_ns_per_msg).max(0.0) * messages_per_update / cx.apply_ns_per_op,
        );
    });
}

/// `cluster::netstats`: the paper's `|M|` per update, and how much larger
/// the bytes on the wire are.
fn netstats(cx: &Traced<'_>, out: &mut Layers) {
    let ops = cx.inputs.ops as f64;
    let modeled = cx.net.total_bytes() as f64;
    out.put(
        "cluster.netstats.messages_per_update",
        cx.net.total_messages() as f64 / ops,
    );
    out.put("cluster.netstats.modeled_bytes_per_update", modeled / ops);
    if let Some(measured) = cx.net.measured_bytes() {
        out.put(
            "cluster.netstats.measured_over_modeled",
            measured as f64 / modeled.max(1.0),
        );
    }
}

/// `cfd::violation`: settle and commit the recorded `ΔV` of every call
/// into a copy of `V`. Fails the run if the replay does not land on the
/// detector's own final mark count.
fn violation(tr: &mut Tracer, cx: &Traced<'_>, final_marks: usize, out: &mut Layers) {
    tr.span("probe.cfd.violation", |_| {
        let mut v = Violations::new(cx.cfds.len());
        for &(c, t) in &cx.initial_marks {
            v.add(c, t);
        }
        let log = &cx.deltas;
        let (mut a0, mut r0) = (0, 0);
        let t0 = Instant::now();
        for &(a1, r1) in &log.cuts {
            let mut dv = DeltaV::default();
            for &(c, t) in &log.added[a0..a1] {
                dv.add(c, t);
            }
            for &(c, t) in &log.removed[r0..r1] {
                dv.remove(c, t);
            }
            dv.settle();
            for &(c, t) in &dv.added {
                v.add(c, t);
            }
            for &(c, t) in &dv.removed {
                v.remove(c, t);
            }
            (a0, r0) = (a1, r1);
        }
        let ns_per_mark = per(t0.elapsed().as_nanos(), log.marks());
        let marks_per_update = log.marks() as f64 / cx.inputs.ops as f64;
        if v.total_marks() != final_marks {
            eprintln!(
                "check failed: replayed dV ends on {} marks, the detector on {final_marks}",
                v.total_marks()
            );
            out.failed += 1;
        }
        out.put("cfd.violation.commit_ns_per_mark", ns_per_mark);
        out.put("cfd.violation.marks_per_update", marks_per_update);
        out.put("cfd.violation.final_marks", v.total_marks() as f64);
        out.put_share(
            "cfd.violation.share",
            ns_per_mark * marks_per_update / cx.apply_ns_per_op,
        );
    });
}

/// `core::concurrent`: the wave schedule, and the same batches through
/// the single-threaded `incHor` over the same transport. Both runtimes
/// must agree on `V` and the modeled `|M|`.
fn concurrent(
    tr: &mut Tracer,
    cx: &Traced<'_>,
    target: &Target,
    plain_wall_s: f64,
    out: &mut Layers,
) {
    let Target::Thr(thr) = target else { return };
    tr.span("probe.core.concurrent", |_| {
        let waves = thr.waves() as f64;
        out.put("core.concurrent.waves", waves);
        out.put(
            "core.concurrent.ops_per_wave",
            cx.inputs.ops as f64 / waves.max(1.0),
        );
        let mut seq = cx
            .spec
            .build_sequential(cx.inputs)
            .expect("sequential detector builds");
        let drive = run::drive(cx.spec, cx.inputs, &mut seq, &mut Vec::new(), |_| {});
        let (seq_net, thr_net) = (seq.net(), target.net());
        if drive.failed > 0
            || seq.violations().marks_sorted() != target.violations().marks_sorted()
            || seq_net.total_bytes() != thr_net.total_bytes()
        {
            eprintln!("check failed: threaded and sequential drives disagree on V or |M|");
            out.failed += 1;
        }
        out.put(
            "core.concurrent.ctrl_overhead_bytes",
            thr_net.measured_bytes().unwrap_or(0) as f64
                - seq_net.measured_bytes().unwrap_or(0) as f64,
        );
        out.put(
            "core.concurrent.seq_updates_per_s",
            cx.inputs.ops as f64 / drive.wall_s,
        );
        out.put(
            "core.concurrent.thr_over_seq_wall",
            plain_wall_s / drive.wall_s,
        );
    });
}

/// `core::suite`: what the session adds on top of the bare detector it
/// wraps (same stream, same CFDs, same codec and transport).
fn suite(
    tr: &mut Tracer,
    cx: &Traced<'_>,
    findings: (u64, u64),
    plain_wall_s: f64,
    out: &mut Layers,
) {
    if cx.spec.engine != Engine::Suite {
        return;
    }
    tr.span("probe.core.suite", |_| {
        out.put("core.suite.findings_added", findings.0 as f64);
        out.put("core.suite.findings_removed", findings.1 as f64);
        out.put(
            "core.suite.ind_probe_bytes",
            cx.net.tier("ind").map_or(0, |s| s.total_bytes()) as f64,
        );
        let mut bare = cx
            .spec
            .build_sequential(cx.inputs)
            .expect("bare detector builds");
        let drive = run::drive(cx.spec, cx.inputs, &mut bare, &mut Vec::new(), |_| {});
        out.failed += drive.failed;
        out.put("core.suite.over_detector", plain_wall_s / drive.wall_s);
    });
}

/// Run every probe whose layer is on the workload's path.
pub fn all(
    tr: &mut Tracer,
    cx: &Traced<'_>,
    target: &Target,
    findings: (u64, u64),
    plain_wall_s: f64,
    out: &mut Layers,
) {
    let tuples = tr.span("probe.prepare", |_| op_tuples(cx.inputs));
    relation(tr, cx, out);
    let (plan, matches_per_op) = shared_plan(tr, cx, &tuples, out);
    if cx.spec.engine == Engine::Vertical {
        hev_idx(tr, cx, &tuples, matches_per_op, out);
    } else {
        md5(tr, cx, &plan, &tuples, out);
        let payloads = codec(tr, cx, &tuples, out);
        network(tr, cx, &payloads, out);
    }
    netstats(cx, out);
    violation(tr, cx, target.violations().total_marks(), out);
    concurrent(tr, cx, target, plain_wall_s, out);
    suite(tr, cx, findings, plain_wall_s, out);
}
