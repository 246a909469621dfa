//! The unified-API contract: every partition strategy — the three
//! incremental detectors *and* the four batch baselines — is driven
//! through one generic function over `dyn Detector` and must agree with
//! the centralized ground-truth oracle on every workload.

mod common;

use inc_cfd::cluster::ClusterError;
use inc_cfd::incdetect::optimize::OptimizeConfig;
use inc_cfd::prelude::*;
use inc_cfd::relation::RelError;
use std::sync::Arc;
use workload::dblp::{self, DblpConfig};
use workload::updates::{self, UpdateMix};

/// Clone an EMP tuple under a fresh tid (id is attribute 0).
fn retid(t: &Tuple, tid: Tid) -> Tuple {
    let mut vals: Vec<Value> = t.values.to_vec();
    vals[0] = Value::int(tid as i64);
    Tuple::new(tid, vals)
}

/// Every strategy over the same `(schema, Σ, D₀)` instance.
fn all_strategies(
    schema: &Arc<Schema>,
    cfds: &[Cfd],
    vscheme: VerticalScheme,
    hscheme: HorizontalScheme,
    yscheme: HybridScheme,
    d0: &Relation,
) -> Vec<Box<dyn Detector>> {
    let opt = OptimizeConfig::default();
    let suites = common::nine_suites(schema, cfds, &vscheme, &hscheme, &yscheme, opt);
    let build = |(name, suite): (&str, Suite)| suite.build_detector(d0).expect(name);
    suites.into_iter().map(build).collect()
}

/// The single shared driver: apply `delta`, keep a centralized mirror in
/// lockstep, and check the full trait contract after every batch —
/// violations equal the oracle, `ΔV` is exactly the settled diff of the
/// violation sets, and the mirror matches.
fn drive_and_check(det: &mut dyn Detector, mirror: &mut Relation, delta: &UpdateBatch) {
    let before = det.violations().clone();
    let dv = det.apply(delta).unwrap_or_else(|e| {
        panic!("{} failed to apply: {e}", det.strategy());
    });
    delta
        .normalize(&mirror.clone())
        .apply(mirror)
        .expect("mirror applies");

    let oracle = cfd::naive::detect(det.cfds(), mirror);
    assert_eq!(
        det.violations().marks_sorted(),
        oracle.marks_sorted(),
        "{} diverged from the oracle",
        det.strategy()
    );
    assert_eq!(
        dv,
        before.diff(det.violations()),
        "{} reported a ΔV that is not the net violation-set change",
        det.strategy()
    );
    assert_eq!(
        det.current().len(),
        mirror.len(),
        "{} mirror out of sync",
        det.strategy()
    );
}

#[test]
fn all_strategies_track_the_oracle_on_emp() {
    let (schema, d0) = workload::emp::emp_relation();
    let sigma = workload::emp::emp_cfds(&schema);
    let vscheme = workload::emp::emp_vertical_scheme(&schema);
    let hscheme = workload::emp::emp_horizontal_scheme(&schema);
    let yscheme = HybridScheme::uniform(schema.clone(), 2, 2).expect("hybrid scheme");

    // The paper's Example 2 sequence plus a mixed batch, through every
    // strategy via the one driver.
    for det in &mut all_strategies(&schema, &sigma, vscheme, hscheme, yscheme, &d0) {
        let mut mirror = d0.clone();

        let mut delta = UpdateBatch::new();
        delta.insert(workload::emp::t6());
        drive_and_check(det.as_mut(), &mut mirror, &delta);
        assert_eq!(
            det.violations().tids_sorted(),
            vec![1, 3, 4, 5, 6],
            "{} after inserting t6",
            det.strategy()
        );

        let mut delta = UpdateBatch::new();
        delta.delete(4);
        drive_and_check(det.as_mut(), &mut mirror, &delta);

        let mut delta = UpdateBatch::new();
        delta.delete(2);
        delta.insert(retid(&workload::emp::t6(), 9));
        delta.delete(5);
        drive_and_check(det.as_mut(), &mut mirror, &delta);
    }
}

#[test]
fn all_strategies_track_the_oracle_on_dblp() {
    let cfg = DblpConfig {
        n_rows: 400,
        n_venues: 30,
        n_authors: 120,
        error_rate: 0.06,
        seed: 5,
    };
    let (schema, d0) = dblp::generate(&cfg);
    let sigma = workload::rules::dblp_rules(&schema, 12, 4);
    let vscheme = dblp::vertical_scheme(&schema, 4);
    let hscheme = dblp::horizontal_scheme(&schema, 4);
    let yscheme = HybridScheme::uniform(schema.clone(), 2, 2).expect("hybrid scheme");

    for det in &mut all_strategies(&schema, &sigma, vscheme, hscheme, yscheme, &d0) {
        let mut mirror = d0.clone();
        let mut next_tid = 1_000_000u64;
        for round in 0..3u64 {
            let fresh = dblp::generate_fresh(&cfg, next_tid, 40, round + 1);
            next_tid += 40;
            let delta = updates::generate(
                &mirror,
                &fresh,
                50,
                UpdateMix {
                    insert_fraction: 0.7,
                },
                round ^ 0x33,
            );
            drive_and_check(det.as_mut(), &mut mirror, &delta);
        }
    }
}

#[test]
fn delta_v_nets_out_remove_then_readd_within_one_batch() {
    // Deleting t5 collapses the EH4 8LE group (marks of t1, t3, t4, t5 go);
    // inserting t7 with a clashing street recreates the conflict in the
    // same batch (marks of t1, t3, t4 come back, t7 joins). The marks that
    // were removed and re-added must report as a no-op: ΔV⁻ = {(φ1, t5)},
    // ΔV⁺ = {(φ1, t7)} — for every strategy.
    let (schema, d0) = workload::emp::emp_relation();
    let sigma = workload::emp::emp_cfds(&schema);
    let vscheme = workload::emp::emp_vertical_scheme(&schema);
    let hscheme = workload::emp::emp_horizontal_scheme(&schema);
    let yscheme = HybridScheme::uniform(schema.clone(), 2, 2).expect("hybrid scheme");

    let street = schema.attr_id("street").expect("street attribute");
    let mut vals: Vec<Value> = retid(&workload::emp::t6(), 7).values.to_vec();
    vals[street as usize] = Value::str("Marchmont");
    let t7 = Tuple::new(7, vals);

    let mut delta = UpdateBatch::new();
    delta.delete(5);
    delta.insert(t7);

    for det in &mut all_strategies(&schema, &sigma, vscheme, hscheme, yscheme, &d0) {
        let strategy = det.strategy();
        let dv = det.apply(&delta).expect("apply succeeds");
        assert_eq!(dv.removed, vec![(0, 5)], "{strategy}: ΔV⁻ must net out");
        assert_eq!(dv.added, vec![(0, 7)], "{strategy}: ΔV⁺ must net out");
    }
}

/// An empty batch, and one whose ops cancel out, change nothing in any
/// strategy on any transport it runs over: `ΔV` is empty and `V` and `D`
/// stay put. No strategy sends anything for them, modeled or measured:
/// the batch baselines skip a recompute that has no op to admit. The
/// eqid-shipping strategies run on the simulated network only, and a
/// suite asking them for bytes is refused with a typed error naming both.
#[test]
fn an_empty_or_self_cancelling_batch_moves_nothing() {
    let (schema, d0) = workload::emp::emp_relation();
    let sigma = workload::emp::emp_cfds(&schema);
    let vscheme = workload::emp::emp_vertical_scheme(&schema);
    let hscheme = workload::emp::emp_horizontal_scheme(&schema);
    let yscheme = HybridScheme::uniform(schema.clone(), 2, 2).expect("hybrid scheme");
    let empty = UpdateBatch::new();
    let mut cancelling = UpdateBatch::new();
    cancelling.insert(workload::emp::t6());
    cancelling.delete(workload::emp::t6().tid);
    let opt = OptimizeConfig::default();
    let suites = common::nine_suites(&schema, &sigma, &vscheme, &hscheme, &yscheme, opt);
    for transport in [
        TransportKind::Simulated,
        TransportKind::Framed,
        TransportKind::Tcp,
    ] {
        for (name, suite) in &suites {
            let built = suite.clone().transport(transport).build_detector(&d0);
            let simulated_only = ["incVer", "optVer", "ibatVer"].contains(name);
            if simulated_only && transport != TransportKind::Simulated {
                match built.map(|_| ()) {
                    Err(
                        e @ DetectError::UnsupportedTransport {
                            strategy,
                            transport: asked,
                        },
                    ) => {
                        assert_eq!((strategy, asked), (*name, transport));
                        let msg = e.to_string();
                        assert!(
                            msg.contains(name) && msg.contains(transport.name()),
                            "{msg}"
                        );
                    }
                    other => panic!("{name} over {transport:?} must be refused: {other:?}"),
                }
                continue;
            }
            let mut det = built.unwrap_or_else(|e| panic!("{name} over {transport:?}: {e}"));
            let v = det.violations().marks_sorted();
            let d: Vec<Tuple> = det.current().iter().collect();
            for (what, batch) in [("empty", &empty), ("self-cancelling", &cancelling)] {
                let at = format!("{name} over {transport:?}, {what} batch");
                det.reset_stats();
                let dv = det.apply(batch).unwrap_or_else(|e| panic!("{at}: {e}"));
                assert!(dv.is_empty(), "{at}: ΔV {dv:?}");
                assert_eq!(det.violations().marks_sorted(), v, "{at}: V moved");
                assert_eq!(det.current().iter().collect::<Vec<_>>(), d, "{at}: D moved");
                let net = det.net();
                let modeled = (net.total_messages(), net.total_bytes());
                assert_eq!(modeled, (0, 0), "{at}: modeled");
                let sent = net
                    .measured()
                    .map(|m| (m.total_messages(), m.total_bytes()));
                assert_eq!(sent.unwrap_or_default(), (0, 0), "{at}: measured");
            }
        }
    }
}

#[test]
fn net_report_is_normalized_across_strategies() {
    let (schema, d0) = workload::emp::emp_relation();
    let sigma = workload::emp::emp_cfds(&schema);
    let vscheme = workload::emp::emp_vertical_scheme(&schema);
    let hscheme = workload::emp::emp_horizontal_scheme(&schema);
    let yscheme = HybridScheme::uniform(schema.clone(), 2, 2).expect("hybrid scheme");

    let mut delta = UpdateBatch::new();
    delta.insert(workload::emp::t6());
    delta.delete(2);

    let model = CostModel::default();
    for det in &mut all_strategies(&schema, &sigma, vscheme, hscheme, yscheme, &d0) {
        det.apply(&delta).expect("apply succeeds");
        let net = det.net();
        assert!(!net.tiers().is_empty(), "{}", det.strategy());
        // Roll-ups agree with the per-tier sums for every strategy.
        let bytes: u64 = net.tiers().iter().map(|(_, s)| s.total_bytes()).sum();
        assert_eq!(net.total_bytes(), bytes, "{}", det.strategy());
        assert!(net.simulated_seconds(&model) >= 0.0);
        assert!(net.pipelined_seconds(&model) <= net.simulated_seconds(&model) + 1e-12);
        // The batch baselines recompute over |D| and must ship data where
        // the incremental detectors often ship nothing.
        if det.strategy().starts_with("bat") || det.strategy().starts_with("ibat") {
            assert!(
                net.total_bytes() > 0,
                "{} must meter its recompute",
                det.strategy()
            );
        }
        det.reset_stats();
        assert_eq!(det.net().total_bytes(), 0, "{} reset", det.strategy());
    }

    // The hybrid report exposes both tiers by name.
    let mut hybrid = Suite::on(schema.clone())
        .cfds(sigma)
        .strategy(Strategy::Hybrid(
            HybridScheme::uniform(schema, 2, 2).expect("scheme"),
        ))
        .build_detector(&d0)
        .expect("incHyb");
    hybrid.apply(&delta).expect("apply");
    let net = hybrid.net();
    assert!(net.tier("inter").is_some());
    assert!(net.tier("intra").is_some());
}

#[test]
fn detect_error_is_the_boundary_error() {
    // Deleting a missing tid surfaces as DetectError::Rel for every
    // strategy — no per-detector error type escapes the trait boundary.
    let (schema, d0) = workload::emp::emp_relation();
    let sigma = workload::emp::emp_cfds(&schema);
    let vscheme = workload::emp::emp_vertical_scheme(&schema);
    let hscheme = workload::emp::emp_horizontal_scheme(&schema);
    let yscheme = HybridScheme::uniform(schema.clone(), 2, 2).expect("hybrid scheme");

    // A delete of a live tid followed by a re-delete of the same tid in a
    // *later* batch: the second batch normalizes to empty, so force the
    // error with an apply of a raw (unnormalizable) missing insert-delete
    // pair instead: applying `delete(4)` twice across batches.
    for det in &mut all_strategies(&schema, &sigma, vscheme.clone(), hscheme, yscheme, &d0) {
        let mut delta = UpdateBatch::new();
        delta.delete(4);
        det.apply(&delta).expect("first delete succeeds");
        // Normalization drops the second delete (tid gone) — no error,
        // and the batch is a no-op.
        let dv = det.apply(&delta).expect("normalized to a no-op");
        assert!(dv.is_empty(), "{}", det.strategy());
    }

    // A batch the caller got wrong — a tuple of the wrong arity, or one no
    // fragment takes — is refused whole, with the typed error, in every
    // strategy: nothing is stored, marked or metered, and the batch's
    // valid first op applies on its own afterwards.
    let grade = schema.attr_id("grade").expect("grade attribute") as usize;
    let row = |tid: Tid, g: &str| {
        let mut vals = retid(&workload::emp::t6(), tid).values.to_vec();
        vals[grade] = Value::str(g);
        Tuple::new(tid, vals)
    };
    let too_short = Tuple::new(71, vec![Value::int(71), Value::str("A")]);
    let mut too_long = row(73, "A").values.to_vec();
    too_long.push(Value::str("one too many"));
    let cases = [
        ("too short", too_short, false),
        ("too long", Tuple::new(73, too_long), false),
        ("unroutable", row(75, "Z"), true),
    ];

    // The hybrid by value over the grade regions: `uniform` hashes the key
    // and routes anything.
    let hscheme = workload::emp::emp_horizontal_scheme(&schema);
    let sub_sites = vec![vscheme.clone(); hscheme.n_sites()];
    let yscheme = HybridScheme::new(hscheme.clone(), sub_sites).expect("hybrid scheme");
    let mut subjects: Vec<Subject> =
        all_strategies(&schema, &sigma, vscheme, hscheme.clone(), yscheme, &d0)
            .into_iter()
            .map(Subject::Det)
            .collect();
    let (codec, transport) = (CodecKind::Md5, TransportKind::Framed);
    let threaded = incdetect::ConcurrentHorizontal::threaded(
        schema.clone(),
        sigma.clone(),
        hscheme.clone(),
        &d0,
        codec,
        transport,
    );
    subjects.push(Subject::Det(Box::new(threaded.expect("incHorMt"))));
    let suite = Suite::on(schema.clone())
        .cfds(sigma)
        .checks([
            Check::key(["zip", "phn"]),
            Check::complete("city"),
            Check::inclusion(["city"], "CITIES", ["city"]),
            Check::row_count(["grade"], None, Some(4)),
        ])
        .reference(workload::emp::city_reference(&d0, 1.0))
        .strategy(Strategy::Horizontal(hscheme));
    subjects.push(Subject::Suite(Box::new(
        suite.build(&d0).expect("suite session"),
    )));

    for subject in &mut subjects {
        let name = subject.det().strategy();
        let routes = name.contains("Hor") || name.contains("Hyb");
        for (i, (case, bad, needs_routing)) in cases.iter().enumerate() {
            if *needs_routing && !routes {
                continue;
            }
            let first = row(70 + 2 * i as Tid, "A");
            let mut delta = UpdateBatch::new();
            delta.insert(first.clone());
            delta.insert(bad.clone());
            let before = subject.observe();
            match (subject.apply(&delta), needs_routing) {
                (Err(DetectError::Rel(RelError::ArityMismatch { expected: 12, .. })), false) => {}
                (Err(DetectError::Cluster(ClusterError::Routing(_))), true) => {}
                (other, _) => panic!("{name}, {case}: expected the typed error, got {other:?}"),
            }
            assert_eq!(subject.observe(), before, "{name}, {case}: state moved");

            let mut delta = UpdateBatch::new();
            delta.insert(first.clone());
            let applied = subject.apply(&delta);
            applied.unwrap_or_else(|e| panic!("{name}, {case}: the valid op alone: {e}"));
            let det = subject.det();
            assert_eq!(det.current().get(first.tid), Some(first), "{name}, {case}");
            let oracle = cfd::naive::detect(det.cfds(), det.current());
            assert_eq!(
                det.violations().marks_sorted(),
                oracle.marks_sorted(),
                "{name}, {case}: diverged from the oracle"
            );
        }
    }
}

/// What [`detect_error_is_the_boundary_error`] drives: a bare detector, or
/// a suite session around one.
enum Subject {
    Det(Box<dyn Detector>),
    Suite(Box<SuiteSession>),
}

/// Everything a refused batch must leave as it found it: `V`, the rows,
/// the traffic report and (suite) the findings.
type Observed = (
    Vec<(cfd::CfdId, Tid)>,
    Vec<Tuple>,
    String,
    Vec<(RuleId, Tid)>,
);

impl Subject {
    fn det(&self) -> &dyn Detector {
        match self {
            Subject::Det(det) => det.as_ref(),
            Subject::Suite(session) => session.detector(),
        }
    }

    fn apply(&mut self, delta: &UpdateBatch) -> Result<(), DetectError> {
        match self {
            Subject::Det(det) => det.apply(delta).map(drop),
            Subject::Suite(session) => session.apply(delta).map(drop),
        }
    }

    fn observe(&self) -> Observed {
        let (net, findings) = match self {
            Subject::Det(det) => (det.net(), Vec::new()),
            Subject::Suite(session) => (session.net(), session.finding_set().marks_sorted()),
        };
        let det = self.det();
        (
            det.violations().marks_sorted(),
            det.current().iter().collect(),
            format!("{net:?}"),
            findings,
        )
    }
}
