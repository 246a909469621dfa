//! The unified-API contract: every partition strategy — the three
//! incremental detectors *and* the four batch baselines — over every
//! codec, transport and drive it accepts is held by the one matrix
//! (`common::matrix`) to the centralized ground-truth oracle on EMP and
//! DBLP, and every batch the caller got wrong is refused whole.

mod common;

use common::matrix::{self, Family};
use inc_cfd::cluster::ClusterError;
use inc_cfd::prelude::*;
use inc_cfd::relation::RelError;
use workload::dblp::{self, DblpConfig};
use workload::updates::{self, UpdateMix};

/// Clone an EMP tuple under a fresh tid (id is attribute 0).
fn retid(t: &Tuple, tid: Tid) -> Tuple {
    let mut vals: Vec<Value> = t.values.to_vec();
    vals[0] = Value::int(tid as i64);
    Tuple::new(tid, vals)
}

fn batch(ops: impl IntoIterator<Item = Update>) -> UpdateBatch {
    UpdateBatch::from_ops(ops.into_iter().collect())
}

/// EMP over Fig. 2's schemes (the hybrid hashes its key).
fn emp_family(name: &'static str, batches: Vec<UpdateBatch>) -> Family {
    let (schema, d0) = workload::emp::emp_relation();
    let sigma = workload::emp::emp_cfds(&schema);
    let schemes = (
        workload::emp::emp_vertical_scheme(&schema),
        workload::emp::emp_horizontal_scheme(&schema),
        HybridScheme::uniform(schema.clone(), 2, 2).expect("hybrid scheme"),
    );
    Family::new(name, sigma, d0, schemes).batches(batches)
}

/// The paper's Example 2 sequence plus a mixed batch.
fn emp(_: u64) -> Option<Family> {
    let t6 = workload::emp::t6();
    let mixed = [
        Update::Delete(2),
        Update::Insert(retid(&t6, 9)),
        Update::Delete(5),
    ];
    let batches = vec![
        batch([Update::Insert(t6)]),
        batch([Update::Delete(4)]),
        batch(mixed),
    ];
    Some(emp_family("emp", batches))
}

#[test]
fn all_strategies_track_the_oracle_on_emp() {
    let report = matrix::run(emp, 0..1, 1);
    assert_eq!((report.accepted, report.refused), (36, 42));
    // Inserting t6 marks it under φ1 beside t1, t3, t4 and t5.
    assert_eq!(report.deltas[0], (vec![(0, 6)], vec![]));
}

fn dblp_family(_: u64) -> Option<Family> {
    let cfg = DblpConfig {
        n_rows: 400,
        n_venues: 30,
        n_authors: 120,
        error_rate: 0.06,
        seed: 5,
    };
    let (schema, d0) = dblp::generate(&cfg);
    let sigma = workload::rules::dblp_rules(&schema, 12, 4);
    let schemes = (
        dblp::vertical_scheme(&schema, 4),
        dblp::horizontal_scheme(&schema, 4),
        HybridScheme::uniform(schema.clone(), 2, 2).expect("hybrid scheme"),
    );
    let mut mirror = d0.clone();
    let mut batches = Vec::new();
    for round in 0..3u64 {
        let fresh = dblp::generate_fresh(&cfg, 1_000_000 + 40 * round, 40, round + 1);
        let mix = UpdateMix {
            insert_fraction: 0.7,
        };
        let delta = updates::generate(&mirror, &fresh, 50, mix, round ^ 0x33);
        delta.normalize(&mirror).apply(&mut mirror).expect("mirror");
        batches.push(delta);
    }
    Some(Family::new("dblp_family", sigma, d0, schemes).batches(batches))
}

#[test]
fn all_strategies_track_the_oracle_on_dblp() {
    let report = matrix::run(dblp_family, 0..1, 3);
    assert_eq!((report.accepted, report.refused), (12, 42));
}

/// Deleting t5 collapses the EH4 8LE group (marks of t1, t3, t4, t5 go);
/// inserting t7 with a clashing street recreates the conflict in the
/// same batch (marks of t1, t3, t4 come back, t7 joins). The marks that
/// were removed and re-added must report as a no-op in every cell:
/// ΔV⁻ = {(φ1, t5)}, ΔV⁺ = {(φ1, t7)}.
fn emp_readd(_: u64) -> Option<Family> {
    let (schema, _) = workload::emp::emp_relation();
    let street = schema.attr_id("street").expect("street attribute");
    let mut vals: Vec<Value> = retid(&workload::emp::t6(), 7).values.to_vec();
    vals[street as usize] = Value::str("Marchmont");
    let t7 = Tuple::new(7, vals);
    let readd = batch([Update::Delete(5), Update::Insert(t7)]);
    Some(emp_family("emp_readd", vec![readd]))
}

#[test]
fn delta_v_nets_out_remove_then_readd_within_one_batch() {
    let report = matrix::run(emp_readd, 0..1, 1);
    assert_eq!(report.deltas, vec![(vec![(0, 7)], vec![(0, 5)])]);
}

/// An empty batch, and one whose ops cancel out.
fn emp_quiet(_: u64) -> Option<Family> {
    let t6 = workload::emp::t6();
    let cancelling = batch([Update::Insert(t6.clone()), Update::Delete(t6.tid)]);
    Some(emp_family(
        "emp_quiet",
        vec![UpdateBatch::new(), cancelling],
    ))
}

/// An empty batch, and one whose ops cancel out, change nothing in any
/// cell: `ΔV` is empty, `V` and `D` stay put, and nothing is sent,
/// modeled or measured — the batch baselines skip a recompute that has
/// no op to admit.
#[test]
fn an_empty_or_self_cancelling_batch_moves_nothing() {
    let report = matrix::run(emp_quiet, 0..1, 1);
    assert_eq!(report.deltas, vec![Default::default(); 2]);
    for (cell, traffic) in &report.traffic {
        assert_eq!(*traffic, [0; 4], "{cell:?}");
    }
}

/// The library's shape, stated as the matrix sees it: per strategy, the
/// cells it accepts, and how many it refuses for a transport and for a
/// codec (the matrix asserts each refusal's typed error on every family).
#[test]
fn a_codec_a_strategy_ignores_is_refused() {
    let (accepted, refused) = matrix::cells(&emp(0).expect("emp"));
    let per = |s: &str| accepted.iter().filter(|c| c.strategy == s).count();
    let strategies = ["incVer", "optVer", "incHor", "incHyb"];
    let counts = strategies
        .map(per)
        .into_iter()
        .chain(["batVer", "batHor", "ibatVer", "ibatHor"].map(per));
    assert_eq!(counts.collect::<Vec<_>>(), [1, 1, 15, 9, 3, 3, 1, 3]);
    let why = |w: &str| refused.iter().filter(|(_, r)| *r == w).count();
    assert_eq!((why("transport"), why("codec")), (18, 24));
}

/// A mixed batch: the batch baselines recompute over `|D|` and must ship
/// data where the incremental detectors often ship nothing.
fn emp_mixed(_: u64) -> Option<Family> {
    let mixed = batch([Update::Insert(workload::emp::t6()), Update::Delete(2)]);
    Some(emp_family("emp_mixed", vec![mixed]))
}

#[test]
fn net_report_is_normalized_across_strategies() {
    let report = matrix::run(emp_mixed, 0..1, 1);
    for (cell, traffic) in &report.traffic {
        if cell.strategy.starts_with("bat") || cell.strategy.starts_with("ibat") {
            assert!(traffic[1] > 0, "{cell:?} must meter its recompute");
        }
    }

    // The hybrid report exposes both tiers by name.
    let family = emp_mixed(0).expect("emp");
    let mut hybrid = Suite::on(family.schema.clone())
        .cfds(family.cfds.clone())
        .strategy(Strategy::Hybrid(family.schemes.2.clone()))
        .build_detector(&family.d0)
        .expect("incHyb");
    hybrid.apply(&family.batches[0].1).expect("apply");
    let net = hybrid.net();
    assert!(net.tier("inter").is_some());
    assert!(net.tier("intra").is_some());
}

/// A delete of a live tid, then the same delete again: the second batch
/// normalizes to a no-op.
fn emp_redelete(_: u64) -> Option<Family> {
    let delete = batch([Update::Delete(4)]);
    Some(emp_family("emp_redelete", vec![delete.clone(), delete]))
}

#[test]
fn detect_error_is_the_boundary_error() {
    // Normalization drops the second delete (tid gone): no error, and
    // the batch is a no-op in every cell.
    let report = matrix::run(emp_redelete, 0..1, 1);
    assert_eq!(report.deltas[1], Default::default());

    // A batch the caller got wrong — a tuple of the wrong arity, or one no
    // fragment takes — is refused whole, with the typed error, in every
    // cell: nothing is stored, marked or metered, and the batch's valid
    // first op applies on its own afterwards. The hybrid splits by value
    // over the grade regions here (`uniform` hashes the key and routes
    // anything), and a suite session runs every check kind around it.
    let (schema, d0) = workload::emp::emp_relation();
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
    let by_grade = |name| {
        let mut family = emp_family(name, Vec::new());
        let (v, h, _) = &family.schemes;
        let sub_sites = vec![v.clone(); h.n_sites()];
        family.schemes.2 = HybridScheme::new(h.clone(), sub_sites).expect("hybrid scheme");
        family
    };
    let mut suite = by_grade("emp_suite");
    suite.checks = vec![
        Check::key(["zip", "phn"]),
        Check::complete("city"),
        Check::inclusion(["city"], "CITIES", ["city"]),
        Check::row_count(["grade"], None, Some(4)),
    ];
    suite.refs = vec![workload::emp::city_reference(&d0, 1.0)];

    for family in [by_grade("emp_by_grade"), suite] {
        for cell in &matrix::cells(&family).0 {
            let built = matrix::build(&family, cell);
            let mut subject = built.unwrap_or_else(|e| panic!("{cell:?}: {e}"));
            let routes = ["Hor", "Hyb"].iter().any(|s| cell.strategy.contains(s));
            let observe = |s: &matrix::Subject| {
                let det = s.det();
                let v = det.violations().marks_sorted();
                (
                    v,
                    s.marks(),
                    det.current().iter().collect::<Vec<_>>(),
                    format!("{:?}", s.net()),
                )
            };
            for (i, (case, bad, needs_routing)) in cases.iter().enumerate() {
                if *needs_routing && !routes {
                    continue;
                }
                let at = format!("{}: {cell:?}, {case}", family.name);
                let first = row(70 + 2 * i as Tid, "A");
                let before = observe(&subject);
                let wrong = batch([Update::Insert(first.clone()), Update::Insert(bad.clone())]);
                match (subject.apply(0, &family.refs, &wrong), needs_routing) {
                    (
                        Err(DetectError::Rel(RelError::ArityMismatch { expected: 12, .. })),
                        false,
                    ) => {}
                    (Err(DetectError::Cluster(ClusterError::Routing(_))), true) => {}
                    (other, _) => panic!("{at}: expected the typed error, got {other:?}"),
                }
                assert_eq!(observe(&subject), before, "{at}: state moved");

                let alone = batch([Update::Insert(first.clone())]);
                let applied = subject.apply(0, &family.refs, &alone);
                applied.unwrap_or_else(|e| panic!("{at}: the valid op alone: {e}"));
                let det = subject.det();
                assert_eq!(det.current().get(first.tid), Some(first), "{at}");
                let oracle = cfd::naive::detect(det.cfds(), det.current());
                let v = det.violations().marks_sorted();
                assert_eq!(v, oracle.marks_sorted(), "{at}: diverged from the oracle");
            }
        }
    }
}
