//! End-to-end reproduction of the paper's worked examples through the
//! public facade: Fig. 1's violation table, Example 2 (incremental insert
//! and delete), Example 6 (single-eqid shipment), and Example 9
//! (horizontal zero-shipment insert) — driven through the `Detector`
//! trait surface.

use inc_cfd::prelude::*;
use std::sync::Arc;

fn build(
    schema: &Arc<Schema>,
    sigma: &[Cfd],
    strategy: Strategy,
    d0: &Relation,
) -> Box<dyn Detector> {
    let suite = Suite::on(schema.clone())
        .cfds(sigma.to_vec())
        .strategy(strategy);
    suite.build_detector(d0).unwrap()
}

fn setup() -> (Arc<Schema>, Relation, Vec<Cfd>) {
    let (schema, d0) = workload::emp::emp_relation();
    let sigma = workload::emp::emp_cfds(&schema);
    (schema, d0, sigma)
}

#[test]
fn fig1_violation_table_vertical() {
    let (schema, d0, sigma) = setup();
    let scheme = workload::emp::emp_vertical_scheme(&schema);
    let det = build(&schema, &sigma, Strategy::Vertical(scheme), &d0);
    // φ1: t1, t3, t4, t5; φ2: t1.
    let mut phi1: Vec<Tid> = det.violations().of_cfd(0).iter().copied().collect();
    phi1.sort_unstable();
    assert_eq!(phi1, vec![1, 3, 4, 5]);
    let phi2: Vec<Tid> = det.violations().of_cfd(1).iter().copied().collect();
    assert_eq!(phi2, vec![1]);
}

#[test]
fn fig1_violation_table_horizontal() {
    let (schema, d0, sigma) = setup();
    let scheme = workload::emp::emp_horizontal_scheme(&schema);
    let det = build(&schema, &sigma, Strategy::Horizontal(scheme), &d0);
    assert_eq!(det.violations().tids_sorted(), vec![1, 3, 4, 5]);
}

#[test]
fn example2_vertical_insert_t6_then_delete_t4() {
    let (schema, d0, sigma) = setup();
    let scheme = workload::emp::emp_vertical_scheme(&schema);
    let mut det = build(&schema, &sigma, Strategy::Vertical(scheme), &d0);

    // (1) Insertion of t6: ΔV = {t6}.
    let mut delta = UpdateBatch::new();
    delta.insert(workload::emp::t6());
    let dv = det.apply(&delta).unwrap();
    assert_eq!(dv.added_tids_sorted(), vec![6]);
    assert!(dv.removed_tids_sorted().is_empty());

    // (2) Deletion of t4 after the insertion: ΔV = {t4}.
    let mut delta = UpdateBatch::new();
    delta.delete(4);
    let dv = det.apply(&delta).unwrap();
    assert_eq!(dv.removed_tids_sorted(), vec![4]);
    assert!(dv.added_tids_sorted().is_empty());
    assert_eq!(det.violations().tids_sorted(), vec![1, 3, 5, 6]);
}

#[test]
fn example6_single_eqid_shipped_for_phi1() {
    // Example 6 considers φ1 alone: inserting t6 ships exactly one eqid
    // (the CC class id from S3 to S2), and so does deleting t4. The
    // paper's Fig. 3 layout chains {CC} → {CC, zip} with the IDX at S2
    // where street also lives; optVer (§5) finds exactly that placement
    // (the id-sorted default chain would anchor the IDX at S3 and ship 2).
    let (schema, d0, sigma) = setup();
    let phi1 = vec![sigma[0].clone()];
    let scheme = workload::emp::emp_vertical_scheme(&schema);
    let plan = incdetect::optimize::optimize(
        &phi1,
        &scheme,
        incdetect::optimize::OptimizeConfig::default(),
    );
    assert_eq!(plan.neqid(), 1, "optVer finds the Fig. 3 placement");
    let mut det = VerticalDetector::with_plan(schema, phi1, scheme, plan, &d0).unwrap();

    let mut delta = UpdateBatch::new();
    delta.insert(workload::emp::t6());
    let dv = det.apply(&delta).unwrap();
    assert_eq!(dv.added_tids_sorted(), vec![6]);
    assert_eq!(det.net().total_eqids(), 1, "Example 6: a single eqid");

    det.reset_stats();
    let mut delta = UpdateBatch::new();
    delta.delete(4);
    let dv = det.apply(&delta).unwrap();
    assert_eq!(dv.removed_tids_sorted(), vec![4]);
    assert_eq!(det.net().total_eqids(), 1, "Example 6: again a single eqid");
}

#[test]
fn example9_horizontal_zero_shipment() {
    let (schema, d0, sigma) = setup();
    let scheme = workload::emp::emp_horizontal_scheme(&schema);
    let mut det = build(&schema, &sigma, Strategy::Horizontal(scheme), &d0);

    let mut delta = UpdateBatch::new();
    delta.insert(workload::emp::t6());
    let dv = det.apply(&delta).unwrap();
    assert_eq!(dv.added_tids_sorted(), vec![6]);
    assert_eq!(det.net().total_bytes(), 0, "Example 2/9: no data shipped");

    let mut delta = UpdateBatch::new();
    delta.delete(4);
    let dv = det.apply(&delta).unwrap();
    assert_eq!(dv.removed_tids_sorted(), vec![4]);
    assert_eq!(det.net().total_bytes(), 0, "Example 2(2): no data shipped");
}

#[test]
fn example1_batch_needs_shipment_where_incremental_does_not() {
    // Example 1/2(a): batch detection must ship tuples with CC=44 between
    // sites; the incremental horizontal detector handled the same updates
    // for free (above).
    let (schema, mut d, sigma) = setup();
    d.insert(workload::emp::t6()).unwrap();
    let scheme = workload::emp::emp_horizontal_scheme(&schema);
    let out = incdetect::baselines::bat_hor(&sigma, &scheme, &d, TransportKind::Simulated).unwrap();
    assert!(out.meters.modeled.total_bytes() > 0);
    assert_eq!(out.violations.tids_sorted(), vec![1, 3, 4, 5, 6]);
}

#[test]
fn batch_and_incremental_agree_after_example_updates() {
    let (schema, d0, sigma) = setup();
    let vscheme = workload::emp::emp_vertical_scheme(&schema);
    let hscheme = workload::emp::emp_horizontal_scheme(&schema);
    let mut vdet = build(&schema, &sigma, Strategy::Vertical(vscheme.clone()), &d0);
    let mut hdet = build(&schema, &sigma, Strategy::Horizontal(hscheme.clone()), &d0);

    let mut delta = UpdateBatch::new();
    delta.insert(workload::emp::t6());
    delta.delete(4);
    vdet.apply(&delta).unwrap();
    hdet.apply(&delta).unwrap();

    let mut d = d0.clone();
    delta.normalize(&d0).apply(&mut d).unwrap();
    let oracle = cfd::naive::detect(&sigma, &d);
    assert_eq!(vdet.violations().marks_sorted(), oracle.marks_sorted());
    assert_eq!(hdet.violations().marks_sorted(), oracle.marks_sorted());

    let bv = incdetect::baselines::bat_ver(&sigma, &vscheme, &d, TransportKind::Simulated).unwrap();
    let bh = incdetect::baselines::bat_hor(&sigma, &hscheme, &d, TransportKind::Simulated).unwrap();
    assert_eq!(bv.violations.marks_sorted(), oracle.marks_sorted());
    assert_eq!(bh.violations.marks_sorted(), oracle.marks_sorted());
}
