//! Experimental verification of the boundedness result (Theorem 5):
//! the incremental detectors' *communication* is a function of
//! `|ΔD| + |ΔV|` only, independent of `|D|` — while the batch baselines
//! grow with `|D|`.

use inc_cfd::prelude::*;
use incdetect::{baselines, StateCensus};

fn vertical(
    schema: &std::sync::Arc<Schema>,
    cfds: &[Cfd],
    scheme: &VerticalScheme,
    d: &Relation,
) -> VerticalDetector {
    VerticalDetector::new(schema.clone(), cfds.to_vec(), scheme.clone(), d).unwrap()
}
use workload::family::{cfd_family, FamilyConfig};
use workload::tpch::{self, TpchConfig};
use workload::updates::{self, UpdateMix};

fn cfg(rows: usize) -> TpchConfig {
    TpchConfig {
        n_rows: rows,
        n_customers: 100,
        n_parts: 60,
        n_suppliers: 20,
        error_rate: 0.02,
        seed: 42,
    }
}

/// The same physical ΔD applied on top of a small and a large base
/// relation must ship the same number of eqids in the vertical detector.
#[test]
fn vertical_shipment_independent_of_base_size() {
    let schema = tpch::tpch_schema();
    let cfds = workload::rules::tpch_rules(&schema, 25, 1);
    let scheme = tpch::vertical_scheme(&schema, 8);

    // Fresh tuples with tids far above either base.
    let c_small = cfg(500);
    let fresh = tpch::generate_fresh(&c_small, 1_000_000_000, 200, 99);
    let mut delta = UpdateBatch::new();
    for t in &fresh {
        delta.insert(t.clone());
    }

    let mut ships = Vec::new();
    for rows in [500usize, 4_000] {
        let (_, d) = tpch::generate(&cfg(rows));
        let mut det = vertical(&schema, &cfds, &scheme, &d);
        det.apply(&delta).unwrap();
        ships.push(det.net().total_eqids());
    }
    assert_eq!(
        ships[0], ships[1],
        "insert-only eqid shipment must not depend on |D|"
    );
}

/// Pure insertions of pattern-matching tuples ship O(1) eqids per tuple.
#[test]
fn vertical_shipment_linear_in_delta() {
    let schema = tpch::tpch_schema();
    let cfds = workload::rules::tpch_rules(&schema, 25, 1);
    let scheme = tpch::vertical_scheme(&schema, 8);
    let c = cfg(1_000);
    let (_, d) = tpch::generate(&c);

    let mut per_op = Vec::new();
    for n_ops in [100usize, 400] {
        let fresh = tpch::generate_fresh(&c, 1_000_000_000, n_ops, 99);
        let mut delta = UpdateBatch::new();
        for t in &fresh {
            delta.insert(t.clone());
        }
        let mut det = vertical(&schema, &cfds, &scheme, &d);
        det.apply(&delta).unwrap();
        per_op.push(det.net().total_eqids() as f64 / n_ops as f64);
    }
    let ratio = per_op[1] / per_op[0];
    assert!(
        (0.8..1.25).contains(&ratio),
        "per-op eqid cost must be flat in |ΔD|: {per_op:?}"
    );
}

/// Batch shipment grows with |D|; incremental does not.
#[test]
fn batch_grows_with_base_but_incremental_does_not() {
    let schema = tpch::tpch_schema();
    let cfds = workload::rules::tpch_rules(&schema, 25, 1);
    let scheme = tpch::vertical_scheme(&schema, 8);

    let mut inc_bytes = Vec::new();
    let mut bat_bytes = Vec::new();
    for rows in [500usize, 2_000] {
        let c = cfg(rows);
        let (_, d) = tpch::generate(&c);
        let fresh = tpch::generate_fresh(&c, 1_000_000_000, 80, 99);
        let delta = updates::generate(
            &d,
            &fresh,
            100,
            UpdateMix {
                insert_fraction: 0.8,
            },
            5,
        );
        let mut det = vertical(&schema, &cfds, &scheme, &d);
        det.apply(&delta).unwrap();
        inc_bytes.push(det.net().total_bytes());

        let mut d_new = d.clone();
        delta.normalize(&d).apply(&mut d_new).unwrap();
        let out = baselines::bat_ver(&cfds, &scheme, &d_new, TransportKind::Simulated).unwrap();
        bat_bytes.push(out.meters.modeled.total_bytes());
    }
    // Batch grows roughly with |D| (4× base → ~4× shipment).
    assert!(
        bat_bytes[1] as f64 > 2.5 * bat_bytes[0] as f64,
        "batch must scale with |D|: {bat_bytes:?}"
    );
    // Incremental stays within 2× despite a 4× larger base.
    assert!(
        (inc_bytes[1] as f64) < 2.0 * inc_bytes[0].max(1) as f64,
        "incremental must not scale with |D|: {inc_bytes:?}"
    );
}

/// Horizontal: insertions that find a same-RHS witness or a violating
/// group locally ship nothing; overall traffic is bounded by O(n) per op,
/// independent of |D|.
#[test]
fn horizontal_shipment_independent_of_base_size() {
    let schema = tpch::tpch_schema();
    let cfds = workload::rules::tpch_rules(&schema, 25, 1);
    let scheme = tpch::horizontal_scheme(&schema, 8);
    let c = cfg(500);
    let fresh = tpch::generate_fresh(&c, 1_000_000_000, 150, 99);
    let mut delta = UpdateBatch::new();
    for t in &fresh {
        delta.insert(t.clone());
    }

    let mut msgs = Vec::new();
    for rows in [500usize, 4_000] {
        let (_, d) = tpch::generate(&cfg(rows));
        let mut det = Suite::on(schema.clone())
            .cfds(cfds.clone())
            .strategy(Strategy::Horizontal(scheme.clone()))
            .build_detector(&d)
            .unwrap();
        det.apply(&delta).unwrap();
        msgs.push(det.net().total_messages());
    }
    // More base data means groups are better known locally: message count
    // must not *grow* with |D|.
    assert!(
        msgs[1] <= msgs[0].max(1) * 2,
        "horizontal traffic must not scale with |D|: {msgs:?}"
    );
}

/// |ΔV| participates in the bound: deleting tuples that collapse large
/// groups produces ΔV proportional to the group sizes, and the detector
/// touches exactly those marks.
#[test]
fn delta_v_reflects_group_collapse() {
    let schema = tpch::tpch_schema();
    // One FD: custkey → custname.
    let cfds = workload::rules::tpch_rules(&schema, 1, 1);
    let scheme = tpch::vertical_scheme(&schema, 4);
    let c = TpchConfig {
        n_rows: 300,
        n_customers: 10, // large groups
        error_rate: 0.3,
        ..cfg(300)
    };
    let (_, d) = tpch::generate(&c);
    let mut det = VerticalDetector::new(schema, cfds.clone(), scheme, &d).unwrap();
    let before = det.violations().len();
    assert!(before > 0);

    // Delete every corrupted tuple (those whose custname disagrees with
    // the ground truth): all remaining groups become clean.
    let name_attr = det.schema().attr_id("custname").unwrap();
    let cust_attr = det.schema().attr_id("custkey").unwrap();
    let mut delta = UpdateBatch::new();
    for t in d.iter() {
        let custkey = match t.get(cust_attr) {
            Value::Int(i) => *i,
            _ => unreachable!(),
        };
        if t.get(name_attr) != &Value::str(tpch::truth::cust_name(custkey)) {
            delta.delete(t.tid);
        }
    }
    let dv = det.apply(&delta).unwrap();
    assert!(det.violations().is_empty(), "all violations must clear");
    assert!(dv.removed.len() >= before);
}

/// A mined catalog whose rules share operators: 256 patterns over 8 LHS
/// lists, so most `(X → B)` carry several CFDs.
fn shared_operator_family(schema: &std::sync::Arc<Schema>, d: &Relation) -> Vec<Cfd> {
    let family = FamilyConfig {
        n: 256,
        overlap: 1.0 - 8.0 / 256.0,
        seed: 0xCFD,
        ..FamilyConfig::default()
    };
    cfd_family(schema, d, &family)
}

/// `state_census()` is the model, not an estimate of it: under a catalog
/// whose rules share operators, what it counts is a brute-force grouping
/// of every site's fragment by `(X-list, B)` over the tuples matching at
/// least one CFD of that operator — one group per key, however many of the
/// operator's patterns the key matches.
#[test]
fn census_is_a_grouping_by_site_and_operator() {
    use std::collections::{BTreeMap, BTreeSet};

    let schema = tpch::tpch_schema();
    let (_, d0) = tpch::generate(&cfg(2_000));
    let cfds = shared_operator_family(&schema, &d0);
    let scheme = tpch::horizontal_scheme(&schema, 4);
    let variable = || cfds.iter().filter(|c| c.is_variable());
    let operators: BTreeSet<_> = variable().map(|c| (&c.lhs, c.rhs)).collect();
    assert!(
        operators.len() * 2 < variable().count(),
        "{} operators",
        operators.len()
    );

    // (site, X, B, t[X]) → t[B] → members.
    let mut groups: BTreeMap<_, BTreeMap<&Value, usize>> = BTreeMap::new();
    for t in d0.iter() {
        let site = scheme.route(&t).unwrap();
        let matched: BTreeSet<_> = variable()
            .filter(|c| c.matches_lhs(&t))
            .map(|c| (&c.lhs, c.rhs))
            .collect();
        for (lhs, rhs) in matched {
            let class = d0.value_at(t.tid, rhs).unwrap();
            let group = groups.entry((site, lhs, rhs, t.values_at(lhs)));
            *group.or_default().entry(class).or_default() += 1;
        }
    }
    let classes = || groups.values().flat_map(BTreeMap::values);
    // A group's classes spill to a map from the second one, a class's tids
    // to a set from the fourth (`StateCensus`'s field docs).
    let model = StateCensus {
        groups: groups.len(),
        classes: classes().count(),
        memberships: classes().sum(),
        spilled_class_maps: groups.values().filter(|g| g.len() >= 2).count(),
        spilled_tid_sets: classes().filter(|&&n| n > 3).count(),
        resident_bytes: 0,
    };
    assert!(model.spilled_class_maps > 0 && model.spilled_tid_sets > 0);

    let det = HorizontalDetector::new(
        schema,
        cfds.clone(),
        scheme,
        &d0,
        CodecKind::Md5,
        TransportKind::Simulated,
    )
    .unwrap();
    let census = det.state_census();
    assert!(census.resident_bytes > 0);
    assert_eq!(
        StateCensus {
            resident_bytes: 0,
            ..census
        },
        model
    );
}

/// One catalog the returns-to-start tests churn: `D₀` (1 200 rows),
/// 3 600 fresh tuples, and both partitionings of it.
struct Churn {
    cfds: Vec<Cfd>,
    d0: Relation,
    fresh: Vec<Tuple>,
    hor: HorizontalScheme,
    ver: VerticalScheme,
}

/// TPCH's 25 rules, EMP's Fig. 1 and the shared-operator family.
fn churn_cases() -> Vec<Churn> {
    use workload::emp::{self, EmpConfig};

    let tpch_schema = tpch::tpch_schema();
    let (_, tpch_d0) = tpch::generate(&cfg(1_200));
    let emp_cfg = EmpConfig {
        n_rows: 1_200,
        ..EmpConfig::default()
    };
    let (emp_schema, emp_d0) = emp::generate(&emp_cfg);
    let tpch_case = |cfds| Churn {
        cfds,
        d0: tpch_d0.clone(),
        fresh: tpch::generate_fresh(&cfg(1_200), 1_000_000, 3_600, 7),
        hor: tpch::horizontal_scheme(&tpch_schema, 4),
        ver: tpch::vertical_scheme(&tpch_schema, 4),
    };
    vec![
        tpch_case(workload::rules::tpch_rules(&tpch_schema, 25, 1)),
        Churn {
            cfds: emp::emp_cfds(&emp_schema),
            fresh: emp::generate_fresh(&emp_cfg, 1_000_000, 3_600, 7),
            hor: emp::emp_horizontal_scheme(&emp_schema),
            ver: emp::emp_vertical_scheme(&emp_schema),
            d0: emp_d0,
        },
        tpch_case(shared_operator_family(&tpch_schema, &tpch_d0)),
    ]
}

/// Drive `det` out — grow the relation 4×, rewrite a third of the base,
/// delete half of it — handing it to `at_peak` there, and back to `D₀`:
/// everything the start did not have goes, everything it had returns with
/// its original values. `V` must then be where it started, and the
/// oracle's.
fn out_and_back<D: Detector>(det: &mut D, case: &Churn, at_peak: impl FnOnce(&D)) {
    let d0 = &case.d0;
    let start_marks = det.violations().marks_sorted();
    let rhs = case
        .cfds
        .iter()
        .find(|c| c.is_variable())
        .expect("a variable CFD")
        .rhs;
    for chunk in case.fresh.chunks(600) {
        det.apply(&UpdateBatch::from_ops(
            chunk.iter().cloned().map(Update::Insert).collect(),
        ))
        .unwrap();
    }
    let rewrite =
        updates::generate_modifications(d0, 400, 11, |t, rng| updates::corrupt_attr(t, rhs, rng));
    det.apply(&rewrite).unwrap();
    let drop = updates::generate(
        d0,
        &[],
        600,
        UpdateMix {
            insert_fraction: 0.0,
        },
        13,
    );
    det.apply(&drop).unwrap();
    at_peak(det);

    let mut back = UpdateBatch::new();
    det.current()
        .tids()
        .filter(|&tid| !d0.contains(tid))
        .for_each(|tid| back.delete(tid));
    d0.iter().for_each(|t| back.insert(t));
    for chunk in back.ops().chunks(700) {
        det.apply(&UpdateBatch::from_ops(chunk.to_vec())).unwrap();
    }

    assert!(det.current().iter().eq(d0.iter()), "the stream ends on D0");
    assert_eq!(det.violations().marks_sorted(), start_marks);
    assert_eq!(
        start_marks,
        cfd::naive::detect(&case.cfds, d0).marks_sorted(),
        "and D0's violations are the oracle's"
    );
}

/// Back at the start: the same census but for resident bytes, which are
/// within a constant factor (tables shrink under a quarter full and grow
/// at full, so 4× is the worst a stream can leave behind; held to 2×) and
/// below the peak's.
fn assert_census_returned(start: StateCensus, peak: StateCensus, end: StateCensus, what: &str) {
    let shape = |c: StateCensus| StateCensus {
        resident_bytes: 0,
        ..c
    };
    assert_eq!(shape(end), shape(start), "{what}");
    assert!(
        end.resident_bytes <= 2 * start.resident_bytes && end.resident_bytes < peak.resident_bytes,
        "{what}: start {start:?}, peak {peak:?}, end {end:?}"
    );
}

/// The §6 group state is bounded by the live data: a seeded stream
/// that quadruples the relation, rewrites and deletes base tuples, and
/// then walks back to the starting relation leaves the group state where
/// it started — the same groups, classes, memberships and spills, the
/// resident bytes within a constant factor (this one leaves 1.0–1.2×) —
/// and `V` equal to the start, whatever codec ships the values.
#[test]
fn group_state_returns_to_start_after_churn() {
    for case in &churn_cases() {
        let schema = case.d0.schema();
        for codec in [CodecKind::Md5, CodecKind::RawValues, CodecKind::Dict] {
            let mut det = HorizontalDetector::new(
                schema.clone(),
                case.cfds.clone(),
                case.hor.clone(),
                &case.d0,
                codec,
                TransportKind::Simulated,
            )
            .unwrap();
            let start = det.state_census();
            assert!(
                start.spilled_class_maps > 0 && start.spilled_tid_sets > 0,
                "{start:?}"
            );
            let mut peak = StateCensus::default();
            out_and_back(&mut det, case, |det| peak = det.state_census());
            assert!(
                peak.memberships > 2 * start.memberships,
                "{peak:?} vs {start:?}"
            );
            assert_census_returned(start, peak, det.state_census(), &format!("{codec:?}"));
        }
    }
}

/// `incVer`'s HEV and IDX state under the same churn: back on `D₀`, the
/// IDX census and `index_sizes()` (dictionary, base and non-base HEV
/// classes, IDX members) equal the start's, and the HEV and IDX tables
/// hold at most twice the start's bytes.
#[test]
fn hev_and_idx_state_return_to_start_after_churn() {
    for case in &churn_cases() {
        let schema = case.d0.schema();
        let mut det = vertical(schema, &case.cfds, &case.ver, &case.d0);
        let (start, start_sizes) = (det.state_census(), det.index_sizes());
        assert!(
            start.spilled_class_maps > 0 && start.spilled_tid_sets > 0,
            "{start:?}"
        );
        let mut peak = StateCensus::default();
        out_and_back(&mut det, case, |det| peak = det.state_census());
        assert!(
            peak.memberships > 2 * start.memberships,
            "{peak:?} vs {start:?}"
        );
        assert_eq!(det.index_sizes(), start_sizes);
        assert_census_returned(start, peak, det.state_census(), "incVer");
    }
}

/// `incVer`'s `state_census()` is a brute-force grouping too: one group
/// per variable CFD and `X`-value over the tuples matching the CFD's
/// pattern, one class per `B`-value in it — the IDX is per CFD, so a
/// catalog whose rules share operators keeps one group per pattern.
#[test]
fn vertical_census_is_a_grouping_by_cfd() {
    use std::collections::BTreeMap;

    let schema = tpch::tpch_schema();
    let (_, d0) = tpch::generate(&cfg(2_000));
    for cfds in [
        workload::rules::tpch_rules(&schema, 25, 1),
        shared_operator_family(&schema, &d0),
    ] {
        // (CFD, t[X]) → t[B] → members.
        let mut groups: BTreeMap<_, BTreeMap<&Value, usize>> = BTreeMap::new();
        for t in d0.iter() {
            for c in cfds.iter().filter(|c| c.is_variable() && c.matches_lhs(&t)) {
                let class = d0.value_at(t.tid, c.rhs).unwrap();
                let group = groups.entry((c.id, t.values_at(&c.lhs)));
                *group.or_default().entry(class).or_default() += 1;
            }
        }
        let classes = || groups.values().flat_map(BTreeMap::values);
        let model = StateCensus {
            groups: groups.len(),
            classes: classes().count(),
            memberships: classes().sum(),
            spilled_class_maps: groups.values().filter(|g| g.len() >= 2).count(),
            spilled_tid_sets: classes().filter(|&&n| n > 3).count(),
            resident_bytes: 0,
        };
        assert!(model.spilled_class_maps > 0 && model.spilled_tid_sets > 0);

        let det = vertical(&schema, &cfds, &tpch::vertical_scheme(&schema, 4), &d0);
        let census = det.state_census();
        assert!(census.resident_bytes > 0);
        assert_eq!(
            StateCensus {
                resident_bytes: 0,
                ..census
            },
            model
        );
        assert_eq!(census.memberships, det.index_sizes().3);
    }
}
