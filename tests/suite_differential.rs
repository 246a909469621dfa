//! Differential validation of the suite API: every non-CFD constraint
//! kind — keys, completeness, inclusion dependencies, aggregates — is
//! driven through every cell of the matrix (`common::matrix`) a suite
//! session accepts and must agree with a brute-force oracle recomputed
//! from scratch after **every** batch, including a stream that drives
//! every kind's transitions both ways, churn streams from `loadgen` and
//! reference-side updates.

mod common;

use common::matrix::{self, Family};
use inc_cfd::prelude::*;

// ---------------------------------------------------------------------
// Brute-force oracles (full recomputation, no increments)
// ---------------------------------------------------------------------

fn project(t: &Tuple, attrs: &[relation::AttrId]) -> Vec<Value> {
    attrs.iter().map(|&a| t.get(a).clone()).collect()
}

/// key(X): every tuple of an X-group of size ≥ 2.
fn key_oracle(d: &Relation, attrs: &[relation::AttrId]) -> Vec<Tid> {
    let mut groups: std::collections::HashMap<Vec<Value>, Vec<Tid>> = Default::default();
    for t in d.iter() {
        groups.entry(project(&t, attrs)).or_default().push(t.tid);
    }
    let mut out: Vec<Tid> = groups
        .into_values()
        .filter(|g| g.len() >= 2)
        .flatten()
        .collect();
    out.sort_unstable();
    out
}

/// complete(A): every tuple null on A.
fn complete_oracle(d: &Relation, a: relation::AttrId) -> Vec<Tid> {
    let mut out: Vec<Tid> = d
        .iter()
        .filter(|t| t.get(a).is_null())
        .map(|t| t.tid)
        .collect();
    out.sort_unstable();
    out
}

/// R[X] ⊆ S[Y]: every R-tuple whose projection is absent from π_Y(S).
fn inclusion_oracle(
    d: &Relation,
    attrs: &[relation::AttrId],
    s: &Relation,
    ref_attrs: &[relation::AttrId],
) -> Vec<Tid> {
    let image: std::collections::HashSet<Vec<Value>> =
        s.iter().map(|t| project(&t, ref_attrs)).collect();
    let mut out: Vec<Tid> = d
        .iter()
        .filter(|t| !image.contains(&project(t, attrs)))
        .map(|t| t.tid)
        .collect();
    out.sort_unstable();
    out
}

/// Aggregate bound: every tuple of a group whose aggregate escapes
/// `[lo, hi]`. Non-integer values do not contribute to sum/min/max;
/// min/max of a group without integers is undefined (never violating).
fn aggregate_oracle(
    d: &Relation,
    func: AggFunc,
    attr: Option<relation::AttrId>,
    group_by: &[relation::AttrId],
    lo: Option<i64>,
    hi: Option<i64>,
) -> Vec<Tid> {
    let mut groups: std::collections::HashMap<Vec<Value>, Vec<Tid>> = Default::default();
    let mut ints: std::collections::HashMap<Vec<Value>, Vec<i64>> = Default::default();
    for t in d.iter() {
        let k = project(&t, group_by);
        groups.entry(k.clone()).or_default().push(t.tid);
        if let Some(a) = attr {
            if let Some(x) = t.get(a).as_int() {
                ints.entry(k).or_default().push(x);
            }
        }
    }
    let mut out = Vec::new();
    for (k, tids) in groups {
        let vals = ints.remove(&k).unwrap_or_default();
        let v = match func {
            AggFunc::Count => Some(tids.len() as i64),
            AggFunc::Sum => Some(vals.iter().sum()),
            AggFunc::Min => vals.iter().min().copied(),
            AggFunc::Max => vals.iter().max().copied(),
        };
        let Some(v) = v else { continue };
        if lo.is_some_and(|l| v < l) || hi.is_some_and(|h| v > h) {
            out.extend(tids);
        }
    }
    out.sort_unstable();
    out
}

// ---------------------------------------------------------------------
// The shared fixture: EMP CFDs + one check of every kind
// ---------------------------------------------------------------------

/// One check of every kind over EMP. Rules: user CFDs take 0..n, then
/// key, complete, inclusion, count, sum, min — in this order.
fn all_checks() -> Vec<Check> {
    vec![
        Check::key(["zip", "phn"]),
        Check::complete("city"),
        Check::inclusion(["city"], "CITIES", ["city"]),
        Check::row_count(["grade"], None, Some(4)),
        Check::sum_range("AC", ["city"], Some(0), Some(600)),
        Check::min_at_least("CC", ["grade"], 1),
    ]
}

/// Expected `(rule, tid)` marks of the whole catalog, recomputed from
/// scratch against the mirrors of `D` and `CITIES`.
fn oracle(cfds: Vec<Cfd>) -> matrix::Oracle {
    Box::new(move |mirrors: &[Relation]| {
        let (d, cities) = (&mirrors[0], &mirrors[1]);
        let a = |n| d.schema().attr_id(n).expect("EMP attribute");
        let ref_city = cities.schema().attr_id("city").expect("CITIES attribute");
        let n = cfds.len() as RuleId;
        let mut marks: Vec<(RuleId, Tid)> = cfd::naive::detect(&cfds, d).marks_sorted();
        let (count, sum, min) = (AggFunc::Count, AggFunc::Sum, AggFunc::Min);
        let rules = [
            key_oracle(d, &[a("zip"), a("phn")]),
            complete_oracle(d, a("city")),
            inclusion_oracle(d, &[a("city")], cities, &[ref_city]),
            aggregate_oracle(d, count, None, &[a("grade")], None, Some(4)),
            aggregate_oracle(d, sum, Some(a("AC")), &[a("city")], Some(0), Some(600)),
            aggregate_oracle(d, min, Some(a("CC")), &[a("grade")], Some(1), None),
        ];
        for (r, tids) in (n..).zip(rules) {
            marks.extend(tids.into_iter().map(|t| (r, t)));
        }
        marks.sort_unstable();
        marks
    })
}

/// EMP's CFDs and every check kind over `d0` with `cities` as the
/// reference, and the `(relation, batch)` stream.
fn suite_family(
    name: &'static str,
    d0: Relation,
    cities: Relation,
    batches: Vec<(usize, UpdateBatch)>,
) -> Family {
    let schema = d0.schema().clone();
    let cfds = workload::emp::emp_cfds(&schema);
    let schemes = (
        workload::emp::emp_vertical_scheme(&schema),
        workload::emp::emp_horizontal_scheme(&schema),
        HybridScheme::uniform(schema.clone(), 2, 2).expect("hybrid scheme"),
    );
    let mut family = Family::new(name, cfds.clone(), d0, schemes);
    (family.batches, family.checks, family.refs) = (batches, all_checks(), vec![cities]);
    family.oracles = vec![oracle(cfds)];
    family
}

/// Clone t6 (grade C, Mayfield, EDI, EH4 8LE, CC 44) under a fresh tid
/// with AC 0 and a phone of its own, patching attributes by name.
fn variant(schema: &Schema, tid: Tid, patches: &[(&str, Value)]) -> Tuple {
    let mut vals: Vec<Value> = workload::emp::t6().values.to_vec();
    vals[0] = Value::int(tid as i64);
    let at = |name| schema.attr_id(name).expect("attribute") as usize;
    (vals[at("AC")], vals[at("phn")]) = (Value::int(0), Value::str(format!("p{tid}")));
    for (name, v) in patches {
        vals[at(name)] = v.clone();
    }
    Tuple::new(tid, vals)
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

/// Every transition of every kind, both ways, one per batch over Fig. 2's
/// EMP (grades A A B B C; cities NYC, then EDI ×4, whose AC sum is 524;
/// CC 44 everywhere) with both cities listed. Relation 1 is `CITIES`
/// (EDI is tid 1, NYC tid 2).
fn transitions(_: u64) -> Option<Family> {
    let (schema, d0) = workload::emp::emp_relation();
    let cities = workload::emp::city_reference(&d0, 1.0);
    let row = |tid, patches: &[(&str, Value)]| variant(&schema, tid, patches);
    let nyc = |tid, grade: &str, ac: i64| {
        let (g, city) = (Value::str(grade), Value::str("NYC"));
        row(tid, &[("grade", g), ("city", city), ("AC", Value::int(ac))])
    };
    let ins = |rows: Vec<Tuple>| {
        (
            0,
            UpdateBatch::from_ops(rows.into_iter().map(Update::Insert).collect()),
        )
    };
    let del = |tids: &[Tid]| {
        (
            0,
            UpdateBatch::from_ops(tids.iter().map(|&t| Update::Delete(t)).collect()),
        )
    };
    let twin = [
        ("zip", Value::str("EH2 4HF")),
        ("phn", Value::str("8765432")),
    ];
    let city = |c: Value| [("city", c)];
    let listed = |tid: Tid, c: &str| Tuple::new(tid, vec![Value::int(tid as i64), Value::str(c)]);
    let batches = vec![
        ins(vec![row(7, &twin)]),              // 0: key enters (t2's zip and phn)
        del(&[7]),                             // 1: key leaves
        ins(vec![row(8, &city(Value::Null))]), // 2: null enters
        del(&[8]),                             // 3: null leaves
        ins(vec![row(9, &city(Value::str("LDN")))]), // 4: IND enters, primary side
        del(&[9]),                             // 5: IND leaves, primary side
        (1, UpdateBatch::from_ops(vec![Update::Delete(2)])), // 6: IND enters, reference side
        (
            1,
            UpdateBatch::from_ops(vec![Update::Insert(listed(3, "NYC"))]),
        ), // 7: leaves
        ins(vec![nyc(10, "B", 0), nyc(11, "B", 0), nyc(12, "B", 0)]), // 8: count > 4 by insert
        del(&[12]),                            // 9: count ≤ 4 by delete
        ins(vec![nyc(13, "C", 700), nyc(14, "C", -300)]), // 10: NYC sum 531, in bounds
        del(&[14]),                            // 11: sum 831 > 600 by delete
        ins(vec![nyc(15, "C", -300)]),         // 12: sum 531 by insert
        del(&[13]),                            // 13: sum −169 < 0 by delete
        ins(vec![nyc(16, "C", 200)]),          // 14: sum 31 ≥ 0 by insert
        ins(vec![row(
            17,
            &[("grade", Value::str("A")), ("CC", Value::int(0))],
        )]), // 15: min < 1
        del(&[17]),                            // 16: min ≥ 1 by delete
    ];
    Some(suite_family("transitions", d0, cities, batches))
}

/// Every check kind tracks the oracle in every cell, and the stream flips
/// each check's findings both ways: per batch, the check rules whose
/// findings were added and removed.
#[test]
fn every_kind_tracks_the_oracle_over_every_strategy() {
    let report = matrix::run(transitions, 0..1, 1);
    assert_eq!((report.accepted, report.refused), (30, 42));
    let checks = |m: &[(RuleId, Tid)]| {
        let mut rules: Vec<RuleId> = m.iter().map(|&(r, _)| r).filter(|&r| r >= 2).collect();
        rules.dedup();
        rules
    };
    let flips: Vec<_> = report
        .deltas
        .iter()
        .map(|(a, r)| (checks(a), checks(r)))
        .collect();
    let (enter, leave) = (|r| (vec![r], vec![]), |r| (vec![], vec![r]));
    let mut want = vec![enter(2), leave(2)]; // key
    want.extend([(vec![3, 4], vec![]), (vec![], vec![3, 4])]); // null, unlisted
    want.extend([enter(4), leave(4), enter(4), leave(4)]); // IND: primary, reference
    want.extend([enter(5), leave(5), (vec![], vec![])]); // count hi
    want.extend([enter(6), leave(6), enter(6), leave(6)]); // sum hi, then lo
    want.extend([enter(7), leave(7)]); // min lo
    assert_eq!(flips, want);
}

/// Reference churn over half coverage (NYC unlisted): teach the missing
/// city, retract a listed one, then teach it back.
fn reference_churn(_: u64) -> Option<Family> {
    let (_, d0) = workload::emp::emp_relation();
    let cities = workload::emp::city_reference(&d0, 0.5);
    let next =
        |tid: Tid, city: &str| Tuple::new(tid, vec![Value::int(tid as i64), Value::str(city)]);
    let batches = vec![
        UpdateBatch::from_ops(vec![Update::Insert(next(100, "NYC"))]),
        UpdateBatch::from_ops(vec![Update::Delete(1)]),
        UpdateBatch::from_ops(vec![
            Update::Insert(next(101, "EDI")),
            Update::Insert(next(102, "LDN")),
        ]),
    ];
    let batches = batches.into_iter().map(|b| (1, b)).collect();
    Some(suite_family("reference_churn", d0, cities, batches))
}

#[test]
fn reference_churn_flips_inclusion_findings_on_both_sides() {
    let report = matrix::run(reference_churn, 0..1, 1);
    for (added, removed) in &report.deltas {
        let cfd = |m: &Vec<(RuleId, Tid)>| m.iter().any(|&(r, _)| r < 2);
        assert!(
            !cfd(added) && !cfd(removed),
            "reference updates cannot move CFD violations"
        );
    }
}

/// A churn-heavy loadgen stream over the scaled EMP generator, tick by
/// tick, with half the base cities listed (every other suite cell).
fn loadgen_churn(_: u64) -> Option<Family> {
    let cfg = ScenarioCfg {
        name: "suite_churn",
        workload: WorkloadKind::Emp,
        n_rows: 80,
        n_sites: 3,
        ticks: 10,
        shape: ArrivalShape::Steady { per_tick: 12 },
        keys: KeyDist::Uniform,
        mix: OpMix {
            insert: 5,
            delete: 3,
            modify: 2,
            churn: 2,
        },
        dirty: DirtyRate::Fixed(0.15),
        seed: 42,
    };
    let ds = cfg.dataset();
    let cities = workload::emp::city_reference(&ds.base, 0.5);
    let mut batches = Vec::new();
    let mut stream = cfg.stream(&ds);
    while let Some(tick) = stream.next_tick() {
        batches.push((0, tick.batch));
    }
    let mut family = suite_family("loadgen_churn", ds.base, cities, batches);
    family.schemes = (
        ds.vertical,
        ds.horizontal,
        HybridScheme::uniform(ds.schema, 2, 2).ok()?,
    );
    Some(family)
}

#[test]
fn suite_tracks_the_oracle_under_loadgen_churn() {
    matrix::run(loadgen_churn, 0..1, 2);
    let family = loadgen_churn(0).expect("family");
    let mut mirrors = [family.d0, family.refs[0].clone()];
    for (_, batch) in &family.batches {
        batch
            .normalize(&mirrors[0])
            .apply(&mut mirrors[0])
            .expect("mirror");
    }
    let findings = (family.oracles[0])(&mirrors);
    assert!(
        !findings.is_empty(),
        "churn at 15% error rate must leave findings"
    );
}

/// Every direction of an aggregate bound transition on a one-group
/// relation: the group flips as a whole, and the tuple that causes the
/// flip is marked (or released) exactly as the oracle says — a newcomer
/// that cures the group never held a mark, a leaver that cures it did.
#[test]
fn aggregate_bound_flips_in_every_direction() {
    let s = Schema::new("R", &["id", "grade"], "id").expect("schema");
    let grade = s.attr_id("grade").expect("grade");
    let row = |tid: Tid| Tuple::new(tid, vec![Value::int(tid as i64), Value::str("B")]);
    // (lo, hi, |D₀|, op, violating before, violating after)
    let cases = [
        (Some(2), None, 1, Update::Insert(row(2)), true, false), // lo cured by insert
        (Some(2), None, 2, Update::Delete(2), false, true),      // lo entered by delete
        (None, Some(2), 2, Update::Insert(row(3)), false, true), // hi entered by insert
        (None, Some(2), 3, Update::Delete(3), true, false),      // hi cured by delete
    ];
    for (lo, hi, n0, op, before, after) in cases {
        let mut d = Relation::new(s.clone());
        for tid in 1..=n0 {
            d.insert(row(tid)).expect("seed row");
        }
        let mut session = Suite::on(s.clone())
            .check(incdetect::Check::row_count(["grade"], lo, hi))
            .build(&d)
            .expect("suite builds");
        let oracle = |d: &Relation| aggregate_oracle(d, AggFunc::Count, None, &[grade], lo, hi);
        assert_eq!(session.finding_set().tids_of(0), oracle(&d));
        assert_eq!(!oracle(&d).is_empty(), before, "{lo:?}..{hi:?} seed state");
        let delta = session.apply_one(&op).expect("flip applies");
        UpdateBatch::from_ops(vec![op.clone()])
            .apply(&mut d)
            .expect("mirror applies");
        assert_eq!(
            session.finding_set().tids_of(0),
            oracle(&d),
            "{lo:?}..{hi:?} after {op:?}"
        );
        assert_eq!(!oracle(&d).is_empty(), after, "{lo:?}..{hi:?} flipped");
        let flipped = if after {
            &delta.findings.added
        } else {
            &delta.findings.removed
        };
        assert_eq!(flipped.len(), 1, "one finding flips: {delta:?}");
    }
}
