//! Differential validation of the suite API: every non-CFD constraint
//! kind — keys, completeness, inclusion dependencies, aggregates — is
//! driven through every partition strategy (the nine configurations of
//! `common::nine_suites`, plus a real framed byte transport) and must agree with a
//! brute-force oracle recomputed from scratch after **every** batch,
//! including churn streams from `loadgen` and reference-side updates.

mod common;

use inc_cfd::prelude::*;
use incdetect::optimize::OptimizeConfig;
use std::sync::Arc;

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

/// Attribute ids the oracles need, resolved once per schema.
struct Attrs {
    zip: relation::AttrId,
    phn: relation::AttrId,
    city: relation::AttrId,
    grade: relation::AttrId,
    ac: relation::AttrId,
    cc: relation::AttrId,
    ref_city: relation::AttrId,
}

impl Attrs {
    fn resolve(schema: &Schema, ref_schema: &Schema) -> Attrs {
        let a = |n| schema.attr_id(n).expect("EMP attribute");
        Attrs {
            zip: a("zip"),
            phn: a("phn"),
            city: a("city"),
            grade: a("grade"),
            ac: a("AC"),
            cc: a("CC"),
            ref_city: ref_schema.attr_id("city").expect("CITIES attribute"),
        }
    }
}

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
/// scratch against the mirrors.
fn oracle_marks(
    cfds: &[Cfd],
    at: &Attrs,
    mirror: &Relation,
    ref_mirror: &Relation,
) -> Vec<(RuleId, Tid)> {
    let n = cfds.len() as RuleId;
    let mut marks: Vec<(RuleId, Tid)> = cfd::naive::detect(cfds, mirror).marks_sorted();
    let mut rule = |r: RuleId, tids: Vec<Tid>| {
        marks.extend(tids.into_iter().map(|t| (n + r, t)));
    };
    rule(0, key_oracle(mirror, &[at.zip, at.phn]));
    rule(1, complete_oracle(mirror, at.city));
    rule(
        2,
        inclusion_oracle(mirror, &[at.city], ref_mirror, &[at.ref_city]),
    );
    rule(
        3,
        aggregate_oracle(mirror, AggFunc::Count, None, &[at.grade], None, Some(4)),
    );
    rule(
        4,
        aggregate_oracle(
            mirror,
            AggFunc::Sum,
            Some(at.ac),
            &[at.city],
            Some(0),
            Some(600),
        ),
    );
    rule(
        5,
        aggregate_oracle(
            mirror,
            AggFunc::Min,
            Some(at.cc),
            &[at.grade],
            Some(1),
            None,
        ),
    );
    marks.sort_unstable();
    marks
}

/// Every partition strategy of the shared nine, plus one horizontal
/// session on the real framed byte transport.
fn all_suite_sessions(
    schema: &Arc<Schema>,
    cfds: &[Cfd],
    vscheme: &VerticalScheme,
    hscheme: &HorizontalScheme,
    yscheme: &HybridScheme,
    cities: &Relation,
    d0: &Relation,
) -> Vec<SuiteSession> {
    let framed = Suite::on(schema.clone())
        .cfds(cfds.to_vec())
        .strategy(Strategy::Horizontal(hscheme.clone()))
        .transport(TransportKind::Framed);
    let opt = OptimizeConfig::default();
    let mut configs = common::nine_suites(schema, cfds, vscheme, hscheme, yscheme, opt);
    configs.push(("incHor/framed", framed));
    configs
        .into_iter()
        .map(|(label, suite)| {
            let suite = suite.checks(all_checks()).reference(cities.clone());
            suite.build(d0).unwrap_or_else(|e| panic!("{label}: {e}"))
        })
        .collect()
}

/// Apply a primary-relation batch and check the full contract: the
/// maintained finding set equals the oracle, and the reported delta is
/// exactly the set difference.
fn drive_and_check(
    session: &mut SuiteSession,
    cfds: &[Cfd],
    at: &Attrs,
    mirror: &mut Relation,
    ref_mirror: &Relation,
    delta: &UpdateBatch,
) {
    let before = session.finding_set().marks_sorted();
    let reported = session
        .apply(delta)
        .unwrap_or_else(|e| panic!("{} failed to apply: {e}", session.strategy()));
    delta
        .normalize(&mirror.clone())
        .apply(mirror)
        .expect("mirror applies");
    check_against_oracle(session, cfds, at, mirror, ref_mirror, &before, &reported);
}

fn check_against_oracle(
    session: &SuiteSession,
    cfds: &[Cfd],
    at: &Attrs,
    mirror: &Relation,
    ref_mirror: &Relation,
    before: &[(RuleId, Tid)],
    reported: &SuiteDelta,
) {
    let strategy = session.strategy();
    let after = session.finding_set().marks_sorted();
    let expected = oracle_marks(cfds, at, mirror, ref_mirror);
    assert_eq!(after, expected, "{strategy} diverged from the oracle");

    // The reported delta must be the exact set difference before/after.
    let before: std::collections::BTreeSet<_> = before.iter().copied().collect();
    let after: std::collections::BTreeSet<_> = after.into_iter().collect();
    let mut added: Vec<(RuleId, Tid)> = after.difference(&before).copied().collect();
    let mut removed: Vec<(RuleId, Tid)> = before.difference(&after).copied().collect();
    added.sort_unstable();
    removed.sort_unstable();
    let flat = |fs: &[Finding]| {
        let mut v: Vec<(RuleId, Tid)> = fs
            .iter()
            .flat_map(|f| f.tids.iter().map(|&t| (f.rule, t)))
            .collect();
        v.sort_unstable();
        v
    };
    assert_eq!(
        flat(&reported.findings.added),
        added,
        "{strategy} reported wrong added findings"
    );
    assert_eq!(
        flat(&reported.findings.removed),
        removed,
        "{strategy} reported wrong removed findings"
    );
    // Every reported finding carries the kind of its rule.
    for f in reported
        .findings
        .added
        .iter()
        .chain(&reported.findings.removed)
    {
        assert_eq!(
            f.kind,
            session.finding_set().kind(f.rule),
            "{strategy} mislabeled rule {}",
            f.rule
        );
    }
}

fn emp_fixture() -> (Arc<Schema>, Relation, Vec<Cfd>, Relation, Attrs) {
    let (schema, d0) = workload::emp::emp_relation();
    let cfds = workload::emp::emp_cfds(&schema);
    let cities = workload::emp::city_reference(&d0, 1.0);
    let at = Attrs::resolve(&schema, cities.schema());
    (schema, d0, cfds, cities, at)
}

/// Clone an EMP tuple under a fresh tid, patching attributes by name.
fn variant(schema: &Schema, tid: Tid, patches: &[(&str, Value)]) -> Tuple {
    let mut vals: Vec<Value> = workload::emp::t6().values.to_vec();
    vals[0] = Value::int(tid as i64);
    for (name, v) in patches {
        vals[schema.attr_id(name).expect("attribute") as usize] = v.clone();
    }
    Tuple::new(tid, vals)
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

#[test]
fn every_kind_tracks_the_oracle_over_every_strategy() {
    let (schema, d0, cfds, cities, at) = emp_fixture();
    let vscheme = workload::emp::emp_vertical_scheme(&schema);
    let hscheme = workload::emp::emp_horizontal_scheme(&schema);
    let yscheme = HybridScheme::uniform(schema.clone(), 2, 2).expect("hybrid scheme");

    // A scripted gauntlet hitting every kind: a zip+phn key collision, a
    // null city (completeness + a dangling-city inclusion candidate), an
    // unlisted city, a 5th grade-C row (count bound), an AC spike (sum
    // bound), a CC of 0 (min bound) — then deletions that cure them.
    let script: Vec<UpdateBatch> = {
        let mut batches = Vec::new();
        let mut b = UpdateBatch::new();
        b.insert(workload::emp::t6());
        batches.push(b);
        let mut b = UpdateBatch::new();
        // Same zip+phn as t6 (a key collision the FD alone cannot prove).
        b.insert(variant(&schema, 7, &[("name", Value::str(" Criss"))]));
        b.insert(variant(&schema, 8, &[("city", Value::Null)]));
        batches.push(b);
        let mut b = UpdateBatch::new();
        b.insert(variant(
            &schema,
            9,
            &[("city", Value::str("LDN")), ("zip", Value::str("N1 9GU"))],
        ));
        b.insert(variant(&schema, 10, &[("AC", Value::int(900))]));
        batches.push(b);
        let mut b = UpdateBatch::new();
        b.insert(variant(&schema, 11, &[("CC", Value::int(0))]));
        b.delete(7);
        batches.push(b);
        let mut b = UpdateBatch::new();
        b.delete(9);
        b.delete(10);
        b.delete(11);
        b.delete(8);
        batches.push(b);
        batches
    };

    for session in
        &mut all_suite_sessions(&schema, &cfds, &vscheme, &hscheme, &yscheme, &cities, &d0)
    {
        let mut mirror = d0.clone();
        for delta in &script {
            drive_and_check(session, &cfds, &at, &mut mirror, &cities, delta);
        }
    }
}

#[test]
fn reference_churn_flips_inclusion_findings_on_both_sides() {
    let (schema, d0, cfds, _, at) = emp_fixture();
    // Start with half coverage: one of the two cities is unlisted.
    let cities = workload::emp::city_reference(&d0, 0.5);
    let mut session = Suite::on(schema.clone())
        .cfds(cfds.clone())
        .checks(all_checks())
        .reference(cities.clone())
        .build(&d0)
        .expect("suite builds");
    let mut ref_mirror = cities;

    // Seeding already sees the dangling city.
    let expected = oracle_marks(&cfds, &at, &d0, &ref_mirror);
    assert_eq!(session.finding_set().marks_sorted(), expected);

    // Reference churn: teach the missing city, retract a listed one,
    // then teach it back — each batch checked against the oracle.
    let next =
        |tid: Tid, city: &str| Tuple::new(tid, vec![Value::int(tid as i64), Value::str(city)]);
    let script: Vec<UpdateBatch> = {
        let mut batches = Vec::new();
        let mut b = UpdateBatch::new();
        b.insert(next(100, "NYC"));
        batches.push(b);
        let mut b = UpdateBatch::new();
        b.delete(1);
        batches.push(b);
        let mut b = UpdateBatch::new();
        b.insert(next(101, "EDI"));
        b.insert(next(102, "LDN"));
        batches.push(b);
        batches
    };
    for delta in &script {
        let before = session.finding_set().marks_sorted();
        let reported = session.apply_to("CITIES", delta).expect("ref batch");
        delta
            .normalize(&ref_mirror.clone())
            .apply(&mut ref_mirror)
            .expect("ref mirror applies");
        check_against_oracle(&session, &cfds, &at, &d0, &ref_mirror, &before, &reported);
        assert!(
            reported.cfd_delta.is_empty(),
            "reference updates cannot move CFD violations"
        );
    }
}

#[test]
fn suite_tracks_the_oracle_under_loadgen_churn() {
    // A churn-heavy loadgen stream over the scaled EMP generator, driven
    // tick by tick through a vertical and a framed-horizontal session.
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
    let at = Attrs::resolve(&ds.schema, cities.schema());
    let yscheme = HybridScheme::uniform(ds.schema.clone(), 2, 2).expect("hybrid scheme");

    let base = || {
        Suite::on(ds.schema.clone())
            .cfds(ds.cfds.clone())
            .checks(all_checks())
            .reference(cities.clone())
    };
    let sessions = vec![
        base().strategy(Strategy::Vertical(ds.vertical.clone())),
        base().strategy(Strategy::Hybrid(yscheme)),
        base()
            .strategy(Strategy::Horizontal(ds.horizontal.clone()))
            .transport(TransportKind::Framed),
    ];
    for suite in sessions {
        let mut session = suite.build(&ds.base).expect("suite builds");
        let mut mirror = ds.base.clone();
        let mut stream = cfg.stream(&ds);
        while let Some(tick) = stream.next_tick() {
            drive_and_check(
                &mut session,
                &ds.cfds,
                &at,
                &mut mirror,
                &cities,
                &tick.batch,
            );
        }
        assert!(
            !session.finding_set().is_empty(),
            "{}: churn at 15% error rate must leave findings",
            session.strategy()
        );
    }
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
