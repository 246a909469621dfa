//! Prune differential suite: `AnalysisMode::Prune` must be a pure
//! execution strategy. On a catalog with prunable rules the matrix
//! (`common::matrix`) drives every strategy with the detector built over
//! the full catalog (`Off`), with findings merely reported (`Warn`), and
//! over the minimal cover with riders reconstructed (`Prune`), and holds
//! each to the oracle over the full catalog and to one `ΔV` — pruning
//! changes what is *evaluated*, never what is *detected*. (Modeled
//! traffic is not compared across modes: the pruned detector ships less.)
//!
//! Plus the refusal path: an unsatisfiable catalog must fail to build
//! under `Prune` (detection over it is vacuous — everything violates).

mod common;

use common::matrix::{self, Family};
use inc_cfd::prelude::*;
use workload::family::{cfd_family, FamilyConfig};
use workload::updates::{self, UpdateMix};

/// A redundancy-dialed TPCH family over a small instance, with an update
/// stream that includes churn: delete-heavy batches and same-tid
/// delete+reinsert flips — the cases the pruned wrapper's touched-tid
/// recheck exists for.
fn tpch_family(_: u64) -> Option<Family> {
    let tcfg = workload::tpch::TpchConfig {
        n_rows: 300,
        seed: 13,
        ..workload::tpch::TpchConfig::default()
    };
    let (schema, d0) = workload::tpch::generate(&tcfg);
    let sigma = cfd_family(
        &schema,
        &d0,
        &FamilyConfig {
            n: 48,
            overlap: 0.85,
            seed: 21,
            redundancy: 0.4,
            conflicts: 0,
        },
    );
    let schemes = (
        workload::tpch::vertical_scheme(&schema, 5),
        workload::tpch::horizontal_scheme(&schema, 5),
        HybridScheme::uniform(schema.clone(), 2, 3).expect("hybrid scheme"),
    );

    let mut mirror = d0.clone();
    let mut batches = Vec::new();
    let mut next_tid = 1_000_000u64;
    for round in 0..3u64 {
        // Delete-heavy churn: marks must *retreat* correctly too.
        let fresh = workload::tpch::generate_fresh(&tcfg, next_tid, 40, round + 3);
        next_tid += 40;
        let delta = updates::generate(
            &mirror,
            &fresh,
            50,
            UpdateMix {
                insert_fraction: 0.4,
            },
            round ^ 0xBEE,
        );
        delta
            .normalize(&mirror.clone())
            .apply(&mut mirror)
            .expect("mirror applies");
        batches.push(delta);
    }
    // Same-tid flips: delete a live tuple and reinsert a mutated copy in
    // one batch — the violation surface of untouched rules can change
    // while the rule never sees the delta rule-locally.
    let victims: Vec<Tuple> = mirror.iter().take(4).collect();
    let mut flip = UpdateBatch::new();
    for t in &victims {
        flip.delete(t.tid);
        let mut vals: Vec<Value> = (0..schema.arity() as u16)
            .map(|a| t.get(a).clone())
            .collect();
        let last = schema.arity() - 1;
        vals[last] = Value::int(9_999);
        flip.insert(Tuple::new(t.tid, vals));
    }
    batches.push(flip);
    Some(Family::new("tpch_family", sigma, d0, schemes).batches(batches))
}

#[test]
fn pruning_is_invisible_across_all_nine_strategies() {
    let report = matrix::run(tpch_family, 0..1, 6);
    assert_eq!((report.accepted, report.refused), (16, 126));
}

fn emp_dup(_: u64) -> Option<Family> {
    let (schema, d0) = workload::emp::emp_relation();
    let mut sigma = workload::emp::emp_cfds(&schema);
    // Append an LHS-reordered duplicate of rule 0 — the minimal prunable
    // catalog — so the wrapper must reconstruct its marks.
    let dup = {
        let c = &sigma[0];
        let mut lhs = c.lhs.clone();
        let mut pat = c.lhs_pattern.clone();
        lhs.reverse();
        pat.reverse();
        Cfd::new(
            sigma.len() as u32,
            &schema,
            lhs,
            c.rhs,
            pat,
            c.rhs_pattern.clone(),
        )
        .expect("reordered duplicate")
    };
    sigma.push(dup);
    let schemes = (
        workload::emp::emp_vertical_scheme(&schema),
        workload::emp::emp_horizontal_scheme(&schema),
        HybridScheme::uniform(schema.clone(), 2, 2).expect("hybrid scheme"),
    );

    let mut b1 = UpdateBatch::new();
    b1.insert(workload::emp::t6());
    let mut b2 = UpdateBatch::new();
    b2.delete(4);
    b2.delete(2);
    let mut b3 = UpdateBatch::new();
    b3.delete(5);
    b3.insert(workload::emp::t6());
    Some(Family::new("emp_dup", sigma, d0, schemes).batches([b1, b2, b3]))
}

#[test]
fn pruning_is_invisible_on_emp_with_an_added_duplicate() {
    let report = matrix::run(emp_dup, 0..1, 1);
    assert_eq!((report.accepted, report.refused), (96, 126));
}

/// An unsatisfiable catalog (two all-wildcard-LHS constant rules forcing
/// different constants on one attribute) must refuse to build under
/// `Prune` — and build fine under `Off`.
#[test]
fn prune_refuses_an_unsatisfiable_catalog() {
    let (schema, d0) = workload::emp::emp_relation();
    let sigma = vec![
        Cfd::from_names(
            0,
            &schema,
            &[("CC", None)],
            ("city", Some(Value::str("EDI"))),
        )
        .expect("rule 0"),
        Cfd::from_names(
            1,
            &schema,
            &[("CC", None)],
            ("city", Some(Value::str("LDN"))),
        )
        .expect("rule 1"),
    ];
    let hscheme = workload::emp::emp_horizontal_scheme(&schema);
    let suite = Suite::on(schema)
        .cfds(sigma)
        .strategy(Strategy::Horizontal(hscheme));
    let Err(err) = suite
        .clone()
        .analyze(AnalysisMode::Prune)
        .build_detector(&d0)
    else {
        panic!("unsat catalog must not build under Prune")
    };
    assert!(
        matches!(&err, DetectError::Analysis(msg) if msg.contains("unsatisfiable")),
        "wrong error: {err}"
    );
    // Off detects over it as-is (everything matching CC violates one of
    // the two rules — a legal, if silly, catalog to *detect* with).
    suite.build_detector(&d0).expect("Off must still build");
}

/// `Prune` over a catalog with nothing to prune builds the detector as
/// `Off` does.
#[test]
fn prune_with_nothing_to_prune_builds_the_plain_detector() {
    let (schema, d0) = workload::emp::emp_relation();
    let vscheme = workload::emp::emp_vertical_scheme(&schema);
    let suite = Suite::on(schema.clone())
        .cfds(workload::emp::emp_cfds(&schema))
        .strategy(Strategy::Vertical(vscheme));
    let off = suite.clone().build_detector(&d0).expect("Off builds");
    let prune = suite.analyze(AnalysisMode::Prune).build_detector(&d0);
    let prune = prune.expect("nothing to prune: Prune builds");
    assert_eq!(prune.cfds().len(), off.cfds().len());
    assert_eq!(
        prune.violations().marks_sorted(),
        off.violations().marks_sorted()
    );
}
