//! Loadgen subsystem contracts: deterministic streams, differential
//! correctness of a sampled stream prefix across all nine strategies,
//! and churn settling through every strategy.

mod common;

use inc_cfd::incdetect::optimize::OptimizeConfig;
use inc_cfd::prelude::*;
use loadgen::{catalog, Scenario, Tick};
use std::sync::Arc;
use workload::tpch::{self, TpchConfig};
use workload::updates;

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

#[test]
fn same_seed_produces_byte_identical_streams() {
    for cfg in catalog() {
        let ds = cfg.dataset();
        let a: Vec<Tick> = cfg.stream(&ds).collect();
        let b: Vec<Tick> = cfg.stream(&ds).collect();
        // Byte-identical: the rendered op sequences match exactly.
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{}: same seed must replay the same stream",
            cfg.name
        );
        let mut c = cfg.clone();
        c.seed ^= 0xFFFF;
        let d: Vec<Tick> = c.stream(&ds).collect();
        assert_ne!(
            format!("{a:?}"),
            format!("{d:?}"),
            "{}: a different seed must change the stream",
            cfg.name
        );
    }
}

/// Differential test: a sampled prefix of every catalog stream produces
/// oracle-identical violation sets across all nine strategies, applied
/// per-tick as batches.
#[test]
fn stream_prefix_is_oracle_identical_across_all_strategies() {
    for cfg in catalog() {
        let ds = cfg.dataset();
        let prefix: Vec<Tick> = cfg.stream(&ds).take(6).collect();
        let mut dets = all_strategies(
            &ds.schema,
            &ds.cfds,
            ds.vertical.clone(),
            ds.horizontal.clone(),
            ds.hybrid.clone(),
            &ds.base,
        );
        let mut mirror = ds.base.clone();
        for tick in &prefix {
            tick.batch
                .normalize(&mirror.clone())
                .apply(&mut mirror)
                .expect("mirror applies");
            let oracle = cfd::naive::detect(&ds.cfds, &mirror);
            for det in &mut dets {
                det.apply(&tick.batch)
                    .unwrap_or_else(|e| panic!("{} failed: {e}", det.strategy()));
                assert_eq!(
                    det.violations().marks_sorted(),
                    oracle.marks_sorted(),
                    "{}: {} diverged from oracle at tick {}",
                    cfg.name,
                    det.strategy(),
                    tick.index
                );
            }
        }
    }
}

/// The same prefix applied op-by-op (`apply_one`, the driver's measured
/// path) must land every incremental strategy on the same state as the
/// per-tick batch walk.
#[test]
fn apply_one_walk_matches_batch_walk() {
    let cfg = catalog()
        .into_iter()
        .find(|c| c.name == "zipf_hot")
        .expect("zipf_hot in catalog");
    let ds = cfg.dataset();
    let prefix: Vec<Tick> = cfg.stream(&ds).take(6).collect();
    let b = |strategy| {
        let suite = Suite::on(ds.schema.clone()).cfds(ds.cfds.to_vec());
        suite.strategy(strategy).build_detector(&ds.base).unwrap()
    };
    let mut by_batch = b(Strategy::Horizontal(ds.horizontal.clone()));
    let mut by_op = b(Strategy::Horizontal(ds.horizontal.clone()));
    let mut by_op_ver = b(Strategy::Vertical(ds.vertical.clone()));
    for tick in &prefix {
        by_batch.apply(&tick.batch).unwrap();
        for op in tick.batch.ops() {
            by_op.apply_one(op).unwrap();
            by_op_ver.apply_one(op).unwrap();
        }
    }
    assert_eq!(
        by_op.violations().marks_sorted(),
        by_batch.violations().marks_sorted(),
        "op-by-op and batch walks must converge (incHor)"
    );
    assert_eq!(
        by_op_ver.violations().marks_sorted(),
        by_batch.violations().marks_sorted(),
        "op-by-op incVer must converge with batch incHor"
    );
}

/// Identical-reinsert churn settles to an empty `ΔV` and leaves the
/// violation set untouched in every strategy.
#[test]
fn identical_churn_settles_through_every_strategy() {
    let gen = TpchConfig {
        n_rows: 300,
        error_rate: 0.05,
        ..TpchConfig::default()
    };
    let (schema, d0) = tpch::generate(&gen);
    let cfds = workload::rules::tpch_rules(&schema, 8, 11);
    let churn = updates::generate_churn(&d0, 120, 0.0, 77, |t, _| t.clone());
    let mut dets = all_strategies(
        &schema,
        &cfds,
        tpch::vertical_scheme(&schema, 4),
        tpch::horizontal_scheme(&schema, 4),
        HybridScheme::uniform(schema.clone(), 2, 2).unwrap(),
        &d0,
    );
    let oracle = cfd::naive::detect(&cfds, &d0);
    for det in &mut dets {
        let before = det.violations().clone();
        let dv = det
            .apply(&churn)
            .unwrap_or_else(|e| panic!("{} failed: {e}", det.strategy()));
        assert_eq!(
            dv.len(),
            0,
            "{}: identical churn must settle to an empty ΔV",
            det.strategy()
        );
        assert_eq!(
            det.violations().marks_sorted(),
            before.marks_sorted(),
            "{}: violations unchanged by identical churn",
            det.strategy()
        );
        assert_eq!(det.violations().marks_sorted(), oracle.marks_sorted());
    }
}

/// Mutated churn (delete + reinsert of the same tid with one attribute
/// corrupted) settles to the oracle's diff in every strategy.
#[test]
fn mutated_churn_settles_to_oracle_diff() {
    let gen = TpchConfig {
        n_rows: 300,
        error_rate: 0.0,
        ..TpchConfig::default()
    };
    let (schema, d0) = tpch::generate(&gen);
    let cfds = workload::rules::tpch_rules(&schema, 8, 11);
    let nation = schema.attr_id("nation").unwrap();
    let churn = updates::generate_churn(&d0, 80, 0.5, 99, |t, rng| {
        updates::corrupt_attr(t, nation, rng)
    });
    let mut mirror = d0.clone();
    churn
        .normalize(&mirror.clone())
        .apply(&mut mirror)
        .expect("churn applies");
    let oracle = cfd::naive::detect(&cfds, &mirror);
    assert!(
        !oracle.is_empty(),
        "corrupting nations must create violations"
    );
    let mut dets = all_strategies(
        &schema,
        &cfds,
        tpch::vertical_scheme(&schema, 4),
        tpch::horizontal_scheme(&schema, 4),
        HybridScheme::uniform(schema.clone(), 2, 2).unwrap(),
        &d0,
    );
    for det in &mut dets {
        let before = det.violations().clone();
        let dv = det
            .apply(&churn)
            .unwrap_or_else(|e| panic!("{} failed: {e}", det.strategy()));
        assert_eq!(
            det.violations().marks_sorted(),
            oracle.marks_sorted(),
            "{}: mutated churn must land on the oracle",
            det.strategy()
        );
        assert_eq!(
            dv,
            before.diff(det.violations()),
            "{}: ΔV must be the settled diff",
            det.strategy()
        );
    }
}
