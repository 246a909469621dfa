//! Loadgen subsystem contracts: deterministic streams, differential
//! correctness of a sampled stream prefix through the matrix
//! (`common::matrix`), and churn settling through every other cell.

mod common;

use common::matrix::{self, Family};
use inc_cfd::prelude::*;
use loadgen::{catalog, Scenario, Tick};
use workload::tpch::{self, TpchConfig};
use workload::updates;

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

/// The first six ticks of catalog scenario `seed`, applied per tick as
/// batches.
fn prefix(seed: u64) -> Option<Family> {
    let cfg = catalog().into_iter().nth(seed as usize)?;
    let ds = cfg.dataset();
    let batches = cfg.stream(&ds).take(6).map(|tick| tick.batch);
    let schemes = (
        ds.vertical.clone(),
        ds.horizontal.clone(),
        ds.hybrid.clone(),
    );
    Some(Family::new("prefix", ds.cfds.clone(), ds.base, schemes).batches(batches))
}

/// Differential test: a sampled prefix of every catalog stream produces
/// oracle-identical violation sets in every strategy.
#[test]
fn stream_prefix_is_oracle_identical_across_all_strategies() {
    let report = matrix::run(prefix, 0..5, 5);
    assert_eq!((report.accepted, report.refused), (36, 210));
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

/// A 300-row TPCH base and one churn batch.
fn churn_family(
    name: &'static str,
    error_rate: f64,
    churn: fn(&Relation) -> UpdateBatch,
) -> Option<Family> {
    let gen = TpchConfig {
        n_rows: 300,
        error_rate,
        ..TpchConfig::default()
    };
    let (schema, d0) = tpch::generate(&gen);
    let cfds = workload::rules::tpch_rules(&schema, 8, 11);
    let schemes = (
        tpch::vertical_scheme(&schema, 4),
        tpch::horizontal_scheme(&schema, 4),
        HybridScheme::uniform(schema.clone(), 2, 2).unwrap(),
    );
    let batch = churn(&d0);
    Some(Family::new(name, cfds, d0, schemes).batches([batch]))
}

fn identical_churn(_: u64) -> Option<Family> {
    let churn = |d0: &Relation| updates::generate_churn(d0, 120, 0.0, 77, |t, _| t.clone());
    churn_family("identical_churn", 0.05, churn)
}

/// Identical-reinsert churn settles to an empty `ΔV` and leaves the
/// violation set untouched in every other cell.
#[test]
fn identical_churn_settles_through_every_strategy() {
    let report = matrix::run(identical_churn, 0..1, 2);
    assert_eq!(report.deltas, vec![Default::default()]);
}

fn mutated_churn(_: u64) -> Option<Family> {
    let churn = |d0: &Relation| {
        let nation = d0.schema().attr_id("nation").unwrap();
        updates::generate_churn(d0, 80, 0.5, 99, |t, rng| {
            updates::corrupt_attr(t, nation, rng)
        })
    };
    churn_family("mutated_churn", 0.0, churn)
}

/// Mutated churn (delete + reinsert of the same tid with one attribute
/// corrupted) settles to the oracle's diff in every other cell.
#[test]
fn mutated_churn_settles_to_oracle_diff() {
    let report = matrix::run(mutated_churn, 0..1, 2);
    let (added, _) = &report.deltas[0];
    assert!(
        !added.is_empty(),
        "corrupting nations must create violations"
    );
}
