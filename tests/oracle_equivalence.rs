//! Randomized equivalence: on seeded random relations, rule sets and
//! update batches, every strategy behind the `Detector` trait must
//! maintain exactly the violation set the centralized oracle computes —
//! for every partition layout, with and without the HEV-plan optimizer
//! and the MD5 optimization, and for the batch baselines.
//!
//! Deterministic replacement for the former proptest suite: cases are
//! generated from explicit seeds with the workspace PRNG, so a failing
//! seed reproduces with no external shrinking machinery.

mod common;

use inc_cfd::incdetect::optimize::OptimizeConfig;
use inc_cfd::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Small domains on purpose: collisions (groups, conflicts) are the
/// interesting cases.
fn small_value(rng: &mut StdRng) -> i64 {
    rng.random_range(0..4i64)
}

fn schema() -> Arc<Schema> {
    Schema::new("R", &["id", "a", "b", "c", "d", "e"], "id").unwrap()
}

fn rand_tuple(tid: u64, rng: &mut StdRng) -> Tuple {
    let mut v = vec![Value::int(tid as i64)];
    for _ in 0..5 {
        v.push(Value::int(small_value(rng)));
    }
    Tuple::new(tid, v)
}

fn rand_relation(n: usize, rng: &mut StdRng) -> Vec<Tuple> {
    (0..n as u64).map(|tid| rand_tuple(tid, rng)).collect()
}

/// A random rule set over attributes a..e: variable and constant CFDs
/// with random patterns.
fn rand_cfds(rng: &mut StdRng) -> Vec<Cfd> {
    let s = schema();
    let n_rules = rng.random_range(1..5usize);
    let mut out = Vec::new();
    for _ in 0..n_rules {
        let rhs = rng.random_range(1..6usize);
        let n_lhs = rng.random_range(1..3usize);
        let mut lhs: Vec<(relation::AttrId, Option<i64>)> = (0..n_lhs)
            .map(|_| {
                let a = rng.random_range(1..6usize) as relation::AttrId;
                let c = if rng.random_bool(0.4) {
                    Some(small_value(rng))
                } else {
                    None
                };
                (a, c)
            })
            .collect();
        lhs.sort_by_key(|(a, _)| *a);
        lhs.dedup_by_key(|(a, _)| *a);
        lhs.retain(|(a, _)| *a as usize != rhs);
        if lhs.is_empty() {
            continue;
        }
        let rhs_const = if rng.random_bool(0.3) {
            Some(small_value(rng))
        } else {
            None
        };
        let id = out.len() as u32;
        let (attrs, pats): (Vec<_>, Vec<_>) = lhs.into_iter().unzip();
        let cfd = Cfd::new(
            id,
            &s,
            attrs,
            rhs as relation::AttrId,
            pats.into_iter()
                .map(|p| match p {
                    Some(v) => cfd::PatternValue::Const(Value::int(v)),
                    None => cfd::PatternValue::Wildcard,
                })
                .collect(),
            match rhs_const {
                Some(v) => cfd::PatternValue::Const(Value::int(v)),
                None => cfd::PatternValue::Wildcard,
            },
        );
        if let Ok(c) = cfd {
            out.push(c);
        }
    }
    out
}

/// Random update batch against the live tid set: deletions of live tids,
/// insertions of fresh tuples, re-insertion after deletion (modification).
fn rand_updates(
    live: &mut std::collections::BTreeSet<u64>,
    base_n: u64,
    n_ops: usize,
    rng: &mut StdRng,
) -> UpdateBatch {
    let mut delta = UpdateBatch::new();
    for _ in 0..rng.random_range(0..n_ops.max(1)) {
        let tid = rng.random_range(0..base_n + n_ops as u64);
        if rng.random_bool(0.5) {
            if live.contains(&tid) {
                delta.delete(tid);
            }
            delta.insert(rand_tuple(tid, rng));
            live.insert(tid);
        } else if live.remove(&tid) {
            delta.delete(tid);
        }
    }
    delta
}

/// Stand up every strategy over `(s, cfds, d)` and `n_sites` sites.
fn strategies(
    s: &Arc<Schema>,
    cfds: &[Cfd],
    d: &Relation,
    n_sites: usize,
) -> Vec<Box<dyn Detector>> {
    let vscheme = VerticalScheme::round_robin(s.clone(), n_sites).unwrap();
    let hscheme = HorizontalScheme::by_hash(s.clone(), 1, n_sites).unwrap();
    let yscheme = HybridScheme::uniform(s.clone(), n_sites.min(3), 2).unwrap();
    let opt = OptimizeConfig {
        k: 3,
        eval_budget: 500,
        relocate: true,
    };
    let suites = common::nine_suites(s, cfds, &vscheme, &hscheme, &yscheme, opt);
    let build = |(_, suite): (&str, Suite)| suite.build_detector(d).unwrap();
    suites.into_iter().map(build).collect()
}

#[test]
fn detectors_match_oracle() {
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = schema();
        let cfds = rand_cfds(&mut rng);
        if cfds.is_empty() {
            continue;
        }
        let d = Relation::from_tuples(s.clone(), rand_relation(24, &mut rng)).unwrap();
        let n_sites = rng.random_range(2..5usize);

        let mut live: std::collections::BTreeSet<u64> = d.tids().collect();
        let delta = rand_updates(&mut live, 24, 30, &mut rng);

        // Ground truth.
        let mut d_new = d.clone();
        delta.normalize(&d).apply(&mut d_new).unwrap();
        let oracle = cfd::naive::detect(&cfds, &d_new);

        for det in &mut strategies(&s, &cfds, &d, n_sites) {
            det.apply(&delta)
                .unwrap_or_else(|e| panic!("seed {seed}: {} failed: {e}", det.strategy()));
            assert_eq!(
                det.violations().marks_sorted(),
                oracle.marks_sorted(),
                "seed {seed}: {} diverged from oracle",
                det.strategy()
            );
        }
    }
}

/// Sequential batches: apply three consecutive update batches and check
/// the oracle after each (catches state corruption that a single batch
/// would miss).
#[test]
fn detectors_match_oracle_across_batches() {
    for seed in 100..124u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = schema();
        let cfds = rand_cfds(&mut rng);
        if cfds.is_empty() {
            continue;
        }
        let d = Relation::from_tuples(s.clone(), rand_relation(16, &mut rng)).unwrap();
        let mut dets = strategies(&s, &cfds, &d, 3);
        let mut mirror = d;

        for round in 0..3 {
            let mut live: std::collections::BTreeSet<u64> = mirror.tids().collect();
            let delta = rand_updates(&mut live, 16, 12, &mut rng);
            delta.normalize(&mirror.clone()).apply(&mut mirror).unwrap();
            let oracle = cfd::naive::detect(&cfds, &mirror);
            for det in &mut dets {
                det.apply(&delta).unwrap_or_else(|e| {
                    panic!("seed {seed} round {round}: {} failed: {e}", det.strategy())
                });
                assert_eq!(
                    det.violations().marks_sorted(),
                    oracle.marks_sorted(),
                    "seed {seed} round {round}: {} diverged",
                    det.strategy()
                );
            }
        }
    }
}
