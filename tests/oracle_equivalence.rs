//! Randomized equivalence: on seeded random relations, rule sets and
//! update batches, every cell of the matrix (`common::matrix`), one in
//! four per seed, must maintain exactly the violation set both
//! centralized oracles compute — `cfd::naive` and §2.3's algebra
//! executor — for every partition layout, with and without the HEV-plan
//! optimizer, every codec, transport and drive, and for the batch
//! baselines.
//!
//! Cases are generated from explicit seeds with the workspace PRNG, and
//! a failing cell shrinks to a replayable batch list.

mod common;

use common::random::{self, Shape};
use common::{algebra, matrix, matrix::Family};
use inc_cfd::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A small integer domain.
fn int(_: usize, rng: &mut StdRng) -> Value {
    Value::int(rng.random_range(0..4i64))
}

/// A random instance held to `cfd::naive` and §2.3's algebra executor.
fn random_family(name: &'static str, rng: &mut StdRng, shape: Shape) -> Option<Family> {
    let mut family = random::family(name, rng, int, shape)?;
    let sigma = family.cfds.clone();
    let algebra = move |d: &[Relation]| algebra::detect(&sigma, &d[0]).marks_sorted();
    family.oracles.push(Box::new(algebra));
    Some(family)
}

/// One batch of up to 30 ops over 24 rows and 2–4 sites.
fn random(seed: u64) -> Option<Family> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (rows, sites, batches, ops) = (24, None, 1, (0, 30));
    random_family(
        "random",
        &mut rng,
        Shape {
            rows,
            sites,
            batches,
            ops,
        },
    )
}

/// Three consecutive batches over 16 rows and 3 sites: catches state
/// corruption that a single batch would miss.
fn random_batches(seed: u64) -> Option<Family> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (rows, sites, batches, ops) = (16, Some(3), 3, (0, 12));
    random_family(
        "random_batches",
        &mut rng,
        Shape {
            rows,
            sites,
            batches,
            ops,
        },
    )
}

#[test]
fn detectors_match_oracle() {
    let report = matrix::run(random, 0..48, 4);
    assert_eq!((report.accepted, report.refused), (405, 1_890));
}

#[test]
fn detectors_match_oracle_across_batches() {
    let report = matrix::run(random_batches, 100..124, 4);
    assert_eq!((report.accepted, report.refused), (231, 1_092));
}

/// Ten times the seeds of the two tests above, every cell at each
/// (release: `cargo test --release --test oracle_equivalence
/// every_cell_at_many_seeds -- --ignored`).
#[test]
#[ignore]
fn every_cell_at_many_seeds() {
    matrix::run(random, 0..480, 1);
    matrix::run(random_batches, 100..340, 1);
}

/// The shrinker on a synthetic failure: a run fails when it holds 3, 17
/// and 42, or two multiples of 29. ddmin reaches a failing subsequence
/// from which no single element can be dropped.
#[test]
fn ddmin_returns_a_one_minimal_failing_case() {
    let fails = |xs: &[u32]| {
        let all = [3, 17, 42].iter().all(|x| xs.contains(x));
        all || xs.iter().filter(|&&x| x > 0 && x % 29 == 0).count() >= 2
    };
    let min = matrix::ddmin((0..100).collect(), fails);
    assert!(fails(&min));
    for i in 0..min.len() {
        let mut less = min.clone();
        less.remove(i);
        assert!(!fails(&less), "{min:?} without {}", min[i]);
    }
    assert!(min.len() <= 3, "{min:?}");
}
