//! Randomized properties of HEV plans and the optVer optimizer: on seeded
//! random vertical schemes (with replication) and random variable-CFD rule
//! sets, the default chains must validate, the optimizer must validate,
//! never regress the static shipment count, and never change detection
//! results.
//!
//! Deterministic replacement for the former proptest suite: cases are
//! generated from explicit seeds with the workspace PRNG.

use inc_cfd::prelude::*;
use incdetect::optimize::{optimize, OptimizeConfig};
use incdetect::HevPlan;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const N_ATTRS: usize = 8; // attrs 1..8 (0 is the key)
const N_SITES: usize = 3;

fn schema() -> Arc<Schema> {
    Schema::new("R", &["id", "a1", "a2", "a3", "a4", "a5", "a6", "a7"], "id").unwrap()
}

/// Random scheme: each non-key attribute gets a home site plus optional
/// replicas; sites without any attribute still hold the key.
fn rand_scheme(rng: &mut StdRng) -> Vec<Vec<u16>> {
    let mut frags: Vec<Vec<u16>> = vec![Vec::new(); N_SITES];
    for i in 0..N_ATTRS - 1 {
        let attr = (i + 1) as u16;
        let home = rng.random_range(0..N_SITES);
        frags[home].push(attr);
        if rng.random_bool(0.5) {
            let replica = rng.random_range(0..N_SITES);
            if replica != home {
                frags[replica].push(attr);
            }
        }
    }
    frags
}

/// Random variable CFDs over a1..a7.
fn rand_var_cfds(rng: &mut StdRng) -> Vec<Cfd> {
    let s = schema();
    let n_rules = rng.random_range(1..5usize);
    let mut out = Vec::new();
    for _ in 0..n_rules {
        let rhs = rng.random_range(1..N_ATTRS) as u16;
        let mut lhs: std::collections::BTreeSet<u16> = std::collections::BTreeSet::new();
        for _ in 0..rng.random_range(1..4usize) {
            lhs.insert(rng.random_range(1..N_ATTRS) as u16);
        }
        let mut lhs: Vec<u16> = lhs.into_iter().collect();
        lhs.retain(|&a| a != rhs);
        if lhs.is_empty() {
            continue;
        }
        let id = out.len() as u32;
        if let Ok(c) = Cfd::new(
            id,
            &s,
            lhs.clone(),
            rhs,
            lhs.iter().map(|_| cfd::PatternValue::Wildcard).collect(),
            cfd::PatternValue::Wildcard,
        ) {
            out.push(c);
        }
    }
    out
}

#[test]
fn plans_validate_and_optimizer_never_regresses() {
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = schema();
        let cfds = rand_var_cfds(&mut rng);
        if cfds.is_empty() {
            continue;
        }
        let frags = rand_scheme(&mut rng);
        let scheme = VerticalScheme::new(s.clone(), frags).unwrap();
        let default = HevPlan::default_chains(&cfds, &scheme);
        assert!(
            default.validate(&scheme).is_ok(),
            "seed {seed}: default plan invalid"
        );
        let opt = optimize(
            &cfds,
            &scheme,
            OptimizeConfig {
                k: 3,
                eval_budget: 400,
                relocate: true,
            },
        );
        assert!(
            opt.validate(&scheme).is_ok(),
            "seed {seed}: optimized plan invalid"
        );
        assert!(
            opt.neqid() <= default.neqid(),
            "seed {seed}: optimizer regressed: {} > {}",
            opt.neqid(),
            default.neqid()
        );
    }
}

#[test]
fn optimized_plan_is_detection_equivalent() {
    for seed in 200..232u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = schema();
        let cfds = rand_var_cfds(&mut rng);
        if cfds.is_empty() {
            continue;
        }
        let frags = rand_scheme(&mut rng);
        let scheme = VerticalScheme::new(s.clone(), frags).unwrap();

        // A little random relation with collisions (small domains).
        let mut d = Relation::new(s.clone());
        for tid in 0..20u64 {
            let mut vals = vec![Value::int(tid as i64)];
            for _ in 1..N_ATTRS {
                vals.push(Value::int(rng.random_range(0..3i64)));
            }
            d.insert(Tuple::new(tid, vals)).unwrap();
        }

        // The optimized plan through `Suite` must agree with the
        // centralized oracle.
        let opt = OptimizeConfig {
            k: 2,
            eval_budget: 200,
            relocate: true,
        };
        let det_opt = Suite::on(s.clone())
            .cfds(cfds.clone())
            .strategy(Strategy::OptimizedVertical(scheme.clone(), opt))
            .build_detector(&d)
            .unwrap();
        let oracle = cfd::naive::detect(&cfds, &d);
        assert_eq!(
            det_opt.violations().marks_sorted(),
            oracle.marks_sorted(),
            "seed {seed}: optimized plan changed detection results"
        );
    }
}
