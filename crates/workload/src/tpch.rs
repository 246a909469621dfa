//! A deterministic synthetic stand-in for the paper's TPCH workload.
//!
//! The paper joins all TPCH tables into one wide relation (2M–10M tuples,
//! up to 10 GB) and detects CFD violations on it. What the detectors care
//! about is the *dependency structure* of that join: hierarchical
//! attributes (customer → nation → region, part → brand/type, supplier →
//! nation) that genuinely obey FDs, plus a controlled rate of seeded errors
//! that break them. This generator reproduces exactly that shape at
//! laptop scale, deterministically from a seed.

use cluster::partition::{HorizontalScheme, VerticalScheme};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relation::{Relation, Schema, Tid, Tuple, Value};
use std::sync::Arc;

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct TpchConfig {
    /// Number of tuples to generate.
    pub n_rows: usize,
    /// Distinct customers (controls group sizes of customer FDs).
    pub n_customers: usize,
    /// Distinct parts.
    pub n_parts: usize,
    /// Distinct suppliers.
    pub n_suppliers: usize,
    /// Probability that a dependent attribute of a tuple is corrupted
    /// (creating CFD violations).
    pub error_rate: f64,
    /// RNG seed — same seed, same relation.
    pub seed: u64,
}

impl Default for TpchConfig {
    fn default() -> Self {
        TpchConfig {
            n_rows: 10_000,
            n_customers: 500,
            n_parts: 300,
            n_suppliers: 100,
            error_rate: 0.02,
            seed: 42,
        }
    }
}

/// The denormalized order schema.
pub fn tpch_schema() -> Arc<Schema> {
    Schema::new(
        "ORDERS_WIDE",
        &[
            "okey", // key
            "custkey",
            "custname",
            "nationkey",
            "nation",
            "region",
            "mktsegment",
            "partkey",
            "brand",
            "ptype",
            "container",
            "suppkey",
            "suppnation",
            "shipmode",
            "orderpriority",
            "clerk",
        ],
        "okey",
    )
    .expect("TPCH schema is valid")
}

const N_NATIONS: usize = 25;
const N_REGIONS: usize = 5;
const SHIPMODES: [&str; 7] = ["AIR", "RAIL", "TRUCK", "MAIL", "SHIP", "FOB", "REG AIR"];
const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPEC", "5-LOW"];
const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "HOUSEHOLD",
    "MACHINERY",
];

/// Ground-truth hierarchy functions (the "clean" values). Exposed so rule
/// generators can build *constant* CFDs whose RHS is the true value.
pub mod truth {
    use super::*;

    /// Nation of a nation key.
    pub(crate) fn nation_name(nationkey: i64) -> String {
        format!("NATION_{nationkey:02}")
    }

    /// Region of a nation.
    pub(crate) fn region_of_nation(nationkey: i64) -> String {
        format!("REGION_{}", (nationkey as usize) % N_REGIONS)
    }

    /// Nation key of a customer.
    pub(crate) fn nation_of_cust(custkey: i64) -> i64 {
        (custkey % N_NATIONS as i64).abs()
    }

    /// Name of a customer.
    pub fn cust_name(custkey: i64) -> String {
        format!("Customer#{custkey:06}")
    }

    /// Market segment of a customer.
    pub(crate) fn segment_of_cust(custkey: i64) -> &'static str {
        SEGMENTS[(custkey as usize) % SEGMENTS.len()]
    }

    /// Brand of a part.
    pub(crate) fn brand_of_part(partkey: i64) -> String {
        format!("Brand#{}", (partkey % 45).abs() + 10)
    }

    /// Type of a part.
    pub(crate) fn type_of_part(partkey: i64) -> String {
        format!("TYPE_{}", (partkey % 150).abs())
    }

    /// Container of a part.
    pub(crate) fn container_of_part(partkey: i64) -> String {
        format!("CONTAINER_{}", (partkey % 40).abs())
    }

    /// Nation of a supplier.
    pub(crate) fn nation_of_supp(suppkey: i64) -> String {
        nation_name((suppkey % N_NATIONS as i64).abs())
    }
}

/// Generate one tuple with the given key. `corrupt` injects one random
/// dependent-attribute error when drawn.
fn gen_tuple(tid: Tid, cfg: &TpchConfig, rng: &mut StdRng) -> Tuple {
    let custkey = rng.random_range(0..cfg.n_customers as i64);
    let partkey = rng.random_range(0..cfg.n_parts as i64);
    let suppkey = rng.random_range(0..cfg.n_suppliers as i64);
    let nationkey = truth::nation_of_cust(custkey);

    let mut custname = truth::cust_name(custkey);
    let mut nation = truth::nation_name(nationkey);
    let mut region = truth::region_of_nation(nationkey);
    let mut segment = truth::segment_of_cust(custkey).to_string();
    let mut brand = truth::brand_of_part(partkey);
    let mut ptype = truth::type_of_part(partkey);
    let mut container = truth::container_of_part(partkey);
    let mut suppnation = truth::nation_of_supp(suppkey);

    if rng.random_bool(cfg.error_rate) {
        // Corrupt one dependent attribute — breaks at least one FD.
        match rng.random_range(0..8) {
            0 => custname = format!("Customer#ERR{}", rng.random_range(0..1000)),
            1 => nation = format!("NATION_ERR{}", rng.random_range(0..100)),
            2 => region = format!("REGION_ERR{}", rng.random_range(0..10)),
            3 => segment = "SEGMENT_ERR".to_string(),
            4 => brand = format!("Brand#ERR{}", rng.random_range(0..100)),
            5 => ptype = format!("TYPE_ERR{}", rng.random_range(0..100)),
            6 => container = format!("CONTAINER_ERR{}", rng.random_range(0..100)),
            _ => suppnation = format!("NATION_ERR{}", rng.random_range(0..100)),
        }
    }

    Tuple::new(
        tid,
        vec![
            Value::int(tid as i64),
            Value::int(custkey),
            Value::str(custname),
            Value::int(nationkey),
            Value::str(nation),
            Value::str(region),
            Value::str(segment),
            Value::int(partkey),
            Value::str(brand),
            Value::str(ptype),
            Value::str(container),
            Value::int(suppkey),
            Value::str(suppnation),
            Value::str(SHIPMODES[rng.random_range(0..SHIPMODES.len())]),
            Value::str(PRIORITIES[rng.random_range(0..PRIORITIES.len())]),
            Value::str(format!("Clerk#{:05}", rng.random_range(0..1000))),
        ],
    )
}

/// Generate the base relation.
pub fn generate(cfg: &TpchConfig) -> (Arc<Schema>, Relation) {
    let schema = tpch_schema();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut d = Relation::new(schema.clone());
    for tid in 0..cfg.n_rows as Tid {
        d.insert(gen_tuple(tid, cfg, &mut rng)).expect("fresh tids");
    }
    (schema, d)
}

/// Generate `n` fresh tuples with tids following `start` (for insertions).
pub fn generate_fresh(cfg: &TpchConfig, start: Tid, n: usize, seed: u64) -> Vec<Tuple> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n as Tid)
        .map(|i| gen_tuple(start + i, cfg, &mut rng))
        .collect()
}

/// Default vertical scheme: non-key attributes dealt round-robin over `n`
/// sites (key replicated everywhere), like the paper's column partitions.
pub fn vertical_scheme(schema: &Arc<Schema>, n: usize) -> VerticalScheme {
    VerticalScheme::round_robin(schema.clone(), n).expect("round robin covers schema")
}

/// Default horizontal scheme: hash partitioning on the key over `n` sites.
pub fn horizontal_scheme(schema: &Arc<Schema>, n: usize) -> HorizontalScheme {
    HorizontalScheme::by_hash(schema.clone(), schema.key(), n).expect("hash scheme")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let cfg = TpchConfig {
            n_rows: 200,
            ..TpchConfig::default()
        };
        let (_, a) = generate(&cfg);
        let (_, b) = generate(&cfg);
        assert_eq!(a.len(), 200);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x, y);
        }
        let (_, c) = generate(&TpchConfig { seed: 7, ..cfg });
        assert!(a.iter().zip(c.iter()).any(|(x, y)| x != y));
    }

    #[test]
    fn clean_data_satisfies_catalog_fds() {
        let cfg = TpchConfig {
            n_rows: 500,
            error_rate: 0.0,
            ..TpchConfig::default()
        };
        let (s, d) = generate(&cfg);
        let fds = crate::rules::tpch_rules(&s, 8, 1);
        let v = cfd::naive::detect(&fds, &d);
        assert!(
            v.is_empty(),
            "error-free data must satisfy the rule catalog, found {:?}",
            v.tids_sorted().len()
        );
    }

    #[test]
    fn errors_create_violations() {
        let cfg = TpchConfig {
            n_rows: 2000,
            error_rate: 0.1,
            ..TpchConfig::default()
        };
        let (s, d) = generate(&cfg);
        let fds = crate::rules::tpch_rules(&s, 16, 1);
        let v = cfd::naive::detect(&fds, &d);
        assert!(!v.is_empty(), "10% corruption must violate something");
    }

    #[test]
    fn schemes_cover_schema() {
        let s = tpch_schema();
        let vs = vertical_scheme(&s, 10);
        assert_eq!(vs.n_sites(), 10);
        let hs = horizontal_scheme(&s, 10);
        let cfg = TpchConfig {
            n_rows: 100,
            ..TpchConfig::default()
        };
        let (_, d) = generate(&cfg);
        let frags = hs.partition(&d).unwrap();
        assert_eq!(frags.iter().map(Relation::len).sum::<usize>(), 100);
    }
}
