//! A synthetic bibliographic relation standing in for the paper's DBLP
//! extract (320 MB of XML flattened to 100k–500k tuples).
//!
//! The dependency structure mirrors what a flattened DBLP gives you:
//! venue keys determine venue names and publishers, (venue, volume)
//! determines the year, paper keys determine titles. Errors are injected
//! at a configurable rate.

use cluster::partition::{HorizontalScheme, VerticalScheme};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relation::{Relation, Schema, Tid, Tuple, Value};
use std::sync::Arc;

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct DblpConfig {
    /// Number of tuples.
    pub n_rows: usize,
    /// Distinct venues.
    pub n_venues: usize,
    /// Distinct authors.
    pub n_authors: usize,
    /// Corruption probability per tuple.
    pub error_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DblpConfig {
    fn default() -> Self {
        DblpConfig {
            n_rows: 5_000,
            n_venues: 200,
            n_authors: 2_000,
            error_rate: 0.02,
            seed: 7,
        }
    }
}

/// The flattened publication schema.
pub fn dblp_schema() -> Arc<Schema> {
    Schema::new(
        "PUBS",
        &[
            "pid", // key
            "author",
            "title",
            "venuekey",
            "venue",
            "publisher",
            "volume",
            "year",
            "pages",
            "etype",
        ],
        "pid",
    )
    .expect("DBLP schema is valid")
}

/// Ground-truth functions for the venue hierarchy.
pub(crate) mod truth {
    /// Venue name of a venue key.
    pub(crate) fn venue_name(venuekey: i64) -> String {
        format!("VENUE_{venuekey:04}")
    }

    /// Publisher of a venue.
    pub(crate) fn publisher_of_venue(venuekey: i64) -> String {
        format!("PUBLISHER_{}", (venuekey % 20).abs())
    }

    /// Year of (venue, volume).
    pub(crate) fn year_of_volume(venuekey: i64, volume: i64) -> i64 {
        1970 + ((venuekey * 7 + volume) % 55).abs()
    }
}

const ETYPES: [&str; 4] = ["article", "inproceedings", "book", "phdthesis"];

fn gen_tuple(tid: Tid, cfg: &DblpConfig, rng: &mut StdRng) -> Tuple {
    let venuekey = rng.random_range(0..cfg.n_venues as i64);
    let volume = rng.random_range(1..60i64);
    let author = format!("Author_{:05}", rng.random_range(0..cfg.n_authors));
    let title = format!("Title of paper {tid}");
    let mut venue = truth::venue_name(venuekey);
    let mut publisher = truth::publisher_of_venue(venuekey);
    let mut year = truth::year_of_volume(venuekey, volume);

    if rng.random_bool(cfg.error_rate) {
        match rng.random_range(0..3) {
            0 => venue = format!("VENUE_ERR{}", rng.random_range(0..100)),
            1 => publisher = format!("PUBLISHER_ERR{}", rng.random_range(0..10)),
            _ => year = 1900 + rng.random_range(0..70),
        }
    }

    Tuple::new(
        tid,
        vec![
            Value::int(tid as i64),
            Value::str(author),
            Value::str(title),
            Value::int(venuekey),
            Value::str(venue),
            Value::str(publisher),
            Value::int(volume),
            Value::int(year),
            Value::str(format!("{}-{}", volume * 10, volume * 10 + 9)),
            Value::str(ETYPES[rng.random_range(0..ETYPES.len())]),
        ],
    )
}

/// Generate the base relation.
pub fn generate(cfg: &DblpConfig) -> (Arc<Schema>, Relation) {
    let schema = dblp_schema();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut d = Relation::new(schema.clone());
    for tid in 0..cfg.n_rows as Tid {
        d.insert(gen_tuple(tid, cfg, &mut rng)).expect("fresh tids");
    }
    (schema, d)
}

/// Generate `n` fresh tuples with tids from `start` (for insertions).
pub fn generate_fresh(cfg: &DblpConfig, start: Tid, n: usize, seed: u64) -> Vec<Tuple> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n as Tid)
        .map(|i| gen_tuple(start + i, cfg, &mut rng))
        .collect()
}

/// Default vertical scheme over `n` sites.
pub fn vertical_scheme(schema: &Arc<Schema>, n: usize) -> VerticalScheme {
    VerticalScheme::round_robin(schema.clone(), n).expect("round robin covers schema")
}

/// Default horizontal scheme: hash on the key over `n` sites.
pub fn horizontal_scheme(schema: &Arc<Schema>, n: usize) -> HorizontalScheme {
    HorizontalScheme::by_hash(schema.clone(), schema.key(), n).expect("hash scheme")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_sized() {
        let cfg = DblpConfig {
            n_rows: 300,
            ..DblpConfig::default()
        };
        let (_, a) = generate(&cfg);
        let (_, b) = generate(&cfg);
        assert_eq!(a.len(), 300);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn clean_data_satisfies_rules() {
        let cfg = DblpConfig {
            n_rows: 500,
            error_rate: 0.0,
            ..DblpConfig::default()
        };
        let (s, d) = generate(&cfg);
        let rules = crate::rules::dblp_rules(&s, 8, 3);
        let v = cfd::naive::detect(&rules, &d);
        assert!(v.is_empty());
    }

    #[test]
    fn errors_create_violations() {
        let cfg = DblpConfig {
            n_rows: 3000,
            error_rate: 0.1,
            ..DblpConfig::default()
        };
        let (s, d) = generate(&cfg);
        let rules = crate::rules::dblp_rules(&s, 8, 3);
        assert!(!cfd::naive::detect(&rules, &d).is_empty());
    }
}
