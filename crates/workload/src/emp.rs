//! The paper's running example: the EMP relation (Fig. 2), the CFDs of
//! Fig. 1, and the partitions used in Examples 1–9.

use cfd::Cfd;
use cluster::partition::{HorizontalScheme, VerticalScheme};
use relation::{Relation, Schema, Tid, Tuple, Value};
use std::sync::Arc;

/// The EMP schema:
/// `EMP(id, name, sex, grade, street, city, zip, CC, AC, phn, salary, hd)`.
pub fn emp_schema() -> Arc<Schema> {
    Schema::new(
        "EMP",
        &[
            "id", "name", "sex", "grade", "street", "city", "zip", "CC", "AC", "phn", "salary",
            "hd",
        ],
        "id",
    )
    .expect("EMP schema is valid")
}

#[allow(clippy::too_many_arguments)]
fn emp_tuple(
    tid: Tid,
    name: &str,
    sex: &str,
    grade: &str,
    street: &str,
    city: &str,
    zip: &str,
    cc: i64,
    ac: i64,
    phn: &str,
    salary: &str,
    hd: &str,
) -> Tuple {
    Tuple::new(
        tid,
        vec![
            Value::int(tid as i64),
            Value::str(name),
            Value::str(sex),
            Value::str(grade),
            Value::str(street),
            Value::str(city),
            Value::str(zip),
            Value::int(cc),
            Value::int(ac),
            Value::str(phn),
            Value::str(salary),
            Value::str(hd),
        ],
    )
}

/// The relation `D₀` of Fig. 2 (tuples t1–t5; see [`t6`] for the insert).
pub fn emp_relation() -> (Arc<Schema>, Relation) {
    let s = emp_schema();
    let mut d = Relation::new(s.clone());
    let rows = vec![
        emp_tuple(
            1,
            "Mike",
            "M",
            "A",
            "Mayfield",
            "NYC",
            "EH4 8LE",
            44,
            131,
            "8693784",
            "65k",
            "01/10/2005",
        ),
        emp_tuple(
            2,
            "Sam",
            "M",
            "A",
            "Preston",
            "EDI",
            "EH2 4HF",
            44,
            131,
            "8765432",
            "65k",
            "01/05/2009",
        ),
        emp_tuple(
            3,
            "Molina",
            "F",
            "B",
            "Mayfield",
            "EDI",
            "EH4 8LE",
            44,
            131,
            "3456789",
            "80k",
            "01/03/2010",
        ),
        emp_tuple(
            4,
            "Philip",
            "M",
            "B",
            "Mayfield",
            "EDI",
            "EH4 8LE",
            44,
            131,
            "2909209",
            "85k",
            "01/05/2010",
        ),
        emp_tuple(
            5,
            "Adam",
            "M",
            "C",
            "Crichton",
            "EDI",
            "EH4 8LE",
            44,
            131,
            "7478626",
            "120k",
            "01/05/1995",
        ),
    ];
    for t in rows {
        d.insert(t).expect("distinct tids");
    }
    (s, d)
}

/// The tuple t6 inserted in Example 2 / Fig. 2.
pub fn t6() -> Tuple {
    emp_tuple(
        6,
        "George",
        "M",
        "C",
        "Mayfield",
        "EDI",
        "EH4 8LE",
        44,
        131,
        "9595858",
        "120k",
        "01/07/1993",
    )
}

/// The CFDs of Fig. 1:
/// `φ1: ([CC=44, zip] → [street])` and
/// `φ2: ([CC=44, AC=131] → [city=EDI])`.
pub fn emp_cfds(schema: &Schema) -> Vec<Cfd> {
    vec![
        Cfd::from_names(
            0,
            schema,
            &[("CC", Some(Value::int(44))), ("zip", None)],
            ("street", None),
        )
        .expect("φ1 is well-formed"),
        Cfd::from_names(
            1,
            schema,
            &[("CC", Some(Value::int(44))), ("AC", Some(Value::int(131)))],
            ("city", Some(Value::str("EDI"))),
        )
        .expect("φ2 is well-formed"),
    ]
}

/// The vertical partition of Fig. 2: `DV1(name, sex, grade)`,
/// `DV2(street, city, zip)`, `DV3(CC, AC, phn, salary, hd)` — each with the
/// key replica.
pub fn emp_vertical_scheme(schema: &Arc<Schema>) -> VerticalScheme {
    let a = |n: &str| schema.attr_id(n).expect("EMP attribute");
    VerticalScheme::new(
        schema.clone(),
        vec![
            vec![a("name"), a("sex"), a("grade")],
            vec![a("street"), a("city"), a("zip")],
            vec![a("CC"), a("AC"), a("phn"), a("salary"), a("hd")],
        ],
    )
    .expect("Fig. 2 scheme covers the schema")
}

/// The horizontal partition of Fig. 2: fragments by salary grade
/// `A` / `B` / `C`.
pub fn emp_horizontal_scheme(schema: &Arc<Schema>) -> HorizontalScheme {
    HorizontalScheme::by_values(
        schema.clone(),
        schema.attr_id("grade").expect("grade attribute"),
        vec![
            vec![Value::str("A")],
            vec![Value::str("B")],
            vec![Value::str("C")],
        ],
    )
    .expect("three grade fragments")
}

/// Configuration for the *scaled* synthetic EMP generator — the Fig. 2
/// relation grown to load-test size while keeping the Fig. 1 dependency
/// structure: `[CC=44, zip] → street` holds via a ground-truth
/// `zip → street` function and `[CC=44, AC=131] → city=EDI` holds by
/// construction, each broken at `error_rate`.
#[derive(Debug, Clone)]
pub struct EmpConfig {
    /// Number of tuples.
    pub n_rows: usize,
    /// Distinct zip codes (controls φ1 group sizes).
    pub n_zips: usize,
    /// Probability that a tuple corrupts one dependent attribute.
    pub error_rate: f64,
    /// RNG seed — same seed, same relation.
    pub seed: u64,
}

impl Default for EmpConfig {
    fn default() -> Self {
        EmpConfig {
            n_rows: 5_000,
            n_zips: 150,
            error_rate: 0.02,
            seed: 2012,
        }
    }
}

/// Ground-truth functions for the scaled EMP hierarchy.
pub(crate) mod truth {
    /// Zip code of a zip index.
    pub(crate) fn zip_code(zip_idx: i64) -> String {
        format!("EH{zip_idx:03} {}XX", zip_idx % 9)
    }

    /// Street determined by a zip (the clean φ1 right-hand side).
    pub(crate) fn street_of_zip(zip_idx: i64) -> String {
        format!("Street-{zip_idx:04}")
    }
}

fn gen_scaled_tuple(tid: Tid, cfg: &EmpConfig, rng: &mut rand::rngs::StdRng) -> Tuple {
    use rand::Rng;
    let zip_idx = rng.random_range(0..cfg.n_zips as i64);
    let mut street = truth::street_of_zip(zip_idx);
    let mut city = "EDI".to_string();
    if rng.random_bool(cfg.error_rate) {
        if rng.random_bool(0.5) {
            street = format!("Street-ERR{}", rng.random_range(0..1_000));
        } else {
            city = format!("CITY_ERR{}", rng.random_range(0..100));
        }
    }
    let grade = ["A", "B", "C"][rng.random_range(0..3usize)];
    emp_tuple(
        tid,
        &format!("Emp#{tid:06}"),
        ["M", "F"][rng.random_range(0..2usize)],
        grade,
        &street,
        &city,
        &truth::zip_code(zip_idx),
        44,
        131,
        &format!("{:07}", rng.random_range(0..10_000_000i64)),
        &format!("{}k", 40 + 10 * rng.random_range(0..12i64)),
        "01/01/2010",
    )
}

/// Generate the scaled base relation (schema and CFDs are the Fig. 1/2
/// ones: [`emp_schema`], [`emp_cfds`]).
pub fn generate(cfg: &EmpConfig) -> (Arc<Schema>, Relation) {
    use rand::SeedableRng;
    let schema = emp_schema();
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
    let mut d = Relation::new(schema.clone());
    for tid in 0..cfg.n_rows as Tid {
        d.insert(gen_scaled_tuple(tid, cfg, &mut rng))
            .expect("fresh tids");
    }
    (schema, d)
}

/// Generate `n` fresh tuples with tids from `start` (for insertions).
pub fn generate_fresh(cfg: &EmpConfig, start: Tid, n: usize, seed: u64) -> Vec<Tuple> {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n as Tid)
        .map(|i| gen_scaled_tuple(start + i, cfg, &mut rng))
        .collect()
}

/// A `CITIES(cid, city)` reference relation for the inclusion dependency
/// `EMP[city] ⊆ CITIES[city]` of the validation suite: one row per
/// distinct city of `d0`, with `coverage` in `[0, 1]` controlling how many
/// of those cities are actually listed (1.0 ⇒ the IND holds on `d0`;
/// lower ⇒ deterministic tail of dangling cities). Tids are `1..`.
pub fn city_reference(d0: &Relation, coverage: f64) -> Relation {
    let city = d0.schema().attr_id("city").expect("EMP has a city column");
    let mut cities: Vec<Value> = Vec::new();
    for t in d0.iter() {
        let v = t.get(city).clone();
        if !cities.contains(&v) {
            cities.push(v);
        }
    }
    cities.sort();
    let keep = ((cities.len() as f64) * coverage).round() as usize;
    let schema = Schema::new("CITIES", &["cid", "city"], "cid").expect("CITIES schema is valid");
    let mut r = Relation::new(schema);
    for (i, c) in cities.into_iter().take(keep).enumerate() {
        let tid = i as Tid + 1;
        r.insert(Tuple::new(tid, vec![Value::int(tid as i64), c]))
            .expect("fresh tids");
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_violations_reproduced_centrally() {
        let (s, d) = emp_relation();
        let cfds = emp_cfds(&s);
        let v = cfd::naive::detect(&cfds, &d);
        assert_eq!(v.tids_sorted(), vec![1, 3, 4, 5]);
        let mut phi1: Vec<Tid> = v.of_cfd(0).iter().collect();
        phi1.sort_unstable();
        assert_eq!(phi1, vec![1, 3, 4, 5]);
        assert_eq!(v.of_cfd(1).iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn schemes_partition_d0() {
        let (s, d) = emp_relation();
        let vs = emp_vertical_scheme(&s);
        assert_eq!(vs.n_sites(), 3);
        let frags = vs.partition(&d);
        assert!(frags.iter().all(|f| f.len() == 5));
        let hs = emp_horizontal_scheme(&s);
        let frags = hs.partition(&d).unwrap();
        assert_eq!(
            frags.iter().map(Relation::len).collect::<Vec<_>>(),
            vec![2, 2, 1]
        );
    }

    #[test]
    fn t6_routes_to_grade_c() {
        let (s, _) = emp_relation();
        let hs = emp_horizontal_scheme(&s);
        assert_eq!(hs.route(&t6()).unwrap(), 2);
    }

    #[test]
    fn city_reference_covers_exactly_the_requested_fraction() {
        let (_, d) = emp_relation(); // cities: EDI, NYC
        let full = city_reference(&d, 1.0);
        assert_eq!(full.len(), 2);
        let half = city_reference(&d, 0.5);
        assert_eq!(half.len(), 1);
        // Deterministic: same coverage, same rows.
        let again = city_reference(&d, 0.5);
        for (a, b) in half.iter().zip(again.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn scaled_generator_is_deterministic() {
        let cfg = EmpConfig {
            n_rows: 400,
            ..EmpConfig::default()
        };
        let (_, a) = generate(&cfg);
        let (_, b) = generate(&cfg);
        assert_eq!(a.len(), 400);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x, y);
        }
        let (_, c) = generate(&EmpConfig { seed: 1, ..cfg });
        assert!(a.iter().zip(c.iter()).any(|(x, y)| x != y));
    }

    #[test]
    fn clean_scaled_data_satisfies_fig1_cfds() {
        let cfg = EmpConfig {
            n_rows: 600,
            error_rate: 0.0,
            ..EmpConfig::default()
        };
        let (s, d) = generate(&cfg);
        let v = cfd::naive::detect(&emp_cfds(&s), &d);
        assert!(v.is_empty(), "error-free scaled EMP must satisfy Fig. 1");
    }

    #[test]
    fn scaled_errors_create_violations_and_partition() {
        let cfg = EmpConfig {
            n_rows: 1_000,
            error_rate: 0.1,
            ..EmpConfig::default()
        };
        let (s, d) = generate(&cfg);
        assert!(!cfd::naive::detect(&emp_cfds(&s), &d).is_empty());
        // The Fig. 2 schemes still apply at scale.
        let frags = emp_horizontal_scheme(&s).partition(&d).unwrap();
        assert_eq!(frags.iter().map(Relation::len).sum::<usize>(), 1_000);
        assert!(frags.iter().all(|f| f.len() > 100), "all grades populated");
    }
}
