//! Integration tests for the extension surfaces: the hybrid detector
//! (§8 future work), the SQL/algebra second oracle (§2.3), and CSV I/O
//! feeding the detectors.

mod common;

use common::{algebra, sqlgen};
use inc_cfd::prelude::*;
use std::sync::Arc;
use workload::tpch::{self, TpchConfig};
use workload::updates::{self, UpdateMix};

fn tpch_small() -> (std::sync::Arc<Schema>, Relation, Vec<Cfd>, TpchConfig) {
    let cfg = TpchConfig {
        n_rows: 600,
        n_customers: 50,
        n_parts: 30,
        n_suppliers: 12,
        error_rate: 0.05,
        seed: 17,
    };
    let (s, d) = tpch::generate(&cfg);
    let cfds = workload::rules::tpch_rules(&s, 20, 4);
    (s, d, cfds, cfg)
}

#[test]
fn hybrid_detector_matches_oracle_over_update_rounds() {
    let (s, mut d, cfds, cfg) = tpch_small();
    let scheme = HybridScheme::uniform(s.clone(), 3, 3).unwrap();
    let suite = Suite::on(s.clone()).cfds(cfds.clone());
    let mut det = suite
        .strategy(Strategy::Hybrid(scheme))
        .build_detector(&d)
        .unwrap();
    let oracle0 = cfd::naive::detect(&cfds, &d);
    assert_eq!(det.violations().marks_sorted(), oracle0.marks_sorted());

    for round in 0..3u64 {
        let fresh = tpch::generate_fresh(&cfg, 1_000_000 + round * 1000, 60, round + 1);
        let delta = updates::generate(
            &d,
            &fresh,
            75,
            UpdateMix {
                insert_fraction: 0.8,
            },
            round ^ 0x51,
        );
        det.apply(&delta).unwrap();
        delta.normalize(&d.clone()).apply(&mut d).unwrap();
        let oracle = cfd::naive::detect(&cfds, &d);
        assert_eq!(
            det.violations().marks_sorted(),
            oracle.marks_sorted(),
            "round {round} diverged"
        );
    }
    let net = det.net();
    assert!(net.total_bytes() > 0, "hybrid traffic is metered");
    assert!(
        net.tier("intra").unwrap().total_bytes() > 0,
        "assembly is metered"
    );
}

#[test]
fn algebra_oracle_agrees_with_naive_on_workloads() {
    let (_, d, cfds, _) = tpch_small();
    let a = algebra::detect(&cfds, &d);
    let b = cfd::naive::detect(&cfds, &d);
    assert_eq!(a.marks_sorted(), b.marks_sorted());

    let dcfg = workload::dblp::DblpConfig {
        n_rows: 500,
        error_rate: 0.06,
        ..workload::dblp::DblpConfig::default()
    };
    let (sd, dd) = workload::dblp::generate(&dcfg);
    let rules = workload::rules::dblp_rules(&sd, 12, 5);
    assert_eq!(
        algebra::detect(&rules, &dd).marks_sorted(),
        cfd::naive::detect(&rules, &dd).marks_sorted()
    );
}

#[test]
fn sqlgen_produces_queries_for_generated_rule_sets() {
    let (s, _, cfds, _) = tpch_small();
    let (qc, qv) = sqlgen::two_queries(&s, &cfds);
    let qc = qc.expect("rule set contains constant CFDs");
    let qv = qv.expect("rule set contains variable CFDs");
    // Structural sanity of the generated SQL.
    assert!(qc.contains("UNION ALL"));
    assert!(qv.contains("HAVING COUNT(DISTINCT"));
    assert_eq!(
        qv.matches("GROUP BY").count(),
        cfds.iter().filter(|c| c.is_variable()).count()
    );
    for c in &cfds {
        if c.is_constant() {
            let q = sqlgen::constant_query(&s, c).unwrap();
            assert!(q.contains(&format!("\"{}\"", s.attr_name(c.rhs))));
        }
    }
}

#[test]
fn csv_round_trip_preserves_detection_results() {
    let (_, d, cfds, _) = tpch_small();
    let text = relation::csv::write_str(&d);
    let d2 = relation::csv::read_str("ORDERS_WIDE", &text).unwrap();
    assert_eq!(d.len(), d2.len());
    // Same schema attribute names → the same CFD ids apply.
    let v1 = cfd::naive::detect(&cfds, &d);
    let v2 = cfd::naive::detect(&cfds, &d2);
    assert_eq!(v1.marks_sorted(), v2.marks_sorted());
}

#[test]
fn csv_loaded_relation_drives_detectors() {
    let csv = "\
id,grade,CC,AC,zip,street,city
1,A,44,131,EH4 8LE,Mayfield,NYC
2,A,44,131,EH2 4HF,Preston,EDI
3,B,44,131,EH4 8LE,Mayfield,EDI
4,B,44,131,EH4 8LE,Mayfield,EDI
5,C,44,131,EH4 8LE,Crichton,EDI
";
    let d = relation::csv::read_str("EMP", csv).unwrap();
    let s = d.schema().clone();
    let sigma = cfd::parse::parse_cfds(
        &s,
        "([CC=44, zip] -> [street])\n([CC=44, AC=131] -> [city=EDI])\n",
    )
    .unwrap();
    let scheme = cluster::partition::VerticalScheme::round_robin(s.clone(), 3).unwrap();
    let suite = Suite::on(s)
        .cfds(sigma)
        .strategy(Strategy::Vertical(scheme));
    let det = suite.build_detector(&d).unwrap();
    assert_eq!(det.violations().tids_sorted(), vec![1, 3, 4, 5]);
}

// §2.3's plans and queries on Fig. 1's EMP relation.

fn fig1() -> (Arc<Schema>, Relation, Vec<Cfd>) {
    let (s, d) = workload::emp::emp_relation();
    let cfds = workload::emp::emp_cfds(&s);
    (s, d, cfds)
}

#[test]
fn plan_matches_naive_on_fig1() {
    let (_, d, cfds) = fig1();
    let a = algebra::detect(&cfds, &d);
    let b = cfd::naive::detect(&cfds, &d);
    assert_eq!(a.marks_sorted(), b.marks_sorted());
    assert_eq!(a.tids_sorted(), vec![1, 3, 4, 5]);
}

#[test]
fn run_constant_finds_single_tuple_violations() {
    let (_, d, cfds) = fig1();
    let mut tids = algebra::run_constant(&cfds[1], &d);
    tids.sort_unstable();
    assert_eq!(tids, vec![1]);
    assert!(
        algebra::run_constant(&cfds[0], &d).is_empty(),
        "variable CFD → Q_C empty"
    );
}

#[test]
fn run_variable_groups_and_filters() {
    let (_, d, cfds) = fig1();
    let mut tids = algebra::run_variable(&cfds[0], &d);
    tids.sort_unstable();
    assert_eq!(tids, vec![1, 3, 4, 5]);
    assert!(
        algebra::run_variable(&cfds[1], &d).is_empty(),
        "constant CFD → Q_V empty"
    );
}

#[test]
fn group_having_counts_distinct() {
    let (s, d, _) = fig1();
    // Group by zip, dep = street: EH4 8LE group has two streets.
    let at = |name| s.attr_id(name).unwrap();
    let groups = algebra::group_having_multiple_dep_cols(&d, |_| true, &[at("zip")], at("street"));
    assert_eq!(groups.len(), 1);
    let mut tids = groups[0].clone();
    tids.sort_unstable();
    assert_eq!(tids, vec![1, 3, 4, 5]);
}

#[test]
fn constant_query_shape() {
    let (s, _, phi) = fig1();
    let q = sqlgen::constant_query(&s, &phi[1]).unwrap();
    assert!(q.contains("\"CC\" = 44"));
    assert!(q.contains("\"AC\" = 131"));
    assert!(q.contains("<> 'EDI'"));
    assert!(q.starts_with("SELECT t.\"id\""));
    assert!(sqlgen::constant_query(&s, &phi[0]).is_none());
}

#[test]
fn variable_query_shape() {
    let (s, _, phi) = fig1();
    let q = sqlgen::variable_query(&s, &phi[0]).unwrap();
    assert!(q.contains("GROUP BY \"CC\", \"zip\""));
    assert!(q.contains("HAVING COUNT(DISTINCT \"street\") > 1"));
    assert!(q.contains("\"CC\" = 44"));
    assert!(sqlgen::variable_query(&s, &phi[1]).is_none());
}

#[test]
fn two_queries_union() {
    let (s, _, phi) = fig1();
    let (qc, qv) = sqlgen::two_queries(&s, &phi);
    assert!(qc.unwrap().contains("SELECT"));
    assert!(qv.unwrap().contains("HAVING"));
    let (qc2, qv2) = sqlgen::two_queries(&s, &phi[..1]);
    assert!(qc2.is_none());
    assert!(qv2.is_some());
}

#[test]
fn literals_escaped() {
    let (s, _, _) = fig1();
    let cfd = Cfd::from_names(
        0,
        &s,
        &[("city", Some(Value::str("O'Hare")))],
        ("street", Some(Value::str("x"))),
    )
    .unwrap();
    let q = sqlgen::constant_query(&s, &cfd).unwrap();
    assert!(q.contains("'O''Hare'"));
}

#[test]
fn wildcard_only_pattern_uses_trivial_where() {
    let (s, _, _) = fig1();
    let fd = Cfd::from_names(0, &s, &[("zip", None)], ("street", None)).unwrap();
    let q = sqlgen::variable_query(&s, &fd).unwrap();
    assert!(q.contains("1 = 1"));
}
