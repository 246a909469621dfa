//! Integration tests for the extension surfaces: the hybrid detector
//! (§8 future work), the SQL/algebra second oracle (§2.3), and CSV I/O
//! feeding the detectors.

use inc_cfd::prelude::*;
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
    let a = cfd::algebra::detect(&cfds, &d);
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
        cfd::algebra::detect(&rules, &dd).marks_sorted(),
        cfd::naive::detect(&rules, &dd).marks_sorted()
    );
}

#[test]
fn sqlgen_produces_queries_for_generated_rule_sets() {
    let (s, _, cfds, _) = tpch_small();
    let (qc, qv) = cfd::sqlgen::two_queries(&s, &cfds);
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
            let q = cfd::sqlgen::constant_query(&s, c).unwrap();
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
