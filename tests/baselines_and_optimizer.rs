//! Cross-crate integration tests for the batch baselines (`batVer`,
//! `batHor`, `ibatVer`, `ibatHor`) and the `optVer` plan optimizer on the
//! generated workloads.

use inc_cfd::prelude::*;
use incdetect::baselines;
use incdetect::optimize::{optimize, OptimizeConfig};
use incdetect::HevPlan;
use workload::dblp::{self, DblpConfig};
use workload::tpch::{self, TpchConfig};

fn tpch_small() -> (std::sync::Arc<Schema>, Relation, Vec<Cfd>) {
    let cfg = TpchConfig {
        n_rows: 800,
        n_customers: 60,
        n_parts: 40,
        n_suppliers: 15,
        error_rate: 0.05,
        seed: 11,
    };
    let (s, d) = tpch::generate(&cfg);
    let cfds = workload::rules::tpch_rules(&s, 30, 2);
    (s, d, cfds)
}

#[test]
fn all_four_baselines_agree_with_oracle_on_tpch() {
    let (s, d, cfds) = tpch_small();
    let oracle = cfd::naive::detect(&cfds, &d);
    assert!(!oracle.is_empty(), "workload must contain violations");

    let vs = tpch::vertical_scheme(&s, 6);
    let hs = tpch::horizontal_scheme(&s, 6);

    let bv = baselines::bat_ver(&cfds, &vs, &d);
    assert_eq!(
        bv.violations.marks_sorted(),
        oracle.marks_sorted(),
        "batVer"
    );

    let bh = baselines::bat_hor(&cfds, &hs, &d);
    assert_eq!(
        bh.violations.marks_sorted(),
        oracle.marks_sorted(),
        "batHor"
    );

    let iv = baselines::ibat_ver(s.clone(), cfds.clone(), vs, &d).unwrap();
    assert_eq!(
        iv.violations.marks_sorted(),
        oracle.marks_sorted(),
        "ibatVer"
    );

    let ih = baselines::ibat_hor(s, cfds, hs, &d).unwrap();
    assert_eq!(
        ih.violations.marks_sorted(),
        oracle.marks_sorted(),
        "ibatHor"
    );
}

#[test]
fn baselines_agree_with_oracle_on_dblp() {
    let cfg = DblpConfig {
        n_rows: 600,
        n_venues: 40,
        n_authors: 150,
        error_rate: 0.05,
        seed: 3,
    };
    let (s, d) = dblp::generate(&cfg);
    let cfds = workload::rules::dblp_rules(&s, 16, 3);
    let oracle = cfd::naive::detect(&cfds, &d);

    let vs = dblp::vertical_scheme(&s, 5);
    let hs = dblp::horizontal_scheme(&s, 5);
    assert_eq!(
        baselines::bat_ver(&cfds, &vs, &d).violations.marks_sorted(),
        oracle.marks_sorted()
    );
    assert_eq!(
        baselines::bat_hor(&cfds, &hs, &d).violations.marks_sorted(),
        oracle.marks_sorted()
    );
}

#[test]
fn optimizer_reduces_or_matches_default_on_real_rule_sets() {
    let (s, _, cfds) = tpch_small();
    let scheme = tpch::vertical_scheme(&s, 10);
    let default = HevPlan::default_chains(&cfds, &scheme);
    let opt = optimize(&cfds, &scheme, OptimizeConfig::default());
    opt.validate(&scheme).unwrap();
    assert!(
        opt.neqid() <= default.neqid(),
        "optVer must never regress: {} vs {}",
        opt.neqid(),
        default.neqid()
    );

    let sd = dblp::dblp_schema();
    let cfds_d = workload::rules::dblp_rules(&sd, 16, 3);
    let scheme_d = dblp::vertical_scheme(&sd, 10);
    let default_d = HevPlan::default_chains(&cfds_d, &scheme_d);
    let opt_d = optimize(&cfds_d, &scheme_d, OptimizeConfig::default());
    assert!(opt_d.neqid() <= default_d.neqid());
}

#[test]
fn optimized_plan_detects_identically_on_tpch_updates() {
    let (s, d, cfds) = tpch_small();
    let scheme = tpch::vertical_scheme(&s, 6);
    let suite = Suite::on(s.clone()).cfds(cfds.clone());
    let build = |strategy| suite.clone().strategy(strategy).build_detector(&d).unwrap();
    let mut det_def = build(Strategy::Vertical(scheme.clone()));
    let mut det_opt = build(Strategy::OptimizedVertical(
        scheme,
        OptimizeConfig::default(),
    ));

    let cfg = TpchConfig {
        n_rows: 800,
        n_customers: 60,
        n_parts: 40,
        n_suppliers: 15,
        error_rate: 0.05,
        seed: 11,
    };
    let fresh = tpch::generate_fresh(&cfg, 1_000_000_000, 120, 21);
    let delta = workload::updates::generate(
        &d,
        &fresh,
        150,
        workload::updates::UpdateMix {
            insert_fraction: 0.8,
        },
        9,
    );
    det_def.apply(&delta).unwrap();
    det_opt.apply(&delta).unwrap();
    assert_eq!(
        det_def.violations().marks_sorted(),
        det_opt.violations().marks_sorted()
    );
    // The optimized plan must not ship more eqids than the default.
    assert!(det_opt.net().total_eqids() <= det_def.net().total_eqids());
}

#[test]
fn md5_and_raw_horizontal_agree_with_less_traffic_for_md5() {
    // MD5 pays off when the shipped keys are wide (the paper ships whole
    // tuples; a 128-bit code beats any multi-attribute string key). Use
    // string-heavy LHS rules; integer-keyed rules can ship *less* raw than
    // digested — that regime is covered by the agreement check only.
    let (s, d, _) = tpch_small();
    let cfds = vec![
        Cfd::from_names(
            0,
            &s,
            &[("custname", None), ("nation", None), ("region", None)],
            ("mktsegment", None),
        )
        .unwrap(),
        Cfd::from_names(
            1,
            &s,
            &[("ptype", None), ("container", None)],
            ("brand", None),
        )
        .unwrap(),
    ];
    let hs = tpch::horizontal_scheme(&s, 6);
    let cfg = TpchConfig {
        n_rows: 800,
        n_customers: 60,
        n_parts: 40,
        n_suppliers: 15,
        error_rate: 0.05,
        seed: 11,
    };
    let fresh = tpch::generate_fresh(&cfg, 1_000_000_000, 160, 22);
    let delta = workload::updates::generate(
        &d,
        &fresh,
        200,
        workload::updates::UpdateMix {
            insert_fraction: 0.8,
        },
        10,
    );

    let suite = Suite::on(s).cfds(cfds).strategy(Strategy::Horizontal(hs));
    let build = |codec| suite.clone().codec(codec).build_detector(&d).unwrap();
    let (mut md5, mut raw) = (build(CodecKind::Md5), build(CodecKind::RawValues));
    md5.apply(&delta).unwrap();
    raw.apply(&delta).unwrap();
    assert_eq!(
        md5.violations().marks_sorted(),
        raw.violations().marks_sorted()
    );
    assert!(
        md5.net().total_bytes() <= raw.net().total_bytes(),
        "MD5 digests must not increase traffic: {} vs {}",
        md5.net().total_bytes(),
        raw.net().total_bytes()
    );
}
