//! Shared-plan differential suite: operator-level sharing must be a pure
//! execution strategy. For every detection strategy and every workload,
//! driving the same update stream under [`SharingMode::Shared`] and
//! [`SharingMode::PerCfd`] must produce bit-identical violations, `ΔV`
//! *and* modeled network traffic — sharing changes how candidates are
//! generated, never what ships or what is detected.
//!
//! Plus the structural property tests: the shared dispatch agrees with a
//! naive `matches_lhs` scan on random tuples, and key groups only ever
//! merge CFDs whose LHS attribute lists are *identical* (residual
//! restricts stay per-CFD — incompatible patterns are never merged).

use cfd::{Cfd, MatchScratch, SharedPlan};
use inc_cfd::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use workload::family::{cfd_family, FamilyConfig};
use workload::updates::{self, UpdateMix};

/// All nine strategies over one instance, pinned to one sharing mode.
fn strategies(
    schema: &Arc<Schema>,
    cfds: &[Cfd],
    vscheme: VerticalScheme,
    hscheme: HorizontalScheme,
    yscheme: HybridScheme,
    d0: &Relation,
    mode: SharingMode,
) -> Vec<Box<dyn Detector>> {
    let b = || DetectorBuilder::new(schema.clone(), cfds.to_vec()).sharing(mode);
    vec![
        b().vertical(vscheme.clone()).build_dyn(d0).expect("incVer"),
        b().vertical(vscheme.clone())
            .optimized(incdetect::optimize::OptimizeConfig::default())
            .build_dyn(d0)
            .expect("incVer/optVer"),
        b().horizontal(hscheme.clone())
            .build_dyn(d0)
            .expect("incHor"),
        b().horizontal(hscheme.clone())
            .raw_values()
            .build_dyn(d0)
            .expect("incHor/raw"),
        b().hybrid(yscheme).build_dyn(d0).expect("incHyb"),
        b().baseline(BaselineStrategy::BatVer(vscheme.clone()))
            .build_dyn(d0)
            .expect("batVer"),
        b().baseline(BaselineStrategy::BatHor(hscheme.clone()))
            .build_dyn(d0)
            .expect("batHor"),
        b().baseline(BaselineStrategy::IbatVer(vscheme))
            .build_dyn(d0)
            .expect("ibatVer"),
        b().baseline(BaselineStrategy::IbatHor(hscheme))
            .build_dyn(d0)
            .expect("ibatHor"),
    ]
}

/// Drive both modes in lockstep over `batches`, asserting bit-identity
/// after every batch: `V`, `ΔV`, and the full per-tier modeled traffic.
fn assert_modes_identical(
    schema: &Arc<Schema>,
    cfds: &[Cfd],
    vscheme: VerticalScheme,
    hscheme: HorizontalScheme,
    yscheme: HybridScheme,
    d0: &Relation,
    batches: &[UpdateBatch],
) {
    let mut shared = strategies(
        schema,
        cfds,
        vscheme.clone(),
        hscheme.clone(),
        yscheme.clone(),
        d0,
        SharingMode::Shared,
    );
    let mut per_cfd = strategies(
        schema,
        cfds,
        vscheme,
        hscheme,
        yscheme,
        d0,
        SharingMode::PerCfd,
    );
    for (s, p) in shared.iter_mut().zip(&mut per_cfd) {
        assert_eq!(s.strategy(), p.strategy());
        let name = s.strategy();
        assert_eq!(
            s.violations().marks_sorted(),
            p.violations().marks_sorted(),
            "{name}: initial V diverged"
        );
        for (i, b) in batches.iter().enumerate() {
            let dv_s = s.apply(b).expect("shared apply");
            let dv_p = p.apply(b).expect("per-CFD apply");
            assert_eq!(dv_s, dv_p, "{name}: ΔV diverged at batch {i}");
            assert_eq!(
                s.violations().marks_sorted(),
                p.violations().marks_sorted(),
                "{name}: V diverged at batch {i}"
            );
            let (net_s, net_p) = (s.net(), p.net());
            assert_eq!(
                net_s.total_bytes(),
                net_p.total_bytes(),
                "{name}: modeled |M| diverged at batch {i}"
            );
            assert_eq!(
                net_s.total_eqids(),
                net_p.total_eqids(),
                "{name}: eqid shipment diverged at batch {i}"
            );
            for (tier, stats) in net_s.tiers() {
                let other = net_p.tier(tier).expect("same tiers in both modes");
                assert_eq!(
                    stats.to_bytes(),
                    other.to_bytes(),
                    "{name}: tier {tier} byte matrix diverged at batch {i}"
                );
            }
        }
    }
}

#[test]
fn sharing_is_invisible_on_emp() {
    let (schema, d0) = workload::emp::emp_relation();
    let sigma = workload::emp::emp_cfds(&schema);
    let vscheme = workload::emp::emp_vertical_scheme(&schema);
    let hscheme = workload::emp::emp_horizontal_scheme(&schema);
    let yscheme = HybridScheme::uniform(schema.clone(), 2, 2).expect("hybrid scheme");

    let mut b1 = UpdateBatch::new();
    b1.insert(workload::emp::t6());
    let mut b2 = UpdateBatch::new();
    b2.delete(4);
    b2.delete(2);
    let mut b3 = UpdateBatch::new();
    b3.delete(5);
    b3.insert(workload::emp::t6()); // modification of tid 6
    assert_modes_identical(
        &schema,
        &sigma,
        vscheme,
        hscheme,
        yscheme,
        &d0,
        &[b1, b2, b3],
    );
}

#[test]
fn sharing_is_invisible_on_dblp() {
    let cfg = workload::dblp::DblpConfig {
        n_rows: 300,
        n_venues: 25,
        n_authors: 100,
        error_rate: 0.06,
        seed: 9,
    };
    let (schema, d0) = workload::dblp::generate(&cfg);
    let sigma = workload::rules::dblp_rules(&schema, 12, 4);
    let vscheme = workload::dblp::vertical_scheme(&schema, 4);
    let hscheme = workload::dblp::horizontal_scheme(&schema, 4);
    let yscheme = HybridScheme::uniform(schema.clone(), 2, 2).expect("hybrid scheme");

    let mut mirror = d0.clone();
    let mut batches = Vec::new();
    let mut next_tid = 1_000_000u64;
    for round in 0..3u64 {
        let fresh = workload::dblp::generate_fresh(&cfg, next_tid, 30, round + 1);
        next_tid += 30;
        let delta = updates::generate(
            &mirror,
            &fresh,
            40,
            UpdateMix {
                insert_fraction: 0.7,
            },
            round ^ 0x55,
        );
        delta
            .normalize(&mirror.clone())
            .apply(&mut mirror)
            .expect("mirror applies");
        batches.push(delta);
    }
    assert_modes_identical(&schema, &sigma, vscheme, hscheme, yscheme, &d0, &batches);
}

#[test]
fn sharing_is_invisible_on_a_generated_64_cfd_family() {
    let tcfg = workload::tpch::TpchConfig {
        n_rows: 300,
        seed: 13,
        ..workload::tpch::TpchConfig::default()
    };
    let (schema, d0) = workload::tpch::generate(&tcfg);
    let sigma = cfd_family(
        &schema,
        &d0,
        &FamilyConfig {
            n: 64,
            overlap: 0.85,
            seed: 21,
            ..FamilyConfig::default()
        },
    );
    let vscheme = workload::tpch::vertical_scheme(&schema, 5);
    let hscheme = workload::tpch::horizontal_scheme(&schema, 5);
    let yscheme = HybridScheme::uniform(schema.clone(), 2, 3).expect("hybrid scheme");

    let mut mirror = d0.clone();
    let mut batches = Vec::new();
    let mut next_tid = 1_000_000u64;
    for round in 0..2u64 {
        let fresh = workload::tpch::generate_fresh(&tcfg, next_tid, 60, round + 3);
        next_tid += 60;
        let delta = updates::generate(
            &mirror,
            &fresh,
            60,
            UpdateMix {
                insert_fraction: 0.8,
            },
            round ^ 0xA1,
        );
        delta
            .normalize(&mirror.clone())
            .apply(&mut mirror)
            .expect("mirror applies");
        batches.push(delta);
    }
    assert_modes_identical(&schema, &sigma, vscheme, hscheme, yscheme, &d0, &batches);
}

/// Per-operator §6 state under a catalog whose rules share operators (the
/// `cfd_sweep` family: 256 patterns over 8 LHS lists, ≈ 5 CFDs per
/// `(X → B)`): every horizontal runtime tracks `cfd::naive::detect` batch
/// by batch, both candidate producers drive the one protocol identically,
/// and against the per-CFD protocol of the parent commit it sends the same
/// number of messages over every link and strictly fewer modeled bytes —
/// an id per operator instead of per CFD, a `DelReply`'s RHS values once
/// per operator.
#[test]
fn operator_state_ships_the_parents_messages_in_fewer_bytes() {
    use cluster::codec::CodecKind;
    use cluster::net::TransportKind;
    use incdetect::ConcurrentHorizontal;

    /// Totals of this stream at `bb5c0c3` (PR 17, group state per CFD),
    /// recorded by running this test there: per runtime, the messages per
    /// link (every tier's `src × dst` matrix, row-major) and the modeled
    /// bytes.
    const HOR_LINKS: &[u64] = &[0, 90, 92, 95, 84, 0, 82, 90, 100, 97, 0, 99, 103, 99, 94, 0];
    #[rustfmt::skip]
    const HYB_LINKS: &[u64] = &[
        0, 178, 175, 0,
        0, 0, 0, 0, 0, 0, 436, 0, 0, 0, 0, 0, 479, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 404, 0, 0, 0, 0, 0, 427, 0, 0,
    ];
    const PARENT: [(&str, &[u64], u64); 5] = [
        ("incHor md5", HOR_LINKS, 77_286),
        ("incHor raw", HOR_LINKS, 78_351),
        ("incHor dict", HOR_LINKS, 42_448),
        ("incHor threaded", HOR_LINKS, 77_286),
        ("incHyb", HYB_LINKS, 117_562),
    ];

    let tcfg = workload::tpch::TpchConfig {
        n_rows: 2_000,
        n_customers: 100,
        n_parts: 60,
        n_suppliers: 20,
        error_rate: 0.02,
        seed: 42,
    };
    let (schema, d0) = workload::tpch::generate(&tcfg);
    let family = FamilyConfig {
        n: 256,
        overlap: 1.0 - 8.0 / 256.0,
        seed: 0xCFD,
        ..FamilyConfig::default()
    };
    let sigma = cfd_family(&schema, &d0, &family);
    let hscheme = workload::tpch::horizontal_scheme(&schema, 4);
    let yscheme = HybridScheme::uniform(schema.clone(), 2, 3).expect("hybrid scheme");

    // Four mixed batches: inserts over deletes, RHS rewrites of base
    // tuples, deletes over inserts, and an even mix.
    let rhs = sigma.iter().find(|c| c.is_variable()).expect("a rule").rhs;
    let fresh = workload::tpch::generate_fresh(&tcfg, 1_000_000, 240, 3);
    let mut mirror = d0.clone();
    let mut batches = Vec::new();
    for (step, fresh) in fresh.chunks(80).enumerate() {
        let mix = |insert_fraction| UpdateMix { insert_fraction };
        if step == 1 {
            batches.push(updates::generate_modifications(
                &mirror,
                150,
                11,
                |t, rng| updates::corrupt_attr(t, rhs, rng),
            ));
            let delta = batches[1].normalize(&mirror);
            delta.apply(&mut mirror).expect("mirror applies");
        }
        let insert_fraction = [0.7, 0.3, 0.5][step];
        let n = (fresh.len() as f64 / insert_fraction) as usize;
        let delta = updates::generate(&mirror, fresh, n, mix(insert_fraction), step as u64 ^ 0x5A);
        delta
            .normalize(&mirror)
            .apply(&mut mirror)
            .expect("mirror applies");
        batches.push(delta);
    }
    assert_eq!(batches.len(), 4);

    let b = |mode| DetectorBuilder::new(schema.clone(), sigma.clone()).sharing(mode);
    let hor = |mode, codec| {
        b(mode)
            .horizontal(hscheme.clone())
            .codec(codec)
            .build_dyn(&d0)
            .expect("incHor")
    };
    let threaded = |_| -> Box<dyn Detector> {
        Box::new(
            ConcurrentHorizontal::threaded(
                schema.clone(),
                sigma.clone(),
                hscheme.clone(),
                &d0,
                CodecKind::Md5,
                TransportKind::Framed,
            )
            .expect("threaded incHor"),
        )
    };
    let hyb = |mode| {
        b(mode)
            .hybrid(yscheme.clone())
            .build_dyn(&d0)
            .expect("incHyb")
    };
    type Build<'a> = Box<dyn Fn(SharingMode) -> Box<dyn Detector> + 'a>;
    let runtimes: [Build<'_>; 5] = [
        Box::new(|mode| hor(mode, CodecKind::Md5)),
        Box::new(|mode| hor(mode, CodecKind::RawValues)),
        Box::new(|mode| hor(mode, CodecKind::Dict)),
        // The threaded runtime has one candidate producer.
        Box::new(threaded),
        Box::new(hyb),
    ];

    let mut md5_matrix = Vec::new();
    for (build, (name, parent_links, parent_bytes)) in runtimes.iter().zip(PARENT) {
        let (mut shared, mut per_cfd) = (build(SharingMode::Shared), build(SharingMode::PerCfd));
        let mut oracle = cfd::naive::detect(&sigma, &d0);
        assert_eq!(shared.violations().marks_sorted(), oracle.marks_sorted());
        for (i, batch) in batches.iter().enumerate() {
            let dv = shared.apply(batch).expect("shared apply");
            assert_eq!(
                dv,
                per_cfd.apply(batch).expect("per-CFD apply"),
                "{name}: ΔV of batch {i} depends on the mode"
            );
            let next = cfd::naive::detect(&sigma, shared.current());
            assert_eq!(dv, oracle.diff(&next), "{name}: ΔV of batch {i}");
            oracle = next;
        }
        assert!(shared.current().iter().eq(mirror.iter()));
        assert_eq!(shared.violations().marks_sorted(), oracle.marks_sorted());
        assert_eq!(per_cfd.violations().marks_sorted(), oracle.marks_sorted());

        let (net, net_p) = (shared.net(), per_cfd.net());
        let mut links = Vec::new();
        for (tier, stats) in net.tiers() {
            let other = net_p.tier(tier).expect("same tiers in both modes");
            assert_eq!(stats.to_bytes(), other.to_bytes(), "{name}: tier {tier}");
            let n = stats.n_sites();
            let pairs = (0..n).flat_map(|src| (0..n).map(move |dst| (src, dst)));
            links.extend(pairs.map(|(src, dst)| stats.pair(src, dst).messages));
        }
        assert_eq!(links, parent_links, "{name}: messages per link");
        assert!(
            net.total_bytes() < parent_bytes,
            "{name}: {} modeled bytes, the per-CFD protocol shipped {parent_bytes}",
            net.total_bytes()
        );
        // One protocol, whoever drives it: threads ship what the
        // synchronous drive ships.
        match name {
            "incHor md5" => md5_matrix = net.tiers()[0].1.to_bytes(),
            "incHor threaded" => assert_eq!(net.tiers()[0].1.to_bytes(), md5_matrix),
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------
// Structural properties of the shared plan itself
// ---------------------------------------------------------------------

/// The shared dispatch pass is exactly the set `{φ : t ⊨ lhs(φ)}`, in
/// ascending id order, on random tuples against random families.
#[test]
fn dispatch_agrees_with_naive_matches_lhs() {
    let tcfg = workload::tpch::TpchConfig {
        n_rows: 150,
        seed: 29,
        ..workload::tpch::TpchConfig::default()
    };
    let (schema, d0) = workload::tpch::generate(&tcfg);
    let mut rng = StdRng::seed_from_u64(0xD15);
    for trial in 0..8u64 {
        let fam = cfd_family(
            &schema,
            &d0,
            &FamilyConfig {
                n: 1 + (trial as usize * 7) % 50,
                overlap: (trial as f64) / 8.0,
                seed: trial,
                ..FamilyConfig::default()
            },
        );
        let plan = SharedPlan::new(&fam);
        let mut scratch = MatchScratch::default();
        let rows: Vec<Tuple> = d0.iter().collect();
        for _ in 0..40 {
            let t = &rows[rng.random_range(0..rows.len())];
            let naive: Vec<u32> = fam
                .iter()
                .filter(|c| c.matches_lhs(t))
                .map(|c| c.id)
                .collect();
            assert_eq!(
                plan.matched(t, &mut scratch),
                &naive[..],
                "dispatch diverged on trial {trial}"
            );
        }
    }
}

/// Key groups merge *only* CFDs with identical LHS attribute lists:
/// same-group CFDs share one group-by pass but keep their own residual
/// restricts, so no two CFDs with different LHSs (or any constant CFD)
/// ever land in one group.
#[test]
fn key_groups_only_merge_identical_lhs_lists() {
    let tcfg = workload::tpch::TpchConfig {
        n_rows: 100,
        seed: 31,
        ..workload::tpch::TpchConfig::default()
    };
    let (schema, d0) = workload::tpch::generate(&tcfg);
    for seed in 0..6u64 {
        let fam = cfd_family(
            &schema,
            &d0,
            &FamilyConfig {
                n: 48,
                overlap: 0.7,
                seed,
                ..FamilyConfig::default()
            },
        );
        let plan = SharedPlan::new(&fam);
        for c in &fam {
            match plan.group_of(c.id) {
                None => assert!(c.is_constant(), "variable CFD must join a group"),
                Some(g) => {
                    assert!(c.is_variable(), "constant CFDs never group");
                    let (lhs, ids) = &plan.key_groups()[g];
                    assert_eq!(lhs, &c.lhs, "grouped under a foreign LHS list");
                    assert!(ids.contains(&c.id));
                    // Every sibling shares the LHS list bit-for-bit, even
                    // when its residual constant pattern differs.
                    for &sib in ids {
                        assert_eq!(
                            fam[sib as usize].lhs, c.lhs,
                            "group merged two distinct LHS lists"
                        );
                    }
                }
            }
        }
    }
}

/// Operators merge *only* CFDs with the identical LHS list (in LHS order)
/// and the identical RHS attribute, and merge all of those: the group a
/// tuple enters is then the same for every rule of the operator, whatever
/// their patterns.
#[test]
fn operators_only_merge_identical_lhs_list_and_rhs() {
    let tcfg = workload::tpch::TpchConfig {
        n_rows: 100,
        seed: 31,
        ..workload::tpch::TpchConfig::default()
    };
    let (schema, d0) = workload::tpch::generate(&tcfg);
    for seed in 0..6u64 {
        let fam = cfd_family(
            &schema,
            &d0,
            &FamilyConfig {
                n: 48,
                overlap: 0.7,
                seed,
                ..FamilyConfig::default()
            },
        );
        let plan = SharedPlan::new(&fam);
        let mut seen = std::collections::BTreeSet::new();
        for (g, b, ids) in plan.operators() {
            assert!(seen.insert((g, b)), "one embedded FD, two operators");
            assert!(ids.is_sorted() && !ids.is_empty());
        }
        for c in &fam {
            let Some(o) = plan.operator_of(c.id) else {
                assert!(c.is_constant(), "a variable CFD must have an operator");
                continue;
            };
            assert!(c.is_variable(), "constant CFDs keep no group state");
            let (g, b, ids) = &plan.operators()[o as usize];
            assert_eq!(Some(*g), plan.group_of(c.id));
            assert_eq!((&plan.key_groups()[*g].0, *b), (&c.lhs, c.rhs));
            assert!(ids.contains(&c.id));
            for &sib in ids {
                let sib = &fam[sib as usize];
                assert_eq!((&sib.lhs, sib.rhs), (&c.lhs, c.rhs), "a foreign FD merged");
            }
        }
        let variable = fam.iter().filter(|c| c.is_variable()).count();
        let members: usize = plan.operators().iter().map(|o| o.2.len()).sum();
        assert_eq!(members, variable);
    }
}
