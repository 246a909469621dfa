//! Shared-plan differential suite. Every incremental detector takes its
//! candidates from one [`cfd::SharedPlan`] dispatch; the per-rule loops it
//! replaced are gone, and what they metered is pinned here as literals:
//! the nine strategies on a generated 64-rule family, `incHor` / `incHyb`
//! on a family whose rules share operators, and `incVer`'s compiled walk
//! on three catalogs, each tracking `cfd::naive::detect` batch by batch.
//! The store-built detectors are held equal to replay-built ones.
//!
//! Plus the structural property tests: the shared dispatch agrees with a
//! naive `matches_lhs` scan on random tuples (the vertical and hybrid
//! producers' reference; `incHor`'s producer is checked against the same
//! scan in `horizontal::site`), and key groups only ever merge CFDs whose
//! LHS attribute lists are *identical* (residual restricts stay per-CFD —
//! incompatible patterns are never merged).

use cfd::{Cfd, MatchScratch, SharedPlan};
use inc_cfd::incdetect::optimize::{optimize, OptimizeConfig};
use inc_cfd::incdetect::HevPlan;
use inc_cfd::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use workload::family::{cfd_family, FamilyConfig};
use workload::updates::{self, UpdateMix};

/// The nine configurations pinned below over one `(schema, Σ)`: each of
/// the paper's eight algorithms once, plus `incHor` shipping raw values.
fn nine_suites(
    schema: &Arc<Schema>,
    cfds: &[Cfd],
    vscheme: &VerticalScheme,
    hscheme: &HorizontalScheme,
    yscheme: &HybridScheme,
    opt: OptimizeConfig,
) -> Vec<(&'static str, Suite)> {
    let base = Suite::on(schema.clone()).cfds(cfds.to_vec());
    let on = |strategy| base.clone().strategy(strategy);
    let (v, h) = (|| vscheme.clone(), || hscheme.clone());
    let raw = on(Strategy::Horizontal(h())).codec(CodecKind::RawValues);
    vec![
        ("incVer", on(Strategy::Vertical(v()))),
        ("optVer", on(Strategy::OptimizedVertical(v(), opt))),
        ("incHor", on(Strategy::Horizontal(h()))),
        ("incHor/raw", raw),
        ("incHyb", on(Strategy::Hybrid(yscheme.clone()))),
        ("batVer", on(Strategy::BatVer(v()))),
        ("batHor", on(Strategy::BatHor(h()))),
        ("ibatVer", on(Strategy::IbatVer(v()))),
        ("ibatHor", on(Strategy::IbatHor(h()))),
    ]
}

/// `incVer` as its concrete type, over the default chains or the `optVer`
/// plan.
fn ver(
    schema: &Arc<Schema>,
    sigma: &[Cfd],
    scheme: &VerticalScheme,
    optimized: bool,
    d: &Relation,
) -> VerticalDetector {
    let plan = if optimized {
        optimize(sigma, scheme, OptimizeConfig::default())
    } else {
        HevPlan::default_chains(sigma, scheme)
    };
    let (schema, sigma, scheme) = (schema.clone(), sigma.to_vec(), scheme.clone());
    VerticalDetector::with_plan(schema, sigma, scheme, plan, d).expect("incVer")
}

/// The nine strategies under a generated 64-rule family (overlap 0.85):
/// each tracks `cfd::naive::detect` batch by batch and ends on the
/// traffic the per-CFD candidate loops metered — per tier, messages,
/// modeled bytes and eqids, recorded at `d19a0de`, where this stream
/// asserted the shared dispatch and the loops bit-identical.
#[test]
fn nine_strategies_meter_the_per_cfd_loops_traffic_on_a_64_cfd_family() {
    /// Per strategy, per tier: `(tier, messages, bytes, eqids)`.
    type Tiers = &'static [(&'static str, u64, u64, u64)];
    const PARENT: [(&str, Tiers); 9] = [
        ("incVer", &[("net", 288, 3_752, 251)]),
        ("optVer", &[("net", 271, 3_616, 234)]),
        ("incHor", &[("net", 168, 8_124, 0)]),
        ("incHor/raw", &[("net", 168, 8_136, 0)]),
        (
            "incHyb",
            &[("inter", 25, 1_120, 0), ("intra", 207, 5_128, 0)],
        ),
        ("batVer", &[("net", 272, 857_256, 0)]),
        ("batHor", &[("net", 384, 34_918, 0)]),
        ("ibatVer", &[("net", 1_778, 27_144, 1_713)]),
        ("ibatHor", &[("net", 1_644, 90_776, 0)]),
    ];

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

    let opt = OptimizeConfig::default();
    let suites = nine_suites(&schema, &sigma, &vscheme, &hscheme, &yscheme, opt);
    for ((name, suite), (parent_name, parent)) in suites.into_iter().zip(PARENT) {
        assert_eq!(name, parent_name);
        let mut det = suite.build_detector(&d0).expect(name);
        let mut oracle = cfd::naive::detect(&sigma, &d0);
        assert_eq!(det.violations().marks_sorted(), oracle.marks_sorted());
        for (i, batch) in batches.iter().enumerate() {
            let dv = det.apply(batch).expect(name);
            let next = cfd::naive::detect(&sigma, det.current());
            assert_eq!(dv, oracle.diff(&next), "{name}: ΔV of batch {i}");
            oracle = next;
        }
        assert!(det.current().iter().eq(mirror.iter()), "{name}: D");
        assert_eq!(det.violations().marks_sorted(), oracle.marks_sorted());
        let net = det.net();
        let tiers = net.tiers().iter().map(|(tier, stats)| {
            let total = stats.total();
            (tier.as_str(), total.messages, total.bytes, total.eqids)
        });
        assert_eq!(
            tiers.collect::<Vec<_>>(),
            parent,
            "{name}: traffic per tier"
        );
    }
}

/// Per-operator §6 state under a catalog whose rules share operators (a
/// mined family: 256 patterns over 8 LHS lists, ≈ 5 CFDs per
/// `(X → B)`): every horizontal runtime tracks `cfd::naive::detect` batch
/// by batch, and against the per-CFD protocol of `bb5c0c3` it sends the same
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

    let b = |strategy| {
        Suite::on(schema.clone())
            .cfds(sigma.clone())
            .strategy(strategy)
    };
    let hor = |codec| {
        let suite = b(Strategy::Horizontal(hscheme.clone())).codec(codec);
        suite.build_detector(&d0).expect("incHor")
    };
    let threaded = || -> Box<dyn Detector> {
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
    let hyb = || {
        b(Strategy::Hybrid(yscheme.clone()))
            .build_detector(&d0)
            .expect("incHyb")
    };
    type Build<'a> = Box<dyn Fn() -> Box<dyn Detector> + 'a>;
    let runtimes: [Build<'_>; 5] = [
        Box::new(|| hor(CodecKind::Md5)),
        Box::new(|| hor(CodecKind::RawValues)),
        Box::new(|| hor(CodecKind::Dict)),
        Box::new(threaded),
        Box::new(hyb),
    ];

    let mut md5_matrix = Vec::new();
    for (build, (name, parent_links, parent_bytes)) in runtimes.iter().zip(PARENT) {
        let mut det = build();
        let mut oracle = cfd::naive::detect(&sigma, &d0);
        assert_eq!(det.violations().marks_sorted(), oracle.marks_sorted());
        for (i, batch) in batches.iter().enumerate() {
            let dv = det.apply(batch).expect("apply");
            let next = cfd::naive::detect(&sigma, det.current());
            assert_eq!(dv, oracle.diff(&next), "{name}: ΔV of batch {i}");
            oracle = next;
        }
        assert!(det.current().iter().eq(mirror.iter()));
        assert_eq!(det.violations().marks_sorted(), oracle.marks_sorted());

        let net = det.net();
        let mut links = Vec::new();
        for (_, stats) in net.tiers() {
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

/// One catalog's seeded `incVer` stream: its schema, `D₀`, `Σ`, vertical
/// scheme, plan choice and the batches (a one-op batch is an `apply_one`).
struct VerStream {
    schema: Arc<Schema>,
    d0: Relation,
    sigma: Vec<Cfd>,
    scheme: VerticalScheme,
    optimized: bool,
    batches: Vec<UpdateBatch>,
}

/// Inserts over deletes, a rewrite of `rhs` on 60 live tuples, deletes
/// over inserts, then 40 updates one at a time (inserts, deletes and
/// modifications): both batch metering and the per-`apply` kind.
fn ver_batches(d0: &Relation, fresh: &[Tuple], rhs: relation::AttrId) -> Vec<UpdateBatch> {
    let mut mirror = d0.clone();
    let mut batches = Vec::new();
    let mut push = |batch: UpdateBatch, mirror: &mut Relation| {
        batch
            .normalize(mirror)
            .apply(mirror)
            .expect("mirror applies");
        batches.push(batch);
    };
    let mix = |insert_fraction| UpdateMix { insert_fraction };
    let b = updates::generate(&mirror, &fresh[..60], 100, mix(0.6), 1);
    push(b, &mut mirror);
    let b = updates::generate_modifications(&mirror, 60, 2, |t, rng| {
        updates::corrupt_attr(t, rhs, rng)
    });
    push(b, &mut mirror);
    let b = updates::generate(&mirror, &fresh[60..90], 100, mix(0.3), 3);
    push(b, &mut mirror);
    let b = updates::generate(&mirror, &fresh[90..110], 30, mix(0.66), 4);
    let mods = updates::generate_modifications(&mirror, 10, 5, |t, rng| {
        updates::corrupt_attr(t, rhs, rng)
    });
    for op in b.ops().iter().chain(mods.ops()) {
        push(UpdateBatch::from_ops(vec![op.clone()]), &mut mirror);
    }
    batches
}

fn ver_streams() -> Vec<(&'static str, VerStream)> {
    let tcfg = workload::tpch::TpchConfig {
        n_rows: 1_000,
        n_customers: 100,
        n_parts: 60,
        n_suppliers: 20,
        error_rate: 0.02,
        seed: 42,
    };
    let (tpch, tpch_d0) = workload::tpch::generate(&tcfg);
    let tpch_sigma = workload::rules::tpch_rules(&tpch, 25, 1);
    let rhs = tpch_sigma
        .iter()
        .find(|c| c.is_variable())
        .expect("rule")
        .rhs;
    let fresh = workload::tpch::generate_fresh(&tcfg, 1_000_000, 110, 7);
    let tpch_stream = VerStream {
        batches: ver_batches(&tpch_d0, &fresh, rhs),
        scheme: workload::tpch::vertical_scheme(&tpch, 8),
        sigma: tpch_sigma,
        schema: tpch,
        d0: tpch_d0,
        optimized: false,
    };

    let ecfg = workload::emp::EmpConfig {
        n_rows: 400,
        n_zips: 40,
        error_rate: 0.05,
        seed: 3,
    };
    let (emp, emp_d0) = workload::emp::generate(&ecfg);
    let cc = emp.attr_id("CC").expect("CC");
    // Rewriting CC takes a tuple out of both patterns of Fig. 1.
    let fresh = workload::emp::generate_fresh(&ecfg, 1_000_000, 110, 7);
    let emp_stream = VerStream {
        batches: ver_batches(&emp_d0, &fresh, cc),
        scheme: workload::emp::emp_vertical_scheme(&emp),
        sigma: workload::emp::emp_cfds(&emp),
        schema: emp,
        d0: emp_d0,
        optimized: false,
    };

    // Example 7 / Fig. 6(c): Re(A..K) over 8 sites, I replicated at S6,
    // under the plan `optVer` picks.
    let attrs = ["key", "A", "B", "C", "D", "E", "F", "G", "H", "I", "J", "K"];
    let re = Schema::new("Re", &attrs, "key").expect("Re");
    let a = |n: &str| re.attr_id(n).expect("attr");
    let frags = vec![
        vec![a("A")],
        vec![a("B")],
        vec![a("C")],
        vec![a("D")],
        vec![a("E"), a("F")],
        vec![a("G"), a("H"), a("I")],
        vec![a("I")],
        vec![a("J"), a("K")],
    ];
    let fd = |id: u32, lhs: &[&str], rhs: &str| {
        let lhs: Vec<_> = lhs.iter().map(|n| (*n, None)).collect();
        Cfd::from_names(id, &re, &lhs, (rhs, None)).expect("rule")
    };
    let re_sigma = vec![
        fd(0, &["A", "B", "C"], "E"),
        fd(1, &["A", "C", "D"], "F"),
        fd(2, &["A", "G"], "H"),
        fd(3, &["A", "I", "J"], "K"),
    ];
    let row = |tid: Tid| {
        let vals = (0..attrs.len() as u64).map(|j| match j {
            0 => Value::int(tid as i64),
            _ => Value::int(((tid / 3 + j * (tid % 7)) % 5) as i64),
        });
        Tuple::new(tid, vals.collect::<Vec<_>>())
    };
    let re_d0 = Relation::from_tuples(re.clone(), (0..300).map(row)).expect("D0");
    let fresh: Vec<Tuple> = (1_000_000..1_000_110).map(row).collect();
    let re_stream = VerStream {
        batches: ver_batches(&re_d0, &fresh, a("K")),
        scheme: VerticalScheme::new(re.clone(), frags).expect("Fig. 6 scheme"),
        sigma: re_sigma,
        schema: re,
        d0: re_d0,
        optimized: true,
    };
    vec![
        ("TPCH 25 rules", tpch_stream),
        ("EMP Fig. 1", emp_stream),
        ("Example 7 optVer", re_stream),
    ]
}

/// `incVer` walks a plan compiled once at build: every update unions the
/// matched CFDs' node lists and ships each `(input, destination)` pair
/// once. On three catalogs it meters, link
/// by link, the bytes and eqids the per-update planner it replaced did,
/// and that planner's messages less the empty candidate lists it counted —
/// an empty `ConstCands` list is no longer a message. `ΔV` is the oracle's
/// batch by batch.
#[test]
fn compiled_walk_ships_the_planners_bytes_and_eqids() {
    /// One link's traffic: `(src, dst, messages, bytes, eqids)`.
    type Link = (usize, usize, u64, u64, u64);
    /// The per-update planner's run of this stream, non-zero links only,
    /// under the shared dispatch and the per-CFD loop alike (both ran
    /// until `d19a0de`). Its messages are kept but for the
    /// zero-byte candidate lists it metered: 289 of TPCH's 318 on `3 → 4`,
    /// 31 of EMP's 53 on `2 → 1`.
    #[rustfmt::skip]
    const PARENT: [&[Link]; 3] = [
        &[
            (0, 4, 45, 360, 45), (0, 5, 176, 1408, 176), (0, 6, 740, 5920, 740),
            (1, 0, 370, 2960, 370), (1, 4, 45, 360, 45), (1, 5, 88, 704, 88),
            (2, 5, 176, 1408, 176), (3, 0, 370, 2960, 370), (3, 2, 370, 2960, 370),
            (3, 4, 29, 368, 0), (3, 5, 88, 704, 88), (4, 2, 370, 2960, 370),
            (4, 3, 370, 2960, 370), (4, 5, 88, 704, 88), (5, 0, 370, 2960, 370),
            (5, 4, 45, 360, 45), (6, 5, 176, 1408, 176), (7, 5, 88, 704, 88),
            (7, 6, 370, 2960, 370),
        ],
        &[(1, 2, 578, 4624, 578), (2, 1, 22, 880, 0)],
        &[
            (0, 2, 370, 2960, 370), (0, 5, 370, 2960, 370), (1, 2, 370, 2960, 370),
            (3, 2, 370, 2960, 370), (4, 2, 740, 5920, 740), (5, 7, 370, 2960, 370),
        ],
    ];

    for ((name, s), parent) in ver_streams().into_iter().zip(PARENT) {
        let mut det = ver(&s.schema, &s.sigma, &s.scheme, s.optimized, &s.d0);
        let mut oracle = cfd::naive::detect(&s.sigma, &s.d0);
        assert_eq!(det.violations().marks_sorted(), oracle.marks_sorted());
        for (i, batch) in s.batches.iter().enumerate() {
            let dv = match batch.ops() {
                [op] => det.apply_one(op),
                _ => Detector::apply(&mut det, batch),
            };
            let next = cfd::naive::detect(&s.sigma, det.current());
            assert_eq!(dv.expect("apply"), oracle.diff(&next), "{name}: batch {i}");
            oracle = next;
        }
        let stats = &det.meters().modeled;
        let n = stats.n_sites();
        let links: Vec<_> = (0..n)
            .flat_map(|src| (0..n).map(move |dst| (src, dst)))
            .map(|(src, dst)| (src, dst, stats.pair(src, dst)))
            .filter(|(_, _, c)| c.messages > 0)
            .map(|(src, dst, c)| (src, dst, c.messages, c.bytes, c.eqids))
            .collect();
        assert_eq!(links, parent, "{name}: per-link traffic");
    }
}

/// `D₀` with history: every seventh row deleted, which leaves free rows
/// and free dictionary slots, and `far`'s values stored under a tid past
/// the dense window, in `TidMap`'s overflow tree.
fn with_history(d0: &Relation, far: &Tuple) -> Relation {
    let mut d = d0.clone();
    let gone: Vec<Tid> = d.tids().step_by(7).collect();
    for tid in gone {
        d.delete_quiet(tid).expect("live tid");
    }
    d.insert(Tuple::new(1 << 40, far.values.to_vec()))
        .expect("free tid");
    d
}

/// Per-link `(messages, bytes)` of a traffic matrix.
fn links(stats: &NetStats) -> Vec<(u64, u64)> {
    let n = stats.n_sites();
    let pairs = (0..n).flat_map(|src| (0..n).map(move |dst| (src, dst)));
    let pair = |(src, dst)| stats.pair(src, dst);
    pairs.map(pair).map(|c| (c.messages, c.bytes)).collect()
}

/// The detectors built over `D₀` from its store — `incVer`'s clone plus
/// one indexing pass, `incHor`'s (and through it `incHyb`'s) clone plus
/// two site-local passes — are the detectors built over the empty relation
/// and handed `D₀` as one insert batch: the same `V`, index sizes and
/// census, and after the same seeded stream of inserts, deletes and
/// modifications the same `ΔV` and per-link traffic. `incVer` under both
/// plans, `incHor` and `incHyb` under md5 on
/// the simulated network and dict over framed bytes; all on a `D₀` whose
/// store has free rows, free dictionary slots and an overflow tid.
#[test]
fn the_store_built_detector_is_the_replay_built_one() {
    let tcfg = workload::tpch::TpchConfig {
        n_rows: 1_000,
        n_customers: 100,
        n_parts: 60,
        n_suppliers: 20,
        error_rate: 0.02,
        seed: 42,
    };
    let (tpch, tpch_d0) = workload::tpch::generate(&tcfg);
    let tpch_fresh = workload::tpch::generate_fresh(&tcfg, 1_000_000, 111, 7);
    let tpch_d0 = with_history(&tpch_d0, &tpch_fresh[110]);
    let ecfg = workload::emp::EmpConfig {
        n_rows: 400,
        n_zips: 40,
        error_rate: 0.05,
        seed: 3,
    };
    let (emp, emp_d0) = workload::emp::generate(&ecfg);
    let emp_fresh = workload::emp::generate_fresh(&ecfg, 1_000_000, 111, 7);
    let emp_d0 = with_history(&emp_d0, &emp_fresh[110]);
    let family = FamilyConfig {
        n: 256,
        overlap: 1.0 - 8.0 / 256.0,
        seed: 0xCFD,
        ..FamilyConfig::default()
    };
    let catalogs = [
        (
            "TPCH 25 rules",
            workload::rules::tpch_rules(&tpch, 25, 1),
            &tpch,
            &tpch_d0,
            &tpch_fresh,
            workload::tpch::vertical_scheme(&tpch, 8),
            workload::tpch::horizontal_scheme(&tpch, 4),
        ),
        (
            "EMP Fig. 1",
            workload::emp::emp_cfds(&emp),
            &emp,
            &emp_d0,
            &emp_fresh,
            workload::emp::emp_vertical_scheme(&emp),
            workload::emp::emp_horizontal_scheme(&emp),
        ),
        (
            "shared operator family",
            cfd_family(&tpch, &tpch_d0, &family),
            &tpch,
            &tpch_d0,
            &tpch_fresh,
            workload::tpch::vertical_scheme(&tpch, 8),
            workload::tpch::horizontal_scheme(&tpch, 4),
        ),
    ];

    for (name, sigma, schema, d0, fresh, scheme, hscheme) in catalogs {
        let rhs = sigma.iter().find(|c| c.is_variable()).expect("rule").rhs;
        let batches = ver_batches(d0, &fresh[..110], rhs);
        let empty = Relation::new(schema.clone());
        for optimized in [false, true] {
            let build = |d: &Relation| ver(schema, &sigma, &scheme, optimized, d);
            let at = format!("{name}, optVer {optimized}");
            let mut stored = build(d0);
            let mut replayed = build(&empty);
            let mut all = UpdateBatch::new();
            d0.iter().for_each(|t| all.insert(t));
            replayed.apply(&all).expect("replay");
            replayed.reset_stats();
            assert_eq!(
                stored.violations().marks_sorted(),
                replayed.violations().marks_sorted(),
                "{at}: V(Σ, D₀)"
            );
            assert_eq!(stored.index_sizes(), replayed.index_sizes(), "{at}");
            assert_eq!(stored.state_census(), replayed.state_census(), "{at}");
            assert_eq!(
                stored.meters().modeled.total_messages(),
                0,
                "{at}: unmetered"
            );

            for (i, batch) in batches.iter().enumerate() {
                let (a, b) = match batch.ops() {
                    [op] => (stored.apply_one(op), replayed.apply_one(op)),
                    _ => (stored.apply(batch), replayed.apply(batch)),
                };
                assert_eq!(
                    a.expect("apply"),
                    b.expect("apply"),
                    "{at}: ΔV of batch {i}"
                );
            }
            let (got, want) = (&stored.meters().modeled, &replayed.meters().modeled);
            assert!(got.total_messages() > 0, "{at}: a stream ships");
            let (got, want) = (links(got), links(want));
            assert_eq!(got, want, "{at}: per-link traffic");
            assert_eq!(stored.index_sizes(), replayed.index_sizes(), "{at}");
            let oracle = cfd::naive::detect(&sigma, stored.current());
            assert_eq!(stored.violations().marks_sorted(), oracle.marks_sorted());
        }

        let yscheme = HybridScheme::uniform(schema.clone(), 2, 2).expect("hybrid scheme");
        let sessions = [
            (CodecKind::Md5, TransportKind::Simulated),
            (CodecKind::Dict, TransportKind::Framed),
        ];
        for (codec, transport) in sessions {
            let at = format!("{name}, {codec:?} over {transport:?}");
            let hor = |d: &Relation| {
                let (schema, sigma, hscheme) = (schema.clone(), sigma.clone(), hscheme.clone());
                HorizontalDetector::new(schema, sigma, hscheme, d, codec, transport)
                    .expect("incHor")
            };
            let hyb = |d: &Relation| {
                let (schema, sigma, yscheme) = (schema.clone(), sigma.clone(), yscheme.clone());
                HybridDetector::new(schema, sigma, yscheme, d, codec, transport).expect("incHyb")
            };
            let mut all = UpdateBatch::new();
            d0.iter().for_each(|t| all.insert(t));
            let (mut stored, mut replayed) = (hor(d0), hor(&empty));
            replayed.apply(&all).expect("replay");
            replayed.reset_stats();
            let marks = |det: &HorizontalDetector| det.violations().marks_sorted();
            assert_eq!(marks(&stored), marks(&replayed), "{at}: incHor V(Σ, D₀)");
            assert_eq!(stored.state_census(), replayed.state_census(), "{at}");
            assert_eq!(
                stored.meters().modeled.total_messages(),
                0,
                "{at}: unmetered"
            );
            for (i, batch) in batches.iter().enumerate() {
                let (a, b) = (stored.apply(batch), replayed.apply(batch));
                assert_eq!(a.expect("apply"), b.expect("apply"), "{at}: incHor ΔV {i}");
            }
            let (got, want) = (&stored.meters().modeled, &replayed.meters().modeled);
            let (got, want) = (links(got), links(want));
            assert_eq!(got, want, "{at}: incHor per-link traffic");
            assert_eq!(stored.state_census(), replayed.state_census(), "{at}");

            let (mut stored, mut replayed) = (hyb(d0), hyb(&empty));
            replayed.apply(&all).expect("replay");
            replayed.reset_stats();
            let marks = |det: &HybridDetector| det.violations().marks_sorted();
            assert_eq!(marks(&stored), marks(&replayed), "{at}: incHyb V(Σ, D₀)");
            for (i, batch) in batches.iter().enumerate() {
                let (a, b) = (stored.apply(batch), replayed.apply(batch));
                assert_eq!(a.expect("apply"), b.expect("apply"), "{at}: incHyb ΔV {i}");
            }
            let (got, want) = (stored.net(), replayed.net());
            for tier in ["inter", "intra"] {
                let (got, want) = (got.tier(tier).unwrap(), want.tier(tier).unwrap());
                assert_eq!(
                    links(got),
                    links(want),
                    "{at}: incHyb {tier}-region traffic"
                );
            }
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
