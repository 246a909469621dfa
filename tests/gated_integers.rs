//! Deterministic integers of fixed-seed runs, pinned: shipped bytes, eqid
//! counts, index sizes, frames, violation marks and finding counts. A
//! change that moves one of them changes what a detector ships, stores or
//! finds, so a literal here is updated only together with the reason.
//!
//! * Fig. 9 / Fig. 11 shipments, index sizes, the wire models, the batch
//!   coordinators and the framed transport on the quick TPCH fixture
//!   (`bench::tpch_fixture(400, 10)`); Fig. 10 is `bench::exp5`.
//! * The sustained-load matrix: every `loadgen::catalog()` scenario
//!   through eight strategy × codec × transport cells, the two batch
//!   baselines (nearly all of the matrix's cost) in tests of their own.
//! * `bench::speedup_point` at 2 and 4 sites. The threaded drive's wire
//!   bytes move by a few frames with ack timing and are held to a
//!   tolerance in bytes.
//! * The validation-suite cells over one EMP churn stream.

use bench::{exp5, speedup_point, tpch_fixture, Scale};
use inc_cfd::cluster::md5::Digest;
use inc_cfd::cluster::DictMeter;
use inc_cfd::incdetect::baselines;
use inc_cfd::loadgen::{Dataset, SuiteLoadReport};
use inc_cfd::prelude::*;
use inc_cfd::workload::tpch;
use std::sync::Arc;

/// The quick TPCH fixture: 400 rows, 10 rules, a 200-op `ΔD`.
fn fixture() -> (Arc<Schema>, Vec<Cfd>, Relation, UpdateBatch) {
    tpch_fixture(400, 10)
}

/// Apply `delta` to an incremental detector and a batch detector seeded
/// with its `V`; both must agree. Returns `[inc bytes, batch bytes, inc
/// eqids]`.
fn shipped(
    mut inc: Box<dyn Detector>,
    mut bat: Box<dyn Detector>,
    delta: &UpdateBatch,
) -> [u64; 3] {
    inc.apply(delta).expect("incremental apply");
    bat.apply(delta).expect("batch apply");
    assert_eq!(
        inc.violations().marks_sorted(),
        bat.violations().marks_sorted(),
        "{} and {} must agree",
        inc.strategy(),
        bat.strategy()
    );
    [
        inc.net().total_bytes(),
        bat.net().total_bytes(),
        inc.net().total_eqids(),
    ]
}

#[test]
fn fig9_and_fig11_shipments() {
    let (schema, cfds, d, delta) = fixture();
    let vs = tpch::vertical_scheme(&schema, 10);
    let hs = tpch::horizontal_scheme(&schema, 10);
    let suite = Suite::on(schema.clone()).cfds(cfds.clone());
    let build = |strategy, codec| {
        let suite = suite.clone().strategy(strategy).codec(codec);
        suite.build_detector(&d).unwrap()
    };
    // The batch side ships its own fixed codec, so it is built with the
    // default one (another is refused).
    let against = |inc, codec, bat| {
        let bat = build(bat, CodecKind::default());
        shipped(build(inc, codec), bat, &delta)
    };
    let (inc_ver, inc_hor) = (
        || Strategy::Vertical(vs.clone()),
        || Strategy::Horizontal(hs.clone()),
    );
    let md5 = CodecKind::Md5;

    // Fig. 9: incremental vs batch, the horizontal side per codec.
    let bat_hor = || Strategy::BatHor(hs.clone());
    assert_eq!(
        against(inc_ver(), md5, Strategy::BatVer(vs.clone())),
        [12_888, 60_755, 1_600]
    );
    assert_eq!(against(inc_hor(), md5, bat_hor()), [79_590, 111_015, 0]);
    let raw = CodecKind::RawValues;
    assert_eq!(against(inc_hor(), raw, bat_hor()), [81_093, 111_015, 0]);
    let dict = CodecKind::Dict;
    assert_eq!(against(inc_hor(), dict, bat_hor()), [64_710, 111_015, 0]);

    // Fig. 11: incremental vs the refined batch recomputation.
    assert_eq!(
        against(inc_ver(), md5, Strategy::IbatVer(vs.clone())),
        [12_888, 33_624, 1_600]
    );
    assert_eq!(
        against(inc_hor(), md5, Strategy::IbatHor(hs.clone())),
        [79_590, 384_356, 0]
    );
}

#[test]
fn fig10_eqid_shipments_are_exp5() {
    let t = exp5(Scale(1.0));
    let rows: Vec<(&str, &[f64])> = t.rows.iter().map(|(x, v)| (x.as_str(), &v[..])).collect();
    assert_eq!(
        rows,
        [("TPCH", &[34.0, 19.0][..]), ("DBLP", &[12.0, 10.0][..])]
    );
}

#[test]
fn vertical_index_sizes_after_the_delta() {
    let (schema, cfds, d, delta) = fixture();
    let vs = tpch::vertical_scheme(&schema, 10);
    let mut det = VerticalDetector::new(schema, cfds, vs, &d).unwrap();
    det.apply(&delta).unwrap();
    // (dictionary entries, base HEV classes, non-base HEV classes, IDX
    // member tuples)
    assert_eq!(det.index_sizes(), (1_133, 257, 1_134, 4_160));
}

/// What shipping the delta's LHS values over one link costs as raw values,
/// under the §6 MD5 rule (digest iff smaller) and under [`DictMeter`].
#[test]
fn wire_models_of_the_delta() {
    let (_, cfds, _, delta) = fixture();
    let mut pool = ValuePool::new();
    let mut meter = DictMeter::new();
    let (mut n, mut raw, mut md5, mut dict) = (0u64, 0u64, 0u64, 0u64);
    for t in delta.insertions() {
        for cfd in cfds.iter().filter(|c| c.matches_lhs(t)) {
            for v in t.iter_at(&cfd.lhs) {
                let w = v.wire_size() as u64;
                raw += w;
                md5 += w.min(Digest::WIRE_SIZE as u64);
                dict += meter.ship_sym(0, 1, pool.acquire(v), v) as u64;
                n += 1;
            }
        }
    }
    assert_eq!(
        [n, raw, md5, dict, meter.dict_bytes(), meter.sym_bytes()],
        [1_451, 12_463, 12_463, 6_817, 1_013, 5_804]
    );
}

#[test]
fn batch_coordinators_ship_columns() {
    let (schema, cfds, d, _) = fixture();
    let vs = tpch::vertical_scheme(&schema, 10);
    let hs = tpch::horizontal_scheme(&schema, 10);
    assert_eq!(
        baselines::bat_ver(&cfds, &vs, &d, TransportKind::Simulated)
            .unwrap()
            .meters
            .modeled
            .total_bytes(),
        47_699
    );
    assert_eq!(
        baselines::bat_hor(&cfds, &hs, &d, TransportKind::Simulated)
            .unwrap()
            .meters
            .modeled
            .total_bytes(),
        91_419
    );
}

/// Modeled `|M|` vs the bytes that crossed framed in-process links, per
/// codec: `[modeled, measured, frames, structural, saved]`. Protocol
/// frames ship stored; what a frame spends below its model — varint ids,
/// cells against 8-byte integers, one varint symbol — is saved.
#[test]
fn framed_transport_per_codec() {
    let (schema, cfds, d, delta) = fixture();
    let hs = tpch::horizontal_scheme(&schema, 10);
    for (kind, want) in [
        (CodecKind::Md5, [79_590, 52_498, 1_488, 1_782, 28_874]),
        (CodecKind::RawValues, [81_093, 52_498, 1_488, 1_776, 30_371]),
        (CodecKind::Dict, [64_710, 34_761, 1_488, 1_524, 31_473]),
    ] {
        let (s, c, framed) = (schema.clone(), cfds.clone(), TransportKind::Framed);
        let mut det = HorizontalDetector::new(s, c, hs.clone(), &d, kind, framed).unwrap();
        det.apply(&delta).unwrap();
        assert!(det.net().measured().is_some(), "framed runs meter the wire");
        let m = det.meters().transport;
        assert_eq!(m.modeled_bytes, det.meters().modeled.total_bytes());
        assert_eq!(
            m.wire_bytes,
            m.modeled_bytes + m.structural_bytes - m.saved_bytes,
            "{kind:?}: the transport counters balance"
        );
        let got = [
            m.modeled_bytes,
            m.wire_bytes,
            m.frames,
            m.structural_bytes,
            m.saved_bytes,
        ];
        assert_eq!(got, want, "{kind:?}");
    }
}

// ----------------------------------------------------------------------
// Sustained load
// ----------------------------------------------------------------------

/// One detector configuration of the load matrix.
#[derive(Debug, Clone, Copy)]
enum Cell {
    IncVer,
    IncHor(CodecKind, TransportKind),
    IncHyb,
    BatVer,
    BatHor,
}

/// The six incremental cells, in the column order of [`LOAD`]:
/// `incVer`, `incHor` md5 / dict (simulated), raw values (framed bytes),
/// md5 (localhost TCP), `incHyb` md5.
const INCREMENTAL: [Cell; 6] = [
    Cell::IncVer,
    Cell::IncHor(CodecKind::Md5, TransportKind::Simulated),
    Cell::IncHor(CodecKind::Dict, TransportKind::Simulated),
    Cell::IncHor(CodecKind::RawValues, TransportKind::Framed),
    Cell::IncHor(CodecKind::Md5, TransportKind::Tcp),
    Cell::IncHyb,
];

/// Per scenario of `catalog()`, in order:
/// * `(updates, Σ|ΔV| marks, final marks)` — every cell sees the same
///   stream, so every cell must reproduce them;
/// * the modeled `|M|` of the [`INCREMENTAL`] cells;
/// * the measured wire bytes of the two incremental cells on a byte
///   transport (raw values framed, md5 TCP);
/// * `[modeled, measured]` of `batVer` and of `batHor`, over framed bytes.
type LoadRow = (&'static str, [u64; 3], [u64; 6], [u64; 2], [[u64; 2]; 2]);

const LOAD: [LoadRow; 5] = [
    (
        "steady_uniform",
        [216, 15, 53],
        [4_824, 0, 0, 0, 0, 8_640],
        [0, 0],
        [[4_614_648, 780_160], [2_828_212, 758_730]],
    ),
    (
        "bursty_onoff",
        [430, 751, 774],
        [18_040, 42_740, 22_404, 42_824, 42_740, 22_619],
        [26_741, 26_909],
        [[36_238_968, 6_574_997], [35_554_113, 11_806_602]],
    ),
    (
        "zipf_hot",
        [230, 1_385, 151],
        [9_256, 6_936, 4_192, 7_008, 6_936, 16_574],
        [5_016, 5_016],
        [[11_831_645, 2_077_018], [18_772_549, 5_528_723]],
    ),
    (
        "churn_delete_heavy",
        [229, 11, 46],
        [9_248, 1_064, 608, 1_112, 1_064, 14_856],
        [824, 824],
        [[11_591_397, 2_032_714], [18_345_131, 5_420_647]],
    ),
    (
        "dirty_ramp",
        [275, 1_125, 915],
        [11_456, 27_310, 15_786, 27_334, 27_310, 15_150],
        [16_836, 16_884],
        [[21_080_646, 3_844_597], [20_745_040, 7_064_914]],
    ),
];

/// Run one scenario × cell after four warm-up ticks. Returns `(updates,
/// Σ|ΔV| marks, final marks)` and `(modeled |M|, measured wire bytes)`.
fn load_cell(cfg: &ScenarioCfg, ds: &Dataset, cell: Cell) -> ([u64; 3], u64, Option<u64>) {
    let (md5, sim, framed) = (
        CodecKind::Md5,
        TransportKind::Simulated,
        TransportKind::Framed,
    );
    let (strategy, codec, transport) = match cell {
        Cell::IncVer => (Strategy::Vertical(ds.vertical.clone()), md5, sim),
        Cell::IncHor(codec, transport) => (
            Strategy::Horizontal(ds.horizontal.clone()),
            codec,
            transport,
        ),
        Cell::IncHyb => (Strategy::Hybrid(ds.hybrid.clone()), md5, sim),
        Cell::BatVer => (Strategy::BatVer(ds.vertical.clone()), md5, framed),
        Cell::BatHor => (Strategy::BatHor(ds.horizontal.clone()), md5, framed),
    };
    let suite = Suite::on(ds.schema.clone())
        .cfds(ds.cfds.clone())
        .strategy(strategy);
    let mut det = (suite
        .codec(codec)
        .transport(transport)
        .build_detector(&ds.base))
    .expect("detector builds for the scenario");
    let r = run_load(
        cfg.name,
        det.as_mut(),
        cfg.stream(ds),
        &LoadConfig { warmup_ticks: 4 },
    )
    .expect("load run succeeds");
    (
        [r.updates, r.dv_marks, r.final_violations],
        r.net.total_bytes(),
        r.net.measured_bytes(),
    )
}

/// Check `cells` of every scenario: the shared counts, then `want(row)`
/// against the `(modeled, measured)` of each cell.
fn check_load(cells: &[Cell], want: impl Fn(&LoadRow) -> Vec<(u64, Option<u64>)>) {
    let scenarios = catalog();
    let names: Vec<&str> = scenarios.iter().map(|c| c.name).collect();
    assert_eq!(names, LOAD.map(|row| row.0));
    for (cfg, row) in scenarios.iter().zip(&LOAD) {
        let ds = cfg.dataset();
        let mut got = Vec::new();
        for &cell in cells {
            let (counts, modeled, measured) = load_cell(cfg, &ds, cell);
            assert_eq!(counts, row.1, "{} {cell:?}: strategies agree", row.0);
            got.push((modeled, measured));
        }
        assert_eq!(got, want(row), "{}", row.0);
    }
}

#[test]
fn load_incremental_cells() {
    check_load(&INCREMENTAL, |row| {
        let (modeled, [raw, tcp]) = (row.2, row.3);
        let measured = [None, None, None, Some(raw), Some(tcp), None];
        modeled.into_iter().zip(measured).collect()
    });
}

#[test]
fn load_bat_ver_cells() {
    check_load(&[Cell::BatVer], |row| {
        let [modeled, measured] = row.4[0];
        vec![(modeled, Some(measured))]
    });
}

#[test]
fn load_bat_hor_cells() {
    check_load(&[Cell::BatHor], |row| {
        let [modeled, measured] = row.4[1];
        vec![(modeled, Some(measured))]
    });
}

// ----------------------------------------------------------------------
// Speedup points
// ----------------------------------------------------------------------

#[test]
fn speedup_points_at_2_and_4_sites() {
    let (schema, cfds, d, delta) = fixture();
    // Per site count: [messages, modeled |M|, sequential wire bytes,
    // barrier rounds, final marks] exactly, then the threaded wire bytes
    // and their excess over the sequential drive's, each as `(pin,
    // tolerance)` in bytes. They move by a few frames with ack timing (an
    // owed ack rides a protocol frame or flushes alone), and that jitter
    // is a number of bytes, whatever the size of the rest of the traffic.
    // A standalone `Ack` costs two bytes, as its envelope would: 40 release
    // runs, half of them under load, read 7 349–7 368 and 25 643–25 653
    // with fixed-width protocol frames; 3 debug and 5 release runs read
    // 4 070–4 072 and 13 825–13 831 with compact ones.
    for (n_sites, exact, thr_wire, ctrl_overhead) in [
        (2, [138, 4_886, 2_838, 50, 215], (4_071, 31), (1_243, 31)),
        (4, [468, 18_738, 11_370, 52, 215], (13_828, 71), (2_460, 71)),
    ] {
        let within = |got: u64, (pin, tolerance): (u64, u64)| got.abs_diff(pin) <= tolerance;
        let p = speedup_point(&schema, &cfds, &d, &delta, n_sites).unwrap();
        let got = [
            p.messages,
            p.modeled_bytes,
            p.seq_wire_bytes,
            p.waves,
            p.marks,
        ];
        assert_eq!(got, exact, "{n_sites} sites");
        assert!(
            within(p.thr_wire_bytes, thr_wire),
            "{n_sites} sites: threaded wire {} vs {thr_wire:?}",
            p.thr_wire_bytes
        );
        let overhead = p.thr_wire_bytes - p.seq_wire_bytes;
        assert!(
            within(overhead, ctrl_overhead),
            "{n_sites} sites: control overhead {overhead} vs {ctrl_overhead:?}"
        );
        // Per-wave latency beats per-message latency, which only shows
        // optimized: debug walls swamp the modeled latencies.
        if !cfg!(debug_assertions) {
            assert!(p.seq_elapsed_s > p.thr_elapsed_s, "{n_sites} sites");
        }
    }
}

// ----------------------------------------------------------------------
// Validation suite
// ----------------------------------------------------------------------

/// Per cell: its name and checks, whether the EMP CFDs ride along,
/// `[updates, finding marks added, removed, final findings, modeled |M|,
/// ind-tier probe bytes]`, and the completeness null count when the cell
/// has a completeness check.
type SuiteCell = (&'static str, Vec<Check>, bool, [u64; 6], Option<u64>);

fn suite_cells() -> Vec<SuiteCell> {
    let key = || Check::key(["zip", "phn"]);
    let cities = || Check::inclusion(["city"], "CITIES", ["city"]);
    let grades = || Check::row_count(["grade"], Some(1), None);
    vec![
        ("key", vec![key()], false, [151, 0, 0, 0, 6_900, 0], None),
        (
            "completeness",
            vec![Check::complete("city"), Check::complete("phn")],
            false,
            [151, 0, 0, 0, 0, 0],
            Some(0),
        ),
        (
            "inclusion",
            vec![cities()],
            false,
            [151, 2, 0, 3, 710, 710],
            None,
        ),
        (
            "aggregate",
            vec![
                grades(),
                Check::sum_range("AC", ["city"], Some(0), Some(1 << 40)),
            ],
            false,
            [151, 0, 0, 0, 0, 0],
            None,
        ),
        (
            "mixed",
            vec![key(), Check::complete("city"), cities(), grades()],
            true,
            [151, 91, 12, 140, 7_666, 710],
            Some(0),
        ),
    ]
}

#[test]
fn suite_cells_over_emp_churn() {
    let cfg = ScenarioCfg {
        name: "suite_churn",
        workload: WorkloadKind::Emp,
        n_rows: 600,
        n_sites: 3,
        ticks: 8,
        shape: ArrivalShape::Steady { per_tick: 25 },
        keys: KeyDist::Uniform,
        mix: OpMix {
            insert: 5,
            delete: 3,
            modify: 2,
            churn: 1,
        },
        dirty: DirtyRate::Fixed(0.1),
        seed: 10,
    };
    let ds = cfg.dataset();
    for (name, checks, with_cfds, want, nulls) in suite_cells() {
        // Half the base cities are listed: inclusion findings flow both
        // ways as churn inserts known and unknown cities.
        let mut suite = Suite::on(ds.schema.clone())
            .checks(checks)
            .reference(workload::emp::city_reference(&ds.base, 0.5))
            .strategy(Strategy::Horizontal(ds.horizontal.clone()));
        if with_cfds {
            suite = suite.cfds(ds.cfds.clone());
        }
        let mut session = suite.build(&ds.base).expect("suite builds");
        let r: SuiteLoadReport = run_suite_load(
            cfg.name,
            &mut session,
            cfg.stream(&ds),
            &LoadConfig { warmup_ticks: 2 },
        )
        .expect("suite load run succeeds");
        let ind = r.net.tier("ind").expect("the ind tier is metered");
        let got = [
            r.updates,
            r.findings_added,
            r.findings_removed,
            r.final_findings,
            r.net.total_bytes(),
            ind.total_bytes(),
        ];
        assert_eq!(got, want, "{name}");
        let counts = session.completeness_counts();
        let got_nulls = (!counts.is_empty()).then(|| counts.iter().map(|c| c.2).sum());
        assert_eq!(got_nulls, nulls, "{name}: completeness null count");
    }
}
