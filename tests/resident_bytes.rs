//! Resident state as exact integers. For each detector that keeps §4's
//! IDX and HEVs or §6's group state, the whole `state_census()` and the
//! heap bytes of `V(Σ, D)`'s per-CFD tid sets, pinned at `D₀` and after
//! one seeded stream, on two catalogs over one TPCH base (2 000 rows,
//! 8 sites): TPCH's 25 rules (the shape of `detbench`'s `ver_stream`) and
//! a family of 256 patterns on 8 LHS lists (the shape of
//! `hor_wide_sigma`). The stream is 3 000 updates, half inserts, in
//! 256-op batches.
//!
//! Every count here is deterministic, bytes included: a census reads
//! capacities, and std's `Vec` / `HashMap` growth policy fixes those per
//! op sequence. A change to what the state keeps or how its tables grow
//! moves a literal, so a literal is updated only together with the
//! reason — as in `gated_integers.rs`.

use inc_cfd::cfd::CfdId;
use inc_cfd::incdetect::optimize::{optimize, OptimizeConfig};
use inc_cfd::incdetect::StateCensus;
use inc_cfd::prelude::*;
use inc_cfd::workload::family::{cfd_family, FamilyConfig};
use inc_cfd::workload::tpch::{self, TpchConfig};
use inc_cfd::workload::updates::{self, UpdateMix};
use std::sync::Arc;

/// One reading: the census's six fields, then `V`'s heap bytes.
type Reading = [usize; 7];

fn reading(census: StateCensus, v: &Violations) -> Reading {
    let v_bytes = (0..v.n_cfds()).map(|c| v.of_cfd(c as CfdId).heap_bytes());
    [
        census.groups,
        census.classes,
        census.memberships,
        census.spilled_class_maps,
        census.spilled_tid_sets,
        census.resident_bytes,
        v_bytes.sum(),
    ]
}

/// The TPCH base and the stream over it.
struct Fixture {
    schema: Arc<Schema>,
    d0: Relation,
    stream: Vec<UpdateBatch>,
}

fn fixture() -> Fixture {
    let cfg = TpchConfig {
        n_rows: 2_000,
        n_customers: 100,
        n_parts: 60,
        n_suppliers: 20,
        error_rate: 0.02,
        seed: 42,
    };
    let (schema, d0) = tpch::generate(&cfg);
    let fresh = tpch::generate_fresh(&cfg, 1_000_000_000, 1_500, 99);
    let mix = UpdateMix {
        insert_fraction: 0.5,
    };
    let all = updates::generate(&d0, &fresh, 3_000, mix, 5);
    let stream = (all.ops().chunks(256))
        .map(|ops| UpdateBatch::from_ops(ops.to_vec()))
        .collect();
    Fixture { schema, d0, stream }
}

/// The `hor_wide_sigma`-shaped catalog: 256 patterns mined from `d0` on 8
/// LHS lists, so most operators `(X → B)` carry several CFDs.
fn shared_operator_family(schema: &Arc<Schema>, d0: &Relation) -> Vec<Cfd> {
    let family = FamilyConfig {
        n: 256,
        overlap: 1.0 - 8.0 / 256.0,
        seed: 0xCFD,
        ..FamilyConfig::default()
    };
    cfd_family(schema, d0, &family)
}

/// The reading at `D₀` and after the stream.
fn drive<D: Detector>(
    mut det: D,
    census: impl Fn(&D) -> StateCensus,
    stream: &[UpdateBatch],
) -> [Reading; 2] {
    let start = reading(census(&det), det.violations());
    for b in stream {
        det.apply(b).unwrap();
    }
    [start, reading(census(&det), det.violations())]
}

/// `incHor`, `incVer` and `optVer` over `cfds`, in that order.
fn readings(f: &Fixture, cfds: &[Cfd]) -> [[Reading; 2]; 3] {
    let (schema, d0, cfds) = (&f.schema, &f.d0, cfds.to_vec());
    let (hor, ver) = (
        tpch::horizontal_scheme(schema, 8),
        tpch::vertical_scheme(schema, 8),
    );
    let inc_hor = HorizontalDetector::new(
        schema.clone(),
        cfds.clone(),
        hor,
        d0,
        CodecKind::Md5,
        TransportKind::Simulated,
    )
    .unwrap();
    let inc_ver = VerticalDetector::new(schema.clone(), cfds.clone(), ver.clone(), d0).unwrap();
    let plan = optimize(&cfds, &ver, OptimizeConfig::default());
    let opt_ver = VerticalDetector::with_plan(schema.clone(), cfds, ver, plan, d0).unwrap();
    [
        drive(inc_hor, HorizontalDetector::state_census, &f.stream),
        drive(inc_ver, VerticalDetector::state_census, &f.stream),
        drive(opt_ver, VerticalDetector::state_census, &f.stream),
    ]
}

// Each row: [groups, classes, memberships, spilled class maps, spilled
// tid sets, resident bytes, V's heap bytes], at D₀ and after the stream.
// `V` takes each batch in one commit, its removals before its adds, so a
// tid set grows only as far as the larger of its sizes before and after.

#[test]
fn tpch_25_rules() {
    let f = fixture();
    let cfds = workload::rules::tpch_rules(&f.schema, 25, 1);
    let want = [
        // incHor
        [
            [9_889, 9_938, 21_716, 49, 1_550, 925_396, 7_008],
            [9_767, 9_812, 21_566, 45, 1_573, 1_011_864, 7_536],
        ],
        // incVer
        [
            [3_880, 3_939, 21_716, 58, 1_115, 612_152, 7_008],
            [3_898, 3_954, 21_566, 54, 1_109, 799_816, 7_536],
        ],
        // optVer: reads as incVer on this catalog
        [
            [3_880, 3_939, 21_716, 58, 1_115, 612_152, 7_008],
            [3_898, 3_954, 21_566, 54, 1_109, 799_816, 7_536],
        ],
    ];
    assert_eq!(readings(&f, &cfds), want);
}

#[test]
fn shared_operator_family_256_patterns() {
    let f = fixture();
    let cfds = shared_operator_family(&f.schema, &f.d0);
    let want = [
        // incHor: one group per (site, operator, X-value), shared by the
        // operator's patterns
        [
            [5_178, 11_186, 14_528, 929, 229, 841_764, 37_792],
            [5_099, 11_118, 14_582, 919, 242, 974_996, 44_834],
        ],
        // incVer: one IDX group per (CFD, X-value)
        [
            [3_030, 6_661, 17_450, 197, 1_346, 813_084, 37_792],
            [2_961, 6_625, 17_546, 185, 1_319, 893_436, 44_834],
        ],
        // optVer: the same IDX, other HEV bytes
        [
            [3_030, 6_661, 17_450, 197, 1_346, 940_420, 37_792],
            [2_961, 6_625, 17_546, 185, 1_319, 1_035_972, 44_834],
        ],
    ];
    assert_eq!(readings(&f, &cfds), want);
}
