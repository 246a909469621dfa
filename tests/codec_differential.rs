//! Three-codec differential suite: the horizontal protocol must produce
//! *identical* violation sets under `raw_values`, `md5` and `dict`
//! payload encodings on the fig9-style EMP and DBLP workloads — the codec
//! is a wire concern, never a semantic one; the matrix (`common::matrix`)
//! holds every codec cell to the oracle and to one `ΔV` — and the `dict`
//! codec must ship strictly fewer bytes than `raw_values` once its
//! per-link dictionaries are warm.

mod common;

use common::matrix::{self, Family};
use inc_cfd::prelude::*;
use workload::dblp::{self, DblpConfig};
use workload::updates::{self, UpdateMix};

const CODECS: [CodecKind; 3] = [CodecKind::RawValues, CodecKind::Md5, CodecKind::Dict];

/// The modeled bytes of `incHor` over `codec` on the family's stream;
/// the detector carries the codec it was built with.
fn hor_bytes(family: &Family, codec: CodecKind) -> u64 {
    let (s, c, h) = (
        family.schema.clone(),
        family.cfds.clone(),
        family.schemes.1.clone(),
    );
    let sim = TransportKind::Simulated;
    let mut det = HorizontalDetector::new(s, c, h, &family.d0, codec, sim).unwrap();
    assert_eq!(det.codec_kind(), codec);
    for (_, batch) in &family.batches {
        det.apply(batch).unwrap();
    }
    det.net().total_bytes()
}

/// Cycles of the same cross-site conflict on the paper's running example
/// (EMP, Fig. 1/2), forcing probe, query, reply and clear rounds across
/// the grade partition: after the first cycle warms the per-link
/// dictionaries, every re-shipment is a short symbol.
fn emp_cycles(_: u64) -> Option<Family> {
    let (schema, d0) = workload::emp::emp_relation();
    let cfds = workload::emp::emp_cfds(&schema);
    let grade_at = schema.attr_id("grade").unwrap() as usize;
    let street_at = schema.attr_id("street").unwrap() as usize;
    let mut batches = Vec::new();
    for _ in 0..6 {
        let mut ins = UpdateBatch::new();
        for (i, grade) in ["A", "B", "C"].iter().enumerate() {
            let tid = 100 + i as Tid;
            let mut vals: Vec<Value> = workload::emp::t6().values.to_vec();
            vals[0] = Value::int(tid as i64);
            vals[grade_at] = Value::str(*grade);
            vals[street_at] = Value::str(format!("Conflicting Street {i}"));
            ins.insert(Tuple::new(tid, vals));
        }
        batches.push(ins);
        let mut del = UpdateBatch::new();
        for i in 0..3 {
            del.delete(100 + i as Tid);
        }
        batches.push(del);
    }
    let schemes = (
        workload::emp::emp_vertical_scheme(&schema),
        workload::emp::emp_horizontal_scheme(&schema),
        HybridScheme::uniform(schema.clone(), 2, 2).unwrap(),
    );
    Some(Family::new("emp_cycles", cfds, d0, schemes).batches(batches))
}

#[test]
fn emp_codecs_agree_and_dict_undercuts_raw() {
    matrix::run(emp_cycles, 0..1, 1);
    let family = emp_cycles(0).expect("family");
    let (dict, raw) = (CodecKind::Dict, CodecKind::RawValues);
    let (dict, raw) = (hor_bytes(&family, dict), hor_bytes(&family, raw));
    assert!(dict < raw, "dict {dict} must undercut raw {raw}");
}

/// A DBLP-like fig9 workload: hash-partitioned over 6 sites, 12 rules,
/// mixed insert/delete stream drawn from skewed venue/author domains,
/// through every twelfth cell, and `incHor` on each codec.
fn dblp_codecs(_: u64) -> Option<Family> {
    let cfg = DblpConfig {
        n_rows: 1_500,
        n_venues: 40,
        n_authors: 400,
        error_rate: 0.05,
        seed: 11,
    };
    let (schema, d0) = dblp::generate(&cfg);
    let cfds = workload::rules::dblp_rules(&schema, 12, 3);
    let mut mirror = d0.clone();
    let mut batches = Vec::new();
    for round in 0..8u64 {
        let fresh = dblp::generate_fresh(&cfg, 1_000_000 + 60 * round, 60, round + 1);
        let mix = UpdateMix {
            insert_fraction: 0.7,
        };
        let delta = updates::generate(&mirror, &fresh, 60, mix, round ^ 0x5eed);
        delta.normalize(&mirror).apply(&mut mirror).expect("mirror");
        batches.push(delta);
    }
    let schemes = (
        dblp::vertical_scheme(&schema, 6),
        dblp::horizontal_scheme(&schema, 6),
        HybridScheme::uniform(schema.clone(), 2, 3).unwrap(),
    );
    Some(Family::new("dblp_codecs", cfds, d0, schemes).batches(batches))
}

#[test]
fn dblp_codecs_agree_and_dict_undercuts_raw() {
    let report = matrix::run(dblp_codecs, 0..1, 12);
    assert_eq!((report.accepted, report.refused), (3, 42));
    let family = dblp_codecs(0).expect("family");
    let [raw, md5, dict] = CODECS.map(|c| hor_bytes(&family, c));
    assert!(raw > 0 && md5 > 0, "stream must ship something");
    assert!(
        dict < raw,
        "dict {dict} must undercut raw {raw} after warm-up"
    );
}

/// The hybrid topology routes its inter-region traffic through the same
/// codec seam: EMP over three regions of two sites, every cell.
fn emp_hybrid(_: u64) -> Option<Family> {
    let (schema, d0) = workload::emp::emp_relation();
    let cfds = workload::emp::emp_cfds(&schema);
    let mut delta = UpdateBatch::new();
    delta.insert(workload::emp::t6());
    delta.delete(4);
    let schemes = (
        workload::emp::emp_vertical_scheme(&schema),
        workload::emp::emp_horizontal_scheme(&schema),
        HybridScheme::uniform(schema.clone(), 3, 2).unwrap(),
    );
    Some(Family::new("emp_hybrid", cfds, d0, schemes).batches([delta]))
}

#[test]
fn hybrid_inter_region_codecs_agree() {
    let report = matrix::run(emp_hybrid, 0..1, 1);
    assert_eq!((report.accepted, report.refused), (36, 42));
}
