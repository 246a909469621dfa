//! Four-codec differential suite: the horizontal protocol must produce
//! *identical* violation sets under `raw_values`, `md5`, `dict` and `lz`
//! payload encodings on the fig9-style EMP and DBLP workloads — the codec
//! is a wire concern, never a semantic one — and the `dict` codec must
//! ship strictly fewer bytes than `raw_values` once its per-link
//! dictionaries are warm. (`lz` models like `raw_values` here; its
//! savings are measured on the byte transport — see
//! `tests/transport_differential.rs`.)

use inc_cfd::prelude::*;
use workload::dblp::{self, DblpConfig};
use workload::updates::{self, UpdateMix};

const CODECS: [CodecKind; 4] = [
    CodecKind::RawValues,
    CodecKind::Md5,
    CodecKind::Dict,
    CodecKind::Lz,
];

/// Build one horizontal detector per codec over the same `d0`, feed all of
/// them the same update stream, and after every batch check the violation
/// sets agree with each other and with the centralized oracle. Returns the
/// per-codec total bytes for the streamed (post-warm-up) traffic.
fn run_stream(
    schema: &std::sync::Arc<Schema>,
    cfds: &[Cfd],
    scheme: &HorizontalScheme,
    d0: &Relation,
    batches: &[UpdateBatch],
) -> Vec<(CodecKind, u64)> {
    let suite = Suite::on(schema.clone()).cfds(cfds.to_vec());
    let suite = suite.strategy(Strategy::Horizontal(scheme.clone()));
    let mut dets: Vec<(CodecKind, Box<dyn Detector>)> = CODECS
        .map(|codec| {
            let det = suite.clone().codec(codec).build_detector(d0);
            (codec, det.expect("detector builds"))
        })
        .into_iter()
        .collect();
    let mut mirror = d0.clone();
    for (round, delta) in batches.iter().enumerate() {
        let mut dvs = Vec::new();
        for (codec, det) in &mut dets {
            let dv = det.apply(delta).expect("apply succeeds");
            dvs.push((*codec, dv));
        }
        delta.normalize(&mirror).apply(&mut mirror).expect("mirror");
        let oracle = cfd::naive::detect(cfds, &mirror);
        for (codec, det) in &dets {
            assert_eq!(
                det.violations().marks_sorted(),
                oracle.marks_sorted(),
                "round {round}: codec {} disagrees with the oracle",
                codec.name()
            );
        }
        for w in dvs.windows(2) {
            assert_eq!(
                w[0].1.added,
                w[1].1.added,
                "round {round}: ΔV⁺ differs between {} and {}",
                w[0].0.name(),
                w[1].0.name()
            );
            assert_eq!(w[0].1.removed, w[1].1.removed, "round {round}: ΔV⁻");
        }
    }
    dets.iter()
        .map(|(codec, det)| (*codec, det.net().total_bytes()))
        .collect()
}

/// The paper's running example (EMP, Fig. 1/2) under a stream of
/// conflicting inserts and deletes that forces probe, query, reply and
/// clear rounds across the grade partition.
#[test]
fn emp_codecs_agree_and_dict_undercuts_raw() {
    let (schema, d0) = workload::emp::emp_relation();
    let cfds = workload::emp::emp_cfds(&schema);
    let scheme = workload::emp::emp_horizontal_scheme(&schema);

    // Cycles of the same cross-site conflict: after the first cycle warms
    // the per-link dictionaries, every re-shipment is a 4-byte symbol.
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

    let bytes = run_stream(&schema, &cfds, &scheme, &d0, &batches);
    let of = |k: CodecKind| bytes.iter().find(|(c, _)| *c == k).unwrap().1;
    assert!(
        of(CodecKind::Dict) < of(CodecKind::RawValues),
        "dict {} must undercut raw {}",
        of(CodecKind::Dict),
        of(CodecKind::RawValues)
    );
}

/// A DBLP-like fig9 workload: hash-partitioned over 6 sites, 12 rules,
/// mixed insert/delete stream drawn from skewed venue/author domains.
#[test]
fn dblp_codecs_agree_and_dict_undercuts_raw() {
    let cfg = DblpConfig {
        n_rows: 1_500,
        n_venues: 40,
        n_authors: 400,
        error_rate: 0.05,
        seed: 11,
    };
    let (schema, d0) = dblp::generate(&cfg);
    let cfds = workload::rules::dblp_rules(&schema, 12, 3);
    let scheme = dblp::horizontal_scheme(&schema, 6);

    let mut mirror = d0.clone();
    let mut batches = Vec::new();
    let mut next_tid = 1_000_000u64;
    for round in 0..8u64 {
        let fresh = dblp::generate_fresh(&cfg, next_tid, 60, round + 1);
        next_tid += 60;
        let delta = updates::generate(
            &mirror,
            &fresh,
            60,
            UpdateMix {
                insert_fraction: 0.7,
            },
            round ^ 0x5eed,
        );
        delta.normalize(&mirror).apply(&mut mirror).expect("mirror");
        batches.push(delta);
    }

    let bytes = run_stream(&schema, &cfds, &scheme, &d0, &batches);
    let of = |k: CodecKind| bytes.iter().find(|(c, _)| *c == k).unwrap().1;
    assert!(of(CodecKind::RawValues) > 0, "stream must ship something");
    assert!(
        of(CodecKind::Dict) < of(CodecKind::RawValues),
        "dict {} must undercut raw {} after warm-up",
        of(CodecKind::Dict),
        of(CodecKind::RawValues)
    );
    // Reports carry the codec label the traffic was encoded with.
    for codec in CODECS {
        let (s, c, sim) = (schema.clone(), cfds.clone(), TransportKind::Simulated);
        let det = HorizontalDetector::new(s, c, scheme.clone(), &d0, codec, sim).unwrap();
        assert_eq!(det.net().codec(), Some(codec.name()));
        assert_eq!(det.codec_kind(), codec);
    }
}

/// The hybrid topology routes its inter-region traffic through the same
/// codec seam: all three codecs must agree with the oracle there too.
#[test]
fn hybrid_inter_region_codecs_agree() {
    let (schema, d0) = workload::emp::emp_relation();
    let cfds = workload::emp::emp_cfds(&schema);
    let scheme = HybridScheme::uniform(schema.clone(), 3, 2).unwrap();
    let mut mirror = d0.clone();
    let mut delta = UpdateBatch::new();
    delta.insert(workload::emp::t6());
    delta.delete(4);
    delta.normalize(&mirror).apply(&mut mirror).unwrap();
    let oracle = cfd::naive::detect(&cfds, &mirror);
    for codec in CODECS {
        let mut det = Suite::on(schema.clone())
            .cfds(cfds.clone())
            .strategy(Strategy::Hybrid(scheme.clone()))
            .codec(codec)
            .build_detector(&d0)
            .unwrap();
        det.apply(&delta).unwrap();
        assert_eq!(
            det.violations().marks_sorted(),
            oracle.marks_sorted(),
            "hybrid codec {}",
            codec.name()
        );
        assert_eq!(det.net().codec(), Some(codec.name()));
    }
}
