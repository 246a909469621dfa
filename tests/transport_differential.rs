//! Differential suite for the real byte transport (`cluster::net`).
//!
//! The load-bearing claim: running the §6 horizontal protocol over real
//! serialized frames changes **nothing semantically** and the measured
//! on-wire bytes tie back to the paper's modeled `|M|` exactly —
//!
//! ```text
//! measured wire bytes == modeled |M| + structural − saved
//! ```
//!
//! where every term is metered constructively at its own source, never
//! derived by subtraction: a frame's bytes above its modeled size
//! (headers, tags, counts) are structural, its bytes below it (varint
//! ids, cell values against the model's fixed widths) and what the
//! compressor recovered are saved. Protocol frames ship stored; only the
//! threaded runtime's large control frames pack.

use cluster::codec::{value_digest, CodecKind, ReceiverCodec, WireValue};
use cluster::net::{bytes as wirefmt, ByteNetwork, FrameCodec, TransportKind};
use cluster::netstats::Counters;
use cluster::TransportMeter;
use inc_cfd::prelude::*;
use incdetect::baselines::{BatMsg, ColsMsg};
use incdetect::{ConcurrentHorizontal, HybridScheme};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relation::{AttrId, FxHashMap};
use workload::dblp::{self, DblpConfig};
use workload::updates::{self, UpdateMix};

// ----------------------------------------------------------------------
// Shared workload: a DBLP-like stream with genuine cross-site traffic
// ----------------------------------------------------------------------

fn stream_fixture() -> (
    std::sync::Arc<Schema>,
    Vec<Cfd>,
    HorizontalScheme,
    Relation,
    Vec<UpdateBatch>,
) {
    let cfg = DblpConfig {
        n_rows: 1_200,
        n_venues: 40,
        n_authors: 400,
        error_rate: 0.05,
        seed: 11,
    };
    let (schema, d0) = dblp::generate(&cfg);
    let cfds = workload::rules::dblp_rules(&schema, 12, 3);
    let scheme = dblp::horizontal_scheme(&schema, 6);
    let mut batches = Vec::new();
    let mut mirror = d0.clone();
    let mut next_tid = 2_000_000u64;
    for round in 0..8u64 {
        let fresh = dblp::generate_fresh(&cfg, next_tid, 60, round + 1);
        next_tid += 60;
        let delta = updates::generate(
            &mirror,
            &fresh,
            60,
            UpdateMix {
                insert_fraction: 0.75,
            },
            round ^ 0x51,
        );
        delta.normalize(&mirror).apply(&mut mirror).expect("mirror");
        batches.push(delta);
    }
    (schema, cfds, scheme, d0, batches)
}

struct RunOutcome {
    marks: Vec<(u32, Tid)>,
    modeled: u64,
    meter: Option<TransportMeter>,
}

fn run(
    fixture: &(
        std::sync::Arc<Schema>,
        Vec<Cfd>,
        HorizontalScheme,
        Relation,
        Vec<UpdateBatch>,
    ),
    codec: CodecKind,
    transport: TransportKind,
) -> RunOutcome {
    let (schema, cfds, scheme, d0, batches) = fixture;
    let (s, c) = (schema.clone(), cfds.clone());
    let det = HorizontalDetector::new(s, c, scheme.clone(), d0, codec, transport);
    let mut det = det.expect("detector builds");
    for delta in batches {
        det.apply(delta).expect("apply succeeds");
    }
    RunOutcome {
        marks: det.violations().marks_sorted(),
        modeled: det.meters().modeled.total_bytes(),
        meter: det.net().measured().map(|_| det.meters().transport),
    }
}

/// For every codec: the framed run must (a) agree with the
/// simulated run and the oracle, (b) model identical `|M|`, and (c) obey
/// the constructive overhead identity, at each codec's exact bytes above
/// and below the model — `[structural, saved]`.
#[test]
fn framed_bytes_equal_model_plus_declared_overhead() {
    let fixture = stream_fixture();
    for (codec, want) in [
        (CodecKind::Md5, [2_097, 32_979]),
        (CodecKind::RawValues, [2_097, 34_488]),
        (CodecKind::Dict, [2_096, 23_333]),
    ] {
        let simulated = run(&fixture, codec, TransportKind::Simulated);
        let framed = run(&fixture, codec, TransportKind::Framed);
        assert_eq!(
            simulated.marks,
            framed.marks,
            "{}: the transport must not change detection results",
            codec.name()
        );
        assert!(simulated.meter.is_none(), "simulated runs ship no bytes");
        assert_eq!(
            simulated.modeled,
            framed.modeled,
            "{}: modeled |M| must be substrate-independent",
            codec.name()
        );
        let m = framed.meter.expect("framed runs meter the wire");
        assert!(m.frames > 0 && simulated.modeled > 0, "traffic flowed");
        assert_eq!(m.modeled_bytes, simulated.modeled);
        assert_eq!(
            m.wire_bytes,
            m.modeled_bytes + m.structural_bytes - m.saved_bytes,
            "{}: measured == modeled + structural − saved",
            codec.name()
        );
        let got = [m.structural_bytes, m.saved_bytes];
        assert_eq!(got, want, "{}: [structural, saved]", codec.name());
    }
    // And all three agree with the centralized oracle on final state.
    let (schema, cfds, scheme, d0, batches) = &fixture;
    let (s, c, md5) = (schema.clone(), cfds.clone(), CodecKind::Md5);
    let framed = TransportKind::Framed;
    let mut det = HorizontalDetector::new(s, c, scheme.clone(), d0, md5, framed).unwrap();
    let mut mirror = d0.clone();
    for delta in batches {
        det.apply(delta).unwrap();
        delta.normalize(&mirror).apply(&mut mirror).unwrap();
    }
    let oracle = cfd::naive::detect(det.cfds(), &mirror);
    assert_eq!(det.violations().marks_sorted(), oracle.marks_sorted());
}

/// Every cell of an `n`-site matrix, row-major.
fn cells(stats: &NetStats) -> Vec<Counters> {
    let n = stats.n_sites();
    (0..n * n).map(|i| stats.pair(i / n, i % n)).collect()
}

/// The socket transport: the same protocol over real localhost TCP
/// connections (per-site reader threads), byte-for-byte metered — and
/// byte for byte what the in-process framed channels write, link by
/// link, since both are the same nodes driven by one thread. The
/// thread-per-site runtime over the same sockets computes the same `ΔV`
/// and modeled matrix, and the `D` it gathers from its sites after every
/// batch is the stream's.
#[test]
fn tcp_transport_runs_the_protocol_end_to_end() {
    let cfg = DblpConfig {
        n_rows: 300,
        n_venues: 15,
        n_authors: 90,
        error_rate: 0.05,
        seed: 23,
    };
    let (schema, d0) = dblp::generate(&cfg);
    let cfds = workload::rules::dblp_rules(&schema, 8, 2);
    let scheme = dblp::horizontal_scheme(&schema, 4);
    let (s, c, dict) = (schema.clone(), cfds.clone(), CodecKind::Dict);
    let det = HorizontalDetector::new(s, c, scheme.clone(), &d0, dict, TransportKind::Tcp);
    let mut det = det.expect("TCP mesh builds on localhost");
    let mut mirror = d0.clone();
    let (s, c, framed) = (schema.clone(), cfds.clone(), TransportKind::Framed);
    let mut framed = HorizontalDetector::new(s, c, scheme.clone(), &d0, dict, framed).unwrap();
    let (s, c, tcp) = (schema.clone(), cfds.clone(), TransportKind::Tcp);
    let mut thr = ConcurrentHorizontal::threaded(s, c, scheme.clone(), &d0, dict, tcp).unwrap();
    let sim = TransportKind::Simulated;
    let mut sim = HorizontalDetector::new(schema, cfds, scheme, &d0, dict, sim).unwrap();
    let fresh = dblp::generate_fresh(&cfg, 9_000_000, 60, 5);
    for round in 0..4u64 {
        let delta = updates::generate(
            &mirror,
            &fresh,
            40,
            UpdateMix {
                insert_fraction: 0.7,
            },
            round,
        );
        let dv = det.apply(&delta).expect("apply over sockets");
        assert_eq!(
            dv,
            framed.apply(&delta).expect("apply framed"),
            "round {round}"
        );
        let (m, framed_m) = (det.meters(), framed.meters());
        assert_eq!(cells(&m.modeled), cells(&framed_m.modeled), "round {round}");
        assert_eq!(cells(&m.wire), cells(&framed_m.wire), "round {round}");
        sim.apply(&delta).expect("apply simulated");
        delta.normalize(&mirror).apply(&mut mirror).unwrap();
        assert_eq!(
            thr.apply(&delta).expect("apply threaded"),
            dv,
            "round {round}"
        );
        let (thr_m, m) = (&thr.meters().modeled, &det.meters().modeled);
        assert_eq!(cells(thr_m), cells(m), "round {round}");
        let gathered = thr.current();
        assert_eq!(gathered.len(), mirror.len(), "round {round}");
        assert!(gathered.iter().eq(mirror.iter()), "round {round}");
    }
    let oracle = cfd::naive::detect(det.cfds(), &mirror);
    assert_eq!(det.violations().marks_sorted(), oracle.marks_sorted());
    assert_eq!(
        det.meters().modeled.total_bytes(),
        sim.meters().modeled.total_bytes(),
        "modeled |M| identical over sockets and simulation"
    );
    let m = det.meters().transport;
    assert_eq!(
        m.wire_bytes,
        m.modeled_bytes + m.structural_bytes - m.saved_bytes
    );
    // The NetReport surface carries both sides.
    let report = det.net();
    let wire = report.measured().expect("sockets meter the wire");
    assert_eq!(wire.total_messages(), m.frames);
    assert_eq!(report.total_bytes(), det.meters().modeled.total_bytes());
    assert_eq!(report.measured_bytes(), Some(m.wire_bytes));
}

/// The hybrid detector's inter-region gateway rounds ride the byte
/// transport too (intra-region assembly stays modeled).
#[test]
fn hybrid_gateway_rounds_ride_the_byte_transport() {
    let schema = Schema::new("R", &["id", "a", "b", "c", "d"], "id").unwrap();
    let mut d0 = Relation::new(schema.clone());
    for i in 0..80u64 {
        d0.insert(Tuple::new(
            i,
            vec![
                Value::int(i as i64),
                Value::int((i % 5) as i64),
                Value::int((i % 3) as i64),
                Value::int((i % 7) as i64),
                Value::int((i % 2) as i64),
            ],
        ))
        .unwrap();
    }
    let cfds = vec![
        Cfd::from_names(0, &schema, &[("a", None), ("b", None)], ("c", None)).unwrap(),
        Cfd::from_names(
            1,
            &schema,
            &[("a", Some(Value::int(1)))],
            ("d", Some(Value::int(1))),
        )
        .unwrap(),
    ];
    let scheme = HybridScheme::uniform(schema.clone(), 3, 2).unwrap();
    let mut det = Suite::on(schema)
        .cfds(cfds)
        .strategy(Strategy::Hybrid(scheme))
        .codec(CodecKind::Dict)
        .transport(TransportKind::Framed)
        .build_detector(&d0)
        .unwrap();
    let mut delta = UpdateBatch::new();
    for i in 0..20u64 {
        delta.insert(Tuple::new(
            500 + i,
            vec![
                Value::int((500 + i) as i64),
                Value::int(1),
                Value::int(1),
                Value::int(90 + i as i64),
                Value::int(0),
            ],
        ));
        if i % 3 == 0 {
            delta.delete(i);
        }
    }
    det.apply(&delta).unwrap();
    let oracle = cfd::naive::detect(det.cfds(), det.current());
    assert_eq!(det.violations().marks_sorted(), oracle.marks_sorted());
    let report = det.net();
    let measured = report.measured_bytes().expect("gateway rounds ship bytes");
    assert!(measured > 0);
    assert!(
        report.tier("intra").unwrap().total_bytes() > 0,
        "assembly stays modeled alongside"
    );
}

// ----------------------------------------------------------------------
// Seeded round-trip property: random payloads, all three codecs
// ----------------------------------------------------------------------

fn random_value(rng: &mut StdRng) -> Value {
    match rng.random_range(0..10usize) {
        0 => Value::Null,
        1..=4 => Value::int(rng.random_range(-1_000_000..1_000_000i64)),
        _ => {
            let len = rng.random_range(0..40usize);
            let s: String = (0..len)
                .map(|_| char::from(rng.random_range(32u32..127) as u8))
                .collect();
            Value::str(s)
        }
    }
}

/// Property: for every codec, any sequence of random values encoded for
/// a link serializes, at the length the `bytes` table gives, to bytes
/// that decode back to the identical payload and key, and the
/// receiver-side digest (from the decoded payload alone) equals the
/// value's true digest — i.e. the sender/receiver state machines agree
/// through a real byte round-trip, dictionary deltas included.
#[test]
fn random_wire_values_round_trip_for_all_codecs() {
    let mut rng = StdRng::seed_from_u64(0xC0DEC);
    for codec_kind in [CodecKind::RawValues, CodecKind::Md5, CodecKind::Dict] {
        let mut tx = codec_kind.codec();
        let mut rx = ReceiverCodec::new();
        // Skewed pool so dict re-ships symbols (bare-sym payloads occur).
        let pool: Vec<Value> = (0..25).map(|_| random_value(&mut rng)).collect();
        for i in 0..400usize {
            let v = if rng.random_bool(0.7) {
                pool[rng.random_range(0..pool.len())].clone()
            } else {
                random_value(&mut rng)
            };
            let dst = 1 + (i % 3); // several links, per-link dict state
            let w = tx.encode(0, dst, &v);
            // Attributes below 32 take a one-byte header, the rest two.
            let key = (i % 40) as AttrId;
            let mut bytes = Vec::new();
            wirefmt::put_wire_value(&mut bytes, key, &w);
            let body = match &w {
                WireValue::Raw(v) => wirefmt::cell_len(v),
                WireValue::Md5(_) => 16,
                WireValue::Sym(s, entry) => {
                    wirefmt::varint_len(u64::from(*s)) + entry.as_ref().map_or(0, wirefmt::cell_len)
                }
            };
            assert_eq!(bytes.len(), 1 + usize::from(key >= 32) + body, "{w:?}");
            let mut reader = wirefmt::Reader::new(&bytes);
            let (got_key, decoded) = wirefmt::get_wire_value(&mut reader).expect("decodes");
            reader.finish().expect("no trailing bytes");
            assert_eq!(
                (got_key, &decoded),
                (key, &w),
                "byte round-trip is lossless"
            );
            if dst == 1 {
                // One receiver tracks link 0→1; its digests must match
                // the ground truth for every payload shape.
                assert_eq!(
                    rx.digest(&decoded).expect("resolvable"),
                    value_digest(&v),
                    "{}: receiver digest diverged",
                    codec_kind.name()
                );
            }
        }
    }
}

/// A [`ColsMsg`] back to `(tid, values)` rows through `link`, the
/// receiver's dictionary for its link, fed by the message's delta first.
fn decode_cols(msg: &ColsMsg, link: &mut FxHashMap<Sym, Value>) -> Vec<(Tid, Vec<Value>)> {
    link.extend(msg.dict.iter().cloned());
    let row = |i: usize| msg.cols.iter().map(|c| link[&c[i]].clone()).collect();
    msg.tids
        .iter()
        .enumerate()
        .map(|(i, &t)| (t, row(i)))
        .collect()
}

/// The batch coordinators' columnar shipment crosses a byte network as a
/// real frame and reconstructs identically at the receiver.
#[test]
fn colsmsg_frames_cross_a_byte_network() {
    let schema = Schema::new("F", &["id", "zip", "street"], "id").unwrap();
    let mut frag = Relation::new(schema);
    for i in 0..50u64 {
        frag.insert_row(
            i,
            [
                Value::int(i as i64),
                Value::str(format!("EH{} {}XY", i % 7, i % 3)),
                Value::str(format!("Street-{}", i % 11)),
            ]
            .iter(),
        )
        .unwrap();
    }
    let rows: Vec<(Tid, relation::RowId)> = frag.store().rows().collect();
    let mut meter = cluster::DictMeter::new();
    let msg = ColsMsg::encode(&frag, &rows, &[1, 2], &mut meter, 0, 1);
    let expected_rows = decode_cols(&msg, &mut Default::default());

    let mut net: ByteNetwork<BatMsg> = ByteNetwork::in_memory(2);
    net.send(0, 1, BatMsg::Cols(msg.clone())).unwrap();
    let mut got = net.try_drain(1).unwrap();
    assert_eq!(got.len(), 1);
    let (src, BatMsg::Cols(received)) = got.remove(0);
    assert_eq!(src, 0);
    assert_eq!(received, msg, "frame round-trip is lossless");
    let mut link = Default::default();
    assert_eq!(decode_cols(&received, &mut link), expected_rows);
    let m = net.meter();
    assert_eq!(
        m.wire_bytes,
        m.modeled_bytes + m.structural_bytes - m.saved_bytes
    );

    // Malformed frames error rather than panic at the decode boundary.
    assert!(BatMsg::decode_frame(&[0, 1, 0, 0]).is_err());
    assert!(BatMsg::decode_frame(&[9]).is_err());
}
