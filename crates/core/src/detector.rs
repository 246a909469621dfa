//! The unified detection API.
//!
//! The paper defines one abstract problem — given `(D, Σ, V(Σ, D), ΔD)`,
//! compute `ΔV` in `O(|ΔD| + |ΔV|)` — and instantiates it for vertical
//! (§4), horizontal (§6) and hybrid partitions, with batch baselines for
//! the evaluation (§7). [`Detector`] is the single polymorphic surface all
//! of them share, so harnesses, examples and future backends drive *any*
//! strategy through one interface:
//!
//! * the incremental detectors — [`VerticalDetector`](crate::VerticalDetector),
//!   [`HorizontalDetector`](crate::HorizontalDetector),
//!   [`HybridDetector`](crate::HybridDetector);
//! * the batch baselines — [`BatVer`](crate::baselines::BatVer),
//!   [`BatHor`](crate::baselines::BatHor),
//!   [`IbatVer`](crate::baselines::IbatVer),
//!   [`IbatHor`](crate::baselines::IbatHor).
//!
//! The trait is object-safe: `Box<dyn Detector>` is the currency of the
//! generic drivers, and [`Suite::build_detector`](crate::Suite::build_detector)
//! builds one for any [`Strategy`](crate::Strategy).
//!
//! [`DetectError`] is the single error type at this boundary, and the
//! only one the detectors use internally.

use crate::plan::PlanError;
use cfd::{Cfd, DeltaV, Violations};
use cluster::codec::CodecKind;
use cluster::{ClusterError, NetReport, SiteId, TransportKind};
use relation::{RelError, Relation, Schema, Tuple, Update, UpdateBatch};
use std::sync::Arc;

/// Errors crossing the public detection boundary.
#[derive(Debug)]
pub enum DetectError {
    /// Underlying relational error (bad tuple, unknown tid, arity).
    Rel(RelError),
    /// Underlying cluster error (bad scheme, routing, unknown site).
    Cluster(ClusterError),
    /// The catalog was refused: its CFD ids are not its positions, it
    /// failed static analysis (Σ unsatisfiable under
    /// `AnalysisMode::Prune`), or a suite check names what it lacks.
    Analysis(String),
    /// An HEV plan does not fit the scheme or the rule set (§4).
    Plan(PlanError),
    /// Maintained state contradicted itself (a bug in this library, not
    /// in the caller's input): the batch failed, the process lives.
    Internal(String),
    /// A site process of a multi-process session built another share of
    /// `D₀` than the coordinator's build of that site: it derived another
    /// `D₀`, `Σ` or scheme from its parameters.
    BuildMismatch {
        /// The site.
        site: SiteId,
        /// Its fingerprint against the coordinator's. (Boxed, so the
        /// variant is no wider than the others.)
        what: Box<str>,
    },
    /// The strategy cannot run over the transport a session asked for:
    /// `incVer`, `optVer` and `ibatVer` ship eqids on the simulated
    /// network only.
    UnsupportedTransport {
        /// The strategy ([`Strategy::name`](crate::Strategy::name)).
        strategy: &'static str,
        /// The transport it was asked to run over.
        transport: TransportKind,
    },
    /// The strategy ships no value through the codec a session asked
    /// for: only `incHor` and `incHyb` take one. `incVer`, `optVer` and
    /// `ibatVer` ship eqids, `batVer` and `batHor` always ship dict and
    /// `ibatHor` always md5.
    UnsupportedCodec {
        /// The strategy ([`Strategy::name`](crate::Strategy::name)).
        strategy: &'static str,
        /// The codec it was asked to ship with.
        codec: CodecKind,
    },
}

impl std::fmt::Display for DetectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DetectError::Rel(e) => write!(f, "{e}"),
            DetectError::Cluster(e) => write!(f, "{e}"),
            DetectError::Analysis(msg) => write!(f, "static analysis: {msg}"),
            DetectError::Plan(e) => write!(f, "HEV plan: {e}"),
            DetectError::Internal(msg) => write!(f, "internal inconsistency: {msg}"),
            DetectError::BuildMismatch { site, what } => {
                write!(f, "site {site} built another share of D₀: {what}")
            }
            DetectError::UnsupportedTransport {
                strategy,
                transport,
            } => write!(
                f,
                "{strategy} runs on the simulated network only, not over {}",
                transport.name()
            ),
            DetectError::UnsupportedCodec { strategy, codec } => write!(
                f,
                "{strategy} ships no value through a codec, so it cannot take {}",
                codec.name()
            ),
        }
    }
}

impl std::error::Error for DetectError {}

impl From<RelError> for DetectError {
    fn from(e: RelError) -> Self {
        DetectError::Rel(e)
    }
}

impl From<PlanError> for DetectError {
    fn from(e: PlanError) -> Self {
        DetectError::Plan(e)
    }
}

impl From<ClusterError> for DetectError {
    fn from(e: ClusterError) -> Self {
        DetectError::Cluster(e)
    }
}

/// Admit a caller's batch — the first thing every `apply` does, before
/// anything is mutated. The batch is normalised against `current` (`incVer`
/// line 1), which leaves deletes of live tids and inserts of free ones
/// only, and an insert whose arity is not the schema's is refused: past
/// this point a tuple can be indexed by any attribute of the schema, and
/// the one error a caller can still cause is an unroutable tuple, which
/// the horizontal strategies settle next, for the whole batch.
pub(crate) fn admit(current: &Relation, delta: &UpdateBatch) -> Result<UpdateBatch, DetectError> {
    fitted(delta.normalize(current), current.schema())
}

/// Refuse a normalised batch that inserts a tuple of another arity than
/// `schema`'s ([`admit`]'s second half, for a detector that normalises
/// without a copy of `D`).
pub(crate) fn fitted(delta: UpdateBatch, schema: &Schema) -> Result<UpdateBatch, DetectError> {
    let expected = schema.arity();
    let misfit = delta
        .insertions()
        .map(Tuple::arity)
        .find(|&n| n != expected);
    match misfit {
        Some(got) => Err(RelError::ArityMismatch { expected, got }.into()),
        None => Ok(delta),
    }
}

/// Commit a batch's settled `ΔV` to `v` ([`Violations::commit`]); a
/// refused mark, a detector's bookkeeping bug, fails the batch naming it.
pub(crate) fn commit(v: &mut Violations, dv: &DeltaV) -> Result<(), DetectError> {
    v.commit(dv).map_err(|(c, t)| {
        let what = if v.contains(c, t) {
            "adds a mark `V` already holds"
        } else {
            "removes a mark `V` does not hold"
        };
        DetectError::Internal(format!("ΔV {what}: CFD {c} on tuple {t}"))
    })
}

/// Refuse a catalog whose CFD ids are not their positions `0, 1, …` —
/// the first thing every detector constructor does, since violation sets
/// and plans index their per-CFD state by id.
pub(crate) fn positional(cfds: &[Cfd]) -> Result<(), DetectError> {
    match cfds.iter().enumerate().find(|(i, c)| c.id as usize != *i) {
        Some((i, c)) => Err(DetectError::Analysis(format!(
            "the CFD at position {i} has id {}; ids must be 0, 1, … in catalog order",
            c.id
        ))),
        None => Ok(()),
    }
}

/// A maintained violation detector: owns `V(Σ, D)` for some partition
/// strategy and folds update batches into it.
///
/// Every implementation can produce the logical relation (`current`),
/// meters every cross-site payload into one [`cluster::Meters`] block (its
/// concrete type's `meters()`), and guarantees that after `apply`
/// returns, `violations()` equals the centralized ground truth over
/// `current()` — the incremental ones in `O(|ΔD| + |ΔV|)`, the batch
/// baselines by recomputation. The single-process detectors keep `D`
/// whole; the concurrent runtime keeps each row only at its home site and
/// gathers `D` when asked
/// ([`ConcurrentHorizontal`](crate::ConcurrentHorizontal)).
pub trait Detector {
    /// Partition-strategy name, e.g. `"incVer"` or `"batHor"` (the paper's
    /// algorithm names; used by harness output).
    fn strategy(&self) -> &'static str;

    /// The global schema.
    fn schema(&self) -> &Arc<Schema>;

    /// The rule set `Σ`.
    fn cfds(&self) -> &[Cfd];

    /// The logical relation `D` (the join/union of fragments): kept, or
    /// gathered from the sites on demand.
    fn current(&self) -> &Relation;

    /// The maintained violation set `V(Σ, D)`.
    fn violations(&self) -> &Violations;

    /// Apply a batch update `ΔD`, returning the net change `ΔV`.
    ///
    /// The returned delta is settled: a mark removed and re-added within
    /// the batch reports as a no-op, and both lists are sorted.
    fn apply(&mut self, delta: &UpdateBatch) -> Result<DeltaV, DetectError>;

    /// Apply a single update as a one-op batch, returning its settled
    /// `ΔV` — the unit of work the sustained-load driver (`loadgen`)
    /// times for per-update detection latency. Semantically identical to
    /// wrapping `op` in an [`UpdateBatch`]; strategies with a cheaper
    /// single-update path may override.
    fn apply_one(&mut self, op: &Update) -> Result<DeltaV, DetectError> {
        let mut batch = UpdateBatch::new();
        match op {
            Update::Insert(t) => batch.insert(t.clone()),
            Update::Delete(tid) => batch.delete(*tid),
        }
        self.apply(&batch)
    }

    /// Cumulative network traffic since construction or the last
    /// [`reset_stats`](Self::reset_stats), normalized over tiers: the
    /// [`report`](cluster::Meters::report) of the detector's meters, which
    /// alone decides whether a measured tier exists, plus the hybrid's
    /// intra-region tier where there is one.
    fn net(&self) -> NetReport;

    /// Reset the traffic meters (e.g. between experiment phases).
    fn reset_stats(&mut self);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StateCensus;
    use crate::{ConcurrentHorizontal, HorizontalDetector, VerticalDetector};
    use cfd::{CfdId, OpId};
    use cluster::codec::CodecKind;
    use cluster::md5::Digest;
    use cluster::net::TransportKind;
    use cluster::partition::{HorizontalScheme, VerticalScheme};
    use cluster::SiteId;
    use relation::{Tid, Tuple, Value};

    fn emp_schema() -> Arc<Schema> {
        Schema::new("EMP", &["id", "grade", "CC", "zip", "street", "city"], "id").unwrap()
    }

    fn emp_row(tid: Tid) -> Tuple {
        let zip = if tid % 10 == 0 { tid } else { tid % 97 };
        let city = if tid % 13 == 0 { "NYC" } else { "EDI" };
        Tuple::new(
            tid,
            vec![
                Value::int(tid as i64),
                Value::str(["A", "B", "C", "D"][(tid % 4) as usize]),
                Value::int(if tid % 7 == 0 { 1 } else { 44 }),
                Value::str(format!("Z{zip}")),
                Value::str(format!("street {}", (tid / 3) % 5)),
                Value::str(city),
            ],
        )
    }

    fn emp_cfds(s: &Schema) -> Vec<Cfd> {
        let cc44 = ("CC", Some(Value::int(44)));
        vec![
            Cfd::from_names(0, s, &[cc44.clone(), ("zip", None)], ("street", None)).unwrap(),
            Cfd::from_names(1, s, &[("zip", None)], ("city", None)).unwrap(),
            Cfd::from_names(2, s, &[cc44], ("city", Some(Value::str("EDI")))).unwrap(),
        ]
    }

    /// What a §6 build leaves behind, as far as this crate can see it.
    #[derive(Debug, PartialEq)]
    struct Built {
        marks: Vec<(CfdId, Tid)>,
        census: StateCensus,
        flags: Vec<(SiteId, OpId, Digest, bool)>,
        resident_symbols: Vec<usize>,
    }

    impl Built {
        fn of(det: &HorizontalDetector) -> Self {
            Built {
                marks: det.violations().marks_sorted(),
                census: det.state_census(),
                flags: det.group_flags(),
                resident_symbols: det.resident_symbols(),
            }
        }
    }

    /// The §6 build — `HorizontalDetector::new`, and `HybridDetector::new`
    /// through it — leaves what an empty detector handed `D₀` as one insert
    /// batch leaves: the same `V`, census (resident bytes included), flag of
    /// every group at every site and symbols resident on every link; after
    /// the same seeded stream, the same `ΔV` at every step and the same
    /// per-link traffic. Under every codec, over the simulated and framed
    /// transports, for TPCH's 8 rules and a 96-rule mined family at high
    /// overlap (spilled classes, groups held at several sites, operators
    /// local to a site), on a `D₀` with history (`fixtures::build_catalogs`).
    #[test]
    fn build_is_the_replay() {
        use crate::horizontal::fixtures::{build_catalogs, stream};
        use crate::{HybridDetector, HybridScheme};
        let (d0, fresh, catalogs) = build_catalogs();
        let s = d0.schema().clone();
        let codecs = [CodecKind::RawValues, CodecKind::Md5, CodecKind::Dict];
        let transports = [TransportKind::Simulated, TransportKind::Framed];
        let empty = Relation::new(s.clone());
        let mut all = UpdateBatch::new();
        d0.iter().for_each(|t| all.insert(t));
        for (name, sigma, scheme) in &catalogs {
            let rhs = sigma.iter().find(|c| c.is_variable()).unwrap().rhs;
            let batches = stream(&d0, &fresh[..40], rhs);
            let hybrid = HybridScheme::new(
                scheme.clone(),
                (0..scheme.n_sites())
                    .map(|_| VerticalScheme::round_robin(s.clone(), 2).unwrap())
                    .collect(),
            )
            .unwrap();
            for (codec, transport) in codecs.into_iter().flat_map(|c| transports.map(|t| (c, t))) {
                let at = format!("{name}, {codec:?} over {transport:?}");
                let hor = |d: &Relation| {
                    let (s, sigma) = (s.clone(), sigma.clone());
                    HorizontalDetector::new(s, sigma, scheme.clone(), d, codec, transport).unwrap()
                };
                let (mut built, mut replayed) = (hor(&d0), hor(&empty));
                replayed.apply(&all).unwrap();
                replayed.reset_stats();
                let got = Built::of(&built);
                assert_eq!(got, Built::of(&replayed), "{at}: incHor");
                assert!(got.flags.iter().any(|f| f.3), "{at}: a violating group");
                if *name != "TPCH 8 rules" {
                    let census = got.census;
                    assert!(census.spilled_class_maps > 0, "{at}: {census:?}");
                    let mut keys: Vec<_> = got.flags.iter().map(|f| (f.1, f.2)).collect();
                    keys.sort_unstable();
                    assert!(
                        keys.windows(2).any(|w| w[0] == w[1]),
                        "{at}: no multi-site group"
                    );
                }
                if codec == CodecKind::Dict {
                    assert!(got.resident_symbols.iter().any(|&n| n > 0), "{at}");
                }
                assert_eq!(
                    built.meters().modeled.total_messages(),
                    0,
                    "{at}: unmetered"
                );
                for (i, batch) in batches.iter().enumerate() {
                    let dv = built.apply(batch).unwrap();
                    assert_eq!(dv, replayed.apply(batch).unwrap(), "{at}: ΔV of batch {i}");
                }
                assert!(
                    built.meters().modeled.total_messages() > 0,
                    "{at}: the stream ships"
                );
                assert_eq!(
                    built.meters().modeled.to_bytes(),
                    replayed.meters().modeled.to_bytes(),
                    "{at}"
                );
                assert_eq!(
                    format!("{:?}", built.net()),
                    format!("{:?}", replayed.net())
                );
                assert_eq!(
                    Built::of(&built),
                    Built::of(&replayed),
                    "{at}: after the stream"
                );

                let hyb = |d: &Relation| {
                    let (s, sigma) = (s.clone(), sigma.clone());
                    HybridDetector::new(s, sigma, hybrid.clone(), d, codec, transport).unwrap()
                };
                let (mut built, mut replayed) = (hyb(&d0), hyb(&empty));
                replayed.apply(&all).unwrap();
                replayed.reset_stats();
                let (got, want) = (Built::of(built.inner()), Built::of(replayed.inner()));
                assert_eq!(got, want, "{at}: incHyb");
                for (i, batch) in batches.iter().enumerate() {
                    let dv = built.apply(batch).unwrap();
                    assert_eq!(dv, replayed.apply(batch).unwrap(), "{at}: incHyb ΔV {i}");
                }
                assert_eq!(
                    format!("{:?}", built.net()),
                    format!("{:?}", replayed.net())
                );
            }
        }
    }

    /// The build refuses what the replay's `admit` and `route` refused, with
    /// the same typed error: a `D₀` of another arity (through
    /// `clone_under`), and one holding an unroutable tuple (the scheme's
    /// `Routing`, naming the tid) — and the constructor returns no
    /// detector, half-built or not. The threaded runtime runs the same
    /// build before it opens a mesh, so it refuses the same way, over TCP
    /// too, and so does every baseline constructor, which would otherwise
    /// fail or panic at its first recompute. An empty `D₀` builds no
    /// group, teaches no symbol and allocates no table.
    #[test]
    fn a_build_refuses_what_the_replay_refused() {
        use crate::baselines::{BatHor, BatVer, IbatHor, IbatVer};
        use crate::{HybridDetector, HybridScheme};
        let s = emp_schema();
        let cc = s.attr_id("CC").unwrap();
        let values = vec![vec![Value::int(44)], vec![Value::int(1)]];
        let by_cc = HorizontalScheme::by_values(s.clone(), cc, values).unwrap();
        let mut stray = Relation::from_tuples(s.clone(), (1..=40).map(emp_row)).unwrap();
        let mut values = emp_row(41).values.to_vec();
        values[2] = Value::int(7);
        stray.insert(Tuple::new(41, values)).unwrap();
        let narrow = Schema::new("EMP", &["id", "grade", "CC", "zip", "street"], "id").unwrap();
        let row = |tid| Tuple::new(tid, emp_row(tid).values[..5].to_vec());
        let narrow = Relation::from_tuples(narrow, (1..=3).map(row)).unwrap();
        let (md5, dict) = (CodecKind::Md5, CodecKind::Dict);
        let sim = TransportKind::Simulated;
        let hor = |d: &Relation, codec| {
            HorizontalDetector::new(s.clone(), emp_cfds(&s), by_cc.clone(), d, codec, sim)
        };
        let hyb = |d: &Relation, codec| {
            let verticals = vec![VerticalScheme::round_robin(s.clone(), 2).unwrap(); 2];
            let scheme = HybridScheme::new(by_cc.clone(), verticals).unwrap();
            HybridDetector::new(s.clone(), emp_cfds(&s), scheme, d, codec, sim).map(drop)
        };
        let thr = |d: &Relation, codec| {
            let (cfds, scheme, tcp) = (emp_cfds(&s), by_cc.clone(), TransportKind::Tcp);
            ConcurrentHorizontal::threaded(s.clone(), cfds, scheme, d, codec, tcp).map(drop)
        };
        let refusals = [
            (&stray, "routing error: tuple 41 matches no fragment"),
            (&narrow, "tuple arity 5 does not match schema arity 6"),
        ];
        // The baselines recompute over the rows they were built with, so
        // each constructor refuses what incHor refuses. A vertical scheme
        // routes nothing: there only the arity is refused, and over the
        // stray D₀ they build and recompute.
        let vs = VerticalScheme::round_robin(s.clone(), 2).unwrap();
        let given = || Violations::new(3);
        type Built = Result<Box<dyn Detector>, DetectError>;
        fn boxed<D: Detector + 'static>(d: Result<D, DetectError>) -> Built {
            d.map(|d| Box::new(d) as Box<dyn Detector>)
        }
        let baselines = |d: &Relation| -> Vec<(&str, Built)> {
            let (c, h, v) = (emp_cfds(&s), by_cc.clone(), vs.clone());
            vec![
                (
                    "batHor",
                    boxed(BatHor::new(s.clone(), c.clone(), h.clone(), d)),
                ),
                (
                    "batHor given V",
                    boxed(BatHor::with_initial(
                        s.clone(),
                        c.clone(),
                        h.clone(),
                        d,
                        given(),
                    )),
                ),
                (
                    "ibatHor",
                    boxed(IbatHor::new(s.clone(), c.clone(), h.clone(), d)),
                ),
                (
                    "ibatHor given V",
                    boxed(IbatHor::with_initial(s.clone(), c.clone(), h, d, given())),
                ),
                (
                    "batVer",
                    boxed(BatVer::new(s.clone(), c.clone(), v.clone(), d)),
                ),
                (
                    "batVer given V",
                    boxed(BatVer::with_initial(
                        s.clone(),
                        c.clone(),
                        v.clone(),
                        d,
                        given(),
                    )),
                ),
                (
                    "ibatVer",
                    boxed(IbatVer::new(s.clone(), c.clone(), v.clone(), d)),
                ),
                (
                    "ibatVer given V",
                    boxed(IbatVer::with_initial(s.clone(), c, v, d, given())),
                ),
            ]
        };
        for (d0, want) in refusals {
            let mut all = UpdateBatch::new();
            d0.iter().for_each(|t| all.insert(t));
            let empty = Relation::new(s.clone());
            let replayed = hor(&empty, md5).unwrap().apply(&all).map(drop).unwrap_err();
            let refused = |what: &str, got: Result<(), DetectError>| {
                let got = got.expect_err(what);
                let typed = matches!(
                    (&got, &replayed),
                    (
                        DetectError::Cluster(ClusterError::Routing(_)),
                        DetectError::Cluster(ClusterError::Routing(_))
                    ) | (
                        DetectError::Rel(RelError::ArityMismatch { .. }),
                        DetectError::Rel(RelError::ArityMismatch { .. })
                    )
                );
                assert!(typed, "{what}: {got:?} where the replay said {replayed:?}");
                assert_eq!(got.to_string(), replayed.to_string(), "{what}");
                assert!(got.to_string().contains(want), "{what}: {got}");
            };
            for codec in [md5, dict] {
                for (what, got) in [
                    ("incHor", hor(d0, codec).map(drop)),
                    ("incHyb", hyb(d0, codec)),
                    ("incHorMt", thr(d0, codec)),
                ] {
                    refused(&format!("{what}, {codec:?}"), got);
                }
            }
            for (what, got) in baselines(d0) {
                if what.contains("Ver") && std::ptr::eq(d0, &stray) {
                    let mut det = got.unwrap_or_else(|e| panic!("{what}: {e}"));
                    det.apply(&UpdateBatch::new()).unwrap();
                    continue;
                }
                refused(what, got.map(drop));
            }
        }
        let empty = Relation::new(s.clone());
        for codec in [md5, dict] {
            let det = hor(&empty, codec).unwrap();
            assert_eq!(det.state_census(), StateCensus::default());
            assert!(det.resident_symbols().iter().all(|&n| n == 0));
            assert!(det.violations().is_empty());
            assert_eq!(det.meters().modeled.total_messages(), 0);
        }
    }

    /// A catalog whose ids are not its positions is a typed refusal at
    /// every constructor, before any per-CFD state is indexed by id.
    #[test]
    fn every_constructor_refuses_non_positional_ids() {
        use crate::baselines::{BatHor, BatVer, IbatHor, IbatVer};
        use crate::{HevPlan, HybridDetector, HybridScheme};
        let s = emp_schema();
        let hor = HorizontalScheme::by_hash(s.clone(), 0, 2).unwrap();
        let ver = VerticalScheme::round_robin(s.clone(), 2).unwrap();
        let hyb = HybridScheme::uniform(s.clone(), 2, 2).unwrap();
        let d = Relation::from_tuples(s.clone(), (1..=20).map(emp_row)).unwrap();
        let (md5, sim) = (CodecKind::Md5, TransportKind::Simulated);
        let none = |c: &[Cfd]| Violations::new(c.len());
        type Build<'a> = Box<dyn Fn(Vec<Cfd>) -> Result<(), DetectError> + 'a>;
        let builds: Vec<(&str, Build<'_>)> = vec![
            (
                "VerticalDetector::with_plan",
                Box::new(|c| {
                    let plan = HevPlan::default_chains(&c, &ver);
                    VerticalDetector::with_plan(s.clone(), c, ver.clone(), plan, &d).map(drop)
                }),
            ),
            (
                "HorizontalDetector::new",
                Box::new(|c| {
                    HorizontalDetector::new(s.clone(), c, hor.clone(), &d, md5, sim).map(drop)
                }),
            ),
            (
                "HybridDetector::new",
                Box::new(|c| {
                    HybridDetector::new(s.clone(), c, hyb.clone(), &d, md5, sim).map(drop)
                }),
            ),
            (
                "ConcurrentHorizontal::threaded",
                Box::new(|c| {
                    ConcurrentHorizontal::threaded(s.clone(), c, hor.clone(), &d, md5, sim)
                        .map(drop)
                }),
            ),
            (
                "BatVer::new",
                Box::new(|c| BatVer::new(s.clone(), c, ver.clone(), &d).map(drop)),
            ),
            (
                "BatHor::new",
                Box::new(|c| BatHor::new(s.clone(), c, hor.clone(), &d).map(drop)),
            ),
            (
                "IbatVer::new",
                Box::new(|c| IbatVer::new(s.clone(), c, ver.clone(), &d).map(drop)),
            ),
            (
                "IbatHor::new",
                Box::new(|c| IbatHor::new(s.clone(), c, hor.clone(), &d).map(drop)),
            ),
            (
                "BatVer::with_initial",
                Box::new(|c| {
                    let v = none(&c);
                    BatVer::with_initial(s.clone(), c, ver.clone(), &d, v).map(drop)
                }),
            ),
            (
                "BatHor::with_initial",
                Box::new(|c| {
                    let v = none(&c);
                    BatHor::with_initial(s.clone(), c, hor.clone(), &d, v).map(drop)
                }),
            ),
            (
                "IbatVer::with_initial",
                Box::new(|c| {
                    let v = none(&c);
                    IbatVer::with_initial(s.clone(), c, ver.clone(), &d, v).map(drop)
                }),
            ),
            (
                "IbatHor::with_initial",
                Box::new(|c| {
                    let v = none(&c);
                    IbatHor::with_initial(s.clone(), c, hor.clone(), &d, v).map(drop)
                }),
            ),
        ];
        for (ids, at) in [(&[1][..], 0), (&[0, 0], 1), (&[0, 2], 1)] {
            let cfds: Vec<Cfd> = ids
                .iter()
                .zip(emp_cfds(&s))
                .map(|(&id, c)| Cfd { id, ..c })
                .collect();
            let want = format!("position {at} has id {}", ids[at]);
            for (name, build) in &builds {
                match build(cfds.clone()) {
                    Err(DetectError::Analysis(msg)) => {
                        assert!(msg.contains(&want), "{name}: {msg}");
                    }
                    other => panic!("{name} over ids {ids:?}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn detector_is_object_safe() {
        // Compile-time check: the trait must stay usable as `dyn Detector`.
        fn _takes_dyn(_: &mut dyn Detector) {}
        fn _boxed(_: Box<dyn Detector>) {}
    }

    #[test]
    fn errors_convert_and_display() {
        let e: DetectError = RelError::MissingTid(7).into();
        assert!(matches!(e, DetectError::Rel(_)));
        assert!(e.to_string().contains('7'));
        let e: DetectError = ClusterError::UnknownSite(3).into();
        assert!(matches!(e, DetectError::Cluster(_)));
    }
}
