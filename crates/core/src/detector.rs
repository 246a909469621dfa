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
//! generic drivers (see `DetectorBuilder` for construction).
//!
//! [`DetectError`] is the single error type at this boundary, and the
//! only one the detectors use internally.

use cfd::constraint::FindingSet;
use cfd::{Cfd, DeltaV, Violations};
use cluster::{ClusterError, NetReport};
use relation::{RelError, Relation, Schema, Tuple, Update, UpdateBatch};
use std::sync::Arc;

/// Errors crossing the public detection boundary.
#[derive(Debug)]
pub enum DetectError {
    /// Underlying relational error (bad tuple, unknown tid, arity).
    Rel(RelError),
    /// Underlying cluster error (bad scheme, routing, unknown site).
    Cluster(ClusterError),
    /// The catalog failed static analysis (Σ unsatisfiable under
    /// `AnalysisMode::Prune`), or an analysis mode needs a build path the
    /// caller didn't use (`Prune` requires `build_dyn`).
    Analysis(String),
    /// Maintained state contradicted itself (a bug in this library, not
    /// in the caller's input): the batch failed, the process lives.
    Internal(String),
}

impl std::fmt::Display for DetectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DetectError::Rel(e) => write!(f, "{e}"),
            DetectError::Cluster(e) => write!(f, "{e}"),
            DetectError::Analysis(msg) => write!(f, "static analysis: {msg}"),
            DetectError::Internal(msg) => write!(f, "internal inconsistency: {msg}"),
        }
    }
}

impl std::error::Error for DetectError {}

impl From<RelError> for DetectError {
    fn from(e: RelError) -> Self {
        DetectError::Rel(e)
    }
}

impl From<ClusterError> for DetectError {
    fn from(e: ClusterError) -> Self {
        DetectError::Cluster(e)
    }
}

/// Tuples per window of the streamed `D₀` build ([`ingest`]). A build
/// holds one window of materialised tuples, its normalised copy and its
/// `ΔV` at a time, so the transient is `O(window · (arity + |Σ|))` instead
/// of `O(|D₀| · |Σ|)` — at 1 024 rules and 40 000 rows the one-batch build
/// peaked ≈ 120 MiB above the state it left behind. The threaded runtime
/// pays a wave schedule, an `Ops` frame per site and a collection round
/// per window: at 2 048 its `setup_s` on `detbench`'s `thr_tcp_batch` read
/// 3.5 % over the one-batch build (slower in 8 of 10 pairs), at 4 096 it
/// is back inside that build's own spread, for 3 MiB more peak on
/// `hor_wide_sigma` (52.8 vs 49.6 MiB, down from 234).
const BUILD_WINDOW: usize = 4096;

/// Load `d` into an empty detector by replaying it, in tid order, through
/// the detector's own incremental `apply` — the one build path of every
/// constructor. The replay is windowed and each window's `ΔV` dropped:
/// the ops and their order are those of a single `apply(D₀)`, so `V`,
/// index/group state and per-link codec residency come out the same.
pub(crate) fn ingest(
    d: &Relation,
    mut apply: impl FnMut(&UpdateBatch) -> Result<DeltaV, DetectError>,
) -> Result<(), DetectError> {
    let mut rows = d.iter().peekable();
    while rows.peek().is_some() {
        let window = UpdateBatch::from_ops(
            rows.by_ref()
                .take(BUILD_WINDOW)
                .map(Update::Insert)
                .collect(),
        );
        apply(&window)?;
    }
    Ok(())
}

/// Admit a caller's batch — the first thing every `apply` does, before
/// anything is mutated. The batch is normalised against `current` (`incVer`
/// line 1), which leaves deletes of live tids and inserts of free ones
/// only, and an insert whose arity is not the schema's is refused: past
/// this point a tuple can be indexed by any attribute of the schema, and
/// the one error a caller can still cause is an unroutable tuple, which
/// the horizontal strategies settle next, for the whole batch.
pub(crate) fn admit(current: &Relation, delta: &UpdateBatch) -> Result<UpdateBatch, DetectError> {
    let delta = delta.normalize(current);
    let expected = current.schema().arity();
    let misfit = delta
        .insertions()
        .map(Tuple::arity)
        .find(|&n| n != expected);
    match misfit {
        Some(got) => Err(RelError::ArityMismatch { expected, got }.into()),
        None => Ok(delta),
    }
}

/// A maintained violation detector: owns `V(Σ, D)` for some partition
/// strategy and folds update batches into it.
///
/// All implementations keep a mirror of the logical relation (`current`),
/// meter every cross-site payload, and guarantee that after `apply`
/// returns, `violations()` equals the centralized ground truth over
/// `current()` — the incremental ones in `O(|ΔD| + |ΔV|)`, the batch
/// baselines by recomputation.
pub trait Detector {
    /// Partition-strategy name, e.g. `"incVer"` or `"batHor"` (the paper's
    /// algorithm names; used by harness output).
    fn strategy(&self) -> &'static str;

    /// The global schema.
    fn schema(&self) -> &Arc<Schema>;

    /// The rule set `Σ`.
    fn cfds(&self) -> &[Cfd];

    /// Mirror of the logical relation `D` (the join/union of fragments).
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

    /// The violation set lifted into the unified validation-suite
    /// surface: one [`FindingSet`] whose rules are the CFD ids, all of
    /// kind [`Cfd`](cfd::constraint::ConstraintKind::Cfd). Pure-CFD
    /// detectors and mixed-kind [`Suite`](crate::suite::Suite) sessions
    /// thereby report findings through the same type.
    fn finding_set(&self) -> FindingSet {
        FindingSet::from(self.violations())
    }

    /// Cumulative network traffic since construction or the last
    /// [`reset_stats`](Self::reset_stats), normalized over tiers.
    fn net(&self) -> NetReport;

    /// Reset the traffic meters (e.g. between experiment phases).
    fn reset_stats(&mut self);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::horizontal::StateCensus;
    use crate::{ConcurrentHorizontal, HorizontalDetector, VerticalDetector};
    use cluster::codec::CodecKind;
    use cluster::net::TransportKind;
    use cluster::partition::{HorizontalScheme, VerticalScheme};
    use relation::{Tid, Tuple, Value};

    fn emp_schema() -> Arc<Schema> {
        Schema::new("EMP", &["id", "grade", "CC", "zip", "street", "city"], "id").unwrap()
    }

    /// Groups of every shape: ~60-member classes over 5 streets per zip
    /// (hashed class maps, boxed tid sets), plus singleton zips.
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

    /// Inserts, deletes and modifications against `d0 = 1..=n`.
    fn follow_up(n: Tid) -> Vec<UpdateBatch> {
        let mut b1 = UpdateBatch::new();
        for tid in n + 1..n + 40 {
            b1.insert(emp_row(tid));
        }
        let mut b2 = UpdateBatch::new();
        for tid in (1..=n.min(60)).step_by(3) {
            b2.delete(tid);
        }
        for tid in (2..=n.min(60)).step_by(3) {
            b2.insert(Tuple::new(tid, emp_row(tid + 1).values.to_vec()));
        }
        for tid in n + 1..n + 20 {
            b2.delete(tid);
        }
        vec![b1, b2]
    }

    /// What a build leaves behind, as far as this crate can see it.
    #[derive(Debug, PartialEq)]
    struct Built {
        marks: Vec<(cfd::CfdId, Tid)>,
        census: StateCensus,
        index_sizes: (usize, usize, usize, usize),
        resident_symbols: Vec<usize>,
    }

    /// Streamed build ≡ empty detector + one `apply(D₀)`, for every
    /// constructor and every way `|D₀|` can sit against the window.
    #[test]
    fn build_is_the_replay() {
        let s = emp_schema();
        let grade = s.attr_id("grade").unwrap();
        let hor = HorizontalScheme::by_hash(s.clone(), grade, 3).unwrap();
        let ver = VerticalScheme::round_robin(s.clone(), 3).unwrap();
        let w = BUILD_WINDOW as Tid;

        // Build both ways with `mk`, compare what `observe` sees, then
        // run the follow-up stream through both and compare ΔV and `net`.
        fn check<D>(
            d0: &Relation,
            mk: impl Fn(&Relation) -> D,
            apply: impl Fn(&mut D, &UpdateBatch) -> DeltaV,
            reset: impl Fn(&mut D),
            observe: impl Fn(&D) -> Built,
            net: impl Fn(&D) -> String,
        ) {
            let n = d0.len();
            let streamed = &mut mk(d0);
            let replayed = &mut mk(&Relation::new(d0.schema().clone()));
            let mut all = UpdateBatch::new();
            d0.iter().for_each(|t| all.insert(t));
            apply(replayed, &all);
            reset(replayed);
            assert_eq!(observe(streamed), observe(replayed), "|D0| = {n}");
            for batch in follow_up(n as Tid) {
                assert_eq!(apply(streamed, &batch), apply(replayed, &batch));
            }
            assert_eq!(observe(streamed).marks, observe(replayed).marks);
            assert_eq!(net(streamed), net(replayed), "|D0| = {n}");
        }

        for n in [0, 1, w - 1, w, w + 1, 3 * w + 7] {
            let d0 = Relation::from_tuples(s.clone(), (1..=n).map(emp_row)).unwrap();
            check(
                &d0,
                |d| {
                    let (codec, transport) = (CodecKind::Dict, TransportKind::Framed);
                    HorizontalDetector::with_session(
                        s.clone(),
                        emp_cfds(&s),
                        hor.clone(),
                        d,
                        codec,
                        transport,
                    )
                    .unwrap()
                },
                |det, b| det.apply(b).unwrap(),
                HorizontalDetector::reset_stats,
                |det| Built {
                    marks: det.violations().marks_sorted(),
                    census: det.state_census(),
                    index_sizes: (0, 0, 0, 0),
                    resident_symbols: det.resident_symbols(),
                },
                |det| format!("{:?}", det.net()),
            );
            check(
                &d0,
                |d| VerticalDetector::new(s.clone(), emp_cfds(&s), ver.clone(), d).unwrap(),
                |det, b| det.apply(b).unwrap(),
                VerticalDetector::reset_stats,
                |det| Built {
                    marks: det.violations().marks_sorted(),
                    census: StateCensus::default(),
                    index_sizes: det.index_sizes(),
                    resident_symbols: Vec::new(),
                },
                |det| format!("{:?}", det.net()),
            );
            check(
                &d0,
                |d| {
                    let (codec, transport) = (CodecKind::Dict, TransportKind::Framed);
                    ConcurrentHorizontal::threaded(
                        s.clone(),
                        emp_cfds(&s),
                        hor.clone(),
                        d,
                        codec,
                        transport,
                    )
                    .unwrap()
                },
                |det, b| det.apply(b).unwrap(),
                ConcurrentHorizontal::reset_stats,
                // The coordinator's own site; the others are threads.
                |det| Built {
                    marks: det.violations().marks_sorted(),
                    census: det.coordinator_census(),
                    index_sizes: (0, 0, 0, 0),
                    resident_symbols: det.coordinator_resident_symbols(),
                },
                // Measured bytes move with ack timing; modeled |M| may not.
                |det| format!("{:?}", det.stats()),
            );
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
