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
//! [`DetectError`] is the single error type at this boundary; the
//! per-detector enums ([`VerticalError`], [`HorizontalError`]) remain as
//! internal detail and convert losslessly via `From`.

use crate::horizontal::HorizontalError;
use crate::vertical::VerticalError;
use cfd::constraint::FindingSet;
use cfd::{Cfd, DeltaV, Violations};
use cluster::{ClusterError, NetReport};
use relation::{RelError, Relation, Schema, Update, UpdateBatch};
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

impl From<VerticalError> for DetectError {
    fn from(e: VerticalError) -> Self {
        match e {
            VerticalError::Rel(r) => DetectError::Rel(r),
            VerticalError::Cluster(c) => DetectError::Cluster(c),
        }
    }
}

impl From<HorizontalError> for DetectError {
    fn from(e: HorizontalError) -> Self {
        match e {
            HorizontalError::Rel(r) => DetectError::Rel(r),
            HorizontalError::Cluster(c) => DetectError::Cluster(c),
        }
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
        let e: DetectError = VerticalError::Rel(RelError::MissingTid(1)).into();
        assert!(matches!(e, DetectError::Rel(_)));
        let e: DetectError = HorizontalError::Cluster(ClusterError::UnknownSite(0)).into();
        assert!(matches!(e, DetectError::Cluster(_)));
    }
}
