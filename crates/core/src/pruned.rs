//! Static-analysis integration: catalog preflight and the mark-preserving
//! pruned detector.
//!
//! [`Suite`](crate::Suite) runs the `cfd::analysis` procedures over Σ
//! *before* plan compilation, per [`AnalysisMode`]
//! ([`Suite::analyze`](crate::Suite::analyze)):
//!
//! * [`AnalysisMode::Off`] — no analysis (the default; bit-identical to
//!   every prior release).
//! * [`AnalysisMode::Warn`] — run the analysis and report findings
//!   (unsatisfiable catalogs, conflict pairs, duplicate rules) on stderr,
//!   then build normally over the full Σ.
//! * [`AnalysisMode::Prune`] — refuse unsatisfiable catalogs, then build
//!   the detector over only the *kept* rules of the
//!   [`PrunePlan`](cfd::analysis::PrunePlan) and reconstruct every pruned
//!   rule's violation set from its representative — the [`Pruned`]
//!   wrapper below. Violations and ΔV come out bit-identical to `Off`
//!   while the per-update detection work drops with the pruned fraction.
//!
//! # How the wrapper maintains pruned marks
//!
//! The prune relation is *mark-preserving*: on every instance,
//! `marks(φ) = { t ∈ marks(rep(φ)) : t ≍ residual(φ) }` where the
//! residual is φ's constant LHS atoms (see `cfd::analysis`). The wrapper
//! therefore translates the inner detector's settled ΔV:
//!
//! * a mark added/removed on a representative fans out to its riders,
//!   filtered by each rider's residual (adds consult the tuple, removes
//!   consult the maintained mark);
//! * tids touched by the batch get a full recheck per pruned rule —
//!   a delete + re-insert of the same tid with different values can flip
//!   a rider's residual-filtered mark while the representative's mark
//!   stands, which the translation alone would miss.
//!
//! The extra work is `O(|ΔV| · riders-per-rep + |ΔD| · pruned)`,
//! independent of `|D|`, preserving the paper's bound.

use crate::detector::{DetectError, Detector};
use cfd::analysis::{analyze, AnalysisConfig, CatalogAnalysis, Sat};
use cfd::{Cfd, CfdId, DeltaV, Domains, Violations};
use cluster::NetReport;
use relation::{AttrId, FxHashSet, Relation, Schema, Tid, Tuple, UpdateBatch, Value};
use std::sync::Arc;

/// What [`Suite`](crate::Suite) does with Σ before compiling plans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AnalysisMode {
    /// No static analysis (the default).
    #[default]
    Off,
    /// Analyze and report findings on stderr; build over the full Σ.
    Warn,
    /// Refuse unsatisfiable catalogs and detect over the kept rules only,
    /// reconstructing pruned rules' marks from their representatives (the
    /// session's detector is then a [`Pruned`] wrapper).
    Prune,
}

/// Everything a build needs to stand up a [`Pruned`] detector: the
/// remapped kept rules plus the rider/residual tables.
pub(crate) struct PrunePrep {
    /// Kept rules with fresh contiguous ids `0..k`, in kept order.
    pub kept: Vec<Cfd>,
    /// Inner id → original id.
    full_of: Vec<CfdId>,
    /// Inner id → original ids of the pruned rules riding it.
    riders: Vec<Vec<CfdId>>,
    /// `(original pruned id, inner rep id)` pairs, ascending.
    pruned: Vec<(CfdId, CfdId)>,
    /// Original id → residual constant atoms (empty for kept rules).
    residual: Vec<Vec<(AttrId, Value)>>,
    /// The full catalog, for the wrapper's `cfds()`.
    full: Vec<Cfd>,
}

/// Run the analysis for `mode` over Σ (open domains — a build has no
/// data-dependent domain knowledge). Returns `Some(prep)` when a
/// [`Pruned`] wrapper is warranted: Prune mode, satisfiable catalog, at
/// least one pruned rule. `Off` always returns `None`; so does `Prune`
/// on a catalog with nothing to prune (the build then proceeds normally
/// at zero overhead).
pub(crate) fn preflight(
    schema: &Schema,
    cfds: &[Cfd],
    mode: AnalysisMode,
) -> Result<Option<PrunePrep>, DetectError> {
    match mode {
        AnalysisMode::Off => Ok(None),
        AnalysisMode::Warn => {
            let a = run_analysis(schema, cfds);
            warn_findings(&a);
            Ok(None)
        }
        AnalysisMode::Prune => {
            let a = run_analysis(schema, cfds);
            if let Sat::Unsatisfiable { core } = &a.sat {
                return Err(DetectError::Analysis(format!(
                    "catalog is unsatisfiable (conflicting core: {core:?}); \
                     refusing to build under AnalysisMode::Prune"
                )));
            }
            if a.prune.n_pruned() == 0 {
                return Ok(None);
            }
            let plan = &a.prune;
            let kept_ids = &plan.kept;
            let mut inner_of: Vec<Option<CfdId>> = vec![None; cfds.len()];
            let mut kept = Vec::with_capacity(kept_ids.len());
            for (ic, &full_id) in kept_ids.iter().enumerate() {
                inner_of[full_id as usize] = Some(ic as CfdId);
                let mut c = cfds[full_id as usize].clone();
                c.id = ic as CfdId;
                kept.push(c);
            }
            let mut riders: Vec<Vec<CfdId>> = vec![Vec::new(); kept.len()];
            let mut pruned = Vec::new();
            for c in cfds {
                let rep = plan.rep[c.id as usize];
                if rep == c.id {
                    continue;
                }
                let kept =
                    || DetectError::Internal(format!("rule {rep} represents but is not kept"));
                let ic = inner_of[rep as usize].ok_or_else(kept)?;
                riders[ic as usize].push(c.id);
                pruned.push((c.id, ic));
            }
            Ok(Some(PrunePrep {
                kept,
                full_of: kept_ids.clone(),
                riders,
                pruned,
                residual: plan.residual.clone(),
                full: cfds.to_vec(),
            }))
        }
    }
}

fn run_analysis(schema: &Schema, cfds: &[Cfd]) -> CatalogAnalysis {
    analyze(
        schema,
        cfds,
        &Domains::open(schema),
        &AnalysisConfig::default(),
    )
}

fn warn_findings(a: &CatalogAnalysis) {
    if let Sat::Unsatisfiable { core } = &a.sat {
        eprintln!("[analysis] Σ is unsatisfiable; conflicting core: {core:?}");
    }
    for pair in &a.conflicts {
        eprintln!(
            "[analysis] rules {} and {} conflict on attribute {} (unifiable LHS, different RHS constants)",
            pair.a, pair.b, pair.attr
        );
    }
    for &(dup, first) in &a.duplicates {
        eprintln!("[analysis] rule {dup} duplicates rule {first} (modulo LHS atom order)");
    }
    for r in &a.cover.removed {
        eprintln!(
            "[analysis] rule {} is implied by {:?} ({:?})",
            r.id, r.implied_by, r.reason
        );
    }
}

/// A detector over the kept rules of a [`PrunePlan`](cfd::analysis::PrunePlan), presenting the
/// violation surface of the *full* catalog (see the module docs).
pub struct Pruned {
    inner: Box<dyn Detector>,
    full: Vec<Cfd>,
    full_of: Vec<CfdId>,
    riders: Vec<Vec<CfdId>>,
    pruned: Vec<(CfdId, CfdId)>,
    residual: Vec<Vec<(AttrId, Value)>>,
    violations: Violations,
}

impl Pruned {
    #[expect(
        clippy::expect_used,
        reason = "a marked tuple is a row of the inner detector's relation"
    )]
    pub(crate) fn new(inner: Box<dyn Detector>, prep: PrunePrep) -> Pruned {
        let mut violations = Violations::new(prep.full.len());
        for (ic, &full_id) in prep.full_of.iter().enumerate() {
            for tid in inner.violations().of_cfd(ic as CfdId).iter() {
                violations.add(full_id, tid);
            }
        }
        for &(phi, ic) in &prep.pruned {
            for tid in inner.violations().of_cfd(ic).iter() {
                let t = inner
                    .current()
                    .get(tid)
                    .expect("marked tuples exist in the mirror");
                if matches_residual(&t, &prep.residual[phi as usize]) {
                    violations.add(phi, tid);
                }
            }
        }
        Pruned {
            inner,
            full: prep.full,
            full_of: prep.full_of,
            riders: prep.riders,
            pruned: prep.pruned,
            residual: prep.residual,
            violations,
        }
    }

    fn tuple_matches_residual(&self, phi: CfdId, tid: Tid) -> bool {
        self.inner
            .current()
            .get(tid)
            .is_some_and(|t| matches_residual(&t, &self.residual[phi as usize]))
    }
}

fn matches_residual(t: &Tuple, residual: &[(AttrId, Value)]) -> bool {
    residual.iter().all(|(a, v)| t.get(*a) == v)
}

impl Detector for Pruned {
    fn strategy(&self) -> &'static str {
        self.inner.strategy()
    }

    fn schema(&self) -> &Arc<Schema> {
        self.inner.schema()
    }

    fn cfds(&self) -> &[Cfd] {
        &self.full
    }

    fn current(&self) -> &Relation {
        self.inner.current()
    }

    fn violations(&self) -> &Violations {
        &self.violations
    }

    fn apply(&mut self, delta: &UpdateBatch) -> Result<DeltaV, DetectError> {
        let touched: FxHashSet<Tid> = delta.ops().iter().map(relation::Update::tid).collect();
        let inner_dv = self.inner.apply(delta)?;
        let mut out = DeltaV::default();
        for &(ic, tid) in &inner_dv.added {
            out.add(self.full_of[ic as usize], tid);
            if !touched.contains(&tid) {
                for &phi in &self.riders[ic as usize] {
                    if self.tuple_matches_residual(phi, tid) {
                        out.add(phi, tid);
                    }
                }
            }
        }
        for &(ic, tid) in &inner_dv.removed {
            out.remove(self.full_of[ic as usize], tid);
            if !touched.contains(&tid) {
                for &phi in &self.riders[ic as usize] {
                    // The tuple didn't change, so the old mark tells us
                    // whether the residual matched.
                    if self.violations.contains(phi, tid) {
                        out.remove(phi, tid);
                    }
                }
            }
        }
        // Touched tids: a delete + re-insert can flip a rider's residual
        // match while the representative's mark is unchanged — recompute
        // the should-be mark from scratch.
        for &tid in &touched {
            for &(phi, ic) in &self.pruned {
                let should = self.inner.violations().contains(ic, tid)
                    && self.tuple_matches_residual(phi, tid);
                let has = self.violations.contains(phi, tid);
                if should && !has {
                    out.add(phi, tid);
                } else if !should && has {
                    out.remove(phi, tid);
                }
            }
        }
        out.settle();
        crate::detector::commit(&mut self.violations, &out)?;
        Ok(out)
    }

    fn net(&self) -> NetReport {
        self.inner.net()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }
}
