//! Static analysis of a catalog Σ: satisfiability, implication, minimal
//! cover, and the mark-preserving prune plan (classical CFD reasoning,
//! Fan et al., applied ahead of plan compilation).
//!
//! # Decision procedures
//!
//! CFD satisfaction is preserved under sub-instances, so the classical
//! small-model results hold and bound every question here by a one- or
//! two-tuple search:
//!
//! * **Satisfiability.** Σ is satisfiable (some *nonempty* instance
//!   satisfies every rule) iff a *single* tuple satisfies every constant
//!   rule — variable rules are vacuous on singletons, and any tuple of a
//!   satisfying instance is itself a witness.
//! * **Implication.** A counterexample to `Σ′ ⊨ φ` needs one tuple when
//!   `φ` is constant and two when `φ` is variable: the violating tuple
//!   (pair) of any countermodel, taken alone, still satisfies Σ′.
//!
//! The search space is finite: per attribute it suffices to consider the
//! constants mentioned in the rules (intersected with the attribute's
//! domain) plus at most **two fresh values**. Any countermodel can be
//! collapsed onto that alphabet — patterns only test equality against
//! mentioned constants, and the two tuples of a counterexample only test
//! equality against each other — and when a finite domain leaves fewer
//! than two unmentioned values, no model has more either. Finite domains
//! are where CFD interaction bites: `(X=a → B=b1)` and `(X=a → B=b2)` are
//! jointly satisfiable over open domains (pick `X ≠ a`) but unsatisfiable
//! when `dom(X) = {a}`.
//!
//! The DFS carries a node budget; exhausting it yields
//! [`Sat::Unknown`] / [`Implication::Unknown`], never a wrong verdict —
//! `Implied` and `Unsatisfiable` are only reported on exhaustive search.
//!
//! # Minimal cover
//!
//! [`minimal_cover`] greedily removes rules implied by the rest —
//! vacuous rules, exact duplicates (modulo LHS atom order, via
//! their normal form), pattern-tableau subsumption (`ψ ⊨ φ` read off the
//! atom maps), and, for small catalogs, the full model-based implication
//! test. The result carries a machine-checkable
//! [`CoverCertificate`]: each removed rule names the rules that imply it,
//! references are well-founded (each `implied_by` set only mentions kept
//! rules and rules removed *later*), so `Σ_min ≡ Σ` follows by induction
//! and [`CoverCertificate::verify`] re-derives every step.
//!
//! # Prune plan
//!
//! [`PrunePlan`] computes a *stricter*, syntactic relation than
//! implication: `ψ` **prunes** `φ` when the marks of `φ` are exactly the
//! marks of `ψ` filtered by `φ`'s constant LHS atoms (the *residual*),
//! on every instance:
//!
//! * both **variable**, same RHS, same LHS attribute *set*, `ψ`'s
//!   patterns pointwise generalize `φ`'s. Any `φ`-violating pair violates
//!   `ψ`; conversely a `ψ`-violating pair whose tuples match `φ`'s
//!   constants violates `φ` — the partners agree on all LHS attributes,
//!   so the residual filter carries from one tuple to the other. (A LHS
//!   *subset* would lose that carry-over, hence the same-set requirement.)
//! * both **constant**, same RHS attribute and constant, `ψ`'s constant
//!   atoms a subset of `φ`'s. Single-tuple semantics ignore wildcard
//!   atoms, so `marks(φ) = σ_{φ-atoms}(marks(ψ))` directly.
//!
//! A detector can then evaluate only the kept rules and reconstruct every
//! pruned rule's violation set by filtering its representative's marks —
//! see `core`'s `AnalysisMode::Prune`.

use crate::cfd::{Cfd, CfdId, NormalForm};
use crate::pattern::PatternValue;
use relation::{AttrId, Relation, Schema, Tuple, Value};
use std::collections::{BTreeMap, BTreeSet};

/// The value domain of one attribute, as far as the analysis is told.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Domain {
    /// Unbounded: fresh values outside the mentioned constants always
    /// exist.
    Open,
    /// Exactly these values exist.
    Finite(BTreeSet<Value>),
}

/// Per-attribute domains for the finite-domain-aware procedures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Domains {
    doms: Vec<Domain>,
}

impl Domains {
    /// Every attribute unbounded — the classical open-world setting.
    pub fn open(schema: &Schema) -> Domains {
        Domains {
            doms: vec![Domain::Open; schema.arity()],
        }
    }

    /// Finite domains read off a relation: each attribute's domain is the
    /// set of values it takes in `rel` (the *active* domain). An empty
    /// relation yields all-empty domains, under which no tuple exists at
    /// all.
    pub fn observed(rel: &Relation) -> Domains {
        let arity = rel.schema().arity();
        let mut sets: Vec<BTreeSet<Value>> = vec![BTreeSet::new(); arity];
        for t in rel.iter() {
            for (a, set) in sets.iter_mut().enumerate() {
                set.insert(t.get(a as AttrId).clone());
            }
        }
        Domains {
            doms: sets.into_iter().map(Domain::Finite).collect(),
        }
    }

    /// Override one attribute's domain with an explicit finite value set.
    pub fn set(&mut self, a: AttrId, values: impl IntoIterator<Item = Value>) {
        self.doms[a as usize] = Domain::Finite(values.into_iter().collect());
    }

    /// The domain of attribute `a`.
    pub fn get(&self, a: AttrId) -> &Domain {
        &self.doms[a as usize]
    }

    /// Some attribute whose domain is empty (then no tuple exists).
    fn empty_attr(&self) -> Option<AttrId> {
        self.doms
            .iter()
            .position(|d| match d {
                Domain::Open => false,
                Domain::Finite(s) => s.is_empty(),
            })
            .map(|i| i as AttrId)
    }
}

/// Knobs for the decision procedures.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// DFS node budget per decision-procedure call; exhaustion yields
    /// `Unknown`, never a wrong verdict.
    pub node_budget: u64,
    /// Run the full model-based implication test in [`minimal_cover`]
    /// when the catalog has at most this many rules (`0` = subsumption
    /// only). The test is quadratic in |Σ| with a search per rule, so it
    /// is gated to small catalogs.
    pub max_implication_rules: usize,
    /// Shrink unsatisfiable cores to a minimal conflicting subset.
    pub minimize_core: bool,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            node_budget: 1 << 20,
            max_implication_rules: 32,
            minimize_core: true,
        }
    }
}

/// Verdict of the satisfiability check for Σ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Sat {
    /// A single-tuple instance satisfying every rule.
    Satisfiable {
        /// The witness tuple (tid 0; attributes not mentioned by Σ carry
        /// an arbitrary domain value).
        witness: Tuple,
    },
    /// No nonempty instance satisfies Σ.
    Unsatisfiable {
        /// A conflicting set of rule ids, minimal when the budget
        /// sufficed to shrink it. Empty iff some attribute's domain is
        /// empty, so no tuple exists at all.
        core: Vec<CfdId>,
    },
    /// Node budget exhausted before a decision.
    Unknown,
}

/// Verdict of an implication check `Σ′ ⊨ φ`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Implication {
    /// Every instance satisfying Σ′ satisfies φ.
    Implied,
    /// A counterexample: these tuples satisfy Σ′ and violate φ (one
    /// tuple for constant φ, two for variable φ).
    Independent {
        /// The countermodel.
        witness: Vec<Tuple>,
    },
    /// Node budget exhausted before a decision.
    Unknown,
}

/// Closed-form per-rule status, decided without search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleStatus {
    /// Nothing wrong with the rule in isolation.
    Ok,
    /// Untriggerable: no tuple over the domains matches the LHS (an LHS
    /// constant outside its domain, two conflicting constants on one
    /// attribute, or an empty attribute domain).
    Vacuous,
    /// Triggerable, but every tuple matching the LHS violates it: the
    /// RHS constant is outside the RHS attribute's domain.
    UnsatRhs,
}

/// Two constant rules with unifiable LHS patterns and different RHS
/// constants on the same attribute: any tuple matching both LHSs
/// violates one of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictPair {
    /// The lower rule id.
    pub a: CfdId,
    /// The higher rule id.
    pub b: CfdId,
    /// The contested RHS attribute.
    pub attr: AttrId,
}

/// Why [`minimal_cover`] dropped a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemovalReason {
    /// Untriggerable over the domains (implied by the empty set).
    Vacuous,
    /// Equal to an earlier rule up to LHS atom order and repeats.
    Duplicate,
    /// Pattern-tableau subsumption by a single rule.
    Subsumed,
    /// Full model-based implication by the remaining rules.
    Implied,
}

/// One rule removed by the cover, with the rules that imply it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemovedRule {
    /// The removed rule's id.
    pub id: CfdId,
    /// Rule ids whose conjunction implies it (empty for vacuous rules).
    pub implied_by: Vec<CfdId>,
    /// Which test removed it.
    pub reason: RemovalReason,
}

/// The machine-checkable equivalence certificate `Σ_min ≡ Σ` produced by
/// [`minimal_cover`]: references are well-founded (each `implied_by`
/// mentions only kept rules and rules removed later in [`Self::removed`]
/// order), so keeping [`Self::kept`] preserves every removed rule by
/// induction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverCertificate {
    /// Ids of the rules forming Σ_min, ascending.
    pub kept: Vec<CfdId>,
    /// The removed rules, in removal order.
    pub removed: Vec<RemovedRule>,
}

impl CoverCertificate {
    /// Re-derive every step of the certificate: the kept/removed ids
    /// partition Σ, references are well-founded, and each removed rule is
    /// implied by its `implied_by` set (re-checked with the appropriate
    /// procedure). `Unknown` verdicts fail verification.
    pub fn verify(
        &self,
        schema: &Schema,
        cfds: &[Cfd],
        domains: &Domains,
        cfg: &AnalysisConfig,
    ) -> Result<(), String> {
        let mut seen: BTreeSet<CfdId> = self.kept.iter().copied().collect();
        for r in &self.removed {
            if !seen.insert(r.id) {
                return Err(format!("rule {} listed twice in the certificate", r.id));
            }
        }
        if seen.len() != cfds.len() || seen.iter().any(|&id| (id as usize) >= cfds.len()) {
            return Err("kept ∪ removed is not a partition of Σ".into());
        }
        let by_id = |id: CfdId| &cfds[id as usize];
        // Well-foundedness: implied_by ⊆ kept ∪ later-removed.
        let kept: BTreeSet<CfdId> = self.kept.iter().copied().collect();
        for (k, r) in self.removed.iter().enumerate() {
            for &d in &r.implied_by {
                let later = self.removed[k + 1..].iter().any(|s| s.id == d);
                if !kept.contains(&d) && !later {
                    return Err(format!(
                        "rule {}'s implied_by references {}, which is neither kept nor removed later",
                        r.id, d
                    ));
                }
            }
        }
        for r in &self.removed {
            let phi = by_id(r.id);
            match r.reason {
                RemovalReason::Vacuous => {
                    if rule_status(phi, domains) != RuleStatus::Vacuous {
                        return Err(format!("rule {} is not vacuous", r.id));
                    }
                }
                RemovalReason::Duplicate => {
                    let ok = r.implied_by.len() == 1
                        && by_id(r.implied_by[0]).normal_form() == phi.normal_form();
                    if !ok {
                        return Err(format!("rule {} is not a duplicate of its witness", r.id));
                    }
                }
                RemovalReason::Subsumed => {
                    let ok = r.implied_by.len() == 1 && subsumes(by_id(r.implied_by[0]), phi);
                    if !ok {
                        return Err(format!("rule {} is not subsumed by its witness", r.id));
                    }
                }
                RemovalReason::Implied => {
                    let sigma: Vec<Cfd> = r.implied_by.iter().map(|&d| by_id(d).clone()).collect();
                    match implies(schema, &sigma, phi, domains, cfg) {
                        Implication::Implied => {}
                        Implication::Independent { .. } => {
                            return Err(format!("rule {} is not implied by its witness set", r.id))
                        }
                        Implication::Unknown => {
                            return Err(format!(
                                "implication check for rule {} exhausted its budget",
                                r.id
                            ))
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// The mark-preserving prune plan: which rules a detector may skip, and
/// how to reconstruct their violation sets from a kept representative.
///
/// For every pruned rule `φ` (with `rep[φ] ≠ φ`):
/// `marks(φ) = { t ∈ marks(rep[φ]) : t matches residual[φ] }` on every
/// instance — see the module docs for the two cases and their proofs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrunePlan {
    /// Ids of the kept rules (the maximal elements of the strict
    /// generality order), ascending.
    pub kept: Vec<CfdId>,
    /// Per rule: the kept representative (kept rules are their own).
    pub rep: Vec<CfdId>,
    /// Per rule: the residual filter — its constant LHS atoms. Empty for
    /// kept rules.
    pub residual: Vec<Vec<(AttrId, Value)>>,
}

impl PrunePlan {
    /// Compute the plan for a catalog. Purely syntactic — no domains, no
    /// search; `O(n²)` atom-map comparisons.
    pub fn compute(cfds: &[Cfd]) -> PrunePlan {
        let n = cfds.len();
        debug_assert!(
            cfds.iter().enumerate().all(|(i, c)| c.id as usize == i),
            "PrunePlan indexes by position: rule ids must be contiguous"
        );
        let folded: Vec<Option<BTreeMap<AttrId, PatternValue>>> =
            cfds.iter().map(fold_lhs).collect();
        let prunes = |i: usize, j: usize| -> bool {
            let (psi, phi) = (&cfds[i], &cfds[j]);
            if psi.rhs != phi.rhs || psi.rhs_pattern != phi.rhs_pattern {
                return false;
            }
            let (Some(pm), Some(fm)) = (&folded[i], &folded[j]) else {
                return false;
            };
            if psi.is_variable() {
                // Same LHS attribute set, pointwise generalization.
                pm.len() == fm.len()
                    && pm
                        .iter()
                        .all(|(a, p)| fm.get(a).is_some_and(|q| p.generalizes(q)))
            } else {
                // Constant atoms a subset of φ's (wildcards are vacuous
                // under single-tuple semantics).
                pm.iter()
                    .all(|(a, p)| p.is_wildcard() || fm.get(a) == Some(p))
            }
        };
        // φ is pruned iff some ψ is strictly above it: ψ prunes φ and
        // either φ does not prune ψ back (strictly more general) or the
        // two are equivalent and ψ has the smaller id.
        let mut kept = Vec::new();
        let mut pruned = vec![false; n];
        for j in 0..n {
            let dominated = (0..n)
                .any(|i| i != j && prunes(i, j) && (!prunes(j, i) || cfds[i].id < cfds[j].id));
            if dominated {
                pruned[j] = true;
            } else {
                kept.push(cfds[j].id);
            }
        }
        let mut rep: Vec<CfdId> = cfds.iter().map(|c| c.id).collect();
        let mut residual: Vec<Vec<(AttrId, Value)>> = vec![Vec::new(); n];
        for j in 0..n {
            if !pruned[j] {
                continue;
            }
            // Min-id kept generalizer; one exists by transitivity of the
            // prune relation along the finite strict order.
            let r = (0..n)
                .filter(|&i| !pruned[i] && prunes(i, j))
                .min_by_key(|&i| cfds[i].id)
                .expect("a pruned rule always has a kept generalizer");
            rep[j] = cfds[r].id;
            residual[j] = cfds[j].constant_atoms();
        }
        PrunePlan {
            kept,
            rep,
            residual,
        }
    }

    /// Number of pruned rules.
    pub fn n_pruned(&self) -> usize {
        self.rep.len() - self.kept.len()
    }

    /// Fraction of Σ pruned (`0.0` for an empty catalog).
    pub fn pruned_fraction(&self) -> f64 {
        if self.rep.is_empty() {
            0.0
        } else {
            self.n_pruned() as f64 / self.rep.len() as f64
        }
    }
}

/// Everything [`analyze`] learned about a catalog.
#[derive(Debug, Clone)]
pub struct CatalogAnalysis {
    /// Closed-form status per rule, indexed by rule id.
    pub per_rule: Vec<RuleStatus>,
    /// `(duplicate, first)` pairs of rules equal modulo LHS atom order.
    pub duplicates: Vec<(CfdId, CfdId)>,
    /// Constant-rule pairs forcing a violation on their joint scope.
    pub conflicts: Vec<ConflictPair>,
    /// Satisfiability of the conjunction of Σ over the domains.
    pub sat: Sat,
    /// The minimal cover with its equivalence certificate.
    pub cover: CoverCertificate,
    /// The mark-preserving prune plan.
    pub prune: PrunePlan,
}

/// Run the full static analysis of a catalog.
pub fn analyze(
    schema: &Schema,
    cfds: &[Cfd],
    domains: &Domains,
    cfg: &AnalysisConfig,
) -> CatalogAnalysis {
    let per_rule = cfds.iter().map(|c| rule_status(c, domains)).collect();
    let mut duplicates = Vec::new();
    let mut first: BTreeMap<NormalForm, CfdId> = BTreeMap::new();
    for c in cfds {
        match first.get(&c.normal_form()) {
            Some(&f) => duplicates.push((c.id, f)),
            None => {
                first.insert(c.normal_form(), c.id);
            }
        }
    }
    CatalogAnalysis {
        per_rule,
        duplicates,
        conflicts: conflict_pairs(cfds, domains),
        sat: satisfiable(schema, cfds, domains, cfg),
        cover: minimal_cover(schema, cfds, domains, cfg),
        prune: PrunePlan::compute(cfds),
    }
}

/// Closed-form status of one rule over the domains (no search).
pub(crate) fn rule_status(cfd: &Cfd, domains: &Domains) -> RuleStatus {
    let Some(folded) = fold_lhs(cfd) else {
        return RuleStatus::Vacuous; // conflicting constants on one attr
    };
    for (&a, p) in &folded {
        match (domains.get(a), p) {
            (Domain::Finite(s), _) if s.is_empty() => return RuleStatus::Vacuous,
            (Domain::Finite(s), PatternValue::Const(c)) if !s.contains(c) => {
                return RuleStatus::Vacuous
            }
            _ => {}
        }
    }
    if let Domain::Finite(s) = domains.get(cfd.rhs) {
        if s.is_empty() {
            return RuleStatus::Vacuous;
        }
        if let Some(c) = cfd.rhs_pattern.as_const() {
            if !s.contains(c) {
                return RuleStatus::UnsatRhs;
            }
        }
    }
    RuleStatus::Ok
}

/// A constant rule folded for the conflict scan: RHS attribute, RHS
/// constant, and its folded LHS pattern.
type FoldedConst<'a> = (AttrId, &'a Value, BTreeMap<AttrId, PatternValue>);

/// Constant-rule pairs with unifiable LHS patterns and different RHS
/// constants on the same attribute.
pub fn conflict_pairs(cfds: &[Cfd], domains: &Domains) -> Vec<ConflictPair> {
    let consts: Vec<Option<FoldedConst<'_>>> = cfds
        .iter()
        .map(|c| {
            if rule_status(c, domains) == RuleStatus::Vacuous {
                return None;
            }
            let folded = fold_lhs(c)?;
            c.rhs_pattern.as_const().map(|v| (c.rhs, v, folded))
        })
        .collect();
    let mut out = Vec::new();
    for i in 0..cfds.len() {
        let Some((bi, vi, mi)) = &consts[i] else {
            continue;
        };
        for j in i + 1..cfds.len() {
            let Some((bj, vj, mj)) = &consts[j] else {
                continue;
            };
            if bi != bj || vi == vj {
                continue;
            }
            // Unifiable: no attribute constrained to different constants.
            let unifiable = mi.iter().all(|(a, p)| match (p, mj.get(a)) {
                (PatternValue::Const(x), Some(PatternValue::Const(y))) => x == y,
                _ => true,
            });
            if unifiable {
                out.push(ConflictPair {
                    a: cfds[i].id,
                    b: cfds[j].id,
                    attr: *bi,
                });
            }
        }
    }
    out
}

/// Decide satisfiability of Σ over the domains.
pub fn satisfiable(schema: &Schema, cfds: &[Cfd], domains: &Domains, cfg: &AnalysisConfig) -> Sat {
    if domains.empty_attr().is_some() {
        // No tuple exists at all, so no nonempty instance does.
        return Sat::Unsatisfiable { core: Vec::new() };
    }
    let constants: Vec<&Cfd> = cfds.iter().filter(|c| c.is_constant()).collect();
    let mut engine = Engine::build(schema, domains, &constants, cfg.node_budget);
    match engine.find_one(&constants, None) {
        Outcome::Found(assign) => Sat::Satisfiable {
            witness: engine.render(0, &assign),
        },
        Outcome::Exhausted => {
            let mut core: Vec<CfdId> = constants.iter().map(|c| c.id).collect();
            if cfg.minimize_core {
                core = minimize_core(schema, cfds, domains, cfg, core);
            }
            Sat::Unsatisfiable { core }
        }
        Outcome::Budget => Sat::Unknown,
    }
}

/// Greedy deletion: drop any rule whose removal keeps the set
/// unsatisfiable. Minimal when every sub-search stays in budget.
fn minimize_core(
    schema: &Schema,
    cfds: &[Cfd],
    domains: &Domains,
    cfg: &AnalysisConfig,
    mut core: Vec<CfdId>,
) -> Vec<CfdId> {
    let mut i = 0;
    while i < core.len() {
        let trial: Vec<&Cfd> = core
            .iter()
            .filter(|&&id| id != core[i])
            .map(|&id| &cfds[id as usize])
            .collect();
        let mut engine = Engine::build(schema, domains, &trial, cfg.node_budget);
        match engine.find_one(&trial, None) {
            Outcome::Exhausted => {
                core.remove(i); // still unsat without it
            }
            Outcome::Found(_) => i += 1, // needed
            Outcome::Budget => break,    // keep the rest conservatively
        }
    }
    core
}

/// Decide `sigma ⊨ phi` over the domains (`phi` need not be in `sigma`;
/// if it is, callers should pass `Σ \ {φ}`).
pub fn implies(
    schema: &Schema,
    sigma: &[Cfd],
    phi: &Cfd,
    domains: &Domains,
    cfg: &AnalysisConfig,
) -> Implication {
    if subsumes_any(sigma, phi) {
        return Implication::Implied;
    }
    if rule_status(phi, domains) == RuleStatus::Vacuous || domains.empty_attr().is_some() {
        // φ cannot be violated (or no tuple exists): vacuously implied.
        return Implication::Implied;
    }
    let mut all: Vec<&Cfd> = sigma.iter().collect();
    all.push(phi);
    let mut engine = Engine::build(schema, domains, &all, cfg.node_budget);
    if phi.is_constant() {
        let constants: Vec<&Cfd> = sigma.iter().filter(|c| c.is_constant()).collect();
        let goal = engine.goal_violate_constant(phi);
        match engine.find_one(&constants, Some(&goal)) {
            Outcome::Found(assign) => Implication::Independent {
                witness: vec![engine.render(0, &assign)],
            },
            Outcome::Exhausted => Implication::Implied,
            Outcome::Budget => Implication::Unknown,
        }
    } else {
        let rules: Vec<&Cfd> = sigma.iter().collect();
        let goal = engine.goal_violate_variable(phi);
        match engine.find_pair(&rules, &goal) {
            Outcome::Found((at, au)) => Implication::Independent {
                witness: vec![engine.render(0, &at), engine.render(1, &au)],
            },
            Outcome::Exhausted => Implication::Implied,
            Outcome::Budget => Implication::Unknown,
        }
    }
}

/// Compute the minimal cover of Σ with its equivalence certificate.
pub fn minimal_cover(
    schema: &Schema,
    cfds: &[Cfd],
    domains: &Domains,
    cfg: &AnalysisConfig,
) -> CoverCertificate {
    let mut alive: Vec<bool> = vec![true; cfds.len()];
    let mut removed = Vec::new();
    // Pass 1: vacuous rules are implied by the empty set.
    for (i, c) in cfds.iter().enumerate() {
        if rule_status(c, domains) == RuleStatus::Vacuous {
            alive[i] = false;
            removed.push(RemovedRule {
                id: c.id,
                implied_by: Vec::new(),
                reason: RemovalReason::Vacuous,
            });
        }
    }
    // Pass 2: exact duplicates modulo LHS atom order, keeping the first.
    let mut first: BTreeMap<NormalForm, CfdId> = BTreeMap::new();
    for (i, c) in cfds.iter().enumerate() {
        if !alive[i] {
            continue;
        }
        match first.get(&c.normal_form()) {
            Some(&f) => {
                alive[i] = false;
                removed.push(RemovedRule {
                    id: c.id,
                    implied_by: vec![f],
                    reason: RemovalReason::Duplicate,
                });
            }
            None => {
                first.insert(c.normal_form(), c.id);
            }
        }
    }
    // Pass 3: subsumption by a single live rule; then (gated) the full
    // model-based test against all other live rules.
    let full = cfds.len() <= cfg.max_implication_rules;
    for i in 0..cfds.len() {
        if !alive[i] {
            continue;
        }
        let phi = &cfds[i];
        let by_single = (0..cfds.len()).find(|&j| {
            j != i
                && alive[j]
                && subsumes(&cfds[j], phi)
                && (!subsumes(phi, &cfds[j]) || cfds[j].id < phi.id)
        });
        if let Some(j) = by_single {
            alive[i] = false;
            removed.push(RemovedRule {
                id: phi.id,
                implied_by: vec![cfds[j].id],
                reason: RemovalReason::Subsumed,
            });
            continue;
        }
        if full {
            let rest: Vec<Cfd> = (0..cfds.len())
                .filter(|&j| j != i && alive[j])
                .map(|j| cfds[j].clone())
                .collect();
            if implies(schema, &rest, phi, domains, cfg) == Implication::Implied {
                alive[i] = false;
                removed.push(RemovedRule {
                    id: phi.id,
                    implied_by: rest.iter().map(|c| c.id).collect(),
                    reason: RemovalReason::Implied,
                });
            }
        }
    }
    let kept = cfds
        .iter()
        .enumerate()
        .filter(|&(i, _)| alive[i])
        .map(|(_, c)| c.id)
        .collect();
    CoverCertificate { kept, removed }
}

/// Syntactic single-rule implication `ψ ⊨ φ`, read off the atom maps.
/// Sound over any domains (the argument never consults them); complete
/// only relative to single-rule, open-domain reasoning.
pub(crate) fn subsumes(psi: &Cfd, phi: &Cfd) -> bool {
    let Some(fm) = fold_lhs(phi) else {
        return true; // φ untriggerable: implied by anything
    };
    let Some(pm) = fold_lhs(psi) else {
        return false; // ψ untriggerable: satisfied everywhere, implies nothing more
    };
    if psi.rhs != phi.rhs {
        return false;
    }
    if psi.is_variable() {
        // A singleton violates constant φ but never variable ψ.
        phi.is_variable()
            && pm
                .iter()
                .all(|(a, p)| fm.get(a).is_some_and(|q| p.generalizes(q)))
    } else {
        // ψ constrains single tuples through its constant atoms only.
        let atoms_ok = pm
            .iter()
            .all(|(a, p)| p.is_wildcard() || fm.get(a) == Some(p));
        let rhs_ok = phi.is_variable() || phi.rhs_pattern == psi.rhs_pattern;
        atoms_ok && rhs_ok
    }
}

fn subsumes_any(sigma: &[Cfd], phi: &Cfd) -> bool {
    sigma.iter().any(|psi| subsumes(psi, phi))
}

/// Fold a rule's LHS atoms into one pattern per attribute
/// (`_ ∧ c = c`); `None` when two different constants meet on one
/// attribute (the LHS is then unsatisfiable).
fn fold_lhs(cfd: &Cfd) -> Option<BTreeMap<AttrId, PatternValue>> {
    let mut map: BTreeMap<AttrId, PatternValue> = BTreeMap::new();
    for (&a, p) in cfd.lhs.iter().zip(&cfd.lhs_pattern) {
        match (map.get(&a), p) {
            (None, _) => {
                map.insert(a, p.clone());
            }
            (Some(PatternValue::Wildcard), _) => {
                map.insert(a, p.clone());
            }
            (Some(PatternValue::Const(_)), PatternValue::Wildcard) => {}
            (Some(PatternValue::Const(x)), PatternValue::Const(y)) => {
                if x != y {
                    return None;
                }
            }
        }
    }
    Some(map)
}

// ---------------------------------------------------------------------
// The bounded-model engine.
// ---------------------------------------------------------------------

/// A compiled LHS/RHS atom against one slot's candidate list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AtomPat {
    /// Wildcard: matches every candidate.
    Any,
    /// This candidate index exactly.
    Eq(usize),
    /// A constant outside the attribute's domain: matches nothing.
    Never,
}

impl AtomPat {
    fn matches(self, cand: usize) -> bool {
        match self {
            AtomPat::Any => true,
            AtomPat::Eq(i) => cand == i,
            AtomPat::Never => false,
        }
    }
}

/// A rule compiled onto the engine's slots.
#[derive(Debug, Clone)]
struct CRule {
    /// `(slot, pat)` per folded LHS atom (wildcards included — variable
    /// semantics need the full attribute set), ascending by slot.
    lhs: Vec<(usize, AtomPat)>,
    rhs_slot: usize,
    /// `Eq`/`Never` for constant rules, `Any` for variable rules.
    rhs: AtomPat,
    /// Highest slot this rule reads: checkable once slots `0..=due` are
    /// assigned.
    due: usize,
    /// `None` for a rule with a conflicting LHS fold (never triggers).
    live: bool,
}

/// Per-slot branching constraint derived from the implication goal.
#[derive(Debug, Clone, Copy)]
enum Goal1 {
    Free,
    Only(usize),
    Not(usize),
}

/// Per-slot pair constraint for the variable-φ goal.
#[derive(Debug, Clone, Copy)]
enum Goal2 {
    Free,
    /// Both tuples take the same candidate, matching this atom
    /// (φ's LHS slots).
    AgreeMatching(AtomPat),
    /// The two tuples differ (φ's RHS slot).
    Differ,
}

enum Outcome<T> {
    Found(T),
    Exhausted,
    Budget,
}

struct Engine<'a> {
    schema: &'a Schema,
    domains: &'a Domains,
    /// Mentioned attributes, ascending.
    slots: Vec<AttrId>,
    /// Candidate values per slot: `consts` then `fresh` synthesized ones.
    consts: Vec<Vec<Value>>,
    fresh: Vec<Vec<Value>>,
    budget: u64,
}

impl<'a> Engine<'a> {
    fn build(schema: &'a Schema, domains: &'a Domains, rules: &[&Cfd], budget: u64) -> Self {
        let mut mentioned: BTreeMap<AttrId, BTreeSet<Value>> = BTreeMap::new();
        for c in rules {
            for (&a, p) in c.lhs.iter().zip(&c.lhs_pattern) {
                let e = mentioned.entry(a).or_default();
                if let Some(v) = p.as_const() {
                    e.insert(v.clone());
                }
            }
            let e = mentioned.entry(c.rhs).or_default();
            if let Some(v) = c.rhs_pattern.as_const() {
                e.insert(v.clone());
            }
        }
        let slots: Vec<AttrId> = mentioned.keys().copied().collect();
        let mut consts = Vec::with_capacity(slots.len());
        let mut fresh = Vec::with_capacity(slots.len());
        for (&a, vals) in &mentioned {
            match domains.get(a) {
                Domain::Open => {
                    let cs: Vec<Value> = vals.iter().cloned().collect();
                    fresh.push(synthesize_fresh(&cs, 2));
                    consts.push(cs);
                }
                Domain::Finite(dom) => {
                    let cs: Vec<Value> = vals.intersection(dom).cloned().collect();
                    let fs: Vec<Value> = dom.difference(vals).take(2).cloned().collect();
                    consts.push(cs);
                    fresh.push(fs);
                }
            }
        }
        Engine {
            schema,
            domains,
            slots,
            consts,
            fresh,
            budget,
        }
    }

    fn n_cands(&self, slot: usize) -> usize {
        self.consts[slot].len() + self.fresh[slot].len()
    }

    fn slot_of(&self, a: AttrId) -> usize {
        self.slots.binary_search(&a).expect("mentioned attribute")
    }

    fn atom_pat(&self, a: AttrId, p: &PatternValue) -> AtomPat {
        match p {
            PatternValue::Wildcard => AtomPat::Any,
            PatternValue::Const(v) => {
                let slot = self.slot_of(a);
                match self.consts[slot].iter().position(|c| c == v) {
                    Some(i) => AtomPat::Eq(i),
                    None => AtomPat::Never, // outside a finite domain
                }
            }
        }
    }

    fn compile(&self, c: &Cfd) -> CRule {
        let rhs_slot = self.slot_of(c.rhs);
        let (lhs, live) = match fold_lhs(c) {
            Some(folded) => {
                let lhs: Vec<(usize, AtomPat)> = folded
                    .iter()
                    .map(|(&a, p)| (self.slot_of(a), self.atom_pat(a, p)))
                    .collect();
                (lhs, true)
            }
            None => (Vec::new(), false),
        };
        let due = lhs
            .iter()
            .map(|&(s, _)| s)
            .chain(std::iter::once(rhs_slot))
            .max()
            .unwrap_or(0);
        CRule {
            lhs,
            rhs_slot,
            rhs: match &c.rhs_pattern {
                PatternValue::Wildcard => AtomPat::Any,
                p => self.atom_pat(c.rhs, p),
            },
            due,
            live,
        }
    }

    /// Group compiled rules by the slot at which they become checkable.
    fn due_lists(&self, rules: &[CRule]) -> Vec<Vec<usize>> {
        let mut due = vec![Vec::new(); self.slots.len().max(1)];
        for (i, r) in rules.iter().enumerate() {
            if r.live {
                due[r.due].push(i);
            }
        }
        due
    }

    /// One-tuple DFS: find a candidate assignment satisfying every
    /// (constant) rule in `rules`, subject to the per-slot goal.
    fn find_one(&mut self, rules: &[&Cfd], goal: Option<&[Goal1]>) -> Outcome<Vec<usize>> {
        if self.slots.is_empty() {
            return Outcome::Found(Vec::new()); // nothing constrains anything
        }
        let compiled: Vec<CRule> = rules.iter().map(|c| self.compile(c)).collect();
        let due = self.due_lists(&compiled);
        let mut assign = vec![0usize; self.slots.len()];
        self.dfs_one(0, &compiled, &due, goal, &mut assign)
    }

    fn dfs_one(
        &mut self,
        slot: usize,
        rules: &[CRule],
        due: &[Vec<usize>],
        goal: Option<&[Goal1]>,
        assign: &mut Vec<usize>,
    ) -> Outcome<Vec<usize>> {
        if slot == self.slots.len() {
            return Outcome::Found(assign.clone());
        }
        for cand in 0..self.n_cands(slot) {
            if self.budget == 0 {
                return Outcome::Budget;
            }
            self.budget -= 1;
            match goal.map(|g| g[slot]) {
                Some(Goal1::Only(i)) if cand != i => continue,
                Some(Goal1::Not(i)) if cand == i => continue,
                _ => {}
            }
            assign[slot] = cand;
            let ok = due[slot].iter().all(|&r| {
                let rule = &rules[r];
                let lhs_match = rule.lhs.iter().all(|&(s, p)| p.matches(assign[s]));
                !lhs_match || rule.rhs.matches(assign[rule.rhs_slot])
            });
            if !ok {
                continue;
            }
            match self.dfs_one(slot + 1, rules, due, goal, assign) {
                Outcome::Exhausted => {}
                done => return done,
            }
        }
        Outcome::Exhausted
    }

    /// Two-tuple DFS: find a pair satisfying every rule in `rules`
    /// (constant rules tuple-wise, variable rules pair-wise) while
    /// meeting the per-slot pair goal.
    fn find_pair(&mut self, rules: &[&Cfd], goal: &[Goal2]) -> Outcome<(Vec<usize>, Vec<usize>)> {
        if self.slots.is_empty() {
            return Outcome::Exhausted; // a variable goal needs a differing slot
        }
        let compiled: Vec<(CRule, bool)> = rules
            .iter()
            .map(|c| (self.compile(c), c.is_variable()))
            .collect();
        let plain: Vec<CRule> = compiled.iter().map(|(r, _)| r.clone()).collect();
        let due = self.due_lists(&plain);
        let mut at = vec![0usize; self.slots.len()];
        let mut au = vec![0usize; self.slots.len()];
        self.dfs_pair(0, &compiled, &due, goal, &mut at, &mut au)
    }

    fn dfs_pair(
        &mut self,
        slot: usize,
        rules: &[(CRule, bool)],
        due: &[Vec<usize>],
        goal: &[Goal2],
        at: &mut Vec<usize>,
        au: &mut Vec<usize>,
    ) -> Outcome<(Vec<usize>, Vec<usize>)> {
        if slot == self.slots.len() {
            return Outcome::Found((at.clone(), au.clone()));
        }
        let n = self.n_cands(slot);
        for ct in 0..n {
            for cu in 0..n {
                if self.budget == 0 {
                    return Outcome::Budget;
                }
                self.budget -= 1;
                match goal[slot] {
                    Goal2::AgreeMatching(p) => {
                        if ct != cu || !p.matches(ct) {
                            continue;
                        }
                    }
                    Goal2::Differ => {
                        if ct == cu {
                            continue;
                        }
                    }
                    Goal2::Free => {}
                }
                at[slot] = ct;
                au[slot] = cu;
                let ok = due[slot].iter().all(|&r| {
                    let (rule, variable) = &rules[r];
                    if *variable {
                        // Violated iff both match, agree on the LHS, and
                        // differ on the RHS.
                        let both = rule
                            .lhs
                            .iter()
                            .all(|&(s, p)| p.matches(at[s]) && p.matches(au[s]) && at[s] == au[s]);
                        !(both && at[rule.rhs_slot] != au[rule.rhs_slot])
                    } else {
                        let sat_one = |t: &[usize]| {
                            let lhs_match = rule.lhs.iter().all(|&(s, p)| p.matches(t[s]));
                            !lhs_match || rule.rhs.matches(t[rule.rhs_slot])
                        };
                        sat_one(at) && sat_one(au)
                    }
                });
                if !ok {
                    continue;
                }
                match self.dfs_pair(slot + 1, rules, due, goal, at, au) {
                    Outcome::Exhausted => {}
                    done => return done,
                }
            }
        }
        Outcome::Exhausted
    }

    /// Per-slot branching constraints making a single tuple violate
    /// constant `phi`: match its LHS, avoid its RHS constant.
    fn goal_violate_constant(&self, phi: &Cfd) -> Vec<Goal1> {
        let mut goal = vec![Goal1::Free; self.slots.len()];
        if let Some(folded) = fold_lhs(phi) {
            for (&a, p) in &folded {
                if let AtomPat::Eq(i) = self.atom_pat(a, p) {
                    goal[self.slot_of(a)] = Goal1::Only(i);
                }
                // `Never` is handled by the caller (φ vacuous ⇒ implied);
                // wildcards impose nothing.
            }
        }
        if let Some(v) = phi.rhs_pattern.as_const() {
            let slot = self.slot_of(phi.rhs);
            if let Some(i) = self.consts[slot].iter().position(|c| c == v) {
                goal[slot] = Goal1::Not(i);
            }
            // RHS constant outside the domain: every candidate differs.
        }
        goal
    }

    /// Per-slot pair constraints making two tuples violate variable
    /// `phi`: agree (matching) on its LHS, differ on its RHS.
    fn goal_violate_variable(&self, phi: &Cfd) -> Vec<Goal2> {
        let mut goal = vec![Goal2::Free; self.slots.len()];
        if let Some(folded) = fold_lhs(phi) {
            for (&a, p) in &folded {
                goal[self.slot_of(a)] = Goal2::AgreeMatching(self.atom_pat(a, p));
            }
        }
        goal[self.slot_of(phi.rhs)] = Goal2::Differ;
        goal
    }

    /// Materialize a candidate assignment as a full tuple; attributes Σ
    /// never mentions get an arbitrary domain value.
    fn render(&self, tid: relation::Tid, assign: &[usize]) -> Tuple {
        let mut values = Vec::with_capacity(self.schema.arity());
        for a in 0..self.schema.arity() as AttrId {
            match self.slots.binary_search(&a) {
                Ok(slot) => {
                    let cand = assign[slot];
                    let nc = self.consts[slot].len();
                    values.push(if cand < nc {
                        self.consts[slot][cand].clone()
                    } else {
                        self.fresh[slot][cand - nc].clone()
                    });
                }
                Err(_) => values.push(match self.domains.get(a) {
                    Domain::Open => Value::Null,
                    Domain::Finite(s) => s
                        .iter()
                        .next()
                        .cloned()
                        .expect("empty domains handled upfront"),
                }),
            }
        }
        Tuple::new(tid, values)
    }
}

/// Synthesize `n` values distinct from every value in `avoid` (open
/// domains only, where such values always exist).
fn synthesize_fresh(avoid: &[Value], n: usize) -> Vec<Value> {
    let mut out = Vec::with_capacity(n);
    let mut next = avoid
        .iter()
        .filter_map(|v| match v {
            Value::Int(i) => Some(*i),
            _ => None,
        })
        .max()
        .map_or(0, |m| m + 1);
    while out.len() < n {
        let v = Value::int(next);
        next += 1;
        if !avoid.contains(&v) {
            out.push(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::new("R", &["id", "x", "y", "z"], "id").unwrap()
    }

    fn cfd(
        id: CfdId,
        s: &Schema,
        lhs: &[(&str, Option<Value>)],
        rhs: (&str, Option<Value>),
    ) -> Cfd {
        Cfd::from_names(id, s, lhs, rhs).unwrap()
    }

    fn satisfies(cfds: &[Cfd], tuples: &[Tuple]) -> bool {
        cfds.iter().all(|c| {
            if c.is_constant() {
                tuples.iter().all(|t| !c.constant_violation(t))
            } else {
                tuples.iter().all(|t| {
                    tuples
                        .iter()
                        .filter(|u| u.tid != t.tid)
                        .all(|u| !c.pair_violation(t, u))
                })
            }
        })
    }

    #[test]
    fn open_domains_dodge_a_constant_conflict() {
        let s = schema();
        let cfds = vec![
            cfd(
                0,
                &s,
                &[("x", Some(Value::int(1)))],
                ("y", Some(Value::int(10))),
            ),
            cfd(
                1,
                &s,
                &[("x", Some(Value::int(1)))],
                ("y", Some(Value::int(20))),
            ),
        ];
        let cfg = AnalysisConfig::default();
        match satisfiable(&s, &cfds, &Domains::open(&s), &cfg) {
            Sat::Satisfiable { witness } => {
                assert!(satisfies(&cfds, std::slice::from_ref(&witness)));
                assert_ne!(witness.get(1), &Value::int(1), "witness must dodge x=1");
            }
            other => panic!("expected satisfiable, got {other:?}"),
        }
    }

    #[test]
    fn finite_domain_makes_the_conflict_unsat_with_minimal_core() {
        let s = schema();
        let cfds = vec![
            cfd(0, &s, &[("y", None)], ("z", None)), // irrelevant FD
            cfd(
                1,
                &s,
                &[("x", Some(Value::int(1)))],
                ("y", Some(Value::int(10))),
            ),
            cfd(
                2,
                &s,
                &[("x", Some(Value::int(1)))],
                ("y", Some(Value::int(20))),
            ),
        ];
        let mut doms = Domains::open(&s);
        doms.set(1, [Value::int(1)]); // dom(x) = {1}: every tuple has x=1
        doms.set(2, [Value::int(10), Value::int(20)]);
        let cfg = AnalysisConfig::default();
        match satisfiable(&s, &cfds, &doms, &cfg) {
            Sat::Unsatisfiable { core } => assert_eq!(core, vec![1, 2]),
            other => panic!("expected unsatisfiable, got {other:?}"),
        }
    }

    #[test]
    fn fd_implies_its_patterned_refinement_but_not_vice_versa() {
        let s = schema();
        let fd = cfd(0, &s, &[("x", None)], ("y", None));
        let refined = cfd(1, &s, &[("x", Some(Value::int(1)))], ("y", None));
        let doms = Domains::open(&s);
        let cfg = AnalysisConfig::default();
        assert_eq!(
            implies(&s, std::slice::from_ref(&fd), &refined, &doms, &cfg),
            Implication::Implied
        );
        match implies(&s, std::slice::from_ref(&refined), &fd, &doms, &cfg) {
            Implication::Independent { witness } => {
                assert_eq!(witness.len(), 2);
                assert!(satisfies(std::slice::from_ref(&refined), &witness));
                assert!(fd.pair_violation(&witness[0], &witness[1]));
            }
            other => panic!("expected independent, got {other:?}"),
        }
    }

    #[test]
    fn constant_rule_implies_the_matching_variable_rule() {
        let s = schema();
        let konst = cfd(
            0,
            &s,
            &[("x", Some(Value::int(1)))],
            ("y", Some(Value::int(5))),
        );
        let var = cfd(1, &s, &[("x", Some(Value::int(1)))], ("y", None));
        assert!(subsumes(&konst, &var));
        assert!(!subsumes(&var, &konst));
        let cfg = AnalysisConfig::default();
        let doms = Domains::open(&s);
        assert_eq!(
            implies(&s, std::slice::from_ref(&konst), &var, &doms, &cfg),
            Implication::Implied
        );
    }

    #[test]
    fn transitivity_shows_up_only_in_the_model_based_check() {
        // x→y and y→z imply x→z, which no single rule subsumes.
        let s = schema();
        let cfds = vec![
            cfd(0, &s, &[("x", None)], ("y", None)),
            cfd(1, &s, &[("y", None)], ("z", None)),
        ];
        let phi = cfd(2, &s, &[("x", None)], ("z", None));
        assert!(!subsumes_any(&cfds, &phi));
        let cfg = AnalysisConfig::default();
        assert_eq!(
            implies(&s, &cfds, &phi, &Domains::open(&s), &cfg),
            Implication::Implied
        );
    }

    #[test]
    fn cover_removes_duplicates_and_refinements_and_verifies() {
        let s = schema();
        let cfds = vec![
            cfd(0, &s, &[("x", None), ("y", None)], ("z", None)),
            cfd(1, &s, &[("y", None), ("x", None)], ("z", None)), // dup mod order
            cfd(
                2,
                &s,
                &[("x", Some(Value::int(7))), ("y", None)],
                ("z", None),
            ), // refinement
            cfd(
                3,
                &s,
                &[("y", Some(Value::int(3)))],
                ("z", Some(Value::int(4))),
            ),
        ];
        let doms = Domains::open(&s);
        let cfg = AnalysisConfig::default();
        let cover = minimal_cover(&s, &cfds, &doms, &cfg);
        assert_eq!(cover.kept, vec![0, 3]);
        let mut removed: Vec<CfdId> = cover.removed.iter().map(|r| r.id).collect();
        removed.sort_unstable();
        assert_eq!(removed, vec![1, 2]);
        cover.verify(&s, &cfds, &doms, &cfg).unwrap();
    }

    #[test]
    fn prune_plan_reps_and_residuals() {
        let s = schema();
        let cfds = vec![
            cfd(0, &s, &[("x", None), ("y", None)], ("z", None)),
            // Same LHS set, patterned refinement: pruned under 0.
            cfd(
                1,
                &s,
                &[("x", Some(Value::int(7))), ("y", None)],
                ("z", None),
            ),
            // LHS *subset* of 0: implied, but NOT mark-preserving ⇒ kept.
            cfd(2, &s, &[("x", None)], ("z", None)),
            // Constant pair: 4 refines 3.
            cfd(
                3,
                &s,
                &[("x", None), ("y", Some(Value::int(2)))],
                ("z", Some(Value::int(9))),
            ),
            cfd(
                4,
                &s,
                &[("x", Some(Value::int(5))), ("y", Some(Value::int(2)))],
                ("z", Some(Value::int(9))),
            ),
            // Exact duplicate of 0 modulo LHS order.
            cfd(5, &s, &[("y", None), ("x", None)], ("z", None)),
        ];
        let plan = PrunePlan::compute(&cfds);
        assert_eq!(plan.kept, vec![0, 2, 3]);
        assert_eq!(plan.rep, vec![0, 0, 2, 3, 3, 0]);
        assert!(plan.residual[1] == vec![(1, Value::int(7))]);
        assert_eq!(
            plan.residual[4],
            vec![(1, Value::int(5)), (2, Value::int(2))]
        );
        assert!(plan.residual[5].is_empty());
        assert_eq!(plan.n_pruned(), 3);
        assert!((plan.pruned_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn conflicts_and_rule_status_diagnostics() {
        let s = schema();
        let cfds = vec![
            cfd(
                0,
                &s,
                &[("x", Some(Value::int(1)))],
                ("y", Some(Value::int(10))),
            ),
            cfd(
                1,
                &s,
                &[("z", Some(Value::int(3)))],
                ("y", Some(Value::int(20))),
            ),
            cfd(
                2,
                &s,
                &[("x", Some(Value::int(2)))],
                ("y", Some(Value::int(10))),
            ),
        ];
        let doms = Domains::open(&s);
        let pairs = conflict_pairs(&cfds, &doms);
        // 0↔1 unify (disjoint LHS attrs) and disagree on y; 0↔2 conflict
        // on x=1 vs x=2 so never co-fire; 1↔2 unify and disagree.
        assert_eq!(pairs.len(), 2);
        assert_eq!((pairs[0].a, pairs[0].b), (0, 1));
        assert_eq!((pairs[1].a, pairs[1].b), (1, 2));

        let mut doms = Domains::open(&s);
        doms.set(1, [Value::int(5)]); // x can only be 5
        assert_eq!(rule_status(&cfds[0], &doms), RuleStatus::Vacuous);
        doms.set(2, [Value::int(10)]); // y can only be 10
        assert_eq!(rule_status(&cfds[1], &doms), RuleStatus::UnsatRhs);
    }

    #[test]
    fn analyze_ties_it_together() {
        let s = schema();
        let cfds = vec![
            cfd(0, &s, &[("x", None)], ("y", None)),
            cfd(1, &s, &[("x", None)], ("y", None)), // duplicate
            cfd(2, &s, &[("x", Some(Value::int(1)))], ("y", None)), // refinement
        ];
        let doms = Domains::open(&s);
        let cfg = AnalysisConfig::default();
        let a = analyze(&s, &cfds, &doms, &cfg);
        assert_eq!(a.per_rule, vec![RuleStatus::Ok; 3]);
        assert_eq!(a.duplicates, vec![(1, 0)]);
        assert!(a.conflicts.is_empty());
        assert!(matches!(a.sat, Sat::Satisfiable { .. }));
        assert_eq!(a.cover.kept, vec![0]);
        a.cover.verify(&s, &cfds, &doms, &cfg).unwrap();
        assert_eq!(a.prune.kept, vec![0]);
        assert_eq!(a.prune.rep, vec![0, 0, 0]);
    }

    #[test]
    fn budget_exhaustion_is_unknown_not_wrong() {
        let s = schema();
        let cfds = vec![
            cfd(
                0,
                &s,
                &[("x", Some(Value::int(1)))],
                ("y", Some(Value::int(10))),
            ),
            cfd(
                1,
                &s,
                &[("x", Some(Value::int(1)))],
                ("y", Some(Value::int(20))),
            ),
        ];
        let cfg = AnalysisConfig {
            node_budget: 1,
            ..AnalysisConfig::default()
        };
        assert_eq!(
            satisfiable(&s, &cfds, &Domains::open(&s), &cfg),
            Sat::Unknown
        );
    }

    #[test]
    fn observed_domains_come_from_the_relation() {
        let s = schema();
        let mut rel = Relation::new(Arc::clone(&s));
        rel.insert(Tuple::new(
            1,
            vec![Value::int(1), Value::int(7), Value::str("a"), Value::Null],
        ))
        .unwrap();
        rel.insert(Tuple::new(
            2,
            vec![Value::int(2), Value::int(8), Value::str("a"), Value::Null],
        ))
        .unwrap();
        let doms = Domains::observed(&rel);
        assert_eq!(
            doms.get(1),
            &Domain::Finite([Value::int(7), Value::int(8)].into_iter().collect())
        );
        assert_eq!(
            doms.get(2),
            &Domain::Finite([Value::str("a")].into_iter().collect())
        );
    }
}
