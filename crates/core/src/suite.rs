//! The validation-suite API: mixed-kind constraint catalogs over one
//! incremental session.
//!
//! [`Suite`] is the single entry point for standing up *any* incremental
//! validation session — CFDs plus the non-CFD constraint classes of
//! [`cfd::constraint`] (keys, completeness, inclusion dependencies,
//! aggregates) — over any partition strategy:
//!
//! ```text
//! Suite::on(schema)
//!     .cfds(sigma)
//!     .check(Check::key(["zip", "phn"]))
//!     .check(Check::complete("phn"))
//!     .check(Check::inclusion(["city"], "CITIES", ["city"]))
//!     .check(Check::row_count(["grade"], None, Some(1000)))
//!     .reference(cities)
//!     .strategy(Strategy::Horizontal(scheme))
//!     .build(&d0)?
//! ```
//!
//! The typed [`Strategy`] value names one of the paper's eight
//! algorithms with its partition scheme. A pure-CFD session needs no
//! wrapper: [`Suite::build_detector`] returns the bare [`Detector`].
//! Callers that need a concrete detector type (its `waves()`, its
//! `state_census()`, an explicit [`HevPlan`]) call that detector's own
//! constructor instead.
//!
//! Division of labour per constraint class:
//!
//! * **CFDs, keys, completeness** ride the inner [`Detector`] — keys
//!   compile to the FD `X → id` and completeness to a constant CFD
//!   ([`cfd::constraint`]), so they inherit incremental evaluation,
//!   shared plans, `AnalysisMode` pruning and all transports unchanged.
//!   Tiny residuals the CFD semantics cannot see (exact duplicates on
//!   `X ∪ {id}`; tuples null on both the checked and probe attribute)
//!   are maintained natively in constant time per update.
//! * **Inclusion dependencies** keep count-indexed containment state:
//!   per projected key, the referencing tids and the referenced
//!   multiplicity — `O(|ΔD| + |Δfindings|)` per batch on either side.
//!   The referenced relation is hash-partitioned over two sites
//!   (`IND_SITES`, [`HorizontalScheme::by_hash`]) and
//!   every membership probe / presence flip is metered as cross-site
//!   traffic in the report's `ind` tier.
//! * **Aggregates** keep delete-safe per-group state (count, sum, and
//!   an ordered value multiset for min/max); findings flip for whole
//!   groups exactly when the bound status changes.
//!
//! All rules report through one [`FindingSet`] and per-batch
//! [`DeltaFindings`], with the CFD-level [`DeltaV`] still available
//! alongside ([`SuiteDelta`]).

use crate::baselines::{BatHor, BatVer, IbatHor, IbatVer};
use crate::detector::{DetectError, Detector};
use crate::hybrid::{HybridDetector, HybridScheme};
use crate::optimize::{optimize, OptimizeConfig};
use crate::pruned::{preflight, AnalysisMode, Pruned};
use crate::{HevPlan, HorizontalDetector, VerticalDetector};
use cfd::constraint::{
    AggFunc, Check, Constraint, ConstraintKind, DeltaFindings, FindingSet, RuleId,
};
use cfd::{Cfd, CfdId, DeltaV};
use cluster::codec::CodecKind;
use cluster::net::TransportKind;
use cluster::partition::{HorizontalScheme, VerticalScheme};
use cluster::{NetReport, NetStats, SiteId};
use relation::{AttrId, FxHashMap, FxHashSet, Relation, Schema, Tid, Update, UpdateBatch, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The partition strategy of a suite session: one of the paper's
/// algorithms with its partition scheme.
#[derive(Debug, Clone)]
pub enum Strategy {
    /// `incVer` (§4) over a vertical partition, default HEV chains.
    Vertical(VerticalScheme),
    /// `optVer` (§5): vertical with the plan optimizer.
    OptimizedVertical(VerticalScheme, OptimizeConfig),
    /// `incHor` (§6) over a horizontal partition.
    Horizontal(HorizontalScheme),
    /// `incHyb` over a hybrid topology.
    Hybrid(HybridScheme),
    /// `batVer` (§7): batch recomputation over vertical fragments.
    BatVer(VerticalScheme),
    /// `batHor` (§7): batch recomputation over horizontal fragments.
    BatHor(HorizontalScheme),
    /// `ibatVer` (Exp-10): batch recomputation through the incremental
    /// machinery.
    IbatVer(VerticalScheme),
    /// `ibatHor` (Exp-10): horizontal counterpart of `ibatVer`.
    IbatHor(HorizontalScheme),
}

impl Strategy {
    /// The paper's algorithm name for this choice (matches
    /// [`Detector::strategy`] of the detector it builds).
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Vertical(_) => "incVer",
            Strategy::OptimizedVertical(..) => "optVer",
            Strategy::Horizontal(_) => "incHor",
            Strategy::Hybrid(_) => "incHyb",
            Strategy::BatVer(_) => "batVer",
            Strategy::BatHor(_) => "batHor",
            Strategy::IbatVer(_) => "ibatVer",
            Strategy::IbatHor(_) => "ibatHor",
        }
    }
}

/// Static description of one rule of a suite session.
#[derive(Debug, Clone)]
pub struct RuleInfo {
    /// The rule id ([`Finding::rule`](cfd::constraint::Finding::rule)).
    pub id: RuleId,
    /// Its constraint class.
    pub kind: ConstraintKind,
    /// Human-readable label (`key(zip, phn)`, the CFD display form, …).
    pub label: String,
}

/// The change reported by one [`SuiteSession::apply`]: the unified
/// finding delta, alongside the inner CFD-level `ΔV` (over the combined
/// compiled catalog) for callers that consume the paper's native shape.
#[derive(Debug, Clone, Default)]
pub struct SuiteDelta {
    /// Per-rule added/removed findings (settled, sorted).
    pub findings: DeltaFindings,
    /// The inner detector's `ΔV` over the compiled CFD catalog (user
    /// CFDs first, compiled key/completeness rules after them). Empty
    /// for reference-relation batches.
    pub cfd_delta: DeltaV,
}

/// Builder for a [`SuiteSession`] — see the module docs for the shape.
#[derive(Debug, Clone)]
pub struct Suite {
    schema: Arc<Schema>,
    cfds: Vec<Cfd>,
    checks: Vec<Check>,
    refs: Vec<Relation>,
    strategy: Option<Strategy>,
    codec: CodecKind,
    transport: TransportKind,
    analysis: AnalysisMode,
}

/// Sites the referenced relations of inclusion dependencies are
/// hash-partitioned over.
const IND_SITES: usize = 2;

/// What [`Suite::resolve`] compiles out of the catalog: the combined CFD
/// list (user CFDs first, compiled key/completeness rules after), the
/// per-rule kinds and labels, the inner `CfdId → RuleId` map, and the
/// resolved non-CFD constraints.
type ResolvedCatalog = (
    Vec<Cfd>,
    Vec<ConstraintKind>,
    Vec<String>,
    Vec<RuleId>,
    Vec<(RuleId, Constraint)>,
);

impl Suite {
    /// Start a suite over the primary relation's schema.
    pub fn on(schema: Arc<Schema>) -> Suite {
        Suite {
            schema,
            cfds: Vec::new(),
            checks: Vec::new(),
            refs: Vec::new(),
            strategy: None,
            codec: CodecKind::default(),
            transport: TransportKind::default(),
            analysis: AnalysisMode::default(),
        }
    }

    /// Add one check.
    pub fn check(mut self, check: Check) -> Self {
        self.checks.push(check);
        self
    }

    /// Add several checks.
    pub fn checks(mut self, checks: impl IntoIterator<Item = Check>) -> Self {
        self.checks.extend(checks);
        self
    }

    /// Add the CFD catalog `Σ` (ids are renumbered positionally).
    pub fn cfds(mut self, sigma: Vec<Cfd>) -> Self {
        self.cfds.extend(sigma);
        self
    }

    /// Register a referenced relation for inclusion dependencies; it is
    /// addressed by its schema name and updated through
    /// [`SuiteSession::apply_to`].
    pub fn reference(mut self, rel: Relation) -> Self {
        self.refs.push(rel);
        self
    }

    /// Pick the partition strategy (default:
    /// [`Strategy::Horizontal`] hash-partitioned on the tuple-id
    /// attribute over two sites).
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// Wire codec of the §6 protocol, for the strategies that ship values
    /// through it (`incHor`, and `incHyb` between region gateways):
    /// [`CodecKind::Md5`] (the default), [`CodecKind::RawValues`] or
    /// [`CodecKind::Dict`]. The codec decides only what a value becomes;
    /// how a frame is packed is the transport's own call (protocol frames
    /// ship stored). Every other strategy ships eqids or its own fixed
    /// codec: building one with a codec other than the default is
    /// [`DetectError::UnsupportedCodec`].
    pub fn codec(mut self, codec: CodecKind) -> Self {
        self.codec = codec;
        self
    }

    /// Transport substrate for the inner detection protocol:
    /// [`TransportKind::Simulated`] (modeled `|M|` only, the default),
    /// [`TransportKind::Framed`] (real byte frames over in-process
    /// channels) or [`TransportKind::Tcp`] (localhost sockets). `incVer`,
    /// `optVer` and `ibatVer` run on the simulated network only: building
    /// one over another transport is
    /// [`DetectError::UnsupportedTransport`].
    pub fn transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// Static analysis of the compiled CFD catalog before building:
    /// [`AnalysisMode::Off`] (default), [`AnalysisMode::Warn`] (report
    /// findings, build over the full catalog) or [`AnalysisMode::Prune`]
    /// (refuse unsatisfiable catalogs and detect over the minimal kept
    /// rules inside a [`Pruned`] wrapper). Violations and ΔV are
    /// bit-identical across the three on satisfiable catalogs.
    pub fn analyze(mut self, analysis: AnalysisMode) -> Self {
        self.analysis = analysis;
        self
    }

    fn resolve(&self) -> Result<ResolvedCatalog, DetectError> {
        let n_user = self.cfds.len();
        let mut cfds: Vec<Cfd> = self.cfds.clone();
        for (i, c) in cfds.iter_mut().enumerate() {
            c.id = i as CfdId;
        }
        let mut kinds: Vec<ConstraintKind> = vec![ConstraintKind::Cfd; n_user];
        let mut labels: Vec<String> = (0..n_user).map(|i| format!("φ{i}")).collect();
        let mut cfd_rule: Vec<RuleId> = (0..n_user as RuleId).collect();
        let mut resolved: Vec<(RuleId, Constraint)> = Vec::with_capacity(self.checks.len());
        for check in &self.checks {
            let rule = kinds.len() as RuleId;
            let ref_schema = match check {
                Check::Inclusion { ref_relation, .. } => Some(
                    self.refs
                        .iter()
                        .find(|r| r.schema().name() == ref_relation)
                        .map(|r| r.schema().clone())
                        .ok_or_else(|| {
                            DetectError::Analysis(format!(
                                "suite check `{}`: unknown reference relation `{ref_relation}`",
                                check.label()
                            ))
                        })?,
                ),
                _ => None,
            };
            let c = Constraint::resolve(
                check,
                &self.schema,
                ref_schema.as_deref(),
                cfds.len() as CfdId,
            )
            .map_err(|e| DetectError::Analysis(format!("suite check `{}`: {e}", check.label())))?;
            if let Some(compiled) = c.compiled_cfd() {
                cfds.push(compiled.clone());
                cfd_rule.push(rule);
            }
            kinds.push(check.kind());
            labels.push(check.label());
            resolved.push((rule, c));
        }
        Ok((cfds, kinds, labels, cfd_rule, resolved))
    }

    /// Build only the inner [`Detector`] over the CFD catalog — the
    /// construction path for pure-CFD sessions.
    pub fn build_detector(self, d0: &Relation) -> Result<Box<dyn Detector>, DetectError> {
        if !self.checks.is_empty() {
            return Err(DetectError::Analysis(
                "suite has non-CFD checks; use build() for the full session".into(),
            ));
        }
        let (cfds, ..) = self.resolve()?;
        self.build_dyn(cfds, d0)
    }

    /// Construct the strategy's detector over `cfds` (positional ids),
    /// wrapped in [`Pruned`] when [`AnalysisMode::Prune`] shrinks them.
    fn build_dyn(&self, cfds: Vec<Cfd>, d0: &Relation) -> Result<Box<dyn Detector>, DetectError> {
        let schema = self.schema.clone();
        let prep = preflight(&schema, &cfds, self.analysis)?;
        let cfds = prep.as_ref().map_or(cfds, |p| p.kept.clone());
        let strategy = match &self.strategy {
            Some(s) => s.clone(),
            None => {
                Strategy::Horizontal(HorizontalScheme::by_hash(schema.clone(), schema.key(), 2)?)
            }
        };
        let (codec, transport) = (self.codec, self.transport);
        let simulated_only = matches!(
            strategy,
            Strategy::Vertical(_) | Strategy::OptimizedVertical(..) | Strategy::IbatVer(_)
        );
        if simulated_only && transport != TransportKind::default() {
            return Err(DetectError::UnsupportedTransport {
                strategy: strategy.name(),
                transport,
            });
        }
        let takes_codec = matches!(strategy, Strategy::Horizontal(_) | Strategy::Hybrid(_));
        if !takes_codec && codec != CodecKind::default() {
            return Err(DetectError::UnsupportedCodec {
                strategy: strategy.name(),
                codec,
            });
        }
        let vertical = |cfds, s, plan| -> Result<Box<dyn Detector>, DetectError> {
            let det = VerticalDetector::with_plan(schema.clone(), cfds, s, plan, d0)?;
            Ok(Box::new(det))
        };
        let inner: Box<dyn Detector> = match strategy {
            Strategy::Vertical(s) => {
                let plan = HevPlan::default_chains(&cfds, &s);
                vertical(cfds, s, plan)?
            }
            Strategy::OptimizedVertical(s, cfg) => {
                let plan = optimize(&cfds, &s, cfg);
                vertical(cfds, s, plan)?
            }
            Strategy::Horizontal(s) => {
                let det = HorizontalDetector::new(schema, cfds, s, d0, codec, transport)?;
                Box::new(det)
            }
            Strategy::Hybrid(s) => {
                let det = HybridDetector::new(schema, cfds, s, d0, codec, transport)?;
                Box::new(det)
            }
            Strategy::BatVer(s) => {
                Box::new(BatVer::new(schema, cfds, s, d0)?.with_transport(transport))
            }
            Strategy::BatHor(s) => {
                Box::new(BatHor::new(schema, cfds, s, d0)?.with_transport(transport))
            }
            Strategy::IbatVer(s) => Box::new(IbatVer::new(schema, cfds, s, d0)?),
            Strategy::IbatHor(s) => {
                Box::new(IbatHor::new(schema, cfds, s, d0)?.with_transport(transport))
            }
        };
        Ok(match prep {
            None => inner,
            Some(prep) => Box::new(Pruned::new(inner, prep)),
        })
    }

    /// Build the full session over the initial primary relation `d0`.
    /// Referenced relations must have been registered first; initial
    /// findings cover `d0` and the references as given.
    pub fn build(self, d0: &Relation) -> Result<SuiteSession, DetectError> {
        let (cfds, kinds, labels, cfd_rule, resolved) = self.resolve()?;
        let det = self.build_dyn(cfds, d0)?;
        let mut refs: FxHashMap<String, Relation> = FxHashMap::default();
        for r in self.refs {
            refs.insert(r.schema().name().to_string(), r);
        }
        let mut natives = Vec::new();
        for (rule, c) in resolved {
            natives.push(Native::new(rule, c)?);
        }
        let mut session = SuiteSession {
            findings: FindingSet::new(kinds.clone()),
            kinds,
            labels,
            cfd_rule,
            natives,
            refs,
            ind_net: NetStats::new(IND_SITES + 1),
            det,
        };
        session.seed(d0);
        Ok(session)
    }
}

/// One incremental validation session: the inner CFD [`Detector`] plus
/// the native evaluators of the non-CFD checks, reporting through one
/// [`FindingSet`]. Built by [`Suite::build`].
pub struct SuiteSession {
    det: Box<dyn Detector>,
    /// Per-rule constraint class.
    kinds: Vec<ConstraintKind>,
    /// Per-rule display label.
    labels: Vec<String>,
    /// CfdId (inner catalog) → RuleId.
    cfd_rule: Vec<RuleId>,
    natives: Vec<Native>,
    refs: FxHashMap<String, Relation>,
    findings: FindingSet,
    ind_net: NetStats,
}

impl SuiteSession {
    fn seed(&mut self, d0: &Relation) {
        // References first: inclusion membership must exist before the
        // primary scan probes it. Both read the stored rows in place.
        let mut marks = DeltaV::default();
        for (name, rel) in &self.refs {
            let store = rel.store();
            for (tid, row) in rel.scan() {
                for n in &mut self.natives {
                    let value = |a| store.value(row, a);
                    n.on_reference(name, true, tid, value, &mut marks, &mut self.ind_net);
                }
            }
        }
        let store = d0.store();
        for (tid, row) in d0.scan() {
            for n in &mut self.natives {
                let value = |a| store.value(row, a);
                n.on_primary(true, tid, value, &mut marks, &mut self.ind_net);
            }
        }
        marks.settle();
        for &(r, t) in &marks.added {
            self.findings.add_mark(r, t);
        }
        debug_assert!(marks.removed.is_empty(), "seeding only adds findings");
        // The compiled-CFD sources: the detector already holds V(Σ, D₀).
        for (c, t) in self.det.violations().marks_sorted() {
            self.findings.add_mark(self.cfd_rule[c as usize], t);
        }
        self.ind_net.reset();
    }

    /// Apply a batch to the **primary** relation, returning the unified
    /// finding delta alongside the inner CFD `ΔV`.
    pub fn apply(&mut self, delta: &UpdateBatch) -> Result<SuiteDelta, DetectError> {
        let norm = crate::detector::admit(self.det.current(), delta)?;
        // Pre-images of deletions, captured before the detector mutates
        // its mirror (the native evaluators need the departing values).
        let mut ops: Vec<(bool, Tid, Vec<Value>)> = Vec::with_capacity(norm.len());
        for op in norm.ops() {
            match op {
                Update::Insert(t) => ops.push((true, t.tid, t.values.to_vec())),
                Update::Delete(tid) => {
                    let t = self
                        .det
                        .current()
                        .get(*tid)
                        .ok_or(DetectError::Rel(relation::RelError::MissingTid(*tid)))?;
                    ops.push((false, *tid, t.values.to_vec()));
                }
            }
        }
        let cfd_delta = self.det.apply(&norm)?;
        let mut marks = DeltaV::default();
        for &(c, t) in &cfd_delta.added {
            marks.add(self.cfd_rule[c as usize], t);
        }
        for &(c, t) in &cfd_delta.removed {
            marks.remove(self.cfd_rule[c as usize], t);
        }
        for (is_insert, tid, values) in &ops {
            for n in &mut self.natives {
                let value = |a: AttrId| &values[a as usize];
                n.on_primary(*is_insert, *tid, value, &mut marks, &mut self.ind_net);
            }
        }
        let findings = self.commit(marks)?;
        Ok(SuiteDelta {
            findings,
            cfd_delta,
        })
    }

    /// Apply a single primary-relation update as a one-op batch.
    pub fn apply_one(&mut self, op: &Update) -> Result<SuiteDelta, DetectError> {
        let mut batch = UpdateBatch::new();
        match op {
            Update::Insert(t) => batch.insert(t.clone()),
            Update::Delete(tid) => batch.delete(*tid),
        }
        self.apply(&batch)
    }

    /// Apply a batch to a **referenced** relation (inclusion-dependency
    /// right-hand sides). Only inclusion findings can change; the CFD
    /// delta of the returned [`SuiteDelta`] is empty.
    pub fn apply_to(
        &mut self,
        relation: &str,
        delta: &UpdateBatch,
    ) -> Result<SuiteDelta, DetectError> {
        let rel = self.refs.get_mut(relation).ok_or_else(|| {
            DetectError::Analysis(format!("unknown reference relation `{relation}`"))
        })?;
        let norm = crate::detector::admit(rel, delta)?;
        let mut ops: Vec<(bool, Tid, Vec<Value>)> = Vec::with_capacity(norm.len());
        for op in norm.ops() {
            match op {
                Update::Insert(t) => ops.push((true, t.tid, t.values.to_vec())),
                Update::Delete(tid) => {
                    let t = rel
                        .get(*tid)
                        .ok_or(DetectError::Rel(relation::RelError::MissingTid(*tid)))?;
                    ops.push((false, *tid, t.values.to_vec()));
                }
            }
        }
        norm.apply(rel).map_err(DetectError::Rel)?;
        let mut marks = DeltaV::default();
        for (is_insert, tid, values) in &ops {
            for n in &mut self.natives {
                let value = |a: AttrId| &values[a as usize];
                n.on_reference(
                    relation,
                    *is_insert,
                    *tid,
                    value,
                    &mut marks,
                    &mut self.ind_net,
                );
            }
        }
        let findings = self.commit(marks)?;
        Ok(SuiteDelta {
            findings,
            cfd_delta: DeltaV::default(),
        })
    }

    /// Fold settled rule-level source marks into the finding set,
    /// reporting only the findings that actually flipped. A release of a
    /// mark no source holds is a bookkeeping bug in a check's state
    /// machine: it fails the batch instead of killing the process.
    fn commit(&mut self, mut marks: DeltaV) -> Result<DeltaFindings, DetectError> {
        marks.settle();
        let mut out = DeltaV::default();
        for &(r, t) in &marks.added {
            if self.findings.add_mark(r, t) {
                out.add(r, t);
            }
        }
        for &(r, t) in &marks.removed {
            let retired = self.findings.remove_mark(r, t).ok_or_else(|| {
                DetectError::Internal(format!(
                    "rule {r} released a finding mark on tuple {t} that no source holds"
                ))
            })?;
            if retired {
                out.remove(r, t);
            }
        }
        out.settle();
        Ok(DeltaFindings::from_rule_marks(&out, &self.kinds))
    }

    /// The maintained unified finding set.
    pub fn finding_set(&self) -> &FindingSet {
        &self.findings
    }

    /// The inner detector (strategy, mirror, traffic meters).
    pub fn detector(&self) -> &dyn Detector {
        self.det.as_ref()
    }

    /// Partition-strategy name of the inner detector.
    pub fn strategy(&self) -> &'static str {
        self.det.strategy()
    }

    /// A registered reference relation, by schema name.
    pub fn reference(&self, name: &str) -> Option<&Relation> {
        self.refs.get(name)
    }

    /// Static rule catalog: id, kind and label per rule, in rule order.
    pub fn rules(&self) -> Vec<RuleInfo> {
        self.kinds
            .iter()
            .zip(&self.labels)
            .enumerate()
            .map(|(i, (&kind, label))| RuleInfo {
                id: i as RuleId,
                kind,
                label: label.clone(),
            })
            .collect()
    }

    /// Network traffic: the inner detector's tiers plus the `ind` tier
    /// metering inclusion-dependency probes and presence flips.
    pub fn net(&self) -> NetReport {
        self.det.net().with_tier("ind", self.ind_net.clone())
    }

    /// Reset all traffic meters.
    pub fn reset_stats(&mut self) {
        self.det.reset_stats();
        self.ind_net.reset();
    }

    /// Completeness fast path: for every completeness rule, the O(1)
    /// per-attribute null count the relation maintains
    /// ([`Relation::null_count`]) — always equal to the rule's finding
    /// count, without a scan.
    pub fn completeness_counts(&self) -> Vec<(RuleId, AttrId, u64)> {
        self.natives
            .iter()
            .filter_map(|n| match n {
                Native::CompleteResidual { rule, attr, .. } => {
                    Some((*rule, *attr, self.det.current().null_count(*attr)))
                }
                _ => None,
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// Native evaluators
// ---------------------------------------------------------------------

/// Delete-safe per-group aggregate state.
#[derive(Debug, Default)]
struct AggGroup {
    tids: FxHashSet<Tid>,
    sum: i64,
    /// Ordered multiset of integer values (min/max under deletion).
    vals: BTreeMap<i64, u32>,
    violating: bool,
}

/// The suite-side evaluators: constraint classes (or residuals) the CFD
/// machinery does not carry.
enum Native {
    /// Key residual: exact duplicates over `X ∪ {id}` (the compiled FD
    /// sees only groups that *differ* on the id attribute).
    KeyDup {
        rule: RuleId,
        proj: Vec<AttrId>,
        buckets: FxHashMap<Vec<Value>, Vec<Tid>>,
    },
    /// Completeness residual: tuples null on both the checked and the
    /// probe attribute (invisible to the compiled constant CFD).
    CompleteResidual {
        rule: RuleId,
        attr: AttrId,
        probe: AttrId,
    },
    /// Count-indexed inclusion containment with hash-partitioned
    /// reference and metered probes.
    Inclusion {
        rule: RuleId,
        attrs: Vec<AttrId>,
        ref_name: String,
        ref_attrs: Vec<AttrId>,
        scheme: HorizontalScheme,
        /// Projected key → referenced multiplicity.
        ref_counts: FxHashMap<Vec<Value>, u64>,
        /// Projected key → referencing tids.
        groups: FxHashMap<Vec<Value>, FxHashSet<Tid>>,
    },
    /// Per-group aggregate bound.
    Aggregate {
        rule: RuleId,
        func: AggFunc,
        attr: Option<AttrId>,
        group_by: Vec<AttrId>,
        lo: Option<i64>,
        hi: Option<i64>,
        groups: FxHashMap<Vec<Value>, AggGroup>,
    },
}

fn project<'v>(value: impl Fn(AttrId) -> &'v Value, attrs: &[AttrId]) -> Vec<Value> {
    attrs.iter().map(|&a| value(a).clone()).collect()
}

impl Native {
    fn new(rule: RuleId, c: Constraint) -> Result<Native, DetectError> {
        Ok(match c {
            Constraint::Key { attrs, compiled } => {
                let mut proj = attrs;
                proj.push(compiled.rhs); // X ∪ {id}
                Native::KeyDup {
                    rule,
                    proj,
                    buckets: FxHashMap::default(),
                }
            }
            Constraint::Complete { attr, probe, .. } => {
                Native::CompleteResidual { rule, attr, probe }
            }
            Constraint::Inclusion {
                attrs,
                ref_relation,
                ref_attrs,
            } => Native::Inclusion {
                rule,
                scheme: HorizontalScheme::by_hash(
                    // The scheme partitions the *referenced* relation; the
                    // primary schema only names the probe key shape, so any
                    // schema with the hashed attribute works. We build it
                    // over a minimal single-attribute schema keyed by the
                    // first projected attribute.
                    Schema::new("__ind_ref", &["k"], "k").map_err(DetectError::Rel)?,
                    0,
                    IND_SITES,
                )
                .map_err(DetectError::Cluster)?,
                attrs,
                ref_name: ref_relation,
                ref_attrs,
                ref_counts: FxHashMap::default(),
                groups: FxHashMap::default(),
            },
            Constraint::Aggregate {
                func,
                attr,
                group_by,
                lo,
                hi,
            } => Native::Aggregate {
                rule,
                func,
                attr,
                group_by,
                lo,
                hi,
                groups: FxHashMap::default(),
            },
        })
    }

    /// Fold one primary-relation insert or delete of `tid`, whose values
    /// `value` reads, into this check's state and `out`.
    fn on_primary<'v>(
        &mut self,
        is_insert: bool,
        tid: Tid,
        value: impl Fn(AttrId) -> &'v Value,
        out: &mut DeltaV,
        net: &mut NetStats,
    ) {
        match self {
            Native::KeyDup {
                rule,
                proj,
                buckets,
            } => {
                let key = project(value, proj);
                if is_insert {
                    let b = buckets.entry(key).or_default();
                    b.push(tid);
                    if b.len() == 2 {
                        out.add(*rule, b[0]);
                        out.add(*rule, b[1]);
                    } else if b.len() > 2 {
                        out.add(*rule, tid);
                    }
                } else if let Some(b) = buckets.get_mut(&key) {
                    b.retain(|&t| t != tid);
                    match b.len() {
                        1 => {
                            out.remove(*rule, tid);
                            out.remove(*rule, b[0]);
                        }
                        0 => {
                            buckets.remove(&key);
                        }
                        _ => out.remove(*rule, tid),
                    }
                }
            }
            Native::CompleteResidual { rule, attr, probe } => {
                if value(*attr).is_null() && value(*probe).is_null() {
                    if is_insert {
                        out.add(*rule, tid);
                    } else {
                        out.remove(*rule, tid);
                    }
                }
            }
            Native::Inclusion {
                rule,
                attrs,
                scheme,
                ref_counts,
                groups,
                ..
            } => {
                let key = project(value, attrs);
                let present = ref_counts.contains_key(&key);
                if is_insert {
                    // Membership probe: coordinator → owning fragment of
                    // the referenced relation, one-byte verdict back.
                    let owner = ind_owner(scheme, &key);
                    let coord = scheme.n_sites();
                    let bytes: usize = key.iter().map(Value::wire_size).sum();
                    net.record(coord, owner, bytes, 0);
                    net.record(owner, coord, 1, 0);
                    groups.entry(key).or_default().insert(tid);
                    if !present {
                        out.add(*rule, tid);
                    }
                } else {
                    if let Some(g) = groups.get_mut(&key) {
                        g.remove(&tid);
                        if g.is_empty() {
                            groups.remove(&key);
                        }
                    }
                    if !present {
                        out.remove(*rule, tid);
                    }
                }
            }
            Native::Aggregate {
                rule,
                func,
                attr,
                group_by,
                lo,
                hi,
                groups,
            } => {
                let key = project(&value, group_by);
                let g = groups.entry(key.clone()).or_default();
                let was_violating = g.violating;
                let int_val = attr.and_then(|a| value(a).as_int());
                if is_insert {
                    g.tids.insert(tid);
                    if let Some(x) = int_val {
                        g.sum += x;
                        *g.vals.entry(x).or_insert(0) += 1;
                    }
                } else {
                    g.tids.remove(&tid);
                    if let Some(x) = int_val {
                        g.sum -= x;
                        if let Some(c) = g.vals.get_mut(&x) {
                            *c -= 1;
                            if *c == 0 {
                                g.vals.remove(&x);
                            }
                        }
                    }
                }
                let now_violating = agg_violates(g, *func, *lo, *hi);
                g.violating = now_violating;
                match (was_violating, now_violating) {
                    (false, false) => {}
                    (true, true) => {
                        if is_insert {
                            out.add(*rule, tid);
                        } else {
                            out.remove(*rule, tid);
                        }
                    }
                    (false, true) => {
                        for &t in &g.tids {
                            out.add(*rule, t);
                        }
                    }
                    (true, false) => {
                        // Everyone marked before this op releases: on a
                        // delete that includes the leaver (no longer in
                        // `tids`), on an insert it excludes the newcomer
                        // (already in `tids`, never marked).
                        for &t in g.tids.iter().filter(|&&t| t != tid) {
                            out.remove(*rule, t);
                        }
                        if !is_insert {
                            out.remove(*rule, tid);
                        }
                    }
                }
                if g.tids.is_empty() {
                    groups.remove(&key);
                }
            }
        }
    }

    /// Fold one insert or delete on the reference relation `relation`,
    /// whose values `value` reads, into this check's state and `out`.
    fn on_reference<'v>(
        &mut self,
        relation: &str,
        is_insert: bool,
        _tid: Tid,
        value: impl Fn(AttrId) -> &'v Value,
        out: &mut DeltaV,
        net: &mut NetStats,
    ) {
        let Native::Inclusion {
            rule,
            ref_name,
            ref_attrs,
            scheme,
            ref_counts,
            groups,
            ..
        } = self
        else {
            return;
        };
        if ref_name != relation {
            return;
        }
        let key = project(value, ref_attrs);
        if is_insert {
            let c = ref_counts.entry(key.clone()).or_insert(0);
            *c += 1;
            if *c == 1 {
                // Presence flip 0 → 1: the owning fragment announces the
                // key to the coordinator; referencing tuples are cured.
                flip_notify(scheme, &key, net);
                if let Some(g) = groups.get(&key) {
                    for &t in g {
                        out.remove(*rule, t);
                    }
                }
            }
        } else if let Some(c) = ref_counts.get_mut(&key) {
            *c -= 1;
            if *c == 0 {
                ref_counts.remove(&key);
                // Presence flip 1 → 0: every referencing tuple dangles.
                flip_notify(scheme, &key, net);
                if let Some(g) = groups.get(&key) {
                    for &t in g {
                        out.add(*rule, t);
                    }
                }
            }
        }
    }
}

/// Owning fragment of a projected key under the reference partition:
/// route the first key component through the scheme's hash predicate.
#[expect(
    clippy::expect_used,
    reason = "a hash scheme's predicates route every value to one fragment"
)]
fn ind_owner(scheme: &HorizontalScheme, key: &[Value]) -> SiteId {
    scheme
        .route_with(0, &|_| &key[0])
        .expect("hash partition is total")
}

/// Meter a presence-flip notification (owner → coordinator, key bytes).
fn flip_notify(scheme: &HorizontalScheme, key: &[Value], net: &mut NetStats) {
    let owner = ind_owner(scheme, key);
    let coord = scheme.n_sites();
    let bytes: usize = key.iter().map(Value::wire_size).sum();
    net.record(owner, coord, bytes, 0);
}

fn agg_violates(g: &AggGroup, func: AggFunc, lo: Option<i64>, hi: Option<i64>) -> bool {
    if g.tids.is_empty() {
        return false;
    }
    let v = match func {
        AggFunc::Count => Some(g.tids.len() as i64),
        AggFunc::Sum => Some(g.sum),
        AggFunc::Min => g.vals.keys().next().copied(),
        AggFunc::Max => g.vals.keys().next_back().copied(),
    };
    // Min/max over a group with no integer values is undefined: treated
    // as satisfied (the brute-force oracle mirrors this).
    let Some(v) = v else { return false };
    lo.is_some_and(|l| v < l) || hi.is_some_and(|h| v > h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::Tuple;

    fn schema() -> Arc<Schema> {
        Schema::new("R", &["id", "city", "grade", "salary"], "id").unwrap()
    }

    fn row(tid: Tid, city: &str, grade: &str, salary: i64) -> Tuple {
        Tuple::new(
            tid,
            vec![
                Value::int(tid as i64),
                Value::str(city),
                Value::str(grade),
                Value::int(salary),
            ],
        )
    }

    fn base() -> (Arc<Schema>, Relation) {
        let s = schema();
        let mut d = Relation::new(s.clone());
        for t in [
            row(1, "EDI", "A", 50),
            row(2, "EDI", "B", 60),
            row(3, "NYC", "A", 70),
        ] {
            d.insert(t).unwrap();
        }
        (s, d)
    }

    fn cities(names: &[&str]) -> Relation {
        let s = Schema::new("CITIES", &["cid", "city"], "cid").unwrap();
        let mut r = Relation::new(s);
        for (i, n) in names.iter().enumerate() {
            r.insert(Tuple::new(
                i as Tid + 1,
                vec![Value::int(i as i64 + 1), Value::str(*n)],
            ))
            .unwrap();
        }
        r
    }

    fn vscheme(s: &Arc<Schema>) -> VerticalScheme {
        VerticalScheme::new(s.clone(), vec![vec![0, 1], vec![0, 2, 3]]).unwrap()
    }

    #[test]
    fn releasing_an_unheld_mark_fails_the_batch_not_the_process() {
        let (s, d0) = base();
        let mut session = Suite::on(s)
            .check(Check::row_count(["grade"], Some(2), None))
            .build(&d0)
            .unwrap();
        let before = session.finding_set().tids_of(0);
        let mut slip = DeltaV::default();
        slip.remove(0, 99);
        match session.commit(slip) {
            Err(DetectError::Internal(msg)) => assert!(msg.contains("tuple 99"), "{msg}"),
            other => panic!("expected an internal-inconsistency error, got {other:?}"),
        }
        assert_eq!(session.finding_set().tids_of(0), before);
    }

    #[test]
    fn key_check_finds_duplicates_the_fd_cannot_see() {
        let (s, d0) = base();
        let mut session = Suite::on(s.clone())
            .check(Check::key(["city", "grade"]))
            .strategy(Strategy::Vertical(vscheme(&s)))
            .build(&d0)
            .unwrap();
        assert!(session.finding_set().findings().is_empty());
        // (EDI, A) collides with tid 1 — distinct ids: the FD path.
        let mut b = UpdateBatch::new();
        b.insert(row(4, "EDI", "A", 10));
        let dv = session.apply(&b).unwrap();
        assert_eq!(dv.findings.added.len(), 1);
        assert_eq!(dv.findings.added[0].kind, ConstraintKind::Key);
        assert_eq!(dv.findings.added[0].tids, vec![1, 4]);
        // Deleting the collider cures it.
        let mut b = UpdateBatch::new();
        b.delete(4);
        let dv = session.apply(&b).unwrap();
        assert_eq!(dv.findings.removed[0].tids, vec![1, 4]);
        assert!(session.finding_set().findings().is_empty());
    }

    #[test]
    fn completeness_rides_the_constant_cfd_and_counts_agree() {
        let (s, d0) = base();
        let mut session = Suite::on(s.clone())
            .check(Check::complete("city"))
            .build(&d0) // default strategy: incHor by_hash
            .unwrap();
        assert_eq!(session.strategy(), "incHor");
        let mut b = UpdateBatch::new();
        b.insert(Tuple::new(
            9,
            vec![Value::int(9), Value::Null, Value::str("A"), Value::int(1)],
        ));
        let dv = session.apply(&b).unwrap();
        assert_eq!(dv.findings.added[0].kind, ConstraintKind::Completeness);
        assert_eq!(dv.findings.added[0].tids, vec![9]);
        // The O(1) relation metadata agrees with the maintained rule.
        let counts = session.completeness_counts();
        assert_eq!(counts.len(), 1);
        assert_eq!(counts[0].2, 1);
        assert_eq!(
            session.finding_set().tids_of(counts[0].0).len() as u64,
            counts[0].2
        );
    }

    #[test]
    fn inclusion_tracks_both_sides_and_meters_probes() {
        let (s, d0) = base();
        let mut session = Suite::on(s.clone())
            .check(Check::inclusion(["city"], "CITIES", ["city"]))
            .reference(cities(&["EDI", "NYC"]))
            .build(&d0)
            .unwrap();
        assert!(session.finding_set().findings().is_empty());
        // Insert a dangling reference.
        let mut b = UpdateBatch::new();
        b.insert(row(5, "LDN", "C", 5));
        let dv = session.apply(&b).unwrap();
        assert_eq!(dv.findings.added[0].kind, ConstraintKind::Inclusion);
        assert_eq!(dv.findings.added[0].tids, vec![5]);
        assert!(session.net().tier("ind").unwrap().total_bytes() > 0);
        // Teach the reference: the finding is cured through apply_to.
        let mut b = UpdateBatch::new();
        b.insert(Tuple::new(10, vec![Value::int(10), Value::str("LDN")]));
        let dv = session.apply_to("CITIES", &b).unwrap();
        assert_eq!(dv.findings.removed[0].tids, vec![5]);
        assert!(dv.cfd_delta.is_empty());
        // Retract every EDI reference row: both EDI tuples dangle.
        let mut b = UpdateBatch::new();
        b.delete(1);
        let dv = session.apply_to("CITIES", &b).unwrap();
        assert_eq!(dv.findings.added[0].tids, vec![1, 2]);
    }

    #[test]
    fn aggregates_flip_whole_groups() {
        let (s, d0) = base();
        let mut session = Suite::on(s.clone())
            .check(Check::row_count(["grade"], None, Some(2)))
            .check(Check::sum_range("salary", ["city"], Some(0), Some(200)))
            .build(&d0)
            .unwrap();
        assert!(session.finding_set().findings().is_empty());
        // Third A-grade row breaks the count bound for the whole group.
        let mut b = UpdateBatch::new();
        b.insert(row(6, "EDI", "A", 100));
        let dv = session.apply(&b).unwrap();
        let agg: Vec<_> = dv
            .findings
            .added
            .iter()
            .filter(|f| f.kind == ConstraintKind::Aggregate)
            .collect();
        assert_eq!(agg.len(), 2, "count bound and EDI salary sum both break");
        assert_eq!(agg[0].tids, vec![1, 3, 6]); // grade-A group
        assert_eq!(agg[1].tids, vec![1, 2, 6]); // EDI sum 210 > 200
                                                // Deleting the new row cures both groups.
        let mut b = UpdateBatch::new();
        b.delete(6);
        let dv = session.apply(&b).unwrap();
        assert_eq!(dv.findings.removed.len(), 2);
        assert!(session.finding_set().findings().is_empty());
    }

    #[test]
    fn checks_only_session_works_without_cfds() {
        let (s, d0) = base();
        let session = Suite::on(s.clone())
            .check(Check::row_count(["grade"], None, Some(100)))
            .build(&d0)
            .unwrap();
        assert!(session.finding_set().findings().is_empty());
        assert_eq!(session.rules().len(), 1);
    }

    #[test]
    fn build_detector_builds_the_bare_detector() {
        let (s, d0) = base();
        let cfds = vec![Cfd::from_names(0, &s, &[("city", None)], ("grade", None)).unwrap()];
        let det = Suite::on(s.clone())
            .cfds(cfds.clone())
            .strategy(Strategy::BatVer(vscheme(&s)))
            .build_detector(&d0)
            .unwrap();
        assert_eq!(det.strategy(), "batVer");
        // With checks present build_detector refuses politely.
        let err = Suite::on(s.clone())
            .cfds(cfds)
            .check(Check::complete("city"))
            .build_detector(&d0)
            .err()
            .expect("checks present: build_detector must refuse");
        assert!(matches!(err, DetectError::Analysis(_)));
    }
}
