//! Non-CFD constraint classes compiled onto the CFD delta machinery.
//!
//! The paper's incremental pipeline — delta plans (§3), shared operators
//! (§5), distributed evaluation (§4/§6) — is more general than CFDs. This
//! module grows the rule vocabulary with the four classic data-quality
//! constraint classes and a unified violation surface:
//!
//! * **Keys** (`Check::key`): uniqueness of an attribute list `X`. A key
//!   compiles to the all-wildcard FD `X → id` (the schema's tuple-id
//!   attribute), which rides every detector strategy verbatim; the one
//!   case the FD cannot see — two tuples identical on `X ∪ {id}` — is
//!   covered by a constant-time duplicate-bucket residual in the suite
//!   layer (`incdetect::suite`).
//! * **Completeness / not-null** (`Check::complete`): attribute `A` must
//!   be non-null. Compiles to the constant CFD `([A = ⊥] → [probe = ⊥])`
//!   over a probe attribute `≠ A`; the residual (tuples null on *both*)
//!   is again a per-tuple constant-time check in the suite.
//! * **Inclusion dependencies** (`Check::inclusion`):
//!   `R[X] ⊆ S[Y]` across relations. Evaluated by the suite as a
//!   count-indexed containment delta (`O(|ΔD| + |Δfindings|)`), with the
//!   referenced relation hash-partitioned over sites and each probe
//!   metered as cross-site traffic.
//! * **Simple aggregates** (`Check::row_count` / `Check::sum_range` /
//!   `Check::min_at_least`): per-group row-count /
//!   sum / min / max bounds, maintained by delete-safe per-group
//!   multiset state.
//!
//! Findings are reported uniformly: a [`RuleId`] names a rule of the
//! combined catalog (CFDs and checks alike), and a [`Finding`] pairs it
//! with the violating tuples. [`Violations`]/[`DeltaV`] convert into the
//! unified shapes ([`FindingSet::from`]/[`DeltaFindings::from`]), so the
//! CFD-only surface remains a thin view of the same stream.

use crate::cfd::{Cfd, CfdId};
use crate::violation::{DeltaV, Violations};
use crate::CfdError;
use relation::{AttrId, FxHashMap, Schema, Tid, Value};

/// Identifies one rule of a combined catalog (CFDs + checks). CFD rules
/// keep their [`CfdId`] as their `RuleId`; checks are numbered after
/// them, in declaration order.
pub type RuleId = u32;

/// The constraint class of a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ConstraintKind {
    /// A conditional functional dependency (§2).
    Cfd,
    /// Uniqueness of an attribute list.
    Key,
    /// Not-null / completeness of one attribute.
    Completeness,
    /// Cross-relation inclusion dependency `R[X] ⊆ S[Y]`.
    Inclusion,
    /// Per-group row-count / sum / min / max bound.
    Aggregate,
}

impl ConstraintKind {
    /// Stable lower-case label (report keys, diagnostics).
    pub fn label(self) -> &'static str {
        match self {
            ConstraintKind::Cfd => "cfd",
            ConstraintKind::Key => "key",
            ConstraintKind::Completeness => "completeness",
            ConstraintKind::Inclusion => "inclusion",
            ConstraintKind::Aggregate => "aggregate",
        }
    }
}

impl std::fmt::Display for ConstraintKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The aggregate function of a [`Check::Aggregate`](Check) bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Rows per group.
    Count,
    /// Sum of an integer attribute per group.
    Sum,
    /// Minimum of an integer attribute per group.
    Min,
    /// Maximum of an integer attribute per group.
    Max,
}

impl AggFunc {
    /// Stable lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }
}

/// One declared (name-level, unresolved) check of a validation suite.
///
/// Built through the constructors below and resolved against a
/// [`Schema`] by [`Constraint::resolve`] (the suite does this for you).
#[derive(Debug, Clone, PartialEq)]
pub enum Check {
    /// `attrs` is a key: no two tuples agree on all of them.
    Key {
        /// The key attribute names.
        attrs: Vec<String>,
    },
    /// `attr` must be non-null in every tuple.
    Complete {
        /// The constrained attribute name.
        attr: String,
    },
    /// `R[attrs] ⊆ ref_relation[ref_attrs]`.
    Inclusion {
        /// Projection attributes of the checked (primary) relation.
        attrs: Vec<String>,
        /// Name of the referenced relation (registered with
        /// `Suite::reference`).
        ref_relation: String,
        /// Projection attributes of the referenced relation.
        ref_attrs: Vec<String>,
    },
    /// Per-group aggregate bound: `lo ≤ func(group) ≤ hi` for every
    /// group of `group_by` values (unset bounds are unchecked).
    Aggregate {
        /// The aggregate function.
        func: AggFunc,
        /// The aggregated attribute (`None` for [`AggFunc::Count`]).
        attr: Option<String>,
        /// Grouping attributes (empty = one global group).
        group_by: Vec<String>,
        /// Inclusive lower bound.
        lo: Option<i64>,
        /// Inclusive upper bound.
        hi: Option<i64>,
    },
}

impl Check {
    /// Uniqueness of `attrs`.
    pub fn key<I, S>(attrs: I) -> Check
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Check::Key {
            attrs: attrs.into_iter().map(Into::into).collect(),
        }
    }

    /// `attr` must be non-null.
    pub fn complete(attr: impl Into<String>) -> Check {
        Check::Complete { attr: attr.into() }
    }

    /// `R[attrs] ⊆ ref_relation[ref_attrs]`.
    pub fn inclusion<I, S, J, T>(attrs: I, ref_relation: impl Into<String>, ref_attrs: J) -> Check
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
        J: IntoIterator<Item = T>,
        T: Into<String>,
    {
        Check::Inclusion {
            attrs: attrs.into_iter().map(Into::into).collect(),
            ref_relation: ref_relation.into(),
            ref_attrs: ref_attrs.into_iter().map(Into::into).collect(),
        }
    }

    /// Per-group row count within `[lo, hi]`.
    pub fn row_count<I, S>(group_by: I, lo: Option<i64>, hi: Option<i64>) -> Check
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Check::Aggregate {
            func: AggFunc::Count,
            attr: None,
            group_by: group_by.into_iter().map(Into::into).collect(),
            lo,
            hi,
        }
    }

    /// Per-group sum of `attr` within `[lo, hi]`.
    pub fn sum_range<I, S>(
        attr: impl Into<String>,
        group_by: I,
        lo: Option<i64>,
        hi: Option<i64>,
    ) -> Check
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Check::Aggregate {
            func: AggFunc::Sum,
            attr: Some(attr.into()),
            group_by: group_by.into_iter().map(Into::into).collect(),
            lo,
            hi,
        }
    }

    /// Per-group minimum of `attr` at least `lo`.
    pub fn min_at_least<I, S>(attr: impl Into<String>, group_by: I, lo: i64) -> Check
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Check::Aggregate {
            func: AggFunc::Min,
            attr: Some(attr.into()),
            group_by: group_by.into_iter().map(Into::into).collect(),
            lo: Some(lo),
            hi: None,
        }
    }

    /// The constraint class this check belongs to.
    pub fn kind(&self) -> ConstraintKind {
        match self {
            Check::Key { .. } => ConstraintKind::Key,
            Check::Complete { .. } => ConstraintKind::Completeness,
            Check::Inclusion { .. } => ConstraintKind::Inclusion,
            Check::Aggregate { .. } => ConstraintKind::Aggregate,
        }
    }

    /// Short human label, e.g. `key(zip, phn)` — used as the rule label
    /// in reports.
    pub fn label(&self) -> String {
        match self {
            Check::Key { attrs } => format!("key({})", attrs.join(", ")),
            Check::Complete { attr } => format!("complete({attr})"),
            Check::Inclusion {
                attrs,
                ref_relation,
                ref_attrs,
            } => format!(
                "[{}] ⊆ {}[{}]",
                attrs.join(", "),
                ref_relation,
                ref_attrs.join(", ")
            ),
            Check::Aggregate {
                func,
                attr,
                group_by,
                lo,
                hi,
            } => {
                let arg = attr.as_deref().unwrap_or("*");
                let by = if group_by.is_empty() {
                    String::new()
                } else {
                    format!(" by {}", group_by.join(", "))
                };
                let lo = lo.map_or(String::new(), |v| format!("{v} ≤ "));
                let hi = hi.map_or(String::new(), |v| format!(" ≤ {v}"));
                format!("{lo}{}({arg}){hi}{by}", func.label())
            }
        }
    }
}

/// Errors resolving a [`Check`] against a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConstraintError {
    /// An attribute name missing from the (primary or referenced)
    /// schema.
    UnknownAttribute(String),
    /// An inclusion dependency references a relation the suite was not
    /// given.
    UnknownRelation(String),
    /// Inclusion projection lists differ in length.
    ArityMismatch {
        /// `|X|` on the checked side.
        lhs: usize,
        /// `|Y|` on the referenced side.
        rhs: usize,
    },
    /// A check needs at least one attribute.
    EmptyAttrs,
    /// A key check may not include the schema's tuple-id attribute
    /// (unique by construction — the check would be vacuous, and it has
    /// no CFD compilation).
    KeyCoversTupleId(String),
    /// The schema has a single attribute, so no probe attribute exists
    /// for the completeness compilation.
    NoProbeAttribute(String),
    /// A sum/min/max aggregate needs an aggregated attribute.
    MissingAggAttr,
    /// An aggregate bound with neither `lo` nor `hi` checks nothing.
    NoBounds,
    /// The compiled CFD was rejected (should not happen for resolved
    /// attribute ids; surfaced for completeness).
    Cfd(CfdError),
}

impl std::fmt::Display for ConstraintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConstraintError::UnknownAttribute(a) => write!(f, "unknown attribute `{a}`"),
            ConstraintError::UnknownRelation(r) => {
                write!(
                    f,
                    "unknown reference relation `{r}` (register it with `reference`)"
                )
            }
            ConstraintError::ArityMismatch { lhs, rhs } => {
                write!(f, "inclusion projection arity mismatch: {lhs} vs {rhs}")
            }
            ConstraintError::EmptyAttrs => write!(f, "check with empty attribute list"),
            ConstraintError::KeyCoversTupleId(a) => {
                write!(
                    f,
                    "key check includes the tuple-id attribute `{a}`, unique by construction"
                )
            }
            ConstraintError::NoProbeAttribute(a) => {
                write!(
                    f,
                    "no probe attribute besides `{a}` for the completeness compilation"
                )
            }
            ConstraintError::MissingAggAttr => {
                write!(f, "sum/min/max aggregate without an aggregated attribute")
            }
            ConstraintError::NoBounds => write!(f, "aggregate bound with neither lo nor hi"),
            ConstraintError::Cfd(e) => write!(f, "compiled CFD rejected: {e}"),
        }
    }
}

impl std::error::Error for ConstraintError {}

impl From<CfdError> for ConstraintError {
    fn from(e: CfdError) -> Self {
        ConstraintError::Cfd(e)
    }
}

/// A [`Check`] resolved against its schema: attribute ids in place of
/// names, plus the compiled [`Cfd`] for the classes that ride the CFD
/// machinery directly.
#[derive(Debug, Clone)]
pub enum Constraint {
    /// Key over `attrs`, compiled to the FD `attrs → id`.
    Key {
        /// The key attribute ids.
        attrs: Vec<AttrId>,
        /// The compiled all-wildcard FD (`attrs → tuple-id attribute`).
        compiled: Cfd,
    },
    /// Not-null on `attr`, compiled to `([attr = ⊥] → [probe = ⊥])`.
    Complete {
        /// The constrained attribute.
        attr: AttrId,
        /// The probe attribute of the compiled constant CFD.
        probe: AttrId,
        /// The compiled constant CFD.
        compiled: Cfd,
    },
    /// `R[attrs] ⊆ ref_relation[ref_attrs]`.
    Inclusion {
        /// Primary-side projection.
        attrs: Vec<AttrId>,
        /// Referenced relation name.
        ref_relation: String,
        /// Referenced-side projection.
        ref_attrs: Vec<AttrId>,
    },
    /// Per-group aggregate bound.
    Aggregate {
        /// The aggregate function.
        func: AggFunc,
        /// Aggregated attribute (`None` for count).
        attr: Option<AttrId>,
        /// Grouping attributes.
        group_by: Vec<AttrId>,
        /// Inclusive lower bound.
        lo: Option<i64>,
        /// Inclusive upper bound.
        hi: Option<i64>,
    },
}

fn resolve_attr(schema: &Schema, name: &str) -> Result<AttrId, ConstraintError> {
    schema
        .attr_id(name)
        .map_err(|_| ConstraintError::UnknownAttribute(name.to_string()))
}

impl Constraint {
    /// Resolve `check` against `schema`, compiling the CFD-backed
    /// classes under CFD id `cfd_id` (callers append compiled CFDs to
    /// the catalog; classes without a compilation ignore the id). For
    /// inclusion dependencies, `ref_schema` must be the schema of the
    /// referenced relation.
    pub fn resolve(
        check: &Check,
        schema: &Schema,
        ref_schema: Option<&Schema>,
        cfd_id: CfdId,
    ) -> Result<Constraint, ConstraintError> {
        match check {
            Check::Key { attrs } => {
                if attrs.is_empty() {
                    return Err(ConstraintError::EmptyAttrs);
                }
                let ids = attrs
                    .iter()
                    .map(|a| resolve_attr(schema, a))
                    .collect::<Result<Vec<_>, _>>()?;
                let key = schema.key();
                if ids.contains(&key) {
                    return Err(ConstraintError::KeyCoversTupleId(
                        schema.attr_name(key).to_string(),
                    ));
                }
                let compiled = Cfd::new(
                    cfd_id,
                    schema,
                    ids.clone(),
                    key,
                    vec![crate::pattern::PatternValue::Wildcard; ids.len()],
                    crate::pattern::PatternValue::Wildcard,
                )?;
                Ok(Constraint::Key {
                    attrs: ids,
                    compiled,
                })
            }
            Check::Complete { attr } => {
                let a = resolve_attr(schema, attr)?;
                // Any attribute other than `a` works as the probe; the
                // schema key is the canonical choice (never null in
                // practice, so the residual set stays tiny).
                let probe = if schema.key() != a {
                    schema.key()
                } else {
                    (0..schema.arity() as AttrId)
                        .find(|&b| b != a)
                        .ok_or_else(|| {
                            ConstraintError::NoProbeAttribute(schema.attr_name(a).to_string())
                        })?
                };
                let compiled = Cfd::new(
                    cfd_id,
                    schema,
                    vec![a],
                    probe,
                    vec![crate::pattern::PatternValue::Const(Value::Null)],
                    crate::pattern::PatternValue::Const(Value::Null),
                )?;
                Ok(Constraint::Complete {
                    attr: a,
                    probe,
                    compiled,
                })
            }
            Check::Inclusion {
                attrs,
                ref_relation,
                ref_attrs,
            } => {
                if attrs.is_empty() || ref_attrs.is_empty() {
                    return Err(ConstraintError::EmptyAttrs);
                }
                if attrs.len() != ref_attrs.len() {
                    return Err(ConstraintError::ArityMismatch {
                        lhs: attrs.len(),
                        rhs: ref_attrs.len(),
                    });
                }
                let rs = ref_schema
                    .ok_or_else(|| ConstraintError::UnknownRelation(ref_relation.clone()))?;
                let ids = attrs
                    .iter()
                    .map(|a| resolve_attr(schema, a))
                    .collect::<Result<Vec<_>, _>>()?;
                let ref_ids = ref_attrs
                    .iter()
                    .map(|a| resolve_attr(rs, a))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Constraint::Inclusion {
                    attrs: ids,
                    ref_relation: ref_relation.clone(),
                    ref_attrs: ref_ids,
                })
            }
            Check::Aggregate {
                func,
                attr,
                group_by,
                lo,
                hi,
            } => {
                if lo.is_none() && hi.is_none() {
                    return Err(ConstraintError::NoBounds);
                }
                let attr = match (func, attr) {
                    (AggFunc::Count, _) => None,
                    (_, Some(a)) => Some(resolve_attr(schema, a)?),
                    (_, None) => return Err(ConstraintError::MissingAggAttr),
                };
                let group_by = group_by
                    .iter()
                    .map(|a| resolve_attr(schema, a))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Constraint::Aggregate {
                    func: *func,
                    attr,
                    group_by,
                    lo: *lo,
                    hi: *hi,
                })
            }
        }
    }

    /// The compiled CFD, for the classes that ride the CFD machinery
    /// directly (keys and completeness).
    pub fn compiled_cfd(&self) -> Option<&Cfd> {
        match self {
            Constraint::Key { compiled, .. } | Constraint::Complete { compiled, .. } => {
                Some(compiled)
            }
            _ => None,
        }
    }
}

/// One reported violation: rule, constraint class and the violating
/// tuples (sorted). Snapshot views carry all of a rule's violating tids;
/// delta views carry the tids that changed in the batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated rule.
    pub rule: RuleId,
    /// Its constraint class.
    pub kind: ConstraintKind,
    /// The violating tuple ids, sorted ascending.
    pub tids: Vec<Tid>,
}

/// The maintained finding set of a combined catalog — the generalization
/// of [`Violations`] to mixed constraint kinds.
///
/// A rule may be certified by more than one evaluation source (a key's
/// compiled FD *and* its duplicate-bucket residual); marks are therefore
/// counted per `(rule, tid)`, and a finding exists while any source
/// holds it.
#[derive(Debug, Clone, Default)]
pub struct FindingSet {
    kinds: Vec<ConstraintKind>,
    counts: Vec<FxHashMap<Tid, u32>>,
}

impl FindingSet {
    /// Empty set over a catalog with the given per-rule kinds.
    pub fn new(kinds: Vec<ConstraintKind>) -> Self {
        let counts = vec![FxHashMap::default(); kinds.len()];
        FindingSet { kinds, counts }
    }

    /// Number of rules tracked.
    pub(crate) fn n_rules(&self) -> usize {
        self.kinds.len()
    }

    /// The constraint class of `rule`.
    pub fn kind(&self, rule: RuleId) -> ConstraintKind {
        self.kinds[rule as usize]
    }

    /// Add one source's mark on `(rule, tid)`. Returns `true` when this
    /// creates the finding (no source held it before).
    pub fn add_mark(&mut self, rule: RuleId, tid: Tid) -> bool {
        let c = self.counts[rule as usize].entry(tid).or_insert(0);
        *c += 1;
        *c == 1
    }

    /// Remove one source's mark on `(rule, tid)`. Returns `Some(true)`
    /// when this retires the finding (the last source released it),
    /// `None` when no source holds a mark there — the caller's
    /// bookkeeping slipped, and the set is left untouched.
    pub fn remove_mark(&mut self, rule: RuleId, tid: Tid) -> Option<bool> {
        let c = self.counts[rule as usize].get_mut(&tid)?;
        if *c > 1 {
            *c -= 1;
            Some(false)
        } else {
            self.counts[rule as usize].remove(&tid);
            Some(true)
        }
    }

    /// Violating tids of one rule, sorted.
    pub fn tids_of(&self, rule: RuleId) -> Vec<Tid> {
        let mut v: Vec<Tid> = self.counts[rule as usize].keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Total number of `(rule, tid)` findings.
    pub fn len(&self) -> usize {
        self.counts.iter().map(FxHashMap::len).sum()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(FxHashMap::is_empty)
    }

    /// Snapshot view: one [`Finding`] per rule with current violations,
    /// ordered by rule id.
    pub fn findings(&self) -> Vec<Finding> {
        (0..self.n_rules() as RuleId)
            .filter_map(|r| {
                let tids = self.tids_of(r);
                (!tids.is_empty()).then(|| Finding {
                    rule: r,
                    kind: self.kind(r),
                    tids,
                })
            })
            .collect()
    }

    /// All `(rule, tid)` findings, sorted — the deterministic view
    /// differential tests compare (mirrors [`Violations::marks_sorted`]).
    pub fn marks_sorted(&self) -> Vec<(RuleId, Tid)> {
        let mut v: Vec<(RuleId, Tid)> = self
            .counts
            .iter()
            .enumerate()
            .flat_map(|(r, m)| m.keys().map(move |&t| (r as RuleId, t)))
            .collect();
        v.sort_unstable();
        v
    }
}

/// The CFD-only violation set viewed through the unified surface: every
/// CFD becomes a rule of kind [`ConstraintKind::Cfd`] with a single
/// evaluation source.
impl From<&Violations> for FindingSet {
    fn from(v: &Violations) -> Self {
        let mut fs = FindingSet::new(vec![ConstraintKind::Cfd; v.n_cfds()]);
        for (c, t) in v.marks_sorted() {
            fs.add_mark(c, t);
        }
        fs
    }
}

/// The change to a finding set over one batch: added and removed
/// findings, grouped per rule and sorted (the unified counterpart of
/// [`DeltaV`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaFindings {
    /// Rules × tids that became findings.
    pub added: Vec<Finding>,
    /// Rules × tids that stopped being findings.
    pub removed: Vec<Finding>,
}

impl DeltaFindings {
    /// Group settled rule-level marks (a [`DeltaV`] whose "CFD" ids are
    /// [`RuleId`]s) into per-rule findings. Rules beyond `kinds` default
    /// to [`ConstraintKind::Cfd`].
    pub fn from_rule_marks(marks: &DeltaV, kinds: &[ConstraintKind]) -> Self {
        fn group(side: &[(RuleId, Tid)], kinds: &[ConstraintKind]) -> Vec<Finding> {
            let mut out: Vec<Finding> = Vec::new();
            for &(r, t) in side {
                match out.last_mut() {
                    Some(f) if f.rule == r => f.tids.push(t),
                    _ => out.push(Finding {
                        rule: r,
                        kind: kinds
                            .get(r as usize)
                            .copied()
                            .unwrap_or(ConstraintKind::Cfd),
                        tids: vec![t],
                    }),
                }
            }
            for f in &mut out {
                f.tids.sort_unstable();
                f.tids.dedup();
            }
            out
        }
        // `DeltaV` settles sorted, so same-rule marks are adjacent.
        DeltaFindings {
            added: group(&marks.added, kinds),
            removed: group(&marks.removed, kinds),
        }
    }
}

/// A CFD-only `ΔV` viewed through the unified surface (kind `Cfd`
/// throughout). The delta is settled first, so the grouping is
/// canonical.
impl From<&DeltaV> for DeltaFindings {
    fn from(dv: &DeltaV) -> Self {
        let settled = dv.clone().sorted();
        DeltaFindings::from_rule_marks(&settled, &[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::Schema;
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::new("R", &["id", "a", "b", "c"], "id").unwrap()
    }

    #[test]
    fn key_compiles_to_wildcard_fd_on_tuple_id() {
        let s = schema();
        let c = Constraint::resolve(&Check::key(["a", "b"]), &s, None, 7).unwrap();
        let cfd = c.compiled_cfd().expect("key compiles");
        assert!(cfd.is_fd());
        assert_eq!(cfd.id, 7);
        assert_eq!(cfd.rhs, s.key());
        assert!(matches!(c, Constraint::Key { .. }));
        assert_eq!(cfd.lhs, vec![1, 2]);
    }

    #[test]
    fn key_over_tuple_id_is_rejected() {
        let s = schema();
        let e = Constraint::resolve(&Check::key(["id", "a"]), &s, None, 0).unwrap_err();
        assert!(matches!(e, ConstraintError::KeyCoversTupleId(_)));
    }

    #[test]
    fn completeness_compiles_to_constant_cfd() {
        let s = schema();
        let c = Constraint::resolve(&Check::complete("b"), &s, None, 3).unwrap();
        let cfd = c.compiled_cfd().expect("complete compiles");
        assert!(cfd.is_constant());
        assert_eq!(cfd.lhs, vec![2]);
        assert_eq!(cfd.rhs, s.key());
        // Probing the key attribute itself falls back to another attr.
        let c = Constraint::resolve(&Check::complete("id"), &s, None, 3).unwrap();
        let Constraint::Complete { attr, probe, .. } = c else {
            panic!("expected completeness")
        };
        assert_eq!(attr, s.key());
        assert_ne!(probe, attr);
    }

    #[test]
    fn inclusion_and_aggregate_resolve_their_group_attrs() {
        let s = schema();
        let r = Schema::new("S", &["k", "x"], "k").unwrap();
        let c = Constraint::resolve(&Check::inclusion(["a"], "S", ["x"]), &s, Some(&r), 0).unwrap();
        assert!(matches!(c, Constraint::Inclusion { ref attrs, .. } if attrs == &[1]));

        let c = Constraint::resolve(
            &Check::sum_range("c", ["a"], Some(0), Some(100)),
            &s,
            None,
            0,
        )
        .unwrap();
        assert!(matches!(c, Constraint::Aggregate { ref group_by, .. } if group_by == &[1]));
        // Global aggregate: no group attributes.
        let c = Constraint::resolve(
            &Check::row_count(Vec::<String>::new(), None, Some(10)),
            &s,
            None,
            0,
        )
        .unwrap();
        assert!(matches!(c, Constraint::Aggregate { ref group_by, .. } if group_by.is_empty()));
    }

    #[test]
    fn resolve_rejects_malformed_checks() {
        let s = schema();
        assert!(matches!(
            Constraint::resolve(&Check::key(Vec::<String>::new()), &s, None, 0),
            Err(ConstraintError::EmptyAttrs)
        ));
        assert!(matches!(
            Constraint::resolve(&Check::complete("nope"), &s, None, 0),
            Err(ConstraintError::UnknownAttribute(_))
        ));
        assert!(matches!(
            Constraint::resolve(&Check::inclusion(["a", "b"], "S", ["x"]), &s, None, 0),
            Err(ConstraintError::ArityMismatch { lhs: 2, rhs: 1 })
        ));
        assert!(matches!(
            Constraint::resolve(&Check::inclusion(["a"], "S", ["x"]), &s, None, 0),
            Err(ConstraintError::UnknownRelation(_))
        ));
        assert!(matches!(
            Constraint::resolve(&Check::row_count(["a"], None, None), &s, None, 0),
            Err(ConstraintError::NoBounds)
        ));
        assert!(matches!(
            Constraint::resolve(
                &Check::Aggregate {
                    func: AggFunc::Sum,
                    attr: None,
                    group_by: vec![],
                    lo: Some(0),
                    hi: None
                },
                &s,
                None,
                0
            ),
            Err(ConstraintError::MissingAggAttr)
        ));
    }

    #[test]
    fn finding_set_counts_sources_per_mark() {
        let mut fs = FindingSet::new(vec![ConstraintKind::Key, ConstraintKind::Inclusion]);
        assert!(fs.add_mark(0, 5)); // FD source
        assert!(!fs.add_mark(0, 5)); // residual source — same finding
        assert_eq!(fs.remove_mark(0, 5), Some(false)); // one source left
        assert_eq!(fs.tids_of(0), vec![5]);
        assert_eq!(fs.remove_mark(0, 5), Some(true)); // last source retires it
        assert!(fs.tids_of(0).is_empty());
        assert_eq!(fs.remove_mark(0, 5), None); // nothing left to release
        assert!(fs.is_empty());

        fs.add_mark(1, 2);
        fs.add_mark(1, 1);
        fs.add_mark(0, 9);
        assert_eq!(fs.marks_sorted(), vec![(0, 9), (1, 1), (1, 2)]);
        let snap = fs.findings();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].kind, ConstraintKind::Key);
        assert_eq!(snap[1].tids, vec![1, 2]);
    }

    #[test]
    fn violations_and_delta_v_convert_into_unified_shapes() {
        let mut v = Violations::new(2);
        v.add(0, 3);
        v.add(1, 3);
        v.add(1, 8);
        let fs = FindingSet::from(&v);
        assert_eq!(fs.n_rules(), 2);
        assert_eq!(fs.marks_sorted(), vec![(0, 3), (1, 3), (1, 8)]);
        assert!(fs.findings().iter().all(|f| f.kind == ConstraintKind::Cfd));

        let mut dv = DeltaV::default();
        dv.add(1, 4);
        dv.add(0, 2);
        dv.add(1, 2);
        dv.remove(0, 9);
        let df = DeltaFindings::from(&dv);
        assert_eq!(df.added.len(), 2);
        assert_eq!(df.added[1].rule, 1);
        assert_eq!(df.added[1].tids, vec![2, 4]);
        assert_eq!(df.removed[0].tids, vec![9]);
        assert_eq!(df.added[0].tids, vec![2]);
    }
}
