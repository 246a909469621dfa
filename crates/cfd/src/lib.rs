//! Conditional functional dependencies (CFDs) and violation semantics (§2).
//!
//! A CFD `φ = (X → B, t_p)` pairs a functional dependency with a *pattern
//! tuple* over `X ∪ {B}` whose entries are either constants or the unnamed
//! variable `_`. Traditional FDs are the special case where the pattern is
//! all wildcards.
//!
//! This crate provides:
//!
//! * [`pattern`] — pattern values and the match operator `≍`,
//! * [`cfd`] — the [`Cfd`] type in normal form,
//! * [`constraint`] — the non-CFD constraint vocabulary (keys,
//!   completeness, inclusion dependencies, aggregates), keys and
//!   completeness compiled onto CFDs, plus the unified [`Finding`]
//!   reporting surface,
//! * [`share`] — operator-level sharing across a rule set: one
//!   dispatch scan and one group-key pass serving many CFDs,
//! * [`parse`] — a small text format (`[CC=44, zip] -> [street]`),
//! * [`analysis`] — static analysis of a catalog: satisfiability,
//!   implication, minimal cover, and the mark-preserving prune plan,
//! * [`violation`] — the violation containers `V(Σ, D)` and `ΔV`,
//! * [`naive`] — a centralized batch detector used as the ground-truth
//!   oracle in tests and as the reference for the "two SQL queries suffice"
//!   remark of §1 (§2.3's two queries, as SQL text and as an in-memory
//!   plan executor, are a second oracle in the root package's tests).

pub mod analysis;
pub mod cfd;
pub mod constraint;
pub mod naive;
pub mod parse;
pub mod pattern;
pub mod share;
pub mod violation;

pub use crate::analysis::{
    AnalysisConfig, CatalogAnalysis, CoverCertificate, Domain, Domains, Implication, PrunePlan, Sat,
};
pub use crate::cfd::{Cfd, CfdId};
pub use crate::constraint::{
    AggFunc, Check, Constraint, ConstraintError, ConstraintKind, DeltaFindings, Finding,
    FindingSet, RuleId,
};
pub use crate::parse::{parse_catalog, ParsedCatalog};
pub use crate::pattern::PatternValue;
pub use crate::share::{MatchScratch, OpId, SharedPlan};
pub use crate::violation::{DeltaV, Violations};

/// Source location of a catalog diagnostic: 1-based line and column plus
/// the byte length of the offending fragment. Attached to parse errors by
/// [`parse::parse_cfds`] / [`parse::parse_catalog`] so tools like
/// `cfdlint` can point at the exact input span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// 1-based source line.
    pub line: usize,
    /// 1-based byte column within the line.
    pub col: usize,
    /// Byte length of the offending fragment (at least 1).
    pub len: usize,
}

impl std::fmt::Display for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}, col {}", self.line, self.col)
    }
}

/// Errors produced when building or parsing CFDs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CfdError {
    /// LHS/RHS attribute missing from the schema.
    UnknownAttribute(String),
    /// Pattern arity does not match `X ∪ {B}`.
    PatternArity { expected: usize, got: usize },
    /// Text form could not be parsed.
    Parse(String),
    /// The RHS attribute also appears on the LHS.
    RhsInLhs(String),
    /// A CFD must have at least one LHS attribute.
    EmptyLhs,
    /// An error located at a source span of the catalog text.
    At {
        /// Where in the input the error sits.
        span: Span,
        /// The underlying diagnostic.
        inner: Box<CfdError>,
    },
}

impl CfdError {
    /// Attach a source span (idempotent: an already-located error keeps
    /// its innermost, most precise span).
    pub fn at(self, span: Span) -> CfdError {
        match self {
            CfdError::At { .. } => self,
            inner => CfdError::At {
                span,
                inner: Box::new(inner),
            },
        }
    }

    /// The source span, if this diagnostic carries one.
    pub fn span(&self) -> Option<Span> {
        match self {
            CfdError::At { span, .. } => Some(*span),
            _ => None,
        }
    }
}

impl std::fmt::Display for CfdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CfdError::UnknownAttribute(a) => write!(f, "unknown attribute `{a}`"),
            CfdError::PatternArity { expected, got } => {
                write!(f, "pattern arity {got}, expected {expected}")
            }
            CfdError::Parse(s) => write!(f, "parse error: {s}"),
            CfdError::RhsInLhs(a) => write!(f, "RHS attribute `{a}` also on LHS"),
            CfdError::EmptyLhs => write!(f, "CFD with empty LHS"),
            CfdError::At { span, inner } => write!(f, "{span}: {inner}"),
        }
    }
}

impl std::error::Error for CfdError {}
