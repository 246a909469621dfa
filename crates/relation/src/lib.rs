//! Relational substrate for the incremental distributed CFD violation
//! detector (Fan, Li, Tang, Yu — ICDE 2012 / TKDE 2014).
//!
//! This crate provides everything "below" the detection algorithms:
//!
//! * [`Value`] — the attribute value domain (integers and strings),
//! * [`Schema`] / [`Attribute`] — relation schemas with a designated key,
//! * [`Tuple`] / [`Relation`] — keyed tuple storage over the columnar
//!   arena of [`store`] ([`ColumnStore`]: per-attribute `Vec<Sym>` columns,
//!   free-list row reuse, dense `Tid ↔ RowId` map),
//! * [`Update`] / [`UpdateBatch`] — the update model `ΔD` (insertions and
//!   deletions, with same-tid cancellation, `ΔD⁺`, `ΔD⁻`, and `D ⊕ ΔD`),
//! * [`predicate`] — Boolean selection predicates used to define horizontal
//!   fragments, including the `F_i ∧ F_φ` satisfiability test of §6,
//! * [`FxHashMap`] / [`FxHashSet`] — maps and sets over a small Fx-style
//!   hasher, used for all hot hash maps,
//! * [`intern`] — the reference-counted value dictionary ([`ValuePool`])
//!   mapping values to fixed-size symbols,
//! * [`SmallVec`] — a tiny inline vector for short hot-path keys,
//! * [`TidSet`] — the compressed tid set the detectors keep `V(Σ, D)` and
//!   their class members in.
//!
//! The crate is deliberately free of any distribution or CFD logic so that it
//! can be reused by the partitioners, the detectors and the workload
//! generators alike.

pub mod csv;
mod fx;
pub mod intern;
pub mod predicate;
pub mod relation;
pub mod schema;
mod smallvec;
pub mod store;
mod tidset;
pub mod tuple;
pub mod update;
pub mod value;

pub use crate::relation::Relation;
pub use fx::{FxHashMap, FxHashSet};
pub use intern::{Sym, ValuePool};
pub use predicate::Predicate;
pub use schema::{AttrId, Attribute, Schema};
pub use smallvec::SmallVec;
pub use store::{ColumnStore, RowId, TidMap};
pub use tidset::TidSet;
pub use tuple::{Tid, Tuple};
pub use update::{Update, UpdateBatch};
pub use value::Value;

/// Errors produced by the relational substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelError {
    /// A tuple's arity does not match its schema.
    ArityMismatch { expected: usize, got: usize },
    /// An unknown attribute name was referenced.
    UnknownAttribute(String),
    /// A tuple id was inserted twice.
    DuplicateTid(Tid),
    /// A tuple id was deleted or referenced but does not exist.
    MissingTid(Tid),
}

impl std::fmt::Display for RelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RelError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "tuple arity {got} does not match schema arity {expected}"
                )
            }
            RelError::UnknownAttribute(name) => write!(f, "unknown attribute `{name}`"),
            RelError::DuplicateTid(t) => write!(f, "duplicate tuple id {t}"),
            RelError::MissingTid(t) => write!(f, "missing tuple id {t}"),
        }
    }
}

impl std::error::Error for RelError {}
