//! Workload generators for the experiment harness.
//!
//! * [`emp`] — the paper's running example: the EMP relation of Fig. 2,
//!   the two CFDs of Fig. 1, and the vertical/horizontal partitions used
//!   throughout §1–§6.
//! * [`tpch`] — a deterministic synthetic stand-in for the paper's joined
//!   TPCH relation (one wide denormalized order table with hierarchical
//!   attributes and seeded errors). The README's "Reproducing §7"
//!   section gives the substitution rationale.
//! * [`dblp`] — a synthetic bibliographic relation standing in for the
//!   paper's 320 MB DBLP extract.
//! * [`rules`] — CFD generation following the paper's methodology:
//!   "we first designed FDs, and then produced CFDs by adding patterns".
//! * [`family`] — seeded synthetic CFD families with a controllable
//!   LHS-overlap dial, for sweeping `|Σ|` under operator sharing.
//! * [`updates`] — batch-update generation (the paper uses 80% insertions
//!   / 20% deletions by default; Exp-10 uses 60/40).

pub mod dblp;
pub mod emp;
pub mod family;
pub mod rules;
pub mod tpch;
pub mod updates;
