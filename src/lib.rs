//! `inc-cfd` — facade crate for the reproduction of
//! *Incremental Detection of Inconsistencies in Distributed Data*
//! (Fan, Li, Tang, Yu — ICDE 2012 / TKDE 2014).
//!
//! This crate re-exports the workspace members under one roof so examples,
//! integration tests and downstream users can depend on a single crate:
//!
//! * [`relation`] — values, schemas, tuples, relations, updates, predicates;
//! * [`cfd`] — conditional functional dependencies, violation semantics and
//!   the centralized ground-truth detector;
//! * [`cluster`] — the metered in-process distributed substrate (sites,
//!   transport, partitioners, network statistics);
//! * [`incdetect`] — the paper's contribution: HEV/IDX indices, the optimal
//!   incremental detectors for vertical (§4) and horizontal (§6) partitions,
//!   the HEV-plan optimizer (§5), and the batch baselines — all behind the
//!   unified [`Detector`](incdetect::Detector) trait — plus the
//!   validation-suite API ([`Suite`](incdetect::Suite)) that runs keys,
//!   completeness, inclusion dependencies and aggregates alongside CFDs in
//!   one incremental session;
//! * [`workload`] — TPCH-like / DBLP-like / EMP generators, CFD rule
//!   generators and update generators used by the experiment harness.
//!
//! # Quickstart
//!
//! Detectors are constructed through [`Suite`](incdetect::Suite) and all
//! implement the [`Detector`](incdetect::Detector) trait —
//! `violations()`, `apply(ΔD) → ΔV`, and `net()` for traffic accounting —
//! regardless of the partition [`Strategy`](incdetect::Strategy).
//!
//! ```
//! use inc_cfd::prelude::*;
//!
//! // The paper's running example: the EMP relation of Fig. 2 and the two
//! // CFDs of Fig. 1.
//! let (schema, d0) = workload::emp::emp_relation();
//! let sigma = workload::emp::emp_cfds(&schema);
//!
//! // Partition horizontally by salary grade across 3 sites and build the
//! // incremental detector.
//! let scheme = workload::emp::emp_horizontal_scheme(&schema);
//! let mut det = Suite::on(schema.clone())
//!     .cfds(sigma.clone())
//!     .strategy(Strategy::Horizontal(scheme))
//!     .build_detector(&d0)
//!     .unwrap();
//!
//! // Initial violations: t1, t3, t4, t5 (φ1) and t1 (φ2).
//! let v = det.violations().tids_sorted();
//! assert_eq!(v, vec![1, 3, 4, 5]);
//!
//! // Insert t6 (Fig. 2): only t6 becomes a new violation, and the §6
//! // case analysis ships zero bytes to find that out.
//! let mut delta = UpdateBatch::new();
//! delta.insert(workload::emp::t6());
//! let dv = det.apply(&delta).unwrap();
//! assert_eq!(dv.added_tids_sorted(), vec![6]);
//! assert!(dv.removed_tids_sorted().is_empty());
//! assert_eq!(det.net().total_bytes(), 0);
//!
//! // The same session works for any strategy:
//! let vscheme = workload::emp::emp_vertical_scheme(&schema);
//! for strategy in [Strategy::Vertical(vscheme.clone()), Strategy::BatVer(vscheme)] {
//!     let suite = Suite::on(schema.clone()).cfds(sigma.clone());
//!     let mut det = suite.strategy(strategy).build_detector(&d0).unwrap();
//!     let dv = det.apply(&delta).unwrap();
//!     assert_eq!(dv.added_tids_sorted(), vec![6], "{}", det.strategy());
//! }
//! ```

pub use cfd;
pub use cluster;
pub use incdetect;
pub use loadgen;
pub use relation;
pub use workload;

/// Convenient glob-import surface for examples and tests.
pub mod prelude {
    pub use cfd::{
        AggFunc, Cfd, Check, ConstraintKind, DeltaFindings, DeltaV, Finding, FindingSet, RuleId,
        Violations,
    };
    pub use cluster::partition::{HorizontalScheme, VerticalScheme};
    pub use cluster::{
        codec::{CodecKind, PayloadCodec, ReceiverCodec},
        net::{ByteNetwork, FrameCodec, TransportKind},
        CostModel, NetReport, NetStats, SiteId, TransportMeter,
    };
    pub use incdetect::{
        AnalysisMode, DetectError, Detector, HorizontalDetector, HybridDetector, HybridScheme,
        RuleInfo, Strategy, Suite, SuiteDelta, SuiteSession, VerticalDetector,
    };
    pub use loadgen::{
        catalog, run_load, run_suite_load, ArrivalShape, DirtyRate, Histogram, KeyDist, LoadConfig,
        LoadReport, OpMix, Scenario, ScenarioCfg, SuiteLoadReport, UpdateStream, WorkloadKind,
    };
    pub use relation::{
        Predicate, Relation, Schema, Sym, Tid, Tuple, Update, UpdateBatch, Value, ValuePool,
    };
    pub use {cfd, cluster, incdetect, loadgen, relation, workload};
}
