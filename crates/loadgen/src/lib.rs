//! Sustained-load streaming subsystem for the incremental CFD detectors.
//!
//! The paper's evaluation (§7) measures response time and traffic for
//! one batch at a time. This crate asks the operational question behind
//! it: *what does incremental detection cost under continuous load?* It
//! provides:
//!
//! * [`scenario`] — named, seeded load shapes ([`Scenario`],
//!   [`ScenarioCfg`], [`catalog`]): arrival waves ([`ArrivalShape`]),
//!   Zipf-skewed victim keys ([`KeyDist`]), operation mixes ([`OpMix`])
//!   and dirty-data schedules ([`DirtyRate`]) over the EMP / DBLP / TPCH
//!   workload generators;
//! * [`stream`] — deterministic sequentially-valid op streams
//!   ([`UpdateStream`], [`Tick`]): same seed, byte-identical stream;
//! * [`Histogram`] — a mergeable log-bucketed latency histogram with
//!   integer-only bucket math and ppm quantiles (p50/p90/p99/p999);
//! * [`driver`] — [`run_load`]: push a stream through any
//!   [`Detector`](incdetect::Detector) strategy, timing every update.

pub mod driver;
mod hist;
pub mod scenario;
pub mod stream;

pub use driver::{run_load, run_suite_load, LoadConfig, LoadReport, SuiteLoadReport};
pub use hist::Histogram;
pub use scenario::{
    catalog, ArrivalShape, Dataset, DirtyRate, KeyDist, OpMix, Scenario, ScenarioCfg, WorkloadKind,
};
pub use stream::{Tick, UpdateStream};
