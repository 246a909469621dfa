//! `incdetect` — the paper's contribution: incremental detection of CFD
//! violations in distributed data (Fan, Li, Tang, Yu — ICDE 2012 / TKDE
//! 2014).
//!
//! Given a database `D` fragmented vertically or horizontally over `n`
//! sites, a fixed rule set `Σ` of CFDs, the current violations `V(Σ, D)`
//! and a batch update `ΔD`, the detectors compute `ΔV` with communication
//! and computational costs in `O(|ΔD| + |ΔV|)` — independent of `|D|`
//! (Theorem 5 / Propositions 6 and 8).
//!
//! * [`vertical::VerticalDetector`] — HEV/IDX-based `incVer` (§4),
//! * [`optimize`] — the `optVer` heuristic minimizing eqid shipment (§5),
//! * [`horizontal::HorizontalDetector`] — `incHor` with the broadcast case
//!   analysis and MD5 digest shipping (§6),
//! * [`baselines`] — `batVer` / `batHor` (batch recomputation following
//!   Fan et al., ICDE 2010) and `ibatVer` / `ibatHor` (batch via the
//!   incremental machinery, Exp-10),
//! * [`plan`] — HEV plans and the static eqid-shipment count (Fig. 10),
//! * [`hev`], [`idx`] — the index structures themselves.
//!
//! All strategies implement the object-safe [`Detector`] trait and are
//! constructed through [`Suite`] — `Suite::on(schema).cfds(Σ)
//! .strategy(`[`Strategy`]`).build_detector(&d0)` — or, where a caller
//! needs the concrete type, through that detector's own constructor;
//! errors cross the public boundary as [`DetectError`]. Value-shipping
//! protocols (horizontal, hybrid, the batch coordinators) encode payloads
//! through the pluggable [`cluster::codec::PayloadCodec`] — pick it per
//! session with [`Suite::codec`].

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::unreachable)]

pub mod baselines;
pub mod concurrent;
pub mod detector;
mod group;
pub mod hev;
pub mod horizontal;
pub mod hybrid;
pub mod idx;
pub mod optimize;
pub mod plan;
pub mod pruned;
pub mod suite;
pub mod vertical;

pub use cfd::constraint::{Check, Constraint};
pub use concurrent::ConcurrentHorizontal;
pub use detector::{DetectError, Detector};
pub use group::StateCensus;
pub use horizontal::HorizontalDetector;
pub use hybrid::{HybridDetector, HybridScheme};
pub use plan::HevPlan;
pub use pruned::{AnalysisMode, Pruned};
pub use suite::{RuleInfo, Strategy, Suite, SuiteDelta, SuiteSession};
pub use vertical::VerticalDetector;
