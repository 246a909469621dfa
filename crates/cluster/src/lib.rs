//! Metered in-process distributed substrate.
//!
//! The paper evaluates on an Amazon EC2 cluster with one fragment per
//! instance. This crate is the substitution the README's "Reproducing §7"
//! section describes: sites are in-process fragment holders and *every*
//! cross-site payload flows through a substrate that meters messages,
//! bytes and eqid shipments per `(src, dst)` pair into one [`Meters`]
//! block. A configurable [`CostModel`] converts the meter into a
//! *simulated network time*, so experiments can report both wall-clock time
//! and the communication-dominated elapsed time the paper measures.
//!
//! Modules:
//!
//! * [`netstats`] — counters, the [`Meters`] block every substrate and
//!   detector accumulates into, and the cost model,
//! * [`transport`] — the generic, synchronous, metered message network,
//!   and the [`MsgTransport`] abstraction real byte backends plug into,
//! * [`net`] — the **real byte-level transport**: length-prefixed framing
//!   ([`net::frame`]), a `TcpListener`/`TcpStream` localhost mesh, and
//!   [`net::ByteNetwork`], which serializes typed messages to frames and
//!   meters modeled `|M|` and measured on-wire bytes side by side,
//! * [`run`] — the per-node frame runtime under every byte transport:
//!   one [`run::Node`] per site over in-process channels or TCP, driven
//!   by one thread per site, one process per site, or (as
//!   [`net::ByteNetwork`]) all from one thread,
//! * [`codec`] — the pluggable payload codecs ([`PayloadCodec`]:
//!   [`codec::RawValues`], [`codec::Md5Digest`], [`codec::DictSyms`])
//!   every value-shipping protocol encodes through,
//!   plus the receiver-side half ([`codec::ReceiverCodec`]) that rebuilds
//!   digests from received payloads only,
//! * [`lz`] — the in-tree LZ77-class block compressor that packs large
//!   runtime control frames ([`run::CTRL_LZ_MIN_BYTES`]; no-dep, like
//!   [`md5`]),
//! * [`md5`] — RFC 1321, the digest primitive behind the §6 optimization,
//! * [`partition`] — vertical (§2.2, projections with key, replication
//!   allowed) and horizontal (disjoint selections) partitioners.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::unreachable)]

pub mod codec;
pub mod lz;
pub mod md5;
pub mod net;
pub mod netstats;
pub mod partition;
pub mod run;
pub mod transport;

pub use codec::{CodecKind, PayloadCodec, ReceiverCodec, WireValue};
pub use net::{ByteNetwork, FrameCodec, TransportKind, TransportMeter};
pub use netstats::{CostModel, Meters, NetReport, NetStats};
pub use transport::{DictMeter, MsgTransport, Network, Wire};

/// Identifier of a site `S_i`. Sites are numbered `0..n`.
pub type SiteId = usize;

/// Errors from the distribution substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// A partition scheme does not cover the schema / violates key rules.
    BadScheme(String),
    /// A tuple matched no horizontal fragment (or more than one).
    Routing(String),
    /// A site id out of range.
    UnknownSite(SiteId),
    /// A metered send addressed to the sending site itself. Local work is
    /// never `|M|`; algorithms must branch to local processing instead.
    /// Carries only the site id — loopback rejection sits on the metering
    /// hot path and must not allocate.
    Loopback(SiteId),
    /// A byte-transport failure: truncated or oversized frame, mid-stream
    /// disconnect, malformed payload encoding, or socket error.
    Transport(String),
    /// A bare dictionary symbol arrived on an ordered link before the
    /// delta that teaches it — a receiver-side codec protocol error
    /// ([`codec::ReceiverCodec`]). Carries the link and the symbol so a
    /// multi-site codec bug names the exact `(src, dst)` session at
    /// fault.
    UntaughtSymbol {
        /// Sending site of the link.
        src: SiteId,
        /// Receiving site of the link.
        dst: SiteId,
        /// The unresolvable dictionary symbol.
        sym: relation::Sym,
    },
    /// A frame on the `src → dst` link that its receiver could not take:
    /// its body did not decode, or the protocol does not carry it there.
    /// The cause stays typed; the text names the link once, then the
    /// cause's own words.
    Link {
        /// Sending site of the link.
        src: SiteId,
        /// Receiving site of the link.
        dst: SiteId,
        /// What was wrong with the frame. (Boxed, so the variant is no
        /// wider than the others.)
        cause: Box<ClusterError>,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::BadScheme(s) => write!(f, "bad partition scheme: {s}"),
            ClusterError::Routing(s) => write!(f, "routing error: {s}"),
            ClusterError::UnknownSite(s) => write!(f, "unknown site {s}"),
            ClusterError::Loopback(s) => {
                write!(f, "site {s} attempted a metered send to itself")
            }
            ClusterError::Transport(s) => write!(f, "transport error: {s}"),
            ClusterError::UntaughtSymbol { src, dst, sym } => write!(
                f,
                "bare dictionary symbol {sym} arrived on link {src} → {dst} before its delta"
            ),
            ClusterError::Link { src, dst, cause } => match &**cause {
                ClusterError::Transport(what) => write!(f, "link {src} → {dst}: {what}"),
                cause => write!(f, "link {src} → {dst}: {cause}"),
            },
        }
    }
}

impl std::error::Error for ClusterError {}
