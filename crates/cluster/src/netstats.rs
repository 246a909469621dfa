//! Network statistics and the communication cost model.
//!
//! The paper's primary communication metric is *data shipment* `|M|` — the
//! total size of tuples/eqids shipped between sites (§2.3). [`NetStats`]
//! tracks, per ordered `(src, dst)` pair and in total:
//!
//! * messages — one per `send` (a broadcast to `n−1` peers is `n−1`
//!   messages, matching the paper's `O(|ΔD|·n)` message analysis in §6);
//! * bytes — the wire size of each payload;
//! * eqids — how many equivalence-class ids were shipped (the unit Exp-5 /
//!   Fig. 10 reports).
//!
//! [`Meters`] is the one block every substrate, detector and baseline
//! accumulates its traffic into: modeled `|M|` and measured bytes per
//! link, the [`TransportMeter`] and the received bytes. Its
//! [`report`](Meters::report) is the only place a single-tier
//! [`NetReport`] is built.
//!
//! [`CostModel`] turns the counters into a simulated elapsed time so that
//! experiment output exhibits the paper's communication-dominated shape.

use crate::net::TransportMeter;
use crate::SiteId;

crate::wire! {
    /// Counters for one direction of one site pair.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct Counters {
        /// Number of messages sent.
        pub messages: u64,
        /// Payload bytes sent.
        pub bytes: u64,
        /// Equivalence-class ids shipped (subset of the byte traffic).
        pub eqids: u64,
    }
}

impl Counters {
    fn add(&mut self, other: &Counters) {
        self.messages += other.messages;
        self.bytes += other.bytes;
        self.eqids += other.eqids;
    }
}

/// Accumulated network statistics for an `n`-site cluster.
#[derive(Debug, Clone)]
pub struct NetStats {
    n: usize,
    /// Row-major `(src, dst)` matrix (diagonal unused).
    matrix: Vec<Counters>,
}

impl NetStats {
    /// Fresh statistics for `n` sites.
    pub fn new(n: usize) -> Self {
        NetStats {
            n,
            matrix: vec![Counters::default(); n * n],
        }
    }

    /// Number of sites.
    pub fn n_sites(&self) -> usize {
        self.n
    }

    /// Record one message of `bytes` payload from `src` to `dst`, of which
    /// `eqids` equivalence ids.
    pub fn record(&mut self, src: SiteId, dst: SiteId, bytes: usize, eqids: usize) {
        debug_assert!(src != dst, "local access must not be metered");
        let c = &mut self.matrix[src * self.n + dst];
        c.messages += 1;
        c.bytes += bytes as u64;
        c.eqids += eqids as u64;
    }

    /// Counters for one ordered pair.
    pub fn pair(&self, src: SiteId, dst: SiteId) -> Counters {
        self.matrix[src * self.n + dst]
    }

    /// Totals over all pairs.
    pub fn total(&self) -> Counters {
        let mut t = Counters::default();
        for c in &self.matrix {
            t.add(c);
        }
        t
    }

    /// Total bytes shipped (`|M|`).
    pub fn total_bytes(&self) -> u64 {
        self.total().bytes
    }

    /// Total messages.
    pub fn total_messages(&self) -> u64 {
        self.total().messages
    }

    /// Total eqids shipped (the Fig. 10 metric).
    pub fn total_eqids(&self) -> u64 {
        self.total().eqids
    }

    /// Reset all counters (e.g. between experiment phases).
    pub fn reset(&mut self) {
        self.matrix.fill(Counters::default());
    }

    /// Merge another statistics object into this one (used when per-CFD
    /// work runs on private meters, as the batch baselines' runs do).
    pub fn merge(&mut self, other: &NetStats) {
        assert_eq!(self.n, other.n, "merging stats of different cluster sizes");
        for i in 0..self.matrix.len() {
            self.matrix[i].add(&other.matrix[i]);
        }
    }

    /// The non-zero cells of row `src` as `(dst, counters)`, in `dst`
    /// order. A node meters only its own sends, so this is everything a
    /// site of the per-site runtime (`cluster::run`) has to report.
    pub fn row(&self, src: SiteId) -> impl Iterator<Item = (SiteId, Counters)> + '_ {
        self.matrix[src * self.n..(src + 1) * self.n]
            .iter()
            .enumerate()
            .filter(|(_, c)| **c != Counters::default())
            .map(|(dst, c)| (dst, *c))
    }

    /// Add `c` to the `(src, dst)` cell — the receiving end of
    /// [`row`](Self::row).
    pub fn add(&mut self, src: SiteId, dst: SiteId, c: &Counters) {
        self.matrix[src * self.n + dst].add(c);
    }

    /// Flat little-endian image: `n` as `u32`, then the `n²` counters as
    /// `(messages, bytes, eqids)` `u64` triples. Two matrices are equal
    /// iff their images are — what the differential suites compare.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.matrix.len() * 24);
        out.extend_from_slice(&(self.n as u32).to_le_bytes());
        for c in &self.matrix {
            out.extend_from_slice(&c.messages.to_le_bytes());
            out.extend_from_slice(&c.bytes.to_le_bytes());
            out.extend_from_slice(&c.eqids.to_le_bytes());
        }
        out
    }
}

/// A normalized view of a detector's cumulative network traffic.
///
/// Detectors differ in how many *tiers* of communication they meter: the
/// single-tier vertical/horizontal detectors and the batch baselines have
/// one, built by [`Meters::report`], while the hybrid detector adds its
/// intra-region digest assembly and a suite session its inclusion probes
/// ([`with_tier`](Self::with_tier)). `NetReport` is the uniform shape the
/// `Detector::net()` trait method returns, so harnesses roll up
/// bytes/messages/eqids and simulated time without knowing which strategy
/// produced them.
///
/// Tiers represent *sequential* protocol phases of the same logical
/// operation (assembly feeds the inter-region rounds), so the time
/// roll-ups sum over tiers.
#[derive(Debug, Clone)]
pub struct NetReport {
    tiers: Vec<(String, NetStats)>,
    /// Wire codec that produced the value traffic, if the strategy ships
    /// values at all (`"raw_values"` / `"md5"` / `"dict"`;
    /// `None` for eqid-only protocols like `incVer`).
    codec: Option<String>,
    /// Measured on-wire traffic, when the session ran over a real byte
    /// transport ([`crate::net::ByteNetwork`]): frame counts and actual
    /// bytes including framing, alongside the modeled tiers.
    measured: Option<NetStats>,
}

impl NetReport {
    /// Append a tier after the existing ones.
    pub fn with_tier(mut self, label: impl Into<String>, stats: NetStats) -> Self {
        self.tiers.push((label.into(), stats));
        self
    }

    /// Label the report with the payload codec its traffic was encoded
    /// with (see [`crate::codec::CodecKind::name`]).
    pub fn with_codec(mut self, codec: impl Into<String>) -> Self {
        self.codec = Some(codec.into());
        self
    }

    /// The payload codec label, if the producing strategy ships values.
    pub fn codec(&self) -> Option<&str> {
        self.codec.as_deref()
    }

    /// Measured on-wire statistics, if the session shipped real bytes.
    pub fn measured(&self) -> Option<&NetStats> {
        self.measured.as_ref()
    }

    /// Measured bytes on the wire (framing included), if real bytes were
    /// shipped.
    pub fn measured_bytes(&self) -> Option<u64> {
        self.measured.as_ref().map(NetStats::total_bytes)
    }

    /// All tiers, in protocol order.
    pub fn tiers(&self) -> &[(String, NetStats)] {
        &self.tiers
    }

    /// Stats of the named tier, if present.
    pub fn tier(&self, label: &str) -> Option<&NetStats> {
        self.tiers.iter().find(|(l, _)| l == label).map(|(_, s)| s)
    }

    /// Total payload bytes over all tiers (`|M|`).
    pub fn total_bytes(&self) -> u64 {
        self.tiers.iter().map(|(_, s)| s.total_bytes()).sum()
    }

    /// Total messages over all tiers.
    pub fn total_messages(&self) -> u64 {
        self.tiers.iter().map(|(_, s)| s.total_messages()).sum()
    }

    /// Total eqids shipped over all tiers (the Fig. 10 metric).
    pub fn total_eqids(&self) -> u64 {
        self.tiers.iter().map(|(_, s)| s.total_eqids()).sum()
    }

    /// Simulated elapsed seconds under `model` (per-message latency),
    /// summed over the sequential tiers.
    pub fn simulated_seconds(&self, model: &CostModel) -> f64 {
        self.tiers
            .iter()
            .map(|(_, s)| model.simulated_seconds(s))
            .sum()
    }

    /// Simulated elapsed seconds under `model` with pipelined links,
    /// summed over the sequential tiers.
    pub fn pipelined_seconds(&self, model: &CostModel) -> f64 {
        self.tiers
            .iter()
            .map(|(_, s)| model.pipelined_seconds(s))
            .sum()
    }
}

/// Everything metered of one traffic source: a node's sends and receives,
/// a whole mesh's, a detector's or a batch run's. Blocks of the same
/// cluster size [`merge`](Self::merge) into the picture of both.
///
/// Whether the block has a measured tier is fixed by the substrate that
/// fills it: the typed [`crate::Network`] writes no bytes
/// ([`Meters::modeled`]), every [`crate::run::Node`] does
/// ([`Meters::framed`]). A framed block obeys the [`TransportMeter`]
/// identity, and once its mesh is at rest `received` equals
/// `transport.wire_bytes`: every byte written was read.
#[derive(Debug, Clone)]
pub struct Meters {
    /// Modeled `|M|` per link.
    pub modeled: NetStats,
    /// Measured on-wire bytes per link, framing included (one message per
    /// frame, control frames too).
    pub wire: NetStats,
    /// Whole-run transport counters.
    pub transport: TransportMeter,
    /// Wire bytes, framing included, of the frames taken off an inbox.
    pub received: u64,
    /// Whether frames filled this block (it then has a measured tier).
    framed: bool,
}

impl Meters {
    /// A block for `n` sites that only the model fills: no measured tier.
    pub fn modeled(n: usize) -> Self {
        Meters {
            modeled: NetStats::new(n),
            wire: NetStats::new(n),
            transport: TransportMeter::default(),
            received: 0,
            framed: false,
        }
    }

    /// A block for `n` sites that real frames fill: its report carries
    /// `wire` as the measured tier.
    pub fn framed(n: usize) -> Self {
        Meters {
            framed: true,
            ..Meters::modeled(n)
        }
    }

    /// Zero every counter; the substrate stays what it was.
    pub fn reset(&mut self) {
        self.modeled.reset();
        self.wire.reset();
        self.transport = TransportMeter::default();
        self.received = 0;
    }

    /// Add `other`'s counters to this block's. The sum has a measured tier
    /// if either part had one.
    pub fn merge(&mut self, other: &Meters) {
        self.modeled.merge(&other.modeled);
        self.wire.merge(&other.wire);
        self.transport.merge(&other.transport);
        self.received += other.received;
        self.framed |= other.framed;
    }

    /// The single-tier report of this block: `modeled` as the tier named
    /// `tier`, and `wire` as the measured traffic if frames filled it.
    pub fn report(&self, tier: &str) -> NetReport {
        NetReport {
            tiers: vec![(tier.to_string(), self.modeled.clone())],
            codec: None,
            measured: self.framed.then(|| self.wire.clone()),
        }
    }
}

/// A simple latency/bandwidth model of the network, used to convert metered
/// traffic into simulated elapsed seconds.
///
/// The model assumes per-pair links are independent and sites overlap
/// communication maximally, so the simulated time is the *maximum over
/// ordered pairs* of `messages·latency + bytes/bandwidth` — the busiest link
/// is the bottleneck. This mirrors how the paper's elapsed times are
/// dominated by the coordinator links in the batch algorithms.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Per-message latency in seconds (EC2 same-zone RTT ≈ 0.5 ms).
    pub latency_s: f64,
    /// Link bandwidth in bytes per second (EC2 ≈ 1 Gbit/s ≈ 1.25e8 B/s).
    pub bandwidth_bps: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            latency_s: 0.0005,
            bandwidth_bps: 1.25e8,
        }
    }
}

impl CostModel {
    /// Simulated elapsed seconds for the recorded traffic.
    pub fn simulated_seconds(&self, stats: &NetStats) -> f64 {
        let n = stats.n_sites();
        let mut worst: f64 = 0.0;
        for src in 0..n {
            for dst in 0..n {
                if src == dst {
                    continue;
                }
                let c = stats.pair(src, dst);
                let t = c.messages as f64 * self.latency_s + c.bytes as f64 / self.bandwidth_bps;
                worst = worst.max(t);
            }
        }
        worst
    }

    /// Simulated elapsed seconds under *pipelined* links: each busy link
    /// pays one round-trip of latency plus its byte volume over the
    /// bandwidth. This models an implementation that streams payloads over
    /// persistent connections (as any real deployment of these protocols
    /// would — the paper's Python implementation holds sockets open),
    /// instead of paying an RTT per eqid.
    pub fn pipelined_seconds(&self, stats: &NetStats) -> f64 {
        let n = stats.n_sites();
        let mut worst: f64 = 0.0;
        for src in 0..n {
            for dst in 0..n {
                if src == dst {
                    continue;
                }
                let c = stats.pair(src, dst);
                if c.messages == 0 {
                    continue;
                }
                let t = self.latency_s + c.bytes as f64 / self.bandwidth_bps;
                worst = worst.max(t);
            }
        }
        worst
    }

    /// Simulated seconds if all traffic were serialized over one link —
    /// upper bound, useful for sanity checks.
    pub fn serialized_seconds(&self, stats: &NetStats) -> f64 {
        let t = stats.total();
        t.messages as f64 * self.latency_s + t.bytes as f64 / self.bandwidth_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_report_rolls_up_tiers() {
        let mut inter = Meters::modeled(3);
        inter.modeled.record(0, 1, 100, 2);
        let mut intra = NetStats::new(6);
        intra.record(3, 4, 50, 0);
        intra.record(5, 4, 30, 1);
        let r = inter.report("inter").with_tier("intra", intra);
        assert_eq!(r.total_bytes(), 180);
        assert_eq!(r.total_messages(), 3);
        assert_eq!(r.total_eqids(), 3);
        assert_eq!(r.tier("inter").unwrap().total_bytes(), 100);
        assert!(r.tier("missing").is_none());
        let m = CostModel::default();
        let single = inter.report("net");
        assert_eq!(
            single.simulated_seconds(&m),
            m.simulated_seconds(&inter.modeled)
        );
        assert!(r.simulated_seconds(&m) > single.simulated_seconds(&m));
        assert!(r.pipelined_seconds(&m) > 0.0);
    }

    #[test]
    fn net_report_carries_codec_label() {
        let r = Meters::modeled(2).report("net");
        assert_eq!(r.codec(), None, "unlabeled by default");
        let r = r.with_codec("dict");
        assert_eq!(r.codec(), Some("dict"));
        let two = Meters::modeled(2).report("inter");
        let two = two.with_tier("intra", NetStats::new(4)).with_codec("md5");
        assert_eq!(two.codec(), Some("md5"));
    }

    /// A block the typed network filled reports no measured tier; a framed
    /// one reports exactly its `wire`, even before anything was sent.
    #[test]
    fn net_report_carries_measured_wire_stats() {
        let r = Meters::modeled(2).report("net");
        assert!(r.measured().is_none(), "simulated sessions have no wire");
        assert_eq!(r.measured_bytes(), None);
        let mut framed = Meters::framed(2);
        assert_eq!(framed.report("net").measured_bytes(), Some(0));
        framed.wire.record(0, 1, 150, 0); // framing included
        framed.modeled.record(0, 1, 140, 0);
        let r = framed.report("net");
        assert_eq!(r.measured_bytes(), Some(150));
        assert_eq!(r.measured().unwrap().to_bytes(), framed.wire.to_bytes());
        assert_eq!(r.measured().unwrap().total_messages(), 1);
        assert_eq!(r.total_bytes(), 140);
    }

    #[test]
    fn records_per_pair_and_totals() {
        let mut s = NetStats::new(3);
        s.record(0, 1, 100, 2);
        s.record(0, 1, 50, 0);
        s.record(2, 0, 8, 1);
        assert_eq!(s.pair(0, 1).messages, 2);
        assert_eq!(s.pair(0, 1).bytes, 150);
        assert_eq!(s.pair(0, 1).eqids, 2);
        assert_eq!(s.pair(1, 0), Counters::default());
        assert_eq!(s.total_bytes(), 158);
        assert_eq!(s.total_messages(), 3);
        assert_eq!(s.total_eqids(), 3);
    }

    #[test]
    fn reset_clears() {
        let mut s = NetStats::new(2);
        s.record(1, 0, 10, 0);
        s.reset();
        assert_eq!(s.total(), Counters::default());
    }

    #[test]
    fn cost_model_bottleneck_is_busiest_link() {
        let mut s = NetStats::new(3);
        // 0→1 heavy, 0→2 light: simulated time follows the heavy link.
        for _ in 0..10 {
            s.record(0, 1, 1_000_000, 0);
        }
        s.record(0, 2, 10, 0);
        let m = CostModel {
            latency_s: 0.001,
            bandwidth_bps: 1e6,
        };
        let t = m.simulated_seconds(&s);
        let expect = 10.0 * 0.001 + 10.0; // 10 MB over 1 MB/s
        assert!((t - expect).abs() < 1e-9, "{t} vs {expect}");
        assert!(m.serialized_seconds(&s) >= t);
    }

    #[test]
    #[should_panic(expected = "local access")]
    #[cfg(debug_assertions)]
    fn self_shipment_rejected_in_debug() {
        let mut s = NetStats::new(2);
        s.record(1, 1, 1, 0);
    }

    #[test]
    fn pipelined_charges_one_latency_per_busy_link() {
        let mut s = NetStats::new(3);
        // 1000 small messages on one link: per-message latency would cost
        // 1 s; pipelined charges a single round plus the byte volume.
        for _ in 0..1000 {
            s.record(0, 1, 100, 0);
        }
        let m = CostModel {
            latency_s: 0.001,
            bandwidth_bps: 1e6,
        };
        let per_msg = m.simulated_seconds(&s);
        let pipelined = m.pipelined_seconds(&s);
        assert!((per_msg - (1.0 + 0.1)).abs() < 1e-9);
        assert!((pipelined - (0.001 + 0.1)).abs() < 1e-9);
        // Idle links cost nothing.
        assert_eq!(m.pipelined_seconds(&NetStats::new(3)), 0.0);
    }

    #[test]
    fn sparse_rows_rebuild_the_matrix() {
        let mut s = NetStats::new(3);
        s.record(0, 1, 100, 2);
        s.record(2, 1, 7, 0);
        s.record(2, 0, 9, 1);
        assert_eq!(s.row(1).count(), 0, "an idle sender reports nothing");
        assert_eq!(
            s.row(2).collect::<Vec<_>>(),
            vec![(0, s.pair(2, 0)), (1, s.pair(2, 1))]
        );
        let mut back = NetStats::new(3);
        for src in 0..3 {
            for (dst, c) in s.row(src) {
                back.add(src, dst, &c);
            }
        }
        assert_eq!(back.to_bytes(), s.to_bytes());
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = NetStats::new(2);
        a.record(0, 1, 10, 1);
        let mut b = NetStats::new(2);
        b.record(0, 1, 5, 0);
        b.record(1, 0, 7, 2);
        a.merge(&b);
        assert_eq!(a.pair(0, 1).bytes, 15);
        assert_eq!(a.pair(0, 1).messages, 2);
        assert_eq!(a.pair(1, 0).eqids, 2);
        assert_eq!(a.total_bytes(), 22);
    }

    #[test]
    #[should_panic(expected = "different cluster sizes")]
    fn merge_rejects_size_mismatch() {
        let mut a = NetStats::new(2);
        a.merge(&NetStats::new(3));
    }
}
