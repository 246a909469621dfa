//! Hybrid partitions — the paper's §8 future-work item *"we also intend to
//! extend our algorithms to data that is partitioned both vertically and
//! horizontally"*, implemented as a composition of the two detectors.
//!
//! Layout: the relation is first split **horizontally** into *regions*;
//! within each region the fragment is split **vertically** over that
//! region's sub-sites (every sub-site keeps the key, as in §2.2). The
//! layout is the scheme's: rows are stored once, in the inner detector's
//! logical relation, and which sub-site holds an attribute — hence what
//! assembly costs — is read off the scheme.
//!
//! Detection composes the two protocols:
//!
//! * **Inter-region**, the §6 horizontal machinery runs between region
//!   *gateways* (one designated sub-site per region), treating each region
//!   as one logical site — group states, the global-multiplicity
//!   invariant, MD5 digests, broadcast/query/clear rounds.
//! * **Intra-region**, handling an update requires assembling the digest
//!   of `t[X]`/`t[B]` at the gateway from the sub-sites that hold the
//!   attributes: each contributing sub-site ships one digest-bearing
//!   message per update (per-attribute MD5 codes, 16 bytes each), the
//!   vertical analogue of the §4 eqid walk. Constant CFDs evaluate their
//!   atoms at the owning sub-sites and ship candidate tids, as in `incVer`
//!   lines 4–10.
//!
//! Costs therefore stay `O(|ΔD| + |ΔV|)`: O(1) intra-region messages per
//! update per CFD plus the `O(n)` worst-case inter-region rounds of §6.

use crate::detector::{DetectError, Detector};
use crate::horizontal::HorizontalDetector;
use cfd::{Cfd, CfdId, DeltaV, MatchScratch, Violations};
use cluster::codec::CodecKind;
use cluster::md5::Digest;
use cluster::net::TransportKind;
use cluster::partition::{HorizontalScheme, VerticalScheme};
use cluster::{ClusterError, NetStats, SiteId};
use relation::{AttrId, FxHashSet, RelError, Relation, Schema, Tuple, UpdateBatch};
use std::mem::take;
use std::sync::Arc;

/// A hybrid partition scheme: horizontal regions, each vertically split.
#[derive(Debug, Clone)]
pub struct HybridScheme {
    /// The region-level horizontal split.
    pub regions: HorizontalScheme,
    /// Per region, the vertical scheme of its sub-sites.
    pub verticals: Vec<VerticalScheme>,
}

impl HybridScheme {
    /// Build and validate: one vertical scheme per region, all over the
    /// same global schema.
    pub fn new(
        regions: HorizontalScheme,
        verticals: Vec<VerticalScheme>,
    ) -> Result<Self, ClusterError> {
        if verticals.len() != regions.n_sites() {
            return Err(ClusterError::BadScheme(format!(
                "{} regions but {} vertical schemes",
                regions.n_sites(),
                verticals.len()
            )));
        }
        for v in &verticals {
            if v.schema() != regions.schema() {
                return Err(ClusterError::BadScheme(
                    "vertical scheme over a different schema".into(),
                ));
            }
        }
        Ok(HybridScheme { regions, verticals })
    }

    /// Uniform construction: `n_regions` hash-partitioned regions, each
    /// vertically round-robin split over `subsites` sub-sites.
    pub fn uniform(
        schema: Arc<Schema>,
        n_regions: usize,
        subsites: usize,
    ) -> Result<Self, ClusterError> {
        let regions = HorizontalScheme::by_hash(schema.clone(), schema.key(), n_regions)?;
        let verticals = (0..n_regions)
            .map(|_| VerticalScheme::round_robin(schema.clone(), subsites))
            .collect::<Result<Vec<_>, _>>()?;
        HybridScheme::new(regions, verticals)
    }

    /// Number of regions.
    pub fn n_regions(&self) -> usize {
        self.regions.n_sites()
    }

    /// Total number of physical sites (sum of sub-sites).
    pub fn n_sites(&self) -> usize {
        self.verticals.iter().map(VerticalScheme::n_sites).sum()
    }

    /// Global site id of sub-site `sub` within `region`.
    pub(crate) fn global_site(&self, region: usize, sub: usize) -> SiteId {
        self.verticals[..region]
            .iter()
            .map(VerticalScheme::n_sites)
            .sum::<usize>()
            + sub
    }

    /// The gateway sub-site of a region (its first sub-site).
    pub fn gateway(&self, region: usize) -> SiteId {
        self.global_site(region, 0)
    }
}

/// Wire bytes of one candidate tid, shipped to the gateway for a
/// constant CFD's atom check (per-attribute digests cost
/// [`Digest::WIRE_SIZE`] each).
const CAND_BYTES: usize = 8;

/// The hybrid detector: §6 between regions, digest assembly within them.
pub struct HybridDetector {
    scheme: HybridScheme,
    /// Inter-region protocol (regions as logical sites).
    inner: HorizontalDetector,
    /// Intra-region assembly traffic (global physical site ids), metered
    /// from the scheme alone: nothing is sent.
    intra: NetStats,
    /// Variable CFDs' attribute sets, precomputed.
    var_attrs: Vec<Option<Vec<AttrId>>>,
    /// Constant CFDs' atom attributes, precomputed.
    const_attrs: Vec<Option<Vec<AttrId>>>,
    /// Reusable scratch for the per-update needed-attribute union.
    needed_buf: FxHashSet<AttrId>,
    /// Reusable scratch for the shared dispatch pass.
    scratch: MatchScratch,
    /// Reusable buffer holding the dispatch hit list of one update.
    hits_buf: Vec<CfdId>,
}

impl HybridDetector {
    /// Build over `d`, loading the inter-region state (unmetered, like
    /// the other detectors). `codec` and `transport` are the inter-region
    /// §6 protocol's — real byte frames between region gateways for
    /// [`TransportKind::Framed`]/[`TransportKind::Tcp`] — while
    /// intra-region digest assembly stays on the modeled network (its
    /// messages are fixed-size digest bundles; the gateway rounds are where
    /// the codec and transport decisions matter).
    pub fn new(
        schema: Arc<Schema>,
        cfds: Vec<Cfd>,
        scheme: HybridScheme,
        d: &Relation,
        codec: CodecKind,
        transport: TransportKind,
    ) -> Result<Self, DetectError> {
        crate::detector::positional(&cfds)?;
        let inner = HorizontalDetector::new(
            schema.clone(),
            cfds.clone(),
            scheme.regions.clone(),
            d,
            codec,
            transport,
        )?;
        let var_attrs = cfds
            .iter()
            .map(|c| c.is_variable().then(|| c.attrs()))
            .collect();
        let const_attrs = cfds
            .iter()
            .map(|c| {
                c.is_constant().then(|| {
                    c.constant_atoms()
                        .into_iter()
                        .map(|(a, _)| a)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        Ok(HybridDetector {
            intra: NetStats::new(scheme.n_sites()),
            scheme,
            inner,
            var_attrs,
            const_attrs,
            needed_buf: FxHashSet::default(),
            scratch: MatchScratch::default(),
            hits_buf: Vec::new(),
        })
    }

    /// The inter-region §6 detector.
    #[cfg(test)]
    pub(crate) fn inner(&self) -> &HorizontalDetector {
        &self.inner
    }

    /// Assembly cost of one update at its region: every sub-site holding
    /// relevant attributes (other than the gateway) ships one message —
    /// per-attribute digests for the variable CFDs the tuple matches, a
    /// candidate tid per matched constant CFD. One dispatch pass finds
    /// both kinds.
    fn meter_assembly(&mut self, region: usize, t: &Tuple) {
        // Reused buffers — no per-update allocation.
        let (mut needed, mut hits) = (take(&mut self.needed_buf), take(&mut self.hits_buf));
        needed.clear();
        hits.clear();
        hits.extend_from_slice(self.inner.shared_plan().matched(t, &mut self.scratch));
        for &cid in &hits {
            if let Some(attrs) = &self.var_attrs[cid as usize] {
                needed.extend(attrs.iter().copied());
            }
        }
        let vs = &self.scheme.verticals[region];
        let gateway = self.scheme.gateway(region);
        for sub in 0..vs.n_sites() {
            let gsite = self.scheme.global_site(region, sub);
            if gsite == gateway {
                continue;
            }
            let held = needed
                .iter()
                .filter(|&&a| vs.local_pos(sub, a).is_some() && vs.primary_site(a) == sub)
                .count();
            if held > 0 {
                self.intra
                    .record(gsite, gateway, Digest::WIRE_SIZE * held, 0);
            }
        }
        // Constant CFDs: candidate tids from atom-owning sub-sites.
        for &cid in &hits {
            let Some(attrs) = &self.const_attrs[cid as usize] else {
                continue;
            };
            for &a in attrs {
                let gsite = self.scheme.global_site(region, vs.primary_site(a));
                if gsite != gateway {
                    self.intra.record(gsite, gateway, CAND_BYTES, 0);
                }
            }
        }
        (self.needed_buf, self.hits_buf) = (needed, hits);
    }
}

impl Detector for HybridDetector {
    fn strategy(&self) -> &'static str {
        "incHyb"
    }

    /// The global schema.
    fn schema(&self) -> &Arc<Schema> {
        self.inner.schema()
    }

    /// The rule set.
    fn cfds(&self) -> &[Cfd] {
        self.inner.cfds()
    }

    /// The logical relation.
    fn current(&self) -> &Relation {
        self.inner.current()
    }

    /// Current violation set.
    fn violations(&self) -> &Violations {
        self.inner.violations()
    }

    /// Apply a batch update, metering intra-region assembly and running
    /// the inter-region §6 protocol.
    fn apply(&mut self, delta: &UpdateBatch) -> Result<DeltaV, DetectError> {
        let delta = crate::detector::admit(self.inner.current(), delta)?;
        // Route every insert before anything is metered or stored; the
        // inner detector is handed the regions back, not asked again.
        // Metering only adds to counters: inserts and deletes may be
        // metered in two passes.
        let regions = self.inner.route(&delta)?;
        for (t, &region) in delta.insertions().zip(&regions) {
            self.meter_assembly(region, t);
        }
        for tid in delta.deletions() {
            let t = self.inner.current().get(tid);
            let t = t.ok_or(RelError::MissingTid(tid))?;
            let region = self.scheme.regions.route(&t)?;
            self.meter_assembly(region, &t);
        }
        self.inner.apply_routed(&delta, regions)
    }

    fn net(&self) -> cluster::NetReport {
        let report = self.inner.meters().report("inter");
        let report = report.with_tier("intra", self.intra.clone());
        report.with_codec(self.inner.codec_kind().name())
    }

    /// Reset both traffic meters.
    fn reset_stats(&mut self) {
        self.inner.reset_stats();
        self.intra.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::{Tid, Value};

    fn schema() -> Arc<Schema> {
        Schema::new("R", &["id", "a", "b", "c", "d"], "id").unwrap()
    }

    fn tup(tid: Tid, a: i64, b: i64, c: i64, d: i64) -> Tuple {
        Tuple::new(
            tid,
            vec![
                Value::int(tid as i64),
                Value::int(a),
                Value::int(b),
                Value::int(c),
                Value::int(d),
            ],
        )
    }

    fn base(n: usize) -> Relation {
        let s = schema();
        let mut r = Relation::new(s);
        for i in 0..n as u64 {
            r.insert(tup(
                i,
                (i % 5) as i64,
                (i % 3) as i64,
                (i % 7) as i64,
                (i % 2) as i64,
            ))
            .unwrap();
        }
        r
    }

    fn cfds(s: &Schema) -> Vec<Cfd> {
        vec![
            Cfd::from_names(0, s, &[("a", None), ("b", None)], ("c", None)).unwrap(),
            Cfd::from_names(
                1,
                s,
                &[("a", Some(Value::int(1)))],
                ("d", Some(Value::int(1))),
            )
            .unwrap(),
        ]
    }

    fn detector(n: usize) -> HybridDetector {
        let s = schema();
        let scheme = HybridScheme::uniform(s.clone(), 3, 2).unwrap();
        HybridDetector::new(
            s.clone(),
            cfds(&s),
            scheme,
            &base(n),
            CodecKind::Md5,
            TransportKind::Simulated,
        )
        .unwrap()
    }

    #[test]
    fn scheme_validation() {
        let s = schema();
        let regions = HorizontalScheme::by_hash(s.clone(), 0, 2).unwrap();
        let one_vertical = vec![VerticalScheme::round_robin(s.clone(), 2).unwrap()];
        assert!(matches!(
            HybridScheme::new(regions, one_vertical),
            Err(ClusterError::BadScheme(_))
        ));
        let ok = HybridScheme::uniform(s, 3, 2).unwrap();
        assert_eq!(ok.n_regions(), 3);
        assert_eq!(ok.n_sites(), 6);
        assert_eq!(ok.gateway(0), 0);
        assert_eq!(ok.gateway(1), 2);
        assert_eq!(ok.global_site(2, 1), 5);
    }

    #[test]
    fn initial_violations_match_oracle() {
        let det = detector(60);
        let oracle = cfd::naive::detect(det.cfds(), det.current());
        assert_eq!(det.violations().marks_sorted(), oracle.marks_sorted());
        assert!(!det.violations().is_empty(), "workload has conflicts");
    }

    #[test]
    fn updates_match_oracle_and_meter_both_layers() {
        let mut det = detector(60);
        let mut delta = UpdateBatch::new();
        delta.insert(tup(100, 1, 1, 99, 0)); // conflicts on (a,b)=(1,1)
        delta.insert(tup(101, 1, 1, 98, 1));
        delta.delete(7);
        delta.delete(22);
        let dv = det.apply(&delta).unwrap();
        assert!(!dv.is_empty());
        let oracle = cfd::naive::detect(det.cfds(), det.current());
        assert_eq!(det.violations().marks_sorted(), oracle.marks_sorted());
        assert!(
            det.net().tier("intra").unwrap().total_bytes() > 0,
            "digest assembly must be metered"
        );
    }

    #[test]
    fn sequential_batches_stay_correct() {
        let mut det = detector(40);
        for round in 0..5u64 {
            let mut delta = UpdateBatch::new();
            delta.insert(tup(300 + round, (round % 4) as i64, 1, round as i64, 0));
            if det.current().contains(round * 3) {
                delta.delete(round * 3);
            }
            det.apply(&delta).unwrap();
            let oracle = cfd::naive::detect(det.cfds(), det.current());
            assert_eq!(det.violations().marks_sorted(), oracle.marks_sorted());
        }
    }
}
