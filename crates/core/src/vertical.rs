//! Incremental detection over vertical partitions (§4, Figs. 4–5).
//!
//! [`VerticalDetector`] owns the distributed state of algorithm `incVer`:
//! per-attribute base HEVs (at their plan-designated sites), the non-base
//! HEV nodes of an [`HevPlan`], one IDX per variable CFD (at the site
//! maintaining `id[t_X]`), and the violation set. Rows are stored once, in
//! the logical relation: a site's fragment `π_{X_i}(D)` is a set of its
//! columns, and the walks read them through the stored row symbols.
//!
//! * **Insertions** follow `incVIns` (Fig. 4): compute `id[t_X]` and
//!   `id[t_{X∪B}]` by walking the plan (shipping eqids across sites, each
//!   `(producer, destination)` pair once per tuple), then case-split on
//!   `|set(t[X])|`.
//! * **Deletions** follow `incVDel`: the same eqid walk (lookups), then the
//!   case split on `|[t]_{X∪B}|` and `|set(t[X])|`.
//! * **Batch updates** follow `incVer` (Fig. 5): updates are normalized
//!   (cancelling pairs removed), constant CFDs are checked with the
//!   candidate-shipping/sort-merge protocol of lines 4–10, and variable
//!   CFDs run the single-update algorithms per operation. Locally checkable
//!   CFDs (case 2 of §4) fall out automatically: their plan nodes are
//!   co-located, so the walk ships nothing.
//!
//! Both the communication cost (only eqids and candidate tids cross sites,
//! at most a constant number per update) and the computational cost (O(1)
//! hash probes per update per CFD) are `O(|ΔD| + |ΔV|)` — Proposition 6.

use crate::detector::{DetectError, Detector};
use crate::hev::{BaseHev, EqId, EqKey, NonBaseHev};
use crate::idx::Idx;
use crate::optimize::SharingMode;
use crate::plan::{HevPlan, Input, NodeId};
use cfd::{Cfd, CfdId, DeltaV, MatchScratch, SharedPlan, Violations};
use cluster::partition::VerticalScheme;
use cluster::{Network, SiteId, Wire};
use relation::{
    AttrId, FxHashMap, FxHashSet, RelError, Relation, Schema, SmallVec, Sym, Tid, Tuple, Update,
    UpdateBatch,
};
use std::sync::Arc;

/// One tuple's dictionary symbols, copied out of the store so the HEV walk
/// can run while the detector is mutably borrowed.
type RowSyms = SmallVec<Sym, 8>;

/// One constant CFD's shipment plan: the coordinator site plus each
/// participating site's tid-ordered candidate list.
type ConstPlan = (SiteId, Vec<(SiteId, Vec<Tid>)>);

/// Messages exchanged by the vertical detector.
#[derive(Debug, Clone)]
pub enum VerMsg {
    /// One equivalence-class id shipped between HEV sites.
    Eqid(EqId),
    /// Candidate tuple ids for a constant CFD, shipped to its coordinator
    /// (sorted ascending — `incVer` line 7 merges them in linear time).
    ConstCands(Vec<Tid>),
}

impl Wire for VerMsg {
    fn wire_size(&self) -> usize {
        match self {
            VerMsg::Eqid(_) => 8,
            VerMsg::ConstCands(tids) => 8 * tids.len(),
        }
    }

    fn eqid_count(&self) -> usize {
        match self {
            VerMsg::Eqid(_) => 1,
            VerMsg::ConstCands(_) => 0,
        }
    }
}

/// The incremental violation detector for vertically partitioned data.
pub struct VerticalDetector {
    schema: Arc<Schema>,
    cfds: Vec<Cfd>,
    scheme: VerticalScheme,
    plan: HevPlan,
    /// Base HEVs, one per attribute (located at `plan.base_site(attr)`).
    bases: FxHashMap<AttrId, BaseHev>,
    /// Non-base HEV stores, parallel to `plan.nodes()`.
    node_stores: Vec<NonBaseHev>,
    /// One IDX per variable CFD (at `plan.idx_site(cfd)`).
    idxs: FxHashMap<CfdId, Idx>,
    /// The logical relation `D`, and the only copy of its rows: site `i`'s
    /// fragment is the columns `scheme.attrs_of(i)` of it. Columnar: its
    /// [`relation::ColumnStore`] interns every live value once, and the
    /// HEV walks below borrow the stored row symbols directly — there is
    /// no separate encoded mirror.
    current: Relation,
    violations: Violations,
    net: Network<VerMsg>,
    /// The merged multi-CFD evaluation plan: one dispatch scan decides
    /// which variable CFDs a tuple falls under ([`cfd::SharedPlan`]).
    shared_plan: Arc<SharedPlan>,
    /// Reusable scratch for the shared dispatch pass.
    scratch: MatchScratch,
    /// Multi-CFD evaluation mode: shared plan (default) or the legacy
    /// per-CFD loop (kept as a differential baseline).
    sharing: SharingMode,
}

impl VerticalDetector {
    /// Build a detector over `d` with the default HEV chains of §4.
    /// The initial load (computing `V(Σ, D)` and the indices) is not
    /// metered: the paper's problem statement takes `V(Σ, D)` as given.
    pub fn new(
        schema: Arc<Schema>,
        cfds: Vec<Cfd>,
        scheme: VerticalScheme,
        d: &Relation,
    ) -> Result<Self, DetectError> {
        let plan = HevPlan::default_chains(&cfds, &scheme);
        Self::with_plan(schema, cfds, scheme, plan, d)
    }

    /// Build with an explicit (e.g. optimized) plan.
    pub fn with_plan(
        schema: Arc<Schema>,
        cfds: Vec<Cfd>,
        scheme: VerticalScheme,
        plan: HevPlan,
        d: &Relation,
    ) -> Result<Self, DetectError> {
        let n = scheme.n_sites();
        let shared_plan = Arc::new(SharedPlan::new(&cfds));
        let mut det = VerticalDetector {
            bases: FxHashMap::default(),
            node_stores: plan.nodes().iter().map(|_| NonBaseHev::new()).collect(),
            idxs: cfds
                .iter()
                .filter(|c| c.is_variable())
                .map(|c| (c.id, Idx::new()))
                .collect(),
            current: Relation::new(schema.clone()),
            violations: Violations::new(cfds.len()),
            net: Network::new(n),
            shared_plan,
            scratch: MatchScratch::default(),
            sharing: SharingMode::default(),
            schema,
            cfds,
            scheme,
            plan,
        };
        // Bulk-load D through the insertion machinery, then forget the
        // traffic: incremental metering starts at the first `apply`.
        crate::detector::ingest(d, |window| det.apply(window))?;
        det.net.reset_stats();
        Ok(det)
    }

    /// Current violation set `V(Σ, D)`.
    pub fn violations(&self) -> &Violations {
        &self.violations
    }

    /// Cumulative network statistics since construction (or last reset).
    pub fn stats(&self) -> &cluster::NetStats {
        self.net.stats()
    }

    /// Reset network statistics.
    pub fn reset_stats(&mut self) {
        self.net.reset_stats();
    }

    /// The HEV plan in use.
    pub fn plan(&self) -> &HevPlan {
        &self.plan
    }

    /// The merged multi-CFD evaluation plan.
    pub fn shared_plan(&self) -> &Arc<SharedPlan> {
        &self.shared_plan
    }

    /// Current multi-CFD evaluation mode.
    pub fn sharing_mode(&self) -> SharingMode {
        self.sharing
    }

    /// Select the multi-CFD evaluation mode. Both modes produce
    /// bit-identical violations, `ΔV` and shipments — [`SharingMode::PerCfd`]
    /// only re-enables the legacy `O(|Σ| · |X|)` loop as a baseline.
    pub fn set_sharing(&mut self, mode: SharingMode) {
        self.sharing = mode;
    }

    /// The rule set.
    pub fn cfds(&self) -> &[Cfd] {
        &self.cfds
    }

    /// The global schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The logical relation (`scheme.partition` of it materialises any
    /// fragment a caller wants).
    pub fn current(&self) -> &Relation {
        &self.current
    }

    /// The value dictionary (size reporting, tests) — the relation's own
    /// store dictionary.
    pub fn pool(&self) -> &relation::ValuePool {
        self.current.pool()
    }

    /// Peak-relevant index sizes: (dictionary entries, base HEV classes,
    /// non-base HEV classes, IDX member tuples) — benchmark reporting.
    pub fn index_sizes(&self) -> (usize, usize, usize, usize) {
        (
            self.current.pool().len(),
            self.bases.values().map(BaseHev::len).sum(),
            self.node_stores.iter().map(NonBaseHev::len).sum(),
            self.idxs.values().map(Idx::n_tuples).sum(),
        )
    }

    /// Apply a batch update `ΔD`, returning `ΔV` — algorithm `incVer`.
    pub fn apply(&mut self, delta: &UpdateBatch) -> Result<DeltaV, DetectError> {
        // Line 1: remove updates cancelling each other.
        let delta = crate::detector::admit(&self.current, delta)?;
        let mut dv = DeltaV::default();

        // Lines 4–10: constant CFDs, batch candidate protocol.
        self.constant_cfds(&delta, &mut dv)?;

        // Lines 11–16: variable CFDs (locally checkable ones ship nothing
        // because their plan nodes are co-located).
        for op in delta.ops() {
            match op {
                Update::Insert(t) => self.insert_variable(t.clone(), &mut dv)?,
                Update::Delete(tid) => self.delete_variable(*tid, &mut dv)?,
            }
        }
        dv.settle();
        Ok(dv)
    }

    // ------------------------------------------------------------------
    // Constant CFDs (incVer lines 4–10)
    // ------------------------------------------------------------------

    fn constant_cfds(&mut self, delta: &UpdateBatch, dv: &mut DeltaV) -> Result<(), DetectError> {
        // Phase 1 (read-only, parallel when the batch is large): per
        // constant CFD, the site-local candidate lists of `incVer` lines
        // 4–6 — pure functions of (CFD, scheme, ΔD⁺), computed on scoped
        // threads. Phase 2 below replays them serially so shipment
        // metering and violation mutation stay deterministic.
        let const_idx: Vec<usize> = (0..self.cfds.len())
            .filter(|&c| self.cfds[c].is_constant())
            .collect();
        if const_idx.is_empty() {
            return Ok(());
        }
        let insertions: Vec<&Tuple> = delta.insertions().collect();
        let cfds = &self.cfds;
        let scheme = &self.scheme;
        // Operator sharing for the candidate scan: constant CFDs whose
        // plans carry identical restrict operators (same atoms, same
        // coordinator) produce identical candidate lists, so compute the
        // list once per distinct signature. This shares computation only
        // — phase 2 below still meters and ships per CFD, keeping `|M|`
        // bit-identical to the per-CFD loop.
        let mut uniq: Vec<usize> = Vec::new(); // representative positions
        let mut slot_of: Vec<usize> = Vec::with_capacity(const_idx.len());
        if self.sharing == SharingMode::Shared {
            let mut seen: FxHashMap<(SiteId, Vec<(AttrId, relation::Value)>), usize> =
                FxHashMap::default();
            for (pos, &c) in const_idx.iter().enumerate() {
                let cfd = &cfds[c];
                let mut atoms = cfd.constant_atoms();
                atoms.sort_unstable_by_key(|(a, _)| *a);
                match seen.entry((scheme.primary_site(cfd.rhs), atoms)) {
                    std::collections::hash_map::Entry::Occupied(e) => slot_of.push(*e.get()),
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(uniq.len());
                        slot_of.push(uniq.len());
                        uniq.push(pos);
                    }
                }
            }
        } else {
            uniq.extend(0..const_idx.len());
            slot_of.extend(0..const_idx.len());
        }
        let computed = crate::par::par_map(
            uniq.len(),
            insertions.len() * uniq.len() >= crate::par::PAR_THRESHOLD,
            &|u| {
                let cfd = &cfds[const_idx[uniq[u]]];
                let coord = scheme.primary_site(cfd.rhs);
                let atoms = cfd.constant_atoms();
                // Group atoms by evaluation site (prefer the coordinator
                // when it holds the attribute — zero shipment).
                let mut by_site: FxHashMap<SiteId, Vec<&(AttrId, relation::Value)>> =
                    FxHashMap::default();
                for av in &atoms {
                    let site = if scheme.local_pos(coord, av.0).is_some() {
                        coord
                    } else {
                        scheme.primary_site(av.0)
                    };
                    by_site.entry(site).or_default().push(av);
                }
                // Candidate lists per participating site, in tid order.
                let mut sites: Vec<SiteId> = by_site.keys().copied().collect();
                sites.sort_unstable();
                let cands: Vec<(SiteId, Vec<Tid>)> = sites
                    .into_iter()
                    .map(|site| {
                        let atoms_s = &by_site[&site];
                        let mut cands: Vec<Tid> = insertions
                            .iter()
                            .filter(|t| atoms_s.iter().all(|(a, v)| t.get(*a) == v))
                            .map(|t| t.tid)
                            .collect();
                        // The sort-merge of incVer line 7 requires ascending
                        // tids; batch order interleaves insertions
                        // arbitrarily.
                        cands.sort_unstable();
                        (site, cands)
                    })
                    .collect();
                (coord, cands)
            },
        );
        let plans: Vec<ConstPlan> = slot_of.iter().map(|&u| computed[u].clone()).collect();

        // Phase 2: metering, sort-merge and violation maintenance, in CFD
        // order.
        for (i, (coord, cand_lists)) in const_idx.iter().zip(plans) {
            let cfd = self.cfds[*i].clone();
            // Deletions: a deleted tuple leaves V(φ) iff it was in it — the
            // old output is available, no shipment needed.
            for tid in delta.deletions() {
                if self.violations.remove(cfd.id, tid) {
                    dv.remove(cfd.id, tid);
                }
            }
            for (site, cands) in &cand_lists {
                if *site != coord {
                    self.net
                        .ship(*site, coord, &VerMsg::ConstCands(cands.clone()))?;
                }
            }
            // Sort-merge intersection (lists are tid-ordered).
            let survivors: Vec<Tid> = match cand_lists.len() {
                0 => delta.insertions().map(|t| t.tid).collect(),
                _ => {
                    let lists: Vec<Vec<Tid>> = cand_lists.into_iter().map(|(_, c)| c).collect();
                    intersect_sorted(&lists)
                }
            };
            let mut surviving: FxHashSet<Tid> = survivors.into_iter().collect();
            for t in delta.insertions() {
                if surviving.remove(&t.tid)
                    && !cfd.rhs_pattern.matches(t.get(cfd.rhs))
                    && self.violations.add(cfd.id, t.tid)
                {
                    dv.add(cfd.id, t.tid);
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Variable CFDs (incVIns / incVDel, Fig. 4)
    // ------------------------------------------------------------------

    /// Variable CFDs whose LHS pattern matches `t`, in id order — under
    /// [`SharingMode::Shared`] via one dispatch pass over the shared
    /// plan's posting index instead of the per-CFD loop.
    fn matched_variable(&mut self, t: &Tuple) -> Vec<CfdId> {
        match self.sharing {
            SharingMode::PerCfd => self
                .cfds
                .iter()
                .filter(|c| c.is_variable() && c.matches_lhs(t))
                .map(|c| c.id)
                .collect(),
            SharingMode::Shared => {
                let plan = &self.shared_plan;
                plan.matched(t, &mut self.scratch)
                    .iter()
                    .copied()
                    .filter(|&c| plan.is_variable(c))
                    .collect()
            }
        }
    }

    /// [`Self::matched_variable`] for a live stored tuple, checking
    /// patterns against the store's borrowed values (no materialization).
    fn matched_variable_at(&mut self, row: relation::RowId) -> Vec<CfdId> {
        let store = self.current.store();
        match self.sharing {
            SharingMode::PerCfd => self
                .cfds
                .iter()
                .filter(|c| {
                    c.is_variable()
                        && c.lhs
                            .iter()
                            .zip(&c.lhs_pattern)
                            .all(|(&a, p)| p.matches(store.value(row, a)))
                })
                .map(|c| c.id)
                .collect(),
            SharingMode::Shared => {
                let plan = &self.shared_plan;
                plan.matched_by(|a| store.value(row, a), &mut self.scratch)
                    .iter()
                    .copied()
                    .filter(|&c| plan.is_variable(c))
                    .collect()
            }
        }
    }

    /// Nodes and base attributes needed to anchor `cfds` for one tuple.
    fn needed(&self, cfds: &[CfdId]) -> (Vec<NodeId>, Vec<AttrId>) {
        let mut nodes: FxHashSet<NodeId> = FxHashSet::default();
        let mut bases: FxHashSet<AttrId> = FxHashSet::default();
        for &c in cfds {
            for n in self.plan.required_nodes(c) {
                nodes.insert(n);
            }
            if let Some(t) = self.plan.target(c) {
                if let Input::Base(a) = t.lhs {
                    bases.insert(a);
                }
            }
        }
        for &n in &nodes {
            for inp in &self.plan.nodes()[n].inputs {
                if let Input::Base(a) = inp {
                    bases.insert(*a);
                }
            }
        }
        let mut nodes: Vec<NodeId> = nodes.into_iter().collect();
        nodes.sort_unstable(); // topological (ids are topo-ordered)
        let mut bases: Vec<AttrId> = bases.into_iter().collect();
        bases.sort_unstable();
        (nodes, bases)
    }

    /// Walk the plan for the row symbols `st` (one [`Sym`] per attribute,
    /// copied out of the store), producing eqids per input and
    /// metering cross-site shipments (each `(producer, destination)` pair
    /// once).
    fn walk(
        &mut self,
        st: &[Sym],
        nodes: &[NodeId],
        bases: &[AttrId],
        acquire: bool,
    ) -> Result<FxHashMap<Input, EqId>, DetectError> {
        let mut eqids: FxHashMap<Input, EqId> = FxHashMap::default();
        for &a in bases {
            let store = self.bases.entry(a).or_default();
            let s = st[a as usize];
            let id = if acquire {
                store.acquire(s)
            } else {
                store
                    .lookup(s)
                    .expect("deletion walk: value must have a live class")
            };
            eqids.insert(Input::Base(a), id);
        }
        let mut shipped: FxHashSet<(Input, SiteId)> = FxHashSet::default();
        for &n in nodes {
            let node = self.plan.nodes()[n].clone();
            let key: EqKey = node.inputs.iter().map(|i| eqids[i]).collect();
            for &inp in &node.inputs {
                let src = self.plan.site_of(inp);
                if src != node.site && shipped.insert((inp, node.site)) {
                    self.net.ship(src, node.site, &VerMsg::Eqid(eqids[&inp]))?;
                }
            }
            let store = &mut self.node_stores[n];
            let id = if acquire {
                store.acquire(&key)
            } else {
                store
                    .lookup(&key)
                    .expect("deletion walk: eqid vector must have a live class")
            };
            eqids.insert(Input::Node(n), id);
        }
        Ok(eqids)
    }

    /// Release HEV references after a deletion, in reverse topological
    /// order so parents release before their inputs disappear.
    fn release(
        &mut self,
        st: &[Sym],
        nodes: &[NodeId],
        bases: &[AttrId],
        eqids: &FxHashMap<Input, EqId>,
    ) {
        for &n in nodes.iter().rev() {
            let key: EqKey = self.plan.nodes()[n]
                .inputs
                .iter()
                .map(|i| eqids[i])
                .collect();
            self.node_stores[n].release(&key);
        }
        for &a in bases {
            self.bases
                .get_mut(&a)
                .expect("acquired earlier")
                .release(st[a as usize]);
        }
    }

    /// `incVIns` for every variable CFD matching `t`.
    fn insert_variable(&mut self, t: Tuple, dv: &mut DeltaV) -> Result<(), DetectError> {
        // Fail *before* mutating anything: the relation insert below has
        // both of its error conditions checked up front, so an error
        // return cannot leak a row or HEV refcounts. (The metered
        // ship inside `walk` is also `?`-fallible, but only against a plan
        // with out-of-range site ids — plans built by
        // `default_chains`/`optimize` place nodes on scheme sites by
        // construction.)
        if t.arity() != self.schema.arity() {
            return Err(RelError::ArityMismatch {
                expected: self.schema.arity(),
                got: t.arity(),
            }
            .into());
        }
        if self.current.contains(t.tid) {
            return Err(RelError::DuplicateTid(t.tid).into());
        }
        let matched = self.matched_variable(&t);
        // Maintain data first: interning the row into the store is the
        // single dictionary encode; the walk below borrows the stored
        // symbols.
        let tid = t.tid;
        self.current.insert(t)?;
        let row = self.current.row_of(tid).expect("just inserted");
        let st: RowSyms = self.current.store().row_syms(row).collect();
        let (nodes, bases) = self.needed(&matched);
        let eqids = self.walk(&st, &nodes, &bases, true)?;
        for c in matched {
            let target = self.plan.target(c).expect("variable CFD has a target");
            let eq_x = eqids[&target.lhs];
            let eq_xb = eqids[&Input::Node(target.xb)];
            let idx = self.idxs.get_mut(&c).expect("IDX exists for variable CFD");

            // Case analysis of Fig. 4 (before inserting t).
            let mut added: Vec<Tid> = Vec::new();
            match idx.n_classes(eq_x) {
                0 => {}
                1 => {
                    let (&k, members) = idx
                        .classes(eq_x)
                        .expect("group exists")
                        .iter()
                        .next()
                        .expect("non-empty group");
                    if k != eq_xb {
                        // (t, t′) violate φ: t plus the whole class [t′]_{X∪B}.
                        added.push(tid);
                        added.extend(members.iter().copied());
                    }
                }
                _ => added.push(tid),
            }
            idx.insert(eq_x, eq_xb, tid);
            for tid in added {
                if self.violations.add(c, tid) {
                    dv.add(c, tid);
                }
            }
        }
        Ok(())
    }

    /// `incVDel` for every variable CFD matching the stored tuple.
    fn delete_variable(&mut self, tid: Tid, dv: &mut DeltaV) -> Result<(), DetectError> {
        let row = self.current.row_of(tid).ok_or(RelError::MissingTid(tid))?;
        let st: RowSyms = self.current.store().row_syms(row).collect();
        let matched = self.matched_variable_at(row);
        let (nodes, bases) = self.needed(&matched);
        let eqids = self.walk(&st, &nodes, &bases, false)?;
        for c in matched {
            let target = self.plan.target(c).expect("variable CFD has a target");
            let eq_x = eqids[&target.lhs];
            let eq_xb = eqids[&Input::Node(target.xb)];
            let idx = self.idxs.get_mut(&c).expect("IDX exists for variable CFD");

            // Case analysis of Fig. 4 (before removing t).
            let mut removed: Vec<Tid> = Vec::new();
            let cls_size = idx.class_size(eq_x, eq_xb);
            debug_assert!(cls_size >= 1, "deleted tuple must be indexed");
            let n = idx.n_classes(eq_x);
            if cls_size > 1 {
                // Tuples equal to t on X∪{B} remain: violations persist,
                // only t leaves (if it was a violation at all).
                if n > 1 {
                    removed.push(tid);
                }
            } else {
                match n {
                    0 | 1 => {} // t alone in its group: was not a violation
                    2 => {
                        // The remaining class stops violating with t gone.
                        removed.push(tid);
                        let (_, members) =
                            idx.other_class(eq_x, eq_xb).expect("exactly two classes");
                        removed.extend(members.iter().copied());
                    }
                    _ => removed.push(tid),
                }
            }
            idx.remove(eq_x, eq_xb, tid);
            for r in removed {
                if self.violations.remove(c, r) {
                    dv.remove(c, r);
                }
            }
        }
        self.release(&st, &nodes, &bases, &eqids);
        // Deleting the row releases the dictionary references.
        self.current.delete_quiet(tid)?;
        Ok(())
    }
}

impl Detector for VerticalDetector {
    fn strategy(&self) -> &'static str {
        "incVer"
    }

    fn schema(&self) -> &Arc<Schema> {
        VerticalDetector::schema(self)
    }

    fn cfds(&self) -> &[Cfd] {
        VerticalDetector::cfds(self)
    }

    fn current(&self) -> &Relation {
        VerticalDetector::current(self)
    }

    fn violations(&self) -> &Violations {
        VerticalDetector::violations(self)
    }

    fn apply(&mut self, delta: &UpdateBatch) -> Result<DeltaV, DetectError> {
        VerticalDetector::apply(self, delta)
    }

    fn net(&self) -> cluster::NetReport {
        cluster::NetReport::single(self.net.stats().clone())
    }

    fn reset_stats(&mut self) {
        VerticalDetector::reset_stats(self);
    }
}

/// Sort-merge intersection of ascending tid lists (`incVer` line 7).
fn intersect_sorted(lists: &[Vec<Tid>]) -> Vec<Tid> {
    debug_assert!(!lists.is_empty());
    let mut acc: Vec<Tid> = lists[0].clone();
    for l in &lists[1..] {
        let mut out = Vec::with_capacity(acc.len().min(l.len()));
        let (mut i, mut j) = (0usize, 0usize);
        while i < acc.len() && j < l.len() {
            match acc[i].cmp(&l[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(acc[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        acc = out;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::Value;

    /// EMP schema of Fig. 2 (attributes relevant to the CFDs).
    fn emp_schema() -> Arc<Schema> {
        Schema::new(
            "EMP",
            &["id", "grade", "CC", "AC", "zip", "street", "city"],
            "id",
        )
        .unwrap()
    }

    fn emp_tuple(
        tid: Tid,
        grade: &str,
        cc: i64,
        ac: i64,
        zip: &str,
        street: &str,
        city: &str,
    ) -> Tuple {
        Tuple::new(
            tid,
            vec![
                Value::int(tid as i64),
                Value::str(grade),
                Value::int(cc),
                Value::int(ac),
                Value::str(zip),
                Value::str(street),
                Value::str(city),
            ],
        )
    }

    /// D0 of Fig. 2 (t1–t5).
    fn d0() -> Relation {
        let mut d = Relation::new(emp_schema());
        d.insert(emp_tuple(1, "A", 44, 131, "EH4 8LE", "Mayfield", "NYC"))
            .unwrap();
        d.insert(emp_tuple(2, "A", 44, 131, "EH2 4HF", "Preston", "EDI"))
            .unwrap();
        d.insert(emp_tuple(3, "B", 44, 131, "EH4 8LE", "Mayfield", "EDI"))
            .unwrap();
        d.insert(emp_tuple(4, "B", 44, 131, "EH4 8LE", "Mayfield", "EDI"))
            .unwrap();
        d.insert(emp_tuple(5, "C", 44, 131, "EH4 8LE", "Crichton", "EDI"))
            .unwrap();
        d
    }

    fn fig1_cfds(s: &Schema) -> Vec<Cfd> {
        vec![
            Cfd::from_names(
                0,
                s,
                &[("CC", Some(Value::int(44))), ("zip", None)],
                ("street", None),
            )
            .unwrap(),
            Cfd::from_names(
                1,
                s,
                &[("CC", Some(Value::int(44))), ("AC", Some(Value::int(131)))],
                ("city", Some(Value::str("EDI"))),
            )
            .unwrap(),
        ]
    }

    /// Vertical partition of Fig. 2: DV1 (name-ish attrs), DV2 (street,
    /// city, zip), DV3 (CC, AC, …).
    fn fig2_scheme(s: &Arc<Schema>) -> VerticalScheme {
        let a = |n: &str| s.attr_id(n).unwrap();
        VerticalScheme::new(
            s.clone(),
            vec![
                vec![a("grade")],
                vec![a("street"), a("city"), a("zip")],
                vec![a("CC"), a("AC")],
            ],
        )
        .unwrap()
    }

    fn detector() -> VerticalDetector {
        let s = emp_schema();
        let cfds = fig1_cfds(&s);
        let scheme = fig2_scheme(&s);
        VerticalDetector::new(s, cfds, scheme, &d0()).unwrap()
    }

    #[test]
    fn initial_violations_match_fig1() {
        let det = detector();
        let v = det.violations();
        let mut phi1: Vec<Tid> = v.of_cfd(0).iter().copied().collect();
        phi1.sort_unstable();
        assert_eq!(phi1, vec![1, 3, 4, 5]);
        let phi2: Vec<Tid> = v.of_cfd(1).iter().copied().collect();
        assert_eq!(phi2, vec![1]);
        // Load is unmetered.
        assert_eq!(det.stats().total_bytes(), 0);
    }

    #[test]
    fn example2_insertion_of_t6() {
        let mut det = detector();
        let mut delta = UpdateBatch::new();
        delta.insert(emp_tuple(6, "C", 44, 131, "EH4 8LE", "Mayfield", "EDI"));
        let dv = det.apply(&delta).unwrap();
        // ΔV = {t6} for φ1 (Example 2(1)); φ2 satisfied (city EDI).
        assert_eq!(dv.added, vec![(0, 6)]);
        assert!(dv.removed.is_empty());
        // Example 2(1)(b): a single eqid shipped suffices for φ1. Our plan
        // also anchors φ2's candidate protocol (no candidates here) and the
        // X∪{B} node; total eqid traffic stays O(1), far below the batch
        // recomputation, and includes the CC eqid of Example 6.
        assert!(det.stats().total_eqids() >= 1);
        assert!(det.stats().total_eqids() <= 4, "O(1) eqids per update");
    }

    #[test]
    fn example2_deletion_of_t4() {
        let mut det = detector();
        // First insert t6 as in the example.
        let mut d1 = UpdateBatch::new();
        d1.insert(emp_tuple(6, "C", 44, 131, "EH4 8LE", "Mayfield", "EDI"));
        det.apply(&d1).unwrap();
        det.reset_stats();
        // Then delete t4: only t4 leaves V (t3/t6 keep the Mayfield class
        // alive against Crichton's t5).
        let mut d2 = UpdateBatch::new();
        d2.delete(4);
        let dv = det.apply(&d2).unwrap();
        assert_eq!(dv.removed, vec![(0, 4)]);
        assert!(dv.added.is_empty());
        assert!(det.stats().total_eqids() <= 4);
    }

    #[test]
    fn deletion_collapsing_group_clears_class() {
        let mut det = detector();
        // Delete t5 (Crichton): the EH4 8LE group keeps only Mayfield
        // tuples → t1, t3, t4 stop violating φ1 too.
        let mut delta = UpdateBatch::new();
        delta.delete(5);
        let dv = det.apply(&delta).unwrap();
        let removed = dv.removed_tids_sorted();
        assert_eq!(removed, vec![1, 3, 4, 5]);
        // t1 still violates φ2 (NYC) → still a violation overall.
        assert!(det.violations().is_violation(1));
        assert!(!det.violations().is_violation(3));
    }

    #[test]
    fn constant_cfd_insert_and_delete() {
        let mut det = detector();
        // Insert a UK/131 tuple with a wrong city.
        let mut delta = UpdateBatch::new();
        delta.insert(emp_tuple(7, "A", 44, 131, "EH9 9ZZ", "Lauriston", "GLA"));
        let dv = det.apply(&delta).unwrap();
        assert!(dv.added.contains(&(1, 7)));
        // Delete it again: the mark is removed without shipment of tuples.
        let mut d2 = UpdateBatch::new();
        d2.delete(7);
        let dv2 = det.apply(&d2).unwrap();
        assert!(dv2.removed.contains(&(1, 7)));
        assert!(!det.violations().contains(1, 7));
    }

    #[test]
    fn non_matching_tuples_cost_nothing() {
        let mut det = detector();
        det.reset_stats();
        // A US tuple (CC=1) matches neither CFD pattern.
        let mut delta = UpdateBatch::new();
        delta.insert(emp_tuple(8, "A", 1, 212, "10001", "5th Ave", "NYC"));
        let dv = det.apply(&delta).unwrap();
        assert!(dv.is_empty());
        assert_eq!(
            det.stats().total_bytes(),
            0,
            "pattern filter avoids all shipment"
        );
    }

    #[test]
    fn modification_is_delete_plus_insert() {
        let mut det = detector();
        // Fix t1's street to Mayfield→Crichton? No: fix city NYC→EDI, which
        // clears φ2 while φ1 stays violated.
        let mut delta = UpdateBatch::new();
        delta.delete(1);
        delta.insert(emp_tuple(1, "A", 44, 131, "EH4 8LE", "Mayfield", "EDI"));
        let dv = det.apply(&delta).unwrap();
        assert!(dv.removed.contains(&(1, 1)), "φ2 mark removed");
        assert!(det.violations().contains(0, 1), "φ1 mark persists");
    }

    #[test]
    fn matches_oracle_after_batch() {
        let mut det = detector();
        let mut delta = UpdateBatch::new();
        delta.insert(emp_tuple(6, "C", 44, 131, "EH4 8LE", "Mayfield", "EDI"));
        delta.delete(4);
        delta.insert(emp_tuple(9, "B", 44, 131, "EH2 4HF", "Lauriston", "EDI"));
        delta.delete(2);
        det.apply(&delta).unwrap();

        let mut d = d0();
        delta.normalize(&d.clone()).apply(&mut d).unwrap();
        let oracle = cfd::naive::detect(det.cfds(), &d);
        assert_eq!(det.violations().marks_sorted(), oracle.marks_sorted());
    }

    #[test]
    fn intersect_sorted_works() {
        assert_eq!(
            intersect_sorted(&[vec![1, 3, 5, 7], vec![3, 4, 5], vec![3, 5, 9]]),
            vec![3, 5]
        );
        assert_eq!(intersect_sorted(&[vec![1, 2]]), vec![1, 2]);
        assert!(intersect_sorted(&[vec![1], vec![2]]).is_empty());
    }

    #[test]
    fn index_state_gc_on_full_teardown() {
        let mut det = detector();
        let mut delta = UpdateBatch::new();
        for tid in 1..=5 {
            delta.delete(tid);
        }
        det.apply(&delta).unwrap();
        assert!(det.violations().is_empty());
        assert!(det.current().is_empty());
        for idx in det.idxs.values() {
            assert!(idx.is_empty(), "IDX garbage-collected");
        }
        for b in det.bases.values() {
            assert!(b.is_empty(), "base HEVs garbage-collected");
        }
        for nstore in &det.node_stores {
            assert!(nstore.is_empty(), "non-base HEVs garbage-collected");
        }
        assert!(det.pool().is_empty(), "value dictionary garbage-collected");
    }

    #[test]
    fn failed_insert_leaks_no_dictionary_refs() {
        // `apply` normalizes away duplicate-tid inserts (they become
        // modifications), so exercise the `incVIns` precondition guards
        // directly: a rejected tuple must not acquire any dictionary or
        // HEV references.
        let mut det = detector();
        let dict_before = det.pool().len();
        let mut dv = DeltaV::default();
        let dup = emp_tuple(1, "Z", 44, 131, "ZZ9 9ZZ", "Nowhere", "GLA");
        assert!(matches!(
            det.insert_variable(dup, &mut dv),
            Err(DetectError::Rel(RelError::DuplicateTid(1)))
        ));
        let short = Tuple::new(99, vec![Value::int(99), Value::str("A")]);
        assert!(matches!(
            det.insert_variable(short, &mut dv),
            Err(DetectError::Rel(RelError::ArityMismatch { .. }))
        ));
        assert!(dv.is_empty());
        assert_eq!(
            det.pool().len(),
            dict_before,
            "no leaked dictionary entries"
        );
        // The detector remains usable: tearing everything down still GCs.
        let mut teardown = UpdateBatch::new();
        for tid in 1..=5 {
            teardown.delete(tid);
        }
        det.apply(&teardown).unwrap();
        assert!(det.pool().is_empty());
    }
}
