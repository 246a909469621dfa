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
//!   (cancelling pairs removed), variable CFDs run the single-update
//!   algorithms per operation, and constant CFDs are checked with the
//!   candidate-shipping protocol of lines 4–10: each site holding some of
//!   a CFD's constant atoms ships the tids of `ΔD⁺` matching them to the
//!   coordinator (an empty list is no message), whose sort-merge keeps the
//!   tids every list holds. Locally checkable CFDs (case 2 of §4) fall out
//!   automatically: their plan nodes are co-located, so the walk ships
//!   nothing.
//!
//! Both the communication cost (only eqids and candidate tids cross sites,
//! at most a constant number per update) and the computational cost (O(1)
//! hash probes per update per CFD) are `O(|ΔD| + |ΔV|)` — Proposition 6.
//!
//! # Compiled at build
//!
//! Everything that depends only on `(Σ, scheme, plan)` is compiled once,
//! by [`VerticalDetector::with_plan`], which also refuses a plan that does
//! not validate against the scheme; an update only reads it:
//!
//! * per variable CFD, its *anchors*: the plan nodes its `id[t_X]` and
//!   `id[t_{X∪B}]` need, in topological order, the base HEVs they read,
//!   and the eqid slots of the two ids;
//! * per plan node, the eqid slots of its inputs, and each input held at
//!   another site with the dense id of its `(input, destination)` pair;
//! * per constant CFD, its coordinator and its *scan*: per participating
//!   site, the atoms that site checks — one scan for every constant CFD
//!   with the same atoms and coordinator.
//!
//! Per update, the matched CFDs' node and base lists are unioned through
//! generation-stamped marks (the idiom of [`MatchScratch`]), which also
//! ship each pair once, and eqids live in a dense vector indexed by slot:
//! base HEVs by attribute, then plan nodes. Nothing is planned, hashed for
//! bookkeeping or spawned per update, and the candidate scan is one serial
//! pass over `ΔD⁺` that counts each site's list and computes the merge's
//! survivors at once. Base HEVs and IDXs are vectors indexed by attribute
//! and CFD id; an IDX group is §6's compact group ([`crate::idx`]).
//!
//! # Built from the store
//!
//! The paper takes `V(Σ, D)` as given; the build computes it without
//! replaying `D₀` through `apply`. `current` is a clone of `D₀`'s
//! [`Relation`] — its columns, dictionary and row ids as they are — and
//! one pass over its rows in tid order runs, per row, the indexing an
//! insert runs after storing its tuple, plus the constant CFDs' scan.
//! Tid order is the order a replay would insert in, so every class gets
//! the eqid a replay would give it and the HEV / IDX state is the same.
//! No tuple is materialised, no value re-interned, no `ΔV` kept.

use crate::detector::{DetectError, Detector};
use crate::hev::{BaseHev, EqId, EqKey, NonBaseHev};
use crate::idx::{Case, Idx};
use crate::plan::{HevPlan, Input, NodeId, PlanError};
use crate::StateCensus;
use cfd::{Cfd, CfdId, DeltaV, MatchScratch, SharedPlan, Violations};
use cluster::partition::VerticalScheme;
use cluster::{Meters, SiteId};
use relation::{
    AttrId, FxHashMap, RelError, Relation, RowId, Schema, Tid, Tuple, Update, UpdateBatch, Value,
};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// Wire bytes of one shipped eqid, and of one candidate tid.
const EQID_BYTES: usize = 8;
const TID_BYTES: usize = 8;

/// A variable CFD's anchors (constant CFDs keep the empty default).
#[derive(Default)]
struct Anchor {
    /// Plan nodes the two ids need, ascending (topological).
    nodes: Vec<NodeId>,
    /// Base HEVs the nodes (or a one-attribute `X`) read.
    bases: Vec<AttrId>,
    /// Eqid slots of `id[t_X]` and `id[t_{X∪B}]`.
    x: usize,
    xb: usize,
}

/// A plan node: where it lives, its key's input slots, and its inputs held
/// elsewhere as `(source site, pair id)`.
struct Step {
    site: SiteId,
    inputs: Vec<usize>,
    ships: Vec<(SiteId, usize)>,
}

/// A constant CFD: its coordinator (the primary site of its `B`) and scan.
struct ConstCfd {
    id: CfdId,
    coord: SiteId,
    scan: usize,
}

/// Everything an update reads, compiled from `(Σ, scheme, plan)`.
struct Compiled {
    /// Per CFD id.
    anchors: Vec<Anchor>,
    /// Per plan node.
    steps: Vec<Step>,
    n_pairs: usize,
    /// Constant CFDs, ascending.
    consts: Vec<ConstCfd>,
    /// Per scan, its range of `lists`: one `(site, atoms)` per
    /// participating site, ascending by site.
    scans: Vec<Range<usize>>,
    lists: Vec<(SiteId, Vec<(AttrId, Value)>)>,
}

impl Compiled {
    fn new(cfds: &[Cfd], scheme: &VerticalScheme, plan: &HevPlan) -> Result<Self, PlanError> {
        plan.validate(scheme)?;
        let arity = scheme.schema().arity();
        let slot = |input| match input {
            Input::Base(a) => a as usize,
            Input::Node(n) => arity + n,
        };
        let mut pairs: FxHashMap<(Input, SiteId), usize> = FxHashMap::default();
        let mut steps = Vec::with_capacity(plan.nodes().len());
        for node in plan.nodes() {
            let mut ships = Vec::new();
            for &input in &node.inputs {
                let src = plan.site_of(input);
                if src != node.site {
                    let next = pairs.len();
                    ships.push((src, *pairs.entry((input, node.site)).or_insert(next)));
                }
            }
            let inputs = node.inputs.iter().map(|&i| slot(i)).collect();
            steps.push(Step {
                site: node.site,
                inputs,
                ships,
            });
        }

        let mut anchors = Vec::with_capacity(cfds.len());
        let (mut consts, mut scans, mut lists) = (Vec::new(), Vec::new(), Vec::new());
        let mut scan_of: FxHashMap<(SiteId, Vec<(AttrId, Value)>), usize> = FxHashMap::default();
        for cfd in cfds {
            if cfd.is_constant() {
                anchors.push(Anchor::default());
                let coord = scheme.primary_site(cfd.rhs);
                let mut atoms = cfd.constant_atoms();
                atoms.sort_unstable_by_key(|(a, _)| *a);
                let next = scans.len();
                let scan = *scan_of.entry((coord, atoms.clone())).or_insert_with(|| {
                    // Each atom is checked at the coordinator when it holds
                    // the attribute (zero shipment), else at its primary site.
                    let mut by_site: BTreeMap<SiteId, Vec<(AttrId, Value)>> = BTreeMap::new();
                    for (a, v) in atoms {
                        let site = match scheme.local_pos(coord, a) {
                            Some(_) => coord,
                            None => scheme.primary_site(a),
                        };
                        by_site.entry(site).or_default().push((a, v));
                    }
                    let start = lists.len();
                    lists.extend(by_site);
                    scans.push(start..lists.len());
                    next
                });
                consts.push(ConstCfd {
                    id: cfd.id,
                    coord,
                    scan,
                });
                continue;
            }
            let target = plan.target(cfd.id).ok_or(PlanError::BadTarget(cfd.id))?;
            let nodes = plan.required_nodes(cfd.id);
            let inputs = nodes.iter().flat_map(|&n| &plan.nodes()[n].inputs);
            let mut bases: Vec<AttrId> = inputs
                .chain([&target.lhs])
                .filter_map(|i| match i {
                    Input::Base(a) => Some(*a),
                    Input::Node(_) => None,
                })
                .collect();
            bases.sort_unstable();
            bases.dedup();
            anchors.push(Anchor {
                nodes,
                bases,
                x: slot(target.lhs),
                xb: slot(Input::Node(target.xb)),
            });
        }
        Ok(Compiled {
            anchors,
            steps,
            n_pairs: pairs.len(),
            consts,
            scans,
            lists,
        })
    }
}

/// Per-update scratch, reused across updates: nothing here grows with the
/// data.
#[derive(Default)]
struct Walk {
    dispatch: MatchScratch,
    /// Variable CFDs the update matches, ascending.
    matched: Vec<CfdId>,
    /// The union of their anchors: nodes ascending, bases in any order.
    nodes: Vec<NodeId>,
    bases: Vec<AttrId>,
    /// Stamps of the current generation on nodes, bases and pairs.
    generation: u32,
    node_seen: Vec<u32>,
    base_seen: Vec<u32>,
    pair_seen: Vec<u32>,
    /// Eqids by slot.
    eq: Vec<EqId>,
    /// Per candidate list, the insertions of the batch it holds; per
    /// scan, whether the tuple at hand passed all its lists.
    hits: Vec<usize>,
    pass: Vec<bool>,
}

impl Walk {
    fn new(k: &Compiled, arity: usize) -> Self {
        Walk {
            node_seen: vec![0; k.steps.len()],
            base_seen: vec![0; arity],
            pair_seen: vec![0; k.n_pairs],
            eq: vec![0; arity + k.steps.len()],
            hits: vec![0; k.lists.len()],
            pass: vec![false; k.scans.len()],
            ..Walk::default()
        }
    }

    /// Variable CFDs whose LHS pattern the tuple `value_of` describes
    /// matches: one dispatch pass over the shared plan's posting index.
    fn dispatch<'v>(&mut self, plan: &SharedPlan, value_of: impl Fn(AttrId) -> &'v Value) {
        self.matched.clear();
        let hits = plan.matched_by(value_of, &mut self.dispatch);
        let variable = hits.iter().filter(|&&c| plan.is_variable(c));
        self.matched.extend(variable);
    }

    /// Union the matched CFDs' anchors into `nodes` / `bases` and open a
    /// generation for the pair marks.
    fn union(&mut self, k: &Compiled) {
        self.generation = self.generation.checked_add(1).unwrap_or_else(|| {
            self.node_seen.fill(0);
            self.base_seen.fill(0);
            self.pair_seen.fill(0);
            1
        });
        let g = self.generation;
        self.nodes.clear();
        self.bases.clear();
        for &c in &self.matched {
            let anchor = &k.anchors[c as usize];
            for &n in &anchor.nodes {
                if std::mem::replace(&mut self.node_seen[n], g) != g {
                    self.nodes.push(n);
                }
            }
            for &a in &anchor.bases {
                if std::mem::replace(&mut self.base_seen[a as usize], g) != g {
                    self.bases.push(a);
                }
            }
        }
        self.nodes.sort_unstable();
    }

    /// A node's HEV key: its inputs' eqids, computed earlier in the walk.
    fn key(&self, step: &Step) -> EqKey {
        step.inputs.iter().map(|&s| self.eq[s]).collect()
    }

    /// Lines 7–10 for one inserted tuple, which `value_of` describes: run
    /// every scan over it, counting each list that holds it into `hits`,
    /// and call `violates` with each constant CFD whose lists all hold it
    /// and whose `B` it fails.
    fn mark_constants<'v>(
        &mut self,
        (k, cfds): (&Compiled, &[Cfd]),
        value_of: impl Fn(AttrId) -> &'v Value,
        mut violates: impl FnMut(CfdId),
    ) {
        for (pass, lists) in self.pass.iter_mut().zip(&k.scans) {
            *pass = true;
            for l in lists.clone() {
                if k.lists[l].1.iter().all(|(a, v)| value_of(*a) == v) {
                    self.hits[l] += 1;
                } else {
                    *pass = false;
                }
            }
        }
        for c in &k.consts {
            let cfd = &cfds[c.id as usize];
            if self.pass[c.scan] && !cfd.rhs_pattern.matches(value_of(cfd.rhs)) {
                violates(c.id);
            }
        }
    }
}

/// The incremental violation detector for vertically partitioned data.
pub struct VerticalDetector {
    schema: Arc<Schema>,
    cfds: Vec<Cfd>,
    /// Base HEVs by attribute (each at its base site in the plan).
    bases: Vec<BaseHev>,
    /// Non-base HEV stores, parallel to the plan's nodes.
    node_stores: Vec<NonBaseHev>,
    /// IDXs by CFD id (each at its `lhs` source's site in the plan; empty
    /// for constant CFDs).
    idxs: Vec<Idx>,
    /// The logical relation `D`, and the only copy of its rows: site `i`'s
    /// fragment is the columns the scheme places at `i`. Columnar: its
    /// [`relation::ColumnStore`] interns every live value once, and the
    /// HEV walks below borrow the stored row symbols directly — there is
    /// no separate encoded mirror.
    current: Relation,
    violations: Violations,
    /// Every shipment the protocol makes, metered per link (modeled `|M|`
    /// only: nothing is framed).
    meters: Meters,
    /// The merged multi-CFD evaluation plan: one dispatch scan decides
    /// which variable CFDs a tuple falls under ([`cfd::SharedPlan`]).
    shared_plan: Arc<SharedPlan>,
    compiled: Compiled,
    walk: Walk,
}

impl VerticalDetector {
    /// Build a detector over `d` with the default HEV chains of §4.
    /// The initial load (computing `V(Σ, D)` and the indices from `d`'s
    /// store) is not metered: the paper's problem statement takes
    /// `V(Σ, D)` as given.
    pub fn new(
        schema: Arc<Schema>,
        cfds: Vec<Cfd>,
        scheme: VerticalScheme,
        d: &Relation,
    ) -> Result<Self, DetectError> {
        let plan = HevPlan::default_chains(&cfds, &scheme);
        Self::with_plan(schema, cfds, scheme, plan, d)
    }

    /// Build with an explicit (e.g. optimized) plan, compiling it first: a
    /// catalog whose ids are not its positions is refused with
    /// [`DetectError::Analysis`], a `d` whose arity is not `schema`'s with
    /// [`RelError::ArityMismatch`] before anything is built, and a plan
    /// that does not validate against `scheme`, or has no target for a
    /// variable CFD, with [`DetectError::Plan`].
    pub fn with_plan(
        schema: Arc<Schema>,
        cfds: Vec<Cfd>,
        scheme: VerticalScheme,
        plan: HevPlan,
        d: &Relation,
    ) -> Result<Self, DetectError> {
        crate::detector::positional(&cfds)?;
        let current = d.clone_under(schema.clone())?;
        let compiled = Compiled::new(&cfds, &scheme, &plan)?;
        let arity = scheme.schema().arity();
        let mut det = VerticalDetector {
            bases: (0..arity).map(|_| BaseHev::new()).collect(),
            node_stores: plan.nodes().iter().map(|_| NonBaseHev::new()).collect(),
            idxs: cfds.iter().map(|_| Idx::new()).collect(),
            current,
            violations: Violations::new(cfds.len()),
            meters: Meters::modeled(scheme.n_sites()),
            shared_plan: Arc::new(SharedPlan::new(&cfds)),
            walk: Walk::new(&compiled, arity),
            compiled,
            schema,
            cfds,
        };
        // `current` is a clone of `d`: `d`'s rows, row ids and values are
        // its own. Tid order is a replay's insertion order, so every class
        // is acquired in the same order.
        let store = d.store();
        for (tid, row) in d.scan() {
            let value_of = |a| store.value(row, a);
            det.index_row((tid, row), value_of, |_, _| {})?;
            let rules = (&det.compiled, &det.cfds[..]);
            det.walk.mark_constants(rules, value_of, |c| {
                det.violations.add(c, tid);
            });
        }
        // Incremental metering starts at the first `apply`.
        det.meters.reset();
        Ok(det)
    }

    /// Cumulative traffic since construction (or last reset).
    pub fn meters(&self) -> &Meters {
        &self.meters
    }

    /// The value dictionary (size reporting, tests) — the relation's own
    /// store dictionary.
    pub fn pool(&self) -> &relation::ValuePool {
        self.current.pool()
    }

    /// Peak-relevant index sizes: (dictionary entries, base HEV classes,
    /// non-base HEV classes, IDX member tuples), pinned on a fixed-seed run
    /// by `tests/gated_integers.rs`.
    pub fn index_sizes(&self) -> (usize, usize, usize, usize) {
        (
            self.current.pool().len(),
            self.bases.iter().map(BaseHev::len).sum(),
            self.node_stores.iter().map(NonBaseHev::len).sum(),
            self.idxs.iter().map(Idx::n_tuples).sum(),
        )
    }

    /// Census of the IDX groups over every CFD — `(CFD, X-value)` groups,
    /// their classes, `(CFD, tid)` memberships and spills — with the heap
    /// bytes of the IDX and HEV tables. `O(state)`; nothing is counted
    /// unless this is called.
    pub fn state_census(&self) -> StateCensus {
        let mut census = StateCensus::default();
        self.idxs.iter().for_each(|idx| idx.count_into(&mut census));
        let bases = self.bases.iter().map(BaseHev::resident_bytes);
        let nodes = self.node_stores.iter().map(NonBaseHev::resident_bytes);
        census.resident_bytes += bases.chain(nodes).sum::<usize>();
        census
    }

    // ------------------------------------------------------------------
    // Constant CFDs (incVer lines 4–10)
    // ------------------------------------------------------------------

    /// One serial scan of `ΔD⁺` against every compiled scan: per site
    /// list, how many insertions it holds (lines 4–6), and per tuple
    /// whether every list holds it — the sort-merge of line 7 — and then
    /// violates on `B` (lines 8–10). A deleted tuple leaves `V(φ)` iff it
    /// was in it: the old output is at hand, nothing ships.
    fn constant_cfds(&mut self, delta: &UpdateBatch, dv: &mut DeltaV) {
        let (k, w) = (&self.compiled, &mut self.walk);
        for c in &k.consts {
            for tid in delta.deletions() {
                if self.violations.remove(c.id, tid) {
                    dv.remove(c.id, tid);
                }
            }
        }
        w.hits.fill(0);
        for t in delta.insertions() {
            let value_of = |a| t.get(a);
            w.mark_constants((k, &self.cfds), value_of, |c| {
                if self.violations.add(c, t.tid) {
                    dv.add(c, t.tid);
                }
            });
        }
        // Each participating site's list, shipped to the coordinator per
        // CFD: `8 B` a tid, and no message for an empty list.
        for c in &k.consts {
            for l in k.scans[c.scan].clone() {
                let site = k.lists[l].0;
                if site != c.coord && w.hits[l] > 0 {
                    self.meters
                        .modeled
                        .record(site, c.coord, TID_BYTES * w.hits[l], 0);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Variable CFDs (incVIns / incVDel, Fig. 4)
    // ------------------------------------------------------------------

    /// Compute the eqids of the matched CFDs' anchors for `row` — acquiring
    /// classes for an insert, looking them up for a delete — then meter
    /// each cross-site `(input, destination)` pair once. A delete whose
    /// classes are missing returns [`DetectError::Internal`] having
    /// changed nothing; an insert cannot fail.
    fn eqids(&mut self, row: RowId, insert: bool) -> Result<(), DetectError> {
        let (k, w) = (&self.compiled, &mut self.walk);
        w.union(k);
        let store = self.current.store();
        let missing = |what: String| {
            let tid = store.tid_of(row);
            DetectError::Internal(format!(
                "deletion walk: tuple {tid} has no live class {what}"
            ))
        };
        for &a in &w.bases {
            let (hev, s) = (&mut self.bases[a as usize], store.sym(row, a));
            w.eq[a as usize] = if insert {
                hev.acquire(s)
            } else {
                let what = || missing(format!("in the base HEV of attribute #{a}"));
                hev.lookup(s).ok_or_else(what)?
            };
        }
        let arity = self.bases.len();
        for &n in &w.nodes {
            let (hev, key) = (&mut self.node_stores[n], w.key(&k.steps[n]));
            w.eq[arity + n] = if insert {
                hev.acquire(&key)
            } else {
                hev.lookup(&key)
                    .ok_or_else(|| missing(format!("in plan node {n}")))?
            };
        }
        for &n in &w.nodes {
            let step = &k.steps[n];
            for &(src, pair) in &step.ships {
                if std::mem::replace(&mut w.pair_seen[pair], w.generation) != w.generation {
                    self.meters.modeled.record(src, step.site, EQID_BYTES, 1);
                }
            }
        }
        Ok(())
    }

    /// `incVIns` for every variable CFD matching `t`.
    fn insert_variable(&mut self, t: &Tuple, dv: &mut DeltaV) -> Result<(), DetectError> {
        // Maintain data first: storing the row is the single dictionary
        // encode, and the store refuses a wrong arity or a live tid before
        // mutating anything. The walk after it cannot fail (the plan was
        // validated at build), so an error cannot leak a row or refcounts.
        let row = self.current.insert_row(t.tid, t.values.iter())?;
        self.index_row((t.tid, row), |a| t.get(a), |c, m| dv.add(c, m))
    }

    /// Index the stored row `row` of `tid`, whose values `value_of` reads,
    /// under every variable CFD they match: acquire its classes, enter it
    /// into each matched IDX and mark what the Fig. 4 case moves into `V`,
    /// passing each new mark to `added`. An insert runs it after storing
    /// its tuple, the build on every row of `D₀`.
    fn index_row<'v>(
        &mut self,
        (tid, row): (Tid, RowId),
        value_of: impl Fn(AttrId) -> &'v Value,
        mut added: impl FnMut(CfdId, Tid),
    ) -> Result<(), DetectError> {
        self.walk.dispatch(&self.shared_plan, value_of);
        self.eqids(row, true)?;
        let (k, w) = (&self.compiled, &self.walk);
        for &c in &w.matched {
            let anchor = &k.anchors[c as usize];
            let (x, xb) = (w.eq[anchor.x], w.eq[anchor.xb]);
            let idx = &mut self.idxs[c as usize];
            let case = idx.insert(x, xb, tid);
            fan(idx, case, x, tid, |m| {
                if self.violations.add(c, m) {
                    added(c, m);
                }
            });
        }
        Ok(())
    }

    /// `incVDel` for every variable CFD matching the stored tuple.
    fn delete_variable(&mut self, tid: Tid, dv: &mut DeltaV) -> Result<(), DetectError> {
        let row = self.current.row_of(tid).ok_or(RelError::MissingTid(tid))?;
        let store = self.current.store();
        self.walk
            .dispatch(&self.shared_plan, |a| store.value(row, a));
        self.eqids(row, false)?;
        let (k, w) = (&self.compiled, &self.walk);
        for &c in &w.matched {
            let anchor = &k.anchors[c as usize];
            let (x, xb) = (w.eq[anchor.x], w.eq[anchor.xb]);
            let idx = &mut self.idxs[c as usize];
            let case = idx.remove(x, xb, tid).ok_or_else(|| {
                DetectError::Internal(format!("CFD {c}: tuple {tid} is not in its IDX"))
            })?;
            fan(idx, case, x, tid, |m| {
                if self.violations.remove(c, m) {
                    dv.remove(c, m);
                }
            });
        }
        // Release HEV references in reverse topological order, so parents
        // release before their inputs disappear.
        let store = self.current.store();
        for &n in w.nodes.iter().rev() {
            self.node_stores[n].release(&w.key(&k.steps[n]));
        }
        for &a in &w.bases {
            self.bases[a as usize].release(store.sym(row, a));
        }
        // Deleting the row releases the dictionary references.
        self.current.delete_quiet(tid)?;
        Ok(())
    }
}

/// The tuples a Fig. 4 case moves into or out of `V(φ)`: `tid`, and for
/// [`Case::Group`] every member left in its group `x`.
fn fan(idx: &Idx, case: Case, x: EqId, tid: Tid, mut f: impl FnMut(Tid)) {
    if case != Case::Nothing {
        f(tid);
    }
    if case == Case::Group {
        idx.for_each_member(x, f);
    }
}

impl Detector for VerticalDetector {
    fn strategy(&self) -> &'static str {
        "incVer"
    }

    /// The global schema.
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The rule set.
    fn cfds(&self) -> &[Cfd] {
        &self.cfds
    }

    /// The logical relation (`scheme.partition` of it materialises any
    /// fragment a caller wants).
    fn current(&self) -> &Relation {
        &self.current
    }

    /// Current violation set `V(Σ, D)`.
    fn violations(&self) -> &Violations {
        &self.violations
    }

    /// Apply a batch update `ΔD`, returning `ΔV` — algorithm `incVer`.
    fn apply(&mut self, delta: &UpdateBatch) -> Result<DeltaV, DetectError> {
        // Line 1: remove updates cancelling each other.
        let delta = crate::detector::admit(&self.current, delta)?;
        let mut dv = DeltaV::default();

        // Lines 11–16: variable CFDs (locally checkable ones ship nothing
        // because their plan nodes are co-located). They run first: an
        // update whose walk finds the state contradicting itself fails
        // before it mutates anything, and before the constant CFDs below.
        for op in delta.ops() {
            match op {
                Update::Insert(t) => self.insert_variable(t, &mut dv)?,
                Update::Delete(tid) => self.delete_variable(*tid, &mut dv)?,
            }
        }

        // Lines 4–10: constant CFDs, batch candidate protocol.
        self.constant_cfds(&delta, &mut dv);
        dv.settle();
        Ok(dv)
    }

    fn net(&self) -> cluster::NetReport {
        self.meters.report("net")
    }

    /// Reset network statistics.
    fn reset_stats(&mut self) {
        self.meters.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{CfdTarget, HevNode, PlanBuilder};

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
        assert_eq!(det.meters().modeled.total_bytes(), 0);
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
        assert!(det.meters().modeled.total_eqids() >= 1);
        assert!(
            det.meters().modeled.total_eqids() <= 4,
            "O(1) eqids per update"
        );
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
        assert!(det.meters().modeled.total_eqids() <= 4);
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
        // Nor does a delete: φ2's candidate list from the CC/AC site to
        // the city site is empty both times, and an empty list is no
        // message.
        let mut delta = UpdateBatch::new();
        delta.delete(8);
        assert!(det.apply(&delta).unwrap().is_empty());
        let total = det.meters().modeled.total();
        assert_eq!(
            (total.bytes, total.messages),
            (0, 0),
            "pattern filter avoids all shipment"
        );
        // A matching insert ships a one-tid list beside φ1's eqids;
        // deleting it again ships the eqids and no list.
        let mut delta = UpdateBatch::new();
        delta.insert(emp_tuple(9, "A", 44, 131, "EH2 4HF", "Preston", "EDI"));
        det.apply(&delta).unwrap();
        let link = det.meters().modeled.pair(2, 1); // CC/AC site → city site
        assert_eq!(
            (link.messages, link.bytes),
            (link.eqids + 1, 8 * link.eqids + 8)
        );
        det.reset_stats();
        let mut delta = UpdateBatch::new();
        delta.delete(9);
        det.apply(&delta).unwrap();
        let total = det.meters().modeled.total();
        assert!(total.eqids > 0);
        assert_eq!(
            (total.messages, total.bytes),
            (total.eqids, 8 * total.eqids)
        );
    }

    #[test]
    fn a_plan_off_the_scheme_is_refused_at_build() {
        let s = emp_schema();
        let scheme = fig2_scheme(&s);
        let a = |n: &str| s.attr_id(n).unwrap();
        // φ1's nodes by hand, on site 7 of three.
        let mut b = PlanBuilder::new(&scheme);
        let mut x = vec![a("CC"), a("zip")];
        x.sort_unstable();
        let mut xb = [x.clone(), vec![a("street")]].concat();
        xb.sort_unstable();
        let inputs = x.iter().map(|&at| Input::Base(at)).collect();
        let n_x = b.push_node(HevNode {
            attrs: x,
            site: 7,
            inputs,
        });
        let n_xb = b.push_node(HevNode {
            attrs: xb,
            site: 7,
            inputs: vec![Input::Node(n_x), Input::Base(a("street"))],
        });
        b.targets = vec![
            Some(CfdTarget {
                lhs: Input::Node(n_x),
                xb: n_xb,
            }),
            None,
        ];
        let plan = b.finish();
        assert_eq!(plan.validate(&scheme), Err(PlanError::BadNodeSite(n_x, 7)));
        let built = VerticalDetector::with_plan(s.clone(), fig1_cfds(&s), scheme, plan, &d0());
        assert!(matches!(
            built,
            Err(DetectError::Plan(PlanError::BadNodeSite(0, 7)))
        ));
    }

    #[test]
    fn a_d0_of_another_arity_is_refused_at_build() {
        let s = emp_schema();
        let build =
            |d: &Relation| VerticalDetector::new(s.clone(), fig1_cfds(&s), fig2_scheme(&s), d);
        let short = Schema::new("EMP", &["id", "grade"], "id").unwrap();
        let mut d = Relation::new(short);
        assert!(matches!(
            build(&d),
            Err(DetectError::Rel(RelError::ArityMismatch {
                expected: 7,
                got: 2
            }))
        ));
        d.insert(Tuple::new(1, vec![Value::int(1), Value::str("A")]))
            .unwrap();
        assert!(matches!(
            build(&d),
            Err(DetectError::Rel(RelError::ArityMismatch { .. }))
        ));
        // A D₀ of the right arity is taken as stored, under the detector's
        // schema, not its own.
        let names = ["id", "grade", "CC", "AC", "zip", "street", "city"];
        let other = Schema::new("EMP0", &names, "id").unwrap();
        let d = Relation::from_tuples(other, d0().iter()).unwrap();
        let det = build(&d).unwrap();
        assert!(Arc::ptr_eq(det.current().schema(), &s));
        assert_eq!(
            det.violations().marks_sorted(),
            detector().violations().marks_sorted()
        );
    }

    #[test]
    fn a_delete_meeting_a_missing_class_fails_before_mutating() {
        let mut det = detector();
        let street = det.schema().attr_id("street").unwrap();
        // Only t5 lives on Crichton; drop the class under it.
        let store = det.current().store();
        let crichton = store.sym(store.row_of(5).unwrap(), street);
        while det.bases[street as usize].lookup(crichton).is_some() {
            det.bases[street as usize].release(crichton);
        }
        let (marks, sizes) = (det.violations().marks_sorted(), det.index_sizes());
        det.reset_stats();
        let mut delta = UpdateBatch::new();
        delta.delete(5);
        let err = det.apply(&delta).unwrap_err();
        assert!(
            matches!(&err, DetectError::Internal(m) if m.contains("tuple 5")),
            "{err}"
        );
        assert!(det.current().contains(5));
        assert_eq!(det.violations().marks_sorted(), marks);
        assert_eq!(det.index_sizes(), sizes);
        assert_eq!(det.meters().modeled.total_messages(), 0);
        // The next clean batch is the oracle's.
        let mut delta = UpdateBatch::new();
        delta.insert(emp_tuple(6, "C", 44, 131, "EH4 8LE", "Mayfield", "EDI"));
        delta.delete(4);
        delta.insert(emp_tuple(7, "A", 44, 131, "EH9 9ZZ", "Lauriston", "GLA"));
        det.apply(&delta).unwrap();
        let oracle = cfd::naive::detect(det.cfds(), det.current());
        assert_eq!(det.violations().marks_sorted(), oracle.marks_sorted());
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
    fn index_state_gc_on_full_teardown() {
        let mut det = detector();
        let mut delta = UpdateBatch::new();
        for tid in 1..=5 {
            delta.delete(tid);
        }
        det.apply(&delta).unwrap();
        assert!(det.violations().is_empty());
        assert!(det.current().is_empty());
        for idx in &det.idxs {
            assert!(idx.is_empty(), "IDX garbage-collected");
        }
        for b in &det.bases {
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
            det.insert_variable(&dup, &mut dv),
            Err(DetectError::Rel(RelError::DuplicateTid(1)))
        ));
        let short = Tuple::new(99, vec![Value::int(99), Value::str("A")]);
        assert!(matches!(
            det.insert_variable(&short, &mut dv),
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
