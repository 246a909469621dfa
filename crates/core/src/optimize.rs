//! `optVer` — building HEVs with minimum eqid shipment (§5, Fig. 7).
//!
//! The minimum-eqid-shipment problem is NP-complete (Theorem 7), so this is
//! the paper's heuristic, plus a location hill-climb that exploits
//! replication (Example 7(b)):
//!
//! 1. **Initialization** — one candidate HEV per variable CFD with key
//!    `X_φ` (these anchor the IDXs and can never be removed).
//! 2. **Expansion** — pairwise intersections `X_φ ∩ X_ψ` (the shared-prefix
//!    trick of Example 7(c)) and the sorted prefixes of each `X_φ`, plus
//!    implicit base HEVs.
//! 3. **Location** — `findLoc`: place each HEV at the site covering the
//!    most of its attributes locally, tie-breaking towards sites that
//!    already host related HEVs and sites holding the highest-sorted
//!    attribute (which reproduces the chain placements of Fig. 6).
//! 4. **Finalization** — bounded-width BFS over removals: repeatedly drop
//!    removable HEVs, keeping the `k` best states per level measured by
//!    `Neqid()` (the static eqid-shipment count of a unit update), and a
//!    final hill-climb over node locations.
//!
//! `Neqid()` of a candidate set is evaluated by actually materializing the
//! plan: inputs are chosen greedily ("the HEV whose key contains the most
//! uncovered attributes"), base HEVs are placed next to their consumers
//! where replication allows, and [`HevPlan::neqid`] counts deduplicated
//! cross-site `(producer, destination)` pairs.
//!
//! # Operator-level sharing
//!
//! Eqid merging shares *state* between CFDs; the rule set's
//! [`SharedPlan`](cfd::SharedPlan) shares *work*. It reads every CFD's
//! LHS list and constant atoms ([`Cfd::constant_atoms`]) and merges the
//! shareable operators: a single dispatch scan decides LHS matching for
//! the whole rule set, variable CFDs with identical LHS lists collapse
//! into key groups (one group-key digest serving every member CFD), and
//! each CFD's constant atoms stay behind as residual restricts evaluated
//! on the shared output. It is how
//! all three incremental detectors generate their candidates; the
//! per-rule `matches_lhs` scan survives only in the tests, as the
//! reference each producer's match sets are checked against.

use crate::plan::{CfdTarget, HevNode, HevPlan, Input};
use cfd::Cfd;
use cluster::partition::VerticalScheme;
use cluster::SiteId;
use relation::{AttrId, FxHashMap, FxHashSet};

/// A candidate non-base HEV during optimization.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Cand {
    attrs: Vec<AttrId>, // sorted
    site: SiteId,
    required: bool, // anchors an IDX (key X_φ) — not removable
}

/// Configuration for [`optimize`].
#[derive(Debug, Clone, Copy)]
pub struct OptimizeConfig {
    /// Beam width `k` of the BFS pruning (Fig. 7 line 17).
    pub k: usize,
    /// Upper bound on plan evaluations (guards worst-case rule sets).
    pub eval_budget: usize,
    /// Run the location hill-climb after pruning.
    pub relocate: bool,
}

impl Default for OptimizeConfig {
    fn default() -> Self {
        OptimizeConfig {
            k: 5,
            eval_budget: 20_000,
            relocate: true,
        }
    }
}

/// Run `optVer` and return the best plan found. Falls back to the default
/// chains when there is nothing to optimize.
pub fn optimize(cfds: &[Cfd], scheme: &VerticalScheme, config: OptimizeConfig) -> HevPlan {
    let variable: Vec<&Cfd> = cfds.iter().filter(|c| c.is_variable()).collect();
    if variable.is_empty() {
        return HevPlan::default_chains(cfds, scheme);
    }

    // --- (1) Initialization + (2) Expansion -----------------------------
    let mut cand_sets: Vec<(Vec<AttrId>, bool)> = Vec::new();
    let mut seen: FxHashSet<Vec<AttrId>> = FxHashSet::default();
    let mut push = |attrs: Vec<AttrId>, required: bool, out: &mut Vec<(Vec<AttrId>, bool)>| {
        if attrs.len() < 2 {
            return; // single attributes are base HEVs
        }
        if seen.insert(attrs.clone()) {
            out.push((attrs, required));
        } else if required {
            // Upgrade an existing candidate to required.
            for c in out.iter_mut() {
                if c.0 == attrs {
                    c.1 = true;
                }
            }
        }
    };
    let sorted_lhs = |c: &Cfd| {
        let mut v = c.lhs.clone();
        v.sort_unstable();
        v.dedup();
        v
    };
    for c in &variable {
        push(sorted_lhs(c), true, &mut cand_sets);
    }
    for (i, a) in variable.iter().enumerate() {
        for b in variable.iter().skip(i + 1) {
            let xa: FxHashSet<AttrId> = a.lhs.iter().copied().collect();
            let mut inter: Vec<AttrId> = b.lhs.iter().copied().filter(|x| xa.contains(x)).collect();
            inter.sort_unstable();
            inter.dedup();
            push(inter, false, &mut cand_sets);
        }
    }
    for c in &variable {
        let xs = sorted_lhs(c);
        for len in 2..xs.len() {
            push(xs[..len].to_vec(), false, &mut cand_sets);
        }
    }

    // --- (3) Location ----------------------------------------------------
    let mut cands: Vec<Cand> = Vec::with_capacity(cand_sets.len());
    for (attrs, required) in cand_sets {
        let site = find_loc(&attrs, scheme, &cands);
        cands.push(Cand {
            attrs,
            site,
            required,
        });
    }

    // --- (4) Finalization: beam search over removals ---------------------
    let mut evals = 0usize;
    let full: Vec<usize> = (0..cands.len()).collect();
    let mut best_plan = build_plan(cfds, scheme, &cands, &full);
    let mut best = best_plan.neqid();
    let mut best_state = full.clone();
    let mut queue: Vec<Vec<usize>> = vec![full];
    let mut visited: FxHashSet<Vec<usize>> = FxHashSet::default();
    while !queue.is_empty() && evals < config.eval_budget {
        let mut next: Vec<(usize, Vec<usize>)> = Vec::new();
        for state in queue.drain(..) {
            for drop_pos in 0..state.len() {
                let idx = state[drop_pos];
                if cands[idx].required {
                    continue;
                }
                let mut child: Vec<usize> = state.clone();
                child.remove(drop_pos);
                if !visited.insert(child.clone()) {
                    continue;
                }
                let plan = build_plan(cfds, scheme, &cands, &child);
                evals += 1;
                let score = plan.neqid();
                if score < best {
                    best = score;
                    best_plan = plan;
                    best_state = child.clone();
                }
                next.push((score, child));
                if evals >= config.eval_budget {
                    break;
                }
            }
            if evals >= config.eval_budget {
                break;
            }
        }
        next.sort_by_key(|(s, _)| *s);
        next.truncate(config.k);
        queue = next.into_iter().map(|(_, s)| s).collect();
    }

    // --- Location hill-climb ---------------------------------------------
    if config.relocate {
        let mut cands = cands;
        let mut improved = true;
        let mut rounds = 0;
        while improved && rounds < 8 && evals < config.eval_budget {
            improved = false;
            rounds += 1;
            for i in 0..cands.len() {
                if !best_state.contains(&i) {
                    continue;
                }
                let orig = cands[i].site;
                let mut trial_sites: Vec<SiteId> = cands[i]
                    .attrs
                    .iter()
                    .flat_map(|&a| scheme.sites_of(a))
                    .collect();
                trial_sites.sort_unstable();
                trial_sites.dedup();
                for s in trial_sites {
                    if s == cands[i].site {
                        continue;
                    }
                    cands[i].site = s;
                    let plan = build_plan(cfds, scheme, &cands, &best_state);
                    evals += 1;
                    let score = plan.neqid();
                    if score < best {
                        best = score;
                        best_plan = plan;
                        improved = true;
                    } else {
                        cands[i].site = orig;
                    }
                    if evals >= config.eval_budget {
                        break;
                    }
                }
            }
        }
    }

    // Never return something worse than the default chains.
    let default = HevPlan::default_chains(cfds, scheme);
    if default.neqid() < best {
        default
    } else {
        best_plan
    }
}

/// `findLoc` (§5): the site whose local attributes cover the most of
/// `attrs`; ties prefer sites already hosting placed candidates, then sites
/// holding the highest-sorted attribute.
fn find_loc(attrs: &[AttrId], scheme: &VerticalScheme, placed: &[Cand]) -> SiteId {
    let n = scheme.n_sites();
    let mut best_site = 0usize;
    let mut best_key = (0usize, 0usize, 0usize);
    for s in 0..n {
        let cover = attrs
            .iter()
            .filter(|&&a| scheme.local_pos(s, a).is_some())
            .count();
        if cover == 0 {
            continue;
        }
        let hosted = placed.iter().filter(|c| c.site == s).count();
        let holds_last = attrs
            .iter()
            .rev()
            .take(1)
            .filter(|&&a| scheme.local_pos(s, a).is_some())
            .count();
        let key = (cover, hosted, holds_last);
        if key > best_key {
            best_key = key;
            best_site = s;
        }
    }
    best_site
}

/// Materialize a plan for a subset of candidates: greedy input cover per
/// node, consumer-aware base placement, `X∪{B}` nodes at IDX sites.
#[expect(
    clippy::expect_used,
    reason = "the candidates keep every `X_φ` node, and the plan is built to be structurally sound"
)]
fn build_plan(cfds: &[Cfd], scheme: &VerticalScheme, cands: &[Cand], subset: &[usize]) -> HevPlan {
    // Order by attr-set size so inputs (strict subsets) come first.
    let mut order: Vec<usize> = subset.to_vec();
    order.sort_by_key(|&i| (cands[i].attrs.len(), cands[i].attrs.clone()));

    let mut nodes: Vec<HevNode> = Vec::new();
    let mut node_of_cand: FxHashMap<usize, usize> = FxHashMap::default();
    let mut node_by_attrs: FxHashMap<Vec<AttrId>, usize> = FxHashMap::default();

    for &ci in &order {
        let cand = &cands[ci];
        let inputs = greedy_cover(&cand.attrs, cand.site, &nodes, &node_by_attrs);
        let id = nodes.len();
        nodes.push(HevNode {
            attrs: cand.attrs.clone(),
            site: cand.site,
            inputs,
        });
        node_of_cand.insert(ci, id);
        node_by_attrs.entry(cand.attrs.clone()).or_insert(id);
    }

    // Targets per CFD.
    let mut targets: Vec<Option<CfdTarget>> = Vec::with_capacity(cfds.len());
    for cfd in cfds {
        if cfd.is_constant() {
            targets.push(None);
            continue;
        }
        let mut xs = cfd.lhs.clone();
        xs.sort_unstable();
        xs.dedup();
        let lhs = if xs.len() == 1 {
            Input::Base(xs[0])
        } else {
            Input::Node(
                *node_by_attrs
                    .get(&xs)
                    .expect("required X_φ candidate is never removed"),
            )
        };
        // X ∪ {B} node at the IDX site.
        let lhs_site = match lhs {
            Input::Base(_) => usize::MAX, // resolved after base placement
            Input::Node(n) => nodes[n].site,
        };
        let mut attrs = xs.clone();
        attrs.push(cfd.rhs);
        attrs.sort_unstable();
        attrs.dedup();
        let xb = nodes.len();
        nodes.push(HevNode {
            attrs,
            site: lhs_site, // patched below for base-lhs targets
            inputs: vec![lhs, Input::Base(cfd.rhs)],
        });
        targets.push(Some(CfdTarget { lhs, xb }));
    }

    // Base placement: prefer a replica at a consumer site (most consumers
    // win), else the primary site.
    let mut consumers: FxHashMap<AttrId, Vec<usize>> = FxHashMap::default(); // attr → node ids
    for (id, node) in nodes.iter().enumerate() {
        for inp in &node.inputs {
            if let Input::Base(a) = inp {
                consumers.entry(*a).or_default().push(id);
            }
        }
    }
    let mut base_sites: FxHashMap<AttrId, SiteId> = FxHashMap::default();
    for a in 0..scheme.schema().arity() as AttrId {
        let holders = scheme.sites_of(a);
        let site = match consumers.get(&a) {
            None => holders[0],
            Some(consumer_nodes) => {
                let mut best = holders[0];
                let mut best_count = usize::MAX; // count of *unsatisfied* consumers
                for &h in &holders {
                    let misses = consumer_nodes
                        .iter()
                        .filter(|&&nid| nodes[nid].site != h && nodes[nid].site != usize::MAX)
                        .count();
                    if misses < best_count {
                        best_count = misses;
                        best = h;
                    }
                }
                best
            }
        };
        base_sites.insert(a, site);
    }

    // Patch xb nodes whose lhs is a base: the IDX (and xb node) live at the
    // base HEV's site.
    for t in targets.iter().flatten() {
        if let Input::Base(a) = t.lhs {
            nodes[t.xb].site = base_sites[&a];
        }
    }

    HevPlan::new(nodes, base_sites, targets, scheme)
        .expect("optimizer-built plans satisfy the structural invariants")
}

/// Greedy input cover: repeatedly take the existing node (strict attr
/// subset) or base covering the most uncovered attributes; ties prefer
/// producers co-located with the consumer.
fn greedy_cover(
    attrs: &[AttrId],
    site: SiteId,
    nodes: &[HevNode],
    node_by_attrs: &FxHashMap<Vec<AttrId>, usize>,
) -> Vec<Input> {
    let want: FxHashSet<AttrId> = attrs.iter().copied().collect();
    let mut uncovered: FxHashSet<AttrId> = want.clone();
    let mut inputs: Vec<Input> = Vec::new();
    while !uncovered.is_empty() {
        // Candidate nodes: strict subsets of `attrs` covering ≥2 uncovered.
        let mut best: Option<(usize, bool, usize)> = None; // (gain, local, node)
        for (a, &nid) in node_by_attrs {
            if a.len() >= attrs.len() || !a.iter().all(|x| want.contains(x)) {
                continue;
            }
            let gain = a.iter().filter(|x| uncovered.contains(x)).count();
            if gain < 2 {
                continue;
            }
            let local = nodes[nid].site == site;
            let key = (gain, local, usize::MAX - nid);
            if best.is_none_or(|(g, l, n)| key > (g, l, n)) {
                best = Some(key);
            }
        }
        match best {
            Some((_, _, inv_nid)) => {
                let nid = usize::MAX - inv_nid;
                for x in &nodes[nid].attrs {
                    uncovered.remove(x);
                }
                inputs.push(Input::Node(nid));
            }
            None => {
                // Cover the rest with base HEVs, in sorted order.
                let mut rest: Vec<AttrId> = uncovered.iter().copied().collect();
                rest.sort_unstable();
                for a in rest {
                    inputs.push(Input::Base(a));
                }
                uncovered.clear();
            }
        }
    }
    inputs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Detector;
    use relation::Schema;
    use std::sync::Arc;

    fn example7(replicated: bool) -> (Arc<Schema>, VerticalScheme, Vec<Cfd>) {
        let s = Schema::new(
            "Re",
            &["key", "A", "B", "C", "D", "E", "F", "G", "H", "I", "J", "K"],
            "key",
        )
        .unwrap();
        let a = |n: &str| s.attr_id(n).unwrap();
        let mut frags = vec![
            vec![a("A")],
            vec![a("B")],
            vec![a("C")],
            vec![a("D")],
            vec![a("E"), a("F")],
            vec![a("G"), a("H")],
            vec![a("I")],
            vec![a("J"), a("K")],
        ];
        if replicated {
            frags[5].push(a("I"));
        }
        let scheme = VerticalScheme::new(s.clone(), frags).unwrap();
        let mk = |id: u32, lhs: &[&str], rhs: &str| {
            Cfd::from_names(
                id,
                &s,
                &lhs.iter().map(|n| (*n, None)).collect::<Vec<_>>(),
                (rhs, None),
            )
            .unwrap()
        };
        let cfds = vec![
            mk(0, &["A", "B", "C"], "E"),
            mk(1, &["A", "C", "D"], "F"),
            mk(2, &["A", "G"], "H"),
            mk(3, &["A", "I", "J"], "K"),
        ];
        (s, scheme, cfds)
    }

    #[test]
    fn beats_default_on_example7_without_replication() {
        let (_s, scheme, cfds) = example7(false);
        let default = HevPlan::default_chains(&cfds, &scheme);
        assert_eq!(default.neqid(), 9, "Fig. 6(a)");
        let opt = optimize(&cfds, &scheme, OptimizeConfig::default());
        opt.validate(&scheme).unwrap();
        assert!(
            opt.neqid() <= 8,
            "sharing HAC must save at least one shipment, got {}",
            opt.neqid()
        );
    }

    #[test]
    fn exploits_replication_like_fig6c() {
        let (_s, scheme, cfds) = example7(true);
        let opt = optimize(&cfds, &scheme, OptimizeConfig::default());
        opt.validate(&scheme).unwrap();
        assert!(
            opt.neqid() <= 7,
            "Fig. 6(c) reaches 7 eqid shipments, got {}",
            opt.neqid()
        );
    }

    #[test]
    fn optimized_plans_stay_correct() {
        // The optimizer only moves/merges indices; detection results must
        // be identical to the default plan. (Full equivalence is covered by
        // the integration suite; here a smoke check on Example 7 data.)
        let (s, scheme, cfds) = example7(true);
        let opt = optimize(&cfds, &scheme, OptimizeConfig::default());
        let mut d = relation::Relation::new(s.clone());
        for i in 0..40u64 {
            let vals: Vec<relation::Value> = (0..s.arity())
                .map(|j| {
                    if j == 0 {
                        relation::Value::int(i as i64)
                    } else {
                        relation::Value::int(((i / 3 + j as u64) % 5) as i64)
                    }
                })
                .collect();
            d.insert(relation::Tuple::new(i, vals)).unwrap();
        }
        let det_opt =
            crate::VerticalDetector::with_plan(s.clone(), cfds.clone(), scheme.clone(), opt, &d)
                .unwrap();
        let det_def = crate::VerticalDetector::new(s, cfds.clone(), scheme, &d).unwrap();
        assert_eq!(
            det_opt.violations().marks_sorted(),
            det_def.violations().marks_sorted()
        );
        let oracle = cfd::naive::detect(&cfds, det_def.current());
        assert_eq!(det_def.violations().marks_sorted(), oracle.marks_sorted());
    }

    #[test]
    fn constant_only_rule_set_falls_back() {
        let s = Schema::new("R", &["id", "a", "b"], "id").unwrap();
        let scheme = VerticalScheme::round_robin(s.clone(), 2).unwrap();
        let cfd = Cfd::from_names(
            0,
            &s,
            &[("a", Some(relation::Value::int(1)))],
            ("b", Some(relation::Value::int(2))),
        )
        .unwrap();
        let plan = optimize(&[cfd], &scheme, OptimizeConfig::default());
        assert_eq!(plan.neqid(), 0);
    }

    #[test]
    fn operator_sharing_merges_identical_group_bys_only() {
        let (s, _scheme, mut cfds) = example7(false);
        // Two more rules re-using CFD 0's LHS [A, B, C]: one pure FD and
        // one with a residual constant atom.
        let a = |n: &str| s.attr_id(n).unwrap();
        cfds.push(
            Cfd::from_names(4, &s, &[("A", None), ("B", None), ("C", None)], ("F", None)).unwrap(),
        );
        cfds.push(
            Cfd::from_names(
                5,
                &s,
                &[
                    ("A", Some(relation::Value::int(1))),
                    ("B", None),
                    ("C", None),
                ],
                ("G", None),
            )
            .unwrap(),
        );
        let plan = cfd::SharedPlan::new(&cfds);
        assert_eq!(plan.n_cfds(), 6);
        let variable = (0..6).filter(|&c| plan.is_variable(c)).count();
        assert_eq!(variable, 6);
        // [A,B,C] serves CFDs 0, 4, 5 with one group-key computation.
        assert_eq!(plan.key_groups().len(), 4);
        assert_eq!(variable - plan.key_groups().len(), 2);
        assert_eq!(
            plan.key_groups()[0],
            (vec![a("A"), a("B"), a("C")], vec![0, 4, 5])
        );
        // Residual patterns are never merged: CFD 5 only matches tuples
        // carrying A = 1, its group-mates match regardless.
        let mut scratch = cfd::MatchScratch::default();
        let mk = |av: i64| {
            relation::Tuple::new(
                0,
                (0..s.arity())
                    .map(|i| {
                        if i == a("A") as usize {
                            relation::Value::int(av)
                        } else {
                            relation::Value::int(9)
                        }
                    })
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(plan.matched(&mk(1), &mut scratch), &[0, 1, 2, 3, 4, 5]);
        assert_eq!(plan.matched(&mk(2), &mut scratch), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn single_attr_lhs_handled() {
        let s = Schema::new("R", &["id", "a", "b"], "id").unwrap();
        let scheme = VerticalScheme::new(s.clone(), vec![vec![1], vec![2]]).unwrap();
        let cfd = Cfd::from_names(0, &s, &[("a", None)], ("b", None)).unwrap();
        let plan = optimize(&[cfd], &scheme, OptimizeConfig::default());
        plan.validate(&scheme).unwrap();
        assert_eq!(plan.neqid(), 1, "B's eqid ships to the IDX site");
    }
}
