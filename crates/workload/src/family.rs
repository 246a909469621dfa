//! Seeded synthetic CFD **families** with a controllable LHS-overlap
//! knob — the rule catalogs behind `detbench`'s `hor_wide_sigma`.
//!
//! The operator-sharing optimizer (§5 extension) merges the group-by
//! passes of CFDs with identical LHS attribute lists, so the interesting
//! axis when sweeping `|Σ|` is *how much* of the family shares an LHS.
//! [`cfd_family`] makes that a dial: `overlap = 0` gives every CFD its
//! own LHS list (nothing to merge), `overlap = 1` collapses the family
//! onto as few distinct lists as possible (maximal sharing).
//!
//! Rules follow the paper's §7 methodology — "we first designed FDs,
//! then produced CFDs by adding patterns": each LHS list is **mined** as
//! a near-FD of the actual relation (an embedded `X → B` with few
//! conflicting groups, i.e. a dependency the clean generator satisfies
//! and only seeded errors break), then patterned. Variable rules
//! restrict one LHS attribute to a live constant; every 4th rule is a
//! constant CFD anchored on a real row. Violations therefore track the
//! seeded error rate instead of growing with `|Σ|` — exactly the regime
//! where per-update cost isolates candidate generation, the thing the
//! shared plan optimizes.

use cfd::{Cfd, CfdId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relation::{AttrId, FxHashMap, FxHashSet, Relation, Schema, SmallVec, Sym, Tuple, Value};

/// Configuration for [`cfd_family`].
#[derive(Debug, Clone, Copy)]
pub struct FamilyConfig {
    /// Number of normalized CFDs to generate.
    pub n: usize,
    /// LHS sharing in `[0, 1]`: `0.0` aims for one distinct LHS
    /// attribute list per CFD (no shared group-bys to merge), `1.0`
    /// collapses the whole family onto a single list.
    pub overlap: f64,
    /// RNG seed; families are bit-deterministic per `(schema, seed)`.
    pub seed: u64,
    /// Redundancy in `[0, 1]`: this fraction of the family is rewritten
    /// as a block of prunable rules — per LHS list, one all-wildcard FD
    /// generalization (kept by a `cfd::analysis::PrunePlan`) followed by
    /// LHS-reordered duplicates and patterned refinements of it (all
    /// pruned). The FDs match every tuple, so the pruned rules are the
    /// *expensive* ones — the workload behind the Off-vs-Prune benchmark
    /// point. `0.0` (the default) leaves the family byte-identical to
    /// the dial-free generator.
    pub redundancy: f64,
    /// Number of constant-rule conflict *pairs* appended: two rules with
    /// the same pinned LHS and different RHS constants on the same
    /// attribute (the first holds on the anchor row, the second
    /// deliberately contradicts it). Fodder for `cfdlint`'s conflict
    /// table; satisfiable over open domains.
    pub conflicts: usize,
}

impl Default for FamilyConfig {
    fn default() -> Self {
        FamilyConfig {
            n: 64,
            overlap: 0.5,
            seed: 0,
            redundancy: 0.0,
            conflicts: 0,
        }
    }
}

/// Number of `lhs`-groups of `d` holding more than one distinct `rhs`
/// symbol — the conflict count of the embedded FD `lhs → rhs`. Zero
/// means the FD holds exactly; the family miner accepts an RHS whose
/// count stays within the seeded-error budget.
fn fd_conflicts(d: &Relation, lhs: &[AttrId], rhs: AttrId) -> usize {
    let rcol = d.col(rhs);
    let lcols: Vec<&[Sym]> = lhs.iter().map(|&a| d.col(a)).collect();
    let mut groups: FxHashMap<SmallVec<Sym, 4>, (Sym, bool)> = FxHashMap::default();
    let mut bad = 0usize;
    for i in 0..rcol.len() {
        let key: SmallVec<Sym, 4> = lcols.iter().map(|c| c[i]).collect();
        let e = groups.entry(key).or_insert((rcol[i], false));
        if e.0 != rcol[i] && !e.1 {
            e.1 = true;
            bad += 1;
        }
    }
    bad
}

/// Generate a family of `cfg.n` CFDs over `schema`, with roughly
/// `(1 - overlap) · n` distinct LHS attribute lists, each mined as a
/// near-FD of `d` and patterned with constants sampled from `d`'s rows.
/// Ids are contiguous from 0, so the output is directly a valid rule
/// set.
pub fn cfd_family(schema: &Schema, d: &Relation, cfg: &FamilyConfig) -> Vec<Cfd> {
    assert!(cfg.n > 0, "a CFD family has at least one rule");
    assert!(
        schema.arity() >= 4,
        "need at least a two-attribute LHS plus an RHS candidate"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let overlap = cfg.overlap.clamp(0.0, 1.0);
    let n_lists = (((1.0 - overlap) * cfg.n as f64).ceil() as usize).clamp(1, cfg.n);

    // Non-key attributes are fair game for both sides of a rule.
    let key = schema.key();
    let attrs: Vec<AttrId> = schema
        .all_attr_ids()
        .into_iter()
        .filter(|&a| a != key)
        .collect();

    // Near-FD budget: a candidate RHS is eligible when its conflict
    // count over `d` stays within ~5% of the rows — the scale of the
    // generator's seeded dependent-attribute errors, far below what a
    // random (non-functional) attribute pair produces.
    let max_conflicts = (d.len() / 20).max(2);

    // Distinct LHS lists, each 2–3 attributes (so a one-attribute
    // residual restrict always leaves room), sorted so identical sets
    // compare equal (the shared plan merges on exact list equality).
    // A list is kept only if some non-LHS attribute is a near-FD RHS
    // for it; each kept list carries its eligible RHS pool. A narrow
    // schema may not admit `n_lists` such lists; the attempt guard then
    // settles for repeats or for the least-conflicted RHS (repeats only
    // *increase* sharing, never break it).
    let mut lists: Vec<(Vec<AttrId>, Vec<AttrId>)> = Vec::with_capacity(n_lists);
    let mut seen: FxHashSet<Vec<AttrId>> = FxHashSet::default();
    let mut attempts = 0usize;
    while lists.len() < n_lists {
        attempts += 1;
        let forced = attempts > 64 * n_lists;
        let len = (2 + rng.random_range(0..2usize)).min(attrs.len().saturating_sub(1).max(2));
        let mut pool = attrs.clone();
        let mut lhs = Vec::with_capacity(len);
        for _ in 0..len {
            let k = rng.random_range(0..pool.len());
            lhs.push(pool.swap_remove(k));
        }
        lhs.sort_unstable();
        if seen.contains(&lhs) && !forced {
            continue;
        }
        let mut rhs_pool: Vec<AttrId> = attrs
            .iter()
            .copied()
            .filter(|a| !lhs.contains(a))
            .filter(|&a| fd_conflicts(d, &lhs, a) <= max_conflicts)
            .collect();
        if rhs_pool.is_empty() {
            if !forced {
                continue;
            }
            // Settle: least-conflicted RHS of an over-budget list.
            let best = attrs
                .iter()
                .copied()
                .filter(|a| !lhs.contains(a))
                .min_by_key(|&a| fd_conflicts(d, &lhs, a))
                .expect("arity >= 4 leaves an RHS candidate");
            rhs_pool = vec![best];
        }
        seen.insert(lhs.clone());
        lists.push((lhs, rhs_pool));
    }

    let rows: Vec<Tuple> = d.iter().collect();

    // Column cardinalities: variable rules restrict their *most
    // selective* LHS attribute, so each pattern governs a thin slice of
    // the relation — the shape of a real pattern tableau, and what
    // keeps the applicable-rule set per tuple (and hence the §6 case
    // analysis both sharing modes must run) from growing with `|Σ|`.
    let card: FxHashMap<AttrId, usize> = attrs
        .iter()
        .map(|&a| {
            let distinct: FxHashSet<Sym> = d.col(a).iter().copied().collect();
            (a, distinct.len())
        })
        .collect();

    // Dial accounting: the redundancy block and the conflict pairs are
    // carved out of the same `cfg.n` total so sweeps compare catalogs of
    // equal size. At least one base rule always survives.
    let redundancy = cfg.redundancy.clamp(0.0, 1.0);
    let pairs = cfg.conflicts.min(cfg.n.saturating_sub(1) / 2);
    let n_red = (((redundancy * cfg.n as f64).round()) as usize).min(cfg.n - 1 - 2 * pairs);
    let base_n = cfg.n - n_red - 2 * pairs;

    let mut out: Vec<Cfd> = Vec::with_capacity(cfg.n);
    for i in 0..base_n {
        let id = i as CfdId;
        // Round-robin over the lists keeps every key group populated.
        let (lhs_attrs, rhs_pool) = &lists[i % n_lists];
        // Several RHS choices per list = several rules per key group —
        // genuine operator sharing, not just rule duplication.
        let rhs = rhs_pool[rng.random_range(0..rhs_pool.len())];
        // Patterns anchor on one live row, so restricts hit real data
        // and constant rules (nearly) hold under the mined near-FD.
        let anchor = if rows.is_empty() {
            None
        } else {
            Some(&rows[rng.random_range(0..rows.len())])
        };
        let val = |a: AttrId| anchor.map_or_else(|| Value::int(0), |t| t.get(a).clone());
        let constant = i % 4 == 3;
        let lhs_pat: Vec<Option<Value>> = if constant {
            // Constant CFD: every LHS attribute pinned to the anchor
            // row's values, RHS pattern the anchor's RHS value.
            lhs_attrs.iter().map(|&a| Some(val(a))).collect()
        } else {
            // Variable CFD: a residual restrict on the most selective
            // LHS attribute — same key group, different residual
            // constant per rule, each scoped to the thin slice carrying
            // its constant.
            let restrict = lhs_attrs
                .iter()
                .enumerate()
                .max_by_key(|&(_, &a)| card.get(&a).copied().unwrap_or(0))
                .map(|(pos, _)| pos)
                .expect("LHS lists are non-empty");
            lhs_attrs
                .iter()
                .enumerate()
                .map(|(pos, &a)| (pos == restrict).then(|| val(a)))
                .collect()
        };
        let rhs_pat = constant.then(|| val(rhs));

        let lhs_named: Vec<(&str, Option<Value>)> = lhs_attrs
            .iter()
            .zip(lhs_pat)
            .map(|(&a, p)| (schema.attr_name(a), p))
            .collect();
        let cfd = Cfd::from_names(id, schema, &lhs_named, (schema.attr_name(rhs), rhs_pat))
            .expect("family attributes come from the schema");
        out.push(cfd);
    }

    // The dial rules draw from a *derived* RNG so turning a dial never
    // perturbs the base stream — `redundancy: 0.0, conflicts: 0` is
    // byte-identical to the dial-free generator.
    if n_red > 0 || pairs > 0 {
        let mut drng = StdRng::seed_from_u64(cfg.seed ^ 0x9E37_79B9_7F4A_7C15);

        // Redundancy block: round-robin over a few lists; round 0 emits
        // each list's representative (a pure FD `X → B`, all wildcards —
        // matches every tuple, so the whole block sits at the expensive
        // end of the family), later rounds emit LHS-reordered duplicates
        // and patterned refinements of it, all of which a
        // `cfd::analysis::PrunePlan` drops onto the representative.
        let n_fd_lists = (n_red / 8).clamp(1, lists.len());
        for k in 0..n_red {
            let id = (base_n + k) as CfdId;
            let (lhs_attrs, rhs_pool) = &lists[k % n_fd_lists];
            let rhs = rhs_pool[0];
            let round = k / n_fd_lists;
            let mut order: Vec<AttrId> = lhs_attrs.clone();
            let mut lhs_pat: Vec<Option<Value>> = vec![None; order.len()];
            if round == 0 {
                // The kept representative: leave everything wildcard.
            } else if round % 4 == 0 && !rows.is_empty() {
                // A patterned refinement of the FD (pruned): restrict
                // the most selective LHS attribute to a live constant.
                let restrict = order
                    .iter()
                    .enumerate()
                    .max_by_key(|&(_, &a)| card.get(&a).copied().unwrap_or(0))
                    .map(|(pos, _)| pos)
                    .expect("LHS lists are non-empty");
                let anchor = &rows[drng.random_range(0..rows.len())];
                lhs_pat[restrict] = Some(anchor.get(order[restrict]).clone());
            } else {
                // An LHS-reordered duplicate of the FD (pruned).
                order.reverse();
            }
            let lhs_named: Vec<(&str, Option<Value>)> = order
                .iter()
                .zip(lhs_pat)
                .map(|(&a, p)| (schema.attr_name(a), p))
                .collect();
            out.push(
                Cfd::from_names(id, schema, &lhs_named, (schema.attr_name(rhs), None))
                    .expect("family attributes come from the schema"),
            );
        }

        // Conflict pairs: two constant rules with the same pinned LHS
        // and different RHS constants on the same attribute. The first
        // holds on its anchor row; the second contradicts it with
        // another live value from the column (or a synthetic one when
        // the column is constant).
        for p in 0..pairs {
            let id = (base_n + n_red + 2 * p) as CfdId;
            let (lhs_attrs, rhs_pool) = &lists[p % lists.len()];
            let rhs = rhs_pool[0];
            let anchor = (!rows.is_empty()).then(|| &rows[drng.random_range(0..rows.len())]);
            let val = |a: AttrId| anchor.map_or_else(|| Value::int(0), |t| t.get(a).clone());
            let v1 = val(rhs);
            let v2 = rows
                .iter()
                .map(|t| t.get(rhs).clone())
                .find(|v| *v != v1)
                .unwrap_or_else(|| Value::int(-1 - p as i64));
            let lhs_named: Vec<(&str, Option<Value>)> = lhs_attrs
                .iter()
                .map(|&a| (schema.attr_name(a), Some(val(a))))
                .collect();
            for (off, v) in [v1, v2].into_iter().enumerate() {
                out.push(
                    Cfd::from_names(
                        id + off as CfdId,
                        schema,
                        &lhs_named,
                        (schema.attr_name(rhs), Some(v)),
                    )
                    .expect("family attributes come from the schema"),
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tpch_base() -> (std::sync::Arc<Schema>, Relation) {
        let cfg = crate::tpch::TpchConfig {
            n_rows: 200,
            ..crate::tpch::TpchConfig::default()
        };
        crate::tpch::generate(&cfg)
    }

    #[test]
    fn exact_count_contiguous_ids_deterministic() {
        let (s, d) = tpch_base();
        let cfg = FamilyConfig {
            n: 64,
            overlap: 0.9,
            seed: 7,
            ..FamilyConfig::default()
        };
        let a = cfd_family(&s, &d, &cfg);
        let b = cfd_family(&s, &d, &cfg);
        assert_eq!(a, b, "bit-deterministic per seed");
        assert_eq!(a.len(), 64);
        for (i, c) in a.iter().enumerate() {
            assert_eq!(c.id, i as CfdId);
        }
    }

    #[test]
    fn overlap_dial_controls_distinct_lhs_lists() {
        let (s, d) = tpch_base();
        let distinct = |overlap: f64| {
            let fam = cfd_family(
                &s,
                &d,
                &FamilyConfig {
                    n: 64,
                    overlap,
                    seed: 3,
                    ..FamilyConfig::default()
                },
            );
            let lists: FxHashSet<Vec<AttrId>> = fam.iter().map(|c| c.lhs.clone()).collect();
            lists.len()
        };
        let (lo, hi) = (distinct(1.0), distinct(0.0));
        assert_eq!(lo, 1, "full overlap collapses onto one LHS list");
        assert!(hi >= 24, "no overlap spreads over many lists, got {hi}");
    }

    #[test]
    fn constants_are_sampled_from_live_columns() {
        let (s, d) = tpch_base();
        let fam = cfd_family(
            &s,
            &d,
            &FamilyConfig {
                n: 32,
                overlap: 0.5,
                seed: 11,
                ..FamilyConfig::default()
            },
        );
        assert!(fam.iter().any(cfd::Cfd::is_constant));
        assert!(fam.iter().any(cfd::Cfd::is_variable));
        for c in &fam {
            for (a, v) in c.constant_atoms() {
                assert!(
                    d.iter().any(|t| t.get(a) == &v),
                    "restrict constant must hit live data"
                );
            }
        }
    }

    #[test]
    fn rules_are_near_fds_of_the_relation() {
        let (s, d) = tpch_base();
        let fam = cfd_family(
            &s,
            &d,
            &FamilyConfig {
                n: 64,
                overlap: 0.9,
                seed: 5,
                ..FamilyConfig::default()
            },
        );
        // Every mined embedded FD conflicts on at most the seeded-error
        // budget of groups — rules (nearly) hold on the base data, the
        // paper's §7 "designed FDs, then added patterns" methodology.
        let budget = (d.len() / 20).max(2);
        for c in &fam {
            let bad = fd_conflicts(&d, &c.lhs, c.rhs);
            assert!(
                bad <= budget,
                "CFD {} embeds an FD with {bad} conflicting groups (budget {budget})",
                c.id
            );
        }
    }

    #[test]
    fn dials_leave_the_base_stream_untouched_and_seed_findings() {
        let (s, d) = tpch_base();
        let plain = cfd_family(
            &s,
            &d,
            &FamilyConfig {
                n: 64,
                overlap: 0.9,
                seed: 7,
                ..FamilyConfig::default()
            },
        );
        let dialed = cfd_family(
            &s,
            &d,
            &FamilyConfig {
                n: 64,
                overlap: 0.9,
                seed: 7,
                redundancy: 0.5,
                conflicts: 2,
            },
        );
        assert_eq!(dialed.len(), 64);
        for (i, c) in dialed.iter().enumerate() {
            assert_eq!(c.id, i as CfdId);
        }
        // The dial rules draw from a derived RNG, so the surviving base
        // prefix (64 - 32 redundant - 2·2 conflict rules) is
        // bit-identical to the dial-free stream.
        let base_n = 64 - 32 - 4;
        assert_eq!(&dialed[..base_n], &plain[..base_n]);
        // The redundancy block is actually prunable, at roughly the
        // dialed fraction (4 of the 32 block rules are kept reps).
        let plan = cfd::analysis::PrunePlan::compute(&dialed);
        let f = plan.pruned_fraction();
        assert!((0.4..=0.6).contains(&f), "pruned fraction {f}");
        // The conflict pairs are visible to the analyzer.
        let pairs = cfd::analysis::conflict_pairs(&dialed, &cfd::Domains::open(&s));
        assert!(pairs.len() >= 2, "expected seeded conflicts, got {pairs:?}");
    }

    #[test]
    fn family_forms_a_valid_shared_plan() {
        let (s, d) = tpch_base();
        let fam = cfd_family(
            &s,
            &d,
            &FamilyConfig {
                n: 64,
                overlap: 0.9,
                seed: 5,
                ..FamilyConfig::default()
            },
        );
        let plan = cfd::SharedPlan::new(&fam);
        assert_eq!(plan.n_cfds(), 64);
        let n_var = fam.iter().filter(|c| c.is_variable()).count();
        let groups: usize = plan.key_groups().len();
        assert!(
            groups * 4 <= n_var,
            "overlap-heavy family must share group-bys: {groups} groups for {n_var} variable CFDs"
        );
    }
}
