//! Operator-level sharing across the delta plans of a rule set.
//!
//! [`SharedPlan`] compiles every CFD's [`DeltaPlan`]
//! and merges the shareable operators:
//!
//! * **One scan.** LHS matching for *all* CFDs is decided by a single
//!   pass over the tuple's constrained attributes. Per attribute the
//!   plan keeps a posting list `value → CFDs whose plan restricts the
//!   attribute to that value`; a tuple LHS-matches a CFD exactly when it
//!   hits every one of its postings (counted with generation-stamped
//!   counters, no per-call clearing). CFDs without residual restricts
//!   match every tuple and live on a precomputed `always` list. Cost per
//!   tuple is `O(#constrained attrs + #matches)` instead of the naive
//!   `O(|Σ| · |X|)` loop — the sharing that makes thousand-CFD rule
//!   sets feasible.
//! * **One group-by.** Variable CFDs with byte-identical `GroupBy`
//!   operators form a *key group*: the detectors compute one group-key
//!   digest per key group per tuple and every member CFD reuses it.
//! * **One embedded FD.** Within a key group, the variable CFDs with the
//!   same RHS attribute are patterns over one *operator* `(X → B)`.
//!   Whether `tp[X]` matches is a function of `t[X]` alone, so every CFD
//!   of an operator that matches a group's key sees the same members and
//!   the same RHS classes: §6 keeps that group once per operator, and
//!   names operators, not CFDs, on the wire.
//!
//! Residual predicates are **never** merged: two CFDs share a key group
//! only when their `GroupBy` attribute lists are identical, and each
//! CFD keeps its own restrict postings — the property suite asserts the
//! match set is exactly the per-CFD `matches_lhs` loop's.
//!
//! **Duplicate dedupe.** Rules with equal [`NormalForm`]s (the same rule
//! written twice, possibly with reordered LHS atoms) match exactly the
//! same tuples, so only the first occurrence of each class registers
//! postings; a dispatch hit on the representative expands to every class
//! member. Duplicate-free catalogs take the zero-overhead fast path.

use crate::cfd::{Cfd, CfdId, NormalForm};
use crate::delta::DeltaPlan;
use relation::{AttrId, FxHashMap, Tuple, Value};

/// Reusable per-caller scratch for [`SharedPlan::matched_by`]. Holding
/// it outside the plan keeps the plan shareable (`Arc`) across sites
/// and threads while each evaluation stays allocation-free.
#[derive(Debug, Clone, Default)]
pub struct MatchScratch {
    /// Restrict hits per CFD in the current generation.
    count: Vec<u32>,
    /// Generation that last touched `count[c]`.
    stamp: Vec<u32>,
    /// Current generation (0 = never used).
    generation: u32,
    /// The sorted match list handed back to the caller.
    hits: Vec<CfdId>,
    /// Duplicate-expanded match list (used only when the plan deduped).
    expanded: Vec<CfdId>,
}

/// Index of an operator `(X → B)` in [`SharedPlan::operators`]: what §6
/// group state is kept per and what its messages list. Numbered in
/// first-seen order over ascending CFD ids, so every process compiling the
/// same `Σ` agrees on them.
pub type OpId = u32;

/// The merged evaluation plan of a rule set. Immutable once built;
/// evaluation needs only a [`MatchScratch`].
#[derive(Debug, Clone)]
pub struct SharedPlan {
    /// The per-CFD plans the sharing was compiled from (id order).
    plans: Vec<DeltaPlan>,
    /// Per constrained attribute: constant → CFDs restricting to it.
    /// Sorted by attribute; a CFD appears once per restrict atom.
    index: Vec<(AttrId, FxHashMap<Value, Vec<CfdId>>)>,
    /// Restrict atoms each CFD needs to hit (0 ⇒ on `always`).
    needed: Vec<u32>,
    /// CFDs with no restricts, ascending — they match every tuple.
    always: Vec<CfdId>,
    /// `is_variable` per CFD.
    is_var: Vec<bool>,
    /// Distinct `GroupBy` operators: `(X in LHS order, member CFDs)`,
    /// first-seen order over ascending ids (variable CFDs only).
    key_groups: Vec<(Vec<AttrId>, Vec<CfdId>)>,
    /// Key group of each variable CFD.
    group_of: Vec<Option<usize>>,
    /// Distinct embedded FDs: `(key group, B, member CFDs)`, first-seen
    /// order over ascending ids (variable CFDs only).
    operators: Vec<(usize, AttrId, Vec<CfdId>)>,
    /// Operator of each variable CFD.
    operator_of: Vec<Option<OpId>>,
    /// For each class representative, every member id (itself included,
    /// ascending); empty for non-representatives.
    expand: Vec<Vec<CfdId>>,
    /// Number of rules deduped onto an earlier equal-normal-form rule.
    n_deduped: usize,
}

impl SharedPlan {
    /// Compile the rule set. CFD ids must be contiguous and equal to
    /// their position (the invariant `RuleSet::new` establishes and
    /// every detector already relies on).
    pub fn new(cfds: &[Cfd]) -> SharedPlan {
        let n = cfds.len();
        debug_assert!(
            cfds.iter().enumerate().all(|(i, c)| c.id as usize == i),
            "SharedPlan requires contiguous CFD ids"
        );
        let plans: Vec<DeltaPlan> = cfds.iter().map(DeltaPlan::compile).collect();

        // Duplicate classes: rules sharing a normal form match the same
        // tuples, so only the first of each class enters the dispatch
        // structures; its hits expand to the whole class.
        let mut rep_of: Vec<CfdId> = (0..n as CfdId).collect();
        let mut expand: Vec<Vec<CfdId>> = vec![Vec::new(); n];
        let mut first: FxHashMap<NormalForm, CfdId> = FxHashMap::default();
        for (c, cfd) in cfds.iter().enumerate() {
            let rep = *first.entry(cfd.normal_form()).or_insert(c as CfdId);
            rep_of[c] = rep;
            expand[rep as usize].push(c as CfdId);
        }
        let n_deduped = n - first.len();

        let mut by_attr: FxHashMap<AttrId, FxHashMap<Value, Vec<CfdId>>> = FxHashMap::default();
        let mut needed = vec![0u32; n];
        let mut always = Vec::new();
        for (c, plan) in plans.iter().enumerate() {
            if rep_of[c] != c as CfdId {
                continue;
            }
            let mut atoms = 0u32;
            for (attr, value) in plan.restricts() {
                by_attr
                    .entry(attr)
                    .or_default()
                    .entry(value.clone())
                    .or_default()
                    .push(c as CfdId);
                atoms += 1;
            }
            needed[c] = atoms;
            if atoms == 0 {
                always.push(c as CfdId);
            }
        }
        let mut index: Vec<(AttrId, FxHashMap<Value, Vec<CfdId>>)> = by_attr.into_iter().collect();
        index.sort_unstable_by_key(|(a, _)| *a);

        let mut key_groups: Vec<(Vec<AttrId>, Vec<CfdId>)> = Vec::new();
        let mut group_of = vec![None; n];
        let mut operators: Vec<(usize, AttrId, Vec<CfdId>)> = Vec::new();
        let mut operator_of = vec![None; n];
        for (c, plan) in plans.iter().enumerate() {
            let Some(attrs) = plan.group_by() else {
                continue;
            };
            let g = match key_groups.iter().position(|(k, _)| k == attrs) {
                Some(g) => g,
                None => {
                    key_groups.push((attrs.to_vec(), Vec::new()));
                    key_groups.len() - 1
                }
            };
            key_groups[g].1.push(c as CfdId);
            group_of[c] = Some(g);
            let b = cfds[c].rhs;
            let o = match operators.iter().position(|&(og, ob, _)| (og, ob) == (g, b)) {
                Some(o) => o,
                None => {
                    operators.push((g, b, Vec::new()));
                    operators.len() - 1
                }
            };
            operators[o].2.push(c as CfdId);
            operator_of[c] = Some(o as OpId);
        }

        SharedPlan {
            index,
            needed,
            always,
            is_var: cfds.iter().map(Cfd::is_variable).collect(),
            key_groups,
            group_of,
            operators,
            operator_of,
            plans,
            expand,
            n_deduped,
        }
    }

    /// Number of CFDs the plan covers.
    pub fn n_cfds(&self) -> usize {
        self.plans.len()
    }

    /// The compiled per-CFD plans, in id order.
    pub fn plans(&self) -> &[DeltaPlan] {
        &self.plans
    }

    /// Is `c` a variable CFD?
    pub fn is_variable(&self, c: CfdId) -> bool {
        self.is_var[c as usize]
    }

    /// The shared `GroupBy` operators: each entry is one group-key
    /// computation serving every member CFD.
    pub fn key_groups(&self) -> &[(Vec<AttrId>, Vec<CfdId>)] {
        &self.key_groups
    }

    /// Key group of a variable CFD (`None` for constant CFDs).
    pub fn group_of(&self, c: CfdId) -> Option<usize> {
        self.group_of[c as usize]
    }

    /// The embedded FDs `(X → B)` of the variable CFDs: each entry is
    /// `(key group of X, B, member CFDs ascending)`, indexed by [`OpId`].
    /// Only CFDs with the identical LHS list *and* RHS attribute merge;
    /// their patterns stay their own.
    pub fn operators(&self) -> &[(usize, AttrId, Vec<CfdId>)] {
        &self.operators
    }

    /// Operator of a variable CFD (`None` for constant CFDs).
    pub fn operator_of(&self, c: CfdId) -> Option<OpId> {
        self.operator_of[c as usize]
    }

    /// Number of rules deduped onto an earlier rule with the same
    /// [`NormalForm`] — they ride their representative's postings instead
    /// of being evaluated by the dispatch pass.
    pub fn n_deduped(&self) -> usize {
        self.n_deduped
    }

    /// All CFDs whose LHS pattern matches the tuple described by
    /// `value_of`, ascending by id — exactly the set the per-CFD
    /// `matches_lhs` loop computes, via the shared dispatch pass.
    pub fn matched_by<'s, 'v>(
        &self,
        mut value_of: impl FnMut(AttrId) -> &'v Value,
        scratch: &'s mut MatchScratch,
    ) -> &'s [CfdId] {
        let n = self.plans.len();
        if scratch.count.len() < n {
            scratch.count.resize(n, 0);
            scratch.stamp.resize(n, 0);
        }
        scratch.generation = match scratch.generation.checked_add(1) {
            Some(g) => g,
            None => {
                scratch.stamp.fill(0);
                1
            }
        };
        let generation = scratch.generation;
        scratch.hits.clear();
        scratch.hits.extend_from_slice(&self.always);
        for (attr, postings) in &self.index {
            let Some(list) = postings.get(value_of(*attr)) else {
                continue;
            };
            for &c in list {
                let ci = c as usize;
                if scratch.stamp[ci] != generation {
                    scratch.stamp[ci] = generation;
                    scratch.count[ci] = 0;
                }
                scratch.count[ci] += 1;
                if scratch.count[ci] == self.needed[ci] {
                    scratch.hits.push(c);
                }
            }
        }
        if self.n_deduped == 0 {
            scratch.hits.sort_unstable();
            return &scratch.hits;
        }
        scratch.expanded.clear();
        for &rep in &scratch.hits {
            scratch
                .expanded
                .extend_from_slice(&self.expand[rep as usize]);
        }
        scratch.expanded.sort_unstable();
        &scratch.expanded
    }

    /// [`Self::matched_by`] over a materialized tuple.
    pub fn matched<'s>(&'s self, t: &Tuple, scratch: &'s mut MatchScratch) -> &'s [CfdId] {
        self.matched_by(|a| t.get(a), scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::Schema;
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::new("R", &["id", "cc", "zip", "street", "city"], "id").unwrap()
    }

    fn rules(s: &Schema) -> Vec<Cfd> {
        vec![
            // Shared LHS [cc, zip], different residual constants.
            Cfd::from_names(
                0,
                s,
                &[("cc", Some(Value::int(44))), ("zip", None)],
                ("street", None),
            )
            .unwrap(),
            Cfd::from_names(
                1,
                s,
                &[("cc", Some(Value::int(1))), ("zip", None)],
                ("street", None),
            )
            .unwrap(),
            // Pure FD: no restricts, same group-by as above.
            Cfd::from_names(2, s, &[("cc", None), ("zip", None)], ("street", None)).unwrap(),
            // Different LHS order ⇒ different group-by operator.
            Cfd::from_names(3, s, &[("zip", None), ("cc", None)], ("street", None)).unwrap(),
            // Constant CFD.
            Cfd::from_names(
                4,
                s,
                &[("cc", Some(Value::int(44)))],
                ("city", Some(Value::str("EDI"))),
            )
            .unwrap(),
        ]
    }

    fn tuple(cc: i64, zip: &str) -> Tuple {
        Tuple::new(
            0,
            vec![
                Value::int(0),
                Value::int(cc),
                Value::str(zip),
                Value::str("s"),
                Value::str("c"),
            ],
        )
    }

    #[test]
    fn dispatch_matches_the_per_cfd_loop() {
        let s = schema();
        let cfds = rules(&s);
        let plan = SharedPlan::new(&cfds);
        let mut scratch = MatchScratch::default();
        for (cc, zip) in [(44, "a"), (1, "a"), (7, "b"), (44, "b")] {
            let t = tuple(cc, zip);
            let want: Vec<CfdId> = cfds
                .iter()
                .filter(|c| c.matches_lhs(&t))
                .map(|c| c.id)
                .collect();
            assert_eq!(plan.matched(&t, &mut scratch), &want[..], "cc={cc}");
        }
    }

    #[test]
    fn key_groups_merge_only_identical_group_bys() {
        let s = schema();
        let cfds = rules(&s);
        let plan = SharedPlan::new(&cfds);
        // [cc, zip] is shared by CFDs 0, 1, 2; [zip, cc] is its own
        // group; the constant CFD has none.
        assert_eq!(plan.key_groups().len(), 2);
        assert_eq!(plan.key_groups()[0], (vec![1, 2], vec![0, 1, 2]));
        assert_eq!(plan.key_groups()[1], (vec![2, 1], vec![3]));
        assert_eq!(plan.group_of(0), Some(0));
        assert_eq!(plan.group_of(3), Some(1));
        assert_eq!(plan.group_of(4), None);
        for (attrs, members) in plan.key_groups() {
            for &c in members {
                assert_eq!(
                    cfds[c as usize].lhs, *attrs,
                    "a key group must only merge byte-identical GroupBy operators"
                );
            }
        }
        // All of them determine `street`, so each key group is one
        // operator; a rule on another RHS over the shared list is a second
        // operator on the same key group.
        let street = s.attr_id("street").unwrap();
        assert_eq!(
            plan.operators(),
            [(0, street, vec![0, 1, 2]), (1, street, vec![3])]
        );
        assert_eq!(plan.operator_of(1), Some(0));
        assert_eq!(plan.operator_of(4), None);
        let mut cfds = cfds;
        cfds.push(Cfd::from_names(5, &s, &[("cc", None), ("zip", None)], ("city", None)).unwrap());
        let plan = SharedPlan::new(&cfds);
        assert_eq!(plan.key_groups().len(), 2);
        assert_eq!(plan.operators().len(), 3);
        assert_eq!(
            plan.operators()[2],
            (0, s.attr_id("city").unwrap(), vec![5])
        );
    }

    #[test]
    fn duplicate_rules_ride_their_representative() {
        let s = schema();
        let mut cfds = rules(&s);
        // Exact duplicate of CFD 0 with reordered LHS atoms, and a
        // byte-identical duplicate of the constant CFD 4.
        cfds.push(
            Cfd::from_names(
                5,
                &s,
                &[("zip", None), ("cc", Some(Value::int(44)))],
                ("street", None),
            )
            .unwrap(),
        );
        cfds.push(
            Cfd::from_names(
                6,
                &s,
                &[("cc", Some(Value::int(44)))],
                ("city", Some(Value::str("EDI"))),
            )
            .unwrap(),
        );
        let plan = SharedPlan::new(&cfds);
        // Rule 3 of the base set is already rule 2 modulo LHS order, so
        // the two appended duplicates bring the count to three.
        assert_eq!(plan.n_deduped(), 3);
        let mut scratch = MatchScratch::default();
        for (cc, zip) in [(44, "a"), (1, "a"), (7, "b"), (44, "b")] {
            let t = tuple(cc, zip);
            let want: Vec<CfdId> = cfds
                .iter()
                .filter(|c| c.matches_lhs(&t))
                .map(|c| c.id)
                .collect();
            assert_eq!(plan.matched(&t, &mut scratch), &want[..], "cc={cc}");
        }
        // Duplicate-free plans report zero dedupe (fast path).
        assert_eq!(SharedPlan::new(&rules(&s)[..3]).n_deduped(), 0);
    }

    #[test]
    fn scratch_generations_never_leak_between_calls() {
        let s = schema();
        let cfds = rules(&s);
        let plan = SharedPlan::new(&cfds);
        let mut scratch = MatchScratch::default();
        // Force many generations, interleaving hit/miss tuples: stale
        // counters from earlier generations must never complete a match.
        for round in 0..1000 {
            let t = if round % 2 == 0 {
                tuple(44, "x")
            } else {
                tuple(-1, "x")
            };
            let want: Vec<CfdId> = cfds
                .iter()
                .filter(|c| c.matches_lhs(&t))
                .map(|c| c.id)
                .collect();
            assert_eq!(plan.matched(&t, &mut scratch), &want[..]);
        }
        // Generation wrap: restart the counter space explicitly.
        scratch.generation = u32::MAX - 1;
        for _ in 0..4 {
            let t = tuple(44, "x");
            let want: Vec<CfdId> = cfds
                .iter()
                .filter(|c| c.matches_lhs(&t))
                .map(|c| c.id)
                .collect();
            assert_eq!(plan.matched(&t, &mut scratch), &want[..]);
        }
    }
}
