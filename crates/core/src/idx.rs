//! The IDX index (§4).
//!
//! For each variable CFD `φ = (X → B, t_p)`, one IDX lives at the site
//! maintaining `id[t_X]`. Given the eqid of `[t]_X` it returns
//! `set(t[X])` — the distinct eqids of the classes `[t′]_{X∪{B}}` inside the
//! group, each with the set of its members. In other words, per
//! pattern-matching group the IDX stores the distinct `B`-values (as
//! `X∪{B}` eqids) and their tuples — by the row ids of the store that holds
//! them, which its caller names by tid where a mark enters `ΔV`.
//!
//! A group is the container §6 keeps its group state in
//! (`crate::group`, keyed here by eqids): one class and ≤ 3 rows inline,
//! hashed spills beyond, demoting on removal. Entering and leaving a tuple
//! also runs Fig. 4's case analysis, which needs only `|set(t[X])|` and
//! `|[t]_{X∪B}|`, and reports who joins or leaves `V(φ)` as a [`Case`].

use crate::group::{shrink_if_sparse, GroupState, StateCensus};
use crate::hev::EqId;
use relation::{FxHashMap, RowId};
use std::collections::hash_map::Entry;

/// Which tuples one update moves into (insert) or out of (delete) `V(φ)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Case {
    /// None: `t` agrees with its whole group, or is alone in it.
    Nothing,
    /// `t` alone — its group keeps violating without it, or did before it.
    Tuple,
    /// `t` and every other member of its group: the insert made a
    /// one-class group conflict, or the delete left one class.
    Group,
}

/// IDX: `id[t_X]` → { `id[t_{X∪B}]` → member rows }.
///
/// Members are the row ids of the store that holds the rows; any other
/// dense id (`u64` tids, say) works the same.
#[derive(Debug)]
pub struct Idx<I = RowId> {
    groups: FxHashMap<EqId, GroupState<EqId, I>>,
    /// Live member count, maintained by `insert`/`remove` so that
    /// [`Idx::n_tuples`] is O(1) instead of a full index scan.
    n_tuples: usize,
}

impl<I> Default for Idx<I> {
    fn default() -> Self {
        Idx {
            groups: FxHashMap::default(),
            n_tuples: 0,
        }
    }
}

impl<I: Copy + Ord + Default + Into<u64> + TryFrom<u64>> Idx<I> {
    /// Fresh empty index.
    pub fn new() -> Self {
        Idx::default()
    }

    /// Add `row` to the class `(eq_x, eq_xb)` — `incVIns`'s case analysis
    /// on `|set(t[X])|` before `t` enters: no group or `t`'s own class
    /// alone is [`Case::Nothing`], one other class is [`Case::Group`], two
    /// or more classes [`Case::Tuple`].
    pub fn insert(&mut self, eq_x: EqId, eq_xb: EqId, row: I) -> Case {
        let g = match self.groups.entry(eq_x) {
            Entry::Vacant(e) => {
                e.insert(GroupState::new(eq_xb, row));
                self.n_tuples += 1;
                return Case::Nothing;
            }
            Entry::Occupied(e) => e.into_mut(),
        };
        let case = match g {
            GroupState::Many { .. } => Case::Tuple,
            _ if g.has_other(eq_xb) => Case::Group,
            _ => Case::Nothing,
        };
        let before = g.class_len(eq_xb);
        g.insert(eq_xb, row);
        self.n_tuples += g.class_len(eq_xb) - before;
        case
    }

    /// Remove `row` from the class `(eq_x, eq_xb)` — `incVDel`'s case
    /// analysis on `|[t]_{X∪B}|` and `|set(t[X])|`: a group of one class
    /// is [`Case::Nothing`]; of two, where `t` was its class's last
    /// member, [`Case::Group`] (the class left stops violating); any other
    /// group of two or more [`Case::Tuple`]. `None` when `row` is not a
    /// member; empty classes and groups are dropped.
    pub fn remove(&mut self, eq_x: EqId, eq_xb: EqId, row: I) -> Option<Case> {
        let g = self.groups.get_mut(&eq_x)?;
        let before = g.class_len(eq_xb);
        let (emptied, left) = g.remove(eq_xb, row)?;
        if g.class_len(eq_xb) == before {
            return None;
        }
        self.n_tuples -= 1;
        if left == 0 {
            self.groups.remove(&eq_x);
            shrink_if_sparse!(self.groups);
        }
        Some(match left + usize::from(emptied) {
            0 | 1 => Case::Nothing,
            2 if emptied => Case::Group,
            _ => Case::Tuple,
        })
    }

    /// Every member of the group `eq_x`.
    pub(crate) fn for_each_member(&self, eq_x: EqId, f: impl FnMut(I)) {
        if let Some(g) = self.groups.get(&eq_x) {
            g.for_each_member(f);
        }
    }

    /// Total indexed tuples — O(1), maintained by `insert`/`remove`.
    pub(crate) fn n_tuples(&self) -> usize {
        self.n_tuples
    }

    /// Add this index's groups to `census`.
    pub(crate) fn count_into(&self, census: &mut StateCensus) {
        census.count(&self.groups);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of distinct `X∪{B}` classes in the group `eq_x`.
    fn n_classes(idx: &Idx, eq_x: EqId) -> usize {
        let mut n = 0;
        if let Some(g) = idx.groups.get(&eq_x) {
            g.for_each_class(|_, _| n += 1);
        }
        n
    }

    #[test]
    fn mirrors_fig3_example() {
        // Fig. 3: group eq(z,c)=1 has classes {Mayfield: t1,t3,t4} and
        // {Crichton: t5}; group 2 has {Preston: t2}.
        let mut idx: Idx = Idx::new();
        assert_eq!(idx.insert(1, 10, 1), Case::Nothing);
        assert_eq!(idx.insert(1, 10, 3), Case::Nothing);
        assert_eq!(idx.insert(1, 10, 4), Case::Nothing);
        assert_eq!(idx.insert(1, 30, 5), Case::Group, "Crichton conflicts");
        assert_eq!(idx.insert(2, 20, 2), Case::Nothing);

        assert_eq!(n_classes(&idx, 1), 2);
        assert_eq!(n_classes(&idx, 2), 1);
        assert_eq!(n_classes(&idx, 99), 0);
        let mut members = Vec::new();
        idx.for_each_member(1, |t| members.push(t));
        members.sort_unstable();
        assert_eq!(members, [1, 3, 4, 5]);
        assert_eq!(idx.n_tuples(), 5);
        // Example 2: t6 joins Mayfield, only t6 is new; deleting t4 keeps
        // the conflict, deleting t5 then clears the group.
        assert_eq!(idx.insert(1, 10, 6), Case::Tuple);
        assert_eq!(idx.remove(1, 10, 4), Some(Case::Tuple));
        assert_eq!(idx.remove(1, 30, 5), Some(Case::Group));
        assert_eq!(idx.remove(2, 20, 2), Some(Case::Nothing));
    }

    #[test]
    fn remove_cleans_up() {
        let mut idx: Idx = Idx::new();
        idx.insert(1, 10, 7);
        idx.insert(1, 11, 8);
        assert_eq!(idx.remove(1, 10, 7), Some(Case::Group));
        assert_eq!(idx.remove(1, 10, 7), None, "already gone");
        assert_eq!(n_classes(&idx, 1), 1);
        assert_eq!(idx.remove(1, 11, 8), Some(Case::Nothing));
        assert_eq!(n_classes(&idx, 1), 0);
        assert_eq!(idx.n_tuples(), 0);
    }

    #[test]
    fn n_tuples_counter_ignores_duplicates_and_misses() {
        let mut idx: Idx = Idx::new();
        idx.insert(1, 10, 7);
        idx.insert(1, 10, 7); // duplicate insert must not double-count
        assert_eq!(idx.n_tuples(), 1);
        assert_eq!(idx.remove(2, 10, 7), None, "missing group");
        assert_eq!(idx.remove(1, 11, 7), None, "missing class");
        assert_eq!(idx.remove(1, 10, 8), None, "missing tid");
        assert_eq!(idx.n_tuples(), 1);
        assert_eq!(idx.remove(1, 10, 7), Some(Case::Nothing));
        assert_eq!(idx.n_tuples(), 0);
    }

    #[test]
    fn three_classes_move_one_tuple_at_a_time() {
        let mut idx: Idx = Idx::new();
        idx.insert(5, 1, 1);
        assert_eq!(idx.insert(5, 2, 2), Case::Group);
        assert_eq!(idx.insert(5, 3, 3), Case::Tuple);
        assert_eq!(idx.remove(5, 1, 1), Some(Case::Tuple), "two classes stay");
        assert_eq!(idx.remove(5, 2, 2), Some(Case::Group), "one class stays");
    }
}
