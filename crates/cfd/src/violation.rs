//! Violation containers: `V(Σ, D)` and `ΔV` (§2.3, §3).
//!
//! Violations are *marked with the CFDs they violate* (§4: "Violations are
//! marked with those CFDs that they violate when combining ΔV's for multiple
//! CFDs"). [`Violations`] therefore stores one tid set per CFD plus a global
//! per-tid mark count, so that the tid-level view of `V(Σ, D)` (a tuple is a
//! violation iff it violates *some* CFD) is maintained incrementally.

use crate::cfd::CfdId;
use relation::{FxHashMap, FxHashSet, Tid};

/// The violation set `V(Σ, D)`, marked per CFD.
#[derive(Debug, Clone, Default)]
pub struct Violations {
    per_cfd: Vec<FxHashSet<Tid>>,
    /// tid → number of CFDs it currently violates.
    marks: FxHashMap<Tid, u32>,
}

impl Violations {
    /// Empty violation set for `n_cfds` rules.
    pub fn new(n_cfds: usize) -> Self {
        Violations {
            per_cfd: vec![FxHashSet::default(); n_cfds],
            marks: FxHashMap::default(),
        }
    }

    /// Number of CFDs this set is tracking.
    pub fn n_cfds(&self) -> usize {
        self.per_cfd.len()
    }

    /// Mark `tid` as violating `cfd`. Returns `true` if this is a new mark
    /// for that (cfd, tid) pair.
    pub fn add(&mut self, cfd: CfdId, tid: Tid) -> bool {
        if self.per_cfd[cfd as usize].insert(tid) {
            *self.marks.entry(tid).or_insert(0) += 1;
            true
        } else {
            false
        }
    }

    /// Remove the mark of `cfd` on `tid`. Returns `true` if the mark existed.
    pub fn remove(&mut self, cfd: CfdId, tid: Tid) -> bool {
        if self.per_cfd[cfd as usize].remove(&tid) {
            match self.marks.get_mut(&tid) {
                Some(c) if *c > 1 => *c -= 1,
                Some(_) => {
                    self.marks.remove(&tid);
                }
                None => unreachable!("mark count out of sync"),
            }
            true
        } else {
            false
        }
    }

    /// Is `tid` a violation of `cfd`?
    pub fn contains(&self, cfd: CfdId, tid: Tid) -> bool {
        self.per_cfd[cfd as usize].contains(&tid)
    }

    /// Is `tid` a violation of any CFD (member of the tid-level `V(Σ,D)`)?
    pub fn is_violation(&self, tid: Tid) -> bool {
        self.marks.contains_key(&tid)
    }

    /// The CFDs `tid` violates, ascending.
    pub fn cfds_of(&self, tid: Tid) -> impl Iterator<Item = CfdId> + '_ {
        let marks = self.marks.get(&tid).map_or(0, |&n| n as usize);
        let of = move |c: usize| self.per_cfd[c].contains(&tid).then_some(c as CfdId);
        (0..self.per_cfd.len()).filter_map(of).take(marks)
    }

    /// Violations of one CFD.
    pub fn of_cfd(&self, cfd: CfdId) -> &FxHashSet<Tid> {
        &self.per_cfd[cfd as usize]
    }

    /// Number of distinct violating tuples.
    pub fn len(&self) -> usize {
        self.marks.len()
    }

    /// Total number of (cfd, tid) marks — the size `|V|` used in the cost
    /// analyses (a tuple violating two CFDs is "two" units of output change).
    pub fn total_marks(&self) -> usize {
        self.per_cfd
            .iter()
            .map(std::collections::HashSet::len)
            .sum()
    }

    /// Is the violation set empty?
    pub fn is_empty(&self) -> bool {
        self.marks.is_empty()
    }

    /// All violating tids, sorted (deterministic view for tests/reports).
    pub fn tids_sorted(&self) -> Vec<Tid> {
        let mut v: Vec<Tid> = self.marks.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// All (cfd, tid) marks, sorted (deterministic view).
    pub fn marks_sorted(&self) -> Vec<(CfdId, Tid)> {
        let mut v: Vec<(CfdId, Tid)> = self
            .per_cfd
            .iter()
            .enumerate()
            .flat_map(|(c, s)| s.iter().map(move |&t| (c as CfdId, t)))
            .collect();
        v.sort_unstable();
        v
    }

    /// Symmetric difference against another violation set, as (added to
    /// reach `other`, removed to reach `other`). Used by tests to compare an
    /// incremental result with the oracle.
    pub fn diff(&self, other: &Violations) -> DeltaV {
        let mut d = DeltaV::default();
        let n = self.per_cfd.len().max(other.per_cfd.len());
        for c in 0..n {
            let a = self.per_cfd.get(c);
            let b = other.per_cfd.get(c);
            if let Some(b) = b {
                for &t in b {
                    if a.is_none_or(|a| !a.contains(&t)) {
                        d.added.push((c as CfdId, t));
                    }
                }
            }
            if let Some(a) = a {
                for &t in a {
                    if b.is_none_or(|b| !b.contains(&t)) {
                        d.removed.push((c as CfdId, t));
                    }
                }
            }
        }
        d.added.sort_unstable();
        d.removed.sort_unstable();
        d
    }
}

/// The change `ΔV = ΔV⁺ ∪ ΔV⁻` to a violation set, at (cfd, tid) mark
/// granularity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaV {
    /// Marks added (`ΔV⁺`).
    pub added: Vec<(CfdId, Tid)>,
    /// Marks removed (`ΔV⁻`).
    pub removed: Vec<(CfdId, Tid)>,
}

impl DeltaV {
    /// Record an added mark.
    pub fn add(&mut self, cfd: CfdId, tid: Tid) {
        self.added.push((cfd, tid));
    }

    /// Record a removed mark.
    pub fn remove(&mut self, cfd: CfdId, tid: Tid) {
        self.removed.push((cfd, tid));
    }

    /// Size `|ΔV|` (number of marks changed).
    pub fn len(&self) -> usize {
        self.added.len() + self.removed.len()
    }

    /// Is the delta empty?
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Merge another delta into this one, then [`settle`](Self::settle):
    /// a mark added by one delta and removed by the other nets to a no-op.
    pub fn merge(&mut self, other: DeltaV) {
        self.added.extend(other.added);
        self.removed.extend(other.removed);
        self.settle();
    }

    /// Canonicalize to the *net* change: a mark that was removed and
    /// re-added (or added and re-removed) within the delta cancels out,
    /// duplicates collapse, and both lists come out sorted. Since `V(Σ,D)`
    /// is a set, recorded transitions for one `(cfd, tid)` mark strictly
    /// alternate between add and remove, so the net effect is determined
    /// by the count difference alone.
    pub fn settle(&mut self) {
        let mut net: FxHashMap<(CfdId, Tid), i64> = FxHashMap::default();
        for &m in &self.added {
            *net.entry(m).or_insert(0) += 1;
        }
        for &m in &self.removed {
            *net.entry(m).or_insert(0) -= 1;
        }
        self.added.clear();
        self.removed.clear();
        for (m, n) in net {
            match n.cmp(&0) {
                std::cmp::Ordering::Greater => self.added.push(m),
                std::cmp::Ordering::Less => self.removed.push(m),
                std::cmp::Ordering::Equal => {}
            }
        }
        self.added.sort_unstable();
        self.removed.sort_unstable();
    }

    /// Distinct tids with added marks, sorted.
    pub fn added_tids_sorted(&self) -> Vec<Tid> {
        let mut v: Vec<Tid> = self.added.iter().map(|&(_, t)| t).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Distinct tids with removed marks, sorted.
    pub fn removed_tids_sorted(&self) -> Vec<Tid> {
        let mut v: Vec<Tid> = self.removed.iter().map(|&(_, t)| t).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Canonical sorted form (for equality assertions in tests).
    pub fn sorted(mut self) -> DeltaV {
        self.added.sort_unstable();
        self.added.dedup();
        self.removed.sort_unstable();
        self.removed.dedup();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_remove_and_mark_counts() {
        let mut v = Violations::new(2);
        assert!(v.add(0, 7));
        assert!(!v.add(0, 7)); // duplicate mark
        assert!(v.add(1, 7));
        assert_eq!(v.len(), 1); // one distinct tuple
        assert_eq!(v.total_marks(), 2);
        assert!(v.is_violation(7));
        assert_eq!(v.cfds_of(7).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(v.cfds_of(8).count(), 0);

        assert!(v.remove(0, 7));
        assert_eq!(v.cfds_of(7).collect::<Vec<_>>(), [1]);
        assert!(v.is_violation(7)); // still marked by cfd 1
        assert!(v.remove(1, 7));
        assert!(!v.is_violation(7));
        assert!(!v.remove(1, 7)); // already gone
        assert!(v.is_empty());
    }

    #[test]
    fn sorted_views_deterministic() {
        let mut v = Violations::new(2);
        v.add(1, 5);
        v.add(0, 9);
        v.add(0, 2);
        assert_eq!(v.tids_sorted(), vec![2, 5, 9]);
        assert_eq!(v.marks_sorted(), vec![(0, 2), (0, 9), (1, 5)]);
    }

    #[test]
    fn diff_computes_delta() {
        let mut a = Violations::new(1);
        a.add(0, 1);
        a.add(0, 2);
        let mut b = Violations::new(1);
        b.add(0, 2);
        b.add(0, 3);
        let d = a.diff(&b);
        assert_eq!(d.added, vec![(0, 3)]);
        assert_eq!(d.removed, vec![(0, 1)]);
    }

    #[test]
    fn delta_merge_and_views() {
        let mut d = DeltaV::default();
        d.add(0, 4);
        d.add(1, 4);
        d.remove(0, 2);
        let mut e = DeltaV::default();
        e.add(0, 1);
        d.merge(e);
        assert_eq!(d.len(), 4);
        assert_eq!(d.added_tids_sorted(), vec![1, 4]);
        assert_eq!(d.removed_tids_sorted(), vec![2]);
    }

    #[test]
    fn settle_cancels_remove_then_readd() {
        // A mark removed and re-added within one batch is a no-op.
        let mut d = DeltaV::default();
        d.remove(0, 7);
        d.add(0, 7);
        d.add(1, 7);
        d.settle();
        assert_eq!(d.added, vec![(1, 7)]);
        assert!(d.removed.is_empty());

        // Alternating transitions net to the count difference.
        let mut d = DeltaV::default();
        d.add(0, 3); // in
        d.remove(0, 3); // out
        d.add(0, 3); // in again → net add
        d.settle();
        assert_eq!(d.added, vec![(0, 3)]);
        assert!(d.removed.is_empty());
    }

    #[test]
    fn merge_nets_across_deltas() {
        let mut d = DeltaV::default();
        d.add(0, 1);
        let mut e = DeltaV::default();
        e.remove(0, 1);
        e.add(0, 2);
        d.merge(e);
        assert_eq!(d.added, vec![(0, 2)]);
        assert!(d.removed.is_empty());
    }
}
