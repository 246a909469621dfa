//! Violation containers: `V(Σ, D)` and `ΔV` (§2.3, §3).
//!
//! Violations are *marked with the CFDs they violate* (§4: "Violations are
//! marked with those CFDs that they violate when combining ΔV's for multiple
//! CFDs"). [`Violations`] therefore stores one [`TidSet`] per CFD and
//! nothing else: the tid-level view of `V(Σ, D)` (a tuple is a violation
//! iff it violates *some* CFD) is read off the per-CFD sets when asked
//! for — `O(|Σ|)` lookups for one tid, a merge for the whole view — which
//! no detector does per update. A mark costs about 2 bytes in a chunk's
//! array and 1 bit of a dense chunk's bitmap: `ver_stream`'s seed-1 drive
//! ends on 147 758 marks in 49 KiB of sets, where hashed per-CFD sets took
//! 2 305 KiB and a per-tid mark count another 2 176 KiB.

use crate::cfd::CfdId;
use relation::{FxHashMap, Tid, TidSet};

/// The violation set `V(Σ, D)`, marked per CFD.
#[derive(Debug, Clone, Default)]
pub struct Violations {
    per_cfd: Vec<TidSet>,
}

impl Violations {
    /// Empty violation set for `n_cfds` rules.
    pub fn new(n_cfds: usize) -> Self {
        Violations {
            per_cfd: vec![TidSet::default(); n_cfds],
        }
    }

    /// Number of CFDs this set is tracking.
    pub fn n_cfds(&self) -> usize {
        self.per_cfd.len()
    }

    /// Mark `tid` as violating `cfd`. Returns `true` if this is a new mark
    /// for that (cfd, tid) pair.
    pub fn add(&mut self, cfd: CfdId, tid: Tid) -> bool {
        self.per_cfd[cfd as usize].insert(tid)
    }

    /// Remove the mark of `cfd` on `tid`. Returns `true` if the mark existed.
    pub fn remove(&mut self, cfd: CfdId, tid: Tid) -> bool {
        self.per_cfd[cfd as usize].remove(tid)
    }

    /// Is `tid` a violation of `cfd`?
    pub fn contains(&self, cfd: CfdId, tid: Tid) -> bool {
        self.per_cfd[cfd as usize].contains(tid)
    }

    /// Is `tid` a violation of any CFD (member of the tid-level `V(Σ,D)`)?
    pub fn is_violation(&self, tid: Tid) -> bool {
        self.per_cfd.iter().any(|s| s.contains(tid))
    }

    /// The CFDs `tid` violates, ascending.
    pub fn cfds_of(&self, tid: Tid) -> impl Iterator<Item = CfdId> + '_ {
        let of = move |(c, s): (usize, &TidSet)| s.contains(tid).then_some(c as CfdId);
        self.per_cfd.iter().enumerate().filter_map(of)
    }

    /// Violations of one CFD.
    pub fn of_cfd(&self, cfd: CfdId) -> &TidSet {
        &self.per_cfd[cfd as usize]
    }

    /// Number of distinct violating tuples.
    pub fn len(&self) -> usize {
        self.tids_sorted().len()
    }

    /// Total number of (cfd, tid) marks — the size `|V|` used in the cost
    /// analyses (a tuple violating two CFDs is "two" units of output change).
    pub fn total_marks(&self) -> usize {
        self.per_cfd.iter().map(TidSet::len).sum()
    }

    /// Is the violation set empty?
    pub fn is_empty(&self) -> bool {
        self.per_cfd.iter().all(TidSet::is_empty)
    }

    /// All violating tids, sorted (deterministic view for tests/reports).
    pub fn tids_sorted(&self) -> Vec<Tid> {
        let mut v: Vec<Tid> = self.per_cfd.iter().flat_map(TidSet::iter).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// All (cfd, tid) marks, sorted (deterministic view): CFD by CFD,
    /// each set ascending.
    pub fn marks_sorted(&self) -> Vec<(CfdId, Tid)> {
        let per_cfd = self.per_cfd.iter().enumerate();
        per_cfd
            .flat_map(|(c, s)| s.iter().map(move |t| (c as CfdId, t)))
            .collect()
    }

    /// Apply a settled `ΔV`: remove its `ΔV⁻` marks, then add its `ΔV⁺`
    /// ones, so no set grows past the larger of its sizes before and
    /// after. A mark it would remove where `V` has none, or add where `V`
    /// holds it already, is refused and returned, and `V` is left as it
    /// was: a detector that records each transition once never asks for
    /// either.
    pub fn commit(&mut self, dv: &DeltaV) -> Result<(), (CfdId, Tid)> {
        let removes = dv.removed.iter();
        let removed = removes.take_while(|&&(c, t)| self.remove(c, t)).count();
        let mut added = 0;
        if removed == dv.removed.len() {
            let adds = dv.added.iter();
            added = adds.take_while(|&&(c, t)| self.add(c, t)).count();
        }
        let Some(&refused) = dv.removed.get(removed).or(dv.added.get(added)) else {
            return Ok(());
        };
        for &(c, t) in &dv.added[..added] {
            self.remove(c, t);
        }
        for &(c, t) in &dv.removed[..removed] {
            self.add(c, t);
        }
        Err(refused)
    }

    /// Symmetric difference against another violation set, as (added to
    /// reach `other`, removed to reach `other`), sorted. Used by tests to
    /// compare an incremental result with the oracle.
    pub fn diff(&self, other: &Violations) -> DeltaV {
        let mut d = DeltaV::default();
        let n = self.per_cfd.len().max(other.per_cfd.len());
        let empty = TidSet::default();
        for c in 0..n {
            let a = self.per_cfd.get(c).unwrap_or(&empty);
            let b = other.per_cfd.get(c).unwrap_or(&empty);
            let cfd = c as CfdId;
            d.added
                .extend(b.iter().filter(|&t| !a.contains(t)).map(|t| (cfd, t)));
            d.removed
                .extend(a.iter().filter(|&t| !b.contains(t)).map(|t| (cfd, t)));
        }
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
    /// and both lists come out sorted. Since `V(Σ,D)` is a set, recorded
    /// transitions for one `(cfd, tid)` mark strictly alternate between
    /// add and remove, so the net effect is determined by the count
    /// difference alone, and is at most one add or one remove. A mark
    /// whose count difference is larger broke the alternation: it is kept
    /// that many times, and [`Violations::commit`], which checks the net
    /// change against `V`, refuses it — as it refuses a net add of a mark
    /// `V` holds or a net remove of one it lacks.
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
            let list = if n > 0 {
                &mut self.added
            } else {
                &mut self.removed
            };
            list.extend(std::iter::repeat_n(m, n.unsigned_abs() as usize));
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
    use std::collections::BTreeSet;

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

    /// Seeded add/remove over three CFDs and tids across three chunks,
    /// drifting up then down: after every batch of ops each view equals a
    /// `BTreeSet<(CfdId, Tid)>` model's, and `diff` from the previous
    /// checkpoint is the model's difference.
    #[test]
    fn views_match_a_mark_set_model() {
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let mut v = Violations::new(3);
        let mut model: BTreeSet<(CfdId, Tid)> = BTreeSet::new();
        let (mut was, mut was_model) = (v.clone(), model.clone());
        for step in 1..=20_000 {
            let (c, t) = (next(3) as CfdId, next(3_000) * 61);
            if next(100) < if step <= 10_000 { 80 } else { 20 } {
                assert_eq!(v.add(c, t), model.insert((c, t)));
            } else {
                assert_eq!(v.remove(c, t), model.remove(&(c, t)));
            }
            if step % 1_000 != 0 {
                continue;
            }
            let marks: Vec<(CfdId, Tid)> = model.iter().copied().collect();
            let tids: BTreeSet<Tid> = model.iter().map(|&(_, t)| t).collect();
            assert_eq!(v.marks_sorted(), marks);
            assert_eq!(v.total_marks(), marks.len());
            assert_eq!(v.tids_sorted(), tids.iter().copied().collect::<Vec<_>>());
            assert_eq!((v.len(), v.is_empty()), (tids.len(), tids.is_empty()));
            for t in (0..3_000).map(|i| i * 61) {
                let cfds: Vec<CfdId> = (0..3).filter(|&c| model.contains(&(c, t))).collect();
                assert_eq!(v.cfds_of(t).collect::<Vec<_>>(), cfds, "tid {t}");
                assert_eq!(v.is_violation(t), tids.contains(&t), "tid {t}");
            }
            let d = was.diff(&v);
            assert_eq!(
                d.added,
                model.difference(&was_model).copied().collect::<Vec<_>>()
            );
            assert_eq!(
                d.removed,
                was_model.difference(&model).copied().collect::<Vec<_>>()
            );
            (was, was_model) = (v.clone(), model.clone());
        }
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

    /// Two marks of CFD 0, one of CFD 1.
    fn three_marks() -> Violations {
        let mut v = Violations::new(2);
        v.commit(&DeltaV {
            added: vec![(0, 1), (0, 2), (1, 2)],
            removed: Vec::new(),
        })
        .unwrap();
        v
    }

    #[test]
    fn commit_applies_a_settled_delta() {
        let mut v = three_marks();
        let mut d = DeltaV::default();
        d.remove(0, 1);
        d.add(1, 1);
        d.add(0, 9);
        d.settle();
        v.commit(&d).unwrap();
        assert_eq!(v.marks_sorted(), [(0, 2), (0, 9), (1, 1), (1, 2)]);
    }

    /// A refused mark is named, and `V` is as it was before the commit.
    #[test]
    fn commit_refuses_a_mark_added_twice() {
        let mut v = three_marks();
        let d = DeltaV {
            added: vec![(0, 7), (1, 2)],
            removed: vec![(0, 1)],
        };
        assert_eq!(v.commit(&d), Err((1, 2)));
        assert_eq!(v.marks_sorted(), three_marks().marks_sorted());
    }

    #[test]
    fn commit_refuses_a_mark_removed_when_absent() {
        let mut v = three_marks();
        let d = DeltaV {
            added: vec![(0, 7)],
            removed: vec![(0, 1), (1, 1)],
        };
        assert_eq!(v.commit(&d), Err((1, 1)));
        assert_eq!(v.marks_sorted(), three_marks().marks_sorted());
    }

    /// A mark recorded twice in one batch survives the settle twice, and
    /// the commit refuses the second: `V` absorbs no repeat.
    #[test]
    fn a_mark_recorded_twice_is_refused() {
        let mut v = three_marks();
        let mut d = DeltaV::default();
        d.add(1, 5);
        d.add(1, 5);
        d.settle();
        assert_eq!(d.added, [(1, 5), (1, 5)]);
        assert_eq!(v.commit(&d), Err((1, 5)));
        assert_eq!(v.marks_sorted(), three_marks().marks_sorted());
    }

    #[test]
    fn an_add_and_a_remove_of_one_mark_commit_nothing() {
        let mut v = three_marks();
        let mut d = DeltaV::default();
        d.add(1, 5);
        d.remove(1, 5);
        d.remove(0, 2);
        d.add(0, 2);
        d.settle();
        assert!(d.is_empty());
        v.commit(&d).unwrap();
        assert_eq!(v.marks_sorted(), three_marks().marks_sorted());
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
