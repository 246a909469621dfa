//! The update model `ΔD` (§3).
//!
//! A batch update is a list of tuple insertions and deletions; a modification
//! is a deletion followed by an insertion. [`UpdateBatch::normalize`]
//! implements line 1 of `incVer`/`incHor`: updates on the same tuple id that
//! cancel each other (insert then delete of a tid not in `D`, or delete then
//! re-insert of an identical tuple) are removed before detection.

use crate::relation::Relation;
use crate::tuple::{Tid, Tuple};
use crate::RelError;

/// A single update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Update {
    /// Insert a full tuple.
    Insert(Tuple),
    /// Delete the tuple with this id.
    Delete(Tid),
}

impl Update {
    /// The tuple id this update concerns.
    pub fn tid(&self) -> Tid {
        match self {
            Update::Insert(t) => t.tid,
            Update::Delete(tid) => *tid,
        }
    }

    /// Is this an insertion?
    pub fn is_insert(&self) -> bool {
        matches!(self, Update::Insert(_))
    }
}

/// A batch update `ΔD`: an ordered list of insertions and deletions.
#[derive(Debug, Clone, Default)]
pub struct UpdateBatch {
    ops: Vec<Update>,
}

impl UpdateBatch {
    /// Empty batch.
    pub fn new() -> Self {
        UpdateBatch::default()
    }

    /// Build from a list of updates.
    pub fn from_ops(ops: Vec<Update>) -> Self {
        UpdateBatch { ops }
    }

    /// Append an insertion.
    pub fn insert(&mut self, t: Tuple) {
        self.ops.push(Update::Insert(t));
    }

    /// Append a deletion.
    pub fn delete(&mut self, tid: Tid) {
        self.ops.push(Update::Delete(tid));
    }

    /// All operations in order.
    pub fn ops(&self) -> &[Update] {
        &self.ops
    }

    /// Number of operations (`|ΔD|`).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Is the batch empty?
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The insertion sub-list `ΔD⁺` (post-normalization order preserved).
    pub fn insertions(&self) -> impl Iterator<Item = &Tuple> {
        self.ops.iter().filter_map(|u| match u {
            Update::Insert(t) => Some(t),
            Update::Delete(_) => None,
        })
    }

    /// The deletion sub-list `ΔD⁻`.
    pub fn deletions(&self) -> impl Iterator<Item = Tid> + '_ {
        self.ops.iter().filter_map(|u| match u {
            Update::Delete(tid) => Some(*tid),
            Update::Insert(_) => None,
        })
    }

    /// Remove updates with the same tuple id that cancel each other
    /// (`incVer` line 1). For each tid, the *net effect* relative to `D` is
    /// kept:
    ///
    /// * tid absent from `D`, net effect "inserted as t" → single `Insert(t)`;
    /// * tid present in `D`, net effect "deleted" → single `Delete`;
    /// * tid present, net effect "replaced by t" → `Delete` then `Insert(t)`
    ///   (a modification);
    /// * no net effect → nothing.
    ///
    /// A tid present in `base` that ends "replaced by" a tuple equal to its
    /// stored one has no net effect.
    pub fn normalize(&self, base: &Relation) -> UpdateBatch {
        let arity = base.schema().arity();
        self.normalize_by(
            |tid| base.contains(tid),
            |t| {
                let same = |(a, v)| base.value_at(t.tid, a as crate::AttrId) == Some(v);
                t.arity() == arity && t.values.iter().enumerate().all(same)
            },
        )
    }

    /// [`normalize`](Self::normalize) against a `D` seen only through two
    /// tests: `present(tid)` — is `tid` in `D`? — and `unchanged(t)` — does
    /// `D` hold `t` as it is? The latter is asked only of a present tid's
    /// final insert. A caller that cannot compare values passes
    /// `|_| false`: a re-insert of a stored tuple then stays a `Delete`,
    /// `Insert` pair of one tid, for whoever holds the row to drop.
    pub fn normalize_by(
        &self,
        present: impl Fn(Tid) -> bool,
        unchanged: impl Fn(&Tuple) -> bool,
    ) -> UpdateBatch {
        use crate::fx::FxHashMap;
        // Last-writer-wins state per tid, in first-touch order.
        #[derive(Clone)]
        enum Net {
            Inserted(Tuple),
            Deleted,
        }
        let mut order: Vec<Tid> = Vec::new();
        let mut state: FxHashMap<Tid, Net> = FxHashMap::default();
        for op in &self.ops {
            let tid = op.tid();
            if !state.contains_key(&tid) {
                order.push(tid);
            }
            match op {
                Update::Insert(t) => {
                    state.insert(tid, Net::Inserted(t.clone()));
                }
                Update::Delete(_) => {
                    state.insert(tid, Net::Deleted);
                }
            }
        }
        let mut out = UpdateBatch::new();
        for tid in order {
            let present = present(tid);
            match state.remove(&tid).expect("state populated above") {
                // Modification: only emitted if the value changed.
                Net::Inserted(t) if present => {
                    if !unchanged(&t) {
                        out.delete(tid);
                        out.insert(t);
                    }
                }
                Net::Inserted(t) => out.insert(t),
                Net::Deleted if present => out.delete(tid),
                // Insert + delete of a new tid cancels entirely.
                Net::Deleted => {}
            }
        }
        out
    }

    /// Apply this batch to `base` (`D ⊕ ΔD`), consuming nothing. Deletions of
    /// missing tids and duplicate insertions are errors — callers should
    /// normalize first.
    pub fn apply(&self, base: &mut Relation) -> Result<(), RelError> {
        for op in &self.ops {
            match op {
                Update::Insert(t) => base.insert(t.clone())?,
                Update::Delete(tid) => {
                    base.delete(*tid)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::Value;

    fn rel_with(tids: &[Tid]) -> Relation {
        let s = Schema::new("R", &["id", "a"], "id").unwrap();
        let mut r = Relation::new(s);
        for &tid in tids {
            r.insert(Tuple::new(tid, vec![Value::int(tid as i64), Value::int(0)]))
                .unwrap();
        }
        r
    }

    fn tup(tid: Tid, a: i64) -> Tuple {
        Tuple::new(tid, vec![Value::int(tid as i64), Value::int(a)])
    }

    #[test]
    fn plus_minus_split() {
        let mut b = UpdateBatch::new();
        b.insert(tup(10, 1));
        b.delete(3);
        b.insert(tup(11, 2));
        assert_eq!(b.insertions().count(), 2);
        assert_eq!(b.deletions().collect::<Vec<_>>(), vec![3]);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn normalize_cancels_insert_then_delete_of_new_tid() {
        let base = rel_with(&[1]);
        let mut b = UpdateBatch::new();
        b.insert(tup(99, 5));
        b.delete(99);
        let n = b.normalize(&base);
        assert!(n.is_empty());
    }

    #[test]
    fn normalize_delete_then_identical_reinsert_cancels() {
        let base = rel_with(&[1]);
        let mut b = UpdateBatch::new();
        b.delete(1);
        b.insert(tup(1, 0)); // identical to the stored tuple
        let n = b.normalize(&base);
        assert!(n.is_empty());
    }

    #[test]
    fn normalize_modification_becomes_delete_insert() {
        let base = rel_with(&[1]);
        let mut b = UpdateBatch::new();
        b.delete(1);
        b.insert(tup(1, 7));
        let n = b.normalize(&base);
        assert_eq!(n.ops().len(), 2);
        assert!(matches!(n.ops()[0], Update::Delete(1)));
        assert!(matches!(&n.ops()[1], Update::Insert(t) if t.get(1) == &Value::int(7)));
    }

    #[test]
    fn normalize_keeps_last_write() {
        let base = rel_with(&[]);
        let mut b = UpdateBatch::new();
        b.insert(tup(9, 1));
        b.delete(9);
        b.insert(tup(9, 2));
        let n = b.normalize(&base);
        assert_eq!(n.ops().len(), 1);
        assert!(matches!(&n.ops()[0], Update::Insert(t) if t.get(1) == &Value::int(2)));
    }

    #[test]
    fn normalize_drops_delete_of_missing_tid() {
        let base = rel_with(&[]);
        let mut b = UpdateBatch::new();
        b.delete(42);
        assert!(b.normalize(&base).is_empty());
    }

    /// The two tests are all `normalize_by` sees of `D`: presence alone
    /// decides what cancels, and a present tid's final insert is dropped
    /// only when `unchanged` says so — asked of nothing else.
    #[test]
    fn normalize_by_asks_presence_and_sameness_only() {
        let present = |tid: Tid| tid < 10;
        let mut b = UpdateBatch::new();
        b.insert(tup(1, 0)); // a re-insert of a present tid
        b.insert(tup(20, 3)); // a new tid
        b.delete(2);
        b.insert(tup(21, 4)); // inserted, then deleted: no net effect
        b.delete(21);
        b.delete(22); // absent: nothing to delete
        let asked = std::cell::RefCell::new(Vec::new());
        let never = |t: &Tuple| {
            asked.borrow_mut().push(t.tid);
            false
        };
        let n = b.normalize_by(present, never);
        let want = [
            Update::Delete(1),
            Update::Insert(tup(1, 0)),
            Update::Insert(tup(20, 3)),
            Update::Delete(2),
        ];
        assert_eq!(n.ops(), want);
        assert_eq!(*asked.borrow(), [1]);
        // Where `unchanged` holds, the pair goes; the rest stays.
        let n = b.normalize_by(present, |t| t.tid == 1);
        assert_eq!(n.ops(), &want[2..]);
        // `normalize(base)` is the two tests read off `base`.
        let base = rel_with(&[1, 2]);
        assert_eq!(b.normalize(&base).ops(), &want[2..]);
        let mut moved = UpdateBatch::new();
        moved.insert(tup(1, 5));
        moved.insert(Tuple::new(2, vec![Value::int(2)]));
        let n = moved.normalize(&base);
        let kinds: Vec<_> = n
            .ops()
            .iter()
            .map(|op| (op.tid(), op.is_insert()))
            .collect();
        assert_eq!(kinds, [(1, false), (1, true), (2, false), (2, true)]);
    }

    #[test]
    fn apply_produces_d_oplus_delta() {
        let mut base = rel_with(&[1, 2]);
        let mut b = UpdateBatch::new();
        b.delete(2);
        b.insert(tup(3, 9));
        b.normalize(&base).apply(&mut base).unwrap();
        assert!(base.contains(1));
        assert!(!base.contains(2));
        assert!(base.contains(3));
    }
}
