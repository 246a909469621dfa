//! Columnar, arena-backed tuple storage.
//!
//! [`ColumnStore`] is the physical representation behind [`Relation`]: one
//! dictionary-encoded column (`Vec<Sym>`) per attribute, a row arena with
//! free-list reuse, and a [`TidMap`] giving dense `Tid ↔ RowId` lookup plus
//! tid-ordered iteration. Compared to the previous `BTreeMap<Tid, Tuple>`:
//!
//! * **inserts** append one `u32` per attribute to contiguous columns
//!   (no per-tuple `Arc<[Value]>` allocation, no tree rebalancing);
//! * **scans** read a column as one cache-friendly `&[Sym]` slice
//!   ([`ColumnStore::col`]) instead of chasing a pointer per tuple;
//! * **projections** (`t[X]`) are a handful of indexed `u32` reads
//!   ([`ColumnStore::row_syms`]) instead of per-attribute value clones;
//! * every attribute value is interned exactly once in the store's own
//!   [`ValuePool`], so value equality within the store is symbol equality —
//!   grouping and pattern checks downstream are pure integer work.
//!
//! Deletion releases the row's dictionary references and pushes the row
//! onto a free list; a later insertion reuses the slot, so the arena stays
//! proportional to the live relation's high-water mark.
//!
//! [`Relation`]: crate::relation::Relation

use crate::intern::{Sym, ValuePool};
use crate::schema::AttrId;
use crate::tuple::Tid;
use crate::value::Value;
use crate::RelError;
use std::collections::BTreeMap;

/// Index of a physical row in the arena.
pub type RowId = u32;

/// A copy of `v` with `v`'s capacity, not just its length. A derived
/// `Clone` allocates exactly `len` slots, so a copy that keeps growing
/// re-walks the doubling sequence from there (40k → 80k → 160k where the
/// push-built source sits at 65 536 → 131 072). The store's clones keep
/// the source's growth state instead.
pub(crate) fn clone_with_capacity<T: Clone>(v: &Vec<T>) -> Vec<T> {
    let mut copy = Vec::with_capacity(v.capacity());
    copy.extend_from_slice(v);
    copy
}

/// Dense `Tid → RowId` map with tid-ordered iteration.
///
/// Tuple ids in every workload here are small, mostly-contiguous integers,
/// so the map is a direct-index vector (`row + 1`, `0` = absent) for tids
/// inside a growing dense window, with a `BTreeMap` overflow for outliers.
/// The invariant `sparse keys ≥ dense.len()` makes tid-ordered iteration a
/// linear dense scan followed by the in-order overflow walk.
#[derive(Debug, Default)]
pub struct TidMap {
    /// `row + 1` per tid; `0` marks an absent tid.
    dense: Vec<u32>,
    /// Overflow for tids beyond the dense window (all keys ≥ `dense.len()`).
    sparse: BTreeMap<Tid, RowId>,
    len: usize,
}

impl Clone for TidMap {
    fn clone(&self) -> Self {
        TidMap {
            dense: clone_with_capacity(&self.dense),
            sparse: self.sparse.clone(),
            len: self.len,
        }
    }
}

impl TidMap {
    /// Tids this far past the dense window still grow it (amortized by the
    /// doubling term in [`TidMap::admit_dense`]); anything farther goes to
    /// the overflow tree so one huge tid cannot balloon the vector.
    const DENSE_SLACK: usize = 4096;

    /// Should `tid` live in the dense window (growing it if needed)?
    fn admit_dense(&self, tid: Tid) -> bool {
        (tid as usize) < self.dense.len().max(1) * 2 + Self::DENSE_SLACK
    }

    /// Row of `tid`, if present.
    #[inline]
    pub fn get(&self, tid: Tid) -> Option<RowId> {
        match self.dense.get(tid as usize) {
            Some(0) => None,
            Some(&r) => Some(r - 1),
            None => self.sparse.get(&tid).copied(),
        }
    }

    /// Insert `tid → row`; returns `false` (and changes nothing) when the
    /// tid is already mapped.
    pub fn insert(&mut self, tid: Tid, row: RowId) -> bool {
        if (tid as usize) >= self.dense.len() && self.admit_dense(tid) {
            self.dense.resize(tid as usize + 1, 0);
            // Keep the invariant: overflow keys now inside the window move in.
            let moved: Vec<(Tid, RowId)> = {
                let mut inside = self.sparse.range(..self.dense.len() as Tid);
                let mut v = Vec::new();
                for (&t, &r) in inside.by_ref() {
                    v.push((t, r));
                }
                v
            };
            for (t, r) in moved {
                self.sparse.remove(&t);
                self.dense[t as usize] = r + 1;
            }
        }
        if let Some(slot) = self.dense.get_mut(tid as usize) {
            if *slot != 0 {
                return false;
            }
            *slot = row + 1;
        } else {
            match self.sparse.entry(tid) {
                std::collections::btree_map::Entry::Occupied(_) => return false,
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(row);
                }
            }
        }
        self.len += 1;
        true
    }

    /// Remove `tid`, returning its row.
    pub fn remove(&mut self, tid: Tid) -> Option<RowId> {
        let row = if let Some(slot) = self.dense.get_mut(tid as usize) {
            if *slot == 0 {
                return None;
            }
            let r = *slot - 1;
            *slot = 0;
            r
        } else {
            self.sparse.remove(&tid)?
        };
        self.len -= 1;
        Some(row)
    }

    /// Number of mapped tids.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the map empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `(tid, row)` pairs in ascending tid order.
    pub fn iter(&self) -> impl Iterator<Item = (Tid, RowId)> + '_ {
        self.dense
            .iter()
            .enumerate()
            .filter(|(_, &slot)| slot != 0)
            .map(|(tid, &slot)| (tid as Tid, slot - 1))
            .chain(self.sparse.iter().map(|(&t, &r)| (t, r)))
    }

    /// Largest mapped tid.
    pub fn max_tid(&self) -> Option<Tid> {
        if let Some((&t, _)) = self.sparse.iter().next_back() {
            return Some(t);
        }
        self.dense
            .iter()
            .rposition(|&slot| slot != 0)
            .map(|i| i as Tid)
    }
}

/// Columnar arena storage: the physical layer of a [`Relation`].
///
/// A clone is the same store — rows, row ids, free rows, symbols and
/// free pool slots — with the same capacities.
///
/// [`Relation`]: crate::relation::Relation
#[derive(Debug)]
pub struct ColumnStore {
    arity: usize,
    pool: ValuePool,
    /// One dictionary-encoded column per attribute; all columns share the
    /// same row indexing. Freed rows keep stale symbols (their pool
    /// references are released on delete) until the slot is reused.
    cols: Vec<Vec<Sym>>,
    /// Row → tid (stale for freed rows).
    row_tids: Vec<Tid>,
    /// Freed, reusable rows.
    free: Vec<RowId>,
    tids: TidMap,
    /// Live null occurrences per attribute, maintained by
    /// insert/delete — the completeness metadata column
    /// consumed by the validation suite (`cfd::constraint`): a not-null
    /// check over an attribute with `null_count == 0` needs no scan.
    null_counts: Vec<u64>,
}

impl Clone for ColumnStore {
    fn clone(&self) -> Self {
        ColumnStore {
            arity: self.arity,
            pool: self.pool.clone(),
            cols: self.cols.iter().map(clone_with_capacity).collect(),
            row_tids: clone_with_capacity(&self.row_tids),
            free: clone_with_capacity(&self.free),
            tids: self.tids.clone(),
            null_counts: self.null_counts.clone(),
        }
    }
}

impl ColumnStore {
    /// Empty store for `arity` attributes.
    pub fn new(arity: usize) -> Self {
        ColumnStore {
            arity,
            pool: ValuePool::new(),
            cols: (0..arity).map(|_| Vec::new()).collect(),
            row_tids: Vec::new(),
            free: Vec::new(),
            tids: TidMap::default(),
            null_counts: vec![0; arity],
        }
    }

    /// Live tuples with a null at attribute `a` — O(1), maintained by
    /// every mutation path.
    pub fn null_count(&self, a: AttrId) -> u64 {
        self.null_counts[a as usize]
    }

    /// Attribute count.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Live tuple count.
    pub fn len(&self) -> usize {
        self.tids.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.tids.is_empty()
    }

    /// Physical rows allocated (live + free) — the arena high-water mark.
    pub fn n_rows(&self) -> usize {
        self.row_tids.len()
    }

    /// The store's value dictionary.
    pub fn pool(&self) -> &ValuePool {
        &self.pool
    }

    /// Row of `tid`, if live.
    #[inline]
    pub fn row_of(&self, tid: Tid) -> Option<RowId> {
        self.tids.get(tid)
    }

    /// Is `tid` live?
    pub fn contains(&self, tid: Tid) -> bool {
        self.tids.get(tid).is_some()
    }

    /// The full column of attribute `a`, **including freed rows** — pair
    /// with [`ColumnStore::rows`] (or a remembered [`RowId`]) to read only
    /// live entries. This is the bulk-scan entry point: one contiguous
    /// `u32` slice per attribute.
    #[inline]
    pub fn col(&self, a: AttrId) -> &[Sym] {
        &self.cols[a as usize]
    }

    /// Symbol at `(row, attr)`.
    #[inline]
    pub fn sym(&self, row: RowId, a: AttrId) -> Sym {
        self.cols[a as usize][row as usize]
    }

    /// Value at `(row, attr)` — an O(1) borrow from the dictionary.
    #[inline]
    pub fn value(&self, row: RowId, a: AttrId) -> &Value {
        self.pool.resolve(self.sym(row, a))
    }

    /// The row's symbols in attribute order (the dictionary-encoded tuple).
    #[inline]
    pub fn row_syms(&self, row: RowId) -> impl ExactSizeIterator<Item = Sym> + '_ {
        self.cols.iter().map(move |c| c[row as usize])
    }

    /// Projected values of one row, in `attrs` order (borrowed).
    #[inline]
    pub fn project_values<'a>(
        &'a self,
        row: RowId,
        attrs: &'a [AttrId],
    ) -> impl ExactSizeIterator<Item = &'a Value> + 'a {
        attrs.iter().map(move |&a| self.value(row, a))
    }

    /// Tid of a live row.
    #[inline]
    pub fn tid_of(&self, row: RowId) -> Tid {
        self.row_tids[row as usize]
    }

    /// Live `(tid, row)` pairs in ascending tid order.
    pub fn rows(&self) -> impl Iterator<Item = (Tid, RowId)> + '_ {
        self.tids.iter()
    }

    /// Largest live tid.
    pub fn max_tid(&self) -> Option<Tid> {
        self.tids.max_tid()
    }

    /// Insert a row for `tid` from borrowed values, interning each value
    /// into the store's pool. Errors on arity mismatch or duplicate tid
    /// without mutating anything.
    pub fn insert<'a, I>(&mut self, tid: Tid, values: I) -> Result<RowId, RelError>
    where
        I: IntoIterator<Item = &'a Value>,
        I::IntoIter: ExactSizeIterator,
    {
        let values = values.into_iter();
        if values.len() != self.arity {
            return Err(RelError::ArityMismatch {
                expected: self.arity,
                got: values.len(),
            });
        }
        if self.contains(tid) {
            return Err(RelError::DuplicateTid(tid));
        }
        let row = match self.free.pop() {
            Some(r) => {
                for ((c, nulls), v) in self.cols.iter_mut().zip(&mut self.null_counts).zip(values) {
                    c[r as usize] = self.pool.acquire(v);
                    *nulls += u64::from(v.is_null());
                }
                self.row_tids[r as usize] = tid;
                r
            }
            None => {
                let r = self.row_tids.len() as RowId;
                for ((c, nulls), v) in self.cols.iter_mut().zip(&mut self.null_counts).zip(values) {
                    c.push(self.pool.acquire(v));
                    *nulls += u64::from(v.is_null());
                }
                self.row_tids.push(tid);
                r
            }
        };
        let fresh = self.tids.insert(tid, row);
        debug_assert!(fresh, "contains() checked above");
        Ok(row)
    }

    /// Delete `tid`: release its dictionary references and recycle the row.
    pub fn delete(&mut self, tid: Tid) -> Result<(), RelError> {
        let row = self.tids.remove(tid).ok_or(RelError::MissingTid(tid))?;
        for (c, nulls) in self.cols.iter().zip(&mut self.null_counts) {
            let sym = c[row as usize];
            *nulls -= u64::from(self.pool.resolve(sym).is_null());
            self.pool.release(sym);
        }
        self.free.push(row);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Value {
        Value::str(s)
    }

    #[test]
    fn tid_map_dense_and_sparse() {
        let mut m = TidMap::default();
        assert!(m.insert(3, 30));
        assert!(m.insert(1, 10));
        assert!(!m.insert(3, 99), "duplicate rejected");
        // Far outside the dense window → overflow tree.
        let far = 10_000_000;
        assert!(m.insert(far, 70));
        assert_eq!(m.get(3), Some(30));
        assert_eq!(m.get(far), Some(70));
        assert_eq!(m.get(2), None);
        assert_eq!(m.len(), 3);
        let order: Vec<Tid> = m.iter().map(|(t, _)| t).collect();
        assert_eq!(order, vec![1, 3, far]);
        assert_eq!(m.max_tid(), Some(far));
        assert_eq!(m.remove(far), Some(70));
        assert_eq!(m.max_tid(), Some(3));
        assert_eq!(m.remove(far), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn tid_map_migrates_overflow_into_grown_window() {
        let mut m = TidMap::default();
        m.insert(0, 0);
        let mid = (TidMap::DENSE_SLACK * 4) as Tid; // overflow at first
        m.insert(mid, 1);
        assert_eq!(m.sparse.len(), 1);
        // Inserting nearby tids grows the window past `mid` eventually.
        let mut next_row = 2;
        let mut t = TidMap::DENSE_SLACK as Tid / 2;
        while m.dense.len() <= mid as usize {
            m.insert(t, next_row);
            next_row += 1;
            t = (m.dense.len() as Tid * 2).min(mid + 1);
        }
        assert!(m.sparse.is_empty(), "overflow migrated into dense window");
        assert_eq!(m.get(mid), Some(1));
        let order: Vec<Tid> = m.iter().map(|(t, _)| t).collect();
        assert!(order.windows(2).all(|w| w[0] < w[1]), "tid order preserved");
    }

    #[test]
    fn insert_scan_delete_round_trip() {
        let mut s = ColumnStore::new(2);
        s.insert(5, [&v("a"), &v("x")]).unwrap();
        s.insert(1, [&v("b"), &v("x")]).unwrap();
        s.insert(3, [&v("a"), &v("y")]).unwrap();
        assert_eq!(s.len(), 3);
        let order: Vec<Tid> = s.rows().map(|(t, _)| t).collect();
        assert_eq!(order, vec![1, 3, 5]);
        // Shared values share symbols.
        let r5 = s.row_of(5).unwrap();
        let r3 = s.row_of(3).unwrap();
        assert_eq!(s.sym(r5, 0), s.sym(r3, 0));
        assert_eq!(s.value(r5, 1), &v("x"));
        assert_eq!(s.pool().len(), 4, "a, b, x, y");
        // Column scan sees all three rows.
        assert_eq!(s.col(0).len(), 3);

        s.delete(3).unwrap();
        assert_eq!(s.len(), 2);
        assert!(matches!(s.delete(3), Err(RelError::MissingTid(3))));
        assert_eq!(s.pool().len(), 3, "y collected");
        // The freed row is reused, not grown.
        s.insert(9, [&v("c"), &v("z")]).unwrap();
        assert_eq!(s.n_rows(), 3, "arena reuses the freed slot");
        assert_eq!(s.row_of(9), Some(r3));
    }

    #[test]
    fn null_counts_track_every_mutation_path() {
        let mut s = ColumnStore::new(2);
        assert_eq!(s.null_count(0), 0);
        s.insert(1, [&Value::Null, &v("x")]).unwrap();
        s.insert(2, [&v("a"), &Value::Null]).unwrap();
        assert_eq!((s.null_count(0), s.null_count(1)), (1, 1));
        s.insert(3, [&Value::Null, &Value::Null]).unwrap();
        s.insert(4, [&v("b"), &v("y")]).unwrap();
        assert_eq!((s.null_count(0), s.null_count(1)), (2, 2));
        s.delete(1).unwrap();
        s.delete(3).unwrap();
        assert_eq!((s.null_count(0), s.null_count(1)), (0, 1));
        // Free-list reuse keeps the meter exact.
        s.insert(5, [&Value::Null, &v("z")]).unwrap();
        assert_eq!((s.null_count(0), s.null_count(1)), (1, 1));
        s.delete(5).unwrap();
        s.delete(2).unwrap();
        s.delete(4).unwrap();
        assert_eq!((s.null_count(0), s.null_count(1)), (0, 0));
    }

    #[test]
    fn insert_errors_leave_store_untouched() {
        let mut s = ColumnStore::new(2);
        s.insert(1, [&v("a"), &v("b")]).unwrap();
        let pool_before = s.pool().len();
        assert!(matches!(
            s.insert(1, [&v("q"), &v("r")]),
            Err(RelError::DuplicateTid(1))
        ));
        assert!(matches!(
            s.insert(2, [&v("q")]),
            Err(RelError::ArityMismatch {
                expected: 2,
                got: 1
            })
        ));
        assert_eq!(s.pool().len(), pool_before, "no leaked dictionary refs");
        assert_eq!(s.len(), 1);
    }

    /// Everything a clone must carry over: rows, row ids and symbols, free
    /// rows and pool slots, the overflow tree, and every capacity.
    fn shape(s: &ColumnStore) -> impl PartialEq + std::fmt::Debug {
        let rows: Vec<(Tid, RowId, Vec<Sym>)> = s
            .rows()
            .map(|(tid, row)| (tid, row, s.row_syms(row).collect()))
            .collect();
        let cols: Vec<(usize, usize)> = s.cols.iter().map(|c| (c.len(), c.capacity())).collect();
        (
            rows,
            cols,
            (s.row_tids.len(), s.row_tids.capacity()),
            (s.free.clone(), s.free.capacity()),
            (s.tids.dense.len(), s.tids.dense.capacity()),
            s.tids.sparse.clone(),
            (s.pool.len(), s.pool.capacity(), s.pool.allocated()),
        )
    }

    #[test]
    fn a_clone_keeps_lengths_and_capacities() {
        let mut s = ColumnStore::new(2);
        for tid in 0..100u64 {
            s.insert(tid, [&v(&format!("k{tid}")), &v(&format!("g{}", tid % 9))])
                .unwrap();
        }
        // History: free rows, free pool slots, and one tid past the dense
        // window in the overflow tree.
        for tid in (0..100).step_by(7) {
            s.delete(tid).unwrap();
        }
        s.insert(10_000_000, [&v("far"), &v("g1")]).unwrap();
        assert!(!s.free.is_empty() && !s.tids.sparse.is_empty());
        assert!(s.row_tids.capacity() > s.row_tids.len(), "push-built slack");

        let mut copy = s.clone();
        assert_eq!(shape(&copy), shape(&s));
        // The same inserts — reusing free rows and slots, then growing —
        // leave both equal.
        for tid in 200..400u64 {
            for store in [&mut s, &mut copy] {
                store
                    .insert(tid, [&v(&format!("n{tid}")), &v("g2")])
                    .unwrap();
            }
        }
        assert_eq!(shape(&copy), shape(&s));
    }

    #[test]
    fn projection_reads_are_positional() {
        let mut s = ColumnStore::new(3);
        s.insert(7, [&v("p"), &v("q"), &v("r")]).unwrap();
        let row = s.row_of(7).unwrap();
        let vals: Vec<&Value> = s.project_values(row, &[2, 0]).collect();
        assert_eq!(vals, vec![&v("r"), &v("p")]);
        assert_eq!(s.row_syms(row).len(), 3);
        assert_eq!(s.tid_of(row), 7);
    }
}
