//! Keyed tuple storage.
//!
//! A [`Relation`] stores tuples by tuple id on top of the columnar
//! [`ColumnStore`] arena: per-attribute dictionary-encoded columns plus a
//! dense `Tid ↔ RowId` map. Iteration order is ascending tid (via the
//! dense map), which keeps everything deterministic — important both for
//! reproducible experiments and for the coordinator-side sort-merge of
//! `incVer` (Fig. 5, line 7), which relies on tid order.
//!
//! [`Relation::get`]/[`Relation::iter`] *materialize* tuples (cloning each
//! value out of the dictionary); hot paths should use the borrow-based
//! column accessors instead — [`Relation::col`], [`Relation::value_at`],
//! [`Relation::scan`] and friends — which read symbols and borrowed values
//! straight from the store.

use crate::schema::Schema;
use crate::store::{ColumnStore, RowId};
use crate::tuple::{Tid, Tuple};
use crate::value::Value;
use crate::{RelError, Sym, ValuePool};
use std::sync::Arc;

/// An instance of a schema: a set of tuples keyed by tuple id, stored
/// columnar ([`ColumnStore`]).
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Arc<Schema>,
    store: ColumnStore,
}

impl Relation {
    /// Empty relation over `schema`.
    pub fn new(schema: Arc<Schema>) -> Self {
        let store = ColumnStore::new(schema.arity());
        Relation { schema, store }
    }

    /// Build from tuples, checking arity and tid uniqueness.
    pub fn from_tuples(
        schema: Arc<Schema>,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<Self, RelError> {
        let mut r = Relation::new(schema);
        for t in tuples {
            r.insert(t)?;
        }
        Ok(r)
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The columnar store backing this relation.
    pub fn store(&self) -> &ColumnStore {
        &self.store
    }

    /// The relation's value dictionary (symbols are local to it).
    pub fn pool(&self) -> &ValuePool {
        self.store.pool()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Insert a tuple; errors on arity mismatch or duplicate tid.
    pub fn insert(&mut self, t: Tuple) -> Result<(), RelError> {
        self.store.insert(t.tid, t.values.iter())?;
        Ok(())
    }

    /// Insert a row from borrowed values — the allocation-free ingest path
    /// (no `Tuple` materialization; values are interned directly) —
    /// returning the row it is stored at.
    pub fn insert_row<'a, I>(&mut self, tid: Tid, values: I) -> Result<RowId, RelError>
    where
        I: IntoIterator<Item = &'a Value>,
        I::IntoIter: ExactSizeIterator,
    {
        self.store.insert(tid, values)
    }

    /// A copy of this relation under `schema`: the same store, row ids and
    /// symbols included ([`ColumnStore`]'s clone). A `schema` of another
    /// arity is refused before anything is copied.
    pub fn clone_under(&self, schema: Arc<Schema>) -> Result<Relation, RelError> {
        if schema.arity() != self.schema.arity() {
            return Err(RelError::ArityMismatch {
                expected: schema.arity(),
                got: self.schema.arity(),
            });
        }
        Ok(Relation {
            schema,
            store: self.store.clone(),
        })
    }

    /// Delete by tuple id, returning the removed tuple (materialized).
    pub fn delete(&mut self, tid: Tid) -> Result<Tuple, RelError> {
        let row = self.store.row_of(tid).ok_or(RelError::MissingTid(tid))?;
        let t = self.materialize(tid, row);
        self.store.delete(tid).expect("row was live");
        Ok(t)
    }

    /// Delete by tuple id without materializing the removed tuple.
    pub fn delete_quiet(&mut self, tid: Tid) -> Result<(), RelError> {
        self.store.delete(tid)
    }

    /// Get a tuple by id (materialized — prefer [`Relation::value_at`] /
    /// [`ColumnStore::row_syms`] on hot paths).
    pub fn get(&self, tid: Tid) -> Option<Tuple> {
        let row = self.store.row_of(tid)?;
        Some(self.materialize(tid, row))
    }

    /// The live tuple stored at `row` (materialized).
    pub fn tuple_at(&self, row: RowId) -> Tuple {
        self.materialize(self.store.tid_of(row), row)
    }

    /// Does the relation contain `tid`?
    pub fn contains(&self, tid: Tid) -> bool {
        self.store.contains(tid)
    }

    /// Iterate tuples in tid order (materialized — prefer
    /// [`Relation::scan`] on hot paths).
    pub fn iter(&self) -> impl Iterator<Item = Tuple> + '_ {
        self.store
            .rows()
            .map(move |(tid, row)| self.materialize(tid, row))
    }

    /// Iterate tuple ids in order.
    pub fn tids(&self) -> impl Iterator<Item = Tid> + '_ {
        self.store.rows().map(|(t, _)| t)
    }

    /// Live `(tid, row)` pairs in ascending tid order — the columnar scan
    /// entry point (index into [`Relation::col`] with the row).
    pub fn scan(&self) -> impl Iterator<Item = (Tid, RowId)> + '_ {
        self.store.rows()
    }

    /// Row of `tid`, if live.
    pub fn row_of(&self, tid: Tid) -> Option<RowId> {
        self.store.row_of(tid)
    }

    /// The full column of attribute `a` (includes freed rows; index with
    /// rows from [`Relation::scan`]).
    pub fn col(&self, a: crate::AttrId) -> &[Sym] {
        self.store.col(a)
    }

    /// Borrowed value at `(tid, attr)` — O(1), no clone.
    pub fn value_at(&self, tid: Tid, a: crate::AttrId) -> Option<&Value> {
        self.store.row_of(tid).map(|row| self.store.value(row, a))
    }

    /// Largest tid present (useful for allocating fresh tids in generators).
    pub fn max_tid(&self) -> Option<Tid> {
        self.store.max_tid()
    }

    /// Live tuples with a null at attribute `a` — O(1) completeness
    /// metadata maintained by every mutation path (see
    /// [`ColumnStore::null_count`]).
    pub fn null_count(&self, a: crate::AttrId) -> u64 {
        self.store.null_count(a)
    }

    fn materialize(&self, tid: Tid, row: RowId) -> Tuple {
        Tuple::new(
            tid,
            self.store
                .row_syms(row)
                .map(|s| self.store.pool().resolve(s).clone())
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn schema() -> Arc<Schema> {
        Schema::new("R", &["id", "a"], "id").unwrap()
    }

    fn t(tid: Tid, a: i64) -> Tuple {
        Tuple::new(tid, vec![Value::int(tid as i64), Value::int(a)])
    }

    #[test]
    fn insert_get_delete() {
        let mut r = Relation::new(schema());
        r.insert(t(1, 10)).unwrap();
        r.insert(t(2, 20)).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.get(1).unwrap().get(1), &Value::int(10));
        let removed = r.delete(1).unwrap();
        assert_eq!(removed.tid, 1);
        assert!(!r.contains(1));
        assert!(r.delete(1).is_err());
    }

    #[test]
    fn duplicate_tid_rejected() {
        let mut r = Relation::new(schema());
        r.insert(t(1, 10)).unwrap();
        assert!(matches!(r.insert(t(1, 11)), Err(RelError::DuplicateTid(1))));
        // Original survives.
        assert_eq!(r.get(1).unwrap().get(1), &Value::int(10));
    }

    #[test]
    fn arity_checked() {
        let mut r = Relation::new(schema());
        let bad = Tuple::new(1, vec![Value::int(1)]);
        assert!(matches!(
            r.insert(bad),
            Err(RelError::ArityMismatch {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn iteration_in_tid_order() {
        let mut r = Relation::new(schema());
        for tid in [5, 1, 3] {
            r.insert(t(tid, 0)).unwrap();
        }
        let order: Vec<Tid> = r.tids().collect();
        assert_eq!(order, vec![1, 3, 5]);
        assert_eq!(r.max_tid(), Some(5));
    }

    #[test]
    fn columnar_accessors_borrow_from_the_store() {
        let mut r = Relation::new(schema());
        r.insert(t(1, 7)).unwrap();
        r.insert(t(2, 7)).unwrap();
        assert_eq!(r.value_at(1, 1), Some(&Value::int(7)));
        assert_eq!(r.value_at(99, 1), None);
        // Equal values share a symbol within the relation's pool.
        let sym = |tid| r.store().sym(r.store().row_of(tid).unwrap(), 1);
        assert_eq!(sym(1), sym(2));
        let rows: Vec<_> = r.scan().collect();
        assert_eq!(rows.len(), 2);
        let col = r.col(1);
        assert_eq!(col[rows[0].1 as usize], col[rows[1].1 as usize]);
    }

    #[test]
    fn insert_row_avoids_tuple_materialization() {
        let mut r = Relation::new(schema());
        let vals = [Value::int(9), Value::int(1)];
        let row = r.insert_row(9, vals.iter()).unwrap();
        assert_eq!(r.row_of(9), Some(row));
        assert_eq!(r.get(9).unwrap().get(1), &Value::int(1));
        r.delete_quiet(9).unwrap();
        assert!(r.is_empty());
        assert!(r.pool().is_empty());
    }
}
