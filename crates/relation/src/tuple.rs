//! Tuples.
//!
//! Every tuple carries a globally unique tuple id (`Tid`). The paper's
//! algorithms identify violations by tuple id and use ids to sort-merge
//! partial tuples at coordinator sites; ids also let vertical fragments of
//! the same logical tuple be re-associated without comparing key values.

use crate::schema::AttrId;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// Globally unique tuple identifier.
pub type Tid = u64;

/// A tuple: an id plus one value per schema attribute (or per fragment
/// attribute when the tuple is a projection).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tuple {
    /// Unique tuple id.
    pub tid: Tid,
    /// Values, positionally aligned with the owning schema or fragment.
    pub values: Arc<[Value]>,
}

impl Tuple {
    /// Build a tuple from an id and values.
    pub fn new(tid: Tid, values: Vec<Value>) -> Self {
        Tuple {
            tid,
            values: values.into(),
        }
    }

    /// Value at attribute `a` (positional).
    #[inline]
    pub fn get(&self, a: AttrId) -> &Value {
        &self.values[a as usize]
    }

    /// Project onto `attrs`, preserving the tuple id. Used by vertical
    /// partitioning (`D_i = π_{X_i}(D)`).
    pub fn project(&self, attrs: &[AttrId]) -> Tuple {
        Tuple::new(
            self.tid,
            attrs
                .iter()
                .map(|&a| self.values[a as usize].clone())
                .collect(),
        )
    }

    /// Values at `attrs`, cloned into a vector (the `t[X]` notation).
    /// Call sites that only *read* `t[X]` should prefer [`Tuple::iter_at`],
    /// which borrows instead of cloning.
    pub fn values_at(&self, attrs: &[AttrId]) -> Vec<Value> {
        attrs
            .iter()
            .map(|&a| self.values[a as usize].clone())
            .collect()
    }

    /// Borrowing view of `t[X]`: the values at `attrs` in order, no clones.
    #[inline]
    pub fn iter_at<'a>(&'a self, attrs: &'a [AttrId]) -> impl ExactSizeIterator<Item = &'a Value> {
        attrs.iter().map(|&a| &self.values[a as usize])
    }

    /// Arity of this tuple.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Wire size of the full tuple (id + values).
    pub fn wire_size(&self) -> usize {
        8 + self.values.iter().map(Value::wire_size).sum::<usize>()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}(", self.tid)?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Tuple {
        Tuple::new(
            5,
            vec![Value::int(5), Value::str("Adam"), Value::str("EDI")],
        )
    }

    #[test]
    fn get_and_values_at() {
        let t = t();
        assert_eq!(t.get(1), &Value::str("Adam"));
        assert_eq!(t.values_at(&[2, 0]), vec![Value::str("EDI"), Value::int(5)]);
        let borrowed: Vec<&Value> = t.iter_at(&[2, 0]).collect();
        assert_eq!(borrowed, vec![&Value::str("EDI"), &Value::int(5)]);
    }

    #[test]
    fn projection_keeps_tid() {
        let p = t().project(&[0, 2]);
        assert_eq!(p.tid, 5);
        assert_eq!(p.arity(), 2);
        assert_eq!(p.get(1), &Value::str("EDI"));
    }

    #[test]
    fn wire_sizes() {
        let t = t();
        // 8 (tid) + 8 (int) + (4+4) (Adam) + (4+3) (EDI)
        assert_eq!(t.wire_size(), 8 + 8 + 8 + 7);
    }

    #[test]
    fn cheap_clone_shares_values() {
        let a = t();
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.values, &b.values));
    }
}
