//! A tiny, dependency-free inline vector.
//!
//! The detection hot paths build many short fixed-arity keys — eqid vectors
//! for the non-base HEVs, interned-symbol group keys for the batch
//! detectors. Keying hash maps on `Box<[T]>`/`Vec<T>` pays one heap
//! allocation per key *construction*, which the paper's `O(|ΔD| + |ΔV|)`
//! per-probe cost analysis cannot afford. [`SmallVec<T, N>`] stores up to
//! `N` elements inline (CFD arities are almost always ≤ 4) and spills to a
//! heap vector only beyond that.
//!
//! The type implements `Borrow<[T]>`, `Hash` and `Eq` consistently with the
//! slice type, so a `FxHashMap<SmallVec<T, N>, V>` can be probed with a
//! plain `&[T]` — lookups never allocate, and inserts of short keys don't
//! either.

use std::borrow::Borrow;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// An inline-first vector of `Copy` elements; spills to the heap past `N`.
#[derive(Debug, Clone)]
pub struct SmallVec<T, const N: usize> {
    /// Total number of elements (inline or spilled).
    len: u32,
    /// Inline storage, valid for `..len` while `len <= N`.
    inline: [T; N],
    /// Heap storage holding *all* elements once `len > N`.
    spill: Vec<T>,
}

impl<T: Copy + Default, const N: usize> SmallVec<T, N> {
    /// Empty vector (no allocation).
    pub fn new() -> Self {
        SmallVec {
            len: 0,
            inline: [T::default(); N],
            spill: Vec::new(),
        }
    }

    /// Copy a slice into a fresh vector (inline when it fits).
    pub fn from_slice(s: &[T]) -> Self {
        let mut v = SmallVec::new();
        for &x in s {
            v.push(x);
        }
        v
    }

    /// Append one element, spilling to the heap at the `N+1`-st.
    pub fn push(&mut self, x: T) {
        let l = self.len as usize;
        if l < N {
            self.inline[l] = x;
        } else {
            if l == N {
                self.spill.reserve(N + 4);
                self.spill.extend_from_slice(&self.inline);
            }
            self.spill.push(x);
        }
        self.len += 1;
    }

    /// The elements as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        if self.len as usize <= N {
            &self.inline[..self.len as usize]
        } else {
            &self.spill
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Is the vector empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<T: Copy + Default, const N: usize> Default for SmallVec<T, N> {
    fn default() -> Self {
        SmallVec::new()
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for SmallVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = SmallVec::new();
        for x in iter {
            v.push(x);
        }
        v
    }
}

impl<T: Copy + Default, const N: usize> Deref for SmallVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

// Eq/Hash/Borrow agree with the slice type, so `FxHashMap<SmallVec<T, N>, V>`
// can be probed with `&[T]` — the `Borrow` contract requires exactly this
// consistency.
impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for SmallVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for SmallVec<T, N> {}

impl<T: Copy + Default + Hash, const N: usize> Hash for SmallVec<T, N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl<T: Copy + Default, const N: usize> Borrow<[T]> for SmallVec<T, N> {
    fn borrow(&self) -> &[T] {
        self.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fx::FxHashMap;
    use std::hash::BuildHasher;

    #[test]
    fn inline_until_capacity_then_spills() {
        let mut v: SmallVec<u64, 4> = SmallVec::new();
        assert!(v.is_empty() && v.spill.is_empty());
        for i in 0..4 {
            v.push(i);
        }
        assert!(v.spill.is_empty());
        assert_eq!(v.as_slice(), &[0, 1, 2, 3]);
        v.push(4);
        assert!(!v.spill.is_empty());
        assert_eq!(v.as_slice(), &[0, 1, 2, 3, 4]);
        assert_eq!(v.len(), 5);
    }

    #[test]
    fn from_slice_and_iterator_round_trip() {
        let v: SmallVec<u32, 2> = SmallVec::from_slice(&[7, 8, 9]);
        assert_eq!(&*v, &[7, 8, 9]);
        let w: SmallVec<u32, 2> = [7u32, 8, 9].into_iter().collect();
        assert_eq!(v, w);
    }

    #[test]
    fn hash_agrees_with_slice() {
        // The Borrow contract: SmallVec and its slice must hash identically
        // under the same BuildHasher.
        let build = crate::fx::FxBuildHasher::default();
        for s in [&[][..], &[1u64][..], &[1, 2, 3, 4, 5][..]] {
            let v: SmallVec<u64, 4> = SmallVec::from_slice(s);
            assert_eq!(build.hash_one(&v), build.hash_one(s));
        }
    }

    #[test]
    fn map_probed_by_slice_without_alloc() {
        let mut m: FxHashMap<SmallVec<u64, 4>, &str> = FxHashMap::default();
        m.insert(SmallVec::from_slice(&[1, 2]), "short");
        m.insert(SmallVec::from_slice(&[1, 2, 3, 4, 5]), "long");
        assert_eq!(m.get([1u64, 2].as_slice()), Some(&"short"));
        assert_eq!(m.get([1u64, 2, 3, 4, 5].as_slice()), Some(&"long"));
        assert_eq!(m.get([9u64].as_slice()), None);
        assert!(m.remove([1u64, 2].as_slice()).is_some());
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn slice_view_agrees_across_storage_modes() {
        // Same logical contents in different storage modes: N=8 stays
        // inline, N=2 spills. Eq is per-type (same N ⇒ same mode for the
        // same length), so the cross-mode comparison goes via the slice
        // view — which is also what Borrow-based map probing sees.
        let inline: SmallVec<u64, 8> = SmallVec::from_slice(&[1, 2, 3]);
        let spilled: SmallVec<u64, 2> = SmallVec::from_slice(&[1, 2, 3]);
        assert!(inline.spill.is_empty() && !spilled.spill.is_empty());
        assert_eq!(inline.as_slice(), spilled.as_slice());
        // Within one type, equality follows contents.
        let rebuilt: SmallVec<u64, 2> = [1u64, 2, 3].into_iter().collect();
        assert_eq!(spilled, rebuilt);
        assert_ne!(spilled, SmallVec::<u64, 2>::from_slice(&[1, 2, 4]));
    }
}
