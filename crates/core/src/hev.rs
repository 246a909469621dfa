//! HEV index structures (§4).
//!
//! For each variable CFD, sites maintain **Hash-based Equivalence-class and
//! Value indices**. A *base* HEV maps a single attribute's values to eqids;
//! a *non-base* HEV is a key/value store that, given a vector of input
//! eqids, returns the eqid of the combined equivalence class:
//! `eq(id[t_{Y1}], …, id[t_{Ym}]) = id[t_{Y1∪…∪Ym}]`.
//!
//! Both kinds are reference-counted by live tuples so deletions
//! garbage-collect equivalence classes, and a table gives its slack back
//! once under a quarter full, keeping index size proportional to the live
//! database. All operations are O(1) hash probes, which is what
//! makes the computational cost of the detectors `O(|ΔD| + |ΔV|)`.
//!
//! **Representation.** Values are dictionary-encoded at ingest
//! ([`relation::ValuePool`]), so a base HEV keys on fixed-size [`Sym`]bols —
//! probes hash a `u32` instead of a string payload, and the index never
//! clones values. Non-base HEV keys are short eqid vectors stored inline
//! ([`EqKey`]): acquiring a class allocates nothing for arities up to the
//! inline capacity, where the old `Box<[EqId]>` representation paid one
//! heap allocation per probe.

use crate::group::{shrink_if_sparse, table_bytes};
use relation::{FxHashMap, SmallVec, Sym};

/// An equivalence-class identifier, unique within its owning HEV.
pub type EqId = u64;

/// Inline key of a non-base HEV: eqid vectors of arity ≤ 4 (the common
/// case — `X ∪ {B}` chains combine two inputs at a time) stay on the stack.
pub type EqKey = SmallVec<EqId, 4>;

/// A base HEV: distinct attribute symbols → eqids, shared by all CFDs.
#[derive(Debug, Default)]
pub struct BaseHev {
    map: FxHashMap<Sym, Entry>,
    next: EqId,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    id: EqId,
    refs: u32,
}

impl BaseHev {
    /// Fresh empty index.
    pub fn new() -> Self {
        BaseHev::default()
    }

    /// Eqid for symbol `s`, allocating a new class and taking a reference.
    pub fn acquire(&mut self, s: Sym) -> EqId {
        if let Some(e) = self.map.get_mut(&s) {
            e.refs += 1;
            return e.id;
        }
        let id = self.next;
        self.next += 1;
        self.map.insert(s, Entry { id, refs: 1 });
        id
    }

    /// Eqid for symbol `s` without changing reference counts (pure lookup).
    pub fn lookup(&self, s: Sym) -> Option<EqId> {
        self.map.get(&s).map(|e| e.id)
    }

    /// Release one reference on `s`'s class, garbage-collecting it at zero.
    /// Returns the eqid the symbol had.
    ///
    /// # Panics
    /// Panics if `s` has no live class — that indicates the caller's
    /// insert/delete bookkeeping is out of sync.
    #[expect(
        clippy::expect_used,
        reason = "a release without its acquire is a bookkeeping bug (# Panics)"
    )]
    pub fn release(&mut self, s: Sym) -> EqId {
        let e = self
            .map
            .get_mut(&s)
            .expect("release of value with no live equivalence class");
        let id = e.id;
        if e.refs > 1 {
            e.refs -= 1;
        } else {
            self.map.remove(&s);
            shrink_if_sparse!(self.map);
        }
        id
    }

    /// Number of live equivalence classes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Heap bytes of the table, from its capacity.
    pub(crate) fn resident_bytes(&self) -> usize {
        table_bytes::<(Sym, Entry)>(self.map.capacity())
    }
}

/// A non-base HEV: vectors of input eqids → combined eqid.
///
/// The dominant case by far is arity 2 (the `X ∪ {B}` chains combine two
/// inputs at a time) with small eqids — per-store sequential counters that
/// in practice never approach `2³²`. That case is stored in a dedicated
/// map keyed on one **fused `u64`** (the two eqids packed as 32-bit
/// halves): an 8-byte key instead of a 40-byte inline vector, so probes
/// hash one word and the table packs 4–5× more entries per cache line.
/// Everything else (other arities, or eqids past 2³²) falls back to the
/// inline-vector map. Both maps share the id counter, so eqids stay unique
/// across representations and a class keeps its id even if a *different*
/// key lands in the other map.
#[derive(Debug, Default)]
pub struct NonBaseHev {
    /// Arity-2 keys with both eqids < 2³², packed `hi << 32 | lo`.
    fused: FxHashMap<u64, Entry>,
    /// Everything else.
    wide: FxHashMap<EqKey, Entry>,
    next: EqId,
}

/// Pack an arity-2 key of small eqids into one word, if possible.
#[inline]
fn fuse(key: &[EqId]) -> Option<u64> {
    match *key {
        [a, b] if a <= u32::MAX as u64 && b <= u32::MAX as u64 => Some((a << 32) | b),
        _ => None,
    }
}

impl NonBaseHev {
    /// Fresh empty index.
    pub fn new() -> Self {
        NonBaseHev::default()
    }

    /// Eqid for the input-eqid vector, allocating and referencing. The
    /// probe hashes the fused word (arity 2) or the borrowed slice; a key
    /// is only materialized when the class is new.
    pub fn acquire(&mut self, key: &[EqId]) -> EqId {
        if let Some(f) = fuse(key) {
            let e = self.fused.entry(f).or_insert_with(|| {
                let id = self.next;
                self.next += 1;
                Entry { id, refs: 0 }
            });
            e.refs += 1;
            return e.id;
        }
        if let Some(e) = self.wide.get_mut(key) {
            e.refs += 1;
            return e.id;
        }
        let id = self.next;
        self.next += 1;
        self.wide
            .insert(EqKey::from_slice(key), Entry { id, refs: 1 });
        id
    }

    /// Pure lookup (the `eq()` function of §4).
    pub fn lookup(&self, key: &[EqId]) -> Option<EqId> {
        match fuse(key) {
            Some(f) => self.fused.get(&f).map(|e| e.id),
            None => self.wide.get(key).map(|e| e.id),
        }
    }

    /// Release one reference, garbage-collecting at zero. Returns the eqid.
    ///
    /// # Panics
    /// Panics when the key has no live class (bookkeeping error).
    #[expect(
        clippy::expect_used,
        reason = "a release without its acquire is a bookkeeping bug (# Panics)"
    )]
    pub fn release(&mut self, key: &[EqId]) -> EqId {
        if let Some(f) = fuse(key) {
            let e = self
                .fused
                .get_mut(&f)
                .expect("release of eqid vector with no live class");
            let id = e.id;
            if e.refs > 1 {
                e.refs -= 1;
            } else {
                self.fused.remove(&f);
                shrink_if_sparse!(self.fused);
            }
            return id;
        }
        let e = self
            .wide
            .get_mut(key)
            .expect("release of eqid vector with no live class");
        let id = e.id;
        if e.refs > 1 {
            e.refs -= 1;
        } else {
            self.wide.remove(key);
            shrink_if_sparse!(self.wide);
        }
        id
    }

    /// Number of live classes.
    pub fn len(&self) -> usize {
        self.fused.len() + self.wide.len()
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.fused.is_empty() && self.wide.is_empty()
    }

    /// Heap bytes of both tables, from their capacities (a wide key past
    /// its inline capacity adds a heap block not counted here).
    pub(crate) fn resident_bytes(&self) -> usize {
        table_bytes::<(u64, Entry)>(self.fused.capacity())
            + table_bytes::<(EqKey, Entry)>(self.wide.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::{Value, ValuePool};

    #[test]
    fn base_assigns_stable_ids_per_symbol() {
        let mut p = ValuePool::new();
        let mut h = BaseHev::new();
        let s44 = p.acquire(&Value::int(44));
        let s1 = p.acquire(&Value::int(1));
        let a = h.acquire(s44);
        let b = h.acquire(s44);
        let c = h.acquire(s1);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(h.lookup(s44), Some(a));
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn base_refcount_gc() {
        let mut p = ValuePool::new();
        let sx = p.acquire(&Value::str("x"));
        let mut h = BaseHev::new();
        let a = h.acquire(sx);
        h.acquire(sx);
        assert_eq!(h.release(sx), a);
        assert_eq!(h.lookup(sx), Some(a), "one ref remains");
        h.release(sx);
        assert_eq!(h.lookup(sx), None, "class collected");
        assert!(h.is_empty());
        // A re-acquire after GC allocates a fresh class id.
        let b = h.acquire(sx);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "no live equivalence class")]
    fn base_release_unknown_panics() {
        let mut h = BaseHev::new();
        h.release(7);
    }

    #[test]
    fn nonbase_eq_function_composes() {
        let mut h = NonBaseHev::new();
        // eq(1, 1) for (CC, zip) — the Example 5 lookup.
        let x = h.acquire(&[1, 1]);
        assert_eq!(h.lookup(&[1, 1]), Some(x));
        let y = h.acquire(&[1, 2]);
        assert_ne!(x, y);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn nonbase_refcount_gc() {
        let mut h = NonBaseHev::new();
        let x = h.acquire(&[3, 4]);
        h.acquire(&[3, 4]);
        h.release(&[3, 4]);
        assert_eq!(h.lookup(&[3, 4]), Some(x));
        h.release(&[3, 4]);
        assert_eq!(h.lookup(&[3, 4]), None);
    }

    #[test]
    fn nonbase_key_order_matters() {
        let mut h = NonBaseHev::new();
        let x = h.acquire(&[1, 2]);
        let y = h.acquire(&[2, 1]);
        assert_ne!(x, y, "eq() inputs are positional");
    }

    #[test]
    fn nonbase_fused_and_wide_representations_agree() {
        let mut h = NonBaseHev::new();
        // Arity-2 small eqids take the fused path …
        let a = h.acquire(&[1, 2]);
        assert_eq!(h.lookup(&[1, 2]), Some(a));
        // … while huge eqids and other arities take the wide path; ids stay
        // unique across the two maps.
        let big = u32::MAX as u64 + 1;
        let b = h.acquire(&[big, 2]);
        let c = h.acquire(&[1, 2, 3]);
        assert!(a != b && b != c && a != c);
        assert_eq!(h.lookup(&[big, 2]), Some(b));
        assert_eq!(h.len(), 3);
        // Boundary: u32::MAX itself still fuses, and (hi, lo) ≠ (lo, hi).
        let d = h.acquire(&[u32::MAX as u64, 0]);
        let e = h.acquire(&[0, u32::MAX as u64]);
        assert_ne!(d, e);
        h.release(&[1, 2]);
        assert_eq!(h.lookup(&[1, 2]), None, "fused class collected");
        h.release(&[big, 2]);
        h.release(&[1, 2, 3]);
        h.release(&[u32::MAX as u64, 0]);
        h.release(&[0, u32::MAX as u64]);
        assert!(h.is_empty());
    }

    #[test]
    fn nonbase_handles_keys_past_inline_capacity() {
        let mut h = NonBaseHev::new();
        let long: Vec<EqId> = (0..9).collect();
        let x = h.acquire(&long);
        assert_eq!(h.lookup(&long), Some(x));
        h.acquire(&long);
        h.release(&long);
        h.release(&long);
        assert!(h.is_empty());
    }
}
