//! Dictionary encoding of attribute values.
//!
//! The detectors' complexity argument (`O(|ΔD| + |ΔV|)` per §4) rests on
//! constant-time index probes, but probing on full [`Value`]s makes every
//! probe hash — and every index entry clone — variable-length string
//! payloads. A [`ValuePool`] interns each distinct value exactly once and
//! hands out a fixed-size symbol ([`Sym`], a `u32`); everything downstream
//! (HEV keys, grouping keys, digests, wire accounting) can then operate on
//! integer symbols:
//!
//! * `v == w  ⟺  pool.acquire(v) == pool.acquire(w)` while both are live,
//! * resolve-back is an O(1) slot read ([`ValuePool::resolve`]),
//! * the pool is reference-counted like the HEVs, so deletions
//!   garbage-collect dictionary entries and symbol ids are reused —
//!   the dictionary stays proportional to the live database.

use crate::fx::FxHashMap;
use crate::smallvec::SmallVec;
use crate::store::clone_with_capacity;
use crate::value::Value;

/// An interned-value symbol: index into its owning [`ValuePool`].
pub type Sym = u32;

/// The 64-bit Fx hash of a value, [`ValuePool`]'s reverse-index key.
fn value_hash(v: &Value) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = crate::fx::FxHasher::default();
    v.hash(&mut h);
    h.finish()
}

/// One dictionary slot, holding the single copy of the interned value
/// (`None` marks a freed, recyclable slot).
#[derive(Debug, Clone)]
struct Slot {
    value: Option<Value>,
    refs: u32,
}

/// A reference-counted dictionary `Value ↔ Sym`.
///
/// `acquire` takes a reference on the value's symbol (allocating a slot on
/// first sight), `release` drops one and garbage-collects the slot at zero;
/// freed symbol ids are recycled for later values. Resolve-back is an O(1)
/// slot read.
///
/// The reverse index maps the value's 64-bit Fx hash to its candidate
/// symbols, verified against the slot payloads — probing hashes the value
/// once and compares `u64`s until the (almost always single) candidate is
/// checked. Compared to keying the map on the value itself, the miss path
/// saves one allocation and one re-hash per new value, and the hit path
/// never chases a shared-pointer key.
///
/// A clone keeps every symbol, free slot and capacity of the source.
#[derive(Debug, Default)]
pub struct ValuePool {
    /// Value hash → symbols of live values with that hash (collisions are
    /// possible, hence the candidate list; in practice it has one entry).
    map: FxHashMap<u64, SmallVec<Sym, 2>>,
    slots: Vec<Slot>,
    free: Vec<Sym>,
}

impl Clone for ValuePool {
    fn clone(&self) -> Self {
        ValuePool {
            map: self.map.clone(),
            slots: clone_with_capacity(&self.slots),
            free: clone_with_capacity(&self.free),
        }
    }
}

impl ValuePool {
    /// Fresh empty pool.
    pub fn new() -> Self {
        ValuePool::default()
    }

    /// Candidate matching `v` under hash `h`, if any.
    fn find(&self, h: u64, v: &Value) -> Option<Sym> {
        let cands = self.map.get(&h)?;
        cands
            .iter()
            .copied()
            .find(|&s| self.slots[s as usize].value.as_ref() == Some(v))
    }

    /// Symbol for `v`, taking one reference (allocates a slot for values
    /// never seen — the only place a value is ever cloned).
    pub fn acquire(&mut self, v: &Value) -> Sym {
        let h = value_hash(v);
        if let Some(s) = self.find(h, v) {
            self.slots[s as usize].refs += 1;
            return s;
        }
        let slot = Slot {
            value: Some(v.clone()),
            refs: 1,
        };
        let s = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = slot;
                s
            }
            None => {
                self.slots.push(slot);
                (self.slots.len() - 1) as Sym
            }
        };
        self.map.entry(h).or_default().push(s);
        s
    }

    /// Symbol for `v` without touching reference counts (pure lookup).
    pub fn lookup(&self, v: &Value) -> Option<Sym> {
        self.find(value_hash(v), v)
    }

    /// The value behind a live symbol (O(1) slot read).
    ///
    /// # Panics
    /// Panics when `s` has no live slot — callers must only resolve
    /// symbols they hold references on.
    pub fn resolve(&self, s: Sym) -> &Value {
        let slot = &self.slots[s as usize];
        assert!(slot.refs > 0, "resolve of a dead symbol {s}");
        slot.value.as_ref().expect("live slot holds a value")
    }

    /// Live reference count of a symbol (0 for freed slots) — used by the
    /// property tests.
    pub fn refs(&self, s: Sym) -> u32 {
        self.slots.get(s as usize).map_or(0, |slot| slot.refs)
    }

    /// Release one reference on `s`, garbage-collecting the slot (and
    /// recycling the id) at zero.
    ///
    /// # Panics
    /// Panics when `s` has no live reference — that indicates the caller's
    /// acquire/release bookkeeping is out of sync.
    pub fn release(&mut self, s: Sym) {
        let slot = &mut self.slots[s as usize];
        assert!(slot.refs > 0, "release of a dead symbol {s}");
        slot.refs -= 1;
        if slot.refs == 0 {
            let v = slot.value.take().expect("live slot holds a value");
            let h = value_hash(&v);
            let cands = self.map.get_mut(&h).expect("live symbol is indexed");
            if cands.len() == 1 {
                self.map.remove(&h);
            } else {
                *cands = cands.iter().copied().filter(|&x| x != s).collect();
            }
            self.free.push(s);
        }
    }

    /// Number of distinct live values in the dictionary.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Is the dictionary empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total slots ever allocated (live + recyclable) — the high-water
    /// mark of distinct simultaneous values.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Allocated capacities of the reverse index, the slots and the free
    /// list.
    #[cfg(test)]
    pub(crate) fn allocated(&self) -> [usize; 3] {
        [
            self.map.capacity(),
            self.slots.capacity(),
            self.free.capacity(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_is_idempotent_on_symbol() {
        let mut p = ValuePool::new();
        let a = p.acquire(&Value::str("EDI"));
        let b = p.acquire(&Value::str("EDI"));
        let c = p.acquire(&Value::int(44));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(p.len(), 2);
        assert_eq!(p.refs(a), 2);
        assert_eq!(p.resolve(a), &Value::str("EDI"));
        assert_eq!(p.resolve(c), &Value::int(44));
        assert_eq!(p.lookup(&Value::str("EDI")), Some(a));
        assert_eq!(p.lookup(&Value::str("NYC")), None);
    }

    #[test]
    fn release_garbage_collects_and_recycles_ids() {
        let mut p = ValuePool::new();
        let a = p.acquire(&Value::str("x"));
        p.acquire(&Value::str("x"));
        p.release(a);
        assert_eq!(p.lookup(&Value::str("x")), Some(a), "one ref remains");
        p.release(a);
        assert_eq!(p.lookup(&Value::str("x")), None, "slot collected");
        assert!(p.is_empty());
        // The freed id is recycled for the next distinct value.
        let b = p.acquire(&Value::str("y"));
        assert_eq!(b, a, "free list reuses slot ids");
        assert_eq!(p.capacity(), 1, "no new slot allocated");
    }

    #[test]
    #[should_panic(expected = "dead symbol")]
    fn release_of_dead_symbol_panics() {
        let mut p = ValuePool::new();
        let a = p.acquire(&Value::int(1));
        p.release(a);
        p.release(a);
    }

    #[test]
    #[should_panic(expected = "dead symbol")]
    fn resolve_of_dead_symbol_panics() {
        let mut p = ValuePool::new();
        let a = p.acquire(&Value::int(1));
        p.release(a);
        let _ = p.resolve(a);
    }

    #[test]
    fn symbols_agree_with_value_equality() {
        let mut p = ValuePool::new();
        // Int(3) vs Str("3") vs Null are distinct values → distinct syms.
        let a = p.acquire(&Value::int(3));
        let b = p.acquire(&Value::str("3"));
        let c = p.acquire(&Value::Null);
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_eq!(p.acquire(&Value::Null), c, "Null groups with itself");
    }
}
