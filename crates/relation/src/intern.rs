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
//!
//! [`SymTuple`] is the dictionary-encoded tuple representation: one symbol
//! per attribute in an `Arc<[Sym]>`, so projections and `t[X]` extraction
//! are copy-free symbol reads instead of per-attribute value clones.

use crate::fx::FxHashMap;
use crate::schema::AttrId;
use crate::smallvec::SmallVec;
use crate::store::clone_with_capacity;
use crate::tuple::{Tid, Tuple};
use crate::value::Value;
use std::sync::Arc;

/// An interned-value symbol: index into its owning [`ValuePool`].
pub type Sym = u32;

/// The 64-bit Fx hash of a value — the one hash function [`ValuePool`]'s
/// reverse index and [`InternCache`]'s probe table share (cache hits rely
/// on the two agreeing).
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
/// never chases a shared-pointer key — measurable on bulk loads, where
/// interning dominates.
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

    /// Pre-size the dictionary for `additional` more distinct values —
    /// bulk loads call this once so the map grows without intermediate
    /// rehashes of everything already interned.
    pub fn reserve(&mut self, additional: usize) {
        self.map.reserve(additional);
        self.slots.reserve(additional);
    }

    /// Take `n` additional references on a live symbol in one step — bulk
    /// loads count a batch's repeats locally ([`InternCache`]) and apply
    /// them here at once instead of paying one slot write per row.
    ///
    /// # Panics
    /// Panics when `s` has no live reference.
    pub fn add_refs(&mut self, s: Sym, n: u32) {
        if n == 0 {
            return;
        }
        let slot = &mut self.slots[s as usize];
        assert!(slot.refs > 0, "add_refs on a dead symbol {s}");
        slot.refs += n;
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

    /// Dictionary-encode a tuple, acquiring one reference per attribute
    /// value.
    pub fn encode(&mut self, t: &Tuple) -> SymTuple {
        SymTuple {
            tid: t.tid,
            syms: t.values.iter().map(|v| self.acquire(v)).collect(),
        }
    }

    /// Release the references held by an encoded tuple.
    pub fn release_tuple(&mut self, t: &SymTuple) {
        for &s in t.syms.iter() {
            self.release(s);
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

/// A `Vec`-backed, load-local front for [`ValuePool::acquire`].
///
/// Bulk loads intern every attribute of every row; on skewed data most of
/// those are repeats, so the per-value cost is one hash of the value plus
/// one probe of the pool's global map — a map that is large and cache-cold
/// for a big dictionary — plus a refcount write into a random slot.
/// `InternCache` keeps the load's working set in one flat open-addressed
/// table of `(hash, sym, repeats)` entries: a hit verifies the candidate
/// through an O(1) [`ValuePool::resolve`] and bumps a *local* counter;
/// only misses touch the global map. [`InternCache::flush_refs`] then
/// applies the accumulated repeat counts in one [`ValuePool::add_refs`]
/// call per distinct value.
///
/// The cache holds one pool reference per cached symbol (taken by the miss
/// path's `acquire`), so every cached symbol stays live until the flush
/// transfers ownership of all counted references to the caller.
#[derive(Debug)]
pub struct InternCache {
    /// Open-addressed slots: `(value hash, symbol, repeats since miss)`.
    slots: Vec<Option<(u64, Sym, u32)>>,
    len: usize,
}

impl InternCache {
    /// Cache sized for roughly `distinct` distinct values (it grows as
    /// needed; sizing only avoids early rehashes).
    pub fn with_capacity(distinct: usize) -> Self {
        let cap = distinct.next_power_of_two().max(16) * 2;
        InternCache {
            slots: vec![None; cap],
            len: 0,
        }
    }

    /// Symbol for `v`, counting one reference: repeats bump the local
    /// counter, first sights fall through to [`ValuePool::acquire`].
    pub fn acquire(&mut self, pool: &mut ValuePool, v: &Value) -> Sym {
        if self.len * 4 >= self.slots.len() * 3 {
            self.grow();
        }
        let hash = value_hash(v);
        let mask = self.slots.len() - 1;
        let mut i = (hash as usize) & mask;
        loop {
            match &mut self.slots[i] {
                Some((h, s, extra)) if *h == hash && pool.resolve(*s) == v => {
                    *extra += 1;
                    return *s;
                }
                Some(_) => i = (i + 1) & mask,
                slot @ None => {
                    let s = pool.acquire(v);
                    *slot = Some((hash, s, 0));
                    self.len += 1;
                    return s;
                }
            }
        }
    }

    fn grow(&mut self) {
        let mut bigger: Vec<Option<(u64, Sym, u32)>> = vec![None; self.slots.len() * 2];
        let mask = bigger.len() - 1;
        for entry in self.slots.drain(..).flatten() {
            let mut i = (entry.0 as usize) & mask;
            while bigger[i].is_some() {
                i = (i + 1) & mask;
            }
            bigger[i] = Some(entry);
        }
        self.slots = bigger;
    }

    /// Number of distinct values cached so far — callers use the ratio of
    /// distinct to acquires to decide whether a column is skewed enough
    /// for the cache to pay (a nearly-all-distinct column, e.g. a key,
    /// makes every probe a miss and the cache pure overhead).
    pub fn distinct(&self) -> usize {
        self.len
    }

    /// Apply the accumulated repeat counts to `pool` (one `add_refs` per
    /// distinct value), consuming the cache. After this, `pool` holds
    /// exactly one reference per [`InternCache::acquire`] call made.
    pub fn flush_refs(self, pool: &mut ValuePool) {
        for (_, s, extra) in self.slots.into_iter().flatten() {
            pool.add_refs(s, extra);
        }
    }
}

/// A dictionary-encoded tuple: one [`Sym`] per attribute, positionally
/// aligned with the owning schema. Cloning shares the symbol buffer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SymTuple {
    /// Unique tuple id (same id as the source [`Tuple`]).
    pub tid: Tid,
    /// Interned symbols, one per attribute.
    pub syms: Arc<[Sym]>,
}

impl SymTuple {
    /// Symbol at attribute `a` (positional).
    #[inline]
    pub fn get(&self, a: AttrId) -> Sym {
        self.syms[a as usize]
    }

    /// Symbols at `attrs` — the dictionary-encoded `t[X]`, copy-free.
    #[inline]
    pub fn syms_at<'a>(&'a self, attrs: &'a [AttrId]) -> impl Iterator<Item = Sym> + 'a {
        attrs.iter().map(|&a| self.syms[a as usize])
    }

    /// Arity of the encoded tuple.
    pub fn arity(&self) -> usize {
        self.syms.len()
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
    fn encode_release_round_trip() {
        let mut p = ValuePool::new();
        let t = Tuple::new(7, vec![Value::int(7), Value::str("EDI"), Value::str("EDI")]);
        let st = p.encode(&t);
        assert_eq!(st.tid, 7);
        assert_eq!(st.arity(), 3);
        // Equal values share a symbol.
        assert_eq!(st.get(1), st.get(2));
        assert_ne!(st.get(0), st.get(1));
        assert_eq!(p.refs(st.get(1)), 2, "one ref per attribute slot");
        // `t[X]` as symbols, in attribute order.
        let xs: Vec<Sym> = st.syms_at(&[2, 0]).collect();
        assert_eq!(xs, vec![st.get(2), st.get(0)]);
        p.release_tuple(&st);
        assert!(p.is_empty());
    }

    #[test]
    fn add_refs_bulk_matches_repeated_acquire() {
        let mut p = ValuePool::new();
        let a = p.acquire(&Value::str("x"));
        p.add_refs(a, 3);
        assert_eq!(p.refs(a), 4);
        p.add_refs(a, 0);
        assert_eq!(p.refs(a), 4);
        for _ in 0..4 {
            p.release(a);
        }
        assert!(p.is_empty());
    }

    #[test]
    #[should_panic(expected = "dead symbol")]
    fn add_refs_on_dead_symbol_panics() {
        let mut p = ValuePool::new();
        let a = p.acquire(&Value::int(1));
        p.release(a);
        p.add_refs(a, 1);
    }

    #[test]
    fn intern_cache_equivalent_to_direct_acquires() {
        // A skewed stream through the cache must leave the pool in exactly
        // the state direct acquires would: same symbols, same refcounts.
        let values: Vec<Value> = (0..500)
            .map(|i| match i % 3 {
                0 => Value::str(format!("s-{}", i % 7)),
                1 => Value::int((i % 11) as i64),
                _ => Value::Null,
            })
            .collect();
        let mut direct = ValuePool::new();
        let direct_syms: Vec<Sym> = values.iter().map(|v| direct.acquire(v)).collect();
        let mut cached_pool = ValuePool::new();
        // Deliberately undersized: exercises growth.
        let mut cache = InternCache::with_capacity(2);
        let cached_syms: Vec<Sym> = values
            .iter()
            .map(|v| cache.acquire(&mut cached_pool, v))
            .collect();
        cache.flush_refs(&mut cached_pool);
        assert_eq!(direct_syms, cached_syms, "same first-sight order");
        assert_eq!(direct.len(), cached_pool.len());
        for &s in &direct_syms {
            assert_eq!(direct.refs(s), cached_pool.refs(s), "sym {s}");
        }
        // Releasing every reference drains the pool — no leaked refs.
        for &s in &cached_syms {
            cached_pool.release(s);
        }
        assert!(cached_pool.is_empty());
    }

    #[test]
    fn intern_cache_on_warm_pool_reuses_existing_symbols() {
        let mut pool = ValuePool::new();
        let pre = pool.acquire(&Value::str("warm"));
        let mut cache = InternCache::with_capacity(4);
        let s = cache.acquire(&mut pool, &Value::str("warm"));
        assert_eq!(s, pre, "cache resolves through the existing dictionary");
        cache.acquire(&mut pool, &Value::str("warm"));
        cache.flush_refs(&mut pool);
        assert_eq!(pool.refs(pre), 3);
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
