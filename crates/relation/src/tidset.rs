//! [`TidSet`]: a compressed set of ids, the one id set of the detectors'
//! state — `V(Σ, D)` per CFD over tuple ids ([`Tid`]), and the members of
//! §4's IDX classes and of §6's over the row ids ([`RowId`](crate::RowId)) of the store
//! that holds them.
//!
//! Row ids are dense by construction: a [`ColumnStore`](crate::ColumnStore)
//! hands freed rows out again, so they stay below the live row count plus
//! its free list however far tids run. Beyond a few members the set is
//! stored as Roaring-style containers (Chambi, Lemire, Kaser, Godin,
//! "Better bitmap performance with Roaring bitmaps", SPE 2016), whose
//! premise that is:
//!
//! | members | layout | bytes a member |
//! |---|---|---|
//! | ≤ 32 (`SMALL_MAX`), or ≤ 512 (`SPARSE_MAX`) under 8 a chunk | one sorted `Vec` of ids | 4 (`RowId`) or 8 (`Tid`) |
//! | more | one chunk per 2¹⁶-id range holding any: a sorted `u16` array up to 4 096 (`ARRAY_MAX`) members, an 8 KiB bitmap above | 2, or 1 bit of the range |
//!
//! A chunk costs ≈ 56 B before its members, so a set spread thinner than
//! 8 members a chunk stays one vector up to `SPARSE_MAX`: chunking it
//! would save no byte and cost a pointer hop and a search per op (an
//! IDX whose classes held ~30 tids over 6 chunks ran its inserts and
//! removes 1.5× slower chunked than hashed). Layouts fall back as members leave, with hysteresis — chunks become the
//! sorted vector at `SMALL_MAX / 2` members, a bitmap becomes an array at
//! `ARRAY_MAX / 2` — so no insert/remove pair at a threshold converts back
//! and forth. Emptied chunks are freed and vectors give their slack back
//! under a quarter full, so an emptied set holds no heap bytes. Iteration
//! is ascending.

use crate::Tid;

/// Members kept as a sorted vector before the set is chunked.
const SMALL_MAX: usize = 32;
/// Members kept as a sorted vector while they average fewer than 8 a
/// chunk (a 2 KiB or 4 KiB vector).
const SPARSE_MAX: usize = 512;
/// Members of one chunk kept as a sorted `u16` array before it becomes a
/// bitmap (where the two cost the same 8 KiB).
const ARRAY_MAX: usize = 4096;
/// Words of a chunk's bitmap: one bit per id of its 2¹⁶-id range.
const WORDS: usize = (1 << 16) / 64;

/// Give a vector's or a hash table's slack back once removals leave it
/// under a quarter full. Amortised: the ≥ ¾·capacity removals before a
/// shrink pay for it, and the shrunk table is over a quarter full, so
/// growth and shrinkage cannot alternate op by op.
#[macro_export]
macro_rules! shrink_if_sparse {
    ($table:expr) => {
        if $table.len() * 4 < $table.capacity() {
            $table.shrink_to($table.len());
        }
    };
}

/// A set of ids — [`Tid`]s by default, or a store's
/// [`RowId`](crate::RowId)s: one
/// sorted vector while small or sparse, else one sorted `u16` array or
/// bitmap per 2¹⁶-id chunk (thresholds in the `tidset` module docs).
#[derive(Debug, Clone)]
pub struct TidSet<I = Tid>(Layout<I>);

#[derive(Debug, Clone)]
enum Layout<I> {
    /// At most [`SMALL_MAX`] members, or [`SPARSE_MAX`] too sparse to
    /// chunk, ascending.
    Small(Vec<I>),
    /// More than `SMALL_MAX / 2` members, `len` of them, by ascending
    /// chunk key.
    Chunked { chunks: Vec<Chunk>, len: usize },
}

/// The members of one 2¹⁶-id range: `key` is their id's high bits.
#[derive(Debug, Clone)]
struct Chunk {
    key: u64,
    lows: Lows,
}

/// The low 16 bits of a chunk's members.
#[derive(Debug, Clone)]
enum Lows {
    /// At most [`ARRAY_MAX`] members, ascending.
    Array(Vec<u16>),
    /// More than `ARRAY_MAX / 2` members, `len` of them.
    Bitmap { words: Box<[u64]>, len: u32 },
}

impl<I> Default for TidSet<I> {
    fn default() -> Self {
        TidSet(Layout::Small(Vec::new()))
    }
}

impl<I: Copy + Ord + Into<u64> + TryFrom<u64>> FromIterator<I> for TidSet<I> {
    fn from_iter<T: IntoIterator<Item = I>>(ids: T) -> Self {
        let mut set = TidSet::default();
        for id in ids {
            set.insert(id);
        }
        set
    }
}

/// A set's members: `Copy` ids, widened to `u64` to split them into a
/// chunk key and its low 16 bits, and narrowed back from the two — which
/// came from a member, so they always fit.
impl<I: Copy + Ord + Into<u64> + TryFrom<u64>> TidSet<I> {
    /// Number of members.
    pub fn len(&self) -> usize {
        match &self.0 {
            Layout::Small(tids) => tids.len(),
            Layout::Chunked { len, .. } => *len,
        }
    }

    /// Is the set empty? (A chunked set never is.)
    pub fn is_empty(&self) -> bool {
        matches!(&self.0, Layout::Small(tids) if tids.is_empty())
    }

    /// Is `id` a member?
    pub fn contains(&self, id: I) -> bool {
        match &self.0 {
            Layout::Small(ids) => search(ids, id).is_ok(),
            Layout::Chunked { chunks, .. } => {
                let (key, low) = split(id);
                let at = chunks.binary_search_by_key(&key, |c| c.key);
                at.is_ok_and(|i| chunks[i].lows.contains(low))
            }
        }
    }

    /// Smallest member.
    pub fn first(&self) -> Option<I> {
        self.iter().next()
    }

    /// Members, ascending.
    pub fn iter(&self) -> impl Iterator<Item = I> + '_ {
        let (small, chunks): (&[I], &[Chunk]) = match &self.0 {
            Layout::Small(ids) => (ids, &[]),
            Layout::Chunked { chunks, .. } => (&[], chunks),
        };
        let chunked = chunks.iter().flat_map(|c| {
            let base = c.key << 16;
            c.lows
                .iter()
                .filter_map(move |low| I::try_from(base | u64::from(low)).ok())
        });
        small.iter().copied().chain(chunked)
    }

    /// Add `id`; `false` (and nothing changes) when it is a member.
    pub fn insert(&mut self, id: I) -> bool {
        match &mut self.0 {
            Layout::Small(ids) => {
                let Err(i) = search(ids, id) else {
                    return false;
                };
                if ids.len() < SMALL_MAX || (ids.len() < SPARSE_MAX && sparse(ids, id)) {
                    ids.insert(i, id);
                    return true;
                }
                let mut chunks = Vec::new();
                for &t in ids.iter().chain([&id]) {
                    insert_chunked(&mut chunks, t);
                }
                let len = ids.len() + 1;
                self.0 = Layout::Chunked { chunks, len };
                true
            }
            Layout::Chunked { chunks, len } => {
                let fresh = insert_chunked(chunks, id);
                *len += usize::from(fresh);
                fresh
            }
        }
    }

    /// Remove `id`; `false` (and nothing changes) when it is no member.
    pub fn remove(&mut self, id: I) -> bool {
        match &mut self.0 {
            Layout::Small(ids) => {
                let Ok(i) = search(ids, id) else {
                    return false;
                };
                ids.remove(i);
                shrink_if_sparse!(ids);
            }
            Layout::Chunked { chunks, len } => {
                let (key, low) = split(id);
                let Ok(i) = chunks.binary_search_by_key(&key, |c| c.key) else {
                    return false;
                };
                if !chunks[i].lows.remove(low) {
                    return false;
                }
                if chunks[i].lows.len() == 0 {
                    chunks.remove(i);
                    shrink_if_sparse!(chunks);
                }
                *len -= 1;
                if *len <= SMALL_MAX / 2 {
                    let mut ids = Vec::with_capacity(*len);
                    ids.extend(self.iter());
                    self.0 = Layout::Small(ids);
                }
            }
        }
        true
    }

    /// Heap bytes the set holds, from capacities.
    pub fn heap_bytes(&self) -> usize {
        match &self.0 {
            Layout::Small(ids) => ids.capacity() * std::mem::size_of::<I>(),
            Layout::Chunked { chunks, .. } => {
                let lows: usize = chunks.iter().map(|c| c.lows.heap_bytes()).sum();
                chunks.capacity() * std::mem::size_of::<Chunk>() + lows
            }
        }
    }
}

/// Where `x` is, or would go, in the ascending `v`. Fresh ids are mostly
/// the largest yet, so an append skips the search.
fn search<T: Ord + Copy>(v: &[T], x: T) -> Result<usize, usize> {
    match v.last() {
        Some(&last) if last < x => Err(v.len()),
        _ => v.binary_search(&x),
    }
}

/// Would the ascending, non-empty `ids` and `id` hold fewer than 8
/// members a chunk of their span?
fn sparse<I: Copy + Ord + Into<u64>>(ids: &[I], id: I) -> bool {
    let (lo, hi) = (ids[0].min(id).into(), ids[ids.len() - 1].max(id).into());
    let span = (hi >> 16) - (lo >> 16) + 1;
    span.saturating_mul(8) > ids.len() as u64 + 1
}

/// An id's chunk key and its low 16 bits.
fn split<I: Into<u64>>(id: I) -> (u64, u16) {
    let id = id.into();
    (id >> 16, id as u16)
}

fn insert_chunked<I: Into<u64>>(chunks: &mut Vec<Chunk>, id: I) -> bool {
    let (key, low) = split(id);
    match chunks.binary_search_by_key(&key, |c| c.key) {
        Ok(i) => chunks[i].lows.insert(low),
        Err(i) => {
            let lows = Lows::Array(vec![low]);
            chunks.insert(i, Chunk { key, lows });
            true
        }
    }
}

/// A low's bitmap word and its bit in it.
fn bit(low: u16) -> (usize, u64) {
    (usize::from(low >> 6), 1 << (low & 63))
}

impl Lows {
    fn len(&self) -> usize {
        match self {
            Lows::Array(lows) => lows.len(),
            Lows::Bitmap { len, .. } => *len as usize,
        }
    }

    fn contains(&self, low: u16) -> bool {
        match self {
            Lows::Array(lows) => search(lows, low).is_ok(),
            Lows::Bitmap { words, .. } => {
                let (w, b) = bit(low);
                words[w] & b != 0
            }
        }
    }

    fn iter(&self) -> impl Iterator<Item = u16> + '_ {
        let (array, words): (&[u16], &[u64]) = match self {
            Lows::Array(lows) => (lows, &[]),
            Lows::Bitmap { words, .. } => (&[], words),
        };
        let set_bits = words.iter().enumerate().flat_map(|(w, &word)| {
            let mut word = word;
            std::iter::from_fn(move || {
                let b = word.trailing_zeros();
                word &= word.wrapping_sub(1);
                (b < 64).then_some((w * 64) as u16 | b as u16)
            })
        });
        array.iter().copied().chain(set_bits)
    }

    fn insert(&mut self, low: u16) -> bool {
        match self {
            Lows::Array(lows) => {
                let Err(i) = search(lows, low) else {
                    return false;
                };
                if lows.len() < ARRAY_MAX {
                    lows.insert(i, low);
                    return true;
                }
                let mut words = vec![0; WORDS].into_boxed_slice();
                for &l in lows.iter().chain([&low]) {
                    let (w, b) = bit(l);
                    words[w] |= b;
                }
                let len = ARRAY_MAX as u32 + 1;
                *self = Lows::Bitmap { words, len };
                true
            }
            Lows::Bitmap { words, len } => {
                let (w, b) = bit(low);
                let fresh = words[w] & b == 0;
                words[w] |= b;
                *len += u32::from(fresh);
                fresh
            }
        }
    }

    fn remove(&mut self, low: u16) -> bool {
        match self {
            Lows::Array(lows) => {
                let Ok(i) = search(lows, low) else {
                    return false;
                };
                lows.remove(i);
                shrink_if_sparse!(lows);
            }
            Lows::Bitmap { words, len } => {
                let (w, b) = bit(low);
                if words[w] & b == 0 {
                    return false;
                }
                words[w] &= !b;
                *len -= 1;
                if *len as usize <= ARRAY_MAX / 2 {
                    let mut lows = Vec::with_capacity(*len as usize);
                    lows.extend(self.iter());
                    *self = Lows::Array(lows);
                }
            }
        }
        true
    }

    fn heap_bytes(&self) -> usize {
        match self {
            Lows::Array(lows) => lows.capacity() * std::mem::size_of::<u16>(),
            Lows::Bitmap { words, .. } => std::mem::size_of_val(&**words),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// A xorshift stream, so every run replays the same ops.
    fn rng(seed: u64) -> impl FnMut(u64) -> u64 {
        let mut s = seed | 1;
        move |n| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s % n
        }
    }

    /// Everything a set says about itself equals the model's answer.
    fn agrees<I: Copy + Ord + Into<u64> + TryFrom<u64> + std::fmt::Debug>(
        set: &TidSet<I>,
        model: &BTreeSet<I>,
        at: &str,
    ) {
        assert_eq!(set.len(), model.len(), "{at}: len");
        assert_eq!(set.is_empty(), model.is_empty(), "{at}: is_empty");
        assert_eq!(set.first(), model.first().copied(), "{at}: first");
        assert!(set.iter().eq(model.iter().copied()), "{at}: iter");
    }

    /// Seeded insert/remove/contains streams against a `BTreeSet`, one per
    /// round `(base, span, stride)` over the ids `base + stride·r`, each
    /// drifting up then down so every layout is entered and left. After
    /// every op the answers agree; an emptied set holds no heap bytes,
    /// like a new one.
    fn matches_a_btreeset<I>(rounds: &[(u64, u64, u64)])
    where
        I: Copy + Ord + Into<u64> + TryFrom<u64> + std::fmt::Debug,
        <I as TryFrom<u64>>::Error: std::fmt::Debug,
    {
        for (round, &(base, span, stride)) in rounds.iter().enumerate() {
            let mut next = rng(0x9E37_79B9 + round as u64);
            let mut set = TidSet::default();
            let mut model = BTreeSet::new();
            let id = |r: u64| I::try_from(base + stride * r).unwrap();
            for step in 0..40_000u64 {
                let t = id(next(span));
                if next(100) < if step < 20_000 { 80 } else { 20 } {
                    assert_eq!(set.insert(t), model.insert(t), "insert {t:?}");
                } else {
                    assert_eq!(set.remove(t), model.remove(&t), "remove {t:?}");
                }
                let probe = id(next(span));
                assert_eq!(
                    set.contains(probe),
                    model.contains(&probe),
                    "contains {probe:?}"
                );
                if step % 997 == 0 {
                    agrees(&set, &model, &format!("round {round} step {step}"));
                }
            }
            for t in std::mem::take(&mut model) {
                assert!(set.remove(t));
            }
            agrees(&set, &model, &format!("round {round} emptied"));
            assert_eq!(set.heap_bytes(), TidSet::<I>::default().heap_bytes());
        }
    }

    /// Tids around the chunk edges (65 535 | 65 536, 131 071 | 131 072),
    /// up to `u64::MAX`, dense enough in one chunk to cross the
    /// array/bitmap threshold both ways, and sparse over several chunks.
    #[test]
    fn tidset_matches_a_btreeset() {
        matches_a_btreeset::<Tid>(&[
            (0, 40, 1),
            (65_536 - 20, 40, 1),
            (131_072 - 30, 60, 1),
            (u64::MAX - 3 * 39_999, 40_000, 3),
            (5 * 65_536, 8_000, 2),
            (0, 30_000, 7),
        ]);
    }

    /// The same over row ids, whose chunk keys are their high 16 bits: up
    /// to `u32::MAX`, and across the chunk edges.
    #[test]
    fn row_id_sets_match_a_btreeset() {
        matches_a_btreeset::<crate::RowId>(&[
            (65_536 - 20, 40, 1),
            (u64::from(u32::MAX) - 3 * 39_999, 40_000, 3),
            (5 * 65_536, 8_000, 2),
            (0, 30_000, 7),
        ]);
    }

    /// The layout thresholds, crossed one member at a time in both
    /// directions: small → chunked past `SMALL_MAX` and back at half of
    /// it (a sparse set only past `SPARSE_MAX`), array → bitmap past
    /// `ARRAY_MAX` and back at half of it, with no conversion inside
    /// either band.
    #[test]
    fn tidset_thresholds_have_hysteresis() {
        let chunked = |s: &TidSet| matches!(s.0, Layout::Chunked { .. });
        let bitmap = |s: &TidSet| match &s.0 {
            Layout::Chunked { chunks, .. } => {
                chunks.iter().any(|c| matches!(c.lows, Lows::Bitmap { .. }))
            }
            Layout::Small(_) => false,
        };
        // 65 520 .. 65 552 straddles the first chunk edge.
        let mut set: TidSet = (65_520..65_520 + SMALL_MAX as Tid).collect();
        assert!(!chunked(&set));
        set.insert(65_000);
        assert!(chunked(&set));
        let members: Vec<Tid> = set.iter().collect();
        for &t in &members[..members.len() - SMALL_MAX / 2 - 1] {
            set.remove(t);
            assert!(chunked(&set), "still above half");
        }
        set.remove(members[members.len() - SMALL_MAX / 2 - 1]);
        assert!(!chunked(&set));
        assert!(set
            .iter()
            .eq(members[members.len() - SMALL_MAX / 2..].iter().copied()));

        // One tid a chunk is too sparse to chunk until `SPARSE_MAX`.
        let mut set: TidSet = (0..SPARSE_MAX as Tid).map(|i| i << 16).collect();
        assert!(!chunked(&set));
        set.insert(u64::MAX);
        assert!(chunked(&set));
        assert_eq!(set.len(), SPARSE_MAX + 1);
        assert_eq!(set.iter().last(), Some(u64::MAX));

        // Every other tid of chunk 1, so the bitmap holds gaps.
        let tids = |n: usize| (0..n as Tid).map(|i| 65_536 + 2 * i);
        let mut set: TidSet = tids(ARRAY_MAX).collect();
        assert!(chunked(&set) && !bitmap(&set));
        set.insert(65_536 + 2 * ARRAY_MAX as Tid);
        assert!(bitmap(&set));
        for t in tids(ARRAY_MAX + 1).skip(ARRAY_MAX / 2) {
            assert!(bitmap(&set), "still above half");
            set.remove(t);
        }
        assert!(!bitmap(&set));
        assert!(set.iter().eq(tids(ARRAY_MAX / 2)));
        assert_eq!(set.first(), Some(65_536));
        assert!(!set.insert(65_536) && set.contains(65_540) && !set.contains(65_541));
    }

    /// 10⁶ seeded ops over a range that keeps a few chunks on each side
    /// of the array/bitmap threshold, checked against the model
    /// throughout; then emptied back to the empty set's bytes.
    #[test]
    #[ignore = "a million-op soak: cargo test --release -p relation tidset -- --ignored"]
    fn tidset_million_op_soak() {
        let mut next = rng(0x5EED);
        let mut set = TidSet::default();
        let mut model = BTreeSet::new();
        for step in 0..1_000_000u64 {
            let t = if next(4) == 0 {
                next(1 << 20)
            } else {
                70_000 + next(9_000)
            };
            let up = (step / 100_000) % 2 == 0;
            if next(100) < if up { 80 } else { 20 } {
                assert_eq!(set.insert(t), model.insert(t));
            } else {
                assert_eq!(set.remove(t), model.remove(&t));
            }
            if step % 50_000 == 0 {
                agrees(&set, &model, &format!("step {step}"));
            }
        }
        agrees(&set, &model, "end");
        for t in std::mem::take(&mut model) {
            assert!(set.remove(t));
        }
        assert_eq!(set.heap_bytes(), 0);
    }
}
