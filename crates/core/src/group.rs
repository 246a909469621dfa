//! One container for the paper's two "group → classes → members"
//! indices: §6's per-site, per-operator group state, keyed by MD5 digests,
//! and §4's IDX, keyed by eqids. A [`GroupState<K>`] is one `X`-value
//! group: its classes (one per distinct `X ∪ {B}` value, named by a class
//! key `K`), each with its members, plus §6's `violating` flag (the IDX
//! leaves it unset). A member is the row id ([`RowId`]) of its tuple in
//! the store the group's driver holds — the detector's one relation, or a
//! site's fragment — so member ids are dense by construction: the store
//! hands freed rows out again, and they stay below its live rows plus its
//! free list however far tids run. The driver names a member by its tid
//! (`ColumnStore::tid_of`) only where a mark enters `ΔV`.
//!
//! # State layout
//!
//! §6 keeps per site "the group's distinct RHS values and a flag", and §4's
//! IDX "`set(t[X])`" per group; the containers below (`GroupState`,
//! `ClassEntry`) cost bytes only where a group has more structure than
//! that. Each `(site, operator)` of §6 and each variable CFD's IDX owns one
//! `FxHashMap<K, GroupState<K>>`. The nested maps they replace gave every
//! group a heap table and every class a heap set (§6 also a cloned RHS
//! value):
//!
//! | per … | was | is |
//! |---|---|---|
//! | group (map slot) | 56 B + a class table of its own (≥ 308 B) | 48 B (§6) / 32 B (IDX), holding the flag, one class key and ≤ 3 member rows; no allocation while one class of ≤ 3 members |
//! | class | 72 B slot (`ClassEntry` 56 B) + a tid table (≥ 52 B) + a `Value` clone | in the group slot, or a 32 B / 24 B slot (`ClassEntry` 16 B) of the group's spilled class map |
//! | membership | ≥ 9 B of a heap table | 4 B inline up to 3 per class; beyond, in a boxed [`TidSet`], 4 B up to 32 and ≈ 2 B chunked (8 B for 8-byte tids, ≈ 9 B in a hashed set before) |
//! | §6, all in, per membership (`hor_wide_sigma`'s seed-1 `D₀`) | ≈ 140 B | 28.5 B, 16.4 MB by [`StateCensus`] (40.6 B, 23.3 MB with tid members; 44.5 B, 25.6 MB with hashed tid sets) |
//! | IDX, all in, per membership (`ver_stream`'s seed-1 `D₀`: 240 000 in 8 691 groups of one class) | 24.0 B, 5.75 MB as hash maps of hash maps of hashed tid sets | 11.5 B, 2.76 MB by [`StateCensus`], HEVs included (16.4 B, 3.94 MB with tid members; 22.0 B, 5.27 MB with hashed tid sets) |
//!
//! The two "all in" rows are `detbench`-scale readings. At tier-1 scale
//! the root package's `tests/resident_bytes.rs` pins both censuses
//! exactly (TPCH, 2 000 rows, 25 rules, 8 sites: §6 925 396 B and the
//! IDX 612 152 B over 21 716 memberships, 42.6 B and 28.2 B each), so a
//! change to this layout moves a literal there.
//!
//! The thresholds come from `detbench`'s `hor_wide_sigma`: 768 variable
//! CFDs on 53 operators, seed 1's `D₀` 56 002 groups, 225 571 classes,
//! 575 398 memberships, 3 584 spilled class maps, 20 359 spilled member
//! sets (kept per CFD, the same data was 78 946 / 435 020 / 1 182 697 /
//! 4 924 / 36 915 and 51.7 MB). 52 418 groups (94 %)
//! hold exactly one class, so one class lives inline; but 540 groups
//! (1 %) hold 142 000 of the classes, 65–378 each, so beyond one the
//! classes are *hashed* (a flat `Vec` there cost 30 % of `updates_per_s`).
//! 139 272 classes (62 %) hold exactly one member, so members start
//! inline; but `hor_tcp_skew`'s Zipf classes reach 65–512 members, so
//! beyond [`INLINE_ROWS`] they are a boxed [`TidSet`] (a sorted vector up
//! to 32 rows, about 2 B a row in 2¹⁶-row chunks beyond; `V(Σ, D)` is kept
//! in the same sets, over tids). Three inline rows is the census's
//! minimum: with 2 / 3 / 4 / 5 inline, `hor_wide_sigma`'s `D₀` reads
//! 17.26 / 16.40 / 19.18 / 19.01 MB, and `thr_tcp_batch`'s TPCH base
//! 5.39 / 5.20 / 5.49 / 5.14 MB at `D₀` and 6.77 / 6.73 / 7.25 / 7.10 MB
//! after its stream (sequential drive): a fourth row widens every §6 slot
//! by 8 B, a fifth fits the same slot. A class's RHS value is read back
//! from the rows through any member (§6's `class_values`; the IDX needs
//! none). Removals demote (`Many → One`, set → inline) and tables give
//! their slack back under a quarter full, so the state follows deletes
//! down as well as inserts up; [`StateCensus`] counts it.

use relation::{FxHashMap, RowId, TidSet};
use std::collections::hash_map::Entry;
use std::hash::Hash;

pub(crate) use relation::shrink_if_sparse;

/// A class key: an MD5 digest (§6) or an eqid (§4).
pub(crate) trait ClassKey: Copy + Eq + Hash + Default {}
impl<K: Copy + Eq + Hash + Default> ClassKey for K {}

/// A class member: the [`RowId`] of the row in the store that holds it —
/// the one member type the detectors keep — or any other dense id a
/// [`TidSet`] can hold.
pub(crate) trait Member: Copy + Ord + Default + Into<u64> + TryFrom<u64> {}
impl<I: Copy + Ord + Default + Into<u64> + TryFrom<u64>> Member for I {}

/// Members a class keeps inline before spilling to a boxed [`TidSet`].
pub(crate) const INLINE_ROWS: usize = 3;

/// The members of one class within a group — rows of the store that
/// holds them: up to [`INLINE_ROWS`] inline, a boxed [`TidSet`] beyond
/// (Zipf-keyed classes reach hundreds of members). Removals demote to
/// inline, and the class's RHS *value* is not kept: any member's row has
/// it.
#[derive(Debug)]
pub(crate) enum ClassEntry<I = RowId> {
    Inline { len: u8, rows: [I; INLINE_ROWS] },
    Spilled(Box<TidSet<I>>),
}

impl<I: Member> ClassEntry<I> {
    /// The class holding just `row`.
    fn of(row: I) -> Self {
        let mut rows = [I::default(); INLINE_ROWS];
        rows[0] = row;
        ClassEntry::Inline { len: 1, rows }
    }

    fn insert(&mut self, row: I) {
        match self {
            ClassEntry::Inline { len, rows } => {
                let n = usize::from(*len);
                if rows[..n].contains(&row) {
                    return;
                }
                if n < INLINE_ROWS {
                    rows[n] = row;
                    *len += 1;
                } else {
                    let set = rows.iter().copied().chain([row]).collect();
                    *self = ClassEntry::Spilled(Box::new(set));
                }
            }
            ClassEntry::Spilled(set) => {
                set.insert(row);
            }
        }
    }

    fn remove(&mut self, row: I) {
        match self {
            ClassEntry::Inline { len, rows } => {
                let n = usize::from(*len);
                if let Some(i) = rows[..n].iter().position(|&t| t == row) {
                    rows[i] = rows[n - 1];
                    *len -= 1;
                }
            }
            ClassEntry::Spilled(set) => {
                set.remove(row);
                if set.len() <= INLINE_ROWS {
                    let mut rows = [I::default(); INLINE_ROWS];
                    for (slot, t) in rows.iter_mut().zip(set.iter()) {
                        *slot = t;
                    }
                    let len = set.len() as u8;
                    *self = ClassEntry::Inline { len, rows };
                }
            }
        }
    }

    fn members(&self) -> Members<'_, I> {
        match self {
            ClassEntry::Inline { len, rows } => Members::Inline(&rows[..usize::from(*len)]),
            ClassEntry::Spilled(set) => Members::Spilled(set),
        }
    }
}

/// Borrowed view of one class's members, however they are stored.
#[derive(Clone, Copy)]
pub(crate) enum Members<'a, I = RowId> {
    Inline(&'a [I]),
    Spilled(&'a TidSet<I>),
}

impl<I: Member> Members<'_, I> {
    pub(crate) fn len(self) -> usize {
        match self {
            Members::Inline(rows) => rows.len(),
            Members::Spilled(set) => set.len(),
        }
    }

    pub(crate) fn first(self) -> Option<I> {
        match self {
            Members::Inline(rows) => rows.first().copied(),
            Members::Spilled(set) => set.first(),
        }
    }

    pub(crate) fn for_each(self, f: impl FnMut(I)) {
        match self {
            Members::Inline(rows) => rows.iter().copied().for_each(f),
            Members::Spilled(set) => set.iter().for_each(f),
        }
    }
}

/// The state of one `X`-value group: its classes and, for §6, whether the
/// *global* group violates (uniform across sites, and across the
/// operator's CFDs the group key matches). One class lives inline —
/// `Few`/`One` are a [`ClassEntry`] flattened next to its key and the
/// flag, so a single-class group allocates nothing and a §6 map slot is
/// 48 B — and a hashed spill takes over from the second class. The layout
/// is canonical: `Many` holds ≥ 2 classes and removals demote, so state
/// follows the data down as well as up.
#[derive(Debug)]
pub(crate) enum GroupState<K, I = RowId> {
    Few {
        violating: bool,
        len: u8,
        bd: K,
        rows: [I; INLINE_ROWS],
    },
    One {
        violating: bool,
        bd: K,
        rows: Box<TidSet<I>>,
    },
    Many {
        violating: bool,
        classes: Box<FxHashMap<K, ClassEntry<I>>>,
    },
}

impl<K: ClassKey, I: Member> GroupState<K, I> {
    /// A new, satisfied group holding `row` in class `bd`.
    pub(crate) fn new(bd: K, row: I) -> Self {
        Self::single(false, bd, ClassEntry::of(row))
    }

    /// The group of one class.
    fn single(violating: bool, bd: K, class: ClassEntry<I>) -> Self {
        match class {
            ClassEntry::Inline { len, rows } => GroupState::Few {
                violating,
                len,
                bd,
                rows,
            },
            ClassEntry::Spilled(rows) => GroupState::One {
                violating,
                bd,
                rows,
            },
        }
    }

    /// Move the class of a single-class group out; the caller writes the
    /// group back.
    #[expect(clippy::unreachable, reason = "every caller handles `Many` first")]
    fn take_single(&mut self) -> (K, ClassEntry<I>) {
        let hole = Self::single(false, K::default(), ClassEntry::of(I::default()));
        match std::mem::replace(self, hole) {
            GroupState::Few { bd, len, rows, .. } => (bd, ClassEntry::Inline { len, rows }),
            GroupState::One { bd, rows, .. } => (bd, ClassEntry::Spilled(rows)),
            GroupState::Many { .. } => unreachable!("callers handle Many first"),
        }
    }

    pub(crate) fn violating(&self) -> bool {
        match self {
            GroupState::Few { violating, .. }
            | GroupState::One { violating, .. }
            | GroupState::Many { violating, .. } => *violating,
        }
    }

    pub(crate) fn set_violating(&mut self, v: bool) {
        match self {
            GroupState::Few { violating, .. }
            | GroupState::One { violating, .. }
            | GroupState::Many { violating, .. } => *violating = v,
        }
    }

    /// Members of class `bd` (0: the group has no such class). What §6's
    /// settle pass reads: an insert into a populated class, or a delete
    /// that leaves one populated, changes nothing a peer sees.
    pub(crate) fn class_len(&self, bd: K) -> usize {
        match self {
            GroupState::Few { bd: b, len, .. } if *b == bd => usize::from(*len),
            GroupState::One { bd: b, rows, .. } if *b == bd => rows.len(),
            GroupState::Many { classes, .. } => classes.get(&bd).map_or(0, |c| c.members().len()),
            _ => 0,
        }
    }

    /// Does the group hold a class other than `bd`?
    pub(crate) fn has_other(&self, bd: K) -> bool {
        match self {
            GroupState::Few { bd: b, .. } | GroupState::One { bd: b, .. } => *b != bd,
            GroupState::Many { .. } => true,
        }
    }

    /// Does the global group violate — do its classes here and at `peers`
    /// (the same key's group at each site holding one) number ≥ 2
    /// distinct?
    pub(crate) fn violates_among<'a>(&self, mut peers: impl Iterator<Item = &'a Self>) -> bool
    where
        K: 'a,
        I: 'a,
    {
        match self {
            GroupState::Few { bd, .. } | GroupState::One { bd, .. } => {
                peers.any(|h| h.has_other(*bd))
            }
            GroupState::Many { .. } => true,
        }
    }

    /// Add `row` to class `bd`, creating the class if need be.
    pub(crate) fn insert(&mut self, bd: K, row: I) {
        if let GroupState::Many { classes, .. } = self {
            match classes.entry(bd) {
                Entry::Occupied(e) => e.into_mut().insert(row),
                Entry::Vacant(e) => {
                    e.insert(ClassEntry::of(row));
                }
            }
            return;
        }
        let violating = self.violating();
        let (b, mut class) = self.take_single();
        *self = if b == bd {
            class.insert(row);
            Self::single(violating, b, class)
        } else {
            // A second class arrives: the inline one moves into the spill.
            let classes = [(b, class), (bd, ClassEntry::of(row))];
            GroupState::Many {
                violating,
                classes: Box::new(classes.into_iter().collect()),
            }
        };
    }

    /// Remove `row` from class `bd`: `(class now empty, classes left)`, or
    /// `None` when the group has no such class. A group left with no
    /// class is the caller's to drop.
    pub(crate) fn remove(&mut self, bd: K, row: I) -> Option<(bool, usize)> {
        let violating = self.violating();
        if let GroupState::Many { classes, .. } = self {
            let class = classes.get_mut(&bd)?;
            class.remove(row);
            let class_empty = class.members().len() == 0;
            if class_empty {
                classes.remove(&bd);
            }
            let left = classes.len();
            if left == 1 {
                let last = classes.drain().next();
                if let Some((b, last)) = last {
                    *self = Self::single(violating, b, last);
                }
            } else {
                shrink_if_sparse!(classes);
            }
            return Some((class_empty, left));
        }
        let (b, mut class) = self.take_single();
        if b == bd {
            class.remove(row);
        }
        let left = usize::from(class.members().len() > 0);
        *self = Self::single(violating, b, class);
        (b == bd).then_some((left == 0, left))
    }

    /// Every class: its key and its members.
    pub(crate) fn for_each_class(&self, mut f: impl FnMut(K, Members<'_, I>)) {
        match self {
            GroupState::Few { len, bd, rows, .. } => {
                f(*bd, Members::Inline(&rows[..usize::from(*len)]));
            }
            GroupState::One { bd, rows, .. } => f(*bd, Members::Spilled(rows)),
            GroupState::Many { classes, .. } => {
                classes.iter().for_each(|(bd, c)| f(*bd, c.members()));
            }
        }
    }

    /// Every member, class by class.
    pub(crate) fn for_each_member(&self, mut f: impl FnMut(I)) {
        self.for_each_class(|_, members| members.for_each(&mut f));
    }
}

/// What a group index holds and what it costs: a census over every group
/// map — §6's `(site, operator)` maps, or §4's per-CFD IDX plus its HEVs
/// — `O(state)` when asked for and free otherwise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StateCensus {
    /// Live groups: `(site, operator, X-value)` in §6, `(CFD, X-value)` in
    /// the IDX.
    pub groups: usize,
    /// Classes over all groups.
    pub classes: usize,
    /// `(operator, row)` (§6) or `(CFD, row)` (IDX) memberships over all
    /// classes.
    pub memberships: usize,
    /// Groups whose classes spilled to a hashed map (≥ 2 classes).
    pub spilled_class_maps: usize,
    /// Classes whose members spilled to a boxed [`TidSet`] (more than
    /// three).
    pub spilled_tid_sets: usize,
    /// Heap bytes of the group maps and every spill (for §4 also of the
    /// HEVs), from capacities.
    pub resident_bytes: usize,
}

/// Heap bytes of a hash table with room for `capacity` entries of `T`:
/// power-of-two buckets at 7/8 load, one control byte each plus a group.
pub(crate) fn table_bytes<T>(capacity: usize) -> usize {
    if capacity == 0 {
        return 0;
    }
    let buckets = (capacity * 8).div_ceil(7).next_power_of_two();
    buckets * (std::mem::size_of::<T>() + 1) + 16
}

impl StateCensus {
    /// Add one group map.
    pub(crate) fn count<K: ClassKey, I: Member>(&mut self, map: &FxHashMap<K, GroupState<K, I>>) {
        self.groups += map.len();
        self.resident_bytes += table_bytes::<(K, GroupState<K, I>)>(map.capacity());
        for g in map.values() {
            if let GroupState::Many { classes, .. } = g {
                self.spilled_class_maps += 1;
                self.resident_bytes += std::mem::size_of::<FxHashMap<K, ClassEntry<I>>>()
                    + table_bytes::<(K, ClassEntry<I>)>(classes.capacity());
            }
            g.for_each_class(|_, members| {
                self.classes += 1;
                self.memberships += members.len();
                if let Members::Spilled(set) = members {
                    self.spilled_tid_sets += 1;
                    self.resident_bytes += std::mem::size_of::<TidSet<I>>() + set.heap_bytes();
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hev::EqId;
    use cluster::md5::Digest;
    use std::collections::BTreeSet;

    /// A later field shows up here before it shows up in `state_rss_mb`.
    #[test]
    fn group_state_sizes_are_guarded() {
        assert!(std::mem::size_of::<ClassEntry>() <= 16);
        assert!(std::mem::size_of::<(Digest, GroupState<Digest>)>() <= 48);
        assert!(std::mem::size_of::<(EqId, GroupState<EqId>)>() <= 32);
    }

    /// Seeded op sequences over a few classes and a dozen tids cross both
    /// spill thresholds (3 ↔ 4 members, 1 ↔ 2 classes) in both directions,
    /// re-insert members and remove absent ones; after every op the group
    /// agrees with a map-of-sets model and its layout is canonical.
    #[test]
    fn group_state_matches_a_hash_map_model() {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let kd = Digest([7; 16]);
        for round in 0..40 {
            let n_classes = 1 + round % 4;
            let mut groups: FxHashMap<Digest, GroupState<Digest>> = FxHashMap::default();
            let mut model: FxHashMap<Digest, BTreeSet<RowId>> = FxHashMap::default();
            for step in 0..400 {
                let bd = Digest([next(n_classes) as u8; 16]);
                let tid = next(12) as RowId;
                // Drift up, then down, so spills are entered and left.
                if next(100) < if step < 200 { 65 } else { 35 } {
                    match groups.entry(kd) {
                        Entry::Vacant(e) => {
                            e.insert(GroupState::new(bd, tid));
                        }
                        Entry::Occupied(e) => {
                            let g = e.into_mut();
                            assert_eq!(g.has_other(bd), model.keys().any(|&k| k != bd));
                            g.insert(bd, tid);
                        }
                    }
                    model.entry(bd).or_default().insert(tid);
                } else if let Some(g) = groups.get_mut(&kd) {
                    let got = g.remove(bd, tid);
                    let want = model.get_mut(&bd).map(|set| {
                        set.remove(&tid);
                        set.is_empty()
                    });
                    if want == Some(true) {
                        model.remove(&bd);
                    }
                    assert_eq!(got, want.map(|empty| (empty, model.len())));
                    if model.is_empty() {
                        groups.remove(&kd);
                    }
                }
                let mut census = StateCensus::default();
                census.count(&groups);
                let spilled = model.values().filter(|s| s.len() > INLINE_ROWS).count();
                assert_eq!(census.groups, usize::from(!model.is_empty()));
                assert_eq!(census.classes, model.len());
                assert_eq!(
                    census.memberships,
                    model.values().map(BTreeSet::len).sum::<usize>()
                );
                assert_eq!(census.spilled_class_maps, usize::from(model.len() >= 2));
                assert_eq!(census.spilled_tid_sets, spilled);
                let Some(g) = groups.get(&kd) else { continue };
                let (mut members, mut classes) = (Vec::new(), Vec::new());
                g.for_each_member(|t| members.push(t));
                g.for_each_class(|bd, m| {
                    classes.push((bd, m.first().is_some_and(|t| model[&bd].contains(&t))));
                });
                members.sort_unstable();
                classes.sort_unstable();
                let mut want_members: Vec<RowId> = model.values().flatten().copied().collect();
                let mut want_classes: Vec<_> = model.keys().map(|&bd| (bd, true)).collect();
                want_members.sort_unstable();
                want_classes.sort_unstable();
                assert_eq!(members, want_members);
                assert_eq!(classes, want_classes);
            }
        }
    }

    /// Returns to start: rows entered into an IDX (`Idx`) and into a §6
    /// group map (`insert_case`) and then deleted again in another order
    /// (`Idx::remove`, `delete_case`) leave both censuses equal to an
    /// empty map's — spilled class maps and member sets, chunked ones
    /// included — and `V`, whose marks name the rows by their tids,
    /// empty with no heap bytes.
    #[test]
    fn group_maps_return_to_start() {
        use crate::horizontal::{delete_case, insert_case};
        use crate::idx::Idx;
        use cfd::{DeltaV, Violations};
        use relation::{ColumnStore, Tid, Value};
        let mut rng = 0x6A09_E667_F3BC_C909u64;
        let mut next = |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        // Skewed keys over 40 groups of 1–3 classes; tids over three chunks.
        let mut rows: Vec<(u64, u64, Tid)> = (0..3_000)
            .map(|i| {
                let key = next(40).min(next(40));
                (key, next(1 + key % 3), i * 53)
            })
            .collect();
        let digest = |x: u64| Digest([x as u8; 16]);
        let (mut idx, mut groups) = (Idx::new(), FxHashMap::default());
        let (mut v, mut dv) = (Violations::new(1), DeltaV::default());
        let mut store = ColumnStore::new(1);
        for &(key, class, tid) in &rows {
            let row = store.insert(tid, [&Value::int(tid as i64)]).unwrap();
            idx.insert(key, class, row);
            let (kd, bd) = (digest(key), digest(class));
            insert_case(&mut groups, (&store, &mut dv), &[0], row, (kd, bd), true);
        }
        let census = |idx: &Idx, groups: &FxHashMap<Digest, GroupState<Digest>>| {
            let (mut i, mut g) = (StateCensus::default(), StateCensus::default());
            idx.count_into(&mut i);
            g.count(groups);
            (i, g)
        };
        let (full_idx, full_groups) = census(&idx, &groups);
        for full in [full_idx, full_groups] {
            assert_eq!(full.memberships, rows.len());
            assert!(
                full.spilled_class_maps > 0 && full.spilled_tid_sets > 0,
                "{full:?}"
            );
        }
        dv.settle();
        v.commit(&std::mem::take(&mut dv)).unwrap();
        assert!(!v.is_empty());
        for i in (1..rows.len()).rev() {
            rows.swap(i, next(i as u64 + 1) as usize);
        }
        for &(key, class, tid) in &rows {
            let row = store.row_of(tid).unwrap();
            assert!(idx.remove(key, class, row).is_some());
            let (kd, bd) = (digest(key), digest(class));
            let marks = (&store, &mut dv);
            let dropped = delete_case(&mut groups, marks, &[0], row, (kd, bd), true);
            assert!(dropped.is_ok());
            store.delete(tid).unwrap();
        }
        let empty = census(&Idx::new(), &FxHashMap::default());
        assert_eq!(census(&idx, &groups), empty);
        dv.settle();
        v.commit(&dv).unwrap();
        assert!(v.is_empty());
        assert_eq!(v.of_cfd(0).heap_bytes(), 0);
    }
}
