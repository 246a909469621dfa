//! The one ordering rule of §6, written once.
//!
//! No driver of the site machine runs a batch strictly in batch order. The
//! sequential loop ([`HorizontalDetector`](super::HorizontalDetector))
//! keeps rounds in flight across it; a threaded site applies on arrival
//! whatever no peer can tell from its absence
//! ([`Site::settle`](super::site::Site::settle)); the coordinator places
//! the rest in waves ([`WavePlanner`]). Each must leave what batch order
//! leaves, and each asks the same question of an earlier update and a
//! later one: may the later one run before the earlier one is through?
//! [`verdict`] answers it, and nothing else does.
//!
//! All a site ever shows of a group is the *set* of its RHS classes and
//! its flag. That is what a `ProbeReply`'s conflicts, a `DelReply`'s values
//! and the holders of a `ClearFlags` are computed from, and what decides
//! whether an update of its own ships. How many tuples a class holds shows
//! nowhere. So an update is one of two kinds, told apart at its home site
//! by the size of its RHS class in every group it matches:
//!
//! * **class-preserving** — an insert that finds a member of its class, a
//!   delete that leaves one behind. These are §6's zero-shipment cases
//!   (Examples 2 and 9: a local same-RHS witness decides). Such an update
//!   ships nothing under either value of the flag, reads nothing remote,
//!   and changes nothing a peer's request reads.
//! * a **writer** — it creates or empties a class. Its round can flip the
//!   group's flag across the mesh, and what it concludes depends on the
//!   classes its peers hold when asked.
//!
//! An update's *footprint* is one [`Key`] per key group it matches: every
//! group it, or a round it opens, can touch at any site (a peer derives
//! keys from the tuple's own values only, and a group exists only where a
//! tuple of that key matched). Two updates that share nothing commute. Two
//! that share something get one of four verdicts:
//!
//! | verdict | shared | why |
//! |---|---|---|
//! | [`Verdict::Tid`] | the tid | a modification normalizes to a delete and an insert of one tid, possibly at two homes |
//! | [`Verdict::SameHome`] | a key, at one site | program order at a site: an insert round's `finish` raises the flag and marks its own tuple only, so a class-preserving newcomer to the group that ran first would stay unmarked |
//! | [`Verdict::Writer`] | a key, at two sites, both writers | each can tell whether the other ran |
//! | [`Verdict::Commutes`] | a key, at two sites, one class-preserving | see below |
//!
//! A class-preserving insert or delete against another site's writer that
//! raises or clears the flag of their group comes out the same in either
//! order: `mark_group` and `clear_group` act on whoever is a member when
//! the flag moves, an insert takes the flag it finds, and a delete takes
//! its own marks with it. `V` is a function of the final state, and a
//! batch's `ΔV` is settled (net) before anyone sees it.
//!
//! Two holders keep what a driver is still waiting on:
//!
//! * a [`Ledger`] of earlier updates, each with its wave. The sequential
//!   loop enters every round it opens at wave 0, with the round's *reach*
//!   (the footprint keys its requests carry), and drains before an update
//!   whose verdict is not `Commutes`. The coordinator enters every deferred
//!   update with its full footprint and places the next one in the first
//!   wave its verdicts allow.
//! * [`Deferrals`]: a site's settle pass, a ledger at one home plus the
//!   class sizes its deferred updates will change.

use super::site::{OpScratch, SiteConfig};
use crate::detector::DetectError;
use cfd::OpId;
use cluster::md5::Digest;
use cluster::net::bytes::{malformed, put_varint, Field, Le32, Reader};
use cluster::{ClusterError, SiteId};
use relation::{FxHashMap, Tid, Tuple, Update};

/// Tables of a holder keep this much room between batches: a `D₀` window
/// enters thousands of updates, a steady batch a handful.
const KEPT: usize = 64;

/// One footprint key, `(key group, group key)` as one 32-bit word: a
/// deferred delete's footprint crosses a link, four bytes a key. The group
/// key is an MD5 digest, so its first four bytes, mixed with the key
/// group, tell two keys apart but for a 2⁻³² chance. Two keys taken for one
/// order two updates that could have run at once; they never let two run
/// at once that must not.
pub(crate) type Key = u32;

/// The [`Key`] of group key `kd` in key group `g`.
pub(crate) fn key(g: usize, kd: Digest) -> Key {
    // The low quarter of the little-endian digest: its first four bytes.
    u128::from_le_bytes(kd.0) as u32 ^ g as u32
}

/// What a later update must wait for of an earlier one it meets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Nothing: it may run first.
    Commutes,
    /// The two share a tid.
    Tid,
    /// The two share a key at one site.
    SameHome,
    /// The two share a key at two sites, and both write.
    Writer,
}

/// An update as the rule sees it: its home site and whether it writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Party {
    pub(crate) home: SiteId,
    pub(crate) writes: bool,
}

/// What two updates share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Shared {
    Tid,
    Key,
}

/// The rule: what an update of `home` must wait for of `earlier`, which
/// precedes it in batch order and shares `shared` with it. Whether the
/// later update writes is asked only when it decides: when `earlier` is a
/// writer of another site on a shared key.
pub(crate) fn verdict(
    earlier: Party,
    home: SiteId,
    shared: Shared,
    writes: impl FnOnce() -> bool,
) -> Verdict {
    match shared {
        Shared::Tid => Verdict::Tid,
        Shared::Key if earlier.home == home => Verdict::SameHome,
        Shared::Key if earlier.writes && writes() => Verdict::Writer,
        Shared::Key => Verdict::Commutes,
    }
}

impl Verdict {
    /// The first wave the later update may take behind `earlier`, placed in
    /// wave `w`. Behind a class-preserving update of its own site the same
    /// wave will do: a site runs its share of a wave in slice order, and a
    /// class-preserving update completes on the spot.
    fn wave_after(self, earlier: Party, w: u32) -> u32 {
        match self {
            Verdict::Commutes => 0,
            Verdict::SameHome => w + u32::from(earlier.writes),
            Verdict::Tid | Verdict::Writer => w + 1,
        }
    }
}

/// An earlier update and its wave, in 16 bytes: a ledger keeps one per tid
/// and key it was entered with.
#[derive(Clone, Copy)]
struct Entry {
    home: SiteId,
    wave: u32,
    writes: bool,
}

impl Entry {
    fn party(self) -> Party {
        Party {
            home: self.home,
            writes: self.writes,
        }
    }

    /// The first wave a later update of its own site may take on a key
    /// they share.
    fn own_wave(self) -> u32 {
        Verdict::SameHome.wave_after(self.party(), self.wave)
    }
}

/// The earlier updates a driver is still ordering against. Of the entries
/// that bound a later update the same way, only the one with the largest
/// bound is kept: every later update was placed behind the earlier ones,
/// so the last writer of a key, and the last update of a tid, are it.
#[derive(Default)]
pub(crate) struct Ledger {
    tids: FxHashMap<Tid, Entry>,
    /// Per key: the last writer, at any site.
    writers: FxHashMap<Key, Entry>,
    /// Per site and key: what bounds that site's next update on the key
    /// and `writers` does not hold — a class-preserving update, or a writer
    /// another site's writer displaced. A driver that enters only writers
    /// that share no key (the sequential loop) leaves it empty.
    at_home: FxHashMap<(SiteId, Key), Entry>,
}

impl Ledger {
    /// What an update of `tid` at `home` with footprint `keys` must wait
    /// for: the first verdict it draws that is not `Commutes` (or
    /// `Commutes`), and the first wave it may take. `writes` is asked only
    /// when [`verdict`] needs it, possibly more than once.
    pub(crate) fn wait(
        &self,
        home: SiteId,
        tid: Tid,
        keys: impl IntoIterator<Item = Key>,
        mut writes: impl FnMut() -> bool,
    ) -> (Verdict, u32) {
        let mut wait = (Verdict::Commutes, 0);
        if self.tids.is_empty() {
            return wait;
        }
        let mut meet = |e: &Entry, shared| {
            let v = verdict(e.party(), home, shared, &mut writes);
            if wait.0 == Verdict::Commutes {
                wait.0 = v;
            }
            wait.1 = wait.1.max(v.wave_after(e.party(), e.wave));
        };
        if let Some(e) = self.tids.get(&tid) {
            meet(e, Shared::Tid);
        }
        for k in keys {
            let entries = self.at_home.get(&(home, k)).into_iter();
            entries
                .chain(self.writers.get(&k))
                .for_each(|e| meet(e, Shared::Key));
        }
        wait
    }

    /// Enter an update of `tid` placed in `wave`, with the `keys` a later
    /// update can meet it on.
    pub(crate) fn enter(
        &mut self,
        party: Party,
        wave: u32,
        tid: Tid,
        keys: impl IntoIterator<Item = Key>,
    ) {
        let Party { home, writes } = party;
        let e = Entry { home, wave, writes };
        self.tids.insert(tid, e);
        for k in keys {
            let kept = if writes {
                self.writers.insert(k, e).filter(|d| d.home != home)
            } else {
                Some(e)
            };
            if let Some(d) = kept {
                let slot = self.at_home.entry((d.home, k)).or_insert(d);
                if d.own_wave() > slot.own_wave() {
                    *slot = d;
                }
            }
        }
    }

    /// Forget every update, keeping the tables' room.
    pub(crate) fn clear(&mut self) {
        self.tids.clear();
        self.writers.clear();
        self.at_home.clear();
    }

    /// Forget every update and give back what a large batch grew.
    pub(crate) fn give_back(&mut self) {
        self.clear();
        self.tids.shrink_to(KEPT);
        self.writers.shrink_to(KEPT);
        self.at_home.shrink_to(KEPT);
    }
}

/// An RHS class: operator, group key, RHS digest.
pub(crate) type Class = (OpId, Digest, Digest);

/// What a site's settle pass remembers of the updates of its slice it
/// deferred, so that every later update of the slice is classified — and
/// kept in program order — as if they had run. Sized by the deferred
/// updates, not by the slice.
#[derive(Default)]
pub(crate) struct Deferrals {
    pub(crate) ledger: Ledger,
    /// Per RHS class: members the deferred updates will add, less those
    /// they will remove. Without it an insert behind a deferred delete that
    /// empties its class would count a member that is gone by the time it
    /// runs.
    pending: FxHashMap<Class, i32>,
}

impl Deferrals {
    /// What the deferred updates will have done to `class` by the time a
    /// later update of the slice runs.
    pub(crate) fn pending(&self, class: Class) -> i32 {
        self.pending.get(&class).copied().unwrap_or(0)
    }

    /// Defer an update of `tid` that adds `sign` members to each of
    /// `classes`.
    pub(crate) fn defer(
        &mut self,
        party: Party,
        tid: Tid,
        keys: impl IntoIterator<Item = Key>,
        sign: i32,
        classes: impl IntoIterator<Item = Class>,
    ) {
        self.ledger.enter(party, 0, tid, keys);
        for class in classes {
            *self.pending.entry(class).or_insert(0) += sign;
        }
    }

    /// Forget the slice; give back what a large one grew.
    pub(crate) fn clear(&mut self) {
        self.ledger.give_back();
        self.pending.clear();
        self.pending.shrink_to(KEPT);
    }
}

/// The coordinator's placing of the updates the settle passes deferred, in
/// batch order, each in the first wave its verdicts against the updates
/// placed before it allow. Its footprint is the machine's own candidate
/// list, so the implicit queries a writer's probe raises at a peer never
/// meet a half-done write there: an insert's computed here from the
/// tuple, a delete's by its home, which holds the row. The scratch is kept
/// between batches — placing is the one part of a batch no site can
/// overlap with.
#[derive(Default)]
pub(crate) struct WavePlanner {
    placed: Ledger,
    sx: OpScratch,
    /// The footprint of the update being placed.
    keys: Vec<Key>,
    /// Waves the batch needs so far.
    n_waves: u32,
}

cluster::wire! {
    /// What a site's settle pass left for the wave schedule; on the wire, a
    /// `Deferred` frame's body (`crate::concurrent`'s control plane).
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub(crate) struct DeferredList {
        /// The slice position of each deferred update, ascending, and whether
        /// the update writes.
        pub updates: Vec<(u32, bool)> as Vec<Flagged>,
        /// The footprint keys of each deferred *delete*, in slice order: its
        /// home read the row, which the coordinator does not keep. (Which
        /// deferred updates are deletes, the coordinator knows from its batch.)
        pub footprints: Vec<Vec<Key>> as Vec<Vec<Le32>>,
    }
}

/// A slice position and whether its update writes, as one varint
/// `position << 1 | writes`.
struct Flagged;

impl Field for Flagged {
    type Value = (u32, bool);

    fn put(out: &mut Vec<u8>, &(pos, writes): &(u32, bool)) {
        put_varint(out, (u64::from(pos) << 1) | u64::from(writes));
    }

    fn get(r: &mut Reader<'_>) -> Result<(u32, bool), ClusterError> {
        let x = r.varint()?;
        let pos = u32::try_from(x >> 1).map_err(|_| malformed("position out of range"))?;
        Ok((pos, x & 1 == 1))
    }
}

impl WavePlanner {
    /// The wave of the deferred update of `t` at `home`.
    pub(crate) fn place(&mut self, cfg: &SiteConfig, home: SiteId, t: &Tuple, writes: bool) -> u32 {
        cfg.candidates(t, &mut self.sx);
        let mut keys = std::mem::take(&mut self.keys);
        keys.clear();
        keys.extend(self.sx.footprint());
        let w = self.place_keys(home, t.tid, &keys, writes);
        self.keys = keys;
        w
    }

    /// The wave of the deferred update of `tid` at `home` with footprint
    /// `keys`.
    fn place_keys(&mut self, home: SiteId, tid: Tid, keys: &[Key], writes: bool) -> u32 {
        let (_, w) = self.placed.wait(home, tid, keys.iter().copied(), || writes);
        self.placed
            .enter(Party { home, writes }, w, tid, keys.iter().copied());
        self.n_waves = self.n_waves.max(w + 1);
        w
    }

    /// End the batch: the waves it needs, with the tables given back.
    pub(crate) fn finish(&mut self) -> u32 {
        self.placed.give_back();
        std::mem::take(&mut self.n_waves)
    }

    /// Place a batch: `ops` with their homes, in batch order; `deferred`,
    /// per site, what its settle pass left — a delete's footprint among
    /// it. The number of waves and, per site, the wave of each update it
    /// deferred. A list that leaves a deferred delete without a footprint
    /// is an internal error (the coordinator checks a site's list against
    /// its slice before it schedules from it).
    pub(crate) fn schedule<'a>(
        &mut self,
        cfg: &SiteConfig,
        ops: impl IntoIterator<Item = (SiteId, &'a Update)>,
        deferred: &[DeferredList],
    ) -> Result<(u32, Vec<Vec<u32>>), DetectError> {
        let mut waves: Vec<Vec<u32>> = deferred.iter().map(|_| Vec::new()).collect();
        let mut at = vec![0; deferred.len()];
        let mut deletes = vec![0; deferred.len()];
        let place_all = || {
            for (home, op) in ops {
                let pos = at[home];
                at[home] += 1;
                let next = deferred[home].updates.get(waves[home].len());
                let Some(&(_, writes)) = next.filter(|d| d.0 == pos) else {
                    continue;
                };
                waves[home].push(match op {
                    Update::Insert(t) => self.place(cfg, home, t, writes),
                    Update::Delete(tid) => {
                        let i = deletes[home];
                        deletes[home] += 1;
                        let Some(keys) = deferred[home].footprints.get(i) else {
                            let what =
                                format!("site {home} deferred a delete of {tid} with no footprint");
                            return Err(DetectError::Internal(what));
                        };
                        self.place_keys(home, *tid, keys, writes)
                    }
                });
            }
            Ok(())
        };
        let placed = place_all();
        // A failed batch ends here too: its footprints must not outlive it.
        let n_waves = self.finish();
        placed.map(|()| (n_waves, waves))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every case of the rule. Each row guards against one of the
    /// mutations the rule must not survive — drop the tid rule, drop the
    /// same-home rule, let a writer run past another site's writer — or
    /// the one it must not make: order what commutes (more waves and
    /// drains, the same results).
    #[test]
    fn the_rule_case_by_case() {
        use Verdict::*;
        let (w, p) = (true, false); // a writer, a class-preserving update
                                    // (shared, same home, earlier writes, later writes) → verdict
        let rows = [
            // A modification's two halves, wherever they live.
            ((Shared::Tid, true, w, w), Tid),
            ((Shared::Tid, true, w, p), Tid),
            ((Shared::Tid, true, p, w), Tid),
            ((Shared::Tid, true, p, p), Tid),
            ((Shared::Tid, false, w, w), Tid),
            ((Shared::Tid, false, w, p), Tid),
            ((Shared::Tid, false, p, w), Tid),
            ((Shared::Tid, false, p, p), Tid),
            // Program order at a site, whatever either one does.
            ((Shared::Key, true, w, w), SameHome),
            ((Shared::Key, true, w, p), SameHome),
            ((Shared::Key, true, p, w), SameHome),
            ((Shared::Key, true, p, p), SameHome),
            // Two writers of two sites: each can tell.
            ((Shared::Key, false, w, w), Writer),
            // The four cases — a class-preserving update against another
            // site's writer, either one first — and two class-preserving
            // updates.
            ((Shared::Key, false, w, p), Commutes),
            ((Shared::Key, false, p, w), Commutes),
            ((Shared::Key, false, p, p), Commutes),
        ];
        for ((shared, same, writes, later), want) in rows {
            let earlier = Party { home: 0, writes };
            let got = verdict(earlier, usize::from(!same), shared, || later);
            let case = format!("{shared:?}, same home {same}, {earlier:?}, later writes {later}");
            assert_eq!(got, want, "{case}");
        }
        // The later update's bit is read only where it decides.
        let asked = |earlier_writes, home| {
            let mut asked = false;
            let earlier = Party {
                home: 0,
                writes: earlier_writes,
            };
            verdict(earlier, home, Shared::Key, || {
                asked = true;
                true
            });
            asked
        };
        assert!(asked(true, 1));
        assert!(!asked(false, 1) && !asked(true, 0));
    }

    /// Where each verdict puts the later update, behind an earlier one in
    /// wave 2: the next wave, or the same one behind a class-preserving
    /// update of its own site, or anywhere.
    #[test]
    fn verdicts_place_waves() {
        use Verdict::*;
        let p = |home, writes| Party { home, writes };
        let wait = |l: &Ledger, home, tid, keys: &[Key], writes| {
            l.wait(home, tid, keys.to_vec(), || writes)
        };
        let mut ledger = Ledger::default();
        ledger.enter(p(0, true), 2, 10, [1, 2]);
        ledger.enter(p(1, false), 2, 11, [3]);
        assert_eq!(wait(&ledger, 0, 12, &[1], false), (SameHome, 3));
        assert_eq!(wait(&ledger, 1, 12, &[2], true), (Writer, 3));
        assert_eq!(wait(&ledger, 1, 12, &[2], false), (Commutes, 0));
        assert_eq!(wait(&ledger, 2, 10, &[], false), (Tid, 3));
        assert_eq!(wait(&ledger, 1, 12, &[3], true), (SameHome, 2));
        assert_eq!(wait(&ledger, 0, 12, &[3], true), (Commutes, 0));
        assert_eq!(wait(&ledger, 0, 12, &[4, 5], true), (Commutes, 0));
        // The first verdict drawn is reported; the wave is the latest bound.
        assert_eq!(wait(&ledger, 1, 11, &[2], true), (Tid, 3));
        // A writer displaced by another site's writer still holds its own
        // site's next update on the key back.
        ledger.enter(p(2, true), 3, 13, [2]);
        assert_eq!(wait(&ledger, 0, 14, &[2], false), (SameHome, 3));
        assert_eq!(wait(&ledger, 0, 14, &[2], true), (SameHome, 4));
        assert_eq!(wait(&ledger, 2, 14, &[2], false), (SameHome, 4));
        ledger.clear();
        assert_eq!(wait(&ledger, 0, 10, &[1], true), (Commutes, 0));
    }
}
