//! Property tests for `relation::store::TidMap` — specifically the
//! overflow tree beside the dense window: sparse 64-bit tids, the
//! dense-window growth that migrates overflow entries in, the window's
//! slide once its low end drains, and the ordering invariant across all
//! of them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relation::store::TidMap;
use relation::{RowId, Tid};
use std::collections::BTreeMap;

/// Draw a tid from one of three regimes: dense-window-sized, mid-range
/// (around the window growth boundary), and genuinely sparse 64-bit.
fn sparse_tid(rng: &mut StdRng) -> Tid {
    match rng.random_range(0..3u32) {
        0 => rng.random_range(0..10_000u64),
        1 => rng.random_range(0..1_000_000u64),
        _ => rng.random_range(1 << 32..u64::MAX),
    }
}

/// Random insert/remove/get against a `BTreeMap` model: lookups, length,
/// tid-ordered iteration and `max_tid` must agree after every phase.
#[test]
fn model_equivalence_under_mixed_sparse_ops() {
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0x71d ^ seed);
        let mut map = TidMap::default();
        let mut model: BTreeMap<Tid, RowId> = BTreeMap::new();
        let mut next_row: RowId = 0;
        let mut live: Vec<Tid> = Vec::new();

        for step in 0..4_000usize {
            let remove = !live.is_empty() && rng.random_bool(0.35);
            if remove {
                let tid = live.swap_remove(rng.random_range(0..live.len()));
                let expect = model.remove(&tid);
                assert_eq!(map.remove(tid), expect, "seed {seed} step {step}");
                assert_eq!(map.remove(tid), None, "double remove");
            } else {
                let tid = sparse_tid(&mut rng);
                let row = next_row;
                let fresh = map.insert(tid, row);
                assert_eq!(
                    fresh,
                    !model.contains_key(&tid),
                    "seed {seed} step {step}: duplicate handling"
                );
                if fresh {
                    model.insert(tid, row);
                    live.push(tid);
                    next_row += 1;
                }
            }
            if step % 512 == 0 {
                check_agrees(&map, &model);
            }
        }
        check_agrees(&map, &model);
        // Drain completely: the map must empty out.
        for tid in live {
            assert!(map.remove(tid).is_some());
        }
        assert!(map.is_empty());
        assert_eq!(map.max_tid(), None);
        assert_eq!(map.iter().count(), 0);
    }
}

fn check_agrees(map: &TidMap, model: &BTreeMap<Tid, RowId>) {
    assert_eq!(map.len(), model.len());
    assert_eq!(map.max_tid(), model.keys().next_back().copied());
    // Iteration is ascending-tid and exactly the model's contents.
    let got: Vec<(Tid, RowId)> = map.iter().collect();
    let expect: Vec<(Tid, RowId)> = model.iter().map(|(&t, &r)| (t, r)).collect();
    assert_eq!(got, expect);
    // Point lookups, present and absent.
    for (&t, &r) in model.iter().take(64) {
        assert_eq!(map.get(t), Some(r));
    }
    assert_eq!(map.get(u64::MAX - 1), model.get(&(u64::MAX - 1)).copied());
}

/// Growing the dense window must absorb overflow entries that fall inside
/// it without disturbing lookups or order — driven here at a larger scale
/// than the unit test, with interleaved removals.
#[test]
fn overflow_migration_preserves_entries_at_scale() {
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(0x0f0f ^ seed);
        let mut map = TidMap::default();
        let mut model: BTreeMap<Tid, RowId> = BTreeMap::new();
        let mut live: Vec<Tid> = Vec::new();
        let mut row: RowId = 0;
        // Phase 1: spray mid-range tids that start in the overflow tree.
        for _ in 0..2_000 {
            let tid = rng.random_range(20_000..200_000u64);
            if map.insert(tid, row) {
                model.insert(tid, row);
                live.push(tid);
                row += 1;
            }
        }
        // Phase 2: densely fill from 0 upward, repeatedly growing the
        // window across the phase-1 population.
        for tid in 0..30_000u64 {
            if map.insert(tid, row) {
                model.insert(tid, row);
                live.push(tid);
                row += 1;
            }
            if tid % 4 == 3 {
                // Interleave removals of random live tids from either side.
                let victim = live.swap_remove(rng.random_range(0..live.len()));
                assert_eq!(map.remove(victim), model.remove(&victim));
            }
        }
        check_agrees(&map, &model);
    }
}

/// Huge 64-bit tids must never balloon the dense vector: memory stays
/// proportional to the dense population, not to the largest tid.
#[test]
fn sparse_64bit_tids_stay_in_the_overflow_tree() {
    let mut map = TidMap::default();
    let mut model: BTreeMap<Tid, RowId> = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(77);
    for row in 0..10_000u32 {
        let tid = rng.random_range(1 << 40..u64::MAX);
        if map.insert(tid, row) {
            model.insert(tid, row);
        }
    }
    check_agrees(&map, &model);
    // A dense prefix coexists with the sparse population.
    for tid in 0..1_000u64 {
        assert!(map.insert(tid, tid as RowId + 1_000_000));
        model.insert(tid, tid as RowId + 1_000_000);
    }
    check_agrees(&map, &model);
    // Removing the sparse half leaves the dense half intact.
    let sparse: Vec<Tid> = model.keys().copied().filter(|&t| t >= 1 << 40).collect();
    for t in sparse {
        assert_eq!(map.remove(t), model.remove(&t));
    }
    check_agrees(&map, &model);
}

/// Streams whose low end drains: fresh tids arrive ascending while live
/// tids leave, so the live count stays near constant and the largest tid
/// runs far past it. Victims are the oldest live tid (a FIFO), a uniform
/// pick among the live (old survivors thin out but some stay), or the
/// oldest with an occasional far jump in the fresh tids. Against a
/// `BTreeMap` model throughout; and the map's heap bytes follow the live
/// tids — a bounded number of bytes a live tid — not the largest tid.
#[test]
fn model_equivalence_when_the_low_end_drains() {
    const LIVE: usize = 2_000;
    for (seed, victims) in [(1u64, "fifo"), (2, "uniform"), (3, "jumps")] {
        let mut rng = StdRng::seed_from_u64(0xd7a1 ^ seed);
        let mut map = TidMap::default();
        let mut model: BTreeMap<Tid, RowId> = BTreeMap::new();
        let mut live: std::collections::VecDeque<Tid> = Default::default();
        let mut next: Tid = 1_000;
        let mut peak = 0;
        for step in 0..200_000usize {
            if live.len() < LIVE || rng.random_bool(0.5) {
                if victims == "jumps" && rng.random_range(0..5_000u32) == 0 {
                    next += rng.random_range(10_000..1_000_000u64);
                }
                let row = step as RowId;
                assert!(map.insert(next, row), "{victims} step {step}");
                model.insert(next, row);
                live.push_back(next);
                next += 1;
            }
            if live.len() > LIVE {
                let victim = match victims {
                    "uniform" => {
                        let at = rng.random_range(0..live.len());
                        live.swap_remove_back(at).expect("in range")
                    }
                    _ => live.pop_front().expect("live"),
                };
                assert_eq!(map.remove(victim), model.remove(&victim), "{victims}");
            }
            peak = peak.max(map.heap_bytes());
            if step % 20_000 == 0 {
                check_agrees(&map, &model);
            }
        }
        check_agrees(&map, &model);
        assert!(next > 50 * LIVE as Tid, "{victims}: tids ran on");
        assert!(
            peak <= 32 * LIVE + 32 * 1024,
            "{victims}: {peak} B at the peak for {LIVE} live tids"
        );
    }
}
