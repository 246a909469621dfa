//! Seeded, deterministic update streams.
//!
//! [`UpdateStream`] turns a [`ScenarioCfg`] into a
//! sequence of [`Tick`]s, each carrying an [`UpdateBatch`] whose
//! operations are *sequentially valid*: a deleted tid is live at the
//! moment of its delete, an inserted tid is fresh, and modify/churn
//! pairs are adjacent (delete immediately followed by the re-insert of
//! the same tid). That property lets a driver apply the ops one at a
//! time (`Detector::apply_one`, timing each) or per tick as a batch —
//! both walks reach the same final relation and violation set, which the
//! differential tests in `tests/loadgen_stream.rs` check against the
//! centralized oracle.
//!
//! Determinism: the stream owns one seeded [`StdRng`]; the same
//! [`ScenarioCfg`] yields a byte-identical op
//! sequence on every run and platform (all weights are integers, the
//! dirty-rate draw uses the shim's deterministic `random_bool`).

use rand::dist::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relation::{Relation, Tid, Tuple, UpdateBatch};
use std::collections::HashMap;
use workload::updates::corrupt_attr;

use crate::scenario::{fresh_pool, Dataset, KeyDist, ScenarioCfg};

/// One tick of arrivals: a batch of sequentially valid operations.
#[derive(Debug)]
pub struct Tick {
    /// Zero-based tick number.
    pub index: usize,
    /// The operations arriving in this tick, in order.
    pub batch: UpdateBatch,
}

/// Keep at least this many live tuples so victims stay available.
const MIN_LIVE: usize = 8;

/// A seeded generator of [`Tick`]s over a scenario (see module docs).
/// Implements [`Iterator`].
pub struct UpdateStream {
    mirror: Relation,
    live: Vec<Tid>,
    pos: HashMap<Tid, usize>,
    rng: StdRng,
    zipf: Option<Zipf>,
    fresh: Vec<Tuple>,
    next_fresh: usize,
    cfg: ScenarioCfg,
    dirty_attrs: Vec<relation::AttrId>,
    benign_attr: relation::AttrId,
    tick: usize,
}

impl UpdateStream {
    /// Build the stream for `cfg` over `dataset` (obtained from
    /// [`Scenario::dataset`](crate::Scenario::dataset)).
    pub fn new(cfg: &ScenarioCfg, dataset: &Dataset) -> Self {
        let total = cfg.shape.total_updates(cfg.ticks);
        let fresh = fresh_pool(cfg, dataset, total);
        let live: Vec<Tid> = dataset.base.tids().collect();
        let pos = live.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        let zipf = match cfg.keys {
            KeyDist::Uniform => None,
            KeyDist::Zipf { theta } => Some(Zipf::new(live.len().max(2), theta)),
        };
        UpdateStream {
            mirror: dataset.base.clone(),
            live,
            pos,
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x57_12_EA_A1),
            zipf,
            fresh,
            next_fresh: 0,
            cfg: cfg.clone(),
            dirty_attrs: dataset.dirty_attrs.clone(),
            benign_attr: dataset.benign_attr,
            tick: 0,
        }
    }

    /// The stream's mirror of the logical relation after all ticks
    /// yielded so far.
    pub fn mirror(&self) -> &Relation {
        &self.mirror
    }

    /// Draw a victim tid from the live set per the key distribution.
    fn victim(&mut self) -> Tid {
        let idx = match &self.zipf {
            None => self.rng.random_range(0..self.live.len()),
            // Zipf ranks are stable identities; fold into the current
            // live range so hot ranks keep hitting the same region.
            Some(z) => z.sample(&mut self.rng) % self.live.len(),
        };
        self.live[idx]
    }

    fn remove_live(&mut self, tid: Tid) {
        let idx = self.pos.remove(&tid).expect("victim is live");
        let last = self.live.len() - 1;
        self.live.swap_remove(idx);
        if idx != last {
            self.pos.insert(self.live[idx], idx);
        }
    }

    fn add_live(&mut self, tid: Tid) {
        self.pos.insert(tid, self.live.len());
        self.live.push(tid);
    }

    /// Maybe corrupt a fresh/modified tuple per the dirty schedule.
    fn maybe_dirty(&mut self, t: Tuple, dirty_p: f64) -> Tuple {
        if dirty_p > 0.0 && self.rng.random_bool(dirty_p) {
            let attr = self.dirty_attrs[self.rng.random_range(0..self.dirty_attrs.len())];
            corrupt_attr(&t, attr, &mut self.rng)
        } else {
            t
        }
    }

    /// Generate the next tick, or `None` when the stream is exhausted.
    pub fn next_tick(&mut self) -> Option<Tick> {
        if self.tick >= self.cfg.ticks {
            return None;
        }
        let index = self.tick;
        self.tick += 1;
        let n_ops = self.cfg.shape.updates_at(index, self.cfg.ticks);
        let dirty_p = self.cfg.dirty.at(index, self.cfg.ticks);
        let weights = self.cfg.mix;
        let total_w = weights.total().max(1);

        let mut batch = UpdateBatch::new();
        let mut emitted = 0usize;
        while emitted < n_ops {
            let draw = self.rng.random_range(0..total_w);
            let has_fresh = self.next_fresh < self.fresh.len();
            let need_insert = self.live.len() < MIN_LIVE;
            let op = if need_insert && has_fresh {
                OpKind::Insert
            } else if draw < weights.insert {
                if has_fresh {
                    OpKind::Insert
                } else {
                    OpKind::Modify
                }
            } else if draw < weights.insert + weights.delete {
                OpKind::Delete
            } else if draw < weights.insert + weights.delete + weights.modify {
                OpKind::Modify
            } else {
                OpKind::Churn
            };

            match op {
                OpKind::Insert => {
                    let t = self.fresh[self.next_fresh].clone();
                    self.next_fresh += 1;
                    let t = self.maybe_dirty(t, dirty_p);
                    self.mirror.insert(t.clone()).expect("fresh tid");
                    self.add_live(t.tid);
                    batch.insert(t);
                    emitted += 1;
                }
                OpKind::Delete => {
                    let tid = self.victim();
                    self.mirror.delete_quiet(tid).expect("victim is live");
                    self.remove_live(tid);
                    batch.delete(tid);
                    emitted += 1;
                }
                OpKind::Modify => {
                    // Delete + re-insert of the same tid with one
                    // attribute rewritten; counts as two ops.
                    let tid = self.victim();
                    let old = self.mirror.get(tid).expect("victim is live");
                    let new = if dirty_p > 0.0 && self.rng.random_bool(dirty_p) {
                        let attr =
                            self.dirty_attrs[self.rng.random_range(0..self.dirty_attrs.len())];
                        corrupt_attr(&old, attr, &mut self.rng)
                    } else {
                        let mut vals: Vec<relation::Value> = old.values.to_vec();
                        vals[self.benign_attr as usize] = relation::Value::str(format!(
                            "upd-{}",
                            self.rng.random_range(0..1_000_000u32)
                        ));
                        Tuple::new(tid, vals)
                    };
                    self.mirror.delete_quiet(tid).expect("victim is live");
                    self.mirror.insert(new.clone()).expect("tid was freed");
                    batch.delete(tid);
                    batch.insert(new);
                    emitted += 2;
                }
                OpKind::Churn => {
                    // Delete + identical re-insert: settles to a no-op.
                    let tid = self.victim();
                    let t = self.mirror.get(tid).expect("victim is live");
                    self.mirror.delete_quiet(tid).expect("victim is live");
                    self.mirror.insert(t.clone()).expect("tid was freed");
                    batch.delete(tid);
                    batch.insert(t);
                    emitted += 2;
                }
            }
        }
        Some(Tick { index, batch })
    }
}

enum OpKind {
    Insert,
    Delete,
    Modify,
    Churn,
}

impl Iterator for UpdateStream {
    type Item = Tick;

    fn next(&mut self) -> Option<Tick> {
        self.next_tick()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.cfg.ticks - self.tick;
        (left, Some(left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{catalog, Scenario};

    #[test]
    fn stream_is_deterministic_and_sequentially_valid() {
        for cfg in catalog() {
            let ds = cfg.dataset();
            let a: Vec<Tick> = cfg.stream(&ds).collect();
            let b: Vec<Tick> = cfg.stream(&ds).collect();
            assert_eq!(a.len(), cfg.ticks, "{}", cfg.name);
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{}", cfg.name);

            // Replaying every batch against a fresh copy of the base must
            // succeed op-by-op (sequential validity).
            let mut replay = ds.base.clone();
            for tick in &a {
                for op in tick.batch.ops() {
                    match op {
                        relation::Update::Insert(t) => replay.insert(t.clone()).unwrap(),
                        relation::Update::Delete(tid) => replay.delete_quiet(*tid).unwrap(),
                    }
                }
            }
            // And land exactly on the stream's own mirror.
            let mut s = cfg.stream(&ds);
            while s.next_tick().is_some() {}
            let mirror = s.mirror();
            assert_eq!(replay.len(), mirror.len(), "{}", cfg.name);
            let mut x: Vec<Tuple> = replay.iter().collect();
            let mut y: Vec<Tuple> = mirror.iter().collect();
            x.sort_by_key(|t| t.tid);
            y.sort_by_key(|t| t.tid);
            assert_eq!(x, y, "{}", cfg.name);
        }
    }

    #[test]
    fn different_seed_changes_the_stream() {
        let mut cfg = catalog().remove(0);
        let ds = cfg.dataset();
        let a: Vec<Tick> = cfg.stream(&ds).collect();
        cfg.seed ^= 1;
        // Same dataset (seed only alters the stream RNG here) — the op
        // sequence must still differ.
        let b: Vec<Tick> = cfg.stream(&ds).collect();
        assert_ne!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn zipf_hot_concentrates_victims() {
        let cfg = catalog()
            .into_iter()
            .find(|c| c.name == "zipf_hot")
            .unwrap();
        let ds = cfg.dataset();
        let mut deletes: HashMap<Tid, usize> = HashMap::new();
        for tick in cfg.stream(&ds) {
            for op in tick.batch.ops() {
                if let relation::Update::Delete(tid) = op {
                    *deletes.entry(*tid).or_insert(0) += 1;
                }
            }
        }
        let total: usize = deletes.values().sum();
        let mut counts: Vec<usize> = deletes.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top10: usize = counts.iter().take(10).sum();
        // Under uniform selection over ~800 live tuples, 10 tids would
        // absorb ~1–2% of victim picks; θ=1.1 Zipf concentrates far more.
        assert!(
            top10 * 5 > total,
            "expected hot-key concentration, top10={top10} of {total}"
        );
    }
}
