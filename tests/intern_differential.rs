//! Differential coverage for the dictionary-encoding refactor.
//!
//! The PR rekeyed every detection hot path on interned symbols (`BaseHev`
//! on `Sym`, grouping on symbol vectors, inline non-base keys), so this
//! suite drives **string-heavy** seeded workloads — where interning
//! actually collapses payloads — through the cells of the matrix
//! (`common::matrix`) and checks them against an *independent* pairwise oracle
//! implemented here straight from the CFD semantics beside `cfd::naive`
//! (which interns too: one oracle must not share the new code path).
//!
//! The second half holds the seeded property suites for the storage
//! layer: `ValuePool` (acquire/release round-trips against a reference
//! refcount map, GC on zero, symbol-id reuse after GC), the columnar
//! `ColumnStore` (tid stability across delete/reinsert, free-list arena
//! reuse, tid-ordered iteration, `Relation` ↔ store round-trips against a
//! `BTreeMap` reference model), and the `BatMsg::Cols` wire format
//! (encode/decode differential against the retired row-oriented
//! shipment, cumulative dictionary deltas across a link).

mod common;

use common::matrix::{self, Family};
use common::random::{self, Shape};
use inc_cfd::prelude::*;
use incdetect::baselines::ColsMsg;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relation::{ColumnStore, RowId, Sym, ValuePool};
use std::collections::{BTreeMap, BTreeSet};

// ----------------------------------------------------------------------
// Independent oracle: pairwise, straight from §2.1 semantics
// ----------------------------------------------------------------------

/// `V(Σ, D)` by definition: a constant CFD is violated by any single
/// matching tuple with a clashing RHS; a variable CFD by any *pair* that
/// agrees on `X` (and matches the pattern) while differing on `B`.
fn pairwise_oracle(cfds: &[Cfd], d: &Relation) -> Vec<(u32, Tid)> {
    let mut marks: BTreeSet<(u32, Tid)> = BTreeSet::new();
    let tuples: Vec<Tuple> = d.iter().collect();
    for cfd in cfds {
        if cfd.is_constant() {
            for t in &tuples {
                if cfd.constant_violation(t) {
                    marks.insert((cfd.id, t.tid));
                }
            }
        } else {
            for (i, t) in tuples.iter().enumerate() {
                for u in &tuples[i + 1..] {
                    if cfd.pair_violation(t, u) {
                        marks.insert((cfd.id, t.tid));
                        marks.insert((cfd.id, u.tid));
                    }
                }
            }
        }
    }
    marks.into_iter().collect()
}

// ----------------------------------------------------------------------
// String-heavy seeded workload
// ----------------------------------------------------------------------

/// Small string domains: lots of symbol reuse *and* lots of group
/// collisions. Attribute `e` mixes in NULLs (which group with themselves).
fn rand_value(attr: usize, rng: &mut StdRng) -> Value {
    let k = rng.random_range(0..4i64);
    if attr == 5 && rng.random_bool(0.2) {
        return Value::Null;
    }
    Value::str(format!("attr{attr}-payload-{k:02}"))
}

/// A string-heavy instance held to the pairwise definition and to the
/// interned `cfd::naive`.
fn interned_family(name: &'static str, rng: &mut StdRng, shape: Shape) -> Option<Family> {
    let mut family = random::family(name, rng, rand_value, shape)?;
    let sigma = family.cfds.clone();
    let pairwise = move |d: &[Relation]| pairwise_oracle(&sigma, &d[0]);
    family.oracles.insert(0, Box::new(pairwise));
    Some(family)
}

/// One batch of 1–23 ops over 20 rows and 2–4 sites.
fn interned(seed: u64) -> Option<Family> {
    let mut rng = StdRng::seed_from_u64(0x1D1C7 ^ seed);
    let (rows, sites, batches, ops) = (20, None, 1, (1, 24));
    interned_family(
        "interned",
        &mut rng,
        Shape {
            rows,
            sites,
            batches,
            ops,
        },
    )
}

/// Multi-batch state evolution: deletions must garbage-collect dictionary
/// entries while detection stays exact (three consecutive batches).
fn interned_batches(seed: u64) -> Option<Family> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (rows, sites, batches, ops) = (14, Some(3), 3, (1, 10));
    interned_family(
        "interned_batches",
        &mut rng,
        Shape {
            rows,
            sites,
            batches,
            ops,
        },
    )
}

#[test]
fn interned_detectors_match_pairwise_oracle() {
    let report = matrix::run(interned, 0..32, 4);
    assert_eq!((report.accepted, report.refused), (303, 1_428));
}

#[test]
fn interned_detectors_survive_sequential_batches() {
    let report = matrix::run(interned_batches, 200..216, 4);
    assert_eq!((report.accepted, report.refused), (144, 672));
}

// ----------------------------------------------------------------------
// ValuePool property suite
// ----------------------------------------------------------------------

fn domain_value(rng: &mut StdRng) -> Value {
    match rng.random_range(0..10u32) {
        0 => Value::Null,
        k if k < 4 => Value::int(rng.random_range(0..5i64)),
        _ => Value::str(format!("pool-val-{}", rng.random_range(0..6i64))),
    }
}

#[test]
fn value_pool_acquire_release_round_trips() {
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0xB001 ^ seed);
        let mut pool = ValuePool::new();
        // Reference model: value → (sym, live refs).
        let mut model: std::collections::HashMap<Value, (Sym, u32)> =
            std::collections::HashMap::new();
        let mut held: Vec<(Value, Sym)> = Vec::new();

        for _ in 0..500 {
            if held.is_empty() || rng.random_bool(0.55) {
                let v = domain_value(&mut rng);
                let s = pool.acquire(&v);
                match model.get_mut(&v) {
                    Some((s0, n)) => {
                        assert_eq!(*s0, s, "same live value must keep its symbol");
                        *n += 1;
                    }
                    None => {
                        model.insert(v.clone(), (s, 1));
                    }
                }
                assert_eq!(pool.resolve(s), &v, "resolve round-trip");
                assert_eq!(pool.lookup(&v), Some(s));
                held.push((v, s));
            } else {
                let i = rng.random_range(0..held.len());
                let (v, s) = held.swap_remove(i);
                pool.release(s);
                let (s0, n) = model.get_mut(&v).expect("released value was live");
                assert_eq!(*s0, s);
                *n -= 1;
                if *n == 0 {
                    model.remove(&v);
                    assert_eq!(pool.lookup(&v), None, "GC on zero refs");
                }
            }
            assert_eq!(pool.len(), model.len(), "live dictionary size");
            for (v, (s, n)) in &model {
                assert_eq!(pool.refs(*s), *n, "refcount of {v}");
            }
        }
        // Drain everything: the pool must end empty.
        for (_, s) in held.drain(..) {
            pool.release(s);
        }
        assert!(pool.is_empty());
        // The slot table never exceeded the distinct-value high-water mark
        // (the whole domain here is 12 values).
        assert!(pool.capacity() <= 12, "capacity {}", pool.capacity());
    }
}

// ----------------------------------------------------------------------
// ColumnStore property suite
// ----------------------------------------------------------------------

/// Seeded random op sequence against a `BTreeMap<Tid, Vec<Value>>`
/// reference model: tid stability across delete/reinsert, tid-ordered
/// iteration, value round-trips, arena reuse, and dictionary GC.
#[test]
fn column_store_matches_reference_model() {
    const ARITY: usize = 3;
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0xC01 ^ seed);
        let mut store = ColumnStore::new(ARITY);
        let mut model: BTreeMap<Tid, Vec<Value>> = BTreeMap::new();
        let mut high_water = 0usize;

        for _ in 0..400 {
            let tid = rng.random_range(0..40u64);
            if rng.random_bool(0.6) {
                let vals: Vec<Value> = (0..ARITY).map(|a| rand_value(a + 1, &mut rng)).collect();
                let res = store.insert(tid, vals.iter());
                match model.entry(tid) {
                    std::collections::btree_map::Entry::Occupied(_) => {
                        assert!(res.is_err(), "duplicate tid must be rejected");
                    }
                    std::collections::btree_map::Entry::Vacant(e) => {
                        res.unwrap();
                        e.insert(vals);
                    }
                }
            } else {
                let res = store.delete(tid);
                assert_eq!(
                    res.is_ok(),
                    model.remove(&tid).is_some(),
                    "delete success must track liveness"
                );
            }
            high_water = high_water.max(model.len());

            // Size, membership, tid-ordered iteration.
            assert_eq!(store.len(), model.len());
            let got: Vec<Tid> = store.rows().map(|(t, _)| t).collect();
            let want: Vec<Tid> = model.keys().copied().collect();
            assert_eq!(got, want, "iteration in ascending tid order");
            assert_eq!(store.max_tid(), model.keys().next_back().copied());
            // Value round-trip through the columns.
            for (&tid, vals) in &model {
                let row = store.row_of(tid).expect("live tid has a row");
                for (a, v) in vals.iter().enumerate() {
                    assert_eq!(store.value(row, a as relation::AttrId), v);
                    assert_eq!(
                        store.col(a as relation::AttrId)[row as usize],
                        store.sym(row, a as relation::AttrId)
                    );
                }
            }
        }
        // Free-list reuse: the arena never outgrows the live high-water
        // mark (every delete's slot is reusable before the arena grows).
        assert!(
            store.n_rows() <= high_water,
            "seed {seed}: arena {} > high water {high_water}",
            store.n_rows()
        );
        // Full teardown garbage-collects the dictionary.
        let tids: Vec<Tid> = model.keys().copied().collect();
        for tid in tids {
            store.delete(tid).unwrap();
        }
        assert!(store.is_empty());
        assert!(store.pool().is_empty(), "dictionary GC'd on teardown");
    }
}

/// `Relation` ↔ store round-trip: materialized tuples agree with the
/// borrowed column views, across deletes and tid reinsertion.
#[test]
fn relation_store_round_trip() {
    for seed in 100..112u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = random::schema();
        let mut d = Relation::new(s.clone());
        for tid in 0..25u64 {
            d.insert(random::tuple(tid, rand_value, &mut rng)).unwrap();
        }
        for _ in 0..40 {
            let tid = rng.random_range(0..25u64);
            if d.contains(tid) {
                let t = d.delete(tid).unwrap();
                assert_eq!(t.tid, tid);
                // Reinsert under the same tid: the id stays addressable.
                if rng.random_bool(0.7) {
                    d.insert(random::tuple(tid, rand_value, &mut rng)).unwrap();
                }
            }
        }
        for t in d.iter() {
            let row = d.row_of(t.tid).expect("iterated tuples are live");
            for (a, v) in t.values.iter().enumerate() {
                let a = a as relation::AttrId;
                assert_eq!(d.value_at(t.tid, a), Some(v), "borrowed view agrees");
                assert_eq!(
                    d.pool().resolve(d.col(a)[row as usize]),
                    v,
                    "column symbol resolves to the tuple value"
                );
            }
            assert_eq!(d.get(t.tid).as_ref(), Some(&t), "get materializes equal");
        }
    }
}

// ----------------------------------------------------------------------
// BatMsg::Cols ↔ rows differential
// ----------------------------------------------------------------------

/// A [`ColsMsg`] back to `(tid, values)` rows through `link`, the
/// receiver's dictionary for its link, fed by the message's delta first:
/// symbols not in the delta must be resident from earlier messages.
fn decode_cols(
    msg: &ColsMsg,
    link: &mut relation::FxHashMap<Sym, Value>,
) -> Vec<(Tid, Vec<Value>)> {
    link.extend(msg.dict.iter().cloned());
    let row = |i: usize| msg.cols.iter().map(|c| link[&c[i]].clone()).collect();
    msg.tids
        .iter()
        .enumerate()
        .map(|(i, &t)| (t, row(i)))
        .collect()
}

/// The columnar wire format must decode to exactly the projected rows,
/// across multiple messages on the same link (dictionary deltas
/// accumulate).
#[test]
fn cols_msg_encode_decode_matches_row_shipment() {
    for seed in 300..316u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = random::schema();
        let mut d = Relation::new(s.clone());
        for tid in 0..30u64 {
            d.insert(random::tuple(tid, rand_value, &mut rng)).unwrap();
        }
        let mut meter = cluster::DictMeter::new();
        let mut link: relation::FxHashMap<Sym, Value> = relation::FxHashMap::default();
        // Several messages over the same (0 → 1) link: later messages ride
        // on the dictionary entries of earlier ones.
        for round in 0..3 {
            let attrs: Vec<relation::AttrId> = (1..6)
                .filter(|_| rng.random_bool(0.6))
                .map(|a| a as relation::AttrId)
                .collect();
            if attrs.is_empty() {
                continue;
            }
            let rows: Vec<(Tid, RowId)> = d.scan().filter(|_| rng.random_bool(0.8)).collect();
            let msg = ColsMsg::encode(&d, &rows, &attrs, &mut meter, 0, 1);
            // Differential: decode equals the direct row projection.
            let decoded = decode_cols(&msg, &mut link);
            let expect: Vec<(Tid, Vec<Value>)> = rows
                .iter()
                .map(|&(tid, row)| {
                    (
                        tid,
                        d.store().project_values(row, &attrs).cloned().collect(),
                    )
                })
                .collect();
            assert_eq!(decoded, expect, "seed {seed} round {round}");
        }
    }
}

#[test]
fn value_pool_reuses_ids_after_gc() {
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pool = ValuePool::new();
        let k = rng.random_range(3..9usize);
        let first: Vec<Sym> = (0..k)
            .map(|i| pool.acquire(&Value::str(format!("gen1-{i}"))))
            .collect();
        for &s in &first {
            pool.release(s);
        }
        assert!(pool.is_empty());
        let cap_after_gen1 = pool.capacity();
        // A fresh generation of k distinct values must fit entirely in
        // recycled slots — and their symbols are exactly the freed ids.
        let second: Vec<Sym> = (0..k)
            .map(|i| pool.acquire(&Value::str(format!("gen2-{i}"))))
            .collect();
        assert_eq!(pool.capacity(), cap_after_gen1, "no slot growth");
        let a: BTreeSet<Sym> = first.into_iter().collect();
        let b: BTreeSet<Sym> = second.into_iter().collect();
        assert_eq!(a, b, "recycled ids are the freed ids");
    }
}
