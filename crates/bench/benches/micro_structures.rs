//! Ablation microbenches for the design choices behind the detectors:
//!
//! * **Fx hashing vs SipHash** — every hot path is a hash probe on short
//!   keys; DESIGN.md adopts an Fx-style hasher (the perf-book guidance).
//! * **HEV stores** — acquire/lookup/release cost of base and non-base
//!   HEVs (these bound the per-update computational cost of `incVer`).
//! * **IDX** — group insert/remove cost.
//! * **MD5** — digest cost per probe message (§6 optimization).

use cluster::md5::{digest_values, md5};
use criterion::{criterion_group, criterion_main, Criterion};
use incdetect::hev::{BaseHev, NonBaseHev};
use incdetect::idx::Idx;
use relation::{FxHashMap, Sym, Value, ValuePool};
use std::collections::HashMap;
use std::hint::black_box;

fn hashing_ablation(c: &mut Criterion) {
    let keys: Vec<u64> = (0..1024u64).map(|i| i.wrapping_mul(0x9e3779b9)).collect();
    let mut group = c.benchmark_group("hashing_ablation");
    group.bench_function("fx_hashmap_insert_get", |b| {
        b.iter(|| {
            let mut m: FxHashMap<u64, u64> = FxHashMap::default();
            for &k in &keys {
                m.insert(k, k);
            }
            let mut acc = 0u64;
            for &k in &keys {
                acc ^= *m.get(&k).unwrap();
            }
            black_box(acc)
        });
    });
    group.bench_function("std_hashmap_insert_get", |b| {
        b.iter(|| {
            let mut m: HashMap<u64, u64> = HashMap::new();
            for &k in &keys {
                m.insert(k, k);
            }
            let mut acc = 0u64;
            for &k in &keys {
                acc ^= *m.get(&k).unwrap();
            }
            black_box(acc)
        });
    });
    group.finish();
}

fn hev_stores(c: &mut Criterion) {
    let values: Vec<Value> = (0..512)
        .map(|i| Value::str(format!("value-{i:05}")))
        .collect();
    let mut group = c.benchmark_group("hev_stores");
    group.bench_function("base_acquire_release_cycle", |b| {
        b.iter(|| {
            // Intern at ingest (one string hash per value), then probe the
            // HEV on symbols — the detector's actual per-update shape.
            let mut pool = ValuePool::new();
            let mut h = BaseHev::new();
            let syms: Vec<Sym> = values.iter().map(|v| pool.acquire(v)).collect();
            for &s in &syms {
                black_box(h.acquire(s));
            }
            for &s in &syms {
                black_box(h.lookup(s));
            }
            for &s in &syms {
                h.release(s);
            }
        });
    });
    group.bench_function("nonbase_acquire_release_cycle", |b| {
        b.iter(|| {
            let mut h = NonBaseHev::new();
            for i in 0..512u64 {
                black_box(h.acquire(&[i % 37, i % 11, i]));
            }
            for i in 0..512u64 {
                h.release(&[i % 37, i % 11, i]);
            }
        });
    });
    group.finish();
}

fn idx_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("idx_ops");
    group.bench_function("insert_probe_remove_512", |b| {
        b.iter(|| {
            let mut idx = Idx::new();
            for i in 0..512u64 {
                idx.insert(i % 37, i % 5, i);
            }
            let mut acc = 0usize;
            for g in 0..37u64 {
                acc += idx.n_classes(g);
            }
            for i in 0..512u64 {
                idx.remove(i % 37, i % 5, i);
            }
            black_box(acc)
        });
    });
    group.finish();
}

fn md5_digests(c: &mut Criterion) {
    let tuple_vals: Vec<Value> = vec![
        Value::int(42),
        Value::str("Customer#000042"),
        Value::str("NATION_07"),
        Value::str("REGION_2"),
        Value::str("a fairly long street address line"),
    ];
    let bytes = vec![0xabu8; 256];
    let mut group = c.benchmark_group("md5");
    group.bench_function("digest_value_vector", |b| {
        b.iter(|| black_box(digest_values(&tuple_vals)));
    });
    group.bench_function("md5_256_bytes", |b| b.iter(|| black_box(md5(&bytes))));
    group.finish();
}

criterion_group!(benches, hashing_ablation, hev_stores, idx_ops, md5_digests);
criterion_main!(benches);
