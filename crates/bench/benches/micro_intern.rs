//! Microbenches for the dictionary-encoding layer: `ValuePool`
//! acquire/release, dictionary-encoded tuple construction, clone-keyed vs
//! interned grouping, and inline vs boxed non-base HEV keys. The before/after
//! numbers are `bench_report`'s (first recorded at commit `63837a0`,
//! PR 2); this bench is the interactive/criterion view of the same
//! comparisons.

use criterion::{criterion_group, criterion_main, Criterion};
use incdetect::hev::{EqKey, NonBaseHev};
use relation::{FxHashMap, SmallVec, Sym, Tid, Tuple, Value, ValuePool};
use std::hint::black_box;

fn pool_ops(c: &mut Criterion) {
    let values: Vec<Value> = (0..4096)
        .map(|i| Value::str(format!("value-{:05}", i % 512)))
        .collect();
    let mut group = c.benchmark_group("value_pool");
    group.bench_function("acquire_resolve_release_cycle", |b| {
        b.iter(|| {
            let mut p = ValuePool::new();
            let syms: Vec<Sym> = values.iter().map(|v| p.acquire(v)).collect();
            let mut acc = 0usize;
            for &s in &syms {
                acc += p.resolve(s).wire_size();
            }
            for &s in &syms {
                p.release(s);
            }
            black_box(acc)
        });
    });
    group.bench_function("encode_tuples", |b| {
        let tuples: Vec<Tuple> = (0..512u64)
            .map(|i| {
                Tuple::new(
                    i,
                    vec![
                        Value::int(i as i64),
                        Value::str(format!("zip-{:03}", i % 89)),
                        Value::str(format!("street-{:03}", i % 211)),
                    ],
                )
            })
            .collect();
        b.iter(|| {
            let mut p = ValuePool::new();
            let encoded: Vec<_> = tuples.iter().map(|t| p.encode(t)).collect();
            black_box(encoded.len())
        });
    });
    group.finish();
}

fn grouping(c: &mut Criterion) {
    let rows: Vec<(Tid, Vec<Value>)> = (0..20_000)
        .map(|i| {
            (
                i as Tid,
                vec![
                    Value::str(format!("EH{:02} {}XY", i % 97, i % 7)),
                    Value::str(format!("Street-{:04}", i % 211)),
                    Value::str(format!("City-of-{:02}", i % 13)),
                ],
            )
        })
        .collect();
    let mut group = c.benchmark_group("grouping");
    group.bench_function("clone_keyed (pre-PR)", |b| {
        b.iter(|| {
            let mut groups: FxHashMap<Vec<Value>, (Vec<Tid>, Option<Value>, bool)> =
                FxHashMap::default();
            for (tid, vals) in &rows {
                let key = vals[..2].to_vec();
                let bv = vals[2].clone();
                let e = groups.entry(key).or_insert((Vec::new(), None, false));
                e.0.push(*tid);
                match &e.1 {
                    None => e.1 = Some(bv),
                    Some(first) if *first != bv => e.2 = true,
                    Some(_) => {}
                }
            }
            black_box(groups.len())
        });
    });
    group.bench_function("interned", |b| {
        b.iter(|| {
            let mut pool = ValuePool::new();
            let mut groups: FxHashMap<SmallVec<Sym, 4>, (Vec<Tid>, Sym, bool)> =
                FxHashMap::default();
            for (tid, vals) in &rows {
                let key: SmallVec<Sym, 4> = vals[..2].iter().map(|v| pool.acquire(v)).collect();
                let bs = pool.acquire(&vals[2]);
                let e = groups.entry(key).or_insert((Vec::new(), bs, false));
                e.0.push(*tid);
                if e.1 != bs {
                    e.2 = true;
                }
            }
            black_box(groups.len())
        });
    });
    group.finish();
}

fn nonbase_keys(c: &mut Criterion) {
    let mut group = c.benchmark_group("nonbase_keys");
    group.bench_function("inline_eqkey_cycle", |b| {
        b.iter(|| {
            let mut h = NonBaseHev::new();
            for i in 0..2048u64 {
                let key: EqKey = [i % 61, i % 13, i % 7].into_iter().collect();
                black_box(h.acquire(&key));
            }
            for i in 0..2048u64 {
                let key: EqKey = [i % 61, i % 13, i % 7].into_iter().collect();
                h.release(&key);
            }
        });
    });
    group.finish();
}

criterion_group!(benches, pool_ops, grouping, nonbase_keys);
criterion_main!(benches);
