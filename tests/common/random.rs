//! Seeded random instances over `R(id, a, b, c, d, e)`, for the matrix:
//! a random Σ of variable and constant CFDs, a random `D₀` and a stream
//! of random batches. Domains are small on purpose — collisions (groups,
//! conflicts) are the interesting cases.

use super::matrix::Family;
use inc_cfd::incdetect::optimize::OptimizeConfig;
use inc_cfd::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeSet;
use std::sync::Arc;

/// A value of attribute `1..=5`.
pub(crate) type Draw = fn(usize, &mut StdRng) -> Value;

/// An instance's size.
pub(crate) struct Shape {
    pub(crate) rows: u64,
    /// Sites, or a draw of 2–4.
    pub(crate) sites: Option<usize>,
    pub(crate) batches: usize,
    /// A batch draws `ops.0..ops.1` ops.
    pub(crate) ops: (usize, usize),
}

/// `R(id, a, b, c, d, e)`.
pub(crate) fn schema() -> Arc<Schema> {
    Schema::new("R", &["id", "a", "b", "c", "d", "e"], "id").unwrap()
}

/// A tuple under `tid` whose values `draw` draws.
pub(crate) fn tuple(tid: u64, draw: Draw, rng: &mut StdRng) -> Tuple {
    let mut v = vec![Value::int(tid as i64)];
    v.extend((1..6).map(|attr| draw(attr, rng)));
    Tuple::new(tid, v)
}

/// Up to four CFDs over `a..e` with random patterns; a drawn rule that
/// [`Cfd::new`] refuses is skipped.
fn cfds(draw: Draw, rng: &mut StdRng) -> Vec<Cfd> {
    let s = schema();
    let pattern =
        |v: Option<Value>| v.map_or(cfd::PatternValue::Wildcard, cfd::PatternValue::Const);
    let mut out = Vec::new();
    for _ in 0..rng.random_range(1..5usize) {
        let rhs = rng.random_range(1..6usize);
        let n_lhs = rng.random_range(1..3usize);
        let mut lhs: Vec<(relation::AttrId, Option<Value>)> = (0..n_lhs)
            .map(|_| {
                let a = rng.random_range(1..6usize);
                let c = rng.random_bool(0.4).then(|| draw(a, rng));
                (a as relation::AttrId, c)
            })
            .collect();
        lhs.sort_by_key(|(a, _)| *a);
        lhs.dedup_by_key(|(a, _)| *a);
        lhs.retain(|(a, _)| *a as usize != rhs);
        if lhs.is_empty() {
            continue;
        }
        let rhs_const = rng.random_bool(0.3).then(|| draw(rhs, rng));
        let (attrs, pats): (Vec<_>, Vec<_>) = lhs.into_iter().unzip();
        let pats = pats.into_iter().map(pattern).collect();
        let id = out.len() as u32;
        let rhs = rhs as relation::AttrId;
        if let Ok(c) = Cfd::new(id, &s, attrs, rhs, pats, pattern(rhs_const)) {
            out.push(c);
        }
    }
    out
}

/// A batch against the live tids: deletions of live tids, insertions of
/// fresh tuples, re-insertion after deletion (modification).
fn batch(live: &mut BTreeSet<u64>, shape: &Shape, draw: Draw, rng: &mut StdRng) -> UpdateBatch {
    let mut delta = UpdateBatch::new();
    for _ in 0..rng.random_range(shape.ops.0..shape.ops.1) {
        let tid = rng.random_range(0..shape.rows + shape.ops.1 as u64);
        if rng.random_bool(0.5) {
            if live.contains(&tid) {
                delta.delete(tid);
            }
            delta.insert(tuple(tid, draw, rng));
            live.insert(tid);
        } else if live.remove(&tid) {
            delta.delete(tid);
        }
    }
    delta
}

/// A random instance of `shape` whose values `draw` draws, each batch
/// drawn against the mirror's live tids, with the HEV-plan optimizer's
/// search bounded; `None` when Σ comes out empty.
pub(crate) fn family(
    name: &'static str,
    rng: &mut StdRng,
    draw: Draw,
    shape: Shape,
) -> Option<Family> {
    let s = schema();
    let cfds = cfds(draw, rng);
    if cfds.is_empty() {
        return None;
    }
    let rows = (0..shape.rows).map(|tid| tuple(tid, draw, rng));
    let d = Relation::from_tuples(s.clone(), rows).unwrap();
    let n_sites = shape.sites.unwrap_or_else(|| rng.random_range(2..5usize));
    let schemes = (
        VerticalScheme::round_robin(s.clone(), n_sites).unwrap(),
        HorizontalScheme::by_hash(s.clone(), 1, n_sites).unwrap(),
        HybridScheme::uniform(s, n_sites.min(3), 2).unwrap(),
    );
    let mut mirror = d.clone();
    let mut stream = Vec::new();
    for _ in 0..shape.batches {
        let mut live: BTreeSet<u64> = mirror.tids().collect();
        let delta = batch(&mut live, &shape, draw, rng);
        delta.normalize(&mirror.clone()).apply(&mut mirror).unwrap();
        stream.push(delta);
    }
    let mut family = Family::new(name, cfds, d, schemes).batches(stream);
    family.opt = OptimizeConfig {
        k: 3,
        eval_budget: 500,
        relocate: true,
    };
    Some(family)
}
