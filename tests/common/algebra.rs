//! A miniature relational-algebra executor.
//!
//! Executes the detection plans behind the "two SQL queries" of §2.3
//! ([`super::sqlgen`]) directly on an in-memory [`Relation`]'s columns:
//! `Q_C` as one selection scan, `Q_V` as a grouping with a
//! `COUNT(DISTINCT …) > 1` having-filter. It exists as a second,
//! independently-implemented oracle beside `cfd::naive`: the random
//! families of the differential matrix hold every cell to both.

use inc_cfd::cfd::{Cfd, PatternValue, Violations};
use inc_cfd::relation::{AttrId, FxHashMap, Relation, SmallVec, Sym, Tid};

/// The constant LHS atoms of `cfd` resolved to `d`'s dictionary symbols.
/// `None` means some constant never occurs in `d` — no tuple can match.
fn atom_syms(cfd: &Cfd, d: &Relation) -> Option<Vec<(AttrId, Sym)>> {
    let consts = cfd.lhs.iter().zip(&cfd.lhs_pattern);
    let atom = |(&a, p): (&AttrId, &PatternValue)| match p {
        PatternValue::Const(v) => Some(d.pool().lookup(v).map(|s| (a, s))),
        PatternValue::Wildcard => None,
    };
    consts.filter_map(atom).collect()
}

/// Execute the constant-query plan `Q_C` for one constant CFD — a single
/// columnar scan: the selection atoms and the RHS constant resolve to the
/// relation's dictionary symbols once, then every row check is integer
/// comparisons over column slices.
pub(crate) fn run_constant(cfd: &Cfd, d: &Relation) -> Vec<Tid> {
    let b = match &cfd.rhs_pattern {
        PatternValue::Const(v) => v,
        PatternValue::Wildcard => return Vec::new(),
    };
    let Some(atoms) = atom_syms(cfd, d) else {
        return Vec::new();
    };
    let store = d.store();
    let rhs_sym = d.pool().lookup(b); // None ⇒ every matching row violates
    let rhs_col = store.col(cfd.rhs);
    store
        .rows()
        .filter(|&(_, row)| {
            atoms.iter().all(|&(a, s)| store.col(a)[row as usize] == s)
                && Some(rhs_col[row as usize]) != rhs_sym
        })
        .map(|(tid, _)| tid)
        .collect()
}

/// Execute the variable-query plan `Q_V` for one variable CFD — columnar
/// `GROUP BY` over symbol slices ([`group_having_multiple_dep_cols`]).
pub(crate) fn run_variable(cfd: &Cfd, d: &Relation) -> Vec<Tid> {
    if cfd.is_constant() {
        return Vec::new();
    }
    let Some(atoms) = atom_syms(cfd, d) else {
        return Vec::new();
    };
    let store = d.store();
    group_having_multiple_dep_cols(
        d,
        |row| atoms.iter().all(|&(a, s)| store.col(a)[row as usize] == s),
        &cfd.lhs,
        cfd.rhs,
    )
    .into_iter()
    .flatten()
    .collect()
}

/// Columnar `GROUP BY keys HAVING COUNT(DISTINCT dep) > 1`: group the rows
/// passing `filter` directly over the relation's column slices — keys are
/// the rows' dictionary symbols, so no value is hashed or cloned.
pub(crate) fn group_having_multiple_dep_cols(
    d: &Relation,
    filter: impl Fn(u32) -> bool,
    keys: &[AttrId],
    dep: AttrId,
) -> Vec<Vec<Tid>> {
    struct G {
        tids: Vec<Tid>,
        first: Sym,
        mixed: bool,
    }
    let store = d.store();
    let dep_col = store.col(dep);
    let mut groups: FxHashMap<SmallVec<Sym, 4>, G> = FxHashMap::default();
    for (tid, row) in store.rows() {
        if !filter(row) {
            continue;
        }
        let key: SmallVec<Sym, 4> = keys.iter().map(|&a| store.col(a)[row as usize]).collect();
        let b = dep_col[row as usize];
        let g = groups.entry(key).or_insert(G {
            tids: Vec::new(),
            first: b,
            mixed: false,
        });
        g.tids.push(tid);
        if g.first != b {
            g.mixed = true;
        }
    }
    groups
        .into_values()
        .filter(|g| g.mixed)
        .map(|g| g.tids)
        .collect()
}

/// Full plan-based detection: the algebraic equivalent of running the two
/// generated SQL queries and unioning their answers per CFD.
pub(crate) fn detect(cfds: &[Cfd], d: &Relation) -> Violations {
    let mut v = Violations::new(cfds.len());
    for cfd in cfds {
        let tids = if cfd.is_constant() {
            run_constant(cfd, d)
        } else {
            run_variable(cfd, d)
        };
        for t in tids {
            v.add(cfd.id, t);
        }
    }
    v
}
