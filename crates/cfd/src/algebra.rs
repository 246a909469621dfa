//! A miniature relational-algebra executor.
//!
//! Executes the detection plans behind the "two SQL queries" of §2.3
//! ([`crate::sqlgen`]) directly on an in-memory [`Relation`]'s columns:
//! `Q_C` as one selection scan, `Q_V` as a grouping with a
//! `COUNT(DISTINCT …) > 1` having-filter. It exists as a second,
//! independently-implemented oracle (the tests cross-check it against
//! [`crate::naive`]).

use crate::cfd::Cfd;
use crate::pattern::PatternValue;
use crate::violation::Violations;
use relation::{AttrId, FxHashMap, Relation, SmallVec, Sym, Tid};

/// Execute the constant-query plan `Q_C` for one constant CFD — a single
/// columnar scan: the selection atoms and the RHS constant resolve to the
/// relation's dictionary symbols once, then every row check is integer
/// comparisons over column slices.
pub fn run_constant(cfd: &Cfd, d: &Relation) -> Vec<Tid> {
    let b = match &cfd.rhs_pattern {
        PatternValue::Const(v) => v,
        PatternValue::Wildcard => return Vec::new(),
    };
    let Some(atoms) = crate::naive::atom_syms(cfd, d) else {
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
pub fn run_variable(cfd: &Cfd, d: &Relation) -> Vec<Tid> {
    if cfd.is_constant() {
        return Vec::new();
    }
    let Some(atoms) = crate::naive::atom_syms(cfd, d) else {
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
pub fn group_having_multiple_dep_cols(
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
pub fn detect(cfds: &[Cfd], d: &Relation) -> Violations {
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

#[cfg(test)]
mod tests {
    use super::*;
    use relation::{Schema, Tuple, Value};
    use std::sync::Arc;

    fn emp() -> (Arc<Schema>, Relation, Vec<Cfd>) {
        let s = Schema::new("EMP", &["id", "CC", "AC", "zip", "street", "city"], "id").unwrap();
        let rows: Vec<(i64, i64, &str, &str, &str)> = vec![
            (44, 131, "EH4 8LE", "Mayfield", "NYC"),
            (44, 131, "EH2 4HF", "Preston", "EDI"),
            (44, 131, "EH4 8LE", "Mayfield", "EDI"),
            (44, 131, "EH4 8LE", "Mayfield", "EDI"),
            (44, 131, "EH4 8LE", "Crichton", "EDI"),
        ];
        let mut d = Relation::new(s.clone());
        for (i, (cc, ac, zip, street, city)) in rows.into_iter().enumerate() {
            d.insert(Tuple::new(
                (i + 1) as Tid,
                vec![
                    Value::int((i + 1) as i64),
                    Value::int(cc),
                    Value::int(ac),
                    Value::str(zip),
                    Value::str(street),
                    Value::str(city),
                ],
            ))
            .unwrap();
        }
        let cfds = vec![
            Cfd::from_names(
                0,
                &s,
                &[("CC", Some(Value::int(44))), ("zip", None)],
                ("street", None),
            )
            .unwrap(),
            Cfd::from_names(
                1,
                &s,
                &[("CC", Some(Value::int(44))), ("AC", Some(Value::int(131)))],
                ("city", Some(Value::str("EDI"))),
            )
            .unwrap(),
        ];
        (s, d, cfds)
    }

    #[test]
    fn plan_matches_naive_on_fig1() {
        let (_, d, cfds) = emp();
        let a = detect(&cfds, &d);
        let b = crate::naive::detect(&cfds, &d);
        assert_eq!(a.marks_sorted(), b.marks_sorted());
        assert_eq!(a.tids_sorted(), vec![1, 3, 4, 5]);
    }

    #[test]
    fn run_constant_finds_single_tuple_violations() {
        let (_, d, cfds) = emp();
        let mut tids = run_constant(&cfds[1], &d);
        tids.sort_unstable();
        assert_eq!(tids, vec![1]);
        assert!(
            run_constant(&cfds[0], &d).is_empty(),
            "variable CFD → Q_C empty"
        );
    }

    #[test]
    fn run_variable_groups_and_filters() {
        let (_, d, cfds) = emp();
        let mut tids = run_variable(&cfds[0], &d);
        tids.sort_unstable();
        assert_eq!(tids, vec![1, 3, 4, 5]);
        assert!(
            run_variable(&cfds[1], &d).is_empty(),
            "constant CFD → Q_V empty"
        );
    }

    #[test]
    fn group_having_counts_distinct() {
        let (_, d, _) = emp();
        // Group by zip, dep = street: EH4 8LE group has two streets.
        let groups = group_having_multiple_dep_cols(&d, |_| true, &[3], 4);
        assert_eq!(groups.len(), 1);
        let mut tids = groups[0].clone();
        tids.sort_unstable();
        assert_eq!(tids, vec![1, 3, 4, 5]);
    }
}
