//! Centralized ground-truth detector.
//!
//! When `D` is centralized, "two SQL queries suffice to detect violations of
//! a set of CFDs" (§1, \[9]). This module is the algorithmic equivalent: one
//! pass per CFD for constant patterns (the first "query") and one grouped
//! pass for variable patterns (the second). It exists as the *oracle* that
//! every distributed and incremental algorithm in this repository is tested
//! against, and as the "from scratch" cost reference.
//!
//! Both passes scan the relation's **columns** directly: pattern constants
//! resolve to the relation's own dictionary symbols once per CFD, after
//! which pattern checks, group keys and the distinct-RHS test are pure
//! integer comparisons over `&[Sym]` slices — no tuple materialization, no
//! pass-local re-interning.

use crate::cfd::Cfd;
use crate::pattern::PatternValue;
use crate::violation::Violations;
use relation::{FxHashMap, Relation, SmallVec, Sym, Tid};

/// Interned group key `t[X]` — inline for the common arities.
type GroupKey = SmallVec<Sym, 4>;

/// The constant LHS atoms of `cfd` resolved to `d`'s dictionary symbols.
/// `None` means some constant never occurs in `d` — no tuple can match.
pub(crate) fn atom_syms(cfd: &Cfd, d: &Relation) -> Option<SmallVec<(relation::AttrId, Sym), 4>> {
    let mut out = SmallVec::new();
    for (&a, p) in cfd.lhs.iter().zip(&cfd.lhs_pattern) {
        if let PatternValue::Const(v) = p {
            out.push((a, d.pool().lookup(v)?));
        }
    }
    Some(out)
}

/// Compute `V(Σ, D)` from scratch on a centralized relation.
pub fn detect(cfds: &[Cfd], d: &Relation) -> Violations {
    let mut v = Violations::new(cfds.len());
    for cfd in cfds {
        detect_one(cfd, d, &mut v);
    }
    v
}

/// Compute `V(φ, D)` for a single CFD, merging into `out`.
fn detect_one(cfd: &Cfd, d: &Relation, out: &mut Violations) {
    let Some(atoms) = atom_syms(cfd, d) else {
        return; // some LHS constant never occurs in D
    };
    let store = d.store();
    let matches_row = |row: u32| atoms.iter().all(|&(a, s)| store.col(a)[row as usize] == s);
    if cfd.is_constant() {
        // A constant CFD is violated by a single tuple: pattern-matching LHS
        // with an RHS that does not match the RHS constant. A constant that
        // is absent from the dictionary is violated by every matching row.
        let rhs_sym = match &cfd.rhs_pattern {
            PatternValue::Const(v) => d.pool().lookup(v),
            PatternValue::Wildcard => unreachable!("constant CFD has a const RHS"),
        };
        let rhs_col = store.col(cfd.rhs);
        for (tid, row) in store.rows() {
            if matches_row(row) && Some(rhs_col[row as usize]) != rhs_sym {
                out.add(cfd.id, tid);
            }
        }
    } else {
        // A variable CFD: group pattern-matching rows by t[X]; every member
        // of a group with ≥ 2 distinct RHS symbols is a violation.
        let rhs_col = store.col(cfd.rhs);
        let mut groups: FxHashMap<GroupKey, (Vec<Tid>, Sym, bool)> = FxHashMap::default();
        for (tid, row) in store.rows() {
            if !matches_row(row) {
                continue;
            }
            let key: GroupKey = cfd
                .lhs
                .iter()
                .map(|&a| store.col(a)[row as usize])
                .collect();
            let b = rhs_col[row as usize];
            let entry = groups.entry(key).or_insert((Vec::new(), b, false));
            entry.0.push(tid);
            if entry.1 != b {
                entry.2 = true;
            }
        }
        for (_, (tids, _, mixed)) in groups {
            if mixed {
                for tid in tids {
                    out.add(cfd.id, tid);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::{Schema, Tuple, Value};
    use std::sync::Arc;

    /// The EMP relation of Fig. 2 (t1–t5) restricted to the attributes the
    /// two CFDs of Fig. 1 touch.
    fn emp() -> (Arc<Schema>, Relation) {
        let s = Schema::new("EMP", &["id", "CC", "AC", "zip", "street", "city"], "id").unwrap();
        let rows: Vec<(i64, i64, &str, &str, &str)> = vec![
            (44, 131, "EH4 8LE", "Mayfield", "NYC"), // t1
            (44, 131, "EH2 4HF", "Preston", "EDI"),  // t2
            (44, 131, "EH4 8LE", "Mayfield", "EDI"), // t3
            (44, 131, "EH4 8LE", "Mayfield", "EDI"), // t4
            (44, 131, "EH4 8LE", "Crichton", "EDI"), // t5
        ];
        let mut d = Relation::new(s.clone());
        for (i, (cc, ac, zip, street, city)) in rows.into_iter().enumerate() {
            let tid = (i + 1) as Tid;
            d.insert(Tuple::new(
                tid,
                vec![
                    Value::int(tid as i64),
                    Value::int(cc),
                    Value::int(ac),
                    Value::str(zip),
                    Value::str(street),
                    Value::str(city),
                ],
            ))
            .unwrap();
        }
        (s, d)
    }

    fn fig1_cfds(s: &Schema) -> Vec<Cfd> {
        vec![
            Cfd::from_names(
                0,
                s,
                &[("CC", Some(Value::int(44))), ("zip", None)],
                ("street", None),
            )
            .unwrap(),
            Cfd::from_names(
                1,
                s,
                &[("CC", Some(Value::int(44))), ("AC", Some(Value::int(131)))],
                ("city", Some(Value::str("EDI"))),
            )
            .unwrap(),
        ]
    }

    #[test]
    fn reproduces_fig1_violation_table() {
        let (s, d) = emp();
        let cfds = fig1_cfds(&s);
        let v = detect(&cfds, &d);
        // φ1: t1, t3, t4, t5 (same zip EH4 8LE, streets Mayfield vs Crichton)
        let mut phi1: Vec<Tid> = v.of_cfd(0).iter().copied().collect();
        phi1.sort_unstable();
        assert_eq!(phi1, vec![1, 3, 4, 5]);
        // φ2: t1 alone (city NYC under CC=44, AC=131)
        let mut phi2: Vec<Tid> = v.of_cfd(1).iter().copied().collect();
        phi2.sort_unstable();
        assert_eq!(phi2, vec![1]);
        // Combined: {t1, t3, t4, t5}
        assert_eq!(v.tids_sorted(), vec![1, 3, 4, 5]);
        assert_eq!(v.total_marks(), 5); // 4 for φ1 + 1 for φ2
    }

    #[test]
    fn satisfying_relation_has_no_violations() {
        let (s, mut d) = emp();
        let cfds = fig1_cfds(&s);
        // Remove the offending tuples: t1 (wrong city + street clash) and
        // t5 (street clash).
        d.delete(1).unwrap();
        d.delete(5).unwrap();
        let v = detect(&cfds, &d);
        assert!(v.is_empty(), "remaining tuples agree on street and city");
    }

    #[test]
    fn variable_cfd_groups_by_full_lhs() {
        let (s, d) = emp();
        // zip alone (no CC constant): same groups here, still violations.
        let cfd = Cfd::from_names(0, &s, &[("zip", None)], ("street", None)).unwrap();
        let v = detect(&[cfd], &d);
        assert_eq!(v.tids_sorted(), vec![1, 3, 4, 5]);
    }

    #[test]
    fn pattern_excludes_non_matching_tuples() {
        let (s, mut d) = emp();
        // Make t5 a non-UK tuple: the φ1 group loses the Crichton conflict …
        let t5 = d.delete(5).unwrap();
        let mut vals: Vec<Value> = t5.values.to_vec();
        vals[1] = Value::int(1); // CC = 1
        d.insert(Tuple::new(5, vals)).unwrap();
        let cfds = fig1_cfds(&s);
        let v = detect(&cfds, &d);
        // … so only φ2's single-tuple violation of t1 remains.
        assert!(v.of_cfd(0).is_empty());
        assert_eq!(v.tids_sorted(), vec![1]);
    }
}
