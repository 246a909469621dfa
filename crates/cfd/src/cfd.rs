//! The [`Cfd`] type in normal form (§2.1).
//!
//! Every CFD is kept in the *normal form* `(X → B, t_p)` with a single
//! RHS attribute, the form all of the paper's algorithms operate on. A
//! multi-attribute RHS or a pattern tableau `(X → Y, T_p)` is written as
//! one `Cfd` per (RHS attribute × tableau row).

use crate::pattern::PatternValue;
use crate::CfdError;
use relation::{AttrId, Schema, Tuple, Value};
use std::fmt;

/// Identifier of a normalized CFD within a rule set `Σ`.
pub type CfdId = u32;

/// A conditional functional dependency in normal form `(X → B, t_p)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cfd {
    /// Identifier within `Σ` (positional).
    pub id: CfdId,
    /// LHS attributes `X` (deduplicated, construction order preserved).
    pub lhs: Vec<AttrId>,
    /// RHS attribute `B`.
    pub rhs: AttrId,
    /// Pattern over `X`, positionally aligned with `lhs`.
    pub lhs_pattern: Vec<PatternValue>,
    /// Pattern over `B`.
    pub rhs_pattern: PatternValue,
}

impl Cfd {
    /// Build a normal-form CFD, validating attribute ids against `schema`.
    pub fn new(
        id: CfdId,
        schema: &Schema,
        lhs: Vec<AttrId>,
        rhs: AttrId,
        lhs_pattern: Vec<PatternValue>,
        rhs_pattern: PatternValue,
    ) -> Result<Self, CfdError> {
        if lhs.is_empty() {
            return Err(CfdError::EmptyLhs);
        }
        if lhs_pattern.len() != lhs.len() {
            return Err(CfdError::PatternArity {
                expected: lhs.len(),
                got: lhs_pattern.len(),
            });
        }
        for &a in lhs.iter().chain(std::iter::once(&rhs)) {
            if (a as usize) >= schema.arity() {
                return Err(CfdError::UnknownAttribute(format!("#{a}")));
            }
        }
        if lhs.contains(&rhs) {
            return Err(CfdError::RhsInLhs(schema.attr_name(rhs).to_string()));
        }
        Ok(Cfd {
            id,
            lhs,
            rhs,
            lhs_pattern,
            rhs_pattern,
        })
    }

    /// Convenience constructor from attribute names; `None` pattern entries
    /// are wildcards.
    #[allow(clippy::type_complexity)]
    pub fn from_names(
        id: CfdId,
        schema: &Schema,
        lhs: &[(&str, Option<Value>)],
        rhs: (&str, Option<Value>),
    ) -> Result<Self, CfdError> {
        let mut lhs_ids = Vec::with_capacity(lhs.len());
        let mut lhs_pat = Vec::with_capacity(lhs.len());
        for (name, pat) in lhs {
            let a = schema
                .attr_id(name)
                .map_err(|_| CfdError::UnknownAttribute(name.to_string()))?;
            lhs_ids.push(a);
            lhs_pat.push(match pat {
                Some(v) => PatternValue::Const(v.clone()),
                None => PatternValue::Wildcard,
            });
        }
        let rhs_id = schema
            .attr_id(rhs.0)
            .map_err(|_| CfdError::UnknownAttribute(rhs.0.to_string()))?;
        let rhs_pat = match rhs.1 {
            Some(v) => PatternValue::Const(v),
            None => PatternValue::Wildcard,
        };
        Cfd::new(id, schema, lhs_ids, rhs_id, lhs_pat, rhs_pat)
    }

    /// Is this a *constant* CFD (`t_p[B]` is a constant)?
    pub fn is_constant(&self) -> bool {
        !self.rhs_pattern.is_wildcard()
    }

    /// Is this a *variable* CFD (`t_p[B] = _`)?
    pub fn is_variable(&self) -> bool {
        self.rhs_pattern.is_wildcard()
    }

    /// Is this a plain FD (every pattern entry is `_`)?
    pub fn is_fd(&self) -> bool {
        self.is_variable() && self.lhs_pattern.iter().all(PatternValue::is_wildcard)
    }

    /// All attributes `X ∪ {B}`.
    pub fn attrs(&self) -> Vec<AttrId> {
        let mut v = self.lhs.clone();
        v.push(self.rhs);
        v
    }

    /// The constant atoms of the LHS pattern — the conjunction `F_φ` used by
    /// the horizontal local-checkability test (§6).
    pub fn constant_atoms(&self) -> Vec<(AttrId, Value)> {
        self.lhs
            .iter()
            .zip(&self.lhs_pattern)
            .filter_map(|(&a, p)| p.as_const().map(|v| (a, v.clone())))
            .collect()
    }

    /// Does `t[X] ≍ t_p[X]`? (the tuple falls under this CFD's scope) —
    /// borrows through [`Tuple::iter_at`], no per-call vector.
    pub fn matches_lhs(&self, t: &Tuple) -> bool {
        t.iter_at(&self.lhs)
            .zip(&self.lhs_pattern)
            .all(|(v, p)| p.matches(v))
    }

    /// Does a single tuple violate a *constant* CFD?
    /// (`t[X] ≍ t_p[X]` and `t[B] 6≍ t_p[B]`.)
    pub fn constant_violation(&self, t: &Tuple) -> bool {
        debug_assert!(self.is_constant());
        self.matches_lhs(t) && !self.rhs_pattern.matches(t.get(self.rhs))
    }

    /// Do two tuples jointly violate this *variable* CFD?
    /// (`(t, t′) 6|= φ` in the paper's notation.)
    pub fn pair_violation(&self, t: &Tuple, u: &Tuple) -> bool {
        debug_assert!(self.is_variable());
        self.matches_lhs(t)
            && self.lhs.iter().all(|&a| t.get(a) == u.get(a))
            && t.get(self.rhs) != u.get(self.rhs)
    }

    /// Render using attribute names from `schema`,
    /// e.g. `([CC=44, zip] -> [city=EDI])`.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> CfdDisplay<'a> {
        CfdDisplay { cfd: self, schema }
    }

    /// The canonical [`NormalForm`] of this rule: LHS atoms sorted by
    /// attribute (then pattern) with exact duplicate atoms removed. Two
    /// rules with equal normal forms match the same tuples and violate on
    /// the same tuples — the identity [`crate::share::SharedPlan`] and
    /// [`crate::analysis`] dedupe through.
    pub(crate) fn normal_form(&self) -> NormalForm {
        let mut lhs: Vec<(AttrId, PatternValue)> = self
            .lhs
            .iter()
            .copied()
            .zip(self.lhs_pattern.iter().cloned())
            .collect();
        lhs.sort_unstable();
        lhs.dedup();
        NormalForm {
            lhs,
            rhs: self.rhs,
            rhs_pattern: self.rhs_pattern.clone(),
        }
    }
}

/// The canonical form of a [`Cfd`]: sorted, deduplicated LHS atoms plus
/// the RHS atom. `Eq`/`Hash`/`Ord` are stable across LHS attribute order
/// and repeated atoms, so this is the dedupe key for "the same rule
/// written twice" (duplicate-modulo-LHS-order catalogs).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct NormalForm {
    /// LHS `(attr, pattern)` atoms, sorted by attribute then pattern.
    pub(crate) lhs: Vec<(AttrId, PatternValue)>,
    /// RHS attribute `B`.
    pub(crate) rhs: AttrId,
    /// Pattern over `B`.
    pub(crate) rhs_pattern: PatternValue,
}

/// Helper for [`Cfd::display`].
pub struct CfdDisplay<'a> {
    cfd: &'a Cfd,
    schema: &'a Schema,
}

impl fmt::Display for CfdDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "([")?;
        for (i, (&a, p)) in self.cfd.lhs.iter().zip(&self.cfd.lhs_pattern).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match p {
                PatternValue::Wildcard => write!(f, "{}", self.schema.attr_name(a))?,
                PatternValue::Const(v) => write!(f, "{}={}", self.schema.attr_name(a), v)?,
            }
        }
        write!(f, "] -> [")?;
        match &self.cfd.rhs_pattern {
            PatternValue::Wildcard => write!(f, "{}", self.schema.attr_name(self.cfd.rhs))?,
            PatternValue::Const(v) => write!(f, "{}={}", self.schema.attr_name(self.cfd.rhs), v)?,
        }
        write!(f, "])")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::Schema;
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::new("EMP", &["id", "CC", "AC", "zip", "street", "city"], "id").unwrap()
    }

    fn phi1(s: &Schema) -> Cfd {
        // ([CC=44, zip] -> [street])
        Cfd::from_names(
            0,
            s,
            &[("CC", Some(Value::int(44))), ("zip", None)],
            ("street", None),
        )
        .unwrap()
    }

    fn phi2(s: &Schema) -> Cfd {
        // ([CC=44, AC=131] -> [city=EDI])
        Cfd::from_names(
            1,
            s,
            &[("CC", Some(Value::int(44))), ("AC", Some(Value::int(131)))],
            ("city", Some(Value::str("EDI"))),
        )
        .unwrap()
    }

    fn tup(tid: u64, cc: i64, ac: i64, zip: &str, street: &str, city: &str) -> Tuple {
        Tuple::new(
            tid,
            vec![
                Value::int(tid as i64),
                Value::int(cc),
                Value::int(ac),
                Value::str(zip),
                Value::str(street),
                Value::str(city),
            ],
        )
    }

    #[test]
    fn classification() {
        let s = schema();
        assert!(phi1(&s).is_variable());
        assert!(!phi1(&s).is_constant());
        assert!(phi2(&s).is_constant());
        assert!(!phi1(&s).is_fd());
        let fd = Cfd::from_names(2, &s, &[("zip", None)], ("city", None)).unwrap();
        assert!(fd.is_fd());
    }

    #[test]
    fn lhs_matching_respects_constants() {
        let s = schema();
        let t_uk = tup(1, 44, 131, "EH4 8LE", "Mayfield", "NYC");
        let t_us = tup(2, 1, 212, "10001", "5th Ave", "NYC");
        assert!(phi1(&s).matches_lhs(&t_uk));
        assert!(!phi1(&s).matches_lhs(&t_us));
    }

    #[test]
    fn constant_violation_single_tuple() {
        let s = schema();
        let t1 = tup(1, 44, 131, "EH4 8LE", "Mayfield", "NYC");
        let t2 = tup(2, 44, 131, "EH2 4HF", "Preston", "EDI");
        assert!(phi2(&s).constant_violation(&t1)); // city NYC ≠ EDI
        assert!(!phi2(&s).constant_violation(&t2));
        let t_us = tup(3, 1, 131, "x", "y", "NYC");
        assert!(!phi2(&s).constant_violation(&t_us)); // pattern not matched
    }

    #[test]
    fn pair_violation_example_4() {
        let s = schema();
        // t1, t5 of Fig. 2: same CC/zip, different street.
        let t1 = tup(1, 44, 131, "EH4 8LE", "Mayfield", "NYC");
        let t5 = tup(5, 44, 131, "EH4 8LE", "Crichton", "EDI");
        assert!(phi1(&s).pair_violation(&t1, &t5));
        assert!(phi1(&s).pair_violation(&t5, &t1));
        // Same street → no violation.
        let t3 = tup(3, 44, 131, "EH4 8LE", "Mayfield", "EDI");
        assert!(!phi1(&s).pair_violation(&t1, &t3));
    }

    #[test]
    fn constant_atoms_form_f_phi() {
        let s = schema();
        let atoms = phi2(&s).constant_atoms();
        assert_eq!(
            atoms,
            vec![
                (s.attr_id("CC").unwrap(), Value::int(44)),
                (s.attr_id("AC").unwrap(), Value::int(131)),
            ]
        );
        assert_eq!(phi1(&s).constant_atoms().len(), 1);
    }

    #[test]
    fn display_round_trip_shape() {
        let s = schema();
        assert_eq!(
            phi1(&s).display(&s).to_string(),
            "([CC=44, zip] -> [street])"
        );
        assert_eq!(
            phi2(&s).display(&s).to_string(),
            "([CC=44, AC=131] -> [city=EDI])"
        );
    }

    #[test]
    fn validation_errors() {
        let s = schema();
        assert!(matches!(
            Cfd::new(0, &s, vec![], 1, vec![], PatternValue::Wildcard),
            Err(CfdError::EmptyLhs)
        ));
        assert!(matches!(
            Cfd::new(
                0,
                &s,
                vec![1],
                1,
                vec![PatternValue::Wildcard],
                PatternValue::Wildcard
            ),
            Err(CfdError::RhsInLhs(_))
        ));
        assert!(matches!(
            Cfd::new(
                0,
                &s,
                vec![1, 2],
                3,
                vec![PatternValue::Wildcard],
                PatternValue::Wildcard
            ),
            Err(CfdError::PatternArity {
                expected: 2,
                got: 1
            })
        ));
        assert!(matches!(
            Cfd::new(
                0,
                &s,
                vec![99],
                1,
                vec![PatternValue::Wildcard],
                PatternValue::Wildcard
            ),
            Err(CfdError::UnknownAttribute(_))
        ));
    }

    #[test]
    fn normal_form_is_order_and_duplicate_blind() {
        let s = schema();
        let a = Cfd::from_names(
            0,
            &s,
            &[("CC", Some(Value::int(44))), ("zip", None)],
            ("street", None),
        )
        .unwrap();
        let b = Cfd::from_names(
            1,
            &s,
            &[("zip", None), ("CC", Some(Value::int(44)))],
            ("street", None),
        )
        .unwrap();
        assert_eq!(a.normal_form(), b.normal_form());
        // A repeated identical atom adds nothing.
        let c = Cfd::from_names(
            2,
            &s,
            &[("zip", None), ("CC", Some(Value::int(44))), ("zip", None)],
            ("street", None),
        )
        .unwrap();
        assert_eq!(a.normal_form(), c.normal_form());
        // Different residual constant ⇒ different rule.
        let d = Cfd::from_names(
            3,
            &s,
            &[("CC", Some(Value::int(1))), ("zip", None)],
            ("street", None),
        )
        .unwrap();
        assert_ne!(a.normal_form(), d.normal_form());
    }
}
