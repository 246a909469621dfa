//! Delta plans: an explicit operator IR for incremental CFD evaluation.
//!
//! Every incremental detector in this repository evaluates the same
//! implicit query per CFD `φ = (X → B, t_p)` and per update: *restrict*
//! the delta to the tuples matching `t_p[X]`'s constant atoms, *group*
//! the survivors by `X`, and *probe* `B` against the group (semi-naive
//! evaluation — one leg of the join is always the delta, base
//! conclusions are reused from the detector's indices). This module
//! makes that query an explicit plan of operators compiled from the
//! CFD, so the §5 optimizer can share operators **across** CFDs instead
//! of merging eqids only: two CFDs with the same `X` share one group-by
//! pass, and their constant atoms become residual [`DeltaOp::Restrict`]
//! predicates applied on the shared output (see [`crate::share`]).

use crate::cfd::{Cfd, CfdId};
use crate::pattern::PatternValue;
use relation::{AttrId, Value};

/// One operator of a compiled delta plan, in pipeline order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DeltaOp {
    /// Source: the normalized update batch (one leg restricted to Δ).
    ScanDelta,
    /// Group surviving rows by the LHS attributes, in LHS order. This is
    /// the shareable operator: identical `attrs` ⇒ identical group keys.
    GroupBy {
        /// `X` in LHS order (the group-key digest order of §6).
        attrs: Vec<AttrId>,
    },
    /// Residual predicate: keep rows whose attribute equals the constant
    /// LHS pattern atom. Applied per CFD on the shared group-by output.
    Restrict {
        /// The constrained LHS attribute.
        attr: AttrId,
        /// The required constant.
        value: Value,
    },
    /// Sink: probe the RHS attribute against the pattern — a constant
    /// pattern decides per tuple, a wildcard compares within the group.
    ProbeRhs {
        /// `B`.
        attr: AttrId,
        /// `t_p[B]`.
        pattern: PatternValue,
    },
}

/// The compiled plan of one CFD: `ScanDelta → [GroupBy] → Restrict* →
/// ProbeRhs`. Constant CFDs have no `GroupBy` (they are decided tuple
/// by tuple); variable CFDs group before filtering so the group-by
/// operator is textually identical for every CFD with the same LHS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaPlan {
    /// The CFD this plan evaluates.
    pub cfd: CfdId,
    /// Operators in pipeline order.
    pub ops: Vec<DeltaOp>,
}

impl DeltaPlan {
    /// Compile `cfd` into its delta plan.
    pub(crate) fn compile(cfd: &Cfd) -> DeltaPlan {
        let mut ops = vec![DeltaOp::ScanDelta];
        if cfd.is_variable() {
            ops.push(DeltaOp::GroupBy {
                attrs: cfd.lhs.clone(),
            });
        }
        for (attr, value) in cfd.constant_atoms() {
            ops.push(DeltaOp::Restrict { attr, value });
        }
        ops.push(DeltaOp::ProbeRhs {
            attr: cfd.rhs,
            pattern: cfd.rhs_pattern.clone(),
        });
        DeltaPlan { cfd: cfd.id, ops }
    }

    /// The group-by attribute list, if this plan has one (variable CFDs).
    pub(crate) fn group_by(&self) -> Option<&[AttrId]> {
        self.ops.iter().find_map(|op| match op {
            DeltaOp::GroupBy { attrs } => Some(attrs.as_slice()),
            _ => None,
        })
    }

    /// The residual restrict predicates, in LHS order.
    pub(crate) fn restricts(&self) -> impl Iterator<Item = (AttrId, &Value)> {
        self.ops.iter().filter_map(|op| match op {
            DeltaOp::Restrict { attr, value } => Some((*attr, value)),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::Schema;
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::new("R", &["id", "cc", "zip", "street", "city"], "id").unwrap()
    }

    fn variable_cfd(s: &Schema) -> Cfd {
        // (cc=44, zip → street): one constant atom, variable RHS.
        Cfd::from_names(
            0,
            s,
            &[("cc", Some(Value::int(44))), ("zip", None)],
            ("street", None),
        )
        .unwrap()
    }

    fn constant_cfd(s: &Schema) -> Cfd {
        Cfd::from_names(
            1,
            s,
            &[("cc", Some(Value::int(1)))],
            ("city", Some(Value::str("NYC"))),
        )
        .unwrap()
    }

    #[test]
    fn compile_shapes() {
        let s = schema();
        let v = DeltaPlan::compile(&variable_cfd(&s));
        assert_eq!(v.ops[0], DeltaOp::ScanDelta);
        assert!(matches!(v.ops[1], DeltaOp::GroupBy { .. }));
        assert!(matches!(v.ops[2], DeltaOp::Restrict { .. }));
        assert!(matches!(v.ops[3], DeltaOp::ProbeRhs { .. }));
        assert_eq!(v.group_by(), Some(&[1 as AttrId, 2][..]));

        let c = DeltaPlan::compile(&constant_cfd(&s));
        assert!(c.group_by().is_none(), "constant CFDs decide per tuple");
        assert_eq!(c.restricts().count(), 1);
    }
}
