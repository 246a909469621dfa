//! SQL generation for centralized CFD violation detection.
//!
//! §2.3: *"When D is a centralized database, two SQL queries suffice to
//! find V(Σ, D), no matter how many CFDs are in Σ. The SQL queries can be
//! automatically generated \[9]."* Reference \[9] (Fan, Geerts, Jia,
//! Kementsietsidis — TODS 33(2), 2008) detects violations of a CFD
//! `(X → B, T_p)` with
//!
//! * `Q_C` — the *constant* query: single tuples whose `X` matches a
//!   tableau row with a constant RHS but whose `B` differs, and
//! * `Q_V` — the *variable* query: `GROUP BY X` over pattern-matching
//!   tuples, keeping groups with more than one distinct `B`.
//!
//! This module generates those queries as SQL text (for running against an
//! external RDBMS) for any normalized rule set. The companion module
//! [`super::algebra`] executes the equivalent plans on an in-memory
//! `Relation`, a second oracle beside `cfd::naive`.

use inc_cfd::cfd::{Cfd, PatternValue};
use inc_cfd::relation::{Schema, Value};

/// Quote an identifier for SQL.
fn ident(name: &str) -> String {
    format!("\"{}\"", name.replace('"', "\"\""))
}

/// Render a value as a SQL literal.
fn literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_string(),
        Value::Int(i) => i.to_string(),
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
    }
}

/// The `WHERE` conjunction selecting tuples matching `t_p[X]` (constant
/// atoms only — wildcards match everything).
fn pattern_where(schema: &Schema, cfd: &Cfd, alias: &str) -> String {
    let mut conds: Vec<String> = cfd
        .lhs
        .iter()
        .zip(&cfd.lhs_pattern)
        .filter_map(|(&a, p)| match p {
            PatternValue::Const(v) => Some(format!(
                "{alias}.{} = {}",
                ident(schema.attr_name(a)),
                literal(v)
            )),
            PatternValue::Wildcard => None,
        })
        .collect();
    if conds.is_empty() {
        conds.push("1 = 1".to_string());
    }
    conds.join(" AND ")
}

/// The constant query `Q_C` for a constant CFD: every tuple matching the
/// LHS pattern whose RHS attribute differs from the RHS constant.
/// Returns `None` for variable CFDs.
pub(crate) fn constant_query(schema: &Schema, cfd: &Cfd) -> Option<String> {
    let b = match &cfd.rhs_pattern {
        PatternValue::Const(v) => v,
        PatternValue::Wildcard => return None,
    };
    let table = ident(schema.name());
    let key = ident(schema.attr_name(schema.key()));
    let wher = pattern_where(schema, cfd, "t");
    Some(format!(
        "SELECT t.{key} FROM {table} t WHERE {wher} AND (t.{b_attr} <> {b_lit} OR t.{b_attr} IS NULL)",
        b_attr = ident(schema.attr_name(cfd.rhs)),
        b_lit = literal(b),
    ))
}

/// The variable query `Q_V` for a variable CFD: tuples in pattern-matching
/// `X` groups holding more than one distinct `B` value. Returns `None`
/// for constant CFDs.
pub(crate) fn variable_query(schema: &Schema, cfd: &Cfd) -> Option<String> {
    if cfd.is_constant() {
        return None;
    }
    let table = ident(schema.name());
    let key = ident(schema.attr_name(schema.key()));
    let xs: Vec<String> = cfd
        .lhs
        .iter()
        .map(|&a| ident(schema.attr_name(a)))
        .collect();
    let join_on: Vec<String> = xs.iter().map(|x| format!("t.{x} = g.{x}")).collect();
    let wher = pattern_where(schema, cfd, "t");
    let b = ident(schema.attr_name(cfd.rhs));
    let x_list = xs.join(", ");
    Some(format!(
        "SELECT t.{key} FROM {table} t JOIN (\
         SELECT {x_list} FROM {table} t WHERE {wher} \
         GROUP BY {x_list} HAVING COUNT(DISTINCT {b}) > 1\
         ) g ON {join} WHERE {wher}",
        join = join_on.join(" AND "),
    ))
}

/// The "two queries" of §2.3 for a whole rule set: one `UNION ALL` of all
/// constant queries, one of all variable queries. Either may be `None`
/// when the rule set has no CFDs of that kind.
pub(crate) fn two_queries(schema: &Schema, cfds: &[Cfd]) -> (Option<String>, Option<String>) {
    let consts: Vec<String> = cfds
        .iter()
        .filter_map(|c| constant_query(schema, c))
        .collect();
    let vars: Vec<String> = cfds
        .iter()
        .filter_map(|c| variable_query(schema, c))
        .collect();
    let join = |qs: Vec<String>| {
        if qs.is_empty() {
            None
        } else {
            Some(qs.join("\nUNION ALL\n"))
        }
    };
    (join(consts), join(vars))
}
