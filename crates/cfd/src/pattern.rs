//! Pattern values and the match operator `≍` (§2.1).
//!
//! A pattern entry is either a constant from the attribute domain or the
//! unnamed variable `_`. The operator `≍` relates values and patterns:
//! `v ≍ p` iff `p` is `_` or `p` is the constant `v`.

use relation::Value;
use std::fmt;

/// One entry of a pattern tuple: a constant or the unnamed variable `_`.
///
/// The `Ord` instance (wildcard first, then constants by value order) gives
/// a rule's normal form a stable atom order; it carries no semantic
/// meaning beyond determinism.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PatternValue {
    /// The unnamed variable `_`: matches any value.
    Wildcard,
    /// A constant: matches only itself.
    Const(Value),
}

impl PatternValue {
    /// The match operator `≍` on a single value.
    #[inline]
    pub fn matches(&self, v: &Value) -> bool {
        match self {
            PatternValue::Wildcard => true,
            PatternValue::Const(c) => c == v,
        }
    }

    /// Is this the unnamed variable?
    pub fn is_wildcard(&self) -> bool {
        matches!(self, PatternValue::Wildcard)
    }

    /// The constant, if any.
    pub(crate) fn as_const(&self) -> Option<&Value> {
        match self {
            PatternValue::Wildcard => None,
            PatternValue::Const(c) => Some(c),
        }
    }

    /// Does every value matching `other` also match `self`? (`_`
    /// generalizes everything; a constant generalizes only itself.) The
    /// pointwise order behind pattern-tableau subsumption in
    /// [`crate::analysis`].
    pub(crate) fn generalizes(&self, other: &PatternValue) -> bool {
        match self {
            PatternValue::Wildcard => true,
            PatternValue::Const(_) => self == other,
        }
    }
}

impl fmt::Display for PatternValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternValue::Wildcard => write!(f, "_"),
            PatternValue::Const(c) => write!(f, "{c}"),
        }
    }
}

impl From<Value> for PatternValue {
    fn from(v: Value) -> Self {
        PatternValue::Const(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wildcard_matches_everything() {
        assert!(PatternValue::Wildcard.matches(&Value::int(1)));
        assert!(PatternValue::Wildcard.matches(&Value::str("x")));
        assert!(PatternValue::Wildcard.matches(&Value::Null));
    }

    #[test]
    fn constant_matches_only_itself() {
        let p = PatternValue::Const(Value::int(44));
        assert!(p.matches(&Value::int(44)));
        assert!(!p.matches(&Value::int(131)));
        assert!(!p.matches(&Value::str("44")));
    }

    #[test]
    fn tuple_match_example_from_paper() {
        // (131, EDI) ≍ (_, EDI) but (131, EDI) 6≍ (_, NYC)
        let v131 = Value::int(131);
        let edi = Value::str("EDI");
        let vals = [&v131, &edi];
        let p_ok = [
            PatternValue::Wildcard,
            PatternValue::Const(Value::str("EDI")),
        ];
        let p_no = [
            PatternValue::Wildcard,
            PatternValue::Const(Value::str("NYC")),
        ];
        let matches_all = |ps: &[PatternValue]| vals.iter().zip(ps).all(|(v, p)| p.matches(v));
        assert!(matches_all(&p_ok));
        assert!(!matches_all(&p_no));
    }

    #[test]
    fn accessors() {
        assert!(PatternValue::Wildcard.is_wildcard());
        assert_eq!(PatternValue::Wildcard.as_const(), None);
        let c = PatternValue::Const(Value::int(3));
        assert!(!c.is_wildcard());
        assert_eq!(c.as_const(), Some(&Value::int(3)));
    }

    #[test]
    fn display_forms() {
        assert_eq!(PatternValue::Wildcard.to_string(), "_");
        assert_eq!(PatternValue::Const(Value::str("EDI")).to_string(), "EDI");
    }
}
