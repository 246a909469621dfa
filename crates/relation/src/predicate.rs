//! Selection predicates for horizontal fragmentation (§2.2, §6).
//!
//! A horizontal fragment is `D_i = σ_{F_i}(D)` for a Boolean predicate `F_i`.
//! The detector needs two operations on predicates:
//!
//! * evaluation against a tuple (to route updates to fragments), and
//! * the *local-checkability* test of §6: a variable CFD `φ` with pattern
//!   conjunction `F_φ` (the constant atoms of `t_p[X]`) can be checked without
//!   shipment at fragment `i` when `F_i ∧ F_φ` is unsatisfiable, or when the
//!   attributes of `F_i` are contained in `X` (equal `X_{F_i}` values force
//!   co-location of any violating pair).

use crate::schema::AttrId;
use crate::value::Value;

/// A Boolean selection predicate over tuples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// Always true (the single-fragment degenerate case).
    True,
    /// `attr = value`.
    Eq(AttrId, Value),
    /// `attr ∈ {values}` (e.g. `grade ∈ {'A','B'}`).
    In(AttrId, Vec<Value>),
    /// `lo ≤ attr < hi` over integer values; non-integers never match.
    IntRange(AttrId, i64, i64),
    /// `hash(attr) mod buckets == which` — hash partitioning.
    HashMod {
        /// Attribute hashed.
        attr: AttrId,
        /// Number of buckets.
        buckets: u32,
        /// Bucket selected by this predicate.
        which: u32,
    },
    /// Conjunction.
    And(Vec<Predicate>),
}

fn stable_hash(v: &Value) -> u64 {
    // FNV-1a over the digest byte encoding: stable across runs/platforms,
    // which keeps experiment partitions reproducible.
    let mut bytes = Vec::with_capacity(16);
    v.digest_bytes(&mut bytes);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Predicate {
    /// Evaluate against a positional value accessor, so columnar callers
    /// route rows without materializing a [`Tuple`](crate::Tuple).
    pub fn eval_with<'a>(&self, get: &impl Fn(AttrId) -> &'a Value) -> bool {
        match self {
            Predicate::True => true,
            Predicate::Eq(a, v) => get(*a) == v,
            Predicate::In(a, vs) => vs.contains(get(*a)),
            Predicate::IntRange(a, lo, hi) => match get(*a) {
                Value::Int(i) => lo <= i && i < hi,
                _ => false,
            },
            Predicate::HashMod {
                attr,
                buckets,
                which,
            } => (stable_hash(get(*attr)) % *buckets as u64) as u32 == *which,
            Predicate::And(ps) => ps.iter().all(|p| p.eval_with(get)),
        }
    }

    /// Attributes mentioned by this predicate (`X_{F_i}` in §6).
    pub fn attrs(&self) -> Vec<AttrId> {
        let mut out = Vec::new();
        self.collect_attrs(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_attrs(&self, out: &mut Vec<AttrId>) {
        match self {
            Predicate::True => {}
            Predicate::Eq(a, _) | Predicate::In(a, _) | Predicate::IntRange(a, _, _) => {
                out.push(*a);
            }
            Predicate::HashMod { attr, .. } => out.push(*attr),
            Predicate::And(ps) => ps.iter().for_each(|p| p.collect_attrs(out)),
        }
    }

    /// Conservative unsatisfiability test for `F_i ∧ F_φ` where `F_φ` is a
    /// conjunction of equality atoms `attr = const` (the constant pattern
    /// atoms of a CFD). Returns `true` only when the conjunction provably has
    /// no satisfying tuple; `false` means "possibly satisfiable".
    pub fn conflicts_with_atoms(&self, atoms: &[(AttrId, Value)]) -> bool {
        match self {
            Predicate::True => false,
            Predicate::Eq(a, v) => atoms.iter().any(|(b, w)| b == a && w != v),
            Predicate::In(a, vs) => atoms.iter().any(|(b, w)| b == a && !vs.contains(w)),
            Predicate::IntRange(a, lo, hi) => atoms.iter().any(|(b, w)| {
                b == a
                    && match w {
                        Value::Int(i) => !(lo <= i && i < hi),
                        _ => true, // non-integer constant can never be in range
                    }
            }),
            Predicate::HashMod {
                attr,
                buckets,
                which,
            } => atoms
                .iter()
                .any(|(b, w)| b == attr && (stable_hash(w) % *buckets as u64) as u32 != *which),
            Predicate::And(ps) => ps.iter().any(|p| p.conflicts_with_atoms(atoms)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn holds(p: &Predicate, vals: &[Value]) -> bool {
        p.eval_with(&|a| &vals[a as usize])
    }

    #[test]
    fn eq_and_in() {
        let p = Predicate::Eq(0, Value::str("A"));
        assert!(holds(&p, &[Value::str("A")]));
        assert!(!holds(&p, &[Value::str("B")]));
        let q = Predicate::In(0, vec![Value::str("A"), Value::str("B")]);
        assert!(holds(&q, &[Value::str("B")]));
        assert!(!holds(&q, &[Value::str("C")]));
    }

    #[test]
    fn int_range() {
        let p = Predicate::IntRange(0, 10, 20);
        assert!(holds(&p, &[Value::int(10)]));
        assert!(holds(&p, &[Value::int(19)]));
        assert!(!holds(&p, &[Value::int(20)]));
        assert!(!holds(&p, &[Value::str("10")]));
    }

    #[test]
    fn hash_mod_partitions_every_value_exactly_once() {
        let buckets = 4u32;
        for i in 0..100i64 {
            let vals = [Value::int(i)];
            let matched = (0..buckets)
                .filter(|&which| {
                    let p = Predicate::HashMod {
                        attr: 0,
                        buckets,
                        which,
                    };
                    holds(&p, &vals)
                })
                .count();
            assert_eq!(matched, 1, "value {i} must land in exactly one bucket");
        }
    }

    #[test]
    fn and_conjunction() {
        let p = Predicate::And(vec![
            Predicate::Eq(0, Value::str("A")),
            Predicate::IntRange(1, 0, 5),
        ]);
        assert!(holds(&p, &[Value::str("A"), Value::int(3)]));
        assert!(!holds(&p, &[Value::str("A"), Value::int(7)]));
    }

    #[test]
    fn attrs_collected_sorted_deduped() {
        let p = Predicate::And(vec![
            Predicate::Eq(3, Value::int(1)),
            Predicate::Eq(1, Value::int(2)),
            Predicate::Eq(3, Value::int(1)),
        ]);
        assert_eq!(p.attrs(), vec![1, 3]);
        assert!(Predicate::True.attrs().is_empty());
    }

    #[test]
    fn conflict_detection_for_local_checkability() {
        // Fragment holds grade='A'; CFD pattern forces grade='B' → unsat.
        let frag = Predicate::Eq(0, Value::str("A"));
        assert!(frag.conflicts_with_atoms(&[(0, Value::str("B"))]));
        assert!(!frag.conflicts_with_atoms(&[(0, Value::str("A"))]));
        // Pattern on another attribute never conflicts.
        assert!(!frag.conflicts_with_atoms(&[(1, Value::str("B"))]));
        // Range fragment vs out-of-range constant.
        let r = Predicate::IntRange(2, 0, 10);
        assert!(r.conflicts_with_atoms(&[(2, Value::int(15))]));
        assert!(!r.conflicts_with_atoms(&[(2, Value::int(5))]));
        // In-list fragment.
        let l = Predicate::In(1, vec![Value::str("B"), Value::str("C")]);
        assert!(l.conflicts_with_atoms(&[(1, Value::str("A"))]));
        assert!(!l.conflicts_with_atoms(&[(1, Value::str("C"))]));
    }
}
