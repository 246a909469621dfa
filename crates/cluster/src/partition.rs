//! Data fragmentation (§2.2).
//!
//! * **Vertical**: `D_i = π_{X_i}(D)`, every fragment carries the key
//!   attribute so `D = ⋈_i D_i`. Attributes may be *replicated* across
//!   fragments (§5, Example 7(b)) — the optimizer exploits replication when
//!   placing HEVs.
//! * **Horizontal**: `D_i = σ_{F_i}(D)` with pairwise-disjoint predicates,
//!   `D = ⋃_i D_i`. Constructors for predicate lists, value groups and hash
//!   partitioning are provided; routing validates the "exactly one
//!   fragment" property.

use crate::{ClusterError, SiteId};
use relation::{AttrId, Predicate, Relation, Schema, Tuple, Value};
use std::sync::Arc;

/// A vertical partition-and-replication scheme.
#[derive(Debug, Clone)]
pub struct VerticalScheme {
    schema: Arc<Schema>,
    /// Attribute ids per site (key always included, first position).
    frags: Vec<Vec<AttrId>>,
    frag_schemas: Vec<Arc<Schema>>,
}

impl VerticalScheme {
    /// Build a scheme. The key attribute is added to any fragment missing
    /// it. Every schema attribute must appear in at least one fragment;
    /// replication (an attribute in several fragments) is allowed.
    pub fn new(schema: Arc<Schema>, frags: Vec<Vec<AttrId>>) -> Result<Self, ClusterError> {
        if frags.is_empty() {
            return Err(ClusterError::BadScheme("no fragments".into()));
        }
        let key = schema.key();
        let mut norm: Vec<Vec<AttrId>> = Vec::with_capacity(frags.len());
        for (i, mut f) in frags.into_iter().enumerate() {
            for &a in &f {
                if (a as usize) >= schema.arity() {
                    return Err(ClusterError::BadScheme(format!(
                        "fragment {i} references attribute #{a} outside schema"
                    )));
                }
            }
            // Key first, then the fragment's own attributes (deduplicated).
            f.retain(|&a| a != key);
            let mut seen = vec![false; schema.arity()];
            let mut attrs = vec![key];
            seen[key as usize] = true;
            for a in f {
                if !seen[a as usize] {
                    seen[a as usize] = true;
                    attrs.push(a);
                }
            }
            norm.push(attrs);
        }
        for a in 0..schema.arity() as AttrId {
            if !norm.iter().any(|f| f.contains(&a)) {
                return Err(ClusterError::BadScheme(format!(
                    "attribute `{}` not covered by any fragment",
                    schema.attr_name(a)
                )));
            }
        }
        let frag_schemas = norm
            .iter()
            .enumerate()
            .map(|(i, attrs)| {
                let names: Vec<&str> = attrs.iter().map(|&a| schema.attr_name(a)).collect();
                let name = format!("{}_V{}", schema.name(), i + 1);
                let fragment = Schema::new(name, &names, schema.attr_name(key));
                fragment.map_err(|e| ClusterError::BadScheme(format!("fragment {i}: {e}")))
            })
            .collect::<Result<_, _>>()?;
        Ok(VerticalScheme {
            schema,
            frags: norm,
            frag_schemas,
        })
    }

    /// Even round-robin scheme over `n` sites (key replicated everywhere):
    /// non-key attributes are dealt to sites in order. Handy default for
    /// experiments.
    pub fn round_robin(schema: Arc<Schema>, n: usize) -> Result<Self, ClusterError> {
        let key = schema.key();
        let n = n.max(1);
        let mut frags = vec![Vec::new(); n];
        let mut i = 0usize;
        for a in 0..schema.arity() as AttrId {
            if a == key {
                continue;
            }
            frags[i % n].push(a);
            i += 1;
        }
        VerticalScheme::new(schema, frags)
    }

    /// The global schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of fragments / sites.
    pub fn n_sites(&self) -> usize {
        self.frags.len()
    }

    /// All sites holding `attr` (≥ 1; > 1 under replication).
    pub fn sites_of(&self, attr: AttrId) -> Vec<SiteId> {
        (0..self.frags.len())
            .filter(|&s| self.frags[s].contains(&attr))
            .collect()
    }

    /// The first site holding `attr`.
    #[expect(
        clippy::expect_used,
        reason = "`new` refuses a scheme that leaves an attribute uncovered"
    )]
    pub fn primary_site(&self, attr: AttrId) -> SiteId {
        self.sites_of(attr)
            .into_iter()
            .next()
            .expect("scheme covers every attribute")
    }

    /// Position of `attr` within the fragment of `site`, if present.
    pub fn local_pos(&self, site: SiteId, attr: AttrId) -> Option<usize> {
        self.frags[site].iter().position(|&a| a == attr)
    }

    /// The derived schema of fragment `site`.
    pub fn fragment_schema(&self, site: SiteId) -> &Arc<Schema> {
        &self.frag_schemas[site]
    }

    /// Partition a relation: `D_i = π_{X_i}(D)` with tuple ids preserved.
    /// Scans the source columns directly — each fragment row is interned
    /// from borrowed values, no intermediate `Tuple` per projection.
    #[expect(
        clippy::expect_used,
        reason = "a projection has the fragment's arity, and `d`'s tids are unique"
    )]
    pub fn partition(&self, d: &Relation) -> Vec<Relation> {
        let mut out: Vec<Relation> = self
            .frag_schemas
            .iter()
            .map(|s| Relation::new(s.clone()))
            .collect();
        let store = d.store();
        for (tid, row) in store.rows() {
            for (site, attrs) in self.frags.iter().enumerate() {
                out[site]
                    .insert_row(tid, store.project_values(row, attrs))
                    .expect("projection preserves unique tids");
            }
        }
        out
    }
}

/// A horizontal partition scheme: one selection predicate per site.
#[derive(Debug, Clone)]
pub struct HorizontalScheme {
    schema: Arc<Schema>,
    preds: Vec<Predicate>,
}

impl HorizontalScheme {
    /// Build from explicit predicates. Disjointness/totality is validated
    /// lazily per routed tuple (an error is raised for tuples matching zero
    /// or multiple fragments).
    pub fn new(schema: Arc<Schema>, preds: Vec<Predicate>) -> Result<Self, ClusterError> {
        if preds.is_empty() {
            return Err(ClusterError::BadScheme("no fragments".into()));
        }
        Ok(HorizontalScheme { schema, preds })
    }

    /// Hash partitioning on `attr` over `n` sites (total and disjoint by
    /// construction).
    pub fn by_hash(schema: Arc<Schema>, attr: AttrId, n: usize) -> Result<Self, ClusterError> {
        if n == 0 {
            return Err(ClusterError::BadScheme("no fragments".into()));
        }
        let preds = (0..n as u32)
            .map(|which| Predicate::HashMod {
                attr,
                buckets: n as u32,
                which,
            })
            .collect();
        HorizontalScheme::new(schema, preds)
    }

    /// Partition by value groups on `attr` (e.g. grade `A` / `B` / `C` in
    /// Fig. 2).
    pub fn by_values(
        schema: Arc<Schema>,
        attr: AttrId,
        groups: Vec<Vec<Value>>,
    ) -> Result<Self, ClusterError> {
        let preds = groups.into_iter().map(|g| Predicate::In(attr, g)).collect();
        HorizontalScheme::new(schema, preds)
    }

    /// The global schema (shared by all fragments).
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of fragments / sites.
    pub fn n_sites(&self) -> usize {
        self.preds.len()
    }

    /// The selection predicate `F_i` of `site`.
    pub fn predicate(&self, site: SiteId) -> &Predicate {
        &self.preds[site]
    }

    /// Route a tuple to its unique fragment; errors when the scheme is not
    /// a partition for this tuple.
    pub fn route(&self, t: &Tuple) -> Result<SiteId, ClusterError> {
        self.route_with(t.tid, &|a| t.get(a))
    }

    /// Route by positional value accessor — the columnar path (no tuple
    /// materialization; `tid` is only used in error messages).
    pub fn route_with<'a>(
        &self,
        tid: relation::Tid,
        get: &impl Fn(AttrId) -> &'a Value,
    ) -> Result<SiteId, ClusterError> {
        let mut hit = None;
        for (i, p) in self.preds.iter().enumerate() {
            if p.eval_with(get) {
                if hit.is_some() {
                    return Err(ClusterError::Routing(format!(
                        "tuple {tid} matches multiple fragments"
                    )));
                }
                hit = Some(i);
            }
        }
        hit.ok_or_else(|| ClusterError::Routing(format!("tuple {tid} matches no fragment")))
    }

    /// Partition a relation: `D_i = σ_{F_i}(D)` — a columnar scan; each
    /// selected row is interned into its fragment from borrowed values.
    #[expect(
        clippy::expect_used,
        reason = "a fragment has `d`'s schema, and `d`'s tids are unique"
    )]
    pub fn partition(&self, d: &Relation) -> Result<Vec<Relation>, ClusterError> {
        let mut out: Vec<Relation> = (0..self.preds.len())
            .map(|_| Relation::new(self.schema.clone()))
            .collect();
        let store = d.store();
        for (tid, row) in store.rows() {
            let site = self.route_with(tid, &|a| store.value(row, a))?;
            out[site]
                .insert_row(tid, store.row_syms(row).map(|s| store.pool().resolve(s)))
                .expect("partitioning preserves unique tids");
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::Value;

    fn schema() -> Arc<Schema> {
        Schema::new("R", &["id", "a", "b", "c", "grade"], "id").unwrap()
    }

    fn rel(n: usize) -> Relation {
        let s = schema();
        let mut d = Relation::new(s);
        for i in 0..n {
            let grade = ["A", "B", "C"][i % 3];
            d.insert(Tuple::new(
                i as u64,
                vec![
                    Value::int(i as i64),
                    Value::int((i / 2) as i64),
                    Value::str(format!("b{i}")),
                    Value::int(-(i as i64)),
                    Value::str(grade),
                ],
            ))
            .unwrap();
        }
        d
    }

    #[test]
    fn vertical_scheme_includes_key_everywhere() {
        let s = schema();
        let v = VerticalScheme::new(s.clone(), vec![vec![1, 2], vec![3, 4]]).unwrap();
        assert_eq!(v.n_sites(), 2);
        assert_eq!(v.primary_site(3), 1);
        assert_eq!(v.local_pos(1, 4), Some(2));
        assert_eq!(v.local_pos(0, 4), None);
        assert_eq!(v.fragment_schema(0).to_string(), "R_V1(*id, a, b)");
    }

    #[test]
    fn vertical_scheme_rejects_uncovered_attr() {
        let s = schema();
        assert!(matches!(
            VerticalScheme::new(s, vec![vec![1], vec![2]]),
            Err(ClusterError::BadScheme(_))
        ));
    }

    #[test]
    fn vertical_replication_reported() {
        let s = schema();
        let v = VerticalScheme::new(s, vec![vec![1, 2], vec![2, 3, 4]]).unwrap();
        assert_eq!(v.sites_of(2), vec![0, 1]);
        assert_eq!(v.sites_of(1), vec![0]);
    }

    #[test]
    fn vertical_partition_projects_with_tids() {
        let s = schema();
        let d = rel(4);
        let v = VerticalScheme::new(s, vec![vec![1], vec![2, 3, 4]]).unwrap();
        let frags = v.partition(&d);
        assert_eq!(frags[0].len(), 4);
        assert_eq!(frags[1].len(), 4);
        let t2 = frags[0].get(2).unwrap();
        assert_eq!(t2.arity(), 2); // id + a
        assert_eq!(t2.get(1), &Value::int(1));
    }

    #[test]
    fn vertical_round_robin_covers_everything() {
        let s = schema();
        let v = VerticalScheme::round_robin(s.clone(), 3).unwrap();
        for a in 0..s.arity() as AttrId {
            assert!(!v.sites_of(a).is_empty());
        }
    }

    #[test]
    fn horizontal_by_values_matches_fig2() {
        let s = schema();
        let grade = s.attr_id("grade").unwrap();
        let h = HorizontalScheme::by_values(
            s,
            grade,
            vec![
                vec![Value::str("A")],
                vec![Value::str("B")],
                vec![Value::str("C")],
            ],
        )
        .unwrap();
        let d = rel(6);
        let frags = h.partition(&d).unwrap();
        assert_eq!(frags.iter().map(Relation::len).sum::<usize>(), 6);
        assert_eq!(frags[0].len(), 2); // grades cycle A,B,C
        for t in frags[1].iter() {
            assert_eq!(t.get(grade), &Value::str("B"));
        }
    }

    #[test]
    fn horizontal_hash_is_total_and_disjoint() {
        let s = schema();
        let h = HorizontalScheme::by_hash(s, 0, 4).unwrap();
        let d = rel(100);
        let frags = h.partition(&d).unwrap();
        assert_eq!(frags.iter().map(Relation::len).sum::<usize>(), 100);
        // Spread across more than one bucket with overwhelming likelihood.
        assert!(frags.iter().filter(|f| !f.is_empty()).count() >= 2);
    }

    #[test]
    fn horizontal_routing_errors() {
        let s = schema();
        let grade = s.attr_id("grade").unwrap();
        // Overlapping predicates: grade A matches both.
        let h = HorizontalScheme::new(
            s.clone(),
            vec![
                Predicate::Eq(grade, Value::str("A")),
                Predicate::In(grade, vec![Value::str("A"), Value::str("B")]),
            ],
        )
        .unwrap();
        let d = rel(1);
        assert!(matches!(h.partition(&d), Err(ClusterError::Routing(_))));
        // Non-total: grade C matches nothing.
        let h2 = HorizontalScheme::new(s, vec![Predicate::Eq(grade, Value::str("A"))]).unwrap();
        let d3 = rel(3);
        assert!(matches!(h2.partition(&d3), Err(ClusterError::Routing(_))));
    }
}
