//! HEV plans: which equivalence-class indices exist, where they live, and
//! how eqids flow between sites (§4–§5).
//!
//! A plan is a DAG. Leaves are *base* HEVs (one per attribute, at a site
//! holding the attribute); internal nodes are non-base HEVs combining the
//! eqids of their inputs. For every variable CFD `φ = (X → B, t_p)` the plan
//! designates:
//!
//! * an eqid source for `X` (`lhs`) — a node, or a single base HEV when
//!   `|X| = 1`; the IDX for `φ` lives at its site;
//! * a node for `X ∪ {B}` (`xb`), co-located with the IDX, combining the
//!   `X` eqid with `B`'s base eqid.
//!
//! **Shipment counting.** Handling one unit update requires, for each
//! cross-site edge `(producer → consumer site)`, shipping one eqid — and a
//! producer shipped once to a site serves *all* consumers there (§5,
//! Example 7: "this eqid is shipped only once"). [`HevPlan::neqid`] counts
//! exactly these deduplicated pairs; it is the static quantity Exp-5 /
//! Fig. 10 reports, independent of `D` and of the update's values.

use cfd::Cfd;
use cluster::partition::VerticalScheme;
use cluster::SiteId;
use relation::{AttrId, FxHashMap, FxHashSet};

/// Index of a non-base HEV node within its plan.
pub type NodeId = usize;

/// An eqid source: a base HEV or a non-base node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Input {
    /// The base HEV of an attribute.
    Base(AttrId),
    /// A non-base node.
    Node(NodeId),
}

/// A non-base HEV node.
#[derive(Debug, Clone)]
pub struct HevNode {
    /// Attribute set this node's eqid identifies (sorted, deduplicated).
    pub attrs: Vec<AttrId>,
    /// Site where the node (hash table) resides.
    pub site: SiteId,
    /// Inputs whose eqids are combined by `eq()`; their attribute sets
    /// partition (cover) `attrs`.
    pub inputs: Vec<Input>,
}

/// Per-variable-CFD index anchors.
#[derive(Debug, Clone, Copy)]
pub struct CfdTarget {
    /// Source of `id[t_X]` (IDX key). The IDX lives at this input's site.
    pub lhs: Input,
    /// Node computing `id[t_{X∪B}]`, co-located with the IDX.
    pub xb: NodeId,
}

/// A complete HEV plan for a rule set over a vertical scheme.
#[derive(Debug, Clone)]
pub struct HevPlan {
    nodes: Vec<HevNode>,
    /// Site of each attribute's base HEV.
    base_sites: FxHashMap<AttrId, SiteId>,
    /// Per CFD id: `Some` for variable CFDs, `None` for constant CFDs.
    targets: Vec<Option<CfdTarget>>,
}

/// Plan construction/validation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A node's inputs do not cover exactly its attribute set.
    BadCover(NodeId),
    /// An input references a node with a larger or equal id (cycle risk).
    NotTopological(NodeId),
    /// A base HEV is placed at a site that does not hold its attribute.
    BadBaseSite(AttrId, SiteId),
    /// A node is placed at a site the scheme does not have.
    BadNodeSite(NodeId, SiteId),
    /// A CFD target is missing or malformed.
    BadTarget(u32),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::BadCover(n) => write!(f, "node {n}: inputs do not cover attrs"),
            PlanError::NotTopological(n) => write!(f, "node {n}: forward input reference"),
            PlanError::BadBaseSite(a, s) => {
                write!(
                    f,
                    "base HEV for attr #{a} at site {s} which does not hold it"
                )
            }
            PlanError::BadNodeSite(n, s) => write!(f, "node {n} at site {s}, not a scheme site"),
            PlanError::BadTarget(c) => write!(f, "CFD {c}: malformed target"),
        }
    }
}

impl std::error::Error for PlanError {}

impl HevPlan {
    /// Assemble a plan from parts and validate it against `scheme`.
    pub fn new(
        nodes: Vec<HevNode>,
        base_sites: FxHashMap<AttrId, SiteId>,
        targets: Vec<Option<CfdTarget>>,
        scheme: &VerticalScheme,
    ) -> Result<Self, PlanError> {
        let plan = HevPlan {
            nodes,
            base_sites,
            targets,
        };
        plan.validate(scheme)?;
        Ok(plan)
    }

    /// The canonical unoptimized plan of §4: for each variable CFD, sort
    /// `X = (x₁…x_m)` and build the chain `{x₁,x₂} → {x₁,x₂,x₃} → … → X`,
    /// each link placed at a site holding the newly added attribute, plus
    /// the `X ∪ {B}` node at the IDX site. Chains with identical prefixes
    /// are shared between CFDs; base HEVs sit at each attribute's primary
    /// site.
    pub fn default_chains(cfds: &[Cfd], scheme: &VerticalScheme) -> Self {
        let mut builder = PlanBuilder::new(scheme);
        for cfd in cfds {
            if cfd.is_constant() {
                builder.targets.push(None);
                continue;
            }
            let mut xs: Vec<AttrId> = cfd.lhs.clone();
            xs.sort_unstable();
            xs.dedup();
            let lhs = builder.chain(&xs);
            let xb = builder.xb_node(lhs, cfd.rhs);
            builder.targets.push(Some(CfdTarget { lhs, xb }));
        }
        builder.finish()
    }

    /// Non-base nodes.
    pub fn nodes(&self) -> &[HevNode] {
        &self.nodes
    }

    /// Base HEV site of `attr`.
    pub fn base_site(&self, attr: AttrId) -> SiteId {
        self.base_sites[&attr]
    }

    /// All base sites.
    pub fn base_sites(&self) -> &FxHashMap<AttrId, SiteId> {
        &self.base_sites
    }

    /// Target anchors of `cfd` (None for constant CFDs, and for an id
    /// the plan has no target for).
    pub fn target(&self, cfd: u32) -> Option<CfdTarget> {
        self.targets.get(cfd as usize).copied().flatten()
    }

    /// Site of an eqid source.
    pub fn site_of(&self, input: Input) -> SiteId {
        match input {
            Input::Base(a) => self.base_sites[&a],
            Input::Node(n) => self.nodes[n].site,
        }
    }

    /// The site where `cfd`'s IDX lives (site of its `lhs` source).
    pub fn idx_site(&self, cfd: u32) -> Option<SiteId> {
        self.target(cfd).map(|t| self.site_of(t.lhs))
    }

    /// Nodes needed to evaluate `cfd`'s anchors, in topological (id) order.
    pub fn required_nodes(&self, cfd: u32) -> Vec<NodeId> {
        let mut need: FxHashSet<NodeId> = FxHashSet::default();
        if let Some(t) = self.target(cfd) {
            let mut stack = vec![t.xb];
            if let Input::Node(n) = t.lhs {
                stack.push(n);
            }
            while let Some(n) = stack.pop() {
                if need.insert(n) {
                    for i in &self.nodes[n].inputs {
                        if let Input::Node(m) = i {
                            stack.push(*m);
                        }
                    }
                }
            }
        }
        let mut v: Vec<NodeId> = need.into_iter().collect();
        v.sort_unstable();
        v
    }

    /// Cross-site eqid shipments for a *unit update* across all CFDs,
    /// deduplicated by `(producer, destination site)` — the Fig. 10 metric.
    pub fn neqid(&self) -> usize {
        self.shipment_pairs().len()
    }

    /// The deduplicated cross-site `(producer, destination)` pairs a unit
    /// update triggers.
    pub fn shipment_pairs(&self) -> FxHashSet<(Input, SiteId)> {
        let mut pairs: FxHashSet<(Input, SiteId)> = FxHashSet::default();
        let mut needed: FxHashSet<NodeId> = FxHashSet::default();
        for c in 0..self.targets.len() as u32 {
            for n in self.required_nodes(c) {
                needed.insert(n);
            }
        }
        for &n in &needed {
            let node = &self.nodes[n];
            for &inp in &node.inputs {
                if self.site_of(inp) != node.site {
                    pairs.insert((inp, node.site));
                }
            }
        }
        pairs
    }

    /// Validate structural invariants against the vertical scheme.
    pub fn validate(&self, scheme: &VerticalScheme) -> Result<(), PlanError> {
        for (&a, &s) in &self.base_sites {
            if !scheme.sites_of(a).contains(&s) {
                return Err(PlanError::BadBaseSite(a, s));
            }
        }
        for (id, node) in self.nodes.iter().enumerate() {
            if node.site >= scheme.n_sites() {
                return Err(PlanError::BadNodeSite(id, node.site));
            }
            let mut covered: FxHashSet<AttrId> = FxHashSet::default();
            for &inp in &node.inputs {
                match inp {
                    Input::Base(a) => {
                        covered.insert(a);
                    }
                    Input::Node(m) => {
                        if m >= id {
                            return Err(PlanError::NotTopological(id));
                        }
                        covered.extend(self.nodes[m].attrs.iter().copied());
                    }
                }
            }
            let want: FxHashSet<AttrId> = node.attrs.iter().copied().collect();
            if covered != want {
                return Err(PlanError::BadCover(id));
            }
        }
        for (c, t) in self.targets.iter().enumerate() {
            if let Some(t) = t {
                if t.xb >= self.nodes.len() {
                    return Err(PlanError::BadTarget(c as u32));
                }
                if let Input::Node(n) = t.lhs {
                    if n >= self.nodes.len() {
                        return Err(PlanError::BadTarget(c as u32));
                    }
                }
                // The X∪{B} node must be co-located with the IDX.
                if self.nodes[t.xb].site != self.site_of(t.lhs) {
                    return Err(PlanError::BadTarget(c as u32));
                }
            }
        }
        Ok(())
    }
}

/// Incremental plan builder shared by [`HevPlan::default_chains`] and the
/// optimizer.
pub struct PlanBuilder<'a> {
    scheme: &'a VerticalScheme,
    pub(crate) nodes: Vec<HevNode>,
    /// attrs (sorted) → existing node, for chain sharing.
    by_attrs: FxHashMap<Vec<AttrId>, NodeId>,
    pub(crate) base_sites: FxHashMap<AttrId, SiteId>,
    pub(crate) targets: Vec<Option<CfdTarget>>,
}

impl<'a> PlanBuilder<'a> {
    /// Fresh builder; base HEVs default to each attribute's primary site.
    pub fn new(scheme: &'a VerticalScheme) -> Self {
        let mut base_sites = FxHashMap::default();
        for a in 0..scheme.schema().arity() as AttrId {
            base_sites.insert(a, scheme.primary_site(a));
        }
        PlanBuilder {
            scheme,
            nodes: Vec::new(),
            by_attrs: FxHashMap::default(),
            base_sites,
            targets: Vec::new(),
        }
    }

    /// Choose a site for a node over `attrs`: prefer the site holding the
    /// most of them (ties: lower id) — a lightweight `findLoc`.
    pub fn find_loc(&self, attrs: &[AttrId]) -> SiteId {
        let mut best = 0usize;
        let mut best_cover = 0usize;
        for s in 0..self.scheme.n_sites() {
            let cover = attrs
                .iter()
                .filter(|&&a| self.scheme.local_pos(s, a).is_some())
                .count();
            if cover > best_cover {
                best_cover = cover;
                best = s;
            }
        }
        best
    }

    /// Get or create the prefix chain for sorted `xs`, returning the eqid
    /// source for the full set.
    pub fn chain(&mut self, xs: &[AttrId]) -> Input {
        debug_assert!(xs.windows(2).all(|w| w[0] < w[1]));
        if xs.len() == 1 {
            return Input::Base(xs[0]);
        }
        let mut prev = Input::Base(xs[0]);
        for i in 2..=xs.len() {
            let prefix = xs[..i].to_vec();
            prev = match self.by_attrs.get(&prefix) {
                Some(&n) => Input::Node(n),
                None => {
                    let added = xs[i - 1];
                    let site = self.scheme.primary_site(added);
                    let id = self.push_node(HevNode {
                        attrs: prefix.clone(),
                        site,
                        inputs: vec![prev, Input::Base(added)],
                    });
                    Input::Node(id)
                }
            };
        }
        prev
    }

    /// Create (or reuse) the `X ∪ {B}` node at the IDX site.
    pub fn xb_node(&mut self, lhs: Input, b: AttrId) -> NodeId {
        let mut attrs: Vec<AttrId> = match lhs {
            Input::Base(a) => vec![a],
            Input::Node(n) => self.nodes[n].attrs.clone(),
        };
        attrs.push(b);
        attrs.sort_unstable();
        attrs.dedup();
        let site = match lhs {
            Input::Base(a) => self.base_sites[&a],
            Input::Node(n) => self.nodes[n].site,
        };
        // Reuse only when an existing node has identical attrs AND site AND
        // shape (same lhs input) — different CFDs with the same X∪{B} share.
        if let Some(&n) = self.by_attrs.get(&attrs) {
            let node = &self.nodes[n];
            if node.site == site && node.inputs == vec![lhs, Input::Base(b)] {
                return n;
            }
        }
        self.push_node(HevNode {
            attrs,
            site,
            inputs: vec![lhs, Input::Base(b)],
        })
    }

    /// Append a node, registering it for attr-based reuse.
    pub fn push_node(&mut self, node: HevNode) -> NodeId {
        let id = self.nodes.len();
        self.by_attrs.entry(node.attrs.clone()).or_insert(id);
        self.nodes.push(node);
        id
    }

    /// Finalize into a plan (invariants hold by construction).
    pub fn finish(self) -> HevPlan {
        HevPlan {
            nodes: self.nodes,
            base_sites: self.base_sites,
            targets: self.targets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::Schema;
    use std::sync::Arc;

    /// The Example 7 / Fig. 6 setup: Re(A..K) over 8 sites.
    pub(crate) fn example7_scheme(replicate_i_at_s6: bool) -> (Arc<Schema>, VerticalScheme) {
        let s = Schema::new(
            "Re",
            &["key", "A", "B", "C", "D", "E", "F", "G", "H", "I", "J", "K"],
            "key",
        )
        .unwrap();
        let a = |n: &str| s.attr_id(n).unwrap();
        let mut frags = vec![
            vec![a("A")],
            vec![a("B")],
            vec![a("C")],
            vec![a("D")],
            vec![a("E"), a("F")],
            vec![a("G"), a("H")],
            vec![a("I")],
            vec![a("J"), a("K")],
        ];
        if replicate_i_at_s6 {
            frags[5].push(a("I"));
        }
        let scheme = VerticalScheme::new(s.clone(), frags).unwrap();
        (s, scheme)
    }

    pub(crate) fn example7_cfds(s: &Schema) -> Vec<Cfd> {
        let mk = |id: u32, lhs: &[&str], rhs: &str| {
            Cfd::from_names(
                id,
                s,
                &lhs.iter().map(|n| (*n, None)).collect::<Vec<_>>(),
                (rhs, None),
            )
            .unwrap()
        };
        vec![
            mk(0, &["A", "B", "C"], "E"),
            mk(1, &["A", "C", "D"], "F"),
            mk(2, &["A", "G"], "H"),
            mk(3, &["A", "I", "J"], "K"),
        ]
    }

    #[test]
    fn default_chain_reproduces_fig6a_count() {
        let (s, scheme) = example7_scheme(false);
        let cfds = example7_cfds(&s);
        let plan = HevPlan::default_chains(&cfds, &scheme);
        plan.validate(&scheme).unwrap();
        // Fig. 6(a): 9 eqid shipments for the unshared plan
        // (A→S2, AB→S3, E→S3, A→S3, AC→S4, F→S4, A→S6, A→S7, AI→S8).
        assert_eq!(plan.neqid(), 9);
    }

    #[test]
    fn chains_are_shared_between_cfds() {
        let (s, scheme) = example7_scheme(false);
        // Two CFDs with the same sorted LHS share the whole chain.
        let mk = |id: u32, lhs: &[&str], rhs: &str| {
            Cfd::from_names(
                id,
                &s,
                &lhs.iter().map(|n| (*n, None)).collect::<Vec<_>>(),
                (rhs, None),
            )
            .unwrap()
        };
        let cfds = vec![mk(0, &["A", "B"], "E"), mk(1, &["B", "A"], "F")];
        let plan = HevPlan::default_chains(&cfds, &scheme);
        let t0 = plan.target(0).unwrap();
        let t1 = plan.target(1).unwrap();
        assert_eq!(t0.lhs, t1.lhs, "sorted LHS {{A,B}} chain shared");
        assert_ne!(t0.xb, t1.xb, "different B → different X∪B nodes");
    }

    #[test]
    fn single_attr_lhs_uses_base() {
        let (s, scheme) = example7_scheme(false);
        let cfd = Cfd::from_names(0, &s, &[("A", None)], ("B", None)).unwrap();
        let plan = HevPlan::default_chains(&[cfd], &scheme);
        let t = plan.target(0).unwrap();
        assert!(matches!(t.lhs, Input::Base(_)));
        // IDX at A's site (S0 in our numbering = paper's S1); B base at S1
        // ships its eqid there: exactly 1 shipment.
        assert_eq!(plan.neqid(), 1);
    }

    #[test]
    fn constant_cfds_have_no_target() {
        let (s, scheme) = example7_scheme(false);
        let cfd = Cfd::from_names(
            0,
            &s,
            &[("A", Some(relation::Value::int(1)))],
            ("B", Some(relation::Value::int(2))),
        )
        .unwrap();
        let plan = HevPlan::default_chains(&[cfd], &scheme);
        assert!(plan.target(0).is_none());
        assert_eq!(plan.neqid(), 0);
    }

    #[test]
    fn local_cfd_ships_nothing() {
        // X ∪ {B} within one fragment → all plan sites coincide.
        let s = Schema::new("R", &["id", "a", "b", "c"], "id").unwrap();
        let scheme = VerticalScheme::new(
            s.clone(),
            vec![vec![1, 2, 3], vec![1]], // everything at site 0
        )
        .unwrap();
        let cfd = Cfd::from_names(0, &s, &[("a", None), ("b", None)], ("c", None)).unwrap();
        let plan = HevPlan::default_chains(&[cfd], &scheme);
        assert_eq!(plan.neqid(), 0, "locally checkable CFD needs no shipment");
    }

    #[test]
    fn validation_catches_bad_plans() {
        let (s, scheme) = example7_scheme(false);
        let a = |n: &str| s.attr_id(n).unwrap();
        // Node whose inputs don't cover its attrs.
        let bad = HevPlan {
            nodes: vec![HevNode {
                attrs: vec![a("A"), a("B")],
                site: 0,
                inputs: vec![Input::Base(a("A"))],
            }],
            base_sites: {
                let mut m = FxHashMap::default();
                for at in 0..s.arity() as AttrId {
                    m.insert(at, scheme.primary_site(at));
                }
                m
            },
            targets: vec![],
        };
        assert!(matches!(bad.validate(&scheme), Err(PlanError::BadCover(0))));
        // Base HEV at a site that doesn't hold the attribute.
        let mut base_sites = FxHashMap::default();
        for at in 0..s.arity() as AttrId {
            base_sites.insert(at, scheme.primary_site(at));
        }
        base_sites.insert(a("A"), 3);
        let bad2 = HevPlan {
            nodes: vec![],
            base_sites,
            targets: vec![],
        };
        assert!(matches!(
            bad2.validate(&scheme),
            Err(PlanError::BadBaseSite(_, 3))
        ));
    }

    #[test]
    fn required_nodes_topological() {
        let (s, scheme) = example7_scheme(false);
        let cfds = example7_cfds(&s);
        let plan = HevPlan::default_chains(&cfds, &scheme);
        for c in 0..cfds.len() as u32 {
            let req = plan.required_nodes(c);
            assert!(req.windows(2).all(|w| w[0] < w[1]));
            let t = plan.target(c).unwrap();
            assert!(req.contains(&t.xb));
        }
        // Constant-free plan: all 4 CFDs need their own xb node.
        assert!(plan.nodes.len() >= 4);
    }
}
