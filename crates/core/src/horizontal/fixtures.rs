//! The paper's running example (Fig. 1 rules, Fig. 2 fragments), shared by
//! the in-crate tests of the §6 machine and of both runtimes driving it,
//! and the TPCH instance both builds are held to their replays over.

use crate::{DetectError, HorizontalDetector};
use cfd::{Cfd, SharedPlan};
use cluster::codec::CodecKind;
use cluster::net::TransportKind;
use cluster::partition::HorizontalScheme;
use relation::{AttrId, Relation, Schema, Tid, Tuple, UpdateBatch, Value};
use std::sync::Arc;

pub(crate) fn emp_schema() -> Arc<Schema> {
    Schema::new(
        "EMP",
        &["id", "grade", "CC", "AC", "zip", "street", "city"],
        "id",
    )
    .unwrap()
}

pub(crate) fn emp_tuple(
    tid: Tid,
    grade: &str,
    cc: i64,
    ac: i64,
    zip: &str,
    street: &str,
    city: &str,
) -> Tuple {
    Tuple::new(
        tid,
        vec![
            Value::int(tid as i64),
            Value::str(grade),
            Value::int(cc),
            Value::int(ac),
            Value::str(zip),
            Value::str(street),
            Value::str(city),
        ],
    )
}

pub(crate) fn d0() -> Relation {
    let mut d = Relation::new(emp_schema());
    for t in [
        emp_tuple(1, "A", 44, 131, "EH4 8LE", "Mayfield", "NYC"),
        emp_tuple(2, "A", 44, 131, "EH2 4HF", "Preston", "EDI"),
        emp_tuple(3, "B", 44, 131, "EH4 8LE", "Mayfield", "EDI"),
        emp_tuple(4, "B", 44, 131, "EH4 8LE", "Mayfield", "EDI"),
        emp_tuple(5, "C", 44, 131, "EH4 8LE", "Crichton", "EDI"),
    ] {
        d.insert(t).unwrap();
    }
    d
}

pub(crate) fn fig1_cfds(s: &Schema) -> Vec<Cfd> {
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

/// Fig. 2: grade A / B / C fragments.
pub(crate) fn fig2_scheme(s: &Arc<Schema>) -> HorizontalScheme {
    HorizontalScheme::by_values(
        s.clone(),
        s.attr_id("grade").unwrap(),
        vec![
            vec![Value::str("A")],
            vec![Value::str("B")],
            vec![Value::str("C")],
        ],
    )
    .unwrap()
}

/// `incHor` over `d` on the simulated network, under the scheme's schema.
pub(crate) fn simulated(
    cfds: Vec<Cfd>,
    scheme: HorizontalScheme,
    d: &Relation,
    codec: CodecKind,
) -> Result<HorizontalDetector, DetectError> {
    let schema = scheme.schema().clone();
    HorizontalDetector::new(schema, cfds, scheme, d, codec, TransportKind::Simulated)
}

/// `d` as a caller's store may hold it after a history: every seventh
/// row deleted, which leaves free rows and free dictionary slots, and
/// `far`'s values under a tid past the dense window, in `TidMap`'s
/// overflow tree.
pub(crate) fn with_history(d: &Relation, far: &Tuple) -> Relation {
    let mut d = d.clone();
    let gone: Vec<Tid> = d.tids().step_by(7).collect();
    for tid in gone {
        d.delete_quiet(tid).unwrap();
    }
    d.insert(Tuple::new(1 << 40, far.values.to_vec())).unwrap();
    d
}

/// A seeded stream over `d0`: mixed batches, modifications that
/// rewrite `rhs`, and single updates.
pub(crate) fn stream(d0: &Relation, fresh: &[Tuple], rhs: AttrId) -> Vec<UpdateBatch> {
    use workload::updates::{self, UpdateMix};
    let mut mirror = d0.clone();
    let mut batches = Vec::new();
    let mut push = |batch: UpdateBatch, mirror: &mut Relation| {
        batch.normalize(mirror).apply(mirror).unwrap();
        batches.push(batch);
    };
    let mix = |insert_fraction| UpdateMix { insert_fraction };
    push(
        updates::generate(&mirror, &fresh[..30], 50, mix(0.6), 1),
        &mut mirror,
    );
    let corrupt = |t: &Tuple, rng: &mut _| updates::corrupt_attr(t, rhs, rng);
    push(
        updates::generate_modifications(&mirror, 30, 2, corrupt),
        &mut mirror,
    );
    let b = updates::generate(&mirror, &fresh[30..40], 20, mix(0.5), 3);
    for op in b.ops() {
        push(UpdateBatch::from_ops(vec![op.clone()]), &mut mirror);
    }
    batches
}

/// A named rule set and the fragments it runs over.
pub(crate) type Catalog = (&'static str, Vec<Cfd>, HorizontalScheme);

/// The build tests' TPCH instance: a 600-row `D₀` with history
/// ([`with_history`]), the stream's 40 fresh tuples after it, and two
/// catalogs over it — TPCH's 8 rules on 4 key-hashed sites, and a 96-rule
/// mined family at high overlap (spilled classes, groups held at several
/// sites) on 3 sites hashed by an attribute some operators' `X` holds and
/// others' does not, so that operators local to a site and cross-site ones
/// sit side by side.
pub(crate) fn build_catalogs() -> (Relation, Vec<Tuple>, [Catalog; 2]) {
    use workload::family::{cfd_family, FamilyConfig};
    use workload::{rules, tpch};
    let tcfg = tpch::TpchConfig {
        n_rows: 600,
        n_customers: 60,
        n_parts: 40,
        n_suppliers: 12,
        error_rate: 0.1,
        seed: 42,
    };
    let (s, d0) = tpch::generate(&tcfg);
    let fresh = tpch::generate_fresh(&tcfg, 1_000_000, 41, 7);
    let d0 = with_history(&d0, &fresh[40]);
    let family = FamilyConfig {
        n: 96,
        overlap: 0.95,
        seed: 0xCFD,
        ..FamilyConfig::default()
    };
    let family = cfd_family(&s, &d0, &family);
    let plan = SharedPlan::new(&family);
    let lists: Vec<&[AttrId]> = plan.key_groups().iter().map(|(x, _)| &x[..]).collect();
    let on = *lists
        .iter()
        .flat_map(|x| x.iter())
        .find(|a| lists.iter().any(|x| !x.contains(a)))
        .expect("an attribute on some key lists only");
    let by_on = HorizontalScheme::by_hash(s.clone(), on, 3).unwrap();
    let local = plan
        .operators()
        .iter()
        .filter(|(g, ..)| plan.key_groups()[*g].0.contains(&on))
        .count();
    assert!(local > 0 && local < plan.operators().len());
    let catalogs = [
        (
            "TPCH 8 rules",
            rules::tpch_rules(&s, 8, 0xCFD),
            tpch::horizontal_scheme(&s, 4),
        ),
        ("96-rule family", family, by_on),
    ];
    (d0, fresh, catalogs)
}
