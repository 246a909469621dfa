//! The paper's running example (Fig. 1 rules, Fig. 2 fragments), shared by
//! the in-crate tests of the §6 machine and of both runtimes driving it.

use crate::{DetectError, HorizontalDetector};
use cfd::Cfd;
use cluster::codec::CodecKind;
use cluster::net::TransportKind;
use cluster::partition::HorizontalScheme;
use relation::{Relation, Schema, Tid, Tuple, Value};
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
