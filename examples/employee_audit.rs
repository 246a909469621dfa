//! A guided walk through the paper's §1–§6 examples on the EMP relation,
//! in *both* partition layouts, with shipment accounting printed at every
//! step — every detector driven through the unified `Detector` trait.
//!
//! ```sh
//! cargo run --example employee_audit
//! ```

use inc_cfd::prelude::*;
use incdetect::optimize::{optimize, OptimizeConfig};
use incdetect::HevPlan;

fn main() {
    let (schema, d0) = workload::emp::emp_relation();
    let sigma = workload::emp::emp_cfds(&schema);

    println!("=== EMP relation (Fig. 2), {} tuples ===", d0.len());
    for t in d0.iter() {
        println!("  {t}");
    }
    println!("\n=== CFDs (Fig. 1) ===");
    for cfd in &sigma {
        println!(
            "  φ{}: {}  [{}]",
            cfd.id + 1,
            cfd.display(&schema),
            if cfd.is_constant() {
                "constant"
            } else {
                "variable"
            }
        );
    }

    // ------------------------------------------------------------------
    // Vertical partitions (§4): DV1 / DV2 / DV3 of Fig. 2.
    // ------------------------------------------------------------------
    println!("\n=== Vertical partitions (§4) ===");
    let vscheme = workload::emp::emp_vertical_scheme(&schema);
    for s in 0..vscheme.n_sites() {
        println!("  site S{}: {}", s + 1, vscheme.fragment_schema(s));
    }
    let default_plan = HevPlan::default_chains(&sigma, &vscheme);
    let opt_plan = optimize(&sigma, &vscheme, OptimizeConfig::default());
    println!(
        "  HEV plan: default ships {} eqids per unit update, optVer ships {}",
        default_plan.neqid(),
        opt_plan.neqid()
    );

    let mut vdet =
        VerticalDetector::with_plan(schema.clone(), sigma.clone(), vscheme, opt_plan, &d0)
            .expect("vertical detector builds");
    println!(
        "  V(Σ, D₀) = {:?}  (Fig. 1: t1,t3,t4,t5 for φ1; t1 for φ2)",
        vdet.violations().tids_sorted()
    );

    // Example 2(1) + Example 6: insert t6 — one new violation, O(1) eqids.
    let mut delta = UpdateBatch::new();
    delta.insert(workload::emp::t6());
    let dv = vdet.apply(&delta).expect("apply");
    println!(
        "  insert t6 → ΔV⁺={:?}, eqids shipped={}, bytes={}",
        dv.added_tids_sorted(),
        vdet.net().total_eqids(),
        vdet.net().total_bytes()
    );

    // Example 2(2): delete t4 — only t4 leaves V.
    vdet.reset_stats();
    let mut delta = UpdateBatch::new();
    delta.delete(4);
    let dv = vdet.apply(&delta).expect("apply");
    println!(
        "  delete t4 → ΔV⁻={:?}, eqids shipped={}",
        dv.removed_tids_sorted(),
        vdet.net().total_eqids()
    );

    // ------------------------------------------------------------------
    // Horizontal partitions (§6): grade A / B / C fragments.
    // ------------------------------------------------------------------
    println!("\n=== Horizontal partitions (§6) ===");
    let hscheme = workload::emp::emp_horizontal_scheme(&schema);
    let mut hdet = Suite::on(schema.clone())
        .cfds(sigma.clone())
        .strategy(Strategy::Horizontal(hscheme))
        .build_detector(&d0)
        .expect("horizontal detector builds");
    println!("  V(Σ, D₀) = {:?}", hdet.violations().tids_sorted());

    // Example 9: t6 lands on the grade-C site next to the known violation
    // t5 → ΔV⁺ = {t6} with zero data shipment.
    let mut delta = UpdateBatch::new();
    delta.insert(workload::emp::t6());
    let dv = hdet.apply(&delta).expect("apply");
    println!(
        "  insert t6 → ΔV⁺={:?}, bytes shipped={} (Example 9: zero)",
        dv.added_tids_sorted(),
        hdet.net().total_bytes()
    );

    // A cross-site conflict: a grade-A tuple clashing with a grade-B tuple
    // on a brand-new zip group forces one broadcast round.
    hdet.reset_stats();
    let mut delta = UpdateBatch::new();
    delta.insert(Tuple::new(
        20,
        vec![
            Value::int(20),
            Value::str("Nina"),
            Value::str("F"),
            Value::str("A"),
            Value::str("Lauriston"),
            Value::str("EDI"),
            Value::str("EH3 9AA"),
            Value::int(44),
            Value::int(131),
            Value::str("5550001"),
            Value::str("70k"),
            Value::str("01/02/2020"),
        ],
    ));
    delta.insert(Tuple::new(
        21,
        vec![
            Value::int(21),
            Value::str("Olaf"),
            Value::str("M"),
            Value::str("B"),
            Value::str("Marchmont"), // different street, same CC+zip → φ1
            Value::str("EDI"),
            Value::str("EH3 9AA"),
            Value::int(44),
            Value::int(131),
            Value::str("5550002"),
            Value::str("82k"),
            Value::str("01/03/2020"),
        ],
    ));
    let dv = hdet.apply(&delta).expect("apply");
    println!(
        "  insert t20,t21 (cross-site clash) → ΔV⁺={:?}, messages={}, bytes={}",
        dv.added_tids_sorted(),
        hdet.net().total_messages(),
        hdet.net().total_bytes()
    );

    // Ground truth check at the end, uniformly through the trait.
    for det in [&vdet as &dyn Detector, hdet.as_ref()] {
        let oracle = cfd::naive::detect(det.cfds(), det.current());
        assert_eq!(det.violations().marks_sorted(), oracle.marks_sorted());
    }
    println!("\nall detector states verified against the centralized oracle ✓");
}
