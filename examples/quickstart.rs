//! Quickstart: detect CFD violations incrementally on the paper's running
//! example (Fig. 1 / Fig. 2).
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use inc_cfd::prelude::*;

fn main() {
    // The EMP relation D₀ of Fig. 2 (tuples t1–t5) and the CFDs of Fig. 1:
    //   φ1: ([CC=44, zip] → [street])        — a variable CFD
    //   φ2: ([CC=44, AC=131] → [city=EDI])   — a constant CFD
    let (schema, d0) = workload::emp::emp_relation();
    let sigma = workload::emp::emp_cfds(&schema);
    for cfd in &sigma {
        println!("φ{}: {}", cfd.id + 1, cfd.display(&schema));
    }

    // Partition horizontally by salary grade (A / B / C) across 3 sites
    // and build the incremental detector session.
    let strategy = Strategy::Horizontal(workload::emp::emp_horizontal_scheme(&schema));
    let suite = Suite::on(schema).cfds(sigma).strategy(strategy);
    let mut det = suite.build_detector(&d0).expect("detector builds");

    // V(Σ, D₀) — the violation table of Fig. 1.
    println!("\ninitial violations: {:?}", det.violations().tids_sorted());
    assert_eq!(det.violations().tids_sorted(), vec![1, 3, 4, 5]);

    // Insert t6 (Example 2): only t6 becomes a new violation, and the
    // detector ships zero bytes to find that out.
    let mut delta = UpdateBatch::new();
    delta.insert(workload::emp::t6());
    let dv = det.apply(&delta).expect("apply succeeds");
    println!(
        "after inserting t6: ΔV⁺ = {:?}, bytes shipped = {}",
        dv.added_tids_sorted(),
        det.net().total_bytes()
    );
    assert_eq!(dv.added_tids_sorted(), vec![6]);
    assert_eq!(det.net().total_bytes(), 0);

    // Delete t4 (Example 2 continued): only t4 leaves the violation set.
    let mut delta = UpdateBatch::new();
    delta.delete(4);
    let dv = det.apply(&delta).expect("apply succeeds");
    println!(
        "after deleting t4:  ΔV⁻ = {:?}, total bytes shipped = {}",
        dv.removed_tids_sorted(),
        det.net().total_bytes()
    );
    assert_eq!(dv.removed_tids_sorted(), vec![4]);

    println!("\nfinal violations: {:?}", det.violations().tids_sorted());
}
