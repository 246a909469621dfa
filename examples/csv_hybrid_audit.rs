//! Load a relation from CSV, define CFDs in the text format, and audit it
//! under the *hybrid* layout (§8 future work: data partitioned both
//! horizontally and vertically) — regions split by hash, each region
//! vertically partitioned, violations maintained incrementally.
//!
//! ```sh
//! cargo run --example csv_hybrid_audit [-- path/to/data.csv]
//! ```
//!
//! Without an argument a small built-in employee CSV is used.

use inc_cfd::prelude::*;

const BUILTIN: &str = "\
id,name,grade,street,city,zip,CC,AC
1,Mike,A,Mayfield,NYC,EH4 8LE,44,131
2,Sam,A,Preston,EDI,EH2 4HF,44,131
3,Molina,B,Mayfield,EDI,EH4 8LE,44,131
4,Philip,B,Mayfield,EDI,EH4 8LE,44,131
5,Adam,C,Crichton,EDI,EH4 8LE,44,131
";

fn main() {
    let d = match std::env::args().nth(1) {
        Some(path) => relation::csv::read_file("DATA", &path).expect("readable CSV"),
        None => relation::csv::read_str("EMP", BUILTIN).expect("builtin CSV parses"),
    };
    let schema = d.schema().clone();
    println!("loaded {} tuples: {}", d.len(), schema);

    // CFDs in the text format of `cfd::parse` (Fig. 1's rules when the
    // builtin data is used; adapt for your own CSV).
    let rules_text = "\
([CC=44, zip] -> [street])
([CC=44, AC=131] -> [city=EDI])
";
    let sigma = cfd::parse::parse_cfds(&schema, rules_text).expect("rules parse");
    for c in &sigma {
        println!("rule φ{}: {}", c.id + 1, c.display(&schema));
    }

    // Hybrid layout: 2 hash regions × 2 vertical sub-sites each.
    let scheme = HybridScheme::uniform(schema.clone(), 2, 2).expect("scheme builds");
    println!(
        "layout: {} regions × vertical sub-sites = {} physical sites",
        scheme.n_regions(),
        scheme.n_sites()
    );
    let strategy = Strategy::Hybrid(scheme);
    let suite = Suite::on(schema.clone()).cfds(sigma).strategy(strategy);
    let mut det = suite.build_detector(&d).expect("detector builds");
    println!("initial violations: {:?}", det.violations().tids_sorted());

    // Stream one correction and one insertion.
    let mut delta = UpdateBatch::new();
    // Fix t1's city (clears the constant rule φ2 for t1).
    let t1 = det.current().get(1).expect("t1 loaded").clone();
    let mut vals: Vec<Value> = t1.values.to_vec();
    let city = schema.attr_id("city").expect("city attribute");
    vals[city as usize] = Value::str("EDI");
    delta.delete(1);
    delta.insert(Tuple::new(1, vals));
    let dv = det.apply(&delta).expect("apply");
    println!(
        "after fixing t1.city: ΔV⁻={:?} ΔV⁺={:?}",
        dv.removed_tids_sorted(),
        dv.added_tids_sorted()
    );
    // The normalized NetReport exposes both tiers of the hybrid traffic.
    let net = det.net();
    println!(
        "traffic: inter-region {} B, intra-region assembly {} B ({} B total)",
        net.tier("inter").map_or(0, NetStats::total_bytes),
        net.tier("intra").map_or(0, NetStats::total_bytes),
        net.total_bytes()
    );

    // Verify against the centralized oracle and export the cleaned data.
    let oracle = cfd::naive::detect(det.cfds(), det.current());
    assert_eq!(det.violations().marks_sorted(), oracle.marks_sorted());
    let out = std::env::temp_dir().join("inc_cfd_audited.csv");
    relation::csv::write_file(det.current(), &out).expect("writable temp file");
    println!("exported current state to {}", out.display());
}
