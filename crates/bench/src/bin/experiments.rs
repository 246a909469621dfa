//! Experiment driver reproducing the paper's evaluation section (§7).
//!
//! ```text
//! experiments [--scale S] [exp1|exp2|exp2-dblp|exp3|exp3-dblp|exp4|exp5|
//!              exp6|exp7|exp8|exp9|exp10|exp-small|exp-speedup|all]
//! ```
//!
//! Default scale 1.0 ≈ 10k-tuple TPCH (seconds on a laptop); the paper's
//! EC2 runs correspond to roughly `--scale 100` upwards.

use bench::{
    all_experiments, exp1, exp10, exp2, exp2_dblp, exp3, exp3_dblp, exp4, exp5, exp6, exp7, exp8,
    exp9, exp_small_updates, exp_speedup, Scale, Table,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::default();
    let mut which: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v = it
                    .next()
                    .and_then(|s| s.parse::<f64>().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--scale needs a float argument");
                        std::process::exit(2);
                    });
                scale = Scale(v);
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: experiments [--scale S] \
                     [exp1..exp10|exp2-dblp|exp3-dblp|exp-small|exp-speedup|all]"
                );
                return;
            }
            other => which.push(other.to_string()),
        }
    }
    if which.is_empty() {
        which.push("all".to_string());
    }

    let run = |name: &str| -> Option<Table> {
        match name {
            "exp1" => Some(exp1(scale)),
            "exp2" => Some(exp2(scale)),
            "exp2-dblp" => Some(exp2_dblp(scale)),
            "exp3" => Some(exp3(scale)),
            "exp3-dblp" => Some(exp3_dblp(scale)),
            "exp4" => Some(exp4(scale)),
            "exp5" => Some(exp5(scale)),
            "exp6" => Some(exp6(scale)),
            "exp7" => Some(exp7(scale)),
            "exp8" => Some(exp8(scale)),
            "exp9" => Some(exp9(scale)),
            "exp10" => Some(exp10(scale)),
            "exp-small" => Some(exp_small_updates(scale)),
            "exp-speedup" => Some(exp_speedup(scale)),
            _ => None,
        }
    };

    for name in which {
        if name == "all" {
            for t in all_experiments(scale) {
                println!("{}", t.render());
            }
        } else {
            match run(&name) {
                Some(t) => println!("{}", t.render()),
                None => {
                    eprintln!("unknown experiment `{name}` (try --help)");
                    std::process::exit(2);
                }
            }
        }
    }
}
