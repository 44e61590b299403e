//! Experiment driver: prints the table of every experiment (README,
//! "Benchmarks and experiments").
//!
//! ```bash
//! # Run the full suite at full sizes:
//! cargo run --release -p pdmm-bench --bin experiments
//!
//! # Run a subset, or the reduced "quick" sizes:
//! cargo run --release -p pdmm-bench --bin experiments -- e2 e3
//! cargo run --release -p pdmm-bench --bin experiments -- --quick
//! ```

use pdmm_bench::{run_by_id, Scale, ALL_EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick" || a == "-q");
    let scale = if quick { Scale::Quick } else { Scale::Full };
    let requested: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with('-'))
        .map(|a| a.to_lowercase())
        .collect();
    let ids: Vec<&str> = if requested.is_empty() {
        ALL_EXPERIMENTS.to_vec()
    } else {
        requested.iter().map(String::as_str).collect()
    };

    println!(
        "pdmm experiment suite ({} scale), experiments: {}\n",
        if quick { "quick" } else { "full" },
        ids.join(", ")
    );
    let started = std::time::Instant::now();
    for id in ids {
        match run_by_id(id, scale) {
            Some(_) => {}
            None => {
                eprintln!(
                    "unknown experiment id: {id} (known: {})",
                    ALL_EXPERIMENTS.join(", ")
                );
                std::process::exit(2);
            }
        }
    }
    println!("total experiment time: {:.1?}", started.elapsed());
}
