//! `hot_path` — measures the single-validation serve path and what per-commit
//! snapshot publishing costs.
//!
//! Two questions, answered with the [`validation_checks`] counter hook and
//! wall-clock timing:
//!
//! 1. **Validations per update.**  The serve path mints one `ValidatedBatch`
//!    proof per batch in the drain and discharges it on the trusted kernel
//!    path, so its counter delta must be exactly one check per update.
//! 2. **Publish cost.**  A publish folds the engine's matching delta into
//!    the previous snapshot: it copies the flat id and endpoint arrays and
//!    the vertex map and scans no edge table, so it costs O(M + delta) for a
//!    matching of `M` edges, not O(|E|).  The gate: `with_snapshot_every(1)`
//!    (a fresh snapshot after *every* commit) must cost within 2× of
//!    `with_snapshot_every(1000)` (publish effectively only at drain exit)
//!    per update, at this run's 2k live edges.
//!
//! Usage:
//!
//! ```text
//! hot_path [--smoke] [--out BENCH_hotpath.json]
//! ```
//!
//! `--smoke` runs a small pass and exits nonzero when the serve path performs
//! more than one check per update or per-commit publishing is not within the
//! cost gate (the CI gate); the default full run records `BENCH_hotpath.json`.
//!
//! [`validation_checks`]: pdmm::engine::validation_checks

use pdmm::engine::{self, validation_checks};
use pdmm::prelude::*;
use std::time::Instant;

struct BenchConfig {
    num_vertices: usize,
    initial_edges: usize,
    num_batches: usize,
    batch_size: usize,
    insert_fraction: f64,
    /// Gate on `ns_per_update(every=1) / ns_per_update(every=1000)`.
    max_publish_ratio: f64,
}

fn workload(config: &BenchConfig) -> Workload {
    pdmm::hypergraph::streams::random_churn(
        config.num_vertices,
        3,
        config.initial_edges,
        config.num_batches,
        config.batch_size,
        config.insert_fraction,
        11,
    )
}

fn engine(config: &BenchConfig) -> Box<dyn MatchingEngine + Send> {
    let builder = EngineBuilder::new(config.num_vertices).rank(3).seed(7);
    engine::build(EngineKind::Parallel, &builder)
}

/// Counter delta per update for the serve path: pre-sealed batches through
/// `submit` + `drain` — the drain's minted proof is the only check.
fn serve_checks_per_update(config: &BenchConfig) -> f64 {
    let workload = workload(config);
    let service = EngineService::new(engine(config));
    let before = validation_checks();
    serve(&service, &workload);
    let delta = validation_checks() - before;
    delta as f64 / workload.total_updates() as f64
}

/// Submits and drains in chunks comfortably under the bounded queue capacity.
fn serve(service: &EngineService, workload: &Workload) {
    for chunk in workload.batches.chunks(32) {
        for batch in chunk {
            service.submit(batch.clone());
        }
        service.drain().expect("valid batches drain");
    }
}

/// Serve-path nanoseconds per update at a given snapshot cadence.
fn ns_per_update_at(config: &BenchConfig, every: u64) -> f64 {
    let workload = workload(config);
    let service = EngineService::new(engine(config)).with_snapshot_every(every);
    let start = Instant::now();
    serve(&service, &workload);
    let elapsed = start.elapsed().as_nanos() as f64;
    assert_eq!(
        service.snapshot().committed_batches(),
        workload.batches.len() as u64,
        "every batch must commit"
    );
    elapsed / workload.total_updates() as f64
}

struct Outcome {
    serve_checks: f64,
    ns_every_1: f64,
    ns_every_1000: f64,
    publish_ratio: f64,
}

fn run(config: &BenchConfig) -> Outcome {
    let serve_checks = serve_checks_per_update(config);
    // Warm once (allocator, page faults), then measure each cadence.
    let _ = ns_per_update_at(config, 1_000);
    let ns_every_1000 = ns_per_update_at(config, 1_000);
    let ns_every_1 = ns_per_update_at(config, 1);
    Outcome {
        serve_checks,
        ns_every_1,
        ns_every_1000,
        publish_ratio: ns_every_1 / ns_every_1000,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or_else(|| "BENCH_hotpath.json".to_string(), Clone::clone);

    let config = if smoke {
        BenchConfig {
            num_vertices: 1_000,
            initial_edges: 200,
            num_batches: 80,
            batch_size: 32,
            insert_fraction: 0.6,
            // Wider gate under smoke: tiny workloads on a noisy CI box make
            // the timing ratio jittery; the full run enforces the real 2×.
            max_publish_ratio: 4.0,
        }
    } else {
        BenchConfig {
            num_vertices: 10_000,
            initial_edges: 2_000,
            num_batches: 400,
            batch_size: 64,
            insert_fraction: 0.6,
            max_publish_ratio: 2.0,
        }
    };

    let outcome = run(&config);
    println!("validations/update: serve {:.2}", outcome.serve_checks);
    println!(
        "serve ns/update: every(1) {:.0} vs every(1000) {:.0} (ratio {:.3}, gate {:.1})",
        outcome.ns_every_1, outcome.ns_every_1000, outcome.publish_ratio, config.max_publish_ratio
    );

    let mut failures: Vec<String> = Vec::new();
    if (outcome.serve_checks - 1.0).abs() > f64::EPSILON {
        failures.push(format!(
            "serve path must validate exactly once per update, measured {:.3}",
            outcome.serve_checks
        ));
    }
    if outcome.publish_ratio > config.max_publish_ratio {
        failures.push(format!(
            "per-commit publish ratio {:.3} exceeds the {:.1}x gate",
            outcome.publish_ratio, config.max_publish_ratio
        ));
    }

    if !smoke {
        let unix_time = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        let json = format!(
            concat!(
                "{{\n",
                "  \"benchmark\": \"hot_path\",\n",
                "  \"unix_time\": {},\n",
                "  \"config\": {{\"num_vertices\": {}, \"initial_edges\": {}, ",
                "\"num_batches\": {}, \"batch_size\": {}, \"insert_fraction\": {:.2}, ",
                "\"engine\": \"parallel\"}},\n",
                "  \"validations_per_update\": {:.3},\n",
                "  \"serve_ns_per_update\": {{\"snapshot_every_1\": {:.1}, ",
                "\"snapshot_every_1000\": {:.1}, \"ratio\": {:.4}, \"gate\": {:.1}}}\n",
                "}}\n"
            ),
            unix_time,
            config.num_vertices,
            config.initial_edges,
            config.num_batches,
            config.batch_size,
            config.insert_fraction,
            outcome.serve_checks,
            outcome.ns_every_1,
            outcome.ns_every_1000,
            outcome.publish_ratio,
            config.max_publish_ratio,
        );
        std::fs::write(&out, json).expect("write benchmark artifact");
        println!("wrote {out}");
    }

    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("FAIL: {failure}");
        }
        std::process::exit(1);
    }
    println!("all gates passed");
}
