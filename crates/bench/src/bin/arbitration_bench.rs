//! `arbitration_bench` — measures boundary arbitration across shard counts.
//!
//! Per engine and shard count (1, 2, 4, 8) it serves a skewed churn workload
//! on a sharded service and records what the end-of-drain arbitration pass
//! did: raw conflicts found, edges evicted, edges repaired back in, the
//! matched size retained versus the raw per-shard union, the arbitrated size
//! against the same engine's 1-shard matching on the same stream
//! (`vs_one_engine`: the raw union over-counts, so `retained` alone flatters
//! sharding), and the wall-clock cost of the final drain.  Every run ends with
//! the hard audits this layer exists for: zero conflicted vertices after
//! arbitration, a valid + maximal matching on the journal-rebuilt global
//! graph, and matched-size retained at or above 95% of the raw union.
//!
//! Usage:
//!
//! ```text
//! arbitration_bench [--smoke] [--out BENCH_arbitration.json]
//! ```
//!
//! `--smoke` runs a reduced pass over every engine at 1 and 4 shards and
//! exits nonzero on any failed audit (the CI gate); the default full run
//! records `BENCH_arbitration.json` across all engines and shard counts.

use pdmm::prelude::*;
use std::time::Instant;

struct BenchConfig {
    num_vertices: usize,
    initial_edges: usize,
    num_batches: usize,
    batch_size: usize,
    insert_fraction: f64,
    skew: f64,
}

fn engines(
    kind: EngineKind,
    shards: usize,
    num_vertices: usize,
    rank: usize,
    seed: u64,
) -> Vec<Box<dyn MatchingEngine + Send>> {
    let builder = EngineBuilder::new(num_vertices)
        .rank(rank.max(2))
        .seed(seed);
    (0..shards)
        .map(|_| pdmm::engine::build(kind, &builder))
        .collect()
}

struct RunOutcome {
    engine: &'static str,
    shards: usize,
    raw_size: usize,
    arbitrated_size: usize,
    conflicts: usize,
    evicted: usize,
    repaired: usize,
    retained: f64,
    /// Arbitrated size over the same engine's 1-shard size.
    vs_one_engine: f64,
    drain_ms: f64,
    conflicts_after: usize,
    audit_ok: bool,
}

/// Serves the workload, then audits the arbitrated matching against the
/// journal-rebuilt global graph.
fn run(kind: EngineKind, shards: usize, config: &BenchConfig) -> RunOutcome {
    const SEED: u64 = 17;
    let workload = pdmm::hypergraph::streams::skewed_churn(
        config.num_vertices,
        2,
        config.initial_edges,
        config.num_batches,
        config.batch_size,
        config.insert_fraction,
        config.skew,
        SEED,
    );
    let service = ShardedService::new(engines(
        kind,
        shards,
        workload.num_vertices,
        workload.rank,
        SEED,
    ));

    // Accumulate what arbitration did across the whole serve, and time the
    // last drain (the one whose arbitration output the snapshot publishes).
    let mut conflicts = 0usize;
    let mut evicted = 0usize;
    let mut repaired = 0usize;
    let mut drain_ms = 0.0;
    for chunk in workload.batches.chunks(32) {
        for batch in chunk {
            service.submit(batch.clone());
        }
        let start = Instant::now();
        let report = service.drain().expect("generated workload drains");
        drain_ms = start.elapsed().as_secs_f64() * 1_000.0;
        conflicts += report.arbitration.stats.conflicted_vertices;
        evicted += report.arbitration.stats.evicted_edges;
        repaired += report.arbitration.stats.repaired_edges;
    }

    let snapshot = service.snapshot();
    let arbitrated = snapshot.arbitrated_matching();
    let report = arbitrated.report();

    // Hard audits: empty post-arbitration conflict set, and validity +
    // maximality on the global graph rebuilt from every shard's journal.
    let conflicts_after = arbitrated.conflicted_vertices().len();
    let mut graph = pdmm::hypergraph::graph::DynamicHypergraph::new(workload.num_vertices);
    for k in 0..service.num_shards() {
        for batch in pdmm::hypergraph::io::batches_from_string(&service.shard_journal(k))
            .expect("own journal parses")
        {
            graph.apply_batch(&batch);
        }
    }
    let audit_ok = verify_maximality(&graph, &arbitrated.edge_ids()).is_ok();

    RunOutcome {
        engine: kind.name(),
        shards,
        raw_size: report.pre_size,
        arbitrated_size: report.post_size,
        conflicts,
        evicted,
        repaired,
        retained: report.retained(),
        vs_one_engine: 1.0,
        drain_ms,
        conflicts_after,
        audit_ok,
    }
}

fn print_outcome(outcome: &RunOutcome) {
    println!(
        "{:<20} shards={} | raw {} -> arbitrated {} (retained {:.3}, \
         vs 1 engine {:.3}) | conflicts {} evicted {} repaired {} | last drain {:.2} ms | \
         after-arbitration conflicts={} audit={}",
        outcome.engine,
        outcome.shards,
        outcome.raw_size,
        outcome.arbitrated_size,
        outcome.retained,
        outcome.vs_one_engine,
        outcome.conflicts,
        outcome.evicted,
        outcome.repaired,
        outcome.drain_ms,
        outcome.conflicts_after,
        if outcome.audit_ok { "ok" } else { "FAIL" },
    );
}

fn outcome_json(outcome: &RunOutcome) -> String {
    format!(
        concat!(
            "    {{\"engine\": \"{}\", \"shards\": {}, \"raw_size\": {}, ",
            "\"arbitrated_size\": {}, \"retained\": {:.4}, \"vs_one_engine\": {:.4}, ",
            "\"conflicts\": {}, ",
            "\"evicted\": {}, \"repaired\": {}, \"last_drain_ms\": {:.3}, ",
            "\"conflicts_after_arbitration\": {}, \"audit_ok\": {}}}"
        ),
        outcome.engine,
        outcome.shards,
        outcome.raw_size,
        outcome.arbitrated_size,
        outcome.retained,
        outcome.vs_one_engine,
        outcome.conflicts,
        outcome.evicted,
        outcome.repaired,
        outcome.drain_ms,
        outcome.conflicts_after,
        outcome.audit_ok,
    )
}

/// The gates the driver enforces: conflicts-after-arbitration must be zero,
/// the global audit must pass, and the arbitrated matching must retain at
/// least 95% of the raw union's matched size.
fn gate_failures(outcome: &RunOutcome) -> Vec<String> {
    let mut failures = Vec::new();
    let tag = format!("{} shards={}", outcome.engine, outcome.shards);
    if outcome.conflicts_after != 0 {
        failures.push(format!(
            "{tag}: {} conflicted vertices survived arbitration",
            outcome.conflicts_after
        ));
    }
    if !outcome.audit_ok {
        failures.push(format!("{tag}: arbitrated matching fails the global audit"));
    }
    if outcome.retained < 0.95 {
        failures.push(format!(
            "{tag}: retained {:.4} below the 0.95 floor",
            outcome.retained
        ));
    }
    failures
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or_else(|| "BENCH_arbitration.json".to_string(), Clone::clone);

    // Edge density is deliberately sparse relative to the vertex space: the
    // retained-size gate measures how much matching arbitration gives back
    // under a realistic conflict rate, not under an adversarially dense
    // boundary where the raw union over-counts wildly.
    let config = if smoke {
        BenchConfig {
            num_vertices: 8_192,
            initial_edges: 300,
            num_batches: 24,
            batch_size: 24,
            insert_fraction: 0.55,
            skew: 2.0,
        }
    } else {
        BenchConfig {
            num_vertices: 65_536,
            initial_edges: 2_400,
            num_batches: 120,
            batch_size: 64,
            insert_fraction: 0.55,
            skew: 2.0,
        }
    };
    let shard_counts: &[usize] = if smoke { &[1, 4] } else { &[1, 2, 4, 8] };

    let mut outcomes = Vec::new();
    for kind in EngineKind::ALL {
        // Both shard lists start at 1: that run is the engine's baseline.
        let mut one_engine_size = None;
        for &shards in shard_counts {
            let mut outcome = run(kind, shards, &config);
            let base = *one_engine_size.get_or_insert(outcome.arbitrated_size);
            if base > 0 {
                outcome.vs_one_engine = outcome.arbitrated_size as f64 / base as f64;
            }
            print_outcome(&outcome);
            outcomes.push(outcome);
        }
    }

    let failures: Vec<String> = outcomes.iter().flat_map(gate_failures).collect();

    if !smoke {
        let unix_time = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        let runs: Vec<String> = outcomes.iter().map(outcome_json).collect();
        let json = format!(
            concat!(
                "{{\n",
                "  \"benchmark\": \"arbitration_bench\",\n",
                "  \"unix_time\": {},\n",
                "  \"gates\": {{\"conflicts_after_arbitration\": 0, \"retained_floor\": 0.95}},\n",
                "  \"config\": {{\"num_vertices\": {}, \"initial_edges\": {}, ",
                "\"num_batches\": {}, \"batch_size\": {}, \"insert_fraction\": {:.2}, ",
                "\"skew\": {:.1}}},\n",
                "  \"runs\": [\n{}\n  ]\n}}\n"
            ),
            unix_time,
            config.num_vertices,
            config.initial_edges,
            config.num_batches,
            config.batch_size,
            config.insert_fraction,
            config.skew,
            runs.join(",\n"),
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
