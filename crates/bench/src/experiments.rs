//! The experiment suite (E1–E10, one per claim of the paper, plus the
//! serve-path E11 and the shard-scaling E12).
//!
//! The paper is a theory paper — it has no empirical tables of its own — so each
//! experiment here turns one of its stated claims into a measured series (README,
//! "Benchmarks and experiments", says how to run them).  Every experiment is a pure function of its parameters and a
//! seed, prints an aligned table, and also returns it as a string so the binary can
//! collect them.
//!
//! Cross-engine experiments (E4, E5) construct their engines through
//! [`pdmm::engine::build`] and run them through the single engine-agnostic
//! [`run_workload`] path; experiments that report parallel-algorithm internals
//! (levels, epochs, settle counters — E6, E7, E8, E10) construct the concrete
//! [`ParallelDynamicMatching`] but still execute through the same runner.

use crate::runner::{run_kind, run_workload, RunStats};
use crate::table::{f, Table};
use pdmm::engine::{EngineBuilder, EngineKind, MatchingEngine};
use pdmm_core::{Config, ParallelDynamicMatching};
use pdmm_hypergraph::generators;
use pdmm_hypergraph::graph::DynamicHypergraph;
use pdmm_hypergraph::matching::greedy_maximal_matching;
use pdmm_hypergraph::streams::{self, Workload};
use pdmm_primitives::cost_model::CostTracker;
use pdmm_primitives::random::RandomSource;
use pdmm_static::luby::luby_maximal_matching;
use std::time::Instant;

/// Scale factor: `quick` runs (used by CI and the smoke tests) divide the problem
/// sizes by roughly an order of magnitude.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small sizes, a few seconds in total.
    Quick,
    /// The full sizes, the `experiments` binary's default.
    Full,
}

impl Scale {
    fn div(self, full: usize, quick: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Quick => quick,
        }
    }
}

/// Runs a workload through a concrete engine (for experiments that introspect
/// engine-specific state afterwards); the execution path is the shared runner.
fn run_engine<E: MatchingEngine>(workload: &Workload, mut engine: E) -> (E, RunStats) {
    let stats = run_workload(workload, &mut engine).expect("generated workloads are valid");
    (engine, stats)
}

/// A sub-range of a workload's batches, as its own workload.
fn slice_workload(w: &Workload, range: std::ops::Range<usize>) -> Workload {
    Workload {
        num_vertices: w.num_vertices,
        rank: w.rank,
        batches: w.batches[range].to_vec(),
        name: w.name.clone(),
    }
}

/// E1 — Theorem 2.2: the static parallel matcher finishes in `O(log M)` rounds with
/// `O(M·r·log M)` work.
#[must_use]
pub fn e1_static_matching(scale: Scale) -> String {
    let mut table = Table::new(
        "E1  static parallel maximal matching (Theorem 2.2)",
        &["m", "r", "rounds", "log2(m)", "work", "work/(m*r)", "ms"],
    );
    let sizes = match scale {
        Scale::Full => vec![1_000usize, 10_000, 100_000, 400_000],
        Scale::Quick => vec![1_000, 10_000],
    };
    for &m in &sizes {
        for &r in &[2usize, 4] {
            let n = (m / 4).max(2 * r);
            let edges = if r == 2 {
                generators::gnm_graph(n, m, 11, 0)
            } else {
                generators::random_hypergraph(n, m, r, 11, 0)
            };
            let cost = CostTracker::new();
            let mut rng = RandomSource::from_seed(5);
            let t0 = Instant::now();
            let result = luby_maximal_matching(&edges, &mut rng, Some(&cost));
            let elapsed = t0.elapsed();
            let m_actual = edges.len();
            table.row(vec![
                m_actual.to_string(),
                r.to_string(),
                result.iterations.to_string(),
                f((m_actual as f64).log2(), 1),
                cost.total_work().to_string(),
                f(cost.total_work() as f64 / (m_actual * r) as f64, 2),
                f(elapsed.as_secs_f64() * 1e3, 1),
            ]);
        }
    }
    finish(table)
}

/// E2 — Theorem 4.4: the depth of processing a batch stays polylogarithmic,
/// essentially independent of the batch size.
#[must_use]
pub fn e2_batch_depth(scale: Scale) -> String {
    let mut table = Table::new(
        "E2  depth per batch vs batch size (Theorem 4.4)",
        &[
            "batch",
            "batches",
            "mean depth",
            "max depth",
            "depth/update",
            "ms/batch",
        ],
    );
    let n = scale.div(1 << 15, 1 << 12);
    let m = 4 * n;
    let edges = generators::gnm_graph(n, m, 21, 0);
    for &batch in &[1usize, 16, 256, 4_096, 65_536] {
        if batch > 2 * m {
            continue;
        }
        let w = streams::insert_then_teardown(n, edges.clone(), batch, 3);
        let (_, stats) = run_kind(&w, EngineKind::Parallel, &EngineBuilder::new(n).seed(8));
        table.row(vec![
            batch.to_string(),
            stats.batches.to_string(),
            f(stats.mean_batch_depth, 1),
            stats.max_batch_depth.to_string(),
            f(stats.depth as f64 / stats.updates as f64, 3),
            f(stats.wall.as_secs_f64() * 1e3 / stats.batches as f64, 2),
        ]);
    }
    finish(table)
}

/// E3 — Theorem 4.16: amortized work per update stays polylogarithmic as the graph
/// grows.
#[must_use]
pub fn e3_amortized_work(scale: Scale) -> String {
    let mut table = Table::new(
        "E3  amortized work per update vs n (Theorem 4.16)",
        &[
            "n",
            "updates",
            "work/update",
            "work/update/log^2(n)",
            "us/update",
            "rebuilds",
        ],
    );
    let ns = match scale {
        Scale::Full => vec![1usize << 11, 1 << 13, 1 << 15, 1 << 17],
        Scale::Quick => vec![1 << 10, 1 << 12],
    };
    for &n in &ns {
        let w = streams::random_churn(n, 2, 2 * n, 20, n / 4, 0.5, 17);
        let builder = EngineBuilder::new(n).seed(23);
        let (_, stats) = run_kind(&w, EngineKind::Parallel, &builder);
        let log_n = (n as f64).log2();
        table.row(vec![
            n.to_string(),
            stats.updates.to_string(),
            f(stats.work_per_update(), 1),
            f(stats.work_per_update() / (log_n * log_n), 3),
            f(stats.micros_per_update(), 2),
            stats.rebuilds.to_string(),
        ]);
    }
    finish(table)
}

/// E4 — dynamic batches vs recompute-from-scratch: both engines are primed with
/// the same large standing graph through the same `apply_batch` path, then
/// process the same churn batches; the dynamic algorithm's per-update cost depends
/// on the batch, the recompute baselines pay for the whole graph every batch.
#[must_use]
pub fn e4_vs_static_recompute(scale: Scale) -> String {
    let mut table = Table::new(
        "E4  dynamic algorithm vs recompute baselines (standing graph, churn batches)",
        &[
            "engine",
            "batch",
            "churn updates",
            "us/update",
            "work/update",
            "matching",
        ],
    );
    let n = scale.div(1 << 14, 1 << 11);
    for &batch in &[16usize, 256, 4_096] {
        // A standing graph of 4n edges, a warm-up churn phase (un-timed, so every
        // engine is measured in steady state — the first deletions after the bulk
        // load trigger the one-time rising phase whose cost the paper amortizes
        // against the insertions), then the timed churn batches.
        let w = streams::random_churn(n, 2, 4 * n, 25, batch, 0.5, 31);
        let warmup = slice_workload(&w, 0..6);
        let churn = slice_workload(&w, 6..w.batches.len());
        let builder = EngineBuilder::new(n).seed(5);

        for kind in [EngineKind::Parallel, EngineKind::RecomputeSequential] {
            let mut engine = pdmm::engine::build(kind, &builder);
            run_workload(&warmup, engine.as_mut()).expect("valid warmup");
            let stats = run_workload(&churn, engine.as_mut()).expect("valid churn");
            table.row(vec![
                kind.name().into(),
                batch.to_string(),
                stats.updates.to_string(),
                f(stats.micros_per_update(), 2),
                f(stats.work_per_update(), 1),
                stats.final_matching.to_string(),
            ]);
        }
    }
    finish(table)
}

/// E5 — batch processing vs one-update-at-a-time sequential baselines: total depth
/// (the quantity parallelism cares about) and wall-clock per update, every engine
/// driven through the identical runner.
#[must_use]
pub fn e5_vs_sequential(scale: Scale) -> String {
    let mut table = Table::new(
        "E5  parallel batches vs sequential one-by-one processing",
        &["engine", "batch", "total depth", "us/update", "matching"],
    );
    let n = scale.div(1 << 13, 1 << 11);
    let w_batched = streams::random_churn(n, 2, 2 * n, 10, n / 2, 0.5, 41);
    let w_single = streams::random_churn(n, 2, 2 * n, 10 * (n / 2), 1, 0.5, 41);
    let builder = EngineBuilder::new(n).seed(1);

    for kind in [
        EngineKind::Parallel,
        EngineKind::NaiveSequential,
        EngineKind::RandomReplace,
    ] {
        let (_, stats) = run_kind(&w_batched, kind, &builder);
        table.row(vec![
            kind.name().into(),
            (n / 2).to_string(),
            stats.depth.to_string(),
            f(stats.micros_per_update(), 2),
            stats.final_matching.to_string(),
        ]);
    }
    // The leveled *sequential* dynamic algorithm of [BGS11]/[AS21]: the paper's
    // engine degraded to single-update batches.
    let (_, stats) = run_kind(&w_single, EngineKind::Parallel, &builder);
    table.row(vec![
        "parallel-dynamic (batch=1)".into(),
        "1".into(),
        stats.depth.to_string(),
        f(stats.micros_per_update(), 2),
        stats.final_matching.to_string(),
    ]);
    finish(table)
}

/// E6 — Theorem 4.1: `poly(r)` scaling of the work per update with the hypergraph
/// rank.
#[must_use]
pub fn e6_rank_scaling(scale: Scale) -> String {
    let mut table = Table::new(
        "E6  work per update vs hypergraph rank r (Theorem 4.1)",
        &[
            "r",
            "alpha",
            "levels",
            "work/update",
            "us/update",
            "matching",
        ],
    );
    let n = scale.div(1 << 13, 1 << 11);
    for &r in &[2usize, 3, 4, 6, 8, 10] {
        let w = streams::random_churn(n, r, n, 10, n / 8, 0.5, 53);
        let builder = EngineBuilder::new(n).rank(r).seed(7);
        let (matcher, stats) = run_engine(&w, ParallelDynamicMatching::from_builder(&builder));
        table.row(vec![
            r.to_string(),
            (4 * r).to_string(),
            matcher.num_levels().to_string(),
            f(stats.work_per_update(), 1),
            f(stats.micros_per_update(), 2),
            stats.final_matching.to_string(),
        ]);
    }
    finish(table)
}

/// E7 — §2: a maximal matching is a `1/r` approximation of the maximum matching and
/// its endpoints form a vertex cover.
#[must_use]
pub fn e7_quality(scale: Scale) -> String {
    let mut table = Table::new(
        "E7  matching quality vs greedy static reference",
        &[
            "workload",
            "r",
            "dynamic",
            "greedy",
            "ratio",
            "uncovered edges",
        ],
    );
    let n = scale.div(1 << 13, 1 << 11);
    let workloads = vec![
        (
            "uniform",
            2,
            streams::random_churn(n, 2, 2 * n, 10, n / 4, 0.5, 61),
        ),
        (
            "power-law",
            2,
            streams::insert_then_teardown(
                n,
                generators::chung_lu_graph(n, 3 * n, 2.3, 3, 0),
                n / 4,
                5,
            ),
        ),
        (
            "rank-4",
            4,
            streams::random_churn(n, 4, n, 10, n / 8, 0.6, 67),
        ),
    ];
    for (name, r, w) in workloads {
        // Stop three quarters of the way through so the final graph is non-empty.
        let partial = slice_workload(&w, 0..w.batches.len() * 3 / 4);
        let builder = EngineBuilder::new(partial.num_vertices).rank(r).seed(3);
        let (matcher, _) = run_engine(&partial, ParallelDynamicMatching::from_builder(&builder));
        let mut truth = DynamicHypergraph::new(partial.num_vertices);
        for batch in &partial.batches {
            truth.apply_batch(batch);
        }
        let greedy = greedy_maximal_matching(&truth.snapshot_edges()).len();
        let dynamic = matcher.matching_size();
        let cover: Vec<_> = matcher
            .matching()
            .flat_map(|id| {
                truth
                    .edge(id)
                    .expect("matched edge is live")
                    .vertices()
                    .to_vec()
            })
            .collect();
        let uncovered = pdmm_hypergraph::matching::uncovered_edges(&truth, &cover);
        table.row(vec![
            name.into(),
            r.to_string(),
            dynamic.to_string(),
            greedy.to_string(),
            f(dynamic as f64 / greedy.max(1) as f64, 3),
            uncovered.to_string(),
        ]);
    }
    finish(table)
}

/// E8 — Lemmas 4.6/4.13/4.14: settle efficiency and epoch statistics per level.
#[must_use]
pub fn e8_epoch_stats(scale: Scale) -> String {
    let mut table = Table::new(
        "E8  epoch statistics per level (Lemmas 4.6, 4.13, 4.14)",
        &[
            "level",
            "created",
            "natural end",
            "induced end",
            "avg |D|",
            "avg D-deleted before end",
        ],
    );
    let n = scale.div(1 << 13, 1 << 11);
    let w = streams::hub_churn(n, 8, 60, n / 8, 71);
    let builder = EngineBuilder::new(n).seed(9);
    let (matcher, _) = run_engine(&w, ParallelDynamicMatching::from_builder(&builder));
    let metrics = matcher.epoch_metrics();
    for (level, stats) in metrics.per_level.iter().enumerate() {
        if stats.epochs_created == 0 {
            continue;
        }
        table.row(vec![
            level.to_string(),
            stats.epochs_created.to_string(),
            stats.epochs_ended_natural.to_string(),
            stats.epochs_ended_induced.to_string(),
            f(
                stats.d_size_at_creation as f64 / stats.epochs_created as f64,
                2,
            ),
            f(
                stats.d_deleted_before_natural_end as f64
                    / stats.epochs_ended_natural.max(1) as f64,
                2,
            ),
        ]);
    }
    let mut out = finish(table);
    out.push_str(&format!(
        "settle invocations: {}, subsettle repeats: {}, subsubsettle iterations: {}\n",
        metrics.settle_invocations, metrics.settle_outer_repeats, metrics.settle_iterations
    ));
    out
}

/// E9 — throughput vs the engine's worker-pool size (wall-clock only; the
/// work/depth counters are thread-independent by construction).
///
/// `EngineBuilder::threads(t)` gives the engine an owned work-stealing pool,
/// so the builder alone controls the parallelism of every batch.
#[must_use]
pub fn e9_thread_scaling(scale: Scale) -> String {
    let mut table = Table::new(
        "E9  wall-clock throughput vs engine pool threads",
        &["threads", "us/update", "updates/s"],
    );
    let n = scale.div(1 << 14, 1 << 11);
    let edges = generators::gnm_graph(n, 4 * n, 81, 0);
    let w = streams::insert_then_teardown(n, edges, n / 4, 7);
    for &threads in &[1usize, 2, 4, 8] {
        let builder = EngineBuilder::new(n).seed(13).threads(threads);
        let (_, stats) = run_kind(&w, EngineKind::Parallel, &builder);
        table.row(vec![
            threads.to_string(),
            f(stats.micros_per_update(), 2),
            f(1e6 / stats.micros_per_update().max(1e-9), 0),
        ]);
    }
    finish(table)
}

/// E10 — ablation: parallel `grand-random-settle` vs the sequential per-node
/// `random-settle`, and the effect of running the rising pass after insertions.
#[must_use]
pub fn e10_ablation(scale: Scale) -> String {
    let mut table = Table::new(
        "E10  ablation of the settle procedure",
        &[
            "configuration",
            "work/update",
            "total depth",
            "us/update",
            "settle iters",
            "matching",
        ],
    );
    let n = scale.div(1 << 13, 1 << 11);
    let w = streams::hub_churn(n, 8, 50, n / 8, 91);
    let configs: Vec<(&str, Config)> = vec![
        ("grand-random-settle (paper)", Config::for_graphs(3)),
        (
            "sequential random-settle",
            Config::for_graphs(3).with_sequential_settle(),
        ),
        (
            "settle-after-insert",
            Config::for_graphs(3).with_settle_after_insert(),
        ),
    ];
    for (name, config) in configs {
        let (matcher, stats) = run_engine(&w, ParallelDynamicMatching::new(n, config));
        table.row(vec![
            name.into(),
            f(stats.work_per_update(), 1),
            stats.depth.to_string(),
            f(stats.micros_per_update(), 2),
            matcher.epoch_metrics().settle_iterations.to_string(),
            stats.final_matching.to_string(),
        ]);
    }
    finish(table)
}

/// E11 — the serve path: snapshot-read latency under commit load.  A reader
/// thread hammers `EngineService::snapshot` while this thread drains a churn
/// workload through the service; the table reports commit throughput alongside
/// the observed read latencies.  The point of the snapshot design is that the
/// read path only ever clones an `Arc` under a short lock, so read latency
/// should stay flat (and tiny) regardless of engine, thread count, or how
/// expensive the concurrent commits are.
#[must_use]
pub fn e11_serve_loop(scale: Scale) -> String {
    use pdmm::service::EngineService;
    use std::sync::atomic::{AtomicBool, Ordering};

    let mut table = Table::new(
        "E11  snapshot-read latency under commit load (the serve path)",
        &[
            "engine",
            "threads",
            "commit us/update",
            "reads",
            "read mean ns",
            "read p99 ns",
            "read max ns",
        ],
    );
    let n = scale.div(1 << 13, 1 << 10);
    let w = streams::random_churn(n, 2, 4 * n, 24, n / 4, 0.5, 67);
    for kind in [EngineKind::Parallel, EngineKind::StaticRecompute] {
        for &threads in &[1usize, 4] {
            let builder = EngineBuilder::new(n).seed(5).threads(threads);
            let service = EngineService::new(pdmm::engine::build(kind, &builder));
            let done = AtomicBool::new(false);
            let (latencies, commit_wall) = std::thread::scope(|scope| {
                let reader = scope.spawn(|| {
                    let mut samples: Vec<u64> = Vec::with_capacity(1 << 20);
                    while !done.load(Ordering::Acquire) {
                        let t0 = Instant::now();
                        let snapshot = service.snapshot();
                        let dt = t0.elapsed().as_nanos() as u64;
                        std::hint::black_box(snapshot.size());
                        samples.push(dt);
                    }
                    samples
                });
                let t0 = Instant::now();
                for batch in &w.batches {
                    service.submit(batch.clone());
                    service.drain().expect("generated workloads are valid");
                }
                let commit_wall = t0.elapsed();
                done.store(true, Ordering::Release);
                (reader.join().expect("reader thread panicked"), commit_wall)
            });
            let mut sorted = latencies;
            sorted.sort_unstable();
            // The reader may never get scheduled before the drain finishes on
            // a loaded single-core box; report zeros rather than indexing an
            // empty sample set.
            let mean = sorted.iter().sum::<u64>() as f64 / sorted.len().max(1) as f64;
            let p99 = if sorted.is_empty() {
                0
            } else {
                sorted[(sorted.len() * 99 / 100).min(sorted.len() - 1)]
            };
            table.row(vec![
                kind.to_string(),
                threads.to_string(),
                f(
                    commit_wall.as_secs_f64() * 1e6 / w.total_updates() as f64,
                    2,
                ),
                sorted.len().to_string(),
                f(mean, 0),
                p99.to_string(),
                sorted.last().copied().unwrap_or(0).to_string(),
            ]);
        }
    }
    finish(table)
}

/// E12 — the sharded serving layer: update throughput vs shard count.  Every
/// engine kind serves the same skewed-key churn stream through a
/// `ShardedService` at 1/2/4/8 shards (hash partitioning).  A drain runs the
/// shards one after another on the calling thread, so the point is the
/// overhead curve: routing, per-shard commit bookkeeping and arbitration on
/// top of the same kernel work.  The cross column counts cross-shard routed
/// updates (owner-shard placement of edges whose endpoints span shards);
/// conflicts is the number of vertices matched by more than one shard at the
/// end, and matching the total size of the shard matchings (the
/// arbitration's `pre_size`); arbitrated is the size of the globally valid
/// matching the boundary-arbitration pass recovers from the shard matchings,
/// and retained is arbitrated/matching — the matched-size fraction the
/// award-evict-repair wave keeps (1.000 at one shard, where arbitration is a
/// bit-identical no-op).  Matched edges of different shards can share a
/// vertex, so retained measures how much the shards' matchings overlap; vs
/// 1 shard is the quality figure, the arbitrated size over the same engine's
/// 1-shard arbitrated size on the same stream.
#[must_use]
pub fn e12_shard_scaling(scale: Scale) -> String {
    use pdmm::sharding::ShardedService;

    let mut table = Table::new(
        "E12  sharded serving layer: updates/sec vs shard count",
        &[
            "engine",
            "shards",
            "us/update",
            "updates/s",
            "cross",
            "conflicts",
            "matching",
            "arbitrated",
            "retained",
            "vs 1 shard",
        ],
    );
    let n = scale.div(1 << 13, 1 << 10);
    let w = streams::skewed_churn(n, 2, 2 * n, 16, n / 4, 0.6, 2.0, 77);
    for kind in EngineKind::ALL {
        // The shard list starts at 1: that run is the engine's baseline.
        let mut one_shard_size = None;
        for &shards in &[1usize, 2, 4, 8] {
            let builder = EngineBuilder::new(n).seed(5);
            let engines = (0..shards)
                .map(|_| pdmm::engine::build(kind, &builder))
                .collect();
            let service = ShardedService::new(engines);
            let mut cross = 0usize;
            let t0 = Instant::now();
            for batch in &w.batches {
                cross += service.submit(batch.clone()).cross_shard;
                service.drain().expect("generated workloads are valid");
            }
            let wall = t0.elapsed();
            let snap = service.snapshot();
            let arbitrated = snap.arbitrated_matching();
            let report = arbitrated.report();
            let us_per_update = wall.as_secs_f64() * 1e6 / w.total_updates() as f64;
            let baseline = *one_shard_size.get_or_insert(arbitrated.size());
            table.row(vec![
                kind.to_string(),
                shards.to_string(),
                f(us_per_update, 2),
                f(1e6 / us_per_update.max(1e-9), 0),
                cross.to_string(),
                report.stats.conflicted_vertices.to_string(),
                report.pre_size.to_string(),
                arbitrated.size().to_string(),
                f(report.retained(), 3),
                f(arbitrated.size() as f64 / baseline.max(1) as f64, 3),
            ]);
        }
    }
    finish(table)
}

/// Runs one experiment by id (`"e1"`, …, `"e12"`).  Returns `None` for unknown ids.
#[must_use]
pub fn run_by_id(id: &str, scale: Scale) -> Option<String> {
    let out = match id {
        "e1" => e1_static_matching(scale),
        "e2" => e2_batch_depth(scale),
        "e3" => e3_amortized_work(scale),
        "e4" => e4_vs_static_recompute(scale),
        "e5" => e5_vs_sequential(scale),
        "e6" => e6_rank_scaling(scale),
        "e7" => e7_quality(scale),
        "e8" => e8_epoch_stats(scale),
        "e9" => e9_thread_scaling(scale),
        "e10" => e10_ablation(scale),
        "e11" => e11_serve_loop(scale),
        "e12" => e12_shard_scaling(scale),
        _ => return None,
    };
    Some(out)
}

/// All experiment ids, in order.
pub const ALL_EXPERIMENTS: [&str; 12] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12",
];

fn finish(table: Table) -> String {
    let rendered = table.render();
    println!("{rendered}");
    rendered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_static_experiment_runs() {
        let out = e1_static_matching(Scale::Quick);
        assert!(out.contains("E1"));
        assert!(out.lines().count() >= 4);
    }

    #[test]
    fn quick_epoch_stats_runs() {
        let out = e8_epoch_stats(Scale::Quick);
        assert!(out.contains("E8"));
        assert!(out.contains("settle invocations"));
    }

    #[test]
    fn quick_cross_engine_experiment_lists_every_engine_uniformly() {
        let out = e5_vs_sequential(Scale::Quick);
        for name in [
            "parallel-dynamic",
            "naive-sequential",
            "random-replace-sequential",
        ] {
            assert!(out.contains(name), "missing engine {name} in:\n{out}");
        }
    }

    #[test]
    fn run_by_id_dispatches() {
        assert!(run_by_id("e7", Scale::Quick).is_some());
        assert!(run_by_id("nope", Scale::Quick).is_none());
        assert_eq!(ALL_EXPERIMENTS.len(), 12);
    }
}
