//! Workload execution shared by the experiments.
//!
//! There is exactly one way to run a workload: [`run_workload`] drives *any*
//! [`MatchingEngine`] through [`MatchingEngine::apply_batch`], accumulating the
//! per-batch [`pdmm::engine::BatchReport`]s into [`RunStats`].  No
//! engine-specific branching —
//! the paper's algorithm and every baseline are measured through identical
//! code.

use pdmm::engine::{self, BatchError, EngineBuilder, EngineKind, MatchingEngine};
use pdmm_hypergraph::streams::Workload;
use std::time::{Duration, Instant};

/// Aggregated statistics from running one workload through one engine.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Total number of updates processed.
    pub updates: u64,
    /// Number of batches processed.
    pub batches: u64,
    /// Total work units (from the engine's batch reports).
    pub work: u64,
    /// Total depth in parallel rounds (from the engine's batch reports).
    pub depth: u64,
    /// Maximum depth of any single batch.
    pub max_batch_depth: u64,
    /// Mean depth per batch.
    pub mean_batch_depth: f64,
    /// Number of batches that triggered an `N`-doubling rebuild.
    pub rebuilds: u64,
    /// Total wall-clock time.
    pub wall: Duration,
    /// Final matching size.
    pub final_matching: usize,
}

impl RunStats {
    /// Work per update.
    #[must_use]
    pub fn work_per_update(&self) -> f64 {
        self.work as f64 / self.updates.max(1) as f64
    }

    /// Wall-clock microseconds per update.
    #[must_use]
    pub fn micros_per_update(&self) -> f64 {
        self.wall.as_micros() as f64 / self.updates.max(1) as f64
    }
}

/// Runs a workload through any engine, applying every batch through the shared
/// trait and collecting uniform statistics.
///
/// # Errors
///
/// Stops at (and returns) the first batch the engine rejects — a correctly
/// generated workload never triggers this.
pub fn run_workload(
    workload: &Workload,
    engine: &mut dyn MatchingEngine,
) -> Result<RunStats, BatchError> {
    let mut stats = RunStats::default();
    let started = Instant::now();
    for batch in &workload.batches {
        let report = engine.apply_batch(batch)?;
        stats.updates += report.batch_size as u64;
        stats.batches += 1;
        stats.work += report.work;
        stats.depth += report.depth;
        stats.max_batch_depth = stats.max_batch_depth.max(report.depth);
        stats.rebuilds += u64::from(report.rebuilt);
        stats.final_matching = report.matching_size;
    }
    stats.wall = started.elapsed();
    stats.mean_batch_depth = stats.depth as f64 / stats.batches.max(1) as f64;
    Ok(stats)
}

/// Builds the engine of `kind` from `builder`, runs the workload through it, and
/// returns both (the engine for engine-specific introspection, e.g. the §4.2
/// epoch metrics of the parallel algorithm).
///
/// # Panics
///
/// Panics if the workload is rejected — workloads from
/// [`pdmm_hypergraph::streams`] are always valid.
#[must_use]
pub fn run_kind(
    workload: &Workload,
    kind: EngineKind,
    builder: &EngineBuilder,
) -> (Box<dyn MatchingEngine + Send>, RunStats) {
    let mut engine = engine::build(kind, builder);
    let stats = run_workload(workload, engine.as_mut())
        .unwrap_or_else(|e| panic!("workload {} rejected by {}: {e}", workload.name, kind));
    (engine, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdmm_hypergraph::generators::gnm_graph;
    use pdmm_hypergraph::streams::insert_only;

    #[test]
    fn run_workload_collects_uniform_stats_for_every_engine() {
        let w = insert_only(50, gnm_graph(50, 200, 1, 0), 40);
        let builder = EngineBuilder::new(50).seed(1);
        for kind in EngineKind::ALL {
            let (engine, stats) = run_kind(&w, kind, &builder);
            assert_eq!(stats.updates, 200, "{kind}");
            assert_eq!(stats.batches, 5, "{kind}");
            assert!(stats.work > 0, "{kind}");
            assert!(stats.work_per_update() > 0.0, "{kind}");
            assert_eq!(stats.final_matching, engine.matching_size(), "{kind}");
            assert!(
                stats.mean_batch_depth <= stats.max_batch_depth as f64,
                "{kind}"
            );
            assert_eq!(engine.metrics().updates, 200, "{kind}");
        }
    }

    #[test]
    fn parallel_engine_reports_depth_and_rebuild_counters() {
        let w = insert_only(50, gnm_graph(50, 200, 1, 0), 40);
        let (_, stats) = run_kind(&w, EngineKind::Parallel, &EngineBuilder::new(50).seed(1));
        assert!(stats.depth > 0);
        assert!(stats.max_batch_depth > 0);
    }
}
