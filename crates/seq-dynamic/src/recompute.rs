//! Recompute-from-scratch baseline.
//!
//! The obvious alternative to a dynamic algorithm: after every batch, throw the old
//! matching away and recompute a maximal matching of the *entire* current graph with
//! the static parallel algorithm of Theorem 2.2.  Its depth per batch is fine
//! (`O(log M)`), but its work per batch is `Θ(M·r)` regardless of how small the
//! batch is — this is the baseline the dynamic algorithm must beat in experiment E4,
//! and the crossover point (batch size vs. graph size) is part of what that
//! experiment reports.
//!
//! (The *sequential* recompute yardstick — a greedy scan instead of Luby — is the
//! [`pdmm_static::StaticRecompute`] adapter.)

use pdmm_hypergraph::engine::{
    read_state_counters, read_state_graph, read_state_header, read_state_rng, run_batch_trusted,
    write_state_counters, write_state_graph, write_state_header, write_state_rng, BatchError,
    BatchKernel, BatchReport, EngineBuilder, EngineMetrics, EnginePool, KernelOutcome,
    MatchingEngine, MatchingIter, RepairError, StateError, StateParser, UpdateCounters,
    ValidatedBatch,
};
use pdmm_hypergraph::graph::DynamicHypergraph;
use pdmm_hypergraph::matching::{verify_maximality, DeltaTracker, MatchingDelta};
use pdmm_hypergraph::types::{EdgeId, Update, VertexId};
use pdmm_primitives::cost_model::CostTracker;
use pdmm_primitives::random::RandomSource;
use pdmm_static::luby::luby_maximal_matching;
use rustc_hash::FxHashSet;

/// Baseline that recomputes a static maximal matching after every batch.
#[derive(Debug)]
pub struct RecomputeFromScratch {
    graph: DynamicHypergraph,
    matching: Vec<EdgeId>,
    /// Net matching change since the last `take_matching_delta`.
    delta: DeltaTracker,
    rng: RandomSource,
    cost: CostTracker,
    counters: UpdateCounters,
    max_rank: usize,
    /// Pool the per-batch Luby recomputation runs on (`EngineBuilder::threads`).
    pool: EnginePool,
}

impl RecomputeFromScratch {
    /// Creates the baseline over an empty graph with `num_vertices` vertices and
    /// no rank restriction.
    #[must_use]
    pub fn new(num_vertices: usize, seed: u64) -> Self {
        RecomputeFromScratch {
            graph: DynamicHypergraph::new(num_vertices),
            matching: Vec::new(),
            delta: DeltaTracker::default(),
            rng: RandomSource::from_seed(seed),
            cost: CostTracker::new(),
            counters: UpdateCounters::default(),
            max_rank: usize::MAX,
            pool: EnginePool::default(),
        }
    }

    /// Creates the baseline from the engine-agnostic builder
    /// (`builder.threads` bounds the pool the Luby recomputation runs on).
    #[must_use]
    pub fn from_builder(builder: &EngineBuilder) -> Self {
        let mut alg = Self::new(builder.num_vertices, builder.seed);
        alg.max_rank = builder.max_rank;
        alg.pool = EnginePool::from_builder(builder);
        alg
    }

    /// The ground-truth graph built from the updates.
    #[must_use]
    pub fn graph(&self) -> &DynamicHypergraph {
        &self.graph
    }

    /// Work/depth counters accumulated so far.
    #[must_use]
    pub fn cost(&self) -> &CostTracker {
        &self.cost
    }

    /// Vertices covered by the current matching (matched edges are always
    /// live: the matching is recomputed over live edges every batch).
    fn covered_vertices(&self) -> FxHashSet<VertexId> {
        let mut covered = FxHashSet::default();
        for id in &self.matching {
            let edge = self.graph.edge(*id).expect("matched edges are live");
            covered.extend(edge.vertices().iter().copied());
        }
        covered
    }
}

impl MatchingEngine for RecomputeFromScratch {
    fn name(&self) -> &'static str {
        "recompute-from-scratch"
    }

    fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    fn max_rank(&self) -> usize {
        self.max_rank
    }

    fn contains_edge(&self, id: EdgeId) -> bool {
        self.graph.contains_edge(id)
    }

    fn apply_batch_trusted(
        &mut self,
        batch: ValidatedBatch<'_>,
    ) -> Result<BatchReport, BatchError> {
        Ok(run_batch_trusted(self, batch))
    }

    fn matching(&self) -> MatchingIter<'_> {
        MatchingIter::new(self.matching.iter().copied())
    }

    fn take_matching_delta(&mut self) -> MatchingDelta {
        self.delta.take()
    }

    fn matching_size(&self) -> usize {
        self.matching.len()
    }

    fn verify(&mut self) -> Result<(), String> {
        verify_maximality(&self.graph, &self.matching).map_err(|e| format!("{e:?}"))
    }

    fn metrics(&self) -> EngineMetrics {
        let cost = self.cost.snapshot();
        self.counters.into_metrics(cost.work, cost.depth)
    }

    fn free_vertices(&self) -> Option<Vec<VertexId>> {
        let covered = self.covered_vertices();
        Some(
            (0..self.graph.num_vertices() as u32)
                .map(VertexId)
                .filter(|v| !covered.contains(v))
                .collect(),
        )
    }

    fn force_match(&mut self, id: EdgeId) -> Result<(), RepairError> {
        // The next batch recomputes from scratch anyway, so the graft only
        // has to keep the current matching valid (restore_state re-validates
        // exactly that: live ids, pairwise-disjoint endpoints).
        if !self.graph.contains_edge(id) {
            return Err(RepairError::UnknownEdge { id });
        }
        if self.matching.contains(&id) {
            return Err(RepairError::AlreadyMatched { id });
        }
        let covered = self.covered_vertices();
        let edge = self.graph.edge(id).expect("liveness checked above");
        if let Some(&v) = edge.vertices().iter().find(|&&v| covered.contains(&v)) {
            return Err(RepairError::EndpointMatched { id, vertex: v });
        }
        let rank = edge.rank() as u64;
        self.cost.work(rank);
        self.delta.matched(id, edge.vertices());
        self.matching.push(id);
        Ok(())
    }

    fn save_state(&self) -> Option<String> {
        use std::fmt::Write as _;
        let mut out = String::new();
        let cost = self.cost.snapshot();
        write_state_header(&mut out, self.name(), self.num_vertices(), self.max_rank);
        write_state_counters(&mut out, &self.counters, cost.work, cost.depth);
        let (words, index) = self.rng.state();
        write_state_rng(&mut out, words, index);
        write_state_graph(&mut out, &self.graph);
        // Verbatim order: after the canonical input sort in `run_kernel` the
        // matching vector is itself a pure function of graph + RNG position.
        out.push_str("matching");
        for id in &self.matching {
            let _ = write!(out, " {}", id.0);
        }
        out.push('\n');
        Some(out)
    }

    fn restore_state(&mut self, blob: &str) -> Result<(), StateError> {
        if self.counters.batches != 0 {
            return Err(StateError::NotFresh {
                batches: self.counters.batches,
            });
        }
        let mut p = StateParser::new(blob);
        read_state_header(&mut p, self.name(), self.num_vertices(), self.max_rank)?;
        let (counters, work, depth) = read_state_counters(&mut p)?;
        let (words, index) = read_state_rng(&mut p)?;
        let graph = read_state_graph(&mut p, self.num_vertices(), self.max_rank)?;
        let rest = p.tagged("matching")?;
        let mut matching = Vec::new();
        let mut claimed = FxHashSet::default();
        for tok in rest.split_whitespace() {
            let id = EdgeId(p.parse_token(tok, "matched edge id")?);
            let Some(edge) = graph.edge(id) else {
                return Err(p.corrupt(format!("matched edge {id} is not live")));
            };
            for &v in edge.vertices() {
                if !claimed.insert(v) {
                    return Err(p.corrupt(format!("matched edge {id} conflicts with another")));
                }
            }
            matching.push(id);
        }
        p.finish()?;
        self.graph = graph;
        self.matching = matching;
        self.delta.adopt(&self.matching, &self.graph);
        self.rng = RandomSource::from_state(words, index);
        self.counters = counters;
        self.cost = CostTracker::new();
        self.cost.work(work);
        self.cost.rounds(depth);
        Ok(())
    }
}

impl BatchKernel for RecomputeFromScratch {
    fn run_kernel(&mut self, updates: &[Update]) -> KernelOutcome {
        // Hash the previous matching once so per-deletion lookups are O(1)
        // instead of a linear scan per update.
        let matched: FxHashSet<EdgeId> = self.matching.iter().copied().collect();
        self.delta.retire(&self.matching, &self.graph);
        let mut matched_deletions = 0usize;
        for update in updates {
            match update {
                Update::Insert(edge) => {
                    self.graph.insert_edge(edge.clone());
                }
                Update::Delete(id) => {
                    if matched.contains(id) {
                        matched_deletions += 1;
                    }
                    self.graph.delete_edge(*id);
                }
            }
        }
        self.cost.work(updates.len() as u64);
        self.cost.round();
        // Canonical input order: Luby's selected *set* is order-independent
        // (stateless per-edge priorities), but its result vector follows input
        // order — sorting keeps `self.matching` a pure function of the graph
        // and the RNG position, which checkpoint recovery relies on.
        let mut edges = self.graph.snapshot_edges();
        edges.sort_unstable_by_key(|e| e.id);
        let rng = &mut self.rng;
        let cost = &self.cost;
        let result = self
            .pool
            .install(|| luby_maximal_matching(&edges, rng, Some(cost)));
        self.matching = result.edges;
        self.delta.adopt(&self.matching, &self.graph);
        KernelOutcome {
            matched_deletions,
            // The matching is thrown away and recomputed on every batch.
            rebuilt: true,
        }
    }

    fn record_batch(&mut self, delta: &UpdateCounters) {
        self.counters.merge(delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdmm_hypergraph::generators::gnm_graph;
    use pdmm_hypergraph::streams::random_churn;

    #[test]
    fn maximal_after_each_batch() {
        let w = random_churn(70, 2, 100, 10, 25, 0.5, 3);
        let mut alg = RecomputeFromScratch::new(w.num_vertices, 1);
        for batch in &w.batches {
            alg.apply_batch(batch).unwrap();
            assert_eq!(verify_maximality(alg.graph(), &alg.matching_ids()), Ok(()));
        }
    }

    #[test]
    fn work_scales_with_graph_size_not_batch_size() {
        // Prime a small and a large graph, then apply the same number of
        // single-deletion batches to each: the larger graph must cost far more
        // work per (tiny) batch, because recomputation touches the whole graph.
        fn work_for(n: usize, m: usize) -> u64 {
            let edges = gnm_graph(n, m, 1, 0);
            let ids: Vec<_> = edges.iter().map(|e| e.id).collect();
            let mut alg = RecomputeFromScratch::new(n, 1);
            let batch: Vec<Update> = edges.into_iter().map(Update::Insert).collect();
            alg.apply_batch(&batch).unwrap();
            let before = alg.cost().snapshot();
            for id in ids.iter().take(10) {
                alg.apply_batch(&[Update::Delete(*id)]).unwrap();
            }
            alg.cost().snapshot().since(&before).work
        }
        let small = work_for(40, 100);
        let large = work_for(400, 4000);
        assert!(
            large > small * 5,
            "large-graph recompute work {large} should dwarf small-graph work {small}"
        );
    }

    #[test]
    fn name_is_stable() {
        let alg = RecomputeFromScratch::new(4, 0);
        assert_eq!(alg.name(), "recompute-from-scratch");
    }

    #[test]
    fn state_roundtrip_continues_bit_identically() {
        let w = random_churn(60, 3, 110, 12, 28, 0.5, 31);
        let (prefix, tail) = w.batches.split_at(6);
        let mut a = RecomputeFromScratch::new(w.num_vertices, 5);
        a.apply_all(prefix).unwrap();
        let blob = a.save_state().unwrap();
        // Restored twin with a different builder seed: the RNG position comes
        // from the blob, so every future Luby run draws the same priorities.
        let mut b = RecomputeFromScratch::new(w.num_vertices, 777);
        b.restore_state(&blob).unwrap();
        assert_eq!(b.save_state().unwrap(), blob);
        for batch in tail {
            assert_eq!(a.apply_batch(batch).unwrap(), b.apply_batch(batch).unwrap());
        }
        assert_eq!(a.save_state(), b.save_state());
        assert_eq!(a.matching_ids(), b.matching_ids());
    }

    #[test]
    fn unknown_deletion_is_a_typed_error() {
        let mut alg = RecomputeFromScratch::new(4, 0);
        assert_eq!(
            alg.apply_batch(&[Update::Delete(EdgeId(1))]),
            Err(BatchError::UnknownDeletion { id: EdgeId(1) })
        );
    }
}
