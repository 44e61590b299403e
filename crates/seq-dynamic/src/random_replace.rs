//! Randomized sequential repair baseline.
//!
//! A light-weight cousin of the random-settle idea from the sequential dynamic
//! algorithms [BGS11, Sol16, AS21]: when a matched hyperedge is deleted, each
//! exposed endpoint picks a *uniformly random* free incident hyperedge (instead of
//! the first one found).  Against an oblivious adversary this already spreads the
//! expensive repairs over the adversary's deletions in practice, although — unlike
//! the leveling scheme of the paper — it has no amortized guarantee.  It serves as a
//! middle baseline between [`crate::naive::NaiveDynamicMatching`] and the real
//! algorithm in the E5/E10 experiments.

use crate::persist;
use pdmm_hypergraph::engine::{
    read_state_counters, read_state_graph, read_state_header, read_state_rng, run_batch_trusted,
    write_state_counters, write_state_graph, write_state_header, write_state_rng, BatchError,
    BatchKernel, BatchReport, EngineBuilder, EngineMetrics, KernelOutcome, MatchingEngine,
    MatchingIter, StateError, StateParser, UpdateCounters, ValidatedBatch,
};
use pdmm_hypergraph::graph::DynamicHypergraph;
use pdmm_hypergraph::matching::{verify_maximality, Matching, MatchingDelta};
use pdmm_hypergraph::types::{EdgeId, HyperEdge, Update, VertexId};
use pdmm_primitives::cost_model::CostTracker;
use pdmm_primitives::random::RandomSource;

/// Sequential dynamic maximal matching with randomized replacement choices.
#[derive(Debug)]
pub struct RandomReplaceMatching {
    graph: DynamicHypergraph,
    matching: Matching,
    rng: RandomSource,
    cost: CostTracker,
    counters: UpdateCounters,
    max_rank: usize,
}

impl RandomReplaceMatching {
    /// Creates the algorithm over an empty graph with `num_vertices` vertices and
    /// no rank restriction.
    #[must_use]
    pub fn new(num_vertices: usize, seed: u64) -> Self {
        RandomReplaceMatching {
            graph: DynamicHypergraph::new(num_vertices),
            matching: Matching::new(),
            rng: RandomSource::from_seed(seed),
            cost: CostTracker::new(),
            counters: UpdateCounters::default(),
            max_rank: usize::MAX,
        }
    }

    /// Creates the algorithm from the engine-agnostic builder.
    #[must_use]
    pub fn from_builder(builder: &EngineBuilder) -> Self {
        let mut alg = Self::new(builder.num_vertices, builder.seed);
        alg.max_rank = builder.max_rank;
        alg
    }

    /// The current matching container (the trait's zero-copy
    /// [`MatchingEngine::matching`] iterator is usually what callers want).
    #[must_use]
    pub fn matching_state(&self) -> &Matching {
        &self.matching
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

    fn edge_is_free(&self, edge: &HyperEdge) -> bool {
        edge.vertices()
            .iter()
            .all(|&v| !self.matching.is_matched(v))
    }

    fn handle_insert(&mut self, edge: HyperEdge) {
        self.cost.work(edge.rank() as u64);
        self.graph.insert_edge(edge.clone());
        if self.edge_is_free(&edge) {
            self.matching.add(&edge);
        }
    }

    /// Returns `true` iff the deletion hit a matched edge (the expensive case).
    fn handle_delete(&mut self, id: EdgeId) -> bool {
        let edge = self.graph.delete_edge(id);
        self.cost.work(edge.rank() as u64);
        if !self.matching.contains_edge(id) {
            return false;
        }
        self.matching.remove(&edge);
        for &v in edge.vertices() {
            if self.matching.is_matched(v) {
                continue;
            }
            // Collect the free incident edges and pick one uniformly at random.
            let incident = self.graph.incident_edges(v);
            self.cost.work(incident.len() as u64);
            let free: Vec<HyperEdge> = incident
                .iter()
                .filter_map(|cand_id| self.graph.edge(*cand_id).cloned())
                .filter(|cand| self.edge_is_free(cand))
                .collect();
            self.cost
                .work(free.iter().map(|e| e.rank() as u64).sum::<u64>());
            if !free.is_empty() {
                let pick = self.rng.uniform_below(free.len() as u64) as usize;
                self.matching.add(&free[pick]);
            }
        }
        true
    }
}

impl MatchingEngine for RandomReplaceMatching {
    fn name(&self) -> &'static str {
        "random-replace-sequential"
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

    fn live_edges(&self) -> Vec<HyperEdge> {
        self.graph.snapshot_edges()
    }

    fn for_each_incident_edge(&self, v: VertexId, f: &mut dyn FnMut(EdgeId, &[VertexId])) {
        self.graph.for_each_incident_edge(v, f);
    }

    fn apply_batch_trusted(
        &mut self,
        batch: ValidatedBatch<'_>,
    ) -> Result<BatchReport, BatchError> {
        Ok(run_batch_trusted(self, batch))
    }

    fn matching(&self) -> MatchingIter<'_> {
        MatchingIter::new(self.matching.iter())
    }

    fn take_matching_delta(&mut self) -> MatchingDelta {
        self.matching.take_delta()
    }

    fn matching_size(&self) -> usize {
        self.matching.len()
    }

    fn verify(&mut self) -> Result<(), String> {
        verify_maximality(&self.graph, &self.matching.edge_ids()).map_err(|e| format!("{e:?}"))
    }

    fn metrics(&self) -> EngineMetrics {
        let cost = self.cost.snapshot();
        self.counters.into_metrics(cost.work, cost.depth)
    }

    fn save_state(&self) -> Option<String> {
        let mut out = String::new();
        let cost = self.cost.snapshot();
        write_state_header(&mut out, self.name(), self.num_vertices(), self.max_rank);
        write_state_counters(&mut out, &self.counters, cost.work, cost.depth);
        let (words, index) = self.rng.state();
        write_state_rng(&mut out, words, index);
        write_state_graph(&mut out, &self.graph);
        persist::write_matched(&mut out, &self.matching);
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
        let matching = persist::read_matched(&mut p, &graph)?;
        p.finish()?;
        self.graph = graph;
        self.matching = matching;
        self.rng = RandomSource::from_state(words, index);
        self.counters = counters;
        self.cost = CostTracker::new();
        self.cost.work(work);
        self.cost.rounds(depth);
        Ok(())
    }
}

impl BatchKernel for RandomReplaceMatching {
    fn run_kernel(&mut self, updates: &[Update]) -> KernelOutcome {
        let mut outcome = KernelOutcome::default();
        for update in updates {
            // Each update is one sequential step: depth grows linearly in the batch.
            self.cost.round();
            match update {
                Update::Insert(edge) => self.handle_insert(edge.clone()),
                Update::Delete(id) => {
                    outcome.matched_deletions += usize::from(self.handle_delete(*id));
                }
            }
        }
        outcome
    }

    fn record_batch(&mut self, delta: &UpdateCounters) {
        self.counters.merge(delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdmm_hypergraph::generators::gnm_graph;
    use pdmm_hypergraph::streams::{insert_then_teardown, random_churn};
    use pdmm_hypergraph::types::UpdateBatch;
    use proptest::prelude::*;

    fn check_after_every_batch(num_vertices: usize, batches: &[UpdateBatch], seed: u64) {
        let mut alg = RandomReplaceMatching::new(num_vertices, seed);
        for batch in batches {
            alg.apply_batch(batch).unwrap();
            let ids = alg.matching_ids();
            assert_eq!(verify_maximality(alg.graph(), &ids), Ok(()));
        }
    }

    #[test]
    fn maximal_throughout_teardown() {
        let edges = gnm_graph(50, 180, 2, 0);
        let w = insert_then_teardown(50, edges, 30, 1);
        check_after_every_batch(w.num_vertices, &w.batches, 42);
    }

    #[test]
    fn maximal_throughout_churn_rank_three() {
        let w = random_churn(60, 3, 120, 12, 30, 0.45, 5);
        check_after_every_batch(w.num_vertices, &w.batches, 43);
    }

    #[test]
    fn different_seeds_may_pick_different_matchings() {
        let edges = gnm_graph(30, 120, 4, 0);
        let w = insert_then_teardown(30, edges, 10, 9);
        let mut a = RandomReplaceMatching::new(30, 1);
        let mut b = RandomReplaceMatching::new(30, 2);
        // Apply only the first two thirds of batches so matchings are non-empty.
        let prefix = &w.batches[..w.batches.len() * 2 / 3];
        a.apply_all(prefix).unwrap();
        b.apply_all(prefix).unwrap();
        // Both must be maximal regardless of the coin flips.
        assert_eq!(verify_maximality(a.graph(), &a.matching_ids()), Ok(()));
        assert_eq!(verify_maximality(b.graph(), &b.matching_ids()), Ok(()));
    }

    #[test]
    fn builder_rank_is_enforced() {
        let mut alg = RandomReplaceMatching::from_builder(&EngineBuilder::new(5).rank(2).seed(1));
        assert!(matches!(
            alg.apply_batch(&[Update::Insert(HyperEdge::new(
                EdgeId(0),
                (0..3).map(pdmm_hypergraph::types::VertexId).collect(),
            ))]),
            Err(BatchError::RankExceeded { .. })
        ));
    }

    #[test]
    fn state_roundtrip_resumes_the_random_stream() {
        // A workload with enough matched deletions that the replacement RNG is
        // consulted both before and after the save point.
        let w = random_churn(40, 2, 100, 14, 30, 0.45, 23);
        let (prefix, tail) = w.batches.split_at(7);
        let mut a = RandomReplaceMatching::new(w.num_vertices, 9);
        a.apply_all(prefix).unwrap();
        let blob = a.save_state().unwrap();
        let mut b = RandomReplaceMatching::new(w.num_vertices, 9);
        b.restore_state(&blob).unwrap();
        assert_eq!(b.save_state().unwrap(), blob);
        for batch in tail {
            assert_eq!(a.apply_batch(batch).unwrap(), b.apply_batch(batch).unwrap());
        }
        // Blob equality covers graph, matching, counters, and the RNG position.
        assert_eq!(a.save_state(), b.save_state());
    }

    #[test]
    fn restore_does_not_depend_on_the_builder_seed() {
        // The RNG position is restored wholesale from the blob, so a twin
        // built with a different seed still continues identically.
        let w = random_churn(40, 2, 100, 14, 30, 0.45, 24);
        let (prefix, tail) = w.batches.split_at(7);
        let mut a = RandomReplaceMatching::new(w.num_vertices, 1);
        a.apply_all(prefix).unwrap();
        let blob = a.save_state().unwrap();
        let mut b = RandomReplaceMatching::new(w.num_vertices, 999);
        b.restore_state(&blob).unwrap();
        for batch in tail {
            assert_eq!(a.apply_batch(batch).unwrap(), b.apply_batch(batch).unwrap());
        }
        assert_eq!(a.save_state(), b.save_state());
    }

    proptest! {
        #[test]
        fn prop_random_replace_stays_maximal(
            seed in 0u64..300,
            alg_seed in 0u64..10,
            batch_size in 1usize..25,
        ) {
            let w = random_churn(35, 2, 50, 6, batch_size, 0.5, seed);
            check_after_every_batch(w.num_vertices, &w.batches, alg_seed);
        }
    }
}
