//! Naive sequential dynamic maximal matching.
//!
//! This is exactly the strawman the paper describes in §3.1: process updates one by
//! one; an insertion whose endpoints are all free joins the matching; when a matched
//! hyperedge is deleted, scan the incidence lists of its (now exposed) endpoints for
//! hyperedges whose endpoints are all free and add any that are found.  Per-update
//! work is `O(Σ_{v ∈ e} deg(v) · r)` in the worst case — the quantity the leveling
//! scheme of the real algorithms is designed to avoid — and the depth of a batch of
//! `k` updates is `Θ(k)` because updates are handled strictly sequentially.

use crate::persist;
use pdmm_hypergraph::engine::{
    read_state_counters, read_state_graph, read_state_header, run_batch_trusted,
    write_state_counters, write_state_graph, write_state_header, BatchError, BatchKernel,
    BatchReport, EngineBuilder, EngineMetrics, KernelOutcome, MatchingEngine, MatchingIter,
    StateError, StateParser, UpdateCounters, ValidatedBatch,
};
use pdmm_hypergraph::graph::DynamicHypergraph;
use pdmm_hypergraph::matching::{verify_maximality, Matching, MatchingDelta};
use pdmm_hypergraph::types::{EdgeId, HyperEdge, Update};
use pdmm_primitives::cost_model::CostTracker;

/// Naive one-update-at-a-time dynamic maximal matching.
#[derive(Debug)]
pub struct NaiveDynamicMatching {
    graph: DynamicHypergraph,
    matching: Matching,
    cost: CostTracker,
    counters: UpdateCounters,
    max_rank: usize,
}

impl NaiveDynamicMatching {
    /// Creates the algorithm over an empty graph with `num_vertices` vertices and
    /// no rank restriction.
    #[must_use]
    pub fn new(num_vertices: usize) -> Self {
        NaiveDynamicMatching {
            graph: DynamicHypergraph::new(num_vertices),
            matching: Matching::new(),
            cost: CostTracker::new(),
            counters: UpdateCounters::default(),
            max_rank: usize::MAX,
        }
    }

    /// Creates the algorithm from the engine-agnostic builder (enforcing the
    /// builder's maximum rank, like every other engine).
    #[must_use]
    pub fn from_builder(builder: &EngineBuilder) -> Self {
        let mut alg = Self::new(builder.num_vertices);
        alg.max_rank = builder.max_rank;
        alg
    }

    /// The current matching container (the trait's zero-copy
    /// [`MatchingEngine::matching`] iterator is usually what callers want).
    #[must_use]
    pub fn matching_state(&self) -> &Matching {
        &self.matching
    }

    /// The ground-truth graph the algorithm has built from the updates.
    #[must_use]
    pub fn graph(&self) -> &DynamicHypergraph {
        &self.graph
    }

    /// Work/depth counters accumulated so far.
    #[must_use]
    pub fn cost(&self) -> &CostTracker {
        &self.cost
    }

    /// Number of single updates processed so far.
    #[must_use]
    pub fn updates_processed(&self) -> u64 {
        self.counters.updates
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
        // Restore maximality: only edges incident to the exposed endpoints can have
        // become addable.  Scan their incidence lists greedily.
        for &v in edge.vertices() {
            if self.matching.is_matched(v) {
                continue;
            }
            let incident = self.graph.incident_edges(v);
            self.cost.work(incident.len() as u64);
            for cand_id in incident {
                let cand = self
                    .graph
                    .edge(cand_id)
                    .expect("incident edge must be live")
                    .clone();
                self.cost.work(cand.rank() as u64);
                if self.edge_is_free(&cand) {
                    self.matching.add(&cand);
                    break;
                }
            }
        }
        true
    }
}

impl MatchingEngine for NaiveDynamicMatching {
    fn name(&self) -> &'static str {
        "naive-sequential"
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
        let graph = read_state_graph(&mut p, self.num_vertices(), self.max_rank)?;
        let matching = persist::read_matched(&mut p, &graph)?;
        p.finish()?;
        self.graph = graph;
        self.matching = matching;
        self.counters = counters;
        self.cost = CostTracker::new();
        self.cost.work(work);
        self.cost.rounds(depth);
        Ok(())
    }
}

impl BatchKernel for NaiveDynamicMatching {
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
    use pdmm_hypergraph::streams::{insert_then_teardown, random_churn, sliding_window};
    use pdmm_hypergraph::types::{UpdateBatch, VertexId};
    use proptest::prelude::*;

    fn check_after_every_batch(num_vertices: usize, batches: &[UpdateBatch]) {
        let mut alg = NaiveDynamicMatching::new(num_vertices);
        for batch in batches {
            alg.apply_batch(batch).unwrap();
            let ids = alg.matching_ids();
            assert_eq!(verify_maximality(alg.graph(), &ids), Ok(()));
        }
    }

    #[test]
    fn insert_free_edge_joins_matching() {
        let mut alg = NaiveDynamicMatching::new(4);
        alg.apply_batch(&[Update::Insert(HyperEdge::pair(
            EdgeId(0),
            VertexId(0),
            VertexId(1),
        ))])
        .unwrap();
        assert_eq!(alg.matching_ids(), vec![EdgeId(0)]);
    }

    #[test]
    fn delete_matched_edge_repairs_maximality() {
        let mut alg = NaiveDynamicMatching::new(4);
        // Path 0-1-2-3: greedy matches (0,1); delete it; (1,2) or (0,?) must appear.
        alg.apply_batch(&[
            Update::Insert(HyperEdge::pair(EdgeId(0), VertexId(0), VertexId(1))),
            Update::Insert(HyperEdge::pair(EdgeId(1), VertexId(1), VertexId(2))),
            Update::Insert(HyperEdge::pair(EdgeId(2), VertexId(2), VertexId(3))),
        ])
        .unwrap();
        let report = alg.apply_batch(&[Update::Delete(EdgeId(0))]).unwrap();
        assert_eq!(report.matched_deletions, 1);
        let ids = alg.matching_ids();
        assert_eq!(verify_maximality(alg.graph(), &ids), Ok(()));
    }

    #[test]
    fn deleting_unmatched_edge_is_cheap_and_safe() {
        let mut alg = NaiveDynamicMatching::new(4);
        alg.apply_batch(&[
            Update::Insert(HyperEdge::pair(EdgeId(0), VertexId(0), VertexId(1))),
            Update::Insert(HyperEdge::pair(EdgeId(1), VertexId(1), VertexId(2))),
        ])
        .unwrap();
        let report = alg.apply_batch(&[Update::Delete(EdgeId(1))]).unwrap();
        assert_eq!(report.matched_deletions, 0);
        assert_eq!(alg.matching_ids(), vec![EdgeId(0)]);
    }

    #[test]
    fn invalid_batches_are_typed_errors() {
        let mut alg = NaiveDynamicMatching::from_builder(&EngineBuilder::new(4).rank(2));
        assert_eq!(
            alg.apply_batch(&[Update::Delete(EdgeId(3))]),
            Err(BatchError::UnknownDeletion { id: EdgeId(3) })
        );
        assert!(matches!(
            alg.apply_batch(&[Update::Insert(HyperEdge::new(
                EdgeId(0),
                vec![VertexId(0), VertexId(1), VertexId(2)],
            ))]),
            Err(BatchError::RankExceeded { .. })
        ));
        assert_eq!(alg.metrics().batches, 0);
    }

    #[test]
    fn maximal_throughout_sliding_window() {
        let edges = gnm_graph(60, 200, 3, 0);
        let w = sliding_window(60, edges, 20, 4);
        check_after_every_batch(w.num_vertices, &w.batches);
    }

    #[test]
    fn maximal_throughout_random_churn() {
        let w = random_churn(80, 2, 150, 15, 40, 0.5, 7);
        check_after_every_batch(w.num_vertices, &w.batches);
    }

    #[test]
    fn maximal_throughout_hypergraph_churn() {
        let w = random_churn(50, 4, 100, 10, 30, 0.4, 11);
        check_after_every_batch(w.num_vertices, &w.batches);
    }

    #[test]
    fn teardown_empties_matching() {
        let edges = gnm_graph(40, 120, 5, 0);
        let w = insert_then_teardown(40, edges, 25, 2);
        let mut alg = NaiveDynamicMatching::new(w.num_vertices);
        alg.apply_all(&w.batches).unwrap();
        assert!(alg.matching_ids().is_empty());
        assert_eq!(alg.graph().num_edges(), 0);
        assert_eq!(alg.updates_processed(), w.total_updates() as u64);
    }

    #[test]
    fn depth_equals_number_of_updates() {
        let w = random_churn(30, 2, 20, 5, 10, 0.5, 3);
        let mut alg = NaiveDynamicMatching::new(w.num_vertices);
        alg.apply_all(&w.batches).unwrap();
        assert_eq!(alg.cost().total_depth(), w.total_updates() as u64);
        assert_eq!(alg.metrics().depth, w.total_updates() as u64);
    }

    #[test]
    fn state_roundtrip_continues_bit_identically() {
        let w = random_churn(50, 2, 90, 12, 25, 0.5, 17);
        let (prefix, tail) = w.batches.split_at(6);
        let mut a = NaiveDynamicMatching::new(w.num_vertices);
        a.apply_all(prefix).unwrap();
        let blob = a.save_state().unwrap();
        let mut b = NaiveDynamicMatching::new(w.num_vertices);
        b.restore_state(&blob).unwrap();
        // The restored engine re-serializes to the same canonical blob …
        assert_eq!(b.save_state().unwrap(), blob);
        // … and continues exactly like the original.
        for batch in tail {
            assert_eq!(a.apply_batch(batch).unwrap(), b.apply_batch(batch).unwrap());
        }
        assert_eq!(a.save_state(), b.save_state());
    }

    #[test]
    fn restore_rejects_foreign_or_stale_blobs() {
        let a = NaiveDynamicMatching::new(10);
        let blob = a.save_state().unwrap();
        let mut wrong_n = NaiveDynamicMatching::new(11);
        assert!(matches!(
            wrong_n.restore_state(&blob),
            Err(StateError::ConfigMismatch {
                field: "num_vertices",
                ..
            })
        ));
        let mut wrong_rank = NaiveDynamicMatching::from_builder(&EngineBuilder::new(10).rank(2));
        assert!(matches!(
            wrong_rank.restore_state(&blob),
            Err(StateError::ConfigMismatch {
                field: "max_rank",
                ..
            })
        ));
        let mut used = NaiveDynamicMatching::new(10);
        used.apply_batch(&[Update::Insert(HyperEdge::pair(
            EdgeId(0),
            VertexId(0),
            VertexId(1),
        ))])
        .unwrap();
        assert_eq!(
            used.restore_state(&blob),
            Err(StateError::NotFresh { batches: 1 })
        );
        let mut fresh = NaiveDynamicMatching::new(10);
        assert!(matches!(
            fresh.restore_state("engine naive-sequential\nn 10"),
            Err(StateError::Corrupt { .. })
        ));
    }

    proptest! {
        #[test]
        fn prop_naive_stays_maximal(
            seed in 0u64..500,
            batch_size in 1usize..30,
            p_ins in 0.2f64..0.8,
        ) {
            let w = random_churn(40, 2, 60, 8, batch_size, p_ins, seed);
            check_after_every_batch(w.num_vertices, &w.batches);
        }
    }
}
