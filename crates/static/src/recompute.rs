//! Static-recompute adapter: the crate's static matchers behind the dynamic
//! [`MatchingEngine`] API.
//!
//! The adapter maintains the ground-truth graph and, after every batch, throws the
//! old matching away and recomputes one with the **sequential greedy scan** of
//! §3.1 — the work-efficiency yardstick of experiment E1.  Together with
//! `pdmm-seq-dynamic`'s `RecomputeFromScratch` (which recomputes with the
//! *parallel* Luby matcher of Theorem 2.2) this brackets the recompute design
//! space: greedy is work-optimal per recomputation but `Θ(M)` deep; Luby is
//! `O(log M)` deep but pays a log factor of work.

use crate::greedy::greedy_maximal_matching;
use pdmm_hypergraph::engine::{
    read_state_counters, read_state_graph, read_state_header, run_batch_trusted,
    write_state_counters, write_state_graph, write_state_header, BatchError, BatchKernel,
    BatchReport, EngineBuilder, EngineMetrics, KernelOutcome, MatchingEngine, MatchingIter,
    RepairError, StateError, StateParser, UpdateCounters, ValidatedBatch,
};
use pdmm_hypergraph::graph::DynamicHypergraph;
use pdmm_hypergraph::matching::{verify_maximality, DeltaTracker, MatchingDelta};
use pdmm_hypergraph::types::{EdgeId, Update, VertexId};
use pdmm_primitives::cost_model::CostTracker;
use rustc_hash::FxHashSet;

/// Adapter driving the static greedy matcher through the dynamic engine API.
#[derive(Debug)]
pub struct StaticRecompute {
    graph: DynamicHypergraph,
    matching: Vec<EdgeId>,
    /// Net matching change since the last `take_matching_delta`.
    delta: DeltaTracker,
    cost: CostTracker,
    counters: UpdateCounters,
    max_rank: usize,
}

impl StaticRecompute {
    /// Creates the adapter over an empty graph with `num_vertices` vertices and
    /// no rank restriction.
    #[must_use]
    pub fn new(num_vertices: usize) -> Self {
        StaticRecompute {
            graph: DynamicHypergraph::new(num_vertices),
            matching: Vec::new(),
            delta: DeltaTracker::default(),
            cost: CostTracker::new(),
            counters: UpdateCounters::default(),
            max_rank: usize::MAX,
        }
    }

    /// Creates the adapter from the engine-agnostic builder (the greedy scan is
    /// deterministic, so the builder's seed is unused).
    #[must_use]
    pub fn from_builder(builder: &EngineBuilder) -> Self {
        let mut alg = Self::new(builder.num_vertices);
        alg.max_rank = builder.max_rank;
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

impl MatchingEngine for StaticRecompute {
    fn name(&self) -> &'static str {
        "static-recompute"
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
        write_state_graph(&mut out, &self.graph);
        // Verbatim order: the greedy scan over id-sorted edges is
        // deterministic, so this vector is a pure function of the graph.
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
        self.counters = counters;
        self.cost = CostTracker::new();
        self.cost.work(work);
        self.cost.rounds(depth);
        Ok(())
    }
}

impl BatchKernel for StaticRecompute {
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
        // Deterministic recompute: scan the live edges in id order, as the §3.1
        // yardstick does.
        let mut edges = self.graph.snapshot_edges();
        edges.sort_by_key(|e| e.id);
        self.matching = greedy_maximal_matching(&edges, Some(&self.cost));
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
    use pdmm_hypergraph::streams::{insert_then_teardown, random_churn};
    use pdmm_hypergraph::types::{HyperEdge, VertexId};

    #[test]
    fn maximal_after_every_batch_and_deterministic() {
        let w = random_churn(60, 2, 120, 10, 30, 0.5, 5);
        let mut a = StaticRecompute::new(w.num_vertices);
        let mut b = StaticRecompute::new(w.num_vertices);
        for batch in &w.batches {
            a.apply_batch(batch).unwrap();
            b.apply_batch(batch).unwrap();
            assert_eq!(verify_maximality(a.graph(), &a.matching_ids()), Ok(()));
            // Greedy over id-sorted edges has no randomness: identical matchings.
            assert_eq!(a.matching_ids(), b.matching_ids());
        }
        a.verify().unwrap();
    }

    #[test]
    fn teardown_empties_matching() {
        let edges = gnm_graph(40, 150, 3, 0);
        let w = insert_then_teardown(40, edges, 25, 2);
        let mut alg = StaticRecompute::new(w.num_vertices);
        let reports = alg.apply_all(&w.batches).unwrap();
        assert_eq!(alg.matching_size(), 0);
        assert!(reports.iter().any(|r| r.matched_deletions > 0));
        assert_eq!(alg.metrics().updates, w.total_updates() as u64);
    }

    #[test]
    fn state_roundtrip_continues_bit_identically() {
        let w = random_churn(50, 2, 100, 10, 25, 0.5, 13);
        let (prefix, tail) = w.batches.split_at(5);
        let mut a = StaticRecompute::new(w.num_vertices);
        a.apply_all(prefix).unwrap();
        let blob = a.save_state().unwrap();
        let mut b = StaticRecompute::new(w.num_vertices);
        b.restore_state(&blob).unwrap();
        assert_eq!(b.save_state().unwrap(), blob);
        for batch in tail {
            assert_eq!(a.apply_batch(batch).unwrap(), b.apply_batch(batch).unwrap());
        }
        assert_eq!(a.save_state(), b.save_state());
    }

    #[test]
    fn invalid_batches_are_typed_errors() {
        let mut alg = StaticRecompute::from_builder(&EngineBuilder::new(4).rank(2));
        assert_eq!(
            alg.apply_batch(&[Update::Delete(EdgeId(0))]),
            Err(BatchError::UnknownDeletion { id: EdgeId(0) })
        );
        assert!(matches!(
            alg.apply_batch(&[Update::Insert(HyperEdge::pair(
                EdgeId(0),
                VertexId(0),
                VertexId(9),
            ))]),
            Err(BatchError::VertexOutOfRange { .. })
        ));
        assert_eq!(alg.name(), "static-recompute");
    }
}
