//! Recompute-from-scratch engines: a static matcher behind the dynamic
//! [`MatchingEngine`] API.
//!
//! The obvious alternative to a dynamic algorithm: after every batch, throw the
//! old matching away and recompute a maximal matching of the *entire* current
//! graph.  Its work per batch is `Θ(M·r)` however small the batch is — the
//! baseline the dynamic algorithm must beat in experiment E4, whose crossover
//! point (batch size against graph size) is part of what that experiment
//! reports.  [`Recompute`] is that engine, generic over the
//! [`StaticMatcher`] it reruns; the two matchers bracket the recompute design
//! space:
//!
//! * [`LubyMatcher`] — the parallel matcher of Theorem 2.2, `O(log M)` deep
//!   but a log factor more work (`EngineKind::RecomputeSequential`);
//! * [`GreedyMatcher`] — the sequential scan of §3.1, work-optimal but `Θ(M)`
//!   deep (`EngineKind::StaticRecompute`), the work-efficiency yardstick of
//!   experiment E1.

use crate::greedy::greedy_maximal_matching;
use crate::luby::luby_maximal_matching;
use pdmm_hypergraph::engine::{
    read_state_counters, read_state_graph, read_state_header, read_state_rng, run_batch_trusted,
    write_state_counters, write_state_graph, write_state_header, write_state_rng, BatchError,
    BatchKernel, BatchReport, EngineBuilder, EngineMetrics, EnginePool, KernelOutcome,
    MatchingEngine, MatchingIter, StateError, StateParser, UpdateCounters, ValidatedBatch,
};
use pdmm_hypergraph::graph::DynamicHypergraph;
use pdmm_hypergraph::matching::{verify_maximality, DeltaTracker, MatchingDelta};
use pdmm_hypergraph::types::{EdgeId, HyperEdge, Update, VertexId};
use pdmm_primitives::cost_model::CostTracker;
use pdmm_primitives::random::RandomSource;
use rustc_hash::FxHashSet;

/// A static maximal matcher that [`Recompute`] reruns over the whole graph
/// after every batch.
pub trait StaticMatcher: Sized {
    /// The engine's [`MatchingEngine::name`].
    const NAME: &'static str;

    /// Builds the matcher from the engine-agnostic builder.
    fn from_builder(builder: &EngineBuilder) -> Self;

    /// A maximal matching of `edges`, the live edges in ascending id order,
    /// with its work and depth charged to `cost`.  The result must be a pure
    /// function of `edges` and the matcher's state, which checkpoint recovery
    /// relies on.
    fn maximal_matching(&mut self, edges: &[HyperEdge], cost: &CostTracker) -> Vec<EdgeId>;

    /// Writes the matcher's state lines of the engine's blob, between its
    /// counters and its graph.
    fn write_state(&self, out: &mut String);

    /// Reads back what [`StaticMatcher::write_state`] wrote, as a new
    /// matcher, leaving `self` untouched.
    ///
    /// # Errors
    ///
    /// [`StateError::Corrupt`] if the lines are missing or malformed.
    fn read_state(&self, p: &mut StateParser<'_>) -> Result<Self, StateError>;
}

/// Luby's parallel matcher (Theorem 2.2), run on the engine's pool: the
/// matcher of `EngineKind::RecomputeSequential`.
#[derive(Debug)]
pub struct LubyMatcher {
    rng: RandomSource,
    /// Pool the recomputation runs on (`EngineBuilder::threads`).
    pool: EnginePool,
}

impl StaticMatcher for LubyMatcher {
    const NAME: &'static str = "recompute-from-scratch";

    fn from_builder(builder: &EngineBuilder) -> Self {
        LubyMatcher {
            rng: RandomSource::from_seed(builder.seed),
            pool: EnginePool::from_builder(builder),
        }
    }

    fn maximal_matching(&mut self, edges: &[HyperEdge], cost: &CostTracker) -> Vec<EdgeId> {
        // Applying the batch to the graph is one parallel round; the
        // sequential greedy scan charges none for it.
        cost.round();
        // Luby's selected *set* is order-independent (stateless per-edge
        // priorities), but its result vector follows input order, which the
        // caller fixes.
        let rng = &mut self.rng;
        self.pool
            .install(|| luby_maximal_matching(edges, rng, Some(cost)))
            .edges
    }

    fn write_state(&self, out: &mut String) {
        let (words, index) = self.rng.state();
        write_state_rng(out, words, index);
    }

    fn read_state(&self, p: &mut StateParser<'_>) -> Result<Self, StateError> {
        let (words, index) = read_state_rng(p)?;
        Ok(LubyMatcher {
            rng: RandomSource::from_state(words, index),
            pool: self.pool.clone(),
        })
    }
}

/// The sequential greedy scan of §3.1: the matcher of
/// `EngineKind::StaticRecompute`.  It is deterministic, so the builder's seed
/// is unused and the blob holds no matcher state.
#[derive(Debug)]
pub struct GreedyMatcher;

impl StaticMatcher for GreedyMatcher {
    const NAME: &'static str = "static-recompute";

    fn from_builder(_builder: &EngineBuilder) -> Self {
        GreedyMatcher
    }

    fn maximal_matching(&mut self, edges: &[HyperEdge], cost: &CostTracker) -> Vec<EdgeId> {
        greedy_maximal_matching(edges, Some(cost))
    }

    fn write_state(&self, _out: &mut String) {}

    fn read_state(&self, _p: &mut StateParser<'_>) -> Result<Self, StateError> {
        Ok(GreedyMatcher)
    }
}

/// Baseline engine that recomputes a maximal matching of the whole graph
/// with the static matcher `M` after every batch.
#[derive(Debug)]
pub struct Recompute<M> {
    graph: DynamicHypergraph,
    matching: Vec<EdgeId>,
    /// Net matching change since the last `take_matching_delta`.
    delta: DeltaTracker,
    matcher: M,
    cost: CostTracker,
    counters: UpdateCounters,
    max_rank: usize,
}

impl<M: StaticMatcher> Recompute<M> {
    /// Creates the engine over an empty graph from the engine-agnostic
    /// builder.
    #[must_use]
    pub fn from_builder(builder: &EngineBuilder) -> Self {
        Recompute {
            graph: DynamicHypergraph::new(builder.num_vertices),
            matching: Vec::new(),
            delta: DeltaTracker::default(),
            matcher: M::from_builder(builder),
            cost: CostTracker::new(),
            counters: UpdateCounters::default(),
            max_rank: builder.max_rank,
        }
    }
}

impl<M: StaticMatcher> MatchingEngine for Recompute<M> {
    fn name(&self) -> &'static str {
        M::NAME
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

    fn save_state(&self) -> Option<String> {
        use std::fmt::Write as _;
        let mut out = String::new();
        let cost = self.cost.snapshot();
        write_state_header(&mut out, self.name(), self.num_vertices(), self.max_rank);
        write_state_counters(&mut out, &self.counters, cost.work, cost.depth);
        self.matcher.write_state(&mut out);
        write_state_graph(&mut out, &self.graph);
        // Verbatim order: the kernel recomputes over id-sorted edges, so the
        // matching vector is a pure function of the graph and the matcher.
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
        let matcher = self.matcher.read_state(&mut p)?;
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
        self.matcher = matcher;
        self.counters = counters;
        self.cost = CostTracker::new();
        self.cost.work(work);
        self.cost.rounds(depth);
        Ok(())
    }
}

impl<M: StaticMatcher> BatchKernel for Recompute<M> {
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
        // Canonical (ascending id) input order keeps `self.matching` a pure
        // function of the graph and the matcher's state.
        let edges = self.graph.snapshot_edges();
        self.matching = self.matcher.maximal_matching(&edges, &self.cost);
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
    use pdmm_hypergraph::types::VertexId;

    fn engine<M: StaticMatcher>(num_vertices: usize, rank: usize, seed: u64) -> Recompute<M> {
        Recompute::from_builder(&EngineBuilder::new(num_vertices).rank(rank).seed(seed))
    }

    fn maximal_after_every_batch_and_deterministic<M: StaticMatcher>() {
        let w = random_churn(60, 2, 120, 10, 30, 0.5, 5);
        let mut a = engine::<M>(w.num_vertices, 2, 1);
        let mut b = engine::<M>(w.num_vertices, 2, 1);
        for batch in &w.batches {
            a.apply_batch(batch).unwrap();
            b.apply_batch(batch).unwrap();
            a.verify().unwrap();
            // Same graph, same matcher state: identical matchings.
            assert_eq!(a.matching_ids(), b.matching_ids());
        }
    }

    #[test]
    fn both_matchers_stay_maximal_and_deterministic() {
        maximal_after_every_batch_and_deterministic::<LubyMatcher>();
        maximal_after_every_batch_and_deterministic::<GreedyMatcher>();
    }

    fn work_for<M: StaticMatcher>(n: usize, m: usize) -> u64 {
        let edges = gnm_graph(n, m, 1, 0);
        let ids: Vec<_> = edges.iter().map(|e| e.id).collect();
        let mut alg = engine::<M>(n, 2, 1);
        let batch: Vec<Update> = edges.into_iter().map(Update::Insert).collect();
        alg.apply_batch(&batch).unwrap();
        let before = alg.metrics().work;
        for id in ids.iter().take(10) {
            alg.apply_batch(&[Update::Delete(*id)]).unwrap();
        }
        alg.metrics().work - before
    }

    #[test]
    fn work_scales_with_graph_size_not_batch_size() {
        // The same ten single-deletion batches cost far more work on the
        // larger graph, because recomputation touches the whole graph.
        for (small, large) in [
            (
                work_for::<LubyMatcher>(40, 100),
                work_for::<LubyMatcher>(400, 4000),
            ),
            (
                work_for::<GreedyMatcher>(40, 100),
                work_for::<GreedyMatcher>(400, 4000),
            ),
        ] {
            assert!(
                large > small * 5,
                "large-graph recompute work {large} should dwarf small-graph work {small}"
            );
        }
    }

    fn teardown_empties_matching<M: StaticMatcher>() {
        let edges = gnm_graph(40, 150, 3, 0);
        let w = insert_then_teardown(40, edges, 25, 2);
        let mut alg = engine::<M>(w.num_vertices, 2, 0);
        let reports = alg.apply_all(&w.batches).unwrap();
        assert_eq!(alg.matching_size(), 0);
        assert!(reports.iter().any(|r| r.matched_deletions > 0));
        assert_eq!(alg.metrics().updates, w.total_updates() as u64);
    }

    #[test]
    fn teardown_empties_the_matching_of_both_matchers() {
        teardown_empties_matching::<LubyMatcher>();
        teardown_empties_matching::<GreedyMatcher>();
    }

    fn state_roundtrip_continues_bit_identically<M: StaticMatcher>() {
        let w = random_churn(60, 3, 110, 12, 28, 0.5, 31);
        let (prefix, tail) = w.batches.split_at(6);
        let mut a = engine::<M>(w.num_vertices, 3, 5);
        a.apply_all(prefix).unwrap();
        let blob = a.save_state().unwrap();
        // Restored twin with a different builder seed: any matcher state
        // comes from the blob, so every future recomputation agrees.
        let mut b = engine::<M>(w.num_vertices, 3, 777);
        b.restore_state(&blob).unwrap();
        assert_eq!(b.save_state().unwrap(), blob);
        for batch in tail {
            assert_eq!(a.apply_batch(batch).unwrap(), b.apply_batch(batch).unwrap());
        }
        assert_eq!(a.save_state(), b.save_state());
        assert_eq!(a.matching_ids(), b.matching_ids());
    }

    #[test]
    fn state_roundtrip_continues_bit_identically_for_both_matchers() {
        state_roundtrip_continues_bit_identically::<LubyMatcher>();
        state_roundtrip_continues_bit_identically::<GreedyMatcher>();
    }

    fn invalid_batches_are_typed_errors<M: StaticMatcher>(name: &str) {
        let mut alg = engine::<M>(4, 2, 0);
        assert_eq!(alg.name(), name);
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
    }

    #[test]
    fn invalid_batches_are_typed_errors_and_names_are_stable() {
        invalid_batches_are_typed_errors::<LubyMatcher>("recompute-from-scratch");
        invalid_batches_are_typed_errors::<GreedyMatcher>("static-recompute");
    }
}
