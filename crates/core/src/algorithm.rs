//! The public batch-dynamic algorithm (§3.3 of the paper).
//!
//! [`ParallelDynamicMatching`] maintains a maximal matching of a rank-`r`
//! hypergraph under arbitrary batches of hyperedge insertions and deletions.  Each
//! batch is processed by the pipeline of §3.3:
//!
//! 1. deletions of unmatched (or temporarily deleted) hyperedges — the cheap case,
//! 2. deletions of matched hyperedges — the expensive case, handled by sweeping the
//!    levels from `L` down to `0` with `process-level` (Step 1 re-matches the freed
//!    neighbourhoods with the static parallel matcher, Step 2 raises heavy nodes
//!    with `grand-random-settle`),
//! 3. insertions — adversary insertions plus all algorithm-induced re-insertions
//!    (kicked-out matched edges and the contents of their `D(·)` buckets) are
//!    matched greedily-in-parallel among themselves and registered.
//!
//! The `N`-doubling rebuild of §3.2.1 and the per-batch cost/metric reporting used
//! by the experiments also live here.

use crate::config::Config;
use crate::invariants;
use crate::metrics::Metrics;
use crate::persist;
use crate::settle::{process_level, release_bucket_and_remove};
use crate::state::{EdgeList, MatcherState};
use pdmm_hypergraph::engine::{
    run_batch_trusted, BatchError, BatchKernel, BatchReport, EngineBuilder, EngineMetrics,
    EnginePool, KernelOutcome, MatchingEngine, MatchingIter, StateError, UpdateCounters,
    ValidatedBatch,
};
use pdmm_hypergraph::matching::MatchingDelta;
use pdmm_hypergraph::types::{EdgeId, HyperEdge, Update, VertexId};
use pdmm_primitives::cost_model::CostTracker;
use pdmm_static::luby::luby_maximal_matching_by_ref;
use rustc_hash::FxHashSet;

/// Parallel dynamic maximal matching for rank-`r` hypergraphs
/// (Ghaffari–Trygub, SPAA 2024).
///
/// ```
/// use pdmm_core::{EngineBuilder, MatchingEngine, ParallelDynamicMatching};
/// use pdmm_hypergraph::types::{EdgeId, HyperEdge, Update, VertexId};
///
/// let mut matcher =
///     ParallelDynamicMatching::from_builder(&EngineBuilder::new(4).seed(42));
/// matcher
///     .apply_batch(&[
///         Update::Insert(HyperEdge::pair(EdgeId(0), VertexId(0), VertexId(1))),
///         Update::Insert(HyperEdge::pair(EdgeId(1), VertexId(2), VertexId(3))),
///     ])
///     .unwrap();
/// assert_eq!(matcher.matching_size(), 2);
/// matcher.apply_batch(&[Update::Delete(EdgeId(0))]).unwrap();
/// assert_eq!(matcher.matching_size(), 1);
/// ```
#[derive(Debug)]
pub struct ParallelDynamicMatching {
    state: MatcherState,
    /// The worker pool every batch runs on (`EngineBuilder::threads`); with no
    /// thread budget, parallel phases use the process-global pool.
    pool: EnginePool,
}

impl ParallelDynamicMatching {
    /// Creates the algorithm over an empty hypergraph on `num_vertices` vertices.
    #[must_use]
    pub fn new(num_vertices: usize, config: Config) -> Self {
        ParallelDynamicMatching {
            state: MatcherState::new(num_vertices, config),
            pool: EnginePool::default(),
        }
    }

    /// Creates the algorithm from the engine-agnostic builder (the canonical
    /// constructor; `new` remains for algorithm-specific `Config` knobs).
    ///
    /// `builder.threads` bounds the worker pool all parallel phases of
    /// `apply_batch` run on; unset, the process-global pool is used.
    #[must_use]
    pub fn from_builder(builder: &EngineBuilder) -> Self {
        ParallelDynamicMatching {
            state: MatcherState::new(builder.num_vertices, Config::from_builder(builder)),
            pool: EnginePool::from_builder(builder),
        }
    }

    /// The worker count this engine is bounded to (`None`: global pool).
    #[must_use]
    pub fn num_threads(&self) -> Option<usize> {
        self.pool.num_threads()
    }

    /// Number of vertices.
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.state.num_vertices()
    }

    /// Current number of levels `L` of the leveling scheme.
    #[must_use]
    pub fn num_levels(&self) -> usize {
        self.state.num_levels()
    }

    /// Current matching size.
    #[must_use]
    pub fn matching_size(&self) -> usize {
        self.state.matching_size()
    }

    /// The current matching, iterated zero-copy out of the internal edge table.
    pub fn matching(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.state.matched_ids()
    }

    /// Ids of the currently matched hyperedges, collected into a vector.
    #[must_use]
    pub fn matching_ids(&self) -> Vec<EdgeId> {
        self.state.matched_edge_ids()
    }

    /// The matched edge covering `v`, if any.
    #[must_use]
    pub fn matched_edge_of(&self, v: VertexId) -> Option<EdgeId> {
        self.state.vertices[v.index()].matched_edge
    }

    /// Level of vertex `v` in the leveling scheme (`-1` iff unmatched).
    #[must_use]
    pub fn level_of(&self, v: VertexId) -> i32 {
        self.state.level_of(v)
    }

    /// The accumulated work/depth counters.
    #[must_use]
    pub fn cost(&self) -> &CostTracker {
        &self.state.cost
    }

    /// The accumulated epoch/update metrics of §4.2 (per-level epoch counts,
    /// settle counters, …).  The engine-agnostic counters every engine shares
    /// are available through [`MatchingEngine::metrics`].
    #[must_use]
    pub fn epoch_metrics(&self) -> &Metrics {
        &self.state.metrics
    }

    /// Number of temporarily deleted hyperedges currently parked in `D(·)` buckets.
    #[must_use]
    pub fn num_temp_deleted(&self) -> usize {
        self.state.edges.values().filter(|e| e.temp_deleted).count()
    }

    /// Verifies every structural invariant of §3.2 plus maximality.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn verify_invariants(&mut self) -> Result<(), String> {
        self.state.flush_dirty();
        invariants::check_all(&self.state)
    }
}

impl BatchKernel for ParallelDynamicMatching {
    /// The §3.3 batch pipeline proper; runs with the engine's pool ambient.
    fn run_kernel(&mut self, updates: &[Update]) -> KernelOutcome {
        let mut rebuilt = false;
        self.state.updates_since_rebuild += updates.len() as u64;

        // §3.2.1: once N more updates have arrived, double N and rebuild.
        if self.state.updates_since_rebuild + self.state.num_vertices() as u64
            > self.state.params.n_bound
        {
            self.rebuild();
            rebuilt = true;
        }

        // Categorize the batch (§3.3): unmatched deletions, matched deletions,
        // temporarily-deleted deletions, insertions.  The lists are the
        // state's, kept from batch to batch for their capacity.
        self.state.cost.round();
        self.state.cost.work(updates.len() as u64);
        let mut lists = std::mem::take(&mut self.state.lists);
        for update in updates {
            match update {
                Update::Insert(edge) => {
                    lists.insertions.push(edge.id, edge.vertices());
                }
                Update::Delete(id) => {
                    let e = self
                        .state
                        .edges
                        .get(id)
                        .expect("validated batch: deletion names a live edge");
                    if e.temp_deleted {
                        lists.temp_deleted_deletions.push(*id);
                    } else if e.matched {
                        lists.matched_deletions.push(*id);
                    } else {
                        lists.unmatched_deletions.push(*id);
                    }
                }
            }
        }
        let num_matched_deletions = lists.matched_deletions.len();
        self.state.metrics.temp_deleted_deletions = self
            .state
            .metrics
            .temp_deleted_deletions
            .saturating_add(lists.temp_deleted_deletions.len() as u64);

        // Group 1a: deleting temporarily deleted hyperedges — drop them and credit
        // the deletion to the responsible epoch (its "uninterrupted duration").
        self.state.cost.round();
        for &id in &lists.temp_deleted_deletions {
            if let Some(resp) = self.state.remove_edge_completely(id) {
                if let Some(resp_state) = self.state.edges.get_mut(&resp) {
                    resp_state.d_deleted_count = resp_state.d_deleted_count.saturating_add(1);
                }
            }
            self.state.cost.work(1);
        }

        // Group 1b: deleting unmatched hyperedges — just unhook them.
        for &id in &lists.unmatched_deletions {
            self.state.remove_edge_completely(id);
        }

        // Group 2: deleting matched hyperedges — expose their endpoints as
        // undecided, queue their D(·) buckets for re-insertion (after the
        // batch's own insertions), then sweep the levels from L down to 0.
        for &id in &lists.matched_deletions {
            let level = self.state.edges[&id].level;
            let d_deleted = self.state.edges[&id].d_deleted_count;
            self.state
                .metrics
                .record_epoch_natural_end(level, d_deleted);
            self.state.unmatch_edge(id);
            release_bucket_and_remove(&mut self.state, id, false, &mut lists.insertions);
        }
        if !self.state.undecided.is_empty() {
            for level in (0..=self.state.num_levels()).rev() {
                process_level(&mut self.state, level, &mut lists.insertions);
            }
        }
        debug_assert!(
            self.state.undecided.is_empty(),
            "all undecided nodes must be resolved by the level sweep"
        );

        // Group 3: insertions — adversary insertions plus algorithm re-insertions.
        self.process_insertions(&lists.insertions, &mut lists.newly_matched);

        // Optional ablation: also run the rising pass after insertions.
        if self.state.config.settle_after_insert {
            lists.insertions.clear();
            for level in (0..=self.state.num_levels()).rev() {
                process_level(&mut self.state, level, &mut lists.insertions);
            }
            self.process_insertions(&lists.insertions, &mut lists.newly_matched);
        }
        lists.clear();
        self.state.lists = lists;

        self.state.flush_dirty();
        if self.state.config.check_invariants {
            if let Err(msg) = invariants::check_all(&self.state) {
                panic!("invariant violated after batch: {msg}");
            }
        }

        KernelOutcome {
            matched_deletions: num_matched_deletions,
            rebuilt,
        }
    }

    fn record_batch(&mut self, delta: &UpdateCounters) {
        // Saturating: a restored blob may carry counters at `u64::MAX`.
        let metrics = &mut self.state.metrics;
        metrics.batches = metrics.batches.saturating_add(delta.batches);
        metrics.updates = metrics.updates.saturating_add(delta.updates);
        metrics.insertions = metrics.insertions.saturating_add(delta.insertions);
        metrics.deletions = metrics.deletions.saturating_add(delta.deletions);
        metrics.matched_deletions = metrics
            .matched_deletions
            .saturating_add(delta.matched_deletions);
        metrics.rebuilds = metrics.rebuilds.saturating_add(delta.rebuilds);
    }
}

impl ParallelDynamicMatching {
    /// §3.3.3: run the static parallel matcher over the inserted hyperedges whose
    /// endpoints are all free, place the newly matched ones (and their nodes) at
    /// level 0, and register every inserted hyperedge with its owner.  An
    /// empty list costs nothing.
    fn process_insertions(&mut self, edges: &EdgeList, newly_matched: &mut FxHashSet<EdgeId>) {
        if !edges.is_empty() {
            self.match_and_register(edges, newly_matched);
        }
    }

    /// The body of [`Self::process_insertions`], which the rebuild runs on
    /// every edge (all free then), even on none.  `newly_matched` is
    /// scratch, empty on entry and on return.
    fn match_and_register(&mut self, edges: &EdgeList, newly_matched: &mut FxHashSet<EdgeId>) {
        self.state.cost.round();
        self.state
            .cost
            .work(edges.iter().map(|(_, ends)| ends.len() as u64).sum::<u64>());

        let mut free: Vec<(EdgeId, &[VertexId])> = Vec::with_capacity(edges.len());
        free.extend(
            edges
                .iter()
                .filter(|(_, ends)| ends.iter().all(|&v| !self.state.is_matched_vertex(v))),
        );
        if !free.is_empty() {
            let result =
                luby_maximal_matching_by_ref(free, &mut self.state.rng, Some(&self.state.cost));
            self.state.metrics.luby_iterations = self
                .state
                .metrics
                .luby_iterations
                .saturating_add(result.iterations as u64);
            newly_matched.extend(result.edges);
        }

        // Register matched edges first so that the owner/level computation of the
        // remaining insertions sees the updated (level-0) endpoints.
        for (id, ends) in edges.iter().filter(|(id, _)| newly_matched.contains(id)) {
            self.state.register_edge(id, ends, true, 0);
            self.state.metrics.record_epoch_created(0, 0);
        }
        for (id, ends) in edges.iter().filter(|(id, _)| !newly_matched.contains(id)) {
            self.state.register_edge(id, ends, false, 0);
        }
        // Clearing a hash set walks its whole capacity, so a set that a bulk
        // load or a rebuild grew far past this batch is given up instead.
        if newly_matched.capacity() > 4 * edges.len().max(64) {
            *newly_matched = FxHashSet::default();
        } else {
            newly_matched.clear();
        }
    }

    /// §3.2.1: doubles `N`, rebuilds every data structure from scratch, and
    /// recomputes the matching with the static parallel algorithm.  (The
    /// `rebuilds` metric is counted by the shared scaffold via
    /// [`BatchKernel::record_batch`].)
    fn rebuild(&mut self) {
        let needed = self.state.num_vertices() as u64 + self.state.updates_since_rebuild;
        let new_params = self.state.params.doubled(needed);
        // The delta tracker survives the rebuild: the old matching leaves it
        // here, and edges the rebuild re-matches below cancel out again.  The
        // free lists and the per-batch lists survive too: each old edge's
        // endpoints go to the (empty) insertion list, its slices to the free
        // lists, and the edges register afresh from there.
        let mut delta = std::mem::take(&mut self.state.delta);
        let mut lists = std::mem::take(&mut self.state.lists);
        for (id, e) in std::mem::take(&mut self.state.edges) {
            if e.matched {
                delta.unmatched(id, &e.vertices);
            }
            lists.insertions.push(id, &e.vertices);
            self.state.recycle(e);
        }
        let num_vertices = self.state.num_vertices();
        let config = self.state.config.clone();
        // Preserve the RNG stream and accumulated counters across the rebuild.
        let rng = self.state.rng.clone();
        let cost = self.state.cost.clone();
        let metrics = self.state.metrics.clone();

        let mut fresh = MatcherState::with_params(num_vertices, config, new_params);
        fresh.rng = rng;
        fresh.cost = cost;
        fresh.metrics = metrics;
        fresh.delta = delta;
        fresh.spare = std::mem::take(&mut self.state.spare);
        fresh.metrics.ensure_level(fresh.params.num_levels);
        self.state = fresh;

        // Every endpoint is free now, so the insertion step matches and
        // registers every edge, charging what a static recompute does.
        self.match_and_register(&lists.insertions, &mut lists.newly_matched);
        lists.clear();
        self.state.lists = lists;
        self.state.updates_since_rebuild = 0;
        self.state.flush_dirty();
    }
}

impl MatchingEngine for ParallelDynamicMatching {
    fn name(&self) -> &'static str {
        "parallel-dynamic"
    }

    fn num_vertices(&self) -> usize {
        self.state.num_vertices()
    }

    fn max_rank(&self) -> usize {
        self.state.config.max_rank
    }

    fn contains_edge(&self, id: EdgeId) -> bool {
        // Temporarily deleted edges are still live from the adversary's view.
        self.state.edges.contains_key(&id)
    }

    fn live_edges(&self) -> Vec<HyperEdge> {
        let mut edges: Vec<HyperEdge> = self
            .state
            .edges
            .iter()
            .map(|(id, e)| HyperEdge::new(*id, e.vertices.to_vec()))
            .collect();
        edges.sort_unstable_by_key(|e| e.id);
        edges
    }

    fn for_each_incident_edge(&self, v: VertexId, f: &mut dyn FnMut(EdgeId, &[VertexId])) {
        let vertex = self.state.vertices.get(v.index()).into_iter();
        let ids = vertex.flat_map(|vs| vs.unowned.iter().chain([&vs.owned, &vs.parked]));
        for id in ids.flatten() {
            f(*id, &self.state.edges[id].vertices);
        }
    }

    fn apply_batch_trusted(
        &mut self,
        batch: ValidatedBatch<'_>,
    ) -> Result<BatchReport, BatchError> {
        // Run the shared scaffold on the engine's pool, bounded by
        // `EngineBuilder::threads`.  The only step beneath it that uses the
        // pool is Luby's priority map, and only while more than 2,048
        // candidate edges are alive; the rest of the kernel is sequential.
        let pool = self.pool.clone();
        Ok(pool.install(|| run_batch_trusted(self, batch)))
    }

    fn matching(&self) -> MatchingIter<'_> {
        MatchingIter::new(self.state.matched_ids())
    }

    fn take_matching_delta(&mut self) -> MatchingDelta {
        self.state.delta.take()
    }

    fn matching_size(&self) -> usize {
        self.state.matching_size()
    }

    fn verify(&mut self) -> Result<(), String> {
        self.verify_invariants()
    }

    fn metrics(&self) -> EngineMetrics {
        let metrics = &self.state.metrics;
        let cost = self.state.cost.snapshot();
        EngineMetrics {
            batches: metrics.batches,
            updates: metrics.updates,
            insertions: metrics.insertions,
            deletions: metrics.deletions,
            matched_deletions: metrics.matched_deletions,
            work: cost.work,
            depth: cost.depth,
            rebuilds: metrics.rebuilds,
        }
    }

    fn save_state(&self) -> Option<String> {
        persist::save(&self.state)
    }

    fn restore_state(&mut self, blob: &str) -> Result<(), StateError> {
        persist::restore(&mut self.state, blob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdmm_hypergraph::generators::gnm_graph;
    use pdmm_hypergraph::graph::DynamicHypergraph;
    use pdmm_hypergraph::matching::verify_maximality;
    use pdmm_hypergraph::types::UpdateBatch;

    fn pair(id: u64, a: u32, b: u32) -> HyperEdge {
        HyperEdge::pair(EdgeId(id), VertexId(a), VertexId(b))
    }

    /// Mirrors the updates into a ground-truth graph and checks maximality of the
    /// algorithm's matching against it after every batch.
    fn run_checked(num_vertices: usize, batches: &[UpdateBatch], config: Config) {
        let mut alg = ParallelDynamicMatching::new(num_vertices, config);
        let mut truth = DynamicHypergraph::new(num_vertices);
        for batch in batches {
            truth.apply_batch(batch);
            alg.apply_batch(batch).expect("valid batch");
            let ids = alg.matching_ids();
            assert_eq!(
                verify_maximality(&truth, &ids),
                Ok(()),
                "batch broke maximality"
            );
            alg.verify_invariants().expect("invariants must hold");
        }
    }

    #[test]
    fn insert_only_batch_matches_greedily() {
        let mut alg = ParallelDynamicMatching::new(6, Config::for_graphs(1));
        let report = alg
            .apply_batch(&[
                Update::Insert(pair(0, 0, 1)),
                Update::Insert(pair(1, 2, 3)),
                Update::Insert(pair(2, 4, 5)),
            ])
            .unwrap();
        assert_eq!(report.batch_size, 3);
        assert_eq!(report.matching_size, 3);
        assert!(report.depth >= 1);
        assert!(report.work >= 3);
        assert_eq!(alg.matching_size(), 3);
        assert_eq!(alg.level_of(VertexId(0)), 0);
    }

    #[test]
    fn delete_unmatched_edge_is_cheap() {
        let mut alg = ParallelDynamicMatching::new(4, Config::for_graphs(2));
        alg.apply_batch(&[Update::Insert(pair(0, 0, 1)), Update::Insert(pair(1, 1, 2))])
            .unwrap();
        assert_eq!(alg.matching_size(), 1);
        // The two edges conflict at vertex 1, so exactly one is matched; delete
        // the *unmatched* one and verify the matching is untouched.
        let matched = alg.matching_ids()[0];
        let unmatched = if matched == EdgeId(0) {
            EdgeId(1)
        } else {
            EdgeId(0)
        };
        let report = alg.apply_batch(&[Update::Delete(unmatched)]).unwrap();
        assert_eq!(report.matched_deletions, 0);
        assert_eq!(alg.matching_size(), 1);
        assert_eq!(alg.matching_ids(), vec![matched]);
    }

    #[test]
    fn delete_matched_edge_restores_maximality() {
        let config = Config::for_graphs(3).with_invariant_checks();
        let batches = vec![
            UpdateBatch::new(vec![
                Update::Insert(pair(0, 0, 1)),
                Update::Insert(pair(1, 1, 2)),
                Update::Insert(pair(2, 2, 3)),
                Update::Insert(pair(3, 3, 4)),
            ])
            .unwrap(),
            UpdateBatch::new(vec![Update::Delete(EdgeId(0))]).unwrap(),
            UpdateBatch::new(vec![Update::Delete(EdgeId(2))]).unwrap(),
        ];
        run_checked(5, &batches, config);
    }

    #[test]
    fn unmatched_vertices_sit_at_level_minus_one() {
        let mut alg =
            ParallelDynamicMatching::new(3, Config::for_graphs(4).with_invariant_checks());
        alg.apply_batch(&[Update::Insert(pair(0, 0, 1))]).unwrap();
        alg.apply_batch(&[Update::Delete(EdgeId(0))]).unwrap();
        assert_eq!(alg.matching_size(), 0);
        assert_eq!(alg.level_of(VertexId(0)), -1);
        assert_eq!(alg.level_of(VertexId(1)), -1);
        assert_eq!(alg.level_of(VertexId(2)), -1);
    }

    #[test]
    fn duplicate_endpoint_insert_and_reinsert_of_same_id_after_delete() {
        let mut alg =
            ParallelDynamicMatching::new(4, Config::for_graphs(5).with_invariant_checks());
        alg.apply_batch(&[Update::Insert(pair(0, 0, 1))]).unwrap();
        alg.apply_batch(&[Update::Delete(EdgeId(0))]).unwrap();
        // The same id may be reused after its deletion.
        alg.apply_batch(&[Update::Insert(pair(0, 2, 3))]).unwrap();
        assert_eq!(alg.matching_size(), 1);
    }

    #[test]
    fn invalid_batches_return_typed_errors_and_change_nothing() {
        let mut alg = ParallelDynamicMatching::new(3, Config::for_graphs(6));
        alg.apply_batch(&[Update::Insert(pair(0, 0, 1))]).unwrap();
        assert_eq!(
            alg.apply_batch(&[Update::Delete(EdgeId(77))]),
            Err(BatchError::UnknownDeletion { id: EdgeId(77) })
        );
        assert_eq!(
            alg.apply_batch(&[Update::Insert(pair(0, 1, 2))]),
            Err(BatchError::DuplicateEdgeId { id: EdgeId(0) })
        );
        assert!(matches!(
            alg.apply_batch(&[Update::Insert(HyperEdge::new(
                EdgeId(5),
                vec![VertexId(0), VertexId(1), VertexId(2)],
            ))]),
            Err(BatchError::RankExceeded { .. })
        ));
        // A rejected batch is rejected atomically: a valid prefix does not leak.
        assert_eq!(
            alg.apply_batch(&[Update::Insert(pair(9, 1, 2)), Update::Delete(EdgeId(42))]),
            Err(BatchError::UnknownDeletion { id: EdgeId(42) })
        );
        assert!(!MatchingEngine::contains_edge(&alg, EdgeId(9)));
        assert_eq!(alg.matching_size(), 1);
        assert_eq!(alg.metrics().batches, 1, "failed batches are not counted");
        alg.verify_invariants().unwrap();
    }

    #[test]
    fn rebuild_triggers_and_preserves_correctness() {
        // Tiny initial capacity forces the N-doubling rule to fire quickly.
        let mut config = Config::for_graphs(7).with_invariant_checks();
        config.initial_update_capacity = 0;
        let mut alg = ParallelDynamicMatching::new(8, config);
        let mut truth = DynamicHypergraph::new(8);
        let edges = gnm_graph(8, 20, 11, 0);
        let mut rebuilt = false;
        for chunk in edges.chunks(4) {
            let batch =
                UpdateBatch::new(chunk.iter().cloned().map(Update::Insert).collect()).unwrap();
            truth.apply_batch(&batch);
            let report = alg.apply_batch(&batch).unwrap();
            rebuilt |= report.rebuilt;
            assert_eq!(verify_maximality(&truth, &alg.matching_ids()), Ok(()));
        }
        assert!(
            rebuilt,
            "expected at least one rebuild with the tiny capacity"
        );
        assert!(alg.metrics().rebuilds >= 1);
    }

    #[test]
    fn batch_report_counts_are_consistent_with_metrics() {
        let mut alg = ParallelDynamicMatching::new(10, Config::for_graphs(8));
        let edges = gnm_graph(10, 15, 3, 0);
        let insert_batch =
            UpdateBatch::new(edges.iter().cloned().map(Update::Insert).collect()).unwrap();
        alg.apply_batch(&insert_batch).unwrap();
        let matched = alg.matching_ids();
        let delete_batch =
            UpdateBatch::new(matched.iter().map(|id| Update::Delete(*id)).collect()).unwrap();
        let report = alg.apply_batch(&delete_batch).unwrap();
        assert_eq!(report.matched_deletions, matched.len());
        assert_eq!(alg.metrics().matched_deletions, matched.len() as u64);
        assert_eq!(alg.metrics().batches, 2);
        assert_eq!(alg.metrics().updates, (edges.len() + matched.len()) as u64);
    }

    /// Save after a prefix, restore into a twin, and drive both through the
    /// tail asserting byte-identical canonical blobs at every batch boundary —
    /// the bit-exactness contract checkpoint recovery is built on.
    fn check_state_roundtrip(rank: usize, seed: u64, churn_seed: u64) {
        let w = pdmm_hypergraph::streams::random_churn(60, rank, 140, 14, 35, 0.5, churn_seed);
        let (prefix, tail) = w.batches.split_at(7);
        let builder = EngineBuilder::new(w.num_vertices).rank(rank).seed(seed);
        let mut a = ParallelDynamicMatching::from_builder(&builder);
        a.apply_all(prefix).unwrap();
        let blob = a.save_state().unwrap();
        // The twin's builder seed is irrelevant: the RNG position is restored
        // wholesale from the blob.
        let mut b =
            ParallelDynamicMatching::from_builder(&EngineBuilder::new(w.num_vertices).rank(rank));
        b.restore_state(&blob).unwrap();
        assert_eq!(b.save_state().unwrap(), blob);
        for batch in tail {
            assert_eq!(a.apply_batch(batch).unwrap(), b.apply_batch(batch).unwrap());
            assert_eq!(a.save_state(), b.save_state());
        }
        b.verify_invariants().expect("restored twin stays sound");
    }

    #[test]
    fn state_roundtrip_continues_bit_identically_on_graphs() {
        check_state_roundtrip(2, 7, 19);
    }

    #[test]
    fn state_roundtrip_continues_bit_identically_on_hypergraphs() {
        check_state_roundtrip(3, 11, 23);
    }

    #[test]
    fn state_roundtrip_survives_a_rebuild_in_the_tail() {
        // A tiny capacity forces the N-doubling rebuild to fire after the
        // restore point, exercising params re-derivation on both sides.
        let edges = gnm_graph(30, 600, 2, 4);
        let builder = EngineBuilder::new(30).rank(2).seed(3).capacity_hint(4);
        let batches: Vec<UpdateBatch> = edges
            .chunks(40)
            .map(|chunk| {
                UpdateBatch::new(chunk.iter().cloned().map(Update::Insert).collect()).unwrap()
            })
            .collect();
        let mut a = ParallelDynamicMatching::from_builder(&builder);
        a.apply_all(&batches[..3]).unwrap();
        let blob = a.save_state().unwrap();
        let mut b = ParallelDynamicMatching::from_builder(&builder);
        b.restore_state(&blob).unwrap();
        let mut rebuilt = false;
        for batch in &batches[3..] {
            let ra = a.apply_batch(batch).unwrap();
            assert_eq!(ra, b.apply_batch(batch).unwrap());
            rebuilt |= ra.rebuilt;
        }
        assert!(rebuilt, "tiny capacity must force a rebuild in the tail");
        assert_eq!(a.save_state(), b.save_state());
    }

    #[test]
    fn restore_rejects_foreign_and_corrupt_blobs() {
        let a = ParallelDynamicMatching::new(10, Config::for_graphs(1));
        let blob = a.save_state().unwrap();
        let mut wrong_n = ParallelDynamicMatching::new(11, Config::for_graphs(1));
        assert!(matches!(
            wrong_n.restore_state(&blob),
            Err(StateError::ConfigMismatch {
                field: "num_vertices",
                ..
            })
        ));
        let mut fresh = ParallelDynamicMatching::new(10, Config::for_graphs(1));
        assert!(matches!(
            fresh.restore_state("engine naive-sequential\n"),
            Err(StateError::EngineMismatch { .. })
        ));
        let mut fresh = ParallelDynamicMatching::new(10, Config::for_graphs(1));
        let truncated = &blob[..blob.len() / 2];
        assert!(matches!(
            fresh.restore_state(truncated),
            Err(StateError::Corrupt { .. })
        ));
        let mut used = ParallelDynamicMatching::new(10, Config::for_graphs(1));
        used.apply_batch(&[Update::Insert(pair(0, 0, 1))]).unwrap();
        assert_eq!(
            used.restore_state(&blob),
            Err(StateError::NotFresh { batches: 1 })
        );
    }
}
