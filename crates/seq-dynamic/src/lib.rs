//! # pdmm-seq-dynamic
//!
//! The sequential dynamic maximal-matching baselines of the Parallel Dynamic
//! Maximal Matching reproduction (Ghaffari & Trygub, SPAA 2024), as one
//! engine: [`SequentialRepair`] processes updates one at a time and, when a
//! matched hyperedge is deleted, re-covers each exposed endpoint with a free
//! incident hyperedge.  Its two replacement rules differ only in which free
//! hyperedge an endpoint takes:
//!
//! * [`SequentialRepair::first_free`] — the §3.1 strawman
//!   (`EngineKind::NaiveSequential`): the first one found;
//! * [`SequentialRepair::uniform_random`] — a uniformly random one
//!   (`EngineKind::RandomReplace`), the raw intuition behind random-settle
//!   \[BGS11, Sol16\] without a leveling scheme.
//!
//! The recompute-from-scratch baselines (Theorem 2.2 or the greedy scan used
//! statically after every batch) are `pdmm-static`'s `Recompute` engine.
//!
//! The *leveled* sequential dynamic algorithm of \[BGS11\]/\[AS21\] is obtained by
//! driving the paper's algorithm (`pdmm-core`) with single-update batches; the
//! experiment harness (`pdmm-bench`) does exactly that for experiment E5, so it is
//! not duplicated here.
//!
//! Every baseline implements the workspace-wide
//! [`pdmm_hypergraph::engine::MatchingEngine`] trait and is constructed from the
//! same [`pdmm_hypergraph::engine::EngineBuilder`] as the parallel algorithm, so
//! the harness and the conformance tests drive all of them identically.

#![deny(missing_docs)]
#![warn(clippy::all)]

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

/// Which free incident hyperedge an exposed endpoint takes.
#[derive(Debug)]
enum Rule {
    /// The first in ascending id order.
    FirstFree,
    /// One drawn uniformly from all of them.
    UniformRandom(RandomSource),
}

/// Sequential dynamic maximal matching by local repair.
///
/// Updates are processed one by one, each one round of depth, so a batch of
/// `k` updates is `Θ(k)` deep.  An insertion whose endpoints are all free
/// joins the matching.  When a matched hyperedge is deleted, each exposed
/// endpoint scans its incident hyperedges in ascending id order and takes a
/// free one, if any, by the engine's rule.  Per-update work is
/// `O(Σ_{v ∈ e} deg(v) · r)` in the worst case — the quantity the leveling
/// scheme of the real algorithms is designed to avoid.  The random rule has
/// no amortized guarantee either, but against an oblivious adversary it
/// spreads the expensive repairs over the adversary's deletions in practice:
/// the middle baseline between the strawman and the real algorithm in
/// experiments E5 and E10.
#[derive(Debug)]
pub struct SequentialRepair {
    graph: DynamicHypergraph,
    matching: Matching,
    rule: Rule,
    cost: CostTracker,
    counters: UpdateCounters,
    max_rank: usize,
}

impl SequentialRepair {
    /// The §3.1 strawman over an empty graph: an exposed endpoint takes the
    /// first free hyperedge it finds (`EngineKind::NaiveSequential`).
    #[must_use]
    pub fn first_free(builder: &EngineBuilder) -> Self {
        Self::with_rule(builder, Rule::FirstFree)
    }

    /// Randomized repair over an empty graph: an exposed endpoint takes a
    /// uniformly random free hyperedge, drawn from a generator seeded with
    /// the builder's seed (`EngineKind::RandomReplace`).
    #[must_use]
    pub fn uniform_random(builder: &EngineBuilder) -> Self {
        let rng = RandomSource::from_seed(builder.seed);
        Self::with_rule(builder, Rule::UniformRandom(rng))
    }

    fn with_rule(builder: &EngineBuilder, rule: Rule) -> Self {
        SequentialRepair {
            graph: DynamicHypergraph::new(builder.num_vertices),
            matching: Matching::new(),
            rule,
            cost: CostTracker::new(),
            counters: UpdateCounters::default(),
            max_rank: builder.max_rank,
        }
    }

    fn handle_insert(&mut self, edge: &HyperEdge) {
        self.cost.work(edge.rank() as u64);
        self.graph.insert_edge(edge.clone());
        if is_free(&self.matching, edge) {
            self.matching.add(edge);
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
        // Restore maximality: only edges incident to the exposed endpoints can
        // have become addable.
        for &v in edge.vertices() {
            if self.matching.is_matched(v) {
                continue;
            }
            let incident = self.graph.incident_edges(v);
            self.cost.work(incident.len() as u64);
            if let Some(pick) = self.pick(&incident) {
                self.matching.add(&pick);
            }
        }
        true
    }

    /// The free edge among `incident` that the rule takes, if any.
    /// First-free charges the rank of every candidate it examines, up to and
    /// including the one it takes; uniform-random charges the ranks of the
    /// free candidates it draws among, and draws only when there is one.
    fn pick(&mut self, incident: &[EdgeId]) -> Option<HyperEdge> {
        let (graph, matching, cost) = (&self.graph, &self.matching, &self.cost);
        let mut candidates = incident
            .iter()
            .map(|id| graph.edge(*id).expect("incident edge must be live"));
        match &mut self.rule {
            Rule::FirstFree => candidates
                .find(|cand| {
                    cost.work(cand.rank() as u64);
                    is_free(matching, cand)
                })
                .cloned(),
            Rule::UniformRandom(rng) => {
                let free: Vec<&HyperEdge> = candidates.filter(|c| is_free(matching, c)).collect();
                cost.work(free.iter().map(|e| e.rank() as u64).sum::<u64>());
                (!free.is_empty())
                    .then(|| free[rng.uniform_below(free.len() as u64) as usize].clone())
            }
        }
    }
}

/// Whether every endpoint of `edge` is free in `matching`.
fn is_free(matching: &Matching, edge: &HyperEdge) -> bool {
    edge.vertices().iter().all(|&v| !matching.is_matched(v))
}

impl MatchingEngine for SequentialRepair {
    fn name(&self) -> &'static str {
        match self.rule {
            Rule::FirstFree => "naive-sequential",
            Rule::UniformRandom(_) => "random-replace-sequential",
        }
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
        use std::fmt::Write as _;
        let mut out = String::new();
        let cost = self.cost.snapshot();
        write_state_header(&mut out, self.name(), self.num_vertices(), self.max_rank);
        write_state_counters(&mut out, &self.counters, cost.work, cost.depth);
        if let Rule::UniformRandom(rng) = &self.rule {
            let (words, index) = rng.state();
            write_state_rng(&mut out, words, index);
        }
        write_state_graph(&mut out, &self.graph);
        // Ascending ids, a canonical order: no repair decision depends on the
        // matching's iteration order.
        let mut ids = self.matching.edge_ids();
        ids.sort_unstable();
        out.push_str("matched");
        for id in ids {
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
        let rule = match self.rule {
            Rule::FirstFree => Rule::FirstFree,
            Rule::UniformRandom(_) => {
                let (words, index) = read_state_rng(&mut p)?;
                Rule::UniformRandom(RandomSource::from_state(words, index))
            }
        };
        let graph = read_state_graph(&mut p, self.num_vertices(), self.max_rank)?;
        let rest = p.tagged("matched")?;
        let mut matching = Matching::new();
        for tok in rest.split_whitespace() {
            let id = EdgeId(p.parse_token(tok, "matched edge id")?);
            let Some(edge) = graph.edge(id) else {
                return Err(p.corrupt(format!("matched edge {id} is not live")));
            };
            if !is_free(&matching, edge) {
                return Err(p.corrupt(format!("matched edge {id} conflicts with another")));
            }
            matching.add(edge);
        }
        p.finish()?;
        self.graph = graph;
        self.matching = matching;
        self.rule = rule;
        self.counters = counters;
        self.cost = CostTracker::new();
        self.cost.work(work);
        self.cost.rounds(depth);
        Ok(())
    }
}

impl BatchKernel for SequentialRepair {
    fn run_kernel(&mut self, updates: &[Update]) -> KernelOutcome {
        let mut outcome = KernelOutcome::default();
        for update in updates {
            // Each update is one sequential step: depth grows linearly in the batch.
            self.cost.round();
            match update {
                Update::Insert(edge) => self.handle_insert(edge),
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
    use pdmm_hypergraph::streams::{insert_then_teardown, random_churn, sliding_window, Workload};
    use proptest::prelude::*;

    /// One engine under each rule, from the same builder.
    fn both(builder: &EngineBuilder) -> [SequentialRepair; 2] {
        [
            SequentialRepair::first_free(builder),
            SequentialRepair::uniform_random(builder),
        ]
    }

    /// A fresh engine under `alg`'s rule, from another builder.
    fn same_rule(alg: &SequentialRepair, builder: &EngineBuilder) -> SequentialRepair {
        match alg.rule {
            Rule::FirstFree => SequentialRepair::first_free(builder),
            Rule::UniformRandom(_) => SequentialRepair::uniform_random(builder),
        }
    }

    fn pair(id: u64, a: u32, b: u32) -> Update {
        Update::Insert(HyperEdge::pair(EdgeId(id), VertexId(a), VertexId(b)))
    }

    /// Runs `w` under both rules (the random one seeded with `seed`),
    /// checking maximality after every batch.
    fn check_after_every_batch(w: &Workload, seed: u64) {
        let builder = EngineBuilder::new(w.num_vertices).rank(w.rank).seed(seed);
        for mut alg in both(&builder) {
            for batch in &w.batches {
                alg.apply_batch(batch).unwrap();
                let ids = alg.matching_ids();
                assert_eq!(
                    verify_maximality(&alg.graph, &ids),
                    Ok(()),
                    "{}",
                    alg.name()
                );
            }
        }
    }

    #[test]
    fn insert_free_edge_joins_matching() {
        for mut alg in both(&EngineBuilder::new(4)) {
            alg.apply_batch(&[pair(0, 0, 1)]).unwrap();
            assert_eq!(alg.matching_ids(), vec![EdgeId(0)]);
        }
    }

    #[test]
    fn delete_matched_edge_repairs_maximality() {
        for mut alg in both(&EngineBuilder::new(4)) {
            // Path 0-1-2-3: (0,1) and (2,3) are matched; deleting (0,1)
            // leaves (1,2) blocked, and the matching must stay maximal.
            alg.apply_batch(&[pair(0, 0, 1), pair(1, 1, 2), pair(2, 2, 3)])
                .unwrap();
            let report = alg.apply_batch(&[Update::Delete(EdgeId(0))]).unwrap();
            assert_eq!(report.matched_deletions, 1);
            let ids = alg.matching_ids();
            assert_eq!(verify_maximality(&alg.graph, &ids), Ok(()));
        }
    }

    #[test]
    fn deleting_unmatched_edge_is_cheap_and_safe() {
        for mut alg in both(&EngineBuilder::new(4)) {
            alg.apply_batch(&[pair(0, 0, 1), pair(1, 1, 2)]).unwrap();
            let report = alg.apply_batch(&[Update::Delete(EdgeId(1))]).unwrap();
            assert_eq!(report.matched_deletions, 0);
            assert_eq!(alg.matching_ids(), vec![EdgeId(0)]);
        }
    }

    #[test]
    fn invalid_batches_are_typed_errors() {
        for mut alg in both(&EngineBuilder::new(4).rank(2).seed(1)) {
            assert_eq!(
                alg.apply_batch(&[Update::Delete(EdgeId(3))]),
                Err(BatchError::UnknownDeletion { id: EdgeId(3) })
            );
            // The builder's rank is enforced.
            assert!(matches!(
                alg.apply_batch(&[Update::Insert(HyperEdge::new(
                    EdgeId(0),
                    vec![VertexId(0), VertexId(1), VertexId(2)],
                ))]),
                Err(BatchError::RankExceeded { .. })
            ));
            assert_eq!(alg.metrics().batches, 0);
        }
    }

    #[test]
    fn maximal_throughout_sliding_window() {
        let edges = gnm_graph(60, 200, 3, 0);
        check_after_every_batch(&sliding_window(60, edges, 20, 4), 41);
    }

    #[test]
    fn maximal_throughout_teardown() {
        let edges = gnm_graph(50, 180, 2, 0);
        check_after_every_batch(&insert_then_teardown(50, edges, 30, 1), 42);
    }

    #[test]
    fn maximal_throughout_random_churn() {
        check_after_every_batch(&random_churn(80, 2, 150, 15, 40, 0.5, 7), 43);
    }

    #[test]
    fn maximal_throughout_churn_rank_three() {
        check_after_every_batch(&random_churn(60, 3, 120, 12, 30, 0.45, 5), 44);
    }

    #[test]
    fn maximal_throughout_hypergraph_churn() {
        check_after_every_batch(&random_churn(50, 4, 100, 10, 30, 0.4, 11), 45);
    }

    #[test]
    fn teardown_empties_matching() {
        let edges = gnm_graph(40, 120, 5, 0);
        let w = insert_then_teardown(40, edges, 25, 2);
        for mut alg in both(&EngineBuilder::new(w.num_vertices)) {
            alg.apply_all(&w.batches).unwrap();
            assert!(alg.matching_ids().is_empty());
            assert_eq!(alg.graph.num_edges(), 0);
            assert_eq!(alg.metrics().updates, w.total_updates() as u64);
        }
    }

    #[test]
    fn depth_equals_number_of_updates() {
        let w = random_churn(30, 2, 20, 5, 10, 0.5, 3);
        for mut alg in both(&EngineBuilder::new(w.num_vertices)) {
            alg.apply_all(&w.batches).unwrap();
            assert_eq!(alg.cost.total_depth(), w.total_updates() as u64);
            assert_eq!(alg.metrics().depth, w.total_updates() as u64);
        }
    }

    #[test]
    fn different_seeds_may_pick_different_matchings() {
        let edges = gnm_graph(30, 120, 4, 0);
        let w = insert_then_teardown(30, edges, 10, 9);
        // Only the first two thirds of the batches, so matchings are non-empty.
        let prefix = &w.batches[..w.batches.len() * 2 / 3];
        for seed in [1, 2] {
            let mut alg = SequentialRepair::uniform_random(&EngineBuilder::new(30).seed(seed));
            alg.apply_all(prefix).unwrap();
            // Maximal regardless of the coin flips.
            assert_eq!(verify_maximality(&alg.graph, &alg.matching_ids()), Ok(()));
        }
    }

    #[test]
    fn state_roundtrip_continues_bit_identically() {
        // Enough matched deletions that the random rule draws both before
        // and after the save point.
        let w = random_churn(40, 2, 100, 14, 30, 0.45, 23);
        let (prefix, tail) = w.batches.split_at(7);
        for mut a in both(&EngineBuilder::new(w.num_vertices).seed(9)) {
            a.apply_all(prefix).unwrap();
            let blob = a.save_state().unwrap();
            // A twin built with another seed: the generator's position is
            // restored from the blob wholesale.
            let mut b = same_rule(&a, &EngineBuilder::new(w.num_vertices).seed(999));
            b.restore_state(&blob).unwrap();
            // The restored engine re-serializes to the same canonical blob …
            assert_eq!(b.save_state().unwrap(), blob);
            // … and continues exactly like the original.
            for batch in tail {
                assert_eq!(a.apply_batch(batch).unwrap(), b.apply_batch(batch).unwrap());
            }
            // Graph, matching, counters and the generator's position.
            assert_eq!(a.save_state(), b.save_state());
        }
    }

    #[test]
    fn restore_rejects_foreign_or_stale_blobs() {
        for a in both(&EngineBuilder::new(10)) {
            let blob = a.save_state().unwrap();
            assert!(matches!(
                same_rule(&a, &EngineBuilder::new(11)).restore_state(&blob),
                Err(StateError::ConfigMismatch {
                    field: "num_vertices",
                    ..
                })
            ));
            assert!(matches!(
                same_rule(&a, &EngineBuilder::new(10).rank(3)).restore_state(&blob),
                Err(StateError::ConfigMismatch {
                    field: "max_rank",
                    ..
                })
            ));
            let mut used = same_rule(&a, &EngineBuilder::new(10));
            used.apply_batch(&[pair(0, 0, 1)]).unwrap();
            assert_eq!(
                used.restore_state(&blob),
                Err(StateError::NotFresh { batches: 1 })
            );
            let truncated = format!("engine {}\nn 10", a.name());
            assert!(matches!(
                same_rule(&a, &EngineBuilder::new(10)).restore_state(&truncated),
                Err(StateError::Corrupt { .. })
            ));
        }
        // Each rule refuses the other's blob.
        let blobs = both(&EngineBuilder::new(10)).map(|alg| alg.save_state().unwrap());
        let [mut naive, mut random] = both(&EngineBuilder::new(10));
        for (alg, blob) in [(&mut naive, &blobs[1]), (&mut random, &blobs[0])] {
            assert!(matches!(
                alg.restore_state(blob),
                Err(StateError::EngineMismatch { .. })
            ));
        }
    }

    proptest! {
        #[test]
        fn prop_repair_stays_maximal(
            seed in 0u64..500,
            alg_seed in 0u64..10,
            batch_size in 1usize..30,
            p_ins in 0.2f64..0.8,
        ) {
            let w = random_churn(40, 2, 60, 8, batch_size, p_ins, seed);
            check_after_every_batch(&w, alg_seed);
        }
    }
}
