//! Cross-algorithm integration tests: every dynamic matcher in the workspace (the
//! paper's parallel algorithm and all four baselines) processes the same
//! oblivious update streams through the shared `MatchingEngine` trait, and each
//! must maintain a valid maximal matching of the same evolving graph.  Matchings are allowed to differ (maximal matchings are not unique);
//! maximality, validity and the `1/r` approximation guarantee must not.

use pdmm::engine;
use pdmm::hypergraph::matching::{greedy_maximal_matching, verify_maximality};
use pdmm::hypergraph::streams::{self, Workload};
use pdmm::hypergraph::{generators, matching};
use pdmm::prelude::*;
use pdmm::seq_dynamic::SequentialRepair;

fn algorithms(num_vertices: usize) -> Vec<Box<dyn MatchingEngine + Send>> {
    engine::build_all(&EngineBuilder::new(num_vertices).seed(1))
}

fn run_all_and_verify(workload: &Workload) {
    assert!(streams::validate_workload(workload));
    let mut algs = algorithms(workload.num_vertices);
    let mut truth = DynamicHypergraph::new(workload.num_vertices);
    for (i, batch) in workload.batches.iter().enumerate() {
        truth.apply_batch(batch);
        for alg in &mut algs {
            alg.apply_batch(batch).unwrap();
            let ids = alg.matching_ids();
            assert_eq!(
                verify_maximality(&truth, &ids),
                Ok(()),
                "{} broke maximality after batch {i} of {}",
                alg.name(),
                workload.name
            );
        }
    }
    // All maximal matchings of the same graph are within a factor 2 (rank 2) of one
    // another, because each is at least half the maximum matching.
    let sizes: Vec<usize> = algs.iter().map(|a| a.matching_ids().len()).collect();
    let max = *sizes.iter().max().unwrap();
    let min = *sizes.iter().min().unwrap();
    assert!(
        min * 2 >= max,
        "maximal matchings must be 2-approximations of each other: {sizes:?}"
    );
}

#[test]
fn all_algorithms_agree_on_random_churn() {
    let w = streams::random_churn(120, 2, 300, 15, 50, 0.5, 41);
    run_all_and_verify(&w);
}

#[test]
fn all_algorithms_agree_on_sliding_window() {
    let edges = generators::gnm_graph(150, 700, 6, 0);
    let w = streams::sliding_window(150, edges, 70, 4);
    run_all_and_verify(&w);
}

#[test]
fn all_algorithms_agree_on_hub_churn() {
    let w = streams::hub_churn(200, 4, 15, 60, 8);
    run_all_and_verify(&w);
}

#[test]
fn parallel_algorithm_handles_rank_three_hypergraphs_like_the_naive_one() {
    let w = streams::random_churn(90, 3, 200, 12, 40, 0.5, 17);
    assert!(streams::validate_workload(&w));
    let builder = EngineBuilder::new(w.num_vertices).rank(3).seed(5);
    let mut parallel = ParallelDynamicMatching::from_builder(&builder);
    let mut naive = SequentialRepair::first_free(&builder);
    let mut truth = DynamicHypergraph::new(w.num_vertices);
    for batch in &w.batches {
        truth.apply_batch(batch);
        parallel.apply_batch(batch).unwrap();
        naive.apply_batch(batch).unwrap();
        assert_eq!(verify_maximality(&truth, &parallel.matching_ids()), Ok(()));
        assert_eq!(verify_maximality(&truth, &naive.matching_ids()), Ok(()));
        // Rank 3: both matchings are 1/3-approximations, so sizes differ by ≤ 3×.
        let p = parallel.matching_size().max(1);
        let n = naive.matching_ids().len().max(1);
        assert!(
            p * 3 >= n && n * 3 >= p,
            "sizes {p} and {n} are not within 3x"
        );
    }
    parallel.verify_invariants().unwrap();
}

#[test]
fn matching_quality_is_close_to_greedy_reference() {
    // After a long churn, compare against a freshly computed greedy maximal
    // matching of the final graph (the static reference).
    let w = streams::random_churn(200, 2, 600, 20, 60, 0.55, 29);
    let mut matcher = ParallelDynamicMatching::new(w.num_vertices, Config::for_graphs(30));
    let mut truth = DynamicHypergraph::new(w.num_vertices);
    for batch in &w.batches {
        truth.apply_batch(batch);
        matcher.apply_batch(batch).unwrap();
    }
    let dynamic_size = matcher.matching_size();
    let greedy_size = greedy_maximal_matching(&truth.snapshot_edges()).len();
    assert!(dynamic_size * 2 >= greedy_size);
    assert!(greedy_size * 2 >= dynamic_size);
    // The vertex cover induced by the dynamic matching covers the whole graph.
    let matched_ids = matcher.matching_ids();
    let m = matching::Matching::from_edge_ids(&truth, &matched_ids);
    assert_eq!(matching::uncovered_edges(&truth, &m.vertex_cover()), 0);
}
