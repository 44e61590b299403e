//! Cross-crate substrate tests: the static matcher, the `io` formats and the
//! hypergraph layer working together the way the core algorithm uses them.

use pdmm::hypergraph::generators;
use pdmm::hypergraph::io;
use pdmm::hypergraph::matching::verify_maximality;
use pdmm::prelude::*;
use pdmm::primitives::random::RandomSource;
use pdmm::static_matching::luby::luby_maximal_matching;

#[test]
fn static_matcher_feeds_the_dynamic_one() {
    // The dynamic algorithm's insertion path runs the static matcher on the free
    // edges; check the two agree on maximality when driven by the same stream.
    let edges = generators::gnm_graph(200, 900, 3, 0);
    let truth = DynamicHypergraph::from_edges(200, edges.clone());

    let mut rng = RandomSource::from_seed(11);
    let static_result = luby_maximal_matching(&edges, &mut rng, None);
    assert_eq!(verify_maximality(&truth, &static_result.edges), Ok(()));

    let mut dynamic = ParallelDynamicMatching::new(200, Config::for_graphs(11));
    dynamic
        .apply_batch(&edges.into_iter().map(Update::Insert).collect::<Vec<_>>())
        .unwrap();
    assert_eq!(verify_maximality(&truth, &dynamic.matching_ids()), Ok(()));

    // Both are maximal matchings of the same graph, hence 2-approximations of each
    // other.
    let (s, d) = (static_result.edges.len(), dynamic.matching_size());
    assert!(s * 2 >= d && d * 2 >= s);
}

#[test]
fn serialized_workload_replays_identically() {
    let w = pdmm::hypergraph::streams::random_churn(80, 2, 150, 10, 30, 0.5, 13);
    let text = io::batches_to_string(&w.batches);
    let parsed = io::batches_from_string(&text).expect("parse");
    assert_eq!(parsed, w.batches);

    let mut a = ParallelDynamicMatching::new(80, Config::for_graphs(4));
    let mut b = ParallelDynamicMatching::new(80, Config::for_graphs(4));
    for batch in &w.batches {
        a.apply_batch(batch).unwrap();
    }
    for batch in &parsed {
        b.apply_batch(batch).unwrap();
    }
    let mut ma = a.matching_ids();
    let mut mb = b.matching_ids();
    ma.sort_unstable();
    mb.sort_unstable();
    assert_eq!(ma, mb);
}
