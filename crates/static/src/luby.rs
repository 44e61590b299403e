//! Static parallel maximal matching via Luby's algorithm (Theorem 2.2).
//!
//! Finding a maximal matching in a hypergraph `H = (V, E)` reduces to finding a
//! maximal independent set (MIS) in the *conflict graph* whose vertices are the
//! hyperedges of `H`, two being adjacent when they share an endpoint.  The paper
//! runs Luby's algorithm \[Lub85\] on this conflict graph: in each iteration every
//! surviving hyperedge draws a uniform priority, local maxima join the matching,
//! and everything incident to a newly matched hyperedge is removed.  With high
//! probability the process terminates after `O(log M)` iterations, giving depth
//! `O(log M)` and work `O(M·r·log M)` (Theorem 2.2).
//!
//! Rather than materialising the conflict graph (which can have `Θ(M²)` edges), each
//! iteration computes, per vertex, the maximum priority among the surviving
//! hyperedges incident on it; a hyperedge is a local maximum iff it attains that
//! maximum (with a deterministic tie-break) at every one of its endpoints.  This is
//! exactly the simulation described in the proof of Theorem 2.2 and costs `O(M·r)`
//! work per iteration.
//!
//! The matcher works on `(id, endpoints)` views, so a caller that holds its
//! candidates elsewhere (the dynamic algorithm's edge table) lends them
//! without copying.  Its per-iteration scratch (the per-vertex maximum map,
//! the matched-vertex set and the priority vector) is created once per call,
//! sized from the input, and cleared each iteration, so no iteration
//! allocates; each edge is selected and matched in one pass, with no
//! selection vector.

use pdmm_hypergraph::types::{EdgeId, HyperEdge, VertexId};
use pdmm_primitives::cost_model::CostTracker;
use pdmm_primitives::random::{PhaseRandom, RandomSource};
use rayon::prelude::*;
use rustc_hash::{FxHashMap, FxHashSet};

/// Result of a static maximal-matching computation.
#[derive(Debug, Clone)]
pub struct StaticMatching {
    /// Ids of the hyperedges in the matching.
    pub edges: Vec<EdgeId>,
    /// Number of Luby iterations performed (the depth driver of Theorem 2.2).
    pub iterations: usize,
}

/// Priority used by one Luby iteration: the random key with the edge id as a
/// deterministic tie-break, so that two edges never compare equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Priority(u64, u64);

/// Computes a maximal matching among `edges` using Luby-style random priorities.
///
/// `edges` may contain hyperedges over any vertex set; vertices not mentioned are
/// irrelevant.  The input edges must be distinct by id.  Work and rounds are
/// accounted on `cost` if provided.
#[must_use]
pub fn luby_maximal_matching(
    edges: &[HyperEdge],
    rng: &mut RandomSource,
    cost: Option<&CostTracker>,
) -> StaticMatching {
    let views = edges.iter().map(|e| (e.id, e.vertices())).collect();
    luby_maximal_matching_by_ref(views, rng, cost)
}

/// [`luby_maximal_matching`] over borrowed `(id, endpoints)` views (sorted,
/// deduplicated endpoints), for callers whose candidates live elsewhere and
/// should not be copied.  The vector becomes the working set of surviving
/// edges; the per-iteration scratch is allocated once, sized from it.
///
/// The matched set depends only on the candidate set and the RNG position;
/// [`StaticMatching::edges`] lists it by iteration, and within an iteration
/// in input order.
#[must_use]
pub fn luby_maximal_matching_by_ref(
    mut alive: Vec<(EdgeId, &[VertexId])>,
    rng: &mut RandomSource,
    cost: Option<&CostTracker>,
) -> StaticMatching {
    let incidences: usize = alive.iter().map(|(_, ends)| ends.len()).sum();
    let mut vertex_max: FxHashMap<VertexId, Priority> =
        FxHashMap::with_capacity_and_hasher(incidences, Default::default());
    let mut matched_vertices: FxHashSet<VertexId> =
        FxHashSet::with_capacity_and_hasher(incidences, Default::default());
    let mut priorities: Vec<Priority> = Vec::with_capacity(alive.len());
    let mut matched: Vec<EdgeId> = Vec::new();
    let mut iterations = 0usize;

    while !alive.is_empty() {
        iterations += 1;
        let phase: PhaseRandom = rng.next_phase();
        if let Some(c) = cost {
            c.round();
            c.work(alive.iter().map(|(_, ends)| ends.len() as u64).sum::<u64>());
        }

        // Per-vertex maximum priority among surviving incident edges.
        let priority = |id: EdgeId| Priority(phase.hash64(id.0), id.0);
        priorities.clear();
        if alive.len() > 2048 {
            priorities.resize(alive.len(), Priority(0, 0));
            priorities
                .par_iter_mut()
                .zip(alive.par_iter())
                .for_each(|(p, &(id, _))| *p = priority(id));
        } else {
            priorities.extend(alive.iter().map(|&(id, _)| priority(id)));
        }
        vertex_max.clear();
        for (&(_, ends), &prio) in alive.iter().zip(priorities.iter()) {
            for &v in ends {
                vertex_max
                    .entry(v)
                    .and_modify(|cur| {
                        if prio > *cur {
                            *cur = prio;
                        }
                    })
                    .or_insert(prio);
            }
        }

        // An edge is selected iff it is the maximum at every endpoint, and
        // joins the matching; selected edges are pairwise disjoint because
        // two edges sharing a vertex cannot both be the maximum there.
        matched_vertices.clear();
        for (&(id, ends), prio) in alive.iter().zip(&priorities) {
            if ends.iter().all(|v| vertex_max[v] == *prio) {
                matched.push(id);
                matched_vertices.extend(ends);
            }
        }

        // Remove selected edges and everything incident to a newly matched
        // vertex (edges at vertices matched in earlier iterations are gone).
        alive.retain(|(_, ends)| !ends.iter().any(|v| matched_vertices.contains(v)));
    }

    StaticMatching {
        edges: matched,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdmm_hypergraph::generators::{complete_graph, gnm_graph, random_hypergraph, star_graph};
    use pdmm_hypergraph::graph::DynamicHypergraph;
    use pdmm_hypergraph::matching::verify_maximality;
    use proptest::prelude::*;

    fn check_maximal(n: usize, edges: Vec<HyperEdge>, seed: u64) -> StaticMatching {
        let g = DynamicHypergraph::from_edges(n, edges.clone());
        let mut rng = RandomSource::from_seed(seed);
        let result = luby_maximal_matching(&edges, &mut rng, None);
        assert_eq!(verify_maximality(&g, &result.edges), Ok(()));
        result
    }

    #[test]
    fn empty_input() {
        let mut rng = RandomSource::from_seed(0);
        let r = luby_maximal_matching(&[], &mut rng, None);
        assert!(r.edges.is_empty());
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn single_edge_is_matched() {
        let edges = vec![HyperEdge::pair(EdgeId(0), VertexId(0), VertexId(1))];
        let r = check_maximal(2, edges, 1);
        assert_eq!(r.edges, vec![EdgeId(0)]);
        assert_eq!(r.iterations, 1);
    }

    #[test]
    fn star_graph_matches_one_edge() {
        let edges = star_graph(16, 0);
        let r = check_maximal(16, edges, 2);
        assert_eq!(r.edges.len(), 1);
    }

    #[test]
    fn random_graph_is_maximal() {
        let edges = gnm_graph(200, 800, 3, 0);
        let r = check_maximal(200, edges, 3);
        assert!(!r.edges.is_empty());
    }

    #[test]
    fn complete_graph_matches_half_the_vertices() {
        let edges = complete_graph(10, 0);
        let r = check_maximal(10, edges, 4);
        assert_eq!(r.edges.len(), 5);
    }

    #[test]
    fn hypergraph_rank_four_is_maximal() {
        let edges = random_hypergraph(60, 300, 4, 7, 0);
        check_maximal(60, edges, 5);
    }

    #[test]
    fn iterations_are_logarithmic_in_practice() {
        let edges = gnm_graph(2000, 10_000, 9, 0);
        let r = check_maximal(2000, edges, 6);
        // log2(10_000) ≈ 13.3; allow generous slack, the point is it is far below M.
        assert!(
            r.iterations <= 40,
            "expected O(log M) iterations, got {}",
            r.iterations
        );
    }

    #[test]
    fn cost_tracker_records_rounds_equal_to_iterations() {
        let edges = gnm_graph(100, 400, 2, 0);
        let mut rng = RandomSource::from_seed(8);
        let cost = CostTracker::new();
        let r = luby_maximal_matching(&edges, &mut rng, Some(&cost));
        assert_eq!(cost.total_depth(), r.iterations as u64);
        assert!(cost.total_work() >= 400);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let edges = gnm_graph(100, 300, 5, 0);
        let mut a = RandomSource::from_seed(11);
        let mut b = RandomSource::from_seed(11);
        let ra = luby_maximal_matching(&edges, &mut a, None);
        let rb = luby_maximal_matching(&edges, &mut b, None);
        assert_eq!(ra.edges, rb.edges);
    }

    proptest! {
        #[test]
        fn prop_luby_always_maximal(
            n in 4usize..60,
            m in 1usize..150,
            seed in 0u64..1000,
        ) {
            let edges = gnm_graph(n, m, seed, 0);
            let g = DynamicHypergraph::from_edges(n, edges.clone());
            let mut rng = RandomSource::from_seed(seed ^ 0xDEAD);
            let r = luby_maximal_matching(&edges, &mut rng, None);
            prop_assert_eq!(verify_maximality(&g, &r.edges), Ok(()));
        }

        #[test]
        fn prop_luby_maximal_on_hypergraphs(
            n in 6usize..40,
            m in 1usize..80,
            r in 2usize..5,
            seed in 0u64..500,
        ) {
            let edges = random_hypergraph(n, m, r.min(n), seed, 0);
            let g = DynamicHypergraph::from_edges(n, edges.clone());
            let mut rng = RandomSource::from_seed(seed.wrapping_mul(31));
            let res = luby_maximal_matching(&edges, &mut rng, None);
            prop_assert_eq!(verify_maximality(&g, &res.edges), Ok(()));
        }
    }
}
