//! Synthetic graph and hypergraph generators.
//!
//! The paper has no published dataset (it is a theory paper); the experiments use
//! synthetic workloads that exercise its update model: uniform random (Erdős–Rényi
//! style) graphs, power-law (Chung–Lu) graphs whose hub vertices stress the leveling
//! scheme, random rank-`r` hypergraphs for the `poly(r)` scaling claims, and a few
//! structured graphs (paths, stars, complete graphs) used in unit tests and the
//! quality experiment.
//!
//! All generators are deterministic functions of an explicit seed, independent from
//! the algorithm's own randomness — this realises the oblivious adversary of §2.

use crate::types::{EdgeId, HyperEdge, VertexId};
use rand::distributions::{Distribution, WeightedIndex};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rustc_hash::FxHashSet;

fn rng_from(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// `G(n, m)` Erdős–Rényi style graph: `m` edges drawn uniformly at random without
/// replacement (self-loops excluded).  Edge ids are `first_id..first_id + m`.
#[must_use]
pub fn gnm_graph(n: usize, m: usize, seed: u64, first_id: u64) -> Vec<HyperEdge> {
    assert!(n >= 2, "gnm_graph needs at least two vertices");
    let max_edges = n * (n - 1) / 2;
    let m = m.min(max_edges);
    let mut rng = rng_from(seed);
    let mut seen: FxHashSet<(u32, u32)> = FxHashSet::default();
    let mut out = Vec::with_capacity(m);
    while out.len() < m {
        let a = rng.gen_range(0..n as u32);
        let b = rng.gen_range(0..n as u32);
        if a == b {
            continue;
        }
        let key = (a.min(b), a.max(b));
        if seen.insert(key) {
            out.push(HyperEdge::pair(
                EdgeId(first_id + out.len() as u64),
                VertexId(key.0),
                VertexId(key.1),
            ));
        }
    }
    out
}

/// Random rank-`r` hypergraph: `m` hyperedges, each with `r` distinct endpoints
/// chosen uniformly at random.  Duplicate endpoint *sets* are allowed (they get
/// distinct ids), matching the multigraph update model.
#[must_use]
pub fn random_hypergraph(n: usize, m: usize, r: usize, seed: u64, first_id: u64) -> Vec<HyperEdge> {
    assert!(r >= 1 && r <= n, "rank must be between 1 and n");
    let mut rng = rng_from(seed);
    let mut out = Vec::with_capacity(m);
    for i in 0..m {
        let mut endpoints: FxHashSet<u32> = FxHashSet::default();
        while endpoints.len() < r {
            endpoints.insert(rng.gen_range(0..n as u32));
        }
        let verts: Vec<VertexId> = endpoints.into_iter().map(VertexId).collect();
        out.push(HyperEdge::new(EdgeId(first_id + i as u64), verts));
    }
    out
}

/// Chung–Lu power-law graph: each endpoint of each edge is drawn proportionally to
/// weight `w_i = (i + 1)^{-1/(β-1)}`, giving an expected power-law degree sequence
/// with exponent `β`.  Self-loops are rejected; parallel edges get distinct ids.
#[must_use]
pub fn chung_lu_graph(n: usize, m: usize, beta: f64, seed: u64, first_id: u64) -> Vec<HyperEdge> {
    assert!(n >= 2, "chung_lu_graph needs at least two vertices");
    assert!(beta > 1.0, "power-law exponent must exceed 1");
    let mut rng = rng_from(seed);
    let gamma = 1.0 / (beta - 1.0);
    let weights: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).powf(-gamma)).collect();
    let dist = WeightedIndex::new(&weights).expect("weights are positive");
    let mut out = Vec::with_capacity(m);
    while out.len() < m {
        let a = dist.sample(&mut rng) as u32;
        let b = dist.sample(&mut rng) as u32;
        if a == b {
            continue;
        }
        out.push(HyperEdge::pair(
            EdgeId(first_id + out.len() as u64),
            VertexId(a),
            VertexId(b),
        ));
    }
    out
}

/// Path graph `0 - 1 - … - (n-1)`.
#[must_use]
pub fn path_graph(n: usize, first_id: u64) -> Vec<HyperEdge> {
    (0..n.saturating_sub(1))
        .map(|i| {
            HyperEdge::pair(
                EdgeId(first_id + i as u64),
                VertexId(i as u32),
                VertexId(i as u32 + 1),
            )
        })
        .collect()
}

/// Star graph: vertex 0 connected to each of `1..n`.
#[must_use]
pub fn star_graph(n: usize, first_id: u64) -> Vec<HyperEdge> {
    (1..n)
        .map(|i| {
            HyperEdge::pair(
                EdgeId(first_id + (i - 1) as u64),
                VertexId(0),
                VertexId(i as u32),
            )
        })
        .collect()
}

/// Complete graph on `n` vertices.
#[must_use]
pub fn complete_graph(n: usize, first_id: u64) -> Vec<HyperEdge> {
    let mut out = Vec::new();
    let mut next = first_id;
    for a in 0..n as u32 {
        for b in (a + 1)..n as u32 {
            out.push(HyperEdge::pair(EdgeId(next), VertexId(a), VertexId(b)));
            next += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rustc_hash::FxHashMap;

    #[test]
    fn gnm_has_requested_edges_and_no_duplicates() {
        let edges = gnm_graph(100, 300, 1, 0);
        assert_eq!(edges.len(), 300);
        let mut seen = FxHashSet::default();
        for e in &edges {
            assert_eq!(e.rank(), 2);
            assert!(seen.insert(e.vertices().to_vec()));
        }
        // Deterministic for a fixed seed.
        assert_eq!(gnm_graph(100, 300, 1, 0), edges);
        assert_ne!(gnm_graph(100, 300, 2, 0), edges);
    }

    #[test]
    fn gnm_caps_at_complete_graph() {
        let edges = gnm_graph(5, 1000, 3, 0);
        assert_eq!(edges.len(), 10);
    }

    #[test]
    fn random_hypergraph_has_rank_r() {
        let edges = random_hypergraph(50, 200, 4, 7, 100);
        assert_eq!(edges.len(), 200);
        assert!(edges.iter().all(|e| e.rank() == 4));
        assert_eq!(edges[0].id, EdgeId(100));
        assert_eq!(edges[199].id, EdgeId(299));
    }

    #[test]
    fn chung_lu_is_skewed_towards_low_ids() {
        let edges = chung_lu_graph(1000, 5000, 2.5, 11, 0);
        assert_eq!(edges.len(), 5000);
        let mut deg: FxHashMap<u32, usize> = FxHashMap::default();
        for e in &edges {
            for v in e.vertices() {
                *deg.entry(v.0).or_insert(0) += 1;
            }
        }
        let low: usize = (0..10).map(|i| deg.get(&i).copied().unwrap_or(0)).sum();
        let high: usize = (990..1000).map(|i| deg.get(&i).copied().unwrap_or(0)).sum();
        assert!(
            low > high * 3,
            "low-id hubs should dominate: {low} vs {high}"
        );
    }

    #[test]
    fn structured_graphs_have_expected_sizes() {
        assert_eq!(path_graph(5, 0).len(), 4);
        assert_eq!(star_graph(6, 0).len(), 5);
        assert_eq!(complete_graph(6, 0).len(), 15);
    }

    #[test]
    fn edge_ids_are_consecutive_from_first_id() {
        let edges = path_graph(4, 10);
        assert_eq!(
            edges.iter().map(|e| e.id).collect::<Vec<_>>(),
            vec![EdgeId(10), EdgeId(11), EdgeId(12)]
        );
    }
}
