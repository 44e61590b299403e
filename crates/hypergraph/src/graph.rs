//! Dynamic rank-`r` hypergraph.
//!
//! This is the "ground truth" view of the evolving hypergraph: a map from live edge
//! ids to their endpoint sets plus per-vertex incidence lists.  The dynamic matching
//! algorithms maintain their own, richer internal structures; this structure is what
//! workload generators produce, what baselines traverse, and what verification
//! (validity, maximality, Invariant checks) runs against.

use crate::types::{EdgeId, HyperEdge, Update, VertexId};
use rustc_hash::{FxHashMap, FxHashSet};

/// A mutable hypergraph over a fixed vertex set `0..n`, supporting edge insertion
/// and deletion (individually or in batches).
#[derive(Debug, Clone, Default)]
pub struct DynamicHypergraph {
    num_vertices: usize,
    edges: FxHashMap<EdgeId, HyperEdge>,
    incidence: Vec<FxHashSet<EdgeId>>,
}

impl DynamicHypergraph {
    /// Creates an empty hypergraph on `num_vertices` vertices.
    #[must_use]
    pub fn new(num_vertices: usize) -> Self {
        DynamicHypergraph {
            num_vertices,
            edges: FxHashMap::default(),
            incidence: vec![FxHashSet::default(); num_vertices],
        }
    }

    /// Number of vertices.
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of live edges.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Whether an edge with this id is currently live.
    #[must_use]
    pub fn contains_edge(&self, id: EdgeId) -> bool {
        self.edges.contains_key(&id)
    }

    /// Returns the live edge with this id, if any.
    #[must_use]
    pub fn edge(&self, id: EdgeId) -> Option<&HyperEdge> {
        self.edges.get(&id)
    }

    /// Iterates over all live edges (unspecified order).
    pub fn edges(&self) -> impl Iterator<Item = &HyperEdge> {
        self.edges.values()
    }

    /// Ids of all live edges (unspecified order).
    #[must_use]
    pub fn edge_ids(&self) -> Vec<EdgeId> {
        self.edges.keys().copied().collect()
    }

    /// Ids of the live edges incident on `v`, in ascending id order.
    ///
    /// The order is part of the contract: baselines scan (or sample an index
    /// into) this list with a sequential RNG, and recovery replays them against
    /// a graph rebuilt from a checkpoint — a hash-iteration order would make
    /// their decisions depend on the insertion history rather than the graph.
    #[must_use]
    pub fn incident_edges(&self, v: VertexId) -> Vec<EdgeId> {
        let mut ids: Vec<EdgeId> = self
            .incidence
            .get(v.index())
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        ids.sort_unstable();
        ids
    }

    /// Calls `f` once for every live edge incident on `v`, with its
    /// endpoints, in no particular order and without allocating; never for a
    /// vertex out of range.  The graph-backed engines answer
    /// `MatchingEngine::for_each_incident_edge` with this.
    pub fn for_each_incident_edge(&self, v: VertexId, f: &mut dyn FnMut(EdgeId, &[VertexId])) {
        for id in self.incidence.get(v.index()).into_iter().flatten() {
            f(*id, self.edges[id].vertices());
        }
    }

    /// Degree of `v`: number of live edges incident on it.
    #[must_use]
    pub fn degree(&self, v: VertexId) -> usize {
        self.incidence.get(v.index()).map_or(0, FxHashSet::len)
    }

    /// Inserts `edge`.
    ///
    /// # Panics
    ///
    /// Panics if an edge with the same id is already live, or if an endpoint is out
    /// of range.
    pub fn insert_edge(&mut self, edge: HyperEdge) {
        assert!(
            !self.edges.contains_key(&edge.id),
            "edge {} already present",
            edge.id
        );
        for v in edge.vertices() {
            assert!(
                v.index() < self.num_vertices,
                "vertex {v} out of range (n = {})",
                self.num_vertices
            );
            self.incidence[v.index()].insert(edge.id);
        }
        self.edges.insert(edge.id, edge);
    }

    /// Deletes the edge with id `id` and returns it.
    ///
    /// # Panics
    ///
    /// Panics if no live edge has this id.
    pub fn delete_edge(&mut self, id: EdgeId) -> HyperEdge {
        let edge = self
            .edges
            .remove(&id)
            .unwrap_or_else(|| panic!("edge {id} not present"));
        for v in edge.vertices() {
            self.incidence[v.index()].remove(&id);
        }
        edge
    }

    /// Applies a whole batch of updates (insertions and deletions, in order).
    pub fn apply_batch(&mut self, batch: &[Update]) {
        for update in batch {
            match update {
                Update::Insert(edge) => self.insert_edge(edge.clone()),
                Update::Delete(id) => {
                    self.delete_edge(*id);
                }
            }
        }
    }

    /// All live edges as a vector of clones, in ascending id order (the
    /// canonical order static matchers and state blobs scan them in).
    #[must_use]
    pub fn snapshot_edges(&self) -> Vec<HyperEdge> {
        let mut edges: Vec<HyperEdge> = self.edges.values().cloned().collect();
        edges.sort_unstable_by_key(|e| e.id);
        edges
    }

    /// Builds a graph from a vertex count and an edge list.
    #[must_use]
    pub fn from_edges(num_vertices: usize, edges: Vec<HyperEdge>) -> Self {
        let mut g = DynamicHypergraph::new(num_vertices);
        for e in edges {
            g.insert_edge(e);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn pair(id: u64, a: u32, b: u32) -> HyperEdge {
        HyperEdge::pair(EdgeId(id), v(a), v(b))
    }

    #[test]
    fn empty_graph() {
        let g = DynamicHypergraph::new(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(v(0)), 0);
        assert!(g.edge_ids().is_empty());
    }

    #[test]
    fn insert_and_query() {
        let mut g = DynamicHypergraph::new(4);
        g.insert_edge(pair(0, 0, 1));
        g.insert_edge(HyperEdge::new(EdgeId(1), vec![v(1), v(2), v(3)]));
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(v(1)), 2);
        assert_eq!(g.degree(v(0)), 1);
        assert!(g.contains_edge(EdgeId(0)));
        assert_eq!(g.edge(EdgeId(1)).unwrap().rank(), 3);
        let mut inc = g.incident_edges(v(1));
        inc.sort_unstable();
        assert_eq!(inc, vec![EdgeId(0), EdgeId(1)]);
    }

    #[test]
    fn delete_removes_incidence() {
        let mut g = DynamicHypergraph::new(3);
        g.insert_edge(pair(0, 0, 1));
        g.insert_edge(pair(1, 1, 2));
        let e = g.delete_edge(EdgeId(0));
        assert_eq!(e.id, EdgeId(0));
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(v(0)), 0);
        assert_eq!(g.degree(v(1)), 1);
        assert!(!g.contains_edge(EdgeId(0)));
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn duplicate_insert_panics() {
        let mut g = DynamicHypergraph::new(3);
        g.insert_edge(pair(0, 0, 1));
        g.insert_edge(pair(0, 1, 2));
    }

    #[test]
    #[should_panic(expected = "not present")]
    fn deleting_missing_edge_panics() {
        let mut g = DynamicHypergraph::new(3);
        g.delete_edge(EdgeId(7));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_vertex_panics() {
        let mut g = DynamicHypergraph::new(2);
        g.insert_edge(pair(0, 0, 5));
    }

    #[test]
    fn apply_batch_mixes_inserts_and_deletes() {
        let mut g = DynamicHypergraph::new(4);
        g.insert_edge(pair(0, 0, 1));
        let batch = vec![
            Update::Insert(pair(1, 1, 2)),
            Update::Delete(EdgeId(0)),
            Update::Insert(pair(2, 2, 3)),
        ];
        g.apply_batch(&batch);
        assert_eq!(g.num_edges(), 2);
        assert!(!g.contains_edge(EdgeId(0)));
        assert!(g.contains_edge(EdgeId(1)));
        assert!(g.contains_edge(EdgeId(2)));
    }

    #[test]
    fn from_edges_and_snapshot_roundtrip() {
        let edges = vec![pair(0, 0, 1), pair(1, 2, 3)];
        let g = DynamicHypergraph::from_edges(4, edges.clone());
        assert_eq!(g.snapshot_edges(), edges);
    }
}
