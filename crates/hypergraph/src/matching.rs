//! Matchings and their verification.
//!
//! Per §2 of the paper, a matching `M ⊆ E` is a set of pairwise-disjoint hyperedges,
//! and `M` is *maximal* if no further live hyperedge can be added to it.  A maximal
//! matching in a rank-`r` hypergraph is a `1/r`-approximation of the maximum
//! matching, and the endpoint set of a maximal matching is a vertex cover of size at
//! most `r` times the minimum vertex cover.  This module provides the matching
//! container, the validity and maximality checkers used throughout the test suite,
//! and reference algorithms (greedy maximal matching, exact maximum matching on
//! small inputs) used by the quality experiments (E7).

use crate::graph::DynamicHypergraph;
use crate::types::{EdgeId, HyperEdge, VertexId};
use rustc_hash::{FxHashMap, FxHashSet};
use std::collections::hash_map::Entry;

/// The net change to a matching between two takes from a [`DeltaTracker`] —
/// what [`crate::engine::MatchingEngine::take_matching_delta`] returns.
///
/// Dropping `removed` from the matching `M₀` of the previous take, then adding
/// `added`, yields the current matching `M₁`:
///
/// * `removed` ⊆ `M₀`, ascending;
/// * `added` carries every edge's endpoints, ascending by id, and no added id
///   is in `M₀ \ removed`.  An id lands in both lists only when its edge was
///   deleted and re-inserted under the same id with other endpoints;
/// * an edge matched in both `M₀` and `M₁` with the same endpoints is in
///   neither list, however often it left and rejoined the matching between
///   the two takes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MatchingDelta {
    /// Ids matched at the previous take and no longer matched, ascending.
    pub removed: Vec<EdgeId>,
    /// Edges matched now that were not matched (with these endpoints) at the
    /// previous take, ascending by id.
    pub added: Vec<HyperEdge>,
}

impl MatchingDelta {
    /// Whether the matching is unchanged since the previous take.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty() && self.added.is_empty()
    }
}

/// Where one recorded edge's endpoints sit in a [`DeltaTracker`]'s pool.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: usize,
    end: usize,
}

impl Span {
    fn len(self) -> usize {
        self.end - self.start
    }
}

/// One edge's net change since the last take; each span names endpoints in
/// the tracker's pool.
#[derive(Debug, Clone, Copy)]
enum Change {
    /// Unmatched at the last take; matched now with these endpoints.
    Added(Span),
    /// Matched at the last take with these endpoints; unmatched now.
    Removed(Span),
    /// Matched at the last take with `was` and now with `now != was`.
    Replaced { was: Span, now: Span },
}

/// Pool entries a tracker may leave dead before it compacts, whatever its
/// live size.
const COMPACT_FLOOR: usize = 1 << 12;

/// Nets an engine's matching changes between takes into a [`MatchingDelta`].
///
/// An engine reports every change to its matching as it makes it —
/// [`DeltaTracker::matched`] when an edge joins, [`DeltaTracker::unmatched`]
/// when it leaves — and [`DeltaTracker::take`] hands out the net effect since
/// the previous take.  Opposite changes cancel on arrival, so the tracker
/// holds at most one entry per edge of the last take's matching plus one per
/// edge of the current matching: O(matching) memory even when nobody takes.
/// It is bookkeeping only — no cost-model charge, no part of any saved state.
///
/// The endpoints of every recorded change are packed back to back in one
/// pool that [`DeltaTracker::take`] clears, so recording a change allocates
/// nothing once the pool and the change table have grown.  A cancelled
/// change leaves its endpoints in the pool until the next take; should the
/// dead entries outnumber the live ones (past a small floor) before then,
/// the tracker copies the live ones into a spare buffer, which keeps the
/// pool O(matching) too.
///
/// ```
/// use pdmm_hypergraph::matching::DeltaTracker;
/// use pdmm_hypergraph::types::{EdgeId, VertexId};
///
/// let mut tracker = DeltaTracker::default();
/// let ends = [VertexId(0), VertexId(1)];
/// tracker.matched(EdgeId(7), &ends);
/// assert_eq!(tracker.take().added[0].id, EdgeId(7));
/// // Leaving and rejoining with the same endpoints nets out.
/// tracker.unmatched(EdgeId(7), &ends);
/// tracker.matched(EdgeId(7), &ends);
/// assert!(tracker.take().is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct DeltaTracker {
    changes: FxHashMap<EdgeId, Change>,
    /// The endpoints the changes' spans name, back to back.
    pool: Vec<VertexId>,
    /// Entries of `pool` no change names any more.
    dead: usize,
    /// The buffer the pool is compacted into (empty between compactions).
    spare: Vec<VertexId>,
}

/// Appends `endpoints` to `pool` and returns where they landed.
fn record(pool: &mut Vec<VertexId>, endpoints: &[VertexId]) -> Span {
    let start = pool.len();
    pool.extend_from_slice(endpoints);
    Span {
        start,
        end: pool.len(),
    }
}

impl DeltaTracker {
    /// Records that edge `id`, with sorted endpoints `endpoints`, joined the
    /// matching.
    ///
    /// # Panics
    ///
    /// Panics if `id` joined since the last take without leaving again — an
    /// engine bug.
    pub fn matched(&mut self, id: EdgeId, endpoints: &[VertexId]) {
        let pool = &mut self.pool;
        match self.changes.entry(id) {
            Entry::Vacant(slot) => {
                slot.insert(Change::Added(record(pool, endpoints)));
            }
            Entry::Occupied(mut slot) => match *slot.get() {
                Change::Removed(was) if pool[was.start..was.end] == *endpoints => {
                    slot.remove();
                    self.dead += was.len();
                    self.compact_if_sparse();
                }
                Change::Removed(was) => {
                    let now = record(pool, endpoints);
                    slot.insert(Change::Replaced { was, now });
                }
                Change::Added(_) | Change::Replaced { .. } => {
                    panic!("edge {id} joined the matching twice")
                }
            },
        }
    }

    /// Records that edge `id`, with sorted endpoints `endpoints`, left the
    /// matching.
    ///
    /// # Panics
    ///
    /// Panics if `id` left since the last take without joining again — an
    /// engine bug.
    pub fn unmatched(&mut self, id: EdgeId, endpoints: &[VertexId]) {
        match self.changes.entry(id) {
            Entry::Vacant(slot) => {
                slot.insert(Change::Removed(record(&mut self.pool, endpoints)));
            }
            Entry::Occupied(mut slot) => {
                let dropped = match *slot.get() {
                    Change::Added(now) => {
                        slot.remove();
                        now
                    }
                    Change::Replaced { was, now } => {
                        slot.insert(Change::Removed(was));
                        now
                    }
                    Change::Removed(_) => panic!("edge {id} left the matching twice"),
                };
                self.dead += dropped.len();
                self.compact_if_sparse();
            }
        }
    }

    /// Copies the live endpoints into the spare buffer once dead entries
    /// outnumber them and the floor; amortized O(1) per recorded endpoint.
    fn compact_if_sparse(&mut self) {
        if self.dead <= (self.pool.len() - self.dead).max(COMPACT_FLOOR) {
            return;
        }
        let mut fresh = std::mem::take(&mut self.spare);
        let pool = &self.pool;
        let mut relocate = |span: &mut Span| {
            *span = record(&mut fresh, &pool[span.start..span.end]);
        };
        for change in self.changes.values_mut() {
            match change {
                Change::Added(span) | Change::Removed(span) => relocate(span),
                Change::Replaced { was, now } => {
                    relocate(was);
                    relocate(now);
                }
            }
        }
        self.spare = std::mem::replace(&mut self.pool, fresh);
        self.spare.clear();
        self.dead = 0;
    }

    /// Records every edge of `matching` (ids live in `graph`) as leaving —
    /// for an engine about to throw its matching away and recompute it;
    /// edges the recompute matches again with the same endpoints cancel.
    pub fn retire(&mut self, matching: &[EdgeId], graph: &DynamicHypergraph) {
        for &id in matching {
            let edge = graph.edge(id).expect("matched edges are live");
            self.unmatched(id, edge.vertices());
        }
    }

    /// Records every edge of `matching` (ids live in `graph`) as joining —
    /// after a recompute or a restore installs it.
    pub fn adopt(&mut self, matching: &[EdgeId], graph: &DynamicHypergraph) {
        for &id in matching {
            let edge = graph.edge(id).expect("matched edges are live");
            self.matched(id, edge.vertices());
        }
    }

    /// The net change since the previous take (or since construction), in
    /// O(changes) time; the tracker starts over empty, its change table and
    /// endpoint pool keeping their capacity, so the table stays sized for as
    /// many changes as this take returned.  Draining a table walks its whole
    /// capacity, so one that an earlier, bigger take (a bulk load, a
    /// restore) left more than four times larger than this one (and than
    /// 64 changes) is replaced by one sized for this take.
    pub fn take(&mut self) -> MatchingDelta {
        let taken = self.changes.len();
        let mut delta = MatchingDelta {
            removed: Vec::with_capacity(taken),
            added: Vec::with_capacity(taken),
        };
        let pool = &self.pool;
        let endpoints = |span: Span| pool[span.start..span.end].to_vec();
        for (id, change) in self.changes.drain() {
            match change {
                Change::Added(now) => delta.added.push(HyperEdge::new(id, endpoints(now))),
                Change::Removed(_) => delta.removed.push(id),
                Change::Replaced { now, .. } => {
                    delta.removed.push(id);
                    delta.added.push(HyperEdge::new(id, endpoints(now)));
                }
            }
        }
        if self.changes.capacity() > 4 * taken.max(64) {
            self.changes = FxHashMap::with_capacity_and_hasher(taken, Default::default());
        }
        self.pool.clear();
        self.dead = 0;
        delta.removed.sort_unstable();
        delta.added.sort_unstable_by_key(|edge| edge.id);
        delta
    }
}

/// A matching: a set of edge ids together with the vertices they cover, and
/// the [`DeltaTracker`] of its changes since the last [`Matching::take_delta`].
#[derive(Debug, Clone, Default)]
pub struct Matching {
    edges: FxHashSet<EdgeId>,
    matched_vertices: FxHashMap<VertexId, EdgeId>,
    delta: DeltaTracker,
}

impl Matching {
    /// Creates an empty matching.
    #[must_use]
    pub fn new() -> Self {
        Matching::default()
    }

    /// Number of edges in the matching.
    #[must_use]
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the matching has no edges.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Whether edge `id` is in the matching.
    #[must_use]
    pub fn contains_edge(&self, id: EdgeId) -> bool {
        self.edges.contains(&id)
    }

    /// Whether vertex `v` is covered by some matching edge.
    #[must_use]
    pub fn is_matched(&self, v: VertexId) -> bool {
        self.matched_vertices.contains_key(&v)
    }

    /// The matching edge covering `v`, if any.
    #[must_use]
    pub fn matched_edge_of(&self, v: VertexId) -> Option<EdgeId> {
        self.matched_vertices.get(&v).copied()
    }

    /// Iterates over the ids of all edges in the matching (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges.iter().copied()
    }

    /// Ids of all edges in the matching (unspecified order).
    #[must_use]
    pub fn edge_ids(&self) -> Vec<EdgeId> {
        self.iter().collect()
    }

    /// The vertex cover induced by the matching (all endpoints of matched edges).
    #[must_use]
    pub fn vertex_cover(&self) -> Vec<VertexId> {
        self.matched_vertices.keys().copied().collect()
    }

    /// Adds `edge` to the matching.
    ///
    /// # Panics
    ///
    /// Panics if the edge is already present or if any endpoint is already matched
    /// (which would make the matching invalid).
    pub fn add(&mut self, edge: &HyperEdge) {
        assert!(
            self.edges.insert(edge.id),
            "edge {} already in matching",
            edge.id
        );
        for &v in edge.vertices() {
            let prev = self.matched_vertices.insert(v, edge.id);
            assert!(
                prev.is_none(),
                "vertex {v} already matched by {:?} while adding {}",
                prev,
                edge.id
            );
        }
        self.delta.matched(edge.id, edge.vertices());
    }

    /// Removes `edge` from the matching (must be present).
    pub fn remove(&mut self, edge: &HyperEdge) {
        assert!(
            self.edges.remove(&edge.id),
            "edge {} not in matching",
            edge.id
        );
        for &v in edge.vertices() {
            self.matched_vertices.remove(&v);
        }
        self.delta.unmatched(edge.id, edge.vertices());
    }

    /// The net change since the previous call (a new matching's first call
    /// returns every edge added so far) — see [`DeltaTracker::take`].
    pub fn take_delta(&mut self) -> MatchingDelta {
        self.delta.take()
    }

    /// Builds a matching from edge ids, looking endpoints up in `graph`.
    ///
    /// # Panics
    ///
    /// Panics if an id is not live in `graph` or if the edges are not disjoint.
    #[must_use]
    pub fn from_edge_ids(graph: &DynamicHypergraph, ids: &[EdgeId]) -> Self {
        let mut m = Matching::new();
        for &id in ids {
            let edge = graph
                .edge(id)
                .unwrap_or_else(|| panic!("edge {id} not live in graph"));
            m.add(edge);
        }
        m
    }
}

/// Outcome of matching verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchingError {
    /// A matched edge id is not live in the graph.
    MissingEdge(EdgeId),
    /// Two matched edges share a vertex.
    Conflict(EdgeId, EdgeId, VertexId),
    /// A live edge has no matched endpoint, so the matching is not maximal.
    NotMaximal(EdgeId),
}

/// Checks that `ids` forms a valid matching of `graph` (live, pairwise disjoint).
///
/// Returns the first violation found, or `Ok(())`.
pub fn verify_validity(graph: &DynamicHypergraph, ids: &[EdgeId]) -> Result<(), MatchingError> {
    let mut owner: FxHashMap<VertexId, EdgeId> = FxHashMap::default();
    for &id in ids {
        let Some(edge) = graph.edge(id) else {
            return Err(MatchingError::MissingEdge(id));
        };
        for &v in edge.vertices() {
            if let Some(&other) = owner.get(&v) {
                return Err(MatchingError::Conflict(other, id, v));
            }
            owner.insert(v, id);
        }
    }
    Ok(())
}

/// Checks that `ids` is a valid *maximal* matching of `graph`.
pub fn verify_maximality(graph: &DynamicHypergraph, ids: &[EdgeId]) -> Result<(), MatchingError> {
    verify_validity(graph, ids)?;
    let mut matched: FxHashSet<VertexId> = FxHashSet::default();
    for &id in ids {
        if let Some(edge) = graph.edge(id) {
            matched.extend(edge.vertices().iter().copied());
        }
    }
    for edge in graph.edges() {
        if !edge.vertices().iter().any(|v| matched.contains(v)) {
            return Err(MatchingError::NotMaximal(edge.id));
        }
    }
    Ok(())
}

/// Sequential greedy maximal matching: scans edges in id order and adds every edge
/// whose endpoints are all free.  Used as a yardstick and in tests.
#[must_use]
pub fn greedy_maximal_matching(graph: &DynamicHypergraph) -> Vec<EdgeId> {
    let edges = graph.snapshot_edges();
    let mut matched: FxHashSet<VertexId> = FxHashSet::default();
    let mut out = Vec::new();
    for edge in edges {
        if edge.vertices().iter().all(|v| !matched.contains(v)) {
            matched.extend(edge.vertices().iter().copied());
            out.push(edge.id);
        }
    }
    out
}

/// Exact maximum matching size, by branch and bound over the live edges.
///
/// Exponential in the worst case — intended only for the small instances used in
/// tests and the quality experiment, where it provides the exact optimum that the
/// `1/r` approximation guarantee is checked against.
///
/// # Panics
///
/// Panics if the graph has more than 64 live edges (to guard against accidental use
/// on large inputs — use [`greedy_maximal_matching`] or the LP-free bounds instead).
#[must_use]
pub fn maximum_matching_size_exact(graph: &DynamicHypergraph) -> usize {
    let edges = graph.snapshot_edges();
    assert!(
        edges.len() <= 64,
        "exact maximum matching is only supported for at most 64 edges"
    );
    // Precompute pairwise conflicts.
    let m = edges.len();
    let mut conflict = vec![0u64; m];
    for i in 0..m {
        for j in (i + 1)..m {
            if edges[i].intersects(&edges[j]) {
                conflict[i] |= 1 << j;
                conflict[j] |= 1 << i;
            }
        }
    }
    fn solve(i: usize, used: u64, blocked: u64, edges_len: usize, conflict: &[u64]) -> usize {
        if i == edges_len {
            return used.count_ones() as usize;
        }
        // Upper bound prune: even taking all remaining edges cannot beat nothing
        // special here; plain exhaustive with skip/take ordering is fine at ≤ 64.
        let skip = solve(i + 1, used, blocked, edges_len, conflict);
        if blocked & (1 << i) != 0 {
            return skip;
        }
        let take = solve(
            i + 1,
            used | (1 << i),
            blocked | conflict[i],
            edges_len,
            conflict,
        );
        skip.max(take)
    }
    solve(0, 0, 0, m, &conflict)
}

/// Counts how many live edges are *not* covered by the given vertex set — zero means
/// the set is a vertex cover (§2: endpoints of a maximal matching form one).
#[must_use]
pub fn uncovered_edges(graph: &DynamicHypergraph, cover: &[VertexId]) -> usize {
    let set: FxHashSet<VertexId> = cover.iter().copied().collect();
    graph
        .edges()
        .filter(|e| !e.vertices().iter().any(|v| set.contains(v)))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Update;
    use proptest::prelude::*;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn pair(id: u64, a: u32, b: u32) -> HyperEdge {
        HyperEdge::pair(EdgeId(id), v(a), v(b))
    }

    fn path_graph(n: u32) -> DynamicHypergraph {
        let mut g = DynamicHypergraph::new(n as usize);
        for i in 0..n - 1 {
            g.insert_edge(pair(u64::from(i), i, i + 1));
        }
        g
    }

    #[test]
    fn empty_matching_on_empty_graph_is_maximal() {
        let g = DynamicHypergraph::new(3);
        assert_eq!(verify_maximality(&g, &[]), Ok(()));
    }

    #[test]
    fn add_remove_tracks_vertices() {
        let e = pair(0, 1, 2);
        let mut m = Matching::new();
        m.add(&e);
        assert_eq!(m.len(), 1);
        assert!(m.is_matched(v(1)));
        assert_eq!(m.matched_edge_of(v(2)), Some(EdgeId(0)));
        m.remove(&e);
        assert!(m.is_empty());
        assert!(!m.is_matched(v(1)));
    }

    #[test]
    fn delta_tracker_nets_changes_between_takes() {
        let (a, b) = ([v(0), v(1)], [v(2), v(3)]);
        let mut t = DeltaTracker::default();
        t.matched(EdgeId(1), &a);
        t.matched(EdgeId(2), &a);
        t.unmatched(EdgeId(2), &a); // joined and left: nothing
        assert_eq!(
            t.take(),
            MatchingDelta {
                removed: vec![],
                added: vec![HyperEdge::new(EdgeId(1), a.to_vec())],
            }
        );
        assert!(t.take().is_empty());
        // Matched at the take: leaving and rejoining with other endpoints
        // replaces it; leaving again restores the plain removal, and
        // rejoining with the old endpoints cancels everything.
        t.unmatched(EdgeId(1), &a);
        t.matched(EdgeId(1), &b);
        let replaced = t.clone().take();
        assert_eq!(replaced.removed, vec![EdgeId(1)]);
        assert_eq!(replaced.added, vec![HyperEdge::new(EdgeId(1), b.to_vec())]);
        t.unmatched(EdgeId(1), &b);
        assert_eq!(t.clone().take().removed, vec![EdgeId(1)]);
        t.matched(EdgeId(1), &a);
        assert!(t.take().is_empty());
    }

    #[test]
    fn delta_tracker_pool_stays_bounded_without_takes() {
        // One edge leaving and rejoining with other endpoints, over and
        // over, and nobody taking: the dead endpoints are compacted away.
        let mut t = DeltaTracker::default();
        t.matched(EdgeId(0), &[v(0), v(1)]);
        for round in 0..10_000u32 {
            let ends = [v(round), v(round + 1)];
            let next = [v(round + 1), v(round + 2)];
            t.unmatched(EdgeId(0), &ends);
            t.matched(EdgeId(0), &next);
        }
        assert!(
            t.pool.len() <= 2 * COMPACT_FLOOR,
            "pool grew to {}",
            t.pool.len()
        );
        let delta = t.take();
        assert_eq!(
            delta.added,
            vec![HyperEdge::new(EdgeId(0), vec![v(10_000), v(10_001)])]
        );
        assert!(delta.removed.is_empty());
    }

    #[test]
    fn matching_records_its_own_delta() {
        let mut m = Matching::new();
        m.add(&pair(0, 1, 2));
        m.add(&pair(1, 3, 4));
        assert_eq!(m.take_delta().added.len(), 2);
        m.remove(&pair(0, 1, 2));
        assert_eq!(m.take_delta().removed, vec![EdgeId(0)]);
    }

    #[test]
    #[should_panic(expected = "joined the matching twice")]
    fn delta_tracker_refuses_a_double_join() {
        let mut t = DeltaTracker::default();
        t.matched(EdgeId(0), &[v(0)]);
        t.matched(EdgeId(0), &[v(0)]);
    }

    #[test]
    #[should_panic(expected = "already matched")]
    fn conflicting_add_panics() {
        let mut m = Matching::new();
        m.add(&pair(0, 1, 2));
        m.add(&pair(1, 2, 3));
    }

    #[test]
    fn validity_detects_conflict_and_missing() {
        let mut g = DynamicHypergraph::new(4);
        g.insert_edge(pair(0, 0, 1));
        g.insert_edge(pair(1, 1, 2));
        assert_eq!(
            verify_validity(&g, &[EdgeId(0), EdgeId(1)]),
            Err(MatchingError::Conflict(EdgeId(0), EdgeId(1), v(1)))
        );
        assert_eq!(
            verify_validity(&g, &[EdgeId(9)]),
            Err(MatchingError::MissingEdge(EdgeId(9)))
        );
        assert_eq!(verify_validity(&g, &[EdgeId(0)]), Ok(()));
    }

    #[test]
    fn maximality_detects_free_edge() {
        let g = path_graph(5); // edges 0-1, 1-2, 2-3, 3-4
                               // Matching {1-2} leaves edge 3-4 with both endpoints free.
        assert_eq!(
            verify_maximality(&g, &[EdgeId(1)]),
            Err(MatchingError::NotMaximal(EdgeId(3)))
        );
        // Greedy is maximal.
        let greedy = greedy_maximal_matching(&g);
        assert_eq!(verify_maximality(&g, &greedy), Ok(()));
    }

    #[test]
    fn greedy_on_path_picks_alternate_edges() {
        let g = path_graph(6);
        let m = greedy_maximal_matching(&g);
        assert_eq!(m, vec![EdgeId(0), EdgeId(2), EdgeId(4)]);
    }

    #[test]
    fn exact_maximum_on_small_graphs() {
        let g = path_graph(4); // P4 has maximum matching 2 (but greedy from middle could give 1)
        assert_eq!(maximum_matching_size_exact(&g), 2);
        let mut star = DynamicHypergraph::new(5);
        for i in 1..5u32 {
            star.insert_edge(pair(u64::from(i), 0, i));
        }
        assert_eq!(maximum_matching_size_exact(&star), 1);
    }

    #[test]
    fn maximal_is_half_of_maximum_on_graphs() {
        // Classical 2-approximation check (r = 2 ⇒ factor 1/2).
        let g = path_graph(20);
        let greedy = greedy_maximal_matching(&g);
        let opt = maximum_matching_size_exact(&g);
        assert!(greedy.len() * 2 >= opt);
    }

    #[test]
    fn vertex_cover_covers_all_edges() {
        let g = path_graph(10);
        let ids = greedy_maximal_matching(&g);
        let m = Matching::from_edge_ids(&g, &ids);
        assert_eq!(uncovered_edges(&g, &m.vertex_cover()), 0);
    }

    #[test]
    fn hypergraph_matching_and_cover() {
        let mut g = DynamicHypergraph::new(9);
        g.insert_edge(HyperEdge::new(EdgeId(0), vec![v(0), v(1), v(2)]));
        g.insert_edge(HyperEdge::new(EdgeId(1), vec![v(2), v(3), v(4)]));
        g.insert_edge(HyperEdge::new(EdgeId(2), vec![v(4), v(5), v(6)]));
        g.insert_edge(HyperEdge::new(EdgeId(3), vec![v(6), v(7), v(8)]));
        let greedy = greedy_maximal_matching(&g);
        assert_eq!(verify_maximality(&g, &greedy), Ok(()));
        let opt = maximum_matching_size_exact(&g);
        assert_eq!(opt, 2);
        // maximal ≥ opt / r with r = 3.
        assert!(greedy.len() * 3 >= opt);
    }

    #[test]
    fn matching_tracks_graph_changes() {
        let mut g = path_graph(4);
        let ids = greedy_maximal_matching(&g);
        assert_eq!(verify_maximality(&g, &ids), Ok(()));
        // Delete a matched edge from the graph: validity now fails.
        g.apply_batch(&[Update::Delete(ids[0])]);
        assert_eq!(
            verify_validity(&g, &ids),
            Err(MatchingError::MissingEdge(ids[0]))
        );
    }

    proptest! {
        #[test]
        fn prop_greedy_is_always_maximal(
            n in 2usize..40,
            edges in proptest::collection::vec((0u32..40, 0u32..40), 0..80)
        ) {
            let mut g = DynamicHypergraph::new(40);
            let _ = n;
            for (i, (a, b)) in edges.iter().enumerate() {
                g.insert_edge(HyperEdge::pair(EdgeId(i as u64), v(*a), v(*b)));
            }
            let m = greedy_maximal_matching(&g);
            prop_assert_eq!(verify_maximality(&g, &m), Ok(()));
        }

        #[test]
        fn prop_maximal_within_factor_two_of_optimum(
            edges in proptest::collection::vec((0u32..12, 0u32..12), 1..20)
        ) {
            let mut g = DynamicHypergraph::new(12);
            for (i, (a, b)) in edges.iter().enumerate() {
                g.insert_edge(HyperEdge::pair(EdgeId(i as u64), v(*a), v(*b)));
            }
            let greedy = greedy_maximal_matching(&g);
            let opt = maximum_matching_size_exact(&g);
            prop_assert!(greedy.len() * 2 >= opt);
            prop_assert!(greedy.len() <= opt);
        }
    }
}
