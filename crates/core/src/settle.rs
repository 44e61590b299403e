//! `process-level` and the settle procedures (§3.3.2 of the paper).
//!
//! When matched hyperedges disappear, the algorithm sweeps the levels from `L` down
//! to `0`; at each level `ℓ`, [`process_level`] establishes Invariant 3.5:
//!
//! 1. **Step 1** — the *undecided* nodes at level `ℓ` (nodes whose matched edge
//!    vanished) are resolved: a static maximal matching (Theorem 2.2) is computed on
//!    the free hyperedges they own, newly matched hyperedges drop to level `0`, and
//!    nodes that remain unmatched drop to level `-1`.
//! 2. **Step 2** — nodes `v` with `ℓ(v) < ℓ` whose prospective ownership
//!    `õ_{v,ℓ}` reaches `α^ℓ` are raised.  Sequentially this is `random-settle`
//!    (raise one node, sample one of its owned edges into the matching, park the
//!    rest in `D(e)`); in parallel it is `grand-random-settle`: repeated rounds of
//!    random edge marking at geometrically increasing probabilities
//!    (`grand-random-subsubsettle`), where isolated marked edges join the matching
//!    at level `ℓ`, edges whose random representative `h(e)` lies on a newly matched
//!    edge are temporarily deleted into its `D(·)`, and the working set `B` shrinks
//!    until every original node either reached level `ℓ` or lost half its
//!    prospective ownership.

use crate::state::{EdgeList, MatcherState};
use pdmm_hypergraph::types::{EdgeId, VertexId};
use pdmm_static::luby::luby_maximal_matching_by_ref;
use rustc_hash::{FxHashMap, FxHashSet};

/// Safety valve: if `grand-random-settle` has not converged after this many
/// `grand-random-subsettle` repetitions (an event of vanishing probability,
/// Lemma 4.3), the remaining nodes are handled by the sequential `random-settle`,
/// which terminates deterministically.
const MAX_OUTER_REPEATS: usize = 512;

/// Runs `process-level(ℓ)` (§3.3.2), appending algorithm-induced re-insertions
/// (kicked-out matched edges and the contents of their `D(·)` buckets) to
/// `pending_reinsertions`.
pub(crate) fn process_level(
    state: &mut MatcherState,
    level: usize,
    pending_reinsertions: &mut EdgeList,
) {
    state.metrics.levels_processed = state.metrics.levels_processed.saturating_add(1);
    step1_resolve_undecided(state, level);
    step2_raise_nodes(state, level, pending_reinsertions);
}

/// Step 1: resolve every undecided node at exactly this level.
fn step1_resolve_undecided(state: &mut MatcherState, level: usize) {
    // The state's scratch list holds the undecided nodes at this level, and
    // then the ones among them still unmatched after the matching below.
    let mut nodes = std::mem::take(&mut state.undecided_here);
    nodes.extend(
        state
            .undecided
            .iter()
            .copied()
            .filter(|v| state.level_of(*v) == level as i32),
    );
    // Canonical order, as for `b` in step 2: the free edges below are
    // gathered in this order, so it must not follow hash-iteration order.
    nodes.sort_unstable();
    if nodes.is_empty() {
        state.undecided_here = nodes;
        return;
    }
    state.cost.round();
    state.cost.work(nodes.len() as u64);

    // U_free: hyperedges owned by an undecided node at this level, all of whose
    // endpoints are currently unmatched, as views of the edges the state
    // holds.  (Owned sets are disjoint.)
    let owned: usize = nodes
        .iter()
        .map(|v| state.vertices[v.index()].owned.len())
        .sum();
    let mut u_free: Vec<(EdgeId, &[VertexId])> = Vec::with_capacity(owned);
    for &v in &nodes {
        for &eid in &state.vertices[v.index()].owned {
            let e = &state.edges[&eid];
            if !e.matched && e.vertices.iter().all(|&w| !state.is_matched_vertex(w)) {
                u_free.push((eid, &e.vertices));
            }
        }
    }
    // The matches below lower their endpoints one edge at a time, which can
    // hand an edge to a neighbour matched later and charge it there, so
    // their order must be canonical.  It is, although `O(v)` order is not:
    // Luby lists its matches by round and then in input order, the input is
    // grouped by owner in sorted order, and two matched edges never share
    // an owner.
    state.cost.work(
        u_free
            .iter()
            .map(|(_, ends)| ends.len() as u64)
            .sum::<u64>(),
    );

    // Static maximal matching on the free edges (Theorem 2.2); newly matched
    // hyperedges and their nodes drop to level 0.
    if !u_free.is_empty() {
        let result = luby_maximal_matching_by_ref(u_free, &mut state.rng, Some(&state.cost));
        state.metrics.luby_iterations = state
            .metrics
            .luby_iterations
            .saturating_add(result.iterations as u64);
        for eid in result.edges {
            state.match_edge(eid, 0);
            state.metrics.record_epoch_created(0, 0);
        }
    }

    // Undecided nodes at this level that are still unmatched drop to level -1.
    nodes.clear();
    nodes.extend(
        state
            .undecided
            .iter()
            .copied()
            .filter(|v| state.level_of(*v) == level as i32 && !state.is_matched_vertex(*v)),
    );
    // `set_vertex_level` charges for the edges a node owns when it moves,
    // and that depends on which neighbours moved first: demote in canonical
    // order, so a restored engine charges exactly what the live one did.
    nodes.sort_unstable();
    state.cost.round();
    for &v in &nodes {
        state.set_vertex_level(v, -1);
        state.undecided.remove(&v);
    }
    nodes.clear();
    state.undecided_here = nodes;
}

/// Step 2: raise the nodes of `S_ℓ` (or settle them sequentially under the
/// ablation configuration).
fn step2_raise_nodes(state: &mut MatcherState, level: usize, pending_reinsertions: &mut EdgeList) {
    state.flush_dirty();
    let threshold_full = state.params.alpha_pow(level);
    let mut b: Vec<VertexId> = state.s_levels[level]
        .iter()
        .copied()
        .filter(|&v| state.level_of(v) < level as i32 && state.o_tilde(v, level) >= threshold_full)
        .collect();
    // Canonical order, for the same reason as in `random_settle_one`: the
    // sequential-settle path visits these nodes in turn, and its outcome must
    // be a function of the set, not of `s_levels` hash-iteration order.
    b.sort_unstable();
    if b.is_empty() {
        return;
    }
    if state.config.sequential_settle {
        sequential_settle_all(state, b, level, pending_reinsertions);
    } else {
        grand_random_settle(state, b, level, pending_reinsertions);
    }
}

/// `grand-random-settle(B, ℓ)`: repeats `grand-random-subsettle` until every node of
/// `B` has either reached level `ℓ` or seen its prospective ownership drop below
/// `α^ℓ / 2`.
pub(crate) fn grand_random_settle(
    state: &mut MatcherState,
    initial_b: Vec<VertexId>,
    level: usize,
    pending_reinsertions: &mut EdgeList,
) {
    state.metrics.settle_invocations = state.metrics.settle_invocations.saturating_add(1);
    let alpha = state.params.alpha;
    let threshold_half = (state.params.alpha_pow(level) / 2).max(1);
    // 2·⌈log₂ α⌉ phases per subsettle (the paper's 2·log α with base-2 logs).
    let num_phases = 2 * ceil_log2(alpha).max(1);
    // One random representative h(e) per edge, fixed for the whole invocation.
    let h_phase = state.rng.next_phase();

    let mut b: Vec<VertexId> = initial_b;
    let mut outer = 0usize;
    while !b.is_empty() {
        outer += 1;
        if outer > MAX_OUTER_REPEATS {
            // Vanishingly unlikely (Lemma 4.3); finish deterministically.
            sequential_settle_all(state, b, level, pending_reinsertions);
            return;
        }
        state.metrics.settle_outer_repeats = state.metrics.settle_outer_repeats.saturating_add(1);

        // One grand-random-subsettle: `num_phases` phases of O(log |E'|) iterations.
        'phases: for i in 1..=num_phases {
            let eprime_size = current_eprime(state, &b, level).len();
            if eprime_size == 0 {
                prune_b(state, &mut b, level, threshold_half);
                if b.is_empty() {
                    return;
                }
                continue 'phases;
            }
            let iterations = ceil_log2(eprime_size as u64).max(1) + 1;
            for _ in 0..iterations {
                subsubsettle(
                    state,
                    &mut b,
                    level,
                    i,
                    h_phase,
                    threshold_half,
                    pending_reinsertions,
                );
                if b.is_empty() {
                    return;
                }
            }
        }
    }
}

/// One iteration of `grand-random-subsubsettle(B, ℓ, i)`.
fn subsubsettle(
    state: &mut MatcherState,
    b: &mut Vec<VertexId>,
    level: usize,
    phase_index: usize,
    h_phase: pdmm_primitives::random::PhaseRandom,
    threshold_half: u64,
    pending_reinsertions: &mut EdgeList,
) {
    state.cost.round();
    state.metrics.settle_iterations = state.metrics.settle_iterations.saturating_add(1);

    let eprime = current_eprime(state, b, level);
    state.cost.work(eprime.len() as u64);
    if eprime.is_empty() {
        prune_b(state, b, level, threshold_half);
        return;
    }

    // 1. Mark each edge of E' independently with probability p = 2^i / α^{ℓ+2}.
    let p = (2f64.powi(phase_index as i32) / (state.params.alpha as f64).powi(level as i32 + 2))
        .min(1.0);
    let mark_phase = state.rng.next_phase();
    let marked: FxHashSet<EdgeId> = eprime
        .iter()
        .copied()
        .filter(|eid| mark_phase.bernoulli(eid.0, p))
        .collect();
    if marked.is_empty() {
        prune_b(state, b, level, threshold_half);
        return;
    }

    // 2. Select the marked edges with no incident marked edge: count marked edges
    //    per vertex; an edge is isolated iff it is the unique marked edge at each of
    //    its endpoints.
    let mut marked_per_vertex: FxHashMap<VertexId, u32> = FxHashMap::default();
    for eid in &marked {
        for &v in state.edges[eid].vertices.iter() {
            *marked_per_vertex.entry(v).or_insert(0) += 1;
        }
    }
    let mut selected: Vec<EdgeId> = marked
        .iter()
        .copied()
        .filter(|eid| {
            state.edges[eid]
                .vertices
                .iter()
                .all(|v| marked_per_vertex[v] == 1)
        })
        .collect();
    // Canonical order: lifting kicks out matched edges and re-levels nodes,
    // which must not follow the hash-iteration order of `marked`.
    selected.sort_unstable();
    state.cost.work(marked.len() as u64);

    if !selected.is_empty() {
        // 3. Lift every selected edge to level ℓ and add it to the matching,
        //    kicking out lower-level matched edges of its endpoints.
        let mut selected_vertex_owner: FxHashMap<VertexId, EdgeId> = FxHashMap::default();
        for &eid in &selected {
            kick_matched_endpoints(state, eid, pending_reinsertions);
            state.match_edge(eid, level);
            for &u in state.edges[&eid].vertices.iter() {
                selected_vertex_owner.insert(u, eid);
            }
        }

        // 4. Temporarily delete every *non-marked* edge of E' whose representative
        //    h(e') landed on a newly matched edge, into that edge's D(·).
        for &eid in &eprime {
            if marked.contains(&eid) {
                continue;
            }
            let Some(e) = state.edges.get(&eid) else {
                continue;
            };
            if e.matched || e.temp_deleted {
                continue;
            }
            let verts = &e.vertices;
            let rep = verts[h_phase.uniform_below(eid.0, verts.len() as u64) as usize];
            if let Some(&owner) = selected_vertex_owner.get(&rep) {
                state.temp_delete_edge(eid, owner);
            }
        }

        // Record the epochs now that their D(·) buckets are filled.
        for &eid in &selected {
            let d_size = state.edges[&eid].bucket.len() as u64;
            state.metrics.record_epoch_created(level, d_size);
        }
    }

    // 5. Shrink B: keep only nodes still below the level whose prospective
    //    ownership is at least α^ℓ / 2.
    prune_b(state, b, level, threshold_half);
}

/// Recomputes `E' = ∪_{v ∈ B} Õ_{v,ℓ}`, excluding matched and temporarily deleted
/// edges (a node's only matched incident edge is its own `M(v)`, so this differs
/// from the paper's set by at most one edge per node of `B`).
fn current_eprime(state: &MatcherState, b: &[VertexId], level: usize) -> Vec<EdgeId> {
    let mut seen: FxHashSet<EdgeId> = FxHashSet::default();
    let mut out = Vec::new();
    for &v in b {
        for eid in state.prospective_owned(v, level) {
            if seen.insert(eid) {
                let e = &state.edges[&eid];
                if !e.matched && !e.temp_deleted {
                    out.push(eid);
                }
            }
        }
    }
    out
}

/// Removes from `B` every node that reached the level or whose prospective
/// ownership dropped below the threshold.
fn prune_b(state: &mut MatcherState, b: &mut Vec<VertexId>, level: usize, threshold: u64) {
    state.flush_dirty();
    b.retain(|&v| state.level_of(v) < level as i32 && state.o_tilde(v, level) >= threshold);
}

/// Removes a matched edge from the matching because a higher-level edge claimed one
/// of its endpoints (an *induced* epoch termination, §4.2.3): the edge and the
/// contents of its `D(·)` bucket are re-inserted at the end of the batch.
pub(crate) fn kick_matched_edge(
    state: &mut MatcherState,
    edge_id: EdgeId,
    pending_reinsertions: &mut EdgeList,
) {
    let level = state.edges[&edge_id].level;
    state.metrics.record_epoch_induced_end(level);
    state.unmatch_edge(edge_id);
    release_bucket_and_remove(state, edge_id, true, pending_reinsertions);
}

/// Kicks the matched edges at the endpoints of the unmatched, live edge
/// `eid` (each queues its `D(·)` and itself for re-insertion).  Kicking
/// removes only matched and temporarily deleted edges, so `eid` and its
/// endpoints stay put throughout.
fn kick_matched_endpoints(
    state: &mut MatcherState,
    eid: EdgeId,
    pending_reinsertions: &mut EdgeList,
) {
    for i in 0..state.edges[&eid].vertices.len() {
        let u = state.edges[&eid].vertices[i];
        if let Some(old) = state.vertices[u.index()].matched_edge {
            kick_matched_edge(state, old, pending_reinsertions);
        }
    }
}

/// Drains the `D(edge_id)` bucket into `pending_reinsertions` and removes the edge
/// from the state.  When `reinsert_self` is set the edge itself is also queued for
/// re-insertion (kick case); adversary deletions do not re-insert the edge.
pub(crate) fn release_bucket_and_remove(
    state: &mut MatcherState,
    edge_id: EdgeId,
    reinsert_self: bool,
    pending_reinsertions: &mut EdgeList,
) {
    let bucket = std::mem::take(&mut state.edges.get_mut(&edge_id).expect("edge exists").bucket);
    for tid in bucket {
        // The bucket may contain ids that the adversary has since deleted; only
        // edges that still exist, are still temporarily deleted, and still name
        // this edge as responsible are revived.
        let still_ours = state
            .edges
            .get(&tid)
            .map(|t| t.temp_deleted && t.responsible == Some(edge_id))
            .unwrap_or(false);
        if still_ours {
            state.remove_edge_into(tid, pending_reinsertions);
            state.metrics.reinsertions = state.metrics.reinsertions.saturating_add(1);
        }
    }
    if reinsert_self {
        state.remove_edge_into(edge_id, pending_reinsertions);
        state.metrics.reinsertions = state.metrics.reinsertions.saturating_add(1);
    } else {
        state.remove_edge_completely(edge_id);
    }
}

/// The sequential `random-settle(v, ℓ)` of §3.3.2, applied to every node of `b`
/// in turn.  Used for the E10 ablation and as the deterministic fallback of
/// [`grand_random_settle`].
pub(crate) fn sequential_settle_all(
    state: &mut MatcherState,
    b: Vec<VertexId>,
    level: usize,
    pending_reinsertions: &mut EdgeList,
) {
    let threshold_full = state.params.alpha_pow(level);
    for v in b {
        state.flush_dirty();
        if state.level_of(v) >= level as i32 || state.o_tilde(v, level) < threshold_full {
            continue;
        }
        random_settle_one(state, v, level, pending_reinsertions);
    }
    state.flush_dirty();
}

/// `random-settle(v, ℓ)`: raise `v` to level `ℓ`, sample one of the hyperedges it
/// now owns uniformly at random into the matching, and temporarily delete the rest
/// of its owned edges into the new matched edge's `D(·)`.
pub(crate) fn random_settle_one(
    state: &mut MatcherState,
    v: VertexId,
    level: usize,
    pending_reinsertions: &mut EdgeList,
) {
    state.cost.round();
    let old_level = state.level_of(v);
    state.set_vertex_level(v, level as i32);
    // Candidate edges: everything v now owns that is not matched (its own matched
    // edge, if any, is about to be kicked) and not temporarily deleted.
    let mut candidates: Vec<EdgeId> = state.vertices[v.index()]
        .owned
        .iter()
        .copied()
        .filter(|eid| {
            let e = &state.edges[eid];
            !e.matched && !e.temp_deleted
        })
        .collect();
    // Canonical order: the random pick below must depend only on the candidate
    // *set* and the RNG position, never on hash-set iteration order, so that a
    // checkpoint-restored run makes the same choices as an uninterrupted one.
    candidates.sort_unstable();
    state.cost.work(candidates.len() as u64 + 1);
    if candidates.is_empty() {
        // Nothing to sample (can only happen for degenerate inputs): undo the level
        // change so Invariant 3.1(1) is not violated for an unmatched vertex.
        state.set_vertex_level(v, old_level);
        return;
    }
    let pick = candidates[state.rng.uniform_below(candidates.len() as u64) as usize];

    // Kick the current matched edges of the chosen edge's endpoints, then match.
    kick_matched_endpoints(state, pick, pending_reinsertions);
    state.match_edge(pick, level);

    // Park every other candidate in D(pick).
    for eid in candidates {
        if eid == pick {
            continue;
        }
        let still_live = state
            .edges
            .get(&eid)
            .map(|e| !e.matched && !e.temp_deleted)
            .unwrap_or(false);
        if still_live {
            state.temp_delete_edge(eid, pick);
        }
    }
    let d_size = state.edges[&pick].bucket.len() as u64;
    state.metrics.record_epoch_created(level, d_size);
}

/// `⌈log₂ n⌉` for `n ≥ 1`.
fn ceil_log2(n: u64) -> usize {
    if n <= 1 {
        0
    } else {
        (64 - (n - 1).leading_zeros()) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use pdmm_hypergraph::types::HyperEdge;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn edge(id: u64, vs: &[u32]) -> HyperEdge {
        HyperEdge::new(EdgeId(id), vs.iter().map(|&i| VertexId(i)).collect())
    }

    /// A state with one hub vertex owning `fan` pendant edges.
    fn hub_state(fan: u64) -> MatcherState {
        let mut s = MatcherState::new(fan as usize + 1, Config::for_graphs(3));
        for i in 0..fan {
            s.register(&edge(i, &[0, 1 + i as u32]), false, 0);
        }
        s.flush_dirty();
        s
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
    }

    #[test]
    fn grand_random_settle_raises_hub() {
        // α = 8, so a hub prospectively owning 20 edges qualifies for level 1.
        let mut s = hub_state(20);
        assert!(s.s_levels[1].contains(&v(0)));
        let mut pending = EdgeList::default();
        let b: Vec<VertexId> = s.s_levels[1].iter().copied().collect();
        grand_random_settle(&mut s, b, 1, &mut pending);
        s.flush_dirty();
        // The postcondition of the procedure: the hub either reached level 1 or its
        // prospective ownership fell below α/2 = 4.
        let ok = s.level_of(v(0)) == 1 || s.o_tilde(v(0), 1) < 4;
        assert!(
            ok,
            "postcondition violated: level {}, õ {}",
            s.level_of(v(0)),
            s.o_tilde(v(0), 1)
        );
        // At least one matched edge at level 1 must exist (Lemma 4.6 with |B| = 1).
        let matched_at_1 = s
            .edges
            .values()
            .filter(|e| e.matched && e.level == 1)
            .count();
        assert!(matched_at_1 >= 1);
        // Every temporarily deleted edge is incident to its responsible matched edge.
        for e in s.edges.values() {
            if e.temp_deleted {
                let resp = &s.edges[&e.responsible.unwrap()];
                assert!(resp.matched);
            }
        }
        assert_eq!(s.metrics.settle_invocations, 1);
        assert!(s.metrics.settle_iterations >= 1);
        assert!(
            pending.is_empty(),
            "no matched edges existed, nothing to kick"
        );
    }

    #[test]
    fn sequential_settle_matches_one_and_parks_rest() {
        let mut s = hub_state(12);
        let mut pending = EdgeList::default();
        random_settle_one(&mut s, v(0), 1, &mut pending);
        assert_eq!(s.level_of(v(0)), 1);
        assert_eq!(s.matching_size(), 1);
        let matched_id = s.matched_edge_ids()[0];
        // All other hub edges are parked in D(matched).
        assert_eq!(s.edges[&matched_id].bucket.len(), 11);
        assert_eq!(s.metrics.temp_deletions, 11);
        assert_eq!(s.metrics.per_level[1].epochs_created, 1);
        assert_eq!(s.metrics.per_level[1].d_size_at_creation, 11);
    }

    #[test]
    fn kick_releases_bucket_for_reinsertion() {
        let mut s = hub_state(10);
        let mut pending = EdgeList::default();
        // Settle the hub at level 1, then kick the matched edge out again.
        random_settle_one(&mut s, v(0), 1, &mut pending);
        let matched_id = s.matched_edge_ids()[0];
        kick_matched_edge(&mut s, matched_id, &mut pending);
        // The kicked edge plus its 9 parked edges are queued for re-insertion.
        assert_eq!(pending.len(), 10);
        assert_eq!(s.matching_size(), 0);
        assert_eq!(s.metrics.per_level[1].epochs_ended_induced, 1);
        // The endpoints of the kicked edge became undecided.
        assert!(!s.undecided.is_empty());
    }

    #[test]
    fn process_level_step1_rematches_free_edges() {
        // Path 0-1-2-3 with (1,2) matched at level 2; the adversary deletes it,
        // exposing 1 and 2 as undecided at level 2.
        let mut s = MatcherState::new(4, Config::for_graphs(5));
        s.register(&edge(0, &[0, 1]), false, 0);
        s.register(&edge(1, &[1, 2]), false, 0);
        s.register(&edge(2, &[2, 3]), false, 0);
        s.match_edge(EdgeId(1), 2);
        // Adversary deletion of the matched edge.
        s.unmatch_edge(EdgeId(1));
        let mut pending = EdgeList::default();
        release_bucket_and_remove(&mut s, EdgeId(1), false, &mut pending);
        for level in (0..=s.num_levels()).rev() {
            process_level(&mut s, level, &mut pending);
        }
        s.flush_dirty();
        // Both remaining edges must be matched (they are vertex-disjoint).
        assert_eq!(s.matching_size(), 2);
        assert!(s.undecided.is_empty());
        assert!(pending.is_empty());
        // Undecided nodes that got rematched sit at level 0 with their new edges.
        assert_eq!(s.edges[&EdgeId(0)].level, 0);
        assert_eq!(s.edges[&EdgeId(2)].level, 0);
    }

    #[test]
    fn process_level_step1_demotes_isolated_nodes() {
        // A single matched edge (0,1) is deleted; the endpoints have no other
        // incident edges and must settle at level -1.
        let mut s = MatcherState::new(2, Config::for_graphs(6));
        s.register(&edge(0, &[0, 1]), false, 0);
        s.match_edge(EdgeId(0), 1);
        s.unmatch_edge(EdgeId(0));
        let mut pending = EdgeList::default();
        release_bucket_and_remove(&mut s, EdgeId(0), false, &mut pending);
        for level in (0..=s.num_levels()).rev() {
            process_level(&mut s, level, &mut pending);
        }
        assert_eq!(s.level_of(v(0)), -1);
        assert_eq!(s.level_of(v(1)), -1);
        assert_eq!(s.matching_size(), 0);
        assert!(s.undecided.is_empty());
    }

    #[test]
    fn grand_random_settle_with_many_hubs() {
        // Several disjoint hubs, all qualifying for level 1 simultaneously: the
        // parallel settle must handle them in one invocation.
        let hubs = 6u32;
        let fan = 15u32;
        let n = hubs * (fan + 1);
        let mut s = MatcherState::new(n as usize, Config::for_graphs(9));
        let mut next = 0u64;
        for h in 0..hubs {
            let base = h * (fan + 1);
            for i in 0..fan {
                s.register(&edge(next, &[base, base + 1 + i]), false, 0);
                next += 1;
            }
        }
        s.flush_dirty();
        let b: Vec<VertexId> = s.s_levels[1].iter().copied().collect();
        assert_eq!(b.len(), hubs as usize);
        let mut pending = EdgeList::default();
        grand_random_settle(&mut s, b.clone(), 1, &mut pending);
        s.flush_dirty();
        for &hub in &b {
            let ok = s.level_of(hub) == 1 || s.o_tilde(hub, 1) < 4;
            assert!(ok, "hub {hub} violates the settle postcondition");
        }
        // Lemma 4.6: at least |B|/α³ new matched edges; with |B| = 6 and α = 8 the
        // bound is trivially ≥ 1 — check the stronger practical expectation that at
        // least one edge per two hubs was created.
        assert!(s.matching_size() >= 1);
    }
}
