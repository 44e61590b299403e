//! Structural invariant checking (Invariants 3.1, 3.2 and maximality).
//!
//! These checks are `O(n·L + Σ_e r)` per call and are used by the test suite (and by
//! [`crate::Config::check_invariants`]) after every batch:
//!
//! * **Invariant 3.1** — levels: `ℓ(e) ∈ [0, L]`, `ℓ(v) ∈ [-1, L]` with
//!   `ℓ(v) = -1` iff `v` is unmatched; matched edges have all endpoints at their
//!   level; unmatched edges sit at the maximum level of their endpoints.
//! * **Invariant 3.2** — every temporarily deleted edge is incident on a matched
//!   edge (in fact on the matched edge responsible for it).
//! * **Maximality** — every live, non-temporarily-deleted edge has a matched
//!   endpoint, and matched edges are pairwise disjoint.
//! * **Structure consistency** — the `O(v)` / `A(v,ℓ)` and parked buckets
//!   agree exactly with the edge records and their stored slots, no two live
//!   edges share an endpoint or slot slice and none sits on a free list of
//!   recycled slices, and the `S_ℓ` sets agree with their definition and
//!   with every vertex's `s_mask`.

use crate::state::MatcherState;
use pdmm_hypergraph::types::{EdgeId, VertexId};
use rustc_hash::{FxHashMap, FxHashSet};

/// Runs every invariant check; returns the first violation found.
pub(crate) fn check_all(state: &MatcherState) -> Result<(), String> {
    check_levels(state)?;
    check_matching(state)?;
    check_temp_deleted(state)?;
    check_structures(state)?;
    check_s_levels(state)?;
    Ok(())
}

/// Invariant 3.1: level ranges and the level rules for matched/unmatched edges.
fn check_levels(state: &MatcherState) -> Result<(), String> {
    let num_levels = state.num_levels() as i32;
    for (i, vs) in state.vertices.iter().enumerate() {
        if vs.level < -1 || vs.level > num_levels {
            return Err(format!(
                "vertex v{i} has level {} outside [-1, {num_levels}]",
                vs.level
            ));
        }
        match (vs.level == -1, vs.matched_edge.is_none()) {
            (true, false) => {
                return Err(format!("vertex v{i} is matched but sits at level -1"));
            }
            (false, true) => {
                return Err(format!(
                    "vertex v{i} is unmatched but sits at level {}",
                    vs.level
                ));
            }
            _ => {}
        }
    }
    for (id, e) in &state.edges {
        if e.temp_deleted {
            continue;
        }
        if e.level > state.num_levels() {
            return Err(format!("edge {id} has level {} above L", e.level));
        }
        if e.matched {
            for &v in e.vertices.iter() {
                if state.level_of(v) != e.level as i32 {
                    return Err(format!(
                        "matched edge {id} at level {} has endpoint {v} at level {}",
                        e.level,
                        state.level_of(v)
                    ));
                }
            }
        } else {
            let max_level = e
                .vertices
                .iter()
                .map(|&v| state.level_of(v))
                .max()
                .unwrap_or(-1);
            if e.level as i32 != max_level.max(0) {
                return Err(format!(
                    "unmatched edge {id} has level {} but max endpoint level is {max_level}",
                    e.level
                ));
            }
            let owner_level = state.level_of(e.owner);
            if owner_level != max_level {
                return Err(format!(
                    "edge {id} is owned by {} at level {owner_level}, not a maximum-level endpoint ({max_level})",
                    e.owner
                ));
            }
        }
        if !e.vertices.contains(&e.owner) {
            return Err(format!("edge {id} is owned by non-endpoint {}", e.owner));
        }
    }
    Ok(())
}

/// Matching validity (disjointness, pointer consistency) and maximality.
fn check_matching(state: &MatcherState) -> Result<(), String> {
    let mut covered: FxHashMap<VertexId, EdgeId> = FxHashMap::default();
    for (id, e) in &state.edges {
        if !e.matched {
            continue;
        }
        if e.temp_deleted {
            return Err(format!("matched edge {id} is also temporarily deleted"));
        }
        for &v in e.vertices.iter() {
            if let Some(other) = covered.insert(v, *id) {
                return Err(format!("vertex {v} is covered by both {other} and {id}"));
            }
            if state.vertices[v.index()].matched_edge != Some(*id) {
                return Err(format!(
                    "vertex {v} does not point back at its matched edge {id}"
                ));
            }
        }
    }
    for (i, vs) in state.vertices.iter().enumerate() {
        if let Some(m) = vs.matched_edge {
            match state.edges.get(&m) {
                None => return Err(format!("vertex v{i} points at missing matched edge {m}")),
                Some(e) if !e.matched => {
                    return Err(format!("vertex v{i} points at unmatched edge {m}"))
                }
                Some(e) if !e.vertices.contains(&VertexId(i as u32)) => {
                    return Err(format!(
                        "vertex v{i} points at edge {m} that does not contain it"
                    ))
                }
                _ => {}
            }
        }
    }
    // Maximality over every live, non-temporarily-deleted edge.
    for (id, e) in &state.edges {
        if e.temp_deleted || e.matched {
            continue;
        }
        if e.vertices.iter().all(|&v| !covered.contains_key(&v)) {
            return Err(format!(
                "matching is not maximal: edge {id} has no matched endpoint"
            ));
        }
    }
    let matched = state.edges.values().filter(|e| e.matched).count();
    if matched != state.matched_count {
        return Err(format!(
            "matched count {} disagrees with the {matched} matched edges",
            state.matched_count
        ));
    }
    Ok(())
}

/// Invariant 3.2: temporarily deleted edges are incident on their (matched)
/// responsible edge.
fn check_temp_deleted(state: &MatcherState) -> Result<(), String> {
    for (id, e) in &state.edges {
        if !e.temp_deleted {
            continue;
        }
        let Some(resp_id) = e.responsible else {
            return Err(format!("temp-deleted edge {id} has no responsible edge"));
        };
        let Some(resp) = state.edges.get(&resp_id) else {
            return Err(format!(
                "temp-deleted edge {id} is responsible to missing edge {resp_id}"
            ));
        };
        if !resp.matched {
            return Err(format!(
                "temp-deleted edge {id} is responsible to unmatched edge {resp_id}"
            ));
        }
        let shares_vertex = e.vertices.iter().any(|v| resp.vertices.contains(v));
        if !shares_vertex {
            return Err(format!(
                "temp-deleted edge {id} is not incident on its responsible edge {resp_id}"
            ));
        }
        if !resp.bucket.contains(id) {
            return Err(format!(
                "temp-deleted edge {id} is missing from D({resp_id})"
            ));
        }
    }
    Ok(())
}

/// The `O(v)` / `A(v, ℓ)` buckets agree exactly with the edge records: every
/// bucket entry names a live, visible edge whose stored slot, owner and level
/// put it there, and every incidence of such an edge sits at its stored slot.
/// The parked buckets `P(v)` do the same for temporarily deleted edges.
/// Together these put each incidence in exactly one bucket, exactly once.
/// Finally, every live edge owns its endpoint and slot slices: no other live
/// edge holds them and no free list of recycled slices lists them.
fn check_structures(state: &MatcherState) -> Result<(), String> {
    for (i, vs) in state.vertices.iter().enumerate() {
        let v = VertexId(i as u32);
        for (slot, id) in vs.parked.iter().enumerate() {
            let parked_here = state.edges.get(id).is_some_and(|e| {
                let mut incidences = e.vertices.iter().zip(e.slots.iter());
                e.temp_deleted && incidences.any(|(&w, &at)| w == v && at as usize == slot)
            });
            if !parked_here {
                return Err(format!(
                    "P(v{i}) holds {id} at slot {slot}, not a temp-deleted edge parked there"
                ));
            }
        }
        let buckets = std::iter::once((None, &vs.owned))
            .chain(vs.unowned.iter().enumerate().map(|(l, b)| (Some(l), b)));
        for (level, bucket) in buckets {
            let name = match level {
                None => format!("O(v{i})"),
                Some(l) => format!("A(v{i}, {l})"),
            };
            for (slot, id) in bucket.iter().enumerate() {
                let Some(e) = state.edges.get(id) else {
                    return Err(format!("{name} references dead edge {id}"));
                };
                if e.temp_deleted {
                    return Err(format!("temp-deleted edge {id} still referenced by v{i}"));
                }
                let Some(pos) = e.vertices.iter().position(|&w| w == v) else {
                    return Err(format!("{name} contains edge {id} not incident on v{i}"));
                };
                match level {
                    None if e.owner != v => {
                        return Err(format!("{name} contains edge {id} owned by {}", e.owner));
                    }
                    Some(_) if e.owner == v => {
                        return Err(format!("edge {id} wrongly present in {name}: v{i} owns it"));
                    }
                    Some(l) if e.level != l => {
                        return Err(format!(
                            "{name} contains edge {id} whose level is {}",
                            e.level
                        ));
                    }
                    _ => {}
                }
                if e.slots[pos] as usize != slot {
                    return Err(format!(
                        "edge {id} sits at slot {slot} of {name} but records slot {}",
                        e.slots[pos]
                    ));
                }
            }
        }
    }
    for (id, e) in &state.edges {
        for (&v, &slot) in e.vertices.iter().zip(e.slots.iter()) {
            let vs = &state.vertices[v.index()];
            let bucket = if e.temp_deleted {
                &vs.parked
            } else {
                vs.bucket(v == e.owner, e.level)
            };
            if bucket.get(slot as usize) != Some(id) {
                return Err(format!(
                    "incidence ({v}, {id}) is not at its slot {slot} of {}",
                    if e.temp_deleted {
                        format!("P({v})")
                    } else if v == e.owner {
                        format!("O({v})")
                    } else {
                        format!("A({v}, {})", e.level)
                    }
                ));
            }
        }
    }
    check_slices(state)
}

/// Every live edge's endpoint and slot slices are its own, and each free
/// list holds only unused slices of its rank.
fn check_slices(state: &MatcherState) -> Result<(), String> {
    // Slice address → the live edge holding it (`None`: a free list).
    let mut holders: FxHashMap<usize, Option<EdgeId>> =
        FxHashMap::with_capacity_and_hasher(2 * state.edges.len(), Default::default());
    for (id, e) in &state.edges {
        if e.slots.len() != e.vertices.len() {
            return Err(format!(
                "edge {id} has {} slots for {} endpoints",
                e.slots.len(),
                e.vertices.len()
            ));
        }
        for at in [e.vertices.as_ptr() as usize, e.slots.as_ptr() as usize] {
            if let Some(other) = holders.insert(at, Some(*id)).flatten() {
                return Err(format!("edges {other} and {id} share a recycled slice"));
            }
        }
    }
    for (rank, spare) in state.spare.iter().enumerate() {
        for (ends, slots) in spare {
            if ends.len() != rank || slots.len() != rank {
                return Err(format!(
                    "the rank-{rank} free list holds slices of {} and {} entries",
                    ends.len(),
                    slots.len()
                ));
            }
            for at in [ends.as_ptr() as usize, slots.as_ptr() as usize] {
                match holders.insert(at, None) {
                    Some(Some(id)) => {
                        return Err(format!(
                            "live edge {id}'s slice is on the rank-{rank} free list"
                        ))
                    }
                    Some(None) => {
                        return Err(format!("a rank-{rank} slice is on a free list twice"))
                    }
                    None => {}
                }
            }
        }
    }
    Ok(())
}

/// The `S_ℓ` sets agree with the definition of §3.2.3, and each vertex's
/// `s_mask` with the sets (requires `flush_dirty` to have run, which
/// [`crate::ParallelDynamicMatching::verify_invariants`] ensures).
fn check_s_levels(state: &MatcherState) -> Result<(), String> {
    if !state.dirty.is_empty() {
        return Err(format!(
            "{} vertices are still dirty after a flush",
            state.dirty.len()
        ));
    }
    let mut members = 0;
    for (i, vs) in state.vertices.iter().enumerate() {
        let v = VertexId(i as u32);
        if vs.dirty {
            return Err(format!("v{i} is flagged dirty but not listed"));
        }
        if vs.s_mask >> state.num_levels() > 1 {
            return Err(format!("s_mask of v{i} has bits above level L"));
        }
        for level in 0..=state.num_levels() {
            let threshold = state.params.alpha_pow(level);
            let should =
                (state.level_of(v) as i64) < level as i64 && state.o_tilde(v, level) >= threshold;
            let is = state.s_levels[level].contains(&v);
            if should != is {
                return Err(format!(
                    "S_{level} disagrees for {v}: stored {is}, expected {should} \
                     (level {}, õ {})",
                    state.level_of(v),
                    state.o_tilde(v, level)
                ));
            }
            if (vs.s_mask >> level & 1 == 1) != is {
                return Err(format!(
                    "s_mask bit {level} of {v} disagrees with S_{level} (member: {is})"
                ));
            }
        }
        members += vs.s_mask.count_ones() as usize;
    }
    let stored: usize = state.s_levels.iter().map(FxHashSet::len).sum();
    if stored != members {
        return Err(format!(
            "S_ℓ sets hold {stored} entries for {members} mask bits"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use pdmm_hypergraph::types::HyperEdge;

    fn edge(id: u64, vs: &[u32]) -> HyperEdge {
        HyperEdge::new(EdgeId(id), vs.iter().map(|&i| VertexId(i)).collect())
    }

    #[test]
    fn empty_state_satisfies_all_invariants() {
        let mut s = MatcherState::new(5, Config::for_graphs(0));
        s.flush_dirty();
        assert_eq!(check_all(&s), Ok(()));
    }

    #[test]
    fn healthy_small_state_passes() {
        let mut s = MatcherState::new(4, Config::for_graphs(1));
        s.register(&edge(0, &[0, 1]), false, 0);
        s.register(&edge(1, &[1, 2]), false, 0);
        s.match_edge(EdgeId(0), 0);
        s.flush_dirty();
        assert_eq!(check_all(&s), Ok(()));
    }

    #[test]
    fn detects_non_maximal_matching() {
        let mut s = MatcherState::new(4, Config::for_graphs(2));
        s.register(&edge(0, &[0, 1]), false, 0);
        s.register(&edge(1, &[2, 3]), false, 0);
        s.match_edge(EdgeId(0), 0);
        s.flush_dirty();
        let err = check_all(&s).unwrap_err();
        assert!(err.contains("not maximal"), "unexpected error: {err}");
    }

    #[test]
    fn detects_undecided_vertex_left_behind() {
        let mut s = MatcherState::new(2, Config::for_graphs(3));
        s.register(&edge(0, &[0, 1]), false, 0);
        s.match_edge(EdgeId(0), 1);
        // Unmatching without running the level sweep leaves the endpoints at level
        // 1 while unmatched — exactly what Invariant 3.1(1) forbids.
        s.unmatch_edge(EdgeId(0));
        s.flush_dirty();
        let err = check_all(&s).unwrap_err();
        assert!(
            err.contains("unmatched but sits at level"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn detects_stale_level_bucket() {
        let mut s = MatcherState::new(3, Config::for_graphs(4));
        s.register(&edge(0, &[0, 1]), false, 0);
        s.register(&edge(1, &[1, 2]), false, 0);
        s.match_edge(EdgeId(0), 0);
        // Corrupt the state: claim the unmatched edge sits at level 2 without
        // moving it between buckets.
        s.edges.get_mut(&EdgeId(1)).unwrap().level = 2;
        s.flush_dirty();
        assert!(check_all(&s).is_err());
    }

    #[test]
    fn detects_orphaned_temp_deletion() {
        let mut s = MatcherState::new(4, Config::for_graphs(5));
        s.register(&edge(0, &[0, 1]), false, 0);
        s.register(&edge(1, &[1, 2]), false, 0);
        s.match_edge(EdgeId(0), 0);
        s.temp_delete_edge(EdgeId(1), EdgeId(0));
        // Forcibly unmatch the responsible edge: Invariant 3.2 is now violated
        // because the temp-deleted edge hangs off an unmatched edge.
        s.edges.get_mut(&EdgeId(0)).unwrap().matched = false;
        s.vertices[0].matched_edge = None;
        s.vertices[1].matched_edge = None;
        s.vertices[0].level = -1;
        s.vertices[1].level = -1;
        s.flush_dirty();
        // Several invariants are now broken (maximality, 3.1(1), 3.2); the checker
        // must flag the state as invalid whichever it reports first.
        assert!(check_all(&s).is_err());
    }

    #[test]
    fn detects_temp_deleted_edge_left_in_a_vertex_structure() {
        // Star around v0: edge 0 = {0, 1} is matched, edges 1 = {0, 2} and
        // 2 = {0, 3} are parked in D(0); each corruption re-inserts one of
        // them into a vertex structure it must have left.
        let parked = || {
            let mut s = MatcherState::new(4, Config::for_graphs(6));
            s.register(&edge(0, &[0, 1]), false, 0);
            s.register(&edge(1, &[0, 2]), false, 0);
            s.register(&edge(2, &[0, 3]), false, 0);
            s.match_edge(EdgeId(0), 1);
            s.temp_delete_edge(EdgeId(1), EdgeId(0));
            s.temp_delete_edge(EdgeId(2), EdgeId(0));
            s.flush_dirty();
            assert_eq!(check_all(&s), Ok(()));
            s
        };
        let mut in_owned = parked();
        in_owned.vertices[2].owned.push(EdgeId(1));
        let mut in_bucket = parked();
        in_bucket.vertices[3].unowned.resize(2, Vec::new());
        in_bucket.vertices[3].unowned[1].push(EdgeId(2));
        // And the reverse: a parked entry dropped from its bucket.
        let mut unparked = parked();
        assert_eq!(unparked.vertices[3].parked, [EdgeId(2)]);
        unparked.vertices[3].parked.clear();
        for (s, expected) in [
            (in_owned, "temp-deleted edge e1 still referenced by v2"),
            (in_bucket, "temp-deleted edge e2 still referenced by v3"),
            (unparked, "incidence (v3, e2) is not at its slot 0 of P(v3)"),
        ] {
            assert_eq!(check_all(&s), Err(expected.to_string()));
        }
    }

    #[test]
    fn detects_a_misfiled_free_list_entry() {
        let mut s = MatcherState::new(3, Config::for_graphs(7));
        s.register(&edge(0, &[0, 1]), true, 0);
        s.register(&edge(1, &[1, 2]), false, 0);
        s.remove_edge_completely(EdgeId(1));
        s.flush_dirty();
        assert_eq!(check_all(&s), Ok(()));
        // Move the rank-2 pair onto the rank-1 list.
        let pair = s.spare[2].pop().unwrap();
        s.spare[1].push(pair);
        assert_eq!(
            check_all(&s),
            Err("the rank-1 free list holds slices of 2 and 2 entries".to_string())
        );
    }
}
