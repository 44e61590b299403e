//! Checkpoint (de)serialization of the parallel algorithm's complete state.
//!
//! The blob is **canonical**: a pure function of the logical state, independent
//! of the history that produced it.  Three representation choices make that
//! true even though the live structures are full of hash maps and
//! history-ordered vectors:
//!
//! * the edge table is written in ascending id order;
//! * the `D(e)` buckets are not written at all — their live content is exactly
//!   the temporarily deleted edges whose `responsible` pointer names `e`
//!   (stale ids of adversary-deleted edges are scrubbed lazily and are
//!   unobservable), so restore re-derives each bucket from the pointers, in
//!   ascending id order.  Bucket order never influences a decision: released
//!   edges feed Luby whose selected set is order-independent;
//! * per-vertex state is not written either — at a batch boundary it is fully
//!   determined by the edge table (Invariant 3.1: a vertex is at level `-1`
//!   iff unmatched, a matched vertex sits at its matched edge's level, and the
//!   owned/unowned sets mirror the stored edge owners and levels, the parked
//!   buckets the temporarily deleted flags).
//!
//! Restore rebuilds the structures through the same `MatcherState` procedures
//! the algorithm itself uses and then runs the full §3.2 invariant check, so a
//! damaged blob surfaces as [`StateError::Corrupt`] rather than as a
//! mysteriously wrong matching later.

use crate::config::LevelingParams;
use crate::invariants;
use crate::metrics::{LevelStats, Metrics};
use crate::state::MatcherState;
use pdmm_hypergraph::engine::{
    read_state_header, read_state_rng, write_state_header, write_state_rng, StateError, StateParser,
};
use pdmm_hypergraph::types::{EdgeId, VertexId};
use pdmm_primitives::cost_model::CostTracker;
use pdmm_primitives::random::RandomSource;

/// Engine name recorded in (and demanded of) parallel-engine blobs.
pub(crate) const ENGINE_NAME: &str = "parallel-dynamic";

/// Serializes `state` at a batch boundary; `None` mid-sweep (never the case
/// through the engine API, which only exposes quiescent states).
pub(crate) fn save(state: &MatcherState) -> Option<String> {
    if !state.dirty.is_empty() || !state.undecided.is_empty() {
        return None;
    }
    use std::fmt::Write as _;
    let mut out = String::new();
    write_state_header(
        &mut out,
        ENGINE_NAME,
        state.num_vertices(),
        state.config.max_rank,
    );
    let _ = writeln!(
        out,
        "params {} {}",
        state.params.n_bound, state.updates_since_rebuild
    );
    let c = state.cost.snapshot();
    let _ = writeln!(out, "cost {} {}", c.work, c.depth);
    let (words, index) = state.rng.state();
    write_state_rng(&mut out, words, index);
    let m = &state.metrics;
    let _ = writeln!(
        out,
        "metrics {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
        m.batches,
        m.updates,
        m.insertions,
        m.deletions,
        m.matched_deletions,
        m.temp_deleted_deletions,
        m.temp_deletions,
        m.reinsertions,
        m.settle_invocations,
        m.settle_outer_repeats,
        m.settle_iterations,
        m.luby_iterations,
        m.rebuilds,
        m.levels_processed
    );
    let _ = writeln!(out, "levels {}", m.per_level.len());
    for l in &m.per_level {
        let _ = writeln!(
            out,
            "lv {} {} {} {} {}",
            l.epochs_created,
            l.epochs_ended_natural,
            l.epochs_ended_induced,
            l.d_size_at_creation,
            l.d_deleted_before_natural_end
        );
    }
    let mut ids: Vec<EdgeId> = state.edges.keys().copied().collect();
    ids.sort_unstable();
    let _ = writeln!(out, "edges {}", ids.len());
    for id in ids {
        let e = &state.edges[&id];
        let _ = write!(
            out,
            "e {} {} {} {} {} ",
            id.0,
            e.level,
            e.owner.0,
            u8::from(e.matched),
            u8::from(e.temp_deleted)
        );
        match e.responsible {
            Some(r) => {
                let _ = write!(out, "{}", r.0);
            }
            None => out.push('-'),
        }
        let _ = write!(out, " {}", e.d_deleted_count);
        for v in e.vertices.iter() {
            let _ = write!(out, " {}", v.0);
        }
        out.push('\n');
    }
    Some(out)
}

/// Restores a blob written by [`save`] into a freshly built `state`.
pub(crate) fn restore(state: &mut MatcherState, blob: &str) -> Result<(), StateError> {
    if state.metrics.batches != 0 {
        return Err(StateError::NotFresh {
            batches: state.metrics.batches,
        });
    }
    let mut p = StateParser::new(blob);
    read_state_header(
        &mut p,
        ENGINE_NAME,
        state.num_vertices(),
        state.config.max_rank,
    )?;
    let (n_bound, updates_since_rebuild): (u64, u64) = {
        let rest = p.tagged("params")?;
        let [nb, usr] = p.tokens(rest)?;
        (
            p.parse_token(nb, "n bound")?,
            p.parse_token(usr, "updates-since-rebuild count")?,
        )
    };
    let (work, depth): (u64, u64) = {
        let rest = p.tagged("cost")?;
        let [w, d] = p.tokens(rest)?;
        (
            p.parse_token(w, "work total")?,
            p.parse_token(d, "depth total")?,
        )
    };
    let (words, index) = read_state_rng(&mut p)?;
    let mut metrics = {
        let rest = p.tagged("metrics")?;
        let t: [&str; 14] = p.tokens(rest)?;
        let mut vals = [0u64; 14];
        for (v, tok) in vals.iter_mut().zip(&t) {
            *v = p.parse_token(tok, "metrics counter")?;
        }
        Metrics {
            batches: vals[0],
            updates: vals[1],
            insertions: vals[2],
            deletions: vals[3],
            matched_deletions: vals[4],
            temp_deleted_deletions: vals[5],
            temp_deletions: vals[6],
            reinsertions: vals[7],
            settle_invocations: vals[8],
            settle_outer_repeats: vals[9],
            settle_iterations: vals[10],
            luby_iterations: vals[11],
            rebuilds: vals[12],
            levels_processed: vals[13],
            per_level: Vec::new(),
        }
    };
    let level_count: usize = {
        let rest = p.tagged("levels")?;
        p.parse_token(rest, "level count")?
    };
    for _ in 0..level_count {
        let rest = p.tagged("lv")?;
        let [a, b, c, d, e] = p.tokens(rest)?;
        metrics.per_level.push(LevelStats {
            epochs_created: p.parse_token(a, "epoch counter")?,
            epochs_ended_natural: p.parse_token(b, "epoch counter")?,
            epochs_ended_induced: p.parse_token(c, "epoch counter")?,
            d_size_at_creation: p.parse_token(d, "epoch counter")?,
            d_deleted_before_natural_end: p.parse_token(e, "epoch counter")?,
        });
    }

    // Re-derive the leveling parameters exactly as construction and the
    // doubling rebuild do, then start from an empty state under them (the
    // fresh engine may have fewer levels than the blob).
    let params = LevelingParams::new(state.config.max_rank, n_bound);
    let num_levels = params.num_levels;
    if metrics.per_level.len() < num_levels + 1 {
        return Err(p.corrupt(format!(
            "per-level table has {} entries for {} levels",
            metrics.per_level.len(),
            num_levels
        )));
    }
    *state = MatcherState::with_params(state.num_vertices(), state.config.clone(), params);

    // Edge table.
    let edge_count: usize = {
        let rest = p.tagged("edges")?;
        p.parse_token(rest, "edge count")?
    };
    let mut matched: Vec<EdgeId> = Vec::new();
    let mut temp_deleted: Vec<(EdgeId, EdgeId)> = Vec::new();
    let mut vertices: Vec<VertexId> = Vec::new();
    for _ in 0..edge_count {
        let rest = p.tagged("e")?;
        let mut it = rest.split_whitespace();
        let mut next = |what: &str| {
            it.next()
                .map(str::to_owned)
                .ok_or_else(|| p.corrupt(format!("edge line missing {what}")))
        };
        let id = EdgeId(p.parse_token(&next("id")?, "edge id")?);
        let level: usize = p.parse_token(&next("level")?, "edge level")?;
        let owner = VertexId(p.parse_token(&next("owner")?, "edge owner")?);
        let is_matched = match next("matched flag")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(p.corrupt(format!("invalid matched flag `{other}`"))),
        };
        let is_temp = match next("temp-deleted flag")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(p.corrupt(format!("invalid temp-deleted flag `{other}`"))),
        };
        let responsible = match next("responsible field")?.as_str() {
            "-" => None,
            tok => Some(EdgeId(p.parse_token(tok, "responsible edge id")?)),
        };
        let d_deleted_count: u64 = p.parse_token(&next("deleted-count field")?, "deleted count")?;
        vertices.clear();
        for tok in it {
            let v = VertexId(p.parse_token(tok, "vertex id")?);
            if v.index() >= state.vertices.len() {
                return Err(p.corrupt(format!("vertex {v} out of range")));
            }
            vertices.push(v);
        }
        vertices.sort_unstable();
        vertices.dedup();
        if vertices.is_empty() {
            return Err(p.corrupt(format!("edge {id} has no endpoints")));
        }
        if vertices.len() > state.config.max_rank {
            return Err(p.corrupt(format!("edge {id} exceeds the configured rank")));
        }
        if state.edges.contains_key(&id) {
            return Err(p.corrupt(format!("duplicate edge id {id}")));
        }
        if level > num_levels {
            return Err(p.corrupt(format!("edge {id} level {level} > {num_levels}")));
        }
        if !vertices.contains(&owner) {
            return Err(p.corrupt(format!("edge {id} owner {owner} is not an endpoint")));
        }
        if is_temp != responsible.is_some() || (is_matched && is_temp) {
            return Err(p.corrupt(format!("edge {id} has inconsistent flags")));
        }
        if is_matched {
            matched.push(id);
        }
        if let Some(r) = responsible {
            temp_deleted.push((id, r));
        }
        let mut edge = state.new_edge(&vertices);
        edge.level = level;
        edge.owner = owner;
        edge.matched = is_matched;
        edge.temp_deleted = is_temp;
        edge.responsible = responsible;
        edge.d_deleted_count = d_deleted_count;
        state.edges.insert(id, edge);
    }
    p.finish()?;

    // Derive vertex state from the matched edges (Invariant 3.1), then
    // re-register every visible edge in the vertex structures.  The whole
    // restored matching is the first delta the engine hands out.
    state.matched_count = matched.len();
    for &id in &matched {
        let e = &state.edges[&id];
        let level = e.level;
        state.delta.matched(id, &e.vertices);
        for &v in e.vertices.iter() {
            let vs = &mut state.vertices[v.index()];
            if vs.matched_edge.is_some() {
                return Err(StateError::Corrupt {
                    line: 0,
                    message: format!("vertex {v} is covered by two matched edges"),
                });
            }
            vs.matched_edge = Some(id);
            vs.level = level as i32;
        }
    }
    let ids: Vec<EdgeId> = state.edges.keys().copied().collect();
    for id in ids {
        if !state.edges[&id].temp_deleted {
            state.add_edge_to_structures(id);
        }
    }
    // Re-derive the `D(·)` buckets from the responsible pointers, in canonical
    // ascending-id order (bucket order is decision-irrelevant; see module doc).
    temp_deleted.sort_unstable();
    for (id, r) in temp_deleted {
        let ok = state
            .edges
            .get(&r)
            .is_some_and(|e| e.matched && !e.temp_deleted);
        if !ok {
            return Err(StateError::Corrupt {
                line: 0,
                message: format!("edge {id} names a non-matched responsible edge {r}"),
            });
        }
        state
            .edges
            .get_mut(&r)
            .expect("checked above")
            .bucket
            .push(id);
        state.park(id);
    }
    state.flush_dirty();
    invariants::check_all(state).map_err(|msg| StateError::Corrupt {
        line: 0,
        message: format!("restored state violates invariants: {msg}"),
    })?;

    // Install the scalar state last: the structural rebuild above ran through
    // the normal cost-counting procedures, which must not leak into the
    // restored totals.
    state.rng = RandomSource::from_state(words, index);
    let cost = CostTracker::new();
    cost.work(work);
    cost.rounds(depth);
    state.cost = cost;
    state.metrics = metrics;
    state.updates_since_rebuild = updates_since_rebuild;
    Ok(())
}
