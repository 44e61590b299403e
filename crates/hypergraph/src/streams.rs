//! Batched update-stream generators (the oblivious adversary).
//!
//! The dynamic model of §2 delivers updates in batches of arbitrary size; the
//! adversary fixes the whole update sequence up front, independently of the
//! algorithm's coins.  Every generator here therefore produces the *entire* sequence
//! of batches from a seed before the algorithm runs.
//!
//! The streams used by the experiments:
//!
//! * **insert-only** — all edges arrive in batches (the static-from-dynamic case),
//! * **sliding window** — edges arrive and expire after a fixed window (the
//!   practical "intrinsically dynamic" scenario of §1),
//! * **random churn** — each batch mixes insertions of fresh random edges and
//!   deletions of uniformly random live edges,
//! * **deletion-heavy teardown** — the whole graph is inserted and then deleted in
//!   random order (forces matched-edge deletions, exercising `process-level` and
//!   `grand-random-settle`),
//! * **hub churn** — churn concentrated around a few hub vertices (stresses the
//!   leveling scheme with vertices of rapidly changing degree).

use crate::generators;
use crate::types::{EdgeId, HyperEdge, Update, UpdateBatch, VertexId};
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rustc_hash::FxHashSet;

/// A full dynamic workload: the number of vertices and the sequence of batches.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Number of vertices in the underlying hypergraph.
    pub num_vertices: usize,
    /// Maximum rank of any hyperedge in the stream.
    pub rank: usize,
    /// The batches, in arrival order.
    pub batches: Vec<UpdateBatch>,
    /// Human-readable description (used by the experiment tables).
    pub name: String,
}

impl Workload {
    /// Total number of updates across all batches.
    #[must_use]
    pub fn total_updates(&self) -> usize {
        self.batches.iter().map(UpdateBatch::len).sum()
    }

    /// Number of insertions across all batches.
    #[must_use]
    pub fn total_insertions(&self) -> usize {
        self.batches
            .iter()
            .flat_map(|b| b.iter())
            .filter(|u| u.is_insert())
            .count()
    }
}

/// Seals a generator-built batch through the validating [`UpdateBatch`]
/// constructor.  Generators are deterministic and never produce invalid
/// batches, but since PR 4 they cannot *bypass* validation either — a generator
/// bug now fails fast here instead of surfacing as a confusing engine error.
fn seal(updates: Vec<Update>) -> UpdateBatch {
    UpdateBatch::new(updates).expect("stream generator produced an invalid batch")
}

/// Splits a list of edges into insert-only batches of (at most) `batch_size`.
#[must_use]
pub fn insert_only(num_vertices: usize, edges: Vec<HyperEdge>, batch_size: usize) -> Workload {
    assert!(batch_size > 0);
    let rank = edges.iter().map(HyperEdge::rank).max().unwrap_or(2);
    let batches = edges
        .chunks(batch_size)
        .map(|chunk| seal(chunk.iter().cloned().map(Update::Insert).collect()))
        .collect();
    Workload {
        num_vertices,
        rank,
        batches,
        name: format!("insert-only(batch={batch_size})"),
    }
}

/// Sliding-window stream: edges arrive in insertion batches and are deleted again
/// exactly `window` batches later.
#[must_use]
pub fn sliding_window(
    num_vertices: usize,
    edges: Vec<HyperEdge>,
    batch_size: usize,
    window: usize,
) -> Workload {
    assert!(batch_size > 0 && window > 0);
    let rank = edges.iter().map(HyperEdge::rank).max().unwrap_or(2);
    let chunks: Vec<Vec<HyperEdge>> = edges
        .chunks(batch_size)
        .map(<[HyperEdge]>::to_vec)
        .collect();
    let mut batches: Vec<UpdateBatch> = Vec::new();
    let num_arrivals = chunks.len();
    for step in 0..num_arrivals + window {
        let mut batch: Vec<Update> = Vec::new();
        if step < num_arrivals {
            batch.extend(chunks[step].iter().cloned().map(Update::Insert));
        }
        if step >= window && step - window < num_arrivals {
            batch.extend(chunks[step - window].iter().map(|e| Update::Delete(e.id)));
        }
        if !batch.is_empty() {
            batches.push(seal(batch));
        }
    }
    Workload {
        num_vertices,
        rank,
        batches,
        name: format!("sliding-window(batch={batch_size},window={window})"),
    }
}

/// Random churn: starts from `initial` edges (inserted in one priming batch), then
/// produces `num_batches` batches of `batch_size` updates where each update is an
/// insertion of a fresh uniformly random rank-`rank` hyperedge with probability
/// `insert_fraction`, and otherwise a deletion of a uniformly random live edge.
#[must_use]
pub fn random_churn(
    num_vertices: usize,
    rank: usize,
    initial: usize,
    num_batches: usize,
    batch_size: usize,
    insert_fraction: f64,
    seed: u64,
) -> Workload {
    assert!(num_vertices >= rank && rank >= 1);
    assert!((0.0..=1.0).contains(&insert_fraction));
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut next_id: u64 = 0;
    let mut live: Vec<EdgeId> = Vec::new();
    let mut batches: Vec<UpdateBatch> = Vec::new();

    let initial_edges =
        generators::random_hypergraph(num_vertices, initial, rank, seed.wrapping_add(1), 0);
    next_id += initial as u64;
    if !initial_edges.is_empty() {
        live.extend(initial_edges.iter().map(|e| e.id));
        batches.push(seal(
            initial_edges.into_iter().map(Update::Insert).collect(),
        ));
    }

    for _ in 0..num_batches {
        let mut batch: Vec<Update> = Vec::with_capacity(batch_size);
        // Deletions in a batch may only target edges that were live *before* the
        // batch (the algorithm processes a batch's deletions before its
        // insertions, §3.3), so edges inserted in this batch are not candidates.
        let deletable_limit = live.len();
        let mut num_deleted = 0usize;
        for _ in 0..batch_size {
            let do_insert = num_deleted >= deletable_limit || rng.gen_bool(insert_fraction);
            if do_insert {
                let mut endpoints: FxHashSet<u32> = FxHashSet::default();
                while endpoints.len() < rank {
                    endpoints.insert(rng.gen_range(0..num_vertices as u32));
                }
                let edge = HyperEdge::new(
                    EdgeId(next_id),
                    endpoints.into_iter().map(VertexId).collect(),
                );
                next_id += 1;
                live.push(edge.id);
                batch.push(Update::Insert(edge));
            } else {
                // Pick a random pre-batch live edge; swap it into the shrinking
                // deletable prefix so it is not chosen again.
                let idx = rng.gen_range(0..deletable_limit - num_deleted);
                let id = live[idx];
                live.swap(idx, deletable_limit - num_deleted - 1);
                num_deleted += 1;
                batch.push(Update::Delete(id));
            }
        }
        // Remove the deleted edges (now parked just before `deletable_limit`).
        let deleted: FxHashSet<EdgeId> = batch
            .iter()
            .filter(|u| u.is_delete())
            .map(Update::edge_id)
            .collect();
        live.retain(|id| !deleted.contains(id));
        batches.push(seal(batch));
    }
    Workload {
        num_vertices,
        rank,
        batches,
        name: format!(
            "random-churn(n={num_vertices},r={rank},batch={batch_size},p_ins={insert_fraction})"
        ),
    }
}

/// Skewed-key churn: like [`random_churn`], but hyperedge endpoints are drawn
/// from a power-law-shaped distribution concentrated on low-numbered vertices
/// — `v = ⌊n · u^skew⌋` for uniform `u`, so `skew = 1.0` is uniform and larger
/// values pile updates onto ever fewer hot keys.  This is the imbalance
/// workload for the sharded serving layer: with hash partitioning the hot
/// vertices land on a handful of shards, so shard queues, per-shard journals
/// and the routed-update counts of `pdmm_hypergraph::sharding` all skew, which
/// is exactly what the E12 shard-scaling experiment needs to exercise.
///
/// Starts from `initial` skewed edges (one priming batch), then `num_batches`
/// batches of `batch_size` updates: an insertion of a fresh skewed rank-`rank`
/// hyperedge with probability `insert_fraction`, else a deletion of a
/// uniformly random live edge.  Deterministic per seed, independent of the
/// algorithm's coins (the oblivious-adversary contract of §2).
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn skewed_churn(
    num_vertices: usize,
    rank: usize,
    initial: usize,
    num_batches: usize,
    batch_size: usize,
    insert_fraction: f64,
    skew: f64,
    seed: u64,
) -> Workload {
    assert!(num_vertices >= rank && rank >= 1);
    assert!((0.0..=1.0).contains(&insert_fraction));
    assert!(
        skew >= 1.0,
        "skew < 1 would concentrate on high keys instead"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let skewed_vertex = {
        let n = num_vertices as f64;
        move |rng: &mut ChaCha8Rng| {
            let u: f64 = rng.gen_range(0.0..1.0);
            VertexId(((n * u.powf(skew)) as u32).min(num_vertices as u32 - 1))
        }
    };
    let fresh_edge = |rng: &mut ChaCha8Rng, id: u64| {
        let mut endpoints: FxHashSet<VertexId> = FxHashSet::default();
        while endpoints.len() < rank {
            endpoints.insert(skewed_vertex(rng));
        }
        HyperEdge::new(EdgeId(id), endpoints.into_iter().collect())
    };

    let mut next_id: u64 = 0;
    let mut live: Vec<EdgeId> = Vec::new();
    let mut batches: Vec<UpdateBatch> = Vec::new();
    if initial > 0 {
        let priming: Vec<Update> = (0..initial as u64)
            .map(|id| {
                let edge = fresh_edge(&mut rng, id);
                live.push(edge.id);
                Update::Insert(edge)
            })
            .collect();
        next_id = initial as u64;
        batches.push(seal(priming));
    }
    for _ in 0..num_batches {
        let mut batch: Vec<Update> = Vec::with_capacity(batch_size);
        // Deletions may only target edges live before the batch (§3.3).
        let deletable_limit = live.len();
        let mut num_deleted = 0usize;
        for _ in 0..batch_size {
            let do_insert = num_deleted >= deletable_limit || rng.gen_bool(insert_fraction);
            if do_insert {
                let edge = fresh_edge(&mut rng, next_id);
                next_id += 1;
                live.push(edge.id);
                batch.push(Update::Insert(edge));
            } else {
                let idx = rng.gen_range(0..deletable_limit - num_deleted);
                let id = live[idx];
                live.swap(idx, deletable_limit - num_deleted - 1);
                num_deleted += 1;
                batch.push(Update::Delete(id));
            }
        }
        let deleted: FxHashSet<EdgeId> = batch
            .iter()
            .filter(|u| u.is_delete())
            .map(Update::edge_id)
            .collect();
        live.retain(|id| !deleted.contains(id));
        batches.push(seal(batch));
    }
    Workload {
        num_vertices,
        rank,
        batches,
        name: format!("skewed-churn(n={num_vertices},r={rank},batch={batch_size},skew={skew})"),
    }
}

/// Teardown stream: inserts all `edges` in batches, then deletes every edge in a
/// uniformly random order, again in batches.  Because roughly half the matched
/// edges are hit while still matched, this maximises the expensive deletion path.
#[must_use]
pub fn insert_then_teardown(
    num_vertices: usize,
    edges: Vec<HyperEdge>,
    batch_size: usize,
    seed: u64,
) -> Workload {
    assert!(batch_size > 0);
    let rank = edges.iter().map(HyperEdge::rank).max().unwrap_or(2);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut batches: Vec<UpdateBatch> = edges
        .chunks(batch_size)
        .map(|chunk| seal(chunk.iter().cloned().map(Update::Insert).collect()))
        .collect();
    let mut ids: Vec<EdgeId> = edges.iter().map(|e| e.id).collect();
    ids.shuffle(&mut rng);
    batches.extend(
        ids.chunks(batch_size)
            .map(|chunk| seal(chunk.iter().copied().map(Update::Delete).collect())),
    );
    Workload {
        num_vertices,
        rank,
        batches,
        name: format!("insert-then-teardown(batch={batch_size})"),
    }
}

/// Hub churn: every batch inserts edges touching a small set of hub vertices and
/// deletes a random subset of the previously inserted hub edges.  This drives hub
/// vertices up and down the leveling scheme.
#[must_use]
pub fn hub_churn(
    num_vertices: usize,
    num_hubs: usize,
    num_batches: usize,
    batch_size: usize,
    seed: u64,
) -> Workload {
    assert!(num_hubs >= 1 && num_vertices > num_hubs);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut next_id: u64 = 0;
    let mut live: Vec<EdgeId> = Vec::new();
    let mut batches: Vec<UpdateBatch> = Vec::new();
    for _ in 0..num_batches {
        let mut batch: Vec<Update> = Vec::with_capacity(batch_size);
        // Deletions target only edges live before this batch started.
        let pre_batch_live = live.len();
        let inserts = batch_size * 2 / 3 + 1;
        for _ in 0..inserts {
            let hub = rng.gen_range(0..num_hubs as u32);
            let other = rng.gen_range(num_hubs as u32..num_vertices as u32);
            let edge = HyperEdge::pair(EdgeId(next_id), VertexId(hub), VertexId(other));
            next_id += 1;
            live.push(edge.id);
            batch.push(Update::Insert(edge));
        }
        let deletes = batch_size.saturating_sub(inserts).min(pre_batch_live);
        for d in 0..deletes {
            let idx = rng.gen_range(0..pre_batch_live - d);
            let id = live[idx];
            live.swap(idx, pre_batch_live - d - 1);
            batch.push(Update::Delete(id));
        }
        let deleted: FxHashSet<EdgeId> = batch
            .iter()
            .filter(|u| u.is_delete())
            .map(Update::edge_id)
            .collect();
        live.retain(|id| !deleted.contains(id));
        batches.push(seal(batch));
    }
    Workload {
        num_vertices,
        rank: 2,
        batches,
        name: format!("hub-churn(hubs={num_hubs},batch={batch_size})"),
    }
}

/// Checks that a workload is well formed: every deletion names an edge that was
/// live *before* its batch started (the algorithm processes a batch's deletions
/// before its insertions, §3.3), no edge is deleted twice, and no id is inserted
/// twice.  Used by tests and debug assertions.
#[must_use]
pub fn validate_workload(workload: &Workload) -> bool {
    let mut live: FxHashSet<EdgeId> = FxHashSet::default();
    let mut ever: FxHashSet<EdgeId> = FxHashSet::default();
    for batch in &workload.batches {
        let live_before: FxHashSet<EdgeId> = live.clone();
        let mut deleted_this_batch: FxHashSet<EdgeId> = FxHashSet::default();
        for update in batch {
            match update {
                Update::Insert(e) => {
                    if !ever.insert(e.id) {
                        return false;
                    }
                    if !live.insert(e.id) {
                        return false;
                    }
                    if e.rank() > workload.rank {
                        return false;
                    }
                    if e.vertices()
                        .iter()
                        .any(|v| v.index() >= workload.num_vertices)
                    {
                        return false;
                    }
                }
                Update::Delete(id) => {
                    if !live_before.contains(id) || !deleted_this_batch.insert(*id) {
                        return false;
                    }
                    if !live.remove(id) {
                        return false;
                    }
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::gnm_graph;

    #[test]
    fn insert_only_covers_all_edges() {
        let edges = gnm_graph(50, 120, 3, 0);
        let w = insert_only(50, edges, 32);
        assert_eq!(w.total_updates(), 120);
        assert_eq!(w.total_insertions(), 120);
        assert_eq!(w.batches.len(), 4);
        assert!(validate_workload(&w));
    }

    #[test]
    fn sliding_window_deletes_everything() {
        let edges = gnm_graph(40, 100, 5, 0);
        let w = sliding_window(40, edges, 10, 3);
        assert!(validate_workload(&w));
        assert_eq!(w.total_insertions(), 100);
        assert_eq!(w.total_updates(), 200);
    }

    #[test]
    fn random_churn_is_well_formed() {
        let w = random_churn(100, 2, 200, 20, 50, 0.5, 9);
        assert!(validate_workload(&w));
        assert!(w.total_updates() >= 20 * 50);
        let w3 = random_churn(60, 3, 100, 10, 40, 0.3, 9);
        assert!(validate_workload(&w3));
        assert_eq!(w3.rank, 3);
    }

    #[test]
    fn random_churn_is_deterministic_per_seed() {
        let a = random_churn(50, 2, 50, 5, 20, 0.5, 4);
        let b = random_churn(50, 2, 50, 5, 20, 0.5, 4);
        assert_eq!(a.batches, b.batches);
        let c = random_churn(50, 2, 50, 5, 20, 0.5, 5);
        assert_ne!(a.batches, c.batches);
    }

    #[test]
    fn skewed_churn_is_well_formed_and_skewed() {
        let w = skewed_churn(1 << 10, 2, 300, 10, 60, 0.5, 3.0, 11);
        assert!(validate_workload(&w));
        assert!(w.total_updates() >= 10 * 60);
        assert_eq!(w.rank, 2);
        // The endpoint distribution is heavily skewed: with skew 3.0 half the
        // mass lands below n * 0.5^3 = n/8.
        let (mut low, mut total) = (0usize, 0usize);
        for batch in &w.batches {
            for u in batch {
                if let Update::Insert(e) = u {
                    for v in e.vertices() {
                        total += 1;
                        if v.index() < (1 << 10) / 8 {
                            low += 1;
                        }
                    }
                }
            }
        }
        assert!(
            low * 10 > total * 3,
            "expected ≥ 30% of endpoints in the bottom eighth, got {low}/{total}"
        );
        // Deterministic per seed, sensitive to the seed.
        let a = skewed_churn(256, 2, 50, 5, 20, 0.5, 2.0, 4);
        let b = skewed_churn(256, 2, 50, 5, 20, 0.5, 2.0, 4);
        assert_eq!(a.batches, b.batches);
        let c = skewed_churn(256, 2, 50, 5, 20, 0.5, 2.0, 5);
        assert_ne!(a.batches, c.batches);
        // skew = 1.0 is legal (uniform); rank-3 hyperedges work.
        let u = skewed_churn(64, 3, 40, 4, 16, 0.4, 1.0, 7);
        assert!(validate_workload(&u));
        assert_eq!(u.rank, 3);
    }

    #[test]
    fn teardown_deletes_every_edge() {
        let edges = gnm_graph(30, 80, 2, 0);
        let w = insert_then_teardown(30, edges, 16, 1);
        assert!(validate_workload(&w));
        assert_eq!(w.total_insertions(), 80);
        assert_eq!(w.total_updates(), 160);
    }

    #[test]
    fn hub_churn_touches_hubs() {
        let w = hub_churn(200, 4, 10, 30, 2);
        assert!(validate_workload(&w));
        for batch in &w.batches {
            for u in batch {
                if let Update::Insert(e) = u {
                    assert!(e.vertices().iter().any(|v| v.0 < 4));
                }
            }
        }
    }

    #[test]
    fn validate_rejects_bad_streams() {
        let mut w = insert_only(10, gnm_graph(10, 5, 1, 0), 5);
        w.batches
            .push(UpdateBatch::new(vec![Update::Delete(EdgeId(999))]).unwrap());
        assert!(!validate_workload(&w));

        let mut w2 = insert_only(10, gnm_graph(10, 5, 1, 0), 5);
        // duplicate insertion of the same id (fresh within its own batch, so the
        // batch constructor accepts it — only the stream-level check can see it)
        let dup = Update::Insert(HyperEdge::pair(EdgeId(0), VertexId(0), VertexId(1)));
        w2.batches.push(UpdateBatch::new(vec![dup]).unwrap());
        assert!(!validate_workload(&w2));
    }
}
