//! The leveling-scheme state and its update procedures (§3.2 of the paper).
//!
//! This module owns every data structure listed in §3.2.3:
//!
//! * per-vertex: the level `ℓ(v)`, the matched edge `M(v)`, the owned set `O(v)`,
//!   and the per-level non-owned incidence sets `A(v, ℓ)` (from which the
//!   prospective ownership counts `õ_{v,ℓ}` are derived by a prefix scan),
//! * per-edge: the level `ℓ(e)`, the owner `O(e)`, the matched flag, and the set
//!   `D(e)` of temporarily deleted edges the matched edge is responsible for,
//! * per-level: the rising-candidate sets `S_ℓ` of §3.2.3 (nodes `v` with
//!   `ℓ(v) < ℓ` and `õ_{v,ℓ} ≥ α^ℓ`), which the sequential algorithms do not need
//!   but the parallel `grand-random-settle` uses to seed its working set `B`.
//!
//! The paper treats each change to `O(v)`, `A(v, ℓ)` and `S_ℓ` as O(1)
//! dictionary work; the layout keeps it O(1) without hashing:
//!
//! * `O(v)` and each `A(v, ℓ)` are plain vectors ("buckets").  Every edge
//!   records, per endpoint, its position in the bucket that holds it
//!   ([`EdgeState::slots`]), so removing it is a `swap_remove` plus a fix of
//!   the slot of the edge that moved into the hole.  A vertex grows its
//!   `A(v, ·)` table only up to the highest level an unowned edge has reached,
//!   so an isolated vertex holds no bucket at all.
//! * A temporarily deleted edge sits in each endpoint's `parked` bucket
//!   instead, with the same slots.  Only the engine's listing of a vertex's
//!   live edges reads these buckets, so parking charges nothing and marks no
//!   vertex dirty.
//! * `S_ℓ` membership is cached per vertex as a bit mask, so refreshing a
//!   vertex costs O(L) arithmetic (one running power of α per level) and
//!   touches the `S_ℓ` sets only where a bit flips.  Stale vertices wait on a
//!   dirty list, each at most once.
//! * A removed edge's endpoint and slot slices go to a free list of their
//!   rank, and the next edge of that rank to register is built in them, so
//!   steady churn registers, removes and re-inserts edges without allocating
//!   their endpoint storage.  The edge table stays a map keyed by edge id: a
//!   table indexed by dense slot ids timed no faster.
//! * The kernel's per-batch lists ([`BatchLists`], among them the edges to
//!   insert at the end of a batch as an [`EdgeList`], ids with endpoints
//!   packed in one buffer) and step 1's node list live here between batches,
//!   cleared after use, so a batch reuses the capacity earlier ones grew.
//!
//! Bucket order is history-dependent and never canonical; a reader that
//! could let it leak into a decision or a charge sorts first, or is shown
//! not to depend on it (see the callers in `settle`).
//!
//! It also implements the two primitive procedures of §3.2.4 — `set-owner`
//! (folded into [`MatcherState::reindex_edge`]) and `set-level`
//! ([`MatcherState::set_vertex_level`]) — with the bookkeeping of Claims 3.3/3.4:
//! changing a vertex's level re-indexes exactly the edges it owns plus, when
//! rising, the edges it starts to own.

use crate::config::{Config, LevelingParams};
use crate::metrics::Metrics;
use pdmm_hypergraph::matching::DeltaTracker;
use pdmm_hypergraph::types::{EdgeId, VertexId};
use pdmm_primitives::cost_model::CostTracker;
use pdmm_primitives::random::RandomSource;
use rustc_hash::{FxHashMap, FxHashSet};

/// Per-vertex state (§3.2.3, "data structures for vertices").
#[derive(Debug, Clone)]
pub(crate) struct VertexState {
    /// `ℓ(v)`: `-1` iff the vertex is unmatched and settled at the bottom.
    pub level: i32,
    /// Whether the vertex is on [`MatcherState::dirty`].
    pub dirty: bool,
    /// `M(v)`: the matched edge covering this vertex, if any.
    pub matched_edge: Option<EdgeId>,
    /// `O(v)`: edges owned by this vertex, in no particular order.
    pub owned: Vec<EdgeId>,
    /// `A(v, ℓ)`: incident edges not owned by `v`, bucketed by their level, in
    /// no particular order.  Holds buckets only up to the highest level an
    /// edge has reached here; a missing bucket is empty.
    pub unowned: Vec<Vec<EdgeId>>,
    /// Temporarily deleted incident edges, in no particular order: serving
    /// bookkeeping outside the algorithm (see the module docs).
    pub parked: Vec<EdgeId>,
    /// Bit `ℓ` is set iff `v ∈ S_ℓ`: the vertex's row of `s_levels`, as of
    /// its last refresh.
    pub s_mask: u64,
}

impl VertexState {
    fn new() -> Self {
        VertexState {
            level: -1,
            dirty: false,
            matched_edge: None,
            owned: Vec::new(),
            unowned: Vec::new(),
            parked: Vec::new(),
            s_mask: 0,
        }
    }

    /// Total number of live, non-temporarily-deleted incident edges.
    #[allow(dead_code)] // exercised by unit and integration tests
    pub fn degree(&self) -> usize {
        self.owned.len() + self.unowned.iter().map(Vec::len).sum::<usize>()
    }

    /// The bucket an incident edge at `level` sits in: `O(v)` if `v` owns it,
    /// `A(v, level)` otherwise.
    pub fn bucket(&self, owns: bool, level: usize) -> &[EdgeId] {
        if owns {
            &self.owned
        } else {
            self.unowned.get(level).map_or(&[], Vec::as_slice)
        }
    }

    fn bucket_mut(&mut self, owns: bool, level: usize) -> &mut Vec<EdgeId> {
        if owns {
            &mut self.owned
        } else {
            if self.unowned.len() <= level {
                self.unowned.resize_with(level + 1, Vec::new);
            }
            &mut self.unowned[level]
        }
    }
}

/// Per-edge state (§3.2.3, "data structures for edges").
///
/// The two boxed slices are recycled: [`MatcherState`] keeps a removed edge's
/// pair on a free list of its rank and builds the next edge of that rank in
/// it (see [`EdgeState::new`]).
#[derive(Debug, Clone)]
pub(crate) struct EdgeState {
    /// The endpoints of the hyperedge (sorted, deduplicated).
    pub vertices: Box<[VertexId]>,
    /// `slots[i]`: this edge's position in the bucket of `vertices[i]` that
    /// holds it (`O(v)` for the owner, `A(v, ℓ(e))` for the others, and the
    /// parked bucket of every endpoint while the edge is temporarily
    /// deleted).
    pub slots: Box<[u32]>,
    /// `ℓ(e)`.
    pub level: usize,
    /// `O(e)`: the owning endpoint.
    pub owner: VertexId,
    /// Whether the edge is currently in the matching.
    pub matched: bool,
    /// Whether the edge is temporarily deleted (lives only in some `D(·)`).
    pub temp_deleted: bool,
    /// For temporarily deleted edges: the matched edge responsible for them.
    pub responsible: Option<EdgeId>,
    /// `D(e)`: temporarily deleted edges this matched edge is responsible for.
    pub bucket: Vec<EdgeId>,
    /// How many edges of `D(e)` the adversary has deleted while this epoch lives
    /// (the "uninterrupted duration" proxy used by the E8 metrics).
    pub d_deleted_count: u64,
}

/// An edge's endpoint and slot slices, as a removed edge hands them back.
pub(crate) type EndpointSlices = (Box<[VertexId]>, Box<[u32]>);

impl EdgeState {
    /// A fresh, unmatched edge at level 0 over sorted, deduplicated
    /// `vertices`, built in `spare`'s slices when given (they must have one
    /// entry per endpoint) and in newly allocated ones otherwise.
    pub fn new(vertices: &[VertexId], spare: Option<EndpointSlices>) -> Self {
        let (ends, slots) = match spare {
            Some((mut ends, mut slots)) => {
                ends.copy_from_slice(vertices);
                slots.fill(0);
                (ends, slots)
            }
            None => (vertices.into(), vec![0; vertices.len()].into_boxed_slice()),
        };
        EdgeState {
            vertices: ends,
            slots,
            level: 0,
            owner: vertices[0],
            matched: false,
            temp_deleted: false,
            responsible: None,
            bucket: Vec::new(),
            d_deleted_count: 0,
        }
    }

    /// Rank of this edge.
    #[allow(dead_code)] // exercised by unit and integration tests
    pub fn rank(&self) -> usize {
        self.vertices.len()
    }
}

/// An edge whose slot at `vertex` changed to `slot` because a removal
/// swapped it into the hole.
type SlotFix = (EdgeId, VertexId, u32);

/// A list of edges stored flat: their ids, and their endpoints packed back to
/// back in one buffer.  Clearing keeps every buffer's capacity.
#[derive(Debug, Default)]
pub(crate) struct EdgeList {
    ids: Vec<EdgeId>,
    /// `ends[i]`: one past the last endpoint of edge `i` in `endpoints`.
    ends: Vec<usize>,
    endpoints: Vec<VertexId>,
}

impl EdgeList {
    /// Appends edge `id` over `vertices`.
    pub fn push(&mut self, id: EdgeId, vertices: &[VertexId]) {
        self.ids.push(id);
        self.endpoints.extend_from_slice(vertices);
        self.ends.push(self.endpoints.len());
    }

    /// Number of edges listed.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no edge is listed.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Empties the list, keeping its capacity.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.ends.clear();
        self.endpoints.clear();
    }

    /// The listed edges as `(id, endpoints)` views, in push order.
    pub fn iter(&self) -> impl Iterator<Item = (EdgeId, &[VertexId])> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        self.ids
            .iter()
            .zip(starts.zip(&self.ends))
            .map(|(&id, (start, &end))| (id, &self.endpoints[start..end]))
    }
}

/// The kernel's per-batch lists, kept between batches for their capacity: a
/// batch takes them out of the state, fills and drains them, clears them and
/// puts them back.
#[derive(Debug, Default)]
pub(crate) struct BatchLists {
    /// The batch's deletions of unmatched edges.
    pub unmatched_deletions: Vec<EdgeId>,
    /// The batch's deletions of matched edges.
    pub matched_deletions: Vec<EdgeId>,
    /// The batch's deletions of temporarily deleted edges.
    pub temp_deleted_deletions: Vec<EdgeId>,
    /// The batch's insertions, then the algorithm's re-insertions, in the
    /// order §3.3.3 registers them.
    pub insertions: EdgeList,
    /// The edges of `insertions` Luby matched.
    pub newly_matched: FxHashSet<EdgeId>,
}

impl BatchLists {
    /// Empties every list, keeping its capacity.
    pub fn clear(&mut self) {
        self.unmatched_deletions.clear();
        self.matched_deletions.clear();
        self.temp_deleted_deletions.clear();
        self.insertions.clear();
        self.newly_matched.clear();
    }
}

/// The complete mutable state of the dynamic matching algorithm.
#[derive(Debug)]
pub(crate) struct MatcherState {
    pub config: Config,
    pub params: LevelingParams,
    pub vertices: Vec<VertexState>,
    pub edges: FxHashMap<EdgeId, EdgeState>,
    /// `S_ℓ` for `ℓ ∈ 0..=L`.
    pub s_levels: Vec<FxHashSet<VertexId>>,
    /// Vertices whose `S_ℓ` memberships are stale and need refreshing, each
    /// listed once (its [`VertexState::dirty`] flag is set while listed).
    pub dirty: Vec<VertexId>,
    /// Unmatched vertices at level `≥ 0` that still await a decision in the
    /// current level sweep (§3.3.2 "undecided nodes").
    pub undecided: FxHashSet<VertexId>,
    pub rng: RandomSource,
    pub cost: CostTracker,
    pub metrics: Metrics,
    /// Updates processed since the last rebuild (drives the `N`-doubling rule).
    pub updates_since_rebuild: u64,
    /// Number of matched edges, kept in step with the edges' `matched` flags.
    pub matched_count: usize,
    /// The matching's net change since the engine last handed it out.
    pub delta: DeltaTracker,
    /// The kernel's per-batch lists (see [`BatchLists`]).
    pub lists: BatchLists,
    /// Scratch for step 1 of `process-level`: the undecided nodes at the
    /// level, and then the ones still unmatched.
    pub undecided_here: Vec<VertexId>,
    /// Free lists of removed edges' slices: `spare[r]` holds rank-`r` pairs
    /// for [`EdgeState::new`] to reuse (grown to the highest rank recycled).
    pub spare: Vec<Vec<EndpointSlices>>,
    /// Scratch: the slot fixes of one removal or re-index.
    fixes: Vec<SlotFix>,
    /// Scratch: the edges `set_vertex_level` re-indexes.
    affected: Vec<EdgeId>,
    /// Scratch: the endpoints of the edge `match_edge` matches.
    endpoints: Vec<VertexId>,
}

impl MatcherState {
    /// Creates the state for an empty hypergraph on `num_vertices` vertices.
    pub fn new(num_vertices: usize, config: Config) -> Self {
        let initial_bound =
            2 * (num_vertices as u64 + config.initial_update_capacity as u64).max(8);
        let params = LevelingParams::new(config.max_rank, initial_bound);
        Self::with_params(num_vertices, config, params)
    }

    /// Creates the state for an empty hypergraph under explicit leveling
    /// parameters (the doubling rebuild's fresh start).
    pub fn with_params(num_vertices: usize, config: Config, params: LevelingParams) -> Self {
        let num_levels = params.num_levels;
        assert!(
            num_levels < u64::BITS as usize,
            "{num_levels} levels overflow the S_ℓ mask"
        );
        MatcherState {
            rng: RandomSource::from_seed(config.seed),
            config,
            params,
            vertices: vec![VertexState::new(); num_vertices],
            edges: FxHashMap::default(),
            s_levels: vec![FxHashSet::default(); num_levels + 1],
            dirty: Vec::new(),
            undecided: FxHashSet::default(),
            cost: CostTracker::new(),
            metrics: Metrics::new(num_levels),
            updates_since_rebuild: 0,
            matched_count: 0,
            delta: DeltaTracker::default(),
            lists: BatchLists::default(),
            undecided_here: Vec::new(),
            spare: Vec::new(),
            fixes: Vec::new(),
            affected: Vec::new(),
            endpoints: Vec::new(),
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Number of levels `L` under the current parameters.
    pub fn num_levels(&self) -> usize {
        self.params.num_levels
    }

    /// Level of vertex `v`.
    pub fn level_of(&self, v: VertexId) -> i32 {
        self.vertices[v.index()].level
    }

    /// Whether vertex `v` is covered by a matched edge.
    pub fn is_matched_vertex(&self, v: VertexId) -> bool {
        self.vertices[v.index()].matched_edge.is_some()
    }

    /// Current matching, iterated zero-copy out of the edge table.
    pub fn matched_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges
            .iter()
            .filter(|(_, e)| e.matched)
            .map(|(id, _)| *id)
    }

    /// Current matching, as edge ids.
    pub fn matched_edge_ids(&self) -> Vec<EdgeId> {
        self.matched_ids().collect()
    }

    /// Number of matched edges, O(1).
    pub fn matching_size(&self) -> usize {
        self.matched_count
    }

    /// Number of live edges (including temporarily deleted ones).
    #[allow(dead_code)] // exercised by unit and integration tests
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    // ------------------------------------------------------------------
    // õ_{v,ℓ} and S_ℓ maintenance
    // ------------------------------------------------------------------

    /// `õ_{v,ℓ}`: the number of edges `v` would own if raised to level `ℓ`
    /// (meaningful for `ℓ > ℓ(v)`): `|O(v)| + Σ_{ℓ' = max(ℓ(v),0)}^{ℓ-1} |A(v,ℓ')|`.
    pub fn o_tilde(&self, v: VertexId, level: usize) -> u64 {
        let vs = &self.vertices[v.index()];
        let from = vs.level.max(0) as usize;
        let mut total = vs.owned.len() as u64;
        for l in from..level.min(vs.unowned.len()) {
            total += vs.unowned[l].len() as u64;
        }
        total
    }

    /// Marks `v` as needing an `S_ℓ` membership refresh.
    pub fn mark_dirty(&mut self, v: VertexId) {
        mark(&mut self.vertices, &mut self.dirty, v);
    }

    /// Refreshes the `S_ℓ` memberships of all dirty vertices (one parallel round,
    /// `O(L)` work per vertex).
    pub fn flush_dirty(&mut self) {
        if self.dirty.is_empty() {
            return;
        }
        self.cost.round();
        self.cost
            .work(self.dirty.len() as u64 * (self.params.num_levels as u64 + 1));
        let mut dirty = std::mem::take(&mut self.dirty);
        for &v in &dirty {
            self.vertices[v.index()].dirty = false;
            self.refresh_s_membership(v);
        }
        dirty.clear();
        self.dirty = dirty;
    }

    /// The `S_ℓ` memberships `v` should have: bit `ℓ` is set iff
    /// `ℓ(v) < ℓ` and `õ_{v,ℓ} ≥ α^ℓ`.
    fn s_mask_of(&self, v: VertexId) -> u64 {
        let vs = &self.vertices[v.index()];
        let from = vs.level.max(0) as usize;
        // Running õ value, accumulated level by level: at the top of the
        // loop it equals õ_{v,l}, because A(v, l-1) was added on the way in.
        let mut running = vs.owned.len() as u64;
        // α^l, kept by one saturating multiply per level (equal to
        // `alpha_pow(l)`, which saturates the same way).
        let mut threshold = 1u64;
        let mut mask = 0u64;
        for l in 0..=self.params.num_levels {
            if (l as i32) > vs.level && running >= threshold {
                mask |= 1 << l;
            }
            if l >= from {
                running += vs.unowned.get(l).map_or(0, Vec::len) as u64;
            }
            threshold = threshold.saturating_mul(self.params.alpha);
        }
        mask
    }

    /// Recomputes `v`'s membership in every `S_ℓ`, touching only the sets
    /// whose bit flips.
    fn refresh_s_membership(&mut self, v: VertexId) {
        let mask = self.s_mask_of(v);
        let vs = &mut self.vertices[v.index()];
        let mut flipped = vs.s_mask ^ mask;
        vs.s_mask = mask;
        while flipped != 0 {
            let l = flipped.trailing_zeros() as usize;
            flipped &= flipped - 1;
            if mask >> l & 1 == 1 {
                self.s_levels[l].insert(v);
            } else {
                self.s_levels[l].remove(&v);
            }
        }
    }

    // ------------------------------------------------------------------
    // Edge <-> vertex structure maintenance
    // ------------------------------------------------------------------

    /// Adds a (live, non-temporarily-deleted) edge to its endpoints' structures,
    /// using its stored owner and level.
    pub fn add_edge_to_structures(&mut self, id: EdgeId) {
        let e = self.edges.get_mut(&id).expect("edge exists");
        debug_assert!(!e.temp_deleted, "temp-deleted edges stay out of structures");
        self.cost.work(e.vertices.len() as u64);
        attach(&mut self.vertices, &mut self.dirty, id, e);
    }

    /// Removes an edge from its endpoints' structures (stored owner and level must
    /// still describe where it currently sits).
    pub fn remove_edge_from_structures(&mut self, id: EdgeId) {
        let e = &self.edges[&id];
        self.cost.work(e.vertices.len() as u64);
        detach(&mut self.vertices, &mut self.dirty, &mut self.fixes, id, e);
        apply_fixes(&mut self.edges, &mut self.fixes);
    }

    /// `set-owner`/re-index (§3.2.4, Claim 3.3): recomputes the edge's owner
    /// and, for an unmatched edge, its level from its endpoints' current
    /// levels, and moves each incidence whose bucket changes as a result.  It
    /// is charged as a full removal and re-insertion, and every endpoint is
    /// marked dirty.
    pub fn reindex_edge(&mut self, id: EdgeId) {
        let e = self.edges.get_mut(&id).expect("edge exists");
        let (owner, max_level) = owner_and_level(&self.vertices, &e.vertices);
        // Invariant 3.1(3): unmatched edges sit at the maximum endpoint level
        // (clamped into `0..=L`); matched edges keep theirs.
        let level = if e.matched {
            e.level
        } else {
            max_level.max(0) as usize
        };
        self.cost.work(2 * e.vertices.len() as u64);
        for (&v, slot) in e.vertices.iter().zip(e.slots.iter_mut()) {
            mark(&mut self.vertices, &mut self.dirty, v);
            let (owned_before, owned_after) = (v == e.owner, v == owner);
            if owned_before == owned_after && (owned_after || e.level == level) {
                continue;
            }
            let vs = &mut self.vertices[v.index()];
            let from = if owned_before {
                &mut vs.owned
            } else {
                &mut vs.unowned[e.level]
            };
            take_slot(from, *slot, id, v, &mut self.fixes);
            let to = vs.bucket_mut(owned_after, level);
            *slot = to.len() as u32;
            to.push(id);
        }
        e.owner = owner;
        e.level = level;
        apply_fixes(&mut self.edges, &mut self.fixes);
    }

    /// `set-level(v, ℓ)` (§3.2.4, Claim 3.4): sets `ℓ(v) = ℓ` and re-indexes the
    /// edges whose ownership or level this changes — everything `v` owns plus, when
    /// rising, the buckets `A(v, ℓ')` for `ℓ(v) ≤ ℓ' < ℓ` that `v` now takes over.
    pub fn set_vertex_level(&mut self, v: VertexId, new_level: i32) {
        let old_level = self.vertices[v.index()].level;
        if old_level == new_level {
            return;
        }
        debug_assert!(new_level >= -1 && new_level <= self.params.num_levels as i32);
        let mut affected = std::mem::take(&mut self.affected);
        let vs = &self.vertices[v.index()];
        affected.extend_from_slice(&vs.owned);
        if new_level > old_level {
            let from = old_level.max(0) as usize;
            let to = (new_level as usize).min(vs.unowned.len());
            for l in from..to {
                affected.extend_from_slice(&vs.unowned[l]);
            }
        }
        self.cost
            .work(affected.len() as u64 + self.params.num_levels as u64);
        self.vertices[v.index()].level = new_level;
        self.mark_dirty(v);
        for &id in &affected {
            self.reindex_edge(id);
        }
        affected.clear();
        self.affected = affected;
    }

    // ------------------------------------------------------------------
    // Matching changes
    // ------------------------------------------------------------------

    /// Adds edge `id` to the matching at `level`: raises every endpoint to `level`,
    /// records `M(v)` pointers, and re-indexes the edge.  Every endpoint must be
    /// unmatched when this is called (kicked-out edges are handled by the caller).
    pub fn match_edge(&mut self, id: EdgeId, level: usize) {
        let mut verts = std::mem::take(&mut self.endpoints);
        verts.extend_from_slice(&self.edges[&id].vertices);
        for &v in &verts {
            debug_assert!(
                self.vertices[v.index()].matched_edge.is_none(),
                "endpoint {v} must be unmatched before matching {id}"
            );
            self.set_vertex_level(v, level as i32);
        }
        {
            let e = self.edges.get_mut(&id).expect("edge exists");
            e.matched = true;
            e.level = level;
        }
        for &v in &verts {
            self.vertices[v.index()].matched_edge = Some(id);
            self.undecided.remove(&v);
            self.mark_dirty(v);
        }
        self.reindex_edge(id);
        self.cost.work(verts.len() as u64);
        self.matched_count += 1;
        self.delta.matched(id, &verts);
        verts.clear();
        self.endpoints = verts;
    }

    /// Removes edge `id` from the matching, leaving endpoint levels untouched.
    /// Endpoints become undecided (they keep their levels until the level sweep
    /// reaches them).
    pub fn unmatch_edge(&mut self, id: EdgeId) {
        let e = self.edges.get_mut(&id).expect("edge exists");
        debug_assert!(e.matched, "unmatch_edge requires a matched edge");
        e.matched = false;
        for &v in e.vertices.iter() {
            debug_assert_eq!(self.vertices[v.index()].matched_edge, Some(id));
            self.vertices[v.index()].matched_edge = None;
            self.undecided.insert(v);
            mark(&mut self.vertices, &mut self.dirty, v);
        }
        self.cost.work(e.vertices.len() as u64);
        self.matched_count -= 1;
        self.delta.unmatched(id, &e.vertices);
    }

    /// Temporarily deletes edge `id`, making matched edge `responsible` responsible
    /// for it (Invariant 3.2): the edge leaves every vertex structure and is parked
    /// in `D(responsible)` until that matched edge disappears.
    pub fn temp_delete_edge(&mut self, id: EdgeId, responsible: EdgeId) {
        debug_assert!(id != responsible);
        debug_assert!(
            !self.edges[&id].matched,
            "matched edges cannot be temp-deleted"
        );
        self.remove_edge_from_structures(id);
        {
            let e = self.edges.get_mut(&id).expect("edge exists");
            e.temp_deleted = true;
            e.responsible = Some(responsible);
        }
        self.edges
            .get_mut(&responsible)
            .expect("responsible edge exists")
            .bucket
            .push(id);
        self.park(id);
        self.metrics.temp_deletions = self.metrics.temp_deletions.saturating_add(1);
        self.cost.work(1);
    }

    /// Appends temporarily deleted edge `id` to its endpoints' parked
    /// buckets.  Charges nothing and marks no vertex dirty.
    pub fn park(&mut self, id: EdgeId) {
        let e = self.edges.get_mut(&id).expect("edge exists");
        debug_assert!(e.temp_deleted, "only temp-deleted edges are parked");
        for (&v, slot) in e.vertices.iter().zip(e.slots.iter_mut()) {
            let parked = &mut self.vertices[v.index()].parked;
            *slot = parked.len() as u32;
            parked.push(id);
        }
    }

    /// A fresh [`EdgeState`] over sorted, deduplicated `vertices`, built in a
    /// spare pair of slices of its rank when one is free.
    pub fn new_edge(&mut self, vertices: &[VertexId]) -> EdgeState {
        let spare = self.spare.get_mut(vertices.len()).and_then(Vec::pop);
        EdgeState::new(vertices, spare)
    }

    /// Registers a brand-new edge `id` over sorted, deduplicated `vertices`
    /// (from an insertion) with the given matched flag and level, and adds it
    /// to the structures.  The owner/level of unmatched edges is recomputed
    /// from the endpoints.
    ///
    /// # Panics
    ///
    /// Panics if the edge's rank exceeds the configured maximum rank.
    /// Validation rejects such edges upstream, so this never fires on the
    /// serve path.
    pub fn register_edge(
        &mut self,
        id: EdgeId,
        vertices: &[VertexId],
        matched: bool,
        level: usize,
    ) {
        debug_assert!(
            !self.edges.contains_key(&id),
            "edge {id} already registered"
        );
        assert!(
            vertices.len() <= self.config.max_rank,
            "edge {id} has rank {} > configured max rank {}",
            vertices.len(),
            self.config.max_rank
        );
        let mut state = self.new_edge(vertices);
        state.matched = matched;
        state.level = level;
        if matched {
            for &v in vertices {
                debug_assert!(self.vertices[v.index()].matched_edge.is_none());
                self.set_vertex_level(v, level as i32);
                self.vertices[v.index()].matched_edge = Some(id);
                self.undecided.remove(&v);
            }
            self.matched_count += 1;
            self.delta.matched(id, vertices);
        }
        let (owner, max_level) = owner_and_level(&self.vertices, vertices);
        state.owner = owner;
        if !matched {
            state.level = max_level.max(0) as usize;
        }
        // One unit per endpoint to index the edge, one to register it.
        self.cost.work(2 * vertices.len() as u64);
        attach(&mut self.vertices, &mut self.dirty, id, &mut state);
        self.edges.insert(id, state);
    }

    /// Removes an edge from the state entirely (it is gone from the graph),
    /// recycles its slices, and returns the matched edge it was responsible
    /// to, if it was temporarily deleted.  A temporarily deleted edge leaves
    /// its parked buckets for free, but *not* its responsible edge's `D(·)`
    /// (that bucket is scrubbed lazily when it is consumed); the caller
    /// updates metrics.
    pub fn remove_edge_completely(&mut self, id: EdgeId) -> Option<EdgeId> {
        let e = self.unhook(id);
        let responsible = e.responsible;
        self.recycle(e);
        responsible
    }

    /// [`Self::remove_edge_completely`] for an edge the batch re-inserts at
    /// its end: appends it to `queue` first.
    pub fn remove_edge_into(&mut self, id: EdgeId, queue: &mut EdgeList) {
        let e = self.unhook(id);
        queue.push(id, &e.vertices);
        self.recycle(e);
    }

    /// Takes edge `id` out of the edge table and out of every bucket.
    fn unhook(&mut self, id: EdgeId) -> EdgeState {
        let e = self.edges.remove(&id).expect("edge exists");
        if e.temp_deleted {
            for (&v, &slot) in e.vertices.iter().zip(e.slots.iter()) {
                let parked = &mut self.vertices[v.index()].parked;
                take_slot(parked, slot, id, v, &mut self.fixes);
            }
        } else {
            self.cost.work(e.vertices.len() as u64);
            detach(&mut self.vertices, &mut self.dirty, &mut self.fixes, id, &e);
        }
        apply_fixes(&mut self.edges, &mut self.fixes);
        e
    }

    /// Puts a removed edge's slices on the free list of its rank.
    pub fn recycle(&mut self, e: EdgeState) {
        let rank = e.vertices.len();
        if self.spare.len() <= rank {
            self.spare.resize_with(rank + 1, Vec::new);
        }
        self.spare[rank].push((e.vertices, e.slots));
    }

    /// The prospective ownership set `Õ_{v,ℓ}`: every edge `v` would own if raised
    /// to level `ℓ` — its owned edges plus `A(v, ℓ')` for `ℓ(v) ≤ ℓ' < ℓ`.
    pub fn prospective_owned(
        &self,
        v: VertexId,
        level: usize,
    ) -> impl Iterator<Item = EdgeId> + '_ {
        let vs = &self.vertices[v.index()];
        let to = level.min(vs.unowned.len());
        let from = (vs.level.max(0) as usize).min(to);
        vs.owned
            .iter()
            .chain(vs.unowned[from..to].iter().flatten())
            .copied()
    }
}

/// The owner and level the leveling rules give an edge over `verts`: the
/// first endpoint at the maximum endpoint level, and that level.
fn owner_and_level(vertices: &[VertexState], verts: &[VertexId]) -> (VertexId, i32) {
    let mut best_v = verts[0];
    let mut best_level = vertices[best_v.index()].level;
    for &v in verts.iter().skip(1) {
        let l = vertices[v.index()].level;
        if l > best_level {
            best_level = l;
            best_v = v;
        }
    }
    (best_v, best_level)
}

/// Puts `v` on the dirty list unless it is already there.
fn mark(vertices: &mut [VertexState], dirty: &mut Vec<VertexId>, v: VertexId) {
    let vs = &mut vertices[v.index()];
    if !vs.dirty {
        vs.dirty = true;
        dirty.push(v);
    }
}

/// Appends edge `id`'s incidences to the buckets its owner and level name,
/// recording each slot in `e`, and marks every endpoint dirty.
fn attach(vertices: &mut [VertexState], dirty: &mut Vec<VertexId>, id: EdgeId, e: &mut EdgeState) {
    let (owner, level) = (e.owner, e.level);
    for (&v, slot) in e.vertices.iter().zip(e.slots.iter_mut()) {
        let bucket = vertices[v.index()].bucket_mut(v == owner, level);
        *slot = bucket.len() as u32;
        bucket.push(id);
        mark(vertices, dirty, v);
    }
}

/// Swap-removes edge `id`'s incidences from the buckets its owner and level
/// name and marks every endpoint dirty.  Each edge that moves into a hole is
/// queued on `fixes`; [`apply_fixes`] records its new slot.
fn detach(
    vertices: &mut [VertexState],
    dirty: &mut Vec<VertexId>,
    fixes: &mut Vec<SlotFix>,
    id: EdgeId,
    e: &EdgeState,
) {
    for (&v, &slot) in e.vertices.iter().zip(e.slots.iter()) {
        let vs = &mut vertices[v.index()];
        let bucket = if v == e.owner {
            &mut vs.owned
        } else {
            &mut vs.unowned[e.level]
        };
        take_slot(bucket, slot, id, v, fixes);
        mark(vertices, dirty, v);
    }
}

/// Swap-removes edge `id` from `slot` of `v`'s `bucket`, queueing the slot
/// fix of the edge that moves into the hole.
fn take_slot(
    bucket: &mut Vec<EdgeId>,
    slot: u32,
    id: EdgeId,
    v: VertexId,
    fixes: &mut Vec<SlotFix>,
) {
    let slot = slot as usize;
    debug_assert_eq!(bucket[slot], id, "edge {id} is not at its slot at {v}");
    bucket.swap_remove(slot);
    if let Some(&moved) = bucket.get(slot) {
        fixes.push((moved, v, slot as u32));
    }
}

/// Records the new slots of the edges [`take_slot`] moved.
fn apply_fixes(edges: &mut FxHashMap<EdgeId, EdgeState>, fixes: &mut Vec<SlotFix>) {
    for (id, v, slot) in fixes.drain(..) {
        let e = edges.get_mut(&id).expect("bucketed edge exists");
        let i = e
            .vertices
            .iter()
            .position(|&w| w == v)
            .expect("bucketed edge is incident");
        e.slots[i] = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdmm_hypergraph::types::HyperEdge;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn edge(id: u64, vs: &[u32]) -> HyperEdge {
        HyperEdge::new(EdgeId(id), vs.iter().map(|&i| VertexId(i)).collect())
    }

    impl MatcherState {
        /// [`MatcherState::register_edge`] for a [`HyperEdge`].
        pub(crate) fn register(&mut self, edge: &HyperEdge, matched: bool, level: usize) {
            self.register_edge(edge.id, edge.vertices(), matched, level);
        }
    }

    fn fresh(n: usize) -> MatcherState {
        MatcherState::new(n, Config::for_graphs(1))
    }

    #[test]
    fn new_state_is_empty() {
        let s = fresh(4);
        assert_eq!(s.num_vertices(), 4);
        assert_eq!(s.num_edges(), 0);
        assert_eq!(s.matching_size(), 0);
        assert_eq!(s.level_of(v(0)), -1);
        assert!(!s.is_matched_vertex(v(0)));
        assert!(s.num_levels() >= 1);
        // No vertex holds an A(v, ·) table before an edge reaches it.
        assert!(s.vertices.iter().all(|vs| vs.unowned.is_empty()));
    }

    #[test]
    fn removal_fixes_the_slot_of_the_edge_moved_into_the_hole() {
        let mut s = fresh(4);
        for i in 0..3u64 {
            s.register(&edge(i, &[0, 1 + i as u32]), false, 0);
        }
        assert_eq!(s.vertices[0].owned, [EdgeId(0), EdgeId(1), EdgeId(2)]);
        s.remove_edge_completely(EdgeId(0));
        // e2 moved from the last slot of O(v0) into e0's and records it.
        assert_eq!(s.vertices[0].owned, [EdgeId(2), EdgeId(1)]);
        assert_eq!(s.edges[&EdgeId(2)].slots[0], 0);
        assert_eq!(s.edges[&EdgeId(1)].slots[0], 1);
    }

    #[test]
    fn register_unmatched_edge_sets_owner_and_level_zero() {
        let mut s = fresh(4);
        s.register(&edge(0, &[0, 1]), false, 0);
        let e = &s.edges[&EdgeId(0)];
        assert_eq!(e.level, 0);
        assert!(!e.matched);
        // Both endpoints are at level -1, so the owner is the smallest-id vertex
        // and the edge is in its owned set.
        assert_eq!(e.owner, v(0));
        assert!(s.vertices[0].owned.contains(&EdgeId(0)));
        assert!(s.vertices[1].unowned[0].contains(&EdgeId(0)));
        assert_eq!(s.vertices[0].degree(), 1);
    }

    #[test]
    fn register_matched_edge_raises_endpoints() {
        let mut s = fresh(4);
        s.register(&edge(0, &[1, 2]), true, 0);
        assert_eq!(s.level_of(v(1)), 0);
        assert_eq!(s.level_of(v(2)), 0);
        assert!(s.is_matched_vertex(v(1)));
        assert_eq!(s.matched_edge_ids(), vec![EdgeId(0)]);
    }

    #[test]
    fn o_tilde_counts_owned_and_lower_buckets() {
        let mut s = fresh(6);
        // Vertex 0 matched at level 0 so other edges incident to it go to A(·, 0).
        s.register(&edge(0, &[0, 1]), true, 0);
        s.register(&edge(1, &[0, 2]), false, 0);
        s.register(&edge(2, &[0, 3]), false, 0);
        s.register(&edge(3, &[4, 5]), false, 0);
        // Vertex 0 owns edges 1 and 2 (it is the highest-level endpoint) plus the
        // matched edge 0 depending on tie-breaks; õ at level 1 counts them all.
        let ot = s.o_tilde(v(0), 1);
        assert!(
            ot >= 3,
            "vertex 0 should prospectively own its 3 incident edges, got {ot}"
        );
        // Vertex 4 at level -1 owns edge 3 (smaller id than 5).
        assert_eq!(s.o_tilde(v(4), 1), 1);
        assert_eq!(s.o_tilde(v(5), 1), 1);
    }

    #[test]
    fn s_levels_pick_up_heavy_vertices() {
        let mut s = fresh(40);
        // α = 8 for rank 2, so α^1 = 8: a vertex prospectively owning ≥ 8 edges
        // must appear in S_1 after a flush.
        for i in 0..10u64 {
            s.register(&edge(i, &[0, 1 + i as u32]), false, 0);
        }
        s.flush_dirty();
        assert!(s.s_levels[1].contains(&v(0)), "hub vertex should be in S_1");
        assert!(!s.s_levels[1].contains(&v(1)));
    }

    #[test]
    fn set_vertex_level_moves_ownership() {
        let mut s = fresh(4);
        s.register(&edge(0, &[0, 1]), false, 0);
        // Raise vertex 1 to level 2: it becomes the highest endpoint, so it must
        // now own the edge and the edge level must follow it.
        s.set_vertex_level(v(1), 2);
        let e = &s.edges[&EdgeId(0)];
        assert_eq!(e.owner, v(1));
        assert_eq!(e.level, 2);
        assert!(s.vertices[1].owned.contains(&EdgeId(0)));
        assert!(s.vertices[0].unowned[2].contains(&EdgeId(0)));
        assert!(!s.vertices[0].owned.contains(&EdgeId(0)));
        // Lower it back to -1: ownership returns to vertex 0 and the level drops.
        s.set_vertex_level(v(1), -1);
        let e = &s.edges[&EdgeId(0)];
        assert_eq!(e.owner, v(0));
        assert_eq!(e.level, 0);
    }

    #[test]
    fn match_and_unmatch_roundtrip() {
        let mut s = fresh(4);
        s.register(&edge(0, &[0, 1]), false, 0);
        s.register(&edge(1, &[1, 2]), false, 0);
        s.match_edge(EdgeId(0), 2);
        assert!(s.edges[&EdgeId(0)].matched);
        assert_eq!(s.edges[&EdgeId(0)].level, 2);
        assert_eq!(s.level_of(v(0)), 2);
        assert_eq!(s.level_of(v(1)), 2);
        assert_eq!(s.matching_size(), 1);
        // The unmatched neighbour edge 1 now sits at level 2 (max endpoint level).
        assert_eq!(s.edges[&EdgeId(1)].level, 2);

        s.unmatch_edge(EdgeId(0));
        assert!(!s.edges[&EdgeId(0)].matched);
        assert!(s.undecided.contains(&v(0)));
        assert!(s.undecided.contains(&v(1)));
        // Levels are untouched by unmatching.
        assert_eq!(s.level_of(v(0)), 2);
    }

    #[test]
    fn temp_delete_parks_edge_in_bucket() {
        let mut s = fresh(4);
        s.register(&edge(0, &[0, 1]), false, 0);
        s.register(&edge(1, &[1, 2]), false, 0);
        s.match_edge(EdgeId(0), 1);
        s.temp_delete_edge(EdgeId(1), EdgeId(0));
        assert!(s.edges[&EdgeId(1)].temp_deleted);
        assert_eq!(s.edges[&EdgeId(1)].responsible, Some(EdgeId(0)));
        assert_eq!(s.edges[&EdgeId(0)].bucket, vec![EdgeId(1)]);
        // The temp-deleted edge is out of every vertex structure but parked.
        assert_eq!(s.vertices[2].degree(), 0);
        assert_eq!(s.vertices[1].parked, [EdgeId(1)]);
        assert_eq!(s.vertices[2].parked, [EdgeId(1)]);
        assert_eq!(s.metrics.temp_deletions, 1);
        s.remove_edge_completely(EdgeId(1));
        assert!(s.vertices.iter().all(|vs| vs.parked.is_empty()));
    }

    #[test]
    fn prospective_owned_matches_o_tilde() {
        let mut s = fresh(8);
        for i in 0..5u64 {
            s.register(&edge(i, &[0, 1 + i as u32]), false, 0);
        }
        let count = s.prospective_owned(v(0), 2).count();
        assert_eq!(count as u64, s.o_tilde(v(0), 2));
    }

    #[test]
    fn remove_edge_completely_clears_structures() {
        let mut s = fresh(3);
        s.register(&edge(0, &[0, 1]), false, 0);
        assert_eq!(s.remove_edge_completely(EdgeId(0)), None);
        assert_eq!(s.num_edges(), 0);
        assert_eq!(s.vertices[0].degree(), 0);
        assert_eq!(s.vertices[1].degree(), 0);
        // Its slices wait on the rank-2 free list.
        assert_eq!(s.spare[2].len(), 1);
    }

    #[test]
    fn a_removed_edges_slices_hold_the_next_edge_of_its_rank() {
        let mut s = fresh(4);
        s.register(&edge(0, &[0, 1]), false, 0);
        let (ends, slots) = {
            let e = &s.edges[&EdgeId(0)];
            (e.vertices.as_ptr(), e.slots.as_ptr())
        };
        s.remove_edge_completely(EdgeId(0));
        s.register(&edge(1, &[2, 3]), false, 0);
        let e = &s.edges[&EdgeId(1)];
        assert_eq!((e.vertices.as_ptr(), e.slots.as_ptr()), (ends, slots));
        assert_eq!(*e.vertices, [v(2), v(3)]);
        assert!(s.spare.iter().all(Vec::is_empty));
        // A queued re-insertion keeps its endpoints after the slices move on.
        let mut queue = EdgeList::default();
        s.remove_edge_into(EdgeId(1), &mut queue);
        s.register(&edge(2, &[0, 3]), false, 0);
        let queued: Vec<(EdgeId, &[VertexId])> = queue.iter().collect();
        assert_eq!(queued, [(EdgeId(1), &[v(2), v(3)][..])]);
    }

    #[test]
    #[should_panic(expected = "rank")]
    fn register_edge_enforces_max_rank() {
        let mut s = fresh(5);
        s.register(&edge(0, &[0, 1, 2]), false, 0);
    }
}
