//! Core identifier and update types shared by every crate in the workspace.
//!
//! The update model of §2: the input is a rank-`r` hypergraph `H = (V, E)` that
//! evolves through *batches* of hyperedge insertions and deletions, chosen by an
//! adversary that is oblivious to the algorithm's randomness.  Hyperedges are
//! identified by an [`EdgeId`] assigned by whoever produces the update stream, so a
//! deletion can name exactly which copy of an edge disappears (parallel edges with
//! identical endpoint sets are allowed and occasionally produced by the generators).

use crate::engine::{
    fold_lossy, fold_strict, BatchError, BatchLedger, RejectedUpdate, UpdateCheck,
};
use std::fmt;
use std::ops::Deref;

/// Identifier of a vertex; vertices are numbered `0..n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VertexId(pub u32);

impl VertexId {
    /// The vertex index as a `usize`, for indexing into per-vertex arrays.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u32> for VertexId {
    fn from(v: u32) -> Self {
        VertexId(v)
    }
}

/// Identifier of a hyperedge; unique over the whole update sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u64);

impl EdgeId {
    /// The edge id as a `usize` (used for dense side tables in the algorithm).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl From<u64> for EdgeId {
    fn from(v: u64) -> Self {
        EdgeId(v)
    }
}

/// Identifier of a shard in the sharded serving layer: shards are numbered
/// `0..num_shards` by the partitioner (see `pdmm_hypergraph::sharding`).
///
/// Used by the shard-tagged journal framing of [`crate::io`], where every
/// batch block records which shard committed it (`@ <shard>` header lines),
/// so a sharded journal replays each batch onto the exact shard that owned it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShardId(pub u32);

impl ShardId {
    /// The shard index as a `usize`, for indexing into per-shard tables.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl From<u32> for ShardId {
    fn from(v: u32) -> Self {
        ShardId(v)
    }
}

/// Counters produced by one boundary-arbitration pass of the sharded serving
/// layer (see `pdmm_hypergraph::sharding`).
///
/// After every sharded drain, the arbitration pass awards each *conflicted*
/// vertex (covered by matched edges on more than one shard) to exactly one
/// edge by the deterministic `(owner shard, edge id)` priority rule, evicts
/// the losers, and runs one bounded repair wave that re-matches edges over
/// the vertices the evictions freed.  These counters summarize that pass;
/// they are derived state (a pure function of the per-shard matchings), so
/// they are reproduced — not persisted — by replay and recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArbitrationStats {
    /// Vertices covered by matched edges on more than one shard before
    /// arbitration.
    pub conflicted_vertices: usize,
    /// Matched edges evicted because they lost at least one endpoint.
    pub evicted_edges: usize,
    /// Vertices left uncovered by the kept matching after evictions (the
    /// seed set of the repair wave).
    pub freed_vertices: usize,
    /// Distinct candidate edges examined by the repair wave.
    pub repair_candidates: usize,
    /// Candidate edges accepted by the repair wave.
    pub repaired_edges: usize,
}

impl ArbitrationStats {
    /// Whether the pass had nothing to do (no conflicts, nothing evicted or
    /// repaired) — always the case at 1 shard.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        *self == ArbitrationStats::default()
    }
}

/// A hyperedge: an identifier plus its (at most `r`) endpoints.
///
/// Endpoints are stored deduplicated and sorted, so two structurally equal edges
/// compare equal regardless of the order the endpoints were listed in.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HyperEdge {
    /// Unique identifier of this hyperedge.
    pub id: EdgeId,
    /// Sorted, deduplicated endpoints.
    vertices: Box<[VertexId]>,
}

impl HyperEdge {
    /// Creates a hyperedge, sorting and deduplicating the endpoints.
    ///
    /// # Panics
    ///
    /// Panics if `vertices` is empty: a hyperedge must have at least one endpoint.
    #[must_use]
    pub fn new(id: EdgeId, mut vertices: Vec<VertexId>) -> Self {
        assert!(
            !vertices.is_empty(),
            "a hyperedge needs at least one endpoint"
        );
        vertices.sort_unstable();
        vertices.dedup();
        HyperEdge {
            id,
            vertices: vertices.into_boxed_slice(),
        }
    }

    /// Convenience constructor for an ordinary (rank-2) graph edge.
    #[must_use]
    pub fn pair(id: EdgeId, a: VertexId, b: VertexId) -> Self {
        HyperEdge::new(id, vec![a, b])
    }

    /// The endpoints of the hyperedge (sorted, deduplicated).
    #[must_use]
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertices
    }

    /// Number of endpoints (the "rank" of this particular edge).
    #[must_use]
    pub fn rank(&self) -> usize {
        self.vertices.len()
    }

    /// Whether `v` is one of the endpoints.
    #[must_use]
    pub fn contains(&self, v: VertexId) -> bool {
        self.vertices.binary_search(&v).is_ok()
    }

    /// Whether this edge shares an endpoint with `other`.
    #[must_use]
    pub fn intersects(&self, other: &HyperEdge) -> bool {
        // Both endpoint lists are sorted: merge-scan.
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.vertices.len() && j < other.vertices.len() {
            match self.vertices[i].cmp(&other.vertices[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }
}

/// One update in the fully dynamic model of §2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Update {
    /// Insert a new hyperedge (its id must not currently be present).
    Insert(HyperEdge),
    /// Delete the hyperedge with this id (which must currently be present).
    Delete(EdgeId),
}

impl Update {
    /// Whether this update is an insertion.
    #[must_use]
    pub fn is_insert(&self) -> bool {
        matches!(self, Update::Insert(_))
    }

    /// Whether this update is a deletion.
    #[must_use]
    pub fn is_delete(&self) -> bool {
        matches!(self, Update::Delete(_))
    }

    /// The edge id this update refers to.
    #[must_use]
    pub fn edge_id(&self) -> EdgeId {
        match self {
            Update::Insert(e) => e.id,
            Update::Delete(id) => *id,
        }
    }
}

/// A batch of simultaneous updates, processed by one invocation of the algorithm.
///
/// `UpdateBatch` is a *validated* container: its only public constructors run the
/// shared [`BatchLedger`] validation machine, so workload producers (the stream
/// generators, [`crate::io::batches_from_string`], hand-built test fixtures)
/// cannot hand an engine a batch that repeats ids, deletes an id the same batch
/// inserts, or deletes one id twice.  This closes the PR 1 hole where
/// `UpdateBatch` was a bare `Vec<Update>` alias and anything could pose as a
/// batch without ever passing validation.
///
/// The constructor checks are *context-free*: they enforce everything §2 requires
/// of a batch in isolation (id freshness within the batch, the delete-before-
/// insert ordering of §3.3), while liveness against a concrete engine plus the
/// engine's rank/vertex-range limits are checked by
/// [`MatchingEngine::validate`] when the batch is applied.  A deletion of an id
/// the batch does not touch is assumed to name a live edge; an insertion is
/// assumed to use a fresh id.
///
/// `UpdateBatch` is therefore the **context-free tier** of the two-tier proof
/// ladder: it certifies batch-internal legality, and the engine-context tier —
/// [`ValidatedBatch`], minted by [`MatchingEngine::validate`] against a live
/// engine — certifies the rest.  The serve path mints the engine-context proof
/// exactly once per batch (in the drain) and hands it to
/// [`run_batch_trusted`], so no update is re-checked downstream.
///
/// [`ValidatedBatch`]: crate::engine::ValidatedBatch
/// [`MatchingEngine::validate`]: crate::engine::MatchingEngine::validate
/// [`run_batch_trusted`]: crate::engine::run_batch_trusted
///
/// ```
/// use pdmm_hypergraph::engine::BatchError;
/// use pdmm_hypergraph::types::{EdgeId, HyperEdge, Update, UpdateBatch, VertexId};
///
/// let pair = |id, a, b| HyperEdge::pair(EdgeId(id), VertexId(a), VertexId(b));
/// // delete X then insert X is legal (§3.3: deletions are processed first) …
/// let batch = UpdateBatch::new(vec![
///     Update::Delete(EdgeId(0)),
///     Update::Insert(pair(0, 1, 2)),
/// ])
/// .unwrap();
/// assert_eq!(batch.len(), 2);
/// // … but insert X then delete X cannot be expressed in one batch.
/// let err = UpdateBatch::new(vec![
///     Update::Insert(pair(1, 0, 1)),
///     Update::Delete(EdgeId(1)),
/// ])
/// .unwrap_err();
/// assert_eq!(err, BatchError::UnknownDeletion { id: EdgeId(1) });
/// ```
///
/// [`BatchLedger`]: crate::engine::BatchLedger
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateBatch {
    updates: Vec<Update>,
}

impl UpdateBatch {
    /// Validates `updates` as one batch and seals them.
    ///
    /// Strict, like [`MatchingEngine::validate`]: any repeated id — even an
    /// exact duplicate of an earlier update — is an error.  Use
    /// [`UpdateBatch::new_lossy`] for dirty streams.
    ///
    /// # Errors
    ///
    /// Returns the first context-free [`BatchError`] in batch order.
    ///
    /// [`MatchingEngine::validate`]: crate::engine::MatchingEngine::validate
    pub fn new(updates: Vec<Update>) -> Result<Self, BatchError> {
        fold_strict(&updates, Update::is_delete, usize::MAX, usize::MAX)?;
        Ok(UpdateBatch { updates })
    }

    /// Validates `updates` leniently, like
    /// [`MatchingEngine::validate_lossy`]: exact duplicates (the same deletion
    /// id, or an insertion structurally equal to an earlier one) are silently
    /// dropped, while conflicting or otherwise invalid updates land in the
    /// returned rejection list with their typed error and submission index.
    ///
    /// ```
    /// use pdmm_hypergraph::engine::BatchError;
    /// use pdmm_hypergraph::types::{EdgeId, Update, UpdateBatch};
    ///
    /// let (batch, rejected) = UpdateBatch::new_lossy(vec![
    ///     Update::Delete(EdgeId(3)),
    ///     Update::Delete(EdgeId(3)), // exact duplicate: dropped, not an error
    /// ]);
    /// assert_eq!(batch.len(), 1);
    /// assert!(rejected.is_empty());
    /// ```
    ///
    /// [`MatchingEngine::validate_lossy`]: crate::engine::MatchingEngine::validate_lossy
    #[must_use]
    pub fn new_lossy(updates: Vec<Update>) -> (Self, Vec<RejectedUpdate>) {
        let (updates, _, rejected) = fold_lossy(updates, Update::is_delete, usize::MAX, usize::MAX);
        (UpdateBatch { updates }, rejected)
    }

    /// The empty batch (a counter-neutral no-op on every engine).
    #[must_use]
    pub fn empty() -> Self {
        UpdateBatch::default()
    }

    /// Seals updates the caller has already validated line by line (the stream
    /// parser, which needs per-line error positions).  Debug builds re-validate.
    pub(crate) fn trusted(updates: Vec<Update>) -> Self {
        debug_assert!(
            UpdateBatch::new(updates.clone()).is_ok(),
            "trusted() caller handed an invalid batch"
        );
        UpdateBatch { updates }
    }

    /// The context-free legality rule shared by the constructors and the
    /// per-line stream parsers: a deletion of an id the batch does not touch
    /// is assumed live, an insertion's id is assumed fresh, and rank/vertex
    /// limits are deferred to the engine (checked, with real limits, when the
    /// batch is validated against it).
    pub(crate) fn check_context_free(
        ledger: &BatchLedger,
        update: &Update,
    ) -> Result<UpdateCheck, BatchError> {
        ledger.check(update, |_| update.is_delete(), usize::MAX, usize::MAX)
    }

    /// The validated updates, in batch order.
    #[must_use]
    pub fn updates(&self) -> &[Update] {
        &self.updates
    }

    /// Number of updates in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// Whether the batch holds no updates.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// Consumes the batch, returning the validated updates.
    #[must_use]
    pub fn into_updates(self) -> Vec<Update> {
        self.updates
    }
}

impl Deref for UpdateBatch {
    type Target = [Update];

    fn deref(&self) -> &[Update] {
        &self.updates
    }
}

impl AsRef<[Update]> for UpdateBatch {
    fn as_ref(&self) -> &[Update] {
        &self.updates
    }
}

impl From<UpdateBatch> for Vec<Update> {
    fn from(batch: UpdateBatch) -> Vec<Update> {
        batch.updates
    }
}

impl<'a> IntoIterator for &'a UpdateBatch {
    type Item = &'a Update;
    type IntoIter = std::slice::Iter<'a, Update>;

    fn into_iter(self) -> Self::IntoIter {
        self.updates.iter()
    }
}

impl IntoIterator for UpdateBatch {
    type Item = Update;
    type IntoIter = std::vec::IntoIter<Update>;

    fn into_iter(self) -> Self::IntoIter {
        self.updates.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    #[test]
    fn ids_display_and_index() {
        assert_eq!(VertexId(3).index(), 3);
        assert_eq!(EdgeId(9).index(), 9);
        assert_eq!(format!("{}", VertexId(3)), "v3");
        assert_eq!(format!("{}", EdgeId(9)), "e9");
        assert_eq!(VertexId::from(2u32), VertexId(2));
        assert_eq!(EdgeId::from(5u64), EdgeId(5));
    }

    #[test]
    fn hyperedge_sorts_and_dedups() {
        let e = HyperEdge::new(EdgeId(0), vec![v(5), v(1), v(5), v(3)]);
        assert_eq!(e.vertices(), &[v(1), v(3), v(5)]);
        assert_eq!(e.rank(), 3);
        assert!(e.contains(v(3)));
        assert!(!e.contains(v(2)));
    }

    #[test]
    #[should_panic(expected = "at least one endpoint")]
    fn empty_hyperedge_panics() {
        let _ = HyperEdge::new(EdgeId(0), vec![]);
    }

    #[test]
    fn pair_edge() {
        let e = HyperEdge::pair(EdgeId(1), v(7), v(2));
        assert_eq!(e.vertices(), &[v(2), v(7)]);
        assert_eq!(e.rank(), 2);
    }

    #[test]
    fn self_loop_pair_has_rank_one() {
        let e = HyperEdge::pair(EdgeId(1), v(4), v(4));
        assert_eq!(e.rank(), 1);
    }

    #[test]
    fn intersects_detects_shared_endpoint() {
        let a = HyperEdge::new(EdgeId(0), vec![v(1), v(2), v(3)]);
        let b = HyperEdge::new(EdgeId(1), vec![v(3), v(4)]);
        let c = HyperEdge::new(EdgeId(2), vec![v(5), v(6)]);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        assert!(a.intersects(&a));
    }

    #[test]
    fn update_accessors() {
        let e = HyperEdge::pair(EdgeId(4), v(0), v(1));
        let ins = Update::Insert(e.clone());
        let del = Update::Delete(EdgeId(4));
        assert!(ins.is_insert() && !ins.is_delete());
        assert!(del.is_delete() && !del.is_insert());
        assert_eq!(ins.edge_id(), EdgeId(4));
        assert_eq!(del.edge_id(), EdgeId(4));
    }

    #[test]
    fn update_batch_new_accepts_valid_batches() {
        let batch = UpdateBatch::new(vec![
            Update::Delete(EdgeId(7)),
            Update::Insert(HyperEdge::pair(EdgeId(7), v(0), v(1))),
            Update::Insert(HyperEdge::pair(EdgeId(8), v(2), v(3))),
            Update::Delete(EdgeId(9)),
        ])
        .unwrap();
        assert_eq!(batch.len(), 4);
        assert_eq!(batch.updates().len(), 4);
        assert!(!batch.is_empty());
        assert!(UpdateBatch::empty().is_empty());
    }

    #[test]
    fn update_batch_new_rejects_every_context_free_violation() {
        let pair = |id, a, b| Update::Insert(HyperEdge::pair(EdgeId(id), v(a), v(b)));
        // Repeated insertion id (even an exact copy) is strict-mode error.
        assert_eq!(
            UpdateBatch::new(vec![pair(1, 0, 1), pair(1, 0, 1)]).unwrap_err(),
            BatchError::DuplicateEdgeId { id: EdgeId(1) }
        );
        // Repeated deletion.
        assert_eq!(
            UpdateBatch::new(vec![Update::Delete(EdgeId(2)), Update::Delete(EdgeId(2))])
                .unwrap_err(),
            BatchError::DuplicateDeletion { id: EdgeId(2) }
        );
        // Insert-then-delete cannot be expressed in one batch (§3.3 ordering).
        assert_eq!(
            UpdateBatch::new(vec![pair(3, 0, 1), Update::Delete(EdgeId(3))]).unwrap_err(),
            BatchError::UnknownDeletion { id: EdgeId(3) }
        );
        // Delete / insert / delete of one id is also inexpressible.
        assert_eq!(
            UpdateBatch::new(vec![
                Update::Delete(EdgeId(4)),
                pair(4, 0, 1),
                Update::Delete(EdgeId(4)),
            ])
            .unwrap_err(),
            BatchError::DuplicateDeletion { id: EdgeId(4) }
        );
    }

    #[test]
    fn update_batch_lossy_dedups_and_reports() {
        let pair = |id, a, b| Update::Insert(HyperEdge::pair(EdgeId(id), v(a), v(b)));
        let (batch, rejected) = UpdateBatch::new_lossy(vec![
            pair(1, 0, 1),
            pair(1, 0, 1),             // exact dup: dropped silently
            pair(1, 2, 3),             // conflicting content under the same id: rejected
            Update::Delete(EdgeId(5)), // fine (assumed live)
            Update::Delete(EdgeId(5)), // exact dup: dropped silently
            Update::Delete(EdgeId(1)), // deletes an id this batch inserts: rejected
        ]);
        assert_eq!(batch.updates(), &[pair(1, 0, 1), Update::Delete(EdgeId(5))]);
        let got: Vec<(usize, BatchError)> = rejected
            .iter()
            .map(|r| (r.index, r.error.clone()))
            .collect();
        assert_eq!(
            got,
            vec![
                (2, BatchError::DuplicateEdgeId { id: EdgeId(1) }),
                (5, BatchError::UnknownDeletion { id: EdgeId(1) }),
            ]
        );
    }

    #[test]
    fn update_batch_conversions_and_iteration() {
        let updates = vec![
            Update::Insert(HyperEdge::pair(EdgeId(0), v(0), v(1))),
            Update::Delete(EdgeId(9)),
        ];
        let batch = UpdateBatch::new(updates.clone()).unwrap();
        // Deref / AsRef expose the slice; iteration borrows or consumes.
        assert_eq!(&batch[..], updates.as_slice());
        assert_eq!(batch.as_ref(), updates.as_slice());
        assert_eq!((&batch).into_iter().count(), 2);
        assert_eq!(Vec::from(batch.clone()), updates);
        assert_eq!(batch.clone().into_updates(), updates);
        assert_eq!(batch.into_iter().collect::<Vec<_>>(), updates);
    }

    #[test]
    fn structural_equality_ignores_input_order() {
        let a = HyperEdge::new(EdgeId(0), vec![v(1), v(2)]);
        let b = HyperEdge::new(EdgeId(0), vec![v(2), v(1)]);
        assert_eq!(a, b);
    }
}
