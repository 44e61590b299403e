//! Differential test pinning the strict and lossy batch validators together.
//!
//! Each tier has one strict and one lossy validator, built on one shared
//! `BatchLedger` fold per mode: [`MatchingEngine::validate`] and
//! [`MatchingEngine::validate_lossy`] against a live engine, and
//! [`UpdateBatch::new`] and [`UpdateBatch::new_lossy`] context-free.  This
//! test drives random dirty update sequences — duplicates, reinserts, rank and
//! vertex violations, delete-then-insert and insert-then-delete chains —
//! through both tiers and walks each lossy verdict in submission order:
//!
//! * a kept update extends the survivors so far to a strictly valid batch, so
//!   the survivors pass strict validation;
//! * a dropped update is an exact repeat of an earlier survivor, and strict
//!   validation calls it a `Duplicate*` naming the same edge;
//! * a rejected update carries exactly the typed error strict validation
//!   returns for the survivors so far plus it;
//! * the engine-context survivors commit cleanly.

use pdmm::engine::{self, BatchError, MatchingEngine, RejectedUpdate};
use pdmm::prelude::*;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::HashSet;

const NUM_VERTICES: usize = 6;
const MAX_RANK: usize = 2;
/// Ids of the edges the engine is primed with before validation.
const LIVE_IDS: [u64; 3] = [0, 1, 2];

/// The static-recompute engine (deterministic), primed with three live edges.
fn primed_engine() -> Box<dyn MatchingEngine + Send> {
    let builder = EngineBuilder::new(NUM_VERTICES).rank(MAX_RANK).seed(7);
    let mut engine = engine::build(EngineKind::StaticRecompute, &builder);
    engine
        .apply_batch(&[
            Update::Insert(HyperEdge::pair(EdgeId(0), VertexId(0), VertexId(1))),
            Update::Insert(HyperEdge::pair(EdgeId(1), VertexId(2), VertexId(3))),
            Update::Insert(HyperEdge::pair(EdgeId(2), VertexId(4), VertexId(5))),
        ])
        .unwrap();
    engine
}

/// Decodes one generated tuple into an update.  Small id and vertex spaces
/// make duplicates, reinserts, unknown deletions, out-of-range endpoints
/// (vertices 6..8) and rank violations (op 3) all likely.
fn decode(op: u8, id: u64, a: u32, b: u32, c: u32) -> Update {
    match op {
        0 | 1 => Update::Insert(HyperEdge::pair(EdgeId(id), VertexId(a), VertexId(b))),
        2 => Update::Delete(EdgeId(id)),
        _ => Update::Insert(HyperEdge::new(
            EdgeId(id),
            vec![VertexId(a), VertexId(b), VertexId(c)],
        )),
    }
}

/// Walks one lossy verdict over `offered` in submission order against its
/// strict twin (`strict` validates a whole batch).
fn check_against_strict(
    offered: &[Update],
    survivors: &[Update],
    deduplicated: usize,
    rejected: &[RejectedUpdate],
    strict: impl Fn(&[Update]) -> Result<(), BatchError>,
) -> Result<(), TestCaseError> {
    let mut kept: Vec<Update> = Vec::new();
    let mut dropped = 0;
    let mut rejections = rejected.iter().peekable();
    for (index, update) in offered.iter().enumerate() {
        let mut with = kept.clone();
        with.push(update.clone());
        if let Some(rejection) = rejections.next_if(|r| r.index == index) {
            prop_assert_eq!(&rejection.update, update);
            prop_assert_eq!(strict(&with), Err(rejection.error.clone()));
        } else if survivors.get(kept.len()) == Some(update) {
            prop_assert_eq!(strict(&with), Ok(()));
            kept.push(update.clone());
        } else {
            prop_assert!(
                kept.contains(update),
                "dropped {:?} repeats no survivor",
                update
            );
            let id = update.edge_id();
            let error = strict(&with);
            prop_assert!(
                error == Err(BatchError::DuplicateEdgeId { id })
                    || error == Err(BatchError::DuplicateDeletion { id }),
                "dedup of {:?} maps to non-duplicate {:?}",
                update,
                error
            );
            dropped += 1;
        }
    }
    prop_assert_eq!(kept.as_slice(), survivors);
    prop_assert_eq!(dropped, deduplicated);
    prop_assert!(rejections.next().is_none(), "rejections out of order");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn strict_and_lossy_validators_agree_on_random_dirty_streams(
        raw in proptest::collection::vec(
            (0u8..4, 0u64..8, 0u32..8, 0u32..8, 0u32..8),
            1..40,
        ),
    ) {
        let updates: Vec<Update> = raw
            .into_iter()
            .map(|(op, id, a, b, c)| decode(op, id, a, b, c))
            .collect();

        // Engine context.
        let mut engine = primed_engine();
        let lossy = engine.validate_lossy(updates.clone());
        check_against_strict(
            &updates,
            lossy.survivors(),
            lossy.deduplicated,
            &lossy.rejected,
            |batch| engine.validate(batch).map(|_| ()),
        )?;

        // Context-free tier.
        let (batch, rejected) = UpdateBatch::new_lossy(updates.clone());
        check_against_strict(
            &updates,
            &batch,
            updates.len() - batch.len() - rejected.len(),
            &rejected,
            |batch| UpdateBatch::new(batch.to_vec()).map(|_| ()),
        )?;

        // The survivors commit; ids they insert (and do not re-delete) are
        // live afterwards, ids they delete are not.
        let report = engine
            .apply_batch_trusted(lossy.proof())
            .expect("validated survivors must commit");
        prop_assert_eq!(report.batch_size, lossy.survivors().len());
        let mut live: HashSet<EdgeId> = LIVE_IDS.iter().map(|&id| EdgeId(id)).collect();
        for update in lossy.survivors() {
            match update {
                Update::Insert(edge) => {
                    live.insert(edge.id);
                }
                Update::Delete(id) => {
                    live.remove(id);
                }
            }
        }
        for id in (0..8).map(EdgeId) {
            prop_assert_eq!(engine.contains_edge(id), live.contains(&id));
        }
    }
}
