//! Differential pins for the single-validation hot path.
//!
//! * [`run_batch_trusted`] ≡ the validating `apply_batch` on all five
//!   engines: same reports, same matching, same serialized state.
//! * The [`ValidatedBatch`] proof is mintable only through validation —
//!   `MatchingEngine::validate` refuses exactly what `apply_batch` refuses
//!   (construction *around* validation is a compile error, pinned by the
//!   `compile_fail` doctests on [`ValidatedBatch`]).
//! * The service's snapshot — each publish folds the engine's matching delta
//!   into the previous snapshot, with no edge-table scan — equals a
//!   from-scratch ground-truth rebuild after every drain, across engines,
//!   drain sizes and the lossy drain.
//!
//! [`run_batch_trusted`]: pdmm::engine::run_batch_trusted
//! [`ValidatedBatch`]: pdmm::engine::ValidatedBatch

use pdmm::engine::{self, BatchError};
use pdmm::prelude::*;
use std::collections::HashMap;

const NUM_VERTICES: usize = 48;
const RANK: usize = 3;

fn builder(seed: u64) -> EngineBuilder {
    EngineBuilder::new(NUM_VERTICES).rank(RANK).seed(seed)
}

fn workload(seed: u64) -> Workload {
    pdmm::hypergraph::streams::random_churn(NUM_VERTICES, RANK, 20, 15, 6, 0.6, seed)
}

#[test]
fn trusted_path_matches_validating_path_on_all_engines() {
    for kind in EngineKind::ALL {
        for seed in [3_u64, 17, 92] {
            let workload = workload(seed);
            let mut validating = engine::build(kind, &builder(11));
            let mut trusted = engine::build(kind, &builder(11));
            for batch in &workload.batches {
                let expected = validating
                    .apply_batch(batch.updates())
                    .expect("workload batches are valid");
                let proof = trusted
                    .validate(batch.updates())
                    .expect("workload batches are valid");
                let got = trusted
                    .apply_batch_trusted(proof)
                    .expect("proven batches commit");
                assert_eq!(expected, got, "{kind:?} seed {seed}: reports diverge");
            }
            let mut a: Vec<EdgeId> = validating.matching().collect();
            let mut b: Vec<EdgeId> = trusted.matching().collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "{kind:?} seed {seed}: matchings diverge");
            assert_eq!(
                validating.save_state(),
                trusted.save_state(),
                "{kind:?} seed {seed}: serialized state diverges"
            );
        }
    }
}

#[test]
fn validate_refuses_exactly_what_apply_batch_refuses() {
    let pair = |id, a, b| Update::Insert(HyperEdge::pair(EdgeId(id), VertexId(a), VertexId(b)));
    let dirty: Vec<Vec<Update>> = vec![
        vec![pair(0, 0, 1), pair(0, 2, 3)],    // duplicate insert
        vec![Update::Delete(EdgeId(99))],      // unknown deletion
        vec![pair(1, 0, NUM_VERTICES as u32)], // vertex out of range
        vec![Update::Insert(HyperEdge::new(
            EdgeId(2),
            (0..=RANK as u32).map(VertexId).collect(),
        ))], // rank violation
    ];
    for kind in EngineKind::ALL {
        for updates in &dirty {
            let mut engine = engine::build(kind, &builder(5));
            let refused: BatchError = engine
                .apply_batch(updates)
                .expect_err("dirty batch must be refused");
            let minted = engine.validate(updates).map(|_| ()).expect_err("no proof");
            assert_eq!(refused, minted, "{kind:?}: the two paths disagree");
        }
    }
}

/// Ground truth for one service snapshot: replays the committed journal onto
/// a plain edge map and checks every published structure against it.
fn assert_snapshot_matches_ground_truth(service: &EngineService, kind: EngineKind) {
    let snapshot = service.snapshot();
    let committed =
        pdmm::hypergraph::io::batches_from_string(&service.journal()).expect("journal parses");
    let mut live: HashMap<EdgeId, Vec<VertexId>> = HashMap::new();
    for batch in &committed {
        for update in batch.iter() {
            match update {
                Update::Insert(edge) => {
                    live.insert(edge.id, edge.vertices().to_vec());
                }
                Update::Delete(id) => {
                    live.remove(id);
                }
            }
        }
    }
    let ids = snapshot.edge_ids();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    assert_eq!(ids, sorted, "{kind:?}: snapshot edge ids must be sorted");
    let mut expected_vertices: Vec<VertexId> = Vec::new();
    for id in &ids {
        let endpoints = live
            .get(id)
            .unwrap_or_else(|| panic!("{kind:?}: matched edge {id:?} is not live"));
        assert_eq!(
            snapshot.matched_endpoints(*id),
            Some(endpoints.as_slice()),
            "{kind:?}: endpoints of {id:?} diverge from the live edge"
        );
        for &v in endpoints {
            assert_eq!(
                snapshot.matched_edge_of(v),
                Some(*id),
                "{kind:?}: by-vertex entry diverges for {v:?}"
            );
            expected_vertices.push(v);
        }
    }
    expected_vertices.sort_unstable();
    expected_vertices.dedup();
    let published: Vec<VertexId> = snapshot.matched_vertices().collect();
    assert_eq!(
        published, expected_vertices,
        "{kind:?}: matched_vertices must be the sorted endpoint union"
    );
    assert_eq!(snapshot.size(), ids.len());
}

#[test]
fn incremental_snapshot_matches_from_scratch_rebuild() {
    for kind in EngineKind::ALL {
        for per_drain in [1, 4, 16] {
            let workload = workload(29);
            let service = EngineService::new(engine::build(kind, &builder(13)));
            let mut committed = 0;
            for chunk in workload.batches.chunks(per_drain) {
                for batch in chunk {
                    service.submit(batch.clone());
                }
                service.drain().expect("valid batches drain");
                // Every commit publishes, so a drain returns with its last
                // commit visible.
                committed += chunk.len() as u64;
                assert_eq!(service.snapshot().committed_batches(), committed);
                assert_snapshot_matches_ground_truth(&service, kind);
            }
        }
    }
}

#[test]
fn incremental_snapshot_survives_lossy_drains() {
    let pair = |id, a, b| Update::Insert(HyperEdge::pair(EdgeId(id), VertexId(a), VertexId(b)));
    for kind in EngineKind::ALL {
        let service = EngineService::new(engine::build(kind, &builder(23)));
        let clean = workload(31);
        for batch in &clean.batches {
            service.submit(batch.clone());
        }
        service.drain_lossy();
        // A dirty batch: the duplicate insert and unknown deletion are
        // skipped, the survivors commit, and the snapshot must track exactly
        // the survivors.  It also moves a matched edge, under its id, onto a
        // free vertex — the id can stay matched with other endpoints.
        let snapshot = service.snapshot();
        let moved = snapshot.edges().next().expect("a matched edge");
        let spare = (4..snapshot.num_vertices() as u32)
            .map(VertexId)
            .find(|&v| !snapshot.is_matched(v))
            .expect("a free vertex");
        let (dirty, rejected) = UpdateBatch::new_lossy(vec![
            pair(9_000, 0, 1),
            pair(9_000, 2, 3),
            Update::Delete(EdgeId(8_888)),
            Update::Delete(moved),
            Update::Insert(HyperEdge::new(moved, vec![spare])),
        ]);
        assert_eq!(rejected.len(), 1, "duplicate insert rejected at sealing");
        service.submit(dirty);
        let reports = service.drain_lossy();
        assert!(reports.iter().any(|r| !r.rejected.is_empty()));
        assert_snapshot_matches_ground_truth(&service, kind);
    }
}

#[test]
fn recovered_service_publishes_the_same_snapshot() {
    let workload = workload(37);
    let service = EngineService::new(engine::build(EngineKind::Parallel, &builder(19)));
    let mid = workload.batches.len() / 2;
    for batch in &workload.batches[..mid] {
        service.submit(batch.clone());
        service.drain().expect("valid batches drain");
    }
    let checkpoint = service.checkpoint().expect("drain-boundary checkpoint");
    for batch in &workload.batches[mid..] {
        service.submit(batch.clone());
        service.drain().expect("valid batches drain");
    }
    let recovered = EngineService::recover(
        engine::build(EngineKind::Parallel, &builder(19)),
        &checkpoint,
        &service.journal(),
        Box::new(pdmm::service::MemoryJournal::new()),
    )
    .expect("recovery succeeds");
    let a = service.snapshot();
    let b = recovered.snapshot();
    assert_eq!(a.edge_ids(), b.edge_ids());
    assert_eq!(a.committed_batches(), b.committed_batches());
    assert_eq!(
        a.matched_vertices().collect::<Vec<_>>(),
        b.matched_vertices().collect::<Vec<_>>()
    );
    assert_snapshot_matches_ground_truth(&recovered, EngineKind::Parallel);
}
