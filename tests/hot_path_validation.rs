//! Pins the serve path's **single-validation** guarantee with the
//! [`validation_checks`] counter hook: from submission to commit, the service
//! runs the [`BatchLedger`] legality check exactly once per offered update, on
//! the strict drain and the lossy drain alike.
//!
//! The counter is process-global and `cargo test` runs the tests of one
//! binary on parallel threads, so *everything* that asserts counter deltas
//! lives in this one `#[test]` function, and this file deliberately contains
//! no other tests — integration-test binaries themselves run sequentially.
//!
//! [`validation_checks`]: pdmm::engine::validation_checks
//! [`BatchLedger`]: pdmm::engine::BatchLedger

use pdmm::engine::{self, validation_checks};
use pdmm::prelude::*;

const NUM_VERTICES: usize = 64;
const RANK: usize = 3;

fn workload(seed: u64) -> Workload {
    pdmm::hypergraph::streams::random_churn(NUM_VERTICES, RANK, 24, 12, 8, 0.6, seed)
}

#[test]
fn serve_path_validates_each_update_exactly_once() {
    let workload = workload(41);
    let total_updates: u64 = workload.total_updates() as u64;

    // Tier 1 — batch construction is the context-free check: one ledger
    // check per update, paid by the producer, not the serve path.  The
    // workload generator already constructed these batches, so re-sealing
    // the same updates measures construction in isolation.
    let before = validation_checks();
    let rebuilt: Vec<UpdateBatch> = workload
        .batches
        .iter()
        .map(|b| UpdateBatch::new(b.updates().to_vec()).expect("workload batches are valid"))
        .collect();
    assert_eq!(
        validation_checks() - before,
        total_updates,
        "UpdateBatch::new checks each update exactly once"
    );

    // Tier 2 — the serve path: submit + drain on the parallel engine.  The
    // drain mints one engine-context proof per batch (one ledger check per
    // update) and discharges it on the trusted kernel path, which must not
    // re-check anything.
    let builder = EngineBuilder::new(NUM_VERTICES).rank(RANK).seed(7);
    let service = EngineService::new(engine::build(EngineKind::Parallel, &builder));
    let before = validation_checks();
    for chunk in rebuilt.chunks(16) {
        for batch in chunk {
            service.submit(batch.clone());
        }
        service.drain().expect("valid batches drain");
    }
    assert_eq!(
        validation_checks() - before,
        total_updates,
        "submit + drain runs exactly one legality check per update"
    );
    assert_eq!(
        service.snapshot().committed_batches(),
        workload.batches.len() as u64
    );

    // Tier 3 — the lossy drain on a dirty stream: every batch carries a
    // poison deletion of an edge that never existed.  `validate_lossy` checks
    // each offered update once and the survivors are journaled as they are,
    // never sealed (and so checked) a second time.
    let dirty: Vec<UpdateBatch> = rebuilt
        .iter()
        .map(|b| {
            let mut updates = b.updates().to_vec();
            updates.push(Update::Delete(EdgeId(u64::MAX)));
            UpdateBatch::new(updates).expect("an untouched deletion is context-free valid")
        })
        .collect();
    let offered: u64 = dirty.iter().map(|b| b.len() as u64).sum();
    let service = EngineService::new(engine::build(EngineKind::Parallel, &builder));
    let before = validation_checks();
    let mut rejected = 0;
    for chunk in dirty.chunks(16) {
        for batch in chunk {
            service.submit(batch.clone());
        }
        rejected += service
            .drain_lossy()
            .iter()
            .map(|r| r.rejected.len())
            .sum::<usize>();
    }
    assert_eq!(
        validation_checks() - before,
        offered,
        "submit + drain_lossy runs exactly one legality check per offered update"
    );
    assert_eq!(rejected, dirty.len(), "every poison deletion is rejected");
}
