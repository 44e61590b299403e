//! Serve-path satellite suite: journal sinks, lossy drains and per-commit
//! snapshot publishing on `pdmm::service::EngineService`.
//!
//! * **`drain_lossy`**: dirty streams (unknown deletions, conflicting ids
//!   across batches) are skipped and reported instead of poisoning the drain;
//!   the journal records exactly the surviving subsets, so replay is still
//!   bit-identical;
//! * **`FileJournal`**: the file-backed sink (one append-only file, synced on
//!   every commit) produces byte-identical journal contents to the in-memory
//!   sink, reads back from disk unchanged, and replays cleanly;
//! * **per-commit publishing**: a drain of many queued batches publishes
//!   after every commit, concurrent readers only ever observe committed
//!   prefixes, monotonically, and a poison batch's error returns with every
//!   earlier commit already visible;
//! * **fault injection**: an injected I/O failure during `commit` surfaces
//!   per the documented sink policy — a panic, not a silently diverging
//!   journal — and leaves the on-disk journal parseable;
//! * **snapshot recycling**: a publish that patches the replaced snapshot in
//!   place answers exactly like one that copies it, on every engine, and a
//!   snapshot a reader holds never changes.

use pdmm::checkpoint::FaultSink;
use pdmm::engine;
use pdmm::hypergraph::streams::{self, Workload};
use pdmm::prelude::*;
use pdmm::service::{FileJournal, MemoryJournal};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};

fn serve_workload() -> Workload {
    streams::random_churn(100, 2, 160, 12, 30, 0.5, 41)
}

fn parallel_service(workload: &Workload, seed: u64) -> EngineService {
    let builder = EngineBuilder::new(workload.num_vertices)
        .rank(workload.rank.max(2))
        .seed(seed);
    EngineService::new(engine::build(EngineKind::Parallel, &builder))
}

#[test]
fn drain_lossy_skips_poison_and_keeps_the_journal_replayable() {
    let workload = serve_workload();
    for kind in EngineKind::ALL {
        let builder = EngineBuilder::new(workload.num_vertices)
            .rank(workload.rank.max(2))
            .seed(9);
        let service = EngineService::new(engine::build(kind, &builder));
        let mut rejected = 0usize;
        let mut committed = 0usize;
        for batch in &workload.batches {
            service.submit(batch.clone());
            // Unknown deletions are context-free-valid (they pass
            // `UpdateBatch::new`) but invalid against the engine: a strict
            // drain would stop here, the lossy drain must not.
            service.submit(UpdateBatch::new(vec![Update::Delete(EdgeId(9_999_999))]).unwrap());
            let reports = service.drain_lossy();
            committed += reports.len();
            rejected += reports.iter().map(|r| r.rejected.len()).sum::<usize>();
            for report in &reports {
                for rejection in &report.rejected {
                    assert_eq!(
                        rejection.error,
                        BatchError::UnknownDeletion {
                            id: EdgeId(9_999_999)
                        },
                        "{kind}"
                    );
                }
            }
        }
        assert_eq!(committed, 2 * workload.batches.len(), "{kind}");
        assert_eq!(rejected, workload.batches.len(), "{kind}");

        // The clean twin sees the identical stream minus the poison: same
        // matching, same journal (survivor subsets only).
        let twin = EngineService::new(engine::build(kind, &builder));
        for batch in &workload.batches {
            twin.submit(batch.clone());
            twin.drain().unwrap();
        }
        assert_eq!(
            service.snapshot().edge_ids(),
            twin.snapshot().edge_ids(),
            "{kind}"
        );
        assert_eq!(service.journal(), twin.journal(), "{kind}");

        // And the lossy journal replays bit-identically on a fresh engine.
        let replayed =
            EngineService::replay(engine::build(kind, &builder), &service.journal()).unwrap();
        assert_eq!(
            replayed.snapshot().edge_ids(),
            service.snapshot().edge_ids(),
            "{kind}"
        );
    }
}

#[test]
fn drain_lossy_reports_mixed_batches_update_by_update() {
    let builder = EngineBuilder::new(8).seed(1);
    let service = EngineService::new(engine::build(EngineKind::Parallel, &builder));
    let pair = |id, a, b| Update::Insert(HyperEdge::pair(EdgeId(id), VertexId(a), VertexId(b)));
    service.submit(UpdateBatch::new(vec![pair(0, 0, 1)]).unwrap());
    service.drain().unwrap();
    // A batch mixing a live-id conflict, a fine insertion and an unknown
    // deletion: only the fine insertion survives.
    service.submit(
        UpdateBatch::new(vec![
            pair(0, 2, 3),
            pair(1, 4, 5),
            Update::Delete(EdgeId(7)),
        ])
        .unwrap(),
    );
    let reports = service.drain_lossy();
    assert_eq!(reports.len(), 1);
    let report = &reports[0];
    assert_eq!(report.batch.batch_size, 1);
    assert_eq!(report.rejected.len(), 2);
    assert_eq!(report.offered(), 3);
    assert_eq!(
        report.rejected[0].error,
        BatchError::DuplicateEdgeId { id: EdgeId(0) }
    );
    assert_eq!(
        report.rejected[1].error,
        BatchError::UnknownDeletion { id: EdgeId(7) }
    );
    let snap = service.snapshot();
    assert_eq!(snap.edge_ids(), vec![EdgeId(0), EdgeId(1)]);
    // A batch rejected in its entirety still commits (empty, unjournaled).
    service.submit(UpdateBatch::new(vec![Update::Delete(EdgeId(42))]).unwrap());
    let reports = service.drain_lossy();
    assert_eq!(reports[0].batch.batch_size, 0);
    assert_eq!(service.snapshot().committed_batches(), 3);
}

#[test]
fn file_journal_matches_memory_journal() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join("service_sinks_file_journal.log");
    let workload = serve_workload();

    let builder = EngineBuilder::new(workload.num_vertices)
        .rank(workload.rank.max(2))
        .seed(17);
    let file_backed = EngineService::new(engine::build(EngineKind::Parallel, &builder))
        .with_journal(Box::new(FileJournal::create(&path).unwrap()));
    let in_memory = EngineService::new(engine::build(EngineKind::Parallel, &builder))
        .with_journal(Box::new(MemoryJournal::new()));
    for batch in &workload.batches {
        file_backed.submit(batch.clone());
        file_backed.drain().unwrap();
        in_memory.submit(batch.clone());
        in_memory.drain().unwrap();
    }

    // Byte-identical journals regardless of the sink, and the file reads
    // back unchanged after a crash.
    let journal = file_backed.journal();
    assert_eq!(journal, in_memory.journal());
    assert_eq!(FileJournal::salvage(&path).unwrap(), journal);
    // The file replays to the same state.
    let replayed =
        EngineService::replay(engine::build(EngineKind::Parallel, &builder), &journal).unwrap();
    assert_eq!(
        replayed.snapshot().edge_ids(),
        file_backed.snapshot().edge_ids()
    );
    assert_eq!(
        replayed.snapshot().committed_batches(),
        file_backed.snapshot().committed_batches()
    );
}

#[test]
fn file_journal_create_starts_a_fresh_journal() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join("service_sinks_fresh_journal.log");
    let workload = serve_workload();
    let builder = EngineBuilder::new(workload.num_vertices)
        .rank(workload.rank.max(2))
        .seed(21);

    // Run 1 leaves its whole history on disk.
    let first = EngineService::new(engine::build(EngineKind::Parallel, &builder))
        .with_journal(Box::new(FileJournal::create(&path).unwrap()));
    for batch in &workload.batches {
        first.submit(batch.clone());
        first.drain().unwrap();
    }
    assert!(!FileJournal::salvage(&path).unwrap().is_empty());

    // Run 2 at the same path must start empty, or a restart reading the
    // file back would replay the previous run's batches.
    let second = EngineService::new(engine::build(EngineKind::Parallel, &builder))
        .with_journal(Box::new(FileJournal::create(&path).unwrap()));
    assert_eq!(FileJournal::salvage(&path).unwrap(), "");
    second.submit(workload.batches[0].clone());
    second.drain().unwrap();
    let journal = second.journal();
    assert_eq!(
        io_batches(&journal),
        vec![workload.batches[0].clone()],
        "the new journal holds only the new run's history"
    );
}

fn io_batches(text: &str) -> Vec<UpdateBatch> {
    pdmm::hypergraph::io::batches_from_string(text).unwrap()
}

#[test]
fn an_injected_commit_failure_panics_and_leaves_the_journal_parseable() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join("service_sinks_fault_commit.log");
    let workload = serve_workload();
    let batches: Vec<UpdateBatch> = workload
        .batches
        .iter()
        .filter(|b| !b.is_empty())
        .cloned()
        .collect();
    let builder = EngineBuilder::new(workload.num_vertices)
        .rank(workload.rank.max(2))
        .seed(47);
    // The third commit fails.  Sinks are infallible by contract: losing the
    // recovery log silently would be worse than crashing the serve loop, so
    // the documented policy is a panic.
    let service =
        EngineService::new(engine::build(EngineKind::Parallel, &builder)).with_journal(Box::new(
            FaultSink::fail_commit(Box::new(FileJournal::create(&path).unwrap()), 3),
        ));
    for batch in &batches[..2] {
        service.submit(batch.clone());
        service.drain().unwrap();
    }
    service.submit(batches[2].clone());
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| service.drain()))
        .expect_err("the injected commit failure must surface as a panic");
    let message = panic.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(message.contains("injected"), "{message}");

    // The failing commit's append already landed (write, then barrier), so
    // the on-disk journal is parseable and every block is complete: the
    // crash-consistent state a restart would recover from.
    let salvaged = FileJournal::salvage(&path).unwrap();
    let parsed = pdmm::hypergraph::io::batches_from_string(&salvaged).unwrap();
    assert_eq!(parsed, batches[..3].to_vec());
    let blocks = pdmm::hypergraph::io::journal_blocks(&salvaged);
    assert_eq!(blocks.len(), 3);
    assert!(blocks
        .iter()
        .all(|b| pdmm::hypergraph::io::block_is_committed(b)));
}

#[test]
fn drain_error_carries_the_committed_reports() {
    let service = parallel_service(&serve_workload(), 8);
    let pair = |id, a, b| Update::Insert(HyperEdge::pair(EdgeId(id), VertexId(a), VertexId(b)));
    service.submit(UpdateBatch::new(vec![pair(0, 0, 1)]).unwrap());
    service.submit(UpdateBatch::new(vec![pair(1, 2, 3), pair(2, 4, 5)]).unwrap());
    service.submit(UpdateBatch::new(vec![Update::Delete(EdgeId(9))]).unwrap());
    let err = service.drain().unwrap_err();
    assert_eq!(err.committed, 2);
    assert_eq!(err.reports.len(), 2);
    assert_eq!(err.reports[0].batch_size, 1);
    assert_eq!(err.reports[1].batch_size, 2);
    assert_eq!(err.reports[1].matching_size, 3);
}

#[test]
fn one_drain_of_many_batches_exposes_only_committed_prefixes() {
    let workload = serve_workload();
    let total = workload.batches.len() as u64;

    // Ground truth: the expected matching after every committed prefix, from
    // a twin drained one batch at a time.
    let twin = parallel_service(&workload, 29);
    let mut expected: HashMap<u64, Vec<EdgeId>> = HashMap::new();
    expected.insert(0, Vec::new());
    for (i, batch) in workload.batches.iter().enumerate() {
        twin.submit(batch.clone());
        twin.drain().unwrap();
        expected.insert(i as u64 + 1, twin.snapshot().edge_ids());
    }

    let service = parallel_service(&workload, 29);
    for batch in &workload.batches {
        service.submit(batch.clone());
    }
    let done = AtomicBool::new(false);
    let observations = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut seen: Vec<(u64, Vec<EdgeId>)> = Vec::new();
            let mut last = 0u64;
            while !done.load(Ordering::Acquire) {
                let snap = service.snapshot();
                assert!(
                    snap.committed_batches() >= last,
                    "snapshots must advance monotonically"
                );
                last = snap.committed_batches();
                seen.push((last, snap.edge_ids()));
            }
            seen
        });
        service.drain().unwrap();
        done.store(true, Ordering::Release);
        reader.join().expect("reader thread panicked")
    });

    for (committed, edge_ids) in observations {
        assert_eq!(
            &edge_ids, &expected[&committed],
            "snapshot at {committed} batches is not that committed prefix"
        );
    }
    // The last commit's publish lands before the drain returns.
    let last = service.snapshot();
    assert_eq!(last.committed_batches(), total);
    assert_eq!(&last.edge_ids(), &expected[&total]);

    // Draining many batches at once changes nothing that commits: journal
    // and final state equal the one-batch-per-drain twin's.
    assert_eq!(service.journal(), twin.journal());
    assert_eq!(service.snapshot().edge_ids(), twin.snapshot().edge_ids());
}

#[test]
fn commits_before_a_poison_batch_are_visible_when_the_drain_errors() {
    let service = parallel_service(&serve_workload(), 3);
    let pair = |id, a, b| Update::Insert(HyperEdge::pair(EdgeId(id), VertexId(a), VertexId(b)));
    service.submit(UpdateBatch::new(vec![pair(0, 0, 1)]).unwrap());
    service.submit(UpdateBatch::new(vec![Update::Delete(EdgeId(77))]).unwrap());
    service.submit(UpdateBatch::new(vec![pair(1, 2, 3)]).unwrap());
    let err = service.drain().unwrap_err();
    assert_eq!(err.committed, 1);
    // The batch committed before the poison is visible once the error returns.
    let snap = service.snapshot();
    assert_eq!(snap.committed_batches(), 1);
    assert_eq!(snap.edge_ids(), vec![EdgeId(0)]);
    // The tail drains normally afterwards.
    service.drain().unwrap();
    assert_eq!(service.snapshot().committed_batches(), 2);
}

/// Everything a snapshot answers, read through its public queries: every
/// vertex of the space plus `VertexId(n)` and `VertexId(u32::MAX)`, which lie
/// outside it.
#[derive(Debug, PartialEq)]
struct SnapshotRecord {
    committed: u64,
    size: usize,
    edge_ids: Vec<EdgeId>,
    endpoints: Vec<Vec<VertexId>>,
    matched_edge_of: Vec<Option<EdgeId>>,
    is_matched: Vec<bool>,
}

fn record(snapshot: &MatchingSnapshot, n: usize) -> SnapshotRecord {
    let edge_ids = snapshot.edge_ids();
    let probes: Vec<VertexId> = (0..=n as u32)
        .map(VertexId)
        .chain([VertexId(u32::MAX)])
        .collect();
    SnapshotRecord {
        committed: snapshot.committed_batches(),
        size: snapshot.size(),
        endpoints: edge_ids
            .iter()
            .map(|&id| {
                snapshot
                    .matched_endpoints(id)
                    .expect("listed ids are matched")
                    .to_vec()
            })
            .collect(),
        edge_ids,
        matched_edge_of: probes
            .iter()
            .map(|&v| snapshot.matched_edge_of(v))
            .collect(),
        is_matched: probes.iter().map(|&v| snapshot.is_matched(v)).collect(),
    }
}

#[test]
fn a_recycled_publish_equals_a_copied_one_and_held_snapshots_stay_frozen() {
    let workload = streams::random_churn(90, 3, 120, 40, 16, 0.5, 13);
    let n = workload.num_vertices;
    for kind in EngineKind::ALL {
        let builder = EngineBuilder::new(n).rank(3).seed(17);
        // `holding` keeps every snapshot it publishes, so each of its
        // publishes copies; `recycling` drops every snapshot once read, so
        // its publishes patch the replaced one in place; `mixed` holds every
        // other snapshot across the next two commits, the second of which
        // would recycle it, so its copies and patches alternate.
        let holding = EngineService::new(engine::build(kind, &builder));
        let recycling = EngineService::new(engine::build(kind, &builder));
        let mixed = EngineService::new(engine::build(kind, &builder));
        let mut held = vec![(holding.snapshot(), record(&holding.snapshot(), n))];
        let mut pinned = None;
        for (i, batch) in workload.batches.iter().enumerate() {
            for service in [&holding, &recycling, &mixed] {
                service.submit(batch.clone());
                service.drain().unwrap();
            }
            let snapshot = holding.snapshot();
            let expected = record(&snapshot, n);
            assert_eq!(expected.committed, i as u64 + 1, "{kind}");
            assert_eq!(expected.matched_edge_of[n], None, "{kind}: VertexId(n)");
            assert_eq!(expected.matched_edge_of[n + 1], None, "{kind}: u32::MAX");
            assert!(
                !expected.is_matched[n] && !expected.is_matched[n + 1],
                "{kind}"
            );
            assert_eq!(
                record(&recycling.snapshot(), n),
                expected,
                "{kind}, batch {i}: a recycled publish differs from a copied one"
            );
            assert_eq!(
                record(&mixed.snapshot(), n),
                expected,
                "{kind}, batch {i}: mixed publishing differs"
            );
            if i % 2 == 0 {
                pinned = Some(mixed.snapshot());
            }
            held.push((snapshot, expected));
        }
        drop(pinned);
        for (i, (snapshot, expected)) in held.iter().enumerate() {
            assert_eq!(
                &record(snapshot, n),
                expected,
                "{kind}: the snapshot held since commit {i} changed"
            );
        }
    }
}
