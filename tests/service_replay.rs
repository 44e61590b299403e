//! Serve-path integration suite: `pdmm::service::EngineService` across every
//! engine, at 1/2/8 threads (mirroring `engine_conformance`):
//!
//! * **journal → replay is bit-identical**: drain a churn workload through a
//!   service, replay its journal on a fresh engine of the same kind and seed,
//!   and the matching, committed count and metrics all match exactly;
//! * **lossy drain conforms**: on clean batches `drain_lossy` commits what
//!   plain `apply_batch` and the strict `drain` commit, report for report;
//! * **concurrent snapshot consistency**: readers on the in-tree work-stealing
//!   pool sample snapshots while batches commit; every observed snapshot must
//!   be exactly the (valid, maximal) matching of some committed prefix, and
//!   each reader's view must advance monotonically.

use pdmm::engine;
use pdmm::hypergraph::streams::{self, Workload};
use pdmm::hypergraph::verify_maximality;
use pdmm::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn serve_workload() -> Workload {
    streams::random_churn(120, 2, 200, 14, 40, 0.5, 23)
}

fn builder_for(workload: &Workload, seed: u64, threads: usize) -> EngineBuilder {
    EngineBuilder::new(workload.num_vertices)
        .rank(workload.rank.max(2))
        .seed(seed)
        .threads(threads)
}

#[test]
fn journal_then_replay_is_bit_identical_on_every_engine() {
    let workload = serve_workload();
    for threads in THREAD_COUNTS {
        for kind in EngineKind::ALL {
            let builder = builder_for(&workload, 7, threads);
            let service = EngineService::new(engine::build(kind, &builder));
            for batch in &workload.batches {
                service.submit(batch.clone());
                service.drain().unwrap_or_else(|e| {
                    panic!("{kind} at {threads} threads refused a generated batch: {e}")
                });
            }
            let live = service.snapshot();

            let journal = service.journal();
            let replayed = EngineService::replay(engine::build(kind, &builder), &journal)
                .unwrap_or_else(|e| panic!("{kind} could not replay its own journal: {e}"));
            let rebuilt = replayed.snapshot();
            assert_eq!(
                rebuilt.edge_ids(),
                live.edge_ids(),
                "{kind} at {threads} threads: replay must rebuild the exact matching"
            );
            assert_eq!(rebuilt.committed_batches(), live.committed_batches());
            assert_eq!(rebuilt.metrics(), live.metrics(), "{kind}");
            // Replay of a replayed journal is a fixed point.
            assert_eq!(replayed.journal(), journal, "{kind}");
        }
    }
}

#[test]
fn replay_on_a_different_engine_rebuilds_the_same_graph() {
    // The journal is engine-agnostic: replaying it on *any* engine yields a
    // valid maximal matching of the same final graph (matchings may differ).
    let workload = serve_workload();
    let builder = builder_for(&workload, 3, 1);
    let service = EngineService::new(engine::build(EngineKind::Parallel, &builder));
    for batch in &workload.batches {
        service.submit(batch.clone());
        service.drain().unwrap();
    }
    let journal = service.journal();

    let mut truth = DynamicHypergraph::new(workload.num_vertices);
    for batch in &workload.batches {
        truth.apply_batch(batch);
    }
    for kind in EngineKind::ALL {
        let replayed = EngineService::replay(engine::build(kind, &builder), &journal)
            .unwrap_or_else(|e| panic!("{kind} rejected the shared journal: {e}"));
        let ids = replayed.snapshot().edge_ids();
        assert_eq!(
            verify_maximality(&truth, &ids),
            Ok(()),
            "{kind} replayed to a non-maximal matching"
        );
    }
}

#[test]
fn lossy_drain_of_clean_batches_equals_plain_apply_batch_on_every_engine() {
    // On a clean stream the skip-and-report drain drops nothing, so it must
    // commit exactly what the engine's own `apply_batch` commits.
    let workload = serve_workload();
    for threads in THREAD_COUNTS {
        for kind in EngineKind::ALL {
            let builder = builder_for(&workload, 11, threads);
            let service = EngineService::new(engine::build(kind, &builder));
            let mut via_apply = engine::build(kind, &builder);
            for (i, batch) in workload.batches.iter().enumerate() {
                service.submit(batch.clone());
                let ingested = service.drain_lossy();
                assert_eq!(ingested.len(), 1, "{kind}: one batch in, one report out");
                assert_eq!(ingested[0].deduplicated, 0, "{kind}: batch {i} is clean");
                assert!(
                    ingested[0].rejected.is_empty(),
                    "{kind}: batch {i} is clean"
                );
                let plain = via_apply.apply_batch(batch).unwrap();
                assert_eq!(
                    ingested[0].batch, plain,
                    "{kind} at {threads} threads diverged on the report of batch {i}"
                );
            }
            let mut plain_ids = via_apply.matching_ids();
            plain_ids.sort_unstable();
            let snapshot = service.snapshot();
            assert_eq!(
                snapshot.edge_ids(),
                plain_ids,
                "{kind} at {threads} threads: the lossy drain changed the matching"
            );
            assert_eq!(snapshot.metrics(), via_apply.metrics(), "{kind}");
        }
    }
}

#[test]
fn one_lossy_drain_equals_one_strict_drain_on_every_engine() {
    // The degenerate boundary: the whole graph in one clean batch, drained
    // once strictly and once skip-and-report.
    let edges = pdmm::hypergraph::generators::gnm_graph(80, 300, 5, 0);
    let batch = UpdateBatch::new(edges.into_iter().map(Update::Insert).collect()).unwrap();
    for kind in EngineKind::ALL {
        let builder = EngineBuilder::new(80).seed(5);
        let strict = EngineService::new(engine::build(kind, &builder));
        let lossy = EngineService::new(engine::build(kind, &builder));
        strict.submit(batch.clone());
        lossy.submit(batch.clone());

        let strict_reports = strict.drain().unwrap();
        let lossy_reports = lossy.drain_lossy();
        assert_eq!(lossy_reports.len(), 1, "{kind}");
        assert_eq!(lossy_reports[0].offered(), batch.len(), "{kind}");
        assert_eq!(strict_reports, vec![lossy_reports[0].batch], "{kind}");
        assert_eq!(
            strict.snapshot().edge_ids(),
            lossy.snapshot().edge_ids(),
            "{kind}"
        );
        assert_eq!(
            strict.journal(),
            lossy.journal(),
            "{kind}: both drains journal the same batch"
        );
    }
}

/// The matching and graph after each committed prefix of the workload,
/// precomputed on a twin engine (every engine is deterministic given seed and
/// batch sequence, pinned by `engine_conformance` across thread counts).
struct PrefixStates {
    matchings: Vec<Vec<EdgeId>>,
    graphs: Vec<DynamicHypergraph>,
}

fn prefix_states(workload: &Workload, kind: EngineKind, builder: &EngineBuilder) -> PrefixStates {
    let mut engine = engine::build(kind, builder);
    let mut graph = DynamicHypergraph::new(workload.num_vertices);
    let mut matchings = vec![engine.matching_ids()];
    let mut graphs = vec![graph.clone()];
    for batch in &workload.batches {
        engine.apply_batch(batch).unwrap();
        graph.apply_batch(batch);
        let mut ids = engine.matching_ids();
        ids.sort_unstable();
        matchings.push(ids);
        graphs.push(graph.clone());
    }
    PrefixStates { matchings, graphs }
}

#[test]
fn concurrent_snapshot_reads_observe_only_committed_prefixes() {
    let workload = serve_workload();
    for threads in THREAD_COUNTS {
        for kind in [EngineKind::Parallel, EngineKind::NaiveSequential] {
            let builder = builder_for(&workload, 17, threads);
            let expected = prefix_states(&workload, kind, &builder);
            let service = EngineService::new(engine::build(kind, &builder));

            // Readers run on the in-tree work-stealing pool while this thread
            // submits and drains.  Each reader keeps its own observation log
            // so per-reader monotonicity can be checked afterwards.
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let done = AtomicBool::new(false);
            let logs: Mutex<Vec<Vec<Arc<MatchingSnapshot>>>> = Mutex::new(Vec::new());
            pool.scope(|s| {
                for _ in 0..2 {
                    s.spawn(|_| {
                        let mut log = Vec::new();
                        while !done.load(Ordering::Acquire) && log.len() < 50_000 {
                            log.push(service.snapshot());
                            std::thread::yield_now();
                        }
                        // If the observation cap hit first, wait out the
                        // remaining commits so the closing snapshot below is
                        // guaranteed to see the final one.
                        while !done.load(Ordering::Acquire) {
                            std::thread::yield_now();
                        }
                        log.push(service.snapshot());
                        logs.lock().unwrap().push(log);
                    });
                }
                for batch in &workload.batches {
                    service.submit(batch.clone());
                    service.drain().unwrap();
                }
                done.store(true, Ordering::Release);
            });

            let logs = logs.into_inner().unwrap();
            assert_eq!(logs.len(), 2, "both readers must report");
            let batches = workload.batches.len() as u64;
            for log in &logs {
                assert!(!log.is_empty());
                let mut last_seen = 0u64;
                for snapshot in log {
                    let k = snapshot.committed_batches();
                    assert!(
                        k <= batches,
                        "{kind} at {threads} threads: snapshot from the future ({k})"
                    );
                    assert!(
                        k >= last_seen,
                        "{kind} at {threads} threads: committed count went backwards"
                    );
                    last_seen = k;
                    let prefix = k as usize;
                    assert_eq!(
                        snapshot.edge_ids(),
                        expected.matchings[prefix],
                        "{kind} at {threads} threads: snapshot at prefix {prefix} is not \
                         the committed matching"
                    );
                    assert_eq!(
                        verify_maximality(&expected.graphs[prefix], &snapshot.edge_ids()),
                        Ok(()),
                        "{kind} at {threads} threads: snapshot at prefix {prefix} is not maximal"
                    );
                }
                // The final observation (taken after `done`) saw the last commit.
                assert_eq!(log.last().unwrap().committed_batches(), batches);
            }
        }
    }
}

#[test]
fn snapshot_vertex_lookup_agrees_with_the_edge_set() {
    let workload = serve_workload();
    let builder = builder_for(&workload, 29, 1);
    let service = EngineService::new(engine::build(EngineKind::Parallel, &builder));
    let mut truth = DynamicHypergraph::new(workload.num_vertices);
    for batch in &workload.batches {
        truth.apply_batch(batch);
        service.submit(batch.clone());
        service.drain().unwrap();
        let snapshot = service.snapshot();
        for id in snapshot.edges() {
            let edge = truth.edge(id).expect("matched edges are live");
            for &v in edge.vertices() {
                assert_eq!(snapshot.matched_edge_of(v), Some(id));
                assert!(snapshot.is_matched(v));
            }
        }
        for v in 0..workload.num_vertices as u32 {
            if let Some(id) = snapshot.matched_edge_of(VertexId(v)) {
                assert!(snapshot.contains_edge(id));
                assert!(truth.edge(id).unwrap().contains(VertexId(v)));
            }
        }
    }
}
