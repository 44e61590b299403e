//! Boundary-arbitration conformance suite: `ShardedSnapshot::arbitrated_matching`
//! across every engine and shard count.
//!
//! The contract under test (see `pdmm::sharding`):
//!
//! * **global validity + maximality**: on all five engines at 1/2/4/8 shards
//!   the arbitrated matching passes the exact audit the 1-shard conformance
//!   pin uses (`verify_maximality` against the journal-rebuilt global graph),
//!   and its post-arbitration conflict set is empty;
//! * **1-shard no-op**: with one shard the arbitration pass is bit-identical
//!   to the raw merged view of a bare `EngineService` and reports a no-op;
//! * **determinism**: identical runs produce identical `ArbitratedMatching`
//!   structures (not just sizes);
//! * **derived state**: replay and crash recovery (through a `FaultSink`
//!   torn journal) reproduce the arbitrated view bit-identically without
//!   persisting it;
//! * **router reconciliation**: rejected inserts and dropped poison
//!   sub-batches leave no phantom owner/cross entries behind a drain, and a
//!   rejection never drops the route of a re-insert still queued;
//! * **retained floor**: on a sparse skewed stream the arbitrated matching
//!   keeps at least 95% of the raw per-shard union's size.

use pdmm::checkpoint::FaultSink;
use pdmm::engine;
use pdmm::hypergraph::graph::DynamicHypergraph;
use pdmm::hypergraph::io;
use pdmm::hypergraph::sharding::RangePartitioner;
use pdmm::hypergraph::streams::{self, Workload};
use pdmm::prelude::*;
use pdmm::service::{JournalSink, MemoryJournal};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn shard_workload() -> Workload {
    streams::skewed_churn(96, 2, 140, 10, 36, 0.55, 2.0, 31)
}

fn builder_for(workload: &Workload, seed: u64) -> EngineBuilder {
    EngineBuilder::new(workload.num_vertices)
        .rank(workload.rank.max(2))
        .seed(seed)
}

fn build_shards(
    kind: EngineKind,
    builder: &EngineBuilder,
    shards: usize,
) -> Vec<Box<dyn MatchingEngine + Send>> {
    (0..shards).map(|_| engine::build(kind, builder)).collect()
}

fn mem() -> Box<dyn JournalSink> {
    Box::new(MemoryJournal::new())
}

/// Drives every batch through `service` (strict drains), returning the last
/// drain's arbitration report.
fn drive(service: &ShardedService, workload: &Workload) -> pdmm::sharding::ArbitrationReport {
    let mut last = pdmm::sharding::ArbitrationReport::default();
    for batch in &workload.batches {
        service.submit(batch.clone());
        let report = service
            .drain()
            .unwrap_or_else(|e| panic!("generated workload refused: {e}"));
        last = report.arbitration;
    }
    last
}

/// Every shard's matched edge ids, sorted: the union of the shard matchings
/// the arbitration starts from.
fn shard_union(snapshot: &ShardedSnapshot) -> Vec<EdgeId> {
    let mut ids: Vec<EdgeId> = (0..snapshot.num_shards())
        .flat_map(|k| snapshot.shard(k).edge_ids())
        .collect();
    ids.sort_unstable();
    ids
}

/// Rebuilds the global ground-truth graph from every shard's journal (edge
/// ids never collide across shards, so the per-shard streams compose).
fn global_graph(service: &ShardedService, num_vertices: usize) -> DynamicHypergraph {
    let mut graph = DynamicHypergraph::new(num_vertices);
    for k in 0..service.num_shards() {
        for batch in io::batches_from_string(&service.shard_journal(k)).unwrap() {
            graph.apply_batch(&batch);
        }
    }
    graph
}

// ---------------------------------------------------------------------------
// Validity + maximality, every engine, every shard count
// ---------------------------------------------------------------------------

#[test]
fn arbitrated_matching_is_valid_and_maximal_on_every_engine_and_shard_count() {
    let workload = shard_workload();
    let mut conflicts_seen = 0usize;
    for kind in EngineKind::ALL {
        for &shards in &SHARD_COUNTS {
            let builder = builder_for(&workload, 11);
            let service = ShardedService::new(build_shards(kind, &builder, shards));
            let last = drive(&service, &workload);
            let snapshot = service.snapshot();
            let arbitrated = snapshot.arbitrated_matching();

            // The same audit as the 1-shard conformance pin, but on the
            // *global* journal-rebuilt graph: live, pairwise-disjoint, and no
            // live edge with every endpoint uncovered.
            let graph = global_graph(&service, workload.num_vertices);
            verify_maximality(&graph, &arbitrated.edge_ids()).unwrap_or_else(|e| {
                panic!("{kind} at {shards} shards: arbitrated matching fails audit: {e:?}")
            });

            // Conflicted vertices are empty after arbitration — the tentpole
            // invariant, asserted on the real structure.
            assert_eq!(
                arbitrated.conflicted_vertices(),
                &[] as &[VertexId],
                "{kind} at {shards} shards"
            );

            // The report is consistent with the structure and the raw union.
            let report = arbitrated.report();
            assert_eq!(report, last, "{kind} at {shards} shards: snapshot/drain");
            assert_eq!(
                report.pre_size,
                shard_union(&snapshot).len(),
                "{kind}/{shards}"
            );
            assert_eq!(report.post_size, arbitrated.size(), "{kind}/{shards}");
            assert_eq!(
                report.stats.evicted_edges,
                arbitrated.evicted_edges().len(),
                "{kind}/{shards}"
            );
            assert_eq!(
                report.stats.repaired_edges,
                arbitrated.repaired_edges().len(),
                "{kind}/{shards}"
            );
            conflicts_seen += report.stats.conflicted_vertices;

            // Delta semantics: raw union − evicted + repaired = arbitrated.
            let mut expected: Vec<EdgeId> = shard_union(&snapshot)
                .into_iter()
                .filter(|id| arbitrated.evicted_edges().binary_search(id).is_err())
                .chain(arbitrated.repaired_edges().iter().copied())
                .collect();
            expected.sort_unstable();
            assert_eq!(arbitrated.edge_ids(), expected, "{kind}/{shards}");

            // The by-vertex index agrees with the edge set.
            for id in arbitrated.edge_ids() {
                assert!(arbitrated.contains_edge(id));
                for &v in graph.edge(id).unwrap().vertices() {
                    assert_eq!(
                        arbitrated.matched_edge_of(v),
                        Some(id),
                        "{kind}/{shards}: endpoint {v} of {id}"
                    );
                    assert!(arbitrated.is_matched(v));
                }
            }
        }
    }
    // The workload must actually exercise arbitration, or this suite is
    // vacuous: across engines and multi-shard runs some conflicts must arise.
    assert!(conflicts_seen > 0, "workload never produced a conflict");
}

// ---------------------------------------------------------------------------
// Retained floor
// ---------------------------------------------------------------------------

/// `retained` divides the arbitrated size by the raw per-shard union, which
/// holds matched edges of different shards that share a vertex, so it
/// measures how much the shards' matchings overlap.  The stream is sparse for
/// its vertex space, as a realistic conflict rate is, and the floor holds at
/// the shard counts below; denser streams or more shards can read lower
/// without any loss of quality.
#[test]
fn arbitration_keeps_the_retained_floor_on_a_sparse_skewed_stream() {
    let workload = streams::skewed_churn(8_192, 2, 300, 24, 24, 0.55, 2.0, 17);
    for kind in EngineKind::ALL {
        for shards in [1usize, 4] {
            let builder = builder_for(&workload, 17);
            let service = ShardedService::new(build_shards(kind, &builder, shards));
            let mut conflicts = 0usize;
            for chunk in workload.batches.chunks(32) {
                for batch in chunk {
                    service.submit(batch.clone());
                }
                let report = service
                    .drain()
                    .unwrap_or_else(|e| panic!("generated workload refused: {e}"));
                conflicts += report.arbitration.stats.conflicted_vertices;
            }
            let snapshot = service.snapshot();
            let arbitrated = snapshot.arbitrated_matching();
            assert_eq!(
                arbitrated.conflicted_vertices(),
                &[] as &[VertexId],
                "{kind} at {shards} shards"
            );
            let graph = global_graph(&service, workload.num_vertices);
            verify_maximality(&graph, &arbitrated.edge_ids()).unwrap_or_else(|e| {
                panic!("{kind} at {shards} shards: arbitrated matching fails audit: {e:?}")
            });
            if shards > 1 {
                assert!(
                    conflicts > 0,
                    "{kind} at {shards} shards: no raw conflict, so the floor is vacuous"
                );
            }
            let retained = arbitrated.report().retained();
            assert!(
                retained >= 0.95,
                "{kind} at {shards} shards: retained {retained:.4} below the 0.95 floor"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// 1-shard no-op pin
// ---------------------------------------------------------------------------

#[test]
fn one_shard_arbitration_is_a_bit_identical_noop() {
    let workload = shard_workload();
    for kind in EngineKind::ALL {
        let builder = builder_for(&workload, 7);
        let bare = EngineService::new(engine::build(kind, &builder));
        let sharded = ShardedService::new(build_shards(kind, &builder, 1));
        for batch in &workload.batches {
            bare.submit(batch.clone());
            bare.drain().unwrap();
            sharded.submit(batch.clone());
            let report = sharded.drain().unwrap();
            assert!(
                report.arbitration.stats.is_noop(),
                "{kind}: 1-shard arbitration must never conflict, evict or repair"
            );
        }
        let snapshot = sharded.snapshot();
        let arbitrated = snapshot.arbitrated_matching();
        // Bit-identical to the bare service's published matching.
        assert_eq!(arbitrated.edge_ids(), bare.snapshot().edge_ids(), "{kind}");
        assert_eq!(
            arbitrated.edge_ids(),
            snapshot.shard(0).edge_ids(),
            "{kind}"
        );
        assert!(arbitrated.evicted_edges().is_empty(), "{kind}");
        assert!(arbitrated.repaired_edges().is_empty(), "{kind}");
        let report = arbitrated.report();
        assert_eq!(report.pre_size, report.post_size, "{kind}");
        assert!((report.retained() - 1.0).abs() < f64::EPSILON, "{kind}");
        for v in (0..workload.num_vertices as u32).map(VertexId) {
            assert_eq!(
                arbitrated.matched_edge_of(v),
                bare.snapshot().matched_edge_of(v),
                "{kind}: vertex {v}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

#[test]
fn arbitration_is_deterministic_across_runs() {
    let workload = shard_workload();
    for kind in [EngineKind::Parallel, EngineKind::RandomReplace] {
        for &shards in &SHARD_COUNTS[1..] {
            let builder = builder_for(&workload, 5);
            let first = ShardedService::new(build_shards(kind, &builder, shards));
            drive(&first, &workload);
            let second = ShardedService::new(build_shards(kind, &builder, shards));
            drive(&second, &workload);
            // The whole structure — edges, delta, index, report — not just
            // the size.
            assert_eq!(
                *first.snapshot().arbitrated_matching(),
                *second.snapshot().arbitrated_matching(),
                "{kind} at {shards} shards: arbitration diverged across runs"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Derived state: replay and crash recovery
// ---------------------------------------------------------------------------

#[test]
fn replay_reproduces_the_arbitrated_view_bit_identically() {
    let workload = shard_workload();
    for &shards in &[2usize, 4] {
        let builder = builder_for(&workload, 5);
        let live = ShardedService::new(build_shards(EngineKind::Parallel, &builder, shards));
        drive(&live, &workload);
        let replayed = ShardedService::replay(
            build_shards(EngineKind::Parallel, &builder, shards),
            &live.journal(),
        )
        .unwrap();
        assert_eq!(
            *replayed.snapshot().arbitrated_matching(),
            *live.snapshot().arbitrated_matching(),
            "{shards} shards"
        );
    }
}

#[test]
fn crash_recovery_reproduces_the_arbitrated_view_through_a_torn_journal() {
    let workload = streams::random_churn(100, 2, 160, 12, 30, 0.5, 41);
    let batches: Vec<UpdateBatch> = workload
        .batches
        .iter()
        .filter(|b| !b.is_empty())
        .cloned()
        .collect();
    let mid = batches.len() / 2;
    let shards = 4usize;
    let builder = builder_for(&workload, 13);
    let engines = || build_shards(EngineKind::Parallel, &builder, shards);

    // Scout run: size the victim shard's journal so the kill point lands
    // strictly inside its post-checkpoint tail.
    let scout = ShardedService::new(engines());
    let mut victim_bytes_at_mid = 0u64;
    for (i, batch) in batches.iter().enumerate() {
        scout.submit(batch.clone());
        scout.drain().unwrap();
        if i + 1 == mid {
            victim_bytes_at_mid = io::journal_blocks(&scout.shard_journal(0))
                .iter()
                .map(|b| b.len() as u64 + 1)
                .sum();
        }
    }
    let victim_total: u64 = io::journal_blocks(&scout.shard_journal(0))
        .iter()
        .map(|b| b.len() as u64 + 1)
        .sum();
    assert!(victim_total > victim_bytes_at_mid + 1);
    let kill = victim_bytes_at_mid + (victim_total - victim_bytes_at_mid) / 2;

    // Real run: shard 0's journal tears mid-tail.
    let services: Vec<EngineService> = engines()
        .into_iter()
        .enumerate()
        .map(|(k, e)| {
            let service = EngineService::new(e);
            if k == 0 {
                service.with_journal(Box::new(FaultSink::torn_at_byte(mem(), kill)))
            } else {
                service
            }
        })
        .collect();
    let service =
        ShardedService::from_services(services, Box::new(pdmm::sharding::HashPartitioner));
    for batch in &batches[..mid] {
        service.submit(batch.clone());
        service.drain().unwrap();
    }
    let checkpoint = service.checkpoint().unwrap();
    for batch in &batches[mid..] {
        service.submit(batch.clone());
        service.drain().unwrap();
    }

    // "Crash": recover from checkpoint + surviving journals.
    let journals: Vec<String> = (0..shards).map(|k| service.shard_journal(k)).collect();
    let recovered = ShardedService::recover(
        engines(),
        Box::new(pdmm::sharding::HashPartitioner),
        &checkpoint,
        &journals,
        (0..shards).map(|_| mem()).collect(),
    )
    .unwrap_or_else(|e| panic!("kill at byte {kill}: {e}"));
    assert!(
        recovered.shard_snapshot(0).committed_batches()
            < service.shard_snapshot(0).committed_batches(),
        "the kill point must lose data"
    );

    // The arbitrated view was never persisted, yet recovery reproduces
    // exactly the view a clean replay of the recovered history computes.
    let twin = ShardedService::replay(engines(), &recovered.journal()).unwrap();
    assert_eq!(
        *recovered.snapshot().arbitrated_matching(),
        *twin.snapshot().arbitrated_matching(),
        "kill at byte {kill}"
    );
    // And it is a valid, maximal matching of the recovered global graph.
    let graph = global_graph(&recovered, workload.num_vertices);
    verify_maximality(
        &graph,
        &recovered.snapshot().arbitrated_matching().edge_ids(),
    )
    .unwrap_or_else(|e| panic!("kill at byte {kill}: recovered audit: {e:?}"));

    // Continued serving keeps the recovered and replayed arbitration in
    // lock-step.
    let extra = UpdateBatch::new(vec![Update::Insert(HyperEdge::pair(
        EdgeId(2_000_000),
        VertexId(0),
        VertexId(1),
    ))])
    .unwrap();
    recovered.submit(extra.clone());
    twin.submit(extra);
    recovered.drain().unwrap();
    twin.drain().unwrap();
    assert_eq!(
        *recovered.snapshot().arbitrated_matching(),
        *twin.snapshot().arbitrated_matching()
    );
}

// ---------------------------------------------------------------------------
// A hand-built conflict: award, evict, repair, exactly
// ---------------------------------------------------------------------------

#[test]
fn award_evict_repair_resolves_a_cross_shard_conflict_deterministically() {
    // RangePartitioner over 8 vertices, 2 shards: 0..4 → shard 0, 4..8 →
    // shard 1.  Edge 1 (2,4) is cross-shard, owned by shard 0; edge 2 (4,5)
    // is shard-1-local.  Both shards match their edge, so vertex 4 is
    // conflicted; the (owner shard, edge id) rule awards it to edge 1.
    let builder = EngineBuilder::new(8).seed(1);
    let service = ShardedService::with_partitioner(
        build_shards(EngineKind::Parallel, &builder, 2),
        Box::new(RangePartitioner::new(8)),
    );
    let pair = |id, a, b| Update::Insert(HyperEdge::pair(EdgeId(id), VertexId(a), VertexId(b)));
    service.submit(UpdateBatch::new(vec![pair(0, 0, 1), pair(1, 2, 4), pair(2, 4, 5)]).unwrap());
    let report = service.drain().unwrap();

    // Both shards matched over vertex 4, through cross-shard edge 1 and
    // shard-local edge 2, so the shard matchings together over-count.
    let snap = service.snapshot();
    assert_eq!(snap.shard(0).matched_edge_of(VertexId(4)), Some(EdgeId(1)));
    assert_eq!(snap.shard(1).matched_edge_of(VertexId(4)), Some(EdgeId(2)));
    assert!(service.is_cross_shard(EdgeId(1)));
    assert!(!service.is_cross_shard(EdgeId(0)));
    assert!(!service.is_cross_shard(EdgeId(2)));
    assert_eq!(
        report.arbitration.pre_size, 3,
        "the shard matchings over-count"
    );

    // Arbitrated view: edge 2 evicted (lost vertex 4), vertex 5 freed, no
    // repair possible yet (edge 2 itself is the only candidate and vertex 4
    // is claimed by the winner).
    let stats = report.arbitration.stats;
    assert_eq!(stats.conflicted_vertices, 1);
    assert_eq!(stats.evicted_edges, 1);
    assert_eq!(stats.freed_vertices, 1);
    assert_eq!(stats.repair_candidates, 1);
    assert_eq!(stats.repaired_edges, 0);
    let arbitrated = snap.arbitrated_matching();
    assert_eq!(arbitrated.edge_ids(), vec![EdgeId(0), EdgeId(1)]);
    assert_eq!(arbitrated.evicted_edges(), &[EdgeId(2)]);
    assert_eq!(arbitrated.matched_edge_of(VertexId(4)), Some(EdgeId(1)));
    assert!(!arbitrated.is_matched(VertexId(5)));

    // Edge 3 (5,6) gives the repair wave a candidate over freed vertex 5:
    // shard 1's engine cannot match it (its local matching still holds edge
    // 2 over vertex 5), but arbitration repairs it into the global view.
    service.submit(UpdateBatch::new(vec![pair(3, 5, 6)]).unwrap());
    let report = service.drain().unwrap();
    let stats = report.arbitration.stats;
    assert_eq!(stats.conflicted_vertices, 1);
    assert_eq!(stats.evicted_edges, 1);
    assert_eq!(stats.freed_vertices, 1);
    assert_eq!(stats.repair_candidates, 2, "edges 2 and 3 touch vertex 5");
    assert_eq!(stats.repaired_edges, 1);
    let snap = service.snapshot();
    let arbitrated = snap.arbitrated_matching();
    assert_eq!(arbitrated.edge_ids(), vec![EdgeId(0), EdgeId(1), EdgeId(3)]);
    assert_eq!(arbitrated.repaired_edges(), &[EdgeId(3)]);
    assert_eq!(arbitrated.matched_edge_of(VertexId(5)), Some(EdgeId(3)));
    assert!(arbitrated.contains_edge(EdgeId(3)));
    assert!(!arbitrated.contains_edge(EdgeId(2)));
    assert_eq!(arbitrated.report().pre_size, 3);
    assert_eq!(arbitrated.report().post_size, 3);
    assert!((arbitrated.report().retained() - 1.0).abs() < f64::EPSILON);

    // The arbitrated matching is valid and maximal on the global graph even
    // though no shard's local matching is.
    let graph = global_graph(&service, 8);
    verify_maximality(&graph, &arbitrated.edge_ids()).unwrap();
}

// ---------------------------------------------------------------------------
// Router reconciliation (satellite: exact boundary sets)
// ---------------------------------------------------------------------------

#[test]
fn rejected_inserts_leave_no_phantom_router_entries_after_a_lossy_drain() {
    // Vertex 9 is out of the 8-vertex space: the insert is context-free
    // valid, routes (recording a provisional owner), and is rejected at the
    // engine.  The lossy drain must reconcile the entry away.
    let builder = EngineBuilder::new(8).seed(4);
    let service = ShardedService::with_partitioner(
        build_shards(EngineKind::Parallel, &builder, 2),
        Box::new(RangePartitioner::new(8)),
    );
    let pair = |id, a, b| Update::Insert(HyperEdge::pair(EdgeId(id), VertexId(a), VertexId(b)));
    service.submit(UpdateBatch::new(vec![pair(0, 0, 1), pair(1, 2, 9)]).unwrap());
    assert_eq!(
        service.owner_of_edge(EdgeId(1)),
        Some(0),
        "routed in flight"
    );
    let report = service.drain_lossy();
    assert_eq!(report.rejected, 1);
    assert_eq!(service.owner_of_edge(EdgeId(0)), Some(0));
    assert_eq!(
        service.owner_of_edge(EdgeId(1)),
        None,
        "rejected insert must not linger in the router"
    );
    assert!(!service.is_cross_shard(EdgeId(1)));

    // A rejected *re*-insert of a live id keeps the holder's entry (the
    // original insert still stands) — the regression pin from the routing
    // suite, now under reconciliation.
    service.submit(UpdateBatch::new(vec![pair(0, 5, 6)]).unwrap());
    let report = service.drain_lossy();
    assert_eq!(report.rejected, 1);
    assert_eq!(service.owner_of_edge(EdgeId(0)), Some(0));
}

#[test]
fn a_lossy_drain_keeps_the_route_of_a_reinsert_queued_behind_a_rejection() {
    // Shard 0 rejects an insert of X (an endpoint out of range) while shard 1
    // is still committing 8,000 local inserts.  Meanwhile a valid insert of X
    // follows X's route onto shard 0's queue.  Reconciling the rejection must
    // keep that route: without it the re-insert commits with no route, and a
    // later insert of X with other endpoints is accepted on a second shard.
    let n = 100_000u32;
    let builder = EngineBuilder::new(n as usize).seed(9);
    let service = ShardedService::new(build_shards(EngineKind::Parallel, &builder, 2));
    let mut on_shard: [Vec<VertexId>; 2] = [Vec::new(), Vec::new()];
    for v in (0..n).map(VertexId) {
        on_shard[service.shard_of_vertex(v)].push(v);
    }
    let pair =
        |id: u64, a: VertexId, b: VertexId| Update::Insert(HyperEdge::pair(EdgeId(id), a, b));
    let x = EdgeId(0);
    let mut updates = vec![pair(x.0, on_shard[0][0], VertexId(n + 7))];
    updates.extend(
        on_shard[1]
            .chunks_exact(2)
            .take(8_000)
            .zip(1..)
            .map(|(ends, id)| pair(id, ends[0], ends[1])),
    );
    service
        .try_submit(UpdateBatch::new(updates).unwrap())
        .unwrap();
    std::thread::scope(|scope| {
        let drainer = scope.spawn(|| service.drain_lossy());
        while service.shard_snapshot(0).committed_batches() < 1 {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_micros(300));
        let reinsert = pair(x.0, on_shard[0][1], on_shard[0][2]);
        service
            .try_submit(UpdateBatch::new(vec![reinsert]).unwrap())
            .unwrap();
        assert_eq!(drainer.join().unwrap().rejected, 1);
    });
    assert_eq!(service.drain_lossy().rejected, 0);
    assert_eq!(service.owner_of_edge(x), Some(0), "X is live on shard 0");

    // X is live on shard 0, so an insert of X with shard-1 endpoints goes to
    // its holder and is rejected there, never committed on shard 1.
    let moved = pair(x.0, on_shard[1][0], on_shard[1][2]);
    service
        .try_submit(UpdateBatch::new(vec![moved]).unwrap())
        .unwrap();
    let report = service.drain_lossy();
    assert_eq!(report.rejected, 1);
    let on_holder: Vec<&BatchError> = report.per_shard[0]
        .iter()
        .flat_map(|r| r.rejected.iter().map(|rejected| &rejected.error))
        .collect();
    assert_eq!(on_holder, [&BatchError::DuplicateEdgeId { id: x }]);
    assert_eq!(service.owner_of_edge(x), Some(0));
}

#[test]
fn a_dropped_poison_sub_batch_is_reconciled_out_of_the_router() {
    let builder = EngineBuilder::new(8).seed(6);
    let service = ShardedService::with_partitioner(
        build_shards(EngineKind::Parallel, &builder, 2),
        Box::new(RangePartitioner::new(8)),
    );
    let pair = |id, a, b| Update::Insert(HyperEdge::pair(EdgeId(id), VertexId(a), VertexId(b)));
    service.submit(UpdateBatch::new(vec![pair(0, 0, 1)]).unwrap());
    service.drain().unwrap();

    // A poison sub-batch on shard 0: the unknown deletion fails validation,
    // so the whole sub-batch — including the delete of live edge 0 and the
    // insert of edge 5 — is dropped.  Routing had already removed edge 0's
    // entry and recorded edge 5's; both must be reconciled back to what the
    // shard actually holds.
    service.submit(
        UpdateBatch::new(vec![
            Update::Delete(EdgeId(0)),
            pair(5, 2, 3),
            Update::Delete(EdgeId(99)),
        ])
        .unwrap(),
    );
    let err = service.drain().unwrap_err();
    assert_eq!(err.shard, 0);
    assert_eq!(
        service.owner_of_edge(EdgeId(5)),
        None,
        "insert from the dropped sub-batch must not linger"
    );
    assert_eq!(
        service.owner_of_edge(EdgeId(0)),
        Some(0),
        "entry removed by the dropped deletion must be restored"
    );
    // The restored entry routes like day one: deleting edge 0 still follows
    // the holder, and re-inserting id 5 is a fresh insert.
    service.submit(UpdateBatch::new(vec![Update::Delete(EdgeId(0)), pair(5, 2, 3)]).unwrap());
    service.drain().unwrap();
    assert_eq!(service.owner_of_edge(EdgeId(0)), None);
    assert_eq!(service.owner_of_edge(EdgeId(5)), Some(0));
    assert_eq!(shard_union(&service.snapshot()), vec![EdgeId(5)]);
}
