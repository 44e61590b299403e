//! Sharded-serving-layer conformance suite: `pdmm::sharding::ShardedService`
//! across every engine.
//!
//! * **1-shard conformance**: a 1-shard `ShardedService` is bit-identical to a
//!   bare `EngineService` — same per-batch reports, same snapshot (matching,
//!   metrics, committed count), same journal;
//! * **N-shard validity**: at 2/4/8 shards every shard's matching is a valid,
//!   maximal matching of exactly that shard's routed edges, the router's
//!   cross-shard flags agree with the partitioner, and the arbitration's
//!   conflict count is the number of vertices matched by more than one
//!   shard;
//! * **determinism and replay**: the same stream routed at any shard count
//!   yields identical per-shard journals across runs, and
//!   `ShardedService::replay` of the shard-tagged journal rebuilds
//!   bit-identical per-shard state and routes (and is a fixed point of
//!   `journal()`);
//! * **routing semantics**: cross-shard updates land on the owner shard
//!   (minimum endpoint), deletions follow the edge, unroutable deletions
//!   surface the same typed error a single service reports;
//! * **admission**: `try_submit` is all-or-nothing, and a blocked `submit`
//!   routes nothing until it enqueues, so no later submission overtakes it.

use pdmm::engine;
use pdmm::hypergraph::graph::DynamicHypergraph;
use pdmm::hypergraph::io;
use pdmm::hypergraph::sharding::RangePartitioner;
use pdmm::hypergraph::streams::{self, Workload};
use pdmm::hypergraph::verify_maximality;
use pdmm::prelude::*;
use pdmm::sharding::ShardedReplayError;
use std::collections::HashMap;
use std::time::{Duration, Instant};

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

/// Every shard's matched edge ids, sorted: the union of the shard matchings.
fn shard_union(snapshot: &ShardedSnapshot) -> Vec<EdgeId> {
    let mut ids: Vec<EdgeId> = (0..snapshot.num_shards())
        .flat_map(|k| snapshot.shard(k).edge_ids())
        .collect();
    ids.sort_unstable();
    ids
}

/// Drives every batch of `workload` through `service`, draining after each
/// submission, and returns the per-shard reports in commit order.
fn drive(service: &ShardedService, workload: &Workload) -> Vec<Vec<BatchReport>> {
    let mut per_shard = vec![Vec::new(); service.num_shards()];
    for batch in &workload.batches {
        service.submit(batch.clone());
        let report = service
            .drain()
            .unwrap_or_else(|e| panic!("generated workload refused: {e}"));
        for (shard, reports) in report.per_shard.into_iter().enumerate() {
            per_shard[shard].extend(reports);
        }
    }
    per_shard
}

#[test]
fn one_shard_is_bit_identical_to_a_bare_engine_service() {
    let workload = shard_workload();
    for kind in EngineKind::ALL {
        let builder = builder_for(&workload, 7);

        let bare = EngineService::new(engine::build(kind, &builder));
        let mut bare_reports = Vec::new();
        for batch in &workload.batches {
            bare.submit(batch.clone());
            bare_reports.extend(bare.drain().unwrap());
        }

        let sharded = ShardedService::new(build_shards(kind, &builder, 1));
        let sharded_reports = drive(&sharded, &workload);

        // Reports, batch by batch.
        assert_eq!(
            sharded_reports[0], bare_reports,
            "{kind}: per-batch reports"
        );
        // Snapshots: matching, metrics, committed count.
        let a = bare.snapshot();
        let b = sharded.shard_snapshot(0);
        assert_eq!(b.edge_ids(), a.edge_ids(), "{kind}: matching");
        assert_eq!(b.metrics(), a.metrics(), "{kind}: metrics");
        assert_eq!(b.committed_batches(), a.committed_batches(), "{kind}");
        let merged = sharded.snapshot();
        let arbitrated = merged.arbitrated_matching();
        assert_eq!(arbitrated.edge_ids(), a.edge_ids(), "{kind}: merged view");
        assert_eq!(merged.metrics(), a.metrics(), "{kind}");
        assert!(a.edges().all(|id| !sharded.is_cross_shard(id)), "{kind}");
        assert!(arbitrated.report().stats.is_noop(), "{kind}");
        // Journals: the per-shard journal is the bare journal, bit for bit.
        assert_eq!(sharded.shard_journal(0), bare.journal(), "{kind}: journal");
    }
}

#[test]
fn n_shard_matchings_are_valid_and_maximal_per_shard() {
    let workload = shard_workload();
    for kind in EngineKind::ALL {
        for &shards in &SHARD_COUNTS[1..] {
            let builder = builder_for(&workload, 11);
            let service = ShardedService::new(build_shards(kind, &builder, shards));
            drive(&service, &workload);
            let snapshot = service.snapshot();

            // Rebuild each shard's ground-truth graph from its journal and
            // verify its matching is valid and maximal on exactly its edges.
            let mut total = 0usize;
            let mut live_edges: HashMap<EdgeId, HyperEdge> = HashMap::new();
            let mut matched_shards_of: HashMap<VertexId, usize> = HashMap::new();
            for k in 0..shards {
                let mut graph = DynamicHypergraph::new(workload.num_vertices);
                for batch in io::batches_from_string(&service.shard_journal(k)).unwrap() {
                    graph.apply_batch(&batch);
                }
                let shard_snapshot = snapshot.shard(k);
                let matching = shard_snapshot.edge_ids();
                verify_maximality(&graph, &matching).unwrap_or_else(|e| {
                    panic!("{kind} shard {k}/{shards}: invalid shard matching: {e:?}")
                });
                total += matching.len();
                for edge in graph.edges() {
                    live_edges.insert(edge.id, edge.clone());
                }
                let mut vertices: Vec<VertexId> = shard_snapshot.matched_vertices().collect();
                vertices.sort_unstable();
                for v in vertices {
                    *matched_shards_of.entry(v).or_insert(0) += 1;
                }
            }
            let report = snapshot.arbitrated_matching().report();
            assert_eq!(report.pre_size, total, "{kind} at {shards} shards");

            // Every routed edge lives in exactly one shard (ids never collide
            // across shard graphs — checked implicitly by the insert above
            // succeeding per shard — and the owner is the min endpoint).
            for (id, edge) in &live_edges {
                let owner = service
                    .owner_of_edge(*id)
                    .unwrap_or_else(|| panic!("{kind}: live edge {id} has no owner"));
                assert_eq!(
                    owner,
                    service.shard_of_vertex(edge.vertices()[0]),
                    "{kind}: owner is the shard of the min endpoint"
                );
            }

            // Cross-shard accounting: the router flags a live edge
            // cross-shard exactly when its endpoints span shards, and the
            // conflict count is the number of vertices matched by more than
            // one shard.
            for (id, edge) in &live_edges {
                let owner = service.shard_of_vertex(edge.vertices()[0]);
                let spans = edge
                    .vertices()
                    .iter()
                    .any(|&v| service.shard_of_vertex(v) != owner);
                assert_eq!(
                    service.is_cross_shard(*id),
                    spans,
                    "{kind}: edge {id}'s cross-shard flag"
                );
            }
            let conflicts = matched_shards_of.values().filter(|&&n| n > 1).count();
            assert_eq!(
                report.stats.conflicted_vertices, conflicts,
                "{kind} at {shards} shards"
            );
            // A conflicted vertex can only arise through a cross-shard edge.
            let cross_matched = (0..shards)
                .flat_map(|k| snapshot.shard(k).edge_ids())
                .any(|id| service.is_cross_shard(id));
            if !cross_matched {
                assert_eq!(conflicts, 0, "{kind}");
            }
        }
    }
}

#[test]
fn same_stream_routes_identically_across_runs_and_replays_bit_identically() {
    let workload = shard_workload();
    for &shards in &SHARD_COUNTS {
        let builder = builder_for(&workload, 5);
        let first = ShardedService::new(build_shards(EngineKind::Parallel, &builder, shards));
        drive(&first, &workload);
        let second = ShardedService::new(build_shards(EngineKind::Parallel, &builder, shards));
        drive(&second, &workload);

        // Identical per-shard journals across runs — routing is deterministic.
        for k in 0..shards {
            assert_eq!(
                first.shard_journal(k),
                second.shard_journal(k),
                "shard {k}/{shards}: journals diverged across identical runs"
            );
        }
        let journal = first.journal();
        assert_eq!(journal, second.journal(), "{shards} shards");

        // Replay of the shard-tagged journal rebuilds bit-identical state.
        let replayed = ShardedService::replay(
            build_shards(EngineKind::Parallel, &builder, shards),
            &journal,
        )
        .unwrap_or_else(|e| panic!("{shards} shards: replay failed: {e}"));
        for k in 0..shards {
            let live = first.shard_snapshot(k);
            let rebuilt = replayed.shard_snapshot(k);
            assert_eq!(rebuilt.edge_ids(), live.edge_ids(), "shard {k}/{shards}");
            assert_eq!(rebuilt.metrics(), live.metrics(), "shard {k}/{shards}");
            assert_eq!(
                rebuilt.committed_batches(),
                live.committed_batches(),
                "shard {k}/{shards}"
            );
        }
        let live = first.snapshot();
        let rebuilt = replayed.snapshot();
        assert_eq!(rebuilt.arbitrated_matching(), live.arbitrated_matching());
        // The rebuilt router owns and flags every matched edge as the live
        // one does.
        for id in shard_union(&live) {
            assert_eq!(replayed.owner_of_edge(id), first.owner_of_edge(id));
            assert_eq!(replayed.is_cross_shard(id), first.is_cross_shard(id));
        }
        // Replaying a journal reproduces the journal itself.
        assert_eq!(replayed.journal(), journal, "{shards} shards");
    }
}

#[test]
fn routing_classifies_local_and_cross_shard_updates() {
    // RangePartitioner over 8 vertices and 2 shards: vertices 0..4 → shard 0,
    // 4..8 → shard 1, so placement is easy to reason about.
    let builder = EngineBuilder::new(8).seed(1);
    let service = ShardedService::with_partitioner(
        build_shards(EngineKind::Parallel, &builder, 2),
        Box::new(RangePartitioner::new(8)),
    );
    assert_eq!(service.num_shards(), 2);
    assert_eq!(service.num_vertices(), 8);
    assert_eq!(service.shard_of_vertex(VertexId(3)), 0);
    assert_eq!(service.shard_of_vertex(VertexId(4)), 1);
    assert!(service.contains_vertex(VertexId(7)));
    assert!(!service.contains_vertex(VertexId(8)));

    let pair = |id, a, b| Update::Insert(HyperEdge::pair(EdgeId(id), VertexId(a), VertexId(b)));
    // Edge 0: shard-local on 0.  Edge 1: cross, owned by shard 0 (min endpoint
    // 1).  Edge 2: shard-local on 1.
    let routed = service
        .submit(UpdateBatch::new(vec![pair(0, 0, 1), pair(1, 1, 6), pair(2, 4, 5)]).unwrap());
    assert_eq!(routed.per_shard, vec![2, 1]);
    assert_eq!(routed.cross_shard, 1);
    assert_eq!(routed.routed(), 3);
    assert_eq!(routed.sub_batches(), 2);
    let report = service.drain().unwrap();
    assert_eq!(report.committed, 2);
    let shard_sizes: usize = (0..2).map(|k| service.shard_snapshot(k).size()).sum();
    assert_eq!(report.arbitration.pre_size, shard_sizes);
    assert_eq!(service.owner_of_edge(EdgeId(1)), Some(0));
    assert_eq!(service.owner_of_edge(EdgeId(2)), Some(1));
    assert!(service.is_cross_shard(EdgeId(1)));
    assert!(!service.is_cross_shard(EdgeId(0)));

    // The deletion of the cross-shard edge follows the edge to shard 0.
    let routed = service.submit(UpdateBatch::new(vec![Update::Delete(EdgeId(1))]).unwrap());
    assert_eq!(routed.per_shard, vec![1, 0]);
    assert_eq!(routed.cross_shard, 1);
    service.drain().unwrap();
    assert_eq!(service.owner_of_edge(EdgeId(1)), None);
    assert!(!service.is_cross_shard(EdgeId(1)));
    let snap = service.snapshot();
    let arbitrated = snap.arbitrated_matching();
    assert_eq!(arbitrated.edge_ids(), vec![EdgeId(0), EdgeId(2)]);
    assert_eq!(arbitrated.matched_edge_of(VertexId(4)), Some(EdgeId(2)));
    assert!(arbitrated.is_matched(VertexId(0)));
    assert!(!arbitrated.is_matched(VertexId(6)));

    // An empty batch is a counted no-op on shard 0, like a bare service.
    let before = service.shard_snapshot(0).committed_batches();
    service.submit(UpdateBatch::empty());
    service.drain().unwrap();
    assert_eq!(service.shard_snapshot(0).committed_batches(), before + 1);
}

#[test]
fn reinserting_a_live_id_is_rejected_on_its_holder_never_double_inserted() {
    // Range partitioning over 8 vertices, 2 shards.  Edge 0 lives on shard 0;
    // a batch re-inserting id 0 with endpoints owned by shard 1 is
    // context-free valid (constructors assume ids fresh), so only routing can
    // uphold the never-double-inserted invariant: the insert must go to the
    // *holder*, whose engine rejects it exactly like a bare service.
    let builder = EngineBuilder::new(8).seed(4);
    let service = ShardedService::with_partitioner(
        build_shards(EngineKind::Parallel, &builder, 2),
        Box::new(RangePartitioner::new(8)),
    );
    let pair = |id, a, b| Update::Insert(HyperEdge::pair(EdgeId(id), VertexId(a), VertexId(b)));
    service.submit(UpdateBatch::new(vec![pair(0, 0, 1)]).unwrap());
    service.drain().unwrap();

    // Strict drain: the duplicate goes to shard 0 (the holder), which refuses
    // it with the bare-service error; shard 1 never sees id 0.
    let routed = service.submit(UpdateBatch::new(vec![pair(0, 5, 6)]).unwrap());
    assert_eq!(routed.per_shard, vec![1, 0], "routed to the holder");
    let err = service.drain().unwrap_err();
    assert_eq!(err.shard, 0);
    assert_eq!(
        err.error.error,
        BatchError::DuplicateEdgeId { id: EdgeId(0) }
    );
    assert_eq!(service.owner_of_edge(EdgeId(0)), Some(0));
    let snap = service.snapshot();
    assert_eq!(
        shard_union(&snap),
        vec![EdgeId(0)],
        "the id exists exactly once"
    );
    assert_eq!(snap.shard(1).size(), 0);

    // Lossy drain: same routing, reported instead of poisoning.
    service.submit(UpdateBatch::new(vec![pair(0, 5, 6), pair(1, 4, 5)]).unwrap());
    let report = service.drain_lossy();
    assert_eq!(report.rejected, 1);
    assert_eq!(
        report.per_shard[0][0].rejected[0].error,
        BatchError::DuplicateEdgeId { id: EdgeId(0) }
    );
    // The legitimate insert landed; the duplicate did not.
    let snap = service.snapshot();
    assert_eq!(shard_union(&snap), vec![EdgeId(0), EdgeId(1)]);
    // Deleting id 0 still follows the (single) holder.
    let routed = service.submit(UpdateBatch::new(vec![Update::Delete(EdgeId(0))]).unwrap());
    assert_eq!(routed.per_shard, vec![1, 0]);
    service.drain().unwrap();
    assert_eq!(shard_union(&service.snapshot()), vec![EdgeId(1)]);
}

#[test]
fn a_failed_shard_drain_still_reports_its_prior_commits() {
    let builder = EngineBuilder::new(8).seed(6);
    let service = ShardedService::new(build_shards(EngineKind::Parallel, &builder, 2));
    let pair = |id, a, b| Update::Insert(HyperEdge::pair(EdgeId(id), VertexId(a), VertexId(b)));
    // Two good batches, then a poison deletion (routes to shard 0), then the
    // good tail: the error's partial report must include every commit, on the
    // failing shard too.
    service.submit(UpdateBatch::new(vec![pair(0, 0, 1), pair(1, 2, 3)]).unwrap());
    service.submit(UpdateBatch::new(vec![pair(2, 4, 5)]).unwrap());
    service.submit(UpdateBatch::new(vec![Update::Delete(EdgeId(50))]).unwrap());
    let err = service.drain().unwrap_err();
    assert_eq!(err.shard, 0);
    assert_eq!(
        err.error.error,
        BatchError::UnknownDeletion { id: EdgeId(50) }
    );
    assert_eq!(err.error.reports.len(), err.error.committed);
    let committed_everywhere: usize = err.partial.per_shard.iter().map(Vec::len).sum();
    assert_eq!(
        committed_everywhere, err.partial.committed,
        "partial report is internally consistent"
    );
    // Every sub-batch of the two good batches committed somewhere.
    let committed_updates: u64 = err.partial.metrics.updates;
    assert_eq!(committed_updates, 3, "all three inserts committed");
}

#[test]
fn unroutable_deletions_surface_the_same_typed_error() {
    let builder = EngineBuilder::new(16).seed(2);
    let service = ShardedService::new(build_shards(EngineKind::Parallel, &builder, 4));
    let pair = |id, a, b| Update::Insert(HyperEdge::pair(EdgeId(id), VertexId(a), VertexId(b)));
    service.submit(UpdateBatch::new(vec![pair(0, 0, 1)]).unwrap());
    service.drain().unwrap();

    // Deleting an id nobody inserted routes deterministically to shard 0 and
    // fails there with the exact error a bare service reports.
    service.submit(UpdateBatch::new(vec![Update::Delete(EdgeId(99))]).unwrap());
    let err = service.drain().unwrap_err();
    assert_eq!(err.shard, 0);
    assert_eq!(
        err.error.error,
        BatchError::UnknownDeletion { id: EdgeId(99) }
    );
    assert!(err.to_string().contains("shard 0"), "{err}");
    // Per-shard atomicity: nothing else was affected, and the service keeps
    // serving.
    assert_eq!(service.snapshot().arbitrated_matching().size(), 1);
    service.submit(UpdateBatch::new(vec![pair(1, 2, 3)]).unwrap());
    service.drain().unwrap();
    assert_eq!(service.snapshot().arbitrated_matching().size(), 2);
}

#[test]
fn sharded_drain_lossy_skips_and_merges_reports() {
    let workload = shard_workload();
    for &shards in &[1usize, 4] {
        let builder = builder_for(&workload, 13);
        let service = ShardedService::new(build_shards(EngineKind::Parallel, &builder, shards));
        let mut rejected = 0usize;
        for batch in &workload.batches {
            service.submit(batch.clone());
            // Poison riders: unknown deletions are context-free-valid, so
            // they pass UpdateBatch::new but must be skipped at drain.
            service.submit(UpdateBatch::new(vec![Update::Delete(EdgeId(1_000_000))]).unwrap());
            let report = service.drain_lossy();
            rejected += report.rejected;
            assert_eq!(report.deduplicated, 0);
        }
        assert_eq!(rejected, workload.batches.len(), "{shards} shards");

        // The lossy drain committed exactly the clean stream: snapshot and
        // journals match a strict twin's.
        let twin = ShardedService::new(build_shards(EngineKind::Parallel, &builder, shards));
        drive(&twin, &workload);
        assert_eq!(
            shard_union(&service.snapshot()),
            shard_union(&twin.snapshot()),
            "{shards} shards"
        );
        for k in 0..shards {
            assert_eq!(
                service.shard_journal(k),
                twin.shard_journal(k),
                "shard {k}/{shards}: lossy journal must hold the survivors"
            );
        }
    }
}

#[test]
fn replay_rejects_malformed_and_mismatched_journals() {
    let builder = EngineBuilder::new(8).seed(3);
    assert!(matches!(
        ShardedService::replay(build_shards(EngineKind::Parallel, &builder, 2), "* junk"),
        Err(ShardedReplayError::Parse(_))
    ));
    // A tag beyond the engine count.
    let err = ShardedService::replay(
        build_shards(EngineKind::Parallel, &builder, 2),
        "@ 5\n+ 0 1 2\n",
    )
    .unwrap_err();
    assert_eq!(
        err,
        ShardedReplayError::ShardOutOfRange {
            shard: ShardId(5),
            num_shards: 2
        }
    );
    assert!(err.to_string().contains("shard s5"), "{err}");
    // A journal whose batch the shard refuses (deletes a never-inserted id).
    let err = ShardedService::replay(
        build_shards(EngineKind::Parallel, &builder, 2),
        "@ 1\n- 7\n",
    )
    .unwrap_err();
    assert!(
        matches!(&err, ShardedReplayError::Shard { shard: 1, error }
            if error.error == BatchError::UnknownDeletion { id: EdgeId(7) }),
        "{err}"
    );
}

/// `try_submit` is all-or-nothing: a bounce enqueues nothing anywhere, leaves
/// no router trace, and hands the batch back in its exact submission order —
/// even though routing had already split it across shards.
#[test]
fn try_submit_is_all_or_nothing_and_hands_the_batch_back_intact() {
    let n = 8;
    let engine = || engine::build(EngineKind::Parallel, &EngineBuilder::new(n).seed(2));
    let services = vec![
        EngineService::with_queue_capacity(engine(), 1),
        EngineService::with_queue_capacity(engine(), 1),
    ];
    // RangePartitioner: vertices 0..4 on shard 0, 4..8 on shard 1.
    let service = ShardedService::from_services(services, Box::new(RangePartitioner::new(n)));
    let insert = |id: u64, a: u32, b: u32| {
        Update::Insert(HyperEdge::pair(EdgeId(id), VertexId(a), VertexId(b)))
    };
    // Interleave shard-0 and shard-1 updates so order restoration is visible.
    let batch_a = UpdateBatch::new(vec![
        insert(0, 0, 1),
        insert(1, 4, 5),
        insert(2, 2, 3),
        insert(3, 6, 7),
    ])
    .unwrap();
    let batch_b = UpdateBatch::new(vec![
        insert(10, 4, 5),
        insert(11, 0, 1),
        insert(12, 6, 7),
        insert(13, 2, 3),
    ])
    .unwrap();

    let report = service.try_submit(batch_a.clone()).unwrap();
    assert_eq!(report.per_shard, vec![2, 2]);

    // Both queues are now at capacity 1: the second batch must bounce whole.
    let bounced = service.try_submit(batch_b.clone()).unwrap_err();
    assert_eq!(
        bounced.updates(),
        batch_b.updates(),
        "original order restored"
    );
    assert_eq!(service.queue_len(), 2, "nothing was enqueued");
    assert_eq!(service.owner_of_edge(EdgeId(10)), None, "no router trace");
    assert_eq!(service.owner_of_edge(EdgeId(0)), Some(0));

    // Partially-full is still a bounce: fill only shard 0, then try a batch
    // needing both shards — shard 1's queue must stay untouched.
    service.drain().unwrap();
    let report = service
        .try_submit(UpdateBatch::new(vec![insert(20, 0, 2)]).unwrap())
        .unwrap();
    assert_eq!(report.per_shard, vec![1, 0]);
    let bounced = service.try_submit(bounced).unwrap_err();
    assert_eq!(service.queue_len(), 1, "shard 1 must not keep a sub-batch");

    // With room everywhere the same batch is admitted and commits.
    service.drain().unwrap();
    let report = service.try_submit(bounced).unwrap();
    assert_eq!(report.per_shard, vec![2, 2]);
    service.drain().unwrap();
    // Every admitted sub-batch committed: 2 (batch A) + 1 + 2 (batch B).
    assert_eq!(service.snapshot().committed_batches(), 5);
    for id in [0u64, 1, 2, 3, 10, 11, 12, 13, 20] {
        assert!(service.owner_of_edge(EdgeId(id)).is_some(), "edge {id}");
    }
    // Edges 10–13 duplicate the matched vertex pairs of 0–3, so the maximal
    // matching is still exactly the first batch.
    let ids: Vec<u64> = shard_union(&service.snapshot())
        .iter()
        .map(|e| e.0)
        .collect();
    assert_eq!(ids, vec![0, 1, 2, 3]);
}

/// A `submit` blocked on a full shard has routed nothing yet, so a later
/// submission cannot overtake it: a deletion of X, sent while the insert of
/// X waits, must not reach X's shard ahead of the insert.  Whichever order
/// the two commit in, the live route of X equals the route a replay of the
/// journal rebuilds.
#[test]
fn a_deletion_never_overtakes_the_blocked_submit_of_its_insert() {
    let n = 8;
    let engine = || engine::build(EngineKind::Parallel, &EngineBuilder::new(n).seed(2));
    let services = vec![
        EngineService::with_queue_capacity(engine(), 1),
        EngineService::with_queue_capacity(engine(), 1),
    ];
    // RangePartitioner: vertices 0..4 on shard 0, 4..8 on shard 1.
    let service = ShardedService::from_services(services, Box::new(RangePartitioner::new(n)));
    let insert = |id: u64, a: u32, b: u32| {
        Update::Insert(HyperEdge::pair(EdgeId(id), VertexId(a), VertexId(b)))
    };
    let (x, y) = (EdgeId(2), EdgeId(1));
    // Fill shard 0's queue, so the submit of Y (shard 0) and X (shard 1)
    // has to wait.
    service
        .try_submit(UpdateBatch::new(vec![insert(0, 0, 1)]).unwrap())
        .unwrap();
    std::thread::scope(|scope| {
        let submitter = scope.spawn(|| {
            service.submit(UpdateBatch::new(vec![insert(y.0, 2, 3), insert(x.0, 4, 5)]).unwrap())
        });
        let start = Instant::now();
        while service.owner_of_edge(x).is_none() && start.elapsed() < Duration::from_millis(200) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let bounced = service
            .try_submit(UpdateBatch::new(vec![Update::Delete(x)]).unwrap())
            .err();
        // A strict drain may refuse the deletion if it committed first.
        while !submitter.is_finished() {
            let _ = service.drain();
        }
        submitter.join().unwrap();
        let _ = service.drain();
        if let Some(delete) = bounced {
            service.try_submit(delete).unwrap();
        }
        let _ = service.drain();
    });
    assert_eq!(service.queue_len(), 0);
    let replayed = ShardedService::replay_with(
        build_shards(EngineKind::Parallel, &EngineBuilder::new(n).seed(2), 2),
        Box::new(RangePartitioner::new(n)),
        &service.journal(),
    )
    .unwrap();
    for id in [x, y] {
        assert_eq!(
            service.owner_of_edge(id),
            replayed.owner_of_edge(id),
            "route of {id:?}"
        );
    }
}

/// Replay rebuilds the router from what the shards hold.  A batch that
/// deletes an id on one shard and re-inserts it with endpoints a lower shard
/// owns moves the id to that lower shard, and the replayed router must route
/// it there too: walking the tagged journal shard by shard would see the
/// lower shard's insert first and the higher shard's deletion last, and lose
/// the route.  A later deletion then commits on the live service and on its
/// replay alike.
#[test]
fn replay_keeps_the_route_of_an_id_reinserted_on_a_lower_shard() {
    let n = 9;
    let builder = EngineBuilder::new(n).seed(3);
    // RangePartitioner over 9 vertices and 3 shards: vertices 0..3 on shard
    // 0, 3..6 on shard 1, 6..9 on shard 2.
    let service = ShardedService::with_partitioner(
        build_shards(EngineKind::Parallel, &builder, 3),
        Box::new(RangePartitioner::new(n)),
    );
    let x = EdgeId(7);
    let insert = |a, b| Update::Insert(HyperEdge::pair(x, VertexId(a), VertexId(b)));
    service.submit(UpdateBatch::new(vec![insert(6, 7)]).unwrap());
    service.drain().unwrap();
    service.submit(UpdateBatch::new(vec![Update::Delete(x), insert(3, 4)]).unwrap());
    service.drain().unwrap();
    assert_eq!(service.owner_of_edge(x), Some(1));

    let replayed = ShardedService::replay_with(
        build_shards(EngineKind::Parallel, &builder, 3),
        Box::new(RangePartitioner::new(n)),
        &service.journal(),
    )
    .unwrap();
    assert_eq!(replayed.owner_of_edge(x), service.owner_of_edge(x));
    for (label, sharded) in [("live", &service), ("replayed", &replayed)] {
        sharded.submit(UpdateBatch::new(vec![Update::Delete(x)]).unwrap());
        sharded
            .drain()
            .unwrap_or_else(|e| panic!("{label}: the deletion of {x} was refused: {e}"));
        assert_eq!(sharded.owner_of_edge(x), None, "{label}");
    }
    assert_eq!(replayed.journal(), service.journal());
}
