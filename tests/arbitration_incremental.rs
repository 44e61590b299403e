//! Incremental-arbitration differential suite.
//!
//! A `ShardedService` keeps its arbitrated matching up to date drain by
//! drain, redoing only the awards and repair components a drain touched.
//! The contract under test: after **every** drain — strict or lossy, with
//! rejected inserts, with a dropped poison sub-batch, after `replay` and
//! after `recover` — the published view equals a from-scratch arbitration
//! pass over the same shard state, field for field (matching, evicted,
//! repaired, by-vertex map, conflicted set and report), its raw
//! cross-shard accounting equals a direct recomputation from the shard
//! snapshots, and every vertex's cached cover (kept, freed or uncovered)
//! equals the cover recomputed from the published shard snapshots and
//! evicted list.  All five engines, at 1, 2, 4 and 8 shards.

use pdmm::engine;
use pdmm::hypergraph::streams::{self, Workload};
use pdmm::prelude::*;
use pdmm::service::{JournalSink, MemoryJournal};
use pdmm::sharding::{ArbitrationReport, HashPartitioner};
use std::collections::HashMap;
use std::sync::Arc;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

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

/// Checks the published view against the from-scratch pass, the raw
/// accounting against its direct recomputation, and the cover cache against
/// the published view.
fn audit(service: &ShardedService, report: ArbitrationReport, label: &str) {
    let snapshot = service.snapshot();
    let oracle = service.arbitrate_from_scratch();
    assert_eq!(
        *snapshot.arbitrated_matching(),
        oracle,
        "{label}: incremental arbitration diverged from the full pass"
    );
    assert_eq!(report, oracle.report(), "{label}: drain report");
    let stale = service.stale_covers();
    assert!(
        stale.is_empty(),
        "{label}: stale cached covers at {stale:?}"
    );

    // One cut: every shard snapshot in the view is the shard's latest.
    for k in 0..service.num_shards() {
        assert!(
            Arc::ptr_eq(snapshot.shard(k), &service.shard_snapshot(k)),
            "{label}: shard {k} snapshot is not the drain boundary's"
        );
    }

    // Raw conflicts: vertices matched on more than one shard.
    let mut matched_in: HashMap<VertexId, u32> = HashMap::new();
    for k in 0..snapshot.num_shards() {
        for v in snapshot.shard(k).matched_vertices() {
            *matched_in.entry(v).or_insert(0) += 1;
        }
    }
    let mut conflicted: Vec<VertexId> = matched_in
        .into_iter()
        .filter_map(|(v, n)| (n > 1).then_some(v))
        .collect();
    conflicted.sort_unstable();
    assert_eq!(snapshot.conflicted_vertices(), &conflicted[..], "{label}");

    // Cross-shard matched edges, by the router's flags (exact once nothing
    // is queued).
    if service.queue_len() == 0 {
        let mut cross: Vec<EdgeId> = (0..snapshot.num_shards())
            .flat_map(|k| snapshot.shard(k).edge_ids())
            .filter(|&id| service.is_cross_shard(id))
            .collect();
        cross.sort_unstable();
        assert_eq!(snapshot.cross_shard_matched(), &cross[..], "{label}");
    }
}

/// A lossy batch with two rejected inserts — an out-of-range endpoint and a
/// re-insert of a live id — beside two fresh valid ones.
fn rejecting_batch(service: &ShardedService, fresh: u64) -> UpdateBatch {
    let n = service.num_vertices() as u32;
    let live = service.snapshot().edge_ids()[0];
    UpdateBatch::new(vec![
        Update::Insert(HyperEdge::pair(EdgeId(fresh), VertexId(0), VertexId(n + 3))),
        Update::Insert(HyperEdge::pair(live, VertexId(1), VertexId(n - 1))),
        Update::Insert(HyperEdge::pair(
            EdgeId(fresh + 1),
            VertexId(2),
            VertexId(n - 2),
        )),
        Update::Insert(HyperEdge::pair(
            EdgeId(fresh + 2),
            VertexId(3),
            VertexId(n / 2),
        )),
    ])
    .unwrap()
}

/// A strict batch whose unknown deletion poisons shard 0's sub-batch, beside
/// fresh inserts spread over the vertex space (the ones routed elsewhere
/// commit).
fn poison_batch(service: &ShardedService, fresh: u64) -> UpdateBatch {
    let n = service.num_vertices() as u32;
    let mut updates: Vec<Update> = (0..8u32)
        .map(|i| {
            Update::Insert(HyperEdge::pair(
                EdgeId(fresh + u64::from(i)),
                VertexId(i * 7 % n),
                VertexId((i * 13 + n / 3) % n),
            ))
        })
        .filter(|u| match u {
            Update::Insert(e) => e.vertices()[0] != e.vertices()[1],
            Update::Delete(_) => true,
        })
        .collect();
    updates.push(Update::Delete(EdgeId(u64::MAX)));
    UpdateBatch::new(updates).unwrap()
}

/// Serves `workload` through `service`, alternating strict and lossy drains
/// and splicing in a rejecting and a poison batch, auditing after every
/// drain.  The spliced batches insert ids from `fresh` upwards.
fn serve_audited(service: &ShardedService, workload: &Workload, fresh: u64, label: &str) {
    audit(
        service,
        service.snapshot().arbitrated_matching().report(),
        label,
    );
    let last = workload.batches.len().saturating_sub(1);
    for (i, batch) in workload.batches.iter().enumerate() {
        service.submit(batch.clone());
        let report = if i % 3 == 1 {
            service.drain_lossy().arbitration
        } else {
            service
                .drain()
                .unwrap_or_else(|e| panic!("{label}: batch {i} refused: {e}"))
                .arbitration
        };
        audit(service, report, &format!("{label}, batch {i}"));
        if i == last / 3 {
            service.submit(rejecting_batch(service, fresh));
            let lossy = service.drain_lossy();
            assert_eq!(lossy.rejected, 2, "{label}");
            audit(service, lossy.arbitration, &format!("{label}, rejected"));
        }
        if i == 2 * last / 3 {
            service.submit(poison_batch(service, fresh + 100));
            let error = service.drain().unwrap_err();
            assert_eq!(error.shard, 0, "{label}");
            audit(
                service,
                error.partial.arbitration,
                &format!("{label}, poison"),
            );
        }
    }
}

fn conflict_workload() -> Workload {
    streams::skewed_churn(96, 2, 140, 10, 36, 0.55, 2.0, 31)
}

#[test]
fn incremental_arbitration_equals_the_full_pass_after_every_drain() {
    let workload = conflict_workload();
    let mut conflicts = 0usize;
    for kind in EngineKind::ALL {
        for &shards in &SHARD_COUNTS {
            let builder = EngineBuilder::new(workload.num_vertices).rank(2).seed(11);
            let service = ShardedService::new(build_shards(kind, &builder, shards));
            let label = format!("{kind} at {shards} shards");
            serve_audited(&service, &workload, 5_000_000, &label);
            conflicts += service
                .snapshot()
                .arbitrated_matching()
                .report()
                .stats
                .conflicted_vertices;

            // Replay rebuilds from scratch; serving on from there is
            // incremental again.
            let replayed =
                ShardedService::replay(build_shards(kind, &builder, shards), &service.journal())
                    .unwrap();
            assert_eq!(
                *replayed.snapshot().arbitrated_matching(),
                *service.snapshot().arbitrated_matching(),
                "{label}: replay"
            );
            serve_audited(
                &replayed,
                &conflict_tail(),
                6_000_000,
                &format!("{label}, replayed"),
            );
        }
    }
    assert!(conflicts > 0, "the workload must produce shard conflicts");
}

/// More churn over the same vertex space, under fresh ids.
fn conflict_tail() -> Workload {
    let mut tail = streams::skewed_churn(96, 2, 40, 6, 24, 0.5, 2.0, 77);
    for batch in &mut tail.batches {
        let updates = batch
            .iter()
            .map(|u| match u {
                Update::Insert(e) => Update::Insert(HyperEdge::new(
                    EdgeId(e.id.0 + 10_000_000),
                    e.vertices().to_vec(),
                )),
                Update::Delete(id) => Update::Delete(EdgeId(id.0 + 10_000_000)),
            })
            .collect();
        *batch = UpdateBatch::new(updates).unwrap();
    }
    tail
}

#[test]
fn incremental_arbitration_survives_checkpoint_and_recovery() {
    let workload = conflict_workload();
    let batches = &workload.batches;
    let mid = batches.len() / 2;
    for kind in EngineKind::ALL {
        for &shards in &[2usize, 4, 8] {
            let builder = EngineBuilder::new(workload.num_vertices).rank(2).seed(3);
            let service = ShardedService::new(build_shards(kind, &builder, shards));
            for batch in &batches[..mid] {
                service.submit(batch.clone());
                service.drain().unwrap();
            }
            let checkpoint = service.checkpoint().unwrap();
            for batch in &batches[mid..] {
                service.submit(batch.clone());
                assert_eq!(service.drain_lossy().rejected, 0);
            }
            let journals: Vec<String> = (0..shards).map(|k| service.shard_journal(k)).collect();
            let recovered = ShardedService::recover(
                build_shards(kind, &builder, shards),
                Box::new(HashPartitioner),
                &checkpoint,
                &journals,
                (0..shards).map(|_| mem()).collect(),
            )
            .unwrap();
            let label = format!("{kind} at {shards} shards, recovered");
            // The recovered service is the pre-crash one, bit for bit: every
            // shard's engine state and journal, the merged matching and the
            // arbitrated view.
            for k in 0..shards {
                assert_eq!(
                    recovered.shard_state(k),
                    service.shard_state(k),
                    "{label}: shard {k} state"
                );
                assert_eq!(
                    recovered.shard_journal(k),
                    service.shard_journal(k),
                    "{label}: shard {k} journal"
                );
            }
            assert_eq!(
                recovered.snapshot().edge_ids(),
                service.snapshot().edge_ids(),
                "{label}"
            );
            assert_eq!(
                *recovered.snapshot().arbitrated_matching(),
                *service.snapshot().arbitrated_matching(),
                "{label}"
            );
            serve_audited(&recovered, &conflict_tail(), 6_000_000, &label);
        }
    }
}

#[test]
fn incremental_arbitration_tracks_hyperedges_at_scale() {
    // Rank-3 churn over a larger vertex space: components spread further
    // and hyperedges link more candidates per vertex.
    let workload = streams::random_churn(400, 3, 300, 30, 48, 0.55, 9);
    for &shards in &[2usize, 4] {
        let builder = EngineBuilder::new(workload.num_vertices).rank(3).seed(21);
        let service = ShardedService::new(build_shards(EngineKind::Parallel, &builder, shards));
        serve_audited(
            &service,
            &workload,
            5_000_000,
            &format!("rank 3 at {shards} shards"),
        );
    }
}

#[test]
fn incremental_arbitration_survives_a_giant_repair_component() {
    // Two edges per vertex over 2 hash shards: most edges cross shards,
    // evictions free a large share of the vertices, and the repair
    // candidates link into one component holding most of them, which nearly
    // every drain reaches and reruns.
    let workload = streams::random_churn(2000, 3, 4000, 8, 64, 0.5, 5);
    let builder = EngineBuilder::new(workload.num_vertices).rank(3).seed(8);
    let service = ShardedService::new(build_shards(EngineKind::Parallel, &builder, 2));
    serve_audited(&service, &workload, 5_000_000, "giant component");
    let stats = service.snapshot().arbitrated_matching().report().stats;
    assert!(
        stats.repair_candidates > 1024,
        "the workload must reach a repair wave of over a thousand candidates"
    );
}
