//! Incremental-arbitration differential suite.
//!
//! A `ShardedService` keeps its arbitrated matching up to date drain by
//! drain, redoing only the awards and repair components a drain touched.
//! The contract under test: after **every** drain — strict or lossy, with
//! rejected inserts, with a dropped poison sub-batch, with submitters racing
//! the drains, after `replay` and after `recover` — the published view
//! equals a from-scratch arbitration pass over the same shard state, field
//! for field (matching, evicted, repaired, by-vertex map, conflicted set and
//! report), and every vertex's cached cover (kept, freed or uncovered)
//! equals the cover recomputed from the published shard snapshots and
//! evicted list.  Where only the drainer submits, the report's conflict
//! count and pre-arbitration size must also equal a direct recomputation
//! from the shard snapshots, and the router must own every matched edge on
//! its shard, flagged cross-shard exactly when its endpoints span shards.
//! All five engines, at 1, 2, 4 and 8 shards.
//!
//! A drain builds the new arbitrated view in the one the previous drain
//! replaced when no reader holds it, and each shard publish likewise
//! recycles its replaced snapshot: a service whose every view is held (so
//! everything is copied) and one that holds none (so everything is
//! recycled) must agree after every drain, and every held view must still
//! answer as it did when it was published.

use pdmm::engine;
use pdmm::hypergraph::streams::{self, Workload};
use pdmm::prelude::*;
use pdmm::service::{JournalSink, MemoryJournal};
use pdmm::sharding::{ArbitrationReport, HashPartitioner};
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// Checks the published view and the drain's report against the
/// from-scratch pass, and the cover cache against the published view.
fn audit_arbitration(service: &ShardedService, report: ArbitrationReport, label: &str) {
    let oracle = service.arbitrate_from_scratch();
    assert_eq!(
        *service.snapshot().arbitrated_matching(),
        oracle,
        "{label}: incremental arbitration diverged from the full pass"
    );
    assert_eq!(report, oracle.report(), "{label}: drain report");
    let stale = service.stale_covers();
    assert!(
        stale.is_empty(),
        "{label}: stale cached covers at {stale:?}"
    );
}

/// [`audit_arbitration`], plus the report's counts and the router's flags
/// against their direct recomputation; only the drainer may submit
/// meanwhile.
fn audit(service: &ShardedService, report: ArbitrationReport, label: &str) {
    audit_arbitration(service, report, label);
    let snapshot = service.snapshot();

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
    let published = snapshot.arbitrated_matching().report();
    assert_eq!(
        published.stats.conflicted_vertices,
        conflicted.len(),
        "{label}"
    );
    let union: usize = (0..snapshot.num_shards())
        .map(|k| snapshot.shard(k).size())
        .sum();
    assert_eq!(published.pre_size, union, "{label}");

    // Matched edges, by the router's routes (exact once nothing is queued).
    if service.queue_len() == 0 {
        for k in 0..snapshot.num_shards() {
            let shard = snapshot.shard(k);
            for id in shard.edges() {
                let endpoints = shard.matched_endpoints(id).unwrap();
                let owner = service.shard_of_vertex(endpoints[0]);
                let spans = endpoints
                    .iter()
                    .any(|&v| service.shard_of_vertex(v) != owner);
                assert_eq!(service.owner_of_edge(id), Some(k), "{label}: {id}");
                assert_eq!(service.is_cross_shard(id), spans, "{label}: {id}");
            }
        }
    }
}

/// Every shard's matched edge ids, sorted: the union of the shard matchings.
fn shard_union(snapshot: &ShardedSnapshot) -> Vec<EdgeId> {
    let mut ids: Vec<EdgeId> = (0..snapshot.num_shards())
        .flat_map(|k| snapshot.shard(k).edge_ids())
        .collect();
    ids.sort_unstable();
    ids
}

/// A lossy batch with two rejected inserts — an out-of-range endpoint and a
/// re-insert of a live id — beside two fresh valid ones.
fn rejecting_batch(service: &ShardedService, fresh: u64) -> UpdateBatch {
    let n = service.num_vertices() as u32;
    let snapshot = service.snapshot();
    let live = (0..snapshot.num_shards())
        .filter_map(|k| snapshot.shard(k).edges().next())
        .min()
        .expect("something is matched");
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
    offset_ids(
        streams::skewed_churn(96, 2, 40, 6, 24, 0.5, 2.0, 77),
        10_000_000,
    )
}

/// `workload` with every edge id moved up by `offset`.
fn offset_ids(mut workload: Workload, offset: u64) -> Workload {
    for batch in &mut workload.batches {
        let updates = batch
            .iter()
            .map(|u| match u {
                Update::Insert(e) => Update::Insert(HyperEdge::new(
                    EdgeId(e.id.0 + offset),
                    e.vertices().to_vec(),
                )),
                Update::Delete(id) => Update::Delete(EdgeId(id.0 + offset)),
            })
            .collect();
        *batch = UpdateBatch::new(updates).unwrap();
    }
    workload
}

#[test]
fn incremental_arbitration_holds_under_concurrent_submitters() {
    // Three threads submit (blocking) into queues of capacity 2 while one
    // drainer alternates lossy and strict drains, so batches are routed and
    // enqueued while drains run.  Every drain must still arbitrate exactly
    // what the shards committed.
    let streams: Vec<Workload> = (0..3u64)
        .map(|t| {
            let stream = streams::skewed_churn(96, 2, 60, 12, 8, 0.55, 2.0, 31 + t);
            offset_ids(stream, (t + 1) * 1_000_000)
        })
        .collect();
    let mut ids: Vec<EdgeId> = streams
        .iter()
        .flat_map(|s| s.batches.iter().flat_map(|b| b.iter()))
        .filter_map(|u| match u {
            Update::Insert(e) => Some(e.id),
            Update::Delete(_) => None,
        })
        .collect();
    ids.sort_unstable();
    ids.dedup();
    for kind in EngineKind::ALL {
        for shards in [2usize, 4] {
            let builder = EngineBuilder::new(96).rank(2).seed(13);
            let services = build_shards(kind, &builder, shards)
                .into_iter()
                .map(|engine| EngineService::with_queue_capacity(engine, 2))
                .collect();
            let service = ShardedService::from_services(services, Box::new(HashPartitioner));
            let label = format!("{kind} at {shards} shards, concurrent submitters");
            let finished = AtomicUsize::new(0);
            // A failed check must not stop the drainer: the submitters block
            // on full queues, and the scope would wait for them forever.  The
            // first failure is kept, the queues are drained until every
            // submitter is done, and the failure is raised after the scope.
            let mut failure = None;
            std::thread::scope(|scope| {
                for stream in &streams {
                    let (service, finished) = (&service, &finished);
                    scope.spawn(move || {
                        for batch in &stream.batches {
                            service.submit(batch.clone());
                        }
                        finished.fetch_add(1, Ordering::SeqCst);
                    });
                }
                for drain in 0.. {
                    let done = finished.load(Ordering::SeqCst) == streams.len();
                    if failure.is_some() {
                        // Only to unblock the submitters; nothing is checked.
                        let _ = service.drain_lossy();
                    } else {
                        let checked = panic::catch_unwind(AssertUnwindSafe(|| {
                            let report = if drain % 2 == 0 {
                                service.drain_lossy().arbitration
                            } else {
                                service
                                    .drain()
                                    .unwrap_or_else(|e| {
                                        panic!("{label}: drain {drain} refused: {e}")
                                    })
                                    .arbitration
                            };
                            audit_arbitration(&service, report, &format!("{label}, drain {drain}"));
                        }));
                        failure = checked.err();
                    }
                    if done && service.queue_len() == 0 {
                        break;
                    }
                }
            });
            if let Some(payload) = failure {
                panic::resume_unwind(payload);
            }
            let replayed =
                ShardedService::replay(build_shards(kind, &builder, shards), &service.journal())
                    .unwrap();
            assert_eq!(
                *replayed.snapshot().arbitrated_matching(),
                *service.snapshot().arbitrated_matching(),
                "{label}: replay"
            );
            for &id in &ids {
                assert_eq!(
                    service.owner_of_edge(id),
                    replayed.owner_of_edge(id),
                    "{label}: route of {id:?}"
                );
            }
        }
    }
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
            // shard's engine state and journal, the union of the shard
            // matchings and the arbitrated view.
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
                shard_union(&recovered.snapshot()),
                shard_union(&service.snapshot()),
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

/// Every per-vertex answer of an arbitrated matching and of each shard
/// snapshot of a view, over every vertex plus `VertexId(n)` and
/// `VertexId(u32::MAX)`, which lie outside the vertex space.
type Lookups = Vec<(Option<EdgeId>, bool)>;

fn lookups(snapshot: &ShardedSnapshot, n: usize) -> (Lookups, Vec<(Vec<EdgeId>, Lookups)>) {
    let probes: Vec<VertexId> = (0..=n as u32)
        .map(VertexId)
        .chain([VertexId(u32::MAX)])
        .collect();
    let arbitrated = snapshot.arbitrated_matching();
    let shards = (0..snapshot.num_shards())
        .map(|k| {
            let shard = snapshot.shard(k);
            let answers = probes
                .iter()
                .map(|&v| (shard.matched_edge_of(v), shard.is_matched(v)))
                .collect();
            (shard.edge_ids(), answers)
        })
        .collect();
    let answers = probes
        .iter()
        .map(|&v| (arbitrated.matched_edge_of(v), arbitrated.is_matched(v)))
        .collect();
    (answers, shards)
}

#[test]
fn recycled_arbitrated_views_equal_copied_ones_and_held_views_stay_frozen() {
    let workload = streams::skewed_churn(96, 2, 140, 30, 24, 0.55, 2.0, 31);
    let n = workload.num_vertices;
    let mut conflicts = 0usize;
    for kind in EngineKind::ALL {
        for shards in [2usize, 4] {
            let label = format!("{kind} at {shards} shards");
            let builder = EngineBuilder::new(n).rank(2).seed(11);
            // `holding` keeps every view it publishes, so its shards and its
            // arbitration copy on every drain; `recycling` keeps none.
            let holding = ShardedService::new(build_shards(kind, &builder, shards));
            let recycling = ShardedService::new(build_shards(kind, &builder, shards));
            let first = holding.snapshot();
            let mut held = vec![(
                first.clone(),
                first.arbitrated_matching().clone(),
                lookups(&first, n),
            )];
            for (i, batch) in workload.batches.iter().enumerate() {
                for service in [&holding, &recycling] {
                    service.submit(batch.clone());
                    if i % 3 == 1 {
                        let _ = service.drain_lossy();
                    } else {
                        service.drain().unwrap();
                    }
                }
                let snapshot = holding.snapshot();
                let expected = snapshot.arbitrated_matching().clone();
                let answers = lookups(&snapshot, n);
                let oracle = recycling.arbitrate_from_scratch();
                let recycled = recycling.snapshot();
                assert_eq!(
                    *recycled.arbitrated_matching(),
                    oracle,
                    "{label}, batch {i}: the recycled view diverged from the full pass"
                );
                assert_eq!(expected, oracle, "{label}, batch {i}: the copied view");
                assert_eq!(
                    lookups(&recycled, n),
                    answers,
                    "{label}, batch {i}: recycled lookups differ from copied ones"
                );
                assert!(
                    answers.0[n..].iter().all(|&a| a == (None, false)),
                    "{label}: ids outside the vertex space read as unmatched"
                );
                conflicts += oracle.report().stats.conflicted_vertices;
                held.push((snapshot, expected, answers));
            }
            for (i, (snapshot, expected, answers)) in held.iter().enumerate() {
                assert_eq!(
                    snapshot.arbitrated_matching(),
                    expected,
                    "{label}: the view held since drain {i} changed"
                );
                assert_eq!(&lookups(snapshot, n), answers, "{label}: drain {i}");
            }
        }
    }
    assert!(conflicts > 0, "the workload must produce shard conflicts");
}
