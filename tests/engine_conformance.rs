//! Trait-conformance suite: every [`MatchingEngine`] in the workspace — built
//! through the same [`EngineBuilder`] and fed through the same validate →
//! trusted-apply ingest path — must behave identically at the API level on
//! identical workloads:
//!
//! * every batch is applied without error and reported consistently,
//! * the matching is always a valid, *maximal* matching of the ground-truth graph,
//! * matching sizes agree with the recompute baseline within the factor the
//!   theory allows (any two maximal matchings are within `r` of each other),
//! * invalid batches are rejected with the *same* typed [`BatchError`] by every
//!   engine, atomically (no partial application),
//! * zero-copy queries, collected ids, and reported sizes are mutually
//!   consistent, and `verify()` passes at every step,
//! * every engine, and its restored twin, lists exactly the live edges at
//!   each vertex.

use pdmm::engine::{self, BatchError, MatchingEngine};
use pdmm::hypergraph::streams::{self, Workload};
use pdmm::hypergraph::{generators, verify_maximality, verify_validity};
use pdmm::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// The generated workloads every engine is driven through, with the rank each
/// one needs.
fn conformance_workloads() -> Vec<Workload> {
    let mut workloads = vec![
        streams::insert_only(80, generators::gnm_graph(80, 300, 3, 0), 40),
        streams::sliding_window(100, generators::gnm_graph(100, 400, 5, 0), 50, 3),
        streams::random_churn(120, 2, 250, 12, 40, 0.5, 9),
        streams::insert_then_teardown(90, generators::gnm_graph(90, 350, 7, 0), 45, 11),
        streams::hub_churn(150, 4, 12, 50, 13),
        streams::random_churn(60, 3, 120, 10, 30, 0.45, 15),
        streams::random_churn(50, 4, 80, 8, 25, 0.5, 17),
    ];
    for w in &mut workloads {
        assert!(streams::validate_workload(w), "bad workload {}", w.name);
    }
    workloads
}

fn engines_for(workload: &Workload, seed: u64) -> Vec<Box<dyn MatchingEngine + Send>> {
    engine::build_all(
        &EngineBuilder::new(workload.num_vertices)
            .rank(workload.rank.max(2))
            .seed(seed),
    )
}

#[test]
fn every_engine_stays_valid_and_maximal_on_every_workload() {
    for workload in conformance_workloads() {
        for mut engine in engines_for(&workload, 1) {
            let name = engine.name();
            let mut truth = DynamicHypergraph::new(workload.num_vertices);
            for (i, batch) in workload.batches.iter().enumerate() {
                truth.apply_batch(batch);
                // Feed through the serve path's ingest shape: validate once,
                // then apply the proof.
                let proof = engine.validate(batch).unwrap_or_else(|e| {
                    panic!("{name} rejected batch {i} of {}: {e}", workload.name)
                });
                let report = engine
                    .apply_batch_trusted(proof)
                    .expect("validated batches commit cleanly");

                let ids = engine.matching_ids();
                assert_eq!(report.batch_size, batch.len());
                assert_eq!(report.matching_size, ids.len());
                assert_eq!(
                    verify_validity(&truth, &ids),
                    Ok(()),
                    "{} produced an invalid matching after batch {i} of {}",
                    engine.name(),
                    workload.name
                );
                assert_eq!(
                    verify_maximality(&truth, &ids),
                    Ok(()),
                    "{} broke maximality after batch {i} of {}",
                    engine.name(),
                    workload.name
                );
                engine
                    .verify()
                    .unwrap_or_else(|e| panic!("{} failed self-verification: {e}", engine.name()));
            }
            if truth.num_edges() == 0 {
                assert_eq!(
                    engine.matching_size(),
                    0,
                    "{} kept a matching on an empty graph",
                    engine.name()
                );
            }
        }
    }
}

#[test]
fn matching_sizes_agree_with_the_recompute_baseline_within_rank() {
    for workload in conformance_workloads() {
        let rank = workload.rank.max(2);
        let mut engines = engines_for(&workload, 3);
        for engine in &mut engines {
            engine
                .apply_all(&workload.batches)
                .unwrap_or_else(|e| panic!("{} rejected {}: {e}", engine.name(), workload.name));
        }
        let recompute_size = engines
            .iter()
            .find(|e| e.name() == "recompute-from-scratch")
            .expect("recompute baseline present")
            .matching_size();
        for engine in &engines {
            let size = engine.matching_size();
            // Any two maximal matchings of a rank-r hypergraph are within a
            // factor r of each other (each is a 1/r approximation of maximum).
            assert!(
                size * rank >= recompute_size && recompute_size * rank >= size,
                "{} matching size {size} vs recompute {recompute_size} exceeds factor {rank} on {}",
                engine.name(),
                workload.name
            );
            if recompute_size == 0 {
                assert_eq!(
                    size,
                    0,
                    "{} kept a matching on an empty graph",
                    engine.name()
                );
            }
        }
    }
}

#[test]
fn every_engine_rejects_the_same_invalid_batches_with_the_same_errors() {
    let builder = EngineBuilder::new(6).rank(2).seed(5);
    for kind in EngineKind::ALL {
        let mut engine = engine::build(kind, &builder);
        let name = engine.name();
        engine
            .apply_batch(&[
                Update::Insert(HyperEdge::pair(EdgeId(0), VertexId(0), VertexId(1))),
                Update::Insert(HyperEdge::pair(EdgeId(1), VertexId(2), VertexId(3))),
            ])
            .unwrap();
        let size_before = engine.matching_size();

        // Unknown deletion.
        assert_eq!(
            engine.apply_batch(&[Update::Delete(EdgeId(42))]),
            Err(BatchError::UnknownDeletion { id: EdgeId(42) }),
            "{name}"
        );
        // Duplicate id against a live edge.
        assert_eq!(
            engine.apply_batch(&[Update::Insert(HyperEdge::pair(
                EdgeId(0),
                VertexId(4),
                VertexId(5)
            ))]),
            Err(BatchError::DuplicateEdgeId { id: EdgeId(0) }),
            "{name}"
        );
        // Duplicate id within one batch.
        assert_eq!(
            engine.apply_batch(&[
                Update::Insert(HyperEdge::pair(EdgeId(9), VertexId(4), VertexId(5))),
                Update::Insert(HyperEdge::pair(EdgeId(9), VertexId(2), VertexId(3))),
            ]),
            Err(BatchError::DuplicateEdgeId { id: EdgeId(9) }),
            "{name}"
        );
        // Double deletion in one batch.
        assert_eq!(
            engine.apply_batch(&[Update::Delete(EdgeId(0)), Update::Delete(EdgeId(0))]),
            Err(BatchError::DuplicateDeletion { id: EdgeId(0) }),
            "{name}"
        );
        // Rank violation (builder capped the rank at 2).
        assert_eq!(
            engine.apply_batch(&[Update::Insert(HyperEdge::new(
                EdgeId(9),
                vec![VertexId(0), VertexId(1), VertexId(2)],
            ))]),
            Err(BatchError::RankExceeded {
                id: EdgeId(9),
                rank: 3,
                max_rank: 2
            }),
            "{name}"
        );
        // Endpoint out of range.
        assert_eq!(
            engine.apply_batch(&[Update::Insert(HyperEdge::pair(
                EdgeId(9),
                VertexId(0),
                VertexId(77)
            ))]),
            Err(BatchError::VertexOutOfRange {
                id: EdgeId(9),
                vertex: VertexId(77),
                num_vertices: 6
            }),
            "{name}"
        );
        // Insert-then-delete of the same id in one batch (deletions are
        // processed first, so the target does not exist yet).
        assert_eq!(
            engine.apply_batch(&[
                Update::Insert(HyperEdge::pair(EdgeId(9), VertexId(4), VertexId(5))),
                Update::Delete(EdgeId(9)),
            ]),
            Err(BatchError::UnknownDeletion { id: EdgeId(9) }),
            "{name}"
        );

        // Rejection is atomic: a valid prefix of a bad batch must not leak.
        assert_eq!(
            engine.apply_batch(&[
                Update::Insert(HyperEdge::pair(EdgeId(7), VertexId(4), VertexId(5))),
                Update::Delete(EdgeId(42)),
            ]),
            Err(BatchError::UnknownDeletion { id: EdgeId(42) }),
            "{name}"
        );
        assert!(
            !engine.contains_edge(EdgeId(7)),
            "{name} partially applied a bad batch"
        );
        assert_eq!(engine.matching_size(), size_before, "{name}");
        engine.verify().unwrap();

        // And delete-then-reinsert of the same id in one batch is legal.
        engine
            .apply_batch(&[
                Update::Delete(EdgeId(0)),
                Update::Insert(HyperEdge::pair(EdgeId(0), VertexId(4), VertexId(5))),
            ])
            .unwrap_or_else(|e| panic!("{name} rejected a legal delete+reinsert batch: {e}"));
        assert!(engine.contains_edge(EdgeId(0)), "{name}");
    }
}

/// The engines that consume `EngineBuilder::threads` (the others are strictly
/// sequential and ignore it).
const POOLED_KINDS: [EngineKind; 2] = [EngineKind::Parallel, EngineKind::RecomputeSequential];

#[test]
fn matchings_are_identical_at_1_2_and_8_threads() {
    // The thread pool must never change *what* is computed, only how fast:
    // all randomness is seed-derived and every parallel combiner is
    // order-preserving or associative, so for a fixed seed the per-batch
    // matchings must be bit-identical at any worker count.
    //
    // The one step an engine runs on the pool is Luby's priority map, and
    // only while more than 2048 candidate edges are alive.  The standard
    // conformance workloads stay below that cutoff, so they alone would
    // pass vacuously; the large workload pushes batches of 4096 updates
    // through the engines so the priority map genuinely executes on the
    // pool at every thread count.
    let mut workloads = conformance_workloads();
    workloads.push(streams::insert_then_teardown(
        4096,
        generators::gnm_graph(4096, 16384, 19, 0),
        4096,
        21,
    ));
    for workload in workloads {
        for kind in POOLED_KINDS {
            let mut reference: Option<Vec<Vec<EdgeId>>> = None;
            for threads in [1usize, 2, 8] {
                let builder = EngineBuilder::new(workload.num_vertices)
                    .rank(workload.rank.max(2))
                    .seed(7)
                    .threads(threads);
                let mut engine = engine::build(kind, &builder);
                let mut matchings: Vec<Vec<EdgeId>> = Vec::new();
                for batch in &workload.batches {
                    engine.apply_batch(batch).unwrap_or_else(|e| {
                        panic!(
                            "{kind} rejected a batch of {} at {threads} threads: {e}",
                            workload.name
                        )
                    });
                    let mut ids = engine.matching_ids();
                    ids.sort_unstable();
                    matchings.push(ids);
                }
                match &reference {
                    None => reference = Some(matchings),
                    Some(expected) => assert_eq!(
                        expected, &matchings,
                        "{kind} diverged at {threads} threads on {}",
                        workload.name
                    ),
                }
            }
        }
    }
}

#[test]
fn typed_errors_are_identical_at_1_2_and_8_threads() {
    for kind in POOLED_KINDS {
        for threads in [1usize, 2, 8] {
            let builder = EngineBuilder::new(6).rank(2).seed(5).threads(threads);
            let mut engine = engine::build(kind, &builder);
            engine
                .apply_batch(&[Update::Insert(HyperEdge::pair(
                    EdgeId(0),
                    VertexId(0),
                    VertexId(1),
                ))])
                .unwrap();
            assert_eq!(
                engine.apply_batch(&[Update::Delete(EdgeId(42))]),
                Err(BatchError::UnknownDeletion { id: EdgeId(42) }),
                "{kind} at {threads} threads"
            );
            assert_eq!(
                engine.apply_batch(&[Update::Insert(HyperEdge::pair(
                    EdgeId(0),
                    VertexId(2),
                    VertexId(3)
                ))]),
                Err(BatchError::DuplicateEdgeId { id: EdgeId(0) }),
                "{kind} at {threads} threads"
            );
            assert_eq!(
                engine.apply_batch(&[Update::Insert(HyperEdge::new(
                    EdgeId(9),
                    vec![VertexId(0), VertexId(1), VertexId(2)],
                ))]),
                Err(BatchError::RankExceeded {
                    id: EdgeId(9),
                    rank: 3,
                    max_rank: 2
                }),
                "{kind} at {threads} threads"
            );
            // Rejection stays atomic under a bounded pool.
            assert_eq!(engine.matching_size(), 1, "{kind} at {threads} threads");
            engine.verify().unwrap();
        }
    }
}

#[test]
fn zero_copy_iterator_collected_ids_and_size_agree() {
    let w = streams::random_churn(100, 2, 200, 8, 30, 0.5, 21);
    for mut engine in engines_for(&w, 7) {
        engine.apply_all(&w.batches).unwrap();
        let via_iter: usize = engine.matching().count();
        let collected = engine.matching_ids();
        assert_eq!(via_iter, collected.len(), "{}", engine.name());
        assert_eq!(via_iter, engine.matching_size(), "{}", engine.name());
        // The iterator yields exactly the collected ids (order-insensitively).
        let mut a: Vec<EdgeId> = engine.matching().collect();
        let mut b = collected;
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "{}", engine.name());
        // Every reported matched edge is live.
        assert!(
            engine.matching().all(|id| engine.contains_edge(id)),
            "{} reports a dead matched edge",
            engine.name()
        );
    }
}

/// The edges `engine` lists at `v`, with their endpoints, sorted.
fn listed_at(engine: &dyn MatchingEngine, v: VertexId) -> Vec<(EdgeId, Vec<VertexId>)> {
    let mut listed = Vec::new();
    engine.for_each_incident_edge(v, &mut |id, endpoints| {
        listed.push((id, endpoints.to_vec()))
    });
    listed.sort_unstable();
    listed
}

#[test]
fn every_engine_lists_the_live_edges_at_each_vertex() {
    // At m/n = 5 the parallel engine temporarily deletes hundreds of edges,
    // which leave every O(v) and A(v, ·) bucket but stay live.
    let w = streams::random_churn(200, 3, 1_000, 50, 32, 0.5, 1);
    let builder = EngineBuilder::new(w.num_vertices).rank(3).seed(5);
    let mut parallel = ParallelDynamicMatching::from_builder(&builder);
    let most_parked = w
        .batches
        .iter()
        .map(|batch| {
            parallel.apply_batch(batch).unwrap();
            parallel.num_temp_deleted()
        })
        .max();
    assert!(
        most_parked > Some(100),
        "{most_parked:?} temp-deleted edges"
    );

    for kind in EngineKind::ALL {
        let mut engine = engine::build(kind, &builder);
        let mut truth = DynamicHypergraph::new(w.num_vertices);
        for (i, batch) in w.batches.iter().enumerate() {
            truth.apply_batch(batch);
            engine.apply_batch(batch).unwrap();
            let mut twin = engine::build(kind, &builder);
            twin.restore_state(&engine.save_state().unwrap()).unwrap();
            for v in (0..w.num_vertices as u32).map(VertexId) {
                let expected: Vec<(EdgeId, Vec<VertexId>)> = truth
                    .incident_edges(v)
                    .into_iter()
                    .map(|id| (id, truth.edge(id).unwrap().vertices().to_vec()))
                    .collect();
                assert_eq!(
                    listed_at(engine.as_ref(), v),
                    expected,
                    "{kind}, batch {i}, {v}"
                );
                assert_eq!(
                    listed_at(twin.as_ref(), v),
                    expected,
                    "restored {kind}, batch {i}, {v}"
                );
            }
        }
        let outside = VertexId(w.num_vertices as u32);
        assert!(listed_at(engine.as_ref(), outside).is_empty(), "{kind}");
    }
}

/// A churn stream over vertices `0..60` of an 80-vertex space, with dirty
/// riders on every batch after the first: an unknown deletion (rejected), an
/// exact repeat of the batch's first update (deduplicated), and the two
/// lowest-id live edges the batch leaves alone deleted and re-inserted under
/// their ids onto the spare vertices `60..80` — legal, and the one way an id
/// can stay matched with other endpoints.
fn dirty_churn() -> (usize, Vec<Vec<Update>>) {
    const SPARE: u32 = 60;
    const N: usize = 80;
    let w = streams::random_churn(SPARE as usize, 2, 90, 40, 16, 0.5, 41);
    let mut truth = DynamicHypergraph::new(N);
    let mut validator = engine::build(EngineKind::NaiveSequential, &EngineBuilder::new(N).rank(2));
    let mut batches = Vec::new();
    for (i, batch) in w.batches.iter().enumerate() {
        let mut updates = batch.updates().to_vec();
        if i > 0 {
            let touched: Vec<EdgeId> = updates.iter().map(Update::edge_id).collect();
            let mut untouched: Vec<&HyperEdge> =
                truth.edges().filter(|e| !touched.contains(&e.id)).collect();
            untouched.sort_unstable_by_key(|e| e.id);
            let moved: Vec<HyperEdge> = untouched
                .iter()
                .take(2)
                .map(|e| {
                    let spare = e.vertices().iter().map(|v| VertexId(SPARE + v.0 % 20));
                    HyperEdge::new(e.id, spare.collect())
                })
                .collect();
            updates.push(Update::Delete(EdgeId(1_000_000 + i as u64)));
            updates.push(updates[0].clone());
            for edge in moved {
                updates.push(Update::Delete(edge.id));
                updates.push(Update::Insert(edge));
            }
        }
        let lossy = validator.validate_lossy(updates.clone());
        truth.apply_batch(lossy.survivors());
        validator.apply_batch_trusted(lossy.proof()).unwrap();
        batches.push(updates);
    }
    (N, batches)
}

#[test]
fn matching_deltas_net_out_to_the_matching_on_every_engine() {
    let (n, batches) = dirty_churn();
    let builder = EngineBuilder::new(n).rank(2).seed(29);
    for kind in EngineKind::ALL {
        let mut engine = engine::build(kind, &builder);
        let name = engine.name();
        assert!(
            engine.take_matching_delta().is_empty(),
            "{name}: fresh engine"
        );
        let mut truth = DynamicHypergraph::new(n);
        // The matching at the previous take, with each edge's endpoints.
        let mut previous: BTreeMap<EdgeId, Vec<VertexId>> = BTreeMap::new();
        let mut rebuilt = false;
        for (i, updates) in batches.iter().enumerate() {
            let lossy = engine.validate_lossy(updates.clone());
            assert!(
                i == 0 || !lossy.rejected.is_empty(),
                "{name}: riders rejected"
            );
            truth.apply_batch(lossy.survivors());
            let report = engine.apply_batch_trusted(lossy.proof()).unwrap();
            rebuilt |= i > 0 && report.rebuilt;

            let delta = engine.take_matching_delta();
            let current: BTreeSet<EdgeId> = engine.matching().collect();
            assert!(delta.removed.windows(2).all(|w| w[0] < w[1]), "{name}");
            assert!(delta.added.windows(2).all(|w| w[0].id < w[1].id), "{name}");
            let mut folded = previous.clone();
            for id in &delta.removed {
                assert!(
                    folded.remove(id).is_some(),
                    "{name}, batch {i}: removed {id} was not matched at the previous take"
                );
            }
            for edge in &delta.added {
                let live = truth
                    .edge(edge.id)
                    .unwrap_or_else(|| panic!("{name}, batch {i}: added {} is not live", edge.id));
                assert_eq!(edge.vertices(), live.vertices(), "{name}: stale endpoints");
                // An added id is new to the matching, or was removed with
                // other endpoints (deleted and re-inserted under its id).
                if let Some(was) = previous.get(&edge.id) {
                    assert!(delta.removed.contains(&edge.id), "{name}: {} kept", edge.id);
                    assert_ne!(was.as_slice(), edge.vertices(), "{name}: no-op replace");
                }
                assert!(
                    folded.insert(edge.id, edge.vertices().to_vec()).is_none(),
                    "{name}, batch {i}: added {} was matched already",
                    edge.id
                );
            }
            assert_eq!(
                folded.keys().copied().collect::<BTreeSet<_>>(),
                current,
                "{name}, batch {i}: previous - removed + added != matching()"
            );
            assert_eq!(engine.matching_size(), engine.matching().count(), "{name}");

            // A restored twin's first take is its whole matching.
            let blob = engine.save_state().expect("every engine serializes");
            let mut restored = engine::build(kind, &builder);
            restored.restore_state(&blob).unwrap();
            let whole = restored.take_matching_delta();
            assert!(whole.removed.is_empty(), "{name}: restore removed edges");
            let restored_ids: BTreeSet<EdgeId> = whole.added.iter().map(|e| e.id).collect();
            assert_eq!(restored_ids, current, "{name}, batch {i}: restored delta");
            for edge in &whole.added {
                assert_eq!(folded[&edge.id].as_slice(), edge.vertices(), "{name}");
            }
            previous = folded;
        }
        if kind == EngineKind::Parallel {
            assert!(rebuilt, "the stream must be long enough for a rebuild");
        }
    }
}

#[test]
fn metrics_count_updates_uniformly_across_engines() {
    let w = streams::random_churn(80, 2, 150, 10, 25, 0.5, 23);
    let total = w.total_updates() as u64;
    let insertions = w.total_insertions() as u64;
    for mut engine in engines_for(&w, 9) {
        let reports = engine.apply_all(&w.batches).unwrap();
        let metrics = engine.metrics();
        assert_eq!(metrics.batches, w.batches.len() as u64, "{}", engine.name());
        assert_eq!(metrics.updates, total, "{}", engine.name());
        assert_eq!(metrics.insertions, insertions, "{}", engine.name());
        assert_eq!(metrics.deletions, total - insertions, "{}", engine.name());
        assert!(metrics.work > 0, "{}", engine.name());
        let report_sum: u64 = reports.iter().map(|r| r.batch_size as u64).sum();
        assert_eq!(report_sum, total, "{}", engine.name());
    }
}

#[test]
fn rebuilt_flag_is_pinned_per_engine() {
    // The recompute engines throw the matching away and rebuild it on every
    // batch, so they must say so; the incremental-repair baselines never
    // rebuild; the parallel algorithm rebuilds only on `N`-doubling batches
    // (suppressed here by a generous capacity hint).
    let w = streams::random_churn(60, 2, 120, 10, 25, 0.5, 19);
    for kind in EngineKind::ALL {
        let rebuilds_every_batch = matches!(
            kind,
            EngineKind::RecomputeSequential | EngineKind::StaticRecompute
        );
        let builder = EngineBuilder::new(w.num_vertices)
            .rank(2)
            .seed(3)
            .capacity_hint(10 * w.total_updates());
        let mut engine = engine::build(kind, &builder);
        for batch in &w.batches {
            let report = engine.apply_batch(batch).unwrap();
            assert_eq!(
                report.rebuilt,
                rebuilds_every_batch,
                "{} misreports the rebuilt flag",
                engine.name()
            );
            assert_eq!(
                report.metrics.rebuilds,
                u64::from(rebuilds_every_batch),
                "{} misreports the per-batch rebuild count",
                engine.name()
            );
        }
        let expected_rebuilds = if rebuilds_every_batch {
            w.batches.len() as u64
        } else {
            0
        };
        assert_eq!(
            engine.metrics().rebuilds,
            expected_rebuilds,
            "{} miscounts lifetime rebuilds",
            engine.name()
        );
    }
}

#[test]
fn empty_batches_are_counter_neutral_noops_on_every_engine() {
    let builder = EngineBuilder::new(6).rank(2).seed(5);
    for kind in EngineKind::ALL {
        let mut engine = engine::build(kind, &builder);
        let name = engine.name();
        let report = engine.apply_batch(&[]).unwrap();
        assert_eq!(report, BatchReport::default(), "{name}");
        assert_eq!(engine.metrics(), EngineMetrics::default(), "{name}");

        engine
            .apply_batch(&[Update::Insert(HyperEdge::pair(
                EdgeId(0),
                VertexId(0),
                VertexId(1),
            ))])
            .unwrap();
        let before = engine.metrics();
        let report = engine.apply_batch(&[]).unwrap();
        assert_eq!(report.batch_size, 0, "{name}");
        assert_eq!(report.matching_size, 1, "{name}");
        assert_eq!(report.metrics, EngineMetrics::default(), "{name}");
        assert_eq!(
            engine.metrics(),
            before,
            "{name}: an empty batch mutated counters"
        );
        engine.verify().unwrap();
    }
}

#[test]
fn per_batch_metric_deltas_sum_to_lifetime_metrics() {
    let w = streams::random_churn(70, 2, 140, 10, 25, 0.5, 27);
    for mut engine in engines_for(&w, 13) {
        let mut sum = EngineMetrics::default();
        for batch in &w.batches {
            let report = engine.apply_batch(batch).unwrap();
            assert_eq!(report.metrics.batches, 1, "{}", engine.name());
            assert_eq!(
                report.metrics.updates,
                batch.len() as u64,
                "{}",
                engine.name()
            );
            assert_eq!(report.metrics.work, report.work, "{}", engine.name());
            assert_eq!(report.metrics.depth, report.depth, "{}", engine.name());
            sum.merge(&report.metrics);
        }
        assert_eq!(
            sum,
            engine.metrics(),
            "{}: per-batch deltas drift from lifetime metrics",
            engine.name()
        );
    }
}

#[test]
fn lossy_ingest_commits_the_same_surviving_subset_with_identical_rejections() {
    // A dirty ingest stream: valid updates interleaved with every error kind.
    // Every engine must commit exactly the same surviving subset and report
    // exactly the same per-update rejections, in the same order.
    let dirty: Vec<Update> = vec![
        Update::Insert(HyperEdge::pair(EdgeId(2), VertexId(4), VertexId(5))), // 0: ok
        Update::Insert(HyperEdge::pair(EdgeId(0), VertexId(2), VertexId(3))), // 1: live id
        Update::Delete(EdgeId(42)),                                           // 2: unknown
        Update::Delete(EdgeId(0)),                                            // 3: ok
        Update::Delete(EdgeId(0)),                                            // 4: exact dup
        Update::Insert(HyperEdge::pair(EdgeId(2), VertexId(4), VertexId(5))), // 5: exact dup
        Update::Insert(HyperEdge::pair(EdgeId(2), VertexId(0), VertexId(5))), // 6: conflict
        Update::Insert(HyperEdge::new(
            EdgeId(9),
            vec![VertexId(0), VertexId(1), VertexId(2)],
        )), // 7: rank
        Update::Insert(HyperEdge::pair(EdgeId(9), VertexId(0), VertexId(77))), // 8: range
        Update::Insert(HyperEdge::pair(EdgeId(0), VertexId(2), VertexId(3))), // 9: reinsert, ok
        Update::Delete(EdgeId(1)),                                            // 10: ok
    ];
    let expected_rejections: Vec<(usize, BatchError)> = vec![
        (1, BatchError::DuplicateEdgeId { id: EdgeId(0) }),
        (2, BatchError::UnknownDeletion { id: EdgeId(42) }),
        (6, BatchError::DuplicateEdgeId { id: EdgeId(2) }),
        (
            7,
            BatchError::RankExceeded {
                id: EdgeId(9),
                rank: 3,
                max_rank: 2,
            },
        ),
        (
            8,
            BatchError::VertexOutOfRange {
                id: EdgeId(9),
                vertex: VertexId(77),
                num_vertices: 8,
            },
        ),
    ];
    let expected_survivors = [0, 3, 9, 10].map(|i| dirty[i].clone());
    let builder = EngineBuilder::new(8).rank(2).seed(11);
    for kind in EngineKind::ALL {
        let mut engine = engine::build(kind, &builder);
        let name = engine.name();
        // Prime the engines with two live edges so live-id and deletion cases fire.
        engine
            .apply_batch(&[
                Update::Insert(HyperEdge::pair(EdgeId(0), VertexId(0), VertexId(1))),
                Update::Insert(HyperEdge::pair(EdgeId(1), VertexId(2), VertexId(3))),
            ])
            .unwrap();
        let lossy = engine.validate_lossy(dirty.clone());
        assert_eq!(lossy.survivors(), expected_survivors.as_slice(), "{name}");
        assert_eq!(lossy.deduplicated, 2, "{name}: exact repeats drop");
        let got: Vec<(usize, BatchError)> = lossy
            .rejected
            .iter()
            .map(|r| (r.index, r.error.clone()))
            .collect();
        assert_eq!(got, expected_rejections, "{name}");
        let report = engine.apply_batch_trusted(lossy.proof()).unwrap();
        assert_eq!(report.batch_size, 4, "{name}");
        assert_eq!(
            report.batch_size + lossy.deduplicated + lossy.rejected.len(),
            dirty.len(),
            "{name}: every offered update is accounted for"
        );
        // The surviving subset is committed: 0 reinserted, 1 gone, 2 live.
        assert!(engine.contains_edge(EdgeId(0)), "{name}");
        assert!(!engine.contains_edge(EdgeId(1)), "{name}");
        assert!(engine.contains_edge(EdgeId(2)), "{name}");
        assert!(!engine.contains_edge(EdgeId(9)), "{name}");
        assert_eq!(engine.matching_size(), 2, "{name}");
        engine.verify().unwrap();
    }
}

#[test]
fn lossy_validation_deduplicates_identically_for_every_engine() {
    // Exact repeats are the one kind of illegal update the lossy validator
    // drops silently; the strict validator refuses the same batch.
    let e0 = Update::Insert(HyperEdge::pair(EdgeId(0), VertexId(0), VertexId(1)));
    let e1 = Update::Insert(HyperEdge::pair(EdgeId(1), VertexId(2), VertexId(3)));
    let offered = vec![e0.clone(), e0.clone(), e1.clone()];
    let builder = EngineBuilder::new(8).rank(2).seed(11);
    for kind in EngineKind::ALL {
        let mut engine = engine::build(kind, &builder);
        let name = engine.name();
        assert_eq!(
            engine.validate(&offered).err(),
            Some(BatchError::DuplicateEdgeId { id: EdgeId(0) }),
            "{name}"
        );
        let lossy = engine.validate_lossy(offered.clone());
        assert_eq!(
            lossy.survivors(),
            [e0.clone(), e1.clone()].as_slice(),
            "{name}"
        );
        assert_eq!(lossy.deduplicated, 1, "{name}: exact dup drops");
        assert!(lossy.rejected.is_empty(), "{name}");
        let report = engine.apply_batch_trusted(lossy.proof()).unwrap();
        assert_eq!(report.batch_size, 2, "{name}");
        assert_eq!(engine.matching_size(), 2, "{name}");

        // Repeated deletions of one live id collapse the same way.
        let lossy = engine.validate_lossy(vec![Update::Delete(EdgeId(0)); 3]);
        assert_eq!(
            lossy.survivors(),
            [Update::Delete(EdgeId(0))].as_slice(),
            "{name}"
        );
        assert_eq!(lossy.deduplicated, 2, "{name}");
        assert!(lossy.rejected.is_empty(), "{name}");
        engine.apply_batch_trusted(lossy.proof()).unwrap();
        assert_eq!(engine.matching_ids(), vec![EdgeId(1)], "{name}");
        engine.verify().unwrap();
    }
}
