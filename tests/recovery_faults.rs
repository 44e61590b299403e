//! Crash/fault-injection recovery suite: checkpointed durability under torn
//! writes, truncated tails and arbitrary kill points.
//!
//! The contract under test (see `pdmm::checkpoint`):
//!
//! * recovery from (checkpoint + journal tail) is **bit-identical** to a
//!   clean replay of the same committed history — same engine state blob,
//!   same snapshot, same journal — on all five engines, at 1 and 4 shards;
//! * a torn or truncated final journal block recovers to the last *complete*
//!   block: never a panic, never a resurrected uncommitted batch — not even
//!   when the tear lands exactly on a line boundary and the update lines all
//!   survive;
//! * a checkpoint from a differently-configured run (engine kind, vertex
//!   space, rank, shard count, format version) is rejected with a typed
//!   error, never silently restored, and so is one whose engine state names
//!   an edge the journal tail does not know;
//! * a file journal is append-only and a checkpoint deletes none of it, so
//!   a stored checkpoint plus the salvaged file recovers even after a later
//!   checkpoint is lost before it is stored;
//! * a checkpoint's `tailskip` equals the blocks its journal holds, counted
//!   as they are appended rather than by reading the journal back;
//! * counters restored at `u64::MAX` saturate on the next batch instead of
//!   overflowing, in one service and in the sums over shards.

use pdmm::checkpoint::{CheckpointError, FaultSink};
use pdmm::engine;
use pdmm::hypergraph::io;
use pdmm::hypergraph::streams::{self, Workload};
use pdmm::prelude::*;
use pdmm::service::{FileJournal, JournalSink, MemoryJournal};

fn serve_workload() -> Workload {
    streams::random_churn(100, 2, 160, 12, 30, 0.5, 41)
}

/// The workload's batches with empty ones dropped: empty batches commit but
/// leave no journal block, so block counts and committed counts only line up
/// batch-for-batch on a stream without them.
fn nonempty_batches(workload: &Workload) -> Vec<UpdateBatch> {
    workload
        .batches
        .iter()
        .filter(|b| !b.is_empty())
        .cloned()
        .collect()
}

fn builder_for(workload: &Workload, seed: u64) -> EngineBuilder {
    EngineBuilder::new(workload.num_vertices)
        .rank(workload.rank.max(2))
        .seed(seed)
}

fn mem() -> Box<dyn JournalSink> {
    Box::new(MemoryJournal::new())
}

/// Deterministic splitmix-style generator for kill points.
fn next_rand(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Deterministic post-recovery batches over fresh, never-used edge ids (the
/// serve workloads start ids at 0, so a second generated workload would
/// collide with edges still live from the first).
fn continuation_batches(num_vertices: usize, count: usize, rng: &mut u64) -> Vec<UpdateBatch> {
    (0..count)
        .map(|i| {
            let updates = (0..8u64)
                .map(|j| {
                    let a = (next_rand(rng) % num_vertices as u64) as u32;
                    let mut b = (next_rand(rng) % num_vertices as u64) as u32;
                    if b == a {
                        b = (b + 1) % num_vertices as u32;
                    }
                    Update::Insert(HyperEdge::pair(
                        EdgeId(1_000_000 + i as u64 * 8 + j),
                        VertexId(a),
                        VertexId(b),
                    ))
                })
                .collect();
            UpdateBatch::new(updates).unwrap()
        })
        .collect()
}

/// Bytes handed to `append_block` for the blocks of a journal text (what
/// `FaultSink` byte offsets count): each block's trimmed text plus its
/// trailing newline, separators excluded.
fn appended_bytes(journal: &str) -> u64 {
    io::journal_blocks(journal)
        .iter()
        .map(|b| b.len() as u64 + 1)
        .sum()
}

// ---------------------------------------------------------------------------
// Clean checkpoint + tail recovery, every engine
// ---------------------------------------------------------------------------

#[test]
fn recovery_from_checkpoint_plus_tail_is_bit_identical_on_every_engine() {
    let workload = serve_workload();
    let batches = nonempty_batches(&workload);
    let mid = batches.len() / 2;
    for kind in EngineKind::ALL {
        let builder = builder_for(&workload, 7);
        let service = EngineService::new(engine::build(kind, &builder));
        for batch in &batches[..mid] {
            service.submit(batch.clone());
            service.drain().unwrap();
        }
        let checkpoint = service.checkpoint().unwrap();
        for batch in &batches[mid..] {
            service.submit(batch.clone());
            service.drain().unwrap();
        }

        // "Crash": all that survives is the checkpoint and the journal.
        let survived = service.journal();
        let recovered =
            EngineService::recover(engine::build(kind, &builder), &checkpoint, &survived, mem())
                .unwrap();

        // Bit-identical to the service that never crashed: engine state blob,
        // snapshot, committed count, journal.
        assert_eq!(recovered.save_state(), service.save_state(), "{kind}");
        assert_eq!(
            recovered.snapshot().edge_ids(),
            service.snapshot().edge_ids(),
            "{kind}"
        );
        assert_eq!(
            recovered.snapshot().committed_batches(),
            batches.len() as u64,
            "{kind}"
        );
        assert_eq!(recovered.journal(), survived, "{kind}");

        // And it keeps serving identically: the same further batches produce
        // the same state on both.
        let mut cont_rng = 97u64;
        for batch in continuation_batches(workload.num_vertices, 6, &mut cont_rng) {
            recovered.submit(batch.clone());
            service.submit(batch);
        }
        recovered.drain().unwrap();
        service.drain().unwrap();
        assert_eq!(recovered.save_state(), service.save_state(), "{kind}");
        assert_eq!(
            recovered.snapshot().edge_ids(),
            service.snapshot().edge_ids(),
            "{kind}"
        );
    }
}

// ---------------------------------------------------------------------------
// Random kill points, every engine
// ---------------------------------------------------------------------------

#[test]
fn random_kill_points_recover_exactly_the_committed_prefix() {
    let workload = serve_workload();
    let batches = nonempty_batches(&workload);
    let mid = batches.len() / 3;
    let mut rng = 0x9e3779b97f4a7c15u64;
    for kind in EngineKind::ALL {
        let builder = builder_for(&workload, 23);

        // Scout run: learn the journal's byte layout so kill points can be
        // placed after the checkpoint (before it, nothing is lost).
        let scout = EngineService::new(engine::build(kind, &builder));
        let mut bytes_at_mid = 0u64;
        for (i, batch) in batches.iter().enumerate() {
            scout.submit(batch.clone());
            scout.drain().unwrap();
            if i + 1 == mid {
                bytes_at_mid = appended_bytes(&scout.journal());
            }
        }
        let total_bytes = appended_bytes(&scout.journal());
        assert!(total_bytes > bytes_at_mid + 1);

        for _ in 0..4 {
            // A kill point strictly inside the post-checkpoint tail, and at
            // least two bytes short of the end — a cut at `total - 1` would
            // lose only the final newline, leaving the last trailer intact
            // (a complete block, legitimately recoverable).
            let kill = bytes_at_mid + 1 + next_rand(&mut rng) % (total_bytes - bytes_at_mid - 2);
            let service = EngineService::new(engine::build(kind, &builder))
                .with_journal(Box::new(FaultSink::torn_at_byte(mem(), kill)));
            for batch in &batches[..mid] {
                service.submit(batch.clone());
                service.drain().unwrap();
            }
            let checkpoint = service.checkpoint().unwrap();
            for batch in &batches[mid..] {
                service.submit(batch.clone());
                service.drain().unwrap();
            }

            let survived = service.journal();
            let recovered = EngineService::recover(
                engine::build(kind, &builder),
                &checkpoint,
                &survived,
                mem(),
            )
            .unwrap_or_else(|e| panic!("{kind} kill at byte {kill}: {e}"));

            // The kill fired inside the tail, so some committed batches never
            // reached the journal — and exactly the journaled prefix is back.
            let committed = recovered.snapshot().committed_batches();
            assert!(committed >= mid as u64, "{kind} kill at byte {kill}");
            assert!(
                committed < batches.len() as u64,
                "{kind} kill at byte {kill}"
            );
            assert_eq!(
                io::journal_blocks(&recovered.journal()).len() as u64,
                committed,
                "{kind} kill at byte {kill}: no uncommitted batch may be resurrected"
            );

            // Bit-identical to the clean twin that applied that exact prefix.
            let twin = EngineService::new(engine::build(kind, &builder));
            for batch in &batches[..committed as usize] {
                twin.submit(batch.clone());
                twin.drain().unwrap();
            }
            assert_eq!(
                recovered.save_state(),
                twin.save_state(),
                "{kind} kill at byte {kill}"
            );
            assert_eq!(
                recovered.snapshot().edge_ids(),
                twin.snapshot().edge_ids(),
                "{kind} kill at byte {kill}"
            );
            assert_eq!(
                recovered.journal(),
                twin.journal(),
                "{kind} kill at byte {kill}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Torn-tail semantics, surgically
// ---------------------------------------------------------------------------

#[test]
fn a_torn_tail_is_dropped_even_when_it_tears_on_a_line_boundary() {
    let workload = serve_workload();
    let batches = nonempty_batches(&workload);
    let builder = builder_for(&workload, 5);
    let service = EngineService::new(engine::build(EngineKind::Parallel, &builder));
    service.submit(batches[0].clone());
    service.drain().unwrap();
    let checkpoint = service.checkpoint().unwrap();
    service.submit(batches[1].clone());
    service.drain().unwrap();
    let journal = service.journal();

    let twin_after_one = EngineService::new(engine::build(EngineKind::Parallel, &builder));
    twin_after_one.submit(batches[0].clone());
    twin_after_one.drain().unwrap();

    // Tear the final block around its trailer line.  The nastiest case is the
    // exact line boundary where every update line of the uncommitted batch
    // survives intact and only the trailer is missing: the block parses, and
    // recovery must *still* refuse to resurrect it.  (A cut that keeps the
    // whole trailer text and loses only the final newline is the one torn
    // shape that IS complete — the batch fully journaled — so it recovers.)
    let trailer = "# commit";
    let tail_trailer = journal.rfind(trailer).unwrap();
    for (cut, expect_committed) in [
        (tail_trailer, 1),                   // line boundary: updates whole
        (tail_trailer + 3, 1),               // mid-trailer
        (tail_trailer.saturating_sub(4), 1), // mid-update-line
        (journal.len() - 1, 2),              // only the final newline lost
    ] {
        let torn = &journal[..cut];
        let recovered = EngineService::recover(
            engine::build(EngineKind::Parallel, &builder),
            &checkpoint,
            torn,
            mem(),
        )
        .unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
        assert_eq!(
            recovered.snapshot().committed_batches(),
            expect_committed,
            "cut at {cut}: exactly the complete blocks come back"
        );
        let expected_twin = if expect_committed == 1 {
            &twin_after_one
        } else {
            &service
        };
        assert_eq!(
            recovered.save_state(),
            expected_twin.save_state(),
            "cut at {cut}"
        );
    }

    // A hole *before* a complete block is corruption, not a crash artifact.
    let first_trailer = journal.find(trailer).unwrap();
    let holed = format!(
        "{}{}",
        &journal[..first_trailer],
        &journal[first_trailer + trailer.len() + 1..]
    );
    let err = EngineService::recover(
        engine::build(EngineKind::Parallel, &builder),
        &checkpoint,
        &holed,
        mem(),
    )
    .unwrap_err();
    assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err}");

    // A journal shorter than the checkpoint's coverage is corruption too.
    let err = EngineService::recover(
        engine::build(EngineKind::Parallel, &builder),
        &checkpoint,
        "",
        mem(),
    )
    .unwrap_err();
    assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err}");
}

#[test]
fn short_writes_leave_a_hole_recovery_refuses() {
    let workload = serve_workload();
    let batches = nonempty_batches(&workload);
    let builder = builder_for(&workload, 31);
    // The second append is cut short while the sink keeps running: block 2 is
    // damaged, block 3 is complete — a mid-journal hole, not a torn tail.
    // The cut lands on a line boundary (first update line kept, trailer and
    // the rest lost) so the hole keeps its own block framing; a sub-line cut
    // would merge into the following block, which a checksum-less text format
    // cannot distinguish from data.
    let keep = io::batches_to_string(std::slice::from_ref(&batches[1]))
        .lines()
        .next()
        .unwrap()
        .len()
        + 1;
    let service = EngineService::new(engine::build(EngineKind::Parallel, &builder))
        .with_journal(Box::new(FaultSink::short_write(mem(), 2, keep)));
    let checkpoint = {
        service.submit(batches[0].clone());
        service.drain().unwrap();
        service.checkpoint().unwrap()
    };
    for batch in &batches[1..4] {
        service.submit(batch.clone());
        service.drain().unwrap();
    }
    let err = EngineService::recover(
        engine::build(EngineKind::Parallel, &builder),
        &checkpoint,
        &service.journal(),
        mem(),
    )
    .unwrap_err();
    assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err}");
}

// ---------------------------------------------------------------------------
// Fingerprinting
// ---------------------------------------------------------------------------

#[test]
fn a_checkpoint_from_another_configuration_is_rejected_with_a_typed_error() {
    let workload = serve_workload();
    let batches = nonempty_batches(&workload);
    let builder = builder_for(&workload, 11);
    let service = EngineService::new(engine::build(EngineKind::Parallel, &builder));
    service.submit(batches[0].clone());
    service.drain().unwrap();
    let checkpoint = service.checkpoint().unwrap();
    let journal = service.journal();

    // Wrong vertex-space size.
    let small = EngineBuilder::new(workload.num_vertices - 1)
        .rank(workload.rank.max(2))
        .seed(11);
    let err = EngineService::recover(
        engine::build(EngineKind::Parallel, &small),
        &checkpoint,
        &journal,
        mem(),
    )
    .unwrap_err();
    assert!(
        matches!(
            err,
            CheckpointError::Fingerprint {
                field: "vertices",
                ..
            }
        ),
        "{err}"
    );

    // Wrong engine kind.
    let err = EngineService::recover(
        engine::build(EngineKind::NaiveSequential, &builder),
        &checkpoint,
        &journal,
        mem(),
    )
    .unwrap_err();
    assert!(
        matches!(
            err,
            CheckpointError::Fingerprint {
                field: "engine",
                ..
            }
        ),
        "{err}"
    );

    // Wrong rank bound.
    let wide = EngineBuilder::new(workload.num_vertices).rank(7).seed(11);
    let err = EngineService::recover(
        engine::build(EngineKind::Parallel, &wide),
        &checkpoint,
        &journal,
        mem(),
    )
    .unwrap_err();
    assert!(
        matches!(err, CheckpointError::Fingerprint { field: "rank", .. }),
        "{err}"
    );

    // The seed is *not* fingerprinted: the RNG position is restored wholesale
    // from the engine state, so a differently-seeded recovering engine lands
    // on the same state — and keeps evolving identically.
    let reseeded = builder_for(&workload, 999);
    let recovered = EngineService::recover(
        engine::build(EngineKind::Parallel, &reseeded),
        &checkpoint,
        &journal,
        mem(),
    )
    .unwrap();
    assert_eq!(recovered.save_state(), service.save_state());

    // An unknown version line is typed, not a parse panic — and so is the
    // previous format's, whose shard sections also stored the graph.
    let tampered = checkpoint.replacen("pdmm-checkpoint v2", "pdmm-checkpoint v1", 1);
    let err = EngineService::recover(
        engine::build(EngineKind::Parallel, &builder),
        &tampered,
        &journal,
        mem(),
    )
    .unwrap_err();
    assert!(matches!(err, CheckpointError::Version { .. }), "{err}");

    // A sharded checkpoint does not recover into a bare service, and a
    // sharded recover demands the matching shard count.
    let sharded = ShardedService::new(
        (0..2)
            .map(|_| engine::build(EngineKind::Parallel, &builder))
            .collect(),
    );
    sharded.submit(batches[0].clone());
    sharded.drain().unwrap();
    let sharded_checkpoint = sharded.checkpoint().unwrap();
    let err = EngineService::recover(
        engine::build(EngineKind::Parallel, &builder),
        &sharded_checkpoint,
        &journal,
        mem(),
    )
    .unwrap_err();
    assert!(
        matches!(
            err,
            CheckpointError::Fingerprint {
                field: "shards",
                ..
            }
        ),
        "{err}"
    );
    let err = ShardedService::recover(
        (0..3)
            .map(|_| engine::build(EngineKind::Parallel, &builder))
            .collect(),
        Box::new(pdmm::sharding::HashPartitioner),
        &sharded_checkpoint,
        &[String::new(), String::new(), String::new()],
        vec![mem(), mem(), mem()],
    )
    .unwrap_err();
    assert!(
        matches!(
            err,
            CheckpointError::Fingerprint {
                field: "shards",
                ..
            }
        ),
        "{err}"
    );
}

#[test]
fn a_renamed_edge_in_a_checkpoint_is_a_typed_error_on_every_engine() {
    // A checkpoint stores each edge once, in the engine's state.  Rename one
    // edge there and let the journal tail delete it under its real id:
    // recovery must refuse with a typed error, never panic in the service's
    // graph upkeep.
    let workload = serve_workload();
    let batches = nonempty_batches(&workload);
    let mid = batches.len() / 2;
    for kind in EngineKind::ALL {
        let builder = builder_for(&workload, 7);
        let service = EngineService::new(engine::build(kind, &builder));
        for batch in &batches[..mid] {
            service.submit(batch.clone());
            service.drain().unwrap();
        }
        let checkpoint = service.checkpoint().unwrap();
        let mut renamed = None;
        let tampered: String = checkpoint
            .lines()
            .map(|line| match line.strip_prefix("e ") {
                Some(rest) if renamed.is_none() => {
                    let (id, tail) = rest.split_once(' ').expect("an edge line");
                    let id: u64 = id.parse().expect("an edge id");
                    renamed = Some(EdgeId(id));
                    format!("e {} {tail}\n", 9_000_000 + id)
                }
                _ => format!("{line}\n"),
            })
            .collect();
        let renamed = renamed.expect("the engine state lists a live edge");
        service.submit(UpdateBatch::new(vec![Update::Delete(renamed)]).unwrap());
        service.drain().unwrap();

        let err = EngineService::recover(
            engine::build(kind, &builder),
            &tampered,
            &service.journal(),
            mem(),
        )
        .expect_err("the tail deletes an edge the restored state lacks");
        assert!(
            matches!(
                err,
                CheckpointError::State(_) | CheckpointError::Batch { .. }
            ),
            "{kind}: {err}"
        );
    }
}

// ---------------------------------------------------------------------------
// Sharded recovery, every engine, 1 and 4 shards
// ---------------------------------------------------------------------------

#[test]
fn sharded_torn_kill_recovers_bit_identical_to_clean_replay_at_1_and_4_shards() {
    let workload = serve_workload();
    let batches = nonempty_batches(&workload);
    let mid = batches.len() / 2;
    let mut rng = 0x0123456789abcdefu64;
    for kind in EngineKind::ALL {
        for shards in [1usize, 4] {
            let builder = builder_for(&workload, 13);
            let engines =
                || -> Vec<_> { (0..shards).map(|_| engine::build(kind, &builder)).collect() };

            // Scout run: learn the victim shard's journal byte layout.
            let scout = ShardedService::new(engines());
            let mut victim_bytes_at_mid = 0u64;
            for (i, batch) in batches.iter().enumerate() {
                scout.submit(batch.clone());
                scout.drain().unwrap();
                if i + 1 == mid {
                    victim_bytes_at_mid = appended_bytes(&scout.shard_journal(0));
                }
            }
            let victim_total = appended_bytes(&scout.shard_journal(0));
            assert!(victim_total > victim_bytes_at_mid + 1, "{kind}/{shards}");

            // Real run: shard 0 gets the torn sink, the crash point strictly
            // inside its post-checkpoint tail.
            let kill = victim_bytes_at_mid
                + 1
                + next_rand(&mut rng) % (victim_total - victim_bytes_at_mid - 1);
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

            // "Crash": salvage every shard's surviving journal, recover.
            let journals: Vec<String> = (0..shards).map(|k| service.shard_journal(k)).collect();
            let sinks = (0..shards).map(|_| mem()).collect();
            let recovered = ShardedService::recover(
                engines(),
                Box::new(pdmm::sharding::HashPartitioner),
                &checkpoint,
                &journals,
                sinks,
            )
            .unwrap_or_else(|e| panic!("{kind}/{shards} kill at byte {kill}: {e}"));

            // The victim shard lost its tail; the journaled prefix is back
            // and nothing uncommitted was resurrected.
            let victim_committed = recovered.shard_snapshot(0).committed_batches();
            assert_eq!(
                io::journal_blocks(&recovered.shard_journal(0)).len() as u64,
                victim_committed,
                "{kind}/{shards} kill at byte {kill}"
            );
            assert!(
                victim_committed < service.shard_snapshot(0).committed_batches(),
                "{kind}/{shards} kill at byte {kill}: the kill point must lose data"
            );

            // Bit-identical to a clean replay of the recovered history: every
            // shard's engine state blob, journal, and the arbitrated matching.
            let twin = ShardedService::replay(engines(), &recovered.journal())
                .unwrap_or_else(|e| panic!("{kind}/{shards} kill at byte {kill}: {e}"));
            for k in 0..shards {
                assert_eq!(
                    recovered.shard_state(k),
                    twin.shard_state(k),
                    "{kind}/{shards} shard {k} kill at byte {kill}"
                );
                assert_eq!(
                    recovered.shard_journal(k),
                    twin.shard_journal(k),
                    "{kind}/{shards} shard {k} kill at byte {kill}"
                );
            }
            assert_eq!(
                recovered.snapshot().arbitrated_matching(),
                twin.snapshot().arbitrated_matching(),
                "{kind}/{shards} kill at byte {kill}"
            );

            // The rebuilt router routes further batches exactly like the
            // twin's (replay-built) router: continued service stays identical.
            let mut cont_rng = 71u64;
            for batch in continuation_batches(workload.num_vertices, 5, &mut cont_rng) {
                recovered.submit(batch.clone());
                twin.submit(batch);
                recovered.drain().unwrap();
                twin.drain().unwrap();
            }
            for k in 0..shards {
                assert_eq!(
                    recovered.shard_state(k),
                    twin.shard_state(k),
                    "{kind}/{shards} shard {k} post-recovery serving"
                );
            }
            assert_eq!(
                recovered.snapshot().arbitrated_matching(),
                twin.snapshot().arbitrated_matching(),
                "{kind}/{shards} post-recovery serving"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// File journals: salvage, crash-again, a lost checkpoint
// ---------------------------------------------------------------------------

#[test]
fn salvage_recovers_from_disk_and_survives_a_second_crash() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join("recovery_faults_salvage.log");
    let workload = serve_workload();
    let batches = nonempty_batches(&workload);
    let mid = batches.len() / 2;
    let builder = builder_for(&workload, 3);

    let service = EngineService::new(engine::build(EngineKind::Parallel, &builder))
        .with_journal(Box::new(FileJournal::create(&path).unwrap()));
    for batch in &batches[..mid] {
        service.submit(batch.clone());
        service.drain().unwrap();
    }
    let checkpoint = service.checkpoint().unwrap();
    for batch in &batches[mid..] {
        service.submit(batch.clone());
        service.drain().unwrap();
    }
    let full_state = service.save_state();
    let full_edges = service.snapshot().edge_ids();
    drop(service);

    // Post-crash: salvage reads the journal file without touching it; the
    // recovered service journals into a fresh file.
    let salvaged = FileJournal::salvage(&path).unwrap();
    let next_path = dir.join("recovery_faults_salvage_next.log");
    let recovered = EngineService::recover(
        engine::build(EngineKind::Parallel, &builder),
        &checkpoint,
        &salvaged,
        Box::new(FileJournal::create(&next_path).unwrap()),
    )
    .unwrap();
    assert_eq!(recovered.save_state(), full_state);
    assert_eq!(recovered.snapshot().edge_ids(), full_edges);
    assert_eq!(
        recovered.snapshot().committed_batches(),
        batches.len() as u64
    );

    // Era model: the recovered service can re-checkpoint and survive a second
    // crash before *or* after it, from the re-appended journal alone.
    let second_checkpoint = recovered.checkpoint().unwrap();
    let mut cont_rng = 57u64;
    let more = continuation_batches(workload.num_vertices, 4, &mut cont_rng);
    for batch in &more {
        recovered.submit(batch.clone());
        recovered.drain().unwrap();
    }
    let twice = EngineService::recover(
        engine::build(EngineKind::Parallel, &builder),
        &second_checkpoint,
        &FileJournal::salvage(&next_path).unwrap(),
        mem(),
    )
    .unwrap();
    assert_eq!(twice.save_state(), recovered.save_state());
    assert_eq!(
        twice.snapshot().committed_batches(),
        (batches.len() + more.len()) as u64
    );
}

#[test]
fn a_stored_checkpoint_recovers_after_a_later_one_is_lost() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join("recovery_faults_lost_checkpoint.log");
    let stored = dir.join("recovery_faults_lost_checkpoint.ckpt");
    let workload = serve_workload();
    let batches = nonempty_batches(&workload);
    let (first, second) = (batches.len() / 3, 2 * batches.len() / 3);
    let builder = builder_for(&workload, 23);

    let service = EngineService::new(engine::build(EngineKind::Parallel, &builder))
        .with_journal(Box::new(FileJournal::create(&path).unwrap()));
    for batch in &batches[..first] {
        service.submit(batch.clone());
        service.drain().unwrap();
    }
    pdmm::checkpoint::store_checkpoint(&stored, &service.checkpoint().unwrap()).unwrap();
    for batch in &batches[first..second] {
        service.submit(batch.clone());
        service.drain().unwrap();
    }
    // A later checkpoint is taken but never stored: the process died before
    // `store_checkpoint`, or the store failed.
    let _lost = service.checkpoint().unwrap();
    for batch in &batches[second..] {
        service.submit(batch.clone());
        service.drain().unwrap();
    }
    let full_state = service.save_state();
    let committed = service.snapshot().committed_batches();
    drop(service);

    // The stored checkpoint still covers a prefix of the file journal, which
    // taking the lost one deleted nothing from.
    let recovered = EngineService::recover(
        engine::build(EngineKind::Parallel, &builder),
        &pdmm::checkpoint::load_checkpoint(&stored).unwrap(),
        &FileJournal::salvage(&path).unwrap(),
        mem(),
    )
    .unwrap();
    assert_eq!(recovered.save_state(), full_state);
    assert_eq!(recovered.snapshot().committed_batches(), committed);
    assert_eq!(committed, batches.len() as u64);
}

/// The `tailskip` of every shard section of a checkpoint, in shard order.
fn tail_skips(checkpoint: &str) -> Vec<usize> {
    checkpoint
        .lines()
        .filter_map(|line| line.strip_prefix("tailskip "))
        .map(|n| n.parse().unwrap())
        .collect()
}

#[test]
fn a_checkpoint_covers_exactly_the_journaled_blocks_after_every_kind_of_drain() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let workload = serve_workload();
    let batches = nonempty_batches(&workload);
    let builder = builder_for(&workload, 3);
    let blocks = |journal: &str| io::journal_blocks(journal).len();
    let covers_journal = |service: &EngineService, label: &str| {
        let checkpoint = service.checkpoint().unwrap();
        assert_eq!(
            tail_skips(&checkpoint),
            [blocks(&service.journal())],
            "{label}"
        );
        checkpoint
    };
    let all_rejected = || UpdateBatch::new(vec![Update::Delete(EdgeId(u64::MAX))]).unwrap();

    let path = dir.join("recovery_faults_tail_count.log");
    let service = EngineService::new(engine::build(EngineKind::Parallel, &builder))
        .with_journal(Box::new(FileJournal::create(&path).unwrap()));
    covers_journal(&service, "fresh");
    let mid = batches.len() / 2;
    let mut checkpoint = String::new();
    for (i, batch) in batches.iter().enumerate() {
        service.submit(batch.clone());
        if i % 2 == 0 {
            service.drain().unwrap();
        } else {
            assert!(service.drain_lossy()[0].rejected.is_empty());
        }
        let taken = covers_journal(&service, &format!("batch {i}"));
        if i == mid {
            checkpoint = taken;
        }
    }
    // A strict drain refusing its batch and a lossy drain rejecting every
    // update both leave the journal as it was.
    service.submit(all_rejected());
    service.drain().unwrap_err();
    covers_journal(&service, "strict refusal");
    service.submit(all_rejected());
    assert_eq!(service.drain_lossy()[0].rejected.len(), 1);
    covers_journal(&service, "all rejected");

    // Recovery re-appends every retained block, the ones the checkpoint
    // covers included, and counts them all.
    let recovered = EngineService::recover(
        engine::build(EngineKind::Parallel, &builder),
        &checkpoint,
        &FileJournal::salvage(&path).unwrap(),
        mem(),
    )
    .unwrap();
    assert_eq!(blocks(&recovered.journal()), batches.len());
    covers_journal(&recovered, "recovered");
    let mut rng = 19u64;
    for batch in continuation_batches(workload.num_vertices, 2, &mut rng) {
        recovered.submit(batch);
        recovered.drain().unwrap();
    }
    covers_journal(&recovered, "recovered, then drained");

    // Per shard, through strict, lossy and all-rejected drains and recovery.
    let sections_cover_journals = |sharded: &ShardedService, label: &str| {
        let checkpoint = sharded.checkpoint().unwrap();
        let journaled: Vec<usize> = (0..sharded.num_shards())
            .map(|k| blocks(&sharded.shard_journal(k)))
            .collect();
        assert_eq!(tail_skips(&checkpoint), journaled, "{label}");
        checkpoint
    };
    let engines = || -> Vec<_> {
        (0..4)
            .map(|_| engine::build(EngineKind::Parallel, &builder))
            .collect()
    };
    let sharded = ShardedService::new(engines());
    let mut checkpoint = String::new();
    for (i, batch) in batches.iter().enumerate() {
        sharded.submit(batch.clone());
        if i % 2 == 0 {
            sharded.drain().unwrap();
        } else {
            assert_eq!(sharded.drain_lossy().rejected, 0);
        }
        let taken = sections_cover_journals(&sharded, &format!("sharded batch {i}"));
        if i == mid {
            checkpoint = taken;
        }
    }
    sharded.submit(all_rejected());
    assert_eq!(sharded.drain_lossy().rejected, 1);
    sections_cover_journals(&sharded, "sharded, all rejected");
    let journals: Vec<String> = (0..4).map(|k| sharded.shard_journal(k)).collect();
    let recovered = ShardedService::recover(
        engines(),
        Box::new(pdmm::sharding::HashPartitioner),
        &checkpoint,
        &journals,
        (0..4).map(|_| mem()).collect(),
    )
    .unwrap();
    sections_cover_journals(&recovered, "sharded, recovered");
}

#[test]
fn checkpoint_files_roundtrip_through_disk() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join("recovery_faults_checkpoint_file.ckpt");
    let workload = serve_workload();
    let batches = nonempty_batches(&workload);
    let builder = builder_for(&workload, 19);
    let service = EngineService::new(engine::build(EngineKind::RandomReplace, &builder));
    for batch in &batches[..6] {
        service.submit(batch.clone());
        service.drain().unwrap();
    }
    let checkpoint = service.checkpoint().unwrap();
    pdmm::checkpoint::store_checkpoint(&path, &checkpoint).unwrap();
    let loaded = pdmm::checkpoint::load_checkpoint(&path).unwrap();
    assert_eq!(loaded, checkpoint);
    let doc = pdmm::checkpoint::Checkpoint::parse(&loaded).unwrap();
    assert_eq!(doc.engine(), "random-replace-sequential");
    assert_eq!(doc.num_vertices(), workload.num_vertices);
    assert_eq!(doc.num_shards(), 1);
    assert_eq!(doc.committed_batches(), 6);
    let recovered = EngineService::recover(
        engine::build(EngineKind::RandomReplace, &builder),
        &loaded,
        &service.journal(),
        mem(),
    )
    .unwrap();
    assert_eq!(recovered.save_state(), service.save_state());
}

// ---------------------------------------------------------------------------
// A restored engine reports the same work as the live one
// ---------------------------------------------------------------------------

#[test]
fn a_restored_engine_reports_the_same_work_and_state_as_the_live_one() {
    // Seeds whose streams made a restored parallel engine charge different
    // work than its live twin while the kernel demoted and lifted nodes in
    // hash-set order: a restored engine's sets have a different insertion
    // history.  Matchings never differed, only `work`.
    for s in [12_000_036u64, 20_000_060] {
        let workload = streams::random_churn(2000, 3, 400, 400, 64, 0.5, s);
        let builder = EngineBuilder::new(workload.num_vertices)
            .rank(3)
            .seed(s * 31 + 7);
        let mut live = engine::build(EngineKind::Parallel, &builder);
        let save_at = 200;
        for batch in &workload.batches[..save_at] {
            live.apply_batch(batch).unwrap();
        }
        let mut restored = engine::build(EngineKind::Parallel, &builder);
        restored.restore_state(&live.save_state().unwrap()).unwrap();
        for (i, batch) in workload.batches[save_at..].iter().enumerate() {
            let expected = live.apply_batch(batch).unwrap();
            let actual = restored.apply_batch(batch).unwrap();
            assert_eq!(
                actual,
                expected,
                "seed {s}: batch {} after the restore",
                i + 1
            );
        }
        // The whole blob, cost line included.
        assert_eq!(restored.save_state(), live.save_state(), "seed {s}");
    }
}

// ---------------------------------------------------------------------------
// Counters restored at u64::MAX
// ---------------------------------------------------------------------------

/// `text` with the given whitespace-separated fields of its `tag` line (field
/// 0 is the tag) set to `u64::MAX`.
fn saturate(text: &str, tag: &str, fields: &[usize]) -> String {
    let max = u64::MAX.to_string();
    let mut out = String::new();
    for line in text.lines() {
        let mut tokens: Vec<&str> = line.split(' ').collect();
        if tokens[0] == tag {
            for &i in fields {
                tokens[i] = &max;
            }
        }
        out.push_str(&tokens.join(" "));
        out.push('\n');
    }
    out
}

#[test]
fn counters_restored_at_u64_max_saturate_instead_of_overflowing() {
    let workload = serve_workload();
    let batches = nonempty_batches(&workload);
    let builder = builder_for(&workload, 3);
    let mut rng = 5u64;
    let next = continuation_batches(workload.num_vertices, 2, &mut rng);
    // Every counter of the parallel engine's `metrics` line, in blob order
    // (tokens 1-5 and 13 are the uniform ones), and of its `lv` lines.
    let kernel_counters: Vec<usize> = (1..=14).collect();
    for kind in EngineKind::ALL {
        let mut live = engine::build(kind, &builder);
        live.apply_all(&batches[..4]).unwrap();
        // The uniform counters: batches, updates, insertions, deletions,
        // matched deletions and rebuilds; on the parallel engine also the
        // settle, Luby, reinsertion and per-level epoch counters and every
        // edge's count of deleted `D(e)` members.
        let blob = match kind {
            EngineKind::Parallel => {
                let blob = saturate(&live.save_state().unwrap(), "metrics", &kernel_counters);
                let blob = saturate(&blob, "lv", &[1, 2, 3, 4, 5]);
                saturate(&blob, "e", &[7])
            }
            _ => saturate(&live.save_state().unwrap(), "counters", &[1, 2, 3, 4, 5, 6]),
        };
        // Every engine's work and depth totals.
        let blob = saturate(&blob, "cost", &[1, 2]);
        let mut restored = engine::build(kind, &builder);
        restored.restore_state(&blob).unwrap();
        restored.apply_batch(&next[0]).unwrap();
        // Deleting matched edges ends epochs and runs the level sweep, so
        // the settle counters move too.
        let matched: Vec<Update> = restored.matching().take(6).map(Update::Delete).collect();
        assert!(!matched.is_empty(), "{kind}");
        restored
            .apply_batch(&UpdateBatch::new(matched).unwrap())
            .unwrap();
        let m = restored.metrics();
        let counters = [m.batches, m.updates, m.insertions, m.deletions];
        assert_eq!(counters, [u64::MAX; 4], "{kind}");
        assert_eq!([m.matched_deletions, m.rebuilds], [u64::MAX; 2], "{kind}");
        assert_eq!([m.work, m.depth], [u64::MAX; 2], "{kind}");
        let state = restored.save_state().unwrap();
        let max = u64::MAX.to_string();
        let saturated = |tag: &str| {
            let line = state.lines().find(|l| l.split(' ').next() == Some(tag));
            let line = line.unwrap_or_else(|| panic!("{kind}: no {tag} line"));
            assert!(line.split(' ').skip(1).all(|t| t == max), "{kind}: {line}");
        };
        saturated("cost");
        if kind == EngineKind::Parallel {
            saturated("metrics");
        }
    }

    // The service's committed count saturates too: in tail replay and in
    // the next drain.
    let service = EngineService::new(engine::build(EngineKind::Parallel, &builder));
    service.submit(batches[0].clone());
    service.drain().unwrap();
    let checkpoint = saturate(&service.checkpoint().unwrap(), "committed", &[1]);
    service.submit(batches[1].clone());
    service.drain().unwrap();
    let recovered = EngineService::recover(
        engine::build(EngineKind::Parallel, &builder),
        &checkpoint,
        &service.journal(),
        mem(),
    )
    .unwrap();
    assert_eq!(recovered.snapshot().committed_batches(), u64::MAX);
    recovered.submit(next[1].clone());
    recovered.drain().unwrap();
    assert_eq!(recovered.snapshot().committed_batches(), u64::MAX);
    assert_eq!(recovered.snapshot().metrics().batches, 3);

    // Two shards at `u64::MAX` each: the sums over shards saturate too.
    let engines = || -> Vec<_> {
        (0..2)
            .map(|_| engine::build(EngineKind::Parallel, &builder))
            .collect()
    };
    let sharded = ShardedService::new(engines());
    for batch in &batches[..6] {
        sharded.submit(batch.clone());
        sharded.drain().unwrap();
    }
    let checkpoint = saturate(&sharded.checkpoint().unwrap(), "committed", &[1]);
    let checkpoint = saturate(&checkpoint, "metrics", &[1, 2, 3, 4, 5, 13]);
    assert_eq!(
        pdmm::checkpoint::Checkpoint::parse(&checkpoint)
            .unwrap()
            .committed_batches(),
        u64::MAX
    );
    let journals: Vec<String> = (0..2).map(|k| sharded.shard_journal(k)).collect();
    let recovered = ShardedService::recover(
        engines(),
        Box::new(pdmm::sharding::HashPartitioner),
        &checkpoint,
        &journals,
        vec![mem(), mem()],
    )
    .unwrap();
    recovered.submit(next[1].clone());
    recovered.drain().unwrap();
    assert_eq!(recovered.snapshot().committed_batches(), u64::MAX);
    assert_eq!(recovered.snapshot().metrics().batches, u64::MAX);
}
