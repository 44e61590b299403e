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
//! * taking a checkpoint truncates the journal segments it makes redundant.

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
            // shard's engine state blob, journal, and the merged snapshot.
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
                recovered.snapshot().edge_ids(),
                twin.snapshot().edge_ids(),
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
                recovered.snapshot().edge_ids(),
                twin.snapshot().edge_ids(),
                "{kind}/{shards} post-recovery serving"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// File journals: truncation on checkpoint, salvage, crash-again
// ---------------------------------------------------------------------------

#[test]
fn checkpoint_truncates_rotated_segments_and_salvage_recovers_from_disk() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join("recovery_faults_truncate.log");
    let workload = serve_workload();
    let batches = nonempty_batches(&workload);
    let mid = batches.len() / 2;
    let builder = builder_for(&workload, 3);
    let segment = |seq: usize| {
        let mut name = path.clone().into_os_string();
        name.push(format!(".{seq}"));
        std::path::PathBuf::from(name)
    };

    let service = EngineService::new(engine::build(EngineKind::Parallel, &builder)).with_journal(
        Box::new(FileJournal::create(&path).unwrap().with_rotate_at(192)),
    );
    for batch in &batches[..mid] {
        service.submit(batch.clone());
        service.drain().unwrap();
    }
    assert!(
        segment(1).exists(),
        "the tiny rotation threshold must have rotated by now"
    );

    // Taking the checkpoint deletes every rotated segment: the checkpoint
    // covers them, so keeping them would only re-grow recovery back to
    // O(history).
    let checkpoint = service.checkpoint().unwrap();
    assert!(
        !segment(1).exists(),
        "journal segments older than the checkpoint must be truncated"
    );

    for batch in &batches[mid..] {
        service.submit(batch.clone());
        service.drain().unwrap();
    }
    let full_state = service.save_state();
    let full_edges = service.snapshot().edge_ids();
    drop(service);

    // Post-crash: salvage reads segments + active file without touching them;
    // the recovered service journals into a fresh file.
    let salvaged = FileJournal::salvage(&path).unwrap();
    let next_path = dir.join("recovery_faults_truncate_next.log");
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
