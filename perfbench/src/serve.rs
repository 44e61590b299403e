//! The `serve-*` workloads: one `EngineService` and a closed commit loop on
//! one thread.
//!
//! A run is one or more independent segments, each with its own sub-seed: set
//! up (build, load the initial graph) several times; commit a pre-built
//! `streams::random_churn` stream, one submit and drain at a time, taking a
//! checkpoint before the middle batch; then crash, recover from that
//! checkpoint and check the recovered service bit for bit.
//!
//! A read is one `snapshot()` plus lookups of the endpoints a batch inserted.
//! Without `concurrent_reads` the commit thread reads its own write after each
//! commit, so nothing competes with the commit loop for the processors; with
//! it, a second thread reads beside the writes, open loop, one read per batch
//! interval of the workload's nominal rate.

use crate::layers::{self, CheckpointCosts, NetFigures, ReadCosts, ShardingFigures};
use crate::probes::{self, EngineProbe, ServiceCosts};
use crate::stats::{best_segment_quantile, highest, lateness, lowest, median, micros, nanos};
use crate::stats::{since_due, Outcomes, Samples, Schedule};
use crate::trace::{SpanRef, Tracer};
use crate::{Measured, Run, SETUPS};
use pdmm::checkpoint::{load_checkpoint, store_checkpoint};
use pdmm::hypergraph::streams::random_churn;
use pdmm::prelude::*;
use pdmm::service::{FileJournal, JournalSink, MemoryJournal};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const RANK: usize = 3;
const BATCH: usize = 64;
const INSERT_FRACTION: f64 = 0.5;

pub struct ServeSpec {
    pub num_vertices: usize,
    pub initial_edges: usize,
    /// A `FileJournal` (sync on commit) instead of the in-memory journal.
    pub durable: bool,
    /// Reads from a second thread on a schedule instead of after each commit.
    pub concurrent_reads: bool,
    /// Batches of each segment's stream.  A segment commits a fixed number
    /// of batches rather than for a fixed time: the engine slows as the
    /// stream goes on (its scans grow with every id ever inserted), so a
    /// faster build would otherwise be measured further down the stream.
    pub segment_batches: usize,
    /// Batches per second of `--seconds`: a run is as many independent
    /// segments as that many batches fill.  Also the open-loop reader's rate.
    pub batches_per_s: f64,
    /// Batches the traced run replays into a 2-shard service: every drain
    /// re-arbitrates the whole matching, so at 200k edges each costs ~70 ms.
    pub sharded_probe_batches: usize,
}

/// What the reads measured.
#[derive(Default)]
struct Reads {
    /// Per read, nanoseconds until it finished: from when it was due on the
    /// open-loop reader, from when it started after a commit.
    latency_ns: Samples,
    snapshot_ns: Samples,
    /// Per lookup.
    lookup_ns: Samples,
    /// Per read of the open-loop reader, microseconds it issued late.
    late_us: Samples,
}

/// One read: a snapshot plus the lookups.
fn read(
    service: &EngineService,
    vertices: &[VertexId],
    reads: &mut Reads,
    tracer: &mut Tracer,
    id: u64,
    root: SpanRef,
) {
    let t0 = Instant::now();
    let snapshot = service.snapshot();
    let t1 = Instant::now();
    for &v in vertices {
        black_box(snapshot.matched_edge_of(v));
    }
    let t2 = Instant::now();
    tracer.record("service.snapshot", id, root, t0, t1);
    tracer.record("service.lookup", id, root, t1, t2);
    reads.snapshot_ns.push(nanos(t1 - t0));
    reads
        .lookup_ns
        .push(nanos(t2 - t1) / vertices.len().max(1) as f64);
}

/// Reads on `schedule` until `stop`; read `i` looks up what batch `i` of the
/// stream inserts.
fn read_loop(
    service: &EngineService,
    batches: &[UpdateBatch],
    schedule: Schedule,
    stop: &AtomicBool,
    tracer: &mut Tracer,
) -> Reads {
    let mut reads = Reads::default();
    for i in 0.. {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let vertices = probes::read_vertices(&batches[i % batches.len()]);
        let due = schedule.due(i);
        probes::wait_until(due);
        let issued = Instant::now();
        let root = tracer.begin_at("read", i as u64, None, due);
        read(service, &vertices, &mut reads, tracer, i as u64, root);
        let done = Instant::now();
        tracer.end_at(root, done);
        reads.latency_ns.push(nanos(since_due(due, done)));
        reads.late_us.push(micros(lateness(due, issued)));
    }
    reads
}

/// What one timed phase measured.
struct Phase {
    commit_us: Samples,
    costs: ServiceCosts,
    busy: Duration,
    updates: u64,
    errored: u64,
    reads: Reads,
    checkpoint: String,
    checkpoint_write: Duration,
    batches_at_checkpoint: u64,
    start: Instant,
    end: Instant,
}

/// Commits `batches` one at a time, checkpointing before the middle one, with
/// the reads the spec asks for.  Span ids count from `first_id`.
fn timed_phase(
    spec: &ServeSpec,
    service: &EngineService,
    batches: &[UpdateBatch],
    first_id: u64,
    checkpoint_path: Option<&Path>,
    tracer: &mut Tracer,
) -> Result<Phase, String> {
    let mut phase = Phase {
        commit_us: Samples::default(),
        costs: ServiceCosts::default(),
        busy: Duration::ZERO,
        updates: 0,
        errored: 0,
        reads: Reads::default(),
        checkpoint: String::new(),
        checkpoint_write: Duration::ZERO,
        batches_at_checkpoint: 0,
        start: Instant::now(),
        end: Instant::now(),
    };
    let mut reader_tracer = tracer.fork();
    let stop = AtomicBool::new(false);
    let schedule = Schedule {
        start: phase.start,
        rate: spec.batches_per_s,
    };
    let committed = std::thread::scope(|scope| {
        let reader = spec.concurrent_reads.then(|| {
            let (stop, tracer) = (&stop, &mut reader_tracer);
            scope.spawn(move || read_loop(service, batches, schedule, stop, tracer))
        });
        let committed = commit_loop(
            service,
            batches,
            first_id,
            checkpoint_path,
            !spec.concurrent_reads,
            &mut phase,
            tracer,
        );
        stop.store(true, Ordering::Release);
        if let Some(reader) = reader {
            phase.reads = reader.join().expect("the reader never panics");
        }
        committed
    });
    phase.end = Instant::now();
    tracer.absorb(reader_tracer);
    committed.map(|()| phase)
}

fn commit_loop(
    service: &EngineService,
    batches: &[UpdateBatch],
    first_id: u64,
    checkpoint_path: Option<&Path>,
    read_after_commit: bool,
    phase: &mut Phase,
    tracer: &mut Tracer,
) -> Result<(), String> {
    for (i, batch) in batches.iter().enumerate() {
        let id = first_id + i as u64;
        if i == batches.len() / 2 {
            let t0 = Instant::now();
            let text = service
                .checkpoint()
                .map_err(|e| format!("checkpoint: {e}"))?;
            if let Some(path) = checkpoint_path {
                store_checkpoint(path, &text).map_err(|e| format!("store checkpoint: {e}"))?;
            }
            let t1 = Instant::now();
            tracer.record("checkpoint.write", id, None, t0, t1);
            phase.checkpoint = text;
            phase.checkpoint_write = t1 - t0;
            phase.batches_at_checkpoint = i as u64;
        }
        let updates = batch.len() as u64;
        let vertices = probes::read_vertices(batch);
        let batch = batch.clone();
        let t0 = Instant::now();
        service.submit(batch);
        let t1 = Instant::now();
        let drained = service.drain();
        let t2 = Instant::now();
        let root = tracer.record("batch", id, None, t0, t2);
        tracer.record("service.submit", id, root, t0, t1);
        tracer.record("service.drain", id, root, t1, t2);
        match drained {
            Ok(reports) if reports.len() == 1 => {
                phase.updates += updates;
                phase.commit_us.push(micros(t2 - t0));
                phase.costs.submit_ns.push(nanos(t1 - t0));
                phase.costs.drain_ns += nanos(t2 - t1);
                phase.costs.drained_updates += updates;
                phase.busy += t2 - t0;
            }
            _ => phase.errored += 1,
        }
        if read_after_commit {
            let t3 = Instant::now();
            let root = tracer.begin_at("read", id, None, t3);
            read(service, &vertices, &mut phase.reads, tracer, id, root);
            let t4 = Instant::now();
            tracer.end_at(root, t4);
            phase.reads.latency_ns.push(nanos(t4 - t3));
        }
    }
    Ok(())
}

/// The initial graph and the churn batches of one segment's stream.
fn stream(spec: &ServeSpec, seed: u64, batches: usize) -> (UpdateBatch, Vec<UpdateBatch>) {
    let mut batches = random_churn(
        spec.num_vertices,
        RANK,
        spec.initial_edges,
        batches,
        BATCH,
        INSERT_FRACTION,
        seed,
    )
    .batches;
    let initial = batches.remove(0);
    (initial, batches)
}

/// A set-up service: the engine built and the initial graph loaded.
fn set_up(
    spec: &ServeSpec,
    seed: u64,
    initial: &UpdateBatch,
    journal: Option<&Path>,
) -> Result<EngineService, String> {
    let engine = probes::engine(spec.num_vertices, RANK, seed);
    let mut service = EngineService::new(engine);
    if let Some(path) = journal {
        let sink = FileJournal::create(path).map_err(|e| format!("create journal: {e}"))?;
        service = service.with_journal(Box::new(sink));
    }
    service.submit(initial.clone());
    service.drain().map_err(|e| format!("initial load: {e}"))?;
    Ok(service)
}

fn journal_bytes(service: &EngineService, durable: Option<&Path>) -> Result<u64, String> {
    match durable {
        Some(path) => std::fs::metadata(path)
            .map(|m| m.len())
            .map_err(|e| format!("journal {}: {e}", path.display())),
        None => Ok(service.journal().len() as u64),
    }
}

/// One independent stream, start to finish.
struct Segment {
    setup_s: Vec<f64>,
    batches: usize,
    phase: Phase,
    /// The same timed phase run again with tracing off (traced runs only).
    untraced: Option<Duration>,
    salvage: Duration,
    recover: Duration,
    full_replay: Option<Duration>,
    journal_growth: u64,
}

fn segment(
    spec: &ServeSpec,
    run: &Run,
    seed: u64,
    per_segment: usize,
    first_id: u64,
    tracer: &mut Tracer,
    failures: &mut Vec<String>,
) -> Result<Segment, String> {
    let (initial, batches) = stream(spec, seed, per_segment);
    let make_engine = || probes::engine(spec.num_vertices, RANK, seed);
    let file = |name: &str| -> PathBuf { run.scratch.join(format!("{name}-{seed}")) };
    let journal_path = |k: usize| spec.durable.then(|| file(&format!("journal-{k}")));

    // Set up several times; the last service serves.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut serving: Option<EngineService> = None;
    for k in 0..SETUPS {
        drop(serving.take());
        let t0 = Instant::now();
        let service = set_up(spec, seed, &initial, journal_path(k).as_deref())?;
        setup_s.push(t0.elapsed().as_secs_f64());
        serving = Some(service);
    }
    let service = serving.ok_or("no set-up ran")?;
    for path in (0..SETUPS - 1).filter_map(journal_path) {
        let _ = std::fs::remove_file(path);
    }
    let live_journal = journal_path(SETUPS - 1);
    let journal_at_start = journal_bytes(&service, live_journal.as_deref())?;
    let checkpoint_path = spec.durable.then(|| file("checkpoint"));

    let phase = timed_phase(
        spec,
        &service,
        &batches,
        first_id,
        checkpoint_path.as_deref(),
        tracer,
    )?;

    // Crash: keep what the live service looked like, then recover.
    let before_state = service.save_state().ok_or("the engine cannot save state")?;
    let before_snapshot = service.snapshot();
    let journal_at_end = journal_bytes(&service, live_journal.as_deref())?;
    let (journal, salvage, recovered, recover) = match (&live_journal, &checkpoint_path) {
        (Some(live_journal), Some(checkpoint_path)) => {
            drop(service);
            let t0 = Instant::now();
            let journal =
                FileJournal::salvage(live_journal).map_err(|e| format!("salvage: {e}"))?;
            let checkpoint =
                load_checkpoint(checkpoint_path).map_err(|e| format!("load checkpoint: {e}"))?;
            let t1 = Instant::now();
            let sink = FileJournal::create(file("journal-recovered"))
                .map_err(|e| format!("create journal: {e}"))?;
            let recovered =
                EngineService::recover(make_engine(), &checkpoint, &journal, Box::new(sink))
                    .map_err(|e| format!("recover: {e}"))?;
            let t2 = Instant::now();
            (journal, t1 - t0, recovered, t2 - t0)
        }
        _ => {
            let t0 = Instant::now();
            let journal = service.journal();
            let t1 = Instant::now();
            drop(service);
            let t2 = Instant::now();
            let sink: Box<dyn JournalSink> = Box::new(MemoryJournal::new());
            let recovered =
                EngineService::recover(make_engine(), &phase.checkpoint, &journal, sink)
                    .map_err(|e| format!("recover: {e}"))?;
            let t3 = Instant::now();
            (journal, t1 - t0, recovered, (t1 - t0) + (t3 - t2))
        }
    };
    probes::check(
        failures,
        probes::same_state(recovered.save_state().as_deref(), Some(&before_state)),
        "recovered engine state differs from the service before the crash",
    );
    let after = recovered.snapshot();
    probes::check(
        failures,
        after.edge_ids() == before_snapshot.edge_ids()
            && after.committed_batches() == before_snapshot.committed_batches(),
        "recovered matching differs from the service before the crash",
    );
    drop(recovered);

    // The full replay is the bar recovery should beat; the in-memory
    // workload also checks its final snapshot against it on every run.
    let full_replay = if !spec.durable || run.trace {
        let t0 = Instant::now();
        let replayed =
            EngineService::replay(make_engine(), &journal).map_err(|e| format!("replay: {e}"))?;
        let elapsed = t0.elapsed();
        probes::check(
            failures,
            replayed.snapshot().edge_ids() == before_snapshot.edge_ids()
                && probes::same_state(replayed.save_state().as_deref(), Some(&before_state)),
            "the journal does not replay to the final snapshot",
        );
        Some(elapsed)
    } else {
        None
    };
    drop(journal);

    // The tracing overhead: the same phase again, on a fresh service, with
    // tracing off.
    let untraced = if run.trace {
        let journal = spec.durable.then(|| file("journal-untraced"));
        let service = set_up(spec, seed, &initial, journal.as_deref())?;
        let checkpoint_path = spec.durable.then(|| file("checkpoint-untraced"));
        let mut off = Tracer::new(run.epoch, false);
        let rerun = timed_phase(
            spec,
            &service,
            &batches,
            first_id,
            checkpoint_path.as_deref(),
            &mut off,
        )?;
        Some(rerun.end - rerun.start)
    } else {
        None
    };
    Ok(Segment {
        setup_s,
        batches: batches.len(),
        phase,
        untraced,
        salvage,
        recover,
        full_replay,
        journal_growth: journal_at_end - journal_at_start,
    })
}

/// Per-layer figures, from the first segment's stream and every segment's
/// spans and reads.
fn set_layers(
    spec: &ServeSpec,
    run: &Run,
    segments: &[Segment],
    ack_p99_us: f64,
    registry: &mut crate::metrics::Registry,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let mut costs = ServiceCosts::default();
    let mut reads = Reads::default();
    let (mut traced, mut untraced) = (Duration::ZERO, Duration::ZERO);
    for s in segments {
        costs.submit_ns.extend(&s.phase.costs.submit_ns);
        costs.drain_ns += s.phase.costs.drain_ns;
        costs.drained_updates += s.phase.costs.drained_updates;
        reads.snapshot_ns.extend(&s.phase.reads.snapshot_ns);
        reads.lookup_ns.extend(&s.phase.reads.lookup_ns);
        reads.late_us.extend(&s.phase.reads.late_us);
        traced += s.phase.end - s.phase.start;
        untraced += s
            .untraced
            .ok_or("a traced segment lacks its untraced rerun")?;
    }
    let first = &segments[0];
    let seed = run.segment_seed(0);
    let (initial, mut batches) = stream(spec, seed, first.batches);
    batches.truncate(probes::PROBE_BATCHES);
    let probed = batches.len().min(spec.sharded_probe_batches);
    batches.insert(0, initial);
    let mut engine = EngineProbe::default();
    let twin = probes::engine(spec.num_vertices, RANK, seed);
    probes::engine_probe(twin, &batches, 1, &mut engine, tracer)?;
    let (_, sharded) = probes::sharded_probe(
        probes::engines(2, spec.num_vertices, RANK, seed),
        &batches[0],
        &batches[1..=probed],
        0,
        tracer,
    )?;
    layers::set_engine(registry, &engine);
    layers::set_service(
        registry,
        &costs,
        &engine,
        &ReadCosts {
            snapshot_ns: reads.snapshot_ns.mean(),
            lookup_ns: reads.lookup_ns.mean(),
        },
        first.journal_growth as f64 / first.phase.updates as f64,
    );
    layers::set_checkpoint(
        registry,
        &CheckpointCosts {
            write_ms: first.phase.checkpoint_write.as_secs_f64() * 1e3,
            bytes: first.phase.checkpoint.len() as f64,
            salvage_ms: first.salvage.as_secs_f64() * 1e3,
            tail_blocks: (first.batches as u64 - first.phase.batches_at_checkpoint) as f64,
            full_replay_s: first.full_replay.map_or(0.0, |d| d.as_secs_f64()),
        },
    );
    layers::set_sharding(registry, &sharded, &ShardingFigures::from_probe(&sharded));
    // Only the concurrent reader runs open loop; the closed loops are never
    // late.
    let late_p99 = if reads.late_us.len() > 0 {
        reads.late_us.quantile("reader lateness", 0.99)?
    } else {
        0.0
    };
    layers::set_net(registry, &NetFigures::default(), late_p99, ack_p99_us);
    layers::set_trace(
        registry,
        tracer,
        (tracer.at(first.phase.start), tracer.at(first.phase.end)),
        traced,
        untraced,
    );
    Ok(())
}

pub fn run(spec: &ServeSpec, run: &Run) -> Result<Measured, String> {
    let total = (spec.batches_per_s * run.seconds).ceil() as usize;
    let count = total.div_ceil(spec.segment_batches);
    let per_segment = spec.segment_batches;
    let mut tracer = Tracer::new(run.epoch, run.trace);
    let mut failures = Vec::new();
    let mut segments = Vec::with_capacity(count);
    for k in 0..count as u64 {
        segments.push(segment(
            spec,
            run,
            run.segment_seed(k),
            per_segment,
            k * per_segment as u64,
            &mut tracer,
            &mut failures,
        )?);
    }

    let mut setup_s: Vec<f64> = segments.iter().flat_map(|s| s.setup_s.clone()).collect();
    let recover_s: Vec<f64> = segments.iter().map(|s| s.recover.as_secs_f64()).collect();
    let mut outcomes = Outcomes::default();
    let mut throughput = Vec::with_capacity(segments.len());
    for s in &segments {
        outcomes.attempted += s.batches as u64;
        outcomes.answered += s.batches as u64;
        outcomes.errored += s.phase.errored;
        throughput.push(s.phase.updates as f64 / s.phase.busy.as_secs_f64());
    }
    let mut registry = crate::metrics::Registry::default();
    registry.set("setup_s", median(&mut setup_s));
    // The quietest segment's figures; see `best_segment_quantile`.
    registry.set("commit_updates_per_s", highest(&throughput).unwrap_or(0.0));
    for (name, q) in [("commit_p50_us", 0.5), ("commit_p90_us", 0.9)] {
        let commits = segments.iter_mut().map(|s| &mut s.phase.commit_us);
        registry.set(name, best_segment_quantile(commits, "commit", q)?);
    }
    // An in-process caller learns the outcome of its batch when drain
    // returns, so its acknowledgement is the commit.
    let commit_p50 = registry.get("commit_p50_us").unwrap_or(0.0);
    registry.set("ack_p50_us", commit_p50);
    for (name, q) in [("read_p50_ns", 0.5), ("read_p90_ns", 0.9)] {
        let reads = segments.iter_mut().map(|s| &mut s.phase.reads.latency_ns);
        registry.set(name, best_segment_quantile(reads, "read", q)?);
    }
    registry.set("recover_s", lowest(&recover_s).unwrap_or(0.0));
    registry.set("ok_frac", 1.0 - outcomes.failed_frac());
    if run.trace {
        let mut acks = Samples::default();
        for s in &segments {
            acks.extend(&s.phase.commit_us);
        }
        let ack_p99 = acks.quantile("ack", 0.99)?;
        set_layers(spec, run, &segments, ack_p99, &mut registry, &mut tracer)?;
    }
    registry.set("peak_rss_mb", probes::peak_rss_mb()?);

    let count = |f: fn(&Segment) -> usize| segments.iter().map(f).min().unwrap_or(0);
    Ok(Measured {
        registry,
        outcomes,
        failures,
        tracer,
        samples: vec![
            ("commit (per segment)", count(|s| s.phase.commit_us.len())),
            (
                "read (per segment)",
                count(|s| s.phase.reads.latency_ns.len()),
            ),
        ],
    })
}
