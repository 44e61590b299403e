//! The `wire-2shard` workload: an in-process reactor server (default config)
//! over a 2-shard `ShardedService`, driven by one open-loop connection.
//!
//! A run is several independent segments, each with its own sub-seed: set up
//! (build, load the initial graph in-process, start the server) several
//! times; send skewed churn batches at a fixed rate, with nothing else running
//! beside the connection; then replay the journal and audit the arbitrated
//! matching.  The same stream is then replayed in-process, closed loop, to
//! time the commit path without the wire: each batch is followed by a read of
//! what it wrote, a checkpoint is taken before the middle batch, and the
//! replay is recovered from that checkpoint.

use crate::layers::{self, CheckpointCosts, NetFigures, ReadCosts, ShardingFigures};
use crate::loadgen::{self, WireLoad};
use crate::probes::{self, EngineProbe, ServiceCosts, ShardedProbe};
use crate::stats::{best_segment_quantile, highest, lowest, median};
use crate::stats::{Outcomes, Samples, Schedule};
use crate::trace::Tracer;
use crate::{Measured, Run, SETUPS};
use pdmm::hypergraph::io;
use pdmm::hypergraph::streams::skewed_churn;
use pdmm::net::frame_batch;
use pdmm::prelude::*;
use pdmm::service::{JournalSink, MemoryJournal};
use pdmm::sharding::HashPartitioner;
use std::sync::Arc;
use std::time::{Duration, Instant};

const NUM_VERTICES: usize = 10_000;
const RANK: usize = 2;
const INITIAL_EDGES: usize = 2_000;
const BATCH: usize = 32;
const INSERT_FRACTION: f64 = 0.5;
const SKEW: f64 = 1.5;
const SHARDS: usize = 2;
/// Offered load, in batches per second: below the rate where the server
/// starts refusing on this class of machine.
const RATE: f64 = 300.0;
/// Batches of each independent stream; a run is as many segments as `RATE`
/// batches per second of `--seconds` fill.
const SEGMENT_BATCHES: usize = 300;
/// Recoveries per segment; `recover_s` is the lowest of all of them.
const RECOVERIES: usize = 5;

fn fresh_sinks() -> Vec<Box<dyn JournalSink>> {
    (0..SHARDS)
        .map(|_| Box::new(MemoryJournal::new()) as Box<dyn JournalSink>)
        .collect()
}

fn same_shards(a: &ShardedService, states: &[Option<String>]) -> bool {
    (0..SHARDS).all(|k| probes::same_state(a.shard_state(k).as_deref(), states[k].as_deref()))
}

/// One independent stream, start to finish.
struct Segment {
    seed: u64,
    setup_s: Vec<f64>,
    initial: UpdateBatch,
    load: WireLoad,
    sharded: ShardedProbe,
    /// The in-process replay run again with tracing off (traced runs only).
    untraced: Option<Duration>,
    stats: ServerStats,
    start: Instant,
    end: Instant,
    salvage: Duration,
    recover: Vec<f64>,
    full_replay: Duration,
    journals: Vec<String>,
    shard_batches: Vec<Vec<UpdateBatch>>,
    retained: f64,
}

fn segment(
    run: &Run,
    seed: u64,
    num_batches: usize,
    first_id: u64,
    failures: &mut Vec<String>,
) -> Result<Segment, String> {
    let mut batches = skewed_churn(
        NUM_VERTICES,
        RANK,
        INITIAL_EDGES,
        num_batches,
        BATCH,
        INSERT_FRACTION,
        SKEW,
        seed,
    )
    .batches;
    let initial = batches.remove(0);
    let framed: Vec<String> = batches.iter().map(frame_batch).collect();
    let make_engines = || probes::engines(SHARDS, NUM_VERTICES, RANK, seed);

    // Set up several times; the last server serves.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut serving: Option<ServerHandle> = None;
    for _ in 0..SETUPS {
        if let Some(handle) = serving.take() {
            let _ = handle.shutdown();
        }
        let batch = initial.clone();
        let t0 = Instant::now();
        let service = ShardedService::with_partitioner(make_engines(), Box::new(HashPartitioner));
        service.submit(batch);
        service.drain().map_err(|e| format!("initial load: {e}"))?;
        let handle = serve(Arc::new(service), "127.0.0.1:0", ServerConfig::default())
            .map_err(|e| format!("serve: {e}"))?;
        setup_s.push(t0.elapsed().as_secs_f64());
        serving = Some(handle);
    }
    let handle = serving.ok_or("no set-up ran")?;
    let service = Arc::clone(handle.service());

    // The timed phase: batches on schedule over one connection.
    let start = Instant::now() + Duration::from_millis(20);
    let schedule = Schedule { start, rate: RATE };
    let tracer = Tracer::new(run.epoch, run.trace);
    let load = loadgen::drive(handle.local_addr(), &framed, schedule, first_id, tracer)
        .map_err(|e| format!("load generator: {e}"))?;
    let end = Instant::now();
    let stats = handle.shutdown();
    let snapshot = service.snapshot();
    let states: Vec<Option<String>> = (0..SHARDS).map(|k| service.shard_state(k)).collect();
    let journals: Vec<String> = (0..SHARDS).map(|k| service.shard_journal(k)).collect();

    // The sharded journal replays bit-identically.
    let t0 = Instant::now();
    let replayed = ShardedService::replay(make_engines(), &service.journal())
        .map_err(|e| format!("replay: {e}"))?;
    let full_replay = t0.elapsed();
    probes::check(
        failures,
        same_shards(&replayed, &states)
            && replayed.snapshot().arbitrated_matching() == snapshot.arbitrated_matching(),
        "the sharded journal does not replay bit-identically",
    );
    drop(replayed);

    // The arbitrated matching is valid and maximal on the journaled graph.
    let mut graph = DynamicHypergraph::new(NUM_VERTICES);
    let mut shard_batches = Vec::with_capacity(SHARDS);
    for journal in &journals {
        let parsed = probes::journal_batches(journal)?;
        for batch in &parsed {
            graph.apply_batch(batch.updates());
        }
        shard_batches.push(parsed);
    }
    let arbitrated = snapshot.arbitrated_matching();
    probes::check(
        failures,
        arbitrated.conflicted_vertices().is_empty(),
        "the arbitrated matching has conflicted vertices",
    );
    probes::check(
        failures,
        verify_maximality(&graph, &arbitrated.edge_ids()).is_ok(),
        "the arbitrated matching is not maximal on the journaled graph",
    );
    drop(graph);

    // The same stream, in-process and closed loop: the commit path without
    // the wire.  With nothing refused, it must land on the same shard states.
    let mut probe_tracer = Tracer::new(run.epoch, run.trace);
    let (replay, sharded) = probes::sharded_probe(
        make_engines(),
        &initial,
        &batches,
        first_id,
        &mut probe_tracer,
    )?;
    if load.outcomes.failed() == 0 && sharded.refused == 0 {
        probes::check(
            failures,
            same_shards(&replay, &states),
            "the in-process replay of the stream differs from the server",
        );
    }
    let untraced = if run.trace {
        let mut off = Tracer::new(run.epoch, false);
        let (_, rerun) =
            probes::sharded_probe(make_engines(), &initial, &batches, first_id, &mut off)?;
        Some(rerun.wall)
    } else {
        None
    };

    // Crash the replay and recover it from its mid-stream checkpoint, several
    // times: one recovery takes tens of milliseconds here.
    let replay_states: Vec<Option<String>> = (0..SHARDS).map(|k| replay.shard_state(k)).collect();
    let replay_snapshot = replay.snapshot();
    let replay_matching = replay_snapshot.arbitrated_matching();
    let mut recover = Vec::with_capacity(RECOVERIES);
    let mut salvage = Duration::ZERO;
    for _ in 0..RECOVERIES {
        let salvage_start = Instant::now();
        let tails: Vec<String> = (0..SHARDS).map(|k| replay.shard_journal(k)).collect();
        salvage = salvage_start.elapsed();
        let recovered = ShardedService::recover(
            make_engines(),
            Box::new(HashPartitioner),
            &sharded.checkpoint,
            &tails,
            fresh_sinks(),
        )
        .map_err(|e| format!("recover: {e}"))?;
        recover.push(salvage_start.elapsed().as_secs_f64());
        probes::check(
            failures,
            same_shards(&recovered, &replay_states)
                && recovered.snapshot().arbitrated_matching() == replay_matching,
            "recovered shards differ from the replay before the crash",
        );
    }

    let mut load = load;
    load.tracer.absorb(probe_tracer);
    Ok(Segment {
        seed,
        setup_s,
        initial,
        load,
        sharded,
        untraced,
        stats,
        start,
        end,
        salvage,
        recover,
        full_replay,
        journals,
        shard_batches,
        retained: arbitrated.report().retained(),
    })
}

/// Per-layer figures: engine, service and checkpoint costs from the first
/// segment's stream; routing, arbitration and wire counts over every segment.
fn set_layers(
    segments: &mut [Segment],
    ack_p99_us: f64,
    registry: &mut crate::metrics::Registry,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let mut late = Samples::default();
    let mut net = NetFigures::default();
    let (mut traced, mut untraced) = (Duration::ZERO, Duration::ZERO);
    let (mut routed, mut cross, mut sub_batches, mut admitted) = (0u64, 0u64, 0u64, 0u64);
    let (mut conflicts, mut evicted, mut repaired, mut rejected) = (0u64, 0u64, 0u64, 0u64);
    for s in segments.iter_mut() {
        late.extend(&s.load.late_us);
        routed += s.load.routed_updates;
        cross += s.load.cross_shard;
        sub_batches += s.load.sub_batches;
        admitted += s.load.admitted;
        conflicts += s.stats.arbitration_conflicts;
        evicted += s.stats.arbitration_evicted;
        repaired += s.stats.arbitration_repaired;
        rejected += s.stats.rejected_updates;
        net.retried += s.stats.retried as f64;
        net.shed += s.stats.shed as f64;
        net.errors += s.stats.protocol_errors as f64;
        net.peak_buffer_bytes = net.peak_buffer_bytes.max(s.stats.peak_buffer_bytes as f64);
        let load = std::mem::replace(&mut s.load.tracer, Tracer::new(s.start, false));
        tracer.absorb(load);
        traced += s.sharded.wall;
        untraced += s
            .untraced
            .ok_or("a traced segment lacks its untraced rerun")?;
    }
    let first = &segments[0];
    let mut engine = EngineProbe::default();
    let mut costs = ServiceCosts::default();
    for parsed in &first.shard_batches {
        let twin = probes::engine(NUM_VERTICES, RANK, first.seed);
        probes::engine_probe(twin, parsed, 1, &mut engine, tracer)?;
        let bare = probes::engine(NUM_VERTICES, RANK, first.seed);
        probes::service_probe(bare, parsed, 1, &mut costs, tracer)?;
    }
    let journal_bytes: usize = first.journals.iter().map(String::len).sum();
    let initial_bytes = io::batches_to_string(std::slice::from_ref(&first.initial)).len();
    let committed_updates: usize = first
        .shard_batches
        .iter()
        .flatten()
        .map(UpdateBatch::len)
        .sum();
    layers::set_engine(registry, &engine);
    let (mut snapshot_ns, mut lookup_ns) = (Samples::default(), Samples::default());
    for s in segments.iter() {
        snapshot_ns.extend(&s.sharded.snapshot_ns);
        lookup_ns.extend(&s.sharded.lookup_ns);
    }
    layers::set_service(
        registry,
        &costs,
        &engine,
        &ReadCosts {
            snapshot_ns: snapshot_ns.mean(),
            lookup_ns: lookup_ns.mean(),
        },
        journal_bytes.saturating_sub(initial_bytes) as f64
            / committed_updates.saturating_sub(first.initial.len()).max(1) as f64,
    );
    layers::set_checkpoint(
        registry,
        &CheckpointCosts {
            write_ms: first.sharded.checkpoint_write.as_secs_f64() * 1e3,
            bytes: first.sharded.checkpoint.len() as f64,
            salvage_ms: first.salvage.as_secs_f64() * 1e3,
            tail_blocks: (first.sharded.batches - first.sharded.batches_at_checkpoint) as f64,
            full_replay_s: first.full_replay.as_secs_f64(),
        },
    );
    let figures = ShardingFigures {
        cross_shard_frac: cross as f64 / routed.max(1) as f64,
        sub_batches_per_batch: sub_batches as f64 / admitted.max(1) as f64,
        conflicts: conflicts as f64,
        evicted: evicted as f64,
        repaired: repaired as f64,
        retained: first.retained,
        rejected: rejected as f64,
    };
    layers::set_sharding(registry, &first.sharded, &figures);
    let late_p99 = late.quantile("writer lateness", 0.99)?;
    layers::set_net(registry, &net, late_p99, ack_p99_us);
    layers::set_trace(
        registry,
        tracer,
        (tracer.at(first.start), tracer.at(first.end)),
        traced,
        untraced,
    );
    Ok(())
}

pub fn run(run: &Run) -> Result<Measured, String> {
    let total = (RATE * run.seconds).ceil() as usize;
    let count = total.div_ceil(SEGMENT_BATCHES) as u64;
    let per_segment = SEGMENT_BATCHES;
    let mut failures = Vec::new();
    let mut segments = Vec::with_capacity(count as usize);
    for k in 0..count {
        let first_id = k * per_segment as u64;
        segments.push(segment(
            run,
            run.segment_seed(k),
            per_segment,
            first_id,
            &mut failures,
        )?);
    }

    let mut setup_s: Vec<f64> = segments.iter().flat_map(|s| s.setup_s.clone()).collect();
    let recover_s: Vec<f64> = segments.iter().flat_map(|s| s.recover.clone()).collect();
    let mut outcomes = Outcomes::default();
    let mut throughput = Vec::with_capacity(segments.len());
    for s in &segments {
        outcomes.attempted += s.load.outcomes.attempted;
        outcomes.answered += s.load.outcomes.answered;
        outcomes.refused += s.load.outcomes.refused;
        outcomes.errored += s.load.outcomes.errored;
        throughput.push(s.sharded.updates as f64 / s.sharded.busy.as_secs_f64());
    }
    let mut registry = crate::metrics::Registry::default();
    registry.set("setup_s", median(&mut setup_s));
    // The quietest segment's figures; see `best_segment_quantile`.
    registry.set("commit_updates_per_s", highest(&throughput).unwrap_or(0.0));
    for (name, q) in [("commit_p50_us", 0.5), ("commit_p90_us", 0.9)] {
        let commits = segments.iter_mut().map(|s| &mut s.sharded.commit_us);
        registry.set(name, best_segment_quantile(commits, "commit", q)?);
    }
    for (name, q) in [("read_p50_ns", 0.5), ("read_p90_ns", 0.9)] {
        let reads = segments.iter_mut().map(|s| &mut s.sharded.read_ns);
        registry.set(name, best_segment_quantile(reads, "read", q)?);
    }
    // Whether a batch waits behind a drain is a matter of timing, so the ack
    // figures pool every batch sent.  Their p99 goes with the layers, ungated:
    // by process, a tenth of the acks wait behind drains or hardly any do.
    let mut acks = Samples::default();
    for s in &segments {
        acks.extend(&s.load.ack_us);
    }
    registry.set("ack_p50_us", acks.quantile("ack", 0.5)?);
    registry.set("recover_s", lowest(&recover_s).unwrap_or(0.0));
    registry.set("ok_frac", 1.0 - outcomes.failed_frac());

    let mut tracer = Tracer::new(run.epoch, run.trace);
    if run.trace {
        let ack_p99 = acks.quantile("ack", 0.99)?;
        set_layers(&mut segments, ack_p99, &mut registry, &mut tracer)?;
    }
    registry.set("peak_rss_mb", probes::peak_rss_mb()?);

    let count = |f: fn(&Segment) -> usize| segments.iter().map(f).min().unwrap_or(0);
    Ok(Measured {
        registry,
        outcomes,
        failures,
        tracer,
        samples: vec![
            ("commit (per segment)", count(|s| s.sharded.commit_us.len())),
            ("ack (per segment)", count(|s| s.load.ack_us.len())),
            ("read (per segment)", count(|s| s.sharded.read_ns.len())),
        ],
    })
}
