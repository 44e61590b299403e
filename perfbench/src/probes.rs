//! Pieces every workload shares: engine construction, the reads, and the
//! probes that replay a committed stream through one layer at a time to split
//! its cost.

use crate::stats::{micros, nanos, Samples};
use crate::trace::Tracer;
use pdmm::prelude::*;
use pdmm::sharding::HashPartitioner;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Vertices each read looks up.
pub const LOOKUPS_PER_READ: usize = 64;

/// Batches of the committed stream each probe replays at most.
pub const PROBE_BATCHES: usize = 4_000;

/// A parallel engine for the segment whose stream has seed `seed`; the
/// engine draws from `seed * 31 + 7`, a sequence apart from the stream's.
pub fn engine(num_vertices: usize, rank: usize, seed: u64) -> Box<dyn MatchingEngine + Send> {
    let engine_seed = seed.wrapping_mul(31).wrapping_add(7);
    let builder = EngineBuilder::new(num_vertices)
        .rank(rank)
        .seed(engine_seed);
    pdmm::engine::build(EngineKind::Parallel, &builder)
}

pub fn engines(
    shards: usize,
    num_vertices: usize,
    rank: usize,
    seed: u64,
) -> Vec<Box<dyn MatchingEngine + Send>> {
    (0..shards)
        .map(|_| engine(num_vertices, rank, seed))
        .collect()
}

/// Sleeps until `due`, spinning through the last stretch so an open loop
/// issues on time instead of at the timer's slack.
pub fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// The vertices a read of `batch` looks up: the endpoints of its inserts,
/// cycled to [`LOOKUPS_PER_READ`], so a read asks about what the batch wrote.
pub fn read_vertices(batch: &UpdateBatch) -> Vec<VertexId> {
    let endpoints: Vec<VertexId> = batch
        .updates()
        .iter()
        .filter_map(|update| match update {
            Update::Insert(edge) => Some(edge.vertices()),
            _ => None,
        })
        .flatten()
        .copied()
        .collect();
    endpoints
        .iter()
        .copied()
        .cycle()
        .take(LOOKUPS_PER_READ)
        .collect()
}

/// Costs of the bare engine, from a twin fed the committed batches.
#[derive(Debug, Default)]
pub struct EngineProbe {
    pub batches: u64,
    pub updates: u64,
    pub validate_ns: f64,
    pub apply_ns: f64,
    pub matching_size_ns: Samples,
    pub matching_scan_ns: Samples,
    pub work: u64,
    pub depth: u64,
    pub rebuilds: u64,
    pub matched_deletions: u64,
}

/// Feeds `batches` to a fresh twin engine the way the service does (validate,
/// then trusted apply), after applying the first `warm` of them untimed.
pub fn engine_probe(
    mut engine: Box<dyn MatchingEngine + Send>,
    batches: &[UpdateBatch],
    warm: usize,
    probe: &mut EngineProbe,
    tracer: &mut Tracer,
) -> Result<(), String> {
    for (i, batch) in batches.iter().enumerate() {
        if i < warm {
            engine
                .apply_batch(batch)
                .map_err(|e| format!("twin warm-up: {e}"))?;
            continue;
        }
        let t0 = Instant::now();
        let proof = engine
            .validate(batch.updates())
            .map_err(|e| format!("twin validate: {e}"))?;
        let t1 = Instant::now();
        let report = engine
            .apply_batch_trusted(proof)
            .map_err(|e| format!("twin apply: {e}"))?;
        let t2 = Instant::now();
        let size = engine.matching_size();
        let t3 = Instant::now();
        let scanned = engine.matching().count();
        let t4 = Instant::now();
        if size != scanned || size != report.matching_size {
            return Err(format!(
                "twin matching size {size}, scan {scanned}, report {}",
                report.matching_size
            ));
        }
        let id = i as u64;
        let root = tracer.record("twin.batch", id, None, t0, t4);
        tracer.record("engine.validate", id, root, t0, t1);
        tracer.record("engine.apply_trusted", id, root, t1, t2);
        tracer.record("engine.matching_size", id, root, t2, t3);
        tracer.record("engine.matching_scan", id, root, t3, t4);
        probe.batches += 1;
        probe.updates += batch.len() as u64;
        probe.validate_ns += nanos(t1 - t0);
        probe.apply_ns += nanos(t2 - t1);
        probe.matching_size_ns.push(nanos(t3 - t2));
        probe.matching_scan_ns.push(nanos(t4 - t3));
        probe.work += report.work;
        probe.depth += report.depth;
        probe.rebuilds += u64::from(report.rebuilt);
        probe.matched_deletions += report.matched_deletions as u64;
    }
    Ok(())
}

/// Submit and drain costs of a bare `EngineService`, one batch at a time.
#[derive(Debug, Default)]
pub struct ServiceCosts {
    pub submit_ns: Samples,
    pub drain_ns: f64,
    pub drained_updates: u64,
}

/// Replays `batches` through a fresh service, one submit and drain per batch,
/// after loading the first `warm` of them untimed.
pub fn service_probe(
    engine: Box<dyn MatchingEngine + Send>,
    batches: &[UpdateBatch],
    warm: usize,
    costs: &mut ServiceCosts,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let service = EngineService::new(engine);
    for (i, batch) in batches.iter().enumerate() {
        let updates = batch.len() as u64;
        let t0 = Instant::now();
        service.submit(batch.clone());
        let t1 = Instant::now();
        service
            .drain()
            .map_err(|e| format!("service probe drain: {e}"))?;
        let t2 = Instant::now();
        if i < warm {
            continue;
        }
        let id = i as u64;
        let root = tracer.record("probe.batch", id, None, t0, t2);
        tracer.record("service.submit", id, root, t0, t1);
        tracer.record("service.drain", id, root, t1, t2);
        costs.submit_ns.push(nanos(t1 - t0));
        costs.drain_ns += nanos(t2 - t1);
        costs.drained_updates += updates;
    }
    Ok(())
}

/// The committed stream replayed into a fresh 2-shard `ShardedService`, one
/// `try_submit` and one `drain_lossy` per batch (a closed loop), each followed
/// by a read of what the batch wrote and, before the middle batch, a
/// checkpoint.
pub struct ShardedProbe {
    pub commit_us: Samples,
    pub busy: Duration,
    /// The whole loop, reads and checkpoint included.
    pub wall: Duration,
    pub batches: u64,
    pub updates: u64,
    pub try_submit_ns: Samples,
    pub drain_ns: Samples,
    /// Per read: `snapshot()` plus the arbitrated lookups.
    pub read_ns: Samples,
    pub snapshot_ns: Samples,
    pub lookup_ns: Samples,
    pub checkpoint: String,
    pub checkpoint_write: Duration,
    pub batches_at_checkpoint: u64,
    pub cross_shard: u64,
    pub sub_batches: u64,
    pub conflicts: u64,
    pub evicted: u64,
    pub repaired: u64,
    pub rejected: u64,
    pub refused: u64,
    /// The final arbitrated matching's share of the per-shard matchings.
    pub retained: f64,
}

/// Runs the probe; returns the service it fed, for the caller's checks.
pub fn sharded_probe(
    engines: Vec<Box<dyn MatchingEngine + Send>>,
    initial: &UpdateBatch,
    batches: &[UpdateBatch],
    first_id: u64,
    tracer: &mut Tracer,
) -> Result<(ShardedService, ShardedProbe), String> {
    let service = ShardedService::with_partitioner(engines, Box::new(HashPartitioner));
    service.submit(initial.clone());
    let _ = service.drain_lossy();
    let mut probe = ShardedProbe {
        commit_us: Samples::default(),
        busy: Duration::ZERO,
        wall: Duration::ZERO,
        batches: 0,
        updates: 0,
        try_submit_ns: Samples::default(),
        drain_ns: Samples::default(),
        read_ns: Samples::default(),
        snapshot_ns: Samples::default(),
        lookup_ns: Samples::default(),
        checkpoint: String::new(),
        checkpoint_write: Duration::ZERO,
        batches_at_checkpoint: 0,
        cross_shard: 0,
        sub_batches: 0,
        conflicts: 0,
        evicted: 0,
        repaired: 0,
        rejected: 0,
        refused: 0,
        retained: 0.0,
    };
    let start = Instant::now();
    for (i, batch) in batches.iter().enumerate() {
        let id = first_id + i as u64;
        if i == batches.len() / 2 {
            let t0 = Instant::now();
            let text = service
                .checkpoint()
                .map_err(|e| format!("sharded checkpoint: {e}"))?;
            let t1 = Instant::now();
            tracer.record("checkpoint.write", id, None, t0, t1);
            probe.checkpoint = text;
            probe.checkpoint_write = t1 - t0;
            probe.batches_at_checkpoint = probe.batches;
        }
        let updates = batch.len() as u64;
        let vertices = read_vertices(batch);
        let batch = batch.clone();
        let t0 = Instant::now();
        let routed = service.try_submit(batch);
        let t1 = Instant::now();
        let report = service.drain_lossy();
        let t2 = Instant::now();
        let snapshot = service.snapshot();
        let t3 = Instant::now();
        let arbitrated = snapshot.arbitrated_matching();
        for &v in &vertices {
            black_box(arbitrated.matched_edge_of(v));
        }
        let t4 = Instant::now();
        let root = tracer.record("sharding.batch", id, None, t0, t2);
        tracer.record("sharding.try_submit", id, root, t0, t1);
        tracer.record("sharding.drain_lossy", id, root, t1, t2);
        let read = tracer.record("read", id, None, t2, t4);
        tracer.record("sharding.snapshot", id, read, t2, t3);
        tracer.record("sharding.lookup", id, read, t3, t4);
        match routed {
            Ok(route) => {
                probe.cross_shard += route.cross_shard as u64;
                probe.sub_batches += route.sub_batches() as u64;
            }
            Err(_) => probe.refused += 1,
        }
        probe.commit_us.push(micros(t2 - t0));
        probe.busy += t2 - t0;
        probe.try_submit_ns.push(nanos(t1 - t0));
        probe.drain_ns.push(nanos(t2 - t1));
        probe.read_ns.push(nanos(t4 - t2));
        probe.snapshot_ns.push(nanos(t3 - t2));
        probe
            .lookup_ns
            .push(nanos(t4 - t3) / vertices.len().max(1) as f64);
        probe.batches += 1;
        probe.updates += updates;
        let stats = report.arbitration.stats;
        probe.conflicts += stats.conflicted_vertices as u64;
        probe.evicted += stats.evicted_edges as u64;
        probe.repaired += stats.repaired_edges as u64;
        probe.rejected += report.rejected as u64;
    }
    probe.wall = start.elapsed();
    probe.retained = service.snapshot().arbitrated_matching().report().retained();
    Ok((service, probe))
}

/// Records the output check `what` as failed unless `ok`.
pub fn check(failures: &mut Vec<String>, ok: bool, what: &str) {
    if !ok {
        failures.push(what.to_string());
    }
}

/// Whether two engine state blobs are the same state.  The `cost` line (the
/// cost model's work and depth counters) is left out: the parallel engine's
/// work counter can differ by a few units between two runs of the same
/// batches, depending on how the work-stealing pool scheduled them.
pub fn same_state(a: Option<&str>, b: Option<&str>) -> bool {
    fn strip(blob: &str) -> impl Iterator<Item = &str> {
        blob.lines().filter(|line| !line.starts_with("cost "))
    }
    match (a, b) {
        (Some(a), Some(b)) => strip(a).eq(strip(b)),
        _ => false,
    }
}

/// Parses the blocks of a journal back into batches.
pub fn journal_batches(journal: &str) -> Result<Vec<UpdateBatch>, String> {
    pdmm::hypergraph::io::batches_from_string(journal).map_err(|e| format!("journal: {e}"))
}

/// The process's peak resident set (VmHWM), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("unreadable VmHWM")?;
    Ok(kb / 1024.0)
}
