//! Turns probe results into the per-layer metrics.

use crate::metrics::Registry;
use crate::probes::{EngineProbe, ServiceCosts, ShardedProbe};
use crate::trace::{uncovered_frac, Tracer};
use std::time::Duration;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn set_engine(registry: &mut Registry, probe: &EngineProbe) {
    let updates = probe.updates as f64;
    let batches = probe.batches as f64;
    registry.set(
        "engine.validate_ns_per_update",
        ratio(probe.validate_ns, updates),
    );
    registry.set(
        "engine.apply_trusted_ns_per_update",
        ratio(probe.apply_ns, updates),
    );
    registry.set("engine.matching_size_ns", probe.matching_size_ns.mean());
    registry.set("engine.matching_scan_ns", probe.matching_scan_ns.mean());
    registry.set("core.work_per_update", ratio(probe.work as f64, updates));
    registry.set("core.depth_per_batch", ratio(probe.depth as f64, batches));
    registry.set("core.ns_per_work", ratio(probe.apply_ns, probe.work as f64));
    registry.set("core.rebuilds", probe.rebuilds as f64);
    registry.set(
        "core.matched_deletions_per_batch",
        ratio(probe.matched_deletions as f64, batches),
    );
}

/// Mean cost of one read's `snapshot()` and of one of its lookups.
pub struct ReadCosts {
    pub snapshot_ns: f64,
    pub lookup_ns: f64,
}

/// Service costs; the overhead is the drain's cost beyond the twin engine's
/// validate and apply, i.e. mirror, journal, scans and publish.
pub fn set_service(
    registry: &mut Registry,
    costs: &ServiceCosts,
    engine: &EngineProbe,
    reads: &ReadCosts,
    journal_bytes_per_update: f64,
) {
    let drain = ratio(costs.drain_ns, costs.drained_updates as f64);
    let engine_ns = ratio(engine.validate_ns + engine.apply_ns, engine.updates as f64);
    registry.set("service.submit_ns", costs.submit_ns.mean());
    registry.set("service.drain_ns_per_update", drain);
    registry.set("service.overhead_ns_per_update", drain - engine_ns);
    registry.set("service.snapshot_ns", reads.snapshot_ns);
    registry.set("service.lookup_ns", reads.lookup_ns);
    registry.set("service.journal_bytes_per_update", journal_bytes_per_update);
}

pub struct CheckpointCosts {
    pub write_ms: f64,
    pub bytes: f64,
    pub salvage_ms: f64,
    pub tail_blocks: f64,
    pub full_replay_s: f64,
}

pub fn set_checkpoint(registry: &mut Registry, costs: &CheckpointCosts) {
    registry.set("checkpoint.write_ms", costs.write_ms);
    registry.set("checkpoint.bytes", costs.bytes);
    registry.set("checkpoint.salvage_ms", costs.salvage_ms);
    registry.set("checkpoint.tail_blocks", costs.tail_blocks);
    registry.set("checkpoint.full_replay_s", costs.full_replay_s);
}

/// Routing and arbitration figures; the wire workload overrides the counts
/// with what its server reported.
pub struct ShardingFigures {
    pub cross_shard_frac: f64,
    pub sub_batches_per_batch: f64,
    pub conflicts: f64,
    pub evicted: f64,
    pub repaired: f64,
    pub retained: f64,
    pub rejected: f64,
}

impl ShardingFigures {
    pub fn from_probe(probe: &ShardedProbe) -> Self {
        let admitted = (probe.batches - probe.refused) as f64;
        ShardingFigures {
            cross_shard_frac: ratio(probe.cross_shard as f64, probe.updates as f64),
            sub_batches_per_batch: ratio(probe.sub_batches as f64, admitted),
            conflicts: probe.conflicts as f64,
            evicted: probe.evicted as f64,
            repaired: probe.repaired as f64,
            retained: probe.retained,
            rejected: probe.rejected as f64,
        }
    }
}

pub fn set_sharding(registry: &mut Registry, probe: &ShardedProbe, figures: &ShardingFigures) {
    registry.set("sharding.try_submit_ns", probe.try_submit_ns.mean());
    registry.set("sharding.drain_lossy_ns", probe.drain_ns.mean());
    registry.set("sharding.cross_shard_frac", figures.cross_shard_frac);
    registry.set(
        "sharding.sub_batches_per_batch",
        figures.sub_batches_per_batch,
    );
    registry.set("sharding.arbitration_conflicts", figures.conflicts);
    registry.set("sharding.arbitration_evicted", figures.evicted);
    registry.set("sharding.arbitration_repaired", figures.repaired);
    registry.set("sharding.retained", figures.retained);
    registry.set("sharding.rejected_updates", figures.rejected);
}

#[derive(Default)]
pub struct NetFigures {
    pub retried: f64,
    pub shed: f64,
    pub errors: f64,
    pub peak_buffer_bytes: f64,
}

/// Wire counts, and the open loop's lateness and pooled p99 acknowledgement.
pub fn set_net(registry: &mut Registry, figures: &NetFigures, late_p99_us: f64, ack_p99_us: f64) {
    registry.set("net.retried", figures.retried);
    registry.set("net.shed", figures.shed);
    registry.set("net.errors", figures.errors);
    registry.set("net.peak_buffer_bytes", figures.peak_buffer_bytes);
    registry.set("loadgen.late_p99_us", late_p99_us);
    registry.set("loadgen.ack_p99_us", ack_p99_us);
}

/// Tracing overhead, as the traced timed phases' wall clock against the same
/// phases run again untraced, and the share of the timed phase `[from, to]`
/// that no top-level span covers.
pub fn set_trace(
    registry: &mut Registry,
    tracer: &Tracer,
    (from, to): (u64, u64),
    traced: Duration,
    untraced: Duration,
) {
    let (traced, untraced) = (traced.as_secs_f64(), untraced.as_secs_f64());
    registry.set("trace.overhead_frac", ratio(traced - untraced, untraced));
    registry.set(
        "trace.uncovered_frac",
        uncovered_frac(tracer.spans(), from, to),
    );
}
