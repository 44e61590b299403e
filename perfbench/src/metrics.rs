//! The one metric registry: every metric the benchmark can print, with its
//! unit, and the values a run measured.

use crate::json::Json;
use std::collections::BTreeMap;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Printed with tracing off, on every workload.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("commit_updates_per_s", "updates/s"),
    m("commit_p50_us", "us"),
    m("read_p50_ns", "ns"),
    m("recover_s", "s"),
    m("ack_p50_us", "us"),
    m("ok_frac", "frac"),
    m("peak_rss_mb", "MB"),
];

/// Printed with tracing on, on every workload.  The latency tails come first:
/// on a shared machine they move with its load from one set of runs to the
/// next by more than any bound an end-to-end metric may have, so they are
/// reported here, ungated.
pub const PER_LAYER: &[Metric] = &[
    m("commit_p90_us", "us"),
    m("read_p90_ns", "ns"),
    m("loadgen.ack_p99_us", "us"),
    m("engine.validate_ns_per_update", "ns"),
    m("engine.apply_trusted_ns_per_update", "ns"),
    m("engine.matching_size_ns", "ns"),
    m("engine.matching_scan_ns", "ns"),
    m("core.work_per_update", "count"),
    m("core.depth_per_batch", "count"),
    m("core.ns_per_work", "ns"),
    m("core.rebuilds", "count"),
    m("core.matched_deletions_per_batch", "count"),
    m("service.submit_ns", "ns"),
    m("service.drain_ns_per_update", "ns"),
    m("service.overhead_ns_per_update", "ns"),
    m("service.snapshot_ns", "ns"),
    m("service.lookup_ns", "ns"),
    m("service.journal_bytes_per_update", "bytes"),
    m("checkpoint.write_ms", "ms"),
    m("checkpoint.bytes", "bytes"),
    m("checkpoint.salvage_ms", "ms"),
    m("checkpoint.tail_blocks", "count"),
    m("checkpoint.full_replay_s", "s"),
    m("sharding.try_submit_ns", "ns"),
    m("sharding.drain_lossy_ns", "ns"),
    m("sharding.cross_shard_frac", "frac"),
    m("sharding.sub_batches_per_batch", "count"),
    m("sharding.arbitration_conflicts", "count"),
    m("sharding.arbitration_evicted", "count"),
    m("sharding.arbitration_repaired", "count"),
    m("sharding.retained", "frac"),
    m("sharding.rejected_updates", "count"),
    m("net.retried", "count"),
    m("net.shed", "count"),
    m("net.errors", "count"),
    m("net.peak_buffer_bytes", "bytes"),
    m("loadgen.late_p99_us", "us"),
    m("trace.overhead_frac", "frac"),
    m("trace.uncovered_frac", "frac"),
];

#[derive(Debug, Default)]
pub struct Registry {
    values: BTreeMap<&'static str, f64>,
}

impl Registry {
    /// Records a measured value; each metric is set once per run.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "undeclared metric {name}"
        );
        let previous = self.values.insert(name, value);
        assert!(previous.is_none(), "metric {name} set twice");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The `metrics` object for one table: every metric of it, each finite.
    pub fn emit(&self, table: &[Metric]) -> Result<Json, String> {
        let mut fields = Vec::with_capacity(table.len());
        for metric in table {
            let value = self
                .get(metric.name)
                .ok_or_else(|| format!("metric {} was not measured", metric.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is not finite: {value}", metric.name));
            }
            fields.push((
                metric.name.to_string(),
                Json::obj([
                    ("value", Json::from(value)),
                    ("unit", Json::from(metric.unit)),
                ]),
            ));
        }
        Ok(Json::Obj(fields))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_file(name: &str) -> Json {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
        let text = std::fs::read_to_string(&path).expect("benchmark file is readable");
        Json::parse(&text).expect("benchmark file is JSON")
    }

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    fn table(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let doc = repo_file("../BENCHMARK.json");
        assert_eq!(declared(&doc, "end_to_end"), table(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), table(PER_LAYER));
    }

    #[test]
    fn workloads_json_describes_every_workload_and_layer() {
        let bench = repo_file("../BENCHMARK.json");
        let described = repo_file("workloads.json");
        for workload in bench.get("workloads").and_then(Json::as_array).unwrap() {
            let name = workload.get("name").and_then(Json::as_str).unwrap();
            let entry = described
                .get("workloads")
                .and_then(|w| w.get(name))
                .unwrap_or_else(|| panic!("workloads.json lacks {name}"));
            for key in ["why", "loop", "seed", "checks", "metrics"] {
                assert!(entry.get(key).is_some(), "{name} lacks {key}");
            }
        }
        let layers = described.get("layers").expect("layer map");
        for metric in PER_LAYER {
            let entry = layers
                .get(metric.name)
                .unwrap_or_else(|| panic!("no layer map entry for {}", metric.name));
            for moved in entry.get("moves").and_then(Json::as_array).unwrap() {
                let moved = moved.as_str().unwrap();
                assert!(
                    END_TO_END.iter().any(|m| m.name == moved),
                    "{} maps to unknown {moved}",
                    metric.name
                );
            }
        }
    }

    #[test]
    fn emit_requires_every_metric_of_the_table() {
        let mut registry = Registry::default();
        registry.set("setup_s", 1.5);
        assert!(registry.emit(END_TO_END).is_err());
        for metric in END_TO_END.iter().skip(1) {
            registry.set(metric.name, 2.0);
        }
        let out = registry.emit(END_TO_END).unwrap();
        assert_eq!(
            out.get("setup_s").unwrap().to_string(),
            "{\"value\": 1.5, \"unit\": \"s\"}"
        );
    }

    #[test]
    #[should_panic(expected = "set twice")]
    fn a_metric_is_set_once() {
        let mut registry = Registry::default();
        registry.set("setup_s", 1.0);
        registry.set("setup_s", 2.0);
    }
}
