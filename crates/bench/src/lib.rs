//! # pdmm-bench
//!
//! Benchmark harness for the Parallel Dynamic Maximal Matching reproduction:
//!
//! * [`experiments`] — the E1–E12 experiment suite (one function per claim of
//!   the paper, plus the serve-path E11 and shard-scaling E12); the
//!   `experiments` binary drives it and prints its tables (README,
//!   "Benchmarks and experiments");
//! * [`runner`] — the single engine-agnostic workload runner shared with the
//!   criterion benches in `benches/` (every engine goes through
//!   [`runner::run_workload`]; no per-engine code paths);
//! * [`loadgen`] — the open-loop TCP load generator for the `pdmm::net`
//!   front-end (the `net_load` binary drives it and records
//!   `BENCH_net.json`);
//! * [`table`] — plain-text table rendering.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod experiments;
pub mod loadgen;
pub mod runner;
pub mod table;

pub use experiments::{run_by_id, Scale, ALL_EXPERIMENTS};
pub use loadgen::{LoadConfig, LoadReport};
pub use runner::{run_kind, run_workload, RunStats};
