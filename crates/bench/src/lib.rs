//! # pdmm-bench
//!
//! Benchmark harness for the Parallel Dynamic Maximal Matching reproduction:
//!
//! * [`experiments`] — the E1–E12 experiment suite (one function per claim of
//!   the paper, plus the serve-path E11 and shard-scaling E12); the
//!   `experiments` binary drives it and prints its tables (README,
//!   "Benchmarks and experiments");
//! * [`runner`] — the single engine-agnostic workload runner the experiments
//!   share (every engine goes through [`runner::run_workload`]; no per-engine
//!   code paths);
//! * [`table`] — plain-text table rendering.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod experiments;
pub mod runner;
pub mod table;

pub use experiments::{run_by_id, Scale, ALL_EXPERIMENTS};
