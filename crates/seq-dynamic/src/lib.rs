//! # pdmm-seq-dynamic
//!
//! Baseline dynamic maximal-matching algorithms for the Parallel Dynamic Maximal
//! Matching reproduction (Ghaffari & Trygub, SPAA 2024):
//!
//! * [`naive`] — the §3.1 strawman: one update at a time, greedy repair by scanning
//!   the incidence lists of exposed endpoints;
//! * [`random_replace`] — the same structure with uniformly random replacement
//!   choices (the raw intuition behind random-settle, without a leveling scheme).
//!
//! The recompute-from-scratch baselines (Theorem 2.2 or the greedy scan used
//! statically after every batch) are `pdmm-static`'s `Recompute` engine.
//!
//! The *leveled* sequential dynamic algorithm of \[BGS11\]/\[AS21\] is obtained by
//! driving the paper's algorithm (`pdmm-core`) with single-update batches; the
//! experiment harness (`pdmm-bench`) does exactly that for experiment E5, so it is
//! not duplicated here.
//!
//! Every baseline implements the workspace-wide
//! [`pdmm_hypergraph::engine::MatchingEngine`] trait and is constructed from the
//! same [`pdmm_hypergraph::engine::EngineBuilder`] as the parallel algorithm, so
//! the harness and the conformance tests drive all of them identically.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod naive;
mod persist;
pub mod random_replace;

pub use naive::NaiveDynamicMatching;
pub use random_replace::RandomReplaceMatching;
