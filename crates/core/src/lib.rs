//! # pdmm-core
//!
//! The paper's primary contribution: a randomized **parallel dynamic algorithm for
//! maximal matching** in rank-`r` hypergraphs (Ghaffari & Trygub, *Parallel Dynamic
//! Maximal Matching*, SPAA 2024).  Any batch of simultaneous hyperedge insertions
//! and deletions is processed in polylogarithmic depth with polylogarithmic
//! (amortized, `poly(r)`) work per update, against an oblivious adversary.
//!
//! The crate is organised along the paper's structure:
//!
//! * [`config`] — `α = 4r`, `N`, `L = ⌈log_α N⌉` and the ablation knobs,
//! * `state` — the leveling scheme, ownership tables, `D(·)` buckets and `S_ℓ`
//!   sets of §3.2 with the `set-owner`/`set-level` procedures of §3.2.4,
//! * `settle` — `process-level`, `grand-random-settle` and the sequential
//!   `random-settle` of §3.3.2,
//! * [`algorithm`] — the batch pipeline of §3.3 (the public API),
//! * `invariants` — checkers for Invariants 3.1/3.2 and maximality,
//! * [`metrics`] — epoch statistics mirroring the analysis of §4.2.
//!
//! ## Quick start
//!
//! [`ParallelDynamicMatching`] is configured through the engine-agnostic
//! [`EngineBuilder`] and implements the workspace-wide [`MatchingEngine`] trait:
//! batches are `&[Update]` slices, invalid batches come back as typed
//! [`BatchError`]s, and the matching is queried zero-copy.
//!
//! ```
//! use pdmm_core::{EngineBuilder, MatchingEngine, ParallelDynamicMatching};
//! use pdmm_hypergraph::types::{EdgeId, HyperEdge, Update, VertexId};
//!
//! // A dynamic graph on 6 vertices, rank 2, seeded randomness.
//! let mut matcher =
//!     ParallelDynamicMatching::from_builder(&EngineBuilder::new(6).seed(7));
//!
//! // One batch of simultaneous insertions.
//! matcher
//!     .apply_batch(&[
//!         Update::Insert(HyperEdge::pair(EdgeId(0), VertexId(0), VertexId(1))),
//!         Update::Insert(HyperEdge::pair(EdgeId(1), VertexId(1), VertexId(2))),
//!         Update::Insert(HyperEdge::pair(EdgeId(2), VertexId(3), VertexId(4))),
//!     ])
//!     .unwrap();
//! assert!(matcher.matching_size() >= 2);
//!
//! // A batch mixing a deletion with an insertion; the matching is read without
//! // copying, straight out of the engine's tables.
//! matcher
//!     .apply_batch(&[
//!         Update::Delete(EdgeId(0)),
//!         Update::Insert(HyperEdge::pair(EdgeId(3), VertexId(4), VertexId(5))),
//!     ])
//!     .unwrap();
//! assert!(matcher.matching().all(|id| id != EdgeId(0)));
//! assert!(matcher.verify_invariants().is_ok());
//!
//! // Invalid batches are typed errors, not panics.
//! let err = matcher.apply_batch(&[Update::Delete(EdgeId(99))]);
//! assert!(err.is_err());
//!
//! // Lossy validation drops exact repeats and reports the rest, then the
//! // survivors commit without being checked again.
//! let lossy = matcher.validate_lossy(vec![Update::Delete(EdgeId(1)); 2]);
//! assert_eq!((lossy.survivors().len(), lossy.deduplicated), (1, 1));
//! matcher.apply_batch_trusted(lossy.proof()).unwrap();
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod algorithm;
pub mod config;
pub(crate) mod invariants;
pub mod metrics;
pub(crate) mod persist;
pub(crate) mod settle;
pub(crate) mod state;

pub use algorithm::ParallelDynamicMatching;
pub use config::{Config, LevelingParams};
pub use metrics::{LevelStats, Metrics};
pub use pdmm_hypergraph::engine::{
    BatchError, BatchReport, EngineBuilder, EngineMetrics, MatchingEngine,
};
