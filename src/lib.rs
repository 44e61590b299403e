//! # pdmm — Parallel Dynamic Maximal Matching
//!
//! A from-scratch Rust reproduction of *Parallel Dynamic Maximal Matching*
//! (Ghaffari & Trygub, SPAA 2024): a randomized batch-dynamic algorithm that
//! maintains a maximal matching of a rank-`r` hypergraph under arbitrary batches of
//! hyperedge insertions and deletions, in polylogarithmic depth per batch and
//! polylogarithmic (amortized, `poly(r)`) work per update.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`engine`] — the engine-agnostic [`MatchingEngine`] API: the
//!   [`EngineBuilder`] configuration, typed [`engine::BatchError`]s, zero-copy
//!   matching queries, one ingest path (validate, then apply the
//!   [`engine::ValidatedBatch`] proof), and [`engine::build`] to construct any
//!   of the five engines,
//! * [`service`] — the serve path: a long-lived [`service::EngineService`]
//!   over any engine, with concurrent [`service::MatchingSnapshot`] reads, a
//!   bounded submission queue with backpressure, pluggable
//!   [`service::JournalSink`]s (in memory or one append-only file), and a
//!   journal that [`service::EngineService::replay`] rebuilds bit-identical
//!   state from,
//! * [`sharding`] — the sharded serving layer: `N` parallel
//!   [`sharding::ShardedService`] shards partitioning the vertex space behind
//!   a deterministic router, drained shard by shard and merged into
//!   [`sharding::ShardedSnapshot`] reads with explicit cross-shard
//!   accounting and a boundary-arbitrated globally valid matching
//!   ([`sharding::ArbitratedMatching`]),
//! * [`net`] — the TCP front-end: [`net::serve`] puts a wire in front of a
//!   sharded service, speaking the [`hypergraph::io`] text format with typed
//!   admission responses (`OK`/`RETRY`/`SHED`/`ERR`) so overload degrades
//!   gracefully instead of blocking connections,
//! * [`checkpoint`] — checkpointed durability: fingerprinted drain-boundary
//!   checkpoints that cap replay work, `O(delta)` recovery via
//!   [`service::EngineService::recover`] /
//!   [`sharding::ShardedService::recover`], and the fault-injecting
//!   [`checkpoint::FaultSink`] the crash tests are built on,
//! * [`core`] ([`ParallelDynamicMatching`]) — the paper's algorithm,
//! * [`hypergraph`] — the dynamic hypergraph substrate, workload generators,
//!   update streams, matching verification and the §3.1 greedy scan,
//! * [`static_matching`] — the static parallel maximal matching of Theorem 2.2,
//!   and the recompute-from-scratch engine over it or over the greedy scan,
//! * [`seq_dynamic`] — [`seq_dynamic::SequentialRepair`], the sequential
//!   dynamic repair baseline under its two replacement rules,
//! * [`primitives`] — the work/depth cost model and deterministic
//!   randomness every engine shares.
//!
//! ## Quick start
//!
//! Engines are configured with the [`EngineBuilder`] and driven through the
//! [`MatchingEngine`] trait — batches are `&[Update]` slices and invalid batches
//! come back as typed errors instead of panics:
//!
//! ```
//! use pdmm::prelude::*;
//!
//! // Build a random graph workload delivered in batches of 64 updates.
//! let edges = pdmm::hypergraph::generators::gnm_graph(1_000, 4_000, 7, 0);
//! let workload = pdmm::hypergraph::streams::sliding_window(1_000, edges, 64, 16);
//!
//! // Configure the paper's engine; the same builder configures every baseline.
//! let builder = EngineBuilder::new(workload.num_vertices).seed(42);
//! let mut matcher = ParallelDynamicMatching::from_builder(&builder);
//!
//! // Maintain a maximal matching through the whole stream.
//! for batch in &workload.batches {
//!     matcher.apply_batch(batch).unwrap();
//! }
//! assert!(matcher.verify_invariants().is_ok());
//!
//! // Zero-copy query of the final matching.
//! let size = matcher.matching().count();
//! assert_eq!(size, matcher.matching_size());
//! ```
//!
//! Every batch is validated once, then applied without a second check.
//! [`MatchingEngine::validate`] refuses a whole batch with a typed error;
//! [`MatchingEngine::validate_lossy`] keeps the legal updates of a dirty batch,
//! dropping exact repeats and reporting the rest:
//!
//! ```
//! use pdmm::prelude::*;
//!
//! let mut engine = pdmm::engine::build(EngineKind::Parallel, &EngineBuilder::new(4));
//! let e = Update::Insert(HyperEdge::pair(EdgeId(0), VertexId(0), VertexId(1)));
//! let conflict = Update::Insert(HyperEdge::pair(EdgeId(0), VertexId(2), VertexId(3)));
//! // Strict: the whole batch is refused, nothing is applied.
//! assert!(engine.validate(&[e.clone(), conflict.clone()]).is_err());
//! // Lossy: the exact repeat is dropped, the conflicting insert is reported.
//! let lossy = engine.validate_lossy(vec![e.clone(), e, conflict]);
//! assert_eq!((lossy.deduplicated, lossy.rejected.len()), (1, 1));
//! let report = engine.apply_batch_trusted(lossy.proof()).unwrap();
//! assert_eq!(report.batch_size, 1);
//! ```
//!
//! For a long-lived deployment, wrap any engine in an
//! [`service::EngineService`]: validated [`UpdateBatch`]es go through a bounded
//! submission queue, snapshots are read concurrently while batches commit, and
//! the journal replays to bit-identical state (the same example, with the full
//! story, lives in the [`service`] module docs):
//!
//! ```
//! use pdmm::prelude::*;
//!
//! let builder = EngineBuilder::new(4).seed(1);
//! let service = EngineService::new(pdmm::engine::build(EngineKind::Parallel, &builder));
//! let batch = UpdateBatch::new(vec![Update::Insert(HyperEdge::pair(
//!     EdgeId(0),
//!     VertexId(0),
//!     VertexId(1),
//! ))])
//! .unwrap();
//! service.submit(batch);
//! service.drain().unwrap();
//! assert_eq!(service.snapshot().size(), 1);
//!
//! let replayed =
//!     EngineService::replay(pdmm::engine::build(EngineKind::Parallel, &builder), &service.journal())
//!         .unwrap();
//! assert_eq!(replayed.snapshot().edge_ids(), service.snapshot().edge_ids());
//! ```
//!
//! To split the vertex space across several engines, shard it: a
//! [`sharding::ShardedService`] routes every update to a deterministic owner
//! shard, drains the shards one after another on the calling thread, and
//! publishes one globally valid matching arbitrated from the per-shard ones
//! (the full story lives in the [`sharding`] module docs):
//!
//! ```
//! use pdmm::prelude::*;
//!
//! let builder = EngineBuilder::new(64).seed(1);
//! let engines = (0..4)
//!     .map(|_| pdmm::engine::build(EngineKind::Parallel, &builder))
//!     .collect();
//! let service = ShardedService::new(engines);
//! let workload = pdmm::hypergraph::streams::skewed_churn(64, 2, 40, 4, 16, 0.6, 2.0, 9);
//! for batch in &workload.batches {
//!     service.submit(batch.clone());
//! }
//! service.drain().unwrap();
//! let snap = service.snapshot();
//! // The globally valid matching: boundary arbitration awards every conflicted
//! // vertex to one shard, evicts the losers and repairs around them, so the
//! // arbitrated view passes the same validity+maximality audit as one engine.
//! let arbitrated = snap.arbitrated_matching();
//! assert!(!arbitrated.is_empty());
//! assert!(arbitrated.conflicted_vertices().is_empty());
//! assert!(arbitrated.report().retained() <= 1.0);
//! // Rebuild all four shards bit-identically from the shard-tagged journal.
//! let engines = (0..4)
//!     .map(|_| pdmm::engine::build(EngineKind::Parallel, &builder))
//!     .collect();
//! let replayed = ShardedService::replay(engines, &service.journal()).unwrap();
//! assert_eq!(replayed.snapshot().arbitrated_matching(), arbitrated);
//! ```
//!
//! [`UpdateBatch`]: prelude::UpdateBatch

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod engine;

pub use pdmm_hypergraph::checkpoint;
pub use pdmm_hypergraph::net;
pub use pdmm_hypergraph::service;
pub use pdmm_hypergraph::sharding;

pub use pdmm_core as core;
pub use pdmm_hypergraph as hypergraph;
pub use pdmm_primitives as primitives;
pub use pdmm_seq_dynamic as seq_dynamic;
pub use pdmm_static as static_matching;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::engine::{
        BatchError, BatchReport, EngineBuilder, EngineKind, EngineMetrics, IngestReport,
        LossyBatch, MatchingEngine, RejectedUpdate, ValidatedBatch,
    };
    pub use pdmm_core::{Config, ParallelDynamicMatching};
    pub use pdmm_hypergraph::graph::DynamicHypergraph;
    pub use pdmm_hypergraph::matching::{verify_maximality, verify_validity};
    pub use pdmm_hypergraph::net::{
        serve, AdmissionPolicy, DrainMode, FairnessPolicy, Response, ServerConfig, ServerHandle,
        ServerStats,
    };
    pub use pdmm_hypergraph::service::{EngineService, MatchingSnapshot};
    pub use pdmm_hypergraph::sharding::{
        ArbitratedMatching, ArbitrationReport, Partitioner, ShardedService, ShardedSnapshot,
    };
    pub use pdmm_hypergraph::streams::Workload;
    pub use pdmm_hypergraph::types::{EdgeId, HyperEdge, ShardId, Update, UpdateBatch, VertexId};
}

pub use prelude::{Config, EngineBuilder, EngineKind, MatchingEngine, ParallelDynamicMatching};

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let mut matcher = ParallelDynamicMatching::from_builder(&EngineBuilder::new(4));
        matcher
            .apply_batch(&[Update::Insert(HyperEdge::pair(
                EdgeId(0),
                VertexId(0),
                VertexId(1),
            ))])
            .unwrap();
        assert_eq!(matcher.matching_size(), 1);
    }
}
