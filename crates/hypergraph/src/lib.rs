//! # pdmm-hypergraph
//!
//! Dynamic rank-`r` hypergraph substrate for the Parallel Dynamic Maximal Matching
//! reproduction (Ghaffari & Trygub, SPAA 2024):
//!
//! * [`types`] — vertex/edge identifiers, hyperedges and the fully dynamic
//!   [`types::Update`] model of §2,
//! * [`engine`] — the [`engine::MatchingEngine`] API every matcher in the
//!   workspace implements: typed [`engine::BatchError`]s, zero-copy matching
//!   queries, the [`engine::EngineBuilder`] configuration, and the one ingest
//!   path ([`engine::MatchingEngine::validate`] or
//!   [`engine::MatchingEngine::validate_lossy`], then
//!   [`engine::MatchingEngine::apply_batch_trusted`]),
//! * [`graph`] — the ground-truth dynamic hypergraph,
//! * [`matching`] — matchings, validity/maximality verification, the §3.1
//!   greedy scan and an exact maximum matching for tests,
//! * [`generators`] — synthetic graph and hypergraph families,
//! * [`streams`] — batched oblivious-adversary update streams,
//! * [`io`] — a line-based interchange format for update streams,
//! * [`service`] — the serve path: a long-lived [`service::EngineService`] over
//!   any engine with concurrent snapshot reads, a bounded submission queue,
//!   pluggable [`service::JournalSink`]s, and a replayable journal,
//! * [`sharding`] — the sharded serving layer: the vertex space partitioned
//!   across parallel [`sharding::ShardedService`] shards behind a
//!   deterministic router and a merge front-end,
//! * [`net`] — the TCP front-end: newline-framed batches over a socket into a
//!   [`sharding::ShardedService`], with typed admission control
//!   (`OK`/`RETRY`/`SHED`/`ERR`) instead of blocking under overload,
//! * [`checkpoint`] — checkpointed durability: fingerprinted drain-boundary
//!   checkpoints over an append-only journal, `O(delta)` recovery from
//!   checkpoint + journal tail, and the fault-injecting
//!   [`checkpoint::FaultSink`] for crash testing.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod checkpoint;
pub mod engine;
pub mod generators;
pub mod graph;
pub mod io;
pub mod matching;
pub mod net;
pub mod service;
pub mod sharding;
pub mod streams;
pub mod types;

pub use engine::{
    BatchError, BatchReport, EngineBuilder, EngineKind, EngineMetrics, MatchingEngine, MatchingIter,
};
pub use graph::DynamicHypergraph;
pub use matching::{
    verify_maximality, verify_validity, DeltaTracker, Matching, MatchingDelta, MatchingError,
};
pub use service::{EngineService, MatchingSnapshot};
pub use sharding::{Partitioner, ShardedService, ShardedSnapshot};
pub use streams::Workload;
pub use types::{EdgeId, HyperEdge, ShardId, Update, UpdateBatch, VertexId};
