//! The engine-agnostic API, plus construction of every engine the workspace
//! ships.
//!
//! The trait, builder, proof, and error types live in
//! [`pdmm_hypergraph::engine`] (re-exported here); this module adds the one piece
//! that has to sit above all engine crates: [`build`], which turns an
//! [`EngineKind`] plus an [`EngineBuilder`] into a boxed [`MatchingEngine`].
//!
//! ```
//! use pdmm::engine::{self, EngineBuilder, EngineKind};
//! use pdmm::prelude::*;
//!
//! let builder = EngineBuilder::new(100).rank(2).seed(7);
//! let mut engines = engine::build_all(&builder);
//! let batch = vec![Update::Insert(HyperEdge::pair(EdgeId(0), VertexId(0), VertexId(1)))];
//! for engine in &mut engines {
//!     engine.apply_batch(&batch).unwrap();
//!     assert_eq!(engine.matching_size(), 1, "{} disagrees", engine.name());
//! }
//! ```

pub use pdmm_hypergraph::engine::{
    run_batch_trusted, validation_checks, BatchError, BatchKernel, BatchLedger, BatchReport,
    EngineBuilder, EngineKind, EngineMetrics, EnginePool, IngestReport, KernelOutcome, LossyBatch,
    MatchingEngine, MatchingIter, RejectedUpdate, RepairError, UpdateCheck, UpdateCounters,
    ValidatedBatch, ValidationToken,
};
pub use pdmm_hypergraph::matching::{DeltaTracker, MatchingDelta};

/// Constructs the engine of the given kind from a shared builder configuration.
///
/// Engines with parallel phases ([`EngineKind::Parallel`] and
/// [`EngineKind::RecomputeSequential`]) honor [`EngineBuilder::threads`] by
/// constructing an owned work-stealing pool and running every batch on it.
/// Every engine is `Send`, so the result can be moved into a long-lived
/// [`pdmm_hypergraph::service::EngineService`] and shared across threads.
///
/// ```
/// use pdmm::engine::{self, EngineBuilder, EngineKind};
///
/// let builder = EngineBuilder::new(100).rank(2).seed(7).threads(2);
/// let engine = engine::build(EngineKind::Parallel, &builder);
/// assert_eq!(engine.name(), "parallel-dynamic");
/// assert_eq!(engine.num_vertices(), 100);
/// ```
#[must_use]
pub fn build(kind: EngineKind, builder: &EngineBuilder) -> Box<dyn MatchingEngine + Send> {
    match kind {
        EngineKind::Parallel => Box::new(pdmm_core::ParallelDynamicMatching::from_builder(builder)),
        EngineKind::NaiveSequential => Box::new(
            pdmm_seq_dynamic::NaiveDynamicMatching::from_builder(builder),
        ),
        EngineKind::RandomReplace => Box::new(
            pdmm_seq_dynamic::RandomReplaceMatching::from_builder(builder),
        ),
        EngineKind::RecomputeSequential => Box::new(
            pdmm_seq_dynamic::RecomputeFromScratch::from_builder(builder),
        ),
        EngineKind::StaticRecompute => {
            Box::new(pdmm_static::StaticRecompute::from_builder(builder))
        }
    }
}

/// Constructs one engine of every kind from a shared builder configuration.
///
/// ```
/// use pdmm::engine::{self, EngineBuilder, EngineKind};
///
/// let engines = engine::build_all(&EngineBuilder::new(10));
/// assert_eq!(engines.len(), EngineKind::ALL.len());
/// ```
#[must_use]
pub fn build_all(builder: &EngineBuilder) -> Vec<Box<dyn MatchingEngine + Send>> {
    EngineKind::ALL.iter().map(|&k| build(k, builder)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_covers_every_kind_with_matching_names() {
        let builder = EngineBuilder::new(10).rank(3).seed(1);
        for kind in EngineKind::ALL {
            let engine = build(kind, &builder);
            assert_eq!(engine.name(), kind.name());
            assert_eq!(engine.num_vertices(), 10);
            assert_eq!(engine.max_rank(), 3);
        }
        assert_eq!(build_all(&builder).len(), EngineKind::ALL.len());
    }
}
