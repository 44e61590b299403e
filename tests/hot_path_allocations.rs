//! Pins the parallel engine's steady-state **allocation count** per batch.
//!
//! The kernel recycles edge endpoint slices, feeds Luby borrowed views, keeps
//! its per-batch lists and re-insertion buffer between batches, and the
//! matching-delta tracker packs endpoints into one pooled buffer, so once
//! those buffers have grown a batch allocates little beyond the growth of
//! vertex buckets and what the serving layer around the kernel needs (the
//! delta's `HyperEdge`s, the published snapshot, the journal text).  A
//! counting global allocator counts the calling thread's allocations and
//! reallocations over a window of submit-and-drain calls on an
//! `EngineService`; with no thread budget the engine runs its batches on
//! the calling thread, so the window sees them.
//!
//! The counter is a const-initialized thread-local `Cell` read with
//! `try_with`, so counting never allocates and other test threads do not
//! disturb it.  This file holds one test, as `hot_path_validation.rs` does.

use pdmm::engine::{self, EngineKind};
use pdmm::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator, counting every allocation and
/// reallocation made by the current thread.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.try_with(Cell::get).unwrap_or(0)
}

// SAFETY: every method forwards to `System` unchanged; counting touches only
// a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Batches committed before counting starts (after the priming batch).
const WARM_BATCHES: usize = 100;
/// Batches counted.
const COUNTED_BATCHES: usize = 500;
/// Allocations plus reallocations per counted batch: 94.6 when this pin was
/// recorded, plus 10%.  Before the endpoint recycling, the borrowed Luby
/// inputs, the reused per-batch lists and the pooled delta tracker, the same
/// window counted 251.2 per batch.
const MAX_ALLOCATIONS_PER_BATCH: f64 = 94.6 * 1.1;

#[test]
fn parallel_engine_batches_stay_within_the_allocation_pin() {
    let workload = pdmm::hypergraph::streams::random_churn(
        10_000,
        3,
        2_000,
        WARM_BATCHES + COUNTED_BATCHES,
        64,
        0.5,
        17,
    );
    let (warm, counted) = workload.batches.split_at(1 + WARM_BATCHES);
    assert_eq!(counted.len(), COUNTED_BATCHES);
    // No thread budget: the engine runs its batches on this thread.
    let builder = EngineBuilder::new(workload.num_vertices).rank(3).seed(29);
    let service = EngineService::new(engine::build(EngineKind::Parallel, &builder));
    for batch in warm {
        service.submit(batch.clone());
        service.drain().expect("valid batches drain");
    }
    // Copy the batches before counting: the window holds only what the
    // service does with a batch it is handed.
    let counted = counted.to_vec();
    let before = allocations();
    for batch in counted {
        service.submit(batch);
        service.drain().expect("valid batches drain");
    }
    let per_batch = (allocations() - before) as f64 / COUNTED_BATCHES as f64;
    eprintln!("allocations and reallocations per batch: {per_batch:.1}");
    assert!(
        per_batch <= MAX_ALLOCATIONS_PER_BATCH,
        "{per_batch:.1} allocations per batch, above the pin of {MAX_ALLOCATIONS_PER_BATCH:.1}"
    );
    assert_eq!(
        service.snapshot().committed_batches(),
        workload.batches.len() as u64
    );
}
