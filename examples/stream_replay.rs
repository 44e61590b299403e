//! Generate, save, and replay an update stream from its on-disk representation.
//!
//! ```bash
//! cargo run --release --example stream_replay
//! ```
//!
//! Workloads are plain-text files (`+ id v1 v2 …` / `- id`, one batch per block),
//! so they can be generated once, versioned, shared with other implementations, and
//! replayed deterministically.  This example writes a churn workload to a temporary
//! file, reads it back, replays it through the dynamic matcher (validating every
//! batch on the way in), and shows that the replay is byte-for-byte the same stream
//! and produces the same matching as the in-memory workload.

use pdmm::hypergraph::io;
use pdmm::hypergraph::streams::random_churn;
use pdmm::prelude::*;

fn main() {
    let n = 2_000;
    let workload = random_churn(n, 2, 4_000, 30, 500, 0.5, 7);
    println!("== update-stream replay ==");
    println!(
        "workload: {} ({} batches, {} updates)",
        workload.name,
        workload.batches.len(),
        workload.total_updates()
    );

    // 1. Serialize the stream and write it to a file.
    let text = io::batches_to_string(&workload.batches);
    let path = std::env::temp_dir().join("pdmm_stream_replay.updates");
    std::fs::write(&path, &text).expect("write stream file");
    println!("wrote {} bytes to {}", text.len(), path.display());

    // 2. Read it back and check it is the identical stream.
    let loaded = std::fs::read_to_string(&path).expect("read stream file");
    let batches = io::batches_from_string(&loaded).expect("parse stream file");
    assert_eq!(batches, workload.batches, "round-trip must be lossless");

    // 3. Replay both through the matcher with the same seed, validating every
    //    batch on the way in (`apply_all`): identical results.
    let builder = EngineBuilder::new(n).seed(99);
    let mut from_memory = ParallelDynamicMatching::from_builder(&builder);
    from_memory
        .apply_all(&workload.batches)
        .expect("valid stream");
    let mut from_file = ParallelDynamicMatching::from_builder(&builder);
    let reports = from_file.apply_all(&batches).expect("valid stream");

    let mut a = from_memory.matching_ids();
    let mut b = from_file.matching_ids();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "replay must reproduce the exact matching");

    let metrics = from_file.metrics();
    println!(
        "replayed {} batches: matching size {}, total work {}, total depth {} — identical to the in-memory run ✓",
        reports.len(),
        from_file.matching_size(),
        metrics.work,
        metrics.depth
    );

    // 4. The serve path does the same thing end to end: a long-lived
    //    EngineService journals every committed batch in this exact format, and
    //    EngineService::replay rebuilds identical state from the journal.
    let builder = builder.clone();
    let service = EngineService::new(pdmm::engine::build(EngineKind::Parallel, &builder));
    for batch in &workload.batches {
        service.submit(batch.clone());
        service.drain().expect("valid stream");
    }
    let rebuilt = EngineService::replay(
        pdmm::engine::build(EngineKind::Parallel, &builder),
        &service.journal(),
    )
    .expect("a service journal always replays");
    assert_eq!(
        rebuilt.snapshot().edge_ids(),
        service.snapshot().edge_ids(),
        "service replay must reproduce the exact matching"
    );
    println!(
        "service journal: {} bytes, replayed to an identical matching of size {} ✓",
        service.journal().len(),
        rebuilt.snapshot().size()
    );

    let _ = std::fs::remove_file(&path);
}
