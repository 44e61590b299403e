//! Hypergraph maximal matching as a dynamic task scheduler.
//!
//! ```bash
//! cargo run --release --example hypergraph_scheduling
//! ```
//!
//! A hyperedge is a *task* that needs an exclusive set of up to `r` resources
//! (machines, GPUs, file locks).  A matching is a conflict-free schedule: no two
//! running tasks share a resource.  A *maximal* matching means no submitted task
//! that could run right now is left idle — exactly the greedy admission guarantee a
//! scheduler wants.  Tasks are submitted and cancelled one tick at a time (the
//! shape a real admission queue has: validate the tick's requests once, dropping
//! exact repeats and reporting malformed ones, then commit the survivors).

use pdmm::hypergraph::streams::random_churn;
use pdmm::prelude::*;

fn main() {
    let resources = 5_000; // vertices
    let rank = 4; // each task locks up to 4 resources
    let initial_tasks = 20_000;
    let batches = 40;
    let batch_size = 1_000;

    println!("== dynamic task scheduling over {resources} resources (rank {rank}) ==");

    // Submit an initial wave of tasks, then churn: cancellations + new submissions.
    let workload = random_churn(
        resources,
        rank,
        initial_tasks,
        batches,
        batch_size,
        0.5,
        2024,
    );

    let builder = EngineBuilder::new(resources)
        .rank(rank)
        .seed(99)
        .capacity_hint(initial_tasks + batches * batch_size);
    let mut scheduler = ParallelDynamicMatching::from_builder(&builder);

    let mut running_history = Vec::new();
    for (i, batch) in workload.batches.iter().enumerate() {
        // Admission control: a malformed request would surface here as a typed
        // rejection instead of corrupting the schedule.
        let tick = scheduler.validate_lossy(batch.updates().to_vec());
        assert!(tick.rejected.is_empty(), "well-formed requests");
        let report = scheduler
            .apply_batch_trusted(tick.proof())
            .expect("validated tick");
        running_history.push(report.matching_size);
        if i % 8 == 0 {
            println!(
                "batch {i:>3}: {:>6} tasks running, {:>4} forced reschedules, depth {:>4} rounds",
                report.matching_size, report.matched_deletions, report.depth
            );
        }
    }

    let metrics = scheduler.epoch_metrics();
    println!("\n-- summary --");
    println!("updates processed:        {}", metrics.updates);
    println!(
        "tasks admitted (epochs):  {}",
        metrics.total_epochs_created()
    );
    println!("cancelled while running:  {}", metrics.total_natural_ends());
    println!("pre-empted by scheduler:  {}", metrics.total_induced_ends());
    println!("tasks parked in D(·):     {}", metrics.temp_deletions);
    println!(
        "amortized work per update: {:.1}",
        scheduler.metrics().work_per_update()
    );
    println!("levels used: {} (α = {})", scheduler.num_levels(), 4 * rank);

    // The resource-cover view (§2): endpoints of the matching form a vertex cover,
    // i.e. every submitted task touches at least one resource that is in use.
    scheduler.verify_invariants().expect("invariants hold");
    println!("schedule is maximal and invariants hold ✓");

    let avg_running: f64 =
        running_history.iter().sum::<usize>() as f64 / running_history.len() as f64;
    println!("average concurrently running tasks: {avg_running:.0}");
}
