//! Durable service demo: a `PathService` whose graph updates survive restarts.
//!
//! Every acknowledged update batch is appended to a CRC-framed write-ahead log before
//! it is published to queries; checkpoints fold the log into a snapshot so restarts
//! replay only the tail. This demo writes through a real directory, "restarts" by
//! dropping and reopening the service, and prints what recovery found each time.
//!
//! ```bash
//! cargo run --release --example durable_service
//! ```

// Stdout is the product here: examples narrate what they compute.
#![allow(clippy::print_stdout)]

use hcsp::prelude::*;
use hcsp::workload::{Dataset, DatasetScale};

/// How many paths the service answers for `query` (a `Collect`-mode request).
fn count_paths(service: &PathService, query: PathQuery) -> usize {
    let handle = service
        .try_submit_spec(QuerySpec::collect(query))
        .expect("query admitted");
    let result = handle.wait_result().expect("query answered");
    result
        .response
        .paths()
        .expect("Collect mode answers with paths")
        .len()
}

fn main() {
    let dir = std::env::temp_dir().join(format!("hcsp-durable-demo-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create demo directory");
    println!("store directory: {}", dir.display());

    // A social-network analog; the service starts durable, so the initial graph is
    // snapshotted before the first query is admitted.
    let graph = Dataset::EP.build(DatasetScale::Tiny);
    println!(
        "graph: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );
    let probe = PathQuery::new(0u32, 7u32, 4);

    let service = PathService::builder()
        .durability(DurabilityOptions::directory(&dir))
        .start(graph.clone())
        .expect("create durable service");
    let before = count_paths(&service, probe);

    // Mutate the graph: every batch is logged (fsync'd, `FsyncPolicy::Always` is the
    // default) before its UpdateHandle resolves.
    for batch in [
        vec![
            GraphUpdate::insert(0u32, 170u32),
            GraphUpdate::insert(170u32, 7u32),
        ],
        vec![GraphUpdate::delete(0u32, 170u32)],
        vec![GraphUpdate::insert(0u32, 170u32)],
    ] {
        service
            .try_update(batch)
            .expect("update acknowledged")
            .wait_result()
            .expect("update applied");
    }
    let after = count_paths(&service, probe);
    println!("\npaths for {probe}: {before} before the updates, {after} after");
    drop(service); // "crash": no checkpoint was taken, the whole tail must replay

    // Restart #1: recovery = newest snapshot + WAL tail replay.
    let service = PathService::open(&dir).expect("reopen durable service");
    let report = service
        .recovery()
        .expect("reopened services carry a report");
    println!(
        "\nrestart #1: snapshot had {} batches, replayed {} batches / {} updates from {} log file(s)",
        report.snapshot_batches, report.replayed_batches, report.replayed_updates, report.wal_files
    );
    let recovered = count_paths(&service, probe);
    assert_eq!(
        recovered, after,
        "recovery must serve the exact pre-crash graph"
    );
    println!("paths for {probe} after recovery: {recovered} (identical)");

    // Checkpoint: fold the tail into a fresh snapshot, truncate the log.
    let installed = service.checkpoint().expect("checkpoint");
    println!("\ncheckpoint installed: {installed}");
    drop(service);

    // Restart #2: the tail is empty now — recovery is a snapshot load, no replay.
    let service = PathService::open(&dir).expect("reopen after checkpoint");
    let report = service.recovery().expect("report");
    println!(
        "restart #2: snapshot had {} batches, replayed {} (the checkpoint emptied the tail)",
        report.snapshot_batches, report.replayed_batches
    );
    assert_eq!(report.replayed_batches, 0);
    assert_eq!(count_paths(&service, probe), after);
    service.shutdown();

    std::fs::remove_dir_all(&dir).expect("clean up demo directory");
    println!("\ndone; store directory removed");
}
