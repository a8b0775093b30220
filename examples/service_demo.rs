//! Service demo: a long-lived `PathService` forming shared micro-batches from a query
//! stream, compared against per-query serving of the exact same stream.
//!
//! ```bash
//! cargo run --release --example service_demo
//! ```

// Stdout is the product here: examples narrate what they compute.
#![allow(clippy::print_stdout)]

use hcsp::prelude::*;
use hcsp::workload::{similar_query_set, ArrivalProcess, Dataset, DatasetScale, QuerySetSpec};
use std::time::{Duration, Instant};

fn main() {
    // A social-network analog and a similarity-heavy query stream: many users asking
    // about overlapping regions of the graph within a short time span.
    let graph = Dataset::EP.build(DatasetScale::Tiny);
    println!(
        "graph: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );
    let queries = similar_query_set(&graph, QuerySetSpec::new(32, 9).with_hops(3, 4), 0.6);
    // Poisson arrivals at 2000 queries/second — bursty enough that an admission window
    // catches co-arriving queries.
    let schedule = ArrivalProcess::Poisson { rate_qps: 2000.0 }.schedule(&queries, 7);

    for (name, policy) in [
        ("per-query (deadline 0)", BatchPolicy::immediate()),
        (
            "micro-batched (≤16 queries / 5 ms window)",
            BatchPolicy::by_size(16, Duration::from_millis(5)),
        ),
    ] {
        let service = PathService::builder()
            .policy(policy)
            .start(graph.clone())
            .unwrap();
        // Replay the stream open-loop: sleep until each arrival, then submit.
        let start = Instant::now();
        let mut handles = Vec::with_capacity(schedule.len());
        for &(offset, query) in &schedule {
            std::thread::sleep(offset.saturating_sub(start.elapsed()));
            handles.push(service.try_submit_spec(QuerySpec::collect(query)).unwrap());
        }
        let total_paths: usize = handles
            .into_iter()
            .map(|h| {
                h.wait_result()
                    .unwrap()
                    .response
                    .into_paths()
                    .unwrap()
                    .len()
            })
            .sum();
        let uptime = service.uptime();
        let stats = service.shutdown();

        println!("\n=== {name} ===");
        println!("queries served     : {}", stats.num_queries);
        println!("paths delivered    : {total_paths}");
        println!("micro-batches      : {}", stats.num_batches);
        println!("mean batch size    : {:.1}", stats.mean_batch_size());
        println!("sharing ratio      : {:.2}", stats.sharing_ratio());
        println!("mean queue wait    : {:?}", stats.mean_queue_wait());
        println!("max queue wait     : {:?}", stats.max_queue_wait);
        println!("service exec time  : {:?}", stats.total_exec_time);
        println!(
            "throughput         : {:.0} q/s",
            stats.throughput_qps(uptime)
        );
    }

    println!("\nSame stream, same results — the policy only changes how much work is shared.");
}
