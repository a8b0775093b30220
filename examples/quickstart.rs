//! Quickstart: build a graph, pose a batch of HC-s-t path queries, run every algorithm.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

// Stdout is the product here: examples narrate what they compute.
#![allow(clippy::print_stdout)]

use hcsp::prelude::*;

fn main() {
    // The running example of the paper (Fig. 1): 16 vertices.
    let edges: &[(u32, u32)] = &[
        (0, 1),
        (0, 4),
        (2, 1),
        (2, 4),
        (5, 1),
        (1, 7),
        (1, 8),
        (7, 10),
        (7, 8),
        (10, 12),
        (12, 11),
        (12, 13),
        (4, 9),
        (9, 3),
        (9, 15),
        (9, 8),
        (3, 6),
        (15, 6),
        (6, 11),
        (6, 13),
        (6, 14),
    ];
    let graph = DiGraph::from_edge_list(16, edges).expect("valid edge list");
    println!(
        "graph: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );

    // The batch of queries from Fig. 1.
    let queries = vec![
        PathQuery::new(0u32, 11u32, 5),
        PathQuery::new(2u32, 13u32, 5),
        PathQuery::new(5u32, 12u32, 5),
        PathQuery::new(4u32, 14u32, 4),
        PathQuery::new(9u32, 14u32, 3),
    ];

    // Run the contributed algorithm and print every result path.
    let config = BatchEngine::builder()
        .algorithm(Algorithm::BatchEnumPlus)
        .gamma(0.5)
        .build();
    let mut engine = Engine::new(graph.clone(), config);
    let outcome = engine.run(&queries);

    for (id, query) in queries.iter().enumerate() {
        println!("\n{query} -> {} HC-s-t paths", outcome.count(id));
        for path in outcome.paths[id].iter() {
            let pretty: Vec<String> = path.iter().map(|v| v.to_string()).collect();
            println!("  ({})", pretty.join(", "));
        }
    }

    // The typed request/response surface: one mixed-mode batch over the index the engine
    // already holds, each query paying only for the answer shape it asked for.
    let specs = vec![
        QuerySpec::exists(queries[0]),     // "is there any path at all?"
        QuerySpec::count(queries[1]),      // "how many?"
        QuerySpec::first_k(queries[2], 2), // "show me two examples"
        QuerySpec::collect(queries[3]),    // "give me everything"
    ];
    let outcome = engine.run_specs(&specs);
    println!("\nmixed-mode batch (one shared index, per-query result modes):");
    for (spec, response) in specs.iter().zip(&outcome.responses) {
        match response {
            QueryResponse::Exists(b) => println!("  {spec} -> exists: {b}"),
            QueryResponse::Count(c) => println!("  {spec} -> count: {c}"),
            QueryResponse::Paths(paths) => println!("  {spec} -> {} path(s)", paths.len()),
        }
    }

    // Compare all five evaluated algorithms on the same batch.
    println!("\nalgorithm comparison (same results, different work):");
    for algorithm in Algorithm::ALL {
        let mut engine = Engine::with_algorithm(graph.clone(), algorithm);
        let (counts, stats) = engine.run_counting(&queries);
        println!(
            "  {:<11} total_paths={:<4} expanded_vertices={:<6} scanned_edges={:<6} \
             clusters={} shared_subqueries={} time={:.3?}",
            algorithm.to_string(),
            counts.iter().sum::<u64>(),
            stats.counters.expanded_vertices,
            stats.counters.scanned_edges,
            stats.num_clusters,
            stats.num_shared_subqueries,
            stats.total_time(),
        );
    }
}
