//! Cross-validation of the cluster-sharded parallel executor against the sequential
//! algorithms: parallel execution must be **lossless and deterministic**.
//!
//! For every seeded generator workload the suite asserts, at 1, 2, 4 and 8 worker
//! threads, that
//!
//! * the parallel `BatchEnum` returns *exactly* the sequential path sets — the same
//!   paths, per query, in the same order (byte-identical output), and
//! * the per-query statistics that are defined to be deterministic (traversal counters,
//!   cluster counts, shared-subquery counts, produced paths) are identical to the
//!   sequential run and across repeated parallel runs.
//!
//! Timing-derived fields (stage durations) are excluded by design: they measure the
//! machine, not the algorithm.

use hcsp::prelude::*;
use hcsp::workload::{random_query_set, similar_query_set, QuerySetSpec};
use hcsp_graph::generators::erdos_renyi::gnm_random;
use hcsp_graph::generators::preferential::{preferential_attachment, PreferentialConfig};
use hcsp_graph::generators::regular::grid;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One seeded workload: a generator graph plus a query batch drawn from it.
fn workloads() -> Vec<(String, DiGraph, Vec<PathQuery>)> {
    let mut out = Vec::new();

    let g = grid(5, 5);
    let queries = random_query_set(&g, QuerySetSpec::new(12, 11).with_hops(4, 6));
    out.push(("grid-5x5".to_string(), g, queries));

    for seed in [1, 2] {
        let g = gnm_random(80, 480, seed).unwrap();
        let queries = similar_query_set(&g, QuerySetSpec::new(14, seed).with_hops(3, 5), 0.5);
        out.push((format!("gnm-80-480-seed{seed}"), g, queries));
    }

    let g = preferential_attachment(PreferentialConfig {
        num_vertices: 220,
        edges_per_vertex: 3,
        reciprocity: 0.3,
        seed: 5,
    })
    .unwrap();
    let queries = similar_query_set(&g, QuerySetSpec::new(10, 9).with_hops(3, 4), 0.7);
    out.push(("preferential-220".to_string(), g, queries));

    out
}

fn collect_sequential_batch(graph: &DiGraph, queries: &[PathQuery]) -> (CollectSink, EnumStats) {
    let mut sink = CollectSink::new(queries.len());
    let stats = Engine::with_algorithm(graph.clone(), Algorithm::BatchEnumPlus)
        .run_with_sink(queries, &mut sink);
    (sink, stats)
}

/// One parallel run on a fresh engine (so it builds the index from the batch alone, as
/// the sequential runs here do).
fn run_parallel(
    algorithm: Algorithm,
    graph: &DiGraph,
    queries: &[PathQuery],
    workers: usize,
) -> (CollectSink, EnumStats) {
    let config = BatchEngine::builder()
        .algorithm(algorithm)
        .gamma(0.5)
        .build();
    let mut sink = CollectSink::new(queries.len());
    let stats = Engine::new(graph.clone(), config).run_parallel_with_sink(
        queries,
        Parallelism::Fixed(workers),
        &mut sink,
    );
    (sink, stats)
}

#[test]
fn parallel_batch_enum_is_byte_identical_to_sequential_at_every_thread_count() {
    for (name, graph, queries) in workloads() {
        assert!(!queries.is_empty(), "workload {name} generated no queries");
        let (sequential, seq_stats) = collect_sequential_batch(&graph, &queries);
        for workers in THREAD_COUNTS {
            let (parallel, par_stats) =
                run_parallel(Algorithm::BatchEnumPlus, &graph, &queries, workers);

            // Exactly the sequential path set: same paths, same per-query order.
            assert_eq!(
                parallel.all(),
                sequential.all(),
                "{name}: path sets diverge at {workers} workers"
            );
            // The deterministic statistics match the sequential run.
            assert_eq!(
                par_stats.counters, seq_stats.counters,
                "{name}: counters diverge at {workers} workers"
            );
            assert_eq!(par_stats.num_queries, seq_stats.num_queries, "{name}");
            assert_eq!(par_stats.num_clusters, seq_stats.num_clusters, "{name}");
            assert_eq!(
                par_stats.num_shared_subqueries, seq_stats.num_shared_subqueries,
                "{name}"
            );
        }
    }
}

#[test]
fn parallel_runs_are_deterministic_across_repetitions() {
    for (name, graph, queries) in workloads() {
        let (first, first_stats) = run_parallel(Algorithm::BatchEnumPlus, &graph, &queries, 4);
        for _ in 0..2 {
            let (again, again_stats) = run_parallel(Algorithm::BatchEnumPlus, &graph, &queries, 4);
            assert_eq!(again.all(), first.all(), "{name}: nondeterministic output");
            assert_eq!(
                again_stats.counters, first_stats.counters,
                "{name}: nondeterministic counters"
            );
            assert_eq!(again_stats.num_clusters, first_stats.num_clusters);
        }
    }
}

#[test]
fn parallel_basic_enum_matches_sequential_basic_enum() {
    for (name, graph, queries) in workloads() {
        let mut sequential = CollectSink::new(queries.len());
        let seq_stats = Engine::with_algorithm(graph.clone(), Algorithm::BasicEnumPlus)
            .run_with_sink(&queries, &mut sequential);
        for workers in THREAD_COUNTS {
            let (parallel, par_stats) =
                run_parallel(Algorithm::BasicEnumPlus, &graph, &queries, workers);
            assert_eq!(
                parallel.all(),
                sequential.all(),
                "{name}: parallel BasicEnum+ diverges at {workers} workers"
            );
            assert_eq!(par_stats.counters, seq_stats.counters, "{name}");
        }
    }
}

#[test]
fn engine_parallel_entry_point_is_lossless_for_every_algorithm() {
    let (name, graph, queries) = workloads().swap_remove(1);
    for algorithm in Algorithm::ALL {
        let mut reference = Engine::with_algorithm(graph.clone(), algorithm);
        let expected = reference.run(&queries);
        for workers in THREAD_COUNTS {
            let mut engine = Engine::with_algorithm(graph.clone(), algorithm);
            let outcome = engine.run_batch_parallel(&queries, Parallelism::Fixed(workers));
            assert_eq!(
                outcome.paths, expected.paths,
                "{name}: {algorithm} at {workers} workers"
            );
        }
    }
}
