//! Cross-crate integration tests: every algorithm in the workspace — the five evaluated
//! variants — must return exactly the same result sets as the brute-force reference
//! enumerator, on structured graphs, random graphs and dataset analogs.

use hcsp::core::bruteforce::{canonical, enumerate_reference};
use hcsp::prelude::*;
use hcsp::workload::{Dataset, DatasetScale};
use hcsp_graph::generators::erdos_renyi::gnm_random;
use hcsp_graph::generators::regular::{complete, cycle, grid, layered_dag};

/// Runs a batch through one engine algorithm and returns per-query canonical path lists.
fn run_engine(graph: &DiGraph, queries: &[PathQuery], algorithm: Algorithm) -> Vec<Vec<Path>> {
    let outcome = Engine::with_algorithm(graph.clone(), algorithm).run(queries);
    outcome
        .paths
        .iter()
        .map(|set| canonical(set.to_paths()))
        .collect()
}

/// Asserts that every algorithm agrees with the brute-force reference on this batch.
fn assert_all_algorithms_agree(graph: &DiGraph, queries: &[PathQuery]) {
    let reference: Vec<Vec<Path>> = queries
        .iter()
        .map(|q| canonical(enumerate_reference(graph, q)))
        .collect();

    for algorithm in Algorithm::ALL {
        let got = run_engine(graph, queries, algorithm);
        assert_eq!(got, reference, "{algorithm} disagrees with the reference");
    }
}

#[test]
fn all_algorithms_agree_on_structured_graphs() {
    let dag = layered_dag(3, 3);
    let dag_sink = (dag.num_vertices() - 1) as u32;
    assert_all_algorithms_agree(
        &dag,
        &[
            PathQuery::new(0u32, dag_sink, 4),
            PathQuery::new(0u32, dag_sink, 6),
            PathQuery::new(1u32, dag_sink, 3),
        ],
    );

    let g = grid(4, 4);
    assert_all_algorithms_agree(
        &g,
        &[
            PathQuery::new(0u32, 15u32, 6),
            PathQuery::new(0u32, 15u32, 8),
            PathQuery::new(1u32, 14u32, 6),
            PathQuery::new(4u32, 11u32, 4),
        ],
    );

    let k6 = complete(6);
    assert_all_algorithms_agree(
        &k6,
        &[
            PathQuery::new(0u32, 5u32, 3),
            PathQuery::new(1u32, 5u32, 3),
            PathQuery::new(0u32, 4u32, 4),
        ],
    );

    let c8 = cycle(8);
    assert_all_algorithms_agree(
        &c8,
        &[
            PathQuery::new(0u32, 5u32, 7),
            PathQuery::new(2u32, 1u32, 8),
            PathQuery::new(3u32, 3u32, 4),
        ],
    );
}

#[test]
fn all_algorithms_agree_on_random_graphs() {
    for seed in 0..3u64 {
        let g = gnm_random(60, 300, seed).unwrap();
        let queries = vec![
            PathQuery::new(0u32, 30u32, 4),
            PathQuery::new(0u32, 31u32, 5),
            PathQuery::new(1u32, 30u32, 4),
            PathQuery::new(2u32, 45u32, 5),
        ];
        assert_all_algorithms_agree(&g, &queries);
    }
}

#[test]
fn engine_algorithms_agree_on_dataset_analogs() {
    // The brute-force reference is too slow for the larger analogs; the five engine
    // algorithms must agree with each other (counts) and with the reference on a subsample.
    for dataset in [Dataset::EP, Dataset::WT, Dataset::BS] {
        let graph = dataset.build(DatasetScale::Tiny);
        let queries = hcsp::workload::random_query_set(
            &graph,
            hcsp::workload::QuerySetSpec::new(12, 5).with_hops(3, 4),
        );
        assert!(!queries.is_empty());

        let reference: Vec<u64> = Engine::with_algorithm(graph.clone(), Algorithm::PathEnum)
            .run_counting(&queries)
            .0;
        for algorithm in [
            Algorithm::BasicEnum,
            Algorithm::BasicEnumPlus,
            Algorithm::BatchEnum,
            Algorithm::BatchEnumPlus,
        ] {
            let (counts, _) =
                Engine::with_algorithm(graph.clone(), algorithm).run_counting(&queries);
            assert_eq!(counts, reference, "{dataset}: {algorithm} count mismatch");
        }

        // Spot-check three queries against the brute-force reference.
        for q in queries.iter().take(3) {
            let expected = enumerate_reference(&graph, q).len() as u64;
            let (counts, _) =
                Engine::with_algorithm(graph.clone(), Algorithm::BatchEnumPlus).run_counting(&[*q]);
            assert_eq!(counts[0], expected, "{dataset}: {q}");
        }
    }
}

#[test]
fn duplicated_and_overlapping_queries_are_handled() {
    let g = grid(5, 5);
    let queries = vec![
        PathQuery::new(0u32, 24u32, 8),
        PathQuery::new(0u32, 24u32, 8),
        PathQuery::new(0u32, 24u32, 9),
        PathQuery::new(1u32, 24u32, 7),
        PathQuery::new(0u32, 23u32, 7),
    ];
    assert_all_algorithms_agree(&g, &queries);
}

#[test]
fn unreachable_and_trivial_queries_are_handled() {
    let g = layered_dag(2, 2);
    let sink_v = (g.num_vertices() - 1) as u32;
    let queries = vec![
        // Unreachable: sink cannot reach source.
        PathQuery::new(sink_v, 0u32, 6),
        // Hop limit too small.
        PathQuery::new(0u32, sink_v, 1),
        // Trivial s == t.
        PathQuery::new(1u32, 1u32, 4),
        // Normal query mixed in.
        PathQuery::new(0u32, sink_v, 3),
    ];
    assert_all_algorithms_agree(&g, &queries);
}

#[test]
fn hop_limit_edge_cases() {
    let k5 = complete(5);
    // k = 1 (direct edges only) exercises the ⌊k/2⌋ = 0 backward budget.
    assert_all_algorithms_agree(
        &k5,
        &[
            PathQuery::new(0u32, 1u32, 1),
            PathQuery::new(0u32, 2u32, 2),
            PathQuery::new(3u32, 4u32, 1),
        ],
    );
}
