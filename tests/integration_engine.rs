//! Engine-level integration tests: sinks, statistics, γ sensitivity and graph sampling.

use hcsp::core::Stage;
use hcsp::prelude::*;
use hcsp::workload::{random_query_set, Dataset, DatasetScale, QuerySetSpec};
use hcsp_graph::sampling::sample_vertices;

fn small_workload() -> (DiGraph, Vec<PathQuery>) {
    let graph = Dataset::EP.build(DatasetScale::Tiny);
    let queries = random_query_set(&graph, QuerySetSpec::new(15, 3).with_hops(3, 4));
    assert!(!queries.is_empty());
    (graph, queries)
}

#[test]
fn counting_and_collecting_sinks_agree() {
    let (graph, queries) = small_workload();
    let mut engine = Engine::with_algorithm(graph.clone(), Algorithm::BatchEnumPlus);
    let (counts, _) = engine.run_counting(&queries);
    let outcome = engine.run(&queries);
    for (i, &c) in counts.iter().enumerate() {
        assert_eq!(c as usize, outcome.count(i), "query {i}");
    }
    assert_eq!(outcome.total(), counts.iter().sum::<u64>() as usize);
}

#[test]
fn every_emitted_path_is_a_valid_answer() {
    let (graph, queries) = small_workload();
    let outcome = Engine::with_algorithm(graph.clone(), Algorithm::BatchEnumPlus).run(&queries);
    for (i, q) in queries.iter().enumerate() {
        for path in outcome.paths[i].iter() {
            assert_eq!(path[0], q.source);
            assert_eq!(*path.last().unwrap(), q.target);
            assert!((path.len() - 1) as u32 <= q.hop_limit);
            assert!(hcsp::core::path::vertices_are_distinct(path));
            // Every consecutive pair must be a real edge of the graph.
            for w in path.windows(2) {
                assert!(
                    graph.has_edge(w[0], w[1]),
                    "missing edge {} -> {}",
                    w[0],
                    w[1]
                );
            }
        }
    }
}

#[test]
fn stats_decomposition_matches_algorithm_structure() {
    let (graph, queries) = small_workload();

    // PathEnum / BasicEnum never cluster or detect sub-queries.
    let (_, basic) =
        Engine::with_algorithm(graph.clone(), Algorithm::BasicEnumPlus).run_counting(&queries);
    assert_eq!(
        basic.stage_time(Stage::ClusterQuery),
        std::time::Duration::ZERO
    );
    assert_eq!(
        basic.stage_time(Stage::IdentifySubquery),
        std::time::Duration::ZERO
    );
    assert!(basic.stage_time(Stage::BuildIndex) > std::time::Duration::ZERO);
    assert!(basic.stage_time(Stage::Enumeration) > std::time::Duration::ZERO);
    assert_eq!(basic.num_shared_subqueries, 0);

    // BatchEnum+ exercises all four stages.
    let (_, batch) =
        Engine::with_algorithm(graph.clone(), Algorithm::BatchEnumPlus).run_counting(&queries);
    for stage in Stage::ALL {
        assert!(
            batch.stage_time(stage) > std::time::Duration::ZERO,
            "stage {stage}"
        );
    }
    assert!(batch.total_time() >= batch.stage_time(Stage::Enumeration));
    assert!(!batch.decomposition_row().is_empty());
}

#[test]
fn gamma_sweep_preserves_results() {
    let (graph, queries) = small_workload();
    let reference = Engine::with_algorithm(graph.clone(), Algorithm::BasicEnum)
        .run_counting(&queries)
        .0;
    for gamma in [0.1, 0.3, 0.5, 0.7, 0.9, 1.0] {
        let config = BatchEngine::builder()
            .algorithm(Algorithm::BatchEnumPlus)
            .gamma(gamma)
            .build();
        let (counts, stats) = Engine::new(graph.clone(), config).run_counting(&queries);
        assert_eq!(counts, reference, "gamma {gamma}");
        assert!(stats.num_clusters >= 1 && stats.num_clusters <= queries.len());
    }
}

#[test]
fn sampled_subgraphs_are_valid_inputs() {
    // The Exp-5 pipeline: sample the graph, regenerate queries, run the algorithms.
    let graph = Dataset::TW.build(DatasetScale::Tiny);
    for ratio in [0.4, 0.7, 1.0] {
        let sampled = sample_vertices(&graph, ratio, 9).unwrap();
        let queries = random_query_set(&sampled.graph, QuerySetSpec::new(8, 11).with_hops(3, 4));
        if queries.is_empty() {
            continue;
        }
        let a = Engine::with_algorithm(sampled.graph.clone(), Algorithm::BasicEnumPlus)
            .run_counting(&queries)
            .0;
        let b = Engine::with_algorithm(sampled.graph.clone(), Algorithm::BatchEnumPlus)
            .run_counting(&queries)
            .0;
        assert_eq!(a, b, "ratio {ratio}");
    }
}

#[test]
fn callback_sink_streams_all_results() {
    let (graph, queries) = small_workload();
    let mut streamed = 0u64;
    {
        let mut sink = CallbackSink::new(|_, _: &[VertexId]| streamed += 1);
        Engine::with_algorithm(graph.clone(), Algorithm::BatchEnum)
            .run_with_sink(&queries, &mut sink);
    }
    let (counts, _) =
        Engine::with_algorithm(graph.clone(), Algorithm::BatchEnum).run_counting(&queries);
    assert_eq!(streamed, counts.iter().sum::<u64>());
}

#[test]
fn larger_batches_on_multiple_datasets_stay_consistent() {
    for dataset in [Dataset::WT, Dataset::LJ] {
        let graph = dataset.build(DatasetScale::Tiny);
        let queries = random_query_set(&graph, QuerySetSpec::new(25, 17).with_hops(3, 5));
        let a = Engine::with_algorithm(graph.clone(), Algorithm::BasicEnum)
            .run_counting(&queries)
            .0;
        let b = Engine::with_algorithm(graph.clone(), Algorithm::BatchEnumPlus)
            .run_counting(&queries)
            .0;
        assert_eq!(a, b, "{dataset}");
    }
}
