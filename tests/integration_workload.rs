//! Workload-level integration tests: dataset analogs, query generators and the
//! experiment-harness building blocks working together.

use hcsp::core::query::BatchSummary;
use hcsp::core::similarity::{QueryNeighborhood, SimilarityMatrix};
use hcsp::prelude::*;
use hcsp::workload::{random_query_set, similar_query_set, Dataset, DatasetScale, QuerySetSpec};
use hcsp_graph::traversal::reaches_within;
use hcsp_graph::GraphStats;

#[test]
fn every_dataset_analog_supports_the_default_workload() {
    for dataset in Dataset::ALL {
        let graph = dataset.build(DatasetScale::Tiny);
        let stats = GraphStats::compute(&graph);
        assert!(stats.num_edges > 0, "{dataset} must not be empty");

        let queries = random_query_set(&graph, QuerySetSpec::new(5, 23).with_hops(3, 4));
        assert!(
            !queries.is_empty(),
            "{dataset} must admit reachable query pairs"
        );
        for q in &queries {
            assert!(reaches_within(&graph, q.source, q.target, q.hop_limit));
        }
    }
}

#[test]
fn batch_engine_runs_on_every_smoke_dataset() {
    for dataset in Dataset::SMOKE {
        let graph = dataset.build(DatasetScale::Tiny);
        let queries = random_query_set(&graph, QuerySetSpec::new(10, 31).with_hops(3, 4));
        let (basic, _) =
            Engine::with_algorithm(graph.clone(), Algorithm::BasicEnumPlus).run_counting(&queries);
        let (batch, stats) =
            Engine::with_algorithm(graph.clone(), Algorithm::BatchEnumPlus).run_counting(&queries);
        assert_eq!(basic, batch, "{dataset}: result counts must agree");
        assert_eq!(stats.num_queries, queries.len());
    }
}

#[test]
fn similarity_controlled_sets_drive_more_sharing() {
    // Higher constructed similarity must translate into more computation sharing inside
    // BatchEnum (more shared sub-queries / cache splices), which is the mechanism behind
    // the Fig. 7 speed-ups.
    let graph = Dataset::WT.build(DatasetScale::Tiny);
    let spec = QuerySetSpec::new(20, 77).with_hops(3, 4);
    let low = similar_query_set(&graph, spec, 0.0);
    let high = similar_query_set(&graph, spec, 0.9);

    let shared = BatchEngine::builder()
        .algorithm(Algorithm::BatchEnumPlus)
        .gamma(0.5)
        .build();
    let unshared = BatchEngine::with_algorithm(Algorithm::BasicEnumPlus);
    let (_, stats_low) = Engine::new(graph.clone(), shared).run_counting(&low);
    let (_, stats_high) = Engine::new(graph.clone(), shared).run_counting(&high);

    assert!(
        stats_high.num_clusters <= stats_low.num_clusters.max(2),
        "high-similarity sets must cluster at least as aggressively: {} vs {}",
        stats_high.num_clusters,
        stats_low.num_clusters
    );

    // The real claim of Exp-1: relative to the non-sharing baseline on the *same* query
    // set, the shared algorithm saves a larger fraction of the traversal work when the
    // batch is more similar.
    let (_, base_low) = Engine::new(graph.clone(), unshared).run_counting(&low);
    let (_, base_high) = Engine::new(graph.clone(), unshared).run_counting(&high);
    let ratio_low = stats_low.counters.expanded_vertices as f64
        / base_low.counters.expanded_vertices.max(1) as f64;
    let ratio_high = stats_high.counters.expanded_vertices as f64
        / base_high.counters.expanded_vertices.max(1) as f64;
    assert!(
        ratio_high <= ratio_low * 1.05,
        "sharing must save relatively more work on the similar batch: {ratio_high:.3} vs {ratio_low:.3}"
    );
}

#[test]
fn measured_similarity_tracks_the_generator_knob() {
    let graph = hcsp_graph::generators::regular::grid(30, 30);
    let spec = QuerySetSpec::new(18, 5).with_hops(3, 4);
    let mut measured = Vec::new();
    for target in [0.0, 0.4, 0.8] {
        let queries = similar_query_set(&graph, spec, target);
        let summary = BatchSummary::of(&queries);
        let index = BatchIndex::build(
            &graph,
            &summary.sources,
            &summary.targets,
            summary.max_hop_limit,
        );
        let neighborhoods: Vec<QueryNeighborhood> = queries
            .iter()
            .map(|q| QueryNeighborhood::from_index(&index, q))
            .collect();
        measured.push(SimilarityMatrix::compute(&neighborhoods).average());
    }
    assert!(
        measured[0] < measured[1] && measured[1] < measured[2],
        "{measured:?}"
    );
}

#[test]
fn correctness_holds_on_similarity_controlled_batches() {
    let graph = Dataset::EP.build(DatasetScale::Tiny);
    let queries = similar_query_set(&graph, QuerySetSpec::new(12, 19).with_hops(3, 4), 0.7);
    let reference = Engine::with_algorithm(graph.clone(), Algorithm::PathEnum)
        .run_counting(&queries)
        .0;
    for algorithm in [
        Algorithm::BasicEnum,
        Algorithm::BatchEnum,
        Algorithm::BatchEnumPlus,
    ] {
        let (counts, _) = Engine::with_algorithm(graph.clone(), algorithm).run_counting(&queries);
        assert_eq!(counts, reference, "{algorithm}");
    }
}

#[test]
fn path_counts_grow_with_the_hop_constraint() {
    // The Exp-7 trend (Fig. 13): the average number of HC-s-t paths grows with k.
    let graph = Dataset::EP.build(DatasetScale::Tiny);
    let mut totals = Vec::new();
    for k in 3..=5u32 {
        let queries = random_query_set(&graph, QuerySetSpec::new(10, 41).with_hops(k, k));
        let (counts, _) =
            Engine::with_algorithm(graph.clone(), Algorithm::BatchEnumPlus).run_counting(&queries);
        totals.push(counts.iter().sum::<u64>());
    }
    assert!(
        totals[0] <= totals[1] && totals[1] <= totals[2],
        "{totals:?}"
    );
    assert!(totals[2] > 0);
}
