//! Property-based tests (proptest) over random graphs and random query batches.
//!
//! The central invariant: for any graph and any batch, every algorithm returns exactly the
//! brute-force reference result set. Secondary invariants cover the index, the similarity
//! measure, the clustering threshold, and the sharing graph structure.

use hcsp::core::bruteforce::{canonical, enumerate_reference};
use hcsp::core::clustering::cluster_queries;
use hcsp::core::detection::detect_cluster;
use hcsp::core::query::BatchSummary;
use hcsp::core::sharing_graph::{QueryNode, SharingGraph};
use hcsp::core::similarity::{query_similarity, QueryNeighborhood, SimilarityMatrix};
use hcsp::prelude::*;
use hcsp_graph::traversal::{bfs_distances_bounded, UNREACHED};
use proptest::prelude::*;

/// Strategy: a random directed graph with 2..=28 vertices and a moderate edge budget.
fn graph_strategy() -> impl Strategy<Value = DiGraph> {
    (2usize..=28).prop_flat_map(|n| {
        let max_edges = (n * (n - 1)).min(120);
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_edges)
            .prop_map(move |edges| DiGraph::from_edge_list(n, &edges).expect("edges in range"))
    })
}

/// Strategy: a batch of 1..=6 queries on a graph with `n` vertices.
fn query_batch_strategy(n: usize) -> impl Strategy<Value = Vec<PathQuery>> {
    proptest::collection::vec((0..n as u32, 0..n as u32, 1u32..=6), 1..=6).prop_map(|qs| {
        qs.into_iter()
            .map(|(s, t, k)| PathQuery::new(s, t, k))
            .collect()
    })
}

/// Strategy: a graph plus a query batch on it.
fn workload_strategy() -> impl Strategy<Value = (DiGraph, Vec<PathQuery>)> {
    graph_strategy().prop_flat_map(|g| {
        let n = g.num_vertices();
        (Just(g), query_batch_strategy(n))
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Every algorithm returns exactly the brute-force result set for every query.
    #[test]
    fn algorithms_match_brute_force((graph, queries) in workload_strategy()) {
        let reference: Vec<Vec<Path>> =
            queries.iter().map(|q| canonical(enumerate_reference(&graph, q))).collect();
        for algorithm in Algorithm::ALL {
            let outcome = BatchEngine::with_algorithm(algorithm).run(&graph, &queries);
            let got: Vec<Vec<Path>> =
                outcome.paths.iter().map(|set| canonical(set.to_paths())).collect();
            prop_assert_eq!(&got, &reference, "algorithm {}", algorithm);
        }
    }

    /// An aborted run is a prefix of the full run: a sink that answers `SkipQuery` after
    /// `per_query` paths of a query receives exactly the first `per_query` paths of that
    /// query, and one that answers `Stop` after `total` paths receives exactly the first
    /// `total` paths of the batch — same paths, same order as the unaborted run.
    #[test]
    fn aborted_run_is_a_prefix_of_the_full_run(
        (graph, queries) in workload_strategy(),
        per_query in 1usize..4,
        total in 1usize..6,
    ) {
        for algorithm in Algorithm::ALL {
            let engine = BatchEngine::with_algorithm(algorithm);
            // `verdict(paths seen so far, paths of this query seen so far)`.
            let run = |verdict: &dyn Fn(usize, usize) -> SinkFlow| {
                let mut seen: Vec<(usize, Vec<VertexId>)> = Vec::new();
                let mut per = vec![0usize; queries.len()];
                let mut sink = ControlSink::new(|q, p: &[VertexId]| {
                    seen.push((q, p.to_vec()));
                    per[q] += 1;
                    verdict(seen.len(), per[q])
                });
                engine.run_with_sink(&graph, &queries, &mut sink);
                seen
            };
            let full = run(&|_, _| SinkFlow::Continue);

            let skipped = run(&|_, of_query| {
                if of_query >= per_query { SinkFlow::SkipQuery } else { SinkFlow::Continue }
            });
            let mut kept = vec![0usize; queries.len()];
            let expected: Vec<_> = full
                .iter()
                .filter(|(q, _)| {
                    kept[*q] += 1;
                    kept[*q] <= per_query
                })
                .cloned()
                .collect();
            prop_assert_eq!(&skipped, &expected, "SkipQuery after {} under {}", per_query, algorithm);

            let stopped = run(&|overall, _| {
                if overall >= total { SinkFlow::Stop } else { SinkFlow::Continue }
            });
            let expected = &full[..total.min(full.len())];
            prop_assert_eq!(&stopped[..], expected, "Stop after {} under {}", total, algorithm);
        }
    }

    /// Every returned path is simple, edge-valid, endpoint-correct and within the bound.
    #[test]
    fn returned_paths_are_well_formed((graph, queries) in workload_strategy()) {
        let outcome = BatchEngine::with_algorithm(Algorithm::BatchEnumPlus).run(&graph, &queries);
        for (i, q) in queries.iter().enumerate() {
            for path in outcome.paths[i].iter() {
                prop_assert_eq!(path[0], q.source);
                prop_assert_eq!(*path.last().unwrap(), q.target);
                prop_assert!((path.len() - 1) as u32 <= q.hop_limit);
                prop_assert!(hcsp::core::path::vertices_are_distinct(path));
                for w in path.windows(2) {
                    prop_assert!(graph.has_edge(w[0], w[1]));
                }
            }
        }
    }

    /// The multi-source BFS index agrees with independent single-source BFS runs.
    #[test]
    fn index_distances_match_bfs((graph, queries) in workload_strategy()) {
        let summary = BatchSummary::of(&queries);
        let index = BatchIndex::build(&graph, &summary.sources, &summary.targets, summary.max_hop_limit);
        for &s in summary.sources.iter().take(3) {
            let reference = bfs_distances_bounded(&graph, s, Direction::Forward, summary.max_hop_limit);
            for v in graph.vertices() {
                let got = index.dist_from_source(s, v);
                let expected = reference[v.index()];
                if expected == UNREACHED {
                    prop_assert_eq!(got, u32::MAX);
                } else {
                    prop_assert_eq!(got, expected);
                }
            }
        }
    }

    /// µ is symmetric, bounded in [0, 1], and 1 on identical neighbourhoods.
    #[test]
    fn similarity_is_a_bounded_symmetric_measure((graph, queries) in workload_strategy()) {
        let summary = BatchSummary::of(&queries);
        let index = BatchIndex::build(&graph, &summary.sources, &summary.targets, summary.max_hop_limit);
        let neighborhoods: Vec<QueryNeighborhood> =
            queries.iter().map(|q| QueryNeighborhood::from_index(&index, q)).collect();
        for a in &neighborhoods {
            prop_assert!((query_similarity(a, a) - 1.0).abs() < 1e-9 || a.forward.is_empty() || a.backward.is_empty());
            for b in &neighborhoods {
                let ab = query_similarity(a, b);
                let ba = query_similarity(b, a);
                prop_assert!((0.0..=1.0 + 1e-9).contains(&ab));
                prop_assert!((ab - ba).abs() < 1e-9);
            }
        }
    }

    /// Clustering respects the threshold: clusters returned at γ form a partition of the
    /// batch, and γ = 1 never merges anything.
    #[test]
    fn clustering_is_a_partition((graph, queries) in workload_strategy(), gamma in 0.0f64..=1.0) {
        let summary = BatchSummary::of(&queries);
        let index = BatchIndex::build(&graph, &summary.sources, &summary.targets, summary.max_hop_limit);
        let neighborhoods: Vec<QueryNeighborhood> =
            queries.iter().map(|q| QueryNeighborhood::from_index(&index, q)).collect();
        let matrix = SimilarityMatrix::compute(&neighborhoods);
        let clusters = cluster_queries(&matrix, gamma);
        let mut seen: Vec<usize> = clusters.iter().flatten().copied().collect();
        seen.sort_unstable();
        let expected: Vec<usize> = (0..queries.len()).collect();
        prop_assert_eq!(seen, expected, "clusters must partition the batch");

        let singletons = cluster_queries(&matrix, 1.0);
        prop_assert_eq!(singletons.len(), queries.len());
    }

    /// The sharing graph built by detection is a DAG whose full-query nodes have exactly
    /// their two half queries as providers.
    #[test]
    fn sharing_graph_is_a_dag_with_two_half_providers((graph, queries) in workload_strategy()) {
        let summary = BatchSummary::of(&queries);
        let index = BatchIndex::build(&graph, &summary.sources, &summary.targets, summary.max_hop_limit);
        let cluster: Vec<(usize, PathQuery)> = queries.iter().copied().enumerate().collect();
        let mut sharing = SharingGraph::new();
        detect_cluster(&graph, &index, &cluster, &mut sharing);

        // Topological order covers all nodes (i.e. no cycle) and places providers first.
        let order = sharing.topological_order();
        prop_assert_eq!(order.len(), sharing.len());
        let position: Vec<usize> = {
            let mut pos = vec![0; sharing.len()];
            for (i, &n) in order.iter().enumerate() {
                pos[n] = i;
            }
            pos
        };
        for (id, _) in sharing.nodes() {
            for &(provider, _) in sharing.providers(id) {
                prop_assert!(position[provider] < position[id]);
            }
        }
        for (id, node) in sharing.nodes() {
            if matches!(node, QueryNode::Full(_)) {
                prop_assert_eq!(sharing.providers(id).len(), 2);
                prop_assert!(sharing.users(id).is_empty());
            }
        }
    }
}
