//! End-to-end reproduction of the paper's running example (Fig. 1 – Fig. 6): the graph
//! `G`, the query batch `Q = {q0..q4}`, the expected result paths of Example 2.1, the
//! clustering of Example 4.1 and the common HC-s path queries of Example 4.2.

use hcsp::core::bruteforce::canonical;
use hcsp::core::clustering::cluster_queries;
use hcsp::core::detection::detect_common_queries;
use hcsp::core::query::BatchSummary;
use hcsp::core::sharing_graph::SharingGraph;
use hcsp::core::similarity::{QueryNeighborhood, SimilarityMatrix};
use hcsp::core::{HcsQuery, SearchCounters};
use hcsp::prelude::*;
use hcsp_graph::GraphBuilder;

/// The graph of Fig. 1.
fn paper_graph() -> DiGraph {
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
    let mut b = GraphBuilder::new();
    for &(u, v) in edges {
        b.add_edge(VertexId(u), VertexId(v));
    }
    b.reserve_vertices(16);
    b.build()
}

/// The query batch of Fig. 1.
fn paper_queries() -> Vec<PathQuery> {
    vec![
        PathQuery::new(0u32, 11u32, 5),
        PathQuery::new(2u32, 13u32, 5),
        PathQuery::new(5u32, 12u32, 5),
        PathQuery::new(4u32, 14u32, 4),
        PathQuery::new(9u32, 14u32, 3),
    ]
}

fn path_ids(paths: &[Path]) -> Vec<Vec<u32>> {
    paths
        .iter()
        .map(|p| p.vertices().iter().map(|v| v.raw()).collect())
        .collect()
}

#[test]
fn example_2_1_q0_has_exactly_the_three_listed_paths() {
    let g = paper_graph();
    let outcome = Engine::with_algorithm(g.clone(), Algorithm::BatchEnumPlus).run(&paper_queries());
    let q0 = path_ids(&canonical(outcome.paths[0].to_paths()));
    assert_eq!(
        q0,
        vec![
            vec![0, 1, 7, 10, 12, 11],
            vec![0, 4, 9, 3, 6, 11],
            vec![0, 4, 9, 15, 6, 11],
        ]
    );
}

#[test]
fn figure_3_q1_shares_the_inner_segments_with_q0() {
    // Fig. 3 (b): q1's paths mirror q0's with only the endpoints differing.
    let g = paper_graph();
    let outcome = Engine::with_algorithm(g.clone(), Algorithm::BatchEnum).run(&paper_queries());
    let q1 = path_ids(&canonical(outcome.paths[1].to_paths()));
    assert_eq!(
        q1,
        vec![
            vec![2, 1, 7, 10, 12, 13],
            vec![2, 4, 9, 3, 6, 13],
            vec![2, 4, 9, 15, 6, 13],
        ]
    );
}

#[test]
fn all_five_queries_return_correct_counts_under_every_algorithm() {
    let g = paper_graph();
    let queries = paper_queries();
    let reference: Vec<u64> = queries
        .iter()
        .map(|q| hcsp::core::bruteforce::enumerate_reference(&g, q).len() as u64)
        .collect();
    // q0, q1 and q2 have three paths each (Example 2.1 / Fig. 3).
    assert_eq!(reference[0], 3);
    assert_eq!(reference[1], 3);
    for algorithm in Algorithm::ALL {
        let (counts, _) = Engine::with_algorithm(g.clone(), algorithm).run_counting(&queries);
        assert_eq!(counts, reference, "{algorithm}");
    }
}

#[test]
fn example_4_1_clustering_splits_queries_into_two_groups() {
    let g = paper_graph();
    let queries = paper_queries();
    let summary = BatchSummary::of(&queries);
    let index = BatchIndex::build(
        &g,
        &summary.sources,
        &summary.targets,
        summary.max_hop_limit,
    );
    let neighborhoods: Vec<QueryNeighborhood> = queries
        .iter()
        .map(|q| QueryNeighborhood::from_index(&index, q))
        .collect();
    let matrix = SimilarityMatrix::compute(&neighborhoods);

    // Example 4.1: µ(q3, q4) = 1 — q4's neighbourhoods are contained in q3's.
    assert!(matrix.get(3, 4) > 0.99, "µ(q3, q4) = {}", matrix.get(3, 4));
    // q0 and q1 are highly similar.
    assert!(matrix.get(0, 1) > 0.8, "µ(q0, q1) = {}", matrix.get(0, 1));

    let clusters = cluster_queries(&matrix, 0.8);
    assert_eq!(
        clusters,
        vec![vec![0, 1, 2], vec![3, 4]],
        "Example 4.1 clustering at γ = 0.8"
    );
}

#[test]
fn example_4_2_detects_the_dominating_queries_of_figure_6() {
    let g = paper_graph();
    let queries = paper_queries();
    let summary = BatchSummary::of(&queries);
    let index = BatchIndex::build(
        &g,
        &summary.sources,
        &summary.targets,
        summary.max_hop_limit,
    );

    // Cluster C0 = {q0, q1, q2} on G.
    let cluster: Vec<(usize, PathQuery)> = vec![(0, queries[0]), (1, queries[1]), (2, queries[2])];
    let mut sharing = SharingGraph::new();
    detect_common_queries(&g, &index, &cluster, Direction::Forward, &mut sharing);

    // Fig. 6 (b): q_{v1,2,G} shared by all three queries, q_{v4,2,G} shared by q0 and q1.
    let dom_v1 = sharing
        .find_hcs(&HcsQuery::new(1u32, 2, Direction::Forward))
        .expect("q_{v1,2,G} detected");
    let dom_v4 = sharing
        .find_hcs(&HcsQuery::new(4u32, 2, Direction::Forward))
        .expect("q_{v4,2,G} detected");
    assert_eq!(sharing.users(dom_v1).len(), 3);
    assert_eq!(sharing.users(dom_v4).len(), 2);

    // Ψ is evaluated providers-first.
    let order = sharing.topological_order();
    let pos = |n| order.iter().position(|&x| x == n).unwrap();
    let half_q0 = sharing
        .find_hcs(&HcsQuery::new(0u32, 3, Direction::Forward))
        .unwrap();
    assert!(pos(dom_v1) < pos(half_q0));
    assert!(pos(dom_v4) < pos(half_q0));
}

#[test]
fn example_4_3_shared_enumeration_reuses_cached_results() {
    let g = paper_graph();
    let queries = paper_queries();
    let config = BatchEngine::builder()
        .algorithm(Algorithm::BatchEnum)
        .gamma(0.8)
        .build();
    let (counts, stats) = Engine::new(g.clone(), config).run_counting(&queries);
    assert!(counts.iter().sum::<u64>() >= 6);
    assert!(stats.num_clusters <= 3, "similar queries must be grouped");
    assert!(
        stats.num_shared_subqueries >= 2,
        "at least q_{{v1,2,G}} and q_{{v4,2,G}}"
    );
    assert!(
        stats.counters.cache_splices > 0,
        "cached HC-s path results must be spliced"
    );
    // The computation-sharing variant must expand fewer vertices than the baseline.
    let (_, basic_stats) =
        Engine::with_algorithm(g.clone(), Algorithm::BasicEnum).run_counting(&queries);
    assert!(
        stats.counters.expanded_vertices <= basic_stats.counters.expanded_vertices,
        "BatchEnum expanded {} vertices, BasicEnum {}",
        stats.counters.expanded_vertices,
        basic_stats.counters.expanded_vertices
    );
}

#[test]
fn golden_path_order_and_counters_for_every_algorithm() {
    // Emission order is part of the contract (parallel runs and the result modes are
    // defined against it), so it is pinned literally: plain variants take a level's
    // candidates in vertex-id order, the `+` variants closest-to-anchor first.
    let by_vertex_id: Vec<Vec<Vec<u32>>> = vec![
        vec![
            vec![0, 1, 7, 10, 12, 11],
            vec![0, 4, 9, 3, 6, 11],
            vec![0, 4, 9, 15, 6, 11],
        ],
        vec![
            vec![2, 1, 7, 10, 12, 13],
            vec![2, 4, 9, 3, 6, 13],
            vec![2, 4, 9, 15, 6, 13],
        ],
        vec![vec![5, 1, 7, 10, 12]],
        vec![vec![4, 9, 3, 6, 14], vec![4, 9, 15, 6, 14]],
        vec![vec![9, 3, 6, 14], vec![9, 15, 6, 14]],
    ];
    let mut by_distance = by_vertex_id.clone();
    by_distance[0].rotate_left(1);
    by_distance[1].rotate_left(1);
    let unshared = SearchCounters {
        expanded_vertices: 50,
        scanned_edges: 50,
        pruned_edges: 10,
        stored_prefixes: 50,
        cache_splices: 0,
        produced_paths: 11,
    };
    let shared = SearchCounters {
        expanded_vertices: 22,
        scanned_edges: 25,
        pruned_edges: 3,
        stored_prefixes: 56,
        cache_splices: 12,
        produced_paths: 11,
    };

    let g = paper_graph();
    let queries = paper_queries();
    for algorithm in Algorithm::ALL {
        let outcome = Engine::with_algorithm(g.clone(), algorithm).run(&queries);
        let got: Vec<Vec<Vec<u32>>> = outcome
            .paths
            .iter()
            .map(|set| path_ids(&set.to_paths()))
            .collect();
        let (paths, counters) = match algorithm {
            Algorithm::PathEnum | Algorithm::BasicEnum => (&by_vertex_id, unshared),
            Algorithm::BasicEnumPlus => (&by_distance, unshared),
            Algorithm::BatchEnum => (&by_vertex_id, shared),
            Algorithm::BatchEnumPlus => (&by_distance, shared),
        };
        assert_eq!(&got, paths, "{algorithm}: per-query path order");
        assert_eq!(outcome.stats.counters, counters, "{algorithm}: counters");
    }
}
