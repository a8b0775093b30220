//! Deterministic cross-validation: every `Algorithm::ALL` variant against the
//! brute-force reference on small fixed graphs.
//!
//! `tests/prop_correctness.rs` covers the same invariant over *sampled* graphs;
//! this suite pins a handful of hand-picked topologies (diamond, cycle, layered
//! DAG, disconnected pair) with exact expected results, so a regression in any
//! engine shows up on every run regardless of proptest's sampling, seeds, or
//! case-count configuration.

use hcsp::core::bruteforce::{canonical, enumerate_reference};
use hcsp::prelude::*;

/// One named fixture: a graph plus a batch of queries exercising it.
struct Fixture {
    name: &'static str,
    graph: DiGraph,
    queries: Vec<PathQuery>,
}

fn fixtures() -> Vec<Fixture> {
    vec![
        // Two parallel 2-hop branches plus a direct edge: multiple paths per
        // query, and hop limits that include/exclude the long way round.
        Fixture {
            name: "diamond",
            graph: DiGraph::from_edge_list(4, &[(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)]).unwrap(),
            queries: vec![
                PathQuery::new(0u32, 3u32, 1),
                PathQuery::new(0u32, 3u32, 2),
                PathQuery::new(0u32, 3u32, 4),
                PathQuery::new(3u32, 0u32, 4),
                PathQuery::new(1u32, 2u32, 4),
            ],
        },
        // A directed 6-cycle: exactly one simple path between any ordered pair,
        // admissible only when the hop budget covers the distance around.
        Fixture {
            name: "cycle",
            graph: DiGraph::from_edge_list(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
                .unwrap(),
            queries: vec![
                PathQuery::new(0u32, 3u32, 2),
                PathQuery::new(0u32, 3u32, 3),
                PathQuery::new(0u32, 3u32, 6),
                PathQuery::new(2u32, 1u32, 5),
            ],
        },
        // A 3x3 layered DAG: path counts multiply across layers, no cycles to
        // prune, and backward queries must return nothing.
        Fixture {
            name: "layered-dag",
            graph: DiGraph::from_edge_list(
                9,
                &[
                    (0, 3),
                    (0, 4),
                    (1, 3),
                    (1, 5),
                    (2, 4),
                    (2, 5),
                    (3, 6),
                    (3, 7),
                    (4, 7),
                    (4, 8),
                    (5, 6),
                    (5, 8),
                ],
            )
            .unwrap(),
            queries: vec![
                PathQuery::new(0u32, 7u32, 2),
                PathQuery::new(0u32, 8u32, 2),
                PathQuery::new(1u32, 6u32, 3),
                PathQuery::new(6u32, 0u32, 4),
            ],
        },
        // Two components (a triangle and an edge): cross-component queries have
        // no result, in-component ones do.
        Fixture {
            name: "disconnected",
            graph: DiGraph::from_edge_list(5, &[(0, 1), (1, 2), (2, 0), (3, 4)]).unwrap(),
            queries: vec![
                PathQuery::new(0u32, 2u32, 3),
                PathQuery::new(0u32, 4u32, 4),
                PathQuery::new(3u32, 4u32, 1),
                PathQuery::new(4u32, 3u32, 4),
            ],
        },
    ]
}

#[test]
fn every_algorithm_matches_brute_force_on_fixed_graphs() {
    for fixture in fixtures() {
        let reference: Vec<Vec<Path>> = fixture
            .queries
            .iter()
            .map(|q| canonical(enumerate_reference(&fixture.graph, q)))
            .collect();
        for algorithm in Algorithm::ALL {
            let outcome =
                Engine::with_algorithm(fixture.graph.clone(), algorithm).run(&fixture.queries);
            let got: Vec<Vec<Path>> = outcome
                .paths
                .iter()
                .map(|set| canonical(set.to_paths()))
                .collect();
            assert_eq!(
                got, reference,
                "algorithm {algorithm} diverges from brute force on fixture {}",
                fixture.name
            );
        }
    }
}

#[test]
fn fixture_path_counts_are_the_hand_checked_values() {
    // Pin the reference itself: if `enumerate_reference` regresses, the
    // cross-validation above would compare garbage to garbage.
    let all = fixtures();
    let counts = |f: &Fixture| -> Vec<usize> {
        f.queries
            .iter()
            .map(|q| enumerate_reference(&f.graph, q).len())
            .collect()
    };

    // Diamond: k=1 admits the direct edge only; k=2 adds both 2-hop branches;
    // k=4 adds nothing (no more simple paths exist); reverse and 1 -> 2: none.
    assert_eq!(counts(&all[0]), vec![1, 3, 3, 0, 0]);
    // Cycle: 0 -> 3 has distance 3 (so k=2 finds nothing and there is exactly
    // one simple path); 2 -> 1 needs all 5 remaining arcs.
    assert_eq!(counts(&all[1]), vec![0, 1, 1, 1]);
    // Layered DAG: 0 -> 7 via 3 or 4; 0 -> 8 via 4 only; 1 -> 6 via 3 or 5; a
    // DAG has no backward paths.
    assert_eq!(counts(&all[2]), vec![2, 1, 2, 0]);
    // Disconnected: in-component hits, cross-component misses.
    assert_eq!(counts(&all[3]), vec![1, 0, 1, 0]);
}

#[test]
fn algorithms_agree_on_empty_and_singleton_batches() {
    let graph = DiGraph::from_edge_list(3, &[(0, 1), (1, 2)]).unwrap();
    for algorithm in Algorithm::ALL {
        let outcome = Engine::with_algorithm(graph.clone(), algorithm).run(&[]);
        assert_eq!(outcome.paths.len(), 0, "{algorithm} on the empty batch");

        let queries = vec![PathQuery::new(0u32, 2u32, 2)];
        let outcome = Engine::with_algorithm(graph.clone(), algorithm).run(&queries);
        assert_eq!(outcome.count(0), 1, "{algorithm} on a singleton batch");
    }
}
