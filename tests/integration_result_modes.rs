//! Cross-validation of the typed request/response API: for every algorithm, offline and
//! through the service, the weak result modes must agree with full enumeration —
//! `Exists ⇔ count > 0`, `Count` equals the full result count, `FirstK(k)` is a prefix of
//! `Collect`.

use hcsp::prelude::*;
use hcsp::service::{BatchPolicy, PathService};
use hcsp::workload::{
    mixed_mode_query_set, similar_query_set, Dataset, DatasetScale, ModeMix, QuerySetSpec,
};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::time::Duration;

/// Canonical form of a path set: the sorted set of vertex-id sequences.
fn canonical(paths: &PathSet) -> BTreeSet<Vec<u32>> {
    paths
        .iter()
        .map(|p| p.iter().map(|v| v.raw()).collect())
        .collect()
}

/// The workload every offline case below shares: an overlapping query set on the EP
/// analog (dense enough that early termination has something to terminate).
fn workload() -> (DiGraph, Vec<PathQuery>) {
    let graph = Dataset::EP.build(DatasetScale::Tiny);
    let queries = similar_query_set(&graph, QuerySetSpec::new(16, 11).with_hops(3, 5), 0.5);
    assert!(!queries.is_empty());
    (graph, queries)
}

/// Asserts the cross-mode invariants of one batch of responses against the `Collect`
/// ground truth.
fn assert_modes_agree(
    label: &str,
    queries: &[PathQuery],
    collect: &[QueryResponse],
    exists: &[QueryResponse],
    counts: &[QueryResponse],
    first_k: &[QueryResponse],
    k: usize,
) {
    for (i, query) in queries.iter().enumerate() {
        let full = collect[i].paths().expect("collect yields paths");
        assert_eq!(
            exists[i],
            QueryResponse::Exists(!full.is_empty()),
            "{label}: exists({query})"
        );
        assert_eq!(
            counts[i],
            QueryResponse::Count(full.len() as u64),
            "{label}: count({query})"
        );
        let first = first_k[i].paths().expect("firstk yields paths");
        assert_eq!(
            first.len(),
            full.len().min(k),
            "{label}: firstk len({query})"
        );
        for (j, p) in first.iter().enumerate() {
            assert_eq!(
                p,
                full.get(j),
                "{label}: firstk({query}) must be a prefix of collect"
            );
        }
    }
}

#[test]
fn modes_agree_with_full_enumeration_for_every_algorithm() {
    let (graph, queries) = workload();
    const K: usize = 3;
    for algorithm in Algorithm::ALL {
        let mut engine = Engine::with_algorithm(graph.clone(), algorithm);
        // Collect equals the classic untyped run.
        let classic = Engine::with_algorithm(graph.clone(), algorithm).run(&queries);
        let collect = engine.run_specs(
            &queries
                .iter()
                .map(|&q| QuerySpec::collect(q))
                .collect::<Vec<_>>(),
        );
        for (i, response) in collect.responses.iter().enumerate() {
            assert_eq!(
                response.paths().unwrap(),
                &classic.paths[i],
                "{algorithm}: collect mode must equal the untyped run"
            );
        }
        let exists = engine.run_specs(
            &queries
                .iter()
                .map(|&q| QuerySpec::exists(q))
                .collect::<Vec<_>>(),
        );
        let counts = engine.run_specs(
            &queries
                .iter()
                .map(|&q| QuerySpec::count(q))
                .collect::<Vec<_>>(),
        );
        let first_k = engine.run_specs(
            &queries
                .iter()
                .map(|&q| QuerySpec::first_k(q, K))
                .collect::<Vec<_>>(),
        );
        assert_modes_agree(
            &format!("{algorithm} sequential"),
            &queries,
            &collect.responses,
            &exists.responses,
            &counts.responses,
            &first_k.responses,
            K,
        );
    }
}

#[test]
fn early_termination_saves_search_work_on_the_dense_workload() {
    let (graph, queries) = workload();
    for algorithm in [Algorithm::BasicEnumPlus, Algorithm::BatchEnumPlus] {
        let mut collect_engine = Engine::with_algorithm(graph.clone(), algorithm);
        let collect = collect_engine.run_specs(
            &queries
                .iter()
                .map(|&q| QuerySpec::collect(q))
                .collect::<Vec<_>>(),
        );
        let mut exists_engine = Engine::with_algorithm(graph.clone(), algorithm);
        let exists = exists_engine.run_specs(
            &queries
                .iter()
                .map(|&q| QuerySpec::exists(q))
                .collect::<Vec<_>>(),
        );
        assert!(collect.stats.counters.expanded_vertices > 0);
        assert_eq!(
            exists.stats.counters.expanded_vertices, 0,
            "{algorithm}: exists probes are answered from the shared index"
        );
    }
    // The streaming join of the per-query pipeline strictly reduces DFS work.
    let mut first_engine = Engine::with_algorithm(graph.clone(), Algorithm::BasicEnumPlus);
    let first = first_engine.run_specs(
        &queries
            .iter()
            .map(|&q| QuerySpec::first_k(q, 1))
            .collect::<Vec<_>>(),
    );
    let mut full_engine = Engine::with_algorithm(graph, Algorithm::BasicEnumPlus);
    let full = full_engine.run_specs(
        &queries
            .iter()
            .map(|&q| QuerySpec::collect(q))
            .collect::<Vec<_>>(),
    );
    assert!(
        first.stats.counters.expanded_vertices < full.stats.counters.expanded_vertices,
        "FirstK(1) must abort the forward DFS early ({} vs {})",
        first.stats.counters.expanded_vertices,
        full.stats.counters.expanded_vertices
    );
}

#[test]
fn mixed_mode_batches_are_lossless_through_the_service() {
    let graph = Dataset::EP.build(DatasetScale::Tiny);
    let specs = mixed_mode_query_set(
        &graph,
        QuerySetSpec::new(24, 5).with_hops(3, 4),
        ModeMix::default(),
    );
    assert!(!specs.is_empty());
    // Ground truth per query from a full offline enumeration.
    let queries: Vec<PathQuery> = specs.iter().map(|s| s.query).collect();
    let reference = Engine::new(graph.clone(), BatchEngine::default()).run(&queries);

    for (policy_label, policy, workers) in [
        ("immediate", BatchPolicy::immediate(), 1),
        (
            "windows",
            BatchPolicy::by_size(6, Duration::from_millis(30)),
            2,
        ),
    ] {
        let service = PathService::builder()
            .policy(policy)
            .workers(workers)
            .start(graph.clone())
            .unwrap();
        let handles = service.submit_specs(specs.clone());
        for ((handle, spec), full) in handles.into_iter().zip(&specs).zip(&reference.paths) {
            let result = handle.wait();
            match spec.mode {
                ResultMode::Exists => assert_eq!(
                    result.response,
                    QueryResponse::Exists(!full.is_empty()),
                    "{policy_label}: {spec}"
                ),
                ResultMode::Count => assert_eq!(
                    result.response,
                    QueryResponse::Count(full.len() as u64),
                    "{policy_label}: {spec}"
                ),
                ResultMode::FirstK(k) => {
                    let got = result.response.paths().expect("firstk yields paths");
                    assert_eq!(got.len(), full.len().min(k), "{policy_label}: {spec}");
                    // The k paths depend on the executed micro-batch, but are always
                    // genuine result paths of the query.
                    let all = canonical(full);
                    for p in got.iter() {
                        let ids: Vec<u32> = p.iter().map(|v| v.raw()).collect();
                        assert!(
                            all.contains(&ids),
                            "{policy_label}: {spec} returned {ids:?}"
                        );
                    }
                }
                ResultMode::Collect => {
                    let got = result.response.paths().expect("collect yields paths");
                    assert_eq!(canonical(got), canonical(full), "{policy_label}: {spec}");
                }
            }
        }
        service.shutdown();
    }
}

#[test]
fn budgets_and_degenerate_specs_behave() {
    let graph = Dataset::EP.build(DatasetScale::Tiny);
    let queries = similar_query_set(&graph, QuerySetSpec::new(4, 3).with_hops(4, 5), 0.8);
    let q = queries[0];
    let mut engine = Engine::new(graph, BatchEngine::default());
    let total = {
        let outcome = engine.run_specs(&[QuerySpec::count(q)]);
        outcome.responses[0].count().unwrap()
    };
    assert!(total > 2, "the workload must be dense enough to truncate");
    let outcome = engine.run_specs(&[
        QuerySpec::count(q).with_path_budget(2),
        QuerySpec::first_k(q, 0),
        QuerySpec::collect(q).with_path_budget(1),
        QuerySpec::exists(q).with_path_budget(5),
    ]);
    assert_eq!(outcome.responses[0], QueryResponse::Count(2));
    assert_eq!(outcome.responses[1].count(), Some(0));
    assert_eq!(outcome.responses[2].count(), Some(1));
    assert_eq!(outcome.responses[3], QueryResponse::Exists(true));
}

/// Strategy: a random directed graph with 2..=20 vertices and a moderate edge budget.
fn graph_strategy() -> impl Strategy<Value = DiGraph> {
    (2usize..=20).prop_flat_map(|n| {
        let max_edges = (n * (n - 1)).min(90);
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_edges)
            .prop_map(move |edges| DiGraph::from_edge_list(n, &edges).expect("edges in range"))
    })
}

/// Strategy: a graph plus a batch of 1..=5 queries on it.
fn workload_strategy() -> impl Strategy<Value = (DiGraph, Vec<PathQuery>)> {
    graph_strategy().prop_flat_map(|g| {
        let n = g.num_vertices();
        let queries = proptest::collection::vec((0..n as u32, 0..n as u32, 1u32..=5), 1..=5)
            .prop_map(|qs| {
                qs.into_iter()
                    .map(|(s, t, k)| PathQuery::new(s, t, k))
                    .collect::<Vec<PathQuery>>()
            });
        (Just(g), queries)
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// On arbitrary workloads, every algorithm's weak modes agree with its full
    /// enumeration: exists ⇔ count > 0, counts match, FirstK ⊆ Collect (as a prefix).
    #[test]
    fn response_modes_are_consistent((graph, queries) in workload_strategy()) {
        const K: usize = 2;
        for algorithm in [Algorithm::PathEnum, Algorithm::BasicEnumPlus, Algorithm::BatchEnumPlus] {
            let mut engine = Engine::with_algorithm(graph.clone(), algorithm);
            let collect = engine.run_specs(
                &queries.iter().map(|&q| QuerySpec::collect(q)).collect::<Vec<_>>(),
            );
            let exists = engine.run_specs(
                &queries.iter().map(|&q| QuerySpec::exists(q)).collect::<Vec<_>>(),
            );
            let counts = engine.run_specs(
                &queries.iter().map(|&q| QuerySpec::count(q)).collect::<Vec<_>>(),
            );
            let first = engine.run_specs(
                &queries.iter().map(|&q| QuerySpec::first_k(q, K)).collect::<Vec<_>>(),
            );
            for (i, q) in queries.iter().enumerate() {
                let full = collect.responses[i].paths().expect("collect yields paths");
                prop_assert_eq!(
                    &exists.responses[i],
                    &QueryResponse::Exists(!full.is_empty()),
                    "{} exists({})", algorithm, q
                );
                prop_assert_eq!(
                    &counts.responses[i],
                    &QueryResponse::Count(full.len() as u64),
                    "{} count({})", algorithm, q
                );
                let first_paths = first.responses[i].paths().expect("firstk yields paths");
                prop_assert_eq!(first_paths.len(), full.len().min(K));
                for (j, p) in first_paths.iter().enumerate() {
                    prop_assert_eq!(p, full.get(j), "{} firstk({}) prefix", algorithm, q);
                }
            }
        }
    }
}
