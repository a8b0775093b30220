//! Property-based tests (proptest) over random graphs and random query batches.
//!
//! The central invariant: for any graph and any batch, every algorithm returns exactly the
//! brute-force reference result set. Secondary invariants cover the index, the similarity
//! measure, the clustering threshold, and the sharing graph structure.

use hcsp::core::bruteforce::{canonical, enumerate_reference};
use hcsp::core::clustering::cluster_queries;
use hcsp::core::detection::detect_cluster;
use hcsp::core::query::{BatchSummary, HcsQuery};
use hcsp::core::sharing_graph::{QueryNode, SharingGraph};
use hcsp::core::similarity::{query_similarity, QueryNeighborhood, SimilarityMatrix};
use hcsp::prelude::*;
use hcsp_graph::traversal::{bfs_distances_bounded, UNREACHED};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

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

/// Strategy: one neighbourhood side as a sorted duplicate-free id set — empty, in a range
/// of its own (disjoint from the rest), or spread over the first few 64-bit words; with
/// `far`, a few ids just below `u32::MAX` make the id span huge and the sets sparse in it.
fn side_strategy(far: bool) -> impl Strategy<Value = Vec<VertexId>> {
    (0u32..6, proptest::collection::vec(0u32..1_000_000, 0..=48)).prop_map(move |(shape, raws)| {
        let mut ids: Vec<VertexId> = match shape {
            0 => Vec::new(),
            1 => raws.iter().map(|r| VertexId(300 + r % 200)).collect(),
            _ => raws.iter().map(|r| VertexId(r % 200)).collect(),
        };
        if far && shape != 0 {
            ids.extend(raws.iter().take(3).map(|r| VertexId(u32::MAX - r % 5)));
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    })
}

/// Strategy: 0..=6 neighbourhoods, all near the origin or all with far outliers.
fn neighborhoods_strategy() -> impl Strategy<Value = Vec<QueryNeighborhood>> {
    (0u32..3).prop_flat_map(|far| {
        let far = far == 0;
        proptest::collection::vec((side_strategy(far), side_strategy(far)), 0..=6).prop_map(
            |sides| {
                sides
                    .into_iter()
                    .map(|(forward, backward)| QueryNeighborhood { forward, backward })
                    .collect()
            },
        )
    })
}

/// Ψ as a node list and an edge list in insertion order, with the plainest possible cycle
/// test: a depth-first walk over the edge list per candidate edge.
#[derive(Default)]
struct OraclePsi {
    nodes: Vec<QueryNode>,
    edges: Vec<(usize, usize, u32)>,
}

impl OraclePsi {
    fn node(&mut self, node: QueryNode) -> usize {
        if let Some(id) = self.nodes.iter().position(|n| *n == node) {
            return id;
        }
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    fn hcs(&self, id: usize) -> HcsQuery {
        *self.nodes[id].as_hcs().expect("an HC-s path query node")
    }

    fn reaches(&self, from: usize, to: usize) -> bool {
        let mut seen = BTreeSet::from([from]);
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            for &(p, u, _) in &self.edges {
                if p == n && seen.insert(u) {
                    stack.push(u);
                }
            }
        }
        false
    }

    /// `SharingGraph::add_dependency`'s contract: self edges refused, duplicates accepted
    /// without a second copy, and an edge refused exactly when it would close a cycle.
    fn edge(&mut self, provider: usize, user: usize, offset: u32) -> bool {
        if provider == user {
            return false;
        }
        if self.edges.contains(&(provider, user, offset)) {
            return true;
        }
        if self.reaches(user, provider) {
            return false;
        }
        self.edges.push((provider, user, offset));
        true
    }

    /// Kahn's algorithm, smallest ready node first.
    fn topological_order(&self) -> Vec<usize> {
        let mut indegree = vec![0usize; self.nodes.len()];
        for &(_, u, _) in &self.edges {
            indegree[u] += 1;
        }
        let mut ready: BinaryHeap<std::cmp::Reverse<usize>> = (0..self.nodes.len())
            .filter(|&n| indegree[n] == 0)
            .map(std::cmp::Reverse)
            .collect();
        let mut order = Vec::new();
        while let Some(std::cmp::Reverse(n)) = ready.pop() {
            order.push(n);
            for &(p, u, _) in &self.edges {
                if p == n {
                    indegree[u] -= 1;
                    if indegree[u] == 0 {
                        ready.push(std::cmp::Reverse(u));
                    }
                }
            }
        }
        order
    }
}

/// Algorithm 3 written the plain way — ordered maps rebuilt per level, every cycle test a
/// graph walk — as the oracle for `detect_cluster`: iteration order (vertex ascending,
/// node id ascending, adjacency order) is what fixes Ψ.
fn oracle_detect(
    graph: &DiGraph,
    cluster: &[(usize, PathQuery)],
    dir: Direction,
    psi: &mut OraclePsi,
) {
    let useful: BTreeSet<VertexId> = cluster
        .iter()
        .flat_map(|(_, q)| {
            let bound = q.hop_limit;
            bfs_distances_bounded(graph, q.anchor(dir), dir.reverse(), bound)
                .into_iter()
                .enumerate()
                .filter(move |&(_, d)| d != UNREACHED && d <= bound)
                .map(|(v, _)| VertexId(v as u32))
        })
        .collect();
    let k_max = cluster
        .iter()
        .map(|(_, q)| q.budget(dir))
        .max()
        .unwrap_or(0);
    let mut pending: Vec<Vec<(VertexId, usize)>> = vec![Vec::new(); k_max as usize + 1];
    for &(qid, q) in cluster {
        let full = psi.node(QueryNode::Full(qid));
        let half = q.half_query(dir);
        let half_node = psi.node(QueryNode::Hcs(half));
        psi.edge(half_node, full, 0);
        pending[half.budget as usize].push((half.root, half_node));
    }
    let mut root_query: BTreeMap<VertexId, usize> = BTreeMap::new();
    for level in pending.iter().rev() {
        root_query.extend(level.iter().copied());
    }
    let mut active: BTreeMap<VertexId, BTreeSet<usize>> = BTreeMap::new();
    for remaining in (0..=k_max).rev() {
        for &(root, node) in &pending[remaining as usize] {
            active.entry(root).or_default().insert(node);
        }
        let mut representatives: BTreeMap<VertexId, usize> = BTreeMap::new();
        for (&vertex, nodes) in &active {
            let mut rep = *nodes.iter().next().expect("active sets are never empty");
            if nodes.len() > 1 {
                rep = psi.node(QueryNode::Hcs(HcsQuery::new(vertex, remaining, dir)));
                for &user in nodes {
                    psi.edge(rep, user, psi.hcs(user).budget - remaining);
                }
                root_query.insert(vertex, rep);
            }
            representatives.insert(vertex, rep);
        }
        let mut next_active: BTreeMap<VertexId, BTreeSet<usize>> = BTreeMap::new();
        if remaining > 0 {
            for (&vertex, &rep) in &representatives {
                for &next in graph.neighbors(vertex, dir) {
                    if !useful.contains(&next) {
                        continue;
                    }
                    let reused = root_query.get(&next).is_some_and(|&provider| {
                        provider != rep
                            && psi.hcs(provider).covers_budget(remaining - 1)
                            && psi.edge(provider, rep, psi.hcs(rep).budget - (remaining - 1))
                    });
                    if !reused {
                        next_active.entry(next).or_default().insert(rep);
                    }
                }
            }
        }
        active = next_active;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Every algorithm returns exactly the brute-force result set for every query.
    #[test]
    fn algorithms_match_brute_force((graph, queries) in workload_strategy()) {
        let reference: Vec<Vec<Path>> =
            queries.iter().map(|q| canonical(enumerate_reference(&graph, q))).collect();
        for algorithm in Algorithm::ALL {
            let outcome = Engine::with_algorithm(graph.clone(), algorithm).run(&queries);
            let got: Vec<Vec<Path>> =
                outcome.paths.iter().map(|set| canonical(set.to_paths())).collect();
            prop_assert_eq!(&got, &reference, "algorithm {}", algorithm);
        }
    }

    /// An aborted run is a prefix of the full run: a sink that answers `SkipQuery` after
    /// `per_query` paths of a query receives exactly the first `per_query` paths of that
    /// query, and one that answers `Stop` after `total` paths receives exactly the first
    /// `total` paths of the batch — same paths, same order as the unaborted run. The same
    /// holds through `Engine::run_parallel_with_sink` on two workers, whose full run equals
    /// the sequential one.
    #[test]
    fn aborted_run_is_a_prefix_of_the_full_run(
        (graph, queries) in workload_strategy(),
        per_query in 1usize..4,
        total in 1usize..6,
    ) {
        for algorithm in Algorithm::ALL {
            let engine = BatchEngine::with_algorithm(algorithm);
            // `verdict(paths seen so far, paths of this query seen so far)`.
            let run = |verdict: &dyn Fn(usize, usize) -> SinkFlow, parallel: bool| {
                let mut seen: Vec<(usize, Vec<VertexId>)> = Vec::new();
                let mut per = vec![0usize; queries.len()];
                let mut sink = ControlSink::new(|q, p: &[VertexId]| {
                    seen.push((q, p.to_vec()));
                    per[q] += 1;
                    verdict(seen.len(), per[q])
                });
                if parallel {
                    Engine::new(graph.clone(), engine).run_parallel_with_sink(
                        &queries,
                        Parallelism::Fixed(2),
                        &mut sink,
                    );
                } else {
                    Engine::new(graph.clone(), engine).run_with_sink(&queries, &mut sink);
                }
                seen
            };
            let full = run(&|_, _| SinkFlow::Continue, false);
            prop_assert_eq!(
                &run(&|_, _| SinkFlow::Continue, true),
                &full,
                "parallel full run under {}",
                algorithm
            );

            for parallel in [false, true] {
                let skipped = run(
                    &|_, of_query| {
                        if of_query >= per_query { SinkFlow::SkipQuery } else { SinkFlow::Continue }
                    },
                    parallel,
                );
                let mut kept = vec![0usize; queries.len()];
                let expected: Vec<_> = full
                    .iter()
                    .filter(|(q, _)| {
                        kept[*q] += 1;
                        kept[*q] <= per_query
                    })
                    .cloned()
                    .collect();
                prop_assert_eq!(
                    &skipped,
                    &expected,
                    "SkipQuery after {} under {} (parallel: {})",
                    per_query,
                    algorithm,
                    parallel
                );

                let stopped = run(
                    &|overall, _| if overall >= total { SinkFlow::Stop } else { SinkFlow::Continue },
                    parallel,
                );
                let expected = &full[..total.min(full.len())];
                prop_assert_eq!(
                    &stopped[..],
                    expected,
                    "Stop after {} under {} (parallel: {})",
                    total,
                    algorithm,
                    parallel
                );
            }
        }
    }

    /// Every returned path is simple, edge-valid, endpoint-correct and within the bound.
    #[test]
    fn returned_paths_are_well_formed((graph, queries) in workload_strategy()) {
        let outcome = Engine::with_algorithm(graph.clone(), Algorithm::BatchEnumPlus).run(&queries);
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

    /// `detect_cluster` builds exactly the Ψ the plain oracle builds — same node ids, same
    /// edges in the same order on both adjacency sides, same topological order — on graphs
    /// where every edge has its reverse, so reuse edges that would close a cycle really
    /// occur and each must be refused by both.
    #[test]
    fn sharing_graph_matches_the_dfs_oracle((graph, queries) in workload_strategy()) {
        let both_ways: Vec<(u32, u32)> = graph
            .vertices()
            .flat_map(|u| graph.neighbors(u, Direction::Forward).iter().map(move |&v| (u.0, v.0)))
            .flat_map(|(u, v)| [(u, v), (v, u)])
            .collect();
        let graph = DiGraph::from_edge_list(graph.num_vertices(), &both_ways).expect("edges in range");
        let summary = BatchSummary::of(&queries);
        let index = BatchIndex::build(&graph, &summary.sources, &summary.targets, summary.max_hop_limit);
        let cluster: Vec<(usize, PathQuery)> = queries.iter().copied().enumerate().collect();
        let mut sharing = SharingGraph::new();
        detect_cluster(&graph, &index, &cluster, &mut sharing);

        let mut oracle = OraclePsi::default();
        oracle_detect(&graph, &cluster, Direction::Forward, &mut oracle);
        oracle_detect(&graph, &cluster, Direction::Backward, &mut oracle);

        let nodes: Vec<QueryNode> = sharing.nodes().map(|(_, n)| *n).collect();
        prop_assert_eq!(&nodes, &oracle.nodes);
        for (id, _) in sharing.nodes() {
            let users: Vec<(usize, u32)> =
                oracle.edges.iter().filter(|e| e.0 == id).map(|e| (e.1, e.2)).collect();
            let providers: Vec<(usize, u32)> =
                oracle.edges.iter().filter(|e| e.1 == id).map(|e| (e.0, e.2)).collect();
            prop_assert_eq!(sharing.users(id), &users[..], "users of {}", id);
            prop_assert_eq!(sharing.providers(id), &providers[..], "providers of {}", id);
        }
        prop_assert_eq!(sharing.topological_order(), oracle.topological_order());
    }

    /// The matrix holds, to the last bit, what the pairwise merge of Definition 4.5 gives —
    /// empty sides (footnote 1), disjoint sets, ids either side of a 64-bit word boundary
    /// and a few very large sparse ids included.
    #[test]
    fn similarity_matrix_matches_the_pairwise_merge(neighborhoods in neighborhoods_strategy()) {
        let matrix = SimilarityMatrix::compute(&neighborhoods);
        prop_assert_eq!(matrix.len(), neighborhoods.len());
        for (i, a) in neighborhoods.iter().enumerate() {
            for (j, b) in neighborhoods.iter().enumerate() {
                let expected = if i == j { 1.0 } else { query_similarity(a, b) };
                prop_assert_eq!(matrix.get(i, j).to_bits(), expected.to_bits(), "µ({}, {})", i, j);
            }
        }
    }
}
