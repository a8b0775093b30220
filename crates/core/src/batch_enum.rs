//! `BatchEnum` — the paper's contributed batch algorithm (Algorithm 4, §IV-C).
//!
//! The pipeline per batch is:
//!
//! 1. **BuildIndex** — one two-sided multi-source BFS index for the whole batch.
//! 2. **ClusterQuery** — hierarchical clustering of the queries by neighbourhood
//!    similarity (Algorithm 2) with threshold γ.
//! 3. **IdentifySubquery** — per cluster, common HC-s path query detection on `G` and
//!    `G^r` (Algorithm 3), producing the query sharing graph Ψ.
//! 4. **Enumeration** — the nodes of Ψ are evaluated in topological order: each HC-s path
//!    query is materialised once (splicing the cached results of its providers instead of
//!    re-exploring), and each HC-s-t query is answered by concatenating the cached results
//!    of its two half queries with `⊕`. Cache entries are evicted as soon as their last
//!    user has been processed.

use crate::buffers::SearchBuffers;
use crate::cache::ResultCache;
use crate::clustering::cluster_queries;
use crate::concat::concatenate_scratch;
use crate::detection::detect_cluster_in;
use crate::path::PathSet;
use crate::query::{BatchSummary, HcsQuery, PathQuery, QueryId};
use crate::search_order::SearchOrder;
use crate::sharing_graph::{AnchorSlack, NodeId, QueryNode, SharingGraph};
use crate::similarity::{QueryNeighborhood, SimilarityMatrix};
use crate::sink::{PathSink, SinkFlow};
use crate::stats::{EnumStats, SearchCounters, Stage};
use hcsp_graph::{DiGraph, VertexId};
use hcsp_index::BatchIndex;
use std::time::Instant;

/// Default clustering threshold used by the paper's experiments ("We set the default value
/// of γ to 0.5").
pub const DEFAULT_GAMMA: f64 = 0.5;

/// Configuration of the shared batch algorithm.
#[derive(Debug, Clone, Copy)]
pub struct BatchEnum {
    /// Neighbour expansion order; [`SearchOrder::DistanceThenDegree`] yields `BatchEnum+`.
    pub order: SearchOrder,
    /// Clustering threshold γ ∈ [0, 1]. γ = 1 disables clustering (every query alone).
    pub gamma: f64,
}

impl Default for BatchEnum {
    fn default() -> Self {
        BatchEnum {
            order: SearchOrder::default(),
            gamma: DEFAULT_GAMMA,
        }
    }
}

impl BatchEnum {
    /// Creates the algorithm with an explicit search order and γ.
    pub fn new(order: SearchOrder, gamma: f64) -> Self {
        BatchEnum { order, gamma }
    }

    /// Processes a batch of queries, streaming every result path into `sink`.
    pub fn run_batch<S: PathSink>(
        &self,
        graph: &DiGraph,
        queries: &[PathQuery],
        sink: &mut S,
    ) -> EnumStats {
        if queries.is_empty() {
            sink.finish();
            return EnumStats::new(0);
        }

        // Stage 1: BuildIndex (Alg. 4 lines 1-2).
        let start = Instant::now();
        let summary = BatchSummary::of(queries);
        let index = BatchIndex::build(
            graph,
            &summary.sources,
            &summary.targets,
            summary.max_hop_limit,
        );
        let build_time = start.elapsed();

        let mut stats = self.run_batch_with_index(graph, &index, queries, sink);
        stats.add_stage(Stage::BuildIndex, build_time);
        stats
    }

    /// Processes a batch against an already-built index (stages 2–4 only).
    ///
    /// The index may cover a *superset* of the batch — more roots, a larger hop bound —
    /// which is how the long-lived serving engine reuses one index across micro-batches:
    /// extra roots are never consulted and far entries are filtered against per-query
    /// budgets downstream. The index must cover at least the batch's endpoint sets at
    /// `max_hop_limit`, or results will be silently pruned.
    pub fn run_batch_with_index<S: PathSink>(
        &self,
        graph: &DiGraph,
        index: &BatchIndex,
        queries: &[PathQuery],
        sink: &mut S,
    ) -> EnumStats {
        let mut stats = EnumStats::new(queries.len());
        if queries.is_empty() {
            sink.finish();
            return stats;
        }

        // Stage 2: ClusterQuery (Alg. 4 line 3 / Alg. 2).
        let start = Instant::now();
        let clusters = self.cluster(index, queries);
        stats.num_clusters = clusters.len();
        stats.add_stage(Stage::ClusterQuery, start.elapsed());

        // Stages 3-4 per cluster (Alg. 4 lines 4-16); one buffer set for the whole batch.
        let mut buffers = SearchBuffers::for_graph(graph);
        for cluster in &clusters {
            let flow = self.process_cluster(
                graph,
                index,
                queries,
                cluster,
                sink,
                &mut stats,
                &mut buffers,
            );
            if flow.stops_batch() {
                break;
            }
        }
        sink.finish();
        stats
    }

    /// Groups the batch by neighbourhood similarity at threshold γ (Algorithm 2). The
    /// parallel run clusters through here too, so both runs form the same clusters.
    pub(crate) fn cluster(&self, index: &BatchIndex, queries: &[PathQuery]) -> Vec<Vec<QueryId>> {
        let neighborhoods: Vec<QueryNeighborhood> = queries
            .iter()
            .map(|q| QueryNeighborhood::from_index(index, q))
            .collect();
        cluster_queries(&SimilarityMatrix::compute(&neighborhoods), self.gamma)
    }

    /// Detects and evaluates one cluster of queries. Returns the batch-level control
    /// flow ([`SinkFlow::Stop`] when the sink declared the whole batch satisfied).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn process_cluster<S: PathSink>(
        &self,
        graph: &DiGraph,
        index: &BatchIndex,
        queries: &[PathQuery],
        cluster: &[QueryId],
        sink: &mut S,
        stats: &mut EnumStats,
        buffers: &mut SearchBuffers,
    ) -> SinkFlow {
        // Stage 3: IdentifySubquery.
        let start = Instant::now();
        let cluster_queries_list: Vec<(QueryId, PathQuery)> = cluster
            .iter()
            // lint:allow(panic-free-hot-path) clusters partition the ids of `queries`
            .map(|&qid| (qid, queries[qid]))
            .collect();
        let mut sharing = SharingGraph::new();
        let outcome = detect_cluster_in(
            graph,
            index,
            &cluster_queries_list,
            &mut sharing,
            &mut buffers.detection,
        );
        stats.num_shared_subqueries += outcome.dominating_created;
        let slacks = sharing.anchor_slacks(queries);
        let order = sharing.topological_order();
        stats.add_stage(Stage::IdentifySubquery, start.elapsed());

        // Early-termination support: a query the sink already declared satisfied
        // (`remaining_quota == Some(0)`) is dropped from the cluster's work, and — by a
        // reverse pass over the topological order — so is every HC-s path node whose
        // only (transitive) users are satisfied queries: its materialisation would feed
        // no one. Nodes with a mix of live and dead users still materialise in full
        // (their slack set conservatively includes the dead queries' anchors).
        let needed: Vec<bool> = {
            let all_live = cluster
                .iter()
                .all(|&qid| sink.remaining_quota(qid) != Some(0));
            if all_live {
                vec![true; sharing.len()]
            } else {
                let mut needed = vec![false; sharing.len()];
                for &node_id in order.iter().rev() {
                    let live = match *sharing.node(node_id) {
                        QueryNode::Full(qid) => sink.remaining_quota(qid) != Some(0),
                        QueryNode::Hcs(_) => sharing
                            .users(node_id)
                            .iter()
                            .any(|&(user, _)| needed.get(user) == Some(&true)),
                    };
                    if let Some(slot) = needed.get_mut(node_id) {
                        *slot = live;
                    }
                }
                needed
            }
        };

        // Stage 4: Enumeration in topological order with the shared result cache.
        let start = Instant::now();
        let mut cache = ResultCache::new(sharing.len());
        let mut counters = SearchCounters::default();
        let mut batch_flow = SinkFlow::Continue;
        for &node_id in &order {
            let live = needed.get(node_id) == Some(&true);
            match *sharing.node(node_id) {
                QueryNode::Hcs(hcs) if live => {
                    let paths = self.materialize_node(
                        graph,
                        index,
                        &sharing,
                        node_id,
                        hcs,
                        // lint:allow(panic-free-hot-path) anchor_slacks returns one entry per Ψ node
                        &slacks[node_id],
                        &cache,
                        &mut counters,
                        buffers,
                    );
                    cache.insert(node_id, paths, sharing.users(node_id).len());
                }
                QueryNode::Full(qid) if live => {
                    let flow = self.answer_query(
                        &sharing,
                        node_id,
                        qid,
                        // lint:allow(panic-free-hot-path) Ψ's full nodes are the cluster's ids, which index `queries`
                        &queries[qid],
                        &cache,
                        sink,
                        &mut counters,
                        buffers,
                    );
                    batch_flow = flow.batch_flow();
                }
                // Skipped node: no live user anywhere downstream.
                QueryNode::Hcs(_) | QueryNode::Full(_) => {}
            }
            // Alg. 4 lines 14-16: this node has consumed its providers; evict exhausted
            // ones. Runs for skipped nodes too, so providers shared with live users keep
            // an accurate remaining-user count (releasing an absent entry is a no-op).
            for &(provider, _) in sharing.providers(node_id) {
                cache.release(provider);
            }
            if batch_flow.stops_batch() {
                break;
            }
        }
        stats.peak_cached_results = stats.peak_cached_results.max(cache.peak_resident());
        stats.counters.merge(&counters);
        stats.add_stage(Stage::Enumeration, start.elapsed());
        batch_flow
    }

    /// Materialises one HC-s path query node: every simple path from its root within its
    /// budget that can still serve at least one dependent HC-s-t query, splicing cached
    /// provider results whenever the search reaches a provider's root.
    #[allow(clippy::too_many_arguments)]
    fn materialize_node(
        &self,
        graph: &DiGraph,
        index: &BatchIndex,
        sharing: &SharingGraph,
        node_id: NodeId,
        hcs: HcsQuery,
        slacks: &[AnchorSlack],
        cache: &ResultCache,
        counters: &mut SearchCounters,
        buffers: &mut SearchBuffers,
    ) -> PathSet {
        // The result set is cache-owned after this call, so it cannot come from the
        // reusable buffers; the DFS state (stack, marks, candidate arena) does.
        let mut out = PathSet::new();
        buffers.begin_traversal(graph);
        buffers.stack.push(hcs.root);
        buffers.marks.mark(hcs.root);
        // Pre-resolve "which provider is rooted at vertex w" once: the lookup happens for
        // every candidate neighbour of every expansion, and half queries of large clusters
        // can have hundreds of providers.
        let mut providers_by_root: Vec<(VertexId, NodeId, HcsQuery)> = sharing
            .providers(node_id)
            .iter()
            .filter_map(|&(p, _)| sharing.node(p).as_hcs().map(|q| (q.root, p, *q)))
            .collect();
        providers_by_root.sort_by_key(|&(root, _, q)| (root, std::cmp::Reverse(q.budget)));
        providers_by_root.dedup_by_key(|&mut (root, _, _)| root);
        self.extend_shared_frontier(
            graph,
            index,
            hcs,
            slacks,
            &providers_by_root,
            cache,
            buffers,
            &mut out,
            counters,
        );
        out
    }

    /// Iterative frontier-at-a-time shared prefix extension (the `Search` procedure of
    /// Algorithm 4; the shared-search analogue of `SearchContext::extend_frontier`).
    /// `buffers.stack` holds the current prefix, mirrored by `buffers.marks`.
    ///
    /// The per-anchor slack constraints are resolved to [`AnchorDistances`] views once
    /// per materialisation, so the usefulness test probes each anchor's distance row
    /// directly instead of binary-searching the index root table per `(edge, anchor)`
    /// pair. Provider splicing happens at candidate-take, before descending.
    ///
    /// [`AnchorDistances`]: hcsp_index::AnchorDistances
    #[allow(clippy::too_many_arguments)]
    fn extend_shared_frontier(
        &self,
        graph: &DiGraph,
        index: &BatchIndex,
        hcs: HcsQuery,
        slacks: &[AnchorSlack],
        providers_by_root: &[(VertexId, NodeId, HcsQuery)],
        cache: &ResultCache,
        buffers: &mut SearchBuffers,
        out: &mut PathSet,
        counters: &mut SearchCounters,
    ) {
        let slack_views: Vec<(u32, hcsp_index::AnchorDistances<'_>)> = slacks
            .iter()
            .map(|c| (c.slack, index.anchor_view(hcs.direction, c.anchor)))
            .collect();
        counters.expanded_vertices += 1;
        counters.stored_prefixes += 1;
        out.push_slice(&buffers.stack);
        if hcs.budget == 0 {
            return;
        }
        self.fill_shared_level(graph, hcs, &slack_views, 0, buffers, counters);
        loop {
            let Some(top) = buffers.levels.last_mut() else {
                return;
            };
            if top.cursor < top.end {
                // lint:allow(panic-free-hot-path) cursor < end <= candidates.len(): runs index the arena
                let w = buffers.candidates[top.cursor];
                top.cursor += 1;
                // The stack tail is this level's owner, so its length gives the hop
                // count the candidates of this level extend from.
                let current_hops = (buffers.stack.len() - 1) as u32;
                let remaining_after = hcs.budget - current_hops - 1;
                // Splice the cached results of a provider rooted at w when its budget
                // covers everything this prefix still needs (Alg. 4 lines 22-23).
                let provider = providers_by_root
                    .binary_search_by_key(&w, |&(root, _, _)| root)
                    .ok()
                    .and_then(|slot| providers_by_root.get(slot));
                if let Some(&(_, provider, provider_query)) = provider {
                    if provider_query.covers_budget(remaining_after) {
                        if let Some(cached) = cache.get(provider) {
                            counters.cache_splices += 1;
                            for suffix in cached.iter() {
                                if (suffix.len() - 1) as u32 > remaining_after {
                                    continue;
                                }
                                if suffix.iter().any(|&v| buffers.marks.contains(v)) {
                                    continue;
                                }
                                counters.stored_prefixes += 1;
                                out.push_concat(&buffers.stack, suffix);
                            }
                            continue;
                        }
                    }
                }
                buffers.stack.push(w);
                buffers.marks.mark(w);
                counters.expanded_vertices += 1;
                counters.stored_prefixes += 1;
                out.push_slice(&buffers.stack);
                let new_hops = current_hops + 1;
                if new_hops < hcs.budget {
                    self.fill_shared_level(graph, hcs, &slack_views, new_hops, buffers, counters);
                } else {
                    buffers.marks.unmark(w);
                    buffers.stack.pop();
                }
            } else {
                let Some(run) = buffers.levels.pop() else {
                    return;
                };
                buffers.candidates.truncate(run.start);
                buffers.cand_keys.truncate(run.start);
                // The root owns the outermost level but stays on the stack.
                if !buffers.levels.is_empty() {
                    if let Some(owner) = buffers.stack.pop() {
                        buffers.marks.unmark(owner);
                    }
                }
            }
        }
    }

    /// Fills one shared-search frontier level: one contiguous filter pass over the
    /// adjacency segment of the prefix tail, recording the `(dist-to-first-anchor,
    /// degree)` sort key of every survivor.
    ///
    /// Candidates are arranged against the *first* anchor only (the sort is a heuristic,
    /// not a correctness condition), so the key distance is the first slack view's
    /// whichever anchor admitted the candidate — one admitted via a later anchor may key
    /// at `INF` and sort last.
    fn fill_shared_level(
        &self,
        graph: &DiGraph,
        hcs: HcsQuery,
        slack_views: &[(u32, hcsp_index::AnchorDistances<'_>)],
        current_hops: u32,
        buffers: &mut SearchBuffers,
        counters: &mut SearchCounters,
    ) {
        // lint:allow(panic-free-hot-path) fill_shared_level is only called with the root already pushed
        let last = *buffers.stack.last().expect("prefix never empty");
        let start = buffers.candidates.len();
        let new_len = current_hops + 1;
        let neighbors = graph.neighbors(last, hcs.direction);
        let degrees = graph.neighbor_degrees(last, hcs.direction);
        for (&w, &deg) in neighbors.iter().zip(degrees) {
            counters.scanned_edges += 1;
            let Some(key_dist) = Self::useful_key_dist(slack_views, w, new_len) else {
                counters.pruned_edges += 1;
                continue;
            };
            if buffers.marks.contains(w) {
                continue;
            }
            buffers.candidates.push(w);
            buffers.cand_keys.push((key_dist, deg));
        }
        let end = buffers.candidates.len();
        if self.order == SearchOrder::DistanceThenDegree
            && !slack_views.is_empty()
            && end - start > 1
        {
            buffers.sort_run_by_keys(start, end);
        }
        buffers.levels.push(crate::buffers::LevelRun {
            start,
            cursor: start,
            end,
        });
    }

    /// Lemma 3.1 pruning generalised to a shared HC-s path query: an extension to `w` of
    /// `new_len` hops is useful when at least one dependent HC-s-t query can still complete
    /// a path through it within its own hop constraint.
    ///
    /// Returns `None` for a useless extension, otherwise the distance from `w` to the
    /// *first* anchor — the candidate's sort key, read here because the test probes that
    /// anchor first anyway (`0` when there are no constraints at all).
    fn useful_key_dist(
        slack_views: &[(u32, hcsp_index::AnchorDistances<'_>)],
        w: VertexId,
        new_len: u32,
    ) -> Option<u32> {
        let within = |slack: u32, dist: u32| {
            dist != hcsp_index::INF && new_len.saturating_add(dist) <= slack
        };
        let Some((&(first_slack, first_view), rest)) = slack_views.split_first() else {
            return Some(0);
        };
        let key_dist = first_view.dist(w);
        let useful = within(first_slack, key_dist)
            || rest
                .iter()
                .any(|&(slack, view)| within(slack, view.dist(w)));
        useful.then_some(key_dist)
    }

    /// Answers one HC-s-t query by joining the cached results of its two half queries
    /// (Alg. 4 lines 11-13). The join honours sink verdicts: a `SkipQuery` the moment
    /// the query's result mode is satisfied aborts the remaining join pairs (the
    /// short-circuit of `Exists`/`FirstK` under the sharing algorithm, whose halves are
    /// materialised once for the whole cluster). Returns the last verdict.
    #[allow(clippy::too_many_arguments)]
    fn answer_query<S: PathSink>(
        &self,
        sharing: &SharingGraph,
        node_id: NodeId,
        qid: QueryId,
        query: &PathQuery,
        cache: &ResultCache,
        sink: &mut S,
        counters: &mut SearchCounters,
        buffers: &mut SearchBuffers,
    ) -> SinkFlow {
        let mut forward: Option<&PathSet> = None;
        let mut backward: Option<&PathSet> = None;
        for &(provider, _) in sharing.providers(node_id) {
            if let Some(hcs) = sharing.node(provider).as_hcs() {
                match hcs.direction {
                    hcsp_graph::Direction::Forward => forward = cache.get(provider),
                    hcsp_graph::Direction::Backward => backward = cache.get(provider),
                }
            }
        }
        let (Some(forward), Some(backward)) = (forward, backward) else {
            debug_assert!(
                false,
                "half queries of q{qid} must be materialised before the query"
            );
            return SinkFlow::Continue;
        };
        let mut flow = SinkFlow::Continue;
        let join = concatenate_scratch(
            forward,
            backward,
            query.hop_limit,
            &mut buffers.join,
            |path| {
                flow = sink.accept(qid, path);
                flow
            },
        );
        counters.produced_paths += join.produced as u64;
        flow
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic_enum::BasicEnum;
    use crate::bruteforce::{canonical, enumerate_reference};
    use crate::sink::{CollectSink, CountSink};
    use hcsp_graph::generators::erdos_renyi::gnm_random;
    use hcsp_graph::generators::preferential::{preferential_attachment, PreferentialConfig};
    use hcsp_graph::generators::regular::{complete, grid, layered_dag};
    use hcsp_graph::GraphBuilder;

    /// The paper's Fig. 1 graph (same edge set as the detection tests).
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

    fn paper_queries() -> Vec<PathQuery> {
        vec![
            PathQuery::new(0u32, 11u32, 5),
            PathQuery::new(2u32, 13u32, 5),
            PathQuery::new(5u32, 12u32, 5),
            PathQuery::new(4u32, 14u32, 4),
            PathQuery::new(9u32, 14u32, 3),
        ]
    }

    fn assert_matches_reference(
        graph: &DiGraph,
        queries: &[PathQuery],
        order: SearchOrder,
        gamma: f64,
    ) {
        let mut sink = CollectSink::new(queries.len());
        BatchEnum::new(order, gamma).run_batch(graph, queries, &mut sink);
        for (id, query) in queries.iter().enumerate() {
            let expected = canonical(enumerate_reference(graph, query));
            let got = canonical(sink.paths(id).to_paths());
            assert_eq!(
                got, expected,
                "query {query} (order {order:?}, gamma {gamma})"
            );
        }
    }

    #[test]
    fn paper_example_queries_match_reference() {
        let g = paper_graph();
        let queries = paper_queries();
        for gamma in [0.0, 0.5, 0.8, 1.0] {
            assert_matches_reference(&g, &queries, SearchOrder::VertexId, gamma);
            assert_matches_reference(&g, &queries, SearchOrder::DistanceThenDegree, gamma);
        }
    }

    #[test]
    fn paper_example_q0_has_three_paths() {
        let g = paper_graph();
        let mut sink = CollectSink::new(5);
        BatchEnum::default().run_batch(&g, &paper_queries(), &mut sink);
        let q0_paths = canonical(sink.paths(0).to_paths());
        assert_eq!(
            q0_paths.len(),
            3,
            "Example 2.1: q0 has exactly three HC-s-t paths"
        );
        let as_ids: Vec<Vec<u32>> = q0_paths
            .iter()
            .map(|p| p.vertices().iter().map(|v| v.raw()).collect())
            .collect();
        assert!(as_ids.contains(&vec![0, 1, 7, 10, 12, 11]));
        assert!(as_ids.contains(&vec![0, 4, 9, 3, 6, 11]));
        assert!(as_ids.contains(&vec![0, 4, 9, 15, 6, 11]));
    }

    #[test]
    fn matches_basic_enum_on_structured_graphs() {
        for (graph, queries) in [
            (
                grid(4, 4),
                vec![
                    PathQuery::new(0u32, 15u32, 6),
                    PathQuery::new(1u32, 15u32, 6),
                    PathQuery::new(0u32, 14u32, 6),
                    PathQuery::new(4u32, 15u32, 5),
                ],
            ),
            (
                layered_dag(3, 3),
                vec![
                    PathQuery::new(0u32, 10u32, 4),
                    PathQuery::new(0u32, 10u32, 6),
                    PathQuery::new(1u32, 10u32, 3),
                ],
            ),
            (
                complete(6),
                vec![
                    PathQuery::new(0u32, 5u32, 3),
                    PathQuery::new(1u32, 5u32, 3),
                    PathQuery::new(0u32, 4u32, 4),
                ],
            ),
        ] {
            let mut batch_sink = CountSink::new(queries.len());
            BatchEnum::default().run_batch(&graph, &queries, &mut batch_sink);
            let mut basic_sink = CountSink::new(queries.len());
            BasicEnum::default().run_batch(&graph, &queries, &mut basic_sink);
            assert_eq!(batch_sink.counts(), basic_sink.counts());
        }
    }

    #[test]
    fn matches_reference_on_random_graphs_with_overlapping_queries() {
        for seed in 0..3 {
            let g = gnm_random(70, 420, seed).unwrap();
            // Queries deliberately share sources/targets to trigger sharing.
            let queries = vec![
                PathQuery::new(0u32, 30u32, 5),
                PathQuery::new(0u32, 31u32, 5),
                PathQuery::new(1u32, 30u32, 4),
                PathQuery::new(1u32, 31u32, 5),
                PathQuery::new(2u32, 32u32, 4),
            ];
            assert_matches_reference(&g, &queries, SearchOrder::VertexId, 0.5);
            assert_matches_reference(&g, &queries, SearchOrder::DistanceThenDegree, 0.3);
        }
    }

    #[test]
    fn sharing_is_detected_for_similar_queries() {
        let g = paper_graph();
        let queries = paper_queries();
        let mut sink = CountSink::new(queries.len());
        let stats = BatchEnum::new(SearchOrder::VertexId, 0.5).run_batch(&g, &queries, &mut sink);
        assert!(
            stats.num_clusters < queries.len(),
            "similar queries must be clustered"
        );
        assert!(
            stats.num_shared_subqueries > 0,
            "dominating HC-s path queries must be found"
        );
        assert!(
            stats.counters.cache_splices > 0,
            "cached results must actually be reused"
        );
        assert!(stats.peak_cached_results > 0);
    }

    #[test]
    fn gamma_one_disables_clustering_but_stays_correct() {
        let g = paper_graph();
        let queries = paper_queries();
        let mut sink = CountSink::new(queries.len());
        let stats = BatchEnum::new(SearchOrder::VertexId, 1.0).run_batch(&g, &queries, &mut sink);
        assert_eq!(stats.num_clusters, queries.len());
        // Still correct.
        let mut reference = CountSink::new(queries.len());
        BasicEnum::default().run_batch(&g, &queries, &mut reference);
        assert_eq!(sink.counts(), reference.counts());
    }

    #[test]
    fn duplicate_queries_share_everything() {
        let g = preferential_attachment(PreferentialConfig {
            num_vertices: 200,
            edges_per_vertex: 3,
            reciprocity: 0.3,
            seed: 7,
        })
        .unwrap();
        let queries = vec![PathQuery::new(0u32, 50u32, 4); 4];
        let mut sink = CountSink::new(queries.len());
        let stats = BatchEnum::default().run_batch(&g, &queries, &mut sink);
        // All four queries produce identical counts.
        let c = sink.count(0);
        assert!(sink.counts().iter().all(|&x| x == c));
        // They collapse onto a single pair of half queries, so at most one cluster exists.
        assert_eq!(stats.num_clusters, 1);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let g = complete(4);
        let mut sink = CountSink::new(0);
        let stats = BatchEnum::default().run_batch(&g, &[], &mut sink);
        assert_eq!(stats.num_queries, 0);
        assert_eq!(stats.total_time(), std::time::Duration::ZERO);
    }

    #[test]
    fn stage_decomposition_covers_all_four_stages() {
        let g = paper_graph();
        let queries = paper_queries();
        let mut sink = CountSink::new(queries.len());
        let stats = BatchEnum::default().run_batch(&g, &queries, &mut sink);
        for stage in Stage::ALL {
            assert!(
                stats.stage_time(stage) > std::time::Duration::ZERO,
                "stage {stage} must be timed"
            );
        }
    }
}
