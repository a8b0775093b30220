//! `PathEnum` — the state-of-the-art single-query algorithm (§III, ref. \[15\]).
//!
//! Each query is processed in isolation: a per-query index is built with two bounded BFS
//! runs (from `s` on `G` and from `t` on `G^r`), the two index-pruned half searches are
//! run, and the halves are joined by `⊕`. This is the per-query building block reused by
//! `BasicEnum`, and the first baseline of every experiment.
//!
//! ## Execution strategies
//!
//! When the sink is unbounded (classic `Collect`/`Count` semantics) both halves are
//! materialised and joined in one pass — the paper's formulation. When the sink reports a
//! finite [`PathSink::remaining_quota`] (an `Exists` probe, a `FirstK` request, a path
//! budget), the runner switches to a **streaming join**: the smaller (backward) half is
//! materialised and indexed, and the forward DFS joins each prefix the moment it is
//! discovered — the first [`SinkFlow::SkipQuery`] verdict aborts the search outright, so
//! a satisfied query never materialises its forward half at all. Both strategies emit the
//! same paths in the same order (see [`crate::concat`]), so early termination is purely a
//! work saving, never a result change.

use crate::buffers::SearchBuffers;
use crate::concat::{concatenate_scratch, join_prefix, prepare_suffixes, JoinStats};
use crate::query::{PathQuery, QueryId};
use crate::search::SearchContext;
use crate::search_order::SearchOrder;
use crate::sink::{PathSink, SinkFlow};
use crate::stats::{EnumStats, SearchCounters, Stage};
use hcsp_graph::{DiGraph, Direction};
use hcsp_index::BatchIndex;
use std::time::Instant;

/// Configuration of the single-query algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct PathEnum {
    /// Neighbour expansion order (the "+" variants use [`SearchOrder::DistanceThenDegree`]).
    pub order: SearchOrder,
}

impl PathEnum {
    /// Creates the algorithm with the given search order.
    pub fn new(order: SearchOrder) -> Self {
        PathEnum { order }
    }

    /// Processes one query in isolation: builds the per-query index and enumerates, with
    /// caller-owned, reusable [`SearchBuffers`].
    ///
    /// Results are streamed into `sink` under query id `query_id`. Returns the
    /// batch-level control flow ([`SinkFlow::Stop`] when the sink ended the batch).
    pub fn run_single_buffered<S: PathSink>(
        &self,
        graph: &DiGraph,
        query: &PathQuery,
        query_id: QueryId,
        sink: &mut S,
        stats: &mut EnumStats,
        buffers: &mut SearchBuffers,
    ) -> SinkFlow {
        // A satisfied query skips even its per-query index build.
        if sink.remaining_quota(query_id) == Some(0) {
            return SinkFlow::Continue;
        }
        let start = Instant::now();
        let index = BatchIndex::build(graph, &[query.source], &[query.target], query.hop_limit);
        stats.add_stage(Stage::BuildIndex, start.elapsed());
        self.run_with_index_buffered(graph, &index, query, query_id, sink, stats, buffers)
    }

    /// Processes one query against an already-built (possibly shared) index, with
    /// caller-owned, reusable [`SearchBuffers`]: the half-search prefix sets, DFS state
    /// and join scratch all come from `buffers`, so a batch loop (or a long-lived worker)
    /// allocates nothing per query in the steady state.
    ///
    /// Picks the execution strategy from the sink's [`PathSink::remaining_quota`]: a
    /// finite quota runs the early-terminating streaming join, `Some(0)` skips the query
    /// outright, `None` runs the classic materialise-both-halves pipeline.
    #[allow(clippy::too_many_arguments)]
    pub fn run_with_index_buffered<S: PathSink>(
        &self,
        graph: &DiGraph,
        index: &BatchIndex,
        query: &PathQuery,
        query_id: QueryId,
        sink: &mut S,
        stats: &mut EnumStats,
        buffers: &mut SearchBuffers,
    ) -> SinkFlow {
        match sink.remaining_quota(query_id) {
            Some(0) => SinkFlow::Continue,
            Some(_) => self.run_streaming(graph, index, query, query_id, sink, stats, buffers),
            None => self.run_exhaustive(graph, index, query, query_id, sink, stats, buffers),
        }
    }

    /// The classic pipeline: both halves materialised, then joined. The join itself still
    /// honours sink verdicts (a mid-join `SkipQuery` aborts the remaining pairs).
    #[allow(clippy::too_many_arguments)]
    fn run_exhaustive<S: PathSink>(
        &self,
        graph: &DiGraph,
        index: &BatchIndex,
        query: &PathQuery,
        query_id: QueryId,
        sink: &mut S,
        stats: &mut EnumStats,
        buffers: &mut SearchBuffers,
    ) -> SinkFlow {
        let start = Instant::now();
        let mut counters = SearchCounters::default();
        let ctx = SearchContext::new(graph, index, self.order);
        // The half-search result sets live in the buffers too; take them out for the
        // duration of the run so the DFS can borrow `buffers` mutably alongside them.
        let mut forward = std::mem::take(&mut buffers.forward);
        let mut backward = std::mem::take(&mut buffers.backward);
        ctx.enumerate_half_into(
            query,
            Direction::Forward,
            &mut counters,
            buffers,
            &mut forward,
        );
        ctx.enumerate_half_into(
            query,
            Direction::Backward,
            &mut counters,
            buffers,
            &mut backward,
        );
        let mut flow = SinkFlow::Continue;
        let join = concatenate_scratch(
            &forward,
            &backward,
            query.hop_limit,
            &mut buffers.join,
            |path| {
                flow = sink.accept(query_id, path);
                flow
            },
        );
        buffers.forward = forward;
        buffers.backward = backward;
        counters.produced_paths += join.produced as u64;
        stats.counters.merge(&counters);
        stats.add_stage(Stage::Enumeration, start.elapsed());
        flow.batch_flow()
    }

    /// The early-terminating pipeline: the backward half is materialised and indexed,
    /// the forward DFS joins each discovered prefix immediately, and the first
    /// non-`Continue` sink verdict aborts the search. Emission order is identical to
    /// [`PathEnum::run_exhaustive`].
    #[allow(clippy::too_many_arguments)]
    fn run_streaming<S: PathSink>(
        &self,
        graph: &DiGraph,
        index: &BatchIndex,
        query: &PathQuery,
        query_id: QueryId,
        sink: &mut S,
        stats: &mut EnumStats,
        buffers: &mut SearchBuffers,
    ) -> SinkFlow {
        let start = Instant::now();
        let mut counters = SearchCounters::default();
        let ctx = SearchContext::new(graph, index, self.order);
        let mut backward = std::mem::take(&mut buffers.backward);
        ctx.enumerate_half_into(
            query,
            Direction::Backward,
            &mut counters,
            buffers,
            &mut backward,
        );
        let mut join_stats = JoinStats::default();
        let flow = if backward.is_empty() {
            // No suffix can ever join: the forward half is pure waste, skip it. (The
            // backward set contains at least the root prefix whenever t is in range, so
            // this only triggers on out-of-range roots.)
            SinkFlow::Continue
        } else {
            let mut join = std::mem::take(&mut buffers.join);
            prepare_suffixes(&backward, &mut join);
            let flow =
                ctx.enumerate_half_with(query, Direction::Forward, &mut counters, buffers, {
                    let backward = &backward;
                    let join = &mut join;
                    let join_stats = &mut join_stats;
                    move |prefix| {
                        join_prefix(
                            prefix,
                            backward,
                            query.hop_limit,
                            join,
                            join_stats,
                            |path| sink.accept(query_id, path),
                        )
                    }
                });
            buffers.join = join;
            flow
        };
        buffers.backward = backward;
        counters.produced_paths += join_stats.produced as u64;
        stats.counters.merge(&counters);
        stats.add_stage(Stage::Enumeration, start.elapsed());
        flow.batch_flow()
    }

    /// Processes a whole batch by running every query independently (the `PathEnum` row of
    /// the experiments: no shared index, no shared computation). One [`SearchBuffers`]
    /// instance is reused across the whole batch. A [`SinkFlow::Stop`] verdict abandons
    /// the remaining queries.
    pub fn run_batch<S: PathSink>(
        &self,
        graph: &DiGraph,
        queries: &[PathQuery],
        sink: &mut S,
    ) -> EnumStats {
        let mut stats = EnumStats::new(queries.len());
        stats.num_clusters = queries.len();
        let mut buffers = SearchBuffers::for_graph(graph);
        for (id, query) in queries.iter().enumerate() {
            let flow = self.run_single_buffered(graph, query, id, sink, &mut stats, &mut buffers);
            if flow.stops_batch() {
                break;
            }
        }
        sink.finish();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce::{canonical, enumerate_reference};
    use crate::path::Path;
    use crate::sink::{CollectSink, ControlSink, CountSink};
    use crate::spec::{QuerySpec, SpecSink};
    use hcsp_graph::generators::erdos_renyi::gnm_random;
    use hcsp_graph::generators::regular::{complete, cycle, grid, layered_dag};

    fn run_collect(graph: &DiGraph, query: PathQuery, order: SearchOrder) -> Vec<Path> {
        let mut sink = CollectSink::new(1);
        let algo = PathEnum::new(order);
        algo.run_batch(graph, &[query], &mut sink);
        sink.paths(0).to_paths()
    }

    fn assert_matches_reference(graph: &DiGraph, query: PathQuery) {
        let expected = canonical(enumerate_reference(graph, &query));
        for order in [SearchOrder::VertexId, SearchOrder::DistanceThenDegree] {
            let got = canonical(run_collect(graph, query, order));
            assert_eq!(got, expected, "query {query} with order {order:?}");
        }
    }

    #[test]
    fn matches_reference_on_structured_graphs() {
        let dag = layered_dag(3, 3);
        let sink_v = (dag.num_vertices() - 1) as u32;
        assert_matches_reference(&dag, PathQuery::new(0u32, sink_v, 4));
        assert_matches_reference(&dag, PathQuery::new(0u32, sink_v, 6));

        let g = grid(3, 4);
        assert_matches_reference(&g, PathQuery::new(0u32, 11u32, 5));
        assert_matches_reference(&g, PathQuery::new(0u32, 11u32, 7));

        let k5 = complete(5);
        assert_matches_reference(&k5, PathQuery::new(0u32, 4u32, 4));

        let c6 = cycle(6);
        assert_matches_reference(&c6, PathQuery::new(2u32, 5u32, 6));
        assert_matches_reference(&c6, PathQuery::new(2u32, 5u32, 2));
    }

    #[test]
    fn matches_reference_on_random_graphs() {
        for seed in 0..4 {
            let g = gnm_random(60, 300, seed).unwrap();
            for (s, t, k) in [(0u32, 7u32, 4u32), (3, 20, 5), (11, 55, 6)] {
                assert_matches_reference(&g, PathQuery::new(s, t, k));
            }
        }
    }

    #[test]
    fn unreachable_queries_return_empty() {
        let g = layered_dag(2, 2);
        // The sink cannot reach the source.
        let q = PathQuery::new((g.num_vertices() - 1) as u32, 0u32, 6);
        assert!(run_collect(&g, q, SearchOrder::VertexId).is_empty());
    }

    #[test]
    fn hop_limit_one_returns_only_direct_edges() {
        let g = complete(4);
        let paths = run_collect(&g, PathQuery::new(0u32, 3u32, 1), SearchOrder::VertexId);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].hops(), 1);
    }

    #[test]
    fn streaming_strategy_yields_a_prefix_of_the_exhaustive_order() {
        let g = complete(6);
        let q = PathQuery::new(0u32, 5u32, 4);
        let full = run_collect(&g, q, SearchOrder::VertexId);
        assert!(full.len() > 3);
        for k in [1usize, 2, 3, full.len()] {
            // A bounded SpecSink triggers the streaming strategy.
            let specs = vec![QuerySpec::first_k(q, k)];
            let mut sink = SpecSink::new(&specs);
            let mut stats = EnumStats::new(1);
            PathEnum::default().run_single_buffered(
                &g,
                &q,
                0,
                &mut sink,
                &mut stats,
                &mut SearchBuffers::new(),
            );
            let responses = sink.into_responses();
            let got = responses[0].paths().unwrap().to_paths();
            assert_eq!(got.as_slice(), &full[..k.min(full.len())], "k = {k}");
        }
    }

    #[test]
    fn early_termination_reports_less_search_work() {
        let g = complete(7);
        let q = PathQuery::new(0u32, 6u32, 5);
        let mut full_stats = EnumStats::new(1);
        let mut full_sink = CountSink::new(1);
        PathEnum::default().run_single_buffered(
            &g,
            &q,
            0,
            &mut full_sink,
            &mut full_stats,
            &mut SearchBuffers::new(),
        );
        assert!(full_sink.count(0) > 1);

        let specs = vec![QuerySpec::exists(q)];
        let mut sink = SpecSink::new(&specs);
        let mut stats = EnumStats::new(1);
        let flow = PathEnum::default().run_single_buffered(
            &g,
            &q,
            0,
            &mut sink,
            &mut stats,
            &mut SearchBuffers::new(),
        );
        // The only query is satisfied: batch-level Stop.
        assert_eq!(flow, SinkFlow::Stop);
        assert!(
            stats.counters.expanded_vertices < full_stats.counters.expanded_vertices,
            "exists probe must expand fewer vertices ({} vs {})",
            stats.counters.expanded_vertices,
            full_stats.counters.expanded_vertices
        );
        assert_eq!(stats.counters.produced_paths, 1);
        assert!(sink.into_responses()[0].exists());
    }

    #[test]
    fn zero_quota_queries_are_skipped_without_index_work() {
        let g = complete(4);
        let q = PathQuery::new(0u32, 3u32, 3);
        let specs = vec![QuerySpec::first_k(q, 0)];
        let mut sink = SpecSink::new(&specs);
        let mut stats = EnumStats::new(1);
        let flow = PathEnum::default().run_single_buffered(
            &g,
            &q,
            0,
            &mut sink,
            &mut stats,
            &mut SearchBuffers::new(),
        );
        assert_eq!(flow, SinkFlow::Continue);
        assert_eq!(stats.counters.expanded_vertices, 0);
        assert_eq!(
            stats.stage_time(Stage::BuildIndex),
            std::time::Duration::ZERO
        );
    }

    #[test]
    fn mid_join_skip_verdicts_abort_the_exhaustive_join_too() {
        let g = complete(6);
        let q = PathQuery::new(0u32, 5u32, 4);
        let full = run_collect(&g, q, SearchOrder::VertexId);
        // An unbounded-quota sink (no hint) that stops after 2 paths mid-join.
        let mut taken = Vec::new();
        let mut stats = EnumStats::new(1);
        {
            let mut sink = ControlSink::new(|_q, p: &[hcsp_graph::VertexId]| {
                taken.push(p.to_vec());
                if taken.len() == 2 {
                    SinkFlow::SkipQuery
                } else {
                    SinkFlow::Continue
                }
            });
            PathEnum::default().run_single_buffered(
                &g,
                &q,
                0,
                &mut sink,
                &mut stats,
                &mut SearchBuffers::new(),
            );
        }
        assert_eq!(taken.len(), 2);
        assert_eq!(taken[0], full[0].vertices());
        assert_eq!(taken[1], full[1].vertices());
        assert_eq!(stats.counters.produced_paths, 2);
    }

    #[test]
    fn batch_runs_accumulate_stats() {
        let g = complete(5);
        let queries = vec![PathQuery::new(0u32, 4u32, 3), PathQuery::new(1u32, 2u32, 3)];
        let mut sink = CountSink::new(queries.len());
        let stats = PathEnum::default().run_batch(&g, &queries, &mut sink);
        assert_eq!(stats.num_queries, 2);
        assert!(stats.counters.produced_paths >= 2);
        assert_eq!(stats.counters.produced_paths, sink.total());
        assert!(stats.stage_time(Stage::BuildIndex) > std::time::Duration::ZERO);
        assert!(stats.stage_time(Stage::Enumeration) > std::time::Duration::ZERO);
    }

    #[test]
    fn stop_verdict_abandons_the_remaining_batch() {
        let g = complete(5);
        let queries = vec![
            PathQuery::new(0u32, 4u32, 3),
            PathQuery::new(1u32, 2u32, 3),
            PathQuery::new(2u32, 3u32, 3),
        ];
        // Every query is an exists probe: after the last one resolves, Stop fires; the
        // per-query skip logic means each query costs exactly one produced path.
        let specs: Vec<QuerySpec> = queries.iter().map(|&q| QuerySpec::exists(q)).collect();
        let mut sink = SpecSink::new(&specs);
        let stats = PathEnum::default().run_batch(&g, &queries, &mut sink);
        assert_eq!(stats.counters.produced_paths, 3);
        assert!(sink.into_responses().iter().all(|r| r.exists()));
    }
}
