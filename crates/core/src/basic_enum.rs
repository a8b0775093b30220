//! `BasicEnum` — the baseline batch algorithm (Algorithm 1, §III).
//!
//! The only computation shared across the batch is the index: one pair of multi-source BFS
//! runs from `S = ∪ q.s` and `T = ∪ q.t` replaces the per-query BFS pairs of `PathEnum`.
//! Each query is then enumerated independently against the shared index with the same
//! bidirectional search + `⊕` join as `PathEnum`.

use crate::buffers::SearchBuffers;
use crate::pathenum::PathEnum;
use crate::query::PathQuery;
use crate::search_order::SearchOrder;
use crate::sink::PathSink;
use crate::stats::EnumStats;
use hcsp_graph::DiGraph;
use hcsp_index::BatchIndex;

/// Configuration of the baseline batch algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct BasicEnum {
    /// Neighbour expansion order; [`SearchOrder::DistanceThenDegree`] yields `BasicEnum+`.
    pub order: SearchOrder,
}

impl BasicEnum {
    /// Creates the algorithm with the given search order.
    pub fn new(order: SearchOrder) -> Self {
        BasicEnum { order }
    }

    /// Processes a batch against an already-built (possibly shared, possibly superset)
    /// index: lines 3–8 of Algorithm 1. Lines 1–2, BuildIndex, are the [`Engine`]'s.
    ///
    /// The index must cover the batch's endpoint sets at its largest hop constraint; a
    /// superset index (more roots, larger bound) is fine — see
    /// [`BatchEnum::run_batch_with_index`](crate::BatchEnum::run_batch_with_index).
    ///
    /// [`Engine`]: crate::Engine
    pub fn run_batch_with_index<S: PathSink>(
        &self,
        graph: &DiGraph,
        index: &BatchIndex,
        queries: &[PathQuery],
        sink: &mut S,
    ) -> EnumStats {
        let mut stats = EnumStats::new(queries.len());
        stats.num_clusters = queries.len();
        let per_query = PathEnum::new(self.order);
        let mut buffers = SearchBuffers::for_graph(graph);
        for (id, query) in queries.iter().enumerate() {
            // The per-query runner consults the sink's quota itself: satisfied queries
            // are skipped, bounded ones run the early-terminating streaming join.
            let flow = per_query.run_with_index_buffered(
                graph,
                index,
                query,
                id,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce::{canonical, enumerate_reference};
    use crate::query::BatchSummary;
    use crate::sink::{CollectSink, CountSink};
    use crate::stats::Stage;
    use crate::{Algorithm, Engine};
    use hcsp_graph::generators::erdos_renyi::gnm_random;
    use hcsp_graph::generators::preferential::{preferential_attachment, PreferentialConfig};
    use hcsp_graph::generators::regular::{complete, grid};

    fn assert_batch_matches_reference(
        graph: &DiGraph,
        queries: &[PathQuery],
        algorithm: Algorithm,
    ) {
        let mut sink = CollectSink::new(queries.len());
        Engine::with_algorithm(graph.clone(), algorithm).run_with_sink(queries, &mut sink);
        for (id, query) in queries.iter().enumerate() {
            let expected = canonical(enumerate_reference(graph, query));
            let got = canonical(sink.paths(id).to_paths());
            assert_eq!(got, expected, "query {query}");
        }
    }

    #[test]
    fn batch_matches_reference_on_grid() {
        let g = grid(4, 4);
        let queries = vec![
            PathQuery::new(0u32, 15u32, 6),
            PathQuery::new(0u32, 15u32, 8),
            PathQuery::new(1u32, 14u32, 6),
            PathQuery::new(4u32, 11u32, 5),
        ];
        assert_batch_matches_reference(&g, &queries, Algorithm::BasicEnum);
        assert_batch_matches_reference(&g, &queries, Algorithm::BasicEnumPlus);
    }

    #[test]
    fn batch_matches_reference_on_random_graphs() {
        for seed in 0..3 {
            let g = gnm_random(80, 400, seed).unwrap();
            let queries = vec![
                PathQuery::new(0u32, 40u32, 4),
                PathQuery::new(0u32, 41u32, 5),
                PathQuery::new(5u32, 40u32, 4),
                PathQuery::new(7u32, 63u32, 5),
            ];
            assert_batch_matches_reference(&g, &queries, Algorithm::BasicEnum);
        }
    }

    #[test]
    fn shared_index_produces_same_counts_as_pathenum() {
        let g = preferential_attachment(PreferentialConfig {
            num_vertices: 300,
            edges_per_vertex: 3,
            reciprocity: 0.3,
            seed: 2,
        })
        .unwrap();
        let queries: Vec<PathQuery> = (0..10)
            .map(|i| PathQuery::new(i as u32, (i + 37) as u32 % 300, 4))
            .collect();

        let mut basic_sink = CountSink::new(queries.len());
        Engine::with_algorithm(g.clone(), Algorithm::BasicEnum)
            .run_with_sink(&queries, &mut basic_sink);

        let mut pe_sink = CountSink::new(queries.len());
        crate::pathenum::PathEnum::default().run_batch(&g, &queries, &mut pe_sink);

        assert_eq!(basic_sink.counts(), pe_sink.counts());
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let g = complete(3);
        let mut sink = CountSink::new(0);
        let stats = Engine::with_algorithm(g, Algorithm::BasicEnum).run_with_sink(&[], &mut sink);
        assert_eq!(stats.num_queries, 0);
        assert_eq!(stats.total_time(), std::time::Duration::ZERO);
    }

    #[test]
    fn index_is_built_once_for_the_whole_batch() {
        let g = grid(4, 4);
        let queries = vec![
            PathQuery::new(0u32, 15u32, 6),
            PathQuery::new(1u32, 15u32, 6),
        ];
        let mut sink = CountSink::new(2);
        let stats = Engine::with_algorithm(g.clone(), Algorithm::BasicEnum)
            .run_with_sink(&queries, &mut sink);
        // One BuildIndex stage entry covering both queries; enumeration covers both too.
        assert!(stats.stage_time(Stage::BuildIndex) > std::time::Duration::ZERO);
        assert!(stats.counters.produced_paths > 0);
        let summary = BatchSummary::of(&queries);
        let index = BatchIndex::build(
            &g,
            &summary.sources,
            &summary.targets,
            summary.max_hop_limit,
        );
        assert_eq!(index.source_index().num_roots(), 2);
        assert_eq!(index.target_index().num_roots(), 1);
    }
}
