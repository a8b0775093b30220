//! The index-pruned half search shared by every enumeration algorithm.
//!
//! `Search` in Algorithm 1 (and its shared-cache variant in Algorithm 4) enumerates every
//! simple prefix path starting at a root vertex, bounded by a hop budget, pruning each
//! candidate extension `v''` with Lemma 3.1: a prefix of `l` hops ending just before `v''`
//! is only worth extending when `l + 1 + dist(v'', anchor) ≤ k`, where the anchor is the
//! query target for a forward search and the query source for a backward search.

use crate::buffers::{LevelRun, SearchBuffers};
use crate::path::PathSet;
use crate::query::PathQuery;
use crate::search_order::SearchOrder;
use crate::sink::SinkFlow;
use crate::stats::SearchCounters;
use hcsp_graph::{DiGraph, Direction, VertexId};
use hcsp_index::{AnchorDistances, BatchIndex};

/// Shared, immutable context of one half search.
pub struct SearchContext<'a> {
    /// The graph being traversed.
    pub graph: &'a DiGraph,
    /// The batch distance index used for pruning.
    pub index: &'a BatchIndex,
    /// Neighbour expansion order (plain vs "+" variants).
    pub order: SearchOrder,
}

impl<'a> SearchContext<'a> {
    /// Creates a context.
    pub fn new(graph: &'a DiGraph, index: &'a BatchIndex, order: SearchOrder) -> Self {
        SearchContext {
            graph,
            index,
            order,
        }
    }

    /// Enumerates every simple prefix of the half search of `query` in direction `dir`
    /// into `prefixes` (cleared first), reusing the caller's [`SearchBuffers`].
    ///
    /// This is `Search(G, P_f, q.s, q.t, ⌈q.k/2⌉)` / `Search(G^r, P_b, q.t, q.s, ⌊q.k/2⌋)`
    /// of Algorithm 1, with the pruning test applied against the full hop constraint
    /// `q.k` exactly as in Example 3.1. The prefix stack, visited marks and candidate
    /// arena come from `buffers`, so a batch runner pays for them once.
    pub fn enumerate_half_into(
        &self,
        query: &PathQuery,
        dir: Direction,
        counters: &mut SearchCounters,
        buffers: &mut SearchBuffers,
        prefixes: &mut PathSet,
    ) {
        prefixes.clear();
        // `stored_prefixes` counts *materialised* prefixes, so it is accounted here —
        // at the push — not inside the DFS: the streaming strategy visits prefixes
        // without ever storing them and must not report storage work it skipped.
        let mut stored = 0u64;
        self.enumerate_half_with(query, dir, counters, buffers, |prefix| {
            stored += 1;
            prefixes.push_slice(prefix);
            SinkFlow::Continue
        });
        counters.stored_prefixes += stored;
    }

    /// Streaming form of the half search: `visit` is called once per simple prefix, in
    /// exactly the order [`SearchContext::enumerate_half_into`] stores them, and its
    /// [`SinkFlow`] verdict can abort the DFS mid-flight (the early-termination hook of
    /// the `Exists` / `FirstK` result modes: the prefix set is never materialised, and
    /// the search stops the instant the downstream sink is satisfied).
    ///
    /// Emission order (the contract parallel runs and result modes are defined against):
    /// DFS; candidates of a level in CSR vertex-id order for [`SearchOrder::VertexId`], in
    /// `(dist-to-anchor, degree, vertex)` order for [`SearchOrder::DistanceThenDegree`].
    ///
    /// Returns the verdict that aborted the search, or `Continue` when it was exhausted.
    /// Counters count the visited portion only, so early-terminated runs report their
    /// genuinely smaller search effort.
    pub fn enumerate_half_with<F>(
        &self,
        query: &PathQuery,
        dir: Direction,
        counters: &mut SearchCounters,
        buffers: &mut SearchBuffers,
        mut visit: F,
    ) -> SinkFlow
    where
        F: FnMut(&[VertexId]) -> SinkFlow,
    {
        let root = query.root(dir);
        let anchor = query.anchor(dir);
        let budget = query.budget(dir);
        let hop_limit = query.hop_limit;
        buffers.begin_traversal(self.graph);
        buffers.stack.push(root);
        buffers.marks.mark(root);
        self.extend_frontier(
            buffers, dir, anchor, budget, hop_limit, &mut visit, counters,
        )
    }

    /// Iterative frontier-at-a-time prefix extension. `buffers.stack` holds the current
    /// prefix (root first), mirrored by `buffers.marks`.
    ///
    /// `buffers.levels` is the explicit DFS stack: each [`LevelRun`] owns one contiguous
    /// candidate range of the arena, descending pushes a run, and exhausting one
    /// truncates the arena back and backtracks the prefix. The anchor's distance row is
    /// resolved *once* here and probed directly inside the fill pass, so the per-edge
    /// cost is a row probe plus two sequential array reads (CSR targets + inline
    /// degrees). A non-`Continue` verdict from `visit` returns immediately; the arena and
    /// level stack are left dirty and repaired by the next
    /// [`SearchBuffers::begin_traversal`](crate::buffers::SearchBuffers).
    #[allow(clippy::too_many_arguments)]
    fn extend_frontier<F>(
        &self,
        buffers: &mut SearchBuffers,
        dir: Direction,
        anchor: VertexId,
        budget: u32,
        hop_limit: u32,
        visit: &mut F,
        counters: &mut SearchCounters,
    ) -> SinkFlow
    where
        F: FnMut(&[VertexId]) -> SinkFlow,
    {
        let anchor_dist = self.index.anchor_view(dir, anchor);
        counters.expanded_vertices += 1;
        let flow = visit(&buffers.stack);
        if !flow.is_continue() {
            return flow;
        }
        if budget == 0 {
            return SinkFlow::Continue;
        }
        self.fill_level(buffers, dir, &anchor_dist, 0, hop_limit, counters);
        loop {
            let Some(top) = buffers.levels.last_mut() else {
                return SinkFlow::Continue;
            };
            if top.cursor < top.end {
                // Take the next candidate of the deepest open level and descend.
                // lint:allow(panic-free-hot-path) cursor < end <= candidates.len(): runs index the arena
                let w = buffers.candidates[top.cursor];
                top.cursor += 1;
                buffers.stack.push(w);
                buffers.marks.mark(w);
                counters.expanded_vertices += 1;
                let flow = visit(&buffers.stack);
                if !flow.is_continue() {
                    return flow;
                }
                let current_hops = (buffers.stack.len() - 1) as u32;
                if current_hops < budget {
                    self.fill_level(
                        buffers,
                        dir,
                        &anchor_dist,
                        current_hops,
                        hop_limit,
                        counters,
                    );
                } else {
                    // Budget leaf: backtrack in place without opening a level.
                    buffers.marks.unmark(w);
                    buffers.stack.pop();
                }
            } else {
                // Run exhausted: reclaim its arena range and backtrack its owner. The
                // root owns the outermost level but stays on the stack — the traversal
                // is over once that level closes.
                // lint:allow(panic-free-hot-path) levels.last_mut() above proved the stack non-empty
                let run = buffers.levels.pop().expect("checked non-empty above");
                buffers.candidates.truncate(run.start);
                buffers.cand_keys.truncate(run.start);
                if !buffers.levels.is_empty() {
                    // lint:allow(panic-free-hot-path) a non-root level implies its owner is on the stack
                    let owner = *buffers.stack.last().expect("prefix is never empty");
                    buffers.marks.unmark(owner);
                    buffers.stack.pop();
                }
            }
        }
    }

    /// Fills one frontier level: filters the adjacency segment of the prefix tail in a
    /// single contiguous pass and pushes the surviving run onto `buffers.levels`.
    ///
    /// The CSR neighbour slice and its parallel inline-degree slice are consumed as one
    /// zipped sequential stream; the `(remaining, degree)` pair of every survivor is
    /// recorded in `cand_keys` so the `DistanceThenDegree` arrangement sorts precomputed
    /// `(dist, degree, vertex)` triples instead of re-deriving them per candidate.
    fn fill_level(
        &self,
        buffers: &mut SearchBuffers,
        dir: Direction,
        anchor_dist: &AnchorDistances<'_>,
        current_hops: u32,
        hop_limit: u32,
        counters: &mut SearchCounters,
    ) {
        // lint:allow(panic-free-hot-path) fill_level is only called with the root already pushed
        let last = *buffers.stack.last().expect("prefix is never empty");
        let start = buffers.candidates.len();
        let new_len = current_hops + 1;
        let neighbors = self.graph.neighbors(last, dir);
        let degrees = self.graph.neighbor_degrees(last, dir);
        for (&w, &deg) in neighbors.iter().zip(degrees) {
            counters.scanned_edges += 1;
            let remaining = anchor_dist.dist(w);
            // Lemma 3.1: the prefix must still be completable within the hop limit.
            if remaining == hcsp_index::INF || new_len.saturating_add(remaining) > hop_limit {
                counters.pruned_edges += 1;
                continue;
            }
            if buffers.marks.contains(w) {
                continue;
            }
            buffers.candidates.push(w);
            buffers.cand_keys.push((remaining, deg));
        }
        let end = buffers.candidates.len();
        if self.order == SearchOrder::DistanceThenDegree && end - start > 1 {
            buffers.sort_run_by_keys(start, end);
        }
        buffers.levels.push(LevelRun {
            start,
            cursor: start,
            end,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcsp_graph::generators::regular::{complete, grid, layered_dag, path};
    use hcsp_graph::DiGraph;

    fn v(x: u32) -> VertexId {
        VertexId(x)
    }

    fn index_for(graph: &DiGraph, q: &PathQuery) -> BatchIndex {
        BatchIndex::build(graph, &[q.source], &[q.target], q.hop_limit)
    }

    impl SearchContext<'_> {
        /// [`SearchContext::enumerate_half_into`] with transient buffers.
        fn enumerate_half(
            &self,
            query: &PathQuery,
            dir: Direction,
            counters: &mut SearchCounters,
        ) -> PathSet {
            let mut prefixes = PathSet::new();
            self.enumerate_half_into(
                query,
                dir,
                counters,
                &mut SearchBuffers::new(),
                &mut prefixes,
            );
            prefixes
        }
    }

    #[test]
    fn forward_half_enumerates_all_useful_prefixes() {
        // Path graph 0 -> 1 -> 2 -> 3 -> 4, query (0, 4, 4): forward budget 2.
        let g = path(5);
        let q = PathQuery::new(0u32, 4u32, 4);
        let index = index_for(&g, &q);
        let ctx = SearchContext::new(&g, &index, SearchOrder::VertexId);
        let mut counters = SearchCounters::default();
        let prefixes = ctx.enumerate_half(&q, Direction::Forward, &mut counters);
        let collected: Vec<Vec<VertexId>> = prefixes.iter().map(|p| p.to_vec()).collect();
        assert_eq!(
            collected,
            vec![vec![v(0)], vec![v(0), v(1)], vec![v(0), v(1), v(2)]]
        );
        assert_eq!(counters.stored_prefixes, 3);
    }

    #[test]
    fn backward_half_walks_the_reverse_graph() {
        let g = path(5);
        let q = PathQuery::new(0u32, 4u32, 4);
        let index = index_for(&g, &q);
        let ctx = SearchContext::new(&g, &index, SearchOrder::VertexId);
        let mut counters = SearchCounters::default();
        let prefixes = ctx.enumerate_half(&q, Direction::Backward, &mut counters);
        let collected: Vec<Vec<VertexId>> = prefixes.iter().map(|p| p.to_vec()).collect();
        assert_eq!(
            collected,
            vec![vec![v(4)], vec![v(4), v(3)], vec![v(4), v(3), v(2)]]
        );
    }

    #[test]
    fn pruning_skips_branches_that_cannot_reach_the_anchor() {
        // Grid 3x3, query from corner 0 to corner 8 with k = 4 (the Manhattan distance):
        // every explored prefix must stay on a shortest path.
        let g = grid(3, 3);
        let q = PathQuery::new(0u32, 8u32, 4);
        let index = index_for(&g, &q);
        let ctx = SearchContext::new(&g, &index, SearchOrder::VertexId);
        let mut counters = SearchCounters::default();
        let prefixes = ctx.enumerate_half(&q, Direction::Forward, &mut counters);
        for p in prefixes.iter() {
            let hops = (p.len() - 1) as u32;
            let end = *p.last().unwrap();
            assert!(
                hops + index.dist_to_target(end, v(8)) <= 4,
                "useless prefix {p:?}"
            );
        }
        assert!(
            counters.pruned_edges == 0,
            "every grid edge stays useful at k = exact distance"
        );
    }

    #[test]
    fn pruning_counts_hopeless_edges() {
        // Query with k strictly smaller than the distance: everything is pruned after the root.
        let g = path(6);
        let q = PathQuery::new(0u32, 5u32, 3);
        let index = index_for(&g, &q);
        let ctx = SearchContext::new(&g, &index, SearchOrder::VertexId);
        let mut counters = SearchCounters::default();
        let prefixes = ctx.enumerate_half(&q, Direction::Forward, &mut counters);
        assert_eq!(prefixes.len(), 1, "only the root prefix survives");
        assert_eq!(counters.pruned_edges, 1);
    }

    #[test]
    fn simple_prefix_constraint_avoids_revisits() {
        // Complete graph: prefixes may never repeat a vertex.
        let g = complete(5);
        let q = PathQuery::new(0u32, 1u32, 4);
        let index = index_for(&g, &q);
        let ctx = SearchContext::new(&g, &index, SearchOrder::VertexId);
        let mut counters = SearchCounters::default();
        let prefixes = ctx.enumerate_half(&q, Direction::Forward, &mut counters);
        for p in prefixes.iter() {
            assert!(crate::path::vertices_are_distinct(p));
        }
    }

    #[test]
    fn both_orders_enumerate_the_same_prefix_set() {
        let g = layered_dag(3, 3);
        let sink_vertex = VertexId::new(g.num_vertices() - 1);
        let q = PathQuery::new(0u32, sink_vertex.raw(), 5);
        let index = index_for(&g, &q);
        let mut c1 = SearchCounters::default();
        let mut c2 = SearchCounters::default();
        let plain = SearchContext::new(&g, &index, SearchOrder::VertexId).enumerate_half(
            &q,
            Direction::Forward,
            &mut c1,
        );
        let optimized = SearchContext::new(&g, &index, SearchOrder::DistanceThenDegree)
            .enumerate_half(&q, Direction::Forward, &mut c2);
        let mut a: Vec<Vec<VertexId>> = plain.iter().map(|p| p.to_vec()).collect();
        let mut b: Vec<Vec<VertexId>> = optimized.iter().map(|p| p.to_vec()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_eq!(c1.stored_prefixes, c2.stored_prefixes);
    }

    #[test]
    fn buffered_half_search_matches_the_transient_one_across_reuses() {
        let g = grid(4, 4);
        let queries = [
            PathQuery::new(0u32, 15u32, 6),
            PathQuery::new(1u32, 14u32, 5),
            PathQuery::new(0u32, 15u32, 8),
        ];
        let mut buffers = crate::buffers::SearchBuffers::for_graph(&g);
        let mut reused = PathSet::new();
        for q in &queries {
            let index = index_for(&g, q);
            let ctx = SearchContext::new(&g, &index, SearchOrder::DistanceThenDegree);
            for dir in [Direction::Forward, Direction::Backward] {
                let mut c1 = SearchCounters::default();
                let mut c2 = SearchCounters::default();
                let transient = ctx.enumerate_half(q, dir, &mut c1);
                // Same buffers reused across queries and directions: identical output.
                ctx.enumerate_half_into(q, dir, &mut c2, &mut buffers, &mut reused);
                assert_eq!(reused, transient, "query {q} dir {dir:?}");
                assert_eq!(c1, c2);
            }
        }
    }

    #[test]
    fn streaming_half_search_aborts_and_leaves_buffers_reusable() {
        let g = complete(5);
        let q = PathQuery::new(0u32, 1u32, 4);
        let index = index_for(&g, &q);
        let ctx = SearchContext::new(&g, &index, SearchOrder::VertexId);
        let mut c_full = SearchCounters::default();
        let full = ctx.enumerate_half(&q, Direction::Forward, &mut c_full);
        assert!(full.len() > 3);

        // Abort after 3 visited prefixes: they match the full run's first 3, in order.
        let mut buffers = crate::buffers::SearchBuffers::for_graph(&g);
        let mut c_short = SearchCounters::default();
        let mut seen: Vec<Vec<VertexId>> = Vec::new();
        let flow =
            ctx.enumerate_half_with(&q, Direction::Forward, &mut c_short, &mut buffers, |p| {
                seen.push(p.to_vec());
                if seen.len() == 3 {
                    SinkFlow::SkipQuery
                } else {
                    SinkFlow::Continue
                }
            });
        assert_eq!(flow, SinkFlow::SkipQuery);
        let first_three: Vec<Vec<VertexId>> = full.iter().take(3).map(|p| p.to_vec()).collect();
        assert_eq!(seen, first_three);
        assert!(
            c_short.expanded_vertices < c_full.expanded_vertices,
            "an aborted search must report less work"
        );

        // The same buffers run a full traversal afterwards: identical output.
        let mut reused = PathSet::new();
        let mut c_again = SearchCounters::default();
        ctx.enumerate_half_into(
            &q,
            Direction::Forward,
            &mut c_again,
            &mut buffers,
            &mut reused,
        );
        assert_eq!(reused, full);
        assert_eq!(c_again, c_full);
    }

    #[test]
    fn zero_budget_query_yields_only_the_root() {
        let g = path(3);
        // k = 1: backward budget is 0.
        let q = PathQuery::new(0u32, 1u32, 1);
        let index = index_for(&g, &q);
        let ctx = SearchContext::new(&g, &index, SearchOrder::VertexId);
        let mut counters = SearchCounters::default();
        let prefixes = ctx.enumerate_half(&q, Direction::Backward, &mut counters);
        assert_eq!(prefixes.len(), 1);
        assert_eq!(prefixes.get(0), &[v(1)]);
    }
}
