//! Bit-parallel multi-source BFS ("The more the merrier", Then et al., ref. \[36\] of the paper).
//!
//! Up to 64 BFS roots are advanced together: each vertex keeps a 64-bit `seen` mask and a
//! 64-bit `frontier` mask, one bit per root. A single pass over the adjacency of the
//! current frontier advances *all* roots whose bit is set, so the graph is scanned once per
//! BFS *level* for the whole root batch instead of once per root. Roots beyond 64 are
//! processed in consecutive batches.

use crate::distance_row::DistanceRow;
use hcsp_graph::{DiGraph, Direction, VertexId};

/// The per-root distance rows produced by one multi-source BFS run.
#[derive(Debug, Clone)]
pub struct MsBfsResult {
    /// `maps[i]` holds the bounded distances from `roots[i]`.
    pub maps: Vec<DistanceRow>,
    /// The roots, in the order the maps are stored.
    pub roots: Vec<VertexId>,
    /// Total number of (vertex, root) visitation events — the work metric reported by the
    /// index-construction stage of the experiments.
    pub visited_pairs: usize,
}

impl MsBfsResult {
    /// The distance row of a given root, if that root was part of the run.
    pub fn map_of(&self, root: VertexId) -> Option<&DistanceRow> {
        self.roots
            .iter()
            .position(|&r| r == root)
            .map(|i| &self.maps[i])
    }
}

/// Runs a bounded multi-source BFS from `roots` in the given direction.
///
/// Every root obtains its own bounded distance row: `dist(root, v)` for all `v` within
/// `max_hops` hops of `root` (hops counted along `dir`). Duplicate roots are allowed and
/// produce identical (shared BFS, separately stored) rows, because the batch query sets of
/// the paper may repeat a source or target vertex across queries.
pub fn multi_source_bfs(
    graph: &DiGraph,
    roots: &[VertexId],
    dir: Direction,
    max_hops: u32,
) -> MsBfsResult {
    let mut visited_pairs = 0usize;

    // Deduplicate roots for the traversal itself; duplicates share the computed row.
    let mut unique_roots: Vec<VertexId> = roots.to_vec();
    unique_roots.sort_unstable();
    unique_roots.dedup();

    let mut unique_rows: Vec<Option<DistanceRow>> = Vec::with_capacity(unique_roots.len());
    for chunk in unique_roots.chunks(64) {
        let rows = ms_bfs_chunk(graph, chunk, dir, max_hops, &mut visited_pairs);
        unique_rows.extend(rows.into_iter().map(Some));
    }

    // Each row moves out where its root occurs last; an earlier occurrence gets a copy.
    let slots: Vec<usize> = roots
        .iter()
        .map(|root| {
            unique_roots
                .binary_search(root)
                .expect("unique_roots holds every root")
        })
        .collect();
    let mut last_use = vec![0usize; unique_roots.len()];
    for (i, &slot) in slots.iter().enumerate() {
        last_use[slot] = i;
    }
    let maps = slots
        .iter()
        .enumerate()
        .map(|(i, &slot)| {
            let row = if last_use[slot] == i {
                unique_rows[slot].take()
            } else {
                unique_rows[slot].clone()
            };
            row.expect("a row is taken only at its root's last occurrence")
        })
        .collect();
    MsBfsResult {
        maps,
        roots: roots.to_vec(),
        visited_pairs,
    }
}

/// Advances one batch of at most 64 distinct roots.
///
/// The traversal keeps each level's frontier — `(vertex, roots that reached it at this
/// depth)`, sorted by vertex — instead of a pair list per root. Once it ends, every root's
/// entry count and largest id are known, so each row is laid out in its final form and
/// filled by one pass over the levels: a dense row takes byte stores in whatever order
/// they come, and only a sparse row is sorted.
fn ms_bfs_chunk(
    graph: &DiGraph,
    roots: &[VertexId],
    dir: Direction,
    max_hops: u32,
    visited_pairs: &mut usize,
) -> Vec<DistanceRow> {
    debug_assert!(roots.len() <= 64);
    let n = graph.num_vertices();
    let mut seen: Vec<u64> = vec![0; n];
    let mut frontier: Vec<(VertexId, u64)> = Vec::with_capacity(roots.len());
    for (bit, &root) in roots.iter().enumerate() {
        if root.index() < n {
            seen[root.index()] |= 1u64 << bit;
            frontier.push((root, 1u64 << bit));
        }
    }

    let mut levels: Vec<Vec<(VertexId, u64)>> = Vec::new();
    while !frontier.is_empty() {
        let mut next: Vec<(VertexId, u64)> = Vec::new();
        if (levels.len() as u32) < max_hops {
            next.reserve(frontier.len());
            for &(u, mask) in &frontier {
                for &w in graph.neighbors(u, dir) {
                    let fresh = mask & !seen[w.index()];
                    if fresh != 0 {
                        seen[w.index()] |= fresh;
                        next.push((w, fresh));
                    }
                }
            }
            coalesce(&mut next);
        }
        levels.push(std::mem::replace(&mut frontier, next));
    }

    // (entries, largest id + 1) per root.
    let mut extents = vec![(0usize, 0usize); roots.len()];
    for_each_visit(&levels, |bit, w, _| {
        let (entries, span) = &mut extents[bit];
        *entries += 1;
        *span = (*span).max(w.index() + 1);
    });
    *visited_pairs += extents.iter().map(|&(entries, _)| entries).sum::<usize>();
    let mut rows: Vec<DistanceRow> = extents
        .iter()
        .map(|&(entries, span)| DistanceRow::with_layout_for(entries, span, max_hops))
        .collect();
    for_each_visit(&levels, |bit, w, depth| rows[bit].record_new(w, depth));
    rows.iter_mut().for_each(DistanceRow::finish);
    rows
}

/// Calls `visit(root bit, vertex, depth)` for every `(root, vertex)` pair of `levels`,
/// where `levels[depth]` lists the vertices first reached at `depth` with the roots that
/// reached them.
fn for_each_visit(levels: &[Vec<(VertexId, u64)>], mut visit: impl FnMut(usize, VertexId, u32)) {
    for (depth, level) in levels.iter().enumerate() {
        for &(w, mask) in level {
            let mut bits = mask;
            while bits != 0 {
                visit(bits.trailing_zeros() as usize, w, depth as u32);
                bits &= bits - 1;
            }
        }
    }
}

/// Merges frontier entries sharing a vertex by OR-ing their masks, keeping the frontier
/// linear in the number of distinct frontier vertices.
fn coalesce(frontier: &mut Vec<(VertexId, u64)>) {
    if frontier.len() <= 1 {
        return;
    }
    frontier.sort_unstable_by_key(|&(v, _)| v);
    let mut write = 0usize;
    for read in 1..frontier.len() {
        if frontier[read].0 == frontier[write].0 {
            frontier[write].1 |= frontier[read].1;
        } else {
            write += 1;
            frontier[write] = frontier[read];
        }
    }
    frontier.truncate(write + 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcsp_graph::generators::regular::{complete, grid, path};
    use hcsp_graph::traversal::{bfs_distances_bounded, UNREACHED};

    fn v(x: u32) -> VertexId {
        VertexId(x)
    }

    /// Compares every MS-BFS map against an independent single-source BFS.
    fn assert_matches_single_source(graph: &DiGraph, roots: &[VertexId], dir: Direction, k: u32) {
        let result = multi_source_bfs(graph, roots, dir, k);
        assert_eq!(result.maps.len(), roots.len());
        for (i, &root) in roots.iter().enumerate() {
            let reference = bfs_distances_bounded(graph, root, dir, k);
            let map = &result.maps[i];
            for vertex in graph.vertices() {
                let expected = reference[vertex.index()];
                match map.get(vertex) {
                    Some(d) => assert_eq!(d, expected, "root {root} vertex {vertex}"),
                    None => assert_eq!(expected, UNREACHED, "root {root} vertex {vertex}"),
                }
            }
        }
    }

    #[test]
    fn matches_single_source_on_grid() {
        let g = grid(6, 6);
        let roots: Vec<_> = (0..8).map(v).collect();
        assert_matches_single_source(&g, &roots, Direction::Forward, 5);
        assert_matches_single_source(&g, &roots, Direction::Backward, 5);
    }

    #[test]
    fn matches_single_source_on_complete_graph() {
        let g = complete(20);
        let roots: Vec<_> = (0..20).map(v).collect();
        assert_matches_single_source(&g, &roots, Direction::Forward, 3);
    }

    #[test]
    fn more_than_64_roots_use_multiple_chunks() {
        let g = grid(10, 10);
        let roots: Vec<_> = (0..100).map(v).collect();
        assert_matches_single_source(&g, &roots, Direction::Forward, 4);
    }

    #[test]
    fn duplicate_roots_share_results() {
        let g = path(6);
        let roots = vec![v(0), v(0), v(2)];
        let r = multi_source_bfs(&g, &roots, Direction::Forward, 3);
        assert_eq!(r.maps[0], r.maps[1]);
        assert_eq!(r.map_of(v(2)).unwrap().get(v(4)), Some(2));
        assert_eq!(r.map_of(v(5)), None);
    }

    #[test]
    fn zero_hop_bound_only_contains_roots() {
        let g = complete(5);
        let r = multi_source_bfs(&g, &[v(1), v(3)], Direction::Forward, 0);
        for (i, root) in [v(1), v(3)].iter().enumerate() {
            assert_eq!(r.maps[i].len(), 1);
            assert_eq!(r.maps[i].get(*root), Some(0));
        }
    }

    #[test]
    fn visited_pairs_counts_work() {
        let g = path(5);
        let r = multi_source_bfs(&g, &[v(0)], Direction::Forward, 10);
        // Path 0->1->2->3->4: 5 visitation events for a single root.
        assert_eq!(r.visited_pairs, 5);
    }

    #[test]
    fn empty_roots_yield_empty_result() {
        let g = path(3);
        let r = multi_source_bfs(&g, &[], Direction::Forward, 3);
        assert!(r.maps.is_empty());
        assert_eq!(r.visited_pairs, 0);
    }
}
