//! The per-batch distance index used by every enumeration algorithm.
//!
//! For a batch of queries `Q`, let `S = ∪ q.s` and `T = ∪ q.t`. The index stores
//!
//! * `dist_G(s, v)` for every `s ∈ S` and every `v` within the hop bound (a forward
//!   multi-source BFS from `S` on `G`), and
//! * `dist_G(v, t)` for every `t ∈ T` and every `v` within the hop bound (a backward
//!   multi-source BFS from `T`, i.e. a forward BFS on `G^r`).
//!
//! These are exactly the quantities needed by Lemma 3.1's pruning rule, and their support
//! sets are the hop-constrained neighbourhoods Γ(q) / Γr(q) reused for query clustering
//! (Def. 4.4): the index is built once per batch and shared by every downstream stage.

use crate::distance_row::DistanceRow;
use crate::msbfs::multi_source_bfs;
use crate::INF;
use hcsp_graph::{DiGraph, Direction, VertexId};
use std::time::{Duration, Instant};

/// Outcome of one precise delete pass ([`DistanceIndex::note_deletions`] /
/// [`BatchIndex::note_deletions`]).
///
/// `marked + supported` is what the conservative rule (dirty-mark on every
/// `dist(r, to) == dist(r, from) + 1` hit) would have re-BFSed, so `supported` counts
/// re-BFS work the survivor scan avoided.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeleteOutcome {
    /// Roots newly marked dirty (an affected vertex lost its last equal-length parent).
    pub marked: usize,
    /// Roots hit by a deleted shortest-path edge but kept exact by a surviving
    /// equal-length alternative — their re-BFS was skipped.
    pub supported: usize,
}

impl DeleteOutcome {
    /// Component-wise sum, for combining the two sides of a [`BatchIndex`].
    fn merge(self, other: DeleteOutcome) -> DeleteOutcome {
        DeleteOutcome {
            marked: self.marked + other.marked,
            supported: self.supported + other.supported,
        }
    }
}

/// Distances from one batch of roots, keyed by root vertex.
///
/// The number of distinct roots equals the number of distinct query endpoints (at most a
/// few hundred in the paper's workloads), so a sorted association list with binary-search
/// lookup is both compact and dependency-free.
#[derive(Debug, Clone, Default)]
pub struct DistanceIndex {
    roots: Vec<VertexId>,
    maps: Vec<DistanceRow>,
    bound: u32,
    /// Roots whose maps may be stale after edge deletions, sorted ascending. Keyed by
    /// vertex id (not position) so the set survives the root reordering of `extend`.
    dirty: Vec<VertexId>,
}

impl DistanceIndex {
    /// Builds the index for `roots` by a bounded multi-source BFS in direction `dir`.
    ///
    /// With `dir == Forward` the entry for root `s` maps `v ↦ dist_G(s, v)`;
    /// with `dir == Backward` the entry for root `t` maps `v ↦ dist_G(v, t)`.
    pub fn build(graph: &DiGraph, roots: &[VertexId], dir: Direction, bound: u32) -> (Self, usize) {
        let mut unique: Vec<VertexId> = roots.to_vec();
        unique.sort_unstable();
        unique.dedup();
        let result = multi_source_bfs(graph, &unique, dir, bound);
        let index = DistanceIndex {
            roots: unique,
            maps: result.maps,
            bound,
            dirty: Vec::new(),
        };
        (index, result.visited_pairs)
    }

    /// Orients an inserted/deleted graph edge `(u, v)` into a traversal edge for this
    /// index's search direction: forward indices walk `u → v`, backward indices (distances
    /// *to* a target, i.e. BFS on `G^r`) walk `v → u`.
    #[inline]
    fn orient(edge: (VertexId, VertexId), dir: Direction) -> (VertexId, VertexId) {
        match dir {
            Direction::Forward => edge,
            Direction::Backward => (edge.1, edge.0),
        }
    }

    /// Incrementally refreshes the index after the directed edges `edges` were *inserted*
    /// into `graph` (which must already contain them). Returns the number of `(root,
    /// vertex)` entries that gained a (shorter) distance.
    ///
    /// Insertions can only shorten bounded distances, so a relaxation pass seeded at the
    /// new edges' heads is exact: for every root `r` with `dist(r, u)` recorded, an
    /// inserted traversal edge `u → v` offers `dist(r, u) + 1` to `v`, and any improvement
    /// propagates outwards by BFS. Roots currently marked dirty (pending deletions) are
    /// skipped — their maps are rebuilt wholesale by [`DistanceIndex::flush_dirty`].
    pub fn apply_insertions(
        &mut self,
        graph: &DiGraph,
        edges: &[(VertexId, VertexId)],
        dir: Direction,
    ) -> usize {
        if edges.is_empty() {
            return 0;
        }
        let mut improved = 0usize;
        let mut queue: std::collections::VecDeque<(VertexId, u32)> =
            std::collections::VecDeque::new();
        for (i, &root) in self.roots.iter().enumerate() {
            if self.dirty.binary_search(&root).is_ok() {
                continue;
            }
            let map = &mut self.maps[i];
            queue.clear();
            for &edge in edges {
                let (from, to) = Self::orient(edge, dir);
                if let Some(df) = map.get(from) {
                    let cand = df.saturating_add(1);
                    if cand <= self.bound && map.insert_min(to, cand) {
                        improved += 1;
                        queue.push_back((to, cand));
                    }
                }
            }
            while let Some((x, dx)) = queue.pop_front() {
                // Stale queue entries (improved again since enqueued) must not expand.
                if map.get(x) != Some(dx) || dx == self.bound {
                    continue;
                }
                let cand = dx + 1;
                for &w in graph.neighbors(x, dir) {
                    if map.insert_min(w, cand) {
                        improved += 1;
                        queue.push_back((w, cand));
                    }
                }
            }
        }
        improved
    }

    /// Precisely marks roots whose maps are stale after the directed edges `edges` were
    /// *deleted* from `graph` (which must already reflect the deletions).
    ///
    /// A deletion can only invalidate `dist(r, ·)` if some shortest path from `r` used the
    /// deleted edge, which requires `dist(r, to) == dist(r, from) + 1` for the oriented
    /// traversal edge `from → to`. Even then the map often survives: if `to` keeps another
    /// in-parent `u` (in the post-delete graph) with `dist(r, u) == dist(r, to) - 1`, an
    /// equal-length alternative path exists and *every* bounded distance is preserved —
    /// by induction on distance levels, each vertex at level `d` keeps a surviving parent
    /// at level `d - 1`, so no re-BFS is needed. Only when a hit vertex loses its last
    /// equal-length parent is the root marked dirty.
    ///
    /// Marked roots keep stale (under-estimating) entries until
    /// [`DistanceIndex::flush_dirty`] re-BFSes them; callers must flush before relying on
    /// the index for pruning correctness — [`DistanceIndex::map_of`] enforces this with a
    /// debug assertion.
    pub fn note_deletions(
        &mut self,
        graph: &DiGraph,
        edges: &[(VertexId, VertexId)],
        dir: Direction,
    ) -> DeleteOutcome {
        let mut outcome = DeleteOutcome::default();
        if edges.is_empty() {
            return outcome;
        }
        'roots: for (i, &root) in self.roots.iter().enumerate() {
            if self.dirty.binary_search(&root).is_ok() {
                continue;
            }
            let map = &self.maps[i];
            let mut hit = false;
            for &edge in edges {
                let (from, to) = Self::orient(edge, dir);
                let on_shortest = map
                    .get(from)
                    .is_some_and(|df| map.distance_or_inf(to) == df.saturating_add(1));
                if !on_shortest {
                    continue;
                }
                hit = true;
                // Survivor scan: an equal-length parent of `to` left in the post-delete
                // graph proves dist(r, to) — and hence the whole map — is unchanged.
                let dt = map.distance_or_inf(to);
                let survives = graph
                    .neighbors(to, dir.reverse())
                    .iter()
                    .any(|&u| map.get(u) == Some(dt - 1));
                if !survives {
                    let pos = self.dirty.binary_search(&root).unwrap_err();
                    self.dirty.insert(pos, root);
                    outcome.marked += 1;
                    continue 'roots;
                }
            }
            if hit {
                outcome.supported += 1;
            }
        }
        outcome
    }

    /// Re-BFSes every dirty root against the current `graph`, replacing their maps.
    /// Returns `(refreshed roots, visited pairs of the re-BFS)`.
    pub fn flush_dirty(&mut self, graph: &DiGraph, dir: Direction) -> (usize, usize) {
        if self.dirty.is_empty() {
            return (0, 0);
        }
        let dirty = std::mem::take(&mut self.dirty);
        let result = multi_source_bfs(graph, &dirty, dir, self.bound);
        for (root, map) in result.roots.into_iter().zip(result.maps) {
            let i = self
                .roots
                .binary_search(&root)
                .expect("dirty roots are indexed roots");
            self.maps[i] = map;
        }
        (dirty.len(), result.visited_pairs)
    }

    /// Number of roots currently marked dirty (awaiting a lazy re-BFS).
    pub fn num_dirty(&self) -> usize {
        self.dirty.len()
    }

    /// The roots currently marked dirty, sorted ascending.
    pub fn dirty_roots(&self) -> &[VertexId] {
        &self.dirty
    }

    /// Extends the index with any of `roots` that are not indexed yet, running one more
    /// bounded multi-source BFS *only* for the missing roots (at the existing bound).
    ///
    /// This is the incremental path of the long-lived serving mode: across micro-batches
    /// most query endpoints repeat, so only the genuinely new roots cost BFS work. Returns
    /// `(newly added roots, visited pairs of the incremental BFS)` — both zero when every
    /// root is already covered.
    pub fn extend(
        &mut self,
        graph: &DiGraph,
        roots: &[VertexId],
        dir: Direction,
    ) -> (usize, usize) {
        let mut missing: Vec<VertexId> = roots
            .iter()
            .copied()
            .filter(|r| self.roots.binary_search(r).is_err())
            .collect();
        missing.sort_unstable();
        missing.dedup();
        if missing.is_empty() {
            return (0, 0);
        }
        let result = multi_source_bfs(graph, &missing, dir, self.bound);
        // Re-establish the sorted-roots invariant the binary-search lookups rely on.
        let added = result.roots.len();
        let old_roots = std::mem::take(&mut self.roots);
        let old_maps = std::mem::take(&mut self.maps);
        let mut merged: Vec<(VertexId, DistanceRow)> = old_roots
            .into_iter()
            .zip(old_maps)
            .chain(result.roots.into_iter().zip(result.maps))
            .collect();
        merged.sort_by_key(|&(r, _)| r);
        (self.roots, self.maps) = merged.into_iter().unzip();
        (added, result.visited_pairs)
    }

    /// Whether every root in `roots` is indexed.
    pub fn covers_roots(&self, roots: &[VertexId]) -> bool {
        roots.iter().all(|r| self.roots.binary_search(r).is_ok())
    }

    /// The indexed roots, sorted ascending.
    pub fn roots(&self) -> &[VertexId] {
        &self.roots
    }

    /// The hop bound the index was built with.
    pub fn bound(&self) -> u32 {
        self.bound
    }

    /// Number of roots in the index.
    pub fn num_roots(&self) -> usize {
        self.roots.len()
    }

    /// The distance row of `root`, if `root` is indexed.
    ///
    /// # Panics (debug builds)
    ///
    /// Panics if `root` is currently marked dirty: between `note_deletions` and
    /// `flush_dirty` the map under-estimates distances, which silently breaks the
    /// Lemma 3.1 pruning bound. Every read path (`distance`, `neighborhood`, and the
    /// engine's O(1) `Exists` probe) funnels through here, so the unsafe window is
    /// enforced rather than merely documented.
    pub fn map_of(&self, root: VertexId) -> Option<&DistanceRow> {
        debug_assert!(
            self.dirty.binary_search(&root).is_err(),
            "DistanceIndex read for root {root} inside the note_deletions -> flush_dirty \
             window: stale distances under-estimate and break Lemma 3.1 pruning"
        );
        self.roots.binary_search(&root).ok().map(|i| &self.maps[i])
    }

    /// Bounded distance between `root` and `v` (`INF` when out of range or not indexed).
    #[inline]
    pub fn distance(&self, root: VertexId, v: VertexId) -> u32 {
        self.map_of(root).map_or(INF, |m| m.distance_or_inf(v))
    }

    /// The vertices within `k` hops of `root`, i.e. Γ(root, k); empty if not indexed.
    ///
    /// `k` is clamped to the index bound, mirroring the paper's reuse of index entries for
    /// the clustering neighbourhoods.
    pub fn neighborhood(&self, root: VertexId, k: u32) -> Vec<VertexId> {
        match self.map_of(root) {
            None => Vec::new(),
            Some(map) => map
                .iter()
                .filter(|&(_, d)| d <= k)
                .map(|(v, _)| v)
                .collect(),
        }
    }

    /// Total number of `(root, vertex)` entries stored.
    pub fn total_entries(&self) -> usize {
        self.maps.iter().map(DistanceRow::len).sum()
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.roots.len() * std::mem::size_of::<VertexId>()
            + self.maps.iter().map(DistanceRow::heap_bytes).sum::<usize>()
    }
}

/// Timing and size statistics of an index build, feeding the `BuildIndex` bar of the
/// time-decomposition experiment (Fig. 9).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IndexStats {
    /// Wall-clock time of the two multi-source BFS runs.
    pub build_time: Duration,
    /// Total `(root, vertex)` visitation events during both BFS runs.
    pub visited_pairs: usize,
    /// Number of stored `(root, vertex)` distance entries.
    pub stored_entries: usize,
}

/// A distance view pre-resolved to one anchor's [`DistanceRow`]; see
/// [`BatchIndex::anchor_view`].
///
/// `None` means the anchor is not indexed (every distance is `INF`), which happens only
/// for queries whose endpoints were absent from the batch the index was built for.
#[derive(Debug, Clone, Copy)]
pub struct AnchorDistances<'a> {
    map: Option<&'a DistanceRow>,
}

impl AnchorDistances<'_> {
    /// Bounded distance between `v` and the pre-resolved anchor (`INF` when out of range
    /// or the anchor is not indexed).
    #[inline]
    pub fn dist(&self, v: VertexId) -> u32 {
        self.map.map_or(INF, |m| m.distance_or_inf(v))
    }
}

/// The complete two-sided index for a batch: source side (`dist_G(s, ·)`) and target side
/// (`dist_G(·, t)`).
#[derive(Debug, Clone, Default)]
pub struct BatchIndex {
    sources: DistanceIndex,
    targets: DistanceIndex,
    stats: IndexStats,
}

impl BatchIndex {
    /// Builds both index sides with bound `k_max` (the largest hop constraint in the batch).
    pub fn build(graph: &DiGraph, sources: &[VertexId], targets: &[VertexId], k_max: u32) -> Self {
        let start = Instant::now();
        let (source_index, visited_s) =
            DistanceIndex::build(graph, sources, Direction::Forward, k_max);
        let (target_index, visited_t) =
            DistanceIndex::build(graph, targets, Direction::Backward, k_max);
        let stats = IndexStats {
            build_time: start.elapsed(),
            visited_pairs: visited_s + visited_t,
            stored_entries: source_index.total_entries() + target_index.total_entries(),
        };
        BatchIndex {
            sources: source_index,
            targets: target_index,
            stats,
        }
    }

    /// `dist_G(s, v)` (or `INF`), i.e. the hop distance used to prune the *backward* search.
    #[inline]
    pub fn dist_from_source(&self, s: VertexId, v: VertexId) -> u32 {
        self.sources.distance(s, v)
    }

    /// `dist_G(v, t)` (or `INF`), i.e. the hop distance used to prune the *forward* search.
    #[inline]
    pub fn dist_to_target(&self, v: VertexId, t: VertexId) -> u32 {
        self.targets.distance(t, v)
    }

    /// Pre-resolves the distance map towards the query "anchor" of one search direction:
    /// a forward search towards target `anchor` reads `dist_G(v, anchor)`, a backward
    /// search towards source `anchor` reads `dist_G(anchor, v)`.
    ///
    /// A half search queries the *same* anchor for every scanned edge; resolving the
    /// anchor's row once per traversal replaces the per-edge root binary search with a
    /// direct row probe (one byte load when the row is dense). The view borrows the index,
    /// so it naturally cannot outlive an index mutation.
    #[inline]
    pub fn anchor_view(&self, dir: Direction, anchor: VertexId) -> AnchorDistances<'_> {
        let map = match dir {
            Direction::Forward => self.targets.map_of(anchor),
            Direction::Backward => self.sources.map_of(anchor),
        };
        AnchorDistances { map }
    }

    /// Γ(q): vertices reachable from `s` within `k` hops on `G`.
    pub fn gamma_forward(&self, s: VertexId, k: u32) -> Vec<VertexId> {
        self.sources.neighborhood(s, k)
    }

    /// Γr(q): vertices reachable from `t` within `k` hops on `G^r`.
    pub fn gamma_backward(&self, t: VertexId, k: u32) -> Vec<VertexId> {
        self.targets.neighborhood(t, k)
    }

    /// The hop bound both sides were built with.
    pub fn bound(&self) -> u32 {
        self.sources.bound()
    }

    /// Whether the index can serve a batch with the given endpoint sets and largest hop
    /// constraint without any additional BFS work.
    ///
    /// An index covering a *superset* of the batch's roots at a *larger* bound stays
    /// correct: extra roots are never consulted, and pruning only compares distances
    /// against per-query budgets, so additional far entries are filtered downstream.
    pub fn covers(&self, sources: &[VertexId], targets: &[VertexId], k_max: u32) -> bool {
        k_max <= self.bound()
            && self.sources.covers_roots(sources)
            && self.targets.covers_roots(targets)
    }

    /// Incrementally extends both sides with any missing roots at the current bound,
    /// returning the number of newly indexed roots.
    ///
    /// Callers must handle bound growth separately (rebuild): entries of the existing maps
    /// were truncated at the old bound and cannot be deepened in place. The serving-mode
    /// engine does exactly that — extend while `k_max <= bound()`, rebuild otherwise.
    pub fn extend(&mut self, graph: &DiGraph, sources: &[VertexId], targets: &[VertexId]) -> usize {
        let start = Instant::now();
        let (added_s, visited_s) = self.sources.extend(graph, sources, Direction::Forward);
        let (added_t, visited_t) = self.targets.extend(graph, targets, Direction::Backward);
        self.stats.build_time += start.elapsed();
        self.stats.visited_pairs += visited_s + visited_t;
        self.stats.stored_entries = self.sources.total_entries() + self.targets.total_entries();
        added_s + added_t
    }

    /// Incrementally refreshes both sides after `edges` were inserted into `graph` (which
    /// must already contain them). Returns the number of improved/added distance entries.
    ///
    /// Exact on its own: insertions only shorten distances, and the relaxation pass
    /// computes the new fixpoint (see [`DistanceIndex::apply_insertions`]).
    pub fn apply_insertions(&mut self, graph: &DiGraph, edges: &[(VertexId, VertexId)]) -> usize {
        let start = Instant::now();
        let improved = self
            .sources
            .apply_insertions(graph, edges, Direction::Forward)
            + self
                .targets
                .apply_insertions(graph, edges, Direction::Backward);
        self.stats.build_time += start.elapsed();
        self.stats.stored_entries = self.sources.total_entries() + self.targets.total_entries();
        improved
    }

    /// Precisely marks roots invalidated by the deletion of `edges` from `graph` (which
    /// must already reflect the deletions), deferring the re-BFS to
    /// [`BatchIndex::flush_dirty`]. Roots whose affected vertices keep an equal-length
    /// alternative parent are proven exact and skipped (see
    /// [`DistanceIndex::note_deletions`]).
    ///
    /// The index is **not safe to query** between `note_deletions` and `flush_dirty`:
    /// stale entries under-estimate distances, which breaks the Lemma 3.1 pruning bound.
    /// The serving engine flushes lazily — right before the next batch runs — and
    /// [`DistanceIndex::map_of`] debug-asserts the window is respected.
    pub fn note_deletions(
        &mut self,
        graph: &DiGraph,
        edges: &[(VertexId, VertexId)],
    ) -> DeleteOutcome {
        self.sources
            .note_deletions(graph, edges, Direction::Forward)
            .merge(
                self.targets
                    .note_deletions(graph, edges, Direction::Backward),
            )
    }

    /// Re-BFSes every dirty root of both sides against the current `graph`. Returns the
    /// number of roots refreshed.
    pub fn flush_dirty(&mut self, graph: &DiGraph) -> usize {
        if self.num_dirty() == 0 {
            return 0;
        }
        let start = Instant::now();
        let (roots_s, visited_s) = self.sources.flush_dirty(graph, Direction::Forward);
        let (roots_t, visited_t) = self.targets.flush_dirty(graph, Direction::Backward);
        self.stats.build_time += start.elapsed();
        self.stats.visited_pairs += visited_s + visited_t;
        self.stats.stored_entries = self.sources.total_entries() + self.targets.total_entries();
        roots_s + roots_t
    }

    /// Number of roots (both sides) awaiting a lazy re-BFS.
    pub fn num_dirty(&self) -> usize {
        self.sources.num_dirty() + self.targets.num_dirty()
    }

    /// The source-side distance index.
    pub fn source_index(&self) -> &DistanceIndex {
        &self.sources
    }

    /// The target-side distance index.
    pub fn target_index(&self) -> &DistanceIndex {
        &self.targets
    }

    /// Build statistics (time, traversal work, stored entries).
    pub fn stats(&self) -> &IndexStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcsp_graph::generators::regular::{grid, layered_dag, path};
    use hcsp_graph::traversal::{bfs_distances, UNREACHED};

    fn v(x: u32) -> VertexId {
        VertexId(x)
    }

    #[test]
    fn batch_index_matches_reference_bfs() {
        let g = grid(5, 5);
        let sources = vec![v(0), v(6)];
        let targets = vec![v(24), v(12)];
        let index = BatchIndex::build(&g, &sources, &targets, 6);

        for &s in &sources {
            let reference = bfs_distances(&g, s, Direction::Forward);
            for vertex in g.vertices() {
                let expected = if reference[vertex.index()] <= 6 {
                    reference[vertex.index()]
                } else {
                    UNREACHED
                };
                assert_eq!(index.dist_from_source(s, vertex), expected);
            }
        }
        for &t in &targets {
            let reference = bfs_distances(&g, t, Direction::Backward);
            for vertex in g.vertices() {
                let expected = if reference[vertex.index()] <= 6 {
                    reference[vertex.index()]
                } else {
                    UNREACHED
                };
                assert_eq!(index.dist_to_target(vertex, t), expected);
            }
        }
    }

    #[test]
    fn anchor_view_selects_the_right_side() {
        let g = grid(4, 4);
        let index = BatchIndex::build(&g, &[v(0)], &[v(15)], 6);
        for (dir, anchor) in [(Direction::Forward, v(15)), (Direction::Backward, v(0))] {
            let view = index.anchor_view(dir, anchor);
            for vertex in g.vertices() {
                let expected = match dir {
                    Direction::Forward => index.dist_to_target(vertex, anchor),
                    Direction::Backward => index.dist_from_source(anchor, vertex),
                };
                assert_eq!(view.dist(vertex), expected);
            }
        }
        // An unindexed anchor resolves to the always-INF view.
        let empty = index.anchor_view(Direction::Forward, v(3));
        assert_eq!(empty.dist(v(0)), INF);
    }

    #[test]
    fn unindexed_roots_report_infinity() {
        let g = path(4);
        let index = BatchIndex::build(&g, &[v(0)], &[v(3)], 5);
        assert_eq!(index.dist_from_source(v(2), v(3)), INF);
        assert_eq!(index.dist_to_target(v(0), v(1)), INF);
        assert!(index.source_index().map_of(v(2)).is_none());
    }

    #[test]
    fn bound_truncates_far_vertices() {
        let g = path(10);
        let index = BatchIndex::build(&g, &[v(0)], &[v(9)], 3);
        assert_eq!(index.dist_from_source(v(0), v(3)), 3);
        assert_eq!(index.dist_from_source(v(0), v(4)), INF);
        assert_eq!(index.dist_to_target(v(6), v(9)), 3);
        assert_eq!(index.dist_to_target(v(5), v(9)), INF);
    }

    #[test]
    fn gamma_respects_per_query_k() {
        let g = grid(4, 4);
        let index = BatchIndex::build(&g, &[v(0)], &[v(15)], 6);
        let gamma2 = index.gamma_forward(v(0), 2);
        let gamma6 = index.gamma_forward(v(0), 6);
        assert!(gamma2.len() < gamma6.len());
        assert!(gamma2.contains(&v(0)));
        assert!(gamma2.contains(&v(5)));
        assert!(!gamma2.contains(&v(15)));
        let gamma_back = index.gamma_backward(v(15), 2);
        assert!(gamma_back.contains(&v(10)));
        assert!(!gamma_back.contains(&v(0)));
    }

    #[test]
    fn stats_are_populated() {
        let g = layered_dag(3, 4);
        let index = BatchIndex::build(&g, &[v(0)], &[VertexId::new(g.num_vertices() - 1)], 4);
        assert!(index.stats().stored_entries > 0);
        assert!(index.stats().visited_pairs >= index.stats().stored_entries);
        assert!(index.source_index().heap_bytes() > 0);
        assert_eq!(index.source_index().bound(), 4);
        assert_eq!(index.source_index().num_roots(), 1);
    }

    #[test]
    fn extend_adds_only_missing_roots() {
        let g = grid(5, 5);
        let mut index = BatchIndex::build(&g, &[v(0)], &[v(24)], 6);
        assert!(index.covers(&[v(0)], &[v(24)], 6));
        assert!(!index.covers(&[v(0), v(6)], &[v(24)], 6));
        assert!(!index.covers(&[v(0)], &[v(24)], 7));

        // Extending with an already-covered root is free.
        assert_eq!(index.extend(&g, &[v(0)], &[v(24)]), 0);

        // Extending with new roots matches a from-scratch build exactly.
        let added = index.extend(&g, &[v(0), v(6)], &[v(24), v(12)]);
        assert_eq!(added, 2);
        assert!(index.covers(&[v(0), v(6)], &[v(24), v(12)], 6));
        let fresh = BatchIndex::build(&g, &[v(0), v(6)], &[v(24), v(12)], 6);
        for vertex in g.vertices() {
            for &s in &[v(0), v(6)] {
                assert_eq!(
                    index.dist_from_source(s, vertex),
                    fresh.dist_from_source(s, vertex)
                );
            }
            for &t in &[v(24), v(12)] {
                assert_eq!(
                    index.dist_to_target(vertex, t),
                    fresh.dist_to_target(vertex, t)
                );
            }
        }
        assert_eq!(index.stats().stored_entries, fresh.stats().stored_entries);
        assert_eq!(index.source_index().roots(), &[v(0), v(6)]);
    }

    #[test]
    fn extend_keeps_roots_sorted_for_lookup() {
        let g = path(8);
        let mut index = BatchIndex::build(&g, &[v(5)], &[v(7)], 7);
        index.extend(&g, &[v(1), v(3)], &[v(7)]);
        index.extend(&g, &[v(0)], &[v(6)]);
        assert_eq!(
            index.source_index().roots(),
            &[v(0), v(1), v(3), v(5)],
            "roots must stay sorted across extensions"
        );
        assert_eq!(index.dist_from_source(v(0), v(7)), 7);
        assert_eq!(index.dist_from_source(v(3), v(6)), 3);
        assert_eq!(index.dist_to_target(v(2), v(6)), 4);
    }

    /// Asserts both sides of `index` agree with a fresh build over the same roots/bound.
    fn assert_matches_fresh(graph: &hcsp_graph::DiGraph, index: &BatchIndex) {
        let fresh = BatchIndex::build(
            graph,
            index.source_index().roots(),
            index.target_index().roots(),
            index.bound(),
        );
        for vertex in graph.vertices() {
            for &s in index.source_index().roots() {
                assert_eq!(
                    index.dist_from_source(s, vertex),
                    fresh.dist_from_source(s, vertex),
                    "source {s} vertex {vertex}"
                );
            }
            for &t in index.target_index().roots() {
                assert_eq!(
                    index.dist_to_target(vertex, t),
                    fresh.dist_to_target(vertex, t),
                    "target {t} vertex {vertex}"
                );
            }
        }
        assert_eq!(index.stats().stored_entries, fresh.stats().stored_entries);
    }

    #[test]
    fn insertions_refresh_incrementally_to_the_fresh_fixpoint() {
        use hcsp_graph::DeltaGraph;
        // A long path: inserting shortcuts shortens many distances at once.
        let g0 = path(12);
        let mut index = BatchIndex::build(&g0, &[v(0), v(2)], &[v(11)], 9);

        let inserted = vec![(v(0), v(5)), (v(5), v(11)), (v(3), v(9))];
        let mut delta = DeltaGraph::new(g0);
        for &(u, w) in &inserted {
            assert!(delta.insert_edge(u, w));
        }
        let g1 = delta.compact();

        let improved = index.apply_insertions(&g1, &inserted);
        assert!(improved > 0, "shortcuts must improve some entries");
        assert_eq!(index.num_dirty(), 0, "insertions never mark roots dirty");
        assert_eq!(index.dist_from_source(v(0), v(11)), 2);
        assert_matches_fresh(&g1, &index);

        // Re-applying the same insertions is a fixpoint: nothing improves further.
        assert_eq!(index.apply_insertions(&g1, &inserted), 0);
    }

    #[test]
    fn insertions_reach_vertices_beyond_the_old_graph() {
        use hcsp_graph::DeltaGraph;
        let g0 = path(4);
        let mut index = BatchIndex::build(&g0, &[v(0)], &[v(3)], 6);
        // Grow the graph: 3 -> 4 -> 5 plus a back edge 5 -> 0.
        let inserted = vec![(v(3), v(4)), (v(4), v(5)), (v(5), v(0))];
        let mut delta = DeltaGraph::new(g0);
        for &(u, w) in &inserted {
            assert!(delta.insert_edge(u, w));
        }
        let g1 = delta.compact();
        assert_eq!(g1.num_vertices(), 6);
        index.apply_insertions(&g1, &inserted);
        assert_eq!(index.dist_from_source(v(0), v(5)), 5);
        // The back edge now gives every vertex a route *to* the old target side too.
        assert_matches_fresh(&g1, &index);
    }

    #[test]
    fn deletions_mark_dirty_lazily_and_flush_rebuilds() {
        use hcsp_graph::DeltaGraph;
        let g1 = grid(5, 5);
        let mut index = BatchIndex::build(&g1, &[v(0), v(6)], &[v(24)], 8);

        // Delete two edges on shortest routes from the indexed roots.
        let deleted = vec![(v(0), v(1)), (v(11), v(12))];
        let mut delta = DeltaGraph::new(g1);
        for &(u, w) in &deleted {
            assert!(delta.delete_edge(u, w));
        }
        let g2 = delta.compact();

        let outcome = index.note_deletions(&g2, &deleted);
        assert!(
            outcome.marked > 0,
            "losing the last equal-length parent must mark roots"
        );
        assert!(
            outcome.supported > 0,
            "roots with a surviving equal-length alternative skip the re-BFS"
        );
        assert_eq!(index.num_dirty(), outcome.marked, "flush is deferred");

        let refreshed = index.flush_dirty(&g2);
        assert_eq!(refreshed, outcome.marked);
        assert_eq!(index.num_dirty(), 0);
        assert_matches_fresh(&g2, &index);

        // A second flush is free.
        assert_eq!(index.flush_dirty(&g2), 0);
    }

    #[test]
    fn unrelated_deletions_do_not_mark_roots() {
        let g = grid(4, 4);
        let mut index = BatchIndex::build(&g, &[v(0)], &[v(15)], 3);
        // Edge (14, 15) sits outside the bounded neighbourhood of source 0 at bound 3,
        // and 14 -> 15 is a last hop whose reverse orientation (15 -> 14) is exactly one
        // hop from target 15 — so only the target side can be affected; edge (1, 0) has
        // dist(0, 1) = 1 but dist(0, 0) = 0 != 2, so the source side is unaffected.
        assert_eq!(
            index.note_deletions(&g, &[(v(1), v(0))]),
            DeleteOutcome::default()
        );
        assert_eq!(index.num_dirty(), 0);
    }

    #[test]
    fn mixed_update_sequence_converges_to_fresh_build() {
        use hcsp_graph::{DeltaGraph, GraphUpdate};
        let g0 = grid(4, 4);
        let mut delta = DeltaGraph::new(g0.clone());
        let mut index = BatchIndex::build(&g0, &[v(0), v(5)], &[v(15), v(10)], 7);

        let steps: Vec<Vec<GraphUpdate>> = vec![
            vec![GraphUpdate::insert(0u32, 15u32)],
            vec![
                GraphUpdate::delete(0u32, 1u32),
                GraphUpdate::insert(3u32, 0u32),
            ],
            vec![
                GraphUpdate::delete(0u32, 15u32),
                GraphUpdate::insert(12u32, 3u32),
                GraphUpdate::delete(5u32, 6u32),
            ],
        ];
        for step in &steps {
            let inserted: Vec<_> = step
                .iter()
                .filter(|u| u.is_insert())
                .map(|u| u.edge())
                .collect();
            let deleted: Vec<_> = step
                .iter()
                .filter(|u| !u.is_insert())
                .map(|u| u.edge())
                .collect();
            for update in step {
                assert!(delta.apply(update));
            }
            let graph = delta.compact();
            index.note_deletions(&graph, &deleted);
            index.apply_insertions(&graph, &inserted);
            index.flush_dirty(&graph);
            assert_matches_fresh(&graph, &index);
        }
    }

    #[test]
    fn extend_preserves_dirty_marks_across_root_merges() {
        let g = path(8);
        let mut index = BatchIndex::build(&g, &[v(4)], &[v(7)], 7);
        let g2 = hcsp_graph::DiGraph::from_edge_list(
            8,
            &[(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7)],
        )
        .unwrap();
        // Deleting 4 -> 5 severs the path with no alternative: both sides go dirty.
        assert_eq!(index.note_deletions(&g2, &[(v(4), v(5))]).marked, 2);
        assert!(index.source_index().num_dirty() > 0);
        // Extending with new roots re-sorts the root/map arrays; the dirty set must
        // follow the root *ids*, not their positions.
        index.extend(&g2, &[v(0), v(2)], &[v(7)]);
        let refreshed = index.flush_dirty(&g2);
        assert_eq!(refreshed, 2);
        assert_matches_fresh(&g2, &index);
    }

    /// A diamond with a tail: `0 -> {1, 2} -> 3 -> 4`. Vertex 3 has two equal-length
    /// parents from source 0, so deleting one of `(1, 3)` / `(2, 3)` leaves the source
    /// side exact while the target side (which loses its only route through the deleted
    /// edge's tail) goes dirty.
    fn diamond() -> hcsp_graph::DiGraph {
        hcsp_graph::DiGraph::from_edge_list(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]).unwrap()
    }

    #[test]
    fn surviving_equal_length_parent_skips_the_rebfs() {
        use hcsp_graph::DeltaGraph;
        let g = diamond();
        let mut index = BatchIndex::build(&g, &[v(0)], &[v(4)], 4);
        let mut delta = DeltaGraph::new(g);
        assert!(delta.delete_edge(v(1), v(3)));
        let g2 = delta.compact();

        let outcome = index.note_deletions(&g2, &[(v(1), v(3))]);
        // Source root 0: dist(0, 3) = 2 is hit, but parent 2 survives at distance 1.
        // Target root 4: dist(1, 4) = 2 is hit and vertex 1 loses its only out-edge.
        assert_eq!(
            outcome,
            DeleteOutcome {
                marked: 1,
                supported: 1
            }
        );
        assert_eq!(index.source_index().num_dirty(), 0);
        assert_eq!(index.target_index().dirty_roots(), &[v(4)]);

        // The clean side stays readable inside the window; flushing restores the rest.
        assert_eq!(index.dist_from_source(v(0), v(3)), 2);
        assert_eq!(index.flush_dirty(&g2), 1);
        assert_matches_fresh(&g2, &index);
    }

    #[test]
    fn losing_the_last_equal_length_parent_marks_both_sides() {
        use hcsp_graph::DeltaGraph;
        let g = diamond();
        let mut index = BatchIndex::build(&g, &[v(0)], &[v(4)], 4);
        let mut delta = DeltaGraph::new(g);
        assert!(delta.delete_edge(v(3), v(4)));
        let g2 = delta.compact();

        // Edge (3, 4) is the only route onto 4 in either direction: no survivors.
        let outcome = index.note_deletions(&g2, &[(v(3), v(4))]);
        assert_eq!(
            outcome,
            DeleteOutcome {
                marked: 2,
                supported: 0
            }
        );
        assert_eq!(index.flush_dirty(&g2), 2);
        assert_matches_fresh(&g2, &index);
    }

    /// Cross-validation against scratch BFS: for *every* single-edge deletion in a grid,
    /// a root is marked dirty **iff** its map actually changed — the survivor scan skips
    /// the re-BFS exactly when an equal-length alternative keeps every distance intact.
    #[test]
    fn delete_precision_is_exact_against_scratch_bfs() {
        use hcsp_graph::DeltaGraph;
        let g = grid(4, 4);
        let sources = vec![v(0), v(5)];
        let targets = vec![v(15), v(10)];
        let bound = 6;
        let clean = BatchIndex::build(&g, &sources, &targets, bound);

        for edge in g.edges() {
            let mut index = clean.clone();
            let mut delta = DeltaGraph::new(g.clone());
            assert!(delta.delete_edge(edge.0, edge.1));
            let g2 = delta.compact();
            index.note_deletions(&g2, &[edge]);

            let sides = [
                (index.source_index(), &sources, Direction::Forward),
                (index.target_index(), &targets, Direction::Backward),
            ];
            for (side, roots, dir) in sides {
                for &root in roots.iter() {
                    let reference = bfs_distances(&g2, root, dir);
                    let changed = g2.vertices().any(|vertex| {
                        let expected = if reference[vertex.index()] <= bound {
                            reference[vertex.index()]
                        } else {
                            UNREACHED
                        };
                        let old = match dir {
                            Direction::Forward => clean.dist_from_source(root, vertex),
                            Direction::Backward => clean.dist_to_target(vertex, root),
                        };
                        old != expected
                    });
                    assert_eq!(
                        side.dirty_roots().contains(&root),
                        changed,
                        "deleting {edge:?}: root {root} ({dir:?}) marked iff its map changed"
                    );
                }
            }
        }
    }

    #[test]
    fn reading_a_dirty_root_is_a_debug_panic() {
        use hcsp_graph::DeltaGraph;
        let g = path(4);
        let mut index = BatchIndex::build(&g, &[v(0)], &[v(3)], 5);
        let mut delta = DeltaGraph::new(g);
        assert!(delta.delete_edge(v(1), v(2)));
        let g2 = delta.compact();
        assert!(index.note_deletions(&g2, &[(v(1), v(2))]).marked > 0);

        if cfg!(debug_assertions) {
            let probe = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                index.dist_from_source(v(0), v(3))
            }));
            assert!(
                probe.is_err(),
                "reading inside the note_deletions -> flush_dirty window must panic"
            );
        }
        index.flush_dirty(&g2);
        assert_eq!(index.dist_from_source(v(0), v(3)), INF);
    }

    #[test]
    fn duplicate_roots_are_deduplicated() {
        let g = path(5);
        let (index, _) = DistanceIndex::build(&g, &[v(0), v(0), v(1)], Direction::Forward, 4);
        assert_eq!(index.num_roots(), 2);
        assert_eq!(index.distance(v(0), v(4)), 4);
        assert_eq!(index.neighborhood(v(7), 2), Vec::<VertexId>::new());
    }
}
