//! Compressed sparse row (CSR) adjacency storage.
//!
//! A [`CsrAdjacency`] stores, for every vertex `v`, a contiguous slice of neighbour ids.
//! [`crate::DiGraph`] holds two of them: one for out-neighbours (the forward graph `G`) and
//! one for in-neighbours (the reverse graph `G^r`), so both search directions used by the
//! bidirectional enumeration of the paper are O(1)-addressable without copying the graph.

use crate::vertex::VertexId;

/// Immutable CSR adjacency: `offsets[v]..offsets[v+1]` indexes into `targets`.
///
/// Neighbour lists are sorted in increasing vertex id and deduplicated; this makes
/// membership tests `O(log d)` and gives deterministic iteration order, which in turn makes
/// every algorithm in the workspace deterministic for a fixed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrAdjacency {
    offsets: Vec<u64>,
    targets: Vec<VertexId>,
    /// Degree (in this adjacency direction) of each entry of `targets`, kept parallel to
    /// it: `target_degrees[i] == degree(targets[i])`. The cache-conscious hot array of
    /// the frontier filter pass — the `DistanceThenDegree` sort key reads the degree of
    /// every surviving candidate, and reading it from the slice being scanned costs one
    /// sequential stream instead of a dependent `offsets[w] / offsets[w+1]` gather per
    /// neighbour.
    target_degrees: Vec<u32>,
}

/// Computes the parallel per-target degree array from a finished `offsets`/`targets` pair.
fn inline_degrees(offsets: &[u64], targets: &[VertexId]) -> Vec<u32> {
    targets
        .iter()
        .map(|t| (offsets[t.index() + 1] - offsets[t.index()]) as u32)
        .collect()
}

impl CsrAdjacency {
    /// Builds a CSR structure from per-vertex sorted, deduplicated neighbour lists.
    ///
    /// The caller (normally [`crate::GraphBuilder`]) is responsible for sorting and
    /// deduplication; this constructor only concatenates.
    pub fn from_sorted_lists(lists: &[Vec<VertexId>]) -> Self {
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        let total: usize = lists.iter().map(Vec::len).sum();
        let mut targets = Vec::with_capacity(total);
        offsets.push(0u64);
        for list in lists {
            debug_assert!(
                list.windows(2).all(|w| w[0] < w[1]),
                "neighbour lists must be strictly sorted"
            );
            targets.extend_from_slice(list);
            offsets.push(targets.len() as u64);
        }
        let target_degrees = inline_degrees(&offsets, &targets);
        CsrAdjacency {
            offsets,
            targets,
            target_degrees,
        }
    }

    /// Builds a CSR structure directly from an edge list using counting sort.
    ///
    /// `edges` may contain duplicates; they are removed. The resulting neighbour lists are
    /// sorted. This is the allocation-friendly path used for large generated graphs.
    pub fn from_edges(num_vertices: usize, edges: &[(VertexId, VertexId)]) -> Self {
        // Counting pass.
        let mut counts = vec![0u64; num_vertices + 1];
        for &(u, _) in edges {
            counts[u.index() + 1] += 1;
        }
        // Prefix sums -> provisional offsets.
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let mut targets = vec![VertexId(0); edges.len()];
        let mut cursor = counts.clone();
        for &(u, v) in edges {
            let slot = cursor[u.index()];
            targets[slot as usize] = v;
            cursor[u.index()] += 1;
        }
        // Sort and deduplicate each row in place, then compact.
        let mut dedup_targets = Vec::with_capacity(targets.len());
        let mut offsets = Vec::with_capacity(num_vertices + 1);
        offsets.push(0u64);
        for v in 0..num_vertices {
            let start = counts[v] as usize;
            let end = counts[v + 1] as usize;
            let row = &mut targets[start..end];
            row.sort_unstable();
            let mut prev: Option<VertexId> = None;
            for &t in row.iter() {
                if prev != Some(t) {
                    dedup_targets.push(t);
                    prev = Some(t);
                }
            }
            offsets.push(dedup_targets.len() as u64);
        }
        let target_degrees = inline_degrees(&offsets, &dedup_targets);
        CsrAdjacency {
            offsets,
            targets: dedup_targets,
            target_degrees,
        }
    }

    /// This adjacency over `num_vertices ≥ self.num_vertices()` vertices with the edges
    /// `added` spliced in and `removed` taken out: one pass of block copies over the three
    /// arrays instead of a rebuild from the edge list.
    ///
    /// Both edit lists are `(row, target)` pairs sorted ascending; `added` holds only edges
    /// absent from `self`, `removed` only edges present (the net sets of a
    /// [`crate::DeltaGraph`]). The degree stored beside each new entry is right on return;
    /// entries *pointing at* a row whose length changed are not — the caller follows up
    /// with [`CsrAdjacency::refresh_degrees_of`], which needs the opposite adjacency.
    pub(crate) fn spliced(
        &self,
        num_vertices: usize,
        added: &[(VertexId, VertexId)],
        removed: &[(VertexId, VertexId)],
    ) -> Self {
        let old_n = self.num_vertices();
        // Rows past the old vertex count are empty and sit at the end of `targets`.
        let row_start = |v: usize| self.offsets[v.min(old_n)] as usize;
        let row_end = |v: usize| row_start(v + 1);
        // Where each edit lands in the old `targets`: the slot a new target goes in front
        // of, the slot a removed one occupies. Sorted edits give non-decreasing slots.
        let slot = |&(u, v): &(VertexId, VertexId)| {
            let start = row_start(u.index());
            start + self.targets[start..row_end(u.index())].partition_point(|&t| t < v)
        };
        let len = self.targets.len() + added.len() - removed.len();
        let mut targets = Vec::with_capacity(len);
        let mut target_degrees = Vec::with_capacity(len);
        let mut fresh = Vec::with_capacity(added.len());
        let (mut a, mut r, mut copied) = (0, 0, 0);
        loop {
            // A new target sorts before the old one in its slot, so on a tie it goes first.
            let (upto, adding) = match (added.get(a).map(slot), removed.get(r).map(slot)) {
                (Some(add), Some(remove)) if add <= remove => (add, true),
                (Some(add), None) => (add, true),
                (_, Some(remove)) => (remove, false),
                (None, None) => break,
            };
            targets.extend_from_slice(&self.targets[copied..upto]);
            target_degrees.extend_from_slice(&self.target_degrees[copied..upto]);
            copied = upto;
            if adding {
                fresh.push(targets.len());
                targets.push(added[a].1);
                target_degrees.push(0);
                a += 1;
            } else {
                copied += 1;
                r += 1;
            }
        }
        targets.extend_from_slice(&self.targets[copied..]);
        target_degrees.extend_from_slice(&self.target_degrees[copied..]);

        let mut offsets = Vec::with_capacity(num_vertices + 1);
        offsets.push(0u64);
        let (mut a, mut r) = (0, 0);
        for v in 0..num_vertices {
            while added.get(a).is_some_and(|e| e.0.index() == v) {
                a += 1;
            }
            while removed.get(r).is_some_and(|e| e.0.index() == v) {
                r += 1;
            }
            offsets.push((row_end(v) + a - r) as u64);
        }
        for at in fresh {
            let t = targets[at].index();
            target_degrees[at] = (offsets[t + 1] - offsets[t]) as u32;
        }
        CsrAdjacency {
            offsets,
            targets,
            target_degrees,
        }
    }

    /// Re-reads the degree of every vertex in `rows` into the entries pointing at it.
    /// `opposite` is the same graph's other direction: its row for `u` lists exactly the
    /// rows of `self` that contain `u`.
    pub(crate) fn refresh_degrees_of(
        &mut self,
        rows: impl Iterator<Item = VertexId>,
        opposite: &CsrAdjacency,
    ) {
        for u in rows {
            let degree = self.degree(u) as u32;
            for &x in opposite.neighbors(u) {
                let start = self.offsets[x.index()] as usize;
                if let Ok(i) = self.neighbors(x).binary_search(&u) {
                    self.target_degrees[start + i] = degree;
                }
            }
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of stored (deduplicated) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// The sorted neighbour slice of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let start = self.offsets[v.index()] as usize;
        let end = self.offsets[v.index() + 1] as usize;
        &self.targets[start..end]
    }

    /// Degree of `v` in this adjacency direction.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v.index() + 1] - self.offsets[v.index()]) as usize
    }

    /// The degrees of `v`'s neighbours, parallel to [`CsrAdjacency::neighbors`]:
    /// `neighbor_degrees(v)[i] == degree(neighbors(v)[i])`.
    ///
    /// One contiguous read per frontier fill pass; see the `target_degrees` field.
    #[inline]
    pub fn neighbor_degrees(&self, v: VertexId) -> &[u32] {
        let start = self.offsets[v.index()] as usize;
        let end = self.offsets[v.index() + 1] as usize;
        &self.target_degrees[start..end]
    }

    /// Whether the edge `(u, v)` exists in this adjacency direction.
    #[inline]
    pub fn contains_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterates over all `(source, target)` pairs stored in this adjacency.
    pub fn iter_edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.num_vertices()).flat_map(move |u| {
            let u = VertexId::new(u);
            self.neighbors(u).iter().map(move |&v| (u, v))
        })
    }

    /// Raw offsets array (length `n + 1`), exposed for serialisation.
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Raw concatenated target array, exposed for serialisation.
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// Reconstructs a CSR adjacency from raw parts (used by the binary loader).
    ///
    /// Returns `None` if the parts are inconsistent (non-monotone offsets or a final offset
    /// not equal to `targets.len()`).
    pub fn from_raw_parts(offsets: Vec<u64>, targets: Vec<VertexId>) -> Option<Self> {
        if offsets.is_empty() || *offsets.last().unwrap() as usize != targets.len() {
            return None;
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return None;
        }
        if targets.iter().any(|t| t.index() + 1 >= offsets.len()) {
            return None;
        }
        // The binary format carries only offsets + targets; the hot degree array is
        // derived, so the on-disk format needs no change.
        let target_degrees = inline_degrees(&offsets, &targets);
        Some(CsrAdjacency {
            offsets,
            targets,
            target_degrees,
        })
    }

    /// Approximate heap footprint in bytes (offsets + targets + inline degrees).
    pub fn heap_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u64>()
            + self.targets.len() * std::mem::size_of::<VertexId>()
            + self.target_degrees.len() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: u32) -> VertexId {
        VertexId(x)
    }

    #[test]
    fn from_edges_sorts_and_dedups() {
        let edges = vec![(v(0), v(2)), (v(0), v(1)), (v(0), v(2)), (v(2), v(0))];
        let csr = CsrAdjacency::from_edges(3, &edges);
        assert_eq!(csr.num_vertices(), 3);
        assert_eq!(csr.num_edges(), 3);
        assert_eq!(csr.neighbors(v(0)), &[v(1), v(2)]);
        assert_eq!(csr.neighbors(v(1)), &[] as &[VertexId]);
        assert_eq!(csr.neighbors(v(2)), &[v(0)]);
        assert_eq!(csr.degree(v(0)), 2);
        assert!(csr.contains_edge(v(0), v(2)));
        assert!(!csr.contains_edge(v(1), v(2)));
    }

    #[test]
    fn from_sorted_lists_round_trip() {
        let lists = vec![vec![v(1), v(3)], vec![], vec![v(0)], vec![v(2)]];
        let csr = CsrAdjacency::from_sorted_lists(&lists);
        assert_eq!(csr.num_vertices(), 4);
        assert_eq!(csr.num_edges(), 4);
        for (i, list) in lists.iter().enumerate() {
            assert_eq!(csr.neighbors(v(i as u32)), list.as_slice());
        }
    }

    #[test]
    fn iter_edges_yields_all_pairs() {
        let edges = vec![(v(0), v(1)), (v(1), v(2)), (v(2), v(0))];
        let csr = CsrAdjacency::from_edges(3, &edges);
        let collected: Vec<_> = csr.iter_edges().collect();
        assert_eq!(collected, edges);
    }

    #[test]
    fn from_raw_parts_validates() {
        let csr = CsrAdjacency::from_edges(3, &[(v(0), v(1))]);
        let rebuilt =
            CsrAdjacency::from_raw_parts(csr.offsets().to_vec(), csr.targets().to_vec()).unwrap();
        assert_eq!(rebuilt, csr);

        assert!(CsrAdjacency::from_raw_parts(vec![0, 2], vec![v(1)]).is_none());
        assert!(CsrAdjacency::from_raw_parts(vec![2, 0, 1], vec![v(1)]).is_none());
        assert!(CsrAdjacency::from_raw_parts(vec![], vec![]).is_none());
    }

    #[test]
    fn empty_graph_is_fine() {
        let csr = CsrAdjacency::from_edges(0, &[]);
        assert_eq!(csr.num_vertices(), 0);
        assert_eq!(csr.num_edges(), 0);
    }

    #[test]
    fn heap_bytes_counts_all_arrays() {
        // 3 offsets (u64) + 1 target (u32) + 1 inline degree (u32).
        let csr = CsrAdjacency::from_edges(2, &[(v(0), v(1))]);
        assert_eq!(csr.heap_bytes(), 3 * 8 + 4 + 4);
    }

    #[test]
    fn neighbor_degrees_mirror_the_neighbor_slice() {
        let edges = vec![
            (v(0), v(1)),
            (v(0), v(2)),
            (v(1), v(2)),
            (v(2), v(0)),
            (v(2), v(1)),
        ];
        for csr in [
            CsrAdjacency::from_edges(3, &edges),
            CsrAdjacency::from_raw_parts(
                CsrAdjacency::from_edges(3, &edges).offsets().to_vec(),
                CsrAdjacency::from_edges(3, &edges).targets().to_vec(),
            )
            .unwrap(),
        ] {
            for u in 0..3 {
                let u = v(u);
                let degrees: Vec<u32> = csr
                    .neighbors(u)
                    .iter()
                    .map(|&w| csr.degree(w) as u32)
                    .collect();
                assert_eq!(csr.neighbor_degrees(u), degrees.as_slice());
            }
        }
    }

    #[test]
    fn from_raw_parts_rejects_out_of_range_targets() {
        assert!(CsrAdjacency::from_raw_parts(vec![0, 1], vec![v(7)]).is_none());
    }
}
