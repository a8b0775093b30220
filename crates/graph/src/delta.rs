//! Dynamic graph updates: a mutable overlay over the immutable CSR graph.
//!
//! Every algorithm in the workspace runs on the immutable [`DiGraph`] — CSR slices are
//! what makes the enumeration hot path allocation-free. Real serving graphs change while
//! queries flow, so mutation is staged in a [`DeltaGraph`]: edge insertions and deletions
//! accumulate in a sorted overlay on top of an untouched base CSR, queries against the
//! overlay merge the two views, and [`DeltaGraph::compact`] folds the overlay back into a
//! fresh CSR by splicing the net edits into a copy of the base's arrays. The overlay is
//! the *staging* structure; enumeration always runs on a compacted snapshot.

use crate::digraph::{DiGraph, Direction};
use crate::vertex::VertexId;
use std::collections::BTreeSet;
use std::sync::Arc;

/// One dynamic graph mutation.
///
/// Updates are idempotent by construction: inserting an edge that already exists or
/// deleting one that does not is a no-op (reported as such by [`DeltaGraph::apply`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum GraphUpdate {
    /// Insert the directed edge `(u, v)`; may grow the vertex space.
    Insert(VertexId, VertexId),
    /// Delete the directed edge `(u, v)`.
    Delete(VertexId, VertexId),
}

impl GraphUpdate {
    /// Convenience constructor for an insertion.
    pub fn insert(u: impl Into<VertexId>, v: impl Into<VertexId>) -> Self {
        GraphUpdate::Insert(u.into(), v.into())
    }

    /// Convenience constructor for a deletion.
    pub fn delete(u: impl Into<VertexId>, v: impl Into<VertexId>) -> Self {
        GraphUpdate::Delete(u.into(), v.into())
    }

    /// The edge the update refers to.
    pub fn edge(&self) -> (VertexId, VertexId) {
        match *self {
            GraphUpdate::Insert(u, v) | GraphUpdate::Delete(u, v) => (u, v),
        }
    }

    /// Whether the update is an insertion.
    pub fn is_insert(&self) -> bool {
        matches!(self, GraphUpdate::Insert(..))
    }
}

impl std::fmt::Display for GraphUpdate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphUpdate::Insert(u, v) => write!(f, "+({u}, {v})"),
            GraphUpdate::Delete(u, v) => write!(f, "-({u}, {v})"),
        }
    }
}

/// A mutable edge-set overlay over an immutable base [`DiGraph`].
///
/// The overlay stores the *net* difference to the base: `added` holds edges absent from
/// the base, `removed` holds base edges marked deleted. Opposing updates cancel (insert
/// then delete of the same absent edge leaves the overlay untouched), so
/// [`DeltaGraph::added_edges`] / [`DeltaGraph::removed_edges`] are exactly the edge sets
/// an index-maintenance pass has to look at. Insertions may reference vertices beyond the
/// base vertex count; the vertex space grows like [`crate::GraphBuilder`]'s does.
///
/// # Example
///
/// ```
/// use hcsp_graph::{DeltaGraph, DiGraph, GraphUpdate, VertexId};
///
/// let base = DiGraph::from_edge_list(3, &[(0, 1), (1, 2)]).unwrap();
/// let mut delta = DeltaGraph::new(base);
/// assert!(delta.apply(&GraphUpdate::insert(0u32, 2u32)));
/// assert!(delta.apply(&GraphUpdate::delete(1u32, 2u32)));
/// assert!(delta.has_edge(VertexId(0), VertexId(2)));
/// assert!(!delta.has_edge(VertexId(1), VertexId(2)));
///
/// let compacted = delta.compact();
/// assert_eq!(compacted.num_edges(), 2);
/// assert!(compacted.has_edge(VertexId(0), VertexId(2)));
/// ```
#[derive(Debug, Clone)]
pub struct DeltaGraph {
    base: Arc<DiGraph>,
    added: BTreeSet<(VertexId, VertexId)>,
    removed: BTreeSet<(VertexId, VertexId)>,
    num_vertices: usize,
}

impl DeltaGraph {
    /// Creates an empty overlay over `base`.
    pub fn new(base: impl Into<Arc<DiGraph>>) -> Self {
        let base = base.into();
        let num_vertices = base.num_vertices();
        DeltaGraph {
            base,
            added: BTreeSet::new(),
            removed: BTreeSet::new(),
            num_vertices,
        }
    }

    /// The untouched base snapshot the overlay sits on.
    pub fn base(&self) -> &Arc<DiGraph> {
        &self.base
    }

    /// Number of vertices of the overlaid graph (base count plus growth from inserts).
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges of the overlaid graph.
    pub fn num_edges(&self) -> usize {
        self.base.num_edges() + self.added.len() - self.removed.len()
    }

    /// Whether any pending mutation separates the overlay from its base.
    pub fn is_dirty(&self) -> bool {
        !self.added.is_empty() || !self.removed.is_empty() || self.grew()
    }

    /// Number of pending overlay operations (net added plus net removed edges).
    pub fn pending_ops(&self) -> usize {
        self.added.len() + self.removed.len()
    }

    /// Whether inserts grew the vertex space beyond the base's.
    fn grew(&self) -> bool {
        self.num_vertices > self.base.num_vertices()
    }

    /// Inserts the directed edge `(u, v)`, growing the vertex space to cover both
    /// endpoints. Returns `false` (and changes nothing else) if the edge already exists.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        self.num_vertices = self.num_vertices.max(u.index() + 1).max(v.index() + 1);
        if self.removed.remove(&(u, v)) {
            return true;
        }
        if self.in_base(u, v) {
            return false;
        }
        self.added.insert((u, v))
    }

    /// Deletes the directed edge `(u, v)`. Returns `false` if the edge does not exist.
    pub fn delete_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if self.added.remove(&(u, v)) {
            return true;
        }
        if self.in_base(u, v) {
            return self.removed.insert((u, v));
        }
        false
    }

    /// Applies one update; returns whether it changed the graph.
    pub fn apply(&mut self, update: &GraphUpdate) -> bool {
        match *update {
            GraphUpdate::Insert(u, v) => self.insert_edge(u, v),
            GraphUpdate::Delete(u, v) => self.delete_edge(u, v),
        }
    }

    fn in_base(&self, u: VertexId, v: VertexId) -> bool {
        u.index() < self.base.num_vertices()
            && v.index() < self.base.num_vertices()
            && self.base.has_edge(u, v)
    }

    /// Whether the overlaid graph contains the directed edge `(u, v)`.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if self.added.contains(&(u, v)) {
            return true;
        }
        self.in_base(u, v) && !self.removed.contains(&(u, v))
    }

    /// Net edges present in the overlay but not in the base, sorted by `(u, v)`.
    pub fn added_edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.added.iter().copied()
    }

    /// Net base edges marked deleted, sorted by `(u, v)`.
    pub fn removed_edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.removed.iter().copied()
    }

    /// Neighbours of `v` in the overlaid graph, sorted ascending (merged view of the base
    /// CSR slice and the overlay; allocates — the overlay is a staging structure, not the
    /// enumeration hot path).
    pub fn neighbors(&self, v: VertexId, dir: Direction) -> Vec<VertexId> {
        let base: &[VertexId] = if v.index() < self.base.num_vertices() {
            self.base.neighbors(v, dir)
        } else {
            &[]
        };
        // Overlay edges touching `v` in this direction: out-edges key on the first
        // endpoint, in-edges on the second.
        let pick = |set: &BTreeSet<(VertexId, VertexId)>| -> Vec<VertexId> {
            match dir {
                Direction::Forward => set
                    .range((v, VertexId(0))..=(v, VertexId(u32::MAX)))
                    .map(|&(_, w)| w)
                    .collect(),
                Direction::Backward => set
                    .iter()
                    .filter(|&&(_, w)| w == v)
                    .map(|&(u, _)| u)
                    .collect(),
            }
        };
        let mut extra = pick(&self.added);
        extra.sort_unstable();
        let removed_here = pick(&self.removed);
        let mut merged = Vec::with_capacity(base.len() + extra.len());
        let mut e = extra.into_iter().peekable();
        for &b in base {
            while let Some(&x) = e.peek() {
                if x < b {
                    merged.push(x);
                    e.next();
                } else {
                    break;
                }
            }
            if removed_here.binary_search(&b).is_err() {
                merged.push(b);
            }
        }
        merged.extend(e);
        merged
    }

    /// Out-neighbours of `v` in the overlaid graph.
    pub fn out_neighbors(&self, v: VertexId) -> Vec<VertexId> {
        self.neighbors(v, Direction::Forward)
    }

    /// In-neighbours of `v` in the overlaid graph.
    pub fn in_neighbors(&self, v: VertexId) -> Vec<VertexId> {
        self.neighbors(v, Direction::Backward)
    }

    /// Iterates every edge of the overlaid graph in deterministic `(u, v)` order.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.num_vertices as u32).flat_map(move |u| {
            let u = VertexId(u);
            self.out_neighbors(u).into_iter().map(move |v| (u, v))
        })
    }

    /// Folds the overlay into a fresh immutable CSR snapshot: the base's arrays copied
    /// once with the net edits spliced in, so a one-edge update costs a copy of the graph,
    /// not a rebuild of it.
    ///
    /// The overlay itself is untouched; callers that want to keep mutating on top of the
    /// new snapshot use [`DeltaGraph::rebase`].
    pub fn compact(&self) -> DiGraph {
        let added: Vec<_> = self.added_edges().collect();
        let removed: Vec<_> = self.removed_edges().collect();
        self.base.patched(self.num_vertices, &added, &removed)
    }

    /// Compacts and adopts the result as the new base, clearing the overlay. Returns the
    /// new snapshot (shared, so callers can hand it to engines without another copy).
    pub fn rebase(&mut self) -> Arc<DiGraph> {
        let fresh = Arc::new(self.compact());
        self.base = Arc::clone(&fresh);
        self.added.clear();
        self.removed.clear();
        self.num_vertices = fresh.num_vertices();
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: u32) -> VertexId {
        VertexId(x)
    }

    fn base() -> DiGraph {
        // 0 -> 1 -> 2, 0 -> 2
        DiGraph::from_edge_list(3, &[(0, 1), (1, 2), (0, 2)]).unwrap()
    }

    #[test]
    fn insert_and_delete_change_the_view() {
        let mut d = DeltaGraph::new(base());
        assert!(!d.is_dirty());
        assert_eq!(d.num_edges(), 3);

        assert!(d.insert_edge(v(2), v(0)));
        assert!(d.delete_edge(v(0), v(2)));
        assert!(d.is_dirty());
        assert_eq!(d.num_edges(), 3);
        assert!(d.has_edge(v(2), v(0)));
        assert!(!d.has_edge(v(0), v(2)));
        assert_eq!(d.out_neighbors(v(0)), vec![v(1)]);
        assert_eq!(d.out_neighbors(v(2)), vec![v(0)]);
        assert_eq!(d.in_neighbors(v(0)), vec![v(2)]);
        assert_eq!(d.in_neighbors(v(2)), vec![v(1)]);
    }

    #[test]
    fn redundant_updates_are_noops() {
        let mut d = DeltaGraph::new(base());
        assert!(!d.insert_edge(v(0), v(1)), "edge already in base");
        assert!(!d.delete_edge(v(2), v(1)), "edge never existed");
        assert!(!d.delete_edge(v(7), v(1)), "endpoint out of range");
        assert!(!d.is_dirty());

        assert!(d.insert_edge(v(2), v(0)));
        assert!(!d.insert_edge(v(2), v(0)), "double insert");
        assert!(d.delete_edge(v(0), v(1)));
        assert!(!d.delete_edge(v(0), v(1)), "double delete");
    }

    #[test]
    fn opposing_updates_cancel_to_a_clean_overlay() {
        let mut d = DeltaGraph::new(base());
        assert!(d.apply(&GraphUpdate::insert(2u32, 0u32)));
        assert!(d.apply(&GraphUpdate::delete(2u32, 0u32)));
        assert!(d.apply(&GraphUpdate::delete(0u32, 1u32)));
        assert!(d.apply(&GraphUpdate::insert(0u32, 1u32)));
        assert!(!d.is_dirty());
        assert_eq!(d.pending_ops(), 0);
        assert_eq!(d.compact(), **d.base());
    }

    #[test]
    fn inserts_grow_the_vertex_space() {
        let mut d = DeltaGraph::new(base());
        assert!(d.insert_edge(v(1), v(5)));
        assert_eq!(d.num_vertices(), 6);
        assert!(d.has_edge(v(1), v(5)));
        assert_eq!(d.out_neighbors(v(1)), vec![v(2), v(5)]);
        assert_eq!(d.out_neighbors(v(5)), Vec::<VertexId>::new());
        let g = d.compact();
        assert_eq!(g.num_vertices(), 6);
        assert!(g.has_edge(v(1), v(5)));
        assert_eq!(g.out_degree(v(5)), 0);
    }

    #[test]
    fn compact_matches_a_from_scratch_build() {
        let mut d = DeltaGraph::new(base());
        d.insert_edge(v(2), v(0));
        d.insert_edge(v(1), v(0));
        d.delete_edge(v(0), v(2));
        let compacted = d.compact();
        let reference = DiGraph::from_edge_list(3, &[(0, 1), (1, 2), (2, 0), (1, 0)]).unwrap();
        assert_eq!(compacted, reference);
        // The overlaid view agrees with the compacted CSR everywhere.
        for u in compacted.vertices() {
            assert_eq!(d.out_neighbors(u), compacted.out_neighbors(u).to_vec());
            assert_eq!(d.in_neighbors(u), compacted.in_neighbors(u).to_vec());
        }
        assert_eq!(
            d.edges().collect::<Vec<_>>(),
            compacted.edges().collect::<Vec<_>>()
        );
    }

    /// The splice against the rebuild it replaced, arrays and inline degrees included
    /// (`DiGraph: PartialEq` compares all of them): random graphs with self loops and
    /// empty rows, random toggles that also grow the vertex space, compacted after every
    /// few so both one-edge and many-edge overlays occur.
    #[test]
    fn compact_equals_a_rebuild_from_the_edited_edge_list() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(20);
        for case in 0..60 {
            let n = rng.gen_range(1..12u32);
            let edges: Vec<(u32, u32)> = (0..rng.gen_range(0..40))
                .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                .collect();
            let mut d = DeltaGraph::new(DiGraph::from_edge_list(n as usize, &edges).unwrap());
            for step in 0..30 {
                let (a, b) = (v(rng.gen_range(0..n + 3)), v(rng.gen_range(0..n + 3)));
                if d.has_edge(a, b) {
                    d.delete_edge(a, b);
                } else {
                    d.insert_edge(a, b);
                }
                if rng.gen_bool(0.4) {
                    let mut builder = crate::GraphBuilder::new();
                    builder.reserve_vertices(d.num_vertices());
                    builder.extend_edges(d.edges());
                    assert_eq!(d.compact(), builder.build(), "case {case}, step {step}");
                    if rng.gen_bool(0.5) {
                        d.rebase();
                    }
                }
            }
        }
    }

    #[test]
    fn rebase_clears_the_overlay_and_keeps_the_view() {
        let mut d = DeltaGraph::new(base());
        d.insert_edge(v(2), v(0));
        d.delete_edge(v(0), v(1));
        let snapshot = d.rebase();
        assert!(!d.is_dirty());
        assert_eq!(d.pending_ops(), 0);
        assert_eq!(**d.base(), *snapshot);
        assert!(d.has_edge(v(2), v(0)));
        assert!(!d.has_edge(v(0), v(1)));
        // Mutations continue on top of the new base.
        assert!(d.insert_edge(v(0), v(1)));
        assert!(d.has_edge(v(0), v(1)));
    }

    #[test]
    fn update_accessors_and_display() {
        let ins = GraphUpdate::insert(1u32, 2u32);
        let del = GraphUpdate::delete(2u32, 1u32);
        assert!(ins.is_insert());
        assert!(!del.is_insert());
        assert_eq!(ins.edge(), (v(1), v(2)));
        assert_eq!(del.edge(), (v(2), v(1)));
        assert_eq!(ins.to_string(), "+(v1, v2)");
        assert_eq!(del.to_string(), "-(v2, v1)");
    }

    #[test]
    fn net_delta_is_exposed_for_index_maintenance() {
        let mut d = DeltaGraph::new(base());
        d.insert_edge(v(2), v(0));
        d.insert_edge(v(2), v(1));
        d.delete_edge(v(2), v(1)); // cancels the insert
        d.delete_edge(v(1), v(2));
        assert_eq!(d.added_edges().collect::<Vec<_>>(), vec![(v(2), v(0))]);
        assert_eq!(d.removed_edges().collect::<Vec<_>>(), vec![(v(1), v(2))]);
    }
}
