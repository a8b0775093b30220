//! The immutable directed graph used by every algorithm in the workspace.

use crate::builder::GraphBuilder;
use crate::csr::CsrAdjacency;
use crate::error::GraphError;
use crate::vertex::VertexId;
use crate::Result;

/// Search direction: forward traverses `G`, backward traverses the reverse graph `G^r`.
///
/// The paper's bidirectional enumeration runs a forward search from `s` on `G` and a
/// backward search from `t` on `G^r`; passing a `Direction` instead of materialising `G^r`
/// keeps a single copy of the graph in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Follow out-edges (a traversal on `G`).
    Forward,
    /// Follow in-edges (a traversal on `G^r`).
    Backward,
}

impl Direction {
    /// The opposite direction.
    #[inline]
    pub fn reverse(self) -> Direction {
        match self {
            Direction::Forward => Direction::Backward,
            Direction::Backward => Direction::Forward,
        }
    }
}

impl std::fmt::Display for Direction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Direction::Forward => write!(f, "G"),
            Direction::Backward => write!(f, "Gr"),
        }
    }
}

/// An immutable, unweighted directed graph `G = (V, E)` in CSR form.
///
/// Both out- and in-adjacency are stored so that the reverse graph `G^r` (needed by the
/// backward half of the bidirectional search and by the target-side index) is available
/// without any copying: `neighbors(v, Direction::Backward)` *is* `G^r.nbr+(v)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiGraph {
    out: CsrAdjacency,
    inn: CsrAdjacency,
    num_edges: usize,
}

impl DiGraph {
    /// Builds a graph from `(u, v)` pairs given as raw `u32` ids.
    ///
    /// Duplicate edges are removed; self loops are kept (they can never appear on a simple
    /// path of length ≥ 1 and are pruned naturally during enumeration). Returns an error if
    /// an endpoint is `>= num_vertices`.
    pub fn from_edge_list(num_vertices: usize, edges: &[(u32, u32)]) -> Result<Self> {
        let mut builder = GraphBuilder::with_capacity(num_vertices, edges.len());
        for &(u, v) in edges {
            if u as usize >= num_vertices || v as usize >= num_vertices {
                return Err(GraphError::VertexOutOfBounds {
                    vertex: u.max(v),
                    num_vertices,
                });
            }
            builder.add_edge_raw(u, v)?;
        }
        Ok(builder.build())
    }

    /// Builds a graph from typed [`VertexId`] edges.
    pub fn from_edges(num_vertices: usize, edges: &[(VertexId, VertexId)]) -> Result<Self> {
        for &(u, v) in edges {
            if u.index() >= num_vertices || v.index() >= num_vertices {
                return Err(GraphError::VertexOutOfBounds {
                    vertex: u.raw().max(v.raw()),
                    num_vertices,
                });
            }
        }
        Ok(Self::from_csr_edges(num_vertices, edges))
    }

    /// Internal constructor used by [`GraphBuilder`]: edges are assumed to be in range.
    pub(crate) fn from_csr_edges(num_vertices: usize, edges: &[(VertexId, VertexId)]) -> Self {
        let out = CsrAdjacency::from_edges(num_vertices, edges);
        let reversed: Vec<(VertexId, VertexId)> = edges.iter().map(|&(u, v)| (v, u)).collect();
        let inn = CsrAdjacency::from_edges(num_vertices, &reversed);
        let num_edges = out.num_edges();
        DiGraph {
            out,
            inn,
            num_edges,
        }
    }

    /// Reconstructs a graph from two pre-built CSR halves (binary loader path).
    pub(crate) fn from_parts(out: CsrAdjacency, inn: CsrAdjacency) -> Self {
        let num_edges = out.num_edges();
        DiGraph {
            out,
            inn,
            num_edges,
        }
    }

    /// This graph over `num_vertices` vertices after the net edits of a
    /// [`crate::DeltaGraph`] — `added` edges absent here, `removed` edges present here, both
    /// sorted by `(u, v)` — equal to rebuilding from the edited edge list, at the cost of
    /// copying the arrays once.
    pub(crate) fn patched(
        &self,
        num_vertices: usize,
        added: &[(VertexId, VertexId)],
        removed: &[(VertexId, VertexId)],
    ) -> Self {
        let flipped = |edges: &[(VertexId, VertexId)]| {
            let mut flipped: Vec<_> = edges.iter().map(|&(u, v)| (v, u)).collect();
            flipped.sort_unstable();
            flipped
        };
        let (added_in, removed_in) = (flipped(added), flipped(removed));
        let mut out = self.out.spliced(num_vertices, added, removed);
        let mut inn = self.inn.spliced(num_vertices, &added_in, &removed_in);
        out.refresh_degrees_of(added.iter().chain(removed).map(|e| e.0), &inn);
        inn.refresh_degrees_of(added_in.iter().chain(&removed_in).map(|e| e.0), &out);
        DiGraph::from_parts(out, inn)
    }

    /// Number of vertices `|V|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.out.num_vertices()
    }

    /// Number of distinct directed edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Whether the graph has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.num_vertices() == 0
    }

    /// Out-neighbours `G.nbr+(v)`, sorted by id.
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.out.neighbors(v)
    }

    /// In-neighbours `G.nbr-(v)`, sorted by id.
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.inn.neighbors(v)
    }

    /// Neighbours in the given search direction: `Forward` yields out-neighbours of `v` in
    /// `G`, `Backward` yields out-neighbours of `v` in `G^r` (i.e. in-neighbours in `G`).
    #[inline]
    pub fn neighbors(&self, v: VertexId, dir: Direction) -> &[VertexId] {
        match dir {
            Direction::Forward => self.out.neighbors(v),
            Direction::Backward => self.inn.neighbors(v),
        }
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out.degree(v)
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.inn.degree(v)
    }

    /// Degree in the given search direction.
    #[inline]
    pub fn degree(&self, v: VertexId, dir: Direction) -> usize {
        match dir {
            Direction::Forward => self.out.degree(v),
            Direction::Backward => self.inn.degree(v),
        }
    }

    /// Degrees of `v`'s neighbours in the given direction, parallel to
    /// [`DiGraph::neighbors`]: `neighbor_degrees(v, d)[i] == degree(neighbors(v, d)[i], d)`.
    ///
    /// The frontier fill pass zips this with the neighbour slice so the
    /// `DistanceThenDegree` sort key is one sequential read instead of a per-neighbour
    /// offset gather.
    #[inline]
    pub fn neighbor_degrees(&self, v: VertexId, dir: Direction) -> &[u32] {
        match dir {
            Direction::Forward => self.out.neighbor_degrees(v),
            Direction::Backward => self.inn.neighbor_degrees(v),
        }
    }

    /// Whether the directed edge `(u, v)` exists in `G`.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.out.contains_edge(u, v)
    }

    /// Iterates all vertices `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.num_vertices() as u32).map(VertexId)
    }

    /// Iterates all directed edges of `G` in CSR order.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.out.iter_edges()
    }

    /// Returns a new graph with every edge reversed (an explicit `G^r`).
    ///
    /// Algorithms should prefer [`DiGraph::neighbors`] with [`Direction::Backward`]; this
    /// method exists for tests and for comparators that insist on a concrete graph value.
    pub fn reversed(&self) -> DiGraph {
        DiGraph {
            out: self.inn.clone(),
            inn: self.out.clone(),
            num_edges: self.num_edges,
        }
    }

    /// The out-adjacency half (exposed for serialisation).
    pub fn out_adjacency(&self) -> &CsrAdjacency {
        &self.out
    }

    /// The in-adjacency half (exposed for serialisation).
    pub fn in_adjacency(&self) -> &CsrAdjacency {
        &self.inn
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.out.heap_bytes() + self.inn.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: u32) -> VertexId {
        VertexId(x)
    }

    fn diamond() -> DiGraph {
        DiGraph::from_edge_list(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn basic_counts_and_neighbors() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert!(!g.is_empty());
        assert_eq!(g.out_neighbors(v(0)), &[v(1), v(2)]);
        assert_eq!(g.in_neighbors(v(3)), &[v(1), v(2)]);
        assert_eq!(g.out_degree(v(0)), 2);
        assert_eq!(g.in_degree(v(0)), 0);
        assert!(g.has_edge(v(0), v(1)));
        assert!(!g.has_edge(v(1), v(0)));
    }

    #[test]
    fn direction_selects_adjacency() {
        let g = diamond();
        assert_eq!(g.neighbors(v(0), Direction::Forward), &[v(1), v(2)]);
        assert_eq!(g.neighbors(v(0), Direction::Backward), &[] as &[VertexId]);
        assert_eq!(g.neighbors(v(3), Direction::Backward), &[v(1), v(2)]);
        assert_eq!(g.degree(v(3), Direction::Backward), 2);
        assert_eq!(Direction::Forward.reverse(), Direction::Backward);
        assert_eq!(Direction::Backward.reverse(), Direction::Forward);
    }

    #[test]
    fn neighbor_degrees_follow_direction() {
        let g = diamond();
        // Forward: neighbours of 0 are [1, 2] with out-degrees [1, 1]; 1's neighbour 3
        // has out-degree 0.
        assert_eq!(g.neighbor_degrees(v(0), Direction::Forward), &[1, 1]);
        assert_eq!(g.neighbor_degrees(v(1), Direction::Forward), &[0]);
        // Backward: neighbours of 3 are [1, 2] with in-degrees [1, 1].
        assert_eq!(g.neighbor_degrees(v(3), Direction::Backward), &[1, 1]);
    }

    #[test]
    fn reversed_swaps_adjacency() {
        let g = diamond();
        let r = g.reversed();
        assert_eq!(r.out_neighbors(v(3)), &[v(1), v(2)]);
        assert_eq!(r.in_neighbors(v(0)), &[v(1), v(2)]);
        assert_eq!(r.num_edges(), g.num_edges());
        // Reversing twice is the identity.
        assert_eq!(r.reversed(), g);
    }

    #[test]
    fn duplicate_edges_are_removed() {
        let g = DiGraph::from_edge_list(3, &[(0, 1), (0, 1), (1, 2)]).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn out_of_bounds_edge_is_rejected() {
        let err = DiGraph::from_edge_list(2, &[(0, 5)]).unwrap_err();
        assert!(matches!(
            err,
            GraphError::VertexOutOfBounds { vertex: 5, .. }
        ));
        let err = DiGraph::from_edges(2, &[(v(3), v(0))]).unwrap_err();
        assert!(matches!(err, GraphError::VertexOutOfBounds { .. }));
    }

    #[test]
    fn vertices_and_edges_iterators() {
        let g = diamond();
        assert_eq!(g.vertices().count(), 4);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        assert!(edges.contains(&(v(0), v(1))));
    }

    #[test]
    fn display_direction() {
        assert_eq!(Direction::Forward.to_string(), "G");
        assert_eq!(Direction::Backward.to_string(), "Gr");
    }
}
