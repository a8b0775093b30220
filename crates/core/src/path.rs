//! Path representation and the flat arena [`PathSet`].
//!
//! Enumeration workloads materialise huge numbers of short paths (Fig. 13 of the paper
//! shows up to 10^12 results per query at k = 7 on the largest graphs). Storing each path
//! as its own `Vec<VertexId>` would pay one allocation per path; [`PathSet`] instead packs
//! every path into one growing `u32` buffer with an offset table.

use hcsp_graph::VertexId;
use std::fmt;

/// An owned simple path: the full vertex sequence, including both endpoints.
///
/// The number of *hops* is `vertices.len() - 1`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Path {
    vertices: Vec<VertexId>,
}

impl Path {
    /// Creates a path from a vertex sequence.
    ///
    /// # Panics
    /// Panics (in debug builds) if the sequence is empty; a path always has at least its
    /// start vertex.
    pub fn new(vertices: Vec<VertexId>) -> Self {
        debug_assert!(
            !vertices.is_empty(),
            "a path must contain at least one vertex"
        );
        Path { vertices }
    }

    /// A single-vertex path (zero hops).
    pub fn single(v: VertexId) -> Self {
        Path { vertices: vec![v] }
    }

    /// The vertex sequence.
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertices
    }

    /// Number of hops (edges) on the path.
    pub fn hops(&self) -> usize {
        self.vertices.len() - 1
    }

    /// First vertex.
    pub fn first(&self) -> VertexId {
        self.vertices[0]
    }

    /// Last vertex.
    pub fn last(&self) -> VertexId {
        *self.vertices.last().expect("paths are non-empty")
    }

    /// Whether no vertex repeats (the *simple path* condition).
    pub fn is_simple(&self) -> bool {
        vertices_are_distinct(&self.vertices)
    }

    /// Reversed copy of the path (used to turn a `G^r` path into a `G` path).
    pub fn reversed(&self) -> Path {
        let mut vertices = self.vertices.clone();
        vertices.reverse();
        Path { vertices }
    }

    /// Consumes the path and returns its vertex sequence.
    pub fn into_vertices(self) -> Vec<VertexId> {
        self.vertices
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.vertices.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<VertexId>> for Path {
    fn from(vertices: Vec<VertexId>) -> Self {
        Path::new(vertices)
    }
}

/// Returns `true` when no vertex occurs twice in `vertices`.
///
/// Paths in this workload are short (≤ k ≤ ~15 vertices), so a quadratic scan beats
/// hashing; the cross-over observed in micro-benchmarks is far above the hop constraints
/// the paper evaluates (k ≤ 7).
pub fn vertices_are_distinct(vertices: &[VertexId]) -> bool {
    for (i, &v) in vertices.iter().enumerate() {
        if vertices[i + 1..].contains(&v) {
            return false;
        }
    }
    true
}

/// A compact, append-only set of paths stored in a single flat buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathSet {
    /// Concatenated vertex sequences of all paths.
    buffer: Vec<VertexId>,
    /// `offsets[i]..offsets[i+1]` delimits path `i`; `offsets[0] == 0`.
    offsets: Vec<u32>,
}

impl PathSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        PathSet {
            buffer: Vec::new(),
            offsets: vec![0],
        }
    }

    /// Creates an empty set with room for roughly `paths` paths of `avg_len` vertices.
    pub fn with_capacity(paths: usize, avg_len: usize) -> Self {
        let mut offsets = Vec::with_capacity(paths + 1);
        offsets.push(0);
        PathSet {
            buffer: Vec::with_capacity(paths * avg_len),
            offsets,
        }
    }

    /// Number of stored paths.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a path given as a vertex slice.
    pub fn push_slice(&mut self, vertices: &[VertexId]) {
        debug_assert!(!vertices.is_empty());
        self.buffer.extend_from_slice(vertices);
        self.offsets.push(self.buffer.len() as u32);
    }

    /// Appends an owned [`Path`].
    pub fn push(&mut self, path: &Path) {
        self.push_slice(path.vertices());
    }

    /// Appends the concatenation of `prefix` and `suffix` without an intermediate
    /// allocation (used by the shared enumeration when splicing cached results).
    pub fn push_concat(&mut self, prefix: &[VertexId], suffix: &[VertexId]) {
        debug_assert!(!prefix.is_empty() || !suffix.is_empty());
        self.buffer.extend_from_slice(prefix);
        self.buffer.extend_from_slice(suffix);
        self.offsets.push(self.buffer.len() as u32);
    }

    /// The vertex slice of path `i`.
    pub fn get(&self, i: usize) -> &[VertexId] {
        let start = self.offsets[i] as usize;
        let end = self.offsets[i + 1] as usize;
        &self.buffer[start..end]
    }

    /// Iterates over all stored paths as slices.
    pub fn iter(&self) -> impl Iterator<Item = &[VertexId]> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Copies path `i` into an owned [`Path`].
    pub fn to_path(&self, i: usize) -> Path {
        Path::new(self.get(i).to_vec())
    }

    /// Collects every stored path into owned [`Path`] values (test / example convenience).
    pub fn to_paths(&self) -> Vec<Path> {
        self.iter().map(|s| Path::new(s.to_vec())).collect()
    }

    /// Appends every path of `other` into `self`.
    pub fn extend_from(&mut self, other: &PathSet) {
        for p in other.iter() {
            self.push_slice(p);
        }
    }

    /// Removes all paths, keeping the allocations for reuse.
    pub fn clear(&mut self) {
        self.buffer.clear();
        self.offsets.clear();
        self.offsets.push(0);
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.buffer.len() * std::mem::size_of::<VertexId>()
            + self.offsets.len() * std::mem::size_of::<u32>()
    }
}

impl FromIterator<Path> for PathSet {
    fn from_iter<T: IntoIterator<Item = Path>>(iter: T) -> Self {
        let mut set = PathSet::new();
        for p in iter {
            set.push(&p);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: u32) -> VertexId {
        VertexId(x)
    }

    fn p(ids: &[u32]) -> Path {
        Path::new(ids.iter().map(|&x| VertexId(x)).collect())
    }

    #[test]
    fn path_accessors() {
        let path = p(&[0, 4, 9, 3]);
        assert_eq!(path.hops(), 3);
        assert_eq!(path.first(), v(0));
        assert_eq!(path.last(), v(3));
        assert!(path.is_simple());
        assert_eq!(path.to_string(), "(v0, v4, v9, v3)");
        assert_eq!(path.reversed(), p(&[3, 9, 4, 0]));
        assert_eq!(Path::single(v(7)).hops(), 0);
        assert_eq!(path.clone().into_vertices().len(), 4);
    }

    #[test]
    fn simplicity_detects_repeats() {
        assert!(p(&[1, 2, 3]).is_simple());
        assert!(!p(&[1, 2, 1]).is_simple());
        assert!(vertices_are_distinct(&[]));
        assert!(vertices_are_distinct(&[v(5)]));
        assert!(!vertices_are_distinct(&[v(5), v(5)]));
    }

    #[test]
    fn path_set_push_and_get() {
        let mut set = PathSet::with_capacity(4, 3);
        assert!(set.is_empty());
        set.push(&p(&[0, 1, 2]));
        set.push_slice(&[v(3), v(4)]);
        set.push_concat(&[v(5), v(6)], &[v(7)]);
        assert_eq!(set.len(), 3);
        assert_eq!(set.get(0), &[v(0), v(1), v(2)]);
        assert_eq!(set.get(1), &[v(3), v(4)]);
        assert_eq!(set.get(2), &[v(5), v(6), v(7)]);
        assert_eq!(set.buffer.len(), 8);
        assert_eq!(set.to_path(1), p(&[3, 4]));
        assert_eq!(set.to_paths().len(), 3);
        assert!(set.heap_bytes() > 0);
    }

    #[test]
    fn path_set_iter_and_extend() {
        let a: PathSet = vec![p(&[0, 1]), p(&[2, 3])].into_iter().collect();
        let mut b = PathSet::new();
        b.push(&p(&[9]));
        b.extend_from(&a);
        assert_eq!(b.len(), 3);
        let all: Vec<_> = b.iter().map(|s| s.len()).collect();
        assert_eq!(all, vec![1, 2, 2]);
    }

    #[test]
    fn path_set_clear_retains_capacity() {
        let mut set = PathSet::new();
        set.push(&p(&[0, 1, 2]));
        let cap_before = set.buffer.capacity();
        set.clear();
        assert!(set.is_empty());
        assert_eq!(set.buffer.len(), 0);
        assert!(set.buffer.capacity() >= cap_before);
        set.push(&p(&[4]));
        assert_eq!(set.get(0), &[v(4)]);
    }
}
