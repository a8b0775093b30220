//! Vertex identifiers.
//!
//! Vertices are dense `u32` identifiers in `[0, n)`. A newtype is used instead of a bare
//! `u32` so that vertex ids, hop budgets, and counts cannot be confused at call sites.

use std::fmt;

/// A dense vertex identifier in `[0, n)` for a graph with `n` vertices.
///
/// `VertexId` is a thin wrapper around `u32`: the paper's largest graphs (Twitter-2010,
/// Friendster) have fewer than 2^32 vertices, and 32-bit ids halve the memory footprint of
/// the CSR arrays and of materialised paths compared to `usize` on 64-bit platforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct VertexId(pub u32);

impl VertexId {
    /// The maximum representable vertex id, used as a sentinel in a few dense arrays.
    pub const MAX: VertexId = VertexId(u32::MAX);

    /// Creates a vertex id from a `usize` index.
    ///
    /// # Panics
    /// Panics if `index` does not fit in a `u32`.
    #[inline]
    pub fn new(index: usize) -> Self {
        debug_assert!(
            index <= u32::MAX as usize,
            "vertex index {index} overflows u32"
        );
        VertexId(index as u32)
    }

    /// Returns the id as a `usize`, suitable for indexing dense per-vertex arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` value.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u32> for VertexId {
    #[inline]
    fn from(v: u32) -> Self {
        VertexId(v)
    }
}

impl From<VertexId> for u32 {
    #[inline]
    fn from(v: VertexId) -> Self {
        v.0
    }
}

impl From<VertexId> for usize {
    #[inline]
    fn from(v: VertexId) -> Self {
        v.index()
    }
}

/// A directed edge `(source, target)`.
pub type Edge = (VertexId, VertexId);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_and_index_round_trip() {
        let v = VertexId::new(42);
        assert_eq!(v.index(), 42);
        assert_eq!(v.raw(), 42);
        assert_eq!(u32::from(v), 42);
        assert_eq!(usize::from(v), 42);
    }

    #[test]
    fn display_uses_v_prefix() {
        assert_eq!(VertexId(7).to_string(), "v7");
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(VertexId(3) < VertexId(4));
        assert_eq!(VertexId(9), VertexId::from(9u32));
    }

    #[test]
    fn max_sentinel() {
        assert_eq!(VertexId::MAX.raw(), u32::MAX);
    }
}
