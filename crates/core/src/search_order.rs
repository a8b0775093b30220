//! Neighbour expansion order.
//!
//! `BasicEnum+` and `BatchEnum+` are "the same algorithms with an optimized search order
//! introduced by PathEnum" (§V "Algorithms"). The plain variants expand out-neighbours in
//! CSR (vertex-id) order; the optimized variants expand neighbours closest to the query
//! anchor first (ties broken towards low-degree vertices), which finds failing branches
//! earlier and improves memory locality of the index lookups. The produced *path set* is
//! identical for both orders — only the traversal order, and therefore the running time,
//! differs.

/// Which order neighbours are expanded in during the half searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SearchOrder {
    /// CSR (increasing vertex id) order — `PathEnum` / `BasicEnum` / `BatchEnum`.
    #[default]
    VertexId,
    /// Distance-to-anchor order, ties broken by increasing degree —
    /// `BasicEnum+` / `BatchEnum+`.
    DistanceThenDegree,
}

impl SearchOrder {
    /// Human-readable suffix used by experiment output ("" or "+").
    pub fn suffix(self) -> &'static str {
        match self {
            SearchOrder::VertexId => "",
            SearchOrder::DistanceThenDegree => "+",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suffixes() {
        assert_eq!(SearchOrder::VertexId.suffix(), "");
        assert_eq!(SearchOrder::DistanceThenDegree.suffix(), "+");
        assert_eq!(SearchOrder::default(), SearchOrder::VertexId);
    }
}
