//! Query types: HC-s-t path queries (the user-facing batch) and HC-s path queries (the
//! shared sub-structure of Definition 4.2).

use hcsp_graph::{Direction, VertexId};
use std::fmt;

/// Identifier of an HC-s-t path query inside a batch (its position in the input slice).
pub type QueryId = usize;

/// A hop-constrained s-t simple path query `q(s, t, k)`.
///
/// The answer is every simple path from `s` to `t` with at most `k` hops (edges).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PathQuery {
    /// Source vertex `s`.
    pub source: VertexId,
    /// Target vertex `t`.
    pub target: VertexId,
    /// Hop constraint `k` (maximum number of edges on a returned path).
    pub hop_limit: u32,
}

impl PathQuery {
    /// Creates a query from raw ids.
    pub fn new(source: impl Into<VertexId>, target: impl Into<VertexId>, hop_limit: u32) -> Self {
        PathQuery {
            source: source.into(),
            target: target.into(),
            hop_limit,
        }
    }

    /// Hop budget of the forward half of the bidirectional search, `⌈k/2⌉`.
    #[inline]
    pub fn forward_budget(&self) -> u32 {
        self.hop_limit.div_ceil(2)
    }

    /// Hop budget of the backward half of the bidirectional search, `⌊k/2⌋`.
    #[inline]
    pub fn backward_budget(&self) -> u32 {
        self.hop_limit / 2
    }

    /// Hop budget of the half search in the given direction.
    #[inline]
    pub fn budget(&self, dir: Direction) -> u32 {
        match dir {
            Direction::Forward => self.forward_budget(),
            Direction::Backward => self.backward_budget(),
        }
    }

    /// The root vertex of the half search in the given direction (`s` forward, `t` backward).
    #[inline]
    pub fn root(&self, dir: Direction) -> VertexId {
        match dir {
            Direction::Forward => self.source,
            Direction::Backward => self.target,
        }
    }

    /// The "anchor" the half search is heading towards (`t` forward, `s` backward); pruning
    /// compares remaining budget against the indexed distance to this anchor.
    #[inline]
    pub fn anchor(&self, dir: Direction) -> VertexId {
        match dir {
            Direction::Forward => self.target,
            Direction::Backward => self.source,
        }
    }

    /// The HC-s path query representing this query's half search in direction `dir`
    /// (`q_{s,⌈k/2⌉,G}` or `q_{t,⌊k/2⌋,G^r}`).
    pub fn half_query(&self, dir: Direction) -> HcsQuery {
        HcsQuery {
            root: self.root(dir),
            budget: self.budget(dir),
            direction: dir,
        }
    }
}

impl fmt::Display for PathQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q({}, {}, {})", self.source, self.target, self.hop_limit)
    }
}

/// An HC-s path query `q_{v,k,G}` (Definition 4.2): all simple paths starting from `root`
/// with at most `budget` hops in the given direction (`Forward` = on `G`, `Backward` = on
/// `G^r`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HcsQuery {
    /// The single source vertex the paths start from.
    pub root: VertexId,
    /// Maximum number of hops of an enumerated path.
    pub budget: u32,
    /// Which graph the paths live on: `Forward` for `G`, `Backward` for `G^r`.
    pub direction: Direction,
}

impl HcsQuery {
    /// Creates an HC-s path query.
    pub fn new(root: impl Into<VertexId>, budget: u32, direction: Direction) -> Self {
        HcsQuery {
            root: root.into(),
            budget,
            direction,
        }
    }

    /// HC-s path query domination `≺` (Definition 4.3): `self ≺ other` when `self` is
    /// rooted `d` hops "downstream" of `other` and `self.budget ≤ other.budget − d`, so
    /// every path of `self` is a sub-path of some continuation of `other`.
    ///
    /// `dist` must be the hop distance from `other.root` to `self.root` in the shared
    /// direction (`None` when unreachable, in which case no domination holds).
    pub fn dominates_within(&self, other: &HcsQuery, dist: Option<u32>) -> bool {
        if self.direction != other.direction {
            return false;
        }
        match dist {
            Some(d) => self.budget <= other.budget.saturating_sub(d),
            None => false,
        }
    }

    /// Whether `self`'s materialised results are sufficient to answer a request for paths
    /// from the same root with `needed_budget` hops (i.e. a superset check).
    #[inline]
    pub fn covers_budget(&self, needed_budget: u32) -> bool {
        self.budget >= needed_budget
    }
}

impl fmt::Display for HcsQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q_{{{},{},{}}}", self.root, self.budget, self.direction)
    }
}

/// Summary of a batch of HC-s-t path queries: distinct sources, targets and the largest
/// hop constraint; exactly the inputs of the index construction (Alg. 1 / Alg. 4 line 1).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchSummary {
    /// Distinct source vertices `S = ∪ q.s`.
    pub sources: Vec<VertexId>,
    /// Distinct target vertices `T = ∪ q.t`.
    pub targets: Vec<VertexId>,
    /// Largest hop constraint in the batch.
    pub max_hop_limit: u32,
}

impl BatchSummary {
    /// Computes the summary of a query slice.
    pub fn of(queries: &[PathQuery]) -> Self {
        let mut sources: Vec<VertexId> = queries.iter().map(|q| q.source).collect();
        let mut targets: Vec<VertexId> = queries.iter().map(|q| q.target).collect();
        sources.sort_unstable();
        sources.dedup();
        targets.sort_unstable();
        targets.dedup();
        let max_hop_limit = queries.iter().map(|q| q.hop_limit).max().unwrap_or(0);
        BatchSummary {
            sources,
            targets,
            max_hop_limit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: u32) -> VertexId {
        VertexId(x)
    }

    #[test]
    fn budgets_split_the_hop_limit() {
        let q = PathQuery::new(1u32, 2u32, 5);
        assert_eq!(q.forward_budget(), 3);
        assert_eq!(q.backward_budget(), 2);
        assert_eq!(q.forward_budget() + q.backward_budget(), q.hop_limit);

        let even = PathQuery::new(1u32, 2u32, 4);
        assert_eq!(even.forward_budget(), 2);
        assert_eq!(even.backward_budget(), 2);

        let one = PathQuery::new(1u32, 2u32, 1);
        assert_eq!(one.forward_budget(), 1);
        assert_eq!(one.backward_budget(), 0);
    }

    #[test]
    fn roots_anchors_and_half_queries() {
        let q = PathQuery::new(3u32, 9u32, 6);
        assert_eq!(q.root(Direction::Forward), v(3));
        assert_eq!(q.root(Direction::Backward), v(9));
        assert_eq!(q.anchor(Direction::Forward), v(9));
        assert_eq!(q.anchor(Direction::Backward), v(3));
        assert_eq!(
            q.half_query(Direction::Forward),
            HcsQuery::new(3u32, 3, Direction::Forward)
        );
        assert_eq!(
            q.half_query(Direction::Backward),
            HcsQuery::new(9u32, 3, Direction::Backward)
        );
        assert_eq!(q.budget(Direction::Forward), 3);
    }

    #[test]
    fn domination_follows_definition_4_3() {
        let big = HcsQuery::new(0u32, 3, Direction::Forward);
        let nested = HcsQuery::new(5u32, 2, Direction::Forward);
        // dist(big.root, nested.root) = 1  and  2 <= 3 - 1.
        assert!(nested.dominates_within(&big, Some(1)));
        // Budget too large for the distance.
        assert!(!HcsQuery::new(5u32, 3, Direction::Forward).dominates_within(&big, Some(1)));
        // Unreachable root never dominates.
        assert!(!nested.dominates_within(&big, None));
        // Directions must match.
        let backward = HcsQuery::new(5u32, 1, Direction::Backward);
        assert!(!backward.dominates_within(&big, Some(1)));
        // Saturating arithmetic: distance larger than budget.
        assert!(!nested.dominates_within(&big, Some(10)));
    }

    #[test]
    fn covers_budget_is_a_superset_check() {
        let q = HcsQuery::new(1u32, 3, Direction::Forward);
        assert!(q.covers_budget(3));
        assert!(q.covers_budget(1));
        assert!(!q.covers_budget(4));
    }

    #[test]
    fn batch_summary_dedups_endpoints() {
        let queries = vec![
            PathQuery::new(0u32, 5u32, 4),
            PathQuery::new(0u32, 6u32, 7),
            PathQuery::new(2u32, 5u32, 3),
        ];
        let s = BatchSummary::of(&queries);
        assert_eq!(s.sources, vec![v(0), v(2)]);
        assert_eq!(s.targets, vec![v(5), v(6)]);
        assert_eq!(s.max_hop_limit, 7);
        assert_eq!(BatchSummary::of(&[]).max_hop_limit, 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(PathQuery::new(0u32, 11u32, 5).to_string(), "q(v0, v11, 5)");
        assert_eq!(
            HcsQuery::new(1u32, 2, Direction::Forward).to_string(),
            "q_{v1,2,G}"
        );
    }
}
