//! Hop-constrained neighbourhoods and query similarity (Definitions 4.4–4.6).
//!
//! For an HC-s-t path query `q(s, t, k)`, `Γ(q)` is the set of vertices reachable from `s`
//! within `k` hops on `G` and `Γr(q)` the set reachable from `t` within `k` hops on `G^r`.
//! Both are read straight out of the batch distance index — the paper stresses that no
//! extra traversal is needed for clustering. The similarity of two queries is
//!
//! ```text
//! µ(qA, qB) = 2 / ( min(|Γ(qA)|, |Γ(qB)|) / |Γ(qA) ∩ Γ(qB)|
//!               +  min(|Γr(qA)|,|Γr(qB)|) / |Γr(qA) ∩ Γr(qB)| )
//! ```
//!
//! (a harmonic mean of the two containment ratios), with the conventions of footnote 1:
//! if both intersections are empty µ = 0; if exactly one is empty its term contributes 0.

use crate::query::PathQuery;
use hcsp_graph::VertexId;
use hcsp_index::BatchIndex;

/// The two hop-constrained neighbourhoods of one query, stored as sorted duplicate-free
/// vertex sets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryNeighborhood {
    /// Γ(q): vertices within `q.k` hops of `q.s` on `G` (sorted).
    pub forward: Vec<VertexId>,
    /// Γr(q): vertices within `q.k` hops of `q.t` on `G^r` (sorted).
    pub backward: Vec<VertexId>,
}

impl QueryNeighborhood {
    /// Extracts both neighbourhoods of `query` from the batch index.
    ///
    /// The index must have been built with a bound of at least `query.hop_limit` and with
    /// `query.source` / `query.target` among its roots, which is exactly how `BatchEnum`
    /// builds it (Alg. 4 lines 1–2).
    pub fn from_index(index: &BatchIndex, query: &PathQuery) -> Self {
        QueryNeighborhood {
            forward: index.gamma_forward(query.source, query.hop_limit),
            backward: index.gamma_backward(query.target, query.hop_limit),
        }
    }
}

/// Size of the intersection of two sorted vertex lists.
fn intersection_size(a: &[VertexId], b: &[VertexId]) -> usize {
    let (mut i, mut j, mut count) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// One direction's contribution to µ: `|A ∩ B| / min(|A|, |B|)` (0 when the intersection or
/// either set is empty).
fn containment(inter: usize, a_len: usize, b_len: usize) -> f64 {
    let min = a_len.min(b_len);
    if inter == 0 || min == 0 {
        0.0
    } else {
        inter as f64 / min as f64
    }
}

/// µ from the two containment ratios.
fn harmonic_mean(forward: f64, backward: f64) -> f64 {
    // µ = 2 / (1/forward + 1/backward) with a zero term contributing 0 to the harmonic
    // mean (footnote 1 of the paper): equivalently 2·f·b / (f + b) when both are positive,
    // and 0 when either is 0 (one empty intersection means the queries cannot share both
    // halves of any path).
    if forward == 0.0 || backward == 0.0 {
        return 0.0;
    }
    2.0 * forward * backward / (forward + backward)
}

/// The HC-s-t path query similarity µ(qA, qB) of Definition 4.5, in `[0, 1]`.
pub fn query_similarity(a: &QueryNeighborhood, b: &QueryNeighborhood) -> f64 {
    let side =
        |a: &[VertexId], b: &[VertexId]| containment(intersection_size(a, b), a.len(), b.len());
    harmonic_mean(side(&a.forward, &b.forward), side(&a.backward, &b.backward))
}

/// One side (all Γ or all Γr) of a batch, prepared for pairwise intersection counts.
///
/// A set that fills at least one bit per 64-bit word of the batch's id span gets a bitset
/// over that span, and two such sets intersect by `AND` + `count_ones` — `span / 64` word
/// operations, never more than the smaller set has elements. Any other pair falls back to
/// the linear merge, so sparse neighbourhoods in a huge id space neither allocate nor scan
/// the span. Both give the same integer.
struct SideSets<'a> {
    sets: Vec<&'a [VertexId]>,
    /// `bits[i]` is empty when set `i` is too sparse for a bitset.
    bits: Vec<Vec<u64>>,
}

impl<'a> SideSets<'a> {
    fn new(sets: Vec<&'a [VertexId]>) -> Self {
        let (mut lo, mut hi) = (usize::MAX, 0);
        for set in &sets {
            for v in set.iter() {
                lo = lo.min(v.index());
                hi = hi.max(v.index());
            }
        }
        let (base, words) = if lo <= hi {
            (lo, (hi - lo) / 64 + 1)
        } else {
            (0, 0)
        };
        let bits = sets
            .iter()
            .map(|set| {
                if set.len() < words {
                    return Vec::new();
                }
                let mut bits = vec![0u64; words];
                for v in set.iter() {
                    let bit = v.index() - base;
                    bits[bit / 64] |= 1 << (bit % 64);
                }
                bits
            })
            .collect();
        SideSets { sets, bits }
    }

    fn containment(&self, i: usize, j: usize) -> f64 {
        let (a, b) = (&self.bits[i], &self.bits[j]);
        let inter = if a.is_empty() || b.is_empty() {
            intersection_size(self.sets[i], self.sets[j])
        } else {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x & y).count_ones() as usize)
                .sum()
        };
        containment(inter, self.sets[i].len(), self.sets[j].len())
    }
}

/// Group similarity δ(C_A, C_B) (Definition 4.6): the average of µ over the Cartesian
/// product of the two groups, given a precomputed pairwise similarity matrix.
pub fn group_similarity(matrix: &SimilarityMatrix, group_a: &[usize], group_b: &[usize]) -> f64 {
    if group_a.is_empty() || group_b.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for &qa in group_a {
        for &qb in group_b {
            total += matrix.get(qa, qb);
        }
    }
    total / (group_a.len() * group_b.len()) as f64
}

/// Symmetric pairwise similarity matrix over a query batch.
#[derive(Debug, Clone)]
pub struct SimilarityMatrix {
    n: usize,
    values: Vec<f64>,
}

impl SimilarityMatrix {
    /// Computes µ for every unordered pair of queries: the values of [`query_similarity`],
    /// with the intersections counted word-parallel wherever the sets are dense enough.
    pub fn compute(neighborhoods: &[QueryNeighborhood]) -> Self {
        let n = neighborhoods.len();
        let forward = SideSets::new(neighborhoods.iter().map(|q| &q.forward[..]).collect());
        let backward = SideSets::new(neighborhoods.iter().map(|q| &q.backward[..]).collect());
        let mut values = vec![0.0; n * n];
        for i in 0..n {
            values[i * n + i] = 1.0;
            for j in (i + 1)..n {
                let sim = harmonic_mean(forward.containment(i, j), backward.containment(i, j));
                values[i * n + j] = sim;
                values[j * n + i] = sim;
            }
        }
        SimilarityMatrix { n, values }
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// µ(q_i, q_j).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.values[i * self.n + j]
    }

    /// Average off-diagonal similarity (µ_Q).
    pub fn average(&self) -> f64 {
        if self.n < 2 {
            return if self.n == 1 { 1.0 } else { 0.0 };
        }
        let mut total = 0.0;
        for i in 0..self.n {
            for j in 0..self.n {
                if i != j {
                    total += self.get(i, j);
                }
            }
        }
        total / (self.n * (self.n - 1)) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcsp_graph::generators::regular::grid;

    fn v(ids: &[u32]) -> Vec<VertexId> {
        ids.iter().map(|&x| VertexId(x)).collect()
    }

    fn nbh(fwd: &[u32], bwd: &[u32]) -> QueryNeighborhood {
        QueryNeighborhood {
            forward: v(fwd),
            backward: v(bwd),
        }
    }

    #[test]
    fn identical_neighborhoods_have_similarity_one() {
        let a = nbh(&[1, 2, 3], &[7, 8]);
        assert!((query_similarity(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_neighborhoods_have_similarity_zero() {
        let a = nbh(&[1, 2], &[3, 4]);
        let b = nbh(&[5, 6], &[7, 8]);
        assert_eq!(query_similarity(&a, &b), 0.0);
    }

    #[test]
    fn one_empty_direction_gives_zero() {
        // Forward sides overlap fully, backward sides are disjoint.
        let a = nbh(&[1, 2], &[3]);
        let b = nbh(&[1, 2], &[9]);
        assert_eq!(query_similarity(&a, &b), 0.0);
    }

    #[test]
    fn subset_neighborhood_scores_one() {
        // If P(qA) ⊆ P(qB) the neighbourhood of A is contained in B's: µ = 1 (property 2).
        let small = nbh(&[1, 2], &[8, 9]);
        let big = nbh(&[1, 2, 3, 4], &[7, 8, 9]);
        assert!((query_similarity(&small, &big) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn similarity_is_symmetric_and_bounded() {
        let a = nbh(&[1, 2, 3, 4], &[10, 11]);
        let b = nbh(&[3, 4, 5], &[11, 12, 13]);
        let ab = query_similarity(&a, &b);
        let ba = query_similarity(&b, &a);
        assert!((ab - ba).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&ab));
        // forward containment = 2/3, backward = 1/2 -> harmonic mean = 2*(2/3)*(1/2)/(7/6).
        let expected = 2.0 * (2.0 / 3.0) * 0.5 / ((2.0 / 3.0) + 0.5);
        assert!((ab - expected).abs() < 1e-12);
    }

    #[test]
    fn matrix_and_batch_average_agree() {
        let ns = vec![nbh(&[1, 2], &[5]), nbh(&[1, 2], &[5]), nbh(&[9], &[8])];
        let matrix = SimilarityMatrix::compute(&ns);
        assert_eq!(matrix.len(), 3);
        assert!(!matrix.is_empty());
        assert!((matrix.get(0, 1) - 1.0).abs() < 1e-12);
        assert_eq!(matrix.get(0, 2), 0.0);
        // Pairs: (0,1)=1, (0,2)=0, (1,2)=0 -> average 1/3.
        assert!((matrix.average() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn group_similarity_averages_cross_pairs() {
        let ns = vec![nbh(&[1], &[2]), nbh(&[1], &[2]), nbh(&[7], &[9])];
        let matrix = SimilarityMatrix::compute(&ns);
        assert!((group_similarity(&matrix, &[0], &[1]) - 1.0).abs() < 1e-12);
        assert_eq!(group_similarity(&matrix, &[0, 1], &[2]), 0.0);
        assert_eq!(group_similarity(&matrix, &[], &[2]), 0.0);
        let mixed = group_similarity(&matrix, &[0], &[1, 2]);
        assert!((mixed - 0.5).abs() < 1e-12);
    }

    #[test]
    fn neighborhoods_from_index_match_definition() {
        let g = grid(3, 3);
        let q = PathQuery::new(0u32, 8u32, 2);
        let index = BatchIndex::build(&g, &[q.source], &[q.target], q.hop_limit);
        let n = QueryNeighborhood::from_index(&index, &q);
        // Vertices within 2 forward hops of 0 in the 3x3 right/down grid.
        assert_eq!(n.forward, v(&[0, 1, 2, 3, 4, 6]));
        // Vertices within 2 backward hops of 8.
        assert_eq!(n.backward, v(&[2, 4, 5, 6, 7, 8]));
    }

    #[test]
    fn degenerate_batches() {
        assert_eq!(SimilarityMatrix::compute(&[nbh(&[1], &[2])]).average(), 1.0);
        let empty_matrix = SimilarityMatrix::compute(&[]);
        assert_eq!(empty_matrix.average(), 0.0);
        assert!(empty_matrix.is_empty());
    }
}
