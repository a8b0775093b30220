//! `ClusterQuery` — hierarchical query clustering (Algorithm 2, Phase 1 of §IV-B).
//!
//! Queries are grouped agglomeratively: starting from singleton clusters, the pair of
//! clusters with the highest group similarity δ (Definition 4.6) is merged repeatedly
//! until no pair exceeds the threshold γ. Queries inside one cluster then go through
//! common HC-s path query detection together; queries in different clusters share nothing.

use crate::query::QueryId;
use crate::similarity::{group_similarity, SimilarityMatrix};

/// The result of clustering: each inner vector holds the query ids of one cluster.
pub type Clusters = Vec<Vec<QueryId>>;

/// Runs Algorithm 2 with threshold `gamma` over a precomputed similarity matrix.
///
/// The implementation is the textbook agglomerative procedure of the paper (quadratic in
/// the number of clusters per merge). Query batches in the evaluation have at most a few
/// hundred queries, for which this is far below the enumeration cost — which is exactly
/// the claim Exp-3 verifies.
pub fn cluster_queries(matrix: &SimilarityMatrix, gamma: f64) -> Clusters {
    let n = matrix.len();
    let mut clusters: Clusters = (0..n).map(|q| vec![q]).collect();
    if n <= 1 {
        return clusters;
    }
    loop {
        // Find the most similar pair of current clusters (lines 3-7).
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..clusters.len() {
            for j in (i + 1)..clusters.len() {
                let sim = group_similarity(matrix, &clusters[i], &clusters[j]);
                if best.is_none_or(|(_, _, s)| sim > s) {
                    best = Some((i, j, sim));
                }
            }
        }
        // Merge if above threshold (lines 8-9), otherwise stop (line 2 condition).
        match best {
            Some((i, j, sim)) if sim > gamma => {
                let merged = clusters.swap_remove(j);
                clusters[i].extend(merged);
                clusters[i].sort_unstable();
            }
            _ => break,
        }
        if clusters.len() == 1 {
            break;
        }
    }
    // Deterministic output order regardless of the merge sequence.
    for c in &mut clusters {
        c.sort_unstable();
    }
    clusters.sort_by_key(|c| c[0]);
    clusters
}

/// Convenience: the size distribution of a clustering.
pub fn cluster_sizes(clusters: &Clusters) -> Vec<usize> {
    let mut sizes: Vec<usize> = clusters.iter().map(Vec::len).collect();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::QueryNeighborhood;
    use hcsp_graph::VertexId;

    fn nbh(fwd: &[u32], bwd: &[u32]) -> QueryNeighborhood {
        QueryNeighborhood {
            forward: fwd.iter().map(|&x| VertexId(x)).collect(),
            backward: bwd.iter().map(|&x| VertexId(x)).collect(),
        }
    }

    #[test]
    fn similar_queries_merge_dissimilar_stay_apart() {
        // Queries 0 and 1 share everything; query 2 shares nothing.
        let ns = vec![
            nbh(&[1, 2, 3], &[9]),
            nbh(&[1, 2, 3], &[9]),
            nbh(&[50], &[60]),
        ];
        let matrix = SimilarityMatrix::compute(&ns);
        let clusters = cluster_queries(&matrix, 0.8);
        assert_eq!(clusters, vec![vec![0, 1], vec![2]]);
        assert_eq!(cluster_sizes(&clusters), vec![2, 1]);
    }

    #[test]
    fn gamma_one_keeps_everything_separate() {
        let ns = vec![nbh(&[1], &[2]), nbh(&[1], &[2]), nbh(&[1], &[2])];
        let matrix = SimilarityMatrix::compute(&ns);
        // δ never exceeds 1, and the merge condition is strict (> γ), so γ = 1 disables
        // clustering entirely.
        let clusters = cluster_queries(&matrix, 1.0);
        assert_eq!(clusters.len(), 3);
    }

    #[test]
    fn gamma_zero_merges_any_overlap() {
        // Chain of pairwise overlaps: 0-1 overlap, 1-2 overlap, 0-2 none.
        let ns = vec![
            nbh(&[1, 2], &[10, 11]),
            nbh(&[2, 3], &[11, 12]),
            nbh(&[3, 4], &[12, 13]),
        ];
        let matrix = SimilarityMatrix::compute(&ns);
        let clusters = cluster_queries(&matrix, 0.0);
        // Everything with positive transitive similarity collapses into one cluster.
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0], vec![0, 1, 2]);
    }

    #[test]
    fn totally_dissimilar_queries_never_merge_even_at_gamma_zero() {
        let ns = vec![nbh(&[1], &[2]), nbh(&[3], &[4]), nbh(&[5], &[6])];
        let matrix = SimilarityMatrix::compute(&ns);
        // All pairwise similarities are exactly 0, which is not > 0.
        let clusters = cluster_queries(&matrix, 0.0);
        assert_eq!(clusters.len(), 3);
    }

    #[test]
    fn paper_example_4_1_shape() {
        // Mimic Example 4.1: q0,q1,q2 highly similar; q3,q4 highly similar; the two groups
        // share little. Exact µ values differ from the paper's graph, but the clustering
        // outcome {q0,q1,q2} {q3,q4} at γ=0.8 must match.
        let ns = vec![
            nbh(&[1, 4, 7, 9, 10], &[12, 6, 10]),
            nbh(&[1, 4, 7, 9, 10, 2], &[12, 6, 10, 13]),
            nbh(&[1, 4, 7, 9, 10, 5], &[12, 6, 10, 11]),
            nbh(&[40, 41, 42, 9], &[50, 51]),
            nbh(&[40, 41, 42], &[50, 51, 52]),
        ];
        let matrix = SimilarityMatrix::compute(&ns);
        let clusters = cluster_queries(&matrix, 0.8);
        assert_eq!(clusters, vec![vec![0, 1, 2], vec![3, 4]]);
    }

    #[test]
    fn degenerate_inputs() {
        let empty = SimilarityMatrix::compute(&[]);
        assert!(cluster_queries(&empty, 0.5).is_empty());
        let single = SimilarityMatrix::compute(&[nbh(&[1], &[2])]);
        assert_eq!(cluster_queries(&single, 0.5), vec![vec![0]]);
    }
}
