//! Query-set generation.
//!
//! The paper's settings (§V): "the default query set size is 100 where the hop constraint
//! k of queries uniformly varies from 4 to 7, and the queries are generated by randomly
//! selecting pairs (s, t) such that s can reach t in k hops." Exp-1 additionally varies
//! the *similarity* of the query set from 0 % to 90 %; [`similar_query_set`] provides that
//! knob by mixing groups of near-identical queries with independent random queries, and
//! the measured average similarity µ_Q is reported (by `examples/paper_sweeps.rs`) rather
//! than assumed.

use hcsp_core::PathQuery;
use hcsp_graph::traversal::{bfs_visit_bounded, VisitScratch};
use hcsp_graph::{DiGraph, Direction, VertexId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Parameters of a generated query set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuerySetSpec {
    /// Number of queries.
    pub size: usize,
    /// Smallest hop constraint (inclusive).
    pub k_min: u32,
    /// Largest hop constraint (inclusive).
    pub k_max: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for QuerySetSpec {
    fn default() -> Self {
        // The paper's default workload: 100 queries, k uniform in [4, 7].
        QuerySetSpec {
            size: 100,
            k_min: 4,
            k_max: 7,
            seed: 42,
        }
    }
}

impl QuerySetSpec {
    /// Creates a spec with the paper's default k range.
    pub fn new(size: usize, seed: u64) -> Self {
        QuerySetSpec {
            size,
            seed,
            ..Default::default()
        }
    }

    /// Overrides the hop-constraint range.
    pub fn with_hops(mut self, k_min: u32, k_max: u32) -> Self {
        self.k_min = k_min;
        self.k_max = k_max.max(k_min);
        self
    }
}

/// Draws one `(s, t, k)` query such that `t` is reachable from `s` within `k` hops,
/// returning the query together with the BFS distance from `s` to `t`.
///
/// Returns `None` if no admissible pair is found after a bounded number of attempts
/// (pathological graphs only). Shared with the update-stream generator so evolving-graph
/// streams draw queries by exactly the paper's rule.
pub(crate) fn draw_reachable_query(
    graph: &DiGraph,
    k_min: u32,
    k_max: u32,
    rng: &mut StdRng,
    scratch: &mut VisitScratch,
) -> Option<(PathQuery, u32)> {
    let n = graph.num_vertices();
    if n < 2 {
        return None;
    }
    for _ in 0..256 {
        let s = VertexId::new(rng.gen_range(0..n));
        let k = rng.gen_range(k_min..=k_max);
        let reached = bfs_visit_bounded(graph, s, Direction::Forward, k, scratch);
        // Candidate targets: anything reachable other than the source itself.
        let candidates: Vec<(VertexId, u32)> =
            reached.iter().copied().filter(|&(v, _)| v != s).collect();
        if candidates.is_empty() {
            continue;
        }
        let (t, dist) = candidates[rng.gen_range(0..candidates.len())];
        return Some((PathQuery::new(s, t, k), dist));
    }
    None
}

/// Generates the paper's default workload: `spec.size` random queries with reachable
/// `(s, t)` pairs and hop constraints uniform in `[k_min, k_max]`.
pub fn random_query_set(graph: &DiGraph, spec: QuerySetSpec) -> Vec<PathQuery> {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut scratch = VisitScratch::new();
    let mut queries = Vec::with_capacity(spec.size);
    while queries.len() < spec.size {
        match draw_reachable_query(graph, spec.k_min, spec.k_max, &mut rng, &mut scratch) {
            Some((q, _)) => queries.push(q),
            None => break,
        }
    }
    queries
}

/// Generates a query set whose *average pairwise similarity* is approximately
/// `target_similarity ∈ [0, 1]` (the x-axis of Fig. 7).
///
/// The construction mixes "shared groups" with independent queries: a group of `g` queries
/// built around the same `(s, t)` pair has pairwise similarity ≈ 1, and unrelated random
/// queries have similarity ≈ 0, so choosing `g ≈ target · (size − 1) + 1` yields an average
/// close to the target. Within a group the hop constraint varies uniformly in
/// `[max(k_min, dist(s, t)), k_max]`, so a group holds at most that many distinct queries
/// and a large group repeats them literally. `paper_sweeps` reports the *measured* µ_Q of
/// the generated set, exactly like the paper reports measured similarity.
pub fn similar_query_set(
    graph: &DiGraph,
    spec: QuerySetSpec,
    target_similarity: f64,
) -> Vec<PathQuery> {
    let target = target_similarity.clamp(0.0, 1.0);
    if spec.size == 0 {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x51AB);
    let mut scratch = VisitScratch::new();

    // Group size chosen so that within-group pairs alone produce the target average.
    let group_size =
        ((target * (spec.size.saturating_sub(1)) as f64).round() as usize + 1).clamp(1, spec.size);
    let mut queries = Vec::with_capacity(spec.size);

    while queries.len() < spec.size {
        let remaining = spec.size - queries.len();
        let this_group = group_size.min(remaining);
        let Some((anchor, dist)) =
            draw_reachable_query(graph, spec.k_min, spec.k_max, &mut rng, &mut scratch)
        else {
            break;
        };
        if this_group == 1 {
            queries.push(anchor);
            continue;
        }
        // The group reuses the anchor's endpoints, so every member's hop constraint must
        // still admit the pair: k may not drop below the actual s -> t distance (which the
        // anchor draw already computed).
        let k_floor = spec.k_min.max(dist);
        for _ in 0..this_group {
            // Same endpoints, independently drawn hop constraint: Γ/Γr overlap almost
            // completely, so the pairwise similarity within the group is close to 1.
            let k = rng.gen_range(k_floor..=spec.k_max);
            queries.push(PathQuery::new(anchor.source, anchor.target, k));
        }
    }
    queries.truncate(spec.size);
    // Shuffle so grouped queries are not adjacent (clustering must find them, not benefit
    // from input order).
    queries.shuffle(&mut rng);
    queries
}

/// Generates the Exp-2 size sweep: one random query set per requested size, all drawn with
/// the same base seed so smaller sets are not prefixes of larger ones.
pub fn size_sweep(graph: &DiGraph, sizes: &[usize], base: QuerySetSpec) -> Vec<Vec<PathQuery>> {
    sizes
        .iter()
        .enumerate()
        .map(|(i, &size)| {
            random_query_set(
                graph,
                QuerySetSpec {
                    size,
                    seed: base.seed.wrapping_add(i as u64 + 1),
                    ..base
                },
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{Dataset, DatasetScale};
    use hcsp_core::query::BatchSummary;
    use hcsp_core::similarity::{QueryNeighborhood, SimilarityMatrix};
    use hcsp_graph::generators::regular::{complete, path};
    use hcsp_graph::traversal::reaches_within;
    use hcsp_index::BatchIndex;

    fn measured_similarity(graph: &DiGraph, queries: &[PathQuery]) -> f64 {
        let summary = BatchSummary::of(queries);
        let index = BatchIndex::build(
            graph,
            &summary.sources,
            &summary.targets,
            summary.max_hop_limit,
        );
        let neighborhoods: Vec<QueryNeighborhood> = queries
            .iter()
            .map(|q| QueryNeighborhood::from_index(&index, q))
            .collect();
        SimilarityMatrix::compute(&neighborhoods).average()
    }

    #[test]
    fn random_queries_are_reachable_within_k() {
        let g = Dataset::EP.build(DatasetScale::Tiny);
        let queries = random_query_set(&g, QuerySetSpec::new(30, 7));
        assert_eq!(queries.len(), 30);
        for q in &queries {
            assert_ne!(q.source, q.target);
            assert!((4..=7).contains(&q.hop_limit));
            assert!(
                reaches_within(&g, q.source, q.target, q.hop_limit),
                "{q} unreachable"
            );
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let g = Dataset::WT.build(DatasetScale::Tiny);
        let a = random_query_set(&g, QuerySetSpec::new(20, 3));
        let b = random_query_set(&g, QuerySetSpec::new(20, 3));
        let c = random_query_set(&g, QuerySetSpec::new(20, 4));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn hop_range_override_is_respected() {
        let g = complete(30);
        let queries = random_query_set(&g, QuerySetSpec::new(25, 1).with_hops(2, 3));
        assert!(queries.iter().all(|q| (2..=3).contains(&q.hop_limit)));
        // Degenerate range where max < min is normalised.
        let spec = QuerySetSpec::new(5, 1).with_hops(4, 2);
        assert_eq!((spec.k_min, spec.k_max), (4, 4));
    }

    #[test]
    fn similarity_knob_orders_measured_similarity() {
        // A large sparse grid keeps k-hop neighbourhoods local, so the knob is visible in
        // the measured similarity (on tiny dense social analogs every neighbourhood covers
        // most of the graph and µ saturates regardless of the query set).
        let g = hcsp_graph::generators::regular::grid(40, 40);
        let spec = QuerySetSpec::new(24, 11).with_hops(3, 4);
        let low = similar_query_set(&g, spec, 0.0);
        let mid = similar_query_set(&g, spec, 0.5);
        let high = similar_query_set(&g, spec, 0.9);
        assert_eq!(low.len(), 24);
        assert_eq!(high.len(), 24);
        let (s_low, s_mid, s_high) = (
            measured_similarity(&g, &low),
            measured_similarity(&g, &mid),
            measured_similarity(&g, &high),
        );
        assert!(s_low < s_mid, "low {s_low} !< mid {s_mid}");
        assert!(s_mid < s_high, "mid {s_mid} !< high {s_high}");
        assert!(
            s_high > 0.6,
            "high-similarity set should measure high, got {s_high}"
        );
    }

    #[test]
    fn similar_queries_remain_reachable() {
        let g = Dataset::BS.build(DatasetScale::Tiny);
        let queries = similar_query_set(&g, QuerySetSpec::new(16, 5).with_hops(3, 5), 0.7);
        for q in &queries {
            assert!(reaches_within(&g, q.source, q.target, q.hop_limit));
        }
    }

    #[test]
    fn size_sweep_produces_requested_sizes() {
        let g = Dataset::EP.build(DatasetScale::Tiny);
        let sweep = size_sweep(&g, &[10, 20, 30], QuerySetSpec::new(0, 9).with_hops(3, 4));
        assert_eq!(sweep.len(), 3);
        assert_eq!(sweep[0].len(), 10);
        assert_eq!(sweep[1].len(), 20);
        assert_eq!(sweep[2].len(), 30);
        assert_ne!(sweep[0], sweep[1][..10].to_vec());
    }

    #[test]
    fn degenerate_graphs_do_not_hang() {
        let lonely = path(1);
        assert!(random_query_set(&lonely, QuerySetSpec::new(5, 1)).is_empty());
        let tiny = path(2);
        let queries = random_query_set(&tiny, QuerySetSpec::new(3, 1).with_hops(1, 2));
        assert!(queries
            .iter()
            .all(|q| q.source == VertexId(0) && q.target == VertexId(1)));
        assert!(similar_query_set(&tiny, QuerySetSpec::new(0, 1), 0.5).is_empty());
    }
}
