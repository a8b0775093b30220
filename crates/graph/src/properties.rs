//! Graph statistics matching Table I of the paper (|V|, |E|, average and maximum degree).

use crate::digraph::{DiGraph, Direction};
use crate::traversal;
use crate::vertex::VertexId;

/// Degree and size statistics of a directed graph.
///
/// The paper's Table I reports `|V|`, `|E|`, `d_avg` and `d_max`. Table I treats degree as
/// total (in + out) degree; both the total and the per-direction maxima are kept here so
/// the analog datasets can be validated against either convention.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Number of directed edges.
    pub num_edges: usize,
    /// Average total degree `(in + out) / n`, i.e. `2|E| / |V|` — but reported as
    /// `|E| / |V|`-style *average out-degree times two* exactly as commonly tabulated.
    pub avg_degree: f64,
    /// Maximum total degree over all vertices.
    pub max_degree: usize,
    /// Maximum out-degree.
    pub max_out_degree: usize,
    /// Maximum in-degree.
    pub max_in_degree: usize,
    /// Number of vertices with no incident edge at all.
    pub isolated_vertices: usize,
}

impl GraphStats {
    /// Computes statistics with a single pass over the vertex set.
    pub fn compute(graph: &DiGraph) -> Self {
        let n = graph.num_vertices();
        let m = graph.num_edges();
        let mut max_degree = 0usize;
        let mut max_out = 0usize;
        let mut max_in = 0usize;
        let mut isolated = 0usize;
        for v in graph.vertices() {
            let dout = graph.out_degree(v);
            let din = graph.in_degree(v);
            max_out = max_out.max(dout);
            max_in = max_in.max(din);
            max_degree = max_degree.max(dout + din);
            if dout + din == 0 {
                isolated += 1;
            }
        }
        let avg_degree = if n == 0 {
            0.0
        } else {
            2.0 * m as f64 / n as f64
        };
        GraphStats {
            num_vertices: n,
            num_edges: m,
            avg_degree,
            max_degree,
            max_out_degree: max_out,
            max_in_degree: max_in,
            isolated_vertices: isolated,
        }
    }

    /// Formats the statistics as a Table-I style row: `name |V| |E| d_avg d_max`.
    pub fn table_row(&self, name: &str) -> String {
        format!(
            "{:<12} {:>10} {:>12} {:>8.1} {:>10}",
            name, self.num_vertices, self.num_edges, self.avg_degree, self.max_degree
        )
    }
}

/// Fraction of `samples` random ordered vertex pairs `(s, t)` where `t` is reachable from
/// `s` within `max_hops` hops. Used to sanity-check that generated analog datasets admit
/// enough hop-bounded reachable pairs for query generation.
pub fn bounded_reachability_ratio(
    graph: &DiGraph,
    max_hops: u32,
    samples: usize,
    seed: u64,
) -> f64 {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    if graph.num_vertices() < 2 || samples == 0 {
        return 0.0;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scratch = traversal::VisitScratch::new();
    let mut hits = 0usize;
    for _ in 0..samples {
        let s = VertexId::new(rng.gen_range(0..graph.num_vertices()));
        let t = VertexId::new(rng.gen_range(0..graph.num_vertices()));
        if s == t {
            continue;
        }
        let reached =
            traversal::bfs_visit_bounded(graph, s, Direction::Forward, max_hops, &mut scratch);
        if reached.iter().any(|&(v, _)| v == t) {
            hits += 1;
        }
    }
    hits as f64 / samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::regular::{complete, path, star};

    #[test]
    fn stats_of_complete_graph() {
        let g = complete(6);
        let s = GraphStats::compute(&g);
        assert_eq!(s.num_vertices, 6);
        assert_eq!(s.num_edges, 30);
        assert_eq!(s.max_out_degree, 5);
        assert_eq!(s.max_in_degree, 5);
        assert_eq!(s.max_degree, 10);
        assert_eq!(s.isolated_vertices, 0);
        assert!((s.avg_degree - 10.0).abs() < 1e-9);
    }

    #[test]
    fn stats_of_star_identifies_hub() {
        let g = star(7);
        let s = GraphStats::compute(&g);
        assert_eq!(s.max_out_degree, 7);
        assert_eq!(s.max_in_degree, 7);
        assert_eq!(s.max_degree, 14);
    }

    #[test]
    fn isolated_vertices_are_counted() {
        let mut b = crate::GraphBuilder::new();
        b.add_edge(VertexId(0), VertexId(1));
        b.reserve_vertices(5);
        let s = GraphStats::compute(&b.build());
        assert_eq!(s.isolated_vertices, 3);
    }

    #[test]
    fn empty_graph_stats() {
        let g = DiGraph::from_edge_list(0, &[]).unwrap();
        let s = GraphStats::compute(&g);
        assert_eq!(s.num_vertices, 0);
        assert_eq!(s.avg_degree, 0.0);
    }

    #[test]
    fn table_row_contains_name_and_counts() {
        let row = GraphStats::compute(&path(4)).table_row("PATH");
        assert!(row.contains("PATH"));
        assert!(row.contains('4'));
        assert!(row.contains('3'));
    }

    #[test]
    fn reachability_ratio_bounds() {
        let g = complete(10);
        let r = bounded_reachability_ratio(&g, 1, 200, 1);
        assert!(
            r > 0.8,
            "complete graph should be almost fully 1-hop reachable, got {r}"
        );
        let p = path(50);
        let r2 = bounded_reachability_ratio(&p, 2, 200, 1);
        assert!(
            r2 < 0.3,
            "long path should have low 2-hop reachability, got {r2}"
        );
        assert_eq!(
            bounded_reachability_ratio(&DiGraph::from_edge_list(1, &[]).unwrap(), 3, 10, 0),
            0.0
        );
    }
}
