//! Connectivity structure: strongly/weakly connected components and degree histograms.
//!
//! The evaluation datasets of the paper are social/web graphs with one giant (strongly or
//! weakly) connected component and a heavy-tailed degree distribution; these routines let
//! the workload layer verify that the synthetic analogs keep that shape.

use crate::digraph::{DiGraph, Direction};
use crate::vertex::VertexId;

/// A labelling of every vertex with a component id, plus the component sizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentLabels {
    /// `component[v] = id` of the component containing `v`.
    pub component: Vec<u32>,
    /// `sizes[id]` = number of vertices in component `id`.
    pub sizes: Vec<usize>,
}

impl ComponentLabels {
    /// Number of components.
    pub fn num_components(&self) -> usize {
        self.sizes.len()
    }

    /// Size of the largest component (0 for an empty graph).
    pub fn largest(&self) -> usize {
        self.sizes.iter().copied().max().unwrap_or(0)
    }

    /// Fraction of vertices inside the largest component.
    pub fn largest_ratio(&self) -> f64 {
        if self.component.is_empty() {
            return 0.0;
        }
        self.largest() as f64 / self.component.len() as f64
    }

    /// Whether two vertices share a component.
    pub fn same_component(&self, u: VertexId, v: VertexId) -> bool {
        self.component[u.index()] == self.component[v.index()]
    }
}

/// Computes the *weakly* connected components (edge direction ignored) with a union-find.
pub fn weakly_connected_components(graph: &DiGraph) -> ComponentLabels {
    let n = graph.num_vertices();
    let mut parent: Vec<u32> = (0..n as u32).collect();

    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }

    for (u, v) in graph.edges() {
        let ru = find(&mut parent, u.raw());
        let rv = find(&mut parent, v.raw());
        if ru != rv {
            parent[ru as usize] = rv;
        }
    }

    // Relabel roots densely.
    let mut component = vec![0u32; n];
    let mut ids: Vec<i64> = vec![-1; n];
    let mut sizes: Vec<usize> = Vec::new();
    for v in 0..n as u32 {
        let root = find(&mut parent, v);
        let id = if ids[root as usize] >= 0 {
            ids[root as usize] as u32
        } else {
            let fresh = sizes.len() as u32;
            ids[root as usize] = fresh as i64;
            sizes.push(0);
            fresh
        };
        component[v as usize] = id;
        sizes[id as usize] += 1;
    }
    ComponentLabels { component, sizes }
}

/// Computes the *strongly* connected components with Tarjan's algorithm (iterative, so
/// deep graphs cannot overflow the call stack).
pub fn strongly_connected_components(graph: &DiGraph) -> ComponentLabels {
    let n = graph.num_vertices();
    const UNVISITED: u32 = u32::MAX;
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut component = vec![0u32; n];
    let mut sizes: Vec<usize> = Vec::new();
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;

    // Explicit DFS frames: (vertex, next neighbour position).
    let mut frames: Vec<(u32, usize)> = Vec::new();

    for start in 0..n as u32 {
        if index[start as usize] != UNVISITED {
            continue;
        }
        frames.push((start, 0));
        index[start as usize] = next_index;
        lowlink[start as usize] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start as usize] = true;

        while let Some(&mut (v, ref mut next_pos)) = frames.last_mut() {
            let neighbors = graph.out_neighbors(VertexId(v));
            if *next_pos < neighbors.len() {
                let w = neighbors[*next_pos].raw();
                *next_pos += 1;
                if index[w as usize] == UNVISITED {
                    index[w as usize] = next_index;
                    lowlink[w as usize] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w as usize] = true;
                    frames.push((w, 0));
                } else if on_stack[w as usize] {
                    lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    lowlink[parent as usize] = lowlink[parent as usize].min(lowlink[v as usize]);
                }
                if lowlink[v as usize] == index[v as usize] {
                    // v is the root of an SCC: pop the stack down to v.
                    let id = sizes.len() as u32;
                    sizes.push(0);
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        component[w as usize] = id;
                        sizes[id as usize] += 1;
                        if w == v {
                            break;
                        }
                    }
                }
            }
        }
    }
    ComponentLabels { component, sizes }
}

/// A log-2 bucketed degree histogram: `buckets[i]` counts vertices with degree in
/// `[2^i, 2^(i+1))` (bucket 0 additionally holds degree-0 vertices).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DegreeHistogram {
    /// Bucket counts, index = floor(log2(degree)) (degree 0 and 1 both land in bucket 0).
    pub buckets: Vec<usize>,
}

impl DegreeHistogram {
    /// Builds the histogram for the requested direction (`Forward` = out-degree,
    /// `Backward` = in-degree).
    pub fn compute(graph: &DiGraph, dir: Direction) -> Self {
        let mut buckets: Vec<usize> = Vec::new();
        for v in graph.vertices() {
            let degree = graph.degree(v, dir);
            let bucket = if degree <= 1 {
                0
            } else {
                (usize::BITS - 1 - degree.leading_zeros()) as usize
            };
            if bucket >= buckets.len() {
                buckets.resize(bucket + 1, 0);
            }
            buckets[bucket] += 1;
        }
        DegreeHistogram { buckets }
    }

    /// Total number of vertices counted.
    pub fn total(&self) -> usize {
        self.buckets.iter().sum()
    }

    /// A crude heavy-tail indicator: the fraction of vertices whose degree is at least
    /// 8 times the mean bucket position. Social-graph analogs score well above uniform
    /// random graphs.
    pub fn tail_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 || self.buckets.len() < 4 {
            return 0.0;
        }
        let tail: usize = self.buckets[self.buckets.len().saturating_sub(2)..]
            .iter()
            .sum();
        tail as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::preferential::{preferential_attachment, PreferentialConfig};
    use crate::generators::regular::{complete, cycle, grid, path, star};

    #[test]
    fn wcc_of_disconnected_pieces() {
        // Two disjoint paths: 0->1->2 and 3->4.
        let g = DiGraph::from_edge_list(5, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let wcc = weakly_connected_components(&g);
        assert_eq!(wcc.num_components(), 2);
        assert_eq!(wcc.largest(), 3);
        assert!(wcc.same_component(VertexId(0), VertexId(2)));
        assert!(!wcc.same_component(VertexId(0), VertexId(3)));
        assert!((wcc.largest_ratio() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn scc_of_a_cycle_is_one_component() {
        let g = cycle(6);
        let scc = strongly_connected_components(&g);
        assert_eq!(scc.num_components(), 1);
        assert_eq!(scc.largest(), 6);
    }

    #[test]
    fn scc_of_a_dag_is_all_singletons() {
        let g = grid(3, 3);
        let scc = strongly_connected_components(&g);
        assert_eq!(scc.num_components(), 9);
        assert_eq!(scc.largest(), 1);
        // But weakly it is one component.
        assert_eq!(weakly_connected_components(&g).num_components(), 1);
    }

    #[test]
    fn scc_mixed_structure() {
        // A 3-cycle {0,1,2} feeding a path 3 -> 4.
        let g = DiGraph::from_edge_list(5, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]).unwrap();
        let scc = strongly_connected_components(&g);
        assert_eq!(scc.num_components(), 3);
        assert!(scc.same_component(VertexId(0), VertexId(2)));
        assert!(!scc.same_component(VertexId(2), VertexId(3)));
        assert_eq!(scc.largest(), 3);
    }

    #[test]
    fn star_and_complete_are_strongly_connected() {
        assert_eq!(strongly_connected_components(&star(5)).num_components(), 1);
        assert_eq!(
            strongly_connected_components(&complete(4)).num_components(),
            1
        );
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let empty = DiGraph::from_edge_list(0, &[]).unwrap();
        assert_eq!(strongly_connected_components(&empty).num_components(), 0);
        assert_eq!(weakly_connected_components(&empty).largest_ratio(), 0.0);
        let lonely = path(1);
        assert_eq!(strongly_connected_components(&lonely).num_components(), 1);
    }

    #[test]
    fn degree_histogram_buckets_degrees() {
        let g = star(8); // hub has degree 8 (out) and 8 (in); leaves have 1 each.
        let hist = DegreeHistogram::compute(&g, Direction::Forward);
        assert_eq!(hist.total(), 9);
        assert_eq!(hist.buckets[0], 8, "eight leaves with out-degree 1");
        assert_eq!(
            *hist.buckets.last().unwrap(),
            1,
            "one hub with out-degree 8"
        );
    }

    #[test]
    fn preferential_graphs_have_heavier_tails_than_grids() {
        let social = preferential_attachment(PreferentialConfig {
            num_vertices: 1500,
            edges_per_vertex: 4,
            reciprocity: 0.3,
            seed: 5,
        })
        .unwrap();
        let hist_social = DegreeHistogram::compute(&social, Direction::Backward);
        let hist_grid = DegreeHistogram::compute(&grid(40, 40), Direction::Backward);
        assert!(hist_social.buckets.len() > hist_grid.buckets.len());
        // The grid has no tail at all (max in-degree 2).
        assert_eq!(hist_grid.tail_fraction(), 0.0);
    }

    #[test]
    fn analog_datasets_have_a_giant_component() {
        let social = preferential_attachment(PreferentialConfig {
            num_vertices: 800,
            edges_per_vertex: 3,
            reciprocity: 0.3,
            seed: 9,
        })
        .unwrap();
        let wcc = weakly_connected_components(&social);
        assert!(
            wcc.largest_ratio() > 0.95,
            "ratio = {}",
            wcc.largest_ratio()
        );
    }
}
