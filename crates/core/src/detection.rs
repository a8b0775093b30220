//! `DetectCommonQuery` — common HC-s path query detection (Algorithm 3, Phase 2 of §IV-B).
//!
//! Within one query cluster and one search direction, the detection simulates the first
//! hops of every half query *level-synchronously*: at each remaining-hop-budget level it
//! records which half queries (or previously detected dominating queries) are currently
//! extending which vertex. When several of them meet at the same vertex with the same
//! remaining budget, their continuations are identical and a *dominating HC-s path query*
//! rooted at that vertex is created; the original queries become its users in Ψ. When a
//! query's extension runs into the root of an already-identified HC-s path query whose
//! budget covers the remaining need, a reuse edge is added instead of extending further
//! (the second observation of §IV-B, illustrated by `q_{v12,1,Gr}` vs `q_{v12,2,Gr}`).
//!
//! The simulation is restricted to the vertices that can still contribute to at least one
//! query of the cluster (the union of the anchor-side index neighbourhoods), and its cost
//! is that of a BFS over that region, matching the paper's claim that IdentifySubquery
//! time is dominated by BFS-scale work (Exp-3): the region is a bitset filled straight
//! from the index maps and probed once per scanned edge, the per-vertex state is dense and
//! epoch-stamped (`DetectionScratch`), a level is one flat `(vertex, node)` run sorted
//! once, and an edge of Ψ costs a look through the shorter of its two adjacency lists plus
//! — only when it disagrees with Ψ's incremental numbering — a walk bounded by the window
//! between its endpoints ([`SharingGraph::add_dependency`]). Sorting the runs is also what
//! fixes Ψ: vertices ascending, node ids ascending within a vertex, neighbours in
//! adjacency order.

use crate::buffers::VisitMarks;
use crate::query::{HcsQuery, PathQuery, QueryId};
use crate::sharing_graph::{NodeId, SharingGraph};
use hcsp_graph::{DiGraph, Direction, VertexId};
use hcsp_index::BatchIndex;

/// Summary of one detection run (one cluster, one direction), used by stats and tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DetectionOutcome {
    /// Dominating HC-s path queries newly created by this run.
    pub dominating_created: usize,
    /// Reuse edges added towards already-identified HC-s path queries.
    pub reuse_edges: usize,
    /// Number of (vertex, level) cells the simulation touched.
    pub cells_visited: usize,
}

/// Reusable per-vertex state of the simulation, sized lazily to the graph; `root_query`
/// is cleared per run by an epoch bump. (The level runs are not kept here: they are as
/// long as a level has scanned edges, and a worker's buffers outlive the enumeration.)
#[derive(Debug, Default, Clone)]
pub(crate) struct DetectionScratch {
    /// Bit `v`: `v` lies within the hop bound of at least one anchor of the cluster.
    useful: Vec<u64>,
    /// `root_query[v]`, where `has_root_query` marks `v`: the most recently identified
    /// HC-s path query node rooted at `v` (MQ of Alg. 3).
    root_query: Vec<NodeId>,
    has_root_query: VisitMarks,
}

/// Runs Algorithm 3 for one cluster of queries in one direction, extending `sharing`.
///
/// `cluster` carries `(query id, query)` pairs; the full-query nodes and the trivial half
/// query edges (Alg. 3 lines 2–4) are created here as well, so a caller only needs to call
/// this twice (forward + backward) per cluster and then evaluate Ψ.
pub fn detect_common_queries(
    graph: &DiGraph,
    index: &BatchIndex,
    cluster: &[(QueryId, PathQuery)],
    dir: Direction,
    sharing: &mut SharingGraph,
) -> DetectionOutcome {
    let mut scratch = DetectionScratch::default();
    detect_common_queries_in(graph, index, cluster, dir, sharing, &mut scratch)
}

fn detect_common_queries_in(
    graph: &DiGraph,
    index: &BatchIndex,
    cluster: &[(QueryId, PathQuery)],
    dir: Direction,
    sharing: &mut SharingGraph,
    scratch: &mut DetectionScratch,
) -> DetectionOutcome {
    let mut outcome = DetectionOutcome::default();

    // Lines 2-4: every query contributes its half query as the initial extension of its
    // root; the half query node provides for the full query node with offset 0.
    let k_max = cluster
        .iter()
        .map(|(_, q)| q.budget(dir))
        .max()
        .unwrap_or(0);
    // pending[b] holds the half-query nodes that become active once the level reaches
    // their own budget b.
    let mut pending: Vec<Vec<(VertexId, NodeId)>> = vec![Vec::new(); k_max as usize + 1];
    for &(qid, ref q) in cluster {
        let full_node = sharing.add_full_query(qid);
        let half = q.half_query(dir);
        let half_node = sharing.add_hcs_query(half);
        sharing.add_dependency(half_node, full_node, 0);
        pending[half.budget as usize].push((half.root, half_node));
    }
    // One half query per direction has nothing to converge with and nothing to reuse: the
    // simulation would walk its whole useful region and add nothing to Ψ.
    if cluster.len() < 2 {
        return outcome;
    }

    let DetectionScratch {
        useful,
        root_query,
        has_root_query,
    } = scratch;

    // The set of vertices that can still matter for any query of the cluster: within the
    // hop bound of at least one anchor on the pruning side. Extensions outside this set can
    // never produce a useful prefix, so the simulation skips them.
    let n = graph.num_vertices();
    useful.clear();
    useful.resize(n.div_ceil(64), 0);
    let anchor_side = match dir {
        Direction::Forward => index.target_index(),
        Direction::Backward => index.source_index(),
    };
    for (_, q) in cluster {
        let reaching = anchor_side.map_of(q.anchor(dir)).into_iter();
        for (v, dist) in reaching.flat_map(|map| map.iter()) {
            if dist <= q.hop_limit {
                useful[v.index() / 64] |= 1 << (v.index() % 64);
            }
        }
    }

    // Where several half queries share a root, the one with the smallest budget (the last
    // of them in cluster order) is the most recently identified.
    root_query.resize(n.max(root_query.len()), 0);
    has_root_query.reset(n);
    for &(root, node) in pending.iter().rev().flatten() {
        root_query[root.index()] = node;
        has_root_query.mark(root);
    }

    // active: `(vertex, node)` — the enumeration of `node` sits at `vertex` with the current
    // remaining budget; sorted and deduplicated at the start of each level.
    // representatives: one `(vertex, node)` per distinct vertex of `active`.
    let (mut active, mut next_active, mut representatives) = (Vec::new(), Vec::new(), Vec::new());
    let mut remaining = k_max;
    loop {
        // Activate the half queries whose budget equals the current remaining budget.
        active.extend_from_slice(&pending[remaining as usize]);
        active.sort_unstable();
        active.dedup();

        // Lines 7-19: detect convergence per vertex and elect a representative.
        representatives.clear();
        for nodes in active.chunk_by(|a, b| a.0 == b.0) {
            outcome.cells_visited += 1;
            let vertex = nodes[0].0;
            if let [(_, only)] = *nodes {
                representatives.push((vertex, only));
                continue;
            }
            // Several queries share all continuations from `vertex` with `remaining` hops:
            // represent them by the dominating HC-s path query q_{vertex, remaining, dir}.
            let dominating = HcsQuery::new(vertex, remaining, dir);
            let existed = sharing.find_hcs(&dominating).is_some();
            let dom_node = sharing.add_hcs_query(dominating);
            if !existed {
                outcome.dominating_created += 1;
            }
            for &(_, user) in nodes {
                if user != dom_node {
                    let user_budget = hcs(sharing, user).budget;
                    sharing.add_dependency(dom_node, user, user_budget - remaining);
                }
            }
            representatives.push((vertex, dom_node));
            root_query[vertex.index()] = dom_node;
            has_root_query.mark(vertex);
        }

        if remaining == 0 {
            break;
        }

        // Lines 20-24: extend every representative by one hop.
        next_active.clear();
        for &(vertex, rep) in &representatives {
            let rep_budget = hcs(sharing, rep).budget;
            for &next in graph.neighbors(vertex, dir) {
                if useful[next.index() / 64] & (1 << (next.index() % 64)) == 0 {
                    continue;
                }
                // If an HC-s path query rooted at `next` already covers the remaining need,
                // reuse it instead of extending (second observation of §IV-B).
                if has_root_query.contains(next) {
                    let provider = root_query[next.index()];
                    let offset = rep_budget - (remaining - 1);
                    // A refused edge would have created a cycle: keep extending instead.
                    if provider != rep
                        && hcs(sharing, provider).covers_budget(remaining - 1)
                        && sharing.add_dependency(provider, rep, offset)
                    {
                        outcome.reuse_edges += 1;
                        continue;
                    }
                }
                next_active.push((next, rep));
            }
        }

        std::mem::swap(&mut active, &mut next_active);
        remaining -= 1;
        if active.is_empty() && pending[..=remaining as usize].iter().all(Vec::is_empty) {
            break;
        }
    }

    outcome
}

/// A node the simulation handles; those are all HC-s path queries.
fn hcs(sharing: &SharingGraph, node: NodeId) -> &HcsQuery {
    sharing
        .node(node)
        .as_hcs()
        .expect("active nodes, representatives and providers are HC-s path queries")
}

/// Detection entry point used by `BatchEnum`: runs both directions for one cluster.
pub fn detect_cluster(
    graph: &DiGraph,
    index: &BatchIndex,
    cluster: &[(QueryId, PathQuery)],
    sharing: &mut SharingGraph,
) -> DetectionOutcome {
    detect_cluster_in(
        graph,
        index,
        cluster,
        sharing,
        &mut DetectionScratch::default(),
    )
}

/// [`detect_cluster`] over caller-owned scratch, so a batch of many clusters (or a worker
/// serving many batches) sizes the per-vertex state once.
pub(crate) fn detect_cluster_in(
    graph: &DiGraph,
    index: &BatchIndex,
    cluster: &[(QueryId, PathQuery)],
    sharing: &mut SharingGraph,
    scratch: &mut DetectionScratch,
) -> DetectionOutcome {
    let mut total = DetectionOutcome::default();
    for dir in [Direction::Forward, Direction::Backward] {
        let found = detect_common_queries_in(graph, index, cluster, dir, sharing, scratch);
        total.dominating_created += found.dominating_created;
        total.reuse_edges += found.reuse_edges;
        total.cells_visited += found.cells_visited;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::BatchSummary;
    use crate::sharing_graph::QueryNode;
    use hcsp_graph::generators::regular::{complete, grid};
    use hcsp_graph::GraphBuilder;

    fn build_index(graph: &DiGraph, queries: &[PathQuery]) -> BatchIndex {
        let summary = BatchSummary::of(queries);
        BatchIndex::build(
            graph,
            &summary.sources,
            &summary.targets,
            summary.max_hop_limit,
        )
    }

    fn cluster_of(queries: &[PathQuery]) -> Vec<(QueryId, PathQuery)> {
        queries.iter().copied().enumerate().collect()
    }

    /// The running example of the paper (Fig. 1): 16 vertices, the edges drawn in the
    /// figure.
    fn paper_graph() -> DiGraph {
        let edges: &[(u32, u32)] = &[
            (0, 1),
            (0, 4),
            (2, 1),
            (2, 4),
            (5, 1),
            (1, 7),
            (1, 8),
            (7, 10),
            (7, 8),
            (10, 12),
            (12, 11),
            (12, 13),
            (4, 9),
            (9, 3),
            (9, 15),
            (9, 8),
            (3, 6),
            (15, 6),
            (6, 11),
            (6, 13),
            (6, 14),
        ];
        let mut b = GraphBuilder::new();
        for &(u, v) in edges {
            b.add_edge(VertexId(u), VertexId(v));
        }
        b.reserve_vertices(16);
        b.build()
    }

    #[test]
    fn converging_queries_create_a_dominating_query() {
        // Paper Example 4.2, cluster {q0, q1, q2} on G: q0(v0,v11,5), q1(v2,v13,5),
        // q2(v5,v12,5). All three reach v1 after one hop with the same remaining budget,
        // so q_{v1,2,G} must be detected; q0 and q1 also converge on v4, giving q_{v4,2,G}.
        let g = paper_graph();
        let queries = vec![
            PathQuery::new(0u32, 11u32, 5),
            PathQuery::new(2u32, 13u32, 5),
            PathQuery::new(5u32, 12u32, 5),
        ];
        let index = build_index(&g, &queries);
        let mut sharing = SharingGraph::new();
        let outcome = detect_common_queries(
            &g,
            &index,
            &cluster_of(&queries),
            Direction::Forward,
            &mut sharing,
        );
        assert!(outcome.dominating_created >= 2, "{outcome:?}");
        let dom_v1 = sharing.find_hcs(&HcsQuery::new(1u32, 2, Direction::Forward));
        let dom_v4 = sharing.find_hcs(&HcsQuery::new(4u32, 2, Direction::Forward));
        assert!(dom_v1.is_some(), "q_{{v1,2,G}} must be detected");
        assert!(dom_v4.is_some(), "q_{{v4,2,G}} must be detected");
        // q_{v1,2,G} provides for all three initial half queries.
        assert_eq!(sharing.users(dom_v1.unwrap()).len(), 3);
        assert_eq!(sharing.users(dom_v4.unwrap()).len(), 2);
    }

    #[test]
    fn backward_detection_finds_shared_target_side_queries() {
        // Paper Fig. 5 (b): q0, q1, q2 on Gr converge on v12 after one hop from v11 / v13.
        let g = paper_graph();
        let queries = vec![
            PathQuery::new(0u32, 11u32, 5),
            PathQuery::new(2u32, 13u32, 5),
            PathQuery::new(5u32, 12u32, 5),
        ];
        let index = build_index(&g, &queries);
        let mut sharing = SharingGraph::new();
        detect_common_queries(
            &g,
            &index,
            &cluster_of(&queries),
            Direction::Backward,
            &mut sharing,
        );
        // Either the dominating q_{v12,1,Gr} is created or the existing half query
        // q_{v12,2,Gr} (from q2) is reused; both forms of sharing are acceptable, but at
        // least one sharing edge towards a v12-rooted provider must exist.
        let reused = sharing
            .nodes()
            .filter_map(|(id, n)| n.as_hcs().map(|q| (id, *q)))
            .filter(|(_, q)| q.root == VertexId(12) && q.direction == Direction::Backward)
            .any(|(id, _)| !sharing.users(id).is_empty());
        assert!(reused, "target-side sharing through v12 must be detected");
    }

    #[test]
    fn detection_builds_a_processable_dag() {
        let g = paper_graph();
        let queries = vec![
            PathQuery::new(0u32, 11u32, 5),
            PathQuery::new(2u32, 13u32, 5),
            PathQuery::new(5u32, 12u32, 5),
            PathQuery::new(4u32, 14u32, 4),
            PathQuery::new(9u32, 14u32, 3),
        ];
        let index = build_index(&g, &queries);
        let mut sharing = SharingGraph::new();
        detect_cluster(&g, &index, &cluster_of(&queries), &mut sharing);
        let order = sharing.topological_order();
        assert_eq!(order.len(), sharing.len());
        // Every full query node has exactly two providers: its forward and backward halves.
        for (id, node) in sharing.nodes() {
            if matches!(node, QueryNode::Full(_)) {
                assert_eq!(sharing.providers(id).len(), 2, "full query {id} providers");
            }
        }
    }

    type Edges = Vec<(NodeId, NodeId, u32)>;

    /// Ψ flattened for comparison: the node list, then every `(provider, user, offset)`
    /// read provider by provider in `users` order and again user by user in `providers`
    /// order — both adjacency orders are observable by the enumeration.
    fn snapshot(sharing: &SharingGraph) -> (Vec<QueryNode>, Edges, Edges) {
        let nodes = sharing.nodes().map(|(_, n)| *n).collect();
        let mut by_provider = Vec::new();
        let mut by_user = Vec::new();
        for (id, _) in sharing.nodes() {
            by_provider.extend(sharing.users(id).iter().map(|&(u, o)| (id, u, o)));
            by_user.extend(sharing.providers(id).iter().map(|&(p, o)| (p, id, o)));
        }
        (nodes, by_provider, by_user)
    }

    fn fwd(root: u32, budget: u32) -> QueryNode {
        QueryNode::Hcs(HcsQuery::new(root, budget, Direction::Forward))
    }

    fn bwd(root: u32, budget: u32) -> QueryNode {
        QueryNode::Hcs(HcsQuery::new(root, budget, Direction::Backward))
    }

    #[test]
    fn golden_sharing_graph_of_the_paper_batch() {
        let g = paper_graph();
        let queries = vec![
            PathQuery::new(0u32, 11u32, 5),
            PathQuery::new(2u32, 13u32, 5),
            PathQuery::new(5u32, 12u32, 5),
            PathQuery::new(4u32, 14u32, 4),
            PathQuery::new(9u32, 14u32, 3),
        ];
        let index = build_index(&g, &queries);
        let mut sharing = SharingGraph::new();
        let outcome = detect_cluster(&g, &index, &cluster_of(&queries), &mut sharing);
        assert_eq!(
            outcome,
            DetectionOutcome {
                dominating_created: 2,
                reuse_edges: 6,
                cells_visited: 21,
            }
        );
        let (nodes, by_provider, by_user) = snapshot(&sharing);
        use QueryNode::Full;
        assert_eq!(
            nodes,
            vec![
                Full(0),
                fwd(0, 3),
                Full(1),
                fwd(2, 3),
                Full(2),
                fwd(5, 3),
                Full(3),
                fwd(4, 2),
                Full(4),
                fwd(9, 2),
                fwd(1, 2),
                bwd(11, 2),
                bwd(13, 2),
                bwd(12, 2),
                bwd(14, 2),
                bwd(14, 1),
                bwd(6, 1),
            ]
        );
        assert_eq!(
            by_provider,
            vec![
                (1, 0, 0),
                (3, 2, 0),
                (5, 4, 0),
                (7, 6, 0),
                (7, 1, 1),
                (7, 3, 1),
                (9, 8, 0),
                (9, 7, 1),
                (10, 1, 1),
                (10, 3, 1),
                (10, 5, 1),
                (11, 0, 0),
                (12, 2, 0),
                (13, 4, 0),
                (13, 11, 1),
                (13, 12, 1),
                (14, 6, 0),
                (15, 8, 0),
                (16, 11, 1),
                (16, 12, 1),
                (16, 14, 1),
                (16, 15, 1),
            ]
        );
        assert_eq!(
            by_user,
            vec![
                (1, 0, 0),
                (11, 0, 0),
                (7, 1, 1),
                (10, 1, 1),
                (3, 2, 0),
                (12, 2, 0),
                (7, 3, 1),
                (10, 3, 1),
                (5, 4, 0),
                (13, 4, 0),
                (10, 5, 1),
                (7, 6, 0),
                (14, 6, 0),
                (9, 7, 1),
                (9, 8, 0),
                (15, 8, 0),
                (13, 11, 1),
                (16, 11, 1),
                (13, 12, 1),
                (16, 12, 1),
                (16, 14, 1),
                (16, 15, 1),
            ]
        );
        assert_eq!(
            sharing.topological_order(),
            vec![9, 7, 10, 1, 3, 5, 13, 4, 16, 11, 0, 12, 2, 14, 6, 15, 8]
        );
    }

    #[test]
    fn a_cluster_of_one_is_two_half_queries_and_nothing_else() {
        // One half query per direction can neither converge nor reuse, whatever the graph
        // looks like around it.
        for (g, q) in [
            (paper_graph(), PathQuery::new(0u32, 11u32, 5)),
            (grid(6, 6), PathQuery::new(0u32, 35u32, 7)),
        ] {
            let index = build_index(&g, &[q]);
            let mut sharing = SharingGraph::new();
            let outcome = detect_cluster(&g, &index, &[(0, q)], &mut sharing);
            assert_eq!((outcome.dominating_created, outcome.reuse_edges), (0, 0));
            let (nodes, by_provider, by_user) = snapshot(&sharing);
            assert_eq!(
                nodes,
                vec![
                    QueryNode::Full(0),
                    QueryNode::Hcs(q.half_query(Direction::Forward)),
                    QueryNode::Hcs(q.half_query(Direction::Backward)),
                ]
            );
            assert_eq!(by_provider, vec![(1, 0, 0), (2, 0, 0)]);
            assert_eq!(by_user, by_provider);
            assert_eq!(sharing.topological_order(), vec![1, 2, 0]);
        }
    }

    #[test]
    fn disjoint_queries_share_nothing() {
        // Two far-apart corners of a grid: no common computation exists.
        let g = grid(6, 6);
        let queries = vec![
            PathQuery::new(0u32, 7u32, 2),
            PathQuery::new(28u32, 35u32, 2),
        ];
        let index = build_index(&g, &queries);
        let mut sharing = SharingGraph::new();
        let outcome = detect_cluster(&g, &index, &cluster_of(&queries), &mut sharing);
        assert_eq!(outcome.dominating_created, 0);
        // Only the 2 full nodes + 4 half nodes exist.
        assert_eq!(sharing.len(), 6);
    }

    #[test]
    fn identical_queries_collapse_onto_the_same_half_nodes() {
        let g = complete(6);
        let queries = vec![PathQuery::new(0u32, 5u32, 4), PathQuery::new(0u32, 5u32, 4)];
        let index = build_index(&g, &queries);
        let mut sharing = SharingGraph::new();
        detect_cluster(&g, &index, &cluster_of(&queries), &mut sharing);
        // 2 full nodes share one forward half and one backward half (plus any detected
        // dominating queries).
        let forward_half = sharing
            .find_hcs(&HcsQuery::new(0u32, 2, Direction::Forward))
            .unwrap();
        assert_eq!(sharing.users(forward_half).len(), 2);
    }

    #[test]
    fn empty_cluster_is_a_noop() {
        let g = complete(3);
        let index = build_index(&g, &[PathQuery::new(0u32, 1u32, 2)]);
        let mut sharing = SharingGraph::new();
        let outcome = detect_common_queries(&g, &index, &[], Direction::Forward, &mut sharing);
        assert_eq!(outcome, DetectionOutcome::default());
        assert!(sharing.is_empty());
    }
}
