//! The `⊕` join (Definition 3.1), pinned against a literal reference.
//!
//! Every algorithm's answers come out of `concat.rs`, and so do those of `PathEnum`, the
//! oracle the benchmark checks answers against: a join bug would pass that check. The
//! reference here is the join written out with nothing shared — each forward prefix in
//! order, each backward path with the same end vertex in index order, then the canonical
//! split, the hop limit, full assembly and `vertices_are_distinct`. `concatenate_scratch`
//! and the streaming `prepare_suffixes` + `join_prefix` must agree with it in paths, order
//! and `JoinStats`, and when a `SkipQuery` verdict stops them after n paths they must have
//! emitted the reference's first n. The halves come from the half search on the random
//! graphs of `tests/prop_correctness.rs`, and from hand-made simple sets aimed at the
//! corners of the join's per-vertex bucket table; one scratch serves every join of a test.

use hcsp_core::concat::{concatenate_scratch, join_prefix, prepare_suffixes, JoinStats};
use hcsp_core::path::vertices_are_distinct;
use hcsp_core::query::BatchSummary;
use hcsp_core::search::SearchContext;
use hcsp_core::search_order::SearchOrder;
use hcsp_core::sink::SinkFlow;
use hcsp_core::stats::SearchCounters;
use hcsp_core::{JoinScratch, PathQuery, PathSet, SearchBuffers};
use hcsp_graph::{DiGraph, Direction, VertexId};
use hcsp_index::BatchIndex;
use proptest::prelude::*;

/// Joined paths in emission order, with the join's statistics.
type Joined = (Vec<Vec<VertexId>>, JoinStats);

/// The join as Definition 3.1 states it, stopping once `limit` paths are produced. A
/// prefix's candidates are counted as one bucket before any of them is tested, which is
/// how the join under test counts them.
fn reference_join(forward: &PathSet, backward: &PathSet, k: u32, limit: usize) -> Joined {
    let mut paths = Vec::new();
    let mut stats = JoinStats::default();
    for prefix in forward.iter() {
        let bucket: Vec<&[VertexId]> = backward
            .iter()
            .filter(|suffix| suffix.last() == prefix.last())
            .collect();
        stats.candidate_pairs += bucket.len();
        for suffix in bucket {
            let (fwd, bwd) = (prefix.len() - 1, suffix.len() - 1);
            if !(fwd == bwd || fwd == bwd + 1) || fwd + bwd > k as usize {
                stats.rejected_split += 1;
                continue;
            }
            let mut path = prefix.to_vec();
            path.extend(suffix.iter().rev().skip(1));
            if !vertices_are_distinct(&path) {
                stats.rejected_not_simple += 1;
                continue;
            }
            stats.produced += 1;
            paths.push(path);
            if paths.len() == limit {
                return (paths, stats);
            }
        }
    }
    (paths, stats)
}

/// An emitter that records every path and answers `SkipQuery` at the `limit`-th.
fn recorder(
    paths: &mut Vec<Vec<VertexId>>,
    limit: usize,
) -> impl FnMut(&[VertexId]) -> SinkFlow + '_ {
    move |path| {
        paths.push(path.to_vec());
        if paths.len() == limit {
            SinkFlow::SkipQuery
        } else {
            SinkFlow::Continue
        }
    }
}

fn batch_join(
    forward: &PathSet,
    backward: &PathSet,
    k: u32,
    limit: usize,
    scratch: &mut JoinScratch,
) -> Joined {
    let mut paths = Vec::new();
    let stats = concatenate_scratch(forward, backward, k, scratch, recorder(&mut paths, limit));
    (paths, stats)
}

/// `prepare_suffixes` once, then `join_prefix` per forward prefix until a verdict stops it.
fn streaming_join(
    forward: &PathSet,
    backward: &PathSet,
    k: u32,
    limit: usize,
    scratch: &mut JoinScratch,
) -> Joined {
    let mut paths = Vec::new();
    let mut stats = JoinStats::default();
    prepare_suffixes(backward, scratch);
    for prefix in forward.iter() {
        let flow = join_prefix(
            prefix,
            backward,
            k,
            scratch,
            &mut stats,
            recorder(&mut paths, limit),
        );
        if !flow.is_continue() {
            assert_eq!(flow, SinkFlow::SkipQuery);
            break;
        }
    }
    (paths, stats)
}

/// Both forms of the join against the reference: exhausted, and stopped after n paths for
/// n at both ends and the middle of the full answer.
fn assert_join(
    forward: &PathSet,
    backward: &PathSet,
    k: u32,
    scratch: &mut JoinScratch,
    what: &str,
) {
    let full = reference_join(forward, backward, k, usize::MAX);
    assert_eq!(
        batch_join(forward, backward, k, usize::MAX, scratch),
        full,
        "{what}: batch"
    );
    assert_eq!(
        streaming_join(forward, backward, k, usize::MAX, scratch),
        full,
        "{what}: streaming"
    );
    let n = full.0.len();
    let mut limits = vec![1, 2, 3, n / 2, n.saturating_sub(1), n];
    limits.retain(|&limit| (1..=n).contains(&limit));
    limits.dedup();
    for limit in limits {
        let want = reference_join(forward, backward, k, limit);
        assert_eq!(
            want.0[..],
            full.0[..limit],
            "{what}: the reference stops early"
        );
        assert_eq!(
            batch_join(forward, backward, k, limit, scratch),
            want,
            "{what}: batch stopped after {limit}"
        );
        assert_eq!(
            streaming_join(forward, backward, k, limit, scratch),
            want,
            "{what}: streaming stopped after {limit}"
        );
    }
}

fn set(paths: &[&[u32]]) -> PathSet {
    let mut out = PathSet::new();
    for path in paths {
        let vertices: Vec<VertexId> = path.iter().map(|&x| VertexId(x)).collect();
        assert!(
            vertices_are_distinct(&vertices),
            "hand-made halves are simple"
        );
        out.push_slice(&vertices);
    }
    out
}

/// Strategy: a random directed graph with 2..=28 vertices and a moderate edge budget, and
/// 1..=6 queries on it (the shape of `workload_strategy` in `tests/prop_correctness.rs`).
fn workload_strategy() -> impl Strategy<Value = (DiGraph, Vec<PathQuery>)> {
    (2usize..=28).prop_flat_map(|n| {
        let max_edges = (n * (n - 1)).min(120);
        let graph = proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_edges)
            .prop_map(move |edges| DiGraph::from_edge_list(n, &edges).expect("edges in range"));
        let queries = proptest::collection::vec((0..n as u32, 0..n as u32, 1u32..=6), 1..=6)
            .prop_map(|qs| {
                qs.into_iter()
                    .map(|(s, t, k)| PathQuery::new(s, t, k))
                    .collect::<Vec<_>>()
            });
        (graph, queries)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Each query's own halves at its hop limit and one hop either side of it, and its
    /// forward half against the next query's backward half (other endpoints, other
    /// join vertices), in both search orders.
    #[test]
    fn joins_of_searched_halves_match_the_reference((graph, queries) in workload_strategy()) {
        let summary = BatchSummary::of(&queries);
        let index = BatchIndex::build(
            &graph,
            &summary.sources,
            &summary.targets,
            summary.max_hop_limit,
        );
        let mut buffers = SearchBuffers::for_graph(&graph);
        let mut scratch = JoinScratch::default();
        for order in [SearchOrder::VertexId, SearchOrder::DistanceThenDegree] {
            let ctx = SearchContext::new(&graph, &index, order);
            let mut counters = SearchCounters::default();
            let halves: Vec<(PathSet, PathSet)> = queries
                .iter()
                .map(|q| {
                    let mut forward = PathSet::new();
                    let mut backward = PathSet::new();
                    ctx.enumerate_half_into(q, Direction::Forward, &mut counters, &mut buffers, &mut forward);
                    ctx.enumerate_half_into(q, Direction::Backward, &mut counters, &mut buffers, &mut backward);
                    (forward, backward)
                })
                .collect();
            for (i, q) in queries.iter().enumerate() {
                let (forward, backward) = &halves[i];
                for k in [q.hop_limit - 1, q.hop_limit, q.hop_limit + 1] {
                    assert_join(forward, backward, k, &mut scratch, &format!("{q} {order:?} k={k}"));
                }
                let (_, other_backward) = &halves[(i + 1) % halves.len()];
                assert_join(forward, other_backward, q.hop_limit, &mut scratch, &format!("{q} ⊕ next {order:?}"));
            }
        }
    }
}

#[test]
fn hand_made_halves_match_the_reference() {
    type Case<'a> = (&'a str, &'a [&'a [u32]], &'a [&'a [u32]], u32);
    let cases: &[Case<'_>] = &[
        (
            // Everything that closes the cycle back through 7 repeats it.
            "s = t",
            &[&[7], &[7, 1], &[7, 1, 2], &[7, 3]],
            &[&[7], &[7, 1], &[7, 2], &[7, 3, 2], &[7, 4]],
            4,
        ),
        ("zero-hop halves", &[&[0]], &[&[0]], 0),
        ("zero-hop backward half", &[&[0], &[0, 1]], &[&[1]], 1),
        (
            "k = 1",
            &[&[0], &[0, 1], &[0, 2]],
            &[&[1], &[1, 0], &[1, 2]],
            1,
        ),
        (
            "join vertices past every backward end",
            &[&[0], &[0, 900], &[0, 3], &[0, 900, 901], &[0, 3, 4_000_000]],
            &[&[5], &[5, 3], &[5, 4], &[5, 6, 3]],
            6,
        ),
        (
            // One bucket (vertex 2) holds suffixes of 0..=3 hops, interleaved with other
            // ends; [9, 1, 2] repeats 1 against [0, 1, 2] and [0, 3, 1, 2].
            "one bucket mixing hop counts",
            &[&[0], &[0, 2], &[0, 1, 2], &[0, 3, 1, 2], &[0, 1], &[0, 3]],
            &[
                &[9, 2],
                &[9, 4],
                &[9, 4, 2],
                &[9, 5, 4, 2],
                &[9],
                &[9, 1, 2],
                &[9, 3],
                &[2],
                &[9, 6, 2],
            ],
            6,
        ),
        ("empty backward half", &[&[0], &[0, 1]], &[], 3),
        ("empty forward half", &[], &[&[1], &[1, 0]], 3),
    ];
    let mut scratch = JoinScratch::default();
    for &(what, forward, backward, k) in cases {
        assert_join(&set(forward), &set(backward), k, &mut scratch, what);
    }
}

#[test]
fn one_scratch_serves_joins_whose_largest_vertex_shrinks_then_grows() {
    // Each forward set also probes the previous joins' end vertices, which must find
    // nothing once the backward set no longer ends there.
    type Join<'a> = (&'a [&'a [u32]], &'a [&'a [u32]], u32);
    let joins: &[Join<'_>] = &[
        (
            &[&[0], &[0, 3], &[0, 600], &[0, 1, 3]],
            &[&[600], &[600, 3], &[600, 5, 3]],
            4,
        ),
        (
            &[&[0], &[0, 600], &[0, 3], &[0, 2], &[0, 4], &[0, 1, 2]],
            &[&[4], &[4, 2]],
            3,
        ),
        (
            &[&[0], &[0, 600], &[0, 2], &[0, 4], &[0, 4999], &[0, 1, 600]],
            &[&[5000], &[5000, 600], &[5000, 4000, 600], &[5000, 2]],
            4,
        ),
        (&[&[0], &[0, 600], &[0, 5000]], &[], 4),
        (&[&[0], &[0, 600], &[0, 4999], &[0, 2]], &[&[2]], 1),
        (
            &[&[0], &[0, 3], &[0, 600], &[0, 1, 3]],
            &[&[600], &[600, 3], &[600, 5, 3]],
            4,
        ),
    ];
    let mut scratch = JoinScratch::default();
    for (i, &(forward, backward, k)) in joins.iter().enumerate() {
        assert_join(
            &set(forward),
            &set(backward),
            k,
            &mut scratch,
            &format!("join {i}"),
        );
    }
}
