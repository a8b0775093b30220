//! The path concatenation operator `⊕` (Definition 3.1), batch and streaming.
//!
//! The bidirectional search produces a set of forward prefixes `P_f` (paths from `s` on
//! `G`) and a set of backward prefixes `P_b` (paths from `t` on `G^r`). `P_f ⊕ P_b` joins
//! the two sets on their shared end vertex and keeps exactly the simple joined paths
//! within the hop constraint.
//!
//! ## Canonical split
//!
//! Both halves contain prefixes of *every* length up to their budget, so a single result
//! path of length `L` could be reassembled from several `(prefix, suffix)` splits. To
//! report every HC-s-t path exactly once, the join only accepts the canonical split in
//! which the forward half carries `⌈L/2⌉` hops — i.e. `forward.hops() − backward.hops() ∈
//! {0, 1}`. Every valid result path has such a split within the budgets `⌈k/2⌉ / ⌊k/2⌋`,
//! and it has only one.
//!
//! ## Cost per candidate
//!
//! The backward side is indexed once per join into a bucket table (see [`JoinScratch`]):
//! a forward prefix finds its bucket with one load from a per-vertex slot table. The
//! simplicity test then compares the two halves, not the joined path: both halves must
//! hold only simple paths — every in-repo producer guarantees it, the DFS through its
//! visited marks and Algorithm 4's splice through its `marks.contains` filter, and debug
//! builds assert it as each path enters a join — so a candidate repeats a vertex exactly when the
//! suffix's tail (the suffix without the join vertex) meets the prefix's body (the prefix
//! without it). That is at most `⌈k/2⌉·⌊k/2⌋` compares, and only accepted paths are
//! assembled.
//!
//! ## Streaming form
//!
//! [`concatenate_scratch`] is the batch form: both halves fully materialised, then
//! joined. It is built from two streaming primitives — [`prepare_suffixes`] (index the
//! backward side once) and [`join_prefix`] (join *one* forward prefix) — which the
//! early-terminating execution path of [`crate::pathenum::PathEnum`] calls directly from
//! inside the forward DFS: each discovered prefix is joined immediately, and the
//! [`SinkFlow`] verdict of the sink can abort the search *before* the forward half is
//! ever materialised. Because the batch form iterates forward prefixes in exactly the
//! DFS discovery order, both forms emit the same paths in the same order.

use crate::buffers::JoinScratch;
use crate::path::{vertices_are_distinct, Path, PathSet};
use crate::sink::SinkFlow;
use hcsp_graph::VertexId;

/// Statistics of one join, used by instrumentation and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Number of `(forward, backward)` candidate pairs that shared a join vertex.
    pub candidate_pairs: usize,
    /// Candidates rejected because the split was not canonical or exceeded the hop limit.
    pub rejected_split: usize,
    /// Candidates rejected because the joined path repeated a vertex.
    pub rejected_not_simple: usize,
    /// Number of result paths produced.
    pub produced: usize,
}

/// Indexes the backward prefix set for joining: builds the scratch's CSR-style bucket
/// table — per distinct end vertex one contiguous run of `(path index, hops)` entries,
/// index-ascending (which pins the emission order), and that vertex's slot pointing at
/// it. The slots of the previously prepared set are cleared first, through its end list.
///
/// Precomputing the hop count per entry lets [`join_prefix`] sweep a bucket without
/// touching the suffix storage for candidates the split test rejects. Every path of
/// `backward` must be simple (checked in debug builds).
pub fn prepare_suffixes(backward: &PathSet, scratch: &mut JoinScratch) {
    let JoinScratch {
        ends,
        slots,
        offsets,
        entries,
        pairs,
        ..
    } = scratch;
    for end in ends.drain(..) {
        // lint:allow(panic-free-hot-path) the preparation that pushed `end` sized slots past it; slots never shrinks
        slots[end.index()] = 0;
    }
    pairs.clear();
    for (idx, suffix) in backward.iter().enumerate() {
        debug_assert!(
            vertices_are_distinct(suffix),
            "the backward half holds a non-simple path {suffix:?}"
        );
        // lint:allow(panic-free-hot-path) PathSet stores no empty paths: every entry has a last vertex
        let join_vertex = *suffix.last().expect("paths are non-empty");
        pairs.push((join_vertex, idx as u32));
    }
    pairs.sort_unstable();
    if let Some(&(largest, _)) = pairs.last() {
        if slots.len() <= largest.index() {
            slots.resize(largest.index() + 1, 0);
        }
    }
    offsets.clear();
    entries.clear();
    // Bucket 0, the empty run unindexed vertices resolve to, ends where bucket 1 starts.
    offsets.push(0);
    for &(end, idx) in pairs.iter() {
        if ends.last() != Some(&end) {
            ends.push(end);
            // lint:allow(panic-free-hot-path) slots was sized past the largest end above
            slots[end.index()] = ends.len() as u32;
            offsets.push(entries.len() as u32);
        }
        let hops = (backward.get(idx as usize).len() - 1) as u32;
        entries.push((idx, hops));
    }
    offsets.push(entries.len() as u32);
}

/// Joins one forward prefix against a backward set prepared by [`prepare_suffixes`],
/// emitting every canonical, simple, in-budget joined path.
///
/// `prefix` and every path of `backward` must be simple: the simplicity test compares
/// the two halves against each other only (the prefix is checked in debug builds).
///
/// `emit` returns a [`SinkFlow`] verdict; the first non-`Continue` verdict aborts the
/// remaining candidates of this prefix and is returned to the caller (which typically
/// aborts the forward DFS in turn). Returns `Continue` when the prefix was exhausted.
pub fn join_prefix<F>(
    prefix: &[VertexId],
    backward: &PathSet,
    hop_limit: u32,
    scratch: &mut JoinScratch,
    stats: &mut JoinStats,
    mut emit: F,
) -> SinkFlow
where
    F: FnMut(&[VertexId]) -> SinkFlow,
{
    let JoinScratch {
        slots,
        offsets,
        entries,
        assembled,
        ..
    } = scratch;
    let Some((&join_vertex, body)) = prefix.split_last() else {
        return SinkFlow::Continue;
    };
    debug_assert!(
        vertices_are_distinct(prefix),
        "the forward half holds a non-simple path {prefix:?}"
    );
    let bucket = slots.get(join_vertex.index()).map_or(0, |&b| b as usize);
    let Some(&[start, end]) = offsets.get(bucket..bucket + 2) else {
        return SinkFlow::Continue;
    };
    let Some(run) = entries.get(start as usize..end as usize) else {
        return SinkFlow::Continue;
    };
    stats.candidate_pairs += run.len();
    let forward_hops = body.len() as u32;
    for &(suffix_idx, backward_hops) in run {
        let total = forward_hops + backward_hops;
        // `fwd − bwd ∈ {0, 1}` as a single unsigned compare: a wrapped (negative)
        // difference lands far above 1.
        let canonical = forward_hops.wrapping_sub(backward_hops) <= 1;
        if !canonical || total > hop_limit {
            stats.rejected_split += 1;
            continue;
        }
        // The suffix is oriented from t towards the join vertex, so its first
        // `backward_hops` vertices are its tail. Both halves are simple, so only the tail
        // and the prefix's body can share a vertex.
        let tail = backward
            .get(suffix_idx as usize)
            .get(..backward_hops as usize)
            .unwrap_or_default();
        if tail.iter().any(|v| body.contains(v)) {
            stats.rejected_not_simple += 1;
            continue;
        }
        assembled.clear();
        assembled.extend_from_slice(prefix);
        assembled.extend(tail.iter().rev().copied());
        stats.produced += 1;
        let flow = emit(assembled);
        if !flow.is_continue() {
            return flow;
        }
    }
    SinkFlow::Continue
}

/// Joins forward and backward prefix sets into complete HC-s-t paths.
///
/// * `forward` — paths starting at `s`, oriented along `G` (first vertex is `s`).
/// * `backward` — paths starting at `t`, oriented along `G^r` (first vertex is `t`); their
///   reversal is the suffix of the result path.
/// * `hop_limit` — the query's hop constraint `k`.
///
/// Both sets must hold only simple paths (checked in debug builds); the join tests
/// simplicity half against half and would pass a repeat inside one half through. Given
/// that, every produced path starts at `s`, ends at `t`, is simple, and has at most
/// `hop_limit` hops. Paths are emitted through `emit`, which receives the full vertex
/// sequence (and cannot terminate the join early — see [`concatenate_scratch`] for that).
pub fn concatenate_with<F>(
    forward: &PathSet,
    backward: &PathSet,
    hop_limit: u32,
    mut emit: F,
) -> JoinStats
where
    F: FnMut(&[VertexId]),
{
    let mut scratch = JoinScratch::default();
    concatenate_scratch(forward, backward, hop_limit, &mut scratch, |path| {
        emit(path);
        SinkFlow::Continue
    })
}

/// [`concatenate_with`] with caller-owned scratch and an early-terminating emitter: the
/// join-vertex table and the assembly buffer are reused across calls, and the first
/// non-`Continue` [`SinkFlow`] verdict from `emit` aborts the remaining join work (the
/// sink has everything it needs for this query).
///
/// The backward side is indexed once into a CSR-style bucket table keyed by end vertex;
/// each forward prefix then reads its bucket from the per-vertex slot table with one load
/// and sweeps one contiguous run, in the forward set's insertion (= DFS discovery) order,
/// rejecting a candidate whose suffix tail meets the prefix body before assembling it.
/// As for [`concatenate_with`], both sets must hold only simple paths.
pub fn concatenate_scratch<F>(
    forward: &PathSet,
    backward: &PathSet,
    hop_limit: u32,
    scratch: &mut JoinScratch,
    mut emit: F,
) -> JoinStats
where
    F: FnMut(&[VertexId]) -> SinkFlow,
{
    let mut stats = JoinStats::default();
    if forward.is_empty() || backward.is_empty() {
        return stats;
    }
    prepare_suffixes(backward, scratch);
    for prefix in forward.iter() {
        let flow = join_prefix(prefix, backward, hop_limit, scratch, &mut stats, &mut emit);
        if !flow.is_continue() {
            break;
        }
    }
    stats
}

/// Convenience wrapper collecting the joined paths into a [`PathSet`].
pub fn concatenate(forward: &PathSet, backward: &PathSet, hop_limit: u32) -> (PathSet, JoinStats) {
    let mut out = PathSet::new();
    let stats = concatenate_with(forward, backward, hop_limit, |p| out.push_slice(p));
    (out, stats)
}

/// Convenience wrapper returning owned [`Path`] values (tests and examples).
pub fn concatenate_to_paths(forward: &PathSet, backward: &PathSet, hop_limit: u32) -> Vec<Path> {
    let (set, _) = concatenate(forward, backward, hop_limit);
    set.to_paths()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: u32) -> VertexId {
        VertexId(x)
    }

    fn set(paths: &[&[u32]]) -> PathSet {
        let mut s = PathSet::new();
        for p in paths {
            let vs: Vec<VertexId> = p.iter().map(|&x| VertexId(x)).collect();
            s.push_slice(&vs);
        }
        s
    }

    #[test]
    fn joins_on_shared_end_vertex() {
        // Forward prefixes from s = 0, backward prefixes from t = 5 (in Gr orientation).
        let forward = set(&[&[0], &[0, 1], &[0, 1, 2]]);
        let backward = set(&[&[5], &[5, 4], &[5, 4, 2]]);
        let (result, stats) = concatenate(&forward, &backward, 4);
        let paths = result.to_paths();
        // Canonical splits: (0,1,2)+(5,4,2) -> 0,1,2,4,5 with fwd=2,bwd=2.
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].vertices(), &[v(0), v(1), v(2), v(4), v(5)]);
        assert_eq!(stats.produced, 1);
    }

    #[test]
    fn canonical_split_prevents_duplicates() {
        // Path 0 -> 1 -> 2 -> 3 of length 3 could be split (0,1)+(3,2,1) or (0,1,2)+(3,2).
        let forward = set(&[&[0], &[0, 1], &[0, 1, 2]]);
        let backward = set(&[&[3], &[3, 2], &[3, 2, 1]]);
        let paths = concatenate_to_paths(&forward, &backward, 3);
        assert_eq!(
            paths.len(),
            1,
            "each result path must be produced exactly once"
        );
        assert_eq!(paths[0].vertices(), &[v(0), v(1), v(2), v(3)]);
    }

    #[test]
    fn hop_limit_filters_long_paths() {
        let forward = set(&[&[0, 1, 2]]);
        let backward = set(&[&[5, 4, 2]]);
        assert_eq!(concatenate_to_paths(&forward, &backward, 4).len(), 1);
        assert_eq!(concatenate_to_paths(&forward, &backward, 3).len(), 0);
    }

    #[test]
    fn non_simple_joins_are_rejected() {
        // Forward 0 -> 1 -> 2, backward (from t=3) 3 -> 1 -> 2: joined path repeats 1.
        let forward = set(&[&[0, 1, 2]]);
        let backward = set(&[&[3, 1, 2]]);
        let (result, stats) = concatenate(&forward, &backward, 5);
        assert!(result.is_empty());
        assert_eq!(stats.rejected_not_simple, 1);
    }

    #[test]
    fn zero_hop_halves_support_short_paths() {
        // Path of length 1: s = 0, t = 1. Forward (0,1) joins with backward (1).
        let forward = set(&[&[0], &[0, 1]]);
        let backward = set(&[&[1]]);
        let paths = concatenate_to_paths(&forward, &backward, 1);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].vertices(), &[v(0), v(1)]);
    }

    #[test]
    fn trivial_query_s_equals_t() {
        let forward = set(&[&[7]]);
        let backward = set(&[&[7]]);
        let paths = concatenate_to_paths(&forward, &backward, 3);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].vertices(), &[v(7)]);
    }

    #[test]
    fn empty_sides_produce_nothing() {
        let forward = set(&[&[0, 1]]);
        let empty = PathSet::new();
        assert_eq!(concatenate(&forward, &empty, 5).0.len(), 0);
        assert_eq!(concatenate(&empty, &forward, 5).0.len(), 0);
    }

    #[test]
    fn scratch_join_matches_fresh_join_across_reuses() {
        let mut scratch = JoinScratch::default();
        let cases: Vec<(PathSet, PathSet, u32)> = vec![
            (
                set(&[&[0], &[0, 1], &[0, 1, 2]]),
                set(&[&[5], &[5, 4], &[5, 4, 2]]),
                4,
            ),
            (
                set(&[&[0], &[0, 1], &[0, 1, 2]]),
                set(&[&[3], &[3, 2], &[3, 2, 1]]),
                3,
            ),
            (set(&[&[0, 1], &[0, 2, 1]]), set(&[&[3, 1], &[3, 4, 1]]), 10),
        ];
        for (forward, backward, k) in cases {
            let mut fresh = Vec::new();
            let fresh_stats = concatenate_with(&forward, &backward, k, |p| fresh.push(p.to_vec()));
            let mut reused = Vec::new();
            // Scratch reused across joins: identical paths in identical order.
            let reused_stats = concatenate_scratch(&forward, &backward, k, &mut scratch, |p| {
                reused.push(p.to_vec());
                SinkFlow::Continue
            });
            assert_eq!(reused, fresh);
            assert_eq!(reused_stats, fresh_stats);
        }
    }

    #[test]
    fn streaming_prefix_join_matches_the_batch_join() {
        let forward = set(&[&[0], &[0, 1], &[0, 1, 2], &[0, 2], &[0, 2, 1]]);
        let backward = set(&[&[3], &[3, 2], &[3, 1], &[3, 4, 1], &[3, 4, 2]]);
        let mut batch = Vec::new();
        let batch_stats = concatenate_with(&forward, &backward, 10, |p| batch.push(p.to_vec()));

        // Streaming: prepare once, join prefix by prefix in forward insertion order.
        let mut scratch = JoinScratch::default();
        prepare_suffixes(&backward, &mut scratch);
        let mut streamed = Vec::new();
        let mut stats = JoinStats::default();
        for prefix in forward.iter() {
            let flow = join_prefix(prefix, &backward, 10, &mut scratch, &mut stats, |p| {
                streamed.push(p.to_vec());
                SinkFlow::Continue
            });
            assert!(flow.is_continue());
        }
        assert_eq!(streamed, batch, "same paths in the same order");
        assert_eq!(stats, batch_stats);
    }

    #[test]
    fn early_verdicts_abort_the_join() {
        let forward = set(&[&[0, 1], &[0, 2, 1]]);
        let backward = set(&[&[3, 1], &[3, 4, 1]]);
        // Full join yields several paths; stop after the first.
        let mut scratch = JoinScratch::default();
        let mut seen = 0usize;
        let stats = concatenate_scratch(&forward, &backward, 10, &mut scratch, |_p| {
            seen += 1;
            SinkFlow::SkipQuery
        });
        assert_eq!(seen, 1);
        assert_eq!(stats.produced, 1);
        let (full, full_stats) = concatenate(&forward, &backward, 10);
        assert!(full.len() > 1);
        assert!(stats.candidate_pairs < full_stats.candidate_pairs);
    }

    #[test]
    fn stats_count_candidates_and_rejections() {
        let forward = set(&[&[0, 1], &[0, 2, 1]]);
        let backward = set(&[&[3, 1], &[3, 4, 1]]);
        let (_, stats) = concatenate(&forward, &backward, 10);
        assert_eq!(stats.candidate_pairs, 4);
        assert_eq!(
            stats.produced + stats.rejected_split + stats.rejected_not_simple,
            4
        );
    }
}
