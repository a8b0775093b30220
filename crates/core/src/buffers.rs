//! Reusable per-thread search buffers: the allocation-free enumeration hot path.
//!
//! The DFS half searches and the `⊕` join are the inner loops of every algorithm in this
//! crate. Written naively they allocate constantly: a fresh candidate `Vec` per expanded
//! vertex, a linear `stack.contains` scan per candidate, fresh `PathSet`s per query, and a
//! fresh hash map per join. [`SearchBuffers`] hoists all of that state out of the hot path
//! so a batch (or a worker thread serving many batches) allocates once and then reuses:
//!
//! * **Prefix stack** — the current DFS prefix, one push/pop per expansion.
//! * **Visited marks** — an epoch-stamped `u32` array over the vertex set; membership of
//!   the current prefix is O(1) instead of a linear stack scan, and "clearing" it for the
//!   next traversal is a single epoch increment, not an O(|V|) wipe.
//! * **Candidate arena** — a single flat `Vec` holding the candidate lists of *all* open
//!   DFS levels back to back: a level records its start offset, appends its
//!   candidates, iterates them by index, and truncates back on exit. Deeper levels only
//!   ever append after the current level's range, so no per-level allocation is needed.
//! * **Half-search path sets** — the forward/backward prefix sets of a query, cleared
//!   (capacity retained) between queries instead of reallocated.
//! * **Join scratch** — the bucketed join-vertex table, its per-vertex slot table and the
//!   assembly buffer of the `⊕` concatenation (see [`JoinScratch`]).
//!
//! Buffers are deliberately `!Sync`-by-use: every worker thread owns its own
//! `SearchBuffers`, which is what the cluster-sharded parallel executor
//! ([`crate::parallel`]) hands each worker.

use crate::detection::DetectionScratch;
use crate::path::PathSet;
use hcsp_graph::{DiGraph, VertexId};

/// Epoch-stamped membership marks over the vertex set.
///
/// `mark(v)` stamps `v` with the current epoch, `contains(v)` compares stamps, and
/// [`VisitMarks::reset`] starts a new traversal by bumping the epoch — O(1) instead of
/// clearing the whole array. The stamp array is sized lazily to the graph.
#[derive(Debug, Default, Clone)]
pub struct VisitMarks {
    stamps: Vec<u32>,
    epoch: u32,
}

impl VisitMarks {
    /// Starts a new traversal over a graph of `num_vertices` vertices: all marks cleared.
    pub fn reset(&mut self, num_vertices: usize) {
        if self.stamps.len() < num_vertices {
            self.stamps.resize(num_vertices, 0);
        }
        if self.epoch == u32::MAX {
            // Epoch wrap: wipe once every 2^32 - 1 traversals.
            self.stamps.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Marks `v` as a member of the current prefix.
    #[inline]
    pub fn mark(&mut self, v: VertexId) {
        // lint:allow(panic-free-hot-path) v.index() < stamps.len(): reset() sized the table to the graph
        self.stamps[v.index()] = self.epoch;
    }

    /// Unmarks `v` (on DFS backtrack).
    #[inline]
    pub fn unmark(&mut self, v: VertexId) {
        // lint:allow(panic-free-hot-path) v was marked first, so reset() already covered its index
        self.stamps[v.index()] = 0;
    }

    /// Whether `v` is on the current prefix.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        // lint:allow(panic-free-hot-path) v.index() < stamps.len(): reset() sized the table to the graph
        self.stamps[v.index()] == self.epoch
    }
}

/// Reusable scratch state of the `⊕` join (see [`crate::concat::concatenate_scratch`]).
///
/// The join indexes the backward prefix set by its end (join) vertex. A per-call hash map
/// would pay an allocation per bucket; the scratch instead keeps a CSR-style bucket table
/// built once per backward set: one contiguous run of `(path index, hops)` entries per
/// end vertex, offsets delimiting the runs, and a flat per-vertex slot table naming each
/// vertex's bucket. A forward prefix finds its run with one bounds-checked load into
/// `slots` and sweeps it without any per-candidate comparisons or suffix-length fetches.
///
/// Like [`VisitMarks`], `slots` grows lazily — up to the largest end vertex seen, not
/// to the graph — and is never wiped: preparing a backward set first clears the slots of
/// the previous set's `ends` only, so a join costs what its halves hold, not `|V|`. All
/// buffers are reused across joins; only capacity growth ever allocates.
#[derive(Debug, Default, Clone)]
pub struct JoinScratch {
    /// Distinct end (join) vertices of the prepared backward set, ascending; end `i` owns
    /// bucket `i + 1`.
    pub(crate) ends: Vec<VertexId>,
    /// Bucket per vertex id. Bucket 0 is the empty run: every vertex that ends no
    /// backward path holds 0, and so, implicitly, does every vertex past the table.
    pub(crate) slots: Vec<u32>,
    /// CSR offsets into `entries`: bucket `b` spans `entries[offsets[b]..offsets[b + 1]]`.
    pub(crate) offsets: Vec<u32>,
    /// `(backward path index, backward hops)` entries, bucket by bucket; index-ascending
    /// within each bucket, which pins the emission order.
    pub(crate) entries: Vec<(u32, u32)>,
    /// Sort scratch of [`crate::concat::prepare_suffixes`].
    pub(crate) pairs: Vec<(VertexId, u32)>,
    /// Assembly buffer for one joined path.
    pub(crate) assembled: Vec<VertexId>,
}

/// One open level of the frontier traversal: a contiguous candidate run
/// `candidates[start..end]` with `cursor` marking the next candidate to take.
///
/// The DFS stack is a `Vec<LevelRun>`: descending pushes a run, exhausting a run pops
/// it. Because deeper runs only ever append after `end`, truncating the arena back to
/// `start` on pop reclaims the space with no per-level allocation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LevelRun {
    /// First candidate of this level in the arena.
    pub(crate) start: usize,
    /// Next candidate to expand (`start..=end`).
    pub(crate) cursor: usize,
    /// One past the last candidate of this level.
    pub(crate) end: usize,
}

/// Per-thread reusable buffers of the enumeration hot path.
///
/// Create one per worker (or per batch) and pass it to the `*_buffered` entry points of
/// [`crate::pathenum::PathEnum`], [`crate::basic_enum::BasicEnum`] and
/// [`crate::batch_enum::BatchEnum`]. The convenience (non-`_buffered`) entry points create
/// a transient instance per call, which preserves their old behaviour at the old cost.
#[derive(Debug, Default, Clone)]
pub struct SearchBuffers {
    /// Current DFS prefix (root first).
    pub(crate) stack: Vec<VertexId>,
    /// O(1) membership of the current prefix.
    pub(crate) marks: VisitMarks,
    /// Flat candidate arena shared by all open levels.
    pub(crate) candidates: Vec<VertexId>,
    /// Open levels of the iterative frontier traversal.
    pub(crate) levels: Vec<LevelRun>,
    /// Sort keys parallel to `candidates`: `(dist-to-anchor, degree)` per candidate,
    /// filled by the frontier fill pass so ordering never re-derives them.
    pub(crate) cand_keys: Vec<(u32, u32)>,
    /// Reusable `(dist, degree, vertex)` triples for the keyed candidate sort.
    pub(crate) sort_buf: Vec<(u32, u32, VertexId)>,
    /// Reusable forward half-search prefix set.
    pub(crate) forward: PathSet,
    /// Reusable backward half-search prefix set.
    pub(crate) backward: PathSet,
    /// Reusable join scratch.
    pub(crate) join: JoinScratch,
    /// Reusable per-vertex state of common sub-query detection.
    pub(crate) detection: DetectionScratch,
}

impl SearchBuffers {
    /// Creates empty buffers; arrays grow lazily to the graphs they are used on.
    pub fn new() -> Self {
        SearchBuffers::default()
    }

    /// Creates buffers pre-sized for `graph` (avoids the first-use resize).
    pub fn for_graph(graph: &DiGraph) -> Self {
        let mut buffers = SearchBuffers::default();
        buffers.marks.reset(graph.num_vertices());
        buffers
    }

    /// Prepares the stack/marks/arena for a fresh traversal over `graph`.
    ///
    /// Returns with an empty stack, all marks cleared, and an empty candidate arena;
    /// allocations are retained.
    pub(crate) fn begin_traversal(&mut self, graph: &DiGraph) {
        self.stack.clear();
        self.candidates.clear();
        self.levels.clear();
        self.cand_keys.clear();
        self.marks.reset(graph.num_vertices());
    }

    /// Sorts the candidate run `candidates[start..end]` by its precomputed
    /// `(dist, degree)` keys, ties broken by vertex id — the exact total order of
    /// [`SearchOrder::DistanceThenDegree`](crate::search_order::SearchOrder), but over
    /// keys recorded during the fill pass instead of re-derived per candidate.
    pub(crate) fn sort_run_by_keys(&mut self, start: usize, end: usize) {
        self.sort_buf.clear();
        self.sort_buf.extend(
            // lint:allow(panic-free-hot-path) start..end is a level run the fill pass recorded
            self.candidates[start..end]
                .iter()
                // lint:allow(panic-free-hot-path) cand_keys grows in lockstep with candidates
                .zip(&self.cand_keys[start..end])
                .map(|(&w, &(d, deg))| (d, deg, w)),
        );
        self.sort_buf.sort_unstable();
        for (i, &(d, deg, w)) in self.sort_buf.iter().enumerate() {
            // lint:allow(panic-free-hot-path) sort_buf holds exactly end - start entries
            self.candidates[start + i] = w;
            // lint:allow(panic-free-hot-path) same run as the line above
            self.cand_keys[start + i] = (d, deg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcsp_graph::generators::regular::grid;

    fn v(x: u32) -> VertexId {
        VertexId(x)
    }

    #[test]
    fn marks_track_membership_per_epoch() {
        let mut marks = VisitMarks::default();
        marks.reset(10);
        assert!(!marks.contains(v(3)));
        marks.mark(v(3));
        assert!(marks.contains(v(3)));
        marks.unmark(v(3));
        assert!(!marks.contains(v(3)));

        marks.mark(v(7));
        marks.reset(10);
        assert!(!marks.contains(v(7)), "reset clears all marks");
    }

    #[test]
    fn marks_grow_with_the_graph() {
        let mut marks = VisitMarks::default();
        marks.reset(2);
        marks.mark(v(1));
        marks.reset(100);
        marks.mark(v(99));
        assert!(marks.contains(v(99)));
        assert!(!marks.contains(v(1)));
    }

    #[test]
    fn epoch_wrap_wipes_stale_stamps() {
        let mut marks = VisitMarks {
            stamps: vec![u32::MAX - 1; 4],
            epoch: u32::MAX - 1,
        };
        // Stale stamps from the pre-wrap era must not leak into the post-wrap epoch.
        assert!(marks.contains(v(0)));
        marks.reset(4);
        assert!(!marks.contains(v(0)));
        marks.reset(4);
        assert!(!marks.contains(v(0)));
        marks.mark(v(2));
        assert!(marks.contains(v(2)));
    }

    #[test]
    fn begin_traversal_clears_state_but_keeps_capacity() {
        let g = grid(3, 3);
        let mut buffers = SearchBuffers::for_graph(&g);
        buffers.stack.push(v(0));
        buffers.candidates.extend([v(1), v(2)]);
        buffers.cand_keys.extend([(1, 2), (1, 2)]);
        buffers.levels.push(LevelRun {
            start: 0,
            cursor: 0,
            end: 2,
        });
        buffers.marks.mark(v(0));
        let stack_cap = buffers.stack.capacity();
        buffers.begin_traversal(&g);
        assert!(buffers.stack.is_empty());
        assert!(buffers.candidates.is_empty());
        assert!(buffers.levels.is_empty());
        assert!(buffers.cand_keys.is_empty());
        assert!(!buffers.marks.contains(v(0)));
        assert!(buffers.stack.capacity() >= stack_cap);
    }

    #[test]
    fn sort_run_by_keys_orders_by_distance_then_degree_then_vertex() {
        // The key ends in the vertex id, so it is a total order: the unstable sort has
        // exactly one valid output even among candidates tied on (distance, degree).
        let mut buffers = SearchBuffers::new();
        // An outer run that must stay untouched, then the run being sorted.
        buffers.candidates.extend([v(9), v(8)]);
        buffers.cand_keys.extend([(7, 7), (0, 0)]);
        buffers
            .candidates
            .extend([v(5), v(4), v(3), v(2), v(1), v(0)]);
        buffers
            .cand_keys
            .extend([(2, 1), (1, 3), (1, 3), (1, 2), (u32::MAX, 0), (2, 1)]);
        buffers.sort_run_by_keys(2, 8);
        assert_eq!(
            buffers.candidates,
            [v(9), v(8), v(2), v(3), v(4), v(0), v(5), v(1)],
            "unreachable (INF) sorts last; ties fall back to degree, then vertex id"
        );
        assert_eq!(
            buffers.cand_keys,
            [
                (7, 7),
                (0, 0),
                (1, 2),
                (1, 3),
                (1, 3),
                (2, 1),
                (2, 1),
                (u32::MAX, 0)
            ],
            "keys move with their candidates"
        );
    }
}
