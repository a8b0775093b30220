//! The contract of a per-root distance row, pinned against a `BTreeMap<VertexId, u32>`.
//!
//! Whatever a row stores inside, its observable behaviour is that of a sorted map from
//! vertex to bounded distance: `get`, `len`, ascending `iter`/`vertices`,
//! `intersection_size`, and `insert_min` (return value *and* resulting contents). The
//! hand-made rows sit on both sides of every quantity a layout choice could depend on —
//! the number of entries against the id span, the largest id, the index bound against what
//! one byte can hold — and the random ones come out of the index itself, on the same graph
//! shapes `tests/prop_correctness.rs` uses. The last two tests pin incremental maintenance
//! (`note_deletions` → `apply_insertions` → `flush_dirty`, the order `Engine` applies a
//! mixed update in) to a fresh `BatchIndex::build`.

use hcsp_graph::generators::regular::{grid, path};
use hcsp_graph::traversal::{bfs_distances_bounded, UNREACHED};
use hcsp_graph::{DeltaGraph, DiGraph, Direction, VertexId};
use hcsp_index::{BatchIndex, DistanceIndex, DistanceRow, INF};
use proptest::prelude::*;
use std::collections::BTreeMap;

type Oracle = BTreeMap<VertexId, u32>;

fn v(x: u32) -> VertexId {
    VertexId(x)
}

/// A row holding `pairs`, for an index built with hop bound `bound`.
fn row_of(pairs: &[(VertexId, u32)], bound: u32) -> DistanceRow {
    DistanceRow::from_pairs(pairs.to_vec(), bound)
}

/// The map `row_of` must behave as: the minimum distance per vertex.
fn oracle_of(pairs: &[(VertexId, u32)]) -> Oracle {
    let mut oracle = Oracle::new();
    for &(vertex, d) in pairs {
        let slot = oracle.entry(vertex).or_insert(d);
        *slot = (*slot).min(d);
    }
    oracle
}

/// Ids worth probing besides the stored ones: both neighbours of every stored id, the
/// first ids past the largest one, and the ends of the id space.
fn probes(oracle: &Oracle) -> Vec<VertexId> {
    let mut ids = vec![v(0), v(1), v(u32::MAX - 1), v(u32::MAX)];
    for &VertexId(x) in oracle.keys() {
        ids.extend([v(x.saturating_sub(1)), v(x), v(x.saturating_add(1))]);
    }
    if let Some(&VertexId(last)) = oracle.keys().next_back() {
        ids.extend((1..=9).map(|step| v(last.saturating_add(step))));
    }
    ids
}

fn assert_row_is(row: &DistanceRow, oracle: &Oracle, what: &str) {
    assert_eq!(row.len(), oracle.len(), "{what}: len");
    assert_eq!(row.is_empty(), oracle.is_empty(), "{what}: is_empty");
    let stored: Vec<(VertexId, u32)> = row.iter().collect();
    let expected: Vec<(VertexId, u32)> = oracle.iter().map(|(&k, &d)| (k, d)).collect();
    assert_eq!(stored, expected, "{what}: iter is ascending by vertex");
    let ids: Vec<VertexId> = row.vertices().collect();
    let expected_ids: Vec<VertexId> = oracle.keys().copied().collect();
    assert_eq!(ids, expected_ids, "{what}: vertices");
    for probe in probes(oracle) {
        let want = oracle.get(&probe).copied();
        assert_eq!(row.get(probe), want, "{what}: get({probe})");
        assert_eq!(
            row.contains(probe),
            want.is_some(),
            "{what}: contains({probe})"
        );
        assert_eq!(
            row.distance_or_inf(probe),
            want.unwrap_or(INF),
            "{what}: distance_or_inf({probe})"
        );
    }
}

/// `insert_min` on the oracle: record `d` when it is an improvement, report whether it was.
fn oracle_insert_min(oracle: &mut Oracle, vertex: VertexId, d: u32) -> bool {
    match oracle.get_mut(&vertex) {
        Some(old) if d >= *old => false,
        Some(old) => {
            *old = d;
            true
        }
        None => {
            oracle.insert(vertex, d);
            true
        }
    }
}

/// Applies `ops` to row and oracle alike, comparing the return value and the whole
/// contents after every single operation.
fn assert_insert_min_sequence(
    row: &mut DistanceRow,
    oracle: &mut Oracle,
    ops: &[(VertexId, u32)],
    what: &str,
) {
    for (step, &(vertex, d)) in ops.iter().enumerate() {
        let want = oracle_insert_min(oracle, vertex, d);
        let got = row.insert_min(vertex, d);
        let what = format!("{what}, op {step} insert_min({vertex}, {d})");
        assert_eq!(got, want, "{what}: return value");
        assert_row_is(row, oracle, &what);
    }
}

/// `count` ids spread evenly over `0..span`, always including `span - 1`, with distances
/// cycling through `0..=bound`.
fn spread(count: u32, span: u32, bound: u32) -> Vec<(VertexId, u32)> {
    assert!(0 < count && count <= span);
    (0..count)
        .map(|i| {
            let id = if i + 1 == count {
                span - 1
            } else {
                (i as u64 * span as u64 / count as u64) as u32
            };
            (v(id), i % (bound + 1))
        })
        .collect()
}

/// A named hand-made row: `(name, pairs, bound)`.
type NamedRow = (String, Vec<(VertexId, u32)>, u32);

/// Hand-made rows on both sides of everything a layout rule could
/// look at. Spans are multiples of 8 so that "one eighth full" is an exact entry count.
fn straddling_rows() -> Vec<NamedRow> {
    let mut rows: Vec<NamedRow> = vec![
        ("empty".into(), Vec::new(), 7),
        ("one entry at id 0".into(), vec![(v(0), 0)], 7),
        ("one entry at id 7".into(), vec![(v(7), 3)], 7),
        ("one entry at id 8".into(), vec![(v(8), 3)], 7),
        ("one entry at id 9".into(), vec![(v(9), 3)], 7),
        ("one entry at the last id".into(), vec![(v(u32::MAX), 2)], 7),
        (
            "a few entries far apart".into(),
            vec![(v(3), 1), (v(1_000_000), 2), (v(u32::MAX - 1), 3)],
            7,
        ),
        (
            "duplicates keep the minimum".into(),
            vec![(v(5), 4), (v(2), 1), (v(5), 2), (v(2), 6)],
            7,
        ),
    ];
    for span in [64u32, 1024, 4096] {
        let eighth = span / 8;
        for count in [eighth - 1, eighth, eighth + 1, span / 2, span - 1, span] {
            for bound in [7u32, 254, 255] {
                rows.push((
                    format!("{count} of span {span}, bound {bound}"),
                    spread(count, span, bound),
                    bound,
                ));
            }
        }
    }
    rows
}

#[test]
fn straddling_rows_read_like_the_oracle() {
    for (name, pairs, bound) in straddling_rows() {
        let row = row_of(&pairs, bound);
        assert_row_is(&row, &oracle_of(&pairs), &name);
    }
}

#[test]
fn insert_min_on_straddling_rows_matches_the_oracle() {
    for (name, pairs, bound) in straddling_rows() {
        let mut row = row_of(&pairs, bound);
        let mut oracle = oracle_of(&pairs);
        let last = oracle.keys().next_back().map_or(0, |id| id.raw());
        let inside = last / 2;
        let mut ops: Vec<(VertexId, u32)> = vec![
            // An id inside the span: new or already stored, then lowered, equal, raised.
            (v(inside), bound),
            (v(inside), bound.saturating_sub(1)),
            (v(inside), bound.saturating_sub(1)),
            (v(inside), bound),
            (v(inside), 0),
            // The stored last id, then the first ids past it.
            (v(last), 0),
            (v(last.saturating_add(1)), bound),
            (v(last.saturating_add(2)), 1),
        ];
        // Fill in around the middle: a thin row becomes more than one eighth full ...
        ops.extend((0..24).map(|i| (v(inside.saturating_add(i)), i % (bound + 1))));
        // ... and ids far past the span thin any row out again, up to the last id there is.
        ops.extend([
            (v(last.saturating_add(100_000)), bound),
            (v(u32::MAX - 1), 1),
            (v(u32::MAX), bound),
            (v(u32::MAX), 0),
        ]);
        assert_insert_min_sequence(&mut row, &mut oracle, &ops, &name);
    }
}

#[test]
fn intersection_size_on_straddling_rows_matches_the_oracle() {
    let rows: Vec<(String, DistanceRow, Oracle)> = straddling_rows()
        .into_iter()
        .filter(|(_, _, bound)| *bound != 254)
        .map(|(name, pairs, bound)| (name, row_of(&pairs, bound), oracle_of(&pairs)))
        .collect();
    for (name_a, row_a, oracle_a) in &rows {
        for (name_b, row_b, oracle_b) in &rows {
            let want = oracle_a
                .keys()
                .filter(|id| oracle_b.contains_key(id))
                .count();
            assert_eq!(
                row_a.intersection_size(row_b),
                want,
                "|{name_a} ∩ {name_b}|"
            );
        }
    }
}

/// A path of 300 vertices has a vertex at every distance up to 299, so bounds 254 and 255
/// store distances on either side of what one byte can tell apart from "no entry".
#[test]
fn bounds_on_both_sides_of_one_byte_store_every_distance() {
    let g = path(300);
    for bound in [253u32, 254, 255, 256] {
        for (dir, root) in [(Direction::Forward, v(0)), (Direction::Backward, v(299))] {
            let (index, _) = DistanceIndex::build(&g, &[root], dir, bound);
            let oracle = bfs_oracle(&g, root, dir, bound);
            assert_eq!(oracle.len() as u32, bound + 1);
            let what = format!("path(300), {dir:?}, bound {bound}");
            assert_row_is(index.map_of(root).expect("indexed root"), &oracle, &what);
            for k in [0, 1, bound - 1, bound, bound + 1] {
                assert_eq!(
                    index.neighborhood(root, k),
                    oracle_neighborhood(&oracle, k),
                    "{what}: neighborhood(k = {k})"
                );
            }
        }
    }
}

/// Bounded BFS distances from `root` as a map holding only the vertices within `bound`.
fn bfs_oracle(graph: &DiGraph, root: VertexId, dir: Direction, bound: u32) -> Oracle {
    bfs_distances_bounded(graph, root, dir, bound)
        .into_iter()
        .enumerate()
        .filter(|&(_, d)| d != UNREACHED)
        .map(|(i, d)| (VertexId::new(i), d))
        .collect()
}

fn oracle_neighborhood(oracle: &Oracle, k: u32) -> Vec<VertexId> {
    oracle
        .iter()
        .filter(|&(_, &d)| d <= k)
        .map(|(&id, _)| id)
        .collect()
}

/// Strategy: a random directed graph with 2..=28 vertices and a moderate edge budget (the
/// shape of `workload_strategy` in `tests/prop_correctness.rs`).
fn graph_strategy() -> impl Strategy<Value = DiGraph> {
    (2usize..=28).prop_flat_map(|n| {
        let max_edges = (n * (n - 1)).min(120);
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_edges)
            .prop_map(move |edges| DiGraph::from_edge_list(n, &edges).expect("edges in range"))
    })
}

/// Strategy: a graph, 1..=6 roots on it, and a hop bound.
fn indexed_graph_strategy() -> impl Strategy<Value = (DiGraph, Vec<VertexId>, u32)> {
    graph_strategy().prop_flat_map(|g| {
        let n = g.num_vertices() as u32;
        let roots = proptest::collection::vec(0..n, 1..=6)
            .prop_map(|raw| raw.into_iter().map(VertexId).collect::<Vec<_>>());
        (Just(g), roots, 1u32..=6)
    })
}

/// Raw endpoint pairs: edges to insert, edges to delete.
type Edits = (Vec<(u32, u32)>, Vec<(u32, u32)>);

/// Strategy: edits for a graph with at most `n` vertices; the test reduces the endpoints
/// modulo the graph's size, letting inserted ones fall just past it (the graph grows).
fn edits_strategy(n: u32) -> impl Strategy<Value = Edits> {
    (
        proptest::collection::vec((0..n + 2, 0..n + 2), 0..=4),
        proptest::collection::vec((0..n, 0..n), 0..=6),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every row the index builds is the bounded BFS from its root, read through every
    /// accessor, and `neighborhood` is that map filtered by `k`.
    #[test]
    fn index_rows_match_the_bfs_oracle((graph, roots, bound) in indexed_graph_strategy()) {
        for dir in [Direction::Forward, Direction::Backward] {
            let (index, _) = DistanceIndex::build(&graph, &roots, dir, bound);
            let oracles: Vec<Oracle> = index
                .roots()
                .iter()
                .map(|&root| bfs_oracle(&graph, root, dir, bound))
                .collect();
            prop_assert_eq!(
                index.total_entries(),
                oracles.iter().map(Oracle::len).sum::<usize>()
            );
            for (&root, oracle) in index.roots().iter().zip(&oracles) {
                let row = index.map_of(root).expect("indexed root");
                assert_row_is(row, oracle, &format!("root {root} {dir:?} bound {bound}"));
                for k in 0..=bound + 1 {
                    prop_assert_eq!(index.neighborhood(root, k), oracle_neighborhood(oracle, k));
                }
                for (&other, other_oracle) in index.roots().iter().zip(&oracles) {
                    let want = oracle.keys().filter(|id| other_oracle.contains_key(id)).count();
                    let other_row = index.map_of(other).expect("indexed root");
                    prop_assert_eq!(row.intersection_size(other_row), want);
                }
            }
        }
    }

    /// `insert_min` with arbitrary in-bound offers, on rows the index built.
    #[test]
    fn insert_min_on_index_rows_matches_the_oracle(
        (graph, roots, bound) in indexed_graph_strategy(),
        offers in proptest::collection::vec((0u32..40, 0u32..=6), 0..=24),
    ) {
        let (index, _) = DistanceIndex::build(&graph, &roots, Direction::Forward, bound);
        let root = index.roots()[0];
        let mut row = index.map_of(root).expect("indexed root").clone();
        let mut oracle = bfs_oracle(&graph, root, Direction::Forward, bound);
        let ops: Vec<(VertexId, u32)> =
            offers.into_iter().map(|(id, d)| (v(id), d.min(bound))).collect();
        assert_insert_min_sequence(&mut row, &mut oracle, &ops, &format!("root {root}"));
    }

    /// A mixed update maintained in place — deletions noted, insertions relaxed, dirty
    /// roots re-searched — leaves exactly the index a fresh build over the new graph gives.
    #[test]
    fn maintained_index_equals_a_fresh_build(
        (graph, roots, bound) in indexed_graph_strategy(),
        (inserts, deletes) in edits_strategy(28),
    ) {
        let n = graph.num_vertices() as u32;
        let clamp = |(a, b): (u32, u32), limit: u32| (v(a % limit), v(b % limit));
        let mut index = BatchIndex::build(&graph, &roots, &roots, bound);
        let mut delta = DeltaGraph::new(graph);
        let deleted: Vec<_> = deletes
            .into_iter()
            .map(|e| clamp(e, n))
            .filter(|&(a, b)| delta.delete_edge(a, b))
            .collect();
        let inserted: Vec<_> = inserts
            .into_iter()
            .map(|e| clamp(e, n + 2))
            .filter(|&(a, b)| delta.insert_edge(a, b))
            .collect();
        let updated = delta.compact();
        index.note_deletions(&updated, &deleted);
        index.apply_insertions(&updated, &inserted);
        index.flush_dirty(&updated);
        assert_equals_fresh_build(&updated, &index);
    }
}

/// Both sides of `index` hold the distances and the entry count of a fresh build over the
/// same roots and bound, and each side's rows are the BFS oracle's.
fn assert_equals_fresh_build(graph: &DiGraph, index: &BatchIndex) {
    let fresh = BatchIndex::build(
        graph,
        index.source_index().roots(),
        index.target_index().roots(),
        index.bound(),
    );
    assert_eq!(index.stats().stored_entries, fresh.stats().stored_entries);
    let sides = [
        (
            index.source_index(),
            fresh.source_index(),
            Direction::Forward,
        ),
        (
            index.target_index(),
            fresh.target_index(),
            Direction::Backward,
        ),
    ];
    for (side, fresh_side, dir) in sides {
        assert_eq!(side.total_entries(), fresh_side.total_entries());
        for &root in side.roots() {
            let oracle = bfs_oracle(graph, root, dir, index.bound());
            let what = format!("maintained root {root} {dir:?}");
            assert_row_is(side.map_of(root).expect("indexed root"), &oracle, &what);
            assert_row_is(
                fresh_side.map_of(root).expect("indexed root"),
                &oracle,
                &what,
            );
        }
    }
}

/// The same on a graph where every root reaches every vertex, so every row is full: grid
/// shortcuts shorten many distances at once, deleted grid edges leave some roots with an
/// equal-length detour (kept) and others without (re-searched).
#[test]
fn maintained_full_rows_equal_a_fresh_build() {
    let one_way: Vec<(u32, u32)> = grid(8, 8)
        .edges()
        .map(|(a, b)| (a.raw(), b.raw()))
        .collect();
    let two_way: Vec<(u32, u32)> = one_way
        .iter()
        .flat_map(|&(a, b)| [(a, b), (b, a)])
        .collect();
    let g = DiGraph::from_edge_list(64, &two_way).expect("edges in range");
    let roots = [v(0), v(9), v(27), v(63)];
    let mut index = BatchIndex::build(&g, &roots, &roots, 14);
    assert_eq!(
        index.stats().stored_entries,
        2 * roots.len() * g.num_vertices(),
        "every vertex of a two-way 8x8 grid is within 14 hops of every other"
    );
    type Edges<'a> = &'a [(u32, u32)];
    let steps: [(Edges<'_>, Edges<'_>); 3] = [
        (&[(0, 63), (63, 0)], &[]),
        (&[], &[(0, 1), (9, 10), (62, 63)]),
        (&[(5, 40), (64, 0), (63, 64)], &[(0, 63), (27, 28), (8, 0)]),
    ];
    let mut delta = DeltaGraph::new(g);
    for (inserts, deletes) in steps {
        let pairs = |edges: &[(u32, u32)]| -> Vec<(VertexId, VertexId)> {
            edges.iter().map(|&(a, b)| (v(a), v(b))).collect()
        };
        let (inserted, deleted) = (pairs(inserts), pairs(deletes));
        for &(a, b) in &deleted {
            assert!(delta.delete_edge(a, b), "edge {a} -> {b} exists");
        }
        for &(a, b) in &inserted {
            assert!(delta.insert_edge(a, b), "edge {a} -> {b} is new");
        }
        let updated = delta.compact();
        index.note_deletions(&updated, &deleted);
        index.apply_insertions(&updated, &inserted);
        index.flush_dirty(&updated);
        assert_equals_fresh_build(&updated, &index);
    }
}
