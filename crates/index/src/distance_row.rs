//! Per-root bounded-distance rows.
//!
//! A row holds `dist(root, v)` for every vertex `v` within the index bound of one root;
//! every other vertex is at distance ∞. It reads as a map sorted by vertex, and stores
//! itself in whichever of two layouts is smaller **for its own contents**:
//!
//! * **dense** — one byte per vertex id in `0..span`, where `span` is the largest stored id
//!   plus one and `u8::MAX` means "no entry". A lookup is a bounds-checked byte load, and
//!   `insert_min` is a byte store.
//! * **sparse** — `(vertex, distance)` pairs sorted by vertex, 8 bytes per entry. A lookup
//!   is a binary search.
//!
//! The rule (the private `dense_fits`, the only place it is written down): a row is dense
//! exactly when the dense form is no larger in bytes, `span ≤ 8 × entries`, and every
//! distance up to the index bound fits beside the ∞ byte, `bound ≤ 254`. There is no
//! option; the rule is re-applied whenever `insert_min` adds an entry, so the layout is a
//! function of the contents and two rows with equal contents and bound compare equal.
//!
//! Which side real rows fall on depends on how much of the graph `bound` hops cover. On
//! the benchmark's 20 k-vertex analogs with `k` of 5–8 nearly every root reaches nearly
//! every vertex — 3,975,948 entries over ~200 roots, rows ~99 % full — so every row is
//! dense: 8× smaller than the pairs, and the Lemma 3.1 probe the enumeration makes per
//! scanned edge *per anchor* (millions per batch) is one byte load instead of a ~15-step
//! binary search. On a graph whose `k`-hop neighbourhoods are a small fraction of `V`
//! (the paper's billion-vertex graphs at `k ≤ 7`), rows stay sparse and memory stays
//! proportional to the neighbourhood reached, not to `|V|` per root.

use hcsp_graph::VertexId;

/// The byte a dense row holds for a vertex with no entry.
const NO_ENTRY: u8 = u8::MAX;

/// The layout rule: whether a row with `entries` entries, ids in `0..span`, built for hop
/// bound `bound`, is stored dense.
fn dense_fits(entries: usize, span: usize, bound: u32) -> bool {
    bound < NO_ENTRY as u32
        && span <= entries.saturating_mul(std::mem::size_of::<(VertexId, u32)>())
}

/// The `(vertex, distance)` entries of a dense row's bytes, ascending by vertex.
fn dense_entries(dist: &[u8]) -> impl Iterator<Item = (VertexId, u32)> + '_ {
    dist.iter()
        .enumerate()
        .filter(|&(_, &d)| d != NO_ENTRY)
        .map(|(i, &d)| (VertexId::new(i), d as u32))
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Layout {
    /// `dist[v]`, or `NO_ENTRY`; `dist.len()` is the largest stored id plus one and
    /// `entries` counts the bytes that are not `NO_ENTRY`.
    Dense { dist: Vec<u8>, entries: usize },
    /// Sorted by vertex, one pair per vertex.
    Sparse(Vec<(VertexId, u32)>),
}

/// The bounded hop distances from (or to) one root: a map from vertex to distance, sorted
/// by vertex, holding only vertices within the bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistanceRow {
    bound: u32,
    layout: Layout,
}

impl DistanceRow {
    /// Creates an empty row for an index with hop bound `bound`.
    pub fn new(bound: u32) -> Self {
        Self::with_layout_for(0, 0, bound)
    }

    /// Builds a row from unsorted `(vertex, distance)` pairs, keeping the minimum distance
    /// per vertex (which is what a BFS frontier union requires). Distances above `bound`
    /// are ∞ and are not stored.
    pub fn from_pairs(mut pairs: Vec<(VertexId, u32)>, bound: u32) -> Self {
        pairs.retain(|&(_, d)| d <= bound);
        pairs.sort_unstable_by_key(|&(v, d)| (v, d));
        pairs.dedup_by_key(|&mut (v, _)| v);
        let span = pairs.last().map_or(0, |&(v, _)| v.index() + 1);
        let mut row = Self::with_layout_for(pairs.len(), span, bound);
        match &mut row.layout {
            Layout::Sparse(sorted) => *sorted = pairs,
            Layout::Dense { .. } => pairs.iter().for_each(|&(v, d)| row.record_new(v, d)),
        }
        row
    }

    /// An empty row laid out for what it is about to hold: `entries` distinct vertices with
    /// ids in `0..span`. Fill it with [`DistanceRow::record_new`], then call
    /// [`DistanceRow::finish`].
    pub(crate) fn with_layout_for(entries: usize, span: usize, bound: u32) -> Self {
        let layout = if dense_fits(entries, span, bound) {
            Layout::Dense {
                dist: vec![NO_ENTRY; span],
                entries: 0,
            }
        } else {
            Layout::Sparse(Vec::with_capacity(entries))
        };
        DistanceRow { bound, layout }
    }

    /// Records `d ≤ bound` for a vertex not recorded before, in any vertex order; the row
    /// must have been laid out for it by [`DistanceRow::with_layout_for`].
    pub(crate) fn record_new(&mut self, v: VertexId, d: u32) {
        debug_assert!(d <= self.bound);
        match &mut self.layout {
            Layout::Dense { dist, entries } => {
                let slot = dist.get_mut(v.index());
                debug_assert!(slot.as_deref() == Some(&NO_ENTRY));
                if let Some(slot) = slot {
                    *slot = d as u8;
                    *entries += 1;
                }
            }
            Layout::Sparse(pairs) => pairs.push((v, d)),
        }
    }

    /// Restores the sorted order [`DistanceRow::record_new`] is allowed to break.
    pub(crate) fn finish(&mut self) {
        if let Layout::Sparse(pairs) = &mut self.layout {
            pairs.sort_unstable_by_key(|&(v, _)| v);
        }
    }

    /// Number of vertices with a recorded (finite) distance.
    pub fn len(&self) -> usize {
        match &self.layout {
            Layout::Dense { entries, .. } => *entries,
            Layout::Sparse(pairs) => pairs.len(),
        }
    }

    /// Whether no vertex is recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bounded distance of `v`, or `None` when the vertex is farther than the bound
    /// (the paper treats those as distance ∞).
    #[inline]
    pub fn get(&self, v: VertexId) -> Option<u32> {
        match &self.layout {
            Layout::Dense { dist, .. } => match dist.get(v.index()) {
                Some(&d) if d != NO_ENTRY => Some(d as u32),
                _ => None,
            },
            Layout::Sparse(pairs) => pairs
                .binary_search_by_key(&v, |&(vertex, _)| vertex)
                .ok()
                .and_then(|i| pairs.get(i))
                .map(|&(_, d)| d),
        }
    }

    /// Distance with ∞ mapped to `u32::MAX`, convenient for arithmetic pruning checks.
    #[inline]
    pub fn distance_or_inf(&self, v: VertexId) -> u32 {
        self.get(v).unwrap_or(crate::INF)
    }

    /// Whether `v` lies within the bound.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.get(v).is_some()
    }

    /// Records `d` for `v` if it is smaller than the stored distance (or if `v` is
    /// absent). Returns whether the row changed. A `d` above the row's bound is ∞ and
    /// changes nothing.
    ///
    /// This is the primitive of incremental index maintenance after edge insertions:
    /// inserts can only *shorten* bounded distances, so a minimum-merge is exact.
    pub fn insert_min(&mut self, v: VertexId, d: u32) -> bool {
        if d > self.bound {
            return false;
        }
        let bound = self.bound;
        match &mut self.layout {
            Layout::Dense { dist, entries } => {
                // d <= bound < NO_ENTRY, so the byte is exact and an absent slot compares
                // as larger than any offer.
                let byte = d as u8;
                if let Some(slot) = dist.get_mut(v.index()) {
                    let improves = byte < *slot;
                    if improves {
                        *entries += usize::from(*slot == NO_ENTRY);
                        *slot = byte;
                    }
                    return improves;
                }
                // Past the span: the row grows to reach `v`, in whichever layout the rule
                // gives the grown contents.
                let span = v.index() + 1;
                if dense_fits(*entries + 1, span, bound) {
                    dist.resize(span, NO_ENTRY);
                    if let Some(slot) = dist.last_mut() {
                        *slot = byte;
                    }
                    *entries += 1;
                } else {
                    let mut pairs: Vec<(VertexId, u32)> = dense_entries(dist).collect();
                    pairs.push((v, d));
                    self.layout = Layout::Sparse(pairs);
                }
                true
            }
            Layout::Sparse(pairs) => {
                let at = match pairs.binary_search_by_key(&v, |&(vertex, _)| vertex) {
                    Ok(i) => {
                        return match pairs.get_mut(i) {
                            Some((_, old)) if d < *old => {
                                *old = d;
                                true
                            }
                            _ => false,
                        };
                    }
                    Err(i) => i,
                };
                pairs.insert(at, (v, d));
                let span = pairs.last().map_or(0, |&(last, _)| last.index() + 1);
                if dense_fits(pairs.len(), span, bound) {
                    *self = Self::from_pairs(std::mem::take(pairs), bound);
                }
                true
            }
        }
    }

    /// Iterates `(vertex, distance)` pairs in increasing vertex order.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, u32)> + '_ {
        // One of the two halves is always empty; chaining them gives both layouts one
        // iterator type.
        let (dist, pairs): (&[u8], &[(VertexId, u32)]) = match &self.layout {
            Layout::Dense { dist, .. } => (dist, &[]),
            Layout::Sparse(pairs) => (&[], pairs),
        };
        dense_entries(dist).chain(pairs.iter().copied())
    }

    /// The vertices recorded in this row (the hop-constrained neighbourhood Γ), ascending.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.iter().map(|(v, _)| v)
    }

    /// Size of the intersection of the vertex sets of two rows.
    ///
    /// This is the `|Γ(qA) ∩ Γ(qB)|` of the query-similarity measure µ (Def. 4.5).
    pub fn intersection_size(&self, other: &DistanceRow) -> usize {
        let (small, large) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        small.vertices().filter(|&v| large.contains(v)).count()
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        match &self.layout {
            Layout::Dense { dist, .. } => dist.len(),
            Layout::Sparse(pairs) => std::mem::size_of_val(pairs.as_slice()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: u32) -> VertexId {
        VertexId(x)
    }

    fn row(pairs: &[(u32, u32)]) -> DistanceRow {
        DistanceRow::from_pairs(pairs.iter().map(|&(x, d)| (v(x), d)).collect(), 7)
    }

    fn is_dense(row: &DistanceRow) -> bool {
        matches!(row.layout, Layout::Dense { .. })
    }

    #[test]
    fn from_pairs_sorts_and_keeps_minimum_distance() {
        let m = row(&[(5, 2), (1, 1), (5, 1), (3, 0)]);
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(v(5)), Some(1));
        assert_eq!(m.get(v(1)), Some(1));
        assert_eq!(m.get(v(3)), Some(0));
        assert_eq!(m.get(v(2)), None);
        assert!(m.contains(v(1)));
        assert!(!m.contains(v(9)));
        assert_eq!(m.distance_or_inf(v(9)), u32::MAX);
    }

    #[test]
    fn iteration_is_sorted_by_vertex() {
        for last in [9, 90] {
            let m = row(&[(last, 3), (2, 1), (4, 2)]);
            let order: Vec<_> = m.vertices().collect();
            assert_eq!(order, vec![v(2), v(4), v(last)]);
            assert_eq!(m.iter().count(), 3);
        }
    }

    #[test]
    fn intersection_size_counts_common_vertices() {
        let a = row(&[(1, 1), (2, 1), (3, 2)]);
        let b = row(&[(2, 4), (3, 1), (7, 1)]);
        let far = row(&[(2, 4), (3, 1), (700, 1)]);
        assert_eq!(a.intersection_size(&b), 2);
        assert_eq!(b.intersection_size(&a), 2);
        assert_eq!(a.intersection_size(&far), 2);
        assert_eq!(far.intersection_size(&a), 2);
        assert_eq!(a.intersection_size(&DistanceRow::new(7)), 0);
    }

    #[test]
    fn insert_min_only_lowers_distances() {
        let mut m = row(&[(2, 3), (5, 1)]);
        assert!(m.insert_min(v(2), 2), "lowering an entry changes the row");
        assert!(!m.insert_min(v(2), 2), "equal distance is a no-op");
        assert!(!m.insert_min(v(5), 4), "larger distance is a no-op");
        assert!(m.insert_min(v(3), 7), "absent vertex is inserted");
        assert!(!m.insert_min(v(4), 8), "a distance above the bound is ∞");
        assert_eq!(m.get(v(2)), Some(2));
        assert_eq!(m.get(v(3)), Some(7));
        assert_eq!(m.get(v(5)), Some(1));
        // The sorted-by-vertex invariant survives the insertion.
        let order: Vec<_> = m.vertices().collect();
        assert_eq!(order, vec![v(2), v(3), v(5)]);
    }

    #[test]
    fn empty_map_behaviour() {
        let m = DistanceRow::new(7);
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert_eq!(m.get(v(0)), None);
        assert_eq!(m.heap_bytes(), 0);
    }

    #[test]
    fn the_layout_follows_the_contents_in_both_directions() {
        // One eighth full is the break-even point in bytes. Seven entries reaching id 63:
        // 56 bytes of pairs against 64 of bytes-per-vertex.
        let thin: Vec<(u32, u32)> = (0..6).map(|i| (i * 9, 1)).chain([(63, 1)]).collect();
        let mut m = row(&thin);
        assert!(!is_dense(&m));
        assert_eq!(m.heap_bytes(), 56);
        // An eighth entry inside the span makes it 64 against 64, and dense wins ties.
        assert!(m.insert_min(v(1), 2));
        assert!(is_dense(&m));
        assert_eq!(m.heap_bytes(), 64);
        assert_eq!(
            m,
            row(&[thin, vec![(1, 2)]].concat()),
            "layout is canonical"
        );
        // An id far past the span thins it out again.
        assert!(m.insert_min(v(10_000), 3));
        assert!(!is_dense(&m));
        assert_eq!(m.len(), 9);
        assert_eq!(m.vertices().last(), Some(v(10_000)));
        // A bound whose distances do not all fit beside the ∞ byte never goes dense.
        let wide = DistanceRow::from_pairs((0..64).map(|i| (v(i), 255)).collect(), 255);
        assert!(!is_dense(&wide));
        assert_eq!(wide.get(v(63)), Some(255));
        let narrow = DistanceRow::from_pairs((0..64).map(|i| (v(i), 254)).collect(), 254);
        assert!(is_dense(&narrow));
        assert_eq!(narrow.get(v(63)), Some(254));
    }
}
