//! # hcsp-index
//!
//! Bounded-distance index for batch HC-s-t path enumeration.
//!
//! PathEnum's pruning rule (Lemma 3.1 of the paper) needs, while extending a partial path
//! ending at `v'`, the values `dist_G(v'', t)` (forward search) and `dist_{G^r}(v'', s)`
//! (backward search) for every candidate neighbour `v''`. For a *batch* of queries, the
//! baseline `BasicEnum` and the contributed `BatchEnum` both build this index once per
//! batch with **multi-source BFS** from the source set `S = ∪ q.s` and the target set
//! `T = ∪ q.t` (Algorithm 1 / Algorithm 4, lines 1–2), following the bit-parallel MS-BFS
//! technique of Then et al. ("The more the merrier", ref. \[36\]).
//!
//! Two representations are provided:
//!
//! * [`msbfs::multi_source_bfs`] — the raw bit-parallel traversal, processing up to 64
//!   roots per machine word.
//! * [`DistanceIndex`] — the per-root [`DistanceRow`]s the enumeration algorithms query
//!   (`dist(root, v) ≤ k_max` entries only; everything else is implicitly ∞; one byte per
//!   vertex where a root reaches much of the graph, sorted pairs where it does not), plus
//!   the hop-constrained neighbourhoods Γ/Γr reused by query clustering (Def. 4.4:
//!   "we do not need to compute Γ(q) and Γr(q) specialized for query clustering as these
//!   vertices have been explored during the procedure of the index construction").

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod distance_index;
pub mod distance_row;
pub mod msbfs;

pub use distance_index::{AnchorDistances, BatchIndex, DeleteOutcome, DistanceIndex, IndexStats};
pub use distance_row::DistanceRow;
pub use msbfs::{multi_source_bfs, MsBfsResult};

/// Distance value meaning "farther than the bound / unreachable" (treated as ∞).
pub const INF: u32 = u32::MAX;
