//! # hcsp-graph
//!
//! Directed-graph substrate for batch hop-constrained *s-t* simple path (HC-s-t path)
//! enumeration, reproducing the graph layer used by
//! *"Batch Hop-Constrained s-t Simple Path Query Processing in Large Graphs"*
//! (ICDE 2024).
//!
//! The crate provides:
//!
//! * [`DiGraph`] — an immutable, compressed-sparse-row (CSR) directed graph storing both
//!   out- and in-adjacency, so that traversals on the reverse graph `G^r` require no copy.
//! * [`GraphBuilder`] — an incremental builder that deduplicates edges, drops self loops
//!   on request and produces a [`DiGraph`].
//! * [`DeltaGraph`] — a mutable edge-insert/delete overlay over an immutable base graph
//!   with periodic compaction back into a fresh CSR (the dynamic-update staging layer).
//! * [`traversal`] — BFS / bounded BFS / DFS primitives shared by the index and the
//!   enumeration algorithms.
//! * [`generators`] — deterministic random graph generators (Erdős–Rényi, directed
//!   preferential attachment, Watts–Strogatz rewiring, and several regular families)
//!   used to synthesise laptop-scale analogs of the paper's twelve evaluation datasets.
//! * [`sampling`] — vertex-ratio induced subgraph sampling (scalability experiment, Fig. 11).
//! * [`io`] — plain-text edge-list and compact binary serialisation.
//! * [`properties`] — degree statistics matching Table I of the paper.
//!
//! ## Quick example
//!
//! ```
//! use hcsp_graph::{DiGraph, VertexId};
//!
//! // A tiny diamond:  0 -> 1 -> 3,  0 -> 2 -> 3
//! let g = DiGraph::from_edge_list(4, &[(0, 1), (1, 3), (0, 2), (2, 3)]).unwrap();
//! assert_eq!(g.num_vertices(), 4);
//! assert_eq!(g.num_edges(), 4);
//! assert_eq!(g.out_neighbors(VertexId(0)), &[VertexId(1), VertexId(2)]);
//! assert_eq!(g.in_neighbors(VertexId(3)), &[VertexId(1), VertexId(2)]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builder;
pub mod csr;
pub mod delta;
pub mod digraph;
pub mod error;
pub mod generators;
pub mod io;
pub mod properties;
pub mod sampling;
pub mod traversal;
pub mod vertex;

pub use builder::GraphBuilder;
pub use csr::CsrAdjacency;
pub use delta::{DeltaGraph, GraphUpdate};
pub use digraph::{DiGraph, Direction};
pub use error::GraphError;
pub use properties::GraphStats;
pub use vertex::VertexId;

/// Convenient result alias used throughout the graph crate.
pub type Result<T> = std::result::Result<T, GraphError>;
