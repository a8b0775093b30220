//! # hcsp
//!
//! Batch hop-constrained s-t simple path query processing in large graphs — a Rust
//! reproduction of the ICDE 2024 paper of the same name.
//!
//! This facade crate re-exports the whole workspace behind a single dependency:
//!
//! * [`graph`] — directed CSR graphs, generators, IO, sampling ([`hcsp_graph`]).
//! * [`index`] — bounded-distance multi-source BFS index ([`hcsp_index`]).
//! * [`core`] — the enumeration algorithms: `PathEnum`, `BasicEnum(+)`, `BatchEnum(+)`
//!   ([`hcsp_core`]).
//! * [`service`] — the micro-batching serving layer: a long-lived `PathService` forming
//!   shared batches from a query stream ([`hcsp_service`]).
//! * [`storage`] — the durability layer: append-only update log, snapshot store,
//!   crash-recovery, and the fail-point filesystem the crash matrix uses
//!   ([`hcsp_storage`]).
//! * [`workload`] — the Table I dataset analogs, query-set generators, and open-loop
//!   arrival processes ([`hcsp_workload`]).
//! * [`server`] — the network front-end: CRC-framed wire protocol, text query
//!   language, TCP server and pipelining client ([`hcsp_server`]).
//!
//! ## Quickstart
//!
//! ```
//! use hcsp::prelude::*;
//!
//! // Build a graph (here: a tiny synthetic social network), pose a batch of queries and
//! // run the shared batch algorithm.
//! let graph = hcsp::workload::Dataset::EP.build(hcsp::workload::DatasetScale::Tiny);
//! let queries = hcsp::workload::random_query_set(
//!     &graph,
//!     hcsp::workload::QuerySetSpec::new(10, 7).with_hops(3, 4),
//! );
//! let config = BatchEngine::builder().algorithm(Algorithm::BatchEnumPlus).gamma(0.5).build();
//! let outcome = Engine::new(graph, config).run(&queries);
//! assert_eq!(outcome.paths.len(), queries.len());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

/// Directed-graph substrate (re-export of `hcsp-graph`).
pub mod graph {
    pub use hcsp_graph::*;
}

/// Bounded-distance index (re-export of `hcsp-index`).
pub mod index {
    pub use hcsp_index::*;
}

/// Enumeration algorithms (re-export of `hcsp-core`).
pub mod core {
    pub use hcsp_core::*;
}

/// Micro-batching service layer (re-export of `hcsp-service`).
pub mod service {
    pub use hcsp_service::*;
}

/// Durable update log, snapshot store and crash-test harness (re-export of
/// `hcsp-storage`).
pub mod storage {
    pub use hcsp_storage::*;
}

/// Dataset analogs and query generators (re-export of `hcsp-workload`).
pub mod workload {
    pub use hcsp_workload::*;
}

/// Network front-end: wire protocol, query language, TCP server and client
/// (re-export of `hcsp-server`).
pub mod server {
    pub use hcsp_server::*;
}

/// The most commonly used items, for `use hcsp::prelude::*`.
pub mod prelude {
    pub use hcsp_core::{
        Algorithm, BatchEngine, BatchOutcome, CallbackSink, CollectSink, ControlSink, CountSink,
        Engine, EnumStats, Epoch, EpochAdvance, EpochPublisher, MicroBatchStats, Parallelism, Path,
        PathQuery, PathSet, PathSink, QueryResponse, QuerySpec, ResultMode, SearchBuffers,
        SearchOrder, ServiceStats, SinkFlow, SpecOutcome, SpecSink, Stage, UpdateSummary,
        MAX_EPOCH_DELTAS,
    };
    pub use hcsp_graph::{DeltaGraph, DiGraph, Direction, GraphBuilder, GraphUpdate, VertexId};
    pub use hcsp_index::BatchIndex;
    pub use hcsp_server::{Client, PathServer, Reply, ServerConfig};
    pub use hcsp_service::{
        Abandoned, AdmissionError, BatchPolicy, DurabilityBackend, DurabilityOptions, FsyncPolicy,
        PathService, PathServiceBuilder, RecoveryReport, SpecHandle, SpecResult, StorageError,
        UpdateHandle,
    };
}

pub use hcsp_core::{Algorithm, BatchEngine, PathQuery};
pub use hcsp_graph::{DiGraph, VertexId};

// The README's Rust snippets compile and run as doctests of this crate, so they cannot
// drift from the API they describe.
#[cfg(doctest)]
#[doc = include_str!("../../../README.md")]
struct ReadmeDoctests;

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_exposes_the_full_pipeline() {
        let graph = DiGraph::from_edge_list(4, &[(0, 1), (1, 3), (0, 2), (2, 3)]).unwrap();
        let queries = vec![PathQuery::new(0u32, 3u32, 3)];
        for algorithm in Algorithm::ALL {
            let outcome = Engine::with_algorithm(graph.clone(), algorithm).run(&queries);
            assert_eq!(outcome.count(0), 2, "{algorithm}");
        }
    }
}
