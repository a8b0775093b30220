//! # hcsp-core
//!
//! Batch hop-constrained s-t simple path (HC-s-t path) query processing, reproducing
//! *"Batch Hop-Constrained s-t Simple Path Query Processing in Large Graphs"* (ICDE 2024).
//!
//! Given an unweighted directed graph `G` and a batch of queries `Q = {q(s, t, k)}`, each
//! asking for every simple path from `s` to `t` with at most `k` hops, the crate provides:
//!
//! * [`pathenum::PathEnum`] — the state-of-the-art single-query algorithm (§III, ref. \[15\]):
//!   index-pruned bidirectional DFS + hash-join concatenation `⊕`.
//! * [`basic_enum::BasicEnum`] — Algorithm 1: the batch baseline that shares only the
//!   multi-source BFS index across queries.
//! * [`batch_enum::BatchEnum`] — Algorithm 4, the paper's contribution: queries are
//!   clustered by neighbourhood similarity (Algorithm 2), common *HC-s path queries* are
//!   detected per cluster (Algorithm 3) and recorded in the query sharing graph Ψ, and the
//!   enumeration evaluates Ψ in topological order, materialising every shared sub-query
//!   once and splicing it into every dependent query.
//! * [`engine::BatchEngine`] — a one-shot facade selecting between the five evaluated
//!   variants (`PathEnum`, `BasicEnum`, `BasicEnum+`, `BatchEnum`, `BatchEnum+`).
//! * [`engine::Engine`] — the long-lived, reusable form of the same facade: graph and
//!   [`hcsp_index::BatchIndex`] are hoisted out of the per-batch path, the index is
//!   extended incrementally for new endpoints and rebuilt only when the hop bound grows.
//!   This is the building block of the micro-batching serving layer (`hcsp-service`).
//! * [`spec`] — the typed request/response surface: a [`spec::QuerySpec`] pairs a query
//!   with a [`spec::ResultMode`] (`Exists | Count | FirstK(k) | Collect`, plus an
//!   optional path budget) and [`engine::Engine::run_specs`] answers mixed-mode batches
//!   over one shared index, stopping each query the moment its mode is satisfied (the
//!   [`sink::SinkFlow`] verdicts every enumeration core honours).
//! * [`parallel`] — the cluster-sharded worker pool behind
//!   [`engine::Engine::run_parallel_with_sink`], byte-identical to the sequential run.
//!
//! ## Quick example
//!
//! ```
//! use hcsp_core::{Algorithm, BatchEngine, PathQuery};
//! use hcsp_graph::DiGraph;
//!
//! // A diamond with two parallel 2-hop routes.
//! let g = DiGraph::from_edge_list(4, &[(0, 1), (1, 3), (0, 2), (2, 3)]).unwrap();
//! let queries = vec![PathQuery::new(0u32, 3u32, 3)];
//! let outcome = BatchEngine::with_algorithm(Algorithm::BatchEnumPlus).run(&g, &queries);
//! assert_eq!(outcome.count(0), 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod basic_enum;
pub mod batch_enum;
pub mod bruteforce;
pub mod buffers;
pub mod cache;
pub mod clustering;
pub mod concat;
pub mod detection;
pub mod engine;
pub mod epoch;
pub mod parallel;
pub mod path;
pub mod pathenum;
pub mod query;
pub mod search;
pub mod search_order;
pub mod sharing_graph;
pub mod similarity;
pub mod sink;
pub mod spec;
pub mod stats;

pub use basic_enum::BasicEnum;
pub use batch_enum::{BatchEnum, DEFAULT_GAMMA};
pub use buffers::{JoinScratch, SearchBuffers, VisitMarks};
pub use engine::{
    Algorithm, BatchEngine, BatchOutcome, Engine, IndexReuse, UpdateSummary,
    DEFAULT_UPDATE_REFRESH_CAP,
};
pub use epoch::{DurabilitySink, Epoch, EpochAdvance, EpochPublisher, MAX_EPOCH_DELTAS};
pub use parallel::Parallelism;
pub use path::{Path, PathSet};
pub use pathenum::PathEnum;
pub use query::{BatchSummary, HcsQuery, PathQuery, QueryId};
pub use search::SearchContext;
pub use search_order::SearchOrder;
pub use sink::{CallbackSink, CollectSink, ControlSink, CountSink, PathSink, SinkFlow};
pub use spec::{QueryResponse, QuerySpec, ResultMode, SpecOutcome, SpecSink};
pub use stats::{EnumStats, MicroBatchStats, SearchCounters, ServiceStats, Stage};
