//! # hcsp-service
//!
//! The micro-batching service layer of the reproduction: a long-lived [`PathService`]
//! that *forms* batches from an incoming query stream instead of requiring pre-assembled
//! ones.
//!
//! The paper's batch algorithms (`BatchEnum`, `BatchEnum+`) exploit the computation that
//! queries arriving together have in common — but they take the batch as given. A serving
//! system has to create those batches itself: each arriving query is held for at most a
//! small admission window ([`BatchPolicy::max_delay`]) so that similar queries arriving
//! close together execute as one shared micro-batch. The two extremes of the policy
//! recover the two regimes compared throughout the paper:
//!
//! * `max_delay = 0` (or `max_batch_size = 1`) — per-query execution, the PathEnum-style
//!   real-time regime: minimal latency, no cross-query sharing.
//! * large window / size cap — offline batching: maximal sharing, batch-formation latency.
//!
//! Execution reuses one [`hcsp_core::Engine`] per worker, so the batch index persists
//! across micro-batches (extended incrementally for new endpoints, rebuilt only when the
//! hop bound grows), and per-micro-batch counters (queue wait, batch size, sharing ratio;
//! [`hcsp_core::MicroBatchStats`]) aggregate into the [`hcsp_core::ServiceStats`] the
//! benchmark's serving workloads read.
//!
//! See `docs/ARCHITECTURE.md` at the repository root for the dataflow diagram, and the
//! `service_demo` example for a runnable tour.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod policy;
pub mod service;

pub use policy::BatchPolicy;
pub use service::{
    Abandoned, AdmissionError, DurabilityBackend, DurabilityOptions, PathService,
    PathServiceBuilder, QueryHandle, QueryResult, SpecHandle, SpecResult, UpdateHandle,
};

// Re-exported so service users can build typed requests, read the aggregate counters,
// pin epochs and submit graph updates without naming hcsp-core / hcsp-graph.
pub use hcsp_core::{
    Epoch, EpochPublisher, MicroBatchStats, QueryResponse, QuerySpec, ResultMode, ServiceStats,
    UpdateSummary,
};
pub use hcsp_graph::GraphUpdate;
// Re-exported so durable-service users can pick fsync policies, read recovery reports
// and handle storage errors without naming hcsp-storage.
pub use hcsp_storage::{FsyncPolicy, RecoveryReport, StorageError};
