//! # hcsp-workload
//!
//! Workload layer of the reproduction: synthetic analogs of the paper's twelve evaluation
//! datasets (Table I), the query-set generators used by every experiment
//! (random reachable `(s, t, k)` pairs, similarity-controlled sets for Exp-1, and size
//! sweeps for Exp-2), the open-loop [`arrival`] processes that turn a query set into
//! a timed stream for the micro-batching service scenarios, the
//! [`update_stream`](mod@update_stream) generator interleaving edge
//! insertions/deletions with query arrivals for the evolving-graph scenarios, and the
//! [`spec_gen`] generator assigning typed result modes (`Exists`/`Count`/`FirstK`/
//! `Collect`) to a query set for the mixed-mode request/response scenarios.
//!
//! The real datasets (SNAP / LAW / NetworkRepository downloads, up to 1.8 B edges) are not
//! available in this environment; [`datasets`] instead generates deterministic laptop-scale
//! graphs whose *shape* (degree skew, average degree ordering, relative size ordering)
//! mirrors Table I, as documented in `DESIGN.md`. All compared algorithms run on the same
//! analog graph, so the relative results the paper reports remain meaningful.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arrival;
pub mod datasets;
pub mod query_gen;
pub mod recovery;
pub mod spec_gen;
pub mod update_stream;

pub use arrival::ArrivalProcess;
pub use datasets::{Dataset, DatasetScale};
pub use query_gen::{random_query_set, similar_query_set, QuerySetSpec};
pub use recovery::{recovery_workload, state_after, RecoveryWorkload, RecoveryWorkloadSpec};
pub use spec_gen::{assign_modes, mixed_mode_query_set, ModeMix};
pub use update_stream::{fold_updates, update_stream, StreamEvent, UpdateStreamSpec};
