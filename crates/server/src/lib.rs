//! # hcsp-server
//!
//! The network front-end of the reproduction: a versioned, CRC-framed binary wire
//! protocol ([`frame`]), a small text query language compiled into the service's typed
//! requests ([`lang`]), a blocking thread-per-connection TCP server over a shared
//! [`hcsp_service::PathService`] ([`server`]), and the matching blocking, pipelining
//! client ([`client`]).
//!
//! The serving pipeline end to end:
//!
//! ```text
//! client ──frame──▶ reader ──parse──▶ try_submit_spec / try_update ──▶ PathService
//!   ▲                                        │ (admission refusals → error frames)
//!   └────frames──── writer ◀──wait_result────┘
//! ```
//!
//! Everything rides the **fallible** service surface: a malformed statement, an
//! out-of-range endpoint or a shutting-down service becomes a typed error *frame* on
//! the wire, never a panic in the serving process. Responses are byte-deterministic —
//! the same statement against the same graph state yields the same frame payloads the
//! in-process engine would produce, which the integration suite pins down against an
//! [`hcsp_core::Engine`] oracle.
//!
//! See the `server_demo` example for a runnable tour, and `docs/ARCHITECTURE.md` for
//! where this layer sits in the system.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod frame;
pub mod lang;
pub mod server;

pub use client::{Client, Reply};
pub use frame::{
    read_frame, read_frame_opt, response_frames, write_frame, ErrorCode, FrameError, Request,
    Response, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
pub use lang::{
    parse, ParseError, QueryStatement, QueryVerb, Statement, UpdateOp, UpdateStatement,
};
pub use server::{PathServer, ServerConfig};
