//! The rule catalogue.
//!
//! Every rule is a pure function from lexed sources to diagnostics; the
//! driver in `lib.rs` applies `// lint:allow` suppression afterwards, so the
//! rules themselves stay oblivious to annotations. Single-file rules decide
//! their own applicability from the (workspace-relative, `/`-separated) path;
//! [`counters`] (`dead-counter`) is the one whole-workspace rule.

pub mod durability;
pub mod guard;
pub mod panic_free;
pub mod window;

pub mod counters;

use crate::{Diagnostic, SourceFile};

/// Stable rule identifiers, as used in diagnostics and `lint:allow(...)`.
pub const BLOCKING_UNDER_GUARD: &str = "blocking-under-guard";
pub const UNSAFE_WINDOW: &str = "unsafe-window";
pub const ACK_AFTER_DURABILITY: &str = "ack-after-durability";
pub const PANIC_FREE_HOT_PATH: &str = "panic-free-hot-path";
pub const DEAD_COUNTER: &str = "dead-counter";
/// Pseudo-rule for malformed `lint:allow` comments (never suppressible).
pub const ALLOW_SYNTAX: &str = "allow-syntax";

/// Every real rule id, short code first: `(code, id, summary)`.
pub const CATALOGUE: [(&str, &str, &str); 5] = [
    (
        "L1",
        BLOCKING_UNDER_GUARD,
        "no blocking call while an admission/epoch lock guard is live (crates/service)",
    ),
    (
        "L2",
        UNSAFE_WINDOW,
        "note_deletions must reach flush_dirty before any query entry in the same function",
    ),
    (
        "L3",
        ACK_AFTER_DURABILITY,
        "handle fulfilment must follow the WAL append/sync in source order (service + storage)",
    ),
    (
        "L4",
        PANIC_FREE_HOT_PATH,
        "no unwrap/expect/panic!/direct indexing in the enumeration hot path",
    ),
    (
        "L5",
        DEAD_COUNTER,
        "every stats counter is written in core/service and read by the counters test",
    ),
];

/// The short code (`L1`..`L5`) for a rule id, for diagnostic rendering.
pub fn code_of(rule: &str) -> &'static str {
    for (code, id, _) in CATALOGUE {
        if id == rule {
            return code;
        }
    }
    "L0"
}

/// Whether `rule` is a known, allowable rule id.
pub fn is_known(rule: &str) -> bool {
    CATALOGUE.iter().any(|(_, id, _)| *id == rule)
}

/// Runs every rule over `files` and returns the raw (pre-suppression)
/// diagnostics.
pub fn run_all(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in files {
        out.extend(guard::check(file));
        out.extend(window::check(file));
        out.extend(durability::check(file));
        out.extend(panic_free::check(file));
    }
    out.extend(counters::check(files));
    out
}
