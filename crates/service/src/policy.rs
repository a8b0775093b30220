//! The admission policy: when does a micro-batch close?
//!
//! The paper's premise is that queries arriving *together* share work (§IV-B/C); a serving
//! layer maximises that sharing by holding each arriving query briefly so similar queries
//! can join the same batch. The policy bounds both dimensions of that trade-off: how many
//! queries a window may accumulate ([`BatchPolicy::max_batch_size`]) and how long the
//! *first* query of a window may wait ([`BatchPolicy::max_delay`]). A zero delay removes
//! the wait entirely and degenerates to per-query execution — the PathEnum-style real-time
//! regime, with no added latency but no cross-query sharing either.

use std::time::Duration;

/// Micro-batch admission policy: a batch closes when it reaches `max_batch_size` queries
/// or when `max_delay` has elapsed since its first query arrived, whichever comes first.
///
/// Each micro-batch executes sequentially on one service worker, so it shares work across
/// its whole batch; the service scales across micro-batches with more workers
/// (`PathServiceBuilder::workers`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Maximum number of queries per micro-batch (at least 1).
    pub max_batch_size: usize,
    /// Maximum time the first query of a window waits before the batch is dispatched.
    /// `Duration::ZERO` dispatches every query on its own (per-query execution).
    pub max_delay: Duration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        // A small window: enough to catch co-arriving queries under load, small enough
        // that an idle service stays responsive.
        BatchPolicy {
            max_batch_size: 64,
            max_delay: Duration::from_millis(10),
        }
    }
}

impl BatchPolicy {
    /// Per-query execution: every query is dispatched immediately as its own batch.
    pub fn immediate() -> Self {
        BatchPolicy {
            max_batch_size: 1,
            max_delay: Duration::ZERO,
        }
    }

    /// Size-triggered batching with a latency bound: dispatch at `n` queries or after
    /// `max_delay`, whichever happens first. A size of 0 is treated as 1.
    pub fn by_size(n: usize, max_delay: Duration) -> Self {
        BatchPolicy {
            max_batch_size: n.max(1),
            max_delay,
        }
    }

    /// Whether the policy degenerates to per-query execution (no admission wait at all).
    pub fn is_per_query(&self) -> bool {
        self.max_batch_size <= 1 || self.max_delay.is_zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_normalise_degenerate_sizes() {
        let p = BatchPolicy::by_size(0, Duration::from_millis(5));
        assert_eq!(p.max_batch_size, 1);
        assert!(p.is_per_query());
        let p = BatchPolicy::by_size(16, Duration::from_millis(2));
        assert_eq!(p.max_batch_size, 16);
        assert!(!p.is_per_query());
    }

    #[test]
    fn zero_delay_is_per_query() {
        assert!(BatchPolicy::immediate().is_per_query());
        assert!(BatchPolicy::by_size(100, Duration::ZERO).is_per_query());
        assert!(!BatchPolicy::default().is_per_query());
    }
}
