//! The batching policy: how large may a micro-batch grow?
//!
//! The paper's premise is that queries issued *together* share work (§IV-B/C). The
//! service never holds a query back to manufacture that togetherness: an idle worker
//! dispatches the first queued query at once, and a busy worker takes whatever queued up
//! behind it as its next micro-batch. The policy bounds only how many queries one such
//! drain may take ([`BatchPolicy::max_batch_size`]). A size of 1 is per-query execution —
//! the PathEnum-style real-time regime; larger sizes let a backlog execute as one shared
//! batch.

use std::time::Duration;

/// Micro-batch policy: a worker's next batch is the queued submissions it can take at
/// once, up to `max_batch_size` of them.
///
/// Each micro-batch executes sequentially on one service worker, so it shares work across
/// its whole batch; the service scales across micro-batches with more workers
/// (`PathServiceBuilder::workers`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Maximum number of queries per micro-batch (at least 1).
    pub max_batch_size: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy { max_batch_size: 64 }
    }
}

impl BatchPolicy {
    /// Per-query execution: every query is dispatched as its own batch.
    pub fn immediate() -> Self {
        BatchPolicy { max_batch_size: 1 }
    }

    /// Micro-batches of at most `n` queries. A size of 0 is treated as 1.
    ///
    /// The delay is ignored: no query waits for company, so there is no deadline to
    /// bound. The parameter stays only because the benchmark calls this signature; the
    /// next benchmark-only change removes it.
    pub fn by_size(n: usize, _max_delay: Duration) -> Self {
        BatchPolicy {
            max_batch_size: n.max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_normalise_degenerate_sizes() {
        let p = BatchPolicy::by_size(0, Duration::from_millis(5));
        assert_eq!(p.max_batch_size, 1);
        assert_eq!(p, BatchPolicy::immediate());
        let p = BatchPolicy::by_size(16, Duration::from_millis(2));
        assert_eq!(p.max_batch_size, 16);
        assert_eq!(BatchPolicy::default().max_batch_size, 64);
    }
}
