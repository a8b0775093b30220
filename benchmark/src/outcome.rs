//! What one workload run produces.

use crate::catalog;
use crate::stats::Summary;
use crate::trace::Span;
use hcsp_workload::DatasetScale;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How large and how long: inputs are sized by `scale` (never by the clock), repetition
/// counts by `seconds`.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub scale: DatasetScale,
    pub seconds: f64,
}

impl Plan {
    pub fn share(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

#[derive(Debug, Default)]
pub struct Outcome {
    /// Answers checked against the oracle.
    pub attempted: u64,
    /// Answers that were wrong, an error frame, or missing.
    pub failed: u64,
    /// Reasons the *measurement* cannot be trusted although every answer was right (a
    /// late generator). Reported beside the numbers; `correct` is about the answers.
    pub invalid: Vec<String>,
    pub metrics: BTreeMap<&'static str, Summary>,
    pub notes: Vec<String>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, summary: Summary) {
        assert!(
            catalog::find(name).is_some(),
            "metric {name} is not in the catalog"
        );
        self.metrics.insert(name, summary);
    }

    pub fn set_value(&mut self, name: &'static str, value: f64) {
        self.set(name, Summary::single(value));
    }

    pub fn value(&self, name: &str) -> f64 {
        self.metrics.get(name).map_or(0.0, |s| s.median)
    }

    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// A step that must succeed for the answers to count (a store re-opening).
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.check(ok);
        if !ok {
            self.notes.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Runs `setup` several times and returns the last product with every duration: set-up
/// time is reported as a median like any other timing.
pub fn repeat_setup<T>(times: usize, mut setup: impl FnMut(usize) -> T) -> (T, Vec<f64>) {
    let mut secs = Vec::with_capacity(times);
    let mut product = None;
    for attempt in 0..times.max(1) {
        drop(product.take());
        let start = Instant::now();
        product = Some(setup(attempt));
        secs.push(start.elapsed().as_secs_f64());
    }
    (product.expect("at least one set-up ran"), secs)
}
