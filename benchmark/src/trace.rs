//! Spans recorded by the benchmark around calls into each layer's public functions.
//!
//! Spans live in memory and are written out when the run ends. A layer's *self time* is
//! its spans' duration minus the part of that interval their child spans cover. Tracing
//! inside the product crates is a later change; until then the tree is as deep as the
//! public API lets an outside caller see.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The batch repetition or request the span belongs to.
    pub id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Single-threaded recorder with an open-span stack. Only traced runs create one; the
/// untraced runs go through code that records nothing.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Records a span measured elsewhere (another thread, a reply's timestamps) under an
    /// explicit parent, and returns its index for its own children.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> Option<usize> {
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            id,
        });
        Some(self.spans.len() - 1)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Sum of the durations of every span named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .sum::<f64>()
            / 1e9
    }
}

/// Per span name: `(count, total duration ns, total self ns)`. Self time is the span's
/// duration minus the part of its interval that child spans cover — their union, so
/// concurrent children (pipelined requests) are not subtracted twice.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (usize, u64, u64)> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            // A child recorded from another thread may outlast its parent: only the part
            // inside the parent's interval is the parent's time.
            let p = &spans[parent];
            let (start, end) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
            if start < end {
                children[parent].push((start, end));
            }
        }
    }
    let mut by_name: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
    for (span, mut intervals) in spans.iter().zip(children) {
        intervals.sort_unstable();
        let (mut covered, mut reach) = (0u64, 0u64);
        for (start, end) in intervals {
            if end > reach {
                covered += end - start.max(reach);
                reach = end;
            }
        }
        let entry = by_name.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += span.duration_ns();
        entry.2 += span.duration_ns() - covered;
    }
    by_name
}

pub fn spans_to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("batch_or_request_id", Json::Num(s.id as f64)),
                ])
            })
            .collect(),
    )
}

pub fn self_times_to_json(spans: &[Span]) -> Json {
    Json::Obj(
        self_times(spans)
            .into_iter()
            .map(|(name, (count, total, own))| {
                (
                    name.to_string(),
                    Json::obj([
                        ("count", Json::Num(count as f64)),
                        ("total_s", Json::Num(total as f64 / 1e9)),
                        ("self_s", Json::Num(own as f64 / 1e9)),
                    ]),
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // root 0..100; a 10..40 (child b 20..30); a again 50..70; c 60..120 started in
        // root by another thread and outlasting it.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 20, 30, Some(1)),
            span("a", 50, 70, Some(0)),
            span("c", 60, 120, Some(0)),
        ];
        let times = self_times(&spans);
        // root: its children cover 10..40 and 50..100 (c clipped to root, and overlapping
        // the second a), so 100 - 80 = 20 is root's own.
        assert_eq!(times["root"], (1, 100, 20));
        assert_eq!(times["a"], (2, 50, 40));
        assert_eq!(times["b"], (1, 10, 10));
        assert_eq!(times["c"], (1, 60, 60));

        // Two overlapping children (pipelined requests) cover 10..50 once, not 60 ns.
        let pipelined = vec![
            span("phase", 0, 100, None),
            span("request", 10, 40, Some(0)),
            span("request", 20, 50, Some(0)),
        ];
        assert_eq!(self_times(&pipelined)["phase"], (1, 100, 60));
    }

    #[test]
    fn recorder_nests_spans() {
        let mut t = Tracer::new();
        let out = t.span("outer", 7, |t| t.span("inner", 7, |_| 42));
        assert_eq!(out, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[1].id, 7);
    }
}
