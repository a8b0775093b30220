//! Typed request/response query vocabulary: result modes, per-query budgets, and the
//! mode-driven [`SpecSink`].
//!
//! The paper measures enumeration throughput precisely because full result sets are
//! unmaterialisable (>10^10 paths on the largest queries, Fig. 13) — yet a plain
//! [`PathQuery`] batch has exactly one semantics: enumerate every path. Real serving
//! scenarios want weaker (and far cheaper) answers:
//!
//! * fraud detection asks *"does a suspicious path exist?"* — [`ResultMode::Exists`],
//! * analytics wants counts — [`ResultMode::Count`],
//! * interactive exploration wants the first few paths — [`ResultMode::FirstK`],
//! * offline jobs still want everything — [`ResultMode::Collect`].
//!
//! A [`QuerySpec`] pairs a query with its mode (plus an optional path budget); a batch of
//! specs runs through the same shared-index, shared-computation pipeline as a plain
//! batch and returns one typed [`QueryResponse`] per spec. The enabling mechanism is the
//! [`SpecSink`]: it answers [`SinkFlow::SkipQuery`] the moment a query's mode is
//! satisfied (and [`SinkFlow::Stop`] once every query is), which the enumeration cores
//! translate into genuinely skipped work — aborted DFS branches, short-circuited joins,
//! and dropped cluster work.

use crate::path::PathSet;
use crate::query::{PathQuery, QueryId};
use crate::sink::{PathSink, SinkFlow};
use crate::stats::EnumStats;
use hcsp_graph::VertexId;
use std::fmt;

/// What a query wants back: the result mode of a [`QuerySpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResultMode {
    /// Does at least one HC-s-t path exist? Answered without enumeration whenever the
    /// batch index already knows (`dist(s, t) ≤ k`), and by the first enumerated path
    /// otherwise.
    Exists,
    /// How many HC-s-t paths are there? Full enumeration work, no materialisation.
    Count,
    /// The first `k` result paths in the engine's enumeration order (the real-time
    /// regime: a bounded answer with early-terminating search).
    FirstK(usize),
    /// Every result path, materialised (the classic batch semantics).
    Collect,
}

impl fmt::Display for ResultMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResultMode::Exists => f.write_str("Exists"),
            ResultMode::Count => f.write_str("Count"),
            ResultMode::FirstK(k) => write!(f, "FirstK({k})"),
            ResultMode::Collect => f.write_str("Collect"),
        }
    }
}

/// One typed query request: the HC-s-t path query plus the shape of the wanted answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QuerySpec {
    /// The underlying hop-constrained s-t path query.
    pub query: PathQuery,
    /// What to return (and, implicitly, when enumeration may stop).
    pub mode: ResultMode,
    /// Optional per-query work budget: a hard cap on the number of result paths this
    /// query may produce, across every mode. `Count` saturates at the cap (and stops
    /// paying enumeration cost there), `Collect` degrades into "first budget paths",
    /// `FirstK(k)` is capped at `min(k, budget)`. `None` (default) means unbounded.
    pub path_budget: Option<u64>,
}

impl QuerySpec {
    /// Creates a spec with no path budget.
    pub fn new(query: PathQuery, mode: ResultMode) -> Self {
        QuerySpec {
            query,
            mode,
            path_budget: None,
        }
    }

    /// An existence probe.
    pub fn exists(query: PathQuery) -> Self {
        QuerySpec::new(query, ResultMode::Exists)
    }

    /// A count request.
    pub fn count(query: PathQuery) -> Self {
        QuerySpec::new(query, ResultMode::Count)
    }

    /// A first-`k`-paths request.
    pub fn first_k(query: PathQuery, k: usize) -> Self {
        QuerySpec::new(query, ResultMode::FirstK(k))
    }

    /// A full-enumeration request (the classic batch semantics).
    pub fn collect(query: PathQuery) -> Self {
        QuerySpec::new(query, ResultMode::Collect)
    }

    /// Returns the spec with a path budget (see [`QuerySpec::path_budget`]).
    pub fn with_path_budget(mut self, budget: u64) -> Self {
        self.path_budget = Some(budget);
        self
    }

    /// The maximum number of result paths this spec can ever accept; `None` = unbounded.
    pub fn need(&self) -> Option<u64> {
        let mode_need = match self.mode {
            ResultMode::Exists => Some(1),
            ResultMode::FirstK(k) => Some(k as u64),
            ResultMode::Count | ResultMode::Collect => None,
        };
        match (mode_need, self.path_budget) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// The response this spec yields when the query produces no paths at all.
    pub fn empty_response(&self) -> QueryResponse {
        match self.mode {
            ResultMode::Exists => QueryResponse::Exists(false),
            ResultMode::Count => QueryResponse::Count(0),
            ResultMode::FirstK(_) | ResultMode::Collect => QueryResponse::Paths(PathSet::new()),
        }
    }
}

impl fmt::Display for QuerySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.query, self.mode)?;
        if let Some(b) = self.path_budget {
            write!(f, "(budget {b})")?;
        }
        Ok(())
    }
}

/// The typed answer to one [`QuerySpec`].
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResponse {
    /// Answer to [`ResultMode::Exists`].
    Exists(bool),
    /// Answer to [`ResultMode::Count`] (saturated at the spec's path budget, if any).
    Count(u64),
    /// Answer to [`ResultMode::FirstK`] / [`ResultMode::Collect`]: the result paths in
    /// the engine's enumeration order for the executed batch.
    Paths(PathSet),
}

impl QueryResponse {
    /// Whether at least one result path exists / was observed (defined for every mode).
    pub fn exists(&self) -> bool {
        match self {
            QueryResponse::Exists(b) => *b,
            QueryResponse::Count(c) => *c > 0,
            QueryResponse::Paths(p) => !p.is_empty(),
        }
    }

    /// The observed result count; `None` for an existence probe (which stops at one).
    pub fn count(&self) -> Option<u64> {
        match self {
            QueryResponse::Exists(_) => None,
            QueryResponse::Count(c) => Some(*c),
            QueryResponse::Paths(p) => Some(p.len() as u64),
        }
    }

    /// The materialised paths, when the mode produced any.
    pub fn paths(&self) -> Option<&PathSet> {
        match self {
            QueryResponse::Paths(p) => Some(p),
            _ => None,
        }
    }

    /// Consumes the response into its materialised paths, when the mode produced any.
    pub fn into_paths(self) -> Option<PathSet> {
        match self {
            QueryResponse::Paths(p) => Some(p),
            _ => None,
        }
    }
}

/// The outcome of running a batch of [`QuerySpec`]s: one response per spec, in batch
/// order, plus the run statistics.
#[derive(Debug, Clone)]
pub struct SpecOutcome {
    /// One typed response per submitted spec.
    pub responses: Vec<QueryResponse>,
    /// Run statistics (stage timings, counters, clustering info).
    pub stats: EnumStats,
}

impl SpecOutcome {
    /// The response of spec `i`.
    pub fn response(&self, i: usize) -> &QueryResponse {
        &self.responses[i]
    }
}

/// Per-query accumulation state of a [`SpecSink`].
#[derive(Debug, Clone)]
struct SpecState {
    mode: ResultMode,
    need: Option<u64>,
    seen: u64,
    paths: PathSet,
    done: bool,
}

/// The mode-driven sink behind [`crate::Engine::run_specs`]: accumulates exactly what
/// each query's [`ResultMode`] asks for and reports [`SinkFlow::SkipQuery`] /
/// [`SinkFlow::Stop`] the moment a query / the whole batch is satisfied.
///
/// Query ids are spec positions; like the other sinks it is sized up front and treats an
/// out-of-range id as a routing bug.
#[derive(Debug, Clone)]
pub struct SpecSink {
    states: Vec<SpecState>,
    /// Queries that could still accept a result (unbounded queries stay open until
    /// [`SpecSink::finish`]); 0 ⇒ every further verdict is `Stop`.
    open: usize,
}

impl SpecSink {
    /// Creates a sink for a batch of specs (ids are the specs' positions).
    pub fn new(specs: &[QuerySpec]) -> Self {
        let mut open = specs.len();
        let states = specs
            .iter()
            .map(|spec| {
                let need = spec.need();
                let done = need == Some(0);
                if done {
                    open -= 1;
                }
                SpecState {
                    mode: spec.mode,
                    need,
                    seen: 0,
                    paths: PathSet::new(),
                    done,
                }
            })
            .collect();
        SpecSink { states, open }
    }

    /// Resolves an [`ResultMode::Exists`] query without enumeration (the index
    /// fast path: `dist(s, t) ≤ k` already decides it). A no-op for queries that are
    /// already done.
    pub fn resolve_exists(&mut self, query: QueryId, exists: bool) {
        let state = &mut self.states[query];
        debug_assert!(
            matches!(state.mode, ResultMode::Exists),
            "resolve_exists on a {} query",
            state.mode
        );
        if state.done {
            return;
        }
        state.seen = u64::from(exists);
        state.done = true;
        self.open -= 1;
    }

    /// Whether `query` can still accept results.
    pub fn is_open(&self, query: QueryId) -> bool {
        !self.states[query].done
    }

    /// Number of queries that can still accept results.
    pub fn open_queries(&self) -> usize {
        self.open
    }

    /// Consumes the sink into one typed response per spec, in spec order.
    pub fn into_responses(self) -> Vec<QueryResponse> {
        self.states
            .into_iter()
            .map(|state| match state.mode {
                ResultMode::Exists => QueryResponse::Exists(state.seen > 0),
                ResultMode::Count => QueryResponse::Count(state.seen),
                ResultMode::FirstK(_) | ResultMode::Collect => QueryResponse::Paths(state.paths),
            })
            .collect()
    }
}

impl PathSink for SpecSink {
    fn accept(&mut self, query: QueryId, path: &[VertexId]) -> SinkFlow {
        debug_assert!(
            query < self.states.len(),
            "query id {query} out of range for a SpecSink of {} specs",
            self.states.len()
        );
        let state = &mut self.states[query];
        if state.done {
            // Defensive: a core that ignored an earlier SkipQuery must not corrupt the
            // response (an Exists probe stays satisfied, a FirstK set stays at k).
            return SinkFlow::SkipQuery;
        }
        state.seen += 1;
        if matches!(state.mode, ResultMode::FirstK(_) | ResultMode::Collect) {
            state.paths.push_slice(path);
        }
        if state.need.is_some_and(|need| state.seen >= need) {
            state.done = true;
            self.open -= 1;
            return if self.open == 0 {
                SinkFlow::Stop
            } else {
                SinkFlow::SkipQuery
            };
        }
        SinkFlow::Continue
    }

    fn remaining_quota(&self, query: QueryId) -> Option<u64> {
        let state = &self.states[query];
        if state.done {
            return Some(0);
        }
        state.need.map(|need| need - state.seen)
    }
}

/// A sink adapter translating batch-local query ids through a route table (used to run a
/// *filtered* sub-batch — e.g. with index-answered `Exists` queries removed — against a
/// sink that speaks original spec positions).
pub(crate) struct RoutedSink<'a, S> {
    inner: &'a mut S,
    route: &'a [QueryId],
}

impl<'a, S: PathSink> RoutedSink<'a, S> {
    pub(crate) fn new(inner: &'a mut S, route: &'a [QueryId]) -> Self {
        RoutedSink { inner, route }
    }
}

impl<S: PathSink> PathSink for RoutedSink<'_, S> {
    fn accept(&mut self, query: QueryId, path: &[VertexId]) -> SinkFlow {
        self.inner.accept(self.route[query], path)
    }

    fn remaining_quota(&self, query: QueryId) -> Option<u64> {
        self.inner.remaining_quota(self.route[query])
    }

    // finish() is deliberately not forwarded: the outer driver finishes the inner sink
    // exactly once, after every sub-batch has run.
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(ids: &[u32]) -> Vec<VertexId> {
        ids.iter().map(|&x| VertexId(x)).collect()
    }

    fn q() -> PathQuery {
        PathQuery::new(0u32, 1u32, 3)
    }

    #[test]
    fn needs_follow_mode_and_budget() {
        assert_eq!(QuerySpec::exists(q()).need(), Some(1));
        assert_eq!(QuerySpec::count(q()).need(), None);
        assert_eq!(QuerySpec::first_k(q(), 4).need(), Some(4));
        assert_eq!(QuerySpec::collect(q()).need(), None);
        assert_eq!(QuerySpec::count(q()).with_path_budget(7).need(), Some(7));
        assert_eq!(
            QuerySpec::first_k(q(), 4).with_path_budget(2).need(),
            Some(2)
        );
        assert_eq!(
            QuerySpec::first_k(q(), 2).with_path_budget(9).need(),
            Some(2)
        );
    }

    #[test]
    fn exists_closes_after_the_first_path() {
        let specs = vec![QuerySpec::exists(q()), QuerySpec::collect(q())];
        let mut sink = SpecSink::new(&specs);
        assert_eq!(sink.remaining_quota(0), Some(1));
        assert_eq!(sink.accept(0, &v(&[0, 1])), SinkFlow::SkipQuery);
        assert_eq!(sink.remaining_quota(0), Some(0));
        assert!(!sink.is_open(0));
        // The collect query keeps the batch alive.
        assert_eq!(sink.accept(1, &v(&[0, 1])), SinkFlow::Continue);
        let responses = sink.into_responses();
        assert_eq!(responses[0], QueryResponse::Exists(true));
        assert_eq!(responses[1].count(), Some(1));
    }

    #[test]
    fn stop_fires_when_the_last_bounded_query_closes() {
        let specs = vec![QuerySpec::exists(q()), QuerySpec::first_k(q(), 2)];
        let mut sink = SpecSink::new(&specs);
        assert_eq!(sink.accept(1, &v(&[0, 1])), SinkFlow::Continue);
        assert_eq!(sink.accept(0, &v(&[0, 1])), SinkFlow::SkipQuery);
        assert_eq!(sink.accept(1, &v(&[0, 2, 1])), SinkFlow::Stop);
        assert_eq!(sink.open_queries(), 0);
        // Further accepts on a closed query are rejected, not recorded.
        assert_eq!(sink.accept(1, &v(&[0, 3, 1])), SinkFlow::SkipQuery);
        let responses = sink.into_responses();
        let paths = responses[1].paths().unwrap();
        assert_eq!(paths.len(), 2);
        assert_eq!(paths.get(1), v(&[0, 2, 1]).as_slice());
    }

    #[test]
    fn zero_need_specs_start_closed() {
        let specs = vec![
            QuerySpec::first_k(q(), 0),
            QuerySpec::collect(q()).with_path_budget(0),
        ];
        let sink = SpecSink::new(&specs);
        assert_eq!(sink.open_queries(), 0);
        assert_eq!(sink.remaining_quota(0), Some(0));
        let responses = sink.into_responses();
        assert_eq!(responses[0], QueryResponse::Paths(PathSet::new()));
        assert_eq!(responses[1], QueryResponse::Paths(PathSet::new()));
    }

    #[test]
    fn count_saturates_at_its_budget() {
        let specs = vec![QuerySpec::count(q()).with_path_budget(2)];
        let mut sink = SpecSink::new(&specs);
        assert_eq!(sink.accept(0, &v(&[0, 1])), SinkFlow::Continue);
        assert_eq!(sink.accept(0, &v(&[0, 2, 1])), SinkFlow::Stop);
        assert_eq!(sink.into_responses()[0], QueryResponse::Count(2));
    }

    #[test]
    fn resolve_exists_skips_enumeration() {
        let specs = vec![QuerySpec::exists(q()), QuerySpec::exists(q())];
        let mut sink = SpecSink::new(&specs);
        sink.resolve_exists(0, true);
        sink.resolve_exists(1, false);
        assert_eq!(sink.open_queries(), 0);
        assert_eq!(sink.remaining_quota(0), Some(0));
        // Idempotent on an already-closed query.
        sink.resolve_exists(1, false);
        let responses = sink.into_responses();
        assert_eq!(responses[0], QueryResponse::Exists(true));
        assert_eq!(responses[1], QueryResponse::Exists(false));
    }

    #[test]
    fn routed_sink_translates_ids() {
        let specs = vec![QuerySpec::count(q()), QuerySpec::count(q())];
        let mut sink = SpecSink::new(&specs);
        let route = vec![1usize];
        let mut routed = RoutedSink::new(&mut sink, &route);
        routed.accept(0, &v(&[0, 1]));
        assert_eq!(routed.remaining_quota(0), None);
        let responses = sink.into_responses();
        assert_eq!(responses[0], QueryResponse::Count(0));
        assert_eq!(responses[1], QueryResponse::Count(1));
    }

    #[test]
    fn response_accessors() {
        assert!(QueryResponse::Exists(true).exists());
        assert!(!QueryResponse::Exists(false).exists());
        assert_eq!(QueryResponse::Exists(true).count(), None);
        assert!(QueryResponse::Count(3).exists());
        assert_eq!(QueryResponse::Count(3).count(), Some(3));
        let mut set = PathSet::new();
        set.push_slice(&v(&[0, 1]));
        let r = QueryResponse::Paths(set);
        assert!(r.exists());
        assert_eq!(r.count(), Some(1));
        assert_eq!(r.paths().unwrap().len(), 1);
        assert_eq!(r.into_paths().unwrap().len(), 1);
        assert_eq!(QueryResponse::Count(0).paths(), None);
        assert_eq!(QueryResponse::Exists(false).into_paths(), None);
    }

    #[test]
    fn empty_responses_and_display() {
        assert_eq!(
            QuerySpec::exists(q()).empty_response(),
            QueryResponse::Exists(false)
        );
        assert_eq!(
            QuerySpec::count(q()).empty_response(),
            QueryResponse::Count(0)
        );
        assert_eq!(
            QuerySpec::first_k(q(), 3).empty_response(),
            QueryResponse::Paths(PathSet::new())
        );
        let spec = QuerySpec::first_k(q(), 3).with_path_budget(2);
        assert_eq!(spec.to_string(), "q(v0, v1, 3)[FirstK(3)](budget 2)");
        assert_eq!(ResultMode::Exists.to_string(), "Exists");
        assert_eq!(ResultMode::Collect.to_string(), "Collect");
    }
}
