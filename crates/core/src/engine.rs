//! The user-facing batch engine: algorithm selection, configuration, and result assembly.
//!
//! The engine wraps the five algorithms compared throughout the paper's evaluation
//! (`PathEnum`, `BasicEnum`, `BasicEnum+`, `BatchEnum`, `BatchEnum+`) behind one entry
//! point, so examples, integration tests, and the benchmark all drive the exact same
//! code paths.

use crate::basic_enum::BasicEnum;
use crate::batch_enum::{BatchEnum, DEFAULT_GAMMA};
use crate::epoch::{Epoch, EpochAdvance};
use crate::parallel::{run_per_query, Parallelism};
use crate::path::PathSet;
use crate::pathenum::PathEnum;
use crate::query::{BatchSummary, PathQuery};
use crate::search_order::SearchOrder;
use crate::sink::{CollectSink, CountSink, PathSink};
use crate::spec::{QuerySpec, ResultMode, RoutedSink, SpecOutcome, SpecSink};
use crate::stats::{EnumStats, Stage};
use hcsp_graph::{DeltaGraph, DiGraph, GraphUpdate};
use hcsp_index::BatchIndex;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The algorithms evaluated in the paper (§V "Algorithms").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// State-of-the-art single-query algorithm, one isolated run per query.
    PathEnum,
    /// Algorithm 1: shared multi-source BFS index, independent per-query enumeration.
    BasicEnum,
    /// `BasicEnum` with the optimized search order.
    BasicEnumPlus,
    /// Algorithm 4: clustering + HC-s path query sharing.
    BatchEnum,
    /// `BatchEnum` with the optimized search order.
    BatchEnumPlus,
}

impl Algorithm {
    /// All algorithms in the order the paper's figures list them.
    pub const ALL: [Algorithm; 5] = [
        Algorithm::PathEnum,
        Algorithm::BasicEnum,
        Algorithm::BasicEnumPlus,
        Algorithm::BatchEnum,
        Algorithm::BatchEnumPlus,
    ];

    /// The search order the algorithm uses.
    pub fn search_order(self) -> SearchOrder {
        match self {
            Algorithm::PathEnum | Algorithm::BasicEnum | Algorithm::BatchEnum => {
                SearchOrder::VertexId
            }
            Algorithm::BasicEnumPlus | Algorithm::BatchEnumPlus => SearchOrder::DistanceThenDegree,
        }
    }

    /// Whether the algorithm performs HC-s path query sharing.
    pub fn shares_computation(self) -> bool {
        matches!(self, Algorithm::BatchEnum | Algorithm::BatchEnumPlus)
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Algorithm::PathEnum => "PathEnum",
            Algorithm::BasicEnum => "BasicEnum",
            Algorithm::BasicEnumPlus => "BasicEnum+",
            Algorithm::BatchEnum => "BatchEnum",
            Algorithm::BatchEnumPlus => "BatchEnum+",
        };
        f.write_str(name)
    }
}

/// What an [`Engine`] runs per batch: the algorithm and the clustering threshold γ.
///
/// A plain value; [`Engine::new`] and the service builder take it. Running a batch is
/// always an [`Engine`] call.
#[derive(Debug, Clone, Copy)]
pub struct BatchEngine {
    algorithm: Algorithm,
    gamma: f64,
}

impl Default for BatchEngine {
    fn default() -> Self {
        BatchEngine {
            algorithm: Algorithm::BatchEnumPlus,
            gamma: DEFAULT_GAMMA,
        }
    }
}

/// Builder for [`BatchEngine`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchEngineBuilder {
    algorithm: Option<Algorithm>,
    gamma: Option<f64>,
}

impl BatchEngineBuilder {
    /// Selects the algorithm (default: `BatchEnum+`).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = Some(algorithm);
        self
    }

    /// Sets the clustering threshold γ (default 0.5; only used by the sharing algorithms).
    /// [`BatchEngineBuilder::build`] clamps it into [0, 1].
    ///
    /// # Panics
    ///
    /// If `gamma` is NaN: no clamp can place it, and every similarity comparison against
    /// it would be false, silently running each query in a cluster of its own.
    pub fn gamma(mut self, gamma: f64) -> Self {
        assert!(
            !gamma.is_nan(),
            "the clustering threshold γ must not be NaN"
        );
        self.gamma = Some(gamma);
        self
    }

    /// Finalises the configuration.
    pub fn build(self) -> BatchEngine {
        BatchEngine {
            algorithm: self.algorithm.unwrap_or(Algorithm::BatchEnumPlus),
            gamma: self.gamma.unwrap_or(DEFAULT_GAMMA).clamp(0.0, 1.0),
        }
    }
}

/// The outcome of a batch run when results are collected.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// The result paths of every query, in batch order.
    pub paths: Vec<PathSet>,
    /// Run statistics (stage timings, counters, clustering info).
    pub stats: EnumStats,
}

impl BatchOutcome {
    /// Number of result paths of query `i`.
    ///
    /// # Panics
    ///
    /// If `i` is not a query id of the batch.
    pub fn count(&self, i: usize) -> usize {
        // lint:allow(panic-free-hot-path) i is a query id of the batch, one set per query
        self.paths[i].len()
    }

    /// Total number of result paths across the batch.
    pub fn total(&self) -> usize {
        self.paths.iter().map(PathSet::len).sum()
    }
}

impl BatchEngine {
    /// Starts building a configuration.
    pub fn builder() -> BatchEngineBuilder {
        BatchEngineBuilder::default()
    }

    /// Convenience constructor with an explicit algorithm and the default γ.
    pub fn with_algorithm(algorithm: Algorithm) -> Self {
        BatchEngine {
            algorithm,
            gamma: DEFAULT_GAMMA,
        }
    }

    /// The configured algorithm.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The configured clustering threshold.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The sequential run over an index that covers `queries`: Algorithm 1 or 4 from
    /// line 3 on. PathEnum never comes here, since it builds a per-query index by
    /// definition; over a shared index it would be BasicEnum anyway.
    fn run_over_index<S: PathSink>(
        self,
        graph: &DiGraph,
        index: &BatchIndex,
        queries: &[PathQuery],
        sink: &mut S,
    ) -> EnumStats {
        let order = self.algorithm.search_order();
        if self.algorithm.shares_computation() {
            BatchEnum::new(order, self.gamma).run_batch_with_index(graph, index, queries, sink)
        } else {
            BasicEnum::new(order).run_batch_with_index(graph, index, queries, sink)
        }
    }
}

/// Answers every still-open `Exists` spec straight from the shared index: `dist(s, t) ≤ k`
/// iff some simple path of at most `k` hops exists (a shortest path is always simple), and
/// the batch index knows that distance exactly up to its bound.
fn resolve_exists_from_index(index: &BatchIndex, sink: &mut SpecSink, specs: &[QuerySpec]) {
    for (i, spec) in specs.iter().enumerate() {
        if matches!(spec.mode, ResultMode::Exists) && sink.is_open(i) {
            let d = index.dist_to_target(spec.query.source, spec.query.target);
            sink.resolve_exists(i, d != hcsp_index::INF && d <= spec.query.hop_limit);
        }
    }
}

/// Index-reuse accounting of an [`Engine`].
///
/// The first batch builds the index from scratch; later batches extend or reuse it, and
/// these counters make that amortisation visible (the service reports them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexReuse {
    /// Full index builds: the first batch, plus every batch whose hop bound exceeded the
    /// cached index's bound.
    pub rebuilds: usize,
    /// Incremental extensions: batches whose endpoints were only partially covered, so
    /// only the missing roots were BFS'd.
    pub extensions: usize,
    /// Batches served with zero index work (everything already covered).
    pub hits: usize,
    /// Roots added by incremental extensions.
    pub roots_added: usize,
    /// Cache drops forced by the root cap (see [`Engine::set_index_root_cap`]).
    pub resets: usize,
    /// Graph-update batches whose index maintenance ran incrementally (insert relaxation
    /// and/or lazy delete marking) instead of dropping the cache.
    pub update_refreshes: usize,
    /// Graph-update batches that dropped the cached index because the net edge delta
    /// exceeded [`Engine::set_update_refresh_cap`]; the next batch rebuilds from scratch.
    pub invalidations: usize,
    /// Batches that had to re-BFS delete-dirtied roots before running (the lazy half of
    /// delete maintenance).
    pub dirty_flushes: usize,
    /// Total roots re-BFS'd across those flushes.
    pub dirty_roots_refreshed: usize,
    /// [`Engine::advance_to_epoch`] calls that actually crossed at least one epoch.
    pub epoch_advances: usize,
    /// Roots hit by a deleted shortest-path edge whose re-BFS the precise survivor scan
    /// proved unnecessary — work the conservative marking rule would have spent.
    pub deletes_supported: usize,
}

/// What one [`Engine::apply_updates`] call did to the graph and the cached index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateSummary {
    /// Updates that changed the graph (inserts of absent edges, deletes of present ones).
    pub applied: usize,
    /// No-op updates (inserting an existing edge, deleting an absent one).
    pub ignored: usize,
    /// Net edges added after intra-batch cancellation (an insert-then-delete pair of the
    /// same edge counts towards `applied` twice but nets to nothing).
    pub net_inserted: usize,
    /// Net edges removed after intra-batch cancellation.
    pub net_deleted: usize,
    /// Vertices the update batch grew the graph by.
    pub new_vertices: usize,
    /// Distance entries improved/added by the incremental insert relaxation.
    pub refreshed_entries: usize,
    /// Index roots marked dirty by deletions (re-BFS'd lazily before the next batch
    /// runs) — only roots that truly lost their last equal-length shortest path.
    pub dirty_roots: usize,
    /// Roots hit by a deleted shortest-path edge that kept an equal-length alternative:
    /// their re-BFS was skipped by the precise survivor scan.
    pub supported_deletes: usize,
    /// Whether the cached index was dropped instead of incrementally maintained.
    pub invalidated: bool,
}

impl UpdateSummary {
    /// Net number of edge mutations that survived intra-batch cancellation.
    pub fn net_changes(&self) -> usize {
        self.net_inserted + self.net_deleted
    }
}

/// The batch query engine: one graph, the [`BatchEngine`] configuration it runs, and one
/// cached [`BatchIndex`] that survives across batches.
///
/// Every batch runs through an `Engine`. A fresh engine's first batch builds the index
/// from that batch's endpoints (BuildIndex, lines 1–2 of Algorithms 1 and 4) and then
/// enumerates, so a one-off batch is simply `Engine::new(graph, config)` and one call.
/// Later batches reuse the index: across micro-batches most query endpoints repeat, so
/// the index is *extended* with the few new roots (cheap, incremental multi-source BFS)
/// and fully rebuilt **only when the hop-limit bound grows** (cached entries are
/// truncated at the old bound and cannot be deepened in place). On a rebuild, every
/// previously indexed root is retained so earlier query shapes stay covered.
///
/// [`Algorithm::PathEnum`] deliberately bypasses the cache: it is the single-query
/// real-time baseline, defined by building its own per-query index.
///
/// # Example
///
/// ```
/// use hcsp_core::{BatchEngine, Engine, PathQuery};
/// use hcsp_graph::DiGraph;
///
/// // A diamond with two parallel 2-hop routes.
/// let graph = DiGraph::from_edge_list(4, &[(0, 1), (1, 3), (0, 2), (2, 3)]).unwrap();
/// let mut engine = Engine::new(graph, BatchEngine::default());
///
/// // The first batch builds the index.
/// let outcome = engine.run(&[PathQuery::new(0u32, 3u32, 3)]);
/// assert_eq!(outcome.count(0), 2);
///
/// // A later batch over the same endpoints reuses it outright, even with a smaller k.
/// let outcome = engine.run(&[PathQuery::new(0u32, 3u32, 2)]);
/// assert_eq!(outcome.count(0), 2);
/// assert_eq!(engine.index_reuse().rebuilds, 1);
/// assert_eq!(engine.index_reuse().hits, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Engine {
    config: BatchEngine,
    graph: Arc<DiGraph>,
    index: Option<BatchIndex>,
    index_root_cap: Option<usize>,
    update_refresh_cap: Option<usize>,
    reuse: IndexReuse,
    /// The epoch version [`Engine::graph`] corresponds to (0 unless the engine is driven
    /// through the epoch protocol).
    epoch_id: u64,
}

/// Default cap on the net edge delta of one [`Engine::apply_updates`] call above which
/// the cached index is invalidated instead of incrementally refreshed: per-edge
/// relaxation/marking work scales with the delta, a rebuild with the (batch-bounded)
/// root count, so very large deltas are cheaper to absorb by rebuilding.
pub const DEFAULT_UPDATE_REFRESH_CAP: usize = 1024;

impl Engine {
    /// Creates an engine over a graph with the given configuration.
    pub fn new(graph: impl Into<Arc<DiGraph>>, config: BatchEngine) -> Self {
        Engine {
            config,
            graph: graph.into(),
            index: None,
            index_root_cap: None,
            update_refresh_cap: Some(DEFAULT_UPDATE_REFRESH_CAP),
            reuse: IndexReuse::default(),
            epoch_id: 0,
        }
    }

    /// Convenience constructor with an explicit algorithm and the default γ.
    pub fn with_algorithm(graph: impl Into<Arc<DiGraph>>, algorithm: Algorithm) -> Self {
        Engine::new(graph, BatchEngine::with_algorithm(algorithm))
    }

    /// Creates an engine pinned to `epoch`'s snapshot (see [`crate::epoch`]).
    pub fn at_epoch(epoch: &Epoch, config: BatchEngine) -> Self {
        let mut engine = Engine::new(epoch.graph_arc(), config);
        engine.epoch_id = epoch.id();
        engine
    }

    /// The epoch version the engine's graph corresponds to.
    pub fn epoch_id(&self) -> u64 {
        self.epoch_id
    }

    /// The graph the engine serves.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// A clonable handle to the graph (for spawning sibling engines on worker threads).
    pub fn graph_arc(&self) -> Arc<DiGraph> {
        Arc::clone(&self.graph)
    }

    /// The configuration the engine runs per batch.
    pub fn config(&self) -> BatchEngine {
        self.config
    }

    /// The configured algorithm.
    pub fn algorithm(&self) -> Algorithm {
        self.config.algorithm()
    }

    /// Index-reuse accounting so far.
    pub fn index_reuse(&self) -> IndexReuse {
        self.reuse
    }

    /// Approximate heap footprint of the cached index in bytes (0 before the first batch).
    pub fn index_heap_bytes(&self) -> usize {
        self.index.as_ref().map_or(0, |idx| {
            idx.source_index().heap_bytes() + idx.target_index().heap_bytes()
        })
    }

    /// Bounds the cached index: once its total root count (sources + targets) exceeds
    /// `cap`, the cache is dropped before the next batch and rebuilt from that batch
    /// alone. `None` (the default) never resets.
    ///
    /// Without a cap a long-lived engine indexes every endpoint it has ever served —
    /// ideal for a stable working set, unbounded for a stream of one-off endpoints. The
    /// cap is a high-water mark, not a strict limit: the index may exceed it within one
    /// batch and is trimmed at the next [`Engine::run`]-family call. Resets are counted
    /// in [`IndexReuse::resets`].
    pub fn set_index_root_cap(&mut self, cap: Option<usize>) {
        self.index_root_cap = cap;
    }

    /// The configured root cap, if any.
    pub fn index_root_cap(&self) -> Option<usize> {
        self.index_root_cap
    }

    /// Caps the net edge delta one [`Engine::apply_updates`] call maintains
    /// incrementally; larger deltas drop the cached index instead (the invalidation
    /// path, counted in [`IndexReuse::invalidations`]). `None` always maintains
    /// incrementally. Default: [`DEFAULT_UPDATE_REFRESH_CAP`].
    pub fn set_update_refresh_cap(&mut self, cap: Option<usize>) {
        self.update_refresh_cap = cap;
    }

    /// The configured update-refresh cap, if any.
    pub fn update_refresh_cap(&self) -> Option<usize> {
        self.update_refresh_cap
    }

    /// Applies a batch of edge insertions/deletions to the served graph, keeping the
    /// cached index consistent.
    ///
    /// The updates are staged in a [`DeltaGraph`] (intra-batch duplicates and
    /// insert/delete pairs cancel), compacted into a fresh CSR snapshot that replaces
    /// [`Engine::graph`], and the cached [`BatchIndex`] — if any — is maintained:
    ///
    /// * **insertions** refresh affected distance entries immediately (inserts can only
    ///   shorten bounded distances, so a seeded relaxation is exact);
    /// * **deletions** run the precise survivor scan: a root is marked dirty only when an
    ///   affected vertex lost its last equal-length shortest-path parent (otherwise the
    ///   map is provably intact and the re-BFS is skipped —
    ///   [`UpdateSummary::supported_deletes`]); the re-BFS of marked roots is deferred
    ///   until the next batch runs ([`IndexReuse::dirty_flushes`]), so back-to-back
    ///   update calls coalesce their repair work;
    /// * a net delta larger than [`Engine::set_update_refresh_cap`] drops the index
    ///   outright (rebuilding is cheaper than per-edge maintenance at that size).
    ///
    /// Queries issued after `apply_updates` returns observe exactly the post-update
    /// snapshot: results are identical to a fresh engine built over the updated graph.
    ///
    /// # Example
    ///
    /// ```
    /// use hcsp_core::{BatchEngine, Engine, PathQuery};
    /// use hcsp_graph::{DiGraph, GraphUpdate};
    ///
    /// let graph = DiGraph::from_edge_list(4, &[(0, 1), (1, 3)]).unwrap();
    /// let mut engine = Engine::new(graph, BatchEngine::default());
    /// assert_eq!(engine.run(&[PathQuery::new(0u32, 3u32, 3)]).count(0), 1);
    ///
    /// // Open a second route and retire the first hop of the old one.
    /// let summary = engine.apply_updates(&[
    ///     GraphUpdate::insert(0u32, 2u32),
    ///     GraphUpdate::insert(2u32, 3u32),
    ///     GraphUpdate::delete(0u32, 1u32),
    /// ]);
    /// assert_eq!(summary.applied, 3);
    /// assert_eq!(engine.run(&[PathQuery::new(0u32, 3u32, 3)]).count(0), 1);
    /// assert!(engine.graph().has_edge(hcsp_graph::VertexId(0), hcsp_graph::VertexId(2)));
    /// ```
    pub fn apply_updates(&mut self, updates: &[GraphUpdate]) -> UpdateSummary {
        let mut summary = UpdateSummary::default();
        if updates.is_empty() {
            return summary;
        }
        let mut delta = DeltaGraph::new(Arc::clone(&self.graph));
        for update in updates {
            if delta.apply(update) {
                summary.applied += 1;
            } else {
                summary.ignored += 1;
            }
        }
        let inserted: Vec<_> = delta.added_edges().collect();
        let deleted: Vec<_> = delta.removed_edges().collect();
        summary.net_inserted = inserted.len();
        summary.net_deleted = deleted.len();
        summary.new_vertices = delta.num_vertices() - self.graph.num_vertices();
        if !delta.is_dirty() {
            return summary;
        }
        self.graph = Arc::new(delta.compact());
        if let Some(index) = self.index.as_mut() {
            let over_cap = self
                .update_refresh_cap
                .is_some_and(|cap| summary.net_changes() > cap);
            if over_cap {
                self.index = None;
                self.reuse.invalidations += 1;
                summary.invalidated = true;
            } else {
                let outcome = index.note_deletions(&self.graph, &deleted);
                summary.dirty_roots = outcome.marked;
                summary.supported_deletes = outcome.supported;
                summary.refreshed_entries = index.apply_insertions(&self.graph, &inserted);
                self.reuse.update_refreshes += 1;
                self.reuse.deletes_supported += outcome.supported;
            }
        }
        summary
    }

    /// Advances the engine to `epoch`, maintaining the cached index incrementally.
    ///
    /// A no-op when already there. When the engine trails by at most the epoch's
    /// retained delta window ([`crate::epoch::MAX_EPOCH_DELTAS`]), the missed deltas are
    /// net-merged and absorbed exactly like one combined [`Engine::apply_updates`]
    /// batch: precise delete marking first, then insert relaxation, against the target
    /// snapshot. Trailing further (or a net delta over
    /// [`Engine::set_update_refresh_cap`]) swaps the graph and drops the cached index —
    /// always correct, just not incremental. The graph pointer afterwards is `epoch`'s
    /// own `Arc`, so sibling engines advanced to the same epoch share one CSR.
    pub fn advance_to_epoch(&mut self, epoch: &Epoch) -> EpochAdvance {
        let mut advance = EpochAdvance::default();
        if epoch.id() == self.epoch_id {
            return advance;
        }
        advance.epochs_crossed = epoch.id().saturating_sub(self.epoch_id);
        let deltas = epoch.deltas_since(self.epoch_id);
        match (deltas, self.index.as_mut()) {
            (Some(deltas), Some(index)) => {
                let (inserted, deleted) = crate::epoch::merge_deltas(deltas);
                advance.net_inserted = inserted.len();
                advance.net_deleted = deleted.len();
                self.graph = epoch.graph_arc();
                let over_cap = self
                    .update_refresh_cap
                    .is_some_and(|cap| inserted.len() + deleted.len() > cap);
                if over_cap {
                    self.index = None;
                    self.reuse.invalidations += 1;
                    advance.invalidated = true;
                } else {
                    let outcome = index.note_deletions(&self.graph, &deleted);
                    advance.dirty_roots = outcome.marked;
                    advance.supported_deletes = outcome.supported;
                    index.apply_insertions(&self.graph, &inserted);
                    self.reuse.update_refreshes += 1;
                    self.reuse.deletes_supported += outcome.supported;
                }
            }
            (None, Some(_)) => {
                // Too far behind the retained window (or handed an older epoch): no
                // incremental route, so fall back to a plain snapshot swap.
                self.graph = epoch.graph_arc();
                self.index = None;
                self.reuse.invalidations += 1;
                advance.invalidated = true;
            }
            (_, None) => {
                self.graph = epoch.graph_arc();
            }
        }
        self.epoch_id = epoch.id();
        if advance.epochs_crossed > 0 {
            self.reuse.epoch_advances += 1;
        }
        advance
    }

    /// Makes the cached index cover `queries`, rebuilding only when the hop bound grew and
    /// extending incrementally otherwise. Returns the graph and the index that now covers
    /// the batch, with the time spent.
    fn ensure_index(&mut self, queries: &[PathQuery]) -> (&DiGraph, &BatchIndex, Duration) {
        let start = Instant::now();
        let summary = BatchSummary::of(queries);
        if let (Some(cap), Some(index)) = (self.index_root_cap, &self.index) {
            if index.source_index().num_roots() + index.target_index().num_roots() > cap {
                self.index = None;
                self.reuse.resets += 1;
            }
        }
        let within_bound = self
            .index
            .as_ref()
            .is_some_and(|index| summary.max_hop_limit <= index.bound());
        let index = match (&mut self.index, within_bound) {
            (Some(index), true) => {
                // Delete-dirtied roots repair lazily, here: the last point before the
                // batch consults the index for pruning (stale entries under-estimate
                // distances, which would break the Lemma 3.1 bound).
                if index.num_dirty() > 0 {
                    let refreshed = index.flush_dirty(&self.graph);
                    self.reuse.dirty_flushes += 1;
                    self.reuse.dirty_roots_refreshed += refreshed;
                }
                let added = index.extend(&self.graph, &summary.sources, &summary.targets);
                if added == 0 {
                    self.reuse.hits += 1;
                } else {
                    self.reuse.extensions += 1;
                    self.reuse.roots_added += added;
                }
                index
            }
            (cached, _) => {
                // Carry every previously indexed root into the rebuild so batches already
                // served stay covered (endpoint working sets repeat in serving workloads).
                // The carried roots overlap the batch's own endpoints heavily in exactly
                // those workloads, so the merged sets are deduplicated before they reach
                // the index build — duplicate roots would cost sort/partition work per
                // batch.
                let BatchSummary {
                    mut sources,
                    mut targets,
                    max_hop_limit,
                } = summary;
                if let Some(old) = cached {
                    sources.extend_from_slice(old.source_index().roots());
                    targets.extend_from_slice(old.target_index().roots());
                    sources.sort_unstable();
                    sources.dedup();
                    targets.sort_unstable();
                    targets.dedup();
                }
                debug_assert!(
                    sources.is_sorted_by(|a, b| a < b),
                    "duplicate source roots reach the index build"
                );
                debug_assert!(
                    targets.is_sorted_by(|a, b| a < b),
                    "duplicate target roots reach the index build"
                );
                self.reuse.rebuilds += 1;
                cached.insert(BatchIndex::build(
                    &self.graph,
                    &sources,
                    &targets,
                    max_hop_limit,
                ))
            }
        };
        (&self.graph, index, start.elapsed())
    }

    /// Runs one batch, streaming every result path into a caller-provided sink.
    ///
    /// The reported `BuildIndex` stage time is the index work this batch actually caused:
    /// the full build on a fresh engine, the incremental extension (zero-ish on a fully
    /// covered batch) afterwards.
    pub fn run_with_sink<S: PathSink>(&mut self, queries: &[PathQuery], sink: &mut S) -> EnumStats {
        if queries.is_empty() {
            sink.finish();
            return EnumStats::new(0);
        }
        let config = self.config;
        if config.algorithm == Algorithm::PathEnum {
            // The real-time baseline: per-query index by definition, nothing cached.
            let per_query = PathEnum::new(config.algorithm.search_order());
            return per_query.run_batch(&self.graph, queries, sink);
        }
        let (graph, index, prep_time) = self.ensure_index(queries);
        let mut stats = config.run_over_index(graph, index, queries, sink);
        stats.add_stage(Stage::BuildIndex, prep_time);
        stats
    }

    /// Runs one batch on the cluster-sharded parallel executor, streaming every result
    /// path into a caller-provided sink.
    ///
    /// The cached index is prepared exactly as in [`Engine::run_with_sink`]; cluster
    /// evaluation then fans out over `parallelism` worker threads (see
    /// [`crate::parallel`]). Results are merged deterministically, so the sink receives
    /// the sequential run's exact sequence of paths — per query and across queries, and
    /// therefore the same prefix when it answers `SkipQuery` or `Stop` — for every
    /// algorithm at every worker count. `Parallelism::Fixed(1)` degenerates to a single
    /// worker.
    pub fn run_parallel_with_sink<S: PathSink>(
        &mut self,
        queries: &[PathQuery],
        parallelism: Parallelism,
        sink: &mut S,
    ) -> EnumStats {
        if queries.is_empty() {
            sink.finish();
            return EnumStats::new(0);
        }
        let config = self.config;
        let order = config.algorithm.search_order();
        let per_query = PathEnum::new(order);
        if config.algorithm == Algorithm::PathEnum {
            // The real-time baseline: per-query index by definition, nothing cached; the
            // per-query index builds simply spread over the workers.
            let graph = &*self.graph;
            return run_per_query(queries, parallelism, sink, |q, local, stats, buf| {
                per_query.run_single_buffered(graph, q, 0, local, stats, buf);
            });
        }
        let (graph, index, prep_time) = self.ensure_index(queries);
        let mut stats = if config.algorithm.shares_computation() {
            BatchEnum::new(order, config.gamma).run_parallel_with_index(
                graph,
                index,
                queries,
                parallelism,
                sink,
            )
        } else {
            run_per_query(queries, parallelism, sink, |q, local, stats, buf| {
                per_query.run_with_index_buffered(graph, index, q, 0, local, stats, buf);
            })
        };
        stats.add_stage(Stage::BuildIndex, prep_time);
        stats
    }

    /// Runs one batch on `threads` worker threads and collects every result path.
    ///
    /// Lossless with respect to [`Engine::run`]: same paths per query, same order.
    pub fn run_batch_parallel(
        &mut self,
        queries: &[PathQuery],
        parallelism: Parallelism,
    ) -> BatchOutcome {
        let mut sink = CollectSink::new(queries.len());
        let stats = self.run_parallel_with_sink(queries, parallelism, &mut sink);
        BatchOutcome {
            paths: sink.into_inner(),
            stats,
        }
    }

    /// Runs one batch and collects every result path.
    pub fn run(&mut self, queries: &[PathQuery]) -> BatchOutcome {
        let mut sink = CollectSink::new(queries.len());
        let stats = self.run_with_sink(queries, &mut sink);
        BatchOutcome {
            paths: sink.into_inner(),
            stats,
        }
    }

    /// Runs one batch counting results only.
    pub fn run_counting(&mut self, queries: &[PathQuery]) -> (Vec<u64>, EnumStats) {
        let mut sink = CountSink::new(queries.len());
        let stats = self.run_with_sink(queries, &mut sink);
        (sink.counts().to_vec(), stats)
    }

    /// Runs one batch of typed query requests against the cached index, returning one
    /// typed response per spec (see [`QuerySpec`] / [`crate::QueryResponse`]).
    ///
    /// A mixed-mode batch shares a single index (and clustering pass) exactly like a
    /// plain batch; the per-spec [`ResultMode`] only changes *when each query may stop*:
    ///
    /// * `Exists` is answered from the index distance without any enumeration,
    /// * `FirstK(k)` / path budgets terminate the query the moment the sink is
    ///   satisfied (streaming join under `BasicEnum*`, short-circuited join and dropped
    ///   cluster work under `BatchEnum*`),
    /// * `Count` / `Collect` run to completion.
    pub fn run_specs(&mut self, specs: &[QuerySpec]) -> SpecOutcome {
        if specs.is_empty() {
            return SpecOutcome {
                responses: Vec::new(),
                stats: EnumStats::new(0),
            };
        }
        let queries: Vec<PathQuery> = specs.iter().map(|s| s.query).collect();
        let mut sink = SpecSink::new(specs);
        let config = self.config;
        let stats = if config.algorithm == Algorithm::PathEnum {
            // The real-time baseline has no shared index to probe: every spec runs the
            // per-query pipeline (quota-aware, so bounded modes still short-circuit).
            let per_query = PathEnum::new(config.algorithm.search_order());
            per_query.run_batch(&self.graph, &queries, &mut sink)
        } else {
            let (graph, index, prep_time) = self.ensure_index(&queries);
            resolve_exists_from_index(index, &mut sink, specs);
            // Satisfied specs (index-answered Exists probes, zero-need degenerates) leave
            // the enumeration batch entirely: they must not cost clustering or detection
            // work.
            let mut live: Vec<PathQuery> = Vec::new();
            let mut route: Vec<usize> = Vec::new();
            for (i, &query) in queries.iter().enumerate() {
                if sink.remaining_quota(i) != Some(0) {
                    live.push(query);
                    route.push(i);
                }
            }
            let mut routed = RoutedSink::new(&mut sink, &route);
            let mut stats = config.run_over_index(graph, index, &live, &mut routed);
            stats.num_queries = specs.len();
            stats.add_stage(Stage::BuildIndex, prep_time);
            stats
        };
        SpecOutcome {
            responses: sink.into_responses(),
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce::enumerate_reference;
    use hcsp_graph::generators::regular::{complete, grid};

    #[test]
    fn all_algorithms_agree_on_counts() {
        let g = grid(4, 4);
        let queries = vec![
            PathQuery::new(0u32, 15u32, 6),
            PathQuery::new(1u32, 15u32, 6),
            PathQuery::new(0u32, 11u32, 5),
        ];
        let reference: Vec<u64> = queries
            .iter()
            .map(|q| enumerate_reference(&g, q).len() as u64)
            .collect();
        for algorithm in Algorithm::ALL {
            let mut engine = Engine::with_algorithm(g.clone(), algorithm);
            let (counts, stats) = engine.run_counting(&queries);
            assert_eq!(counts, reference, "algorithm {algorithm}");
            assert_eq!(stats.num_queries, 3);
        }
    }

    #[test]
    fn builder_configures_algorithm_and_gamma() {
        let engine = BatchEngine::builder()
            .algorithm(Algorithm::BatchEnum)
            .gamma(0.25)
            .build();
        assert_eq!(engine.algorithm(), Algorithm::BatchEnum);
        assert!((engine.gamma() - 0.25).abs() < 1e-12);
        // Gamma is clamped into [0, 1].
        assert_eq!(BatchEngine::builder().gamma(7.0).build().gamma(), 1.0);
        let default_engine = BatchEngine::default();
        assert_eq!(default_engine.algorithm(), Algorithm::BatchEnumPlus);
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn builder_rejects_a_nan_gamma() {
        let _ = BatchEngine::builder().gamma(f64::NAN);
    }

    #[test]
    fn run_collects_full_paths() {
        let g = complete(5);
        let queries = vec![PathQuery::new(0u32, 4u32, 3)];
        let outcome = Engine::with_algorithm(g.clone(), Algorithm::BatchEnumPlus).run(&queries);
        assert_eq!(outcome.count(0), enumerate_reference(&g, &queries[0]).len());
        assert_eq!(outcome.total(), outcome.count(0));
        for p in outcome.paths[0].iter() {
            assert_eq!(p.first(), Some(&hcsp_graph::VertexId(0)));
            assert_eq!(p.last(), Some(&hcsp_graph::VertexId(4)));
        }
    }

    #[test]
    fn reusable_engine_matches_one_shot_across_batches() {
        let g = grid(4, 4);
        let batches: Vec<Vec<PathQuery>> = vec![
            vec![
                PathQuery::new(0u32, 15u32, 6),
                PathQuery::new(1u32, 15u32, 6),
            ],
            // Same endpoints, smaller k: fully covered, no index work.
            vec![PathQuery::new(0u32, 15u32, 5)],
            // New endpoints at the same bound: incremental extension.
            vec![
                PathQuery::new(4u32, 11u32, 5),
                PathQuery::new(0u32, 15u32, 6),
            ],
            // Larger bound: rebuild.
            vec![PathQuery::new(0u32, 15u32, 8)],
        ];
        for algorithm in Algorithm::ALL {
            let mut engine = Engine::with_algorithm(g.clone(), algorithm);
            for batch in &batches {
                let (counts, _) = engine.run_counting(batch);
                let reference: Vec<u64> = batch
                    .iter()
                    .map(|q| enumerate_reference(&g, q).len() as u64)
                    .collect();
                assert_eq!(counts, reference, "{algorithm}");
            }
        }
    }

    #[test]
    fn engine_reuses_extends_and_rebuilds_the_index() {
        let g = grid(4, 4);
        let mut engine = Engine::new(g, BatchEngine::default());
        assert_eq!(engine.index_heap_bytes(), 0);

        engine.run(&[PathQuery::new(0u32, 15u32, 6)]);
        assert_eq!(
            engine.index_reuse(),
            IndexReuse {
                rebuilds: 1,
                ..Default::default()
            }
        );

        // Covered: hit, no BFS.
        engine.run(&[PathQuery::new(0u32, 15u32, 4)]);
        assert_eq!(engine.index_reuse().hits, 1);

        // New source at the same bound: extension, not rebuild.
        engine.run(&[PathQuery::new(1u32, 15u32, 6)]);
        assert_eq!(engine.index_reuse().rebuilds, 1);
        assert_eq!(engine.index_reuse().extensions, 1);
        assert_eq!(engine.index_reuse().roots_added, 1);

        // Bound grows: rebuild, carrying the old roots.
        engine.run(&[PathQuery::new(2u32, 15u32, 8)]);
        assert_eq!(engine.index_reuse().rebuilds, 2);
        // The carried roots mean the earlier shape is still a pure hit.
        engine.run(&[
            PathQuery::new(0u32, 15u32, 6),
            PathQuery::new(1u32, 15u32, 5),
        ]);
        assert_eq!(engine.index_reuse().hits, 2);
        assert!(engine.index_heap_bytes() > 0);
    }

    #[test]
    fn apply_updates_matches_a_fresh_engine_after_every_step() {
        let g = grid(4, 4);
        let queries = vec![
            PathQuery::new(0u32, 15u32, 6),
            PathQuery::new(1u32, 15u32, 6),
            PathQuery::new(0u32, 11u32, 5),
        ];
        let steps: Vec<Vec<GraphUpdate>> = vec![
            vec![GraphUpdate::insert(0u32, 15u32)],
            vec![
                GraphUpdate::delete(0u32, 1u32),
                GraphUpdate::insert(5u32, 15u32),
            ],
            vec![
                GraphUpdate::delete(0u32, 15u32),
                GraphUpdate::delete(5u32, 15u32),
                GraphUpdate::insert(12u32, 1u32),
            ],
        ];
        let mut engine = Engine::new(g, BatchEngine::default());
        // Warm the cache so every step exercises real index maintenance.
        engine.run(&queries);
        for step in &steps {
            let summary = engine.apply_updates(step);
            assert_eq!(summary.applied, step.len());
            assert!(!summary.invalidated);
            let updated = engine.run(&queries);
            let mut fresh = Engine::new(engine.graph_arc(), BatchEngine::default());
            let reference = fresh.run(&queries);
            assert_eq!(updated.paths, reference.paths, "step {step:?}");
        }
        assert!(engine.index_reuse().update_refreshes >= steps.len());
        assert!(engine.index_reuse().dirty_flushes > 0);
        assert!(engine.index_reuse().dirty_roots_refreshed > 0);
    }

    #[test]
    fn apply_updates_without_a_cached_index_only_swaps_the_graph() {
        let g = complete(4);
        let mut engine = Engine::new(g, BatchEngine::default());
        let summary = engine.apply_updates(&[GraphUpdate::delete(0u32, 1u32)]);
        assert_eq!(summary.applied, 1);
        assert_eq!(summary.refreshed_entries, 0);
        assert_eq!(summary.dirty_roots, 0);
        assert_eq!(engine.index_reuse(), IndexReuse::default());
        assert!(!engine
            .graph()
            .has_edge(hcsp_graph::VertexId(0), hcsp_graph::VertexId(1)));
    }

    #[test]
    fn noop_and_cancelling_updates_leave_engine_untouched() {
        let g = complete(4);
        let mut engine = Engine::new(g.clone(), BatchEngine::default());
        engine.run(&[PathQuery::new(0u32, 3u32, 3)]);
        // Existing edge insert + absent edge delete: pure no-ops.
        let summary = engine.apply_updates(&[
            GraphUpdate::insert(0u32, 1u32),
            GraphUpdate::delete(1u32, 1u32),
        ]);
        assert_eq!(summary.applied, 0);
        assert_eq!(summary.ignored, 2);
        assert_eq!(summary.net_changes(), 0);
        // Insert-then-delete of the same absent edge cancels to a clean delta.
        let summary = engine.apply_updates(&[
            GraphUpdate::insert(1u32, 1u32),
            GraphUpdate::delete(1u32, 1u32),
        ]);
        assert_eq!(summary.applied, 2);
        assert_eq!(summary.net_changes(), 0);
        assert_eq!(engine.index_reuse().update_refreshes, 0);
        assert_eq!(*engine.graph(), g);
        assert_eq!(engine.apply_updates(&[]), UpdateSummary::default());
    }

    #[test]
    fn oversized_update_batches_invalidate_instead_of_refreshing() {
        let g = grid(4, 4);
        let mut engine = Engine::new(g, BatchEngine::default());
        engine.set_update_refresh_cap(Some(1));
        assert_eq!(engine.update_refresh_cap(), Some(1));
        let q = PathQuery::new(0u32, 15u32, 6);
        engine.run(&[q]);
        assert!(engine.index_heap_bytes() > 0);

        let summary = engine.apply_updates(&[
            GraphUpdate::insert(0u32, 15u32),
            GraphUpdate::insert(15u32, 0u32),
        ]);
        assert!(summary.invalidated);
        assert_eq!(engine.index_heap_bytes(), 0, "cache must be dropped");
        assert_eq!(engine.index_reuse().invalidations, 1);

        // Correctness is unaffected: the next batch rebuilds over the updated graph.
        let outcome = engine.run(&[q]);
        let mut fresh = Engine::new(engine.graph_arc(), BatchEngine::default());
        assert_eq!(outcome.paths, fresh.run(&[q]).paths);
        assert_eq!(engine.index_reuse().rebuilds, 2);
    }

    #[test]
    fn updates_can_grow_the_vertex_space() {
        let g = grid(3, 3);
        let mut engine = Engine::new(g, BatchEngine::default());
        engine.run(&[PathQuery::new(0u32, 8u32, 4)]);
        let summary = engine.apply_updates(&[
            GraphUpdate::insert(8u32, 9u32),
            GraphUpdate::insert(9u32, 0u32),
        ]);
        assert_eq!(summary.new_vertices, 1);
        assert_eq!(engine.graph().num_vertices(), 10);
        let q = PathQuery::new(0u32, 9u32, 5);
        let (counts, _) = engine.run_counting(&[q]);
        assert_eq!(
            counts[0],
            enumerate_reference(engine.graph(), &q).len() as u64
        );
    }

    #[test]
    fn delete_heavy_streams_coalesce_their_dirty_flushes() {
        let g = grid(4, 4);
        let mut engine = Engine::new(g, BatchEngine::default());
        let q = PathQuery::new(0u32, 15u32, 6);
        engine.run(&[q]);
        // Two consecutive delete batches with no query in between: marking happens
        // twice, but the (expensive) re-BFS runs once, at the next query.
        let s1 = engine.apply_updates(&[GraphUpdate::delete(0u32, 1u32)]);
        let s2 = engine.apply_updates(&[GraphUpdate::delete(14u32, 15u32)]);
        assert!(s1.dirty_roots + s2.dirty_roots > 0);
        assert_eq!(engine.index_reuse().dirty_flushes, 0, "repair is lazy");
        let outcome = engine.run(&[q]);
        assert_eq!(engine.index_reuse().dirty_flushes, 1);
        let mut fresh = Engine::new(engine.graph_arc(), BatchEngine::default());
        assert_eq!(outcome.paths, fresh.run(&[q]).paths);
    }

    #[test]
    fn parallel_runs_see_updates_too() {
        let g = grid(4, 4);
        let queries = vec![
            PathQuery::new(0u32, 15u32, 6),
            PathQuery::new(4u32, 11u32, 5),
        ];
        let mut engine = Engine::new(g, BatchEngine::default());
        engine.run_batch_parallel(&queries, Parallelism::Fixed(2));
        engine.apply_updates(&[
            GraphUpdate::insert(0u32, 15u32),
            GraphUpdate::delete(4u32, 5u32),
        ]);
        let parallel = engine.run_batch_parallel(&queries, Parallelism::Fixed(2));
        let mut fresh = Engine::new(engine.graph_arc(), BatchEngine::default());
        assert_eq!(parallel.paths, fresh.run(&queries).paths);
    }

    #[test]
    fn rebuild_dedups_carried_roots() {
        let g = grid(4, 4);
        let mut engine = Engine::new(g, BatchEngine::default());
        // Build, then grow the bound with a batch over the *same* endpoints: the carried
        // roots duplicate the batch summary's exactly.
        engine.run(&[PathQuery::new(0u32, 15u32, 5)]);
        engine.run(&[
            PathQuery::new(0u32, 15u32, 7),
            PathQuery::new(0u32, 15u32, 6),
        ]);
        assert_eq!(engine.index_reuse().rebuilds, 2);
        assert!(engine.index_heap_bytes() > 0);
        // The debug assertion inside `ensure_index` verifies no duplicate root reached
        // the build; the follow-up hit shows the merged coverage survived the dedup.
        let (counts, _) = engine.run_counting(&[PathQuery::new(0u32, 15u32, 7)]);
        assert_eq!(
            counts[0],
            enumerate_reference(engine.graph(), &PathQuery::new(0u32, 15u32, 7)).len() as u64
        );
        assert_eq!(engine.index_reuse().hits, 1);
    }

    #[test]
    fn root_cap_bounds_the_cached_index() {
        let g = grid(4, 4);
        let mut engine = Engine::new(g.clone(), BatchEngine::default());
        engine.set_index_root_cap(Some(4));
        assert_eq!(engine.index_root_cap(), Some(4));

        // Distinct endpoints per batch: the cache would grow without the cap.
        for q in (0..6).map(|i| PathQuery::new(i, 15u32 - i, 5)) {
            let (counts, _) = engine.run_counting(&[q]);
            assert_eq!(counts[0], enumerate_reference(&g, &q).len() as u64, "{q}");
        }
        assert!(
            engine.index_reuse().resets > 0,
            "the cap must have triggered"
        );
        // Correctness is unaffected; the cache never holds more than cap + one batch.
        let (counts, _) = engine.run_counting(&[PathQuery::new(0u32, 15u32, 6)]);
        assert_eq!(
            counts[0],
            enumerate_reference(&g, &PathQuery::new(0u32, 15u32, 6)).len() as u64
        );
    }

    #[test]
    fn run_batch_parallel_is_lossless_for_every_algorithm() {
        let g = grid(4, 4);
        let queries = vec![
            PathQuery::new(0u32, 15u32, 6),
            PathQuery::new(1u32, 15u32, 6),
            PathQuery::new(0u32, 14u32, 5),
            PathQuery::new(4u32, 11u32, 5),
        ];
        for algorithm in Algorithm::ALL {
            let mut sequential = Engine::with_algorithm(g.clone(), algorithm);
            let expected = sequential.run(&queries);
            for workers in [1, 2, 4] {
                let mut engine = Engine::with_algorithm(g.clone(), algorithm);
                let outcome = engine.run_batch_parallel(&queries, Parallelism::Fixed(workers));
                // Same paths per query, same order: byte-identical to sequential.
                assert_eq!(
                    outcome.paths, expected.paths,
                    "{algorithm} with {workers} workers"
                );
            }
        }
    }

    #[test]
    fn run_batch_parallel_reuses_the_cached_index() {
        let g = grid(4, 4);
        let mut engine = Engine::new(g, BatchEngine::default());
        engine.run_batch_parallel(&[PathQuery::new(0u32, 15u32, 6)], Parallelism::Fixed(2));
        assert_eq!(engine.index_reuse().rebuilds, 1);
        // Same shape again: pure hit, parallel or not.
        engine.run_batch_parallel(&[PathQuery::new(0u32, 15u32, 5)], Parallelism::Fixed(2));
        assert_eq!(engine.index_reuse().hits, 1);
        let outcome = engine.run_batch_parallel(&[], Parallelism::Fixed(2));
        assert_eq!(outcome.total(), 0);
    }

    #[test]
    fn engine_pathenum_bypasses_the_cache() {
        let g = complete(5);
        let mut engine = Engine::with_algorithm(g.clone(), Algorithm::PathEnum);
        let (counts, _) = engine.run_counting(&[PathQuery::new(0u32, 4u32, 3)]);
        assert_eq!(
            counts[0],
            enumerate_reference(&g, &PathQuery::new(0u32, 4u32, 3)).len() as u64
        );
        assert_eq!(engine.index_reuse(), IndexReuse::default());
    }

    #[test]
    fn engine_empty_batch_is_a_noop() {
        let g = complete(3);
        let mut engine = Engine::new(g, BatchEngine::default());
        let outcome = engine.run(&[]);
        assert_eq!(outcome.total(), 0);
        assert_eq!(engine.index_reuse(), IndexReuse::default());
        assert_eq!(engine.config().algorithm(), Algorithm::BatchEnumPlus);
        assert_eq!(engine.algorithm(), Algorithm::BatchEnumPlus);
        assert_eq!(engine.graph().num_vertices(), 3);
        assert_eq!(engine.graph_arc().num_vertices(), 3);
    }

    #[test]
    fn run_specs_modes_agree_with_full_enumeration() {
        let g = grid(4, 4);
        let queries = vec![
            PathQuery::new(0u32, 15u32, 6),
            PathQuery::new(1u32, 15u32, 6),
            PathQuery::new(0u32, 11u32, 5),
            PathQuery::new(15u32, 0u32, 4), // unreachable: grid edges only go right/down
        ];
        let reference: Vec<u64> = queries
            .iter()
            .map(|q| enumerate_reference(&g, q).len() as u64)
            .collect();
        for algorithm in Algorithm::ALL {
            let mut engine = Engine::with_algorithm(g.clone(), algorithm);
            let full = engine.run(&queries);

            let exists = engine.run_specs(
                &queries
                    .iter()
                    .map(|&q| QuerySpec::exists(q))
                    .collect::<Vec<_>>(),
            );
            let counts = engine.run_specs(
                &queries
                    .iter()
                    .map(|&q| QuerySpec::count(q))
                    .collect::<Vec<_>>(),
            );
            let first2 = engine.run_specs(
                &queries
                    .iter()
                    .map(|&q| QuerySpec::first_k(q, 2))
                    .collect::<Vec<_>>(),
            );
            let collect = engine.run_specs(
                &queries
                    .iter()
                    .map(|&q| QuerySpec::collect(q))
                    .collect::<Vec<_>>(),
            );

            for (i, &expected) in reference.iter().enumerate() {
                assert_eq!(
                    exists.responses[i],
                    crate::QueryResponse::Exists(expected > 0),
                    "{algorithm} exists q{i}"
                );
                assert_eq!(
                    counts.responses[i],
                    crate::QueryResponse::Count(expected),
                    "{algorithm} count q{i}"
                );
                // FirstK is a prefix of Collect, which equals the plain run.
                let collected = collect.responses[i].paths().unwrap();
                assert_eq!(collected, &full.paths[i], "{algorithm} collect q{i}");
                let first = first2.responses[i].paths().unwrap();
                assert_eq!(
                    first.len() as u64,
                    expected.min(2),
                    "{algorithm} firstk q{i}"
                );
                for (j, p) in first.iter().enumerate() {
                    assert_eq!(p, collected.get(j), "{algorithm} firstk prefix q{i}");
                }
            }
        }
    }

    #[test]
    fn exists_probes_skip_enumeration_on_shared_index_algorithms() {
        let g = grid(4, 4);
        let specs: Vec<QuerySpec> = (0..4)
            .map(|i| QuerySpec::exists(PathQuery::new(i, 15u32, 6)))
            .collect();
        for algorithm in [Algorithm::BasicEnumPlus, Algorithm::BatchEnumPlus] {
            let mut engine = Engine::with_algorithm(g.clone(), algorithm);
            let outcome = engine.run_specs(&specs);
            assert!(outcome.responses.iter().all(|r| r.exists()), "{algorithm}");
            assert_eq!(
                outcome.stats.counters.expanded_vertices, 0,
                "{algorithm}: exists probes must be answered from the index"
            );
            assert_eq!(outcome.stats.counters.produced_paths, 0);
        }
    }

    #[test]
    fn spec_batches_reuse_the_cached_index() {
        let g = grid(4, 4);
        let mut engine = Engine::new(g, BatchEngine::default());
        engine.run_specs(&[QuerySpec::collect(PathQuery::new(0u32, 15u32, 6))]);
        assert_eq!(engine.index_reuse().rebuilds, 1);
        // A later exists probe over the same shape is a pure index hit — and free.
        let outcome = engine.run_specs(&[QuerySpec::exists(PathQuery::new(0u32, 15u32, 6))]);
        assert_eq!(engine.index_reuse().hits, 1);
        assert!(outcome.responses[0].exists());
        assert_eq!(outcome.stats.counters.expanded_vertices, 0);
        // Empty spec batches are no-ops.
        assert!(engine.run_specs(&[]).responses.is_empty());
    }

    #[test]
    fn path_budgets_cap_every_mode() {
        let g = complete(6);
        let q = PathQuery::new(0u32, 5u32, 4);
        let total = enumerate_reference(&g, &q).len() as u64;
        assert!(total > 4);
        let mut engine = Engine::new(g, BatchEngine::default());
        let outcome = engine.run_specs(&[
            QuerySpec::count(q).with_path_budget(3),
            QuerySpec::collect(q).with_path_budget(2),
            QuerySpec::first_k(q, 10).with_path_budget(1),
            QuerySpec::count(q),
        ]);
        assert_eq!(outcome.responses[0], crate::QueryResponse::Count(3));
        assert_eq!(outcome.responses[1].count(), Some(2));
        assert_eq!(outcome.responses[2].count(), Some(1));
        assert_eq!(outcome.responses[3], crate::QueryResponse::Count(total));
    }

    /// One engine per algorithm through a scripted call sequence — plain run, covered
    /// spec batch (a hit), empty spec batch, parallel run on new endpoints (an
    /// extension), spec batch at a larger k (a rebuild) — with the exact index-reuse
    /// accounting and the batch's query, cluster and search counts after every call.
    #[test]
    fn scripted_engine_calls_report_exact_reuse_and_counters() {
        type Step = (IndexReuse, usize, usize, [u64; 6]);
        fn step(engine: &Engine, stats: &EnumStats) -> Step {
            let c = stats.counters;
            (
                engine.index_reuse(),
                stats.num_queries,
                stats.num_clusters,
                [
                    c.expanded_vertices,
                    c.scanned_edges,
                    c.pruned_edges,
                    c.stored_prefixes,
                    c.cache_splices,
                    c.produced_paths,
                ],
            )
        }
        fn reuse(
            rebuilds: usize,
            extensions: usize,
            hits: usize,
            roots_added: usize,
        ) -> IndexReuse {
            IndexReuse {
                rebuilds,
                extensions,
                hits,
                roots_added,
                ..Default::default()
            }
        }
        let g = grid(4, 4);
        let plain = [
            PathQuery::new(0u32, 15u32, 6),
            PathQuery::new(1u32, 15u32, 6),
        ];
        let covered = [
            QuerySpec::exists(PathQuery::new(0u32, 15u32, 6)),
            QuerySpec::count(PathQuery::new(1u32, 15u32, 5)),
            QuerySpec::first_k(PathQuery::new(0u32, 15u32, 5), 2),
        ];
        let extension = [
            PathQuery::new(4u32, 11u32, 5),
            PathQuery::new(0u32, 14u32, 6),
        ];
        let larger_k = [
            QuerySpec::count(PathQuery::new(0u32, 15u32, 8)),
            QuerySpec::first_k(PathQuery::new(4u32, 11u32, 7), 3),
            QuerySpec::exists(PathQuery::new(15u32, 0u32, 8)),
        ];
        // The spec batches report every spec in `num_queries`, while `num_clusters` counts
        // only the queries left to enumerate after the index answered the `Exists` probes.
        let golden: [(Algorithm, [Step; 5]); 3] = [
            (
                Algorithm::PathEnum,
                [
                    (reuse(0, 0, 0, 0), 2, 2, [58, 55, 1, 58, 0, 30]),
                    (reuse(0, 0, 0, 0), 3, 3, [42, 43, 4, 37, 0, 11]),
                    (reuse(0, 0, 0, 0), 0, 0, [0; 6]),
                    (reuse(0, 0, 0, 0), 2, 2, [44, 45, 5, 44, 0, 14]),
                    (reuse(0, 0, 0, 0), 3, 3, [78, 77, 4, 69, 0, 23]),
                ],
            ),
            (
                Algorithm::BasicEnumPlus,
                [
                    (reuse(1, 0, 0, 0), 2, 2, [58, 55, 1, 58, 0, 30]),
                    (reuse(1, 0, 1, 0), 3, 2, [23, 23, 4, 22, 0, 10]),
                    (reuse(1, 0, 1, 0), 0, 0, [0; 6]),
                    (reuse(1, 1, 1, 3), 2, 2, [44, 45, 5, 44, 0, 14]),
                    (reuse(2, 1, 1, 3), 3, 2, [76, 77, 4, 68, 0, 23]),
                ],
            ),
            (
                Algorithm::BatchEnumPlus,
                [
                    (reuse(1, 0, 0, 0), 2, 1, [37, 35, 0, 44, 1, 30]),
                    (reuse(1, 0, 1, 0), 3, 1, [22, 21, 2, 22, 0, 10]),
                    (reuse(1, 0, 1, 0), 0, 0, [0; 6]),
                    (reuse(1, 1, 1, 3), 2, 1, [41, 40, 2, 48, 1, 14]),
                    (reuse(2, 1, 1, 3), 3, 1, [52, 56, 0, 112, 14, 23]),
                ],
            ),
        ];
        for (algorithm, expected) in golden {
            let mut engine = Engine::with_algorithm(g.clone(), algorithm);
            let mut got: Vec<Step> = Vec::new();
            let stats = engine.run_with_sink(&plain, &mut CountSink::new(plain.len()));
            got.push(step(&engine, &stats));
            let stats = engine.run_specs(&covered).stats;
            got.push(step(&engine, &stats));
            let stats = engine.run_specs(&[]).stats;
            got.push(step(&engine, &stats));
            let stats = engine.run_parallel_with_sink(
                &extension,
                Parallelism::Fixed(2),
                &mut CountSink::new(extension.len()),
            );
            got.push(step(&engine, &stats));
            let stats = engine.run_specs(&larger_k).stats;
            got.push(step(&engine, &stats));
            assert_eq!(got, expected, "{algorithm}");
        }
    }

    #[test]
    fn algorithm_metadata() {
        assert_eq!(Algorithm::BatchEnumPlus.to_string(), "BatchEnum+");
        assert_eq!(Algorithm::PathEnum.search_order(), SearchOrder::VertexId);
        assert_eq!(
            Algorithm::BasicEnumPlus.search_order(),
            SearchOrder::DistanceThenDegree
        );
        assert!(Algorithm::BatchEnum.shares_computation());
        assert!(!Algorithm::BasicEnum.shares_computation());
        assert_eq!(Algorithm::ALL.len(), 5);
    }
}
