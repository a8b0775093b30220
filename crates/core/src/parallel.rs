//! Cluster-sharded parallel batch execution.
//!
//! The paper's Challenges section notes that a batch could simply be processed "using the
//! state-of-the-art HC-s-t path enumeration algorithm sequentially or deploy more servers
//! to process these queries in parallel", and argues that doing so misses the common
//! computation across queries. This module combines the two ideas instead of opposing
//! them: **sharing within a cluster, parallelism across clusters**. Similarity clusters
//! (the output of [`crate::clustering`]) are the natural parallel unit — queries in
//! different clusters share nothing, so clusters parallelise embarrassingly while every
//! cluster still runs the full shared pipeline (detection + topological enumeration).
//!
//! ## Execution model
//!
//! 1. The batch is indexed and clustered exactly as in the sequential algorithm.
//! 2. Clusters are packed into **shards** (longest-processing-time-first over the cluster
//!    sizes), the steal unit of the scheduler. More shards than workers keeps stealing
//!    granular; packing the big clusters first keeps the shards balanced.
//! 3. A [`std::thread::scope`] worker pool drains a **work-stealing deque** of shards:
//!    each worker owns a deque seeded round-robin, pops its own front, and steals from
//!    the back of other workers' deques when it runs dry.
//! 4. Every worker owns one reusable [`SearchBuffers`] (the allocation-free hot path) and
//!    buffers each cluster's results locally; after the pool joins, per-cluster results
//!    are **merged in cluster order**, so the paths delivered per query — and their order
//!    — are byte-identical to the sequential run, regardless of worker count or
//!    scheduling. Counter merges are likewise ordered, making the reported `Stats`
//!    deterministic. Stage timings: `BuildIndex`, `ClusterQuery` and `Enumeration` are
//!    wall-clock spans of the calling thread (`Enumeration` covers the whole parallel
//!    region, so speedup shows up there), while `IdentifySubquery` is the CPU-side total
//!    summed over clusters, mirroring how the sequential run accumulates it.
//!
//! The per-cluster results are buffered in memory before the merge; for count-only
//! workloads over astronomically large result sets prefer the sequential runner or
//! smaller micro-batches.

use crate::batch_enum::BatchEnum;
use crate::buffers::SearchBuffers;
use crate::clustering::cluster_queries;
use crate::pathenum::PathEnum;
use crate::query::{BatchSummary, PathQuery, QueryId};
use crate::search_order::SearchOrder;
use crate::similarity::{QueryNeighborhood, SimilarityMatrix};
use crate::sink::{CollectSink, PathSink, SinkFlow};
use crate::spec::{QueryResponse, QuerySpec, SpecSink};
use crate::stats::{EnumStats, Stage};
use hcsp_graph::DiGraph;
use hcsp_index::BatchIndex;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::time::Instant;

/// How many shards each worker's deque is seeded with (steal granularity).
const SHARDS_PER_WORKER: usize = 4;

/// How many worker threads a parallel runner uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Use the number of available CPU cores (as reported by the standard library).
    #[default]
    Auto,
    /// Use exactly this many workers (values of 0 are treated as 1).
    Fixed(usize),
}

impl Parallelism {
    /// Resolves to a concrete worker count.
    pub fn workers(self) -> usize {
        match self {
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            Parallelism::Fixed(n) => n.max(1),
        }
    }
}

/// How the parallel runners split oversized similarity clusters — the intra-cluster
/// work-splitting knob.
///
/// A similarity cluster is both the sharing unit and the parallel unit: queries in one
/// cluster share computation, clusters parallelise embarrassingly. Dense graphs (or a
/// low γ) can collapse a whole batch into a **single giant cluster** — maximal sharing,
/// zero parallel slack: the batch runs on one worker while the rest idle. Splitting such
/// a cluster into consecutive sub-clusters restores slack at the cost of the sharing
/// across the split; results stay lossless per query, but the per-query path *order*
/// matches a sequential run over the same split clusters, not the unsplit run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitPolicy {
    /// Never split. Preserves the byte-identical-to-sequential guarantee (the default).
    #[default]
    Never,
    /// Split every cluster larger than this many queries into consecutive sub-clusters
    /// of at most that size (a value of 0 behaves like [`SplitPolicy::Never`]).
    Cap(usize),
    /// Split only when the batch would otherwise under-occupy the pool: if the cluster
    /// count already reaches the worker count nothing is split, otherwise clusters are
    /// capped at `max(1, ⌈|Q| / (2 · workers)⌉)` — roughly two sub-clusters per worker,
    /// enough slack for stealing without shredding the sharing into singletons.
    Auto,
}

impl SplitPolicy {
    /// The compat mapping of the old `max_cluster_size: Option<usize>` knob:
    /// `Some(c > 0)` caps at `c`, `Some(0)` and `None` never split.
    pub fn from_cap(cap: Option<usize>) -> Self {
        match cap.filter(|&c| c > 0) {
            Some(c) => SplitPolicy::Cap(c),
            None => SplitPolicy::Never,
        }
    }

    /// The explicit cap, when the policy is a fixed one (`Cap(0)` reads as `None`).
    pub fn cap(self) -> Option<usize> {
        match self {
            SplitPolicy::Cap(c) if c > 0 => Some(c),
            _ => None,
        }
    }

    /// Applies the policy to freshly formed clusters, given the resolved worker count
    /// and the batch size.
    fn apply(
        self,
        clusters: Vec<Vec<QueryId>>,
        workers: usize,
        num_queries: usize,
    ) -> Vec<Vec<QueryId>> {
        match self {
            SplitPolicy::Never | SplitPolicy::Cap(0) => clusters,
            SplitPolicy::Cap(cap) => split_clusters(clusters, cap),
            SplitPolicy::Auto => {
                if clusters.len() >= workers.max(1) {
                    return clusters;
                }
                let cap = num_queries.div_ceil(workers.max(1) * 2).max(1);
                split_clusters(clusters, cap)
            }
        }
    }
}

/// Packs cluster indices into at most `num_shards` shards, balancing total cluster size.
///
/// Classic LPT (longest processing time first) greedy: clusters are considered largest
/// first and each goes to the currently lightest shard. Cluster size is the cost proxy —
/// enumeration cost grows with cluster size, and a deterministic proxy keeps the plan (and
/// therefore the merge order downstream) reproducible. Every returned shard is non-empty
/// and internally sorted, and the concatenation of all shards covers every cluster once.
pub fn plan_shards(cluster_sizes: &[usize], num_shards: usize) -> Vec<Vec<usize>> {
    let num_shards = num_shards.clamp(1, cluster_sizes.len().max(1));
    let mut order: Vec<usize> = (0..cluster_sizes.len()).collect();
    // Stable tie-break on the index keeps the plan deterministic.
    // lint:allow(panic-free-hot-path) c ranges over 0..cluster_sizes.len()
    order.sort_by_key(|&c| (std::cmp::Reverse(cluster_sizes[c]), c));

    let mut shards: Vec<Vec<usize>> = vec![Vec::new(); num_shards];
    let mut loads: Vec<usize> = vec![0; num_shards];
    for c in order {
        let lightest = (0..num_shards)
            // lint:allow(panic-free-hot-path) s ranges over 0..num_shards = loads.len()
            .min_by_key(|&s| (loads[s], s))
            // lint:allow(panic-free-hot-path) num_shards is clamped to >= 1 above
            .expect("at least one shard");
        // lint:allow(panic-free-hot-path) lightest came from the 0..num_shards scan just above
        shards[lightest].push(c);
        // lint:allow(panic-free-hot-path) same bounds as the two lines above
        loads[lightest] += cluster_sizes[c].max(1);
    }
    shards.retain(|s| !s.is_empty());
    for shard in &mut shards {
        shard.sort_unstable();
    }
    shards
}

/// Splits every cluster larger than `cap` into consecutive sub-clusters of at most `cap`
/// queries, preserving within-cluster query order (so the split is deterministic).
fn split_clusters(clusters: Vec<Vec<QueryId>>, cap: usize) -> Vec<Vec<QueryId>> {
    let cap = cap.max(1);
    clusters
        .into_iter()
        .flat_map(|cluster| {
            cluster
                .chunks(cap)
                .map(<[QueryId]>::to_vec)
                .collect::<Vec<_>>()
        })
        .collect()
}

/// The similarity-clustering front of every sharing-mode parallel run: neighbourhoods
/// from the index, pairwise similarity, γ-threshold clustering, then the configured
/// [`SplitPolicy`]. One helper on purpose — plain-batch and spec-mode parallel
/// execution must cluster identically, or their "same clusters as sequential"
/// equivalences silently diverge.
fn cluster_with_policy(
    index: &BatchIndex,
    queries: &[PathQuery],
    gamma: f64,
    split: SplitPolicy,
    workers: usize,
) -> Vec<Vec<QueryId>> {
    let neighborhoods: Vec<QueryNeighborhood> = queries
        .iter()
        .map(|q| QueryNeighborhood::from_index(index, q))
        .collect();
    let matrix = SimilarityMatrix::compute(&neighborhoods);
    let clusters = cluster_queries(&matrix, gamma);
    split.apply(clusters, workers, queries.len())
}

/// The work-stealing deque set: one deque of shard ids per worker.
struct ShardDeques {
    queues: Vec<Mutex<VecDeque<usize>>>,
}

impl ShardDeques {
    /// Seeds `workers` deques round-robin with shard ids `0..num_shards`.
    fn seed(num_shards: usize, workers: usize) -> Self {
        let mut queues: Vec<VecDeque<usize>> = (0..workers).map(|_| VecDeque::new()).collect();
        for shard in 0..num_shards {
            // lint:allow(panic-free-hot-path) shard % workers < workers = queues.len()
            queues[shard % workers].push_back(shard);
        }
        ShardDeques {
            queues: queues.into_iter().map(Mutex::new).collect(),
        }
    }

    /// Pops the next shard for `worker`: its own deque's front first, then a steal from
    /// the back of the other deques (scanned round-robin starting after `worker`).
    fn next(&self, worker: usize) -> Option<usize> {
        // lint:allow(panic-free-hot-path) worker < workers = queues.len() by construction
        if let Some(shard) = self.queues[worker].lock().pop_front() {
            return Some(shard);
        }
        let n = self.queues.len();
        for offset in 1..n {
            let victim = (worker + offset) % n;
            // lint:allow(panic-free-hot-path) victim is reduced mod n = queues.len()
            if let Some(shard) = self.queues[victim].lock().pop_back() {
                return Some(shard);
            }
        }
        None
    }
}

/// One cluster's buffered outcome: its index in the batch's cluster list, the locally
/// collected per-query paths (offsets follow the cluster's query order), and the stats of
/// evaluating it.
type ClusterResult = (usize, CollectSink, EnumStats);

/// Runs `exec` once per cluster across a work-stealing worker pool and returns the
/// per-cluster results **sorted by cluster index** — the deterministic merge order —
/// together with the number of shards the scheduler planned (the *effective* parallel
/// slack: 1 means the whole batch was one steal unit, however many workers were asked
/// for).
///
/// `make_sink` builds the cluster's local sink (query ids are cluster offsets, not batch
/// ids); `exec` receives the cluster index, that sink, and the worker's reusable
/// [`SearchBuffers`], and must behave identically to the sequential evaluation of the
/// cluster. Generic over the sink type so the collect-everything runs and the
/// early-terminating [`SpecSink`] runs share one scheduler.
fn execute_sharded_with<L, M, F>(
    clusters: &[Vec<QueryId>],
    workers: usize,
    make_sink: M,
    exec: F,
) -> (Vec<(usize, L, EnumStats)>, usize)
where
    L: Send,
    M: Fn(usize) -> L + Sync,
    F: Fn(usize, &mut L, &mut SearchBuffers) -> EnumStats + Sync,
{
    let workers = workers.clamp(1, clusters.len().max(1));
    let shards = plan_shards(
        &clusters.iter().map(Vec::len).collect::<Vec<_>>(),
        workers * SHARDS_PER_WORKER,
    );
    let deques = ShardDeques::seed(shards.len(), workers);
    let collected: Mutex<Vec<(usize, L, EnumStats)>> =
        Mutex::new(Vec::with_capacity(clusters.len()));

    std::thread::scope(|scope| {
        for worker in 0..workers {
            let shards = &shards;
            let deques = &deques;
            let collected = &collected;
            let make_sink = &make_sink;
            let exec = &exec;
            scope.spawn(move || {
                let mut buffers = SearchBuffers::new();
                let mut local: Vec<(usize, L, EnumStats)> = Vec::new();
                while let Some(shard) = deques.next(worker) {
                    // lint:allow(panic-free-hot-path) deques are seeded with 0..shards.len() only
                    for &cluster_idx in &shards[shard] {
                        let mut sink = make_sink(cluster_idx);
                        let stats = exec(cluster_idx, &mut sink, &mut buffers);
                        local.push((cluster_idx, sink, stats));
                    }
                }
                collected.lock().append(&mut local);
            });
        }
    });

    let num_shards = shards.len();
    let mut results = collected.into_inner();
    results.sort_by_key(|&(cluster_idx, _, _)| cluster_idx);
    (results, num_shards)
}

/// [`execute_sharded_with`] specialised to local [`CollectSink`]s (the classic
/// collect-everything runs).
fn execute_sharded<F>(
    clusters: &[Vec<QueryId>],
    workers: usize,
    exec: F,
) -> (Vec<ClusterResult>, usize)
where
    F: Fn(usize, &mut CollectSink, &mut SearchBuffers) -> EnumStats + Sync,
{
    execute_sharded_with(
        clusters,
        workers,
        // lint:allow(panic-free-hot-path) cluster_idx enumerates the same clusters slice
        |cluster_idx| CollectSink::new(clusters[cluster_idx].len()),
        exec,
    )
}

/// Merges sorted per-cluster results into the caller's sink and stats, in cluster order.
///
/// Counters and the `IdentifySubquery` stage (a CPU-side total, exactly as the sequential
/// algorithm accumulates it across clusters) merge here; the `Enumeration` stage is *not*
/// summed from the per-cluster stats — with concurrent workers that would report total
/// CPU time, up to `workers ×` the elapsed time. The callers record the wall-clock of
/// their whole parallel region as `Enumeration` instead.
///
/// Sink verdicts are honoured at delivery time: a `SkipQuery` drops the query's
/// remaining buffered paths, a `Stop` ends delivery outright (the enumeration work has
/// already happened inside the workers — these paths run through the quota-blind
/// collect-everything pipeline — but the sink is never called past its verdict, exactly
/// as the [`PathSink::accept`] contract promises). Stats still cover every evaluated
/// cluster. Sinks that want the parallel *work saving* too go through the spec pipeline
/// ([`crate::Engine::run_specs_parallel`]), where workers carry the quotas themselves.
fn merge_results<S: PathSink>(
    clusters: &[Vec<QueryId>],
    results: Vec<ClusterResult>,
    stats: &mut EnumStats,
    sink: &mut S,
) {
    let mut stopped = false;
    for (cluster_idx, local, cluster_stats) in results {
        stats.counters.merge(&cluster_stats.counters);
        stats.num_shared_subqueries += cluster_stats.num_shared_subqueries;
        stats.peak_cached_results = stats
            .peak_cached_results
            .max(cluster_stats.peak_cached_results);
        stats.add_stage(
            Stage::IdentifySubquery,
            cluster_stats.stage_time(Stage::IdentifySubquery),
        );
        if stopped {
            continue;
        }
        // lint:allow(panic-free-hot-path) cluster_idx came out of execute_sharded over these clusters
        'cluster: for (offset, &qid) in clusters[cluster_idx].iter().enumerate() {
            for path in local.paths(offset).iter() {
                match sink.accept(qid, path) {
                    SinkFlow::Continue => {}
                    SinkFlow::SkipQuery => break,
                    SinkFlow::Stop => {
                        stopped = true;
                        break 'cluster;
                    }
                }
            }
        }
    }
}

/// Merges sorted per-cluster spec results into the caller's stats and response slots, in
/// cluster order (the spec-mode sibling of [`merge_results`]: responses are typed values,
/// not replayed paths — a worker-local `Count` cannot be reconstructed from paths).
fn merge_spec_results(
    clusters: &[Vec<QueryId>],
    results: Vec<(usize, SpecSink, EnumStats)>,
    stats: &mut EnumStats,
    responses: &mut [Option<QueryResponse>],
) {
    for (cluster_idx, local, cluster_stats) in results {
        stats.counters.merge(&cluster_stats.counters);
        stats.num_shared_subqueries += cluster_stats.num_shared_subqueries;
        stats.peak_cached_results = stats
            .peak_cached_results
            .max(cluster_stats.peak_cached_results);
        stats.add_stage(
            Stage::IdentifySubquery,
            cluster_stats.stage_time(Stage::IdentifySubquery),
        );
        // lint:allow(panic-free-hot-path) cluster_idx came out of execute_sharded_with over these clusters
        for (&qid, response) in clusters[cluster_idx].iter().zip(local.into_responses()) {
            // lint:allow(panic-free-hot-path) qid < specs.len() = responses.len(): clusters partition the batch
            responses[qid] = Some(response);
        }
    }
}

/// Parallel spec execution for the `PathEnum` baseline: every spec is its own cluster
/// (per-query index, per-query enumeration), workers run the quota-aware per-query
/// pipeline against a worker-local [`SpecSink`], so `Exists`/`FirstK` specs terminate
/// their DFS early exactly as they would sequentially. Responses are merged in query
/// order — identical to the sequential run.
pub(crate) fn run_specs_parallel_pathenum(
    graph: &DiGraph,
    specs: &[QuerySpec],
    order: SearchOrder,
    parallelism: Parallelism,
) -> (Vec<QueryResponse>, EnumStats) {
    let mut stats = EnumStats::new(specs.len());
    stats.num_clusters = specs.len();
    let mut responses: Vec<Option<QueryResponse>> = vec![None; specs.len()];
    if specs.is_empty() {
        return (Vec::new(), stats);
    }
    let start = Instant::now();
    let clusters: Vec<Vec<QueryId>> = (0..specs.len()).map(|q| vec![q]).collect();
    let per_query = PathEnum::new(order);
    let (results, num_shards) = execute_sharded_with(
        &clusters,
        parallelism.workers(),
        // lint:allow(panic-free-hot-path) ci < specs.len(): one cluster per spec
        |ci| SpecSink::new(&specs[ci..=ci]),
        |ci, local, buf| {
            let mut cluster_stats = EnumStats::new(1);
            per_query.run_single_buffered(
                graph,
                // lint:allow(panic-free-hot-path) ci < specs.len(): one cluster per spec
                &specs[ci].query,
                0,
                local,
                &mut cluster_stats,
                buf,
            );
            cluster_stats
        },
    );
    merge_spec_results(&clusters, results, &mut stats, &mut responses);
    stats.num_shards = num_shards;
    stats.add_stage(Stage::Enumeration, start.elapsed());
    let responses = responses
        .into_iter()
        // lint:allow(panic-free-hot-path) merge_spec_results filled every slot: clusters partition the batch
        .map(|r| r.expect("every spec is covered by exactly one cluster"))
        .collect();
    (responses, stats)
}

/// Parallel spec execution against a shared (possibly superset) index.
///
/// `shared = false` runs the `BasicEnum` shape (one query per cluster, no sharing);
/// `shared = true` clusters by neighbourhood similarity exactly like the sequential
/// `BatchEnum` (γ, then the configured [`SplitPolicy`]) and evaluates each
/// cluster's full shared pipeline on the worker pool. Each worker drives a local
/// [`SpecSink`] over its cluster's specs, so a query's early termination — join
/// short-circuits, dropped cluster work — happens inside the worker, and the responses
/// are byte-identical to a sequential [`crate::spec::SpecSink`] run over the same
/// clusters (each query lives in exactly one cluster, evaluated in sequential order).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_specs_parallel_with_index(
    graph: &DiGraph,
    index: &BatchIndex,
    specs: &[QuerySpec],
    order: SearchOrder,
    gamma: f64,
    shared: bool,
    split: SplitPolicy,
    parallelism: Parallelism,
) -> (Vec<QueryResponse>, EnumStats) {
    let mut stats = EnumStats::new(specs.len());
    let mut responses: Vec<Option<QueryResponse>> = vec![None; specs.len()];
    if specs.is_empty() {
        return (Vec::new(), stats);
    }

    let start = Instant::now();
    let queries: Vec<PathQuery> = specs.iter().map(|s| s.query).collect();
    let clusters: Vec<Vec<QueryId>> = if shared {
        cluster_with_policy(index, &queries, gamma, split, parallelism.workers())
    } else {
        (0..specs.len()).map(|q| vec![q]).collect()
    };
    stats.num_clusters = clusters.len();
    stats.add_stage(Stage::ClusterQuery, start.elapsed());

    let start = Instant::now();
    let per_query = PathEnum::new(order);
    let sequential = BatchEnum::new(order, 1.0);
    let (results, num_shards) = execute_sharded_with(
        &clusters,
        parallelism.workers(),
        |ci| {
            let cluster_specs: Vec<QuerySpec> =
                // lint:allow(panic-free-hot-path) ci and qid come from the clustering over these specs
                clusters[ci].iter().map(|&qid| specs[qid]).collect();
            SpecSink::new(&cluster_specs)
        },
        |ci, local, buf| {
            if shared {
                let cluster_queries_list: Vec<PathQuery> =
                    // lint:allow(panic-free-hot-path) ci and qid come from the clustering over these queries
                    clusters[ci].iter().map(|&qid| queries[qid]).collect();
                sequential.run_cluster_for_parallel(graph, index, &cluster_queries_list, local, buf)
            } else {
                let mut cluster_stats = EnumStats::new(1);
                per_query.run_with_index_buffered(
                    graph,
                    index,
                    // lint:allow(panic-free-hot-path) unshared clusters are singletons: [ci][0] exists
                    &queries[clusters[ci][0]],
                    0,
                    local,
                    &mut cluster_stats,
                    buf,
                );
                cluster_stats
            }
        },
    );
    merge_spec_results(&clusters, results, &mut stats, &mut responses);
    stats.num_shards = num_shards;
    stats.add_stage(Stage::Enumeration, start.elapsed());
    let responses = responses
        .into_iter()
        // lint:allow(panic-free-hot-path) merge_spec_results filled every slot: clusters partition the batch
        .map(|r| r.expect("every spec is covered by exactly one cluster"))
        .collect();
    (responses, stats)
}

/// The "more servers" baseline: every query is enumerated independently (PathEnum against
/// a shared index, exactly like `BasicEnum`), but queries are spread over worker threads.
///
/// No computation is shared beyond the index, so the total CPU *work* equals `BasicEnum`'s;
/// only the wall-clock time shrinks, and only as long as the per-query costs are balanced.
#[derive(Debug, Clone, Copy)]
pub struct ParallelBasicEnum {
    /// Neighbour expansion order for the per-query searches.
    pub order: SearchOrder,
    /// Worker thread count.
    pub parallelism: Parallelism,
}

impl Default for ParallelBasicEnum {
    fn default() -> Self {
        ParallelBasicEnum {
            order: SearchOrder::default(),
            parallelism: Parallelism::Auto,
        }
    }
}

impl ParallelBasicEnum {
    /// Creates the runner with an explicit search order and worker count.
    pub fn new(order: SearchOrder, parallelism: Parallelism) -> Self {
        ParallelBasicEnum { order, parallelism }
    }

    /// Processes the batch, streaming results (in query order) into `sink`.
    pub fn run_batch<S: PathSink>(
        &self,
        graph: &DiGraph,
        queries: &[PathQuery],
        sink: &mut S,
    ) -> EnumStats {
        if queries.is_empty() {
            sink.finish();
            return EnumStats::new(0);
        }
        let start = Instant::now();
        let summary = BatchSummary::of(queries);
        let index = BatchIndex::build(
            graph,
            &summary.sources,
            &summary.targets,
            summary.max_hop_limit,
        );
        let build_time = start.elapsed();
        let mut stats = self.run_batch_with_index(graph, &index, queries, sink);
        stats.add_stage(Stage::BuildIndex, build_time);
        stats
    }

    /// Processes a batch against an already-built (possibly superset) index — the entry
    /// point the long-lived [`Engine`](crate::Engine) uses with its cached index.
    pub fn run_batch_with_index<S: PathSink>(
        &self,
        graph: &DiGraph,
        index: &BatchIndex,
        queries: &[PathQuery],
        sink: &mut S,
    ) -> EnumStats {
        let mut stats = EnumStats::new(queries.len());
        stats.num_clusters = queries.len();
        if queries.is_empty() {
            sink.finish();
            return stats;
        }
        // Every query is its own "cluster": no sharing, maximal parallel slack.
        let start = Instant::now();
        let clusters: Vec<Vec<QueryId>> = (0..queries.len()).map(|q| vec![q]).collect();
        let per_query = PathEnum::new(self.order);
        let (results, num_shards) =
            execute_sharded(&clusters, self.parallelism.workers(), |ci, local, buf| {
                let mut cluster_stats = EnumStats::new(1);
                per_query.run_with_index_buffered(
                    graph,
                    index,
                    // lint:allow(panic-free-hot-path) ci < queries.len(): one cluster per query
                    &queries[ci],
                    0,
                    local,
                    &mut cluster_stats,
                    buf,
                );
                cluster_stats
            });
        merge_results(&clusters, results, &mut stats, sink);
        stats.num_shards = num_shards;
        stats.add_stage(Stage::Enumeration, start.elapsed());
        sink.finish();
        stats
    }
}

/// Parallel `PathEnum`: the fully independent baseline (per-query index, per-query
/// enumeration) spread over worker threads. This is what a serving engine runs when its
/// configured algorithm is `PathEnum` and parallelism is requested: the per-query index
/// builds are part of the measured work, exactly as in the sequential baseline.
pub(crate) fn run_pathenum_parallel<S: PathSink>(
    graph: &DiGraph,
    queries: &[PathQuery],
    order: SearchOrder,
    parallelism: Parallelism,
    sink: &mut S,
) -> EnumStats {
    let mut stats = EnumStats::new(queries.len());
    stats.num_clusters = queries.len();
    if queries.is_empty() {
        sink.finish();
        return stats;
    }
    let start = Instant::now();
    let clusters: Vec<Vec<QueryId>> = (0..queries.len()).map(|q| vec![q]).collect();
    let per_query = PathEnum::new(order);
    let (results, num_shards) =
        execute_sharded(&clusters, parallelism.workers(), |ci, local, buf| {
            let mut cluster_stats = EnumStats::new(1);
            // lint:allow(panic-free-hot-path) ci < queries.len(): one cluster per query
            per_query.run_single_buffered(graph, &queries[ci], 0, local, &mut cluster_stats, buf);
            cluster_stats
        });
    // The per-query index builds happen inside the workers, so they are part of the
    // parallel region's wall-clock below; they are not reported as a separate BuildIndex
    // stage to keep the stage times a wall-clock decomposition (no double counting).
    merge_results(&clusters, results, &mut stats, sink);
    stats.num_shards = num_shards;
    stats.add_stage(Stage::Enumeration, start.elapsed());
    sink.finish();
    stats
}

/// Parallel `BatchEnum`: clusters are detected exactly as in the sequential algorithm and
/// then evaluated concurrently on the cluster-sharded worker pool. Sharing happens
/// *inside* a cluster (where the common computation lives); across clusters there is
/// nothing to share, so they parallelise embarrassingly.
#[derive(Debug, Clone, Copy)]
pub struct ParallelBatchEnum {
    /// Neighbour expansion order.
    pub order: SearchOrder,
    /// Clustering threshold γ.
    pub gamma: f64,
    /// Worker thread count.
    pub parallelism: Parallelism,
    /// Intra-cluster work splitting (see [`SplitPolicy`]). Dense graphs can collapse a
    /// whole batch into a single cluster, which is maximal sharing but zero parallel
    /// slack (one cluster = one worker) and an unbounded shared-cache footprint.
    /// Splitting keeps sharing within a sub-cluster and gives it up across the split.
    /// Results stay lossless per query, but with any splitting the per-query path
    /// *order* matches a sequential run over the same split clusters, not the unsplit
    /// sequential run. [`SplitPolicy::Never`] (default) preserves the byte-identical
    /// guarantee.
    pub split: SplitPolicy,
}

impl Default for ParallelBatchEnum {
    fn default() -> Self {
        ParallelBatchEnum {
            order: SearchOrder::default(),
            gamma: crate::batch_enum::DEFAULT_GAMMA,
            parallelism: Parallelism::Auto,
            split: SplitPolicy::Never,
        }
    }
}

impl ParallelBatchEnum {
    /// Creates the runner (no cluster splitting).
    pub fn new(order: SearchOrder, gamma: f64, parallelism: Parallelism) -> Self {
        ParallelBatchEnum {
            order,
            gamma,
            parallelism,
            split: SplitPolicy::Never,
        }
    }

    /// Returns the runner with the given intra-cluster split policy.
    pub fn with_split_policy(mut self, split: SplitPolicy) -> Self {
        self.split = split;
        self
    }

    /// Compat wrapper over [`ParallelBatchEnum::with_split_policy`]: `Some(c > 0)` caps
    /// clusters at `c` queries, `Some(0)` and `None` never split.
    pub fn with_max_cluster_size(self, cap: Option<usize>) -> Self {
        self.with_split_policy(SplitPolicy::from_cap(cap))
    }

    /// Processes the batch, streaming results into `sink`.
    pub fn run_batch<S: PathSink>(
        &self,
        graph: &DiGraph,
        queries: &[PathQuery],
        sink: &mut S,
    ) -> EnumStats {
        if queries.is_empty() {
            sink.finish();
            return EnumStats::new(0);
        }
        // Index construction is identical to the sequential BatchEnum.
        let start = Instant::now();
        let summary = BatchSummary::of(queries);
        let index = BatchIndex::build(
            graph,
            &summary.sources,
            &summary.targets,
            summary.max_hop_limit,
        );
        let build_time = start.elapsed();
        let mut stats = self.run_batch_with_index(graph, &index, queries, sink);
        stats.add_stage(Stage::BuildIndex, build_time);
        stats
    }

    /// Processes a batch against an already-built (possibly superset) index: clustering on
    /// the calling thread, cluster evaluation on the worker pool, deterministic merge.
    pub fn run_batch_with_index<S: PathSink>(
        &self,
        graph: &DiGraph,
        index: &BatchIndex,
        queries: &[PathQuery],
        sink: &mut S,
    ) -> EnumStats {
        let mut stats = EnumStats::new(queries.len());
        if queries.is_empty() {
            sink.finish();
            return stats;
        }

        // Clustering is identical to the sequential BatchEnum; the split policy then
        // breaks oversized clusters into bounded, consecutive sub-clusters.
        let start = Instant::now();
        let clusters = cluster_with_policy(
            index,
            queries,
            self.gamma,
            self.split,
            self.parallelism.workers(),
        );
        stats.num_clusters = clusters.len();
        stats.add_stage(Stage::ClusterQuery, start.elapsed());

        // Evaluate clusters on the sharded pool; each worker runs the sequential shared
        // pipeline on its cluster (detection + topological enumeration). γ = 1 inside the
        // worker keeps the cluster as a single group (it has already been formed by the
        // outer clustering) without re-clustering cost.
        let start = Instant::now();
        let sequential = BatchEnum::new(self.order, 1.0);
        let (results, num_shards) =
            execute_sharded(&clusters, self.parallelism.workers(), |ci, local, buf| {
                let cluster_queries_list: Vec<PathQuery> =
                    // lint:allow(panic-free-hot-path) ci and qid come from the clustering over these queries
                    clusters[ci].iter().map(|&qid| queries[qid]).collect();
                sequential.run_cluster_for_parallel(graph, index, &cluster_queries_list, local, buf)
            });
        merge_results(&clusters, results, &mut stats, sink);
        stats.num_shards = num_shards;
        stats.add_stage(Stage::Enumeration, start.elapsed());
        sink.finish();
        stats
    }
}

impl BatchEnum {
    /// Evaluates one pre-formed cluster against an existing index (used by the parallel
    /// wrapper): detection + shared enumeration, but no index build and no re-clustering.
    pub(crate) fn run_cluster_for_parallel<S: PathSink>(
        &self,
        graph: &DiGraph,
        index: &BatchIndex,
        queries: &[PathQuery],
        sink: &mut S,
        buffers: &mut SearchBuffers,
    ) -> EnumStats {
        let mut stats = EnumStats::new(queries.len());
        let cluster: Vec<QueryId> = (0..queries.len()).collect();
        self.process_cluster(graph, index, queries, &cluster, sink, &mut stats, buffers);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce::enumerate_reference;
    use crate::sink::CountSink;
    use hcsp_graph::generators::erdos_renyi::gnm_random;
    use hcsp_graph::generators::regular::{complete, grid};

    fn reference_counts(graph: &DiGraph, queries: &[PathQuery]) -> Vec<u64> {
        queries
            .iter()
            .map(|q| enumerate_reference(graph, q).len() as u64)
            .collect()
    }

    #[test]
    fn shard_plan_covers_every_cluster_once_and_balances() {
        let sizes = vec![5, 1, 1, 9, 2, 2, 1, 4];
        let shards = plan_shards(&sizes, 3);
        assert!(shards.len() <= 3);
        let mut seen: Vec<usize> = shards.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..sizes.len()).collect::<Vec<_>>());
        // LPT keeps the max shard load below the trivial "all in one" bound.
        let loads: Vec<usize> = shards
            .iter()
            .map(|s| s.iter().map(|&c| sizes[c]).sum())
            .collect();
        assert!(*loads.iter().max().unwrap() < sizes.iter().sum());
        // Deterministic.
        assert_eq!(shards, plan_shards(&sizes, 3));
    }

    #[test]
    fn shard_plan_degenerate_inputs() {
        assert_eq!(plan_shards(&[], 4), Vec::<Vec<usize>>::new());
        assert_eq!(plan_shards(&[3], 4), vec![vec![0]]);
        // More shards than clusters collapses to one cluster per shard.
        let shards = plan_shards(&[1, 1, 1], 16);
        assert_eq!(shards.len(), 3);
    }

    #[test]
    fn shard_deques_drain_everything_with_stealing() {
        let deques = ShardDeques::seed(10, 3);
        // Worker 2 drains the entire set alone: its own deque first, then steals.
        let mut seen = Vec::new();
        while let Some(s) = deques.next(2) {
            seen.push(s);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert_eq!(deques.next(0), None);
    }

    #[test]
    fn parallel_basic_matches_reference() {
        let g = grid(4, 4);
        let queries = vec![
            PathQuery::new(0u32, 15u32, 6),
            PathQuery::new(1u32, 15u32, 6),
            PathQuery::new(0u32, 14u32, 6),
            PathQuery::new(4u32, 15u32, 5),
            PathQuery::new(0u32, 11u32, 5),
        ];
        for workers in [1, 2, 4] {
            let mut sink = CountSink::new(queries.len());
            let stats = ParallelBasicEnum::new(SearchOrder::VertexId, Parallelism::Fixed(workers))
                .run_batch(&g, &queries, &mut sink);
            assert_eq!(
                sink.counts(),
                reference_counts(&g, &queries),
                "workers = {workers}"
            );
            assert_eq!(stats.num_queries, queries.len());
            assert!(stats.counters.produced_paths > 0);
        }
    }

    #[test]
    fn parallel_batch_matches_reference() {
        for seed in 0..2 {
            let g = gnm_random(70, 400, seed).unwrap();
            let queries = vec![
                PathQuery::new(0u32, 30u32, 5),
                PathQuery::new(0u32, 31u32, 5),
                PathQuery::new(1u32, 30u32, 4),
                PathQuery::new(2u32, 40u32, 4),
                PathQuery::new(3u32, 41u32, 5),
                PathQuery::new(3u32, 42u32, 4),
            ];
            for workers in [1, 3] {
                let mut sink = CountSink::new(queries.len());
                let stats = ParallelBatchEnum::new(
                    SearchOrder::DistanceThenDegree,
                    0.4,
                    Parallelism::Fixed(workers),
                )
                .run_batch(&g, &queries, &mut sink);
                assert_eq!(
                    sink.counts(),
                    reference_counts(&g, &queries),
                    "workers = {workers}"
                );
                assert!(stats.num_clusters >= 1);
            }
        }
    }

    #[test]
    fn parallel_output_is_byte_identical_to_sequential() {
        let g = gnm_random(60, 360, 5).unwrap();
        let queries = vec![
            PathQuery::new(0u32, 30u32, 5),
            PathQuery::new(0u32, 31u32, 5),
            PathQuery::new(1u32, 30u32, 4),
            PathQuery::new(2u32, 31u32, 5),
        ];
        let mut sequential = crate::sink::CollectSink::new(queries.len());
        let seq_stats =
            BatchEnum::new(SearchOrder::VertexId, 0.4).run_batch(&g, &queries, &mut sequential);
        for workers in [1, 2, 4, 8] {
            let mut parallel = crate::sink::CollectSink::new(queries.len());
            let par_stats =
                ParallelBatchEnum::new(SearchOrder::VertexId, 0.4, Parallelism::Fixed(workers))
                    .run_batch(&g, &queries, &mut parallel);
            // Not just the same path sets: the same paths in the same order per query.
            assert_eq!(parallel.all(), sequential.all(), "workers = {workers}");
            assert_eq!(par_stats.counters, seq_stats.counters);
            assert_eq!(par_stats.num_clusters, seq_stats.num_clusters);
            assert_eq!(
                par_stats.num_shared_subqueries,
                seq_stats.num_shared_subqueries
            );
        }
    }

    #[test]
    fn cluster_cap_splits_but_stays_lossless() {
        let g = gnm_random(70, 400, 3).unwrap();
        let queries: Vec<PathQuery> = (0..12)
            .map(|i| PathQuery::new(i as u32, (30 + i / 2) as u32, 4 + (i % 2) as u32))
            .collect();
        let reference = reference_counts(&g, &queries);

        let uncapped = ParallelBatchEnum::new(SearchOrder::VertexId, 0.4, Parallelism::Fixed(2));
        let mut sink = CountSink::new(queries.len());
        let uncapped_stats = uncapped.run_batch(&g, &queries, &mut sink);
        assert_eq!(sink.counts(), reference);

        let capped = uncapped.with_max_cluster_size(Some(2));
        let mut sink = CountSink::new(queries.len());
        let capped_stats = capped.run_batch(&g, &queries, &mut sink);
        assert_eq!(sink.counts(), reference, "splitting must be lossless");
        assert!(
            capped_stats.num_clusters >= uncapped_stats.num_clusters,
            "a cap can only increase the cluster count"
        );
        assert!(capped_stats.num_clusters >= queries.len() / 2);

        // A zero cap means "no cap".
        assert_eq!(
            capped.with_max_cluster_size(Some(0)).split,
            SplitPolicy::Never
        );
        assert_eq!(capped.with_max_cluster_size(None).split, SplitPolicy::Never);
        assert_eq!(capped.split, SplitPolicy::Cap(2));
        assert_eq!(ParallelBatchEnum::default().split, SplitPolicy::Never);
    }

    #[test]
    fn auto_split_policy_restores_parallel_slack_on_one_giant_cluster() {
        let g = complete(8);
        // All-pairs-style queries over a complete graph collapse into one similarity
        // cluster at a permissive γ: the regime Auto exists for.
        let queries: Vec<PathQuery> = (1..8).map(|i| PathQuery::new(0u32, i as u32, 3)).collect();
        let reference = reference_counts(&g, &queries);

        let never = ParallelBatchEnum::new(SearchOrder::VertexId, 0.1, Parallelism::Fixed(4));
        let mut sink = CountSink::new(queries.len());
        let never_stats = never.run_batch(&g, &queries, &mut sink);
        assert_eq!(sink.counts(), reference);
        assert_eq!(never_stats.num_clusters, 1, "the regime under test");
        assert_eq!(never_stats.num_shards, 1, "one cluster = one steal unit");

        let auto = never.with_split_policy(SplitPolicy::Auto);
        let mut sink = CountSink::new(queries.len());
        let auto_stats = auto.run_batch(&g, &queries, &mut sink);
        assert_eq!(sink.counts(), reference, "splitting must be lossless");
        assert!(
            auto_stats.num_shards > 1,
            "Auto must restore >1 effective shard, got {}",
            auto_stats.num_shards
        );
        assert!(auto_stats.num_clusters > never_stats.num_clusters);
    }

    #[test]
    fn auto_split_policy_leaves_well_clustered_batches_alone() {
        let clusters = vec![vec![0, 1, 2], vec![3, 4], vec![5, 6, 7]];
        // Already >= workers clusters: untouched.
        assert_eq!(
            SplitPolicy::Auto.apply(clusters.clone(), 3, 8),
            clusters.clone()
        );
        // Fewer clusters than workers: capped at ⌈8 / (2·8)⌉ = 1.
        let split = SplitPolicy::Auto.apply(clusters.clone(), 8, 8);
        assert_eq!(split.len(), 8);
        assert!(split.iter().all(|c| c.len() == 1));
        // Never and Cap(0) are identity; from_cap maps the legacy knob.
        assert_eq!(SplitPolicy::Never.apply(clusters.clone(), 8, 8), clusters);
        assert_eq!(SplitPolicy::from_cap(Some(3)), SplitPolicy::Cap(3));
        assert_eq!(SplitPolicy::from_cap(Some(0)), SplitPolicy::Never);
        assert_eq!(SplitPolicy::from_cap(None), SplitPolicy::Never);
        assert_eq!(SplitPolicy::Cap(3).cap(), Some(3));
        assert_eq!(SplitPolicy::Cap(0).cap(), None);
        assert_eq!(SplitPolicy::Auto.cap(), None);
        assert_eq!(SplitPolicy::default(), SplitPolicy::Never);
    }

    #[test]
    fn split_clusters_chunks_in_order() {
        let clusters = vec![vec![0, 1, 2, 3, 4], vec![5], vec![6, 7]];
        assert_eq!(
            split_clusters(clusters, 2),
            vec![vec![0, 1], vec![2, 3], vec![4], vec![5], vec![6, 7]]
        );
    }

    #[test]
    fn parallel_merge_honours_sink_verdicts() {
        let g = complete(6);
        let queries = vec![PathQuery::new(0u32, 5u32, 3), PathQuery::new(1u32, 4u32, 3)];
        let reference = reference_counts(&g, &queries);
        assert!(reference.iter().all(|&c| c > 2));

        // SkipQuery after 2 paths per query: each query delivers exactly 2.
        let mut per_query = vec![0u64; queries.len()];
        {
            let mut sink = crate::sink::ControlSink::new(|q, _p: &[hcsp_graph::VertexId]| {
                per_query[q] += 1;
                if per_query[q] >= 2 {
                    SinkFlow::SkipQuery
                } else {
                    SinkFlow::Continue
                }
            });
            ParallelBasicEnum::new(SearchOrder::VertexId, Parallelism::Fixed(2))
                .run_batch(&g, &queries, &mut sink);
        }
        assert_eq!(per_query, vec![2, 2], "no accept past a SkipQuery verdict");

        // Stop after the first path: delivery ends for the whole batch.
        let mut total = 0u64;
        {
            let mut sink = crate::sink::ControlSink::new(|_q, _p: &[hcsp_graph::VertexId]| {
                total += 1;
                SinkFlow::Stop
            });
            ParallelBasicEnum::new(SearchOrder::VertexId, Parallelism::Fixed(2))
                .run_batch(&g, &queries, &mut sink);
        }
        assert_eq!(total, 1, "no accept past a Stop verdict");
    }

    #[test]
    fn parallel_collect_sink_receives_every_path() {
        let g = complete(6);
        let queries = vec![PathQuery::new(0u32, 5u32, 3), PathQuery::new(1u32, 4u32, 3)];
        let mut sink = crate::sink::CollectSink::new(queries.len());
        ParallelBasicEnum::new(SearchOrder::VertexId, Parallelism::Fixed(2))
            .run_batch(&g, &queries, &mut sink);
        let reference = reference_counts(&g, &queries);
        for (i, &expected) in reference.iter().enumerate() {
            assert_eq!(sink.paths(i).len() as u64, expected);
            for p in sink.paths(i).iter() {
                assert_eq!(p[0], queries[i].source);
                assert_eq!(*p.last().unwrap(), queries[i].target);
            }
        }
    }

    #[test]
    fn empty_batches_and_degenerate_worker_counts() {
        let g = complete(3);
        let mut sink = CountSink::new(0);
        let stats = ParallelBasicEnum::default().run_batch(&g, &[], &mut sink);
        assert_eq!(stats.num_queries, 0);
        let stats = ParallelBatchEnum::default().run_batch(&g, &[], &mut sink);
        assert_eq!(stats.num_queries, 0);
        assert_eq!(Parallelism::Fixed(0).workers(), 1);
        assert!(Parallelism::Auto.workers() >= 1);
        assert_eq!(Parallelism::default(), Parallelism::Auto);
    }
}
