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
//! 1. The batch is indexed and clustered exactly as in the sequential algorithm; the
//!    non-sharing algorithms (`PathEnum`, `BasicEnum`) put every query in a cluster of
//!    its own.
//! 2. Clusters are packed into **shards** (longest-processing-time-first over the cluster
//!    sizes), the steal unit of the scheduler. More shards than workers keeps stealing
//!    granular; packing the big clusters first keeps the shards balanced.
//! 3. A [`std::thread::scope`] worker pool drains a **work-stealing deque** of shards:
//!    each worker owns a deque seeded round-robin, pops its own front, and steals from
//!    the back of other workers' deques when it runs dry.
//! 4. Every worker owns one reusable [`SearchBuffers`] (the allocation-free hot path) and
//!    logs each cluster's deliveries locally; after the pool joins, the logs are
//!    **replayed in cluster order**, so the sink sees the sequential run's exact sequence
//!    of paths — per query and across queries — regardless of worker count or
//!    scheduling. Counter merges are likewise ordered, making the reported `Stats`
//!    deterministic. Stage timings: `BuildIndex`, `ClusterQuery` and `Enumeration` are
//!    wall-clock spans of the calling thread (`Enumeration` covers the whole parallel
//!    region, so speedup shows up there), while `IdentifySubquery` is the CPU-side total
//!    summed over clusters, mirroring how the sequential run accumulates it.
//!
//! Clusters are never split to fill the pool: a split gives up exactly the common
//! computation the paper shares, and changes the path order. A batch that forms one
//! cluster therefore runs on one worker; a serving deployment scales across batches
//! instead, with more service workers.
//!
//! The per-cluster results are buffered in memory before the merge; for count-only
//! workloads over astronomically large result sets prefer the sequential runner or
//! smaller micro-batches. The entry point is [`crate::Engine::run_parallel_with_sink`].

use crate::batch_enum::BatchEnum;
use crate::buffers::SearchBuffers;
use crate::path::PathSet;
use crate::query::{PathQuery, QueryId};
use crate::sink::{PathSink, SinkFlow};
use crate::stats::{EnumStats, Stage};
use hcsp_graph::{DiGraph, VertexId};
use hcsp_index::BatchIndex;
use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError};
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

/// Packs cluster indices into at most `num_shards` shards, balancing total cluster size.
///
/// Classic LPT (longest processing time first) greedy: clusters are considered largest
/// first and each goes to the currently lightest shard. Cluster size is the cost proxy —
/// enumeration cost grows with cluster size, and a deterministic proxy keeps the plan (and
/// therefore the merge order downstream) reproducible. Every returned shard is non-empty
/// and internally sorted, and the concatenation of all shards covers every cluster once.
fn plan_shards(cluster_sizes: &[usize], num_shards: usize) -> Vec<Vec<usize>> {
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

/// The work-stealing deque set: one deque of shard ids per worker.
///
/// This module's locks never poison the pool: a poisoned guard is taken back with
/// [`PoisonError::into_inner`], which is sound because every critical section is a single
/// `VecDeque`/`Vec` call that leaves the data valid.
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
        if let Some(shard) = self.queues[worker]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop_front()
        {
            return Some(shard);
        }
        let n = self.queues.len();
        for offset in 1..n {
            let victim = (worker + offset) % n;
            // lint:allow(panic-free-hot-path) victim is reduced mod n = queues.len()
            if let Some(shard) = self.queues[victim]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop_back()
            {
                return Some(shard);
            }
        }
        None
    }
}

/// A worker's record of one cluster's deliveries, in the order the worker made them: the
/// paths in one arena and, run-length encoded, the cluster-local query id of each run.
/// Replaying it hands the caller's sink exactly the sequential run's sequence of
/// [`PathSink::accept`] calls — including how a cluster interleaves its queries, which
/// follows Ψ's topological order, not query order. A query's paths usually arrive in one
/// run, so the ids cost one entry per query.
#[derive(Debug)]
pub(crate) struct DeliveryLog {
    paths: PathSet,
    runs: Vec<(QueryId, usize)>,
}

impl PathSink for DeliveryLog {
    fn accept(&mut self, query: QueryId, path: &[VertexId]) -> SinkFlow {
        match self.runs.last_mut() {
            Some((last, len)) if *last == query => *len += 1,
            _ => self.runs.push((query, 1)),
        }
        self.paths.push_slice(path);
        SinkFlow::Continue
    }
}

/// One cluster's buffered outcome: its index in the batch's cluster list, its deliveries,
/// and the stats of evaluating it.
type ClusterResult = (usize, DeliveryLog, EnumStats);

/// Runs `exec` once per cluster across a work-stealing worker pool, then merges the
/// results into `sink` in cluster order ([`merge_results`]) and finishes it.
///
/// `exec` receives the cluster index, the cluster's local [`DeliveryLog`] (query ids are
/// cluster offsets, not batch ids) and the worker's reusable [`SearchBuffers`], and must
/// behave identically to the sequential evaluation of the cluster. Records the number of
/// shards the scheduler planned in `stats` — the *effective* parallel slack: 1 means the
/// whole batch was one steal unit, however many workers were asked for — and the
/// wall-clock of the whole region as the `Enumeration` stage.
fn execute_sharded<S, F>(
    clusters: &[Vec<QueryId>],
    parallelism: Parallelism,
    stats: &mut EnumStats,
    sink: &mut S,
    exec: F,
) where
    S: PathSink,
    F: Fn(usize, &mut DeliveryLog, &mut SearchBuffers) -> EnumStats + Sync,
{
    let start = Instant::now();
    let workers = parallelism.workers().clamp(1, clusters.len().max(1));
    let shards = plan_shards(
        &clusters.iter().map(Vec::len).collect::<Vec<_>>(),
        workers * SHARDS_PER_WORKER,
    );
    let deques = ShardDeques::seed(shards.len(), workers);
    let collected: Mutex<Vec<ClusterResult>> = Mutex::new(Vec::with_capacity(clusters.len()));

    std::thread::scope(|scope| {
        for worker in 0..workers {
            let shards = &shards;
            let deques = &deques;
            let collected = &collected;
            let exec = &exec;
            scope.spawn(move || {
                let mut buffers = SearchBuffers::new();
                let mut local: Vec<ClusterResult> = Vec::new();
                while let Some(shard) = deques.next(worker) {
                    // lint:allow(panic-free-hot-path) deques are seeded with 0..shards.len() only
                    for &cluster_idx in &shards[shard] {
                        let mut log = DeliveryLog {
                            paths: PathSet::new(),
                            runs: Vec::new(),
                        };
                        let cluster_stats = exec(cluster_idx, &mut log, &mut buffers);
                        local.push((cluster_idx, log, cluster_stats));
                    }
                }
                collected
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .append(&mut local);
            });
        }
    });

    let mut results = collected
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    results.sort_by_key(|&(cluster_idx, _, _)| cluster_idx);
    merge_results(clusters, results, stats, sink);
    stats.num_shards = shards.len();
    stats.add_stage(Stage::Enumeration, start.elapsed());
    sink.finish();
}

/// Merges sorted per-cluster results into the caller's sink and stats, in cluster order.
///
/// Counters and the `IdentifySubquery` stage (a CPU-side total, exactly as the sequential
/// algorithm accumulates it across clusters) merge here; the `Enumeration` stage is *not*
/// summed from the per-cluster stats — with concurrent workers that would report total
/// CPU time, up to `workers ×` the elapsed time. [`execute_sharded`] records the
/// wall-clock of the whole parallel region as `Enumeration` instead.
///
/// Sink verdicts are honoured at delivery time: a `SkipQuery` drops the query's
/// remaining buffered paths, a `Stop` ends delivery outright (the enumeration work has
/// already happened inside the workers — these paths run through the quota-blind
/// collect-everything pipeline — but the sink is never called past its verdict, exactly
/// as the [`PathSink::accept`] contract promises). Either way the sink sees a prefix of
/// what the sequential run would show it. Stats still cover every evaluated cluster.
/// Sinks that want the *work saving* of early termination too run sequentially, through
/// [`crate::Engine::run_specs`].
fn merge_results<S: PathSink>(
    clusters: &[Vec<QueryId>],
    results: Vec<ClusterResult>,
    stats: &mut EnumStats,
    sink: &mut S,
) {
    let mut stopped = false;
    for (cluster_idx, log, cluster_stats) in results {
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
        let cluster = &clusters[cluster_idx];
        let mut skipped = vec![false; cluster.len()];
        let owners = log
            .runs
            .iter()
            .flat_map(|&(offset, len)| std::iter::repeat_n(offset, len));
        for (offset, path) in owners.zip(log.paths.iter()) {
            let (Some(&qid), Some(done)) = (cluster.get(offset), skipped.get_mut(offset)) else {
                continue;
            };
            if *done {
                continue;
            }
            match sink.accept(qid, path) {
                SinkFlow::Continue => {}
                SinkFlow::SkipQuery => *done = true,
                SinkFlow::Stop => {
                    stopped = true;
                    break;
                }
            }
        }
    }
}

/// The non-sharing parallel runs (`PathEnum`, `BasicEnum`): every query is its own
/// cluster, spread over the worker pool. `run_one` evaluates one query into its local
/// sink under query id 0 — with a per-query index for `PathEnum`, against the shared
/// index for `BasicEnum` — so the total CPU *work* equals the sequential run's; only the
/// wall-clock shrinks, and only as long as the per-query costs are balanced.
pub(crate) fn run_per_query<S, F>(
    queries: &[PathQuery],
    parallelism: Parallelism,
    sink: &mut S,
    run_one: F,
) -> EnumStats
where
    S: PathSink,
    F: Fn(&PathQuery, &mut DeliveryLog, &mut EnumStats, &mut SearchBuffers) + Sync,
{
    let mut stats = EnumStats::new(queries.len());
    stats.num_clusters = queries.len();
    let clusters: Vec<Vec<QueryId>> = (0..queries.len()).map(|q| vec![q]).collect();
    execute_sharded(
        &clusters,
        parallelism,
        &mut stats,
        sink,
        |ci, local, buf| {
            let mut cluster_stats = EnumStats::new(1);
            // lint:allow(panic-free-hot-path) ci < queries.len(): one cluster per query
            run_one(&queries[ci], local, &mut cluster_stats, buf);
            cluster_stats
        },
    );
    stats
}

impl BatchEnum {
    /// Parallel [`BatchEnum::run_batch_with_index`]: clusters are formed on the calling
    /// thread exactly as in the sequential algorithm, then each cluster's shared pipeline
    /// (detection + topological enumeration) runs on the worker pool. Sharing happens
    /// *inside* a cluster, where the common computation lives; across clusters there is
    /// nothing to share.
    pub(crate) fn run_parallel_with_index<S: PathSink>(
        &self,
        graph: &DiGraph,
        index: &BatchIndex,
        queries: &[PathQuery],
        parallelism: Parallelism,
        sink: &mut S,
    ) -> EnumStats {
        let mut stats = EnumStats::new(queries.len());
        let start = Instant::now();
        let clusters = self.cluster(index, queries);
        stats.num_clusters = clusters.len();
        stats.add_stage(Stage::ClusterQuery, start.elapsed());

        execute_sharded(
            &clusters,
            parallelism,
            &mut stats,
            sink,
            |ci, local, buf| {
                // The worker sees the cluster as a batch of its own, ids 0..len.
                let members: Vec<PathQuery> =
                // lint:allow(panic-free-hot-path) ci and qid come from the clustering over these queries
                clusters[ci].iter().map(|&qid| queries[qid]).collect();
                let local_ids: Vec<QueryId> = (0..members.len()).collect();
                let mut cluster_stats = EnumStats::new(members.len());
                self.process_cluster(
                    graph,
                    index,
                    &members,
                    &local_ids,
                    local,
                    &mut cluster_stats,
                    buf,
                );
                cluster_stats
            },
        );
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce::enumerate_reference;
    use crate::pathenum::PathEnum;
    use crate::query::BatchSummary;
    use crate::search_order::SearchOrder;
    use crate::sink::{CollectSink, CountSink};
    use hcsp_graph::generators::erdos_renyi::gnm_random;
    use hcsp_graph::generators::regular::{complete, grid};

    fn reference_counts(graph: &DiGraph, queries: &[PathQuery]) -> Vec<u64> {
        queries
            .iter()
            .map(|q| enumerate_reference(graph, q).len() as u64)
            .collect()
    }

    fn index_for(graph: &DiGraph, queries: &[PathQuery]) -> BatchIndex {
        let summary = BatchSummary::of(queries);
        BatchIndex::build(
            graph,
            &summary.sources,
            &summary.targets,
            summary.max_hop_limit,
        )
    }

    /// Parallel `BasicEnum` the way the engine runs it: one shared index, one cluster
    /// per query.
    fn run_basic<S: PathSink>(
        graph: &DiGraph,
        queries: &[PathQuery],
        workers: usize,
        sink: &mut S,
    ) -> EnumStats {
        let index = index_for(graph, queries);
        let per_query = PathEnum::new(SearchOrder::VertexId);
        run_per_query(
            queries,
            Parallelism::Fixed(workers),
            sink,
            |q, local, stats, buf| {
                per_query.run_with_index_buffered(graph, &index, q, 0, local, stats, buf);
            },
        )
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
            let stats = run_basic(&g, &queries, workers, &mut sink);
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
            let index = index_for(&g, &queries);
            for workers in [1, 3] {
                let mut sink = CountSink::new(queries.len());
                let stats = BatchEnum::new(SearchOrder::DistanceThenDegree, 0.4)
                    .run_parallel_with_index(
                        &g,
                        &index,
                        &queries,
                        Parallelism::Fixed(workers),
                        &mut sink,
                    );
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
        let batch = BatchEnum::new(SearchOrder::VertexId, 0.4);
        let index = index_for(&g, &queries);
        let mut sequential = CollectSink::new(queries.len());
        let seq_stats = batch.run_batch_with_index(&g, &index, &queries, &mut sequential);
        for workers in [1, 2, 4, 8] {
            let mut parallel = CollectSink::new(queries.len());
            let par_stats = batch.run_parallel_with_index(
                &g,
                &index,
                &queries,
                Parallelism::Fixed(workers),
                &mut parallel,
            );
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
            run_basic(&g, &queries, 2, &mut sink);
        }
        assert_eq!(per_query, vec![2, 2], "no accept past a SkipQuery verdict");

        // Stop after the first path: delivery ends for the whole batch.
        let mut total = 0u64;
        {
            let mut sink = crate::sink::ControlSink::new(|_q, _p: &[hcsp_graph::VertexId]| {
                total += 1;
                SinkFlow::Stop
            });
            run_basic(&g, &queries, 2, &mut sink);
        }
        assert_eq!(total, 1, "no accept past a Stop verdict");
    }

    #[test]
    fn parallel_collect_sink_receives_every_path() {
        let g = complete(6);
        let queries = vec![PathQuery::new(0u32, 5u32, 3), PathQuery::new(1u32, 4u32, 3)];
        let mut sink = CollectSink::new(queries.len());
        run_basic(&g, &queries, 2, &mut sink);
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
        let stats = run_basic(&g, &[], 4, &mut sink);
        assert_eq!(stats.num_queries, 0);
        let stats = BatchEnum::default().run_parallel_with_index(
            &g,
            &index_for(&g, &[]),
            &[],
            Parallelism::Auto,
            &mut sink,
        );
        assert_eq!(stats.num_queries, 0);
        assert_eq!(Parallelism::Fixed(0).workers(), 1);
        assert!(Parallelism::Auto.workers() >= 1);
        assert_eq!(Parallelism::default(), Parallelism::Auto);
    }
}
