//! Instrumentation: per-stage wall-clock timings and traversal counters.
//!
//! Exp-3 of the paper (Fig. 9) decomposes the total processing time of `BatchEnum+` into
//! `BuildIndex`, `ClusterQuery`, `IdentifySubquery` and `Enumeration`. Every run of every
//! algorithm in this workspace fills an [`EnumStats`] so that decomposition is a
//! by-product of normal execution rather than a special instrumented mode.

use std::fmt;
use std::time::Duration;

/// The processing stages distinguished by the time-decomposition experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Multi-source BFS index construction (Alg. 1 / Alg. 4, lines 1–2).
    BuildIndex,
    /// Hierarchical query clustering (Alg. 2).
    ClusterQuery,
    /// Common HC-s path query detection (Alg. 3), including building Ψ.
    IdentifySubquery,
    /// Path enumeration and concatenation (the remainder of Alg. 1 / Alg. 4).
    Enumeration,
}

impl Stage {
    /// All stages in report order.
    pub const ALL: [Stage; 4] = [
        Stage::BuildIndex,
        Stage::ClusterQuery,
        Stage::IdentifySubquery,
        Stage::Enumeration,
    ];
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Stage::BuildIndex => "BuildIndex",
            Stage::ClusterQuery => "ClusterQuery",
            Stage::IdentifySubquery => "IdentifySubquery",
            Stage::Enumeration => "Enumeration",
        };
        f.write_str(name)
    }
}

/// Low-level traversal counters accumulated during the half searches and joins.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchCounters {
    /// Vertices expanded (one per visited prefix) during the DFS half searches.
    pub expanded_vertices: u64,
    /// Edges examined while expanding.
    pub scanned_edges: u64,
    /// Edges skipped by the Lemma 3.1 distance pruning.
    pub pruned_edges: u64,
    /// Prefix paths materialised into `P_f` / `P_b` or into the shared cache.
    pub stored_prefixes: u64,
    /// Prefix splices served from the shared HC-s path cache (BatchEnum only).
    pub cache_splices: u64,
    /// Complete HC-s-t paths produced.
    pub produced_paths: u64,
}

impl SearchCounters {
    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &SearchCounters) {
        self.expanded_vertices += other.expanded_vertices;
        self.scanned_edges += other.scanned_edges;
        self.pruned_edges += other.pruned_edges;
        self.stored_prefixes += other.stored_prefixes;
        self.cache_splices += other.cache_splices;
        self.produced_paths += other.produced_paths;
    }
}

/// Complete statistics of one batch run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnumStats {
    /// Wall-clock time per stage (absent stages were not executed by the algorithm).
    stage_times: Vec<(Stage, Duration)>,
    /// Traversal counters.
    pub counters: SearchCounters,
    /// Number of queries in the batch.
    pub num_queries: usize,
    /// Number of query clusters formed (1 per query when clustering is not used).
    pub num_clusters: usize,
    /// Number of common (dominating) HC-s path queries detected.
    pub num_shared_subqueries: usize,
    /// Peak number of HC-s path results resident in the cache at any point.
    pub peak_cached_results: usize,
    /// Effective shards the parallel scheduler planned (0 for sequential runs). A batch
    /// whose clusters all collapse into one steal unit reports 1 here regardless of the
    /// worker count — the signal the intra-cluster split policy exists to fix.
    pub num_shards: usize,
}

impl EnumStats {
    /// Creates empty statistics for a batch of `num_queries` queries.
    pub fn new(num_queries: usize) -> Self {
        EnumStats {
            num_queries,
            ..Default::default()
        }
    }

    /// Records (accumulates) time spent in a stage.
    pub fn add_stage(&mut self, stage: Stage, elapsed: Duration) {
        if let Some(entry) = self.stage_times.iter_mut().find(|(s, _)| *s == stage) {
            entry.1 += elapsed;
        } else {
            self.stage_times.push((stage, elapsed));
        }
    }

    /// Time spent in a stage (zero if the stage never ran).
    pub fn stage_time(&self, stage: Stage) -> Duration {
        self.stage_times
            .iter()
            .find(|(s, _)| *s == stage)
            .map(|(_, d)| *d)
            .unwrap_or_default()
    }

    /// Sum of all recorded stage times.
    pub fn total_time(&self) -> Duration {
        self.stage_times.iter().map(|(_, d)| *d).sum()
    }

    /// Formats the Fig. 9 style decomposition as `stage=seconds` pairs.
    pub fn decomposition_row(&self) -> String {
        Stage::ALL
            .iter()
            .map(|&s| format!("{}={:.6}s", s, self.stage_time(s).as_secs_f64()))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Fraction of queries that shared a cluster with at least one other query,
    /// `1 − |clusters| / |Q|` — the "sharing ratio" reported per micro-batch in service
    /// mode.
    ///
    /// `0.0` when every query formed its own cluster (no sharing: `PathEnum`, `BasicEnum`,
    /// or γ = 1) and approaching `1.0` when the whole batch collapsed into few clusters.
    /// Only meaningful for runs that counted clusters; an empty batch reports `0.0`.
    pub fn sharing_ratio(&self) -> f64 {
        if self.num_queries == 0 {
            return 0.0;
        }
        (1.0 - self.num_clusters as f64 / self.num_queries as f64).clamp(0.0, 1.0)
    }

    /// Merges the statistics of another run (used when an algorithm processes clusters or
    /// directions separately and the per-part stats are combined).
    pub fn merge(&mut self, other: &EnumStats) {
        for &(stage, d) in &other.stage_times {
            self.add_stage(stage, d);
        }
        self.counters.merge(&other.counters);
        self.num_clusters += other.num_clusters;
        self.num_shared_subqueries += other.num_shared_subqueries;
        self.peak_cached_results = self.peak_cached_results.max(other.peak_cached_results);
        self.num_shards = self.num_shards.max(other.num_shards);
    }
}

/// Service-mode instrumentation of one executed micro-batch.
///
/// A micro-batch is the set of queries one admission window of the serving layer closed
/// over (see the `hcsp-service` crate); these counters sit on top of the per-run
/// [`EnumStats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MicroBatchStats {
    /// Number of queries the admission window closed over.
    pub batch_size: usize,
    /// Longest time any query of the batch spent waiting in the admission queue.
    pub max_queue_wait: Duration,
    /// Sum of admission-queue waits over the batch's queries.
    pub total_queue_wait: Duration,
    /// Wall-clock execution time of the micro-batch (index preparation + run).
    pub exec_time: Duration,
    /// The underlying batch-run statistics.
    pub run: EnumStats,
}

impl MicroBatchStats {
    /// Mean admission-queue wait over the batch's queries.
    pub fn mean_queue_wait(&self) -> Duration {
        if self.batch_size == 0 {
            return Duration::ZERO;
        }
        self.total_queue_wait / self.batch_size as u32
    }

    /// The batch's sharing ratio, `1 − |clusters| / |Q|` (see [`EnumStats::sharing_ratio`]).
    pub fn sharing_ratio(&self) -> f64 {
        self.run.sharing_ratio()
    }
}

/// Aggregate statistics over every micro-batch a service session executed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceStats {
    /// Number of micro-batches executed.
    pub num_batches: usize,
    /// Number of queries served.
    pub num_queries: usize,
    /// Largest micro-batch.
    pub max_batch_size: usize,
    /// Sum of admission-queue waits over all served queries.
    pub total_queue_wait: Duration,
    /// Longest admission-queue wait of any served query.
    pub max_queue_wait: Duration,
    /// Sum of micro-batch execution times (CPU-side service time, not wall-clock span).
    pub total_exec_time: Duration,
    /// Total clusters formed across micro-batches (for the aggregate sharing ratio).
    pub num_clusters: usize,
    /// Total HC-s-t paths delivered.
    pub produced_paths: u64,
    /// Graph-update batches published (each counted once, however many worker engines
    /// later advance to the resulting epoch).
    pub update_batches: usize,
    /// Update submissions (`PathService::update` calls) absorbed by those batches. The
    /// epoch-publishing service records one batch per call, so the two counters agree
    /// there; a recorder that merges submissions before applying may record fewer
    /// batches than calls.
    pub update_calls: usize,
    /// Individual edge mutations those batches applied (net of no-ops).
    pub updates_applied: usize,
    /// Epochs published by the update path (updates that actually changed the graph).
    pub epochs_published: usize,
    /// WAL fsyncs performed by the group-commit path of a durable service, each
    /// covering every update batch appended in its admission window. Under
    /// concurrent updates this stays below `update_batches` — the gap is fsyncs
    /// saved by sharing; zero for in-memory services and non-`Always` policies.
    pub group_commit_batches: u64,
    /// Micro-batches that executed against an epoch older than the tip at completion
    /// time — reads that proceeded, barrier-free, while a writer published behind them.
    pub batches_pinned_behind: usize,
    /// Delete-dirtied re-BFS runs the precise survivor scan avoided across all worker
    /// engines (see `IndexReuse::deletes_supported`).
    pub rebfs_avoided: usize,
}

impl ServiceStats {
    /// Folds one executed micro-batch into the aggregate.
    pub fn record(&mut self, batch: &MicroBatchStats) {
        self.num_batches += 1;
        self.num_queries += batch.batch_size;
        self.max_batch_size = self.max_batch_size.max(batch.batch_size);
        self.total_queue_wait += batch.total_queue_wait;
        self.max_queue_wait = self.max_queue_wait.max(batch.max_queue_wait);
        self.total_exec_time += batch.exec_time;
        self.num_clusters += batch.run.num_clusters;
        self.produced_paths += batch.run.counters.produced_paths;
    }

    /// Folds one applied graph-update batch into the aggregate; `calls` is the number of
    /// update submissions the batch absorbed (1 when each call publishes on its own).
    pub fn record_update(&mut self, summary: &crate::engine::UpdateSummary, calls: usize) {
        self.update_batches += 1;
        self.update_calls += calls;
        self.updates_applied += summary.applied;
    }

    /// Mean number of queries per micro-batch.
    pub fn mean_batch_size(&self) -> f64 {
        if self.num_batches == 0 {
            return 0.0;
        }
        self.num_queries as f64 / self.num_batches as f64
    }

    /// Mean admission-queue wait per served query.
    pub fn mean_queue_wait(&self) -> Duration {
        if self.num_queries == 0 {
            return Duration::ZERO;
        }
        self.total_queue_wait / self.num_queries as u32
    }

    /// Aggregate sharing ratio, `1 − total clusters / total queries`.
    pub fn sharing_ratio(&self) -> f64 {
        if self.num_queries == 0 {
            return 0.0;
        }
        (1.0 - self.num_clusters as f64 / self.num_queries as f64).clamp(0.0, 1.0)
    }

    /// Served queries per second over a measured wall-clock span.
    pub fn throughput_qps(&self, elapsed: Duration) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        self.num_queries as f64 / elapsed.as_secs_f64()
    }
}

/// Small helper measuring a closure's wall-clock time and attributing it to a stage.
pub fn timed<T>(stats: &mut EnumStats, stage: Stage, f: impl FnOnce() -> T) -> T {
    let start = std::time::Instant::now();
    let out = f();
    stats.add_stage(stage, start.elapsed());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_times_accumulate() {
        let mut s = EnumStats::new(10);
        s.add_stage(Stage::BuildIndex, Duration::from_millis(5));
        s.add_stage(Stage::BuildIndex, Duration::from_millis(7));
        s.add_stage(Stage::Enumeration, Duration::from_millis(100));
        assert_eq!(s.stage_time(Stage::BuildIndex), Duration::from_millis(12));
        assert_eq!(s.stage_time(Stage::ClusterQuery), Duration::ZERO);
        assert_eq!(s.total_time(), Duration::from_millis(112));
        assert_eq!(s.num_queries, 10);
    }

    #[test]
    fn merge_combines_counters_and_times() {
        let mut a = EnumStats::new(5);
        a.add_stage(Stage::Enumeration, Duration::from_millis(10));
        a.counters.produced_paths = 3;
        a.peak_cached_results = 2;

        let mut b = EnumStats::new(5);
        b.add_stage(Stage::Enumeration, Duration::from_millis(20));
        b.add_stage(Stage::ClusterQuery, Duration::from_millis(1));
        b.counters.produced_paths = 4;
        b.num_shared_subqueries = 6;
        b.peak_cached_results = 9;
        b.num_shards = 7;

        a.merge(&b);
        assert_eq!(a.stage_time(Stage::Enumeration), Duration::from_millis(30));
        assert_eq!(a.stage_time(Stage::ClusterQuery), Duration::from_millis(1));
        assert_eq!(a.counters.produced_paths, 7);
        assert_eq!(a.num_shared_subqueries, 6);
        assert_eq!(a.peak_cached_results, 9);
        assert_eq!(a.num_shards, 7, "effective shards merge via max");
    }

    #[test]
    fn timed_attributes_elapsed_time() {
        let mut s = EnumStats::new(1);
        let out = timed(&mut s, Stage::IdentifySubquery, || 21 * 2);
        assert_eq!(out, 42);
        assert!(s.stage_time(Stage::IdentifySubquery) >= Duration::ZERO);
        assert!(s.decomposition_row().contains("IdentifySubquery="));
    }

    #[test]
    fn counters_merge() {
        let mut a = SearchCounters {
            expanded_vertices: 1,
            scanned_edges: 2,
            ..Default::default()
        };
        let b = SearchCounters {
            expanded_vertices: 10,
            pruned_edges: 5,
            cache_splices: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.expanded_vertices, 11);
        assert_eq!(a.scanned_edges, 2);
        assert_eq!(a.pruned_edges, 5);
        assert_eq!(a.cache_splices, 1);
    }

    #[test]
    fn sharing_ratio_bounds() {
        let mut s = EnumStats::new(10);
        s.num_clusters = 10;
        assert_eq!(s.sharing_ratio(), 0.0);
        s.num_clusters = 2;
        assert!((s.sharing_ratio() - 0.8).abs() < 1e-12);
        assert_eq!(EnumStats::new(0).sharing_ratio(), 0.0);
    }

    #[test]
    fn micro_batch_stats_derive_means() {
        let mut run = EnumStats::new(4);
        run.num_clusters = 1;
        run.counters.produced_paths = 12;
        let batch = MicroBatchStats {
            batch_size: 4,
            max_queue_wait: Duration::from_millis(8),
            total_queue_wait: Duration::from_millis(20),
            exec_time: Duration::from_millis(3),
            run,
        };
        assert_eq!(batch.mean_queue_wait(), Duration::from_millis(5));
        assert!((batch.sharing_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(MicroBatchStats::default().mean_queue_wait(), Duration::ZERO);
    }

    #[test]
    fn service_stats_aggregate_micro_batches() {
        let mut service = ServiceStats::default();
        assert_eq!(service.mean_batch_size(), 0.0);
        assert_eq!(service.mean_queue_wait(), Duration::ZERO);
        assert_eq!(service.sharing_ratio(), 0.0);
        assert_eq!(service.throughput_qps(Duration::ZERO), 0.0);

        let mut run_a = EnumStats::new(3);
        run_a.num_clusters = 1;
        run_a.counters.produced_paths = 5;
        service.record(&MicroBatchStats {
            batch_size: 3,
            max_queue_wait: Duration::from_millis(4),
            total_queue_wait: Duration::from_millis(9),
            exec_time: Duration::from_millis(2),
            run: run_a,
        });
        let mut run_b = EnumStats::new(1);
        run_b.num_clusters = 1;
        run_b.counters.produced_paths = 2;
        service.record(&MicroBatchStats {
            batch_size: 1,
            max_queue_wait: Duration::from_millis(1),
            total_queue_wait: Duration::from_millis(1),
            exec_time: Duration::from_millis(1),
            run: run_b,
        });

        assert_eq!(service.num_batches, 2);
        assert_eq!(service.num_queries, 4);
        assert_eq!(service.max_batch_size, 3);
        assert_eq!(service.max_queue_wait, Duration::from_millis(4));
        assert_eq!(service.total_exec_time, Duration::from_millis(3));
        assert_eq!(service.produced_paths, 7);
        assert_eq!(service.mean_batch_size(), 2.0);
        assert_eq!(service.mean_queue_wait(), Duration::from_micros(2500));
        assert!((service.sharing_ratio() - 0.5).abs() < 1e-12);
        assert!((service.throughput_qps(Duration::from_secs(2)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn stage_display_names() {
        let names: Vec<String> = Stage::ALL.iter().map(|s| s.to_string()).collect();
        assert_eq!(
            names,
            vec![
                "BuildIndex",
                "ClusterQuery",
                "IdentifySubquery",
                "Enumeration"
            ]
        );
    }
}
