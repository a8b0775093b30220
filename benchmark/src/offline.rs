//! The offline side: a batch answered by a fresh `Engine`, three ways, and — traced —
//! the same batch taken apart layer by layer through the layers' public functions.

use crate::inputs::{self, Workload};
use crate::outcome::{repeat_setup, Outcome, Plan};
use crate::stats::{self, Summary};
use crate::trace::Tracer;
use hcsp_core::batch_enum::{BatchEnum, DEFAULT_GAMMA};
use hcsp_core::clustering::cluster_queries;
use hcsp_core::concat::concatenate;
use hcsp_core::detection::detect_cluster;
use hcsp_core::sharing_graph::SharingGraph;
use hcsp_core::similarity::{QueryNeighborhood, SimilarityMatrix};
use hcsp_core::{
    Algorithm, CountSink, Engine, EnumStats, Parallelism, PathQuery, PathSet, SearchBuffers,
    SearchContext, SearchCounters, SinkFlow, Stage,
};
use hcsp_graph::{DiGraph, Direction, VertexId};
use hcsp_index::BatchIndex;
use std::sync::Arc;
use std::time::Instant;

/// A batch with the answer every algorithm must give.
pub struct Batch {
    pub graph: Arc<DiGraph>,
    pub queries: Vec<PathQuery>,
    /// Per-query path count from `PathEnum`, the independent single-query algorithm.
    pub oracle: Vec<u64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    BatchEnum,
    BasicEnum,
    BatchEnumT2,
}

pub struct Rep {
    pub secs: f64,
    pub counts: Vec<u64>,
    pub stats: EnumStats,
}

/// One timed answer: a fresh `Engine` (cold index, as the paper times it) answers the
/// whole batch into a `CountSink`.
pub fn answer(graph: &Arc<DiGraph>, queries: &[PathQuery], variant: Variant) -> Rep {
    let start = Instant::now();
    let algorithm = match variant {
        Variant::BasicEnum => Algorithm::BasicEnumPlus,
        Variant::BatchEnum | Variant::BatchEnumT2 => Algorithm::BatchEnumPlus,
    };
    let mut engine = Engine::with_algorithm(Arc::clone(graph), algorithm);
    let mut sink = CountSink::new(queries.len());
    let stats = match variant {
        Variant::BatchEnumT2 => {
            engine.run_parallel_with_sink(queries, Parallelism::Fixed(2), &mut sink)
        }
        _ => engine.run_with_sink(queries, &mut sink),
    };
    let secs = start.elapsed().as_secs_f64();
    Rep {
        secs,
        counts: sink.counts().to_vec(),
        stats,
    }
}

pub fn oracle_counts(graph: &Arc<DiGraph>, queries: &[PathQuery]) -> Vec<u64> {
    let mut engine = Engine::with_algorithm(Arc::clone(graph), Algorithm::PathEnum);
    let mut sink = CountSink::new(queries.len());
    engine.run_with_sink(queries, &mut sink);
    sink.counts().to_vec()
}

/// Checks one repetition against the oracle, query by query.
pub fn check_counts(outcome: &mut Outcome, batch: &Batch, counts: &[u64]) {
    for (got, want) in counts.iter().zip(&batch.oracle) {
        outcome.check(got == want);
    }
    if counts.len() != batch.oracle.len() {
        outcome.failed += 1;
    }
}

/// Timed repetitions of the three variants, taken in rounds (1 BatchEnum+, 2 BasicEnum+,
/// 1 BatchEnum+ on two threads) spread over the whole run: this machine's speed on
/// memory-bound work drifts by ±10 % over tens of seconds, so samples bunched together
/// would report the moment, not the program.
#[derive(Default)]
pub struct BatchTimes {
    pub batch: Vec<f64>,
    pub basic: Vec<f64>,
    pub t2: Vec<f64>,
}

impl BatchTimes {
    pub fn run_round(&mut self, outcome: &mut Outcome, batch: &Batch) {
        for (variant, reps) in [
            (Variant::BatchEnum, 1),
            (Variant::BasicEnum, 2),
            (Variant::BatchEnumT2, 1),
        ] {
            for _ in 0..reps {
                let rep = answer(&batch.graph, &batch.queries, variant);
                check_counts(outcome, batch, &rep.counts);
                match variant {
                    Variant::BatchEnum => self.batch.push(rep.secs),
                    Variant::BasicEnum => self.basic.push(rep.secs),
                    Variant::BatchEnumT2 => self.t2.push(rep.secs),
                }
            }
        }
    }

    pub fn report(&self, outcome: &mut Outcome) {
        outcome.set("batchenum_s", Summary::of(&self.batch));
        outcome.set("basicenum_s", Summary::of(&self.basic));
        outcome.set("batchenum_t2_s", Summary::of(&self.t2));
    }
}

fn setup(workload: Workload, plan: Plan, seed: u64) -> Batch {
    let graph = Arc::new(inputs::build_graph(workload, plan.scale));
    let queries = inputs::queries(workload, &graph, seed);
    let oracle = oracle_counts(&graph, &queries);
    // Warm-up: page the code in and size the allocator's arenas before anything is timed.
    answer(&graph, &queries, Variant::BasicEnum);
    Batch {
        graph,
        queries,
        oracle,
    }
}

/// Single-query latency: each query of the batch answered alone on a warm engine (index
/// cached, default algorithm) — what a caller who does not batch waits per query. One
/// pass over the batch; returns the pass's latencies in ms.
fn single_query_pass(outcome: &mut Outcome, batch: &Batch, engine: &mut Engine) -> Vec<f64> {
    let mut latencies_ms = Vec::with_capacity(batch.queries.len());
    for (query, want) in batch.queries.iter().zip(&batch.oracle) {
        let begun = Instant::now();
        let mut sink = CountSink::new(1);
        engine.run_with_sink(std::slice::from_ref(query), &mut sink);
        latencies_ms.push(begun.elapsed().as_secs_f64() * 1e3);
        outcome.check(sink.count(0) == *want);
    }
    latencies_ms
}

/// The untraced run of an offline workload.
pub fn run(workload: Workload, plan: Plan, seed: u64) -> Outcome {
    let mut outcome = Outcome::default();
    let (batch, setup_secs) = repeat_setup(3, |_| setup(workload, plan, seed));
    outcome.set("setup_s", Summary::of(&setup_secs));

    let mut warm_engine =
        Engine::with_algorithm(Arc::clone(&batch.graph), Algorithm::BatchEnumPlus);
    warm_engine.run_with_sink(&batch.queries, &mut CountSink::new(batch.queries.len()));

    // Rounds start until the budget is used, and at least three run: a single-query
    // pass, then the three batch variants.
    let (mut times, mut p50, mut p99, mut singles) = (BatchTimes::default(), vec![], vec![], 0);
    let (start, budget) = (Instant::now(), plan.share(0.50));
    while times.batch.len() < 3 || start.elapsed() < budget {
        let pass = single_query_pass(&mut outcome, &batch, &mut warm_engine);
        p50.push(stats::percentile(&pass, 0.50));
        p99.push(stats::percentile(&pass, 0.99));
        singles += pass.len();
        times.run_round(&mut outcome, &batch);
    }
    times.report(&mut outcome);
    outcome.set("p50_ms", Summary::of_segments(&p50, singles));
    outcome.notes.push(format!(
        "single-query p99 {:.3} ms (heaviest query; not bounded)",
        stats::median(&p99)
    ));
    // Work completed per second at the stated input size, default algorithm.
    let queries = batch.queries.len() as f64;
    outcome.set(
        "capacity_qps",
        Summary::of(&times.batch).map(|secs| queries / secs),
    );
    outcome
}

fn roots(queries: &[PathQuery]) -> (Vec<VertexId>, Vec<VertexId>, u32) {
    let mut sources: Vec<VertexId> = queries.iter().map(|q| q.source).collect();
    let mut targets: Vec<VertexId> = queries.iter().map(|q| q.target).collect();
    sources.sort_unstable();
    sources.dedup();
    targets.sort_unstable();
    targets.dedup();
    let k_max = queries.iter().map(|q| q.hop_limit).max().unwrap_or(0);
    (sources, targets, k_max)
}

/// Takes one batch apart through the layers' public functions, recording a span around
/// each call, and sets every engine-side per-layer metric. The spans are what an outside
/// caller can see; tracing inside the crates is a later change.
pub fn engine_layers(outcome: &mut Outcome, tracer: &mut Tracer, batch: &Batch) {
    let graph: &DiGraph = &batch.graph;
    let queries = &batch.queries;
    let (sources, targets, k_max) = roots(queries);

    // Untraced references: the program's own Exp-3 rows and counters. The BatchEnum+
    // engine is kept: the same batch again on it is the fully cached case.
    let begun = Instant::now();
    let mut engine = Engine::with_algorithm(Arc::clone(&batch.graph), Algorithm::BatchEnumPlus);
    let mut sink = CountSink::new(queries.len());
    let reference = Rep {
        stats: engine.run_with_sink(queries, &mut sink),
        secs: begun.elapsed().as_secs_f64(),
        counts: sink.counts().to_vec(),
    };
    check_counts(outcome, batch, &reference.counts);
    outcome.set_value(
        "index.heap_mb",
        engine.index_heap_bytes() as f64 / (1 << 20) as f64,
    );
    let mut sink = CountSink::new(queries.len());
    tracer.span("engine.warm_batch", 0, |_| {
        engine.run_with_sink(queries, &mut sink)
    });
    outcome.set_value("engine.warm_batch_s", tracer.total_s("engine.warm_batch"));
    check_counts(outcome, batch, sink.counts());
    drop(engine);
    let basic = answer(&batch.graph, queries, Variant::BasicEnum);
    check_counts(outcome, batch, &basic.counts);
    let t2 = answer(&batch.graph, queries, Variant::BatchEnumT2);
    check_counts(outcome, batch, &t2.counts);
    let stage = |stats: &EnumStats, s: Stage| stats.stage_time(s).as_secs_f64();
    outcome.set_value(
        "stage.build_index_s",
        stage(&reference.stats, Stage::BuildIndex),
    );
    outcome.set_value(
        "stage.cluster_query_s",
        stage(&reference.stats, Stage::ClusterQuery),
    );
    outcome.set_value(
        "stage.identify_subquery_s",
        stage(&reference.stats, Stage::IdentifySubquery),
    );
    outcome.set_value(
        "stage.enumeration_s",
        stage(&reference.stats, Stage::Enumeration),
    );
    outcome.set_value("parallel.speedup_t2", reference.secs / t2.secs);
    outcome.set_value("parallel.clusters", t2.stats.num_clusters as f64);
    outcome.set_value("parallel.shards", t2.stats.num_shards as f64);

    // index: build for the batch; extend a half-built index by the other half's roots.
    let index = tracer.span("index.build", 0, |_| {
        BatchIndex::build(graph, &sources, &targets, k_max)
    });
    outcome.set_value("index.build_s", tracer.total_s("index.build"));
    outcome.set_value("index.entries", index.stats().stored_entries as f64);
    let mut half = BatchIndex::build(
        graph,
        &sources[..sources.len() / 2],
        &targets[..targets.len() / 2],
        k_max,
    );
    tracer.span("index.extend", 0, |_| {
        half.extend(graph, &sources, &targets)
    });
    outcome.set_value("index.extend_s", tracer.total_s("index.extend"));
    drop(half);

    // core.similarity + core.clustering.
    let neighborhoods: Vec<QueryNeighborhood> = tracer.span("cluster.neighborhood", 0, |_| {
        queries
            .iter()
            .map(|q| QueryNeighborhood::from_index(&index, q))
            .collect()
    });
    let matrix = tracer.span("cluster.similarity", 0, |_| {
        SimilarityMatrix::compute(&neighborhoods)
    });
    let clusters = tracer.span("cluster.cluster", 0, |_| {
        cluster_queries(&matrix, DEFAULT_GAMMA)
    });
    drop(neighborhoods);
    let cluster_s = [
        "cluster.neighborhood",
        "cluster.similarity",
        "cluster.cluster",
    ]
    .map(|name| tracer.total_s(name));
    outcome.set_value("cluster.neighborhood_s", cluster_s[0]);
    outcome.set_value("cluster.similarity_s", cluster_s[1]);
    outcome.set_value("cluster.cluster_s", cluster_s[2]);
    outcome.set_value("cluster.num_clusters", clusters.len() as f64);
    outcome.set_value("cluster.mean_similarity", matrix.average());

    // core.detection + core.sharing_graph: Ψ per cluster, as BatchEnum builds it.
    let (mut shared, mut cells, mut reuse, mut psi_nodes) = (0usize, 0usize, 0usize, 0usize);
    for (c, cluster) in clusters.iter().enumerate() {
        let members: Vec<(usize, PathQuery)> = cluster.iter().map(|&q| (q, queries[q])).collect();
        tracer.span("detect.detect", c as u64, |_| {
            let mut sharing = SharingGraph::new();
            let found = detect_cluster(graph, &index, &members, &mut sharing);
            let slacks = sharing.anchor_slacks(queries);
            let order = sharing.topological_order();
            shared += found.dominating_created;
            cells += found.cells_visited;
            reuse += found.reuse_edges;
            psi_nodes += sharing.len();
            std::hint::black_box((slacks, order));
        });
    }
    let detect_s = tracer.total_s("detect.detect");
    outcome.set_value("detect.detect_s", detect_s);
    outcome.set_value("detect.shared_subqueries", shared as f64);
    outcome.set_value("detect.cells_visited", cells as f64);
    outcome.set_value("detect.reuse_edges", reuse as f64);
    outcome.set_value("detect.psi_nodes", psi_nodes as f64);

    // core.batch_enum + core.cache: the whole shared pipeline over the built index. It
    // clusters and detects again inside; what is left after taking those out is the
    // shared enumeration.
    let order = Algorithm::BatchEnumPlus.search_order();
    let mut sink = CountSink::new(queries.len());
    let shared_stats = tracer.span("batch_enum.run_batch_with_index", 0, |_| {
        BatchEnum::new(order, DEFAULT_GAMMA).run_batch_with_index(graph, &index, queries, &mut sink)
    });
    check_counts(outcome, batch, sink.counts());
    let pipeline_s = tracer.total_s("batch_enum.run_batch_with_index");
    let overhead_s = cluster_s.iter().sum::<f64>() + detect_s;
    let enumeration_s = (pipeline_s - overhead_s).max(0.0);
    outcome.set_value("share.enumeration_s", enumeration_s);
    outcome.set_value(
        "share.cache_splices",
        shared_stats.counters.cache_splices as f64,
    );
    outcome.set_value(
        "share.peak_cached_results",
        shared_stats.peak_cached_results as f64,
    );

    // core.search + core.concat: BasicEnum+'s per-query halves and join.
    let context = SearchContext::new(graph, &index, Algorithm::BasicEnumPlus.search_order());
    let mut buffers = SearchBuffers::for_graph(graph);
    let mut counters = SearchCounters::default();
    let (mut candidate_pairs, mut produced) = (0usize, 0usize);
    let (mut forward, mut backward) = (PathSet::new(), PathSet::new());
    for (q, query) in queries.iter().enumerate() {
        for (dir, prefixes) in [
            (Direction::Forward, &mut forward),
            (Direction::Backward, &mut backward),
        ] {
            prefixes.clear();
            tracer.span("search.half", q as u64, |_| {
                context.enumerate_half_with(query, dir, &mut counters, &mut buffers, |prefix| {
                    prefixes.push_slice(prefix);
                    SinkFlow::Continue
                })
            });
        }
        let (paths, join) = tracer.span("concat.join", q as u64, |_| {
            concatenate(&forward, &backward, query.hop_limit)
        });
        outcome.check(paths.len() as u64 == batch.oracle[q]);
        candidate_pairs += join.candidate_pairs;
        produced += join.produced;
    }
    let (half_s, join_s) = (tracer.total_s("search.half"), tracer.total_s("concat.join"));
    outcome.set_value("search.half_s", half_s);
    outcome.set_value("concat.join_s", join_s);
    outcome.set_value("concat.candidate_pairs", candidate_pairs as f64);
    outcome.set_value("concat.produced_paths", produced as f64);
    outcome.set_value(
        "concat.join_yield",
        produced as f64 / (candidate_pairs as f64).max(1.0),
    );
    let basic_counters = basic.stats.counters;
    outcome.set_value(
        "search.expanded_vertices",
        basic_counters.expanded_vertices as f64,
    );
    outcome.set_value("search.scanned_edges", basic_counters.scanned_edges as f64);
    outcome.set_value("search.pruned_edges", basic_counters.pruned_edges as f64);
    outcome.set_value(
        "search.stored_prefixes",
        basic_counters.stored_prefixes as f64,
    );
    outcome.set_value(
        "search.prune_ratio",
        basic_counters.pruned_edges as f64 / (basic_counters.scanned_edges as f64).max(1.0),
    );

    // The paper's claim in two numbers.
    outcome.set_value(
        "share.expanded_ratio",
        reference.stats.counters.expanded_vertices as f64
            / (basic_counters.expanded_vertices as f64).max(1.0),
    );
    // Floored at 1 % of BasicEnum+'s enumeration: a ratio in the hundreds reads "sharing
    // saved nothing here", not a measured quotient.
    let basic_enumeration_s = stage(&basic.stats, Stage::Enumeration);
    let saved_s = (basic_enumeration_s - enumeration_s).max(0.01 * basic_enumeration_s);
    outcome.set_value("share.overhead_ratio", overhead_s / saved_s.max(1e-6));

    // The outside-instrumented path against the untraced one, and the cross-checks.
    let index_s = outcome.value("index.build_s");
    outcome.set_value(
        "trace.overhead_ratio",
        (index_s + pipeline_s) / reference.secs,
    );
    let mut compare = |what: &str, outside: f64, inside: f64, tolerance: f64| {
        if (outside - inside).abs() > tolerance * inside.max(1e-3) {
            outcome.notes.push(format!(
                "trace.disagreement: {what}: outside {outside:.4} s vs program {inside:.4} s"
            ));
        }
    };
    compare(
        "index",
        index_s,
        stage(&reference.stats, Stage::BuildIndex),
        0.15,
    );
    compare(
        "cluster",
        cluster_s.iter().sum(),
        stage(&reference.stats, Stage::ClusterQuery),
        0.15,
    );
    compare(
        "detect",
        detect_s,
        stage(&reference.stats, Stage::IdentifySubquery),
        0.15,
    );
    compare(
        "shared enumeration",
        enumeration_s,
        stage(&reference.stats, Stage::Enumeration),
        0.15,
    );
    compare(
        "batchenum layers vs batchenum_s",
        index_s + pipeline_s,
        reference.secs,
        0.10,
    );
    compare(
        "basicenum layers vs basicenum_s",
        index_s + half_s + join_s,
        basic.secs,
        0.10,
    );
}

/// The traced run of an offline workload.
pub fn run_traced(workload: Workload, plan: Plan, seed: u64) -> Outcome {
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new();
    tracer.span("graph.build", 0, |_| {
        inputs::build_graph(workload, plan.scale)
    });
    outcome.set_value("graph.build_s", tracer.total_s("graph.build"));
    let batch = setup(workload, plan, seed);
    engine_layers(&mut outcome, &mut tracer, &batch);
    outcome.spans = tracer.spans().to_vec();
    outcome
}
