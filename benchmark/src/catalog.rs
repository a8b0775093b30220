//! Every metric the benchmark emits, with its unit and direction — the single list
//! `BENCHMARK.json` mirrors (a self-test holds the two together).

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen (end-to-end only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// Metrics a user of the system would see. Every workload reports every one of them
/// (the README's glossary says what each means on each kind of workload). Bounds are
/// derived from the A/A spread recorded in the README; the 99th-percentile latency could
/// not hold any bound up to 25 % on the machine this was built on and is the per-layer
/// `server.p99_ms` instead.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("batchenum_s", "s", Lower, 0.25),
    e2e("basicenum_s", "s", Lower, 0.25),
    e2e("batchenum_t2_s", "s", Lower, 0.25),
    e2e("p50_ms", "ms", Lower, 0.25),
    e2e("capacity_qps", "stmt/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.20),
];

/// Metrics of single layers, from the traced run. A metric that does not apply to a
/// workload (storage on a read-only one, service on an offline one) reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    layer("graph.build_s", "s", Lower),
    layer("index.build_s", "s", Lower),
    layer("index.extend_s", "s", Lower),
    layer("index.entries", "count", Lower),
    layer("index.heap_mb", "MB", Lower),
    layer("cluster.neighborhood_s", "s", Lower),
    layer("cluster.similarity_s", "s", Lower),
    layer("cluster.cluster_s", "s", Lower),
    layer("cluster.num_clusters", "count", Lower),
    layer("cluster.mean_similarity", "ratio", Higher),
    layer("detect.detect_s", "s", Lower),
    layer("detect.shared_subqueries", "count", Higher),
    layer("detect.cells_visited", "count", Lower),
    layer("detect.reuse_edges", "count", Higher),
    layer("detect.psi_nodes", "count", Lower),
    layer("search.half_s", "s", Lower),
    layer("search.expanded_vertices", "count", Lower),
    layer("search.scanned_edges", "count", Lower),
    layer("search.pruned_edges", "count", Higher),
    layer("search.stored_prefixes", "count", Lower),
    layer("search.prune_ratio", "ratio", Higher),
    layer("concat.join_s", "s", Lower),
    layer("concat.candidate_pairs", "count", Lower),
    layer("concat.produced_paths", "count", Higher),
    layer("concat.join_yield", "ratio", Higher),
    layer("share.enumeration_s", "s", Lower),
    layer("share.cache_splices", "count", Higher),
    layer("share.peak_cached_results", "count", Lower),
    layer("share.expanded_ratio", "ratio", Lower),
    layer("share.overhead_ratio", "ratio", Lower),
    layer("stage.build_index_s", "s", Lower),
    layer("stage.cluster_query_s", "s", Lower),
    layer("stage.identify_subquery_s", "s", Lower),
    layer("stage.enumeration_s", "s", Lower),
    layer("engine.warm_batch_s", "s", Lower),
    layer("engine.advance_epoch_us", "us", Lower),
    layer("parallel.speedup_t2", "ratio", Higher),
    layer("parallel.clusters", "count", Higher),
    layer("parallel.shards", "count", Higher),
    layer("service.admit_us", "us", Lower),
    layer("service.inproc_p50_ms", "ms", Lower),
    layer("service.inproc_p99_ms", "ms", Lower),
    layer("service.mean_batch_size", "count", Higher),
    layer("service.queue_wait_ms", "ms", Lower),
    layer("service.exec_ms_per_batch", "ms", Lower),
    layer("service.sharing_ratio", "ratio", Higher),
    layer("service.num_batches", "count", Lower),
    layer("service.update_coalesce_ratio", "ratio", Higher),
    layer("service.epochs_published", "count", Lower),
    layer("service.group_commit_batches", "count", Lower),
    layer("service.batches_pinned_behind", "count", Lower),
    layer("service.rebfs_avoided", "count", Higher),
    layer("lang.parse_ns", "ns", Lower),
    layer("frame.req_encode_ns", "ns", Lower),
    layer("frame.req_decode_ns", "ns", Lower),
    layer("frame.resp_encode_ns", "ns", Lower),
    layer("frame.resp_decode_ns", "ns", Lower),
    layer("frame.bytes_per_reply", "B", Lower),
    layer("server.p99_ms", "ms", Lower),
    layer("server.update_p50_ms", "ms", Lower),
    layer("server.wire_overhead_ms", "ms", Lower),
    layer("server.late_p99_ms", "ms", Lower),
    layer("server.p99_ms.r400", "ms", Lower),
    layer("server.p99_ms.r1200", "ms", Lower),
    layer("server.max_ok_rate_qps", "stmt/s", Higher),
    layer("storage.append_sync_us", "us", Lower),
    layer("storage.append_unsynced_us", "us", Lower),
    layer("storage.sync_us", "us", Lower),
    layer("storage.wal_bytes_per_update", "B", Lower),
    layer("storage.checkpoint_s", "s", Lower),
    layer("storage.recover_s", "s", Lower),
    layer("epoch.publish_us", "us", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}
