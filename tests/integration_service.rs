//! Service mode is lossless: queries fed one-by-one through `PathService` — under any
//! batching policy — yield exactly the same per-query path sets as one offline
//! `BatchEnum+` run over the same workload, and a size cap of one is per-query
//! execution.

use hcsp::prelude::*;
use hcsp::service::{BatchPolicy, PathService, SpecHandle, SpecResult};
use hcsp::workload::{similar_query_set, ArrivalProcess, Dataset, DatasetScale, QuerySetSpec};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Canonical form of a path set: the sorted set of vertex-id sequences.
fn canonical(paths: &PathSet) -> BTreeSet<Vec<u32>> {
    paths
        .iter()
        .map(|p| p.iter().map(|v| v.raw()).collect())
        .collect()
}

/// The seeded service workload every case below replays: a similarity-heavy stream on the
/// EP dataset analog, the regime micro-batching is built for.
fn service_workload() -> (DiGraph, Vec<PathQuery>) {
    let graph = Dataset::EP.build(DatasetScale::Tiny);
    let queries = similar_query_set(&graph, QuerySetSpec::new(24, 11).with_hops(3, 4), 0.5);
    assert!(!queries.is_empty());
    (graph, queries)
}

/// Admits every query in `Collect` mode, back to back.
fn admit_all(service: &PathService, queries: &[PathQuery]) -> Vec<SpecHandle> {
    queries
        .iter()
        .map(|&q| service.try_submit_spec(QuerySpec::collect(q)).unwrap())
        .collect()
}

/// Waits for a `Collect` answer; returns it with its canonical path set.
fn collected(handle: SpecHandle) -> (SpecResult, BTreeSet<Vec<u32>>) {
    let result = handle.wait_result().unwrap();
    let paths = canonical(result.response.paths().unwrap());
    (result, paths)
}

/// One offline `BatchEnum+` run: the ground truth the service must reproduce.
fn offline_reference(graph: &DiGraph, queries: &[PathQuery]) -> Vec<BTreeSet<Vec<u32>>> {
    let outcome = Engine::with_algorithm(graph.clone(), Algorithm::BatchEnumPlus).run(queries);
    outcome.paths.iter().map(canonical).collect()
}

#[test]
fn service_is_lossless_under_every_batching_policy() {
    let (graph, queries) = service_workload();
    let reference = offline_reference(&graph, &queries);

    let policies = [
        ("immediate", BatchPolicy::immediate()),
        (
            "tiny_windows",
            BatchPolicy::by_size(3, Duration::from_millis(20)),
        ),
        (
            "mid_windows",
            BatchPolicy::by_size(8, Duration::from_millis(50)),
        ),
        (
            "one_batch",
            BatchPolicy::by_size(queries.len(), Duration::from_millis(200)),
        ),
    ];
    for (name, policy) in policies {
        let service = PathService::builder()
            .policy(policy)
            .start(graph.clone())
            .unwrap();
        let handles = admit_all(&service, &queries);
        for (i, handle) in handles.into_iter().enumerate() {
            assert_eq!(
                collected(handle).1,
                reference[i],
                "policy {name}: query {} must match the offline batch run",
                queries[i]
            );
        }
        let stats = service.shutdown();
        assert_eq!(stats.num_queries, queries.len(), "policy {name}");
        assert_eq!(
            stats.produced_paths,
            reference.iter().map(|p| p.len() as u64).sum::<u64>(),
            "policy {name}"
        );
    }
}

#[test]
fn zero_deadline_degenerates_to_per_query_execution() {
    let (graph, queries) = service_workload();
    let reference = offline_reference(&graph, &queries);

    let service = PathService::builder()
        .policy(BatchPolicy::immediate())
        .start(graph)
        .unwrap();
    let handles = admit_all(&service, &queries);
    for (i, handle) in handles.into_iter().enumerate() {
        let (result, paths) = collected(handle);
        assert_eq!(result.batch_size, 1, "size cap 1 ⇒ singleton batches");
        assert_eq!(paths, reference[i]);
    }
    let stats = service.shutdown();
    assert_eq!(stats.num_batches, stats.num_queries);
    assert_eq!(stats.max_batch_size, 1);
    assert_eq!(
        stats.sharing_ratio(),
        0.0,
        "no cross-query sharing possible"
    );
}

#[test]
fn replayed_poisson_stream_is_lossless_with_multiple_workers() {
    let (graph, queries) = service_workload();
    let reference = offline_reference(&graph, &queries);

    // A fast Poisson stream (mean gap 0.2 ms) over a 2-worker pool with small windows:
    // batch formation, index reuse and parallel dispatch all engaged at once.
    let schedule = ArrivalProcess::Poisson { rate_qps: 5000.0 }.schedule(&queries, 7);
    let service = PathService::builder()
        .workers(2)
        .policy(BatchPolicy::by_size(6, Duration::from_millis(5)))
        .start(graph)
        .unwrap();
    // Replay the schedule open-loop: sleep until each offset, then submit.
    let start = Instant::now();
    let handles: Vec<SpecHandle> = schedule
        .into_iter()
        .map(|(offset, query)| {
            std::thread::sleep(offset.saturating_sub(start.elapsed()));
            service.try_submit_spec(QuerySpec::collect(query)).unwrap()
        })
        .collect();
    for (i, handle) in handles.into_iter().enumerate() {
        assert_eq!(collected(handle).1, reference[i]);
    }
    let stats = service.shutdown();
    assert_eq!(stats.num_queries, queries.len());
}

#[test]
fn service_stats_expose_micro_batch_counters() {
    let (graph, queries) = service_workload();
    let service = PathService::builder()
        .policy(BatchPolicy::by_size(
            queries.len(),
            Duration::from_millis(200),
        ))
        .start(graph)
        .unwrap();
    for handle in admit_all(&service, &queries) {
        handle.wait_result().unwrap();
    }
    let uptime = service.uptime();
    let stats = service.shutdown();
    assert!(stats.num_batches >= 1);
    assert!(
        stats.mean_batch_size() > 1.0,
        "the window must have batched"
    );
    assert!(
        stats.sharing_ratio() > 0.0,
        "a similarity-heavy stream in one window must cluster"
    );
    assert!(stats.total_exec_time > Duration::ZERO);
    assert!(stats.throughput_qps(uptime) > 0.0);
}
