//! Integration: dynamic graph updates cross-validated against rebuild-from-scratch.
//!
//! The update path (DeltaGraph overlay → compaction → incremental index maintenance)
//! must be invisible in the results: after *every* insert/delete step, a long-lived
//! engine that absorbed the updates answers byte-identically (same per-query paths,
//! same order) to a fresh engine built from scratch over the equivalently mutated
//! graph — sequentially and on the parallel executor — and a `PathService` consuming
//! interleaved queries and updates stays lossless versus the offline oracle.

use hcsp::prelude::*;
use hcsp::workload::{update_stream, Dataset, DatasetScale, StreamEvent, UpdateStreamSpec};
use std::sync::Arc;
use std::time::Duration;

/// Drives one engine through a mixed stream, cross-validating against a from-scratch
/// rebuild after every step. Queries accumulate between updates and run as shared
/// batches, so the sharing machinery (clustering, Ψ evaluation, result cache) is
/// exercised on every evolved snapshot, not just single-query paths.
fn evolve_and_cross_validate(algorithm: Algorithm, parallelism: Option<usize>) {
    let graph = Dataset::EP.build(DatasetScale::Tiny);
    let spec = UpdateStreamSpec::new(18, 7, 23)
        .with_hops(3, 4)
        .with_updates(4, 0.5);
    let events = update_stream(&graph, spec);
    assert!(
        events.iter().any(|e| !e.is_query()) && events.iter().any(StreamEvent::is_query),
        "the stream must interleave queries and updates"
    );

    let mut engine = Engine::with_algorithm(graph.clone(), algorithm);
    let mut oracle = DeltaGraph::new(graph);
    let mut pending: Vec<PathQuery> = Vec::new();

    let run_pending = |engine: &mut Engine, oracle: &DeltaGraph, pending: &mut Vec<PathQuery>| {
        if pending.is_empty() {
            return;
        }
        let outcome = match parallelism {
            Some(threads) => engine.run_batch_parallel(pending, Parallelism::Fixed(threads)),
            None => engine.run(pending),
        };
        let mut fresh = Engine::with_algorithm(oracle.compact(), algorithm);
        let expected = fresh.run(pending);
        assert_eq!(
            outcome.paths, expected.paths,
            "{algorithm} (parallelism {parallelism:?}) diverged from a from-scratch \
             rebuild on {pending:?}"
        );
        pending.clear();
    };

    for event in &events {
        match event {
            StreamEvent::Query(q) => pending.push(*q),
            StreamEvent::Update(batch) => {
                // Flush queries against the pre-update snapshot, then mutate both sides.
                run_pending(&mut engine, &oracle, &mut pending);
                let summary = engine.apply_updates(batch);
                assert_eq!(summary.applied, batch.len(), "stream updates always apply");
                for update in batch {
                    assert!(oracle.apply(update));
                }
                // The step itself must already agree at the graph level...
                assert_eq!(*engine.graph(), oracle.compact());
                // ...and at the result level: validate immediately after every step.
                let probe = PathQuery::new(
                    0u32,
                    (engine.graph().num_vertices() as u32).saturating_sub(1),
                    4,
                );
                pending.push(probe);
                run_pending(&mut engine, &oracle, &mut pending);
            }
        }
    }
    run_pending(&mut engine, &oracle, &mut pending);
}

#[test]
fn sequential_update_path_is_byte_identical_to_rebuild_for_every_algorithm() {
    for algorithm in Algorithm::ALL {
        evolve_and_cross_validate(algorithm, None);
    }
}

#[test]
fn parallel_update_path_is_byte_identical_to_rebuild() {
    for threads in [2, 4] {
        evolve_and_cross_validate(Algorithm::BatchEnumPlus, Some(threads));
        evolve_and_cross_validate(Algorithm::BasicEnumPlus, Some(threads));
    }
}

/// Replays a mixed stream through a `PathService`, checking every delivered path set
/// against the offline oracle for the snapshot the query was admitted under.
fn service_stream_is_lossless(workers: usize) {
    let graph = Dataset::WT.build(DatasetScale::Tiny);
    let spec = UpdateStreamSpec::new(16, 6, 5)
        .with_hops(3, 4)
        .with_updates(3, 0.5);
    let events = update_stream(&graph, spec);

    let service = PathService::builder()
        .workers(workers)
        .policy(BatchPolicy::by_size(4, Duration::from_millis(5)))
        .start(graph.clone())
        .unwrap();

    // Submit the whole stream in admission order, recording each query's expected
    // answer from an offline engine over the snapshot it was admitted under.
    let mut oracle = DeltaGraph::new(graph);
    let mut snapshot = Arc::new(oracle.compact());
    let mut snapshot_dirty = false;
    let mut expectations = Vec::new();
    for event in &events {
        match event {
            StreamEvent::Query(q) => {
                if snapshot_dirty {
                    snapshot = Arc::new(oracle.compact());
                    snapshot_dirty = false;
                }
                let expected =
                    Engine::new(Arc::clone(&snapshot), BatchEngine::default()).run(&[*q]);
                let handle = service.try_submit_spec(QuerySpec::collect(*q)).unwrap();
                expectations.push((handle, *q, expected.paths));
            }
            StreamEvent::Update(batch) => {
                // Fire-and-forget: queue order alone guarantees the update lands
                // before any later query, and shutdown() drains everything.
                let _ = service.try_update(batch.clone());
                for update in batch {
                    oracle.apply(update);
                }
                snapshot_dirty = true;
            }
        }
    }
    let stats = service.shutdown();
    assert_eq!(stats.num_queries, expectations.len());
    assert!(stats.update_batches > 0);

    for (handle, query, expected) in expectations {
        let paths = handle.wait_result().unwrap().response.into_paths().unwrap();
        assert_eq!(
            vec![paths],
            expected,
            "service ({workers} workers) lost losslessness \
             on {query} against its admission snapshot"
        );
    }
}

#[test]
fn service_with_interleaved_updates_is_lossless_single_worker() {
    service_stream_is_lossless(1);
}

#[test]
fn service_with_interleaved_updates_is_lossless_across_a_pool() {
    service_stream_is_lossless(3);
}

#[test]
fn update_stream_oracle_fold_matches_stepwise_application() {
    let graph = Dataset::EP.build(DatasetScale::Tiny);
    let events = update_stream(
        &graph,
        UpdateStreamSpec::new(6, 5, 77)
            .with_hops(3, 3)
            .with_updates(6, 0.3),
    );
    let folded = hcsp::workload::fold_updates(&graph, &events);
    let mut engine = Engine::new(graph, BatchEngine::default());
    for event in &events {
        if let StreamEvent::Update(batch) = event {
            engine.apply_updates(batch);
        }
    }
    assert_eq!(*engine.graph(), folded);
}
