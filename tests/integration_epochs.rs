//! Integration: epoch-pinned snapshot reads cross-validated against scratch rebuilds.
//!
//! The epoch protocol's promise is that *pinning* is free of coordination: a batch
//! pinned to epoch `e` answers byte-identically to a fresh engine built from scratch
//! over the epoch-`e` graph, no matter how many later epochs have been published in the
//! meantime, and no matter how far behind the executing engine's cached index was when
//! the batch arrived (incremental delta catch-up and the invalidation fallback must be
//! equally invisible). The service-level stress test swaps the only route between two
//! alternatives, epoch after epoch, under concurrent readers: any torn read — a query
//! observing half an update — would return zero or two paths instead of exactly one.

use hcsp::prelude::*;
use hcsp::workload::{update_stream, Dataset, DatasetScale, StreamEvent, UpdateStreamSpec};
use std::sync::Arc;
use std::time::Duration;

/// A query batch pinned to the epoch that was the tip when it was admitted.
type PinnedBatch = (Arc<Epoch>, Vec<PathQuery>);

/// Walks a delete-heavy mixed stream, publishing every update as an epoch and grouping
/// the queries between updates under the epoch they would pin at admission. Returns the
/// per-epoch query batches (only the non-empty ones).
fn pinned_batches(graph: &DiGraph, spec: UpdateStreamSpec) -> (Vec<PinnedBatch>, usize) {
    let events = update_stream(graph, spec);
    assert!(
        events.iter().any(|e| !e.is_query()) && events.iter().any(StreamEvent::is_query),
        "the stream must interleave queries and updates"
    );
    let mut publisher = EpochPublisher::new(graph.clone());
    let mut batches: Vec<PinnedBatch> = Vec::new();
    let mut pending: Vec<PathQuery> = Vec::new();
    let mut epochs_published = 0usize;
    for event in &events {
        match event {
            StreamEvent::Query(q) => pending.push(*q),
            StreamEvent::Update(batch) => {
                if !pending.is_empty() {
                    batches.push((publisher.tip(), std::mem::take(&mut pending)));
                }
                let before = publisher.tip().id();
                let (tip, summary) = publisher.publish(batch);
                assert_eq!(summary.applied, batch.len(), "stream updates always apply");
                if tip.id() != before {
                    epochs_published += 1;
                }
            }
        }
    }
    if !pending.is_empty() {
        batches.push((publisher.tip(), pending));
    }
    (batches, epochs_published)
}

/// Executes every pinned batch twice — on a live engine advanced to each batch's epoch,
/// and on a laggard engine that also serves every batch but whose advances therefore
/// cross multiple epochs at once whenever consecutive batches skip epochs — comparing
/// both, per batch, against a fresh engine built from scratch at the pinned epoch.
///
/// Crucially, *every* epoch is already published before the first batch executes: the
/// pinned snapshots must be unaffected by the later updates that have long since landed.
fn cross_validate_pinned_reads(algorithm: Algorithm, parallelism: Option<usize>) {
    let graph = Dataset::EP.build(DatasetScale::Tiny);
    let spec = UpdateStreamSpec::delete_heavy(18, 7, 31).with_hops(3, 4);
    let (batches, epochs_published) = pinned_batches(&graph, spec);
    assert!(epochs_published >= 2, "need several epochs to cross");

    let config = BatchEngine::with_algorithm(algorithm);
    let mut live = Engine::at_epoch(&batches[0].0, config);
    // The laggard serves only every other batch, so its advances cross wider gaps
    // (including, on long streams, the delta window's invalidation fallback).
    let mut laggard = Engine::at_epoch(&batches[0].0, config);

    let run = |engine: &mut Engine, queries: &[PathQuery]| match parallelism {
        Some(threads) => engine.run_batch_parallel(queries, Parallelism::Fixed(threads)),
        None => engine.run(queries),
    };

    for (i, (epoch, queries)) in batches.iter().enumerate() {
        let mut fresh = Engine::at_epoch(epoch, config);
        let expected = fresh.run(queries);

        let advance = live.advance_to_epoch(epoch);
        assert_eq!(live.epoch_id(), epoch.id());
        assert!(!advance.invalidated || advance.epochs_crossed > 0);
        let outcome = run(&mut live, queries);
        assert_eq!(
            outcome.paths,
            expected.paths,
            "{algorithm} (parallelism {parallelism:?}) diverged from the scratch rebuild \
             at epoch {} on batch {i}",
            epoch.id()
        );

        if i % 2 == 0 {
            laggard.advance_to_epoch(epoch);
            let outcome = run(&mut laggard, queries);
            assert_eq!(
                outcome.paths,
                expected.paths,
                "laggard {algorithm} (parallelism {parallelism:?}) diverged at epoch {}",
                epoch.id()
            );
        }
    }

    let reuse = live.index_reuse();
    assert!(
        reuse.epoch_advances >= 1,
        "the live engine must have advanced through epochs: {reuse:?}"
    );
}

#[test]
fn pinned_reads_match_scratch_rebuilds_path_enum() {
    cross_validate_pinned_reads(Algorithm::PathEnum, None);
}

#[test]
fn pinned_reads_match_scratch_rebuilds_basic_enum() {
    cross_validate_pinned_reads(Algorithm::BasicEnum, None);
}

#[test]
fn pinned_reads_match_scratch_rebuilds_basic_enum_plus() {
    cross_validate_pinned_reads(Algorithm::BasicEnumPlus, None);
}

#[test]
fn pinned_reads_match_scratch_rebuilds_batch_enum() {
    cross_validate_pinned_reads(Algorithm::BatchEnum, None);
}

#[test]
fn pinned_reads_match_scratch_rebuilds_batch_enum_plus() {
    cross_validate_pinned_reads(Algorithm::BatchEnumPlus, None);
}

#[test]
fn pinned_reads_match_scratch_rebuilds_parallel_2_threads() {
    cross_validate_pinned_reads(Algorithm::BasicEnumPlus, Some(2));
    cross_validate_pinned_reads(Algorithm::BatchEnumPlus, Some(2));
}

#[test]
fn pinned_reads_match_scratch_rebuilds_parallel_4_threads() {
    cross_validate_pinned_reads(Algorithm::BatchEnumPlus, Some(4));
}

/// A laggard further behind than the retained delta window must fall back to an index
/// invalidation — and still answer byte-identically.
#[test]
fn catching_up_past_the_delta_window_stays_byte_identical() {
    let graph = Dataset::EP.build(DatasetScale::Tiny);
    let mut publisher = EpochPublisher::new(graph.clone());
    let start = publisher.tip();

    // Publish MAX_EPOCH_DELTAS + 3 effective delete epochs, so `start` is far behind.
    for (u, v) in graph.edges() {
        if publisher.tip().id() >= (MAX_EPOCH_DELTAS + 3) as u64 {
            break;
        }
        publisher.publish(&[GraphUpdate::Delete(u, v)]);
    }
    let tip = publisher.tip();
    assert!(tip.id() > MAX_EPOCH_DELTAS as u64);

    let queries: Vec<PathQuery> = graph
        .edges()
        .take(6)
        .map(|(u, v)| PathQuery::new(u, v, 4))
        .collect();

    let mut engine = Engine::at_epoch(&start, BatchEngine::default());
    let warm = engine.run(&queries); // build the cached index at the start epoch
    assert!(!warm.paths.iter().all(|p| p.is_empty()));

    let advance = engine.advance_to_epoch(&tip);
    assert!(advance.invalidated, "the gap exceeds the retained window");
    assert_eq!(advance.epochs_crossed, tip.id());

    let outcome = engine.run(&queries);
    let mut fresh = Engine::at_epoch(&tip, BatchEngine::default());
    assert_eq!(outcome.paths, fresh.run(&queries).paths);
}

/// Service-level torn-read stress: the graph always contains exactly one 2-hop route
/// from 0 to 3 — through 1 on even epochs, through 2 on odd epochs — and a writer swaps
/// the route while reader threads hammer the service. Every answer must be exactly one
/// of the two legal routes, never zero paths (a half-applied swap) and never both.
#[test]
fn route_swap_updates_never_tear_under_concurrent_readers() {
    let route_a = [VertexId(0), VertexId(1), VertexId(3)];
    let route_b = [VertexId(0), VertexId(2), VertexId(3)];
    let swaps = 24usize;
    let graph = DiGraph::from_edge_list(4, &[(0, 1), (1, 3)]).unwrap();
    let q = PathQuery::new(0u32, 3u32, 2);

    let service = hcsp::service::PathService::builder()
        .workers(2)
        .policy(BatchPolicy::by_size(4, Duration::from_millis(1)))
        .start(graph)
        .unwrap();

    let results: Vec<PathSet> = std::thread::scope(|scope| {
        let service = &service;
        let writer = scope.spawn(move || {
            for i in 0..swaps {
                let to_b = i % 2 == 0;
                let (gone, fresh) = if to_b {
                    (route_a, route_b)
                } else {
                    (route_b, route_a)
                };
                let summary = service
                    .try_update(vec![
                        GraphUpdate::Delete(gone[0], gone[1]),
                        GraphUpdate::Delete(gone[1], gone[2]),
                        GraphUpdate::Insert(fresh[0], fresh[1]),
                        GraphUpdate::Insert(fresh[1], fresh[2]),
                    ])
                    .unwrap()
                    .wait_result()
                    .unwrap();
                assert_eq!(summary.applied, 4, "swap {i} must fully apply");
                std::thread::sleep(Duration::from_micros(200));
            }
        });
        let readers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(move || {
                    let handles: Vec<SpecHandle> = (0..60)
                        .map(|_| {
                            std::thread::sleep(Duration::from_micros(100));
                            service.try_submit_spec(QuerySpec::collect(q)).unwrap()
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.wait_result().unwrap().response.into_paths().unwrap())
                        .collect::<Vec<PathSet>>()
                })
            })
            .collect();
        writer.join().unwrap();
        readers
            .into_iter()
            .flat_map(|r| r.join().unwrap())
            .collect()
    });

    assert_eq!(results.len(), 120);
    for paths in &results {
        assert_eq!(paths.len(), 1, "a torn route swap would yield 0 or 2 paths");
        let path = paths.get(0);
        assert!(
            path == route_a.as_slice() || path == route_b.as_slice(),
            "unexpected route {path:?}"
        );
    }

    let stats = service.shutdown();
    assert_eq!(stats.num_queries, 120);
    assert_eq!(stats.epochs_published, swaps);
    assert_eq!(stats.updates_applied, 4 * swaps);
}
