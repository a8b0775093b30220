//! The reader of every instrumentation counter: each field of `SearchCounters`,
//! `IndexReuse` and `ServiceStats` is read here. The L5 `dead-counter` rule of `hcsp-lint`
//! counts a field as reported only when this file reads it, so a new counter lands
//! together with a workload that moves it.
//!
//! Three short workloads drive the counters: one shared batch (search counters), one
//! engine taken through repeats, new endpoints, a delete-heavy update, an epoch advance,
//! an over-cap update and a root cap (index reuse), and one live durable service session
//! (service counters). Every counter those workloads move deterministically is asserted
//! positive; timing-valued and scheduling-dependent ones are read and checked only for
//! consistency.

use hcsp_core::{BatchEngine, Engine, EpochPublisher, PathQuery, QuerySpec};
use hcsp_graph::generators::regular::grid;
use hcsp_graph::{DiGraph, GraphBuilder, GraphUpdate, VertexId};
use hcsp_service::{BatchPolicy, DurabilityOptions, FsyncPolicy, PathService};
use hcsp_storage::FailpointFs;
use std::time::Duration;

/// The running example of the paper (Fig. 2): five queries whose halves overlap, so
/// BatchEnum+ detects shared sub-queries and splices their cached results.
fn paper_graph() -> DiGraph {
    let edges: &[(u32, u32)] = &[
        (0, 1),
        (0, 4),
        (2, 1),
        (2, 4),
        (5, 1),
        (1, 7),
        (1, 8),
        (7, 10),
        (7, 8),
        (10, 12),
        (12, 11),
        (12, 13),
        (4, 9),
        (9, 3),
        (9, 15),
        (9, 8),
        (3, 6),
        (15, 6),
        (6, 11),
        (6, 13),
        (6, 14),
    ];
    let mut builder = GraphBuilder::new();
    for &(u, v) in edges {
        builder.add_edge(VertexId(u), VertexId(v));
    }
    builder.build()
}

fn paper_queries() -> Vec<PathQuery> {
    vec![
        PathQuery::new(0u32, 11u32, 5),
        PathQuery::new(2u32, 13u32, 5),
        PathQuery::new(5u32, 12u32, 5),
        PathQuery::new(4u32, 14u32, 4),
        PathQuery::new(9u32, 14u32, 3),
    ]
}

/// Deleting `1 → 5` from `grid(4, 4)` leaves vertex 5 its equal-length parent 4 (a
/// supported delete); deleting `0 → 1` strands vertex 1 from root 0 (a dirty root).
fn delete_heavy_update() -> Vec<GraphUpdate> {
    vec![
        GraphUpdate::delete(1u32, 5u32),
        GraphUpdate::delete(0u32, 1u32),
    ]
}

#[test]
fn search_counters_move_on_a_shared_batch() {
    let mut engine = Engine::new(paper_graph(), BatchEngine::default());
    let (_, stats) = engine.run_counting(&paper_queries());
    let c = stats.counters;
    for (name, value) in [
        ("expanded_vertices", c.expanded_vertices),
        ("scanned_edges", c.scanned_edges),
        ("pruned_edges", c.pruned_edges),
        ("stored_prefixes", c.stored_prefixes),
        ("cache_splices", c.cache_splices),
        ("produced_paths", c.produced_paths),
    ] {
        assert!(value > 0, "SearchCounters.{name} did not move: {c:?}");
    }
}

#[test]
fn index_reuse_counters_move_across_repeats_updates_and_epochs() {
    let mut publisher = EpochPublisher::new(grid(4, 4));
    let mut engine = Engine::at_epoch(&publisher.tip(), BatchEngine::default());
    let batch = [
        PathQuery::new(0u32, 15u32, 6),
        PathQuery::new(4u32, 15u32, 5),
    ];

    engine.run_counting(&batch); // rebuild
    engine.run_counting(&batch); // hit
    engine.run_counting(&[PathQuery::new(1u32, 14u32, 5)]); // extension

    // A delete-heavy update crossing one epoch: one supported delete, one dirty root,
    // flushed by the next batch.
    let (epoch, summary) = publisher.publish(&delete_heavy_update());
    assert_eq!(summary.applied, 2);
    engine.advance_to_epoch(&epoch);
    engine.run_counting(&batch);

    // An update over the refresh cap drops the index instead of maintaining it.
    engine.set_update_refresh_cap(Some(0));
    engine.apply_updates(&[GraphUpdate::insert(0u32, 1u32)]);
    engine.run_counting(&batch);

    // A root cap below the cached roots resets the index before the next batch.
    engine.set_index_root_cap(Some(1));
    engine.run_counting(&batch);

    let reuse = engine.index_reuse();
    for (name, value) in [
        ("rebuilds", reuse.rebuilds),
        ("extensions", reuse.extensions),
        ("hits", reuse.hits),
        ("roots_added", reuse.roots_added),
        ("resets", reuse.resets),
        ("update_refreshes", reuse.update_refreshes),
        ("invalidations", reuse.invalidations),
        ("dirty_flushes", reuse.dirty_flushes),
        ("dirty_roots_refreshed", reuse.dirty_roots_refreshed),
        ("epoch_advances", reuse.epoch_advances),
        ("deletes_supported", reuse.deletes_supported),
    ] {
        assert!(value > 0, "IndexReuse.{name} did not move: {reuse:?}");
    }
}

#[test]
fn service_stats_move_in_a_live_durable_session() {
    let fs = FailpointFs::new();
    let service = PathService::builder()
        .workers(1)
        .policy(BatchPolicy::immediate())
        .durability(DurabilityOptions::vfs(fs.as_vfs()).fsync(FsyncPolicy::Always))
        .start(grid(4, 4))
        .expect("an in-memory durable service starts");
    let q = PathQuery::new(0u32, 15u32, 6);

    // Warm the worker's index, delete under it, then query again: the worker advances
    // its engine across the epoch and the survivor scan spares the supported root.
    let collect = |service: &PathService| {
        let handle = service.try_submit_spec(QuerySpec::collect(q)).unwrap();
        handle.wait_result().unwrap().response.into_paths().unwrap()
    };
    assert!(!collect(&service).is_empty());
    service
        .try_update(delete_heavy_update())
        .unwrap()
        .wait_result()
        .unwrap();
    assert!(!collect(&service).is_empty());
    let stats = service.shutdown();

    for (name, value) in [
        ("num_batches", stats.num_batches),
        ("num_queries", stats.num_queries),
        ("max_batch_size", stats.max_batch_size),
        ("num_clusters", stats.num_clusters),
        ("produced_paths", stats.produced_paths as usize),
        ("update_batches", stats.update_batches),
        ("update_calls", stats.update_calls),
        ("updates_applied", stats.updates_applied),
        ("epochs_published", stats.epochs_published),
        ("group_commit_batches", stats.group_commit_batches as usize),
        ("rebfs_avoided", stats.rebfs_avoided),
    ] {
        assert!(value > 0, "ServiceStats.{name} did not move: {stats:?}");
    }
    // Timing-valued and scheduling-dependent counters: read, checked for consistency.
    assert!(stats.max_queue_wait <= stats.total_queue_wait);
    assert!(stats.total_exec_time > Duration::ZERO);
    assert!(stats.batches_pinned_behind <= stats.num_batches);
}
