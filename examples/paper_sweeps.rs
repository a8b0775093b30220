//! Two of the paper's figure sweeps that `benchmark/` does not answer, as counts on the
//! tiny dataset analogs:
//!
//! * Exp-1 (Fig. 7): target vs measured query-set similarity µ_Q, the clusters and Ψ nodes
//!   BatchEnum+ forms, and the vertices BasicEnum+ and BatchEnum+ expand — the
//!   hardware-independent view of what sharing saves as similarity grows.
//! * Exp-4 (Fig. 10): clusters and shared sub-queries as the clustering threshold γ
//!   grows.
//!
//! Nothing is timed: every column is a count or a ratio of counts, so the tables are the
//! same on every machine. Times live in `benchmark/` (see `benchmark/README.md`).
//!
//! ```text
//! cargo run --release --example paper_sweeps
//! ```

// Stdout is the product here: the example prints the sweep tables.
#![allow(clippy::print_stdout)]

use hcsp::core::clustering::cluster_queries;
use hcsp::core::detection::detect_cluster;
use hcsp::core::query::BatchSummary;
use hcsp::core::sharing_graph::SharingGraph;
use hcsp::core::similarity::{QueryNeighborhood, SimilarityMatrix};
use hcsp::core::DEFAULT_GAMMA;
use hcsp::prelude::*;
use hcsp::workload::{similar_query_set, Dataset, DatasetScale, QuerySetSpec};

/// Target similarities of the Exp-1 sweep.
const SIMILARITIES: [f64; 6] = [0.0, 0.2, 0.4, 0.6, 0.8, 0.9];

/// Clustering thresholds of the Exp-4 sweep.
const GAMMAS: [f64; 10] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

/// Queries per batch, their hop range and the generator seed.
fn spec() -> QuerySetSpec {
    QuerySetSpec::new(20, 42).with_hops(3, 4)
}

/// The measured µ_Q of a batch and the number of Ψ nodes its clusters detect at `gamma`,
/// built the way BatchEnum+ builds them.
fn similarity_and_psi(graph: &DiGraph, queries: &[PathQuery], gamma: f64) -> (f64, usize) {
    let summary = BatchSummary::of(queries);
    let index = BatchIndex::build(
        graph,
        &summary.sources,
        &summary.targets,
        summary.max_hop_limit,
    );
    let neighborhoods: Vec<QueryNeighborhood> = queries
        .iter()
        .map(|q| QueryNeighborhood::from_index(&index, q))
        .collect();
    let matrix = SimilarityMatrix::compute(&neighborhoods);
    let mut psi_nodes = 0;
    for cluster in cluster_queries(&matrix, gamma) {
        let members: Vec<(usize, PathQuery)> = cluster.iter().map(|&q| (q, queries[q])).collect();
        let mut sharing = SharingGraph::new();
        detect_cluster(graph, &index, &members, &mut sharing);
        psi_nodes += sharing.len();
    }
    (matrix.average(), psi_nodes)
}

/// The statistics of one counting run.
fn run(graph: &DiGraph, queries: &[PathQuery], algorithm: Algorithm, gamma: f64) -> EnumStats {
    let config = BatchEngine::builder()
        .algorithm(algorithm)
        .gamma(gamma)
        .build();
    Engine::new(graph.clone(), config).run_counting(queries).1
}

fn exp1_similarity_sweep(dataset: Dataset, graph: &DiGraph) {
    for target in SIMILARITIES {
        let queries = similar_query_set(graph, spec(), target);
        if queries.is_empty() {
            continue;
        }
        let (mu, psi_nodes) = similarity_and_psi(graph, &queries, DEFAULT_GAMMA);
        let basic = run(graph, &queries, Algorithm::BasicEnumPlus, DEFAULT_GAMMA);
        let batch = run(graph, &queries, Algorithm::BatchEnumPlus, DEFAULT_GAMMA);
        let (basic_x, batch_x) = (
            basic.counters.expanded_vertices,
            batch.counters.expanded_vertices,
        );
        println!(
            "{:<4} {:>6.0}% {:>7.3} {:>8} {:>6} {:>11} {:>11} {:>7.2}x",
            dataset.to_string(),
            target * 100.0,
            mu,
            batch.num_clusters,
            psi_nodes,
            basic_x,
            batch_x,
            basic_x as f64 / batch_x.max(1) as f64,
        );
    }
}

fn exp4_gamma_sweep(dataset: Dataset, graph: &DiGraph) {
    // Exp-4 is most telling on a batch with real overlap: a moderately similar set.
    let queries = similar_query_set(graph, spec(), 0.5);
    if queries.is_empty() {
        return;
    }
    for gamma in GAMMAS {
        let stats = run(graph, &queries, Algorithm::BatchEnumPlus, gamma);
        println!(
            "{:<4} {:>5.1} {:>8} {:>7}",
            dataset.to_string(),
            gamma,
            stats.num_clusters,
            stats.num_shared_subqueries,
        );
    }
}

fn main() {
    let graphs: Vec<(Dataset, DiGraph)> = Dataset::SMOKE
        .into_iter()
        .map(|dataset| (dataset, dataset.build(DatasetScale::Tiny)))
        .collect();

    println!(
        "Fig. 7 (Exp-1): sharing vs query-set similarity, BatchEnum+ at gamma {DEFAULT_GAMMA}"
    );
    println!(
        "{:<4} {:>7} {:>7} {:>8} {:>6} {:>11} {:>11} {:>8}",
        "data", "target", "mu_Q", "clusters", "psi", "BasicEnum+", "BatchEnum+", "saving"
    );
    for (dataset, graph) in &graphs {
        exp1_similarity_sweep(*dataset, graph);
    }

    println!();
    println!("Fig. 10 (Exp-4): BatchEnum+ sharing vs clustering threshold gamma");
    println!(
        "{:<4} {:>5} {:>8} {:>7}",
        "data", "gamma", "clusters", "shared"
    );
    for (dataset, graph) in &graphs {
        exp4_gamma_sweep(*dataset, graph);
    }
}
