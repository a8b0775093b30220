//! Knowledge-graph completion support (the paper's third motivating application).
//!
//! Link-prediction models score a candidate relation between two entities using the short
//! paths connecting them: entity pairs connected by many short paths are more likely to be
//! related. Because a completion job scores *many* candidate pairs at once, the path
//! feature extraction is a batch of HC-s-t path queries — and candidate pairs around the
//! same "hub" entities share most of their exploration, which is exactly the sharing
//! BatchEnum exploits.
//!
//! ```bash
//! cargo run --release --example knowledge_graph
//! ```

// Stdout is the product here: examples narrate what they compute.
#![allow(clippy::print_stdout)]

use hcsp::prelude::*;
use hcsp::workload::{Dataset, DatasetScale};

/// Path-count features extracted for one candidate entity pair.
#[derive(Debug, Default, Clone)]
struct PairFeatures {
    /// Number of connecting simple paths per hop count (index = hops).
    paths_by_length: Vec<u64>,
}

impl PairFeatures {
    fn total(&self) -> u64 {
        self.paths_by_length.iter().sum()
    }

    /// A simple relatedness score: shorter connecting paths count more.
    fn score(&self) -> f64 {
        self.paths_by_length
            .iter()
            .enumerate()
            .skip(1)
            .map(|(hops, &count)| count as f64 / (hops as f64))
            .sum()
    }
}

fn main() {
    // The Baidu-baike analog stands in for an encyclopedia-derived knowledge graph.
    let kg = Dataset::BK.build(DatasetScale::Tiny);
    println!(
        "knowledge graph: {} entities, {} relations",
        kg.num_vertices(),
        kg.num_edges()
    );

    // Candidate entity pairs to score: pairs around a few hub entities (the realistic
    // completion workload — many candidates share one endpoint).
    let hop_limit = 4;
    let hubs: Vec<VertexId> = {
        let mut by_degree: Vec<VertexId> = kg.vertices().collect();
        by_degree.sort_by_key(|&v| std::cmp::Reverse(kg.out_degree(v) + kg.in_degree(v)));
        by_degree.into_iter().take(4).collect()
    };
    let mut candidates: Vec<(VertexId, VertexId)> = Vec::new();
    for &hub in &hubs {
        for candidate in kg.vertices().filter(|&v| v != hub).take(12) {
            candidates.push((hub, candidate));
        }
    }
    let queries: Vec<PathQuery> = candidates
        .iter()
        .map(|&(a, b)| PathQuery::new(a, b, hop_limit))
        .collect();
    println!(
        "scoring {} candidate pairs with k = {hop_limit}",
        queries.len()
    );

    // Extract features with a streaming sink: only per-length counts are kept, never the
    // paths themselves.
    let mut features: Vec<PairFeatures> = vec![
        PairFeatures {
            paths_by_length: vec![0; hop_limit as usize + 1]
        };
        queries.len()
    ];
    {
        let mut sink = FeatureSink {
            features: &mut features,
        };
        let mut engine = Engine::with_algorithm(kg, Algorithm::BatchEnumPlus);
        let stats = engine.run_with_sink(&queries, &mut sink);
        println!(
            "feature extraction: clusters={} shared_subqueries={} time={:.3?}",
            stats.num_clusters,
            stats.num_shared_subqueries,
            stats.total_time()
        );
    }

    // Report the most promising candidate relations.
    let mut ranked: Vec<(usize, f64)> = features
        .iter()
        .enumerate()
        .map(|(i, f)| (i, f.score()))
        .collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("\ntop candidate relations by path-count score:");
    for &(i, score) in ranked.iter().take(8) {
        let (a, b) = candidates[i];
        println!(
            "  {a} -> {b}: score {score:.2} ({} connecting paths, by length {:?})",
            features[i].total(),
            &features[i].paths_by_length[1..]
        );
    }
}

/// Sink translating enumerated paths into per-length counts per query.
struct FeatureSink<'a> {
    features: &'a mut Vec<PairFeatures>,
}

impl PathSink for FeatureSink<'_> {
    fn accept(&mut self, query: usize, path: &[VertexId]) -> SinkFlow {
        let hops = path.len() - 1;
        let feature = &mut self.features[query];
        if hops < feature.paths_by_length.len() {
            feature.paths_by_length[hops] += 1;
        }
        SinkFlow::Continue
    }
}
