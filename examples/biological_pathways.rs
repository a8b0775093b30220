//! Pathway queries in a biological interaction network (the paper's second motivating
//! application, after Krishnamurthy et al. [18] and Leser [19]).
//!
//! A pathway query asks for the chains of interactions between pairs of substances
//! (metabolites, proteins). Analysts typically submit a *panel* of substance pairs at
//! once — e.g. every (signal, response) pair of an experiment — so the workload is again a
//! batch of HC-s-t path queries over a shared interaction network.
//!
//! ```bash
//! cargo run --release --example biological_pathways
//! ```

// Stdout is the product here: examples narrate what they compute.
#![allow(clippy::print_stdout)]

use hcsp::prelude::*;
use hcsp::workload::{Dataset, DatasetScale};

fn main() {
    // The Skitter analog stands in for a mid-size interaction network.
    let network = Dataset::SK.build(DatasetScale::Tiny);
    println!(
        "interaction network: {} substances, {} directed interactions",
        network.num_vertices(),
        network.num_edges()
    );

    // Panel of substance pairs: a few "signal" substances against a few "response"
    // substances, with a hop constraint of 5 interactions.
    let hop_limit = 5;
    let signals: Vec<VertexId> = network
        .vertices()
        .filter(|v| v.raw() % 97 == 3)
        .take(4)
        .collect();
    let responses: Vec<VertexId> = network
        .vertices()
        .filter(|v| v.raw() % 89 == 7)
        .take(4)
        .collect();
    let mut queries = Vec::new();
    let mut pairs = Vec::new();
    for &s in &signals {
        for &r in &responses {
            if s != r {
                pairs.push((s, r));
                queries.push(PathQuery::new(s, r, hop_limit));
            }
        }
    }
    println!(
        "pathway panel: {} substance pairs, k = {hop_limit}",
        queries.len()
    );

    let config = BatchEngine::builder()
        .algorithm(Algorithm::BatchEnumPlus)
        .gamma(0.4)
        .build();
    let outcome = Engine::new(network, config).run(&queries);

    println!("\npathways found per pair:");
    for (i, &(s, r)) in pairs.iter().enumerate() {
        let count = outcome.count(i);
        if count == 0 {
            println!("  {s} ~> {r}: no pathway within {hop_limit} interactions");
            continue;
        }
        let shortest = outcome.paths[i].iter().map(|p| p.len() - 1).min().unwrap();
        let longest = outcome.paths[i].iter().map(|p| p.len() - 1).max().unwrap();
        println!(
            "  {s} ~> {r}: {count} pathway(s), interaction chain length {shortest}..={longest}"
        );
        if let Some(example) = outcome.paths[i].iter().min_by_key(|p| p.len()) {
            let chain: Vec<String> = example.iter().map(|v| v.to_string()).collect();
            println!("      e.g. {}", chain.join(" -> "));
        }
    }

    println!(
        "\nbatch processed with {} clusters, {} shared sub-queries, {:.3?} total",
        outcome.stats.num_clusters,
        outcome.stats.num_shared_subqueries,
        outcome.stats.total_time()
    );
}
