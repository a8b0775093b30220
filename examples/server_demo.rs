//! Network front-end demo: start a [`PathServer`] on loopback, speak the text query
//! language over TCP, interleave a graph update, and finish by pipelining a burst of
//! statements over one connection.
//!
//! ```text
//! cargo run --example server_demo
//! ```

// Stdout is the product here: examples narrate what they compute.
#![allow(clippy::print_stdout)]

use hcsp::prelude::*;
use std::sync::Arc;

fn main() {
    // A small diamond-with-chords graph: several 0 → 5 paths of different lengths.
    let graph = DiGraph::from_edge_list(
        6,
        &[
            (0, 1),
            (0, 2),
            (1, 3),
            (2, 3),
            (1, 4),
            (3, 5),
            (4, 5),
            (2, 5),
        ],
    )
    .expect("static edge list is valid");

    // `immediate()` keeps FirstK answers batch-independent, which makes a demo's
    // output deterministic; a production deployment would use `by_size`.
    let service = Arc::new(
        PathService::builder()
            .workers(2)
            .policy(BatchPolicy::immediate())
            .start(graph)
            .expect("in-memory service start cannot fail"),
    );
    let server = PathServer::bind(
        Arc::clone(&service),
        ("127.0.0.1", 0),
        ServerConfig::default(),
    )
    .expect("bind a loopback listener");
    println!("serving on {}", server.local_addr());

    let mut client = Client::connect(server.local_addr()).expect("connect");
    let script = [
        "EXISTS FROM 0 TO 5 WITHIN 4",
        "COUNT FROM 0 TO 5 WITHIN 4",
        "PATHS FROM 0 TO 5 WITHIN 4 LIMIT 3",
        "DELETE EDGE 2 5",
        "COUNT FROM 0 TO 5 WITHIN 4",
        "INSERT EDGE 2 5",
        "COUNT FROM 0 TO 5 WITHIN 4",
        "PATHS FROM 9 TO 5 WITHIN 4", // refused: vertex 9 is out of range
    ];
    for statement in script {
        match client.request(statement) {
            Ok(Reply::Exists(yes)) => println!("{statement:<34} -> exists: {yes}"),
            Ok(Reply::Count(n)) => println!("{statement:<34} -> {n} paths"),
            Ok(Reply::Paths(paths)) => {
                println!("{statement:<34} -> {} paths", paths.len());
                for p in paths {
                    println!("{:>38} {p:?}", "");
                }
            }
            Ok(Reply::Update { applied, ignored }) => {
                println!("{statement:<34} -> applied {applied}, ignored {ignored}");
            }
            Ok(Reply::Error { code, message }) => {
                println!("{statement:<34} -> refused ({code:?}): {message}");
            }
            Err(err) => panic!("transport failure on {statement:?}: {err}"),
        }
    }

    // Pipelining on the same connection: send 64 mixed statements before reading any
    // reply; the server answers each connection's requests in order.
    let burst = 64;
    for i in 0..burst {
        let statement = match i % 4 {
            0 => "PATHS FROM 0 TO 5 WITHIN 4 LIMIT 2".to_string(),
            1 => "EXISTS FROM 0 TO 5 WITHIN 4".to_string(),
            2 => "COUNT FROM 0 TO 5 WITHIN 4".to_string(),
            _ => format!("INSERT EDGE {} {}", i % 6, (i + 3) % 6),
        };
        client.send(&statement).expect("send");
    }
    let refused = (0..burst)
        .map(|_| client.recv().expect("recv").1)
        .filter(|reply| matches!(reply, Reply::Error { .. }))
        .count();
    println!("pipelined: {burst} requests, {refused} refused");
    drop(client);

    server.shutdown();
    let stats = Arc::try_unwrap(service)
        .expect("all clients disconnected")
        .shutdown();
    println!(
        "service saw {} queries in {} batches, {} update batches",
        stats.num_queries, stats.num_batches, stats.update_batches
    );
}
