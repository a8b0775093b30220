//! End-to-end tests of the network front-end: a real [`PathServer`] on loopback,
//! driven over TCP, checked against an **in-process oracle**.
//!
//! The central property is byte identity: for a mixed statement stream — `PATHS` (with
//! and without `LIMIT`), `EXISTS`, `COUNT`, and interleaved `INSERT`/`DELETE EDGE`
//! updates — the raw response frame payloads the server streams must be exactly the
//! bytes produced by encoding an in-process [`Engine::run_specs`] answer over the same
//! epoch history. The wire, the parser, the fallible admission path and the response
//! chunking may add nothing and lose nothing.
//!
//! The service runs `BatchPolicy::immediate()` with one worker here: `FirstK` answers
//! depend on batch composition by design, so byte identity is only defined when every
//! statement forms its own batch — the same reason the oracle runs one spec at a time.

use hcsp::core::{BatchEngine, Engine, EpochPublisher};
use hcsp::prelude::{
    BatchPolicy, Client, DiGraph, DurabilityOptions, FsyncPolicy, PathServer, PathService, Reply,
    ServerConfig,
};
use hcsp::server::{response_frames, ErrorCode, Response};
use hcsp::workload::{random_query_set, Dataset, DatasetScale, QuerySetSpec};
use std::sync::Arc;
use std::time::Duration;

/// A server over an immediate-policy service on `graph`; returns the pieces the tests
/// drive. The service is epoch-identical to an [`EpochPublisher`] fed the same updates.
fn serve(graph: DiGraph, config: ServerConfig) -> (PathServer, Arc<PathService>) {
    let service = Arc::new(
        PathService::builder()
            .workers(1)
            .policy(BatchPolicy::immediate())
            .start(graph)
            .expect("an ephemeral service start cannot fail"),
    );
    let server = PathServer::bind(Arc::clone(&service), ("127.0.0.1", 0), config)
        .expect("bind a loopback server");
    (server, service)
}

/// The mixed-mode statement stream for `graph`: every query verb, `LIMIT` variants,
/// and interleaved edge churn (each delete later re-inserted, plus a vertex-growing
/// insert to exercise validation against the *current* epoch).
fn mixed_statements(graph: &DiGraph, queries_seed: u64) -> Vec<String> {
    let queries = random_query_set(graph, QuerySetSpec::new(12, queries_seed).with_hops(3, 4));
    assert!(!queries.is_empty(), "the dataset must admit queries");
    let edges: Vec<(u32, u32)> = graph.edges().map(|(u, v)| (u.0, v.0)).collect();
    let mut statements = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let (s, t, k) = (q.source.0, q.target.0, q.hop_limit);
        statements.push(match i % 5 {
            0 => format!("PATHS FROM {s} TO {t} WITHIN {k}"),
            1 => format!("PATHS FROM {s} TO {t} WITHIN {k} LIMIT 3"),
            2 => format!("EXISTS FROM {s} TO {t} WITHIN {k}"),
            3 => format!("COUNT FROM {s} TO {t} WITHIN {k}"),
            _ => format!("COUNT FROM {s} TO {t} WITHIN {k} LIMIT 5"),
        });
        // Interleave updates: churn a real edge (delete now, re-insert two statements
        // later would complicate the oracle — re-insert immediately instead) and
        // occasionally insert a brand-new edge.
        if i % 3 == 1 {
            let (u, v) = edges[i % edges.len()];
            statements.push(format!("DELETE EDGE {u} {v}"));
            statements.push(format!("INSERT EDGE {u} {v}"));
        }
        if i == queries.len() / 2 {
            // Grows the vertex space; later statements validate against the new size.
            let fresh = graph.num_vertices() as u32;
            statements.push(format!("INSERT EDGE {s} {fresh}"));
            statements.push(format!("INSERT EDGE {fresh} {t}"));
        }
    }
    statements
}

/// The oracle: replays the same statements against an in-process [`EpochPublisher`] +
/// [`Engine::run_specs`], and encodes each answer with the same [`response_frames`]
/// chunking the server uses. Returns the expected frame payload bytes per statement.
fn oracle_payloads(graph: DiGraph, statements: &[String], first_id: u64) -> Vec<Vec<Vec<u8>>> {
    let mut publisher = EpochPublisher::new(graph);
    statements
        .iter()
        .enumerate()
        .map(|(i, text)| {
            let id = first_id + i as u64;
            let statement = hcsp::server::parse(text).expect("test statements are valid");
            let frames = match statement {
                hcsp::server::Statement::Query(q) => {
                    let mut engine = Engine::at_epoch(&publisher.tip(), BatchEngine::default());
                    let outcome = engine.run_specs(&[q.to_spec()]);
                    response_frames(id, &outcome.responses[0])
                }
                hcsp::server::Statement::Update(u) => {
                    let (_, summary) = publisher.publish(&[u.to_update()]);
                    vec![Response::UpdateDone {
                        id,
                        applied: summary.applied as u64,
                        ignored: summary.ignored as u64,
                    }]
                }
            };
            frames.iter().map(Response::encode).collect()
        })
        .collect()
}

/// The tentpole acceptance test: over TCP, every response to the mixed-mode stream —
/// updates interleaved with all four query shapes — is byte-identical to the
/// in-process engine's answer over the same epoch history.
#[test]
fn tcp_responses_are_byte_identical_to_the_in_process_engine() {
    let graph = Dataset::EP.build(DatasetScale::Tiny);
    let statements = mixed_statements(&graph, 0xFEED);
    assert!(
        statements.iter().any(|s| s.starts_with("INSERT")),
        "the stream must interleave updates"
    );
    let expected = oracle_payloads(graph.clone(), &statements, 1);

    let (server, service) = serve(graph, ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for (statement, want) in statements.iter().zip(&expected) {
        let got = client.request_raw(statement).expect("request");
        assert_eq!(
            &got, want,
            "payload bytes diverge from the engine oracle for {statement:?}"
        );
    }
    drop(client);
    server.shutdown();
    let stats = Arc::try_unwrap(service).expect("last reference").shutdown();
    assert_eq!(
        stats.num_queries,
        statements.iter().filter(|s| !s.contains("EDGE")).count(),
        "every query statement reached the service"
    );
}

/// Refusals become error frames and the connection survives them: a parse error, an
/// out-of-range endpoint, then a well-formed statement on the same connection.
#[test]
fn refusals_are_error_frames_and_the_connection_survives() {
    let graph = DiGraph::from_edge_list(4, &[(0, 1), (1, 3), (0, 2), (2, 3)]).unwrap();
    let (server, _service) = serve(graph, ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");

    match client.request("FROBNICATE 1").expect("reply") {
        Reply::Error { code, message } => {
            assert_eq!(code, ErrorCode::Parse);
            assert!(message.contains("FROBNICATE"), "diagnosis: {message}");
        }
        other => panic!("expected a parse error, got {other:?}"),
    }
    match client
        .request("PATHS FROM 0 TO 99 WITHIN 3")
        .expect("reply")
    {
        Reply::Error { code, message } => {
            assert_eq!(code, ErrorCode::InvalidEndpoint);
            assert!(message.contains("out of range"), "diagnosis: {message}");
        }
        other => panic!("expected an endpoint refusal, got {other:?}"),
    }
    match client
        .request("EXISTS FROM 0 TO 3 WITHIN 3")
        .expect("reply")
    {
        Reply::Exists(true) => {}
        other => panic!("the connection must still serve queries, got {other:?}"),
    }
    assert_eq!(
        client.request("PATHS FROM 0 TO 3 WITHIN 3").expect("reply"),
        Reply::Paths(vec![vec![0, 1, 3], vec![0, 2, 3]])
    );
    assert_eq!(
        client.request("COUNT FROM 0 TO 3 WITHIN 3").expect("reply"),
        Reply::Count(2)
    );
    assert_eq!(
        client.request("DELETE EDGE 0 1").expect("reply"),
        Reply::Update {
            applied: 1,
            ignored: 0
        }
    );
    assert_eq!(
        client.request("DELETE EDGE 0 1").expect("reply"),
        Reply::Update {
            applied: 0,
            ignored: 1
        }
    );
    assert_eq!(
        client.request("COUNT FROM 0 TO 3 WITHIN 3").expect("reply"),
        Reply::Count(1)
    );
}

/// Pipelining: many statements sent before any reply is read come back FIFO, each
/// tagged with its request id.
#[test]
fn pipelined_requests_answer_in_order() {
    let graph = DiGraph::from_edge_list(4, &[(0, 1), (1, 3), (0, 2), (2, 3)]).unwrap();
    let (server, _service) = serve(graph, ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut sent = Vec::new();
    for i in 0..24 {
        let statement = match i % 3 {
            0 => "EXISTS FROM 0 TO 3 WITHIN 3",
            1 => "COUNT FROM 0 TO 3 WITHIN 3",
            _ => "PATHS FROM 0 TO 3 WITHIN 3 LIMIT 1",
        };
        sent.push(client.send(statement).expect("send"));
    }
    for want_id in sent {
        let (id, reply) = client.recv().expect("recv");
        assert_eq!(id, want_id, "replies must be FIFO with requests");
        assert!(
            matches!(
                reply,
                Reply::Exists(true) | Reply::Count(2) | Reply::Paths(_)
            ),
            "unexpected reply {reply:?}"
        );
    }
}

/// The connection cap: an over-cap client completes the handshake, receives one `Busy`
/// error frame, and is closed; capacity freed by a disconnect is reusable.
#[test]
fn over_cap_connections_get_a_busy_frame() {
    let graph = DiGraph::from_edge_list(2, &[(0, 1)]).unwrap();
    let (server, _service) = serve(graph, ServerConfig::default().max_connections(1));
    let addr = server.local_addr();

    let mut first = Client::connect(addr).expect("first connection");
    assert_eq!(
        first.request("EXISTS FROM 0 TO 1 WITHIN 1").expect("reply"),
        Reply::Exists(true)
    );
    let mut second = Client::connect(addr).expect("the handshake still completes");
    match second.recv() {
        Ok((0, Reply::Error { code, .. })) => assert_eq!(code, ErrorCode::Busy),
        other => panic!("expected an unsolicited Busy frame, got {other:?}"),
    }
    drop(second);
    drop(first); // frees the slot …
    for _ in 0..50 {
        // … but asynchronously: the server notices the close on its own schedule.
        let mut retry = Client::connect(addr).expect("reconnect");
        match retry
            .send("EXISTS FROM 0 TO 1 WITHIN 1")
            .and_then(|_| retry.recv())
        {
            Ok((_, Reply::Exists(true))) => return,
            Ok((
                _,
                Reply::Error {
                    code: ErrorCode::Busy,
                    ..
                },
            )) => {
                std::thread::sleep(Duration::from_millis(10));
            }
            other => panic!("unexpected outcome while waiting for the slot: {other:?}"),
        }
    }
    panic!("the freed connection slot never became reusable");
}

/// A pipelined client drives a durable group-committing service over TCP end to end:
/// every reply decodes, updates are acknowledged durably, and the group-commit counter
/// moved.
#[test]
fn load_generator_drives_a_durable_service_end_to_end() {
    let fs = hcsp::storage::FailpointFs::new();
    let graph = DiGraph::from_edge_list(4, &[(0, 1), (1, 3), (0, 2), (2, 3)]).unwrap();
    let service = Arc::new(
        PathService::builder()
            .workers(2)
            .policy(BatchPolicy::by_size(4, Duration::from_millis(1)))
            .durability(DurabilityOptions::vfs(fs.as_vfs()).fsync(FsyncPolicy::Always))
            .start(graph)
            .expect("create the durable service"),
    );
    let server = PathServer::bind(
        Arc::clone(&service),
        ("127.0.0.1", 0),
        ServerConfig::default(),
    )
    .expect("bind");

    let mut statements = Vec::new();
    for i in 0..40 {
        statements.push(match i % 4 {
            0 => "PATHS FROM 0 TO 3 WITHIN 3 LIMIT 2".to_string(),
            1 => "COUNT FROM 0 TO 3 WITHIN 3".to_string(),
            2 => format!("INSERT EDGE 1 {}", 2 + i % 2),
            _ => "EXISTS FROM 0 TO 3 WITHIN 3".to_string(),
        });
    }
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let sent: Vec<u64> = statements
        .iter()
        .map(|statement| client.send(statement).expect("send"))
        .collect();
    let mut replies = Vec::with_capacity(sent.len());
    for want_id in sent {
        let (id, reply) = client.recv().expect("recv");
        assert_eq!(id, want_id, "replies must be FIFO with requests");
        replies.push(reply);
    }
    assert_eq!(replies.len(), statements.len());
    assert!(
        !replies.iter().any(|r| matches!(r, Reply::Error { .. })),
        "no statement may be refused: {replies:?}"
    );

    drop(client);
    server.shutdown();
    let stats = Arc::try_unwrap(service).expect("last reference").shutdown();
    assert_eq!(stats.update_batches, 10, "every INSERT was applied");
    assert!(
        stats.group_commit_batches >= 1,
        "an Always-fsync service acknowledges through group commit"
    );
    assert!(
        stats.group_commit_batches as usize <= stats.update_batches,
        "group commit never fsyncs more often than once per batch"
    );
}
