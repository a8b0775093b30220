//! Workload inputs, made from `--seed`. The programs under test receive only these.
//!
//! HC-s-t path counts are heavy-tailed: in sizing probes a freshly drawn 100-query batch
//! cost 2.2-3.7 s under BatchEnum+ depending on the draw, and an 80 %-similar batch
//! 0.46-2.7 s under BasicEnum+ (its two anchor pairs decide everything). No batch of the
//! issue's size drawn per seed can hold an end-to-end metric within a 10-25 % bound. So
//! each workload's query *set* is pinned by a constant generator seed, and `--seed`
//! decides what a caller of the system would not control either: the order queries
//! arrive in (clustering and micro-batch composition depend on it), the Poisson arrival
//! schedule, and the order edges churn in.

use hcsp_core::{PathQuery, QuerySpec};
use hcsp_graph::{DiGraph, GraphUpdate, VertexId};
use hcsp_workload::{random_query_set, similar_query_set, Dataset, DatasetScale, QuerySetSpec};

/// Generator seed of every workload's query set (see the module comment).
pub const QUERY_SET_SEED: u64 = 42;

/// `PATHS` statements ask for this many paths.
pub const PATHS_LIMIT: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OfflineRandom,
    OfflineSimilar,
    ServeRead,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::OfflineRandom,
        Workload::OfflineSimilar,
        Workload::ServeRead,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflineRandom => "offline-random",
            Workload::OfflineSimilar => "offline-similar",
            Workload::ServeRead => "serve-read",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_offline(self) -> bool {
        matches!(self, Workload::OfflineRandom | Workload::OfflineSimilar)
    }

    pub fn dataset(self) -> Dataset {
        if self.is_offline() {
            Dataset::LJ
        } else {
            Dataset::EP
        }
    }
}

/// SplitMix64: the benchmark's own generator for orderings, so an input never depends
/// on a dependency's stream.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The workload's query set in this seed's arrival order.
pub fn queries(workload: Workload, graph: &DiGraph, seed: u64) -> Vec<PathQuery> {
    let spec = |size| QuerySetSpec::new(size, QUERY_SET_SEED);
    let mut queries = match workload {
        Workload::OfflineRandom => random_query_set(graph, spec(100).with_hops(5, 7)),
        Workload::OfflineSimilar => similar_query_set(graph, spec(200).with_hops(6, 8), 0.8),
        Workload::ServeRead | Workload::ServeMixed => {
            let mut distinct = random_query_set(graph, spec(500).with_hops(4, 6));
            distinct.sort_by_key(|q| (q.source, q.target, q.hop_limit));
            distinct.dedup();
            distinct
        }
    };
    SplitMix::new(seed).shuffle(&mut queries);
    queries
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    Paths,
    Exists,
    Count,
}

/// One statement of a serving workload, as text for the wire and typed for the oracle.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    Query {
        verb: Verb,
        /// Index into the workload's distinct query set.
        query: usize,
    },
    Update(GraphUpdate),
}

impl Stmt {
    pub fn is_query(&self) -> bool {
        matches!(self, Stmt::Query { .. })
    }

    pub fn text(&self, queries: &[PathQuery]) -> String {
        match *self {
            Stmt::Query { verb, query } => {
                let q = queries[query];
                let (s, t, k) = (q.source.0, q.target.0, q.hop_limit);
                match verb {
                    Verb::Paths => format!("PATHS FROM {s} TO {t} WITHIN {k} LIMIT {PATHS_LIMIT}"),
                    Verb::Exists => format!("EXISTS FROM {s} TO {t} WITHIN {k}"),
                    Verb::Count => format!("COUNT FROM {s} TO {t} WITHIN {k}"),
                }
            }
            Stmt::Update(GraphUpdate::Insert(u, v)) => format!("INSERT EDGE {} {}", u.0, v.0),
            Stmt::Update(GraphUpdate::Delete(u, v)) => format!("DELETE EDGE {} {}", u.0, v.0),
        }
    }

    /// The typed request the server compiles the statement to (queries only).
    pub fn spec(&self, queries: &[PathQuery]) -> Option<QuerySpec> {
        match *self {
            Stmt::Query { verb, query } => Some(match verb {
                Verb::Paths => QuerySpec::first_k(queries[query], PATHS_LIMIT),
                Verb::Exists => QuerySpec::exists(queries[query]),
                Verb::Count => QuerySpec::count(queries[query]),
            }),
            Stmt::Update(_) => None,
        }
    }
}

/// Query `i` of the cycle: `i % 4` picks `PATHS … LIMIT 16` / `EXISTS` / `COUNT` / `COUNT`.
fn query_stmt(i: usize, distinct: usize) -> Stmt {
    let verb = match i % 4 {
        0 => Verb::Paths,
        1 => Verb::Exists,
        _ => Verb::Count,
    };
    Stmt::Query {
        verb,
        query: i % distinct,
    }
}

/// Statements per unit of the mixed stream: 8 queries, then a DELETE and its INSERT. A
/// run sends whole units, so the graph is back at base whenever a phase ends.
pub const MIXED_UNIT: usize = 10;

/// 64 edges spread evenly over the graph's edge list, in this seed's order.
pub fn churn_edges(graph: &DiGraph, seed: u64) -> Vec<(VertexId, VertexId)> {
    let stride = (graph.num_edges() / 64).max(1);
    let mut edges: Vec<_> = graph.edges().step_by(stride).take(64).collect();
    SplitMix::new(seed ^ 0xC4_07).shuffle(&mut edges);
    edges
}

/// The endless statement stream of a serving workload, indexed by position.
pub struct Stream {
    pub queries: Vec<PathQuery>,
    churn: Vec<(VertexId, VertexId)>,
    mixed: bool,
}

impl Stream {
    pub fn new(workload: Workload, graph: &DiGraph, seed: u64) -> Stream {
        let mixed = workload == Workload::ServeMixed;
        Stream {
            queries: queries(workload, graph, seed),
            churn: if mixed {
                churn_edges(graph, seed)
            } else {
                Vec::new()
            },
            mixed,
        }
    }

    /// Statements are sent in whole units of this many.
    pub fn unit(&self) -> usize {
        if self.mixed {
            MIXED_UNIT
        } else {
            1
        }
    }

    pub fn at(&self, position: usize) -> Stmt {
        if !self.mixed {
            return query_stmt(position, self.queries.len());
        }
        let (unit, slot) = (position / MIXED_UNIT, position % MIXED_UNIT);
        if slot < 8 {
            return query_stmt(unit * 8 + slot, self.queries.len());
        }
        let (u, v) = self.churn[unit % self.churn.len()];
        Stmt::Update(if slot == 8 {
            GraphUpdate::Delete(u, v)
        } else {
            GraphUpdate::Insert(u, v)
        })
    }

    pub fn range(&self, start: usize, len: usize) -> Vec<Stmt> {
        (start..start + len).map(|p| self.at(p)).collect()
    }
}

pub fn build_graph(workload: Workload, scale: DatasetScale) -> DiGraph {
    workload.dataset().build(scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_fixes_the_inputs_and_another_seed_changes_them() {
        let g = build_graph(Workload::OfflineRandom, DatasetScale::Tiny);
        let a = queries(Workload::OfflineRandom, &g, 1);
        assert_eq!(a, queries(Workload::OfflineRandom, &g, 1));
        let b = queries(Workload::OfflineRandom, &g, 2);
        assert_ne!(a, b);
        // Same set, another order: total work is the workload's, not the seed's.
        let key = |q: &PathQuery| (q.source, q.target, q.hop_limit);
        let (mut sa, mut sb) = (a.clone(), b.clone());
        sa.sort_by_key(key);
        sb.sort_by_key(key);
        assert_eq!(sa, sb);
        assert_eq!(a.len(), 100);
    }

    #[test]
    fn mixed_stream_pairs_every_delete_with_its_insert() {
        let g = build_graph(Workload::ServeMixed, DatasetScale::Tiny);
        let stream = Stream::new(Workload::ServeMixed, &g, 3);
        assert_eq!(stream.churn.len(), 64);
        let stmts = stream.range(0, 200 * MIXED_UNIT);
        assert_eq!(stmts.iter().filter(|s| s.is_query()).count(), 1600);
        for unit in stmts.chunks(MIXED_UNIT) {
            assert!(unit[..8].iter().all(Stmt::is_query));
            match (&unit[8], &unit[9]) {
                (
                    Stmt::Update(GraphUpdate::Delete(a, b)),
                    Stmt::Update(GraphUpdate::Insert(c, d)),
                ) => {
                    assert_eq!((a, b), (c, d));
                    assert!(g.has_edge(*a, *b));
                }
                other => panic!("unit does not end in a DELETE/INSERT pair: {other:?}"),
            }
        }
        // The read stream has no updates and cycles the four verbs.
        let read = Stream::new(Workload::ServeRead, &g, 3);
        assert!(read.range(0, 64).iter().all(Stmt::is_query));
        assert_eq!(
            read.at(0).text(&read.queries).split(' ').next(),
            Some("PATHS")
        );
        assert!(read.at(1).text(&read.queries).starts_with("EXISTS"));
        assert!(read.at(2).text(&read.queries).starts_with("COUNT"));
    }
}
