//! The query sharing graph Ψ (Definition 4.7).
//!
//! Ψ is a DAG whose nodes are either original HC-s-t path queries or (shared / dominating)
//! HC-s path queries, and whose edges record "the user node can reuse the provider node's
//! materialised results". Edges are oriented **provider → user**, so a topological order
//! of Ψ materialises every provider before any of its users — exactly the evaluation order
//! of Algorithm 4.
//!
//! Each dependency edge additionally stores the *offset*: the number of hops the user has
//! already consumed (counting from the root of the HC-s-t query it ultimately serves) when
//! the provider's paths are spliced in. The offset is what translates a query's hop
//! constraint into the *slack* available to a deeply shared HC-s path query, which in turn
//! drives the Lemma 3.1 pruning inside the shared enumeration.

use crate::query::{HcsQuery, PathQuery, QueryId};
use hcsp_graph::VertexId;
use std::collections::{BTreeMap, HashMap};

/// Index of a node inside a [`SharingGraph`].
pub type NodeId = usize;

/// A node of Ψ: either an original HC-s-t path query (a pure consumer) or an HC-s path
/// query whose results are materialised and shared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryNode {
    /// An original HC-s-t path query, identified by its position in the batch.
    Full(QueryId),
    /// An HC-s path query (either the half query of some HC-s-t query or a detected
    /// dominating query).
    Hcs(HcsQuery),
}

impl QueryNode {
    /// The HC-s path query if this node is one.
    pub fn as_hcs(&self) -> Option<&HcsQuery> {
        match self {
            QueryNode::Hcs(q) => Some(q),
            QueryNode::Full(_) => None,
        }
    }
}

/// An edge of Ψ: `user` reuses `provider`'s results after consuming `offset` hops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dependency {
    /// The node whose materialised results are reused.
    pub provider: NodeId,
    /// The node that reuses them.
    pub user: NodeId,
    /// Hops consumed by the ultimate HC-s-t query before the provider's paths begin,
    /// measured relative to the *user*'s own root (`user.budget − remaining budget at the
    /// splice point`).
    pub offset: u32,
}

/// A pruning constraint attached to a shared HC-s path query: a path of `len` hops ending
/// at vertex `x` is worth keeping only if `len + dist(x, anchor) ≤ slack` for at least one
/// of the query's anchors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnchorSlack {
    /// The vertex the dependent HC-s-t query is heading towards (its target for forward
    /// HC-s path queries, its source for backward ones).
    pub anchor: VertexId,
    /// Maximum value of `len + dist(x, anchor)` still useful to that dependent query.
    pub slack: u32,
}

/// The query sharing graph Ψ.
#[derive(Debug, Clone, Default)]
pub struct SharingGraph {
    nodes: Vec<QueryNode>,
    /// Outgoing edges per node: users of this provider (with offsets).
    users: Vec<Vec<(NodeId, u32)>>,
    /// Incoming edges per node: providers of this user (with offsets).
    providers: Vec<Vec<(NodeId, u32)>>,
    /// Lookup of HC-s path query nodes by value (dedup).
    hcs_lookup: HashMap<HcsQuery, NodeId>,
    /// Lookup of full query nodes by query id.
    full_lookup: HashMap<QueryId, NodeId>,
    /// The topological numbering `add_dependency` maintains.
    order: TopologicalOrder,
}

/// Room left between neighbouring labels when they are handed out.
const LABEL_GAP: i64 = 1 << 32;

/// A topological numbering of Ψ that can be repaired locally: one distinct integer label
/// per node, `label[provider] < label[user]` for every edge. Labels are handed out
/// [`LABEL_GAP`] apart, so a run of nodes can be moved to directly after another node by
/// taking labels from the gap there; only when a gap is used up are all labels spread out
/// again.
#[derive(Debug, Clone, Default)]
struct TopologicalOrder {
    label: Vec<i64>,
    by_label: BTreeMap<i64, NodeId>,
    /// Epoch-stamped visit marks of [`SharingGraph::restore_order`]'s walk (the
    /// `VisitMarks` idiom of `buffers.rs`) and the nodes it reached, reused across calls.
    stamps: Vec<u32>,
    epoch: u32,
    reached: Vec<NodeId>,
}

impl TopologicalOrder {
    /// Numbers the next node id before every node (`front`) or after every node.
    fn push(&mut self, front: bool) {
        let label = if front {
            let first = self.by_label.first_key_value();
            first.map_or(0, |(label, _)| label - LABEL_GAP)
        } else {
            let last = self.by_label.last_key_value();
            last.map_or(0, |(label, _)| label + LABEL_GAP)
        };
        self.by_label.insert(label, self.label.len());
        self.label.push(label);
        self.stamps.push(0);
    }

    /// Moves `self.reached` (sorted by label, all below `anchor`'s) to directly after
    /// `anchor`, keeping its order.
    fn move_reached_after(&mut self, anchor: NodeId) {
        for &node in &self.reached {
            self.by_label.remove(&self.label[node]);
        }
        let slots = self.reached.len() as i64 + 1;
        let low = self.label[anchor];
        let above = self.by_label.range(low + 1..).next();
        let mut gap = above.map_or(LABEL_GAP, |(label, _)| label - low);
        if gap < slots {
            for (i, node) in std::mem::take(&mut self.by_label).into_values().enumerate() {
                self.label[node] = i as i64 * LABEL_GAP;
                self.by_label.insert(self.label[node], node);
            }
            gap = LABEL_GAP;
        }
        for (i, &node) in self.reached.iter().enumerate() {
            self.label[node] = self.label[anchor] + gap / slots * (i as i64 + 1);
            self.by_label.insert(self.label[node], node);
        }
    }

    /// Starts a new walk: all marks cleared, nothing reached.
    fn start_walk(&mut self) {
        if self.epoch == u32::MAX {
            self.stamps.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.reached.clear();
    }

    /// Records `node` as reached unless it already was.
    fn reach(&mut self, node: NodeId) {
        if self.stamps[node] != self.epoch {
            self.stamps[node] = self.epoch;
            self.reached.push(node);
        }
    }
}

impl SharingGraph {
    /// Creates an empty sharing graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node value.
    pub fn node(&self, id: NodeId) -> &QueryNode {
        &self.nodes[id]
    }

    /// All nodes with their ids.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &QueryNode)> + '_ {
        self.nodes.iter().enumerate()
    }

    /// Number of HC-s path query nodes (shared sub-queries + initial half queries).
    pub fn num_hcs_nodes(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, QueryNode::Hcs(_)))
            .count()
    }

    /// Adds (or returns the existing) node for an original HC-s-t path query.
    pub fn add_full_query(&mut self, query: QueryId) -> NodeId {
        if let Some(&id) = self.full_lookup.get(&query) {
            return id;
        }
        let id = self.push_node(QueryNode::Full(query));
        self.full_lookup.insert(query, id);
        id
    }

    /// Adds (or returns the existing) node for an HC-s path query.
    pub fn add_hcs_query(&mut self, query: HcsQuery) -> NodeId {
        if let Some(&id) = self.hcs_lookup.get(&query) {
            return id;
        }
        let id = self.push_node(QueryNode::Hcs(query));
        self.hcs_lookup.insert(query, id);
        id
    }

    /// Looks up the node of an HC-s path query if it exists.
    pub fn find_hcs(&self, query: &HcsQuery) -> Option<NodeId> {
        self.hcs_lookup.get(query).copied()
    }

    /// Looks up the node of a full query if it exists.
    pub fn find_full(&self, query: QueryId) -> Option<NodeId> {
        self.full_lookup.get(&query).copied()
    }

    fn push_node(&mut self, node: QueryNode) -> NodeId {
        let id = self.nodes.len();
        // HC-s-t queries only ever use results, so they go to the back; an HC-s path query
        // is usually found because nodes that exist can use it, so it goes before all of
        // them. Most edges then arrive already agreeing with the numbering.
        self.order.push(matches!(node, QueryNode::Hcs(_)));
        self.nodes.push(node);
        self.users.push(Vec::new());
        self.providers.push(Vec::new());
        id
    }

    /// Adds a dependency edge `provider → user` with the given offset.
    ///
    /// Self-dependencies and exact duplicates are ignored. Returns `false` (and adds
    /// nothing) if the edge would create a cycle, which keeps Ψ a DAG by construction.
    ///
    /// Numbering invariant: `label[provider] < label[user]` for every edge of Ψ. An edge
    /// that already agrees with the labels cannot close a cycle (a path `user ⇒ provider`
    /// would need `label[user] < label[provider]`) and is accepted without looking at the
    /// graph; any other edge is decided, and the numbering repaired, by
    /// `restore_order` inside the window between the two labels.
    pub fn add_dependency(&mut self, provider: NodeId, user: NodeId, offset: u32) -> bool {
        if provider == user {
            return false;
        }
        // Each edge sits in both adjacency lists; the shorter one answers "seen before?".
        let (list, other) = if self.users[provider].len() <= self.providers[user].len() {
            (&self.users[provider], user)
        } else {
            (&self.providers[user], provider)
        };
        if list.contains(&(other, offset)) {
            return true;
        }
        let closes_cycle = self.order.label[user] < self.order.label[provider]
            && !self.restore_order(provider, user);
        #[cfg(test)]
        assert_eq!(closes_cycle, self.reaches(user, provider));
        if closes_cycle {
            return false;
        }
        self.users[provider].push((user, offset));
        self.providers[user].push((provider, offset));
        true
    }

    /// Decides an edge `provider → user` that disagrees with the numbering
    /// (`label[user] < label[provider]`). Any path `user ⇒ provider` lies wholly inside the
    /// window between the two labels, so the walk from `user` never leaves it: reaching
    /// `provider` means the edge closes a cycle (`false`, nothing changed). Otherwise
    /// everything reached is moved, in its order, to directly after `provider`: what the
    /// moved nodes provide for either moved with them or already lay beyond `provider`,
    /// and what provides for them stayed before — so the numbering holds again and now
    /// agrees with the edge, and no node outside the walk was touched.
    fn restore_order(&mut self, provider: NodeId, user: NodeId) -> bool {
        let order = &mut self.order;
        let high = order.label[provider];
        order.start_walk();
        order.reach(user);
        let mut next = 0;
        while let Some(&node) = order.reached.get(next) {
            next += 1;
            for &(reached, _) in &self.users[node] {
                if reached == provider {
                    return false;
                }
                if order.label[reached] < high {
                    order.reach(reached);
                }
            }
        }
        let label = &order.label;
        order.reached.sort_unstable_by_key(|&n| label[n]);
        order.move_reached_after(provider);
        true
    }

    /// Users (dependants) of a node, with offsets.
    pub fn users(&self, id: NodeId) -> &[(NodeId, u32)] {
        &self.users[id]
    }

    /// Providers of a node, with offsets.
    pub fn providers(&self, id: NodeId) -> &[(NodeId, u32)] {
        &self.providers[id]
    }

    /// The providers of `user` that are HC-s path queries rooted at `root` (the splice
    /// lookup performed at every expansion step of the shared enumeration).
    pub fn provider_rooted_at(&self, user: NodeId, root: VertexId) -> Option<(NodeId, HcsQuery)> {
        self.providers[user]
            .iter()
            .filter_map(|&(p, _)| self.nodes[p].as_hcs().map(|q| (p, *q)))
            .filter(|(_, q)| q.root == root)
            .max_by_key(|(_, q)| q.budget)
    }

    /// A topological order of Ψ: every provider appears before all of its users.
    ///
    /// The order is deterministic (Kahn's algorithm with the smallest ready node first).
    pub fn topological_order(&self) -> Vec<NodeId> {
        let n = self.nodes.len();
        let mut indegree: Vec<usize> = (0..n).map(|id| self.providers[id].len()).collect();
        let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<NodeId>> = (0..n)
            .filter(|&id| indegree[id] == 0)
            .map(std::cmp::Reverse)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(std::cmp::Reverse(node)) = ready.pop() {
            order.push(node);
            for &(user, _) in &self.users[node] {
                indegree[user] -= 1;
                if indegree[user] == 0 {
                    ready.push(std::cmp::Reverse(user));
                }
            }
        }
        debug_assert_eq!(order.len(), n, "Ψ must be acyclic by construction");
        order
    }

    /// Computes, for every HC-s path node, the anchor/slack constraints induced by the
    /// HC-s-t queries that (transitively) depend on it.
    ///
    /// For a full query `q` with half query `h` in direction `d`, `h` receives the pair
    /// `(q.anchor(d), q.hop_limit)`. A provider `p` reached from user `u` through an edge
    /// with offset `o` receives every pair of `u` with its slack reduced by `o` (keeping,
    /// per anchor, the largest slack — the union of usefulness conditions).
    pub fn anchor_slacks(&self, queries: &[PathQuery]) -> Vec<Vec<AnchorSlack>> {
        // The anchors of this Ψ, ranked: a batch has few, so the constraints gathered for
        // one node fit a dense `best[rank]` array plus a bitset of the ranks present, and
        // reading the bitset back yields them sorted by anchor without sorting anything.
        let mut anchors: Vec<VertexId> = self
            .full_lookup
            .keys()
            .flat_map(|&qid| [queries[qid].source, queries[qid].target])
            .collect();
        anchors.sort_unstable();
        anchors.dedup();
        let mut best = vec![0u32; anchors.len()];
        let mut present = vec![0u64; anchors.len().div_ceil(64)];
        fn relax(present: &mut [u64], best: &mut [u32], rank: usize, slack: u32) {
            present[rank / 64] |= 1 << (rank % 64);
            best[rank] = best[rank].max(slack);
        }

        // Until the last step `anchor` holds the anchor's rank, not its vertex id.
        let mut slacks: Vec<Vec<AnchorSlack>> = vec![Vec::new(); self.nodes.len()];
        // Users before providers — the numbering walked from the back — so a node's list
        // is final when its providers read it.
        for &node in self.order.by_label.values().rev() {
            let QueryNode::Hcs(hcs) = self.nodes[node] else {
                continue;
            };
            for &(user, offset) in &self.users[node] {
                match self.nodes[user] {
                    QueryNode::Full(qid) => {
                        let anchor = queries[qid].anchor(hcs.direction);
                        let rank = anchors
                            .binary_search(&anchor)
                            .expect("every endpoint of a full query was ranked");
                        relax(&mut present, &mut best, rank, queries[qid].hop_limit);
                    }
                    QueryNode::Hcs(_) => {
                        for a in &slacks[user] {
                            let slack = a.slack.saturating_sub(offset);
                            relax(&mut present, &mut best, a.anchor.index(), slack);
                        }
                    }
                }
            }
            let count = present.iter().map(|w| w.count_ones() as usize).sum();
            let mut list = Vec::with_capacity(count);
            for (w, word) in present.iter_mut().enumerate() {
                let mut bits = std::mem::take(word);
                while bits != 0 {
                    let rank = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    list.push(AnchorSlack {
                        anchor: VertexId(rank as u32),
                        slack: std::mem::take(&mut best[rank]),
                    });
                }
            }
            slacks[node] = list;
        }
        for a in slacks.iter_mut().flatten() {
            a.anchor = anchors[a.anchor.index()];
        }
        slacks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcsp_graph::Direction;

    impl SharingGraph {
        /// Whether `to` is reachable from `from` following provider → user edges: the
        /// plain depth-first walk the incremental numbering replaced, kept as the oracle
        /// `add_dependency` checks every answer against under `cfg(test)`.
        pub(super) fn reaches(&self, from: NodeId, to: NodeId) -> bool {
            let mut visited = vec![false; self.nodes.len()];
            let mut stack = vec![from];
            visited[from] = true;
            while let Some(n) = stack.pop() {
                for &(u, _) in &self.users[n] {
                    if u == to {
                        return true;
                    }
                    if !visited[u] {
                        visited[u] = true;
                        stack.push(u);
                    }
                }
            }
            false
        }
    }

    fn hcs(root: u32, budget: u32, dir: Direction) -> HcsQuery {
        HcsQuery::new(root, budget, dir)
    }

    #[test]
    fn nodes_are_deduplicated() {
        let mut g = SharingGraph::new();
        let a = g.add_hcs_query(hcs(1, 3, Direction::Forward));
        let b = g.add_hcs_query(hcs(1, 3, Direction::Forward));
        let c = g.add_hcs_query(hcs(1, 2, Direction::Forward));
        let f1 = g.add_full_query(0);
        let f2 = g.add_full_query(0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(f1, f2);
        assert_eq!(g.len(), 3);
        assert_eq!(g.num_hcs_nodes(), 2);
        assert_eq!(g.find_hcs(&hcs(1, 3, Direction::Forward)), Some(a));
        assert_eq!(g.find_full(0), Some(f1));
        assert_eq!(g.find_full(9), None);
        assert!(!g.is_empty());
    }

    #[test]
    fn dependencies_reject_cycles_and_self_edges() {
        let mut g = SharingGraph::new();
        let a = g.add_hcs_query(hcs(1, 3, Direction::Forward));
        let b = g.add_hcs_query(hcs(2, 2, Direction::Forward));
        let c = g.add_hcs_query(hcs(3, 1, Direction::Forward));
        assert!(!g.add_dependency(a, a, 0));
        assert!(g.add_dependency(a, b, 1));
        assert!(g.add_dependency(b, c, 1));
        // c -> a would close the cycle a -> b -> c -> a.
        assert!(!g.add_dependency(c, a, 2));
        // duplicate edges are accepted but not double-inserted.
        assert!(g.add_dependency(a, b, 1));
        assert_eq!(g.users(a).len(), 1);
        assert_eq!(g.providers(b).len(), 1);
    }

    /// Every node holds the label it is filed under, and every edge runs from a smaller
    /// label to a larger one.
    fn assert_numbering(g: &SharingGraph) {
        let order = &g.order;
        assert_eq!(order.by_label.len(), g.len());
        for (&label, &node) in &order.by_label {
            assert_eq!(order.label[node], label);
        }
        for (provider, _) in g.nodes() {
            for &(user, _) in g.users(provider) {
                assert!(order.label[provider] < order.label[user]);
            }
        }
    }

    #[test]
    fn numbering_holds_under_arbitrary_edges() {
        // Every accept/reject below is also checked against the depth-first oracle inside
        // `add_dependency` itself; dense random edges make cycles the common case.
        let mut g = SharingGraph::new();
        for i in 0..48u32 {
            if i % 6 == 0 {
                g.add_full_query(i as usize);
            } else {
                g.add_hcs_query(hcs(i, 3, Direction::Forward));
            }
        }
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % bound) as usize
        };
        let (mut accepted, mut refused) = (0, 0);
        for _ in 0..600 {
            let (provider, user) = (draw(48), draw(48));
            if g.add_dependency(provider, user, draw(3) as u32) {
                accepted += 1;
            } else {
                refused += 1;
            }
            assert_numbering(&g);
        }
        assert!(
            accepted > 50 && refused > 50,
            "{accepted} accepted, {refused} refused"
        );
        assert_eq!(g.topological_order().len(), g.len());
    }

    #[test]
    fn an_exhausted_gap_relabels_the_list() {
        // Each new node is born at the front and moved to directly after `hub`, halving
        // the gap there; past 32 halvings only spreading the labels out again makes room.
        let mut g = SharingGraph::new();
        let full = g.add_full_query(0);
        let hub = g.add_hcs_query(hcs(0, 9, Direction::Forward));
        g.add_dependency(hub, full, 0);
        let mut expected = vec![full];
        for i in 1..=80u32 {
            let user = g.add_hcs_query(hcs(i, 9, Direction::Forward));
            assert!(g.add_dependency(hub, user, 1));
            assert_numbering(&g);
            expected.push(user);
        }
        expected.push(hub);
        expected.reverse();
        let listed: Vec<NodeId> = g.order.by_label.values().copied().collect();
        assert_eq!(listed, expected);
        // `hub` was born at -LABEL_GAP; spread-out labels start at 0.
        assert_eq!(g.order.label[hub], 0);
    }

    #[test]
    fn topological_order_puts_providers_first() {
        let mut g = SharingGraph::new();
        let full = g.add_full_query(0);
        let half = g.add_hcs_query(hcs(0, 3, Direction::Forward));
        let dom = g.add_hcs_query(hcs(5, 2, Direction::Forward));
        g.add_dependency(half, full, 0);
        g.add_dependency(dom, half, 1);
        let order = g.topological_order();
        let pos = |n: NodeId| order.iter().position(|&x| x == n).unwrap();
        assert!(pos(dom) < pos(half));
        assert!(pos(half) < pos(full));
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn provider_rooted_at_picks_largest_budget() {
        let mut g = SharingGraph::new();
        let user = g.add_hcs_query(hcs(0, 4, Direction::Forward));
        let small = g.add_hcs_query(hcs(7, 1, Direction::Forward));
        let large = g.add_hcs_query(hcs(7, 3, Direction::Forward));
        let other = g.add_hcs_query(hcs(9, 3, Direction::Forward));
        g.add_dependency(small, user, 3);
        g.add_dependency(large, user, 1);
        g.add_dependency(other, user, 1);
        let (found, q) = g.provider_rooted_at(user, VertexId(7)).unwrap();
        assert_eq!(found, large);
        assert_eq!(q.budget, 3);
        assert!(g.provider_rooted_at(user, VertexId(42)).is_none());
    }

    #[test]
    fn anchor_slacks_propagate_through_offsets() {
        // Full query q0(s=0, t=9, k=5): forward half (0,3,G). A dominating query (4,2,G)
        // provides for the half with offset 1.
        let queries = vec![PathQuery::new(0u32, 9u32, 5)];
        let mut g = SharingGraph::new();
        let full = g.add_full_query(0);
        let half = g.add_hcs_query(hcs(0, 3, Direction::Forward));
        let dom = g.add_hcs_query(hcs(4, 2, Direction::Forward));
        g.add_dependency(half, full, 0);
        g.add_dependency(dom, half, 1);

        let slacks = g.anchor_slacks(&queries);
        assert_eq!(
            slacks[half],
            vec![AnchorSlack {
                anchor: VertexId(9),
                slack: 5
            }]
        );
        assert_eq!(
            slacks[dom],
            vec![AnchorSlack {
                anchor: VertexId(9),
                slack: 4
            }]
        );
        assert!(slacks[full].is_empty());
    }

    #[test]
    fn anchor_slacks_keep_the_loosest_constraint_per_anchor() {
        // Two queries with the same target but different k share a dominating provider.
        let queries = vec![PathQuery::new(0u32, 9u32, 4), PathQuery::new(1u32, 9u32, 6)];
        let mut g = SharingGraph::new();
        let f0 = g.add_full_query(0);
        let f1 = g.add_full_query(1);
        let h0 = g.add_hcs_query(hcs(0, 2, Direction::Forward));
        let h1 = g.add_hcs_query(hcs(1, 3, Direction::Forward));
        let dom = g.add_hcs_query(hcs(5, 2, Direction::Forward));
        g.add_dependency(h0, f0, 0);
        g.add_dependency(h1, f1, 0);
        g.add_dependency(dom, h0, 0);
        g.add_dependency(dom, h1, 1);
        let slacks = g.anchor_slacks(&queries);
        // Via h0: slack 4 - 0 = 4; via h1: slack 6 - 1 = 5; the larger one wins.
        assert_eq!(
            slacks[dom],
            vec![AnchorSlack {
                anchor: VertexId(9),
                slack: 5
            }]
        );
    }

    #[test]
    fn backward_half_uses_the_source_as_anchor() {
        let queries = vec![PathQuery::new(3u32, 8u32, 5)];
        let mut g = SharingGraph::new();
        let full = g.add_full_query(0);
        let half = g.add_hcs_query(hcs(8, 2, Direction::Backward));
        g.add_dependency(half, full, 0);
        let slacks = g.anchor_slacks(&queries);
        assert_eq!(
            slacks[half],
            vec![AnchorSlack {
                anchor: VertexId(3),
                slack: 5
            }]
        );
    }
}
