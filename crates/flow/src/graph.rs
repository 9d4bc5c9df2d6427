//! Residual flow-network representation shared by all algorithms.

/// Node index within a [`FlowNetwork`].
pub type NodeId = usize;

/// Capacity treated as uncuttable.
///
/// Large enough that no realistic communication graph sums to it, small
/// enough that summing millions of infinite edges cannot overflow `u64`
/// arithmetic inside the algorithms (excess bookkeeping uses `u128`).
pub const INFINITE: u64 = u64::MAX / (1 << 22);

#[derive(Debug, Clone)]
struct RawEdge {
    to: NodeId,
    cap: u64,
}

/// A directed flow network with residual bookkeeping.
///
/// Edges are stored in pairs: edge `2k` and its reverse `2k + 1`. Capacities
/// mutate as flow is pushed; [`FlowNetwork::reset`] restores the original
/// capacities so several algorithms can run on the same instance.
#[derive(Debug, Clone)]
pub struct FlowNetwork {
    adj: Vec<Vec<usize>>,
    edges: Vec<RawEdge>,
    original_caps: Vec<u64>,
}

impl FlowNetwork {
    /// Creates a network with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            adj: vec![Vec::new(); n],
            edges: Vec::new(),
            original_caps: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of directed edges (excluding the implicit reverses).
    pub(crate) fn edge_count(&self) -> usize {
        self.edges.len() / 2
    }

    /// Adds a node, returning its id.
    pub(crate) fn add_node(&mut self) -> NodeId {
        self.adj.push(Vec::new());
        self.adj.len() - 1
    }

    /// Adds a directed edge `u → v` with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range (a programming error in the
    /// graph construction, not a runtime condition).
    pub(crate) fn add_edge(&mut self, u: NodeId, v: NodeId, cap: u64) {
        self.add_edge_with_reverse(u, v, cap, 0);
    }

    /// Adds an undirected edge: capacity `cap` in both directions.
    ///
    /// Communication edges are undirected — cutting the edge costs its
    /// weight no matter which side initiates the calls.
    pub fn add_undirected(&mut self, u: NodeId, v: NodeId, cap: u64) {
        self.add_edge_with_reverse(u, v, cap, cap);
    }

    /// Adds an edge with explicit forward and reverse capacities.
    fn add_edge_with_reverse(&mut self, u: NodeId, v: NodeId, cap: u64, rev_cap: u64) {
        assert!(
            u < self.adj.len() && v < self.adj.len(),
            "node out of range"
        );
        let fwd = self.edges.len();
        self.edges.push(RawEdge { to: v, cap });
        self.edges.push(RawEdge {
            to: u,
            cap: rev_cap,
        });
        self.original_caps.push(cap);
        self.original_caps.push(rev_cap);
        self.adj[u].push(fwd);
        self.adj[v].push(fwd + 1);
    }

    /// Rewrites the capacity of undirected edge pair `pair` (both
    /// directions get `cap`) and clears any flow on it.
    ///
    /// Topology is untouched, so edge ids — and therefore
    /// [`FlowNetwork::snapshot_flows`] layouts taken before the rewrite —
    /// stay index-compatible. This is the re-parameterization primitive
    /// behind capacity sweeps: build the network once, then rescale edge
    /// weights point by point instead of rebuilding.
    ///
    /// # Panics
    ///
    /// Panics if `pair` is out of range.
    pub fn set_undirected_capacity(&mut self, pair: usize, cap: u64) {
        let base = pair * 2;
        assert!(base + 1 < self.edges.len(), "edge pair out of range");
        self.original_caps[base] = cap;
        self.original_caps[base + 1] = cap;
        self.edges[base].cap = cap;
        self.edges[base + 1].cap = cap;
    }

    /// Restores every edge to its original capacity (undoes all flow).
    pub fn reset(&mut self) {
        for (edge, cap) in self.edges.iter_mut().zip(&self.original_caps) {
            edge.cap = *cap;
        }
    }

    /// Residual capacity of edge `e`.
    pub(crate) fn residual(&self, e: usize) -> u64 {
        self.edges[e].cap
    }

    /// Original capacity of edge `e`.
    pub fn original(&self, e: usize) -> u64 {
        self.original_caps[e]
    }

    /// Head node of edge `e`.
    pub(crate) fn head(&self, e: usize) -> NodeId {
        self.edges[e].to
    }

    /// Edge indices leaving `u` (including reverse edges).
    pub(crate) fn edges_of(&self, u: NodeId) -> &[usize] {
        &self.adj[u]
    }

    /// Flow currently on forward edge `e` (original − residual).
    fn flow_on(&self, e: usize) -> u64 {
        self.original_caps[e].saturating_sub(self.edges[e].cap)
    }

    /// Snapshot of the flow on every directed edge slot (forward and
    /// reverse, in raw edge-id order) — the format consumed by
    /// warm-started solvers such as
    /// `push_relabel::max_flow_warm`.
    ///
    /// Take it after a completed max-flow run; pass it to a later solve on
    /// a network with identical topology and capacities that only grew.
    pub fn snapshot_flows(&self) -> Vec<u64> {
        (0..self.edges.len()).map(|e| self.flow_on(e)).collect()
    }

    /// Repairs a [`FlowNetwork::snapshot_flows`] snapshot so it is a valid
    /// feasible flow under the network's *current* capacities, which may be
    /// smaller than the capacities the snapshot was taken under.
    ///
    /// `push_relabel::max_flow_warm`
    /// requires capacities that only grew since the snapshot; a recovery
    /// re-solve violates that — pinning a component away from a dead
    /// machine shrinks an edge that may have carried flow. This primitive
    /// restores feasibility: each pair is normalized to its net flow and
    /// clamped to the current capacity, then conservation is repaired by
    /// cancelling flow into over-full nodes (propagating the cancellation
    /// backward toward the flow's origin) and out of starved nodes
    /// (propagating forward). Every repair step strictly decreases the
    /// total flow, so the loop terminates; nodes are visited lowest-id
    /// first and adjacency lists in insertion order, so the result is
    /// deterministic. The repaired snapshot is then a legal warm start.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot length does not match the edge table.
    pub fn clamp_flows(&self, s: NodeId, t: NodeId, flows: &mut [u64]) {
        assert_eq!(
            flows.len(),
            self.edges.len(),
            "flow snapshot does not match the network topology"
        );
        // Normalize each pair to its net direction and clamp to the
        // current capacity of that slot.
        for base in (0..flows.len()).step_by(2) {
            let net = i128::from(flows[base]) - i128::from(flows[base + 1]);
            let (slot, amount) = if net >= 0 {
                (base, u64::try_from(net).expect("net flow fits u64"))
            } else {
                (base + 1, u64::try_from(-net).expect("net flow fits u64"))
            };
            flows[base] = 0;
            flows[base + 1] = 0;
            flows[slot] = amount.min(self.original_caps[slot]);
        }
        let mut balance = vec![0i128; self.node_count()];
        for (e, &f) in flows.iter().enumerate() {
            if f > 0 {
                balance[self.edges[e ^ 1].to] -= i128::from(f);
                balance[self.edges[e].to] += i128::from(f);
            }
        }
        // Interior nodes must conserve exactly; the source may only emit
        // (net inflow there would surface as a deficit at the sink) and
        // the sink may only absorb.
        let needs_repair = |v: NodeId, b: i128| {
            if v == s {
                b > 0
            } else if v == t {
                b < 0
            } else {
                b != 0
            }
        };
        while let Some(v) = (0..self.node_count()).find(|&v| needs_repair(v, balance[v])) {
            if balance[v] > 0 {
                // Excess inflow: cancel incoming flow, handing the excess
                // back to each arc's tail.
                let mut need = u64::try_from(balance[v]).expect("balance fits u64");
                for &e in &self.adj[v] {
                    let inc = e ^ 1; // the arc head(e) → v
                    let cut = need.min(flows[inc]);
                    if cut > 0 {
                        flows[inc] -= cut;
                        balance[v] -= i128::from(cut);
                        balance[self.edges[e].to] += i128::from(cut);
                        need -= cut;
                    }
                    if need == 0 {
                        break;
                    }
                }
                debug_assert_eq!(need, 0, "excess exceeds inflow at node {v}");
            } else {
                // Starved: cancel outgoing flow, handing the deficit
                // forward to each arc's head.
                let mut need = u64::try_from(-balance[v]).expect("balance fits u64");
                for &e in &self.adj[v] {
                    let cut = need.min(flows[e]);
                    if cut > 0 {
                        flows[e] -= cut;
                        balance[v] += i128::from(cut);
                        balance[self.edges[e].to] -= i128::from(cut);
                        need -= cut;
                    }
                    if need == 0 {
                        break;
                    }
                }
                debug_assert_eq!(need, 0, "deficit exceeds outflow at node {v}");
            }
        }
    }

    pub(crate) fn push_along(&mut self, e: usize, amount: u64) {
        self.edges[e].cap -= amount;
        self.edges[e ^ 1].cap += amount;
    }

    /// Nodes reachable from `s` in the residual graph — the source side of
    /// a minimum cut once a maximum flow has been established.
    pub(crate) fn residual_reachable(&self, s: NodeId) -> Vec<bool> {
        let mut seen = vec![false; self.node_count()];
        let mut queue = std::collections::VecDeque::new();
        seen[s] = true;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for &e in &self.adj[u] {
                let edge = &self.edges[e];
                if edge.cap > 0 && !seen[edge.to] {
                    seen[edge.to] = true;
                    queue.push_back(edge.to);
                }
            }
        }
        seen
    }

    /// Checks flow conservation at every node except `s` and `t`.
    ///
    /// Returns the list of violating nodes (empty when the flow is valid).
    /// Used by tests and debug assertions.
    pub(crate) fn conservation_violations(&self, s: NodeId, t: NodeId) -> Vec<NodeId> {
        let mut net: Vec<i128> = vec![0; self.node_count()];
        for base in (0..self.edges.len()).step_by(2) {
            let flow = self.flow_on(base) as i128 - self.flow_on(base + 1) as i128;
            // Positive flow travels along the forward edge.
            let u = self.edges[base + 1].to;
            let v = self.edges[base].to;
            net[u] -= flow;
            net[v] += flow;
        }
        (0..self.node_count())
            .filter(|&n| n != s && n != t && net[n] != 0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_inspect() {
        let mut g = FlowNetwork::new(3);
        g.add_edge(0, 1, 10);
        g.add_undirected(1, 2, 5);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.residual(0), 10);
        assert_eq!(g.residual(1), 0); // reverse of the directed edge
        assert_eq!(g.residual(2), 5);
        assert_eq!(g.residual(3), 5); // undirected: both directions
        assert_eq!(g.head(0), 1);
        assert_eq!(g.head(1), 0);
    }

    #[test]
    fn add_node_grows_graph() {
        let mut g = FlowNetwork::new(0);
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b, 1);
        assert_eq!(g.node_count(), 2);
    }

    #[test]
    #[should_panic(expected = "node out of range")]
    fn out_of_range_edge_panics() {
        let mut g = FlowNetwork::new(1);
        g.add_edge(0, 5, 1);
    }

    #[test]
    fn push_and_reset() {
        let mut g = FlowNetwork::new(2);
        g.add_edge(0, 1, 10);
        g.push_along(0, 4);
        assert_eq!(g.residual(0), 6);
        assert_eq!(g.residual(1), 4);
        assert_eq!(g.flow_on(0), 4);
        g.reset();
        assert_eq!(g.residual(0), 10);
        assert_eq!(g.flow_on(0), 0);
    }

    #[test]
    fn reachability_respects_residuals() {
        let mut g = FlowNetwork::new(3);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 2, 1);
        g.push_along(0, 1); // saturate 0→1
        let seen = g.residual_reachable(0);
        assert!(seen[0] && !seen[1] && !seen[2]);
    }

    #[test]
    fn conservation_detects_imbalance() {
        let mut g = FlowNetwork::new(3);
        g.add_edge(0, 1, 5);
        g.add_edge(1, 2, 5);
        g.push_along(0, 3);
        // Node 1 received 3 but forwarded 0 → violation.
        assert_eq!(g.conservation_violations(0, 2), vec![1]);
        g.push_along(2, 3);
        assert!(g.conservation_violations(0, 2).is_empty());
    }

    /// Per-node net balance of a snapshot (inflow − outflow).
    fn balances(g: &FlowNetwork, flows: &[u64]) -> Vec<i128> {
        let mut balance = vec![0i128; g.node_count()];
        for (e, &f) in flows.iter().enumerate() {
            balance[g.head(e ^ 1)] -= f as i128;
            balance[g.head(e)] += f as i128;
        }
        balance
    }

    #[test]
    fn clamp_flows_repairs_a_shrunk_chain() {
        // 0 —10— 1 —10— 2 carrying 10 units; the middle edge shrinks to 3.
        let mut g = FlowNetwork::new(3);
        g.add_undirected(0, 1, 10);
        g.add_undirected(1, 2, 10);
        crate::push_relabel::max_flow(&mut g, 0, 2);
        let mut flows = g.snapshot_flows();
        g.reset();
        g.set_undirected_capacity(1, 3);
        g.clamp_flows(0, 2, &mut flows);
        // Both edges now carry 3 units forward: feasible and conserving.
        assert_eq!(flows, vec![3, 0, 3, 0]);
        assert_eq!(balances(&g, &flows), vec![-3, 0, 3]);
    }

    #[test]
    fn clamp_flows_to_zero_capacity_drains_the_path() {
        let mut g = FlowNetwork::new(3);
        g.add_undirected(0, 1, 5);
        g.add_undirected(1, 2, 5);
        crate::push_relabel::max_flow(&mut g, 0, 2);
        let mut flows = g.snapshot_flows();
        g.reset();
        g.set_undirected_capacity(0, 0);
        g.clamp_flows(0, 2, &mut flows);
        assert_eq!(flows, vec![0; 4]);
    }

    #[test]
    fn clamp_flows_is_identity_on_a_feasible_snapshot() {
        let mut g = FlowNetwork::new(4);
        g.add_undirected(0, 1, 7);
        g.add_undirected(1, 2, 4);
        g.add_undirected(2, 3, 9);
        crate::push_relabel::max_flow(&mut g, 0, 3);
        let snapshot = g.snapshot_flows();
        g.reset();
        let mut flows = snapshot.clone();
        g.clamp_flows(0, 3, &mut flows);
        assert_eq!(flows, snapshot);
    }

    #[test]
    fn clamp_flows_reroutes_around_a_dead_branch() {
        // Two disjoint 0→3 paths; killing one leaves the other intact.
        let mut g = FlowNetwork::new(4);
        g.add_undirected(0, 1, 6);
        g.add_undirected(1, 3, 6);
        g.add_undirected(0, 2, 4);
        g.add_undirected(2, 3, 4);
        crate::push_relabel::max_flow(&mut g, 0, 3);
        let mut flows = g.snapshot_flows();
        g.reset();
        g.set_undirected_capacity(1, 0); // sever 1→3
        g.clamp_flows(0, 3, &mut flows);
        let balance = balances(&g, &flows);
        assert_eq!(balance[1], 0);
        assert_eq!(balance[2], 0);
        assert_eq!(balance[3], 4, "the surviving path still carries 4");
        for (e, &f) in flows.iter().enumerate() {
            assert!(f <= g.original(e), "clamped flow exceeds capacity");
        }
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn clamp_flows_rejects_wrong_snapshot_length() {
        let mut g = FlowNetwork::new(2);
        g.add_undirected(0, 1, 1);
        g.clamp_flows(0, 1, &mut [0u64; 3]);
    }

    #[test]
    fn infinite_is_far_from_overflow() {
        // A million infinite edges still fits in u64 arithmetic.
        assert!(INFINITE.checked_mul(1 << 20).is_some());
    }
}
