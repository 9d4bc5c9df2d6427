//! Residual flow-network representation shared by all algorithms.
//!
//! A network is described by its *edge slots*: adding an edge appends slot
//! `2k` (the edge) and slot `2k + 1` (its reverse). Slots are the names
//! the public surface speaks in — original capacities and
//! [`FlowNetwork::set_undirected_capacity`].
//!
//! The solvers walk a second view of the same network, built once per
//! topology: the residual arcs laid out vertex by vertex, each vertex's
//! arcs one contiguous slice of `{head, rev, residual}` records — the
//! layout Cherkassky and Goldberg's HIPR keeps its arcs in. A push touches
//! the arc and its pair and nothing else, and a scan over a vertex's arcs
//! reads one run of memory instead of chasing edge ids into a second
//! table. Within a vertex the arcs keep edge-slot order, so every
//! algorithm meets them in the order the edges were added. Adding an edge
//! drops the layout, and the next reader rebuilds it from the original
//! capacities: a network is built whole before it holds any flow.

use std::ops::Range;
use std::sync::OnceLock;

/// Node index within a [`FlowNetwork`].
pub type NodeId = usize;

/// The top of the capacity range, and the capacity of an edge no finite
/// cut severs.
///
/// Large enough that no realistic communication graph sums to it, small
/// enough that summing millions of such edges cannot overflow `u64`
/// arithmetic inside the algorithms (excess bookkeeping uses `u128`).
pub const INFINITE: u64 = u64::MAX / (1 << 22);

/// One residual arc of the per-vertex layout.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ResidualArc {
    /// The vertex the arc enters.
    pub(crate) head: u32,
    /// Position of the paired arc, which runs the other way.
    pub(crate) rev: u32,
    /// Capacity left on the arc.
    pub(crate) residual: u64,
}

/// The residual arcs laid out vertex by vertex (compressed sparse rows).
#[derive(Debug, Clone)]
pub(crate) struct Arcs {
    /// `first[v]..first[v + 1]` are the positions of `v`'s arcs.
    pub(crate) first: Vec<usize>,
    pub(crate) arc: Vec<ResidualArc>,
    /// Edge slot of each arc position.
    slot: Vec<u32>,
    /// Arc position of each edge slot.
    arc_of: Vec<u32>,
}

impl Arcs {
    /// Lays out the slots of `heads` (slot `e`'s tail is the head of
    /// `e ^ 1`) by tail, in slot order within a tail, each arc starting
    /// with its slot's capacity in `caps`.
    fn build(n: usize, heads: &[u32], caps: &[u64]) -> Self {
        let m = heads.len();
        assert!(
            u32::try_from(m).is_ok(),
            "too many edges for the arc layout"
        );
        let mut first = vec![0usize; n + 1];
        for e in 0..m {
            first[heads[e ^ 1] as usize + 1] += 1;
        }
        for v in 0..n {
            first[v + 1] += first[v];
        }
        let mut fill = first[..n].to_vec();
        let mut arc_of = vec![0u32; m];
        let mut slot = vec![0u32; m];
        for e in 0..m {
            let tail = heads[e ^ 1] as usize;
            let a = fill[tail];
            fill[tail] += 1;
            arc_of[e] = a as u32;
            slot[a] = e as u32;
        }
        let arc = slot
            .iter()
            .map(|&e| ResidualArc {
                head: heads[e as usize],
                rev: arc_of[e as usize ^ 1],
                residual: caps[e as usize],
            })
            .collect();
        Arcs {
            first,
            arc,
            slot,
            arc_of,
        }
    }

    /// Positions of the arcs leaving `v`.
    pub(crate) fn of(&self, v: NodeId) -> Range<usize> {
        self.first[v]..self.first[v + 1]
    }

    /// Moves `amount` units of residual capacity from arc `a` to its pair.
    pub(crate) fn push(&mut self, a: usize, amount: u64) {
        self.arc[a].residual -= amount;
        let rev = self.arc[a].rev as usize;
        self.arc[rev].residual += amount;
    }
}

/// A directed flow network with residual bookkeeping.
///
/// Edges are stored in pairs: edge slot `2k` and its reverse `2k + 1`.
/// Residuals change as flow is pushed;
/// [`FlowNetwork::set_undirected_capacity`] rewrites a pair and clears its
/// flow.
#[derive(Debug, Clone)]
pub struct FlowNetwork {
    nodes: usize,
    /// Head of each edge slot; slot `e`'s tail is the head of `e ^ 1`.
    heads: Vec<u32>,
    /// Original capacity of each edge slot.
    caps: Vec<u64>,
    /// Whether every edge has the same capacity both ways.
    symmetric: bool,
    arcs: OnceLock<Arcs>,
}

impl FlowNetwork {
    /// Creates a network with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            nodes: n,
            heads: Vec::new(),
            caps: Vec::new(),
            symmetric: true,
            arcs: OnceLock::new(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Adds a node, returning its id.
    #[cfg(test)]
    pub(crate) fn add_node(&mut self) -> NodeId {
        self.arcs = OnceLock::new();
        self.nodes += 1;
        self.nodes - 1
    }

    /// Adds a directed edge `u → v` with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range (a programming error in the
    /// graph construction, not a runtime condition).
    #[cfg(test)]
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
        assert!(u < self.nodes && v < self.nodes, "node out of range");
        self.arcs = OnceLock::new();
        let id = |x: NodeId| u32::try_from(x).expect("node ids fit the arc layout");
        self.heads.extend([id(v), id(u)]);
        self.caps.extend([cap, rev_cap]);
        self.symmetric &= cap == rev_cap;
    }

    /// This network with every node `v` moved to `into(v)`: each edge
    /// keeps its capacities both ways and its place in edge order, and an
    /// edge whose ends land on one node drops out. Merging nodes that no
    /// finite cut separates leaves every finite cut, and the minimal source
    /// side, as it was.
    pub(crate) fn merged(&self, into: impl Fn(NodeId) -> NodeId) -> FlowNetwork {
        let mut merged = FlowNetwork::new(self.nodes);
        for base in (0..self.caps.len()).step_by(2) {
            let (u, v) = (into(self.head(base + 1)), into(self.head(base)));
            if u != v {
                merged.add_edge_with_reverse(u, v, self.caps[base], self.caps[base + 1]);
            }
        }
        merged
    }

    /// Whether every edge has the same original capacity both ways, so
    /// that any flow read backwards is a flow of the same value.
    pub(crate) fn is_symmetric(&self) -> bool {
        self.symmetric
    }

    /// Total original capacity of the arcs leaving `v`.
    pub(crate) fn capacity_out(&self, v: NodeId) -> u128 {
        self.edges_of(v).map(|e| u128::from(self.caps[e])).sum()
    }

    /// The arc layout, built on first use after a topology change.
    pub(crate) fn arcs(&self) -> &Arcs {
        self.arcs
            .get_or_init(|| Arcs::build(self.nodes, &self.heads, &self.caps))
    }

    /// [`FlowNetwork::arcs`], for pushing flow.
    pub(crate) fn arcs_mut(&mut self) -> &mut Arcs {
        self.arcs();
        self.arcs.get_mut().expect("the layout was just built")
    }

    /// Rewrites the capacity of undirected edge pair `pair` (both
    /// directions get `cap`) and clears any flow on it.
    ///
    /// Topology is untouched, so edge ids and the arc layout stay as they
    /// are. This is the re-parameterization primitive behind capacity
    /// sweeps: build the network once, then rescale edge weights point by
    /// point instead of rebuilding.
    ///
    /// # Panics
    ///
    /// Panics if `pair` is out of range.
    pub fn set_undirected_capacity(&mut self, pair: usize, cap: u64) {
        let base = pair * 2;
        assert!(base + 1 < self.caps.len(), "edge pair out of range");
        self.caps[base] = cap;
        self.caps[base + 1] = cap;
        if let Some(arcs) = self.arcs.get_mut() {
            for e in [base, base + 1] {
                arcs.arc[arcs.arc_of[e] as usize].residual = cap;
            }
        }
    }

    /// Restores every edge to its original capacity (undoes all flow).
    #[cfg(test)]
    pub(crate) fn reset(&mut self) {
        if let Some(arcs) = self.arcs.get_mut() {
            for (arc, &e) in arcs.arc.iter_mut().zip(&arcs.slot) {
                arc.residual = self.caps[e as usize];
            }
        }
    }

    /// Residual capacity of edge slot `e`.
    pub(crate) fn residual(&self, e: usize) -> u64 {
        let arcs = self.arcs();
        arcs.arc[arcs.arc_of[e] as usize].residual
    }

    /// Original capacity of edge `e`.
    pub fn original(&self, e: usize) -> u64 {
        self.caps[e]
    }

    /// Head node of edge `e`.
    pub(crate) fn head(&self, e: usize) -> NodeId {
        self.heads[e] as usize
    }

    /// Edge slots leaving `u` (including reverse edges), in slot order.
    pub(crate) fn edges_of(&self, u: NodeId) -> impl Iterator<Item = usize> + '_ {
        let arcs = self.arcs();
        arcs.slot[arcs.of(u)].iter().map(|&e| e as usize)
    }

    /// Nodes reachable from `s` in the residual graph — the source side of
    /// a minimum cut once a maximum flow has been established.
    pub(crate) fn residual_reachable(&self, s: NodeId) -> Vec<bool> {
        let arcs = self.arcs();
        let mut seen = vec![false; self.node_count()];
        let mut queue = std::collections::VecDeque::new();
        seen[s] = true;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for arc in &arcs.arc[arcs.of(u)] {
                let v = arc.head as usize;
                if arc.residual > 0 && !seen[v] {
                    seen[v] = true;
                    queue.push_back(v);
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
        for base in (0..self.caps.len()).step_by(2) {
            // A push moves residual from a slot to its pair, so the slot's
            // residual below its capacity is the pair's net flow; positive
            // flow travels along the forward edge.
            let flow = i128::from(self.caps[base]) - i128::from(self.residual(base));
            net[self.head(base + 1)] -= flow;
            net[self.head(base)] += flow;
        }
        (0..self.node_count())
            .filter(|&n| n != s && n != t && net[n] != 0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pushes `amount` units along edge slot `e`.
    fn push_along(g: &mut FlowNetwork, e: usize, amount: u64) {
        let arcs = g.arcs_mut();
        let a = arcs.arc_of[e] as usize;
        arcs.push(a, amount);
    }

    #[test]
    fn build_and_inspect() {
        let mut g = FlowNetwork::new(3);
        g.add_edge(0, 1, 10);
        g.add_undirected(1, 2, 5);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.heads.len(), 4); // two edges, each with its reverse
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
        push_along(&mut g, 0, 4);
        assert_eq!(g.residual(0), 6);
        assert_eq!(g.residual(1), 4);
        g.reset();
        assert_eq!(g.residual(0), 10);
        assert_eq!(g.residual(1), 0);
    }

    #[test]
    fn reachability_respects_residuals() {
        let mut g = FlowNetwork::new(3);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 2, 1);
        push_along(&mut g, 0, 1); // saturate 0→1
        let seen = g.residual_reachable(0);
        assert!(seen[0] && !seen[1] && !seen[2]);
    }

    #[test]
    fn conservation_detects_imbalance() {
        let mut g = FlowNetwork::new(3);
        g.add_edge(0, 1, 5);
        g.add_edge(1, 2, 5);
        push_along(&mut g, 0, 3);
        // Node 1 received 3 but forwarded 0 → violation.
        assert_eq!(g.conservation_violations(0, 2), vec![1]);
        push_along(&mut g, 2, 3);
        assert!(g.conservation_violations(0, 2).is_empty());
    }

    #[test]
    fn networks_can_be_shared_across_threads() {
        fn send_and_sync<T: Send + Sync>() {}
        send_and_sync::<FlowNetwork>();
    }

    #[test]
    fn infinite_is_far_from_overflow() {
        // A million infinite edges still fits in u64 arithmetic.
        assert!(INFINITE.checked_mul(1 << 20).is_some());
    }
}
