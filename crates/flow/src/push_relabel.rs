//! The lift-to-front maximum-flow solver: highest-label push-relabel.
//!
//! The Coign paper names its algorithm: "Coign employs the lift-to-front
//! minimum-cut graph-cutting algorithm \[CLRS\] to choose a distribution with
//! minimal communication time." What the paper claims is that the cut is
//! *exact*, not that one discharge order finds it, so
//! [`MaxFlowAlgorithm::LiftToFront`](crate::MaxFlowAlgorithm::LiftToFront)
//! keeps the paper's name and runs the push and relabel operations of CLRS
//! §26.4 in the order that does the least work: highest label first, with
//! the heuristics of Cherkassky and Goldberg's HIPR. [`crate::dinic`], an
//! independent algorithm, cross-checks its cuts.
//!
//! A solve has two phases over the same discharge loop ([`drain`]):
//!
//! 1. **Maximum preflow.** The overflowing vertex with the highest label
//!    below `|V|` is discharged next. Vertices sit in per-label buckets, so
//!    *gap relabeling* — when a label empties, no residual path to the sink
//!    can cross it, and every vertex above it is lifted to `|V|` — touches
//!    only the vertices it lifts. *Global relabeling* resets every label to
//!    its exact residual BFS distance to the sink at start-up and again
//!    after each `6|V| + |E|` units of relabel work. A vertex at `|V|`
//!    cannot reach the sink; whatever excess it holds is stranded.
//! 2. **Excess return.** Every overflowing vertex of a preflow has a
//!    residual path back to the source. The same loop, aimed at the source
//!    with labels starting at the exact residual distances to it, pushes
//!    the stranded excess home.
//!
//! The result is a real maximum flow, so
//! `FlowNetwork::residual_reachable` yields the unique minimal source side
//! of the minimum cut — the same side every exact solver yields — and a
//! [`FlowNetwork::snapshot_flows`] of it is a feasible warm start.
//!
//! `max_flow_warm` supports *warm starts*: re-solving a network whose
//! topology is unchanged but whose capacities grew (e.g. a sweep over
//! network speeds) by re-installing the previous solve's flow as the
//! starting preflow instead of starting from zero.

use crate::graph::{FlowNetwork, NodeId};

/// Relabel work charged per relabel on top of the arcs it scans (HIPR's β).
const RELABEL_WORK: usize = 12;

/// Computes a maximum `s`–`t` flow.
///
/// The network retains the residual state on return, so
/// [`FlowNetwork::residual_reachable`] immediately yields the minimum cut.
///
/// # Panics
///
/// Panics if `s == t`.
pub(crate) fn max_flow(g: &mut FlowNetwork, s: NodeId, t: NodeId) -> u64 {
    assert_ne!(s, t, "source and sink must differ");
    let excess = vec![0u128; g.node_count()];
    solve(g, s, t, excess)
}

/// Computes a maximum `s`–`t` flow, warm-started from a previous solve.
///
/// `previous_flows` must be a [`FlowNetwork::snapshot_flows`] taken after a
/// completed max-flow run on a network with *identical topology* (same
/// nodes, same edges in the same order) and edge capacities no larger than
/// the current ones. The old flow is then still feasible here, so it is
/// re-installed as the starting assignment and only the incremental flow
/// admitted by the enlarged capacities has to be found. When consecutive
/// solves differ only by a capacity rescaling — a sweep across network
/// latency/bandwidth points — this skips almost all of the work.
///
/// The result is exactly the maximum flow value; warm starting changes the
/// amount of work, never the answer.
///
/// # Panics
///
/// Panics if `s == t`, if the snapshot length does not match the network's
/// edge table, or if some edge capacity shrank below its previous flow
/// (the snapshot would be infeasible here — the caller broke the
/// monotonicity contract).
pub(crate) fn max_flow_warm(
    g: &mut FlowNetwork,
    s: NodeId,
    t: NodeId,
    previous_flows: &[u64],
) -> u64 {
    assert_ne!(s, t, "source and sink must differ");
    assert_eq!(
        previous_flows.len(),
        g.edge_count() * 2,
        "flow snapshot does not match the network topology"
    );
    let n = g.node_count();
    // Re-install the previous flow, pair by pair. For each undirected pair
    // only the net direction carries flow (the snapshot's saturating
    // subtraction guarantees one slot of each pair is zero).
    let mut balance = vec![0i128; n];
    for base in (0..previous_flows.len()).step_by(2) {
        let f = i128::from(previous_flows[base]) - i128::from(previous_flows[base + 1]);
        let (arc, amount) = if f >= 0 {
            (base, u64::try_from(f).expect("net flow fits u64"))
        } else {
            (base + 1, u64::try_from(-f).expect("net flow fits u64"))
        };
        if amount > 0 {
            assert!(
                g.residual(arc) >= amount,
                "warm start infeasible: an edge capacity shrank below its previous flow"
            );
            g.push_along(arc, amount);
        }
        let u = g.head(base + 1); // tail of the forward edge
        let v = g.head(base);
        balance[u] -= f;
        balance[v] += f;
    }
    // A valid previous flow conserves at every interior node, leaving
    // excess only at the sink (and a deficit at the source, which
    // push-relabel never tracks).
    let mut excess = vec![0u128; n];
    for (v, &b) in balance.iter().enumerate() {
        if v == s {
            continue;
        }
        debug_assert!(b >= 0, "previous flow violates conservation at node {v}");
        excess[v] = u128::try_from(b.max(0)).expect("balance fits u128");
    }
    solve(g, s, t, excess)
}

/// Saturates every residual arc out of `s`, finds a maximum preflow, then
/// returns its stranded excess to `s`; the flow arriving at `t` is the
/// answer.
fn solve(g: &mut FlowNetwork, s: NodeId, t: NodeId, mut excess: Vec<u128>) -> u64 {
    for i in 0..g.edges_of(s).len() {
        let e = g.edges_of(s)[i];
        let cap = g.residual(e);
        if cap > 0 {
            let v = g.head(e);
            g.push_along(e, cap);
            excess[v] += u128::from(cap);
        }
    }
    let mut levels = Levels::new(g.node_count());
    levels.drain(g, t, s, &mut excess);
    levels.drain(g, s, t, &mut excess);
    debug_assert!(g.conservation_violations(s, t).is_empty());
    u64::try_from(excess[t]).expect("flow exceeds u64")
}

/// End of a bucket list.
const NONE: usize = usize::MAX;

/// Labels and per-label buckets, kept as intrusive lists over per-vertex
/// arrays so that a solve allocates them once.
struct Levels {
    /// Label per vertex; `n` once it cannot reach the target.
    label: Vec<usize>,
    /// Current arc per vertex: no arc before it is admissible.
    cursor: Vec<usize>,
    /// Head, per label, of the doubly linked list (`next`/`prev`) of the
    /// vertices at that label, which gap relabeling walks.
    members: Vec<usize>,
    next: Vec<usize>,
    prev: Vec<usize>,
    /// Head, per label, of the stack (`next_active`) of the overflowing
    /// vertices at that label — all of them except the one discharging.
    active: Vec<usize>,
    next_active: Vec<usize>,
    /// No label above `high` has members, none above `top` active ones.
    high: usize,
    top: usize,
}

impl Levels {
    fn new(n: usize) -> Self {
        Levels {
            label: vec![n; n],
            cursor: vec![0; n],
            members: vec![NONE; n],
            next: vec![NONE; n],
            prev: vec![NONE; n],
            active: vec![NONE; n],
            next_active: vec![NONE; n],
            high: 0,
            top: 0,
        }
    }

    /// Discharges, highest label first, every overflowing vertex that can
    /// still reach `target`, never entering `avoid` (the other terminal).
    /// Labels are residual distances to `target` — exact after each global
    /// relabel, valid lower bounds in between; `avoid` and every vertex
    /// that cannot reach `target` sit at `n` and are left alone.
    fn drain(&mut self, g: &mut FlowNetwork, target: NodeId, avoid: NodeId, excess: &mut [u128]) {
        let n = g.node_count();
        if !(0..n).any(|v| v != target && v != avoid && excess[v] > 0) {
            return;
        }
        let budget = 6 * n + g.edge_count();
        self.global_relabel(g, target, avoid, excess);
        let mut work = 0;
        while let Some(u) = self.pop_highest() {
            if work > budget {
                // `u` is still overflowing, so the relabel re-stacks it.
                work = 0;
                self.global_relabel(g, target, avoid, excess);
            } else {
                work += self.discharge(g, u, target, excess);
            }
        }
    }

    /// Global relabeling: exact residual BFS distances to `target`, not
    /// passing through `avoid`; every vertex that cannot reach `target`
    /// goes to `n`. Rebuilds the buckets and rewinds every current arc.
    fn global_relabel(&mut self, g: &FlowNetwork, target: NodeId, avoid: NodeId, excess: &[u128]) {
        let n = self.label.len();
        self.label.fill(n);
        self.cursor.fill(0);
        self.members.fill(NONE);
        self.active.fill(NONE);
        (self.high, self.top) = (0, 0);
        self.label[target] = 0;
        self.link(target);
        // One label at a time: label d's members are the frontier that
        // fills label d + 1 (at most n - 2, as `avoid` is never reached).
        let mut d = 0;
        while self.members[d] != NONE {
            let mut v = self.members[d];
            while v != NONE {
                for &e in g.edges_of(v) {
                    let u = g.head(e);
                    // The residual arc u → v is e's pair, which leaves u.
                    if self.label[u] == n && u != avoid && g.residual(e ^ 1) > 0 {
                        self.label[u] = d + 1;
                        self.link(u);
                        if excess[u] > 0 {
                            self.activate(u);
                        }
                    }
                }
                v = self.next[v];
            }
            d += 1;
        }
    }

    fn link(&mut self, v: NodeId) {
        let head = &mut self.members[self.label[v]];
        (self.next[v], self.prev[v]) = (*head, NONE);
        if *head != NONE {
            self.prev[*head] = v;
        }
        *head = v;
        self.high = self.high.max(self.label[v]);
    }

    fn unlink(&mut self, v: NodeId) {
        let (prev, next) = (self.prev[v], self.next[v]);
        if prev == NONE {
            self.members[self.label[v]] = next;
        } else {
            self.next[prev] = next;
        }
        if next != NONE {
            self.prev[next] = prev;
        }
    }

    fn activate(&mut self, v: NodeId) {
        let head = &mut self.active[self.label[v]];
        self.next_active[v] = *head;
        *head = v;
        self.top = self.top.max(self.label[v]);
    }

    /// Pops an overflowing vertex of the highest label below `n`, if any.
    fn pop_highest(&mut self) -> Option<NodeId> {
        loop {
            let u = self.active[self.top];
            if u != NONE {
                self.active[self.top] = self.next_active[u];
                return Some(u);
            }
            if self.top == 0 {
                return None;
            }
            self.top -= 1;
        }
    }

    /// Pushes `u`'s excess along admissible arcs, relabeling as needed,
    /// until it stops overflowing or can no longer reach the target.
    /// Returns the relabel work done.
    fn discharge(
        &mut self,
        g: &mut FlowNetwork,
        u: NodeId,
        target: NodeId,
        excess: &mut [u128],
    ) -> usize {
        let mut work = 0;
        loop {
            let degree = g.edges_of(u).len();
            while self.cursor[u] < degree {
                let e = g.edges_of(u)[self.cursor[u]];
                let v = g.head(e);
                let cap = g.residual(e);
                if cap > 0 && self.label[v] + 1 == self.label[u] {
                    let amount = cap.min(u64::try_from(excess[u]).unwrap_or(u64::MAX));
                    g.push_along(e, amount);
                    if excess[v] == 0 && v != target {
                        self.activate(v);
                    }
                    excess[v] += u128::from(amount);
                    excess[u] -= u128::from(amount);
                    if excess[u] == 0 {
                        return work; // the arc may keep residual: stay on it
                    }
                }
                self.cursor[u] += 1;
            }
            work += RELABEL_WORK + degree;
            if !self.relabel(g, u) {
                return work;
            }
        }
    }

    /// Lifts `u` to one more than its lowest residual neighbour and points
    /// its current arc there — unless `u` was the last vertex at its label:
    /// then no residual path to the target crosses that label, and the gap
    /// heuristic lifts `u` and every vertex above it to `n`. Returns whether
    /// `u` can still reach the target.
    fn relabel(&mut self, g: &FlowNetwork, u: NodeId) -> bool {
        let n = self.label.len();
        let old = self.label[u];
        self.unlink(u);
        if self.members[old] == NONE {
            self.label[u] = n;
            for level in old + 1..=self.high {
                let mut v = std::mem::replace(&mut self.members[level], NONE);
                while v != NONE {
                    self.label[v] = n;
                    v = self.next[v];
                }
            }
            self.high = old - 1;
            return false;
        }
        let (mut lowest, mut arc) = (n, 0);
        for (i, &e) in g.edges_of(u).iter().enumerate() {
            if g.residual(e) > 0 && self.label[g.head(e)] < lowest {
                (lowest, arc) = (self.label[g.head(e)], i);
            }
        }
        if lowest + 1 >= n {
            self.label[u] = n;
            return false;
        }
        self.label[u] = lowest + 1;
        self.cursor[u] = arc;
        self.link(u);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::INFINITE;

    #[test]
    fn single_edge() {
        let mut g = FlowNetwork::new(2);
        g.add_edge(0, 1, 7);
        assert_eq!(max_flow(&mut g, 0, 1), 7);
    }

    #[test]
    fn series_takes_bottleneck() {
        let mut g = FlowNetwork::new(3);
        g.add_edge(0, 1, 10);
        g.add_edge(1, 2, 3);
        assert_eq!(max_flow(&mut g, 0, 2), 3);
    }

    #[test]
    fn parallel_paths_sum() {
        let mut g = FlowNetwork::new(4);
        g.add_edge(0, 1, 4);
        g.add_edge(1, 3, 4);
        g.add_edge(0, 2, 6);
        g.add_edge(2, 3, 6);
        assert_eq!(max_flow(&mut g, 0, 3), 10);
    }

    #[test]
    fn clrs_figure_26_1() {
        // The classic CLRS example network; max flow is 23.
        let (s, v1, v2, v3, v4, t) = (0, 1, 2, 3, 4, 5);
        let mut g = FlowNetwork::new(6);
        g.add_edge(s, v1, 16);
        g.add_edge(s, v2, 13);
        g.add_edge(v1, v2, 10);
        g.add_edge(v2, v1, 4);
        g.add_edge(v1, v3, 12);
        g.add_edge(v3, v2, 9);
        g.add_edge(v2, v4, 14);
        g.add_edge(v4, v3, 7);
        g.add_edge(v3, t, 20);
        g.add_edge(v4, t, 4);
        assert_eq!(max_flow(&mut g, s, t), 23);
    }

    #[test]
    fn undirected_edges_carry_flow_either_way() {
        let mut g = FlowNetwork::new(3);
        g.add_undirected(0, 1, 5);
        g.add_undirected(1, 2, 5);
        assert_eq!(max_flow(&mut g, 0, 2), 5);
        g.reset();
        assert_eq!(max_flow(&mut g, 2, 0), 5);
    }

    #[test]
    fn disconnected_sink_has_zero_flow() {
        let mut g = FlowNetwork::new(4);
        g.add_edge(0, 1, 10);
        g.add_edge(2, 3, 10);
        assert_eq!(max_flow(&mut g, 0, 3), 0);
    }

    #[test]
    fn infinite_edges_do_not_overflow() {
        let mut g = FlowNetwork::new(4);
        g.add_edge(0, 1, INFINITE);
        g.add_edge(0, 2, INFINITE);
        g.add_edge(1, 3, INFINITE);
        g.add_edge(2, 3, 5);
        assert_eq!(max_flow(&mut g, 0, 3), INFINITE + 5);
    }

    #[test]
    fn cut_side_after_flow_is_minimal() {
        // Source component {0,1} separated from {2,3} by a 3-capacity edge.
        let mut g = FlowNetwork::new(4);
        g.add_undirected(0, 1, 100);
        g.add_undirected(1, 2, 3);
        g.add_undirected(2, 3, 100);
        let flow = max_flow(&mut g, 0, 3);
        assert_eq!(flow, 3);
        let side = g.residual_reachable(0);
        assert_eq!(side, vec![true, true, false, false]);
    }

    #[test]
    #[should_panic(expected = "source and sink must differ")]
    fn same_source_and_sink_panics() {
        let mut g = FlowNetwork::new(2);
        max_flow(&mut g, 1, 1);
    }

    /// The chain network at a given capacity scale (same topology each time).
    fn chain_scaled(mul: u64) -> FlowNetwork {
        let mut g = FlowNetwork::new(4);
        g.add_undirected(0, 1, 100 * mul);
        g.add_undirected(1, 2, 3 * mul);
        g.add_undirected(2, 3, 100 * mul);
        g
    }

    #[test]
    fn warm_start_matches_cold_solve_after_capacity_growth() {
        let mut g = chain_scaled(1);
        assert_eq!(max_flow(&mut g, 0, 3), 3);
        let flows = g.snapshot_flows();

        let mut warm = chain_scaled(5);
        assert_eq!(max_flow_warm(&mut warm, 0, 3, &flows), 15);
        assert_eq!(warm.residual_reachable(0), vec![true, true, false, false]);

        let mut cold = chain_scaled(5);
        assert_eq!(max_flow(&mut cold, 0, 3), 15);
    }

    #[test]
    fn warm_start_with_identical_capacities_is_a_no_op_resolve() {
        let mut g = chain_scaled(2);
        let value = max_flow(&mut g, 0, 3);
        let flows = g.snapshot_flows();
        let mut again = chain_scaled(2);
        assert_eq!(max_flow_warm(&mut again, 0, 3, &flows), value);
    }

    #[test]
    #[should_panic(expected = "warm start infeasible")]
    fn warm_start_rejects_shrunken_capacities() {
        let mut g = chain_scaled(4);
        max_flow(&mut g, 0, 3);
        let flows = g.snapshot_flows();
        let mut smaller = chain_scaled(1);
        max_flow_warm(&mut smaller, 0, 3, &flows);
    }

    #[test]
    #[should_panic(expected = "snapshot does not match")]
    fn warm_start_rejects_mismatched_topology() {
        let mut g = chain_scaled(1);
        max_flow(&mut g, 0, 3);
        let flows = g.snapshot_flows();
        let mut other = FlowNetwork::new(4);
        other.add_undirected(0, 3, 1);
        max_flow_warm(&mut other, 0, 3, &flows);
    }
}
