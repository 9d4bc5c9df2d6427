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
//! A solve has two phases over the same discharge loop (`Levels::drain`):
//!
//! 1. **Maximum preflow.** The overflowing vertex with the highest label
//!    below `|V|` is discharged next. Vertices sit in per-label buckets, so
//!    *gap relabeling* — when a label empties, no residual path to the sink
//!    can cross it, and every vertex above it is lifted to `|V|` — touches
//!    only the vertices it lifts. *Global relabeling* resets every label to
//!    its exact residual BFS distance to the sink at start-up and again
//!    after each `2·(6n + m)` units of relabel work (`n` vertices, `m`
//!    residual arcs), HIPR's default interval. A vertex at `|V|` cannot reach the sink; whatever excess it
//!    holds is stranded.
//! 2. **Excess return.** Every overflowing vertex of a preflow has a
//!    residual path back to the source. The same loop, aimed at the source
//!    with labels starting at the exact residual distances to it, pushes
//!    the stranded excess home.
//!
//! The result is a real maximum flow, so
//! `FlowNetwork::residual_reachable` yields the unique minimal source side
//! of the minimum cut — the same side every exact solver yields.
//!
//! Both phases flood from one terminal, and which one matters: a solve
//! from the terminal with less capacity floods less excess that the other
//! cannot take, and so has less to push back.
//! When every edge has the same capacity both ways and the sink's original
//! capacity is below the source's (`from_sink`), the solve runs from `t`
//! to `s`. A `t`–`s` flow on such a network read backwards is an `s`–`t`
//! flow of the same value, so giving every arc its pair's residual, one
//! pass over the arcs, leaves the network holding an `s`–`t` maximum flow
//! and the minimal source side is unchanged. Directed networks are always
//! solved from `s`.

use crate::graph::{Arcs, FlowNetwork, NodeId, ResidualArc};
use crate::mincut::SolveWork;

/// Relabel work charged per relabel on top of the arcs it scans (HIPR's β).
const RELABEL_WORK: usize = 12;

/// Relabel work per vertex in the global-relabel yardstick `α·n + m`
/// (HIPR's α), where `m` counts residual arcs: both directions of every
/// edge.
const ALPHA: usize = 6;

/// Yardsticks of relabel work between global relabels. HIPR relabels
/// globally once the work since the last one exceeds the yardstick
/// divided by its `globUpdtFreq`, whose default is 0.5.
const GLOBAL_RELABEL_YARDSTICKS: usize = 2;

/// Computes a maximum `s`–`t` flow.
///
/// The network retains the residual state on return, so
/// [`FlowNetwork::residual_reachable`] immediately yields the minimum cut.
/// On a network that [`from_sink`] picks, the solve runs from `t` to `s`
/// and each arc then takes its pair's residual (see the module doc). The
/// value returned is the flow the solve added, also on a network that
/// already held one.
///
/// # Panics
///
/// Panics if `s == t`.
pub(crate) fn max_flow(g: &mut FlowNetwork, s: NodeId, t: NodeId) -> (u64, SolveWork) {
    assert_ne!(s, t, "source and sink must differ");
    if !from_sink(g, s, t) {
        return flow_from(g, s, t);
    }
    let before = net_inflow(g.arcs(), t);
    let (_, work) = flow_from(g, t, s);
    let arcs = g.arcs_mut();
    for a in 0..arcs.arc.len() {
        let b = arcs.arc[a].rev as usize;
        if a < b {
            let residual = arcs.arc[a].residual;
            arcs.arc[a].residual = arcs.arc[b].residual;
            arcs.arc[b].residual = residual;
        }
    }
    let value = net_inflow(arcs, t) - before;
    debug_assert!(g.conservation_violations(s, t).is_empty());
    (u64::try_from(value).expect("flow exceeds u64"), work)
}

/// Whether [`max_flow`] solves from the sink: the network is symmetric and
/// its sink has less original capacity than its source. A tie keeps `s`.
pub(crate) fn from_sink(g: &FlowNetwork, s: NodeId, t: NodeId) -> bool {
    g.is_symmetric() && g.capacity_out(t) < g.capacity_out(s)
}

/// Net flow into `v` on a symmetric network: an arc and its pair always
/// sum to twice their capacity, so the flow along an arc is half its
/// pair's residual less its own.
fn net_inflow(arcs: &Arcs, v: NodeId) -> i128 {
    let twice: i128 = arcs.arc[arcs.of(v)]
        .iter()
        .map(|arc| i128::from(arc.residual) - i128::from(arcs.arc[arc.rev as usize].residual))
        .sum();
    twice / 2
}

/// Push-relabel from `s` to `t`: saturates every residual arc out of `s`,
/// finds a maximum preflow, then returns its stranded excess to `s`. The
/// flow arriving at `t` is the answer.
fn flow_from(g: &mut FlowNetwork, s: NodeId, t: NodeId) -> (u64, SolveWork) {
    let n = g.node_count();
    let mut excess = vec![0u128; n];
    let arcs = g.arcs_mut();
    for a in arcs.of(s) {
        let ResidualArc { head, residual, .. } = arcs.arc[a];
        if residual > 0 {
            arcs.push(a, residual);
            excess[head as usize] += u128::from(residual);
        }
    }
    let mut levels = Levels::new(n);
    let interval = GLOBAL_RELABEL_YARDSTICKS * (ALPHA * n + arcs.arc.len());
    levels.drain(arcs, interval, t, s, &mut excess);
    levels.drain(arcs, interval, s, t, &mut excess);
    debug_assert!(g.conservation_violations(s, t).is_empty());
    let value = u64::try_from(excess[t]).expect("flow exceeds u64");
    (value, levels.work)
}

/// End of a bucket list.
const NONE: usize = usize::MAX;

/// Labels and per-label buckets, kept as intrusive lists over per-vertex
/// arrays so that a solve allocates them once.
struct Levels {
    /// Label per vertex; `n` once it cannot reach the target.
    label: Vec<usize>,
    /// Current arc per vertex: no arc of the vertex before it is
    /// admissible.
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
    /// Operations performed so far.
    work: SolveWork,
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
            work: SolveWork::default(),
        }
    }

    /// Discharges, highest label first, every overflowing vertex that can
    /// still reach `target`, never entering `avoid` (the other terminal).
    /// Labels are residual distances to `target` — exact after each global
    /// relabel, valid lower bounds in between; `avoid` and every vertex
    /// that cannot reach `target` sit at `n` and are left alone. A global
    /// relabel runs first and again whenever more than `interval` units of
    /// relabel work have passed since the last.
    fn drain(
        &mut self,
        arcs: &mut Arcs,
        interval: usize,
        target: NodeId,
        avoid: NodeId,
        excess: &mut [u128],
    ) {
        let n = self.label.len();
        if !(0..n).any(|v| v != target && v != avoid && excess[v] > 0) {
            return;
        }
        self.global_relabel(arcs, target, avoid, excess);
        let mut work = 0;
        while let Some(u) = self.pop_highest() {
            if work > interval {
                // `u` is still overflowing, so the relabel re-stacks it.
                work = 0;
                self.global_relabel(arcs, target, avoid, excess);
            } else {
                work += self.discharge(arcs, u, target, excess);
            }
        }
    }

    /// Global relabeling: exact residual BFS distances to `target`, not
    /// passing through `avoid`; every vertex that cannot reach `target`
    /// goes to `n`. Rebuilds the buckets and rewinds every current arc.
    fn global_relabel(&mut self, arcs: &Arcs, target: NodeId, avoid: NodeId, excess: &[u128]) {
        self.work.global_relabels += 1;
        let n = self.label.len();
        self.label.fill(n);
        self.cursor.copy_from_slice(&arcs.first[..n]);
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
                for arc in &arcs.arc[arcs.of(v)] {
                    let u = arc.head as usize;
                    // The residual arc u → v is this arc's pair.
                    if self.label[u] == n && u != avoid && arcs.arc[arc.rev as usize].residual > 0 {
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
        arcs: &mut Arcs,
        u: NodeId,
        target: NodeId,
        excess: &mut [u128],
    ) -> usize {
        let mut work = 0;
        let own = arcs.of(u);
        loop {
            while self.cursor[u] < own.end {
                let a = self.cursor[u];
                let ResidualArc { head, residual, .. } = arcs.arc[a];
                let v = head as usize;
                if residual > 0 && self.label[v] + 1 == self.label[u] {
                    let amount = residual.min(u64::try_from(excess[u]).unwrap_or(u64::MAX));
                    arcs.push(a, amount);
                    self.work.pushes += 1;
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
            work += RELABEL_WORK + own.len();
            if !self.relabel(arcs, u) {
                return work;
            }
        }
    }

    /// Lifts `u` to one more than its lowest residual neighbour and points
    /// its current arc there — unless `u` was the last vertex at its label:
    /// then no residual path to the target crosses that label, and the gap
    /// heuristic lifts `u` and every vertex above it to `n`. Returns whether
    /// `u` can still reach the target.
    fn relabel(&mut self, arcs: &Arcs, u: NodeId) -> bool {
        self.work.relabels += 1;
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
        let (mut lowest, mut current) = (n, 0);
        for a in arcs.of(u) {
            let arc = arcs.arc[a];
            if arc.residual > 0 && self.label[arc.head as usize] < lowest {
                (lowest, current) = (self.label[arc.head as usize], a);
            }
        }
        if lowest + 1 >= n {
            self.label[u] = n;
            return false;
        }
        self.label[u] = lowest + 1;
        self.cursor[u] = current;
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
        assert_eq!(max_flow(&mut g, 0, 1).0, 7);
    }

    #[test]
    fn series_takes_bottleneck() {
        let mut g = FlowNetwork::new(3);
        g.add_edge(0, 1, 10);
        g.add_edge(1, 2, 3);
        assert_eq!(max_flow(&mut g, 0, 2).0, 3);
    }

    #[test]
    fn parallel_paths_sum() {
        let mut g = FlowNetwork::new(4);
        g.add_edge(0, 1, 4);
        g.add_edge(1, 3, 4);
        g.add_edge(0, 2, 6);
        g.add_edge(2, 3, 6);
        assert_eq!(max_flow(&mut g, 0, 3).0, 10);
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
        assert_eq!(max_flow(&mut g, s, t).0, 23);
    }

    #[test]
    fn undirected_edges_carry_flow_either_way() {
        let mut g = FlowNetwork::new(3);
        g.add_undirected(0, 1, 5);
        g.add_undirected(1, 2, 5);
        assert_eq!(max_flow(&mut g, 0, 2).0, 5);
        g.reset();
        assert_eq!(max_flow(&mut g, 2, 0).0, 5);
    }

    #[test]
    fn disconnected_sink_has_zero_flow() {
        let mut g = FlowNetwork::new(4);
        g.add_edge(0, 1, 10);
        g.add_edge(2, 3, 10);
        assert_eq!(max_flow(&mut g, 0, 3).0, 0);
    }

    #[test]
    fn infinite_edges_do_not_overflow() {
        let mut g = FlowNetwork::new(4);
        g.add_edge(0, 1, INFINITE);
        g.add_edge(0, 2, INFINITE);
        g.add_edge(1, 3, INFINITE);
        g.add_edge(2, 3, 5);
        assert_eq!(max_flow(&mut g, 0, 3).0, INFINITE + 5);
    }

    #[test]
    fn cut_side_after_flow_is_minimal() {
        // Source component {0,1} separated from {2,3} by a 3-capacity edge.
        let mut g = FlowNetwork::new(4);
        g.add_undirected(0, 1, 100);
        g.add_undirected(1, 2, 3);
        g.add_undirected(2, 3, 100);
        let flow = max_flow(&mut g, 0, 3).0;
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
}

#[cfg(test)]
mod properties {
    use super::*;
    use crate::graph::INFINITE;
    use crate::mincut::{min_cut, MaxFlowAlgorithm};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Net flow into `v`: an edge slot's flow is its capacity less its
    /// residual.
    fn inflow(g: &FlowNetwork, v: NodeId) -> i128 {
        g.edges_of(v)
            .map(|e| i128::from(g.residual(e)) - i128::from(g.original(e)))
            .sum()
    }

    /// A random capacity, zero one time in eight.
    fn capacity(rng: &mut StdRng) -> u64 {
        if rng.gen_bool(0.125) {
            0
        } else {
            rng.gen_range(1..100)
        }
    }

    /// Case `case`'s network and terminals. Kinds by `case % 5`:
    /// undirected random capacities; the same with parallel edges;
    /// [`INFINITE`] pins on both terminals; terminals with equal capacity
    /// (by the same capacities to random nodes); directed edges only.
    fn network(case: u64) -> (FlowNetwork, NodeId, NodeId) {
        let mut rng = StdRng::seed_from_u64(case);
        let n = rng.gen_range(2..=24);
        let s = rng.gen_range(0..n);
        let t = (s + rng.gen_range(1..n)) % n;
        let mut g = FlowNetwork::new(n);
        let kind = case % 5;
        let inner: Vec<NodeId> = (0..n).filter(|&v| v != s && v != t).collect();
        if kind == 3 {
            for _ in 0..rng.gen_range(1..4) {
                let cap = capacity(&mut rng);
                for terminal in [s, t] {
                    let other = match inner.len() {
                        0 => s + t - terminal,
                        k => inner[rng.gen_range(0..k)],
                    };
                    g.add_undirected(terminal, other, cap);
                }
            }
        }
        for _ in 0..rng.gen_range(0..3 * n) {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if kind == 3 && (u == s || u == t || v == s || v == t) {
                continue; // keep the terminals' capacities equal
            }
            let cap = capacity(&mut rng);
            match kind {
                1 => {
                    for _ in 0..rng.gen_range(1..4) {
                        g.add_undirected(u, v, cap);
                    }
                }
                4 => g.add_edge(u, v, cap),
                _ => g.add_undirected(u, v, cap),
            }
        }
        if kind == 2 {
            for &v in &inner {
                match rng.gen_range(0..4) {
                    0 => g.add_undirected(s, v, INFINITE),
                    1 => g.add_undirected(v, t, INFINITE),
                    _ => {}
                }
            }
        }
        (g, s, t)
    }

    /// Over 1 000 networks of every kind: the direction rule picks the
    /// terminal with less capacity on symmetric networks only, keeps the
    /// source on a tie, and lift-to-front's cut equals Dinic's. The network
    /// is then left holding an `s`–`t` maximum flow, as `min_cut`
    /// documents: conserved at every inner node, the cut value arriving at
    /// `t`, every arc from the source side to the sink side saturated. A
    /// second solve on that flow finds no more and the same cut.
    #[test]
    fn solving_from_the_sink_finds_the_same_cut() {
        let mut reversed = [0; 5];
        for case in 0..1_000 {
            let (mut g, s, t) = network(case);
            let kind = case % 5;
            let (cap_s, cap_t) = (g.capacity_out(s), g.capacity_out(t));
            let expected = kind != 4 && cap_t < cap_s;
            assert_eq!(from_sink(&g, s, t), expected, "case {case}");
            if kind == 3 {
                assert_eq!(cap_s, cap_t, "case {case}");
            }
            reversed[kind as usize] += usize::from(expected);

            let cut = min_cut(&mut g, s, t, MaxFlowAlgorithm::LiftToFront);
            let dinic = min_cut(&mut network(case).0, s, t, MaxFlowAlgorithm::Dinic);
            assert_eq!(cut.cut_value, dinic.cut_value, "case {case}");
            assert_eq!(cut.source_side, dinic.source_side, "case {case}");
            assert_eq!(g.conservation_violations(s, t), [], "case {case}");
            assert_eq!(inflow(&g, t), i128::from(cut.cut_value), "case {case}");
            let side = &cut.source_side;
            for u in (0..g.node_count()).filter(|&u| side[u]) {
                for e in g.edges_of(u).filter(|&e| !side[g.head(e)]) {
                    assert_eq!(g.residual(e), 0, "case {case}: slot {e} unsaturated");
                }
            }
            if case % 10 == 0 {
                let again = min_cut(&mut g, s, t, MaxFlowAlgorithm::LiftToFront);
                assert_eq!(again.cut_value, 0, "case {case}");
                assert_eq!(again.source_side, cut.source_side, "case {case}");
            }
        }
        // Every symmetric kind reverses somewhere; directed and tied
        // networks never do.
        assert!(reversed[0] > 0 && reversed[1] > 0 && reversed[2] > 0);
        assert_eq!((reversed[3], reversed[4]), (0, 0));
    }

    /// A network shaped like the contracted ones `partition_scale` cuts: a
    /// chain over `n` classifications plus `3n` random edges, with
    /// `client_permille` of the classifications merged into the source and
    /// `server_permille` into the sink. Returns the network and terminals.
    fn contracted_graph(
        seed: u64,
        n: usize,
        client_permille: usize,
        server_permille: usize,
    ) -> (FlowNetwork, NodeId, NodeId) {
        let mut rng = StdRng::seed_from_u64(seed);
        let clients = n * client_permille / 1000;
        let servers = n * server_permille / 1000;
        let mut ids: Vec<usize> = (0..n).collect();
        for i in 0..clients + servers {
            ids.swap(i, rng.gen_range(i..n));
        }
        let inner = n - clients - servers;
        let (s, t) = (inner, inner + 1);
        let mut vertex = vec![0; n];
        for (k, &id) in ids.iter().enumerate() {
            vertex[id] = match k {
                k if k < clients => s,
                k if k < clients + servers => t,
                k => k - clients - servers,
            };
        }
        let mut g = FlowNetwork::new(inner + 2);
        let pairs: Vec<(usize, usize)> = (1..n)
            .map(|i| (i - 1, i))
            .chain((0..3 * n).map(|_| (rng.gen_range(0..n), rng.gen_range(0..n))))
            .collect();
        for (a, b) in pairs {
            if vertex[a] != vertex[b] {
                g.add_undirected(vertex[a], vertex[b], rng.gen_range(64..14_000));
            }
        }
        (g, s, t)
    }

    /// Pushes of the chosen direction and of a forward-only solve, summed
    /// per pin regime (client-heavy, then server-heavy) over `graphs`
    /// graphs of `n` classifications each. With `oracle`, every chosen cut
    /// is also checked against Dinic's.
    fn pushes_per_regime(graphs: u64, n: usize, oracle: bool) -> [(u64, u64); 2] {
        let mut sums = [(0, 0); 2];
        for (regime, (client, server)) in [(110, 90), (90, 110)].into_iter().enumerate() {
            for seed in 0..graphs {
                let (mut g, s, t) = contracted_graph(seed, n, client, server);
                let mut forward = g.clone();
                let cut = min_cut(&mut g, s, t, MaxFlowAlgorithm::LiftToFront);
                if oracle {
                    let dinic = min_cut(&mut forward.clone(), s, t, MaxFlowAlgorithm::Dinic);
                    assert_eq!(
                        cut.cut_value, dinic.cut_value,
                        "seed {seed} regime {regime}"
                    );
                    assert_eq!(
                        cut.source_side, dinic.source_side,
                        "seed {seed} regime {regime}"
                    );
                }
                let (value, work) = flow_from(&mut forward, s, t);
                assert_eq!(value, cut.cut_value, "seed {seed} regime {regime}");
                sums[regime].0 += cut.pushes;
                sums[regime].1 += work.pushes;
            }
        }
        sums
    }

    /// The gain as exact counts: on `partition_scale`-shaped networks in
    /// both pin regimes, the direction the rule picks pushes no more than
    /// a forward-only solve, summed per regime.
    #[test]
    fn chosen_direction_pushes_no_more_at_partition_scale() {
        for (regime, (chosen, forward)) in
            pushes_per_regime(24, 2_000, false).into_iter().enumerate()
        {
            assert!(
                chosen <= forward,
                "regime {regime}: {chosen} pushes > {forward} forward"
            );
        }
    }

    /// The same at the 20 000-classification shape of the benchmark's
    /// `analysis.analyze_100x_us` solve, with every cut checked against
    /// Dinic's. Release only: `cargo test --release -p coign-flow --
    /// --ignored`.
    #[test]
    #[ignore = "release-only: 20 000-classification solves"]
    fn chosen_direction_pushes_no_more_at_100x() {
        for (regime, (chosen, forward)) in
            pushes_per_regime(4, 20_000, true).into_iter().enumerate()
        {
            assert!(
                chosen <= forward,
                "regime {regime}: {chosen} pushes > {forward} forward"
            );
        }
    }
}
