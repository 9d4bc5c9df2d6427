//! Minimum `s`–`t` cut extraction.
//!
//! By max-flow/min-cut duality, once a maximum flow is established the nodes
//! reachable from the source in the residual graph form the source side of a
//! minimum cut. For Coign, `s` is the client, `t` is the server, and the cut
//! assigns every component classification to one machine while minimizing
//! the total communication time crossing the network.

use crate::graph::{FlowNetwork, NodeId};
use crate::{dinic, push_relabel};
use std::cell::Cell;

thread_local! {
    /// Count of [`min_cut`] calls on this thread; see [`min_cut_invocations`].
    static MIN_CUT_INVOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Number of times [`min_cut`] has run on the current thread.
///
/// Callers that reject infeasible inputs *before* cutting (Coign's
/// constraint-satisfiability pre-check) use this counter in tests to prove
/// the solver was never reached. Thread-local so concurrently running tests
/// cannot disturb each other's counts. Solves inside a one-worker
/// `coign::jobs::run_indexed` pool run inline and so count on the calling
/// thread; with more workers they count on the pool's threads.
pub fn min_cut_invocations() -> u64 {
    MIN_CUT_INVOCATIONS.with(Cell::get)
}

/// Selects which maximum-flow algorithm drives the cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MaxFlowAlgorithm {
    /// Lift-to-front — the algorithm the paper names, run as
    /// highest-label push-relabel ([`push_relabel`]).
    LiftToFront,
    /// Dinic's algorithm — the independent cross-check ([`dinic`]).
    Dinic,
}

impl MaxFlowAlgorithm {
    /// All implemented algorithms (for cross-validation loops).
    pub const ALL: [MaxFlowAlgorithm; 2] = [MaxFlowAlgorithm::LiftToFront, MaxFlowAlgorithm::Dinic];

    /// Runs the selected algorithm.
    fn run(self, g: &mut FlowNetwork, s: NodeId, t: NodeId) -> (u64, SolveWork) {
        match self {
            MaxFlowAlgorithm::LiftToFront => push_relabel::max_flow(g, s, t),
            MaxFlowAlgorithm::Dinic => dinic::max_flow(g, s, t),
        }
    }
}

/// Result of a two-way minimum cut.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CutResult {
    /// Total capacity crossing the cut (equals the max-flow value).
    pub cut_value: u64,
    /// `true` for nodes on the source (client) side.
    pub source_side: Vec<bool>,
    /// Push operations the solve performed (Dinic: one per arc of each
    /// augmenting path).
    pub pushes: u64,
    /// Relabel operations, gap relabels included (Dinic: none).
    pub relabels: u64,
    /// Global relabels, the one that starts each phase included (Dinic:
    /// none).
    pub global_relabels: u64,
}

/// The operations one max-flow solve performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SolveWork {
    pub(crate) pushes: u64,
    pub(crate) relabels: u64,
    pub(crate) global_relabels: u64,
}

impl CutResult {
    /// Reads the cut off a network holding a maximum `s`–`t` flow.
    fn extract(g: &FlowNetwork, s: NodeId, t: NodeId, (cut_value, work): (u64, SolveWork)) -> Self {
        let source_side = g.residual_reachable(s);
        debug_assert!(source_side[s]);
        debug_assert!(!source_side[t]);
        CutResult {
            cut_value,
            source_side,
            pushes: work.pushes,
            relabels: work.relabels,
            global_relabels: work.global_relabels,
        }
    }
}

/// Computes a minimum `s`–`t` cut of the network.
///
/// The network is left in its post-flow residual state; call
/// [`FlowNetwork::reset`] to reuse it.
pub fn min_cut(
    g: &mut FlowNetwork,
    s: NodeId,
    t: NodeId,
    algorithm: MaxFlowAlgorithm,
) -> CutResult {
    MIN_CUT_INVOCATIONS.with(|n| n.set(n.get() + 1));
    let flow = algorithm.run(g, s, t);
    CutResult::extract(g, s, t, flow)
}

/// Sums the original capacities of forward edges crossing from the source
/// side to the sink side — used by tests to confirm duality.
#[cfg(test)]
fn crossing_capacity(g: &FlowNetwork, side: &[bool]) -> u64 {
    let mut total = 0u64;
    for u in 0..g.node_count() {
        if !side[u] {
            continue;
        }
        for e in g.edges_of(u) {
            let v = g.head(e);
            if !side[v] {
                total += g.original(e);
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::INFINITE;

    fn chain() -> FlowNetwork {
        let mut g = FlowNetwork::new(5);
        g.add_undirected(0, 1, 10);
        g.add_undirected(1, 2, 2); // the cheap edge to cut
        g.add_undirected(2, 3, 8);
        g.add_undirected(3, 4, 9);
        g
    }

    #[test]
    fn all_algorithms_agree_on_cut_value() {
        let mut values = Vec::new();
        for alg in MaxFlowAlgorithm::ALL {
            let mut g = chain();
            values.push(min_cut(&mut g, 0, 4, alg).cut_value);
        }
        assert!(values.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(values[0], 2);
    }

    #[test]
    fn cut_separates_at_cheapest_edge() {
        let mut g = chain();
        let cut = min_cut(&mut g, 0, 4, MaxFlowAlgorithm::LiftToFront);
        assert_eq!(cut.source_side, vec![true, true, false, false, false]);
    }

    #[test]
    fn duality_cut_equals_crossing_capacity() {
        let mut g = chain();
        let cut = min_cut(&mut g, 0, 4, MaxFlowAlgorithm::Dinic);
        assert_eq!(crossing_capacity(&g, &cut.source_side), cut.cut_value);
    }

    #[test]
    fn infinite_edge_is_never_cut() {
        // 0 —INF— 1 —5— 2: the only finite cut is the 5 edge.
        let mut g = FlowNetwork::new(3);
        g.add_undirected(0, 1, INFINITE);
        g.add_undirected(1, 2, 5);
        let cut = min_cut(&mut g, 0, 2, MaxFlowAlgorithm::LiftToFront);
        assert_eq!(cut.cut_value, 5);
        assert!(cut.source_side[1], "node 1 must stay with the source");
    }

    /// The CLRS figure 26.1 network, made undirected.
    fn clrs() -> FlowNetwork {
        let mut g = FlowNetwork::new(6);
        for (u, v, cap) in [
            (0, 1, 16),
            (0, 2, 13),
            (1, 2, 10),
            (2, 1, 4),
            (1, 3, 12),
            (3, 2, 9),
            (2, 4, 14),
            (4, 3, 7),
            (3, 5, 20),
            (4, 5, 4),
        ] {
            g.add_undirected(u, v, cap);
        }
        g
    }

    #[test]
    fn solver_work_is_counted_exactly() {
        // The sink's 24 units of capacity are below the source's 29, so
        // lift-to-front solves this symmetric network from the sink.
        let cut = min_cut(&mut clrs(), 0, 5, MaxFlowAlgorithm::LiftToFront);
        let work = (cut.pushes, cut.relabels, cut.global_relabels);
        assert_eq!(work, (5, 0, 1), "lift-to-front from the sink");
        // An arc from the sink back to the source carries no flow toward
        // the sink, but it leaves the network directed: solved forward.
        let mut directed = clrs();
        directed.add_edge(5, 0, 1);
        let forward = min_cut(&mut directed, 0, 5, MaxFlowAlgorithm::LiftToFront);
        assert_eq!(forward.cut_value, cut.cut_value);
        let work = (forward.pushes, forward.relabels, forward.global_relabels);
        assert_eq!(work, (9, 3, 2), "lift-to-front from the source");
        let cut = min_cut(&mut clrs(), 0, 5, MaxFlowAlgorithm::Dinic);
        let work = (cut.pushes, cut.relabels, cut.global_relabels);
        assert_eq!(work, (9, 0, 0), "Dinic");
    }

    #[test]
    fn growing_a_solved_network_rebuilds_its_arc_layout() {
        // Solve, then add a node and edges to the solved network, as
        // `multiway_cut` does with its super-sink: the next solve must see
        // the new arcs and start from the old residuals.
        let mut g = chain();
        let first = min_cut(&mut g, 0, 4, MaxFlowAlgorithm::LiftToFront);
        assert_eq!(first.cut_value, 2);
        let extra = g.add_node();
        g.add_undirected(1, extra, 50);
        g.add_undirected(extra, 4, 50);
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edges_of(extra).collect::<Vec<_>>(), [9, 10]);
        assert_eq!(g.edges_of(1).collect::<Vec<_>>(), [1, 2, 8]);
        // The old 2 units stay on the network, so the solve finds only the
        // 8 more the new path admits past the first edge's 10.
        let grown = min_cut(&mut g, 0, 4, MaxFlowAlgorithm::LiftToFront);
        assert_eq!(grown.cut_value, 10 - 2);
        g.reset();
        let fresh = min_cut(&mut g, 0, 4, MaxFlowAlgorithm::Dinic);
        assert_eq!(fresh.cut_value, 10);
        assert_eq!(fresh.source_side, [true, false, false, false, false, false]);
        assert_eq!(g.conservation_violations(0, 4), []);
    }

    #[test]
    fn isolated_nodes_fall_on_source_side_or_sink_side_consistently() {
        let mut g = FlowNetwork::new(4);
        g.add_undirected(0, 1, 3);
        // Nodes 2 is isolated; node 3 is the sink.
        let cut = min_cut(&mut g, 0, 3, MaxFlowAlgorithm::LiftToFront);
        assert_eq!(cut.cut_value, 0);
        // Isolated node is unreachable from s, so it lands on the sink side.
        assert!(!cut.source_side[2]);
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use crate::graph::INFINITE;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};
    use std::ops::Range;

    const CASES: u64 = 64;

    /// Builds a random connected undirected graph from a seed.
    fn random_graph(seed: u64, n: usize, extra_edges: usize) -> FlowNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = FlowNetwork::new(n);
        // Spanning chain keeps it connected.
        for i in 1..n {
            g.add_undirected(i - 1, i, rng.gen_range(1u64..100));
        }
        for _ in 0..extra_edges {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v {
                g.add_undirected(u, v, rng.gen_range(1u64..100));
            }
        }
        g
    }

    /// Case `case`'s graph: a seed, a node count from `n` and an extra-edge
    /// count from `extra`.
    fn graph_case(case: u64, n: Range<usize>, extra: Range<usize>) -> (u64, usize, usize) {
        let mut rng = StdRng::seed_from_u64(case);
        (rng.next_u64(), rng.gen_range(n), rng.gen_range(extra))
    }

    #[test]
    fn algorithms_agree_on_random_graphs() {
        for case in 0..CASES {
            let (seed, n, extra) = graph_case(case, 3..24, 0..30);
            let mut expected = None;
            for alg in MaxFlowAlgorithm::ALL {
                let mut g = random_graph(seed, n, extra);
                let cut = min_cut(&mut g, 0, n - 1, alg);
                // Duality holds for every algorithm.
                assert_eq!(
                    crossing_capacity(&g, &cut.source_side),
                    cut.cut_value,
                    "case {case}"
                );
                match expected {
                    None => expected = Some(cut.cut_value),
                    Some(v) => assert_eq!(v, cut.cut_value, "case {case}: {alg:?}"),
                }
            }
        }
    }

    #[test]
    fn flow_conserves_on_random_graphs() {
        for case in 0..CASES {
            let (seed, n, _) = graph_case(case, 3..16, 0..1);
            let mut g = random_graph(seed, n, 10);
            crate::push_relabel::max_flow(&mut g, 0, n - 1);
            assert_eq!(g.conservation_violations(0, n - 1), [], "case {case}");
        }
    }

    /// A graph shaped like the benchmark's `partition_scale` ones, at
    /// capacity scale `mul`: a chain over 200–2 000 nodes plus three random
    /// edges per node, with 5–15 % of the nodes pinned to each terminal by
    /// [`INFINITE`] arcs. Returns the network, its source and its sink.
    fn pinned_graph(seed: u64, mul: u64) -> (FlowNetwork, NodeId, NodeId) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(200..=2_000);
        let (s, t) = (n, n + 1);
        let mut g = FlowNetwork::new(n + 2);
        for i in 1..n {
            g.add_undirected(i - 1, i, rng.gen_range(64u64..14_000) * mul);
        }
        for _ in 0..3 * n {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if u != v {
                g.add_undirected(u, v, rng.gen_range(64u64..14_000) * mul);
            }
        }
        // Distinct pinned nodes, by a partial shuffle.
        let clients = rng.gen_range(n / 20..=n * 3 / 20);
        let servers = rng.gen_range(n / 20..=n * 3 / 20);
        let mut ids: Vec<NodeId> = (0..n).collect();
        for i in 0..clients + servers {
            ids.swap(i, rng.gen_range(i..n));
        }
        for &v in &ids[..clients] {
            g.add_undirected(s, v, INFINITE);
        }
        for &v in &ids[clients..clients + servers] {
            g.add_undirected(v, t, INFINITE);
        }
        (g, s, t)
    }

    /// The cut a solve found, without the work it took.
    fn cut_of(cut: &CutResult) -> (u64, &[bool]) {
        (cut.cut_value, &cut.source_side)
    }

    #[test]
    fn lift_to_front_matches_dinic_at_partition_scale() {
        // Graphs large enough for lift-to-front's periodic global relabel
        // to fire, at three capacity scales.
        for case in 0..16 {
            for mul in [1, 3, 8] {
                let (mut g, s, t) = pinned_graph(case, mul);
                let cold = min_cut(&mut g, s, t, MaxFlowAlgorithm::LiftToFront);
                let mut reference = pinned_graph(case, mul).0;
                let dinic = min_cut(&mut reference, s, t, MaxFlowAlgorithm::Dinic);
                assert_eq!(cut_of(&cold), cut_of(&dinic), "case {case} x{mul}");
                assert_eq!(g.conservation_violations(s, t), [], "case {case} x{mul}");
            }
        }
    }

    #[test]
    fn cut_value_never_exceeds_any_single_side_degree() {
        for case in 0..CASES {
            let (seed, n, _) = graph_case(case, 3..16, 0..1);
            // The trivial cut that isolates the source bounds the min cut.
            let mut g = random_graph(seed, n, 10);
            let trivial: u64 = g.edges_of(0).map(|e| g.original(e)).sum();
            let cut = min_cut(&mut g, 0, n - 1, MaxFlowAlgorithm::Dinic);
            assert!(cut.cut_value <= trivial, "case {case}");
        }
    }
}
