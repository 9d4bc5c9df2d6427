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
/// cannot disturb each other's counts.
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
    fn run(self, g: &mut FlowNetwork, s: NodeId, t: NodeId) -> u64 {
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
    let cut_value = algorithm.run(g, s, t);
    let source_side = g.residual_reachable(s);
    debug_assert!(source_side[s]);
    debug_assert!(!source_side[t]);
    CutResult {
        cut_value,
        source_side,
    }
}

/// Computes a minimum `s`–`t` cut, warm-starting lift-to-front from a
/// previous solve's flow when one is supplied.
///
/// `previous_flows` is a [`FlowNetwork::snapshot_flows`] taken after a
/// completed solve on a network with identical topology whose capacities
/// were no larger than this one's (see
/// `push_relabel::max_flow_warm` for
/// the feasibility argument). With `None` this is exactly
/// [`min_cut`] with [`MaxFlowAlgorithm::LiftToFront`]. Warm starting never
/// changes the cut value or the source side — only how much work the solve
/// performs.
pub fn min_cut_warm(
    g: &mut FlowNetwork,
    s: NodeId,
    t: NodeId,
    previous_flows: Option<&[u64]>,
) -> CutResult {
    MIN_CUT_INVOCATIONS.with(|n| n.set(n.get() + 1));
    let cut_value = match previous_flows {
        Some(flows) => push_relabel::max_flow_warm(g, s, t, flows),
        None => push_relabel::max_flow(g, s, t),
    };
    let source_side = g.residual_reachable(s);
    debug_assert!(source_side[s]);
    debug_assert!(!source_side[t]);
    CutResult {
        cut_value,
        source_side,
    }
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
        for &e in g.edges_of(u) {
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

    /// Builds a random connected undirected graph from a seed, with every
    /// capacity scaled by `mul`. The RNG sequence depends only on the seed,
    /// so the same seed always yields the same topology — different `mul`
    /// values give capacity-rescaled copies of one graph.
    fn random_graph_scaled(seed: u64, n: usize, extra_edges: usize, mul: u64) -> FlowNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = FlowNetwork::new(n);
        // Spanning chain keeps it connected.
        for i in 1..n {
            g.add_undirected(i - 1, i, rng.gen_range(1u64..100) * mul);
        }
        for _ in 0..extra_edges {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v {
                g.add_undirected(u, v, rng.gen_range(1u64..100) * mul);
            }
        }
        g
    }

    /// Builds a random connected undirected graph from a seed.
    fn random_graph(seed: u64, n: usize, extra_edges: usize) -> FlowNetwork {
        random_graph_scaled(seed, n, extra_edges, 1)
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
    fn warm_starts_agree_with_every_cold_algorithm() {
        for case in 0..CASES {
            let (seed, n, extra) = graph_case(case, 3..20, 0..24);
            // Solve a sequence of monotonically growing rescalings of one
            // graph, warm-starting each solve from the previous flow, and
            // check every point against both algorithms run cold.
            let mut previous: Option<Vec<u64>> = None;
            for mul in [1u64, 3, 3, 8] {
                let mut g = random_graph_scaled(seed, n, extra, mul);
                let warm = min_cut_warm(&mut g, 0, n - 1, previous.as_deref());
                assert_eq!(
                    crossing_capacity(&g, &warm.source_side),
                    warm.cut_value,
                    "case {case}"
                );
                for alg in MaxFlowAlgorithm::ALL {
                    let mut cold = random_graph_scaled(seed, n, extra, mul);
                    let cut = min_cut(&mut cold, 0, n - 1, alg);
                    assert_eq!(cut.cut_value, warm.cut_value, "case {case}: {alg:?} x{mul}");
                    assert_eq!(
                        cut.source_side, warm.source_side,
                        "case {case}: {alg:?} x{mul}"
                    );
                }
                assert_eq!(g.conservation_violations(0, n - 1), [], "case {case}");
                previous = Some(g.snapshot_flows());
            }
        }
    }

    #[test]
    fn clamped_warm_starts_survive_capacity_shrinks() {
        for case in 0..CASES {
            let (seed, n, extra) = graph_case(case, 3..16, 0..16);
            // Solve once, then rewrite every edge capacity from a second
            // seeded stream — some shrink (including to zero), some grow.
            // `clamp_flows` must repair the stale snapshot into a legal
            // warm start that reproduces the cold answer exactly.
            let mut g = random_graph_scaled(seed, n, extra, 4);
            min_cut(&mut g, 0, n - 1, MaxFlowAlgorithm::LiftToFront);
            let mut flows = g.snapshot_flows();
            g.reset();
            let mut caps = StdRng::seed_from_u64(seed ^ 0x5eed);
            for pair in 0..g.edge_count() {
                g.set_undirected_capacity(pair, caps.gen_range(0u64..600));
            }
            g.clamp_flows(0, n - 1, &mut flows);
            for (e, &f) in flows.iter().enumerate() {
                assert!(f <= g.original(e), "case {case}: edge {e} over capacity");
            }
            let warm = min_cut_warm(&mut g, 0, n - 1, Some(&flows));
            assert_eq!(g.conservation_violations(0, n - 1), [], "case {case}");
            for alg in MaxFlowAlgorithm::ALL {
                let mut cold = random_graph_scaled(seed, n, extra, 4);
                let mut caps = StdRng::seed_from_u64(seed ^ 0x5eed);
                for pair in 0..cold.edge_count() {
                    cold.set_undirected_capacity(pair, caps.gen_range(0u64..600));
                }
                let cut = min_cut(&mut cold, 0, n - 1, alg);
                assert_eq!(cut.cut_value, warm.cut_value, "case {case}: {alg:?}");
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

    /// Shrinks about a quarter of `g`'s edge pairs, pins included, to a
    /// seeded fraction of their capacity (zero included).
    fn shrink(g: &mut FlowNetwork, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        for pair in 0..g.edge_count() {
            if rng.gen_range(0..4) == 0 {
                let cap = rng.gen_range(0..=g.original(pair * 2));
                g.set_undirected_capacity(pair, cap);
            }
        }
    }

    #[test]
    fn lift_to_front_matches_dinic_at_partition_scale() {
        // Graphs large enough for lift-to-front's periodic global relabel
        // to fire, solved cold, warm along a ×1/×3/×8 capacity chain, and
        // warm again from a snapshot `clamp_flows` repaired after shrinks.
        for case in 0..16 {
            let mut previous: Option<Vec<u64>> = None;
            for mul in [1, 3, 8] {
                let (mut g, s, t) = pinned_graph(case, mul);
                let mut cold_net = g.clone();
                let cold = min_cut(&mut cold_net, s, t, MaxFlowAlgorithm::LiftToFront);
                let warm = min_cut_warm(&mut g, s, t, previous.as_deref());
                let mut reference = pinned_graph(case, mul).0;
                let dinic = min_cut(&mut reference, s, t, MaxFlowAlgorithm::Dinic);
                assert_eq!(cold, dinic, "case {case}: cold x{mul}");
                assert_eq!(warm, dinic, "case {case}: warm x{mul}");
                for net in [&cold_net, &g] {
                    assert_eq!(net.conservation_violations(s, t), [], "case {case} x{mul}");
                }
                previous = Some(g.snapshot_flows());
            }
            let (mut g, s, t) = pinned_graph(case, 8);
            shrink(&mut g, case);
            let mut flows = previous.expect("the chain ran");
            g.clamp_flows(s, t, &mut flows);
            let warm = min_cut_warm(&mut g, s, t, Some(&flows));
            let mut reference = pinned_graph(case, 8).0;
            shrink(&mut reference, case);
            let dinic = min_cut(&mut reference, s, t, MaxFlowAlgorithm::Dinic);
            assert_eq!(warm, dinic, "case {case}: clamped");
            assert_eq!(g.conservation_violations(s, t), [], "case {case}: clamped");
        }
    }

    #[test]
    fn cut_value_never_exceeds_any_single_side_degree() {
        for case in 0..CASES {
            let (seed, n, _) = graph_case(case, 3..16, 0..1);
            // The trivial cut that isolates the source bounds the min cut.
            let mut g = random_graph(seed, n, 10);
            let trivial: u64 = g.edges_of(0).iter().map(|&e| g.original(e)).sum();
            let cut = min_cut(&mut g, 0, n - 1, MaxFlowAlgorithm::Dinic);
            assert!(cut.cut_value <= trivial, "case {case}");
        }
    }
}
