//! Heuristic multiway cut for three or more machines.
//!
//! The paper restricts itself to an exact two-way cut because multiway
//! partitioning is NP-hard, but names the heuristic literature (Dahlhaus et
//! al.) as the path to ≥3-machine distributions. This module implements the
//! classic **isolation heuristic**: for each terminal, compute the minimum
//! cut isolating it from all other terminals; take the union of all
//! isolating cuts except the heaviest. The result is within `2 − 2/k` of the
//! optimal multiway cut.
//!
//! A terminal is isolated from the others by merging them into one sink
//! (`FlowNetwork::merged`), which keeps an undirected network undirected.

use crate::graph::{FlowNetwork, NodeId};
use crate::mincut::{min_cut, MaxFlowAlgorithm};

/// Result of a heuristic multiway cut.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiwayCut {
    /// For every node, the index (into the terminal list) of its machine.
    pub assignment: Vec<usize>,
    /// Total capacity crossing between different machines.
    pub cut_value: u64,
}

/// Partitions the graph among `terminals` using the isolation heuristic.
///
/// Every node is assigned to exactly one terminal; terminal `i` is always
/// assigned to itself. Nodes not reachable by any isolating cut fall to the
/// terminal whose isolating cut was dropped (the heaviest).
///
/// # Panics
///
/// Panics if fewer than two terminals are given or if a terminal repeats.
pub fn multiway_cut(
    g: &FlowNetwork,
    terminals: &[NodeId],
    algorithm: MaxFlowAlgorithm,
) -> MultiwayCut {
    assert!(terminals.len() >= 2, "need at least two terminals");
    let n = g.node_count();
    let mut is_terminal = vec![false; n];
    for &t in terminals {
        assert!(
            !std::mem::replace(&mut is_terminal[t], true),
            "terminals must be distinct"
        );
    }

    // For each terminal, the isolating min cut: the terminal against the
    // other terminals merged into one sink.
    let cuts: Vec<(u64, Vec<bool>)> = (terminals.iter().enumerate())
        .map(|(i, &source)| {
            let sink = terminals[usize::from(i == 0)];
            let merge = |v| {
                if is_terminal[v] && v != source {
                    sink
                } else {
                    v
                }
            };
            let cut = min_cut(&mut g.merged(merge), source, sink, algorithm);
            (cut.cut_value, cut.source_side)
        })
        .collect();

    // Drop the heaviest isolating cut (2 − 2/k approximation).
    let heaviest = (0..cuts.len())
        .max_by_key(|&i| cuts[i].0)
        .expect("at least two cuts");

    // Assign greedily: lightest cuts claim their source side first.
    let mut order: Vec<usize> = (0..cuts.len()).filter(|&i| i != heaviest).collect();
    order.sort_by_key(|&i| cuts[i].0);

    let mut assignment = vec![usize::MAX; n];
    for &i in &order {
        for (node, &in_side) in cuts[i].1.iter().enumerate() {
            if in_side && assignment[node] == usize::MAX {
                assignment[node] = i;
            }
        }
    }
    // Everything unclaimed belongs to the dropped terminal's machine.
    for slot in assignment.iter_mut() {
        if *slot == usize::MAX {
            *slot = heaviest;
        }
    }
    // Terminals always live on their own machine.
    for (i, &term) in terminals.iter().enumerate() {
        assignment[term] = i;
    }

    let cut_value = crossing_value(g, &assignment);
    MultiwayCut {
        assignment,
        cut_value,
    }
}

/// Greedy local refinement of a multiway assignment by single-node moves.
///
/// Repeatedly moves one `movable` node to the machine holding most of its
/// adjacent capacity; every move strictly reduces the crossing value, so
/// the pass terminates. Nodes are visited in index order and a node only
/// moves on a *strict* improvement (ties keep the current machine), making
/// the result deterministic. The caller is responsible for marking nodes
/// that must not move (terminals, pinned or constraint-bound nodes) as not
/// movable. Returns the crossing value of the refined assignment.
///
/// # Panics
///
/// Panics if `assignment` or `movable` is shorter than the node count, or
/// if an assignment refers to a machine `>= machine_count`.
pub fn refine_assignment(
    g: &FlowNetwork,
    assignment: &mut [usize],
    movable: &[bool],
    machine_count: usize,
) -> u64 {
    let n = g.node_count();
    assert!(assignment.len() >= n && movable.len() >= n);
    assert!(assignment[..n].iter().all(|&m| m < machine_count));
    loop {
        let mut improved = false;
        for u in 0..n {
            if !movable[u] {
                continue;
            }
            // Adjacent undirected capacity per machine.
            let mut pull = vec![0u64; machine_count];
            for e in g.edges_of(u) {
                let v = g.head(e);
                if v < n && v != u {
                    pull[assignment[v]] =
                        pull[assignment[v]].saturating_add(g.original(e).max(g.original(e ^ 1)));
                }
            }
            let here = assignment[u];
            let (best, best_pull) = pull
                .iter()
                .enumerate()
                .max_by_key(|&(m, p)| (*p, std::cmp::Reverse(m)))
                .expect("at least one machine");
            if best != here && *best_pull > pull[here] {
                assignment[u] = best;
                improved = true;
            }
        }
        if !improved {
            return crossing_value(g, assignment);
        }
    }
}

/// Total original capacity of edges whose endpoints are assigned to
/// different machines.
fn crossing_value(g: &FlowNetwork, assignment: &[usize]) -> u64 {
    let mut total = 0u64;
    for u in 0..g.node_count() {
        for e in g.edges_of(u) {
            if e % 2 != 0 {
                continue; // count each stored edge once, via its forward half
            }
            let v = g.head(e);
            if assignment[u] != assignment[v] {
                total += g.original(e).max(g.original(e ^ 1));
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three clusters joined by thin bridges; terminals one per cluster.
    fn three_cluster_graph() -> (FlowNetwork, Vec<NodeId>) {
        let mut g = FlowNetwork::new(9);
        // Cluster A: 0,1,2 (terminal 0), heavy internal edges.
        g.add_undirected(0, 1, 100);
        g.add_undirected(1, 2, 100);
        // Cluster B: 3,4,5 (terminal 3).
        g.add_undirected(3, 4, 100);
        g.add_undirected(4, 5, 100);
        // Cluster C: 6,7,8 (terminal 6).
        g.add_undirected(6, 7, 100);
        g.add_undirected(7, 8, 100);
        // Thin bridges.
        g.add_undirected(2, 3, 1);
        g.add_undirected(5, 6, 2);
        g.add_undirected(8, 0, 3);
        (g, vec![0, 3, 6])
    }

    #[test]
    fn clusters_stay_whole() {
        let (g, terminals) = three_cluster_graph();
        let cut = multiway_cut(&g, &terminals, MaxFlowAlgorithm::Dinic);
        assert_eq!(cut.assignment[0], cut.assignment[1]);
        assert_eq!(cut.assignment[1], cut.assignment[2]);
        assert_eq!(cut.assignment[3], cut.assignment[4]);
        assert_eq!(cut.assignment[6], cut.assignment[8]);
        // Only the three bridges are cut.
        assert_eq!(cut.cut_value, 1 + 2 + 3);
    }

    #[test]
    fn terminals_keep_their_machines() {
        let (g, terminals) = three_cluster_graph();
        let cut = multiway_cut(&g, &terminals, MaxFlowAlgorithm::LiftToFront);
        for (i, &t) in terminals.iter().enumerate() {
            assert_eq!(cut.assignment[t], i);
        }
    }

    #[test]
    fn two_terminals_reduce_to_ordinary_min_cut() {
        let mut g = FlowNetwork::new(4);
        g.add_undirected(0, 1, 10);
        g.add_undirected(1, 2, 2);
        g.add_undirected(2, 3, 10);
        let multi = multiway_cut(&g, &[0, 3], MaxFlowAlgorithm::Dinic);
        let mut g2 = g.clone();
        let two = min_cut(&mut g2, 0, 3, MaxFlowAlgorithm::Dinic);
        assert_eq!(multi.cut_value, two.cut_value);
    }

    #[test]
    fn approximation_bound_holds_on_clusters() {
        // For the cluster graph the optimum is the bridge total; the
        // heuristic must be within 2 − 2/3 = 4/3 of it.
        let (g, terminals) = three_cluster_graph();
        let cut = multiway_cut(&g, &terminals, MaxFlowAlgorithm::Dinic);
        let optimum = 6;
        assert!(cut.cut_value as f64 <= optimum as f64 * (2.0 - 2.0 / 3.0));
    }

    #[test]
    #[should_panic(expected = "need at least two terminals")]
    fn single_terminal_panics() {
        let g = FlowNetwork::new(2);
        multiway_cut(&g, &[0], MaxFlowAlgorithm::Dinic);
    }

    #[test]
    #[should_panic(expected = "terminals must be distinct")]
    fn duplicate_terminals_panic() {
        let g = FlowNetwork::new(2);
        multiway_cut(&g, &[0, 0], MaxFlowAlgorithm::Dinic);
    }

    #[test]
    fn refinement_repairs_a_bad_assignment() {
        let (g, _) = three_cluster_graph();
        // Node 1 misassigned away from its heavy cluster.
        let mut assignment = vec![0, 1, 0, 1, 1, 1, 2, 2, 2];
        let movable = vec![false, true, true, false, true, true, false, true, true];
        let before = crossing_value(&g, &assignment);
        let after = refine_assignment(&g, &mut assignment, &movable, 3);
        assert!(after < before);
        assert_eq!(assignment[1], 0);
        assert_eq!(after, crossing_value(&g, &assignment));
    }

    #[test]
    fn refinement_never_moves_pinned_nodes() {
        let (g, _) = three_cluster_graph();
        let mut assignment = vec![0, 2, 0, 1, 1, 1, 2, 2, 2];
        let movable = vec![false; 9];
        let before = crossing_value(&g, &assignment);
        let after = refine_assignment(&g, &mut assignment, &movable, 3);
        assert_eq!(after, before);
        assert_eq!(assignment, vec![0, 2, 0, 1, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn refinement_of_an_optimal_assignment_is_identity() {
        let (g, terminals) = three_cluster_graph();
        let cut = multiway_cut(&g, &terminals, MaxFlowAlgorithm::Dinic);
        let mut refined = cut.assignment.clone();
        let movable: Vec<bool> = (0..g.node_count())
            .map(|u| !terminals.contains(&u))
            .collect();
        let value = refine_assignment(&g, &mut refined, &movable, terminals.len());
        assert!(value <= cut.cut_value);
        assert_eq!(value, crossing_value(&g, &refined));
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use crate::graph::INFINITE;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const CASES: u64 = 48;

    /// Random connected graph with `k` spread-out terminals.
    fn random_instance(rng: &mut StdRng, n: usize, k: usize) -> (FlowNetwork, Vec<NodeId>) {
        let mut g = FlowNetwork::new(n);
        for i in 1..n {
            g.add_undirected(i - 1, i, rng.gen_range(1..50));
        }
        for _ in 0..n {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v {
                g.add_undirected(u, v, rng.gen_range(1..50));
            }
        }
        let terminals: Vec<NodeId> = (0..k).map(|i| i * (n - 1) / (k - 1).max(1)).collect();
        (g, terminals)
    }

    /// Structural invariants on random instances: every node assigned,
    /// terminals fixed, and the cut value bounded by the sum of the
    /// isolating cuts (the heuristic's construction guarantees it).
    #[test]
    fn multiway_invariants() {
        for case in 0..CASES {
            let mut rng = StdRng::seed_from_u64(case);
            let (n, k) = (rng.gen_range(6..24), rng.gen_range(2..5));
            let (g, terminals) = random_instance(&mut rng, n, k);
            // Terminals generated this way can collide on tiny graphs.
            let mut distinct = terminals.clone();
            distinct.dedup();
            if distinct.len() != terminals.len() {
                continue;
            }

            let cut = multiway_cut(&g, &terminals, MaxFlowAlgorithm::Dinic);
            assert_eq!(cut.assignment.len(), g.node_count(), "case {case}");
            for (i, &t) in terminals.iter().enumerate() {
                assert_eq!(cut.assignment[t], i, "case {case}");
            }
            assert!(
                cut.assignment.iter().all(|&a| a < terminals.len()),
                "case {case}"
            );
            assert_eq!(
                crossing_value(&g, &cut.assignment),
                cut.cut_value,
                "case {case}"
            );

            // Upper bound: the sum of all isolating min cuts.
            let isolating_sum: u64 = (0..terminals.len())
                .map(|i| super_sink_cut(&g, &terminals, i, MaxFlowAlgorithm::Dinic).0)
                .sum();
            assert!(
                cut.cut_value <= isolating_sum,
                "case {case}: cut {} > isolating sum {isolating_sum}",
                cut.cut_value
            );
        }
    }

    /// The isolating cut the heuristic used to solve, kept as a reference:
    /// the network with a super-sink that every other terminal drains into
    /// over an [`INFINITE`] arc.
    fn super_sink_cut(
        g: &FlowNetwork,
        terminals: &[NodeId],
        i: usize,
        algorithm: MaxFlowAlgorithm,
    ) -> (u64, Vec<bool>) {
        let mut work = g.clone();
        let sink = work.add_node();
        for (j, &other) in terminals.iter().enumerate() {
            if j != i {
                work.add_edge(other, sink, INFINITE);
            }
        }
        let cut = min_cut(&mut work, terminals[i], sink, algorithm);
        let mut side = cut.source_side;
        side.truncate(g.node_count());
        (cut.cut_value, side)
    }

    /// The heuristic as it was solved on super-sink networks, kept as a
    /// reference.
    fn super_sink_multiway_cut(
        g: &FlowNetwork,
        terminals: &[NodeId],
        algorithm: MaxFlowAlgorithm,
    ) -> MultiwayCut {
        let cuts: Vec<(u64, Vec<bool>)> = (0..terminals.len())
            .map(|i| super_sink_cut(g, terminals, i, algorithm))
            .collect();
        let heaviest = (0..cuts.len()).max_by_key(|&i| cuts[i].0).unwrap();
        let mut order: Vec<usize> = (0..cuts.len()).filter(|&i| i != heaviest).collect();
        order.sort_by_key(|&i| cuts[i].0);
        let mut assignment = vec![heaviest; g.node_count()];
        let mut claimed = vec![false; g.node_count()];
        for &i in &order {
            for (node, &in_side) in cuts[i].1.iter().enumerate() {
                if in_side && !claimed[node] {
                    claimed[node] = true;
                    assignment[node] = i;
                }
            }
        }
        for (i, &t) in terminals.iter().enumerate() {
            assignment[t] = i;
        }
        let cut_value = crossing_value(g, &assignment);
        MultiwayCut {
            assignment,
            cut_value,
        }
    }

    /// Merging the other terminals into one sink gives the multiway cut the
    /// super-sink networks give, on undirected and directed networks, with
    /// parallel edges, isolated nodes and edges between terminals.
    #[test]
    fn merged_sinks_match_the_super_sink_reference() {
        for case in 0..1_000u64 {
            let mut rng = StdRng::seed_from_u64(case);
            let k = 2 + (case % 3) as usize;
            let n = rng.gen_range(k..k + 30);
            let directed = case % 4 == 3;
            let mut g = FlowNetwork::new(n);
            for _ in 0..rng.gen_range(0..3 * n) {
                let (u, v, cap) = (
                    rng.gen_range(0..n),
                    rng.gen_range(0..n),
                    rng.gen_range(1..60),
                );
                if u == v {
                    continue;
                }
                if directed && rng.gen_bool(0.3) {
                    g.add_edge(u, v, cap);
                } else {
                    g.add_undirected(u, v, cap);
                }
            }
            // Distinct terminals anywhere in the network.
            let mut ids: Vec<NodeId> = (0..n).collect();
            for i in 0..k {
                ids.swap(i, rng.gen_range(i..n));
            }
            let terminals = &ids[..k];
            for algorithm in MaxFlowAlgorithm::ALL {
                assert_eq!(
                    multiway_cut(&g, terminals, algorithm),
                    super_sink_multiway_cut(&g, terminals, algorithm),
                    "case {case}, {algorithm:?}"
                );
            }
        }
    }

    /// With two terminals the heuristic is exact: it equals the s-t
    /// min cut.
    #[test]
    fn two_terminals_are_exact() {
        for case in 0..CASES {
            let mut rng = StdRng::seed_from_u64(case);
            let n = rng.gen_range(4..20);
            let (mut g, terminals) = random_instance(&mut rng, n, 2);
            let multi = multiway_cut(&g, &terminals, MaxFlowAlgorithm::Dinic);
            let exact = crate::mincut::min_cut(&mut g, 0, n - 1, MaxFlowAlgorithm::Dinic);
            assert_eq!(multi.cut_value, exact.cut_value, "case {case}");
        }
    }
}
