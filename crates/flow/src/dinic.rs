//! Dinic's maximum-flow algorithm (level graph + blocking flow).
//!
//! `O(V²·E)`, far better in practice on sparse communication graphs. It
//! shares no code with [`push_relabel`](crate::push_relabel) beyond the
//! residual graph, which makes it the independent cross-check of every
//! lift-to-front cut in tests and the benchmark, and the yardstick that
//! solver's speed is measured against.

use crate::graph::{Arcs, FlowNetwork, NodeId, ResidualArc};
use crate::mincut::SolveWork;
use std::collections::VecDeque;

/// Computes a maximum `s`–`t` flow with Dinic's algorithm. Its work is
/// counted as one push per arc of every augmenting path.
///
/// # Panics
///
/// Panics if `s == t`.
pub(crate) fn max_flow(g: &mut FlowNetwork, s: NodeId, t: NodeId) -> (u64, SolveWork) {
    assert_ne!(s, t, "source and sink must differ");
    let n = g.node_count();
    let arcs = g.arcs_mut();
    let mut total: u128 = 0;
    let mut work = SolveWork::default();
    loop {
        // Build the level graph by BFS over residual arcs.
        let mut level = vec![usize::MAX; n];
        level[s] = 0;
        let mut queue = VecDeque::new();
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for arc in &arcs.arc[arcs.of(u)] {
                let v = arc.head as usize;
                if arc.residual > 0 && level[v] == usize::MAX {
                    level[v] = level[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        if level[t] == usize::MAX {
            break;
        }
        // Blocking flow by iterative DFS with current-arc pointers.
        let mut iter = arcs.first[..n].to_vec();
        loop {
            let pushed = dfs(arcs, s, t, u64::MAX, &level, &mut iter, &mut work);
            if pushed == 0 {
                break;
            }
            total += u128::from(pushed);
        }
    }
    debug_assert!(g.conservation_violations(s, t).is_empty());
    (u64::try_from(total).expect("flow exceeds u64"), work)
}

fn dfs(
    arcs: &mut Arcs,
    u: NodeId,
    t: NodeId,
    limit: u64,
    level: &[usize],
    iter: &mut [usize],
    work: &mut SolveWork,
) -> u64 {
    if u == t {
        return limit;
    }
    let end = arcs.of(u).end;
    while iter[u] < end {
        let a = iter[u];
        let ResidualArc { head, residual, .. } = arcs.arc[a];
        let v = head as usize;
        if residual > 0 && level[v] == level[u] + 1 {
            let pushed = dfs(arcs, v, t, limit.min(residual), level, iter, work);
            if pushed > 0 {
                arcs.push(a, pushed);
                work.pushes += 1;
                return pushed;
            }
        }
        iter[u] += 1;
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bottleneck() {
        let mut g = FlowNetwork::new(3);
        g.add_edge(0, 1, 10);
        g.add_edge(1, 2, 3);
        assert_eq!(max_flow(&mut g, 0, 2).0, 3);
    }

    #[test]
    fn clrs_example() {
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
    fn diamond_with_cross_edge() {
        let mut g = FlowNetwork::new(4);
        g.add_edge(0, 1, 1);
        g.add_edge(0, 2, 1);
        g.add_edge(1, 2, 1);
        g.add_edge(1, 3, 1);
        g.add_edge(2, 3, 1);
        assert_eq!(max_flow(&mut g, 0, 3).0, 2);
    }

    #[test]
    fn repeated_runs_after_reset_agree() {
        let mut g = FlowNetwork::new(4);
        g.add_undirected(0, 1, 7);
        g.add_undirected(1, 2, 4);
        g.add_undirected(2, 3, 9);
        let first = max_flow(&mut g, 0, 3).0;
        g.reset();
        let second = max_flow(&mut g, 0, 3).0;
        assert_eq!(first, second);
        assert_eq!(first, 4);
    }
}
