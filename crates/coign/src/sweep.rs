//! Warm-started partition sweeps across a grid of network conditions.
//!
//! The paper's motivating observation is that the best distribution of an
//! application *changes with the network*: a cut tuned for a SAN is wrong
//! for ISDN. Answering "where does the partition flip?" means solving the
//! same min-cut over a whole grid of latency/bandwidth points — and those
//! solves are highly related: raising latency or lowering bandwidth only
//! ever *increases* edge capacities (`α·messages + β·bytes` with
//! `α = latency + overhead/bw` and `β = 1/bw`), never shrinks them.
//!
//! The warm sweep exploits that relatedness twice. First, the flow
//! network's *topology* is network-independent — node order, edge keys,
//! and constraint edges depend only on the profile — so it is built once
//! and only its communication-edge capacities are rewritten per point
//! ([`coign_flow::FlowNetwork::set_undirected_capacity`]), skipping the
//! per-point graph rebuild entirely. Second, a max flow that was feasible
//! at one grid point remains feasible at the next: points are visited in
//! capacity-monotone order (latency ascending; within a latency row,
//! bandwidth descending) and each solve is warm-started from its
//! predecessor's flow via [`coign_flow::min_cut_warm`]. The first point of
//! each row chains from the first point of the previous row (same
//! bandwidth, lower latency), so every consecutive pair along the warm
//! chain is capacity-monotone. Warm or cold, the residual-reachability cut
//! extraction returns the *unique minimal source side* of the min cut, so
//! placements are identical — [`SweepMode::WarmValidated`] proves it
//! against a cold Dinic solve on an independently rebuilt network at
//! every point.

use crate::analysis::{build_flow_network, check_cut_in_range};
use crate::application::Application;
use crate::classifier::ClassificationId;
use crate::constraints::Constraint;
use crate::icc::IccGraph;
use crate::profile::IccProfile;
use crate::runtime::{check_constraints, derive_constraints};
use coign_com::{ComError, ComResult};
use coign_dcom::{NetworkModel, NetworkProfile};
use coign_flow::{min_cut, min_cut_warm, MaxFlowAlgorithm};

/// The latency/bandwidth grid a sweep evaluates.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepGrid {
    /// One-way per-message latencies to evaluate, microseconds.
    pub latencies_us: Vec<f64>,
    /// Link bandwidths to evaluate, bytes per second.
    pub bandwidths_bps: Vec<f64>,
}

impl SweepGrid {
    /// The default grid: latencies and bandwidths spanning the paper's
    /// network generations, from SAN-class links to ISDN.
    pub fn paper_networks() -> Self {
        SweepGrid {
            latencies_us: vec![20.0, 300.0, 1_000.0, 10_000.0],
            bandwidths_bps: vec![16e3, 1.25e6, 19.4e6, 125e6],
        }
    }

    /// Latencies sorted ascending, deduplicated.
    fn sorted_latencies(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .latencies_us
            .iter()
            .copied()
            .filter(|l| *l >= 0.0)
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("latency must not be NaN"));
        v.dedup();
        v
    }

    /// Bandwidths sorted descending, deduplicated.
    fn sorted_bandwidths(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .bandwidths_bps
            .iter()
            .copied()
            .filter(|b| *b > 0.0)
            .collect();
        v.sort_by(|a, b| b.partial_cmp(a).expect("bandwidth must not be NaN"));
        v.dedup();
        v
    }
}

/// How the sweep solves each grid point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepMode {
    /// Build the flow network once, re-parameterize its capacities per
    /// point, and warm-start each solve from its predecessor along the
    /// capacity-monotone chain (lift-to-front).
    Warm,
    /// Solve every point from scratch — full graph rebuild plus a cold
    /// lift-to-front solve, exactly what running `coign analyze` once per
    /// network point would cost. The baseline the warm chain is
    /// benchmarked against.
    Cold,
    /// Warm-start, then re-solve every point cold with Dinic — an
    /// independent algorithm on an independently rebuilt network — and
    /// fail if cut value or placement disagree.
    WarmValidated,
}

/// The partition chosen at one grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// One-way message latency of this point, microseconds.
    pub latency_us: f64,
    /// Link bandwidth of this point, bytes per second.
    pub bandwidth_bps: f64,
    /// Minimum cut value in scaled capacity units ([`IccGraph::capacity_of`]).
    pub cut_value: u64,
    /// Predicted communication time of the chosen partition, microseconds.
    pub predicted_comm_us: f64,
    /// Classifications placed on the client, sorted.
    pub client: Vec<ClassificationId>,
    /// Classifications placed on the server, sorted.
    pub server: Vec<ClassificationId>,
}

/// A completed sweep: one [`SweepPoint`] per grid point, in evaluation
/// order (latency ascending, bandwidth descending within each latency).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// Per-point partitions.
    pub points: Vec<SweepPoint>,
}

impl SweepResult {
    /// Number of distinct partitions across the grid — how often the best
    /// distribution actually changes with the network.
    pub fn distinct_partitions(&self) -> usize {
        let mut seen: Vec<&Vec<ClassificationId>> = Vec::new();
        for p in &self.points {
            if !seen.contains(&&p.server) {
                seen.push(&p.server);
            }
        }
        seen.len()
    }
}

/// Sweeps the min-cut partition across `grid`, deriving constraints from
/// the application exactly as [`crate::runtime::choose_distribution`]
/// does. The constraint set is vetted once up front; contradictions fail
/// fast without invoking the solver.
pub fn sweep(
    app: &dyn Application,
    profile: &IccProfile,
    grid: &SweepGrid,
    mode: SweepMode,
) -> ComResult<SweepResult> {
    check_constraints(app, profile)?;
    let constraints = derive_constraints(app, profile);
    sweep_profile(profile, &constraints, grid, mode)
}

/// Sweeps with an explicit constraint set (no application needed) — the
/// core loop behind [`sweep`].
pub fn sweep_profile(
    profile: &IccProfile,
    constraints: &[Constraint],
    grid: &SweepGrid,
    mode: SweepMode,
) -> ComResult<SweepResult> {
    let latencies = grid.sorted_latencies();
    let bandwidths = grid.sorted_bandwidths();
    if latencies.is_empty() || bandwidths.is_empty() {
        return Err(ComError::App(
            "sweep grid is empty: need at least one latency and one bandwidth".to_string(),
        ));
    }
    match mode {
        SweepMode::Cold => sweep_cold(profile, constraints, &latencies, &bandwidths),
        SweepMode::Warm | SweepMode::WarmValidated => sweep_warm(
            profile,
            constraints,
            &latencies,
            &bandwidths,
            mode == SweepMode::WarmValidated,
        ),
    }
}

/// The cold baseline: at every grid point, rebuild the concrete graph and
/// flow network from scratch and solve with lift-to-front — exactly what
/// running [`crate::analysis::analyze`] once per network point would do.
fn sweep_cold(
    profile: &IccProfile,
    constraints: &[Constraint],
    latencies: &[f64],
    bandwidths: &[f64],
) -> ComResult<SweepResult> {
    let mut points = Vec::with_capacity(latencies.len() * bandwidths.len());
    for &latency_us in latencies {
        for &bandwidth_bps in bandwidths {
            let network = NetworkProfile::exact(&grid_model(latency_us, bandwidth_bps));
            let graph = IccGraph::build(profile, &network);
            let (mut flow, source, sink) = build_flow_network(&graph, constraints);
            let cut = min_cut(&mut flow, source, sink, MaxFlowAlgorithm::LiftToFront);
            check_cut_in_range(
                &flow,
                graph.weights_us.len(),
                cut.cut_value,
                format_args!("latency {latency_us} us, bandwidth {bandwidth_bps} B/s"),
            )?;
            points.push(make_point(
                latency_us,
                bandwidth_bps,
                cut.cut_value,
                graph.crossing_time_us(&cut.source_side[..graph.node_count()]),
                &graph.nodes,
                &cut.source_side,
            ));
        }
    }
    Ok(SweepResult { points })
}

/// The warm path: the flow network's *topology* never changes across the
/// grid — only its communication-edge capacities do — so it is built once
/// and re-parameterized per point with
/// [`FlowNetwork::set_undirected_capacity`], and each solve is
/// warm-started from its predecessor's flow along the capacity-monotone
/// chain. With `validate`, every point is additionally re-solved cold
/// (full rebuild, Dinic) and the sweep fails on any disagreement.
///
/// [`FlowNetwork::set_undirected_capacity`]: coign_flow::FlowNetwork::set_undirected_capacity
fn sweep_warm(
    profile: &IccProfile,
    constraints: &[Constraint],
    latencies: &[f64],
    bandwidths: &[f64],
    validate: bool,
) -> ComResult<SweepResult> {
    // Build the graph once at the first grid point. Node order, the
    // non-remotable set, and the communication-edge *keys* depend only on
    // the profile, never on the network, so everything except the edge
    // weights is shared by the whole grid.
    let base_network = NetworkProfile::exact(&grid_model(latencies[0], bandwidths[0]));
    let base_graph = IccGraph::build(profile, &base_network);
    let (mut flow, source, sink) = build_flow_network(&base_graph, constraints);

    // Per-pair traffic in graph-key order: the network-independent part
    // of each edge weight. Communication edges are the first
    // `weights_us.len()` pairs of the flow network, in this same order,
    // so index `k` below addresses pair `k` directly.
    let mut traffic: Vec<((usize, usize), (u64, u64))> = profile
        .pair_traffic()
        .into_iter()
        .filter_map(|(pair, stats)| {
            let (a, b) = (base_graph.index[&pair.0], base_graph.index[&pair.1]);
            (a != b).then_some((
                if a < b { (a, b) } else { (b, a) },
                (stats.messages, stats.bytes),
            ))
        })
        .collect();
    traffic.sort_unstable_by_key(|(key, _)| *key);
    debug_assert!(traffic
        .iter()
        .map(|(key, _)| key)
        .eq(base_graph.weights_us.keys()));

    let mut points = Vec::with_capacity(latencies.len() * bandwidths.len());
    // Flow snapshot of the previous point in the warm chain, and of the
    // first point of the previous latency row (the row-to-row link).
    let mut previous: Option<Vec<u64>> = None;
    let mut row_start: Option<Vec<u64>> = None;
    let mut weights = vec![0.0f64; traffic.len()];

    for &latency_us in latencies {
        for (col, &bandwidth_bps) in bandwidths.iter().enumerate() {
            let network = NetworkProfile::exact(&grid_model(latency_us, bandwidth_bps));
            flow.reset();
            for (k, ((_, _), (messages, bytes))) in traffic.iter().enumerate() {
                let w = network.predict_traffic_us(*messages, *bytes);
                flow.set_undirected_capacity(k, IccGraph::capacity_of(w));
                weights[k] = w;
            }

            let warm_from = if col == 0 { &row_start } else { &previous };
            let cut = min_cut_warm(&mut flow, source, sink, warm_from.as_deref());
            check_cut_in_range(
                &flow,
                traffic.len(),
                cut.cut_value,
                format_args!("latency {latency_us} us, bandwidth {bandwidth_bps} B/s"),
            )?;
            if validate {
                let graph = IccGraph::build(profile, &network);
                let (mut cold_flow, s, t) = build_flow_network(&graph, constraints);
                let cold = min_cut(&mut cold_flow, s, t, MaxFlowAlgorithm::Dinic);
                if cold.cut_value != cut.cut_value || cold.source_side != cut.source_side {
                    return Err(ComError::App(format!(
                        "warm-started sweep diverged from cold solve at \
                         latency={latency_us}us bandwidth={bandwidth_bps}B/s: \
                         warm cut {} vs cold cut {}",
                        cut.cut_value, cold.cut_value
                    )));
                }
            }

            // Crossing-time sum in the same sorted-key order as
            // `IccGraph::crossing_time_us`, so warm and cold points carry
            // bit-identical predictions.
            let predicted_comm_us = traffic
                .iter()
                .zip(&weights)
                .filter(|(((a, b), _), _)| cut.source_side[*a] != cut.source_side[*b])
                .map(|(_, w)| w)
                .sum();
            points.push(make_point(
                latency_us,
                bandwidth_bps,
                cut.cut_value,
                predicted_comm_us,
                &base_graph.nodes,
                &cut.source_side,
            ));

            let snapshot = flow.snapshot_flows();
            if col == 0 {
                row_start = Some(snapshot.clone());
            }
            previous = Some(snapshot);
        }
    }
    Ok(SweepResult { points })
}

/// Assembles one grid point from a solved cut.
fn make_point(
    latency_us: f64,
    bandwidth_bps: f64,
    cut_value: u64,
    predicted_comm_us: f64,
    nodes: &[ClassificationId],
    source_side: &[bool],
) -> SweepPoint {
    let mut client = Vec::new();
    let mut server = Vec::new();
    for (node, class) in nodes.iter().enumerate() {
        if source_side[node] {
            client.push(*class);
        } else {
            server.push(*class);
        }
    }
    SweepPoint {
        latency_us,
        bandwidth_bps,
        cut_value,
        predicted_comm_us,
        client,
        server,
    }
}

/// The network model of one grid point: a jitter-free pure pipe so that
/// `NetworkProfile::exact` is monotone in latency and `1/bandwidth` — the
/// property the warm chain's feasibility rests on.
fn grid_model(latency_us: f64, bandwidth_bps: f64) -> NetworkModel {
    let mut model = NetworkModel::new("sweep-grid", latency_us, bandwidth_bps);
    model.jitter = 0.0;
    model
}

#[cfg(test)]
mod tests {
    use super::*;
    use coign_com::{Clsid, Iid};

    fn c(n: u32) -> ClassificationId {
        ClassificationId(n)
    }

    /// Root ↔ viewer: light. viewer ↔ reader: moderate. reader ↔ storage:
    /// heavy and byte-dominated — on slow links the reader follows storage
    /// to the server, on fast ones the cut moves.
    fn document_profile() -> IccProfile {
        let iid = Iid::from_name("IX");
        let mut p = IccProfile::new();
        for (id, name) in [(1, "Viewer"), (2, "Reader"), (3, "Storage")] {
            p.record_instance(c(id), Clsid::from_name(name));
        }
        for _ in 0..50 {
            p.record_message(ClassificationId::ROOT, c(1), iid, 0, 100);
        }
        for _ in 0..5 {
            p.record_message(c(1), c(2), iid, 0, 2_000);
        }
        for _ in 0..200 {
            p.record_message(c(2), c(3), iid, 0, 60_000);
        }
        p
    }

    fn constraints() -> Vec<Constraint> {
        vec![
            Constraint::PinClient(ClassificationId::ROOT),
            Constraint::PinServer(c(3)),
        ]
    }

    #[test]
    fn warm_and_cold_sweeps_agree_everywhere() {
        let profile = document_profile();
        let grid = SweepGrid::paper_networks();
        let warm = sweep_profile(&profile, &constraints(), &grid, SweepMode::Warm).unwrap();
        let cold = sweep_profile(&profile, &constraints(), &grid, SweepMode::Cold).unwrap();
        assert_eq!(warm.points.len(), 16);
        assert_eq!(warm, cold);
    }

    #[test]
    fn validated_sweep_passes() {
        let profile = document_profile();
        let grid = SweepGrid::paper_networks();
        let result =
            sweep_profile(&profile, &constraints(), &grid, SweepMode::WarmValidated).unwrap();
        // Pinned endpoints stay pinned at every point.
        for point in &result.points {
            assert!(point.client.contains(&ClassificationId::ROOT));
            assert!(point.server.contains(&c(3)));
        }
    }

    #[test]
    fn points_are_ordered_capacity_monotone() {
        let profile = document_profile();
        let grid = SweepGrid {
            latencies_us: vec![1_000.0, 20.0],
            bandwidths_bps: vec![16e3, 125e6],
        };
        let result = sweep_profile(&profile, &constraints(), &grid, SweepMode::Warm).unwrap();
        let order: Vec<(f64, f64)> = result
            .points
            .iter()
            .map(|p| (p.latency_us, p.bandwidth_bps))
            .collect();
        assert_eq!(
            order,
            vec![
                (20.0, 125e6),
                (20.0, 16e3),
                (1_000.0, 125e6),
                (1_000.0, 16e3),
            ]
        );
        // Cut values within a row grow with shrinking bandwidth, and the
        // first column grows down the rows.
        assert!(result.points[1].cut_value >= result.points[0].cut_value);
        assert!(result.points[2].cut_value >= result.points[0].cut_value);
    }

    #[test]
    fn partition_shifts_across_the_grid() {
        let profile = document_profile();
        let grid = SweepGrid::paper_networks();
        let result =
            sweep_profile(&profile, &constraints(), &grid, SweepMode::WarmValidated).unwrap();
        // The sweep exists to show the partition moving with the network;
        // the document profile flips at least once between SAN and ISDN.
        assert!(
            result.distinct_partitions() >= 2,
            "expected the partition to change across the grid"
        );
    }

    #[test]
    fn empty_grids_are_rejected() {
        let profile = document_profile();
        let grid = SweepGrid {
            latencies_us: vec![],
            bandwidths_bps: vec![1.0],
        };
        assert!(sweep_profile(&profile, &constraints(), &grid, SweepMode::Warm).is_err());
    }

    #[test]
    fn contradictions_fail_before_any_point() {
        let mut profile = document_profile();
        profile.record_non_remotable(c(1), c(3));
        let contradictory = vec![Constraint::PinClient(c(1)), Constraint::PinServer(c(3))];
        let grid = SweepGrid::paper_networks();
        let err = sweep_profile(&profile, &contradictory, &grid, SweepMode::Warm).unwrap_err();
        assert!(err.to_string().contains("contradictory"));
    }
}
