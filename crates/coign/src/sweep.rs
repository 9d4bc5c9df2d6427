//! Partition sweeps across a grid of network conditions.
//!
//! The paper's motivating observation is that the best distribution of an
//! application *changes with the network*: a cut tuned for a SAN is wrong
//! for ISDN. Answering "where does the partition flip?" means solving the
//! same min-cut over a whole grid of latency/bandwidth points, whose edge
//! capacities are `α·messages + β·bytes` with `α = latency + overhead/bw`
//! and `β = 1/bw`.
//!
//! Every mode solves the network `analysis::Contracted` from the graph: pinned
//! and colocated classifications merged into the terminals and into one
//! node per group, so the solver never floods the infinite edges the cut
//! cannot separate anyway.
//!
//! The warm sweep exploits that the flow network's *topology* is
//! network-independent — node order, edge keys, and the contraction depend
//! only on the profile — so it is built once and only its
//! communication-edge capacities are rewritten per point
//! ([`coign_flow::FlowNetwork::set_undirected_capacity`]) from the
//! network-independent `(messages, bytes)` table the graph build keeps,
//! skipping the per-point graph rebuild entirely. Each point is then
//! solved from zero flow with lift-to-front: starting from the previous
//! point's flow saves too few pushes to pay for re-installing it (see
//! DESIGN.md). Warm or cold, the residual-reachability cut extraction
//! returns the *unique minimal source side* of the min cut, so placements
//! are identical —
//! [`SweepMode::WarmValidated`] proves it against a cold Dinic solve on an
//! independently rebuilt, uncontracted network at every point.

use crate::analysis::{
    build_flow_network, check_cut_in_range, contradictory, cut_graph, traffic_capacity, Contracted,
};
use crate::application::Application;
use crate::classifier::ClassificationId;
use crate::constraints::Constraint;
use crate::icc::IccGraph;
use crate::profile::IccProfile;
use crate::runtime::checked_constraints;
use coign_com::{ComError, ComResult};
use coign_dcom::{NetworkModel, NetworkProfile};
use coign_flow::{min_cut, MaxFlowAlgorithm};

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
    /// Build the flow network once and re-parameterize its capacities per
    /// point, solving each point with lift-to-front.
    Warm,
    /// Solve every point from scratch — full graph rebuild plus a cold
    /// lift-to-front solve, exactly what running `coign analyze` once per
    /// network point would cost. The baseline the warm sweep is
    /// benchmarked against.
    Cold,
    /// The warm sweep, re-solving every point with Dinic as well — an
    /// independent algorithm on an independently rebuilt network, without
    /// the contraction — and fail if cut value or placement disagree.
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
    let constraints = checked_constraints(app, profile)?;
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
            let (cut_value, source_side) = cut_graph(
                &graph,
                constraints,
                MaxFlowAlgorithm::LiftToFront,
                format_args!("latency {latency_us} us, bandwidth {bandwidth_bps} B/s"),
            )?;
            points.push(make_point(
                latency_us,
                bandwidth_bps,
                cut_value,
                graph.crossing_time_us(&source_side[..graph.node_count()]),
                &graph.nodes,
                &source_side,
            ));
        }
    }
    Ok(SweepResult { points })
}

/// The warm path: the flow network's *topology* never changes across the
/// grid — only its communication-edge capacities do — so it is built once
/// and re-parameterized per point with
/// [`FlowNetwork::set_undirected_capacity`] before each lift-to-front
/// solve. With `validate`, every point is additionally re-solved (full
/// uncontracted rebuild, Dinic) and the sweep fails on any disagreement.
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
    let Ok(mut contracted) = Contracted::two_way(&base_graph, constraints) else {
        // A group pinned to both machines: the first point's cut is the
        // first to fail, as it would be on the full network.
        let (latency_us, bandwidth_bps) = (latencies[0], bandwidths[0]);
        return Err(contradictory(format_args!(
            "latency {latency_us} us, bandwidth {bandwidth_bps} B/s"
        )));
    };
    let (source, sink) = (contracted.terminal(0), contracted.terminal(1));

    // Per-pair traffic in graph-key order: the network-independent part
    // of each edge weight. The contracted network's pair `p` carries
    // communication edge `contracted.traffic_pair[p]` of this order.
    let traffic = &base_graph.traffic;
    let keys: Vec<(usize, usize)> = base_graph.weights_us.keys().copied().collect();

    let mut points = Vec::with_capacity(latencies.len() * bandwidths.len());
    let mut weights = vec![0.0f64; traffic.len()];

    for &latency_us in latencies {
        for &bandwidth_bps in bandwidths {
            let network = NetworkProfile::exact(&grid_model(latency_us, bandwidth_bps));
            for (w, stats) in weights.iter_mut().zip(traffic) {
                *w = network.predict_traffic_us(stats.messages, stats.bytes);
            }
            // Every pair of the contracted network is a communication edge,
            // so rewriting them all also clears the previous point's flow.
            let flow = &mut contracted.flow;
            for (pair, &k) in contracted.traffic_pair.iter().enumerate() {
                flow.set_undirected_capacity(pair, IccGraph::capacity_of(weights[k]));
            }

            let cut = min_cut(flow, source, sink, MaxFlowAlgorithm::LiftToFront);
            check_cut_in_range(
                cut.cut_value,
                || traffic_capacity(&weights),
                format_args!("latency {latency_us} us, bandwidth {bandwidth_bps} B/s"),
            )?;
            let source_side = contracted.lift_cut(&cut.source_side);
            if validate {
                let graph = IccGraph::build(profile, &network);
                let (mut full, s, t) = build_flow_network(&graph, constraints);
                let cold = min_cut(&mut full, s, t, MaxFlowAlgorithm::Dinic);
                if cold.cut_value != cut.cut_value || cold.source_side != source_side {
                    return Err(ComError::App(format!(
                        "warm sweep diverged from cold solve at \
                         latency={latency_us}us bandwidth={bandwidth_bps}B/s: \
                         warm cut {} vs cold cut {}",
                        cut.cut_value, cold.cut_value
                    )));
                }
            }

            // Crossing-time sum in the same sorted-key order as
            // `IccGraph::crossing_time_us`, so warm and cold points carry
            // bit-identical predictions.
            let predicted_comm_us = keys
                .iter()
                .zip(&weights)
                .filter(|((a, b), _)| source_side[*a] != source_side[*b])
                .map(|(_, w)| w)
                .sum();
            points.push(make_point(
                latency_us,
                bandwidth_bps,
                cut.cut_value,
                predicted_comm_us,
                &base_graph.nodes,
                &source_side,
            ));
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

/// The network model of one grid point: a jitter-free pure pipe of the
/// given latency and bandwidth.
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

#[cfg(test)]
pub(crate) mod properties {
    use super::*;
    use crate::analysis::{build_flow_network, check_cut_in_range, cut_graph, traffic_capacity};
    use coign_com::{Clsid, Iid};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    pub(crate) const CASES: u64 = 1_000;

    fn c(n: u32) -> ClassificationId {
        ClassificationId(n)
    }

    /// A seeded profile and constraint set over up to 24 classifications:
    /// random traffic with some classifications left isolated, client and
    /// server pins, colocation chains, non-remotable pairs, traffic between
    /// the two pinned groups, constraints naming classes the profile never
    /// saw, and — now and then — a group pinned to both machines.
    pub(crate) fn case(seed: u64) -> (IccProfile, Vec<Constraint>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..=24u32);
        let iid = Iid::from_name("IX");
        let mut profile = IccProfile::new();
        for id in 1..=n {
            profile.record_instance(c(id), Clsid::from_name(&format!("C{id}")));
        }
        let isolated = rng.gen_range(0..=n / 4);
        let talkers = n - isolated;
        let talk = |profile: &mut IccProfile, rng: &mut StdRng, a: u32, b: u32| {
            for _ in 0..rng.gen_range(1..6) {
                let bytes = rng.gen_range(0..40_000);
                profile.record_message(c(a), c(b), iid, 0, bytes);
            }
        };
        for _ in 0..rng.gen_range(0..=3 * n) {
            let (a, b) = (rng.gen_range(0..=talkers), rng.gen_range(0..=talkers));
            talk(&mut profile, &mut rng, a, b);
        }
        let mut constraints = Vec::new();
        let pin = |rng: &mut StdRng| c(rng.gen_range(0..=n + 2));
        for _ in 0..rng.gen_range(0..=n / 3 + 1) {
            constraints.push(Constraint::PinClient(pin(&mut rng)));
        }
        for _ in 0..rng.gen_range(0..=n / 3 + 1) {
            constraints.push(Constraint::PinServer(pin(&mut rng)));
        }
        // Traffic straight between a client-pinned and a server-pinned
        // classification, when both kinds exist.
        let client = constraints.iter().find_map(|ct| match ct {
            Constraint::PinClient(id) => Some(id.0),
            _ => None,
        });
        let server = constraints.iter().find_map(|ct| match ct {
            Constraint::PinServer(id) => Some(id.0),
            _ => None,
        });
        if let (Some(a), Some(b)) = (client, server) {
            talk(&mut profile, &mut rng, a, b);
        }
        // A colocation chain, usually short enough not to join the pins.
        let start = rng.gen_range(0..=n);
        for id in start..(start + rng.gen_range(0..4u32)).min(n) {
            constraints.push(Constraint::Colocate(c(id), c(id + 1)));
        }
        for _ in 0..rng.gen_range(0..3) {
            constraints.push(Constraint::Colocate(pin(&mut rng), pin(&mut rng)));
        }
        for _ in 0..rng.gen_range(0..3) {
            profile.record_non_remotable(pin(&mut rng), pin(&mut rng));
        }
        (profile, constraints)
    }

    /// The cut of `graph` on the full, uncontracted network, solved by
    /// Dinic, or the error that cut is rejected with.
    fn full_cut(
        graph: &IccGraph,
        constraints: &[Constraint],
        point: std::fmt::Arguments<'_>,
    ) -> Result<(u64, Vec<bool>), String> {
        let (mut flow, s, t) = build_flow_network(graph, constraints);
        let cut = min_cut(&mut flow, s, t, MaxFlowAlgorithm::Dinic);
        check_cut_in_range(
            cut.cut_value,
            || traffic_capacity(graph.weights_us.values()),
            point,
        )
        .map_err(|e| e.to_string())?;
        Ok((cut.cut_value, cut.source_side))
    }

    #[test]
    fn contracted_cuts_equal_full_dinic_cuts_at_every_grid_point() {
        let grid = SweepGrid::paper_networks();
        let (mut contradictions, mut split) = (0, 0);
        for seed in 0..CASES {
            let (profile, constraints) = case(seed);
            let mut first_error = None;
            for &latency_us in &grid.sorted_latencies() {
                for &bandwidth_bps in &grid.sorted_bandwidths() {
                    let network = NetworkProfile::exact(&grid_model(latency_us, bandwidth_bps));
                    let graph = IccGraph::build(&profile, &network);
                    let point =
                        || format!("latency {latency_us} us, bandwidth {bandwidth_bps} B/s");
                    let full = full_cut(&graph, &constraints, format_args!("{}", point()));
                    for algorithm in MaxFlowAlgorithm::ALL {
                        let contracted =
                            cut_graph(&graph, &constraints, algorithm, format_args!("{}", point()))
                                .map_err(|e| e.to_string());
                        assert_eq!(
                            contracted,
                            full,
                            "case {seed} at {}: {algorithm:?}",
                            point()
                        );
                    }
                    match full {
                        Err(e) => {
                            first_error.get_or_insert(e);
                        }
                        Ok((_, side)) => {
                            let nodes = &side[..graph.node_count()];
                            split += usize::from(nodes.contains(&true) && nodes.contains(&false));
                        }
                    }
                }
            }
            // Every sweep mode fails with the error of the full network's
            // first failing point, or agrees point by point.
            let modes = [SweepMode::Cold, SweepMode::Warm, SweepMode::WarmValidated];
            let sweeps = modes.map(|mode| sweep_profile(&profile, &constraints, &grid, mode));
            match first_error {
                Some(expected) => {
                    contradictions += 1;
                    assert!(
                        expected.contains("contradictory"),
                        "case {seed}: {expected}"
                    );
                    for sweep in &sweeps {
                        let err = sweep.as_ref().expect_err("the full cut failed");
                        assert_eq!(err.to_string(), expected, "case {seed}");
                    }
                }
                None => {
                    let cold = sweeps[0].as_ref().expect("cold sweep");
                    for sweep in &sweeps[1..] {
                        assert_eq!(sweep.as_ref().expect("warm sweep"), cold, "case {seed}");
                    }
                }
            }
        }
        // The generator reaches both outcomes often enough to mean something.
        assert!(
            contradictions > CASES / 20,
            "{contradictions} contradictions"
        );
        assert!(split > 1_000, "{split} points split the graph");
    }
}
