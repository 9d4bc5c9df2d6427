//! The profile analysis engine.
//!
//! Combines merged communication profiles, location constraints, and a
//! network profile into the concrete ICC graph, cuts it with the
//! lift-to-front minimum-cut algorithm, and emits the chosen
//! [`Distribution`]: a map from instance classifications to machines.

use crate::classifier::ClassificationId;
use crate::constraints::Constraint;
use crate::icc::{IccGraph, TIME_SCALE};
use crate::profile::IccProfile;
use coign_com::codec::{Decoder, Encoder};
use coign_com::{ComError, ComResult, MachineId};
use coign_dcom::NetworkProfile;
use coign_flow::{min_cut, FlowNetwork, MaxFlowAlgorithm, INFINITE};
use std::collections::HashMap;

/// A chosen two-machine distribution of an application.
#[derive(Debug, Clone, PartialEq)]
pub struct Distribution {
    /// Machine assignment per classification.
    pub placement: HashMap<ClassificationId, MachineId>,
    /// Predicted communication time crossing the network, microseconds.
    pub predicted_comm_us: f64,
    /// Network the distribution was optimized for.
    pub network_name: String,
}

impl Distribution {
    /// Number of classifications assigned to a machine.
    pub fn count_on(&self, machine: MachineId) -> usize {
        self.placement.values().filter(|&&m| m == machine).count()
    }

    /// Machine of a classification (client if unknown — the safe default
    /// for classifications never seen during profiling).
    pub fn machine_of(&self, class: ClassificationId) -> MachineId {
        self.placement
            .get(&class)
            .copied()
            .unwrap_or(MachineId::CLIENT)
    }

    /// Serializes the distribution.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_str(&self.network_name);
        e.put_f64(self.predicted_comm_us);
        let mut entries: Vec<(&ClassificationId, &MachineId)> = self.placement.iter().collect();
        entries.sort();
        e.put_seq(entries.len());
        for (class, machine) in entries {
            e.put_u32(class.0);
            e.put_u16(machine.0);
        }
        e.finish()
    }

    /// Deserializes a distribution.
    pub fn decode(bytes: &[u8]) -> ComResult<Self> {
        let mut d = Decoder::new(bytes);
        let network_name = d.get_str()?;
        let predicted_comm_us = d.get_f64()?;
        let n = d.get_seq(6)?;
        let mut placement = HashMap::with_capacity(n);
        for _ in 0..n {
            let class = ClassificationId(d.get_u32()?);
            let machine = MachineId(d.get_u16()?);
            placement.insert(class, machine);
        }
        Ok(Distribution {
            placement,
            predicted_comm_us,
            network_name,
        })
    }
}

/// Runs the analysis engine: profile + network + constraints → distribution.
///
/// The flow network has one node per classification plus a source (the
/// client) and sink (the server). Constraint and non-remotable edges carry
/// infinite capacity; communication edges carry their predicted time. The
/// minimum cut is computed with the requested algorithm (the paper's choice
/// is [`MaxFlowAlgorithm::LiftToFront`]).
///
/// Fails with [`ComError::App`] if constraints are contradictory (e.g. a
/// GUI component connected to a storage component through a non-remotable
/// interface). Contradictions are caught by a satisfiability pre-check
/// over the colocation closure ([`crate::lint::satisfiability`]) *before*
/// any flow network is built — min-cut never runs on an unsatisfiable
/// constraint set. The infinite-cut check after the cut remains as a
/// defense-in-depth invariant.
///
/// # Examples
///
/// ```
/// use coign::analysis::analyze;
/// use coign::classifier::ClassificationId;
/// use coign::constraints::Constraint;
/// use coign::profile::IccProfile;
/// use coign_com::{Clsid, Iid, MachineId};
/// use coign_dcom::{NetworkModel, NetworkProfile};
/// use coign_flow::MaxFlowAlgorithm;
///
/// // A viewer chats with a pinned storage component.
/// let mut profile = IccProfile::new();
/// let (viewer, store) = (ClassificationId(1), ClassificationId(2));
/// profile.record_instance(viewer, Clsid::from_name("Viewer"));
/// profile.record_instance(store, Clsid::from_name("Store"));
/// for _ in 0..50 {
///     profile.record_message(viewer, store, Iid::from_name("IStore"), 0, 30_000);
/// }
/// let network = NetworkProfile::exact(&NetworkModel::ethernet_10baset());
/// let constraints = [
///     Constraint::PinClient(ClassificationId::ROOT),
///     Constraint::PinServer(store),
/// ];
/// let dist = analyze(&profile, &network, &constraints, MaxFlowAlgorithm::LiftToFront)
///     .unwrap();
/// // The chatty viewer follows the store to the server.
/// assert_eq!(dist.machine_of(viewer), MachineId::SERVER);
/// ```
pub fn analyze(
    profile: &IccProfile,
    network: &NetworkProfile,
    constraints: &[Constraint],
    algorithm: MaxFlowAlgorithm,
) -> ComResult<Distribution> {
    // Satisfiability pre-check: union the colocation constraints (explicit
    // plus non-remotable pairs) and look for a group pinned to both
    // machines. Every contradiction the min-cut would discover as an
    // infinite cut is caught here, without paying for a max-flow run.
    let mut sink = crate::lint::DiagnosticSink::new();
    let mut non_remotable: Vec<_> = profile.non_remotable.iter().copied().collect();
    non_remotable.sort();
    let label = |id: ClassificationId| id.to_string();
    if !crate::lint::satisfiability::check_constraints(
        constraints,
        &non_remotable,
        &label,
        &mut sink,
    ) {
        return Err(ComError::App(format!(
            "location constraints are contradictory\n{}",
            sink.render_human()
        )));
    }

    let graph = IccGraph::build(profile, network);
    let n = graph.node_count();
    let (mut flow, source, sink) = build_flow_network(&graph, constraints);

    let cut = min_cut(&mut flow, source, sink, algorithm);
    check_cut_in_range(
        &flow,
        graph.weights_us.len(),
        cut.cut_value,
        format_args!("network {}", network.network_name),
    )?;

    let mut placement = HashMap::with_capacity(n);
    for (node, class) in graph.nodes.iter().enumerate() {
        let machine = if cut.source_side[node] {
            MachineId::CLIENT
        } else {
            MachineId::SERVER
        };
        placement.insert(*class, machine);
    }
    let predicted_comm_us = graph.crossing_time_us(&cut.source_side[..n]);

    Ok(Distribution {
        placement,
        predicted_comm_us,
        network_name: graph.network_name,
    })
}

/// Rejects a minimum cut at or past the [`INFINITE`] sentinel, naming the
/// cause. `flow` is the network that was cut — its first `traffic_pairs`
/// undirected pairs are the communication edges, as every builder in this
/// crate lays them out — and `point` the network point it was
/// parameterized for.
///
/// A cut that large means one of two things, told apart (on this failure
/// path only) by what the communication edges carry in total. If that is
/// below the sentinel, the cut severs a constraint or non-remotable edge:
/// the constraints contradict each other, and the caller skipped the
/// satisfiability pre-check that reports that with `COIGN0xx` diagnostics.
/// Otherwise the traffic itself reaches the sentinel, where a constraint
/// edge can no longer be told from a communication edge.
pub(crate) fn check_cut_in_range(
    flow: &FlowNetwork,
    traffic_pairs: usize,
    cut_value: u64,
    point: std::fmt::Arguments<'_>,
) -> ComResult<()> {
    if cut_value < INFINITE {
        return Ok(());
    }
    let traffic: u128 = (0..traffic_pairs)
        .map(|pair| u128::from(flow.original(pair * 2)))
        .sum();
    Err(ComError::App(if traffic < u128::from(INFINITE) {
        format!(
            "location constraints are contradictory ({point}): the minimum cut severs an \
             infinite-capacity (constraint or non-remotable) edge"
        )
    } else {
        format!(
            "communication volume exceeds the solver's capacity range ({point}): the \
             communication edges carry {traffic} capacity units (1/{TIME_SCALE} us each), at \
             or past the uncuttable-edge sentinel {INFINITE}; the location constraints are \
             not at fault"
        )
    }))
}

/// Builds the flow network of a concrete ICC graph: one node per
/// classification plus a source (client) and sink (server), communication
/// edges at their time-derived capacities, constraint and non-remotable
/// edges at infinite capacity. Returns `(network, source, sink)`.
///
/// Edge *insertion order* is deterministic — communication edges in
/// `weights_us` (BTreeMap) order, then non-remotable pairs in sorted
/// order, then constraints in argument order — so two calls over graphs
/// built from the same profile yield index-compatible networks. The
/// warm-started sweep ([`crate::sweep`]) relies on this to replay a
/// previous grid point's flow snapshot onto the next point's network.
pub(crate) fn build_flow_network(
    graph: &IccGraph,
    constraints: &[Constraint],
) -> (FlowNetwork, usize, usize) {
    let n = graph.node_count();
    let source = n;
    let sink = n + 1;
    let mut flow = FlowNetwork::new(n + 2);

    for ((a, b), weight) in &graph.weights_us {
        flow.add_undirected(*a, *b, IccGraph::capacity_of(*weight));
    }
    let mut non_remotable: Vec<_> = graph.non_remotable.iter().copied().collect();
    non_remotable.sort_unstable();
    for (a, b) in non_remotable {
        flow.add_undirected(a, b, INFINITE);
    }
    for constraint in constraints {
        match constraint {
            Constraint::PinClient(class) => {
                if let Some(&node) = graph.index.get(class) {
                    flow.add_undirected(source, node, INFINITE);
                }
            }
            Constraint::PinServer(class) => {
                if let Some(&node) = graph.index.get(class) {
                    flow.add_undirected(node, sink, INFINITE);
                }
            }
            Constraint::Colocate(a, b) => {
                if let (Some(&na), Some(&nb)) = (graph.index.get(a), graph.index.get(b)) {
                    if na != nb {
                        flow.add_undirected(na, nb, INFINITE);
                    }
                }
            }
        }
    }
    (flow, source, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coign_com::{Clsid, Iid};
    use coign_dcom::NetworkModel;

    fn c(n: u32) -> ClassificationId {
        ClassificationId(n)
    }

    fn network() -> NetworkProfile {
        NetworkProfile::exact(&NetworkModel::ethernet_10baset())
    }

    /// Root ↔ viewer(1): light. viewer(1) ↔ reader(2): light.
    /// reader(2) ↔ storage(3): heavy. Storage pinned to server.
    fn document_profile() -> IccProfile {
        let iid = Iid::from_name("IX");
        let mut p = IccProfile::new();
        for (id, name) in [(1, "Viewer"), (2, "Reader"), (3, "Storage")] {
            p.record_instance(c(id), Clsid::from_name(name));
        }
        // The user chats constantly with the viewer (GUI traffic)...
        for _ in 0..50 {
            p.record_message(ClassificationId::ROOT, c(1), iid, 0, 100);
        }
        // ...the viewer asks the reader for the document once...
        p.record_message(c(1), c(2), iid, 0, 2_000);
        // ...and the reader hammers storage.
        for _ in 0..200 {
            p.record_message(c(2), c(3), iid, 0, 60_000);
        }
        p
    }

    #[test]
    fn heavy_talkers_follow_their_pinned_peers() {
        let profile = document_profile();
        let constraints = vec![
            Constraint::PinClient(ClassificationId::ROOT),
            Constraint::PinServer(c(3)),
        ];
        let dist = analyze(
            &profile,
            &network(),
            &constraints,
            MaxFlowAlgorithm::LiftToFront,
        )
        .unwrap();
        // The reader chats constantly with storage → joins it on the server.
        assert_eq!(dist.machine_of(c(3)), MachineId::SERVER);
        assert_eq!(dist.machine_of(c(2)), MachineId::SERVER);
        // The viewer talks lightly → stays with the root on the client.
        assert_eq!(dist.machine_of(c(1)), MachineId::CLIENT);
        assert_eq!(dist.machine_of(ClassificationId::ROOT), MachineId::CLIENT);
        // Predicted cost is the viewer→reader link only.
        assert!(dist.predicted_comm_us > 0.0);
        let net = network();
        let full = IccGraph::build(&profile, &net).total_time_us();
        assert!(dist.predicted_comm_us < full / 10.0);
    }

    #[test]
    fn all_algorithms_choose_equal_cost_distributions() {
        let profile = document_profile();
        let constraints = vec![
            Constraint::PinClient(ClassificationId::ROOT),
            Constraint::PinServer(c(3)),
        ];
        let costs: Vec<f64> = MaxFlowAlgorithm::ALL
            .iter()
            .map(|&alg| {
                analyze(&profile, &network(), &constraints, alg)
                    .unwrap()
                    .predicted_comm_us
            })
            .collect();
        for w in costs.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-6);
        }
    }

    #[test]
    fn non_remotable_interfaces_force_colocation() {
        let mut profile = document_profile();
        // Viewer and reader share memory: they cannot be split.
        profile.record_non_remotable(c(1), c(2));
        let constraints = vec![
            Constraint::PinClient(ClassificationId::ROOT),
            Constraint::PinServer(c(3)),
        ];
        let dist = analyze(
            &profile,
            &network(),
            &constraints,
            MaxFlowAlgorithm::LiftToFront,
        )
        .unwrap();
        assert_eq!(dist.machine_of(c(1)), dist.machine_of(c(2)));
    }

    #[test]
    fn contradictory_constraints_are_detected() {
        let mut profile = document_profile();
        profile.record_non_remotable(c(1), c(3));
        let constraints = vec![Constraint::PinClient(c(1)), Constraint::PinServer(c(3))];
        let err = analyze(
            &profile,
            &network(),
            &constraints,
            MaxFlowAlgorithm::LiftToFront,
        )
        .unwrap_err();
        assert!(matches!(err, ComError::App(_)));
    }

    #[test]
    fn contradictions_never_invoke_min_cut() {
        // The satisfiability pre-check rejects the constraint set before a
        // flow network is ever built; the (thread-local) min-cut invocation
        // counter proves the solver did not run.
        let mut profile = document_profile();
        profile.record_non_remotable(c(1), c(3));
        let constraints = vec![Constraint::PinClient(c(1)), Constraint::PinServer(c(3))];
        let before = coign_flow::min_cut_invocations();
        let err = analyze(
            &profile,
            &network(),
            &constraints,
            MaxFlowAlgorithm::LiftToFront,
        )
        .unwrap_err();
        assert_eq!(coign_flow::min_cut_invocations(), before);
        let ComError::App(detail) = err else {
            panic!("expected App error");
        };
        assert!(detail.contains("COIGN020"), "{detail}");
    }

    #[test]
    fn capacity_overflow_is_not_reported_as_a_contradiction() {
        // Two classifications, satisfiably pinned apart, whose single edge
        // alone outweighs the uncuttable-edge sentinel: the cut must sever
        // it, and every solver entry point must name the real cause — also
        // when the edge's weight saturates `u64`, which used to overflow
        // the solvers' residual arithmetic.
        for bytes in [1 << 50, u64::MAX / 2] {
            let mut profile = IccProfile::new();
            profile.record_instance(c(1), Clsid::from_name("Viewer"));
            profile.record_instance(c(2), Clsid::from_name("Storage"));
            profile.record_message(c(1), c(2), Iid::from_name("IX"), 0, bytes);
            let constraints = vec![Constraint::PinClient(c(1)), Constraint::PinServer(c(2))];
            let graph = IccGraph::build(&profile, &network());
            assert_eq!(IccGraph::capacity_of(graph.total_time_us()), INFINITE);

            let mut errors: Vec<ComError> = MaxFlowAlgorithm::ALL
                .iter()
                .map(|&alg| analyze(&profile, &network(), &constraints, alg).unwrap_err())
                .collect();
            errors.push(
                crate::sweep::sweep_profile(
                    &profile,
                    &constraints,
                    &crate::sweep::SweepGrid::paper_networks(),
                    crate::sweep::SweepMode::Warm,
                )
                .unwrap_err(),
            );
            errors.push(
                crate::recovery::RecoverySolver::new(&graph, &constraints)
                    .solve(None)
                    .unwrap_err(),
            );
            for err in errors {
                let detail = err.to_string();
                assert!(
                    detail.contains("exceeds the solver's capacity range"),
                    "{bytes} bytes: {detail}"
                );
                assert!(!detail.contains("contradictory"), "{bytes} bytes: {detail}");
            }
        }
    }

    #[test]
    fn colocate_constraint_binds_pairs() {
        let profile = document_profile();
        let constraints = vec![
            Constraint::PinClient(ClassificationId::ROOT),
            Constraint::PinServer(c(3)),
            // Tie the viewer to storage explicitly.
            Constraint::Colocate(c(1), c(3)),
        ];
        let dist = analyze(
            &profile,
            &network(),
            &constraints,
            MaxFlowAlgorithm::LiftToFront,
        )
        .unwrap();
        assert_eq!(dist.machine_of(c(1)), MachineId::SERVER);
    }

    #[test]
    fn unconstrained_profile_keeps_everything_on_client() {
        // With only the ROOT pinned, splitting anything would cost > 0, so
        // the min cut keeps the application whole.
        let profile = document_profile();
        let constraints = vec![Constraint::PinClient(ClassificationId::ROOT)];
        let dist = analyze(
            &profile,
            &network(),
            &constraints,
            MaxFlowAlgorithm::LiftToFront,
        )
        .unwrap();
        assert_eq!(dist.count_on(MachineId::SERVER), 0);
        assert_eq!(dist.predicted_comm_us, 0.0);
    }

    #[test]
    fn distribution_roundtrips_through_codec() {
        let profile = document_profile();
        let constraints = vec![
            Constraint::PinClient(ClassificationId::ROOT),
            Constraint::PinServer(c(3)),
        ];
        let dist = analyze(
            &profile,
            &network(),
            &constraints,
            MaxFlowAlgorithm::LiftToFront,
        )
        .unwrap();
        let back = Distribution::decode(&dist.encode()).unwrap();
        assert_eq!(back, dist);
    }
}
