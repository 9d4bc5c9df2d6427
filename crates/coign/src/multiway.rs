//! Multiway partitioning — the paper's ≥3-machine future work.
//!
//! "The problem of partitioning applications across three or more machines
//! is provably NP-hard. Numerous heuristic algorithms exist for multi-way
//! graph cutting." (§2). This module applies the isolation-heuristic
//! multiway cut from `coign_flow::multiway` to real application profiles:
//! constraints pin classifications to named machines (GUI → client,
//! storage/database → the data server, programmer pins anywhere), and the
//! heuristic assigns everything else to minimize cross-machine
//! communication time.

use crate::analysis::Distribution;
use crate::classifier::ClassificationId;
use crate::icc::IccGraph;
use crate::lint::ReplicationReport;
use crate::profile::IccProfile;
use coign_com::{ClassRegistry, ComError, ComResult, MachineId};
use coign_dcom::NetworkProfile;
use coign_flow::{multiway_cut, refine_assignment, FlowNetwork, MaxFlowAlgorithm, INFINITE};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// A placement constraint for multiway partitioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MultiwayConstraint {
    /// The classification must run on the given machine.
    Pin(ClassificationId, MachineId),
    /// The two classifications must share a machine.
    Colocate(ClassificationId, ClassificationId),
}

/// Derives pins for a three-tier topology from static API analysis:
/// GUI importers to `client`, storage/database importers to `data_server`.
/// The application root is always pinned to the client.
pub fn derive_tier_constraints(
    profile: &IccProfile,
    registry: &ClassRegistry,
    client: MachineId,
    data_server: MachineId,
) -> Vec<MultiwayConstraint> {
    let mut constraints = vec![MultiwayConstraint::Pin(ClassificationId::ROOT, client)];
    let mut classes: Vec<_> = profile.class_of.iter().collect();
    classes.sort();
    for (class, clsid) in classes {
        let Ok(desc) = registry.get(*clsid) else {
            continue;
        };
        if desc.imports.uses_gui() {
            constraints.push(MultiwayConstraint::Pin(*class, client));
        }
        if desc.imports.uses_storage() {
            constraints.push(MultiwayConstraint::Pin(*class, data_server));
        }
    }
    constraints
}

/// Completes a constraint set so every one of `machine_count` machines has
/// an anchor. Tier derivation only pins the client (root + GUI) and the
/// data server (storage/database); middle machines of a ≥3-way topology
/// start empty. For each unanchored machine, in machine order, this pins
/// the still-unpinned classification carrying the most profiled traffic
/// (ties broken by classification id), modeling the operator assigning the
/// busiest free component to each additional server. Deterministic for a
/// given profile.
pub fn anchor_unpinned_machines(
    profile: &IccProfile,
    network: &NetworkProfile,
    constraints: &[MultiwayConstraint],
    machine_count: usize,
) -> ComResult<Vec<MultiwayConstraint>> {
    let graph = IccGraph::build(profile, network);
    let mut anchored = vec![false; machine_count];
    let mut pinned: HashSet<ClassificationId> = HashSet::new();
    for constraint in constraints {
        if let MultiwayConstraint::Pin(class, machine) = constraint {
            pinned.insert(*class);
            let m = machine.0 as usize;
            if m < machine_count && graph.index.contains_key(class) {
                anchored[m] = true;
            }
        }
    }

    // Total adjacent traffic per classification, heaviest first.
    let mut traffic: HashMap<usize, f64> = HashMap::new();
    for ((a, b), weight) in &graph.weights_us {
        *traffic.entry(*a).or_default() += weight;
        *traffic.entry(*b).or_default() += weight;
    }
    let mut candidates: Vec<(ClassificationId, f64)> = graph
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, class)| **class != ClassificationId::ROOT && !pinned.contains(class))
        .map(|(node, class)| (*class, traffic.get(&node).copied().unwrap_or(0.0)))
        .collect();
    candidates.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });

    let mut extra = Vec::new();
    let mut next = candidates.into_iter();
    for (m, anchored) in anchored.iter().enumerate() {
        if *anchored {
            continue;
        }
        let Some((class, _)) = next.next() else {
            return Err(ComError::App(format!(
                "cannot anchor machine {}: no free classification left to pin",
                MachineId(m as u16)
            )));
        };
        extra.push(MultiwayConstraint::Pin(class, MachineId(m as u16)));
    }
    Ok(extra)
}

/// Classifications that may legally be duplicated onto extra machines —
/// the placement-side form of the lint stages' replication-legality
/// verdicts ([`crate::lint::analyze_replication`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplicationPlan {
    /// Replicable classifications, sorted and deduplicated.
    pub replicable: Vec<ClassificationId>,
}

impl ReplicationPlan {
    /// A plan permitting no replication (the sound default).
    pub fn empty() -> Self {
        ReplicationPlan::default()
    }

    /// Maps the lint verdicts (class *names*) onto the profile's
    /// classifications. A classification is replicable only when the
    /// profile knows its class and the report proved that class immutable.
    pub fn from_report(
        report: &ReplicationReport,
        profile: &IccProfile,
        registry: &ClassRegistry,
    ) -> Self {
        let mut replicable: Vec<ClassificationId> = profile
            .class_of
            .iter()
            .filter(|(_, clsid)| {
                registry
                    .get(**clsid)
                    .is_ok_and(|desc| report.is_replicable(&desc.name))
            })
            .map(|(class, _)| *class)
            .collect();
        replicable.sort();
        replicable.dedup();
        ReplicationPlan { replicable }
    }

    /// True when the plan allows replicating the classification.
    pub fn allows(&self, class: ClassificationId) -> bool {
        self.replicable.binary_search(&class).is_ok()
    }
}

/// One replica chosen by the greedy marginal-gain pass: a read-only copy of
/// `class` placed on `machine` in addition to the class's home machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Replica {
    /// The replicated classification.
    pub class: ClassificationId,
    /// The extra machine receiving a copy.
    pub machine: MachineId,
    /// Cross-machine communication time the copy absorbs, microseconds.
    pub gain_us: f64,
}

/// A multiway placement: the refined home assignment plus any replicas.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiwayPlacement {
    /// Home-machine assignment (identical with and without replication —
    /// replicas are *additional* copies, the authoritative home never
    /// moves).
    pub distribution: Distribution,
    /// Cut cost of the raw isolation-heuristic assignment, microseconds,
    /// before greedy refinement.
    pub heuristic_cut_us: f64,
    /// Replicas chosen by the greedy pass (empty when the plan permits
    /// none). Sorted by classification, then machine.
    pub replicas: Vec<Replica>,
    /// Predicted cross-machine communication after replicas serve their
    /// machine-local traffic, microseconds.
    pub replicated_comm_us: f64,
}

impl MultiwayPlacement {
    /// Total modeled communication time absorbed by replicas, microseconds.
    pub fn replication_gain_us(&self) -> f64 {
        self.replicas.iter().map(|r| r.gain_us).sum()
    }
}

/// Partitions a profile across `machine_count` machines.
///
/// Builds the concrete ICC graph, adds one terminal node per machine wired
/// to its pinned classifications with infinite edges, runs the isolation
/// heuristic (within `2 − 2/k` of the optimal multiway cut), and refines
/// the result with deterministic single-node moves
/// ([`coign_flow::refine_assignment`]).
///
/// Every machine must pin at least one classification (a terminal with no
/// pull would trivially attract nothing); the client terminal always has
/// the application root.
pub fn analyze_multiway(
    profile: &IccProfile,
    network: &NetworkProfile,
    constraints: &[MultiwayConstraint],
    machine_count: usize,
) -> ComResult<Distribution> {
    analyze_multiway_with_replication(
        profile,
        network,
        constraints,
        machine_count,
        &ReplicationPlan::empty(),
    )
    .map(|placement| placement.distribution)
}

/// [`analyze_multiway`] plus component replication: classifications the
/// `plan` proves legal are duplicated onto additional machines whenever the
/// copy *strictly* reduces modeled cut traffic (greedy marginal gain over
/// the refined cut). With an empty plan the result carries no replicas and
/// the distribution is identical to [`analyze_multiway`]'s.
pub fn analyze_multiway_with_replication(
    profile: &IccProfile,
    network: &NetworkProfile,
    constraints: &[MultiwayConstraint],
    machine_count: usize,
    plan: &ReplicationPlan,
) -> ComResult<MultiwayPlacement> {
    if machine_count < 2 {
        return Err(ComError::App(
            "multiway analysis needs at least two machines".to_string(),
        ));
    }
    let graph = IccGraph::build(profile, network);
    let n = graph.node_count();
    let mut flow = FlowNetwork::new(n + machine_count);
    for ((a, b), weight) in &graph.weights_us {
        flow.add_undirected(*a, *b, IccGraph::capacity_of(*weight));
    }
    // Nodes touched by an infinite-capacity edge (constraints or
    // non-remotable pairs) must never move or replicate.
    let mut constrained: HashSet<usize> = HashSet::new();
    for (a, b) in &graph.non_remotable {
        flow.add_undirected(*a, *b, INFINITE);
        constrained.insert(*a);
        constrained.insert(*b);
    }

    // Terminal node for machine m is n + m.
    let mut pinned_machines = vec![false; machine_count];
    for constraint in constraints {
        match constraint {
            MultiwayConstraint::Pin(class, machine) => {
                let m = machine.0 as usize;
                if m >= machine_count {
                    return Err(ComError::App(format!(
                        "constraint pins {class} to {machine}, outside the \
                         {machine_count}-machine topology"
                    )));
                }
                if let Some(&node) = graph.index.get(class) {
                    flow.add_undirected(node, n + m, INFINITE);
                    pinned_machines[m] = true;
                    constrained.insert(node);
                }
            }
            MultiwayConstraint::Colocate(a, b) => {
                if let (Some(&na), Some(&nb)) = (graph.index.get(a), graph.index.get(b)) {
                    if na != nb {
                        flow.add_undirected(na, nb, INFINITE);
                        constrained.insert(na);
                        constrained.insert(nb);
                    }
                }
            }
        }
    }
    if let Some(empty) = pinned_machines.iter().position(|p| !p) {
        return Err(ComError::App(format!(
            "machine {} has no pinned classification; every machine needs an anchor",
            MachineId(empty as u16)
        )));
    }

    let terminals: Vec<usize> = (0..machine_count).map(|m| n + m).collect();
    let cut = multiway_cut(&flow, &terminals, MaxFlowAlgorithm::Dinic);

    // A severed infinite edge means contradictory constraints.
    if cut.cut_value >= INFINITE {
        return Err(ComError::App(
            "multiway constraints are contradictory: the cut severs an \
             infinite-capacity edge"
                .to_string(),
        ));
    }

    // Heuristic cut cost (in modeled microseconds) before refinement.
    let mut assignment = cut.assignment;
    let heuristic_cut_us = predicted_comm_us(&graph, &assignment);

    // Exact local refinement: free nodes (no infinite incident edge) may
    // hop to the machine holding most of their traffic.
    let movable: Vec<bool> = (0..flow.node_count())
        .map(|node| node < n && !constrained.contains(&node))
        .collect();
    refine_assignment(&flow, &mut assignment, &movable, machine_count);
    let predicted = predicted_comm_us(&graph, &assignment);

    let replicas = plan_replicas(&graph, &assignment, machine_count, plan, &constrained);
    let gain: f64 = replicas.iter().map(|r| r.gain_us).sum();

    let mut placement = HashMap::with_capacity(n);
    for (node, class) in graph.nodes.iter().enumerate() {
        placement.insert(*class, MachineId(assignment[node] as u16));
    }
    Ok(MultiwayPlacement {
        distribution: Distribution {
            placement,
            predicted_comm_us: predicted,
            network_name: graph.network_name.clone(),
        },
        heuristic_cut_us,
        replicas,
        replicated_comm_us: predicted - gain,
    })
}

/// Predicted cross-machine communication of an assignment, microseconds.
/// Deterministic: iterates the ordered weight map.
fn predicted_comm_us(graph: &IccGraph, assignment: &[usize]) -> f64 {
    graph
        .weights_us
        .iter()
        .filter(|((a, b), _)| assignment[*a] != assignment[*b])
        .map(|(_, w)| w)
        .sum()
}

/// Greedy marginal-gain replica selection. A replicable, unconstrained
/// classification gets a copy on every machine whose local traffic with it
/// is strictly positive — the copy serves that traffic locally, so each
/// chosen replica strictly reduces modeled cut cost. Replica gains are
/// independent (copies never talk to each other), so the greedy pass is
/// exhaustive rather than iterative.
fn plan_replicas(
    graph: &IccGraph,
    assignment: &[usize],
    machine_count: usize,
    plan: &ReplicationPlan,
    constrained: &HashSet<usize>,
) -> Vec<Replica> {
    let mut replicas = Vec::new();
    for class in &plan.replicable {
        if *class == ClassificationId::ROOT {
            continue;
        }
        let Some(&node) = graph.index.get(class) else {
            continue;
        };
        if constrained.contains(&node) {
            continue;
        }
        let home = assignment[node];
        // Traffic the class exchanges with each machine.
        let mut pull = vec![0.0f64; machine_count];
        for ((a, b), weight) in &graph.weights_us {
            let other = if *a == node {
                *b
            } else if *b == node {
                *a
            } else {
                continue;
            };
            pull[assignment[other]] += weight;
        }
        for (machine, gain) in pull.iter().enumerate() {
            if machine != home && *gain > 0.0 {
                replicas.push(Replica {
                    class: *class,
                    machine: MachineId(machine as u16),
                    gain_us: *gain,
                });
            }
        }
    }
    replicas
}

/// Re-runs the greedy replica selection for an *existing* distribution —
/// the recovery path's "replication re-run over survivors". The home
/// assignment is taken from the distribution as-is (homes never move
/// here); non-remotable classifications stay unconstrained-copy-free as
/// in [`analyze_multiway_with_replication`]; and no replica lands on a
/// machine in `dead`. Deterministic for a given profile and distribution.
pub fn replicate_for_distribution(
    profile: &IccProfile,
    network: &NetworkProfile,
    distribution: &Distribution,
    machine_count: usize,
    plan: &ReplicationPlan,
    dead: &[MachineId],
) -> Vec<Replica> {
    let graph = IccGraph::build(profile, network);
    let assignment: Vec<usize> = graph
        .nodes
        .iter()
        .map(|class| distribution.machine_of(*class).0 as usize)
        .collect();
    let mut constrained: HashSet<usize> = HashSet::new();
    for (a, b) in &graph.non_remotable {
        constrained.insert(*a);
        constrained.insert(*b);
    }
    plan_replicas(&graph, &assignment, machine_count, plan, &constrained)
        .into_iter()
        .filter(|r| !dead.contains(&r.machine))
        .collect()
}

/// Derives the replica routing table for a realized distribution from
/// the stage-4/5 lint verdicts (`report`, from
/// [`crate::lint::analyze_replication`]): the classes the lints prove
/// immutable are copied wherever a copy pays
/// ([`replicate_for_distribution`]) and the router indexes the result
/// home-first. `None` when no class is provably replicable or no copy
/// strictly reduces modeled cut traffic.
pub fn derive_replica_router(
    report: &ReplicationReport,
    registry: &ClassRegistry,
    profile: &IccProfile,
    network: &NetworkProfile,
    distribution: &Distribution,
) -> Option<ReplicaRouter> {
    let plan = ReplicationPlan::from_report(report, profile, registry);
    let machines = distribution
        .placement
        .values()
        .map(|m| m.0 as usize + 1)
        .max()
        .unwrap_or(2)
        .max(2);
    let replicas = replicate_for_distribution(profile, network, distribution, machines, &plan, &[]);
    (!replicas.is_empty()).then(|| ReplicaRouter::new(distribution, &replicas))
}

/// What [`ReplicaRouter::drop_machine`] did to the copy sets when a
/// machine died.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplicaFailover {
    /// Classifications whose *home* died and were re-homed to their
    /// lowest-id surviving replica (class, new home). Sorted by class.
    pub rehomed: Vec<(ClassificationId, MachineId)>,
    /// Classifications that lost their last copy — only a re-solve can
    /// place these again. Sorted.
    pub orphaned: Vec<ClassificationId>,
    /// Replica copies (not homes) dropped with the machine.
    pub replicas_dropped: usize,
}

impl ReplicaFailover {
    /// True when every classification on the dead machine had a surviving
    /// copy — recovery needs no solve at all.
    pub fn is_complete(&self) -> bool {
        self.orphaned.is_empty()
    }
}

/// O(1) per-call replica routing: every classification's surviving copies
/// (home first), with deterministic nearest-surviving selection.
///
/// The router is the cheap-local-reaction half of replica-aware recovery:
/// when a machine dies, read-only traffic re-resolves to a surviving copy
/// without any solve — prefer the live home, else a copy on the *caller's*
/// machine (the call becomes local), else the lowest-id surviving machine.
/// All state is plain sorted maps, so identical call sequences route
/// identically on every shard.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplicaRouter {
    /// Copy machines per classification: home first, then replica
    /// machines in ascending id order.
    copies: BTreeMap<ClassificationId, Vec<MachineId>>,
}

impl ReplicaRouter {
    /// Builds a router from a home placement plus the replicas a
    /// placement pass chose (empty slice = no replication: every class
    /// has exactly its home copy).
    pub fn new(distribution: &Distribution, replicas: &[Replica]) -> Self {
        let mut copies: BTreeMap<ClassificationId, Vec<MachineId>> = distribution
            .placement
            .iter()
            .map(|(class, machine)| (*class, vec![*machine]))
            .collect();
        let mut sorted: Vec<&Replica> = replicas.iter().collect();
        sorted.sort_by_key(|r| (r.class, r.machine));
        for replica in sorted {
            let set = copies.entry(replica.class).or_default();
            if !set.contains(&replica.machine) {
                set.push(replica.machine);
            }
        }
        ReplicaRouter { copies }
    }

    /// True when no classification has more than its home copy.
    pub fn has_replicas(&self) -> bool {
        self.copies.values().any(|set| set.len() > 1)
    }

    /// Number of classifications that currently have at least one extra
    /// copy beyond their home.
    pub fn replicated_class_count(&self) -> usize {
        self.copies.values().filter(|set| set.len() > 1).count()
    }

    /// The classification's copies, home first (empty when unknown).
    pub fn copies_of(&self, class: ClassificationId) -> &[MachineId] {
        self.copies.get(&class).map_or(&[], Vec::as_slice)
    }

    /// Routes a call to `class` from `caller`, avoiding `dead` machines:
    /// the live home, else a surviving copy on the caller's own machine,
    /// else the lowest-id surviving copy. `None` when the class is
    /// unknown or every copy is dead.
    pub fn route(
        &self,
        class: ClassificationId,
        caller: MachineId,
        dead: &BTreeSet<MachineId>,
    ) -> Option<MachineId> {
        let copies = self.copies.get(&class)?;
        let home = *copies.first()?;
        if !dead.contains(&home) {
            return Some(home);
        }
        let mut best: Option<MachineId> = None;
        for &machine in &copies[1..] {
            if dead.contains(&machine) {
                continue;
            }
            if machine == caller {
                return Some(machine);
            }
            if best.is_none_or(|b| machine < b) {
                best = Some(machine);
            }
        }
        best
    }

    /// Removes every copy on `dead`: replica copies are dropped, and a
    /// classification whose *home* died is re-homed to its lowest-id
    /// surviving replica (or reported orphaned when none survives). The
    /// returned summary is what the recovery layer needs to decide
    /// between pure failover and a re-solve.
    pub fn drop_machine(&mut self, dead: MachineId) -> ReplicaFailover {
        let mut failover = ReplicaFailover::default();
        for (class, copies) in self.copies.iter_mut() {
            let home_died = copies.first() == Some(&dead);
            let before = copies.len();
            copies.retain(|m| *m != dead);
            let dropped = before - copies.len();
            if home_died {
                failover.replicas_dropped += dropped.saturating_sub(1);
                // Promote the lowest-id surviving replica to home.
                copies.sort();
                match copies.first() {
                    Some(&new_home) => failover.rehomed.push((*class, new_home)),
                    None => failover.orphaned.push(*class),
                }
            } else {
                failover.replicas_dropped += dropped;
            }
        }
        failover
    }

    /// The current home of a classification (`None` when orphaned or
    /// unknown).
    pub fn home_of(&self, class: ClassificationId) -> Option<MachineId> {
        self.copies.get(&class)?.first().copied()
    }

    /// Re-bases the router on a freshly solved placement — the re-solve
    /// half of replica-aware recovery. Homes are taken from `placement`;
    /// surviving replicas keep serving unless they sit on a dead machine
    /// or became redundant (co-located with the new home). Classes the
    /// new placement no longer mentions are dropped.
    pub fn rebase(
        &mut self,
        placement: &HashMap<ClassificationId, MachineId>,
        dead: &BTreeSet<MachineId>,
    ) {
        let mut rebased: BTreeMap<ClassificationId, Vec<MachineId>> = BTreeMap::new();
        for (class, &home) in placement {
            let mut copies = vec![home];
            if let Some(old) = self.copies.get(class) {
                for &machine in old.iter() {
                    if machine != home && !dead.contains(&machine) && !copies.contains(&machine) {
                        copies.push(machine);
                    }
                }
                copies[1..].sort();
            }
            rebased.insert(*class, copies);
        }
        self.copies = rebased;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coign_com::{Clsid, Iid};
    use coign_dcom::NetworkModel;

    fn c(n: u32) -> ClassificationId {
        ClassificationId(n)
    }

    const CLIENT: MachineId = MachineId(0);
    const MIDDLE: MachineId = MachineId(1);
    const DB: MachineId = MachineId(2);

    /// root ↔ form(1) heavy, form ↔ logic(2) light, logic ↔ store(3) heavy.
    fn tiered_profile() -> IccProfile {
        let iid = Iid::from_name("IX");
        let mut p = IccProfile::new();
        for (id, name) in [(1, "Form"), (2, "Logic"), (3, "Store")] {
            p.record_instance(c(id), Clsid::from_name(name));
        }
        for _ in 0..100 {
            p.record_message(ClassificationId::ROOT, c(1), iid, 0, 200);
        }
        p.record_message(c(1), c(2), iid, 0, 500);
        for _ in 0..100 {
            p.record_message(c(2), c(3), iid, 0, 8_000);
        }
        p
    }

    fn network() -> NetworkProfile {
        NetworkProfile::exact(&NetworkModel::ethernet_10baset())
    }

    #[test]
    fn three_way_cut_respects_affinities() {
        let profile = tiered_profile();
        let constraints = vec![
            MultiwayConstraint::Pin(ClassificationId::ROOT, CLIENT),
            MultiwayConstraint::Pin(c(2), MIDDLE),
            MultiwayConstraint::Pin(c(3), DB),
        ];
        let dist = analyze_multiway(&profile, &network(), &constraints, 3).unwrap();
        // The form follows the root (heavy edge); the store stays pinned;
        // with the store pinned to DB and logic to MIDDLE, their heavy edge
        // is the unavoidable cost.
        assert_eq!(dist.machine_of(c(1)), CLIENT);
        assert_eq!(dist.machine_of(c(2)), MIDDLE);
        assert_eq!(dist.machine_of(c(3)), DB);
        assert!(dist.predicted_comm_us > 0.0);
    }

    #[test]
    fn unpinned_heavy_talker_follows_its_peer() {
        let profile = tiered_profile();
        // Only pin root, middle anchor, and db anchor; classification 1
        // (form) is free and should join the client, 2 free→? pin only 3.
        let constraints = vec![
            MultiwayConstraint::Pin(ClassificationId::ROOT, CLIENT),
            MultiwayConstraint::Pin(c(2), MIDDLE),
            MultiwayConstraint::Pin(c(3), DB),
        ];
        let dist = analyze_multiway(&profile, &network(), &constraints, 3).unwrap();
        assert_eq!(dist.machine_of(c(1)), CLIENT);
    }

    #[test]
    fn colocate_binds_across_machines() {
        let profile = tiered_profile();
        let constraints = vec![
            MultiwayConstraint::Pin(ClassificationId::ROOT, CLIENT),
            MultiwayConstraint::Pin(c(2), MIDDLE),
            MultiwayConstraint::Pin(c(3), DB),
            // Tie the form to the logic.
            MultiwayConstraint::Colocate(c(1), c(2)),
        ];
        let dist = analyze_multiway(&profile, &network(), &constraints, 3).unwrap();
        assert_eq!(dist.machine_of(c(1)), dist.machine_of(c(2)));
    }

    #[test]
    fn unanchored_machine_is_rejected() {
        let profile = tiered_profile();
        let constraints = vec![
            MultiwayConstraint::Pin(ClassificationId::ROOT, CLIENT),
            MultiwayConstraint::Pin(c(3), DB),
        ];
        let err = analyze_multiway(&profile, &network(), &constraints, 3).unwrap_err();
        assert!(err.to_string().contains("no pinned classification"));
    }

    #[test]
    fn out_of_range_pin_is_rejected() {
        let profile = tiered_profile();
        let constraints = vec![
            MultiwayConstraint::Pin(ClassificationId::ROOT, CLIENT),
            MultiwayConstraint::Pin(c(2), MachineId(7)),
        ];
        assert!(analyze_multiway(&profile, &network(), &constraints, 3).is_err());
    }

    #[test]
    fn two_way_multiway_matches_exact_cut_cost() {
        // With k = 2 the isolation heuristic degenerates to one exact
        // min cut, so it must match the two-way analysis engine.
        let profile = tiered_profile();
        let constraints2 = vec![
            MultiwayConstraint::Pin(ClassificationId::ROOT, CLIENT),
            MultiwayConstraint::Pin(c(3), MachineId(1)),
        ];
        let multi = analyze_multiway(&profile, &network(), &constraints2, 2).unwrap();
        let exact = crate::analysis::analyze(
            &profile,
            &network(),
            &[
                crate::constraints::Constraint::PinClient(ClassificationId::ROOT),
                crate::constraints::Constraint::PinServer(c(3)),
            ],
            MaxFlowAlgorithm::LiftToFront,
        )
        .unwrap();
        assert!((multi.predicted_comm_us - exact.predicted_comm_us).abs() < 1e-6);
    }

    #[test]
    fn tier_constraints_derive_from_imports() {
        use coign_com::{ApiImports, ComRuntime};
        use std::sync::Arc;
        struct Nop;
        impl coign_com::ComObject for Nop {
            fn invoke(
                &self,
                _ctx: &coign_com::CallCtx<'_>,
                _iid: Iid,
                _method: u32,
                _msg: &mut coign_com::Message,
            ) -> ComResult<()> {
                Ok(())
            }
        }
        let rt = ComRuntime::single_machine();
        rt.registry()
            .register("Form", vec![], ApiImports::GUI, |_, _| Arc::new(Nop));
        rt.registry()
            .register("Store", vec![], ApiImports::DATABASE, |_, _| Arc::new(Nop));
        let profile = tiered_profile();
        let constraints = derive_tier_constraints(&profile, rt.registry(), CLIENT, DB);
        assert!(constraints.contains(&MultiwayConstraint::Pin(ClassificationId::ROOT, CLIENT)));
        assert!(constraints.contains(&MultiwayConstraint::Pin(c(1), CLIENT)));
        assert!(constraints.contains(&MultiwayConstraint::Pin(c(3), DB)));
    }

    /// root ↔ form(1) heavy on the client; dict(2) serves both the form and
    /// the store(3) on the database machine — the classic replication win.
    fn shared_dictionary_profile() -> IccProfile {
        let iid = Iid::from_name("IX");
        let mut p = IccProfile::new();
        for (id, name) in [(1, "Form"), (2, "Dict"), (3, "Store")] {
            p.record_instance(c(id), Clsid::from_name(name));
        }
        for _ in 0..100 {
            p.record_message(ClassificationId::ROOT, c(1), iid, 0, 200);
        }
        for _ in 0..40 {
            p.record_message(c(1), c(2), iid, 0, 1_000);
        }
        for _ in 0..60 {
            p.record_message(c(3), c(2), iid, 0, 1_000);
        }
        p
    }

    fn two_machine_anchors() -> Vec<MultiwayConstraint> {
        vec![
            MultiwayConstraint::Pin(ClassificationId::ROOT, CLIENT),
            MultiwayConstraint::Pin(c(3), MachineId(1)),
        ]
    }

    #[test]
    fn empty_plan_matches_plain_multiway_exactly() {
        let profile = shared_dictionary_profile();
        let constraints = two_machine_anchors();
        let plain = analyze_multiway(&profile, &network(), &constraints, 2).unwrap();
        let placed = analyze_multiway_with_replication(
            &profile,
            &network(),
            &constraints,
            2,
            &ReplicationPlan::empty(),
        )
        .unwrap();
        assert_eq!(placed.distribution, plain);
        assert!(placed.replicas.is_empty());
        assert!((placed.replicated_comm_us - plain.predicted_comm_us).abs() < 1e-9);
    }

    #[test]
    fn replicating_a_shared_dictionary_strictly_reduces_traffic() {
        let profile = shared_dictionary_profile();
        let constraints = two_machine_anchors();
        let plan = ReplicationPlan {
            replicable: vec![c(2)],
        };
        let placed =
            analyze_multiway_with_replication(&profile, &network(), &constraints, 2, &plan)
                .unwrap();
        // The dictionary homes with its heavier peer; the replica serves the
        // lighter side's traffic locally.
        assert_eq!(placed.replicas.len(), 1);
        let replica = placed.replicas[0];
        assert_eq!(replica.class, c(2));
        assert_ne!(replica.machine, placed.distribution.machine_of(c(2)));
        assert!(replica.gain_us > 0.0);
        assert!(placed.replicated_comm_us < placed.distribution.predicted_comm_us);
        assert!(
            (placed.replicated_comm_us + placed.replication_gain_us()
                - placed.distribution.predicted_comm_us)
                .abs()
                < 1e-9
        );
        // Replication never moves the home assignment.
        let plain = analyze_multiway(&profile, &network(), &constraints, 2).unwrap();
        assert_eq!(placed.distribution, plain);
    }

    #[test]
    fn pinned_and_root_classifications_never_replicate() {
        let profile = shared_dictionary_profile();
        let constraints = two_machine_anchors();
        // The store is pinned and the root is the user: both are named
        // replicable but neither may be copied.
        let plan = ReplicationPlan {
            replicable: vec![ClassificationId::ROOT, c(3)],
        };
        let placed =
            analyze_multiway_with_replication(&profile, &network(), &constraints, 2, &plan)
                .unwrap();
        assert!(placed.replicas.is_empty());
    }

    #[test]
    fn refinement_never_raises_the_heuristic_cut() {
        let profile = tiered_profile();
        let constraints = vec![
            MultiwayConstraint::Pin(ClassificationId::ROOT, CLIENT),
            MultiwayConstraint::Pin(c(2), MIDDLE),
            MultiwayConstraint::Pin(c(3), DB),
        ];
        let placed = analyze_multiway_with_replication(
            &profile,
            &network(),
            &constraints,
            3,
            &ReplicationPlan::empty(),
        )
        .unwrap();
        assert!(placed.distribution.predicted_comm_us <= placed.heuristic_cut_us + 1e-9);
    }

    #[test]
    fn anchoring_pins_the_heaviest_free_classification_to_middle_machines() {
        let profile = tiered_profile();
        let constraints = vec![
            MultiwayConstraint::Pin(ClassificationId::ROOT, CLIENT),
            MultiwayConstraint::Pin(c(3), DB),
        ];
        let extra = anchor_unpinned_machines(&profile, &network(), &constraints, 3).unwrap();
        // Only machine 1 lacks an anchor. The store (3) is pinned; of the
        // free classifications the logic (2) carries the heavy store edge.
        assert_eq!(extra, vec![MultiwayConstraint::Pin(c(2), MIDDLE)]);
        let mut all = constraints;
        all.extend(extra);
        assert!(analyze_multiway(&profile, &network(), &all, 3).is_ok());
    }

    #[test]
    fn anchoring_is_a_no_op_when_every_machine_is_pinned() {
        let profile = tiered_profile();
        let constraints = vec![
            MultiwayConstraint::Pin(ClassificationId::ROOT, CLIENT),
            MultiwayConstraint::Pin(c(2), MIDDLE),
            MultiwayConstraint::Pin(c(3), DB),
        ];
        let extra = anchor_unpinned_machines(&profile, &network(), &constraints, 3).unwrap();
        assert!(extra.is_empty());
    }

    #[test]
    fn anchoring_fails_when_machines_outnumber_free_classifications() {
        let profile = tiered_profile();
        let constraints = vec![MultiwayConstraint::Pin(ClassificationId::ROOT, CLIENT)];
        // Four nodes total (root + 3), three already spoken for by the
        // five remaining machines: not enough anchors to go around.
        let err = anchor_unpinned_machines(&profile, &network(), &constraints, 6).unwrap_err();
        assert!(err.to_string().contains("no free classification"));
    }

    fn router_fixture() -> ReplicaRouter {
        // Homes: 1→m0, 2→m1, 3→m2. Replicas: class 2 on m0 and m2.
        let mut placement = HashMap::new();
        placement.insert(c(1), MachineId(0));
        placement.insert(c(2), MachineId(1));
        placement.insert(c(3), MachineId(2));
        let distribution = Distribution {
            placement,
            predicted_comm_us: 0.0,
            network_name: "test".to_string(),
        };
        let replicas = [
            Replica {
                class: c(2),
                machine: MachineId(2),
                gain_us: 1.0,
            },
            Replica {
                class: c(2),
                machine: MachineId(0),
                gain_us: 2.0,
            },
        ];
        ReplicaRouter::new(&distribution, &replicas)
    }

    #[test]
    fn router_prefers_home_then_local_copy_then_lowest_id() {
        let router = router_fixture();
        assert!(router.has_replicas());
        assert_eq!(
            router.copies_of(c(2)),
            [MachineId(1), MachineId(0), MachineId(2)],
            "home first, then replicas ascending"
        );
        let none = BTreeSet::new();
        // Live home wins even when a local copy exists.
        assert_eq!(router.route(c(2), MachineId(0), &none), Some(MachineId(1)));
        let dead: BTreeSet<_> = [MachineId(1)].into();
        // Home dead: a copy on the caller's machine makes the call local.
        assert_eq!(router.route(c(2), MachineId(2), &dead), Some(MachineId(2)));
        // No local copy: lowest-id survivor.
        assert_eq!(router.route(c(2), MachineId(3), &dead), Some(MachineId(0)));
        // A class with only its home copy dies with its machine.
        assert_eq!(router.route(c(1), MachineId(2), &dead), Some(MachineId(0)));
        let dead0: BTreeSet<_> = [MachineId(0)].into();
        assert_eq!(router.route(c(1), MachineId(2), &dead0), None);
        // Unknown classes route nowhere.
        assert_eq!(router.route(c(9), MachineId(0), &none), None);
    }

    #[test]
    fn drop_machine_rehomes_replicated_classes_and_orphans_the_rest() {
        let mut router = router_fixture();
        // Machine 1 dies: class 2's home — re-homed to its lowest
        // surviving replica (m0); nothing else lived there.
        let failover = router.drop_machine(MachineId(1));
        assert_eq!(failover.rehomed, vec![(c(2), MachineId(0))]);
        assert!(failover.orphaned.is_empty());
        assert_eq!(failover.replicas_dropped, 0);
        assert!(failover.is_complete());
        assert_eq!(router.home_of(c(2)), Some(MachineId(0)));
        assert_eq!(router.copies_of(c(2)), [MachineId(0), MachineId(2)]);
        // Machine 2 dies next: class 2 loses a replica, class 3 — home
        // only, no copies — is orphaned.
        let failover = router.drop_machine(MachineId(2));
        assert_eq!(failover.rehomed, vec![]);
        assert_eq!(failover.orphaned, vec![c(3)]);
        assert_eq!(failover.replicas_dropped, 1);
        assert!(!failover.is_complete());
        assert_eq!(router.home_of(c(3)), None);
    }

    #[test]
    fn replicate_for_distribution_matches_the_placement_pass_and_skips_dead() {
        let profile = shared_dictionary_profile();
        let constraints = two_machine_anchors();
        let plan = ReplicationPlan {
            replicable: vec![c(2)],
        };
        let placed =
            analyze_multiway_with_replication(&profile, &network(), &constraints, 2, &plan)
                .unwrap();
        let rerun =
            replicate_for_distribution(&profile, &network(), &placed.distribution, 2, &plan, &[]);
        assert_eq!(rerun, placed.replicas, "re-run over all-alive == original");
        let replica_machine = placed.replicas[0].machine;
        let survivors_only = replicate_for_distribution(
            &profile,
            &network(),
            &placed.distribution,
            2,
            &plan,
            &[replica_machine],
        );
        assert!(
            survivors_only.is_empty(),
            "no replica may land on a dead machine"
        );
    }

    #[test]
    fn plan_from_report_maps_names_to_classifications() {
        use coign_com::{ApiImports, ComRuntime};
        use std::sync::Arc;
        struct Nop;
        impl coign_com::ComObject for Nop {
            fn invoke(
                &self,
                _ctx: &coign_com::CallCtx<'_>,
                _iid: Iid,
                _method: u32,
                _msg: &mut coign_com::Message,
            ) -> ComResult<()> {
                Ok(())
            }
        }
        let rt = ComRuntime::single_machine();
        for name in ["Form", "Dict", "Store"] {
            rt.registry()
                .register(name, vec![], ApiImports::NONE, |_, _| Arc::new(Nop));
        }
        let profile = shared_dictionary_profile();
        let report = crate::lint::ReplicationReport {
            replicable: vec!["Dict".to_string()],
            mutable_shared: vec![],
            holders: Default::default(),
        };
        let plan = ReplicationPlan::from_report(&report, &profile, rt.registry());
        assert_eq!(plan.replicable, vec![c(2)]);
        assert!(plan.allows(c(2)));
        assert!(!plan.allows(c(1)));
    }
}
