//! Deterministic fault-scenario harness.
//!
//! The fault layer is only useful if its schedules are exactly
//! reproducible: the simulated clock and the seeded fault RNG make every
//! drop, timeout, and fallback a pure function of `(jitter seed, fault
//! seed, fault plan)`. These tests pin the three acceptance behaviors:
//!
//! 1. same fault seed ⇒ byte-identical run report, twice in a row;
//! 2. a machine-death scenario completes via local fallback, with the
//!    fallback recorded in the report;
//! 3. a zero-fault plan produces a report identical to a run without the
//!    fault layer at all.
//!
//! It also pins the recovery solver's memo: a solve that repeats the
//! previous pin set answers from the last cut, and every answer equals a
//! fresh solver's cold one and, on the three paper applications, Dinic's
//! cut of the full network pinned as the recovery asks.

use coign::classifier::{ClassificationId, ClassifierKind, InstanceClassifier};
use coign::constraints::Constraint;
use coign::icc::IccGraph;
use coign::recovery::RecoverySolver;
use coign::runtime::{
    choose_distribution, derive_constraints, profile_scenario, profile_scenarios_observed,
    run_distributed, run_distributed_faulty,
};
use coign::{Application, Distribution, IccProfile};
use coign_apps::scenarios::app_by_name;
use coign_com::{ComError, MachineId};
use coign_dcom::{CallPolicy, FaultPlan, NetworkModel, NetworkProfile, TimeWindow};
use coign_flow::{min_cut, FlowNetwork, MaxFlowAlgorithm, INFINITE};
use coign_gen::{GenSize, GenSpec, GeneratedApp};
use std::collections::HashMap;
use std::sync::Arc;

const SEED: u64 = 7;

/// Profiles one octarine scenario and chooses its ethernet distribution.
fn prepared_octarine(
    scenario: &str,
) -> (
    Arc<dyn coign::Application>,
    Arc<InstanceClassifier>,
    Distribution,
) {
    let app = app_by_name("octarine").unwrap();
    let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
    let run = profile_scenario(app.as_ref(), scenario, &classifier).unwrap();
    let network = NetworkProfile::measure(&NetworkModel::ethernet_10baset(), 20, 99);
    let dist = choose_distribution(app.as_ref(), &run.profile, &network).unwrap();
    (app, classifier, dist)
}

/// A jitter-free policy so retry timings are exactly predictable.
fn strict_policy() -> CallPolicy {
    CallPolicy {
        timeout_us: 10_000,
        max_retries: 3,
        backoff_base_us: 10_000,
        backoff_multiplier: 2.0,
        backoff_jitter: 0.0,
    }
}

#[test]
fn same_fault_seed_reproduces_the_report_byte_for_byte() {
    let (app, classifier, dist) = prepared_octarine("o_oldtb3");
    let plan = FaultPlan::none().with_loss(0.05);
    let run = |fault_seed| {
        run_distributed_faulty(
            app.as_ref(),
            "o_oldtb3",
            &classifier,
            &dist,
            NetworkModel::ethernet_10baset(),
            SEED,
            plan.clone(),
            CallPolicy::default(),
            fault_seed,
        )
        .unwrap()
    };
    let first = run(11);
    let second = run(11);
    assert_eq!(first, second, "same fault seed must reproduce the report");
    assert_eq!(
        first.summary(),
        second.summary(),
        "rendered summaries must be byte-identical"
    );
    // The plan actually perturbed the wire (the test would be vacuous
    // otherwise) ...
    assert!(first.faults.retries > 0, "lossy wire should force retries");
    // ... and a different fault seed schedules different faults.
    let other = run(12);
    assert_ne!(first.faults, other.faults);
}

#[test]
fn machine_death_completes_via_recorded_local_fallback() {
    let (app, classifier, dist) = prepared_octarine("o_oldtb3");
    // The server never comes up at all.
    let plan = FaultPlan::none().with_machine_down(MachineId::SERVER, TimeWindow::ALWAYS);
    let report = run_distributed_faulty(
        app.as_ref(),
        "o_oldtb3",
        &classifier,
        &dist,
        NetworkModel::ethernet_10baset(),
        SEED,
        plan,
        strict_policy(),
        1,
    )
    .expect("scenario completes despite the dead server");
    // Every server-bound instantiation degraded to the client...
    assert!(report.faults.fallbacks > 0, "fallbacks must be recorded");
    assert!(report
        .instance_placements
        .iter()
        .all(|&(_, machine)| machine == MachineId::CLIENT));
    // ...so nothing ever crossed the wire.
    assert_eq!(report.stats.cross_machine_calls, 0);
    assert_eq!(report.stats.messages, 0);
    // The counters agree with the summary rendering CI diffs against.
    assert!(report
        .summary()
        .contains(&format!("fault_fallbacks={}", report.faults.fallbacks)));
}

#[test]
fn zero_fault_plan_is_identical_to_no_fault_layer() {
    let (app, classifier, dist) = prepared_octarine("o_oldtb3");
    let plain = run_distributed(
        app.as_ref(),
        "o_oldtb3",
        &classifier,
        &dist,
        NetworkModel::ethernet_10baset(),
        SEED,
    )
    .unwrap();
    let faultless = run_distributed_faulty(
        app.as_ref(),
        "o_oldtb3",
        &classifier,
        &dist,
        NetworkModel::ethernet_10baset(),
        SEED,
        FaultPlan::none(),
        CallPolicy::default(),
        // The fault seed must be irrelevant when no faults are scheduled.
        0xDEAD_BEEF,
    )
    .unwrap();
    assert_eq!(plain, faultless);
    assert!(faultless.faults.is_clean());
    assert_eq!(plain.summary(), faultless.summary());
}

#[test]
fn healed_partition_retries_then_succeeds_with_exact_timing() {
    let (app, classifier, dist) = prepared_octarine("o_oldtb3");
    // The link is severed for the first 30 ms of the run. With a 10 ms
    // timeout and 10 ms base backoff, the first cross-machine call probes
    // at t, t+20ms, t+40ms — the third probe lands after the partition
    // heals, so the run completes with exactly 2 recorded retries... per
    // blocked call; later calls happen after healing and are clean.
    let plan = FaultPlan::none().with_partition(
        MachineId::CLIENT,
        MachineId::SERVER,
        TimeWindow::new(0, 30_000),
    );
    let report = run_distributed_faulty(
        app.as_ref(),
        "o_oldtb3",
        &classifier,
        &dist,
        NetworkModel::ethernet_10baset(),
        SEED,
        plan,
        strict_policy(),
        1,
    )
    .expect("partition heals inside the retry budget");
    assert!(report.faults.timeouts > 0);
    assert!(report.faults.retries > 0);
    assert_eq!(report.faults.failed_calls, 0);
    assert_eq!(report.faults.fallbacks, 0);
    // Timeouts and backoff waits burned wall-clock but were not charged
    // as communication: every timeout and retry contributed its wait.
    assert!(
        report.faults.wasted_us >= report.faults.timeouts * 10_000 + report.faults.retries * 10_000
    );
    assert!(report.clock_us > report.stats.comm_us + report.stats.compute_us);
}

#[test]
fn unhealed_partition_surfaces_a_typed_error() {
    let (app, classifier, dist) = prepared_octarine("o_oldtb3");
    let plan =
        FaultPlan::none().with_partition(MachineId::CLIENT, MachineId::SERVER, TimeWindow::ALWAYS);
    let err = run_distributed_faulty(
        app.as_ref(),
        "o_oldtb3",
        &classifier,
        &dist,
        NetworkModel::ethernet_10baset(),
        SEED,
        plan,
        strict_policy(),
        1,
    )
    .expect_err("an unhealed partition must fail the scenario");
    assert!(
        matches!(err, ComError::Partitioned { .. }),
        "expected Partitioned, got {err:?}"
    );
}

#[test]
fn latency_spike_slows_the_run_without_changing_traffic() {
    let (app, classifier, dist) = prepared_octarine("o_oldtb3");
    let run = |plan: FaultPlan| {
        run_distributed_faulty(
            app.as_ref(),
            "o_oldtb3",
            &classifier,
            &dist,
            NetworkModel::ethernet_10baset(),
            SEED,
            plan,
            CallPolicy::default(),
            1,
        )
        .unwrap()
    };
    // Compare a 1× "spike" (fault path active, wire unchanged) against a
    // genuine 10× congestion episode covering the whole run.
    let calm = run(FaultPlan::none().with_spike(1.0, TimeWindow::ALWAYS));
    let spiked = run(FaultPlan::none().with_spike(10.0, TimeWindow::ALWAYS));
    assert_eq!(calm.stats.messages, spiked.stats.messages);
    assert_eq!(calm.stats.bytes, spiked.stats.bytes);
    assert!(
        spiked.stats.comm_us > calm.stats.comm_us * 9,
        "10× spike: {} vs {}",
        spiked.stats.comm_us,
        calm.stats.comm_us
    );
}

#[test]
fn parsed_plan_behaves_like_the_built_plan() {
    let (app, classifier, dist) = prepared_octarine("o_oldtb3");
    let built = FaultPlan::none().with_machine_down(MachineId::SERVER, TimeWindow::from(0));
    let parsed = FaultPlan::parse("down 1 0..\n").unwrap();
    let run = |plan: FaultPlan| {
        run_distributed_faulty(
            app.as_ref(),
            "o_oldtb3",
            &classifier,
            &dist,
            NetworkModel::ethernet_10baset(),
            SEED,
            plan,
            CallPolicy::default(),
            1,
        )
        .unwrap()
    };
    assert_eq!(run(built), run(parsed));
}

/// Runs the solve sequence `None, None, SERVER, SERVER, None` on one
/// solver and checks every answer against a freshly built solver's cold
/// answer for the same dead machine.
fn assert_repeated_solves_match_cold_ones(app: &dyn Application, profile: &IccProfile) {
    let graph = IccGraph::build(
        profile,
        &NetworkProfile::exact(&NetworkModel::ethernet_10baset()),
    );
    let constraints = derive_constraints(app, profile);
    let cold = |dead| {
        RecoverySolver::new(&graph, &constraints)
            .solve(dead)
            .unwrap()
    };
    let (base, dead_server) = (cold(None), cold(Some(MachineId::SERVER)));
    assert_ne!(base, dead_server, "the death must move something");
    let mut solver = RecoverySolver::new(&graph, &constraints);
    for (step, dead) in [
        None,
        None,
        Some(MachineId::SERVER),
        Some(MachineId::SERVER),
        None,
    ]
    .into_iter()
    .enumerate()
    {
        let expected = if dead.is_none() { &base } else { &dead_server };
        assert_eq!(
            &solver.solve(dead).unwrap(),
            expected,
            "solve {step} ({dead:?}) differs from a cold solve"
        );
    }
    assert_eq!(solver.cold_solves(), 1, "only the first solve is cold");
    assert_eq!(solver.warm_solves(), 4);
}

#[test]
fn repeated_pin_sets_answer_as_a_cold_solve_would() {
    let app = app_by_name("octarine").unwrap();
    let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
    let run = profile_scenario(app.as_ref(), "o_oldtb3", &classifier).unwrap();
    assert_repeated_solves_match_cold_ones(app.as_ref(), &run.profile);
    for seed in [3, 42] {
        let app = GeneratedApp::new(GenSpec::new(seed, GenSize::Small));
        let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
        let profile =
            profile_scenarios_observed(&app, &app.scenarios(), &classifier, None).unwrap();
        assert_repeated_solves_match_cold_ones(&app, &profile);
    }
}

/// Dinic's cut of the full, uncontracted flow network of `graph`:
/// communication edges at their capacities, non-remotable pairs and
/// `constraints` at [`INFINITE`].
fn dinic_placement(
    graph: &IccGraph,
    constraints: &[Constraint],
) -> HashMap<ClassificationId, MachineId> {
    let n = graph.node_count();
    let (source, sink) = (n, n + 1);
    let mut flow = FlowNetwork::new(n + 2);
    for (&(a, b), &weight) in &graph.weights_us {
        flow.add_undirected(a, b, IccGraph::capacity_of(weight));
    }
    for &(a, b) in &graph.non_remotable {
        flow.add_undirected(a, b, INFINITE);
    }
    let node = |class: &ClassificationId| graph.index.get(class).copied();
    for constraint in constraints {
        let pair = match constraint {
            Constraint::PinClient(class) => node(class).map(|v| (source, v)),
            Constraint::PinServer(class) => node(class).map(|v| (v, sink)),
            Constraint::Colocate(a, b) => node(a).zip(node(b)),
        };
        if let Some((a, b)) = pair {
            flow.add_undirected(a, b, INFINITE);
        }
    }
    let cut = min_cut(&mut flow, source, sink, MaxFlowAlgorithm::Dinic);
    assert!(cut.cut_value < INFINITE, "the constraints contradict");
    let machine = |client| {
        if client {
            MachineId::CLIENT
        } else {
            MachineId::SERVER
        }
    };
    let classes = graph.nodes.iter().zip(cut.source_side);
    classes
        .map(|(&class, client)| (class, machine(client)))
        .collect()
}

#[test]
fn recovery_answers_equal_dinic_cuts_on_the_paper_apps() {
    for (name, scenario) in [
        ("octarine", "o_oldtb3"),
        ("photodraw", "p_oldcur"),
        ("benefits", "b_vueone"),
    ] {
        let app = app_by_name(name).unwrap();
        let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
        let profile = profile_scenario(app.as_ref(), scenario, &classifier)
            .unwrap()
            .profile;
        let graph = IccGraph::build(
            &profile,
            &NetworkProfile::exact(&NetworkModel::ethernet_10baset()),
        );
        let constraints = derive_constraints(app.as_ref(), &profile);
        let mut solver = RecoverySolver::new(&graph, &constraints);
        let base = solver.solve(None).unwrap();
        assert_eq!(base, dinic_placement(&graph, &constraints), "{name}");
        assert!(
            base.values().any(|&m| m == MachineId::SERVER),
            "{name}: the base cut places nothing on the server"
        );
        // A dead machine redirects every pin and pins every node to the
        // survivor; the colocations stay.
        for (dead, pin) in [
            (MachineId::CLIENT, Constraint::PinServer as fn(_) -> _),
            (MachineId::SERVER, Constraint::PinClient),
        ] {
            let pinned: Vec<Constraint> = constraints
                .iter()
                .filter(|c| matches!(c, Constraint::Colocate(..)))
                .cloned()
                .chain(graph.nodes.iter().map(|&class| pin(class)))
                .collect();
            assert_eq!(
                solver.solve(Some(dead)).unwrap(),
                dinic_placement(&graph, &pinned),
                "{name}: {dead} dead"
            );
        }
    }
}
