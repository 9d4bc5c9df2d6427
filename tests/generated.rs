//! Chaos-over-generated: the self-healing runtime's invariants must hold
//! on *synthetic* applications, not just the three hand-built ones. Five
//! generated seeds (cycling the size classes) each run the full pipeline —
//! profile → choose distribution → machine-death at mid-horizon under the
//! recovery coordinator — and every run is checked against the same
//! invariants the chaos harness enforces:
//!
//! 1. the outcome is `Ok` or a *typed* transport error, never an untyped
//!    crash;
//! 2. no call executes twice (`double_executions == 0`);
//! 3. the post-recovery placement satisfies every constraint with dead
//!    machines excluded (`validate()`);
//! 4. a recovered run re-solved warm exactly once from the base solve;
//! 5. the exactly-once ledger matches the script: a completed `g_main`
//!    commits its scripted count — no lost and no duplicated commits.

use coign::classifier::{ClassifierKind, InstanceClassifier};
use coign::recovery::RecoveryConfig;
use coign::runtime::{choose_distribution, profile_scenarios_observed, run_distributed_recovering};
use coign::Application;
use coign_com::{ComError, MachineId};
use coign_dcom::{CallPolicy, Fault, FaultPlan, NetworkModel, NetworkProfile, TimeWindow};
use coign_gen::{GenSize, GenSpec, GeneratedApp};
use std::sync::Arc;

const SEED: u64 = 7;

/// Runs one generated seed end to end: healthy probe for the horizon,
/// then a permanent server death at mid-horizon, then the invariants.
fn death_at_mid_horizon(seed: u64, size: GenSize) {
    let spec = GenSpec::new(seed, size);
    let app = GeneratedApp::new(spec);
    let scenarios = app.scenarios();
    let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
    let profile = profile_scenarios_observed(&app, &scenarios, &classifier, None).expect("profile");
    let network = NetworkProfile::exact(&NetworkModel::ethernet_10baset());
    let dist = choose_distribution(&app, &profile, &network).expect("distribution");

    let run_with_death_at = |instant_us: u64| {
        // A fresh application per run isolates the ledger counter; a fork
        // of the profiled classifier isolates classification state.
        let fresh = GeneratedApp::new(spec);
        let fork = Arc::new(classifier.fork());
        let mut plan = FaultPlan::none();
        plan.push(Fault::MachineDown {
            machine: MachineId::SERVER,
            window: TimeWindow::new(instant_us, u64::MAX),
        });
        let run = run_distributed_recovering(
            &fresh,
            "g_main",
            &fork,
            &dist,
            &profile,
            NetworkModel::ethernet_10baset(),
            SEED,
            plan,
            CallPolicy::default(),
            seed ^ 0x9E37_79B9_7F4A_7C15,
            RecoveryConfig::default(),
        )
        .expect("recovering run completes");
        (fresh, run)
    };

    // Healthy probe (death scheduled past any reachable clock) fixes the
    // fault-free horizon and the expected ledger count.
    let (healthy_app, healthy) = run_with_death_at(u64::MAX);
    assert!(healthy.outcome.is_ok(), "healthy probe must complete");
    assert_eq!(healthy.coordinator.recovery_count(), 0);
    let expected = healthy_app.expected_commits("g_main");
    assert!(expected > 0, "g_main must script ledger commits");
    assert_eq!(
        healthy_app.ledger_commits(),
        expected,
        "seed {seed}: healthy run must commit exactly the scripted count"
    );
    let horizon = healthy.report.clock_us.max(2);

    let (app, run) = run_with_death_at(horizon / 2);
    let coord = &run.coordinator;
    // Invariant 1: typed outcome.
    match &run.outcome {
        Ok(())
        | Err(ComError::Timeout { .. })
        | Err(ComError::Partitioned { .. })
        | Err(ComError::MachineDown(_)) => {}
        Err(other) => panic!("seed {seed}: untyped failure: {other}"),
    }
    // Invariant 2: exactly-once execution.
    assert_eq!(
        coord.double_executions(),
        0,
        "seed {seed}: double-executed calls"
    );
    // Invariant 3: the post-death placement validates.
    coord
        .validate()
        .unwrap_or_else(|detail| panic!("seed {seed}: placement invalid: {detail}"));
    // Invariant 4: a mid-horizon permanent death must trigger recovery,
    // re-solved warm from the single base solve.
    assert!(
        coord.recovery_count() > 0,
        "seed {seed}: mid-horizon death did not recover"
    );
    assert!(coord.warm_solves() >= 1, "seed {seed}: re-solve not warm");
    assert_eq!(coord.cold_solves(), 1, "seed {seed}: extra cold solves");
    assert!(
        !coord.dead_machines().is_empty(),
        "seed {seed}: dead server not declared"
    );
    // Invariant 5: the ledger. Never over-committed; exact when complete.
    assert!(
        app.ledger_commits() <= expected,
        "seed {seed}: ledger over-committed ({} > {expected})",
        app.ledger_commits()
    );
    if run.outcome.is_ok() {
        assert_eq!(
            app.ledger_commits(),
            expected,
            "seed {seed}: completed run lost ledger commits"
        );
        // No surviving instance may sit on a machine declared dead.
        for (clsid, machine) in &run.report.instance_placements {
            assert!(
                !coord.dead_machines().contains(machine),
                "seed {seed}: {clsid:?} left on dead machine {machine:?}"
            );
        }
    }
}

#[test]
fn generated_seed_1_small_survives_server_death() {
    death_at_mid_horizon(1, GenSize::Small);
}

#[test]
fn generated_seed_5_medium_survives_server_death() {
    death_at_mid_horizon(5, GenSize::Medium);
}

#[test]
fn generated_seed_9_small_survives_server_death() {
    death_at_mid_horizon(9, GenSize::Small);
}

#[test]
fn generated_seed_12_large_survives_server_death() {
    death_at_mid_horizon(12, GenSize::Large);
}

#[test]
fn generated_seed_23_medium_survives_server_death() {
    death_at_mid_horizon(23, GenSize::Medium);
}
