//! Runs release what they allocate.
//!
//! Every profiling or distributed run builds one `ComRuntime`, and the
//! runtime's instance table is the only owner of the components it creates.
//! Components that hold each other's interface pointers, and the informers,
//! classifier clones, loggers and caches wrapped around those pointers, are
//! therefore all freed when the run returns. Two checks pin that:
//!
//! 1. after each kind of run, the caller's `Arc`s to the shared classifier
//!    and to the returned recovery coordinator are the only ones left;
//! 2. repeating a profile-and-distribute cycle leaves the process's peak
//!    resident size (`VmHWM`) flat once the allocator has warmed up.
//!
//! The file holds a single always-run test, so no other test thread shares
//! the process whose high-water mark it reads. The 200-cycle variant is
//! `#[ignore]`d here and run in release by `scripts/ci.sh`.

use coign::classifier::{ClassifierKind, InstanceClassifier};
use coign::recovery::{RecoveryConfig, RecoveryCoordinator};
use coign::runtime::{
    choose_distribution, execute, profile_scenario, run_distributed, run_distributed_faulty,
    run_distributed_recovering, Run,
};
use coign::{Distribution, IccProfile};
use coign_apps::Octarine;
use coign_com::MachineId;
use coign_dcom::{CallPolicy, Fault, FaultPlan, NetworkModel, NetworkProfile, TimeWindow};
use std::sync::Arc;

const SCENARIO: &str = "o_oldtb3";
const SEED: u64 = 7;

/// Peak-RSS growth allowed between the warm-up cycle and the last one.
const GROWTH_BOUND_KIB: u64 = 2 << 10;

fn ethernet() -> NetworkModel {
    NetworkModel::ethernet_10baset()
}

/// Profiles the scenario with a fresh classifier and cuts it for ethernet.
fn profiled() -> (Arc<InstanceClassifier>, IccProfile, Distribution) {
    let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
    let run = profile_scenario(&Octarine, SCENARIO, &classifier).expect("profile");
    let network = NetworkProfile::exact(&ethernet());
    let dist = choose_distribution(&Octarine, &run.profile, &network).expect("distribution");
    (classifier, run.profile, dist)
}

fn assert_sole_owner<T>(arc: &Arc<T>, what: &str, after: &str) {
    assert_eq!(
        Arc::strong_count(arc),
        1,
        "the {what} is still shared after {after}: the run left components alive"
    );
}

/// The returned coordinator is the caller's alone, and once the caller lets
/// it go (it holds the classifier too) so is the classifier.
fn assert_released(
    classifier: &Arc<InstanceClassifier>,
    coordinator: Arc<RecoveryCoordinator>,
    after: &str,
) {
    assert_sole_owner(&coordinator, "recovery coordinator", after);
    drop(coordinator);
    assert_sole_owner(classifier, "classifier", after);
}

/// Peak resident size of this process in KiB, where `/proc` reports it.
fn peak_resident_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}

/// Runs `cycles` profile-and-distribute cycles and returns how far the
/// peak resident size rose after the second one, in KiB (`None` where
/// `/proc` is unavailable).
fn peak_growth_over(cycles: usize) -> Option<u64> {
    let mut warm = None;
    for cycle in 1..=cycles {
        let (classifier, _, dist) = profiled();
        run_distributed(&Octarine, SCENARIO, &classifier, &dist, ethernet(), SEED)
            .expect("distributed run");
        if cycle == 2 {
            warm = peak_resident_kib();
        }
    }
    Some(peak_resident_kib()?.saturating_sub(warm?))
}

fn assert_peak_stays_flat(cycles: usize) {
    if let Some(growth) = peak_growth_over(cycles) {
        assert!(
            growth < GROWTH_BOUND_KIB,
            "peak resident size grew {growth} KiB over cycles 3..={cycles}"
        );
    }
}

#[test]
fn runs_release_their_components() {
    let (classifier, profile, dist) = profiled();
    assert_sole_owner(&classifier, "classifier", "profile_scenario");

    let report = run_distributed(&Octarine, SCENARIO, &classifier, &dist, ethernet(), SEED)
        .expect("distributed run");
    assert_sole_owner(&classifier, "classifier", "run_distributed");

    let drifting = execute(Run {
        baseline: Some(&profile),
        recovery: Some(RecoveryConfig {
            drift_threshold: Some(0.05),
            ..RecoveryConfig::default()
        }),
        ..Run::new(&Octarine, SCENARIO, &classifier, &dist, ethernet(), SEED)
    })
    .expect("recovering run");
    let drift = drifting.drift.expect("a drift threshold arms the monitor");
    let coordinator = drifting.coordinator.expect("the run loaded recovery");
    assert_released(&classifier, coordinator, "a drift-armed recovering run");
    assert_sole_owner(&drift, "drift monitor", "a drift-armed recovering run");

    let mut death = FaultPlan::none();
    death.push(Fault::MachineDown {
        machine: MachineId::SERVER,
        window: TimeWindow::new(report.clock_us / 3, u64::MAX),
    });
    let faulty = run_distributed_recovering(
        &Octarine,
        SCENARIO,
        &classifier,
        &dist,
        &profile,
        ethernet(),
        SEED,
        death,
        CallPolicy::default(),
        SEED,
        RecoveryConfig::default(),
    )
    .expect("recovering run");
    assert!(
        faulty.coordinator.recovery_count() > 0,
        "the server death must exercise recovery"
    );
    assert_released(&classifier, faulty.coordinator, "a server-death run");

    run_distributed_faulty(
        &Octarine,
        SCENARIO,
        &classifier,
        &dist,
        ethernet(),
        SEED,
        FaultPlan::none().with_loss(0.05),
        CallPolicy::default(),
        SEED,
    )
    .expect("lossy run");
    assert_sole_owner(&classifier, "classifier", "a lossy run");

    assert_peak_stays_flat(20);
}

/// One scenario 200 times in-process: what a long-lived host would do.
#[test]
#[ignore = "long: run in release by scripts/ci.sh"]
fn two_hundred_cycles_keep_the_peak_flat() {
    assert_peak_stays_flat(200);
}
