//! Schedule-space exploration over generated applications.
//!
//! Chaos testing (`coign chaos`) samples random fault plans; exploration
//! walks the schedule space *systematically*, CoInDiVinE-style. For a small
//! generated application the space of recovery-relevant interleavings is
//! spanned by three axes on the simulated clock:
//!
//! * **Fault instant** — when the server machine dies. Instants are either
//!   given explicitly (`--faults-at`) or enumerated on an even grid across
//!   the fault-free horizon (`--enumerate-depth D` ⇒ 128·D instants).
//! * **Breaker threshold** — how many failures the health monitor needs to
//!   declare the machine dead, which shifts the recovery epoch relative to
//!   the failing call (threshold 1 recovers on the first failure, 5 lets
//!   retries and fast-fails interleave first).
//! * **Drift arming** — optionally arms the drift monitor, so a drift fire
//!   and a breaker declaration can land on the same tick (the ordering the
//!   `RecoveryCoordinator` pins: deaths drain before the drift re-solve).
//!
//! Every interleaving runs the scenario to completion under the
//! self-healing runtime and then checks the full invariant battery:
//! typed outcomes only, zero double executions, exactly-once on the
//! generated app's commit ledger (the observed commit count can never
//! exceed the script, and equals it on completed runs), a
//! constraint-satisfying post-recovery placement
//! ([`coign::recovery::RecoveryCoordinator::validate`] =
//! `validate_placement` with dead machines excluded), no instance left on
//! a dead machine after a completed run, warm re-solves after one cold
//! base cut, and
//! (statically, once) replication legality — no class is both replicable
//! and mutable-shared.
//!
//! A violating interleaving is *minimized* before reporting: drift is
//! dropped if the violation survives without it, the breaker threshold is
//! lowered to the smallest still-violating value, and the fault instant is
//! bisected toward the earliest violating tick — then emitted as a
//! replayable `coign explore … --faults-at T --thresholds F` command line.
//!
//! Everything is deterministic per `(spec, scenario, options)`: the
//! schedule grid is derived from the fault-free horizon, per-run seeds are
//! index-derived, and worker results come back in index order, so the
//! summary is byte-identical across runs and `--jobs`.

use std::collections::BTreeSet;
use std::sync::Arc;

use coign::analysis::Distribution;
use coign::classifier::{ClassifierKind, InstanceClassifier};
use coign::jobs::run_indexed;
use coign::lint::{analyze_replication, DiagnosticSink};
use coign::multiway::{derive_replica_router, ReplicaRouter};
use coign::recovery::RecoveryConfig;
use coign::runtime::{choose_distribution, profile_scenarios_observed, run_distributed_recovering};
use coign::{Application, IccProfile};
use coign_com::{ComError, ComResult, ComRuntime, MachineId};
use coign_dcom::{
    BreakerPolicy, CallPolicy, Fault, FaultPlan, NetworkModel, NetworkProfile, TimeWindow,
};

use crate::calibration;
use crate::{GenSpec, GeneratedApp};

/// Transport seed used for every run (matches the CLI's pipeline seed so
/// explore runs are comparable with `coign run`/`chaos` output).
pub const SEED: u64 = 0x000C_0161;

/// Drift threshold used by the `--drift` interleaving axis.
const DRIFT_THRESHOLD: f64 = 0.5;

/// Exploration options (CLI flags map 1:1).
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Network model the distribution is chosen for and run over.
    pub network: NetworkModel,
    /// Display name of the network.
    pub network_name: String,
    /// Explicit fault instants (µs); overrides enumeration when set.
    pub faults_at: Option<Vec<u64>>,
    /// Enumeration depth: 128·depth instants on the fault-free horizon.
    pub depth: u32,
    /// Breaker failure thresholds to permute.
    pub thresholds: Vec<u32>,
    /// Add a drift-armed variant of every interleaving.
    pub with_drift: bool,
    /// Worker threads.
    pub jobs: usize,
    /// Master seed mixed into per-interleaving fault seeds.
    pub seed: u64,
    /// Install the lint-derived replica routing table before every run, so
    /// replica-covered machine deaths must recover by pure failover — and
    /// the invariant battery additionally enforces that no solve (warm or
    /// cold beyond the base) runs on that path.
    pub with_replicas: bool,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            network: NetworkModel::ethernet_10baset(),
            network_name: "ethernet".to_string(),
            faults_at: None,
            depth: 2,
            thresholds: vec![1, 2, 3, 5],
            with_drift: false,
            jobs: 1,
            seed: 0,
            with_replicas: false,
        }
    }
}

/// Aggregated result of one exploration.
#[derive(Debug)]
pub struct ExploreReport {
    /// Rendered summary (stable per seed).
    pub summary: String,
    /// Distinct interleavings checked.
    pub interleavings: usize,
    /// Invariant violations found (0 on a healthy build).
    pub violations: usize,
    /// K-S fit of the generated profile against the calibration target.
    pub calibration_fit: f64,
}

/// One point in the schedule grid.
#[derive(Debug, Clone, Copy)]
struct SchedulePoint {
    instant_us: u64,
    threshold: u32,
    drift: bool,
}

/// Per-interleaving statistics.
struct RunStats {
    outcome: &'static str,
    recoveries: u64,
    migrations: u64,
    redelivered: u64,
    replayed: u64,
    doubles: u64,
    failovers: u64,
    via_replicas: u64,
    violations: Vec<String>,
}

struct Harness {
    /// The profiled application. Each run copies it with a fresh ledger,
    /// sharing its blueprint.
    app: GeneratedApp,
    scenario: String,
    classifier: Arc<InstanceClassifier>,
    distribution: Distribution,
    profile: IccProfile,
    network: NetworkModel,
    master_seed: u64,
    replicas: Option<ReplicaRouter>,
}

impl Harness {
    /// Runs one interleaving and evaluates every dynamic invariant.
    fn run(&self, point: SchedulePoint, index: usize) -> ComResult<RunStats> {
        // A fresh commit ledger per run isolates its exactly-once check.
        let app = self.app.with_fresh_ledger();
        let fork = Arc::new(self.classifier.fork());
        let mut plan = FaultPlan::none();
        plan.push(Fault::MachineDown {
            machine: MachineId::SERVER,
            window: TimeWindow::new(point.instant_us, u64::MAX),
        });
        let config = RecoveryConfig {
            breaker: BreakerPolicy {
                failure_threshold: point.threshold,
                ..BreakerPolicy::default()
            },
            drift_threshold: point.drift.then_some(DRIFT_THRESHOLD),
            replicas: self.replicas.clone(),
        };
        let fault_seed = self.master_seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let run = run_distributed_recovering(
            &app,
            &self.scenario,
            &fork,
            &self.distribution,
            &self.profile,
            self.network.clone(),
            SEED,
            plan,
            CallPolicy::default(),
            fault_seed,
            config,
        )?;
        let coord = &run.coordinator;
        let mut violations = coord.audit(&run.outcome);
        let outcome = match &run.outcome {
            Ok(()) if coord.recovery_count() > 0 => "recovered",
            Ok(()) => "ok",
            Err(_) => "failed",
        };
        let via_replicas = coord.events().iter().filter(|e| e.via_replicas).count() as u64;
        // Exactly-once at the application level: the ledger can never see
        // more commits than the scenario scripts, and a completed run sees
        // exactly that many.
        let expected = app.expected_commits(&self.scenario);
        let observed = app.ledger_commits();
        if observed > expected {
            violations.push(format!(
                "ledger over-commit: observed {observed} > scripted {expected}"
            ));
        }
        if run.outcome.is_ok() && observed != expected {
            violations.push(format!(
                "completed run lost commits: observed {observed} != scripted {expected}"
            ));
        }
        // A completed run leaves no instance on a machine declared dead.
        if run.outcome.is_ok() {
            for machine in coord.dead_machines() {
                let stranded = run
                    .report
                    .instance_placements
                    .iter()
                    .filter(|(_, m)| *m == machine)
                    .count();
                if stranded > 0 {
                    violations.push(format!(
                        "{stranded} instance(s) left on dead machine {machine}"
                    ));
                }
            }
        }
        Ok(RunStats {
            outcome,
            recoveries: coord.recovery_count(),
            migrations: coord.migration_count(),
            redelivered: coord.redelivered_calls(),
            replayed: coord.replayed_completions(),
            doubles: coord.double_executions(),
            failovers: coord.replica_failovers(),
            via_replicas,
            violations,
        })
    }

    /// True when the point still violates some invariant (used by the
    /// minimizer; a transport-level error counts as non-violating — the
    /// run itself is the subject, not the harness).
    fn violates(&self, point: SchedulePoint) -> bool {
        self.run(point, usize::MAX / 2)
            .map(|stats| !stats.violations.is_empty())
            .unwrap_or(false)
    }

    /// Shrinks a violating point: drop drift, lower the threshold, then
    /// bisect the instant toward the earliest violating tick.
    fn minimize(&self, mut point: SchedulePoint, thresholds: &[u32]) -> SchedulePoint {
        if point.drift {
            let without = SchedulePoint {
                drift: false,
                ..point
            };
            if self.violates(without) {
                point = without;
            }
        }
        let mut sorted = thresholds.to_vec();
        sorted.sort_unstable();
        for &threshold in &sorted {
            if threshold >= point.threshold {
                break;
            }
            let lowered = SchedulePoint { threshold, ..point };
            if self.violates(lowered) {
                point = lowered;
                break;
            }
        }
        let (mut lo, mut hi) = (0u64, point.instant_us);
        for _ in 0..10 {
            if hi <= lo + 1 {
                break;
            }
            let mid = lo + (hi - lo) / 2;
            if self.violates(SchedulePoint {
                instant_us: mid,
                ..point
            }) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        point.instant_us = hi;
        point
    }
}

/// Builds the instant grid: explicit instants, or 128·depth points spread
/// evenly across the middle three quarters of the fault-free horizon
/// (faults before any remote call or after the last one are uninteresting).
fn instant_grid(faults_at: &Option<Vec<u64>>, depth: u32, horizon_us: u64) -> Vec<u64> {
    let set: BTreeSet<u64> = match faults_at {
        Some(list) => list.iter().copied().collect(),
        None => {
            let count = 128u64 * depth.max(1) as u64;
            let lo = horizon_us / 8;
            let hi = horizon_us.saturating_sub(horizon_us / 8).max(lo + 1);
            (0..count)
                .map(|i| lo + (hi - lo).saturating_mul(i) / count.max(1))
                .collect()
        }
    };
    set.into_iter().collect()
}

/// Explores the schedule space of one scenario of a generated application.
///
/// Returns `Err(ComError::App(summary))` when any interleaving violates an
/// invariant (the summary then carries minimized, replayable schedules).
pub fn explore(spec: GenSpec, scenario: &str, opts: &ExploreOptions) -> ComResult<ExploreReport> {
    let app = GeneratedApp::new(spec);
    if !app.scenarios().contains(&scenario) {
        return Err(ComError::App(format!(
            "{} has no scenario {scenario:?} (has: {})",
            app.name(),
            app.scenarios().join(" ")
        )));
    }
    // Profile every scenario once: the accumulated profile both drives the
    // placement and measures calibration fit.
    let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
    let scenario_names = app.scenarios();
    let profile = profile_scenarios_observed(&app, &scenario_names, &classifier, None)?;
    let fit = calibration::ks_distance(&calibration::bucket_histogram(&profile));
    let net_profile = NetworkProfile::exact(&opts.network);
    let distribution = choose_distribution(&app, &profile, &net_profile)?;

    // Static invariant: replication legality. A class the sharing analysis
    // proves replicable must never also be mutable-shared.
    let rt = ComRuntime::single_machine();
    app.register(&rt);
    let mut sink = DiagnosticSink::new();
    let replication = analyze_replication(rt.registry(), &mut sink);
    let illegal: Vec<&String> = replication
        .replicable
        .iter()
        .filter(|class| replication.mutable_shared.contains(class))
        .collect();

    // The replica routing table every interleaving runs under (empty
    // unless asked for, or when no legal copy pays for itself).
    let replicas = if opts.with_replicas {
        derive_replica_router(
            &replication,
            rt.registry(),
            &profile,
            &net_profile,
            &distribution,
        )
    } else {
        None
    };

    let harness = Harness {
        app,
        scenario: scenario.to_string(),
        classifier,
        distribution,
        profile,
        network: opts.network.clone(),
        master_seed: opts.seed,
        replicas,
    };

    // Fault-free probe fixes the horizon and proves the scenario healthy.
    let probe = harness.run(
        SchedulePoint {
            instant_us: u64::MAX,
            threshold: 3,
            drift: false,
        },
        usize::MAX / 2,
    )?;
    if probe.outcome != "ok" || !probe.violations.is_empty() {
        return Err(ComError::App(format!(
            "fault-free probe unhealthy: outcome={} violations={:?}",
            probe.outcome, probe.violations
        )));
    }
    let probe_app = harness.app.with_fresh_ledger();
    let probe_run = run_distributed_recovering(
        &probe_app,
        scenario,
        &Arc::new(harness.classifier.fork()),
        &harness.distribution,
        &harness.profile,
        harness.network.clone(),
        SEED,
        FaultPlan::none(),
        CallPolicy::default(),
        0,
        RecoveryConfig::default(),
    )?;
    probe_run.outcome?;
    let horizon_us = probe_run.report.clock_us.max(1);

    let instants = instant_grid(&opts.faults_at, opts.depth, horizon_us);
    let mut thresholds = opts.thresholds.clone();
    if thresholds.is_empty() {
        thresholds.push(3);
    }
    let drift_modes: &[bool] = if opts.with_drift {
        &[false, true]
    } else {
        &[false]
    };
    let mut schedule = Vec::new();
    for &instant_us in &instants {
        for &threshold in &thresholds {
            for &drift in drift_modes {
                schedule.push(SchedulePoint {
                    instant_us,
                    threshold,
                    drift,
                });
            }
        }
    }

    // Index-ordered results keep the summary byte-identical across --jobs.
    let runs = run_indexed(schedule.len(), opts.jobs, |i| harness.run(schedule[i], i));

    let (mut ok, mut recovered, mut failed) = (0usize, 0usize, 0usize);
    let (mut recoveries, mut migrations) = (0u64, 0u64);
    let (mut redelivered, mut replayed, mut doubles) = (0u64, 0u64, 0u64);
    let (mut failovers, mut via_replicas) = (0u64, 0u64);
    let mut violating: Vec<(SchedulePoint, Vec<String>)> = Vec::new();
    for (i, stats) in runs.into_iter().enumerate() {
        let stats = stats?;
        match stats.outcome {
            "ok" => ok += 1,
            "recovered" => recovered += 1,
            _ => failed += 1,
        }
        recoveries += stats.recoveries;
        migrations += stats.migrations;
        redelivered += stats.redelivered;
        replayed += stats.replayed;
        doubles += stats.doubles;
        failovers += stats.failovers;
        via_replicas += stats.via_replicas;
        if !stats.violations.is_empty() {
            violating.push((schedule[i], stats.violations));
        }
    }

    let mut out = format!(
        "explore app={} scenario={scenario} network={} seed={}\n",
        harness.app.name(),
        opts.network_name,
        opts.seed
    );
    out.push_str(&format!(
        "calibration: ks={fit:.3} tolerance={:.3}\n",
        calibration::KS_TOLERANCE
    ));
    if illegal.is_empty() {
        out.push_str(&format!(
            "replication: legal ({} replicable, {} mutable-shared, disjoint)\n",
            replication.replicable.len(),
            replication.mutable_shared.len()
        ));
    } else {
        out.push_str(&format!(
            "replication: {} ILLEGAL class(es): {}\n",
            illegal.len(),
            illegal
                .iter()
                .map(|s| s.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    out.push_str(&format!(
        "horizon: {horizon_us} us; schedule: {} instant(s) x {} threshold(s) x {} drift mode(s) \
         = {} interleaving(s)\n",
        instants.len(),
        thresholds.len(),
        drift_modes.len(),
        schedule.len()
    ));
    out.push_str(&format!(
        "outcomes: ok={ok} recovered={recovered} failed={failed}\n"
    ));
    out.push_str(&format!(
        "recoveries={recoveries} migrations={migrations} redelivered={redelivered} \
         replayed={replayed} double={doubles}\n"
    ));
    if opts.with_replicas {
        out.push_str(&format!(
            "failover: routed={} failovers={failovers} via_replicas={via_replicas}\n",
            match &harness.replicas {
                Some(router) => format!("{} class(es)", router.replicated_class_count()),
                None => "none".to_string(),
            },
        ));
    }
    out.push_str(&format!(
        "ledger: {} commit(s) scripted per completed {scenario} run; exact on every completed run\n",
        harness.app.expected_commits(scenario)
    ));

    let violation_count = violating.iter().map(|(_, v)| v.len()).sum::<usize>() + illegal.len();
    if violation_count == 0 {
        out.push_str(&format!(
            "invariants: ok (0 violation(s) over {} interleaving(s))\n",
            schedule.len()
        ));
        return Ok(ExploreReport {
            summary: out,
            interleavings: schedule.len(),
            violations: 0,
            calibration_fit: fit,
        });
    }

    out.push_str(&format!("invariants: {violation_count} VIOLATION(S)\n"));
    for (point, violations) in violating.iter().take(5) {
        for violation in violations {
            out.push_str(&format!(
                "  [t={} threshold={} drift={}] {violation}\n",
                point.instant_us,
                point.threshold,
                if point.drift { "on" } else { "off" }
            ));
        }
        let min = harness.minimize(*point, &thresholds);
        out.push_str(&format!(
            "  minimized replay: coign explore gen:{}:{} {scenario} {} --faults-at {} \
             --thresholds {}{} --seed {}\n",
            spec.seed,
            spec.size.name(),
            opts.network_name,
            min.instant_us,
            min.threshold,
            if min.drift { " --drift" } else { "" },
            opts.seed
        ));
    }
    if violating.len() > 5 {
        out.push_str(&format!(
            "  ... and {} more violating interleaving(s)\n",
            violating.len() - 5
        ));
    }
    Err(ComError::App(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GenSize;

    #[test]
    fn instant_grid_is_deduped_and_sized() {
        let grid = instant_grid(&None, 2, 1_000_000);
        assert_eq!(grid.len(), 256);
        let explicit = instant_grid(&Some(vec![30, 10, 30, 20]), 2, 1_000_000);
        assert_eq!(explicit, vec![10, 20, 30]);
    }

    #[test]
    fn replicated_exploration_holds_the_failover_invariants() {
        let opts = ExploreOptions {
            faults_at: Some(vec![5_000, 15_000, 30_000]),
            thresholds: vec![1, 3],
            with_replicas: true,
            jobs: 2,
            ..ExploreOptions::default()
        };
        let report = explore(GenSpec::new(3, GenSize::Small), "g_main", &opts).unwrap();
        assert_eq!(report.violations, 0);
        assert_eq!(report.interleavings, 6);
        assert!(
            report.summary.contains("failover: routed="),
            "{}",
            report.summary
        );
        // Byte-identical across --jobs, replicas installed or not.
        let sequential = explore(
            GenSpec::new(3, GenSize::Small),
            "g_main",
            &ExploreOptions { jobs: 1, ..opts },
        )
        .unwrap();
        assert_eq!(report.summary, sequential.summary);
    }

    #[test]
    fn rejects_unknown_scenarios() {
        let err = explore(
            GenSpec::new(1, GenSize::Small),
            "nope",
            &ExploreOptions::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("no scenario"));
    }
}
