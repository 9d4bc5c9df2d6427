//! End-to-end Coign runs: profiling, default, and distributed executions.
//!
//! This module assembles the pieces into the workflows of the paper's
//! Figure 1:
//!
//! * [`profile_scenario`] — run one scenario under the profiling runtime,
//!   returning the summarized profile and per-instance data.
//! * [`profile_scenarios_crosschecked`] — the suite core: run a scenario
//!   suite on `jobs` workers and merge the logs in scenario order.
//! * [`choose_distribution`] — the analysis step: constraints + profile +
//!   network profile → minimum-cut distribution.
//! * [`execute`] — the one distributed executor: a [`Run`] description
//!   names the application, scenario, distribution and wire, plus whichever
//!   replaceable parts (topology, fault plan, drift baseline, recovery,
//!   observer) the run loads; [`run_distributed`],
//!   [`run_distributed_faulty`] and [`run_distributed_recovering`] are the
//!   three fixed-shape spellings of it.
//! * [`run_default`] — execute a scenario in the application's as-shipped
//!   distribution (for the paper's Table 4 baseline).
//! * [`run_raw`] — execute without any instrumentation (overhead baseline).

use crate::analysis::{analyze, Distribution};
use crate::application::Application;
use crate::classifier::{ClassificationId, InstanceClassifier};
use crate::constraints::{derive_static_constraints, resolve_named_constraints, Constraint};
use crate::drift::DriftMonitor;
use crate::factory::ComponentFactory;
use crate::icc::IccGraph;
use crate::informer::{DistributionInvoker, EffectViolation, OverheadMeter};
use crate::jobs::run_indexed;
use crate::logger::{NullLogger, PairTraffic, ProfilingLogger};
use crate::profile::IccProfile;
use crate::recovery::{RecoveryConfig, RecoveryCoordinator};
use crate::rte::CoignRte;
use coign_com::{
    ClassRegistry, Clsid, ComError, ComResult, ComRuntime, CreateRequest, FoldState, InstanceId,
    InterfacePtr, MachineId, RtStats, RuntimeHook,
};
use coign_dcom::marshal::SizeCache;
use coign_dcom::{
    CallPolicy, FaultPlan, FaultStats, HealthMonitor, NetworkModel, NetworkProfile, Transport,
};
use coign_flow::MaxFlowAlgorithm;
use coign_obs::{Obs, Registry, TraceArg};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// What the fault layer did during one execution: the transport's counters
/// plus the runtime's graceful-degradation events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Messages lost in flight.
    pub drops: u64,
    /// Attempts that timed out.
    pub timeouts: u64,
    /// Re-send attempts made after a timeout.
    pub retries: u64,
    /// Calls that failed after exhausting the retry policy.
    pub failed_calls: u64,
    /// Calls refused because the target machine was down.
    pub machine_down_errors: u64,
    /// Clock time burned on timeouts and backoff waits, microseconds.
    pub wasted_us: u64,
    /// Instantiations re-routed to the requesting machine because their
    /// placement target was down.
    pub fallbacks: u64,
}

impl FaultReport {
    fn from_parts(stats: FaultStats, fallbacks: u64) -> Self {
        FaultReport {
            drops: stats.drops,
            timeouts: stats.timeouts,
            retries: stats.retries,
            failed_calls: stats.failed_calls,
            machine_down_errors: stats.machine_down_errors,
            wasted_us: stats.wasted_us,
            fallbacks,
        }
    }

    /// True when the fault layer never perturbed the run.
    pub fn is_clean(&self) -> bool {
        *self == FaultReport::default()
    }
}

/// Measurements from one scenario execution.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Runtime statistics (compute, communication, messages, bytes).
    pub stats: RtStats,
    /// Total simulated wall-clock time, microseconds.
    pub clock_us: u64,
    /// Instrumentation overhead included in `clock_us`, microseconds.
    pub overhead_us: u64,
    /// Live instances per machine at scenario end.
    pub instances_per_machine: Vec<usize>,
    /// Per-instance `(class, machine)` placement at scenario end.
    pub instance_placements: Vec<(Clsid, MachineId)>,
    /// Fault-injection counters (all zero when no fault layer was active).
    pub faults: FaultReport,
    /// Marshal-size memo cache hits (profiling runs only; a hit skips the
    /// deep-copy walk and its per-KB overhead charge).
    pub marshal_cache_hits: u64,
    /// Marshal-size memo cache misses (full deep-copy walks performed).
    pub marshal_cache_misses: u64,
}

impl RunReport {
    /// Reads the measurements of a finished scenario off its runtime — the
    /// one place a report is assembled. `marshal_cache` is the profiling
    /// informers' memo cache, absent for runs that install none.
    fn capture(
        rt: &ComRuntime,
        overhead_us: u64,
        faults: FaultReport,
        marshal_cache: Option<&SizeCache>,
    ) -> Self {
        let instances = rt.instances_snapshot();
        let mut instances_per_machine = vec![0usize; rt.machines().len()];
        for instance in &instances {
            if let Some(count) = instances_per_machine.get_mut(instance.machine().0 as usize) {
                *count += 1;
            }
        }
        RunReport {
            stats: rt.stats(),
            clock_us: rt.clock().now_us(),
            overhead_us,
            instances_per_machine,
            instance_placements: instances.iter().map(|i| (i.clsid, i.machine())).collect(),
            faults,
            marshal_cache_hits: marshal_cache.map_or(0, |cache| cache.hits()),
            marshal_cache_misses: marshal_cache.map_or(0, |cache| cache.misses()),
        }
    }

    /// Total live instances at scenario end.
    pub fn total_instances(&self) -> usize {
        self.instances_per_machine.iter().sum()
    }

    /// Instances on the server (machine 1) at scenario end.
    pub fn server_instances(&self) -> usize {
        self.instances_per_machine
            .get(MachineId::SERVER.0 as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Communication time in seconds (Table 4's unit).
    pub fn comm_secs(&self) -> f64 {
        self.stats.comm_us as f64 / 1e6
    }

    /// Execution time in seconds (Table 5's unit).
    pub fn exec_secs(&self) -> f64 {
        self.clock_us as f64 / 1e6
    }

    /// Every scalar measurement of this report under its metric name: the
    /// one table [`RunReport::record_metrics`] and [`RunReport::summary`]
    /// both render from, so the report and a `--metrics` snapshot can never
    /// disagree about a counter.
    fn counters(&self) -> [(&'static str, u64); 17] {
        [
            ("coign_compute_us", self.stats.compute_us),
            ("coign_comm_us", self.stats.comm_us),
            ("coign_messages_total", self.stats.messages),
            ("coign_bytes_total", self.stats.bytes),
            ("coign_calls_total", self.stats.calls),
            (
                "coign_cross_machine_calls_total",
                self.stats.cross_machine_calls,
            ),
            ("coign_clock_us", self.clock_us),
            ("coign_overhead_us", self.overhead_us),
            ("coign_fault_drops_total", self.faults.drops),
            ("coign_fault_timeouts_total", self.faults.timeouts),
            ("coign_fault_retries_total", self.faults.retries),
            ("coign_fault_failed_calls_total", self.faults.failed_calls),
            (
                "coign_fault_machine_down_errors_total",
                self.faults.machine_down_errors,
            ),
            ("coign_fault_wasted_us", self.faults.wasted_us),
            ("coign_fault_fallbacks_total", self.faults.fallbacks),
            ("coign_marshal_cache_hits_total", self.marshal_cache_hits),
            (
                "coign_marshal_cache_misses_total",
                self.marshal_cache_misses,
            ),
        ]
    }

    /// Adds every scalar measurement of this report to a metrics registry —
    /// the superset a `--metrics` snapshot exposes.
    fn record_metrics(&self, registry: &Registry) {
        for (metric, value) in self.counters() {
            registry.counter(metric).add(value);
        }
    }

    /// Renders the report as a deterministic key=value block, one field
    /// per line — the format CI diffs against committed expectations, so
    /// two runs with the same seeds must produce byte-identical text. A
    /// counter's key is its metric name less the `coign_` prefix and
    /// `_total` suffix.
    pub fn summary(&self) -> String {
        // Sorted as rendered text. Instances of one class on one machine
        // render alike, so each distinct pair is formatted once and
        // repeated.
        let mut pairs = self.instance_placements.clone();
        pairs.sort_unstable();
        let mut distinct: Vec<(String, usize)> = pairs
            .chunk_by(|a, b| a == b)
            .map(|run| (format!("{}@{}", run[0].0, run[0].1), run.len()))
            .collect();
        distinct.sort_unstable();
        let placements: Vec<&str> = distinct
            .iter()
            .flat_map(|(text, count)| std::iter::repeat_n(text.as_str(), *count))
            .collect();
        let mut out = String::new();
        for (metric, value) in self.counters() {
            let key = metric
                .trim_start_matches("coign_")
                .trim_end_matches("_total");
            out.push_str(&format!("{key}={value}\n"));
            // The two non-scalar fields sit between the run's own counters
            // and the fault layer's.
            if metric == "coign_overhead_us" {
                out.push_str(&format!(
                    "instances_per_machine={:?}\nplacements=[{}]\n",
                    self.instances_per_machine,
                    placements.join(", "),
                ));
            }
        }
        out
    }
}

/// Static fallback pins: storage/database classes live on the data machine
/// (the topology's last machine) even when a classification was never
/// profiled — the data file does not move just because the profile is
/// stale.
fn storage_class_pins(rt: &ComRuntime) -> HashMap<Clsid, MachineId> {
    let data_machine = MachineId((rt.machines().len() - 1) as u16);
    rt.registry()
        .all()
        .into_iter()
        .filter(|desc| desc.imports.uses_storage())
        .map(|desc| (desc.clsid, data_machine))
        .collect()
}

/// Result of one profiling execution.
#[derive(Debug, Clone)]
pub struct ProfileRun {
    /// The summarized communication profile of this run.
    pub profile: IccProfile,
    /// Per-instance-pair traffic (for communication vectors).
    pub instance_pairs: HashMap<(InstanceId, InstanceId), PairTraffic, FoldState>,
    /// Instance → classification binding of this run.
    pub instance_classes: HashMap<InstanceId, ClassificationId, FoldState>,
    /// Execution measurements.
    pub report: RunReport,
    /// COIGN045: declared-read-only methods whose instance state changed
    /// during this run (deterministically ordered, deduplicated).
    pub effect_violations: Vec<EffectViolation>,
}

/// Runs one scenario under the profiling runtime.
///
/// The classifier is shared across calls so that classifications accumulate
/// over the whole scenario suite (its per-execution state is reset here).
pub fn profile_scenario(
    app: &dyn Application,
    scenario: &str,
    classifier: &Arc<InstanceClassifier>,
) -> ComResult<ProfileRun> {
    profile_one(app, scenario, classifier, None)
}

/// The single-scenario profiling body. With an observability bundle the run
/// is wrapped in a `scenario:<name>` span, every intercepted call emits an
/// `icc_call` instant, and the marshal-size cache's counters are added to
/// the bundle's registry when the scenario finishes.
fn profile_one(
    app: &dyn Application,
    scenario: &str,
    classifier: &Arc<InstanceClassifier>,
    obs: Option<&Obs>,
) -> ComResult<ProfileRun> {
    let _span = obs.map(|o| {
        o.tracer.phase_span_with(
            format!("scenario:{scenario}"),
            vec![("scenario", TraceArg::Str(scenario.to_string()))],
        )
    });
    let rt = ComRuntime::single_machine();
    app.register(&rt);
    classifier.begin_execution();
    let logger = Arc::new(ProfilingLogger::new());
    logger.set_scenario(scenario);
    let mut rte = CoignRte::profiling(classifier.clone(), logger.clone());
    if let Some(o) = obs {
        rte = rte.with_obs(o.clone());
    }
    let rte = Arc::new(rte);
    rt.add_hook(rte.clone());

    app.run_scenario(&rt, scenario)?;

    if let Some(o) = obs {
        rte.marshal_cache().record_metrics(&o.registry);
    }
    let instance_pairs = logger.instance_pairs();
    let instance_classes = logger.instance_classes();
    Ok(ProfileRun {
        profile: logger.take_profile(),
        instance_pairs,
        instance_classes,
        report: RunReport::capture(
            &rt,
            rte.overhead_us(),
            FaultReport::default(),
            Some(rte.marshal_cache()),
        ),
        effect_violations: rte.effect_violations(),
    })
}

/// Profiles a suite of scenarios sequentially against the shared
/// classifier and merges their logs, with an optional observability bundle
/// threaded through each scenario run.
pub fn profile_scenarios_observed(
    app: &dyn Application,
    scenarios: &[&str],
    classifier: &Arc<InstanceClassifier>,
    obs: Option<&Obs>,
) -> ComResult<IccProfile> {
    profile_scenarios_crosschecked(app, scenarios, classifier, 1, obs).map(|(profile, _)| profile)
}

/// Profiles a suite of scenarios on up to `jobs` worker threads and merges
/// their logs in scenario order (see [`profile_scenarios_crosschecked`]).
pub fn profile_scenarios_parallel(
    app: &dyn Application,
    scenarios: &[&str],
    classifier: &Arc<InstanceClassifier>,
    jobs: usize,
) -> ComResult<IccProfile> {
    profile_scenarios_crosschecked(app, scenarios, classifier, jobs, None)
        .map(|(profile, _)| profile)
}

/// The suite core: profiles `scenarios` on up to `jobs` worker threads and
/// returns the merged profile plus the COIGN045 state-effect violations the
/// profiling informer's dynamic cross-check observed (declared
/// `Pure`/`ReadsState` methods whose instance fingerprint changed across a
/// call), deduplicated and deterministically ordered.
///
/// With `jobs <= 1` (or a single scenario) the scenarios run in turn against
/// the shared classifier. Otherwise each scenario runs against a private
/// classifier forked from the shared one ([`InstanceClassifier::fork`]);
/// afterwards the forks are absorbed back — in scenario order — and each
/// run's profile is rewritten through the resulting id translation before
/// merging, so the merged profile and the shared classifier's table come
/// out byte-identical to the sequential pass regardless of `jobs` or thread
/// scheduling.
///
/// Under an observability bundle each worker records into a private child
/// tracer; the children are merged back — in scenario order — together with
/// a `classifier_fork` instant per fork (emitted up front) and a
/// `classifier_absorb` instant per merge, so the exported trace is
/// byte-identical across runs regardless of worker interleaving. Registry
/// counters are shared directly: counters commute, so worker order cannot
/// perturb them.
pub fn profile_scenarios_crosschecked(
    app: &dyn Application,
    scenarios: &[&str],
    classifier: &Arc<InstanceClassifier>,
    jobs: usize,
    obs: Option<&Obs>,
) -> ComResult<(IccProfile, Vec<EffectViolation>)> {
    let mut merged = IccProfile::new();
    let mut violations = BTreeSet::new();
    if jobs <= 1 || scenarios.len() <= 1 {
        for scenario in scenarios {
            let run = profile_one(app, scenario, classifier, obs)?;
            merged.merge(&run.profile);
            violations.extend(run.effect_violations);
        }
        return Ok((merged, violations.into_iter().collect()));
    }
    let forks: Vec<Arc<InstanceClassifier>> = scenarios
        .iter()
        .map(|_| Arc::new(classifier.fork()))
        .collect();
    if let Some(o) = obs {
        for scenario in scenarios {
            o.tracer.instant(
                "classifier_fork",
                vec![("scenario", TraceArg::Str((*scenario).to_string()))],
            );
        }
    }
    let children: Vec<Option<Obs>> = scenarios
        .iter()
        .map(|_| {
            obs.map(|o| Obs {
                tracer: Arc::new(o.tracer.child()),
                registry: o.registry.clone(),
                recorder: o.recorder.clone(),
            })
        })
        .collect();
    let runs = run_indexed(scenarios.len(), jobs, |i| {
        profile_one(app, scenarios[i], &forks[i], children[i].as_ref())
    });
    for (i, run) in runs.into_iter().enumerate() {
        let run = run?;
        let map = classifier.absorb(&forks[i]);
        if let (Some(o), Some(child)) = (obs, &children[i]) {
            o.tracer.merge_from(&child.tracer);
            o.tracer.instant(
                "classifier_absorb",
                vec![
                    ("scenario", TraceArg::Str(scenarios[i].to_string())),
                    ("translated", TraceArg::U64(map.len() as u64)),
                ],
            );
        }
        merged.merge(&run.profile.remap_classifications(&map));
        violations.extend(run.effect_violations);
    }
    Ok((merged, violations.into_iter().collect()))
}

/// Derives the full constraint set for an application: static API analysis
/// plus the programmer's explicit constraints. Non-remotable pairs are not
/// constraints here: the profiling logger records each one in
/// [`IccProfile::non_remotable`], which the analysis colocates directly.
pub fn derive_constraints(app: &dyn Application, profile: &IccProfile) -> Vec<Constraint> {
    let rt = ComRuntime::single_machine();
    app.register(&rt);
    constraints_in(rt.registry(), app, profile)
}

/// [`derive_constraints`] against a registry `app` is already registered
/// in, such as the one of the runtime about to execute it, so the
/// application's classes are not registered a second time.
pub fn constraints_in(
    registry: &ClassRegistry,
    app: &dyn Application,
    profile: &IccProfile,
) -> Vec<Constraint> {
    let mut constraints = derive_static_constraints(profile, registry);
    constraints.extend(resolve_named_constraints(
        profile,
        &app.explicit_constraints(),
    ));
    constraints
}

/// Fast-fail guard shared by `coign check` and the pipeline: resolves the
/// application's full constraint set and proves it satisfiable before any
/// analysis runs. On failure the [`ComError::App`] detail carries the same
/// rendered `COIGN0xx` diagnostics `coign check` prints.
pub fn check_constraints(app: &dyn Application, profile: &IccProfile) -> ComResult<()> {
    checked_constraints(app, profile).map(drop)
}

/// [`check_constraints`] handing back the vetted set: one registration
/// and one derivation serve both the check and the caller's analysis.
pub(crate) fn checked_constraints(
    app: &dyn Application,
    profile: &IccProfile,
) -> ComResult<Vec<Constraint>> {
    let rt = ComRuntime::single_machine();
    app.register(&rt);
    let named = app.explicit_constraints();
    let constraints = constraints_in(rt.registry(), app, profile);
    let mut sink = crate::lint::DiagnosticSink::new();
    crate::lint::check_constraint_stage(profile, rt.registry(), &named, &constraints, &mut sink);
    if sink.has_errors() {
        return Err(ComError::App(format!(
            "location constraints rejected by static analysis\n{}",
            sink.render_human()
        )));
    }
    Ok(constraints)
}

/// The analysis step: chooses the minimum-communication-time distribution
/// for the given network using the lift-to-front algorithm.
///
/// The constraint set is vetted by [`check_constraints`] first, so an
/// unsatisfiable or unresolvable set fails fast with a diagnostic report —
/// the min-cut solver is never invoked on a contradiction.
pub fn choose_distribution(
    app: &dyn Application,
    profile: &IccProfile,
    network: &NetworkProfile,
) -> ComResult<Distribution> {
    let constraints = checked_constraints(app, profile)?;
    analyze(
        profile,
        network,
        &constraints,
        MaxFlowAlgorithm::LiftToFront,
    )
}

/// One distributed execution, described once: what to run, over which
/// wire, and which of the runtime's replaceable parts to load. [`Run::new`]
/// fills every optional part with its neutral value, so a caller names only
/// the parts it wants: `Run { obs, ..Run::new(…) }`.
pub struct Run<'a> {
    /// The application to execute.
    pub app: &'a dyn Application,
    /// The scenario to drive it through.
    pub scenario: &'a str,
    /// The classifier used during profiling (its descriptor table maps new
    /// instantiations onto profiled classifications).
    pub classifier: &'a Arc<InstanceClassifier>,
    /// The placement the component factory realizes.
    pub distribution: &'a Distribution,
    /// The wire between machines.
    pub network: NetworkModel,
    /// Seed of the wire's latency jitter.
    pub seed: u64,
    /// The machines to run on; client–server unless replaced (the
    /// ≥3-machine distributions of [`crate::multiway`] bring their own).
    pub topology: ComRuntime,
    /// How the wire misbehaves; [`FaultPlan::none`] is a perfect wire and
    /// leaves the run bit-identical to one with no fault layer at all.
    pub plan: FaultPlan,
    /// Timeout/retry policy at the proxy boundary (idle on a perfect wire).
    pub policy: CallPolicy,
    /// Seed of the fault decisions, independent of the jitter `seed`.
    pub fault_seed: u64,
    /// The profile `distribution` was cut from. Given alone, the
    /// distribution informer counts messages against it (cheaply) and
    /// [`Execution::drift`] reports how far usage drifted — the trigger for
    /// the paper's "silently enable profiling to re-optimize" loop (§6).
    /// A recovering run re-cuts it online, and arms the drift monitor only
    /// when its config carries a drift threshold.
    pub baseline: Option<&'a IccProfile>,
    /// Loads the self-healing runtime: circuit breakers on the transport,
    /// online re-partitioning when a machine dies (a warm solve after the
    /// one base cut), instance migration, and the
    /// exactly-once retry protocol at the proxy. Needs `baseline`. Inert
    /// on a perfect wire: the health monitor is only fed on faulty paths
    /// and drift polling is clock-free until a latched fire.
    pub recovery: Option<RecoveryConfig>,
    /// Observer: cut-crossing calls, fault-layer events, breaker
    /// transitions, recoveries and migrations become tracer instants and
    /// flight-recorder entries at their simulated-clock time, and the
    /// report's (and coordinator's) counters are added to the registry.
    /// Tracing observes the simulation; it never charges simulated time.
    pub obs: Option<&'a Obs>,
}

impl<'a> Run<'a> {
    /// A plain client–server run over a perfect wire: no drift monitor, no
    /// recovery, no observer.
    pub fn new(
        app: &'a dyn Application,
        scenario: &'a str,
        classifier: &'a Arc<InstanceClassifier>,
        distribution: &'a Distribution,
        network: NetworkModel,
        seed: u64,
    ) -> Self {
        Run {
            app,
            scenario,
            classifier,
            distribution,
            network,
            seed,
            topology: ComRuntime::client_server(),
            plan: FaultPlan::none(),
            policy: CallPolicy::default(),
            fault_seed: 0,
            baseline: None,
            recovery: None,
            obs: None,
        }
    }
}

/// What [`execute`] hands back.
pub struct Execution {
    /// Execution measurements.
    pub report: RunReport,
    /// The scenario's own result. Only a recovering run can carry an `Err`
    /// here — under fault injection a typed transport failure is trial data
    /// (the chaos harness classifies it); every other run aborts on it.
    pub outcome: ComResult<()>,
    /// The drift monitor, when the run armed one.
    pub drift: Option<Arc<DriftMonitor>>,
    /// The recovery coordinator, when the run loaded one.
    pub coordinator: Option<Arc<RecoveryCoordinator>>,
}

/// Executes a scenario with the lightweight runtime realizing the run's
/// distribution: builds the transport, the component factory and the RTE,
/// loads whichever optional parts the description names, runs the scenario
/// and assembles the report.
pub fn execute(run: Run<'_>) -> ComResult<Execution> {
    let rt = run.topology;
    run.app.register(&rt);
    run.classifier.begin_execution();
    let transport = Arc::new(Transport::with_faults(
        run.network,
        run.seed,
        run.plan,
        run.policy,
        run.fault_seed,
    ));
    let arms_drift = run
        .recovery
        .as_ref()
        .is_none_or(|config| config.drift_threshold.is_some());
    let drift = run
        .baseline
        .filter(|_| arms_drift)
        .map(|baseline| Arc::new(DriftMonitor::from_profile(baseline)));
    let factory = ComponentFactory::new(
        run.distribution.placement.clone(),
        storage_class_pins(&rt),
        MachineId::CLIENT,
    );
    let mut rte = CoignRte::distributed(
        run.classifier.clone(),
        Arc::new(NullLogger),
        factory,
        transport.clone(),
        drift.clone(),
    );
    if let Some(o) = run.obs {
        rte = rte.with_obs(o.clone());
    }
    let rte = Arc::new(rte);
    let coordinator = match run.recovery {
        None => None,
        Some(config) => {
            let baseline = run.baseline.ok_or_else(|| {
                ComError::App("a recovering run needs the baseline profile to re-cut".to_string())
            })?;
            let health = Arc::new(HealthMonitor::new(config.breaker));
            transport.set_health(health.clone());
            let coordinator = RecoveryCoordinator::new(
                &IccGraph::build(baseline, &NetworkProfile::exact(transport.network())),
                &constraints_in(rt.registry(), run.app, baseline),
                rte.factory().expect("distributed-mode RTE has a factory"),
                run.classifier.clone(),
                health,
                drift.clone().zip(config.drift_threshold),
                run.obs.cloned(),
            )?;
            if let Some(router) = config.replicas {
                coordinator.install_replicas(router);
            }
            rte.set_recovery(coordinator.clone());
            Some(coordinator)
        }
    };
    rt.add_hook(rte.clone());

    let outcome = match (run.app.run_scenario(&rt, run.scenario), &coordinator) {
        (Err(error), None) => return Err(error),
        (outcome, _) => outcome,
    };

    let report = RunReport::capture(
        &rt,
        rte.overhead_us(),
        FaultReport::from_parts(transport.fault_stats(), rte.fallback_count()),
        Some(rte.marshal_cache()),
    );
    if let Some(o) = run.obs {
        report.record_metrics(&o.registry);
        if let Some(coordinator) = &coordinator {
            coordinator.record_metrics(&o.registry);
            coordinator.health().record_metrics(&o.registry);
        }
    }
    Ok(Execution {
        report,
        outcome,
        drift,
        coordinator,
    })
}

/// Executes a scenario with the lightweight runtime realizing
/// `distribution` on a client–server topology over a perfect wire. The
/// classifier must be the one used during profiling.
pub fn run_distributed(
    app: &dyn Application,
    scenario: &str,
    classifier: &Arc<InstanceClassifier>,
    distribution: &Distribution,
    network: NetworkModel,
    seed: u64,
) -> ComResult<RunReport> {
    execute(Run::new(
        app,
        scenario,
        classifier,
        distribution,
        network,
        seed,
    ))
    .map(|done| done.report)
}

/// Executes a scenario under `distribution` on a client–server topology
/// whose wire misbehaves per `plan`, retrying per `policy`. Fault decisions
/// are seeded by `fault_seed` independently of the jitter `seed`, so:
///
/// * the same `(seed, fault_seed, plan)` triple reproduces the report
///   byte-for-byte, and
/// * an empty plan produces a report identical to [`run_distributed`].
#[allow(clippy::too_many_arguments)]
pub fn run_distributed_faulty(
    app: &dyn Application,
    scenario: &str,
    classifier: &Arc<InstanceClassifier>,
    distribution: &Distribution,
    network: NetworkModel,
    seed: u64,
    plan: FaultPlan,
    policy: CallPolicy,
    fault_seed: u64,
) -> ComResult<RunReport> {
    execute(Run {
        plan,
        policy,
        fault_seed,
        ..Run::new(app, scenario, classifier, distribution, network, seed)
    })
    .map(|done| done.report)
}

/// Outcome of a self-healing distributed execution.
///
/// Unlike the plain runners, the report is produced even when the scenario
/// itself failed: under fault injection a typed transport failure is trial
/// data (the chaos harness classifies it), not an abort.
pub struct RecoveryRun {
    /// Execution measurements (always present).
    pub report: RunReport,
    /// The coordinator: recovery events, placement epoch, solver and
    /// exactly-once counters, and the health monitor it drained.
    pub coordinator: Arc<RecoveryCoordinator>,
    /// The scenario's own result.
    pub outcome: ComResult<()>,
}

/// Executes a scenario under `distribution` with the full self-healing
/// runtime ([`Run::recovery`]) re-cutting `profile` online.
///
/// With an empty plan this is bit-identical to [`run_distributed`], and no
/// recovery ever triggers.
#[allow(clippy::too_many_arguments)]
pub fn run_distributed_recovering(
    app: &dyn Application,
    scenario: &str,
    classifier: &Arc<InstanceClassifier>,
    distribution: &Distribution,
    profile: &IccProfile,
    network: NetworkModel,
    seed: u64,
    plan: FaultPlan,
    policy: CallPolicy,
    fault_seed: u64,
    config: RecoveryConfig,
) -> ComResult<RecoveryRun> {
    execute(Run {
        plan,
        policy,
        fault_seed,
        baseline: Some(profile),
        recovery: Some(config),
        ..Run::new(app, scenario, classifier, distribution, network, seed)
    })
    .map(|done| RecoveryRun {
        report: done.report,
        coordinator: done.coordinator.expect("the run loaded recovery"),
        outcome: done.outcome,
    })
}

/// Places instances by *class* according to a fixed table — how an
/// application ships: the developer assigned classes (not instances) to
/// tiers. Interfaces are wrapped with the distribution informer so
/// cross-machine calls cost real time.
struct StaticPlacementRte {
    placement: HashMap<Clsid, MachineId>,
    transport: Arc<Transport>,
    overhead: Arc<OverheadMeter>,
}

impl RuntimeHook for StaticPlacementRte {
    fn fulfill_create(
        &self,
        rt: &ComRuntime,
        req: &CreateRequest,
    ) -> Option<ComResult<InterfacePtr>> {
        let machine = self
            .placement
            .get(&req.clsid)
            .copied()
            .unwrap_or(MachineId::CLIENT);
        Some(rt.create_direct(req.clsid, req.iid, Some(machine)))
    }

    fn wrap_interface(&self, _rt: &ComRuntime, ptr: InterfacePtr) -> InterfacePtr {
        DistributionInvoker::wrap(ptr, self.transport.clone(), self.overhead.clone())
    }
}

/// Executes a scenario in the application's default (as-shipped)
/// distribution: every class placed per [`Application::default_placement`].
pub fn run_default(
    app: &dyn Application,
    scenario: &str,
    network: NetworkModel,
    seed: u64,
) -> ComResult<RunReport> {
    let rt = ComRuntime::client_server();
    app.register(&rt);
    // Data files are placed on the server for both the default and the
    // Coign-chosen distributions (§4.5): storage/database classes override
    // the application's own placement.
    let placement: HashMap<Clsid, MachineId> = rt
        .registry()
        .all()
        .into_iter()
        .map(|desc| {
            let machine = if desc.imports.uses_storage() {
                MachineId::SERVER
            } else {
                app.default_placement(&desc.name)
            };
            (desc.clsid, machine)
        })
        .collect();
    let transport = Arc::new(Transport::new(network, seed));
    let overhead = Arc::new(OverheadMeter::new());
    rt.add_hook(Arc::new(StaticPlacementRte {
        placement,
        transport,
        overhead: overhead.clone(),
    }));

    app.run_scenario(&rt, scenario)?;

    Ok(RunReport::capture(
        &rt,
        overhead.total_us(),
        FaultReport::default(),
        None,
    ))
}

/// Executes a scenario with no instrumentation at all (overhead baseline:
/// the original application on one machine).
pub fn run_raw(app: &dyn Application, scenario: &str) -> ComResult<RunReport> {
    let rt = ComRuntime::single_machine();
    app.register(&rt);
    app.run_scenario(&rt, scenario)?;
    Ok(RunReport::capture(&rt, 0, FaultReport::default(), None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::ClassifierKind;
    use coign_com::idl::InterfaceBuilder;
    use coign_com::registry::ApiImports;
    use coign_com::{AppImage, CallCtx, ComObject, Iid, Message, PType, Value};

    /// A minimal two-component application: a GUI shell that repeatedly
    /// pulls a large document from a storage-backed reader.
    struct MiniApp;

    struct Shell {
        reader_clsid: Clsid,
        reader_iid: Iid,
    }
    impl ComObject for Shell {
        fn invoke(
            &self,
            ctx: &CallCtx<'_>,
            _iid: Iid,
            _method: u32,
            msg: &mut Message,
        ) -> ComResult<()> {
            ctx.compute(200);
            let reader = ctx.create(self.reader_clsid, self.reader_iid)?;
            let mut total = 0u64;
            for _ in 0..20 {
                let mut inner = Message::outputs(1);
                reader.call(ctx.rt(), 0, &mut inner)?;
                total += inner.arg(0).and_then(Value::as_blob).unwrap_or(0);
            }
            msg.set(0, Value::I8(total as i64));
            Ok(())
        }
    }

    struct DocReader;
    impl ComObject for DocReader {
        fn invoke(
            &self,
            ctx: &CallCtx<'_>,
            _iid: Iid,
            _method: u32,
            msg: &mut Message,
        ) -> ComResult<()> {
            ctx.compute(50);
            msg.set(0, Value::Blob(50_000));
            Ok(())
        }
    }

    impl Application for MiniApp {
        fn name(&self) -> &str {
            "miniapp"
        }
        fn register(&self, rt: &ComRuntime) {
            let ireader = InterfaceBuilder::new("IMiniReader")
                .method("Read", |m| m.output("data", PType::Blob))
                .build();
            let reader_iid = ireader.iid;
            let reader_clsid =
                rt.registry()
                    .register("MiniReader", vec![ireader], ApiImports::STORAGE, |_, _| {
                        Arc::new(DocReader)
                    });
            let ishell = InterfaceBuilder::new("IMiniShell")
                .method("Run", |m| m.output("total", PType::I8))
                .build();
            rt.registry()
                .register("MiniShell", vec![ishell], ApiImports::GUI, move |_, _| {
                    Arc::new(Shell {
                        reader_clsid,
                        reader_iid,
                    })
                });
        }
        fn scenarios(&self) -> Vec<&'static str> {
            vec!["m_run", "m_twice", "m_direct"]
        }
        fn run_scenario(&self, rt: &ComRuntime, scenario: &str) -> ComResult<()> {
            let ishell = Iid::from_name("IMiniShell");
            let shell = rt.create_instance(Clsid::from_name("MiniShell"), ishell)?;
            shell.call(rt, 0, &mut Message::outputs(1))?;
            if scenario == "m_twice" {
                // A second session: same classifications, more traffic.
                let again = rt.create_instance(Clsid::from_name("MiniShell"), ishell)?;
                again.call(rt, 0, &mut Message::outputs(1))?;
            }
            if scenario == "m_direct" {
                // The root reads the document directly: a reader
                // instantiated outside any shell gets a classification of
                // its own, so this scenario grows the descriptor table.
                let reader = rt.create_instance(
                    Clsid::from_name("MiniReader"),
                    Iid::from_name("IMiniReader"),
                )?;
                reader.call(rt, 0, &mut Message::outputs(1))?;
            }
            Ok(())
        }
        fn image(&self) -> AppImage {
            AppImage::new("miniapp.exe", vec![Clsid::from_name("MiniShell")])
        }
        fn default_placement(&self, _class: &str) -> MachineId {
            // Desktop app: everything on the client (data served remotely is
            // modeled inside the reader in this miniature).
            MachineId::CLIENT
        }
    }

    /// Profiles one scenario and cuts the result for 10BaseT.
    fn profile_and_cut(
        app: &dyn Application,
        scenario: &str,
    ) -> (Arc<InstanceClassifier>, IccProfile, Distribution) {
        let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
        let profile = profile_scenarios_observed(app, &[scenario], &classifier, None).unwrap();
        let network = NetworkProfile::exact(&NetworkModel::ethernet_10baset());
        let dist = choose_distribution(app, &profile, &network).unwrap();
        (classifier, profile, dist)
    }

    /// The plain client–server run over 10BaseT.
    fn plain_run(
        app: &dyn Application,
        scenario: &str,
        classifier: &Arc<InstanceClassifier>,
        dist: &Distribution,
        seed: u64,
    ) -> RunReport {
        run_distributed(
            app,
            scenario,
            classifier,
            dist,
            NetworkModel::ethernet_10baset(),
            seed,
        )
        .unwrap()
    }

    #[test]
    fn end_to_end_pipeline_reduces_communication() {
        let app = MiniApp;
        let (classifier, profile, dist) = profile_and_cut(&app, "m_run");
        assert!(profile.total_messages() > 0);
        // The storage-pinned reader lands on the server; the GUI shell
        // stays on the client; the heavy link is *inside* the call pattern,
        // so the cut severs the shell↔reader edge — the cheapest place.
        let report = plain_run(&app, "m_run", &classifier, &dist, 42);
        assert_eq!(report.total_instances(), 2);
        assert_eq!(report.server_instances(), 1);
        assert!(report.stats.comm_us > 0);
        assert!(report.stats.cross_machine_calls >= 20);
    }

    #[test]
    fn parallel_profiling_matches_sequential_byte_for_byte() {
        let app = MiniApp;
        let scenarios = app.scenarios();
        let seq_classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
        let seq = profile_scenarios_observed(&app, &scenarios, &seq_classifier, None).unwrap();
        assert!(seq.total_messages() > 0);
        for jobs in [1, 2, 4, 8] {
            let par_classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
            let par = profile_scenarios_parallel(&app, &scenarios, &par_classifier, jobs).unwrap();
            assert_eq!(par.encode(), seq.encode(), "profile differs at jobs={jobs}");
            assert_eq!(
                par_classifier.encode(),
                seq_classifier.encode(),
                "classifier table differs at jobs={jobs}"
            );
        }
    }

    #[test]
    fn parallel_profiling_grows_the_shared_classifier() {
        // The root-instantiated reader of m_direct exists in no other
        // scenario, so the shared table must have absorbed a descriptor
        // interned by a worker's fork.
        let app = MiniApp;
        let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
        profile_scenarios_parallel(&app, &["m_run"], &classifier, 4).unwrap();
        let before = classifier.classification_count();
        profile_scenarios_parallel(&app, &["m_run", "m_direct"], &classifier, 4).unwrap();
        assert!(classifier.classification_count() > before);
    }

    #[test]
    fn profiling_reports_overhead_and_instances() {
        let app = MiniApp;
        let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
        let run = profile_scenario(&app, "m_run", &classifier).unwrap();
        assert!(run.report.overhead_us > 0);
        assert_eq!(run.report.total_instances(), 2);
        assert_eq!(run.instance_classes.len(), 2);
        assert!(!run.instance_pairs.is_empty());
        // Profile captured the 20 × 50 KB replies.
        assert!(run.profile.total_bytes() > 1_000_000);
    }

    #[test]
    fn raw_run_has_zero_overhead() {
        let app = MiniApp;
        let report = run_raw(&app, "m_run").unwrap();
        assert_eq!(report.overhead_us, 0);
        assert_eq!(report.stats.comm_us, 0);
        assert!(report.stats.compute_us > 0);
    }

    #[test]
    fn profiling_overhead_is_bounded() {
        // The paper: profiling adds up to 85 % (typically ~45 %). Our model
        // charges per call + per KB; verify it lands in a sane band
        // relative to the raw run rather than dwarfing it.
        let app = MiniApp;
        let raw = run_raw(&app, "m_run").unwrap();
        let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
        let prof = profile_scenario(&app, "m_run", &classifier).unwrap();
        assert!(prof.report.clock_us > raw.clock_us);
        let overhead_frac = (prof.report.clock_us - raw.clock_us) as f64 / raw.clock_us as f64;
        assert!(overhead_frac < 2.0, "overhead {overhead_frac} too large");
    }

    #[test]
    fn default_run_places_data_files_on_server() {
        let app = MiniApp;
        let report = run_default(&app, "m_run", NetworkModel::ethernet_10baset(), 3).unwrap();
        // The shell stays on the client, but the storage-importing reader
        // (the "data file") is pinned to the server, so the 20 × 50 KB
        // document pulls cross the network.
        assert_eq!(report.server_instances(), 1);
        assert!(report.stats.comm_us > 0);
        assert!(report.stats.bytes > 1_000_000);
    }

    #[test]
    fn distributed_runs_are_deterministic_per_seed() {
        let app = MiniApp;
        let (classifier, profile, dist) = profile_and_cut(&app, "m_run");
        let a = plain_run(&app, "m_run", &classifier, &dist, 9);
        let b = plain_run(&app, "m_run", &classifier, &dist, 9);
        assert_eq!(a.clock_us, b.clock_us);
        assert_eq!(a.stats, b.stats);
        // Arming the drift monitor only counts messages: same report.
        let monitored = execute(Run {
            baseline: Some(&profile),
            ..Run::new(
                &app,
                "m_run",
                &classifier,
                &dist,
                NetworkModel::ethernet_10baset(),
                9,
            )
        })
        .unwrap();
        assert_eq!(monitored.report, a);
        assert!(monitored.drift.is_some());
    }

    #[test]
    fn zero_fault_recovery_run_is_bit_identical_to_plain_distributed() {
        use coign_dcom::CallPolicy;
        let app = MiniApp;
        let (classifier, profile, dist) = profile_and_cut(&app, "m_run");
        let plain = plain_run(&app, "m_run", &classifier, &dist, 9);
        let recovering = run_distributed_recovering(
            &app,
            "m_run",
            &classifier,
            &dist,
            &profile,
            NetworkModel::ethernet_10baset(),
            9,
            FaultPlan::none(),
            CallPolicy::default(),
            9,
            crate::recovery::RecoveryConfig::default(),
        )
        .unwrap();
        recovering.outcome.unwrap();
        // The self-healing machinery must be inert on a clean wire: same
        // clock, same stats, same placements as the plain runner.
        assert_eq!(recovering.report.clock_us, plain.clock_us);
        assert_eq!(recovering.report.stats, plain.stats);
        assert_eq!(
            recovering.report.instance_placements,
            plain.instance_placements
        );
        let coord = &recovering.coordinator;
        assert_eq!(coord.recovery_count(), 0);
        assert_eq!(coord.epoch(), 0);
        assert_eq!(coord.migration_count(), 0);
        assert_eq!(coord.cold_solves(), 1, "only the base solve ran");
        assert!(coord.dead_machines().is_empty());
    }

    #[test]
    fn machine_death_mid_run_recovers_with_a_warm_resolve() {
        use coign_dcom::{CallPolicy, TimeWindow};
        let app = MiniApp;
        let (classifier, profile, dist) = profile_and_cut(&app, "m_run");
        let plain = plain_run(&app, "m_run", &classifier, &dist, 9);
        // Kill the server a third of the way through the run and never
        // bring it back.
        let plan = FaultPlan::none().with_machine_down(
            MachineId::SERVER,
            TimeWindow::new(plain.clock_us / 3, u64::MAX),
        );
        let run = run_distributed_recovering(
            &app,
            "m_run",
            &classifier,
            &dist,
            &profile,
            NetworkModel::ethernet_10baset(),
            9,
            plan,
            CallPolicy::default(),
            9,
            crate::recovery::RecoveryConfig::default(),
        )
        .unwrap();
        // The scenario survives: the breaker trips, the cut is re-solved
        // with the server pinned dead, and the reader migrates client-side.
        run.outcome.unwrap();
        let coord = &run.coordinator;
        assert_eq!(coord.recovery_count(), 1, "exactly one recovery");
        assert!(coord.dead_machines().contains(&MachineId::SERVER));
        assert_eq!(coord.epoch(), 1);
        assert!(
            coord.warm_solves() >= 1,
            "recovery re-solve is a warm solve"
        );
        assert_eq!(coord.cold_solves(), 1, "only the base solve is cold");
        assert!(coord.migration_count() >= 1, "the reader moved");
        assert!(coord.migrated_state_bytes() > 0);
        assert_eq!(coord.double_executions(), 0);
        // The post-recovery placement satisfies every constraint with the
        // dead machine excluded.
        coord.validate().unwrap();
        // Everything now lives on the client.
        for (_, machine) in &run.report.instance_placements {
            assert_eq!(*machine, MachineId::CLIENT);
        }
        let event = &coord.events()[0];
        assert_eq!(
            event.trigger,
            crate::recovery::RecoveryTrigger::MachineDeath
        );
        assert_eq!(event.dead_machine, Some(MachineId::SERVER));
    }

    /// A shell driving a storage-pinned counter component: each logical
    /// call increments a shared ledger exactly once, so any re-execution
    /// under the recovery retry protocol is directly observable.
    struct CountingApp {
        executions: Arc<std::sync::atomic::AtomicU64>,
    }

    struct CountShell {
        counter_clsid: Clsid,
        counter_iid: Iid,
    }
    impl ComObject for CountShell {
        fn invoke(
            &self,
            ctx: &CallCtx<'_>,
            _iid: Iid,
            _method: u32,
            msg: &mut Message,
        ) -> ComResult<()> {
            ctx.compute(100);
            let counter = ctx.create(self.counter_clsid, self.counter_iid)?;
            for _ in 0..12 {
                let mut inner = Message::outputs(1);
                counter.call(ctx.rt(), 0, &mut inner)?;
            }
            msg.set(0, Value::I8(12));
            Ok(())
        }
    }

    struct CountServer {
        executions: Arc<std::sync::atomic::AtomicU64>,
    }
    impl ComObject for CountServer {
        fn invoke(
            &self,
            ctx: &CallCtx<'_>,
            _iid: Iid,
            _method: u32,
            msg: &mut Message,
        ) -> ComResult<()> {
            ctx.compute(50);
            self.executions
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            msg.set(0, Value::Blob(20_000));
            Ok(())
        }
    }

    impl Application for CountingApp {
        fn name(&self) -> &str {
            "countapp"
        }
        fn register(&self, rt: &ComRuntime) {
            let icounter = InterfaceBuilder::new("ICounter")
                .method("Bump", |m| m.output("data", PType::Blob))
                .build();
            let counter_iid = icounter.iid;
            let executions = self.executions.clone();
            let counter_clsid = rt.registry().register(
                "CountServer",
                vec![icounter],
                ApiImports::STORAGE,
                move |_, _| {
                    Arc::new(CountServer {
                        executions: executions.clone(),
                    })
                },
            );
            let ishell = InterfaceBuilder::new("ICountShell")
                .method("Run", |m| m.output("total", PType::I8))
                .build();
            rt.registry()
                .register("CountShell", vec![ishell], ApiImports::GUI, move |_, _| {
                    Arc::new(CountShell {
                        counter_clsid,
                        counter_iid,
                    })
                });
        }
        fn scenarios(&self) -> Vec<&'static str> {
            vec!["count"]
        }
        fn run_scenario(&self, rt: &ComRuntime, _scenario: &str) -> ComResult<()> {
            let ishell = Iid::from_name("ICountShell");
            let shell = rt.create_instance(Clsid::from_name("CountShell"), ishell)?;
            shell.call(rt, 0, &mut Message::outputs(1))?;
            Ok(())
        }
        fn image(&self) -> AppImage {
            AppImage::new("countapp.exe", vec![Clsid::from_name("CountShell")])
        }
        fn default_placement(&self, _class: &str) -> MachineId {
            MachineId::CLIENT
        }
    }

    #[test]
    fn recovered_calls_execute_exactly_once() {
        use coign_dcom::{CallPolicy, TimeWindow};
        let executions = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let app = CountingApp {
            executions: executions.clone(),
        };
        let (classifier, profile, dist) = profile_and_cut(&app, "count");
        let plain = plain_run(&app, "count", &classifier, &dist, 9);
        let profiling_and_plain = executions.load(std::sync::atomic::Ordering::SeqCst);
        assert!(
            profiling_and_plain >= 24,
            "profiling + plain run both count"
        );
        // Kill the server mid-run at several different instants: whichever
        // side of the execute/charge boundary the death lands on, every
        // logical call must execute exactly once.
        for fraction in [4u64, 3, 2] {
            executions.store(0, std::sync::atomic::Ordering::SeqCst);
            let plan = FaultPlan::none().with_machine_down(
                MachineId::SERVER,
                TimeWindow::new(plain.clock_us / fraction, u64::MAX),
            );
            let run = run_distributed_recovering(
                &app,
                "count",
                &classifier,
                &dist,
                &profile,
                NetworkModel::ethernet_10baset(),
                9,
                plan,
                CallPolicy::default(),
                9,
                crate::recovery::RecoveryConfig::default(),
            )
            .unwrap();
            run.outcome.unwrap();
            assert_eq!(
                executions.load(std::sync::atomic::Ordering::SeqCst),
                12,
                "every logical call executes exactly once (death at 1/{fraction})"
            );
            assert_eq!(run.coordinator.double_executions(), 0);
            run.coordinator.validate().unwrap();
        }
    }
}
