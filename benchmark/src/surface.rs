//! The measured surface: every call the benchmark makes into the program.
//!
//! Workloads never name a `coign*` crate; they go through this file, so a
//! refactor of the program (ROADMAP "one execution core") sees in one place
//! which public signatures the benchmark depends on. Crate-root re-exports
//! are used where they exist. `README.md` lists this surface; changing a
//! signature used here needs a `benchmark` issue of its own.

use std::collections::HashMap;
use std::sync::Arc;

use coign::classifier::ClassifierKind;
use coign::icc::IccGraph;
use coign::lint::{analyze_replication, DiagnosticSink};
use coign::logger::NullLogger;
use coign::multiway::{
    analyze_multiway_with_replication, anchor_unpinned_machines, derive_tier_constraints,
    replicate_for_distribution, ReplicationPlan,
};
use coign::predict::predict_execution_us;
use coign::recovery::RecoverySolver;
use coign::runtime::{derive_constraints, profile_scenarios_observed, profile_scenarios_parallel};
use coign::{rewriter, CoignRte};
use coign_com::{Clsid, ComRuntime, EventQueue, Iid};
use coign_dcom::batch::LinkKey;
use coign_dcom::{LinkBatcher, TimeWindow};
use coign_flow::{min_cut, min_cut_invocations, FlowNetwork};
use coign_gen::explore::{explore, ExploreOptions};
use coign_gen::{GenSpec, GeneratedApp};
use coign_obs::metrics::quantile_from_buckets;
use coign_obs::Obs;

pub use coign::analysis::Distribution;
pub use coign::constraints::Constraint;
pub use coign::multiway::ReplicaRouter;
pub use coign::recovery::RecoveryConfig;
pub use coign::runtime::{choose_distribution, profile_scenario, ProfileRun};
pub use coign::sweep::{sweep_profile, SweepGrid, SweepMode};
pub use coign::{
    analyze, run_default, run_distributed, run_distributed_faulty, run_distributed_recovering,
    run_raw, serve, Application, ClassificationId, IccProfile, InstanceClassifier, RecoveryRun,
    RunReport, ServeOptions, ServeReport,
};
pub use coign_com::{AppImage, ComResult, MachineId};
pub use coign_dcom::{CallPolicy, FaultPlan, NetworkModel, NetworkProfile};
pub use coign_flow::{MaxFlowAlgorithm, INFINITE};
pub use coign_gen::explore::ExploreReport;
pub use coign_gen::GenSize;
pub use coign_obs::TimeSeries;

/// A shared application handle.
pub type App = Arc<dyn Application>;

// ---------------------------------------------------------------------------
// Applications and shared fixtures
// ---------------------------------------------------------------------------

/// Every `(application, scenario)` of the paper's Table 1, in its order.
pub fn table1() -> Vec<(App, &'static str)> {
    let mut apps: HashMap<&'static str, App> = HashMap::new();
    coign_apps::scenarios::all_scenarios()
        .iter()
        .map(|s| {
            let app = apps
                .entry(s.app)
                .or_insert_with(|| {
                    coign_apps::scenarios::app_by_name(s.app).expect("Table 1 names a known app")
                })
                .clone();
            (app, s.name)
        })
        .collect()
}

/// One of the paper's applications by name (`octarine`, `photodraw`,
/// `benefits`).
pub fn paper_app(name: &str) -> App {
    coign_apps::scenarios::app_by_name(name).expect("known paper application")
}

/// The generated application `gen:<seed>:<size>`.
pub fn generated_app(seed: u64, size: GenSize) -> App {
    Arc::new(GeneratedApp::new(GenSpec::new(seed, size)))
}

/// A fresh classifier of the paper's default kind (internal-function
/// called-by).
pub fn new_classifier() -> Arc<InstanceClassifier> {
    Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb))
}

/// The experimental network of the paper's §4: isolated 10BaseT Ethernet.
pub fn ethernet() -> NetworkModel {
    NetworkModel::ethernet_10baset()
}

/// The network profile the analysis engine measures before cutting.
pub fn measured_network(network: &NetworkModel, seed: u64) -> NetworkProfile {
    NetworkProfile::measure(network, 40, seed)
}

/// The analytic network profile (no measurement noise).
pub fn exact_network(network: &NetworkModel) -> NetworkProfile {
    NetworkProfile::exact(network)
}

// ---------------------------------------------------------------------------
// Pipeline: instrument → profile → analyze → realize → run
// ---------------------------------------------------------------------------

/// `rewriter::instrument` over the application's modeled binary.
pub fn instrument(app: &dyn Application, classifier: &InstanceClassifier) -> AppImage {
    let mut image = app.image();
    rewriter::instrument(&mut image, classifier);
    image
}

/// `rewriter::accumulate_profile`: folds a run's profile into the image's
/// configuration record.
pub fn accumulate_profile(image: &mut AppImage, profile: &IccProfile) -> ComResult<()> {
    rewriter::accumulate_profile(image, profile)
}

/// `rewriter::realize`: writes the chosen distribution into the image.
pub fn realize(
    image: &mut AppImage,
    classifier: &InstanceClassifier,
    distribution: &Distribution,
) -> ComResult<()> {
    rewriter::realize(image, classifier, distribution)
}

/// The distribution a realized image carries (decoded from its record).
pub fn realized_distribution(image: &AppImage) -> ComResult<Option<Distribution>> {
    Ok(rewriter::read_config(image)?.distribution)
}

/// `runtime::derive_constraints`.
pub fn constraints_of(app: &dyn Application, profile: &IccProfile) -> Vec<Constraint> {
    derive_constraints(app, profile)
}

/// Table 5's predicted execution time of the distributed run, µs.
pub fn predicted_execution_us(
    run: &ProfileRun,
    distribution: &Distribution,
    network: &NetworkProfile,
) -> f64 {
    predict_execution_us(
        run.report.stats.compute_us,
        run.report.stats.calls,
        &run.profile,
        distribution,
        network,
    )
}

/// One scenario under `CoignRte::profiling` with a `NullLogger`: the
/// interception, classifier and informer-sizing cost of profiling without
/// the summarizing logger. Returns the intercepted call count.
pub fn profile_with_null_logger(
    app: &dyn Application,
    scenario: &str,
    classifier: &Arc<InstanceClassifier>,
) -> ComResult<u64> {
    let rt = ComRuntime::single_machine();
    app.register(&rt);
    classifier.begin_execution();
    let rte = Arc::new(CoignRte::profiling(
        classifier.clone(),
        Arc::new(NullLogger),
    ));
    rt.add_hook(rte);
    app.run_scenario(&rt, scenario)?;
    Ok(rt.stats().calls)
}

/// `profile_scenarios_observed` with the program's own tracer off or on;
/// returns the number of trace events recorded.
pub fn profile_suite_observed(
    app: &dyn Application,
    scenarios: &[&str],
    traced: bool,
) -> ComResult<usize> {
    let classifier = new_classifier();
    if traced {
        let obs = Obs::enabled();
        obs.tracer.set_host_time(false);
        profile_scenarios_observed(app, scenarios, &classifier, Some(&obs))?;
        Ok(obs.tracer.len())
    } else {
        profile_scenarios_observed(app, scenarios, &classifier, None)?;
        Ok(0)
    }
}

/// `profile_scenarios_parallel` on `jobs` workers; returns the encoded
/// merged profile (byte-identical across `jobs` by contract).
pub fn profile_suite_parallel(
    app: &dyn Application,
    scenarios: &[&str],
    jobs: usize,
) -> ComResult<Vec<u8>> {
    let classifier = new_classifier();
    Ok(profile_scenarios_parallel(app, scenarios, &classifier, jobs)?.encode())
}

// ---------------------------------------------------------------------------
// Partitioning: ICC graph, min-cut, sweeps, recovery solver, multiway
// ---------------------------------------------------------------------------

/// One undirected edge of a synthetic communication graph.
pub struct SynthEdge {
    pub a: u32,
    pub b: u32,
    pub messages: u32,
    pub bytes_per_message: u64,
}

/// A synthetic communication graph the benchmark generates: nodes
/// `1..=nodes`, edges, and the nodes pinned to each side.
pub struct SynthGraph {
    pub nodes: u32,
    pub edges: Vec<SynthEdge>,
    pub pin_client: Vec<u32>,
    pub pin_server: Vec<u32>,
}

/// Records a synthetic graph as an `IccProfile` plus its constraint set.
pub fn synthetic_profile(graph: &SynthGraph) -> (IccProfile, Vec<Constraint>) {
    let iid = Iid::from_name("ISynth");
    let mut profile = IccProfile::new();
    for node in 1..=graph.nodes {
        profile.record_instance(
            ClassificationId(node),
            Clsid::from_name(&format!("Synth{}", node % 64)),
        );
    }
    for edge in &graph.edges {
        for m in 0..edge.messages {
            profile.record_message(
                ClassificationId(edge.a),
                ClassificationId(edge.b),
                iid,
                m % 4,
                edge.bytes_per_message,
            );
        }
    }
    let mut constraints = vec![Constraint::PinClient(ClassificationId::ROOT)];
    constraints.extend(
        graph
            .pin_client
            .iter()
            .map(|n| Constraint::PinClient(ClassificationId(*n))),
    );
    constraints.extend(
        graph
            .pin_server
            .iter()
            .map(|n| Constraint::PinServer(ClassificationId(*n))),
    );
    (profile, constraints)
}

/// Shape of a concrete ICC graph.
pub struct IccShape {
    pub nodes: usize,
    pub edges: usize,
    /// Σ edge capacities in the flow network's fixed-point units.
    pub capacity_sum: u128,
    /// Σ edge weights, µs: the communication time if every edge crossed.
    pub total_time_us: f64,
}

/// `IccGraph::build` plus the shape the capacity-ceiling guard needs.
pub fn icc_shape(profile: &IccProfile, network: &NetworkProfile) -> IccShape {
    let graph = IccGraph::build(profile, network);
    IccShape {
        nodes: graph.node_count(),
        edges: graph.weights_us.len(),
        capacity_sum: graph
            .weights_us
            .values()
            .map(|w| u128::from(IccGraph::capacity_of(*w)))
            .sum(),
        total_time_us: graph.total_time_us(),
    }
}

/// The network profile of one sweep grid point (what `sweep_profile`
/// concretizes the graph against at that point).
pub fn grid_point_network(latency_us: f64, bandwidth_bps: f64) -> NetworkProfile {
    NetworkProfile::exact(&NetworkModel::new("grid", latency_us, bandwidth_bps))
}

/// A raw flow network over the same synthetic graph, for timing
/// `coign_flow::min_cut` without the analysis engine around it. Edge
/// capacities are `messages · bytes`; pins are infinite edges.
pub fn synthetic_flow_network(graph: &SynthGraph) -> (FlowNetwork, usize, usize) {
    let n = graph.nodes as usize + 1;
    let (source, sink) = (n, n + 1);
    let mut flow = FlowNetwork::new(n + 2);
    for edge in &graph.edges {
        flow.add_undirected(
            edge.a as usize,
            edge.b as usize,
            u64::from(edge.messages) * edge.bytes_per_message,
        );
    }
    flow.add_undirected(source, 0, INFINITE);
    for node in &graph.pin_client {
        flow.add_undirected(source, *node as usize, INFINITE);
    }
    for node in &graph.pin_server {
        flow.add_undirected(*node as usize, sink, INFINITE);
    }
    (flow, source, sink)
}

/// `coign_flow::min_cut` on a copy of `network`; returns the cut value.
pub fn raw_min_cut(
    network: &FlowNetwork,
    source: usize,
    sink: usize,
    algorithm: MaxFlowAlgorithm,
) -> u64 {
    let mut flow = network.clone();
    min_cut(&mut flow, source, sink, algorithm).cut_value
}

/// Process-wide count of `min_cut`/`min_cut_warm` invocations so far.
pub fn mincut_invocations() -> u64 {
    min_cut_invocations()
}

/// `RecoverySolver`: the base solve, then the warm re-solve after the
/// server dies. Returns `(warm_solves, cold_solves)`.
pub fn recovery_resolve(
    profile: &IccProfile,
    network: &NetworkProfile,
    constraints: &[Constraint],
) -> ComResult<(u64, u64)> {
    let graph = IccGraph::build(profile, network);
    let mut solver = RecoverySolver::new(&graph, constraints);
    solver.solve(None)?;
    solver.solve(Some(MachineId::SERVER))?;
    Ok((solver.warm_solves(), solver.cold_solves()))
}

/// What a multiway placement produced.
pub struct MultiwayOutcome {
    pub heuristic_cut_us: f64,
    pub refined_cut_us: f64,
    pub replicas: usize,
    pub placement: Distribution,
}

/// Inputs of a three-machine placement of one application: its merged
/// profile, tier constraints with every machine anchored, and the
/// lint-derived replication plan.
pub struct MultiwayCase {
    profile: IccProfile,
    network: NetworkProfile,
    constraints: Vec<coign::multiway::MultiwayConstraint>,
    plan: ReplicationPlan,
}

/// Machines of the multiway placement.
pub const MULTIWAY_MACHINES: usize = 3;

/// Profiles `scenarios` and derives the multiway inputs.
pub fn multiway_case(app: &dyn Application, scenarios: &[&str]) -> ComResult<MultiwayCase> {
    let classifier = new_classifier();
    let profile = profile_scenarios_observed(app, scenarios, &classifier, None)?;
    let network = exact_network(&ethernet());
    let rt = ComRuntime::single_machine();
    app.register(&rt);
    let registry = rt.registry();
    let mut constraints = derive_tier_constraints(
        &profile,
        registry,
        MachineId::CLIENT,
        MachineId((MULTIWAY_MACHINES - 1) as u16),
    );
    let extra = anchor_unpinned_machines(&profile, &network, &constraints, MULTIWAY_MACHINES)?;
    constraints.extend(extra);
    let mut sink = DiagnosticSink::new();
    let report = analyze_replication(registry, &mut sink);
    let plan = ReplicationPlan::from_report(&report, &profile, registry);
    Ok(MultiwayCase {
        profile,
        network,
        constraints,
        plan,
    })
}

/// `analyze_multiway_with_replication`, with the plan or with none.
pub fn multiway_place(case: &MultiwayCase, replicate: bool) -> ComResult<MultiwayOutcome> {
    let empty = ReplicationPlan::empty();
    let placed = analyze_multiway_with_replication(
        &case.profile,
        &case.network,
        &case.constraints,
        MULTIWAY_MACHINES,
        if replicate { &case.plan } else { &empty },
    )?;
    Ok(MultiwayOutcome {
        heuristic_cut_us: placed.heuristic_cut_us,
        refined_cut_us: placed.distribution.predicted_comm_us,
        replicas: placed.replicas.len(),
        placement: placed.distribution,
    })
}

// ---------------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------------

/// A generated application profiled and partitioned for `serve`.
pub struct ServeSubject {
    pub app: App,
    pub profile: IccProfile,
    pub distribution: Distribution,
    pub network: NetworkModel,
}

/// Profiles `gen:<seed>` (small) over `g_main` and chooses its 10BaseT
/// distribution — what `coign serve gen:<seed> g_main` does before serving.
pub fn serve_subject(gen_seed: u64) -> ComResult<ServeSubject> {
    let app = generated_app(gen_seed, GenSize::Small);
    let classifier = new_classifier();
    let profile = profile_scenarios_observed(app.as_ref(), &["g_main"], &classifier, None)?;
    let network = ethernet();
    let distribution = choose_distribution(app.as_ref(), &profile, &exact_network(&network))?;
    Ok(ServeSubject {
        app,
        profile,
        distribution,
        network,
    })
}

/// `coign::serve` over a subject.
pub fn serve_run(subject: &ServeSubject, opts: &ServeOptions) -> ComResult<ServeReport> {
    serve(
        &subject.profile,
        &subject.distribution,
        &subject.network,
        opts,
    )
}

/// `serve_traced`: the timeline when `opts.timeline_window_us > 0`, and
/// sampled causal spans into the program's tracer when `opts.trace_sample
/// > 0`. Returns the number of program trace events alongside.
pub fn serve_run_traced(
    subject: &ServeSubject,
    opts: &ServeOptions,
) -> ComResult<(ServeReport, Option<TimeSeries>, usize)> {
    let tracer = (opts.trace_sample > 0).then(|| {
        let t = coign_obs::trace::Tracer::enabled();
        t.set_host_time(false);
        t
    });
    let (report, series) = coign::serve::serve_traced(
        &subject.profile,
        &subject.distribution,
        &subject.network,
        opts,
        tracer.as_ref(),
    )?;
    Ok((report, series, tracer.map_or(0, |t| t.len())))
}

/// Machines other than the client that host a classification — the
/// candidates for a machine death.
pub fn server_machines(distribution: &Distribution) -> Vec<MachineId> {
    let mut victims: Vec<MachineId> = distribution
        .placement
        .values()
        .copied()
        .filter(|m| *m != MachineId::CLIENT)
        .collect();
    victims.sort();
    victims.dedup();
    victims
}

/// The lint-derived replica routing table of a subject (what `coign serve
/// --replicate` installs), or `None` when no legal copy pays for itself.
pub fn replica_router(subject: &ServeSubject) -> Option<ReplicaRouter> {
    let rt = ComRuntime::single_machine();
    subject.app.register(&rt);
    let registry = rt.registry();
    let mut sink = DiagnosticSink::new();
    let report = analyze_replication(registry, &mut sink);
    let plan = ReplicationPlan::from_report(&report, &subject.profile, registry);
    let machines = subject
        .distribution
        .placement
        .values()
        .map(|m| m.0 as usize + 1)
        .max()
        .unwrap_or(2)
        .max(2);
    let replicas = replicate_for_distribution(
        &subject.profile,
        &exact_network(&subject.network),
        &subject.distribution,
        machines,
        &plan,
        &[],
    );
    (!replicas.is_empty()).then(|| ReplicaRouter::new(&subject.distribution, &replicas))
}

/// A fault plan with every kind of fault `FaultPlan::seeded` draws from —
/// a permanent machine death, message loss on all links, a latency spike —
/// at fixed shares of the horizon, so the plan's shape does not change
/// with the seed (only the fault RNG's draws do).
pub fn degraded_plan(victim: MachineId, death_at_us: u64, horizon_us: u64) -> FaultPlan {
    FaultPlan::none()
        .with_machine_down(victim, TimeWindow::from(death_at_us))
        .with_loss(0.03)
        .with_spike(
            3.0,
            TimeWindow::new(horizon_us / 16, horizon_us / 16 + horizon_us / 8),
        )
}

/// A server-death plan for the RTE path (`run_distributed_recovering`).
pub fn server_death_plan(at_us: u64) -> FaultPlan {
    FaultPlan::none().with_machine_down(MachineId::SERVER, TimeWindow::new(at_us, u64::MAX))
}

/// A loss-and-spike plan for the RTE path (`run_distributed_faulty`).
pub fn lossy_plan(horizon_us: u64) -> FaultPlan {
    FaultPlan::none()
        .with_loss(0.03)
        .with_spike(3.0, TimeWindow::new(horizon_us / 8, horizon_us / 4))
}

/// Figures read off a serve timeline.
pub struct TimelineStats {
    pub queue_peak: u64,
    /// Busiest link's busy-µs over the horizon, per shard (every shard has
    /// its own copy of each link; the timeline merges them by link).
    pub link_util_max: f64,
    /// Σ per-link busy-µs and Σ per-class busy-µs over the run.
    pub link_busy_us: u64,
    pub class_busy_us: u64,
    /// Recorder updates: arrivals + completions + calls + batch flushes.
    pub events: u64,
}

/// Summarizes `TimeSeries::windows()`.
pub fn timeline_stats(series: &TimeSeries, horizon_us: u64, shards: usize) -> TimelineStats {
    let windows = series.windows();
    let mut per_link: HashMap<_, u64> = HashMap::new();
    let mut stats = TimelineStats {
        queue_peak: 0,
        link_util_max: 0.0,
        link_busy_us: 0,
        class_busy_us: 0,
        events: 0,
    };
    for w in &windows {
        stats.queue_peak = stats.queue_peak.max(w.queue_depth_peak);
        for (link, busy) in &w.link_busy_us {
            *per_link.entry(*link).or_default() += busy;
            stats.link_busy_us += busy;
        }
        stats.class_busy_us += w.class_busy_us.values().sum::<u64>();
        stats.events += w.arrivals + w.completions + w.calls + w.batches;
    }
    let busiest = per_link.values().copied().max().unwrap_or(0);
    stats.link_util_max = busiest as f64 / (horizon_us.max(1) as f64 * shards.max(1) as f64);
    stats
}

/// p99 session latency (µs) over timeline windows `[lo, hi)`.
pub fn timeline_p99_us(series: &TimeSeries, lo: usize, hi: usize) -> f64 {
    let bounds = series.latency_bounds().to_vec();
    let windows = series.windows();
    let mut merged = vec![0u64; bounds.len() + 1];
    for w in windows.get(lo..hi.min(windows.len())).unwrap_or(&[]) {
        for (m, c) in merged.iter_mut().zip(&w.latency_counts) {
            *m += *c;
        }
    }
    quantile_from_buckets(&bounds, &merged, 0.99).unwrap_or(0.0)
}

/// Share of sessions whose latency fell at or under `limit_us`, counted
/// exactly from the report's histogram (`limit_us` must be a bucket bound).
pub fn share_within(report: &ServeReport, limit_us: u64) -> f64 {
    let bounds = report.latency.bounds();
    let counts = report.latency.bucket_counts();
    let idx = bounds
        .iter()
        .position(|b| *b == limit_us)
        .expect("latency limit is a histogram bucket bound");
    let within: u64 = counts[..=idx].iter().sum();
    within as f64 / report.latency.count().max(1) as f64
}

// ---------------------------------------------------------------------------
// DES layer probes
// ---------------------------------------------------------------------------

/// `EventQueue` schedule+pop pairs while holding `depth` entries; returns
/// the operations performed (2 per pair).
pub fn event_queue_churn(depth: usize, pairs: u64) -> u64 {
    let mut queue: EventQueue<u64> = EventQueue::with_capacity(depth + 1);
    for i in 0..depth as u64 {
        queue.schedule(i * 7 % 1_000, i);
    }
    let mut acc = 0u64;
    for i in 0..pairs {
        let (at, payload) = queue.pop().expect("queue holds `depth` entries");
        acc = acc.wrapping_add(payload);
        queue.schedule(at + 50 + (i * 31) % 400, payload);
    }
    std::hint::black_box(acc);
    pairs * 2
}

/// `LinkBatcher` enqueue+drain in batches of `batch` messages; returns the
/// messages pushed through.
pub fn link_batcher_churn(batch: usize, batches: u64) -> u64 {
    let link: LinkKey = (MachineId::CLIENT, MachineId::SERVER);
    let mut batcher: LinkBatcher<u64> = LinkBatcher::new(150);
    let mut now = 0u64;
    let mut drained = 0u64;
    for b in 0..batches {
        for m in 0..batch as u64 {
            batcher.enqueue(link, 256 + m, b, now);
            now += 3;
        }
        drained += batcher.drain(link).len() as u64;
        now += 150;
    }
    std::hint::black_box(drained)
}

// ---------------------------------------------------------------------------
// Schedule-space exploration
// ---------------------------------------------------------------------------

/// `gen::explore::explore` over `gen:<seed>:medium` `g_main` with drift
/// arming and replicas on. Fault instants are `faults_at` when given, else
/// the program's even grid of 128 instants over the fault-free horizon;
/// each instant is run under every breaker threshold, drift off and on.
pub fn explore_medium(
    gen_seed: u64,
    master_seed: u64,
    faults_at: Option<&[u64]>,
    thresholds: &[u32],
    jobs: usize,
) -> ComResult<ExploreReport> {
    let opts = ExploreOptions {
        faults_at: faults_at.map(<[u64]>::to_vec),
        depth: 1,
        thresholds: thresholds.to_vec(),
        with_drift: true,
        with_replicas: true,
        jobs,
        seed: master_seed,
        ..ExploreOptions::default()
    };
    explore(GenSpec::new(gen_seed, GenSize::Medium), "g_main", &opts)
}

/// `(ok, recovered, failed)` interleavings, read from the summary's
/// `outcomes:` line (the text `scripts/expected` pins).
pub fn explore_outcomes(report: &ExploreReport) -> Option<(u64, u64, u64)> {
    let line = report
        .summary
        .lines()
        .find_map(|l| l.strip_prefix("outcomes: "))?;
    let mut counts = line.split_whitespace().map(|field| {
        let (_, value) = field.split_once('=')?;
        value.parse::<u64>().ok()
    });
    Some((counts.next()??, counts.next()??, counts.next()??))
}

/// Counters read off a finished recovering run.
#[derive(PartialEq, Debug)]
pub struct RecoveryCounters {
    pub recoveries: u64,
    pub warm_solves: u64,
    pub cold_solves: u64,
    pub migrations: u64,
    pub migrated_bytes: u64,
    pub redelivered_calls: u64,
    pub double_executions: u64,
    pub health_transitions: u64,
    pub placement_valid: bool,
}

/// Reads the recovery coordinator's and health monitor's counters.
pub fn recovery_counters(run: &RecoveryRun) -> RecoveryCounters {
    let c = &run.coordinator;
    let h = c.health().stats();
    RecoveryCounters {
        recoveries: c.recovery_count(),
        warm_solves: c.warm_solves(),
        cold_solves: c.cold_solves(),
        migrations: c.migration_count(),
        migrated_bytes: c.migrated_state_bytes(),
        redelivered_calls: c.redelivered_calls(),
        double_executions: c.double_executions(),
        health_transitions: h.opens + h.probes + h.closes,
        placement_valid: c.validate().is_ok(),
    }
}
