//! The Coign tool chain as file-based commands.
//!
//! The paper's second usage model (§6): "Coign is applied onsite by the
//! application user or system administrator. The user enables application
//! profiling through a simple GUI … the GUI triggers post-profiling
//! analysis and writes the distribution model into the application. In
//! essence, the user has created a customized version of the distributed
//! application without any knowledge of the underlying details."
//!
//! This crate is that front end, minus the GUI: each command reads an
//! application image from disk, transforms it, and writes it back — the
//! instrumented binary is a real artifact that survives between commands.
//!
//! ```text
//! coign instrument octarine app.cimg     # insert the Coign runtime
//! coign check app.cimg [--json]          # static analysis, no profiling needed
//! coign profile app.cimg o_oldwp7 --jobs 4   # run scenarios (parallel), accumulate logs
//! coign analyze app.cimg ethernet        # cut the graph, realize the result
//! coign sweep app.cimg --json            # partition across a network grid (Dinic-checked)
//! coign show app.cimg                    # inspect the configuration record
//! coign run app.cimg o_oldwp7            # execute distributed, report times
//! coign hotspots app.cimg                # communication hot spots (§6)
//! coign script app.cimg steps.txt        # profile a scripted scenario
//! coign dot app.cimg graph.dot           # export the ICC graph (Figs 4-8)
//! coign strip app.cimg                   # restore the original binary
//! ```

pub mod args;

use coign::analysis::Distribution;
use coign::application::Application;
use coign::classifier::{ClassifierKind, InstanceClassifier};
use coign::config::{ConfigRecord, RuntimeMode};
use coign::jobs::run_indexed;
use coign::lint::{analyze_replication, DiagnosticSink};
use coign::multiway::{derive_replica_router, ReplicaRouter};
use coign::recovery::RecoveryConfig;
use coign::report;
use coign::rewriter;
use coign::runtime::{
    check_constraints, choose_distribution, derive_constraints, execute,
    profile_scenarios_crosschecked, Run,
};
use coign::sweep::{sweep, SweepGrid, SweepMode};
use coign_apps::scenarios::app_by_name;
use coign_com::{AppImage, ComError, ComResult, ComRuntime, MachineId};
use coign_dcom::{Fault, FaultPlan, LinkSelector, NetworkModel, NetworkProfile, TimeWindow};
use coign_gen::explore::ExploreOptions;
use coign_gen::{GenSize, GenSpec, GeneratedApp};
use coign_obs::Obs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Samples per size when measuring a network profile.
const PROFILE_SAMPLES: usize = 40;
/// Seed for the CLI's deterministic measurements.
const SEED: u64 = 0x000C_0161;

/// Resolves the application that owns an image (by the image's name).
/// Generated images resolve through their name alone — `gen-<seed>-<size>`
/// *is* the application, re-derivable from the seed on any machine.
pub fn app_for_image(image: &AppImage) -> ComResult<Arc<dyn Application>> {
    let name = image.name.trim_end_matches(".exe");
    app_by_name(name)
        .or_else(|| coign_gen::app_for_name(name))
        .ok_or_else(|| {
            ComError::App(format!(
                "no application registered for image `{}` \
                 (known: octarine, photodraw, benefits, gen-<seed>-<size>)",
                image.name
            ))
        })
}

/// In-process memo of materialized generated images, keyed by (seed, size).
/// A process that resolves the same `gen:` address repeatedly (tests,
/// multi-command drivers) pays generation + instrumentation at
/// most once and skips even the `stat` afterwards.
static GEN_IMAGE_CACHE: std::sync::OnceLock<
    std::sync::Mutex<std::collections::HashMap<GenSpec, PathBuf>>,
> = std::sync::OnceLock::new();

/// Resolves an image argument: a plain path passes through, while the
/// `gen:<seed>[:<size>]` form addresses a generated application — its
/// instrumented image is materialized on first use under the system temp
/// directory (atomically: temp file + rename), so
/// `coign check/profile/... gen:7` works with no explicit `coign gen
/// --emit` step.
///
/// Materialization is cached at two levels, both keyed by (seed, size):
/// an in-process memo short-circuits repeated resolutions, and the
/// on-disk artifact survives across processes (the tmp+rename write makes
/// concurrent materialization of the same spec safe — last rename wins
/// with identical bytes).
pub fn resolve_image_spec(spec: &str) -> ComResult<PathBuf> {
    let Some(rest) = spec.strip_prefix("gen:") else {
        return Ok(PathBuf::from(spec));
    };
    let gspec = coign_gen::parse_gen_spec(rest).ok_or_else(|| {
        ComError::App(format!(
            "bad generated-image address `{spec}` (use gen:<seed> or gen:<seed>:<size> \
             with size small|medium|large)"
        ))
    })?;
    let cache =
        GEN_IMAGE_CACHE.get_or_init(|| std::sync::Mutex::new(std::collections::HashMap::new()));
    if let Some(path) = cache.lock().expect("gen image cache").get(&gspec) {
        if path.exists() {
            return Ok(path.clone());
        }
    }
    let dir = std::env::temp_dir().join("coign-gen");
    std::fs::create_dir_all(&dir)
        .map_err(|e| ComError::App(format!("cannot create {}: {e}", dir.display())))?;
    let path = dir.join(format!("{}.cimg", gspec.stem()));
    if !path.exists() {
        let image = instrumented_image(&GeneratedApp::new(gspec));
        let tmp = dir.join(format!("{}.cimg.tmp-{}", gspec.stem(), std::process::id()));
        std::fs::write(&tmp, image.encode())
            .map_err(|e| ComError::App(format!("cannot write {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, &path)
            .map_err(|e| ComError::App(format!("cannot move {} into place: {e}", tmp.display())))?;
    }
    cache
        .lock()
        .expect("gen image cache")
        .insert(gspec, path.clone());
    Ok(path)
}

/// Parses a network name.
pub fn network_by_name(name: &str) -> ComResult<NetworkModel> {
    Ok(match name {
        "ethernet" | "10baset" => NetworkModel::ethernet_10baset(),
        "isdn" => NetworkModel::isdn(),
        "atm" => NetworkModel::atm155(),
        "san" => NetworkModel::san(),
        other => {
            return Err(ComError::App(format!(
                "unknown network `{other}` (use ethernet, isdn, atm, or san)"
            )))
        }
    })
}

fn load(path: &Path) -> ComResult<AppImage> {
    let bytes = std::fs::read(path)
        .map_err(|e| ComError::App(format!("cannot read {}: {e}", path.display())))?;
    AppImage::decode(&bytes)
}

fn store(path: &Path, image: &AppImage) -> ComResult<()> {
    std::fs::write(path, image.encode())
        .map_err(|e| ComError::App(format!("cannot write {}: {e}", path.display())))
}

/// A freshly instrumented image of `app`: the Coign runtime inserted, an
/// empty classifier table in the configuration record.
fn instrumented_image(app: &dyn Application) -> AppImage {
    let mut image = app.image();
    rewriter::instrument(&mut image, &InstanceClassifier::new(ClassifierKind::Ifcb));
    image
}

/// Loads an image that must already carry profile data — and, when a
/// scenario is named, data for that scenario.
fn load_profiled(path: &Path, scenario: Option<&str>) -> ComResult<(AppImage, ConfigRecord)> {
    let image = load(path)?;
    let record = rewriter::read_config(&image)?;
    if record.profile.total_messages() == 0 {
        return Err(ComError::App(
            "no profile accumulated yet — run `coign profile` first".to_string(),
        ));
    }
    if let Some(scenario) = scenario {
        if !record.profile.scenarios.iter().any(|s| s == scenario) {
            return Err(ComError::App(format!(
                "scenario `{scenario}` was never profiled into this image (profiled: {})",
                record.profile.scenarios.join(", ")
            )));
        }
    }
    Ok((image, record))
}

/// What a realized image runs from: its application, the classifier table
/// and profile it was analyzed with, and the chosen distribution.
struct Realized {
    app: Arc<dyn Application>,
    classifier: Arc<InstanceClassifier>,
    profile: coign::IccProfile,
    distribution: Distribution,
}

/// Loads an image that `coign analyze` has realized. Fast-fails on a
/// distribution whose constraint set no longer holds (e.g. the record was
/// realized against different metadata); the error carries the `coign
/// check` diagnostic report.
fn load_realized(path: &Path) -> ComResult<Realized> {
    let image = load(path)?;
    let record = rewriter::read_config(&image)?;
    if record.mode != RuntimeMode::Distributed {
        return Err(ComError::App(
            "image is not realized — run `coign analyze` first".to_string(),
        ));
    }
    let distribution = record
        .distribution
        .ok_or_else(|| ComError::App("record carries no distribution".to_string()))?;
    let app = app_for_image(&image)?;
    check_constraints(app.as_ref(), &record.profile)?;
    Ok(Realized {
        app,
        classifier: Arc::new(InstanceClassifier::decode(&record.classifier)?),
        profile: record.profile,
        distribution,
    })
}

/// Reads a textual fault plan (see [`FaultPlan::parse`]).
fn read_fault_plan(path: &Path) -> ComResult<FaultPlan> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| ComError::App(format!("cannot read {}: {e}", path.display())))?;
    FaultPlan::parse(&text)
}

/// Folds a profiling pass into the image on disk: the summarized log
/// accumulates and the classifier's grown descriptor table is persisted.
fn store_profile(
    path: &Path,
    image: &mut AppImage,
    profile: &coign::IccProfile,
    classifier: &InstanceClassifier,
) -> ComResult<()> {
    rewriter::accumulate_profile(image, profile)?;
    let mut record = rewriter::read_config(image)?;
    record.classifier = classifier.encode();
    image.set_config_record(record.encode());
    store(path, image)
}

/// `coign instrument <app> <image>` — writes a freshly instrumented image.
pub fn cmd_instrument(app_name: &str, path: &Path) -> ComResult<String> {
    let app = app_by_name(app_name)
        .or_else(|| coign_gen::app_for_name(app_name))
        .ok_or_else(|| ComError::App(format!("unknown application `{app_name}`")))?;
    let image = instrumented_image(app.as_ref());
    store(path, &image)?;
    Ok(format!(
        "instrumented {} -> {} ({} bytes; {} loads first)",
        image.name,
        path.display(),
        image.encode().len(),
        rewriter::COIGN_RTE_DLL
    ))
}

/// `coign check <image> [--json]` — the static analysis pass: remotability
/// of every registered interface, satisfiability of the full constraint
/// set, and well-formedness of the image itself, with **no profiling data
/// required**. Returns `Ok(report)` when no error-level diagnostic fired
/// (exit 0) and `Err(report)` otherwise (exit 1); both sides carry the
/// complete rendered report, human or JSON.
pub fn cmd_check(path: &Path, json: bool) -> Result<String, String> {
    let image = load(path).map_err(|e| format!("error: {e}"))?;
    let app = app_for_image(&image).map_err(|e| format!("error: {e}"))?;
    let sink = coign::lint::check_app_image(&image, app.as_ref());
    let report = if json {
        sink.render_json()
    } else {
        sink.render_human()
    };
    if sink.has_errors() {
        Err(report)
    } else {
        Ok(report)
    }
}

/// `coign profile <image> <scenario>... [--jobs N]` — runs one or more
/// profiling scenarios and accumulates the summarized logs into the
/// image's configuration record.
///
/// With `--jobs N > 1`, scenarios run on worker threads; the merged log
/// and the stored classifier table are byte-identical to a sequential
/// pass regardless of `N` (see
/// [`coign::runtime::profile_scenarios_crosschecked`]).
///
/// Under an observability bundle the command runs under a `profile` phase
/// span, each scenario under a `scenario:<name>` span, and every
/// intercepted call emits an `icc_call` instant.
pub fn cmd_profile(
    path: &Path,
    scenarios: &[&str],
    jobs: usize,
    obs: Option<&Obs>,
) -> ComResult<String> {
    let _span = obs.map(|o| o.tracer.phase_span("profile"));
    if scenarios.is_empty() {
        return Err(ComError::App(
            "no scenario named — run `coign profile <image> <scenario>...`".to_string(),
        ));
    }
    let mut image = load(path)?;
    let record = rewriter::read_config(&image)?;
    let app = app_for_image(&image)?;
    let classifier = Arc::new(InstanceClassifier::decode(&record.classifier)?);
    let (profile, violations) =
        profile_scenarios_crosschecked(app.as_ref(), scenarios, &classifier, jobs, obs)?;
    store_profile(path, &mut image, &profile, &classifier)?;
    if let Some(o) = obs {
        o.registry
            .counter("coign_effect_violations")
            .add(violations.len() as u64);
    }
    let mut out = format!(
        "profiled {} ({} worker(s)): {} messages, {} bytes ({} classifications so far)",
        scenarios.join(", "),
        jobs.max(1).min(scenarios.len()),
        profile.total_messages(),
        profile.total_bytes(),
        classifier.classification_count(),
    );
    for v in &violations {
        out.push_str(&format!(
            "\nwarning COIGN045: {}::{} ({}) declared `{}` but its instance state changed during profiling",
            v.class,
            v.method,
            v.interface,
            v.declared.label(),
        ));
    }
    Ok(out)
}

/// `coign analyze <image> [network]` — chooses a distribution for the
/// accumulated profile and realizes it in the image.
///
/// Under an observability bundle the command runs under an `analyze` phase
/// span, with nested `mincut` (graph cutting) and `rewrite` (image
/// realization) spans.
pub fn cmd_analyze(path: &Path, network_name: &str, obs: Option<&Obs>) -> ComResult<String> {
    let _span = obs.map(|o| o.tracer.phase_span("analyze"));
    let (mut image, record) = load_profiled(path, None)?;
    let app = app_for_image(&image)?;
    let classifier = InstanceClassifier::decode(&record.classifier)?;
    let network = network_by_name(network_name)?;
    let profile = NetworkProfile::measure(&network, PROFILE_SAMPLES, SEED);
    let distribution: Distribution = {
        let _mincut = obs.map(|o| o.tracer.phase_span("mincut"));
        choose_distribution(app.as_ref(), &record.profile, &profile)?
    };
    let (client, server) = (
        distribution.count_on(MachineId::CLIENT),
        distribution.count_on(MachineId::SERVER),
    );
    let predicted = distribution.predicted_comm_us;
    {
        let _rewrite = obs.map(|o| o.tracer.phase_span("rewrite"));
        rewriter::realize(&mut image, &classifier, &distribution)?;
        store(path, &image)?;
    }
    Ok(format!(
        "analyzed for {}: {client} classification(s) on the client, {server} on the server; \
         predicted communication {:.1} ms; {} now loads first",
        profile.network_name,
        predicted / 1000.0,
        rewriter::COIGN_LITE_DLL,
    ))
}

/// `coign sweep <image> [--json]` — evaluates the min-cut partition
/// across a fixed grid of network latency/bandwidth points (one flow
/// network re-parameterized per point, each solve cross-validated against
/// a Dinic solve of a network rebuilt from scratch) and reports where the
/// best distribution changes.
///
/// Under an observability bundle the command runs under a `sweep` phase
/// span and the registry gains the warm/cold solve counts. The sweep itself
/// always runs [`SweepMode::WarmValidated`] — one lift-to-front solve of
/// the re-parameterized network per grid point (the warm count), each
/// cross-validated by a Dinic solve of a rebuilt one (the cold count) — so
/// both counters equal the number of grid points.
pub fn cmd_sweep(path: &Path, json: bool, obs: Option<&Obs>) -> ComResult<String> {
    let _span = obs.map(|o| o.tracer.phase_span("sweep"));
    let (image, record) = load_profiled(path, None)?;
    let app = app_for_image(&image)?;
    let grid = SweepGrid::paper_networks();
    let result = sweep(
        app.as_ref(),
        &record.profile,
        &grid,
        SweepMode::WarmValidated,
    )?;
    if let Some(o) = obs {
        let points = result.points.len() as u64;
        o.registry
            .counter("coign_sweep_warm_solves_total")
            .add(points);
        o.registry
            .counter("coign_sweep_cold_solves_total")
            .add(points);
    }
    if json {
        return Ok(render_sweep_json(&grid, &result));
    }
    let mut out = format!(
        "partition sweep over {} network point(s), {} distinct partition(s):\n",
        result.points.len(),
        result.distinct_partitions(),
    );
    out.push_str("  latency_us bandwidth_B/s    cut_value  predicted_ms  client/server\n");
    for p in &result.points {
        out.push_str(&format!(
            "  {:>10} {:>13} {:>12} {:>13.3} {:>8}/{}\n",
            p.latency_us,
            p.bandwidth_bps,
            p.cut_value,
            p.predicted_comm_us / 1000.0,
            p.client.len(),
            p.server.len(),
        ));
    }
    Ok(out)
}

fn render_sweep_json(grid: &SweepGrid, result: &coign::sweep::SweepResult) -> String {
    let nums = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    let mut out = String::from("{");
    out.push_str(&format!(
        "\"grid\":{{\"latencies_us\":[{}],\"bandwidths_bps\":[{}]}},",
        nums(&grid.latencies_us),
        nums(&grid.bandwidths_bps),
    ));
    out.push_str(&format!(
        "\"distinct_partitions\":{},\"points\":[",
        result.distinct_partitions()
    ));
    for (i, p) in result.points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let server: Vec<String> = p.server.iter().map(|c| format!("\"{c}\"")).collect();
        out.push_str(&format!(
            "{{\"latency_us\":{},\"bandwidth_bps\":{},\"cut_value\":{},\
             \"predicted_comm_us\":{:.3},\"client\":{},\"server\":[{}]}}",
            p.latency_us,
            p.bandwidth_bps,
            p.cut_value,
            p.predicted_comm_us,
            p.client.len(),
            server.join(","),
        ));
    }
    out.push_str("]}");
    out
}

/// Options for `coign place` (`--machines`, `--replicate`, `--json`).
#[derive(Debug, Clone)]
pub struct PlaceOptions {
    /// Number of machines in the topology (≥ 2).
    pub machines: usize,
    /// Permit replication of classes the lint stages prove immutable.
    pub replicate: bool,
    /// Emit the machine-readable JSON record instead of the human report.
    pub json: bool,
}

impl Default for PlaceOptions {
    fn default() -> Self {
        PlaceOptions {
            machines: 3,
            replicate: false,
            json: false,
        }
    }
}

/// `coign place <image> <scenario> [network] [--machines N] [--replicate]
/// [--json]` — partitions the accumulated profile across N machines with
/// the isolation-heuristic multiway cut plus exact warm refinement.
///
/// With `--replicate`, classes the stage-4/5 lints prove immutable
/// ([`coign::lint::analyze_replication`]) may additionally be *copied* onto
/// machines whose local traffic they serve, whenever the copy strictly
/// reduces modeled cut traffic. The report is rendered purely from the
/// resulting placement, so on an application with no replicable classes
/// `--replicate` output is byte-identical to the plain multiway placement.
///
/// Under an observability bundle the command runs under a `place` phase
/// span and the registry gains `coign_replicas_placed` /
/// `coign_replication_gain_us` counters.
pub fn cmd_place(
    path: &Path,
    scenario: &str,
    network_name: &str,
    opts: &PlaceOptions,
    obs: Option<&Obs>,
) -> ComResult<String> {
    use coign::multiway::{
        analyze_multiway_with_replication, anchor_unpinned_machines, derive_tier_constraints,
        ReplicationPlan,
    };

    let _span = obs.map(|o| o.tracer.phase_span("place"));
    let (image, record) = load_profiled(path, Some(scenario))?;
    if opts.machines < 2 {
        return Err(ComError::App(
            "placement needs at least two machines (--machines N)".to_string(),
        ));
    }
    let app = app_for_image(&image)?;
    let rt = ComRuntime::single_machine();
    app.register(&rt);
    let registry = rt.registry();
    let network = network_by_name(network_name)?;
    let profile = NetworkProfile::measure(&network, PROFILE_SAMPLES, SEED);

    // Replication legality comes exclusively from the stage-4/5 lints:
    // without `--replicate` (or without annotation evidence) the plan is
    // empty and the solver provably places zero replicas.
    let plan = if opts.replicate {
        let mut sink = coign::lint::DiagnosticSink::new();
        let report = coign::lint::analyze_replication(registry, &mut sink);
        ReplicationPlan::from_report(&report, &record.profile, registry)
    } else {
        ReplicationPlan::empty()
    };

    let mut constraints = derive_tier_constraints(
        &record.profile,
        registry,
        MachineId::CLIENT,
        MachineId((opts.machines - 1) as u16),
    );
    let extra = anchor_unpinned_machines(&record.profile, &profile, &constraints, opts.machines)?;
    constraints.extend(extra);

    let placement = {
        let _mincut = obs.map(|o| o.tracer.phase_span("mincut"));
        analyze_multiway_with_replication(
            &record.profile,
            &profile,
            &constraints,
            opts.machines,
            &plan,
        )?
    };
    if let Some(o) = obs {
        o.registry
            .counter("coign_replicas_placed")
            .add(placement.replicas.len() as u64);
        o.registry
            .counter("coign_replication_gain_us")
            .add(placement.replication_gain_us().round() as u64);
    }

    let label = |id: coign::ClassificationId| {
        coign::lint::classification_label(&record.profile, registry, id)
    };
    // Name-sorted per-machine rosters, deterministically.
    let mut rosters: Vec<Vec<String>> = vec![Vec::new(); opts.machines];
    for (class, machine) in &placement.distribution.placement {
        rosters[machine.0 as usize].push(label(*class));
    }
    for roster in &mut rosters {
        roster.sort();
    }

    if opts.json {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"app\":\"{}\",\"scenario\":\"{scenario}\",\"network\":\"{}\",\"machines\":{},",
            image.name, profile.network_name, opts.machines
        ));
        out.push_str(&format!(
            "\"heuristic_cut_us\":{:.3},\"predicted_comm_us\":{:.3},\
             \"replicated_comm_us\":{:.3},\"replication_gain_us\":{:.3},",
            placement.heuristic_cut_us,
            placement.distribution.predicted_comm_us,
            placement.replicated_comm_us,
            placement.replication_gain_us(),
        ));
        out.push_str("\"placement\":[");
        for (m, roster) in rosters.iter().enumerate() {
            if m > 0 {
                out.push(',');
            }
            let classes: Vec<String> = roster.iter().map(|c| format!("\"{c}\"")).collect();
            out.push_str(&format!(
                "{{\"machine\":{m},\"classes\":[{}]}}",
                classes.join(",")
            ));
        }
        out.push_str("],\"replicas\":[");
        for (i, replica) in placement.replicas.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"class\":\"{}\",\"machine\":{},\"gain_us\":{:.3}}}",
                label(replica.class),
                replica.machine.0,
                replica.gain_us,
            ));
        }
        out.push_str("]}");
        return Ok(out);
    }

    let mut out = format!(
        "placed {} for {scenario} across {} machine(s) on {}:\n",
        image.name, opts.machines, profile.network_name
    );
    for (m, roster) in rosters.iter().enumerate() {
        out.push_str(&format!("  machine {m}: {}\n", roster.join(", ")));
    }
    out.push_str(&format!(
        "cut: heuristic {:.3} ms, refined {:.3} ms\n",
        placement.heuristic_cut_us / 1000.0,
        placement.distribution.predicted_comm_us / 1000.0,
    ));
    if placement.replicas.is_empty() {
        out.push_str("replicas: none\n");
    } else {
        out.push_str(&format!(
            "replicas: {} (gain {:.3} ms, replicated traffic {:.3} ms)\n",
            placement.replicas.len(),
            placement.replication_gain_us() / 1000.0,
            placement.replicated_comm_us / 1000.0,
        ));
        for replica in &placement.replicas {
            out.push_str(&format!(
                "  + {} -> machine {} (gain {:.3} ms)\n",
                label(replica.class),
                replica.machine.0,
                replica.gain_us / 1000.0,
            ));
        }
    }
    Ok(out)
}

/// Fault-injection options of `coign run` (`--fault-plan`, `--fault-seed`,
/// `--summary`).
#[derive(Debug, Clone, Default)]
pub struct RunFaults {
    /// Path to a textual fault plan (see [`FaultPlan::parse`]); `None`
    /// leaves the wire perfect.
    pub plan_path: Option<std::path::PathBuf>,
    /// Seed for the fault RNG, independent of the transport jitter seed.
    pub fault_seed: u64,
    /// Emit the full machine-diffable report instead of the one-line
    /// human summary.
    pub summary: bool,
}

/// `coign run <image> <scenario> [network] [--fault-plan FILE]
/// [--fault-seed N] [--summary]` — executes a realized image distributed,
/// optionally over a faulty wire.
///
/// Under an observability bundle the command runs under a `run` phase span,
/// every cut-crossing call emits an `icc_call` instant at its
/// simulated-clock time, fault-layer events are traced, the flight recorder
/// retains the tail of cut-crossing traffic (dumped on
/// `Timeout`/`Partitioned`/`MachineDown`), and the report's counters are
/// added to the registry.
pub fn cmd_run(
    path: &Path,
    scenario: &str,
    network_name: &str,
    faults: &RunFaults,
    obs: Option<&Obs>,
) -> ComResult<String> {
    let _span = obs.map(|o| o.tracer.phase_span("run"));
    let realized = load_realized(path)?;
    let network = network_by_name(network_name)?;
    let plan = match &faults.plan_path {
        None => FaultPlan::none(),
        Some(plan_path) => read_fault_plan(plan_path)?,
    };
    let report = execute(Run {
        plan,
        fault_seed: faults.fault_seed,
        obs,
        ..Run::new(
            realized.app.as_ref(),
            scenario,
            &realized.classifier,
            &realized.distribution,
            network,
            SEED,
        )
    })?
    .report;
    if faults.summary {
        return Ok(format!("scenario={scenario}\n{}", report.summary()));
    }
    let mut out = format!(
        "ran {scenario} distributed: {} instance(s) on the server of {}, \
         {:.3} s communication, {:.3} s total, {} cross-machine call(s)",
        report.server_instances(),
        report.total_instances(),
        report.comm_secs(),
        report.exec_secs(),
        report.stats.cross_machine_calls,
    );
    if !report.faults.is_clean() {
        out.push_str(&format!(
            "\nfaults: {} drop(s), {} timeout(s), {} retry(s), {} failed call(s), \
             {} local fallback(s), {:.3} s wasted",
            report.faults.drops,
            report.faults.timeouts,
            report.faults.retries,
            report.faults.failed_calls,
            report.faults.fallbacks,
            report.faults.wasted_us as f64 / 1e6,
        ));
    }
    Ok(out)
}

/// Options for `coign chaos`.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Master seed: trial `t` derives its plan and fault schedule from
    /// `seed` and `t` alone, so the summary is byte-identical across
    /// repeated runs and across `--jobs` settings.
    pub seed: u64,
    /// Number of trials to run.
    pub trials: usize,
    /// Worker threads (1 = sequential; the summary does not depend on it).
    pub jobs: usize,
    /// `--replicate`: install the lint-derived replica routing table, so
    /// machine-death trials whose victims are fully replica-covered
    /// recover by pure failover (no solve) — and the invariant checker
    /// enforces exactly that.
    pub replicate: bool,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            seed: 0,
            trials: 8,
            jobs: 1,
            replicate: false,
        }
    }
}

/// A bounded fault window inside the run horizon.
fn chaos_window(rng: &mut StdRng, horizon_us: u64) -> TimeWindow {
    let from = rng.gen_range(0..horizon_us / 2);
    let len = rng.gen_range(horizon_us / 20..=horizon_us / 2).max(1);
    TimeWindow::new(from, from.saturating_add(len))
}

/// Draws one seeded random fault plan: 1–3 faults over the scenario's
/// fault-free horizon. Machine-death faults always target the server and
/// are permanent, so every drawn death must end in a recovery, never a
/// comeback.
fn chaos_plan(rng: &mut StdRng, horizon_us: u64) -> FaultPlan {
    let horizon_us = horizon_us.max(40);
    let mut plan = FaultPlan::none();
    for _ in 0..rng.gen_range(1..=3u32) {
        match rng.gen_range(0..4u32) {
            0 => {
                let probability = rng.gen_range(5..=30u32) as f64 / 100.0;
                plan.push(Fault::Loss {
                    link: LinkSelector::AllLinks,
                    probability,
                    window: chaos_window(rng, horizon_us),
                });
            }
            1 => {
                let factor = rng.gen_range(2..=8u32) as f64;
                plan.push(Fault::LatencySpike {
                    link: LinkSelector::AllLinks,
                    factor,
                    window: chaos_window(rng, horizon_us),
                });
            }
            2 => plan.push(Fault::Partition {
                link: LinkSelector::Link(MachineId::CLIENT, MachineId::SERVER),
                window: chaos_window(rng, horizon_us),
            }),
            _ => {
                let from = rng.gen_range(horizon_us / 8..=horizon_us / 2);
                plan.push(Fault::MachineDown {
                    machine: MachineId::SERVER,
                    window: TimeWindow::new(from, u64::MAX),
                });
            }
        }
    }
    plan
}

/// One finished chaos trial, rendered and judged.
struct ChaosTrial {
    line: String,
    outcome: &'static str,
    recoveries: u64,
    migrations: u64,
    violations: Vec<String>,
}

/// Runs trial `index` of the chaos schedule: draw a plan, execute the
/// scenario under the self-healing runtime, check the invariants.
#[allow(clippy::too_many_arguments)]
fn chaos_trial(
    image: &Realized,
    scenario: &str,
    network: &NetworkModel,
    master_seed: u64,
    horizon_us: u64,
    index: usize,
    replicas: Option<&ReplicaRouter>,
    obs: Option<&Obs>,
) -> ComResult<ChaosTrial> {
    let trial_seed = master_seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut rng = StdRng::seed_from_u64(trial_seed);
    let plan = chaos_plan(&mut rng, horizon_us);
    let faults_desc = plan
        .faults()
        .iter()
        .map(|f| f.to_string())
        .collect::<Vec<_>>()
        .join("; ");
    let fork = Arc::new(image.classifier.fork());
    let run = execute(Run {
        plan,
        fault_seed: trial_seed,
        baseline: Some(&image.profile),
        recovery: Some(RecoveryConfig {
            replicas: replicas.cloned(),
            ..RecoveryConfig::default()
        }),
        obs,
        ..Run::new(
            image.app.as_ref(),
            scenario,
            &fork,
            &image.distribution,
            network.clone(),
            SEED,
        )
    })?;
    let coord = run.coordinator.as_ref().expect("the trial loaded recovery");
    // Every trial either completes, is recovered, or fails with a *typed*
    // transport error — the shared battery flags anything else, along with
    // the double-execution, placement, solve-count and failover invariants.
    let violations = coord.audit(&run.outcome);
    let outcome = match &run.outcome {
        Ok(()) if coord.recovery_count() > 0 => "recovered",
        Ok(()) => "ok",
        Err(ComError::Timeout { .. }) => "failed(timeout)",
        Err(ComError::Partitioned { .. }) => "failed(partitioned)",
        Err(ComError::MachineDown(_)) => "failed(machine_down)",
        Err(_) => "failed(untyped)",
    };
    let placement = if coord.validate().is_ok() {
        "ok"
    } else {
        "VIOLATED"
    };
    let via_replicas = coord.events().iter().filter(|e| e.via_replicas).count();
    let mut line = format!(
        "trial {index:02} faults=[{faults_desc}] outcome={outcome} recoveries={} epoch={} \
         warm={} migrations={} redelivered={} replayed={} double={} placement={placement}",
        coord.recovery_count(),
        coord.epoch(),
        coord.warm_solves(),
        coord.migration_count(),
        coord.redelivered_calls(),
        coord.replayed_completions(),
        coord.double_executions(),
    );
    // Replica columns only render when a router is installed, keeping the
    // classic summary bytes untouched.
    if replicas.is_some() {
        line.push_str(&format!(
            " failovers={} via_replicas={via_replicas}",
            coord.replica_failovers(),
        ));
    }
    Ok(ChaosTrial {
        line,
        outcome,
        recoveries: coord.recovery_count(),
        migrations: coord.migration_count(),
        violations,
    })
}

/// `coign chaos <image> <scenario> [network] [--seed N] [--trials N]
/// [--jobs N]` — the chaos harness: N trials of the scenario under seeded
/// random fault plans with the self-healing runtime enabled, each trial
/// checked against the recovery invariants (typed outcomes only, zero
/// double executions, constraint-satisfying post-recovery placements,
/// warm re-solves after one cold base cut). The summary is
/// byte-identical for a given seed, across repeated runs and across
/// `--jobs`.
///
/// Under an observability bundle trials emit the full fault/recovery
/// instrumentation (breaker transitions, `recovery` instants,
/// flight-recorder dumps) and the recovery counters accumulate in the
/// registry across trials.
pub fn cmd_chaos(
    path: &Path,
    scenario: &str,
    network_name: &str,
    opts: &ChaosOptions,
    obs: Option<&Obs>,
) -> ComResult<String> {
    let _span = obs.map(|o| o.tracer.phase_span("chaos"));
    let image = load_realized(path)?;
    let network = network_by_name(network_name)?;
    // A fault-free probe run fixes the horizon the fault windows are drawn
    // from (and proves the scenario is healthy before we break it).
    let probe = execute(Run {
        baseline: Some(&image.profile),
        recovery: Some(RecoveryConfig::default()),
        ..Run::new(
            image.app.as_ref(),
            scenario,
            &image.classifier,
            &image.distribution,
            network.clone(),
            SEED,
        )
    })?;
    probe.outcome?;
    let horizon_us = probe.report.clock_us.max(1);
    // With `--replicate`, every trial runs with the same lint-derived
    // routing table a serve fleet would install.
    let replicas = if opts.replicate {
        let net_profile = NetworkProfile::measure(&network, PROFILE_SAMPLES, SEED);
        lint_derived_router(
            image.app.as_ref(),
            &image.profile,
            &net_profile,
            &image.distribution,
        )
    } else {
        None
    };

    let trials = run_indexed(opts.trials, opts.jobs, |i| {
        chaos_trial(
            &image,
            scenario,
            &network,
            opts.seed,
            horizon_us,
            i,
            replicas.as_ref(),
            obs,
        )
    });

    let mut out = format!(
        "chaos scenario={scenario} network={network_name} seed={} trials={}{}\n",
        opts.seed,
        opts.trials,
        if replicas.is_some() {
            " replicate=on"
        } else {
            ""
        },
    );
    let (mut ok, mut recovered, mut failed) = (0usize, 0usize, 0usize);
    let (mut recoveries, mut migrations) = (0u64, 0u64);
    let mut violations = Vec::new();
    for (i, trial) in trials.into_iter().enumerate() {
        let trial = trial?;
        out.push_str(&trial.line);
        out.push('\n');
        match trial.outcome {
            "ok" => ok += 1,
            "recovered" => recovered += 1,
            _ => failed += 1,
        }
        recoveries += trial.recoveries;
        migrations += trial.migrations;
        violations.extend(
            trial
                .violations
                .into_iter()
                .map(|v| format!("trial {i:02}: {v}")),
        );
    }
    out.push_str(&format!(
        "totals: ok={ok} recovered={recovered} failed={failed} \
         recoveries={recoveries} migrations={migrations}\n"
    ));
    if violations.is_empty() {
        out.push_str("invariants: ok\n");
        Ok(out)
    } else {
        out.push_str(&format!("invariants: {} VIOLATION(S)\n", violations.len()));
        for violation in &violations {
            out.push_str(&format!("  {violation}\n"));
        }
        Err(ComError::App(out))
    }
}

/// Options for `coign serve`.
#[derive(Debug, Clone)]
pub struct ServeCliOptions {
    /// Total simulated sessions.
    pub sessions: u64,
    /// Independently-clocked shards (the summary depends on it).
    pub shards: usize,
    /// Worker threads (the summary does not depend on it).
    pub jobs: usize,
    /// Master seed for arrival jitter, network jitter, and think times.
    pub seed: u64,
    /// Per-link batching (`--no-batch` clears it).
    pub batching: bool,
    /// Batch coalescing window, simulated µs.
    pub window_us: u64,
    /// Emit the machine-readable JSON record instead of the human report.
    pub json: bool,
    /// `--timeline PATH`: write the simulated-time series there (`.csv`
    /// extension selects CSV, anything else JSON; `-` appends a sparkline
    /// dashboard to the report instead of writing a file).
    pub timeline: Option<String>,
    /// `--timeline-window US`: width of the telemetry windows. Distinct
    /// from `--window`, which is the batch coalescing window.
    pub timeline_window_us: u64,
    /// `--slo-p99-us N`: evaluate a per-window p99 latency target and
    /// report violations plus worst-window attribution.
    pub slo_p99_us: Option<u64>,
    /// `--trace-sample N`: emit causal spans for every Nth session into
    /// the global `--trace` file (0 = no session tracing).
    pub trace_sample: u64,
    /// `--fault-plan FILE`: inject faults per the textual plan (see
    /// [`FaultPlan::parse`]); `None` leaves the wire perfect.
    pub fault_plan: Option<PathBuf>,
    /// `--fault-seed N`: synthesize a seeded chaos plan over the run's
    /// fault-free horizon (0 = no faults; ignored under `--fault-plan`).
    pub fault_seed: u64,
    /// `--replicate`: serve lint-proved immutable classes from replica
    /// copies, so a machine death fails over without a re-solve.
    pub replicate: bool,
}

impl Default for ServeCliOptions {
    fn default() -> Self {
        let base = coign::ServeOptions::default();
        ServeCliOptions {
            sessions: base.sessions,
            shards: base.shards,
            jobs: 1,
            seed: 0,
            batching: true,
            window_us: base.window_us,
            json: false,
            timeline: None,
            // 100ms of simulated time per window: long serve runs span
            // minutes of simulated time, so this keeps the series around a
            // thousand points with enough completions per window (tens)
            // for the windowed p99 to be statistically meaningful — and
            // keeps recorder overhead low. Narrow with --timeline-window
            // for burst forensics.
            timeline_window_us: 100_000,
            slo_p99_us: None,
            trace_sample: 0,
            fault_plan: None,
            fault_seed: 0,
            replicate: false,
        }
    }
}

/// The replica routing table `--replicate` installs: a stage-4/5 lint pass
/// over `app`'s classes in a scratch runtime, handed to the shared
/// derivation ([`derive_replica_router`]).
fn lint_derived_router(
    app: &dyn Application,
    profile: &coign::IccProfile,
    net_profile: &NetworkProfile,
    distribution: &Distribution,
) -> Option<ReplicaRouter> {
    let rt = ComRuntime::single_machine();
    app.register(&rt);
    let lint = analyze_replication(rt.registry(), &mut DiagnosticSink::new());
    derive_replica_router(&lint, rt.registry(), profile, net_profile, distribution)
}

/// `coign serve <image> <scenario> [network] [--sessions N] [--shards K]
/// [--jobs N] [--seed N] [--window US] [--no-batch] [--json]` — the
/// fleet-scale serving harness: multiplexes N simulated user sessions over
/// the distribution chosen for the image's accumulated profile, as a
/// sharded discrete-event simulation with per-link ICC batching and
/// session-state pooling ([`coign::serve()`]). The summary is byte-identical
/// for a given seed across repeated runs and across `--jobs`.
///
/// Under an observability bundle the registry gains the serve counters
/// (sessions, calls, batches, pool hits/misses), the merged session-latency
/// histogram, and simulated-throughput gauges — all deterministic, so
/// `--metrics` output stays byte-identical per seed.
pub fn cmd_serve(
    path: &Path,
    scenario: &str,
    network_name: &str,
    opts: &ServeCliOptions,
    obs: Option<&Obs>,
) -> ComResult<String> {
    let _span = obs.map(|o| o.tracer.phase_span("serve"));
    let (image, record) = load_profiled(path, Some(scenario))?;
    let app = app_for_image(&image)?;
    let network = network_by_name(network_name)?;
    // The placement under load: chosen fresh from the accumulated profile
    // for the named network, exactly like `coign analyze` would.
    let net_profile = NetworkProfile::measure(&network, PROFILE_SAMPLES, SEED);
    let distribution = choose_distribution(app.as_ref(), &record.profile, &net_profile)?;
    // The fault plan: an explicit file wins; otherwise a non-zero
    // `--fault-seed` synthesizes the seeded chaos mix over the run's own
    // fault-free horizon — measured by a probe run, exactly like `coign
    // chaos` fixes its fault windows — with every non-client machine a
    // victim. Both paths are deterministic per seed, so the faulted
    // summary stays byte-identical across `--jobs`.
    let fleet = coign::ServeOptions {
        sessions: opts.sessions,
        shards: opts.shards,
        jobs: opts.jobs,
        seed: opts.seed,
        batching: opts.batching,
        window_us: opts.window_us,
        ..coign::ServeOptions::default()
    };
    let plan = match (&opts.fault_plan, opts.fault_seed) {
        (Some(plan_path), _) => read_fault_plan(plan_path)?,
        (None, 0) => FaultPlan::none(),
        (None, fault_seed) => {
            let mut victims: Vec<MachineId> = distribution
                .placement
                .values()
                .copied()
                .filter(|m| *m != MachineId::CLIENT)
                .collect();
            victims.sort();
            victims.dedup();
            let probe = coign::serve::serve(&record.profile, &distribution, &network, &fleet)?;
            FaultPlan::seeded(fault_seed, probe.horizon_us, &victims)
        }
    };
    // Replicas only matter once something can die; deriving them under a
    // clean wire would change nothing but still cost a lint pass.
    let replicas = if opts.replicate && !plan.is_empty() {
        lint_derived_router(app.as_ref(), &record.profile, &net_profile, &distribution)
    } else {
        None
    };
    let inject_desc = plan
        .faults()
        .iter()
        .map(|f| f.to_string())
        .collect::<Vec<_>>()
        .join("; ");
    let replicated = replicas.is_some();
    // Telemetry only runs when something consumes it: a timeline sink or
    // an SLO target turns the windowed recorder on; otherwise the serve
    // hot path stays recording-free and the output bytes stay identical to
    // a build without telemetry at all.
    let want_timeline = opts.timeline.is_some() || opts.slo_p99_us.is_some();
    let serve_opts = coign::ServeOptions {
        timeline_window_us: if want_timeline {
            opts.timeline_window_us.max(1)
        } else {
            0
        },
        trace_sample: opts.trace_sample,
        faults: plan.clone(),
        replicas,
        ..fleet
    };
    let (report, timeline) = coign::serve::serve_traced(
        &record.profile,
        &distribution,
        &network,
        &serve_opts,
        obs.map(|o| &*o.tracer),
    )?;
    if let Some(o) = obs {
        for (name, value) in [
            ("coign_serve_sessions_total", report.sessions),
            ("coign_serve_calls_total", report.calls),
            ("coign_serve_remote_messages_total", report.remote_messages),
            ("coign_serve_batches_total", report.batches),
            ("coign_serve_pool_hits_total", report.pool_hits),
            ("coign_serve_pool_misses_total", report.pool_misses),
        ] {
            o.registry.counter(name).add(value);
        }
        for (name, value) in [
            (
                "coign_serve_sim_sessions_per_sec",
                report.sessions_per_sim_sec(),
            ),
            ("coign_serve_sim_calls_per_sec", report.calls_per_sim_sec()),
            (
                "coign_serve_latency_p50_us",
                report.latency_quantile_us(0.50),
            ),
            (
                "coign_serve_latency_p95_us",
                report.latency_quantile_us(0.95),
            ),
            (
                "coign_serve_latency_p99_us",
                report.latency_quantile_us(0.99),
            ),
        ] {
            o.registry.gauge(name).set(value);
        }
        o.registry
            .histogram("coign_serve_session_latency_us", report.latency.bounds())
            .merge_from(&report.latency);
    }
    // The SLO verdict rides on the timeline's per-window latency
    // histograms; the dashboard (`--timeline -`) appends after the report
    // in either mode, and file sinks pick their format by extension.
    let slo = match (opts.slo_p99_us, timeline.as_ref()) {
        (Some(target), Some(series)) => Some(series.slo(target)),
        _ => None,
    };
    let mut dashboard = None;
    if let (Some(sink), Some(series)) = (opts.timeline.as_deref(), timeline.as_ref()) {
        if sink == "-" {
            dashboard = Some(series.dashboard());
        } else {
            let rendered = if sink.ends_with(".csv") {
                series.to_csv()
            } else {
                series.to_json()
            };
            std::fs::write(sink, rendered)
                .map_err(|e| ComError::App(format!("cannot write timeline {sink}: {e}")))?;
        }
    }
    let mut out = if opts.json {
        let slo_field = slo
            .as_ref()
            .map(|s| format!(",\"slo\":{}", s.render_json()))
            .unwrap_or_default();
        let inject_field = if plan.is_empty() {
            String::new()
        } else {
            format!(",\"inject\":\"{inject_desc}\",\"replicated\":{replicated}")
        };
        format!(
            "{{\"scenario\":\"{scenario}\",\"network\":\"{network_name}\",\"seed\":{},\
             \"window_us\":{}{inject_field},\"report\":{}{slo_field}}}\n",
            opts.seed,
            opts.window_us,
            report.summary(true).trim_end(),
        )
    } else {
        let mut human = format!(
            "serve scenario={scenario} network={network_name} seed={} sessions={} \
             shards={} window={}us\n",
            opts.seed, opts.sessions, opts.shards, opts.window_us,
        );
        if !plan.is_empty() {
            human.push_str(&format!(
                "inject: {inject_desc}{}\n",
                if replicated { " [replicated]" } else { "" }
            ));
        }
        human.push_str(&report.summary(false));
        if let Some(s) = &slo {
            human.push_str(&s.render_human());
        }
        human
    };
    if let Some(dash) = dashboard {
        out.push_str(&dash);
    }
    Ok(out)
}

/// `coign gen --seed S [--size small|medium|large] [--emit <dir>] [--json]`
/// — prints the topology summary of the generated application, and with
/// `--emit` writes its instrumented image into the directory (the same
/// artifact `gen:<seed>` addressing materializes on demand).
pub fn cmd_gen(seed: u64, size: GenSize, emit: Option<&Path>, json: bool) -> ComResult<String> {
    let spec = GenSpec::new(seed, size);
    let app = GeneratedApp::new(spec);
    let mut out = app.summary(json);
    if let Some(dir) = emit {
        std::fs::create_dir_all(dir)
            .map_err(|e| ComError::App(format!("cannot create {}: {e}", dir.display())))?;
        let image = instrumented_image(&app);
        let path = dir.join(format!("{}.cimg", spec.stem()));
        store(&path, &image)?;
        if !json {
            out.push_str(&format!(
                "emitted {} ({} bytes, instrumented)\n",
                path.display(),
                image.encode().len()
            ));
        }
    }
    Ok(out)
}

/// `coign explore gen:<seed>[:<size>] <scenario> [network] [--faults-at
/// T,T,…|--enumerate-depth D] [--thresholds F,F,…] [--drift] [--jobs N]
/// [--seed N]` — systematic schedule-space exploration around recovery
/// epochs: every (fault instant × breaker threshold × drift mode)
/// interleaving runs under the self-healing runtime and is checked against
/// the exactly-once ledger, `validate_placement`, and replication-legality
/// invariants. Violations are minimized and reported as replayable command
/// lines; the summary is byte-identical per seed across `--jobs`. The
/// network arrives by name and replaces whatever `opts` carries.
pub fn cmd_explore(
    image_spec: &str,
    scenario: &str,
    network_name: &str,
    opts: &ExploreOptions,
) -> ComResult<String> {
    let rest = image_spec.strip_prefix("gen:").ok_or_else(|| {
        ComError::App(format!(
            "explore runs over generated applications — address one as \
             gen:<seed>[:<size>], got `{image_spec}`"
        ))
    })?;
    let spec = coign_gen::parse_gen_spec(rest).ok_or_else(|| {
        ComError::App(format!(
            "bad generated-image address `{image_spec}` (use gen:<seed> or \
             gen:<seed>:<size> with size small|medium|large)"
        ))
    })?;
    let opts = ExploreOptions {
        network: network_by_name(network_name)?,
        network_name: network_name.to_string(),
        ..opts.clone()
    };
    coign_gen::explore::explore(spec, scenario, &opts).map(|report| report.summary)
}

/// `coign show <image>` — prints the configuration record.
pub fn cmd_show(path: &Path) -> ComResult<String> {
    let image = load(path)?;
    let record = rewriter::read_config(&image)?;
    let mut out = String::new();
    out.push_str(&format!(
        "image:      {} ({} bytes)\n",
        image.name,
        image.encode().len()
    ));
    out.push_str(&format!(
        "imports:    {}\n",
        image
            .imports
            .iter()
            .map(|i| i.name.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str(&format!(
        "mode:       {}\n",
        match record.mode {
            RuntimeMode::Profiling => "profiling",
            RuntimeMode::Distributed => "distributed (lightweight runtime)",
        }
    ));
    out.push_str(&format!(
        "scenarios:  {}\n",
        record.profile.scenarios.join(", ")
    ));
    out.push_str(&format!(
        "profile:    {} messages, {} bytes, {} classifications, {} non-remotable pair(s)\n",
        record.profile.total_messages(),
        record.profile.total_bytes(),
        record.profile.classifications().len(),
        record.profile.non_remotable.len(),
    ));
    if let Some(dist) = &record.distribution {
        out.push_str(&format!(
            "distribution: {} client / {} server, predicted {:.1} ms on {}\n",
            dist.count_on(MachineId::CLIENT),
            dist.count_on(MachineId::SERVER),
            dist.predicted_comm_us / 1000.0,
            dist.network_name,
        ));
    }
    Ok(out)
}

/// `coign hotspots <image>` — the developer-feedback report (§6).
pub fn cmd_hotspots(path: &Path, top: usize) -> ComResult<String> {
    let image = load(path)?;
    let record = rewriter::read_config(&image)?;
    let app = app_for_image(&image)?;
    let rt = ComRuntime::single_machine();
    app.register(&rt);
    let names = report::interface_names(&rt);
    let network = NetworkProfile::measure(&NetworkModel::ethernet_10baset(), PROFILE_SAMPLES, SEED);
    let spots = report::hotspots(
        &record.profile,
        &network,
        record.distribution.as_ref(),
        &names,
    );
    let mut out = String::from("communication hot spots (heaviest first):\n");
    for spot in spots.iter().take(top) {
        out.push_str(&format!(
            "  {:<18} m{:<3} {:>9} msgs {:>12} bytes {:>10.1} ms {}\n",
            spot.interface,
            spot.method,
            spot.messages,
            spot.bytes,
            spot.predicted_us / 1000.0,
            if spot.crosses_cut {
                "[crosses cut]"
            } else {
                ""
            },
        ));
    }
    if let Some(dist) = &record.distribution {
        let candidates =
            report::caching_candidates(&record.profile, &network, dist, &names, 10, 2_048);
        if !candidates.is_empty() {
            out.push_str("per-interface caching candidates (semi-custom marshaling):\n");
            for cand in candidates.iter().take(top) {
                out.push_str(&format!(
                    "  {:<18} m{:<3} {:>7} calls, avg {:>5} B, could save {:>8.1} ms\n",
                    cand.interface,
                    cand.method,
                    cand.calls,
                    cand.avg_message_bytes,
                    cand.potential_savings_us / 1000.0,
                ));
            }
        }
    }
    Ok(out)
}

/// `coign script <image> <script>` — profiles a scripted scenario (the
/// Visual Test analog; Octarine only) and accumulates the log.
pub fn cmd_script(path: &Path, script_path: &Path) -> ComResult<String> {
    use coign::classifier::InstanceClassifier as Ic;
    use coign::logger::ProfilingLogger;
    use coign::rte::CoignRte;
    use coign_apps::octarine::script::{parse_script, run_ops};

    let mut image = load(path)?;
    let record = rewriter::read_config(&image)?;
    let app = app_for_image(&image)?;
    if app.name() != "octarine" {
        return Err(ComError::App(format!(
            "scenario scripts are only supported for octarine, not {}",
            app.name()
        )));
    }
    let text = std::fs::read_to_string(script_path)
        .map_err(|e| ComError::App(format!("cannot read {}: {e}", script_path.display())))?;
    let ops = parse_script(&text)?;

    let rt = ComRuntime::single_machine();
    app.register(&rt);
    let classifier = Arc::new(Ic::decode(&record.classifier)?);
    classifier.begin_execution();
    let logger = Arc::new(ProfilingLogger::new());
    logger.set_scenario(&format!("script:{}", script_path.display()));
    rt.add_hook(Arc::new(CoignRte::profiling(
        classifier.clone(),
        logger.clone(),
    )));
    run_ops(&rt, &ops)?;
    let profile = logger.take_profile();

    store_profile(path, &mut image, &profile, &classifier)?;
    Ok(format!(
        "scripted profile ({} op(s)): {} messages, {} bytes, {} instances",
        ops.len(),
        profile.total_messages(),
        profile.total_bytes(),
        rt.instance_count(),
    ))
}

/// `coign dot <image> <out.dot>` — exports the communication graph in
/// Graphviz form (the textual equivalent of the paper's figures).
pub fn cmd_dot(path: &Path, out: &Path) -> ComResult<String> {
    let image = load(path)?;
    let record = rewriter::read_config(&image)?;
    let app = app_for_image(&image)?;
    let rt = ComRuntime::single_machine();
    app.register(&rt);
    let names = report::class_names(&rt);
    let network = NetworkProfile::measure(&NetworkModel::ethernet_10baset(), PROFILE_SAMPLES, SEED);
    let constraints = derive_constraints(app.as_ref(), &record.profile);
    // Replication-legality overlay: double-circle the replicable classes,
    // shade the mutable-shared ones, and label read-only edges. Shading
    // mirrors COIGN043's gating — only classes with annotation evidence,
    // so the conservative mutates-by-default mass stays unshaded.
    let mut sink = coign::lint::DiagnosticSink::new();
    let effect_analysis = coign::lint::effects::check_effects(rt.registry(), &mut sink);
    let mut replication =
        coign::lint::sharing::check_sharing(rt.registry(), &effect_analysis, &mut sink);
    replication
        .mutable_shared
        .retain(|class| effect_analysis.is_annotated(class));
    let facts = report::DotFacts {
        replication: Some(replication),
        effects: report::method_effects(&rt),
    };
    let dot = report::to_dot(
        &record.profile,
        &network,
        record.distribution.as_ref(),
        &constraints,
        &names,
        &facts,
    );
    std::fs::write(out, &dot)
        .map_err(|e| ComError::App(format!("cannot write {}: {e}", out.display())))?;
    Ok(format!(
        "wrote {} ({} nodes, render with `dot -Tsvg`)",
        out.display(),
        record.profile.classifications().len(),
    ))
}

/// `coign strip <image>` — removes all Coign artifacts from the image.
pub fn cmd_strip(path: &Path) -> ComResult<String> {
    let mut image = load(path)?;
    rewriter::strip(&mut image);
    store(path, &image)?;
    Ok(format!(
        "stripped {} back to its original shape",
        image.name
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_image(tag: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("coign_cli_test_{tag}_{}.cimg", std::process::id()));
        path
    }

    #[test]
    fn full_cli_workflow_on_octarine() {
        let path = temp_image("wf");
        let msg = cmd_instrument("octarine", &path).unwrap();
        assert!(msg.contains("coignrte.dll"));

        let msg = cmd_profile(&path, &["o_oldtb3"], 1, None).unwrap();
        assert!(msg.contains("messages"));
        // Honest annotations: the dynamic cross-check stays silent.
        assert!(!msg.contains("COIGN045"));

        let msg = cmd_show(&path).unwrap();
        assert!(msg.contains("mode:       profiling"));
        assert!(msg.contains("o_oldtb3"));

        let msg = cmd_analyze(&path, "ethernet", None).unwrap();
        assert!(msg.contains("server"));

        let msg = cmd_show(&path).unwrap();
        assert!(msg.contains("distributed"));

        let msg = cmd_run(&path, "o_oldtb3", "ethernet", &RunFaults::default(), None).unwrap();
        assert!(msg.contains("cross-machine"));
        // A clean wire prints no fault line.
        assert!(!msg.contains("faults:"));

        let msg = cmd_hotspots(&path, 5).unwrap();
        assert!(msg.contains("hot spots"));

        let msg = cmd_strip(&path).unwrap();
        assert!(msg.contains("stripped"));
        // After stripping, the record is gone.
        assert!(cmd_show(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn profiles_accumulate_across_invocations() {
        let path = temp_image("acc");
        cmd_instrument("benefits", &path).unwrap();
        let msg = cmd_profile(&path, &["b_vueone"], 1, None).unwrap();
        assert!(!msg.contains("COIGN045"));
        cmd_profile(&path, &["b_addone"], 1, None).unwrap();
        let show = cmd_show(&path).unwrap();
        assert!(show.contains("b_vueone, b_addone"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parallel_profile_produces_byte_identical_images() {
        // The acceptance bar for `--jobs`: profiling every octarine
        // scenario on 4 workers must leave the exact same bytes on disk
        // (profile log *and* classifier table) as a sequential pass.
        let seq_path = temp_image("jobs1");
        let par_path = temp_image("jobs4");
        cmd_instrument("octarine", &seq_path).unwrap();
        cmd_instrument("octarine", &par_path).unwrap();
        let scenarios = ["o_oldtb3", "o_newdoc", "o_oldwp7"];
        cmd_profile(&seq_path, &scenarios, 1, None).unwrap();
        cmd_profile(&par_path, &scenarios, 4, None).unwrap();
        let seq_bytes = std::fs::read(&seq_path).unwrap();
        let par_bytes = std::fs::read(&par_path).unwrap();
        assert_eq!(seq_bytes, par_bytes);
        std::fs::remove_file(&seq_path).ok();
        std::fs::remove_file(&par_path).ok();
    }

    #[test]
    fn sweep_reports_partition_shifts() {
        let path = temp_image("sweep");
        cmd_instrument("octarine", &path).unwrap();
        // Sweeping before profiling is rejected.
        assert!(cmd_sweep(&path, false, None)
            .unwrap_err()
            .to_string()
            .contains("no profile"));
        cmd_profile(&path, &["o_oldtb3", "o_newdoc"], 2, None).unwrap();
        let human = cmd_sweep(&path, false, None).unwrap();
        assert!(human.contains("partition sweep over 16 network point(s)"));
        let json = cmd_sweep(&path, true, None).unwrap();
        assert!(json.starts_with("{\"grid\":"));
        assert!(json.contains("\"points\":["));
        // Deterministic output, twice in a row.
        assert_eq!(json, cmd_sweep(&path, true, None).unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn analyze_requires_a_profile() {
        let path = temp_image("noprof");
        cmd_instrument("photodraw", &path).unwrap();
        let err = cmd_analyze(&path, "ethernet", None).unwrap_err();
        assert!(err.to_string().contains("no profile"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_requires_realization() {
        let path = temp_image("norun");
        cmd_instrument("octarine", &path).unwrap();
        cmd_profile(&path, &["o_newdoc"], 1, None).unwrap();
        let err = cmd_run(&path, "o_newdoc", "ethernet", &RunFaults::default(), None).unwrap_err();
        assert!(err.to_string().contains("not realized"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn scripted_profiling_and_dot_export() {
        let img = temp_image("script");
        let script = {
            let mut p = std::env::temp_dir();
            p.push(format!("coign_script_{}.txt", std::process::id()));
            std::fs::write(&p, "open table 5\nidle 1\npaint\n").unwrap();
            p
        };
        cmd_instrument("octarine", &img).unwrap();
        let msg = cmd_script(&img, &script).unwrap();
        assert!(msg.contains("scripted profile (3 op(s))"));
        cmd_analyze(&img, "ethernet", None).unwrap();

        let dot_path = {
            let mut p = std::env::temp_dir();
            p.push(format!("coign_dot_{}.dot", std::process::id()));
            p
        };
        let msg = cmd_dot(&img, &dot_path).unwrap();
        assert!(msg.contains("nodes"));
        let dot = std::fs::read_to_string(&dot_path).unwrap();
        assert!(dot.starts_with("graph icc {"));
        // Constraint edges render dashed against synthetic machine nodes
        // (the ROOT pin alone guarantees at least one).
        assert!(dot.contains("shape=diamond"));
        assert!(dot.contains("n0 -- client [style=dashed"));
        // The replication overlay: the table flyweights are effect-free,
        // so their nodes draw double-circled and the model→column edges
        // carry the declared effect label.
        assert!(dot.contains("peripheries=2"));
        assert!(dot.contains("(pure)"));

        // Scripts are octarine-only.
        let pd = temp_image("pdscript");
        cmd_instrument("photodraw", &pd).unwrap();
        assert!(cmd_script(&pd, &script).is_err());

        for p in [img, script, dot_path, pd] {
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn fault_injected_run_reports_counters_and_reproduces() {
        let path = temp_image("faultrun");
        cmd_instrument("octarine", &path).unwrap();
        cmd_profile(&path, &["o_oldtb3"], 1, None).unwrap();
        cmd_analyze(&path, "ethernet", None).unwrap();

        let plan_path = {
            let mut p = std::env::temp_dir();
            p.push(format!("coign_plan_{}.fplan", std::process::id()));
            std::fs::write(&p, "loss 0.05\n").unwrap();
            p
        };
        let faults = RunFaults {
            plan_path: Some(plan_path.clone()),
            fault_seed: 7,
            summary: false,
        };
        let run = |faults: &RunFaults| cmd_run(&path, "o_oldtb3", "ethernet", faults, None);
        let msg = run(&faults).unwrap();
        assert!(
            msg.contains("faults:"),
            "lossy run must report faults: {msg}"
        );
        assert!(msg.contains("retry"));

        // Same fault seed ⇒ byte-identical machine summary, twice in a row.
        let summary_opts = RunFaults {
            summary: true,
            ..faults.clone()
        };
        let a = run(&summary_opts).unwrap();
        assert_eq!(a, run(&summary_opts).unwrap());
        assert!(a.contains("fault_drops="));

        // A different fault seed perturbs the wire differently.
        let other_seed = RunFaults {
            fault_seed: 8,
            ..summary_opts
        };
        assert_ne!(a, run(&other_seed).unwrap());

        // A malformed plan is rejected with its line number.
        std::fs::write(&plan_path, "explode 1\n").unwrap();
        let err = run(&faults).unwrap_err();
        assert!(err.to_string().contains("line 1"));

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&plan_path).ok();
    }

    #[test]
    fn chaos_summary_is_deterministic_across_runs_and_jobs() {
        let path = temp_image("chaos");
        cmd_instrument("octarine", &path).unwrap();
        cmd_profile(&path, &["o_oldtb3"], 1, None).unwrap();
        cmd_analyze(&path, "ethernet", None).unwrap();
        let opts = ChaosOptions {
            seed: 7,
            trials: 6,
            jobs: 1,
            replicate: false,
        };
        let chaos =
            |opts: ChaosOptions| cmd_chaos(&path, "o_oldtb3", "ethernet", &opts, None).unwrap();
        let a = chaos(opts.clone());
        let b = chaos(opts.clone());
        assert_eq!(a, b, "same seed must reproduce the summary byte-for-byte");
        for jobs in [2, 4, 8] {
            let par = chaos(ChaosOptions {
                jobs,
                ..opts.clone()
            });
            assert_eq!(a, par, "summary differs at jobs={jobs}");
        }
        assert!(a.contains("invariants: ok"), "summary: {a}");
        // A different seed draws different fault plans.
        assert_ne!(a, chaos(ChaosOptions { seed: 8, ..opts }));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chaos_machine_death_trials_recover_with_warm_resolves() {
        let path = temp_image("chaosdeath");
        cmd_instrument("octarine", &path).unwrap();
        cmd_profile(&path, &["o_oldtb3"], 1, None).unwrap();
        cmd_analyze(&path, "ethernet", None).unwrap();
        // Enough trials that the seeded generator draws at least one
        // permanent server death; the invariant checker inside cmd_chaos
        // then enforces warm re-solves, valid placements, and zero double
        // executions (a violation makes cmd_chaos return Err).
        let summary = cmd_chaos(
            &path,
            "o_oldtb3",
            "ethernet",
            &ChaosOptions {
                seed: 7,
                trials: 8,
                jobs: 2,
                replicate: false,
            },
            None,
        )
        .unwrap();
        assert!(
            summary.contains("outcome=recovered"),
            "no trial recovered: {summary}"
        );
        assert!(summary.contains("warm=1"), "summary: {summary}");
        assert!(summary.contains("invariants: ok"), "summary: {summary}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_fault_seed_is_deterministic_and_transparent_at_zero() {
        let path = temp_image("servefault");
        cmd_instrument("octarine", &path).unwrap();
        cmd_profile(&path, &["o_oldtb3"], 1, None).unwrap();
        let base = ServeCliOptions {
            sessions: 500,
            shards: 2,
            seed: 7,
            ..ServeCliOptions::default()
        };
        // fault_seed 0 is the explicit zero-fault seed: no inject line, no
        // fault counters — byte-identical to a build with no fault layer.
        let serve =
            |opts: &ServeCliOptions| cmd_serve(&path, "o_oldtb3", "ethernet", opts, None).unwrap();
        let clean = serve(&base);
        assert!(!clean.contains("inject:"), "{clean}");
        assert!(!clean.contains("faults:"), "{clean}");
        let faulted = ServeCliOptions {
            fault_seed: 11,
            replicate: true,
            ..base.clone()
        };
        let a = serve(&faulted);
        assert!(a.contains("inject: down "), "{a}");
        assert!(a.contains("faults: "), "{a}");
        for jobs in [2, 4] {
            let b = serve(&ServeCliOptions {
                jobs,
                ..faulted.clone()
            });
            assert_eq!(a, b, "faulted summary differs at jobs={jobs}");
        }
        // A plan file drives the same machinery; the JSON record carries
        // the injected plan.
        let plan_path = {
            let mut p = std::env::temp_dir();
            p.push(format!("coign_serve_plan_{}.fplan", std::process::id()));
            std::fs::write(&p, "loss 0.05\n").unwrap();
            p
        };
        let json = serve(&ServeCliOptions {
            fault_plan: Some(plan_path.clone()),
            json: true,
            ..base.clone()
        });
        assert!(json.contains("\"inject\":\"loss 0.05 * ..\""), "{json}");
        assert!(json.contains("\"faults\":{"), "{json}");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&plan_path).ok();
    }

    #[test]
    fn chaos_replicate_runs_clean_and_marks_the_summary() {
        let path = temp_image("chaosrep");
        cmd_instrument("octarine", &path).unwrap();
        cmd_profile(&path, &["o_oldwp7"], 1, None).unwrap();
        cmd_analyze(&path, "ethernet", None).unwrap();
        let summary = cmd_chaos(
            &path,
            "o_oldwp7",
            "ethernet",
            &ChaosOptions {
                seed: 7,
                trials: 4,
                jobs: 2,
                replicate: true,
            },
            None,
        )
        .unwrap();
        assert!(summary.contains("replicate=on"), "{summary}");
        assert!(summary.contains("via_replicas="), "{summary}");
        assert!(summary.contains("invariants: ok"), "{summary}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn place_partitions_across_three_machines_deterministically() {
        let path = temp_image("place");
        cmd_instrument("octarine", &path).unwrap();
        // Placing before profiling (or for an unprofiled scenario) is
        // rejected.
        let place = |scenario: &str, opts: &PlaceOptions| {
            cmd_place(&path, scenario, "ethernet", opts, None).map_err(|e| e.to_string())
        };
        let opts = PlaceOptions::default();
        assert!(place("o_oldtb3", &opts).unwrap_err().contains("no profile"));
        cmd_profile(&path, &["o_oldtb3"], 1, None).unwrap();
        assert!(place("o_newdoc", &opts)
            .unwrap_err()
            .contains("never profiled"));

        let human = place("o_oldtb3", &opts).unwrap();
        assert!(human.contains("across 3 machine(s)"));
        assert!(human.contains("machine 2:"));
        assert!(human.contains("cut: heuristic"));
        // Deterministic, twice in a row.
        assert_eq!(human, place("o_oldtb3", &opts).unwrap());

        let json_opts = PlaceOptions {
            json: true,
            ..opts.clone()
        };
        let json = place("o_oldtb3", &json_opts).unwrap();
        assert!(json.starts_with("{\"app\":\"octarine.exe\""));
        assert!(json.contains("\"placement\":["));
        assert_eq!(json, place("o_oldtb3", &json_opts).unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn place_replication_strictly_reduces_octarine_traffic() {
        let path = temp_image("placerep");
        cmd_instrument("octarine", &path).unwrap();
        // The 208-page text document: reader and properties split away from
        // the layout cluster, so the effect-free flyweights (text blocks,
        // font caches) see traffic from more than one machine.
        cmd_profile(&path, &["o_oldwp7"], 1, None).unwrap();
        let place =
            |opts: PlaceOptions| cmd_place(&path, "o_oldwp7", "ethernet", &opts, None).unwrap();
        let plain = place(PlaceOptions::default());
        let replicated = place(PlaceOptions {
            replicate: true,
            ..PlaceOptions::default()
        });
        // The annotated example app has at least one provably replicable
        // class whose copy strictly reduces modeled cut traffic.
        assert!(replicated.contains("replicas: "), "{replicated}");
        assert!(!replicated.contains("replicas: none"), "{replicated}");
        // The home assignment (and the whole preamble) never changes;
        // replication only adds copies.
        let preamble = |s: &str| {
            s.lines()
                .take_while(|l| !l.starts_with("replicas:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(preamble(&plain), preamble(&replicated));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn check_passes_on_fresh_image_without_profiling() {
        let path = temp_image("check");
        cmd_instrument("photodraw", &path).unwrap();
        // No `coign profile` ran: the pass needs no profiling data.
        let report = cmd_check(&path, false).unwrap();
        // PhotoDraw's sprite cache shares memory through an opaque-pointer
        // interface — the remotability stage flags it (warn, not error).
        assert!(report.contains("COIGN010"));
        assert!(report.contains("COIGN012"));
        assert!(report.contains("0 error(s)"));
        let json = cmd_check(&path, true).unwrap();
        assert!(json.starts_with("{\"errors\":0,"));
        assert!(json.contains("\"code\":\"COIGN010\""));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn check_flags_corrupted_images() {
        let path = temp_image("checkbad");
        cmd_instrument("octarine", &path).unwrap();
        let mut image = load(&path).unwrap();
        // Demote the runtime import out of slot 0.
        let runtime = image.imports.remove(0);
        image.imports.push(runtime);
        store(&path, &image).unwrap();
        let report = cmd_check(&path, false).unwrap_err();
        assert!(report.contains("COIGN030"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_inputs_are_rejected() {
        assert!(cmd_instrument("excel", &temp_image("bad")).is_err());
        assert!(network_by_name("token-ring").is_err());
        assert!(cmd_show(Path::new("/nonexistent/image.cimg")).is_err());
    }
}
