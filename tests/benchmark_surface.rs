//! The benchmark's pinned surface, checked at tier-1.
//!
//! `benchmark/` is a workspace of its own that compiles against the
//! signatures listed in `benchmark/README.md` ("The measured surface"), and
//! the driver refuses a PR whose benchmark no longer builds. This test
//! coerces each pinned runtime/serve/explore entry point to its fn-pointer
//! type and names the pinned report types and the fields the workloads
//! read, so a signature drift fails `cargo test -q` here instead of
//! failing the benchmark build later.
//!
//! The root package has no dependency edge to `coign-obs`, so the three
//! observer types (`Obs`, `Tracer`, `TimeSeries`) are left to inference
//! (`_`); their position, optionality and reference-ness are still pinned.

// Spelling out whole fn-pointer types is the point of this file.
#![allow(clippy::type_complexity)]

use coign::analysis::Distribution;
use coign::constraints::Constraint;
use coign::recovery::{RecoveryConfig, RecoveryCoordinator};
use coign::runtime::{
    choose_distribution, derive_constraints, profile_scenario, profile_scenarios_observed,
    profile_scenarios_parallel, ProfileRun,
};
use coign::serve::serve_traced;
use coign::{
    run_default, run_distributed, run_distributed_faulty, run_distributed_recovering, run_raw,
    serve, Application, FaultReport, IccProfile, InstanceClassifier, RecoveryRun, RunReport,
    ServeOptions, ServeReport,
};
use coign_com::{ComResult, RtStats};
use coign_dcom::{CallPolicy, FaultPlan, NetworkModel, NetworkProfile};
use coign_gen::explore::{explore, ExploreOptions, ExploreReport};
use coign_gen::GenSpec;
use std::sync::Arc;

type Classifier = Arc<InstanceClassifier>;

#[test]
fn pinned_runners_keep_their_signatures() {
    let _: fn(&dyn Application, &str, NetworkModel, u64) -> ComResult<RunReport> = run_default;
    let _: fn(&dyn Application, &str) -> ComResult<RunReport> = run_raw;
    let _: fn(
        &dyn Application,
        &str,
        &Classifier,
        &Distribution,
        NetworkModel,
        u64,
    ) -> ComResult<RunReport> = run_distributed;
    let _: fn(
        &dyn Application,
        &str,
        &Classifier,
        &Distribution,
        NetworkModel,
        u64,
        FaultPlan,
        CallPolicy,
        u64,
    ) -> ComResult<RunReport> = run_distributed_faulty;
    let _: fn(
        &dyn Application,
        &str,
        &Classifier,
        &Distribution,
        &IccProfile,
        NetworkModel,
        u64,
        FaultPlan,
        CallPolicy,
        u64,
        RecoveryConfig,
    ) -> ComResult<RecoveryRun> = run_distributed_recovering;
}

#[test]
fn pinned_profiling_and_analysis_keep_their_signatures() {
    let _: fn(&dyn Application, &str, &Classifier) -> ComResult<ProfileRun> = profile_scenario;
    let _: fn(&dyn Application, &[&str], &Classifier, Option<&_>) -> ComResult<IccProfile> =
        profile_scenarios_observed;
    let _: fn(&dyn Application, &[&str], &Classifier, usize) -> ComResult<IccProfile> =
        profile_scenarios_parallel;
    let _: fn(&dyn Application, &IccProfile, &NetworkProfile) -> ComResult<Distribution> =
        choose_distribution;
    let _: fn(&dyn Application, &IccProfile) -> Vec<Constraint> = derive_constraints;
}

#[test]
fn pinned_serve_and_explore_keep_their_signatures() {
    let _: fn(&IccProfile, &Distribution, &NetworkModel, &ServeOptions) -> ComResult<ServeReport> =
        serve;
    let _: fn(
        &IccProfile,
        &Distribution,
        &NetworkModel,
        &ServeOptions,
        Option<&_>,
    ) -> ComResult<(ServeReport, Option<_>)> = serve_traced;
    let _: fn(GenSpec, &str, &ExploreOptions) -> ComResult<ExploreReport> = explore;
}

/// Never called: it only has to type-check. Each line names a pinned type
/// and reads, at its pinned type, a field or method the workloads use.
#[allow(dead_code)]
fn pinned_types_keep_the_fields_the_workloads_read(
    run: &RunReport,
    profiled: &ProfileRun,
    recovered: &RecoveryRun,
    served: &ServeReport,
    explored: &ExploreReport,
) {
    let _: &RtStats = &run.stats;
    let _: u64 = run.clock_us;
    let _: &FaultReport = &run.faults;
    let _: (u64, u64) = (run.marshal_cache_hits, run.marshal_cache_misses);
    let _: String = run.summary();
    let _: (&IccProfile, &RunReport) = (&profiled.profile, &profiled.report);
    let _: (&RunReport, &Arc<RecoveryCoordinator>, &ComResult<()>) = (
        &recovered.report,
        &recovered.coordinator,
        &recovered.outcome,
    );
    let _: f64 = served.latency_quantile_us(0.99);
    let _: f64 = served.sessions_per_sim_sec();
    let _: f64 = served.mean_batch_size();
    let _: (&str, usize, usize) = (
        &explored.summary,
        explored.interleavings,
        explored.violations,
    );
}
