//! Integration tests for the `coign check` static analysis pass and its
//! coupling to the analysis pipeline: contradictory constraint sets fail
//! fast (min-cut is never invoked) with the same diagnostics `coign check`
//! reports, and profile traffic over a non-remotable interface is rejected
//! rather than cut.

use coign::application::Application;
use coign::classifier::{ClassificationId, ClassifierKind, InstanceClassifier};
use coign::constraints::NamedConstraint;
use coign::profile::IccProfile;
use coign::runtime::{check_constraints, choose_distribution, derive_constraints};
use coign::{analyze, lint, rewriter};
use coign_com::idl::InterfaceBuilder;
use coign_com::registry::ApiImports;
use coign_com::{
    AppImage, CallCtx, Clsid, ComError, ComObject, ComResult, ComRuntime, Iid, MachineId, Message,
    PType,
};
use coign_dcom::{NetworkModel, NetworkProfile};
use coign_flow::{min_cut_invocations, MaxFlowAlgorithm};
use std::sync::Arc;

struct Nop;
impl ComObject for Nop {
    fn invoke(
        &self,
        _ctx: &CallCtx<'_>,
        _iid: Iid,
        _method: u32,
        _msg: &mut Message,
    ) -> ComResult<()> {
        Ok(())
    }
}

fn network() -> NetworkProfile {
    NetworkProfile::exact(&NetworkModel::ethernet_10baset())
}

fn c(n: u32) -> ClassificationId {
    ClassificationId(n)
}

/// Two plain classes whose programmer constraints contradict: Alpha and
/// Beta are bound together, yet pinned to opposite machines.
struct ConflictedApp;

impl Application for ConflictedApp {
    fn name(&self) -> &str {
        "conflicted"
    }
    fn register(&self, rt: &ComRuntime) {
        rt.registry()
            .register("Alpha", vec![], ApiImports::NONE, |_, _| Arc::new(Nop));
        rt.registry()
            .register("Beta", vec![], ApiImports::NONE, |_, _| Arc::new(Nop));
    }
    fn scenarios(&self) -> Vec<&'static str> {
        vec![]
    }
    fn run_scenario(&self, _rt: &ComRuntime, _scenario: &str) -> ComResult<()> {
        Ok(())
    }
    fn image(&self) -> AppImage {
        AppImage::new(
            "conflicted.exe",
            vec![Clsid::from_name("Alpha"), Clsid::from_name("Beta")],
        )
    }
    fn explicit_constraints(&self) -> Vec<NamedConstraint> {
        vec![
            NamedConstraint::Pairwise("Alpha".into(), "Beta".into()),
            NamedConstraint::Absolute("Alpha".into(), MachineId::CLIENT),
            NamedConstraint::Absolute("Beta".into(), MachineId::SERVER),
        ]
    }
}

fn conflicted_profile() -> IccProfile {
    let mut p = IccProfile::new();
    p.record_instance(c(1), Clsid::from_name("Alpha"));
    p.record_instance(c(2), Clsid::from_name("Beta"));
    for _ in 0..10 {
        p.record_message(c(1), c(2), Iid::from_name("IPlain"), 0, 1_000);
    }
    p
}

#[test]
fn contradictory_constraints_fail_fast_without_min_cut() {
    let app = ConflictedApp;
    let profile = conflicted_profile();
    // The invocation counter is thread-local, so concurrent tests cannot
    // disturb this count: any increment would come from *this* call chain.
    let before = min_cut_invocations();
    let err = choose_distribution(&app, &profile, &network()).unwrap_err();
    assert_eq!(
        min_cut_invocations(),
        before,
        "min-cut must never run on an unsatisfiable constraint set"
    );
    let ComError::App(detail) = err else {
        panic!("expected an application error, got {err:?}");
    };
    assert!(detail.contains("COIGN020"), "{detail}");
    assert!(detail.contains("Alpha (c:1)"), "{detail}");
    assert!(detail.contains("Beta (c:2)"), "{detail}");
}

#[test]
fn analyze_itself_rejects_contradictions_before_cutting() {
    // Even calling the analysis engine directly (bypassing the pipeline's
    // own guard) never reaches the solver.
    let app = ConflictedApp;
    let profile = conflicted_profile();
    let constraints = derive_constraints(&app, &profile);
    let before = min_cut_invocations();
    let err = analyze(
        &profile,
        &network(),
        &constraints,
        MaxFlowAlgorithm::LiftToFront,
    )
    .unwrap_err();
    assert_eq!(min_cut_invocations(), before);
    assert!(matches!(err, ComError::App(_)));
}

#[test]
fn check_and_pipeline_report_identical_diagnostics() {
    let app = ConflictedApp;
    let profile = conflicted_profile();

    // `coign check` side: instrument the image and accumulate the same
    // profile into its configuration record.
    let mut image = app.image();
    rewriter::instrument(&mut image, &InstanceClassifier::new(ClassifierKind::Ifcb));
    rewriter::accumulate_profile(&mut image, &profile).unwrap();
    let sink = lint::check_app_image(&image, &app);
    assert!(sink.has_errors());
    let conflicts: Vec<&lint::Diagnostic> = sink
        .diagnostics()
        .iter()
        .filter(|d| d.code == "COIGN020")
        .collect();
    assert_eq!(conflicts.len(), 1);

    // Pipeline side: the same constraint set fails `cmd_analyze`'s guard.
    let ComError::App(detail) = check_constraints(&app, &profile).unwrap_err() else {
        panic!("expected an application error");
    };
    for diagnostic in conflicts {
        assert!(
            detail.contains(&diagnostic.render()),
            "pipeline error must embed the identical rendered diagnostic\n\
             diagnostic: {}\npipeline error: {detail}",
            diagnostic.render()
        );
    }
}

/// GUI shell + worker + storage backend. The worker hammers storage, so an
/// unconstrained cut sends it to the server — unless its link to the shell
/// is non-remotable, which forces it back to the client.
struct SharedMemoryApp;

const SHELL: u32 = 1;
const WORKER: u32 = 2;
const STORE: u32 = 3;

impl Application for SharedMemoryApp {
    fn name(&self) -> &str {
        "sharedmem"
    }
    fn register(&self, rt: &ComRuntime) {
        let ishared = InterfaceBuilder::new("ISharedBuffer")
            .method("Map", |m| m.input("region", PType::Opaque))
            .build();
        assert!(!ishared.remotable);
        let iwork = InterfaceBuilder::new("IWork")
            .method("Fetch", |m| m.output("data", PType::Blob))
            .build();
        rt.registry()
            .register("Shell", vec![], ApiImports::GUI, |_, _| Arc::new(Nop));
        rt.registry()
            .register("Worker", vec![ishared, iwork], ApiImports::NONE, |_, _| {
                Arc::new(Nop)
            });
        rt.registry()
            .register("Store", vec![], ApiImports::STORAGE, |_, _| Arc::new(Nop));
    }
    fn scenarios(&self) -> Vec<&'static str> {
        vec![]
    }
    fn run_scenario(&self, _rt: &ComRuntime, _scenario: &str) -> ComResult<()> {
        Ok(())
    }
    fn image(&self) -> AppImage {
        AppImage::new("sharedmem.exe", vec![Clsid::from_name("Shell")])
    }
}

/// The traffic both profiles share: light shell↔worker chatter on a
/// remotable interface, heavy worker↔store transfers.
fn base_profile() -> IccProfile {
    let iwork = Iid::from_name("IWork");
    let mut p = IccProfile::new();
    p.record_instance(c(SHELL), Clsid::from_name("Shell"));
    p.record_instance(c(WORKER), Clsid::from_name("Worker"));
    p.record_instance(c(STORE), Clsid::from_name("Store"));
    p.record_message(c(SHELL), c(WORKER), iwork, 0, 500);
    for _ in 0..200 {
        p.record_message(c(WORKER), c(STORE), iwork, 0, 60_000);
    }
    p
}

#[test]
fn static_and_dynamic_non_remotable_paths_agree() {
    let app = SharedMemoryApp;

    // Baseline: without any shell↔worker binding, the storage-hammering
    // worker follows the store to the server.
    let baseline = choose_distribution(&app, &base_profile(), &network()).unwrap();
    assert_eq!(baseline.machine_of(c(WORKER)), MachineId::SERVER);

    // Dynamic path: the profiling informer observed the non-remotable call
    // and recorded the colocation fact (no traffic edge — non-remotable
    // calls are logged as constraints, not communication).
    let mut dynamic_profile = base_profile();
    dynamic_profile.record_non_remotable(c(SHELL), c(WORKER));
    let dynamic = choose_distribution(&app, &dynamic_profile, &network()).unwrap();

    // Traffic path: the profile carries traffic on ISharedBuffer, which the
    // profiling logger never writes (it records a non-remotable call as a
    // pair, as above). Nothing binds the pair, so the constraint stage
    // rejects the profile with COIGN022 instead of letting the cut split it.
    let mut traffic_profile = base_profile();
    traffic_profile.record_message(c(SHELL), c(WORKER), Iid::from_name("ISharedBuffer"), 0, 64);
    assert!(traffic_profile.non_remotable.is_empty());
    let constraints = derive_constraints(&app, &traffic_profile);
    assert!(
        !constraints
            .iter()
            .any(|ct| *ct == coign::constraints::Constraint::Colocate(c(SHELL), c(WORKER))),
        "interface metadata is not a constraint source: {constraints:?}"
    );
    let Err(ComError::App(detail)) = choose_distribution(&app, &traffic_profile, &network()) else {
        panic!("traffic over a non-remotable interface must be rejected");
    };
    assert!(detail.contains("COIGN022"), "{detail}");
    assert!(detail.contains("ISharedBuffer"), "{detail}");

    // The observed pair forces the worker to stay with the GUI shell on
    // the client; neither path yields a distribution that splits it.
    assert_eq!(dynamic.machine_of(c(WORKER)), MachineId::CLIENT);
    assert_eq!(dynamic.machine_of(c(SHELL)), MachineId::CLIENT);
    assert_eq!(dynamic.machine_of(c(STORE)), MachineId::SERVER);
}

#[test]
fn check_reports_all_three_stage_families_without_profiling() {
    // A freshly instrumented image — zero scenarios profiled — still gets
    // a full report: remotability facts from interface metadata, a
    // satisfiable constraint verdict, and image lints.
    let app = SharedMemoryApp;
    let mut image = app.image();
    rewriter::instrument(&mut image, &InstanceClassifier::new(ClassifierKind::Ifcb));
    let sink = lint::check_app_image(&image, &app);
    // Stage 1 fires on ISharedBuffer's opaque parameter.
    assert!(sink.diagnostics().iter().any(|d| d.code == "COIGN010"));
    assert!(sink.diagnostics().iter().any(|d| d.code == "COIGN012"));
    // Stages 2 and 3 pass: no errors at all, so `coign check` exits 0.
    assert!(!sink.has_errors(), "{}", sink.render_human());
    // And the machine-readable form carries the same verdict.
    assert!(sink.render_json().starts_with("{\"errors\":0,"));
}
