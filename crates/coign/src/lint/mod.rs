//! `coign check` — profiling-free static analysis over component metadata.
//!
//! The profiling pipeline only tells the truth about scenarios somebody ran;
//! this module reports everything Coign can know about an application
//! *without* running it, from three inputs: the interface metadata of the
//! registered component classes, the full location-constraint set, and the
//! modeled binary image. Three analysis stages push typed [`Diagnostic`]s
//! into one [`DiagnosticSink`]:
//!
//! 1. [`remotability`] — walk every method parameter of every registered
//!    interface; flag opaque-pointer parameters and interface pointers
//!    nobody declares (COIGN010–COIGN012).
//! 2. [`satisfiability`] — close the colocation constraints under union and
//!    prove that no group is pinned to both machines (COIGN020–COIGN021).
//! 3. [`image_lints`] — verify the rewriter's invariants on the binary
//!    image and its configuration record (COIGN030–COIGN035).
//! 4. [`effects`] — fold per-method [`coign_com::StateEffect`] annotations
//!    into per-class mutability verdicts (COIGN040–COIGN042).
//! 5. [`sharing`] — a union-find flow over interface-pointer parameters
//!    computing which classes are reachable from multiple holders;
//!    `shared ∧ mutable` is non-replicable (COIGN043), immutable classes
//!    are proven replicable (COIGN044).
//!
//! The same stages guard the pipeline: [`crate::runtime::check_constraints`]
//! runs stage 2 before `analyze` ever builds a flow network, so an
//! unsatisfiable constraint set fails fast with the **same rendered
//! diagnostics** `coign check` prints — min-cut is never invoked on a
//! contradiction. Stages 4 and 5 feed `coign place --replicate`: only
//! classes they prove replicable may be duplicated onto extra machines
//! ([`crate::multiway::ReplicationPlan`]).

#![deny(missing_docs)]

pub mod diag;
pub mod effects;
pub mod image_lints;
pub mod remotability;
pub mod satisfiability;
pub mod sharing;

pub use diag::{Diagnostic, DiagnosticSink};

use crate::application::Application;
use crate::classifier::ClassificationId;
use crate::config::ConfigRecord;
use crate::constraints::{Constraint, NamedConstraint};
use crate::profile::IccProfile;
use coign_com::{AppImage, ClassRegistry, ComRuntime};

/// Human label for a classification: the component class name when the
/// profile knows it, the bare id otherwise, and `user` for the root.
pub fn classification_label(
    profile: &IccProfile,
    registry: &ClassRegistry,
    id: ClassificationId,
) -> String {
    if id == ClassificationId::ROOT {
        return "user (c:root)".to_string();
    }
    match profile
        .class_of
        .get(&id)
        .and_then(|clsid| registry.get(*clsid).ok())
    {
        Some(desc) => format!("{} ({})", desc.name, id),
        None => id.to_string(),
    }
}

/// Stage 2 as one call: named-constraint resolution checks plus
/// satisfiability of the colocation closure. Returns `true` when the
/// constraint set admits a distribution.
///
/// Both `coign check` and the analysis pipeline call this, so a
/// contradiction produces byte-identical diagnostics on either path.
pub(crate) fn check_constraint_stage(
    profile: &IccProfile,
    registry: &ClassRegistry,
    named: &[NamedConstraint],
    constraints: &[Constraint],
    sink: &mut DiagnosticSink,
) -> bool {
    satisfiability::check_named(named, registry, sink);
    let mut non_remotable: Vec<_> = profile.non_remotable.iter().copied().collect();
    non_remotable.sort();
    let label = |id: ClassificationId| classification_label(profile, registry, id);
    satisfiability::check_constraints(constraints, &non_remotable, &label, sink)
}

/// Stages 4 and 5 as one call: state-effect folding followed by the
/// instance-sharing flow. Emits COIGN040–COIGN044 into the sink and
/// returns the replication-legality verdicts `coign place --replicate`
/// consumes.
pub fn analyze_replication(
    registry: &ClassRegistry,
    sink: &mut DiagnosticSink,
) -> sharing::ReplicationReport {
    let effect_analysis = effects::check_effects(registry, sink);
    sharing::check_sharing(registry, &effect_analysis, sink)
}

/// Runs all five stages over an application image — the engine behind
/// `coign check`. Needs no profiling data: when the image's configuration
/// record holds an accumulated profile it is used to name classifications
/// and recover recorded non-remotable pairs; otherwise stage 2 runs over
/// the purely static constraint set.
pub fn check_app_image(image: &AppImage, app: &dyn Application) -> DiagnosticSink {
    let rt = ComRuntime::single_machine();
    app.register(&rt);
    let mut sink = DiagnosticSink::new();

    remotability::check_registry(rt.registry(), &mut sink);
    analyze_replication(rt.registry(), &mut sink);

    let profile = image
        .config_record()
        .and_then(|bytes| ConfigRecord::decode(bytes).ok())
        .map(|record| record.profile)
        .unwrap_or_default();
    let named = app.explicit_constraints();
    let constraints = crate::runtime::derive_constraints(app, &profile);
    check_constraint_stage(&profile, rt.registry(), &named, &constraints, &mut sink);

    image_lints::check_image(image, rt.registry(), &mut sink);
    sink
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rewriter;
    use coign_com::registry::ApiImports;
    use coign_com::{Clsid, ComResult, MachineId};
    use std::sync::Arc;

    struct Nop;
    impl coign_com::ComObject for Nop {
        fn invoke(
            &self,
            _ctx: &coign_com::CallCtx<'_>,
            _iid: coign_com::Iid,
            _method: u32,
            _msg: &mut coign_com::Message,
        ) -> ComResult<()> {
            Ok(())
        }
    }

    struct TwoClassApp {
        named: Vec<NamedConstraint>,
    }

    impl Application for TwoClassApp {
        fn name(&self) -> &str {
            "twoclass"
        }
        fn register(&self, rt: &ComRuntime) {
            rt.registry()
                .register("Window", vec![], ApiImports::GUI, |_, _| Arc::new(Nop));
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
            AppImage::new(
                "twoclass.exe",
                vec![Clsid::from_name("Window"), Clsid::from_name("Store")],
            )
        }
        fn explicit_constraints(&self) -> Vec<NamedConstraint> {
            self.named.clone()
        }
    }

    #[test]
    fn labels_prefer_class_names() {
        let rt = ComRuntime::single_machine();
        rt.registry()
            .register("Story", vec![], ApiImports::NONE, |_, _| Arc::new(Nop));
        let mut profile = IccProfile::new();
        profile.record_instance(ClassificationId(3), Clsid::from_name("Story"));
        assert_eq!(
            classification_label(&profile, rt.registry(), ClassificationId(3)),
            "Story (c:3)"
        );
        assert_eq!(
            classification_label(&profile, rt.registry(), ClassificationId::ROOT),
            "user (c:root)"
        );
        // Unprofiled classification: bare id.
        assert_eq!(
            classification_label(&profile, rt.registry(), ClassificationId(9)),
            "c:9"
        );
    }

    #[test]
    fn uninstrumented_app_checks_clean() {
        let app = TwoClassApp { named: vec![] };
        let sink = check_app_image(&app.image(), &app);
        assert!(!sink.has_errors(), "{}", sink.render_human());
    }

    #[test]
    fn instrumented_app_checks_clean_without_any_profile() {
        let app = TwoClassApp { named: vec![] };
        let mut image = app.image();
        rewriter::instrument(
            &mut image,
            &crate::classifier::InstanceClassifier::new(crate::classifier::ClassifierKind::Ifcb),
        );
        let sink = check_app_image(&image, &app);
        assert!(!sink.has_errors(), "{}", sink.render_human());
    }

    #[test]
    fn unknown_named_constraint_is_an_error() {
        let app = TwoClassApp {
            named: vec![NamedConstraint::Absolute(
                "NoSuchClass".into(),
                MachineId::SERVER,
            )],
        };
        let sink = check_app_image(&app.image(), &app);
        assert!(sink.has_errors());
        assert!(sink.diagnostics().iter().any(|d| d.code == "COIGN021"));
    }
}
