//! Stage 3 — well-formedness lints over the application image itself.
//!
//! The binary rewriter maintains two invariants on an instrumented image:
//! the Coign runtime DLL occupies the **first** import slot (so it loads
//! before the application and can instrument COM in its address space), and
//! a single `.coign` section carries the configuration record. These lints
//! verify the invariants plus the consistency of the record's contents:
//!
//! * **COIGN030** (error): a Coign runtime DLL is imported but does not sit
//!   in the first import slot (or both runtimes are imported at once).
//! * **COIGN031** (error/warn): runtime import and `.coign` section do not
//!   come in a pair.
//! * **COIGN032** (error): a section name appears more than once.
//! * **COIGN033** (error): the image declares a component class the
//!   registry does not know.
//! * **COIGN034** (error): a stale distribution — the record's distribution
//!   places classifications its own classifier never defined.
//! * **COIGN035** (error): the configuration record (or its embedded
//!   classifier) does not decode.

use crate::classifier::InstanceClassifier;
use crate::config::ConfigRecord;
use crate::lint::diag::{DiagnosticSink, Severity};
use crate::rewriter::{COIGN_LITE_DLL, COIGN_RTE_DLL};
use coign_com::image::CONFIG_SECTION;
use coign_com::{AppImage, ClassRegistry};
use std::collections::BTreeMap;

/// Runs every image lint.
pub(crate) fn check_image(image: &AppImage, registry: &ClassRegistry, sink: &mut DiagnosticSink) {
    check_runtime_import(image, sink);
    check_sections(image, sink);
    check_classes(image, registry, sink);
    check_record(image, sink);
}

/// COIGN030: the runtime DLL, when present, must be the first import.
fn check_runtime_import(image: &AppImage, sink: &mut DiagnosticSink) {
    let rte = image.has_import(COIGN_RTE_DLL);
    let lite = image.has_import(COIGN_LITE_DLL);
    if rte && lite {
        sink.report(
            "COIGN030",
            Severity::Error,
            "import table",
            format!(
                "both {COIGN_RTE_DLL} (profiling) and {COIGN_LITE_DLL} (distribution) are \
                 imported; the runtimes are mutually exclusive"
            ),
            Some("re-run `coign instrument` or `coign analyze` to repair the image".to_string()),
        );
        return;
    }
    let runtime = if rte {
        COIGN_RTE_DLL
    } else if lite {
        COIGN_LITE_DLL
    } else {
        return;
    };
    let first = image.imports.first().map(|imp| imp.name.as_str());
    if first != Some(runtime) {
        let slot = image
            .imports
            .iter()
            .position(|imp| imp.name == runtime)
            .unwrap_or(0);
        sink.report(
            "COIGN030",
            Severity::Error,
            format!("import slot {slot}"),
            format!(
                "{runtime} is imported at slot {slot}, not slot 0; the Coign runtime must \
                 load before the application and its DLLs"
            ),
            Some("re-run `coign instrument` to restore the import order".to_string()),
        );
    }
}

/// COIGN031/COIGN032: section multiplicity and the import/section pairing.
fn check_sections(image: &AppImage, sink: &mut DiagnosticSink) {
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for section in &image.sections {
        *counts.entry(section.name.as_str()).or_insert(0) += 1;
    }
    for (name, count) in &counts {
        if *count > 1 {
            sink.report(
                "COIGN032",
                Severity::Error,
                format!("section `{name}`"),
                format!("section `{name}` appears {count} times; section names must be unique"),
                Some("strip and re-instrument the image".to_string()),
            );
        }
    }
    let instrumented = image.has_import(COIGN_RTE_DLL) || image.has_import(COIGN_LITE_DLL);
    let has_record = counts.contains_key(CONFIG_SECTION);
    if instrumented && !has_record {
        sink.report(
            "COIGN031",
            Severity::Error,
            format!("section `{CONFIG_SECTION}`"),
            "a Coign runtime is imported but the image carries no configuration record; \
             the runtime would find no instructions at load time"
                .to_string(),
            Some("re-run `coign instrument` to write a fresh record".to_string()),
        );
    } else if !instrumented && has_record {
        sink.report(
            "COIGN031",
            Severity::Warn,
            format!("section `{CONFIG_SECTION}`"),
            "the image carries a configuration record but imports no Coign runtime; \
             the record is dead weight"
                .to_string(),
            Some("run `coign strip` to remove it, or `coign instrument` to use it".to_string()),
        );
    }
}

/// COIGN033: every class the image declares must be registered.
fn check_classes(image: &AppImage, registry: &ClassRegistry, sink: &mut DiagnosticSink) {
    for clsid in &image.classes {
        if registry.get(*clsid).is_err() {
            sink.report(
                "COIGN033",
                Severity::Error,
                clsid.to_string(),
                format!(
                    "image `{}` declares component class {clsid}, which is not in the \
                     class registry; its instances can never be created or profiled",
                    image.name
                ),
                Some("register the class with the application, or drop it from the image".into()),
            );
        }
    }
}

/// COIGN034/COIGN035: the configuration record decodes, and its
/// distribution only references classifications the classifier defines.
fn check_record(image: &AppImage, sink: &mut DiagnosticSink) {
    let Some(bytes) = image.config_record() else {
        return;
    };
    let record = match ConfigRecord::decode(bytes) {
        Ok(record) => record,
        Err(e) => {
            sink.report(
                "COIGN035",
                Severity::Error,
                format!("section `{CONFIG_SECTION}`"),
                format!("configuration record does not decode: {e}"),
                Some("strip and re-instrument the image".to_string()),
            );
            return;
        }
    };
    let classifier = match InstanceClassifier::decode(&record.classifier) {
        Ok(classifier) => classifier,
        Err(e) => {
            sink.report(
                "COIGN035",
                Severity::Error,
                format!("section `{CONFIG_SECTION}`"),
                format!("embedded instance classifier does not decode: {e}"),
                Some("strip and re-instrument the image".to_string()),
            );
            return;
        }
    };
    let Some(distribution) = &record.distribution else {
        return;
    };
    // Classification ids are dense: ROOT (0) plus 1..=classification_count().
    let known = classifier.classification_count();
    let mut stale: Vec<u32> = distribution
        .placement
        .keys()
        .map(|class| class.0)
        .filter(|id| *id > known)
        .collect();
    stale.sort_unstable();
    for id in stale {
        sink.report(
            "COIGN034",
            Severity::Error,
            format!("classification #{id}"),
            format!(
                "the realized distribution places classification #{id}, but the record's \
                 classifier only defines {known} classification(s); the distribution is \
                 stale relative to the classifier"
            ),
            Some("re-run `coign profile` and `coign analyze` to refresh the record".to_string()),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Distribution;
    use crate::classifier::{ClassificationId, ClassifierKind};
    use crate::config::RuntimeMode;
    use crate::rewriter;
    use coign_com::image::ConfigSection;
    use coign_com::registry::ApiImports;
    use coign_com::{Clsid, ComRuntime, MachineId};
    use std::collections::HashMap;
    use std::sync::Arc;

    struct Nop;
    impl coign_com::ComObject for Nop {
        fn invoke(
            &self,
            _ctx: &coign_com::CallCtx<'_>,
            _iid: coign_com::Iid,
            _method: u32,
            _msg: &mut coign_com::Message,
        ) -> coign_com::ComResult<()> {
            Ok(())
        }
    }

    fn registry() -> ComRuntime {
        let rt = ComRuntime::single_machine();
        rt.registry()
            .register("Story", vec![], ApiImports::NONE, |_, _| Arc::new(Nop));
        rt
    }

    fn instrumented() -> AppImage {
        let mut image = AppImage::new("octarine.exe", vec![Clsid::from_name("Story")]);
        rewriter::instrument(&mut image, &InstanceClassifier::new(ClassifierKind::Ifcb));
        image
    }

    fn run(image: &AppImage) -> DiagnosticSink {
        let rt = registry();
        let mut sink = DiagnosticSink::new();
        check_image(image, rt.registry(), &mut sink);
        sink
    }

    #[test]
    fn healthy_instrumented_image_is_clean() {
        assert!(run(&instrumented()).is_empty());
    }

    #[test]
    fn uninstrumented_image_is_clean() {
        let image = AppImage::new("octarine.exe", vec![Clsid::from_name("Story")]);
        assert!(run(&image).is_empty());
    }

    #[test]
    fn runtime_not_first_is_an_error() {
        let mut image = instrumented();
        // Demote the runtime to the back of the import table.
        let runtime = image.imports.remove(0);
        image.imports.push(runtime);
        let sink = run(&image);
        assert!(sink.diagnostics().iter().any(|d| d.code == "COIGN030"));
        assert!(sink.has_errors());
    }

    #[test]
    fn both_runtimes_imported_is_an_error() {
        let mut image = instrumented();
        image.insert_import_first(rewriter::COIGN_LITE_DLL);
        let sink = run(&image);
        let d = sink
            .diagnostics()
            .iter()
            .find(|d| d.code == "COIGN030")
            .unwrap();
        assert!(d.message.contains("mutually exclusive"));
    }

    #[test]
    fn missing_record_under_runtime_is_an_error() {
        let mut image = instrumented();
        image.remove_section(CONFIG_SECTION);
        let sink = run(&image);
        let d = sink
            .diagnostics()
            .iter()
            .find(|d| d.code == "COIGN031")
            .unwrap();
        assert_eq!(d.severity, Severity::Error);
    }

    #[test]
    fn orphaned_record_is_a_warning() {
        let mut image = instrumented();
        image.remove_import(rewriter::COIGN_RTE_DLL);
        let sink = run(&image);
        let d = sink
            .diagnostics()
            .iter()
            .find(|d| d.code == "COIGN031")
            .unwrap();
        assert_eq!(d.severity, Severity::Warn);
        assert!(!sink.has_errors());
    }

    #[test]
    fn duplicate_sections_are_an_error() {
        let mut image = instrumented();
        let existing = image.section(CONFIG_SECTION).unwrap().clone();
        image.sections.push(ConfigSection {
            name: existing.name,
            data: existing.data,
        });
        let sink = run(&image);
        assert!(sink.diagnostics().iter().any(|d| d.code == "COIGN032"));
    }

    #[test]
    fn unregistered_image_classes_are_an_error() {
        let mut image = instrumented();
        image.classes.push(Clsid::from_name("GhostClass"));
        let sink = run(&image);
        let d = sink
            .diagnostics()
            .iter()
            .find(|d| d.code == "COIGN033")
            .unwrap();
        assert!(d.message.contains("not in the"));
    }

    #[test]
    fn garbage_record_is_an_error() {
        let mut image = instrumented();
        image.set_config_record(vec![0xde, 0xad, 0xbe, 0xef]);
        let sink = run(&image);
        assert!(sink.diagnostics().iter().any(|d| d.code == "COIGN035"));
    }

    #[test]
    fn stale_distribution_is_an_error() {
        let mut image = instrumented();
        let mut record = rewriter::read_config(&image).unwrap();
        // The fresh classifier defines zero classifications, yet the
        // distribution places #7 — a record from a previous profile.
        record.mode = RuntimeMode::Distributed;
        record.distribution = Some(Distribution {
            placement: HashMap::from([
                (ClassificationId::ROOT, MachineId::CLIENT),
                (ClassificationId(7), MachineId::SERVER),
            ]),
            predicted_comm_us: 0.0,
            network_name: "test".into(),
        });
        image.set_config_record(record.encode());
        let sink = run(&image);
        let d = sink
            .diagnostics()
            .iter()
            .find(|d| d.code == "COIGN034")
            .unwrap();
        assert_eq!(d.subject, "classification #7");
        // ROOT is always valid, so exactly one stale id fires.
        assert_eq!(
            sink.diagnostics()
                .iter()
                .filter(|d| d.code == "COIGN034")
                .count(),
            1
        );
    }
}
