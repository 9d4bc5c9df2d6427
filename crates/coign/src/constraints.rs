//! Component location constraints.
//!
//! The analysis engine combines communication profiles with location
//! constraints acquired from three sources (§2, §4.3):
//!
//! 1. **Static binary analysis** — components that call known GUI APIs are
//!    placed on the client; components that access storage or database APIs
//!    are placed on the server. The simulation reads the equivalent
//!    information from each class's [`coign_com::ApiImports`].
//! 2. **Communication records** — non-remotable interfaces observed during
//!    profiling force co-location (these arrive via
//!    [`crate::profile::IccProfile::non_remotable`], handled in analysis).
//! 3. **The programmer** — explicit *absolute* constraints (force an
//!    instance to a machine) and *pair-wise* constraints (force two
//!    instances together), expressed by class name.

use crate::classifier::ClassificationId;
use crate::profile::IccProfile;
use coign_com::{ClassRegistry, Clsid, MachineId};

/// A placement constraint on classifications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Constraint {
    /// The classification must run on the client.
    PinClient(ClassificationId),
    /// The classification must run on the server.
    PinServer(ClassificationId),
    /// The two classifications must share a machine.
    Colocate(ClassificationId, ClassificationId),
}

/// A programmer-supplied constraint, expressed by component class name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NamedConstraint {
    /// Absolute constraint: every instance of the class goes to the machine.
    Absolute(String, MachineId),
    /// Pair-wise constraint: instances of the two classes are co-located.
    Pairwise(String, String),
}

/// Derives constraints from static API analysis of the profiled classes.
///
/// Every classification whose component class imports GUI APIs is pinned to
/// the client; storage/database importers are pinned to the server. The
/// application root is always pinned to the client (the user sits there).
pub(crate) fn derive_static_constraints(
    profile: &IccProfile,
    registry: &ClassRegistry,
) -> Vec<Constraint> {
    let mut constraints = vec![Constraint::PinClient(ClassificationId::ROOT)];
    let mut classes: Vec<(&ClassificationId, &Clsid)> = profile.class_of.iter().collect();
    classes.sort();
    for (class, clsid) in classes {
        let Ok(desc) = registry.get(*clsid) else {
            continue;
        };
        if desc.imports.uses_gui() {
            constraints.push(Constraint::PinClient(*class));
        }
        if desc.imports.uses_storage() {
            constraints.push(Constraint::PinServer(*class));
        }
    }
    constraints
}

/// Resolves programmer-supplied named constraints against the profile.
///
/// A named class maps to *every* classification whose instances belong to
/// that class (class names are deterministic CLSIDs, so resolution needs no
/// registry).
pub(crate) fn resolve_named_constraints(
    profile: &IccProfile,
    named: &[NamedConstraint],
) -> Vec<Constraint> {
    let classifications_of = |name: &str| -> Vec<ClassificationId> {
        let clsid = Clsid::from_name(name);
        let mut out: Vec<ClassificationId> = profile
            .class_of
            .iter()
            .filter(|(_, c)| **c == clsid)
            .map(|(id, _)| *id)
            .collect();
        out.sort();
        out
    };
    let mut constraints = Vec::new();
    for c in named {
        match c {
            NamedConstraint::Absolute(name, machine) => {
                for class in classifications_of(name) {
                    constraints.push(match *machine {
                        MachineId::CLIENT => Constraint::PinClient(class),
                        _ => Constraint::PinServer(class),
                    });
                }
            }
            NamedConstraint::Pairwise(a, b) => {
                let left = classifications_of(a);
                let right = classifications_of(b);
                for &la in &left {
                    for &rb in &right {
                        if la != rb {
                            constraints.push(Constraint::Colocate(la, rb));
                        }
                    }
                }
            }
        }
    }
    constraints
}

#[cfg(test)]
mod tests {
    use super::*;
    use coign_com::registry::ApiImports;
    use coign_com::ComRuntime;
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

    fn profile_with(classes: &[(u32, &str)]) -> IccProfile {
        let mut p = IccProfile::new();
        for (id, name) in classes {
            p.record_instance(ClassificationId(*id), Clsid::from_name(name));
        }
        p
    }

    #[test]
    fn static_analysis_pins_gui_and_storage() {
        let rt = ComRuntime::single_machine();
        rt.registry()
            .register("Window", vec![], ApiImports::GUI, |_, _| Arc::new(Nop));
        rt.registry()
            .register("FileReader", vec![], ApiImports::STORAGE, |_, _| {
                Arc::new(Nop)
            });
        rt.registry()
            .register("Logic", vec![], ApiImports::NONE, |_, _| Arc::new(Nop));
        let profile = profile_with(&[(1, "Window"), (2, "FileReader"), (3, "Logic")]);
        let constraints = derive_static_constraints(&profile, rt.registry());
        assert!(constraints.contains(&Constraint::PinClient(ClassificationId::ROOT)));
        assert!(constraints.contains(&Constraint::PinClient(ClassificationId(1))));
        assert!(constraints.contains(&Constraint::PinServer(ClassificationId(2))));
        // Logic is unconstrained.
        assert!(!constraints.iter().any(|c| matches!(
            c,
            Constraint::PinClient(ClassificationId(3)) | Constraint::PinServer(ClassificationId(3))
        )));
    }

    #[test]
    fn database_classes_pin_to_server() {
        let rt = ComRuntime::single_machine();
        rt.registry()
            .register("Odbc", vec![], ApiImports::DATABASE, |_, _| Arc::new(Nop));
        let profile = profile_with(&[(1, "Odbc")]);
        let constraints = derive_static_constraints(&profile, rt.registry());
        assert!(constraints.contains(&Constraint::PinServer(ClassificationId(1))));
    }

    #[test]
    fn unknown_classes_are_skipped() {
        let rt = ComRuntime::single_machine();
        let profile = profile_with(&[(1, "NeverRegistered")]);
        let constraints = derive_static_constraints(&profile, rt.registry());
        assert_eq!(constraints.len(), 1); // just the ROOT pin
    }

    #[test]
    fn named_absolute_resolves_all_classifications_of_class() {
        // Two classifications of the same class (different call chains).
        let profile = profile_with(&[(1, "Cache"), (2, "Cache"), (3, "Other")]);
        let named = vec![NamedConstraint::Absolute("Cache".into(), MachineId::SERVER)];
        let constraints = resolve_named_constraints(&profile, &named);
        assert_eq!(
            constraints,
            vec![
                Constraint::PinServer(ClassificationId(1)),
                Constraint::PinServer(ClassificationId(2)),
            ]
        );
    }

    #[test]
    fn named_pairwise_crosses_classifications() {
        let profile = profile_with(&[(1, "A"), (2, "B"), (3, "B")]);
        let named = vec![NamedConstraint::Pairwise("A".into(), "B".into())];
        let constraints = resolve_named_constraints(&profile, &named);
        assert_eq!(constraints.len(), 2);
        assert!(constraints.contains(&Constraint::Colocate(
            ClassificationId(1),
            ClassificationId(2)
        )));
    }

    #[test]
    fn named_constraint_on_absent_class_is_empty() {
        let profile = profile_with(&[(1, "A")]);
        let named = vec![NamedConstraint::Absolute("Ghost".into(), MachineId::CLIENT)];
        assert!(resolve_named_constraints(&profile, &named).is_empty());
    }

    #[test]
    fn pairwise_constraints_close_transitively() {
        // A–B and B–C pairwise constraints chain A, B, and C into one
        // colocation group: pinning A client and C server is unsatisfiable
        // even though no constraint mentions A and C together.
        let profile = profile_with(&[(1, "A"), (2, "B"), (3, "C")]);
        let named = vec![
            NamedConstraint::Pairwise("A".into(), "B".into()),
            NamedConstraint::Pairwise("B".into(), "C".into()),
        ];
        let mut constraints = resolve_named_constraints(&profile, &named);
        constraints.push(Constraint::PinClient(ClassificationId(1)));
        constraints.push(Constraint::PinServer(ClassificationId(3)));
        let mut sink = crate::lint::DiagnosticSink::new();
        let label = |id: ClassificationId| id.to_string();
        assert!(!crate::lint::satisfiability::check_constraints(
            &constraints,
            &[],
            &label,
            &mut sink
        ));
        let d = &sink.diagnostics()[0];
        assert_eq!(d.code, "COIGN020");
        assert!(d.subject.contains("c:2"), "chain member missing: {d:?}");
    }

    #[test]
    fn conflicting_absolute_constraints_are_unsatisfiable() {
        // The programmer pins the same class to both machines: every
        // classification of the class becomes a one-member group pinned
        // both ways.
        let profile = profile_with(&[(1, "Cache")]);
        let named = vec![
            NamedConstraint::Absolute("Cache".into(), MachineId::CLIENT),
            NamedConstraint::Absolute("Cache".into(), MachineId::SERVER),
        ];
        let constraints = resolve_named_constraints(&profile, &named);
        let mut sink = crate::lint::DiagnosticSink::new();
        let label = |id: ClassificationId| id.to_string();
        assert!(!crate::lint::satisfiability::check_constraints(
            &constraints,
            &[],
            &label,
            &mut sink
        ));
        assert_eq!(sink.diagnostics()[0].code, "COIGN020");
        assert_eq!(sink.diagnostics()[0].subject, "c:1");
    }

    #[test]
    fn unknown_class_names_in_constraints_are_diagnosed() {
        let rt = ComRuntime::single_machine();
        rt.registry()
            .register("Known", vec![], ApiImports::NONE, |_, _| Arc::new(Nop));
        let named = vec![
            NamedConstraint::Absolute("Mispelled".into(), MachineId::SERVER),
            NamedConstraint::Pairwise("Known".into(), "AlsoGhost".into()),
        ];
        let mut sink = crate::lint::DiagnosticSink::new();
        crate::lint::satisfiability::check_named(&named, rt.registry(), &mut sink);
        let codes: Vec<_> = sink.diagnostics().iter().map(|d| d.code).collect();
        assert_eq!(codes, vec!["COIGN021", "COIGN021"]);
        let subjects: Vec<_> = sink
            .diagnostics()
            .iter()
            .map(|d| d.subject.as_str())
            .collect();
        assert_eq!(subjects, vec!["AlsoGhost", "Mispelled"]);
    }
}
