//! Stage 4 — state-effect analysis over interface metadata.
//!
//! Every method carries a declared [`StateEffect`] (`Pure`, `ReadsState`,
//! or the conservative default `MutatesState`). This stage folds the
//! per-method declarations into a per-class **mutability verdict**: a class
//! is *immutable after construction* iff every method of every interface it
//! declares is read-only. Immutability is the first half of the
//! replication-legality proof (stage 5 adds instance sharing).
//!
//! Diagnostics:
//!
//! * **COIGN040** (info): a class that declares at least one read-only
//!   method but still has state-mutating methods — partially annotated, so
//!   the mutating remainder is what blocks replication. Classes with no
//!   read-only annotations at all stay silent: the conservative default is
//!   already speaking for them, and reporting it would bury annotated apps
//!   in noise.
//! * **COIGN041** (warn): the same interface name is declared by several
//!   classes with *different* effect annotations. The analyzer cannot trust
//!   either declaration, so every declaring class is conservatively treated
//!   as mutable.
//! * **COIGN042** (info): an interface whose every method is read-only —
//!   components reached exclusively through it can be duplicated without
//!   their state diverging.

use crate::lint::diag::{DiagnosticSink, Severity};
use coign_com::idl::InterfaceDesc;
use coign_com::{ClassRegistry, StateEffect};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Per-class mutability verdicts derived from effect annotations.
#[derive(Debug, Clone, Default)]
pub struct EffectAnalysis {
    /// Class name → true when some method may mutate instance state (or an
    /// inconsistent interface declaration forced the conservative verdict).
    pub class_mutable: BTreeMap<String, bool>,
    /// Class name → true when the class declares at least one read-only
    /// method, i.e. somebody actually annotated it. Wholly unannotated
    /// classes are conservatively mutable but not worth diagnostics.
    pub class_annotated: BTreeMap<String, bool>,
    /// Interface name → true when every method is `Pure` or `ReadsState`.
    pub interface_read_only: BTreeMap<String, bool>,
}

impl EffectAnalysis {
    /// True when the class may mutate instance state. Unknown classes are
    /// conservatively mutable.
    pub(crate) fn is_mutable(&self, class: &str) -> bool {
        self.class_mutable.get(class).copied().unwrap_or(true)
    }

    /// True when the class declares at least one read-only method.
    pub fn is_annotated(&self, class: &str) -> bool {
        self.class_annotated.get(class).copied().unwrap_or(false)
    }

    /// Classes proven immutable after construction, in name order.
    #[cfg(test)]
    fn immutable_classes(&self) -> Vec<&str> {
        self.class_mutable
            .iter()
            .filter(|(_, mutable)| !**mutable)
            .map(|(name, _)| name.as_str())
            .collect()
    }
}

/// Runs the state-effect stage over every class in the registry and returns
/// the folded per-class verdicts.
pub fn check_effects(registry: &ClassRegistry, sink: &mut DiagnosticSink) -> EffectAnalysis {
    // Collect every (interface, declaring class) pair, name-sorted for
    // deterministic reports. `ClassRegistry::all()` order is unspecified.
    let mut classes = registry.all();
    classes.sort_by(|a, b| a.name.cmp(&b.name));

    // Interface name → every distinct declaration seen (shared `Arc`s
    // collapse; only genuinely divergent re-declarations survive as extras).
    let mut declarations: BTreeMap<String, Vec<Arc<InterfaceDesc>>> = BTreeMap::new();
    for class in &classes {
        for iface in &class.interfaces {
            let seen = declarations.entry(iface.name.clone()).or_default();
            if !seen.iter().any(|d| effects_match(d, iface)) {
                seen.push(iface.clone());
            }
        }
    }

    let mut analysis = EffectAnalysis::default();
    let mut inconsistent: BTreeMap<String, bool> = BTreeMap::new();
    for (name, decls) in &declarations {
        if decls.len() > 1 {
            sink.report(
                "COIGN041",
                Severity::Warn,
                name.clone(),
                format!(
                    "interface `{name}` is declared with {} different effect annotations \
                     across registered classes; the declarations cannot all be honest, so \
                     every class declaring `{name}` is conservatively treated as mutable",
                    decls.len()
                ),
                Some(format!(
                    "share one interface description for `{name}` so its effect \
                     annotations have a single source of truth"
                )),
            );
        }
        inconsistent.insert(name.clone(), decls.len() > 1);
        let read_only = decls.len() == 1
            && decls[0]
                .methods
                .iter()
                .all(|method| method.effect.is_read_only());
        analysis.interface_read_only.insert(name.clone(), read_only);
        if read_only && !decls[0].methods.is_empty() {
            sink.report(
                "COIGN042",
                Severity::Info,
                name.clone(),
                format!(
                    "interface `{name}` is effect-pure (every method is pure or \
                     reads-state): components reached only through it can be \
                     replicated without state divergence"
                ),
                None,
            );
        }
    }

    for class in &classes {
        let mut mutating: Vec<String> = Vec::new();
        let mut read_only_declared = false;
        let mut forced_by_inconsistency = false;
        for iface in &class.interfaces {
            if inconsistent.get(&iface.name).copied().unwrap_or(false) {
                forced_by_inconsistency = true;
            }
            for method in &iface.methods {
                if method.effect == StateEffect::MutatesState {
                    mutating.push(format!("{}::{}", iface.name, method.name));
                } else {
                    read_only_declared = true;
                }
            }
        }
        let mutable = !mutating.is_empty() || forced_by_inconsistency;
        analysis.class_mutable.insert(class.name.clone(), mutable);
        analysis
            .class_annotated
            .insert(class.name.clone(), read_only_declared);
        // Only partially annotated classes are worth a note: the mutating
        // remainder is exactly what stands between them and replication.
        if mutable && read_only_declared && !mutating.is_empty() {
            sink.report(
                "COIGN040",
                Severity::Info,
                class.name.clone(),
                format!(
                    "class `{}` mutates instance state in {} ({}); it is not a \
                     replication candidate",
                    class.name,
                    if mutating.len() == 1 {
                        "one method".to_string()
                    } else {
                        format!("{} methods", mutating.len())
                    },
                    mutating.join(", ")
                ),
                Some(
                    "replication requires every method to be annotated pure or \
                     reads-state; mutating methods keep the class single-copy"
                        .to_string(),
                ),
            );
        }
    }
    analysis
}

/// True when two declarations of one interface agree method-for-method on
/// names and effects (parameter lists are stage 1's concern).
fn effects_match(a: &InterfaceDesc, b: &InterfaceDesc) -> bool {
    a.methods.len() == b.methods.len()
        && a.methods
            .iter()
            .zip(&b.methods)
            .all(|(ma, mb)| ma.name == mb.name && ma.effect == mb.effect)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coign_com::idl::InterfaceBuilder;
    use coign_com::registry::ApiImports;
    use coign_com::{Iid, PType};
    use std::sync::Arc;

    struct Nop;
    impl coign_com::ComObject for Nop {
        fn invoke(
            &self,
            _ctx: &coign_com::CallCtx<'_>,
            _iid: Iid,
            _method: u32,
            _msg: &mut coign_com::Message,
        ) -> coign_com::ComResult<()> {
            Ok(())
        }
    }

    #[test]
    fn unannotated_classes_are_mutable_and_silent() {
        let reg = ClassRegistry::new();
        let iface = InterfaceBuilder::new("IPlain")
            .method("Do", |m| m.input("x", PType::I4))
            .build();
        reg.register("Plain", vec![iface], ApiImports::NONE, |_, _| Arc::new(Nop));
        let mut sink = DiagnosticSink::new();
        let analysis = check_effects(&reg, &mut sink);
        assert!(analysis.is_mutable("Plain"));
        assert!(analysis.immutable_classes().is_empty());
        assert!(sink.is_empty(), "{:?}", sink.diagnostics());
    }

    #[test]
    fn fully_read_only_class_is_immutable_with_pure_interface_fact() {
        let reg = ClassRegistry::new();
        let iface = InterfaceBuilder::new("ILookup")
            .method("Hash", |m| m.input("data", PType::Blob).pure())
            .method("Peek", |m| m.output("v", PType::I4).reads_state())
            .build();
        reg.register("Table", vec![iface], ApiImports::NONE, |_, _| Arc::new(Nop));
        let mut sink = DiagnosticSink::new();
        let analysis = check_effects(&reg, &mut sink);
        assert!(!analysis.is_mutable("Table"));
        assert_eq!(analysis.immutable_classes(), vec!["Table"]);
        let codes: Vec<_> = sink.diagnostics().iter().map(|d| d.code).collect();
        assert_eq!(codes, vec!["COIGN042"]);
    }

    #[test]
    fn partially_annotated_class_notes_the_mutating_remainder() {
        let reg = ClassRegistry::new();
        let iface = InterfaceBuilder::new("ICache")
            .method("Fill", |m| m.input("rows", PType::Blob).mutates_state())
            .method("Get", |m| m.output("row", PType::Blob).reads_state())
            .build();
        reg.register("Cache", vec![iface], ApiImports::NONE, |_, _| Arc::new(Nop));
        let mut sink = DiagnosticSink::new();
        let analysis = check_effects(&reg, &mut sink);
        assert!(analysis.is_mutable("Cache"));
        let d = &sink.diagnostics()[0];
        assert_eq!(d.code, "COIGN040");
        assert_eq!(d.severity, Severity::Info);
        assert!(d.message.contains("ICache::Fill"));
    }

    #[test]
    fn inconsistent_redeclaration_warns_and_forces_mutable() {
        // Same interface name, two different effect annotations: the
        // (name-derived) IID collides but the declarations disagree.
        let honest = InterfaceBuilder::new("IQuery")
            .method("Run", |m| m.input("q", PType::Str).reads_state())
            .build();
        let lying = InterfaceBuilder::new("IQuery")
            .method("Run", |m| m.input("q", PType::Str))
            .build();
        let reg = ClassRegistry::new();
        reg.register("A", vec![honest], ApiImports::NONE, |_, _| Arc::new(Nop));
        reg.register("B", vec![lying], ApiImports::NONE, |_, _| Arc::new(Nop));
        let mut sink = DiagnosticSink::new();
        let analysis = check_effects(&reg, &mut sink);
        assert!(sink.diagnostics().iter().any(|d| d.code == "COIGN041"));
        assert!(analysis.is_mutable("A"));
        assert!(analysis.is_mutable("B"));
        assert!(!analysis.interface_read_only["IQuery"]);
    }

    #[test]
    fn shared_declarations_do_not_trip_the_inconsistency_check() {
        let iface = InterfaceBuilder::new("IShared")
            .method("Get", |m| m.output("v", PType::I4).reads_state())
            .build();
        let reg = ClassRegistry::new();
        reg.register("A", vec![iface.clone()], ApiImports::NONE, |_, _| {
            Arc::new(Nop)
        });
        reg.register("B", vec![iface], ApiImports::NONE, |_, _| Arc::new(Nop));
        let mut sink = DiagnosticSink::new();
        let analysis = check_effects(&reg, &mut sink);
        assert!(sink.diagnostics().iter().all(|d| d.code != "COIGN041"));
        assert!(!analysis.is_mutable("A"));
        assert!(!analysis.is_mutable("B"));
    }

    #[test]
    fn interface_with_no_methods_is_not_reported_pure() {
        let reg = ClassRegistry::new();
        reg.register(
            "Empty",
            vec![InterfaceBuilder::new("IEmpty").build()],
            ApiImports::NONE,
            |_, _| Arc::new(Nop),
        );
        let mut sink = DiagnosticSink::new();
        let analysis = check_effects(&reg, &mut sink);
        // Vacuously read-only, but an empty interface is not evidence.
        assert!(sink.is_empty());
        assert!(!analysis.is_mutable("Empty"));
    }
}
