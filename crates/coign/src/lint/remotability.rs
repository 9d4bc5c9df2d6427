//! Stage 1 — remotability analysis over interface metadata.
//!
//! Walks every method and parameter of every interface declared by a
//! registered class — the static equivalent of what the profiling informer
//! learns call by call — and reports:
//!
//! * **COIGN010** (warn): a parameter whose type contains an opaque pointer;
//!   the standard marshaler cannot transfer it, so the whole interface is
//!   non-remotable.
//! * **COIGN011** (warn): an interface-pointer parameter whose target IID is
//!   not declared by any registered class; the analyzer cannot check the
//!   referenced interface's remotability.
//! * **COIGN012** (info): the resulting colocation fact for each
//!   non-remotable interface — its endpoints can never be split across
//!   machines.

use crate::lint::diag::{DiagnosticSink, Severity};
use coign_com::idl::InterfaceDesc;
use coign_com::{ClassRegistry, Iid};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// Runs the remotability stage over every interface in the registry.
pub(crate) fn check_registry(registry: &ClassRegistry, sink: &mut DiagnosticSink) {
    let declared = registry.declared_iids();
    // Interface descriptions are shared between classes; analyze each one
    // once, in name order for deterministic reports.
    let mut interfaces: BTreeMap<String, Arc<InterfaceDesc>> = BTreeMap::new();
    for class in registry.all() {
        for iface in &class.interfaces {
            interfaces
                .entry(iface.name.clone())
                .or_insert_with(|| iface.clone());
        }
    }
    for iface in interfaces.values() {
        check_interface(iface, &declared, sink);
    }
}

/// Analyzes one interface: every parameter of every method, then the
/// interface-level colocation fact.
fn check_interface(iface: &InterfaceDesc, declared: &HashSet<Iid>, sink: &mut DiagnosticSink) {
    for (method_id, method) in iface.methods.iter().enumerate() {
        for param in &method.params {
            let subject = format!("{}::{}({})", iface.name, method.name, param.name);
            if !param.ty.is_remotable() {
                sink.report(
                    "COIGN010",
                    Severity::Warn,
                    subject.clone(),
                    format!(
                        "parameter `{}` of method #{method_id} has an opaque-pointer type \
                         ({:?}); the standard marshaler cannot transfer it, so `{}` is \
                         non-remotable",
                        param.name, param.ty, iface.name
                    ),
                    Some(format!(
                        "replace the raw pointer with a marshalable type, or accept that \
                         both endpoints of `{}` are colocated",
                        iface.name
                    )),
                );
            }
            let mut referenced = Vec::new();
            param.ty.collect_interface_iids(&mut referenced);
            referenced.sort();
            referenced.dedup();
            for iid in referenced {
                if !declared.contains(&iid) {
                    sink.report(
                        "COIGN011",
                        Severity::Warn,
                        subject.clone(),
                        format!(
                            "interface-pointer parameter `{}` references {iid}, which no \
                             registered class declares; its remotability cannot be checked",
                            param.name
                        ),
                        Some(
                            "declare the referenced interface on a registered class so the \
                             analyzer can inspect its signature"
                                .to_string(),
                        ),
                    );
                }
            }
        }
    }
    if !iface.remotable {
        sink.report(
            "COIGN012",
            Severity::Info,
            iface.name.clone(),
            format!(
                "interface `{}` is non-remotable: every pair of components communicating \
                 through it will be pinned to one machine",
                iface.name
            ),
            None,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coign_com::idl::InterfaceBuilder;
    use coign_com::registry::ApiImports;
    use coign_com::PType;

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

    fn registry_with(interfaces: Vec<Arc<InterfaceDesc>>) -> ClassRegistry {
        let reg = ClassRegistry::new();
        reg.register("Holder", interfaces, ApiImports::NONE, |_, _| Arc::new(Nop));
        reg
    }

    #[test]
    fn clean_interfaces_report_nothing() {
        let iface = InterfaceBuilder::new("IClean")
            .method("Get", |m| m.input("key", PType::Str).output("v", PType::I4))
            .build();
        let mut sink = DiagnosticSink::new();
        check_registry(&registry_with(vec![iface]), &mut sink);
        assert!(sink.is_empty(), "{:?}", sink.diagnostics());
    }

    #[test]
    fn opaque_params_warn_and_emit_colocation_fact() {
        let iface = InterfaceBuilder::new("IShared")
            .method("Map", |m| m.input("handle", PType::Opaque))
            .method("Size", |m| m.output("bytes", PType::I8))
            .build();
        let mut sink = DiagnosticSink::new();
        check_registry(&registry_with(vec![iface]), &mut sink);
        let codes: Vec<_> = sink.diagnostics().iter().map(|d| d.code).collect();
        assert_eq!(codes, vec!["COIGN010", "COIGN012"]);
        assert_eq!(sink.diagnostics()[0].subject, "IShared::Map(handle)");
        assert!(sink.diagnostics()[0].message.contains("non-remotable"));
    }

    #[test]
    fn opaque_inside_structs_and_arrays_is_found() {
        let iface = InterfaceBuilder::new("INested")
            .method("Put", |m| {
                m.input(
                    "rec",
                    PType::Struct(vec![PType::I4, PType::Array(Box::new(PType::Opaque))]),
                )
            })
            .build();
        let mut sink = DiagnosticSink::new();
        check_registry(&registry_with(vec![iface]), &mut sink);
        assert!(sink.diagnostics().iter().any(|d| d.code == "COIGN010"));
    }

    #[test]
    fn undeclared_interface_pointers_warn() {
        let iface = InterfaceBuilder::new("IFactory")
            .method("Make", |m| {
                m.output("obj", PType::Interface(Iid::from_name("INeverDeclared")))
            })
            .build();
        let mut sink = DiagnosticSink::new();
        check_registry(&registry_with(vec![iface]), &mut sink);
        assert_eq!(sink.diagnostics().len(), 1);
        let d = &sink.diagnostics()[0];
        assert_eq!(d.code, "COIGN011");
        assert_eq!(d.severity, Severity::Warn);
        assert!(d.message.contains("which no"));
        assert!(d.subject.contains("IFactory::Make(obj)"));
    }

    #[test]
    fn declared_interface_pointers_are_fine() {
        let target = InterfaceBuilder::new("ITarget").build();
        let iface = InterfaceBuilder::new("IFactory")
            .method("Make", |m| m.output("obj", PType::Interface(target.iid)))
            .build();
        let mut sink = DiagnosticSink::new();
        check_registry(&registry_with(vec![target, iface]), &mut sink);
        assert!(sink.is_empty());
    }

    #[test]
    fn shared_interfaces_are_analyzed_once() {
        let iface = InterfaceBuilder::new("IShared")
            .method("Map", |m| m.input("handle", PType::Opaque))
            .build();
        let reg = ClassRegistry::new();
        reg.register("A", vec![iface.clone()], ApiImports::NONE, |_, _| {
            Arc::new(Nop)
        });
        reg.register("B", vec![iface], ApiImports::NONE, |_, _| Arc::new(Nop));
        let mut sink = DiagnosticSink::new();
        check_registry(&reg, &mut sink);
        assert_eq!(
            sink.diagnostics()
                .iter()
                .filter(|d| d.code == "COIGN010")
                .count(),
            1
        );
    }
}
