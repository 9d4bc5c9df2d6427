//! Stage 5 — instance-sharing / aliasing analysis.
//!
//! Replicating an immutable class is always safe; replicating a *mutable*
//! class is safe only when no instance can be observed through more than
//! one holder (each holder then owns a private copy whose mutations nobody
//! else sees). This stage computes the conservative **holder sets**: which
//! classes (or their anonymous clients) can simultaneously hold a reference
//! to an instance of each class.
//!
//! References travel exclusively through interface-pointer parameters, so
//! the analysis is a flow over the method signatures stage 1 already
//! validated:
//!
//! 1. A union-find groups interface IIDs declared by the same class — the
//!    facets of one object alias each other (`QueryInterface` can turn any
//!    of them into any other), so a holder of one facet potentially holds
//!    them all.
//! 2. Every interface-pointer parameter of a method of class `A` is an
//!    aliasing event: for an `[in]` parameter the caller held the target
//!    and `A` receives it; for an `[out]` parameter `A` held it and the
//!    caller receives it. Both sides are holders.
//! 3. Holder sets propagate to a fixpoint: whoever holds `A` can extract
//!    everything `A` emits.
//!
//! Verdicts (`shared` means ≥ 2 distinct holders):
//!
//! * **COIGN043** (warn): `shared ∧ mutable` — replication would fork state
//!   observable through the aliases, so the class is non-replicable.
//!   Reported only for classes carrying at least one read-only annotation;
//!   wholly unannotated classes already fall to the conservative default.
//! * **COIGN044** (info): a class proven immutable after construction by
//!   stage 4 — replicable regardless of sharing, because every copy stays
//!   identical.

use crate::lint::diag::{DiagnosticSink, Severity};
use crate::lint::effects::EffectAnalysis;
use coign_com::{ClassRegistry, Iid};
use std::collections::{BTreeMap, BTreeSet};

/// Replication-legality verdicts for every registered class.
#[derive(Debug, Clone, Default)]
pub struct ReplicationReport {
    /// Classes proven replicable (immutable after construction), name-sorted.
    pub replicable: Vec<String>,
    /// Classes that are mutable *and* reachable from multiple holders —
    /// never replicable, name-sorted.
    pub mutable_shared: Vec<String>,
    /// Class name → name-sorted holder labels (declaring classes or
    /// `clients of X` pseudo-holders).
    pub holders: BTreeMap<String, BTreeSet<String>>,
}

impl ReplicationReport {
    /// True when the class may legally be duplicated onto several machines.
    pub(crate) fn is_replicable(&self, class: &str) -> bool {
        self.replicable.iter().any(|c| c == class)
    }

    /// True when at least two distinct holders can reach the class.
    #[cfg(test)]
    fn is_shared(&self, class: &str) -> bool {
        self.holders.get(class).is_some_and(|h| h.len() >= 2)
    }
}

/// Union-find over interface-IID indices (smallest index wins as root, so
/// group identity is deterministic).
struct AliasForest {
    parent: Vec<usize>,
}

impl AliasForest {
    fn new(n: usize) -> Self {
        AliasForest {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            let (lo, hi) = (ra.min(rb), ra.max(rb));
            self.parent[hi] = lo;
        }
    }
}

/// Runs the instance-sharing stage and folds it with the stage 4 verdicts
/// into the final [`ReplicationReport`].
pub fn check_sharing(
    registry: &ClassRegistry,
    effects: &EffectAnalysis,
    sink: &mut DiagnosticSink,
) -> ReplicationReport {
    let mut classes = registry.all();
    classes.sort_by(|a, b| a.name.cmp(&b.name));

    // Deterministic index space over every declared IID.
    let mut iids: Vec<Iid> = classes
        .iter()
        .flat_map(|c| c.interfaces.iter().map(|i| i.iid))
        .collect();
    iids.sort();
    iids.dedup();
    let index_of: BTreeMap<Iid, usize> = iids.iter().enumerate().map(|(i, d)| (*d, i)).collect();

    // Facets of one class alias each other.
    let mut forest = AliasForest::new(iids.len());
    for class in &classes {
        let declared: Vec<usize> = class
            .interfaces
            .iter()
            .filter_map(|i| index_of.get(&i.iid).copied())
            .collect();
        for pair in declared.windows(2) {
            forest.union(pair[0], pair[1]);
        }
    }

    // Alias-group root → classes declaring any IID in the group.
    let mut group_classes: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
    for class in &classes {
        for iface in &class.interfaces {
            if let Some(&idx) = index_of.get(&iface.iid) {
                let root = forest.find(idx);
                group_classes
                    .entry(root)
                    .or_default()
                    .insert(class.name.clone());
            }
        }
    }

    // Aliasing events: class A ──param──> target classes, tagged with
    // whether A emits the reference (an `[out]`/`[in,out]` parameter).
    let mut links: BTreeMap<String, BTreeSet<(String, bool)>> = BTreeMap::new();
    for class in &classes {
        for iface in &class.interfaces {
            for method in &iface.methods {
                for param in &method.params {
                    let mut referenced = Vec::new();
                    param.ty.collect_interface_iids(&mut referenced);
                    referenced.sort();
                    referenced.dedup();
                    for iid in referenced {
                        let Some(&idx) = index_of.get(&iid) else {
                            continue; // undeclared target: stage 1's COIGN011
                        };
                        let root = forest.find(idx);
                        for target in &group_classes[&root] {
                            if target == &class.name {
                                continue; // self-references add no new holder
                            }
                            links
                                .entry(target.clone())
                                .or_default()
                                .insert((class.name.clone(), param.dir.in_reply()));
                        }
                    }
                }
            }
        }
    }

    // Holder fixpoint: both sides of every aliasing event hold the target;
    // whoever holds an emitter can extract what it emits.
    let mut holders: BTreeMap<String, BTreeSet<String>> = classes
        .iter()
        .map(|c| (c.name.clone(), BTreeSet::new()))
        .collect();
    loop {
        let mut changed = false;
        for (target, events) in &links {
            let mut add: BTreeSet<String> = BTreeSet::new();
            for (via, emits) in events {
                add.insert(via.clone());
                add.insert(format!("clients of {via}"));
                if *emits {
                    // Transitive escape: holders of the emitter reach us.
                    if let Some(upstream) = holders.get(via) {
                        add.extend(upstream.iter().cloned());
                    }
                }
            }
            let set = holders.entry(target.clone()).or_default();
            let before = set.len();
            set.extend(add);
            changed |= set.len() != before;
        }
        if !changed {
            break;
        }
    }

    let mut report = ReplicationReport {
        holders,
        ..ReplicationReport::default()
    };
    for class in &classes {
        let name = &class.name;
        let shared = report.holders.get(name).is_some_and(|h| h.len() >= 2);
        if !effects.is_mutable(name) {
            report.replicable.push(name.clone());
            let sharing = if shared {
                let list: Vec<&str> = report.holders[name].iter().map(String::as_str).collect();
                format!("shared by {} holders ({})", list.len(), list.join(", "))
            } else {
                "reached from a single holder".to_string()
            };
            sink.report(
                "COIGN044",
                Severity::Info,
                name.clone(),
                format!(
                    "class `{name}` is replicable: every method is pure or reads-state, \
                     so copies can never diverge ({sharing})"
                ),
                None,
            );
        } else if shared {
            report.mutable_shared.push(name.clone());
            if effects.is_annotated(name) {
                let list: Vec<&str> = report.holders[name].iter().map(String::as_str).collect();
                sink.report(
                    "COIGN043",
                    Severity::Warn,
                    name.clone(),
                    format!(
                        "class `{name}` may mutate state and is reachable from multiple \
                         holders ({}): replicating it would fork state observable \
                         through the aliases",
                        list.join(", ")
                    ),
                    Some(
                        "annotate the remaining mutating methods (if they are honest \
                         reads) or keep the class single-copy"
                            .to_string(),
                    ),
                );
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::effects::check_effects;
    use coign_com::idl::InterfaceBuilder;
    use coign_com::registry::ApiImports;
    use coign_com::PType;
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

    fn run(reg: &ClassRegistry) -> (ReplicationReport, DiagnosticSink) {
        let mut sink = DiagnosticSink::new();
        let effects = check_effects(reg, &mut sink);
        let report = check_sharing(reg, &effects, &mut sink);
        (report, sink)
    }

    /// A mutable store whose interface is handed to two consumers, plus an
    /// immutable lookup table also handed around.
    fn shared_registry() -> ClassRegistry {
        let reg = ClassRegistry::new();
        let istore = InterfaceBuilder::new("IStore")
            .method("Put", |m| m.input("v", PType::I4).mutates_state())
            .method("Get", |m| m.output("v", PType::I4).reads_state())
            .build();
        let itable = InterfaceBuilder::new("ITable")
            .method("Lookup", |m| {
                m.input("k", PType::Str)
                    .output("v", PType::I4)
                    .reads_state()
            })
            .build();
        let store_iid = istore.iid;
        let table_iid = itable.iid;
        reg.register("Store", vec![istore], ApiImports::NONE, |_, _| {
            Arc::new(Nop)
        });
        reg.register("Table", vec![itable], ApiImports::NONE, |_, _| {
            Arc::new(Nop)
        });
        let iworker = InterfaceBuilder::new("IWorker")
            .method("Bind", |m| {
                m.input("store", PType::Interface(store_iid))
                    .input("table", PType::Interface(table_iid))
                    .mutates_state()
            })
            .build();
        let ireport = InterfaceBuilder::new("IReport")
            .method("Render", |m| {
                m.input("store", PType::Interface(store_iid)).reads_state()
            })
            .build();
        reg.register("Worker", vec![iworker], ApiImports::NONE, |_, _| {
            Arc::new(Nop)
        });
        reg.register("Report", vec![ireport], ApiImports::NONE, |_, _| {
            Arc::new(Nop)
        });
        reg
    }

    #[test]
    fn shared_mutable_class_is_flagged_non_replicable() {
        let (report, sink) = run(&shared_registry());
        assert!(report.is_shared("Store"));
        assert!(!report.is_replicable("Store"));
        assert_eq!(report.mutable_shared, vec!["Store".to_string()]);
        let d = sink
            .diagnostics()
            .iter()
            .find(|d| d.code == "COIGN043")
            .expect("COIGN043 fired");
        assert_eq!(d.subject, "Store");
        assert!(d.message.contains("Report"));
        assert!(d.message.contains("Worker"));
    }

    #[test]
    fn immutable_class_is_replicable_even_when_shared() {
        let (report, sink) = run(&shared_registry());
        assert!(report.is_shared("Table"));
        assert!(report.is_replicable("Table"));
        assert!(sink
            .diagnostics()
            .iter()
            .any(|d| d.code == "COIGN044" && d.subject == "Table"));
    }

    #[test]
    fn unshared_classes_have_few_holders() {
        let (report, _) = run(&shared_registry());
        // Nobody passes IWorker or IReport around.
        assert!(!report.is_shared("Worker"));
        assert!(!report.is_shared("Report"));
    }

    #[test]
    fn unannotated_registry_reports_nothing() {
        let reg = ClassRegistry::new();
        let iface = InterfaceBuilder::new("IPlain")
            .method("Do", |m| m.input("x", PType::I4))
            .build();
        let target_iid = iface.iid;
        reg.register("Plain", vec![iface], ApiImports::NONE, |_, _| Arc::new(Nop));
        let user = InterfaceBuilder::new("IUser")
            .method("Use", |m| m.input("p", PType::Interface(target_iid)))
            .build();
        reg.register("UserA", vec![user.clone()], ApiImports::NONE, |_, _| {
            Arc::new(Nop)
        });
        reg.register("UserB", vec![user], ApiImports::NONE, |_, _| Arc::new(Nop));
        let (report, sink) = run(&reg);
        // Shared and mutable, but nothing is annotated: conservative
        // defaults speak, diagnostics stay silent.
        assert!(report.is_shared("Plain"));
        assert!(report.replicable.is_empty());
        assert!(sink.is_empty(), "{:?}", sink.diagnostics());
    }

    #[test]
    fn out_parameters_propagate_holders_transitively() {
        // Root-facing Manager emits ICache; caches therefore leak to
        // everything that holds the manager.
        let reg = ClassRegistry::new();
        let icache = InterfaceBuilder::new("ICache")
            .method("Fill", |m| m.input("rows", PType::Blob).mutates_state())
            .method("Get", |m| m.output("row", PType::Blob).reads_state())
            .build();
        let cache_iid = icache.iid;
        reg.register("Cache", vec![icache], ApiImports::NONE, |_, _| {
            Arc::new(Nop)
        });
        let imanager = InterfaceBuilder::new("IManager")
            .method("Load", |m| {
                m.output(
                    "caches",
                    PType::Array(Box::new(PType::Interface(cache_iid))),
                )
                .mutates_state()
            })
            .build();
        reg.register("Manager", vec![imanager], ApiImports::NONE, |_, _| {
            Arc::new(Nop)
        });
        let (report, sink) = run(&reg);
        let holders = &report.holders["Cache"];
        assert!(holders.contains("Manager"));
        assert!(holders.contains("clients of Manager"));
        assert!(report.is_shared("Cache"));
        assert!(sink
            .diagnostics()
            .iter()
            .any(|d| d.code == "COIGN043" && d.subject == "Cache"));
    }

    #[test]
    fn facets_of_one_class_alias_each_other() {
        // Passing IAlpha around also shares the object's IBeta facet.
        let reg = ClassRegistry::new();
        let ia = InterfaceBuilder::new("IAlpha")
            .method("A", |m| m.reads_state())
            .build();
        let ib = InterfaceBuilder::new("IBeta")
            .method("B", |m| m.input("x", PType::I4).mutates_state())
            .build();
        let alpha_iid = ia.iid;
        reg.register("Dual", vec![ia, ib], ApiImports::NONE, |_, _| Arc::new(Nop));
        let iuser = InterfaceBuilder::new("IUser")
            .method("Use", |m| m.input("p", PType::Interface(alpha_iid)))
            .build();
        reg.register("User", vec![iuser], ApiImports::NONE, |_, _| Arc::new(Nop));
        let (report, _) = run(&reg);
        assert!(report.is_shared("Dual"));
        assert!(!report.is_replicable("Dual"));
    }
}
