//! Stage 2 — constraint satisfiability over the colocation closure.
//!
//! The analysis engine encodes constraints as infinite-capacity edges and
//! lets the min-cut solver discover contradictions as an infinite cut —
//! after paying for a full max-flow run. This stage answers the same
//! question directly: union all colocation constraints (explicit pair-wise
//! constraints plus non-remotable interface pairs) into groups, then check
//! that no group is pinned to both the client and the server.
//!
//! * **COIGN020** (error): a colocated group contains both a client-pinned
//!   and a server-pinned classification — no distribution can satisfy it.
//! * **COIGN021** (error): a programmer constraint names a class the
//!   registry does not know; the constraint can never bind anything.
//! * **COIGN022** (error): a profile edge is carried by a non-remotable
//!   interface. The profiling logger records such a call as a
//!   non-remotable pair and never as traffic, so the profile was not
//!   written by it, and the pair it names is bound by nothing the analysis
//!   reads.

use crate::classifier::ClassificationId;
use crate::constraints::{Constraint, NamedConstraint};
use crate::lint::diag::{DiagnosticSink, Severity};
use crate::profile::IccProfile;
use coign_com::{ClassRegistry, Clsid, Iid};
use std::collections::{BTreeMap, BTreeSet};

/// Union-find over dense indices: a union keeps the smaller root, so a
/// group's root is its smallest member; finds halve their paths. Shared by
/// this stage's colocation closure and the contraction the analysis cuts
/// (`crate::analysis::Contracted`).
pub(crate) struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    pub(crate) fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    pub(crate) fn find(&mut self, mut v: usize) -> usize {
        while self.parent[v] != v {
            self.parent[v] = self.parent[self.parent[v]];
            v = self.parent[v];
        }
        v
    }

    pub(crate) fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        self.parent[ra.max(rb)] = ra.min(rb);
    }
}

/// Checks that the full constraint set (plus non-remotable colocation
/// pairs) admits at least one client/server assignment. Reports a
/// COIGN020 error per unsatisfiable group; returns `true` when satisfiable.
pub(crate) fn check_constraints(
    constraints: &[Constraint],
    non_remotable: &[(ClassificationId, ClassificationId)],
    label: &dyn Fn(ClassificationId) -> String,
    sink: &mut DiagnosticSink,
) -> bool {
    // Every id a constraint or pair names, in id order: its position is
    // its index in the forest, so each group is keyed by its smallest id.
    let mut pinned_client: BTreeSet<u32> = BTreeSet::new();
    let mut pinned_server: BTreeSet<u32> = BTreeSet::new();
    let mut pairs: Vec<(u32, u32)> = non_remotable.iter().map(|(a, b)| (a.0, b.0)).collect();
    for constraint in constraints {
        match constraint {
            Constraint::PinClient(c) => {
                pinned_client.insert(c.0);
            }
            Constraint::PinServer(c) => {
                pinned_server.insert(c.0);
            }
            Constraint::Colocate(a, b) => pairs.push((a.0, b.0)),
        }
    }
    let ids: Vec<u32> = pinned_client
        .iter()
        .chain(&pinned_server)
        .copied()
        .chain(pairs.iter().flat_map(|&(a, b)| [a, b]))
        .collect::<BTreeSet<u32>>()
        .into_iter()
        .collect();
    let index = |id: u32| ids.binary_search(&id).expect("every named id is indexed");
    let mut forest = UnionFind::new(ids.len());
    for (a, b) in pairs {
        forest.union(index(a), index(b));
    }
    let mut groups: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
    for (i, &id) in ids.iter().enumerate() {
        groups.entry(forest.find(i)).or_default().push(id);
    }

    let mut satisfiable = true;
    for members in groups.into_values() {
        let client: Vec<u32> = members
            .iter()
            .copied()
            .filter(|id| pinned_client.contains(id))
            .collect();
        let server: Vec<u32> = members
            .iter()
            .copied()
            .filter(|id| pinned_server.contains(id))
            .collect();
        if client.is_empty() || server.is_empty() {
            continue;
        }
        satisfiable = false;
        let describe = |ids: &[u32]| -> String {
            ids.iter()
                .map(|id| label(ClassificationId(*id)))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let subject = if members.len() == 1 {
            label(ClassificationId(members[0]))
        } else {
            format!("colocated group {{{}}}", describe(&members))
        };
        sink.report(
            "COIGN020",
            Severity::Error,
            subject,
            format!(
                "pinned to both machines: {} must run on the client, but {} must run \
                 on the server",
                describe(&client),
                describe(&server)
            ),
            Some(
                "drop one of the conflicting pins, or remove the colocation binding the \
                 group together"
                    .to_string(),
            ),
        );
    }
    satisfiable
}

/// Checks programmer constraints against the class registry: every name
/// must resolve to a registered class. Reports a COIGN021 error per
/// unknown name.
pub(crate) fn check_named(
    named: &[NamedConstraint],
    registry: &ClassRegistry,
    sink: &mut DiagnosticSink,
) {
    let mut unknown: BTreeSet<&str> = BTreeSet::new();
    for constraint in named {
        let names: Vec<&str> = match constraint {
            NamedConstraint::Absolute(name, _) => vec![name],
            NamedConstraint::Pairwise(a, b) => vec![a, b],
        };
        for name in names {
            if registry.get(Clsid::from_name(name)).is_err() {
                unknown.insert(name);
            }
        }
    }
    for name in unknown {
        sink.report(
            "COIGN021",
            Severity::Error,
            name.to_string(),
            format!(
                "constraint references class `{name}`, which is not registered; the \
                 constraint can never bind an instance"
            ),
            Some("fix the class name, or register the class it refers to".to_string()),
        );
    }
}

/// Reports a COIGN022 error per distinct classification pair and
/// interface for every profile edge between two classifications that a
/// non-remotable interface carries.
pub(crate) fn check_non_remotable_edges(
    profile: &IccProfile,
    registry: &ClassRegistry,
    label: &dyn Fn(ClassificationId) -> String,
    sink: &mut DiagnosticSink,
) {
    let mut non_remotable: Vec<(Iid, String)> = registry
        .all()
        .iter()
        .flat_map(|class| &class.interfaces)
        .filter(|desc| !desc.remotable)
        .map(|desc| (desc.iid, desc.name.clone()))
        .collect();
    if non_remotable.is_empty() {
        return;
    }
    non_remotable.sort();
    non_remotable.dedup_by_key(|(iid, _)| *iid);
    let name_of = |iid: Iid| {
        non_remotable
            .binary_search_by_key(&iid, |(known, _)| *known)
            .ok()
            .map(|i| &non_remotable[i].1)
    };
    let edges: BTreeSet<(ClassificationId, ClassificationId, Iid)> = profile
        .edges
        .keys()
        .filter(|key| key.from != key.to && name_of(key.iid).is_some())
        .map(|key| (key.from.min(key.to), key.from.max(key.to), key.iid))
        .collect();
    for (a, b, iid) in edges {
        let interface = name_of(iid).expect("filtered to non-remotable interfaces");
        sink.report(
            "COIGN022",
            Severity::Error,
            format!("{} and {}", label(a), label(b)),
            format!(
                "the profile carries traffic over non-remotable interface {interface} \
                 ({iid}); the profiling logger records such a call as a non-remotable \
                 pair, never as traffic, so nothing binds the pair to one machine"
            ),
            Some(
                "re-profile the application, or record the pair as non-remotable instead of \
                 as traffic"
                    .to_string(),
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coign_com::registry::ApiImports;
    use coign_com::{ComRuntime, MachineId};
    use std::sync::Arc;

    fn c(n: u32) -> ClassificationId {
        ClassificationId(n)
    }

    fn plain_label(id: ClassificationId) -> String {
        id.to_string()
    }

    #[test]
    fn disjoint_pins_are_satisfiable() {
        let constraints = [
            Constraint::PinClient(c(0)),
            Constraint::PinServer(c(3)),
            Constraint::Colocate(c(1), c(2)),
        ];
        let mut sink = DiagnosticSink::new();
        assert!(check_constraints(
            &constraints,
            &[],
            &plain_label,
            &mut sink
        ));
        assert!(sink.is_empty());
    }

    #[test]
    fn directly_conflicting_pins_are_reported() {
        let constraints = [Constraint::PinClient(c(1)), Constraint::PinServer(c(1))];
        let mut sink = DiagnosticSink::new();
        assert!(!check_constraints(
            &constraints,
            &[],
            &plain_label,
            &mut sink
        ));
        assert_eq!(sink.diagnostics().len(), 1);
        assert_eq!(sink.diagnostics()[0].code, "COIGN020");
    }

    #[test]
    fn conflicts_surface_through_the_transitive_closure() {
        // 1 pinned client, 4 pinned server, and a colocation chain
        // 1–2, 2–3, 3–4 ties them into one group: unsatisfiable.
        let constraints = [
            Constraint::PinClient(c(1)),
            Constraint::PinServer(c(4)),
            Constraint::Colocate(c(1), c(2)),
            Constraint::Colocate(c(3), c(4)),
            Constraint::Colocate(c(2), c(3)),
        ];
        let mut sink = DiagnosticSink::new();
        assert!(!check_constraints(
            &constraints,
            &[],
            &plain_label,
            &mut sink
        ));
        let d = &sink.diagnostics()[0];
        assert!(d.subject.contains("colocated group"));
        for id in 1..=4 {
            assert!(d.subject.contains(&c(id).to_string()), "missing {id}");
        }
    }

    #[test]
    fn non_remotable_pairs_join_the_closure() {
        let constraints = [Constraint::PinClient(c(1)), Constraint::PinServer(c(2))];
        let mut sink = DiagnosticSink::new();
        // Satisfiable until the non-remotable pair glues 1 and 2 together.
        assert!(check_constraints(
            &constraints,
            &[],
            &plain_label,
            &mut sink
        ));
        assert!(!check_constraints(
            &constraints,
            &[(c(1), c(2))],
            &plain_label,
            &mut sink
        ));
    }

    #[test]
    fn breaking_the_chain_restores_satisfiability() {
        let constraints = [
            Constraint::PinClient(c(1)),
            Constraint::PinServer(c(4)),
            Constraint::Colocate(c(1), c(2)),
            Constraint::Colocate(c(3), c(4)),
        ];
        let mut sink = DiagnosticSink::new();
        assert!(check_constraints(
            &constraints,
            &[],
            &plain_label,
            &mut sink
        ));
    }

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

    #[test]
    fn traffic_over_non_remotable_interfaces_is_reported_per_pair() {
        use coign_com::idl::InterfaceBuilder;
        use coign_com::PType;
        let rt = ComRuntime::single_machine();
        let shared = InterfaceBuilder::new("IShared")
            .method("Map", |m| m.input("region", PType::Opaque))
            .build();
        let plain = InterfaceBuilder::new("IPlain")
            .method("Ping", |m| m)
            .build();
        rt.registry()
            .register("Worker", vec![shared, plain], ApiImports::NONE, |_, _| {
                Arc::new(Nop)
            });
        let mut profile = IccProfile::new();
        let (iid_shared, iid_plain) = (Iid::from_name("IShared"), Iid::from_name("IPlain"));
        // Two edges of one pair, in both directions, over the
        // non-remotable interface; one over the remotable one; one
        // self-call.
        profile.record_message(c(1), c(2), iid_shared, 0, 64);
        profile.record_message(c(2), c(1), iid_shared, 0, 4_096);
        profile.record_message(c(1), c(3), iid_plain, 0, 64);
        profile.record_message(c(3), c(3), iid_shared, 0, 64);
        let mut sink = DiagnosticSink::new();
        check_non_remotable_edges(&profile, rt.registry(), &plain_label, &mut sink);
        assert_eq!(sink.diagnostics().len(), 1);
        let d = &sink.diagnostics()[0];
        assert_eq!(d.code, "COIGN022");
        assert_eq!(d.subject, "c:1 and c:2");
        assert!(d.message.contains("IShared"), "{}", d.message);
        assert!(sink.has_errors());
    }

    #[test]
    fn unknown_constraint_names_are_reported_once() {
        let rt = ComRuntime::single_machine();
        rt.registry()
            .register("Known", vec![], ApiImports::NONE, |_, _| Arc::new(Nop));
        let named = vec![
            NamedConstraint::Absolute("Ghost".into(), MachineId::SERVER),
            NamedConstraint::Pairwise("Known".into(), "Ghost".into()),
            NamedConstraint::Absolute("Known".into(), MachineId::CLIENT),
        ];
        let mut sink = DiagnosticSink::new();
        check_named(&named, rt.registry(), &mut sink);
        assert_eq!(sink.diagnostics().len(), 1);
        let d = &sink.diagnostics()[0];
        assert_eq!(d.code, "COIGN021");
        assert_eq!(d.subject, "Ghost");
    }
}
