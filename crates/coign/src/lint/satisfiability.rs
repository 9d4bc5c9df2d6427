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

use crate::classifier::ClassificationId;
use crate::constraints::{Constraint, NamedConstraint};
use crate::lint::diag::{DiagnosticSink, Severity};
use coign_com::{ClassRegistry, Clsid};
use std::collections::{BTreeMap, BTreeSet};

/// Union-find over classification ids (path-halving, union by attaching the
/// larger root under the smaller so group representatives are stable).
struct ColocationForest {
    parent: BTreeMap<u32, u32>,
}

impl ColocationForest {
    fn new() -> Self {
        ColocationForest {
            parent: BTreeMap::new(),
        }
    }

    fn add(&mut self, id: u32) {
        self.parent.entry(id).or_insert(id);
    }

    fn find(&mut self, id: u32) -> u32 {
        self.add(id);
        let mut root = id;
        while self.parent[&root] != root {
            root = self.parent[&root];
        }
        // Path compression.
        let mut walk = id;
        while self.parent[&walk] != root {
            let next = self.parent[&walk];
            self.parent.insert(walk, root);
            walk = next;
        }
        root
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent.insert(hi, lo);
        }
    }

    /// Groups of mutually colocated ids, keyed by their smallest member.
    fn groups(&mut self) -> BTreeMap<u32, Vec<u32>> {
        let ids: Vec<u32> = self.parent.keys().copied().collect();
        let mut groups: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for id in ids {
            let root = self.find(id);
            groups.entry(root).or_default().push(id);
        }
        groups
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
    let mut forest = ColocationForest::new();
    let mut pinned_client: BTreeSet<u32> = BTreeSet::new();
    let mut pinned_server: BTreeSet<u32> = BTreeSet::new();
    for constraint in constraints {
        match constraint {
            Constraint::PinClient(c) => {
                forest.add(c.0);
                pinned_client.insert(c.0);
            }
            Constraint::PinServer(c) => {
                forest.add(c.0);
                pinned_server.insert(c.0);
            }
            Constraint::Colocate(a, b) => forest.union(a.0, b.0),
        }
    }
    for (a, b) in non_remotable {
        forest.union(a.0, b.0);
    }

    let mut satisfiable = true;
    for (_, members) in forest.groups() {
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
