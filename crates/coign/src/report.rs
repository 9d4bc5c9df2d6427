//! Developer feedback: communication hot spots and caching candidates.
//!
//! In the paper's first usage model, "Coign shows the developer how to
//! distribute the application optimally and provides the developer with
//! feedback about which interfaces are communication 'hot spots.' The
//! programmer fine-tunes the distribution by enabling custom marshaling and
//! caching on communication intensive interfaces" (§6), and "Coign can also
//! selectively enable per-interface caching (as appropriate) through COM's
//! semi-custom marshaling mechanism" (§4.3).
//!
//! [`hotspots`] ranks per-interface-method traffic by predicted network
//! time; [`caching_candidates`] flags the cut-crossing methods whose cost is
//! dominated by *message count* with small, repetitive replies — exactly
//! the calls a semi-custom marshaler could answer from a local cache.

use crate::analysis::Distribution;
use crate::constraints::Constraint;
use crate::lint::sharing::ReplicationReport;
use crate::profile::IccProfile;
use coign_com::{ComRuntime, Iid, StateEffect};
use coign_dcom::NetworkProfile;
use std::collections::HashMap;

/// One interface method's aggregated traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct Hotspot {
    /// Interface carrying the traffic.
    pub iid: Iid,
    /// Interface name, when resolvable from a registry.
    pub interface: String,
    /// Method index within the interface.
    pub method: u32,
    /// Total messages.
    pub messages: u64,
    /// Total bytes.
    pub bytes: u64,
    /// Predicted time on the profiled network, microseconds.
    pub predicted_us: f64,
    /// True if any of this traffic crosses the given distribution's cut.
    pub crosses_cut: bool,
}

/// Builds an IID → interface-name map from the classes registered in `rt`.
pub fn interface_names(rt: &ComRuntime) -> HashMap<Iid, String> {
    let mut names = HashMap::new();
    for class in rt.registry().all() {
        for iface in &class.interfaces {
            names.insert(iface.iid, iface.name.clone());
        }
    }
    names
}

/// Ranks per-interface-method traffic by predicted network time,
/// heaviest first.
///
/// When a `distribution` is given, each entry records whether its traffic
/// crosses the cut (only crossing traffic actually costs anything at run
/// time; the rest is the latent cost of alternative distributions).
pub fn hotspots(
    profile: &IccProfile,
    network: &NetworkProfile,
    distribution: Option<&Distribution>,
    names: &HashMap<Iid, String>,
) -> Vec<Hotspot> {
    let mut by_method: HashMap<(Iid, u32), Hotspot> = HashMap::new();
    for (key, stats) in &profile.edges {
        let entry = by_method
            .entry((key.iid, key.method))
            .or_insert_with(|| Hotspot {
                iid: key.iid,
                interface: names
                    .get(&key.iid)
                    .cloned()
                    .unwrap_or_else(|| key.iid.to_string()),
                method: key.method,
                messages: 0,
                bytes: 0,
                predicted_us: 0.0,
                crosses_cut: false,
            });
        entry.messages += stats.messages;
        entry.bytes += stats.bytes;
        entry.predicted_us += network.predict_traffic_us(stats.messages, stats.bytes);
        if let Some(dist) = distribution {
            if dist.machine_of(key.from) != dist.machine_of(key.to) {
                entry.crosses_cut = true;
            }
        }
    }
    let mut out: Vec<Hotspot> = by_method.into_values().collect();
    // Ties must order on the (iid, method) key, not the display name: two
    // distinct interfaces can resolve to the same name, and a name tie
    // would then leave the order to HashMap iteration — nondeterministic.
    out.sort_by(|a, b| {
        b.predicted_us
            .partial_cmp(&a.predicted_us)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.interface.cmp(&b.interface))
            .then(a.iid.cmp(&b.iid))
            .then(a.method.cmp(&b.method))
    });
    out
}

/// A cut-crossing method whose cost a per-interface cache could absorb.
#[derive(Debug, Clone, PartialEq)]
pub struct CachingCandidate {
    /// Interface of the cacheable method.
    pub iid: Iid,
    /// Interface name, when resolvable.
    pub interface: String,
    /// Method index.
    pub method: u32,
    /// Cut-crossing calls (request/reply pairs).
    pub calls: u64,
    /// Average bytes per message.
    pub avg_message_bytes: u64,
    /// Time a cache with a perfect hit rate after the first call would
    /// save, microseconds.
    pub potential_savings_us: f64,
}

/// Finds cut-crossing methods that are called repeatedly with small
/// messages — per-interface caching candidates.
///
/// A method qualifies when it crosses the cut at least `min_calls` times
/// and its average message stays under `max_avg_bytes` (latency-dominated
/// chatter). The potential saving assumes all but the first call hit the
/// cache.
pub fn caching_candidates(
    profile: &IccProfile,
    network: &NetworkProfile,
    distribution: &Distribution,
    names: &HashMap<Iid, String>,
    min_calls: u64,
    max_avg_bytes: u64,
) -> Vec<CachingCandidate> {
    let mut crossing: HashMap<(Iid, u32), (u64, u64)> = HashMap::new();
    for (key, stats) in &profile.edges {
        if distribution.machine_of(key.from) == distribution.machine_of(key.to) {
            continue;
        }
        let entry = crossing.entry((key.iid, key.method)).or_insert((0, 0));
        entry.0 += stats.messages;
        entry.1 += stats.bytes;
    }
    let mut out = Vec::new();
    for ((iid, method), (messages, bytes)) in crossing {
        let calls = messages / 2;
        if calls < min_calls {
            continue;
        }
        let avg = bytes.checked_div(messages).unwrap_or(0);
        if avg > max_avg_bytes {
            continue;
        }
        let total_us = network.predict_traffic_us(messages, bytes);
        let per_call_us = total_us / calls.max(1) as f64;
        out.push(CachingCandidate {
            iid,
            interface: names.get(&iid).cloned().unwrap_or_else(|| iid.to_string()),
            method,
            calls,
            avg_message_bytes: avg,
            potential_savings_us: per_call_us * calls.saturating_sub(1) as f64,
        });
    }
    out.sort_by(|a, b| {
        b.potential_savings_us
            .partial_cmp(&a.potential_savings_us)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.interface.cmp(&b.interface))
            .then(a.iid.cmp(&b.iid))
            .then(a.method.cmp(&b.method))
    });
    out
}

/// Replication-legality facts layered onto the DOT rendering by
/// [`to_dot`]. The default (empty) facts overlay nothing, so unannotated
/// applications keep their plain rendering.
#[derive(Debug, Clone, Default)]
pub struct DotFacts {
    /// Stage-4/5 verdicts: replicable classes render double-circled
    /// (`peripheries=2`), mutable-shared classes render shaded.
    pub replication: Option<ReplicationReport>,
    /// Declared per-method state effects, keyed by `(iid, method index)`.
    /// Edges whose entire traffic is declared read-only carry the effect
    /// label; edges with any mutating (or unannotated) method stay plain.
    pub effects: HashMap<(Iid, u32), StateEffect>,
}

/// Builds the per-method effect map [`DotFacts::effects`] from the classes
/// registered in `rt` (method index = declaration order).
pub fn method_effects(rt: &ComRuntime) -> HashMap<(Iid, u32), StateEffect> {
    let mut effects = HashMap::new();
    for class in rt.registry().all() {
        for iface in &class.interfaces {
            for (index, method) in iface.methods.iter().enumerate() {
                effects.insert((iface.iid, index as u32), method.effect);
            }
        }
    }
    effects
}

/// Renders the application's communication graph in Graphviz DOT form —
/// the textual equivalent of the paper's Figures 4–8: one node per
/// classification (labelled with its class and instance count), gray edges
/// for distributable interfaces, **bold black edges** for non-remotable
/// ones, and server-side nodes drawn as filled boxes.
///
/// Location constraints render in a distinct dashed style: pins as dashed
/// edges to synthetic diamond `client`/`server` machine nodes, explicit
/// colocations as dashed edges between the bound classifications (pairs
/// already drawn bold-black as non-remotable are not repeated).
///
/// `facts` layers the stage-4/5 replication-legality overlay on top:
/// replicable classes draw double-circled, mutable-shared classes draw
/// shaded, and edges carrying only declared-read-only traffic are labelled
/// with the strongest effect they carry (`pure` or `reads`).
pub fn to_dot(
    profile: &IccProfile,
    network: &NetworkProfile,
    distribution: Option<&Distribution>,
    constraints: &[Constraint],
    class_names: &HashMap<coign_com::Clsid, String>,
    facts: &DotFacts,
) -> String {
    use crate::classifier::ClassificationId;
    use std::collections::BTreeSet;
    use std::fmt::Write as _;

    let mut out = String::from(
        "graph icc {
  graph [overlap=false, splines=true];
",
    );
    let mut sorted: Vec<ClassificationId> = profile.classifications().into_iter().collect();
    if !sorted.contains(&ClassificationId::ROOT) {
        sorted.push(ClassificationId::ROOT);
    }
    sorted.sort();
    for class in &sorted {
        let mut class_name = None;
        let label = if *class == ClassificationId::ROOT {
            "user".to_string()
        } else {
            let name = profile
                .class_of
                .get(class)
                .and_then(|clsid| class_names.get(clsid))
                .cloned()
                .unwrap_or_else(|| class.to_string());
            let count = profile.instances.get(class).copied().unwrap_or(0);
            let label = format!("{name} x{count}");
            class_name = Some(name);
            label
        };
        let server = distribution
            .map(|d| d.machine_of(*class) == coign_com::MachineId::SERVER)
            .unwrap_or(false);
        let mut style = if server {
            ", shape=box, style=filled, fillcolor=gray75".to_string()
        } else {
            String::new()
        };
        if let (Some(name), Some(rep)) = (&class_name, &facts.replication) {
            if rep.is_replicable(name) {
                // Legally duplicable onto several machines: double circle.
                style.push_str(", peripheries=2");
            } else if rep.mutable_shared.iter().any(|c| c == name) && !server {
                // Shared and mutable — pinned to one copy: shaded.
                style.push_str(", style=filled, fillcolor=mistyrose");
            }
        }
        let _ = writeln!(out, "  n{} [label=\"{label}\"{style}];", class.0);
    }
    // The strongest declared effect carried on each unordered pair, when
    // every method on the pair is annotated read-only. Any mutating or
    // unannotated method drops the pair back to a plain label.
    let mut pair_effects: HashMap<(ClassificationId, ClassificationId), Option<StateEffect>> =
        HashMap::new();
    if !facts.effects.is_empty() {
        for key in profile.edges.keys() {
            let pair = if key.from <= key.to {
                (key.from, key.to)
            } else {
                (key.to, key.from)
            };
            let declared = facts
                .effects
                .get(&(key.iid, key.method))
                .copied()
                .filter(|e| e.is_read_only());
            let entry = pair_effects.entry(pair).or_insert(Some(StateEffect::Pure));
            *entry = match (*entry, declared) {
                (Some(StateEffect::Pure), Some(e)) => Some(e),
                (Some(prev), Some(_)) => Some(prev),
                _ => None,
            };
        }
    }
    let mut pairs: Vec<_> = profile.pair_traffic().into_iter().collect();
    pairs.sort_by_key(|(pair, _)| *pair);
    for ((a, b), stats) in pairs {
        if a == b {
            continue;
        }
        let non_remotable = profile.non_remotable.contains(&(a, b));
        let cost_ms = network.predict_traffic_us(stats.messages, stats.bytes) / 1000.0;
        let attrs = if non_remotable {
            ", color=black, penwidth=2.5".to_string()
        } else {
            format!(
                ", color=gray60, penwidth={:.2}",
                (cost_ms.log10().max(0.0) + 0.5).min(4.0)
            )
        };
        let effect = pair_effects.get(&(a, b)).copied().flatten();
        let label = match effect {
            Some(e) => format!("{cost_ms:.1}ms ({})", e.label()),
            None => format!("{cost_ms:.1}ms"),
        };
        let _ = writeln!(out, "  n{} -- n{} [label=\"{label}\"{attrs}];", a.0, b.0);
    }
    // Pure constraint edges with no measured traffic.
    for (a, b) in &profile.non_remotable {
        if profile.pair_traffic().contains_key(&(*a, *b)) {
            continue;
        }
        let _ = writeln!(out, "  n{} -- n{} [color=black, penwidth=2.5];", a.0, b.0);
    }
    // Location constraints: pins run to synthetic machine nodes,
    // colocations bind their two classifications; both dashed so they read
    // apart from measured traffic.
    let mut pin_edges: BTreeSet<(u32, &str)> = BTreeSet::new();
    let mut coloc_edges: BTreeSet<(u32, u32)> = BTreeSet::new();
    for constraint in constraints {
        match constraint {
            Constraint::PinClient(class) => {
                pin_edges.insert((class.0, "client"));
            }
            Constraint::PinServer(class) => {
                pin_edges.insert((class.0, "server"));
            }
            Constraint::Colocate(a, b) => {
                if a == b {
                    continue;
                }
                let pair = if a <= b { (*a, *b) } else { (*b, *a) };
                // Non-remotable pairs already render as bold black edges.
                if !profile.non_remotable.contains(&pair) {
                    coloc_edges.insert((pair.0 .0, pair.1 .0));
                }
            }
        }
    }
    if !pin_edges.is_empty() {
        let _ = writeln!(out, "  client [label=\"client\", shape=diamond];");
        let _ = writeln!(out, "  server [label=\"server\", shape=diamond];");
    }
    for (id, machine) in &pin_edges {
        let _ = writeln!(out, "  n{id} -- {machine} [style=dashed, color=steelblue];");
    }
    for (a, b) in &coloc_edges {
        let _ = writeln!(
            out,
            "  n{a} -- n{b} [style=dashed, color=steelblue, penwidth=1.5];"
        );
    }
    out.push_str(
        "}
",
    );
    out
}

/// Builds a CLSID → class-name map from the classes registered in `rt`.
pub fn class_names(rt: &ComRuntime) -> HashMap<coign_com::Clsid, String> {
    rt.registry()
        .all()
        .into_iter()
        .map(|desc| (desc.clsid, desc.name.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::ClassificationId;
    use coign_com::{Clsid, MachineId};
    use coign_dcom::NetworkModel;

    fn c(n: u32) -> ClassificationId {
        ClassificationId(n)
    }

    fn profile() -> IccProfile {
        let chatty = Iid::from_name("IChatty");
        let bulky = Iid::from_name("IBulky");
        let mut p = IccProfile::new();
        p.record_instance(c(1), Clsid::from_name("A"));
        p.record_instance(c(2), Clsid::from_name("B"));
        // 200 small messages on IChatty::0 between 1 and 2.
        for _ in 0..200 {
            p.record_message(c(1), c(2), chatty, 0, 96);
        }
        // 2 huge messages on IBulky::0 between 1 and 2.
        p.record_message(c(1), c(2), bulky, 0, 4_000_000);
        p.record_message(c(2), c(1), bulky, 0, 64);
        // Local-only traffic between 1 and 3 on IChatty::1.
        for _ in 0..50 {
            p.record_message(c(1), c(3), chatty, 1, 96);
        }
        p
    }

    fn split_dist() -> Distribution {
        Distribution {
            placement: [
                (c(1), MachineId::CLIENT),
                (c(2), MachineId::SERVER),
                (c(3), MachineId::CLIENT),
            ]
            .into_iter()
            .collect(),
            predicted_comm_us: 0.0,
            network_name: "test".into(),
        }
    }

    fn net() -> NetworkProfile {
        NetworkProfile::exact(&NetworkModel::ethernet_10baset())
    }

    #[test]
    fn hotspots_rank_by_predicted_time() {
        let spots = hotspots(&profile(), &net(), None, &HashMap::new());
        assert_eq!(spots.len(), 3);
        // The 4 MB transfer dominates even 200 latency hits on 10BaseT.
        assert_eq!(spots[0].iid, Iid::from_name("IBulky"));
        assert!(spots[0].predicted_us > spots[1].predicted_us);
        assert!(spots
            .windows(2)
            .all(|w| w[0].predicted_us >= w[1].predicted_us));
    }

    #[test]
    fn hotspots_mark_cut_crossings() {
        let dist = split_dist();
        let spots = hotspots(&profile(), &net(), Some(&dist), &HashMap::new());
        let chatty0 = spots
            .iter()
            .find(|s| s.iid == Iid::from_name("IChatty") && s.method == 0)
            .unwrap();
        let chatty1 = spots
            .iter()
            .find(|s| s.iid == Iid::from_name("IChatty") && s.method == 1)
            .unwrap();
        assert!(chatty0.crosses_cut);
        assert!(!chatty1.crosses_cut, "1↔3 is client-local");
    }

    #[test]
    fn caching_candidates_are_chatty_small_crossings() {
        let dist = split_dist();
        let candidates = caching_candidates(&profile(), &net(), &dist, &HashMap::new(), 10, 1_000);
        // Only IChatty::0 qualifies: crossing, ≥10 calls, small messages.
        assert_eq!(candidates.len(), 1);
        let cand = &candidates[0];
        assert_eq!(cand.iid, Iid::from_name("IChatty"));
        assert_eq!(cand.method, 0);
        assert_eq!(cand.calls, 100);
        assert!(cand.avg_message_bytes < 1_000);
        // Caching ~99 of 100 calls saves almost all of it.
        let full = net().predict_traffic_us(200, 200 * 96);
        assert!(cand.potential_savings_us > full * 0.95);
    }

    #[test]
    fn bulky_and_local_traffic_are_not_candidates() {
        let dist = split_dist();
        let candidates = caching_candidates(&profile(), &net(), &dist, &HashMap::new(), 1, 1_000);
        assert!(candidates.iter().all(|c| c.iid != Iid::from_name("IBulky")));
        assert!(candidates
            .iter()
            .all(|c| !(c.iid == Iid::from_name("IChatty") && c.method == 1)));
    }

    #[test]
    fn dot_output_is_well_formed() {
        let dist = split_dist();
        let mut p = profile();
        p.record_non_remotable(c(1), c(3));
        let dot = to_dot(
            &p,
            &net(),
            Some(&dist),
            &[],
            &HashMap::new(),
            &DotFacts::default(),
        );
        assert!(dot.starts_with("graph icc {"));
        assert!(dot.ends_with("}\n"));
        // One node per classification (+ the root).
        for id in [0u32, 1, 2, 3] {
            assert!(dot.contains(&format!("n{id} [label=")), "missing node {id}");
        }
        // The server-side node is a filled box.
        assert!(dot.contains("fillcolor=gray75"));
        // The non-remotable pair is a bold black edge.
        assert!(dot.contains("penwidth=2.5"));
        // No constraints given → no synthetic machine nodes.
        assert!(!dot.contains("shape=diamond"));
        // Balanced braces.
        assert_eq!(dot.matches('{').count(), dot.matches('}').count());
    }

    #[test]
    fn dot_renders_constraint_edges_in_dashed_style() {
        let mut p = profile();
        p.record_non_remotable(c(1), c(3));
        let constraints = vec![
            Constraint::PinClient(ClassificationId::ROOT),
            Constraint::PinServer(c(2)),
            Constraint::Colocate(c(1), c(2)),
            // Duplicate (reversed) colocation dedupes to one edge.
            Constraint::Colocate(c(2), c(1)),
            // Covered by the bold-black non-remotable edge: not repeated.
            Constraint::Colocate(c(3), c(1)),
        ];
        let dot = to_dot(
            &p,
            &net(),
            None,
            &constraints,
            &HashMap::new(),
            &DotFacts::default(),
        );
        assert!(dot.contains("client [label=\"client\", shape=diamond];"));
        assert!(dot.contains("server [label=\"server\", shape=diamond];"));
        assert!(dot.contains("n0 -- client [style=dashed, color=steelblue];"));
        assert!(dot.contains("n2 -- server [style=dashed, color=steelblue];"));
        assert_eq!(
            dot.matches("n1 -- n2 [style=dashed, color=steelblue, penwidth=1.5];")
                .count(),
            1
        );
        assert!(!dot.contains("n1 -- n3 [style=dashed"));
        assert_eq!(dot.matches('{').count(), dot.matches('}').count());
    }

    #[test]
    fn dot_overlay_renders_replication_and_effect_facts() {
        let p = profile();
        let mut names = HashMap::new();
        names.insert(Clsid::from_name("A"), "A".to_string());
        names.insert(Clsid::from_name("B"), "B".to_string());
        let replication = ReplicationReport {
            replicable: vec!["B".to_string()],
            mutable_shared: vec!["A".to_string()],
            holders: Default::default(),
        };
        // Everything the profile carries between 1 and 2 is declared
        // read-only; the 1↔3 traffic is unannotated and stays plain.
        let chatty = Iid::from_name("IChatty");
        let bulky = Iid::from_name("IBulky");
        let effects = [
            ((chatty, 0u32), StateEffect::ReadsState),
            ((bulky, 0u32), StateEffect::Pure),
        ]
        .into_iter()
        .collect();
        let facts = DotFacts {
            replication: Some(replication),
            effects,
        };
        let dot = to_dot(&p, &net(), None, &[], &names, &facts);
        // Replicable B (node 2) draws double-circled.
        assert!(dot.contains("n2 [label=\"B x1\", peripheries=2];"));
        // Mutable-shared A (node 1) draws shaded.
        assert!(dot.contains("n1 [label=\"A x1\", style=filled, fillcolor=mistyrose];"));
        // The fully read-only 1↔2 edge carries its strongest effect.
        assert!(dot.contains("n1 -- n2 [label=\"") && dot.contains("ms (reads)\""));
        // The unannotated 1↔3 edge keeps the plain cost label.
        let edge_13 = dot
            .lines()
            .find(|l| l.contains("n1 -- n3"))
            .expect("1-3 edge rendered");
        assert!(
            !edge_13.contains("("),
            "unannotated edge stays plain: {edge_13}"
        );
    }

    #[test]
    fn tied_rankings_order_on_iid_and_method() {
        // Four interfaces with byte-identical traffic all resolve to the
        // same display name, so predicted time AND name tie for every
        // entry — only the (iid, method) tie-break can order them. Rebuild
        // the report repeatedly: each pass hashes through a freshly seeded
        // HashMap, so a missing tie-break would shuffle the order.
        let mut iids: Vec<Iid> = (0..4)
            .map(|i| Iid::from_name(&format!("ITie{i}")))
            .collect();
        iids.sort();
        let mut names = HashMap::new();
        let mut p = IccProfile::new();
        for iid in &iids {
            names.insert(*iid, "ITie".to_string());
            for method in [0u32, 1] {
                for _ in 0..4 {
                    p.record_message(c(1), c(2), *iid, method, 128);
                }
            }
        }
        let mut expected: Vec<(Iid, u32)> = iids.iter().flat_map(|i| [(*i, 0), (*i, 1)]).collect();
        expected.sort();
        let dist = split_dist();
        for _ in 0..8 {
            let spots = hotspots(&p, &net(), None, &names);
            let got: Vec<(Iid, u32)> = spots.iter().map(|s| (s.iid, s.method)).collect();
            assert_eq!(got, expected, "hotspot tie order must be (iid, method)");
            let cands = caching_candidates(&p, &net(), &dist, &names, 1, 1_000);
            let got: Vec<(Iid, u32)> = cands.iter().map(|s| (s.iid, s.method)).collect();
            assert_eq!(got, expected, "candidate tie order must be (iid, method)");
        }
    }

    #[test]
    fn names_resolve_when_available() {
        let mut names = HashMap::new();
        names.insert(Iid::from_name("IChatty"), "IChatty".to_string());
        let spots = hotspots(&profile(), &net(), None, &names);
        assert!(spots.iter().any(|s| s.interface == "IChatty"));
        // Unresolved interfaces fall back to the IID display form.
        assert!(spots.iter().any(|s| s.interface.starts_with("IID:")));
    }
}
