//! The inter-component communication graph.
//!
//! The profile analysis engine combines component communication profiles and
//! location constraints into an **abstract ICC graph** of the application,
//! then combines that with a network profile to create a **concrete graph of
//! potential communication time** on the target network. The concrete graph
//! is what the min-cut algorithm partitions.

use crate::classifier::ClassificationId;
use crate::profile::IccProfile;
use coign_dcom::NetworkProfile;
use coign_flow::INFINITE;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Fixed-point scale converting fractional microseconds to integer edge
/// capacities (the flow algorithms operate on `u64`).
pub const TIME_SCALE: f64 = 256.0;

/// The concrete (time-weighted) inter-component communication graph.
#[derive(Debug, Clone)]
pub struct IccGraph {
    /// Node order: `nodes[i]` is the classification of graph node `i`.
    pub nodes: Vec<ClassificationId>,
    /// Reverse index of `nodes`.
    pub index: HashMap<ClassificationId, usize>,
    /// Undirected communication-time weights between node pairs, in
    /// microseconds (keys are normalized with `a < b`). Ordered so that
    /// floating-point summations over the graph are deterministic.
    pub weights_us: BTreeMap<(usize, usize), f64>,
    /// Node pairs connected by non-remotable interfaces (must co-locate).
    pub non_remotable: HashSet<(usize, usize)>,
    /// The network profile the graph was concretized against.
    pub network_name: String,
}

impl IccGraph {
    /// Builds the concrete graph from a profile and a network profile.
    ///
    /// Edge weight = `α · messages + β · bytes` summed over all summarized
    /// entries between the pair — the predicted communication time if the
    /// pair were split across the network.
    pub fn build(profile: &IccProfile, network: &NetworkProfile) -> Self {
        let mut nodes: Vec<ClassificationId> = profile.classifications().into_iter().collect();
        if !nodes.contains(&ClassificationId::ROOT) {
            nodes.push(ClassificationId::ROOT);
        }
        nodes.sort();
        let index: HashMap<ClassificationId, usize> =
            nodes.iter().enumerate().map(|(i, c)| (*c, i)).collect();

        let mut weights_us: BTreeMap<(usize, usize), f64> = BTreeMap::new();
        let mut traffic: Vec<_> = profile.pair_traffic().into_iter().collect();
        traffic.sort_by_key(|(pair, _)| *pair);
        for (pair, stats) in traffic {
            let (a, b) = (index[&pair.0], index[&pair.1]);
            if a == b {
                continue; // self-communication never crosses the network
            }
            let key = if a < b { (a, b) } else { (b, a) };
            let cost = network.predict_traffic_us(stats.messages, stats.bytes);
            *weights_us.entry(key).or_insert(0.0) += cost;
        }

        let mut non_remotable = HashSet::new();
        for (ca, cb) in &profile.non_remotable {
            let (a, b) = (index[ca], index[cb]);
            if a == b {
                continue;
            }
            non_remotable.insert(if a < b { (a, b) } else { (b, a) });
        }

        IccGraph {
            nodes,
            index,
            weights_us,
            non_remotable,
            network_name: network.network_name.clone(),
        }
    }

    /// Number of classification nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total predicted communication time if *every* edge crossed the
    /// network (an upper bound used in reports).
    pub fn total_time_us(&self) -> f64 {
        self.weights_us.values().sum()
    }

    /// Predicted communication time across a placement: the sum of edge
    /// weights whose endpoints land on different machines.
    ///
    /// `side[i]` is true if node `i` is on the client.
    pub(crate) fn crossing_time_us(&self, side: &[bool]) -> f64 {
        self.weights_us
            .iter()
            .filter(|((a, b), _)| side[*a] != side[*b])
            .map(|(_, w)| w)
            .sum()
    }

    /// Converts a weight in microseconds to an integer edge capacity,
    /// clamped to the solvers' range: a weight past [`INFINITE`] becomes
    /// `INFINITE`, which the analysis reports as traffic beyond the
    /// capacity range (a larger capacity would overflow the solvers'
    /// residual arithmetic).
    pub fn capacity_of(weight_us: f64) -> u64 {
        (weight_us * TIME_SCALE)
            .round()
            .max(1.0)
            .min(INFINITE as f64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coign_com::{Clsid, Iid};
    use coign_dcom::NetworkModel;

    fn c(n: u32) -> ClassificationId {
        ClassificationId(n)
    }

    fn profile() -> IccProfile {
        let iid = Iid::from_name("IX");
        let mut p = IccProfile::new();
        p.record_instance(c(1), Clsid::from_name("A"));
        p.record_instance(c(2), Clsid::from_name("B"));
        p.record_message(c(1), c(2), iid, 0, 1000);
        p.record_message(c(2), c(1), iid, 0, 50);
        p.record_message(ClassificationId::ROOT, c(1), iid, 1, 100);
        p.record_non_remotable(c(1), c(2));
        p
    }

    fn network() -> NetworkProfile {
        NetworkProfile::exact(&NetworkModel::ethernet_10baset())
    }

    #[test]
    fn build_indexes_all_classifications_including_root() {
        let g = IccGraph::build(&profile(), &network());
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.nodes[0], ClassificationId::ROOT);
        assert!(g.index.contains_key(&c(1)));
        assert!(g.index.contains_key(&c(2)));
    }

    #[test]
    fn weights_merge_directions() {
        let g = IccGraph::build(&profile(), &network());
        let net = network();
        let a = g.index[&c(1)];
        let b = g.index[&c(2)];
        let key = if a < b { (a, b) } else { (b, a) };
        let expected = net.predict_traffic_us(2, 1050);
        assert!((g.weights_us[&key] - expected).abs() < 1e-9);
    }

    #[test]
    fn non_remotable_pairs_are_carried() {
        let g = IccGraph::build(&profile(), &network());
        assert_eq!(g.non_remotable.len(), 1);
    }

    #[test]
    fn crossing_time_counts_only_split_pairs() {
        let g = IccGraph::build(&profile(), &network());
        let all_client = vec![true; g.node_count()];
        assert_eq!(g.crossing_time_us(&all_client), 0.0);
        // Split c(2) from the rest: both its edges cross? only edge 1-2 and
        // root-1 stays local.
        let mut side = vec![true; g.node_count()];
        side[g.index[&c(2)]] = false;
        let crossing = g.crossing_time_us(&side);
        assert!(crossing > 0.0);
        assert!(crossing < g.total_time_us());
    }

    #[test]
    fn faster_networks_yield_lighter_graphs() {
        let slow = IccGraph::build(&profile(), &NetworkProfile::exact(&NetworkModel::isdn()));
        let fast = IccGraph::build(&profile(), &NetworkProfile::exact(&NetworkModel::san()));
        assert!(slow.total_time_us() > fast.total_time_us());
    }

    #[test]
    fn capacity_is_positive_and_monotone() {
        assert!(IccGraph::capacity_of(0.0001) >= 1);
        assert!(IccGraph::capacity_of(100.0) > IccGraph::capacity_of(1.0));
    }

    #[test]
    fn empty_profile_yields_root_only_graph() {
        let g = IccGraph::build(&IccProfile::new(), &network());
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.total_time_us(), 0.0);
    }
}
