//! The inter-component communication graph.
//!
//! The profile analysis engine combines component communication profiles and
//! location constraints into an **abstract ICC graph** of the application,
//! then combines that with a network profile to create a **concrete graph of
//! potential communication time** on the target network. The concrete graph
//! is what the min-cut algorithm partitions.

use crate::classifier::ClassificationId;
use crate::profile::{EdgeStats, IccProfile};
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
    /// The network-independent traffic behind each `weights_us` entry, in
    /// key order.
    pub(crate) traffic: Vec<EdgeStats>,
}

impl IccGraph {
    /// Builds the concrete graph from a profile and a network profile.
    ///
    /// Edge weight = `α · messages + β · bytes` summed over all summarized
    /// entries between the pair — the predicted communication time if the
    /// pair were split across the network.
    ///
    /// The build is linear in the profile: `IccProfile::pair_table`
    /// merges the traffic per id pair and numbers the classifications with
    /// radix sorts, no hash involved, so each merged pair is priced once,
    /// in key order, and `weights_us` is bulk-built from the
    /// already-sorted sequence.
    pub fn build(profile: &IccProfile, network: &NetworkProfile) -> Self {
        let table = profile.pair_table();
        let index: HashMap<ClassificationId, usize> = table
            .nodes
            .iter()
            .enumerate()
            .map(|(i, c)| (*c, i))
            .collect();

        // Self-communication never crosses the network.
        let (weights, traffic): (Vec<_>, Vec<_>) = table
            .pairs
            .iter()
            .filter(|pair| pair.lo != pair.hi)
            .map(|pair| {
                let stats = pair.stats;
                // `0.0 +` turns a -0.0 cost (an empty pair under negative
                // fitted coefficients) into +0.0: no weight is negative zero.
                let weight = 0.0 + network.predict_traffic_us(stats.messages, stats.bytes);
                (((pair.lo as usize, pair.hi as usize), weight), stats)
            })
            .unzip();
        let weights_us: BTreeMap<(usize, usize), f64> = weights.into_iter().collect();
        let non_remotable = table
            .non_remotable
            .into_iter()
            .filter(|(a, b)| a != b)
            .collect();

        IccGraph {
            nodes: table.nodes,
            index,
            weights_us,
            non_remotable,
            network_name: network.network_name.clone(),
            traffic,
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

    mod properties {
        use super::*;
        use crate::profile::EdgeKey;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        /// The graph as a `HashMap` of pair traffic, a comparison sort and
        /// `BTreeMap` inserts build it: the reference the linear build must
        /// reproduce bit for bit.
        struct Reference {
            nodes: Vec<ClassificationId>,
            index: HashMap<ClassificationId, usize>,
            weights_us: BTreeMap<(usize, usize), f64>,
            non_remotable: HashSet<(usize, usize)>,
            traffic: BTreeMap<(usize, usize), EdgeStats>,
            pair_traffic: Vec<((ClassificationId, ClassificationId), EdgeStats)>,
        }

        fn reference_build(profile: &IccProfile, network: &NetworkProfile) -> Reference {
            let mut nodes: Vec<ClassificationId> = profile.classifications().into_iter().collect();
            if !nodes.contains(&ClassificationId::ROOT) {
                nodes.push(ClassificationId::ROOT);
            }
            nodes.sort();
            let index: HashMap<ClassificationId, usize> =
                nodes.iter().enumerate().map(|(i, c)| (*c, i)).collect();

            let mut pair_traffic: HashMap<(ClassificationId, ClassificationId), EdgeStats> =
                HashMap::new();
            for (key, stats) in &profile.edges {
                let pair = if key.from <= key.to {
                    (key.from, key.to)
                } else {
                    (key.to, key.from)
                };
                let entry = pair_traffic.entry(pair).or_default();
                entry.messages = entry.messages.saturating_add(stats.messages);
                entry.bytes = entry.bytes.saturating_add(stats.bytes);
            }
            let mut sorted: Vec<_> = pair_traffic.into_iter().collect();
            sorted.sort_by_key(|(pair, _)| *pair);

            let mut weights_us = BTreeMap::new();
            let mut traffic = BTreeMap::new();
            for &(pair, stats) in &sorted {
                let (a, b) = (index[&pair.0], index[&pair.1]);
                if a == b {
                    continue;
                }
                let key = if a < b { (a, b) } else { (b, a) };
                let cost = network.predict_traffic_us(stats.messages, stats.bytes);
                *weights_us.entry(key).or_insert(0.0) += cost;
                traffic.insert(key, stats);
            }

            let mut non_remotable = HashSet::new();
            for (ca, cb) in &profile.non_remotable {
                let (a, b) = (index[ca], index[cb]);
                if a != b {
                    non_remotable.insert(if a < b { (a, b) } else { (b, a) });
                }
            }
            Reference {
                nodes,
                index,
                weights_us,
                non_remotable,
                traffic,
                pair_traffic: sorted,
            }
        }

        /// Case whose profile holds more than 10 000 entries.
        const LARGE: u64 = 255;

        /// A random profile over an id pool that is small and dense,
        /// sparse up to `u32::MAX`, or of ids that agree in their low 11
        /// or 22 bits and differ only above them (so the pair table's
        /// radix sorts run one, two or all three 11-bit digits, and a
        /// digit can be the same in every id); with or without `ROOT`.
        /// Edges run both ways and to self, some ids appear only in
        /// non-remotable pairs, and some stats sit near `u64::MAX` so
        /// merged sums saturate. Case 0 is the empty profile; case
        /// [`LARGE`] draws 12 000 entries over 4 000 ids.
        fn random_profile(case: u64) -> IccProfile {
            let mut profile = IccProfile::new();
            if case == 0 {
                return profile;
            }
            let mut rng = StdRng::seed_from_u64(case);
            let low = rng.gen_range(0u32..1 << 11);
            let mut pool: Vec<u32> = match case % 7 {
                _ if case == LARGE => (0..4_000).map(|_| rng.gen_range(0..=u32::MAX)).collect(),
                0 => (0..rng.gen_range(1..12)).collect(),
                1 => (0..rng.gen_range(1..40))
                    .map(|_| rng.gen_range(0..=u32::MAX))
                    .collect(),
                2 => vec![0, 1, 7, u32::MAX - 1, u32::MAX],
                3 => (0..rng.gen_range(1..40))
                    .map(|_| rng.gen_range(0u32..1 << 11) << 11 | low)
                    .collect(),
                4 => (0..rng.gen_range(1..40))
                    .map(|_| rng.gen_range(0u32..1 << 21) << 11 | low)
                    .chain([0, u32::MAX])
                    .collect(),
                5 => {
                    let low = rng.gen_range(0u32..1 << 22);
                    (0..rng.gen_range(1..40))
                        .map(|_| rng.gen_range(0u32..1 << 10) << 22 | low)
                        .collect()
                }
                _ => vec![
                    low,
                    low | 1 << 11,
                    low | 1 << 22,
                    low | 1 << 31,
                    0,
                    u32::MAX,
                ],
            };
            if case % 4 == 1 {
                pool.retain(|id| *id != ClassificationId::ROOT.0);
                pool.push(u32::MAX);
            }
            let pick = |rng: &mut StdRng| ClassificationId(pool[rng.gen_range(0..pool.len())]);
            let huge = case.is_multiple_of(5);
            let entries = if case == LARGE {
                12_000
            } else {
                rng.gen_range(0..80)
            };
            for _ in 0..entries {
                let from = pick(&mut rng);
                let to = if rng.gen_bool(0.1) {
                    from
                } else {
                    pick(&mut rng)
                };
                let key = EdgeKey {
                    from,
                    to,
                    iid: Iid::from_name("IProp"),
                    method: rng.gen_range(0..3),
                    bucket: rng.gen_range(0..4),
                };
                let stats = if huge {
                    EdgeStats {
                        messages: u64::MAX - rng.gen_range(0..4u64),
                        bytes: rng.gen_range(u64::MAX / 2..=u64::MAX),
                    }
                } else {
                    // One entry in ten is empty, which a network with
                    // negative coefficients prices at -0.0.
                    let messages = rng.gen_range(0..10u64);
                    EdgeStats {
                        messages,
                        bytes: messages * rng.gen_range(0..20_000u64),
                    }
                };
                profile.edges.insert(key, stats);
            }
            for _ in 0..rng.gen_range(0..4) {
                profile.record_instance(pick(&mut rng), Clsid::from_name("A"));
            }
            for _ in 0..rng.gen_range(0..5) {
                // Ids past the pool are named only by this pair.
                let only_here = ClassificationId(rng.gen_range(0..=u32::MAX));
                let other = if rng.gen_bool(0.5) {
                    only_here
                } else {
                    pick(&mut rng)
                };
                profile.record_non_remotable(only_here, other);
                profile.record_non_remotable(pick(&mut rng), pick(&mut rng));
            }
            profile
        }

        /// Networks with ordinary, zero and negative (fitted) cost
        /// coefficients; the last prices an empty edge at -0.0.
        fn networks() -> Vec<NetworkProfile> {
            let fitted = |alpha_us, beta_us_per_byte| NetworkProfile {
                network_name: "fitted".into(),
                alpha_us,
                beta_us_per_byte,
                samples: 1,
            };
            vec![network(), fitted(0.0, 0.0), fitted(-3.5, -0.25)]
        }

        /// The same content inserted in the reverse of `profile`'s
        /// iteration order, into maps with their own hash seeds.
        fn reinserted(profile: &IccProfile) -> IccProfile {
            let mut edges: Vec<_> = profile.edges.iter().map(|(k, v)| (*k, *v)).collect();
            let mut instances: Vec<_> = profile.instances.iter().map(|(k, v)| (*k, *v)).collect();
            let mut non_remotable: Vec<_> = profile.non_remotable.iter().copied().collect();
            edges.reverse();
            instances.reverse();
            non_remotable.reverse();
            IccProfile {
                edges: edges.into_iter().collect(),
                instances: instances.into_iter().collect(),
                class_of: profile.class_of.clone(),
                non_remotable: non_remotable.into_iter().collect(),
                scenarios: profile.scenarios.clone(),
            }
        }

        /// The linear build matches the reference on 256 random profiles:
        /// nodes, index, non-remotable pairs, the bits of every weight, the
        /// traffic table the warm sweep reprices, and the sorted pair
        /// traffic (self-pairs included) that reports and predictions sum.
        /// The pair table of the same content inserted in another order is
        /// identical, so nothing built from it depends on hash order.
        #[test]
        fn linear_build_matches_reference() {
            for case in 0..256 {
                let profile = random_profile(case);
                if case == LARGE {
                    assert!(profile.edges.len() >= 10_000, "{}", profile.edges.len());
                }
                assert_eq!(
                    profile.pair_table(),
                    reinserted(&profile).pair_table(),
                    "case {case}"
                );
                for network in networks() {
                    let graph = IccGraph::build(&profile, &network);
                    let reference = reference_build(&profile, &network);
                    assert_eq!(graph.nodes, reference.nodes, "case {case}");
                    assert_eq!(graph.index, reference.index, "case {case}");
                    assert_eq!(graph.non_remotable, reference.non_remotable, "case {case}");
                    let bits = |w: &BTreeMap<(usize, usize), f64>| -> Vec<((usize, usize), u64)> {
                        w.iter().map(|(k, v)| (*k, v.to_bits())).collect()
                    };
                    assert_eq!(
                        bits(&graph.weights_us),
                        bits(&reference.weights_us),
                        "case {case}"
                    );
                    assert!(
                        graph.traffic.iter().eq(reference.traffic.values()),
                        "case {case}"
                    );
                    assert_eq!(
                        profile.pair_traffic(),
                        reference.pair_traffic,
                        "case {case}"
                    );
                }
            }
        }
    }
}
