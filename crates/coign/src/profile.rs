//! Inter-component communication (ICC) profiles.
//!
//! During profiling, Coign summarizes communication *online* so that log
//! storage does not grow with execution time: message counts and byte totals
//! are accumulated per (caller classification, callee classification,
//! interface, method, size bucket), where successive size buckets grow
//! exponentially. Summarization preserves network independence — the profile
//! stores *what* was communicated, and only the later analysis stage converts
//! it into time for a particular network.

use crate::classifier::ClassificationId;
use coign_com::codec::{Decoder, Encoder};
use coign_com::{Clsid, ComResult, Iid};
use std::collections::{HashMap, HashSet};

/// Smallest message-size bucket boundary, in bytes.
pub const BUCKET_BASE: u64 = 64;

/// Number of distinct size buckets (bucket 31 holds ≥ 64·2³⁰ bytes).
pub const BUCKET_COUNT: u8 = 32;

/// Maps a message size to its exponential bucket index.
///
/// Bucket `k` holds sizes in `(64·2^(k−1), 64·2^k]`, with bucket 0 holding
/// everything up to 64 bytes.
///
/// # Examples
///
/// ```
/// use coign::profile::size_bucket;
/// assert_eq!(size_bucket(0), 0);
/// assert_eq!(size_bucket(64), 0);
/// assert_eq!(size_bucket(65), 1);
/// assert_eq!(size_bucket(128), 1);
/// assert_eq!(size_bucket(129), 2);
/// ```
pub fn size_bucket(bytes: u64) -> u8 {
    let mut bucket = 0u8;
    let mut bound = BUCKET_BASE;
    while bytes > bound && bucket < BUCKET_COUNT - 1 {
        bucket += 1;
        bound = bound.saturating_mul(2);
    }
    bucket
}

/// Inclusive upper bound of a bucket, in bytes.
#[cfg(test)]
fn bucket_bound(bucket: u8) -> u64 {
    BUCKET_BASE.saturating_mul(1u64 << bucket.min(BUCKET_COUNT - 1))
}

/// The bucket bounds as finite histogram bounds for the metrics registry
/// (the registry's `coign_icc_message_bytes` histogram mirrors these
/// paper buckets exactly).
pub(crate) fn icc_size_bounds() -> Vec<u64> {
    coign_obs::metrics::exponential_bounds(BUCKET_BASE, u32::from(BUCKET_COUNT))
}

/// Key of one summarized communication entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeKey {
    /// Classification of the message sender.
    pub from: ClassificationId,
    /// Classification of the message receiver.
    pub to: ClassificationId,
    /// Interface carrying the message.
    pub iid: Iid,
    /// Method index within the interface.
    pub method: u32,
    /// Exponential size bucket of the message.
    pub bucket: u8,
}

/// Accumulated traffic for one [`EdgeKey`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeStats {
    /// Number of messages.
    pub messages: u64,
    /// Total bytes across those messages.
    pub bytes: u64,
}

/// A summarized inter-component communication profile.
///
/// Profiles from multiple scenarios can be merged ([`IccProfile::merge`]),
/// matching the paper's combination of log files from several profiling
/// executions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IccProfile {
    /// Summarized traffic.
    pub edges: HashMap<EdgeKey, EdgeStats>,
    /// Instances observed per classification (across all merged runs).
    pub instances: HashMap<ClassificationId, u64>,
    /// Component class of each classification (for static API analysis).
    pub class_of: HashMap<ClassificationId, Clsid>,
    /// Classification pairs connected by at least one non-remotable
    /// interface call (must be co-located).
    pub non_remotable: HashSet<(ClassificationId, ClassificationId)>,
    /// Names of the scenarios merged into this profile.
    pub scenarios: Vec<String>,
}

impl IccProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        IccProfile::default()
    }

    /// Records one message from `from` to `to`.
    pub fn record_message(
        &mut self,
        from: ClassificationId,
        to: ClassificationId,
        iid: Iid,
        method: u32,
        bytes: u64,
    ) {
        let key = EdgeKey {
            from,
            to,
            iid,
            method,
            bucket: size_bucket(bytes),
        };
        let stats = self.edges.entry(key).or_default();
        stats.messages += 1;
        stats.bytes += bytes;
    }

    /// Records that `a` and `b` communicate through a non-remotable
    /// interface (stored order-normalized).
    pub fn record_non_remotable(&mut self, a: ClassificationId, b: ClassificationId) {
        let pair = if a <= b { (a, b) } else { (b, a) };
        self.non_remotable.insert(pair);
    }

    /// Records an observed instance of a classification.
    pub fn record_instance(&mut self, class: ClassificationId, clsid: Clsid) {
        *self.instances.entry(class).or_insert(0) += 1;
        self.class_of.insert(class, clsid);
    }

    /// Merges another profile into this one (log-file combination).
    pub fn merge(&mut self, other: &IccProfile) {
        for (key, stats) in &other.edges {
            let entry = self.edges.entry(*key).or_default();
            entry.messages += stats.messages;
            entry.bytes += stats.bytes;
        }
        for (class, n) in &other.instances {
            *self.instances.entry(*class).or_insert(0) += n;
        }
        for (class, clsid) in &other.class_of {
            self.class_of.insert(*class, *clsid);
        }
        self.non_remotable
            .extend(other.non_remotable.iter().copied());
        self.scenarios.extend(other.scenarios.iter().cloned());
    }

    /// Rewrites every classification id through `map` (indexed by the old
    /// raw id, as returned by `InstanceClassifier::absorb`), producing the
    /// profile as it would look had the run classified against the
    /// absorbed table. Scenario names are preserved.
    ///
    /// Colliding edge keys accumulate and non-remotable pairs are
    /// re-normalized, so the result is well-formed even for non-injective
    /// maps.
    pub(crate) fn remap_classifications(&self, map: &[ClassificationId]) -> IccProfile {
        let at = |id: ClassificationId| -> ClassificationId {
            *map.get(id.0 as usize)
                .expect("profile references a classification missing from the translation")
        };
        let mut out = IccProfile::new();
        for (key, stats) in &self.edges {
            let key = EdgeKey {
                from: at(key.from),
                to: at(key.to),
                ..*key
            };
            let entry = out.edges.entry(key).or_default();
            entry.messages += stats.messages;
            entry.bytes += stats.bytes;
        }
        for (class, n) in &self.instances {
            *out.instances.entry(at(*class)).or_insert(0) += n;
        }
        for (class, clsid) in &self.class_of {
            out.class_of.insert(at(*class), *clsid);
        }
        for (a, b) in &self.non_remotable {
            let (a, b) = (at(*a), at(*b));
            out.non_remotable
                .insert(if a <= b { (a, b) } else { (b, a) });
        }
        out.scenarios = self.scenarios.clone();
        out
    }

    /// Total messages recorded.
    pub fn total_messages(&self) -> u64 {
        self.edges.values().map(|s| s.messages).sum()
    }

    /// Total bytes recorded.
    pub fn total_bytes(&self) -> u64 {
        self.edges.values().map(|s| s.bytes).sum()
    }

    /// Classifications that appear anywhere in the profile.
    pub fn classifications(&self) -> HashSet<ClassificationId> {
        let mut set: HashSet<ClassificationId> = self.instances.keys().copied().collect();
        for key in self.edges.keys() {
            set.insert(key.from);
            set.insert(key.to);
        }
        for (a, b) in &self.non_remotable {
            set.insert(*a);
            set.insert(*b);
        }
        set
    }

    /// Aggregated undirected traffic per classification pair
    /// (order-normalized): `(messages, bytes)`, saturating at `u64::MAX`
    /// (capacities clamp far below that; see [`crate::icc::IccGraph::capacity_of`]).
    pub(crate) fn pair_traffic(&self) -> HashMap<(ClassificationId, ClassificationId), EdgeStats> {
        let mut out: HashMap<(ClassificationId, ClassificationId), EdgeStats> = HashMap::new();
        for (key, stats) in &self.edges {
            let pair = if key.from <= key.to {
                (key.from, key.to)
            } else {
                (key.to, key.from)
            };
            let entry = out.entry(pair).or_default();
            entry.messages = entry.messages.saturating_add(stats.messages);
            entry.bytes = entry.bytes.saturating_add(stats.bytes);
        }
        out
    }

    /// Serializes the profile.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        // Deterministic order for byte-stable records.
        let mut edges: Vec<(&EdgeKey, &EdgeStats)> = self.edges.iter().collect();
        edges.sort_by_key(|(k, _)| **k);
        e.put_seq(edges.len());
        for (key, stats) in edges {
            e.put_u32(key.from.0);
            e.put_u32(key.to.0);
            e.put_guid(key.iid.0);
            e.put_u32(key.method);
            e.put_u8(key.bucket);
            e.put_u64(stats.messages);
            e.put_u64(stats.bytes);
        }
        let mut instances: Vec<(&ClassificationId, &u64)> = self.instances.iter().collect();
        instances.sort();
        e.put_seq(instances.len());
        for (class, n) in instances {
            e.put_u32(class.0);
            e.put_u64(*n);
        }
        let mut classes: Vec<(&ClassificationId, &Clsid)> = self.class_of.iter().collect();
        classes.sort();
        e.put_seq(classes.len());
        for (class, clsid) in classes {
            e.put_u32(class.0);
            e.put_guid(clsid.0);
        }
        let mut pairs: Vec<&(ClassificationId, ClassificationId)> =
            self.non_remotable.iter().collect();
        pairs.sort();
        e.put_seq(pairs.len());
        for (a, b) in pairs {
            e.put_u32(a.0);
            e.put_u32(b.0);
        }
        e.put_seq(self.scenarios.len());
        for s in &self.scenarios {
            e.put_str(s);
        }
        e.finish()
    }

    /// Deserializes a profile.
    pub fn decode(bytes: &[u8]) -> ComResult<Self> {
        let mut d = Decoder::new(bytes);
        let mut profile = IccProfile::new();
        let n_edges = d.get_seq(45)?;
        for _ in 0..n_edges {
            let key = EdgeKey {
                from: ClassificationId(d.get_u32()?),
                to: ClassificationId(d.get_u32()?),
                iid: Iid(d.get_guid()?),
                method: d.get_u32()?,
                bucket: d.get_u8()?,
            };
            let stats = EdgeStats {
                messages: d.get_u64()?,
                bytes: d.get_u64()?,
            };
            profile.edges.insert(key, stats);
        }
        let n_instances = d.get_seq(12)?;
        for _ in 0..n_instances {
            let class = ClassificationId(d.get_u32()?);
            let n = d.get_u64()?;
            profile.instances.insert(class, n);
        }
        let n_classes = d.get_seq(20)?;
        for _ in 0..n_classes {
            let class = ClassificationId(d.get_u32()?);
            let clsid = Clsid(d.get_guid()?);
            profile.class_of.insert(class, clsid);
        }
        let n_pairs = d.get_seq(8)?;
        for _ in 0..n_pairs {
            let a = ClassificationId(d.get_u32()?);
            let b = ClassificationId(d.get_u32()?);
            profile.non_remotable.insert((a, b));
        }
        let n_scen = d.get_seq(4)?;
        for _ in 0..n_scen {
            profile.scenarios.push(d.get_str()?);
        }
        Ok(profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(n: u32) -> ClassificationId {
        ClassificationId(n)
    }

    #[test]
    fn bucket_boundaries_grow_exponentially() {
        assert_eq!(size_bucket(1), 0);
        assert_eq!(size_bucket(64), 0);
        assert_eq!(size_bucket(65), 1);
        assert_eq!(size_bucket(128), 1);
        assert_eq!(size_bucket(256), 2);
        assert_eq!(size_bucket(1024), 4);
        assert_eq!(size_bucket(u64::MAX), BUCKET_COUNT - 1);
        for k in 0..8u8 {
            assert_eq!(bucket_bound(k), 64 << k);
            // Every bucket bound maps into its own bucket.
            assert_eq!(size_bucket(bucket_bound(k)), k);
        }
    }

    #[test]
    fn summarization_bounds_storage() {
        // Many same-shaped messages collapse into a handful of entries —
        // the paper's claim that storage does not grow with execution time.
        let mut p = IccProfile::new();
        let iid = Iid::from_name("IStream");
        for i in 0..10_000u64 {
            p.record_message(c(1), c(2), iid, 0, 100 + (i % 3));
        }
        assert_eq!(p.edges.len(), 1); // all in bucket 1
        assert_eq!(p.total_messages(), 10_000);
    }

    #[test]
    fn distinct_methods_and_buckets_stay_separate() {
        let mut p = IccProfile::new();
        let iid = Iid::from_name("IStream");
        p.record_message(c(1), c(2), iid, 0, 32);
        p.record_message(c(1), c(2), iid, 1, 32);
        p.record_message(c(1), c(2), iid, 0, 100_000);
        assert_eq!(p.edges.len(), 3);
    }

    #[test]
    fn merge_accumulates() {
        let iid = Iid::from_name("IX");
        let mut a = IccProfile::new();
        a.record_message(c(1), c(2), iid, 0, 10);
        a.record_instance(c(1), Clsid::from_name("A"));
        a.scenarios.push("s1".into());
        let mut b = IccProfile::new();
        b.record_message(c(1), c(2), iid, 0, 12);
        b.record_instance(c(1), Clsid::from_name("A"));
        b.record_non_remotable(c(3), c(2));
        b.scenarios.push("s2".into());
        a.merge(&b);
        assert_eq!(a.total_messages(), 2);
        assert_eq!(a.total_bytes(), 22);
        assert_eq!(a.instances[&c(1)], 2);
        assert_eq!(a.class_of[&c(1)], Clsid::from_name("A"));
        assert!(a.non_remotable.contains(&(c(2), c(3))));
        assert_eq!(a.scenarios, vec!["s1".to_string(), "s2".to_string()]);
    }

    #[test]
    fn non_remotable_pairs_are_normalized() {
        let mut p = IccProfile::new();
        p.record_non_remotable(c(5), c(2));
        p.record_non_remotable(c(2), c(5));
        assert_eq!(p.non_remotable.len(), 1);
    }

    #[test]
    fn pair_traffic_merges_directions() {
        let iid = Iid::from_name("IX");
        let mut p = IccProfile::new();
        p.record_message(c(1), c(2), iid, 0, 10);
        p.record_message(c(2), c(1), iid, 0, 30);
        let pairs = p.pair_traffic();
        assert_eq!(pairs.len(), 1);
        let stats = pairs[&(c(1), c(2))];
        assert_eq!(stats.messages, 2);
        assert_eq!(stats.bytes, 40);
    }

    #[test]
    fn classifications_cover_all_sources() {
        let iid = Iid::from_name("IX");
        let mut p = IccProfile::new();
        p.record_message(c(1), c(2), iid, 0, 10);
        p.record_instance(c(3), Clsid::from_name("C3"));
        p.record_non_remotable(c(4), c(5));
        let all = p.classifications();
        for id in 1..=5 {
            assert!(all.contains(&c(id)), "missing {id}");
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let iid = Iid::from_name("IX");
        let mut p = IccProfile::new();
        p.record_message(c(1), c(2), iid, 0, 10);
        p.record_message(c(2), c(1), iid, 3, 5000);
        p.record_instance(c(1), Clsid::from_name("A"));
        p.record_instance(c(1), Clsid::from_name("A"));
        p.record_non_remotable(c(1), c(2));
        p.scenarios.push("o_newdoc".into());
        let back = IccProfile::decode(&p.encode()).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn decode_rejects_truncation() {
        let iid = Iid::from_name("IX");
        let mut p = IccProfile::new();
        p.record_message(c(1), c(2), iid, 0, 10);
        let mut bytes = p.encode();
        bytes.truncate(bytes.len() - 3);
        assert!(IccProfile::decode(&bytes).is_err());
    }

    #[test]
    fn encoded_profiles_roundtrip_and_merge() {
        let iid = Iid::from_name("IX");
        let mut a = IccProfile::new();
        a.record_message(c(1), c(2), iid, 0, 10);
        a.scenarios.push("s1".into());
        let mut b = IccProfile::new();
        b.record_message(c(2), c(3), iid, 1, 99);
        b.scenarios.push("s2".into());

        // "Log files from multiple profiling scenarios may be combined and
        // summarized during later analysis."
        let mut merged = IccProfile::decode(&a.encode()).unwrap();
        merged.merge(&IccProfile::decode(&b.encode()).unwrap());
        assert_eq!(merged.total_messages(), 2);
        assert_eq!(merged.scenarios, vec!["s1".to_string(), "s2".to_string()]);
    }

    #[test]
    fn remap_rewrites_every_id_and_renormalizes_pairs() {
        let iid = Iid::from_name("IX");
        let mut p = IccProfile::new();
        p.record_message(c(1), c(2), iid, 0, 10);
        p.record_instance(c(2), Clsid::from_name("B"));
        p.record_non_remotable(c(1), c(2));
        p.scenarios.push("s".into());
        // 1 → 5, 2 → 3: the (1,2) pair flips order under the map.
        let map = [
            ClassificationId::ROOT,
            ClassificationId(5),
            ClassificationId(3),
        ];
        let out = p.remap_classifications(&map);
        let key = EdgeKey {
            from: c(5),
            to: c(3),
            iid,
            method: 0,
            bucket: size_bucket(10),
        };
        assert_eq!(out.edges[&key].bytes, 10);
        assert_eq!(out.instances[&c(3)], 1);
        assert_eq!(out.class_of[&c(3)], Clsid::from_name("B"));
        assert!(out.non_remotable.contains(&(c(3), c(5))));
        assert_eq!(out.scenarios, vec!["s".to_string()]);
    }

    #[test]
    fn identity_remap_is_a_noop() {
        let iid = Iid::from_name("IX");
        let mut p = IccProfile::new();
        p.record_message(c(1), c(2), iid, 0, 10);
        p.record_message(c(2), c(1), iid, 1, 999);
        p.record_instance(c(1), Clsid::from_name("A"));
        p.record_non_remotable(c(2), c(1));
        let map: Vec<ClassificationId> = (0..3).map(ClassificationId).collect();
        assert_eq!(p.remap_classifications(&map), p);
    }

    /// Pins the on-disk profile encoding byte for byte: any codec change
    /// must be deliberate (it invalidates every stored `.cimg` record).
    #[test]
    fn encoding_bytes_are_pinned() {
        let mut p = IccProfile::new();
        p.record_message(c(1), c(2), Iid::from_name("IX"), 3, 100);
        p.record_instance(c(1), Clsid::from_name("A"));
        p.record_non_remotable(c(2), c(1));
        p.scenarios.push("pin".into());
        let hex: String = p.encode().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, PINNED_PROFILE_HEX);
    }

    const PINNED_PROFILE_HEX: &str = "010000000100000002000000bcd67a553073a05ae91babf1e294800803000000010100000000000000640000000000000001000000010000000100000000000000010000000100000004624a4e702b9178af8c1a4f69cb28d2010000000100000002000000010000000300000070696e";

    #[test]
    fn encoding_is_deterministic() {
        let iid = Iid::from_name("IX");
        let build = || {
            let mut p = IccProfile::new();
            for i in 0..50u32 {
                p.record_message(c(i % 7), c(i % 5), iid, i % 3, u64::from(i) * 17);
            }
            p.encode()
        };
        assert_eq!(build(), build());
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use coign_com::Clsid;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const CASES: u64 = 64;

    /// One random recorded message.
    #[derive(Debug, Clone)]
    struct Msg {
        from: u32,
        to: u32,
        method: u32,
        bytes: u64,
    }

    /// Fewer than `max` random messages.
    fn random_messages(rng: &mut StdRng, max: usize) -> Vec<Msg> {
        (0..rng.gen_range(0..max))
            .map(|_| Msg {
                from: rng.gen_range(0..8),
                to: rng.gen_range(0..8),
                method: rng.gen_range(0..4),
                bytes: rng.gen_range(0..100_000),
            })
            .collect()
    }

    fn build(messages: &[Msg]) -> IccProfile {
        let iid = Iid::from_name("IProp");
        let mut p = IccProfile::new();
        for m in messages {
            p.record_message(
                ClassificationId(m.from),
                ClassificationId(m.to),
                iid,
                m.method,
                m.bytes,
            );
            p.record_instance(ClassificationId(m.from), Clsid::from_name("A"));
        }
        p
    }

    /// Totals are preserved by merging regardless of how the message
    /// stream is split into runs.
    #[test]
    fn merge_preserves_totals() {
        for case in 0..CASES {
            let mut rng = StdRng::seed_from_u64(case);
            let messages = random_messages(&mut rng, 60);
            let split = rng.gen_range(0usize..60).min(messages.len());
            let whole = build(&messages);
            let mut merged = build(&messages[..split]);
            merged.merge(&build(&messages[split..]));
            assert_eq!(
                whole.total_messages(),
                merged.total_messages(),
                "case {case}"
            );
            assert_eq!(whole.total_bytes(), merged.total_bytes(), "case {case}");
            assert_eq!(whole.edges, merged.edges, "case {case}");
        }
    }

    /// Merging is associative: folding scenario logs left-to-right or
    /// merging a pre-combined tail gives the same profile — the property
    /// that lets parallel profiling combine worker results in any
    /// grouping.
    #[test]
    fn merge_is_associative() {
        for case in 0..CASES {
            let mut rng = StdRng::seed_from_u64(case);
            let mut pa = build(&random_messages(&mut rng, 40));
            let pb = build(&random_messages(&mut rng, 40));
            let pc = build(&random_messages(&mut rng, 40));
            pa.scenarios.push("sa".into());
            let mut ab_then_c = pa.clone();
            ab_then_c.merge(&pb);
            ab_then_c.merge(&pc);
            let mut bc = pb.clone();
            bc.merge(&pc);
            let mut a_then_bc = pa.clone();
            a_then_bc.merge(&bc);
            assert_eq!(ab_then_c, a_then_bc, "case {case}");
            assert_eq!(ab_then_c.encode(), a_then_bc.encode(), "case {case}");
        }
    }

    /// Merging is commutative on the summarized traffic.
    #[test]
    fn merge_is_commutative() {
        for case in 0..CASES {
            let mut rng = StdRng::seed_from_u64(case);
            let pa = build(&random_messages(&mut rng, 40));
            let pb = build(&random_messages(&mut rng, 40));
            let mut ab = pa.clone();
            ab.merge(&pb);
            let mut ba = pb.clone();
            ba.merge(&pa);
            assert_eq!(ab.edges, ba.edges, "case {case}");
            assert_eq!(ab.non_remotable, ba.non_remotable, "case {case}");
        }
    }

    /// Encode/decode round-trips arbitrary profiles.
    #[test]
    fn codec_roundtrip() {
        for case in 0..CASES {
            let p = build(&random_messages(&mut StdRng::seed_from_u64(case), 60));
            let back = IccProfile::decode(&p.encode()).unwrap();
            assert_eq!(back, p, "case {case}");
        }
    }

    /// Pair traffic is direction-insensitive: reversing every message
    /// leaves the undirected summary unchanged.
    #[test]
    fn pair_traffic_is_undirected() {
        for case in 0..CASES {
            let messages = random_messages(&mut StdRng::seed_from_u64(case), 60);
            let forward = build(&messages);
            let mut reversed = messages.clone();
            for m in &mut reversed {
                std::mem::swap(&mut m.from, &mut m.to);
            }
            let backward = build(&reversed);
            assert_eq!(
                forward.pair_traffic(),
                backward.pair_traffic(),
                "case {case}"
            );
        }
    }

    /// Buckets never lose messages: the summarized message count always
    /// equals the raw stream length.
    #[test]
    fn summarization_is_lossless_in_counts() {
        for case in 0..CASES {
            let messages = random_messages(&mut StdRng::seed_from_u64(case), 80);
            let p = build(&messages);
            assert_eq!(p.total_messages(), messages.len() as u64, "case {case}");
            let byte_sum: u64 = messages.iter().map(|m| m.bytes).sum();
            assert_eq!(p.total_bytes(), byte_sum, "case {case}");
        }
    }
}
