//! Classifier-accuracy metrics (§4.2 of the paper).
//!
//! To quantify communication behavior the paper introduces **instance
//! communication vectors**: an ordered tuple of real numbers, one per
//! communication peer, each quantifying the communication time with that
//! peer if it were located remotely. Two vectors are compared with the
//! normalized dot product: 1.0 means equivalent communication behavior,
//! 0.0 means none shared.
//!
//! [`evaluate_classifier`] reproduces the Table 2 / Table 3 procedure: run a
//! classifier through all profiling scenarios to build per-classification
//! profiles, then run the synthesized `bigone` scenario and measure how well
//! each instance's actual behavior correlates with its classification's
//! profile.

use crate::application::Application;
use crate::classifier::{ClassificationId, ClassifierKind, InstanceClassifier};
use crate::logger::{PairTraffic, ROOT_INSTANCE};
use crate::runtime::profile_scenario;
use coign_com::{ComResult, FoldState, InstanceId};
use coign_dcom::NetworkProfile;
use std::collections::HashMap;
use std::sync::Arc;

/// A communication vector: predicted communication time (µs) with each
/// peer classification.
pub type CommVector = HashMap<ClassificationId, f64>;

/// Normalized dot-product correlation between two communication vectors.
///
/// Returns 1.0 for two empty vectors (trivially equivalent behavior), 0.0
/// when exactly one is empty, and the cosine similarity otherwise.
pub fn correlation(a: &CommVector, b: &CommVector) -> f64 {
    let norm = |v: &CommVector| v.values().map(|x| x * x).sum::<f64>().sqrt();
    let (na, nb) = (norm(a), norm(b));
    if na == 0.0 && nb == 0.0 {
        return 1.0;
    }
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    let dot: f64 = a
        .iter()
        .filter_map(|(k, va)| b.get(k).map(|vb| va * vb))
        .sum();
    (dot / (na * nb)).clamp(0.0, 1.0)
}

/// Builds per-instance communication vectors from one execution's pair
/// traffic, expressing peers by their classification.
fn instance_vectors(
    pairs: &HashMap<(InstanceId, InstanceId), PairTraffic, FoldState>,
    instance_classes: &HashMap<InstanceId, ClassificationId, FoldState>,
    network: &NetworkProfile,
) -> HashMap<InstanceId, CommVector> {
    let class_of = |id: InstanceId| -> ClassificationId {
        if id == ROOT_INSTANCE {
            ClassificationId::ROOT
        } else {
            instance_classes
                .get(&id)
                .copied()
                .unwrap_or(ClassificationId::ROOT)
        }
    };
    let mut vectors: HashMap<InstanceId, CommVector> = HashMap::new();
    for ((a, b), traffic) in pairs {
        let time = network.predict_traffic_us(traffic.messages, traffic.bytes);
        if *a != ROOT_INSTANCE {
            *vectors
                .entry(*a)
                .or_default()
                .entry(class_of(*b))
                .or_insert(0.0) += time;
        }
        if *b != ROOT_INSTANCE {
            *vectors
                .entry(*b)
                .or_default()
                .entry(class_of(*a))
                .or_insert(0.0) += time;
        }
    }
    vectors
}

/// One row of the paper's Table 2 (or Table 3 for depth sweeps).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifierEvaluation {
    /// Classifier under evaluation.
    pub kind: ClassifierKind,
    /// Stack-walk depth (`None` = complete).
    pub depth: Option<usize>,
    /// Classifications identified across the profiling scenarios.
    pub profiled_classifications: u32,
    /// New classifications first seen in the `bigone` scenario.
    pub new_classifications: u32,
    /// Average instances per classification in the `bigone` scenario.
    pub avg_instances_per_classification: f64,
    /// Average correlation between each `bigone` instance's communication
    /// vector and its classification's profiled vector.
    pub avg_correlation: f64,
}

/// Evaluates one classifier over an application's scenario suite.
///
/// `profiling_scenarios` are run first (accumulating classification
/// profiles); `bigone` is then run and each of its instances is correlated
/// against the profile of the classification it was assigned to.
pub fn evaluate_classifier(
    app: &dyn Application,
    kind: ClassifierKind,
    depth: Option<usize>,
    profiling_scenarios: &[&str],
    bigone: &str,
    network: &NetworkProfile,
) -> ComResult<ClassifierEvaluation> {
    let classifier = Arc::new(InstanceClassifier::with_depth(kind, depth));

    // Phase 1: profile — accumulate average communication vectors per
    // classification.
    let mut class_vectors: HashMap<ClassificationId, CommVector> = HashMap::new();
    let mut class_counts: HashMap<ClassificationId, u64> = HashMap::new();
    for scenario in profiling_scenarios {
        let run = profile_scenario(app, scenario, &classifier)?;
        let vectors = instance_vectors(&run.instance_pairs, &run.instance_classes, network);
        for (instance, vector) in vectors {
            let Some(&class) = run.instance_classes.get(&instance) else {
                continue;
            };
            let slot = class_vectors.entry(class).or_default();
            for (peer, time) in vector {
                *slot.entry(peer).or_insert(0.0) += time;
            }
            *class_counts.entry(class).or_insert(0) += 1;
        }
        // Instances that never communicated still count toward the profile.
        for (instance, class) in &run.instance_classes {
            if !run
                .instance_pairs
                .keys()
                .any(|(a, b)| a == instance || b == instance)
            {
                class_counts.entry(*class).or_insert(0);
            }
        }
    }
    // Average the accumulated vectors.
    for (class, vector) in class_vectors.iter_mut() {
        let n = class_counts.get(class).copied().unwrap_or(1).max(1) as f64;
        for time in vector.values_mut() {
            *time /= n;
        }
    }
    let profiled_classifications = classifier.classification_count();

    // Phase 2: bigone.
    let run = profile_scenario(app, bigone, &classifier)?;
    let new_classifications = classifier.classification_count() - profiled_classifications;
    let vectors = instance_vectors(&run.instance_pairs, &run.instance_classes, network);

    let bigone_instances = run.instance_classes.len() as f64;
    let mut distinct: std::collections::HashSet<ClassificationId> =
        std::collections::HashSet::new();
    for class in run.instance_classes.values() {
        distinct.insert(*class);
    }
    let avg_instances = if distinct.is_empty() {
        0.0
    } else {
        bigone_instances / distinct.len() as f64
    };

    let empty = CommVector::new();
    let mut total_corr = 0.0;
    let mut measured = 0u64;
    for (instance, class) in &run.instance_classes {
        let actual = vectors.get(instance).unwrap_or(&empty);
        let profiled = class_vectors.get(class).unwrap_or(&empty);
        total_corr += correlation(actual, profiled);
        measured += 1;
    }
    let avg_correlation = if measured == 0 {
        0.0
    } else {
        total_corr / measured as f64
    };

    Ok(ClassifierEvaluation {
        kind,
        depth,
        profiled_classifications,
        new_classifications,
        avg_instances_per_classification: avg_instances,
        avg_correlation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec_of(entries: &[(u32, f64)]) -> CommVector {
        entries
            .iter()
            .map(|(c, t)| (ClassificationId(*c), *t))
            .collect()
    }

    #[test]
    fn identical_vectors_correlate_to_one() {
        let v = vec_of(&[(1, 3.0), (2, 4.0)]);
        assert!((correlation(&v, &v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_vectors_correlate_to_zero() {
        let a = vec_of(&[(1, 5.0)]);
        let b = vec_of(&[(2, 5.0)]);
        assert_eq!(correlation(&a, &b), 0.0);
    }

    #[test]
    fn scaling_does_not_change_correlation() {
        let a = vec_of(&[(1, 1.0), (2, 2.0)]);
        let b = vec_of(&[(1, 10.0), (2, 20.0)]);
        assert!((correlation(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partial_overlap_is_between_zero_and_one() {
        let a = vec_of(&[(1, 1.0), (2, 1.0)]);
        let b = vec_of(&[(1, 1.0), (3, 1.0)]);
        let c = correlation(&a, &b);
        assert!(c > 0.0 && c < 1.0);
    }

    #[test]
    fn empty_vector_conventions() {
        let empty = CommVector::new();
        let v = vec_of(&[(1, 1.0)]);
        assert_eq!(correlation(&empty, &empty), 1.0);
        assert_eq!(correlation(&empty, &v), 0.0);
        assert_eq!(correlation(&v, &empty), 0.0);
    }

    #[test]
    fn vectors_attribute_traffic_to_peer_classifications() {
        use coign_dcom::NetworkModel;
        let mut pairs = HashMap::default();
        pairs.insert(
            (InstanceId(1), InstanceId(2)),
            PairTraffic {
                messages: 2,
                bytes: 1000,
            },
        );
        pairs.insert(
            (ROOT_INSTANCE, InstanceId(1)),
            PairTraffic {
                messages: 2,
                bytes: 100,
            },
        );
        let mut classes = HashMap::default();
        classes.insert(InstanceId(1), ClassificationId(10));
        classes.insert(InstanceId(2), ClassificationId(20));
        let network = NetworkProfile::exact(&NetworkModel::ethernet_10baset());
        let vectors = instance_vectors(&pairs, &classes, &network);
        // Instance 1 talks to classification 20 and ROOT.
        let v1 = &vectors[&InstanceId(1)];
        assert!(v1.contains_key(&ClassificationId(20)));
        assert!(v1.contains_key(&ClassificationId::ROOT));
        // Instance 2 talks to classification 10 only.
        let v2 = &vectors[&InstanceId(2)];
        assert_eq!(v2.len(), 1);
        assert!(v2.contains_key(&ClassificationId(10)));
        // The root itself gets no vector.
        assert!(!vectors.contains_key(&ROOT_INSTANCE));
    }
}
