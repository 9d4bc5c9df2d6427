//! Execution-time prediction (§4.6, Table 5 of the paper).
//!
//! Coign's graph-cutting is only as good as its model of communication and
//! execution time. The prediction for a distributed scenario is:
//!
//! ```text
//! predicted = application compute time            (from the profiling run)
//!           + Σ over cross-machine traffic of α·messages + β·bytes
//!                                                 (from the network profile)
//!           + per-call distribution-informer overhead
//! ```
//!
//! The *measured* time comes from actually executing the distributed
//! scenario on the simulated network, whose per-message jitter the analytic
//! model cannot see — which is why predictions are close but not exact,
//! just as in the paper (errors ≤ 8 %).

use crate::analysis::Distribution;
use crate::informer::DISTRIBUTION_CALL_OVERHEAD_US;
use crate::profile::IccProfile;
use coign_dcom::NetworkProfile;

/// Predicted communication time for a profile split by `distribution`, in
/// microseconds: the α/β model applied to every classification pair whose
/// endpoints land on different machines.
pub fn predict_comm_us(
    profile: &IccProfile,
    distribution: &Distribution,
    network: &NetworkProfile,
) -> f64 {
    // Sum in pair order so the floating-point result is bit-stable run
    // to run.
    profile
        .pair_traffic()
        .iter()
        .filter(|((a, b), _)| distribution.machine_of(*a) != distribution.machine_of(*b))
        .map(|(_, stats)| network.predict_traffic_us(stats.messages, stats.bytes))
        .sum()
}

/// Predicted end-to-end execution time of a distributed scenario, in
/// microseconds.
///
/// * `profiled_compute_us` — application compute measured during profiling
///   (instrumentation overhead excluded).
/// * `profiled_calls` — interface dispatches observed during profiling
///   (each costs the distribution informer [`DISTRIBUTION_CALL_OVERHEAD_US`]).
pub fn predict_execution_us(
    profiled_compute_us: u64,
    profiled_calls: u64,
    profile: &IccProfile,
    distribution: &Distribution,
    network: &NetworkProfile,
) -> f64 {
    profiled_compute_us as f64
        + profiled_calls as f64 * DISTRIBUTION_CALL_OVERHEAD_US as f64
        + predict_comm_us(profile, distribution, network)
}

/// A prediction-versus-measurement comparison row (Table 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictionRow {
    /// Predicted execution time, microseconds.
    pub predicted_us: f64,
    /// Measured execution time, microseconds.
    pub measured_us: f64,
}

impl PredictionRow {
    /// Signed relative error `(measured − predicted) / measured`.
    pub fn error(&self) -> f64 {
        if self.measured_us == 0.0 {
            return 0.0;
        }
        (self.measured_us - self.predicted_us) / self.measured_us
    }

    /// Error as a rounded percentage (the paper's formatting).
    pub fn error_pct(&self) -> i64 {
        (self.error() * 100.0).round() as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::ClassificationId;
    use coign_com::{Clsid, Iid, MachineId};
    use coign_dcom::NetworkModel;
    use std::collections::HashMap;

    fn c(n: u32) -> ClassificationId {
        ClassificationId(n)
    }

    fn make(placement: &[(u32, MachineId)]) -> Distribution {
        Distribution {
            placement: placement
                .iter()
                .map(|(id, m)| (c(*id), *m))
                .collect::<HashMap<_, _>>(),
            predicted_comm_us: 0.0,
            network_name: "test".into(),
        }
    }

    fn profile() -> IccProfile {
        let iid = Iid::from_name("IX");
        let mut p = IccProfile::new();
        p.record_instance(c(1), Clsid::from_name("A"));
        p.record_instance(c(2), Clsid::from_name("B"));
        for _ in 0..10 {
            p.record_message(c(1), c(2), iid, 0, 1_000);
        }
        p.record_message(ClassificationId::ROOT, c(1), iid, 0, 100);
        p
    }

    #[test]
    fn colocated_pairs_cost_nothing() {
        let network = NetworkProfile::exact(&NetworkModel::ethernet_10baset());
        let dist = make(&[(1, MachineId::CLIENT), (2, MachineId::CLIENT)]);
        assert_eq!(predict_comm_us(&profile(), &dist, &network), 0.0);
    }

    #[test]
    fn split_pairs_cost_their_traffic() {
        let network = NetworkProfile::exact(&NetworkModel::ethernet_10baset());
        let dist = make(&[(1, MachineId::CLIENT), (2, MachineId::SERVER)]);
        let cost = predict_comm_us(&profile(), &dist, &network);
        let expected = network.predict_traffic_us(10, 10_000);
        assert!((cost - expected).abs() < 1e-9);
    }

    #[test]
    fn execution_prediction_adds_compute_and_overhead() {
        let network = NetworkProfile::exact(&NetworkModel::ethernet_10baset());
        let dist = make(&[(1, MachineId::CLIENT), (2, MachineId::CLIENT)]);
        let total = predict_execution_us(1_000, 11, &profile(), &dist, &network);
        assert!((total - 1_000.0 - 11.0 * DISTRIBUTION_CALL_OVERHEAD_US as f64).abs() < 1e-9);
    }

    #[test]
    fn error_is_signed_and_percent_rounded() {
        let row = PredictionRow {
            predicted_us: 95.0,
            measured_us: 100.0,
        };
        assert!((row.error() - 0.05).abs() < 1e-12);
        assert_eq!(row.error_pct(), 5);
        let over = PredictionRow {
            predicted_us: 103.0,
            measured_us: 100.0,
        };
        assert_eq!(over.error_pct(), -3);
        let zero = PredictionRow {
            predicted_us: 5.0,
            measured_us: 0.0,
        };
        assert_eq!(zero.error_pct(), 0);
    }

    #[test]
    fn unknown_classifications_default_to_client() {
        let network = NetworkProfile::exact(&NetworkModel::ethernet_10baset());
        // Only classification 2 placed; 1 defaults to client.
        let dist = make(&[(2, MachineId::SERVER)]);
        let cost = predict_comm_us(&profile(), &dist, &network);
        assert!(cost > 0.0);
    }
}
