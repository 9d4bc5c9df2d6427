//! The network profiler.
//!
//! Coign's network profiler "creates a network profile through statistical
//! sampling of communication time for a representative set of DCOM
//! messages". The resulting profile converts the *abstract* ICC graph
//! (messages and bytes) into a *concrete* graph of communication time for a
//! particular network.
//!
//! We sample the simulated network at a ladder of representative message
//! sizes and fit an ordinary-least-squares line `time = α + β·bytes`. The
//! underlying model is linear-plus-jitter, so the fit is accurate but not
//! exact — precisely the situation that gives the paper's prediction model
//! its small (≤8 %) errors in Table 5.

use crate::network::NetworkModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Representative message sizes sampled by the profiler, in bytes.
pub const SAMPLE_SIZES: [u64; 10] = [
    64, 128, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576, 4_194_304,
];

/// A fitted network cost profile: `predict(bytes) = α + β·bytes` (one-way).
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkProfile {
    /// Network the profile was measured on.
    pub network_name: String,
    /// Fixed per-message cost, microseconds.
    pub alpha_us: f64,
    /// Marginal cost per byte, microseconds.
    pub beta_us_per_byte: f64,
    /// Number of samples taken.
    pub samples: usize,
}

impl NetworkProfile {
    /// Measures a network by statistical sampling and fits the cost model.
    ///
    /// `samples_per_size` round trips are timed at each of the
    /// [`SAMPLE_SIZES`]; the seed makes the measurement reproducible.
    pub fn measure(network: &NetworkModel, samples_per_size: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut points = Vec::with_capacity(SAMPLE_SIZES.len() * samples_per_size);
        for &size in &SAMPLE_SIZES {
            for _ in 0..samples_per_size {
                let t = network.sample_time_us(size, &mut rng);
                points.push((size as f64, t));
            }
        }
        let (alpha, beta) = weighted_least_squares(&points);
        NetworkProfile {
            network_name: network.name.clone(),
            alpha_us: alpha,
            beta_us_per_byte: beta,
            samples: points.len(),
        }
    }

    /// Builds an exact profile directly from a model (no sampling error);
    /// useful for tests that need a jitter-free baseline.
    pub fn exact(network: &NetworkModel) -> Self {
        NetworkProfile {
            network_name: network.name.clone(),
            alpha_us: network.latency_us
                + network.overhead_bytes as f64 / network.bandwidth_bytes_per_sec * 1e6,
            beta_us_per_byte: 1e6 / network.bandwidth_bytes_per_sec,
            samples: 0,
        }
    }

    /// Predicted one-way time for a message of `bytes`, in microseconds.
    pub fn predict_us(&self, bytes: u64) -> f64 {
        (self.alpha_us + self.beta_us_per_byte * bytes as f64).max(0.0)
    }

    /// Predicted cost of `messages` messages carrying `total_bytes` in
    /// aggregate — the edge-weight formula used to build the concrete ICC
    /// graph.
    pub fn predict_traffic_us(&self, messages: u64, total_bytes: u64) -> f64 {
        self.alpha_us * messages as f64 + self.beta_us_per_byte * total_bytes as f64
    }
}

/// Weighted least squares minimizing *relative* error: because network
/// jitter is multiplicative, a 5 % error on a 4 MB transfer would otherwise
/// swamp the latency term entirely. Minimizes `Σ ((y − α − β·x) / y)²`.
fn weighted_least_squares(points: &[(f64, f64)]) -> (f64, f64) {
    // With u = 1/y the residual is (α·u + β·x·u − 1); solve the 2×2 normal
    // equations for the design columns a = u, b = x·u against target 1.
    let mut saa = 0.0;
    let mut sab = 0.0;
    let mut sbb = 0.0;
    let mut sa = 0.0;
    let mut sb = 0.0;
    for (x, y) in points {
        if *y <= 0.0 {
            continue;
        }
        let a = 1.0 / y;
        let b = x / y;
        saa += a * a;
        sab += a * b;
        sbb += b * b;
        sa += a;
        sb += b;
    }
    let det = saa * sbb - sab * sab;
    if det.abs() < 1e-18 {
        return least_squares(points);
    }
    let alpha = (sa * sbb - sb * sab) / det;
    let beta = (saa * sb - sab * sa) / det;
    (alpha, beta)
}

/// Ordinary least squares for `y = α + β·x` over `(x, y)` points.
fn least_squares(points: &[(f64, f64)]) -> (f64, f64) {
    let n = points.len() as f64;
    if points.is_empty() {
        return (0.0, 0.0);
    }
    let sum_x: f64 = points.iter().map(|p| p.0).sum();
    let sum_y: f64 = points.iter().map(|p| p.1).sum();
    let mean_x = sum_x / n;
    let mean_y = sum_y / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    for (x, y) in points {
        sxx += (x - mean_x) * (x - mean_x);
        sxy += (x - mean_x) * (y - mean_y);
    }
    if sxx == 0.0 {
        return (mean_y, 0.0);
    }
    let beta = sxy / sxx;
    let alpha = mean_y - beta * mean_x;
    (alpha, beta)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn least_squares_recovers_exact_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 + 2.0 * i as f64)).collect();
        let (a, b) = least_squares(&pts);
        assert!((a - 3.0).abs() < 1e-9);
        assert!((b - 2.0).abs() < 1e-9);
    }

    #[test]
    fn least_squares_degenerate_cases() {
        assert_eq!(least_squares(&[]), (0.0, 0.0));
        let (a, b) = least_squares(&[(5.0, 7.0), (5.0, 9.0)]);
        assert_eq!(b, 0.0);
        assert!((a - 8.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_fit_recovers_exact_line() {
        let pts: Vec<(f64, f64)> = (1..200)
            .map(|i| (i as f64 * 100.0, 3.0 + 2.0 * i as f64 * 100.0))
            .collect();
        let (a, b) = weighted_least_squares(&pts);
        assert!((a - 3.0).abs() < 1e-6, "alpha {a}");
        assert!((b - 2.0).abs() < 1e-9, "beta {b}");
    }

    #[test]
    fn weighted_fit_falls_back_on_degenerate_input() {
        let (a, b) = weighted_least_squares(&[]);
        assert_eq!((a, b), (0.0, 0.0));
    }

    #[test]
    fn measured_profile_approximates_model() {
        let net = NetworkModel::ethernet_10baset();
        let profile = NetworkProfile::measure(&net, 50, 1234);
        let exact = NetworkProfile::exact(&net);
        for bytes in [100u64, 10_000, 1_000_000] {
            let rel = (profile.predict_us(bytes) - exact.predict_us(bytes)).abs()
                / exact.predict_us(bytes);
            assert!(rel < 0.05, "relative error {rel} at {bytes} bytes");
        }
    }

    #[test]
    fn measurement_is_seeded() {
        let net = NetworkModel::ethernet_10baset();
        let a = NetworkProfile::measure(&net, 10, 99);
        let b = NetworkProfile::measure(&net, 10, 99);
        assert_eq!(a, b);
        let c = NetworkProfile::measure(&net, 10, 100);
        assert_ne!(a.alpha_us.to_bits(), c.alpha_us.to_bits());
    }

    #[test]
    fn measurement_differs_slightly_from_truth() {
        // This non-zero discrepancy is what produces Table 5's small errors.
        let net = NetworkModel::ethernet_10baset();
        let measured = NetworkProfile::measure(&net, 20, 7);
        let exact = NetworkProfile::exact(&net);
        assert_ne!(measured.alpha_us.to_bits(), exact.alpha_us.to_bits());
    }

    #[test]
    fn traffic_prediction_scales_with_messages_and_bytes() {
        let profile = NetworkProfile::exact(&NetworkModel::ethernet_10baset());
        let one = profile.predict_traffic_us(1, 1000);
        let ten = profile.predict_traffic_us(10, 10_000);
        assert!((ten - 10.0 * one).abs() < 1e-6);
    }

    #[test]
    fn slow_networks_predict_higher_costs() {
        let isdn = NetworkProfile::exact(&NetworkModel::isdn());
        let san = NetworkProfile::exact(&NetworkModel::san());
        assert!(isdn.predict_us(4096) > 100.0 * san.predict_us(4096));
    }
}
