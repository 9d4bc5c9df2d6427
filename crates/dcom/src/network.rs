//! Parameterized network cost models.
//!
//! A [`NetworkModel`] answers one question: how many microseconds does a
//! DCOM message of `n` bytes take on this network? The answer combines fixed
//! per-message latency (protocol processing + propagation) with serialization
//! time at the link bandwidth, plus a small seeded stochastic jitter so that
//! measured times differ slightly from any fitted analytic model — the source
//! of the small prediction errors in the paper's Table 5.
//!
//! Presets cover the network generations the paper's introduction names as
//! stressing static distributions: ISDN, 10BaseT Ethernet, ATM, and SAN.

use rand::Rng;

/// A network cost model: `time(bytes) = latency + (bytes + overhead) / bw`,
/// scaled by multiplicative jitter.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkModel {
    /// Display name, e.g. `"10BaseT Ethernet"`.
    pub name: String,
    /// Fixed one-way per-message cost in microseconds (protocol stack +
    /// propagation).
    pub latency_us: f64,
    /// Link bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
    /// Framing overhead added to every message, in bytes.
    pub overhead_bytes: u64,
    /// Half-width of the uniform multiplicative jitter (0.05 = ±5 %).
    pub jitter: f64,
}

impl NetworkModel {
    /// Creates a custom model.
    pub fn new(name: &str, latency_us: f64, bandwidth_bytes_per_sec: f64) -> Self {
        NetworkModel {
            name: name.to_string(),
            latency_us,
            bandwidth_bytes_per_sec,
            overhead_bytes: 64,
            jitter: 0.05,
        }
    }

    /// Isolated 10BaseT Ethernet — the paper's experimental network
    /// (10 Mb/s ≈ 1.25 MB/s, ~1 ms per-message software latency on
    /// 200 MHz-class hosts).
    pub fn ethernet_10baset() -> Self {
        NetworkModel::new("10BaseT Ethernet", 1_000.0, 1.25e6)
    }

    /// 128 kb/s ISDN: low bandwidth, high latency.
    pub fn isdn() -> Self {
        NetworkModel::new("ISDN 128k", 10_000.0, 16e3)
    }

    /// 155 Mb/s ATM: high bandwidth, moderate latency.
    pub fn atm155() -> Self {
        NetworkModel::new("ATM OC-3", 300.0, 19.4e6)
    }

    /// System-area network: very high bandwidth, very low latency.
    pub fn san() -> Self {
        NetworkModel::new("SAN", 20.0, 125e6)
    }

    /// Deterministic (jitter-free) one-way time for a message of `bytes`.
    pub fn mean_time_us(&self, bytes: u64) -> f64 {
        self.latency_us + (bytes + self.overhead_bytes) as f64 / self.bandwidth_bytes_per_sec * 1e6
    }

    /// Sampled one-way time with multiplicative jitter from `rng`.
    ///
    /// The effective jitter half-width is capped at 1.0: a larger value
    /// would make `1 + jitter_draw` negative and send time backwards.
    pub fn sample_time_us<R: Rng + ?Sized>(&self, bytes: u64, rng: &mut R) -> f64 {
        let base = self.mean_time_us(bytes);
        if self.jitter == 0.0 {
            return base;
        }
        let jitter = self.jitter.min(1.0);
        let factor = 1.0 + rng.gen_range(-jitter..=jitter);
        base * factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mean_time_has_latency_floor() {
        let net = NetworkModel::ethernet_10baset();
        assert!(net.mean_time_us(0) >= net.latency_us);
    }

    #[test]
    fn mean_time_is_monotone_in_size() {
        let net = NetworkModel::ethernet_10baset();
        assert!(net.mean_time_us(10_000) > net.mean_time_us(100));
    }

    #[test]
    fn presets_are_ordered_by_speed_for_bulk_transfers() {
        let bytes = 1_000_000;
        let isdn = NetworkModel::isdn().mean_time_us(bytes);
        let enet = NetworkModel::ethernet_10baset().mean_time_us(bytes);
        let atm = NetworkModel::atm155().mean_time_us(bytes);
        let san = NetworkModel::san().mean_time_us(bytes);
        assert!(isdn > enet && enet > atm && atm > san);
    }

    #[test]
    fn latency_dominates_for_small_messages_on_fast_networks() {
        // The bandwidth-to-latency tradeoff the paper's intro describes:
        // ISDN→ATM changes the ratio by more than an order of magnitude.
        let isdn = NetworkModel::isdn();
        let atm = NetworkModel::atm155();
        let small_ratio = isdn.mean_time_us(64) / atm.mean_time_us(64);
        let big_ratio = isdn.mean_time_us(1_000_000) / atm.mean_time_us(1_000_000);
        assert!(big_ratio / small_ratio > 10.0);
    }

    #[test]
    fn jitter_is_bounded_and_seeded() {
        let net = NetworkModel::ethernet_10baset();
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..1000 {
            let t = net.sample_time_us(1000, &mut rng);
            let mean = net.mean_time_us(1000);
            assert!(t >= mean * (1.0 - net.jitter) - 1e-9);
            assert!(t <= mean * (1.0 + net.jitter) + 1e-9);
        }
        // Same seed → same sequence.
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        assert_eq!(
            net.sample_time_us(500, &mut a).to_bits(),
            net.sample_time_us(500, &mut b).to_bits()
        );
    }

    #[test]
    fn zero_jitter_is_exact() {
        let mut net = NetworkModel::san();
        net.jitter = 0.0;
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            net.sample_time_us(100, &mut rng).to_bits(),
            net.mean_time_us(100).to_bits()
        );
    }

    #[test]
    fn extreme_jitter_never_goes_negative() {
        let mut net = NetworkModel::ethernet_10baset();
        net.jitter = 1.5; // would allow a negative multiplier without the clamp
        let mut rng = StdRng::seed_from_u64(9);
        for bytes in [0, 1, 100, 10_000, 1_000_000] {
            for _ in 0..500 {
                assert!(
                    net.sample_time_us(bytes, &mut rng) >= 0.0,
                    "negative time for {bytes} bytes"
                );
            }
        }
    }

    #[test]
    fn sampled_time_is_non_negative_for_all_presets() {
        let presets = [
            NetworkModel::isdn(),
            NetworkModel::ethernet_10baset(),
            NetworkModel::atm155(),
            NetworkModel::san(),
        ];
        let mut rng = StdRng::seed_from_u64(13);
        for net in &presets {
            for bytes in [0, 64, 4_096, 1_000_000] {
                for _ in 0..200 {
                    assert!(
                        net.sample_time_us(bytes, &mut rng) >= 0.0,
                        "{} produced negative time",
                        net.name
                    );
                }
            }
        }
    }
}
