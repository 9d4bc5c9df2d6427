//! Usage-drift detection — the paper's "fully automatic" vision (§6).
//!
//! "The lightweight version of the runtime, which relocates component
//! instantiation requests to produce the chosen distribution, could count
//! messages between components with only slight additional overhead. Run
//! time message counts could be compared with related message counts from
//! the profiling scenarios to recognize changes in application usage."
//!
//! [`DriftMonitor`] implements exactly that: it snapshots the profiled
//! message distribution over classification pairs, counts messages during
//! distributed execution (counts only — no parameter walking, preserving
//! the lightweight runtime's low overhead), and reports how far the
//! observed distribution has drifted. When drift exceeds a threshold, Coign
//! "could automatically decide when usage differs significantly from
//! profiled scenarios and silently enable profiling to re-optimize the
//! distribution".

use crate::classifier::ClassificationId;
use crate::profile::IccProfile;
use coign_com::FoldState;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Message-count distribution over classification pairs (order-normalized).
/// Keyed by the runtime's fold hasher: [`DriftMonitor::drift`] sums exact
/// integers, so the map's iteration order never reaches a result.
type PairCounts = HashMap<(ClassificationId, ClassificationId), u64, FoldState>;

fn normalize_pair(
    a: ClassificationId,
    b: ClassificationId,
) -> (ClassificationId, ClassificationId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// The observation window: messages per pair since the last reset.
#[derive(Debug, Default)]
struct Window {
    counts: PairCounts,
    /// Running sum of `counts`.
    total: u64,
}

/// Counts runtime messages and compares them with the profiled baseline.
#[derive(Debug)]
pub struct DriftMonitor {
    baseline: PairCounts,
    baseline_total: u64,
    window: Mutex<Window>,
    /// Latch for [`DriftMonitor::poll_reprofile`]: a threshold crossing
    /// fires the re-profiling signal once, not on every subsequent call.
    tripped: AtomicBool,
    /// Lifetime count of latched fires ([`DriftMonitor::reset`] re-arms the
    /// latch but does not clear this).
    fires: AtomicU64,
}

impl DriftMonitor {
    /// Creates a monitor whose baseline is the profiled distribution.
    pub(crate) fn from_profile(profile: &IccProfile) -> Self {
        let mut baseline = PairCounts::default();
        for (pair, stats) in profile.pair_traffic() {
            *baseline.entry(pair).or_insert(0) += stats.messages;
        }
        let baseline_total = baseline.values().sum();
        DriftMonitor {
            baseline,
            baseline_total,
            window: Mutex::new(Window::default()),
            tripped: AtomicBool::new(false),
            fires: AtomicU64::new(0),
        }
    }

    /// Records one interface call (two messages) between classifications —
    /// invoked by the distribution informer; counts only, no inspection.
    pub(crate) fn record_call(&self, caller: ClassificationId, callee: ClassificationId) {
        let mut window = self.window.lock();
        *window
            .counts
            .entry(normalize_pair(caller, callee))
            .or_insert(0) += 2;
        window.total += 2;
    }

    /// Messages observed so far.
    #[cfg(test)]
    pub(crate) fn observed_messages(&self) -> u64 {
        self.window.lock().total
    }

    /// Resets the observation window (e.g. per execution) and re-arms the
    /// [`DriftMonitor::poll_reprofile`] latch. The window's map is cleared
    /// in place, so a run that fires and resets many times allocates it
    /// once.
    pub(crate) fn reset(&self) {
        let mut window = self.window.lock();
        window.counts.clear();
        window.total = 0;
        drop(window);
        self.tripped.store(false, Ordering::SeqCst);
    }

    /// Drift between the observed and profiled message distributions:
    /// half the L1 distance between the two normalized distributions
    /// (total-variation distance), in `[0, 1]`.
    ///
    /// 0.0 = the application communicates exactly as profiled;
    /// 1.0 = completely disjoint communication.
    ///
    /// Computed from exact integers, visiting observed pairs only. With
    /// `b`/`B` the baseline counts and `c`/`T` the observed ones, a pair
    /// never observed contributes its whole baseline share `b/B`, and those
    /// shares sum to `1 − Σ_obs b/B`; so
    /// `2·B·T·TV = B·T + Σ_obs (|b·T − c·B| − b·T)`.
    pub fn drift(&self) -> f64 {
        let window = self.window.lock();
        if window.total == 0 || self.baseline_total == 0 {
            // An empty observation window is "no evidence yet", not "fully
            // drifted" — returning 1.0 there would re-fire the re-profiling
            // latch the moment a recovery resets the window, double-counting
            // a single workload shift. Observed traffic against an empty
            // baseline is still full drift.
            return if window.total == 0 { 0.0 } else { 1.0 };
        }
        let (big_b, big_t) = (u128::from(self.baseline_total), u128::from(window.total));
        let (mut distance, mut observed_share) = (0u128, 0u128);
        for (pair, &c) in &window.counts {
            let b = u128::from(self.baseline.get(pair).copied().unwrap_or(0));
            distance += (b * big_t).abs_diff(u128::from(c) * big_b);
            observed_share += b * big_t;
        }
        let twice = big_b * big_t + distance - observed_share;
        twice as f64 / (2 * big_b * big_t) as f64
    }

    /// True when the observed usage has drifted beyond `threshold` —
    /// the signal to silently re-enable profiling.
    pub fn should_reprofile(&self, threshold: f64) -> bool {
        self.drift() > threshold
    }

    /// Latched threshold check: returns `true` exactly once when drift
    /// first exceeds `threshold`, then `false` until [`DriftMonitor::reset`]
    /// re-arms the latch — so the "silently enable profiling" transition
    /// fires a single re-profiling pass, not one per subsequent call.
    pub(crate) fn poll_reprofile(&self, threshold: f64) -> bool {
        if !self.should_reprofile(threshold) {
            return false;
        }
        let fired = !self.tripped.swap(true, Ordering::SeqCst);
        if fired {
            self.fires.fetch_add(1, Ordering::SeqCst);
        }
        fired
    }

    /// Lifetime number of latched re-profiling fires.
    #[cfg(test)]
    fn fire_count(&self) -> u64 {
        self.fires.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coign_com::{Clsid, Iid};

    fn c(n: u32) -> ClassificationId {
        ClassificationId(n)
    }

    fn baseline_profile() -> IccProfile {
        let iid = Iid::from_name("IX");
        let mut p = IccProfile::new();
        p.record_instance(c(1), Clsid::from_name("A"));
        for _ in 0..30 {
            p.record_message(c(1), c(2), iid, 0, 100);
        }
        for _ in 0..10 {
            p.record_message(c(2), c(3), iid, 0, 100);
        }
        p
    }

    #[test]
    fn matching_usage_has_zero_drift() {
        let monitor = DriftMonitor::from_profile(&baseline_profile());
        // Replay the same proportions: 30 pair(1,2) messages → 15 calls.
        for _ in 0..15 {
            monitor.record_call(c(1), c(2));
        }
        for _ in 0..5 {
            monitor.record_call(c(3), c(2)); // direction is normalized away
        }
        assert!(monitor.drift() < 1e-9, "drift {}", monitor.drift());
        assert!(!monitor.should_reprofile(0.1));
    }

    #[test]
    fn shifted_usage_is_detected() {
        let monitor = DriftMonitor::from_profile(&baseline_profile());
        // Usage flipped: all traffic now flows on a pair never profiled.
        for _ in 0..20 {
            monitor.record_call(c(7), c(8));
        }
        assert!(monitor.drift() > 0.9, "drift {}", monitor.drift());
        assert!(monitor.should_reprofile(0.25));
    }

    #[test]
    fn partial_shift_is_proportional() {
        let monitor = DriftMonitor::from_profile(&baseline_profile());
        // Half the observed traffic matches the profile's dominant pair,
        // half is new.
        for _ in 0..10 {
            monitor.record_call(c(1), c(2));
        }
        for _ in 0..10 {
            monitor.record_call(c(7), c(8));
        }
        let drift = monitor.drift();
        assert!((0.3..0.8).contains(&drift), "drift {drift}");
    }

    #[test]
    fn empty_observation_means_no_drift_yet() {
        let monitor = DriftMonitor::from_profile(&baseline_profile());
        // Nothing observed yet — don't trigger re-profiling on startup.
        assert!(monitor.drift() <= 1.0);
        assert_eq!(monitor.observed_messages(), 0);
    }

    #[test]
    fn reset_clears_the_window() {
        let monitor = DriftMonitor::from_profile(&baseline_profile());
        monitor.record_call(c(9), c(9));
        assert!(monitor.observed_messages() > 0);
        monitor.reset();
        assert_eq!(monitor.observed_messages(), 0);
    }

    #[test]
    fn workload_shift_trips_detection_exactly_once() {
        let monitor = DriftMonitor::from_profile(&baseline_profile());
        // Usage matching the profile: the latch never fires.
        for _ in 0..15 {
            monitor.record_call(c(1), c(2));
        }
        for _ in 0..5 {
            monitor.record_call(c(2), c(3));
        }
        assert!(!monitor.poll_reprofile(0.25));
        // A synthetic workload shift: traffic floods an unprofiled pair.
        for _ in 0..200 {
            monitor.record_call(c(7), c(8));
        }
        let fired: Vec<bool> = (0..10).map(|_| monitor.poll_reprofile(0.25)).collect();
        assert!(fired[0], "first poll after the shift must fire");
        assert_eq!(
            fired.iter().filter(|&&b| b).count(),
            1,
            "the latch must fire exactly once"
        );
        // The un-latched query still reports the drifted state.
        assert!(monitor.should_reprofile(0.25));
        // Reset re-arms the latch for the next observation window.
        monitor.reset();
        for _ in 0..20 {
            monitor.record_call(c(7), c(8));
        }
        assert!(monitor.poll_reprofile(0.25));
    }

    #[test]
    fn recovery_reset_does_not_double_count_one_shift() {
        let monitor = DriftMonitor::from_profile(&baseline_profile());
        // A workload shift fires the latch once.
        for _ in 0..200 {
            monitor.record_call(c(7), c(8));
        }
        assert!(monitor.poll_reprofile(0.25));
        assert_eq!(monitor.fire_count(), 1);
        // Recovery resets the window, re-arming the latch. The window is
        // empty now: polling here must NOT fire — that would count the
        // same shift twice.
        monitor.reset();
        assert!(!monitor.poll_reprofile(0.25));
        assert_eq!(monitor.fire_count(), 1);
        // Post-recovery traffic matching the baseline keeps it quiet...
        for _ in 0..15 {
            monitor.record_call(c(1), c(2));
        }
        for _ in 0..5 {
            monitor.record_call(c(2), c(3));
        }
        assert!(!monitor.poll_reprofile(0.25));
        assert_eq!(monitor.fire_count(), 1);
        // ...and only a genuine second shift fires again.
        for _ in 0..500 {
            monitor.record_call(c(7), c(8));
        }
        assert!(monitor.poll_reprofile(0.25));
        assert_eq!(monitor.fire_count(), 2);
    }

    /// The O(baseline) drift this module computed before: total-variation
    /// distance in floating point over the union of baseline and observed
    /// pairs, with the same latch on top. The reference the observed-pair
    /// monitor must agree with, fire for fire.
    struct Reference {
        baseline: PairCounts,
        baseline_total: u64,
        observed: PairCounts,
        tripped: bool,
    }

    impl Reference {
        fn drift(&self) -> f64 {
            let observed_total: u64 = self.observed.values().sum();
            if observed_total == 0 || self.baseline_total == 0 {
                return if observed_total == 0 { 0.0 } else { 1.0 };
            }
            let mut l1 = 0.0;
            let mut keys: std::collections::HashSet<_> = self.baseline.keys().collect();
            keys.extend(self.observed.keys());
            for key in keys {
                let p = *self.baseline.get(key).unwrap_or(&0) as f64 / self.baseline_total as f64;
                let q = *self.observed.get(key).unwrap_or(&0) as f64 / observed_total as f64;
                l1 += (p - q).abs();
            }
            l1 / 2.0
        }

        fn poll(&mut self, threshold: f64) -> bool {
            if self.drift() <= threshold {
                return false;
            }
            !std::mem::replace(&mut self.tripped, true)
        }
    }

    #[test]
    fn observed_pair_poll_fires_exactly_when_the_full_recomputation_does() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        // Offset off the small-denominator rationals a drift can equal:
        // at an exact tie the reference's float sum fell either way,
        // depending on hash order.
        const THRESHOLDS: [f64; 5] = [0.05 + 3e-10, 0.2 + 3e-10, 0.35 + 3e-10, 0.5 + 3e-10, 0.8];
        let iid = Iid::from_name("IX");
        let (mut fires, mut windows) = (0u64, 0u32);
        for case in 0..96 {
            let mut rng = StdRng::seed_from_u64(case);
            // A random baseline over classifications 1..=5; every eighth
            // case profiles nothing at all.
            let mut profile = IccProfile::new();
            if case % 8 != 7 {
                for a in 1..=5 {
                    for b in a..=5 {
                        if rng.gen_bool(0.4) {
                            for _ in 0..rng.gen_range(1..40) {
                                profile.record_message(c(a), c(b), iid, 0, 64);
                            }
                        }
                    }
                }
            }
            let monitor = DriftMonitor::from_profile(&profile);
            let mut reference = Reference {
                baseline: monitor.baseline.clone(),
                baseline_total: monitor.baseline_total,
                observed: PairCounts::default(),
                tripped: false,
            };
            // Candidate pairs: the profiled ones plus two never profiled.
            let mut pairs: Vec<_> = monitor.baseline.keys().copied().collect();
            pairs.sort();
            pairs.extend([(c(1), c(6)), (c(6), c(7))]);
            let weights_for = |rng: &mut StdRng, shifted: bool| -> Vec<u64> {
                pairs
                    .iter()
                    .map(|pair| match monitor.baseline.get(pair) {
                        // As profiled, roughly, unless the window shifted.
                        Some(&b) if !shifted => b + rng.gen_range(0..4u64),
                        None if !shifted => u64::from(rng.gen_bool(0.2)),
                        _ => rng.gen_range(0..20u64),
                    })
                    .collect()
            };
            let mut weights = weights_for(&mut rng, false);
            let mut threshold = THRESHOLDS[rng.gen_range(0..THRESHOLDS.len())];
            for step in 0..600 {
                if rng.gen_bool(0.02) {
                    // A recovery: the window resets and usage may shift.
                    monitor.reset();
                    reference.observed.clear();
                    reference.tripped = false;
                    let shifted = rng.gen_bool(0.5);
                    weights = weights_for(&mut rng, shifted);
                    threshold = THRESHOLDS[rng.gen_range(0..THRESHOLDS.len())];
                    windows += 1;
                } else if rng.gen_bool(0.7) || weights.iter().all(|&w| w == 0) {
                    let total: u64 = weights.iter().sum::<u64>().max(1);
                    let mut pick = rng.gen_range(0..total);
                    let index = weights
                        .iter()
                        .position(|&w| {
                            let hit = pick < w;
                            pick = pick.saturating_sub(w);
                            hit
                        })
                        .unwrap_or(pairs.len() - 1);
                    let (a, b) = pairs[index];
                    // Direction is normalized away; record both ways.
                    if rng.gen_bool(0.5) {
                        monitor.record_call(a, b);
                    } else {
                        monitor.record_call(b, a);
                    }
                    *reference.observed.entry((a, b)).or_insert(0) += 2;
                }
                let expected = reference.drift();
                assert!(
                    (monitor.drift() - expected).abs() < 1e-12,
                    "case {case} step {step}: drift {} vs reference {expected}",
                    monitor.drift()
                );
                // Mostly the window's own threshold; sometimes one just
                // above the current drift, where rounding would show.
                let theta = if rng.gen_bool(0.2) {
                    expected + 1e-7
                } else {
                    threshold
                };
                let fired = monitor.poll_reprofile(theta);
                assert_eq!(
                    fired,
                    reference.poll(theta),
                    "case {case} step {step}: fire differs at threshold {theta}"
                );
                fires += u64::from(fired);
            }
        }
        // The sequences exercise both outcomes, across many windows.
        assert!(fires > 100, "only {fires} fires");
        assert!(windows > 500, "only {windows} windows");
    }

    #[test]
    fn an_exact_tie_with_the_threshold_does_not_fire() {
        // Two equally weighted pairs, and a one-call window on one of them:
        // the drift is exactly one half, so a threshold of one half is not
        // exceeded, whatever order the pairs are visited in.
        let iid = Iid::from_name("IX");
        let mut profile = IccProfile::new();
        for _ in 0..7 {
            profile.record_message(c(1), c(2), iid, 0, 100);
            profile.record_message(c(2), c(3), iid, 0, 100);
        }
        let monitor = DriftMonitor::from_profile(&profile);
        monitor.record_call(c(2), c(1));
        assert_eq!(monitor.drift(), 0.5);
        assert!(!monitor.poll_reprofile(0.5));
        assert!(monitor.poll_reprofile(0.5 - 1e-9));
    }

    #[test]
    fn drift_is_bounded() {
        let monitor = DriftMonitor::from_profile(&IccProfile::new());
        monitor.record_call(c(1), c(2));
        let d = monitor.drift();
        assert!((0.0..=1.0).contains(&d));
    }
}
