//! Metrics registry: counters, gauges, and exponential-bucket histograms.
//!
//! The registry absorbs the workspace's previously ad-hoc counters
//! (`FaultStats`, marshal-cache hits/misses, drift-monitor fires,
//! warm/cold sweep solve counts) behind one namespace. Handles returned by
//! [`Registry::counter`]/[`Registry::gauge`]/[`Registry::histogram`] are
//! cheap `Arc`-backed clones whose updates are lock-free atomics, so hot
//! paths pay one atomic add per observation.
//!
//! Two expositions are provided: a Prometheus-style text format
//! ([`Registry::render_prometheus`]) and a JSON snapshot
//! ([`Registry::snapshot_json`]). Both render metrics in sorted name
//! order, so output is deterministic.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter handle.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle holding one `f64` value.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

struct HistCore {
    /// Upper bounds of the finite buckets, strictly increasing. One extra
    /// overflow (`+Inf`) bucket follows implicitly.
    bounds: Vec<u64>,
    /// Per-bucket (non-cumulative) observation counts; `bounds.len() + 1`
    /// entries, the last being the overflow bucket.
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

/// A histogram handle.
#[derive(Clone)]
pub struct Histogram(Arc<HistCore>);

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("bounds", &self.bounds())
            .field("counts", &self.bucket_counts())
            .field("sum", &self.sum())
            .field("count", &self.count())
            .finish()
    }
}

impl Histogram {
    /// Creates a free-standing histogram with the given finite bucket
    /// bounds (strictly increasing). Registry-owned histograms come from
    /// [`Registry::histogram`]; this constructor serves callers that
    /// aggregate off-registry — e.g. per-shard latency histograms merged
    /// with [`Histogram::merge_from`] before publication.
    pub fn with_bounds(bounds: Vec<u64>) -> Histogram {
        Histogram::new(bounds)
    }

    fn new(bounds: Vec<u64>) -> Histogram {
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistCore {
            bounds,
            buckets,
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }))
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        let core = &self.0;
        let idx = core
            .bounds
            .partition_point(|bound| value > *bound)
            .min(core.bounds.len());
        core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(value, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// The finite bucket upper bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.0.bounds
    }

    /// Per-bucket (non-cumulative) counts; the final entry is the overflow
    /// bucket.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Estimates the `q`-quantile (`0.0 ≤ q ≤ 1.0`) by linear interpolation
    /// within the bucket containing the target rank.
    ///
    /// Bucket `k` covers `(bounds[k-1], bounds[k]]` (bucket 0 covers
    /// `[0, bounds[0]]`), so the estimate interpolates between those edges
    /// under a uniform-within-bucket assumption — the usual
    /// Prometheus-style `histogram_quantile` estimator. With exponential
    /// bounds the worst-case relative error is the bucket width; callers
    /// who need tighter tails should register finer bounds.
    ///
    /// Observations in the overflow bucket clamp to the largest finite
    /// bound. An empty histogram reports 0; `q` outside `[0, 1]` (including
    /// NaN) is clamped rather than extrapolated. Use
    /// `Histogram::try_quantile` to distinguish "empty"
    /// from "p-whatever is 0".
    pub fn quantile(&self, q: f64) -> f64 {
        self.try_quantile(q).unwrap_or(0.0)
    }

    /// [`quantile`](Histogram::quantile) that reports `None` on an empty
    /// histogram instead of a fabricated 0.
    fn try_quantile(&self, q: f64) -> Option<f64> {
        quantile_from_buckets(self.bounds(), &self.bucket_counts(), q)
    }

    /// Folds another histogram's observations into this one by summing
    /// per-bucket counts. Bucket addition is commutative and associative,
    /// so merging per-shard histograms in any order yields identical
    /// counts — the property the serving harness's determinism rests on.
    ///
    /// Both histograms must have identical bounds.
    pub fn merge_from(&self, other: &Histogram) {
        assert_eq!(
            self.bounds(),
            other.bounds(),
            "cannot merge histograms with different bucket bounds"
        );
        for (mine, theirs) in self.0.buckets.iter().zip(other.0.buckets.iter()) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.0.sum.fetch_add(other.sum(), Ordering::Relaxed);
        self.0.count.fetch_add(other.count(), Ordering::Relaxed);
    }
}

/// Quantile estimation over raw bucket counts, shared by [`Histogram`]
/// and the windowed snapshots in [`crate::timeseries`] (whose per-window
/// deltas are plain count vectors, not atomic histograms).
///
/// `counts` holds `bounds.len() + 1` non-cumulative entries, the last
/// being the overflow bucket. Returns `None` when every bucket is empty;
/// `q` is clamped into `[0, 1]` (NaN clamps to 0) before interpolating.
pub fn quantile_from_buckets(bounds: &[u64], counts: &[u64], q: f64) -> Option<f64> {
    let count: u64 = counts.iter().sum();
    if count == 0 {
        return None;
    }
    let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
    let target = q * count as f64;
    let mut cumulative = 0u64;
    for (idx, &n) in counts.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let next = cumulative + n;
        if (next as f64) >= target {
            if idx >= bounds.len() {
                // Overflow bucket: no finite upper edge to interpolate
                // toward — clamp.
                return Some(bounds.last().copied().unwrap_or(0) as f64);
            }
            let lower = if idx == 0 { 0 } else { bounds[idx - 1] } as f64;
            let upper = bounds[idx] as f64;
            let fraction = (target - cumulative as f64) / n as f64;
            return Some(lower + fraction.clamp(0.0, 1.0) * (upper - lower));
        }
        cumulative = next;
    }
    Some(bounds.last().copied().unwrap_or(0) as f64)
}

/// Exponential bucket bounds mirroring the paper's ICC message-size
/// buckets: `base`, `2·base`, `4·base`, … for `count` bounds (saturating).
pub fn exponential_bounds(base: u64, count: u32) -> Vec<u64> {
    let mut bounds = Vec::with_capacity(count as usize);
    let mut bound = base;
    for _ in 0..count {
        bounds.push(bound);
        bound = bound.saturating_mul(2);
    }
    bounds
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// The metrics registry: a namespace of counters, gauges, and histograms.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Returns the counter with this name, creating it at zero if absent.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock();
        inner.counters.entry(name.to_string()).or_default().clone()
    }

    /// Returns the gauge with this name, creating it at zero if absent.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock();
        inner.gauges.entry(name.to_string()).or_default().clone()
    }

    /// Returns the histogram with this name, creating it with the given
    /// finite bucket bounds if absent. Bounds of an existing histogram are
    /// not altered.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        let mut inner = self.inner.lock();
        inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds.to_vec()))
            .clone()
    }

    /// Current value of a counter, if it exists.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.inner.lock().counters.get(name).map(Counter::value)
    }

    /// Names of all registered counters, sorted.
    pub fn counter_names(&self) -> Vec<String> {
        self.inner.lock().counters.keys().cloned().collect()
    }

    /// Renders every metric in the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let inner = self.inner.lock();
        let mut out = String::new();
        for (name, counter) in &inner.counters {
            out.push_str(&format!(
                "# TYPE {name} counter\n{name} {}\n",
                counter.value()
            ));
        }
        for (name, gauge) in &inner.gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", gauge.value()));
        }
        for (name, hist) in &inner.histograms {
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let counts = hist.bucket_counts();
            let mut cumulative = 0u64;
            for (bound, count) in hist.bounds().iter().zip(&counts) {
                cumulative += count;
                out.push_str(&format!("{name}_bucket{{le=\"{bound}\"}} {cumulative}\n"));
            }
            out.push_str(&format!(
                "{name}_bucket{{le=\"+Inf\"}} {}\n{name}_sum {}\n{name}_count {}\n",
                hist.count(),
                hist.sum(),
                hist.count()
            ));
        }
        out
    }

    /// Renders every metric as one JSON object:
    /// `{"counters":{..},"gauges":{..},"histograms":{..}}`. Histograms
    /// carry their finite bounds, per-bucket counts (last entry =
    /// overflow), sum, and count.
    pub fn snapshot_json(&self) -> String {
        let inner = self.inner.lock();
        let mut out = String::from("{\"counters\":{");
        for (i, (name, counter)) in inner.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n\"{name}\":{}", counter.value()));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, gauge)) in inner.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n\"{name}\":{}", gauge.value()));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, hist)) in inner.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let bounds: Vec<String> = hist.bounds().iter().map(u64::to_string).collect();
            let counts: Vec<String> = hist.bucket_counts().iter().map(u64::to_string).collect();
            out.push_str(&format!(
                "\n\"{name}\":{{\"bounds\":[{}],\"counts\":[{}],\"sum\":{},\"count\":{}}}",
                bounds.join(","),
                counts.join(","),
                hist.sum(),
                hist.count()
            ));
        }
        out.push_str("}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn counters_and_gauges_register_and_update() {
        let registry = Registry::new();
        let calls = registry.counter("coign_calls_total");
        calls.add(1);
        calls.add(4);
        // Fetching the same name yields the same underlying cell.
        registry.counter("coign_calls_total").add(1);
        assert_eq!(registry.counter_value("coign_calls_total"), Some(6));
        registry.gauge("coign_drift_tv").set(0.25);
        assert_eq!(registry.gauge("coign_drift_tv").value(), 0.25);
        assert_eq!(registry.counter_value("missing"), None);
    }

    #[test]
    fn exponential_histogram_mirrors_paper_buckets() {
        let bounds = exponential_bounds(64, 32);
        assert_eq!(bounds[0], 64);
        assert_eq!(bounds[1], 128);
        assert_eq!(bounds[31], 64u64 << 31);
        let registry = Registry::new();
        let hist = registry.histogram("coign_icc_message_bytes", &bounds);
        hist.observe(1); // first bucket (<= 64)
        hist.observe(64); // still first bucket (bucket k is (base·2^(k-1), base·2^k])
        hist.observe(65); // second bucket
        hist.observe(u64::MAX); // overflow bucket
        let counts = hist.bucket_counts();
        assert_eq!(counts[0], 2);
        assert_eq!(counts[1], 1);
        assert_eq!(counts[32], 1);
        assert_eq!(hist.count(), 4);
    }

    #[test]
    fn prometheus_exposition_is_sorted_and_cumulative() {
        let registry = Registry::new();
        registry.counter("b_total").add(2);
        registry.counter("a_total").add(1);
        let hist = registry.histogram("h_bytes", &[10, 100]);
        hist.observe(5);
        hist.observe(50);
        hist.observe(500);
        let text = registry.render_prometheus();
        let a = text.find("a_total").unwrap();
        let b = text.find("b_total").unwrap();
        assert!(a < b, "metrics must render in sorted order");
        assert!(text.contains("h_bytes_bucket{le=\"10\"} 1\n"));
        assert!(text.contains("h_bytes_bucket{le=\"100\"} 2\n"));
        assert!(text.contains("h_bytes_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("h_bytes_sum 555\n"));
        assert!(text.contains("h_bytes_count 3\n"));
    }

    #[test]
    fn json_snapshot_parses_and_round_trips_values() {
        let registry = Registry::new();
        registry.counter("coign_messages_total").add(464);
        registry.gauge("g").set(1.5);
        registry.histogram("h", &[64]).observe(70);
        let snap = registry.snapshot_json();
        let doc = Json::parse(&snap).expect("snapshot parses");
        assert_eq!(
            doc.get("counters")
                .unwrap()
                .get("coign_messages_total")
                .unwrap()
                .as_u64(),
            Some(464)
        );
        assert_eq!(
            doc.get("gauges").unwrap().get("g").unwrap().as_f64(),
            Some(1.5)
        );
        let hist = doc.get("histograms").unwrap().get("h").unwrap();
        assert_eq!(hist.get("count").unwrap().as_u64(), Some(1));
        assert_eq!(hist.get("counts").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn quantiles_of_a_uniform_distribution_interpolate() {
        // 0..1000 uniformly into linear buckets: every estimate should land
        // within one bucket width of the exact quantile.
        let hist = Histogram::new((1..=10).map(|k| k * 100).collect());
        for v in 0..1000u64 {
            hist.observe(v);
        }
        for (q, exact) in [(0.5, 500.0), (0.95, 950.0), (0.99, 990.0)] {
            let est = hist.quantile(q);
            assert!(
                (est - exact).abs() <= 100.0 + 1.0,
                "uniform q={q}: estimate {est} too far from {exact}"
            );
        }
        // Within a single bucket the estimator is exact up to the uniform
        // assumption, which holds here: p50 of 0..1000 is 500.
        assert!((hist.quantile(0.5) - 500.0).abs() < 2.0);
    }

    #[test]
    fn quantiles_of_exponential_buckets_bound_relative_error() {
        // A deterministic geometric-ish distribution over exponential
        // buckets: exact quantiles computed from the raw sample must be
        // bracketed by the containing bucket's edges.
        let bounds = exponential_bounds(64, 16);
        let hist = Histogram::new(bounds.clone());
        let mut samples = Vec::new();
        let mut x = 1u64;
        for i in 0..4096u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = 1 + (x >> 33) % (64 << (i % 8)); // spread across 8 octaves
            samples.push(v);
            hist.observe(v);
        }
        samples.sort_unstable();
        for q in [0.5, 0.95, 0.99] {
            let exact = samples[((q * samples.len() as f64) as usize).min(samples.len() - 1)];
            let est = hist.quantile(q);
            // The containing bucket spans [lower, 2·lower], so the estimate
            // can be off by at most one octave either way.
            assert!(
                est >= exact as f64 / 2.0 && est <= exact as f64 * 2.0,
                "q={q}: estimate {est} outside octave of exact {exact}"
            );
        }
    }

    #[test]
    fn quantile_edge_cases() {
        let hist = Histogram::new(exponential_bounds(64, 4));
        assert_eq!(hist.quantile(0.5), 0.0, "empty histogram reports 0");
        hist.observe(u64::MAX); // overflow bucket only
        assert_eq!(hist.quantile(0.99), (64u64 << 3) as f64, "overflow clamps");
        // Single finite observation: every quantile lands in its bucket.
        let one = Histogram::new(vec![10, 20, 30]);
        one.observe(15);
        let p50 = one.quantile(0.5);
        assert!(p50 > 10.0 && p50 <= 20.0);
        assert!(one.quantile(1.0) <= 20.0);
    }

    #[test]
    fn try_quantile_distinguishes_empty_from_zero() {
        let hist = Histogram::new(vec![10, 20]);
        assert_eq!(hist.try_quantile(0.5), None, "empty histogram is None");
        hist.observe(0);
        let p = hist.try_quantile(0.5).expect("one observation");
        assert!((0.0..=10.0).contains(&p));
    }

    #[test]
    fn quantile_clamps_q_outside_unit_interval() {
        let hist = Histogram::new(vec![10, 20, 30]);
        for v in [5, 15, 25] {
            hist.observe(v);
        }
        // Out-of-range q clamps to the endpoints instead of extrapolating.
        assert_eq!(hist.quantile(-3.0), hist.quantile(0.0));
        assert_eq!(hist.quantile(7.5), hist.quantile(1.0));
        assert!(hist.quantile(1.0) <= 30.0);
        // NaN is not a probability: it clamps to the low endpoint, never
        // poisons the estimate.
        assert_eq!(hist.quantile(f64::NAN), hist.quantile(0.0));
        assert!(hist.quantile(f64::NAN).is_finite());
    }

    #[test]
    fn merge_from_sums_counts_and_is_order_independent() {
        let bounds = exponential_bounds(64, 8);
        let build = |values: &[u64]| {
            let h = Histogram::new(bounds.clone());
            for &v in values {
                h.observe(v);
            }
            h
        };
        let a = build(&[1, 100, 5000]);
        let b = build(&[64, 64, 900_000]);
        let ab = build(&[]);
        ab.merge_from(&a);
        ab.merge_from(&b);
        let ba = build(&[]);
        ba.merge_from(&b);
        ba.merge_from(&a);
        assert_eq!(ab.bucket_counts(), ba.bucket_counts());
        assert_eq!(ab.sum(), a.sum() + b.sum());
        assert_eq!(ab.count(), 6);
    }

    #[test]
    fn snapshot_is_deterministic() {
        let build = || {
            let registry = Registry::new();
            registry.counter("z").add(1);
            registry.counter("a").add(2);
            registry
                .histogram("h", &exponential_bounds(64, 8))
                .observe(100);
            registry.snapshot_json()
        };
        assert_eq!(build(), build());
    }
}
