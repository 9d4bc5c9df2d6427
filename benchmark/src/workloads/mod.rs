//! The five workloads. Names are permanent: later issues compare against
//! numbers recorded under them.

use crate::harness::{
    cores, highest_supported_percentile, median, quantile, Fallible, Harness, Rounds,
};

mod explore_recovery;
mod partition_scale;
mod pipeline_apps;
mod serve;

/// Runs one workload by name; `None` for an unknown name.
pub fn run(name: &str, h: &Harness) -> Option<Fallible<()>> {
    Some(match name {
        "pipeline_apps" => pipeline_apps::run(h),
        "partition_scale" => partition_scale::run(h),
        "serve_steady" => serve::run_steady(h),
        "serve_degraded" => serve::run_degraded(h),
        "explore_recovery" => explore_recovery::run(h),
        _ => return None,
    })
}

/// The two simulated end-to-end figures of a workload, read off the
/// warm-up round (deterministic per seed, independent of run length).
pub struct Modelled {
    /// Simulated time of the workload's modelled unit of work, ms.
    pub sim_time_ms: f64,
    /// The modelled benefit the user gets, percent.
    pub sim_quality_pct: f64,
}

/// Records every end-to-end metric of an untraced run.
pub fn report_end_to_end<R>(h: &Harness, rounds: &Rounds<R>, work_per_round: u64, m: &Modelled) {
    let total_s: f64 = rounds.untraced_s.iter().sum();
    let samples = rounds.untraced_s.len();
    let fastest_s = rounds
        .untraced_s
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    let median_s = median(&rounds.untraced_s);
    let tail = match highest_supported_percentile(samples) {
        Some(p) => format!(
            "p{:.0} {:.3} ms",
            p * 100.0,
            quantile(&rounds.untraced_s, p) * 1e3
        ),
        None => "no percentile above the median (under 20 samples)".to_string(),
    };
    println!(
        "timed rounds: {samples} in {total_s:.3} s, fastest {:.3} ms, median {:.3} ms, {tail}",
        fastest_s * 1e3,
        median_s * 1e3
    );
    println!(
        "round times, ms: {}",
        rounds
            .untraced_s
            .iter()
            .map(|s| format!("{:.1}", s * 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    );
    h.set("setup_s", rounds.setup_s);
    h.set("peak_rss_mb", rounds.peak_rss_mb);
    // Both timing figures are taken at the median round: over twenty
    // same-code runs per workload the median round moved 3-14 % (IQR over
    // the median) and the fastest round 8-18 %, because this box has fast
    // stretches as well as slow ones.
    h.set("round_ms_p50", median_s * 1e3);
    h.set("work_per_s", work_per_round as f64 / median_s);
    h.set("sim_time_ms", m.sim_time_ms);
    h.set("sim_quality_pct", m.sim_quality_pct);
}

/// Records the harness's own per-layer metrics of a traced run.
pub fn report_tracing<R>(h: &Harness, rounds: &Rounds<R>) {
    let by_round = h.spans.self_ns_by_round();
    let (mut root_self, mut total) = (0u64, 0u64);
    for by_name in by_round.values() {
        root_self += by_name.get("round").copied().unwrap_or(0);
        total += by_name.values().sum::<u64>();
    }
    h.set(
        "bench.trace_overhead_frac",
        median(&rounds.traced_s) / median(&rounds.untraced_s) - 1.0,
    );
    let coverage = 1.0 - root_self as f64 / total.max(1) as f64;
    h.check(coverage >= 0.95, || {
        format!("stage spans cover only {coverage:.3} of the traced rounds")
    });
    h.set("bench.span_coverage_frac", coverage);
    h.set("bench.traced_rounds", rounds.traced_s.len() as f64);
    h.set("bench.spans", h.spans.len() as f64);
}

/// A `*_jobs2_speedup_x` scaling probe: one worker's time over two workers'.
/// It means nothing on a one-core box, where it reads 0 and prints as
/// `unsupported`.
pub fn jobs2_speedup(one_s: f64, two_s: f64) -> f64 {
    if cores() >= 2 {
        one_s / two_s
    } else {
        0.0
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload did not exercise).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
