//! What the benchmark declares: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` is rendered
//! from these tables (`--print-benchmark-json`) and the smoke test fails if
//! the committed file differs, so the declaration has one source.

use std::collections::BTreeMap;

/// Seed used when `--seed` is absent; `expected/seed-1.json` pins it.
pub const DEFAULT_SEED: u64 = 1;

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// Which clock a number is read from. Simulated numbers and counts are
/// deterministic per seed and compare exactly; host numbers carry noise.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Clock {
    /// Wall-clock of this machine: what the tool costs.
    Host,
    /// The simulated clock: what the modelled system does.
    Sim,
    /// An event count or a ratio of counts.
    Count,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct WorkloadDecl {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub clock: Clock,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub clock: Clock,
}

pub const WORKLOADS: [WorkloadDecl; 5] = [
    WorkloadDecl {
        name: "pipeline_apps",
        why: "what a Coign user does: the whole tool chain per scenario; interception, sizing, classifier, logger, RTE and transport do the work, min-cut almost none",
    },
    WorkloadDecl {
        name: "partition_scale",
        why: "icc, analysis, sweep and flow do all the work and profiling none; cold solves beside warm-started chains, on client-heavy and server-heavy graphs",
    },
    WorkloadDecl {
        name: "serve_steady",
        why: "the DES fast path (event agenda, link batcher, session pool) at 70% of measured capacity, where latency means something; no faults, no telemetry",
    },
    WorkloadDecl {
        name: "serve_degraded",
        why: "the same DES used differently: machine death, loss, spikes, retry/backoff, replica failover and the timeline recorder all run, none of which run in serve_steady",
    },
    WorkloadDecl {
        name: "explore_recovery",
        why: "the real RTE, informer, transport, health and recovery fault path as thousands of short runs rather than one long one",
    },
];

use Better::{Higher, Lower};
use Clock::{Count, Host, Sim};

#[rustfmt::skip]
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25, clock: Host },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Lower, bound: 0.25, clock: Host },
    EndToEnd { name: "round_ms_p50", unit: "ms", better: Lower, bound: 0.25, clock: Host },
    EndToEnd { name: "work_per_s", unit: "1/s", better: Higher, bound: 0.25, clock: Host },
    EndToEnd { name: "sim_time_ms", unit: "ms", better: Lower, bound: 0.10, clock: Sim },
    EndToEnd { name: "sim_quality_pct", unit: "%", better: Higher, bound: 0.05, clock: Sim },
];

const fn host(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        clock: Host,
    }
}
const fn sim(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        clock: Sim,
    }
}
const fn count(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        clock: Count,
    }
}

/// Every per-layer metric, grouped by the end-to-end metric and workload
/// it should move (README.md states the predictions). A traced run prints
/// all of them; a layer a workload does not exercise reads 0 there.
pub const PER_LAYER: &[PerLayer] = &[
    // The harness itself.
    host("bench.trace_overhead_frac", "frac", Lower),
    host("bench.span_coverage_frac", "frac", Higher),
    host("bench.traced_rounds", "count", Higher),
    host("bench.spans", "count", Lower),
    // -> work_per_s @ pipeline_apps.
    host("com.raw_run_us", "us", Lower),
    count("com.calls", "count", Lower),
    host("rte.intercept_us", "us", Lower),
    host("logger.summarize_us", "us", Lower),
    host("profile.overhead_x", "x", Lower),
    host("profile.ns_per_call", "ns", Lower),
    count("marshal.lookups", "count", Lower),
    count("marshal.hit_rate", "frac", Higher),
    count("classifier.classifications", "count", Lower),
    count("classifier.instances", "count", Lower),
    host("classifier.encode_us", "us", Lower),
    count("profile.edges", "count", Lower),
    count("profile.bytes", "B", Lower),
    host("profile.encode_us", "us", Lower),
    host("rewriter.instrument_us", "us", Lower),
    host("rewriter.accumulate_us", "us", Lower),
    host("rewriter.realize_us", "us", Lower),
    count("rewriter.image_bytes", "B", Lower),
    host("runtime.profile_us", "us", Lower),
    host("analysis.choose_us", "us", Lower),
    host("analysis.constraints_us", "us", Lower),
    host("runtime.default_run_us", "us", Lower),
    host("runtime.distributed_run_us", "us", Lower),
    count("rte.cross_machine_calls", "count", Lower),
    count("transport.messages", "count", Lower),
    count("transport.bytes", "B", Lower),
    host("obs.trace_overhead_frac", "frac", Lower),
    host("runtime.jobs2_speedup_x", "x", Higher),
    host("pipeline.paper_round_ms", "ms", Lower),
    host("pipeline.gen_round_ms", "ms", Lower),
    sim("pipeline.comm_savings_pct", "%", Higher),
    sim("pipeline.predict_err_pct", "%", Lower),
    // -> work_per_s @ partition_scale.
    count("icc.nodes", "count", Lower),
    count("icc.edges", "count", Lower),
    host("icc.build_us", "us", Lower),
    host("analysis.analyze_us", "us", Lower),
    host("analysis.dinic_us", "us", Lower),
    host("flow.lift_to_front_us", "us", Lower),
    host("flow.dinic_us", "us", Lower),
    count("flow.mincut_invocations", "count", Lower),
    host("sweep.cold_us", "us", Lower),
    host("sweep.warm_us", "us", Lower),
    host("sweep.warm_speedup_x", "x", Higher),
    count("sweep.distinct_partitions", "count", Higher),
    host("recovery.warm_solve_us", "us", Lower),
    host("multiway.place_us", "us", Lower),
    host("multiway.replicated_place_us", "us", Lower),
    sim("multiway.refine_gain_us", "us", Higher),
    count("multiway.replicas", "count", Higher),
    host("analysis.analyze_100x_us", "us", Lower),
    // -> work_per_s @ serve_steady and serve_degraded.
    host("serve.ns_per_call", "ns", Lower),
    count("serve.calls", "count", Lower),
    count("serve.remote_messages", "count", Lower),
    count("serve.batches", "count", Lower),
    count("batch.mean_size", "count", Higher),
    count("batch.window_flushes", "count", Lower),
    count("batch.link_free_flushes", "count", Lower),
    count("serve.pool_hit_rate", "frac", Higher),
    count("serve.queue_peak", "count", Lower),
    sim("serve.link_util_max", "frac", Lower),
    sim("serve.offered_util", "frac", Higher),
    host("clock.eventqueue_ns_per_op", "ns", Lower),
    host("batch.enqueue_ns_per_msg", "ns", Lower),
    host("serve.no_batch_x", "x", Higher),
    host("obs.timeseries_overhead_frac", "frac", Lower),
    host("obs.serve_trace_overhead_frac", "frac", Lower),
    host("serve.jobs2_speedup_x", "x", Higher),
    sim("serve.sim_p50_ms", "ms", Lower),
    sim("serve.sim_p99_ms", "ms", Lower),
    sim("serve.sim_capacity_sps", "1/s", Higher),
    // -> sim_time_ms @ serve_steady (model changes only): the rate ladder.
    sim("serve.sim_p99_ms_u50", "ms", Lower),
    sim("serve.sim_p99_ms_u70", "ms", Lower),
    sim("serve.sim_p99_ms_u90", "ms", Lower),
    sim("serve.sim_p99_ms_saturated", "ms", Lower),
    // -> work_per_s and sim_quality_pct @ serve_degraded only.
    count("faults.timeouts", "count", Lower),
    count("faults.retries", "count", Lower),
    count("faults.drops", "count", Lower),
    count("faults.failed_calls", "count", Lower),
    sim("faults.wasted_sim_ms", "ms", Lower),
    host("faults.layer_x", "x", Lower),
    count("serve.failovers", "count", Higher),
    count("serve.replica_served", "count", Higher),
    count("serve.recovery_epochs", "count", Lower),
    sim("serve.sim_availability", "frac", Higher),
    sim("serve.sim_p99_ms_before", "ms", Lower),
    sim("serve.sim_p99_ms_during", "ms", Lower),
    sim("serve.sim_p99_ms_after", "ms", Lower),
    host("timeseries.record_ns_per_event", "ns", Lower),
    sim("serve.sim_link_share", "frac", Lower),
    sim("serve.sim_compute_share", "frac", Higher),
    // -> work_per_s @ explore_recovery.
    host("explore.run_us", "us", Lower),
    count("explore.interleavings", "count", Higher),
    count("explore.violations", "count", Lower),
    host("explore.jobs2_speedup_x", "x", Higher),
    host("recovery.run_us", "us", Lower),
    count("recovery.recoveries", "count", Lower),
    count("recovery.warm_solves", "count", Higher),
    count("recovery.cold_solves", "count", Lower),
    count("recovery.migrations", "count", Lower),
    count("recovery.migrated_bytes", "B", Lower),
    count("recovery.redelivered_calls", "count", Lower),
    count("recovery.double_executions", "count", Lower),
    host("transport.faulty_run_us", "us", Lower),
    count("transport.retries", "count", Lower),
    count("transport.timeouts", "count", Lower),
    count("health.transitions", "count", Lower),
];

/// The metric values one run reports, by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Renders `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}\n",
            w.name, w.why
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            m.name,
            m.unit,
            m.better.name(),
            m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}\n",
            m.name,
            m.unit,
            m.better.name()
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders a number with all its digits (shortest text that reads back to
/// the same `f64`); non-finite values, which no metric should take, as 0.
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0".to_string()
    }
}

/// Renders the result object the run prints as its last line, from
/// `(name, value, unit)` rows.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    rows: &[(&str, f64, &str)],
) -> String {
    let metrics = rows
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*value)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{metrics}}}}}"
    )
}
