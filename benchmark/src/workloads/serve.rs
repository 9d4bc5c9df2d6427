//! `serve_steady` and `serve_degraded`: the fleet-serving DES, used two
//! ways.
//!
//! Both serve a generated application's chosen 10BaseT distribution to a
//! stream of sessions at 70 % of the capacity a saturated probe measures,
//! so latency means something (the repo's older snapshot served a deeply
//! saturated point: p50 ≈ 99 s). Arrivals are open-loop on the simulated
//! clock; the program times each session from its scheduled arrival.
//!
//! `serve_steady` (`gen:42`) is the fast path alone: event agenda, link
//! batcher, session pool; no faults, no telemetry. `serve_degraded`
//! (`gen:3`, whose lint-derived replicas pay for themselves) adds a machine
//! death, message loss, a latency spike, retry/backoff, replica failover
//! and the windowed timeline recorder — none of which run in
//! `serve_steady`, so a fast-path gain that taxes the fault or telemetry
//! path (or the reverse) shows.

use std::cell::{Cell, RefCell};

use super::{jobs2_speedup, ratio, report_end_to_end, report_tracing, Modelled};
use crate::harness::{
    derive_seed, median, min_time, paired_min, time, ErrorSlot, Fallible, Harness, Rounds,
};
use crate::surface::{self, FaultPlan, ServeOptions, ServeReport, ServeSubject, TimeSeries};

/// Sessions per round.
const SESSIONS: u64 = 250_000;
/// Sessions of the saturated capacity probe, the ladder and the ablations.
const PROBE_SESSIONS: u64 = 100_000;
const SHARDS: usize = 4;
/// Offered load as a share of measured capacity.
const UTILIZATION: f64 = 0.70;
/// Latency limit of the steady workload's quality figure: a bucket bound of
/// the program's latency histogram (16 µs · 2¹²), so the share of sessions
/// within it is counted exactly.
const LATENCY_LIMIT_US: u64 = 65_536;
const TIMELINE_WINDOW_US: u64 = 100_000;

struct State {
    subject: ServeSubject,
    /// Saturated-probe sessions per simulated second.
    capacity_sps: f64,
    /// Options of a timed round.
    opts: ServeOptions,
    /// The same load with no faults, replicas or telemetry.
    plain: ServeOptions,
}

/// Deterministic outputs of one round: the summary bytes the program pins
/// in its own golden tests, and the report behind them.
struct Outcome {
    summary: String,
    report: ServeReport,
    series: Option<TimeSeries>,
}

impl PartialEq for Outcome {
    fn eq(&self, other: &Outcome) -> bool {
        self.summary == other.summary
    }
}

fn summary_of(report: &ServeReport) -> String {
    report.summary(false) + &report.summary(true)
}

/// Arrival spacing (µs, per shard) that offers `utilization` of capacity.
fn spacing_for(capacity_sps: f64, utilization: f64) -> u64 {
    (SHARDS as f64 * 1e6 / (utilization * capacity_sps)).round() as u64
}

fn base_options(h: &Harness, sessions: u64) -> ServeOptions {
    ServeOptions {
        sessions,
        shards: SHARDS,
        jobs: 1,
        seed: derive_seed(h.config.seed, "serve", 0),
        ..ServeOptions::default()
    }
}

/// Profiles the subject, measures its saturated capacity, and sets the
/// arrival spacing for the stated utilization.
fn setup_common(h: &Harness, gen_seed: u64) -> Fallible<(ServeSubject, f64, ServeOptions)> {
    let subject = h.op("serve subject", surface::serve_subject(gen_seed))?;
    let saturated = ServeOptions {
        arrival_spacing_us: 1,
        ..base_options(h, h.config.size(PROBE_SESSIONS, PROBE_SESSIONS / 50))
    };
    let probe = h.op("capacity probe", surface::serve_run(&subject, &saturated))?;
    let capacity_sps = probe.sessions_per_sim_sec();
    let plain = ServeOptions {
        arrival_spacing_us: spacing_for(capacity_sps, UTILIZATION),
        ..base_options(h, h.config.size(SESSIONS, SESSIONS / 50))
    };
    Ok((subject, capacity_sps, plain))
}

fn setup_steady(h: &Harness) -> Fallible<State> {
    let (subject, capacity_sps, plain) = setup_common(h, 42)?;
    Ok(State {
        subject,
        capacity_sps,
        opts: plain.clone(),
        plain,
    })
}

fn setup_degraded(h: &Harness) -> Fallible<State> {
    let (subject, capacity_sps, plain) = setup_common(h, 3)?;
    // The fault-free run fixes the horizon the plan is laid over.
    let fault_free = h.op("fault-free run", surface::serve_run(&subject, &plain))?;
    let victims = surface::server_machines(&subject.distribution);
    h.check(!victims.is_empty(), || {
        "gen:3's distribution leaves no server machine to kill".to_string()
    });
    let replicas = surface::replica_router(&subject);
    h.check(replicas.is_some(), || {
        "gen:3 yields no profitable replica for the failover path".to_string()
    });
    // Zero-fault transparency: an empty plan, even with replicas installed,
    // builds no fault state and reproduces the plain summary byte for byte.
    let transparent = ServeOptions {
        faults: FaultPlan::none(),
        replicas: replicas.clone(),
        ..plain.clone()
    };
    let same = h.op("zero-fault run", surface::serve_run(&subject, &transparent))?;
    h.check(summary_of(&same) == summary_of(&fault_free), || {
        "FaultPlan::none() changed the serve summary".to_string()
    });
    let horizon = fault_free.horizon_us;
    // The death lands between 25 % and 30 % of the horizon, by the seed.
    let death_at = horizon / 4 + derive_seed(h.config.seed, "death", 0) % (horizon / 20).max(1);
    let opts = ServeOptions {
        faults: surface::degraded_plan(victims[0], death_at, horizon),
        replicas,
        timeline_window_us: TIMELINE_WINDOW_US,
        ..plain.clone()
    };
    Ok(State {
        subject,
        capacity_sps,
        opts,
        plain,
    })
}

fn round(h: &Harness, s: &State) -> Fallible<Outcome> {
    let (report, series, _) = {
        let _s = h.spans.span("serve.serve");
        h.op("serve", surface::serve_run_traced(&s.subject, &s.opts))?
    };
    h.check(report.sessions == s.opts.sessions, || {
        format!(
            "serve drained {} of {} sessions",
            report.sessions, s.opts.sessions
        )
    });
    Ok(Outcome {
        summary: summary_of(&report),
        report,
        series,
    })
}

fn availability(report: &ServeReport) -> f64 {
    report
        .faults
        .as_ref()
        .map_or(1.0, |f| f.availability(report.calls))
}

/// Checks and metrics the two workloads share.
fn finish(h: &Harness, s: &State, rounds: &Rounds<Outcome>) -> Fallible<()> {
    let report = &rounds.reference.report;
    // No growing backlog: the run ends soon after the last arrival. The
    // sessions still in flight then need a few tail latencies to drain,
    // which only matters at the quick size, where 5 % of the span is short.
    let arrival_span = s.opts.sessions / SHARDS as u64 * s.opts.arrival_spacing_us;
    let allowed = 1.05 * arrival_span as f64 + 4.0 * report.latency_quantile_us(0.99);
    h.check(report.horizon_us as f64 <= allowed, || {
        format!(
            "horizon {} us runs past the arrival span {} us by more than 5 % and four tail \
             latencies: the backlog grows",
            report.horizon_us, arrival_span
        )
    });
    if h.config.traced {
        report_tracing(h, rounds);
        shared_layers(h, s, rounds)?;
    }
    Ok(())
}

pub fn run_steady(h: &Harness) -> Fallible<()> {
    let (state, rounds) = h.run_rounds(setup_steady, round)?;
    finish(h, &state, &rounds)?;
    let report = &rounds.reference.report;
    h.check(report.faults.is_none(), || {
        "a run without a fault plan carries a fault report".to_string()
    });
    if !h.config.traced {
        let modelled = Modelled {
            sim_time_ms: report.latency_quantile_us(0.99) / 1e3,
            sim_quality_pct: 100.0 * surface::share_within(report, LATENCY_LIMIT_US),
        };
        report_end_to_end(h, &rounds, report.calls, &modelled);
        return Ok(());
    }
    rate_ladder(h, &state)
}

pub fn run_degraded(h: &Harness) -> Fallible<()> {
    let (state, rounds) = h.run_rounds(setup_degraded, round)?;
    finish(h, &state, &rounds)?;
    let report = &rounds.reference.report;
    let available = availability(report);
    h.check(available >= 0.85, || {
        format!("availability {available:.4} fell through the 0.85 floor")
    });
    let faults = report.faults.clone().unwrap_or_default();
    h.check(
        !faults.dead_machines.is_empty() && faults.failovers > 0 && faults.replica_served > 0,
        || {
            format!(
                "the machine death was not declared or not failed over: dead={:?} failovers={} \
                 replica_served={}",
                faults.dead_machines, faults.failovers, faults.replica_served
            )
        },
    );
    if !h.config.traced {
        let modelled = Modelled {
            sim_time_ms: report.latency_quantile_us(0.99) / 1e3,
            sim_quality_pct: 100.0 * available,
        };
        report_end_to_end(h, &rounds, report.calls, &modelled);
        return Ok(());
    }
    fault_layers(h, &state, &rounds.reference)
}

/// Per-layer metrics both serve workloads report: the DES's counters, the
/// agenda and batcher probed at the sizes this load produces, and the
/// ablations the program's public options allow.
fn shared_layers(h: &Harness, s: &State, rounds: &Rounds<Outcome>) -> Fallible<()> {
    let report = &rounds.reference.report;
    let round_s = median(&rounds.untraced_s);
    h.set(
        "serve.ns_per_call",
        ratio(round_s * 1e9, report.calls as f64),
    );
    h.set("serve.calls", report.calls as f64);
    h.set("serve.remote_messages", report.remote_messages as f64);
    h.set("serve.batches", report.batches as f64);
    h.set("batch.mean_size", report.mean_batch_size());
    h.set("batch.window_flushes", report.window_flushes as f64);
    h.set("batch.link_free_flushes", report.link_free_flushes as f64);
    h.set(
        "serve.pool_hit_rate",
        ratio(
            report.pool_hits as f64,
            (report.pool_hits + report.pool_misses) as f64,
        ),
    );
    h.set("serve.sim_p50_ms", report.latency_quantile_us(0.50) / 1e3);
    h.set("serve.sim_p99_ms", report.latency_quantile_us(0.99) / 1e3);
    h.set("serve.sim_capacity_sps", s.capacity_sps);
    h.set("serve.sim_availability", availability(report));
    h.set(
        "serve.offered_util",
        ratio(
            SHARDS as f64 * 1e6 / s.opts.arrival_spacing_us as f64,
            s.capacity_sps,
        ),
    );

    // Queue depth and link utilization come from a timeline-on run.
    let timeline_opts = ServeOptions {
        timeline_window_us: TIMELINE_WINDOW_US,
        ..s.opts.clone()
    };
    let (timed_report, series, _) = h.op(
        "timeline run",
        surface::serve_run_traced(&s.subject, &timeline_opts),
    )?;
    h.check(
        summary_of(&timed_report) == rounds.reference.summary,
        || "the timeline recorder changed the serve summary".to_string(),
    );
    let Some(series) = series else {
        return Err("a timeline-on run returned no timeline".to_string());
    };
    let stats = surface::timeline_stats(&series, timed_report.horizon_us, SHARDS);
    h.set("serve.queue_peak", stats.queue_peak as f64);
    h.set("serve.link_util_max", stats.link_util_max);

    let pairs = if h.config.quick { 10_000 } else { 2_000_000 };
    let depth = (stats.queue_peak as usize).max(1);
    let (ops, queue_s) = time(|| surface::event_queue_churn(depth, pairs));
    h.set(
        "clock.eventqueue_ns_per_op",
        ratio(queue_s * 1e9, ops as f64),
    );
    let batch = (report.mean_batch_size().round() as usize).max(1);
    let (messages, batcher_s) = time(|| surface::link_batcher_churn(batch, pairs / batch as u64));
    h.set(
        "batch.enqueue_ns_per_msg",
        ratio(batcher_s * 1e9, messages as f64),
    );

    // Ablations at the probe size, each paired with the same load as is.
    let small = |opts: &ServeOptions| ServeOptions {
        sessions: h.config.size(PROBE_SESSIONS, PROBE_SESSIONS / 50),
        ..opts.clone()
    };
    let reps = h.config.reps(3);
    let base = small(&s.opts);
    let errors = ErrorSlot::default();
    let summaries: RefCell<Vec<String>> = RefCell::new(Vec::new());
    let run = |opts: &ServeOptions, keep: bool| {
        if let Some((report, _, _)) = errors.keep(surface::serve_run_traced(&s.subject, opts)) {
            if keep {
                summaries.borrow_mut().push(summary_of(&report));
            }
        }
    };
    let unbatched = ServeOptions {
        batching: false,
        ..base.clone()
    };
    let (on_s, off_s) = paired_min(reps, || run(&base, false), || run(&unbatched, false));
    h.set("serve.no_batch_x", ratio(off_s, on_s));

    let no_timeline = ServeOptions {
        timeline_window_us: 0,
        ..base.clone()
    };
    let with_timeline = ServeOptions {
        timeline_window_us: TIMELINE_WINDOW_US,
        ..base.clone()
    };
    let (off_s, on_s) = paired_min(
        reps,
        || run(&no_timeline, false),
        || run(&with_timeline, false),
    );
    h.set("obs.timeseries_overhead_frac", on_s / off_s - 1.0);
    // The timeline run's recorder updates, scaled to the ablation's size.
    let events = stats.events as f64 * (base.sessions as f64 / s.opts.sessions as f64);
    h.set(
        "timeseries.record_ns_per_event",
        ratio((on_s - off_s).max(0.0) * 1e9, events),
    );

    let sampled = ServeOptions {
        trace_sample: 1_000,
        ..base.clone()
    };
    let (off_s, on_s) = paired_min(reps, || run(&base, false), || run(&sampled, false));
    h.set("obs.serve_trace_overhead_frac", on_s / off_s - 1.0);

    let two_jobs = ServeOptions {
        jobs: 2,
        ..base.clone()
    };
    let one_s = min_time(reps, || run(&base, true));
    let two_s = min_time(reps, || run(&two_jobs, true));
    h.op("serve ablations", errors.take())?;
    h.check(summaries.borrow().windows(2).all(|w| w[0] == w[1]), || {
        "serve summaries differ between jobs=1 and jobs=2, or between repeats".to_string()
    });
    h.set("serve.jobs2_speedup_x", jobs2_speedup(one_s, two_s));
    Ok(())
}

/// `serve.sim_p99_ms_u50/_u70/_u90/_saturated`: simulated p99 at fixed
/// shares of capacity. Only a model change moves these.
fn rate_ladder(h: &Harness, s: &State) -> Fallible<()> {
    let sessions = h.config.size(PROBE_SESSIONS, PROBE_SESSIONS / 50);
    for (metric, utilization) in [
        ("serve.sim_p99_ms_u50", Some(0.50)),
        ("serve.sim_p99_ms_u70", Some(0.70)),
        ("serve.sim_p99_ms_u90", Some(0.90)),
        ("serve.sim_p99_ms_saturated", None),
    ] {
        let opts = ServeOptions {
            sessions,
            arrival_spacing_us: utilization.map_or(1, |u| spacing_for(s.capacity_sps, u)),
            ..s.plain.clone()
        };
        let report = h.op(metric, surface::serve_run(&s.subject, &opts))?;
        h.set(metric, report.latency_quantile_us(0.99) / 1e3);
    }
    Ok(())
}

/// Per-layer metrics of the fault and telemetry path.
fn fault_layers(h: &Harness, s: &State, reference: &Outcome) -> Fallible<()> {
    let report = &reference.report;
    let faults = report.faults.clone().unwrap_or_default();
    h.set("faults.timeouts", faults.stats.timeouts as f64);
    h.set("faults.retries", faults.stats.retries as f64);
    h.set("faults.drops", faults.stats.drops as f64);
    h.set("faults.failed_calls", faults.stats.failed_calls as f64);
    h.set("faults.wasted_sim_ms", faults.stats.wasted_us as f64 / 1e3);
    h.set("serve.failovers", faults.failovers as f64);
    h.set("serve.replica_served", faults.replica_served as f64);
    h.set("serve.recovery_epochs", faults.recovery_epochs.len() as f64);

    // Host cost of the fault layer: the same load and telemetry, faulted
    // against fault-free, per scripted call.
    let fault_free = ServeOptions {
        timeline_window_us: TIMELINE_WINDOW_US,
        ..s.plain.clone()
    };
    let errors = ErrorSlot::default();
    let calls_of = |opts: &ServeOptions| {
        errors
            .keep(surface::serve_run_traced(&s.subject, opts))
            .map_or(0, |(report, _, _)| report.calls)
    };
    let (free_calls, faulted_calls) = (Cell::new(0), Cell::new(0));
    let (free_s, faulted_s) = paired_min(
        h.config.reps(3),
        || free_calls.set(calls_of(&fault_free)),
        || faulted_calls.set(calls_of(&s.opts)),
    );
    h.op("fault-layer pair", errors.take())?;
    h.set(
        "faults.layer_x",
        ratio(
            ratio(faulted_s, faulted_calls.get() as f64),
            ratio(free_s, free_calls.get() as f64),
        ),
    );

    let Some(series) = &reference.series else {
        return Err("the degraded round returned no timeline".to_string());
    };
    // p99 before, during and after recovery, split at the first and last
    // recovery epoch.
    if let (Some(first), Some(last)) = (
        faults.recovery_epochs.first(),
        faults.recovery_epochs.last(),
    ) {
        let first = (first / TIMELINE_WINDOW_US) as usize;
        let last = (last / TIMELINE_WINDOW_US) as usize;
        let p99_ms = |lo, hi| surface::timeline_p99_us(series, lo, hi) / 1e3;
        h.set("serve.sim_p99_ms_before", p99_ms(0, first));
        h.set("serve.sim_p99_ms_during", p99_ms(first, last + 1));
        h.set("serve.sim_p99_ms_after", p99_ms(last + 1, usize::MAX));
    }
    // D'Angelo's split of simulated busy time: links against compute.
    let stats = surface::timeline_stats(series, report.horizon_us, SHARDS);
    let busy = (stats.link_busy_us + stats.class_busy_us) as f64;
    h.set(
        "serve.sim_link_share",
        ratio(stats.link_busy_us as f64, busy),
    );
    h.set(
        "serve.sim_compute_share",
        ratio(stats.class_busy_us as f64, busy),
    );
    Ok(())
}
