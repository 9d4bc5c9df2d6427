//! `explore_recovery`: the real fault path, as thousands of short runs.
//!
//! One round walks the schedule space of three `gen:<n>:medium`
//! applications (128 fault instants × drift off/on, replicas installed,
//! every interleaving a whole self-healing run with its invariant battery)
//! and runs octarine's `o_oldtb3` once with the server dying a third of the
//! way in (`run_distributed_recovering`) and once over a lossy, spiking
//! wire (`run_distributed_faulty`). This is the RTE, informer, transport,
//! health monitor and recovery coordinator — the code ROADMAP's "one
//! execution core" will rewrite — where the serve workloads use the DES's
//! own fault layer instead.
//!
//! The explored applications are fixed, like the serve workloads' `gen:42`
//! and `gen:3`: an interleaving of one medium application costs 1.0–3.6 ms
//! depending on the application drawn, so drawing them from the seed would
//! make the seed, not the code, decide the round time. The seed drives the
//! fault seeds, the transport jitter and the fault plans' random draws.

use super::{jobs2_speedup, report_end_to_end, report_tracing, Modelled};
use crate::harness::{derive_seed, min_time, ErrorSlot, Fallible, Harness};
use crate::surface::{
    self, App, CallPolicy, Distribution, FaultPlan, IccProfile, InstanceClassifier, RecoveryConfig,
    RecoveryCounters, RunReport,
};
use std::cell::RefCell;
use std::sync::Arc;

/// Generated applications explored each round.
const EXPLORED: [u64; 3] = [7, 42, 3];
/// Breaker thresholds each fault instant runs under.
const THRESHOLDS: [u32; 1] = [3];
/// Fault instants of the quick mode (µs), in place of the 128-point grid.
const QUICK_INSTANTS: [u64; 3] = [5_000, 15_000, 30_000];
const SCENARIO: &str = "o_oldtb3";

struct State {
    octarine: App,
    classifier: Arc<InstanceClassifier>,
    profile: IccProfile,
    distribution: Distribution,
    death: FaultPlan,
    lossy: FaultPlan,
    transport_seed: u64,
    fault_seed: u64,
    explore_seed: u64,
}

/// Deterministic outputs of one round.
#[derive(PartialEq, Debug)]
struct Outcome {
    interleavings: u64,
    /// Interleavings whose scenario ran to completion, with or without a
    /// recovery.
    completed: u64,
    violations: u64,
    explore_summaries: Vec<String>,
    recovering: String,
    recovering_clock_us: u64,
    faulty: String,
    counters: RecoveryCounters,
}

fn setup(h: &Harness) -> Fallible<State> {
    let seed = h.config.seed;
    let octarine = surface::paper_app("octarine");
    let classifier = surface::new_classifier();
    let run = h.op(
        "profile",
        surface::profile_scenario(octarine.as_ref(), SCENARIO, &classifier),
    )?;
    let network = surface::exact_network(&surface::ethernet());
    let distribution = h.op(
        "choose_distribution",
        surface::choose_distribution(octarine.as_ref(), &run.profile, &network),
    )?;
    let transport_seed = derive_seed(seed, "transport", 0);
    let fault_free = h.op(
        "fault-free run",
        surface::run_distributed(
            octarine.as_ref(),
            SCENARIO,
            &classifier,
            &distribution,
            surface::ethernet(),
            transport_seed,
        ),
    )?;
    Ok(State {
        octarine,
        classifier,
        profile: run.profile,
        distribution,
        death: surface::server_death_plan(fault_free.clock_us / 3),
        lossy: surface::lossy_plan(fault_free.clock_us),
        transport_seed,
        fault_seed: derive_seed(seed, "fault", 0),
        explore_seed: derive_seed(seed, "explore", 0),
    })
}

fn recovering_run(s: &State) -> surface::ComResult<surface::RecoveryRun> {
    surface::run_distributed_recovering(
        s.octarine.as_ref(),
        SCENARIO,
        &s.classifier,
        &s.distribution,
        &s.profile,
        surface::ethernet(),
        s.transport_seed,
        s.death.clone(),
        CallPolicy::default(),
        s.fault_seed,
        RecoveryConfig::default(),
    )
}

fn faulty_run(s: &State) -> surface::ComResult<RunReport> {
    surface::run_distributed_faulty(
        s.octarine.as_ref(),
        SCENARIO,
        &s.classifier,
        &s.distribution,
        surface::ethernet(),
        s.transport_seed,
        s.lossy.clone(),
        CallPolicy::default(),
        s.fault_seed,
    )
}

fn explore_one(
    h: &Harness,
    s: &State,
    gen_seed: u64,
    jobs: usize,
) -> Fallible<surface::ExploreReport> {
    h.op(
        "explore",
        surface::explore_medium(
            gen_seed,
            s.explore_seed,
            h.config.quick.then_some(&QUICK_INSTANTS[..]),
            &THRESHOLDS,
            jobs,
        ),
    )
}

fn round(h: &Harness, s: &State) -> Fallible<Outcome> {
    let (mut interleavings, mut completed, mut violations) = (0u64, 0u64, 0u64);
    let mut explore_summaries = Vec::new();
    for gen_seed in EXPLORED {
        let report = {
            let _s = h.spans.span("explore.explore");
            explore_one(h, s, gen_seed, 1)?
        };
        let (ok, recovered, _failed) = h.op(
            "explore summary",
            surface::explore_outcomes(&report).ok_or("no `outcomes:` line"),
        )?;
        interleavings += report.interleavings as u64;
        completed += ok + recovered;
        violations += report.violations as u64;
        explore_summaries.push(report.summary);
    }
    let recovering = {
        let _s = h.spans.span("recovery.run");
        h.op("run_distributed_recovering", recovering_run(s))?
    };
    let faulty = {
        let _s = h.spans.span("transport.faulty_run");
        h.op("run_distributed_faulty", faulty_run(s))?
    };
    h.check(recovering.outcome.is_ok(), || {
        format!(
            "the machine-death run did not finish after recovery: {:?}",
            recovering.outcome
        )
    });
    Ok(Outcome {
        interleavings,
        completed,
        violations,
        explore_summaries,
        recovering: recovering.report.summary(),
        recovering_clock_us: recovering.report.clock_us,
        faulty: faulty.summary(),
        counters: surface::recovery_counters(&recovering),
    })
}

pub fn run(h: &Harness) -> Fallible<()> {
    let (state, rounds) = h.run_rounds(setup, round)?;
    let out = &rounds.reference;
    let c = &out.counters;
    h.check(out.violations == 0, || {
        format!(
            "exploration found {} invariant violation(s)",
            out.violations
        )
    });
    h.check(c.recoveries >= 1 && c.warm_solves >= 1, || {
        format!(
            "the server's death triggered {} recoveries and {} warm solves",
            c.recoveries, c.warm_solves
        )
    });
    h.check(c.cold_solves == 1, || {
        format!(
            "{} cold solves: only the base solve may be cold",
            c.cold_solves
        )
    });
    h.check(c.double_executions == 0, || {
        format!(
            "{} double executions: exactly-once violated",
            c.double_executions
        )
    });
    h.check(c.placement_valid, || {
        "the post-recovery placement violates its constraints".to_string()
    });
    if !h.config.traced {
        let modelled = Modelled {
            sim_time_ms: out.recovering_clock_us as f64 / 1e3,
            // Share of explored interleavings whose scenario still ran to
            // completion after the server died.
            sim_quality_pct: 100.0 * out.completed as f64 / out.interleavings.max(1) as f64,
        };
        // Work: interleavings explored plus the two octarine fault runs.
        report_end_to_end(h, &rounds, out.interleavings + 2, &modelled);
        return Ok(());
    }

    report_tracing(h, &rounds);
    h.set("explore.run_us", h.spans.median_self_us("explore.explore"));
    h.set("explore.interleavings", out.interleavings as f64);
    h.set("explore.violations", out.violations as f64);
    h.set("recovery.run_us", h.spans.median_self_us("recovery.run"));
    h.set("recovery.recoveries", c.recoveries as f64);
    h.set("recovery.warm_solves", c.warm_solves as f64);
    h.set("recovery.cold_solves", c.cold_solves as f64);
    h.set("recovery.migrations", c.migrations as f64);
    h.set("recovery.migrated_bytes", c.migrated_bytes as f64);
    h.set("recovery.redelivered_calls", c.redelivered_calls as f64);
    h.set("recovery.double_executions", c.double_executions as f64);
    h.set("health.transitions", c.health_transitions as f64);
    h.set(
        "transport.faulty_run_us",
        h.spans.median_self_us("transport.faulty_run"),
    );
    let faulty = h.op("run_distributed_faulty", faulty_run(&state))?;
    h.set("transport.retries", faulty.faults.retries as f64);
    h.set("transport.timeouts", faulty.faults.timeouts as f64);

    // `explore.jobs2_speedup_x`: a scaling probe, summaries byte-identical.
    let reps = h.config.reps(2);
    let summaries = RefCell::new(Vec::new());
    let errors = ErrorSlot::default();
    let timed = |jobs: usize| {
        min_time(reps, || {
            if let Some(report) = errors.keep(explore_one(h, &state, EXPLORED[0], jobs)) {
                summaries.borrow_mut().push(report.summary);
            }
        })
    };
    let one_s = timed(1);
    let two_s = timed(2);
    errors.take()?;
    h.check(summaries.borrow().windows(2).all(|w| w[0] == w[1]), || {
        "explore summaries differ between jobs=1 and jobs=2".to_string()
    });
    h.set("explore.jobs2_speedup_x", jobs2_speedup(one_s, two_s));
    Ok(())
}
