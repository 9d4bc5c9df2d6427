//! `pipeline_apps`: the paper's whole tool chain, per scenario.
//!
//! One round takes every scenario of Table 1 (octarine, photodraw,
//! benefits) and the three scenarios of eight `gen:<s>:large` applications
//! drawn from the seed through instrument → profile → choose distribution →
//! realize → default run + distributed run. It is what a Coign user does;
//! profiling, interception, marshal sizing, the classifier, the logger and
//! the RTE + transport do nearly all the work and min-cut almost none.

use std::cell::Cell;

use super::{jobs2_speedup, ratio, report_end_to_end, report_tracing, Modelled};
use crate::harness::{derive_seed, min_time, paired_min, time, ErrorSlot, Fallible, Harness};
use crate::surface::{self, App, GenSize, NetworkModel, NetworkProfile};

/// Generated applications per round.
const GEN_APPS: u64 = 8;
const GEN_SCENARIOS: [&str; 3] = ["g_main", "g_doc", "g_idle"];

struct Item {
    app: App,
    scenario: &'static str,
    paper: bool,
    transport_seed: u64,
}

struct State {
    items: Vec<Item>,
    /// How many of `items` are Table-1 scenarios.
    paper_scenarios: usize,
    network: NetworkModel,
    net_profile: NetworkProfile,
}

/// Deterministic outputs of one round.
#[derive(Default, PartialEq, Debug)]
struct Outcome {
    calls: u64,
    /// Σ communication time over the Table-1 scenarios, µs: Table 4's two
    /// columns. The generated applications are left out of the modelled
    /// figures (their draw would make the seed decide them, and see the
    /// note at the check below).
    default_comm_us: u64,
    coign_comm_us: u64,
    marshal_hits: u64,
    marshal_misses: u64,
    classifications: u64,
    instances: u64,
    edges: u64,
    image_bytes: u64,
    cross_machine_calls: u64,
    messages: u64,
    bytes: u64,
}

fn setup(h: &Harness) -> Fallible<State> {
    let seed = h.config.seed;
    let mut scenarios: Vec<(App, &'static str, bool)> = surface::table1()
        .into_iter()
        .map(|(app, scenario)| (app, scenario, true))
        .collect();
    if h.config.quick {
        scenarios.retain(|(_, s, _)| ["o_newdoc", "p_newdoc", "b_vueone"].contains(s));
    }
    let size = if h.config.quick {
        GenSize::Small
    } else {
        GenSize::Large
    };
    for index in 0..h.config.size(GEN_APPS, 1) {
        let gen_seed = derive_seed(seed, "gen-app", index) % 1_000_000;
        let app = surface::generated_app(gen_seed, size);
        scenarios.extend(GEN_SCENARIOS.map(|scenario| (app.clone(), scenario, false)));
    }
    let paper_scenarios = scenarios.iter().filter(|(_, _, paper)| *paper).count();
    let items = scenarios
        .into_iter()
        .enumerate()
        .map(|(index, (app, scenario, paper))| Item {
            app,
            scenario,
            paper,
            transport_seed: derive_seed(seed, "transport", index as u64),
        })
        .collect();
    let network = surface::ethernet();
    let net_profile = surface::measured_network(&network, derive_seed(seed, "net-profile", 0));
    Ok(State {
        items,
        paper_scenarios,
        network,
        net_profile,
    })
}

/// One scenario through the chain. `verify` adds the output checks and
/// returns Table 5's relative prediction error (0 for a generated
/// application: Table 5, like Table 4, is over the Table-1 scenarios).
fn chain(h: &Harness, s: &State, item: &Item, out: &mut Outcome, verify: bool) -> Fallible<f64> {
    let (app, scenario) = (item.app.as_ref(), item.scenario);
    let classifier = surface::new_classifier();
    let mut image = {
        let _s = h.spans.span("rewriter.instrument");
        surface::instrument(app, &classifier)
    };
    let run = {
        let _s = h.spans.span("runtime.profile");
        h.op(
            scenario,
            surface::profile_scenario(app, scenario, &classifier),
        )?
    };
    {
        let _s = h.spans.span("rewriter.accumulate");
        h.op(
            scenario,
            surface::accumulate_profile(&mut image, &run.profile),
        )?;
    }
    let distribution = {
        let _s = h.spans.span("analysis.choose");
        h.op(
            scenario,
            surface::choose_distribution(app, &run.profile, &s.net_profile),
        )?
    };
    {
        let _s = h.spans.span("rewriter.realize");
        h.op(
            scenario,
            surface::realize(&mut image, &classifier, &distribution),
        )?;
    }
    let default = {
        let _s = h.spans.span("runtime.default_run");
        h.op(
            scenario,
            surface::run_default(app, scenario, s.network.clone(), item.transport_seed),
        )?
    };
    let coign = {
        let _s = h.spans.span("runtime.distributed_run");
        h.op(
            scenario,
            surface::run_distributed(
                app,
                scenario,
                &classifier,
                &distribution,
                s.network.clone(),
                item.transport_seed,
            ),
        )?
    };

    let stats = classifier.stats();
    out.calls += run.report.stats.calls;
    if item.paper {
        out.default_comm_us += default.stats.comm_us;
        out.coign_comm_us += coign.stats.comm_us;
    }
    out.marshal_hits += run.report.marshal_cache_hits;
    out.marshal_misses += run.report.marshal_cache_misses;
    out.classifications += u64::from(stats.classifications);
    out.instances += stats.instances;
    out.edges += run.profile.edges.len() as u64;
    out.image_bytes += image.total_size() as u64;
    out.cross_machine_calls += coign.stats.cross_machine_calls;
    out.messages += coign.stats.messages;
    out.bytes += coign.stats.bytes;

    if !verify {
        return Ok(0.0);
    }
    // Table 4's claim, checked where the paper makes it. A generated
    // application's explicit pairwise constraints bind Coign's cut but not
    // its as-shipped default placement, so there the default can be cheaper
    // (it is, on every `g_doc`); README.md records this for a later issue.
    if item.paper {
        h.check(coign.stats.comm_us <= default.stats.comm_us, || {
            format!(
                "{scenario}: Coign's communication time {} us exceeds the default's {} us",
                coign.stats.comm_us, default.stats.comm_us
            )
        });
    }
    let realized = h.op(scenario, surface::realized_distribution(&image))?;
    h.check(realized.as_ref() == Some(&distribution), || {
        format!("{scenario}: the realized image does not decode to the chosen distribution")
    });
    if !item.paper {
        return Ok(0.0);
    }
    let predicted = surface::predicted_execution_us(&run, &distribution, &s.net_profile);
    let measured = coign.clock_us as f64;
    Ok(ratio((predicted - measured).abs(), measured))
}

fn round(h: &Harness, s: &State, verify: bool) -> Fallible<(Outcome, f64)> {
    let mut out = Outcome::default();
    let mut error_sum = 0.0;
    for paper in [true, false] {
        let _group = h.spans.span(if paper {
            "pipeline.paper"
        } else {
            "pipeline.gen"
        });
        for item in s.items.iter().filter(|i| i.paper == paper) {
            error_sum += chain(h, s, item, &mut out, verify)?;
        }
    }
    Ok((out, error_sum / s.paper_scenarios as f64))
}

pub fn run(h: &Harness) -> Fallible<()> {
    let (state, rounds) = h.run_rounds(setup, |h, s| round(h, s, false).map(|(out, _)| out))?;
    // Output checks, outside the timed region: every timed round was
    // compared to the warm-up round, and this pass is compared to it too.
    let (verified, predict_err) = round(h, &state, true)?;
    h.check(verified == rounds.reference, || {
        "the verification pass did not reproduce the warm-up round's outputs".to_string()
    });
    let out = &rounds.reference;
    let savings_pct = 100.0
        * ratio(
            out.default_comm_us as f64 - out.coign_comm_us as f64,
            out.default_comm_us as f64,
        );
    if !h.config.traced {
        let modelled = Modelled {
            sim_time_ms: out.coign_comm_us as f64 / state.paper_scenarios as f64 / 1e3,
            sim_quality_pct: savings_pct,
        };
        report_end_to_end(h, &rounds, out.calls, &modelled);
        return Ok(());
    }

    report_tracing(h, &rounds);
    for (metric, span) in [
        ("rewriter.instrument_us", "rewriter.instrument"),
        ("rewriter.accumulate_us", "rewriter.accumulate"),
        ("rewriter.realize_us", "rewriter.realize"),
        ("runtime.profile_us", "runtime.profile"),
        ("analysis.choose_us", "analysis.choose"),
        ("runtime.default_run_us", "runtime.default_run"),
        ("runtime.distributed_run_us", "runtime.distributed_run"),
    ] {
        h.set(metric, h.spans.median_self_us(span));
    }
    // A group's row is its whole span: its own time plus its stages'.
    h.set(
        "pipeline.paper_round_ms",
        h.spans.median_total_us("pipeline.paper") / 1e3,
    );
    h.set(
        "pipeline.gen_round_ms",
        h.spans.median_total_us("pipeline.gen") / 1e3,
    );

    h.set("com.calls", out.calls as f64);
    h.set(
        "marshal.lookups",
        (out.marshal_hits + out.marshal_misses) as f64,
    );
    h.set(
        "marshal.hit_rate",
        ratio(
            out.marshal_hits as f64,
            (out.marshal_hits + out.marshal_misses) as f64,
        ),
    );
    h.set("classifier.classifications", out.classifications as f64);
    h.set("classifier.instances", out.instances as f64);
    h.set("profile.edges", out.edges as f64);
    h.set("rewriter.image_bytes", out.image_bytes as f64);
    h.set("rte.cross_machine_calls", out.cross_machine_calls as f64);
    h.set("transport.messages", out.messages as f64);
    h.set("transport.bytes", out.bytes as f64);
    h.set("pipeline.comm_savings_pct", savings_pct);
    h.set("pipeline.predict_err_pct", predict_err * 100.0);

    profiling_decomposition(h, &state, out.calls)?;
    program_tracer_overhead(h)?;
    parallel_profiling(h)?;
    Ok(())
}

/// §3.2's measurement, by differences of whole runs: the raw application,
/// the same under the profiling RTE with a null logger (interception +
/// classifier + informer sizing), and under the full profiling logger.
fn profiling_decomposition(h: &Harness, s: &State, calls: u64) -> Fallible<()> {
    let (mut raw_s, mut null_s, mut full_s) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let (mut classifier_encode_s, mut profile_encode_s, mut constraints_s) = (0.0, 0.0, 0.0);
    let mut profile_bytes = 0u64;
    let passes = h.config.reps(3);
    for pass in 0..passes {
        let (mut raw, mut null, mut full) = (0.0, 0.0, 0.0);
        for item in &s.items {
            let (app, scenario) = (item.app.as_ref(), item.scenario);
            let (r, t) = time(|| surface::run_raw(app, scenario));
            h.op(scenario, r)?;
            raw += t;
            let classifier = surface::new_classifier();
            let (r, t) = time(|| surface::profile_with_null_logger(app, scenario, &classifier));
            h.op(scenario, r)?;
            null += t;
            let classifier = surface::new_classifier();
            let (r, t) = time(|| surface::profile_scenario(app, scenario, &classifier));
            let run = h.op(scenario, r)?;
            full += t;
            if pass == 0 {
                classifier_encode_s += time(|| classifier.encode()).1;
                let (bytes, t) = time(|| run.profile.encode());
                profile_encode_s += t;
                profile_bytes += bytes.len() as u64;
                constraints_s += time(|| surface::constraints_of(app, &run.profile)).1;
            }
        }
        raw_s = raw_s.min(raw);
        null_s = null_s.min(null);
        full_s = full_s.min(full);
    }
    h.set("com.raw_run_us", raw_s * 1e6);
    h.set("rte.intercept_us", (null_s - raw_s) * 1e6);
    h.set("logger.summarize_us", (full_s - null_s) * 1e6);
    h.set("profile.overhead_x", ratio(full_s, raw_s));
    h.set("profile.ns_per_call", ratio(full_s * 1e9, calls as f64));
    h.set("classifier.encode_us", classifier_encode_s * 1e6);
    h.set("profile.encode_us", profile_encode_s * 1e6);
    h.set("profile.bytes", profile_bytes as f64);
    h.set("analysis.constraints_us", constraints_s * 1e6);
    Ok(())
}

const OCTARINE_SUITE: [&str; 3] = ["o_oldtb3", "o_newdoc", "o_oldwp7"];

/// `obs.trace_overhead_frac`: the program's own tracer, paired off/on over
/// octarine's profiling suite.
fn program_tracer_overhead(h: &Harness) -> Fallible<()> {
    let app = surface::paper_app("octarine");
    let events = Cell::new(0usize);
    let errors = ErrorSlot::default();
    let (off_s, on_s) = paired_min(
        h.config.reps(9),
        || {
            errors.keep(surface::profile_suite_observed(
                app.as_ref(),
                &OCTARINE_SUITE,
                false,
            ));
        },
        || {
            let traced = surface::profile_suite_observed(app.as_ref(), &OCTARINE_SUITE, true);
            events.set(errors.keep(traced).unwrap_or(0));
        },
    );
    h.op("profile_scenarios_observed", errors.take())?;
    h.check(events.get() > 0, || {
        "the program's tracer recorded no events".to_string()
    });
    h.set("obs.trace_overhead_frac", on_s / off_s - 1.0);
    Ok(())
}

/// `runtime.jobs2_speedup_x`: `profile_scenarios_parallel` on one worker
/// against two, merged profiles byte-identical. A scaling probe only: it
/// means nothing on a one-core box and is reported as unsupported there.
fn parallel_profiling(h: &Harness) -> Fallible<()> {
    let app = surface::paper_app("octarine");
    let errors = ErrorSlot::default();
    let timed = |jobs: usize| {
        let mut encoded = Vec::new();
        let best_s = min_time(h.config.reps(5), || {
            let profiled = surface::profile_suite_parallel(app.as_ref(), &OCTARINE_SUITE, jobs);
            encoded = errors.keep(profiled).unwrap_or_default();
        });
        (encoded, best_s)
    };
    let (one, one_s) = timed(1);
    let (two, two_s) = timed(2);
    h.op("profile_scenarios_parallel", errors.take())?;
    h.check(one == two, || {
        "parallel profile is not byte-identical to the sequential profile".to_string()
    });
    h.set("runtime.jobs2_speedup_x", jobs2_speedup(one_s, two_s));
    Ok(())
}
