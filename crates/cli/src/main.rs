//! `coign` — the tool-chain CLI. See the crate docs for the workflow.

use coign_cli::args::{
    parse_chaos_args, parse_explore_args, parse_gen_args, parse_hotspots_args, parse_json_args,
    parse_place_args, parse_positionals, parse_profile_args, parse_run_args, parse_serve_args,
};
use coign_cli::{
    cmd_analyze, cmd_chaos, cmd_check, cmd_dot, cmd_explore, cmd_gen, cmd_hotspots, cmd_instrument,
    cmd_place, cmd_profile, cmd_run, cmd_script, cmd_serve, cmd_show, cmd_strip, cmd_sweep,
    resolve_image_spec,
};
use coign_obs::Obs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
coign — automatic distributed partitioning (OSDI '99 reproduction)

USAGE:
  coign instrument <app> <image>        instrument an application (octarine|photodraw|benefits)
  coign check      <image> [--json]     static analysis: remotability, constraints, image lints
  coign profile    <image> <scenario>... [--jobs N]   run profiling scenarios, accumulate logs
                                        (--jobs N profiles scenarios on N worker threads;
                                         the merged log is identical for every N)
  coign analyze    <image> [network]    choose & realize a distribution (ethernet|isdn|atm|san)
  coign sweep      <image> [--json]     partition across a latency/bandwidth grid (Dinic-checked)
  coign place      <image> <scenario> [network]   multiway placement across N machines
        [--machines N]                  topology size (default 3)
        [--replicate]                   copy classes the stage-4/5 lints prove immutable
        [--json]                        emit the machine-readable placement record
  coign run        <image> <scenario> [network]   execute distributed
        [--fault-plan FILE]             inject faults per FILE (loss/spike/partition/down lines)
        [--fault-seed N]                seed the fault schedule (default 0)
        [--summary]                     print the machine-diffable run report
  coign chaos      <image> <scenario> [network]   chaos harness: seeded random fault
        [--seed N]                      plans over N trials with the self-healing
        [--trials N]                    runtime, invariants checked per trial; the
        [--jobs N]                      summary is byte-identical per seed and jobs
        [--replicate]                   install lint-derived replicas: covered machine
                                        deaths must fail over with zero solves
  coign serve      <image> <scenario> [network]   fleet-scale serving harness:
        [--sessions N]                  simulated sessions (default 10000) multiplexed
        [--shards K]                    over K independently-clocked event shards
        [--jobs N]                      executed by N worker threads (summary is
        [--seed N]                      byte-identical per seed across --jobs)
        [--window US]                   per-link batch coalescing window (simulated us)
        [--no-batch]                    send every cut-crossing message alone
        [--json]                        emit the machine-readable serving record
        [--timeline <out|->]            write the simulated-time series (.csv for CSV,
                                        else JSON; - appends a sparkline dashboard)
        [--timeline-window US]          telemetry window width (default 100000 us)
        [--slo-p99-us N]                report per-window p99 SLO violations and the
                                        worst window's dominant link/class
        [--trace-sample N]              with --trace: emit causal spans for every Nth
                                        session (session/call/batch_wait/link_transit)
        [--fault-plan FILE]             inject faults per FILE on the simulated wire
                                        (loss/spike/partition/down lines)
        [--fault-seed N]                synthesize a seeded chaos plan over the run's
                                        fault-free horizon (0 = perfect wire)
        [--replicate]                   serve immutable classes from replica copies:
                                        machine death fails over without a re-solve
  coign gen        --seed N              generate a seeded synthetic application
        [--size small|medium|large]     topology size class (default small)
        [--emit <dir>]                  write the instrumented image into <dir>
        [--json]                        emit the machine-readable topology summary
                                        (every <image> above also accepts the address
                                         gen:<seed>[:<size>] — generated on demand)
  coign explore    gen:<seed>[:<size>] <scenario> [network]   schedule-space
        [--faults-at T,T,...]           exploration: run every (fault instant x
        [--enumerate-depth D]           breaker threshold x drift mode) interleaving
        [--thresholds F,F,...]          around recovery epochs, checking exactly-once,
        [--drift]                       placement-validity, and replication-legality
        [--seed N] [--jobs N]           invariants; violations minimize to a replay line
        [--replicate]                   install lint-derived replicas: covered deaths
                                        must fail over with zero solves
  coign show       <image>              inspect the configuration record
  coign hotspots   <image> [top]        communication hot spots & caching candidates
  coign script     <image> <script>     profile a scripted scenario (octarine)
  coign dot        <image> <out.dot>    export the ICC graph in Graphviz form
  coign strip      <image>              restore the original binary

GLOBAL FLAGS (any subcommand):
  --trace <out.json>                    write a Chrome trace-event file (open in
                                        chrome://tracing or https://ui.perfetto.dev)
  --metrics <out.json|out.prom>         write a metrics snapshot (JSON, or Prometheus
                                        text exposition when the path ends in .prom)
";

/// The global `--trace` / `--metrics` flags plus the remaining arguments.
struct GlobalFlags {
    rest: Vec<String>,
    trace: Option<PathBuf>,
    metrics: Option<PathBuf>,
}

/// Extracts the global `--trace <path>` / `--metrics <path>` flags from
/// anywhere on the command line, returning the remaining arguments.
fn parse_global_flags(args: &[String]) -> Result<GlobalFlags, String> {
    let mut rest = Vec::new();
    let mut trace = None;
    let mut metrics = None;
    let mut it = args.iter();
    while let Some(token) = it.next() {
        match token.as_str() {
            "--trace" => {
                let value = it.next().ok_or("--trace needs a file argument")?;
                trace = Some(PathBuf::from(value));
            }
            "--metrics" => {
                let value = it.next().ok_or("--metrics needs a file argument")?;
                metrics = Some(PathBuf::from(value));
            }
            other => rest.push(other.to_string()),
        }
    }
    Ok(GlobalFlags {
        rest,
        trace,
        metrics,
    })
}

/// The arguments from index `i` on (empty past the end).
fn tail(args: &[String], i: usize) -> &[String] {
    &args[i.min(args.len())..]
}

fn dispatch(args: &[String], obs: Option<&Obs>) -> Result<String, String> {
    let arg = |i: usize| -> Result<&str, String> {
        args.get(i)
            .map(String::as_str)
            .ok_or_else(|| USAGE.to_string())
    };
    // Image-positional arguments accept `gen:<seed>[:<size>]` addresses;
    // those materialize an instrumented image on demand.
    let image = |i: usize| -> Result<PathBuf, String> {
        resolve_image_spec(arg(i)?).map_err(|e| format!("error: {e}"))
    };
    let result = match arg(0)? {
        "instrument" => {
            parse_positionals("coign instrument", tail(args, 1), 2)?;
            cmd_instrument(arg(1)?, Path::new(arg(2)?))
        }
        "profile" => {
            let (scenarios, jobs) = parse_profile_args(tail(args, 2))?;
            let refs: Vec<&str> = scenarios.iter().map(String::as_str).collect();
            cmd_profile(&image(1)?, &refs, jobs, obs)
        }
        "analyze" => {
            let network = parse_positionals("coign analyze", tail(args, 2), 1)?;
            cmd_analyze(&image(1)?, network.first().unwrap_or(&"ethernet"), obs)
        }
        "sweep" => {
            let json = parse_json_args("coign sweep", tail(args, 2))?;
            cmd_sweep(&image(1)?, json, obs)
        }
        "run" => {
            let (network, faults) = parse_run_args(tail(args, 3))?;
            cmd_run(&image(1)?, arg(2)?, &network, &faults, obs)
        }
        "place" => {
            let (network, opts) = parse_place_args(tail(args, 3))?;
            cmd_place(&image(1)?, arg(2)?, &network, &opts, obs)
        }
        "chaos" => {
            let (network, opts) = parse_chaos_args(tail(args, 3))?;
            cmd_chaos(&image(1)?, arg(2)?, &network, &opts, obs)
        }
        "serve" => {
            let (network, opts) = parse_serve_args(tail(args, 3))?;
            cmd_serve(&image(1)?, arg(2)?, &network, &opts, obs)
        }
        "gen" => {
            let (seed, size, emit, json) = parse_gen_args(tail(args, 1))?;
            cmd_gen(seed, size, emit.as_deref(), json)
        }
        "explore" => {
            let (network, opts) = parse_explore_args(tail(args, 3))?;
            cmd_explore(arg(1)?, arg(2)?, &network, &opts)
        }
        "show" => {
            parse_positionals("coign show", tail(args, 2), 0)?;
            cmd_show(&image(1)?)
        }
        "hotspots" => {
            let top = parse_hotspots_args(tail(args, 2))?;
            cmd_hotspots(&image(1)?, top)
        }
        "script" => {
            parse_positionals("coign script", tail(args, 2), 1)?;
            cmd_script(&image(1)?, Path::new(arg(2)?))
        }
        "dot" => {
            parse_positionals("coign dot", tail(args, 2), 1)?;
            cmd_dot(&image(1)?, Path::new(arg(2)?))
        }
        "strip" => {
            parse_positionals("coign strip", tail(args, 2), 0)?;
            cmd_strip(&image(1)?)
        }
        _ => return Err(USAGE.to_string()),
    };
    result.map_err(|e| format!("error: {e}"))
}

/// Writes `text` and a newline to stdout through one lock. A reader that
/// has gone away (`coign show img | head -1`) makes this a failed write,
/// which the exit status reports, rather than a panic.
fn print(text: &str) -> ExitCode {
    let mut out = std::io::stdout().lock();
    match writeln!(out, "{text}").and_then(|()| out.flush()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(_) => ExitCode::FAILURE,
    }
}

fn run(args: &[String], obs: Option<&Obs>) -> ExitCode {
    let _span = obs.map(|o| {
        o.tracer.phase_span_with(
            format!("cli:{}", args.first().map(String::as_str).unwrap_or("?")),
            Vec::new(),
        )
    });
    // `check` owns its exit semantics: the report is the output either way
    // and always goes to stdout; the exit status alone signals whether an
    // error-level diagnostic fired.
    if args.first().map(String::as_str) == Some("check") {
        let Some(path) = args.get(1) else {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        };
        let json = match parse_json_args("coign check", tail(args, 2)) {
            Ok(json) => json,
            Err(message) => {
                eprintln!("{message}");
                return ExitCode::FAILURE;
            }
        };
        let path = match resolve_image_spec(path) {
            Ok(resolved) => resolved,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match cmd_check(&path, json) {
            Ok(report) => print(report.trim_end()),
            Err(report) => {
                print(report.trim_end());
                ExitCode::FAILURE
            }
        };
    }
    match dispatch(args, obs) {
        Ok(message) => print(&message),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

/// Writes the collected trace and metrics to their requested files. A
/// `--metrics` path ending in `.prom` selects the Prometheus text
/// exposition; anything else gets the JSON snapshot.
fn write_observability(
    obs: &Obs,
    trace: Option<&Path>,
    metrics: Option<&Path>,
) -> Result<(), String> {
    if let Some(path) = trace {
        std::fs::write(path, obs.tracer.export_chrome_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    if let Some(path) = metrics {
        let text = if path.extension().is_some_and(|e| e == "prom") {
            obs.registry.render_prometheus()
        } else {
            obs.registry.snapshot_json()
        };
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let GlobalFlags {
        rest: args,
        trace: trace_path,
        metrics: metrics_path,
    } = match parse_global_flags(&raw) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    let obs = if trace_path.is_some() || metrics_path.is_some() {
        Some(Obs::enabled())
    } else {
        None
    };
    // The `cli:<subcommand>` span must close before export, so the trace
    // is written only after `run` returns.
    let code = run(&args, obs.as_ref());
    if let Some(o) = &obs {
        if let Err(message) = write_observability(o, trace_path.as_deref(), metrics_path.as_deref())
        {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    }
    code
}
