//! `coign-benchmark`: the repo benchmark (see `README.md`).
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload and prints, as the last line of standard output, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`. Without `--workload` it runs all five, each in its own
//! child process, one after the other.

mod harness;
mod metrics;
mod spans;
mod surface;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use harness::{cores, Config, Harness};
use metrics::{Clock, DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};

const USAGE: &str = "usage: coign-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--quick] [--bench-dir DIR] [--regen-expected | --check-expected] \
[--print-benchmark-json]";

/// What to do with the pins in `expected/seed-<n>.json`.
#[derive(Clone, Copy, PartialEq)]
enum Expected {
    /// Print how the run compares with them (the default).
    Report,
    /// A differing pin is a failed check (`ci.sh`).
    Check,
    /// Rewrite them from this run.
    Regen,
}

struct Args {
    workload: Option<String>,
    config: Config,
    /// The benchmark's own directory: `out/` and `expected/` live in it.
    bench_dir: PathBuf,
    expected: Expected,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: None,
        config: Config {
            seed: DEFAULT_SEED,
            seconds: RUN_SECONDS as f64,
            traced: false,
            quick: false,
        },
        bench_dir: PathBuf::from("benchmark"),
        expected: Expected::Report,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.config.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.config.seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| (0.0..=600.0).contains(s))
                    .ok_or("--seconds takes a number from 0 to 600")?
            }
            "--trace" => {
                args.config.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => args.config.quick = true,
            "--bench-dir" => args.bench_dir = PathBuf::from(value()?),
            "--regen-expected" => args.expected = Expected::Regen,
            "--check-expected" => args.expected = Expected::Check,
            "--print-benchmark-json" => {
                print!("{}", metrics::benchmark_json());
                return Ok(None);
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => run_one(name, &args),
        None => run_all(&args),
    }
}

/// Runs every workload in its own child process, sequentially, so each
/// one's peak memory is its own.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut all_ok = true;
    for workload in &WORKLOADS {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", workload.name])
            .args(["--seed", &args.config.seed.to_string()])
            .args(["--seconds", &args.config.seconds.to_string()])
            .args(["--trace", if args.config.traced { "1" } else { "0" }])
            .arg("--bench-dir")
            .arg(&args.bench_dir);
        if args.config.quick {
            child.arg("--quick");
        }
        match args.expected {
            Expected::Report => {}
            Expected::Check => drop(child.arg("--check-expected")),
            Expected::Regen => drop(child.arg("--regen-expected")),
        }
        // `status` waits for the child, so none outlives this process.
        match child.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("workload {} exited with {status}", workload.name);
                all_ok = false;
            }
            Err(e) => {
                eprintln!("workload {} could not start: {e}", workload.name);
                all_ok = false;
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_one(name: &str, args: &Args) -> ExitCode {
    let h = Harness::new(args.config.clone());
    print_header(name, &args.config);
    let Some(outcome) = workloads::run(name, &h) else {
        eprintln!(
            "unknown workload {name}; known: {}",
            WORKLOADS.map(|w| w.name).join(" ")
        );
        return ExitCode::from(2);
    };
    let finished = outcome.is_ok();

    if finished && args.config.traced {
        let out_dir = args.bench_dir.join("out");
        let path = out_dir.join(format!("trace-{name}.json"));
        let written = std::fs::create_dir_all(&out_dir)
            .and_then(|()| std::fs::write(&path, h.spans.to_json(name, args.config.seed)));
        h.check(written.is_ok(), || {
            format!("cannot write {}: {written:?}", path.display())
        });
        println!("spans: {} written to {}", h.spans.len(), path.display());
    }
    if finished && !args.config.traced && !args.config.quick {
        pins(name, args, &h);
    }

    let values = h.values.borrow();
    let declared: Vec<(&str, &str, Clock)> = if args.config.traced {
        PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, m.clock))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.clock))
            .collect()
    };
    for name in values.keys() {
        assert!(
            declared.iter().any(|(n, _, _)| n == name),
            "workload reported undeclared metric {name}"
        );
    }
    // Every declared metric is printed; a layer this workload does not
    // exercise did no work there: 0.
    let rows: Vec<(&str, f64, &str)> = declared
        .iter()
        .map(|(metric, unit, _)| (*metric, values.get(metric).copied().unwrap_or(0.0), *unit))
        .collect();
    println!("{:<34} {:>18} {:<6} clock", "metric", "value", "unit");
    for ((metric, value, unit), (_, _, clock)) in rows.iter().zip(&declared) {
        let shown = if metric.ends_with("jobs2_speedup_x") && cores() < 2 {
            "unsupported".to_string()
        } else {
            format!("{value:.4}")
        };
        println!("{metric:<34} {shown:>18} {unit:<6} {clock:?}");
    }
    let correct = finished && h.failed() == 0;
    println!(
        "checks and operations: {} attempted, {} failed",
        h.attempted(),
        h.failed()
    );
    println!(
        "{}",
        metrics::result_json(correct, h.attempted().max(1), h.failed(), &rows)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Environment header and what kind of load each number comes from.
fn print_header(workload: &str, config: &Config) {
    let commit = head_commit().unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    let date = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    println!(
        "coign-benchmark workload={workload} seed={} seconds={} trace={} quick={}",
        config.seed, config.seconds, config.traced as u8, config.quick
    );
    println!(
        "environment: commit={commit} nproc={} rustc={} date_unix={date}",
        cores(),
        env!("BENCH_RUSTC_VERSION"),
    );
    println!(
        "load: host work is closed-loop (one driver thread, program jobs=1); serve arrivals \
         are open-loop on the simulated clock and session latency is timed from the scheduled \
         arrival. Host numbers are what the tool costs; Sim numbers are what the modelled \
         system does and repeat exactly per seed."
    );
}

/// The checked-out commit, read from `.git` of the working directory only
/// (no `git` child process, nothing read outside the checkout).
fn head_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let full = match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed.lines().find_map(|line| {
                    line.strip_suffix(reference)
                        .map(|hash| hash.trim().to_string())
                })
            })?
            .trim()
            .to_string(),
    };
    Some(full.chars().take(12).collect())
}

/// Regression pins of the exact end-to-end metrics, kept for the default
/// seed. They record what this benchmark measured when they were written,
/// not truth: a run reports how it compares, and only `--check-expected`
/// (used by `ci.sh`) turns a difference into a failure, so that a later
/// change to the model is not refused by a file it may not edit.
fn pins(workload: &str, args: &Args, h: &Harness) {
    let path = args
        .bench_dir
        .join(format!("expected/seed-{}.json", args.config.seed));
    let exact: Vec<(String, f64)> = END_TO_END
        .iter()
        .filter(|m| m.clock != Clock::Host)
        .filter_map(|m| {
            let value = *h.values.borrow().get(m.name)?;
            Some((format!("{workload}.{}", m.name), value))
        })
        .collect();
    let existing = std::fs::read_to_string(&path).unwrap_or_default();
    if args.expected == Expected::Regen {
        // Keep other workloads' lines; replace this workload's.
        let mut lines: Vec<String> = existing
            .lines()
            .map(|l| l.trim().trim_end_matches(',').to_string())
            .filter(|l| l.starts_with('"') && !l.starts_with("\"note\""))
            .filter(|l| !l.starts_with(&format!("\"{workload}.")))
            .collect();
        lines.extend(
            exact
                .iter()
                .map(|(key, value)| format!("\"{key}\": {}", metrics::number(*value))),
        );
        lines.sort();
        let body = lines
            .iter()
            .map(|l| format!("  {l}"))
            .collect::<Vec<_>>()
            .join(",\n");
        let text = format!(
            "{{\n  \"note\": \"regression pins written by --regen-expected: what the benchmark \
             measured when they were written, not truth\",\n{body}\n}}\n"
        );
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, text));
        h.check(written.is_ok(), || {
            format!("cannot write {}: {written:?}", path.display())
        });
        return;
    }
    for (key, value) in exact {
        let pinned = existing.lines().find_map(|line| {
            let rest = line.trim().strip_prefix(&format!("\"{key}\": "))?;
            rest.trim_end_matches(',').parse::<f64>().ok()
        });
        // No pin for this seed: nothing to compare against.
        let Some(pinned) = pinned else { continue };
        if args.expected == Expected::Check {
            h.check(pinned == value, || {
                format!("{key} = {value:?} differs from its pin {pinned:?}")
            });
        } else if pinned == value {
            println!("pin: {key} matches {}", path.display());
        } else {
            println!(
                "pin: {key} = {value:?} differs from {pinned:?} in {} (a model change moves \
                 it; --check-expected makes this a failure)",
                path.display()
            );
        }
    }
}
