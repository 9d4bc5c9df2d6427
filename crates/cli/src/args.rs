//! Subcommand argument parsing: one flag cursor, and on top of it the
//! parser for each subcommand's trailing arguments. Command-line arguments
//! are untrusted input, so every malformed vector is a typed message —
//! never a panic — and the messages are pinned by the table test below.

use crate::{ChaosOptions, PlaceOptions, RunFaults, ServeCliOptions};
use coign_gen::explore::ExploreOptions;
use coign_gen::GenSize;
use std::path::PathBuf;
use std::str::FromStr;

/// What most value-taking flags need.
const NUMBER: &str = "a number argument";

/// A cursor over one subcommand's trailing arguments.
struct Flags<'a> {
    command: &'static str,
    it: std::slice::Iter<'a, String>,
    positional: Option<&'a str>,
}

impl<'a> Flags<'a> {
    fn new(command: &'static str, rest: &'a [String]) -> Self {
        Flags {
            command,
            it: rest.iter(),
            positional: None,
        }
    }

    /// The next token, flag or positional.
    fn next(&mut self) -> Option<&'a str> {
        self.it.next().map(String::as_str)
    }

    /// The value following `flag`, which needs `what`.
    fn value(&mut self, flag: &str, what: &str) -> Result<&'a str, String> {
        self.next().ok_or_else(|| format!("{flag} needs {what}"))
    }

    /// The parsed value following `flag`; `noun` names it in the error.
    fn parsed<T: FromStr>(&mut self, flag: &str, what: &str, noun: &str) -> Result<T, String> {
        let value = self.value(flag, what)?;
        value.parse().map_err(|_| format!("bad {noun} `{value}`"))
    }

    /// [`Flags::parsed`] for a count that must be at least `min`.
    fn at_least<T: TryFrom<u64>>(
        &mut self,
        flag: &str,
        what: &str,
        noun: &str,
        min: u64,
    ) -> Result<T, String> {
        let value = self.value(flag, what)?;
        value
            .parse::<u64>()
            .ok()
            .filter(|n| *n >= min)
            .and_then(|n| T::try_from(n).ok())
            .ok_or_else(|| match min {
                0 | 1 => format!("bad {noun} `{value}`"),
                _ => format!("bad {noun} `{value}` (need ≥ {min})"),
            })
    }

    /// Rejects a `--flag` no arm of the subcommand's parser claimed.
    fn reject_flag(&self, token: &str) -> Result<(), String> {
        if token.starts_with("--") {
            return Err(format!("unknown flag `{token}` for `{}`", self.command));
        }
        Ok(())
    }

    /// A token no flag arm claimed: an unknown flag is an error, anything
    /// else is the subcommand's single optional positional (the network).
    fn positional(&mut self, token: &'a str) -> Result<(), String> {
        self.reject_flag(token)?;
        if self.positional.replace(token).is_some() {
            return Err(format!("unexpected argument `{token}`"));
        }
        Ok(())
    }

    /// The positional network name, defaulting to `ethernet`.
    fn network(&self) -> String {
        self.positional.unwrap_or("ethernet").to_string()
    }
}

/// Parses `coign profile`'s trailing arguments: one or more scenario
/// names plus an optional `--jobs N` anywhere among them.
pub fn parse_profile_args(rest: &[String]) -> Result<(Vec<String>, usize), String> {
    let mut scenarios = Vec::new();
    let mut jobs = 1usize;
    let mut flags = Flags::new("coign profile", rest);
    while let Some(token) = flags.next() {
        match token {
            "--jobs" => jobs = flags.at_least(token, NUMBER, "job count", 1)?,
            scenario => {
                flags.reject_flag(scenario)?;
                scenarios.push(scenario.to_string());
            }
        }
    }
    if scenarios.is_empty() {
        return Err("`coign profile` needs at least one scenario".to_string());
    }
    Ok((scenarios, jobs))
}

/// Parses `coign run`'s trailing arguments: an optional positional network
/// name followed by the fault flags in any order.
pub fn parse_run_args(rest: &[String]) -> Result<(String, RunFaults), String> {
    let mut faults = RunFaults::default();
    let mut flags = Flags::new("coign run", rest);
    while let Some(token) = flags.next() {
        match token {
            "--fault-plan" => {
                faults.plan_path = Some(PathBuf::from(flags.value(token, "a file argument")?));
            }
            "--fault-seed" => faults.fault_seed = flags.parsed(token, NUMBER, "fault seed")?,
            "--summary" => faults.summary = true,
            other => flags.positional(other)?,
        }
    }
    Ok((flags.network(), faults))
}

/// Parses `coign place`'s trailing arguments: an optional positional
/// network name plus `--machines/--replicate/--json` in any order.
pub fn parse_place_args(rest: &[String]) -> Result<(String, PlaceOptions), String> {
    let mut opts = PlaceOptions::default();
    let mut flags = Flags::new("coign place", rest);
    while let Some(token) = flags.next() {
        match token {
            "--machines" => opts.machines = flags.at_least(token, NUMBER, "machine count", 2)?,
            "--replicate" => opts.replicate = true,
            "--json" => opts.json = true,
            other => flags.positional(other)?,
        }
    }
    Ok((flags.network(), opts))
}

/// Parses `coign chaos`'s trailing arguments: an optional positional
/// network name plus `--seed/--trials/--jobs` in any order.
pub fn parse_chaos_args(rest: &[String]) -> Result<(String, ChaosOptions), String> {
    let mut opts = ChaosOptions::default();
    let mut flags = Flags::new("coign chaos", rest);
    while let Some(token) = flags.next() {
        match token {
            "--seed" => opts.seed = flags.parsed(token, NUMBER, "seed")?,
            "--trials" => opts.trials = flags.at_least(token, NUMBER, "trial count", 1)?,
            "--jobs" => opts.jobs = flags.at_least(token, NUMBER, "job count", 1)?,
            "--replicate" => opts.replicate = true,
            other => flags.positional(other)?,
        }
    }
    Ok((flags.network(), opts))
}

/// Parses `coign serve`'s trailing arguments: an optional positional
/// network name plus the serving flags in any order.
pub fn parse_serve_args(rest: &[String]) -> Result<(String, ServeCliOptions), String> {
    const NUMBER_US: &str = "a number argument (us)";
    let mut opts = ServeCliOptions::default();
    let mut flags = Flags::new("coign serve", rest);
    while let Some(token) = flags.next() {
        match token {
            "--sessions" => opts.sessions = flags.at_least(token, NUMBER, "session count", 1)?,
            "--shards" => opts.shards = flags.at_least(token, NUMBER, "shard count", 1)?,
            "--jobs" => opts.jobs = flags.at_least(token, NUMBER, "job count", 1)?,
            "--seed" => opts.seed = flags.parsed(token, NUMBER, "seed")?,
            "--window" => opts.window_us = flags.parsed(token, NUMBER_US, "window")?,
            "--no-batch" => opts.batching = false,
            "--json" => opts.json = true,
            "--timeline" => {
                opts.timeline = Some(flags.value(token, "a path argument (or -)")?.to_string());
            }
            "--timeline-window" => {
                opts.timeline_window_us = flags.at_least(token, NUMBER_US, "timeline window", 1)?;
            }
            "--slo-p99-us" => opts.slo_p99_us = Some(flags.parsed(token, NUMBER, "slo target")?),
            "--trace-sample" => {
                opts.trace_sample = flags.parsed(token, NUMBER, "trace sample rate")?;
            }
            "--fault-plan" => {
                opts.fault_plan = Some(PathBuf::from(flags.value(token, "a file argument")?));
            }
            "--fault-seed" => opts.fault_seed = flags.parsed(token, NUMBER, "fault seed")?,
            "--replicate" => opts.replicate = true,
            other => flags.positional(other)?,
        }
    }
    Ok((flags.network(), opts))
}

/// Parses `coign gen`'s arguments: `--seed N` (required) plus
/// `--size/--emit/--json` in any order.
pub fn parse_gen_args(rest: &[String]) -> Result<(u64, GenSize, Option<PathBuf>, bool), String> {
    let mut seed = None;
    let mut size = GenSize::Small;
    let mut emit = None;
    let mut json = false;
    let mut flags = Flags::new("coign gen", rest);
    while let Some(token) = flags.next() {
        match token {
            "--seed" => seed = Some(flags.parsed(token, NUMBER, "seed")?),
            "--size" => {
                let value = flags.value(token, "small|medium|large")?;
                size = GenSize::parse(value).ok_or_else(|| {
                    format!("bad size `{value}` (expected small, medium, or large)")
                })?;
            }
            "--emit" => emit = Some(PathBuf::from(flags.value(token, "a directory argument")?)),
            "--json" => json = true,
            other => return Err(format!("unknown argument `{other}` for `coign gen`")),
        }
    }
    let seed = seed.ok_or("`coign gen` needs --seed N")?;
    Ok((seed, size, emit, json))
}

/// Parses a comma-separated list of numbers for `--faults-at`/`--thresholds`.
fn parse_number_list<T: FromStr>(flag: &str, value: &str) -> Result<Vec<T>, String> {
    value
        .split(',')
        .filter(|part| !part.is_empty())
        .map(|part| {
            part.trim()
                .parse()
                .map_err(|_| format!("bad {flag} entry `{part}`"))
        })
        .collect()
}

/// Parses `coign explore`'s trailing arguments: an optional positional
/// network name plus the schedule flags in any order.
pub fn parse_explore_args(rest: &[String]) -> Result<(String, ExploreOptions), String> {
    const LIST: &str = "a comma-separated list";
    let mut opts = ExploreOptions::default();
    let mut flags = Flags::new("coign explore", rest);
    while let Some(token) = flags.next() {
        match token {
            "--faults-at" => {
                let instants: Vec<u64> = parse_number_list(token, flags.value(token, LIST)?)?;
                if instants.is_empty() {
                    return Err("--faults-at needs at least one instant".to_string());
                }
                opts.faults_at = Some(instants);
            }
            "--enumerate-depth" => opts.depth = flags.at_least(token, NUMBER, "depth", 1)?,
            "--thresholds" => {
                let thresholds: Vec<u32> = parse_number_list(token, flags.value(token, LIST)?)?;
                if thresholds.is_empty() || thresholds.contains(&0) {
                    return Err("--thresholds needs one or more values ≥ 1".to_string());
                }
                opts.thresholds = thresholds;
            }
            "--drift" => opts.with_drift = true,
            "--replicate" => opts.with_replicas = true,
            "--seed" => opts.seed = flags.parsed(token, NUMBER, "seed")?,
            "--jobs" => opts.jobs = flags.at_least(token, NUMBER, "job count", 1)?,
            other => flags.positional(other)?,
        }
    }
    Ok((flags.network(), opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the named subcommand's parser, keeping only the error.
    fn parse(command: &str, args: &[&str]) -> Result<(), String> {
        let rest: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        match command {
            "profile" => parse_profile_args(&rest).map(drop),
            "run" => parse_run_args(&rest).map(drop),
            "place" => parse_place_args(&rest).map(drop),
            "chaos" => parse_chaos_args(&rest).map(drop),
            "serve" => parse_serve_args(&rest).map(drop),
            "gen" => parse_gen_args(&rest).map(drop),
            "explore" => parse_explore_args(&rest).map(drop),
            other => panic!("no parser for {other}"),
        }
    }

    #[test]
    fn hostile_argument_vectors_yield_the_exact_typed_message() {
        let table: &[(&str, &[&str], &str)] = &[
            // Missing value.
            (
                "profile",
                &["s", "--jobs"],
                "--jobs needs a number argument",
            ),
            (
                "run",
                &["--fault-plan"],
                "--fault-plan needs a file argument",
            ),
            (
                "run",
                &["--fault-seed"],
                "--fault-seed needs a number argument",
            ),
            (
                "place",
                &["--machines"],
                "--machines needs a number argument",
            ),
            ("chaos", &["--trials"], "--trials needs a number argument"),
            (
                "serve",
                &["--window"],
                "--window needs a number argument (us)",
            ),
            (
                "serve",
                &["--timeline"],
                "--timeline needs a path argument (or -)",
            ),
            (
                "serve",
                &["--timeline-window"],
                "--timeline-window needs a number argument (us)",
            ),
            ("gen", &["--size"], "--size needs small|medium|large"),
            ("gen", &["--emit"], "--emit needs a directory argument"),
            ("gen", &["--json"], "`coign gen` needs --seed N"),
            (
                "explore",
                &["--faults-at"],
                "--faults-at needs a comma-separated list",
            ),
            (
                "explore",
                &["--thresholds"],
                "--thresholds needs a comma-separated list",
            ),
            // Non-numeric, negative, or overflowing.
            ("profile", &["s", "--jobs", "many"], "bad job count `many`"),
            ("run", &["--fault-seed", "-1"], "bad fault seed `-1`"),
            ("chaos", &["--seed", "0x10"], "bad seed `0x10`"),
            ("serve", &["--sessions", "1e3"], "bad session count `1e3`"),
            // One past `u64::MAX`; `u64::MAX` itself parses and is refused
            // by `serve`'s per-shard bound.
            (
                "serve",
                &["--sessions", "18446744073709551616"],
                "bad session count `18446744073709551616`",
            ),
            ("serve", &["--slo-p99-us", ""], "bad slo target ``"),
            (
                "serve",
                &["--trace-sample", "x"],
                "bad trace sample rate `x`",
            ),
            ("serve", &["--window", "150us"], "bad window `150us`"),
            (
                "serve",
                &["--shards", "99999999999999999999999"],
                "bad shard count `99999999999999999999999`",
            ),
            (
                "explore",
                &["--enumerate-depth", "4294967296"],
                "bad depth `4294967296`",
            ),
            (
                "explore",
                &["--faults-at", "10,x"],
                "bad --faults-at entry `x`",
            ),
            ("gen", &["--seed", "seven"], "bad seed `seven`"),
            (
                "gen",
                &["--seed", "1", "--size", "huge"],
                "bad size `huge` (expected small, medium, or large)",
            ),
            // Zero (or one) where a larger count is required.
            ("profile", &["s", "--jobs", "0"], "bad job count `0`"),
            ("chaos", &["--trials", "0"], "bad trial count `0`"),
            (
                "serve",
                &["--timeline-window", "0"],
                "bad timeline window `0`",
            ),
            (
                "place",
                &["--machines", "1"],
                "bad machine count `1` (need ≥ 2)",
            ),
            (
                "place",
                &["--machines", "two"],
                "bad machine count `two` (need ≥ 2)",
            ),
            (
                "explore",
                &["--thresholds", "1,0"],
                "--thresholds needs one or more values ≥ 1",
            ),
            // Empty lists.
            (
                "explore",
                &["--thresholds", ""],
                "--thresholds needs one or more values ≥ 1",
            ),
            (
                "explore",
                &["--faults-at", ","],
                "--faults-at needs at least one instant",
            ),
            // Unknown flags.
            (
                "profile",
                &["--fast"],
                "unknown flag `--fast` for `coign profile`",
            ),
            (
                "run",
                &["--jobs", "2"],
                "unknown flag `--jobs` for `coign run`",
            ),
            ("place", &["--"], "unknown flag `--` for `coign place`"),
            (
                "chaos",
                &["--summary"],
                "unknown flag `--summary` for `coign chaos`",
            ),
            (
                "serve",
                &["--nobatch"],
                "unknown flag `--nobatch` for `coign serve`",
            ),
            (
                "explore",
                &["--depth", "2"],
                "unknown flag `--depth` for `coign explore`",
            ),
            (
                "gen",
                &["extra"],
                "unknown argument `extra` for `coign gen`",
            ),
            // A second positional.
            ("run", &["isdn", "atm"], "unexpected argument `atm`"),
            (
                "serve",
                &["isdn", "--json", "-1"],
                "unexpected argument `-1`",
            ),
            ("explore", &["isdn", "isdn"], "unexpected argument `isdn`"),
            // No scenario at all.
            (
                "profile",
                &["--jobs", "2"],
                "`coign profile` needs at least one scenario",
            ),
        ];
        for (command, args, message) in table {
            assert_eq!(
                parse(command, args),
                Err(message.to_string()),
                "coign {command} {args:?}"
            );
        }
    }

    #[test]
    fn well_formed_vectors_parse_in_any_order() {
        let args = |list: &[&str]| list.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        let (network, opts) = parse_serve_args(&args(&[
            "--no-batch",
            "--sessions",
            "2000",
            "isdn",
            "--timeline",
            "-",
            "--fault-seed",
            "7",
        ]))
        .unwrap();
        assert_eq!(network, "isdn");
        assert_eq!(
            (opts.sessions, opts.batching, opts.fault_seed),
            (2000, false, 7)
        );
        assert_eq!(opts.timeline.as_deref(), Some("-"));
        let (network, place) = parse_place_args(&args(&["--machines", "2"])).unwrap();
        assert_eq!((network.as_str(), place.machines), ("ethernet", 2));
        let (scenarios, jobs) = parse_profile_args(&args(&["a", "--jobs", "3", "b"])).unwrap();
        assert_eq!(
            (scenarios, jobs),
            (vec!["a".to_string(), "b".to_string()], 3)
        );
        let (_, explore) =
            parse_explore_args(&args(&["--faults-at", "9,4,", "--thresholds", "1,3"])).unwrap();
        assert_eq!(explore.faults_at, Some(vec![9, 4]));
        assert_eq!(explore.thresholds, vec![1, 3]);
    }
}
