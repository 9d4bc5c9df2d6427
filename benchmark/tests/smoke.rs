//! Smoke test of the benchmark itself: the committed `BENCHMARK.json` is
//! what the binary declares and stays inside the contract's limits, and a
//! `--quick` run of every workload prints every declared metric exactly
//! once with its unit, and repeats its deterministic metrics exactly.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

const BINARY: &str = env!("CARGO_BIN_EXE_coign-benchmark");

fn run(args: &[&str]) -> String {
    let out = Command::new(BINARY)
        .args(args)
        .output()
        .expect("the benchmark binary starts");
    assert!(
        out.status.success(),
        "coign-benchmark {args:?} exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("output is UTF-8")
}

/// Every value of `"key": "value"` in a JSON text, in order.
fn string_values(text: &str, key: &str) -> Vec<String> {
    let needle = format!("\"{key}\": \"");
    text.match_indices(&needle)
        .map(|(at, _)| {
            let rest = &text[at + needle.len()..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

/// The array `"key": [ ... ]` of the declaration, as text.
fn section<'a>(text: &'a str, key: &str) -> &'a str {
    let start = text.find(&format!("\"{key}\": [")).expect("section exists");
    let rest = &text[start..];
    &rest[..rest.find("\n  ]").expect("section closes")]
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// `metric name -> (value text, unit)` of a run's last output line.
fn result_metrics(stdout: &str) -> BTreeMap<String, (String, String)> {
    let line = stdout.lines().last().expect("a result line");
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "unexpected result line: {line}"
    );
    let mut metrics = BTreeMap::new();
    let needle = "\": {\"value\": ";
    for (at, _) in line.match_indices(needle) {
        let name_start = line[..at].rfind('"').expect("metric name opens") + 1;
        let name = line[name_start..at].to_string();
        let rest = &line[at + needle.len()..];
        let value = rest[..rest.find(',').expect("value ends")].to_string();
        value.parse::<f64>().expect("value is a number");
        let unit = string_values(&rest[..rest.find('}').expect("metric closes") + 1], "unit")
            .pop()
            .expect("metric has a unit");
        assert!(
            metrics.insert(name.clone(), (value, unit)).is_none(),
            "{name} printed twice"
        );
    }
    metrics
}

#[test]
fn committed_declaration_matches_the_binary_and_the_limits() {
    let declared = run(&["--print-benchmark-json"]);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        committed, declared,
        "BENCHMARK.json differs from `coign-benchmark --print-benchmark-json`"
    );
    assert!(declared.len() <= 64 * 1024);

    let workloads = string_values(section(&declared, "workloads"), "name");
    let end_to_end = string_values(section(&declared, "end_to_end"), "name");
    let per_layer = string_values(section(&declared, "per_layer"), "name");
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    assert!(end_to_end.contains(&"setup_s".to_string()));

    let mut seen = std::collections::BTreeSet::new();
    for name in workloads.iter().chain(&end_to_end).chain(&per_layer) {
        assert!(valid_name(name), "bad name {name}");
        assert!(seen.insert(name), "{name} is used twice");
    }
    for unit in string_values(&declared, "unit") {
        assert!(valid_unit(&unit), "bad unit {unit}");
    }
    for why in string_values(&declared, "why") {
        assert!(why.len() <= 200 && !why.contains('\n'), "bad why: {why}");
    }
    for (at, _) in declared.match_indices("\"bound\": ") {
        let rest = &declared[at + 9..];
        let bound: f64 = rest[..rest.find('}').expect("entry closes")]
            .parse()
            .expect("bound is a number");
        assert!((0.0..=0.25).contains(&bound));
    }
}

#[test]
fn quick_runs_print_every_declared_metric_once_and_repeat_exactly() {
    let declared = run(&["--print-benchmark-json"]);
    let workloads = string_values(section(&declared, "workloads"), "name");
    let bench_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let bench_dir = bench_dir.to_str().expect("UTF-8 temp path");

    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let names = string_values(section(&declared, key), "name");
        let units = string_values(section(&declared, key), "unit");
        for workload in &workloads {
            let args = [
                "--workload",
                workload.as_str(),
                "--quick",
                "--seed",
                "5",
                "--trace",
                trace,
                "--bench-dir",
                bench_dir,
            ];
            let first = run(&args);
            let second = run(&args);
            let metrics = result_metrics(&first);
            let again = result_metrics(&second);
            assert_eq!(
                metrics.keys().collect::<Vec<_>>(),
                {
                    let mut sorted: Vec<&String> = names.iter().collect();
                    sorted.sort();
                    sorted
                },
                "{workload} --trace {trace} printed another set of metrics than declared"
            );
            for (name, unit) in names.iter().zip(&units) {
                assert_eq!(&metrics[name].1, unit, "{name} printed with another unit");
                // The table prints each metric once, with its clock.
                let rows: Vec<&str> = first
                    .lines()
                    .filter(|l| l.split_whitespace().next() == Some(name.as_str()))
                    .collect();
                assert_eq!(rows.len(), 1, "{name} has {} table rows", rows.len());
                // Simulated numbers and counts repeat exactly per seed.
                if !rows[0].ends_with("Host") {
                    assert_eq!(
                        metrics[name].0, again[name].0,
                        "{workload}: {name} differs between two runs of one seed"
                    );
                }
            }
            if trace == "1" {
                let spans = PathBuf::from(bench_dir).join(format!("out/trace-{workload}.json"));
                assert!(spans.exists(), "{} was not written", spans.display());
            }
        }
    }
}
