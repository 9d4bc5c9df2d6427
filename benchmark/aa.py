#!/usr/bin/env python3
"""A/A agreement check: two sets of runs of the same code must agree.

Runs the command in BENCHMARK.json the way the driver does: for each
workload, RUNS runs per set, each with another --seed, two sets. For every
end-to-end metric it prints the spread of each set (distance between the
first and third quartile as a share of the median) and how much worse the
second set's median is than the first's, and fails if a spread (setup_s
excepted) or a shift exceeds the metric's bound.

usage: python3 benchmark/aa.py [--runs N] [--seconds S]   (from the repo root)
"""
import json
import statistics
import subprocess
import sys
import time


def option(name, default):
    if name in sys.argv:
        return type(default)(sys.argv[sys.argv.index(name) + 1])
    return default


def run(command, workload, seed, seconds):
    out = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited with {out.returncode}:\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    decl = json.load(open("BENCHMARK.json"))
    runs = option("--runs", 10)
    seconds = option("--seconds", decl["run_seconds"])
    started = time.time()
    failures = []
    for workload in (w["name"] for w in decl["workloads"]):
        sets = []
        for _ in range(2):  # both sets use seeds 1..RUNS: the same inputs
            rows = [run(decl["command"], workload, seed, seconds)
                    for seed in range(1, runs + 1)]
            sets.append({m["name"]: [r[m["name"]] for r in rows]
                         for m in decl["end_to_end"]})
        print(f"{workload}  ({time.time() - started:.0f} s so far)")
        for m in decl["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a, b = sets[0][name], sets[1][name]
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a
            if m["better"] == "higher":
                worse = -worse
            spreads = [spread(a), spread(b)]
            verdict = "ok"
            if worse > bound or (name != "setup_s" and max(spreads) > bound):
                verdict = "OUTSIDE ITS BOUND"
                failures.append(f"{workload}.{name}")
            print(f"  {name:16s} median {med_a:16.4f} | {med_b:16.4f} {m['unit']:4s}"
                  f" spread {spreads[0]*100:5.2f}% | {spreads[1]*100:5.2f}%"
                  f" second worse by {worse*100:+6.2f}% bound {bound*100:.0f}%  {verdict}")
    if failures:
        sys.exit("A/A check failed: " + " ".join(failures))
    print(f"A/A check passed in {time.time() - started:.0f} s")


if __name__ == "__main__":
    main()
