#!/usr/bin/env bash
# The append-only perf trajectory: runs the BENCHMARK.json command once per
# workload and appends {commit, date, nproc, workload, exit, metrics} —
# metrics being the benchmark's own last stdout line, or null when the run
# printed none — to BENCH_HISTORY.jsonl
# (git-ignored; commit it deliberately or not at all). It gates nothing and
# compares nothing; a dirty tree is recorded under its HEAD commit.
set -euo pipefail
cd "$(dirname "$0")/.."
python3 - <<'EOF'
import datetime, json, os, subprocess

decl = json.load(open("BENCHMARK.json"))
stamp = {
    "commit": subprocess.check_output(["git", "rev-parse", "--short", "HEAD"], text=True).strip(),
    "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    "nproc": os.cpu_count(),
}
for workload in (w["name"] for w in decl["workloads"]):
    run = subprocess.run(
        decl["command"] + ["--workload", workload, "--seconds", str(decl["run_seconds"]), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=False)
    # A run that printed no JSON line is recorded with its exit status and
    # null metrics; it does not stop the workloads after it.
    try:
        last = json.loads(run.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        last = None
    with open("BENCH_HISTORY.jsonl", "a") as history:
        history.write(json.dumps({**stamp, "workload": workload, "exit": run.returncode, "metrics": last}) + "\n")
    print(f"{workload}: appended (exit {run.returncode}{'' if last else ', no metrics'})")
EOF
