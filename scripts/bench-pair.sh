#!/usr/bin/env bash
# Paired evidence for a speed claim: builds two revisions once each from
# temporary `git archive` checkouts (each with its own cargo target
# directory, outside the repo, --offline), then, workload by workload,
# alternates a/b runs of the BENCHMARK.json command with `--trace 0`,
# printing each pair's failed operations, exit statuses and end-to-end
# metrics (round_ms_p50, work_per_s, ...), then one summary block: failing
# runs per side, and per metric the parent's median and IQR, the change's
# median, how many pairs the change won, the median b/a ratio and a
# verdict under the metric's BENCHMARK.json bound:
#   gain          the change won >= 9/10 of the pairs and the medians differ
#                 by more than the parent's IQR;
#   identical     equal in every pair (the sim_* metrics);
#   within bound  not worse in the median, or worse by at most the bound;
#   unresolved    worse in the median, but the wider IQR of the two sides
#                 exceeds the bound, so the runs cannot tell;
#   regression    worse by more than the bound.
# A run that exits non-zero is reported, not fatal. Writes nothing inside
# the repo.
#
#   scripts/bench-pair.sh <rev-a> <rev-b> <workload[,workload...]|all> [pairs, default 10]
#
# `all` means every workload BENCHMARK.json declares at <rev-a>.
set -euo pipefail
if [ $# -lt 3 ]; then
    echo "usage: $0 <rev-a> <rev-b> <workload[,workload...]|all> [pairs]" >&2
    exit 2
fi
cd "$(dirname "$0")/.."
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
for side in a b; do
    rev=$([ "$side" = a ] && echo "$1" || echo "$2")
    mkdir "$work/$side"
    git archive "$rev" | tar -x -C "$work/$side"
    echo "building $side = $rev" >&2
    (cd "$work/$side" && CARGO_TARGET_DIR="$work/target-$side" \
        cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml)
done
python3 - "$work" "$3" "${4:-10}" <<'EOF'
import json, math, os, statistics, subprocess, sys

work, names, pairs = sys.argv[1], sys.argv[2], int(sys.argv[3])
decl = {side: json.load(open(f"{work}/{side}/BENCHMARK.json")) for side in "ab"}
workloads = [w["name"] for w in decl["a"]["workloads"]] if names == "all" else names.split(",")
lower_is_better = {m["name"]: m["better"] == "lower" for m in decl["a"]["end_to_end"]}
bound = {m["name"]: m["bound"] for m in decl["a"]["end_to_end"]}
def iqr(xs):
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    return q3 - q1
def verdict(both, lower, k):
    # How one metric's pairs read under its bound. `worse` and `spread` are
    # fractions of the parent's median.
    a, b = [x for x, _ in both], [y for _, y in both]
    if all(x == y for x, y in both):
        return "identical"
    ma, mb = statistics.median(a), statistics.median(b)
    wins = sum((y < x) if lower else (y > x) for x, y in both)
    if 10 * wins >= 9 * len(both) and abs(mb - ma) > iqr(a) and (mb < ma) == lower:
        return "gain"
    worse = ((mb - ma) if lower else (ma - mb)) / ma if ma else 0.0
    spread = max(iqr(a), iqr(b)) / abs(ma) if ma else 0.0
    if worse <= 0:
        return "within bound"
    if spread > bound[k]:
        return "unresolved"
    return "regression" if worse > bound[k] else "within bound"
def run(side, workload):
    # A run that exits non-zero still reports: its last JSON line, if it
    # printed one, and its exit status, so a broken check shows as evidence
    # instead of aborting the comparison.
    cmd = decl[side]["command"] + ["--workload", workload, "--seconds", str(decl[side]["run_seconds"]), "--trace", "0"]
    env = {**os.environ, "CARGO_TARGET_DIR": f"{work}/target-{side}"}
    out = subprocess.run(cmd, cwd=f"{work}/{side}", env=env, stdout=subprocess.PIPE, text=True)
    try:
        last = json.loads(out.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        last = {}
    metrics = last.get("metrics", {})
    return {"exit": out.returncode, "failed": last.get("failed", float("nan")),
            **{k: metrics.get(k, {}).get("value", float("nan")) for k in lower_is_better}}
for workload in workloads:
    print(f"== {workload}", flush=True)
    seen = []
    for i in range(pairs):
        # Alternate which side runs first, so drift in the box favours neither.
        first, second = ("a", "b") if i % 2 == 0 else ("b", "a")
        pair = {first: run(first, workload), second: run(second, workload)}
        seen.append(pair)
        print(f"pair {i + 1} ({first} first): " + "  ".join(
            f"{k} {pair['a'][k]:.6g} -> {pair['b'][k]:.6g}" for k in ["failed", "exit", *lower_is_better]), flush=True)
    failing = {side: sum(p[side]["exit"] != 0 for p in seen) for side in "ab"}
    print(f"{workload} failing runs: a {failing['a']}/{pairs}, b {failing['b']}/{pairs}", flush=True)
    for k, lower in lower_is_better.items():
        # Only pairs where both sides reported the metric are compared.
        both = [(p["a"][k], p["b"][k]) for p in seen if not (math.isnan(p["a"][k]) or math.isnan(p["b"][k]))]
        if not both:
            print(f"{workload} {k}: no pair reported it on both sides", flush=True)
            continue
        a, b = [x for x, _ in both], [y for _, y in both]
        wins = sum((y < x) if lower else (y > x) for x, y in both)
        ratio = statistics.median(y / x if x else float("nan") for x, y in both)
        print(f"{workload} {k}: a median {statistics.median(a):.6g} (IQR {iqr(a):.3g}), "
              f"b median {statistics.median(b):.6g}, b better in {wins}/{len(both)}, median b/a {ratio:.3f}: "
              f"{verdict(both, lower, k)}", flush=True)
EOF
