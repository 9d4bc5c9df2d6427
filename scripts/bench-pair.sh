#!/usr/bin/env bash
# Paired evidence for a speed claim: builds two revisions from temporary
# `git archive` checkouts (each with its own cargo target directory, outside
# the repo, --offline), then alternates a/b runs of the BENCHMARK.json
# command on one workload with `--trace 0`, printing each pair's failed
# operations and end-to-end metrics (round_ms_p50, work_per_s, ...), then per
# metric the parent's median and IQR, the change's median, how many pairs
# the change won and the median b/a ratio. Writes nothing inside the repo.
#
#   scripts/bench-pair.sh <rev-a> <rev-b> <workload> [pairs, default 10]
set -euo pipefail
if [ $# -lt 3 ]; then
    echo "usage: $0 <rev-a> <rev-b> <workload> [pairs]" >&2
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
import json, os, statistics, subprocess, sys

work, workload, pairs = sys.argv[1], sys.argv[2], int(sys.argv[3])
decl = {side: json.load(open(f"{work}/{side}/BENCHMARK.json")) for side in "ab"}
lower_is_better = {m["name"]: m["better"] == "lower" for m in decl["a"]["end_to_end"]}
def run(side):
    cmd = decl[side]["command"] + ["--workload", workload, "--seconds", str(decl[side]["run_seconds"]), "--trace", "0"]
    env = {**os.environ, "CARGO_TARGET_DIR": f"{work}/target-{side}"}
    out = subprocess.run(cmd, cwd=f"{work}/{side}", env=env, stdout=subprocess.PIPE, text=True, check=True)
    last = json.loads(out.stdout.strip().splitlines()[-1])
    return {"failed": last["failed"], **{k: last["metrics"][k]["value"] for k in lower_is_better}}
seen = []
for i in range(pairs):
    # Alternate which side runs first, so drift in the box favours neither.
    first, second = ("a", "b") if i % 2 == 0 else ("b", "a")
    pair = {first: run(first), second: run(second)}
    seen.append(pair)
    print(f"pair {i + 1} ({first} first): " + "  ".join(
        f"{k} {pair['a'][k]:.6g} -> {pair['b'][k]:.6g}" for k in ["failed", *lower_is_better]), flush=True)
for k, lower in lower_is_better.items():
    a, b = [p["a"][k] for p in seen], [p["b"][k] for p in seen]
    q1, _, q3 = statistics.quantiles(a, n=4) if pairs > 1 else a * 3
    wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
    ratio = statistics.median(y / x if x else float("nan") for x, y in zip(a, b))
    print(f"{k}: a median {statistics.median(a):.6g} (IQR {q3 - q1:.3g}), "
          f"b median {statistics.median(b):.6g}, b better in {wins}/{pairs}, median b/a {ratio:.3f}")
EOF
