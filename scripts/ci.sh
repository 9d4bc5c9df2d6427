#!/usr/bin/env bash
# Repo-local CI gate: formatting, lints, release build, and the full test
# suite. Tier-1 (`cargo build --release && cargo test -q`) runs the same
# tests, since the root manifest's default-members cover every crate; this
# gate adds everything below them. Run from anywhere; everything executes
# at the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> no silenced function-length lint"
# A 600-line function has to be argued for, not allowed away.
if grep -rn 'allow(clippy::too_many_lines)' crates/; then
  echo "#[allow(clippy::too_many_lines)] is back; split the function instead"
  exit 1
fi

echo "==> public surface: every pub fn and pub use name is named outside its crate"
# rustc's dead_code lint ignores `pub` items, so public surface nobody
# calls would never be reported. A `pub fn`, or a name re-exported with
# `pub use`, in a library crate's src/ must be named somewhere outside that
# src/: another crate, the root src/, tests/ or examples/, benchmark/, or
# the crate's own tests/. Otherwise narrow it to pub(crate) and let
# dead_code (clippy -D warnings, below) judge what is left.
mapfile -t RUST_FILES < <(find crates src tests examples benchmark -name target -prune -o -name '*.rs' -print)
unnamed=0
for crate in com dcom flow coign gen obs apps; do
  src="crates/$crate/src"
  outside=()
  for file in "${RUST_FILES[@]}"; do
    [[ "$file" == "$src/"* ]] || outside+=("$file")
  done
  names=$( {
    grep -rhoE '^\s*pub fn [A-Za-z_][A-Za-z0-9_]*' "$src" | sed -E 's/.*pub fn //'
    grep -rhzoE 'pub use [^;]*;' "$src" | tr '\0' '\n' |
      sed -E 's/pub use //; s/[{};]/ /g; s/[A-Za-z_0-9]+ as //g' | tr ', ' '\n\n' | sed -E 's/.*:://'
  } | grep -E '^[A-Za-z_]' | sort -u || true)
  for name in $names; do
    if ! grep -qw -- "$name" "${outside[@]}"; then
      echo "  $src: $name"
      unnamed=$((unnamed + 1))
    fi
  done
done
if [ "$unnamed" -gt 0 ]; then
  echo "$unnamed public name(s) above are named nowhere outside their crate; narrow them"
  exit 1
fi

# Every cargo step runs --locked: a manifest edit that leaves Cargo.lock
# stale fails here instead of being silently rewritten.
echo "==> cargo clippy -D warnings"
cargo clippy --locked --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings"
# A broken, ambiguous or private intra-doc link fails here rather than
# rendering as plain text.
RUSTDOCFLAGS="-D warnings" cargo doc --locked --workspace --no-deps

echo "==> cargo build --release --workspace"
# --workspace matters: the root manifest is a package, so a bare build
# would skip coign-cli and coign-bench and the smoke blocks below would
# run stale `target/release/coign` / `repro_all` binaries.
cargo build --locked --release --workspace

echo "==> cargo test --workspace (fresh TMPDIR, --no-fail-fast)"
# A fresh temp dir, so state an earlier command left under the shared one
# (e.g. a profiled `gen:` image) can neither mask nor cause a failure; and
# no fail-fast, so one failing crate does not hide the crates after it.
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
mkdir "$TMP/test-tmp"
TMPDIR="$TMP/test-tmp" cargo test --locked -q --workspace --no-fail-fast

echo "==> run teardown (one scenario 200 cycles in-process, release, peak RSS flat)"
# The tier-1 run of tests/run_teardown.rs covers 20 cycles in debug; the
# ignored 200-cycle variant is what a long-lived host would do.
cargo test --locked --release -q --test run_teardown -- --ignored

echo "==> lift-to-front direction at 20 000 classifications (release, both pin regimes)"
# Tier-1 checks the direction rule on 2 000-classification networks; the
# ignored variant solves the benchmark's 100x shape against Dinic.
cargo test --locked --release -q -p coign-flow -- --ignored

echo "==> benchmark/ci.sh (measured surface: offline build, smoke test, --check-expected)"
# The benchmark is a workspace of its own that compiles against pinned
# signatures of these crates; build and smoke it here so a break of that
# surface is caught before the pipeline runs it.
benchmark/ci.sh

echo "==> fault-injection determinism (two seeds vs committed expectations)"
# The fault layer's whole value is reproducibility: the same image, plan,
# and fault seed must yield a byte-identical run summary on every machine.
# Build a realized octarine image from scratch, run the demo fault plan
# under two distinct seeds, and diff each summary against the committed
# expectation. Regenerate after an intentional change with:
#   scripts/ci.sh --regen-fault-expectations
BIN=target/release/coign
IMG="$TMP/octarine.cimg"
# Diffs "$TMP/<name>" against scripts/expected/<name>, or overwrites the
# expectation under --regen-fault-expectations.
REGEN="${1:-}"
check_expected() {
  if [[ "$REGEN" == "--regen-fault-expectations" ]]; then
    cp "$TMP/$1" "scripts/expected/$1"
    echo "regenerated scripts/expected/$1"
  else
    diff -u "scripts/expected/$1" "$TMP/$1" || { echo "$2 drifted ($1)"; exit 1; }
  fi
}
"$BIN" instrument octarine "$IMG" >/dev/null
"$BIN" profile "$IMG" o_oldtb3 >/dev/null
"$BIN" analyze "$IMG" ethernet >/dev/null
for seed in 7 11; do
  "$BIN" run "$IMG" o_oldtb3 ethernet \
    --fault-plan examples/faults/demo.fplan --fault-seed "$seed" --summary \
    > "$TMP/fault_run_seed_${seed}.txt"
  check_expected "fault_run_seed_${seed}.txt" "fault run summary"
done
# The two seeds must schedule different faults — otherwise the seed is
# not actually feeding the fault RNG and the determinism check is vacuous.
if cmp -s "$TMP/fault_run_seed_7.txt" "$TMP/fault_run_seed_11.txt"; then
  echo "fault seeds 7 and 11 produced identical summaries; seed is ignored"
  exit 1
fi

echo "==> profiled images are byte-identical across processes (octarine, gen:)"
# Every map the profiling path fills is seeded per process, so an image
# written in iteration order of one would differ between two processes.
# Instrument and profile the same app in two separate process chains and
# compare the bytes.
for tag in a b; do
  "$BIN" instrument octarine "$TMP/det_${tag}.cimg" >/dev/null
  "$BIN" profile "$TMP/det_${tag}.cimg" o_oldtb3 >/dev/null
  "$BIN" profile "$TMP/det_${tag}.cimg" o_newdoc >/dev/null
  mkdir "$TMP/det_gen_${tag}"
  "$BIN" gen --seed 5 --emit "$TMP/det_gen_${tag}" >/dev/null
  "$BIN" profile "$TMP/det_gen_${tag}/gen-5-small.cimg" g_main g_doc >/dev/null
done
cmp "$TMP/det_a.cimg" "$TMP/det_b.cimg" \
  || { echo "two processes profiled octarine into different images"; exit 1; }
cmp "$TMP/det_gen_a/gen-5-small.cimg" "$TMP/det_gen_b/gen-5-small.cimg" \
  || { echo "two processes profiled gen seed 5 into different images"; exit 1; }

echo "==> chaos harness determinism (two seeds vs committed expectations, --jobs cross-check)"
# The chaos summary must be byte-identical for a given seed — across
# machines (the committed expectations), across runs, and across worker
# counts. Five trials at seed 7 include machine-death trials, so the
# expectation also pins that the self-healing path actually fires.
# Regenerate after an intentional change with the same flag as above.
for seed in 7 11; do
  "$BIN" chaos "$IMG" o_oldtb3 ethernet --seed "$seed" --trials 5 \
    > "$TMP/chaos_seed_${seed}.txt"
  check_expected "chaos_seed_${seed}.txt" "chaos summary"
done
if cmp -s "$TMP/chaos_seed_7.txt" "$TMP/chaos_seed_11.txt"; then
  echo "chaos seeds 7 and 11 produced identical summaries; seed is ignored"
  exit 1
fi
"$BIN" chaos "$IMG" o_oldtb3 ethernet --seed 7 --trials 5 --jobs 4 \
  > "$TMP/chaos_seed_7_jobs4.txt"
cmp "$TMP/chaos_seed_7.txt" "$TMP/chaos_seed_7_jobs4.txt" \
  || { echo "chaos summary differs between --jobs 1 and --jobs 4"; exit 1; }
grep -q "outcome=recovered" "$TMP/chaos_seed_7.txt" \
  || { echo "chaos seed 7 never exercised the recovery path"; exit 1; }
grep -q "invariants: ok" "$TMP/chaos_seed_7.txt" \
  || { echo "chaos invariants violated at seed 7"; exit 1; }
grep -q "invariants: ok" "$TMP/chaos_seed_11.txt" \
  || { echo "chaos invariants violated at seed 11"; exit 1; }

echo "==> sweep, chaos & explore over generated applications (two gen seeds vs committed expectations)"
# The generator is deterministic per seed, so the whole downstream pipeline
# must be too: emit two generated images, profile + analyze them, sweep
# the network grid, run the chaos harness and place them on four machines,
# and diff each against committed expectations. The
# schedule-space explorer must likewise be byte-identical across --jobs
# and report zero invariant violations on a healthy generated app.
# Regenerate after an intentional change with the same flag as above.
for gseed in 3 16; do
  "$BIN" gen --seed "$gseed" --emit "$TMP" >/dev/null
  GIMG="$TMP/gen-${gseed}-small.cimg"
  "$BIN" profile "$GIMG" g_main g_doc g_idle >/dev/null
  "$BIN" analyze "$GIMG" ethernet >/dev/null
  # The validated sweep re-solves every grid point with Dinic on the full,
  # uncontracted network, so this also pins the solver's cuts.
  "$BIN" sweep "$GIMG" --json > "$TMP/sweep_gen_${gseed}.json"
  check_expected "sweep_gen_${gseed}.json" "generated sweep"
  "$BIN" chaos "$GIMG" g_main ethernet --seed 7 --trials 5 > "$TMP/chaos_gen_${gseed}.txt"
  check_expected "chaos_gen_${gseed}.txt" "generated chaos summary"
  grep -q "invariants: ok" "$TMP/chaos_gen_${gseed}.txt" \
    || { echo "chaos invariants violated on generated seed ${gseed}"; exit 1; }
  # A four-machine placement pins the multiway cut on generated graphs.
  "$BIN" place "$GIMG" g_main ethernet --machines 4 > "$TMP/place_gen_${gseed}.txt"
  check_expected "place_gen_${gseed}.txt" "generated placement"
done
"$BIN" chaos "$TMP/gen-3-small.cimg" g_main ethernet --seed 7 --trials 5 --jobs 4 \
  > "$TMP/chaos_gen_3_jobs4.txt"
cmp "$TMP/chaos_gen_3.txt" "$TMP/chaos_gen_3_jobs4.txt" \
  || { echo "generated chaos summary differs between --jobs 1 and --jobs 4"; exit 1; }
# Both explore runs go through the recovery solver, so their summaries are
# pinned against committed expectations as well as across --jobs.
"$BIN" explore gen:3 g_main --faults-at 4000,9000,14000 --thresholds 1,3 > "$TMP/explore_gen_3.txt"
"$BIN" explore gen:3 g_main --faults-at 4000,9000,14000 --thresholds 1,3 --jobs 4 \
  > "$TMP/explore_b.txt"
cmp "$TMP/explore_gen_3.txt" "$TMP/explore_b.txt" \
  || { echo "explore summary differs between --jobs 1 and --jobs 4"; exit 1; }
check_expected explore_gen_3.txt "explore summary"
grep -q "invariants: ok" "$TMP/explore_gen_3.txt" \
  || { echo "explore found invariant violations on gen seed 3"; exit 1; }
# The drift-armed axis: drift polls and drift re-solves must be just as
# independent of the job count.
"$BIN" explore gen:3 g_main --faults-at 4000,9000,14000 --thresholds 1,3 --drift \
  > "$TMP/explore_gen_3_drift.txt"
"$BIN" explore gen:3 g_main --faults-at 4000,9000,14000 --thresholds 1,3 --drift --jobs 4 \
  > "$TMP/explore_drift_b.txt"
cmp "$TMP/explore_gen_3_drift.txt" "$TMP/explore_drift_b.txt" \
  || { echo "drift-armed explore summary differs between --jobs 1 and --jobs 4"; exit 1; }
check_expected explore_gen_3_drift.txt "drift-armed explore summary"
grep -q "invariants: ok" "$TMP/explore_gen_3_drift.txt" \
  || { echo "drift-armed explore found invariant violations on gen seed 3"; exit 1; }
# Drift-armed and replicated together, on a medium app: the explore mode
# the benchmark's recovery workload runs.
"$BIN" explore gen:7:medium g_main --faults-at 4000,9000,14000,21000 --thresholds 1,3 \
  --drift --replicate --jobs 1 > "$TMP/explore_drift_rep_a.txt"
"$BIN" explore gen:7:medium g_main --faults-at 4000,9000,14000,21000 --thresholds 1,3 \
  --drift --replicate --jobs 4 > "$TMP/explore_drift_rep_b.txt"
cmp "$TMP/explore_drift_rep_a.txt" "$TMP/explore_drift_rep_b.txt" \
  || { echo "drift-armed replicated explore summary differs between --jobs 1 and --jobs 4"; exit 1; }
grep -q "invariants: ok" "$TMP/explore_drift_rep_a.txt" \
  || { echo "drift-armed replicated explore found invariant violations on gen seed 7"; exit 1; }

echo "==> observability smoke (--trace/--metrics, byte-identical across runs)"
# Same image, plan, and seed must export byte-identical trace and metrics
# files — the whole point of keeping host time out of the default export.
for tag in a b; do
  "$BIN" run "$IMG" o_oldtb3 ethernet \
    --fault-plan examples/faults/demo.fplan --fault-seed 7 \
    --trace "$TMP/trace_${tag}.json" --metrics "$TMP/metrics_${tag}.json" \
    > /dev/null
done
cmp "$TMP/trace_a.json" "$TMP/trace_b.json" \
  || { echo "same-seed runs exported different traces"; exit 1; }
cmp "$TMP/metrics_a.json" "$TMP/metrics_b.json" \
  || { echo "same-seed runs exported different metrics"; exit 1; }
grep -q '"name":"run","cat":"pipeline","ph":"B"' "$TMP/trace_a.json" \
  || { echo "trace is missing the run phase span"; exit 1; }
grep -q '"name":"icc_call"' "$TMP/trace_a.json" \
  || { echo "trace is missing cut-crossing call instants"; exit 1; }
grep -q '"name":"fault_drop"' "$TMP/trace_a.json" \
  || { echo "trace is missing fault-injection instants"; exit 1; }
grep -q '"coign_cross_machine_calls_total":' "$TMP/metrics_a.json" \
  || { echo "metrics snapshot is missing the run counters"; exit 1; }

echo "==> replication placement smoke (coign place, 3 machines vs committed expectations)"
# The multiway solver must be deterministic, and replication must be
# opt-in and legality-gated: without `--replicate` the output carries no
# replicas and matches the committed plain placement byte for byte; with
# it, the base placement is unchanged and only the replica section grows.
# Regenerate after an intentional change with:
#   scripts/ci.sh --regen-fault-expectations
PIMG="$TMP/octarine_place.cimg"
"$BIN" instrument octarine "$PIMG" >/dev/null
"$BIN" profile "$PIMG" o_oldwp7 >/dev/null
"$BIN" place "$PIMG" o_oldwp7 ethernet --machines 3 > "$TMP/place_plain.txt"
"$BIN" place "$PIMG" o_oldwp7 ethernet --machines 3 --replicate > "$TMP/place_replicate.txt"
for name in place_plain place_replicate; do
  check_expected "${name}.txt" "placement output"
done
"$BIN" place "$PIMG" o_oldwp7 ethernet --machines 3 > "$TMP/place_plain_2.txt"
cmp "$TMP/place_plain.txt" "$TMP/place_plain_2.txt" \
  || { echo "plain placement differs between two identical runs"; exit 1; }
grep -q "replicas: none" "$TMP/place_plain.txt" \
  || { echo "plain placement placed replicas without --replicate"; exit 1; }
diff <(grep '^  machine' "$TMP/place_plain.txt") <(grep '^  machine' "$TMP/place_replicate.txt") \
  || { echo "--replicate moved the base placement"; exit 1; }
grep -q "replicas: [1-9]" "$TMP/place_replicate.txt" \
  || { echo "--replicate found no legal replica on the annotated app"; exit 1; }

echo "==> serving-harness smoke (coign serve vs committed expectation, --jobs cross-check)"
# The serve summary is fully simulated, so it must be byte-identical for a
# given seed — across machines (the committed expectation) and across
# worker counts. Reuses the gen-3 image profiled above. Regenerate after
# an intentional change with:
#   scripts/ci.sh --regen-fault-expectations
"$BIN" serve "$TMP/gen-3-small.cimg" g_main ethernet --sessions 2000 --seed 7 \
  > "$TMP/serve_gen_3.txt"
check_expected "serve_gen_3.txt" "serve summary"
"$BIN" serve "$TMP/gen-3-small.cimg" g_main ethernet --sessions 2000 --seed 7 --jobs 4 \
  > "$TMP/serve_gen_3_jobs4.txt"
cmp "$TMP/serve_gen_3.txt" "$TMP/serve_gen_3_jobs4.txt" \
  || { echo "serve summary differs between --jobs 1 and --jobs 4"; exit 1; }
# --no-batch is a second wire model, pinned like the first — not merely
# required to differ from it.
"$BIN" serve "$TMP/gen-3-small.cimg" g_main ethernet --sessions 2000 --seed 7 --no-batch \
  > "$TMP/serve_gen_3_nobatch.txt"
if cmp -s "$TMP/serve_gen_3.txt" "$TMP/serve_gen_3_nobatch.txt"; then
  echo "serve --no-batch produced an identical summary; batching is inert"
  exit 1
fi
check_expected serve_gen_3_nobatch.txt "unbatched serve summary"
"$BIN" serve "$TMP/gen-3-small.cimg" g_main ethernet --sessions 2000 --seed 7 --no-batch \
  --jobs 4 > "$TMP/serve_gen_3_nobatch_jobs4.txt"
cmp "$TMP/serve_gen_3_nobatch.txt" "$TMP/serve_gen_3_nobatch_jobs4.txt" \
  || { echo "unbatched serve summary differs between --jobs 1 and --jobs 4"; exit 1; }

echo "==> serve telemetry smoke (--timeline bytes, --jobs cross-check, --slo-p99-us)"
# The timeline is recorded on the simulated clock and merged in shard
# order, so its bytes are pinned exactly like the summary. Regenerate
# after an intentional change with scripts/ci.sh --regen-fault-expectations.
"$BIN" serve "$TMP/gen-3-small.cimg" g_main ethernet --sessions 2000 --seed 7 \
  --timeline "$TMP/serve_gen_3_timeline.json" > /dev/null
check_expected "serve_gen_3_timeline.json" "serve timeline"
"$BIN" serve "$TMP/gen-3-small.cimg" g_main ethernet --sessions 2000 --seed 7 --jobs 4 \
  --timeline "$TMP/serve_gen_3_timeline_jobs4.json" > /dev/null
cmp "$TMP/serve_gen_3_timeline.json" "$TMP/serve_gen_3_timeline_jobs4.json" \
  || { echo "serve timeline differs between --jobs 1 and --jobs 4"; exit 1; }
"$BIN" serve "$TMP/gen-3-small.cimg" g_main ethernet --sessions 2000 --seed 7 \
  --slo-p99-us 1 > "$TMP/serve_gen_3_slo.txt"
grep -q "^slo: target p99<=1us:" "$TMP/serve_gen_3_slo.txt" \
  || { echo "serve --slo-p99-us printed no SLO block"; exit 1; }
grep -q "worst window" "$TMP/serve_gen_3_slo.txt" \
  || { echo "serve --slo-p99-us attributed no worst window"; exit 1; }

echo "==> degraded-serve smoke (fault injection + replica failover, --jobs cross-check)"
# Under a seeded fault plan the serve summary must stay byte-identical per
# seed — the fault RNG rides the shard seed, never the worker schedule —
# and the run must actually exercise the failover path: a machine dies,
# replica-covered calls re-resolve without a solve, and recovery epochs
# land in the summary. Regenerate after an intentional change with:
#   scripts/ci.sh --regen-fault-expectations
"$BIN" serve "$TMP/gen-3-small.cimg" g_main ethernet --sessions 2000 --seed 7 \
  --fault-seed 7 --replicate > "$TMP/serve_gen_3_faults.txt"
check_expected "serve_gen_3_faults.txt" "degraded serve summary"
"$BIN" serve "$TMP/gen-3-small.cimg" g_main ethernet --sessions 2000 --seed 7 \
  --fault-seed 7 --replicate --jobs 4 > "$TMP/serve_gen_3_faults_jobs4.txt"
cmp "$TMP/serve_gen_3_faults.txt" "$TMP/serve_gen_3_faults_jobs4.txt" \
  || { echo "degraded serve summary differs between --jobs 1 and --jobs 4"; exit 1; }
grep -q "^failover: " "$TMP/serve_gen_3_faults.txt" \
  || { echo "degraded serve reported no failover line"; exit 1; }
grep -Eq "^recovery: [1-9][0-9]* epoch" "$TMP/serve_gen_3_faults.txt" \
  || { echo "degraded serve recorded no recovery epoch"; exit 1; }
# The same plan through the other three faulted surfaces, each pinned and
# --jobs cross-checked: the unbatched wire (its own failure site), the
# faulted timeline columns (recoveries/degraded/replica_served), and the
# sampled session trace (spans plus the failover instants).
DEGRADED=("$TMP/gen-3-small.cimg" g_main ethernet --sessions 2000 --seed 7 --fault-seed 7 --replicate)
for jobs in 1 4; do
  "$BIN" serve "${DEGRADED[@]}" --jobs "$jobs" --no-batch \
    > "$TMP/serve_gen_3_nobatch_faults.txt.$jobs"
  "$BIN" serve "${DEGRADED[@]}" --jobs "$jobs" \
    --timeline "$TMP/serve_gen_3_faults_timeline.json.$jobs" > /dev/null
  "$BIN" serve "${DEGRADED[@]}" --jobs "$jobs" \
    --trace "$TMP/serve_gen_3_trace.json.$jobs" --trace-sample 500 > /dev/null
done
for name in serve_gen_3_nobatch_faults.txt serve_gen_3_faults_timeline.json serve_gen_3_trace.json; do
  cmp "$TMP/$name.1" "$TMP/$name.4" \
    || { echo "$name differs between --jobs 1 and --jobs 4"; exit 1; }
  mv "$TMP/$name.1" "$TMP/$name"
  check_expected "$name" "degraded serve output"
done
grep -q '"name":"failover"' "$TMP/serve_gen_3_trace.json" \
  || { echo "degraded serve trace is missing the failover instant"; exit 1; }
# The zero-fault seed is the explicit transparency case: byte-identical to
# the committed clean-wire expectation, inject line and all counters absent.
"$BIN" serve "$TMP/gen-3-small.cimg" g_main ethernet --sessions 2000 --seed 7 \
  --fault-seed 0 > "$TMP/serve_gen_3_fs0.txt"
cmp "$TMP/serve_gen_3.txt" "$TMP/serve_gen_3_fs0.txt" \
  || { echo "--fault-seed 0 perturbed the zero-fault serve summary"; exit 1; }

echo "==> paper reproduction (repro_all vs committed expectation)"
# Every table and figure of the paper plus the §3.2 overhead summary, all
# simulated and seeded: a change that moves a paper number shows up here as
# a diff, and EXPERIMENTS.md quotes this file. Regenerate after an
# intentional change with:
#   scripts/ci.sh --regen-fault-expectations
target/release/repro_all > "$TMP/repro_all.txt"
check_expected repro_all.txt "paper reproduction"
target/release/repro_all ablation netfit probe > /dev/null
if target/release/repro_all nosuch > /dev/null 2>&1; then
  echo "repro_all accepted an unknown section name"
  exit 1
fi

echo "CI OK"
