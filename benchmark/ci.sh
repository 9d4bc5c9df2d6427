#!/usr/bin/env bash
# The benchmark's own CI: offline build, smoke test, regression pins at the
# default seed; with --aa also the A/A agreement check (about 30 minutes).
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --offline
cargo test --release --offline
cd ..
cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- \
    --check-expected --seconds 1
if [[ "${1:-}" == "--aa" ]]; then
    python3 benchmark/aa.py
fi
