#!/usr/bin/env bash
# Tier-1 gate: what must stay green on every PR. Each step says what it
# runs and where its checks live.
#
#   build, test     — the workspace builds in release, and every crate's
#                     unit, property, integration and doc tests pass
#                     (`cargo test --workspace`), including the benchdiff
#                     regression test in crates/bench/tests/;
#   clippy, doc     — lints (with clippy::perf) and broken or redundant
#                     doc links are errors;
#   pub_unused      — every `pub fn` in a library under crates/ has a user
#                     outside it (scripts/pub_unused.sh prints nothing);
#   bench           — the Criterion benches compile;
#   report --fN     — each experiment runs on its quick workload, writes
#                     its BENCH_*.json artefact (F5 with --trace also the
#                     fleet trace, F8 with --dash the telemetry and
#                     counter-track files), parses every file it wrote
#                     back with obs::json, and prints its gates with the
#                     measured value and bound; it exits non-zero if a
#                     file does not parse or a gate fails. The gates are
#                     `<Numbers>::gates` in crates/bench/src/*_experiment.rs
#                     and `contention_experiment::dash_gates`;
#   benchdiff       — the fresh artefacts match bench/baselines/
#                     (deterministic metrics within 1%, wall-clock ones
#                     informational);
#   examples        — the Scenario-driven examples run clean (their own
#                     asserts are the gate);
#   fleetbench      — the benchmark's self-tests pass; a one-second pass
#                     of each workload at --trace 0 and 1 reports
#                     "correct": true (every digest matches its recorded
#                     reference, and per-layer counts repeat across
#                     processes); the canary and seeds 0-3 of every
#                     workload re-record equal to fleetbench/src/workload.rs.
#
# Run from anywhere; the script cds to the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings -D clippy::perf
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
unused=$(scripts/pub_unused.sh)
if [ -n "$unused" ]; then
  echo "$unused" >&2
  echo "pub_unused: the pub fns above have no user outside their library" >&2
  exit 1
fi
cargo bench --no-run
cargo run --release -p bench --bin report -- --quick --f4
cargo run --release -p bench --bin report -- --quick --f5 --trace
cargo run --release -p bench --bin report -- --quick --f6
cargo run --release -p bench --bin report -- --quick --f7
cargo run --release -p bench --bin report -- --quick --f8 --dash
cargo run --release -p bench --bin report -- --quick --f10
cargo run --release -p bench --bin report -- --quick --f9
cargo run --release -p bench --bin report -- --quick --f11
cargo run --release -p bench --bin report -- --quick --f12
cargo run --release -p bench --bin benchdiff -- bench/baselines .
cargo run -q --release --example quickstart > /dev/null
cargo run -q --release --example secure_checkout > /dev/null
cargo run -q --release --example roaming_payment > /dev/null
cargo test --release --offline --manifest-path fleetbench/Cargo.toml
for workload in storefront_isolated metro_browse_shared search_checkout_shared; do
  for trace in 0 1; do
    last=$(cargo run --release --quiet --offline --manifest-path fleetbench/Cargo.toml -- \
      --workload "$workload" --seed 0 --seconds 1 --trace "$trace" | tail -n 1)
    case "$last" in
      '{"correct": true,'*) echo "fleetbench gate: $workload --trace $trace is correct" ;;
      *) echo "fleetbench gate: $workload --trace $trace is not correct: $last" >&2; exit 1 ;;
    esac
  done
done
if ! diff <(grep -E '^    \("[a-z_]+", [0-3], ' fleetbench/src/workload.rs) \
    <(cargo run --release --quiet --offline --manifest-path fleetbench/Cargo.toml -- \
      --record-references 0 3); then
  echo "fleetbench gate: re-recorded digests differ from fleetbench/src/workload.rs" >&2
  exit 1
fi
echo "fleetbench gate: the canary and seeds 0-3 of every workload match the recorded digests"
echo "tier1: OK"
