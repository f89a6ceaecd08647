#!/usr/bin/env bash
# Tier-1 gate: what must stay green on every PR.
#
#   build (release)  — the crates compile with optimisations, as the
#                      report binary and benches are actually run;
#   test (workspace) — every crate's unit, integration and doc tests:
#                      the `mcommerce` facade's suites (the fleet
#                      determinism properties in tests/fleet_props.rs,
#                      the trace determinism properties in
#                      tests/trace_props.rs, the fault-injection
#                      properties in tests/fault_props.rs, the
#                      many-user faulted-island digest in
#                      tests/shared_world_props.rs
#                      (many_user_islands_under_faults_keep_their_recorded_digest),
#                      the island allocation and live-heap ceilings in
#                      tests/shared_island_allocs.rs, and the step
#                      writers' in-place property and session-content
#                      digest in tests/step_writers.rs) and each
#                      crate's own, such as the fleet engine's and
#                      the topology's unit tests, the memo and
#                      island-membership properties, the event
#                      queue's re-key property in simnet::contend
#                      (rekeying_the_earliest_event_equals_pop_then_push),
#                      the libm-free rounding against libm in
#                      simnet::time (secs_to_ns_equals_libm_rounding_*),
#                      the fixed hasher's streaming property and
#                      pinned values in simnet::hash
#                      (chunked_writes_hash_like_one_write,
#                      recorded_values_pin_the_hash_across_processes),
#                      the dense histogram against a BTreeMap one in
#                      crates/obs/tests/hist_props.rs
#                      (window_histogram_equals_the_btreemap_histogram),
#                      the expectation memo against the word walk in
#                      core::workload
#                      (memoised_verdicts_equal_the_word_walk_and_enter_only_shared_pages)
#                      the air link's per-transfer pricing against
#                      a per-frame oracle in core::netpath
#                      (pricing_a_full_fragment_once_equals_pricing_every_frame),
#                      the streamed digest, the precomputed-state MAC
#                      and the streamed payment messages against their
#                      concatenating oracles in security::{hash, mac,
#                      payment} (every_two_way_split_of_every_length_to_200_equals_the_one_shot_hash,
#                      any_split_streams_like_the_one_shot_hash,
#                      precomputed_key_states_equal_the_concatenating_mac,
#                      streamed_canonical_messages_equal_the_formatted_bytes),
#                      the borrowed host request against an
#                      owned-BTreeMap model in hostsite::cache
#                      (borrowed_requests_read_like_the_owned_btreemap_model),
#                      the inline version chain against a vector
#                      model in hostsite::db::mvcc
#                      (an_inline_chain_equals_the_vector_model) and
#                      first-registered routing in hostsite::server
#                      (the_first_registered_program_serves_every_request);
#   clippy (-D warnings, whole workspace) — lints are errors;
#   doc (-D warnings, whole workspace) — rustdoc builds with no broken
#                      or redundant intra-doc links, so docs cannot
#                      keep pointing at types that were deleted;
#   bench (compile)  — the Criterion benches build;
#   report smoke     — the F4 engine experiment runs end to end and
#                      emits well-formed BENCH_engine.json;
#   obs smoke        — the F5 observability experiment runs with
#                      --trace, emits well-formed BENCH_obs.json and
#                      Chrome-trace JSON, the disabled-recorder
#                      overhead stays within the 3% budget, and the
#                      traced-fleet overhead stays within 25%;
#   faults smoke     — the F6 fault-injection experiment runs end to
#                      end, emits well-formed BENCH_faults.json, the
#                      retry policy strictly beats the bare fleet at
#                      every non-zero storm intensity, a zero-fault
#                      plan is byte-identical to no plan, and the TCP
#                      sender aborts against a dead peer;
#   cache smoke      — the F7 caching experiment runs end to end,
#                      emits well-formed BENCH_cache.json, warm p50
#                      and p99 beat cold whenever the TTL outlives
#                      the revisit interval, the zero-TTL fleet is
#                      byte-identical to a cache-free fleet, and
#                      every cache layer's hit counters light up;
#   contention smoke — the F8 shared-world experiment runs end to end,
#                      emits well-formed BENCH_contention.json, p99
#                      latency is non-decreasing in population (the
#                      knee), the shared gateway cache's hit rate
#                      grows with population, the 1-user shared world
#                      is byte-identical to the per-user world,
#                      and every sweep point is byte-identical at
#                      1/2/4 threads;
#   telemetry smoke  — the F10 fleet-telemetry experiment runs end to
#                      end, emits well-formed BENCH_telemetry.json,
#                      the disabled-telemetry branch costs <= 3% in the
#                      micro cell, the series exports are byte-
#                      identical at 1/2/4/8 threads, telemetry on/off
#                      leaves summary and trace bit-identical, and
#                      every shared resource registered its series;
#                      the F8 step runs with --dash, so the resource
#                      dashboard renders, the knee is attributed to a
#                      named resource, and the Perfetto counter-track
#                      trace parses;
#   benchdiff        — fresh quick artefacts diff clean against the
#                      committed baselines in bench/baselines/ (wall-
#                      clock metrics are informational; deterministic
#                      metrics gate at 1%), and an injected regression
#                      makes the diff fail;
#   scale smoke      — the F9 fleet-scale experiment runs its quick
#                      grid ({10k, 100k} users × {1, 4, 8} threads,
#                      each cell in its own subprocess), emits
#                      well-formed BENCH_scale.json with the full
#                      schema, the merged-counter digest is identical
#                      across thread counts at every population, and
#                      peak RSS at 100k users stays under 128 MB (the
#                      engine streams; memory must not scale with the
#                      population);
#   db smoke         — the F11 durable-storage experiment runs end to
#                      end, emits well-formed BENCH_db.json, the
#                      explicit zero-cost durability policy is byte-
#                      identical to a policy-free fleet at 1/2/4/8
#                      threads, free fsyncs charge zero WAL time,
#                      recovery outage is monotone in journal length,
#                      and the group-commit fsync arithmetic holds;
#   search smoke     — the F12 full-text-search experiment runs end to
#                      end, emits well-formed BENCH_search.json, warm
#                      search p50 is strictly below cold at a covering
#                      TTL, indexed search byte-equals the brute-force
#                      scan, the search-heavy fleet is byte-identical
#                      at 1/2/4/8 threads, cold search cost is monotone
#                      in catalog size, memo hits fall as the write
#                      rate rises, and 10k distinct queries leave the
#                      page cache holding no keys (flat memory);
#   examples smoke   — the Scenario-driven examples run clean (their
#                      internal asserts are the gate);
#   fleetbench       — the benchmark's self-tests pass, and a short
#                      end-to-end pass (--trace 0) and per-layer pass
#                      (--trace 1) of each workload report
#                      "correct": true: every digest (measured seed 0
#                      and the canary) matches the recorded references,
#                      so a library change that moves a digest fails;
#                      the per-layer pass also requires every
#                      deterministic per-layer count to repeat across
#                      processes and, on storefront_isolated, the
#                      public-call replay to reproduce the fleet digest;
#                      then the canary and seeds 0-3 of every workload
#                      (15 full populations) are re-recorded with
#                      --record-references and must equal the rows
#                      recorded in fleetbench/src/workload.rs, so island
#                      hosts cloned from a seeded template are checked
#                      against freshly seeded ones on whole fleets.
#
# Run from anywhere; the script cds to the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings -D clippy::perf
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
cargo bench --no-run
cargo run --release -p bench --bin report -- --quick --f4
python3 -m json.tool BENCH_engine.json > /dev/null
cargo run --release -p bench --bin report -- --quick --f5 --trace
python3 -m json.tool BENCH_obs.json > /dev/null
python3 -m json.tool TRACE_fleet.trace.json > /dev/null
python3 - <<'PY'
import json
doc = json.load(open("BENCH_obs.json"))
# Gates check the *floor* (minimum per-repetition ratio): scheduler
# noise on a shared box only inflates ratios, while a real regression
# lifts every pairing, floor included.
pct = doc["storm"]["overhead_disabled_floor_pct"]
assert pct <= 3.0, f"disabled-recorder overhead floor {pct:.2f}% exceeds the 3% budget"
assert doc["fleet"]["trace_events"] > 0, "traced fleet produced no events"
fleet_pct = doc["fleet"]["overhead_floor_pct"]
assert fleet_pct <= 25.0, (
    f"traced-fleet overhead floor {fleet_pct:.2f}% exceeds the 25% budget"
)
print(f"obs gate: disabled overhead floor {pct:+.2f}% (budget 3%); "
      f"traced fleet floor {fleet_pct:+.2f}% "
      f"(median {doc['fleet']['overhead_pct']:+.2f}%, budget 25%)")
PY
cargo run --release -p bench --bin report -- --quick --f6
python3 -m json.tool BENCH_faults.json > /dev/null
python3 - <<'PY'
import json
doc = json.load(open("BENCH_faults.json"))
for row in doc["sweep"]:
    if row["intensity"] > 0:
        assert row["retry_availability"] > row["bare_availability"], (
            f"intensity {row['intensity']}: retry {row['retry_availability']} "
            f"does not beat bare {row['bare_availability']}"
        )
assert doc["zero_fault_identical"], "zero-fault fleet diverged from plan-free fleet"
assert doc["dead_peer"]["aborted"], "TCP sender failed to abort against a dead peer"
assert doc["trace"]["fault_events"] > 0, "no fault events reached the flight recorder"
worst = min(r["retry_availability"] - r["bare_availability"]
            for r in doc["sweep"] if r["intensity"] > 0)
print(f"faults gate: retry dominates bare (min margin {worst:+.4f}); "
      f"dead peer aborted at {doc['dead_peer']['abort_secs']:.0f}s")
PY
cargo run --release -p bench --bin report -- --quick --f7
python3 -m json.tool BENCH_cache.json > /dev/null
python3 - <<'PY'
import json
doc = json.load(open("BENCH_cache.json"))
for row in doc["sweep"]:
    if row["ttl_s"] >= 30 and row["think_s"] <= 1:
        assert row["p50_ms"] < row["cold_p50_ms"], f"warm p50 not below cold: {row}"
        assert row["p99_ms"] < row["cold_p99_ms"], f"warm p99 not below cold: {row}"
        assert row["gateway_hits"] > 0, f"no gateway hits: {row}"
assert doc["zero_ttl_identical"], "zero-TTL fleet diverged from cache-free fleet"
assert doc["counters"]["page_hits"] > 0, "page cache never hit"
assert doc["counters"]["db_hits"] > 0, "query cache never hit"
gated = [r for r in doc["sweep"] if r["ttl_s"] >= 30 and r["think_s"] <= 1]
best = min(r["p50_ms"] / r["cold_p50_ms"] for r in gated)
print(f"cache gate: warm p50 down to {best:.2f}x of cold; zero-TTL identity holds")
PY
cargo run --release -p bench --bin report -- --quick --f8 --dash
python3 -m json.tool BENCH_contention.json > /dev/null
python3 -m json.tool TRACE_fleet.counters.trace.json > /dev/null
test -s TELEMETRY_fleet.jsonl
python3 - <<'PY'
import json
doc = json.load(open("BENCH_contention.json"))
knee = doc["knee"]
for prev, cur in zip(knee, knee[1:]):
    assert cur["p99_ms"] >= prev["p99_ms"], (
        f"p99 fell as population grew: {prev['users']} users {prev['p99_ms']} ms "
        f"-> {cur['users']} users {cur['p99_ms']} ms"
    )
assert knee[-1]["contended_share"] > 0, "largest population never contended"
growth = doc["cache_growth"]
assert growth[-1]["hit_rate"] > growth[0]["hit_rate"], (
    f"shared cache hit rate did not grow with population: "
    f"{growth[0]['hit_rate']} -> {growth[-1]['hit_rate']}"
)
assert doc["one_user_identical"], "1-user shared world diverged from the legacy world"
assert doc["thread_identity"], "shared world diverged across thread counts"
print(f"contention gate: p99 {knee[0]['p99_ms']:.0f} -> {knee[-1]['p99_ms']:.0f} ms "
      f"across the knee; shared hit rate {growth[0]['hit_rate']:.2f} -> "
      f"{growth[-1]['hit_rate']:.2f}; both identities hold")
PY
python3 - <<'PY'
import json
events = json.load(open("TRACE_fleet.counters.trace.json"))["traceEvents"]
counters = [e for e in events if e.get("ph") == "C"]
names = {e["name"] for e in counters}
assert any("gateway" in n and "cpu_util" in n for n in names), (
    f"no gateway-utilization counter track in the Perfetto trace: {sorted(names)}"
)
assert any("cache_hit_rate" in n for n in names), (
    f"no shared-cache hit-rate counter track in the Perfetto trace: {sorted(names)}"
)
lines = [l for l in open("TELEMETRY_fleet.jsonl") if l.strip()]
series = set()
for l in lines:
    row = json.loads(l)
    for key in ("series", "kind", "t_ns", "bin_ns", "sum", "weight", "max", "milli"):
        assert key in row, f"telemetry jsonl row missing {key}: {row}"
    series.add(row["series"])
print(f"dash gate: {len(names)} counter tracks, {len(counters)} counter events, "
      f"{len(lines)} telemetry rows across {len(series)} series")
PY
cargo run --release -p bench --bin report -- --quick --f10
python3 -m json.tool BENCH_telemetry.json > /dev/null
python3 - <<'PY'
import json
doc = json.load(open("BENCH_telemetry.json"))
pct = doc["micro"]["disabled"]["overhead_disabled_floor_pct"]
assert pct <= 3.0, f"disabled-telemetry overhead floor {pct:.2f}% exceeds the 3% budget"
assert doc["thread_identity"], "telemetry exports diverged across thread counts"
assert doc["run_identity"], "telemetry changed the simulation outcome"
assert doc["export_stable"], "telemetry exports diverged between identical runs"
peaks = doc["peaks"]
assert len(peaks) >= 5, f"expected >=5 registered series, got {len(peaks)}"
names = [p["series"] for p in peaks]
assert names == sorted(names), f"series not in canonical order: {names}"
for want in ("cell0000.airtime_util", "gateway0000.cpu_util",
             "gateway0000.cache_hit_rate", "host0000.cpu_util",
             "host0000.queue_depth"):
    assert want in names, f"missing series {want}: {names}"
print(f"telemetry gate: disabled overhead {pct:+.2f}% (budget 3%); "
      f"{len(peaks)} series; all identities hold")
PY
cargo run --release -p bench --bin report -- --quick --f9
python3 -m json.tool BENCH_scale.json > /dev/null
python3 - <<'PY'
import json
doc = json.load(open("BENCH_scale.json"))
assert doc["experiment"] == "F9_scale"
assert doc["identical_across_threads"] is True
pops, threads, cells = doc["populations"], doc["threads"], doc["cells"]
assert len(cells) == len(pops) * len(threads), "F9 grid incomplete"
for key in ("users", "threads", "wall_secs", "transactions", "tps",
            "peak_rss_bytes", "digest"):
    assert all(key in c for c in cells), f"F9 cell missing {key}"
for pop in pops:
    digests = {c["digest"] for c in cells if c["users"] == pop}
    assert len(digests) == 1, (
        f"{pop} users: merged-counter digest diverges across threads: {digests}"
    )
for c in cells:
    if c["users"] == 100_000 and c["peak_rss_bytes"] > 0:
        assert c["peak_rss_bytes"] < 128 * 1024 * 1024, (
            f"peak RSS {c['peak_rss_bytes']} exceeds the 128 MB budget at 100k users"
        )
best = max(c["tps"] for c in cells)
print(f"scale gate: {len(cells)}-cell grid complete; digests identical at every "
      f"population; 100k-user RSS under 128 MB; best {best:,.0f} txns/s")
PY
cargo run --release -p bench --bin report -- --quick --f11
python3 -m json.tool BENCH_db.json > /dev/null
python3 - <<'PY'
import json, math
doc = json.load(open("BENCH_db.json"))
assert doc["experiment"] == "F11_db"
assert doc["zero_cost_identical"], "zero-cost durability policy diverged from policy-free fleet"
for row in doc["sweep"]:
    if row["fsync_us"] == 0:
        assert row["commit_ms"] == 0, f"free fsync charged WAL time: {row}"
by_policy = {}
for row in doc["recovery"]:
    by_policy.setdefault((row["commit_batch"], row["fsync_us"]), []).append(row)
for rows in by_policy.values():
    rows.sort(key=lambda r: r["replayed"])
    for prev, cur in zip(rows, rows[1:]):
        assert cur["outage_ms"] > prev["outage_ms"], (
            f"recovery outage not monotone in journal length: {prev} -> {cur}"
        )
for name, fsyncs in doc["fsyncs_per_100_commits"].items():
    batch = int(name.split("_")[1])
    assert fsyncs == math.ceil(100 / batch), f"batch {batch}: {fsyncs} fsyncs"
assert doc["index_entries_rebuilt"] > 0, "recovery rebuilt no index entries"
paid = sorted((r for r in doc["sweep"] if r["fsync_us"] == 1000),
              key=lambda r: r["commit_batch"])
print(f"db gate: zero-cost identity holds; 1 ms fsync WAL time "
      f"{paid[0]['commit_ms']:.0f} -> {paid[-1]['commit_ms']:.0f} ms from batch "
      f"{paid[0]['commit_batch']} to {paid[-1]['commit_batch']}; "
      f"recovery monotone over {len(by_policy)} policies")
PY
cargo run --release -p bench --bin report -- --quick --f12
python3 -m json.tool BENCH_search.json > /dev/null
python3 - <<'PY'
import json
doc = json.load(open("BENCH_search.json"))
assert doc["experiment"] == "F12_search"
legs = {l["leg"]: l for l in doc["latency"]}
assert legs["warm"]["p50_ms"] < legs["cold"]["p50_ms"], (
    f"warm search p50 not below cold: {legs['warm']} vs {legs['cold']}"
)
assert legs["warm"]["search_ms"] < legs["cold"]["search_ms"], (
    "memoized searches must cost less simulated CPU"
)
assert legs["cold"]["memo_hits"] == 0 and legs["warm"]["memo_hits"] > 0
assert doc["search_equals_scan"], "indexed search diverged from brute-force scan"
assert doc["thread_identical"], "search fleet diverged across thread counts"
assert doc["interner_flat"], "distinct queries left keys held in the page cache"
sizes = doc["index_size"]
for prev, cur in zip(sizes, sizes[1:]):
    assert cur["cold_search_ns"] > prev["cold_search_ns"], (
        f"search cost not monotone in catalog size: {prev} -> {cur}"
    )
rates = doc["write_rate"]
for row in rates:
    assert row["memo_hits"] + row["memo_misses"] == 100, f"short leg: {row}"
for prev, cur in zip(rates, rates[1:]):
    assert cur["memo_hits"] < prev["memo_hits"], (
        f"memo hits not falling with write rate: {prev} -> {cur}"
    )
print(f"search gate: warm p50 {legs['warm']['p50_ms']:.1f} ms < cold "
      f"{legs['cold']['p50_ms']:.1f} ms; index == scan; identical at 1/2/4/8 "
      f"threads; no keys held after 10k distinct queries")
PY
cargo run --release -p bench --bin benchdiff -- bench/baselines .
python3 - <<'PY'
import json
doc = json.load(open("bench/baselines/BENCH_contention.json"))
doc["knee"][-1]["p99_ms"] *= 2
json.dump(doc, open("BENCH_regressed.baseline.json", "w"))
PY
if cargo run --release -p bench --bin benchdiff -- \
    BENCH_regressed.baseline.json BENCH_contention.json > /dev/null 2>&1; then
  echo "benchdiff gate: FAILED to flag an injected 2x p99 regression" >&2
  rm -f BENCH_regressed.baseline.json
  exit 1
fi
rm -f BENCH_regressed.baseline.json
echo "benchdiff gate: baselines match and the injected regression was flagged"
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
