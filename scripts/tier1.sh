#!/usr/bin/env bash
# Tier-1 verification: build, full test suite, lints, and a smoke run of
# the paper reproduction — everything offline (the workspace is std-only).
#
#   scripts/tier1.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release --workspace

echo "== tests =="
cargo test -q --workspace

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

# perfbench is its own package (empty `[workspace]`), so the workspace
# build above never compiles it; its self-test keeps it building against
# the runner and serving APIs it drives.
echo "== perfbench (build + self-test) =="
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== smoke: repro table1 =="
cargo run --release -p casoff-bench --bin repro -- table1

# The paper scorecard: exits 1 when any claim no longer reproduces.
echo "== scorecard: repro summary =="
cargo run --release -p casoff-bench --bin repro -- summary

echo "== smoke: serve throughput =="
CASOFF_SERVE_JOBS=120 cargo run --release --example serve_demo
test -s BENCH_serve.json || { echo "BENCH_serve.json missing"; exit 1; }
# The replay pass re-submits round 0's specs against the live service;
# every one of them must come straight out of the result store.
replay_rate=$(sed -n 's/.*"second_pass_result_cache_hit_rate": \([0-9.]*\).*/\1/p' BENCH_serve.json)
awk -v r="${replay_rate:-0}" 'BEGIN { exit !(r > 0) }' \
  || { echo "replay result-cache hit rate is ${replay_rate:-absent}; expected > 0"; exit 1; }
# On the exception-dense assembly the adaptive cache must keep every
# batch off the char comparer — the 4-bit nibble path serves them all.
char_fallback=$(sed -n 's/.*"char_fallback_batches": \([0-9]*\).*/\1/p' BENCH_serve.json)
awk -v n="${char_fallback:-1}" 'BEGIN { exit !(n == 0) }' \
  || { echo "char-fallback batches on masked workload: ${char_fallback:-absent}; expected 0"; exit 1; }
# After warmup every (pattern, threshold, encoding) variant must come out
# of the variant cache — a sub-90% hit rate means the cache is thrashing
# or the digest key is unstable across identical queries.
variant_hit=$(sed -n 's/.*"warm_variant_hit_rate": \([0-9.]*\).*/\1/p' BENCH_serve.json)
awk -v r="${variant_hit:-0}" 'BEGIN { exit !(r >= 0.9) }' \
  || { echo "warm variant-cache hit rate is ${variant_hit:-absent}; expected >= 0.9"; exit 1; }
# The constant-folded variants must actually buy throughput on the warm
# cache, not just smaller code.
spec_speedup=$(sed -n 's/.*"specialize_speedup": \([0-9.]*\).*/\1/p' BENCH_serve.json)
awk -v s="${spec_speedup:-0}" 'BEGIN { exit !(s >= 1.15) }' \
  || { echo "specialized warm speedup is ${spec_speedup:-absent}; expected >= 1.15"; exit 1; }
# Under the 4/2/1 open-loop overload the weighted fair queue must hold
# per-tenant goodput within 15% of the configured weight shares.
fairness=$(sed -n 's/.*"fairness_max_deviation": \([0-9.e-]*\).*/\1/p' BENCH_serve.json)
awk -v f="${fairness:-1}" 'BEGIN { exit !(f <= 0.15) }' \
  || { echo "QoS fairness deviation is ${fairness:-absent}; expected <= 0.15"; exit 1; }
# Deadline-aware admission only accepts SLOs the device model says are
# feasible, so no admitted job may finish past its deadline.
deadline_misses=$(sed -n '/^  "qos": /s/.*"deadline_misses": \([0-9]*\).*/\1/p' BENCH_serve.json)
awk -v n="${deadline_misses:-1}" 'BEGIN { exit !(n == 0) }' \
  || { echo "QoS deadline misses: ${deadline_misses:-absent}; expected 0"; exit 1; }
# Under planned placement the one-pass warmup must leave essentially every
# post-warmup batch on a device already holding its chunk (read from the
# sharding object; the affinity pass reports the same field).
shard_hits=$(sed -n '/^  "sharding": /s/.*"resident_hit_rate": \([0-9.]*\).*/\1/p' BENCH_serve.json)
awk -v r="${shard_hits:-0}" 'BEGIN { exit !(r >= 0.95) }' \
  || { echo "sharding resident hit rate is ${shard_hits:-absent}; expected >= 0.95"; exit 1; }
# The plan's pre-run makespan prediction (calibrated models + the
# scheduler's decayed bias corrections) must land within 10% of the
# measured post-warmup scan.
plan_err=$(sed -n 's/.*"plan_prediction_error": \([0-9.]*\).*/\1/p' BENCH_serve.json)
awk -v e="${plan_err:-1}" 'BEGIN { exit !(e <= 0.10) }' \
  || { echo "sharding plan prediction error is ${plan_err:-absent}; expected <= 0.10"; exit 1; }
# The warm library screen — cached candidate lists plus fused multi-guide
# comparer launches — must beat the per-guide baseline screen outright.
screen_speedup=$(sed -n 's/.*"screen_speedup": \([0-9.]*\).*/\1/p' BENCH_serve.json)
awk -v s="${screen_speedup:-0}" 'BEGIN { exit !(s >= 1.5) }' \
  || { echo "library screen speedup is ${screen_speedup:-absent}; expected >= 1.5"; exit 1; }
# Post-warmup essentially every sweep must find its (chunk, pattern)
# candidate list already published.
cand_hits=$(sed -n 's/.*"candidate_hit_rate": \([0-9.]*\).*/\1/p' BENCH_serve.json)
awk -v r="${cand_hits:-0}" 'BEGIN { exit !(r >= 0.9) }' \
  || { echo "library candidate hit rate is ${cand_hits:-absent}; expected >= 0.9"; exit 1; }
# Fused launches must cover whole guide blocks: at most one comparer
# launch per ten coalesced jobs, against one-per-guide unfused.
launch_ratio=$(sed -n 's/.*"comparer_launch_ratio": \([0-9.]*\).*/\1/p' BENCH_serve.json)
awk -v r="${launch_ratio:-1}" 'BEGIN { exit !(r <= 0.1) }' \
  || { echo "library comparer launch ratio is ${launch_ratio:-absent}; expected <= 0.1"; exit 1; }
# Replaying the open-loop trace against the elastic pool, the autoscaler
# must hold the end-to-end p99 SLO to at most a 1% violation rate.
slo_viol=$(sed -n 's/.*"p99_slo_violation_rate": \([0-9.]*\).*/\1/p' BENCH_serve.json)
awk -v v="${slo_viol:-1}" 'BEGIN { exit !(v <= 0.01) }' \
  || { echo "autoscaled p99 SLO violation rate is ${slo_viol:-absent}; expected <= 0.01"; exit 1; }
# ...while provisioning at least 15% fewer device-seconds than the
# peak-static fleet — the cost side of the elasticity trade.
ds_saved=$(sed -n 's/.*"device_seconds_saved": \([0-9.]*\).*/\1/p' BENCH_serve.json)
awk -v s="${ds_saved:-0}" 'BEGIN { exit !(s >= 0.15) }' \
  || { echo "autoscaled device-seconds saved is ${ds_saved:-absent}; expected >= 0.15"; exit 1; }

echo "== bench: specialized vs generic comparers =="
cargo bench -q -p casoff-bench --bench serve_specialize

echo "== bench: library screens, fused vs per-guide =="
cargo bench -q -p casoff-bench --bench serve_library

echo "== bench: trace generator, window ring, autoscale controller =="
cargo bench -q -p casoff-bench --bench serve_trace

echo "== tier-1 OK =="
