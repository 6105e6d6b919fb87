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

# Release builds wrap integer overflow where debug builds panic, so the
# simulator's and the sequence crate's size arithmetic, and the kernels'
# bit-plane shifts at word boundaries, are tested in both.
echo "== tests (release): gpu-sim, genome, cas-offinder =="
cargo test --release -q -p gpu-sim -p genome -p cas-offinder

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

# Formatting of every tracked Rust file, except the Table I programming-
# steps test (kept byte-for-byte as written) and perfbench (a workspace of
# its own).
echo "== rustfmt --check =="
git ls-files -z '*.rs' \
  | grep -zv -e '^tests/programming_steps\.rs$' -e '^perfbench/' \
  | xargs -0 rustfmt --check --edition 2021

# perfbench is its own package (empty `[workspace]`), so the workspace
# build above never compiles it; its self-test keeps it building against
# the runner and serving APIs it drives.
echo "== perfbench (build + self-test) =="
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# A short run of the paper's serial searches: exits 1 on any result that
# differs from the CPU oracle or any round whose simulated time drifts.
echo "== perfbench: paper_search =="
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
  --workload paper_search --seed 1 --seconds 2 --trace 0

# Short runs of the serving stack: every job's records are checked byte
# for byte against the CPU oracle, and the run exits 1 on any mismatch,
# typed error, shed or job that never completes.
echo "== perfbench: serve_mixed =="
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
  --workload serve_mixed --seed 1 --seconds 2 --trace 0

# A traced run of the same workload, gated on one per-layer metric read
# by key from the closing JSON record: every pattern on a device shares
# its one resident store, so nearly every batch finds its chunk there.
echo "== perfbench: serve_mixed resident hit rate (traced) =="
hit_rate=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
  --workload serve_mixed --seed 1 --seconds 2 --trace 1 \
  | tail -n 1 | jq -e '.metrics["scheduler.resident_hit_rate"].value')
echo "scheduler.resident_hit_rate $hit_rate"
jq -en --argjson rate "$hit_rate" '$rate >= 0.9' > /dev/null \
  || { echo "resident hit rate $hit_rate is below 0.9"; exit 1; }

echo "== perfbench: library_screen =="
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
  --workload library_screen --seed 1 --seconds 2 --trace 0

echo "== smoke: repro table1 =="
cargo run --release -p casoff-bench --bin repro -- table1

# The paper scorecard: exits 1 when any claim no longer reproduces.
echo "== scorecard: repro summary =="
cargo run --release -p casoff-bench --bin repro -- summary

# The simulator is deterministic, so two runs of the paper's experiments
# print the same bytes and write the same fig2.csv. Each run works in a
# directory of its own, so the tracked fig2.csv is left as it is.
echo "== determinism: repro experiments twice =="
repro="$PWD/target/release/repro"
repro_dir=$(mktemp -d)
for run in 1 2; do
  mkdir "$repro_dir/$run"
  (cd "$repro_dir/$run" \
    && "$repro" table8 table9 table10 fig2 shares ablations > stdout.txt)
done
diff -r "$repro_dir/1" "$repro_dir/2" \
  || { echo "two repro runs differ"; rm -rf "$repro_dir"; exit 1; }
rm -rf "$repro_dir"

# The demo asserts its own serving gates on the unrounded values before it
# exits (replay result-store hits, zero char fallback on the masked
# assembly, warm variant hits and specialization speedup, QoS fairness and
# deadline misses, sharding resident hits and plan error, library-screen
# speedup, candidate hits and launch ratio, autoscaled SLO violations and
# device-seconds saved); a failed gate panics and `set -e` stops here.
echo "== smoke: serve throughput =="
CASOFF_SERVE_JOBS=120 cargo run --release --example serve_demo
test -s BENCH_serve.json || { echo "BENCH_serve.json missing"; exit 1; }
# The rewritten record keeps the committed record's keys, in their order,
# so a rerun diffs against it value by value.
diff <(git show HEAD:BENCH_serve.json | grep -o '"[^"]*":') \
  <(grep -o '"[^"]*":' BENCH_serve.json) \
  || { echo "BENCH_serve.json keys differ from the committed record"; exit 1; }

# Fails unless the adaptive chunk cache's hit rate beats the raw cache's
# at the shared byte budget on the clean assembly.
echo "== bench: chunk cache, adaptive vs raw payloads =="
cargo bench -q -p casoff-bench --bench serve_cache

echo "== bench: specialized vs generic comparers =="
cargo bench -q -p casoff-bench --bench serve_specialize

echo "== bench: library screens, fused vs per-guide =="
cargo bench -q -p casoff-bench --bench serve_library

echo "== bench: trace generator, window ring, autoscale controller =="
cargo bench -q -p casoff-bench --bench serve_trace

echo "== tier-1 OK =="
