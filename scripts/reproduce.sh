#!/usr/bin/env bash
# Full reproduction: tests (all claims asserted), the report examples,
# and the benchmark declared in BENCHMARK.json. Expect ~20 minutes on a
# laptop.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== 1/4: test suite (every claim in EXPERIMENTS.md is asserted here) =="
cargo test --workspace

echo "== 2/4: report examples =="
cargo run --release --example full_report
cargo run --release --example latency_tables
cargo run --release --example atomic_commit
cargo run --release --example fd_hierarchy

echo "== 3/4: CLI smoke =="
cargo run --release -- latency -n 3 -t 1
cargo run --release -- verify floodset-ws rws -n 3 -t 1
cargo run --release -- refute-sdd

echo "== 4/4: benchmark (the gated workloads of BENCHMARK.json) =="
for workload in engine failover; do
    python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 30 --trace 0
done

echo "Reproduction complete. See EXPERIMENTS.md for the claim-by-claim map."
