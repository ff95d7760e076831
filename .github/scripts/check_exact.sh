#!/usr/bin/env bash
# Pins the exact (wall-clock-free) counters of one traced run each of
# `oneshot_dg10`, `serve_cold_dg03`, `serve_warm_dg03` and
# `serve_warm_cpu_dg03`: the partition
# stream, the kernel's work, the bytes shipped, the modelled seconds and the
# CST sizes are
# functions of the code and the seed-independent inputs, so a host-speed
# change that shifts any of them changed the decomposition, not only its
# speed. The one-shot run is the only one whose builds scan top-down
# (`topdown_entries` is 0 under serving, where every shard is probe-seeded),
# so the construct counters are pinned on it too. The cold-serving run is
# the one that goes through the shard
# planner — a planner that starts choosing different shard counts moves its
# partition and kernel counters. The warm run is the one a kernel-speed
# claim is made on: the same kernel work as the cold run, every session a
# tier-2 hit, nothing evicted (structural on a fully primed cache under the
# default budget). The warm CPU run is the one an engine-speed claim is made
# on: the same service with two CPU shares, whose search work is
# `matching.engine.intersection_elements`. Reads each run's last stdout line
# (`{"correct": ..., "metrics": {name: {"value": ...}}}`).
set -euo pipefail
cd "$(dirname "$0")/../.."

check() {
    local workload="$1" expected="$2" line
    line="$(bash benchmark/run.sh --workload "$workload" --seed 7 --seconds 2 --trace 1 | tail -n 1)"
    python3 - "$workload" "$expected" "$line" <<'PY'
import json, sys

workload, expected, result = sys.argv[1], json.loads(sys.argv[2]), json.loads(sys.argv[3])
wrong = [
    f"{name}: expected {want!r}, got {result['metrics'].get(name, {}).get('value')!r}"
    for name, want in expected.items()
    if result["metrics"].get(name, {}).get("value") != want
]
if result.get("correct") is not True:
    wrong.append(f"correct: expected True, got {result.get('correct')!r}")
if result.get("failed") != 0:
    wrong.append(f"failed: expected 0, got {result.get('failed')!r}")
if wrong:
    sys.exit(f"{workload} exact counters moved:\n  " + "\n  ".join(wrong))
print(f"{workload} exact counters hold ({len(expected)} metrics, correct, 0 failed)")
PY
}

check oneshot_dg10 '{
    "cst.partition.partitions": 554,
    "cst.partition.forced": 0,
    "fast.kernel.n": 101188726,
    "fast.kernel.m": 107349853,
    "fast.kernel.rounds": 214797,
    "fast.kernel.cycles": 214703966,
    "fpga_sim.cycles.transfer_bytes": 76053644,
    "modelled_total_s": 1.383551475666667,
    "cst.construct.adjacency_entries": 8394684,
    "cst.construct.topdown_entries": 8576842,
    "cst.construct.cst_bytes": 44741112
}'

check serve_cold_dg03 '{
    "cst.partition.partitions": 217,
    "cst.partition.forced": 0,
    "fast.kernel.n": 34268995,
    "fast.kernel.m": 35353910,
    "fast.kernel.rounds": 71106,
    "fast.kernel.cycles": 71209722,
    "cst.construct.cst_bytes": 12401300,
    "cst.construct.adjacency_entries": 2077198,
    "cst.pipeline.seeded_share": 1
}'

check serve_warm_dg03 '{
    "fast.kernel.n": 34268995,
    "fast.kernel.m": 35353910,
    "fast.kernel.rounds": 71106,
    "fast.kernel.cycles": 71209722,
    "serve.cache.cst_hit_rate": 1,
    "serve.cache.evictions": 0
}'

check serve_warm_cpu_dg03 '{
    "matching.engine.intersection_elements": 2765533,
    "serve.cache.cst_hit_rate": 1,
    "serve.cache.evictions": 0
}'
