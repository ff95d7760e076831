#!/usr/bin/env bash
# Pins the exact (wall-clock-free) counters of one traced run each of
# `oneshot_dg10`, `serve_cold_dg03`, `serve_warm_dg03`,
# `serve_warm_cpu_dg03` and `sessions_10k_tiny`: the partition
# stream, the kernel's work, the bytes shipped, the modelled seconds and the
# CST sizes are
# functions of the code and the seed-independent inputs, so a host-speed
# change that shifts any of them changed the decomposition, not only its
# speed. Both flows' builds scan top-down: a cold serving session builds one
# contiguous shard with no probe and no seeding (the T = 1 rule of
# `FastConfig::build_options`), so the construct counters are pinned on the
# one-shot and the cold-serving run. The cold-serving run is also the one
# whose partitioner fans out at the root (`PartitionConfig::root_fanout`,
# 16 chunks at the first split; every DG03 query has W_CST / N_o >= 142, so
# the work rule never caps it): a change to the fan-out moves its
# partition and kernel counters. The tiny-sessions run is the one whose
# fan-out the work rule caps: its triangle's CST has W_CST 1928 against
# N_o 512, so each session dispatches floor(1928 / 512) = 3 root chunks.
# The warm run is the one a kernel-speed claim is made on: the same kernel
# work as the cold run, every session a tier-2 hit, nothing evicted
# (structural on a fully primed cache under the default budget). The warm
# CPU run is the one an engine-speed claim is made
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

# Serving re-pinned when cold sessions stopped probing and seeding 16 shard
# builds and built one CST fanned out at the root instead:
# - partitions 217 -> 257: the fan-out cuts every multi-candidate root into
#   16 children, also on q1-q3 and q8, whose plans had one shard;
# - kernel n/m/rounds/cycles fall (n 34268995 -> 32931199): the kernel
#   searches the fan-out's children, each forward-pruned to its root chunk
#   by Algorithm 2's labels, instead of the planned shards' partitions;
# - cst_bytes 12401300 -> 13469812 and adjacency_entries 2077198 ->
#   2518998: one unsharded CST per query is bigger than the 16 shard CSTs
#   that bottom-up refinement narrowed chunk by chunk;
# - seeded_share 1 -> 0 and topdown_entries pinned: nothing is seeded, so
#   every build scans top-down.
check serve_cold_dg03 '{
    "cst.partition.partitions": 257,
    "cst.partition.forced": 0,
    "fast.kernel.n": 32931199,
    "fast.kernel.m": 33993582,
    "fast.kernel.rounds": 68516,
    "fast.kernel.cycles": 68511616,
    "cst.construct.cst_bytes": 13469812,
    "cst.construct.adjacency_entries": 2518998,
    "cst.construct.topdown_entries": 2568522,
    "cst.pipeline.seeded_share": 0
}'

check serve_warm_dg03 '{
    "fast.kernel.n": 32931199,
    "fast.kernel.m": 33993582,
    "fast.kernel.rounds": 68516,
    "fast.kernel.cycles": 68511616,
    "serve.cache.cst_hit_rate": 1,
    "serve.cache.evictions": 0
}'

# intersection_elements 2765533 -> 2506293 with the serve blocks above: the
# engine searches the same root-fanned partitions the kernel does.
check serve_warm_cpu_dg03 '{
    "matching.engine.intersection_elements": 2506293,
    "serve.cache.cst_hit_rate": 1,
    "serve.cache.evictions": 0
}'

# The fan-out is capped at floor(W_CST / N_o) chunks, so no chunk carries
# less than one kernel round of estimated work. Before the cap each session
# dispatched 16 quarter-round partitions (n 1626, m 1155, rounds 48, cycles
# 3252); three root chunks each prune less than sixteen did, so n and cycles
# rise while rounds fall.
check sessions_10k_tiny '{
    "fast.kernel.n": 2381,
    "fast.kernel.m": 1910,
    "fast.kernel.rounds": 12,
    "fast.kernel.cycles": 4762,
    "serve.cache.cst_hit_rate": 1,
    "serve.cache.evictions": 0
}'
