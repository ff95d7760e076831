#!/usr/bin/env bash
# Pins the exact (wall-clock-free) counters of one traced `oneshot_dg10`
# run: the partition stream, the kernel's work, the bytes shipped and the
# modelled seconds are functions of the code and the seed-independent
# DG10 inputs, so a host-speed change that shifts any of them changed the
# decomposition, not only its speed. Reads the run's last stdout line
# (`{"correct": ..., "metrics": {name: {"value": ...}}}`).
set -euo pipefail
cd "$(dirname "$0")/../.."

line="$(bash benchmark/run.sh --workload oneshot_dg10 --seed 7 --seconds 2 --trace 1 | tail -n 1)"

python3 - "$line" <<'PY'
import json, sys

expected = {
    "cst.partition.partitions": 554,
    "cst.partition.forced": 0,
    "fast.kernel.n": 101188726,
    "fast.kernel.m": 107349853,
    "fast.kernel.rounds": 214797,
    "fast.kernel.cycles": 214703966,
    "fpga_sim.cycles.transfer_bytes": 76053644,
    "modelled_total_s": 1.383551475666667,
}
result = json.loads(sys.argv[1])
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
    sys.exit("oneshot_dg10 exact counters moved:\n  " + "\n  ".join(wrong))
print(f"oneshot_dg10 exact counters hold ({len(expected)} metrics, correct, 0 failed)")
PY
