#!/usr/bin/env bash
# Usage: check_peak_rss.sh <workload> <limit_mb>
#
# Guards what one benchmark workload costs in memory: one untraced run of
# <workload> (seed 7, 2 s) must be correct, fail no operation, and peak at
# no more than <limit_mb> MiB resident. Why each limit is what it is stays
# next to its CI step. Reads the run's last stdout line (`{"correct": ...,
# "failed": ..., "metrics": {name: {"value": ...}}}`).
set -euo pipefail
if [ "$#" -ne 2 ]; then
    echo "usage: $0 <workload> <limit_mb>" >&2
    exit 2
fi
workload="$1"
limit_mb="$2"
cd "$(dirname "$0")/../.."

line="$(bash benchmark/run.sh --workload "$workload" --seed 7 --seconds 2 --trace 0 | tail -n 1)"
python3 - "$workload" "$limit_mb" "$line" <<'PY'
import json, sys

workload, limit_mb, line = sys.argv[1], float(sys.argv[2]), sys.argv[3]
result = json.loads(line)
rss = result["metrics"].get("peak_rss_mb", {}).get("value")
wrong = []
if result.get("correct") is not True:
    wrong.append(f"correct: expected True, got {result.get('correct')!r}")
if result.get("failed") != 0:
    wrong.append(f"failed: expected 0, got {result.get('failed')!r}")
if not isinstance(rss, (int, float)) or rss > limit_mb:
    wrong.append(f"peak_rss_mb: expected <= {limit_mb}, got {rss!r}")
if wrong:
    sys.exit(f"{workload} peak memory:\n  " + "\n  ".join(wrong))
print(f"{workload} peak_rss_mb {rss:.1f} <= {limit_mb} (correct, 0 failed)")
PY
