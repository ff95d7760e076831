#!/usr/bin/env bash
# Guards what 10,000 outstanding sessions cost in memory: one untraced run
# of `sessions_10k_tiny` must be correct, fail no operation, and peak at
# no more than 40 MiB resident. The workload collects its window
# newest-first, so every session finishes before the first is read and
# the peak holds all of their undelivered events at once. Each session's
# mailbox holds only its own events (about 4 for the tiny triangle); a
# per-session queue with a fixed block of slots (as `std::sync::mpsc`
# allocates, ~6.4 KB each) reads about 80 MiB here. Reads the run's last
# stdout line (`{"correct": ..., "failed": ..., "metrics": {name:
# {"value": ...}}}`).
set -euo pipefail
cd "$(dirname "$0")/../.."

line="$(bash benchmark/run.sh --workload sessions_10k_tiny --seed 7 --seconds 2 --trace 0 | tail -n 1)"
python3 - "$line" <<'PY'
import json, sys

LIMIT_MB = 40.0
result = json.loads(sys.argv[1])
rss = result["metrics"].get("peak_rss_mb", {}).get("value")
wrong = []
if result.get("correct") is not True:
    wrong.append(f"correct: expected True, got {result.get('correct')!r}")
if result.get("failed") != 0:
    wrong.append(f"failed: expected 0, got {result.get('failed')!r}")
if not isinstance(rss, (int, float)) or rss > LIMIT_MB:
    wrong.append(f"peak_rss_mb: expected <= {LIMIT_MB}, got {rss!r}")
if wrong:
    sys.exit("sessions_10k_tiny session memory:\n  " + "\n  ".join(wrong))
print(f"sessions_10k_tiny peak_rss_mb {rss:.1f} <= {LIMIT_MB} (correct, 0 failed)")
PY
