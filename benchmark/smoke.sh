#!/usr/bin/env bash
# Smoke run: all five workloads, untraced then traced, at a twentieth of the
# benchmark's length (one second of timed work, 0.2 s of set-up
# repetitions). Golden counts are checked and the same metric names are
# printed; bounds are not. Finishes in under 45 s once built — the hook a CI
# job can call.
set -euo pipefail
here="$(dirname "$0")"
bash "$here/run.sh" --seconds 1 --trace 0
bash "$here/run.sh" --seconds 1 --trace 1
