#!/bin/sh
# Scale-1.0 performance smoke: runs the iterated solve at the PUBLISHED
# benchmark sizes and prints the solution digests and wall times. Compare
# the digests across commits to check byte-identity claims at full scale.
# This is the CI-optional "fullscale" job (workflow_dispatch + nightly
# cron); the tier-1 jobs never run at this scale.
#
#   scripts/fullscale.sh
#
# Tunables (environment):
#   FULLSCALE_BENCHES   comma-separated benchmark subset (default keeps the
#                       job time-boxed to the two smallest boards)
#   FULLSCALE_ROUNDS    feedback-round budget (default 1)
#   FULLSCALE_SCALE     suite scale factor (default 1.0; lower it to smoke
#                       the script itself)
#   FULLSCALE_OUT       scratch/output directory (default /tmp/fullscale)
set -eu
cd "$(dirname "$0")/.."

BENCHES="${FULLSCALE_BENCHES:-synopsys01,synopsys02}"
ROUNDS="${FULLSCALE_ROUNDS:-1}"
SCALE="${FULLSCALE_SCALE:-1.0}"
OUT="${FULLSCALE_OUT:-/tmp/fullscale}"
mkdir -p "$OUT"

echo "== build"
go build -o "$OUT/bench" ./cmd/bench

echo "== scale $SCALE, workers=1"
"$OUT/bench" -benchjson "$OUT/perf.json" -scale "$SCALE" -benchmarks "$BENCHES" \
  -rounds "$ROUNDS" -reps 1 -workers 1 -v

echo "== solution digests"
grep -o '"solution_sha256": "[a-f0-9]*"' "$OUT/perf.json"
echo "== wall times (ms)"
grep -o '"wall_ms": [0-9.]*' "$OUT/perf.json"
echo "OK"
