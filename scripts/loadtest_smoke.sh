#!/usr/bin/env bash
# loadtest_smoke.sh — smoke test of the workload subsystem, run as
# `make loadtest-smoke`.
#
# Builds factcheck-loadtest, runs the mixed-fleet virtual-time scenario
# twice against the in-process serving stack, asserts the JSON report is
# well-formed and clean (no op errors, users actually ran), and asserts
# the two runs are byte-identical — the bit-reproducibility contract
# that makes virtual reports CI-safe artifacts. Then runs the same
# scenario once on the wall clock in process, and finishes by running
# every shipped scenario once, so a preset can never rot silently.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

fail() {
  echo "loadtest-smoke: FAIL: $*" >&2
  exit 1
}

go build -o "$workdir/factcheck-loadtest" ./cmd/factcheck-loadtest

scenario=examples/scenarios/mixed-fleet.json
"$workdir/factcheck-loadtest" -scenario "$scenario" -out "$workdir/report1.json" \
  || fail "loadtest run 1 failed"
"$workdir/factcheck-loadtest" -scenario "$scenario" -out "$workdir/report2.json" -quiet \
  || fail "loadtest run 2 failed"

# Bit-reproducibility: same scenario file + seed => identical reports.
cmp -s "$workdir/report1.json" "$workdir/report2.json" \
  || fail "virtual reports differ across identical runs"
echo "loadtest-smoke: two virtual runs produced byte-identical reports"

# Well-formedness: the report carries the telemetry sections and ends
# as complete JSON.
for key in '"scenario": "mixed-fleet"' '"mode": "virtual"' '"usersStarted"' \
           '"answers"' '"answersPerSecond"' '"opCounts"' '"quality"' \
           '"meanPrecision"' '"usersPerGroup"'; do
  grep -q "$key" "$workdir/report1.json" || fail "report missing $key"
done
[ "$(tail -c 2 "$workdir/report1.json")" = "}" ] || fail "report is truncated"
grep -q '"errors": 0' "$workdir/report1.json" || fail "scenario run reported op errors"
grep -q '"usersStarted": 0' "$workdir/report1.json" && fail "no users started"

# The virtual report must not leak wall-clock measurements.
grep -q '"latency"' "$workdir/report1.json" && fail "virtual report contains wall latency"

# The same scenario on the wall clock, in process: the lifecycle runs
# on real time (240 virtual seconds compressed to 3) and the report
# carries the measured sections a virtual report leaves out.
"$workdir/factcheck-loadtest" -scenario "$scenario" -mode wall -time-scale 80 \
  -out "$workdir/wall.json" -quiet || fail "wall-mode run failed"
grep -q '"mode": "wall"' "$workdir/wall.json" || fail "wall report is not in wall mode"
grep -q '"errors": 0' "$workdir/wall.json" || fail "wall run reported op errors"
grep -q '"usersStarted": 0' "$workdir/wall.json" && fail "wall run started no users"
grep -q '"latency"' "$workdir/wall.json" || fail "wall report has no latency section"
echo "loadtest-smoke: in-process wall run OK"

# Every shipped preset must load and run.
for s in examples/scenarios/*.json; do
  "$workdir/factcheck-loadtest" -scenario "$s" -out "$workdir/preset.json" -quiet \
    || fail "preset $s failed"
  grep -q '"errors": 0' "$workdir/preset.json" || fail "preset $s reported op errors"
  echo "loadtest-smoke: preset $(basename "$s") OK"
done

echo "loadtest-smoke: OK"
