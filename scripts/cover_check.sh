#!/usr/bin/env bash
# cover_check.sh <coverprofile> — enforce the coverage floor.
#
# The floor ratchets: it starts at the figure measured when the gate was
# introduced (91.5% over ./internal/..., floored to 91.0 to absorb
# scheduling-dependent coverage of concurrency branches) and may only be
# raised.
set -euo pipefail

profile=${1:?usage: cover_check.sh <coverprofile>}
floor=91.0

total=$(go tool cover -func="$profile" | awk '/^total:/ { gsub(/%/, "", $3); print $3 }')
[ -n "$total" ] || { echo "cover_check: no total in $profile" >&2; exit 1; }

awk -v t="$total" -v f="$floor" 'BEGIN {
  if (t + 0 < f + 0) {
    printf "coverage gate FAILED: %.1f%% is below the floor of %.1f%%\n", t, f
    exit 1
  }
  printf "coverage gate passed: %.1f%% (floor %.1f%%)\n", t, f
}'
