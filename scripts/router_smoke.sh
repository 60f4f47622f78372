#!/usr/bin/env bash
# router_smoke.sh — end-to-end smoke test of the scale-out placement
# layer, run as `make router-smoke`.
#
# Boots three factcheck-server backends sharing one durable -data-dir
# plus a factcheck-router over them, then drives one session through
# the router with oracle answers while the fleet degrades under it:
# the owning backend is killed with SIGKILL mid-session (failover via
# write-ahead-log revival on the rerouted owner), and the next owner is
# then drained via POST /fleet/leave (live export/import migration).
# The full served trace must equal the in-process library path from
# scripts/tracecheck — the bit-identical-trace contract across both a
# crash and a migration. Finishes with a wall-mode factcheck-loadtest
# run of the router-fleet preset against the router, with one mid-run
# drain + rejoin, and asserts the report scraped fleet-aggregated
# metrics. Needs only curl + standard tools (no jq).
#
# On failure the backend and router logs are copied to
# ./router-smoke-logs so CI can upload them as artifacts.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
datadir="$workdir/data"
router_pid=""
backend_pids=()
backend_bases=()

fail() {
  echo "router-smoke: FAIL: $*" >&2
  mkdir -p router-smoke-logs
  cp "$workdir"/*.log router-smoke-logs/ 2>/dev/null || true
  echo "router-smoke: logs copied to ./router-smoke-logs" >&2
  for f in "$workdir"/*.log; do
    [ -f "$f" ] || continue
    echo "--- $f ---" >&2
    cat "$f" >&2
  done
  exit 1
}

cleanup() {
  status=$?
  [ -n "$router_pid" ] && { kill -TERM "$router_pid" 2>/dev/null || true; wait "$router_pid" 2>/dev/null || true; }
  for p in "${backend_pids[@]:-}"; do
    [ -n "$p" ] && { kill -TERM "$p" 2>/dev/null || true; wait "$p" 2>/dev/null || true; }
  done
  rm -rf "$workdir"
  exit $status
}
trap cleanup EXIT

go build -o "$workdir/factcheck-server" ./cmd/factcheck-server
go build -o "$workdir/factcheck-router" ./cmd/factcheck-router
go build -o "$workdir/factcheck-loadtest" ./cmd/factcheck-loadtest

# wait_announce <log> <name>: parse the bound address from an announce
# line, bounded; echoes the base URL.
wait_announce() {
  local log=$1 name=$2 base=""
  for _ in $(seq 1 150); do
    base=$(sed -n "s#^$name listening on \(http://[^ ]*\).*#\1#p" "$log" | head -1)
    [ -n "$base" ] && break
    sleep 0.1
  done
  [ -n "$base" ] || fail "$name did not announce an address ($log)"
  echo "$base"
}

# Three backends on one shared durable store: the configuration where a
# SIGKILLed owner's sessions revive on whichever backend the ring
# reroutes them to.
for i in 1 2 3; do
  "$workdir/factcheck-server" -addr 127.0.0.1:0 -id "b$i" -idle-ttl 1m \
    -data-dir "$datadir" -checkpoint-every 3 \
    >"$workdir/backend$i.log" 2>&1 &
  backend_pids[i]=$!
  backend_bases[i]=$(wait_announce "$workdir/backend$i.log" factcheck-server)
  echo "router-smoke: backend b$i at ${backend_bases[i]}"
done

"$workdir/factcheck-router" -addr 127.0.0.1:0 -probe-interval 500ms \
  -backends "${backend_bases[1]},${backend_bases[2]},${backend_bases[3]}" \
  >"$workdir/router.log" 2>&1 &
router_pid=$!
base=$(wait_announce "$workdir/router.log" factcheck-router)
echo "router-smoke: router at $base"

curl -sf "$base/v1/fleet" | grep -q '"ringMembers":\[[^]]*,[^]]*,[^]]*\]' \
  || fail "fleet did not report 3 ring members: $(curl -sf "$base/v1/fleet")"

# Open one session THROUGH the router; same configuration the library
# trace below replays.
open=$(curl -sf -X POST "$base/v1/sessions" \
  -H 'Content-Type: application/json' \
  -d '{"profile":"wiki","scale":0.1,"seed":42,"candidatePool":8,"communities":3}') \
  || fail "open through the router rejected"
id=$(echo "$open" | grep -o '"id":"[^"]*"' | cut -d'"' -f4)
[ -n "$id" ] || fail "no session id in: $open"
echo "router-smoke: opened session $id through the router"

next=$(curl -sf "$base/v1/sessions/$id/next?k=1") || fail "first /next rejected"
claim=$(echo "$next" | grep -o '"claim":[0-9]*' | head -1 | cut -d: -f2)
seq=$(echo "$next" | grep -o '"seq":[0-9]*' | head -1 | cut -d: -f2)
[ -n "$claim" ] || fail "no candidate in: $next"

answers=0
trace=""
# answer_loop <n>: drive up to n oracle answers through the router,
# echoing each seq (the idempotency token that makes retries across
# failover safe). Needs $claim/$seq current; leaves them current.
answer_loop() {
  local n=$1 i st
  for i in $(seq 1 "$n"); do
    st=$(curl -sf -X POST "$base/v1/sessions/$id/answer" \
      -H 'Content-Type: application/json' \
      -d "{\"claim\":$claim,\"oracle\":true,\"seq\":$seq}") || fail "answer rejected (after $answers answers)"
    trace="$trace $claim"
    answers=$((answers + 1))
    echo "$st" | grep -q '"done":true' && break
    claim=$(echo "$st" | grep -o '"expected":-\{0,1\}[0-9]*' | cut -d: -f2)
    seq=$(echo "$st" | grep -o '"seq":[0-9]*' | head -1 | cut -d: -f2)
    [ "$claim" != "-1" ] || fail "no expected claim in: $st"
  done
}

# find_owner: the backend whose own /healthz holds the live session.
find_owner() {
  local i
  for i in 1 2 3; do
    kill -0 "${backend_pids[i]}" 2>/dev/null || continue
    curl -sf "${backend_bases[i]}/v1/healthz" 2>/dev/null | grep -q '"sessions":1' && { echo "$i"; return; }
  done
  return 1
}

answer_loop 3
owner=$(find_owner) || fail "no backend reports the live session"
echo "router-smoke: session lives on b$owner; killing it with SIGKILL"

kill -9 "${backend_pids[owner]}"
wait "${backend_pids[owner]}" 2>/dev/null || true
backend_pids[owner]=""

# The next answers ride the failover: the router sees the transport
# error, drops b$owner from the ring, and the new owner revives the
# session from the shared write-ahead log.
answer_loop 3
grep -q "marked down" "$workdir/router.log" || fail "router never marked the killed backend down"
new_owner=$(find_owner) || fail "no backend picked the session up after the kill"
[ "$new_owner" != "$owner" ] || fail "owner unchanged after SIGKILL"
echo "router-smoke: failover to b$new_owner survived SIGKILL; draining b$new_owner next"

# Drain the new owner: live export/import migration onto the last
# backend, exercised through the /fleet control plane.
curl -sf -X POST "$base/v1/fleet/leave" -H 'Content-Type: application/json' \
  -d "{\"url\":\"${backend_bases[new_owner]}\"}" >/dev/null \
  || fail "fleet/leave of b$new_owner rejected"
grep -q "\"msg\":\"session migrated\".*\"session\":\"$id\"" "$workdir/router.log" \
  || fail "drain of b$new_owner did not migrate the session"

answer_loop 3
[ "$answers" -ge 9 ] || fail "only $answers answers driven"

# The contract: the claims served across open -> SIGKILL -> drain must
# be the exact sequence the in-process library path produces.
want_trace=$(go run ./scripts/tracecheck -profile wiki -scale 0.1 -communities 3 \
  -seed 42 -pool 8 -steps "$answers") || fail "tracecheck failed"
got_trace=$(echo $trace)
[ "$got_trace" = "$want_trace" ] || fail "served trace diverged from the library path:
served:  $got_trace
library: $want_trace"
echo "router-smoke: trace bit-identical to the library path across SIGKILL + drain ($answers answers)"

curl -sf -X DELETE "$base/v1/sessions/$id" >/dev/null || fail "DELETE through the router rejected"

# Wall-mode loadtest against the router, with a mid-run drain + rejoin:
# the closed-loop fleet must ride the migrations out via Retry-After,
# and the report must scrape the fleet-aggregated /metrics.
curl -sf -X POST "$base/v1/fleet/join" -H 'Content-Type: application/json' \
  -d "{\"url\":\"${backend_bases[new_owner]}\"}" >/dev/null \
  || fail "rejoin of b$new_owner rejected"

"$workdir/factcheck-loadtest" -scenario examples/scenarios/router-fleet.json \
  -target "$base" -mode wall -time-scale 40 -duration 240 \
  -out "$workdir/report.json" -quiet &
lt_pid=$!
sleep 2
curl -sf -X POST "$base/v1/fleet/leave" -H 'Content-Type: application/json' \
  -d "{\"url\":\"${backend_bases[new_owner]}\"}" >/dev/null \
  || fail "mid-run fleet/leave rejected"
curl -sf -X POST "$base/v1/fleet/join" -H 'Content-Type: application/json' \
  -d "{\"url\":\"${backend_bases[new_owner]}\"}" >/dev/null \
  || fail "mid-run rejoin rejected"
wait "$lt_pid" || fail "wall loadtest against the router failed"

# Anchor on the report's top-level indent: the nested per-endpoint
# counters also print "errors" lines.
grep -q '^  "errors": 0,' "$workdir/report.json" || fail "loadtest reported op errors through the drain"
grep -q '^  "usersStarted": 0,' "$workdir/report.json" && fail "loadtest started no users"
grep -q '"backendId": "fleet"' "$workdir/report.json" \
  || fail "report did not scrape the fleet-aggregated metrics"
grep -q '"endpoints"' "$workdir/report.json" \
  || fail "report metrics carry no per-endpoint counters"
echo "router-smoke: wall loadtest with a mid-run drain scraped fleet metrics cleanly"

# Fleet-aggregated Prometheus exposition: must lint clean, carry the
# fleet label, and count the migrations the drains above performed.
promr=$(curl -sf "$base/v1/metrics?format=prometheus") || fail "router prometheus scrape rejected"
echo "$promr" | scripts/prom_lint.sh || fail "malformed fleet Prometheus exposition:
$promr"
echo "$promr" | grep -q 'backend="fleet"' \
  || fail "fleet exposition not labeled backend=\"fleet\": $promr"
echo "$promr" | grep -q '^factcheck_migrations_total' \
  || fail "fleet exposition missing the migrations counter: $promr"
echo "$promr" | grep '^factcheck_migrations_total' | grep -qv ' 0$' \
  || fail "migrations counter stayed zero across the drains: $promr"
echo "router-smoke: fleet prometheus exposition lints clean with migrations counted"

kill -TERM "$router_pid"
wait "$router_pid" 2>/dev/null || true
router_pid=""
grep -q 'factcheck-router: stopped' "$workdir/router.log" || fail "no clean router shutdown"
echo "router-smoke: clean shutdown — router-smoke OK"
