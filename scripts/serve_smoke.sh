#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke + crash-recovery test of
# factcheck-server.
#
# Builds the server, boots it with a durable -data-dir on a free port,
# opens a session over the HTTP API, drives it with oracle-answered
# validations, streams a corpus delta into the open session over the
# /v1 ingest endpoint, exports a snapshot — then kills the server with
# SIGKILL mid-session, restarts it on the same -data-dir, asserts the
# session resumed with an identical transcript (ingest record
# included) from the checkpoint's state image plus the WAL tail — not
# by replaying the transcript — keeps answering, and asserts the full
# served trace matches the in-process library path ingesting the same
# delta at the same position (scripts/tracecheck). Finally deletes the
# session and shuts
# the server down cleanly via SIGTERM. Needs only curl + standard tools
# (no jq). Run as `make serve-smoke`.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
datadir="$workdir/data"
server_pid=""
server_log=""

# fail dumps every server log before exiting, so a CI failure is
# actionable from the job log alone.
fail() {
  echo "smoke: FAIL: $*" >&2
  for f in "$workdir"/server*.log; do
    [ -f "$f" ] || continue
    echo "--- $f ---" >&2
    cat "$f" >&2
  done
  exit 1
}

cleanup() {
  status=$?
  if [ -n "$server_pid" ]; then
    kill -TERM "$server_pid" 2>/dev/null || true
    wait "$server_pid" 2>/dev/null || true
  fi
  rm -rf "$workdir"
  exit $status
}
trap cleanup EXIT

go build -o "$workdir/factcheck-server" ./cmd/factcheck-server

# start_server <logfile>: boot on a free port with the shared data dir
# and wait (bounded) for the address announce; sets $server_pid, $base.
start_server() {
  server_log="$workdir/$1"
  "$workdir/factcheck-server" -addr 127.0.0.1:0 -idle-ttl 1m \
    -data-dir "$datadir" -checkpoint-every 3 \
    >"$server_log" 2>&1 &
  server_pid=$!
  base=""
  for _ in $(seq 1 150); do
    base=$(sed -n 's#^factcheck-server listening on \(http://[^ ]*\).*#\1#p' "$server_log" | head -1)
    [ -n "$base" ] && break
    kill -0 "$server_pid" 2>/dev/null || fail "server died before announcing an address"
    sleep 0.1
  done
  [ -n "$base" ] || fail "server did not announce an address within 15s"
  echo "smoke: server at $base (log $1)"
}

# answer_loop <n>: drive up to n oracle answers, following the expected
# claim; stops early when the session reports done. Needs $claim set to
# the current expected claim; leaves $st holding the last state.
answer_loop() {
  local n=$1 i
  st=""
  for i in $(seq 1 "$n"); do
    st=$(curl -sf -X POST "$base/v1/sessions/$id/answer" \
      -H 'Content-Type: application/json' \
      -d "{\"claim\":$claim,\"oracle\":true}") || fail "answer $i rejected"
    trace="$trace $claim"
    answers=$((answers + 1))
    precision=$(echo "$st" | grep -o '"precision":[0-9.]*' | cut -d: -f2)
    echo "smoke: answer $answers -> precision $precision"
    if echo "$st" | grep -q '"done":true'; then
      break
    fi
    claim=$(echo "$st" | grep -o '"expected":-\{0,1\}[0-9]*' | cut -d: -f2)
    [ "$claim" != "-1" ] || fail "no expected claim in: $st"
  done
}

start_server server1.log
grep -q 'recovered 0 stored session(s)' "$server_log" \
  || fail "fresh data dir did not announce an empty recovery"

# The session opens over a 3-community corpus: multiple connected
# components make the default incremental dirty-component re-ranking
# path (DESIGN.md §12) do real partial re-scoring, which the library
# trace comparison below then validates end to end.
open=$(curl -sf -X POST "$base/v1/sessions" \
  -H 'Content-Type: application/json' \
  -d '{"profile":"wiki","scale":0.1,"seed":42,"candidatePool":8,"communities":3}') \
  || fail "open request rejected"
id=$(echo "$open" | grep -o '"id":"[^"]*"' | cut -d'"' -f4)
[ -n "$id" ] || fail "no session id in: $open"
echo "smoke: opened session $id ($open)"

next=$(curl -sf "$base/v1/sessions/$id/next?k=1") || fail "first /next rejected"
claim=$(echo "$next" | grep -o '"claim":[0-9]*' | head -1 | cut -d: -f2)
[ -n "$claim" ] || fail "no candidate in: $next"
answers=0
trace=""
answer_loop 3
[ "$answers" -eq 3 ] || fail "pre-ingest drive fell short ($answers answers)"

# Stream a corpus delta into the live session over the ingest
# endpoint — byte-for-byte the delta the library path folds in after
# its 3rd answer (tracecheck -emit-delta, same profile and seeds).
delta=$(go run ./scripts/tracecheck -profile wiki -scale 0.1 -communities 3 \
  -seed 42 -pool 8 -emit-delta) || fail "tracecheck -emit-delta failed"
claims_before=$(echo "$st" | grep -o '"claims":[0-9]*' | cut -d: -f2)
ing=$(curl -sf -X POST "$base/v1/sessions/$id/claims" \
  -H 'Content-Type: application/json' -d "$delta") || fail "mid-session ingest rejected"
echo "$ing" | grep -q '"applied":true' || fail "ingest not applied inline: $ing"
claims_after=$(echo "$ing" | grep -o '"claims":[0-9]*' | head -1 | cut -d: -f2)
[ "$claims_after" -gt "$claims_before" ] \
  || fail "corpus did not grow across the ingest ($claims_before -> $claims_after): $ing"
echo "smoke: ingested corpus delta mid-session ($claims_before -> $claims_after claims)"

# The ingest re-ranks over the grown corpus: refresh the expected claim.
next=$(curl -sf "$base/v1/sessions/$id/next?k=1") || fail "/next after ingest rejected"
claim=$(echo "$next" | grep -o '"claim":[0-9]*' | head -1 | cut -d: -f2)
[ -n "$claim" ] || fail "no candidate after ingest in: $next"
answer_loop 3
[ "$answers" -ge 4 ] || fail "post-ingest drive fell short ($answers answers)"

# The /metrics endpoint must report the served answers and a populated
# answer-latency histogram (this is what factcheck-loadtest scrapes).
metrics=$(curl -sf "$base/v1/metrics?buckets=1") || fail "/metrics scrape rejected"
served=$(echo "$metrics" | grep -o '"answersServed":[0-9]*' | cut -d: -f2)
[ -n "$served" ] || fail "metrics missing answersServed: $metrics"
[ "$served" -eq "$answers" ] || fail "metrics served $served answers, drove $answers: $metrics"
echo "$metrics" | grep -q '"answerLatency":{"count":'"$answers"',' \
  || fail "metrics latency digest missing or miscounted: $metrics"
echo "$metrics" | grep -q '"answerLatencyBuckets":\[{"lo":' \
  || fail "metrics missing latency buckets: $metrics"
echo "smoke: /metrics reports $served served answers with a latency histogram"

# The same snapshot as Prometheus text exposition: must lint clean
# (scripts/prom_lint.sh is a promtool-style validator) and carry the
# serving series, the native latency histogram, and the per-stage
# histograms the answers above populated.
prom=$(curl -sf "$base/v1/metrics?format=prometheus") || fail "prometheus scrape rejected"
echo "$prom" | scripts/prom_lint.sh || fail "malformed Prometheus exposition:
$prom"
echo "$prom" | grep -q '^factcheck_answers_served_total' \
  || fail "exposition missing the answers counter: $prom"
echo "$prom" | grep -q '^factcheck_answer_latency_seconds_bucket' \
  || fail "exposition missing the latency histogram: $prom"
echo "$prom" | grep -q 'factcheck_stage_latency_seconds_bucket{.*stage="resample"' \
  || fail "exposition missing the resample stage histogram: $prom"
echo "smoke: prometheus exposition lints clean with stage histograms"

# Trace plumbing: a client-supplied X-Factcheck-Trace id is echoed on
# the response, lands in the session's span ring (served by /trace),
# and error envelopes carry a traceId.
curl -sfD "$workdir/trace-headers" -o /dev/null \
  -H 'X-Factcheck-Trace: smoke-trace-1' "$base/v1/sessions/$id/next?k=1" \
  || fail "/next with a trace header rejected"
grep -qi '^x-factcheck-trace: smoke-trace-1' "$workdir/trace-headers" \
  || fail "trace header not echoed: $(cat "$workdir/trace-headers")"
trace_resp=$(curl -sf "$base/v1/sessions/$id/trace") || fail "/trace endpoint rejected"
echo "$trace_resp" | grep -q '"stage":"resample"' \
  || fail "span ring holds no resample span: $trace_resp"
echo "$trace_resp" | grep -q '"trace":"smoke-trace-1"' \
  || fail "forced trace id absent from the span ring: $trace_resp"
err_env=$(curl -s "$base/v1/sessions/no-such-session/state")
echo "$err_env" | grep -q '"traceId":"' \
  || fail "error envelope missing traceId: $err_env"
echo "smoke: trace id echoed, recorded in the span ring, and stamped on error envelopes"

snap_before=$(curl -sf "$base/v1/sessions/$id/snapshot") || fail "snapshot before kill rejected"
n_before=$(echo "$snap_before" | grep -o '"ok":' | wc -l)
echo "$snap_before" | grep -q '"ingest":{' \
  || fail "snapshot does not record the corpus arrival: $snap_before"
echo "smoke: snapshot holds $n_before elicitations (ingest record included); killing server with SIGKILL"

# Crash: SIGKILL, no drain, no checkpoint — recovery must come from the
# WAL the server wrote before each answer's response.
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""

start_server server2.log
grep -q 'recovered 1 stored session(s)' "$server_log" \
  || fail "restart did not recover the stored session"

# The session must resume under its old id with an identical transcript.
# The snapshot's state image is compared by what it restores to, not by
# its bytes: the killed server had already ranked the next question
# (the image says so), the recovered one has not yet.
strip_image() { sed 's/,"image":"[^"]*"//'; }
echo "$snap_before" | grep -q '"image":"' \
  || fail "snapshot carries no state image: $snap_before"
snap_after=$(curl -sf "$base/v1/sessions/$id/snapshot") \
  || fail "recovered session $id unavailable after restart"
[ "$(echo "$snap_after" | strip_image)" = "$(echo "$snap_before" | strip_image)" ] \
  || fail "transcript changed across the crash:
before: $snap_before
after:  $snap_after"
echo "smoke: session $id resumed with an identical ${n_before}-elicitation transcript"

# And it must have come back from the checkpoint's state image plus the
# WAL behind it (-checkpoint-every 3 leaves a tail), not by replaying
# the whole transcript.
metrics=$(curl -sf "$base/v1/metrics") || fail "/metrics after recovery rejected"
echo "$metrics" | grep -q '"restoresImage":1,' \
  || fail "recovery did not take the image path: $metrics"
echo "$metrics" | grep -q '"restoresReplay"' \
  && fail "recovery replayed a whole transcript: $metrics"
prom=$(curl -sf "$base/v1/metrics?format=prometheus") || fail "prometheus scrape after recovery rejected"
echo "$prom" | scripts/prom_lint.sh || fail "malformed Prometheus exposition after recovery:
$prom"
echo "$prom" | grep -q '^factcheck_restores_image_total 1$' \
  || fail "exposition missing the image-restore counter: $prom"
echo "$prom" | grep -q 'factcheck_stage_latency_seconds_count{stage="restore"} 1$' \
  || fail "exposition missing the restore stage: $prom"
echo "smoke: recovery restored from the state image (restore stage and counter exposed)"

# And it must keep serving answers from exactly where it stopped.
next=$(curl -sf "$base/v1/sessions/$id/next?k=1") || fail "/next after recovery rejected"
claim=$(echo "$next" | grep -o '"claim":[0-9]*' | head -1 | cut -d: -f2)
[ -n "$claim" ] || fail "no candidate after recovery in: $next"
answer_loop 4
[ "$answers" -ge 7 ] || fail "resumed session only reached $answers answers"

# Trace fidelity across the incremental path, the mid-session ingest
# and the crash: the claims the served session asked (before the
# ingest, after it, and after the SIGKILL) must be the exact sequence
# the in-process library path produces when it ingests the same delta
# at the same transcript position.
want_trace=$(go run ./scripts/tracecheck -profile wiki -scale 0.1 -communities 3 \
  -seed 42 -pool 8 -steps "$answers" -ingest-after 3) || fail "tracecheck failed"
got_trace=$(echo $trace)
[ "$got_trace" = "$want_trace" ] || fail "served trace diverged from the library path:
served:  $got_trace
library: $want_trace"
echo "smoke: served trace matches the library path ($answers answers)"

snap=$(curl -sf "$base/v1/sessions/$id/snapshot") || fail "final snapshot rejected"
n=$(echo "$snap" | grep -o '"ok":' | wc -l)
echo "smoke: final snapshot holds $n elicitations"
[ "$n" -ge "$answers" ] || fail "snapshot too short: $snap"

curl -sf -X DELETE "$base/v1/sessions/$id" >/dev/null || fail "DELETE rejected"
curl -sf "$base/v1/healthz" | grep -q '"sessions":0,"spilled":0' \
  || fail "session survived DELETE: $(curl -sf "$base/v1/healthz")"
ls "$datadir"/*.snap >/dev/null 2>&1 && fail "data dir still holds snapshots after DELETE"

kill -TERM "$server_pid"
wait "$server_pid"
server_pid=""
grep -q 'factcheck-server: stopped' "$server_log" \
  || fail "no clean shutdown"
echo "smoke: clean shutdown — serve-smoke OK"
