# Tier-1 gate plus the lint/vet/bench/coverage pipeline; `make ci` is
# the full local pipeline, and the CI workflow
# (.github/workflows/ci.yml) runs its targets spread over jobs.

GO ?= go

# Hot-path benchmarks gated against bench_baseline.json. Kept to the
# performance-critical substrates (scoring round, Gibbs sweep,
# incremental inference, per-answer dirty-component re-ranking, and
# streaming delta ingestion vs session reopen) so the gate is fast and
# focused.
BENCH_HOT = BenchmarkGuidanceScoring|BenchmarkGibbsSweep|BenchmarkIncrementalInference|BenchmarkIncrementalRank|BenchmarkIngestDelta

.PHONY: ci fmt-check lint vet build test test-arith race cover fuzz-smoke serve-smoke loadtest-smoke \
	router-smoke bench-smoke bench bench-json bench-gate bench-baseline \
	profile heap-profile ledger-pairs bench-pairs

ci: fmt-check lint vet build test test-arith race cover fuzz-smoke bench-gate

fmt-check:
	@fmt_out=$$(gofmt -l .); \
	if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi

# Static invariant enforcement: the custom go/analysis-style suite
# (detrand, wallclock, errenvelope, lockdiscipline per package, then
# the whole-program unreached census — see internal/analysis and
# DESIGN.md §17–§18) over every package, then the pinned third-party
# linters (staticcheck, govulncheck) via scripts/lint_tools.sh, which
# skips them loudly when offline. Three checks run between the two:
# scripts/doc_lint.sh (every ROADMAP item, DESIGN.md section, make
# target and scripts/, internal/, cmd/, examples/ or bench/ path that
# README, DESIGN.md, this file or a Go comment cites must exist, as
# must every test, fuzz or benchmark function they name, and no CHANGES.md entry numbered 42 or
# later may exceed 4 096 bytes), scripts/fma_census.sh (the per-file count of
# source lines at which an arm64 cross-compile emits a fused
# multiply-add may not rise above scripts/fma_census.txt;
# ROADMAP item 11) and
# scripts/served_deps.sh (the served binaries link no factcheck/...
# package beyond scripts/served_deps.txt; DESIGN.md §18), then a vet
# under GOARCH=386, which keeps every package, tests included,
# compiling on a 32-bit word (ROADMAP item 23(b)).
lint:
	$(GO) run ./cmd/factcheck-lint ./...
	./scripts/doc_lint.sh
	./scripts/fma_census.sh
	./scripts/served_deps.sh
	GOARCH=386 $(GO) vet ./...
	./scripts/lint_tools.sh

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Tier-1, then the goldens again — the selection traces, the SLO
# replay's overload arc and the paper's seed-determined §8 tables (the
# paper path: cache-less scoring, batch mode, Alg. 2, the §6.1
# indicators) — with amd64's run-time FMA path in math.Exp turned off:
# a host without FMA must replay the same transcripts, arc and tables
# (ROADMAP item 11(a)). On core the fma-off arm also restores state
# images written under FMA: they must be refused as foreign and the
# sessions replayed (FuzzRestoreImage's committed seeds,
# TestImageSeedInstallsUnderItsArithmetic; ROADMAP item 23). Tier-1
# holds every committed expected output: the goldens, and the examples'
# outputs under examples/testdata/ (TestExamples in internal/smoke).
test:
	$(GO) test ./...
	GODEBUG=cpu.fma=off $(GO) test -count=1 -run 'Golden|FuzzRestoreImage|ImageSeed' ./internal/core/
	GODEBUG=cpu.fma=off $(GO) test -count=1 -run Golden ./internal/workload/ ./internal/experiments/

# The whole suite under the two other arithmetics a host can bring:
# amd64 with math.Exp's run-time FMA path off, and 386 (pure-Go
# Exp/Log, a 32-bit int; linux/amd64 runs its binaries natively, no
# emulator). Every golden, every replay and every state image must hold
# on both: images written under FMA by the committed fixtures are
# refused as foreign and replayed (ROADMAP items 11(a), 23(b)). About
# a minute and a half for both on a 2-core box. -count=1: the test
# cache does not key on GODEBUG, so it would replay the FMA run.
test-arith:
	GODEBUG=cpu.fma=off $(GO) test -count=1 ./...
	GOARCH=386 $(GO) test ./...

# Race-enabled coverage of the concurrent subsystems: the multi-session
# service (64 auto-driven sessions multiplexing onto one shared worker
# budget, plus crash-recovery and spill/revive paths), the shard router
# (drain migrations raced against answers, SIGKILL failover), the
# streaming engine (interleaved arrivals/validations), the workload
# runner (a 64-user closed-loop fleet driving a real HTTP server in
# wall mode), the core session loop (the incremental-vs-full ranking
# property test across worker counts, the golden selection traces
# whose sharded E-step runs two workers, and the state-image hand-off,
# tail and fallback tests), and the sampler (its exact sigmoid squeeze,
# the staged draw against its definition, and the sharded runs at
# workers 1 and 4), and what-if scoring, whose worker free list every
# session's rounds share, reading the engine's database through views
# (internal/em, internal/factdb); the M-step's process-wide free lists
# (optimize.Floats, optimize.Int32s), which every session's solves
# borrow from, and the session store's concurrent appends and loads
# (internal/persist). The served image paths —
# spill → revive, crash recovery, export → import, Router.Leave — are
# in the service and router packages.
race:
	$(GO) test -race -count=1 ./internal/core/... ./internal/edge/... ./internal/em/... ./internal/factdb/... ./internal/gibbs/... ./internal/guidance/... ./internal/optimize/... ./internal/persist/... ./internal/router/... ./internal/service/... ./internal/stream/... ./internal/workload/...

# Coverage gate over the implementation packages; the floor lives in
# scripts/cover_check.sh and only ratchets up.
cover:
	$(GO) test -coverprofile=cover.out ./internal/...
	./scripts/cover_check.sh cover.out

# The hostile-bytes decoders and the sampler's staged draw under the
# native fuzzer for a short fixed budget each. FuzzRestoreImage: arbitrary bytes as core.Snapshot.Image
# must never panic, never allocate by what they claim, and restore to
# the session replay builds. FuzzDeltaExtend: arbitrary bytes as a JSON
# factdb.Delta against a small database — Extend agrees with Validate,
# a refused delta changes nothing, an applied one comes back out of
# DeltaAt as itself and leaves the adjacency indexes and components
# equal to the per-row reference kept in the test. FuzzDrawMatchesLogOdds: arbitrary bytes as a small
# corpus, θ, chain state and draws — the sweep's staged decision
# (gibbs.Chain.draw: static thresholds, then the bracket) equals
# u < Sigmoid(LogOdds(c)) on every claim, also with the claim's sources
# at both agreement extremes and on a clone with a stale θ_T, and the
# bracket never decides a log-odds off the sigmoid table's grid.
# FuzzSweepMatchesReference: the same chains swept over every claim and
# each component, fresh and with a stale θ_T, leave the assignment, the
# agreement counters and the RNG's next word where the sweep the kernel
# replaced (kept in the test) leaves them.
# FuzzLogisticMatchesReference: a drawn M-step objective (seed, rows,
# columns, edge flags: no weights, |z| past exp's underflow, all-zero
# rows, hard targets) — Value, Gradient, HessianVec and whole Minimize
# results equal the bits of the row-per-example objective kept in the
# test.
# FuzzFileStoreLoad: arbitrary bytes as one stored session's snap and
# WAL — nothing panics, Load never returns a transcript shorter than the
# snap vouches for nor allocates by a count it was fed, and what it
# accepts an append extends by one record.
# FuzzCentralityMatchesReference: arbitrary bytes as a small directed
# graph (node count, edges drawn in any order and added by source, self
# loops, parallel edges) and round counts — PageRank and HITS over the
# padded, length-sorted CSR rows equal the bits of the adjacency-list
# push and sum loops kept in the test.
# FuzzParseScenario: arbitrary bytes as a loadtest scenario file —
# ParseScenario never panics, and a scenario it accepts comes back
# deep-equal after json.Marshal and a second ParseScenario; the shipped
# examples/scenarios are its seeds.
# FuzzMountTraceID: arbitrary bytes as an inbound X-Factcheck-Trace
# through edge.Mount — nothing panics, the id on the response and in
# the handler's context is always one obs.ValidTraceID accepts, and a
# valid inbound id comes back unchanged.
# FuzzV1Bodies: arbitrary bytes as the body of every /v1 POST route
# (open, answer, claims, sources, import) through the server's handler
# in process — nothing panics, every refusal is the envelope of a row
# of service.Refusals with that row's status and Retry-After hint, and
# no request leaves a worker lane held.
# Seed corpora are in the tests (f.Add) and under
# each package's testdata/fuzz/, where a failing input is also written —
# commit it with the fix. Plain `go test` already runs the seeds; this
# mutates from them. Minimisation of merely interesting inputs is off:
# at 60 s apiece by default it would eat the whole budget.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzRestoreImage -fuzztime 10s -fuzzminimizetime 0 ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzDeltaExtend -fuzztime 10s -fuzzminimizetime 0 ./internal/factdb/
	$(GO) test -run '^$$' -fuzz FuzzDrawMatchesLogOdds -fuzztime 10s -fuzzminimizetime 0 ./internal/gibbs/
	$(GO) test -run '^$$' -fuzz FuzzSweepMatchesReference -fuzztime 10s -fuzzminimizetime 0 ./internal/gibbs/
	$(GO) test -run '^$$' -fuzz FuzzLogisticMatchesReference -fuzztime 10s -fuzzminimizetime 0 ./internal/optimize/
	$(GO) test -run '^$$' -fuzz FuzzFileStoreLoad -fuzztime 10s -fuzzminimizetime 0 ./internal/persist/
	$(GO) test -run '^$$' -fuzz FuzzCentralityMatchesReference -fuzztime 10s -fuzzminimizetime 0 ./internal/graph/
	$(GO) test -run '^$$' -fuzz FuzzParseScenario -fuzztime 10s -fuzzminimizetime 0 ./internal/workload/
	$(GO) test -run '^$$' -fuzz FuzzMountTraceID -fuzztime 10s -fuzzminimizetime 0 ./internal/edge/
	$(GO) test -run '^$$' -fuzz FuzzV1Bodies -fuzztime 10s -fuzzminimizetime 0 ./internal/service/

# The process smokes are Go tests in internal/smoke, which plain
# `go test ./...` runs, so `make test` (and with it `make ci`) covers
# them all; each target below runs one of them alone.
#
# Boot factcheck-server with a durable -data-dir, drive a session
# through service.Client with a mid-session ingest, SIGKILL the server,
# restart it on the same directory, and assert the session resumes from
# its state image with an identical transcript and the library path's
# trace; ends with a clean SIGTERM shutdown.
serve-smoke:
	$(GO) test -count=1 -run '^TestServeSmoke$$' ./internal/smoke/

# Run the mixed-fleet virtual-time scenario twice through the
# factcheck-loadtest command line and assert the two reports are
# byte-identical and hold no latency section. Every shipped preset runs
# in process under internal/workload's TestShippedScenarios.
loadtest-smoke:
	$(GO) test -count=1 -run '^TestLoadtestSmoke$$' ./internal/smoke/

# Boot three backends on one shared data dir behind factcheck-router,
# SIGKILL the owning backend mid-session, drain the next owner via
# /fleet/leave, and assert the served trace stayed bit-identical to the
# library path; then a wall-mode loadtest through the router with a
# mid-run drain, asserting the fleet-aggregated /metrics scrape. Logs
# land in router-smoke-logs/ on failure.
router-smoke:
	$(GO) test -count=1 -run '^TestRouterSmoke$$' ./internal/smoke/

# A short benchmark invocation that exercises the parallel scoring hot
# path without the full experiment sweep.
bench-smoke:
	$(GO) test -run xxx -bench '$(BENCH_HOT)' -benchtime 3x .

# Machine-readable results for the hot-path benchmarks, written to
# BENCH.json (uploaded as a CI artifact). Time-based benchtime plus
# min-of-3 keeps single-iteration scheduler noise out of the gate.
bench-json:
	$(GO) test -run xxx -bench '$(BENCH_HOT)' -benchtime 0.5s -benchmem -count 3 . \
		| $(GO) run ./scripts/benchgate -emit -out BENCH.json

# Fail if any hot-path benchmark regressed >25% against the committed
# baseline (time; B/op and allocs/op share the tolerance).
bench-gate: bench-json
	$(GO) run ./scripts/benchgate -check -baseline bench_baseline.json -current BENCH.json -tolerance 0.25

# Refresh the committed baseline (run on an idle machine, then commit).
bench-baseline: bench-json
	cp BENCH.json bench_baseline.json

# Run the hot-path benchmarks under the CPU and heap profilers and
# drop pprof profiles into profiles/, alongside the same BENCH.json the
# gate reads and the flat `pprof -top` listing as text (cpu.top.txt), so
# a kernel change starts from where the benchmarked substrates spend
# their time, not from a guess. Works because BENCH_HOT lives in a
# single package (profiling flags require one).
profile:
	mkdir -p profiles
	$(GO) test -run xxx -bench '$(BENCH_HOT)' -benchtime 0.5s -benchmem -count 3 \
		-cpuprofile profiles/cpu.prof -memprofile profiles/mem.prof \
		-o profiles/bench.test . \
		| $(GO) run ./scripts/benchgate -emit -out profiles/BENCH.json
	$(GO) tool pprof -top -nodecount 40 profiles/bench.test profiles/cpu.prof > profiles/cpu.top.txt

# The footprint probe of ROADMAP item 6 (scripts/heapprofile), five
# fixed rows: 400 live sessions of the fleet-churn shape, 8 oracle
# answers each, on a MemStore; 16 sessions of the streaming-ingest shape
# after 30 deltas each, on a FileStore; 10 what-if sessions of the
# guided-connected shape, ranked after 8 answers; 10 sessions of that
# shape answered until done; 12 sessions of the guided-incremental shape
# answered until done. Prints HeapAlloc per session for each, the
# what-if workers parked on the shared free list and how many Gibbs
# chains, databases (their base, and their indexes) and gain caches have
# released their tables, and
# writes each row's heap profile plus its per-allocation-site listing
# (heap.top.txt, heap-ingest.top.txt, heap-guided.top.txt,
# heap-finished.top.txt, heap-finished-gi.top.txt), so a footprint
# change starts from who owns the live bytes. Not part of `make ci`.
heap-profile:
	mkdir -p profiles
	$(GO) build -o profiles/heapprofile ./scripts/heapprofile
	./profiles/heapprofile
	$(GO) tool pprof -top -sample_index=inuse_space -nodecount 40 profiles/heapprofile profiles/heap.prof > profiles/heap.top.txt
	$(GO) tool pprof -top -sample_index=inuse_space -nodecount 40 profiles/heapprofile profiles/heap-ingest.prof > profiles/heap-ingest.top.txt
	$(GO) tool pprof -top -sample_index=inuse_space -nodecount 40 profiles/heapprofile profiles/heap-guided.prof > profiles/heap-guided.top.txt
	$(GO) tool pprof -top -sample_index=inuse_space -nodecount 40 profiles/heapprofile profiles/heap-finished.prof > profiles/heap-finished.top.txt
	$(GO) tool pprof -top -sample_index=inuse_space -nodecount 40 profiles/heapprofile profiles/heap-finished-gi.prof > profiles/heap-finished-gi.top.txt

bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

# The pair procedure behind every claimed end-to-end gain: N alternating
# same-seed pairs of the answer-cost ledger, PARENT revision against the
# working tree, judged by `go run ./bench -compare`. WORKLOAD is one or
# more comma-separated workload names (default: all four).
N ?= 10
ledger-pairs:
	@test -n "$(PARENT)" || { echo "usage: make ledger-pairs PARENT=<rev> [N=10] [WORKLOAD=<name>]"; exit 2; }
	./scripts/ledger_pairs.sh "$(PARENT)" "$(N)" "$(WORKLOAD)"

# The pair procedure for one go benchmark: PARENT's test binary against
# the working tree's, for the benchmarks BENCH matches in package PKG,
# N runs a side interleaved, each side's median and IQR and the median
# paired ratio printed per metric (scripts/bench_pairs.sh).
PKG ?= ./internal/service/
bench-pairs:
	@test -n "$(PARENT)" -a -n "$(BENCH)" || { echo "usage: make bench-pairs PARENT=<rev> BENCH=<regex> [PKG=./internal/service/] [N=10]"; exit 2; }
	./scripts/bench_pairs.sh "$(PARENT)" "$(BENCH)" "$(PKG)" "$(N)"
