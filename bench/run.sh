#!/bin/sh
# BENCHMARK.json's command: build the benchmark from source into
# .bench_build/ (Go's caches and temporary files included, so nothing is
# written outside the checkout) and run it with the contract's
# arguments: --workload <name> --seed <n> --seconds <s> --trace <0|1>.
set -eu
if [ ! -f go.mod ] || [ ! -d internal/service ]; then
	echo "bench/run.sh: the program under test is not in this checkout (no go.mod, no internal/service)" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# The go command's telemetry keeps its mode under the user config dir. In
# the default "local" mode every go command may start a detached child
# (weekly report maintenance) that outlives it; "off" starts none, so no
# process is left behind when go build ends.
export XDG_CONFIG_HOME="$build/config"
echo off >"$build/config/go/telemetry/mode"
go build -o "$build/ledger" ./bench
exec "$build/ledger" "$@"
