#!/bin/sh
# The pair procedure a claimed gain has to go through (bench/README.md,
# choosing-metrics §8), as one command: check the parent revision out
# under .bench_build/, build its ledger and the working tree's with
# bench/run.sh's environment, run N same-seed pairs of untraced passes
# alternating which side goes first, and judge them with
# `go run ./bench -compare` (exit 1 when any bounded metric is WORSE).
#
#   scripts/ledger_pairs.sh <parent-rev> [pairs=10] [workload[,workload…]=all four]
#   SEED=<first seed, default 101>; pair k runs both sides at seed SEED+k.
#
# The parent is extracted with `git archive`, not `git worktree`: it
# needs no clean-up and leaves no registration behind in .git. Reports
# stay in .bench_build/pairs/out/ (git-ignored) for the record.
set -eu
parent=${1:?usage: scripts/ledger_pairs.sh <parent-rev> [pairs] [workloads]}
pairs=${2:-10}
workloads=${3:-}
seed0=${SEED:-101}
cd "$(git rev-parse --show-toplevel)"
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)

build="$PWD/.bench_build"
work="$build/pairs"
rm -rf "$work"
mkdir -p "$work/parent/.bench_build/tmp" "$work/out" "$build/tmp" "$build/config/go/telemetry"
git archive "$parent" | tar -x -C "$work/parent"

# bench/run.sh's build environment (see there for the why of each line).
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export XDG_CONFIG_HOME="$build/config"
echo off >"$build/config/go/telemetry/mode"
go build -o "$work/ledger.change" ./bench
(cd "$work/parent" && go build -o "$work/ledger.parent" ./bench)

# run <side> <seed>: one untraced pass from the side's own checkout (the
# ledger keeps its data directories under ./.bench_build/tmp). The
# runtime's GC trace goes to <side>-<seed>.gc; the line printed counts
# the pass's collections and ends with the collector's CPU share over
# the pass, both sides' live heaps being what sets the GC's pace.
run() {
	dir=$PWD
	[ "$1" = parent ] && dir="$work/parent"
	(cd "$dir" && GODEBUG=gctrace=1 "$work/ledger.$1" ${workloads:+-workload "$workloads"} \
		-seed "$2" -seconds "$seconds" -trace 0 -out "$work/out/$1-$2.json" >"$work/out/$1-$2.txt" 2>"$work/out/$1-$2.gc")
	echo "  $1 seed $2 done: $(grep -c '^gc ' "$work/out/$1-$2.gc") GC cycles, $(sed -n 's/^gc [0-9]* @[0-9.]*s \([0-9]*%\).*/\1/p' "$work/out/$1-$2.gc" | tail -1) GC CPU"
}

a= b= k=0
while [ "$k" -lt "$pairs" ]; do
	seed=$((seed0 + k))
	echo "pair $((k + 1))/$pairs"
	if [ $((k % 2)) -eq 0 ]; then
		run parent "$seed"
		run change "$seed"
	else
		run change "$seed"
		run parent "$seed"
	fi
	a="$a${a:+,}$work/out/parent-$seed.json"
	b="$b${b:+,}$work/out/change-$seed.json"
	k=$((k + 1))
done
go run ./bench -compare "$a" "$b"
