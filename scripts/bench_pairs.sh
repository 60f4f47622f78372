#!/bin/sh
# One go benchmark, parent revision against the working tree, by runs
# interleaved on alternating sides: check the parent out under
# .bench_build/, build both test binaries of one package, run the
# benchmark N times on each side (pair k runs the parent first when k
# is even, the change first when it is odd), and print, per benchmark
# and unit, each side's median and IQR, the median of the N paired
# ratios change/parent, and in how many pairs the change read lower.
# A single run on a shared box wanders; a benchmark's price or gain is
# read from the pairs.
#
#   scripts/bench_pairs.sh <parent-rev> <bench-regex> [package=./internal/service/] [pairs=10]
#
# The parent is extracted with `git archive`, not `git worktree`, as in
# scripts/ledger_pairs.sh. Each run's output stays in
# .bench_build/bench-pairs/out/ (git-ignored) for the record.
set -eu
usage="usage: scripts/bench_pairs.sh <parent-rev> <bench-regex> [package] [pairs]"
parent=${1:?$usage}
bench=${2:?$usage}
pkg=${3:-./internal/service/}
pairs=${4:-10}
cd "$(git rev-parse --show-toplevel)"

work="$PWD/.bench_build/bench-pairs"
rm -rf "$work"
mkdir -p "$work/parent" "$work/out"
git archive "$parent" | tar -x -C "$work/parent"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go test -c -o "$work/change.test" "$pkg"
(cd "$work/parent" && go test -c -o "$work/parent.test" "$pkg")

# run <side> <k>: one run of the benchmark from the side's package
# directory, so that the tests find their testdata.
run() {
	dir=$PWD
	[ "$1" = parent ] && dir="$work/parent"
	(cd "$dir/$pkg" && "$work/$1.test" -test.run '^$' -test.bench "$bench" -test.benchmem -test.timeout 10m \
		>"$work/out/$1-$2.txt")
	echo "  $1 run $2 done"
}

k=0
while [ "$k" -lt "$pairs" ]; do
	echo "pair $((k + 1))/$pairs"
	if [ $((k % 2)) -eq 0 ]; then
		run parent "$k"
		run change "$k"
	else
		run change "$k"
		run parent "$k"
	fi
	k=$((k + 1))
done

# Every "value unit" pair of a benchmark line is one metric; medians
# average the two middle values of an even count, quartiles are the
# exclusive method bench/compare.go uses.
awk -v pairs="$pairs" '
function sort(a, n,   i, j, x) {
	for (i = 2; i <= n; i++) {
		x = a[i]
		for (j = i - 1; j >= 1 && a[j] > x; j--) a[j + 1] = a[j]
		a[j + 1] = x
	}
}
function median(a, n) { sort(a, n); return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2 }
function quart(a, n, i,   j, d) {
	if (n < 2) return a[1]
	j = int(i * (n + 1) / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
	d = i * (n + 1) - j * 4
	return (a[j] * (4 - d) + a[j + 1] * d) / 4
}
/^Benchmark/ {
	f = FILENAME; sub(/.*\//, "", f); sub(/\.txt$/, "", f)
	side = f; sub(/-.*/, "", side); k = f; sub(/.*-/, "", k)
	name = $1; sub(/-[0-9]+$/, "", name)
	for (i = 3; i + 1 <= NF; i += 2) {
		key = name " " $(i + 1)
		if (!(key in known)) { known[key] = 1; keys[++nk] = key }
		v[key, side, k] = $i
	}
}
END {
	printf "%-40s %-12s %14s %25s %14s %25s %8s %s\n", "benchmark", "unit", "parent", "[IQR]", "change", "[IQR]", "ratio", "lower"
	for (x = 1; x <= nk; x++) {
		key = keys[x]; n = 0; lower = 0
		for (k = 0; k < pairs; k++) {
			if (!((key, "parent", k) in v) || !((key, "change", k) in v)) continue
			n++
			a[n] = v[key, "parent", k]; b[n] = v[key, "change", k]
			r[n] = a[n] == 0 ? 1 : b[n] / a[n]
			if (b[n] < a[n]) lower++
		}
		if (n == 0) continue
		split(key, nu, " ")
		ma = median(a, n); qa1 = quart(a, n, 1); qa3 = quart(a, n, 3)
		mb = median(b, n); qb1 = quart(b, n, 1); qb3 = quart(b, n, 3)
		printf "%-40s %-12s %14.6g %11.6g–%-13.6g %14.6g %11.6g–%-13.6g %8.3f %d of %d\n",
			nu[1], nu[2], ma, qa1, qa3, mb, qb1, qb3, median(r, n), lower, n
	}
}' "$work"/out/*.txt
