#!/bin/sh
# Runs the four examples and an auto-answered factcheck-session, and
# diffs each output against the one committed under examples/testdata/.
# newsstream's "avg model update" line is a wall-clock timing, the only
# line that differs between runs; it is dropped before the diff.
set -eu
cd "$(dirname "$0")/.."
GO=${GO:-go}
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
status=0

# check NAME CMD...: run CMD and diff its output against NAME's.
check() {
	name=$1
	shift
	if ! "$@" >"$out/$name.txt"; then
		echo "FAIL $name: exited non-zero"
		status=1
		return
	fi
	grep -v '^avg model update' "$out/$name.txt" >"$out/$name.cmp" || true
	if diff -u "examples/testdata/$name.txt" "$out/$name.cmp"; then
		echo "ok   $name"
	else
		echo "FAIL $name: output differs from examples/testdata/$name.txt"
		status=1
	fi
}

for ex in quickstart healthforum crowdsourcing newsstream; do
	$GO build -o "$out/$ex" "./examples/$ex"
	check "$ex" "$out/$ex"
done
$GO build -o "$out/factcheck-session" ./cmd/factcheck-session
check factcheck-session "$out/factcheck-session" -auto -profile snopes -scale 0.02
exit $status
