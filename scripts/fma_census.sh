#!/usr/bin/env bash
# fma_census.sh — the arm64 fused-multiply-add census (ROADMAP item 11).
# Run as part of `make lint`; needs neither an emulator nor a network.
#
# The gc compiler may fuse x*y + z into one rounding on arm64 (it does
# not on amd64), so every fused site on a trace-deciding path is a place
# where an arm64 backend computes other numbers from the same
# transcript. This cross-compiles ./internal/... for arm64 with
# -gcflags=-S and counts, per source file, the distinct source lines at
# which a fused instruction (FMADD/FMSUB/FNMADD/FNMSUB, double or single
# precision) is emitted. Inlined code counts for the file it was
# written in: guidance.HybridScore's site, emitted inside
# core.(*Session).Step, is a line of internal/guidance/guidance.go.
#
# The counts are checked against the committed table fma_census.txt
# beside this script. A count that rises, or a file that appears, fails
# the check and prints its sites as file:line; a count that falls is
# reported so the table can be lowered to match (it only ratchets down).
# Counts are kept per file, not per line, so edits that merely shift
# lines do not churn the table.
#
#   scripts/fma_census.sh          check this tree against the table
#   scripts/fma_census.sh -write   rewrite the table from this tree
set -euo pipefail

cd "$(dirname "$0")/.."
root=$(pwd)
table=scripts/fma_census.txt

# Assembly lines read "<pc> <offset> (<file>:<line>) <op> <args>".
sites=$(GOARCH=arm64 go build -gcflags=-S ./internal/... 2>&1 |
  awk -v root="$root/" '
    $4 ~ /^FN?M(ADD|SUB)[DS]$/ && $3 ~ /^\(.*:[0-9]+\)$/ {
      pos = substr($3, 2, length($3) - 2)
      if (index(pos, root) == 1) pos = substr(pos, length(root) + 1)
      print pos
    }' | sort -u)

# "<file> <distinct lines>", one per file.
counts=$(printf '%s\n' "$sites" | sed -e '/^$/d' -e 's/:[0-9]*$//' | sort | uniq -c | awk '{ print $2, $1 }')

if [ "${1:-}" = "-write" ]; then
  {
    echo "# Distinct source lines per file at which GOARCH=arm64 gc emits a"
    echo "# fused multiply-add; checked by scripts/fma_census.sh (ROADMAP item 11)."
    printf '%s\n' "$counts"
  } > "$table"
  echo "fma census: wrote $table"
  exit 0
fi

status=0
while read -r file n; do
  [ -n "$file" ] || continue
  want=$(awk -v f="$file" '!/^#/ && $1 == f { print $2 }' "$table")
  if [ -z "$want" ] || [ "$n" -gt "$want" ]; then
    echo "fma census: $file has $n fused line(s), the table allows ${want:-none}:"
    printf '%s\n' "$sites" | grep -F "$file:" | sed 's/^/  /'
    status=1
  elif [ "$n" -lt "$want" ]; then
    echo "fma census: $file is down to $n fused line(s) from $want; lower the table (scripts/fma_census.sh -write)"
  fi
done <<EOF
$counts
EOF
awk '!/^#/ { print $1 }' "$table" | while read -r file; do
  if ! printf '%s\n' "$counts" | grep -q "^$file "; then
    echo "fma census: $file has no fused line left; lower the table (scripts/fma_census.sh -write)"
  fi
done

total=$(printf '%s\n' "$sites" | sed '/^$/d' | wc -l | tr -d ' ')
if [ "$status" -ne 0 ]; then
  echo "fma census FAILED: new fused multiply-add sites (round the product with an explicit float64(...) or use math.FMA)"
  exit 1
fi
echo "fma census passed: $total fused line(s) in $(printf '%s\n' "$counts" | sed '/^$/d' | wc -l | tr -d ' ') file(s)"
