#!/usr/bin/env bash
# served_deps.sh — the served-path fence (DESIGN.md §18). Run as
# part of `make lint`; needs no network.
#
# The served binaries, cmd/factcheck-server and cmd/factcheck-router,
# may link only the factcheck/... packages listed in the committed table
# served_deps.txt beside this script. A package that appears in
# `go list -deps` of either binary but not in the table fails the check:
# code written for the paper's experiments (an exact baseline, a
# figure's harness) must not creep onto the path that answers requests
# unnoticed. A package that drops out of the list is reported so the
# table can be lowered to match (it only ratchets down). DESIGN.md §18
# documents why each off-path unit is kept and which root reaches it.
#
#   scripts/served_deps.sh          check this tree against the table
#   scripts/served_deps.sh -write   rewrite the table from this tree
set -euo pipefail

cd "$(dirname "$0")/.."
table=scripts/served_deps.txt

deps=$(go list -deps ./cmd/factcheck-server ./cmd/factcheck-router | grep '^factcheck/' | sort -u)

if [ "${1:-}" = "-write" ]; then
  {
    echo "# The factcheck/... packages cmd/factcheck-server and cmd/factcheck-router"
    echo "# link (go list -deps); checked by scripts/served_deps.sh (DESIGN.md §18)."
    printf '%s\n' "$deps"
  } > "$table"
  echo "served deps: wrote $table"
  exit 0
fi

allowed=$(grep -v '^#' "$table" | sed '/^$/d' | sort -u)
added=$(comm -23 <(printf '%s\n' "$deps") <(printf '%s\n' "$allowed"))
gone=$(comm -13 <(printf '%s\n' "$deps") <(printf '%s\n' "$allowed"))

if [ -n "$gone" ]; then
  printf '%s\n' "$gone" | sed 's/^/served deps: no longer linked, lower the table (scripts\/served_deps.sh -write): /'
fi
if [ -n "$added" ]; then
  printf '%s\n' "$added" | sed 's/^/served deps: not in scripts\/served_deps.txt: /'
  echo "served deps FAILED: a served binary links a package the table does not allow (see DESIGN.md §18)"
  exit 1
fi
echo "served deps passed: $(printf '%s\n' "$deps" | wc -l | tr -d ' ') package(s)"
