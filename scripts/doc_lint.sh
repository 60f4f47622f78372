#!/usr/bin/env bash
# doc_lint.sh — every pointer the docs and comments hold has a target.
# Run as part of `make lint`. Over README.md, DESIGN.md, the Makefile
# and every Go file it fails on
#
#   ROADMAP item N, N(x), Nx   no such open item or sub-item in
#                              ROADMAP.md, or one marked retired
#   DESIGN.md §N               no "## §N" heading in DESIGN.md
#   `make <target>`            no such target in the Makefile
#   `scripts/<path>`           no such file or directory
#
# and on any CHANGES.md entry (a "PR N" line and the lines up to the
# next one) numbered 42 or later that is longer than 4 096 bytes. It
# prints each finding as file:line: reason. Plain grep/sed/awk.
set -euo pipefail

cd "$(dirname "$0")/.."

# Every numbered entry N and lettered sub-entry N(x) under "## Open
# items", space-separated; an entry kept only as a tombstone reads !N.
items=$(awk '
  /^## Open items/ { open = 1; next }
  /^## /           { open = 0 }
  !open            { next }
  match($0, /^[0-9]+\. /) {
    n = substr($0, 1, RLENGTH - 2)
    printf "%s%s ", ($0 ~ /^[0-9]+\. \*\(Retired/ ? "!" : ""), n
    next
  }
  n != "" && match($0, /^ +\([a-z]\) /) {
    printf "%s%s ", n, substr($0, RLENGTH - 3, 3)
  }' ROADMAP.md)
sections=$(sed -n 's/^## §\([0-9][0-9]*\) .*/\1/p' DESIGN.md | tr '\n' ' ')
targets=$(sed -n 's/^\([a-z][a-z0-9-]*\):.*/\1/p' Makefile | tr '\n' ' ')

# Dot-directories (.git, build scratch) hold no documentation.
files=$( { echo README.md; echo DESIGN.md; echo Makefile
           find . -path './.*' -prune -o -name '*.go' -print | sed 's#^\./##' | sort; } )

findings=$(
  # shellcheck disable=SC2086
  grep -n -o -E \
    -e 'ROADMAP( item)? [0-9]+(\([a-z]\)|[a-z])?' \
    -e 'DESIGN\.md §[0-9]+((–|-)§[0-9]+)?' \
    -e '`make [^`]*' \
    $files /dev/null |
  awk -v items="$items" -v sections="$sections" -v targets="$targets" '
    BEGIN {
      n = split(items, it, " ");    for (i = 1; i <= n; i++) item[it[i]] = 1
      n = split(sections, se, " "); for (i = 1; i <= n; i++) section[se[i]] = 1
      n = split(targets, ta, " ");  for (i = 1; i <= n; i++) target[ta[i]] = 1
    }
    {
      # file:line:match — the match may itself hold colons.
      where = $0; sub(/^[^:]*:[^:]*:/, "", $0); where = substr(where, 1, length(where) - length($0) - 1)
    }
    /^ROADMAP/ {
      ref = $0; sub(/^ROADMAP( item)? /, "", ref)
      if (ref ~ /[a-z]$/) ref = substr(ref, 1, length(ref) - 1) "(" substr(ref, length(ref)) ")"
      num = ref; sub(/\(.*/, "", num)
      if (("!" num) in item) print where ": cites ROADMAP item " ref ", which is retired"
      else if (!(ref in item)) print where ": cites ROADMAP item " ref ", which ROADMAP.md does not list"
      next
    }
    /^DESIGN/ {
      ref = $0
      while (match(ref, /§[0-9]+/)) {
        num = substr(ref, RSTART, RLENGTH); sub(/^§/, "", num); ref = substr(ref, RSTART + RLENGTH)
        if (!(num in section)) print where ": cites DESIGN.md §" num ", which DESIGN.md does not have"
      }
      next
    }
    {
      # `make a b VAR=x`: every leading word that looks like a target.
      n = split(substr($0, 7), word, " ")
      for (i = 1; i <= n; i++) {
        if (word[i] ~ /=/) continue
        if (word[i] !~ /^[a-z][a-z0-9-]*$/) break
        if (!(word[i] in target)) print where ": names `make " word[i] "`, a target the Makefile lacks"
      }
    }'
)

# A backquoted script path must exist, so a deleted script leaves no
# pointer behind.
# shellcheck disable=SC2086
paths=$( { grep -n -o -E '`(\./)?scripts/[A-Za-z0-9_./-]+' $files /dev/null || true; } |
  while IFS= read -r hit; do
    path=${hit#*\`}; path=${path#./}
    [ -e "$path" ] || echo "${hit%%:\`*}: names \`$path\`, which does not exist"
  done)

# Entries are capped from number 42 on; the older ones stay as written.
long=$(LC_ALL=C awk '
  function flush() {
    if (pr >= 42 && bytes > 4096) print "CHANGES.md:" line ": entry " pr " is " bytes " bytes, over the 4096-byte cap"
  }
  /^PR [0-9]+/ { flush(); pr = $2 + 0; line = FNR; bytes = 0 }
  { bytes += length($0) + 1 }
  END { flush() }' CHANGES.md)

findings=$(printf '%s\n%s\n%s\n' "$findings" "$paths" "$long" | sed '/^$/d')

if [ -n "$findings" ]; then
  echo "$findings"
  echo "doc-lint: $(echo "$findings" | wc -l) finding(s)" >&2
  exit 1
fi
echo "doc-lint: ROADMAP items, DESIGN.md sections, make targets and script paths all resolve; CHANGES.md entries within the cap"
