#!/usr/bin/env bash
# Net line count of a change: code and comment lines added and removed
# in the `.rs` files under crates/ and tests/.
#
#   scripts/net_lines.sh BASE [HEAD]
#
# Compares BASE with HEAD, or with the working tree when HEAD is
# omitted (`git diff -U0`; a new file counts once it is staged), and
# prints one row per directory. A comment line is one whose trimmed
# text starts with `//`; blank lines are not counted. Run from
# anywhere; the script cds to the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: scripts/net_lines.sh BASE [HEAD]" >&2
  exit 2
fi

git diff -U0 "$@" -- 'crates/*.rs' 'tests/*.rs' | awk '
  # A file header runs from `diff --git` to its first hunk; its `---`
  # and `+++` lines name the old and new path.
  /^diff --git / { header = 1; next }
  /^@@/ { header = 0; next }
  header && /^--- / { old = top($2); next }
  header && /^\+\+\+ / { new = top($2); next }
  header { next }
  /^[+-]/ {
    text = substr($0, 2)
    gsub(/^[ \t]+|[ \t]+$/, "", text)
    if (text == "") next
    kind = (text ~ /^\/\//) ? "comments" : "code"
    if (substr($0, 1, 1) == "+") added[new, kind]++
    else removed[old, kind]++
  }
  # `a/crates/core/src/x.rs` -> `crates/`.
  function top(path) {
    sub(/^[ab]\//, "", path)
    sub(/\/.*/, "/", path)
    return path
  }
  END {
    for (i = 1; i <= 2; i++) {
      dir = (i == 1) ? "crates/" : "tests/"
      printf "%-8s code +%d/-%d, comments +%d/-%d\n", dir,
        added[dir, "code"], removed[dir, "code"],
        added[dir, "comments"], removed[dir, "comments"]
    }
  }
'
