#!/usr/bin/env bash
# Lists every `pub fn` in a library under crates/*/src whose name no
# code outside that library mentions. Outside means another crate, a
# bin, an integration test, a bench, an example, the facade in src/,
# fleetbench/src/, or a `///` or `//!` doc line (doc examples are
# compiled as outside code). Prints `file:line: name` per fn and
# nothing when every `pub fn` has an outside user.
#
#   scripts/pub_unused.sh
#
# Names only: a fn with an outside user of the same name is kept. Types
# and fields can be needed by a public signature without being named,
# so they are left to the compiler. Run from anywhere; the script cds
# to the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

words() { grep -ohE '[A-Za-z_][A-Za-z0-9_]*' "$@" 2>/dev/null | sort -u || true; }

for src in crates/*/src; do
  lib=$(find "$src" -name '*.rs' -not -path "$src/bin/*" | sort)
  # shellcheck disable=SC2086
  others=$(find crates tests examples src fleetbench/src -name '*.rs' | sort | comm -23 - <(echo "$lib"))
  # shellcheck disable=SC2086
  outside=$( { words $others; grep -hE '^\s*//[/!]' $lib | words -; } | sort -u)
  # shellcheck disable=SC2086
  grep -nE '^\s*pub (const |unsafe )?fn [A-Za-z_][A-Za-z0-9_]*' $lib /dev/null |
    sed -E 's/^([^:]+:[0-9]+):.*fn ([A-Za-z_][A-Za-z0-9_]*).*/\1: \2/' |
    while read -r at name; do
      if ! grep -qxF "$name" <<<"$outside"; then
        echo "$at $name"
      fi
    done
done
