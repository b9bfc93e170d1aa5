#!/usr/bin/env bash
# The interactive shell must reject malformed numbers instead of storing
# a silent 0 or a truncated value. Pipes bad commands into example_shell
# and checks that each one prints exactly one `error:` line, that no bad
# insert reached the table, and that no bad `.workload` changed the
# admission settings.
#
#   tests/shell_input_test.sh <path-to-example_shell>
set -euo pipefail

SHELL_BIN="${1:?usage: $0 <path-to-example_shell>}"

bad_commands=(
  "insert t 1 abc"                  # DOUBLE column, not a number
  "insert t 2 1.5x"                 # DOUBLE column, trailing junk
  "insert t 3 1e999"                # DOUBLE column, overflows
  "insert t x1 2.0"                 # INT64 column, not an integer
  "insert t 99999999999999999999 1" # INT64 column, overflows
  ".workload 4 xyz"                 # memory cap not a number
  ".workload 4 99999999999999"      # memory cap overflows MiB << 20
  ".workload 99999999999"           # concurrency does not fit an int
  ".workload 4x"                    # concurrency with trailing junk
  ".threads 3abc"                   # thread count with trailing junk
)

input="create t k:int v:dbl key k
$(printf '%s\n' "${bad_commands[@]}")
count t
.workload
insert t 5 2.5
count t
quit"

# Drop the `pdt> ` prompts so each command's output starts its line.
out="$(printf '%s\n' "$input" | "$SHELL_BIN" | sed -E 's/^(pdt> )+//')"

fail() {
  echo "shell_input_test FAILED: $*"
  echo "---- shell output ----"
  echo "$out"
  exit 1
}

errors="$(grep -c 'error:' <<<"$out" || true)"
[[ "$errors" == "${#bad_commands[@]}" ]] \
  || fail "expected ${#bad_commands[@]} error lines, got $errors"

# `count t` prints the row count on its own line: 0 after the bad
# inserts, 1 after the one good insert.
counts="$(grep -E '^  [0-9]+$' <<<"$out" | tr -d ' ' | paste -sd, -)"
[[ "$counts" == "0,1" ]] || fail "expected row counts 0,1, got '$counts'"

grep -q 'max_concurrent=0 ' <<<"$out" \
  || fail "a rejected .workload changed max_concurrent"
grep -q 'per_query_cap=0 MiB' <<<"$out" \
  || fail "a rejected .workload changed the per-query cap"

echo "shell_input_test OK (${#bad_commands[@]} malformed commands rejected)"
