#!/usr/bin/env bash
# The line count every change reports, by one rule.
#
#   scripts/loc.sh
#
# non-test: lines under crates/*/src, each file counted up to (not
#           including) its first `#[cfg(test)]` line, or whole if it has
#           none. Tests in `tests/` directories are not under `src/`.
# total:    every line of every `.rs` file under crates/ and vendor/.
set -euo pipefail
cd "$(dirname "$0")/.."

non_test=$(find crates/*/src -name '*.rs' -print0 | sort -z \
  | xargs -0 awk '
      FNR == 1 { done = 0 }
      /^[[:space:]]*#\[cfg\(test\)\]/ { done = 1 }
      !done { n++ }
      END { print n + 0 }' \
  | awk '{ s += $1 } END { print s }')
total_crates=$(find crates -name '*.rs' -print0 | xargs -0 cat | wc -l)
total_vendor=$(find vendor -name '*.rs' -print0 | xargs -0 cat | wc -l)

echo "non-test lines under crates/*/src: $non_test"
echo "total Rust lines under crates/:    $total_crates"
echo "total Rust lines under vendor/:    $total_vendor"
echo "total Rust lines, crates/+vendor/: $((total_crates + total_vendor))"
