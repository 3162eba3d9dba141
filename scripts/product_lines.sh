#!/usr/bin/env bash
# Counts product code, by ROADMAP's rule: the lines of every `.rs` file
# under `src` and `crates/*/src` before its first column-0 `#[cfg(test)]`;
# a file that opens with `#![cfg(test)]` (a test-only child module)
# counts nothing. Prints one line per crate, then the total.
#
#   scripts/product_lines.sh [repo-root]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

count() {
    find "$1" -name '*.rs' | LC_ALL=C sort | xargs awk '
        FNR == 1 && /^#!\[cfg\(test\)\]/ { nextfile }
        /^#\[cfg\(test\)\]/ { nextfile }
        { n++ }
        END { print n + 0 }'
}

total=0
for dir in crates/*/src src; do
    name=${dir#crates/}
    name=${name%/src}
    n=$(count "$dir")
    total=$((total + n))
    printf '%-12s %6d\n' "$name" "$n"
done
printf '%-12s %6d\n' total "$total"
