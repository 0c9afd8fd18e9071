#!/bin/sh
# Prints the non-test lines of every workspace crate's sources and
# their total: for each `crates/<crate>/src/**/*.rs`, the lines above
# the file's first `#[cfg(test)]` (the whole file if it has none).
# Inline test modules sit at the end of a file here, so this counts the
# code a build without tests compiles, plus its docs and comments.
#
#   scripts/nontest_lines.sh
#
# Run it from anywhere; it counts the tree it lives in.
cd "$(dirname "$0")/.." || exit 1
total=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    n=$(find "$dir/src" -name '*.rs' | sort | while read -r f; do
        awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f"
    done | awk '{ s += $1 } END { print s + 0 }')
    printf '%-10s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
