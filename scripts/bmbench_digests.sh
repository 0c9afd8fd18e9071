#!/bin/sh
# Prints the `sim digest` line of every pass of one untimed bmbench run
# per workload, host timings stripped, so two trees can be compared
# line for line. CI diffs the seed-0 output against
# scripts/bmbench_digests.txt.
#
#   scripts/bmbench_digests.sh [seed]
#
# Set BMBENCH to a built bmbench binary to skip `cargo run`.
seed=${1:-0}
for w in deploy-io boot-storm upgrade-wave; do
    if [ -n "$BMBENCH" ]; then
        "$BMBENCH" --workload "$w" --seed "$seed" --seconds 0 --trace 0
    else
        cargo run --release --offline --quiet --manifest-path bmbench/Cargo.toml -- \
            --workload "$w" --seed "$seed" --seconds 0 --trace 0
    fi | grep 'sim digest' | sed -e "s/^/$w /" -e 's/setup [0-9.]* s, wall [0-9.]* s, //'
done
