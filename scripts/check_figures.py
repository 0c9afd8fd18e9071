#!/usr/bin/env python3
"""Guard the reproduction's check coverage.

Compares the per-figure paper-vs-measured check counts in a
BENCH_reproduce.json (produced by `reproduce`, any scale) against the
committed paper-scale golden output `reproduce_output.txt`. Check
*values* differ between scales; the *number of checks per figure* must
not — a figure silently dropping comparisons is a regression this
catches.

The figures' pass/fail invariants are not checked here: they are gate
checks inside `reproduce`, which exits 1 when one fails.

Usage: scripts/check_figures.py BENCH_reproduce.json reproduce_output.txt
"""

import json
import re
import sys

# Quick scale skips the comparisons whose mechanisms only engage at full
# size (fig04 baseline sweep, fig05 phase checks, fig07 cold-cache run),
# so its floor is lower than the paper-scale golden for these figures.
# Keep in sync with the figure generators; every other figure must match
# the golden count exactly.
QUICK_SCALE_CHECKS = {"fig04": 1, "fig05": 7, "fig07": 3}


def golden_counts(path):
    """Per-figure check counts from the golden reproduce output."""
    counts = {}
    fig = None
    in_checks = False
    with open(path, encoding="utf-8") as f:
        for line in f:
            m = re.match(r"== (\w+) — ", line)
            if m:
                fig = m.group(1)
                counts[fig] = 0
                in_checks = False
                continue
            if line.startswith("== summary"):
                fig = None
                continue
            if fig is None:
                continue
            if line.strip() == "paper vs measured:":
                in_checks = True
                continue
            if in_checks:
                if line.strip() and "paper" in line and "measured" in line:
                    counts[fig] += 1
                elif not line.strip():
                    in_checks = False
    return counts


def main():
    if len(sys.argv) != 3 or sys.argv[1].startswith("--"):
        sys.exit(__doc__.strip().splitlines()[-1])
    bench_path, golden_path = sys.argv[1], sys.argv[2]

    with open(bench_path, encoding="utf-8") as f:
        bench = json.load(f)
    measured = {fig["id"]: fig["checks"] for fig in bench["figures"]}
    golden = golden_counts(golden_path)
    if bench.get("scale") == "Quick":
        golden.update(QUICK_SCALE_CHECKS)

    failed = False
    for fig_id, want in sorted(golden.items()):
        got = measured.get(fig_id)
        if got is None:
            print(f"FAIL {fig_id}: missing from {bench_path}")
            failed = True
        elif got < want:
            print(f"FAIL {fig_id}: {got} checks, golden has {want}")
            failed = True
        else:
            print(f"ok   {fig_id}: {got} checks (golden {want})")
    for fig_id in sorted(set(measured) - set(golden)):
        print(f"note {fig_id}: not in golden output ({measured[fig_id]} checks)")

    total = sum(measured.get(f, 0) for f in golden)
    print(f"total: {total} checks across {len(golden)} golden figures")
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
