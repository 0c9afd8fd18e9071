#!/usr/bin/env python3
"""Guard the reproduction's check coverage.

Compares the per-figure paper-vs-measured check counts in a
BENCH_reproduce.json (produced by `reproduce`, any scale) against the
committed paper-scale golden output `reproduce_output.txt`. Check
*values* differ between scales; the *number of checks per figure* must
not — a figure silently dropping comparisons is a regression this
catches.

With `--faults`, instead validates a fault-matrix run (`reproduce
--faults all`): every `faults_*` figure must be present with at least
one check, and every check must hold (`within_10pct == checks` — fault
checks are pass/fail booleans, so any miss is a failed invariant, not a
scale effect). No golden file is involved.

With `--trace`, validates a flight-recorder artifact directory
(`reproduce --trace-out DIR`): the sampled `bitmap.fill_pct` timeline in
`timeline.json` must be monotone non-decreasing and end at exactly 100%,
and `trace.json` must be valid JSON with a non-empty `traceEvents`
array.

With `--scaleout`, validates a measured fleet scale-out artifact
(`reproduce --scaleout` writes `BENCH_scaleout.json`) across its three
topology columns (1-server, k-server, p2p): 1-server startup p99 must
be monotone non-decreasing in fleet size (small tolerance for sim
noise), k-server p99 must never exceed 1-server p99 (striping never
loses), BMcast must beat the analytic image-copy baseline at every
point, the server block cache must carry at least half the reads at
n >= 8 in the server-bound columns, p2p p99 must not exceed the
1-server p99 at any shared n >= 8, and the p2p column must report zero
queue drops (supply grows with demand).

With `--elasticity`, validates a reverse-lifecycle artifact (`reproduce
--elasticity` writes `BENCH_elasticity.json`): every rolling-upgrade
point must survive with zero queue drops, zero reclaim errors, and every
machine's archive and redeployed image verified; the scale wave must
park and restore all its members; every survivability row must survive
its fault plan with the plan's fault class actually firing; the chaos
double run must be byte-identical.

With `--obs`, validates a fleet observability artifact directory
(`reproduce --scaleout --fleet-obs DIR` writes `DIR/scaleout`,
`--elasticity --fleet-obs DIR` writes `DIR/elasticity`): all seven
artifact files must be present; the merged snapshot must carry
`machine.{i}.`-namespaced member series whose sum equals the `fleet.`
aggregate; the alert timeline must use known rule names with a raise
preceding every clear; the straggler report's decile must sit at or
above the fleet median with a consistent peer/origin read split; the
Perfetto trace must be non-empty; and `obs_digest.json` must match the
FNV-1a64 digest of every artifact body, recomputed here.

With `--transport`, validates a deployment-transport race (`reproduce
--scaleout --transport ...` writes `BENCH_transport.json`): the plain-AoE
baseline column must be present; at the largest shared fleet size the
RDMA column must beat plain AoE on startup p99 with the win attributable
in the straggler report (median RTT total strictly below plain AoE's),
batched AoE must hold plain within 2%, the batched and RDMA columns must
not inflate the origin's request stream, RDMA points must actually serve
one-sided (rdma_reads > 0, and only there), queue drops must be zero
everywhere (the IB lane is lossless, the Ethernet lane backpressured),
and every chaos double run must be byte-identical.

Usage: scripts/check_figures.py BENCH_reproduce.json reproduce_output.txt
       scripts/check_figures.py --faults BENCH_reproduce.json
       scripts/check_figures.py --trace TRACE_DIR
       scripts/check_figures.py --scaleout BENCH_scaleout.json
       scripts/check_figures.py --elasticity BENCH_elasticity.json
       scripts/check_figures.py --obs OBS_DIR
       scripts/check_figures.py --transport BENCH_transport.json
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


def check_faults(bench_path):
    """Validate a fault-matrix run: all fault figures present, all green."""
    with open(bench_path, encoding="utf-8") as f:
        bench = json.load(f)
    figures = [f for f in bench["figures"] if f["id"].startswith("faults_")]
    failed = False
    if not figures:
        print(f"FAIL: no faults_* figures in {bench_path}")
        failed = True
    for fig in figures:
        fig_id, checks, within = fig["id"], fig["checks"], fig["within_10pct"]
        if checks == 0:
            print(f"FAIL {fig_id}: no checks recorded")
            failed = True
        elif within < checks:
            print(f"FAIL {fig_id}: {checks - within} of {checks} invariants failed")
            failed = True
        else:
            print(f"ok   {fig_id}: {checks} invariants hold")
    print(f"total: {len(figures)} fault figures")
    if failed:
        sys.exit(1)


def check_trace(trace_dir):
    """Validate flight-recorder artifacts: monotone fill ending at 100%."""
    import os

    failed = False
    timeline_path = os.path.join(trace_dir, "timeline.json")
    with open(timeline_path, encoding="utf-8") as f:
        rows = json.load(f)["rows"]
    fills = [r["series"]["bitmap.fill_pct"] for r in rows
             if "bitmap.fill_pct" in r["series"]]
    if len(fills) < 2:
        print(f"FAIL timeline: only {len(fills)} bitmap.fill_pct samples")
        failed = True
    for i in range(1, len(fills)):
        if fills[i] < fills[i - 1]:
            print(f"FAIL timeline: fill regressed {fills[i - 1]} -> {fills[i]}"
                  f" at row {i}")
            failed = True
    if fills and fills[-1] != 100.0:
        print(f"FAIL timeline: final fill is {fills[-1]}, expected 100.0")
        failed = True
    if not failed:
        print(f"ok   timeline: {len(fills)} samples, monotone, ends at 100%")

    with open(os.path.join(trace_dir, "trace.json"), encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]
    if not events:
        print("FAIL trace.json: empty traceEvents")
        failed = True
    else:
        spans = sum(1 for e in events if e.get("ph") == "X")
        counters = sum(1 for e in events if e.get("ph") == "C")
        print(f"ok   trace.json: {len(events)} events"
              f" ({spans} spans, {counters} counter points)")
    if failed:
        sys.exit(1)


def check_scaleout(bench_path):
    """Validate a measured fleet scale-out run (BENCH_scaleout.json)."""
    with open(bench_path, encoding="utf-8") as f:
        points = json.load(f)["points"]
    failed = False
    if len(points) < 2:
        print(f"FAIL: only {len(points)} scale-out points in {bench_path}")
        sys.exit(1)

    # Points arrive grouped by topology in grid order; older artifacts
    # (pre-topology schema) default to a single 1-server column.
    cols = {}
    for p in points:
        cols.setdefault(p.get("topology", "1-server"), []).append(p)
    for label in ("1-server", "k-server", "p2p"):
        if label not in cols:
            print(f"FAIL: topology column '{label}' missing from {bench_path}")
            failed = True
    if failed:
        sys.exit(1)

    # One origin with fixed supply must make p99 monotone in n. The
    # k-server column is not monotone at small n (striping removes the
    # contention; warm shard caches speed up later staggered arrivals),
    # so its claim is comparative: striping never loses to one server.
    col = cols["1-server"]
    ns = [p["n"] for p in col]
    p99 = [p["startup_p99_s"] for p in col]
    monotone = True
    for i in range(1, len(col)):
        if p99[i] < p99[i - 1] * 0.999:
            print(f"FAIL 1-server monotone: p99 {p99[i - 1]:.2f}s at"
                  f" n={ns[i - 1]} -> {p99[i]:.2f}s at n={ns[i]}")
            failed = monotone = False
    if monotone:
        print(f"ok   1-server: p99 monotone over n={ns}")

    single = {p["n"]: p for p in cols["1-server"]}
    multi = {p["n"]: p for p in cols["k-server"]}
    bad_k = [n for n in sorted(single)
             if n in multi
             and multi[n]["startup_p99_s"] > single[n]["startup_p99_s"] * 1.02]
    for n in bad_k:
        print(f"FAIL k-server n={n}: p99 {multi[n]['startup_p99_s']:.2f}s"
              f" above 1-server {single[n]['startup_p99_s']:.2f}s")
        failed = True
    if not bad_k:
        print(f"ok   k-server p99 never above 1-server"
              f" at shared n={sorted(set(single) & set(multi))}")

    slow = [p for p in points if p["startup_p99_s"] >= p["image_copy_s"]]
    if slow:
        for p in slow:
            print(f"FAIL {p.get('topology', '?')} n={p['n']}: BMcast"
                  f" {p['startup_p99_s']:.1f}s not under image copy"
                  f" {p['image_copy_s']:.1f}s")
        failed = True
    else:
        print(f"ok   BMcast under image copy at all {len(points)} points")

    # p2p members serve from their own golden image, so the origin's
    # cache carries a shrinking share by design — the hit-ratio floor
    # applies to the server-bound columns only.
    big = [p for label in ("1-server", "k-server") for p in cols[label]
           if p["n"] >= 8]
    bad_cache = [p for p in big if p["cache_hit_ratio"] < 0.5]
    for p in bad_cache:
        print(f"FAIL {p['topology']} n={p['n']}: cache hit ratio"
              f" {p['cache_hit_ratio']:.3f} < 0.5")
        failed = True
    if big and not bad_cache:
        print(f"ok   cache hit ratio >= 0.5 at n >= 8"
              f" (best {max(p['cache_hit_ratio'] for p in big):.3f})")

    # The p2p claim: peer supply grows with demand, so at every fleet
    # size the baseline also reaches (n >= 8, once the single pipe is
    # contended), p2p is at least as fast (2% sim-noise slack).
    single = {p["n"]: p for p in cols["1-server"]}
    p2p = {p["n"]: p for p in cols["p2p"]}
    shared = sorted(n for n in single if n in p2p and n >= 8)
    bad_win = [n for n in shared
               if p2p[n]["startup_p99_s"] > single[n]["startup_p99_s"] * 1.02]
    for n in bad_win:
        print(f"FAIL p2p n={n}: p99 {p2p[n]['startup_p99_s']:.2f}s above"
              f" 1-server {single[n]['startup_p99_s']:.2f}s")
        failed = True
    if shared and not bad_win:
        print(f"ok   p2p p99 <= 1-server p99 at shared n={shared}")

    drops = [p for p in cols["p2p"] if p["queue_drops"] != 0]
    for p in drops:
        print(f"FAIL p2p n={p['n']}: {p['queue_drops']} queue drops")
        failed = True
    if not drops:
        biggest = max(p["n"] for p in cols["p2p"])
        print(f"ok   p2p: zero queue drops up to n={biggest}")

    if failed:
        sys.exit(1)


def check_elasticity(bench_path):
    """Validate a reverse-lifecycle run (BENCH_elasticity.json)."""
    with open(bench_path, encoding="utf-8") as f:
        bench = json.load(f)
    failed = False

    for key in ("scale", "points", "wave", "survivability", "chaos"):
        if key not in bench:
            print(f"FAIL schema: top-level key '{key}' missing")
            failed = True
    if failed:
        sys.exit(1)

    point_keys = ("n", "batch", "survived", "boot_p50_s", "upgrade_p50_s",
                  "upgrade_p99_s", "makespan_s", "queue_drops",
                  "archives_verified", "images_verified", "reclaim_errors")
    points = bench["points"]
    if not points:
        print("FAIL points: empty")
        failed = True
    for i, p in enumerate(points):
        missing = [k for k in point_keys if k not in p]
        if missing:
            print(f"FAIL points[{i}]: missing {missing}")
            failed = True
            continue
        n = p["n"]
        if not p["survived"]:
            print(f"FAIL upgrade n={n}: wave stalled")
            failed = True
        if p["queue_drops"] != 0:
            print(f"FAIL upgrade n={n}: {p['queue_drops']} queue drops")
            failed = True
        if p["reclaim_errors"] != 0:
            print(f"FAIL upgrade n={n}: {p['reclaim_errors']} reclaim errors")
            failed = True
        if p["archives_verified"] != n or p["images_verified"] != n:
            print(f"FAIL upgrade n={n}: archives {p['archives_verified']}/{n},"
                  f" images {p['images_verified']}/{n} verified")
            failed = True
        if not p["upgrade_p50_s"] > 0 or p["makespan_s"] < p["upgrade_p99_s"]:
            print(f"FAIL upgrade n={n}: implausible durations"
                  f" (p50 {p['upgrade_p50_s']}, p99 {p['upgrade_p99_s']},"
                  f" makespan {p['makespan_s']})")
            failed = True
    if not failed:
        ns = [p["n"] for p in points]
        print(f"ok   upgrades: all {len(points)} waves clean at n={ns}")

    w = bench["wave"]
    if (w["parked_emptied"] != w["parked"] or w["images_verified"] != w["parked"]
            or w["queue_drops"] != 0):
        print(f"FAIL wave: parked {w['parked']}, emptied {w['parked_emptied']},"
              f" restored {w['images_verified']}, drops {w['queue_drops']}")
        failed = True
    else:
        print(f"ok   wave: {w['parked']}/{w['n']} parked empty and restored")

    plans = {r["plan"] for r in bench["survivability"]}
    for want in ("drop", "corrupt", "stall", "chaos"):
        if want not in plans:
            print(f"FAIL survivability: plan '{want}' missing")
            failed = True
    for r in bench["survivability"]:
        if not r["survived"] or r["reclaim_errors"] != 0:
            print(f"FAIL survivability {r['plan']}: survived={r['survived']},"
                  f" reclaim_errors={r['reclaim_errors']}")
            failed = True
        elif r["class_fired"] == 0:
            print(f"FAIL survivability {r['plan']}: fault class never fired")
            failed = True
        else:
            print(f"ok   survivability {r['plan']}: {r['class_fired']} faults,"
                  f" {r['retransmits']} retransmits, snapshot survived")

    c = bench["chaos"]
    if (c["digest_a"] != c["digest_b"] or not c["identical"]
            or not c["trace_identical"]):
        print(f"FAIL chaos: {c['digest_a']} vs {c['digest_b']}"
              f" (traces identical: {c['trace_identical']})")
        failed = True
    else:
        print(f"ok   chaos: double run byte-identical ({c['digest_a']})")

    if failed:
        sys.exit(1)


OBS_ARTIFACTS = (
    "fleet_snapshot.json",
    "fleet_alerts.json",
    "fleet_alerts.txt",
    "straggler_report.json",
    "straggler_report.txt",
    "fleet_trace.json",
)

OBS_RULES = ("retransmit-storm", "cache-collapse", "stalled-member",
             "boot-budget")


def fnv1a64(data):
    """FNV-1a 64-bit, matching the Rust side's digest of artifact bytes."""
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def check_obs(obs_dir):
    """Validate a fleet observability artifact directory (--fleet-obs)."""
    import os

    failed = False
    missing = [n for n in OBS_ARTIFACTS + ("obs_digest.json",)
               if not os.path.isfile(os.path.join(obs_dir, n))]
    if missing:
        print(f"FAIL files: missing {missing} in {obs_dir}")
        sys.exit(1)
    print(f"ok   files: all {len(OBS_ARTIFACTS) + 1} artifacts present")

    with open(os.path.join(obs_dir, "fleet_snapshot.json"),
              encoding="utf-8") as f:
        snap = json.load(f)
    counters = snap["counters"]
    member_reads = {}
    for name, v in counters.items():
        m = re.match(r"machine\.(\d+)\.aoe\.client\.reads$", name)
        if m:
            member_reads[int(m.group(1))] = v
    if not member_reads:
        print("FAIL snapshot: no machine.{i}.aoe.client.reads counters")
        failed = True
    fleet_reads = counters.get("fleet.aoe.client.reads")
    if fleet_reads != sum(member_reads.values()):
        print(f"FAIL snapshot: fleet.aoe.client.reads {fleet_reads}"
              f" != member sum {sum(member_reads.values())}")
        failed = True
    booted = snap["gauges"].get("fleet.machines_booted", 0)
    if booted <= 0:
        print(f"FAIL snapshot: fleet.machines_booted is {booted}")
        failed = True
    if not failed:
        print(f"ok   snapshot: {len(member_reads)} members namespaced,"
              f" fleet aggregate consistent, {booted} booted")

    with open(os.path.join(obs_dir, "fleet_alerts.json"),
              encoding="utf-8") as f:
        alerts = json.load(f)["alerts"]
    raised = {}
    for i, a in enumerate(alerts):
        if a["rule"] not in OBS_RULES:
            print(f"FAIL alerts[{i}]: unknown rule {a['rule']!r}")
            failed = True
        if a["edge"] == "raise":
            raised[a["rule"]] = raised.get(a["rule"], 0) + 1
        elif a["edge"] == "clear":
            if raised.get(a["rule"], 0) <= 0:
                print(f"FAIL alerts[{i}]: {a['rule']} cleared before raise")
                failed = True
            else:
                raised[a["rule"]] -= 1
        else:
            print(f"FAIL alerts[{i}]: unknown edge {a['edge']!r}")
            failed = True
    print(f"ok   alerts: {len(alerts)} edges, raise-before-clear holds")

    with open(os.path.join(obs_dir, "straggler_report.json"),
              encoding="utf-8") as f:
        report = json.load(f)
    if report["booted"] <= 0 or not report["stragglers"]:
        print(f"FAIL stragglers: booted {report['booted']},"
              f" {len(report['stragglers'])} rows")
        failed = True
    median = report["median"]["boot_s"]
    for r in report["stragglers"]:
        if r["boot_s"] < median:
            print(f"FAIL stragglers: machine {r['machine']} boot"
                  f" {r['boot_s']:.3f}s below median {median:.3f}s")
            failed = True
        if r["peer_reads"] + r["origin_reads"] != r["reads"]:
            print(f"FAIL stragglers: machine {r['machine']} read mix"
                  f" {r['peer_reads']}+{r['origin_reads']} != {r['reads']}")
            failed = True
    if not failed:
        print(f"ok   stragglers: {len(report['stragglers'])} of"
              f" {report['booted']} decomposed, slowest"
              f" {max(r['boot_s'] for r in report['stragglers']):.2f}s"
              f" vs median {median:.2f}s")

    with open(os.path.join(obs_dir, "fleet_trace.json"),
              encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]
    if not events:
        print("FAIL fleet_trace.json: empty traceEvents")
        failed = True
    else:
        print(f"ok   fleet_trace.json: {len(events)} events")

    with open(os.path.join(obs_dir, "obs_digest.json"),
              encoding="utf-8") as f:
        digests = json.load(f)["artifacts"]
    for name in OBS_ARTIFACTS:
        with open(os.path.join(obs_dir, name), "rb") as f:
            got = f"{fnv1a64(f.read()):016x}"
        want = digests.get(name)
        if got != want:
            print(f"FAIL digest {name}: recorded {want}, recomputed {got}")
            failed = True
    if set(digests) != set(OBS_ARTIFACTS):
        print(f"FAIL digest: covers {sorted(digests)},"
              f" expected {sorted(OBS_ARTIFACTS)}")
        failed = True
    if not failed:
        print(f"ok   digest: {len(digests)} artifacts match recomputation")

    if failed:
        sys.exit(1)


TRANSPORT_POINT_KEYS = (
    "transport", "n", "startup_p50_s", "startup_p99_s", "fairness_ratio",
    "cache_hit_ratio", "bytes_moved", "requests", "rdma_reads",
    "queue_drops", "alert_raises", "median_rtt_total_s",
    "median_queue_excess_s", "straggler_rtt_total_s",
    "straggler_queue_excess_s",
)


def check_transport(bench_path):
    """Validate a deployment-transport race (BENCH_transport.json)."""
    with open(bench_path, encoding="utf-8") as f:
        bench = json.load(f)
    failed = False

    for key in ("scale", "transports", "points", "chaos"):
        if key not in bench:
            print(f"FAIL schema: top-level key '{key}' missing")
            failed = True
    if failed:
        sys.exit(1)

    points = bench["points"]
    if not points:
        print("FAIL points: empty")
        sys.exit(1)
    for i, p in enumerate(points):
        missing = [k for k in TRANSPORT_POINT_KEYS if k not in p]
        if missing:
            print(f"FAIL points[{i}]: missing {missing}")
            failed = True
    if failed:
        sys.exit(1)

    cols = {}
    for p in points:
        cols.setdefault(p["transport"], {})[p["n"]] = p
    if "aoe" not in cols:
        print("FAIL: plain-AoE baseline column missing (nothing to race)")
        sys.exit(1)
    aoe = cols["aoe"]
    print(f"ok   schema: {len(points)} points over"
          f" transports {sorted(cols)}")

    # One-sided serving is exclusive to the rdma column; queue drops are
    # forbidden everywhere (lossless IB lane, backpressured Ethernet).
    for label, col in sorted(cols.items()):
        for n, p in sorted(col.items()):
            if label == "rdma" and p["rdma_reads"] == 0:
                print(f"FAIL rdma n={n}: zero one-sided reads")
                failed = True
            if label != "rdma" and p["rdma_reads"] != 0:
                print(f"FAIL {label} n={n}: {p['rdma_reads']} rdma reads"
                      f" off the rdma column")
                failed = True
            if p["queue_drops"] != 0:
                print(f"FAIL {label} n={n}: {p['queue_drops']} queue drops")
                failed = True
    if not failed:
        print("ok   lanes: one-sided serving only on rdma, zero drops")

    # The race itself, at the largest fleet size every column measured.
    for label, col in sorted(cols.items()):
        if label == "aoe":
            continue
        shared = sorted(set(col) & set(aoe))
        if not shared:
            print(f"FAIL {label}: no fleet size shared with the baseline")
            failed = True
            continue
        n = shared[-1]
        ours, base = col[n], aoe[n]
        if label == "rdma":
            if ours["startup_p99_s"] >= base["startup_p99_s"]:
                print(f"FAIL rdma n={n}: p99 {ours['startup_p99_s']:.2f}s"
                      f" not under plain AoE {base['startup_p99_s']:.2f}s")
                failed = True
            if ours["median_rtt_total_s"] >= base["median_rtt_total_s"]:
                print(f"FAIL rdma n={n}: median RTT total"
                      f" {ours['median_rtt_total_s']:.3f}s not under plain"
                      f" {base['median_rtt_total_s']:.3f}s — win not"
                      f" attributable")
                failed = True
            # Median, not straggler: the slowest plain-AoE member can
            # show zero queueing excess when busy backoff, not queue
            # wait, dominates its boot — the fleet-wide claim lives in
            # the median member (10ms slack for sim noise).
            if ours["median_queue_excess_s"] > base["median_queue_excess_s"] + 0.01:
                print(f"FAIL rdma n={n}: median queueing excess"
                      f" {ours['median_queue_excess_s']:.3f}s above plain"
                      f" {base['median_queue_excess_s']:.3f}s")
                failed = True
            if not failed:
                print(f"ok   rdma n={n}: p99 {ours['startup_p99_s']:.2f}s <"
                      f" {base['startup_p99_s']:.2f}s, median RTT"
                      f" {ours['median_rtt_total_s']:.3f}s <"
                      f" {base['median_rtt_total_s']:.3f}s (attributable)")
        else:  # batched
            if ours["startup_p99_s"] > base["startup_p99_s"] * 1.02:
                print(f"FAIL batched n={n}: p99 {ours['startup_p99_s']:.2f}s"
                      f" above plain AoE {base['startup_p99_s']:.2f}s + 2%")
                failed = True
            else:
                print(f"ok   batched n={n}: p99 {ours['startup_p99_s']:.2f}s"
                      f" holds plain {base['startup_p99_s']:.2f}s")
        # Request totals only compare within one congestion regime (a
        # congested plain fleet coalesces more claims per read), so the
        # shrink claim is pinned where regimes match: batched vs plain
        # at every shared n (same Ethernet lane), every extension vs
        # plain at the uncontended smallest n.
        shrink_ns = shared if label == "batched" else shared[:1]
        for m in shrink_ns:
            if col[m]["requests"] >= aoe[m]["requests"]:
                print(f"FAIL {label} n={m}: {col[m]['requests']} requests"
                      f" not under plain AoE's {aoe[m]['requests']} —"
                      f" planning inflated the request stream")
                failed = True
            else:
                print(f"ok   {label} n={m}: request stream"
                      f" {col[m]['requests']} < plain {aoe[m]['requests']}")

    runs = bench["chaos"]
    if not runs:
        print("FAIL chaos: empty")
        failed = True
    for c in runs:
        if c["digest_a"] != c["digest_b"] or not c["identical"]:
            print(f"FAIL chaos {c['transport']}: {c['digest_a']}"
                  f" vs {c['digest_b']}")
            failed = True
    if runs and not failed:
        print(f"ok   chaos: {len(runs)} double runs byte-identical")

    if failed:
        sys.exit(1)


def main():
    if len(sys.argv) == 3 and sys.argv[1] == "--faults":
        check_faults(sys.argv[2])
        return
    if len(sys.argv) == 3 and sys.argv[1] == "--trace":
        check_trace(sys.argv[2])
        return
    if len(sys.argv) == 3 and sys.argv[1] == "--scaleout":
        check_scaleout(sys.argv[2])
        return
    if len(sys.argv) == 3 and sys.argv[1] == "--elasticity":
        check_elasticity(sys.argv[2])
        return
    if len(sys.argv) == 3 and sys.argv[1] == "--obs":
        check_obs(sys.argv[2])
        return
    if len(sys.argv) == 3 and sys.argv[1] == "--transport":
        check_transport(sys.argv[2])
        return
    if len(sys.argv) != 3 or sys.argv[1].startswith("--"):
        sys.exit("\n".join(__doc__.strip().splitlines()[-2:]))
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
