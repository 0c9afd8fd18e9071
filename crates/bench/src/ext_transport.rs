//! The deployment transport race (`reproduce --scaleout --transport`).
//!
//! Same fleet, same image, same arrival pattern — three transports:
//! plain AoE (the paper's baseline, one request per run), batched AoE
//! (v3 multi-range frames over coalesced runs), and the RDMA backend
//! (batched planning served as one-sided InfiniBand READs, replies on
//! the fabric's IB lane). Every point is a measured
//! [`Fleet`](bmcast::fleet::Fleet) run on the **single-server**
//! topology — one origin is exactly where the transports differ:
//! plain AoE queues on the worker pool, the disk, and the shared
//! Ethernet egress; batched AoE shrinks the request stream; RDMA takes
//! the server CPU and the egress queue out of the data path entirely.
//!
//! Every fleet runs with the PR 9 observability plane on — flight
//! recorder, SLO watchdogs, straggler attribution — **unchanged**: all
//! transports speak through the one `AoeClient`, so the RTT histograms
//! and per-shelf read counters the attribution is built from cover the
//! IB lane for free. The n=64 win has to be *attributable*: the RDMA
//! column's median RTT total and queueing excess must drop below plain
//! AoE's, not just its p99.
//!
//! `BENCH_transport.json` carries the points plus a two-run chaos
//! determinism lock per transport.

use crate::ext_scaleout::{
    boot_fleet, boots, fleet_geometry, topology_fleet_cfg, BootStats, ChaosLock, Topology,
};
use crate::{par_map, Check, Figure, Row, Scale};
use bmcast::TransportKind;
use simkit::export::push_json_list;
use simkit::fault::FaultPlan;

/// Seed of the chaos determinism lock's fault plan.
pub const TRANSPORT_FAULT_SEED: u64 = 7;

/// Fleet size of the chaos lock.
pub const LOCK_FLEET_N: u32 = 8;

/// The `n` grid per transport. Quick keeps the endpoints the
/// acceptance checks read (the n=1 baseline and the n=64 comparison
/// point); paper fills the curve. Same geometry at both scales, so
/// every quick point is bit-identical to the paper run's subset.
pub fn transport_grid(scale: Scale) -> Vec<u32> {
    match scale {
        Scale::Paper => vec![1, 2, 4, 8, 16, 32, 64],
        Scale::Quick => vec![1, 8, 64],
    }
}

/// Resolves the `--transport` CLI selection into the raced kinds. A
/// single extension transport always races against the plain-AoE
/// baseline (the comparison is the point); `all` races everything.
pub fn kinds_for(sel: &str) -> Option<Vec<TransportKind>> {
    match sel {
        "all" => Some(TransportKind::ALL.to_vec()),
        _ => match TransportKind::parse(sel)? {
            TransportKind::Aoe => Some(vec![TransportKind::Aoe]),
            k => Some(vec![TransportKind::Aoe, k]),
        },
    }
}

/// One measured transport point: `n` machines on one origin server,
/// deployed over `transport`.
#[derive(Debug, Clone)]
pub struct TransportPoint {
    /// Transport label ([`TransportKind::label`]).
    pub transport: &'static str,
    /// Fleet size.
    pub n: u32,
    /// The booted fleet's startups and origin totals. Its queue drops
    /// must stay 0: the IB lane is lossless and the Ethernet lane is
    /// backpressured.
    pub boot: BootStats,
    /// AoE requests the origin served — the batched columns must
    /// shrink this against plain at equal bytes.
    pub requests: u64,
    /// Requests served one-sided by the HCA (0 off the rdma column).
    pub rdma_reads: u64,
    /// SLO alert raise edges over the run (PR 9 watchdogs, unchanged).
    pub alert_raises: u32,
    /// Fleet-median member's total AoE round-trip time, seconds — the
    /// attribution column: RDMA's win must show up here.
    pub median_rtt_total_s: f64,
    /// Fleet-median member's queueing excess (RTT beyond the
    /// uncontended floor), seconds.
    pub median_queue_excess_s: f64,
    /// Slowest member's RTT total, seconds (the straggler's view).
    pub straggler_rtt_total_s: f64,
    /// Slowest member's queueing excess, seconds.
    pub straggler_queue_excess_s: f64,
}

/// A [`TransportPoint`] plus the event count (the digest witness).
#[derive(Debug, Clone)]
pub struct MeasuredTransport {
    /// The figure point.
    pub point: TransportPoint,
    /// Events executed across the fleet and every member simulation.
    pub events: u64,
}

/// Boots one fleet of `n` over `kind` with the full PR 9 observability
/// plane armed and reduces it to a [`MeasuredTransport`].
pub fn measure_transport_point(
    kind: TransportKind,
    n: u32,
    faults: Option<FaultPlan>,
) -> MeasuredTransport {
    let (spec, profile) = fleet_geometry();
    let mut cfg = topology_fleet_cfg(Topology::SingleServer, n, &spec);
    cfg.machine_cfg.transport = kind;
    cfg.faults = faults;
    let (fleet, mut startups) = boot_fleet(cfg, true, boots(&profile));
    let report = fleet
        .straggler_attribution()
        .expect("flight recorder is on");
    let slowest = report.stragglers.first().unwrap_or(&report.median);
    MeasuredTransport {
        point: TransportPoint {
            transport: kind.label(),
            n,
            boot: BootStats::of(&fleet, &mut startups),
            requests: fleet.server().requests(),
            rdma_reads: fleet.server().rdma_reads(),
            alert_raises: fleet.alerts().iter().filter(|a| a.raised).count() as u32,
            median_rtt_total_s: report.median.rtt_total_s,
            median_queue_excess_s: report.median.queue_excess_s,
            straggler_rtt_total_s: slowest.rtt_total_s,
            straggler_queue_excess_s: slowest.queue_excess_s,
        },
        events: fleet.events_executed(),
    }
}

/// One point's JSON object, fixed precision — what gets hashed for the
/// chaos lock is byte-for-byte what gets published.
pub fn transport_point_json(p: &TransportPoint) -> String {
    format!(
        "{{\"transport\": \"{}\", \"n\": {}, \"startup_p50_s\": {:.6}, \
         \"startup_p99_s\": {:.6}, \"fairness_ratio\": {:.6}, \
         \"cache_hit_ratio\": {:.6}, \"bytes_moved\": {}, \"requests\": {}, \
         \"rdma_reads\": {}, \"queue_drops\": {}, \"alert_raises\": {}, \
         \"median_rtt_total_s\": {:.6}, \"median_queue_excess_s\": {:.6}, \
         \"straggler_rtt_total_s\": {:.6}, \"straggler_queue_excess_s\": {:.6}}}",
        p.transport,
        p.n,
        p.boot.p50_s,
        p.boot.p99_s,
        p.boot.fairness_ratio,
        p.boot.cache_hit_ratio,
        p.boot.bytes_moved,
        p.requests,
        p.rdma_reads,
        p.boot.queue_drops,
        p.alert_raises,
        p.median_rtt_total_s,
        p.median_queue_excess_s,
        p.straggler_rtt_total_s,
        p.straggler_queue_excess_s,
    )
}

/// The determinism witness of one run: published JSON plus the event
/// count.
pub fn transport_witness(m: &MeasuredTransport) -> String {
    format!("{}|events={}", transport_point_json(&m.point), m.events)
}

/// Everything `BENCH_transport.json` records.
#[derive(Debug, Clone)]
pub struct TransportBench {
    /// Transports raced, in race order.
    pub kinds: Vec<TransportKind>,
    /// Grid points, grouped by transport in grid order.
    pub points: Vec<MeasuredTransport>,
    /// The chaos determinism lock, one per raced transport in `kinds`
    /// order: the same chaos fault plan replayed from the same seed
    /// must reproduce the run byte-for-byte, retransmission paths
    /// included.
    pub chaos: Vec<ChaosLock>,
}

/// Measures the full race: the `(kind, n)` grid plus the chaos lock,
/// on at most `jobs` host threads (each run owns its whole simulated
/// world).
pub fn measure_transport(scale: Scale, jobs: usize, kinds: &[TransportKind]) -> TransportBench {
    let ns = transport_grid(scale);
    // One flat work list: grid points, then per-kind (a, b) chaos runs.
    #[derive(Clone, Copy)]
    enum Job {
        Grid(TransportKind, u32),
        Chaos(TransportKind),
    }
    let mut work: Vec<Job> = Vec::new();
    for &k in kinds {
        for &n in &ns {
            work.push(Job::Grid(k, n));
        }
    }
    for &k in kinds {
        work.push(Job::Chaos(k));
        work.push(Job::Chaos(k));
    }

    let mut measured = par_map(jobs, &work, |&job| match job {
        Job::Grid(k, n) => measure_transport_point(k, n, None),
        Job::Chaos(k) => measure_transport_point(
            k,
            LOCK_FLEET_N,
            FaultPlan::preset("chaos", TRANSPORT_FAULT_SEED),
        ),
    });

    let chaos_runs = measured.split_off(kinds.len() * ns.len());
    let points = measured;

    let chaos = chaos_runs
        .chunks(2)
        .map(|pair| {
            let [a, b] = pair else {
                unreachable!("chaos runs pushed in pairs")
            };
            ChaosLock::of(&transport_witness(a), &transport_witness(b))
        })
        .collect();

    TransportBench {
        kinds: kinds.to_vec(),
        points,
        chaos,
    }
}

/// The transport-race figure (the `reproduce --scaleout --transport`
/// path).
pub fn run_transport(
    scale: Scale,
    jobs: usize,
    kinds: &[TransportKind],
) -> (Figure, TransportBench) {
    let bench = measure_transport(scale, jobs, kinds);
    let rows = bench
        .points
        .iter()
        .map(|m| {
            let p = &m.point;
            Row::new(
                format!("{:<7} {:>3} machines", p.transport, p.n),
                vec![
                    ("p50 s".into(), p.boot.p50_s),
                    ("p99 s".into(), p.boot.p99_s),
                    ("requests".into(), p.requests as f64),
                    ("rdma reads".into(), p.rdma_reads as f64),
                    ("rtt p50 s".into(), p.median_rtt_total_s),
                    ("queue exc s".into(), p.median_queue_excess_s),
                    ("alerts".into(), p.alert_raises as f64),
                    ("q drops".into(), p.boot.queue_drops as f64),
                ],
            )
        })
        .collect();
    let fig = Figure {
        id: "transport",
        title: "deployment transport race: n machines, one origin server",
        unit: "seconds",
        checks: transport_checks(&bench),
        rows,
    };
    (fig, bench)
}

/// The transport race's gates. Cross-transport gates engage only when
/// the baseline and the extension transport were both raced.
pub fn transport_checks(bench: &TransportBench) -> Vec<Check> {
    let points: Vec<&TransportPoint> = bench.points.iter().map(|m| &m.point).collect();
    let n_max = points.iter().map(|p| p.n).max().unwrap_or(1);
    let n_min = points.iter().map(|p| p.n).min().unwrap_or(1);
    let at = |kind: TransportKind, n: u32| -> Option<&TransportPoint> {
        points
            .iter()
            .copied()
            .find(|p| p.transport == kind.label() && p.n == n)
    };
    let plain = at(TransportKind::Aoe, n_max);
    let batched = at(TransportKind::Batched, n_max);
    let rdma = at(TransportKind::Rdma, n_max);
    let is_rdma = |p: &TransportPoint| p.transport == TransportKind::Rdma.label();

    // The headline: RDMA beats plain AoE on fleet p99 at the largest
    // raced n, and the win is visible in the attribution columns.
    let rdma_wins = match (plain, rdma) {
        (Some(a), Some(r)) => r.boot.p99_s < a.boot.p99_s,
        _ => true,
    };
    let rdma_attributable = match (plain, rdma) {
        (Some(a), Some(r)) => {
            r.median_rtt_total_s < a.median_rtt_total_s
                && r.median_queue_excess_s <= a.median_queue_excess_s
        }
        _ => true,
    };
    // Batched must not lose to plain at the comparison point (2%
    // tolerance: at small n the pipe is idle and the two are near
    // ties), and batched planning must shrink the request stream.
    // Request totals only compare within one congestion regime: a
    // plain-AoE fleet under contention waits longer between retriever
    // fires, accumulates more adjacent claims per fire, and so issues
    // fewer, larger reads — while an uncongested rdma fleet issues at
    // full rate like n=1. So the shrink claim is pinned where the
    // regimes match: every extension against plain at the uncontended
    // n=1 point (identical claim streams, only the planner differs),
    // and batched against plain wherever both ran (same Ethernet lane,
    // same congestion response).
    let batched_holds = match (plain, batched) {
        (Some(a), Some(b)) => b.boot.p99_s <= a.boot.p99_s * 1.02,
        _ => true,
    };
    let batched_shrinks = points
        .iter()
        .filter(|p| {
            p.transport == TransportKind::Batched.label()
                || (p.transport != TransportKind::Aoe.label() && p.n == n_min)
        })
        .all(|p| at(TransportKind::Aoe, p.n).is_none_or(|a| p.requests < a.requests));
    // One-sided serving is exclusive to the rdma column.
    let rdma_one_sided = points
        .iter()
        .filter(|p| is_rdma(p))
        .all(|p| p.rdma_reads > 0);
    let rdma_reads_elsewhere: u64 = points
        .iter()
        .filter(|p| !is_rdma(p))
        .map(|p| p.rdma_reads)
        .sum();
    // Zero drops everywhere: the IB lane is lossless, the Ethernet
    // lane backpressured.
    let drops: u64 = points.iter().map(|p| p.boot.queue_drops).sum();
    let chaos_ok = bench.chaos.iter().all(|c| c.identical);

    vec![
        Check::holds(
            format!("rdma p99 beats plain aoe at n={n_max} (1=yes)"),
            rdma_wins,
        ),
        Check::holds(
            "rdma win attributable: lower median rtt + queueing (1=yes)",
            rdma_attributable,
        ),
        Check::holds(
            format!("batched p99 holds plain aoe at n={n_max} (1=yes)"),
            batched_holds,
        ),
        Check::holds(
            "batched planning shrinks the request stream (1=yes)",
            batched_shrinks,
        ),
        Check::holds("rdma column served one-sided (1=yes)", rdma_one_sided),
        Check::zero("one-sided reads off the rdma column", rdma_reads_elsewhere),
        Check::zero("queue drops across all transports", drops),
        Check::holds("chaos double-runs byte-identical (1=yes)", chaos_ok),
    ]
}

/// The `BENCH_transport.json` document body. Hand-rolled JSON (the
/// workspace carries no serde), fixed precision: same-seed runs are
/// byte-identical.
pub fn transport_json(scale: Scale, bench: &TransportBench) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"scale\": \"{scale:?}\",\n"));
    out.push_str(&format!(
        "  \"transports\": [{}],\n",
        bench
            .kinds
            .iter()
            .map(|k| format!("\"{k}\""))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str("  \"points\": [\n");
    let points = bench.points.iter().map(|m| transport_point_json(&m.point));
    push_json_list(&mut out, "    ", points);
    out.push_str("  ],\n");
    out.push_str("  \"chaos\": [\n");
    let chaos = bench
        .kinds
        .iter()
        .zip(&bench.chaos)
        .map(|(k, c)| format!("{{\"transport\": \"{}\", {}}}", k.label(), c.json_fields()));
    push_json_list(&mut out, "    ", chaos);
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_point(transport: &'static str, events: u64) -> MeasuredTransport {
        MeasuredTransport {
            point: TransportPoint {
                transport,
                n: 8,
                boot: BootStats {
                    p50_s: 60.0,
                    p99_s: 61.5,
                    fairness_ratio: 1.1,
                    cache_hit_ratio: 0.875,
                    bytes_moved: 1 << 27,
                    queue_drops: 0,
                },
                requests: 4096,
                rdma_reads: 0,
                alert_raises: 0,
                median_rtt_total_s: 2.25,
                median_queue_excess_s: 0.75,
                straggler_rtt_total_s: 3.0,
                straggler_queue_excess_s: 1.0,
            },
            events,
        }
    }

    /// A race that holds every gate: all three transports at n = 1, 64.
    fn passing_bench() -> TransportBench {
        // (transport, n, p99 s, requests, rdma reads, median rtt s)
        let rows: [(&'static str, u32, f64, u64, u64, f64); 6] = [
            ("aoe", 1, 4.5, 227, 0, 1.0),
            ("aoe", 64, 22.0, 8493, 0, 62.0),
            ("batched", 1, 4.55, 215, 0, 0.8),
            ("batched", 64, 22.1, 6381, 0, 28.0),
            ("rdma", 1, 4.08, 204, 204, 0.07),
            ("rdma", 64, 4.1, 15209, 15209, 0.1),
        ];
        let points = rows
            .iter()
            .map(|&(transport, n, p99, requests, rdma_reads, rtt)| {
                let mut m = synthetic_point(transport, 1);
                m.point.n = n;
                m.point.boot.p99_s = p99;
                m.point.requests = requests;
                m.point.rdma_reads = rdma_reads;
                m.point.median_rtt_total_s = rtt;
                m.point.median_queue_excess_s = if transport == "rdma" { 0.0 } else { 1.0 };
                m
            })
            .collect();
        let chaos = TransportKind::ALL
            .iter()
            .map(|_| ChaosLock::of("aa", "aa"))
            .collect();
        TransportBench {
            kinds: TransportKind::ALL.to_vec(),
            points,
            chaos,
        }
    }

    #[test]
    fn each_transport_gate_fails_on_its_own_violation() {
        let failed = |bench: &TransportBench| -> Vec<String> {
            transport_checks(bench)
                .into_iter()
                .filter(Check::failed)
                .map(|c| c.metric)
                .collect()
        };
        assert_eq!(failed(&passing_bench()), Vec::<String>::new());
        // Point indices: aoe 0..2, batched 2..4, rdma 4..6 (n = 1, 64).
        type Break = fn(&mut TransportBench);
        let cases: [(&str, Break); 8] = [
            ("rdma p99 beats plain aoe at n=64", |b| {
                b.points[5].point.boot.p99_s = 22.0
            }),
            ("rdma win attributable", |b| {
                b.points[5].point.median_queue_excess_s = 1.001
            }),
            ("batched p99 holds plain aoe at n=64", |b| {
                b.points[3].point.boot.p99_s = 22.5
            }),
            ("batched planning shrinks", |b| {
                b.points[3].point.requests = 8493
            }),
            ("rdma column served one-sided", |b| {
                b.points[4].point.rdma_reads = 0
            }),
            ("one-sided reads off the rdma column", |b| {
                b.points[0].point.rdma_reads = 1
            }),
            ("queue drops across all transports", |b| {
                b.points[2].point.boot.queue_drops = 1
            }),
            ("chaos double-runs byte-identical", |b| {
                b.chaos[2].identical = false
            }),
        ];
        for (gate, break_it) in cases {
            let mut bench = passing_bench();
            break_it(&mut bench);
            let failed = failed(&bench);
            assert_eq!(failed.len(), 1, "{gate}: {failed:?}");
            assert!(failed[0].starts_with(gate), "{gate}: {failed:?}");
        }
    }

    #[test]
    fn kinds_for_always_includes_the_baseline() {
        assert_eq!(kinds_for("aoe"), Some(vec![TransportKind::Aoe]));
        assert_eq!(
            kinds_for("rdma"),
            Some(vec![TransportKind::Aoe, TransportKind::Rdma])
        );
        assert_eq!(
            kinds_for("batched"),
            Some(vec![TransportKind::Aoe, TransportKind::Batched])
        );
        assert_eq!(kinds_for("all"), Some(TransportKind::ALL.to_vec()));
        assert_eq!(kinds_for("bogus"), None);
    }

    #[test]
    fn transport_lock_witnesses_the_event_count() {
        let witness = |events| transport_witness(&synthetic_point("aoe", events));
        let same = ChaosLock::of(&witness(1234), &witness(1234));
        assert!(same.identical);
        assert_eq!(same.digest_a, same.digest_b);
        let moved = ChaosLock::of(&witness(1234), &witness(1235));
        assert!(!moved.identical);
        assert_ne!(moved.digest_a, moved.digest_b);
    }

    #[test]
    fn transport_json_has_the_documented_schema() {
        let bench = TransportBench {
            kinds: vec![TransportKind::Aoe, TransportKind::Rdma],
            points: vec![synthetic_point("aoe", 100), synthetic_point("rdma", 90)],
            chaos: vec![ChaosLock::of("aa", "aa"), ChaosLock::of("bb", "bb")],
        };
        let json = transport_json(Scale::Quick, &bench);
        for key in [
            "\"scale\": \"Quick\"",
            "\"transports\": [\"aoe\", \"rdma\"]",
            "\"points\": [",
            "\"transport\": \"aoe\"",
            "\"startup_p99_s\": 61.500000",
            "\"median_rtt_total_s\": 2.250000",
            "\"requests\": 4096",
            "\"alert_raises\": 0",
            "\"chaos\": [",
            "{\"transport\": \"rdma\", \"digest_a\": \"",
            "\"identical\": true",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        // Rendering is a pure function of the bench.
        assert_eq!(json, transport_json(Scale::Quick, &bench));
    }

    #[test]
    fn quick_grid_keeps_the_comparison_endpoints() {
        let quick = transport_grid(Scale::Quick);
        let paper = transport_grid(Scale::Paper);
        assert!(quick.contains(&1) && quick.contains(&64));
        assert!(quick.iter().all(|n| paper.contains(n)));
        assert_eq!(paper.last(), Some(&64));
    }

    #[test]
    fn transport_race_measures_and_locks_at_tiny_scale() {
        // One real (tiny) race through the whole pipeline: both
        // extension transports against the baseline at n=2, with the
        // chaos lock exercised for the rdma column. Asserts mechanism
        // (request shrink, one-sided serving, lock identity), not
        // performance — n=2 is too small for the p99 race.
        let kinds = [TransportKind::Aoe, TransportKind::Rdma];
        let ns = [2u32];
        let mut points = Vec::new();
        for &k in &kinds {
            for &n in &ns {
                points.push(measure_transport_point(k, n, None));
            }
        }
        let aoe = &points[0].point;
        let rdma = &points[1].point;
        assert_eq!(aoe.rdma_reads, 0);
        assert!(rdma.rdma_reads > 0, "rdma column served one-sided");
        assert!(
            rdma.requests < aoe.requests,
            "batched planning shrinks requests"
        );
        assert!(
            rdma.median_rtt_total_s < aoe.median_rtt_total_s,
            "one-sided reads cut the median RTT total: {} vs {}",
            rdma.median_rtt_total_s,
            aoe.median_rtt_total_s
        );
        // Rerun lock on the rdma column.
        let chaos = || {
            measure_transport_point(
                TransportKind::Rdma,
                2,
                FaultPlan::preset("chaos", TRANSPORT_FAULT_SEED),
            )
        };
        assert_eq!(transport_witness(&chaos()), transport_witness(&chaos()));
    }
}
