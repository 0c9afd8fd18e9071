//! Artifact bundles (`reproduce ... --trace-out DIR`).
//!
//! Every observed run is reduced to one [`Bundle`]: named artifact
//! bodies, in the order of the table below, plus the gates that check
//! them. [`Bundle::write`] writes them into one directory with
//! `digest.json`; `reproduce` writes one bundle per observed section
//! and exits 1 when a gate of any bundle fails.
//!
//! | file                          | contents                                   | bundles     |
//! |-------------------------------|--------------------------------------------|-------------|
//! | `trace.json`                  | Chrome trace-event JSON (ui.perfetto.dev)  | all         |
//! | `metrics.json`                | counter/gauge/histogram snapshot           | all         |
//! | `timeline.json`               | sampled sim-time series (bitmap fill, ...) | deployment  |
//! | `report.{json,txt}`           | per-phase timings, per-span-kind p50/p99   | deployment  |
//! | `alerts.{json,txt}`           | SLO alert edge timeline                    | fleets      |
//! | `straggler_report.{json,txt}` | slowest decile vs the fleet-median member  | scaleout    |
//! | `digest.json`                 | FNV-1a64 of every file above it carries    | all         |
//!
//! A fleet's trace has one process per machine plus the fleet track,
//! and its snapshot keeps members under `machine.{i}.` and aggregates
//! under `fleet.`. Every byte is a function of the run's configuration
//! alone: the same config writes identical directories (the CI
//! `obs-smoke` job diffs two whole directories).

use crate::ext_scaleout::{fleet_geometry, fnv1a64, topology_fleet_cfg, Topology};
use crate::flight::FlightRun;
use crate::Check;
use bmcast::deploy::FlightRecorderConfig;
use bmcast::fleet::{Fleet, FleetConfig, StragglerReport, StragglerRow};
use bmcast::programs::BootProgram;
use guestsim::os::BootProfile;
use simkit::export::{
    alerts_json, alerts_text, chrome_trace_json, report_json, report_text, timeline_json,
};
use simkit::slo::{Alert, SloRule};
use simkit::{MetricsSnapshot, SimTime};
use std::io;
use std::path::Path;

/// Fleet size of the scale-out bundle's run: the scale-out figure's
/// n=64 peer-to-peer point (the fleet the straggler-attribution section
/// of EXPERIMENTS.md reports on), at both scales.
pub const OBS_FLEET_N: u32 = 64;

/// One observed run's rendered artifacts and their consistency gates.
#[derive(Debug, Clone, Default)]
pub struct Bundle {
    /// `(name, body)` pairs, in the order of the module table.
    pub files: Vec<(&'static str, String)>,
    /// Gates over the bodies' sources, computed before rendering.
    pub gates: Vec<Check>,
}

impl Bundle {
    /// The flight-recorded deployment's bundle.
    pub fn deployment(run: &FlightRun) -> Bundle {
        let trace = chrome_trace_json(&run.spans, &run.samples);
        Bundle {
            gates: vec![trace_gate(&trace)],
            files: vec![
                ("trace.json", trace),
                ("metrics.json", run.metrics.to_json()),
                ("timeline.json", timeline_json(&run.samples)),
                ("report.json", report_json(&run.spans, &run.kinds)),
                ("report.txt", report_text(&run.spans, &run.kinds)),
            ],
        }
    }

    /// A fleet's bundle; telemetry and the flight recorder must be on.
    /// `stragglers` adds the straggler report, which adds up only for a
    /// fleet that has not been through a lifecycle wave.
    pub fn fleet(fleet: &Fleet, stragglers: bool) -> Bundle {
        let snapshot = fleet.fleet_snapshot().expect("telemetry is on");
        let alerts = fleet.alerts();
        let report = stragglers.then(|| {
            fleet
                .straggler_attribution()
                .expect("flight recorder is on")
        });
        let trace = fleet.chrome_trace();
        let gates = fleet_gates(&snapshot, alerts, report.as_ref(), &trace);
        let mut files = vec![
            ("trace.json", trace),
            ("metrics.json", snapshot.to_json()),
            ("alerts.json", alerts_json(alerts)),
            ("alerts.txt", alerts_text(alerts)),
        ];
        if let Some(report) = &report {
            files.push(("straggler_report.json", straggler_json(report)));
            files.push(("straggler_report.txt", straggler_text(report)));
        }
        Bundle { files, gates }
    }

    /// The body of artifact `name`, empty when the bundle lacks it.
    pub fn file(&self, name: &str) -> &str {
        self.files
            .iter()
            .find(|(n, _)| *n == name)
            .map_or("", |(_, body)| body)
    }

    /// Writes every artifact plus `digest.json` into `dir` (created if
    /// missing).
    pub fn write(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for (name, body) in &self.files {
            std::fs::write(dir.join(name), body)?;
        }
        std::fs::write(dir.join("digest.json"), digest_json(&self.files))
    }
}

/// The scale-out bundle's fleet: the figure's [`OBS_FLEET_N`]-machine
/// peer-to-peer point, with its geometry and stagger.
pub fn obs_fleet_cfg() -> FleetConfig {
    let (spec, _) = fleet_geometry();
    topology_fleet_cfg(Topology::PeerToPeer, OBS_FLEET_N, &spec)
}

/// Boots `cfg` with telemetry and the flight recorder (and so the SLO
/// watchdogs) on, and bundles the run. Deterministic in `cfg`.
pub fn boot_bundle(cfg: FleetConfig, profile: &BootProfile) -> Bundle {
    let mut fleet = Fleet::new(cfg);
    fleet.enable_telemetry();
    fleet.enable_flight_recorder(FlightRecorderConfig::default());
    let p = profile.clone();
    fleet.start(move |_| Box::new(BootProgram::new(p.clone())));
    fleet
        .run_to_all_booted(SimTime::from_secs(36_000))
        .expect("obs fleet boots within limit");
    Bundle::fleet(&fleet, true)
}

/// A trace holds spans when it has a complete (`X`) event.
fn trace_gate(trace: &str) -> Check {
    Check::holds(
        "obs trace carries spans (1=yes)",
        trace.contains("\"ph\": \"X\""),
    )
}

/// A fleet bundle's gates over its snapshot, alert edges, straggler
/// report (when it carries one) and trace.
fn fleet_gates(
    snapshot: &MetricsSnapshot,
    alerts: &[Alert],
    report: Option<&StragglerReport>,
    trace: &str,
) -> Vec<Check> {
    // Member series live under `machine.{i}.`; their sum is the
    // `fleet.` aggregate.
    let member_reads: Vec<u64> = snapshot
        .counters
        .iter()
        .filter(|(name, _)| {
            name.strip_prefix("machine.")
                .and_then(|rest| rest.strip_suffix(".aoe.client.reads"))
                .is_some_and(|i| !i.is_empty() && i.bytes().all(|b| b.is_ascii_digit()))
        })
        .map(|(_, &reads)| reads)
        .collect();
    let namespaced = !member_reads.is_empty()
        && snapshot.counters.get("fleet.aoe.client.reads") == Some(&member_reads.iter().sum());
    // Every clear edge closes an earlier raise of the same rule.
    let mut open: Vec<SloRule> = Vec::new();
    let raise_before_clear = alerts.iter().all(|a| {
        if a.raised {
            open.push(a.rule);
            return true;
        }
        let raised = open.iter().position(|&r| r == a.rule);
        raised.map(|i| open.swap_remove(i)).is_some()
    });
    let mut gates = vec![
        Check::holds(
            "obs member reads sum to the fleet aggregate (1=yes)",
            namespaced,
        ),
        Check::holds(
            "obs fleet.machines_booted above zero (1=yes)",
            snapshot.gauge("fleet.machines_booted") > 0,
        ),
        Check::holds(
            "obs alerts raise before they clear (1=yes)",
            raise_before_clear,
        ),
    ];
    if let Some(r) = report {
        let stragglers = r.booted > 0
            && !r.stragglers.is_empty()
            && r.stragglers
                .iter()
                .all(|s| s.boot_s >= r.median.boot_s && s.peer_reads + s.origin_reads == s.reads);
        gates.push(Check::holds(
            "obs stragglers at or above median, read mix adds up (1=yes)",
            stragglers,
        ));
    }
    gates.push(trace_gate(trace));
    gates
}

/// The `digest.json` body: FNV-1a64 of each artifact, in bundle order.
/// Deliberately excludes anything host-dependent (threads, wall
/// clock), so the digest file itself is part of the byte-identity
/// contract.
pub fn digest_json(files: &[(&'static str, String)]) -> String {
    let mut out = String::from("{\n  \"artifacts\": {\n");
    for (i, (name, body)) in files.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": \"{:016x}\"{}\n",
            name,
            fnv1a64(body.as_bytes()),
            if i + 1 < files.len() { "," } else { "" }
        ));
    }
    out.push_str("  }\n}\n");
    out
}

/// One attribution row's JSON object (fixed precision — byte-stable).
fn row_json(r: &StragglerRow) -> String {
    format!(
        "{{\"machine\": {}, \"boot_s\": {:.6}, \"init_s\": {:.6}, \"deploy_s\": {:.6}, \
         \"devirt_s\": {:.6}, \"rtt_total_s\": {:.6}, \"rtt_mean_us\": {:.3}, \
         \"queue_excess_s\": {:.6}, \"busy_backoff_s\": {:.6}, \"reads\": {}, \
         \"retransmits\": {}, \"busy_hints\": {}, \"budget_holds\": {}, \
         \"peer_reads\": {}, \"origin_reads\": {}}}",
        r.machine,
        r.boot_s,
        r.init_s,
        r.deploy_s,
        r.devirt_s,
        r.rtt_total_s,
        r.rtt_mean_us,
        r.queue_excess_s,
        r.busy_backoff_s,
        r.reads,
        r.retransmits,
        r.busy_hints,
        r.budget_holds,
        r.peer_reads,
        r.origin_reads,
    )
}

/// The `straggler_report.json` body.
pub fn straggler_json(report: &StragglerReport) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"booted\": {},\n", report.booted));
    out.push_str(&format!("  \"median\": {},\n", row_json(&report.median)));
    out.push_str("  \"stragglers\": [\n");
    for (i, r) in report.stragglers.iter().enumerate() {
        out.push_str(&format!(
            "    {}{}\n",
            row_json(r),
            if i + 1 < report.stragglers.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The `straggler_report.txt` body: every straggler decomposed, each
/// value diffed against the fleet-median member.
pub fn straggler_text(report: &StragglerReport) -> String {
    let m = &report.median;
    let mut out = String::new();
    out.push_str("straggler attribution (slowest decile vs fleet median)\n");
    out.push_str("======================================================\n");
    out.push_str(&format!(
        "booted {}; decile {}; median = machine {} ({:.3}s boot)\n\n",
        report.booted,
        report.stragglers.len(),
        m.machine,
        m.boot_s
    ));
    for r in &report.stragglers {
        out.push_str(&format!(
            "machine {:<4} boot {:.3}s  ({:+.3}s vs median)\n",
            r.machine,
            r.boot_s,
            r.boot_s - m.boot_s
        ));
        for (label, v, base, unit) in [
            ("initialization", r.init_s, m.init_s, "s"),
            ("deployment", r.deploy_s, m.deploy_s, "s"),
            ("devirtualization", r.devirt_s, m.devirt_s, "s"),
            ("aoe rtt total", r.rtt_total_s, m.rtt_total_s, "s"),
            ("queueing excess", r.queue_excess_s, m.queue_excess_s, "s"),
            ("busy backoff", r.busy_backoff_s, m.busy_backoff_s, "s"),
            ("rtt mean", r.rtt_mean_us, m.rtt_mean_us, "us"),
        ] {
            out.push_str(&format!(
                "  {label:<18} {v:>10.3}{unit}  ({:+.3}{unit} vs median)\n",
                v - base
            ));
        }
        out.push_str(&format!(
            "  {:<18} {:>10}   (median {}; retransmits {} vs {})\n",
            "reads", r.reads, m.reads, r.retransmits, m.retransmits
        ));
        let mix = |row: &StragglerRow| {
            if row.reads == 0 {
                0.0
            } else {
                100.0 * row.peer_reads as f64 / row.reads as f64
            }
        };
        out.push_str(&format!(
            "  {:<18} {:>9.1}%   (median {:.1}%; {} peer / {} origin)\n\n",
            "peer read share",
            mix(r),
            mix(m),
            r.peer_reads,
            r.origin_reads
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every artifact a bundle may carry, in bundle order.
    const ARTIFACTS: [&str; 9] = [
        "trace.json",
        "metrics.json",
        "timeline.json",
        "report.json",
        "report.txt",
        "alerts.json",
        "alerts.txt",
        "straggler_report.json",
        "straggler_report.txt",
    ];

    #[test]
    fn straggler_renderers_are_fixed_precision() {
        let row = |machine: usize, boot_s: f64| StragglerRow {
            machine,
            boot_s,
            init_s: 0.0,
            deploy_s: 4.5,
            devirt_s: 0.0001,
            rtt_total_s: 2.25,
            rtt_mean_us: 17578.125,
            reads: 128,
            retransmits: 3,
            busy_hints: 2,
            budget_holds: 1,
            busy_backoff_s: 0.02,
            queue_excess_s: 0.75,
            peer_reads: 96,
            origin_reads: 32,
        };
        let report = StragglerReport {
            stragglers: vec![row(5, 9.5)],
            median: row(2, 6.25),
            booted: 12,
        };
        let json = straggler_json(&report);
        for key in [
            "\"booted\": 12",
            "\"machine\": 5",
            "\"boot_s\": 9.500000",
            "\"rtt_mean_us\": 17578.125",
            "\"peer_reads\": 96",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        let text = straggler_text(&report);
        assert!(text.contains("machine 5    boot 9.500s  (+3.250s vs median)"));
        assert!(text.contains("peer read share"));
        // Rendering is a pure function of the report.
        assert_eq!(json, straggler_json(&report));
        assert_eq!(text, straggler_text(&report));
    }

    #[test]
    fn quiet_run_holds_every_gate_and_its_written_digest_recomputes() {
        use bmcast::machine::MachineSpec;
        let cfg = FleetConfig {
            n: 2,
            spec: MachineSpec {
                capacity_sectors: (1u64 << 25) / 512,
                image_sectors: (1u64 << 24) / 512,
                ..MachineSpec::default()
            },
            ..FleetConfig::default()
        };
        let fleet = boot_bundle(cfg, &BootProfile::tiny(7));
        assert!(
            fleet.file("alerts.txt").contains("(none fired)"),
            "quiet boot must not raise:\n{}",
            fleet.file("alerts.txt")
        );
        let deployment = Bundle::deployment(&crate::flight::record(crate::Scale::Quick, None));
        for (kind, bundle) in [("fleet", fleet), ("deployment", deployment)] {
            let failed: Vec<&Check> = bundle.gates.iter().filter(|c| c.failed()).collect();
            assert!(failed.is_empty(), "{kind}: {failed:?}");

            // Written to disk and read back, the artifacts digest to
            // exactly what `digest.json` records, and nothing else is
            // written.
            let dir = std::env::temp_dir().join(format!("bundle-{kind}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            bundle.write(&dir).unwrap();
            let read = |name: &str| std::fs::read_to_string(dir.join(name)).unwrap();
            let carried: Vec<&'static str> = ARTIFACTS
                .into_iter()
                .filter(|name| dir.join(name).exists())
                .collect();
            let names: Vec<&str> = bundle.files.iter().map(|(name, _)| *name).collect();
            assert_eq!(carried, names, "{kind}: files in ARTIFACTS order");
            let files: Vec<(&'static str, String)> =
                carried.iter().map(|&name| (name, read(name))).collect();
            assert_eq!(read("digest.json"), digest_json(&files), "{kind}");
            let on_disk = std::fs::read_dir(&dir).unwrap().count();
            assert_eq!(on_disk, names.len() + 1, "{kind}: artifacts + digest.json");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// The sources of a two-member fleet bundle that holds every gate.
    struct Sources {
        snapshot: MetricsSnapshot,
        alerts: Vec<Alert>,
        report: StragglerReport,
        trace: String,
    }

    fn consistent() -> Sources {
        let mut snapshot = MetricsSnapshot::default();
        for (name, v) in [
            ("machine.0.aoe.client.reads", 10),
            ("machine.1.aoe.client.reads", 5),
            ("machine.1.aoe.client.retransmits", 7),
            ("fleet.aoe.client.reads", 15),
        ] {
            snapshot.counters.insert(name.into(), v);
        }
        snapshot.gauges.insert("fleet.machines_booted".into(), 2);
        let edge = |secs: u64, raised: bool| Alert {
            at: SimTime::from_secs(secs),
            rule: SloRule::CacheCollapse,
            raised,
            detail: String::new(),
        };
        let row = |machine: usize, boot_s: f64| StragglerRow {
            machine,
            boot_s,
            init_s: 0.0,
            deploy_s: 4.5,
            devirt_s: 0.0001,
            rtt_total_s: 2.25,
            rtt_mean_us: 17578.125,
            reads: 128,
            retransmits: 3,
            busy_hints: 2,
            budget_holds: 1,
            busy_backoff_s: 0.02,
            queue_excess_s: 0.75,
            peer_reads: 96,
            origin_reads: 32,
        };
        Sources {
            snapshot,
            alerts: vec![edge(3, true), edge(5, false), edge(6, true)],
            report: StragglerReport {
                stragglers: vec![row(1, 9.5)],
                median: row(0, 6.25),
                booted: 2,
            },
            trace: "{\"traceEvents\": [\n  {\"name\": \"boot\", \"ph\": \"X\"}\n]}\n".into(),
        }
    }

    #[test]
    fn each_obs_gate_fails_on_its_own_violation() {
        let failed = |s: &Sources| -> Vec<String> {
            fleet_gates(&s.snapshot, &s.alerts, Some(&s.report), &s.trace)
                .into_iter()
                .filter(Check::failed)
                .map(|c| c.metric)
                .collect()
        };
        assert_eq!(failed(&consistent()), Vec::<String>::new());
        type Break = fn(&mut Sources);
        let cases: [(&str, Break); 6] = [
            ("obs member reads sum", |s| {
                s.snapshot
                    .counters
                    .insert("fleet.aoe.client.reads".into(), 14);
            }),
            ("obs fleet.machines_booted", |s| {
                s.snapshot.gauges.insert("fleet.machines_booted".into(), 0);
            }),
            ("obs alerts raise before", |s| {
                s.alerts.remove(0);
            }),
            ("obs stragglers", |s| s.report.stragglers[0].boot_s = 6.0),
            ("obs stragglers", |s| {
                s.report.stragglers[0].origin_reads = 31
            }),
            ("obs trace carries spans", |s| {
                s.trace = "{\"traceEvents\": [\n  {\"ph\": \"M\"}\n]}\n".into()
            }),
        ];
        for (gate, break_it) in cases {
            let mut s = consistent();
            break_it(&mut s);
            let failed = failed(&s);
            assert_eq!(failed.len(), 1, "{gate}: {failed:?}");
            assert!(failed[0].starts_with(gate), "{gate}: {failed:?}");
        }
        // Without a straggler report there is no straggler gate.
        let s = consistent();
        let gates = fleet_gates(&s.snapshot, &s.alerts, None, &s.trace);
        assert_eq!(gates.len(), 4);
        assert!(!gates.iter().any(|c| c.metric.starts_with("obs stragglers")));
    }
}
