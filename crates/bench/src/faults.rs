//! Fault-injection scenario figures (`reproduce --faults <plan>`).
//!
//! One figure per fault class: a small deployment runs under the named
//! [`FaultPlan`] preset and must (a) still reach bare metal, (b) leave the
//! local disk byte-identical to the server image, and (c) actually
//! observe the injected fault class in the injector counters — a plan
//! that never fires would make the "survives faults" claim vacuous.
//!
//! The chaos figure additionally locks determinism: two independent runs
//! from the same seed must agree on the final time and every injector
//! counter, byte for byte.
//!
//! All checks are gates encoded as `paper=1.0` / `measured∈{0,1}`:
//! `reproduce` exits 1 when one fails, and the JSON's
//! `within_10pct == checks` exactly when the scenario holds.

use crate::{Check, Figure, Row, Scale};
use bmcast::config::{BmcastConfig, Moderation};
use bmcast::deploy::Runner;
use bmcast::machine::MachineSpec;
use hwsim::block::{BlockStore, Lba};
use simkit::fault::{FaultCounters, FaultPlan};
use simkit::SimTime;

/// Seed shared by every fault figure; the plan's PRNG streams derive from
/// it, so the whole suite replays byte-identically.
pub const FAULT_SEED: u64 = 0xFA17_5EED;

fn spec(scale: Scale) -> MachineSpec {
    let bytes: u64 = match scale {
        Scale::Paper => 128 << 20,
        Scale::Quick => 32 << 20,
    };
    MachineSpec {
        capacity_sectors: bytes / 512,
        image_sectors: bytes / 512,
        image_seed: 0xFA017, // non-trivial image content
        ..MachineSpec::default()
    }
}

/// Outcome of one deployment under a plan.
struct FaultRun {
    completed: bool,
    deploy_s: f64,
    disk_matches: bool,
    retransmits: u64,
    stale_replies: u64,
    decode_errors: u64,
    counters: FaultCounters,
    server_restarts: u64,
}

fn deploy_under(spec: &MachineSpec, plan: FaultPlan) -> FaultRun {
    let cfg = BmcastConfig {
        moderation: Moderation::full_speed(),
        faults: Some(plan),
        ..BmcastConfig::default()
    };
    let mut runner = Runner::bmcast(spec, cfg);
    let done = runner.run_to_bare_metal(SimTime::from_secs(3600));
    let m = runner.machine();
    let vmm = m.vmm.as_ref().expect("vmm state survives devirt");
    let fabric = m
        .fabric
        .as_ref()
        .expect("a standalone machine owns its fabric");
    // Sample the disk against the image generator, skipping the tail
    // region that holds the persisted bitmap.
    let mut disk_matches = done.is_some();
    if disk_matches {
        let region = vmm.bitmap_region;
        let mut lba = 0u64;
        while lba < spec.image_sectors {
            if !(region.lba.0..region.end().0).contains(&lba)
                && m.hw.disk.store().read(Lba(lba))
                    != BlockStore::image_content(spec.image_seed, Lba(lba))
            {
                disk_matches = false;
                break;
            }
            lba += 61; // co-prime stride samples the whole disk
        }
    }
    FaultRun {
        completed: done.is_some(),
        deploy_s: done.map(|t| t.as_secs_f64()).unwrap_or(f64::NAN),
        disk_matches,
        retransmits: vmm.client.retransmits(),
        stale_replies: vmm.client.stale_replies(),
        decode_errors: vmm.client.decode_errors(),
        counters: fabric.fault_counters().unwrap_or_default(),
        server_restarts: fabric.server().restarts(),
    }
}

fn bool_check(metric: impl Into<String>, holds: bool) -> Check {
    Check::gate(metric, 1.0, holds as u32 as f64, "bool")
}

fn fault_figure(
    scale: Scale,
    id: &'static str,
    title: &'static str,
    preset: &'static str,
) -> Figure {
    let spec = spec(scale);
    let run = || {
        deploy_under(
            &spec,
            FaultPlan::preset(preset, FAULT_SEED).expect("known preset"),
        )
    };
    let r = run();
    // Determinism lock at the harness level: under chaos, a second
    // independent run from the same seed must agree on everything.
    let again = (preset == "chaos").then(run);

    let rows = vec![
        Row::new(
            format!("{preset} plan"),
            vec![
                ("deploy s".into(), r.deploy_s),
                ("retransmits".into(), r.retransmits as f64),
                ("stale".into(), r.stale_replies as f64),
                ("decode err".into(), r.decode_errors as f64),
            ],
        ),
        Row::new(
            "injector",
            vec![
                ("dropped".into(), r.counters.link_dropped as f64),
                ("duplicated".into(), r.counters.link_duplicated as f64),
                ("reordered".into(), r.counters.link_reordered as f64),
                ("corrupted".into(), r.counters.link_corrupted as f64),
                ("srv drop".into(), r.counters.server_dropped as f64),
                ("srv restart".into(), r.counters.server_restarts as f64),
                ("disk slow".into(), r.counters.disk_slowed as f64),
                ("disk werr".into(), r.counters.disk_write_faults as f64),
            ],
        ),
    ];

    Figure {
        id,
        title,
        unit: "mixed",
        rows,
        checks: fault_checks(preset, &r, again.as_ref()),
    }
}

/// The gates of one fault figure: `r` is the run under `preset`,
/// `again` the same-seed rerun when the figure locks determinism.
fn fault_checks(preset: &str, r: &FaultRun, again: Option<&FaultRun>) -> Vec<Check> {
    let mut checks = vec![
        bool_check(format!("deployment completes under {preset}"), r.completed),
        bool_check("local disk matches image fingerprint", r.disk_matches),
        bool_check(
            format!("{preset} fault class observed by injector"),
            r.counters.fired(preset) > 0,
        ),
    ];
    match preset {
        "crash" => checks.push(bool_check(
            "server cold-restarted exactly once",
            r.server_restarts == 1,
        )),
        "corrupt" => checks.push(bool_check(
            "corrupted frames rejected by checksum",
            r.decode_errors > 0 || r.counters.link_corrupted == 0,
        )),
        _ => {}
    }
    if let Some(again) = again {
        checks.push(bool_check(
            "same seed reproduces identical run",
            again.deploy_s == r.deploy_s
                && again.counters == r.counters
                && again.retransmits == r.retransmits,
        ));
    }
    checks
}

/// `(figure id, preset name, runner)` for every fault figure, in suite
/// order. The id is always `faults_` + the preset name.
macro_rules! fault_figures {
    ($(($fn_name:ident, $id:literal, $preset:literal, $title:literal)),+ $(,)?) => {
        $(
            /// Regenerates the figure for this fault class.
            pub fn $fn_name(scale: Scale) -> Figure {
                fault_figure(scale, $id, $title, $preset)
            }
        )+

        /// All fault figures, in suite order.
        pub fn registry() -> Vec<(&'static str, fn(Scale) -> Figure)> {
            vec![$(($id, $fn_name as fn(Scale) -> Figure)),+]
        }
    };
}

fault_figures!(
    (
        run_drop,
        "faults_drop",
        "drop",
        "deployment under frame drops"
    ),
    (
        run_duplicate,
        "faults_duplicate",
        "duplicate",
        "deployment under frame duplication"
    ),
    (
        run_reorder,
        "faults_reorder",
        "reorder",
        "deployment under frame reordering"
    ),
    (
        run_corrupt,
        "faults_corrupt",
        "corrupt",
        "deployment under frame corruption"
    ),
    (
        run_stall,
        "faults_stall",
        "stall",
        "deployment across a server stall"
    ),
    (
        run_crash,
        "faults_crash",
        "crash",
        "deployment across a server crash+restart"
    ),
    (
        run_slowdisk,
        "faults_slowdisk",
        "slowdisk",
        "deployment with a slow server disk"
    ),
    (
        run_writeerr,
        "faults_writeerr",
        "writeerr",
        "deployment with disk write errors armed"
    ),
    (
        run_chaos,
        "faults_chaos",
        "chaos",
        "deployment under combined chaos plan"
    ),
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_match_presets() {
        let reg = registry();
        assert_eq!(reg.len(), FaultPlan::PRESET_NAMES.len());
        for ((id, _), preset) in reg.iter().zip(FaultPlan::PRESET_NAMES) {
            assert_eq!(*id, format!("faults_{preset}"), "registry order");
        }
    }

    #[test]
    fn drop_figure_holds_at_quick_scale() {
        let fig = run_drop(Scale::Quick);
        assert_eq!(fig.checks.len(), 3);
        for c in &fig.checks {
            assert!(c.gate, "{}", c.metric);
            assert_eq!(c.measured, 1.0, "{}", c.metric);
        }
        assert_eq!(fig.failed_gates().count(), 0);
    }

    /// A run that holds every gate of every preset.
    fn clean_run() -> FaultRun {
        FaultRun {
            completed: true,
            deploy_s: 12.5,
            disk_matches: true,
            retransmits: 40,
            stale_replies: 2,
            decode_errors: 3,
            counters: FaultCounters {
                link_dropped: 5,
                link_duplicated: 2,
                link_reordered: 2,
                link_corrupted: 3,
                server_dropped: 1,
                server_restarts: 1,
                disk_slowed: 4,
                disk_write_faults: 1,
            },
            server_restarts: 1,
        }
    }

    #[test]
    fn each_fault_gate_fails_on_its_own_violation() {
        let failed = |preset: &str, r: &FaultRun, again: Option<&FaultRun>| -> Vec<String> {
            fault_checks(preset, r, again)
                .into_iter()
                .filter(Check::failed)
                .map(|c| c.metric)
                .collect()
        };
        for &preset in FaultPlan::PRESET_NAMES {
            let again = (preset == "chaos").then(clean_run);
            assert_eq!(
                failed(preset, &clean_run(), again.as_ref()),
                Vec::<String>::new()
            );
        }
        type Break = fn(&mut FaultRun);
        let cases: [(&str, &str, Break); 6] = [
            ("drop", "deployment completes under drop", |r| {
                r.completed = false
            }),
            ("stall", "local disk matches", |r| r.disk_matches = false),
            ("slowdisk", "slowdisk fault class observed", |r| {
                r.counters.disk_slowed = 0
            }),
            ("crash", "server cold-restarted exactly once", |r| {
                r.server_restarts = 2
            }),
            ("corrupt", "corrupted frames rejected", |r| {
                r.decode_errors = 0
            }),
            ("chaos", "same seed reproduces", |r| r.retransmits += 1),
        ];
        for (preset, gate, break_it) in cases {
            let mut r = clean_run();
            let again = (preset == "chaos").then(clean_run);
            break_it(&mut r);
            let failed = failed(preset, &r, again.as_ref());
            assert_eq!(failed.len(), 1, "{gate}: {failed:?}");
            assert!(failed[0].starts_with(gate), "{gate}: {failed:?}");
        }
    }
}
