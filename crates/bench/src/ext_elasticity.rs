//! Elasticity lifecycle figures (`reproduce --elasticity`): the paper's
//! agility claims run *backwards* — a bare-metal instance is
//! re-virtualized, its dirty blocks stream back to an archive volume,
//! the hardware is reclaimed, and the next tenant image deploys — at
//! fleet scale, as rolling upgrades and scale-down/scale-up waves on
//! the [`Fleet`] simulator.
//!
//! Four measured sections, all recorded in `BENCH_elasticity.json`:
//!
//! - **Rolling upgrades**: every machine in an `n`-fleet cycles through
//!   snapshot-back → reclaim → redeploy under bounded concurrency
//!   (`batch` machines out of service at once). Each machine's archive
//!   volume must end byte-identical to its pre-wave disk (sampled), and
//!   its post-wave disk must hold the new tenant image.
//! - **Scale waves**: a scale-down parks members with zeroed disks
//!   (their tenants' final state living on in the archives), a
//!   scale-up redeploys them with a new image.
//! - **Survivability**: a small upgrade wave per fault class — the
//!   snapshot-back path must ride out frame drops, corruption, and
//!   server stalls on its existing retransmit/backoff budget, with
//!   zero terminal [`ReclaimError`](bmcast::snapback::ReclaimError)s.
//! - **Chaos determinism**: two independent upgrade waves under the
//!   `chaos` [`FaultPlan`] from the same seed must agree byte-for-byte
//!   on the published point JSON, the event count, and the full
//!   flight-recorder trace. The first wave runs with telemetry on too
//!   and is the elasticity artifact bundle (`reproduce --elasticity
//!   --trace-out DIR` writes it to `DIR/elasticity/`).
//!
//! Hand-rolled JSON with fixed-precision floats (the workspace carries
//! no serde); no wall-clock field participates in any digest, so
//! same-seed runs produce byte-identical artifacts.

use crate::ext_scaleout::fnv1a64;
use crate::obs::Bundle;
use crate::{par_map, Check, Figure, Row, Scale};
use bmcast::deploy::FlightRecorderConfig;
use bmcast::fleet::{Fleet, FleetConfig, LifecycleStage};
use bmcast::machine::{GuestProgram, MachineSpec};
use bmcast::programs::{BootProgram, StreamProgram};
use guestsim::os::BootProfile;
use hwsim::block::{BlockRange, BlockStore, Lba, SectorData};
use simkit::fault::{FaultCounters, FaultPlan};
use simkit::{SimDuration, SimTime};

/// The *next* tenant image deployed by every upgrade / scale-up wave.
pub const UPGRADE_IMAGE_SEED: u64 = 0xE1A5_11FE;

/// Seed of every fault plan in the survivability and chaos sections.
pub const ELASTICITY_FAULT_SEED: u64 = 0xE1A5_FA17;

/// Rolling power-on stagger between members' first deployments.
pub const ELASTICITY_STAGGER: SimDuration = SimDuration::from_millis(50);

/// Fault classes the snapshot-back path must survive (plus `chaos`,
/// the mix). `crash` and the disk classes hit the origin's *read* side
/// and are covered by the deployment fault matrix; these are the ones
/// that bite acknowledged writes.
pub const SURVIVAL_PLANS: [&str; 4] = ["drop", "corrupt", "stall", "chaos"];

/// Fleet sizes of the rolling-upgrade figure.
pub fn upgrade_grid(scale: Scale) -> Vec<u32> {
    match scale {
        Scale::Paper => vec![2, 8, 16, 64],
        Scale::Quick => vec![2, 8],
    }
}

/// Out-of-service bound for an `n`-fleet's wave: an eighth of the
/// fleet, at least one — the admission ramp of the reverse direction.
pub fn batch_for(n: u32) -> u32 {
    (n / 8).max(1)
}

/// One member geometry for both scales (same rationale as the
/// scale-out figure: quick points stay bit-identical to the paper
/// run's prefix). Capacity is twice the image so the persisted bitmap
/// lives outside the image range and never skews content checks.
fn elasticity_cfg(n: u32) -> FleetConfig {
    FleetConfig {
        n: n as usize,
        spec: MachineSpec {
            capacity_sectors: (1u64 << 25) / 512,
            image_sectors: (1u64 << 24) / 512,
            ..MachineSpec::default()
        },
        start_stagger: ELASTICITY_STAGGER,
        ..FleetConfig::default()
    }
}

/// The first tenant: a sequential write stream over a per-machine
/// region for ~1 s of its own lifetime — real dirty blocks the
/// snapshot-back must carry into the archive volume.
fn tenant_program(i: usize) -> Box<dyn GuestProgram> {
    let region = BlockRange::new(Lba(2048 + (i as u64 % 8) * 2048), 1024);
    let until = SimTime::ZERO + SimDuration::from_millis(1_000 + 50 * (i as u64 + 1));
    Box::new(StreamProgram::sequential(
        region,
        true,
        256,
        until,
        0x7E0A + i as u64,
    ))
}

/// One sampled filled sector of a machine's disk.
#[derive(Debug, Clone, Copy)]
struct DiskSample {
    lba: u64,
    /// What the disk reads there.
    data: SectorData,
    /// Written by the tenant since deployment began.
    dirty: bool,
    /// Marked filled but not yet written: background copy marks a block
    /// filled when it issues the block's local write, so one block's
    /// write may still be in flight when a run call returns, and its
    /// sectors read as the empty disk.
    in_flight: bool,
}

/// Samples machine `i`'s filled sectors (co-prime stride across the
/// image). Empty reads that fit in one copy block are the in-flight
/// block and flagged so; empty reads spread wider are not explained by
/// it and stay unflagged, so they fail the checks.
fn disk_samples(fleet: &Fleet, i: usize, image_sectors: u64) -> Vec<DiskSample> {
    let m = fleet.machine(i);
    let Some(vmm) = m.vmm.as_ref() else {
        return Vec::new();
    };
    let mut out: Vec<DiskSample> = (0..image_sectors)
        .step_by(61)
        .filter(|&lba| vmm.bitmap.is_filled(Lba(lba)))
        .map(|lba| DiskSample {
            lba,
            data: m.hw.disk.store().read(Lba(lba)),
            dirty: vmm.dirty.is_dirty(Lba(lba)),
            in_flight: false,
        })
        .collect();
    let mut empty = out
        .iter()
        .filter(|s| s.data == SectorData::ZERO)
        .map(|s| s.lba);
    if let Some(lo) = empty.next() {
        if empty.next_back().unwrap_or(lo) - lo < vmm.cfg.copy_block_sectors as u64 {
            for s in out.iter_mut().filter(|s| s.data == SectorData::ZERO) {
                s.in_flight = true;
            }
        }
    }
    out
}

/// Machine `i`'s sampled filled sectors as its archive volume must hold
/// them: the disk as sampled now, except that an in-flight block lands
/// the `seed` image before the snapshot.
fn filled_samples(
    fleet: &Fleet,
    i: usize,
    seed: u64,
    image_sectors: u64,
) -> Vec<(u64, SectorData)> {
    disk_samples(fleet, i, image_sectors)
        .into_iter()
        .map(|s| {
            let data = if s.in_flight {
                BlockStore::image_content(seed, Lba(s.lba))
            } else {
                s.data
            };
            (s.lba, data)
        })
        .collect()
}

/// Whether machine `i`'s archive volume reproduces every pre-wave
/// sample byte-for-byte.
fn archive_matches(fleet: &Fleet, i: usize, samples: &[(u64, SectorData)]) -> bool {
    let Some(vol) = fleet.archive_volume(i) else {
        return false;
    };
    !samples.is_empty()
        && samples
            .iter()
            .all(|&(lba, data)| vol.store().read(Lba(lba)) == data)
}

/// Whether machine `i`'s disk holds the `seed` image on every sampled
/// copied-and-clean sector (redeployed machines finish booting with
/// partially-filled bitmaps, so the check samples what exists; the
/// in-flight block is skipped).
fn holds_image(fleet: &Fleet, i: usize, seed: u64, image_sectors: u64) -> bool {
    let checked: Vec<DiskSample> = disk_samples(fleet, i, image_sectors)
        .into_iter()
        .filter(|s| !s.dirty && !s.in_flight)
        .collect();
    checked.len() >= 10
        && checked
            .iter()
            .all(|s| s.data == BlockStore::image_content(seed, Lba(s.lba)))
}

fn pct(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize)
        .max(1)
        .min(sorted.len())
        - 1;
    sorted[idx]
}

/// One measured rolling-upgrade point. Every field is deterministic in
/// the fleet seed — this struct *is* the published JSON and the digest
/// witness.
#[derive(Debug, Clone)]
pub struct UpgradePoint {
    /// Fleet size.
    pub n: u32,
    /// Out-of-service bound during the wave.
    pub batch: u32,
    /// Whether the wave completed (false = a member stalled or hit a
    /// terminal `ReclaimError`; the fail-fast path, not a wedge).
    pub survived: bool,
    /// Median first-tenant startup, seconds.
    pub boot_p50_s: f64,
    /// Median per-machine upgrade latency (wave start → that machine
    /// redeployed and booted), seconds. Includes admission queueing —
    /// the rolling-upgrade completion profile, not the machine cost.
    pub upgrade_p50_s: f64,
    /// p99 per-machine upgrade latency, seconds.
    pub upgrade_p99_s: f64,
    /// Whole-wave makespan, seconds.
    pub makespan_s: f64,
    /// Queue-full drops across every server node ("zero drops" claim).
    pub queue_drops: u64,
    /// Machines whose archive volume reproduced every pre-wave disk
    /// sample.
    pub archives_verified: u32,
    /// Machines holding the new tenant image after the wave.
    pub images_verified: u32,
    /// Machines with a terminal snapshot-back failure.
    pub reclaim_errors: u32,
}

/// An [`UpgradePoint`] plus its determinism witnesses.
#[derive(Debug)]
pub struct MeasuredUpgrade {
    /// The figure point.
    pub point: UpgradePoint,
    /// Events executed across the fleet and every member simulation.
    pub events: u64,
    /// Fault-injector counters (default when the run was fault-free).
    pub counters: FaultCounters,
    /// AoE retransmissions summed over every member client.
    pub retransmits: u64,
    /// The run's artifact bundle, when recorded.
    pub recording: Option<Bundle>,
}

impl MeasuredUpgrade {
    /// The recorded run's Perfetto trace, empty when not recorded.
    pub fn trace(&self) -> &str {
        self.recording.as_ref().map_or("", |b| b.file("trace.json"))
    }
}

/// Boots an `n`-fleet of write-stream tenants, rolls the
/// [`UPGRADE_IMAGE_SEED`] image across it, and verifies both sides of
/// the lifecycle: archives against pre-wave disk samples, post-wave
/// disks against the new image.
pub fn measure_upgrade(
    n: u32,
    batch: u32,
    faults: Option<FaultPlan>,
    record: bool,
) -> MeasuredUpgrade {
    let mut cfg = elasticity_cfg(n);
    cfg.faults = faults;
    let image_sectors = cfg.spec.image_sectors;
    let first_image_seed = cfg.spec.image_seed;
    let mut fleet = Fleet::new(cfg);
    if record {
        fleet.enable_telemetry();
        fleet.enable_flight_recorder(FlightRecorderConfig::default());
    }
    fleet.start(tenant_program);
    fleet
        .run_to_all_booted(SimTime::from_secs(36_000))
        .expect("first tenants boot within limit");
    let mut boot_s: Vec<f64> = fleet
        .startup_durations()
        .iter()
        .map(|d| d.expect("all booted").as_secs_f64())
        .collect();
    boot_s.sort_by(|a, b| a.partial_cmp(b).unwrap());

    let samples: Vec<Vec<(u64, SectorData)>> = (0..n as usize)
        .map(|i| filled_samples(&fleet, i, first_image_seed, image_sectors))
        .collect();

    let wave_start = fleet.now();
    let wave = fleet.run_rolling_upgrade(
        UPGRADE_IMAGE_SEED,
        batch as usize,
        |_| Box::new(BootProgram::new(BootProfile::tiny(7))),
        SimTime::from_secs(72_000),
    );
    let survived = wave.is_ok();
    let mut upgrade_s: Vec<f64> = wave
        .map(|done| {
            done.iter()
                .map(|t| t.duration_since(wave_start).as_secs_f64())
                .collect()
        })
        .unwrap_or_default();
    upgrade_s.sort_by(|a, b| a.partial_cmp(b).unwrap());

    let mut archives_verified = 0u32;
    let mut images_verified = 0u32;
    let mut reclaim_errors = 0u32;
    for (i, sample) in samples.iter().enumerate().take(n as usize) {
        if survived && archive_matches(&fleet, i, sample) {
            archives_verified += 1;
        }
        if survived && holds_image(&fleet, i, UPGRADE_IMAGE_SEED, image_sectors) {
            images_verified += 1;
        }
        if fleet.machine(i).reclaim_error().is_some() {
            reclaim_errors += 1;
        }
    }
    let retransmits = (0..n as usize)
        .map(|i| {
            fleet
                .machine(i)
                .vmm
                .as_ref()
                .map(|v| v.client.retransmits())
                .unwrap_or(0)
        })
        .sum();

    MeasuredUpgrade {
        point: UpgradePoint {
            n,
            batch,
            survived,
            boot_p50_s: pct(&boot_s, 0.5),
            upgrade_p50_s: pct(&upgrade_s, 0.5),
            upgrade_p99_s: pct(&upgrade_s, 0.99),
            makespan_s: upgrade_s.last().copied().unwrap_or(0.0),
            queue_drops: fleet.queue_drops_total(),
            archives_verified,
            images_verified,
            reclaim_errors,
        },
        events: fleet.events_executed(),
        counters: fleet.fault_counters().unwrap_or_default(),
        retransmits,
        recording: record.then(|| Bundle::fleet(&fleet, false)),
    }
}

/// One measured scale-down + scale-up cycle.
#[derive(Debug, Clone)]
pub struct WaveRun {
    /// Fleet size.
    pub n: u32,
    /// Members parked by the scale-down.
    pub parked: u32,
    /// Scale-down makespan (wave start → last member parked), seconds.
    pub scale_down_s: f64,
    /// Median scale-up redeploy latency, seconds.
    pub scale_up_p50_s: f64,
    /// Queue-full drops across the whole cycle.
    pub queue_drops: u64,
    /// Parked members whose disks read fully zeroed (reclaim really
    /// wiped the previous tenant).
    pub parked_emptied: u32,
    /// Scaled-up members holding the new image afterwards.
    pub images_verified: u32,
    /// Events executed across the whole cycle.
    pub events: u64,
}

/// Boots a 4-fleet, parks members 2 and 3 (scale-down), verifies their
/// disks are wiped, then scales back up onto the
/// [`UPGRADE_IMAGE_SEED`] image.
pub fn measure_scale_wave() -> WaveRun {
    let cfg = elasticity_cfg(4);
    let image_sectors = cfg.spec.image_sectors;
    let mut fleet = Fleet::new(cfg);
    fleet.start(tenant_program);
    fleet
        .run_to_all_booted(SimTime::from_secs(36_000))
        .expect("tenants boot within limit");

    let down_start = fleet.now();
    fleet
        .run_scale_down(&[2, 3], 1, SimTime::from_secs(72_000))
        .expect("scale-down completes");
    let scale_down_s = fleet.now().duration_since(down_start).as_secs_f64();
    let mut parked_emptied = 0u32;
    for &i in &[2usize, 3] {
        let mut zeroed = fleet.lifecycle_stage(i) == LifecycleStage::Parked;
        let mut lba = 0u64;
        while zeroed && lba < image_sectors {
            zeroed = fleet.machine(i).hw.disk.store().read(Lba(lba)) == SectorData::ZERO;
            lba += 61;
        }
        if zeroed {
            parked_emptied += 1;
        }
    }

    let up_start = fleet.now();
    let boots = fleet
        .run_scale_up(
            &[2, 3],
            UPGRADE_IMAGE_SEED,
            |_| Box::new(BootProgram::new(BootProfile::tiny(7))),
            SimTime::from_secs(72_000),
        )
        .expect("scale-up completes");
    let mut up_s: Vec<f64> = boots
        .iter()
        .map(|t| t.duration_since(up_start).as_secs_f64())
        .collect();
    up_s.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let images_verified = [2usize, 3]
        .iter()
        .filter(|&&i| holds_image(&fleet, i, UPGRADE_IMAGE_SEED, image_sectors))
        .count() as u32;

    WaveRun {
        n: 4,
        parked: 2,
        scale_down_s,
        scale_up_p50_s: pct(&up_s, 0.5),
        queue_drops: fleet.queue_drops_total(),
        parked_emptied,
        images_verified,
        events: fleet.events_executed(),
    }
}

/// One fault class's survivability row.
#[derive(Debug, Clone)]
pub struct SurvivalRow {
    /// Fault plan preset name.
    pub plan: &'static str,
    /// Whether the upgrade wave completed under the plan.
    pub survived: bool,
    /// Injector events of the named class (a plan that never fires
    /// would make the row vacuous).
    pub class_fired: u64,
    /// AoE retransmissions spent riding it out.
    pub retransmits: u64,
    /// Terminal snapshot-back failures (must be 0: the retry budget
    /// absorbs every preset's intensity).
    pub reclaim_errors: u32,
    /// Queue-full drops during the wave.
    pub queue_drops: u64,
}

/// The chaos determinism lock: digests of two independent same-seed
/// chaos waves.
#[derive(Debug, Clone)]
pub struct ChaosLock {
    /// Digest of the first run's witness.
    pub digest_a: String,
    /// Digest of the second run's witness.
    pub digest_b: String,
    /// Whether the witnesses (point JSON + event count) matched
    /// byte-for-byte.
    pub identical: bool,
    /// Whether the flight-recorder traces matched byte-for-byte.
    pub trace_identical: bool,
}

/// The determinism witness of one run: published point JSON, event
/// count, and the trace digest.
pub fn upgrade_witness(m: &MeasuredUpgrade) -> String {
    format!(
        "{}|events={}|trace_fnv={:016x}",
        upgrade_point_json(&m.point),
        m.events,
        fnv1a64(m.trace().as_bytes()),
    )
}

/// FNV-1a digest of [`upgrade_witness`], as recorded in the artifact.
pub fn upgrade_digest(m: &MeasuredUpgrade) -> String {
    format!("{:016x}", fnv1a64(upgrade_witness(m).as_bytes()))
}

/// Everything `BENCH_elasticity.json` records.
#[derive(Debug)]
pub struct ElasticityBench {
    /// The rolling-upgrade figure points, grid order.
    pub points: Vec<MeasuredUpgrade>,
    /// The scale-down/scale-up cycle.
    pub wave: WaveRun,
    /// Per-fault-class survivability rows, [`SURVIVAL_PLANS`] order.
    pub survivability: Vec<SurvivalRow>,
    /// The chaos determinism lock.
    pub chaos: ChaosLock,
    /// The first chaos run's artifact bundle (written by
    /// `--trace-out`).
    pub chaos_recording: Bundle,
}

enum Task {
    Point { n: u32, batch: u32 },
    Chaos,
    Survive(&'static str),
    Wave,
}

enum Out {
    Run(MeasuredUpgrade),
    Wave(WaveRun),
}

fn run_task(task: &Task) -> Out {
    match *task {
        Task::Point { n, batch } => Out::Run(measure_upgrade(n, batch, None, false)),
        Task::Chaos => Out::Run(measure_upgrade(
            2,
            1,
            FaultPlan::preset("chaos", ELASTICITY_FAULT_SEED),
            true,
        )),
        Task::Survive(plan) => Out::Run(measure_upgrade(
            2,
            1,
            FaultPlan::preset(plan, ELASTICITY_FAULT_SEED),
            false,
        )),
        Task::Wave => Out::Wave(measure_scale_wave()),
    }
}

/// Runs every elasticity measurement on at most `jobs` worker threads
/// (each task owns its whole simulated world) and reduces them to the
/// figure plus the `BENCH_elasticity.json` record.
pub fn run_elasticity(scale: Scale, jobs: usize) -> (Figure, ElasticityBench) {
    let grid = upgrade_grid(scale);

    let mut tasks: Vec<Task> = Vec::new();
    for &n in &grid {
        tasks.push(Task::Point {
            n,
            batch: batch_for(n),
        });
    }
    tasks.push(Task::Chaos);
    tasks.push(Task::Chaos);
    for plan in SURVIVAL_PLANS {
        tasks.push(Task::Survive(plan));
    }
    tasks.push(Task::Wave);

    let mut outs = par_map(jobs, &tasks, run_task).into_iter();
    let mut take_run = || match outs.next().expect("outs align with tasks") {
        Out::Run(m) => m,
        Out::Wave(_) => unreachable!("task order: runs before the wave"),
    };

    let points: Vec<MeasuredUpgrade> = grid.iter().map(|_| take_run()).collect();
    let chaos_a = take_run();
    let chaos_b = take_run();
    let chaos = ChaosLock {
        identical: upgrade_witness(&chaos_a) == upgrade_witness(&chaos_b),
        trace_identical: chaos_a.trace() == chaos_b.trace(),
        digest_a: upgrade_digest(&chaos_a),
        digest_b: upgrade_digest(&chaos_b),
    };
    let survivability: Vec<SurvivalRow> = SURVIVAL_PLANS
        .iter()
        .map(|&plan| {
            let m = take_run();
            SurvivalRow {
                plan,
                survived: m.point.survived,
                class_fired: m.counters.fired(plan),
                retransmits: m.retransmits,
                reclaim_errors: m.point.reclaim_errors,
                queue_drops: m.point.queue_drops,
            }
        })
        .collect();
    let wave = match outs.next().expect("wave slot") {
        Out::Wave(w) => w,
        Out::Run(_) => unreachable!("task order: the wave is last"),
    };

    let mut rows: Vec<Row> = points
        .iter()
        .map(|m| {
            let p = &m.point;
            Row::new(
                format!("upgrade {:>3} machines", p.n),
                vec![
                    ("batch".into(), p.batch as f64),
                    ("upgrade p50 s".into(), p.upgrade_p50_s),
                    ("upgrade p99 s".into(), p.upgrade_p99_s),
                    ("makespan s".into(), p.makespan_s),
                    ("q drops".into(), p.queue_drops as f64),
                    ("archived ok".into(), p.archives_verified as f64),
                    ("image ok".into(), p.images_verified as f64),
                ],
            )
        })
        .collect();
    rows.push(Row::new(
        format!("scale wave {}/{} parked", wave.parked, wave.n),
        vec![
            ("down s".into(), wave.scale_down_s),
            ("up p50 s".into(), wave.scale_up_p50_s),
            ("q drops".into(), wave.queue_drops as f64),
            ("archived ok".into(), wave.parked_emptied as f64),
            ("image ok".into(), wave.images_verified as f64),
        ],
    ));
    for s in &survivability {
        rows.push(Row::new(
            format!("faults {}", s.plan),
            vec![
                ("survived".into(), s.survived as u32 as f64),
                ("class fired".into(), s.class_fired as f64),
                ("retransmits".into(), s.retransmits as f64),
                ("reclaim err".into(), s.reclaim_errors as f64),
            ],
        ));
    }

    let bench = ElasticityBench {
        points,
        wave,
        survivability,
        chaos,
        chaos_recording: chaos_a.recording.unwrap_or_default(),
    };
    let fig = Figure {
        id: "elasticity",
        title: "reverse lifecycle: rolling upgrades, scale waves, snapshot-back survivability",
        unit: "mixed",
        rows,
        checks: elasticity_checks(&bench),
    };
    (fig, bench)
}

/// The elasticity figure's gates over its bench record.
pub fn elasticity_checks(bench: &ElasticityBench) -> Vec<Check> {
    let points: Vec<&UpgradePoint> = bench.points.iter().map(|m| &m.point).collect();
    let largest = points.last().expect("non-empty grid");
    let all_round_trip = points
        .iter()
        .all(|p| p.survived && p.archives_verified == p.n && p.images_verified == p.n);
    let drops: u64 = points.iter().map(|p| p.queue_drops).sum();
    // A completed wave has a positive median and a makespan no shorter
    // than its p99 member.
    let plausible = points
        .iter()
        .all(|p| p.upgrade_p50_s > 0.0 && p.makespan_s >= p.upgrade_p99_s);
    let reclaim_errs: u32 = points.iter().map(|p| p.reclaim_errors).sum();
    let survives = bench
        .survivability
        .iter()
        .all(|s| s.survived && s.class_fired > 0 && s.reclaim_errors == 0);
    let (chaos, wave) = (&bench.chaos, &bench.wave);
    vec![
        Check::zero(
            format!("upgrade queue drops at n={}", largest.n),
            largest.queue_drops,
        ),
        Check::zero("upgrade queue drops across all waves", drops),
        Check::holds("upgrade durations plausible at every n (1=yes)", plausible),
        Check::holds(
            "every archive matches the departing tenant disk (1=yes)",
            all_round_trip,
        ),
        Check::zero(
            "reclaim errors across fault-free waves",
            reclaim_errs as u64,
        ),
        Check::holds(
            "chaos double-run byte-identical (1=yes)",
            chaos.identical && chaos.trace_identical,
        ),
        Check::holds(
            "snapshot-back survives drop/corrupt/stall/chaos (1=yes)",
            survives,
        ),
        Check::holds(
            "scale-down parks empty, scale-up restores (1=yes)",
            wave.parked_emptied == wave.parked
                && wave.images_verified == wave.parked
                && wave.queue_drops == 0,
        ),
    ]
}

/// One point's JSON object, fixed precision — hashed for digests
/// byte-for-byte as published in the artifact's `points` array.
pub fn upgrade_point_json(p: &UpgradePoint) -> String {
    format!(
        "{{\"n\": {}, \"batch\": {}, \"survived\": {}, \
         \"boot_p50_s\": {:.6}, \"upgrade_p50_s\": {:.6}, \"upgrade_p99_s\": {:.6}, \
         \"makespan_s\": {:.6}, \"queue_drops\": {}, \"archives_verified\": {}, \
         \"images_verified\": {}, \"reclaim_errors\": {}}}",
        p.n,
        p.batch,
        p.survived,
        p.boot_p50_s,
        p.upgrade_p50_s,
        p.upgrade_p99_s,
        p.makespan_s,
        p.queue_drops,
        p.archives_verified,
        p.images_verified,
        p.reclaim_errors,
    )
}

/// The `BENCH_elasticity.json` document body. Every field is
/// deterministic in the seeds — two same-seed invocations produce
/// byte-identical documents (the chaos section proves it from inside
/// one invocation; CI diffs two whole artifacts).
pub fn elasticity_json(scale: Scale, bench: &ElasticityBench) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"scale\": \"{scale:?}\",\n"));
    out.push_str("  \"points\": [\n");
    for (i, m) in bench.points.iter().enumerate() {
        out.push_str(&format!(
            "    {}{}\n",
            upgrade_point_json(&m.point),
            if i + 1 < bench.points.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    let w = &bench.wave;
    out.push_str(&format!(
        "  \"wave\": {{\"n\": {}, \"parked\": {}, \"scale_down_s\": {:.6}, \
         \"scale_up_p50_s\": {:.6}, \"queue_drops\": {}, \"parked_emptied\": {}, \
         \"images_verified\": {}, \"events_processed\": {}}},\n",
        w.n,
        w.parked,
        w.scale_down_s,
        w.scale_up_p50_s,
        w.queue_drops,
        w.parked_emptied,
        w.images_verified,
        w.events,
    ));
    out.push_str("  \"survivability\": [\n");
    for (i, s) in bench.survivability.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"plan\": \"{}\", \"survived\": {}, \"class_fired\": {}, \
             \"retransmits\": {}, \"reclaim_errors\": {}, \"queue_drops\": {}}}{}\n",
            s.plan,
            s.survived,
            s.class_fired,
            s.retransmits,
            s.reclaim_errors,
            s.queue_drops,
            if i + 1 < bench.survivability.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"chaos\": {{\"digest_a\": \"{}\", \"digest_b\": \"{}\", \
         \"identical\": {}, \"trace_identical\": {}}}\n",
        bench.chaos.digest_a,
        bench.chaos.digest_b,
        bench.chaos.identical,
        bench.chaos.trace_identical,
    ));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_upgrade_round_trips_and_stays_clean() {
        let m = measure_upgrade(2, 1, None, false);
        let p = &m.point;
        assert!(p.survived, "fault-free wave completes");
        assert_eq!(p.queue_drops, 0);
        assert_eq!(p.archives_verified, 2, "both archives byte-exact");
        assert_eq!(p.images_verified, 2, "both machines on the new image");
        assert_eq!(p.reclaim_errors, 0);
        assert!(p.upgrade_p50_s > 0.0 && p.makespan_s >= p.upgrade_p99_s);
    }

    /// At n = 16 one member's pre-wave samples catch a background-copy
    /// block whose local write is still in flight; its archive must
    /// still verify (it holds the image once the write lands).
    #[test]
    fn in_flight_copy_block_does_not_fail_the_archive_check() {
        let p = measure_upgrade(16, batch_for(16), None, false).point;
        assert!(p.survived);
        assert_eq!(p.archives_verified, 16);
        assert_eq!(p.images_verified, 16);
    }

    fn synthetic(events: u64) -> MeasuredUpgrade {
        MeasuredUpgrade {
            point: UpgradePoint {
                n: 2,
                batch: 1,
                survived: true,
                boot_p50_s: 1.5,
                upgrade_p50_s: 20.0,
                upgrade_p99_s: 25.0,
                makespan_s: 40.0,
                queue_drops: 0,
                archives_verified: 2,
                images_verified: 2,
                reclaim_errors: 0,
            },
            events,
            counters: FaultCounters::default(),
            retransmits: 0,
            recording: None,
        }
    }

    #[test]
    fn upgrade_digest_witnesses_the_event_count() {
        let a = synthetic(4321);
        let b = synthetic(4321);
        assert_eq!(upgrade_digest(&a), upgrade_digest(&b));
        let c = synthetic(4322);
        assert_ne!(
            upgrade_digest(&a),
            upgrade_digest(&c),
            "event count is a witness"
        );
    }

    /// A bench record that holds every gate: upgrade waves at n = 2, 8.
    fn synthetic_bench() -> ElasticityBench {
        let m = synthetic(777);
        let mut big = synthetic(888);
        big.point.n = 8;
        big.point.archives_verified = 8;
        big.point.images_verified = 8;
        ElasticityBench {
            points: vec![synthetic(777), big],
            wave: WaveRun {
                n: 4,
                parked: 2,
                scale_down_s: 3.5,
                scale_up_p50_s: 9.0,
                queue_drops: 0,
                parked_emptied: 2,
                images_verified: 2,
                events: 999,
            },
            survivability: vec![SurvivalRow {
                plan: "drop",
                survived: true,
                class_fired: 12,
                retransmits: 9,
                reclaim_errors: 0,
                queue_drops: 0,
            }],
            chaos: ChaosLock {
                digest_a: upgrade_digest(&m),
                digest_b: upgrade_digest(&m),
                identical: true,
                trace_identical: true,
            },
            chaos_recording: Bundle::default(),
        }
    }

    #[test]
    fn each_elasticity_gate_fails_on_its_own_violation() {
        let failed = |bench: &ElasticityBench| -> Vec<String> {
            elasticity_checks(bench)
                .into_iter()
                .filter(Check::failed)
                .map(|c| c.metric)
                .collect()
        };
        assert_eq!(failed(&synthetic_bench()), Vec::<String>::new());
        type Break = fn(&mut ElasticityBench);
        let cases: [(&[&str], Break); 8] = [
            (
                &["upgrade queue drops at n=8", "upgrade queue drops across"],
                |b| b.points[1].point.queue_drops = 1,
            ),
            (&["upgrade queue drops across"], |b| {
                b.points[0].point.queue_drops = 1
            }),
            (&["upgrade durations plausible"], |b| {
                b.points[0].point.makespan_s = 24.0
            }),
            (&["every archive matches"], |b| {
                b.points[1].point.images_verified = 7
            }),
            (&["reclaim errors across"], |b| {
                b.points[0].point.reclaim_errors = 1
            }),
            (&["chaos double-run byte-identical"], |b| {
                b.chaos.trace_identical = false
            }),
            (&["snapshot-back survives"], |b| {
                b.survivability[0].class_fired = 0
            }),
            (&["scale-down parks empty"], |b| b.wave.parked_emptied = 1),
        ];
        for (gates, break_it) in cases {
            let mut bench = synthetic_bench();
            break_it(&mut bench);
            let failed = failed(&bench);
            assert_eq!(failed.len(), gates.len(), "{gates:?}: {failed:?}");
            for (f, g) in failed.iter().zip(gates) {
                assert!(f.starts_with(g), "{gates:?}: {failed:?}");
            }
        }
    }

    #[test]
    fn elasticity_json_has_the_documented_schema() {
        let bench = synthetic_bench();
        let json = elasticity_json(Scale::Quick, &bench);
        for key in [
            "\"scale\": \"Quick\"",
            "\"points\": [",
            "\"survived\": true",
            "\"upgrade_p50_s\": 20.000000",
            "\"archives_verified\": 2",
            "\"wave\": {",
            "\"parked_emptied\": 2",
            "\"survivability\": [",
            "\"plan\": \"drop\"",
            "\"class_fired\": 12",
            "\"chaos\": {",
            "\"trace_identical\": true",
            "\"identical\": true",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
    }
}
