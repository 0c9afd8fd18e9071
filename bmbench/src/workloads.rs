//! The three workloads. A pass builds its world from the seed, times
//! set-up and run separately, verifies the outputs, and reduces the
//! simulated results to a digest that must repeat exactly for the same
//! seed: between the traced and untraced pass, and across engines.

use bmcast::config::{BmcastConfig, Moderation};
use bmcast::deploy::{FlightRecorderConfig, Runner};
use bmcast::fleet::{Fleet, FleetConfig, MachineOutcome};
use bmcast::machine::{
    start_deployment, start_flight_sampler, start_program, GuestProgram, Machine, MachineSim,
    MachineSpec,
};
use bmcast::programs::{BootProgram, FioProgram, StreamProgram};
use bmcast::Phase;
use bmcast_bench::ext_elasticity::{ELASTICITY_STAGGER, UPGRADE_IMAGE_SEED};
use bmcast_bench::ext_scaleout::{
    fleet_geometry, fnv1a64, scaleout_boot_profile, topology_fleet_cfg, Topology,
};
use guestsim::os::BootProfile;
use guestsim::workload::fio::FioJob;
use hwsim::block::{BlockRange, BlockStore, Lba, SectorData};
use simkit::{Histogram, Metrics, Sampler, SimDuration, SimTime, Spans, Tracer};
use std::fmt::Write as _;
use std::time::Instant;

use crate::layers::{read_guest_latency, read_rtt, read_snapshot, Readout, Shape};
use crate::spans::{SpanId, SpanLog};
use crate::stats::{derive, median, p50_tail, proc_status_mb, tail_label};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One machine: fio during deployment, then on to bare metal.
    DeployIo,
    /// 64 machines power on against one origin over plain AoE.
    BootStorm,
    /// A 32-machine rolling upgrade: snapshot-back, reclaim, redeploy.
    UpgradeWave,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::DeployIo,
        Workload::BootStorm,
        Workload::UpgradeWave,
    ];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DeployIo => "deploy-io",
            Workload::BootStorm => "boot-storm",
            Workload::UpgradeWave => "upgrade-wave",
        }
    }

    /// Simulator workers of the timed passes.
    pub fn threads(self) -> usize {
        match self {
            Workload::UpgradeWave => 2,
            _ => 1,
        }
    }

    /// Runs one pass.
    pub fn pass(self, seed: u64, mode: Mode<'_>) -> Pass {
        match self {
            Workload::DeployIo => deploy_io(seed, mode),
            Workload::BootStorm => boot_storm(seed, mode),
            Workload::UpgradeWave => upgrade_wave(seed, mode),
        }
    }

    /// Inputs of the per-layer host-time loops, shaped like this
    /// workload's machines.
    pub fn shape(self, seed: u64) -> Shape {
        let cfg = BmcastConfig::default();
        let spec = match self {
            Workload::DeployIo => deploy_spec(seed),
            Workload::BootStorm => boot_storm_cfg(seed, 1).spec,
            Workload::UpgradeWave => upgrade_cfg(seed, 1).spec,
        };
        Shape {
            image_sectors: spec.image_sectors,
            image_seed: spec.image_seed,
            block_sectors: cfg.copy_block_sectors,
            mtu: cfg.mtu,
            seed,
        }
    }
}

/// How a pass runs.
pub struct Mode<'a> {
    /// Simulator workers (fleet workloads).
    pub threads: usize,
    /// Telemetry and flight recorder on, per-layer readout filled.
    pub traced: bool,
    /// Benchmark-side spans (a disabled log on timed passes).
    pub spans: &'a mut SpanLog,
    /// Stop once set-up is timed (extra set-up samples).
    pub setup_only: bool,
}

/// The simulated end-to-end results of a pass.
#[derive(Debug, Clone, Default)]
pub struct SimResults {
    /// Mean operation latency, seconds.
    pub mean_s: f64,
    /// Tail operation latency (ten samples beyond it), seconds.
    pub tail_s: f64,
    /// Which percentile the tail is, and of how many samples.
    pub tail_label: String,
    /// First start to last operation done, seconds.
    pub makespan_s: f64,
    /// The workload's headline figures under their own names.
    pub named: Vec<(&'static str, f64, &'static str)>,
}

/// Everything one pass produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host seconds to build the world and start it.
    pub setup_s: f64,
    /// Host seconds from the first run call to completion.
    pub wall_s: f64,
    /// Simulator events executed.
    pub events: u64,
    /// Simulated results.
    pub sim: SimResults,
    /// Digest of every simulated output (events excluded: the flight
    /// recorder's sampler adds events without changing results).
    pub digest: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
    /// Per-layer values (traced passes only).
    pub layers: Readout,
    /// Resident set in MiB at the end of the run, world still alive.
    pub rss_mb: f64,
}

impl Pass {
    fn finish(&mut self, witness: &str) {
        self.digest = fnv1a64(witness.as_bytes());
        self.rss_mb = proc_status_mb("VmRSS");
    }
}

// ---------------------------------------------------------------- deploy-io

/// fio transfer size: fig10's quick job.
const FIO_BYTES: u64 = 32 << 20;

fn deploy_spec(seed: u64) -> MachineSpec {
    let base = MachineSpec::default();
    MachineSpec {
        capacity_sectors: (2u64 << 30) / 512,
        image_sectors: (1u64 << 30) / 512,
        image_seed: derive(base.image_seed, seed, 1),
        ..base
    }
}

/// The fio file: fig10's LBA at the reference seed, shifted by up to
/// 63 MiB otherwise.
fn fio_file(seed: u64) -> Lba {
    Lba((1 << 16) + derive(0, seed, 6) % 64 * 2048)
}

/// When the tenant starts fio, after deployment begins: at once at the
/// reference seed (as in Figure 10), up to 79 ms later otherwise. Starts
/// from about 200 ms on change regime — fio's median I/O latency nearly
/// doubles against the background copy — so the seed stays well short
/// of that.
fn fio_delay(seed: u64) -> SimDuration {
    SimDuration::from_millis(derive(0, seed, 7) % 80)
}

fn fio_job(write: bool, start: Lba) -> FioJob {
    FioJob {
        write,
        total_bytes: FIO_BYTES,
        block_bytes: 1 << 20,
        start,
    }
}

/// One machine and its simulator, built and driven exactly as
/// `Runner::bmcast` (or `Runner::bmcast_flight_recorded` when traced)
/// builds and drives it, with the simulator in reach so the event count
/// can be read.
struct Single {
    machine: Machine,
    sim: MachineSim,
}

impl Single {
    fn new(spec: &MachineSpec, cfg: BmcastConfig, traced: bool) -> Single {
        let mut machine = Machine::bmcast(spec, cfg);
        let mut sim = MachineSim::new();
        if traced {
            let rec = FlightRecorderConfig::default();
            machine.set_telemetry(Metrics::enabled(), Tracer::enabled(rec.trace_ring));
            machine.set_flight_recorder(
                Spans::enabled(rec.span_capacity),
                Sampler::enabled(rec.sample_interval),
            );
        }
        start_deployment(&mut machine, &mut sim);
        if traced {
            start_flight_sampler(&mut machine, &mut sim);
        }
        Single { machine, sim }
    }

    fn start_program(&mut self, program: Box<dyn GuestProgram>) {
        self.machine.set_program(program);
        start_program(&mut self.machine, &mut self.sim);
    }

    fn run_to_finish(&mut self, limit: SimTime) -> Option<SimTime> {
        loop {
            if self.machine.guest.finished {
                return Some(self.sim.now());
            }
            match self.sim.next_event_at() {
                Some(t) if t <= limit => {
                    self.sim.step(&mut self.machine);
                }
                _ => return None,
            }
        }
    }

    fn run_to_bare_metal(&mut self, limit: SimTime) -> Option<SimTime> {
        loop {
            if self.machine.phase() == Phase::BareMetal {
                return self.machine.vmm.as_ref().and_then(|v| v.bare_metal_at);
            }
            if self.machine.deploy_error().is_some()
                || self.sim.now() >= limit
                || self.sim.pending_events() == 0
            {
                return None;
            }
            let next = (self.sim.now() + SimDuration::from_millis(500)).min(limit);
            self.sim.run_until(&mut self.machine, next);
        }
    }
}

fn mbps(bytes: u64, from: SimTime, to: SimTime) -> f64 {
    bytes as f64 / 1e6 / to.duration_since(from).as_secs_f64()
}

fn deploy_io(seed: u64, mode: Mode<'_>) -> Pass {
    let spec = deploy_spec(seed);
    let file = fio_file(seed);
    let cfg = BmcastConfig {
        moderation: Moderation::default(),
        ..BmcastConfig::default()
    };
    let spans = mode.spans;
    let root = spans.begin("deploy-io.pass", None);
    let mut pass = Pass::default();

    let t = Instant::now();
    let mut m = spans.time("machine.bmcast", root, || {
        Single::new(&spec, cfg, mode.traced)
    });
    pass.setup_s = t.elapsed().as_secs_f64();
    if mode.setup_only {
        return pass;
    }

    let limit = SimTime::from_secs(4 * 3600);
    let write_start = SimTime::ZERO + fio_delay(seed);
    let t = Instant::now();
    let write_done = spans.time("run_to_finish.write", root, || {
        m.sim.run_until(&mut m.machine, write_start);
        m.start_program(Box::new(FioProgram::new(fio_job(true, file))));
        m.run_to_finish(limit)
    });
    let read_start = m.sim.now();
    let read_done = spans.time("run_to_finish.read", root, || {
        m.start_program(Box::new(FioProgram::new(fio_job(false, file))));
        m.run_to_finish(limit)
    });
    let bare = spans.time("run_to_bare_metal", root, || m.run_to_bare_metal(limit));
    pass.wall_s = t.elapsed().as_secs_f64();
    pass.events = m.sim.executed_events();

    let verify = spans.begin("verify", root);
    pass.attempted = 2;
    let (Some(write_done), Some(read_done), Some(bare)) = (write_done, read_done, bare) else {
        pass.failures.push(format!(
            "deploy-io did not reach bare metal: write {write_done:?}, read {read_done:?}, \
             bare metal {bare:?}, error {:?}",
            m.machine.deploy_error()
        ));
        pass.failures
            .push("deploy-io final-disk check skipped".into());
        spans.end(verify);
        spans.end(root);
        pass.finish("deploy-io failed");
        return pass;
    };
    if let Some(bad) = check_final_disk(&m.machine, &spec, file) {
        pass.failures.push(bad);
    }
    spans.end(verify);

    let (p50, tail_s) = p50_tail(&mut m.machine.guest.io_latency);
    let mean_s = m.machine.guest.io_latency.mean();
    let vmm = m.machine.vmm.as_ref().expect("bmcast machine has a VMM");
    let deployed = vmm.deployment_done_at.unwrap_or(bare);
    let deployment_s = deployed.duration_since(SimTime::ZERO).as_secs_f64();
    let devirt_s = bare.duration_since(deployed).as_secs_f64();
    pass.sim = SimResults {
        mean_s,
        tail_s,
        tail_label: tail_label(m.machine.guest.io_latency.len()),
        makespan_s: bare.as_secs_f64(),
        named: vec![
            (
                "guest_write_mbps",
                mbps(FIO_BYTES, write_start, write_done),
                "MB/s",
            ),
            (
                "guest_read_mbps",
                mbps(FIO_BYTES, read_start, read_done),
                "MB/s",
            ),
            ("guest_io_p50_s", p50, "s"),
            ("bare_metal_s", bare.as_secs_f64(), "s"),
        ],
    };
    if mode.traced {
        let snap = m.machine.metrics.snapshot().expect("telemetry on");
        read_snapshot(&snap, &mut pass.layers);
        read_guest_latency(std::iter::once(&m.machine), &mut pass.layers);
        read_rtt(std::iter::once(&m.machine.spans), &mut pass.layers);
        pass.layers.insert("deploy.deployment_s", deployment_s);
        pass.layers.insert("deploy.devirtualization_s", devirt_s);
    }
    let witness = format!(
        "{:?}|{}|{}|{}|{}|{}",
        pass.sim.named,
        p50,
        tail_s,
        m.machine.guest.ios_completed,
        m.machine.guest.bytes_completed,
        deployment_s
    );
    spans.end(root);
    pass.finish(&witness);
    pass
}

/// Bare-metal fio read throughput on the deploy-io machine (fio writes
/// the file first, as in Figure 10): the base of the deploy read drop.
pub fn baremetal_read_mbps(seed: u64) -> f64 {
    let spec = deploy_spec(seed);
    let file = fio_file(seed);
    let mut runner = Runner::bare_metal(&spec);
    let limit = SimTime::from_secs(600);
    runner.start_program(Box::new(FioProgram::new(fio_job(true, file))));
    runner
        .run_to_finish(limit)
        .expect("bare-metal fio write finishes");
    let start = runner.now();
    runner.start_program(Box::new(FioProgram::new(fio_job(false, file))));
    let done = runner
        .run_to_finish(start + SimDuration::from_secs(600))
        .expect("bare-metal fio read finishes");
    mbps(FIO_BYTES, start, done)
}

/// The final-disk image check: sampled sectors of the fio file hold
/// what fio wrote, and sampled sectors elsewhere in the image hold the
/// image. `None` when every sample matches.
fn check_final_disk(m: &Machine, spec: &MachineSpec, file: Lba) -> Option<String> {
    let store = m.hw.disk.store();
    let file_sectors = FIO_BYTES / 512;
    let mut checked = 0u64;
    let mut bad = Vec::new();
    for i in 0..file_sectors / 2048 {
        for off in [0u64, 977, 2047] {
            let lba = Lba(file.0 + i * 2048 + off);
            checked += 1;
            if store.read(lba) != SectorData(0xF10 | (i << 8) | 1) {
                bad.push(lba.0);
            }
        }
    }
    let mut lba = 0u64;
    while lba < spec.image_sectors {
        if !(file.0..file.0 + file_sectors).contains(&lba) {
            checked += 1;
            if store.read(Lba(lba)) != BlockStore::image_content(spec.image_seed, Lba(lba)) {
                bad.push(lba);
            }
        }
        lba += 61;
    }
    (!bad.is_empty()).then(|| {
        format!(
            "deploy-io final disk: {}/{checked} sampled sectors wrong, first at LBA {}",
            bad.len(),
            bad[0]
        )
    })
}

// ------------------------------------------------------------ fleet helpers

/// Fleet-wide per-layer readout of a traced pass.
fn read_fleet(fleet: &Fleet, out: &mut Readout) {
    let snap = fleet.metrics_snapshot().expect("telemetry on");
    read_snapshot(&snap, out);
    read_guest_latency((0..fleet.len()).map(|i| fleet.machine(i)), out);
    read_rtt(fleet.recorders().iter().map(|(s, _)| s), out);
}

fn arm_fleet(cfg: FleetConfig, traced: bool) -> Fleet {
    let mut fleet = Fleet::new(cfg);
    if traced {
        fleet.enable_telemetry();
        fleet.enable_flight_recorder(FlightRecorderConfig::default());
    }
    fleet
}

/// Drives `run_to_all_booted` to completion in sim-time slices of
/// `slice`, recording a span and the host-seconds-per-sim-second ratio
/// of each. A `None` slice makes a single call.
fn boot_in_slices(
    fleet: &mut Fleet,
    limit: SimTime,
    slice: Option<SimDuration>,
    spans: &mut SpanLog,
    parent: SpanId,
    ratios: &mut Vec<f64>,
) -> Result<(), String> {
    let Some(slice) = slice else {
        return spans
            .time("fleet.run_to_all_booted", parent, || {
                fleet.run_to_all_booted(limit)
            })
            .map(|_| ())
            .map_err(|e| e.to_string());
    };
    loop {
        let from = fleet.now();
        let until = (from + slice).min(limit);
        let t = Instant::now();
        let r = spans.time("fleet.run_to_all_booted", parent, || {
            fleet.run_to_all_booted(until)
        });
        let sim_s = fleet.now().duration_since(from).as_secs_f64();
        if sim_s > 0.0 {
            ratios.push(t.elapsed().as_secs_f64() / sim_s);
        }
        match r {
            Ok(_) => return Ok(()),
            Err(stall) if !stall.wedged && stall.at < limit && !any_failed(&stall.outcomes) => {}
            Err(stall) => return Err(stall.to_string()),
        }
    }
}

fn any_failed(outcomes: &[MachineOutcome]) -> bool {
    outcomes
        .iter()
        .any(|o| matches!(o, MachineOutcome::Failed { .. }))
}

/// One sampled filled sector of a member's disk.
#[derive(Debug, Clone, Copy)]
struct Sample {
    lba: u64,
    /// What the disk reads there.
    data: SectorData,
    /// Written by the tenant since deployment began.
    dirty: bool,
    /// Marked filled but not yet written: background copy marks a block
    /// filled when it issues the block's local write, so one block's
    /// write may still be in flight when a run call returns. Such
    /// sectors read as the empty disk. Empty reads spread over more than
    /// one copy block are not explained by that and are left unflagged,
    /// so they fail the checks.
    in_flight: bool,
}

/// Every 61st sector of member `i`'s image that its bitmap marks filled.
fn disk_samples(fleet: &Fleet, i: usize, image_sectors: u64) -> Vec<Sample> {
    let m = fleet.machine(i);
    let Some(vmm) = m.vmm.as_ref() else {
        return Vec::new();
    };
    let mut out: Vec<Sample> = (0..image_sectors)
        .step_by(61)
        .filter(|&lba| vmm.bitmap.is_filled(Lba(lba)))
        .map(|lba| Sample {
            lba,
            data: m.hw.disk.store().read(Lba(lba)),
            dirty: vmm.dirty.is_dirty(Lba(lba)),
            in_flight: false,
        })
        .collect();
    let empty: Vec<u64> = out
        .iter()
        .filter(|s| s.data == SectorData::ZERO)
        .map(|s| s.lba)
        .collect();
    if let (Some(lo), Some(hi)) = (empty.first(), empty.last()) {
        if hi - lo < vmm.cfg.copy_block_sectors as u64 {
            for s in out.iter_mut().filter(|s| s.data == SectorData::ZERO) {
                s.in_flight = true;
            }
        }
    }
    out
}

/// Sampled clean, written sectors of member `i` that do not hold image
/// `seed`, and how many were checked.
fn image_mismatches(fleet: &Fleet, i: usize, seed: u64, image_sectors: u64) -> (u32, u32) {
    let (mut bad, mut checked) = (0, 0);
    for s in disk_samples(fleet, i, image_sectors) {
        if !s.dirty && !s.in_flight {
            checked += 1;
            if s.data != BlockStore::image_content(seed, Lba(s.lba)) {
                bad += 1;
            }
        }
    }
    (bad, checked)
}

/// Boot durations of the members that booted.
fn boot_durations(fleet: &Fleet) -> Histogram {
    let mut h = Histogram::new();
    for d in fleet.startup_durations().into_iter().flatten() {
        h.record_duration(d);
    }
    h
}

// --------------------------------------------------------------- boot-storm

/// Members of the boot storm: the n = 64 point of the transport race.
const BOOT_STORM_N: u32 = 64;

fn boot_storm_cfg(seed: u64, threads: usize) -> FleetConfig {
    let (mut spec, _) = fleet_geometry();
    spec.image_seed = derive(spec.image_seed, seed, 1);
    let mut cfg = topology_fleet_cfg(Topology::SingleServer, BOOT_STORM_N, &spec);
    cfg.seed = derive(cfg.seed, seed, 2);
    cfg.sim_threads = threads;
    cfg
}

fn boot_storm(seed: u64, mode: Mode<'_>) -> Pass {
    let cfg = boot_storm_cfg(seed, mode.threads);
    let image_sectors = cfg.spec.image_sectors;
    let image_seed = cfg.spec.image_seed;
    // The boot read pattern is the workload's fixed input; the seed
    // moves the fabric's jitter streams and the image content.
    let profile = scaleout_boot_profile();
    let spans = mode.spans;
    let root = spans.begin("boot-storm.pass", None);
    let mut pass = Pass::default();

    let t = Instant::now();
    let mut fleet = spans.time("fleet.new", root, || arm_fleet(cfg, mode.traced));
    spans.time("fleet.start", root, || {
        fleet.start(move |_| Box::new(BootProgram::new(profile.clone())))
    });
    pass.setup_s = t.elapsed().as_secs_f64();
    if mode.setup_only {
        return pass;
    }

    let mut ratios = Vec::new();
    let slice = mode.traced.then(|| SimDuration::from_secs(2));
    let t = Instant::now();
    let run = boot_in_slices(
        &mut fleet,
        SimTime::from_secs(36_000),
        slice,
        spans,
        root,
        &mut ratios,
    );
    pass.wall_s = t.elapsed().as_secs_f64();
    pass.events = fleet.events_executed();

    let verify = spans.begin("verify", root);
    pass.attempted = BOOT_STORM_N as u64;
    if let Err(e) = &run {
        eprintln!("boot-storm stalled: {e}");
    }
    for (i, o) in fleet.outcomes().iter().enumerate() {
        match o {
            MachineOutcome::Booted { .. } => {
                let (bad, checked) = image_mismatches(&fleet, i, image_seed, image_sectors);
                if bad > 0 || checked == 0 {
                    pass.failures.push(format!(
                        "machine {i}: {bad}/{checked} sampled sectors differ from the image"
                    ));
                }
            }
            other => pass.failures.push(format!("machine {i}: {other:?}")),
        }
    }
    spans.end(verify);

    let mut boots = boot_durations(&fleet);
    let (p50, tail_s) = p50_tail(&mut boots);
    let first_on = fleet
        .start_times()
        .iter()
        .min()
        .copied()
        .unwrap_or(SimTime::ZERO);
    let last_booted = fleet
        .startup_times()
        .iter()
        .flatten()
        .max()
        .copied()
        .unwrap_or(first_on);
    let ready_s = last_booted.duration_since(first_on).as_secs_f64();
    pass.sim = SimResults {
        mean_s: boots.mean(),
        tail_s,
        tail_label: tail_label(boots.len()),
        makespan_s: ready_s,
        named: vec![
            ("boot_p50_s", p50, "s"),
            ("boot_tail_s", tail_s, "s"),
            ("boot_p99_s", boots.percentile(99.0), "s"),
            ("fleet_ready_s", ready_s, "s"),
            ("origin_requests", fleet.server().requests() as f64, "count"),
            ("cache_hit_ratio", fleet.cache_hit_ratio(), "ratio"),
        ],
    };
    if mode.traced {
        read_fleet(&fleet, &mut pass.layers);
        pass.layers.insert("fleet.run_s", pass.wall_s);
        pass.layers
            .insert("fleet.host_s_per_sim_s", median(&ratios));
    }
    let mut witness = format!("{:?}|", pass.sim.named);
    for t in fleet.startup_times() {
        let _ = write!(witness, "{:?},", t.map(|t| t.as_nanos()));
    }
    spans.end(root);
    pass.finish(&witness);
    pass
}

/// The first `until` of the boot storm on `threads` workers: host
/// seconds, and the events executed (equal on every engine).
pub fn boot_storm_prefix(seed: u64, threads: usize, until: SimTime) -> (f64, u64) {
    let profile = scaleout_boot_profile();
    let mut fleet = Fleet::new(boot_storm_cfg(seed, threads));
    fleet.start(move |_| Box::new(BootProgram::new(profile.clone())));
    let t = Instant::now();
    let r = fleet.run_to_all_booted(until);
    let wall = t.elapsed().as_secs_f64();
    if let Err(stall) = r {
        assert!(!stall.wedged, "boot storm wedged: {stall}");
    }
    (wall, fleet.events_executed())
}

// ------------------------------------------------------------- upgrade-wave

/// Members of the rolling upgrade and how many are out of service at
/// once.
const UPGRADE_N: usize = 32;
const UPGRADE_BATCH: usize = 4;

/// The elasticity figure's member geometry: a 16 MiB image on a 32 MiB
/// disk, members powered on 50 ms apart.
fn upgrade_cfg(seed: u64, threads: usize) -> FleetConfig {
    let base = FleetConfig::default();
    FleetConfig {
        n: UPGRADE_N,
        spec: MachineSpec {
            capacity_sectors: (1u64 << 25) / 512,
            image_sectors: (1u64 << 24) / 512,
            image_seed: derive(base.spec.image_seed, seed, 1),
            ..MachineSpec::default()
        },
        start_stagger: ELASTICITY_STAGGER,
        seed: derive(base.seed, seed, 2),
        sim_threads: threads,
        ..base
    }
}

/// The elasticity figure's first tenant: a sequential write stream over
/// a per-machine region for about a second of its own lifetime.
fn tenant(seed: u64) -> impl FnMut(usize) -> Box<dyn GuestProgram> {
    let program_seed = derive(0x7E0A, seed, 4);
    move |i| {
        let region = BlockRange::new(Lba(2048 + (i as u64 % 8) * 2048), 1024);
        let until = SimTime::ZERO + SimDuration::from_millis(1_000 + 50 * (i as u64 + 1));
        Box::new(StreamProgram::sequential(
            region,
            true,
            256,
            until,
            program_seed.wrapping_add(i as u64),
        ))
    }
}

/// What member `i`'s archive volume must hold at its sampled filled
/// sectors: the disk as sampled now, except that a block whose write is
/// still in flight will land the image (`seed`) before the snapshot.
fn archive_expectation(
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

fn upgrade_wave(seed: u64, mode: Mode<'_>) -> Pass {
    let cfg = upgrade_cfg(seed, mode.threads);
    let image_sectors = cfg.spec.image_sectors;
    let image_seed = cfg.spec.image_seed;
    let new_seed = derive(UPGRADE_IMAGE_SEED, seed, 5);
    let spans = mode.spans;
    let root = spans.begin("upgrade-wave.pass", None);
    let mut pass = Pass::default();

    let t = Instant::now();
    let mut fleet = spans.time("fleet.new", root, || arm_fleet(cfg, mode.traced));
    spans.time("fleet.start", root, || fleet.start(tenant(seed)));
    pass.setup_s = t.elapsed().as_secs_f64();
    if mode.setup_only {
        return pass;
    }

    let mut ratios = Vec::new();
    let slice = mode.traced.then(|| SimDuration::from_millis(500));
    let t = Instant::now();
    let boot = boot_in_slices(
        &mut fleet,
        SimTime::from_secs(36_000),
        slice,
        spans,
        root,
        &mut ratios,
    );
    let boot_wall = t.elapsed().as_secs_f64();
    let samples: Vec<Vec<(u64, SectorData)>> = spans.time("sample_disks", root, || {
        (0..UPGRADE_N)
            .map(|i| archive_expectation(&fleet, i, image_seed, image_sectors))
            .collect()
    });
    let wave_start = fleet.now();
    let tw = Instant::now();
    let wave = boot.as_ref().map_err(|e| e.clone()).and_then(|_| {
        spans
            .time("fleet.run_rolling_upgrade", root, || {
                fleet.run_rolling_upgrade(
                    new_seed,
                    UPGRADE_BATCH,
                    |_| Box::new(BootProgram::new(BootProfile::tiny(7))),
                    SimTime::from_secs(72_000),
                )
            })
            .map_err(|e| e.to_string())
    });
    let wave_wall = tw.elapsed().as_secs_f64();
    // Sampling disks for verification sits between the two run calls
    // and is left out.
    pass.wall_s = boot_wall + wave_wall;
    pass.events = fleet.events_executed();

    // Four operations per member: first deployment, reclaim, archive,
    // redeployed image.
    let verify = spans.begin("verify", root);
    pass.attempted = 4 * UPGRADE_N as u64;
    if let Err(e) = &wave {
        eprintln!("upgrade-wave stalled: {e}");
    }
    let outcomes = fleet.outcomes();
    for (i, sample) in samples.iter().enumerate() {
        if !matches!(outcomes[i], MachineOutcome::Booted { .. }) {
            pass.failures
                .push(format!("machine {i} deployment: {:?}", outcomes[i]));
        }
        if let Some(e) = fleet.machine(i).reclaim_error() {
            pass.failures.push(format!("machine {i} reclaim: {e}"));
        } else if wave.is_err() {
            pass.failures
                .push(format!("machine {i} reclaim: wave did not complete"));
        }
        match fleet.archive_volume(i) {
            Some(vol) if wave.is_ok() => {
                let bad: Vec<u64> = sample
                    .iter()
                    .filter(|&&(lba, data)| vol.store().read(Lba(lba)) != data)
                    .map(|&(lba, _)| lba)
                    .collect();
                if !bad.is_empty() || sample.is_empty() {
                    pass.failures.push(format!(
                        "machine {i} archive: {}/{} sampled sectors differ from its pre-wave disk{}",
                        bad.len(),
                        sample.len(),
                        bad.first().map_or(String::new(), |l| format!(", first at LBA {l}"))
                    ));
                }
            }
            _ => pass
                .failures
                .push(format!("machine {i} archive: not written")),
        }
        let (bad, checked) = image_mismatches(&fleet, i, new_seed, image_sectors);
        if wave.is_err() || bad > 0 || checked < 10 {
            pass.failures.push(format!(
                "machine {i} redeployed image: {bad}/{checked} sampled sectors wrong"
            ));
        }
    }
    spans.end(verify);

    let mut upgrades = Histogram::new();
    for t in wave.iter().flatten() {
        upgrades.record_duration(t.duration_since(wave_start));
    }
    let (p50, tail_s) = p50_tail(&mut upgrades);
    let (first_p50, _) = p50_tail(&mut boot_durations(&fleet));
    pass.sim = SimResults {
        mean_s: upgrades.mean(),
        tail_s,
        tail_label: tail_label(upgrades.len()),
        makespan_s: upgrades.max(),
        named: vec![
            ("upgrade_p50_s", p50, "s"),
            ("upgrade_makespan_s", upgrades.max(), "s"),
            ("first_boot_p50_s", first_p50, "s"),
            (
                "archive_sectors_written",
                fleet.server().sectors_written() as f64,
                "count",
            ),
        ],
    };
    if mode.traced {
        read_fleet(&fleet, &mut pass.layers);
        pass.layers.insert("fleet.run_s", boot_wall + wave_wall);
        pass.layers.insert("fleet.wave_s", wave_wall);
        pass.layers
            .insert("fleet.host_s_per_sim_s", median(&ratios));
    }
    let mut witness = format!("{:?}|{:?}|", pass.sim.named, pass.failures);
    for t in fleet.redeploy_times() {
        let _ = write!(witness, "{:?},", t.map(|t| t.as_nanos()));
    }
    spans.end(root);
    pass.finish(&witness);
    pass
}
