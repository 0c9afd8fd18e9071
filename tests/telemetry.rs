//! Integration tests for the observability layer: every metric the
//! instrumentation publishes must agree with the machine's own
//! ground-truth counters, the phase spans must record the lifecycle in
//! order and tile the deployment, and observing a run — one
//! machine or a fleet — must never move it.

use bmcast_repro::bmcast::config::{BmcastConfig, ControllerKind, Moderation};
use bmcast_repro::bmcast::deploy::{FlightRecorderConfig, Runner};
use bmcast_repro::bmcast::fleet::{Fleet, FleetConfig};
use bmcast_repro::bmcast::machine::{GuestProgram, MachineSpec};
use bmcast_repro::bmcast::programs::{BootProgram, StreamProgram};
use bmcast_repro::guestsim::os::BootProfile;
use bmcast_repro::hwsim::block::{BlockRange, Lba};
use bmcast_repro::simkit::fault::FaultPlan;
use bmcast_repro::simkit::{SimDuration, SimTime, Span};

/// A quiet fault plan that drops 1% of the frames in each direction.
fn one_percent_loss() -> Option<FaultPlan> {
    let mut plan = FaultPlan::quiet(0x5EED);
    plan.link.drop_rate = 0.01;
    Some(plan)
}

fn spec() -> MachineSpec {
    MachineSpec {
        capacity_sectors: 1 << 14,
        image_sectors: 1 << 14,
        image_seed: 0xFEED_0002,
        cpus: 4,
        mem_bytes: 1 << 30,
        controller: ControllerKind::Ide,
    }
}

#[test]
fn metrics_agree_with_machine_ground_truth() {
    // Frame loss exercises the retransmit counters; guest reads ahead of
    // the copy exercise redirects, fills, and discards.
    let cfg = BmcastConfig {
        moderation: Moderation::full_speed(),
        faults: one_percent_loss(),
        ..BmcastConfig::default()
    };
    let mut runner = Runner::bmcast_flight_recorded(&spec(), cfg, FlightRecorderConfig::default());
    runner.start_program(Box::new(StreamProgram::sequential(
        BlockRange::new(Lba(8_000), 4_096),
        false,
        64,
        SimTime::from_millis(800),
        5,
    )));
    runner.run_to_finish(SimTime::from_secs(300));
    runner
        .run_to_bare_metal(SimTime::from_secs(600))
        .expect("deployment completes");
    let t = runner.now();
    runner.run_until(t + SimDuration::from_secs(1)); // drain write-behind

    let snap = runner.metrics_snapshot().expect("telemetry is on");
    let m = runner.machine();
    let vmm = m.vmm.as_ref().unwrap();
    let server = m.fabric.as_ref().unwrap().server();

    // The run actually exercised the interesting paths.
    assert!(
        m.stats.redirected_ios > 0,
        "reads ahead of the copy redirect"
    );
    assert!(vmm.client.retransmits() > 0, "loss forced retransmits");
    assert!(vmm.bg.blocks_written() > 0);

    // Machine-level counters.
    assert_eq!(
        snap.counter("machine.redirected_ios"),
        m.stats.redirected_ios
    );
    assert_eq!(
        snap.counter("machine.redirected_bytes"),
        m.stats.redirected_bytes
    );
    assert_eq!(snap.counter("machine.local_ios"), m.stats.local_ios);
    assert_eq!(snap.counter("machine.frames_tx"), m.stats.frames_tx);
    assert_eq!(snap.counter("machine.frames_rx"), m.stats.frames_rx);

    // Background copy.
    assert_eq!(snap.counter("bg.blocks_written"), vmm.bg.blocks_written());
    assert_eq!(
        snap.counter("bg.blocks_discarded"),
        vmm.bg.blocks_discarded()
    );
    assert_eq!(snap.counter("bg.bytes_fetched"), vmm.bg.bytes_fetched());
    assert_eq!(snap.gauge("bg.inflight"), vmm.bg.inflight() as i64);

    // AoE endpoints.
    assert_eq!(
        snap.counter("aoe.client.retransmits"),
        vmm.client.retransmits()
    );
    assert_eq!(
        snap.counter("aoe.client.completions"),
        vmm.client.completions()
    );
    assert_eq!(snap.counter("aoe.server.requests"), server.requests());
    assert_eq!(
        snap.counter("aoe.server.sectors_read"),
        server.sectors_read()
    );

    // Mediator counters mirror MediatorStats.
    let ms = vmm.port.mediation().stats();
    assert_eq!(snap.counter("mediator.ide.redirects"), ms.redirects);
    assert_eq!(
        snap.counter("mediator.ide.interpreted_commands"),
        ms.interpreted_commands
    );
    assert_eq!(snap.counter("mediator.ide.multiplexes"), ms.multiplexes);
    assert_eq!(
        snap.counter("mediator.ide.queued_accesses"),
        ms.queued_accesses
    );

    // Guest I/O latency histogram saw every completed I/O.
    let h = snap
        .histogram("guest.io_latency_us")
        .expect("latency recorded");
    assert_eq!(h.count(), m.guest.ios_completed);
}

#[test]
fn tracer_records_the_lifecycle_in_order() {
    let mut runner = Runner::bmcast_flight_recorded(
        &spec(),
        BmcastConfig {
            moderation: Moderation::full_speed(),
            ..BmcastConfig::default()
        },
        FlightRecorderConfig::default(),
    );
    runner
        .run_to_bare_metal(SimTime::from_secs(600))
        .expect("deployment completes");

    // In completion order, unsorted: each phase span is recorded as its
    // phase ends, so the store itself holds the lifecycle in order.
    let phases: Vec<Span> = runner
        .spans()
        .finished()
        .into_iter()
        .filter(|s| s.track == "phase")
        .collect();
    let kinds: Vec<&str> = phases.iter().map(|s| s.kind).collect();
    assert_eq!(
        kinds,
        [
            "phase.initialization",
            "phase.deployment",
            "phase.devirtualization"
        ]
    );
    // Contiguous: each phase starts where the one before it ended.
    for w in phases.windows(2) {
        assert_eq!(w[0].end, w[1].start, "{} -> {}", w[0].kind, w[1].kind);
    }
    assert_eq!(runner.spans().dropped(), 0);
}

#[test]
fn telemetry_off_by_default_and_free() {
    let mut runner = Runner::bmcast(
        &spec(),
        BmcastConfig {
            moderation: Moderation::full_speed(),
            ..BmcastConfig::default()
        },
    );
    runner
        .run_to_bare_metal(SimTime::from_secs(600))
        .expect("deployment completes");
    assert!(runner.metrics_snapshot().is_none(), "no registry allocated");
    assert!(runner.spans().finished().is_empty(), "no span store");
    assert_eq!(runner.spans().started(), 0);
    // Ground truth still accumulates regardless.
    assert!(runner.machine().stats.frames_rx > 0);
}

/// Guest reads ahead of the background copy, as in
/// `metrics_agree_with_machine_ground_truth`.
fn read_ahead() -> Box<StreamProgram> {
    Box::new(StreamProgram::sequential(
        BlockRange::new(Lba(8_000), 4_096),
        false,
        64,
        SimTime::from_millis(800),
        5,
    ))
}

#[test]
fn phase_spans_tile_the_deployment() {
    let mut runner = Runner::bmcast_flight_recorded(
        &spec(),
        BmcastConfig {
            moderation: Moderation::full_speed(),
            faults: one_percent_loss(),
            ..BmcastConfig::default()
        },
        FlightRecorderConfig::default(),
    );
    runner.start_program(read_ahead());
    runner.run_to_finish(SimTime::from_secs(300));
    let bare_metal = runner
        .run_to_bare_metal(SimTime::from_secs(600))
        .expect("deployment completes");
    let mut phases: Vec<Span> = runner
        .spans()
        .finished()
        .into_iter()
        .filter(|s| s.track == "phase")
        .collect();
    phases.sort_by_key(|s| s.start);
    let kinds: Vec<&str> = phases.iter().map(|s| s.kind).collect();
    assert_eq!(
        kinds,
        [
            "phase.initialization",
            "phase.deployment",
            "phase.devirtualization"
        ]
    );
    // Exactly [0, bare_metal_at], with no gap and no overlap.
    assert_eq!(phases[0].start, SimTime::ZERO);
    assert_eq!(phases[2].end, bare_metal);
    for w in phases.windows(2) {
        assert_eq!(w[0].end, w[1].start, "{} -> {}", w[0].kind, w[1].kind);
    }
}

/// The flight recorder only reads the machine: a recorded run and a
/// plain one from the same config reach bare metal at the same instant
/// with the same retransmits and frames, with loss and under chaos.
#[test]
fn observation_is_inert_on_one_machine() {
    let base = BmcastConfig {
        moderation: Moderation::full_speed(),
        ..BmcastConfig::default()
    };
    let lossy = BmcastConfig {
        faults: one_percent_loss(),
        ..base.clone()
    };
    let chaos = BmcastConfig {
        faults: Some(FaultPlan::chaos(7)),
        ..base
    };
    for cfg in [lossy, chaos] {
        let run = |mut runner: Runner| {
            runner.start_program(read_ahead());
            runner.run_to_finish(SimTime::from_secs(300));
            let bare_metal = runner
                .run_to_bare_metal(SimTime::from_secs(600))
                .expect("deployment completes");
            let m = runner.machine();
            let retransmits = m.vmm.as_ref().unwrap().client.retransmits();
            (
                bare_metal,
                retransmits,
                m.stats.frames_tx,
                m.stats.frames_rx,
            )
        };
        let plain = run(Runner::bmcast(&spec(), cfg.clone()));
        let observed = run(Runner::bmcast_flight_recorded(
            &spec(),
            cfg,
            FlightRecorderConfig::default(),
        ));
        assert!(plain.1 > 0, "loss forced retransmits");
        assert_eq!(plain, observed, "(bare metal, retransmits, frames tx, rx)");
    }
}

/// Fleet-wide, telemetry plus the flight recorder (and the SLO
/// watchdogs it arms) leave every boot instant where it was, without
/// faults and under chaos, and every redeploy instant of a rolling
/// upgrade under chaos. Telemetry also leaves the recording itself
/// byte-identical, so a recorded wave's trace does not depend on it.
#[test]
fn observation_is_inert_on_a_fleet() {
    let fleet = |faults: Option<FaultPlan>, telemetry: bool, recorder: bool| {
        let mut fleet = Fleet::new(FleetConfig {
            n: 4,
            spec: MachineSpec {
                capacity_sectors: (1u64 << 22) / 512,
                image_sectors: (1u64 << 21) / 512,
                ..MachineSpec::default()
            },
            faults,
            ..FleetConfig::default()
        });
        if telemetry {
            fleet.enable_telemetry();
        }
        if recorder {
            fleet.enable_flight_recorder(FlightRecorderConfig::default());
        }
        fleet
    };
    let program = |_| -> Box<dyn GuestProgram> {
        Box::new(BootProgram::new(BootProfile::custom(
            "inert",
            7,
            50,
            2 << 20,
            500,
            1 << 20,
        )))
    };
    for faults in [None, FaultPlan::preset("chaos", 7)] {
        let boots = |observed: bool| {
            let mut fleet = fleet(faults.clone(), observed, observed);
            fleet.start(program);
            fleet
                .run_to_all_booted(SimTime::from_secs(3600))
                .expect("fleet boots")
        };
        assert_eq!(boots(false), boots(true), "faults: {}", faults.is_some());
    }

    let wave = |telemetry: bool, recorder: bool| {
        let mut fleet = fleet(FaultPlan::preset("chaos", 7), telemetry, recorder);
        fleet.start(program);
        let boots = fleet
            .run_to_all_booted(SimTime::from_secs(3600))
            .expect("fleet boots under chaos");
        let redeploys = fleet
            .run_rolling_upgrade(0xB002, 2, program, SimTime::from_secs(7200))
            .expect("the wave completes under chaos");
        (boots, redeploys, fleet.chrome_trace())
    };
    let (plain_boots, plain_redeploys, _) = wave(false, false);
    let (boots, redeploys, trace) = wave(true, true);
    assert_eq!(
        (plain_boots, plain_redeploys),
        (boots, redeploys),
        "(boot, redeploy) instants of the chaos wave"
    );
    let (_, _, untelemetered) = wave(false, true);
    assert!(trace.contains("\"ph\": \"X\""), "the wave was recorded");
    assert!(
        trace == untelemetered,
        "telemetry moved the recorded wave's trace"
    );
}
