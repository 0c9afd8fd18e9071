//! Fleet pins that tier-1 reaches: a tiny peer-to-peer boot and a tiny
//! rolling upgrade, each checked against boot ticks, the event count
//! and a digest of the fleet snapshot recorded from the fleet engine,
//! plus a same-seed chaos double run compared byte for byte, and the
//! tie between the scale-out figure's n = 1 fleet and fig04's BMcast
//! boot.
//!
//! A pin that moves means the fleet's event interleave moved: every
//! committed scale-out, transport and obs artifact moves with it.

use bmcast_repro::aoe::ServerConfig;
use bmcast_repro::bmcast::config::{BmcastConfig, Moderation};
use bmcast_repro::bmcast::deploy::{FlightRecorderConfig, Runner};
use bmcast_repro::bmcast::fleet::{Fleet, FleetConfig};
use bmcast_repro::bmcast::machine::{GuestProgram, MachineSpec};
use bmcast_repro::bmcast::programs::{BootProgram, StreamProgram};
use bmcast_repro::bmcast::TransportKind;
use bmcast_repro::guestsim::os::BootProfile;
use bmcast_repro::hwsim::block::{BlockRange, Lba};
use bmcast_repro::simkit::fault::FaultPlan;
use bmcast_repro::simkit::{self, SimDuration, SimTime};

/// A 2 MiB image on a 4 MiB disk: small enough that a debug build runs
/// every test here in about a second, large enough that peers convert
/// and wave members overlap.
fn tiny_cfg(n: usize) -> FleetConfig {
    FleetConfig {
        n,
        spec: MachineSpec {
            capacity_sectors: (1u64 << 22) / 512,
            image_sectors: (1u64 << 21) / 512,
            ..MachineSpec::default()
        },
        ..FleetConfig::default()
    }
}

/// The scale-out figure's p2p shape: staggered power-on, post-boot
/// sprint and a peer-aware admission ramp.
fn p2p_cfg(n: usize) -> FleetConfig {
    let mut cfg = tiny_cfg(n);
    cfg.peer_serving = true;
    cfg.start_stagger = SimDuration::from_millis(50);
    cfg.machine_cfg.moderation.post_boot_sprint = true;
    cfg.admission_base = 2;
    cfg.admission_per_peer = 4;
    cfg
}

/// A short boot: 50 reads totalling 2 MiB over the first 1 MiB, plus
/// 500 ms of CPU work.
fn boot_program(_: usize) -> Box<dyn GuestProgram> {
    Box::new(BootProgram::new(BootProfile::custom(
        "pin",
        7,
        50,
        2 << 20,
        500,
        1 << 20,
    )))
}

/// FNV-1a 64 over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn ticks(times: &[SimTime]) -> Vec<u64> {
    times.iter().map(|t| t.as_nanos()).collect()
}

fn armed(cfg: FleetConfig) -> Fleet {
    let mut fleet = Fleet::new(cfg);
    fleet.enable_telemetry();
    fleet
}

fn snapshot_digest(fleet: &Fleet) -> u64 {
    fnv1a(
        fleet
            .fleet_snapshot()
            .expect("telemetry on")
            .to_json()
            .as_bytes(),
    )
}

// The pinned event counts exclude timer ticks that do nothing: the
// writer's idle polls, the retriever's gated re-arms and the retransmit
// guard's empty rounds are skipped, not executed (`simkit::Sim::arm`).

/// An n = 8 single-server boot storm, checked after every millisecond
/// of it: no member's keyed timers pile up. The stacked event chains
/// they replace kept one event per call (every reply in a busy window
/// started another retriever chain); a timer keeps one tick per instant
/// it wakes at. The writer poll is a single chain; the retriever wakes
/// at gate deadlines and the retransmit guard at its RTO phases, which
/// the measured run keeps well under the bound.
#[test]
fn keyed_timers_stay_bounded_through_a_boot_storm() {
    let n = 8;
    let mut fleet = Fleet::new(tiny_cfg(n));
    fleet.start(boot_program);
    let mut peak = [0usize; simkit::MAX_TIMERS];
    let mut until = SimTime::ZERO;
    loop {
        until += SimDuration::from_millis(1);
        let run = fleet.run_to_all_booted(until);
        for i in 0..n {
            for (slot, peak) in peak.iter_mut().enumerate() {
                let ticks = fleet.member_sim(i).timer_ticks(slot);
                assert!(
                    ticks.windows(2).all(|w| w[0] <= w[1]),
                    "machine {i}, timer {slot}: ticks out of order"
                );
                *peak = (*peak).max(ticks.len());
            }
        }
        match run {
            Ok(_) => break,
            Err(stall) if !stall.wedged => assert!(until < SimTime::from_secs(600)),
            Err(stall) => panic!("boot storm wedged: {stall}"),
        }
    }
    assert!(peak.iter().sum::<usize>() > 0, "the timers were armed");
    assert!(
        peak.iter().all(|&p| p <= 64),
        "timer ticks piled up: {peak:?}"
    );
}

#[test]
fn p2p_fleet_matches_its_pin() {
    let mut fleet = armed(p2p_cfg(8));
    fleet.start(boot_program);
    let boots = fleet
        .run_to_all_booted(SimTime::from_secs(3600))
        .expect("fleet boots");
    assert!(fleet.peers_active() >= 1, "an early finisher converted");
    assert_eq!(
        (
            ticks(&boots),
            fleet.events_executed(),
            snapshot_digest(&fleet)
        ),
        (
            vec![
                708_130_251,
                574_391_900,
                624_391_900,
                674_391_900,
                724_391_900,
                774_391_900,
                824_391_900,
                874_391_900,
            ],
            7_371,
            15_947_513_041_578_365_859,
        ),
        "p2p n=8 boot ticks, event count, snapshot digest"
    );
}

#[test]
fn rolling_upgrade_matches_its_pin() {
    let mut fleet = armed(tiny_cfg(4));
    fleet.start(boot_program);
    let boots = fleet
        .run_to_all_booted(SimTime::from_secs(3600))
        .expect("fleet boots");
    let redeploys = fleet
        .run_rolling_upgrade(0xB002, 2, boot_program, SimTime::from_secs(7200))
        .expect("the wave completes");
    assert_eq!(fleet.queue_drops_total(), 0);
    assert_eq!(
        (
            ticks(&boots),
            ticks(&redeploys),
            fleet.events_executed(),
            snapshot_digest(&fleet)
        ),
        (
            vec![720_210_491, 524_572_572, 734_911_259, 735_405_467],
            vec![1_437_968_950, 1_260_002_039, 1_784_597_939, 1_962_564_850],
            9_051,
            685_838_263_184_392_707,
        ),
        "upgrade n=4 boot ticks, redeploy ticks, event count, snapshot digest"
    );
}

#[test]
fn same_seed_chaos_runs_are_byte_identical() {
    let run = || {
        let mut cfg = tiny_cfg(4);
        cfg.faults = FaultPlan::preset("chaos", 7);
        let mut fleet = armed(cfg);
        fleet.enable_flight_recorder(FlightRecorderConfig::default());
        fleet.start(boot_program);
        let boots = fleet
            .run_to_all_booted(SimTime::from_secs(3600))
            .expect("fleet boots under chaos");
        let counters = fleet.fault_counters().expect("plan installed");
        assert!(
            counters.link_dropped + counters.link_corrupted + counters.server_dropped > 0,
            "the chaos plan fired"
        );
        (
            ticks(&boots),
            fleet.events_executed(),
            fleet.fleet_snapshot().expect("telemetry on").to_json(),
            fleet.chrome_trace(),
        )
    };
    let (a, b) = (run(), run());
    assert_eq!(a.0, b.0, "boot ticks diverged");
    assert_eq!(a.1, b.1, "event counts diverged");
    assert!(a.2 == b.2, "fleet snapshot bytes diverged");
    assert!(a.3 == b.3, "trace bytes diverged");
}

/// `ext02`'s n = 1 point is fig04's BMcast OS boot: a one-machine
/// single-server fleet at the paper geometry (32 GB disk, the Ubuntu
/// 14.04 profile), with the figure's 50 ms arrival stagger, boots at
/// exactly the single-machine runner's instant.
#[test]
fn one_machine_fleet_boots_at_the_fig04_bmcast_instant() {
    let spec = MachineSpec::default();
    let profile = BootProfile::ubuntu_14_04(7);
    let limit = SimTime::from_secs(1_800);

    let mut single = Runner::bmcast(&spec, BmcastConfig::default());
    single.start_program(Box::new(BootProgram::new(profile.clone())));
    let single_boot = single.run_to_finish(limit).expect("BMcast boot finishes");

    let mut fleet = Fleet::new(FleetConfig {
        n: 1,
        spec,
        start_stagger: SimDuration::from_millis(50),
        ..FleetConfig::default()
    });
    fleet.start(move |_| Box::new(BootProgram::new(profile.clone())));
    let boots = fleet.run_to_all_booted(limit).expect("fleet boots");
    assert_eq!(boots, [single_boot], "fleet n=1 vs fig04 BMcast boot");
}

/// A standalone machine runs the same fabric code as a fleet, on its
/// own simulator: with the same server config, a guest reading
/// sequentially ahead of the copy finishes, and the machine reaches
/// bare metal, at the same ticks as in an n = 1 fleet, on every
/// transport. RDMA replies take the lossless IB lane in both.
#[test]
fn standalone_machine_matches_a_one_machine_fleet_on_every_transport() {
    let spec = MachineSpec {
        capacity_sectors: (1u64 << 25) / 512,
        image_sectors: (1u64 << 24) / 512,
        ..MachineSpec::default()
    };
    // 3 s of back-to-back 32 KiB reads over the image's second half; the
    // full-speed copy reaches bare metal (near 2.4 s) while the guest
    // still reads.
    let reads = |_: usize| -> Box<dyn GuestProgram> {
        Box::new(StreamProgram::sequential(
            BlockRange::new(Lba(16_384), 16_384),
            false,
            64,
            SimTime::from_millis(3000),
            11,
        ))
    };
    let limit = SimTime::from_secs(60);
    for transport in [
        TransportKind::Aoe,
        TransportKind::Batched,
        TransportKind::Rdma,
    ] {
        let cfg = BmcastConfig {
            moderation: Moderation::full_speed(),
            transport,
            ..BmcastConfig::default()
        };

        let mut single = Runner::bmcast(&spec, cfg.clone());
        single.start_program(reads(0));
        let finished = single.run_to_finish(limit).expect("guest finishes");
        let vmm = single.machine().vmm.as_ref().unwrap();
        let single_ticks = (finished, vmm.bare_metal_at.expect("bare metal first"));

        let mut fleet = Fleet::new(FleetConfig {
            n: 1,
            spec: spec.clone(),
            machine_cfg: cfg,
            server_cfg: ServerConfig::default(),
            ..FleetConfig::default()
        });
        fleet.start(reads);
        let boots = fleet
            .run_to_all_booted(limit)
            .expect("fleet guest finishes");
        let vmm = fleet.machine(0).vmm.as_ref().unwrap();
        let fleet_ticks = (boots[0], vmm.bare_metal_at.expect("bare metal first"));

        assert!(
            single.machine().stats.redirected_ios > 0,
            "{transport:?}: the guest read ahead of the copy"
        );
        assert_eq!(
            single_ticks, fleet_ticks,
            "{transport:?}: (guest finish, bare metal), standalone vs fleet n = 1"
        );
    }
}

/// The reverse lifecycle reaches the timeline: every wave member's
/// sampler holds `snap.*` rows from its snapshot-back, and the last one
/// shows a clean dirty tracker.
#[test]
fn rolling_upgrade_timeline_records_snapshot_back() {
    let mut fleet = Fleet::new(tiny_cfg(4));
    fleet.enable_flight_recorder(FlightRecorderConfig::default());
    fleet.start(boot_program);
    fleet
        .run_to_all_booted(SimTime::from_secs(3600))
        .expect("fleet boots");
    fleet
        .run_rolling_upgrade(0xB002, 2, boot_program, SimTime::from_secs(7200))
        .expect("the wave completes");
    for (i, (_, sampler)) in fleet.recorders().iter().enumerate() {
        let dirty: Vec<f64> = sampler
            .rows()
            .iter()
            .filter_map(|r| r.value("snap.dirty_sectors"))
            .collect();
        assert!(
            !dirty.is_empty(),
            "machine {i} recorded no snapshot-back rows"
        );
        assert_eq!(
            dirty.last(),
            Some(&0.0),
            "machine {i} snapshot-back ends clean: {dirty:?}"
        );
    }
}

/// A healthy fleet that powers on 5 s apart raises no watchdog alert.
/// Before its second member starts, every server lookup is a cold miss
/// (no cache-collapse yet), and a member waiting for its scheduled
/// start has no progress to make (no stalled-member).
#[test]
fn staggered_fleet_raises_no_false_alert() {
    let mut cfg = tiny_cfg(3);
    cfg.start_stagger = SimDuration::from_secs(5);
    let mut fleet = Fleet::new(cfg);
    fleet.enable_flight_recorder(FlightRecorderConfig::default());
    fleet.start(boot_program);
    fleet
        .run_to_all_booted(SimTime::from_secs(3600))
        .expect("fleet boots");
    let edges: Vec<_> = fleet
        .alerts()
        .iter()
        .map(|a| (a.at, a.rule, a.raised))
        .collect();
    assert!(
        edges.is_empty(),
        "false alerts on a healthy boot: {edges:?}"
    );
}

/// A lifecycle wave keeps each member's straggler row whole: the read
/// counter, the spans and the per-shelf read tally all survive
/// `reclaim`, so every read a row counts is either a peer or an origin
/// read.
#[test]
fn straggler_read_mix_adds_up_after_a_rolling_upgrade() {
    let mut fleet = armed(tiny_cfg(4));
    fleet.enable_flight_recorder(FlightRecorderConfig::default());
    fleet.start(boot_program);
    fleet
        .run_to_all_booted(SimTime::from_secs(3600))
        .expect("fleet boots");
    fleet
        .run_rolling_upgrade(0xB002, 2, boot_program, SimTime::from_secs(7200))
        .expect("the wave completes");
    let report = fleet
        .straggler_attribution()
        .expect("telemetry and flight recorder on");
    for row in report.stragglers.iter().chain([&report.median]) {
        assert_eq!(
            row.reads,
            row.peer_reads + row.origin_reads,
            "machine {}: reads {} but peer {} + origin {}",
            row.machine,
            row.reads,
            row.peer_reads,
            row.origin_reads
        );
    }
}
