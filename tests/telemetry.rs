//! Integration tests for the observability layer: every metric the
//! instrumentation publishes must agree with the machine's own
//! ground-truth counters, and the trace ring must record the lifecycle.

use bmcast_repro::bmcast::config::{BmcastConfig, ControllerKind, Moderation};
use bmcast_repro::bmcast::deploy::Runner;
use bmcast_repro::bmcast::machine::MachineSpec;
use bmcast_repro::bmcast::programs::StreamProgram;
use bmcast_repro::hwsim::block::{BlockRange, Lba};
use bmcast_repro::simkit::{SimDuration, SimTime};

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
        fabric_loss_rate: 0.01,
        ..BmcastConfig::default()
    };
    let mut runner = Runner::bmcast_instrumented(&spec(), cfg);
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
    let net = m.net.as_ref().unwrap();

    // The run actually exercised the interesting paths.
    assert!(m.stats.redirected_ios > 0, "reads ahead of the copy redirect");
    assert!(vmm.client.retransmits() > 0, "loss forced retransmits");
    assert!(vmm.bg.blocks_written() > 0);

    // Machine-level counters.
    assert_eq!(snap.counter("machine.redirected_ios"), m.stats.redirected_ios);
    assert_eq!(
        snap.counter("machine.redirected_bytes"),
        m.stats.redirected_bytes
    );
    assert_eq!(snap.counter("machine.local_ios"), m.stats.local_ios);
    assert_eq!(snap.counter("machine.frames_tx"), m.stats.frames_tx);
    assert_eq!(snap.counter("machine.frames_rx"), m.stats.frames_rx);

    // Background copy.
    assert_eq!(snap.counter("bg.blocks_written"), vmm.bg.blocks_written());
    assert_eq!(snap.counter("bg.blocks_discarded"), vmm.bg.blocks_discarded());
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
    assert_eq!(snap.counter("aoe.server.requests"), net.server.requests());
    assert_eq!(
        snap.counter("aoe.server.sectors_read"),
        net.server.sectors_read()
    );

    // Mediator counters mirror MediatorStats.
    let ms = vmm.port.stats();
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
    let h = snap.histogram("guest.io_latency_us").expect("latency recorded");
    assert_eq!(h.count(), m.guest.ios_completed);
}

#[test]
fn tracer_records_the_lifecycle_in_order() {
    let mut runner = Runner::bmcast_instrumented(
        &spec(),
        BmcastConfig {
            moderation: Moderation::full_speed(),
            ..BmcastConfig::default()
        },
    );
    runner
        .run_to_bare_metal(SimTime::from_secs(600))
        .expect("deployment completes");

    let events = runner.tracer().events();
    let phases: Vec<&str> = events
        .iter()
        .filter(|e| e.subsystem == "phase")
        .map(|e| e.event)
        .collect();
    assert_eq!(
        phases,
        vec![
            "deployment",
            "deployment_done",
            "devirtualization",
            "bare_metal"
        ]
    );
    // Phase events carry monotonically non-decreasing timestamps.
    let times: Vec<_> = events.iter().map(|e| e.at).collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]));
    assert_eq!(runner.tracer().dropped(), 0);
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
    assert!(runner.tracer().events().is_empty());
    // Ground truth still accumulates regardless.
    assert!(runner.machine().stats.frames_rx > 0);
}
