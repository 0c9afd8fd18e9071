//! Fault-injection scenario regression suite.
//!
//! Every fault class the injector can produce is driven through a full
//! deployment, and the paper's availability claims are checked under
//! adversity: the deployment still completes, the local disk ends up
//! byte-identical to the server image, the guest keeps getting served
//! while the storage server is unreachable, and the whole run replays
//! byte-identically from its seed.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::sync::Mutex;

use bmcast_repro::aoe::{AoeClient, AoeServer, ClientConfig, ServerConfig};
use bmcast_repro::bmcast::config::{BmcastConfig, ControllerKind, Moderation};
use bmcast_repro::bmcast::deploy::{FlightRecorderConfig, Runner};
use bmcast_repro::bmcast::devirt::Phase;
use bmcast_repro::bmcast::machine::{DeployError, GuestCtl, GuestProgram, MachineSpec};
use bmcast_repro::guestsim::io::{CompletedIo, IoRequest, RequestId};
use bmcast_repro::hwsim::block::{BlockRange, BlockStore, Lba, SectorData};
use bmcast_repro::hwsim::disk::{DiskModel, DiskParams};
use bmcast_repro::simkit::export::chrome_trace_json;
use bmcast_repro::simkit::fault::{FaultPlan, Window};
use bmcast_repro::simkit::{SimDuration, SimTime, NO_SPAN};

const SEED: u64 = 0xFA01_75ED;

/// Big enough (32 MB) that a full-speed deployment takes ~0.3 s of
/// virtual time and therefore crosses the presets' stall/crash windows;
/// a smaller image would finish before the first fault window opens.
fn spec(controller: ControllerKind) -> MachineSpec {
    MachineSpec {
        capacity_sectors: 1 << 16,
        image_sectors: 1 << 16,
        image_seed: SEED,
        cpus: 4,
        mem_bytes: 1 << 30,
        controller,
    }
}

fn faulted_cfg(plan: FaultPlan) -> BmcastConfig {
    BmcastConfig {
        moderation: Moderation::full_speed(),
        faults: Some(plan),
        ..BmcastConfig::default()
    }
}

/// The local disk equals the server image outside the bitmap-persistence
/// region and outside `skip` (sectors a guest program overwrote).
fn assert_disk_matches_image(runner: &Runner, spec: &MachineSpec, skip: &[BlockRange]) {
    let m = runner.machine();
    let region = m.vmm.as_ref().unwrap().bitmap_region;
    for lba in (0..spec.image_sectors).step_by(97) {
        let lba = Lba(lba);
        if region.contains(lba) || skip.iter().any(|r| r.contains(lba)) {
            continue;
        }
        assert_eq!(
            m.hw.disk.store().read(lba),
            BlockStore::image_content(SEED, lba),
            "sector {lba} must match the image"
        );
    }
}

/// Deploys under `plan` and checks completion + image integrity.
fn deploy_under(controller: ControllerKind, plan: FaultPlan) -> Runner {
    let s = spec(controller);
    let mut runner = Runner::bmcast(&s, faulted_cfg(plan));
    let done = runner.run_to_bare_metal(SimTime::from_secs(3600));
    assert!(
        done.is_some(),
        "{controller:?}: deployment must survive the fault plan \
         (deploy_error: {:?})",
        runner.deploy_error()
    );
    assert_eq!(runner.machine().phase(), Phase::BareMetal);
    assert_disk_matches_image(&runner, &s, &[]);
    runner
}

/// Every fault class, one at a time: the deployment completes with a
/// correct image, and the injector proves the class actually fired.
#[test]
fn each_fault_class_is_survivable() {
    for preset in FaultPlan::PRESET_NAMES {
        let plan = FaultPlan::preset(preset, SEED).unwrap();
        let runner = deploy_under(ControllerKind::Ide, plan);
        let m = runner.machine();
        let c = m.fabric.as_ref().unwrap().fault_counters().unwrap();
        let observed = match *preset {
            "drop" => c.link_dropped,
            "duplicate" => c.link_duplicated,
            "reorder" => c.link_reordered,
            "corrupt" => c.link_corrupted,
            "stall" | "crash" => c.server_dropped,
            "slowdisk" => c.disk_slowed,
            "writeerr" => c.disk_write_faults,
            "chaos" => c.link_dropped + c.server_dropped,
            other => panic!("unmapped preset {other}"),
        };
        assert!(observed > 0, "{preset}: fault class never fired ({c:?})");
    }
}

/// Lossy classes force the client through its retransmission path, and
/// corruption is caught by the frame checksum, never by the payload.
#[test]
fn recovery_machinery_is_exercised() {
    let runner = deploy_under(ControllerKind::Ide, FaultPlan::drop(SEED));
    let vmm = runner.machine().vmm.as_ref().unwrap();
    assert!(vmm.client.retransmits() > 0, "drops force retransmission");

    let runner = deploy_under(ControllerKind::Ide, FaultPlan::corrupt(SEED));
    let m = runner.machine();
    let corrupted = m
        .fabric
        .as_ref()
        .unwrap()
        .fault_counters()
        .unwrap()
        .link_corrupted;
    let vmm = m.vmm.as_ref().unwrap();
    assert!(corrupted > 0, "corruption must fire");
    assert!(
        vmm.client.decode_errors() > 0,
        "checksum must reject corrupted frames"
    );
}

/// The crash preset cold-restarts the server exactly once and the
/// deployment rides across the outage.
#[test]
fn server_crash_restarts_once_and_deployment_survives() {
    let runner = deploy_under(ControllerKind::Ide, FaultPlan::crash(SEED));
    let m = runner.machine();
    assert_eq!(
        m.fabric.as_ref().unwrap().server().restarts(),
        1,
        "one crash window, one restart"
    );
    assert_eq!(
        m.fabric
            .as_ref()
            .unwrap()
            .fault_counters()
            .unwrap()
            .server_restarts,
        1
    );
}

/// The combined chaos plan on both wired mediators.
#[test]
fn chaos_plan_survivable_on_ide_and_ahci() {
    for controller in [ControllerKind::Ide, ControllerKind::Ahci] {
        deploy_under(controller, FaultPlan::chaos(SEED));
    }
}

/// The determinism lock: two independent instrumented runs from one seed
/// produce byte-identical traces, injector counters, final disk state,
/// and completion times.
#[test]
fn same_seed_replays_chaos_byte_identically() {
    let run = || {
        let s = spec(ControllerKind::Ide);
        let mut runner = Runner::bmcast_flight_recorded(
            &s,
            faulted_cfg(FaultPlan::chaos(SEED)),
            FlightRecorderConfig::default(),
        );
        let done = runner.run_to_bare_metal(SimTime::from_secs(3600));
        assert!(done.is_some(), "chaos deployment completes");
        runner
    };
    let a = run();
    let b = run();

    let trace = |r: &Runner| chrome_trace_json(&r.spans().finished(), &r.sampler().rows());
    assert_eq!(trace(&a), trace(&b), "span traces must be identical");

    let (ma, mb) = (a.machine(), b.machine());
    assert_eq!(
        ma.fabric.as_ref().unwrap().fault_counters().unwrap(),
        mb.fabric.as_ref().unwrap().fault_counters().unwrap(),
        "injector counters must be identical"
    );
    let (va, vb) = (ma.vmm.as_ref().unwrap(), mb.vmm.as_ref().unwrap());
    assert_eq!(va.bare_metal_at, vb.bare_metal_at);
    assert_eq!(va.client.retransmits(), vb.client.retransmits());
    assert_eq!(va.bitmap.filled_sectors(), vb.bitmap.filled_sectors());
    for lba in 0..spec(ControllerKind::Ide).capacity_sectors {
        assert_eq!(
            ma.hw.disk.store().read(Lba(lba)),
            mb.hw.disk.store().read(Lba(lba)),
            "disks diverge at sector {lba}"
        );
    }
}

/// A guest program that reads a scratch range every `pace` until
/// `deadline`, recording when each completion arrived.
struct ScratchReader {
    base: Lba,
    stride: u64,
    count: u64,
    next: u64,
    pace: SimDuration,
    deadline: SimTime,
    completions: Arc<Mutex<Vec<SimTime>>>,
}

impl GuestProgram for ScratchReader {
    fn name(&self) -> &str {
        "scratch-reader"
    }
    fn start(&mut self, ctl: &mut GuestCtl) {
        ctl.compute(self.pace, 0.0, 0);
    }
    fn on_io_complete(&mut self, _io: &CompletedIo, ctl: &mut GuestCtl) {
        self.completions.lock().unwrap().push(ctl.now());
    }
    fn on_timer(&mut self, _t: u64, ctl: &mut GuestCtl) {
        if ctl.now() >= self.deadline {
            ctl.finish();
            return;
        }
        let lba = self.base + (self.next % self.count) * self.stride;
        self.next += 1;
        ctl.submit(IoRequest::read(
            RequestId(self.next),
            BlockRange::new(lba, 8),
        ));
        ctl.compute(self.pace, 0.0, 0);
    }
}

/// §3.3 graceful degradation: while the storage server is stalled the
/// guest's reads of already-filled sectors keep completing locally — the
/// machine never wedges — and the deployment finishes once the server
/// returns.
#[test]
fn guest_reads_keep_completing_through_a_server_stall() {
    // Scratch beyond the image is born-filled, so its reads never need
    // the (stalled) server.
    let s = MachineSpec {
        capacity_sectors: 1 << 17,
        image_sectors: 1 << 16,
        ..spec(ControllerKind::Ide)
    };
    let stall = Window::new(SimTime::from_millis(200), SimTime::from_millis(1200));
    let mut plan = FaultPlan::quiet(SEED);
    plan.server.stall = Some(stall);
    let mut runner = Runner::bmcast(&s, faulted_cfg(plan));

    let completions = Arc::new(Mutex::new(Vec::new()));
    // Keep clear of the bitmap-persistence region at the start of the
    // scratch area.
    runner.start_program(Box::new(ScratchReader {
        base: Lba(s.image_sectors + 1024),
        stride: 64,
        count: 128,
        next: 0,
        pace: SimDuration::from_millis(5),
        deadline: SimTime::from_millis(1500),
        completions: completions.clone(),
    }));
    assert!(
        runner.run_to_finish(SimTime::from_secs(10)).is_some(),
        "reader must not wedge"
    );
    let during_stall = completions
        .lock()
        .unwrap()
        .iter()
        .filter(|t| stall.contains(**t))
        .count();
    assert!(
        during_stall > 50,
        "guest reads must keep completing inside the stall window \
         (got {during_stall})"
    );

    let done = runner.run_to_bare_metal(SimTime::from_secs(3600));
    assert!(done.is_some(), "deployment completes after the stall lifts");
    let m = runner.machine();
    let c = m.fabric.as_ref().unwrap().fault_counters().unwrap();
    assert!(c.server_dropped > 0, "the stall must have eaten frames");
    let vmm = m.vmm.as_ref().unwrap();
    assert!(
        vmm.client.retransmits() > 0,
        "recovery must come from retransmission"
    );
    assert_disk_matches_image(&runner, &s, &[]);
}

/// When the server never comes back, the deployment surfaces a
/// `DeployError` instead of spinning forever: `run_to_bare_metal`
/// returns promptly with the budget-exhausted error.
#[test]
fn permanent_outage_trips_the_retry_budget() {
    let s = spec(ControllerKind::Ide);
    let mut plan = FaultPlan::quiet(SEED);
    plan.server.stall = Some(Window::new(
        SimTime::from_millis(50),
        SimTime::from_secs(100_000),
    ));
    let cfg = BmcastConfig {
        deploy_failure_budget: 4,
        ..faulted_cfg(plan)
    };
    let mut runner = Runner::bmcast(&s, cfg);
    let done = runner.run_to_bare_metal(SimTime::from_secs(3600));
    assert!(done.is_none(), "deployment must not claim success");
    let err = runner
        .deploy_error()
        .expect("the retry budget must surface a DeployError");
    let DeployError::RetryBudgetExhausted { consecutive } = err;
    assert!(consecutive > 4, "budget of 4 exceeded, got {consecutive}");
    assert!(
        runner.now() < SimTime::from_secs(3600),
        "the failure must surface promptly, not by timeout"
    );
    // The failure is terminal and stable.
    let t = runner.now();
    runner.run_until(t + SimDuration::from_secs(5));
    assert_eq!(runner.deploy_error(), Some(err));
}

/// The background copier backs off exponentially while fetches fail and
/// resumes after the stall; backoff activity is visible in metrics.
#[test]
fn background_copier_backs_off_during_stall() {
    let s = spec(ControllerKind::Ide);
    let mut plan = FaultPlan::quiet(SEED);
    // The outage must outlast a request's whole retransmission chain
    // (~2.8 s with the 50 ms RTO doubling to its 500 ms cap) so fetches
    // actually *fail* — a shorter stall only causes retransmits.
    plan.server.stall = Some(Window::new(
        SimTime::from_millis(100),
        SimTime::from_millis(4000),
    ));
    let cfg = BmcastConfig {
        // Keep the run far from the terminal budget; this test is about
        // backing off and resuming, not giving up.
        deploy_failure_budget: 10_000,
        ..faulted_cfg(plan)
    };
    let mut runner = Runner::bmcast_flight_recorded(&s, cfg, FlightRecorderConfig::default());
    let done = runner.run_to_bare_metal(SimTime::from_secs(3600));
    assert!(done.is_some(), "deployment completes after the stall");
    let snap = runner.metrics_snapshot().unwrap();
    assert!(
        snap.counter("bg.fetch_backoffs") > 0,
        "the copier must have backed off during the outage"
    );
    let vmm = runner.machine().vmm.as_ref().unwrap();
    assert_eq!(
        vmm.bg.consecutive_failures(),
        0,
        "backoff state must reset once fetches succeed again"
    );
    // The recorder saw every fetch: one finished `bg.fetch` span per
    // fetch, one `bg.fetch_failed` instant per abandoned one, and no
    // span left open at bare metal.
    let spans = runner.spans();
    assert!(snap.counter("bg.fetch_failures") > 0, "fetches failed");
    assert_eq!(spans.dropped(), 0, "the ring kept every span");
    assert_eq!(spans.open_count(), 0, "spans left open at bare metal");
    assert_eq!(
        spans.finished_of("bg.fetch").len() as u64,
        snap.counter("bg.fetches")
    );
    assert_eq!(
        spans.finished_of("bg.fetch_failed").len() as u64,
        snap.counter("bg.fetch_failures")
    );
}

/// Protocol-level write-error recovery, driven directly through the AoE
/// endpoints: a write hitting the faulted window gets an error ack and
/// commits nothing; the client's retransmission after the window lands
/// the data intact.
#[test]
fn write_error_acks_then_retransmission_recovers() {
    const CAP: u64 = 1 << 12;
    let params = DiskParams {
        capacity_sectors: CAP,
        ..DiskParams::default()
    };
    let mut server = AoeServer::new(
        ServerConfig::default(),
        DiskModel::new(params, BlockStore::zeroed(CAP)),
    );
    let mut client = AoeClient::new(ClientConfig::default());

    // Fault window active: the write is refused with an error ack.
    server.disk_mut().set_fault_write_errors(true);
    let range = BlockRange::new(Lba(64), 8);
    let payload = vec![SectorData(0xD00D); 8];
    let (id, frames) = client.write(SimTime::ZERO, range, &payload, NO_SPAN);
    for f in &frames {
        let reply = server.handle(SimTime::ZERO, f).unwrap().unwrap();
        for rf in &reply.frames {
            assert!(
                client.on_frame(SimTime::ZERO, rf).is_none(),
                "an error ack must not complete the write"
            );
        }
    }
    assert_eq!(server.write_errors(), 1);
    assert_eq!(client.outstanding(), 1, "the write stays pending");
    for lba in range.iter() {
        assert_eq!(
            server.disk().store().read(lba),
            SectorData(0),
            "a faulted write must commit nothing"
        );
    }

    // Window passes; the retransmitted frames succeed.
    server.disk_mut().set_fault_write_errors(false);
    let due = client.next_retransmit_at().expect("a deadline is armed");
    let frames = client.poll_retransmit(due);
    assert!(!frames.is_empty(), "the write must retransmit");
    let mut completed = None;
    for f in &frames {
        let reply = server.handle(due, f).unwrap().unwrap();
        for rf in &reply.frames {
            if let Some(c) = client.on_frame(due, rf) {
                completed = Some(c);
            }
        }
    }
    assert_eq!(completed.expect("write completes").request_id, id);
    assert_eq!(client.outstanding(), 0);
    for lba in range.iter() {
        assert_eq!(server.disk().store().read(lba), SectorData(0xD00D));
    }
}

/// A guest program issuing paced distinct-valued writes, counting how
/// often each request id completes.
struct DistinctWriter {
    ranges: Vec<BlockRange>,
    next: usize,
    pace: SimDuration,
    completions: Arc<Mutex<BTreeMap<RequestId, u32>>>,
    order: Arc<Mutex<Vec<RequestId>>>,
}

impl DistinctWriter {
    fn value(i: usize) -> SectorData {
        SectorData(0x7000 + i as u64)
    }
}

impl GuestProgram for DistinctWriter {
    fn name(&self) -> &str {
        "distinct-writer"
    }
    fn start(&mut self, ctl: &mut GuestCtl) {
        ctl.compute(self.pace, 0.0, 0);
    }
    fn on_io_complete(&mut self, io: &CompletedIo, ctl: &mut GuestCtl) {
        *self.completions.lock().unwrap().entry(io.id).or_insert(0) += 1;
        self.order.lock().unwrap().push(io.id);
        if self.next == self.ranges.len()
            && self.completions.lock().unwrap().len() == self.ranges.len()
        {
            ctl.finish();
        }
    }
    fn on_timer(&mut self, _t: u64, ctl: &mut GuestCtl) {
        if let Some(&r) = self.ranges.get(self.next) {
            let data = vec![Self::value(self.next); r.sectors as usize];
            ctl.submit(IoRequest::write(RequestId(self.next as u64), r, data));
            self.next += 1;
            ctl.compute(self.pace, 0.0, 0);
        }
    }
}

/// Mediator multiplexing state machine under injected slow-disk latency:
/// guest writes queued while VMM-inserted background requests occupy the
/// (slow) controller are never lost, reordered, or double-completed, and
/// every write's data survives the racing background copy.
#[test]
fn multiplexing_under_slow_disk_never_loses_or_duplicates_guest_io() {
    for controller in [ControllerKind::Ide, ControllerKind::Ahci] {
        let s = MachineSpec {
            capacity_sectors: 1 << 15,
            image_sectors: 1 << 15,
            ..spec(controller)
        };
        // 8× server disk + local disk slowdown keeps background requests
        // on the controller longer, forcing the queue-behind-multiplex
        // path constantly.
        let mut plan = FaultPlan::quiet(SEED);
        plan.disk.latency_factor = 8.0;
        let mut runner = Runner::bmcast(&s, faulted_cfg(plan));

        let ranges: Vec<BlockRange> = (0..64)
            .map(|i| BlockRange::new(Lba(199 * i + 32), 8))
            .collect();
        let completions = Arc::new(Mutex::new(BTreeMap::new()));
        let order = Arc::new(Mutex::new(Vec::new()));
        runner.start_program(Box::new(DistinctWriter {
            ranges: ranges.clone(),
            next: 0,
            pace: SimDuration::from_millis(2),
            completions: completions.clone(),
            order: order.clone(),
        }));
        assert!(
            runner.run_to_finish(SimTime::from_secs(60)).is_some(),
            "{controller:?}: all writes must complete"
        );
        let done = runner.run_to_bare_metal(SimTime::from_secs(3600));
        assert!(done.is_some(), "{controller:?}: deployment completes");

        // Never lost, never double-completed.
        let completions = completions.lock().unwrap();
        assert_eq!(completions.len(), ranges.len(), "{controller:?}: lost io");
        for (id, count) in completions.iter() {
            assert_eq!(*count, 1, "{controller:?}: {id} completed {count} times");
        }
        // Never reordered: paced single-queue writes complete in
        // submission order.
        let order = order.lock().unwrap();
        assert!(
            order.windows(2).all(|w| w[0] < w[1]),
            "{controller:?}: completions out of order: {order:?}"
        );
        // Guest data beat the racing background copy on every sector.
        let m = runner.machine();
        for (i, r) in ranges.iter().enumerate() {
            for lba in r.iter() {
                assert_eq!(
                    m.hw.disk.store().read(lba),
                    DistinctWriter::value(i),
                    "{controller:?}: guest write {i} lost at {lba}"
                );
            }
        }
        assert!(
            m.fabric
                .as_ref()
                .unwrap()
                .fault_counters()
                .unwrap()
                .disk_slowed
                > 0,
            "{controller:?}: the slow-disk fault must have fired"
        );
        assert_disk_matches_image(&runner, &s, &ranges);
    }
}
