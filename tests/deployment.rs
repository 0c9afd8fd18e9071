//! End-to-end integration tests: full BMcast deployments across crates.
//!
//! These exercise the whole stack — guest driver → VM exits → device
//! mediator → controller → disk, plus AoE over the switch to the server —
//! and check the system-level invariants the paper claims.

use bmcast_repro::bmcast::config::{BmcastConfig, ControllerKind, Moderation};
use bmcast_repro::bmcast::deploy::Runner;
use bmcast_repro::bmcast::devirt::Phase;
use bmcast_repro::bmcast::machine::{GuestCtl, GuestProgram, MachineSpec};
use bmcast_repro::bmcast::programs::{BootProgram, StreamProgram};
use bmcast_repro::guestsim::io::{CompletedIo, IoRequest, RequestId};
use bmcast_repro::guestsim::os::BootProfile;
use bmcast_repro::hwsim::block::{BlockRange, BlockStore, Lba, SectorData};
use bmcast_repro::simkit::fault::FaultPlan;
use bmcast_repro::simkit::{SimDuration, SimTime};

const SEED: u64 = 0xFEED_0001;

fn small_spec(controller: ControllerKind) -> MachineSpec {
    MachineSpec {
        capacity_sectors: 1 << 14,
        image_sectors: 1 << 14,
        image_seed: SEED,
        cpus: 4,
        mem_bytes: 1 << 30,
        controller,
    }
}

fn full_speed_cfg() -> BmcastConfig {
    BmcastConfig {
        moderation: Moderation::full_speed(),
        ..BmcastConfig::default()
    }
}

/// After deployment, the local disk equals the server image everywhere
/// outside the carved-out bitmap-persistence region.
fn assert_disk_matches_image(runner: &Runner, spec: &MachineSpec) {
    let m = runner.machine();
    let region = m.vmm.as_ref().unwrap().bitmap_region;
    for lba in (0..spec.image_sectors).step_by(97) {
        let lba = Lba(lba);
        if region.contains(lba) {
            continue;
        }
        assert_eq!(
            m.hw.disk.store().read(lba),
            BlockStore::image_content(SEED, lba),
            "sector {lba} must match the image"
        );
    }
}

#[test]
fn full_deployment_via_ide_mediator() {
    let spec = small_spec(ControllerKind::Ide);
    let mut runner = Runner::bmcast(&spec, full_speed_cfg());
    let done = runner.run_to_bare_metal(SimTime::from_secs(600));
    assert!(done.is_some(), "deployment must complete");
    assert_eq!(runner.machine().phase(), Phase::BareMetal);
    assert_disk_matches_image(&runner, &spec);
}

#[test]
fn full_deployment_via_ahci_mediator() {
    let spec = small_spec(ControllerKind::Ahci);
    let mut runner = Runner::bmcast(&spec, full_speed_cfg());
    let done = runner.run_to_bare_metal(SimTime::from_secs(600));
    assert!(done.is_some(), "deployment must complete");
    assert_eq!(runner.machine().phase(), Phase::BareMetal);
    assert_disk_matches_image(&runner, &spec);
}

/// A guest program that reads ranges and records what it saw.
struct ReadChecker {
    reads: Vec<BlockRange>,
    next: usize,
    pub seen: Vec<(BlockRange, Vec<SectorData>)>,
}

impl ReadChecker {
    fn new(reads: Vec<BlockRange>) -> ReadChecker {
        ReadChecker {
            reads,
            next: 0,
            seen: Vec::new(),
        }
    }
}

impl GuestProgram for ReadChecker {
    fn name(&self) -> &str {
        "read-checker"
    }
    fn start(&mut self, ctl: &mut GuestCtl) {
        let r = self.reads[0];
        ctl.submit(IoRequest::read(RequestId(0), r));
    }
    fn on_io_complete(&mut self, io: &CompletedIo, ctl: &mut GuestCtl) {
        self.seen.push((io.range, io.data.clone()));
        self.next += 1;
        match self.reads.get(self.next) {
            Some(&r) => ctl.submit(IoRequest::read(RequestId(self.next as u64), r)),
            None => ctl.finish(),
        }
    }
    fn on_timer(&mut self, _t: u64, _ctl: &mut GuestCtl) {}
}

#[test]
fn copy_on_read_returns_exactly_the_servers_bytes() {
    for controller in [ControllerKind::Ide, ControllerKind::Ahci] {
        let spec = small_spec(controller);
        // Quiet background copy: every read must be served by redirection.
        let cfg = BmcastConfig {
            moderation: Moderation {
                vmm_write_interval: SimDuration::from_secs(3600),
                vmm_write_suspend_interval: SimDuration::from_secs(3600),
                ..Moderation::default()
            },
            ..BmcastConfig::default()
        };
        let mut runner = Runner::bmcast(&spec, cfg);
        let reads = vec![
            BlockRange::new(Lba(0), 8),
            BlockRange::new(Lba(5_000), 64),
            BlockRange::new(Lba(12_345), 3),
            BlockRange::new(Lba(5_000), 64), // repeat: now filled locally
        ];
        runner.start_program(Box::new(ReadChecker::new(reads.clone())));
        assert!(
            runner.run_to_finish(SimTime::from_secs(300)).is_some(),
            "{controller:?}: reads must finish"
        );
        // Fills are write-behind: give the writer a moment to flush them.
        let t = runner.now();
        runner.run_until(t + SimDuration::from_secs(2));
        assert!(
            runner.machine().stats.redirected_ios >= 3,
            "{controller:?}: first-touch reads redirect"
        );
        // Verify the data via the local disk (the guest's DMA buffers were
        // freed, but the copy-on-read fill must land the same bytes).
        let m = runner.machine();
        for r in &reads {
            for lba in r.iter() {
                assert_eq!(
                    m.hw.disk.store().read(lba),
                    BlockStore::image_content(SEED, lba),
                    "{controller:?}: copy-on-read fill at {lba}"
                );
            }
        }
    }
}

#[test]
fn guest_writes_always_win_over_background_copy() {
    for controller in [ControllerKind::Ide, ControllerKind::Ahci] {
        let spec = small_spec(controller);
        let mut runner = Runner::bmcast(&spec, full_speed_cfg());
        // Hammer writes over a region while the copy races.
        runner.start_program(Box::new(StreamProgram::sequential(
            BlockRange::new(Lba(2_000), 4_096),
            true,
            128,
            SimTime::from_millis(1_500),
            9,
        )));
        runner.run_until(SimTime::from_secs(2));
        let done = runner.run_to_bare_metal(SimTime::from_secs(600));
        assert!(done.is_some(), "{controller:?}: deployment completes");
        let m = runner.machine();
        // Every sector the guest wrote still holds the guest's data.
        let written = m.guest.bytes_completed / 512;
        assert!(written > 0);
        let mut guest_sectors = 0u64;
        for lba in 2_000..(2_000 + 4_096u64) {
            if m.hw.disk.store().read(Lba(lba)) == SectorData(0x5EA1) {
                guest_sectors += 1;
            }
        }
        assert!(
            guest_sectors >= written.min(4_096),
            "{controller:?}: guest data survived on {guest_sectors} sectors (wrote {written})"
        );
    }
}

#[test]
fn deployment_completes_under_frame_loss() {
    let spec = small_spec(ControllerKind::Ide);
    let mut plan = FaultPlan::quiet(0x5EED);
    plan.link.drop_rate = 0.02; // 2% of frames vanish, each direction
    let cfg = BmcastConfig {
        moderation: Moderation::full_speed(),
        faults: Some(plan),
        ..BmcastConfig::default()
    };
    let mut runner = Runner::bmcast(&spec, cfg);
    let done = runner.run_to_bare_metal(SimTime::from_secs(1_800));
    assert!(done.is_some(), "retransmission must carry the deployment");
    let vmm = runner.machine().vmm.as_ref().unwrap();
    assert!(
        vmm.client.retransmits() > 0,
        "loss must actually have been exercised"
    );
    assert_disk_matches_image(&runner, &spec);
}

#[test]
fn bitmap_is_persisted_before_vmxoff() {
    let spec = small_spec(ControllerKind::Ide);
    let mut runner = Runner::bmcast(&spec, full_speed_cfg());
    runner.run_to_bare_metal(SimTime::from_secs(600)).unwrap();
    let m = runner.machine();
    let vmm = m.vmm.as_ref().unwrap();
    assert!(
        vmm.bitmap
            .matches_saved(m.hw.disk.store(), vmm.bitmap_region),
        "the persisted bitmap must match the final in-memory bitmap"
    );
}

#[test]
fn phases_progress_in_order() {
    let spec = small_spec(ControllerKind::Ide);
    let mut runner = Runner::bmcast(&spec, full_speed_cfg());
    let mut observed = vec![runner.machine().phase()];
    for step in 1..600 {
        runner.run_until(SimTime::from_millis(step * 100));
        let p = runner.machine().phase();
        if *observed.last().unwrap() != p {
            observed.push(p);
        }
        if p == Phase::BareMetal {
            break;
        }
    }
    assert_eq!(
        observed,
        vec![Phase::Deployment, Phase::BareMetal],
        "coarse sampling sees deployment then bare metal (devirt is \
         microseconds long); never a regression"
    );
}

#[test]
fn boot_then_deploy_then_native_io() {
    // The full §3.1 lifecycle on one machine: boot under copy-on-read,
    // finish deployment, then run I/O with zero exits.
    let spec = MachineSpec {
        capacity_sectors: 1 << 15,
        image_sectors: 1 << 15,
        image_seed: SEED,
        cpus: 2,
        mem_bytes: 1 << 30,
        controller: ControllerKind::Ide,
    };
    let mut runner = Runner::bmcast(&spec, BmcastConfig::default());
    runner.start_program(Box::new(BootProgram::new(BootProfile::tiny(3))));
    let booted = runner.run_to_finish(SimTime::from_secs(600));
    assert!(booted.is_some(), "boot finishes during deployment");
    let done = runner.run_to_bare_metal(SimTime::from_secs(1_800));
    assert!(done.is_some(), "deployment completes after boot");
    let exits_before: u64 = runner
        .machine()
        .hw
        .cpus
        .iter()
        .map(|c| c.total_exits())
        .sum();
    runner.start_program(Box::new(StreamProgram::sequential(
        BlockRange::new(Lba(100), 2_048),
        false,
        64,
        runner.now() + SimDuration::from_millis(300),
        4,
    )));
    runner.run_until(runner.now() + SimDuration::from_secs(2));
    let exits_after: u64 = runner
        .machine()
        .hw
        .cpus
        .iter()
        .map(|c| c.total_exits())
        .sum();
    assert_eq!(exits_before, exits_after, "bare-metal I/O causes no exits");
    assert!(runner.machine().guest.ios_completed > 0);
}

#[test]
fn resident_vmm_hides_management_nic_with_zero_exits() {
    use bmcast_repro::bmcast::machine::MGMT_NIC_BDF;
    let spec = small_spec(ControllerKind::Ide);
    let cfg = BmcastConfig {
        moderation: Moderation::full_speed(),
        vmxoff_after_deploy: false, // §6: stay resident, hide the NIC
        ..BmcastConfig::default()
    };
    let mut runner = Runner::bmcast(&spec, cfg);
    runner
        .run_to_bare_metal(SimTime::from_secs(600))
        .expect("deployment completes");
    let m = runner.machine();
    // VMX stays on, but nothing traps: EPT off, no ranges armed.
    for cpu in &m.hw.cpus {
        assert!(cpu.vmx_on(), "resident VMM keeps VMX root");
        assert!(!cpu.ept_on(), "nested paging is gone");
        assert!(!cpu.exits_on_pio(0x1F0), "no storage traps remain");
    }
    // The management NIC is invisible to guest enumeration.
    assert!(m.hw.pci.is_hidden(MGMT_NIC_BDF));
    assert_eq!(
        m.hw.pci.config_read_id(MGMT_NIC_BDF),
        bmcast_repro::hwsim::pci::NO_DEVICE
    );
    // Other devices still enumerate.
    assert!(m.hw.pci.enumerate().count() >= 3);
}

#[test]
fn vmxoff_mode_leaves_nic_visible() {
    use bmcast_repro::bmcast::machine::MGMT_NIC_BDF;
    let spec = small_spec(ControllerKind::Ide);
    let mut runner = Runner::bmcast(&spec, full_speed_cfg());
    runner
        .run_to_bare_metal(SimTime::from_secs(600))
        .expect("deployment completes");
    let m = runner.machine();
    // After VMXOFF the paper notes the NIC "can be found" by the guest.
    assert!(!m.hw.pci.is_hidden(MGMT_NIC_BDF));
    assert!(!m.hw.cpus[0].vmx_on());
}

#[test]
fn deployment_resumes_after_reboot() {
    use bmcast_repro::bmcast::machine::{shutdown_for_reboot, Machine};
    let spec = MachineSpec {
        capacity_sectors: 1 << 16,
        image_sectors: 1 << 16,
        ..small_spec(ControllerKind::Ide)
    };
    let cfg = full_speed_cfg();

    // Deploy partway, then power off.
    let mut runner = Runner::bmcast(&spec, cfg.clone());
    runner.run_until(SimTime::from_millis(300));
    let before = {
        let vmm = runner.machine().vmm.as_ref().unwrap();
        assert!(!vmm.bitmap.is_complete(), "should be mid-deployment");
        vmm.bitmap.filled_sectors()
    };
    assert!(before > 0, "some progress before the reboot");
    let state = shutdown_for_reboot(runner.into_machine());

    // Reboot: reconstruct from the persisted state and finish.
    let resumed = Machine::bmcast_resumed(&spec, cfg, state);
    let mut runner = Runner::from_machine(resumed);
    let done = runner.run_to_bare_metal(SimTime::from_secs(600));
    assert!(done.is_some(), "resumed deployment completes");
    let vmm = runner.machine().vmm.as_ref().unwrap();
    assert!(
        vmm.bitmap.filled_sectors() >= before,
        "no progress was lost"
    );
    assert_disk_matches_image(&runner, &spec);
    // The resumed run did not refetch what was already on disk: it
    // fetched at most the remainder.
    let remainder = (spec.image_sectors - before) * 512;
    assert!(
        vmm.bg.bytes_fetched() <= remainder + (64 << 20),
        "refetched too much: {} for a remainder of {}",
        vmm.bg.bytes_fetched(),
        remainder
    );
}

/// The §3.3 consistency rule generalizes to the third mediator (§4.3):
/// guest LdWrites posted through the MegaRAID MFI queue while background
/// blocks are in flight always win — the VMM's multiplexed writes are
/// clipped around them, including the unaligned head/tail case. The
/// `Machine` only wires IDE/AHCI, so this drives the megasas rig
/// (controller + mediator + background copy) directly.
#[test]
fn megasas_guest_writes_always_win_over_background_copy() {
    use bmcast_repro::bmcast::background::{BackgroundCopy, FetchedBlock};
    use bmcast_repro::bmcast::bitmap::BlockBitmap;
    use bmcast_repro::bmcast::mediator::megasas::{MegasasMediator, MegasasVerdict};
    use bmcast_repro::hwsim::block::BlockStore;
    use bmcast_repro::hwsim::disk::{DiskModel, DiskParams};
    use bmcast_repro::hwsim::megasas::{reg, Megasas, MfiFrame, MfiOp, MfiStatus};
    use bmcast_repro::hwsim::mem::{DmaBuffer, PhysMem};

    const CAP: u64 = 1 << 16;
    let params = DiskParams {
        capacity_sectors: CAP,
        ..DiskParams::default()
    };
    let mut disk = DiskModel::new(params, BlockStore::zeroed_with_mirror(CAP, 0xE5));
    let mut ctl = Megasas::new();
    let mut med = MegasasMediator::new(None);
    let mut mem = PhysMem::new(1 << 30);
    let mut bitmap = BlockBitmap::new(CAP);
    let mut bg = BackgroundCopy::new(64, 8, 4, CAP);
    let server = BlockStore::image(CAP, SEED);

    // Four copy blocks go on the wire: [0,64) .. [192,256).
    let fetches: Vec<BlockRange> = (0..4)
        .map(|_| bg.next_fetch(SimTime::ZERO, &bitmap).unwrap())
        .collect();
    assert_eq!(fetches[3], BlockRange::new(Lba(192), 64));

    // While they are in flight, the guest posts an unaligned 70-sector
    // write at LBA 100 (straddles [64,128) and [128,192), aligned to
    // neither edge). The mediator marks the bitmap and forwards.
    let guest_data = SectorData(0x5EA1);
    let buffer = mem.alloc(DmaBuffer {
        sectors: vec![guest_data; 70],
    });
    let frame = mem.alloc(MfiFrame {
        op: MfiOp::LdWrite,
        range: BlockRange::new(Lba(100), 70),
        buffer,
        status: MfiStatus::Pending,
    });
    assert_eq!(
        med.on_guest_write(reg::IQP, frame.0, &mem, &mut bitmap),
        MegasasVerdict::Forward
    );
    assert!(bitmap.all_filled(BlockRange::new(Lba(100), 70)));
    ctl.mmio_write(reg::IQP, frame.0);
    ctl.start_next().unwrap();
    ctl.complete_active(&mut mem, &mut disk);
    let popped = ctl.mmio_read(reg::OQP);
    assert_eq!(
        med.filter_oqp_pop(popped),
        frame.0,
        "guest sees its own completion"
    );

    // The stale fetches land afterwards; the writer multiplexes the
    // surviving pieces onto the disk through the controller.
    for r in &fetches {
        bg.deliver(
            SimTime::ZERO,
            FetchedBlock {
                data: server.read_range(*r).into(),
                range: *r,
            },
        );
    }
    while let Some(pieces) = bg.pop_for_write(&mut bitmap) {
        for piece in pieces {
            assert!(med.can_multiplex(ctl.is_busy()));
            let vmm_buf = mem.alloc(DmaBuffer {
                sectors: piece.data.to_vec(),
            });
            let vmm_frame = mem.alloc(MfiFrame {
                op: MfiOp::LdWrite,
                range: piece.range,
                buffer: vmm_buf,
                status: MfiStatus::Pending,
            });
            med.begin_multiplex(vmm_frame);
            ctl.mmio_write(reg::IQP, vmm_frame.0);
            ctl.start_next().unwrap();
            ctl.complete_active(&mut mem, &mut disk);
            let popped = ctl.mmio_read(reg::OQP);
            assert_eq!(med.filter_oqp_pop(popped), 0, "hidden from the guest");
            assert!(med.finish_multiplex().is_empty());
        }
    }

    // Every guest-written sector still holds the guest's data; the
    // clipped head and tail hold the server's.
    for lba in 100..170u64 {
        assert_eq!(
            disk.store().read(Lba(lba)),
            guest_data,
            "guest sector {lba}"
        );
    }
    for lba in (64..100u64).chain(170..256) {
        assert_eq!(
            disk.store().read(Lba(lba)),
            BlockStore::image_content(SEED, Lba(lba)),
            "background sector {lba}"
        );
    }
}

/// FNV-1a 64 over every sector fingerprint of the local disk.
fn disk_digest(runner: &Runner) -> u64 {
    let store = runner.machine().hw.disk.store();
    (0..store.capacity_sectors())
        .flat_map(|lba| store.read(Lba(lba)).0.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

/// A tiny paced deploy whose guest keeps the controller busy with
/// back-to-back reads in the image's second half for 400 ms: reads
/// ahead of the copy are redirected, and the background writer keeps
/// waiting for an idle window (thousands of 50 µs polls). Returns the guest-finish, deployment-done and
/// bare-metal ticks, the mediator's multiplex count and the disk
/// digest.
fn busy_guest_deploy(controller: ControllerKind) -> (u64, u64, u64, u64, u64) {
    let spec = small_spec(controller);
    let mut runner = Runner::bmcast(&spec, BmcastConfig::default());
    runner.start_program(Box::new(StreamProgram::sequential(
        BlockRange::new(Lba(8_192), 4_096),
        false,
        64,
        SimTime::from_millis(400),
        11,
    )));
    let finished = runner
        .run_to_finish(SimTime::from_secs(60))
        .expect("guest finishes");
    let bare = runner
        .run_to_bare_metal(SimTime::from_secs(600))
        .expect("deployment completes");
    let vmm = runner.machine().vmm.as_ref().unwrap();
    (
        finished.as_nanos(),
        vmm.deployment_done_at.unwrap().as_nanos(),
        bare.as_nanos(),
        vmm.port.mediation().stats().multiplexes,
        disk_digest(&runner),
    )
}

/// Guest finish, deployment done and bare metal (ns), multiplexes and
/// disk digest of [`busy_guest_deploy`]. IDE and AHCI share the disk
/// model and the one-request-at-a-time guest, so both controllers land
/// on the same ticks; each still runs its own writer gate.
const BUSY_GUEST_PIN: (u64, u64, u64, u64, u64) = (
    400_592_533,
    617_788_217,
    617_826_217,
    52,
    17_385_852_379_886_786_368,
);

#[test]
fn busy_ide_guest_deploy_matches_its_pin() {
    assert_eq!(busy_guest_deploy(ControllerKind::Ide), BUSY_GUEST_PIN);
}

#[test]
fn busy_ahci_guest_deploy_matches_its_pin() {
    assert_eq!(busy_guest_deploy(ControllerKind::Ahci), BUSY_GUEST_PIN);
}
