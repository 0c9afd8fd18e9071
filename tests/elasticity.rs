//! Elasticity lifecycle integration tests: the reverse of deployment.
//!
//! A bare-metal tenant is re-virtualized, its dirty blocks are streamed
//! back to the AoE server (snapshot-back), the machine is reclaimed, and
//! a new tenant's image is deployed — the M2 ("Malleable Metal as a
//! Service") lifecycle on top of the paper's forward path. The pivotal
//! invariant, checked byte-for-byte for every mediator flavor: after
//! snapshot-back completes, the server-side image equals the guest's
//! final disk.

use bmcast_repro::aoe::{AoeClient, AoeServer, ClientConfig, ServerConfig};
use bmcast_repro::bmcast::bitmap::BlockBitmap;
use bmcast_repro::bmcast::config::{BmcastConfig, ControllerKind, Moderation};
use bmcast_repro::bmcast::devirt::Phase;
use bmcast_repro::bmcast::machine::{
    reclaim, start_deployment, start_program, start_revirt, GuestCtl, GuestProgram, Machine,
    MachineSim, MachineSpec,
};
use bmcast_repro::bmcast::mediator::{MegasasMediator, MegasasVerdict};
use bmcast_repro::bmcast::snapback::{DirtyTracker, ReclaimError, SnapshotBack};
use bmcast_repro::guestsim::io::{CompletedIo, IoRequest, RequestId};
use bmcast_repro::hwsim::block::{BlockRange, BlockStore, Lba, SectorData};
use bmcast_repro::hwsim::disk::{DiskModel, DiskParams};
use bmcast_repro::hwsim::megasas::{reg, Megasas, MegasasAction, MfiFrame, MfiOp, MfiStatus};
use bmcast_repro::hwsim::mem::{DmaBuffer, PhysMem};
use bmcast_repro::simkit::{SimDuration, SimTime, NO_SPAN};

const OLD_SEED: u64 = 0xE1A5_0001;
const NEW_SEED: u64 = 0xE1A5_0002;
/// Image prefix; the capacity is twice that so the persisted-bitmap
/// region lives outside the range the byte-for-byte comparison covers.
const IMAGE: u64 = 1 << 12;
const CAPACITY: u64 = 1 << 13;

fn spec(controller: ControllerKind, seed: u64) -> MachineSpec {
    MachineSpec {
        capacity_sectors: CAPACITY,
        image_sectors: IMAGE,
        image_seed: seed,
        cpus: 2,
        mem_bytes: 1 << 30,
        controller,
    }
}

fn deploy_to_bare_metal(controller: ControllerKind) -> (Machine, MachineSim) {
    let mut m = Machine::bmcast(
        &spec(controller, OLD_SEED),
        BmcastConfig {
            moderation: Moderation::full_speed(),
            ..BmcastConfig::default()
        },
    );
    let mut sim = MachineSim::new();
    start_deployment(&mut m, &mut sim);
    sim.run_until(&mut m, SimTime::from_secs(120));
    assert_eq!(m.phase(), Phase::BareMetal, "{controller:?}: deploys");
    (m, sim)
}

/// A guest program issuing a fixed list of writes, one at a time.
struct WriteBurst {
    writes: Vec<(BlockRange, SectorData)>,
    next: usize,
}

impl WriteBurst {
    fn new(writes: Vec<(BlockRange, SectorData)>) -> WriteBurst {
        WriteBurst { writes, next: 0 }
    }
}

impl GuestProgram for WriteBurst {
    fn name(&self) -> &str {
        "write-burst"
    }
    fn start(&mut self, ctl: &mut GuestCtl) {
        let (range, pat) = self.writes[0];
        ctl.submit(IoRequest::write(
            RequestId(0),
            range,
            vec![pat; range.sectors as usize],
        ));
    }
    fn on_io_complete(&mut self, _io: &CompletedIo, ctl: &mut GuestCtl) {
        self.next += 1;
        match self.writes.get(self.next) {
            Some(&(range, pat)) => ctl.submit(IoRequest::write(
                RequestId(self.next as u64),
                range,
                vec![pat; range.sectors as usize],
            )),
            None => ctl.finish(),
        }
    }
    fn on_timer(&mut self, _t: u64, _ctl: &mut GuestCtl) {}
}

/// Overlapping, unaligned, and image-boundary-straddling writes: the
/// tracked diff must be the union, and later patterns win on overlap.
fn dirty_writes() -> Vec<(BlockRange, SectorData)> {
    vec![
        (BlockRange::new(Lba(100), 24), SectorData(0xAAAA)),
        (BlockRange::new(Lba(110), 8), SectorData(0xBBBB)), // overlaps the first
        (BlockRange::new(Lba(501), 3), SectorData(0xCCCC)), // odd start, odd span
        (BlockRange::new(Lba(IMAGE - 6), 12), SectorData(0xDDDD)), // straddles the image end
    ]
}

/// Deploy → dirty the disk → re-virtualize → snapshot-back, then compare
/// the server image against the guest's final disk over the whole image
/// prefix, byte for byte.
#[test]
fn lifecycle_round_trip_restores_server_image() {
    for controller in [ControllerKind::Ide, ControllerKind::Ahci] {
        let (mut m, mut sim) = deploy_to_bare_metal(controller);
        m.set_program(Box::new(WriteBurst::new(dirty_writes())));
        start_program(&mut m, &mut sim);
        let ok = sim.run_while(&mut m, |m| !m.guest.finished);
        assert!(
            ok,
            "{controller:?}: guest stalled after {} completed ios",
            m.guest.ios_completed
        );

        start_revirt(&mut m, &mut sim);
        assert!(
            sim.run_while(&mut m, |m| !m.snapshot_complete()),
            "{controller:?}: snapshot-back must converge"
        );
        let vmm = m.vmm.as_ref().unwrap();
        assert!(vmm.dirty.is_clean(), "{controller:?}");
        // Union of the dirty writes, clipped at the image end: 33 sectors.
        assert!(
            vmm.snap.as_ref().unwrap().sectors_sent() >= 33,
            "{controller:?}"
        );

        let server = m.fabric.as_ref().unwrap().server();
        for lba in 0..IMAGE {
            assert_eq!(
                server.disk().store().read(Lba(lba)),
                m.hw.disk.store().read(Lba(lba)),
                "{controller:?}: server and guest disk diverge at sector {lba}"
            );
        }
        // Spot-check that the comparison is not vacuous: overwritten
        // sectors hold the last writer, untouched ones the golden image.
        assert_eq!(server.disk().store().read(Lba(112)), SectorData(0xBBBB));
        assert_eq!(server.disk().store().read(Lba(105)), SectorData(0xAAAA));
        assert_eq!(
            server.disk().store().read(Lba(99)),
            BlockStore::image_content(OLD_SEED, Lba(99))
        );
    }
}

/// FNV-1a 64 over every sector fingerprint of the local disk.
fn disk_digest(m: &Machine) -> u64 {
    let store = m.hw.disk.store();
    (0..store.capacity_sectors())
        .flat_map(|lba| store.read(Lba(lba)).0.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

/// The full elasticity loop: after snapshot-back, reclaim the machine for
/// a new tenant image and deploy it; the old tenant's bytes are gone and
/// the new image lands everywhere. Returns the snapshot-done and
/// redeployed bare-metal ticks, the executed event count, the mediator's
/// multiplex count and the local-disk digest.
fn reclaim_then_redeploy(controller: ControllerKind) -> (u64, u64, u64, u64, u64) {
    let (mut m, mut sim) = deploy_to_bare_metal(controller);
    m.set_program(Box::new(WriteBurst::new(dirty_writes())));
    start_program(&mut m, &mut sim);
    assert!(
        sim.run_while(&mut m, |m| !m.guest.finished),
        "{controller:?}"
    );

    // Reclaiming a bare-metal machine (no snapshot) must fail cleanly.
    let new_spec = spec(controller, NEW_SEED);
    match reclaim(&mut m, &mut sim, &new_spec) {
        Err(ReclaimError::SnapshotIncomplete { .. }) => {}
        other => panic!("{controller:?}: expected SnapshotIncomplete, got {other:?}"),
    }

    start_revirt(&mut m, &mut sim);
    assert!(
        sim.run_while(&mut m, |m| !m.snapshot_complete()),
        "{controller:?}"
    );
    let snapshot_done = m.vmm.as_ref().unwrap().snapshot_done_at.unwrap();

    // The provisioner swaps the server volume for the new tenant's image.
    *m.fabric.as_mut().unwrap().server_mut() = AoeServer::new(
        ServerConfig::default(),
        DiskModel::new(
            DiskParams {
                capacity_sectors: IMAGE,
                ..DiskParams::default()
            },
            BlockStore::image(IMAGE, NEW_SEED),
        ),
    );
    reclaim(&mut m, &mut sim, &new_spec).expect("snapshot done; reclaim succeeds");
    assert_eq!(m.phase(), Phase::Initialization, "{controller:?}");
    assert_eq!(
        m.hw.disk.store().read(Lba(112)),
        SectorData(0),
        "{controller:?}: old tenant's data must not survive reclaim"
    );

    start_deployment(&mut m, &mut sim);
    sim.run_until(&mut m, sim.now() + SimDuration::from_secs(120));
    assert_eq!(m.phase(), Phase::BareMetal, "{controller:?}");
    for lba in (0..IMAGE).step_by(7) {
        assert_eq!(
            m.hw.disk.store().read(Lba(lba)),
            BlockStore::image_content(NEW_SEED, Lba(lba)),
            "{controller:?}: new image at sector {lba}"
        );
    }
    let vmm = m.vmm.as_ref().unwrap();
    (
        snapshot_done.as_nanos(),
        vmm.bare_metal_at.unwrap().as_nanos(),
        sim.executed_events(),
        vmm.port.mediation().stats().multiplexes,
        disk_digest(&m),
    )
}

/// Snapshot done and redeployed bare metal (ns), executed events,
/// multiplexes and disk digest of [`reclaim_then_redeploy`]. IDE and
/// AHCI share the disk model and the one-write-at-a-time guest, so both
/// controllers land on the same tuple. The event count covers the
/// machine's own fabric too: a served request costs one arrival, one
/// reply-ready event and one delivery per frame. Timer ticks that do
/// nothing are not events: the retransmit guard's last tick, which
/// finds nothing outstanding, is skipped.
const RECLAIM_PIN: (u64, u64, u64, u64, u64) = (
    110_361_390,
    152_250_223,
    1_022,
    2,
    1_929_633_563_737_760_430,
);

#[test]
fn reclaim_then_redeploy_lands_the_new_tenant() {
    for controller in [ControllerKind::Ide, ControllerKind::Ahci] {
        assert_eq!(
            reclaim_then_redeploy(controller),
            RECLAIM_PIN,
            "{controller:?}"
        );
    }
}

// ---------------------- MegaRAID SAS mediator rig ----------------------
//
// The Machine wires IDE and AHCI; the MegaSAS mediator (§4.3's "similar
// straightforward interfaces" claim) is exercised by driving the mediator
// + controller + AoE client/server rig through the same lifecycle by
// hand: copy-on-read deployment, guest dirty writes, snapshot-back with a
// failed send, and the byte-for-byte server == disk comparison.

struct MegasasRig {
    ctl: Megasas,
    med: MegasasMediator,
    mem: PhysMem,
    disk: DiskModel,
    bitmap: BlockBitmap,
    tracker: DirtyTracker,
    client: AoeClient,
    server: AoeServer,
}

impl MegasasRig {
    fn new() -> MegasasRig {
        MegasasRig {
            ctl: Megasas::new(),
            med: MegasasMediator::new(None),
            mem: PhysMem::new(1 << 30),
            disk: DiskModel::new(
                DiskParams {
                    capacity_sectors: CAPACITY,
                    ..DiskParams::default()
                },
                BlockStore::zeroed(CAPACITY),
            ),
            // Covers the whole disk, like the machine's: the mediator
            // marks writes wherever they land; only the image prefix is
            // deployed and snapshotted.
            bitmap: BlockBitmap::new(CAPACITY),
            tracker: DirtyTracker::new(IMAGE),
            client: AoeClient::new(ClientConfig::default()),
            server: AoeServer::new(
                ServerConfig::default(),
                DiskModel::new(
                    DiskParams {
                        capacity_sectors: IMAGE,
                        ..DiskParams::default()
                    },
                    BlockStore::image(IMAGE, OLD_SEED),
                ),
            ),
        }
    }

    /// One AoE round trip: send the request frames, serve each, feed the
    /// replies back, and return the completion.
    fn round_trip(
        &mut self,
        frames: Vec<bmcast_repro::aoe::FrameBytes>,
    ) -> bmcast_repro::aoe::Completion {
        let now = SimTime::ZERO;
        let mut completion = None;
        for f in &frames {
            if let Some(reply) = self.server.handle(now, f).expect("decodable frame") {
                for rf in &reply.frames {
                    if let Some(done) = self.client.on_frame(now, rf) {
                        assert!(completion.is_none(), "one completion per request");
                        completion = Some(done);
                    }
                }
            }
        }
        completion.expect("request must complete")
    }

    /// Fetches `range` from the server and lands it on the local disk
    /// (the retriever + writer collapsed to their effect).
    fn fetch_and_fill(&mut self, range: BlockRange) -> Vec<SectorData> {
        let (_, frames) = self.client.read(SimTime::ZERO, range, NO_SPAN);
        let done = self.round_trip(frames);
        assert_eq!(done.range, range);
        for (i, lba) in range.iter().enumerate() {
            self.disk.store_mut().write(lba, done.data[i]);
        }
        self.bitmap.mark_filled(range);
        done.data
    }

    /// A guest MFI write through the mediated controller: interpretation
    /// marks the bitmap, the machine layer records the dirty range, the
    /// device lands the bytes.
    fn guest_write(&mut self, range: BlockRange, pattern: SectorData) {
        let buffer = self.mem.alloc(DmaBuffer {
            sectors: vec![pattern; range.sectors as usize],
        });
        let frame = self.mem.alloc(MfiFrame {
            op: MfiOp::LdWrite,
            range,
            buffer,
            status: MfiStatus::Pending,
        });
        let v = self
            .med
            .on_guest_write(reg::IQP, frame.0, &self.mem, &mut self.bitmap);
        assert_eq!(v, MegasasVerdict::Forward, "writes pass through");
        self.tracker.record(range);
        assert_eq!(
            self.ctl.mmio_write(reg::IQP, frame.0),
            Some(MegasasAction::FramePosted(frame))
        );
        self.ctl.start_next().unwrap();
        self.ctl.complete_active(&mut self.mem, &mut self.disk);
        let popped = self.ctl.mmio_read(reg::OQP);
        assert_eq!(
            self.med.filter_oqp_pop(popped),
            frame.0,
            "guest sees its own completion"
        );
        assert_eq!(
            self.mem.get::<MfiFrame>(frame).unwrap().status,
            MfiStatus::Ok
        );
    }
}

#[test]
fn lifecycle_round_trip_via_megasas_mediator() {
    let mut rig = MegasasRig::new();

    // --- Deployment: one copy-on-read redirect through the mediator ---
    let cor = BlockRange::new(Lba(500), 8);
    let gbuf = rig.mem.alloc(DmaBuffer::new(cor.sectors as usize));
    let gframe = rig.mem.alloc(MfiFrame {
        op: MfiOp::LdRead,
        range: cor,
        buffer: gbuf,
        status: MfiStatus::Pending,
    });
    let v = rig
        .med
        .on_guest_write(reg::IQP, gframe.0, &rig.mem, &mut rig.bitmap);
    let MegasasVerdict::StartRedirect(r) = v else {
        panic!("empty read must redirect, got {v:?}");
    };
    assert_eq!(r.range, cor);
    // The VMM fetches from the server, fills the local disk *and* the
    // guest's buffer, then restarts the device with the dummy read.
    let data = rig.fetch_and_fill(r.range);
    rig.mem.get_mut::<DmaBuffer>(r.buffer).unwrap().sectors = data.clone();
    let dummy = rig.mem.alloc(DmaBuffer::new(1));
    MegasasMediator::rewrite_for_dummy(&mut rig.mem, gframe, dummy);
    rig.med.finish_redirect();
    rig.ctl.mmio_write(reg::IQP, gframe.0);
    rig.ctl.start_next().unwrap();
    rig.ctl.complete_active(&mut rig.mem, &mut rig.disk);
    assert!(rig.ctl.irq_pending(), "the device raises the completion");
    rig.ctl.mmio_read(reg::OQP); // guest pops its own frame
    assert_eq!(
        rig.mem.get::<DmaBuffer>(gbuf).unwrap().sectors,
        data,
        "copy-on-read returns the server's bytes"
    );

    // --- Background copy finishes the rest of the image ---
    let mut lba = 0u64;
    while lba < IMAGE {
        let chunk = BlockRange::new(Lba(lba), 256.min((IMAGE - lba) as u32));
        if rig.bitmap.any_empty(chunk) {
            for run in rig.bitmap.empty_subranges(chunk) {
                rig.fetch_and_fill(run);
            }
        }
        lba += 256;
    }
    assert!(
        rig.bitmap.all_filled(BlockRange::new(Lba(0), IMAGE as u32)),
        "deployment filled the image"
    );

    // --- The tenant dirties the disk through the mediated device ---
    for (range, pattern) in dirty_writes() {
        rig.guest_write(range, pattern);
    }
    let dirty_total = rig.tracker.dirty_sectors();
    assert_eq!(dirty_total, 24 + 3 + 6, "union of the writes, clipped");

    // --- Snapshot-back: stream dirty runs, one send failing en route ---
    let mut snap = SnapshotBack::new(64, 2);
    let mut failed_once = false;
    while !snap.complete(&rig.tracker) {
        let run = snap
            .next_send(SimTime::ZERO, &mut rig.tracker)
            .expect("dirty blocks remain, pipeline empty");
        if !failed_once {
            // First send exhausts its wire retries: re-marked, re-sent.
            failed_once = true;
            snap.send_failed(SimTime::ZERO, run, &mut rig.tracker);
            continue;
        }
        let payload: Vec<SectorData> = run.iter().map(|l| rig.disk.store().read(l)).collect();
        let (_, frames) = rig.client.write(SimTime::ZERO, run, &payload, NO_SPAN);
        let done = rig.round_trip(frames);
        snap.ack(SimTime::ZERO, done.range);
    }
    assert_eq!(snap.send_failures(), 1);
    assert!(snap.sectors_sent() >= dirty_total);
    assert!(rig.tracker.is_clean());

    // --- The pivotal invariant, byte for byte over the image ---
    for lba in 0..IMAGE {
        assert_eq!(
            rig.server.disk().store().read(Lba(lba)),
            rig.disk.store().read(Lba(lba)),
            "server and guest disk diverge at sector {lba}"
        );
    }
    let stats = rig.med.mediation.stats();
    assert!(stats.interpreted_commands >= 5, "mediator saw the traffic");
    assert_eq!(stats.redirects, 1, "exactly the copy-on-read redirect");
}
