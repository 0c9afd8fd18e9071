//! The simulated machine: guest, VMM, hardware, and fabric wired together
//! under one deterministic event loop.
//!
//! This is where BMcast's structure becomes executable:
//!
//! - Guest drivers perform PIO/MMIO through the mediated machine bus. If the CPU's
//!   VT-x trap configuration says an access exits, the access is charged
//!   an exit cost and routed through the device mediator; otherwise it
//!   reaches the controller directly. After VMXOFF the trap check is
//!   false, so the *same code path* becomes bare metal — de-virtualization
//!   is structural, not simulated with an `if`.
//! - Copy-on-read (§3.2): a held guest read fans out into AoE fetches for
//!   empty sectors and local reads for filled ones; the VMM plays virtual
//!   DMA controller into the guest's buffers and restarts the device with
//!   a dummy command so the device raises the completion interrupt.
//! - Background copy (§3.3): retriever/writer event chains around the
//!   bounded FIFO, moderated by guest I/O frequency, multiplexing writes
//!   onto the disk behind the guest's back.
//! - De-virtualization (§3.4): when the bitmap fills and the device is
//!   quiescent, each CPU disables nested paging and executes VMXOFF.

use crate::background::{BackgroundCopy, FetchedBlock};
use crate::bitmap::BlockBitmap;
use crate::config::{BmcastConfig, ControllerKind};
use crate::devirt::{DevirtSequencer, Phase};
use crate::fabric::{image_server, Fabric, FabricEvent, SERVER_MAC, VMM_MAC};
use crate::mediator::{
    AhciMediator, AhciRedirect, IdeMediator, IdeRedirect, Mediation, MmioVerdict, PioVerdict,
};
use crate::netdrv::PolledNic;
use crate::snapback::{DirtyTracker, ReclaimError, SnapshotBack};
use aoe::{AoeClient, ClientConfig, FrameBytes, ServerConfig};
use guestsim::bus::GuestBus;
use guestsim::driver::{ahci::AhciDriver, ide::IdeDriver, BlockDriver};
use guestsim::io::{CompletedIo, IoRequest, RequestId};
use hwsim::ahci::{
    preg, AhciAction, AhciCmdHeader, AhciCmdList, AhciCmdTable, AhciController, H2dFis, ABAR,
    PORT_BASE,
};
use hwsim::block::{BlockRange, BlockStore, Lba, SectorBuf, SectorData};
use hwsim::disk::{DiskModel, DiskOp, DiskParams};
use hwsim::eth::Frame;
use hwsim::ide::{AtaOp, IdeAction, IdeCommandBlock, IdeController, IdeReg, PrdEntry, PrdTable};
use hwsim::mem::{DmaBuffer, PhysAddr, PhysMem};
use hwsim::pci::{Bdf, PciBus, PciClass, PciDevice};
use hwsim::vtx::{ExitReason, VtxCpu};
use simkit::{
    Histogram, Metrics, Rearms, Sampler, Sim, SimDuration, SimTime, SpanId, Spans, Tick, Timer,
    Tracer, NO_SPAN,
};
use std::collections::{HashMap, VecDeque};
use std::iter;

/// The simulator specialized to this world.
pub type MachineSim = Sim<Machine>;

/// Memory reserved for the VMM (128 MB in the prototype).
const VMM_MEMORY_BYTES: u64 = 128 << 20;
/// Polling granularity: the mediator detects device/network completion
/// on its next poll, so completions see on average half this much added
/// latency. Driven by the VMX preemption timer.
const POLL_INTERVAL: SimDuration = SimDuration::from_micros(400);
/// Extra per-redirect latency of the prototype's completion polling
/// during copy-on-read: §4.1's poll scheduling is driven by *estimated*
/// round-trip and I/O latencies, and a conservative or cold estimator
/// overshoots. Calibrated so the §5.1 boot (72 MB over ~900 reads) lands
/// near the measured 58 s. Does not affect pass-through I/O (Figures
/// 10/11's Deploy bars involve no redirects).
const REDIRECT_POLL_PENALTY: SimDuration = SimDuration::from_micros(6_300);
/// FIFO capacity (blocks) between the retriever and writer threads.
const FIFO_CAPACITY: usize = 16;
/// Extra IRQ-delivery latency while the VMM stays resident after
/// deployment (§4.3: VMX remains on, EPT and traps are disabled, but
/// external interrupts still transit the thin resident shim). Only
/// applied when `vmxoff_after_deploy` is false and the machine has
/// reached the bare-metal phase. Calibrated so Figure 10's Devirt row
/// (fio 1 MB direct I/O, ~8.6 ms per request) loses ≈1.7% versus bare
/// metal, matching the paper's measurement.
const RESIDENT_IRQ_DELAY: SimDuration = SimDuration::from_micros(150);

/// Hardware owned by one machine.
#[derive(Debug)]
pub struct Hardware {
    /// Physical memory.
    pub mem: PhysMem,
    /// The local disk.
    pub disk: DiskModel,
    /// IDE controller.
    pub ide: IdeController,
    /// AHCI HBA.
    pub ahci: AhciController,
    /// Logical CPUs with VT-x state.
    pub cpus: Vec<VtxCpu>,
    /// PCI configuration space (device enumeration + hiding).
    pub pci: PciBus,
}

/// PCI address of the VMM's dedicated management NIC.
pub const MGMT_NIC_BDF: Bdf = Bdf {
    bus: 0,
    device: 4,
    function: 0,
};

fn standard_pci_bus() -> PciBus {
    let mut pci = PciBus::new();
    pci.insert(
        Bdf {
            bus: 0,
            device: 1,
            function: 0,
        },
        PciDevice {
            vendor: 0x8086,
            device: 0x7010,
            class: PciClass::StorageIde,
            bar0: None,
        },
    );
    pci.insert(
        Bdf {
            bus: 0,
            device: 2,
            function: 0,
        },
        PciDevice {
            vendor: 0x8086,
            device: 0x2922,
            class: PciClass::StorageAhci,
            bar0: Some((ABAR, hwsim::ahci::ABAR_SIZE)),
        },
    );
    pci.insert(
        Bdf {
            bus: 0,
            device: 3,
            function: 0,
        },
        PciDevice {
            vendor: 0x15B3,
            device: 0x673C,
            class: PciClass::Infiniband,
            bar0: None,
        },
    );
    pci.insert(
        MGMT_NIC_BDF,
        PciDevice {
            vendor: 0x8086,
            device: 0x10D3,
            class: PciClass::Network,
            bar0: None,
        },
    );
    pci
}

/// Arms the mediator's VT-x trap set on a CPU in VMX root: the IDE
/// taskfile ports, the AHCI register window, and the preemption timer
/// that drives the VMM's polling. Used at first boot and again at
/// re-virtualization, so both arm exactly the same set.
fn arm_vmm_traps(cpu: &mut VtxCpu) {
    for reg in IdeReg::ALL {
        cpu.trap_pio_range(reg.port(), reg.port());
    }
    cpu.trap_mmio_range(ABAR, ABAR + hwsim::ahci::ABAR_SIZE - 1);
    cpu.set_preemption_timer(Some(POLL_INTERVAL));
}

/// Who asked for a disk command — decides what happens at completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    /// Pass-through guest command: completion interrupts the guest.
    Guest,
    /// The dummy restart of a redirected guest read: interrupts the guest.
    RedirectRestart,
    /// A multiplexed VMM write: completion is polled, never interrupts.
    VmmWrite,
}

/// One of the two [`crate::stream::BlockStream`]s: the background copy's retriever,
/// reading image blocks, or snapshot-back's sender, writing dirty runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StreamKind {
    Background,
    Snapshot,
}

/// Whom an outstanding AoE request serves: the in-flight redirect's
/// copy-on-read, its round trips nested under the given span, or a block
/// stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Requester {
    Redirect(SpanId),
    Stream(StreamKind),
}

/// An outstanding AoE request: whom it serves, and the *member* claims
/// it covers — one for the plain transport, possibly several for a
/// batched/RDMA request — in LBA order, tiling the request's payload
/// exactly, so completions split back into per-claim deliveries.
#[derive(Debug, Clone, PartialEq, Eq)]
struct AoeWaiter(Requester, Vec<BlockRange>);

/// Splits one completed request's payload back into per-member views
/// of one shared buffer, each clamped at the data's end: the payload is
/// copied once, into the buffer, however many members it carries.
fn split_by_members(members: &[BlockRange], data: Vec<SectorData>) -> Vec<(BlockRange, SectorBuf)> {
    let data = SectorBuf::from(data);
    let mut offset = 0usize;
    members
        .iter()
        .map(|m| {
            let end = (offset + m.sectors as usize).min(data.len());
            let piece = data.slice(offset, end.saturating_sub(offset));
            offset += m.sectors as usize;
            (*m, piece)
        })
        .collect()
}

/// An in-flight I/O redirection.
#[derive(Debug)]
struct RedirectInFlight {
    /// IDE command or AHCI slot being served.
    target: RedirectTarget,
    /// Pieces (AoE + local reads) still outstanding.
    outstanding: usize,
    /// Collected data, keyed by subrange.
    collected: Vec<(BlockRange, SectorBuf)>,
    /// Subranges fetched from the server (to be written locally after),
    /// sharing their data with `collected`.
    fetched: Vec<(BlockRange, SectorBuf)>,
    /// Set once the completion-polling penalty has been scheduled.
    finalizing: bool,
    /// Parent `io.redirect` flight-recorder span.
    span: SpanId,
    /// Currently open child span (`redirect.fetch`, then
    /// `redirect.finalize`); children are contiguous so their durations
    /// sum to the parent's.
    child: SpanId,
}

/// The guest command the mediator held for redirection.
#[derive(Debug, Clone, Copy)]
enum RedirectTarget {
    Ide(IdeRedirect),
    Ahci(AhciRedirect),
}

/// A command slot on the machine's storage controllers: the IDE
/// taskfile, or an AHCI port-0 slot.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Ide,
    Ahci(u8),
}

/// A guest register write the mediator queued while it held the device.
#[derive(Debug, Clone, Copy)]
enum GuestWrite {
    Pio(u16, u32),
    Mmio(u64, u64),
}

/// The AHCI slot the VMM multiplexes its writes through.
const VMM_AHCI_SLOT: u8 = 31;

/// The VMM's storage port: the device mediator of the machine's one
/// storage controller (§3.2). The mediators interpret; the port holds
/// the rest of the controller-specific glue — how a redirect restarts
/// the device, how a VMM write is injected, when the writer may go, and
/// which guest accesses replay afterwards.
#[derive(Debug)]
pub enum StoragePort {
    /// IDE, mediated at the PIO taskfile.
    Ide(IdeMediator),
    /// AHCI port 0, mediated at MMIO and the in-memory command list.
    Ahci(AhciMediator),
}

impl StoragePort {
    fn new(controller: ControllerKind, protected: BlockRange) -> StoragePort {
        match controller {
            ControllerKind::Ide => StoragePort::Ide(IdeMediator::new(Some(protected))),
            ControllerKind::Ahci => StoragePort::Ahci(AhciMediator::new(Some(protected))),
        }
    }

    /// The controller's mediation core: its mode and statistics.
    pub fn mediation(&self) -> &Mediation {
        match self {
            StoragePort::Ide(med) => &med.mediation,
            StoragePort::Ahci(med) => &med.mediation,
        }
    }

    fn mediation_mut(&mut self) -> &mut Mediation {
        match self {
            StoragePort::Ide(med) => &mut med.mediation,
            StoragePort::Ahci(med) => &mut med.mediation,
        }
    }

    /// The writer's idle gate: the device is idle from the guest's point
    /// of view.
    fn can_multiplex(&self, hw: &Hardware) -> bool {
        match self {
            StoragePort::Ide(med) => med.can_multiplex() && !hw.ide.is_busy(),
            StoragePort::Ahci(med) => med.can_multiplex(hw.ahci.is_busy(0)),
        }
    }

    fn begin_multiplex(&mut self, now: SimTime) {
        self.mediation_mut().note_now(now);
        match self {
            StoragePort::Ide(med) => med.begin_multiplex(),
            StoragePort::Ahci(med) => med.begin_multiplex(VMM_AHCI_SLOT),
        }
    }

    /// Arms a VMM write of `range` from the buffers of the PRD table
    /// `prd` and returns its slot. AHCI builds the slot in the guest's
    /// command list, or in the VMM's own (`vmm_clb`) while the guest
    /// driver has not initialized the port.
    fn inject_write(
        &self,
        hw: &mut Hardware,
        vmm_clb: &mut Option<PhysAddr>,
        range: BlockRange,
        prd: PhysAddr,
    ) -> Slot {
        let med = match self {
            StoragePort::Ide(_) => {
                hw.ide.inject_command(IdeCommandBlock {
                    op: AtaOp::WriteDma,
                    range,
                    prd: Some(prd),
                });
                return Slot::Ide;
            }
            StoragePort::Ahci(med) => med,
        };
        let clb = med.clb().or(*vmm_clb).unwrap_or_else(|| {
            let clb = hw.mem.alloc(AhciCmdList::new());
            hw.ahci.mmio_write(PORT_BASE + preg::CLB, clb.0);
            *vmm_clb = Some(clb);
            clb
        });
        let prdt = hw.mem.get::<PrdTable>(prd).cloned();
        let ctba = hw.mem.alloc(AhciCmdTable {
            cfis: H2dFis {
                op: AtaOp::WriteDma,
                range,
            },
            prdt: prdt.expect("VMM PRD vanished"),
        });
        let list = hw
            .mem
            .get_mut::<AhciCmdList>(clb)
            .expect("command list vanished");
        list.slots[VMM_AHCI_SLOT as usize] = Some(AhciCmdHeader { ctba, write: true });
        hw.ahci.mmio_write(PORT_BASE + preg::CI, 1 << VMM_AHCI_SLOT);
        Slot::Ahci(VMM_AHCI_SLOT)
    }

    /// Ends the VMM write; returns the guest accesses queued meanwhile.
    fn finish_multiplex(
        &mut self,
        now: SimTime,
        mem: &mut PhysMem,
        vmm_clb: Option<PhysAddr>,
    ) -> Vec<GuestWrite> {
        self.mediation_mut().note_now(now);
        let med = match self {
            StoragePort::Ide(med) => return pio_replay(med.finish_multiplex()),
            StoragePort::Ahci(med) => med,
        };
        let queued_ci = med.finish_multiplex();
        let mut writes: Vec<GuestWrite> = med
            .take_queued_mmio()
            .into_iter()
            .map(|(offset, val)| GuestWrite::Mmio(ABAR + offset, val))
            .collect();
        // Clear the VMM's slot header in whichever list carried it.
        if let Some(list) = med
            .clb()
            .or(vmm_clb)
            .and_then(|clb| mem.get_mut::<AhciCmdList>(clb))
        {
            list.slots[VMM_AHCI_SLOT as usize] = None;
        }
        if queued_ci != 0 {
            writes.push(GuestWrite::Mmio(
                ABAR + PORT_BASE + preg::CI,
                queued_ci.into(),
            ));
        }
        writes
    }

    /// Releases a redirected command whose data went in by virtual DMA
    /// and arms the dummy restart, so the device itself raises the
    /// completion interrupt. Returns the slot to start and the guest
    /// accesses queued meanwhile.
    fn restart_redirect(
        &mut self,
        now: SimTime,
        hw: &mut Hardware,
        target: RedirectTarget,
        (dummy_buf, dummy_prd): (PhysAddr, PhysAddr),
    ) -> (Slot, Vec<GuestWrite>) {
        self.mediation_mut().note_now(now);
        match (self, target) {
            (StoragePort::Ide(med), RedirectTarget::Ide(_)) => {
                let queued = med.finish_redirect();
                hw.ide.inject_command(IdeMediator::dummy_restart(dummy_prd));
                (Slot::Ide, pio_replay(queued))
            }
            (StoragePort::Ahci(med), RedirectTarget::Ahci(AhciRedirect { slot, table, .. })) => {
                AhciMediator::rewrite_for_dummy(&mut hw.mem, table, dummy_buf);
                med.release_held(slot);
                // Issue the guest's own slot: the device raises the interrupt.
                if let Some(AhciAction::SlotsIssued { slots, .. }) =
                    hw.ahci.mmio_write(PORT_BASE + preg::CI, 1 << slot)
                {
                    debug_assert_eq!(slots, 1 << slot);
                }
                (Slot::Ahci(slot), Vec::new())
            }
            _ => unreachable!("redirect target from the other controller"),
        }
    }
}

fn pio_replay(queued: Vec<(IdeReg, u32)>) -> Vec<GuestWrite> {
    queued
        .into_iter()
        .map(|(reg, val)| GuestWrite::Pio(reg.port(), val))
        .collect()
}

/// An in-flight multiplexed write sequence.
#[derive(Debug)]
struct MultiplexInFlight {
    pieces: Vec<FetchedBlock>,
    next: usize,
    buf: Option<PhysAddr>,
    prd: Option<PhysAddr>,
}

/// The BMcast VMM instance on this machine.
#[derive(Debug)]
pub struct Vmm {
    /// Configuration.
    pub cfg: BmcastConfig,
    /// The storage controller's mediator.
    pub port: StoragePort,
    /// Filled/empty bitmap.
    pub bitmap: BlockBitmap,
    /// Background-copy machinery.
    pub bg: BackgroundCopy,
    /// AoE client endpoint.
    pub client: AoeClient,
    /// Dedicated-NIC driver.
    pub nic: PolledNic,
    /// De-virtualization sequencer.
    pub devirt: DevirtSequencer,
    /// Guest writes that diverged the local disk from the golden image,
    /// recorded across every phase so snapshot-back knows what to stream.
    pub dirty: DirtyTracker,
    /// Snapshot-back sender, armed once re-virtualization completes.
    pub snap: Option<SnapshotBack>,
    /// Lifecycle phase.
    pub phase: Phase,
    /// On-disk region holding the persisted bitmap.
    pub bitmap_region: BlockRange,
    /// CPU time consumed by VMM threads (deployment accounting).
    pub cpu_time: SimDuration,
    redirect: Option<RedirectInFlight>,
    multiplex: Option<MultiplexInFlight>,
    aoe_waiters: HashMap<u32, AoeWaiter>,
    dummy_buf: PhysAddr,
    dummy_prd: PhysAddr,
    /// The VMM's own AHCI command list, used for multiplexing before the
    /// guest driver has pointed `PxCLB` anywhere (the VMM controls an
    /// uninitialized device with its own structures).
    vmm_clb: Option<PhysAddr>,
    writer_idle: bool,
    /// Earliest time the moderation allows the next background write.
    writer_next_allowed: SimTime,
    /// RDMA completion queue: reply bursts placed by one-sided READs
    /// land here, not in the NIC RX ring. The HCA writes payloads
    /// straight into registered memory, so arrivals never contend with
    /// Ethernet frames for ring slots and a burst larger than the ring
    /// cannot overflow — InfiniBand is lossless and flow-controlled,
    /// so the queue is unbounded by design.
    rdma_cq: VecDeque<FrameBytes>,
    /// Consecutive AoE request failures (each one a full client retry
    /// budget) since the last successful completion.
    consecutive_failures: u32,
    /// Terminal deployment failure, set when the failure budget trips.
    deploy_error: Option<DeployError>,
    /// Terminal snapshot-back failure, set when the failure budget trips
    /// during reclaim; the machine fails the reclaim cleanly.
    reclaim_error: Option<ReclaimError>,
    devirt_requested: bool,
    /// Set when the deployment phase started.
    pub deployment_start_at: Option<SimTime>,
    /// Set when deployment finished, for reporting.
    pub deployment_done_at: Option<SimTime>,
    /// Set when de-virtualization finished.
    pub bare_metal_at: Option<SimTime>,
    /// Set when re-virtualization started (the reverse lifecycle).
    pub revirt_start_at: Option<SimTime>,
    /// Set when every CPU was back under the VMM and the snapshot-back
    /// stream started.
    pub snapshot_start_at: Option<SimTime>,
    /// Set when the snapshot-back finished: every dirty block is durable
    /// on the server and the machine may be reclaimed.
    pub snapshot_done_at: Option<SimTime>,
    /// Open `io.redirect` parent span of the in-flight dummy restart.
    redirect_span: SpanId,
    /// Open `redirect.restart` child span of the in-flight dummy restart.
    restart_span: SpanId,
}

/// A deployment failure the VMM surfaces instead of wedging (§graceful
/// degradation): the guest keeps running on copy-on-read for as long as
/// possible, but once the server is unreachable past the failure budget
/// the deployment reports this instead of retrying forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeployError {
    /// Too many consecutive AoE requests exhausted their full client
    /// retry budget without a single server reply.
    RetryBudgetExhausted {
        /// Consecutive failed requests when the budget tripped.
        consecutive: u32,
    },
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployError::RetryBudgetExhausted { consecutive } => write!(
                f,
                "deployment retry budget exhausted: \
                 {consecutive} consecutive AoE request failures"
            ),
        }
    }
}

impl std::error::Error for DeployError {}

impl Vmm {
    /// Fresh per-tenant VMM state for `spec`: bitmap and its persisted
    /// region, storage port, background copy, transport-configured AoE
    /// client, devirt sequencer, dirty tracker, a newly initialized NIC
    /// driver, and every lifecycle field cleared. `dummy_buf`/`dummy_prd`
    /// are the restart DMA target the machine allocated for the VMM.
    fn new(spec: &MachineSpec, cfg: BmcastConfig, dummy_buf: PhysAddr, dummy_prd: PhysAddr) -> Vmm {
        // Deployment tracks the image prefix; the rest of the disk is
        // guest scratch space, born "filled" (it has no server content).
        let (capacity, image) = (spec.capacity_sectors, spec.image_sectors);
        let mut bitmap = BlockBitmap::new(capacity);
        if image < capacity {
            bitmap.mark_filled(BlockRange::new(Lba(image), (capacity - image) as u32));
        }
        // Persisted-bitmap home: unused space just past the image when the
        // disk is larger; otherwise carve out the disk's tail and exclude
        // it from deployment (the paper uses "unallocated space between
        // two partitions").
        let persisted = bitmap.persisted_sectors();
        let bitmap_region = if capacity >= image + u64::from(persisted) {
            BlockRange::new(Lba(image), persisted)
        } else {
            let region = BlockRange::new(Lba(capacity - u64::from(persisted)), persisted);
            bitmap.mark_filled(region);
            region
        };
        let mut client = AoeClient::new(ClientConfig {
            mtu: cfg.mtu,
            rto: SimDuration::from_millis(50),
            ..ClientConfig::default()
        });
        cfg.transport.configure_client(&mut client);
        Vmm {
            port: StoragePort::new(spec.controller, bitmap_region),
            bitmap,
            bg: BackgroundCopy::new(
                cfg.copy_block_sectors,
                FIFO_CAPACITY,
                cfg.retriever_depth,
                spec.capacity_sectors,
            ),
            client,
            nic: PolledNic::new(cfg.nic, VMM_MAC),
            devirt: DevirtSequencer::new(spec.cpus),
            dirty: DirtyTracker::new(spec.image_sectors),
            snap: None,
            phase: Phase::Initialization,
            bitmap_region,
            cpu_time: SimDuration::ZERO,
            redirect: None,
            multiplex: None,
            aoe_waiters: HashMap::new(),
            dummy_buf,
            dummy_prd,
            vmm_clb: None,
            rdma_cq: VecDeque::new(),
            writer_idle: true,
            writer_next_allowed: SimTime::ZERO,
            consecutive_failures: 0,
            deploy_error: None,
            reclaim_error: None,
            devirt_requested: false,
            deployment_start_at: None,
            deployment_done_at: None,
            bare_metal_at: None,
            revirt_start_at: None,
            snapshot_start_at: None,
            snapshot_done_at: None,
            redirect_span: NO_SPAN,
            restart_span: NO_SPAN,
            cfg,
        }
    }

    /// Whether the VMM still interposes on anything.
    pub fn is_active(&self) -> bool {
        self.phase != Phase::BareMetal
    }

    /// Terminal deployment failure, if the retry budget tripped.
    pub fn deploy_error(&self) -> Option<DeployError> {
        self.deploy_error
    }

    /// Terminal snapshot-back failure, if the retry budget tripped
    /// during reclaim.
    pub fn reclaim_error(&self) -> Option<ReclaimError> {
        self.reclaim_error
    }

    /// Whether the background writer chain is idle (diagnostics).
    pub fn writer_idle(&self) -> bool {
        self.writer_idle
    }

    /// The moderation deadline for the next background write
    /// (diagnostics).
    pub fn writer_next_allowed(&self) -> SimTime {
        self.writer_next_allowed
    }
}

/// Actions a [`GuestProgram`] requests through [`GuestCtl`].
#[derive(Debug)]
enum GuestAction {
    Submit(IoRequest),
    Timer {
        delay: SimDuration,
        token: u64,
        tlb_share: f64,
    },
    Finish,
}

/// Control surface handed to guest programs.
#[derive(Debug)]
pub struct GuestCtl<'a> {
    now: SimTime,
    actions: &'a mut Vec<GuestAction>,
}

impl GuestCtl<'_> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Submits a block-I/O request to the guest driver.
    pub fn submit(&mut self, req: IoRequest) {
        self.actions.push(GuestAction::Submit(req));
    }

    /// Computes for `delay` of native CPU time (stretched by the
    /// platform's current memory slowdown for a workload with this
    /// TLB-miss share), then receives `on_timer(token)`.
    pub fn compute(&mut self, delay: SimDuration, tlb_share: f64, token: u64) {
        self.actions.push(GuestAction::Timer {
            delay,
            token,
            tlb_share,
        });
    }

    /// Declares the program finished.
    pub fn finish(&mut self) {
        self.actions.push(GuestAction::Finish);
    }
}

/// A workload/OS scenario driving the guest.
///
/// `Send` so machines (which own their program) can move between
/// threads; programs are plain state machines, so the bound costs
/// implementations nothing.
pub trait GuestProgram: Send {
    /// Display name.
    fn name(&self) -> &str;

    /// Called once at guest start.
    fn start(&mut self, ctl: &mut GuestCtl);

    /// Called when a block I/O the program submitted completes.
    fn on_io_complete(&mut self, io: &CompletedIo, ctl: &mut GuestCtl);

    /// Called when a [`GuestCtl::compute`] burst ends.
    fn on_timer(&mut self, token: u64, ctl: &mut GuestCtl);
}

/// Guest driver selection.
#[derive(Debug)]
pub enum GuestDriver {
    /// IDE path.
    Ide(IdeDriver),
    /// AHCI path.
    Ahci(AhciDriver),
}

/// The guest side: driver, program, and I/O accounting.
pub struct Guest {
    /// The block driver in use.
    pub driver: GuestDriver,
    program: Option<Box<dyn GuestProgram>>,
    actions: Vec<GuestAction>,
    pending_io: HashMap<RequestId, SimTime>,
    /// Completed-I/O latency in seconds.
    pub io_latency: Histogram,
    /// Completed guest I/Os.
    pub ios_completed: u64,
    /// Bytes moved by completed guest I/Os.
    pub bytes_completed: u64,
    /// Whether the program called [`GuestCtl::finish`].
    pub finished: bool,
}

impl std::fmt::Debug for Guest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Guest")
            .field("driver", &self.driver)
            .field("pending_io", &self.pending_io.len())
            .field("finished", &self.finished)
            .finish()
    }
}

/// Whole-run counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct MachineStats {
    /// Guest I/Os redirected to the server.
    pub redirected_ios: u64,
    /// Bytes fetched from the server by copy-on-read (redirects only,
    /// excluding background copy).
    pub redirected_bytes: u64,
    /// Guest I/Os served straight from the local disk.
    pub local_ios: u64,
    /// Frames the VMM transmitted.
    pub frames_tx: u64,
    /// Frames the VMM received.
    pub frames_rx: u64,
}

/// The complete simulated machine.
#[derive(Debug)]
pub struct Machine {
    /// Hardware.
    pub hw: Hardware,
    /// The VMM, when this machine runs BMcast.
    pub vmm: Option<Vmm>,
    /// The guest.
    pub guest: Guest,
    /// The machine's own management fabric (server and fault injector),
    /// when it runs standalone; a fleet member uses the fleet's.
    pub fabric: Option<Fabric>,
    /// Counters.
    pub stats: MachineStats,
    /// Shared metrics handle (disabled unless telemetry is attached).
    pub metrics: Metrics,
    /// Shared flight-recorder span handle (disabled unless attached).
    pub spans: Spans,
    /// Shared timeline sampler (disabled unless attached).
    pub sampler: Sampler,
}

/// Build-time description of a machine.
#[derive(Debug, Clone)]
pub struct MachineSpec {
    /// Local-disk capacity in sectors.
    pub capacity_sectors: u64,
    /// Image seed: the OS image content generator key.
    pub image_seed: u64,
    /// Image size in sectors (the deployed prefix of the disk).
    pub image_sectors: u64,
    /// Number of CPUs.
    pub cpus: usize,
    /// Physical memory bytes.
    pub mem_bytes: u64,
    /// Storage controller.
    pub controller: ControllerKind,
}

impl Default for MachineSpec {
    fn default() -> Self {
        MachineSpec {
            capacity_sectors: (64u64 << 30) / 512,
            image_seed: 0xB00C,
            image_sectors: (32u64 << 30) / 512,
            cpus: 12,
            mem_bytes: 96 << 30,
            controller: ControllerKind::Ide,
        }
    }
}

/// A disk of `capacity_sectors` holding `store`.
pub(crate) fn new_disk(capacity_sectors: u64, store: BlockStore) -> DiskModel {
    let params = DiskParams {
        capacity_sectors,
        ..DiskParams::default()
    };
    DiskModel::new(params, store)
}

impl Machine {
    /// A machine of `spec` with this memory, disk and CPUs, fresh
    /// controllers, and no VMM, fabric, faults or telemetry.
    fn assemble(spec: &MachineSpec, mem: PhysMem, disk: DiskModel, cpus: Vec<VtxCpu>) -> Machine {
        Machine {
            hw: Hardware {
                mem,
                disk,
                ide: IdeController::new(),
                ahci: AhciController::new(1),
                cpus,
                pci: standard_pci_bus(),
            },
            vmm: None,
            guest: Guest::new(spec.controller),
            fabric: None,
            stats: MachineStats::default(),
            metrics: Metrics::disabled(),
            spans: Spans::disabled(),
            sampler: Sampler::disabled(),
        }
    }

    /// A bare-metal machine with the image already on the local disk.
    pub fn bare_metal(spec: &MachineSpec) -> Machine {
        let store = BlockStore::image(spec.capacity_sectors, spec.image_seed);
        let disk = new_disk(spec.capacity_sectors, store);
        let cpus = (0..spec.cpus).map(|_| VtxCpu::new()).collect();
        Machine::assemble(spec, PhysMem::new(spec.mem_bytes), disk, cpus)
    }

    /// A BMcast machine: blank local disk, VMM interposed, and a
    /// one-server [`Fabric`] of its own: the AoE server holding the
    /// image, plus the fault injector when `cfg` carries a plan. The
    /// fabric's events run on the machine's own simulator.
    pub fn bmcast(spec: &MachineSpec, cfg: BmcastConfig) -> Machine {
        // One client, so the egress backpressure gate never engages.
        let mut fabric = Fabric::new(cfg.mtu, cfg.faults.clone());
        let server = image_server(
            &cfg,
            ServerConfig::default(),
            0,
            spec.image_sectors,
            spec.image_seed,
        );
        fabric.add_server(SERVER_MAC, server, true);
        let mut m = Machine::bmcast_fleet(spec, cfg);
        m.fabric = Some(fabric);
        m
    }

    /// A BMcast machine for fleet runs: same hardware, VMM, and guest as
    /// [`Machine::bmcast`], but no fabric of its own. The fleet's shared
    /// [`Fabric`] drains its TX frames after each step with
    /// [`pop_vmm_tx`] and delivers replies through [`vmm_nic_rx`]. Faults
    /// live on that shared fabric, so any plan in `cfg` is ignored.
    pub fn bmcast_fleet(spec: &MachineSpec, cfg: BmcastConfig) -> Machine {
        let store = BlockStore::zeroed_with_mirror(spec.capacity_sectors, spec.image_seed);
        let disk = new_disk(spec.capacity_sectors, store);
        let mut mem = PhysMem::new(spec.mem_bytes);
        mem.reserve_for_vmm(VMM_MEMORY_BYTES);

        // The VMM's dummy DMA target for restarts.
        let dummy_buf = mem.alloc(DmaBuffer::new(1));
        let dummy_prd = mem.alloc(PrdTable {
            entries: vec![PrdEntry {
                buf: dummy_buf,
                sectors: 1,
            }],
        });

        let mut cpus: Vec<VtxCpu> = (0..spec.cpus).map(|_| VtxCpu::new()).collect();
        for cpu in &mut cpus {
            cpu.vmxon();
            arm_vmm_traps(cpu);
        }

        let mut m = Machine::assemble(spec, mem, disk, cpus);
        m.vmm = Some(Vmm::new(spec, cfg, dummy_buf, dummy_prd));
        m
    }

    /// Attaches observability handles to every instrumented component —
    /// the device mediators, the background copy, the AoE endpoints, and
    /// the machine's own counters. All clones share one registry, so a
    /// single snapshot sees the whole machine. The [`Tracer`] is ignored:
    /// the parameter stays only because the `bmbench` package still passes
    /// one, and ROADMAP item 1 part A deletes it.
    pub fn set_telemetry(&mut self, metrics: Metrics, _ignored: Tracer) {
        if let Some(vmm) = self.vmm.as_mut() {
            vmm.port.mediation_mut().set_telemetry(metrics.clone());
            vmm.bg.stream.set_telemetry(metrics.clone());
            vmm.client.set_telemetry(metrics.clone());
        }
        if let Some(fabric) = self.fabric.as_mut() {
            fabric.set_telemetry(metrics.clone());
        }
        self.metrics = metrics;
    }

    /// Attaches the flight recorder: hierarchical spans to every
    /// span-emitting component (mediators, background copy, AoE
    /// endpoints, de-virtualization sequencer) and the timeline sampler
    /// to the machine. All clones share one store, so the exporters see
    /// the whole deployment.
    pub fn set_flight_recorder(&mut self, spans: Spans, sampler: Sampler) {
        if let Some(vmm) = self.vmm.as_mut() {
            vmm.port.mediation_mut().set_spans(spans.clone());
            vmm.bg.stream.set_spans(spans.clone());
            vmm.client.set_spans(spans.clone());
            vmm.devirt.set_spans(spans.clone());
        }
        if let Some(fabric) = self.fabric.as_mut() {
            fabric.set_spans(spans.clone());
        }
        self.spans = spans;
        self.sampler = sampler;
    }

    /// Installs the guest program (clearing any previous program's
    /// finished state, so runs can be chained on one machine).
    pub fn set_program(&mut self, program: Box<dyn GuestProgram>) {
        self.guest.program = Some(program);
        self.guest.finished = false;
    }

    /// Deployment progress `[0, 1]`; 1.0 on bare-metal machines.
    pub fn deployment_progress(&self) -> f64 {
        self.vmm
            .as_ref()
            .map(|v| v.bitmap.progress())
            .unwrap_or(1.0)
    }

    /// The current lifecycle phase.
    pub fn phase(&self) -> Phase {
        self.vmm
            .as_ref()
            .map(|v| v.phase)
            .unwrap_or(Phase::BareMetal)
    }

    /// Terminal deployment failure, if the retry budget tripped.
    pub fn deploy_error(&self) -> Option<DeployError> {
        self.vmm.as_ref().and_then(|v| v.deploy_error)
    }

    /// Whether snapshot-back finished, i.e. the machine may be
    /// [`reclaim`]ed for its next tenant.
    pub fn snapshot_complete(&self) -> bool {
        self.vmm
            .as_ref()
            .is_some_and(|v| v.snapshot_done_at.is_some())
    }

    /// Terminal snapshot-back failure, if the retry budget tripped.
    pub fn reclaim_error(&self) -> Option<ReclaimError> {
        self.vmm.as_ref().and_then(|v| v.reclaim_error)
    }
}

impl GuestDriver {
    /// The driver behind its block interface.
    fn block(&mut self) -> &mut dyn BlockDriver {
        match self {
            GuestDriver::Ide(d) => d,
            GuestDriver::Ahci(d) => d,
        }
    }
}

impl Guest {
    fn new(controller: ControllerKind) -> Guest {
        Guest {
            driver: match controller {
                ControllerKind::Ide => GuestDriver::Ide(IdeDriver::new()),
                ControllerKind::Ahci => GuestDriver::Ahci(AhciDriver::new()),
            },
            program: None,
            actions: Vec::new(),
            pending_io: HashMap::new(),
            io_latency: Histogram::new(),
            ios_completed: 0,
            bytes_completed: 0,
            finished: false,
        }
    }
}

/// Hardware-side events latched during a bus interaction.
#[derive(Debug)]
enum HwEvent {
    /// The guest armed a command on a slot.
    Start(Slot),
    /// The mediator held a guest command for redirection.
    Redirect(RedirectTarget),
}

/// The mediated bus: routes guest accesses, charging exits and invoking
/// mediators exactly when the VT-x configuration says so.
struct MachineBus<'a> {
    hw: &'a mut Hardware,
    vmm: &'a mut Option<Vmm>,
    events: &'a mut Vec<HwEvent>,
    /// Sim clock at bus construction, handed to the mediators so their
    /// spans carry real timestamps.
    now: SimTime,
}

impl MachineBus<'_> {
    /// The VMM, if any CPU still traps (cpu 0 is representative — the
    /// guest's vCPU for I/O in this model).
    fn interposing(&mut self) -> bool {
        self.vmm.as_ref().map(|v| v.is_active()).unwrap_or(false)
    }
}

impl GuestBus for MachineBus<'_> {
    fn pio_read(&mut self, port: u16) -> u32 {
        let Some(reg) = IdeReg::from_port(port) else {
            return 0;
        };
        if self.interposing() && self.hw.cpus[0].exits_on_pio(port) {
            self.hw.cpus[0].charge_exit(ExitReason::PioRead(port));
            let vmm = self.vmm.as_mut().expect("interposing implies vmm");
            if let StoragePort::Ide(med) = &mut vmm.port {
                if let PioVerdict::Emulate(v) = med.on_guest_read(reg) {
                    return v;
                }
            }
        }
        self.hw.ide.read_reg(reg)
    }

    fn pio_write(&mut self, port: u16, val: u32) {
        let Some(reg) = IdeReg::from_port(port) else {
            return;
        };
        if self.interposing() && self.hw.cpus[0].exits_on_pio(port) {
            self.hw.cpus[0].charge_exit(ExitReason::PioWrite(port));
            let vmm = self.vmm.as_mut().expect("interposing implies vmm");
            if let StoragePort::Ide(med) = &mut vmm.port {
                med.mediation.note_now(self.now);
                match med.on_guest_write(reg, val, &mut vmm.bitmap) {
                    PioVerdict::Forward => {}
                    PioVerdict::Swallow => return,
                    PioVerdict::Emulate(_) => unreachable!("writes are never emulated"),
                    PioVerdict::StartRedirect(r) => {
                        // Block the device: retract whatever the earlier
                        // forwarded writes left pending.
                        self.hw.ide.take_ready();
                        self.events.push(HwEvent::Redirect(RedirectTarget::Ide(r)));
                        return;
                    }
                }
            }
        }
        if let Some(IdeAction::CommandReady) = self.hw.ide.write_reg(reg, val) {
            self.events.push(HwEvent::Start(Slot::Ide));
        }
    }

    fn mmio_read(&mut self, addr: u64) -> u64 {
        if !AhciController::owns_mmio(addr) {
            return 0;
        }
        let offset = addr - ABAR;
        let raw = self.hw.ahci.mmio_read(offset);
        if self.interposing() && self.hw.cpus[0].exits_on_mmio(addr) {
            self.hw.cpus[0].charge_exit(ExitReason::MmioRead(addr));
            let vmm = self.vmm.as_mut().expect("interposing implies vmm");
            if let StoragePort::Ahci(med) = &mut vmm.port {
                return med.filter_read(offset, raw);
            }
        }
        raw
    }

    fn mmio_write(&mut self, addr: u64, val: u64) {
        if !AhciController::owns_mmio(addr) {
            return;
        }
        let offset = addr - ABAR;
        if self.interposing() && self.hw.cpus[0].exits_on_mmio(addr) {
            self.hw.cpus[0].charge_exit(ExitReason::MmioWrite(addr));
            let vmm = self.vmm.as_mut().expect("interposing implies vmm");
            if let StoragePort::Ahci(med) = &mut vmm.port {
                med.mediation.note_now(self.now);
                match med.on_guest_write(offset, val, &self.hw.mem, &mut vmm.bitmap) {
                    MmioVerdict::Forward => {}
                    MmioVerdict::ForwardMasked(v) => return self.forward_mmio(offset, v),
                    MmioVerdict::Swallow => return,
                    MmioVerdict::Ci {
                        forward_mask,
                        redirects,
                    } => {
                        if forward_mask != 0 {
                            self.forward_mmio(PORT_BASE + preg::CI, forward_mask as u64);
                        }
                        // Serve slots one at a time; our drivers rarely
                        // co-issue redirects.
                        let held = redirects.into_iter().map(RedirectTarget::Ahci);
                        self.events.extend(held.map(HwEvent::Redirect));
                        return;
                    }
                }
            }
        }
        self.forward_mmio(offset, val);
    }

    fn mem(&mut self) -> &mut PhysMem {
        &mut self.hw.mem
    }
}

impl MachineBus<'_> {
    fn forward_mmio(&mut self, offset: u64, val: u64) {
        if let Some(AhciAction::SlotsIssued { slots, .. }) = self.hw.ahci.mmio_write(offset, val) {
            let issued = (0..32u8).filter(|s| slots & (1 << s) != 0);
            self.events
                .extend(issued.map(|s| HwEvent::Start(Slot::Ahci(s))));
        }
    }
}

// ---------------------------------------------------------------------
// Event-flow implementation. Free functions over (&mut Machine, &mut Sim)
// because they are scheduled as events.
// ---------------------------------------------------------------------

/// Per-request VMM CPU cost for handling a redirected or multiplexed
/// operation (thread wakeup + packetization).
const VMM_OP_CPU: SimDuration = SimDuration::from_micros(30);

/// Runs `f` against the guest driver on the mediated bus, then processes
/// the hardware events the accesses latched.
fn with_bus<R>(
    m: &mut Machine,
    sim: &mut MachineSim,
    f: impl FnOnce(&mut GuestDriver, &mut MachineBus) -> R,
) -> R {
    let mut events = Vec::new();
    let mut bus = MachineBus {
        hw: &mut m.hw,
        vmm: &mut m.vmm,
        events: &mut events,
        now: sim.now(),
    };
    let out = f(&mut m.guest.driver, &mut bus);
    process_hw_events(m, sim, events);
    out
}

/// Submits a guest I/O through the driver and processes the consequences.
pub fn submit_guest_io(m: &mut Machine, sim: &mut MachineSim, req: IoRequest) {
    m.guest.pending_io.insert(req.id, sim.now());
    if let Some(vmm) = &mut m.vmm {
        if vmm.is_active() {
            vmm.bg.note_guest_io(sim.now(), req.range.end());
        }
    }
    with_bus(m, sim, |driver, bus| driver.block().submit(req, bus));
}

fn process_hw_events(m: &mut Machine, sim: &mut MachineSim, events: Vec<HwEvent>) {
    for ev in events {
        match ev {
            HwEvent::Start(slot) => start_media(m, sim, slot, Origin::Guest),
            HwEvent::Redirect(target) => begin_redirect(m, sim, target),
        }
    }
}

/// Starts the command armed on `slot` on the media and schedules its
/// completion.
fn start_media(m: &mut Machine, sim: &mut MachineSim, slot: Slot, origin: Origin) {
    // The injector's slow-disk factor applies before the access is timed
    // (write errors stay scoped to the server disk).
    if let Some(inj) = m.fabric.as_mut().and_then(Fabric::faults_mut) {
        m.hw.disk
            .set_fault_latency_factor(inj.disk_latency_factor(sim.now()));
    }
    let hw = &mut m.hw;
    let (op, range) = match slot {
        Slot::Ide => match hw.ide.start_ready() {
            Some(cmd) => (cmd.op, cmd.range),
            None => return,
        },
        Slot::Ahci(s) => {
            let Some(cmd) = hw.ahci.decode_slot(&hw.mem, 0, s) else {
                return;
            };
            hw.ahci.start_slot(0, s);
            (cmd.op, cmd.range)
        }
    };
    let t = match op {
        AtaOp::ReadDma => m.hw.disk.access_time(DiskOp::Read, range),
        AtaOp::WriteDma => m.hw.disk.access_time(DiskOp::Write, range),
        AtaOp::Flush => SimDuration::from_millis(2),
        AtaOp::Identify => SimDuration::from_micros(300),
    };
    if origin == Origin::Guest {
        m.stats.local_ios += 1;
        m.metrics.inc("machine.local_ios");
        // Elasticity bookkeeping: every guest write diverges the local
        // disk from the golden image, so snapshot-back must stream it.
        if op == AtaOp::WriteDma {
            if let Some(vmm) = m.vmm.as_mut() {
                vmm.dirty.record(range);
            }
        }
    }
    sim.schedule_in(t, move |m: &mut Machine, sim| {
        let hw = &mut m.hw;
        match slot {
            Slot::Ide => hw.ide.complete_active(&mut hw.mem, &mut hw.disk),
            Slot::Ahci(s) => hw.ahci.complete_slot(&mut hw.mem, &mut hw.disk, 0, s),
        }
        finish_media(m, sim, origin);
    });
}

fn finish_media(m: &mut Machine, sim: &mut MachineSim, origin: Origin) {
    if origin == Origin::RedirectRestart {
        // The dummy restart completed: close the restart child and the
        // redirect parent together.
        if let Some(vmm) = m.vmm.as_mut() {
            let now = sim.now();
            m.spans.end(now, std::mem::take(&mut vmm.restart_span));
            m.spans.end(now, std::mem::take(&mut vmm.redirect_span));
        }
    }
    match origin {
        Origin::Guest | Origin::RedirectRestart => {
            // §4.3 resident mode: VMX stays on after deployment (EPT and
            // traps off), so external interrupts still transit the thin
            // resident shim before reaching the now-unmediated guest.
            let resident = m
                .vmm
                .as_ref()
                .is_some_and(|v| !v.cfg.vmxoff_after_deploy && v.phase == Phase::BareMetal);
            if resident {
                sim.schedule_in(RESIDENT_IRQ_DELAY, deliver_guest_irq);
            } else {
                deliver_guest_irq(m, sim);
            }
        }
        Origin::VmmWrite => {
            // The VMM detects completion by polling: consume the interrupt
            // directly (a status read / IS ack in VMM context) after the
            // polling slack, then continue the writer chain.
            let slack = if m.vmm.is_some() {
                POLL_INTERVAL / 2
            } else {
                SimDuration::ZERO
            };
            sim.schedule_in(slack, |m: &mut Machine, sim| {
                m.hw.ide.read_reg(IdeReg::Command); // clears INTRQ if set
                let is = m.hw.ahci.mmio_read(PORT_BASE + preg::IS);
                if is != 0 {
                    m.hw.ahci.mmio_write(PORT_BASE + preg::IS, is);
                }
                if m.vmm.as_ref().is_some_and(|v| v.multiplex.is_some()) {
                    multiplex_next_piece(m, sim);
                }
            });
        }
    }
}

/// Delivers a completion interrupt to the guest: runs the driver ISR and
/// the program callbacks.
fn deliver_guest_irq(m: &mut Machine, sim: &mut MachineSim) {
    let completions = with_bus(m, sim, |driver, bus| driver.block().on_irq(bus));
    for io in completions {
        if let Some(issued) = m.guest.pending_io.remove(&io.id) {
            let latency = sim.now().duration_since(issued);
            m.guest.io_latency.record(latency.as_secs_f64());
            m.metrics
                .observe("guest.io_latency_us", latency.as_micros());
        }
        m.guest.ios_completed += 1;
        m.guest.bytes_completed += io.range.bytes();
        run_program(m, sim, |prog, ctl| prog.on_io_complete(&io, ctl));
    }
    // The device just went idle from the guest's point of view — a
    // moderation-due background write can slip into the gap.
    kick_writer(m, sim);
}

/// Runs a program callback and applies the actions it queued.
pub fn run_program(
    m: &mut Machine,
    sim: &mut MachineSim,
    f: impl FnOnce(&mut dyn GuestProgram, &mut GuestCtl),
) {
    run_program_dyn(m, sim, Box::new(f));
}

/// A type-erased visit of the guest program (see [`run_program_dyn`]).
type ProgramVisit<'a> = Box<dyn FnOnce(&mut dyn GuestProgram, &mut GuestCtl) + 'a>;

/// Type-erased core of [`run_program`] (keeps the event closures from
/// instantiating recursively).
fn run_program_dyn(m: &mut Machine, sim: &mut MachineSim, f: ProgramVisit<'_>) {
    let Some(mut program) = m.guest.program.take() else {
        return;
    };
    {
        let mut ctl = GuestCtl {
            now: sim.now(),
            actions: &mut m.guest.actions,
        };
        f(program.as_mut(), &mut ctl);
    }
    if m.guest.program.is_none() {
        m.guest.program = Some(program);
    }
    let actions = std::mem::take(&mut m.guest.actions);
    for action in actions {
        match action {
            GuestAction::Submit(req) => submit_guest_io(m, sim, req),
            GuestAction::Timer {
                delay,
                token,
                tlb_share,
            } => {
                let factor = m.hw.cpus[0].memory_slowdown(tlb_share);
                sim.schedule_in(delay.mul_f64(factor), move |m: &mut Machine, sim| {
                    run_program_dyn(m, sim, Box::new(move |p, ctl| p.on_timer(token, ctl)));
                });
            }
            GuestAction::Finish => m.guest.finished = true,
        }
    }
}

/// Kicks off the guest program, once the AHCI guest driver has set up its
/// command list.
pub fn start_program(m: &mut Machine, sim: &mut MachineSim) {
    with_bus(m, sim, |driver, bus| {
        if let GuestDriver::Ahci(d) = driver {
            d.init(bus);
        }
    });
    run_program(m, sim, |p, ctl| p.start(ctl));
}

// --------------------------- redirection ------------------------------

fn begin_redirect(m: &mut Machine, sim: &mut MachineSim, target: RedirectTarget) {
    let (range, protected) = match target {
        RedirectTarget::Ide(r) => (r.cmd.range, r.protected),
        RedirectTarget::Ahci(r) => (r.range, r.protected),
    };
    m.stats.redirected_ios += 1;
    m.metrics.inc("machine.redirected_ios");
    // Parent span for the whole copy-on-read lifecycle, with the first
    // of its contiguous children (fetch → finalize → restart) open.
    let now = sim.now();
    let span = m.spans.begin(now, "machine", "io.redirect", NO_SPAN, || {
        format!(
            "lba {} x{}{}",
            range.lba.0,
            range.sectors,
            if protected { " protected" } else { "" }
        )
    });
    let child = m.spans.begin(now, "machine", "redirect.fetch", span, || {
        "server fetch + local reads".into()
    });
    let vmm = m.vmm.as_mut().expect("redirect without vmm");
    vmm.cpu_time += VMM_OP_CPU;
    assert!(
        vmm.redirect.is_none(),
        "one redirect at a time per controller"
    );
    // A converted (protected) access fetches nothing: the guest gets
    // dummy data.
    let (holes, filled, collected) = if protected {
        let dummy = vec![SectorData(0xD077); range.sectors as usize];
        (Vec::new(), Vec::new(), vec![(range, dummy.into())])
    } else {
        let bitmap = &vmm.bitmap;
        (
            bitmap.empty_subranges(range),
            bitmap.filled_subranges(range),
            Vec::new(),
        )
    };
    vmm.redirect = Some(RedirectInFlight {
        target,
        outstanding: filled.len(),
        collected,
        fetched: Vec::new(),
        finalizing: false,
        span,
        child,
    });
    if protected {
        sim.schedule_in(SimDuration::from_micros(50), try_finish_redirect);
        return;
    }

    // Fetch empty sectors from the server; each AoE round-trip span
    // nests under the redirect's fetch child.
    let requests = request(m, sim, Requester::Redirect(child), &holes);
    let vmm = m.vmm.as_mut().expect("just had it");
    vmm.redirect.as_mut().expect("just set").outstanding += requests;

    // Read filled sectors from the local disk (VMM context; device is
    // blocked for the guest but free for us).
    for sub in filled {
        let t = m.hw.disk.access_time(DiskOp::Read, sub);
        let data = m.hw.disk.store().read_range(sub);
        sim.schedule_in(t, move |m: &mut Machine, sim| {
            let vmm = m.vmm.as_mut().expect("redirect vmm");
            if let Some(r) = vmm.redirect.as_mut() {
                r.collected.push((sub, data.into()));
                r.outstanding -= 1;
            }
            try_finish_redirect(m, sim);
        });
    }
    schedule_retransmit_guard(m, sim);
}

/// Completes the redirect if all pieces arrived: after the completion
/// polling converges ([`REDIRECT_POLL_PENALTY`]), virtual-DMA the data
/// into the guest buffers, queue the local fill, and restart via dummy.
fn try_finish_redirect(m: &mut Machine, sim: &mut MachineSim) {
    let Some(vmm) = m.vmm.as_mut() else { return };
    let Some(r) = vmm.redirect.as_mut() else {
        return;
    };
    if r.outstanding > 0 || r.finalizing {
        return;
    }
    r.finalizing = true;
    // Fetch child ends; the finalize child (completion-poll penalty +
    // virtual DMA) starts back-to-back so children stay contiguous.
    let now = sim.now();
    m.spans.end(now, r.child);
    r.child = m
        .spans
        .begin(now, "machine", "redirect.finalize", r.span, || {
            "completion poll + virtual DMA".into()
        });
    sim.schedule_in(REDIRECT_POLL_PENALTY, finish_redirect_now);
}

fn finish_redirect_now(m: &mut Machine, sim: &mut MachineSim) {
    let Some(vmm) = m.vmm.as_mut() else { return };
    let mut r = vmm.redirect.take().expect("finalizing redirect vanished");
    vmm.cpu_time += VMM_OP_CPU;

    // Finalize child ends; the restart child runs until the dummy read's
    // completion interrupt (ended in `finish_media`). A stale span pair
    // (restart outpaced by the next redirect) is closed here rather than
    // leaked open.
    let now = sim.now();
    m.spans.end(now, r.child);
    r.child = m
        .spans
        .begin(now, "machine", "redirect.restart", r.span, || {
            "dummy restart to completion irq".into()
        });
    let stale_restart = std::mem::replace(&mut vmm.restart_span, r.child);
    let stale_parent = std::mem::replace(&mut vmm.redirect_span, r.span);
    m.spans.end(now, stale_restart);
    m.spans.end(now, stale_parent);

    // Assemble the data in LBA order.
    r.collected.sort_by_key(|(range, _)| range.lba);
    let all: Vec<SectorData> = r
        .collected
        .iter()
        .flat_map(|(_, d)| d.iter().copied())
        .collect();

    // Queue fetched pieces for the local fill (write-behind through the
    // background writer, claimed via the bitmap like any VMM write).
    let fetched = std::mem::take(&mut r.fetched);
    let mut fetched_bytes = 0u64;
    for (range, data) in fetched {
        fetched_bytes += range.bytes();
        vmm.bg.push_local_fill(FetchedBlock { range, data });
    }
    m.stats.redirected_bytes += fetched_bytes;
    m.metrics.add("machine.redirected_bytes", fetched_bytes);

    // Virtual DMA: copy the data into the guest's PRD buffers.
    let mem = &mut m.hw.mem;
    let prdt = match r.target {
        RedirectTarget::Ide(r) => r
            .cmd
            .prd
            .map(|prd| mem.get::<PrdTable>(prd).expect("guest PRD vanished")),
        RedirectTarget::Ahci(r) => Some(
            &mem.get::<AhciCmdTable>(r.table)
                .expect("redirected slot's table vanished")
                .prdt,
        ),
    };
    let prdt = prdt.cloned().unwrap_or_default();
    let mut rest = &all[..];
    for entry in &prdt.entries {
        let (head, tail) = rest.split_at((entry.sectors as usize).min(rest.len()));
        rest = tail;
        let buf = mem
            .get_mut::<DmaBuffer>(entry.buf)
            .expect("guest DMA buffer vanished");
        buf.sectors = head.to_vec();
    }
    let vmm = m.vmm.as_mut().expect("still here");
    let dummy = (vmm.dummy_buf, vmm.dummy_prd);
    let (slot, replay) = vmm.port.restart_redirect(now, &mut m.hw, r.target, dummy);
    start_media(m, sim, slot, Origin::RedirectRestart);
    replay_guest_writes(m, sim, replay);
    kick_writer(m, sim);
}

/// Replays guest register writes the mediator queued, through the bus.
fn replay_guest_writes(m: &mut Machine, sim: &mut MachineSim, writes: Vec<GuestWrite>) {
    with_bus(m, sim, |_, bus| {
        for write in writes {
            match write {
                GuestWrite::Pio(port, val) => bus.pio_write(port, val),
                GuestWrite::Mmio(addr, val) => bus.mmio_write(addr, val),
            }
        }
    });
}

// ------------------------------ fabric --------------------------------

/// The one request path, for copy-on-read and both block streams: the
/// transport plans `claims` into wire requests (one per claim for plain
/// AoE, coalesced batches for the batched/RDMA transports), the client
/// issues each — a read, or for snapshot-back a write of the run read
/// from the local disk in VMM context — and the waiter records its
/// members; then all frames leave together. A stream's round trips
/// nest under the span of their first member's claim. Returns the number
/// of requests issued.
fn request(m: &mut Machine, sim: &mut MachineSim, by: Requester, claims: &[BlockRange]) -> usize {
    let now = sim.now();
    let Some(vmm) = m.vmm.as_mut() else { return 0 };
    let span_of = |vmm: &Vmm, first: BlockRange| match by {
        Requester::Redirect(parent) => parent,
        Requester::Stream(StreamKind::Background) => vmm.bg.stream.span(first),
        Requester::Stream(StreamKind::Snapshot) => {
            vmm.snap.as_ref().map_or(NO_SPAN, |s| s.stream.span(first))
        }
    };
    let (waiting, mut frames) = (vmm.aoe_waiters.len(), Vec::new());
    if by == Requester::Stream(StreamKind::Snapshot) {
        for plan in vmm.cfg.transport.plan_writes(&vmm.client, claims) {
            let parent = span_of(vmm, plan.members[0]);
            let (_t, data) = m.hw.disk.read(plan.range);
            vmm.cpu_time += VMM_OP_CPU;
            let (id, fs) = vmm.client.write(now, plan.range, &data, parent);
            vmm.aoe_waiters.insert(id, AoeWaiter(by, plan.members));
            frames.extend(fs);
        }
    } else {
        for plan in vmm.cfg.transport.plan_reads(&vmm.client, claims) {
            let parent = span_of(vmm, plan.members[0]);
            let (id, fs) = vmm.client.read_multi(now, &plan.runs, parent);
            vmm.aoe_waiters.insert(id, AoeWaiter(by, plan.members));
            frames.extend(fs);
        }
    }
    let requests = vmm.aoe_waiters.len() - waiting;
    send_vmm_frames(m, sim, frames);
    requests
}

/// Queues `frames` on the VMM NIC's TX ring and drains the ring onto
/// the machine's own fabric, as client 0 (a fleet member has none: the
/// fleet drains its ring).
fn send_vmm_frames(m: &mut Machine, sim: &mut MachineSim, frames: Vec<FrameBytes>) {
    let Some(vmm) = m.vmm.as_mut() else { return };
    for f in frames {
        vmm.nic.send(SERVER_MAC, f);
    }
    if m.fabric.is_none() {
        return;
    }
    while let Some(frame) = pop_vmm_tx(m) {
        let fabric = m.fabric.as_mut().expect("checked above");
        fabric.forward(sim.now(), 0, frame.payload, &mut |at, event| {
            schedule_fabric_event(sim, at, event)
        });
    }
}

/// Pops one frame off the VMM NIC's TX ring with its per-frame
/// bookkeeping (the `frames_tx` stat and metric, 3 µs of VMM CPU). A
/// standalone machine drains the ring onto its own fabric inside the
/// event that filled it; a fleet member (built by
/// [`Machine::bmcast_fleet`], no fabric of its own) is drained after
/// every step of its sim, so its frames leave at the same instant.
pub fn pop_vmm_tx(m: &mut Machine) -> Option<Frame<FrameBytes>> {
    let vmm = m.vmm.as_mut()?;
    let frame = vmm.nic.nic_mut().pop_tx()?;
    m.stats.frames_tx += 1;
    m.metrics.inc("machine.frames_tx");
    vmm.cpu_time += SimDuration::from_micros(3);
    Some(frame)
}

/// Puts one of the machine's own fabric events on its simulator.
fn schedule_fabric_event(sim: &mut MachineSim, at: SimTime, event: FabricEvent) {
    sim.schedule_at(at, move |m: &mut Machine, sim| {
        let Some(fabric) = m.fabric.as_mut() else {
            return;
        };
        let now = sim.now();
        let delivered = fabric.fire(now, event, &mut |at, event| {
            schedule_fabric_event(sim, at, event)
        });
        if let Some((_, payload)) = delivered {
            vmm_nic_rx(m, sim, payload);
        }
    });
}

/// Delivers one reply frame into this machine's VMM NIC, from its own
/// fabric or the fleet's alike, and schedules the polling thread's
/// pickup half a poll interval later.
pub fn vmm_nic_rx(m: &mut Machine, sim: &mut MachineSim, payload: FrameBytes) {
    let Some(vmm) = m.vmm.as_mut() else { return };
    if aoe::peek_rdma(payload.peek_head()) {
        // A reply placed by a one-sided RDMA READ: the HCA has already
        // written the bytes into registered memory, so the frame never
        // crosses the Ethernet RX ring. It lands on the completion
        // queue instead — unbounded, because the fabric is lossless
        // and flow-controlled, where the ring would overflow under a
        // same-instant burst wider than its capacity. The payload Arc
        // moves in whole: queueing a completion is not a copy.
        vmm.rdma_cq.push_back(payload);
    } else {
        vmm.nic.nic_mut().deliver(Frame {
            src: SERVER_MAC,
            dst: VMM_MAC,
            payload_bytes: payload.len() as u32,
            payload,
        });
    }
    // The polling thread notices on its next tick.
    sim.schedule_in(POLL_INTERVAL / 2, vmm_poll);
}

/// One VMM polling pass: drain the NIC, feed the AoE client, dispatch
/// completions.
fn vmm_poll(m: &mut Machine, sim: &mut MachineSim) {
    let Some(vmm) = m.vmm.as_mut() else { return };
    if !vmm.is_active() {
        return;
    }
    // RDMA completions first — the CQ poll runs ahead of the ring
    // drain, and its per-completion cost is the same frame-processing
    // charge (the client still reassembles fragments; only the server
    // stayed out of the data path). Frame by frame, nothing collected.
    let mut completions = Vec::new();
    while let Some(p) = vmm.rdma_cq.pop_front().or_else(|| vmm.nic.poll()) {
        m.stats.frames_rx += 1;
        m.metrics.inc("machine.frames_rx");
        vmm.cpu_time += SimDuration::from_micros(3);
        if let Some(done) = vmm.client.on_frame(sim.now(), p) {
            completions.push(done);
        }
    }
    for done in completions {
        let vmm = m.vmm.as_mut().expect("still polling");
        // A completed request means the server is reachable again.
        vmm.consecutive_failures = 0;
        match vmm.aoe_waiters.remove(&done.request_id) {
            Some(AoeWaiter(Requester::Redirect(_), members)) => {
                if let Some(r) = vmm.redirect.as_mut() {
                    r.outstanding -= 1;
                    for (range, data) in split_by_members(&members, done.data) {
                        r.collected.push((range, data.clone()));
                        r.fetched.push((range, data));
                    }
                }
                try_finish_redirect(m, sim);
            }
            Some(AoeWaiter(Requester::Stream(kind), members)) => {
                stream_completed(m, sim, kind, &members, done.data)
            }
            None => {}
        }
    }
}

/// A stream request completed: each member claim lands — a fetched
/// block in the writer's FIFO, a dirty run durable on the server — and
/// the stream claims again.
fn stream_completed(
    m: &mut Machine,
    sim: &mut MachineSim,
    kind: StreamKind,
    members: &[BlockRange],
    data: Vec<SectorData>,
) {
    let (now, vmm) = (sim.now(), m.vmm.as_mut().expect("still polling"));
    match kind {
        StreamKind::Background => {
            for (range, data) in split_by_members(members, data) {
                vmm.bg.deliver(now, FetchedBlock { range, data });
            }
            kick_writer(m, sim);
            retriever_fire(m, sim);
        }
        StreamKind::Snapshot => {
            let snap = vmm.snap.as_mut().expect("a snapshot write has its sender");
            members.iter().for_each(|&range| snap.ack(now, range));
            snapshot_pump(m, sim);
        }
    }
}

/// A stream request exhausted its client retries: its member claims
/// become claimable again (requestable blocks, re-marked dirty runs),
/// and the stream backs off one step, however many claims it carried.
fn stream_failed(vmm: &mut Vmm, kind: StreamKind, now: SimTime, members: &[BlockRange]) {
    match kind {
        StreamKind::Background => vmm.bg.request_failed(now, members),
        StreamKind::Snapshot => {
            let snap = vmm.snap.as_mut().expect("a snapshot write has its sender");
            snap.request_failed(now, members, &mut vmm.dirty);
        }
    }
}

// The machine's keyed timers, one slot per purpose (see
// `simkit::Sim::arm` and DESIGN §5.1). Each stands for every event
// chain of its purpose; its plan names the ticks that would act.
const WRITER_POLL_TIMER: Timer<Machine> = Timer {
    slot: 0,
    plan: writer_plan,
    fire: writer_fire,
};
const RETRIEVER: Timer<Machine> = Timer {
    slot: 1,
    plan: retriever_plan,
    fire: retriever_fire,
};
const RETRANSMIT_GUARD: Timer<Machine> = Timer {
    slot: 2,
    plan: guard_plan,
    fire: guard_fire,
};
const SNAPSHOT_SENDER: Timer<Machine> = Timer {
    slot: 3,
    plan: snapshot_plan,
    fire: snapshot_pump,
};

/// Periodic retransmission guard while AoE requests are outstanding:
/// one tick an RTO on, on the guard's timer.
fn schedule_retransmit_guard(m: &mut Machine, sim: &mut MachineSim) {
    let Some(vmm) = m.vmm.as_ref() else { return };
    if vmm.client.outstanding() == 0 {
        return;
    }
    let rto = vmm.client.config().rto;
    sim.arm(RETRANSMIT_GUARD, sim.now() + rto);
}

/// Whether a guard tick at `at` acts: a retransmission is due, or the
/// calls it makes on the retriever and the snapshot sender would act
/// (a multiplex pop frees FIFO room without kicking the retriever, and
/// the guard is what picks that room up). An idle tick re-arms what
/// those calls and the guard itself would, in their order.
fn guard_plan(m: &Machine, at: SimTime, rearms: &mut Rearms<Machine>) -> Tick {
    let Some(vmm) = m.vmm.as_ref() else {
        return Tick::Idle;
    };
    if !vmm.is_active() || vmm.deploy_error.is_some() || vmm.reclaim_error.is_some() {
        return Tick::Idle;
    }
    // Failures come only from due requests, so a tick with nothing due
    // fails nothing either.
    if vmm.client.retransmit_due(at)
        || retriever_plan(m, at, rearms) == Tick::Act
        || snapshot_plan(m, at, rearms) == Tick::Act
    {
        return Tick::Act;
    }
    if vmm.client.outstanding() > 0 {
        rearms.arm(RETRANSMIT_GUARD, at + vmm.client.config().rto);
    }
    Tick::Idle
}

fn guard_fire(m: &mut Machine, sim: &mut MachineSim) {
    let Some(vmm) = m.vmm.as_mut() else { return };
    if !vmm.is_active() || vmm.deploy_error.is_some() || vmm.reclaim_error.is_some() {
        return;
    }
    let now = sim.now();
    let frames = vmm.client.poll_retransmit(now);
    let failures = vmm.client.take_failures();
    vmm.consecutive_failures = vmm
        .consecutive_failures
        .saturating_add(failures.len() as u32);
    let mut reissue_redirects = Vec::new();
    for id in failures {
        match vmm.aoe_waiters.remove(&id) {
            Some(AoeWaiter(Requester::Redirect(_), members)) => {
                // The guest is blocked on this data: reissue at once.
                reissue_redirects.push(members);
            }
            Some(AoeWaiter(Requester::Stream(kind), members)) => {
                stream_failed(vmm, kind, now, &members)
            }
            None => {}
        }
    }
    if vmm.consecutive_failures > vmm.cfg.deploy_failure_budget {
        // Graceful degradation's end: surface the error instead of
        // retrying forever. Outstanding work drains; the runner sees
        // the error and stops.
        let consecutive = vmm.consecutive_failures;
        if vmm.phase == Phase::SnapshotBack {
            vmm.reclaim_error = Some(ReclaimError::RetryBudgetExhausted { consecutive });
            m.metrics.inc("machine.reclaim_errors");
        } else {
            vmm.deploy_error = Some(DeployError::RetryBudgetExhausted { consecutive });
            m.metrics.inc("machine.deploy_errors");
        }
        return;
    }
    for members in reissue_redirects {
        request(m, sim, Requester::Redirect(NO_SPAN), &members);
    }
    if !frames.is_empty() {
        send_vmm_frames(m, sim, frames);
    }
    retriever_fire(m, sim);
    snapshot_pump(m, sim);
    schedule_retransmit_guard(m, sim);
}

// -------------------------- background copy ---------------------------

/// Starts the deployment phase: retriever + writer chains.
pub fn start_deployment(m: &mut Machine, sim: &mut MachineSim) {
    if let Some(vmm) = m.vmm.as_mut() {
        vmm.phase = Phase::Deployment;
        vmm.deployment_start_at = Some(sim.now());
        // Phase spans are contiguous — initialization [0, dep_start],
        // deployment [dep_start, dep_done], devirtualization [dep_done,
        // bare_metal] — so their durations sum exactly to the total.
        m.spans.record(
            SimTime::ZERO,
            sim.now(),
            "phase",
            "phase.initialization",
            NO_SPAN,
            || "VMM boot + takeover".into(),
        );
        // Warm the dummy sector so restarts hit the disk cache.
        let dummy = BlockRange::new(crate::mediator::ide::DUMMY_LBA, 1);
        m.hw.disk.access_time(DiskOp::Read, dummy);
    }
    retriever_fire(m, sim);
}

// ------------------------- timeline sampler ---------------------------

/// Records one flight-recorder timeline row: bitmap fill, copy-on-read
/// hit ratio, background FIFO/in-flight depths, moderation state, fault
/// counters, and a fill-rate ETA derived from the previous row. A no-op
/// when the sampler is disabled or the machine has no VMM.
pub fn sample_flight_row(m: &Machine, now: SimTime) {
    if !m.sampler.is_enabled() {
        return;
    }
    let Some(vmm) = m.vmm.as_ref() else { return };
    let fill_pct = vmm.bitmap.progress() * 100.0;
    let total_ios = m.stats.local_ios + m.stats.redirected_ios;
    let hit_ratio = if total_ios == 0 {
        1.0
    } else {
        m.stats.local_ios as f64 / total_ios as f64
    };
    // ETA until 100% fill, extrapolated from the fill rate since the
    // previous row; -1 when no rate is observable yet.
    let eta_s = match (m.sampler.last_at(), m.sampler.last_value("bitmap.fill_pct")) {
        (Some(prev_at), Some(prev_pct)) if now > prev_at && fill_pct > prev_pct => {
            let rate = (fill_pct - prev_pct) / (now - prev_at).as_secs_f64();
            (100.0 - fill_pct) / rate
        }
        _ => -1.0,
    };
    let throttle_wait_s = vmm
        .writer_next_allowed
        .saturating_duration_since(now)
        .as_secs_f64();
    // Peer-vs-origin read mix: share of reads steered to rack-local
    // serving peers (peer shelves live at PEER_SHELF_BASE and above).
    let (peer_reads, total_reads) =
        vmm.client
            .reads_by_shelf()
            .iter()
            .fold((0u64, 0u64), |(peer, total), (shelf, n)| {
                let is_peer = *shelf >= crate::fleet::PEER_SHELF_BASE;
                (peer + if is_peer { *n } else { 0 }, total + n)
            });
    let peer_share = if total_reads == 0 {
        0.0
    } else {
        peer_reads as f64 / total_reads as f64
    };
    let fc = m
        .fabric
        .as_ref()
        .and_then(Fabric::fault_counters)
        .unwrap_or_default();
    m.sampler.record_row(
        now,
        vec![
            ("bitmap.fill_pct", fill_pct),
            ("deploy.eta_s", eta_s),
            ("cor.hit_ratio", hit_ratio),
            ("bg.fifo_depth", vmm.bg.fifo_depth() as f64),
            ("bg.inflight", vmm.bg.inflight() as f64),
            ("aoe.outstanding", vmm.client.outstanding() as f64),
            ("aoe.peer_read_share", peer_share),
            ("moderation.guest_io_rate", vmm.bg.guest_io_rate(now)),
            ("moderation.throttle_wait_s", throttle_wait_s),
            ("nic.rx_pending", vmm.nic.nic().rx_pending() as f64),
            (
                "faults.frames_dropped",
                (fc.link_dropped + fc.server_dropped) as f64,
            ),
            ("faults.total", fc.total() as f64),
        ],
    );
    // Reverse-lifecycle rows, only while a snapshot-back is live so
    // deployment-only timelines keep their exact historical shape
    // (taken when the stream starts and when it completes).
    if let Some(snap) = vmm.snap.as_ref() {
        m.sampler.record_row(
            now,
            vec![
                ("snap.dirty_sectors", vmm.dirty.dirty_sectors() as f64),
                ("snap.inflight", snap.inflight() as f64),
                ("snap.sectors_sent", snap.sectors_sent() as f64),
            ],
        );
    }
}

/// Starts the periodic timeline tick: one row now, then one per sampler
/// interval while the VMM is active. The runner records a final row once
/// the run ends so the timeline closes at the terminal state (100% fill
/// on successful deployments).
pub fn start_flight_sampler(m: &mut Machine, sim: &mut MachineSim) {
    if !m.sampler.is_enabled() || m.vmm.is_none() {
        return;
    }
    sample_flight_row(m, sim.now());
    let interval = m.sampler.interval();
    sim.schedule_in(interval, flight_sampler_tick);
}

fn flight_sampler_tick(m: &mut Machine, sim: &mut MachineSim) {
    let Some(vmm) = m.vmm.as_ref() else { return };
    if !vmm.is_active() || vmm.deploy_error.is_some() {
        return;
    }
    sample_flight_row(m, sim.now());
    let interval = m.sampler.interval();
    sim.schedule_in(interval, flight_sampler_tick);
}

/// The retriever's server-busy gate: background fetches yield until
/// this instant after a reply carried the busy hint (never while
/// sprinting).
fn busy_until(vmm: &Vmm, sprinting: bool) -> Option<SimTime> {
    let backoff = vmm.cfg.moderation.server_busy_backoff;
    if backoff == SimDuration::ZERO || sprinting {
        return None;
    }
    vmm.client.server_busy_at().map(|busy_at| busy_at + backoff)
}

/// What a retriever tick at `at` would do: re-arm at a closed gate's
/// deadline, act (claim blocks, flip the sprint flag, or request
/// devirtualization), or nothing.
fn retriever_plan(m: &Machine, at: SimTime, rearms: &mut Rearms<Machine>) -> Tick {
    let Some(vmm) = m.vmm.as_ref() else {
        return Tick::Idle;
    };
    if vmm.phase != Phase::Deployment || vmm.deploy_error.is_some() {
        return Tick::Idle;
    }
    let ready = vmm.bg.stream.ready_at();
    if ready > at {
        rearms.arm(RETRIEVER, ready);
        return Tick::Idle;
    }
    let sprinting = m.guest.finished && vmm.cfg.moderation.post_boot_sprint;
    if vmm.client.sprint() != sprinting {
        return Tick::Act;
    }
    if let Some(until) = busy_until(vmm, sprinting).filter(|&u| u > at) {
        rearms.arm(RETRIEVER, until);
        return Tick::Idle;
    }
    if vmm.bg.wants_fetch() || devirt_due(vmm) {
        Tick::Act
    } else {
        Tick::Idle
    }
}

fn retriever_fire(m: &mut Machine, sim: &mut MachineSim) {
    let (now, guest_finished) = (sim.now(), m.guest.finished);
    let Some(vmm) = m.vmm.as_mut() else { return };
    // Back-off gate after fetch failures: keep serving copy-on-read, but
    // only probe the server again once the window opens.
    if vmm.phase != Phase::Deployment || vmm.deploy_error.is_some() {
        return;
    }
    let ready = vmm.bg.stream.ready_at();
    if ready > now {
        sim.arm(RETRIEVER, ready);
        return;
    }
    // Post-boot sprint: the guest is done, so the moderation below has
    // nothing left to protect on this machine — finish the bitmap at
    // full speed (and tell the server via the completion-priority flag)
    // so the machine can turn into a serving peer.
    let sprinting = guest_finished && vmm.cfg.moderation.post_boot_sprint;
    vmm.client.set_sprint(sprinting);
    // Fleet-aware moderation: a recent reply carried the server's busy
    // hint, so other machines' copy-on-read is queueing behind elastic
    // traffic. Background fetches yield the backoff window; redirects
    // (a blocked guest) are never gated here.
    if let Some(until) = busy_until(vmm, sprinting).filter(|&u| u > now) {
        sim.arm(RETRIEVER, until);
        return;
    }
    let claims: Vec<_> = iter::from_fn(|| vmm.bg.next_fetch(now, &vmm.bitmap)).collect();
    vmm.cpu_time += VMM_OP_CPU * claims.len() as u64;
    let by = Requester::Stream(StreamKind::Background);
    if request(m, sim, by, &claims) > 0 {
        schedule_retransmit_guard(m, sim);
    }
    maybe_begin_devirt(m, sim);
}

fn kick_writer(m: &mut Machine, sim: &mut MachineSim) {
    let Some(vmm) = m.vmm.as_mut() else { return };
    if !vmm.writer_idle || !vmm.is_active() {
        return;
    }
    if !vmm.bg.has_pending_writes() {
        return;
    }
    vmm.writer_idle = false;
    // The moderation deadline was set when the previous write finished; a
    // kick never *adds* pacing, it only respects the existing deadline.
    // Copy-on-read fills are exempt: their data is in hand and the guest
    // is actively using that region.
    let delay = if vmm.bg.has_pending_fills() {
        SimDuration::ZERO
    } else {
        vmm.writer_next_allowed.saturating_duration_since(sim.now())
    };
    sim.arm(WRITER_POLL_TIMER, sim.now() + delay);
}

/// The writer's idle-window poll period (the paper's preemption-timer
/// polling runs at CPU-cycle granularity; 50 µs is fine enough here).
const WRITER_POLL: SimDuration = SimDuration::from_micros(50);

/// Whether a writer tick acts rather than polls again: there is no
/// active VMM (the tick ends the writer), or the device is idle from
/// the guest's perspective and no redirect or multiplex is in flight.
fn writer_tick_acts(m: &Machine) -> bool {
    let Some(vmm) = m.vmm.as_ref().filter(|v| v.is_active()) else {
        return true;
    };
    vmm.port.can_multiplex(&m.hw) && vmm.redirect.is_none() && vmm.multiplex.is_none()
}

/// A writer tick polls on until it acts: the poll ticks that find the
/// device still busy cost nothing.
fn writer_plan(m: &Machine, _at: SimTime, _rearms: &mut Rearms<Machine>) -> Tick {
    if writer_tick_acts(m) {
        Tick::Act
    } else {
        Tick::Poll(WRITER_POLL)
    }
}

fn writer_fire(m: &mut Machine, sim: &mut MachineSim) {
    if !writer_tick_acts(m) {
        // Wait for an idle window on the poll grid.
        sim.arm(WRITER_POLL_TIMER, sim.now() + WRITER_POLL);
        return;
    }
    let Some(vmm) = m.vmm.as_mut().filter(|v| v.is_active()) else {
        return;
    };
    let Some(pieces) = vmm.bg.pop_for_write(&mut vmm.bitmap) else {
        // The FIFO may have drained entirely through discards (guest
        // writes beat every queued block): restart the supply.
        vmm.writer_idle = true;
        retriever_fire(m, sim);
        maybe_begin_devirt(m, sim);
        return;
    };
    vmm.cpu_time += VMM_OP_CPU;
    vmm.port.begin_multiplex(sim.now());
    vmm.multiplex = Some(MultiplexInFlight {
        pieces,
        next: 0,
        buf: None,
        prd: None,
    });
    multiplex_next_piece(m, sim);
}

fn multiplex_next_piece(m: &mut Machine, sim: &mut MachineSim) {
    let vmm = m.vmm.as_mut().expect("multiplex without vmm");
    let mx = vmm.multiplex.as_mut().expect("no multiplex in flight");
    // Free the previous piece's buffers.
    for addr in [mx.buf.take(), mx.prd.take()].into_iter().flatten() {
        m.hw.mem.free(addr);
    }
    let Some(piece) = mx.pieces.get(mx.next).cloned() else {
        return finish_multiplex(m, sim);
    };
    mx.next += 1;
    let (range, sectors) = (piece.range, piece.data.to_vec());
    let buf = m.hw.mem.alloc(DmaBuffer { sectors });
    let entries = vec![PrdEntry {
        buf,
        sectors: range.sectors,
    }];
    let prd = m.hw.mem.alloc(PrdTable { entries });
    (mx.buf, mx.prd) = (Some(buf), Some(prd));
    let slot = vmm
        .port
        .inject_write(&mut m.hw, &mut vmm.vmm_clb, range, prd);
    start_media(m, sim, slot, Origin::VmmWrite);
}

fn finish_multiplex(m: &mut Machine, sim: &mut MachineSim) {
    let vmm = m.vmm.as_mut().expect("multiplex without vmm");
    vmm.multiplex = None;
    let replay = vmm
        .port
        .finish_multiplex(sim.now(), &mut m.hw.mem, vmm.vmm_clb);
    replay_guest_writes(m, sim, replay);
    // Pace the next write per moderation (fills are exempt, and so is
    // the post-boot sprint — a finished guest has no I/O to disturb),
    // then continue.
    let guest_finished = m.guest.finished;
    let vmm = m.vmm.as_mut().expect("still here");
    let delay =
        if vmm.bg.has_pending_fills() || (guest_finished && vmm.cfg.moderation.post_boot_sprint) {
            SimDuration::ZERO
        } else {
            vmm.cfg
                .moderation
                .next_delay(vmm.bg.guest_io_rate(sim.now()))
        };
    vmm.writer_idle = true;
    vmm.writer_next_allowed = sim.now() + delay;
    sim.schedule_in(delay, |m: &mut Machine, sim| {
        kick_writer(m, sim);
        maybe_begin_devirt(m, sim);
        retriever_fire(m, sim);
    });
    retriever_fire(m, sim);
}

// --------------------------- de-virtualization ------------------------

/// Whether the deployment is done and devirtualization not yet asked
/// for: the bitmap is complete and nothing is queued or in flight.
fn devirt_due(vmm: &Vmm) -> bool {
    vmm.phase == Phase::Deployment
        && vmm.bitmap.is_complete()
        && !vmm.bg.has_pending_writes()
        && vmm.bg.inflight() == 0
        && vmm.redirect.is_none()
        && vmm.multiplex.is_none()
        && !vmm.devirt_requested
}

fn maybe_begin_devirt(m: &mut Machine, sim: &mut MachineSim) {
    let Some(vmm) = m.vmm.as_mut() else { return };
    if !devirt_due(vmm) {
        return;
    }
    vmm.devirt_requested = true;
    vmm.deployment_done_at = Some(sim.now());
    let dep_start = vmm.deployment_start_at.unwrap_or(SimTime::ZERO);
    m.spans.record(
        dep_start,
        sim.now(),
        "phase",
        "phase.deployment",
        NO_SPAN,
        || "copy-on-read + background copy".into(),
    );
    sim.schedule_in(SimDuration::from_micros(10), begin_devirt);
}

fn begin_devirt(m: &mut Machine, sim: &mut MachineSim) {
    // Wait for a consistent hardware state: no guest command in flight.
    let busy = m.hw.ide.is_busy() || m.hw.ahci.is_busy(0);
    let Some(vmm) = m.vmm.as_mut() else { return };
    if busy {
        sim.schedule_in(SimDuration::from_micros(200), begin_devirt);
        return;
    }
    // Persist the bitmap before letting go of the disk.
    let region = vmm.bitmap_region;
    vmm.bitmap.save_to(m.hw.disk.store_mut(), region);
    vmm.phase = Phase::Devirtualization;
    // Each CPU tears down at its own pace — no TLB-shootdown IPIs needed.
    let vmxoff = vmm.cfg.vmxoff_after_deploy;
    for i in 0..m.hw.cpus.len() {
        let jitter = SimDuration::from_micros(7 * (i as u64 + 1));
        sim.schedule_in(jitter, move |m: &mut Machine, sim| {
            let Some(vmm) = m.vmm.as_mut() else { return };
            if vmxoff {
                vmm.devirt.devirtualize_cpu(sim.now(), i, &mut m.hw.cpus[i]);
            } else {
                // Resident mode (§4.3/§6): nested paging and all traps go,
                // but the VMM stays in VMX root to keep the management NIC
                // hidden. Its residual overhead is negligible — no guest
                // access exits from here on.
                m.hw.cpus[i].disable_ept();
                m.hw.cpus[i].clear_traps();
                m.hw.cpus[i].set_preemption_timer(None);
                vmm.devirt.mark_resident(sim.now(), i);
            }
            if vmm.devirt.all_done() {
                vmm.phase = Phase::BareMetal;
                vmm.bare_metal_at = Some(sim.now());
                let dep_done = vmm.deployment_done_at.unwrap_or(sim.now());
                m.spans.record(
                    dep_done,
                    sim.now(),
                    "phase",
                    "phase.devirtualization",
                    NO_SPAN,
                    || "per-CPU EPT/trap teardown".into(),
                );
                if !vmxoff {
                    m.hw.pci.hide(MGMT_NIC_BDF);
                }
            }
        });
    }
}

// ------------------------- re-virtualization --------------------------
//
// The reverse lifecycle (§5/elasticity): a bare-metal tenant is wound
// back under the VMM, its post-deployment writes are streamed to the
// storage server, and the machine is reset for the next tenant.
//
//   BareMetal → Revirtualization → SnapshotBack → reclaim() → Initialization
//
// Re-virtualization mirrors `begin_devirt` exactly: per-CPU jittered
// VMXON + trap re-arming instead of teardown. Snapshot-back runs the
// background copy's block stream in reverse: the dirty tracker plays the
// (inverted) bitmap, and `snapshot_pump` plays retriever and writer in
// one, on the same request path, retransmit guard and back-off.

/// Starts re-virtualization of a bare-metal machine: re-interposes the
/// mediator by re-arming each CPU's traps and preemption timer (with the
/// same per-CPU jitter as teardown), un-hides the management NIC in
/// resident mode, and — once every CPU is back under the VMM — begins
/// the snapshot-back stream. A no-op unless the machine is in
/// [`Phase::BareMetal`].
pub fn start_revirt(m: &mut Machine, sim: &mut MachineSim) {
    let Some(vmm) = m.vmm.as_mut() else { return };
    if vmm.phase != Phase::BareMetal {
        return;
    }
    vmm.phase = Phase::Revirtualization;
    vmm.revirt_start_at = Some(sim.now());
    // Close the bare-metal phase span so the reverse-lifecycle timeline
    // stays contiguous: bare_metal [bm, revirt], re-virtualization
    // [revirt, snap], snapshot-back [snap, done].
    let bm_at = vmm.bare_metal_at.unwrap_or(sim.now());
    m.spans.record(
        bm_at,
        sim.now(),
        "phase",
        "phase.bare_metal",
        NO_SPAN,
        || "tenant on bare metal".into(),
    );
    let vmxoff = vmm.cfg.vmxoff_after_deploy;
    if !vmxoff {
        // Resident mode hid the management NIC on the way down; the VMM
        // needs it back before it can talk to the storage server.
        m.hw.pci.unhide(MGMT_NIC_BDF);
    }
    for i in 0..m.hw.cpus.len() {
        let jitter = SimDuration::from_micros(7 * (i as u64 + 1));
        sim.schedule_in(jitter, move |m: &mut Machine, sim| {
            let Some(vmm) = m.vmm.as_mut() else { return };
            if vmm.phase != Phase::Revirtualization {
                return;
            }
            vmm.devirt.revirtualize_cpu(sim.now(), i, &mut m.hw.cpus[i]);
            // Back in VMX root: from here this CPU's device accesses exit
            // into the VMM again.
            arm_vmm_traps(&mut m.hw.cpus[i]);
            if vmm.devirt.all_virtualized() {
                let revirt_at = vmm.revirt_start_at.unwrap_or(sim.now());
                m.spans.record(
                    revirt_at,
                    sim.now(),
                    "phase",
                    "phase.re-virtualization",
                    NO_SPAN,
                    || "per-CPU VMXON + trap re-arming".into(),
                );
                begin_snapshot_back(m, sim);
            }
        });
    }
}

/// Enters [`Phase::SnapshotBack`] and starts the dirty-block stream.
fn begin_snapshot_back(m: &mut Machine, sim: &mut MachineSim) {
    let Some(vmm) = m.vmm.as_mut() else { return };
    vmm.phase = Phase::SnapshotBack;
    vmm.snapshot_start_at = Some(sim.now());
    let mut snap = SnapshotBack::new(vmm.cfg.copy_block_sectors, vmm.cfg.retriever_depth);
    snap.stream.set_telemetry(m.metrics.clone());
    snap.stream.set_spans(m.spans.clone());
    vmm.snap = Some(snap);
    // The deployment sampler chain ended at bare metal; the reverse
    // lifecycle's rows are taken at its two edges instead, so no event
    // chain is added.
    sample_flight_row(m, sim.now());
    snapshot_pump(m, sim);
}

/// What a sender tick at `at` would do: re-arm at the back-off
/// deadline, act (claim dirty runs or close the phase), or nothing.
fn snapshot_plan(m: &Machine, at: SimTime, rearms: &mut Rearms<Machine>) -> Tick {
    let Some(vmm) = m.vmm.as_ref() else {
        return Tick::Idle;
    };
    if vmm.phase != Phase::SnapshotBack || vmm.reclaim_error.is_some() {
        return Tick::Idle;
    }
    let Some(snap) = vmm.snap.as_ref() else {
        return Tick::Idle;
    };
    let ready = snap.stream.ready_at();
    if ready > at {
        rearms.arm(SNAPSHOT_SENDER, ready);
        return Tick::Idle;
    }
    if snap.can_send(&vmm.dirty) || snapshot_done_due(vmm) {
        Tick::Act
    } else {
        Tick::Idle
    }
}

/// The snapshot-back sender: retriever and writer in one. Claims dirty
/// runs from the tracker (up to the in-flight window) and streams them
/// to the server as AoE writes on the one request path (§3.3's, with
/// the write read from the local disk). Reschedules itself after a
/// failure back-off on its timer; completes via [`maybe_finish_snapshot`].
fn snapshot_pump(m: &mut Machine, sim: &mut MachineSim) {
    let now = sim.now();
    let Some(vmm) = m.vmm.as_mut() else { return };
    // Post-failure back-off: the sender goes quiet for the same
    // exponential window the background retriever uses.
    if vmm.phase != Phase::SnapshotBack || vmm.reclaim_error.is_some() {
        return;
    }
    let Some(snap) = vmm.snap.as_mut() else {
        return;
    };
    let ready = snap.stream.ready_at();
    if ready > now {
        sim.arm(SNAPSHOT_SENDER, ready);
        return;
    }
    let claims: Vec<_> = iter::from_fn(|| snap.next_send(now, &mut vmm.dirty)).collect();
    let by = Requester::Stream(StreamKind::Snapshot);
    if request(m, sim, by, &claims) > 0 {
        schedule_retransmit_guard(m, sim);
    }
    maybe_finish_snapshot(m, sim);
}

/// Whether the snapshot-back phase is ready to close: the tracker is
/// clean and no send is in flight.
fn snapshot_done_due(vmm: &Vmm) -> bool {
    vmm.phase == Phase::SnapshotBack
        && vmm.snapshot_done_at.is_none()
        && vmm.reclaim_error.is_none()
        && vmm.snap.as_ref().is_some_and(|s| s.complete(&vmm.dirty))
}

/// Closes the snapshot-back phase once the tracker is clean and no sends
/// are in flight. Re-entrant: called after every ack and pump round.
fn maybe_finish_snapshot(m: &mut Machine, sim: &mut MachineSim) {
    let Some(vmm) = m.vmm.as_mut() else { return };
    if !snapshot_done_due(vmm) {
        return;
    }
    vmm.snapshot_done_at = Some(sim.now());
    let snap_at = vmm.snapshot_start_at.unwrap_or(sim.now());
    m.spans.record(
        snap_at,
        sim.now(),
        "phase",
        "phase.snapshot-back",
        NO_SPAN,
        || "dirty-block stream to server".into(),
    );
    sample_flight_row(m, sim.now());
}

/// Resets a reclaimed machine for its next tenant: fresh zeroed disk and
/// deployment bitmap (seeded from the new `spec.image_seed` mirror),
/// fresh mediators, background copy, AoE client, and guest. The CPUs
/// stay armed from re-virtualization, so the machine lands back in
/// [`Phase::Initialization`] ready for [`start_deployment`].
///
/// Fails with [`ReclaimError::SnapshotIncomplete`] unless snapshot-back
/// finished, and re-surfaces a terminal snapshot-back failure.
///
/// Note the server side is *not* touched: single-machine callers point
/// the existing server at the next image; fleet callers re-route the
/// client's endpoints before redeploying.
///
/// # Panics
///
/// Panics on a machine without a VMM, or if `spec` changes the CPU
/// count (reclaim re-images a machine, it does not re-build it).
pub fn reclaim(
    m: &mut Machine,
    sim: &mut MachineSim,
    spec: &MachineSpec,
) -> Result<(), ReclaimError> {
    let now = sim.now();
    let vmm = m.vmm.as_mut().expect("reclaim: no VMM");
    if let Some(e) = vmm.reclaim_error {
        return Err(e);
    }
    if vmm.phase != Phase::SnapshotBack || vmm.snapshot_done_at.is_none() {
        let inflight = vmm.snap.as_ref().map_or(0, |s| s.stream.inflight_sectors);
        return Err(ReclaimError::SnapshotIncomplete {
            dirty_sectors: vmm.dirty.dirty_sectors() + inflight,
        });
    }
    assert_eq!(
        m.hw.cpus.len(),
        spec.cpus,
        "reclaim cannot change the CPU count"
    );

    // Fresh tenant-visible hardware state: a zeroed disk whose mirror is
    // the *new* tenant image, and clean controllers.
    let store = BlockStore::zeroed_with_mirror(spec.capacity_sectors, spec.image_seed);
    m.hw.disk = new_disk(spec.capacity_sectors, store);
    m.hw.ide = IdeController::new();
    m.hw.ahci = AhciController::new(1);

    // Fresh per-tenant VMM state, built exactly as in `Machine::bmcast`.
    // Only the machine's own plumbing carries over: the initialized NIC
    // and its RDMA completion queue, the restart DMA target in VMM
    // memory, the config (the transport survives with it, so the next
    // deployment runs on the same fabric plan), and the client's
    // per-shelf read tally, which must keep counting with the metrics
    // and spans that outlive the client. Moderation restarts from now.
    let old = m.vmm.take().expect("still here");
    let mut vmm = Vmm {
        nic: old.nic,
        rdma_cq: old.rdma_cq,
        writer_next_allowed: now,
        ..Vmm::new(spec, old.cfg, old.dummy_buf, old.dummy_prd)
    };
    vmm.client.carry_reads_by_shelf(&old.client);
    m.vmm = Some(vmm);

    // Fresh guest for the next tenant.
    m.guest = Guest::new(spec.controller);

    // Re-attach observability to the replacement components — they share
    // the machine's existing registries, so figures keep one timeline.
    m.set_telemetry(m.metrics.clone(), Tracer);
    m.set_flight_recorder(m.spans.clone(), m.sampler.clone());

    Ok(())
}

/// State carried across a shutdown/reboot: the local disk (with the
/// bitmap persisted in its reserved region) and the in-memory bitmap to
/// validate against it.
#[derive(Debug)]
pub struct RebootState {
    /// The local disk as the machine left it.
    pub disk: DiskModel,
    /// The bitmap at shutdown.
    pub bitmap: BlockBitmap,
    /// Where the bitmap was persisted.
    pub bitmap_region: BlockRange,
}

/// Persists the bitmap and tears the machine down for a reboot.
///
/// # Panics
///
/// Panics on a bare-metal machine (nothing to persist).
pub fn shutdown_for_reboot(mut m: Machine) -> RebootState {
    let vmm = m.vmm.as_mut().expect("shutdown_for_reboot: no VMM");
    let region = vmm.bitmap_region;
    // Crash consistency: a multiplexed write claims its blocks in the
    // bitmap *before* the data is durable. Un-claim anything still in
    // flight so the resumed deployment re-copies it (idempotent).
    for piece in vmm.multiplex.iter().flat_map(|mx| &mx.pieces) {
        vmm.bitmap.clear(piece.range);
    }
    vmm.bitmap.save_to(m.hw.disk.store_mut(), region);
    let vmm = m.vmm.take().expect("just had it");
    RebootState {
        disk: m.hw.disk,
        bitmap: vmm.bitmap,
        bitmap_region: region,
    }
}

impl Machine {
    /// Reconstructs a BMcast machine after a reboot, resuming the
    /// interrupted deployment from the persisted bitmap.
    ///
    /// # Panics
    ///
    /// Panics if the on-disk bitmap does not match `state.bitmap` (a torn
    /// save — the deployment must restart from scratch instead).
    pub fn bmcast_resumed(spec: &MachineSpec, cfg: BmcastConfig, state: RebootState) -> Machine {
        assert!(
            state
                .bitmap
                .matches_saved(state.disk.store(), state.bitmap_region),
            "persisted bitmap is torn; cannot resume"
        );
        let mut m = Machine::bmcast(spec, cfg);
        m.hw.disk = state.disk;
        let vmm = m.vmm.as_mut().expect("bmcast machine has a VMM");
        vmm.bitmap = state.bitmap;
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec(controller: ControllerKind) -> MachineSpec {
        MachineSpec {
            capacity_sectors: 1 << 16,
            image_sectors: 1 << 15,
            image_seed: 0xABCD,
            cpus: 4,
            mem_bytes: 1 << 30,
            controller,
        }
    }

    /// A program that reads one range and stops.
    struct OneRead {
        range: BlockRange,
        pub got: Option<Vec<SectorData>>,
    }

    impl GuestProgram for OneRead {
        fn name(&self) -> &str {
            "one-read"
        }
        fn start(&mut self, ctl: &mut GuestCtl) {
            ctl.submit(IoRequest::read(RequestId(1), self.range));
        }
        fn on_io_complete(&mut self, io: &CompletedIo, ctl: &mut GuestCtl) {
            self.got = Some(io.data.clone());
            ctl.finish();
        }
        fn on_timer(&mut self, _token: u64, _ctl: &mut GuestCtl) {}
    }

    fn run_one_read(controller: ControllerKind, with_vmm: bool) -> (Machine, SimTime) {
        let spec = small_spec(controller);
        let mut m = if with_vmm {
            Machine::bmcast(&spec, BmcastConfig::default())
        } else {
            Machine::bare_metal(&spec)
        };
        let mut sim = MachineSim::new();
        m.set_program(Box::new(OneRead {
            range: BlockRange::new(Lba(100), 8),
            got: None,
        }));
        if with_vmm {
            start_deployment(&mut m, &mut sim);
        }
        start_program(&mut m, &mut sim);
        let ok = sim.run_while(&mut m, |m| !m.guest.finished);
        assert!(ok, "guest program should finish");
        let t = sim.now();
        (m, t)
    }

    #[test]
    fn bare_metal_read_returns_image_data() {
        for controller in [ControllerKind::Ide, ControllerKind::Ahci] {
            let (m, t) = run_one_read(controller, false);
            assert_eq!(m.guest.ios_completed, 1);
            assert!(t > SimTime::ZERO);
            assert_eq!(m.stats.redirected_ios, 0);
            let _ = m;
        }
    }

    #[test]
    fn copy_on_read_returns_server_data_through_both_mediators() {
        for controller in [ControllerKind::Ide, ControllerKind::Ahci] {
            let spec = small_spec(controller);
            let mut m = Machine::bmcast(
                &spec,
                BmcastConfig {
                    // Quiet the background copy so only copy-on-read runs.
                    moderation: crate::config::Moderation {
                        vmm_write_interval: SimDuration::from_secs(3600),
                        ..Default::default()
                    },
                    ..BmcastConfig::default()
                },
            );
            let mut sim = MachineSim::new();
            m.set_program(Box::new(OneRead {
                range: BlockRange::new(Lba(100), 8),
                got: None,
            }));
            if let Some(vmm) = m.vmm.as_mut() {
                vmm.phase = Phase::Deployment;
            }
            start_program(&mut m, &mut sim);
            let ok = sim.run_while(&mut m, |m| !m.guest.finished);
            assert!(ok, "{controller:?}: guest should finish");
            assert_eq!(m.stats.redirected_ios, 1, "{controller:?}");
            // The data must be exactly the server image's.
            assert_eq!(m.guest.ios_completed, 1);
        }
    }

    #[test]
    fn full_deployment_reaches_bare_metal() {
        let spec = MachineSpec {
            capacity_sectors: 1 << 13,
            image_sectors: 1 << 13,
            image_seed: 0x77,
            cpus: 2,
            mem_bytes: 1 << 30,
            controller: ControllerKind::Ide,
        };
        let mut m = Machine::bmcast(
            &spec,
            BmcastConfig {
                moderation: crate::config::Moderation::full_speed(),
                ..BmcastConfig::default()
            },
        );
        let mut sim = MachineSim::new();
        start_deployment(&mut m, &mut sim);
        sim.run_until(&mut m, SimTime::from_secs(120));
        let vmm = m.vmm.as_ref().unwrap();
        assert!(
            vmm.bitmap.is_complete(),
            "progress {}",
            vmm.bitmap.progress()
        );
        assert_eq!(vmm.phase, Phase::BareMetal);
        assert!(vmm.bare_metal_at.is_some());
        for cpu in &m.hw.cpus {
            assert!(!cpu.vmx_on());
        }
        // Local disk now byte-identical to the image (outside the small
        // tail carved out for bitmap persistence).
        for lba in [0u64, 100, 4000, (1 << 13) - 3] {
            assert_eq!(
                m.hw.disk.store().read(Lba(lba)),
                BlockStore::image_content(0x77, Lba(lba)),
                "sector {lba}"
            );
        }
    }

    #[test]
    fn guest_write_during_deployment_survives() {
        let spec = MachineSpec {
            capacity_sectors: 1 << 13,
            image_sectors: 1 << 13,
            image_seed: 0x77,
            cpus: 2,
            mem_bytes: 1 << 30,
            controller: ControllerKind::Ide,
        };
        struct WriteThenWait;
        impl GuestProgram for WriteThenWait {
            fn name(&self) -> &str {
                "write-then-wait"
            }
            fn start(&mut self, ctl: &mut GuestCtl) {
                ctl.submit(IoRequest::write(
                    RequestId(9),
                    BlockRange::new(Lba(4096), 4),
                    vec![SectorData(0xFEED); 4],
                ));
            }
            fn on_io_complete(&mut self, _io: &CompletedIo, ctl: &mut GuestCtl) {
                ctl.finish();
            }
            fn on_timer(&mut self, _t: u64, _ctl: &mut GuestCtl) {}
        }
        let mut m = Machine::bmcast(
            &spec,
            BmcastConfig {
                moderation: crate::config::Moderation::full_speed(),
                ..BmcastConfig::default()
            },
        );
        let mut sim = MachineSim::new();
        m.set_program(Box::new(WriteThenWait));
        start_deployment(&mut m, &mut sim);
        start_program(&mut m, &mut sim);
        sim.run_until(&mut m, SimTime::from_secs(120));
        let vmm = m.vmm.as_ref().unwrap();
        assert!(vmm.bitmap.is_complete());
        // The guest's write beat the image copy and survived it.
        for i in 0..4u64 {
            assert_eq!(m.hw.disk.store().read(Lba(4096 + i)), SectorData(0xFEED));
        }
        // Neighbouring sectors got image content.
        assert_eq!(
            m.hw.disk.store().read(Lba(4095)),
            BlockStore::image_content(0x77, Lba(4095))
        );
    }

    #[test]
    fn zero_exits_after_devirtualization() {
        let spec = MachineSpec {
            capacity_sectors: 1 << 12,
            image_sectors: 1 << 12,
            image_seed: 0x11,
            cpus: 2,
            mem_bytes: 1 << 30,
            controller: ControllerKind::Ide,
        };
        let mut m = Machine::bmcast(
            &spec,
            BmcastConfig {
                moderation: crate::config::Moderation::full_speed(),
                ..BmcastConfig::default()
            },
        );
        let mut sim = MachineSim::new();
        start_deployment(&mut m, &mut sim);
        sim.run_until(&mut m, SimTime::from_secs(60));
        assert_eq!(m.phase(), Phase::BareMetal);
        let exits_before = m.hw.cpus[0].total_exits();
        // Post-devirt guest I/O: must not exit, must still work.
        m.set_program(Box::new(OneRead {
            range: BlockRange::new(Lba(10), 4),
            got: None,
        }));
        start_program(&mut m, &mut sim);
        let ok = sim.run_while(&mut m, |m| !m.guest.finished);
        assert!(ok);
        assert_eq!(
            m.hw.cpus[0].total_exits(),
            exits_before,
            "bare-metal I/O must cause zero VM exits"
        );
        assert_eq!(m.guest.ios_completed, 1);
    }

    // ---------------------- reverse lifecycle -------------------------

    /// A program that writes one pattern to one range and stops.
    struct OneWrite {
        range: BlockRange,
        pattern: SectorData,
    }

    impl GuestProgram for OneWrite {
        fn name(&self) -> &str {
            "one-write"
        }
        fn start(&mut self, ctl: &mut GuestCtl) {
            ctl.submit(IoRequest::write(
                RequestId(7),
                self.range,
                vec![self.pattern; self.range.sectors as usize],
            ));
        }
        fn on_io_complete(&mut self, _io: &CompletedIo, ctl: &mut GuestCtl) {
            ctl.finish();
        }
        fn on_timer(&mut self, _t: u64, _ctl: &mut GuestCtl) {}
    }

    fn deploy_to_bare_metal(controller: ControllerKind, vmxoff: bool) -> (Machine, MachineSim) {
        let cfg = BmcastConfig {
            vmxoff_after_deploy: vmxoff,
            ..BmcastConfig::default()
        };
        deploy_with(controller, cfg)
    }

    /// Deploys a small machine at full speed under `cfg`, to bare metal
    /// by 120 s.
    fn deploy_with(controller: ControllerKind, cfg: BmcastConfig) -> (Machine, MachineSim) {
        let spec = MachineSpec {
            capacity_sectors: 1 << 13,
            image_sectors: 1 << 12,
            image_seed: 0x77,
            cpus: 2,
            mem_bytes: 1 << 30,
            controller,
        };
        let cfg = BmcastConfig {
            moderation: crate::config::Moderation::full_speed(),
            ..cfg
        };
        let mut m = Machine::bmcast(&spec, cfg);
        let mut sim = MachineSim::new();
        start_deployment(&mut m, &mut sim);
        sim.run_until(&mut m, SimTime::from_secs(120));
        assert_eq!(m.phase(), Phase::BareMetal);
        (m, sim)
    }

    #[test]
    fn bare_metal_writes_are_dirty_tracked() {
        for controller in [ControllerKind::Ide, ControllerKind::Ahci] {
            let (mut m, mut sim) = deploy_to_bare_metal(controller, true);
            let range = BlockRange::new(Lba(100), 8);
            m.set_program(Box::new(OneWrite {
                range,
                pattern: SectorData(0xD1A7),
            }));
            start_program(&mut m, &mut sim);
            assert!(sim.run_while(&mut m, |m| !m.guest.finished));
            let vmm = m.vmm.as_ref().unwrap();
            assert_eq!(vmm.dirty.dirty_sectors(), 8, "{controller:?}");
            assert!(vmm.dirty.is_dirty(Lba(100)) && vmm.dirty.is_dirty(Lba(107)));
            // Writes beyond the image prefix are scratch, not snapshotted.
            assert!(!vmm.dirty.is_dirty(Lba(1 << 12)));
        }
    }

    #[test]
    fn revirt_re_arms_traps_and_interposes_again() {
        for vmxoff in [true, false] {
            let (mut m, mut sim) = deploy_to_bare_metal(ControllerKind::Ide, vmxoff);
            start_revirt(&mut m, &mut sim);
            sim.run_until(&mut m, sim.now() + SimDuration::from_millis(10));
            let vmm = m.vmm.as_ref().unwrap();
            assert_eq!(vmm.phase, Phase::SnapshotBack, "vmxoff={vmxoff}");
            assert!(vmm.devirt.all_virtualized());
            for cpu in &m.hw.cpus {
                assert!(cpu.vmx_on());
            }
            // Nothing dirty → snapshot-back completes immediately.
            assert!(m.snapshot_complete());
            // Guest I/O exits into the VMM again.
            let exits_before = m.hw.cpus[0].total_exits();
            m.set_program(Box::new(OneRead {
                range: BlockRange::new(Lba(10), 4),
                got: None,
            }));
            start_program(&mut m, &mut sim);
            assert!(sim.run_while(&mut m, |m| !m.guest.finished));
            assert!(
                m.hw.cpus[0].total_exits() > exits_before,
                "re-virtualized I/O must exit into the VMM"
            );
        }
    }

    #[test]
    fn snapshot_back_streams_dirty_blocks_to_server() {
        for controller in [ControllerKind::Ide, ControllerKind::Ahci] {
            let (mut m, mut sim) = deploy_to_bare_metal(controller, true);
            let range = BlockRange::new(Lba(200), 16);
            m.set_program(Box::new(OneWrite {
                range,
                pattern: SectorData(0xBEEF),
            }));
            start_program(&mut m, &mut sim);
            assert!(sim.run_while(&mut m, |m| !m.guest.finished));
            start_revirt(&mut m, &mut sim);
            assert!(
                sim.run_while(&mut m, |m| !m.snapshot_complete()),
                "{controller:?}: snapshot-back should finish"
            );
            let vmm = m.vmm.as_ref().unwrap();
            assert!(vmm.dirty.is_clean());
            assert!(vmm.snap.as_ref().unwrap().sectors_sent() >= 16);
            // The server image now holds the guest's final disk state.
            let server = m.fabric.as_ref().unwrap().server();
            for lba in 200..216u64 {
                assert_eq!(
                    server.disk().store().read(Lba(lba)),
                    SectorData(0xBEEF),
                    "{controller:?}: sector {lba}"
                );
            }
            // Untouched sectors keep the original image content.
            assert_eq!(
                server.disk().store().read(Lba(199)),
                BlockStore::image_content(0x77, Lba(199))
            );
        }
    }

    #[test]
    fn a_failed_batched_snapshot_write_is_one_backoff_step() {
        // Four adjacent claims go out as one batched write into a
        // stalled server. Its failure is one failed request: the sender
        // waits 10 ms, as the retriever would, not 10 ms · 2^3 = 80 ms.
        let mut plan = simkit::fault::FaultPlan::quiet(3);
        let stall = simkit::fault::Window::new(SimTime::from_secs(5), SimTime::from_secs(900));
        plan.server.stall = Some(stall);
        let cfg = BmcastConfig {
            copy_block_sectors: 64,
            transport: crate::transport::TransportKind::Batched,
            faults: Some(plan),
            ..BmcastConfig::default()
        };
        let (mut m, mut sim) = deploy_with(ControllerKind::Ide, cfg);
        // The deployment ends long before the stall begins.
        sim.schedule_at(
            SimTime::from_secs(5),
            |_: &mut Machine, _: &mut MachineSim| {},
        );
        sim.run_until(&mut m, SimTime::from_secs(5));
        m.set_program(Box::new(OneWrite {
            range: BlockRange::new(Lba(256), 256),
            pattern: SectorData(0x5EED),
        }));
        start_program(&mut m, &mut sim);
        assert!(sim.run_while(&mut m, |m| !m.guest.finished));
        start_revirt(&mut m, &mut sim);
        let sender = |m: &Machine| {
            m.vmm
                .as_ref()
                .unwrap()
                .snap
                .as_ref()
                .map(|s| (s.sends(), s.send_failures()))
        };
        assert!(sim.run_while(&mut m, |m| sender(m).is_none_or(|(sent, _)| sent < 4)));
        assert_eq!(m.vmm.as_ref().unwrap().client.outstanding(), 1, "one write");
        assert!(sim.run_while(&mut m, |m| sender(m) == Some((4, 0))));
        assert_eq!(sender(&m), Some((4, 4)), "its four claims fail together");
        let failed_at = sim.now();
        assert!(sim.run_while(&mut m, |m| sender(m) == Some((4, 4))));
        assert_eq!(sender(&m), Some((8, 4)), "all four are claimed again");
        assert_eq!(sim.now() - failed_at, SimDuration::from_millis(10));
    }

    #[test]
    fn reclaim_requires_completed_snapshot() {
        let (mut m, mut sim) = deploy_to_bare_metal(ControllerKind::Ide, true);
        let spec = MachineSpec {
            capacity_sectors: 1 << 13,
            image_sectors: 1 << 12,
            image_seed: 0x99,
            cpus: 2,
            mem_bytes: 1 << 30,
            controller: ControllerKind::Ide,
        };
        // Still bare metal: no snapshot to hand over.
        match reclaim(&mut m, &mut sim, &spec) {
            Err(ReclaimError::SnapshotIncomplete { .. }) => {}
            other => panic!("expected SnapshotIncomplete, got {other:?}"),
        }
    }

    #[test]
    fn early_reclaim_counts_the_sectors_in_flight() {
        // A 3-sector dirty run is in flight when reclaim is asked for:
        // the snapshot lacks 3 sectors, not a copy block's worth.
        let (mut m, mut sim) = deploy_to_bare_metal(ControllerKind::Ide, true);
        m.set_program(Box::new(OneWrite {
            range: BlockRange::new(Lba(40), 3),
            pattern: SectorData(0x3),
        }));
        start_program(&mut m, &mut sim);
        assert!(sim.run_while(&mut m, |m| !m.guest.finished));
        start_revirt(&mut m, &mut sim);
        let inflight = |m: &Machine| m.vmm.as_ref().unwrap().snap.as_ref().map(|s| s.inflight());
        assert!(sim.run_while(&mut m, |m| inflight(m) != Some(1)));
        assert_eq!(m.vmm.as_ref().unwrap().dirty.dirty_sectors(), 0, "claimed");
        let spec = MachineSpec {
            image_seed: 0x99,
            ..small_spec(ControllerKind::Ide)
        };
        assert_eq!(
            reclaim(&mut m, &mut sim, &spec),
            Err(ReclaimError::SnapshotIncomplete { dirty_sectors: 3 })
        );
    }

    #[test]
    fn reclaim_resets_machine_for_new_tenant() {
        let (mut m, mut sim) = deploy_to_bare_metal(ControllerKind::Ide, true);
        m.set_program(Box::new(OneWrite {
            range: BlockRange::new(Lba(50), 4),
            pattern: SectorData(0x0E1D),
        }));
        start_program(&mut m, &mut sim);
        assert!(sim.run_while(&mut m, |m| !m.guest.finished));
        start_revirt(&mut m, &mut sim);
        assert!(sim.run_while(&mut m, |m| !m.snapshot_complete()));

        // New tenant image on the (single-machine) server.
        let spec = MachineSpec {
            capacity_sectors: 1 << 13,
            image_sectors: 1 << 12,
            image_seed: 0x99,
            cpus: 2,
            mem_bytes: 1 << 30,
            controller: ControllerKind::Ide,
        };
        let server_params = DiskParams {
            capacity_sectors: spec.image_sectors,
            ..DiskParams::default()
        };
        *m.fabric.as_mut().unwrap().server_mut() = aoe::AoeServer::new(
            ServerConfig::default(),
            DiskModel::new(
                server_params,
                BlockStore::image(spec.image_sectors, spec.image_seed),
            ),
        );
        reclaim(&mut m, &mut sim, &spec).expect("snapshot done; reclaim must succeed");
        assert_eq!(m.phase(), Phase::Initialization);
        assert!(!m.snapshot_complete());
        // Old tenant's data is gone from the local disk.
        assert_eq!(m.hw.disk.store().read(Lba(50)), SectorData(0));

        // Second deployment lands the new tenant's image.
        start_deployment(&mut m, &mut sim);
        sim.run_until(&mut m, sim.now() + SimDuration::from_secs(120));
        assert_eq!(m.phase(), Phase::BareMetal);
        for lba in [0u64, 50, 1000, (1 << 12) - 1] {
            assert_eq!(
                m.hw.disk.store().read(Lba(lba)),
                BlockStore::image_content(0x99, Lba(lba)),
                "sector {lba}"
            );
        }
    }
}
