//! The MegaRAID SAS device mediator.
//!
//! The paper's §4.3 claim — "MegaRAID SAS and Revo Drive PCIe SSD devices
//! have similar straightforward interfaces", so mediators generalize —
//! made concrete. The MFI queue interface needs the same three tasks as
//! IDE/AHCI and nothing more:
//!
//! - **interpretation**: a posted frame address *is* the command; the
//!   mediator reads the frame from guest memory.
//! - **redirection**: hold the inbound post, fetch from the server, fill
//!   the guest's buffer, then rewrite the frame to a dummy 1-sector read
//!   and repost it so the device itself completes the guest's frame.
//! - **multiplexing**: post VMM-owned frames when the queue is idle, hide
//!   their completions from the outbound queue (the mediator filters OQP
//!   reads), and queue guest posts meanwhile.

use crate::bitmap::BlockBitmap;
use crate::mediator::{Mediation, MediatorMode, MediatorNames, Stat};
use hwsim::block::BlockRange;
use hwsim::ide::AtaOp;
use hwsim::megasas::{reg, MfiFrame, MfiOp};
use hwsim::mem::{PhysAddr, PhysMem};

/// Verdict on a guest MMIO access to the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MegasasVerdict {
    /// Deliver unchanged.
    Forward,
    /// Swallow; queued for replay.
    Swallow,
    /// Hold this post for I/O redirection.
    StartRedirect(MegasasRedirect),
}

/// A held guest frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MegasasRedirect {
    /// The guest's frame address.
    pub frame: PhysAddr,
    /// Decoded target range.
    pub range: BlockRange,
    /// The guest's data buffer.
    pub buffer: PhysAddr,
}

/// The MegaRAID mediator's span track and metric names.
const NAMES: MediatorNames = mediator_names!("megasas");

/// The mediator.
#[derive(Debug)]
pub struct MegasasMediator {
    /// The shared mediation policy (no protected region).
    pub mediation: Mediation,
    /// Guest posts swallowed during mediation, in order.
    queued_posts: Vec<PhysAddr>,
    /// VMM-owned frames whose completions must be hidden from the guest.
    vmm_frames: Vec<PhysAddr>,
}

impl Default for MegasasMediator {
    fn default() -> MegasasMediator {
        MegasasMediator::new()
    }
}

impl MegasasMediator {
    /// An idle mediator.
    pub fn new() -> MegasasMediator {
        MegasasMediator {
            mediation: Mediation::new(&NAMES, None),
            queued_posts: Vec::new(),
            vmm_frames: Vec::new(),
        }
    }

    /// Processes a trapped guest MMIO write.
    pub fn on_guest_write(
        &mut self,
        offset: u64,
        val: u64,
        mem: &PhysMem,
        bitmap: &mut BlockBitmap,
    ) -> MegasasVerdict {
        if offset != reg::IQP {
            return MegasasVerdict::Forward; // interrupt acks etc.
        }
        let core = &mut self.mediation;
        if core.mode() != MediatorMode::Normal {
            self.queued_posts.push(PhysAddr(val));
            core.count(Stat::QueuedAccesses);
            return MegasasVerdict::Swallow;
        }
        let frame_addr = PhysAddr(val);
        let Some(frame) = mem.get::<MfiFrame>(frame_addr) else {
            return MegasasVerdict::Forward; // uninterpretable: hardware's problem
        };
        core.count(Stat::InterpretedCommands);
        core.instant("io.decode", || {
            format!(
                "frame {:#x} {:?} lba {} x{}",
                frame_addr.0, frame.op, frame.range.lba.0, frame.range.sectors
            )
        });
        let op = match frame.op {
            MfiOp::LdRead => AtaOp::ReadDma,
            MfiOp::LdWrite => AtaOp::WriteDma,
        };
        if core.route(op, frame.range, bitmap).is_none() {
            return MegasasVerdict::Forward;
        }
        core.interpret(true, frame.range, String::new);
        core.hold(MediatorMode::Redirecting, || {
            format!("redirect hold frame {:#x}", frame_addr.0)
        });
        MegasasVerdict::StartRedirect(MegasasRedirect {
            frame: frame_addr,
            range: frame.range,
            buffer: frame.buffer,
        })
    }

    /// Filters a trapped guest OQP/OISR read: completions of VMM-owned
    /// frames are consumed invisibly, so the guest only ever pops its own.
    pub fn filter_oqp_pop(&mut self, popped: u64) -> u64 {
        if popped == 0 {
            return 0;
        }
        if let Some(pos) = self.vmm_frames.iter().position(|f| f.0 == popped) {
            self.vmm_frames.remove(pos);
            self.mediation.count(Stat::EmulatedReads);
            0 // the guest sees an empty queue slot
        } else {
            popped
        }
    }

    /// Rewrites a held frame into the dummy restart: a 1-sector read of
    /// the warm dummy sector into a VMM buffer. Reposting the frame makes
    /// the device complete the *guest's* frame and raise the interrupt.
    ///
    /// # Panics
    ///
    /// Panics if `frame` does not name an [`MfiFrame`].
    pub fn rewrite_for_dummy(mem: &mut PhysMem, frame: PhysAddr, dummy_buf: PhysAddr) {
        let f = mem
            .get_mut::<MfiFrame>(frame)
            .expect("rewrite_for_dummy: no frame");
        f.range = BlockRange::new(crate::mediator::ide::DUMMY_LBA, 1);
        f.buffer = dummy_buf;
    }

    /// Leaves redirection, returning queued guest posts for replay.
    ///
    /// # Panics
    ///
    /// Panics if not redirecting.
    pub fn finish_redirect(&mut self) -> Vec<PhysAddr> {
        self.mediation.release(MediatorMode::Redirecting);
        std::mem::take(&mut self.queued_posts)
    }

    /// Whether the VMM may multiplex (device idle from the interpreted
    /// point of view).
    pub fn can_multiplex(&self, device_busy: bool) -> bool {
        self.mediation.mode() == MediatorMode::Normal && !device_busy
    }

    /// Enters multiplexing with a VMM-owned frame (its completion will be
    /// hidden).
    ///
    /// # Panics
    ///
    /// Panics unless idle.
    pub fn begin_multiplex(&mut self, vmm_frame: PhysAddr) {
        self.mediation.hold(MediatorMode::Multiplexing, || {
            format!("multiplex hold frame {:#x}", vmm_frame.0)
        });
        self.vmm_frames.push(vmm_frame);
    }

    /// Leaves multiplexing, returning queued guest posts for replay.
    ///
    /// # Panics
    ///
    /// Panics if not multiplexing.
    pub fn finish_multiplex(&mut self) -> Vec<PhysAddr> {
        self.mediation.release(MediatorMode::Multiplexing);
        std::mem::take(&mut self.queued_posts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwsim::block::{BlockStore, Lba, SectorData};
    use hwsim::disk::{DiskModel, DiskParams};
    use hwsim::megasas::{Megasas, MegasasAction, MfiStatus};
    use hwsim::mem::DmaBuffer;

    fn rig() -> (Megasas, MegasasMediator, PhysMem, DiskModel, BlockBitmap) {
        let params = DiskParams {
            capacity_sectors: 1 << 16,
            ..DiskParams::default()
        };
        let disk = DiskModel::new(
            params.clone(),
            BlockStore::zeroed_with_mirror(params.capacity_sectors, 0xE5),
        );
        (
            Megasas::new(),
            MegasasMediator::new(),
            PhysMem::new(1 << 30),
            disk,
            BlockBitmap::new(1 << 16),
        )
    }

    fn guest_frame(mem: &mut PhysMem, op: MfiOp, lba: u64, n: u32) -> (PhysAddr, PhysAddr) {
        let buffer = mem.alloc(DmaBuffer::new(n as usize));
        let frame = mem.alloc(MfiFrame {
            op,
            range: BlockRange::new(Lba(lba), n),
            buffer,
            status: MfiStatus::Pending,
        });
        (frame, buffer)
    }

    #[test]
    fn empty_read_is_held_and_dummy_restart_completes_it() {
        let (mut ctl, mut med, mut mem, mut disk, mut bitmap) = rig();
        let (frame, buffer) = guest_frame(&mut mem, MfiOp::LdRead, 500, 8);
        // The guest posts; the mediator holds it.
        let v = med.on_guest_write(reg::IQP, frame.0, &mem, &mut bitmap);
        let MegasasVerdict::StartRedirect(r) = v else {
            panic!("expected redirect, got {v:?}");
        };
        assert_eq!(r.range, BlockRange::new(Lba(500), 8));
        // (system layer would not forward the post: controller stays idle)
        assert!(!ctl.is_busy());

        // VMM fetched the data and plays virtual DMA controller.
        let server = BlockStore::image(1 << 16, 0x777);
        let data = server.read_range(r.range);
        mem.get_mut::<DmaBuffer>(r.buffer).unwrap().sectors = data.clone();

        // Dummy restart: rewrite + repost the guest's own frame.
        let dummy = mem.alloc(DmaBuffer::new(1));
        MegasasMediator::rewrite_for_dummy(&mut mem, frame, dummy);
        med.finish_redirect();
        assert_eq!(
            ctl.mmio_write(reg::IQP, frame.0),
            Some(MegasasAction::FramePosted(frame))
        );
        ctl.start_next().unwrap();
        ctl.complete_active(&mut mem, &mut disk);
        assert!(ctl.irq_pending(), "the device raises the guest's interrupt");
        // The guest's buffer holds the server data, not the dummy sector.
        assert_eq!(mem.get::<DmaBuffer>(buffer).unwrap().sectors, data);
        assert_eq!(mem.get::<MfiFrame>(frame).unwrap().status, MfiStatus::Ok);
    }

    #[test]
    fn filled_read_and_writes_pass_through() {
        let (_ctl, mut med, mut mem, _disk, mut bitmap) = rig();
        bitmap.mark_filled(BlockRange::new(Lba(0), 64));
        let (rf, _) = guest_frame(&mut mem, MfiOp::LdRead, 0, 8);
        assert_eq!(
            med.on_guest_write(reg::IQP, rf.0, &mem, &mut bitmap),
            MegasasVerdict::Forward
        );
        let (wf, _) = guest_frame(&mut mem, MfiOp::LdWrite, 900, 4);
        assert_eq!(
            med.on_guest_write(reg::IQP, wf.0, &mem, &mut bitmap),
            MegasasVerdict::Forward
        );
        assert!(
            bitmap.all_filled(BlockRange::new(Lba(900), 4)),
            "write marked"
        );
    }

    #[test]
    fn multiplexed_vmm_completion_is_invisible() {
        let (mut ctl, mut med, mut mem, mut disk, mut bitmap) = rig();
        bitmap.mark_filled(BlockRange::new(Lba(0), 1 << 12));
        // VMM posts its own write while the guest is idle.
        let vmm_buf = mem.alloc(DmaBuffer {
            sectors: vec![SectorData(42); 8],
        });
        let vmm_frame = mem.alloc(MfiFrame {
            op: MfiOp::LdWrite,
            range: BlockRange::new(Lba(4096), 8),
            buffer: vmm_buf,
            status: MfiStatus::Pending,
        });
        assert!(med.can_multiplex(ctl.is_busy()));
        med.begin_multiplex(vmm_frame);
        ctl.mmio_write(reg::IQP, vmm_frame.0);
        // Guest posts meanwhile: queued.
        let (gf, _) = guest_frame(&mut mem, MfiOp::LdRead, 0, 1);
        assert_eq!(
            med.on_guest_write(reg::IQP, gf.0, &mem, &mut bitmap),
            MegasasVerdict::Swallow
        );
        ctl.start_next().unwrap();
        ctl.complete_active(&mut mem, &mut disk);
        // The VMM's completion pops but the guest must never see it.
        let popped = ctl.mmio_read(reg::OQP);
        assert_eq!(med.filter_oqp_pop(popped), 0, "hidden from the guest");
        let replay = med.finish_multiplex();
        assert_eq!(replay, vec![gf]);
        assert_eq!(disk.store().read(Lba(4096)), SectorData(42));
    }

    #[test]
    fn guest_completions_pass_the_filter() {
        let (_ctl, mut med, _mem, _disk, _bitmap) = rig();
        assert_eq!(med.filter_oqp_pop(0x1234), 0x1234);
        assert_eq!(med.filter_oqp_pop(0), 0);
    }
}
