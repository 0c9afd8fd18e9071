//! Register-level MegaRAID SAS-style controller (MFI queue interface).
//!
//! §4.3 of the paper observes that "MegaRAID SAS and Revo Drive PCIe SSD
//! devices have similar straightforward interfaces" to IDE/AHCI — i.e.
//! a mediator for them follows the same recipe. This model captures that
//! interface family: the driver builds a *request frame* in memory and
//! posts its address to an **inbound queue port** register; the device
//! executes it, sets the frame's status, pushes the frame address onto an
//! **outbound completion queue**, and raises an interrupt that the driver
//! acknowledges after draining the queue.

use crate::block::BlockRange;
use crate::disk::DiskModel;
use crate::mem::{DmaBuffer, PhysAddr, PhysMem};
use std::collections::VecDeque;

/// Physical base of the controller's MMIO window.
pub const MEGASAS_BAR: u64 = 0xFEC0_0000;
/// Size of the MMIO window.
pub const MEGASAS_BAR_SIZE: u64 = 0x4000;

/// Register offsets.
pub mod reg {
    /// Inbound queue port: write a request-frame address to post it.
    pub const IQP: u64 = 0x40;
    /// Outbound queue port: read pops a completed frame address (0 =
    /// empty).
    pub const OQP: u64 = 0x44;
    /// Outbound interrupt status (bit 0: completions pending).
    pub const OISR: u64 = 0x30;
    /// Outbound interrupt acknowledge (write-1-to-clear).
    pub const OIAR: u64 = 0x34;
}

/// MFI frame command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MfiOp {
    /// Logical-drive read.
    LdRead,
    /// Logical-drive write.
    LdWrite,
}

/// MFI frame status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MfiStatus {
    /// Posted, not yet executed.
    Pending,
    /// Completed successfully.
    Ok,
}

/// A request frame in physical memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MfiFrame {
    /// Operation.
    pub op: MfiOp,
    /// Target sectors.
    pub range: BlockRange,
    /// Data buffer ([`DmaBuffer`]).
    pub buffer: PhysAddr,
    /// Completion status, written by the device.
    pub status: MfiStatus,
}

/// Actions the controller reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MegasasAction {
    /// A frame was posted and awaits execution.
    FramePosted(PhysAddr),
}

/// The controller.
#[derive(Debug, Clone, Default)]
pub struct Megasas {
    /// Posted frames not yet started on the media.
    inbound: VecDeque<PhysAddr>,
    /// Frame currently on the media.
    active: Option<PhysAddr>,
    /// Completed frames awaiting the driver.
    outbound: VecDeque<PhysAddr>,
    irq: bool,
}

impl Megasas {
    /// An idle controller.
    pub fn new() -> Megasas {
        Megasas::default()
    }

    /// Whether `addr` is inside the MMIO window.
    pub fn owns_mmio(addr: u64) -> bool {
        (MEGASAS_BAR..MEGASAS_BAR + MEGASAS_BAR_SIZE).contains(&addr)
    }

    /// Whether any frame is posted or executing.
    pub fn is_busy(&self) -> bool {
        self.active.is_some() || !self.inbound.is_empty()
    }

    /// Whether the interrupt line is asserted.
    pub fn irq_pending(&self) -> bool {
        self.irq
    }

    /// Handles an MMIO write.
    pub fn mmio_write(&mut self, offset: u64, val: u64) -> Option<MegasasAction> {
        match offset {
            reg::IQP => {
                let frame = PhysAddr(val);
                self.inbound.push_back(frame);
                Some(MegasasAction::FramePosted(frame))
            }
            reg::OIAR => {
                if val & 1 != 0 {
                    self.irq = false;
                }
                None
            }
            _ => None,
        }
    }

    /// Handles an MMIO read. Reading OQP pops one completion (0 when
    /// empty).
    pub fn mmio_read(&mut self, offset: u64) -> u64 {
        match offset {
            reg::OQP => self.outbound.pop_front().map(|a| a.0).unwrap_or(0),
            reg::OISR => u64::from(!self.outbound.is_empty()),
            _ => 0,
        }
    }

    /// Removes a posted-but-not-started frame (the mediator's *block*
    /// step during redirection). Returns whether it was found.
    pub fn retract(&mut self, frame: PhysAddr) -> bool {
        let before = self.inbound.len();
        self.inbound.retain(|&f| f != frame);
        before != self.inbound.len()
    }

    /// Starts the next posted frame on the media; returns it for timing.
    pub fn start_next(&mut self) -> Option<PhysAddr> {
        if self.active.is_some() {
            return None;
        }
        let f = self.inbound.pop_front()?;
        self.active = Some(f);
        Some(f)
    }

    /// Completes the active frame: moves data, sets status, queues the
    /// completion, raises the interrupt.
    ///
    /// # Panics
    ///
    /// Panics if nothing is active or the frame/buffer is malformed.
    pub fn complete_active(&mut self, mem: &mut PhysMem, disk: &mut DiskModel) {
        let addr = self.active.take().expect("complete_active: nothing active");
        let frame = *mem.get::<MfiFrame>(addr).expect("frame vanished");
        match frame.op {
            MfiOp::LdRead => {
                let data = disk.store().read_range(frame.range);
                let buf = mem
                    .get_mut::<DmaBuffer>(frame.buffer)
                    .expect("frame buffer vanished");
                buf.sectors.clear();
                buf.sectors.extend_from_slice(&data);
            }
            MfiOp::LdWrite => {
                let data = mem
                    .get::<DmaBuffer>(frame.buffer)
                    .expect("frame buffer vanished")
                    .sectors
                    .clone();
                disk.store_mut().write_range(frame.range, &data);
            }
        }
        let f = mem.get_mut::<MfiFrame>(addr).expect("frame vanished");
        f.status = MfiStatus::Ok;
        self.outbound.push_back(addr);
        self.irq = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{BlockStore, Lba, SectorData};
    use crate::disk::DiskParams;

    fn rig() -> (Megasas, PhysMem, DiskModel) {
        let params = DiskParams {
            capacity_sectors: 1 << 16,
            ..DiskParams::default()
        };
        let disk = DiskModel::new(
            params.clone(),
            BlockStore::image(params.capacity_sectors, 0x5A5),
        );
        (Megasas::new(), PhysMem::new(1 << 30), disk)
    }

    fn post_read(ctl: &mut Megasas, mem: &mut PhysMem, lba: u64, n: u32) -> (PhysAddr, PhysAddr) {
        let buffer = mem.alloc(DmaBuffer::new(n as usize));
        let frame = mem.alloc(MfiFrame {
            op: MfiOp::LdRead,
            range: BlockRange::new(Lba(lba), n),
            buffer,
            status: MfiStatus::Pending,
        });
        let action = ctl.mmio_write(reg::IQP, frame.0);
        assert_eq!(action, Some(MegasasAction::FramePosted(frame)));
        (frame, buffer)
    }

    #[test]
    fn read_frame_lifecycle() {
        let (mut ctl, mut mem, mut disk) = rig();
        let (frame, buffer) = post_read(&mut ctl, &mut mem, 77, 4);
        assert!(ctl.is_busy());
        assert_eq!(ctl.start_next(), Some(frame));
        ctl.complete_active(&mut mem, &mut disk);
        assert!(!ctl.is_busy());
        assert!(ctl.irq_pending());
        assert_eq!(mem.get::<MfiFrame>(frame).unwrap().status, MfiStatus::Ok);
        assert_eq!(
            mem.get::<DmaBuffer>(buffer).unwrap().sectors[0],
            BlockStore::image_content(0x5A5, Lba(77))
        );
        // Driver side: pop the completion, ack the interrupt.
        assert_eq!(ctl.mmio_read(reg::OISR), 1);
        assert_eq!(ctl.mmio_read(reg::OQP), frame.0);
        assert_eq!(ctl.mmio_read(reg::OQP), 0, "queue drained");
        ctl.mmio_write(reg::OIAR, 1);
        assert!(!ctl.irq_pending());
    }

    #[test]
    fn write_frame_persists() {
        let (mut ctl, mut mem, mut disk) = rig();
        let mut buf = DmaBuffer::new(2);
        buf.sectors = vec![SectorData(1), SectorData(2)];
        let buffer = mem.alloc(buf);
        let frame = mem.alloc(MfiFrame {
            op: MfiOp::LdWrite,
            range: BlockRange::new(Lba(10), 2),
            buffer,
            status: MfiStatus::Pending,
        });
        ctl.mmio_write(reg::IQP, frame.0);
        ctl.start_next().unwrap();
        ctl.complete_active(&mut mem, &mut disk);
        assert_eq!(disk.store().read(Lba(10)), SectorData(1));
        assert_eq!(disk.store().read(Lba(11)), SectorData(2));
    }

    #[test]
    fn frames_queue_and_execute_in_order() {
        let (mut ctl, mut mem, mut disk) = rig();
        let (f1, _) = post_read(&mut ctl, &mut mem, 1, 1);
        let (f2, _) = post_read(&mut ctl, &mut mem, 2, 1);
        assert_eq!(ctl.start_next(), Some(f1));
        assert_eq!(ctl.start_next(), None, "one frame on the media at a time");
        ctl.complete_active(&mut mem, &mut disk);
        assert_eq!(ctl.start_next(), Some(f2));
        ctl.complete_active(&mut mem, &mut disk);
        assert_eq!(ctl.mmio_read(reg::OQP), f1.0);
        assert_eq!(ctl.mmio_read(reg::OQP), f2.0);
    }

    #[test]
    fn retract_blocks_a_posted_frame() {
        let (mut ctl, mut mem, _) = rig();
        let (frame, _) = post_read(&mut ctl, &mut mem, 5, 1);
        assert!(ctl.retract(frame));
        assert!(!ctl.is_busy());
        assert!(!ctl.retract(frame), "already gone");
    }

    #[test]
    fn mmio_window() {
        assert!(Megasas::owns_mmio(MEGASAS_BAR));
        assert!(!Megasas::owns_mmio(MEGASAS_BAR + MEGASAS_BAR_SIZE));
    }
}
