//! Register-level AHCI host bus adapter.
//!
//! Models the memory-mapped HBA the paper's AHCI device mediator (2,285
//! LOC in the prototype) interposes on: generic host control plus per-port
//! registers (`PxCLB`, `PxIS`, `PxIE`, `PxCI`, ...), command lists with 32
//! slots, command tables holding an H2D register FIS, and PRD tables for
//! scatter-gather DMA. The guest's unmodified AHCI driver builds these
//! structures in physical memory and rings `PxCI`; the mediator interprets
//! the very same MMIO traffic and in-memory structures.
//!
//! Simplifications: NCQ (`PxSACT`) is modeled as ordinary slot issue, and
//! FIS-receive areas are elided — neither affects mediation logic, which
//! keys off `PxCI`/`PxIS` and command tables.

use crate::block::BlockRange;
use crate::disk::DiskModel;
use crate::ide::{dma_transfer, AtaOp, PrdTable};
use crate::mem::{PhysAddr, PhysMem};

/// Physical base address of the HBA's MMIO window (ABAR).
pub const ABAR: u64 = 0xFEB0_0000;
/// Size of the MMIO window.
pub const ABAR_SIZE: u64 = 0x1100;
/// Byte offset of port-register banks within the window.
pub const PORT_BASE: u64 = 0x100;
/// Stride between port banks.
pub const PORT_STRIDE: u64 = 0x80;

/// Port-bank register offsets.
pub mod preg {
    /// Command-list base address.
    pub const CLB: u64 = 0x00;
    /// Interrupt status (write-1-to-clear).
    pub const IS: u64 = 0x10;
    /// Interrupt enable.
    pub const IE: u64 = 0x14;
    /// Command/status.
    pub const CMD: u64 = 0x18;
    /// Task-file data (shadow ATA status in bits 0..8).
    pub const TFD: u64 = 0x20;
    /// Command issue: one bit per slot.
    pub const CI: u64 = 0x38;
}

/// An H2D register FIS: the ATA command carried in a command table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct H2dFis {
    /// ATA operation.
    pub op: AtaOp,
    /// Target sectors.
    pub range: BlockRange,
}

/// A command table: FIS plus scatter-gather list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AhciCmdTable {
    /// The command FIS.
    pub cfis: H2dFis,
    /// Physical-region descriptor table.
    pub prdt: PrdTable,
}

/// A command-list header: one per slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AhciCmdHeader {
    /// Address of the slot's [`AhciCmdTable`].
    pub ctba: PhysAddr,
    /// Direction: true if the device will be written (host-to-device).
    pub write: bool,
}

/// A command list: up to 32 slot headers, stored in physical memory at
/// `PxCLB`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AhciCmdList {
    /// Slot headers; `None` for unused slots.
    pub slots: Vec<Option<AhciCmdHeader>>,
}

impl Default for AhciCmdList {
    fn default() -> Self {
        AhciCmdList {
            slots: vec![None; 32],
        }
    }
}

impl AhciCmdList {
    /// An empty 32-slot list.
    pub fn new() -> AhciCmdList {
        AhciCmdList::default()
    }
}

/// A fully decoded, issued command occupying a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AhciCommand {
    /// Port index.
    pub port: usize,
    /// Slot index (0..32).
    pub slot: u8,
    /// ATA operation.
    pub op: AtaOp,
    /// Target sectors.
    pub range: BlockRange,
    /// PRD table address.
    pub prd: PhysAddr,
}

/// Actions reported by MMIO writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AhciAction {
    /// New bits were set in `PxCI`; these slots are ready for the device.
    SlotsIssued {
        /// Port whose CI register was written.
        port: usize,
        /// Bitmask of newly issued slots.
        slots: u32,
    },
}

#[derive(Debug, Clone, Default)]
struct AhciPort {
    clb: PhysAddr,
    ci: u32,
    is: u32,
    ie: u32,
    cmd: u32,
    /// Slots the media is currently executing (bitmask).
    executing: u32,
    irq: bool,
}

/// The AHCI host bus adapter.
///
/// # Examples
///
/// See the crate's integration tests; the flow mirrors [`crate::ide`] but
/// through MMIO and in-memory command structures.
#[derive(Debug, Clone)]
pub struct AhciController {
    ports: Vec<AhciPort>,
}

impl Default for AhciController {
    fn default() -> Self {
        AhciController::new(1)
    }
}

impl AhciController {
    /// Creates an HBA with `ports` ports.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is 0 or exceeds 32.
    pub fn new(ports: usize) -> AhciController {
        assert!((1..=32).contains(&ports), "AHCI supports 1..=32 ports");
        AhciController {
            ports: vec![AhciPort::default(); ports],
        }
    }

    /// Whether `addr` falls inside this HBA's MMIO window.
    pub fn owns_mmio(addr: u64) -> bool {
        (ABAR..ABAR + ABAR_SIZE).contains(&addr)
    }

    fn decode_offset(offset: u64) -> Option<(usize, u64)> {
        if offset < PORT_BASE {
            return None;
        }
        let port = ((offset - PORT_BASE) / PORT_STRIDE) as usize;
        let reg = (offset - PORT_BASE) % PORT_STRIDE;
        Some((port, reg))
    }

    /// Handles an MMIO write at `offset` within the ABAR window.
    pub fn mmio_write(&mut self, offset: u64, val: u64) -> Option<AhciAction> {
        let (port_idx, reg) = Self::decode_offset(offset)?;
        let port = self.ports.get_mut(port_idx)?;
        match reg {
            preg::CLB => {
                port.clb = PhysAddr(val);
                None
            }
            preg::IS => {
                // Write-1-to-clear.
                port.is &= !(val as u32);
                if port.is == 0 {
                    port.irq = false;
                }
                None
            }
            preg::IE => {
                port.ie = val as u32;
                None
            }
            preg::CMD => {
                port.cmd = val as u32;
                None
            }
            preg::CI => {
                let new = (val as u32) & !port.ci;
                port.ci |= val as u32;
                (new != 0).then_some(AhciAction::SlotsIssued {
                    port: port_idx,
                    slots: new,
                })
            }
            _ => None,
        }
    }

    /// Handles an MMIO read at `offset` within the ABAR window.
    pub fn mmio_read(&self, offset: u64) -> u64 {
        match Self::decode_offset(offset) {
            None => match offset {
                0x00 => 0x4000_0000 | (self.ports.len() as u64 - 1), // CAP: 64-bit, N ports
                0x0C => (1u64 << self.ports.len()) - 1,              // PI
                _ => 0,
            },
            Some((port_idx, reg)) => {
                let Some(port) = self.ports.get(port_idx) else {
                    return 0;
                };
                match reg {
                    preg::CLB => port.clb.0,
                    preg::IS => port.is as u64,
                    preg::IE => port.ie as u64,
                    preg::CMD => port.cmd as u64,
                    preg::CI => port.ci as u64,
                    preg::TFD => {
                        // BSY whenever any slot is outstanding.
                        if port.ci != 0 {
                            0x80
                        } else {
                            0x40
                        }
                    }
                    _ => 0,
                }
            }
        }
    }

    /// Decodes the command in `slot` of `port` by walking the in-memory
    /// command list and table, exactly as the device (and the mediator) do.
    ///
    /// Returns `None` if the structures are absent or the slot is empty.
    pub fn decode_slot(&self, mem: &PhysMem, port: usize, slot: u8) -> Option<AhciCommand> {
        let p = self.ports.get(port)?;
        let list = mem.get::<AhciCmdList>(p.clb)?;
        let header = (*list.slots.get(slot as usize)?)?;
        let table = mem.get::<AhciCmdTable>(header.ctba)?;
        Some(AhciCommand {
            port,
            slot,
            op: table.cfis.op,
            range: table.cfis.range,
            prd: header.ctba,
        })
    }

    /// Bitmask of slots issued on `port` (the `PxCI` value).
    pub fn issued_slots(&self, port: usize) -> u32 {
        self.ports[port].ci
    }

    /// Whether the port has any outstanding command.
    pub fn is_busy(&self, port: usize) -> bool {
        self.ports[port].ci != 0
    }

    /// Whether the port's interrupt line is asserted.
    pub fn irq_pending(&self, port: usize) -> bool {
        self.ports[port].irq
    }

    /// Marks a slot as started on the media.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not issued or already executing.
    pub fn start_slot(&mut self, port: usize, slot: u8) {
        let p = &mut self.ports[port];
        assert!(p.ci & (1 << slot) != 0, "slot {slot} not issued");
        assert!(
            p.executing & (1 << slot) == 0,
            "slot {slot} already executing"
        );
        p.executing |= 1 << slot;
    }

    /// Completes an executing slot: moves data between the PRD buffers and
    /// the disk, clears the CI bit, sets `PxIS`, and asserts the interrupt
    /// if enabled.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not executing or its structures are malformed.
    pub fn complete_slot(
        &mut self,
        mem: &mut PhysMem,
        disk: &mut DiskModel,
        port: usize,
        slot: u8,
    ) {
        let cmd = self
            .decode_slot(mem, port, slot)
            .expect("complete_slot: cannot decode slot");
        {
            let p = &mut self.ports[port];
            assert!(
                p.executing & (1 << slot) != 0,
                "complete_slot: slot {slot} not executing"
            );
        }
        if cmd.op.is_dma() {
            dma_transfer(mem, disk, cmd.op, cmd.range, cmd.prd, |mem, addr| {
                &mem.get::<AhciCmdTable>(addr)
                    .expect("command table vanished")
                    .prdt
            });
        }
        let p = &mut self.ports[port];
        p.executing &= !(1 << slot);
        p.ci &= !(1 << slot);
        p.is |= 1 << slot;
        if p.ie & (1 << slot) != 0 {
            p.irq = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{BlockStore, Lba, SectorData};
    use crate::disk::DiskParams;
    use crate::ide::PrdEntry;
    use crate::mem::DmaBuffer;

    fn rig() -> (AhciController, PhysMem, DiskModel) {
        let params = DiskParams {
            capacity_sectors: 1 << 16,
            ..DiskParams::default()
        };
        let disk = DiskModel::new(
            params.clone(),
            BlockStore::image(params.capacity_sectors, 0x77),
        );
        (AhciController::new(1), PhysMem::new(1 << 30), disk)
    }

    /// Builds command structures and issues `slot` the way a guest AHCI
    /// driver would; returns the data buffer address.
    fn issue(
        hba: &mut AhciController,
        mem: &mut PhysMem,
        slot: u8,
        op: AtaOp,
        lba: u64,
        sectors: u32,
        clb: Option<PhysAddr>,
    ) -> (PhysAddr, PhysAddr, Option<AhciAction>) {
        let buf = mem.alloc(DmaBuffer::new(sectors as usize));
        let table = mem.alloc(AhciCmdTable {
            cfis: H2dFis {
                op,
                range: BlockRange::new(Lba(lba), sectors),
            },
            prdt: PrdTable {
                entries: vec![PrdEntry { buf, sectors }],
            },
        });
        let clb = match clb {
            Some(clb) => {
                let list = mem.get_mut::<AhciCmdList>(clb).unwrap();
                list.slots[slot as usize] = Some(AhciCmdHeader {
                    ctba: table,
                    write: op == AtaOp::WriteDma,
                });
                clb
            }
            None => {
                let mut list = AhciCmdList::new();
                list.slots[slot as usize] = Some(AhciCmdHeader {
                    ctba: table,
                    write: op == AtaOp::WriteDma,
                });
                let clb = mem.alloc(list);
                hba.mmio_write(PORT_BASE + preg::CLB, clb.0);
                hba.mmio_write(PORT_BASE + preg::IE, u32::MAX as u64);
                clb
            }
        };
        let action = hba.mmio_write(PORT_BASE + preg::CI, 1u64 << slot);
        (buf, clb, action)
    }

    #[test]
    fn issue_decode_complete_read() {
        let (mut hba, mut mem, mut disk) = rig();
        let (buf, _clb, action) = issue(&mut hba, &mut mem, 0, AtaOp::ReadDma, 123, 4, None);
        assert_eq!(action, Some(AhciAction::SlotsIssued { port: 0, slots: 1 }));
        let cmd = hba.decode_slot(&mem, 0, 0).unwrap();
        assert_eq!(cmd.range, BlockRange::new(Lba(123), 4));
        assert_eq!(cmd.op, AtaOp::ReadDma);
        hba.start_slot(0, 0);
        assert!(hba.is_busy(0));
        hba.complete_slot(&mut mem, &mut disk, 0, 0);
        assert!(!hba.is_busy(0));
        assert!(hba.irq_pending(0));
        assert_eq!(
            mem.get::<DmaBuffer>(buf).unwrap().sectors[0],
            BlockStore::image_content(0x77, Lba(123))
        );
    }

    #[test]
    fn write_command_persists() {
        let (mut hba, mut mem, mut disk) = rig();
        let (buf, _clb, _) = issue(&mut hba, &mut mem, 3, AtaOp::WriteDma, 50, 2, None);
        mem.get_mut::<DmaBuffer>(buf).unwrap().sectors = vec![SectorData(5), SectorData(6)];
        hba.start_slot(0, 3);
        hba.complete_slot(&mut mem, &mut disk, 0, 3);
        assert_eq!(disk.store().read(Lba(50)), SectorData(5));
        assert_eq!(disk.store().read(Lba(51)), SectorData(6));
    }

    #[test]
    fn multiple_outstanding_slots() {
        let (mut hba, mut mem, mut disk) = rig();
        let (_b1, clb, _) = issue(&mut hba, &mut mem, 0, AtaOp::ReadDma, 10, 1, None);
        let (_b2, _, action) = issue(&mut hba, &mut mem, 1, AtaOp::ReadDma, 20, 1, Some(clb));
        assert_eq!(action, Some(AhciAction::SlotsIssued { port: 0, slots: 2 }));
        assert_eq!(hba.issued_slots(0), 0b11);
        hba.start_slot(0, 0);
        hba.complete_slot(&mut mem, &mut disk, 0, 0);
        assert_eq!(hba.issued_slots(0), 0b10);
        hba.start_slot(0, 1);
        hba.complete_slot(&mut mem, &mut disk, 0, 1);
        assert_eq!(hba.issued_slots(0), 0);
    }

    #[test]
    fn reissuing_same_slot_reports_no_new_bits() {
        let (mut hba, mut mem, _) = rig();
        let (_b, _clb, first) = issue(&mut hba, &mut mem, 0, AtaOp::ReadDma, 10, 1, None);
        assert!(first.is_some());
        let again = hba.mmio_write(PORT_BASE + preg::CI, 1);
        assert_eq!(again, None, "already-set CI bits must not re-trigger");
    }

    #[test]
    fn is_clear_drops_irq() {
        let (mut hba, mut mem, mut disk) = rig();
        issue(&mut hba, &mut mem, 0, AtaOp::ReadDma, 10, 1, None);
        hba.start_slot(0, 0);
        hba.complete_slot(&mut mem, &mut disk, 0, 0);
        assert!(hba.irq_pending(0));
        // Guest ISR: read PxIS, write-1-to-clear.
        let is = hba.mmio_read(PORT_BASE + preg::IS);
        hba.mmio_write(PORT_BASE + preg::IS, is);
        assert!(!hba.irq_pending(0));
    }

    #[test]
    fn tfd_shows_busy() {
        let (mut hba, mut mem, _) = rig();
        assert_eq!(hba.mmio_read(PORT_BASE + preg::TFD), 0x40);
        issue(&mut hba, &mut mem, 0, AtaOp::ReadDma, 10, 1, None);
        assert_eq!(hba.mmio_read(PORT_BASE + preg::TFD), 0x80);
    }

    #[test]
    fn mmio_window_check() {
        assert!(AhciController::owns_mmio(ABAR));
        assert!(AhciController::owns_mmio(ABAR + ABAR_SIZE - 1));
        assert!(!AhciController::owns_mmio(ABAR + ABAR_SIZE));
        assert!(!AhciController::owns_mmio(0));
    }

    #[test]
    #[should_panic(expected = "not issued")]
    fn starting_unissued_slot_panics() {
        let (mut hba, _, _) = rig();
        hba.start_slot(0, 5);
    }
}
