//! Register-level IDE/ATA controller with bus-master DMA.
//!
//! Models the primary ATA channel (I/O ports `0x1F0..=0x1F7`, device
//! control at `0x3F6`) and a PCI bus-master DMA engine (ports
//! `0xC040..=0xC047`). The guest's *unmodified* IDE driver programs the
//! taskfile registers and the BM engine exactly as on real hardware; the
//! BMcast IDE device mediator interprets the same port traffic.
//!
//! Simplifications vs real ATA, documented for reviewers:
//! - Only the commands BMcast's mediator must understand are implemented
//!   (READ/WRITE DMA and their EXT forms, FLUSH CACHE, IDENTIFY). Vendor
//!   and initialization commands are irrelevant to I/O mediation and are
//!   accepted as immediate no-ops, mirroring how mediators "ignore other
//!   irrelevant sequences".
//! - `sector count = 0` means 0, not 256; drivers here always pass explicit
//!   counts.

use crate::block::{BlockRange, Lba};
use crate::disk::DiskModel;
use crate::mem::{DmaBuffer, PhysAddr, PhysMem};

/// The registers of the primary IDE channel plus the bus-master engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IdeReg {
    /// 0x1F0: PIO data window (unused for DMA transfers).
    Data,
    /// 0x1F1: error (read) / features (write).
    Features,
    /// 0x1F2: sector count (two-byte FIFO for 48-bit LBA).
    SectorCount,
    /// 0x1F3: LBA low.
    LbaLow,
    /// 0x1F4: LBA mid.
    LbaMid,
    /// 0x1F5: LBA high.
    LbaHigh,
    /// 0x1F6: device / LBA bits 24–27.
    Device,
    /// 0x1F7: status (read) / command (write).
    Command,
    /// 0x3F6: alternate status / device control (reads don't clear INTRQ).
    Control,
    /// 0xC040: bus-master command (bit 0 start, bit 3 direction).
    BmCommand,
    /// 0xC042: bus-master status (bit 0 active, bit 2 interrupt).
    BmStatus,
    /// 0xC044: physical address of the PRD table.
    BmPrdAddr,
}

impl IdeReg {
    /// All registers, for exit-bitmap construction.
    pub const ALL: [IdeReg; 12] = [
        IdeReg::Data,
        IdeReg::Features,
        IdeReg::SectorCount,
        IdeReg::LbaLow,
        IdeReg::LbaMid,
        IdeReg::LbaHigh,
        IdeReg::Device,
        IdeReg::Command,
        IdeReg::Control,
        IdeReg::BmCommand,
        IdeReg::BmStatus,
        IdeReg::BmPrdAddr,
    ];

    /// The x86 I/O port of this register.
    pub fn port(self) -> u16 {
        match self {
            IdeReg::Data => 0x1F0,
            IdeReg::Features => 0x1F1,
            IdeReg::SectorCount => 0x1F2,
            IdeReg::LbaLow => 0x1F3,
            IdeReg::LbaMid => 0x1F4,
            IdeReg::LbaHigh => 0x1F5,
            IdeReg::Device => 0x1F6,
            IdeReg::Command => 0x1F7,
            IdeReg::Control => 0x3F6,
            IdeReg::BmCommand => 0xC040,
            IdeReg::BmStatus => 0xC042,
            IdeReg::BmPrdAddr => 0xC044,
        }
    }

    /// Decodes a port number to a register, if it belongs to this channel.
    pub fn from_port(port: u16) -> Option<IdeReg> {
        IdeReg::ALL.into_iter().find(|r| r.port() == port)
    }
}

/// ATA status register bits.
pub mod status {
    /// Device busy.
    pub const BSY: u8 = 0x80;
    /// Device ready.
    pub const DRDY: u8 = 0x40;
    /// Data request (PIO transfers).
    pub const DRQ: u8 = 0x08;
    /// Error.
    pub const ERR: u8 = 0x01;
}

/// ATA command opcodes understood by the controller (and the mediator).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtaOp {
    /// READ DMA (0xC8) / READ DMA EXT (0x25).
    ReadDma,
    /// WRITE DMA (0xCA) / WRITE DMA EXT (0x35).
    WriteDma,
    /// FLUSH CACHE (0xE7).
    Flush,
    /// IDENTIFY DEVICE (0xEC).
    Identify,
}

impl AtaOp {
    /// Decodes a command byte. Returns `None` for opcodes the model (and
    /// the mediator) treats as irrelevant no-ops.
    pub fn from_byte(b: u8) -> Option<AtaOp> {
        match b {
            0xC8 | 0x25 => Some(AtaOp::ReadDma),
            0xCA | 0x35 => Some(AtaOp::WriteDma),
            0xE7 => Some(AtaOp::Flush),
            0xEC => Some(AtaOp::Identify),
            _ => None,
        }
    }

    /// Whether this opcode transfers data via DMA.
    pub fn is_dma(self) -> bool {
        matches!(self, AtaOp::ReadDma | AtaOp::WriteDma)
    }
}

/// A fully decoded command as assembled from taskfile register writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdeCommandBlock {
    /// Operation.
    pub op: AtaOp,
    /// Target sectors (meaningless for `Flush`/`Identify`; range is 1
    /// sector at LBA 0 then).
    pub range: BlockRange,
    /// PRD table address for DMA commands.
    pub prd: Option<PhysAddr>,
}

/// One physical-region descriptor: a DMA buffer and its span in sectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrdEntry {
    /// Address of a [`DmaBuffer`] object.
    pub buf: PhysAddr,
    /// Number of sectors this entry covers.
    pub sectors: u32,
}

/// A PRD table stored in physical memory.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PrdTable {
    /// Entries in transfer order.
    pub entries: Vec<PrdEntry>,
}

impl PrdTable {
    /// Total sectors described by the table.
    pub fn total_sectors(&self) -> u32 {
        self.entries.iter().map(|e| e.sectors).sum()
    }
}

/// Moves a DMA command's data for `range` between `disk` and the buffers
/// of the PRD table `prd(mem, table)`, in place: a read lands straight in
/// each [`DmaBuffer`] and a write goes to the disk from the borrowed
/// buffer, so neither the sectors nor the descriptors are copied. Shared
/// by the IDE bus-master engine and the AHCI HBA.
///
/// # Panics
///
/// Panics if the table's sector total differs from `range`, a buffer is
/// missing, or `op` is not a DMA operation.
pub(crate) fn dma_transfer(
    mem: &mut PhysMem,
    disk: &mut DiskModel,
    op: AtaOp,
    range: BlockRange,
    table: PhysAddr,
    prd: fn(&PhysMem, PhysAddr) -> &PrdTable,
) {
    assert_eq!(
        prd(mem, table).total_sectors(),
        range.sectors,
        "PRD sectors disagree with command"
    );
    let mut lba = range.lba;
    for i in 0..prd(mem, table).entries.len() {
        let entry = prd(mem, table).entries[i];
        let span = BlockRange::new(lba, entry.sectors);
        match op {
            AtaOp::ReadDma => {
                let buf = mem
                    .get_mut::<DmaBuffer>(entry.buf)
                    .expect("DMA buffer not in memory");
                buf.sectors.clear();
                disk.store().read_range_into(span, &mut buf.sectors);
            }
            AtaOp::WriteDma => {
                let buf = mem
                    .get::<DmaBuffer>(entry.buf)
                    .expect("DMA buffer not in memory");
                disk.store_mut().write_range(span, &buf.sectors);
            }
            _ => unreachable!("not a DMA operation"),
        }
        lba = span.end();
    }
}

/// Events the controller reports to whoever owns the event loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdeAction {
    /// A command is fully issued (taskfile + command byte + BM start for
    /// DMA) and ready for the media. The owner decides when it completes.
    CommandReady,
}

/// Two-byte FIFO register (current + previous) used for 48-bit LBA.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct HobReg {
    cur: u8,
    prev: u8,
}

impl HobReg {
    fn write(&mut self, v: u8) {
        self.prev = self.cur;
        self.cur = v;
    }
    fn wide(self) -> u16 {
        ((self.prev as u16) << 8) | self.cur as u16
    }
}

/// The taskfile's address registers — sector count, the three LBA
/// bytes (each a two-byte FIFO) and device — and how a command decodes
/// them. The controller keeps one; a mediator shadows its own from the
/// register writes it interprets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Taskfile {
    count: HobReg,
    lba_low: HobReg,
    lba_mid: HobReg,
    lba_high: HobReg,
    device: u8,
}

impl Taskfile {
    /// Latches a write to `reg`; writes to other registers are ignored.
    pub fn write(&mut self, reg: IdeReg, val: u8) {
        match reg {
            IdeReg::SectorCount => self.count.write(val),
            IdeReg::LbaLow => self.lba_low.write(val),
            IdeReg::LbaMid => self.lba_mid.write(val),
            IdeReg::LbaHigh => self.lba_high.write(val),
            IdeReg::Device => self.device = val,
            _ => {}
        }
    }

    /// Decodes command byte `byte` against the latched registers, or
    /// `None` for a command the model ignores. A DMA command addresses
    /// the latched range (48-bit for the EXT opcodes; a zero count reads
    /// as one sector) through the PRD table at `prd`; any other command
    /// addresses sector 0 x1 with no PRD table.
    pub fn command(&self, byte: u8, prd: PhysAddr) -> Option<IdeCommandBlock> {
        let op = AtaOp::from_byte(byte)?;
        let dma = op.is_dma();
        let range = if dma {
            self.range(matches!(byte, 0x25 | 0x35))
        } else {
            BlockRange::new(Lba(0), 1)
        };
        Some(IdeCommandBlock {
            op,
            range,
            prd: dma.then_some(prd),
        })
    }

    fn range(&self, ext: bool) -> BlockRange {
        let (lba, sectors) = if ext {
            // 48-bit LBA: current bytes hold bits 0..24, previous bytes
            // hold bits 24..48 (ATA-6 "high order byte" semantics).
            let lba = (self.lba_low.cur as u64)
                | ((self.lba_mid.cur as u64) << 8)
                | ((self.lba_high.cur as u64) << 16)
                | ((self.lba_low.prev as u64) << 24)
                | ((self.lba_mid.prev as u64) << 32)
                | ((self.lba_high.prev as u64) << 40);
            (lba, self.count.wide() as u32)
        } else {
            let lba = self.lba_low.cur as u64
                | ((self.lba_mid.cur as u64) << 8)
                | ((self.lba_high.cur as u64) << 16)
                | (((self.device & 0x0F) as u64) << 24);
            (lba, self.count.cur as u32)
        };
        BlockRange::new(Lba(lba), sectors.max(1))
    }
}

/// The IDE controller + bus-master DMA engine.
///
/// # Examples
///
/// Issuing a 1-sector DMA read the way a guest driver would:
///
/// ```
/// use hwsim::ide::*;
/// use hwsim::mem::{PhysMem, DmaBuffer};
/// use hwsim::disk::{DiskModel, DiskParams};
/// use hwsim::block::BlockStore;
///
/// let params = DiskParams { capacity_sectors: 1 << 16, ..DiskParams::default() };
/// let mut disk = DiskModel::new(params.clone(), BlockStore::image(params.capacity_sectors, 7));
/// let mut mem = PhysMem::new(1 << 30);
/// let buf = mem.alloc(DmaBuffer::new(1));
/// let prd = mem.alloc(PrdTable { entries: vec![PrdEntry { buf, sectors: 1 }] });
///
/// let mut ide = IdeController::new();
/// ide.write_reg(IdeReg::BmPrdAddr, prd.0 as u32);
/// ide.write_reg(IdeReg::SectorCount, 1);
/// ide.write_reg(IdeReg::LbaLow, 42);
/// ide.write_reg(IdeReg::LbaMid, 0);
/// ide.write_reg(IdeReg::LbaHigh, 0);
/// ide.write_reg(IdeReg::Device, 0xE0);
/// ide.write_reg(IdeReg::Command, 0xC8); // READ DMA
/// let action = ide.write_reg(IdeReg::BmCommand, 0x09); // dir=read, start
/// assert_eq!(action, Some(IdeAction::CommandReady));
///
/// let cmd = ide.start_ready().unwrap();
/// ide.complete_active(&mut mem, &mut disk);
/// assert!(ide.irq_pending());
/// ```
#[derive(Debug, Clone, Default)]
pub struct IdeController {
    features: HobReg,
    taskfile: Taskfile,
    bm_cmd: u8,
    bm_status: u8,
    bm_prd: PhysAddr,
    /// Issued command waiting for the media (or for BM start).
    pending: Option<IdeCommandBlock>,
    /// Command the media is executing.
    active: Option<IdeCommandBlock>,
    irq: bool,
    error: bool,
}

impl IdeController {
    /// Creates an idle controller.
    pub fn new() -> IdeController {
        IdeController::default()
    }

    /// Writes a register; returns an action if the write completed a
    /// command issue.
    pub fn write_reg(&mut self, reg: IdeReg, val: u32) -> Option<IdeAction> {
        match reg {
            IdeReg::Data => None,
            IdeReg::Features => {
                self.features.write(val as u8);
                None
            }
            IdeReg::SectorCount
            | IdeReg::LbaLow
            | IdeReg::LbaMid
            | IdeReg::LbaHigh
            | IdeReg::Device => {
                self.taskfile.write(reg, val as u8);
                None
            }
            IdeReg::Command => self.issue_command(val as u8),
            IdeReg::Control => None,
            IdeReg::BmCommand => {
                let was_started = self.bm_cmd & 0x01 != 0;
                self.bm_cmd = val as u8;
                if val & 0x01 != 0 {
                    self.bm_status |= 0x01; // active
                                            // A 0→1 start transition arms a pending DMA command.
                    if !was_started && self.pending.map(|c| c.op.is_dma()).unwrap_or(false) {
                        return Some(IdeAction::CommandReady);
                    }
                } else {
                    self.bm_status &= !0x01;
                }
                None
            }
            IdeReg::BmStatus => {
                // Writing 1 to the interrupt bit clears it.
                if val & 0x04 != 0 {
                    self.bm_status &= !0x04;
                }
                None
            }
            IdeReg::BmPrdAddr => {
                self.bm_prd = PhysAddr(val as u64);
                None
            }
        }
    }

    fn issue_command(&mut self, byte: u8) -> Option<IdeAction> {
        // Irrelevant command: complete instantly, no interrupt.
        let cmd = self.taskfile.command(byte, self.bm_prd)?;
        self.pending = Some(cmd);
        self.error = false;
        // DMA commands wait for the BM engine; others are ready at once.
        if !cmd.op.is_dma() || self.bm_cmd & 0x01 != 0 {
            Some(IdeAction::CommandReady)
        } else {
            None
        }
    }

    /// Reads a register. Reading `Command` (the status register) clears
    /// INTRQ, as on real hardware; `Control` (alternate status) does not.
    pub fn read_reg(&mut self, reg: IdeReg) -> u32 {
        match reg {
            IdeReg::Command => {
                self.irq = false;
                self.status_byte() as u32
            }
            IdeReg::Control => self.status_byte() as u32,
            IdeReg::Features => u32::from(self.error),
            IdeReg::BmStatus => self.bm_status as u32,
            IdeReg::BmCommand => self.bm_cmd as u32,
            IdeReg::BmPrdAddr => self.bm_prd.0 as u32,
            IdeReg::SectorCount => self.taskfile.count.cur as u32,
            IdeReg::LbaLow => self.taskfile.lba_low.cur as u32,
            IdeReg::LbaMid => self.taskfile.lba_mid.cur as u32,
            IdeReg::LbaHigh => self.taskfile.lba_high.cur as u32,
            IdeReg::Device => self.taskfile.device as u32,
            IdeReg::Data => 0,
        }
    }

    /// The raw status byte without INTRQ side effects.
    pub fn status_byte(&self) -> u8 {
        let mut s = status::DRDY;
        if self.active.is_some() || self.pending.is_some() {
            s |= status::BSY;
        }
        if self.error {
            s |= status::ERR;
        }
        s
    }

    /// Whether the device is processing (or holding) a command.
    pub fn is_busy(&self) -> bool {
        self.active.is_some() || self.pending.is_some()
    }

    /// Whether INTRQ is asserted.
    pub fn irq_pending(&self) -> bool {
        self.irq
    }

    /// The fully issued command awaiting media start, if any.
    pub fn ready_command(&self) -> Option<IdeCommandBlock> {
        self.pending
    }

    /// Removes the pending command without executing it. Used by the
    /// mediator to *block* a guest command during I/O redirection.
    pub fn take_ready(&mut self) -> Option<IdeCommandBlock> {
        self.pending.take()
    }

    /// Injects a command directly (VMM multiplexing or a redirected
    /// restart), bypassing the register path.
    ///
    /// # Panics
    ///
    /// Panics if a command is already pending or active.
    pub fn inject_command(&mut self, cmd: IdeCommandBlock) {
        assert!(
            self.pending.is_none() && self.active.is_none(),
            "inject_command: controller is busy"
        );
        self.pending = Some(cmd);
    }

    /// Moves the pending command to the media. Returns it so the owner can
    /// compute service time.
    pub fn start_ready(&mut self) -> Option<IdeCommandBlock> {
        let cmd = self.pending.take()?;
        self.active = Some(cmd);
        Some(cmd)
    }

    /// Completes the in-flight command: moves data between the PRD buffers
    /// and the disk, clears BSY, and asserts INTRQ.
    ///
    /// # Panics
    ///
    /// Panics if no command is active, or if a DMA command's PRD table is
    /// malformed (missing buffers or a sector-count mismatch).
    pub fn complete_active(&mut self, mem: &mut PhysMem, disk: &mut DiskModel) {
        let cmd = self.active.take().expect("complete_active: nothing active");
        if cmd.op.is_dma() {
            let prd = cmd.prd.expect("DMA command without PRD");
            dma_transfer(mem, disk, cmd.op, cmd.range, prd, |mem, addr| {
                mem.get::<PrdTable>(addr).expect("PRD table not in memory")
            });
            self.bm_status &= !0x01; // engine idle
            self.bm_status |= 0x04; // interrupt bit
        }
        self.irq = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{BlockStore, SectorData};
    use crate::disk::DiskParams;

    fn rig() -> (IdeController, PhysMem, DiskModel) {
        let params = DiskParams {
            capacity_sectors: 1 << 16,
            ..DiskParams::default()
        };
        let disk = DiskModel::new(
            params.clone(),
            BlockStore::image(params.capacity_sectors, 0xA5),
        );
        (IdeController::new(), PhysMem::new(1 << 30), disk)
    }

    fn issue_read(
        ide: &mut IdeController,
        mem: &mut PhysMem,
        lba: u64,
        sectors: u32,
    ) -> (PhysAddr, Option<IdeAction>) {
        let buf = mem.alloc(DmaBuffer::new(sectors as usize));
        let prd = mem.alloc(PrdTable {
            entries: vec![PrdEntry { buf, sectors }],
        });
        ide.write_reg(IdeReg::BmPrdAddr, prd.0 as u32);
        ide.write_reg(IdeReg::SectorCount, sectors);
        ide.write_reg(IdeReg::LbaLow, (lba & 0xFF) as u32);
        ide.write_reg(IdeReg::LbaMid, ((lba >> 8) & 0xFF) as u32);
        ide.write_reg(IdeReg::LbaHigh, ((lba >> 16) & 0xFF) as u32);
        ide.write_reg(IdeReg::Device, 0xE0 | ((lba >> 24) & 0x0F) as u32);
        ide.write_reg(IdeReg::Command, 0xC8);
        let action = ide.write_reg(IdeReg::BmCommand, 0x09);
        (buf, action)
    }

    #[test]
    fn dma_read_decodes_and_transfers() {
        let (mut ide, mut mem, mut disk) = rig();
        let (buf, action) = issue_read(&mut ide, &mut mem, 42, 4);
        assert_eq!(action, Some(IdeAction::CommandReady));
        let cmd = ide.start_ready().unwrap();
        assert_eq!(cmd.op, AtaOp::ReadDma);
        assert_eq!(cmd.range, BlockRange::new(Lba(42), 4));
        assert!(ide.is_busy());
        ide.complete_active(&mut mem, &mut disk);
        assert!(!ide.is_busy());
        assert!(ide.irq_pending());
        let got = &mem.get::<DmaBuffer>(buf).unwrap().sectors;
        assert_eq!(got[0], BlockStore::image_content(0xA5, Lba(42)));
        assert_eq!(got[3], BlockStore::image_content(0xA5, Lba(45)));
    }

    #[test]
    fn dma_write_persists_to_disk() {
        let (mut ide, mut mem, mut disk) = rig();
        let mut dbuf = DmaBuffer::new(2);
        dbuf.sectors = vec![SectorData(111), SectorData(222)];
        let buf = mem.alloc(dbuf);
        let prd = mem.alloc(PrdTable {
            entries: vec![PrdEntry { buf, sectors: 2 }],
        });
        ide.write_reg(IdeReg::BmPrdAddr, prd.0 as u32);
        ide.write_reg(IdeReg::SectorCount, 2);
        ide.write_reg(IdeReg::LbaLow, 10);
        ide.write_reg(IdeReg::LbaMid, 0);
        ide.write_reg(IdeReg::LbaHigh, 0);
        ide.write_reg(IdeReg::Device, 0xE0);
        ide.write_reg(IdeReg::Command, 0xCA);
        assert_eq!(
            ide.write_reg(IdeReg::BmCommand, 0x01),
            Some(IdeAction::CommandReady)
        );
        ide.start_ready().unwrap();
        ide.complete_active(&mut mem, &mut disk);
        assert_eq!(disk.store().read(Lba(10)), SectorData(111));
        assert_eq!(disk.store().read(Lba(11)), SectorData(222));
    }

    #[test]
    fn status_read_clears_irq_but_alt_status_does_not() {
        let (mut ide, mut mem, mut disk) = rig();
        issue_read(&mut ide, &mut mem, 0, 1);
        ide.start_ready().unwrap();
        ide.complete_active(&mut mem, &mut disk);
        assert!(ide.irq_pending());
        ide.read_reg(IdeReg::Control);
        assert!(ide.irq_pending(), "alt status must not clear INTRQ");
        ide.read_reg(IdeReg::Command);
        assert!(!ide.irq_pending(), "status read must clear INTRQ");
    }

    #[test]
    fn busy_while_pending_or_active() {
        let (mut ide, mut mem, _disk) = rig();
        assert!(!ide.is_busy());
        issue_read(&mut ide, &mut mem, 5, 1);
        assert!(ide.is_busy());
        assert_ne!(ide.status_byte() & status::BSY, 0);
    }

    #[test]
    fn take_ready_blocks_command() {
        let (mut ide, mut mem, _disk) = rig();
        issue_read(&mut ide, &mut mem, 7, 2);
        let taken = ide.take_ready().unwrap();
        assert_eq!(taken.range.lba, Lba(7));
        assert!(ide.ready_command().is_none());
    }

    #[test]
    fn inject_and_execute_vmm_command() {
        let (mut ide, mut mem, mut disk) = rig();
        let buf = mem.alloc(DmaBuffer::new(1));
        let prd = mem.alloc(PrdTable {
            entries: vec![PrdEntry { buf, sectors: 1 }],
        });
        ide.inject_command(IdeCommandBlock {
            op: AtaOp::ReadDma,
            range: BlockRange::new(Lba(99), 1),
            prd: Some(prd),
        });
        ide.start_ready().unwrap();
        ide.complete_active(&mut mem, &mut disk);
        assert_eq!(
            mem.get::<DmaBuffer>(buf).unwrap().sectors[0],
            BlockStore::image_content(0xA5, Lba(99))
        );
    }

    #[test]
    #[should_panic(expected = "controller is busy")]
    fn inject_while_busy_panics() {
        let (mut ide, mut mem, _disk) = rig();
        issue_read(&mut ide, &mut mem, 1, 1);
        ide.inject_command(IdeCommandBlock {
            op: AtaOp::Flush,
            range: BlockRange::new(Lba(0), 1),
            prd: None,
        });
    }

    #[test]
    fn ext_command_uses_48bit_lba() {
        let (mut ide, _mem, _disk) = rig();
        // 48-bit LBA 0x0001_0000_0002 written high-byte-first per register:
        // LbaLow carries bytes 3 then 0, LbaMid bytes 4 then 1, LbaHigh
        // bytes 5 then 2.
        ide.write_reg(IdeReg::SectorCount, 0); // high
        ide.write_reg(IdeReg::SectorCount, 8); // low
        ide.write_reg(IdeReg::LbaLow, 0);
        ide.write_reg(IdeReg::LbaLow, 2);
        ide.write_reg(IdeReg::LbaMid, 1);
        ide.write_reg(IdeReg::LbaMid, 0);
        ide.write_reg(IdeReg::LbaHigh, 0);
        ide.write_reg(IdeReg::LbaHigh, 0);
        ide.write_reg(IdeReg::BmPrdAddr, 0x1000);
        ide.write_reg(IdeReg::Command, 0x25); // READ DMA EXT
        ide.write_reg(IdeReg::BmCommand, 0x09);
        let cmd = ide.ready_command().unwrap();
        assert_eq!(cmd.range.lba, Lba(0x0001_0000_0002));
        assert_eq!(cmd.range.sectors, 8);
    }

    #[test]
    fn flush_is_ready_without_bm() {
        let (mut ide, _mem, _disk) = rig();
        let action = ide.write_reg(IdeReg::Command, 0xE7);
        assert_eq!(action, Some(IdeAction::CommandReady));
        let cmd = ide.ready_command().unwrap();
        assert_eq!(cmd.op, AtaOp::Flush);
    }

    #[test]
    fn unknown_command_is_ignored() {
        let (mut ide, _mem, _disk) = rig();
        assert_eq!(ide.write_reg(IdeReg::Command, 0x91), None);
        assert!(!ide.is_busy());
    }

    #[test]
    fn port_mapping_round_trips() {
        for reg in IdeReg::ALL {
            assert_eq!(IdeReg::from_port(reg.port()), Some(reg));
        }
        assert_eq!(IdeReg::from_port(0x80), None);
    }
}
