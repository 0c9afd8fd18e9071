//! Guest AHCI driver (libahci-style, up to 32 commands in flight).
//!
//! Builds a command list in guest memory once, then per request fills a
//! slot: command table (H2D FIS + PRDT), header, and a `PxCI` ring. The
//! interrupt handler reads `PxIS`, completes every finished slot, and
//! acknowledges with write-1-to-clear — the same traffic the BMcast AHCI
//! mediator interprets.

use crate::bus::GuestBus;
use crate::driver::BlockDriver;
use crate::io::{CompletedIo, IoRequest};
use hwsim::ahci::{preg, AhciCmdHeader, AhciCmdList, AhciCmdTable, H2dFis, ABAR, PORT_BASE};
use hwsim::ide::{AtaOp, PrdEntry, PrdTable};
use hwsim::mem::{DmaBuffer, PhysAddr};
use std::collections::VecDeque;

fn port_reg(reg: u64) -> u64 {
    ABAR + PORT_BASE + reg
}

#[derive(Debug)]
struct Slot {
    req: IoRequest,
    buf: PhysAddr,
    table: PhysAddr,
}

/// The guest's AHCI block driver (port 0).
///
/// # Examples
///
/// ```
/// use guestsim::{AhciDriver, BlockDriver, IoRequest, RequestId};
/// use guestsim::bus::DirectBus;
/// use hwsim::block::{BlockRange, Lba};
///
/// let mut bus = DirectBus::new(1 << 30, 1 << 16, 0);
/// let mut drv = AhciDriver::new();
/// drv.init(&mut bus);
/// drv.submit(IoRequest::read(RequestId(1), BlockRange::new(Lba(0), 8)), &mut bus);
/// assert_eq!(drv.in_flight(), 1);
/// ```
#[derive(Debug, Default)]
pub struct AhciDriver {
    clb: Option<PhysAddr>,
    slots: Vec<Option<Slot>>,
    queue: VecDeque<IoRequest>,
    max_slots: usize,
    submitted: u64,
    completed: u64,
}

impl AhciDriver {
    /// Creates a driver allowing the full 32 outstanding commands.
    pub fn new() -> AhciDriver {
        AhciDriver::with_queue_depth(32)
    }

    /// Creates a driver capped at `depth` outstanding commands.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is 0 or exceeds 32.
    pub fn with_queue_depth(depth: usize) -> AhciDriver {
        assert!((1..=32).contains(&depth), "queue depth must be 1..=32");
        AhciDriver {
            clb: None,
            slots: (0..32).map(|_| None).collect(),
            queue: VecDeque::new(),
            max_slots: depth,
            submitted: 0,
            completed: 0,
        }
    }

    /// Probes and initializes the HBA: allocates the command list, points
    /// `PxCLB` at it, and enables all slot interrupts. Must be called once
    /// before [`BlockDriver::submit`].
    pub fn init(&mut self, bus: &mut dyn GuestBus) {
        let clb = bus.mem().alloc(AhciCmdList::new());
        bus.mmio_write(port_reg(preg::CLB), clb.0);
        bus.mmio_write(port_reg(preg::IE), u32::MAX as u64);
        bus.mmio_write(port_reg(preg::CMD), 0x1); // ST: start processing
        self.clb = Some(clb);
    }

    /// Requests submitted to the hardware so far.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Requests completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    fn active_count(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    fn free_slot(&self) -> Option<u8> {
        if self.active_count() >= self.max_slots {
            return None;
        }
        self.slots.iter().position(|s| s.is_none()).map(|i| i as u8)
    }

    fn issue(&mut self, slot: u8, req: IoRequest, bus: &mut dyn GuestBus) {
        let clb = self.clb.expect("driver not initialized");
        let sectors = req.range.sectors;
        let mut dma = DmaBuffer::new(sectors as usize);
        if let Some(data) = &req.data {
            dma.sectors.copy_from_slice(data);
        }
        let buf = bus.mem().alloc(dma);
        let op = if req.data.is_some() {
            AtaOp::WriteDma
        } else {
            AtaOp::ReadDma
        };
        let table = bus.mem().alloc(AhciCmdTable {
            cfis: H2dFis {
                op,
                range: req.range,
            },
            prdt: PrdTable {
                entries: vec![PrdEntry { buf, sectors }],
            },
        });
        let list = bus
            .mem()
            .get_mut::<AhciCmdList>(clb)
            .expect("command list vanished");
        list.slots[slot as usize] = Some(AhciCmdHeader {
            ctba: table,
            write: op == AtaOp::WriteDma,
        });
        bus.mmio_write(port_reg(preg::CI), 1u64 << slot);
        self.submitted += 1;
        self.slots[slot as usize] = Some(Slot { req, buf, table });
    }
}

impl BlockDriver for AhciDriver {
    fn submit(&mut self, req: IoRequest, bus: &mut dyn GuestBus) {
        assert!(self.clb.is_some(), "AhciDriver::init not called");
        match self.free_slot() {
            Some(slot) => self.issue(slot, req, bus),
            None => self.queue.push_back(req),
        }
    }

    fn on_irq(&mut self, bus: &mut dyn GuestBus) -> Vec<CompletedIo> {
        let is = bus.mmio_read(port_reg(preg::IS)) as u32;
        if is == 0 {
            return Vec::new();
        }
        let mut done = Vec::new();
        for slot in 0..32u8 {
            if is & (1 << slot) == 0 {
                continue;
            }
            let Some(active) = self.slots[slot as usize].take() else {
                continue; // spurious bit
            };
            let data = if active.req.data.is_some() {
                Vec::new()
            } else {
                bus.mem()
                    .get::<DmaBuffer>(active.buf)
                    .expect("DMA buffer vanished")
                    .sectors
                    .clone()
            };
            bus.mem().free(active.buf);
            bus.mem().free(active.table);
            if let Some(clb) = self.clb {
                if let Some(list) = bus.mem().get_mut::<AhciCmdList>(clb) {
                    list.slots[slot as usize] = None;
                }
            }
            self.completed += 1;
            done.push(CompletedIo {
                id: active.req.id,
                range: active.req.range,
                write: active.req.data.is_some(),
                data,
            });
        }
        bus.mmio_write(port_reg(preg::IS), is as u64); // W1C acknowledge
        while self.free_slot().is_some() && !self.queue.is_empty() {
            let slot = self.free_slot().expect("just checked");
            let req = self.queue.pop_front().expect("just checked");
            self.issue(slot, req, bus);
        }
        done
    }

    fn in_flight(&self) -> usize {
        self.queue.len() + self.active_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{BusEvent, DirectBus};
    use crate::io::RequestId;
    use hwsim::block::{BlockRange, BlockStore, Lba, SectorData};
    use hwsim::disk::{DiskModel, DiskParams};

    fn disk() -> DiskModel {
        let params = DiskParams {
            capacity_sectors: 1 << 16,
            ..DiskParams::default()
        };
        DiskModel::new(
            params.clone(),
            BlockStore::image(params.capacity_sectors, 0x9999),
        )
    }

    fn service(bus: &mut DirectBus, disk: &mut DiskModel) {
        for ev in bus.take_events() {
            if let BusEvent::AhciIssued { port, slots } = ev {
                for slot in 0..32u8 {
                    if slots & (1 << slot) != 0 {
                        bus.ahci.start_slot(port, slot);
                        bus.ahci.complete_slot(&mut bus.memory, disk, port, slot);
                    }
                }
            }
        }
    }

    fn rig() -> (DirectBus, DiskModel, AhciDriver) {
        let mut bus = DirectBus::new(1 << 30, 1 << 16, 0);
        let mut drv = AhciDriver::new();
        drv.init(&mut bus);
        (bus, disk(), drv)
    }

    #[test]
    fn read_round_trip() {
        let (mut bus, mut disk, mut drv) = rig();
        drv.submit(
            IoRequest::read(RequestId(7), BlockRange::new(Lba(321), 4)),
            &mut bus,
        );
        service(&mut bus, &mut disk);
        assert!(bus.ahci.irq_pending(0));
        let done = drv.on_irq(&mut bus);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].data[0], BlockStore::image_content(0x9999, Lba(321)));
        assert!(!bus.ahci.irq_pending(0), "ISR acknowledged PxIS");
        assert_eq!(drv.in_flight(), 0);
    }

    #[test]
    fn write_round_trip() {
        let (mut bus, mut disk, mut drv) = rig();
        drv.submit(
            IoRequest::write(
                RequestId(8),
                BlockRange::new(Lba(20), 2),
                vec![SectorData(3), SectorData(4)],
            ),
            &mut bus,
        );
        service(&mut bus, &mut disk);
        let done = drv.on_irq(&mut bus);
        assert!(done[0].write);
        assert_eq!(disk.store().read(Lba(20)), SectorData(3));
    }

    #[test]
    fn many_outstanding_commands() {
        let (mut bus, mut disk, mut drv) = rig();
        for i in 0..8u64 {
            drv.submit(
                IoRequest::read(RequestId(i), BlockRange::new(Lba(i * 64), 1)),
                &mut bus,
            );
        }
        assert_eq!(drv.in_flight(), 8);
        assert_eq!(bus.ahci.issued_slots(0).count_ones(), 8);
        service(&mut bus, &mut disk);
        let done = drv.on_irq(&mut bus);
        assert_eq!(done.len(), 8);
    }

    #[test]
    fn queue_depth_cap_spills_to_software_queue() {
        let mut bus = DirectBus::new(1 << 30, 1 << 16, 0);
        let mut disk = disk();
        let mut drv = AhciDriver::with_queue_depth(2);
        drv.init(&mut bus);
        for i in 0..4u64 {
            drv.submit(
                IoRequest::read(RequestId(i), BlockRange::new(Lba(i * 64), 1)),
                &mut bus,
            );
        }
        assert_eq!(bus.ahci.issued_slots(0).count_ones(), 2);
        assert_eq!(drv.in_flight(), 4);
        service(&mut bus, &mut disk);
        let first = drv.on_irq(&mut bus);
        assert_eq!(first.len(), 2);
        // The queued pair was issued from the ISR.
        assert_eq!(bus.ahci.issued_slots(0).count_ones(), 2);
        service(&mut bus, &mut disk);
        assert_eq!(drv.on_irq(&mut bus).len(), 2);
        assert_eq!(drv.completed(), 4);
    }

    #[test]
    fn spurious_irq_is_harmless() {
        let (mut bus, _disk, mut drv) = rig();
        assert!(drv.on_irq(&mut bus).is_empty());
    }

    #[test]
    #[should_panic(expected = "init not called")]
    fn submit_before_init_panics() {
        let mut bus = DirectBus::new(1 << 30, 1 << 16, 0);
        let mut drv = AhciDriver::new();
        drv.submit(
            IoRequest::read(RequestId(0), BlockRange::new(Lba(0), 1)),
            &mut bus,
        );
    }
}
