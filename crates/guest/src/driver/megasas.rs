//! Guest MegaRAID SAS driver (MFI queue interface).
//!
//! The guest's stock driver for the third mediated controller family:
//! builds request frames in memory, posts them to the inbound queue port,
//! and drains the outbound completion queue from its interrupt handler.

use crate::bus::GuestBus;
use crate::driver::BlockDriver;
use crate::io::{CompletedIo, IoRequest};
use hwsim::megasas::{reg, MfiFrame, MfiOp, MfiStatus, MEGASAS_BAR};
use hwsim::mem::{DmaBuffer, PhysAddr};
use std::collections::HashMap;

fn r(offset: u64) -> u64 {
    MEGASAS_BAR + offset
}

/// The guest's MegaRAID driver.
///
/// # Examples
///
/// ```
/// use guestsim::driver::megasas::MegasasDriver;
/// let drv = MegasasDriver::new();
/// assert_eq!(drv.completed(), 0);
/// ```
#[derive(Debug, Default)]
pub struct MegasasDriver {
    /// Posted frames awaiting completion, keyed by frame address.
    inflight: HashMap<u64, (IoRequest, PhysAddr)>,
    submitted: u64,
    completed: u64,
}

impl MegasasDriver {
    /// An idle driver.
    pub fn new() -> MegasasDriver {
        MegasasDriver::default()
    }

    /// Requests completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }
}

impl BlockDriver for MegasasDriver {
    fn submit(&mut self, req: IoRequest, bus: &mut dyn GuestBus) {
        let sectors = req.range.sectors as usize;
        let mut dma = DmaBuffer::new(sectors);
        if let Some(data) = &req.data {
            dma.sectors.copy_from_slice(data);
        }
        let buffer = bus.mem().alloc(dma);
        let frame = bus.mem().alloc(MfiFrame {
            op: if req.is_write() {
                MfiOp::LdWrite
            } else {
                MfiOp::LdRead
            },
            range: req.range,
            buffer,
            status: MfiStatus::Pending,
        });
        bus.mmio_write(r(reg::IQP), frame.0);
        self.submitted += 1;
        self.inflight.insert(frame.0, (req, buffer));
    }

    fn on_irq(&mut self, bus: &mut dyn GuestBus) -> Vec<CompletedIo> {
        let mut done = Vec::new();
        loop {
            let popped = bus.mmio_read(r(reg::OQP));
            if popped == 0 {
                break;
            }
            let Some((req, buffer)) = self.inflight.remove(&popped) else {
                continue; // not ours (filtered VMM slot); ignore
            };
            let frame = bus.mem().get::<MfiFrame>(PhysAddr(popped)).copied();
            debug_assert_eq!(
                frame.map(|f| f.status),
                Some(MfiStatus::Ok),
                "device completed the frame"
            );
            let data = if req.is_write() {
                Vec::new()
            } else {
                bus.mem()
                    .get::<DmaBuffer>(buffer)
                    .expect("frame buffer vanished")
                    .sectors
                    .clone()
            };
            bus.mem().free(buffer);
            bus.mem().free(PhysAddr(popped));
            self.completed += 1;
            done.push(CompletedIo {
                id: req.id,
                range: req.range,
                write: req.is_write(),
                data,
            });
        }
        bus.mmio_write(r(reg::OIAR), 1); // acknowledge the interrupt
        done
    }

    fn in_flight(&self) -> usize {
        self.inflight.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::RequestId;
    use hwsim::block::{BlockRange, BlockStore, Lba, SectorData};
    use hwsim::disk::{DiskModel, DiskParams};
    use hwsim::megasas::Megasas;
    use hwsim::mem::PhysMem;

    struct MegasasBus {
        mem: PhysMem,
        ctl: Megasas,
    }

    impl GuestBus for MegasasBus {
        fn pio_read(&mut self, _port: u16) -> u32 {
            0
        }
        fn pio_write(&mut self, _port: u16, _val: u32) {}
        fn mmio_read(&mut self, addr: u64) -> u64 {
            if Megasas::owns_mmio(addr) {
                self.ctl.mmio_read(addr - MEGASAS_BAR)
            } else {
                0
            }
        }
        fn mmio_write(&mut self, addr: u64, val: u64) {
            if Megasas::owns_mmio(addr) {
                self.ctl.mmio_write(addr - MEGASAS_BAR, val);
            }
        }
        fn mem(&mut self) -> &mut PhysMem {
            &mut self.mem
        }
    }

    fn rig() -> (MegasasBus, MegasasDriver, DiskModel) {
        let params = DiskParams {
            capacity_sectors: 1 << 16,
            ..DiskParams::default()
        };
        let disk = DiskModel::new(
            params.clone(),
            BlockStore::image(params.capacity_sectors, 0xD15C),
        );
        (
            MegasasBus {
                mem: PhysMem::new(1 << 30),
                ctl: Megasas::new(),
            },
            MegasasDriver::new(),
            disk,
        )
    }

    fn service(bus: &mut MegasasBus, disk: &mut DiskModel) {
        while bus.ctl.start_next().is_some() {
            bus.ctl.complete_active(&mut bus.mem, disk);
        }
    }

    #[test]
    fn read_round_trip() {
        let (mut bus, mut drv, mut disk) = rig();
        drv.submit(
            IoRequest::read(RequestId(1), BlockRange::new(Lba(123), 4)),
            &mut bus,
        );
        assert_eq!(drv.in_flight(), 1);
        service(&mut bus, &mut disk);
        assert!(bus.ctl.irq_pending());
        let done = drv.on_irq(&mut bus);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].data[0], BlockStore::image_content(0xD15C, Lba(123)));
        assert!(!bus.ctl.irq_pending(), "ISR acked");
        assert_eq!(drv.in_flight(), 0);
    }

    #[test]
    fn write_round_trip() {
        let (mut bus, mut drv, mut disk) = rig();
        drv.submit(
            IoRequest::write(
                RequestId(2),
                BlockRange::new(Lba(20), 2),
                vec![SectorData(5), SectorData(6)],
            ),
            &mut bus,
        );
        service(&mut bus, &mut disk);
        let done = drv.on_irq(&mut bus);
        assert!(done[0].write);
        assert_eq!(disk.store().read(Lba(20)), SectorData(5));
    }

    #[test]
    fn multiple_outstanding_frames() {
        let (mut bus, mut drv, mut disk) = rig();
        for i in 0..5u64 {
            drv.submit(
                IoRequest::read(RequestId(i), BlockRange::new(Lba(i * 100), 1)),
                &mut bus,
            );
        }
        assert_eq!(drv.in_flight(), 5);
        service(&mut bus, &mut disk);
        let done = drv.on_irq(&mut bus);
        assert_eq!(done.len(), 5);
        assert_eq!(drv.completed(), 5);
    }

    #[test]
    fn spurious_irq_is_harmless() {
        let (mut bus, mut drv, _disk) = rig();
        assert!(drv.on_irq(&mut bus).is_empty());
    }
}
