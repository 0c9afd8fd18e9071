//! Register/descriptor-level Intel PRO/1000 (e1000) NIC model.
//!
//! Unlike the queue-level [`crate::nic`] model (sufficient for the VMM's
//! dedicated polled NIC), this model exposes the descriptor rings a real
//! e1000 driver programs: base/length/head/tail registers for TX and RX
//! rings living in physical memory. It exists for the paper's §6
//! *shared-NIC device mediator*, which maintains shadow rings and
//! virtualizes exactly these head/tail registers.

use crate::eth::MacAddr;
use crate::mem::{PhysAddr, PhysMem};

/// Physical base of the NIC's MMIO window.
pub const E1000_BAR: u64 = 0xFEA0_0000;
/// Size of the MMIO window.
pub const E1000_BAR_SIZE: u64 = 0x20000;

/// Register offsets (subset relevant to data movement).
pub mod reg {
    /// Device control.
    pub const CTRL: u64 = 0x0000;
    /// Interrupt cause read (read-to-clear).
    pub const ICR: u64 = 0x00C0;
    /// Interrupt mask set.
    pub const IMS: u64 = 0x00D0;
    /// TX descriptor ring base.
    pub const TDBAL: u64 = 0x3800;
    /// TX ring length (descriptors).
    pub const TDLEN: u64 = 0x3808;
    /// TX head (device-owned).
    pub const TDH: u64 = 0x3810;
    /// TX tail (driver-owned doorbell).
    pub const TDT: u64 = 0x3818;
    /// RX descriptor ring base.
    pub const RDBAL: u64 = 0x2800;
    /// RX ring length (descriptors).
    pub const RDLEN: u64 = 0x2808;
    /// RX head (device-owned).
    pub const RDH: u64 = 0x2810;
    /// RX tail (driver-owned).
    pub const RDT: u64 = 0x2818;
}

/// ICR bits.
pub mod icr {
    /// Transmit descriptor written back.
    pub const TXDW: u64 = 1 << 0;
    /// Receiver timer (frames received).
    pub const RXT0: u64 = 1 << 7;
}

/// A frame buffer in physical memory, as descriptors point at it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FrameBuf {
    /// Destination MAC (the driver fills the Ethernet header).
    pub dst: MacAddr,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// One descriptor: a buffer pointer plus a done flag the device sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Descriptor {
    /// Address of a [`FrameBuf`].
    pub buf: PhysAddr,
    /// Set by the device when the descriptor has been processed.
    pub done: bool,
}

/// A descriptor ring stored in physical memory.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DescRing {
    /// The descriptors.
    pub slots: Vec<Descriptor>,
}

impl DescRing {
    /// A ring of `n` descriptors pointing at pre-allocated buffers.
    pub fn with_buffers(mem: &mut PhysMem, n: usize) -> (PhysAddr, Vec<PhysAddr>) {
        let bufs: Vec<PhysAddr> = (0..n).map(|_| mem.alloc(FrameBuf::default())).collect();
        let ring = DescRing {
            slots: bufs
                .iter()
                .map(|&buf| Descriptor { buf, done: false })
                .collect(),
        };
        (mem.alloc(ring), bufs)
    }
}

/// Actions the device reports on register writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum E1000Action {
    /// The TX tail moved: descriptors `[old_tdh, new_tdt)` are ready to
    /// transmit.
    Transmit,
}

/// The e1000 device model.
///
/// # Examples
///
/// See the crate tests; the flow is: program ring bases/lengths, fill a
/// descriptor + buffer, write TDT, then [`E1000::take_tx`] hands the
/// frames to the fabric layer.
#[derive(Debug, Clone)]
pub struct E1000 {
    mac: MacAddr,
    tdbal: PhysAddr,
    tdlen: u32,
    tdh: u32,
    tdt: u32,
    rdbal: PhysAddr,
    rdlen: u32,
    rdh: u32,
    rdt: u32,
    icr: u64,
    ims: u64,
    irq: bool,
    dropped_rx: u64,
}

impl E1000 {
    /// A device with the given MAC, rings unprogrammed.
    pub fn new(mac: MacAddr) -> E1000 {
        E1000 {
            mac,
            tdbal: PhysAddr(0),
            tdlen: 0,
            tdh: 0,
            tdt: 0,
            rdbal: PhysAddr(0),
            rdlen: 0,
            rdh: 0,
            rdt: 0,
            icr: 0,
            ims: 0,
            irq: false,
            dropped_rx: 0,
        }
    }

    /// The device MAC.
    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// Whether `addr` is inside this device's MMIO window.
    pub fn owns_mmio(addr: u64) -> bool {
        (E1000_BAR..E1000_BAR + E1000_BAR_SIZE).contains(&addr)
    }

    /// RX frames dropped because the ring had no free descriptors.
    pub fn dropped_rx(&self) -> u64 {
        self.dropped_rx
    }

    /// Whether the interrupt line is asserted.
    pub fn irq_pending(&self) -> bool {
        self.irq
    }

    /// Handles an MMIO write (offset within the BAR).
    pub fn mmio_write(&mut self, offset: u64, val: u64) -> Option<E1000Action> {
        match offset {
            reg::TDBAL => self.tdbal = PhysAddr(val),
            reg::TDLEN => self.tdlen = val as u32,
            reg::TDT => {
                self.tdt = val as u32 % self.tdlen.max(1);
                if self.tdt != self.tdh {
                    return Some(E1000Action::Transmit);
                }
            }
            reg::RDBAL => self.rdbal = PhysAddr(val),
            reg::RDLEN => self.rdlen = val as u32,
            reg::RDT => self.rdt = val as u32 % self.rdlen.max(1),
            reg::IMS => self.ims |= val,
            reg::CTRL => {}
            _ => {}
        }
        None
    }

    /// Handles an MMIO read. Reading ICR clears it and deasserts the
    /// interrupt, as on real hardware.
    pub fn mmio_read(&mut self, offset: u64) -> u64 {
        match offset {
            reg::ICR => {
                let v = self.icr;
                self.icr = 0;
                self.irq = false;
                v
            }
            reg::TDH => self.tdh as u64,
            reg::TDT => self.tdt as u64,
            reg::RDH => self.rdh as u64,
            reg::RDT => self.rdt as u64,
            reg::TDBAL => self.tdbal.0,
            reg::RDBAL => self.rdbal.0,
            reg::TDLEN => self.tdlen as u64,
            reg::RDLEN => self.rdlen as u64,
            reg::IMS => self.ims,
            _ => 0,
        }
    }

    /// Transmits descriptors `[tdh, tdt)`: collects their frames, marks
    /// them done, advances TDH, raises TXDW.
    pub fn take_tx(&mut self, mem: &mut PhysMem) -> Vec<FrameBuf> {
        let mut out = Vec::new();
        if self.tdlen == 0 {
            return out;
        }
        while self.tdh != self.tdt {
            let idx = self.tdh as usize;
            let Some(ring) = mem.get_mut::<DescRing>(self.tdbal) else {
                break;
            };
            let Some(desc) = ring.slots.get_mut(idx).copied() else {
                break;
            };
            ring.slots[idx].done = true;
            if let Some(frame) = mem.get::<FrameBuf>(desc.buf) {
                out.push(frame.clone());
            }
            self.tdh = (self.tdh + 1) % self.tdlen;
        }
        if !out.is_empty() {
            self.icr |= icr::TXDW;
            if self.ims & icr::TXDW != 0 {
                self.irq = true;
            }
        }
        out
    }

    /// Receives a frame into the next free RX descriptor (at RDH). Drops
    /// the frame if the ring is full (RDH would pass RDT). Raises RXT0.
    pub fn deliver_rx(&mut self, mem: &mut PhysMem, frame: FrameBuf) {
        if self.rdlen == 0 {
            self.dropped_rx += 1;
            return;
        }
        let next = (self.rdh + 1) % self.rdlen;
        if next == self.rdt {
            // Ring full: the driver hasn't replenished.
            self.dropped_rx += 1;
            return;
        }
        let idx = self.rdh as usize;
        let Some(ring) = mem.get::<DescRing>(self.rdbal) else {
            self.dropped_rx += 1;
            return;
        };
        let Some(desc) = ring.slots.get(idx).copied() else {
            self.dropped_rx += 1;
            return;
        };
        if let Some(buf) = mem.get_mut::<FrameBuf>(desc.buf) {
            *buf = frame;
        }
        if let Some(ring) = mem.get_mut::<DescRing>(self.rdbal) {
            ring.slots[idx].done = true;
        }
        self.rdh = next;
        self.icr |= icr::RXT0;
        if self.ims & icr::RXT0 != 0 {
            self.irq = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rig() -> (
        E1000,
        PhysMem,
        PhysAddr,
        Vec<PhysAddr>,
        PhysAddr,
        Vec<PhysAddr>,
    ) {
        let mut mem = PhysMem::new(1 << 30);
        let mut nic = E1000::new(MacAddr::host(5));
        let (tx_ring, tx_bufs) = DescRing::with_buffers(&mut mem, 8);
        let (rx_ring, rx_bufs) = DescRing::with_buffers(&mut mem, 8);
        nic.mmio_write(reg::TDBAL, tx_ring.0);
        nic.mmio_write(reg::TDLEN, 8);
        nic.mmio_write(reg::RDBAL, rx_ring.0);
        nic.mmio_write(reg::RDLEN, 8);
        nic.mmio_write(reg::RDT, 7); // all but one descriptor available
        nic.mmio_write(reg::IMS, icr::TXDW | icr::RXT0);
        (nic, mem, tx_ring, tx_bufs, rx_ring, rx_bufs)
    }

    #[test]
    fn tx_ring_round_trip() {
        let (mut nic, mut mem, _ring, bufs, _, _) = rig();
        *mem.get_mut::<FrameBuf>(bufs[0]).unwrap() = FrameBuf {
            dst: MacAddr::host(9),
            payload: vec![1, 2, 3],
        };
        let action = nic.mmio_write(reg::TDT, 1);
        assert_eq!(action, Some(E1000Action::Transmit));
        let frames = nic.take_tx(&mut mem);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].payload, vec![1, 2, 3]);
        assert_eq!(nic.mmio_read(reg::TDH), 1, "head advanced");
        assert!(nic.irq_pending());
        assert_eq!(nic.mmio_read(reg::ICR) & icr::TXDW, icr::TXDW);
        assert!(!nic.irq_pending(), "ICR read clears the interrupt");
    }

    #[test]
    fn tx_wraps_the_ring() {
        let (mut nic, mut mem, _ring, _bufs, _, _) = rig();
        // Fill 6, then 4 more wrapping past the end.
        nic.mmio_write(reg::TDT, 6);
        assert_eq!(nic.take_tx(&mut mem).len(), 6);
        nic.mmio_write(reg::TDT, 2);
        assert_eq!(nic.take_tx(&mut mem).len(), 4);
        assert_eq!(nic.mmio_read(reg::TDH), 2);
    }

    #[test]
    fn rx_fills_descriptors_and_interrupts() {
        let (mut nic, mut mem, _, _, rx_ring, rx_bufs) = rig();
        nic.deliver_rx(
            &mut mem,
            FrameBuf {
                dst: MacAddr::host(5),
                payload: vec![9, 9],
            },
        );
        assert_eq!(nic.mmio_read(reg::RDH), 1);
        assert!(nic.irq_pending());
        let ring = mem.get::<DescRing>(rx_ring).unwrap();
        assert!(ring.slots[0].done);
        assert_eq!(mem.get::<FrameBuf>(rx_bufs[0]).unwrap().payload, vec![9, 9]);
    }

    #[test]
    fn rx_ring_full_drops() {
        let (mut nic, mut mem, _, _, _, _) = rig();
        for i in 0..10u8 {
            nic.deliver_rx(
                &mut mem,
                FrameBuf {
                    dst: MacAddr::host(5),
                    payload: vec![i],
                },
            );
        }
        // RDT = 7, so 6 descriptors fit (RDH stops at RDT - 1).
        assert_eq!(nic.mmio_read(reg::RDH), 6);
        assert_eq!(nic.dropped_rx(), 4);
    }

    #[test]
    fn unprogrammed_rings_are_safe() {
        let mut nic = E1000::new(MacAddr::host(1));
        let mut mem = PhysMem::new(1 << 20);
        assert!(nic.take_tx(&mut mem).is_empty());
        nic.deliver_rx(&mut mem, FrameBuf::default());
        assert_eq!(nic.dropped_rx(), 1);
    }

    #[test]
    fn mmio_window() {
        assert!(E1000::owns_mmio(E1000_BAR));
        assert!(!E1000::owns_mmio(E1000_BAR + E1000_BAR_SIZE));
    }
}
