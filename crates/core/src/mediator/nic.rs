//! The shared-NIC device mediator (§6, "Dedicated v.s. shared NIC").
//!
//! The paper implements (but ultimately chooses not to deploy) device
//! mediators for Intel PRO/1000 and Realtek RTL8169 that let the VMM
//! share one NIC with the guest:
//!
//! > "we create a shadow version of ring buffers. The shadow ring buffers
//! > are maintained by the VMM and the pointer to the buffers are set to
//! > the physical NIC. The guest ring buffers are maintained by the
//! > device driver of the guest OS and their contents are copied to and
//! > from the shadow ring buffers by the VMM. To perform the copy on the
//! > update of buffers, the VMM virtualizes the registers of head and
//! > tail pointers to the ring buffers in the NIC. The VMM interleaves
//! > its own network requests with the requests from the guest OS into
//! > the shadow ring buffers."
//!
//! That is exactly this module: the physical e1000 is programmed with
//! VMM-owned shadow rings; the guest's ring registers are interpreted and
//! *virtualized* (never forwarded); guest TX descriptors are harvested
//! into the shadow TX ring interleaved with the VMM's own frames; and
//! received frames are demultiplexed — AoE to the VMM, everything else
//! copied into the guest's RX ring with an emulated interrupt cause.

use crate::mediator::MediatorStats;
use hwsim::e1000::{icr, reg, DescRing, FrameBuf, E1000};
use hwsim::eth::MacAddr;
use hwsim::mem::{PhysAddr, PhysMem};
use simkit::Metrics;
use std::collections::VecDeque;

/// Size of the VMM's shadow rings.
const SHADOW_LEN: u32 = 64;

/// The shared-NIC mediator for e1000-class devices.
#[derive(Debug)]
pub struct NicMediator {
    // --- virtualized guest view (never forwarded to hardware) ---
    guest_tdbal: PhysAddr,
    guest_tdlen: u32,
    guest_tdh: u32,
    guest_tdt: u32,
    guest_rdbal: PhysAddr,
    guest_rdlen: u32,
    guest_rdh: u32,
    guest_rdt: u32,
    guest_ims: u64,
    guest_icr: u64,
    // --- VMM-owned shadow rings on the physical device ---
    shadow_tx: PhysAddr,
    shadow_tx_bufs: Vec<PhysAddr>,
    shadow_tx_tail: u32,
    shadow_rx_next: u32,
    /// The VMM's own frames awaiting interleave.
    vmm_tx: VecDeque<FrameBuf>,
    /// MAC of the storage server: frames from it belong to the VMM.
    vmm_peer: MacAddr,
    stats: MediatorStats,
    guest_tx_frames: u64,
    vmm_tx_frames: u64,
    guest_rx_frames: u64,
    vmm_rx_frames: u64,
    metrics: Metrics,
}

impl NicMediator {
    /// Creates the mediator: allocates shadow rings and programs them
    /// into the physical device, which the VMM owns from here on.
    pub fn new(mem: &mut PhysMem, phys: &mut E1000, vmm_peer: MacAddr) -> NicMediator {
        let (shadow_tx, shadow_tx_bufs) = DescRing::with_buffers(mem, SHADOW_LEN as usize);
        let (shadow_rx, _shadow_rx_bufs) = DescRing::with_buffers(mem, SHADOW_LEN as usize);
        phys.mmio_write(reg::TDBAL, shadow_tx.0);
        phys.mmio_write(reg::TDLEN, SHADOW_LEN as u64);
        phys.mmio_write(reg::RDBAL, shadow_rx.0);
        phys.mmio_write(reg::RDLEN, SHADOW_LEN as u64);
        phys.mmio_write(reg::RDT, (SHADOW_LEN - 1) as u64);
        NicMediator {
            guest_tdbal: PhysAddr(0),
            guest_tdlen: 0,
            guest_tdh: 0,
            guest_tdt: 0,
            guest_rdbal: PhysAddr(0),
            guest_rdlen: 0,
            guest_rdh: 0,
            guest_rdt: 0,
            guest_ims: 0,
            guest_icr: 0,
            shadow_tx,
            shadow_tx_bufs,
            shadow_tx_tail: 0,
            shadow_rx_next: 0,
            vmm_tx: VecDeque::new(),
            vmm_peer,
            stats: MediatorStats::default(),
            guest_tx_frames: 0,
            vmm_tx_frames: 0,
            guest_rx_frames: 0,
            vmm_rx_frames: 0,
            metrics: Metrics::disabled(),
        }
    }

    /// Mediation statistics.
    pub fn stats(&self) -> MediatorStats {
        self.stats
    }

    /// Attaches a metrics handle; `mediator.nic.*` counters land there.
    pub fn set_telemetry(&mut self, metrics: Metrics) {
        self.metrics = metrics;
    }

    /// Guest frames transmitted through the shadow rings.
    pub fn guest_tx_frames(&self) -> u64 {
        self.guest_tx_frames
    }

    /// VMM frames interleaved into the shadow rings.
    pub fn vmm_tx_frames(&self) -> u64 {
        self.vmm_tx_frames
    }

    /// Frames delivered into the guest's RX ring.
    pub fn guest_rx_frames(&self) -> u64 {
        self.guest_rx_frames
    }

    /// Frames demultiplexed to the VMM.
    pub fn vmm_rx_frames(&self) -> u64 {
        self.vmm_rx_frames
    }

    /// Whether the guest-visible interrupt line should be asserted.
    pub fn guest_irq_pending(&self) -> bool {
        self.guest_icr & self.guest_ims != 0
    }

    fn push_shadow_tx(&mut self, mem: &mut PhysMem, phys: &mut E1000, frame: FrameBuf) {
        let idx = self.shadow_tx_tail as usize;
        let buf = self.shadow_tx_bufs[idx];
        *mem.get_mut::<FrameBuf>(buf).expect("shadow tx buffer") = frame;
        self.shadow_tx_tail = (self.shadow_tx_tail + 1) % SHADOW_LEN;
        phys.mmio_write(reg::TDT, self.shadow_tx_tail as u64);
        let _ = self.shadow_tx; // ring itself is owned by the device now
    }

    /// Handles a trapped guest MMIO write. Nothing is forwarded: the
    /// guest's ring registers are fully virtualized.
    pub fn on_guest_write(&mut self, offset: u64, val: u64, mem: &mut PhysMem, phys: &mut E1000) {
        match offset {
            reg::TDBAL => self.guest_tdbal = PhysAddr(val),
            reg::TDLEN => self.guest_tdlen = val as u32,
            reg::RDBAL => self.guest_rdbal = PhysAddr(val),
            reg::RDLEN => self.guest_rdlen = val as u32,
            reg::RDT => self.guest_rdt = val as u32 % self.guest_rdlen.max(1),
            reg::IMS => self.guest_ims |= val,
            reg::TDT => {
                self.guest_tdt = val as u32 % self.guest_tdlen.max(1);
                self.harvest_guest_tx(mem, phys);
            }
            _ => {}
        }
        self.stats.interpreted_commands += 1;
    }

    /// Copies the guest's newly rung TX descriptors into the shadow ring,
    /// interleaving any pending VMM frames, and completes them in the
    /// guest's view.
    fn harvest_guest_tx(&mut self, mem: &mut PhysMem, phys: &mut E1000) {
        while self.guest_tdh != self.guest_tdt {
            // Interleave: one pending VMM frame between guest frames.
            if let Some(vf) = self.vmm_tx.pop_front() {
                self.vmm_tx_frames += 1;
                self.push_shadow_tx(mem, phys, vf);
                self.stats.multiplexes += 1;
                self.metrics.inc("mediator.nic.vmm_tx_frames");
            }
            let idx = self.guest_tdh as usize;
            let frame = mem
                .get::<DescRing>(self.guest_tdbal)
                .and_then(|ring| ring.slots.get(idx).copied())
                .and_then(|desc| mem.get::<FrameBuf>(desc.buf).cloned());
            if let Some(frame) = frame {
                self.guest_tx_frames += 1;
                self.push_shadow_tx(mem, phys, frame);
                self.metrics.inc("mediator.nic.guest_tx_frames");
            }
            if let Some(ring) = mem.get_mut::<DescRing>(self.guest_tdbal) {
                if let Some(d) = ring.slots.get_mut(idx) {
                    d.done = true;
                }
            }
            self.guest_tdh = (self.guest_tdh + 1) % self.guest_tdlen.max(1);
        }
        self.guest_icr |= icr::TXDW;
    }

    /// Queues a VMM frame; it rides the next harvest, or goes out
    /// immediately if the guest is quiet.
    pub fn vmm_send(&mut self, mem: &mut PhysMem, phys: &mut E1000, frame: FrameBuf) {
        if self.guest_tdh == self.guest_tdt {
            self.vmm_tx_frames += 1;
            self.push_shadow_tx(mem, phys, frame);
            self.stats.multiplexes += 1;
            self.metrics.inc("mediator.nic.vmm_tx_frames");
        } else {
            self.vmm_tx.push_back(frame);
        }
    }

    /// Handles a trapped guest MMIO read: fully emulated view.
    pub fn filter_guest_read(&mut self, offset: u64) -> u64 {
        self.stats.emulated_reads += 1;
        match offset {
            reg::ICR => {
                let v = self.guest_icr;
                self.guest_icr = 0;
                v
            }
            reg::TDH => self.guest_tdh as u64,
            reg::TDT => self.guest_tdt as u64,
            reg::RDH => self.guest_rdh as u64,
            reg::RDT => self.guest_rdt as u64,
            reg::TDBAL => self.guest_tdbal.0,
            reg::RDBAL => self.guest_rdbal.0,
            reg::TDLEN => self.guest_tdlen as u64,
            reg::RDLEN => self.guest_rdlen as u64,
            reg::IMS => self.guest_ims,
            _ => 0,
        }
    }

    /// The VMM's polling pass over the physical RX ring: demultiplexes
    /// frames — those from the storage server go to the VMM (returned),
    /// the rest are copied into the guest's RX ring.
    pub fn poll_rx(&mut self, mem: &mut PhysMem, phys: &mut E1000) -> Vec<FrameBuf> {
        let mut vmm_frames = Vec::new();
        let rdh = phys.mmio_read(reg::RDH) as u32;
        let rdbal = PhysAddr(phys.mmio_read(reg::RDBAL));
        while self.shadow_rx_next != rdh {
            let idx = self.shadow_rx_next as usize;
            let frame = mem
                .get::<DescRing>(rdbal)
                .and_then(|ring| ring.slots.get(idx).copied())
                .and_then(|desc| mem.get::<FrameBuf>(desc.buf).cloned());
            if let Some(frame) = frame {
                if frame.dst == self.vmm_peer || frame.payload.first() == Some(&0x10) {
                    // Heuristic AoE classification (version nibble 1).
                    self.vmm_rx_frames += 1;
                    self.metrics.inc("mediator.nic.vmm_rx_frames");
                    vmm_frames.push(frame);
                } else {
                    self.deliver_to_guest(mem, frame);
                }
            }
            self.shadow_rx_next = (self.shadow_rx_next + 1) % SHADOW_LEN;
            // Replenish the physical ring.
            let new_rdt = (self.shadow_rx_next + SHADOW_LEN - 1) % SHADOW_LEN;
            phys.mmio_write(reg::RDT, new_rdt as u64);
        }
        // Consume the physical interrupt in VMM context (polling).
        phys.mmio_read(reg::ICR);
        vmm_frames
    }

    /// Copies a frame into the guest's RX ring, emulating the device.
    fn deliver_to_guest(&mut self, mem: &mut PhysMem, frame: FrameBuf) {
        if self.guest_rdlen == 0 {
            return; // guest driver not up yet; drop like hardware would
        }
        let next = (self.guest_rdh + 1) % self.guest_rdlen;
        if next == self.guest_rdt {
            return; // guest ring full
        }
        let idx = self.guest_rdh as usize;
        let buf = mem
            .get::<DescRing>(self.guest_rdbal)
            .and_then(|ring| ring.slots.get(idx).copied());
        if let Some(desc) = buf {
            if let Some(b) = mem.get_mut::<FrameBuf>(desc.buf) {
                *b = frame;
            }
            if let Some(ring) = mem.get_mut::<DescRing>(self.guest_rdbal) {
                ring.slots[idx].done = true;
            }
            self.guest_rdh = next;
            self.guest_rx_frames += 1;
            self.metrics.inc("mediator.nic.guest_rx_frames");
            self.guest_icr |= icr::RXT0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guestsim::bus::GuestBus;
    use guestsim::driver::e1000::E1000Driver;
    use hwsim::e1000::E1000_BAR;

    /// A bus that routes the guest's e1000 MMIO through the mediator —
    /// the shared-NIC configuration in miniature.
    struct MediatedNicBus {
        mem: PhysMem,
        phys: E1000,
        med: NicMediator,
    }

    impl GuestBus for MediatedNicBus {
        fn pio_read(&mut self, _port: u16) -> u32 {
            0
        }
        fn pio_write(&mut self, _port: u16, _val: u32) {}
        fn mmio_read(&mut self, addr: u64) -> u64 {
            if E1000::owns_mmio(addr) {
                self.med.filter_guest_read(addr - E1000_BAR)
            } else {
                0
            }
        }
        fn mmio_write(&mut self, addr: u64, val: u64) {
            if E1000::owns_mmio(addr) {
                self.med
                    .on_guest_write(addr - E1000_BAR, val, &mut self.mem, &mut self.phys);
            }
        }
        fn mem(&mut self) -> &mut PhysMem {
            &mut self.mem
        }
    }

    fn rig() -> (MediatedNicBus, E1000Driver) {
        let mut mem = PhysMem::new(1 << 30);
        let mut phys = E1000::new(MacAddr::host(5));
        let med = NicMediator::new(&mut mem, &mut phys, MacAddr::host(1));
        let mut bus = MediatedNicBus { mem, phys, med };
        let mut drv = E1000Driver::new(16);
        drv.init(&mut bus);
        (bus, drv)
    }

    #[test]
    fn guest_tx_flows_through_shadow_ring() {
        let (mut bus, mut drv) = rig();
        drv.send(&mut bus, MacAddr::host(9), vec![1, 2, 3]);
        let MediatedNicBus { mem, phys, med } = &mut bus;
        let on_wire = phys.take_tx(mem);
        assert_eq!(on_wire.len(), 1);
        assert_eq!(on_wire[0].payload, vec![1, 2, 3]);
        assert_eq!(med.guest_tx_frames(), 1);
        // The guest believes its own descriptor completed.
        assert!(med.guest_irq_pending());
    }

    #[test]
    fn vmm_frames_interleave_with_guest_traffic() {
        let (mut bus, mut drv) = rig();
        {
            let MediatedNicBus { mem, phys, med } = &mut bus;
            // Guest quiet: the VMM frame goes straight out.
            med.vmm_send(
                mem,
                phys,
                FrameBuf {
                    dst: MacAddr::host(1),
                    payload: vec![0x10, 0xAA],
                },
            );
            assert_eq!(phys.take_tx(mem).len(), 1);
        }
        // Now queue a VMM frame "while" the guest transmits.
        drv.send(&mut bus, MacAddr::host(9), vec![7]);
        let MediatedNicBus { mem, phys, med } = &mut bus;
        med.vmm_send(
            mem,
            phys,
            FrameBuf {
                dst: MacAddr::host(1),
                payload: vec![0x10, 0xBB],
            },
        );
        let wire = phys.take_tx(mem);
        // Both the guest frame and the VMM frame made it out.
        assert_eq!(wire.len(), 2);
        assert_eq!(med.vmm_tx_frames(), 2);
        assert_eq!(med.guest_tx_frames(), 1);
    }

    #[test]
    fn rx_demultiplexes_vmm_and_guest_frames() {
        let (mut bus, mut drv) = rig();
        {
            let MediatedNicBus { mem, phys, .. } = &mut bus;
            // A storage-server (AoE) frame and a plain guest frame arrive.
            phys.deliver_rx(
                mem,
                FrameBuf {
                    dst: MacAddr::host(5),
                    payload: vec![0x10, 0x01], // AoE version nibble
                },
            );
            phys.deliver_rx(
                mem,
                FrameBuf {
                    dst: MacAddr::host(5),
                    payload: vec![0x45, 0x00], // an IP packet for the guest
                },
            );
        }
        let MediatedNicBus { mem, phys, med } = &mut bus;
        let vmm_frames = med.poll_rx(mem, phys);
        assert_eq!(vmm_frames.len(), 1, "AoE frame goes to the VMM");
        assert_eq!(vmm_frames[0].payload[0], 0x10);
        assert_eq!(med.guest_rx_frames(), 1);
        assert!(med.guest_irq_pending());
        // The guest ISR sees only its frame.
        let got = drv.on_irq(&mut bus);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload[0], 0x45);
    }

    #[test]
    fn guest_never_observes_physical_ring_state() {
        let (mut bus, mut drv) = rig();
        // Physical TDT has shadow activity the guest must not see.
        {
            let MediatedNicBus { mem, phys, med } = &mut bus;
            for _ in 0..5 {
                med.vmm_send(
                    mem,
                    phys,
                    FrameBuf {
                        dst: MacAddr::host(1),
                        payload: vec![0x10],
                    },
                );
            }
            phys.take_tx(mem);
        }
        assert_eq!(bus.mmio_read(E1000_BAR + reg::TDH), 0, "guest view");
        assert_eq!(bus.mmio_read(E1000_BAR + reg::TDT), 0, "guest view");
        drv.send(&mut bus, MacAddr::host(9), vec![1]);
        assert_eq!(bus.mmio_read(E1000_BAR + reg::TDH), 1, "guest completes");
    }

    #[test]
    fn guest_ring_full_drops_like_hardware() {
        let (mut bus, _drv) = rig();
        let MediatedNicBus { mem, phys, med } = &mut bus;
        for i in 0..40u8 {
            phys.deliver_rx(
                mem,
                FrameBuf {
                    dst: MacAddr::host(5),
                    payload: vec![0x45, i],
                },
            );
        }
        med.poll_rx(mem, phys);
        // A 16-deep ring with RDT at 15 accepts 14 frames (head may not
        // catch the tail); the rest are dropped like hardware would.
        assert_eq!(med.guest_rx_frames(), 14);
    }
}
