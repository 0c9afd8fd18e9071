//! The AHCI device mediator (2,285 LOC in the paper's prototype).
//!
//! Same three tasks as [`crate::mediator::ide`], but the interpreted
//! interface is MMIO plus in-memory command structures: the mediator
//! shadows `PxCLB`, walks the guest's command list/tables on every `PxCI`
//! write, and filters `PxCI`/`PxIS`/`PxTFD` reads so the guest neither
//! sees the VMM's multiplexed slot nor notices a held (redirected) slot.
//!
//! The restart trick differs slightly from IDE, following §3.2: the
//! mediator *manipulates the command information* in place — the guest's
//! command table is rewritten to a 1-sector dummy read into a VMM buffer —
//! and the guest's own slot is then issued, so the device completes that
//! slot and raises the guest-visible interrupt itself.

use crate::bitmap::BlockBitmap;
use crate::mediator::{Mediation, MediatorMode, MediatorNames, Stat};
use hwsim::ahci::{preg, AhciCmdList, AhciCmdTable, H2dFis, PORT_BASE, PORT_STRIDE};
use hwsim::block::BlockRange;
use hwsim::ide::{AtaOp, PrdEntry, PrdTable};
use hwsim::mem::{PhysAddr, PhysMem};

/// The mediator's decision for one guest MMIO access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MmioVerdict {
    /// Deliver unchanged.
    Forward,
    /// Deliver, but with this value instead (e.g. a masked `PxIS` ack).
    ForwardMasked(u64),
    /// Swallow; queued for replay.
    Swallow,
    /// `PxCI` write split: forward these slots, hold those for redirect.
    Ci {
        /// Slots safe to issue to the device now.
        forward_mask: u32,
        /// Slots held for I/O redirection.
        redirects: Vec<AhciRedirect>,
    },
}

/// A guest AHCI command held for redirection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AhciRedirect {
    /// Slot index the guest issued.
    pub slot: u8,
    /// Address of the guest's command table for the slot.
    pub table: PhysAddr,
    /// Decoded operation.
    pub op: AtaOp,
    /// Decoded target range.
    pub range: BlockRange,
    /// True when converted because it touches the protected region.
    pub protected: bool,
}

/// The AHCI mediator's span track and metric names.
const NAMES: MediatorNames = mediator_names!("ahci");

/// The AHCI device mediator (single port, as on the evaluation machine).
#[derive(Debug)]
pub struct AhciMediator {
    /// The shared mediation policy.
    pub mediation: Mediation,
    clb: Option<PhysAddr>,
    /// CI bits the guest issued while the VMM owned the device.
    queued_ci: u32,
    /// Non-CI guest writes (e.g. `PxCLB` during driver init) swallowed
    /// while the VMM owned the device, replayed afterwards in order.
    queued_mmio: Vec<(u64, u64)>,
    /// Slots currently held for redirection (guest believes them issued).
    held_slots: u32,
    /// The VMM's multiplexed slot, if any.
    vmm_slot: Option<u8>,
}

impl AhciMediator {
    /// Creates a mediator with an optional protected bitmap region.
    pub fn new(protected_region: Option<BlockRange>) -> AhciMediator {
        AhciMediator {
            mediation: Mediation::new(&NAMES, protected_region),
            clb: None,
            queued_ci: 0,
            queued_mmio: Vec::new(),
            held_slots: 0,
            vmm_slot: None,
        }
    }

    /// The shadowed command-list base, once interpreted.
    pub fn clb(&self) -> Option<PhysAddr> {
        self.clb
    }

    fn vmm_mask(&self) -> u32 {
        self.vmm_slot.map(|s| 1 << s).unwrap_or(0)
    }

    /// The mediator's own walk of the guest's command structures — I/O
    /// interpretation "in association with in-memory data structures".
    fn decode_slot(&self, mem: &PhysMem, slot: u8) -> Option<(PhysAddr, H2dFis)> {
        let clb = self.clb?;
        let list = mem.get::<AhciCmdList>(clb)?;
        let header = (*list.slots.get(slot as usize)?)?;
        let table = mem.get::<AhciCmdTable>(header.ctba)?;
        Some((header.ctba, table.cfis))
    }

    /// Processes a trapped guest MMIO write (offset relative to ABAR).
    pub fn on_guest_write(
        &mut self,
        offset: u64,
        val: u64,
        mem: &PhysMem,
        bitmap: &mut BlockBitmap,
    ) -> MmioVerdict {
        if offset < PORT_BASE {
            return MmioVerdict::Forward; // generic host control
        }
        let reg = (offset - PORT_BASE) % PORT_STRIDE;
        // While the VMM owns the device, guest issues queue, and so do
        // structural writes (command-list repointing, port start/stop),
        // which must not take effect mid-VMM-command.
        if self.mediation.mode() == MediatorMode::Multiplexing
            && matches!(reg, preg::CI | preg::CLB | preg::CMD)
        {
            if reg == preg::CI {
                self.queued_ci |= val as u32;
            } else {
                self.queued_mmio.push((offset, val));
            }
            self.mediation.count(Stat::QueuedAccesses);
            return MmioVerdict::Swallow;
        }
        match reg {
            preg::CLB => {
                self.clb = Some(PhysAddr(val));
                MmioVerdict::Forward
            }
            preg::IS => {
                // Never let a guest ack clear the VMM slot's bit.
                let masked = val & !(self.vmm_mask() as u64);
                if masked != val {
                    MmioVerdict::ForwardMasked(masked)
                } else {
                    MmioVerdict::Forward
                }
            }
            preg::CI => self.on_ci_write(val as u32, mem, bitmap),
            _ => MmioVerdict::Forward,
        }
    }

    fn on_ci_write(&mut self, val: u32, mem: &PhysMem, bitmap: &mut BlockBitmap) -> MmioVerdict {
        let mut forward = 0u32;
        let mut redirects = Vec::new();
        for slot in 0..32u8 {
            if val & (1 << slot) == 0 {
                continue;
            }
            let Some((table, fis)) = self.decode_slot(mem, slot) else {
                forward |= 1 << slot; // uninterpretable: let hardware cope
                continue;
            };
            let core = &mut self.mediation;
            core.count(Stat::InterpretedCommands);
            core.instant("io.decode", || {
                format!(
                    "slot {slot} {:?} lba {} x{}",
                    fis.op, fis.range.lba.0, fis.range.sectors
                )
            });
            let route = core.route(fis.op, fis.range, bitmap);
            core.interpret(route.is_some(), fis.range, || format!("slot {slot} "));
            match route {
                Some(protected) => {
                    self.held_slots |= 1 << slot;
                    redirects.push(AhciRedirect {
                        slot,
                        table,
                        op: fis.op,
                        range: fis.range,
                        protected,
                    });
                }
                None => forward |= 1 << slot,
            }
        }
        // Only the write that takes the port out of `Normal` opens the
        // hold span; a slot held while others are held joins that hold.
        if !redirects.is_empty() && self.mediation.mode() == MediatorMode::Normal {
            let held = self.held_slots;
            self.mediation.hold(MediatorMode::Redirecting, || {
                format!("redirect hold slots {held:#x}")
            });
        }
        MmioVerdict::Ci {
            forward_mask: forward,
            redirects,
        }
    }

    /// Filters a trapped guest MMIO read: takes the raw device value and
    /// returns what the guest should see.
    pub fn filter_read(&mut self, offset: u64, raw: u64) -> u64 {
        if offset < PORT_BASE {
            return raw;
        }
        let reg = (offset - PORT_BASE) % PORT_STRIDE;
        let v = match reg {
            // Held slots look issued; the VMM slot is invisible.
            preg::CI => ((raw as u32 | self.held_slots) & !self.vmm_mask()) as u64,
            preg::IS => (raw as u32 & !self.vmm_mask()) as u64,
            preg::TFD => match self.mediation.mode() {
                MediatorMode::Redirecting => 0x80, // busy
                // Idle, despite the VMM's command running.
                MediatorMode::Multiplexing => 0x40,
                MediatorMode::Normal => return raw,
            },
            _ => return raw,
        };
        // A TFD read while held is emulated even when the raw value
        // happens to agree.
        if v != raw || reg == preg::TFD {
            self.mediation.count(Stat::EmulatedReads);
        }
        v
    }

    /// Rewrites a held slot's command table into the dummy restart: a
    /// 1-sector read of the warm dummy sector into `dummy_buf`. The
    /// guest's data buffers are untouched; issuing the slot afterwards
    /// makes the device raise the guest-visible completion interrupt.
    ///
    /// # Panics
    ///
    /// Panics if `table` does not name a command table.
    pub fn rewrite_for_dummy(mem: &mut PhysMem, table: PhysAddr, dummy_buf: PhysAddr) {
        let t = mem
            .get_mut::<AhciCmdTable>(table)
            .expect("rewrite_for_dummy: no command table");
        t.cfis = H2dFis {
            op: AtaOp::ReadDma,
            range: BlockRange::new(crate::mediator::ide::DUMMY_LBA, 1),
        };
        t.prdt = PrdTable {
            entries: vec![PrdEntry {
                buf: dummy_buf,
                sectors: 1,
            }],
        };
    }

    /// Releases a held slot (its dummy restart is being issued). Returns
    /// to `Normal` when no held slots remain.
    pub fn release_held(&mut self, slot: u8) {
        self.held_slots &= !(1 << slot);
        if self.held_slots == 0 && self.mediation.mode() == MediatorMode::Redirecting {
            self.mediation.release(MediatorMode::Redirecting);
        }
    }

    /// Whether the VMM may multiplex now.
    pub fn can_multiplex(&self, device_busy: bool) -> bool {
        self.mediation.mode() == MediatorMode::Normal && !device_busy
    }

    /// Enters multiplexing mode with the VMM owning `slot`.
    ///
    /// # Panics
    ///
    /// Panics if already mediating.
    pub fn begin_multiplex(&mut self, slot: u8) {
        self.mediation.hold(MediatorMode::Multiplexing, || {
            format!("multiplex hold slot {slot}")
        });
        self.vmm_slot = Some(slot);
    }

    /// Leaves multiplexing mode; returns guest CI bits queued meanwhile
    /// (to be replayed through [`AhciMediator::on_guest_write`]).
    ///
    /// # Panics
    ///
    /// Panics if not multiplexing.
    pub fn finish_multiplex(&mut self) -> u32 {
        self.mediation.release(MediatorMode::Multiplexing);
        self.vmm_slot = None;
        std::mem::take(&mut self.queued_ci)
    }

    /// Drains non-CI guest writes queued during multiplexing, in order.
    /// Replay these through [`AhciMediator::on_guest_write`] *before* the
    /// queued CI bits.
    pub fn take_queued_mmio(&mut self) -> Vec<(u64, u64)> {
        std::mem::take(&mut self.queued_mmio)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwsim::ahci::AhciCmdHeader;
    use hwsim::block::Lba;
    use hwsim::mem::DmaBuffer;
    use simkit::SimTime;

    fn setup(mem: &mut PhysMem, med: &mut AhciMediator) -> PhysAddr {
        let clb = mem.alloc(AhciCmdList::new());
        let bm = &mut BlockBitmap::new(1 << 16);
        med.on_guest_write(PORT_BASE + preg::CLB, clb.0, mem, bm);
        clb
    }

    fn fill_slot(
        mem: &mut PhysMem,
        clb: PhysAddr,
        slot: u8,
        op: AtaOp,
        lba: u64,
        sectors: u32,
    ) -> PhysAddr {
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
        mem.get_mut::<AhciCmdList>(clb).unwrap().slots[slot as usize] = Some(AhciCmdHeader {
            ctba: table,
            write: op == AtaOp::WriteDma,
        });
        table
    }

    #[test]
    fn empty_read_slot_is_held() {
        let mut mem = PhysMem::new(1 << 30);
        let mut med = AhciMediator::new(None);
        let mut bm = BlockBitmap::new(1 << 16);
        let clb = setup(&mut mem, &mut med);
        let table = fill_slot(&mut mem, clb, 0, AtaOp::ReadDma, 100, 8);
        let v = med.on_guest_write(PORT_BASE + preg::CI, 1, &mem, &mut bm);
        let MmioVerdict::Ci {
            forward_mask,
            redirects,
        } = v
        else {
            panic!("expected CI verdict, got {v:?}");
        };
        assert_eq!(forward_mask, 0);
        assert_eq!(redirects.len(), 1);
        assert_eq!(redirects[0].slot, 0);
        assert_eq!(redirects[0].table, table);
        assert_eq!(redirects[0].range, BlockRange::new(Lba(100), 8));
        assert_eq!(med.mediation.mode(), MediatorMode::Redirecting);
    }

    #[test]
    fn filled_read_and_write_forward_mixed() {
        let mut mem = PhysMem::new(1 << 30);
        let mut med = AhciMediator::new(None);
        let mut bm = BlockBitmap::new(1 << 16);
        bm.mark_filled(BlockRange::new(Lba(0), 64));
        let clb = setup(&mut mem, &mut med);
        fill_slot(&mut mem, clb, 0, AtaOp::ReadDma, 0, 8); // filled read
        fill_slot(&mut mem, clb, 1, AtaOp::WriteDma, 500, 4); // write
        fill_slot(&mut mem, clb, 2, AtaOp::ReadDma, 900, 4); // empty read
        let v = med.on_guest_write(PORT_BASE + preg::CI, 0b111, &mem, &mut bm);
        let MmioVerdict::Ci {
            forward_mask,
            redirects,
        } = v
        else {
            panic!()
        };
        assert_eq!(forward_mask, 0b011);
        assert_eq!(redirects.len(), 1);
        assert_eq!(redirects[0].slot, 2);
        assert!(bm.all_filled(BlockRange::new(Lba(500), 4)), "write marked");
    }

    #[test]
    fn held_slot_visible_in_ci_reads() {
        let mut mem = PhysMem::new(1 << 30);
        let mut med = AhciMediator::new(None);
        let mut bm = BlockBitmap::new(1 << 16);
        let clb = setup(&mut mem, &mut med);
        fill_slot(&mut mem, clb, 3, AtaOp::ReadDma, 10, 1);
        med.on_guest_write(PORT_BASE + preg::CI, 1 << 3, &mem, &mut bm);
        // Device CI is 0 (we held it) but the guest must see bit 3.
        assert_eq!(med.filter_read(PORT_BASE + preg::CI, 0), 1 << 3);
        assert_eq!(med.filter_read(PORT_BASE + preg::TFD, 0x40), 0x80, "busy");
        med.release_held(3);
        assert_eq!(med.filter_read(PORT_BASE + preg::CI, 0), 0);
        assert_eq!(med.mediation.mode(), MediatorMode::Normal);
    }

    /// A second `PxCI` write that holds a slot while another is held
    /// stays in the one hold: releasing both ends it, and no span is
    /// left open.
    #[test]
    fn second_held_slot_joins_the_open_hold() {
        use simkit::Spans;

        let mut mem = PhysMem::new(1 << 30);
        let mut med = AhciMediator::new(None);
        let spans = Spans::enabled(64);
        med.mediation.set_spans(spans.clone());
        let mut bm = BlockBitmap::new(1 << 16);
        let clb = setup(&mut mem, &mut med);
        fill_slot(&mut mem, clb, 0, AtaOp::ReadDma, 10, 1);
        fill_slot(&mut mem, clb, 1, AtaOp::ReadDma, 20, 1);
        med.on_guest_write(PORT_BASE + preg::CI, 1 << 0, &mem, &mut bm);
        med.on_guest_write(PORT_BASE + preg::CI, 1 << 1, &mem, &mut bm);
        assert_eq!(med.mediation.mode(), MediatorMode::Redirecting);
        med.release_held(0);
        assert_eq!(med.mediation.mode(), MediatorMode::Redirecting);
        med.release_held(1);
        assert_eq!(med.mediation.mode(), MediatorMode::Normal);
        assert_eq!(spans.open_count(), 0, "no hold span left open");
        assert_eq!(spans.finished_of("io.hold").len(), 1);
    }

    #[test]
    fn vmm_slot_invisible_during_multiplex() {
        let mut med = AhciMediator::new(None);
        med.begin_multiplex(31);
        let ci = med.filter_read(PORT_BASE + preg::CI, 1 << 31);
        assert_eq!(ci, 0, "VMM slot hidden from CI");
        let is = med.filter_read(PORT_BASE + preg::IS, 1 << 31);
        assert_eq!(is, 0, "VMM slot hidden from IS");
        assert_eq!(med.filter_read(PORT_BASE + preg::TFD, 0x80), 0x40, "idle");
    }

    #[test]
    fn guest_ci_queues_during_multiplex_and_replays() {
        let mut mem = PhysMem::new(1 << 30);
        let mut med = AhciMediator::new(None);
        let mut bm = BlockBitmap::new(1 << 16);
        bm.mark_filled(BlockRange::new(Lba(0), 64));
        let clb = setup(&mut mem, &mut med);
        fill_slot(&mut mem, clb, 0, AtaOp::ReadDma, 0, 4);
        med.begin_multiplex(31);
        let v = med.on_guest_write(PORT_BASE + preg::CI, 1, &mem, &mut bm);
        assert_eq!(v, MmioVerdict::Swallow);
        let queued = med.finish_multiplex();
        assert_eq!(queued, 1);
        // Replay goes back through the normal path and forwards.
        let v = med.on_guest_write(PORT_BASE + preg::CI, queued as u64, &mem, &mut bm);
        assert!(matches!(
            v,
            MmioVerdict::Ci {
                forward_mask: 1,
                ..
            }
        ));
    }

    #[test]
    fn is_ack_masks_vmm_bit() {
        let mem = PhysMem::new(1 << 30);
        let mut med = AhciMediator::new(None);
        let mut bm = BlockBitmap::new(1 << 16);
        med.begin_multiplex(31);
        let v = med.on_guest_write(PORT_BASE + preg::IS, (1u64 << 31) | 0b1, &mem, &mut bm);
        assert_eq!(v, MmioVerdict::ForwardMasked(0b1));
        let _ = mem;
    }

    #[test]
    fn rewrite_for_dummy_replaces_fis_and_prdt() {
        let mut mem = PhysMem::new(1 << 30);
        let guest_buf = mem.alloc(DmaBuffer::new(8));
        let table = mem.alloc(AhciCmdTable {
            cfis: H2dFis {
                op: AtaOp::ReadDma,
                range: BlockRange::new(Lba(700), 8),
            },
            prdt: PrdTable {
                entries: vec![PrdEntry {
                    buf: guest_buf,
                    sectors: 8,
                }],
            },
        });
        let dummy = mem.alloc(DmaBuffer::new(1));
        AhciMediator::rewrite_for_dummy(&mut mem, table, dummy);
        let t = mem.get::<AhciCmdTable>(table).unwrap();
        assert_eq!(t.cfis.range.sectors, 1);
        assert_eq!(t.prdt.entries[0].buf, dummy);
    }

    /// §3.3 consistency, the interior case: a guest NCQ write strictly
    /// inside one in-flight copy block must split that block into two
    /// surviving pieces; the guest's sectors in the middle are never
    /// overwritten by the stale fetch.
    #[test]
    fn partial_block_guest_write_splits_racing_background_block() {
        use crate::background::{BackgroundCopy, FetchedBlock};
        use hwsim::block::BlockStore;

        let mut mem = PhysMem::new(1 << 30);
        let mut med = AhciMediator::new(None);
        let mut bm = BlockBitmap::new(1 << 16);
        let mut bg = BackgroundCopy::new(64, 8, 4, 1 << 16);

        let r0 = bg.next_fetch(SimTime::ZERO, &bm).unwrap();
        let r1 = bg.next_fetch(SimTime::ZERO, &bm).unwrap();
        assert_eq!(r1, BlockRange::new(Lba(64), 64));

        // Guest writes 10 sectors strictly inside the in-flight block
        // [64,128) while its fetch is on the wire.
        let clb = setup(&mut mem, &mut med);
        fill_slot(&mut mem, clb, 0, AtaOp::WriteDma, 100, 10);
        let v = med.on_guest_write(PORT_BASE + preg::CI, 1, &mem, &mut bm);
        assert!(matches!(
            v,
            MmioVerdict::Ci {
                forward_mask: 1,
                ..
            }
        ));
        assert!(bm.all_filled(BlockRange::new(Lba(100), 10)));

        for r in [r0, r1] {
            bg.deliver(
                SimTime::ZERO,
                FetchedBlock {
                    data: r
                        .iter()
                        .map(|lba| BlockStore::image_content(7, lba))
                        .collect::<Vec<_>>()
                        .into(),
                    range: r,
                },
            );
        }

        // [0,64) lands whole; [64,128) splits around the guest's
        // [100,110).
        let p0 = bg.pop_for_write(&mut bm).unwrap();
        assert_eq!(p0.len(), 1);
        assert_eq!(p0[0].range, BlockRange::new(Lba(0), 64));
        let p1 = bg.pop_for_write(&mut bm).unwrap();
        assert_eq!(
            p1.iter().map(|p| p.range).collect::<Vec<_>>(),
            vec![BlockRange::new(Lba(64), 36), BlockRange::new(Lba(110), 18)]
        );
        // Each piece's data is the server's, offset correctly into the
        // original block.
        assert_eq!(p1[0].data[0], BlockStore::image_content(7, Lba(64)));
        assert_eq!(p1[1].data[0], BlockStore::image_content(7, Lba(110)));
        assert!(bg.pop_for_write(&mut bm).is_none());
    }

    #[test]
    fn protected_region_converts() {
        let mut mem = PhysMem::new(1 << 30);
        let mut med = AhciMediator::new(Some(BlockRange::new(Lba(2000), 32)));
        let mut bm = BlockBitmap::new(1 << 16);
        bm.mark_filled(BlockRange::new(Lba(0), 1 << 12));
        let clb = setup(&mut mem, &mut med);
        fill_slot(&mut mem, clb, 0, AtaOp::WriteDma, 2010, 4);
        let v = med.on_guest_write(PORT_BASE + preg::CI, 1, &mem, &mut bm);
        let MmioVerdict::Ci { redirects, .. } = v else {
            panic!()
        };
        assert!(redirects[0].protected);
        assert_eq!(med.mediation.stats().protected_conversions, 1);
    }
}
