//! The IDE device mediator (1,472 LOC in the paper's prototype).
//!
//! Interprets taskfile + bus-master port traffic, decides per guest access
//! whether to forward, hold (redirect), queue (multiplex), or emulate, and
//! hands the system layer decoded commands to act on. See
//! [`crate::mediator`] for the three-task overview.

use crate::bitmap::BlockBitmap;
use crate::mediator::{Mediation, MediatorMode, MediatorNames, Stat};
use hwsim::block::{BlockRange, Lba};
use hwsim::ide::{status, AtaOp, IdeCommandBlock, IdeReg, Taskfile};
use hwsim::mem::PhysAddr;

/// The mediator's decision for one guest PIO access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PioVerdict {
    /// Deliver the access to the device unchanged.
    Forward,
    /// Swallow the access; it was queued for replay.
    Swallow,
    /// (Reads only) Return this value to the guest instead of touching the
    /// device.
    Emulate(u32),
    /// Hold this arming write: the command needs I/O redirection. The
    /// system layer must retract any pending controller command and start
    /// the fetch.
    StartRedirect(IdeRedirect),
}

/// A guest command held for redirection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdeRedirect {
    /// The decoded guest command (range, PRD pointer).
    pub cmd: IdeCommandBlock,
    /// True if the range touches the protected bitmap region: the command
    /// is converted to a dummy read instead of being redirected.
    pub protected: bool,
}

/// The IDE mediator's span track and metric names.
const NAMES: MediatorNames = mediator_names!("ide");

/// The IDE device mediator.
///
/// # Examples
///
/// Interpretation of a pass-through write command:
///
/// ```
/// use bmcast::mediator::ide::{IdeMediator, PioVerdict};
/// use bmcast::bitmap::BlockBitmap;
/// use hwsim::ide::IdeReg;
///
/// let mut med = IdeMediator::new(None);
/// let mut bitmap = BlockBitmap::new(1 << 16);
/// // Guest programs a 1-sector WRITE DMA at LBA 5 (EXT taskfile).
/// for (reg, val) in [
///     (IdeReg::BmPrdAddr, 0x1000),
///     (IdeReg::SectorCount, 0), (IdeReg::SectorCount, 1),
///     (IdeReg::LbaLow, 0), (IdeReg::LbaLow, 5),
///     (IdeReg::LbaMid, 0), (IdeReg::LbaMid, 0),
///     (IdeReg::LbaHigh, 0), (IdeReg::LbaHigh, 0),
///     (IdeReg::Device, 0x40),
///     (IdeReg::Command, 0x35),
/// ] {
///     assert_eq!(med.on_guest_write(reg, val, &mut bitmap), PioVerdict::Forward);
/// }
/// // Arming the BM engine forwards too (writes always pass through), and
/// // interpretation marked the written sectors filled.
/// assert_eq!(med.on_guest_write(IdeReg::BmCommand, 0x01, &mut bitmap),
///            PioVerdict::Forward);
/// assert!(bitmap.all_filled(hwsim::block::BlockRange::new(hwsim::block::Lba(5), 1)));
/// ```
#[derive(Debug)]
pub struct IdeMediator {
    /// The shared mediation policy.
    pub mediation: Mediation,
    // --- interpretation shadow state ---
    /// The mediator's own copy of the taskfile, built from interpreted
    /// writes with the device's own mechanics.
    taskfile: Taskfile,
    bm_prd: u64,
    bm_started: bool,
    /// Decoded command awaiting its arming access.
    pending_shadow: Option<IdeCommandBlock>,
    /// Guest writes swallowed while the device is held, in order.
    queued: Vec<(IdeReg, u32)>,
}

impl IdeMediator {
    /// Creates a mediator. `protected_region` is the on-disk bitmap area
    /// the guest must never touch.
    pub fn new(protected_region: Option<BlockRange>) -> IdeMediator {
        IdeMediator {
            mediation: Mediation::new(&NAMES, protected_region),
            taskfile: Taskfile::default(),
            bm_prd: 0,
            bm_started: false,
            pending_shadow: None,
            queued: Vec::new(),
        }
    }

    fn arm(&mut self, bitmap: &mut BlockBitmap) -> PioVerdict {
        let Some(cmd) = self.pending_shadow.take() else {
            return PioVerdict::Forward;
        };
        let core = &mut self.mediation;
        let route = core.route(cmd.op, cmd.range, bitmap);
        core.interpret(route.is_some(), cmd.range, || format!("{:?} ", cmd.op));
        let Some(protected) = route else {
            return PioVerdict::Forward;
        };
        core.hold(MediatorMode::Redirecting, || {
            format!(
                "redirect hold lba {} x{}",
                cmd.range.lba.0, cmd.range.sectors
            )
        });
        PioVerdict::StartRedirect(IdeRedirect { cmd, protected })
    }

    /// Processes a trapped guest port write.
    pub fn on_guest_write(
        &mut self,
        reg: IdeReg,
        val: u32,
        bitmap: &mut BlockBitmap,
    ) -> PioVerdict {
        if self.mediation.mode() != MediatorMode::Normal {
            self.queued.push((reg, val));
            self.mediation.count(Stat::QueuedAccesses);
            return PioVerdict::Swallow;
        }
        match reg {
            IdeReg::BmPrdAddr => self.bm_prd = val as u64,
            IdeReg::Command => {
                if let Some(cmd) = self.taskfile.command(val as u8, PhysAddr(self.bm_prd)) {
                    let op = cmd.op;
                    self.mediation.count(Stat::InterpretedCommands);
                    self.mediation
                        .instant("io.decode", || format!("cmd {:#04x} -> {op:?}", val as u8));
                    self.pending_shadow = Some(cmd);
                    // If the BM engine is already running, this write arms
                    // a DMA command; non-DMA commands arm immediately.
                    if !op.is_dma() || self.bm_started {
                        return self.arm(bitmap);
                    }
                }
            }
            IdeReg::BmCommand => {
                let starting = val & 0x01 != 0 && !self.bm_started;
                self.bm_started = val & 0x01 != 0;
                if starting && self.pending_shadow.map(|c| c.op.is_dma()).unwrap_or(false) {
                    return self.arm(bitmap);
                }
            }
            _ => self.taskfile.write(reg, val as u8),
        }
        PioVerdict::Forward
    }

    /// Processes a trapped guest port read: a held device's status reads
    /// busy while the VMM fetches, idle while the VMM's command runs.
    pub fn on_guest_read(&mut self, reg: IdeReg) -> PioVerdict {
        let redirecting = match self.mediation.mode() {
            MediatorMode::Normal => return PioVerdict::Forward,
            MediatorMode::Redirecting => true,
            MediatorMode::Multiplexing => false,
        };
        let v = match reg {
            IdeReg::Command | IdeReg::Control if redirecting => status::BSY | status::DRDY,
            IdeReg::Command | IdeReg::Control => status::DRDY,
            // The bus-master engine looks active, or stopped.
            IdeReg::BmStatus => redirecting as u8,
            _ => return PioVerdict::Forward,
        };
        self.mediation.count(Stat::EmulatedReads);
        PioVerdict::Emulate(v as u32)
    }

    /// Whether the VMM may multiplex a command now (device idle from the
    /// interpreted point of view and no mediation in progress).
    pub fn can_multiplex(&self) -> bool {
        self.mediation.mode() == MediatorMode::Normal && self.pending_shadow.is_none()
    }

    /// Enters multiplexing mode.
    ///
    /// # Panics
    ///
    /// Panics unless [`IdeMediator::can_multiplex`].
    pub fn begin_multiplex(&mut self) {
        assert!(self.can_multiplex(), "device not idle for multiplexing");
        self.mediation
            .hold(MediatorMode::Multiplexing, || "multiplex hold".into());
    }

    /// Leaves multiplexing mode, returning the queued guest accesses for
    /// replay (in order).
    ///
    /// # Panics
    ///
    /// Panics if not multiplexing.
    pub fn finish_multiplex(&mut self) -> Vec<(IdeReg, u32)> {
        self.mediation.release(MediatorMode::Multiplexing);
        std::mem::take(&mut self.queued)
    }

    /// Leaves redirection mode (the fetched data has been copied to the
    /// guest buffer and the dummy restart is about to be issued),
    /// returning queued guest accesses for replay.
    ///
    /// # Panics
    ///
    /// Panics if not redirecting.
    pub fn finish_redirect(&mut self) -> Vec<(IdeReg, u32)> {
        self.mediation.release(MediatorMode::Redirecting);
        std::mem::take(&mut self.queued)
    }

    /// The manipulated restart command: a single-sector read of the dummy
    /// sector (kept warm in the disk cache) into a VMM-owned PRD, so the
    /// device generates the completion interrupt without touching the
    /// guest's buffers.
    pub fn dummy_restart(dummy_prd: PhysAddr) -> IdeCommandBlock {
        IdeCommandBlock {
            op: AtaOp::ReadDma,
            range: BlockRange::new(DUMMY_LBA, 1),
            prd: Some(dummy_prd),
        }
    }
}

/// The sector the dummy restart reads. Sector 0 is read during every boot,
/// so it is always warm in the on-disk cache.
pub const DUMMY_LBA: Lba = Lba(0);

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::SimTime;

    /// Programs an EXT DMA read the way the guest driver does.
    fn program_read(
        med: &mut IdeMediator,
        bitmap: &mut BlockBitmap,
        lba: u64,
        sectors: u32,
    ) -> PioVerdict {
        let writes = [
            (IdeReg::BmPrdAddr, 0x2000u32),
            (IdeReg::SectorCount, (sectors >> 8) & 0xFF),
            (IdeReg::SectorCount, sectors & 0xFF),
            (IdeReg::LbaLow, ((lba >> 24) & 0xFF) as u32),
            (IdeReg::LbaLow, (lba & 0xFF) as u32),
            (IdeReg::LbaMid, ((lba >> 32) & 0xFF) as u32),
            (IdeReg::LbaMid, ((lba >> 8) & 0xFF) as u32),
            (IdeReg::LbaHigh, ((lba >> 40) & 0xFF) as u32),
            (IdeReg::LbaHigh, ((lba >> 16) & 0xFF) as u32),
            (IdeReg::Device, 0x40),
            (IdeReg::Command, 0x25),
        ];
        for (reg, val) in writes {
            assert_eq!(med.on_guest_write(reg, val, bitmap), PioVerdict::Forward);
        }
        med.on_guest_write(IdeReg::BmCommand, 0x09, bitmap)
    }

    #[test]
    fn read_of_empty_blocks_redirects() {
        let mut med = IdeMediator::new(None);
        let mut bm = BlockBitmap::new(1 << 16);
        let verdict = program_read(&mut med, &mut bm, 100, 8);
        let PioVerdict::StartRedirect(r) = verdict else {
            panic!("expected redirect, got {verdict:?}");
        };
        assert_eq!(r.cmd.range, BlockRange::new(Lba(100), 8));
        assert!(!r.protected);
        assert_eq!(med.mediation.mode(), MediatorMode::Redirecting);
        assert_eq!(med.mediation.stats().redirects, 1);
    }

    #[test]
    fn read_of_filled_blocks_passes_through() {
        let mut med = IdeMediator::new(None);
        let mut bm = BlockBitmap::new(1 << 16);
        bm.mark_filled(BlockRange::new(Lba(100), 8));
        let verdict = program_read(&mut med, &mut bm, 100, 8);
        assert_eq!(verdict, PioVerdict::Forward);
        assert_eq!(med.mediation.mode(), MediatorMode::Normal);
    }

    #[test]
    fn partially_filled_read_still_redirects() {
        let mut med = IdeMediator::new(None);
        let mut bm = BlockBitmap::new(1 << 16);
        bm.mark_filled(BlockRange::new(Lba(100), 4)); // half of it
        let verdict = program_read(&mut med, &mut bm, 100, 8);
        assert!(matches!(verdict, PioVerdict::StartRedirect(_)));
    }

    #[test]
    fn guest_write_marks_bitmap_and_forwards() {
        let mut med = IdeMediator::new(None);
        let mut bm = BlockBitmap::new(1 << 16);
        med.on_guest_write(IdeReg::SectorCount, 0, &mut bm);
        med.on_guest_write(IdeReg::SectorCount, 4, &mut bm);
        med.on_guest_write(IdeReg::LbaLow, 0, &mut bm);
        med.on_guest_write(IdeReg::LbaLow, 0, &mut bm);
        med.on_guest_write(IdeReg::LbaLow, 0, &mut bm);
        med.on_guest_write(IdeReg::LbaLow, 50, &mut bm);
        med.on_guest_write(IdeReg::LbaMid, 0, &mut bm);
        med.on_guest_write(IdeReg::LbaMid, 0, &mut bm);
        med.on_guest_write(IdeReg::LbaHigh, 0, &mut bm);
        med.on_guest_write(IdeReg::LbaHigh, 0, &mut bm);
        med.on_guest_write(IdeReg::Command, 0x35, &mut bm);
        let v = med.on_guest_write(IdeReg::BmCommand, 0x01, &mut bm);
        assert_eq!(v, PioVerdict::Forward);
        assert!(bm.all_filled(BlockRange::new(Lba(50), 4)));
    }

    #[test]
    fn status_emulated_busy_during_redirect() {
        let mut med = IdeMediator::new(None);
        let mut bm = BlockBitmap::new(1 << 16);
        program_read(&mut med, &mut bm, 0, 1);
        assert_eq!(
            med.on_guest_read(IdeReg::Command),
            PioVerdict::Emulate((status::BSY | status::DRDY) as u32)
        );
        assert_eq!(med.on_guest_read(IdeReg::BmStatus), PioVerdict::Emulate(1));
    }

    #[test]
    fn status_emulated_idle_during_multiplex() {
        let mut med = IdeMediator::new(None);
        med.begin_multiplex();
        assert_eq!(
            med.on_guest_read(IdeReg::Command),
            PioVerdict::Emulate(status::DRDY as u32)
        );
        assert_eq!(med.on_guest_read(IdeReg::BmStatus), PioVerdict::Emulate(0));
    }

    #[test]
    fn guest_accesses_queue_during_multiplex_and_replay_in_order() {
        let mut med = IdeMediator::new(None);
        let mut bm = BlockBitmap::new(1 << 16);
        med.begin_multiplex();
        assert_eq!(
            med.on_guest_write(IdeReg::SectorCount, 1, &mut bm),
            PioVerdict::Swallow
        );
        assert_eq!(
            med.on_guest_write(IdeReg::LbaLow, 9, &mut bm),
            PioVerdict::Swallow
        );
        let queued = med.finish_multiplex();
        assert_eq!(queued, vec![(IdeReg::SectorCount, 1), (IdeReg::LbaLow, 9)]);
        assert_eq!(med.mediation.mode(), MediatorMode::Normal);
        assert_eq!(med.mediation.stats().queued_accesses, 2);
    }

    #[test]
    fn cannot_multiplex_while_guest_mid_command() {
        let mut med = IdeMediator::new(None);
        let mut bm = BlockBitmap::new(1 << 16);
        // Guest wrote the command byte but the BM engine isn't started yet.
        med.on_guest_write(IdeReg::SectorCount, 0, &mut bm);
        med.on_guest_write(IdeReg::SectorCount, 1, &mut bm);
        med.on_guest_write(IdeReg::Command, 0x25, &mut bm);
        assert!(!med.can_multiplex());
    }

    #[test]
    fn protected_region_converted() {
        let protected = BlockRange::new(Lba(1000), 16);
        let mut med = IdeMediator::new(Some(protected));
        let mut bm = BlockBitmap::new(1 << 16);
        bm.mark_filled(BlockRange::new(Lba(0), 1 << 12)); // all filled
        let verdict = program_read(&mut med, &mut bm, 1004, 4);
        let PioVerdict::StartRedirect(r) = verdict else {
            panic!("expected conversion, got {verdict:?}");
        };
        assert!(r.protected);
        assert_eq!(med.mediation.stats().protected_conversions, 1);
    }

    #[test]
    fn finish_redirect_returns_to_normal() {
        let mut med = IdeMediator::new(None);
        let mut bm = BlockBitmap::new(1 << 16);
        program_read(&mut med, &mut bm, 5, 1);
        let queued = med.finish_redirect();
        assert!(queued.is_empty());
        assert_eq!(med.mediation.mode(), MediatorMode::Normal);
        assert!(med.can_multiplex());
    }

    #[test]
    fn dummy_restart_is_one_cached_sector() {
        let cmd = IdeMediator::dummy_restart(PhysAddr(0x42));
        assert_eq!(cmd.range, BlockRange::new(DUMMY_LBA, 1));
        assert_eq!(cmd.op, AtaOp::ReadDma);
        assert_eq!(cmd.prd, Some(PhysAddr(0x42)));
    }

    #[test]
    fn irrelevant_commands_forward_untouched() {
        let mut med = IdeMediator::new(None);
        let mut bm = BlockBitmap::new(1 << 16);
        // Vendor/init command the mediator ignores.
        assert_eq!(
            med.on_guest_write(IdeReg::Command, 0x91, &mut bm),
            PioVerdict::Forward
        );
        assert_eq!(med.mediation.stats().interpreted_commands, 0);
    }

    #[test]
    #[should_panic(expected = "not idle")]
    fn double_multiplex_panics() {
        let mut med = IdeMediator::new(None);
        med.begin_multiplex();
        med.begin_multiplex();
    }

    /// Programs an EXT DMA write the way the guest driver does.
    fn program_write(
        med: &mut IdeMediator,
        bitmap: &mut BlockBitmap,
        lba: u64,
        sectors: u32,
    ) -> PioVerdict {
        let writes = [
            (IdeReg::BmPrdAddr, 0x2000u32),
            (IdeReg::SectorCount, (sectors >> 8) & 0xFF),
            (IdeReg::SectorCount, sectors & 0xFF),
            (IdeReg::LbaLow, ((lba >> 24) & 0xFF) as u32),
            (IdeReg::LbaLow, (lba & 0xFF) as u32),
            (IdeReg::LbaMid, ((lba >> 32) & 0xFF) as u32),
            (IdeReg::LbaMid, ((lba >> 8) & 0xFF) as u32),
            (IdeReg::LbaHigh, ((lba >> 40) & 0xFF) as u32),
            (IdeReg::LbaHigh, ((lba >> 16) & 0xFF) as u32),
            (IdeReg::Device, 0x40),
            (IdeReg::Command, 0x35),
        ];
        for (reg, val) in writes {
            assert_eq!(med.on_guest_write(reg, val, bitmap), PioVerdict::Forward);
        }
        med.on_guest_write(IdeReg::BmCommand, 0x01, bitmap)
    }

    /// §3.3 consistency, the unaligned case: a guest DMA write that is
    /// aligned to neither copy-block edge must clip every racing
    /// background block around it — the head of the block it starts in
    /// and the tail of the block it ends in still get the server's data,
    /// the guest's sectors never get overwritten.
    #[test]
    fn unaligned_guest_write_beats_racing_background_blocks() {
        use crate::background::{BackgroundCopy, FetchedBlock};
        use hwsim::block::BlockStore;

        let mut med = IdeMediator::new(None);
        let mut bm = BlockBitmap::new(1 << 16);
        let mut bg = BackgroundCopy::new(64, 4, 1 << 16);

        // Three copy blocks go on the wire before the guest touches
        // anything.
        let fetches: Vec<BlockRange> = (0..3)
            .map(|_| bg.next_fetch(SimTime::ZERO, &bm).unwrap())
            .collect();
        assert_eq!(fetches[1], BlockRange::new(Lba(64), 64));

        // While they are in flight, the guest writes 70 sectors at LBA
        // 100 — straddling the [64,128)/[128,192) boundary, aligned to
        // neither edge.
        let v = program_write(&mut med, &mut bm, 100, 70);
        assert_eq!(v, PioVerdict::Forward);
        assert!(bm.all_filled(BlockRange::new(Lba(100), 70)));

        // The stale fetches land afterwards.
        for r in &fetches {
            bg.deliver(
                SimTime::ZERO,
                FetchedBlock {
                    data: r
                        .iter()
                        .map(|lba| BlockStore::image_content(7, lba))
                        .collect::<Vec<_>>()
                        .into(),
                    range: *r,
                },
            );
        }

        // The writer clips each block around the guest's sectors:
        // [0,64) untouched, [64,128) keeps only its head, [128,192)
        // only its tail.
        let ranges = |pieces: &[FetchedBlock]| pieces.iter().map(|p| p.range).collect::<Vec<_>>();
        let p0 = bg.pop_for_write(&mut bm).unwrap();
        assert_eq!(ranges(&p0), vec![BlockRange::new(Lba(0), 64)]);
        let p1 = bg.pop_for_write(&mut bm).unwrap();
        assert_eq!(ranges(&p1), vec![BlockRange::new(Lba(64), 36)]);
        let p2 = bg.pop_for_write(&mut bm).unwrap();
        assert_eq!(ranges(&p2), vec![BlockRange::new(Lba(170), 22)]);
        assert!(bg.pop_for_write(&mut bm).is_none());

        // The surviving pieces carry the server's bytes for exactly
        // those holes.
        assert_eq!(p1[0].data[0], BlockStore::image_content(7, Lba(64)));
        assert_eq!(p2[0].data[0], BlockStore::image_content(7, Lba(170)));
    }
}
