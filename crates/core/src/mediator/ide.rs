//! The IDE device mediator (1,472 LOC in the paper's prototype).
//!
//! Interprets taskfile + bus-master port traffic, decides per guest access
//! whether to forward, hold (redirect), queue (multiplex), or emulate, and
//! hands the system layer decoded commands to act on. See
//! [`crate::mediator`] for the three-task overview.

use crate::bitmap::BlockBitmap;
use crate::mediator::{MediatorMode, MediatorStats};
use hwsim::block::{BlockRange, Lba};
use hwsim::ide::{status, AtaOp, IdeCommandBlock, IdeReg};
use hwsim::mem::PhysAddr;
use simkit::{Metrics, SimTime, SpanId, Spans, NO_SPAN};

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

/// Shadow of a two-byte FIFO register (the mediator's own copy, built
/// from interpreted writes — identical mechanics to the hardware's).
#[derive(Debug, Clone, Copy, Default)]
struct ShadowHob {
    cur: u8,
    prev: u8,
}

impl ShadowHob {
    fn write(&mut self, v: u8) {
        self.prev = self.cur;
        self.cur = v;
    }
    fn wide(self) -> u16 {
        ((self.prev as u16) << 8) | self.cur as u16
    }
}

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
#[derive(Debug, Default)]
pub struct IdeMediator {
    // --- interpretation shadow state ---
    count: ShadowHob,
    lba_low: ShadowHob,
    lba_mid: ShadowHob,
    lba_high: ShadowHob,
    device: u8,
    last_cmd_ext: bool,
    bm_prd: u64,
    bm_started: bool,
    /// Decoded command awaiting its arming access.
    pending_shadow: Option<IdeCommandBlock>,
    // --- mediation state ---
    mode: MediatorMode,
    queued: Vec<(IdeReg, u32)>,
    protected_region: Option<BlockRange>,
    stats: MediatorStats,
    metrics: Metrics,
    spans: Spans,
    /// Sim clock noted by the bus before each mediated access; spans are
    /// stamped with it so mediator entry points keep their signatures.
    now: SimTime,
    /// Open `io.hold` span while the device is held (redirect/multiplex).
    hold_span: SpanId,
}

impl IdeMediator {
    /// Creates a mediator. `protected_region` is the on-disk bitmap area
    /// the guest must never touch.
    pub fn new(protected_region: Option<BlockRange>) -> IdeMediator {
        IdeMediator {
            protected_region,
            ..IdeMediator::default()
        }
    }

    /// Current mode.
    pub fn mode(&self) -> MediatorMode {
        self.mode
    }

    /// Mediation statistics.
    pub fn stats(&self) -> MediatorStats {
        self.stats
    }

    /// Attaches a metrics handle; `mediator.ide.*` counters land there.
    pub fn set_telemetry(&mut self, metrics: Metrics) {
        self.metrics = metrics;
    }

    /// Attaches a flight-recorder span handle; `io.*` spans on the
    /// `mediator.ide` track land there.
    pub fn set_spans(&mut self, spans: Spans) {
        self.spans = spans;
    }

    /// Notes the current sim time. The bus calls this before mediated
    /// accesses so spans carry real timestamps without threading `now`
    /// through every entry point.
    pub fn note_now(&mut self, now: SimTime) {
        self.now = now;
    }

    /// Decodes the shadow taskfile exactly as the device will.
    fn decode_shadow(&self, ext: bool) -> BlockRange {
        let (lba, sectors) = if ext {
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

    fn touches_protected(&self, range: BlockRange) -> bool {
        self.protected_region
            .map(|p| p.overlaps(range))
            .unwrap_or(false)
    }

    /// Whether `cmd` must be redirected rather than passed through, given
    /// the bitmap.
    fn needs_redirect(&self, cmd: &IdeCommandBlock, bitmap: &BlockBitmap) -> bool {
        match cmd.op {
            AtaOp::ReadDma => self.touches_protected(cmd.range) || bitmap.any_empty(cmd.range),
            AtaOp::WriteDma => self.touches_protected(cmd.range),
            _ => false,
        }
    }

    fn arm(&mut self, bitmap: &mut BlockBitmap) -> PioVerdict {
        let Some(cmd) = self.pending_shadow.take() else {
            return PioVerdict::Forward;
        };
        if self.needs_redirect(&cmd, bitmap) {
            let protected = self.touches_protected(cmd.range);
            if protected {
                self.stats.protected_conversions += 1;
                self.metrics.inc("mediator.ide.protected_conversions");
            } else {
                self.stats.redirects += 1;
                self.metrics.inc("mediator.ide.redirects");
            }
            self.mode = MediatorMode::Redirecting;
            self.spans
                .instant(self.now, "mediator.ide", "io.interpret", NO_SPAN, || {
                    format!(
                        "{:?} lba {} x{} -> redirect",
                        cmd.op, cmd.range.lba.0, cmd.range.sectors
                    )
                });
            self.hold_span = self
                .spans
                .begin(self.now, "mediator.ide", "io.hold", NO_SPAN, || {
                    format!(
                        "redirect hold lba {} x{}",
                        cmd.range.lba.0, cmd.range.sectors
                    )
                });
            return PioVerdict::StartRedirect(IdeRedirect { cmd, protected });
        }
        self.spans
            .instant(self.now, "mediator.ide", "io.interpret", NO_SPAN, || {
                format!(
                    "{:?} lba {} x{} -> forward",
                    cmd.op, cmd.range.lba.0, cmd.range.sectors
                )
            });
        // Pass-through. A guest write makes those sectors authoritative:
        // mark them filled so the background copy will never clobber them.
        if cmd.op == AtaOp::WriteDma {
            bitmap.mark_filled(cmd.range);
        }
        PioVerdict::Forward
    }

    /// Processes a trapped guest port write.
    pub fn on_guest_write(
        &mut self,
        reg: IdeReg,
        val: u32,
        bitmap: &mut BlockBitmap,
    ) -> PioVerdict {
        if self.mode != MediatorMode::Normal {
            self.queued.push((reg, val));
            self.stats.queued_accesses += 1;
            self.metrics.inc("mediator.ide.queued_accesses");
            return PioVerdict::Swallow;
        }
        match reg {
            IdeReg::SectorCount => self.count.write(val as u8),
            IdeReg::LbaLow => self.lba_low.write(val as u8),
            IdeReg::LbaMid => self.lba_mid.write(val as u8),
            IdeReg::LbaHigh => self.lba_high.write(val as u8),
            IdeReg::Device => self.device = val as u8,
            IdeReg::BmPrdAddr => self.bm_prd = val as u64,
            IdeReg::Command => {
                self.last_cmd_ext = matches!(val as u8, 0x25 | 0x35);
                if let Some(op) = AtaOp::from_byte(val as u8) {
                    self.stats.interpreted_commands += 1;
                    self.metrics.inc("mediator.ide.interpreted_commands");
                    self.spans
                        .instant(self.now, "mediator.ide", "io.decode", NO_SPAN, || {
                            format!("cmd {:#04x} -> {op:?}", val as u8)
                        });
                    let cmd = IdeCommandBlock {
                        op,
                        range: if op.is_dma() {
                            self.decode_shadow(self.last_cmd_ext)
                        } else {
                            BlockRange::new(Lba(0), 1)
                        },
                        prd: op.is_dma().then_some(PhysAddr(self.bm_prd)),
                    };
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
            _ => {}
        }
        PioVerdict::Forward
    }

    /// Processes a trapped guest port read.
    pub fn on_guest_read(&mut self, reg: IdeReg) -> PioVerdict {
        let verdict = self.filter_guest_read(reg);
        if matches!(verdict, PioVerdict::Emulate(_)) {
            self.metrics.inc("mediator.ide.emulated_reads");
        }
        verdict
    }

    fn filter_guest_read(&mut self, reg: IdeReg) -> PioVerdict {
        match self.mode {
            MediatorMode::Normal => PioVerdict::Forward,
            MediatorMode::Redirecting => match reg {
                // The guest must see a busy device while the VMM fetches.
                IdeReg::Command | IdeReg::Control => {
                    self.stats.emulated_reads += 1;
                    PioVerdict::Emulate((status::BSY | status::DRDY) as u32)
                }
                IdeReg::BmStatus => {
                    self.stats.emulated_reads += 1;
                    PioVerdict::Emulate(0x01) // engine active
                }
                _ => PioVerdict::Forward,
            },
            MediatorMode::Multiplexing => match reg {
                // The guest must see an *idle* device even though the VMM's
                // command is running.
                IdeReg::Command | IdeReg::Control => {
                    self.stats.emulated_reads += 1;
                    PioVerdict::Emulate(status::DRDY as u32)
                }
                IdeReg::BmStatus => {
                    self.stats.emulated_reads += 1;
                    PioVerdict::Emulate(0x00)
                }
                _ => PioVerdict::Forward,
            },
        }
    }

    /// Whether the VMM may multiplex a command now (device idle from the
    /// interpreted point of view and no mediation in progress).
    pub fn can_multiplex(&self) -> bool {
        self.mode == MediatorMode::Normal && self.pending_shadow.is_none()
    }

    /// Enters multiplexing mode.
    ///
    /// # Panics
    ///
    /// Panics unless [`IdeMediator::can_multiplex`].
    pub fn begin_multiplex(&mut self) {
        assert!(self.can_multiplex(), "device not idle for multiplexing");
        self.mode = MediatorMode::Multiplexing;
        self.stats.multiplexes += 1;
        self.metrics.inc("mediator.ide.multiplexes");
        self.hold_span = self
            .spans
            .begin(self.now, "mediator.ide", "io.hold", NO_SPAN, || {
                "multiplex hold".into()
            });
    }

    /// Leaves multiplexing mode, returning the queued guest accesses for
    /// replay (in order).
    ///
    /// # Panics
    ///
    /// Panics if not multiplexing.
    pub fn finish_multiplex(&mut self) -> Vec<(IdeReg, u32)> {
        assert_eq!(self.mode, MediatorMode::Multiplexing, "not multiplexing");
        self.mode = MediatorMode::Normal;
        self.spans
            .end(self.now, std::mem::take(&mut self.hold_span));
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
        assert_eq!(self.mode, MediatorMode::Redirecting, "not redirecting");
        self.mode = MediatorMode::Normal;
        self.spans
            .end(self.now, std::mem::take(&mut self.hold_span));
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
        assert_eq!(med.mode(), MediatorMode::Redirecting);
        assert_eq!(med.stats().redirects, 1);
    }

    #[test]
    fn read_of_filled_blocks_passes_through() {
        let mut med = IdeMediator::new(None);
        let mut bm = BlockBitmap::new(1 << 16);
        bm.mark_filled(BlockRange::new(Lba(100), 8));
        let verdict = program_read(&mut med, &mut bm, 100, 8);
        assert_eq!(verdict, PioVerdict::Forward);
        assert_eq!(med.mode(), MediatorMode::Normal);
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
        assert_eq!(med.mode(), MediatorMode::Normal);
        assert_eq!(med.stats().queued_accesses, 2);
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
        assert_eq!(med.stats().protected_conversions, 1);
    }

    #[test]
    fn finish_redirect_returns_to_normal() {
        let mut med = IdeMediator::new(None);
        let mut bm = BlockBitmap::new(1 << 16);
        program_read(&mut med, &mut bm, 5, 1);
        let queued = med.finish_redirect();
        assert!(queued.is_empty());
        assert_eq!(med.mode(), MediatorMode::Normal);
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
        assert_eq!(med.stats().interpreted_commands, 0);
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
        let mut bg = BackgroundCopy::new(64, 8, 4, 1 << 16);

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
