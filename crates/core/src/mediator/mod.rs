//! Device mediators (§3.2): polling-based, device-interface-level I/O
//! mediation.
//!
//! A device mediator sits between the guest's trapped register accesses
//! and the physical controller. It performs three tasks:
//!
//! - **I/O interpretation** — it watches the PIO/MMIO stream (and, for
//!   AHCI, the in-memory command structures) and maintains its own decoded
//!   view of what the guest is asking the device to do. It never peeks at
//!   device-internal state; everything it knows, it learned from the same
//!   interface the device exposes.
//! - **I/O redirection** — when the guest reads blocks the local disk
//!   doesn't hold yet, the mediator *holds* the arming access so the
//!   device never starts, lets the VMM fetch the data from the server and
//!   play virtual DMA controller into the guest's buffers, then restarts
//!   the device with a manipulated command (a 1-sector dummy read that
//!   hits the disk cache) so the *device itself* raises the completion
//!   interrupt — no interrupt-controller virtualization needed.
//! - **I/O multiplexing** — when the VMM needs the disk (background copy),
//!   the mediator waits for the device to go idle, injects the VMM's
//!   command, and meanwhile *emulates idle status* to the guest and queues
//!   any guest accesses, replaying them when the VMM's command completes.
//!   VMM completions are detected by polling (a status read that also
//!   consumes the interrupt), never delivered to the guest.
//!
//! Mediators are deliberately much smaller than drivers: they decode only
//! the command/status/data sequences relevant to redirection and
//! multiplexing and forward everything else untouched. The policy they
//! share — the mode, the redirect decision, the protected region, the
//! counters and the `io.hold` span — lives once, in [`Mediation`]; each
//! controller's mediator keeps only its decoding.

/// The span track (`mediator.<dev>`) and `mediator.<dev>.*` metric
/// names of the controller `dev`; each metric is named after its
/// [`MediatorStats`] field.
macro_rules! mediator_names {
    ($dev:literal) => {
        mediator_names!($dev; interpreted_commands, redirects, multiplexes,
            queued_accesses, emulated_reads, protected_conversions)
    };
    ($dev:literal; $($stat:ident),*) => {
        MediatorNames {
            track: concat!("mediator.", $dev),
            $($stat: concat!("mediator.", $dev, ".", stringify!($stat)),)*
        }
    };
}

pub mod ahci;
pub mod ide;
pub mod megasas;

pub use ahci::{AhciMediator, AhciRedirect, MmioVerdict};
pub use ide::{IdeMediator, IdeRedirect, PioVerdict};
pub use megasas::{MegasasMediator, MegasasRedirect, MegasasVerdict};

use crate::bitmap::BlockBitmap;
use hwsim::block::BlockRange;
use hwsim::ide::AtaOp;
use simkit::{Metrics, SimTime, SpanId, Spans, NO_SPAN};

/// What a mediator is currently doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MediatorMode {
    /// Pass-through with interpretation.
    Normal,
    /// A guest command is held while the VMM fetches from the server.
    Redirecting,
    /// A VMM command owns the device; guest accesses are queued.
    Multiplexing,
}

/// Counters every mediator keeps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MediatorStats {
    /// Guest commands decoded by I/O interpretation.
    pub interpreted_commands: u64,
    /// Guest reads redirected to the server.
    pub redirects: u64,
    /// VMM commands multiplexed onto the device.
    pub multiplexes: u64,
    /// Guest accesses queued during multiplexing/redirection.
    pub queued_accesses: u64,
    /// Status reads answered with emulated values.
    pub emulated_reads: u64,
    /// Guest accesses to the protected bitmap region converted to dummy
    /// reads.
    pub protected_conversions: u64,
}

/// One counter of [`MediatorStats`].
#[derive(Debug, Clone, Copy)]
enum Stat {
    InterpretedCommands,
    Redirects,
    Multiplexes,
    QueuedAccesses,
    EmulatedReads,
    ProtectedConversions,
}

/// A controller's span track and metric names: a label, not a setting.
#[derive(Debug)]
struct MediatorNames {
    track: &'static str,
    interpreted_commands: &'static str,
    redirects: &'static str,
    multiplexes: &'static str,
    queued_accesses: &'static str,
    emulated_reads: &'static str,
    protected_conversions: &'static str,
}

/// The policy every device mediator shares (§3.2): the mode, the
/// statistics and their metrics, the flight-recorder spans, and the
/// protected bitmap region. A controller's mediator decodes its
/// interface and asks this core what to do.
#[derive(Debug)]
pub struct Mediation {
    names: &'static MediatorNames,
    mode: MediatorMode,
    stats: MediatorStats,
    metrics: Metrics,
    spans: Spans,
    /// Sim clock noted by the bus before each mediated access; spans are
    /// stamped with it so mediator entry points keep their signatures.
    now: SimTime,
    /// Open `io.hold` span while the device is held (redirect/multiplex).
    hold_span: SpanId,
    /// The on-disk bitmap area the guest must never touch.
    protected_region: Option<BlockRange>,
}

impl Mediation {
    fn new(names: &'static MediatorNames, protected_region: Option<BlockRange>) -> Mediation {
        Mediation {
            names,
            mode: MediatorMode::Normal,
            stats: MediatorStats::default(),
            metrics: Metrics::default(),
            spans: Spans::default(),
            now: SimTime::ZERO,
            hold_span: NO_SPAN,
            protected_region,
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

    /// Attaches a metrics handle; `mediator.<dev>.*` counters land there.
    pub fn set_telemetry(&mut self, metrics: Metrics) {
        self.metrics = metrics;
    }

    /// Attaches a flight-recorder span handle; `io.*` spans on the
    /// `mediator.<dev>` track land there.
    pub fn set_spans(&mut self, spans: Spans) {
        self.spans = spans;
    }

    /// Notes the current sim time. The bus calls this before mediated
    /// accesses so spans carry real timestamps without threading `now`
    /// through every entry point.
    pub fn note_now(&mut self, now: SimTime) {
        self.now = now;
    }

    /// Bumps one statistic and its metric together.
    fn count(&mut self, stat: Stat) {
        let (s, n) = (&mut self.stats, self.names);
        let (value, name) = match stat {
            Stat::InterpretedCommands => (&mut s.interpreted_commands, n.interpreted_commands),
            Stat::Redirects => (&mut s.redirects, n.redirects),
            Stat::Multiplexes => (&mut s.multiplexes, n.multiplexes),
            Stat::QueuedAccesses => (&mut s.queued_accesses, n.queued_accesses),
            Stat::EmulatedReads => (&mut s.emulated_reads, n.emulated_reads),
            Stat::ProtectedConversions => (&mut s.protected_conversions, n.protected_conversions),
        };
        *value += 1;
        self.metrics.inc(name);
    }

    /// Records an instant span of `kind` on the controller's track.
    fn instant(&self, kind: &'static str, detail: impl FnOnce() -> String) {
        self.spans
            .instant(self.now, self.names.track, kind, NO_SPAN, detail);
    }

    /// Records the `io.interpret` verdict on `range`, its label led by
    /// the controller's `prefix` (the command, the slot, or nothing).
    fn interpret(&self, held: bool, range: BlockRange, prefix: impl FnOnce() -> String) {
        self.instant("io.interpret", || {
            let to = if held { "redirect" } else { "forward" };
            format!("{}lba {} x{} -> {to}", prefix(), range.lba.0, range.sectors)
        });
    }

    /// The redirect decision for one decoded guest command: a read is
    /// held if it touches the protected region or any empty block, a
    /// write if it touches the protected region. Returns
    /// `Some(protected)` for a held command (counted as a protected
    /// conversion or a redirect); `None` forwards it, and a forwarded
    /// write marks its range filled, so the background copy never
    /// clobbers the guest's sectors.
    fn route(&mut self, op: AtaOp, range: BlockRange, bitmap: &mut BlockBitmap) -> Option<bool> {
        let protected = self.protected_region.is_some_and(|p| p.overlaps(range));
        let held = match op {
            AtaOp::ReadDma => protected || bitmap.any_empty(range),
            AtaOp::WriteDma => protected,
            _ => false,
        };
        if held {
            self.count(if protected {
                Stat::ProtectedConversions
            } else {
                Stat::Redirects
            });
            return Some(protected);
        }
        if op == AtaOp::WriteDma {
            bitmap.mark_filled(range);
        }
        None
    }

    /// Enters `mode` (Redirecting, or Multiplexing, which is counted and
    /// panics unless the mediator is in `Normal` mode) and opens the
    /// `io.hold` span.
    fn hold(&mut self, mode: MediatorMode, detail: impl FnOnce() -> String) {
        if mode == MediatorMode::Multiplexing {
            assert_eq!(self.mode, MediatorMode::Normal, "device not idle");
            self.count(Stat::Multiplexes);
        }
        self.mode = mode;
        self.hold_span = self
            .spans
            .begin(self.now, self.names.track, "io.hold", NO_SPAN, detail);
    }

    /// Leaves `mode` for `Normal` and ends the `io.hold` span; panics if
    /// the mediator is not in `mode`.
    fn release(&mut self, mode: MediatorMode) {
        assert_eq!(self.mode, mode, "mediator not {mode:?}");
        self.mode = MediatorMode::Normal;
        self.spans
            .end(self.now, std::mem::take(&mut self.hold_span));
    }
}
