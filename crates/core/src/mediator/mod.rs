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
//! multiplexing and forward everything else untouched.

pub mod ahci;
pub mod ide;
pub mod megasas;

pub use ahci::{AhciMediator, AhciRedirect, MmioVerdict};
pub use ide::{IdeMediator, IdeRedirect, PioVerdict};
pub use megasas::{MegasasMediator, MegasasRedirect, MegasasVerdict};

/// What a mediator is currently doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MediatorMode {
    /// Pass-through with interpretation.
    #[default]
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
