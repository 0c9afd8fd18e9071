//! Guest block drivers.
//!
//! These are the guest OS's *stock* drivers: they program controller
//! registers through [`crate::bus::GuestBus`] and service completion
//! interrupts, with zero knowledge of any VMM. BMcast's whole design —
//! mediators that interpret, block, redirect, and multiplex the register
//! traffic these drivers generate — exists so that this code never has to
//! change.

pub mod ahci;
pub mod ide;
pub mod megasas;

use crate::bus::GuestBus;
use crate::io::{CompletedIo, IoRequest};

/// A guest block driver: submit requests, take completions on interrupt.
pub trait BlockDriver {
    /// Submits a request. If the hardware is saturated the driver queues
    /// it internally and issues it from a later interrupt handler.
    fn submit(&mut self, req: IoRequest, bus: &mut dyn GuestBus);

    /// Services a completion interrupt: acknowledges the hardware,
    /// collects finished requests, and issues queued work.
    fn on_irq(&mut self, bus: &mut dyn GuestBus) -> Vec<CompletedIo>;

    /// Requests accepted but not yet completed (issued + queued).
    fn in_flight(&self) -> usize;
}
