//! Simulated machine substrate for the BMcast reproduction.
//!
//! This crate models the hardware the paper's VMM runs on, at the level
//! BMcast actually interacts with it:
//!
//! - [`block`] — sectors, LBAs, and sparse block stores (disk contents are
//!   64-bit fingerprints per sector, which keeps 32-GB images cheap while
//!   making copy-on-read/write-consistency checks exact)
//! - [`mem`] — physical memory map (E820), VMM memory reservation, and an
//!   object store for in-memory device structures (command lists, PRD
//!   tables, DMA buffers)
//! - [`disk`] — a rotational-disk timing model (seek, rotation, transfer,
//!   on-disk cache) hosting a [`block::BlockStore`]
//! - [`ide`] — a register-level IDE/ATA controller with bus-master DMA
//! - [`ahci`] — a register-level AHCI HBA (ports, command lists, PRDT)
//! - [`eth`] — Ethernet frames, links, and a store-and-forward switch
//!   that applies fault verdicts
//! - [`nic`] — a queue-level NIC model (the VMM's dedicated polled NIC)
//! - [`ib`] — an InfiniBand RDMA timing model
//! - [`vtx`] — an Intel VT-x model: exit reasons and costs, EPT on/off with
//!   a TLB-miss model, preemption timer, VMXOFF
//! - [`firmware`] — BIOS/firmware initialization timing and netboot
//! - [`pci`] — minimal PCI configuration space
//!
//! Components here are *passive state machines with timing queries*: they
//! decode register accesses into actions and answer "how long would this
//! take", while the system crate (`bmcast`) owns the event loop and decides
//! when completions fire. This mirrors the real split between hardware
//! interfaces and the VMM's control flow.

pub mod ahci;
pub mod block;
pub mod disk;
pub mod eth;
pub mod firmware;
mod hash;
pub mod ib;
pub mod ide;
pub mod megasas;
pub mod mem;
pub mod nic;
pub mod pci;
pub mod vtx;

pub use block::{BlockRange, BlockStore, Lba, SectorData, SECTOR_SIZE};
pub use disk::{DiskModel, DiskParams};
pub use mem::{PhysAddr, PhysMem};
