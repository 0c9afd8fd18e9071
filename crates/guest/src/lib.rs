//! Simulated guest operating system and workloads.
//!
//! "OS transparency" in the paper means the guest runs **unmodified**: its
//! stock IDE/AHCI drivers program the real controller registers with no
//! knowledge of the VMM underneath. This crate provides exactly that:
//!
//! - [`bus`] — the [`bus::GuestBus`] trait through which drivers touch
//!   hardware. On bare metal it is wired straight to the controllers; under
//!   BMcast the system crate interposes VM exits and device mediators on
//!   the same trait. The drivers cannot tell the difference — that *is* OS
//!   transparency, made structural.
//! - [`driver`] — guest block drivers for IDE and AHCI that issue DMA
//!   commands and service completion interrupts like their Linux
//!   counterparts.
//! - [`io`] — block-I/O request/completion types shared by drivers and
//!   workloads.
//! - [`os`] — boot profiles: the I/O + CPU demand stream of an OS boot
//!   (Ubuntu 14.04-shaped by default: ~29 s, ~72 MB read).
//! - [`workload`] — the evaluation's workload engines and demand models:
//!   per-window memcached/Cassandra database models, kernbench, SysBench
//!   threads/memory, fio, ioping, and OSU-style MPI collectives.

pub mod bus;
pub mod driver;
pub mod io;
pub mod os;
pub mod workload;

pub use bus::{DirectBus, GuestBus};
pub use driver::{ahci::AhciDriver, ide::IdeDriver, BlockDriver};
pub use io::{CompletedIo, IoRequest, RequestId};
pub use os::BootProfile;
