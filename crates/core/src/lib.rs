//! BMcast: an OS deployment system for bare-metal clouds built around a
//! special-purpose **de-virtualizable VMM** — the primary contribution of
//! *"Improving Agility and Elasticity in Bare-metal Clouds"* (ASPLOS '15).
//!
//! BMcast network-boots a thin VMM in seconds, streams the OS image from a
//! storage server to the local disk while the guest OS runs with direct
//! hardware access, and then turns virtualization off underneath the
//! running guest, leaving a pure bare-metal instance with zero residual
//! overhead. The enabling mechanism is the **device mediator**: a
//! polling-based, device-interface-level I/O mediation layer performing
//! I/O interpretation, redirection, and multiplexing.
//!
//! # Module map
//!
//! | module | paper section | what it implements |
//! |---|---|---|
//! | [`config`] | §3.3, §4 | VMM and moderation parameters |
//! | [`bitmap`] | §3.3 | filled/empty bitmap, atomic claims, persistence |
//! | [`mediator`] | §3.2 | IDE + AHCI device mediators |
//! | [`background`] | §3.3 | retriever/writer threads, FIFO, moderation |
//! | [`devirt`] | §3.4 | per-CPU EPT-off + VMXOFF sequencing, and its inverse |
//! | [`snapback`] | M2 | dirty-block tracking + snapshot-back for reclaim |
//! | [`stream`] | §3.3, M2 | the block-stream engine both copies run on: window, back-off, spans |
//! | [`netdrv`] | §4.3 | polled drivers for the dedicated NIC |
//! | [`transport`] | §4.2, M3 | pluggable deployment transports: AoE, batched AoE, RDMA |
//! | [`machine`] | §3–4 | the full machine: bus, exits, event chains |
//! | [`deploy`] | §3.1 | deployment phases, timelines, the [`deploy::Runner`] |
//! | [`fabric`] | §3, §5.1 | switch, AoE server nodes, egress links, fault injector: one for a machine or a fleet |
//! | [`fleet`] | §5.7 | N-machine concurrent deployment over one shared fabric |
//! | [`programs`] | §5 | guest programs: boot, fio, ioping, streams |
//!
//! # Quick start
//!
//! ```
//! use bmcast::config::BmcastConfig;
//! use bmcast::deploy::Runner;
//! use bmcast::machine::MachineSpec;
//!
//! // A small instance so the doctest stays fast.
//! let spec = MachineSpec {
//!     capacity_sectors: 1 << 13,
//!     image_sectors: 1 << 13,
//!     ..MachineSpec::default()
//! };
//! let mut runner = Runner::bmcast(&spec, BmcastConfig::default());
//! runner.run_to_bare_metal(simkit::SimTime::from_secs(300));
//! assert!(runner.machine().vmm.as_ref().unwrap().bitmap.is_complete());
//! ```

pub mod background;
pub mod bitmap;
pub mod config;
pub mod deploy;
pub mod devirt;
pub mod fabric;
pub mod fleet;
pub mod machine;
pub mod mediator;
pub mod netdrv;
pub mod programs;
pub mod snapback;
pub mod stream;
pub mod transport;

pub use bitmap::BlockBitmap;
pub use config::{BmcastConfig, ControllerKind, Moderation};
pub use deploy::Runner;
pub use devirt::Phase;
pub use fleet::{Fleet, FleetConfig, LifecycleStage};
pub use machine::{DeployError, Machine, MachineSpec};
pub use snapback::{DirtyTracker, ReclaimError, SnapshotBack};
pub use transport::TransportKind;
