//! Extended ATA-over-Ethernet (AoE) network storage protocol.
//!
//! BMcast redirects guest I/O to the storage server over a block-level
//! protocol with "the greater affinity with ATA devices": AoE headers carry
//! the ATA register values almost verbatim, so a device mediator can
//! convert an intercepted command to a network request with minimal effort.
//! The paper extends stock AoE in three ways, all implemented here:
//!
//! 1. **Jumbo frames** — responses are packed to the fabric MTU (9000
//!    bytes on the evaluation switch) instead of 1500.
//! 2. **Fragmentation tags** — a response larger than one frame is split
//!    into fragments; the tag field encodes `(request id, fragment index)`
//!    so the receiver can place each fragment at the right offset.
//! 3. **Retransmission** — requests are retried on a timeout so the
//!    protocol tolerates frame loss.
//!
//! The server side is modeled on *vblade*, including the paper's fix: the
//! original is single-threaded and saturates, so the server here has a
//! configurable worker pool ([`server::AoeServer`]).
//!
//! Modules:
//! - [`wire`] — PDU encode/decode and tag packing
//! - [`client`] — request tracking, reassembly, retransmission
//! - [`server`] — vblade-style server with a worker-pool timing model

pub mod client;
pub mod server;
pub mod wire;

pub use client::{AoeClient, ClientConfig, Completion};
pub use server::{AoeServer, ServerConfig};
pub use server::Enqueued;
pub use wire::{
    peek_rdma, peek_shelf_slot, sectors_per_frame, AoeCommand, AoePdu, FrameBytes, Tag, WireFrame,
    AOE_HEADER_BYTES,
};
