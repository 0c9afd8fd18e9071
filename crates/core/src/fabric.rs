//! The management fabric (§3, §5.1): one Ethernet switch, the AoE
//! server nodes on its ports, their egress links and the fault
//! injector. One instance or many stream the image over this same code:
//! a standalone machine owns a one-server `Fabric`, a fleet shares one.
//!
//! Requests are routed by the AoE shelf the client addressed and cross
//! the switch onto the owning node's uplink port. Each node queues them
//! per client and drains them with its DRR scheduler; one client's
//! queue is served in arrival order, exactly as [`AoeServer::handle`]
//! would serve it. Replies serialize on the node's egress link (its
//! NIC), and RDMA reply bursts take the lossless IB lane instead. The
//! fault injector gives every request and every Ethernet reply frame
//! its link verdict and gates the origin nodes' health and disks.
//!
//! The fabric keeps no clock: its work is the closed set of
//! `FabricEvent`s, which the host puts on its own timeline (the fleet
//! timeline, or a standalone machine's simulator) and runs through
//! `Fabric::fire`.

use crate::config::BmcastConfig;
use crate::machine::new_disk;
use aoe::{peek_rdma, peek_shelf_slot, AoeServer, FrameBytes, ServerConfig};
use hwsim::block::BlockStore;
use hwsim::disk::DiskModel;
use hwsim::eth::{Frame, Link, MacAddr, Switch, FRAME_OVERHEAD};
use simkit::fault::{FaultCounters, FaultInjector, FaultPlan, LinkVerdict, ServerHealth};
use simkit::{Metrics, SimDuration, SimTime, Spans};
use std::collections::BTreeMap;

/// Fixed MAC of the (first) storage server on the management network.
pub const SERVER_MAC: MacAddr = MacAddr::host(1);
/// Fixed MAC of the instance's dedicated (VMM) NIC.
pub const VMM_MAC: MacAddr = MacAddr::host(2);

/// The fabric round-trip floor: a request's uplink propagation delay
/// plus the earliest reply's egress delay back (both links are
/// [`Link::gigabit`]). An RDMA reply burst lands this long after its
/// release, and a fleet's control-plane announcements this long after
/// the member step that decided them.
pub(crate) fn lookahead() -> SimDuration {
    Link::gigabit().latency * 2
}

/// A server volume holding the `seed` image.
pub(crate) fn image_disk(image_sectors: u64, seed: u64) -> DiskModel {
    new_disk(image_sectors, BlockStore::image(image_sectors, seed))
}

/// An AoE server exporting the `seed` image at `shelf`, slot 0, with
/// `base` set to the machines' MTU and transport.
pub(crate) fn image_server(
    machine_cfg: &BmcastConfig,
    base: ServerConfig,
    shelf: u16,
    image_sectors: u64,
    seed: u64,
) -> AoeServer {
    AoeServer::new(
        machine_cfg.transport.server_config(ServerConfig {
            mtu: machine_cfg.mtu,
            shelf,
            slot: 0,
            ..base
        }),
        image_disk(image_sectors, seed),
    )
}

/// Applies a corruption verdict: flip one payload byte picked by the
/// injector's entropy (the mask is forced non-zero so the flip is real).
/// The frame's byte image is materialised and the result is a byte
/// frame, so the receiver's decode checks every byte.
pub fn corrupt_frame_bytes(payload: &FrameBytes, entropy: u64) -> FrameBytes {
    let mut bytes = payload.to_vec();
    if !bytes.is_empty() {
        let idx = (entropy as usize) % bytes.len();
        bytes[idx] ^= ((entropy >> 8) as u8) | 1;
    }
    bytes.into()
}

/// What a link verdict does to one frame: the payload to send (its bytes
/// flipped under [`LinkVerdict::Corrupt`]), how many copies queue on the
/// link and the extra delay each lands with; `None` drops it.
fn apply_verdict(
    verdict: LinkVerdict,
    payload: FrameBytes,
) -> Option<(FrameBytes, usize, SimDuration)> {
    Some(match verdict {
        LinkVerdict::Drop => return None,
        LinkVerdict::Corrupt { entropy } => {
            (corrupt_frame_bytes(&payload, entropy), 1, SimDuration::ZERO)
        }
        LinkVerdict::Duplicate => (payload, 2, SimDuration::ZERO),
        LinkVerdict::Delay(extra) => (payload, 1, extra),
        LinkVerdict::Deliver => (payload, 1, SimDuration::ZERO),
    })
}

/// One storage server on the fabric: an origin replica or an activated
/// peer, with its own switch port and egress link.
#[derive(Debug)]
struct ServerNode {
    server: AoeServer,
    mac: MacAddr,
    egress: Link,
    /// Wire bytes of replies dispatched but not yet serialized onto
    /// this node's egress link (their [`FabricEvent::ReplyTx`] is still
    /// pending); counted into the backpressure backlog so one pump
    /// can't outrun the wire unobserved.
    egress_inflight_bytes: u64,
    /// Earliest already-scheduled [`FabricEvent::Dispatch`] for this
    /// node, so worker wake-ups are not scheduled redundantly.
    pending_dispatch: Option<SimTime>,
    /// Origin replica (true) or activated peer (false): decides
    /// whether the fault plan's server and disk gates apply.
    origin: bool,
    /// Queued [`FabricEvent`]s that name this node: a retired node's
    /// place is reused only once none is left.
    queued: u32,
}

/// One step of fabric work, due when the host's timeline holds it.
/// `machine` is the client index the host gave [`Fabric::forward`].
#[derive(Debug)]
pub(crate) enum FabricEvent {
    /// A request frame arrives at server `node`'s NIC.
    ServerRx {
        node: usize,
        machine: usize,
        payload: FrameBytes,
    },
    /// A worker may have come free on `node`: try its DRR scheduler
    /// again.
    Dispatch { node: usize },
    /// A reply becomes ready on server `node` and starts its egress
    /// transmission toward `machine`.
    ReplyTx {
        node: usize,
        machine: usize,
        frames: Vec<FrameBytes>,
    },
    /// A reply frame arrives at `machine`'s NIC.
    Deliver { machine: usize, payload: FrameBytes },
}

/// The switch, the server nodes behind it and the fault injector; see
/// the module docs.
#[derive(Debug)]
pub struct Fabric {
    switch: Switch<FrameBytes>,
    /// Origin replicas first (index = shelf), then activated peers.
    nodes: Vec<ServerNode>,
    /// AoE shelf → node index, for request routing.
    shelf_nodes: BTreeMap<u16, usize>,
    /// Retired shelf → the node that served it, for reuse when the
    /// shelf is served again.
    retired: BTreeMap<u16, usize>,
    faults: Option<FaultInjector>,
    /// Egress backlog (in serialization time) above which a node with
    /// at least two clients stops dispatching.
    egress_queue_cap: SimDuration,
    /// Registry of the servers and the fault injector.
    metrics: Metrics,
    /// Span store of the servers.
    spans: Spans,
}

impl Fabric {
    /// An empty fabric: a switch with `mtu`, no server yet, and a fault
    /// injector when `faults` carries a plan.
    pub(crate) fn new(
        mtu: u32,
        egress_queue_cap: SimDuration,
        faults: Option<FaultPlan>,
    ) -> Fabric {
        Fabric {
            switch: Switch::new(mtu),
            nodes: Vec::new(),
            shelf_nodes: BTreeMap::new(),
            retired: BTreeMap::new(),
            faults: faults.map(FaultInjector::new),
            egress_queue_cap,
            metrics: Metrics::disabled(),
            spans: Spans::disabled(),
        }
    }

    /// Attaches `server` on its own uplink port and egress link, and
    /// routes its shelf to it. Only an origin sits inside the fault
    /// plan's storage failure domain. Draws no randomness.
    ///
    /// A shelf served again after [`Fabric::retire_shelf`] takes back
    /// its retired node's place once no queued event names that node:
    /// the new server starts from the old one's counters, so every
    /// total over the servers reads as before, and the node list stays
    /// one entry per shelf however many waves retire and re-activate it.
    pub(crate) fn add_server(&mut self, mac: MacAddr, mut server: AoeServer, origin: bool) {
        if self.metrics.is_enabled() {
            server.set_telemetry(self.metrics.clone());
        }
        if self.spans.is_enabled() {
            server.set_spans(self.spans.clone());
        }
        let shelf = server.config().shelf;
        let node = ServerNode {
            server,
            mac,
            egress: Link::gigabit(),
            egress_inflight_bytes: 0,
            pending_dispatch: None,
            origin,
            queued: 0,
        };
        let reuse = self.retired.get(&shelf).copied();
        let index = match reuse.filter(|&i| self.nodes[i].queued == 0) {
            Some(i) => {
                self.retired.remove(&shelf);
                let old = std::mem::replace(&mut self.nodes[i], node);
                self.nodes[i].server.carry_counters(&old.server);
                // The switch forwards to the first port with a MAC, so
                // a port already attached for it is the one in use.
                if old.mac != mac {
                    self.switch.attach(mac, Link::gigabit());
                }
                i
            }
            None => {
                self.switch.attach(mac, Link::gigabit());
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        self.shelf_nodes.insert(shelf, index);
    }

    /// Takes `shelf` out of request routing: frames addressed to it
    /// vanish. Its node stays until the shelf is served again, so
    /// queued replies drain harmlessly.
    pub(crate) fn retire_shelf(&mut self, shelf: u16) {
        if let Some(node) = self.shelf_nodes.remove(&shelf) {
            self.retired.insert(shelf, node);
        }
    }

    /// Attaches a metrics registry to the servers (added later ones
    /// too) and the fault injector.
    pub(crate) fn set_telemetry(&mut self, metrics: Metrics) {
        for node in &mut self.nodes {
            node.server.set_telemetry(metrics.clone());
        }
        if let Some(inj) = self.faults.as_mut() {
            inj.set_metrics(metrics.clone());
        }
        self.metrics = metrics;
    }

    /// Attaches a span store to the servers (added later ones too).
    pub(crate) fn set_spans(&mut self, spans: Spans) {
        for node in &mut self.nodes {
            node.server.set_spans(spans.clone());
        }
        self.spans = spans;
    }

    /// The registry of the servers and the fault injector.
    pub(crate) fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The servers' span store.
    pub(crate) fn spans(&self) -> &Spans {
        &self.spans
    }

    /// The primary storage server (origin replica 0).
    pub fn server(&self) -> &AoeServer {
        &self.nodes[0].server
    }

    /// Mutable access to the primary storage server.
    pub fn server_mut(&mut self) -> &mut AoeServer {
        &mut self.nodes[0].server
    }

    /// Every server node, origins first, retired peers included.
    pub(crate) fn servers(&self) -> impl Iterator<Item = &AoeServer> {
        self.nodes.iter().map(|n| &n.server)
    }

    /// The origin replicas.
    pub(crate) fn origins_mut(&mut self) -> impl Iterator<Item = &mut AoeServer> {
        self.nodes
            .iter_mut()
            .filter(|n| n.origin)
            .map(|n| &mut n.server)
    }

    /// The fault injector, when a plan is installed.
    pub(crate) fn faults_mut(&mut self) -> Option<&mut FaultInjector> {
        self.faults.as_mut()
    }

    /// Injection totals (`None` without a fault plan).
    pub fn fault_counters(&self) -> Option<FaultCounters> {
        self.faults.as_ref().map(FaultInjector::counters)
    }

    /// Sends one request frame from `machine` at `now` to the node
    /// owning its AoE shelf, under the request-side link verdict. A
    /// frame for a shelf nobody serves, or one the verdict drops,
    /// vanishes like on a real wire; the client's retransmission
    /// recovers it.
    pub(crate) fn forward(
        &mut self,
        now: SimTime,
        machine: usize,
        payload: FrameBytes,
        push: &mut impl FnMut(SimTime, FabricEvent),
    ) {
        let Some(&node) = peek_shelf_slot(payload.peek_head())
            .and_then(|(shelf, _)| self.shelf_nodes.get(&shelf))
        else {
            return;
        };
        let verdict = self
            .faults
            .as_mut()
            .map_or(LinkVerdict::Deliver, |f| f.link_verdict_tx(now));
        let Some((payload, copies, extra)) = apply_verdict(verdict, payload) else {
            return;
        };
        for _ in 0..copies {
            let frame = Frame {
                src: VMM_MAC,
                dst: self.nodes[node].mac,
                payload_bytes: payload.len() as u32,
                payload: payload.clone(),
            };
            let Ok(d) = self.switch.forward(now, frame) else {
                return;
            };
            let payload = d.frame.payload;
            self.nodes[node].queued += 1;
            push(
                d.at + extra,
                FabricEvent::ServerRx {
                    node,
                    machine,
                    payload,
                },
            );
        }
    }

    /// Runs one event at `now`, handing follow-ups to `push`. A
    /// [`FabricEvent::Deliver`] returns its `(machine, frame)` for the
    /// host to deliver.
    pub(crate) fn fire(
        &mut self,
        now: SimTime,
        event: FabricEvent,
        push: &mut impl FnMut(SimTime, FabricEvent),
    ) -> Option<(usize, FrameBytes)> {
        if let FabricEvent::ServerRx { node, .. }
        | FabricEvent::Dispatch { node }
        | FabricEvent::ReplyTx { node, .. } = event
        {
            self.nodes[node].queued -= 1;
        }
        match event {
            FabricEvent::ServerRx {
                node,
                machine,
                payload,
            } => self.server_rx(now, node, machine, &payload, push),
            FabricEvent::Dispatch { node } => {
                if self.nodes[node].pending_dispatch == Some(now) {
                    self.nodes[node].pending_dispatch = None;
                }
                self.pump_server(node, now, push);
            }
            FabricEvent::ReplyTx {
                node,
                machine,
                frames,
            } => self.reply_tx(now, node, machine, frames, push),
            FabricEvent::Deliver { machine, payload } => return Some((machine, payload)),
        }
        None
    }

    /// A request reaches server `node`: the fault gates (origins only),
    /// then enqueue and the DRR pump.
    fn server_rx(
        &mut self,
        now: SimTime,
        node: usize,
        machine: usize,
        payload: &FrameBytes,
        push: &mut impl FnMut(SimTime, FabricEvent),
    ) {
        if self.nodes[node].origin {
            if let Some(inj) = self.faults.as_mut() {
                match inj.server_health(now) {
                    // Stalled or crashed: the frame vanishes; the
                    // client's backoff keeps probing until the server
                    // returns.
                    ServerHealth::Down => return,
                    ServerHealth::Restarting => {
                        // The health plan models the storage array, so a
                        // restart window bounces every origin replica.
                        for n in self.nodes.iter_mut().filter(|n| n.origin) {
                            n.server.restart();
                        }
                    }
                    ServerHealth::Up => {}
                }
                let factor = inj.disk_latency_factor(now);
                let write_faults = inj.disk_write_error(now);
                self.nodes[node]
                    .server
                    .set_disk_faults(factor, write_faults);
            }
        }
        // Decode failures and misaddressed frames just vanish, like on
        // a real wire; queue-full drops are counted by the server.
        let _ = self.nodes[node].server.enqueue(now, machine, payload);
        self.pump_server(node, now, push);
    }

    /// Server `node`'s egress backlog at `now`, in serialization time:
    /// what the link still has to put on the wire, plus replies
    /// dispatched but whose [`FabricEvent::ReplyTx`] has not executed
    /// yet.
    fn egress_backlog(&self, node: usize, now: SimTime) -> SimDuration {
        let n = &self.nodes[node];
        let queued = n.egress.next_free().saturating_duration_since(now);
        let inflight = SimDuration::from_nanos(
            n.egress_inflight_bytes * 8 * 1_000_000_000 / n.egress.rate_bps,
        );
        queued + inflight
    }

    /// Lets server `node`'s DRR scheduler dispatch everything it can at
    /// `now`, then books a wake-up for the next worker-free instant.
    ///
    /// Dispatch also stalls while the node's egress backlog exceeds the
    /// egress queue cap (with at least two clients on record): the disk
    /// cache can serve retransmit bursts orders of magnitude faster
    /// than a saturated wire drains them, and without NIC backpressure
    /// that difference accumulates as an unbounded reply queue.
    /// Requests wait in the bounded per-client queues instead, where
    /// the busy hint and queue-full drops do their work.
    fn pump_server(
        &mut self,
        node: usize,
        now: SimTime,
        push: &mut impl FnMut(SimTime, FabricEvent),
    ) {
        let cap = self.egress_queue_cap;
        loop {
            let backlog = self.egress_backlog(node, now);
            let n = &mut self.nodes[node];
            if n.server.clients() >= 2 && backlog > cap {
                if n.server.queued_total() > 0 {
                    let resume = now + (backlog - cap);
                    if n.pending_dispatch.is_none_or(|p| resume < p) {
                        n.pending_dispatch = Some(resume);
                        n.queued += 1;
                        push(resume, FabricEvent::Dispatch { node });
                    }
                }
                return;
            }
            let Some((client, reply)) = n.server.dispatch(now) else {
                break;
            };
            // RDMA reply bursts travel the IB lane, not the Ethernet
            // NIC, so they never join the egress in-flight tally the
            // backpressure gate meters.
            n.egress_inflight_bytes += reply
                .frames
                .iter()
                .filter(|f| !peek_rdma(f.peek_head()))
                .map(|f| f.len() as u64 + FRAME_OVERHEAD as u64)
                .sum::<u64>();
            n.queued += 1;
            push(
                reply.ready_at.max(now),
                FabricEvent::ReplyTx {
                    node,
                    machine: client,
                    frames: reply.frames,
                },
            );
        }
        let n = &mut self.nodes[node];
        if let Some(at) = n.server.next_dispatch_at() {
            if n.pending_dispatch.is_none_or(|p| at < p) {
                n.pending_dispatch = Some(at);
                n.queued += 1;
                push(at, FabricEvent::Dispatch { node });
            }
        }
    }

    /// Reply frames leave server `node`: per-frame fault verdicts and
    /// serialization on the node's egress link (its NIC: replies to
    /// different machines queue behind each other here).
    fn reply_tx(
        &mut self,
        now: SimTime,
        node: usize,
        machine: usize,
        frames: Vec<FrameBytes>,
        push: &mut impl FnMut(SimTime, FabricEvent),
    ) {
        for payload in frames {
            // The IB lane: a reply burst placed by a one-sided READ
            // bypasses the Ethernet egress queue and its fault verdicts
            // (InfiniBand is lossless) and lands after the fixed
            // propagation delay. The payload Arc moves through untouched.
            if peek_rdma(payload.peek_head()) {
                push(now + lookahead(), FabricEvent::Deliver { machine, payload });
                continue;
            }
            // The bytes move from "dispatched, pending" to the link's
            // own horizon (or vanish to a fault verdict); either way
            // they leave the in-flight tally.
            let wire = payload.len() as u64 + FRAME_OVERHEAD as u64;
            self.nodes[node].egress_inflight_bytes =
                self.nodes[node].egress_inflight_bytes.saturating_sub(wire);
            let verdict = self
                .faults
                .as_mut()
                .map_or(LinkVerdict::Deliver, |f| f.link_verdict_rx(now));
            let Some((payload, copies, extra)) = apply_verdict(verdict, payload) else {
                continue;
            };
            for _ in 0..copies {
                let wire = payload.len() as u32 + FRAME_OVERHEAD;
                let at = self.nodes[node].egress.transmit(now, wire) + extra;
                push(
                    at,
                    FabricEvent::Deliver {
                        machine,
                        payload: payload.clone(),
                    },
                );
            }
        }
        // In-flight bytes just became link horizon (or fault-verdict
        // losses); a backpressure-deferred dispatch may be admissible
        // earlier than its booked resume. Outside backpressure this is
        // a no-op: any free-worker dispatch at or before this instant
        // already ran from its own event.
        if self.nodes[node].server.queued_total() > 0 {
            self.pump_server(node, now, push);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_drop_copy_delay_or_corrupt_a_frame() {
        let frame: FrameBytes = vec![7u8; 64].into();
        assert!(apply_verdict(LinkVerdict::Drop, frame.clone()).is_none());
        let (sent, copies, extra) = apply_verdict(LinkVerdict::Deliver, frame.clone()).unwrap();
        assert_eq!(
            (sent.to_vec(), copies, extra),
            (frame.to_vec(), 1, SimDuration::ZERO)
        );
        assert_eq!(
            apply_verdict(LinkVerdict::Duplicate, frame.clone())
                .unwrap()
                .1,
            2
        );
        let late = SimDuration::from_millis(3);
        let delayed = apply_verdict(LinkVerdict::Delay(late), frame.clone()).unwrap();
        assert_eq!((delayed.1, delayed.2), (1, late));
        let corrupt = LinkVerdict::Corrupt { entropy: 0x1234 };
        let (sent, copies, _) = apply_verdict(corrupt, frame.clone()).unwrap();
        assert_eq!(copies, 1);
        assert_eq!(sent.len(), frame.len());
        assert_ne!(sent.to_vec(), frame.to_vec(), "one byte flipped");
    }
}
