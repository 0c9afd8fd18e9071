//! Fleet simulator: N machines deploying concurrently over one shared
//! fabric (§5.7's scale-out experiment, measured instead of modeled).
//!
//! A [`Fleet`] instantiates `n` full [`Machine`]s — each with its own
//! [`simkit::Sim`] event queue — and couples them through one shared
//! [`Fabric`], the same fabric code a standalone machine runs with a
//! single server:
//!
//! - **Requests** (machine → server) transit the shared switch whose
//!   server ports carry uplink links: per-frame serialization delay and
//!   back-to-back queueing, so 64 machines' fetch bursts contend for
//!   the same wires exactly like the paper's testbed.
//! - **Replies** (server → machines) serialize on each server's own
//!   egress link modeling its NIC — the actual scale-out bottleneck.
//! - Every server drains per-client pending queues with a
//!   deficit-round-robin scheduler ([`AoeServer::dispatch`]). The
//!   fleet's server config adds an LRU block cache that turns `n`
//!   identical deployments into one disk read stream
//!   (`server.cache.*`), and a **busy hint** piggybacked on replies
//!   when the backlog crosses a threshold — machines react by pausing
//!   their elastic background copy
//!   ([`Moderation::server_busy_backoff`](crate::config::Moderation)).
//!
//! # Topologies
//!
//! Three fabric shapes, selected by [`FleetConfig`]:
//!
//! - **Single server** (`servers: 1`, the default): the original
//!   scale-out setup — one origin holds the image, every machine reads
//!   from it.
//! - **Sharded/replicated** (`servers: k`): `k` origin servers each
//!   hold a full replica of the golden image on their own switch port
//!   and egress link. Clients stripe *reads* across the replicas by
//!   LBA, one background-copy block
//!   ([`BmcastConfig::copy_block_sectors`]) per stripe so a copy block
//!   never straddles two servers; *writes* — none occur
//!   during a deployment, guest writes land in the machine's local
//!   copy — would go to the primary `(0, 0)` alone, preserving one
//!   write-ordering point.
//! - **Peer-to-peer** (`peer_serving: true`): a machine whose
//!   deployment bitmap fills becomes a **read-only rack-local peer**:
//!   the fleet attaches a new server node exporting the immutable
//!   golden image (guest writes live in the machine's private copy and
//!   are never served) and appends its endpoint to every other
//!   machine's read set. Supply grows with every finished deployment,
//!   which is what flattens the startup curve at large `n` — combined
//!   with [`post-boot sprint`](crate::config::Moderation::post_boot_sprint)
//!   so nearly-done machines convert into peers quickly.
//!
//! Peers join a *different failure domain* than the origin servers:
//! the fleet-level [`FaultPlan`] (server health, disk faults) applies
//! to origin nodes only, while the link verdicts apply uniformly — a
//! rack-local peer shares the fabric but not the storage array's
//! failure modes.
//!
//! # Determinism
//!
//! The fleet interleaves its member simulations in lockstep: every
//! iteration executes the globally earliest event, with ties broken
//! fleet-events-first, then by ascending machine index. Per-machine
//! client jitter comes from PRNG streams forked off one fleet seed (so
//! retransmission storms do not synchronize), fault randomness from the
//! fleet's fault plan, and the fleet's own event queue (its fabric
//! events and lifecycle announcements) is an ordered map
//! keyed by `(time, sequence)`. Peer activation is itself an event:
//! a completed copy books a `FleetEvent::PeerActivate` one fabric
//! lookahead later (attaching a switch port consumes no randomness),
//! so two runs with the same [`FleetConfig`] are event-for-event
//! identical — the scale-out artifact is byte-reproducible at every
//! topology.
//!
//! # Example
//!
//! ```
//! use bmcast::fleet::{Fleet, FleetConfig};
//! use bmcast::machine::MachineSpec;
//! use bmcast::programs::BootProgram;
//! use guestsim::os::BootProfile;
//! use simkit::SimTime;
//!
//! let cfg = FleetConfig {
//!     n: 2,
//!     spec: MachineSpec {
//!         capacity_sectors: (1u64 << 28) / 512,
//!         image_sectors: (1u64 << 27) / 512,
//!         ..MachineSpec::default()
//!     },
//!     ..FleetConfig::default()
//! };
//! let mut fleet = Fleet::new(cfg);
//! fleet.start(|_| Box::new(BootProgram::new(BootProfile::tiny(7))));
//! let startups = fleet.run_to_all_booted(SimTime::from_secs(1800)).unwrap();
//! assert_eq!(startups.len(), 2);
//! ```

use crate::config::BmcastConfig;
use crate::deploy::FlightRecorderConfig;
use crate::devirt::Phase;
use crate::fabric::{self, image_disk, image_server, Fabric, FabricEvent, SERVER_MAC};
use crate::machine::{
    pop_vmm_tx, reclaim, sample_flight_row, start_deployment, start_flight_sampler, start_program,
    start_revirt, vmm_nic_rx, DeployError, GuestProgram, Machine, MachineSim, MachineSpec,
};
use aoe::{AoeServer, ServerConfig};
use hwsim::disk::DiskModel;
use hwsim::eth::MacAddr;
use simkit::fault::{FaultCounters, FaultPlan};
use simkit::slo::{Alert, SloConfig, SloEngine, SloInput};
use simkit::{
    LogHistogram, Metrics, MetricsSnapshot, Prng, SampleRow, Sampler, SimDuration, SimTime, Span,
    Spans, Tracer,
};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

/// First shelf number used by peer server nodes (origin replicas use
/// shelves `0..servers`); machine `i`'s peer answers on shelf
/// `PEER_SHELF_BASE + i`.
pub const PEER_SHELF_BASE: u16 = 0x1000;

/// AoE slot (on every origin shelf) exporting the *next* tenant image
/// during a lifecycle wave; reclaimed machines redeploy from it.
pub const UPGRADE_SLOT: u8 = 1;

/// First AoE slot (on origin shelf 0) of the per-machine **archive
/// volumes**: machine `i`'s snapshot-back streams its dirty blocks
/// into slot `ARCHIVE_SLOT_BASE + i`, which starts as a replica of
/// that member's current image, so the volume ends as the departing
/// tenant's exact final disk state.
pub const ARCHIVE_SLOT_BASE: u8 = 2;

/// Where a member stands in the reverse (elasticity) lifecycle. The
/// stages advance through fleet-timeline events and member step
/// detections, mirroring the machine's own
/// [`Phase`] transitions at the fleet's
/// granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleStage {
    /// Not part of any lifecycle wave.
    Idle,
    /// Selected for the current wave, waiting for an admission slot.
    Queued,
    /// Re-virtualizing and streaming dirty blocks to its archive
    /// volume.
    SnapshotBack,
    /// Snapshot complete; the reclaim announcement is in flight or the
    /// reset is executing.
    Reclaiming,
    /// Reclaimed; redeploying the next tenant image.
    Redeploying,
    /// Reclaimed and held empty (scale-down).
    Parked,
    /// Wave finished: redeployed and booted the new image.
    Done,
}

/// Fleet-wide configuration: the member machines, the shared fabric,
/// and the storage servers.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of machines deploying concurrently.
    pub n: usize,
    /// Per-machine hardware description (all members are identical,
    /// like the paper's homogeneous rack).
    pub spec: MachineSpec,
    /// Per-machine BMcast configuration. The fleet ignores `faults`
    /// here: members have no fabric of their own, and the shared
    /// fabric's faults (frame loss included) come from
    /// [`FleetConfig::faults`].
    pub machine_cfg: BmcastConfig,
    /// Storage-server configuration, applied to every origin replica
    /// and inherited by peer nodes. `mtu` is overridden with
    /// `machine_cfg.mtu` and `shelf`/`slot` with each node's own
    /// address at construction, so the endpoints always agree.
    pub server_cfg: ServerConfig,
    /// Origin storage servers, each holding a full replica of the
    /// golden image on its own switch port and egress link. Clients
    /// stripe reads across them by LBA; 1 reproduces the original
    /// single-server fleet bit-for-bit.
    pub servers: usize,
    /// Peer-serving mode: a machine whose bitmap fills becomes a
    /// read-only origin for the others (see the module docs).
    pub peer_serving: bool,
    /// Gap between consecutive machines' deployment starts. `ZERO`
    /// (the default) starts everyone at `t = 0`, the original
    /// simultaneous-arrival experiment; a small stagger models rolling
    /// power-on and is what lets early finishers seed the peer-serving
    /// snowball. Startup times reported by
    /// [`Fleet::startup_durations`] are measured from each machine's
    /// own start.
    pub start_stagger: SimDuration,
    /// Admission ramp, the deployment scheduler's side of peer serving:
    /// `0` (the default) releases every machine on the fixed stagger
    /// grid; a non-zero base releases at most `admission_base +
    /// admission_per_peer × active_peers` machines, growing the rollout
    /// as converted peers add serving capacity. A 256-machine burst
    /// against one origin collapses into queueing long before the first
    /// peer can convert — real peer-to-peer rollouts ramp admission for
    /// exactly this reason. Per-machine startup is still measured from
    /// each machine's own release ([`Fleet::startup_durations`]).
    /// Inert when `n <= admission_base`, preserving small-fleet and
    /// n = 1 behavior exactly.
    pub admission_base: usize,
    /// Additional machines released per active peer (see
    /// [`FleetConfig::admission_base`]).
    pub admission_per_peer: usize,
    /// Egress backlog (in serialization time) above which a server
    /// stops dispatching — the NIC ring is finite, so a disk-and-cache
    /// pipeline that outruns the wire must stall, not buffer without
    /// bound. Like the busy hint, backpressure needs at least two
    /// clients on record: a lone machine's pump has no shared egress
    /// queue to protect, keeping the `n = 1` fleet identical to the
    /// single-machine deployment.
    pub egress_queue_cap: SimDuration,
    /// Master seed: forked, in a fixed order, into each machine's
    /// AoE-client jitter stream (after two retired draws).
    pub seed: u64,
    /// Ignored: the fleet always runs its one sequential walk. Kept
    /// only because the `bmbench` package still sets it; no code in
    /// this workspace writes it.
    pub sim_threads: usize,
    /// Fleet-level fault plan, applied on the shared fabric and the
    /// origin servers (per-machine plans are ignored on fleet members;
    /// peer nodes are outside the storage failure domain).
    pub faults: Option<FaultPlan>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            n: 1,
            spec: MachineSpec::default(),
            machine_cfg: BmcastConfig::default(),
            // The fleet enables the block cache by default: sized to
            // hold a full paper-scale image's worth of distinct ranges
            // (keys only — the data lives in the sparse BlockStore), so
            // `n` identical deployments cost ~one disk read stream.
            // The busy hint engages earlier than the single-machine
            // default: with even two members, unthrottled background
            // copies compete with boot reads for the shared egress pipe
            // (and their fill-dependent chunk ranges defeat the cache),
            // so a shallow queue is already worth signalling.
            server_cfg: ServerConfig {
                cache_entries: 65536,
                busy_queue_threshold: 4,
                ..ServerConfig::default()
            },
            servers: 1,
            peer_serving: false,
            start_stagger: SimDuration::ZERO,
            admission_base: 0,
            admission_per_peer: 0,
            egress_queue_cap: SimDuration::from_millis(20),
            seed: 0xF1EE7,
            sim_threads: 1,
            faults: None,
        }
    }
}

/// An event on the fleet's own (fabric + server) timeline. Machine-side
/// events stay inside each member's [`MachineSim`].
#[derive(Debug)]
enum FleetEvent {
    /// Work on the shared fabric; a delivered reply frame is handed to
    /// its member's sim.
    Fabric(FabricEvent),
    /// Machine `machine`'s full copy becomes visible to the rack: the
    /// fleet converts it into a read-only peer server. Booked one
    /// fabric lookahead after the bitmap fills: the control-plane
    /// announcement takes at least as long as a frame crossing.
    PeerActivate { machine: usize },
    /// Machine `machine` begins its lifecycle wave step: its peer node
    /// (if any) is retired from routing and every endpoint list first,
    /// then the member re-virtualizes and starts streaming dirty
    /// blocks to its archive volume. Booked one fabric lookahead after
    /// the admission decision.
    UpgradeStart { machine: usize },
    /// Machine `machine`'s snapshot-back completed: reset it for the
    /// next tenant (and redeploy, unless the wave parks it). Booked
    /// one lookahead after the completion was detected, like
    /// [`FleetEvent::PeerActivate`].
    Reclaim { machine: usize },
    /// Fleet-level timeline sampler tick.
    Sample,
}

/// The fleet's own event queue: a min-heap on `(time, sequence)`.
#[derive(Default)]
struct Timeline {
    events: BinaryHeap<Reverse<Timed>>,
    seq: u64,
}

/// A timeline entry, ordered by `(time, sequence)` alone.
struct Timed {
    at: SimTime,
    seq: u64,
    event: FleetEvent,
}

impl PartialEq for Timed {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Timed {}
impl PartialOrd for Timed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Timed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl Timeline {
    fn push(&mut self, at: SimTime, event: FleetEvent) {
        let seq = self.seq;
        self.seq += 1;
        self.events.push(Reverse(Timed { at, seq, event }));
    }

    /// When the earliest event is due.
    fn next_at(&self) -> Option<SimTime> {
        self.events.peek().map(|Reverse(t)| t.at)
    }

    /// Takes the earliest event.
    fn pop(&mut self) -> Option<(SimTime, FleetEvent)> {
        self.events.pop().map(|Reverse(t)| (t.at, t.event))
    }
}

/// Starts a member's deployment with its installed guest program, and
/// its timeline sampler (a no-op unless the flight recorder is on).
fn deploy_member(m: &mut Machine, sim: &mut MachineSim) {
    start_deployment(m, sim);
    start_program(m, sim);
    start_flight_sampler(m, sim);
}

/// Member-side arm of [`FleetEvent::UpgradeStart`]: once the machine
/// reaches bare metal (a booted guest can still be filling its copy in
/// the background — re-virtualization must wait for devirtualization
/// to finish), point its writes at its archive volume and start the
/// reverse lifecycle. Polls on the member's own timeline.
fn arm_revirt(m: &mut Machine, sim: &mut MachineSim, slot: u8) {
    if m.phase() != Phase::BareMetal {
        sim.schedule_in(SimDuration::from_millis(1), move |m: &mut Machine, sim| {
            arm_revirt(m, sim, slot)
        });
        return;
    }
    if let Some(vmm) = m.vmm.as_mut() {
        vmm.client.set_write_target(0, slot);
    }
    start_revirt(m, sim);
}

/// Why [`Fleet::run_to_all_booted`] stopped short, with the state of
/// every member at that instant — a fleet that fails tells you *which*
/// machines are stuck and how far they got, not just that it timed
/// out.
#[derive(Debug, Clone)]
pub struct FleetStall {
    /// Fleet virtual time when the run stopped.
    pub at: SimTime,
    /// The time limit the run was given.
    pub limit: SimTime,
    /// True when no events remained anywhere (a wedged fleet), false
    /// when the limit passed or every unfinished member had failed
    /// terminally.
    pub wedged: bool,
    /// Per-machine state, index-aligned with the members.
    pub outcomes: Vec<MachineOutcome>,
}

/// One member's state when a fleet run stopped short.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MachineOutcome {
    /// The guest program finished at `at`.
    Booted {
        /// Boot-finish instant (absolute fleet time).
        at: SimTime,
    },
    /// The deployment surfaced a terminal error.
    Failed {
        /// The error the VMM reported.
        error: DeployError,
    },
    /// Still deploying: neither booted nor failed.
    Incomplete {
        /// Deployment bitmap fill, `[0, 1]`.
        fill: f64,
    },
}

impl std::fmt::Display for FleetStall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let booted = self
            .outcomes
            .iter()
            .filter(|o| matches!(o, MachineOutcome::Booted { .. }))
            .count();
        let failed = self
            .outcomes
            .iter()
            .filter(|o| matches!(o, MachineOutcome::Failed { .. }))
            .count();
        let n = self.outcomes.len();
        write!(
            f,
            "fleet stopped at {:?} ({}): {booted}/{n} booted, {failed} failed",
            self.at,
            if self.wedged {
                "no events left"
            } else if failed > 0 && booted + failed == n {
                "all remaining machines failed"
            } else {
                "limit passed"
            },
        )?;
        for (i, o) in self.outcomes.iter().enumerate() {
            if let MachineOutcome::Failed { error } = o {
                write!(f, "; machine{i}: {error}")?;
            }
        }
        let laggard = self
            .outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, o)| match o {
                MachineOutcome::Incomplete { fill } => Some((i, *fill)),
                _ => None,
            })
            .fold(None, |acc: Option<(usize, f64)>, (i, fill)| match acc {
                Some((_, best)) if best <= fill => acc,
                _ => Some((i, fill)),
            });
        if let Some((i, fill)) = laggard {
            write!(f, "; least filled: machine{i} at {:.1}%", fill * 100.0)?;
        }
        Ok(())
    }
}

impl std::error::Error for FleetStall {}

/// One machine's boot-time decomposition in the straggler report
/// ([`Fleet::straggler_attribution`]). Every field is derived from that
/// member's own registry, span store, and client state in fixed member
/// order, so rows are deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct StragglerRow {
    /// Member index.
    pub machine: usize,
    /// Elapsed boot time (finish minus staggered start), seconds.
    pub boot_s: f64,
    /// `phase.initialization` span total, seconds.
    pub init_s: f64,
    /// `phase.deployment` span total, seconds (0 while still open).
    pub deploy_s: f64,
    /// `phase.devirtualization` span total, seconds.
    pub devirt_s: f64,
    /// Total AoE round-trip time (`aoe.rtt` spans), seconds.
    pub rtt_total_s: f64,
    /// Mean AoE round-trip, microseconds.
    pub rtt_mean_us: f64,
    /// Reads issued.
    pub reads: u64,
    /// Frames retransmitted.
    pub retransmits: u64,
    /// Server-busy hints received.
    pub busy_hints: u64,
    /// Retry-budget holds granted under busy grace.
    pub budget_holds: u64,
    /// Estimated elastic backoff spent yielding to busy servers,
    /// seconds (busy hints × the moderation backoff window).
    pub busy_backoff_s: f64,
    /// Estimated queueing excess: round-trip time beyond what this
    /// member's reads would cost at the fleet-median per-read RTT,
    /// seconds. The DRR wait and egress-backlog share of a straggler's
    /// boot shows up here.
    pub queue_excess_s: f64,
    /// Reads steered to rack-local serving peers.
    pub peer_reads: u64,
    /// Reads steered to origin replicas.
    pub origin_reads: u64,
}

/// The straggler attribution report: the slowest decile of booted
/// members decomposed and diffed against the fleet-median member.
#[derive(Debug, Clone, PartialEq)]
pub struct StragglerReport {
    /// Slowest-decile rows, slowest boot first.
    pub stragglers: Vec<StragglerRow>,
    /// The member at the median boot time — the baseline the straggler
    /// rows are diffed against.
    pub median: StragglerRow,
    /// Members booted (the population the decile was drawn from).
    pub booted: usize,
}

/// Per-machine guest-program factory handed to [`Fleet::start`].
type ProgramFactory = Box<dyn FnMut(usize) -> Box<dyn GuestProgram>>;

/// N machines, one fabric, one or more servers — see the module docs.
pub struct Fleet {
    cfg: FleetConfig,
    machines: Vec<(Machine, MachineSim)>,
    /// The shared switch, server nodes (origin replicas first, index =
    /// shelf, then activated peers) and the fleet's fault injector.
    fabric: Fabric,
    /// Which members have already been converted into peer nodes.
    peer_active: Vec<bool>,
    /// Members whose completed copy has been detected but whose
    /// [`FleetEvent::PeerActivate`] announcement is still in flight.
    peer_pending: Vec<bool>,
    /// Per-member lifecycle stage (elasticity waves).
    lifecycle: Vec<LifecycleStage>,
    /// Members that still gate the current lifecycle wave's completion.
    wave_pending: Vec<bool>,
    /// Set entries of `wave_pending`, kept by `set_wave_pending` so the
    /// run loop's exit check is O(1), like `booted_n`'s.
    wave_pending_n: usize,
    /// Scale-down flag: hold the member empty after reclaim instead of
    /// redeploying.
    park_after_reclaim: Vec<bool>,
    /// Whether the run loop is driving a lifecycle wave — changes the
    /// completion predicate and which members count as pending.
    lifecycle_mode: bool,
    /// Wave members waiting for an admission slot, released one at a
    /// time as predecessors park or finish redeploying (bounded
    /// concurrency — the lifecycle side of the admission ramp).
    upgrade_queue: VecDeque<usize>,
    /// Image seed of the *next* tenant for the current wave.
    upgrade_seed: u64,
    /// Seed the [`UPGRADE_SLOT`] volumes were exported with, once any
    /// wave exported them (a later wave must reuse the same image).
    upgrade_volume_seed: Option<u64>,
    /// Per-member image seed currently deployed — archives replicate
    /// it, and peer re-activation after an upgrade must export it
    /// instead of the original golden image.
    member_seed: Vec<u64>,
    /// Per-member jitter reseeds for post-reclaim clients, forked up
    /// front per wave so the draws never depend on completion order.
    upgrade_seeds: Vec<u64>,
    /// Per-member redeploy boot-finish instant for the current wave.
    redeploy_done: Vec<Option<SimTime>>,
    /// Lazily validated index of member next-event times, keyed
    /// `(next_event_at, machine_index)`: the run loop pops its minimum
    /// instead of re-scanning every member's queue head per event.
    /// Stale entries (the member stepped past them or received an
    /// earlier event) are discarded on peek, one pop each; every head
    /// change re-indexes the member, so the true head is always present.
    next_index: BinaryHeap<Reverse<(SimTime, usize)>>,
    timeline: Timeline,
    /// Events executed on the fleet's own timeline (members count their
    /// own; see [`Fleet::events_executed`]).
    fleet_events_executed: u64,
    now: SimTime,
    /// Per-machine deployment start instant (staggered arrivals;
    /// `ZERO` placeholder until an admission-gated machine is
    /// released).
    start_at: Vec<SimTime>,
    /// First boot-finish instant per machine.
    startup: Vec<Option<SimTime>>,
    /// Members with a recorded boot finish (`startup` is only ever set
    /// once per member, so a counter replaces the O(n) scan the run
    /// loop's exit check used to pay per event).
    booted_n: usize,
    /// Program factory held back for admission-gated members.
    program: Option<ProgramFactory>,
    /// Machines whose start has been scheduled (= `n` without an
    /// admission ramp).
    admitted: usize,
    /// Latest scheduled start, so ramp releases keep the stagger
    /// spacing.
    last_sched_start: SimTime,
    /// Sim-time SLO watchdogs, evaluated on the fleet sampler tick
    /// (armed with the flight recorder).
    slo: Option<SloEngine>,
    /// Per-machine flight recorders, when enabled: `(spans, sampler)`.
    recorders: Vec<(Spans, Sampler)>,
    /// Fleet-level timeline: server cache/queue state over time.
    fleet_sampler: Sampler,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("n", &self.cfg.n)
            .field("servers", &self.cfg.servers)
            .field("peers", &self.peers_active())
            .field("now", &self.now)
            .field("booted", &self.booted_count())
            .finish()
    }
}

impl Fleet {
    /// Builds the fleet: `n` members via [`Machine::bmcast_fleet`], the
    /// shared fabric with `servers` origin replicas, and the forked PRNG
    /// streams. Deployment is armed by
    /// [`Fleet::start`].
    ///
    /// # Panics
    ///
    /// Panics if `cfg.n` or `cfg.servers` is zero.
    pub fn new(cfg: FleetConfig) -> Fleet {
        assert!(cfg.n >= 1, "a fleet needs at least one machine");
        assert!(cfg.servers >= 1, "a fleet needs at least one server");
        let mut seeds = Prng::new(cfg.seed);
        // Two retired draws (once the switch's and the reply path's loss
        // seeds) keep every member's jitter seed where it was.
        seeds.next_u64();
        seeds.next_u64();

        // Origin replicas: shelf j serves a full copy of the image on
        // its own port. Node 0 keeps the single-server MAC, as on a
        // standalone machine's fabric.
        let mut fabric = Fabric::new(
            cfg.machine_cfg.mtu,
            cfg.egress_queue_cap,
            cfg.faults.clone(),
        );
        for j in 0..cfg.servers {
            let mac = if j == 0 {
                SERVER_MAC
            } else {
                MacAddr::host(256 + j as u16)
            };
            let server = image_server(
                &cfg.machine_cfg,
                cfg.server_cfg.clone(),
                j as u16,
                cfg.spec.image_sectors,
                cfg.spec.image_seed,
            );
            fabric.add_server(mac, server, true);
        }

        let mut machines = Vec::with_capacity(cfg.n);
        for _ in 0..cfg.n {
            let mut m = Machine::bmcast_fleet(&cfg.spec, cfg.machine_cfg.clone());
            // Every member answers to the same shelf/slot, so the
            // default jitter seed would retransmit in lockstep; give
            // each client its own forked stream.
            let jitter_seed = seeds.next_u64();
            if let Some(vmm) = m.vmm.as_mut() {
                vmm.client.reseed_jitter(jitter_seed);
                if cfg.servers > 1 {
                    vmm.client
                        .set_read_endpoints((0..cfg.servers).map(|j| (j as u16, 0)).collect());
                    vmm.client
                        .set_stripe_sectors(cfg.machine_cfg.copy_block_sectors);
                }
            }
            machines.push((m, MachineSim::new()));
        }

        let n = cfg.n;
        let image_seed = cfg.spec.image_seed;
        Fleet {
            cfg,
            machines,
            fabric,
            peer_active: vec![false; n],
            peer_pending: vec![false; n],
            lifecycle: vec![LifecycleStage::Idle; n],
            wave_pending: vec![false; n],
            wave_pending_n: 0,
            park_after_reclaim: vec![false; n],
            lifecycle_mode: false,
            upgrade_queue: VecDeque::new(),
            upgrade_seed: image_seed,
            upgrade_volume_seed: None,
            member_seed: vec![image_seed; n],
            upgrade_seeds: Vec::new(),
            redeploy_done: vec![None; n],
            next_index: BinaryHeap::new(),
            timeline: Timeline::default(),
            fleet_events_executed: 0,
            now: SimTime::ZERO,
            start_at: vec![SimTime::ZERO; n],
            startup: vec![None; n],
            booted_n: 0,
            program: None,
            admitted: 0,
            last_sched_start: SimTime::ZERO,
            slo: None,
            recorders: Vec::new(),
            fleet_sampler: Sampler::disabled(),
        }
    }

    /// Attaches a metrics registry to every member (its own
    /// [`Machine::metrics`], which reclaim re-attaches) and to the
    /// servers and fault injector (a shared fabric registry). Members
    /// get no trace ring: a fleet's events are read from its flight
    /// recorder.
    /// [`Fleet::metrics_snapshot`] still folds everything into one
    /// aggregate (`server.cache.*`, `server.queue.*`,
    /// `machine.frames_tx`, ...), while [`Fleet::fleet_snapshot`] keeps
    /// the per-member attribution. Call before [`Fleet::start`].
    pub fn enable_telemetry(&mut self) {
        for (m, _) in &mut self.machines {
            m.set_telemetry(Metrics::enabled(), Tracer::disabled());
        }
        self.fabric.set_telemetry(Metrics::enabled());
    }

    /// Attaches a flight recorder to every member (its own span store
    /// and timeline sampler, exported as one Perfetto process per
    /// machine by [`Fleet::chrome_trace`]), a span store to the servers,
    /// the fleet-level timeline sampler (server cache hit ratio and
    /// queue depths over time), and the SLO watchdogs, which evaluate on
    /// that sampler's tick. Alert edges land in [`Fleet::alerts`] and in
    /// the fleet timeline's `fleet.alerts` column. Call before
    /// [`Fleet::start`].
    pub fn enable_flight_recorder(&mut self, rec: FlightRecorderConfig) {
        self.recorders.clear();
        for (m, _) in &mut self.machines {
            let spans = Spans::enabled(rec.span_capacity);
            let sampler = Sampler::enabled(rec.sample_interval);
            m.set_flight_recorder(spans.clone(), sampler.clone());
            self.recorders.push((spans, sampler));
        }
        self.fabric.set_spans(Spans::enabled(rec.span_capacity));
        self.fleet_sampler = Sampler::enabled(rec.sample_interval);
        self.slo = Some(SloEngine::new(SloConfig::default()));
    }

    /// All SLO alert edges fired so far, in firing order (empty unless
    /// [`Fleet::enable_flight_recorder`] ran).
    pub fn alerts(&self) -> &[Alert] {
        self.slo.as_ref().map(|s| s.alerts()).unwrap_or(&[])
    }

    /// The SLO engine (armed by [`Fleet::enable_flight_recorder`]).
    pub fn slo(&self) -> Option<&SloEngine> {
        self.slo.as_ref()
    }

    /// Arms every member: installs its guest program (from the factory,
    /// by machine index) and starts deployment and the program at that
    /// member's staggered arrival time (`i * start_stagger`; everyone
    /// at `t = 0` with the default zero stagger), putting the first
    /// fetch burst on the shared fabric. With an admission ramp
    /// ([`FleetConfig::admission_base`]) only the first `base` machines
    /// are released here; the rest are released as peers convert.
    pub fn start(&mut self, program: impl FnMut(usize) -> Box<dyn GuestProgram> + 'static) {
        self.program = Some(Box::new(program));
        let initial = match self.cfg.admission_base {
            0 => self.machines.len(),
            base => base.min(self.machines.len()),
        };
        for _ in 0..initial {
            self.admit_next();
        }
        if self.fleet_sampler.is_enabled() {
            self.record_fleet_sample(SimTime::ZERO);
            let at = SimTime::ZERO + self.fleet_sampler.interval();
            self.timeline.push(at, FleetEvent::Sample);
        }
    }

    /// Releases the next unstarted machine: one stagger interval after
    /// the previously scheduled start, never in the past. The first
    /// machine (release at `t = 0` before the run) starts inline so
    /// its fetch burst hits the fabric exactly as the pre-stagger code
    /// did.
    fn admit_next(&mut self) {
        let i = self.admitted;
        self.admitted += 1;
        let at = if i == 0 {
            SimTime::ZERO
        } else {
            self.now.max(self.last_sched_start + self.cfg.start_stagger)
        };
        self.last_sched_start = at;
        self.start_at[i] = at;
        let program = self
            .program
            .as_mut()
            .expect("start() installed the factory");
        let (m, sim) = &mut self.machines[i];
        m.set_program(program(i));
        if at == SimTime::ZERO && self.now == SimTime::ZERO {
            deploy_member(m, sim);
            self.forward_requests(i, SimTime::ZERO);
        } else {
            // A deferred start is just a machine-sim event: the run
            // loop harvests the fetch burst right after stepping it.
            sim.schedule_at(at, deploy_member);
        }
        self.index_machine(i);
    }

    /// Pushes machine `i`'s current next-event time into the scheduling
    /// index (no-op when its queue is empty). Called wherever a member's
    /// queue head can change from outside its own stepping: after a
    /// step, after a fleet [`FleetEvent::Deliver`], and on admission.
    fn index_machine(&mut self, i: usize) {
        if let Some(t) = self.machines[i].1.next_event_at() {
            self.next_index.push(Reverse((t, i)));
        }
    }

    /// Re-indexes member `i` after [`Fleet::machine_floor`] chose it and
    /// it stepped: its old entry is the index's top, so it is replaced in
    /// place rather than left for the floor to discard.
    fn reindex_stepped(&mut self, i: usize) {
        let next = self.machines[i].1.next_event_at();
        if self.next_index.peek().is_some_and(|top| top.0 .1 == i) {
            let mut top = self.next_index.peek_mut().expect("just peeked");
            match next {
                Some(t) => *top = Reverse((t, i)),
                None => drop(PeekMut::pop(top)),
            }
        } else if let Some(t) = next {
            self.next_index.push(Reverse((t, i)));
        }
    }

    /// The earliest member event as `(time, machine)`, ties broken by
    /// the lowest machine index — the same order the old O(n) per-event
    /// scan produced, at O(log n) amortized. Peeked entries are checked
    /// against the owning sim and stale ones discarded: every head
    /// change goes through [`Fleet::index_machine`], so the entry at a
    /// member's true head time is always present and anything else is
    /// a leftover from a previous head, safe to drop.
    fn machine_floor(&mut self) -> Option<(SimTime, usize)> {
        while let Some(&Reverse((t, i))) = self.next_index.peek() {
            if self.machines[i].1.next_event_at() == Some(t) {
                return Some((t, i));
            }
            self.next_index.pop();
        }
        None
    }

    /// Opens the admission window to `base + per_peer × peers` and
    /// releases newly admitted machines (no-op without a ramp).
    fn admit_ramp(&mut self) {
        if self.cfg.admission_base == 0 {
            return;
        }
        let allowed = (self.cfg.admission_base + self.cfg.admission_per_peer * self.peers_active())
            .min(self.machines.len());
        while self.admitted < allowed {
            self.admit_next();
        }
    }

    /// Runs until every member's guest program has finished (the OS
    /// boot, for the scale-out figure) or `limit` passes. Returns the
    /// per-machine finish times, in machine order (absolute fleet
    /// time; see [`Fleet::startup_durations`] for per-machine elapsed
    /// times under staggered arrivals).
    ///
    /// # Errors
    ///
    /// Returns a [`FleetStall`] carrying per-machine
    /// [`MachineOutcome`]s when the limit passes, the fleet wedges (no
    /// events anywhere), or every unfinished member has surfaced a
    /// terminal [`DeployError`] — the run fails fast instead of
    /// spinning out the clock on machines that can no longer boot.
    pub fn run_to_all_booted(&mut self, limit: SimTime) -> Result<Vec<SimTime>, FleetStall> {
        self.lifecycle_mode = false;
        self.run_loop(limit)?;
        Ok(self.startup.iter().map(|t| t.unwrap()).collect())
    }

    /// Whether member `i` still gates the current run's completion: an
    /// unbooted member during the boot run, a wave-pending member
    /// during a lifecycle wave.
    fn member_pending(&self, i: usize) -> bool {
        if self.lifecycle_mode {
            self.wave_pending[i]
        } else {
            self.startup[i].is_none()
        }
    }

    /// Sets whether member `i` gates the current lifecycle wave.
    fn set_wave_pending(&mut self, i: usize, pending: bool) {
        if self.wave_pending[i] != pending {
            self.wave_pending[i] = pending;
            if pending {
                self.wave_pending_n += 1;
            } else {
                self.wave_pending_n -= 1;
            }
        }
    }

    /// Whether the current run (boot or lifecycle wave) is complete.
    fn run_done(&self) -> bool {
        if self.lifecycle_mode {
            debug_assert_eq!(
                self.wave_pending_n,
                self.wave_pending.iter().filter(|p| **p).count()
            );
            self.wave_pending_n == 0
        } else {
            self.booted_count() == self.machines.len()
        }
    }

    /// The run loop shared by [`Fleet::run_to_all_booted`] and the
    /// lifecycle wave runners: executes the globally earliest event
    /// (fleet first, then members) until [`Fleet::run_done`], the
    /// limit, a wedge, or a fleet where every pending member has
    /// failed terminally.
    fn run_loop(&mut self, limit: SimTime) -> Result<(), FleetStall> {
        // (Re)build the scheduling index: members may have been armed
        // (or a previous run stalled) since it was last current.
        self.next_index.clear();
        for i in 0..self.machines.len() {
            self.index_machine(i);
        }
        loop {
            if self.run_done() {
                return Ok(());
            }
            // The globally earliest event: fleet first, then members in
            // index order — the fixed iteration order that makes the
            // interleave deterministic.
            let fleet_next = self.timeline.next_at();
            let machine_next = self.machine_floor();
            let step_machine = match (fleet_next, machine_next) {
                (None, None) => return Err(self.stall(true, limit)),
                (Some(ft), Some((mt, i))) if mt < ft => Some((mt, i)),
                (Some(ft), _) => {
                    if ft > limit {
                        return Err(self.stall(false, limit));
                    }
                    self.step_fleet();
                    None
                }
                (None, Some((mt, i))) => Some((mt, i)),
            };
            if let Some((t, i)) = step_machine {
                if t > limit {
                    return Err(self.stall(false, limit));
                }
                let errored = self.step_member(i);
                // Fail fast: when every machine still gating the run
                // has failed terminally, no amount of simulated time
                // will finish it.
                if errored {
                    let done_or_dead = self.machines.iter().enumerate().all(|(j, (m, _))| {
                        !self.member_pending(j)
                            || m.deploy_error().is_some()
                            || m.reclaim_error().is_some()
                    });
                    if done_or_dead {
                        return Err(self.stall(false, limit));
                    }
                }
            }
        }
    }

    /// Executes member `i`'s earliest event and its shared-fabric
    /// follow-through. Returns whether the member is in a terminal
    /// deploy or reclaim error.
    fn step_member(&mut self, i: usize) -> bool {
        let (m, sim) = &mut self.machines[i];
        sim.step(m);
        let stepped_to = sim.now();
        self.now = self.now.max(stepped_to);
        self.reindex_stepped(i);
        self.forward_requests(i, stepped_to);
        if self.machines[i].0.guest.finished && self.startup[i].is_none() {
            self.startup[i] = Some(stepped_to);
            self.booted_n += 1;
            // Close this member's timeline at its boot-finish
            // state (no-op when the recorder is off).
            sample_flight_row(&self.machines[i].0, stepped_to);
        }
        if self.cfg.peer_serving
            && !self.peer_active[i]
            && !self.peer_pending[i]
            && self.machines[i].0.deployment_progress() >= 1.0
        {
            self.schedule_peer_activation(i, stepped_to);
        }
        // Lifecycle stage detections: at most one transition per step
        // (the next stage always waits on a fleet event or more member
        // progress).
        match self.lifecycle[i] {
            LifecycleStage::SnapshotBack if self.machines[i].0.snapshot_complete() => {
                self.note_snapshot_done(i, stepped_to);
            }
            LifecycleStage::Reclaiming if self.machines[i].0.phase() != Phase::SnapshotBack => {
                self.note_reclaimed(i, stepped_to);
            }
            LifecycleStage::Redeploying if self.machines[i].0.guest.finished => {
                // Close the redeploy timeline at its boot-finish state
                // (no-op when the recorder is off).
                sample_flight_row(&self.machines[i].0, stepped_to);
                self.note_redeployed(i, stepped_to);
            }
            _ => {}
        }
        self.machines[i].0.deploy_error().is_some() || self.machines[i].0.reclaim_error().is_some()
    }

    /// Member `i`'s snapshot-back completed at `at`: book the reclaim
    /// one fabric lookahead out, like every other control-plane
    /// announcement.
    fn note_snapshot_done(&mut self, i: usize, at: SimTime) {
        self.lifecycle[i] = LifecycleStage::Reclaiming;
        self.timeline
            .push(at + fabric::lookahead(), FleetEvent::Reclaim { machine: i });
    }

    /// Member `i`'s scheduled reclaim executed at `at` (its phase left
    /// [`Phase::SnapshotBack`]): it now runs the next tenant's
    /// deployment, or parks. A parked member frees its wave admission
    /// slot here; a redeploying one frees it when the new image boots.
    fn note_reclaimed(&mut self, i: usize, at: SimTime) {
        self.member_seed[i] = self.upgrade_seed;
        if self.park_after_reclaim[i] {
            self.lifecycle[i] = LifecycleStage::Parked;
            self.set_wave_pending(i, false);
            self.admit_upgrade_next(at);
        } else {
            self.lifecycle[i] = LifecycleStage::Redeploying;
        }
    }

    /// Member `i` finished booting its redeployed image at `at`.
    fn note_redeployed(&mut self, i: usize, at: SimTime) {
        self.lifecycle[i] = LifecycleStage::Done;
        self.redeploy_done[i] = Some(at);
        self.set_wave_pending(i, false);
        self.admit_upgrade_next(at);
    }

    /// Releases the next queued wave member: its
    /// [`FleetEvent::UpgradeStart`] lands one fabric lookahead after
    /// the slot opened, like every other fleet-timeline announcement.
    fn admit_upgrade_next(&mut self, at: SimTime) {
        if let Some(i) = self.upgrade_queue.pop_front() {
            self.timeline.push(
                at + fabric::lookahead(),
                FleetEvent::UpgradeStart { machine: i },
            );
        }
    }

    /// Books the control-plane announcement for member `i`'s completed
    /// copy: the peer activates one fabric lookahead after the bitmap
    /// fills, modeling the time the "peer is serving" state takes to
    /// propagate the rack.
    fn schedule_peer_activation(&mut self, i: usize, at: SimTime) {
        self.peer_pending[i] = true;
        self.timeline.push(
            at + fabric::lookahead(),
            FleetEvent::PeerActivate { machine: i },
        );
    }

    fn stall(&self, wedged: bool, limit: SimTime) -> FleetStall {
        FleetStall {
            at: self.now,
            limit,
            wedged,
            outcomes: self.outcomes(),
        }
    }

    /// Per-machine outcomes at the current instant (index-aligned).
    pub fn outcomes(&self) -> Vec<MachineOutcome> {
        self.machines
            .iter()
            .enumerate()
            .map(|(i, (m, _))| {
                if let Some(at) = self.startup[i] {
                    MachineOutcome::Booted { at }
                } else if let Some(error) = m.deploy_error() {
                    MachineOutcome::Failed { error }
                } else {
                    MachineOutcome::Incomplete {
                        fill: m.deployment_progress(),
                    }
                }
            })
            .collect()
    }

    /// Converts finished machine `i` into a read-only peer server: a
    /// new node exporting the immutable golden image on its own switch
    /// port (guest writes live in the machine's private copy and are
    /// never served), appended to every other machine's read-endpoint
    /// set. Attaching a port draws no randomness, so peer activation
    /// preserves the deterministic interleave.
    fn activate_peer(&mut self, i: usize) {
        self.peer_active[i] = true;
        let shelf = PEER_SHELF_BASE + i as u16;
        // The bitmap is full, so the machine's image copy is complete:
        // the exported store is the same image the member currently
        // holds (the golden seed, or the upgrade seed after a lifecycle
        // wave) by construction.
        let server = image_server(
            &self.cfg.machine_cfg,
            self.cfg.server_cfg.clone(),
            shelf,
            self.cfg.spec.image_sectors,
            self.member_seed[i],
        );
        self.fabric
            .add_server(MacAddr::host(1024 + i as u16), server, false);
        let seed = self.member_seed[i];
        for (j, (m, _)) in self.machines.iter_mut().enumerate() {
            // Only members deploying the *same* image may stripe reads
            // onto this peer — during a rolling upgrade old-image
            // laggards and new-image redeployers coexist on one fabric.
            if j == i || self.member_seed[j] != seed {
                continue;
            }
            if let Some(vmm) = m.vmm.as_mut() {
                vmm.client.add_read_endpoint((shelf, 0));
            }
        }
    }

    /// Retires member `i`'s peer node — the first act of its lifecycle
    /// step, *before* any tenant state changes: the shelf leaves
    /// request routing (in-flight frames to it vanish, clients recover
    /// by retransmit-failover onto their remaining endpoints) and the
    /// endpoint leaves every other machine's read set, so no client
    /// can be handed old-tenant blocks once the image view goes stale.
    /// The node stays on the fabric, unreachable, until the member
    /// serves again and takes its place back (see `Fabric::add_server`).
    fn retire_peer(&mut self, i: usize) {
        self.peer_pending[i] = false;
        if !self.peer_active[i] {
            return;
        }
        self.peer_active[i] = false;
        let shelf = PEER_SHELF_BASE + i as u16;
        self.fabric.retire_shelf(shelf);
        for (j, (m, _)) in self.machines.iter_mut().enumerate() {
            if j == i {
                continue;
            }
            if let Some(vmm) = m.vmm.as_mut() {
                vmm.client.remove_read_endpoint((shelf, 0));
            }
        }
    }

    /// Begins member `i`'s lifecycle wave step: retire its peer first,
    /// then (inside the member's own sim) point its writes at its
    /// archive volume and start re-virtualization.
    fn upgrade_start(&mut self, i: usize, t: SimTime) {
        self.retire_peer(i);
        self.lifecycle[i] = LifecycleStage::SnapshotBack;
        let slot = ARCHIVE_SLOT_BASE + i as u8;
        let (_, sim) = &mut self.machines[i];
        sim.schedule_at(t, move |m: &mut Machine, sim| arm_revirt(m, sim, slot));
        self.index_machine(i);
    }

    /// Member `i`'s snapshot-back completed: reset the machine for the
    /// next tenant. The reset, the endpoint re-pointing to the
    /// [`UPGRADE_SLOT`] replicas, and (unless parking) the
    /// redeployment all run inside the member's own sim at `t`.
    fn reclaim_member(&mut self, i: usize, t: SimTime) {
        let park = self.park_after_reclaim[i];
        let jitter_seed = self.upgrade_seeds[i];
        let mut spec = self.cfg.spec.clone();
        spec.image_seed = self.upgrade_seed;
        let servers = self.cfg.servers as u16;
        let stripe = self.cfg.machine_cfg.copy_block_sectors;
        let program = if park {
            None
        } else {
            let factory = self
                .program
                .as_mut()
                .expect("start() installed the factory");
            Some(factory(i))
        };
        let (_, sim) = &mut self.machines[i];
        sim.schedule_at(t, move |m: &mut Machine, sim| {
            if reclaim(m, sim, &spec).is_err() {
                // Surfaced through `Machine::reclaim_error` — the run
                // loop fails fast on it.
                return;
            }
            if let Some(vmm) = m.vmm.as_mut() {
                vmm.client.reseed_jitter(jitter_seed);
                vmm.client
                    .set_read_endpoints((0..servers).map(|j| (j, UPGRADE_SLOT)).collect());
                vmm.client.set_stripe_sectors(stripe);
            }
            if let Some(program) = program {
                m.set_program(program);
                deploy_member(m, sim);
            }
        });
        self.index_machine(i);
    }

    /// Exports the [`UPGRADE_SLOT`] volume (the `seed` image) on every
    /// origin replica, once — a second wave must carry the same image.
    fn export_upgrade_volume(&mut self, seed: u64) {
        match self.upgrade_volume_seed {
            None => {
                let sectors = self.cfg.spec.image_sectors;
                for server in self.fabric.origins_mut() {
                    server.add_volume(UPGRADE_SLOT, image_disk(sectors, seed));
                }
                self.upgrade_volume_seed = Some(seed);
            }
            Some(s) => assert_eq!(
                s, seed,
                "the upgrade volume is already exported with a different image"
            ),
        }
    }

    /// Arms a snapshot wave over `members`: exports the upgrade volume
    /// (unless every member parks) and one archive volume per member
    /// (slot `ARCHIVE_SLOT_BASE + i` on origin 0, a replica of that
    /// member's *current* image — snapshot-back overwrites its dirty
    /// blocks, leaving the departing tenant's exact final disk state),
    /// then admits the first `batch` members. At most `batch` are out
    /// of service at once; the next starts one fabric lookahead after
    /// a predecessor parks or finishes booting.
    fn begin_wave(&mut self, members: Vec<usize>, new_seed: u64, batch: usize, park: bool) {
        assert!(batch >= 1, "a wave needs at least one machine in flight");
        assert!(!members.is_empty(), "a wave needs at least one member");
        assert!(
            self.machines.len() <= (u8::MAX - ARCHIVE_SLOT_BASE) as usize + 1,
            "archive volumes are addressed by 8-bit AoE slots"
        );
        self.lifecycle_mode = true;
        self.upgrade_seed = new_seed;
        // Fork the post-reclaim jitter reseeds up front: admission
        // order is deterministic, but forking per completion would tie
        // the stream to detection timing.
        let mut seeds = Prng::new(self.cfg.seed ^ new_seed.rotate_left(17));
        self.upgrade_seeds = (0..self.machines.len()).map(|_| seeds.next_u64()).collect();
        if !park {
            self.export_upgrade_volume(new_seed);
        }
        let archives: Vec<(usize, DiskModel)> = members
            .iter()
            .map(|&i| {
                (
                    i,
                    image_disk(self.cfg.spec.image_sectors, self.member_seed[i]),
                )
            })
            .collect();
        for (i, disk) in archives {
            assert!(
                matches!(
                    self.lifecycle[i],
                    LifecycleStage::Idle | LifecycleStage::Done
                ),
                "machine {i} cannot start a snapshot wave from {:?}",
                self.lifecycle[i]
            );
            let slot = ARCHIVE_SLOT_BASE + i as u8;
            assert!(
                !self.fabric.server().serves_slot(slot),
                "machine {i} already archived this run (one snapshot wave per member)"
            );
            self.fabric.server_mut().add_volume(slot, disk);
            self.lifecycle[i] = LifecycleStage::Queued;
            self.set_wave_pending(i, true);
            self.park_after_reclaim[i] = park;
            self.redeploy_done[i] = None;
        }
        self.upgrade_queue = members.into_iter().collect();
        for _ in 0..batch.min(self.upgrade_queue.len()) {
            self.admit_upgrade_next(self.now);
        }
        self.rearm_fleet_sampler();
    }

    /// Restarts the fleet-timeline sampler chain for a new run (the
    /// boot run's chain stops when its completion predicate holds).
    fn rearm_fleet_sampler(&mut self) {
        if self.fleet_sampler.is_enabled()
            && !self
                .timeline
                .events
                .iter()
                .any(|Reverse(t)| matches!(t.event, FleetEvent::Sample))
        {
            self.timeline
                .push(self.now + self.fleet_sampler.interval(), FleetEvent::Sample);
        }
    }

    /// Rolling image upgrade across every member, under bounded
    /// concurrency: each machine in turn retires its peer (if any),
    /// re-virtualizes, streams its dirty blocks to its archive volume,
    /// is reclaimed, and redeploys the `new_seed` image from the
    /// [`UPGRADE_SLOT`] replicas — with at most `batch` machines out
    /// of service at any instant (the lifecycle analogue of the
    /// admission ramp). Returns per-machine redeploy boot-finish
    /// instants, in member order. Call after
    /// [`Fleet::run_to_all_booted`].
    pub fn run_rolling_upgrade(
        &mut self,
        new_seed: u64,
        batch: usize,
        program: impl FnMut(usize) -> Box<dyn GuestProgram> + 'static,
        limit: SimTime,
    ) -> Result<Vec<SimTime>, FleetStall> {
        let members: Vec<usize> = (0..self.machines.len()).collect();
        self.run_upgrade_wave(&members, new_seed, batch, program, limit)?;
        Ok(self.redeploy_done.iter().map(|t| t.unwrap()).collect())
    }

    /// [`Fleet::run_rolling_upgrade`] over a member subset — the rest
    /// of the fleet keeps running (serving, deploying) while the wave
    /// cycles only `members` through snapshot-back and redeploy.
    pub fn run_upgrade_wave(
        &mut self,
        members: &[usize],
        new_seed: u64,
        batch: usize,
        program: impl FnMut(usize) -> Box<dyn GuestProgram> + 'static,
        limit: SimTime,
    ) -> Result<Vec<SimTime>, FleetStall> {
        self.program = Some(Box::new(program));
        self.begin_wave(members.to_vec(), new_seed, batch, false);
        self.run_loop(limit)?;
        Ok(members
            .iter()
            .map(|&i| self.redeploy_done[i].unwrap())
            .collect())
    }

    /// Scale-down wave: re-virtualize, snapshot-back, and reclaim
    /// `members`, then hold them empty ([`LifecycleStage::Parked`]) —
    /// their tenants' final disk states live on in the archive
    /// volumes, ready to hand the hardware to new tenants later
    /// ([`Fleet::run_scale_up`]).
    pub fn run_scale_down(
        &mut self,
        members: &[usize],
        batch: usize,
        limit: SimTime,
    ) -> Result<(), FleetStall> {
        // Parked machines get no image; the seed is a placeholder for
        // the reclaimed (empty) disk's mirror bookkeeping.
        self.begin_wave(members.to_vec(), self.cfg.spec.image_seed, batch, true);
        self.run_loop(limit)
    }

    /// Scale-up wave: redeploys previously [`LifecycleStage::Parked`]
    /// members with the `new_seed` image (from the [`UPGRADE_SLOT`]
    /// replicas) and a fresh guest program. All `members` release
    /// together, one fabric lookahead out — parked machines hold no
    /// tenant, so there is nothing to drain first. Returns their boot
    /// instants in `members` order.
    pub fn run_scale_up(
        &mut self,
        members: &[usize],
        new_seed: u64,
        mut program: impl FnMut(usize) -> Box<dyn GuestProgram> + 'static,
        limit: SimTime,
    ) -> Result<Vec<SimTime>, FleetStall> {
        self.lifecycle_mode = true;
        self.upgrade_seed = new_seed;
        self.export_upgrade_volume(new_seed);
        let servers = self.cfg.servers as u16;
        let stripe = self.cfg.machine_cfg.copy_block_sectors;
        let at = self.now + fabric::lookahead();
        for &i in members {
            assert_eq!(
                self.lifecycle[i],
                LifecycleStage::Parked,
                "machine {i} is not parked"
            );
            self.lifecycle[i] = LifecycleStage::Redeploying;
            self.set_wave_pending(i, true);
            self.redeploy_done[i] = None;
            self.member_seed[i] = new_seed;
            let boxed = program(i);
            let (_, sim) = &mut self.machines[i];
            sim.schedule_at(at, move |m: &mut Machine, sim| {
                if let Some(vmm) = m.vmm.as_mut() {
                    // The parked reclaim already pointed reads at the
                    // upgrade replicas; repoint in case the parked
                    // wave ran under a different server count.
                    vmm.client
                        .set_read_endpoints((0..servers).map(|j| (j, UPGRADE_SLOT)).collect());
                    vmm.client.set_stripe_sectors(stripe);
                }
                m.set_program(boxed);
                deploy_member(m, sim);
            });
            self.index_machine(i);
        }
        self.rearm_fleet_sampler();
        self.run_loop(limit)?;
        Ok(members
            .iter()
            .map(|&i| self.redeploy_done[i].unwrap())
            .collect())
    }

    /// Member `i`'s lifecycle stage.
    pub fn lifecycle_stage(&self, i: usize) -> LifecycleStage {
        self.lifecycle[i]
    }

    /// Machine `i`'s archive volume (origin 0, slot
    /// `ARCHIVE_SLOT_BASE + i`): after its snapshot-back, the departing
    /// tenant's final disk state. `None` before any wave archived it.
    pub fn archive_volume(&self, i: usize) -> Option<&DiskModel> {
        self.fabric.server().volume(ARCHIVE_SLOT_BASE + i as u8)
    }

    /// Per-member redeploy boot-finish instants for the current wave
    /// (index-aligned; `None` for members not redeployed).
    pub fn redeploy_times(&self) -> &[Option<SimTime>] {
        &self.redeploy_done
    }

    /// Pops and executes the earliest fleet event.
    fn step_fleet(&mut self) {
        let Some((t, event)) = self.timeline.pop() else {
            return;
        };
        self.now = self.now.max(t);
        self.fleet_events_executed += 1;
        match event {
            FleetEvent::Fabric(event) => {
                let delivered = self.fabric.fire(t, event, &mut |at, e| {
                    self.timeline.push(at, FleetEvent::Fabric(e))
                });
                if let Some((machine, payload)) = delivered {
                    let (_, sim) = &mut self.machines[machine];
                    sim.schedule_at(t, move |m: &mut Machine, sim| {
                        vmm_nic_rx(m, sim, payload);
                    });
                    self.index_machine(machine);
                }
            }
            FleetEvent::PeerActivate { machine } => {
                self.peer_pending[machine] = false;
                // A member pulled into a lifecycle wave must not start
                // serving: its image view is (or is about to go)
                // stale. Idle and Done members hold a complete, current
                // image and may serve it.
                if matches!(
                    self.lifecycle[machine],
                    LifecycleStage::Idle | LifecycleStage::Done
                ) {
                    self.activate_peer(machine);
                    self.admit_ramp();
                }
            }
            FleetEvent::UpgradeStart { machine } => self.upgrade_start(machine, t),
            FleetEvent::Reclaim { machine } => self.reclaim_member(machine, t),
            FleetEvent::Sample => {
                self.record_fleet_sample(t);
                if !self.run_done() {
                    let at = t + self.fleet_sampler.interval();
                    self.timeline.push(at, FleetEvent::Sample);
                }
            }
        }
    }

    /// Drains machine `i`'s NIC TX ring onto the shared fabric at `now`
    /// (after every step of that machine, so frames leave at the same
    /// instant a standalone machine's in-event pump sends them).
    fn forward_requests(&mut self, i: usize, now: SimTime) {
        while let Some(frame) = pop_vmm_tx(&mut self.machines[i].0) {
            self.fabric.forward(now, i, frame.payload, &mut |at, e| {
                self.timeline.push(at, FleetEvent::Fabric(e))
            });
        }
    }

    /// Projected p99 boot time in seconds: nearest-rank p99 over every
    /// admitted member's boot duration — final for booted members, the
    /// running elapsed time (a lower bound on the final duration) for
    /// members still booting. Deterministic, and monotone enough for
    /// the boot-budget watchdog to fire while the run is still going.
    fn projected_p99_s(&self, now: SimTime) -> f64 {
        let mut proj: Vec<f64> = (0..self.admitted.min(self.machines.len()))
            .map(|i| {
                let done = self.startup[i].unwrap_or(now);
                done.saturating_duration_since(self.start_at[i])
                    .as_secs_f64()
            })
            .collect();
        if proj.is_empty() {
            return 0.0;
        }
        proj.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
        let n = proj.len();
        proj[(((0.99 * n as f64).ceil() as usize).clamp(1, n)) - 1]
    }

    fn record_fleet_sample(&mut self, now: SimTime) {
        if !self.fleet_sampler.is_enabled() {
            return;
        }
        let min_fill = self
            .machines
            .iter()
            .map(|(m, _)| m.deployment_progress())
            .fold(1.0f64, f64::min);
        let sum = |f: fn(&AoeServer) -> u64| self.fabric.servers().map(f).sum::<u64>();
        let hits = sum(AoeServer::cache_hits);
        let misses = sum(AoeServer::cache_misses);
        let hit_ratio = self.cache_hit_ratio();
        // SLO watchdogs: evaluated here, on the fleet timeline.
        let mut active_alerts = 0.0;
        let projected_p99_s = self.projected_p99_s(now);
        if let Some(slo) = self.slo.as_mut() {
            let retransmits_total = self
                .machines
                .iter()
                .map(|(m, _)| m.vmm.as_ref().map(|v| v.client.retransmits()).unwrap_or(0))
                .sum::<u64>();
            let fill_progress = self
                .machines
                .iter()
                .map(|(m, _)| m.deployment_progress())
                .sum::<f64>()
                + self.booted_n as f64;
            let input = SloInput {
                at: now,
                retransmits_total,
                cache_hits: hits,
                cache_misses: misses,
                fill_progress,
                machines_booted: self.booted_n as u64,
                machines_started: (0..self.admitted)
                    .filter(|&i| self.start_at[i] <= now)
                    .count() as u64,
                machines_total: self.machines.len() as u64,
                projected_p99_s,
            };
            slo.evaluate(&input);
            active_alerts = slo.active_count() as f64;
        }
        self.fleet_sampler.record_row(
            now,
            vec![
                ("server.cache.hit_ratio", hit_ratio),
                ("server.cache.hits", hits as f64),
                ("server.cache.misses", misses as f64),
                (
                    "server.cache.evictions",
                    sum(AoeServer::cache_evictions) as f64,
                ),
                (
                    "server.queue.total",
                    self.fabric
                        .servers()
                        .map(AoeServer::queued_total)
                        .sum::<usize>() as f64,
                ),
                (
                    "server.queue.max_client",
                    self.fabric
                        .servers()
                        .map(AoeServer::max_client_queue_depth)
                        .max()
                        .unwrap_or(0) as f64,
                ),
                ("server.queue.drops", sum(AoeServer::queue_drops) as f64),
                ("server.queue.dedups", sum(AoeServer::queue_dedups) as f64),
                ("server.busy_replies", sum(AoeServer::busy_replies) as f64),
                ("fleet.machines_booted", self.booted_count() as f64),
                ("fleet.min_fill_pct", min_fill * 100.0),
                ("fleet.peers_active", self.peers_active() as f64),
                ("fleet.alerts", active_alerts),
            ],
        );
    }

    /// Total events executed so far: the fleet's own timeline plus
    /// every member simulation — the denominator behind the bench
    /// harness's events/second figure. Timer ticks that do nothing (the
    /// writer waiting for an idle window, a gated retriever, an empty
    /// retransmit round; see `simkit::Sim::arm`) are skipped, not
    /// executed, so they are not counted and the host cost per counted
    /// event is higher than when every tick was an event.
    pub fn events_executed(&self) -> u64 {
        self.fleet_events_executed
            + self
                .machines
                .iter()
                .map(|(_, sim)| sim.executed_events())
                .sum::<u64>()
    }

    /// How many members have finished their guest program.
    pub fn booted_count(&self) -> usize {
        debug_assert_eq!(
            self.booted_n,
            self.startup.iter().filter(|t| t.is_some()).count()
        );
        self.booted_n
    }

    /// Per-machine boot-finish times (index-aligned; `None` while a
    /// member is still booting).
    pub fn startup_times(&self) -> &[Option<SimTime>] {
        &self.startup
    }

    /// Per-machine deployment start instants (all zero unless
    /// [`FleetConfig::start_stagger`] is set).
    pub fn start_times(&self) -> &[SimTime] {
        &self.start_at
    }

    /// Per-machine elapsed boot times: finish minus that machine's own
    /// (possibly staggered) start. `None` while a member is still
    /// booting.
    pub fn startup_durations(&self) -> Vec<Option<SimDuration>> {
        self.startup
            .iter()
            .zip(&self.start_at)
            .map(|(f, s)| f.map(|f| f.saturating_duration_since(*s)))
            .collect()
    }

    /// The primary storage server (origin replica 0: cache and
    /// scheduler counters).
    pub fn server(&self) -> &AoeServer {
        self.fabric.server()
    }

    /// How many members have converted into read-only serving peers.
    pub fn peers_active(&self) -> usize {
        self.peer_active.iter().filter(|p| **p).count()
    }

    /// Aggregate cache hit ratio across every server node.
    pub fn cache_hit_ratio(&self) -> f64 {
        let hits: u64 = self.fabric.servers().map(AoeServer::cache_hits).sum();
        let misses: u64 = self.fabric.servers().map(AoeServer::cache_misses).sum();
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }

    /// Total queue-full drops across every server node (the figure's
    /// "zero drops at the target scale" check).
    pub fn queue_drops_total(&self) -> u64 {
        self.fabric.servers().map(AoeServer::queue_drops).sum()
    }

    /// Counters of the shared-fabric fault injector (`None` when the
    /// fleet runs without a [`FleetConfig::faults`] plan) — the
    /// survivability rows' witness that a fault class actually fired.
    pub fn fault_counters(&self) -> Option<FaultCounters> {
        self.fabric.fault_counters()
    }

    /// Member `i`.
    pub fn machine(&self, i: usize) -> &Machine {
        &self.machines[i].0
    }

    /// Member `i`'s simulator.
    pub fn member_sim(&self, i: usize) -> &MachineSim {
        &self.machines[i].1
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// Whether the fleet has no members (never true — construction
    /// requires `n >= 1`).
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }

    /// Current fleet-wide virtual time (the latest executed event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total bytes every server node put on the wire (reads served,
    /// cache hits included): the scale-out figure's "aggregate bytes
    /// moved".
    pub fn server_bytes_read(&self) -> u64 {
        self.fabric
            .servers()
            .map(|server| server.sectors_read() * 512)
            .sum()
    }

    /// Aggregate metrics snapshot (`None` unless
    /// [`Fleet::enable_telemetry`] ran): the fabric registry merged
    /// with every member registry in member order. Server cache and
    /// queue gauges are included — `server.cache.{hits,misses,evictions}`,
    /// `server.queue.{total,max_client}` — so the snapshot alone tells
    /// the scale-out story.
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        let mut snap = self.fabric.metrics().snapshot()?;
        for (m, _) in &self.machines {
            if let Some(ms) = m.metrics.snapshot() {
                snap.merge(&ms);
            }
        }
        Some(snap)
    }

    /// One namespaced fleet-wide snapshot (`None` unless
    /// [`Fleet::enable_telemetry`] ran), folded in canonical member
    /// order: fabric-side series keep their plain names, each member's
    /// registry is preserved under `machine.{i}.`, the member aggregate
    /// rides under `fleet.`, and computed fleet state (booted count,
    /// active peers, the boot-time distribution in µs) is added as
    /// `fleet.machines_booted` / `fleet.peers_active` /
    /// `fleet.startup_us`. Merge order is the fixed member index order,
    /// never completion order, so any two same-seed runs produce
    /// byte-identical JSON.
    pub fn fleet_snapshot(&self) -> Option<MetricsSnapshot> {
        let mut out = self.fabric.metrics().snapshot()?;
        let mut aggregate = MetricsSnapshot::default();
        for (i, (m, _)) in self.machines.iter().enumerate() {
            if let Some(ms) = m.metrics.snapshot() {
                out.merge(&ms.namespaced(&format!("machine.{i}.")));
                aggregate.merge(&ms);
            }
        }
        out.merge(&aggregate.namespaced("fleet."));
        let mut startup_us = LogHistogram::new();
        for d in self.startup_durations().into_iter().flatten() {
            startup_us.observe(d.as_nanos() / 1_000);
        }
        out.histograms.insert("fleet.startup_us".into(), startup_us);
        out.gauges
            .insert("fleet.machines_booted".into(), self.booted_count() as i64);
        out.gauges
            .insert("fleet.peers_active".into(), self.peers_active() as i64);
        Some(out)
    }

    /// One member's attribution row. `median_rtt_mean_us` is the
    /// fleet-median per-read round trip the queueing-excess estimate is
    /// normalized against.
    fn attribution_row(&self, i: usize, median_rtt_mean_us: f64) -> StragglerRow {
        let boot_s = self.startup[i]
            .map(|f| f.saturating_duration_since(self.start_at[i]).as_secs_f64())
            .unwrap_or(0.0);
        let kinds = self.recorders[i].0.kind_histograms();
        let kind = |name: &str| {
            kinds
                .iter()
                .find(|(k, _)| *k == name)
                .map(|(_, h)| h.clone())
                .unwrap_or_default()
        };
        let rtt = kind("aoe.rtt");
        let rtt_total_s = rtt.sum() as f64 / 1e6;
        let snap = self.machines[i].0.metrics.snapshot().unwrap_or_default();
        let reads = snap.counter("aoe.client.reads");
        let busy_hints = snap.counter("aoe.client.busy_hints");
        let expected_rtt_s = reads as f64 * median_rtt_mean_us / 1e6;
        let (mut peer_reads, mut origin_reads) = (0u64, 0u64);
        if let Some(vmm) = self.machines[i].0.vmm.as_ref() {
            for (shelf, n) in vmm.client.reads_by_shelf() {
                if *shelf >= PEER_SHELF_BASE {
                    peer_reads += n;
                } else {
                    origin_reads += n;
                }
            }
        }
        // The initialization span starts at global ZERO; subtract the
        // member's admission offset so init measures time after its
        // own power-on, not the staggered arrival wait.
        let start_offset_s = self.start_at[i].as_secs_f64();
        StragglerRow {
            machine: i,
            boot_s,
            init_s: (kind("phase.initialization").sum() as f64 / 1e6 - start_offset_s).max(0.0),
            deploy_s: kind("phase.deployment").sum() as f64 / 1e6,
            devirt_s: kind("phase.devirtualization").sum() as f64 / 1e6,
            rtt_total_s,
            rtt_mean_us: rtt.mean(),
            reads,
            retransmits: snap.counter("aoe.client.retransmits"),
            busy_hints,
            budget_holds: snap.counter("aoe.client.budget_holds"),
            busy_backoff_s: busy_hints as f64
                * self
                    .cfg
                    .machine_cfg
                    .moderation
                    .server_busy_backoff
                    .as_secs_f64(),
            queue_excess_s: (rtt_total_s - expected_rtt_s).max(0.0),
            peer_reads,
            origin_reads,
        }
    }

    /// The straggler attribution report: decomposes the slowest decile
    /// of booted members' boot times into phase spans, AoE round-trip
    /// and queueing shares, retransmit and busy-backoff costs, and the
    /// peer-vs-origin read mix, with the fleet-median member as the
    /// baseline. `None` unless both [`Fleet::enable_telemetry`] and
    /// [`Fleet::enable_flight_recorder`] ran, or before any member
    /// boots.
    pub fn straggler_attribution(&self) -> Option<StragglerReport> {
        if !self.fabric.metrics().is_enabled() || self.recorders.is_empty() {
            return None;
        }
        // Booted members, slowest elapsed boot first, ties by index —
        // a total order, so the decile cut is deterministic.
        let mut booted: Vec<(usize, f64)> = self
            .startup_durations()
            .into_iter()
            .enumerate()
            .filter_map(|(i, d)| d.map(|d| (i, d.as_secs_f64())))
            .collect();
        if booted.is_empty() {
            return None;
        }
        booted.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("durations are finite")
                .then(a.0.cmp(&b.0))
        });
        // Fleet-median per-read RTT, for the queueing-excess baseline.
        let mut rtt_means: Vec<f64> = booted
            .iter()
            .map(|&(i, _)| {
                self.recorders[i]
                    .0
                    .kind_histograms()
                    .iter()
                    .find(|(k, _)| *k == "aoe.rtt")
                    .map(|(_, h)| h.mean())
                    .unwrap_or(0.0)
            })
            .collect();
        rtt_means.sort_by(|a, b| a.partial_cmp(b).expect("means are finite"));
        let median_rtt_mean_us = rtt_means[rtt_means.len() / 2];

        let decile = booted.len().div_ceil(10);
        let stragglers = booted[..decile]
            .iter()
            .map(|&(i, _)| self.attribution_row(i, median_rtt_mean_us))
            .collect();
        let median_member = booted[booted.len() / 2].0;
        Some(StragglerReport {
            stragglers,
            median: self.attribution_row(median_member, median_rtt_mean_us),
            booted: booted.len(),
        })
    }

    /// The fleet-level timeline sampler (enabled by
    /// [`Fleet::enable_flight_recorder`]).
    pub fn fleet_sampler(&self) -> &Sampler {
        &self.fleet_sampler
    }

    /// Per-machine `(spans, sampler)` recorders (empty unless
    /// [`Fleet::enable_flight_recorder`] ran).
    pub fn recorders(&self) -> &[(Spans, Sampler)] {
        &self.recorders
    }

    /// Exports the whole fleet as one Chrome trace: one Perfetto
    /// process per machine (named `machine<i>`) plus a `fleet` process
    /// carrying the servers' spans and the fleet timeline.
    pub fn chrome_trace(&self) -> String {
        let mut names: Vec<String> = Vec::new();
        let mut processes = Vec::new();
        for (i, (spans, sampler)) in self.recorders.iter().enumerate() {
            names.push(format!("machine{i}"));
            processes.push((spans.finished(), sampler.rows()));
        }
        names.push("fleet".to_string());
        processes.push((self.fabric.spans().finished(), self.fleet_sampler.rows()));
        let refs: Vec<(&str, &[Span], &[SampleRow])> = names
            .iter()
            .zip(&processes)
            .map(|(n, (s, r))| (n.as_str(), s.as_slice(), r.as_slice()))
            .collect();
        simkit::export::chrome_trace_json_multi(&refs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::BootProgram;
    use guestsim::os::BootProfile;

    fn small_cfg(n: usize) -> FleetConfig {
        FleetConfig {
            n,
            spec: MachineSpec {
                capacity_sectors: (1u64 << 28) / 512,
                image_sectors: (1u64 << 27) / 512,
                ..MachineSpec::default()
            },
            ..FleetConfig::default()
        }
    }

    fn boot_fleet(cfg: FleetConfig) -> (Fleet, Vec<SimTime>) {
        let mut fleet = Fleet::new(cfg);
        fleet.start(|_| Box::new(BootProgram::new(BootProfile::tiny(7))));
        let startups = fleet
            .run_to_all_booted(SimTime::from_secs(3600))
            .expect("fleet boots");
        (fleet, startups)
    }

    #[test]
    fn a_pair_boots_and_the_follower_hits_the_cache() {
        let (fleet, startups) = boot_fleet(small_cfg(2));
        assert_eq!(startups.len(), 2);
        assert!(fleet.server().cache_hits() > 0, "second machine should hit");
        assert!(fleet.server_bytes_read() > 0);
    }

    #[test]
    fn same_seed_runs_are_event_for_event_identical() {
        let (fleet_a, a) = boot_fleet(small_cfg(3));
        let (fleet_b, b) = boot_fleet(small_cfg(3));
        assert_eq!(a, b);
        assert_eq!(fleet_a.server().cache_hits(), fleet_b.server().cache_hits());
        assert_eq!(fleet_a.server().requests(), fleet_b.server().requests());
    }

    #[test]
    fn different_seeds_still_boot() {
        let mut cfg = small_cfg(2);
        cfg.seed = 42;
        let (_, startups) = boot_fleet(cfg);
        assert_eq!(startups.len(), 2);
    }

    #[test]
    fn two_servers_split_the_read_stream() {
        let mut cfg = small_cfg(2);
        cfg.servers = 2;
        let (fleet, startups) = boot_fleet(cfg);
        assert_eq!(startups.len(), 2);
        let shards: Vec<u64> = fleet.fabric.servers().map(AoeServer::requests).collect();
        let (shard0, shard1) = (shards[0], shards[1]);
        assert!(shard0 > 0, "replica 0 saw traffic");
        assert!(shard1 > 0, "replica 1 saw traffic");
        // Striping by LBA keeps the shards within the same order of
        // magnitude (no writes occur, so no primary skew either).
        let (lo, hi) = (shard0.min(shard1), shard0.max(shard1));
        assert!(
            hi < lo * 4,
            "striping balances shards: {shard0} vs {shard1}"
        );
    }

    #[test]
    fn sharded_runs_are_deterministic_too() {
        let mut cfg = small_cfg(3);
        cfg.servers = 2;
        let (fleet_a, a) = boot_fleet(cfg.clone());
        let (fleet_b, b) = boot_fleet(cfg);
        assert_eq!(a, b);
        assert_eq!(fleet_a.server().requests(), fleet_b.server().requests());
    }

    #[test]
    fn peer_serving_activates_finished_machines_as_servers() {
        let mut cfg = small_cfg(3);
        cfg.peer_serving = true;
        // Stagger arrivals so the first machine's deployment finishes
        // while later ones still fetch — otherwise DRR fairness makes
        // everyone finish together and nobody gets served by a peer.
        cfg.start_stagger = SimDuration::from_secs(20);
        cfg.machine_cfg.moderation.post_boot_sprint = true;
        let (fleet, startups) = boot_fleet(cfg);
        assert_eq!(startups.len(), 3);
        // The run ends when the *last* machine boots — its own copy is
        // still filling then, so not every member converts. The early
        // finishers must have.
        assert!(
            fleet.peers_active() >= 1,
            "an early finisher converted into a peer"
        );
        // Peer nodes follow the origin replicas.
        let peer_requests: u64 = fleet
            .fabric
            .servers()
            .skip(fleet.cfg.servers)
            .map(AoeServer::requests)
            .sum();
        assert!(peer_requests > 0, "peers actually served reads");
        assert_eq!(fleet.queue_drops_total(), 0);
    }

    #[test]
    fn peer_serving_runs_are_deterministic() {
        let mut cfg = small_cfg(2);
        cfg.peer_serving = true;
        cfg.start_stagger = SimDuration::from_secs(20);
        cfg.machine_cfg.moderation.post_boot_sprint = true;
        let (fleet_a, a) = boot_fleet(cfg.clone());
        let (fleet_b, b) = boot_fleet(cfg);
        assert_eq!(a, b);
        assert_eq!(fleet_a.peers_active(), fleet_b.peers_active());
        assert_eq!(fleet_a.server_bytes_read(), fleet_b.server_bytes_read());
    }

    #[test]
    fn admission_ramp_releases_machines_as_peers_convert() {
        let mut cfg = small_cfg(4);
        cfg.peer_serving = true;
        cfg.machine_cfg.moderation.post_boot_sprint = true;
        cfg.start_stagger = SimDuration::from_millis(50);
        cfg.admission_base = 1;
        cfg.admission_per_peer = 4;
        let (fleet, _) = boot_fleet(cfg.clone());
        // Machine 0 is released at t = 0; 1..3 only once it converts —
        // long after the 50 ms stagger grid would have started them.
        let starts = fleet.start_times();
        assert_eq!(starts[0], SimTime::ZERO);
        for (i, &s) in starts.iter().enumerate().skip(1) {
            assert!(
                s > SimTime::ZERO + SimDuration::from_secs(1),
                "machine {i} released at {s:?}, before any peer existed"
            );
        }
        // Ramp releases keep the stagger spacing.
        assert!(starts[2].saturating_duration_since(starts[1]) >= SimDuration::from_millis(50));
        assert!(fleet.peers_active() >= 1);

        // Ramped fleets stay deterministic: admissions are driven by
        // conversion events, not wall clock.
        let (_, a) = boot_fleet(cfg.clone());
        let (_, b) = boot_fleet(cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn staggered_startup_durations_subtract_each_machines_start() {
        let mut cfg = small_cfg(2);
        cfg.start_stagger = SimDuration::from_secs(5);
        let (fleet, startups) = boot_fleet(cfg);
        assert_eq!(
            fleet.start_times()[1],
            SimTime::ZERO + SimDuration::from_secs(5)
        );
        let durations = fleet.startup_durations();
        let d1 = durations[1].expect("machine 1 booted");
        assert_eq!(
            d1,
            startups[1].saturating_duration_since(fleet.start_times()[1])
        );
    }

    #[test]
    fn timeout_reports_per_machine_outcomes() {
        let mut fleet = Fleet::new(small_cfg(2));
        fleet.start(|_| Box::new(BootProgram::new(BootProfile::tiny(7))));
        // Far too short for a 128 MB image over a gigabit fabric.
        let err = fleet
            .run_to_all_booted(SimTime::ZERO + SimDuration::from_millis(50))
            .expect_err("cannot boot in 50 ms");
        assert!(!err.wedged);
        assert_eq!(err.outcomes.len(), 2);
        for o in &err.outcomes {
            match o {
                MachineOutcome::Incomplete { fill } => assert!(*fill < 1.0),
                other => panic!("expected Incomplete, got {other:?}"),
            }
        }
        let text = err.to_string();
        assert!(text.contains("0/2 booted"), "display summarizes: {text}");
        assert!(
            text.contains("least filled"),
            "display names a laggard: {text}"
        );
    }

    #[test]
    fn chaos_fleet_is_deterministic_and_recovers() {
        let mut cfg = small_cfg(2);
        cfg.faults = FaultPlan::preset("chaos", 7);
        let (fleet_a, a) = boot_fleet(cfg.clone());
        let (fleet_b, b) = boot_fleet(cfg);
        assert_eq!(a, b, "chaos runs with one seed must agree");
        assert_eq!(fleet_a.server().requests(), fleet_b.server().requests());
        let counters = fleet_a.fault_counters().expect("plan installed");
        assert!(
            counters.link_dropped
                + counters.link_corrupted
                + counters.link_duplicated
                + counters.server_dropped
                > 0,
            "the chaos plan actually fired"
        );
    }

    /// Small-image geometry for the lifecycle and determinism tests:
    /// neither needs paper-scale images.
    fn tiny_cfg(n: usize) -> FleetConfig {
        FleetConfig {
            n,
            spec: MachineSpec {
                capacity_sectors: (1u64 << 25) / 512,
                image_sectors: (1u64 << 24) / 512,
                ..MachineSpec::default()
            },
            ..FleetConfig::default()
        }
    }

    #[test]
    fn rdma_fleet_boots_on_the_ib_lane() {
        let mut cfg = small_cfg(2);
        cfg.machine_cfg.transport = crate::transport::TransportKind::Rdma;
        let (fleet, startups) = boot_fleet(cfg);
        assert_eq!(startups.len(), 2);
        assert!(
            fleet.server().rdma_reads() > 0,
            "deployment reads were served one-sided by the HCA"
        );
        assert_eq!(fleet.queue_drops_total(), 0, "the IB lane is lossless");
    }

    #[test]
    fn batched_fleet_boots_with_fewer_wire_requests() {
        let (plain, plain_boots) = boot_fleet(small_cfg(2));
        let mut cfg = small_cfg(2);
        cfg.machine_cfg.transport = crate::transport::TransportKind::Batched;
        let (batched, batched_boots) = boot_fleet(cfg);
        assert_eq!(plain_boots.len(), batched_boots.len());
        assert!(
            batched.server().requests() < plain.server().requests(),
            "multi-range coalescing must shrink the request stream: \
             batched {} vs plain {}",
            batched.server().requests(),
            plain.server().requests()
        );
    }

    #[test]
    fn transport_runs_are_deterministic() {
        for kind in crate::transport::TransportKind::ALL {
            let mut cfg = small_cfg(2);
            cfg.machine_cfg.transport = kind;
            let (fleet_a, a) = boot_fleet(cfg.clone());
            let (fleet_b, b) = boot_fleet(cfg);
            assert_eq!(a, b, "{kind} startups diverged across reruns");
            assert_eq!(fleet_a.server().requests(), fleet_b.server().requests());
        }
    }

    use crate::machine::GuestCtl;
    use guestsim::io::{CompletedIo, IoRequest, RequestId};
    use hwsim::block::{BlockRange, BlockStore, Lba, SectorData};

    /// Tenant stand-in for lifecycle tests: writes one known range
    /// (dirty-tracked, so snapshot-back must carry it to the archive)
    /// and finishes — the write doubles as the "boot".
    struct TenantWrite {
        range: BlockRange,
        pattern: SectorData,
    }

    impl GuestProgram for TenantWrite {
        fn name(&self) -> &str {
            "tenant-write"
        }
        fn start(&mut self, ctl: &mut GuestCtl) {
            ctl.submit(IoRequest::write(
                RequestId(7),
                self.range,
                vec![self.pattern; self.range.sectors as usize],
            ));
        }
        fn on_io_complete(&mut self, _io: &CompletedIo, ctl: &mut GuestCtl) {
            ctl.finish();
        }
        fn on_timer(&mut self, _t: u64, _ctl: &mut GuestCtl) {}
    }

    /// Machine `i`'s tenant write range for lifecycle tests.
    fn tenant_range(i: usize) -> BlockRange {
        BlockRange::new(Lba(1000 + 64 * i as u64), 32)
    }

    fn tenant_program(i: usize) -> Box<dyn GuestProgram> {
        Box::new(TenantWrite {
            range: tenant_range(i),
            pattern: SectorData(0xD1ED),
        })
    }

    /// Asserts machine `i`'s local disk holds the `seed` image on every
    /// copied sector the guest did not overwrite — sampled across the
    /// image so the check stays cheap at any geometry.
    fn assert_holds_image(fleet: &Fleet, i: usize, seed: u64) {
        let m = fleet.machine(i);
        let vmm = m.vmm.as_ref().expect("bmcast member");
        let sectors = fleet.cfg.spec.image_sectors;
        let mut checked = 0u32;
        for lba in (0..sectors).step_by((sectors / 97).max(1) as usize) {
            if !vmm.bitmap.is_filled(Lba(lba)) || vmm.dirty.is_dirty(Lba(lba)) {
                continue;
            }
            assert_eq!(
                m.hw.disk.store().read(Lba(lba)),
                BlockStore::image_content(seed, Lba(lba)),
                "machine {i}, sector {lba}: wrong image content"
            );
            checked += 1;
        }
        assert!(checked >= 10, "machine {i}: only {checked} sectors sampled");
    }

    #[test]
    fn reactivated_peers_reuse_their_retired_nodes() {
        let mut cfg = tiny_cfg(4);
        cfg.peer_serving = true;
        let mut fleet = Fleet::new(cfg);
        fleet.start(|_| Box::new(BootProgram::new(BootProfile::tiny(7))));
        fleet
            .run_to_all_booted(SimTime::from_secs(3600))
            .expect("fleet boots");
        let after_boot = fleet.fabric.servers().count();
        let (drops, bytes) = (fleet.queue_drops_total(), fleet.server_bytes_read());
        fleet
            .run_rolling_upgrade(
                0xB002,
                2,
                |_| Box::new(BootProgram::new(BootProfile::tiny(7))),
                SimTime::from_secs(7200),
            )
            .expect("the wave completes");
        assert!(fleet.peers_active() >= 1, "upgraded members serve again");
        assert_eq!(
            fleet.fabric.servers().count(),
            after_boot,
            "one node per shelf across the wave"
        );
        // Totals carry over the retired nodes' counts.
        assert!(fleet.queue_drops_total() >= drops);
        assert!(fleet.server_bytes_read() > bytes);
    }

    #[test]
    fn rolling_upgrade_round_trips_every_machine() {
        let cfg = tiny_cfg(3);
        let old_seed = cfg.spec.image_seed;
        let new_seed = 0xB002;
        let mut fleet = Fleet::new(cfg);
        fleet.start(tenant_program);
        fleet
            .run_to_all_booted(SimTime::from_secs(3600))
            .expect("first tenants boot");
        let redeploys = fleet
            .run_rolling_upgrade(
                new_seed,
                1,
                |_| Box::new(BootProgram::new(BootProfile::tiny(7))),
                SimTime::from_secs(7200),
            )
            .expect("the wave completes");
        assert_eq!(redeploys.len(), 3);
        assert_eq!(fleet.queue_drops_total(), 0);
        for i in 0..3 {
            assert_eq!(fleet.lifecycle_stage(i), LifecycleStage::Done);
            // The archive volume holds the departing tenant's final
            // disk state: the old image plus its writes.
            let vol = fleet.archive_volume(i).expect("machine archived");
            let range = tenant_range(i);
            for lba in range.lba.0..range.end().0 {
                assert_eq!(
                    vol.store().read(Lba(lba)),
                    SectorData(0xD1ED),
                    "machine {i}: archived write missing at sector {lba}"
                );
            }
            assert_eq!(
                vol.store().read(Lba(range.end().0 + 1)),
                BlockStore::image_content(old_seed, Lba(range.end().0 + 1)),
                "machine {i}: archive lost untouched image content"
            );
            // The machine itself now runs the new tenant image.
            assert_holds_image(&fleet, i, new_seed);
        }
    }

    #[test]
    fn upgrade_waves_are_deterministic_under_chaos() {
        let run = || {
            let mut cfg = tiny_cfg(2);
            cfg.faults = FaultPlan::preset("chaos", 7);
            let mut fleet = Fleet::new(cfg);
            fleet.start(tenant_program);
            fleet
                .run_to_all_booted(SimTime::from_secs(3600))
                .expect("boots under chaos");
            let redeploys = fleet
                .run_rolling_upgrade(
                    0xB002,
                    1,
                    |_| Box::new(BootProgram::new(BootProfile::tiny(7))),
                    SimTime::from_secs(7200),
                )
                .expect("wave survives chaos");
            (
                redeploys,
                fleet.server().requests(),
                fleet.events_executed(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "chaos upgrade runs with one seed must agree");
    }

    #[test]
    fn scale_down_parks_and_scale_up_redeploys() {
        let cfg = tiny_cfg(3);
        let old_seed = cfg.spec.image_seed;
        let new_seed = 0xCAFE;
        let mut fleet = Fleet::new(cfg);
        fleet.start(tenant_program);
        fleet
            .run_to_all_booted(SimTime::from_secs(3600))
            .expect("tenants boot");
        fleet
            .run_scale_down(&[1, 2], 2, SimTime::from_secs(7200))
            .expect("scale-down completes");
        for i in [1usize, 2] {
            assert_eq!(fleet.lifecycle_stage(i), LifecycleStage::Parked);
            // A parked machine holds no tenant data...
            assert_eq!(
                fleet.machine(i).hw.disk.store().read(Lba(1000)),
                SectorData::ZERO,
                "machine {i}: parked disk not blank"
            );
            // ...its departed tenant lives on in the archive.
            let vol = fleet.archive_volume(i).expect("archived");
            assert_eq!(vol.store().read(tenant_range(i).lba), SectorData(0xD1ED));
            assert_eq!(
                vol.store().read(Lba(0)),
                BlockStore::image_content(old_seed, Lba(0))
            );
        }
        // Machine 0 was untouched by the wave.
        assert_eq!(fleet.lifecycle_stage(0), LifecycleStage::Idle);
        assert_eq!(
            fleet.machine(0).hw.disk.store().read(tenant_range(0).lba),
            SectorData(0xD1ED)
        );
        let boots = fleet
            .run_scale_up(
                &[1, 2],
                new_seed,
                |_| Box::new(BootProgram::new(BootProfile::tiny(7))),
                SimTime::from_secs(7200),
            )
            .expect("scale-up completes");
        assert_eq!(boots.len(), 2);
        for i in [1usize, 2] {
            assert_eq!(fleet.lifecycle_stage(i), LifecycleStage::Done);
            assert_holds_image(&fleet, i, new_seed);
        }
    }

    #[test]
    fn retired_peer_never_serves_stale_blocks() {
        // Machine 0 boots early, converts into a serving peer, and is
        // then upgraded to a new image *while machine 2 still deploys
        // the old one* — mid-stripe-read, with the peer in its
        // endpoint set. Retirement must pull the peer out of routing
        // and every endpoint list before the image view goes stale;
        // the laggard recovers onto the origins by retransmit
        // failover and must finish with pure old-image content.
        let mut cfg = tiny_cfg(3);
        cfg.peer_serving = true;
        cfg.machine_cfg.moderation.post_boot_sprint = true;
        cfg.start_stagger = SimDuration::from_secs(40);
        let old_seed = cfg.spec.image_seed;
        let mut fleet = Fleet::new(cfg);
        fleet.start(|_| Box::new(BootProgram::new(BootProfile::tiny(7))));
        let stall = fleet
            .run_to_all_booted(SimTime::ZERO + SimDuration::from_secs(50))
            .expect_err("machine 2 started 40s in and cannot be done");
        assert!(matches!(stall.outcomes[0], MachineOutcome::Booted { .. }));
        assert!(fleet.peer_active[0], "machine 0 converted into a peer");
        let peer_shelf = PEER_SHELF_BASE;
        let laggard = fleet.machine(2).vmm.as_ref().unwrap();
        assert!(laggard.client.read_endpoints().contains(&(peer_shelf, 0)));
        assert!(
            fleet.machine(2).deployment_progress() < 1.0,
            "machine 2 must still be mid-deployment"
        );
        let redeploys = fleet
            .run_upgrade_wave(
                &[0],
                0xB002,
                1,
                |_| Box::new(BootProgram::new(BootProfile::tiny(7))),
                SimTime::from_secs(7200),
            )
            .expect("the peer's upgrade completes");
        assert_eq!(redeploys.len(), 1);
        // Retirement scrubbed the fabric view of the peer before its
        // image went stale.
        assert!(!fleet.peer_active[0]);
        for (j, (m, _)) in fleet.machines.iter().enumerate().skip(1) {
            let endpoints = m.vmm.as_ref().unwrap().client.read_endpoints();
            assert!(
                !endpoints.contains(&(peer_shelf, 0)),
                "machine {j} still lists the retired peer"
            );
        }
        // Finish the laggards on the old image.
        fleet
            .run_to_all_booted(SimTime::from_secs(3600))
            .expect("laggards finish on the origins");
        assert_holds_image(&fleet, 2, old_seed);
        assert_holds_image(&fleet, 0, 0xB002);
    }

    /// Full-obs run: telemetry + flight recorder (SLO watchdogs ride it).
    /// Returns the three obs artifacts the determinism test compares
    /// byte-for-byte.
    fn obs_run(cfg: FleetConfig) -> (String, Vec<Alert>, StragglerReport) {
        let mut fleet = Fleet::new(cfg);
        fleet.enable_telemetry();
        fleet.enable_flight_recorder(FlightRecorderConfig::default());
        fleet.start(|_| Box::new(BootProgram::new(BootProfile::tiny(7))));
        fleet
            .run_to_all_booted(SimTime::from_secs(3600))
            .expect("fleet boots");
        (
            fleet.fleet_snapshot().expect("telemetry on").to_json(),
            fleet.alerts().to_vec(),
            fleet.straggler_attribution().expect("recorders on"),
        )
    }

    #[test]
    fn fleet_obs_artifacts_are_chaos_identical() {
        let mut cfg = tiny_cfg(4);
        cfg.faults = FaultPlan::preset("chaos", 7);
        let (snap_a, alerts_a, report_a) = obs_run(cfg.clone());
        let (snap_b, alerts_b, report_b) = obs_run(cfg);
        assert_eq!(snap_a, snap_b, "fleet snapshot diverged across runs");
        assert_eq!(alerts_a, alerts_b, "alert stream diverged across runs");
        assert_eq!(report_a, report_b, "straggler report diverged across runs");
    }

    #[test]
    fn fleet_snapshot_namespaces_and_aggregates() {
        let mut fleet = Fleet::new(small_cfg(2));
        fleet.enable_telemetry();
        fleet.start(|_| Box::new(BootProgram::new(BootProfile::tiny(7))));
        fleet
            .run_to_all_booted(SimTime::from_secs(3600))
            .expect("fleet boots");
        let snap = fleet.fleet_snapshot().expect("telemetry on");
        // Fabric series keep plain names; members are namespaced; the
        // aggregate equals the sum of the members.
        assert!(snap.counter("server.cache.hits") > 0);
        let m0 = snap.counter("machine.0.aoe.client.reads");
        let m1 = snap.counter("machine.1.aoe.client.reads");
        assert!(m0 > 0 && m1 > 0, "per-member reads preserved");
        assert_eq!(snap.counter("fleet.aoe.client.reads"), m0 + m1);
        assert_eq!(snap.gauge("fleet.machines_booted"), 2);
        let startup = snap
            .histograms
            .get("fleet.startup_us")
            .expect("boot histogram");
        assert_eq!(startup.count(), 2);
        assert!(startup.min() > 0);
        // The aggregate view is the same data without the namespaces.
        let agg = fleet.metrics_snapshot().expect("telemetry on");
        assert_eq!(agg.counter("aoe.client.reads"), m0 + m1);
    }

    #[test]
    fn straggler_attribution_decomposes_the_slowest_decile() {
        let mut cfg = small_cfg(3);
        cfg.start_stagger = SimDuration::from_secs(5);
        let mut fleet = Fleet::new(cfg);
        fleet.enable_telemetry();
        fleet.enable_flight_recorder(FlightRecorderConfig::default());
        fleet.start(|_| Box::new(BootProgram::new(BootProfile::tiny(7))));
        fleet
            .run_to_all_booted(SimTime::from_secs(3600))
            .expect("fleet boots");
        let report = fleet.straggler_attribution().expect("recorders on");
        assert_eq!(report.booted, 3);
        assert_eq!(report.stragglers.len(), 1, "decile of 3 is 1");
        let worst = &report.stragglers[0];
        assert!(worst.boot_s > 0.0);
        assert!(
            worst.boot_s >= report.median.boot_s,
            "decile is the slow end"
        );
        assert!(worst.reads > 0, "attribution counts the straggler's reads");
        // Fleet members arm deployment at power-on, so initialization
        // must exclude the admission stagger, not report it as work.
        assert!(
            worst.init_s < 1.0,
            "init must not absorb the stagger offset: {}",
            worst.init_s
        );
        assert!(worst.rtt_total_s > 0.0, "round trips attributed");
        assert_eq!(
            worst.peer_reads + worst.origin_reads,
            worst.reads,
            "read mix partitions the reads"
        );
        // The flight recorder armed the watchdogs, and this healthy
        // boot raises none: the cache warmup waits for machine 1, so
        // machine 0's lone cold misses cannot read as a collapse.
        assert!(fleet.alerts().is_empty(), "{:?}", fleet.alerts());
    }

    #[test]
    fn quiet_boot_keeps_the_watchdogs_silent() {
        let (_, alerts, _) = obs_run(tiny_cfg(2));
        assert!(
            alerts.is_empty(),
            "default thresholds must not fire on a healthy boot: {alerts:?}"
        );
    }

    #[test]
    #[ignore = "rack scale: run in release (CI obs-smoke job)"]
    fn retransmit_storm_watchdog_fires_without_egress_backpressure() {
        // The scaleout figure's n=64 p2p point: same geometry, boot
        // profile, stagger, and peer-aware admission ramp as
        // ext_scaleout's p2p column.
        let cfg_at = |cap: Option<SimDuration>| {
            let mut cfg = small_cfg(64);
            cfg.start_stagger = SimDuration::from_millis(50);
            cfg.peer_serving = true;
            cfg.machine_cfg.moderation.post_boot_sprint = true;
            cfg.server_cfg.sprint_boost = 8;
            cfg.admission_base = 8;
            cfg.admission_per_peer = 8;
            if let Some(cap) = cap {
                cfg.egress_queue_cap = cap;
            }
            cfg
        };
        let run = |cfg: FleetConfig| {
            let mut fleet = Fleet::new(cfg);
            fleet.enable_telemetry();
            fleet.enable_flight_recorder(FlightRecorderConfig::default());
            let profile = BootProfile::custom("scaleout-boot", 7, 400, 24 << 20, 2000, 24 << 20);
            fleet.start(move |_| Box::new(BootProgram::new(profile.clone())));
            fleet
                .run_to_all_booted(SimTime::from_secs(36_000))
                .expect("fleet boots");
            fleet
                .slo()
                .expect("armed")
                .raise_count(simkit::slo::SloRule::RetransmitStorm)
        };
        assert_eq!(run(cfg_at(None)), 0, "default config stays silent");
        // An effectively unbounded egress queue disables backpressure:
        // replies sit behind a multi-second backlog, RTOs expire, and
        // the fleet-wide retransmit rate crosses the storm threshold.
        assert!(
            run(cfg_at(Some(SimDuration::from_secs(3600)))) > 0,
            "storm watchdog fires once backpressure is off"
        );
    }

    #[test]
    fn flight_recorder_exports_one_process_per_machine() {
        let mut fleet = Fleet::new(small_cfg(2));
        fleet.enable_telemetry();
        fleet.enable_flight_recorder(FlightRecorderConfig::default());
        fleet.start(|_| Box::new(BootProgram::new(BootProfile::tiny(7))));
        fleet
            .run_to_all_booted(SimTime::from_secs(3600))
            .expect("fleet boots");
        let trace = fleet.chrome_trace();
        assert!(trace.contains("\"machine0\""));
        assert!(trace.contains("\"machine1\""));
        assert!(trace.contains("\"fleet\""));
        let snap = fleet.metrics_snapshot().expect("telemetry on");
        assert!(snap.counter("server.cache.hits") > 0);
        let rows = fleet.fleet_sampler().rows();
        assert!(!rows.is_empty(), "fleet timeline sampled");
        assert!(rows
            .iter()
            .any(|r| r.value("server.cache.hit_ratio").is_some()));
        assert!(rows.iter().any(|r| r.value("fleet.peers_active").is_some()));
    }
}
