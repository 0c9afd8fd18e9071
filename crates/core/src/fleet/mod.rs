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
//! events and lifecycle announcements) is a binary min-heap on
//! `(time, sequence)`. Peer activation is itself an event:
//! a completed copy books a `FleetEvent::PeerActivate` one fabric
//! lookahead later (attaching a switch port consumes no randomness),
//! so two runs with the same [`FleetConfig`] are event-for-event
//! identical — the scale-out artifact is byte-reproducible at every
//! topology.
//!
//! # Layout
//!
//! One `Member` record per machine: `engine` runs the members,
//! `lifecycle` moves them through peers and waves, `obs` reports.
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

mod engine;
mod lifecycle;
mod obs;

pub use obs::{StragglerReport, StragglerRow};

use crate::config::BmcastConfig;
use crate::fabric::{image_server, Fabric, SERVER_MAC};
use crate::machine::{DeployError, Machine, MachineSim, MachineSpec};
use crate::snapback::ReclaimError;
use aoe::{AoeServer, ServerConfig};
use engine::{ProgramFactory, Timeline};
use hwsim::eth::MacAddr;
use lifecycle::{Peer, Wave};
use simkit::fault::{FaultCounters, FaultPlan};
use simkit::slo::SloEngine;
use simkit::{Prng, Sampler, SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
/// [`Phase`](crate::devirt::Phase) transitions at the fleet's
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
            seed: 0xF1EE7,
            sim_threads: 1,
            faults: None,
        }
    }
}

/// Why a fleet run ([`Fleet::run_to_all_booted`] or a lifecycle wave)
/// stopped short, with the state of every member at that instant — a
/// fleet that fails tells you *which* machines are stuck and how far
/// they got, not just that it timed out.
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
    /// A lifecycle wave could not reclaim the member: its snapshot-back
    /// failed terminally. Only a [`FleetStall`] reports this;
    /// [`Fleet::outcomes`] describes the boot run.
    ReclaimFailed {
        /// The error the reclaim surfaced.
        error: ReclaimError,
    },
}

impl std::fmt::Display for FleetStall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use MachineOutcome::*;
        let count = |f: fn(&MachineOutcome) -> bool| self.outcomes.iter().filter(|o| f(o)).count();
        let booted = count(|o| matches!(o, Booted { .. }));
        let failed = count(|o| matches!(o, Failed { .. } | ReclaimFailed { .. }));
        let n = self.outcomes.len();
        let reason = match (self.wedged, failed > 0 && booted + failed == n) {
            (true, _) => "no events left",
            (false, true) => "all remaining machines failed",
            (false, false) => "limit passed",
        };
        let at = self.at;
        write!(
            f,
            "fleet stopped at {at:?} ({reason}): {booted}/{n} booted, {failed} failed"
        )?;
        for (i, o) in self.outcomes.iter().enumerate() {
            match o {
                Failed { error } => write!(f, "; machine{i}: {error}")?,
                ReclaimFailed { error } => write!(f, "; machine{i} reclaim: {error}")?,
                _ => {}
            }
        }
        let laggard = self
            .outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, o)| match o {
                Incomplete { fill } => Some((i, *fill)),
                _ => None,
            })
            .min_by(|a, b| a.1.total_cmp(&b.1));
        if let Some((i, fill)) = laggard {
            write!(f, "; least filled: machine{i} at {:.1}%", fill * 100.0)?;
        }
        Ok(())
    }
}

impl std::error::Error for FleetStall {}

/// One fleet member: its machine, that machine's own sim, and
/// everything the fleet tracks about it.
struct Member {
    machine: Machine,
    sim: MachineSim,
    /// Deployment start (`ZERO` until an admission-gated member is
    /// released).
    start_at: SimTime,
    /// First boot-finish instant.
    booted_at: Option<SimTime>,
    /// Boot-finish instant of the image redeployed by the current wave.
    redeployed_at: Option<SimTime>,
    /// Image seed currently deployed: archives replicate it, and a
    /// peer activated after an upgrade exports it.
    image_seed: u64,
    /// Client jitter reseed for this member's next reclaim, forked per
    /// wave up front so the draws never depend on completion order.
    reclaim_jitter: u64,
    peer: Peer,
    stage: LifecycleStage,
}

impl Member {
    /// This member's boot-run outcome.
    fn outcome(&self) -> MachineOutcome {
        if let Some(at) = self.booted_at {
            MachineOutcome::Booted { at }
        } else if let Some(error) = self.machine.deploy_error() {
            MachineOutcome::Failed { error }
        } else {
            let fill = self.machine.deployment_progress();
            MachineOutcome::Incomplete { fill }
        }
    }
}

/// N machines, one fabric, one or more servers — see the module docs.
pub struct Fleet {
    cfg: FleetConfig,
    members: Vec<Member>,
    /// The shared switch, server nodes (origin replicas first, index =
    /// shelf, then activated peers) and the fleet's fault injector.
    fabric: Fabric,
    /// The current (or last) lifecycle wave.
    wave: Wave,
    /// Seed the [`UPGRADE_SLOT`] volumes were exported with, once any
    /// wave exported them (a later wave must reuse the same image).
    upgrade_volume_seed: Option<u64>,
    /// Lazily validated index of member next-event times, keyed
    /// `(next_event_at, machine_index)`: the run loop pops its minimum
    /// instead of re-scanning every member's queue head per event
    /// (see `Fleet::machine_floor`).
    next_index: BinaryHeap<Reverse<(SimTime, usize)>>,
    timeline: Timeline,
    /// Events executed on the fleet's own timeline (members count their
    /// own; see [`Fleet::events_executed`]).
    fleet_events_executed: u64,
    now: SimTime,
    /// Members with a first boot finish: the boot run's O(1) exit check.
    booted: usize,
    /// Program factory held back for admission-gated members and waves.
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
        let mut fabric = Fabric::new(cfg.machine_cfg.mtu, cfg.faults.clone());
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

        let image_seed = cfg.spec.image_seed;
        let members = (0..cfg.n)
            .map(|_| {
                let mut machine = Machine::bmcast_fleet(&cfg.spec, cfg.machine_cfg.clone());
                // Every member answers to the same shelf/slot, so the
                // default jitter seed would retransmit in lockstep; give
                // each client its own forked stream.
                let jitter_seed = seeds.next_u64();
                if let Some(vmm) = machine.vmm.as_mut() {
                    vmm.client.reseed_jitter(jitter_seed);
                    if cfg.servers > 1 {
                        vmm.client
                            .set_read_endpoints((0..cfg.servers).map(|j| (j as u16, 0)).collect());
                        vmm.client
                            .set_stripe_sectors(cfg.machine_cfg.copy_block_sectors);
                    }
                }
                Member {
                    machine,
                    sim: MachineSim::new(),
                    start_at: SimTime::ZERO,
                    booted_at: None,
                    redeployed_at: None,
                    image_seed,
                    reclaim_jitter: 0,
                    peer: Peer::Off,
                    stage: LifecycleStage::Idle,
                }
            })
            .collect();

        Fleet {
            cfg,
            members,
            fabric,
            wave: Wave::default(),
            upgrade_volume_seed: None,
            next_index: BinaryHeap::new(),
            timeline: Timeline::default(),
            fleet_events_executed: 0,
            now: SimTime::ZERO,
            booted: 0,
            program: None,
            admitted: 0,
            last_sched_start: SimTime::ZERO,
            slo: None,
            fleet_sampler: Sampler::disabled(),
        }
    }

    /// Per-machine outcomes of the boot run at the current instant
    /// (index-aligned): a lifecycle wave's reclaim errors show only in
    /// its [`FleetStall`].
    pub fn outcomes(&self) -> Vec<MachineOutcome> {
        self.members.iter().map(Member::outcome).collect()
    }

    /// How many members have finished their guest program.
    pub fn booted_count(&self) -> usize {
        self.booted
    }

    /// Per-machine boot-finish times (index-aligned; `None` while a
    /// member is still booting).
    pub fn startup_times(&self) -> Vec<Option<SimTime>> {
        self.members.iter().map(|m| m.booted_at).collect()
    }

    /// Per-machine deployment start instants (all zero unless
    /// [`FleetConfig::start_stagger`] is set).
    pub fn start_times(&self) -> Vec<SimTime> {
        self.members.iter().map(|m| m.start_at).collect()
    }

    /// Per-machine elapsed boot times: finish minus that machine's own
    /// (possibly staggered) start. `None` while a member is still
    /// booting.
    pub fn startup_durations(&self) -> Vec<Option<SimDuration>> {
        self.members
            .iter()
            .map(|m| m.booted_at.map(|f| f.saturating_duration_since(m.start_at)))
            .collect()
    }

    /// The primary storage server (origin replica 0: cache and
    /// scheduler counters).
    pub fn server(&self) -> &AoeServer {
        self.fabric.server()
    }

    /// Aggregate cache hit ratio across every server node.
    pub fn cache_hit_ratio(&self) -> f64 {
        let hits: u64 = self.fabric.servers().map(AoeServer::cache_hits).sum();
        let misses: u64 = self.fabric.servers().map(AoeServer::cache_misses).sum();
        hits as f64 / (hits + misses).max(1) as f64
    }

    /// Total queue-full drops across every server node (the figure's
    /// "zero drops at the target scale" check).
    pub fn queue_drops_total(&self) -> u64 {
        self.fabric.servers().map(AoeServer::queue_drops).sum()
    }

    /// Total bytes every server node put on the wire (reads served,
    /// cache hits included): the scale-out figure's "aggregate bytes
    /// moved".
    pub fn server_bytes_read(&self) -> u64 {
        self.fabric.servers().map(|s| s.sectors_read() * 512).sum()
    }

    /// Counters of the shared-fabric fault injector (`None` when the
    /// fleet runs without a [`FleetConfig::faults`] plan) — the
    /// survivability rows' witness that a fault class actually fired.
    pub fn fault_counters(&self) -> Option<FaultCounters> {
        self.fabric.fault_counters()
    }

    /// Member `i`.
    pub fn machine(&self, i: usize) -> &Machine {
        &self.members[i].machine
    }

    /// Member `i`'s simulator.
    pub fn member_sim(&self, i: usize) -> &MachineSim {
        &self.members[i].sim
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the fleet has no members (never true — construction
    /// requires `n >= 1`).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Current fleet-wide virtual time (the latest executed event).
    pub fn now(&self) -> SimTime {
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::FlightRecorderConfig;
    use crate::machine::GuestProgram;
    use crate::programs::BootProgram;
    use guestsim::os::BootProfile;
    use simkit::slo::Alert;

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
        assert_eq!(
            fleet.members[0].peer,
            Peer::Serving,
            "machine 0 converted into a peer"
        );
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
        assert_ne!(fleet.members[0].peer, Peer::Serving);
        for (j, m) in fleet.members.iter().enumerate().skip(1) {
            let endpoints = m.machine.vmm.as_ref().unwrap().client.read_endpoints();
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
        let run = |cap: Option<SimDuration>| {
            let mut cfg = small_cfg(64);
            cfg.start_stagger = SimDuration::from_millis(50);
            cfg.peer_serving = true;
            cfg.machine_cfg.moderation.post_boot_sprint = true;
            cfg.server_cfg.sprint_boost = 8;
            cfg.admission_base = 8;
            cfg.admission_per_peer = 8;
            let mut fleet = Fleet::new(cfg);
            if let Some(cap) = cap {
                fleet.fabric.egress_queue_cap = cap;
            }
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
        assert_eq!(run(None), 0, "default config stays silent");
        // An effectively unbounded egress queue disables backpressure:
        // replies sit behind a multi-second backlog, RTOs expire, and
        // the fleet-wide retransmit rate crosses the storm threshold.
        assert!(
            run(Some(SimDuration::from_secs(3600))) > 0,
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
