//! Elasticity at scale: concurrent instance startups against one storage
//! server (the paper's §5.1 claim, quantified).
//!
//! > "BMcast transferred only 72 MB of the disk image while booting the
//! > OS in 58 seconds, so the average rate was 1.2 MB/sec. This means
//! > that there is more room to scale-up the number of instances booted
//! > simultaneously."
//!
//! Both forms **measure**: every BMcast point is a real [`Fleet`] run —
//! `n` full machines on one shared switch against an AoE image store,
//! with the block cache and DRR scheduler on. Only the image-copy
//! column is a model ([`analytic_image_copy_startup_secs`]): a
//! pipe-bound transfer is exactly a fluid bandwidth share.
//!
//! - [`run`] (the `ext02` registry entry) boots single-server fleets
//!   at fig04's paper geometry (32 GB disk, the Ubuntu 14.04 profile),
//!   so its n = 1 row is fig04's BMcast OS boot to the tick.
//! - [`run_scaleout`] (the `reproduce --scaleout` path) boots a scaled
//!   geometry across three topology columns (one origin server,
//!   [`TOPOLOGY_SERVERS`] striped replicas, and peer-to-peer, where
//!   finished members convert into serving peers) at fleet sizes up to
//!   1024. Points run concurrently on a bounded pool; the artifact
//!   `BENCH_scaleout.json` is byte-identical across same-seed runs.
//!
//! The transport race, the elasticity figure and the scale-out bundle
//! share this module's fleet harness: [`boot_fleet`] is the one boot
//! run, [`BootStats`] the one reduction of a booted fleet, and
//! [`ChaosLock`] the one two-run determinism lock.

use crate::{par_map, Check, Figure, Row, Scale};
use bmcast::deploy::{FlightRecorderConfig, Runner};
use bmcast::fleet::{Fleet, FleetConfig};
use bmcast::machine::{GuestProgram, MachineSpec};
use bmcast::programs::BootProgram;
use bmcast_baselines::image_copy::ImageCopyPlan;
use guestsim::os::BootProfile;
use simkit::export::push_json_list;
use simkit::{Histogram, SimDuration, SimTime};

/// Server + gigabit-link effective capacity for deployment traffic, MB/s.
const SERVER_CAPACITY_MBPS: f64 = 107.0;

/// Analytic startup time of one image-copy instance when `n` start
/// simultaneously: the transfers share the server pipe, then each
/// restarts and boots.
pub fn analytic_image_copy_startup_secs(n: u32, plan: &ImageCopyPlan, local_boot_s: f64) -> f64 {
    let installer = 52.0;
    let restart = 133.5;
    let share = SERVER_CAPACITY_MBPS / n as f64;
    let rate = share.min(plan.copy_rate_bps() / 1e6);
    let transfer = plan.image_bytes as f64 / 1e6 / rate;
    installer + transfer + restart + local_boot_s
}

/// Regenerates the scale-out figure (registry id `ext02`): one
/// single-server fleet per size at fig04's paper geometry, next to the
/// image-copy model at the paper's 32 GB image and 30 s local boot.
pub fn run(scale: Scale) -> Figure {
    let (spec, profile) = (MachineSpec::default(), BootProfile::ubuntu_14_04(7));
    let plan = ImageCopyPlan::default();
    // The quick sizes are a prefix of the paper sizes at the same
    // geometry, so quick rows are bit-identical to the paper's first rows.
    let sizes: &[u32] = match scale {
        Scale::Paper => &[1, 2, 4, 8, 16, 32, 64],
        Scale::Quick => &[1, 2, 4, 8],
    };
    // Largest fleet first: the allocator then reuses its freed heap for
    // the smaller fleets (ascending order peaks at about 4× the n = 64
    // fleet's own footprint, descending at about 2×).
    let mut points: Vec<ScaleoutPoint> = sizes
        .iter()
        .rev()
        .map(|&n| ScaleoutPoint {
            image_copy_s: analytic_image_copy_startup_secs(n, &plan, 30.0),
            ..measure_point(Topology::SingleServer, n, &spec, &profile)
        })
        .collect();
    points.reverse();
    let rows = points
        .iter()
        .map(|p| {
            Row::new(
                format!("{:>2} instances", p.n),
                vec![
                    ("BMcast p50 s".into(), p.boot.p50_s),
                    ("BMcast p99 s".into(), p.boot.p99_s),
                    ("ImgCopy model".into(), p.image_copy_s),
                    ("speedup x".into(), p.image_copy_s / p.boot.p50_s),
                ],
            )
        })
        .collect();
    Figure {
        id: "ext02",
        title: "simultaneous instance startups against one storage server",
        unit: "seconds",
        rows,
        checks: ext02_checks(&points),
    }
}

/// `ext02`'s checks over its points (ascending `n`, starting at 1): the
/// single-instance startups against the paper, image copy's
/// degradation at the largest `n`, and a gate on the paper's actual
/// claim — BMcast's p99 degrades less than image copy does.
pub fn ext02_checks(points: &[ScaleoutPoint]) -> Vec<Check> {
    let (one, largest) = (&points[0], &points[points.len() - 1]);
    let ic_degradation = largest.image_copy_s / one.image_copy_s;
    let bm_degradation = largest.boot.p99_s / one.boot.p99_s;
    vec![
        Check::new("single-instance BMcast startup", 58.0, one.boot.p50_s, "s"),
        Check::new("single-instance image copy", 535.0, one.image_copy_s, "s"),
        Check::holds(
            format!("BMcast degrades < image copy at n={} (1=yes)", largest.n),
            bm_degradation < ic_degradation,
        ),
        Check::new(
            format!("image-copy degradation at {} instances (x)", largest.n),
            36.0,
            ic_degradation,
            "x",
        ),
    ]
}

// --------------------------- fleet measurement ---------------------------

/// Storage topology of one measured fleet (the figure's third axis,
/// next to `n` and the startup percentiles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One origin server holds the image — the original scale-out
    /// setup and the baseline column.
    SingleServer,
    /// [`TOPOLOGY_SERVERS`] origin replicas; clients stripe reads
    /// across them by LBA.
    MultiServer,
    /// One origin, but every machine that finishes its deployment
    /// becomes a read-only serving peer (with post-boot sprint and a
    /// boosted DRR quantum so conversions happen early).
    PeerToPeer,
}

impl Topology {
    /// Column label used in rows and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Topology::SingleServer => "1-server",
            Topology::MultiServer => "k-server",
            Topology::PeerToPeer => "p2p",
        }
    }
}

/// Origin replicas in the `k-server` topology.
pub const TOPOLOGY_SERVERS: usize = 4;

/// Arrival stagger between consecutive machines, used by every
/// topology column so their arrival patterns are comparable. Models
/// rolling power-on (a rack does not press 256 buttons in the same
/// microsecond) and is what lets the first finishers seed the
/// peer-serving snowball; per-machine startup is measured from each
/// machine's own start, so the stagger is not counted as latency.
pub const ARRIVAL_STAGGER: SimDuration = SimDuration::from_millis(50);

/// DRR quantum boost for sprinting clients in the `p2p` column: a
/// nearly-done machine is about to add a whole server's worth of
/// capacity, so finishing it early is worth ~8 ordinary turns.
pub const P2P_SPRINT_BOOST: u32 = 8;

/// Admission ramp for the `p2p` column: machines released up front.
/// Eight concurrent boots keep the lone origin busy without
/// saturating it, so the first peers convert on schedule. A plain
/// 50 ms grid would put ~90 machines on the origin before the first
/// conversion is even possible — the bootstrap alone destroys the
/// column. Sized so the ramp engages exactly where the single server
/// starts to strain (1-server p99 first climbs at n = 16); inert at
/// n ≤ 8, so the small-n points (and the n = 1 degeneracy) are
/// identical to the other columns'.
pub const P2P_ADMISSION_BASE: usize = 8;

/// Further machines released per converted peer (the rollout grows
/// with serving capacity — see [`FleetConfig::admission_base`]).
pub const P2P_ADMISSION_PER_PEER: usize = 8;

/// One measured scale-out point: `n` machines booted concurrently on a
/// shared fabric by the [`Fleet`] simulator.
#[derive(Debug, Clone)]
pub struct ScaleoutPoint {
    /// Topology column label ([`Topology::label`]).
    pub topology: &'static str,
    /// Fleet size.
    pub n: u32,
    /// Origin servers in this fleet.
    pub servers: u32,
    /// Members converted into serving peers by the time the last
    /// machine booted (always 0 outside the `p2p` column).
    pub peers: u32,
    /// The booted fleet's startups and server totals.
    pub boot: BootStats,
    /// Analytic image-copy startup for the same image and `n`.
    pub image_copy_s: f64,
}

/// Per-scale fleet geometry: member spec, boot profile, and the fleet
/// sizes measured. Images are scaled down from the paper's 32 GB so the
/// grid can reach n = 1024; contention is relative, and `ext02` measures
/// the single-server column at the paper's own geometry.
///
/// The boot profile issues reads fast enough (well over the moderation
/// threshold's 50/s) that every member's background copier suspends for
/// the duration of the boot, exactly like the paper's Ubuntu profile.
/// Its 400 reads of ~60 KB make the boot bandwidth-bound, so fabric
/// contention shows from n = 2 on. A latency-bound boot (fig04's 4000
/// small reads, which `ext02` runs) instead boots slightly *faster* at
/// n = 2..8 than alone: identical boots convoy and take turns paying
/// for each range, and the server's caches fill when a read is issued
/// rather than when it completes (EXPERIMENTS "The head of the ext02
/// curve").
pub fn scaleout_boot_profile() -> BootProfile {
    BootProfile::custom("scaleout-boot", 7, 400, 24 << 20, 2000, 24 << 20)
}

/// Both scales share one member geometry — quick mode just measures
/// fewer fleet sizes. A smaller quick image looked tempting, but at
/// tiny images the n = 2 cache savings outweigh the fabric contention
/// and the curve inverts below n = 1; same-spec points keep every
/// quick value bit-identical to the paper run's prefix.
pub fn fleet_geometry() -> (MachineSpec, BootProfile) {
    let spec = MachineSpec {
        capacity_sectors: (1u64 << 28) / 512,
        image_sectors: (1u64 << 27) / 512,
        ..MachineSpec::default()
    };
    (spec, scaleout_boot_profile())
}

/// The `(topology, n)` grid measured for `scale`. The server-bound
/// columns stop where the single pipe turns startups glacial; the
/// `p2p` column keeps going — its whole claim is that supply grows
/// with demand, so it must be shown at fleet sizes the baseline
/// cannot reach.
fn topology_grid(scale: Scale) -> Vec<(Topology, Vec<u32>)> {
    match scale {
        Scale::Paper => vec![
            (Topology::SingleServer, vec![1, 2, 4, 8, 16, 32, 64]),
            (Topology::MultiServer, vec![1, 2, 4, 8, 16, 32, 64]),
            (
                Topology::PeerToPeer,
                vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024],
            ),
        ],
        Scale::Quick => vec![
            (Topology::SingleServer, vec![1, 2, 4, 8]),
            (Topology::MultiServer, vec![1, 2, 4, 8]),
            (Topology::PeerToPeer, vec![1, 2, 4, 8, 64, 256]),
        ],
    }
}

/// The fleet configuration for one `(topology, n)` point. Every
/// topology uses the same arrival stagger; the `p2p` column adds the
/// peer-aware admission ramp, which is part of the system under test —
/// a peer-to-peer rollout controls its release rate by the serving
/// capacity it has grown (the server-bound columns have no such
/// signal: their capacity is fixed).
pub fn topology_fleet_cfg(topology: Topology, n: u32, spec: &MachineSpec) -> FleetConfig {
    let mut cfg = FleetConfig {
        n: n as usize,
        spec: spec.clone(),
        start_stagger: ARRIVAL_STAGGER,
        ..FleetConfig::default()
    };
    match topology {
        Topology::SingleServer => {}
        Topology::MultiServer => cfg.servers = TOPOLOGY_SERVERS,
        Topology::PeerToPeer => {
            cfg.peer_serving = true;
            cfg.machine_cfg.moderation.post_boot_sprint = true;
            cfg.server_cfg.sprint_boost = P2P_SPRINT_BOOST;
            cfg.admission_base = P2P_ADMISSION_BASE;
            cfg.admission_per_peer = P2P_ADMISSION_PER_PEER;
        }
    }
    cfg
}

/// Builds `cfg`'s fleet, with telemetry and the flight recorder (and so
/// the SLO watchdogs) on when `observed`, starts `program` on every
/// member and runs until all have booted. Returns the fleet and each
/// member's startup in seconds: its boot finish minus its own staggered
/// start (the finish instant at zero stagger).
///
/// # Panics
///
/// Panics if a member has not booted by 36,000 s of simulated time.
pub fn boot_fleet(
    cfg: FleetConfig,
    observed: bool,
    program: impl FnMut(usize) -> Box<dyn GuestProgram> + 'static,
) -> (Fleet, Histogram) {
    let mut fleet = Fleet::new(cfg);
    if observed {
        fleet.enable_telemetry();
        fleet.enable_flight_recorder(FlightRecorderConfig::default());
    }
    fleet.start(program);
    fleet
        .run_to_all_booted(SimTime::from_secs(36_000))
        .expect("fleet boots within limit");
    let mut startups = Histogram::new();
    for d in fleet.startup_durations() {
        startups.record_duration(d.expect("all booted"));
    }
    (fleet, startups)
}

/// A boot program factory: every member boots `profile`.
pub fn boots(profile: &BootProfile) -> impl FnMut(usize) -> Box<dyn GuestProgram> + 'static {
    let profile = profile.clone();
    move |_| Box::new(BootProgram::new(profile.clone()))
}

/// What the scale-out and transport points read off one booted fleet.
#[derive(Debug, Clone)]
pub struct BootStats {
    /// Median per-machine startup, seconds: the upper median
    /// `sorted[n / 2]`. At even `n` it is the nearest-rank p50's right
    /// neighbour; `BENCH_scaleout.json` and `BENCH_transport.json` have
    /// always published it, so it stays.
    pub p50_s: f64,
    /// Nearest-rank p99 per-machine startup, seconds.
    pub p99_s: f64,
    /// Slowest / fastest member startup (the fairness spread).
    pub fairness_ratio: f64,
    /// Aggregate block-cache hit ratio across every server node.
    pub cache_hit_ratio: f64,
    /// Bytes all server nodes put on the wire (cache hits included).
    pub bytes_moved: u64,
    /// Queue-full drops across every server node (the "no drops at
    /// scale" claim).
    pub queue_drops: u64,
}

impl BootStats {
    /// Reduces a fleet booted by [`boot_fleet`] and its startups.
    pub fn of(fleet: &Fleet, startups: &mut Histogram) -> BootStats {
        let sorted = startups.sorted();
        let p50_s = sorted[sorted.len() / 2];
        BootStats {
            p50_s,
            p99_s: startups.percentile(99.0),
            fairness_ratio: startups.max() / startups.min(),
            cache_hit_ratio: fleet.cache_hit_ratio(),
            bytes_moved: fleet.server_bytes_read(),
            queue_drops: fleet.queue_drops_total(),
        }
    }
}

/// Boots one fleet of `n` under `topology` and reduces it to a
/// [`ScaleoutPoint`] (the image-copy column is left at 0 for the caller
/// to fill in).
pub fn measure_point(
    topology: Topology,
    n: u32,
    spec: &MachineSpec,
    profile: &BootProfile,
) -> ScaleoutPoint {
    let cfg = topology_fleet_cfg(topology, n, spec);
    let servers = cfg.servers as u32;
    let (fleet, mut startups) = boot_fleet(cfg, false, boots(profile));
    ScaleoutPoint {
        topology: topology.label(),
        n,
        servers,
        peers: fleet.peers_active() as u32,
        boot: BootStats::of(&fleet, &mut startups),
        image_copy_s: 0.0,
    }
}

/// Measures every `(topology, n)` point for `scale` on at most `jobs`
/// worker threads (each point owns its whole simulated world), then
/// fills in the image-copy model with a bare-metal boot of the same
/// profile as its local boot. Points come back grouped by topology in
/// grid order.
pub fn measure_scaleout(scale: Scale, jobs: usize) -> Vec<ScaleoutPoint> {
    let (spec, profile) = fleet_geometry();
    let work: Vec<(Topology, u32)> = topology_grid(scale)
        .into_iter()
        .flat_map(|(t, ns)| ns.into_iter().map(move |n| (t, n)))
        .collect();

    let mut points = par_map(jobs, &work, |&(t, n)| measure_point(t, n, &spec, &profile));

    let mut bare = Runner::bare_metal(&spec);
    bare.start_program(Box::new(BootProgram::new(profile.clone())));
    let local_boot_s = bare
        .run_to_finish(SimTime::from_secs(3600))
        .expect("bare-metal boot finishes")
        .duration_since(SimTime::ZERO)
        .as_secs_f64();

    let plan = ImageCopyPlan {
        image_bytes: spec.image_sectors * 512,
        ..ImageCopyPlan::default()
    };
    for p in &mut points {
        p.image_copy_s = analytic_image_copy_startup_secs(p.n, &plan, local_boot_s);
    }
    points
}

/// The measured scale-out figure (the `reproduce --scaleout` path).
/// Returns the figure plus the points `BENCH_scaleout.json` is built
/// from.
pub fn run_scaleout(scale: Scale, jobs: usize) -> (Figure, Vec<ScaleoutPoint>) {
    let points = measure_scaleout(scale, jobs);
    let rows = points
        .iter()
        .map(|p| {
            Row::new(
                format!("{} {:>3} machines", p.topology, p.n),
                vec![
                    ("BMcast p50 s".into(), p.boot.p50_s),
                    ("BMcast p99 s".into(), p.boot.p99_s),
                    ("Image Copy s".into(), p.image_copy_s),
                    ("cache hit %".into(), p.boot.cache_hit_ratio * 100.0),
                    ("peers".into(), p.peers as f64),
                    ("q drops".into(), p.boot.queue_drops as f64),
                ],
            )
        })
        .collect();
    let fig = Figure {
        id: "scaleout",
        title: "measured fleet startups: n machines per topology, shared fabric",
        unit: "seconds",
        checks: scaleout_checks(&points),
        rows,
    };
    (fig, points)
}

/// The scale-out figure's checks over its points (grouped by topology
/// in grid order): a gate for every load-bearing claim, plus the
/// informational cache-hit comparison.
pub fn scaleout_checks(points: &[ScaleoutPoint]) -> Vec<Check> {
    let of = |t: Topology| -> Vec<&ScaleoutPoint> {
        points.iter().filter(|p| p.topology == t.label()).collect()
    };
    let single = of(Topology::SingleServer);
    let multi = of(Topology::MultiServer);
    let p2p = of(Topology::PeerToPeer);
    // `col`'s p99 stays within 2% of the 1-server p99 at every n from
    // `min_n` up that both columns measured.
    let holds_single = |col: &[&ScaleoutPoint], min_n: u32| {
        single.iter().filter(|s| s.n >= min_n).all(|s| {
            col.iter()
                .find(|p| p.n == s.n)
                .is_none_or(|p| p.boot.p99_s <= s.boot.p99_s * 1.02)
        })
    };

    // The single origin must pay for scale monotonically. The k-server
    // column is *not* monotone at small n — striping removes the
    // contention and the warm shard caches make later staggered
    // arrivals slightly faster — so its claim is the comparative one:
    // striping never loses to one server.
    let monotone = single
        .windows(2)
        .all(|w| w[1].boot.p99_s >= w[0].boot.p99_s * 0.999);
    let beats_ic = points.iter().all(|p| p.boot.p99_s < p.image_copy_s);
    let hit_at_8 = single
        .iter()
        .find(|p| p.n == 8)
        .map(|p| p.boot.cache_hit_ratio)
        .unwrap_or(0.0);
    // p2p members serve from their own golden image, so the origin's
    // cache carries a shrinking share by design: the hit-ratio floor
    // applies to the server-bound columns only.
    let cache_floor = single
        .iter()
        .chain(&multi)
        .filter(|p| p.n >= 8)
        .all(|p| p.boot.cache_hit_ratio >= 0.5);
    // The elasticity headline: the largest p2p fleet's p99 within 2×
    // the lone-machine baseline, with zero queue drops anywhere in the
    // column.
    let baseline = single.first().map(|p| p.boot.p99_s).unwrap_or(0.0);
    let p2p_flat = p2p.last().is_some_and(|p| p.boot.p99_s <= baseline * 2.0);
    let p2p_drops: u64 = p2p.iter().map(|p| p.boot.queue_drops).sum();

    vec![
        Check::holds("1-server p99 monotone in n (1=yes)", monotone),
        Check::holds(
            "k-server p99 never above 1-server (1=yes)",
            holds_single(&multi, 0),
        ),
        Check::holds("BMcast under image copy at every n (1=yes)", beats_ic),
        Check::new("server cache hit ratio at n=8", 7.0 / 8.0, hit_at_8, ""),
        Check::holds(
            "cache hit ratio >= 0.5 at n>=8, 1-/k-server (1=yes)",
            cache_floor,
        ),
        // Peer serving must not lose to the single server once there
        // are enough machines for peers to matter (joint n >= 8).
        Check::holds(
            "p2p p99 beats 1-server at joint n>=8 (1=yes)",
            holds_single(&p2p, 8),
        ),
        Check::holds("p2p p99 at n_max within 2x n=1 baseline (1=yes)", p2p_flat),
        Check::zero("p2p queue drops", p2p_drops),
    ]
}

/// One point's JSON object, fixed precision.
pub fn point_json(p: &ScaleoutPoint) -> String {
    format!(
        "{{\"topology\": \"{}\", \"n\": {}, \"servers\": {}, \"peers\": {}, \
         \"startup_p50_s\": {:.6}, \"startup_p99_s\": {:.6}, \
         \"fairness_ratio\": {:.6}, \"cache_hit_ratio\": {:.6}, \"bytes_moved\": {}, \
         \"queue_drops\": {}, \"image_copy_s\": {:.6}}}",
        p.topology,
        p.n,
        p.servers,
        p.peers,
        p.boot.p50_s,
        p.boot.p99_s,
        p.boot.fairness_ratio,
        p.boot.cache_hit_ratio,
        p.boot.bytes_moved,
        p.boot.queue_drops,
        p.image_copy_s,
    )
}

/// The `BENCH_scaleout.json` document body. Hand-rolled JSON (the
/// workspace carries no serde) with fixed-precision floats: same-seed
/// runs produce byte-identical artifacts.
pub fn scaleout_json(scale: Scale, points: &[ScaleoutPoint]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"scale\": \"{scale:?}\",\n"));
    out.push_str("  \"points\": [\n");
    push_json_list(&mut out, "    ", points.iter().map(point_json));
    out.push_str("  ]\n}\n");
    out
}

/// FNV-1a over `bytes` — the workspace carries no hash crates, and a
/// 64-bit digest is plenty for an equality witness (the underlying
/// comparison in tests is the full byte string; the digest is what the
/// JSON artifacts record).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A two-run determinism lock: two same-seed runs must agree byte for
/// byte on their witness (what the run publishes, plus its event count).
#[derive(Debug, Clone)]
pub struct ChaosLock {
    /// FNV-1a digest of the first run's witness.
    pub digest_a: String,
    /// FNV-1a digest of the second run's witness.
    pub digest_b: String,
    /// Whether the two witnesses matched byte for byte.
    pub identical: bool,
}

impl ChaosLock {
    /// The lock over the witnesses of two same-seed runs.
    pub fn of(a: &str, b: &str) -> ChaosLock {
        let digest = |witness: &str| format!("{:016x}", fnv1a64(witness.as_bytes()));
        ChaosLock {
            digest_a: digest(a),
            digest_b: digest(b),
            identical: a == b,
        }
    }

    /// The lock's JSON fields, without braces.
    pub fn json_fields(&self) -> String {
        format!(
            "\"digest_a\": \"{}\", \"digest_b\": \"{}\", \"identical\": {}",
            self.digest_a, self.digest_b, self.identical
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Boot stats with both percentiles at `p99` and nothing dropped.
    fn stats(p99: f64) -> BootStats {
        BootStats {
            p50_s: p99,
            p99_s: p99,
            fairness_ratio: 1.0,
            cache_hit_ratio: 0.9,
            bytes_moved: 0,
            queue_drops: 0,
        }
    }

    /// An `ext02` curve that holds its gate: BMcast p99 1.15× at n=64
    /// against image copy's ~38×.
    fn ext02_points() -> Vec<ScaleoutPoint> {
        [(1, 59.0, 537.0), (8, 60.0, 2784.0), (64, 67.8, 20767.0)]
            .into_iter()
            .map(|(n, p99, image_copy_s)| ScaleoutPoint {
                topology: Topology::SingleServer.label(),
                n,
                servers: 1,
                peers: 0,
                boot: stats(p99),
                image_copy_s,
            })
            .collect()
    }

    #[test]
    fn ext02_gate_fails_only_when_bmcast_degrades_like_image_copy() {
        let checks = ext02_checks(&ext02_points());
        assert_eq!(checks.len(), 4);
        assert!(checks.iter().all(|c| !c.failed()), "{checks:?}");
        assert_eq!(
            checks[3].metric,
            "image-copy degradation at 64 instances (x)"
        );

        // BMcast's p99 at n=64 degrades 40× (image copy: 38.7×).
        let mut points = ext02_points();
        points[2].boot.p99_s = 59.0 * 40.0;
        let failed: Vec<String> = ext02_checks(&points)
            .into_iter()
            .filter(Check::failed)
            .map(|c| c.metric)
            .collect();
        assert_eq!(failed, ["BMcast degrades < image copy at n=64 (1=yes)"]);
    }

    #[test]
    fn grid_measures_every_topology_at_both_scales() {
        for scale in [Scale::Quick, Scale::Paper] {
            let grid = topology_grid(scale);
            let columns: Vec<Topology> = grid.iter().map(|(t, _)| *t).collect();
            assert_eq!(
                columns,
                [
                    Topology::SingleServer,
                    Topology::MultiServer,
                    Topology::PeerToPeer
                ]
            );
            assert!(grid.iter().all(|(_, ns)| ns.len() >= 2 && ns.contains(&8)));
        }
    }

    /// Three columns at n = 1, 8, 16 that hold every gate.
    fn passing_points() -> Vec<ScaleoutPoint> {
        let mut points = Vec::new();
        for t in [
            Topology::SingleServer,
            Topology::MultiServer,
            Topology::PeerToPeer,
        ] {
            for (n, p99) in [(1, 4.0), (8, 5.0), (16, 6.0)] {
                points.push(ScaleoutPoint {
                    topology: t.label(),
                    n,
                    servers: 1,
                    peers: 0,
                    boot: stats(p99),
                    image_copy_s: 100.0,
                });
            }
        }
        points
    }

    fn failed_gates(points: &[ScaleoutPoint]) -> Vec<String> {
        scaleout_checks(points)
            .into_iter()
            .filter(Check::failed)
            .map(|c| c.metric)
            .collect()
    }

    #[test]
    fn each_scaleout_gate_fails_on_its_own_violation() {
        let mut points = passing_points();
        // The p2p column is exempt from the cache floor.
        points[8].boot.cache_hit_ratio = 0.1;
        assert_eq!(failed_gates(&points), Vec::<String>::new());
        // Indices: 1-server 0..3, k-server 3..6, p2p 6..9 (n = 1, 8, 16).
        type Break = fn(&mut Vec<ScaleoutPoint>);
        let cases: [(&str, Break); 7] = [
            ("1-server p99 monotone", |p| p[0].boot.p99_s = 5.5),
            ("k-server p99 never above", |p| p[4].boot.p99_s = 5.2),
            ("BMcast under image copy", |p| p[8].image_copy_s = 6.0),
            ("cache hit ratio >= 0.5", |p| {
                p[5].boot.cache_hit_ratio = 0.4
            }),
            ("p2p p99 beats 1-server", |p| p[7].boot.p99_s = 5.2),
            ("p2p p99 at n_max within 2x", |p| {
                let mut big = p[8].clone();
                big.n = 64;
                big.boot.p99_s = 8.5;
                p.push(big);
            }),
            ("p2p queue drops", |p| p[7].boot.queue_drops = 1),
        ];
        for (gate, break_it) in cases {
            let mut points = passing_points();
            break_it(&mut points);
            let failed = failed_gates(&points);
            assert_eq!(failed.len(), 1, "{gate}: {failed:?}");
            assert!(failed[0].starts_with(gate), "{gate}: {failed:?}");
        }
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
