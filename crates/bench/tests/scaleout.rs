//! Fleet scale-out invariants (the `--scaleout` figure's load-bearing
//! claims, pinned as tests).
//!
//! - **n = 1 degenerates exactly**: a one-machine fleet is the
//!   single-machine deployment — same spec, same boot profile, same
//!   startup instant to the tick. The fleet path (queued server, DRR,
//!   block cache, shared links) must add nothing at n = 1.
//! - **DRR is fair**: concurrent identical boots finish within a small
//!   spread — no member starves behind another's backlog.
//! - **The cache does its job**: n identical boots read each range from
//!   the server disk about once, so followers hit at ~(n-1)/n.
//! - **Chaos runs are reproducible to the byte**: the same seed under a
//!   fault plan yields the identical `BENCH_scaleout.json` body — with
//!   one origin server and with a sharded (k ≥ 2) store.
//! - **Every topology degenerates at n = 1**: the figure's 1-server,
//!   k=1 sharded, and p2p configs all reduce to the same lone boot.

use bmcast::config::BmcastConfig;
use bmcast::deploy::Runner;
use bmcast::fleet::{Fleet, FleetConfig};
use bmcast::machine::MachineSpec;
use bmcast::programs::BootProgram;
use bmcast_bench::ext_scaleout::{scaleout_json, topology_fleet_cfg, ScaleoutPoint, Topology};
use bmcast_bench::Scale;
use guestsim::os::BootProfile;
use simkit::fault::FaultPlan;
use simkit::{SimDuration, SimTime};

fn small_spec() -> MachineSpec {
    MachineSpec {
        capacity_sectors: (1u64 << 26) / 512,
        image_sectors: (1u64 << 25) / 512,
        ..MachineSpec::default()
    }
}

/// A boot profile busy enough (>50 reads/s) that moderation suspends
/// the background copier during boot at every fleet size — the same
/// property the measured figure's geometry relies on.
fn busy_profile() -> BootProfile {
    BootProfile::custom("scaleout-test", 7, 200, 8 << 20, 1000, 8 << 20)
}

fn boot_fleet(cfg: FleetConfig, profile: &BootProfile) -> (Fleet, Vec<SimTime>) {
    let mut fleet = Fleet::new(cfg);
    let p = profile.clone();
    fleet.start(move |_| Box::new(BootProgram::new(p.clone())));
    let startups = fleet
        .run_to_all_booted(SimTime::from_secs(3600))
        .expect("fleet boots within limit");
    (fleet, startups)
}

#[test]
fn one_machine_fleet_is_exactly_the_single_machine_deployment() {
    let spec = small_spec();
    let profile = busy_profile();

    let mut single = Runner::bmcast(&spec, BmcastConfig::default());
    single.start_program(Box::new(BootProgram::new(profile.clone())));
    let single_boot = single
        .run_to_finish(SimTime::from_secs(3600))
        .expect("single-machine boot finishes");

    let cfg = FleetConfig {
        n: 1,
        spec,
        ..FleetConfig::default()
    };
    let (_, startups) = boot_fleet(cfg, &profile);

    assert_eq!(
        startups[0], single_boot,
        "a 1-fleet must reproduce the single-machine startup to the tick \
         (fleet {:?} vs single {:?})",
        startups[0], single_boot
    );
}

#[test]
fn eight_concurrent_boots_are_fair_and_share_the_cache() {
    let cfg = FleetConfig {
        n: 8,
        spec: small_spec(),
        ..FleetConfig::default()
    };
    let (fleet, startups) = boot_fleet(cfg, &busy_profile());

    let secs: Vec<f64> = startups.iter().map(|t| t.as_secs_f64()).collect();
    let max = secs.iter().cloned().fold(f64::MIN, f64::max);
    let min = secs.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        max / min <= 1.5,
        "DRR should keep the startup spread tight: min {min:.2}s max {max:.2}s"
    );

    // 8 identical boots, each range fetched from disk about once: the
    // other 7 reads of it are hits (with slack for ranges still in
    // flight when the followers ask, and for background-copy traffic).
    let hit = fleet.server().cache_hit_ratio();
    assert!(
        hit >= 7.0 / 8.0 - 0.1,
        "cache hit ratio {hit:.3} below (n-1)/n - 0.1"
    );
}

/// One chaos fleet of 4 with `servers` origin replicas, reduced to the
/// JSON body the figure would write for it.
fn chaos_json_once(servers: usize) -> String {
    let cfg = FleetConfig {
        n: 4,
        spec: small_spec(),
        servers,
        faults: FaultPlan::preset("chaos", 7),
        ..FleetConfig::default()
    };
    let (fleet, startups) = boot_fleet(cfg, &busy_profile());
    let mut secs: Vec<f64> = startups.iter().map(|t| t.as_secs_f64()).collect();
    secs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let point = ScaleoutPoint {
        topology: if servers > 1 { "k-server" } else { "1-server" },
        n: 4,
        servers: servers as u32,
        peers: fleet.peers_active() as u32,
        startup_p50_s: secs[secs.len() / 2],
        startup_p99_s: secs[secs.len() - 1],
        fairness_ratio: secs[secs.len() - 1] / secs[0],
        cache_hit_ratio: fleet.cache_hit_ratio(),
        bytes_moved: fleet.server_bytes_read(),
        queue_drops: fleet.queue_drops_total(),
        image_copy_s: 0.0,
    };
    scaleout_json(Scale::Quick, &[point])
}

#[test]
fn chaos_scaleout_json_is_byte_identical_across_runs() {
    let a = chaos_json_once(1);
    let b = chaos_json_once(1);
    assert_eq!(a, b, "same-seed chaos fleets must serialize identically");
    assert!(a.contains("\"n\": 4"));
}

#[test]
fn sharded_chaos_scaleout_json_is_byte_identical_across_runs() {
    let a = chaos_json_once(2);
    let b = chaos_json_once(2);
    assert_eq!(
        a, b,
        "same-seed chaos fleets with a sharded store must serialize identically"
    );
    assert!(a.contains("\"servers\": 2"));
}

/// Satellite regression: the figure's topology configs must all
/// degenerate to the plain single-server fleet at n = 1 (and k = 1) —
/// the sharding, stagger, and peer-serving machinery may add nothing
/// when there is nothing to shard, stagger, or peer with. The p2p
/// column's post-boot sprint only changes behavior *after* boot, so
/// the startup instant must still match to the tick.
#[test]
fn every_topology_degenerates_to_the_single_server_path_at_n1() {
    let spec = small_spec();
    let profile = busy_profile();

    let baseline_cfg = FleetConfig {
        n: 1,
        spec: spec.clone(),
        ..FleetConfig::default()
    };
    let (_, baseline) = boot_fleet(baseline_cfg, &profile);

    for topology in [Topology::SingleServer, Topology::PeerToPeer] {
        // The figure applies a uniform arrival stagger; at n = 1 the
        // lone machine's offset is 0 × stagger, so it must be inert.
        let mut cfg = topology_fleet_cfg(topology, 1, &spec);
        assert_eq!(cfg.servers, 1, "{topology:?} must use one origin at k = 1");
        cfg.start_stagger = SimDuration::from_millis(50);
        let (_, startups) = boot_fleet(cfg, &profile);
        assert_eq!(
            startups[0], baseline[0],
            "{topology:?} at n = 1 must reproduce the plain fleet startup \
             to the tick ({:?} vs {:?})",
            startups[0], baseline[0]
        );
    }

    // Explicit k = 1 sharding (servers: 1 spelled out) is the same
    // code path as the default, not merely an equivalent one.
    let cfg = FleetConfig {
        n: 1,
        spec,
        servers: 1,
        ..FleetConfig::default()
    };
    let (_, startups) = boot_fleet(cfg, &profile);
    assert_eq!(
        startups[0], baseline[0],
        "servers: 1 must be byte-for-byte the single-server path"
    );
}
