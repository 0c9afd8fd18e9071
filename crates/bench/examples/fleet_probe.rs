//! Ad-hoc fleet diagnostics: boots one paper-geometry fleet and prints
//! progress every simulated slice, to tell "slow but converging" apart
//! from "wedged". Not part of the figure pipeline.
//!
//! Usage: `fleet_probe [n] [slice_secs] [limit_secs] [single|multi|p2p] [aoe|batched|rdma]`
//!
//! The optional topology argument uses the `--scaleout` figure's exact
//! per-topology fleet configuration (stagger, sharding, peer serving,
//! admission ramp). The optional transport argument deploys over that wire (the `--transport` race's
//! axis); the progress line's `rdma=` column shows one-sided serving.

use bmcast::deploy::FlightRecorderConfig;
use bmcast::fleet::{Fleet, FleetConfig};
use bmcast::machine::MachineSpec;
use bmcast::programs::BootProgram;
use bmcast_bench::ext_scaleout::{scaleout_boot_profile, topology_fleet_cfg, Topology};
use bmcast_bench::obs::straggler_text;
use hwsim::block::{BlockRange, Lba};
use simkit::{Histogram, SimTime};

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(16);
    let slice: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(100);
    let limit: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(36_000);
    let topology = args.next();
    let transport = args.next().map(|a| {
        bmcast::TransportKind::parse(&a)
            .unwrap_or_else(|| panic!("unknown transport {a:?} (aoe|batched|rdma)"))
    });

    let spec = MachineSpec {
        capacity_sectors: (1u64 << 28) / 512,
        image_sectors: (1u64 << 27) / 512,
        ..MachineSpec::default()
    };
    let mut cfg = match topology.as_deref() {
        None => FleetConfig {
            n,
            spec,
            ..FleetConfig::default()
        },
        Some("single") => topology_fleet_cfg(Topology::SingleServer, n as u32, &spec),
        Some("multi") => topology_fleet_cfg(Topology::MultiServer, n as u32, &spec),
        Some("p2p") => topology_fleet_cfg(Topology::PeerToPeer, n as u32, &spec),
        Some(other) => panic!("unknown topology {other:?} (single|multi|p2p)"),
    };
    if let Some(kind) = transport {
        cfg.machine_cfg.transport = kind;
    }
    let image_sectors = cfg.spec.image_sectors;
    let mut fleet = Fleet::new(cfg);
    fleet.enable_telemetry();
    fleet.enable_flight_recorder(FlightRecorderConfig::default());
    let profile = scaleout_boot_profile();
    fleet.start(move |_| Box::new(BootProgram::new(profile.clone())));

    let mut at = 0u64;
    loop {
        at += slice;
        let done = fleet.run_to_all_booted(SimTime::from_secs(at));
        let snap = fleet.metrics_snapshot().expect("telemetry on");
        // Fill of the image prefix only: scratch space past the image
        // is born filled, so the whole-disk count would start above 100%.
        let image = BlockRange::new(Lba(0), image_sectors as u32);
        let fills: Vec<u64> = (0..fleet.len())
            .map(|i| {
                fleet.machine(i).vmm.as_ref().map_or(image_sectors, |v| {
                    let empty: u64 = v
                        .bitmap
                        .empty_subranges(image)
                        .iter()
                        .map(|r| u64::from(r.sectors))
                        .sum();
                    image_sectors - empty
                })
            })
            .collect();
        let min_fill = fills.iter().min().copied().unwrap_or(0);
        let max_fill = fills.iter().max().copied().unwrap_or(0);
        println!(
            "sim {:>6}s booted {:>2}/{} peers {:>3} fill {:>5.1}%..{:>5.1}% q={} rdma={} busy={} \
             drops={} hits={} misses={} retx={} failures={} deploy_errors={} busy_hints={}",
            fleet.now().as_secs_f64(),
            fleet.booted_count(),
            fleet.len(),
            fleet.peers_active(),
            100.0 * min_fill as f64 / image_sectors as f64,
            100.0 * max_fill as f64 / image_sectors as f64,
            fleet.server().queued_total(),
            fleet.server().rdma_reads(),
            fleet.server().busy_replies(),
            fleet.server().queue_drops(),
            fleet.server().cache_hits(),
            fleet.server().cache_misses(),
            snap.counter("aoe.client.retransmits"),
            snap.counter("aoe.client.failures"),
            snap.counter("machine.deploy_errors"),
            snap.counter("aoe.client.busy_hints"),
        );
        match done {
            Ok(startups) => {
                let mut finishes = Histogram::new();
                for t in &startups {
                    finishes.record(t.as_secs_f64());
                }
                let mut durs = Histogram::new();
                for d in fleet.startup_durations() {
                    durs.record(d.expect("all booted").as_secs_f64());
                }
                println!(
                    "ALL BOOTED: finish min {:.2}s max {:.2}s | per-machine startup \
                     p50 {:.2}s p99 {:.2}s max {:.2}s",
                    finishes.min(),
                    finishes.max(),
                    durs.percentile(50.0),
                    durs.percentile(99.0),
                    durs.max(),
                );
                if let Some(report) = fleet.straggler_attribution() {
                    println!();
                    print!("{}", straggler_text(&report));
                }
                break;
            }
            // A slice-limit stall is just "not done yet"; a wedged
            // fleet or terminal deploy failures will never finish.
            Err(stall) if stall.wedged || at >= limit => {
                println!("STOPPED: {stall}");
                break;
            }
            Err(_) => {}
        }
    }
}
