//! Figure 5: memcached and Cassandra throughput/latency over a run that
//! spans the deployment phase and de-virtualization.
//!
//! The *machine side* is fully simulated: a 32-GB streaming deployment
//! with moderated background copy, plus (for Cassandra) the commit-log
//! write stream contending with it through the device mediator. The
//! *database side* is the per-window model of
//! [`guestsim::workload::db::DbPerfModel`], fed each window with machine
//! state actually measured from the simulation: EPT on/off, VMM CPU
//! share, and the observed inflation of the guest's own disk writes.
//! KVM's flat lines come from [`KvmModel::db_perf_env`] — KVM performs no
//! deployment, so its curves are constant.

use crate::platform::Platform;
use crate::{Check, Figure, Row, Scale};
use bmcast::config::Moderation;
use bmcast::devirt::Phase;
use bmcast::programs::StreamProgram;
use bmcast_baselines::kvm::KvmModel;
use guestsim::workload::db::{DbPerfModel, PerfEnv};
use hwsim::block::{BlockRange, Lba};
use simkit::{SimDuration, SimTime};

/// CPU share the VMM's polling + streaming threads consume while the
/// deployment phase is active (the paper measures 6% total: 5% for the
/// OS-streaming threads, 1% for the VMM core).
const VMM_POLL_CPU_SHARE: f64 = 0.05;

/// One sampled window.
#[derive(Debug, Clone, Copy)]
pub struct DbSample {
    /// Window end time.
    pub t: SimTime,
    /// Throughput ratio to bare metal.
    pub tput_ratio: f64,
    /// Latency ratio to bare metal.
    pub lat_ratio: f64,
    /// Machine phase at the window end.
    pub phase: Phase,
}

/// A full database run.
#[derive(Debug, Clone)]
pub struct DbRun {
    /// Samples in time order.
    pub samples: Vec<DbSample>,
    /// When the machine reached bare metal.
    pub bare_metal_at: Option<SimTime>,
    /// Mean throughput ratio during deployment.
    pub deploy_tput_ratio: f64,
    /// Mean latency ratio during deployment.
    pub deploy_lat_ratio: f64,
    /// Mean throughput ratio after de-virtualization.
    pub post_tput_ratio: f64,
}

/// Simulates one database deployment run.
pub fn simulate_db(model: &DbPerfModel, with_commit_log: bool, scale: Scale) -> DbRun {
    let spec = scale.spec(1 << 30, 1 << 29);
    let moderation = if with_commit_log {
        // Update-heavy deployments tune the threshold above the
        // commit-log request rate so copying continues (§3.3: the
        // parameters are configurable; the paper's Cassandra
        // deployment demonstrably kept copying — 17 minutes).
        Moderation {
            guest_io_threshold_per_sec: 30.0,
            ..Moderation::default()
        }
    } else {
        Moderation::default()
    };
    let mut runner = Platform::Deploy(moderation).runner(&spec);
    let horizon = SimTime::from_secs(4 * 3600);
    let log_region = BlockRange::new(Lba(spec.image_sectors / 2), (spec.image_sectors / 4) as u32);
    if with_commit_log {
        // Commit log + memtable flushes live in the upper half of the
        // image, like a data partition.
        runner.start_program(Box::new(StreamProgram::commit_log(
            log_region,
            model.base_throughput_ktps * 1000.0 * 0.857, // deploy-phase ops
            horizon,
            42,
        )));
    }

    // Reference latency for the same write stream on bare metal.
    let base_io_latency_us = if with_commit_log {
        let mut bare = Platform::Baremetal.runner(&spec);
        bare.start_program(Box::new(StreamProgram::commit_log(
            log_region,
            model.base_throughput_ktps * 1000.0,
            SimTime::from_secs(30),
            42,
        )));
        bare.run_until(SimTime::from_secs(30));
        bare.machine().guest.io_latency.mean() * 1e6
    } else {
        0.0
    };

    let window = SimDuration::from_secs(10);
    let mut samples = Vec::new();
    let mut last_lat_n = 0usize;
    let mut last_lat_sum = 0.0f64;
    let mut t = SimTime::ZERO;
    let tail = SimDuration::from_secs(180); // observe a while after devirt
    let mut end: Option<SimTime> = None;
    loop {
        t += window;
        runner.run_until(t);
        let m = runner.machine();
        let phase = m.phase();
        let vmm = m.vmm.as_ref().expect("bmcast machine");

        // Window-mean guest I/O latency, from histogram deltas.
        let n = m.guest.io_latency.len();
        let sum = m.guest.io_latency.mean() * n as f64;
        let window_lat_us = if n > last_lat_n {
            (sum - last_lat_sum) / (n - last_lat_n) as f64 * 1e6
        } else {
            base_io_latency_us
        };
        last_lat_n = n;
        last_lat_sum = sum;

        let env = PerfEnv {
            mem_slowdown: m.hw.cpus[0].memory_slowdown(model.tlb_share),
            vmm_cpu_share: if phase == Phase::Deployment || phase == Phase::Initialization {
                VMM_POLL_CPU_SHARE + 0.01
            } else {
                0.0
            },
            extra_io_latency_us: (window_lat_us - base_io_latency_us).max(0.0),
            extra_latency_us: 0.0,
        };
        samples.push(DbSample {
            t,
            tput_ratio: model.throughput_ratio(&env),
            lat_ratio: model.latency_ratio(&env),
            phase,
        });

        if end.is_none() {
            if let Some(bm) = vmm.bare_metal_at {
                end = Some(bm + tail);
            }
        }
        if let Some(e) = end {
            if t >= e {
                break;
            }
        }
        if t >= horizon {
            break;
        }
    }

    let deploy: Vec<&DbSample> = samples
        .iter()
        .filter(|s| s.phase == Phase::Deployment || s.phase == Phase::Initialization)
        .collect();
    let post: Vec<&DbSample> = samples
        .iter()
        .filter(|s| s.phase == Phase::BareMetal)
        .collect();
    let mean = |xs: &[&DbSample], f: fn(&DbSample) -> f64| {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().map(|s| f(s)).sum::<f64>() / xs.len() as f64
        }
    };
    DbRun {
        bare_metal_at: runner.machine().vmm.as_ref().and_then(|v| v.bare_metal_at),
        deploy_tput_ratio: mean(&deploy, |s| s.tput_ratio),
        deploy_lat_ratio: mean(&deploy, |s| s.lat_ratio),
        post_tput_ratio: mean(&post, |s| s.tput_ratio),
        samples,
    }
}

/// Regenerates Figure 5 (all four panels).
pub fn run(scale: Scale) -> Figure {
    let kvm = KvmModel::default();
    let mem_model = DbPerfModel::memcached();
    let cas_model = DbPerfModel::cassandra();
    let mem = simulate_db(&mem_model, false, scale);
    let cas = simulate_db(&cas_model, true, scale);
    let kvm_env = kvm.db_perf_env();

    let mut rows = Vec::new();
    // One row per minute, sampled from both runs.
    let minutes = mem
        .samples
        .last()
        .map(|s| s.t.as_secs() / 60)
        .unwrap_or(0)
        .max(cas.samples.last().map(|s| s.t.as_secs() / 60).unwrap_or(0));
    for min in 1..=minutes {
        let t = SimTime::from_secs(min * 60);
        let pick = |run: &DbRun| {
            run.samples
                .iter()
                .min_by_key(|s| s.t.as_nanos().abs_diff(t.as_nanos()))
                .copied()
        };
        let mut values = Vec::new();
        if let Some(s) = pick(&mem) {
            values.push(("mem tput".into(), s.tput_ratio));
            values.push(("mem lat".into(), s.lat_ratio));
        }
        values.push(("mem KVM tput".into(), mem_model.throughput_ratio(&kvm_env)));
        if let Some(s) = pick(&cas) {
            values.push(("cas tput".into(), s.tput_ratio));
            values.push(("cas lat".into(), s.lat_ratio));
        }
        values.push(("cas KVM tput".into(), cas_model.throughput_ratio(&kvm_env)));
        rows.push(Row::new(format!("t={min:>3} min"), values));
    }

    let mut checks = vec![
        Check::new(
            "memcached deploy-phase throughput ratio",
            0.948,
            mem.deploy_tput_ratio,
            "x",
        ),
        Check::new(
            "memcached deploy-phase latency (vs 281us base)",
            291.0,
            mem.deploy_lat_ratio * mem_model.base_latency_us,
            "us",
        ),
        Check::new(
            "memcached post-devirt throughput ratio",
            1.0,
            mem.post_tput_ratio,
            "x",
        ),
        Check::new(
            "KVM memcached throughput ratio",
            0.929,
            mem_model.throughput_ratio(&kvm_env),
            "x",
        ),
        Check::new(
            "cassandra deploy-phase throughput ratio",
            0.914,
            cas.deploy_tput_ratio,
            "x",
        ),
        Check::new(
            "cassandra post-devirt throughput ratio",
            1.0,
            cas.post_tput_ratio,
            "x",
        ),
        Check::new(
            "KVM cassandra throughput ratio",
            0.926,
            cas_model.throughput_ratio(&kvm_env),
            "x",
        ),
    ];
    if scale == Scale::Paper {
        checks.extend([
            Check::new(
                "memcached deployment-phase length",
                16.0,
                mem.bare_metal_at
                    .map(|t| t.as_secs_f64() / 60.0)
                    .unwrap_or(0.0),
                "min",
            ),
            Check::new(
                "cassandra deployment-phase length",
                17.0,
                cas.bare_metal_at
                    .map(|t| t.as_secs_f64() / 60.0)
                    .unwrap_or(0.0),
                "min",
            ),
        ]);
    }
    Figure {
        id: "fig05",
        title:
            "database performance across deployment and de-virtualization (ratios to bare metal)",
        unit: "ratio",
        rows,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memcached_recovers_to_native_after_devirt() {
        let run = simulate_db(&DbPerfModel::memcached(), false, Scale::Quick);
        assert!(run.bare_metal_at.is_some(), "deployment must complete");
        assert!(
            run.deploy_tput_ratio < 0.97,
            "deploy phase pays overhead: {}",
            run.deploy_tput_ratio
        );
        assert!(
            (run.post_tput_ratio - 1.0).abs() < 1e-9,
            "post-devirt must be native: {}",
            run.post_tput_ratio
        );
        // No dip below the deploy-phase plateau (no suspension at the
        // phase shift).
        for s in &run.samples {
            assert!(s.tput_ratio > 0.85, "no cliff: {}", s.tput_ratio);
        }
    }

    #[test]
    fn cassandra_feels_disk_contention() {
        let run = simulate_db(&DbPerfModel::cassandra(), true, Scale::Quick);
        assert!(run.bare_metal_at.is_some(), "deployment must complete");
        assert!(
            run.deploy_tput_ratio < 0.97,
            "deploy ratio {}",
            run.deploy_tput_ratio
        );
    }
}
