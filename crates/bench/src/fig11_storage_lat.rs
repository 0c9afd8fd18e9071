//! Figure 11: ioping storage latency.
//!
//! Random 4 KB reads of an already-present file. On bare metal and after
//! de-virtualization the probe sees raw disk latency; during deployment a
//! probe that arrives while a multiplexed 1-MB background write is in
//! service queues behind it — "this blocking time was measured as the
//! latency overhead" (+4.3 ms in the paper).

use crate::platform::{finish, Platform};
use crate::{Check, Figure, Row, Scale};
use bmcast::config::Moderation;
use bmcast::deploy::Runner;
use bmcast::programs::{FioProgram, IopingProgram};
use bmcast_baselines::netboot::NetbootPlan;
use guestsim::workload::fio::FioJob;
use guestsim::workload::ioping::IopingJob;
use hwsim::block::Lba;

fn probe_job(scale: Scale, start: Lba) -> IopingJob {
    let mut j = IopingJob::paper(start);
    if scale == Scale::Quick {
        j.iterations = 10;
    }
    j
}

/// Lays out the probed file (ioping creates its test file first), then
/// measures mean probe latency in milliseconds.
fn probe_latency_ms(runner: &mut Runner, scale: Scale) -> f64 {
    let file = Lba(1 << 16);
    let layout = FioJob {
        write: true,
        total_bytes: probe_job(scale, file).file_bytes,
        block_bytes: 1 << 20,
        start: file,
    };
    finish(runner, FioProgram::new(layout));
    let before_n = runner.machine().guest.io_latency.len();
    let before_sum = runner.machine().guest.io_latency.mean() * before_n as f64;
    finish(runner, IopingProgram::new(probe_job(scale, file), 77));
    let n = runner.machine().guest.io_latency.len();
    let sum = runner.machine().guest.io_latency.mean() * n as f64;
    (sum - before_sum) / (n - before_n) as f64 * 1e3
}

/// Mean probe latency per configuration, ms.
#[derive(Debug, Clone, Copy)]
pub struct StorageLatResults {
    /// Bare metal.
    pub baremetal: f64,
    /// BMcast deploying.
    pub deploy: f64,
    /// BMcast after de-virtualization.
    pub devirt: f64,
    /// Network root.
    pub netboot: f64,
}

/// Runs the measurements.
pub fn measure(scale: Scale) -> StorageLatResults {
    let spec = scale.spec(2 << 30, 1 << 30);
    let probe = |platform: Platform| probe_latency_ms(&mut platform.runner(&spec), scale);

    let baremetal = probe(Platform::Baremetal);
    // Deploy: ioping probes once per second — far below the moderation
    // threshold, so the copier keeps writing at full pace and probes
    // queue behind its 1-MB writes (the paper's +4.3 ms).
    let deploy = probe(Platform::Deploy(Moderation::default()));
    let devirt = probe(Platform::Devirt { resident: false });

    StorageLatResults {
        baremetal,
        deploy,
        devirt,
        netboot: NetbootPlan::default().random_read_latency().as_secs_f64() * 1e3,
    }
}

/// Regenerates Figure 11.
pub fn run(scale: Scale) -> Figure {
    let r = measure(scale);
    let rows = vec![
        Row::new("Baremetal", vec![("latency ms".into(), r.baremetal)]),
        Row::new("Deploy", vec![("latency ms".into(), r.deploy)]),
        Row::new("Devirt", vec![("latency ms".into(), r.devirt)]),
        Row::new("Netboot", vec![("latency ms".into(), r.netboot)]),
    ];
    let checks = vec![
        Check::new("Deploy added latency", 4.3, r.deploy - r.baremetal, "ms"),
        Check::new("Devirt added latency", 0.0, r.devirt - r.baremetal, "ms"),
    ];
    Figure {
        id: "fig11",
        title: "ioping storage latency",
        unit: "ms",
        rows,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocking_appears_only_during_deployment() {
        let r = measure(Scale::Quick);
        assert!(
            r.deploy > r.baremetal + 0.5,
            "deploy must add blocking: bare {:.2}ms deploy {:.2}ms",
            r.baremetal,
            r.deploy
        );
        assert!(
            (r.devirt - r.baremetal).abs() < 0.5,
            "devirt is native: bare {:.2}ms devirt {:.2}ms",
            r.baremetal,
            r.devirt
        );
    }
}
