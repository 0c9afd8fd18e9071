//! Figure 10: fio storage throughput (200 MB, 1 MB blocks, direct I/O).
//!
//! Baremetal / Deploy / Devirt replay the fio job through the discrete
//! machine — in the Deploy case, fio first *writes* its test file (as fio
//! does to lay out a file), which marks those blocks guest-owned, then
//! reads it back while the background copy multiplexes its own writes
//! around it. Netboot and KVM come from the baseline models.

use crate::platform::{finish, Platform};
use crate::{Check, Figure, Row, Scale};
use bmcast::config::Moderation;
use bmcast::programs::FioProgram;
use bmcast_baselines::kvm::{KvmModel, KvmStorage};
use bmcast_baselines::netboot::NetbootPlan;
use guestsim::workload::fio::FioJob;
use hwsim::block::Lba;

fn job(scale: Scale, write: bool) -> FioJob {
    let total = match scale {
        Scale::Paper => 200u64 << 20,
        Scale::Quick => 32 << 20,
    };
    FioJob {
        write,
        total_bytes: total,
        block_bytes: 1 << 20,
        start: Lba(1 << 16),
    }
}

/// Measured throughput per configuration: `(read, write)` MB/s.
#[derive(Debug, Clone, Copy)]
pub struct StorageTputResults {
    /// Bare metal.
    pub baremetal: (f64, f64),
    /// BMcast in the deployment phase.
    pub deploy: (f64, f64),
    /// BMcast after de-virtualization.
    pub devirt: (f64, f64),
    /// Network boot.
    pub netboot: (f64, f64),
    /// KVM with local virtio disk.
    pub kvm_local: (f64, f64),
    /// KVM with NFS-backed disk.
    pub kvm_nfs: (f64, f64),
}

/// Runs all configurations.
pub fn measure(scale: Scale) -> StorageTputResults {
    let spec = scale.spec(2 << 30, 1 << 30);
    // Writes the file, then reads it back: `(read, write)` MB/s.
    let read_write = |platform: Platform| {
        let mut runner = platform.runner(&spec);
        let mut mbps = |write| {
            let job = job(scale, write);
            job.throughput_mbps(finish(&mut runner, FioProgram::new(job)).as_secs_f64())
        };
        let write = mbps(true);
        let read = mbps(false);
        (read, write)
    };

    let baremetal = read_write(Platform::Baremetal);
    // Deploy: writing the file first lays it out and marks it
    // guest-owned. With the default moderation, fio's ~108 req/s exceeds
    // the guest-I/O threshold, so the copier backs off to one write per
    // suspend interval -- the residual interference is the -4.1%.
    let deploy = read_write(Platform::Deploy(Moderation::default()));
    // Devirt: the paper's Figure 10 machine keeps the VMM resident after
    // deployment (§4.3) — VMX stays on with EPT/traps disabled, so IRQ
    // delivery pays the small resident-shim latency and reads land ~1.7%
    // below bare metal instead of bit-identical.
    let devirt = read_write(Platform::Devirt { resident: true });

    let netboot = NetbootPlan::default();
    let kvm = KvmModel::default();
    StorageTputResults {
        baremetal,
        deploy,
        devirt,
        netboot: (
            netboot.read_throughput_mbps(),
            netboot.write_throughput_mbps(),
        ),
        kvm_local: (
            kvm.fio_throughput_mbps(false, KvmStorage::LocalVirtio),
            kvm.fio_throughput_mbps(true, KvmStorage::LocalVirtio),
        ),
        kvm_nfs: (
            kvm.fio_throughput_mbps(false, KvmStorage::Nfs),
            kvm.fio_throughput_mbps(true, KvmStorage::Nfs),
        ),
    }
}

/// Regenerates Figure 10.
pub fn run(scale: Scale) -> Figure {
    let r = measure(scale);
    let row = |label: &str, (rd, wr): (f64, f64)| {
        Row::new(
            label,
            vec![("read MB/s".into(), rd), ("write MB/s".into(), wr)],
        )
    };
    let rows = vec![
        row("Baremetal", r.baremetal),
        row("Deploy", r.deploy),
        row("Devirt", r.devirt),
        row("Netboot", r.netboot),
        row("KVM/Local", r.kvm_local),
        row("KVM/NFS", r.kvm_nfs),
    ];
    let checks = vec![
        Check::new("baremetal read", 116.6, r.baremetal.0, "MB/s"),
        Check::new("baremetal write", 111.9, r.baremetal.1, "MB/s"),
        Check::new(
            "Deploy read drop",
            4.1,
            (1.0 - r.deploy.0 / r.baremetal.0) * 100.0,
            "%",
        ),
        Check::new(
            "Devirt read drop",
            1.7,
            (1.0 - r.devirt.0 / r.baremetal.0) * 100.0,
            "%",
        ),
        Check::new(
            "KVM/Local read drop",
            10.5,
            (1.0 - r.kvm_local.0 / r.baremetal.0) * 100.0,
            "%",
        ),
        Check::new(
            "KVM/Local write drop",
            13.6,
            (1.0 - r.kvm_local.1 / r.baremetal.1) * 100.0,
            "%",
        ),
        Check::new(
            "KVM/NFS read drop",
            12.3,
            (1.0 - r.kvm_nfs.0 / r.baremetal.0) * 100.0,
            "%",
        ),
    ];
    Figure {
        id: "fig10",
        title: "fio storage throughput",
        unit: "MB/s",
        rows,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_holds_at_quick_scale() {
        let r = measure(Scale::Quick);
        assert!(r.deploy.0 < r.baremetal.0, "deploy read pays something");
        assert!(
            (r.baremetal.0 - r.devirt.0) / r.baremetal.0 < 0.03,
            "devirt recovers: {:?} vs baremetal {:?}",
            r.devirt,
            r.baremetal
        );
        assert!(r.kvm_local.0 < r.baremetal.0 * 0.93);
        assert!(r.netboot.0 < r.baremetal.0);
    }
}
