//! Figure 4: OS startup time.
//!
//! Six configurations: Baremetal (with firmware POST), BMcast, Image
//! Copy, NFS Root, KVM/NFS, KVM/iSCSI. Baremetal and BMcast replay the
//! same boot profile through the discrete machine; the others compose
//! their documented phases from the baseline models. Paper headline:
//! BMcast starts an instance 8.6× faster than image copying (excluding
//! the first POST).

use crate::platform::{finish, Platform};
use crate::{Check, Figure, Row, Scale};
use bmcast::config::Moderation;
use bmcast::deploy::vmm_boot_time;
use bmcast::programs::BootProgram;
use bmcast_baselines::image_copy::ImageCopyPlan;
use bmcast_baselines::kvm::{KvmModel, KvmStorage};
use bmcast_baselines::netboot::NetbootPlan;
use guestsim::os::BootProfile;
use hwsim::firmware::FirmwareModel;
use simkit::SimDuration;

/// Measured startup components.
#[derive(Debug, Clone)]
pub struct StartupResults {
    /// Firmware POST.
    pub firmware: SimDuration,
    /// Bare-metal OS boot (local disk).
    pub baremetal_boot: SimDuration,
    /// BMcast VMM boot.
    pub vmm_boot: SimDuration,
    /// OS boot on BMcast during streaming deployment.
    pub bmcast_boot: SimDuration,
    /// Bytes fetched from the server during the BMcast boot.
    pub bmcast_boot_bytes: u64,
    /// Image-copy total (excluding first POST).
    pub image_copy: SimDuration,
    /// NFS-root startup.
    pub netboot: SimDuration,
    /// KVM host boot.
    pub kvm_host_boot: SimDuration,
    /// KVM guest boot over NFS.
    pub kvm_nfs: SimDuration,
    /// KVM guest boot over iSCSI.
    pub kvm_iscsi: SimDuration,
}

/// Runs the startup measurements.
pub fn measure(scale: Scale) -> StartupResults {
    let spec = scale.spec(1 << 30, 1 << 29);
    let profile = match scale {
        Scale::Paper => BootProfile::ubuntu_14_04(7),
        Scale::Quick => BootProfile::tiny(7),
    };
    let fw = FirmwareModel::primergy_rx200();

    // Bare metal: replay the profile on the pre-installed disk.
    let mut bare = Platform::Baremetal.runner(&spec);
    let baremetal_boot = finish(&mut bare, BootProgram::new(profile.clone()));

    // BMcast: the same profile while streaming deployment runs.
    let mut bm = Platform::Deploy(Moderation::default()).runner(&spec);
    let bmcast_boot = finish(&mut bm, BootProgram::new(profile.clone()));
    // The paper reports how much of the image moved during the boot: the
    // copy-on-read volume (the background copy is moderated down to almost
    // nothing while the guest's boot I/O is active).
    let bmcast_boot_bytes = bm.machine().stats.redirected_bytes;

    // Baselines.
    let image_plan = match scale {
        Scale::Paper => ImageCopyPlan::default(),
        Scale::Quick => ImageCopyPlan {
            image_bytes: 1 << 29,
            ..ImageCopyPlan::default()
        },
    };
    let image_copy = image_plan
        .timeline(&profile, baremetal_boot)
        .total_excluding_firmware();
    let netboot = NetbootPlan::default().startup_time(&profile);
    let kvm = KvmModel::default();

    StartupResults {
        firmware: fw.init_time(),
        baremetal_boot,
        vmm_boot: vmm_boot_time(&fw, 1_000_000_000),
        bmcast_boot,
        bmcast_boot_bytes,
        image_copy,
        netboot,
        kvm_host_boot: kvm.host_boot_time(),
        kvm_nfs: kvm.guest_boot_time(&profile, KvmStorage::Nfs),
        kvm_iscsi: kvm.guest_boot_time(&profile, KvmStorage::Iscsi),
    }
}

/// Regenerates Figure 4.
pub fn run(scale: Scale) -> Figure {
    let r = measure(scale);
    let s = |d: SimDuration| d.as_secs_f64();
    let bmcast_total = s(r.vmm_boot) + s(r.bmcast_boot);
    let rows = vec![
        Row::new(
            "Baremetal",
            vec![
                ("firmware".into(), s(r.firmware)),
                ("os boot".into(), s(r.baremetal_boot)),
            ],
        ),
        Row::new(
            "BMcast",
            vec![
                ("vmm boot".into(), s(r.vmm_boot)),
                ("os boot".into(), s(r.bmcast_boot)),
                ("total".into(), bmcast_total),
            ],
        ),
        Row::new("Image Copy", vec![("total".into(), s(r.image_copy))]),
        Row::new("NFS Root", vec![("os boot".into(), s(r.netboot))]),
        Row::new(
            "KVM/NFS",
            vec![
                ("vmm boot".into(), s(r.kvm_host_boot)),
                ("os boot".into(), s(r.kvm_nfs)),
                ("total".into(), s(r.kvm_host_boot) + s(r.kvm_nfs)),
            ],
        ),
        Row::new(
            "KVM/iSCSI",
            vec![
                ("vmm boot".into(), s(r.kvm_host_boot)),
                ("os boot".into(), s(r.kvm_iscsi)),
                ("total".into(), s(r.kvm_host_boot) + s(r.kvm_iscsi)),
            ],
        ),
    ];
    let speedup = s(r.image_copy) / bmcast_total;
    let mut checks = vec![Check::new(
        "speedup vs image copy (excl. firmware)",
        8.6,
        speedup,
        "x",
    )];
    if scale == Scale::Paper {
        checks.extend([
            Check::new("baremetal OS boot", 29.0, s(r.baremetal_boot), "s"),
            Check::new("BMcast instance startup", 63.0, bmcast_total, "s"),
            Check::new("BMcast OS boot", 58.0, s(r.bmcast_boot), "s"),
            Check::new("image copy total", 544.0, s(r.image_copy), "s"),
            Check::new("NFS-root startup", 49.0, s(r.netboot), "s"),
            Check::new("KVM/NFS guest boot", 42.0, s(r.kvm_nfs), "s"),
            Check::new("KVM/iSCSI guest boot", 55.0, s(r.kvm_iscsi), "s"),
            Check::new(
                "bytes fetched during BMcast boot",
                72.0,
                r.bmcast_boot_bytes as f64 / 1e6,
                "MB",
            ),
        ]);
    }
    Figure {
        id: "fig04",
        title: "OS startup time",
        unit: "seconds",
        rows,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_preserves_ordering() {
        let r = measure(Scale::Quick);
        // BMcast boots faster than image copy but slower than bare metal's
        // pure OS boot.
        let bmcast = r.vmm_boot + r.bmcast_boot;
        assert!(bmcast.as_secs_f64() < r.image_copy.as_secs_f64());
        assert!(r.bmcast_boot >= r.baremetal_boot);
        assert!(r.vmm_boot < r.kvm_host_boot, "thin VMM boots faster");
    }
}
