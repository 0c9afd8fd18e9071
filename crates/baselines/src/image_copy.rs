//! Image-copy deployment baseline (Figure 4's "Image Copy").
//!
//! The straightforward OS-transparent approach: netboot a small installer
//! OS, stream the whole image from the server to the local disk, reboot
//! the machine (paying server firmware POST again), and finally boot the
//! OS locally. The paper measures 544 s end to end on a 32-GB image over
//! gigabit Ethernet — 8.6× slower than BMcast excluding the first POST.

use bmcast::deploy::StartupTimeline;
use guestsim::os::BootProfile;
use hwsim::firmware::{BootPath, FirmwareModel};
use simkit::SimDuration;

/// Parameters of an image-copy deployment.
#[derive(Debug, Clone)]
pub struct ImageCopyPlan {
    /// Firmware of the target machine.
    pub firmware: FirmwareModel,
    /// Image size in bytes.
    pub image_bytes: u64,
    /// Management-link rate, bits/second.
    pub link_bps: u64,
    /// Installer OS netboot time (kernel download + minimal init).
    pub installer_boot: SimDuration,
    /// End-to-end copy efficiency over the link (protocol framing, iSCSI
    /// command overhead, write-back stalls).
    pub copy_efficiency: f64,
}

impl Default for ImageCopyPlan {
    fn default() -> Self {
        ImageCopyPlan {
            firmware: FirmwareModel::primergy_rx200(),
            image_bytes: 32 << 30,
            link_bps: 1_000_000_000,
            installer_boot: SimDuration::from_secs(50),
            copy_efficiency: 0.855,
        }
    }
}

impl ImageCopyPlan {
    /// Effective copy rate in bytes/second: the link (after efficiency),
    /// the server's disk, and the local disk's write rate, whichever is
    /// slowest.
    pub fn copy_rate_bps(&self) -> f64 {
        let link = self.link_bps as f64 / 8.0 * self.copy_efficiency;
        link.min(116_600_000.0).min(111_900_000.0)
    }

    /// Time to transfer the image.
    pub fn transfer_time(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.image_bytes as f64 / self.copy_rate_bps())
    }

    /// The full deployment timeline, including the post-copy reboot
    /// through firmware and the final local OS boot (computed from the
    /// boot profile on the local disk: CPU plus local reads).
    pub fn timeline(&self, profile: &BootProfile, local_boot: SimDuration) -> StartupTimeline {
        let mut tl = StartupTimeline::default();
        tl.push(
            "installer netboot",
            self.firmware.boot_handoff(
                BootPath::Pxe {
                    payload_bytes: 24 << 20,
                },
                self.link_bps,
            ) + self.installer_boot,
        );
        tl.push("image transfer", self.transfer_time());
        // The restart's POST is *not* excluded from Figure 4's comparison —
        // only the very first one is — so the label avoids "firmware".
        tl.push(
            "restart (server POST)",
            self.firmware
                .restart_time(BootPath::LocalDisk, self.link_bps),
        );
        tl.push("OS boot (local)", local_boot);
        let _ = profile; // shape documented by the caller's local_boot
        tl
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_takes_about_320_seconds() {
        let plan = ImageCopyPlan::default();
        let t = plan.transfer_time().as_secs_f64();
        assert!((300.0..340.0).contains(&t), "transfer {t:.0}s");
    }

    #[test]
    fn copy_rate_is_link_bound_on_gigabit() {
        let plan = ImageCopyPlan::default();
        let mbps = plan.copy_rate_bps() / 1e6;
        assert!(
            (100.0..112.0).contains(&mbps),
            "copy rate {mbps:.1} MB/s should be ~network-limited"
        );
        // On 10 GbE the disks become the bottleneck instead.
        let fast = ImageCopyPlan {
            link_bps: 10_000_000_000,
            ..plan
        };
        assert!((fast.copy_rate_bps() / 1e6 - 111.9).abs() < 0.1);
    }

    #[test]
    fn timeline_matches_figure_4_shape() {
        let plan = ImageCopyPlan::default();
        let profile = BootProfile::ubuntu_14_04(1);
        let tl = plan.timeline(&profile, SimDuration::from_secs(29));
        let total = tl.total().as_secs_f64();
        assert!(
            (520.0..570.0).contains(&total),
            "image copy total {total:.0}s (paper: 544s)"
        );
        // The restart segment alone is over two minutes of firmware.
        let restart = tl
            .segments
            .iter()
            .find(|(l, _)| l.contains("restart"))
            .unwrap()
            .1;
        assert!(restart.as_secs() >= 133);
    }
}
