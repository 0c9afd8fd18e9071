//! Network-boot (NFS-root) baseline and the shared analytic boot walk.
//!
//! Network booting starts an OS quickly — 49 s in Figure 4, faster than
//! BMcast's 58 s — but never deploys the image to the local disk, so every
//! disk I/O crosses the network forever (the continuous overhead visible
//! in Figure 10's Netboot bars).

use guestsim::os::BootProfile;
use hwsim::firmware::{BootPath, FirmwareModel};
use simkit::SimDuration;

/// Walks a boot profile analytically: total CPU (stretched by
/// `cpu_factor`) plus one `per_read_latency` per read step.
///
/// Used by the baselines whose storage path has a flat per-request cost;
/// BMcast and bare metal replay the same profile through the discrete
/// machine instead.
pub fn analytic_boot_time(
    profile: &BootProfile,
    per_read_latency: SimDuration,
    cpu_factor: f64,
) -> SimDuration {
    let cpu = profile.total_cpu().mul_f64(cpu_factor);
    cpu + per_read_latency * profile.read_count() as u64
}

/// The NFS-root network-boot baseline.
#[derive(Debug, Clone)]
pub struct NetbootPlan {
    /// Firmware of the booted machine.
    pub firmware: FirmwareModel,
    /// Management-link rate, bits/second.
    pub link_bps: u64,
    /// Mean per-read service latency over NFS (server page cache +
    /// protocol + one RTT).
    pub nfs_read_latency: SimDuration,
}

impl Default for NetbootPlan {
    fn default() -> Self {
        NetbootPlan {
            firmware: FirmwareModel::primergy_rx200(),
            link_bps: 1_000_000_000,
            nfs_read_latency: SimDuration::from_micros(4_900),
        }
    }
}

impl NetbootPlan {
    /// OS startup time, excluding firmware POST (Figure 4's "NFS Root").
    pub fn startup_time(&self, profile: &BootProfile) -> SimDuration {
        let handoff = self.firmware.boot_handoff(
            BootPath::Pxe {
                payload_bytes: 24 << 20, // kernel + initramfs
            },
            self.link_bps,
        );
        handoff + analytic_boot_time(profile, self.nfs_read_latency, 1.0)
    }

    /// Steady-state sequential read throughput of the network root in
    /// MB/s: bounded by the link (with protocol overhead), the server
    /// disk, and per-request round trips.
    pub fn read_throughput_mbps(&self) -> f64 {
        let link_mbps = self.link_bps as f64 / 8.0 / 1e6;
        let protocol_efficiency = 0.86; // NFS + TCP/IP framing on the wire
        let server_disk = 116.6;
        (link_mbps * protocol_efficiency).min(server_disk)
    }

    /// Steady-state write throughput in MB/s (server-side sync writes).
    pub fn write_throughput_mbps(&self) -> f64 {
        let link_mbps = self.link_bps as f64 / 8.0 / 1e6;
        let protocol_efficiency = 0.80;
        (link_mbps * protocol_efficiency).min(111.9)
    }

    /// Mean 4 KB random-read latency (Figure 11's Netboot bar): one
    /// network round trip plus the server's disk access.
    pub fn random_read_latency(&self) -> SimDuration {
        self.nfs_read_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn startup_is_about_49_seconds() {
        let plan = NetbootPlan::default();
        let t = plan.startup_time(&BootProfile::ubuntu_14_04(1));
        assert!(
            (46.0..52.0).contains(&t.as_secs_f64()),
            "netboot startup {:.1}s",
            t.as_secs_f64()
        );
    }

    #[test]
    fn throughput_is_link_bound() {
        let plan = NetbootPlan::default();
        let r = plan.read_throughput_mbps();
        assert!(r < 116.6, "must be below local-disk rate, got {r:.1}");
        assert!(
            r > 90.0,
            "gigabit NFS should still move >90 MB/s, got {r:.1}"
        );
        assert!(plan.write_throughput_mbps() < r);
    }

    #[test]
    fn analytic_walk_matches_components() {
        let profile = BootProfile::tiny(1);
        let t = analytic_boot_time(&profile, SimDuration::from_millis(10), 1.0);
        let expect =
            profile.total_cpu() + SimDuration::from_millis(10) * profile.read_count() as u64;
        assert_eq!(t, expect);
        // CPU factor stretches only the CPU part.
        let t2 = analytic_boot_time(&profile, SimDuration::from_millis(10), 2.0);
        assert_eq!(t2 - t, profile.total_cpu());
    }
}
