//! BMcast configuration.

use crate::transport::TransportKind;
use simkit::fault::FaultPlan;
use simkit::SimDuration;

/// Which storage controller (and therefore which device mediator) the
/// machine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControllerKind {
    /// IDE/ATA with bus-master DMA (1,472-LOC mediator in the paper).
    Ide,
    /// AHCI (2,285-LOC mediator in the paper).
    Ahci,
}

/// Background-copy moderation parameters (§3.3).
///
/// "the VMM adjusts the write frequency based on the guest OS load and
/// three configurable parameters: guest I/O frequency threshold, VMM-write
/// interval, and VMM-write suspend interval."
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Moderation {
    /// Guest disk-I/O frequency above which the copier backs off,
    /// requests per second.
    pub guest_io_threshold_per_sec: f64,
    /// Gap between background writes when the guest is quiet.
    pub vmm_write_interval: SimDuration,
    /// Back-off applied while the guest is I/O-active.
    pub vmm_write_suspend_interval: SimDuration,
    /// How long the background retriever yields after the storage server
    /// flags itself busy (fleet-aware moderation: the reply-piggybacked
    /// hint means other machines' copy-on-read is queueing behind our
    /// elastic traffic). Zero disables the reaction.
    pub server_busy_backoff: SimDuration,
    /// Post-boot sprint: once the guest program has finished, the
    /// remaining background copy runs unmoderated (no write pacing, no
    /// busy-hint yield) and its reads carry the AoE completion-priority
    /// flag. The moderation above exists to protect a *running* guest
    /// and the boot reads of *other* machines; a machine that has
    /// already booted converts into a read-only serving peer the moment
    /// its bitmap fills, so in a peer-serving fleet finishing it fast
    /// grows total capacity instead of stealing it.
    pub post_boot_sprint: bool,
}

impl Default for Moderation {
    fn default() -> Self {
        // Calibrated so every §5 observation is consistent with ONE
        // configuration: an OS boot (thousands of small reads/s) and fio
        // (108 req/s) exceed the threshold and suspend the copier; an
        // idle or cache-bound guest (memcached), a commit-log stream
        // (~13 req/s), and 1-per-second ioping probes do not.
        Moderation {
            guest_io_threshold_per_sec: 50.0,
            vmm_write_interval: SimDuration::from_millis(18),
            vmm_write_suspend_interval: SimDuration::from_millis(500),
            server_busy_backoff: SimDuration::from_millis(100),
            post_boot_sprint: false,
        }
    }
}

impl Moderation {
    /// Full-speed copying: no pacing at all (the Figure 14 "Full-speed"
    /// configuration).
    pub fn full_speed() -> Moderation {
        Moderation {
            guest_io_threshold_per_sec: f64::INFINITY,
            vmm_write_interval: SimDuration::ZERO,
            vmm_write_suspend_interval: SimDuration::ZERO,
            server_busy_backoff: SimDuration::ZERO,
            post_boot_sprint: false,
        }
    }

    /// The delay before the next background write given the measured guest
    /// I/O rate.
    pub fn next_delay(&self, guest_io_per_sec: f64) -> SimDuration {
        if guest_io_per_sec > self.guest_io_threshold_per_sec {
            self.vmm_write_suspend_interval
        } else {
            self.vmm_write_interval
        }
    }
}

/// Top-level BMcast configuration.
#[derive(Debug, Clone)]
pub struct BmcastConfig {
    /// Background-copy block size in sectors (1024 KB in §5.6).
    pub copy_block_sectors: u32,
    /// Background-copy requests kept in flight by the retriever thread.
    pub retriever_depth: usize,
    /// Moderation parameters.
    pub moderation: Moderation,
    /// Fabric MTU (jumbo frames on the evaluation switch).
    pub mtu: u32,
    /// Whether to execute VMXOFF after deployment (fully implemented here;
    /// the paper's prototype needed a guest module).
    pub vmxoff_after_deploy: bool,
    /// Deterministic fault-injection plan. `None` runs a clean fabric;
    /// `Some(plan)` gives the machine's fabric a seeded
    /// [`simkit::fault::FaultInjector`] for its link verdicts, the AoE
    /// server and the disks, so any failure scenario (frame loss is the
    /// plan's `link.drop_rate`) replays byte-identically. A fleet member
    /// ignores it: the fleet's one fabric carries the fleet's plan.
    pub faults: Option<FaultPlan>,
    /// Deployment transport: how background-copy fetches, copy-on-read
    /// redirects, and snapshot-back writes travel the management fabric.
    /// The default plain-AoE transport reproduces every §5 figure
    /// byte-identically; `Batched` and `Rdma` are the extension
    /// transports raced by `reproduce --scaleout --transport`.
    pub transport: TransportKind,
}

impl Default for BmcastConfig {
    fn default() -> Self {
        BmcastConfig {
            copy_block_sectors: 2048, // 1024 KB
            retriever_depth: 4,
            moderation: Moderation::default(),
            mtu: 9000,
            vmxoff_after_deploy: true,
            faults: None,
            transport: TransportKind::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moderation_backs_off_under_guest_load() {
        let m = Moderation::default();
        assert_eq!(m.next_delay(0.0), m.vmm_write_interval);
        assert_eq!(m.next_delay(100.0), m.vmm_write_suspend_interval);
        assert!(m.vmm_write_suspend_interval > m.vmm_write_interval);
    }

    #[test]
    fn full_speed_never_waits() {
        let m = Moderation::full_speed();
        assert_eq!(m.next_delay(0.0), SimDuration::ZERO);
        assert_eq!(m.next_delay(1e9), SimDuration::ZERO);
    }

    #[test]
    fn default_copy_block_is_1mb() {
        let cfg = BmcastConfig::default();
        assert_eq!(cfg.copy_block_sectors as u64 * 512, 1 << 20);
    }
}
