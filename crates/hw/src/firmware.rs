//! Firmware (BIOS) initialization timing and boot paths.
//!
//! The evaluation machine — a FUJITSU PRIMERGY RX200 S6 server — takes
//! 133 seconds of firmware initialization before anything can boot, which
//! dominates reboot cost and is why image-copy deployment (which reboots
//! after the copy) is so slow. BMcast avoids the extra reboot entirely.

use simkit::SimDuration;

/// How the machine is booted after firmware initialization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BootPath {
    /// Boot from the local disk's boot sector.
    LocalDisk,
    /// PXE network boot (downloads the payload from the network).
    Pxe {
        /// Size of the downloaded boot payload in bytes.
        payload_bytes: u64,
    },
}

/// Firmware timing model for a server-class motherboard.
///
/// # Examples
///
/// ```
/// use hwsim::firmware::{FirmwareModel, BootPath};
/// let fw = FirmwareModel::primergy_rx200();
/// assert_eq!(fw.init_time().as_secs(), 133);
/// let pxe = fw.boot_handoff(BootPath::Pxe { payload_bytes: 16 << 20 }, 1_000_000_000);
/// assert!(pxe.as_secs() < 3);
/// ```
#[derive(Debug, Clone)]
pub struct FirmwareModel {
    /// Full POST + option-ROM initialization time.
    pub init: SimDuration,
    /// Fixed PXE/DHCP/TFTP negotiation overhead before payload download.
    pub pxe_overhead: SimDuration,
    /// Local boot-sector load and handoff time.
    pub local_handoff: SimDuration,
}

impl FirmwareModel {
    /// The evaluation machine's firmware: 133 s POST.
    pub fn primergy_rx200() -> FirmwareModel {
        FirmwareModel {
            init: SimDuration::from_secs(133),
            pxe_overhead: SimDuration::from_millis(1_500),
            local_handoff: SimDuration::from_millis(500),
        }
    }

    /// Firmware initialization (POST) time.
    pub fn init_time(&self) -> SimDuration {
        self.init
    }

    /// Time from end of POST until control reaches the boot payload.
    ///
    /// For PXE this includes downloading `payload_bytes` at `link_bps`.
    pub fn boot_handoff(&self, path: BootPath, link_bps: u64) -> SimDuration {
        match path {
            BootPath::LocalDisk => self.local_handoff,
            BootPath::Pxe { payload_bytes } => {
                let dl =
                    SimDuration::from_nanos(payload_bytes.saturating_mul(8_000_000_000) / link_bps);
                self.pxe_overhead + dl
            }
        }
    }

    /// A full restart: POST plus handoff. This is the "145 seconds to
    /// restart" the paper charges against image-copy deployment.
    pub fn restart_time(&self, path: BootPath, link_bps: u64) -> SimDuration {
        self.init + self.boot_handoff(path, link_bps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn post_dominates_restart() {
        let fw = FirmwareModel::primergy_rx200();
        let restart = fw.restart_time(BootPath::LocalDisk, 1_000_000_000);
        assert!(restart.as_secs() >= 133);
        assert!(restart.as_secs() < 140);
    }

    #[test]
    fn pxe_download_scales_with_payload() {
        let fw = FirmwareModel::primergy_rx200();
        let small = fw.boot_handoff(
            BootPath::Pxe {
                payload_bytes: 1 << 20,
            },
            1_000_000_000,
        );
        let big = fw.boot_handoff(
            BootPath::Pxe {
                payload_bytes: 64 << 20,
            },
            1_000_000_000,
        );
        assert!(big > small);
        // 64 MB at 1 Gb/s is about half a second of transfer.
        assert!(big.as_millis() > 1_900 && big.as_millis() < 2_200, "{big}");
    }

    #[test]
    fn local_handoff_is_fast() {
        let fw = FirmwareModel::primergy_rx200();
        assert!(fw.boot_handoff(BootPath::LocalDisk, 1).as_millis() <= 500);
    }
}
