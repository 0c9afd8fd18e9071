//! The single-machine harness: one machine geometry per [`Scale`], the
//! three platforms figures 4, 5, 7, 10, 11 and 14 compare, and one
//! timed program run.

use crate::Scale;
use bmcast::config::{BmcastConfig, Moderation};
use bmcast::deploy::Runner;
use bmcast::machine::{GuestProgram, MachineSpec};
use simkit::{SimDuration, SimTime};

/// How long a program may run in [`finish`]. A run that finishes ends
/// at the same instant under any limit it meets, so one serves all.
const PROGRAM_LIMIT: SimDuration = SimDuration::from_secs(3_600);

/// How long a Devirt machine may take to reach bare metal.
const BARE_METAL_LIMIT: SimTime = SimTime::from_secs(4 * 3_600);

impl Scale {
    /// The paper's machine (a 32 GiB image on a 64 GiB disk) at
    /// [`Scale::Paper`]; otherwise an `image_bytes` image on a
    /// `disk_bytes` disk.
    pub fn spec(self, disk_bytes: u64, image_bytes: u64) -> MachineSpec {
        match self {
            Scale::Paper => MachineSpec::default(),
            Scale::Quick => MachineSpec {
                capacity_sectors: disk_bytes / 512,
                image_sectors: image_bytes / 512,
                ..MachineSpec::default()
            },
        }
    }
}

/// A platform a single-machine figure measures.
#[derive(Debug, Clone, Copy)]
pub enum Platform {
    /// The image pre-installed on the local disk; no VMM.
    Baremetal,
    /// BMcast in the deployment phase, its background copy paced by this
    /// moderation.
    Deploy(Moderation),
    /// BMcast after a full-speed deployment and de-virtualization. A
    /// `resident` VMM stays in VMX root with EPT and traps off, to keep
    /// the management NIC hidden (§4.3); otherwise every CPU leaves VMX.
    Devirt {
        /// Whether the VMM stays resident.
        resident: bool,
    },
}

impl Platform {
    /// A machine of `spec` on this platform; a Devirt machine has
    /// already reached bare metal.
    ///
    /// # Panics
    ///
    /// Panics if a Devirt deployment takes over four simulated hours.
    pub fn runner(self, spec: &MachineSpec) -> Runner {
        match self {
            Platform::Baremetal => Runner::bare_metal(spec),
            Platform::Deploy(moderation) => Runner::bmcast(
                spec,
                BmcastConfig {
                    moderation,
                    ..BmcastConfig::default()
                },
            ),
            Platform::Devirt { resident } => {
                let mut runner = Runner::bmcast(
                    spec,
                    BmcastConfig {
                        moderation: Moderation::full_speed(),
                        vmxoff_after_deploy: !resident,
                        ..BmcastConfig::default()
                    },
                );
                runner
                    .run_to_bare_metal(BARE_METAL_LIMIT)
                    .expect("deployment completes");
                runner
            }
        }
    }
}

/// Starts `program` on `runner`, runs it to its finish and returns how
/// long it ran.
///
/// # Panics
///
/// Panics, naming the program, if it runs over a simulated hour.
pub fn finish(runner: &mut Runner, program: impl GuestProgram + 'static) -> SimDuration {
    let name = program.name().to_owned();
    let start = runner.now();
    runner.start_program(Box::new(program));
    runner
        .run_to_finish(start + PROGRAM_LIMIT)
        .unwrap_or_else(|| panic!("{name} did not finish within {PROGRAM_LIMIT}"))
        .duration_since(start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmcast::devirt::Phase;
    use bmcast::machine::MGMT_NIC_BDF;

    #[test]
    fn each_platform_builds_the_machine_it_names() {
        let spec = Scale::Quick.spec(64 << 20, 32 << 20);

        let bare = Platform::Baremetal.runner(&spec);
        assert!(bare.machine().vmm.is_none(), "bare metal runs no VMM");

        let moderation = Moderation {
            guest_io_threshold_per_sec: 30.0,
            ..Moderation::default()
        };
        let deploying = Platform::Deploy(moderation).runner(&spec);
        let vmm = deploying.machine().vmm.as_ref().expect("Deploy runs a VMM");
        assert_eq!(vmm.cfg.moderation, moderation);
        assert_ne!(deploying.machine().phase(), Phase::BareMetal);

        let devirted = Platform::Devirt { resident: false }.runner(&spec);
        let m = devirted.machine();
        assert_eq!(m.phase(), Phase::BareMetal);
        assert!(m.hw.cpus.iter().all(|c| !c.vmx_on()), "every CPU left VMX");

        let resident = Platform::Devirt { resident: true }.runner(&spec);
        let m = resident.machine();
        assert_eq!(m.phase(), Phase::BareMetal);
        assert!(
            m.hw.cpus.iter().all(|c| c.vmx_on() && !c.ept_on()),
            "a resident VMM keeps VMX on with EPT off"
        );
        assert!(m.hw.pci.is_hidden(MGMT_NIC_BDF), "and hides its NIC");
    }
}
