//! Figure 7: kernbench (kernel compile) elapsed time.
//!
//! Four bars: Baremetal, BMcast during deployment (Deploy), BMcast after
//! de-virtualization (Devirt), and KVM. The first three replay the same
//! 12-lane compile through the discrete machine — so the Deploy bar's +8%
//! emerges from EPT on compile CPU plus compile I/O queueing behind
//! multiplexed background writes — and KVM is the platform model's factor.

use crate::platform::{finish, Platform};
use crate::{Check, Figure, Row, Scale};
use bmcast::config::Moderation;
use bmcast::programs::KernbenchProgram;
use guestsim::workload::kernbench::KernbenchJob;
use hwsim::block::Lba;

fn job(scale: Scale) -> KernbenchJob {
    let mut j = KernbenchJob::paper(Lba(1 << 16));
    if scale == Scale::Quick {
        j.cpu_secs = 4.0;
        j.units = 120;
    }
    j
}

/// Measured elapsed seconds per configuration.
#[derive(Debug, Clone, Copy)]
pub struct KernbenchResults {
    /// Bare metal.
    pub baremetal: f64,
    /// BMcast while deploying.
    pub deploy: f64,
    /// BMcast after de-virtualization.
    pub devirt: f64,
    /// KVM.
    pub kvm: f64,
}

/// Runs the measurements.
pub fn measure(scale: Scale) -> KernbenchResults {
    let spec = scale.spec(2 << 30, 1 << 30);
    let job = job(scale);
    let elapsed = |platform: Platform| {
        finish(&mut platform.runner(&spec), KernbenchProgram::new(job, 11)).as_secs_f64()
    };

    let baremetal = elapsed(Platform::Baremetal);
    // Deploy: start the compile immediately; moderation must keep the
    // copier off the compile's back. Compile I/O is bursty enough to stay
    // under the threshold, so writes continue at the normal interval.
    let deploy = elapsed(Platform::Deploy(Moderation {
        guest_io_threshold_per_sec: 30.0,
        ..Moderation::default()
    }));
    // Devirt: finish deployment first, then compile on the same machine.
    let devirt = elapsed(Platform::Devirt { resident: false });

    let kvm_factor = 1.03; // §5.4: pure virtualization overhead of KVM
    KernbenchResults {
        baremetal,
        deploy,
        devirt,
        kvm: baremetal * kvm_factor,
    }
}

/// Regenerates Figure 7.
pub fn run(scale: Scale) -> Figure {
    let r = measure(scale);
    let rows = vec![
        Row::new("Baremetal", vec![("elapsed s".into(), r.baremetal)]),
        Row::new("Deploy", vec![("elapsed s".into(), r.deploy)]),
        Row::new("Devirt", vec![("elapsed s".into(), r.devirt)]),
        Row::new("KVM", vec![("elapsed s".into(), r.kvm)]),
    ];
    let mut checks = vec![
        Check::new(
            "Deploy overhead vs baremetal",
            8.0,
            (r.deploy / r.baremetal - 1.0) * 100.0,
            "%",
        ),
        Check::new(
            "Devirt overhead vs baremetal",
            0.0,
            (r.devirt / r.baremetal - 1.0) * 100.0,
            "%",
        ),
        Check::new(
            "KVM overhead vs baremetal",
            3.0,
            (r.kvm / r.baremetal - 1.0) * 100.0,
            "%",
        ),
    ];
    if scale == Scale::Paper {
        checks.push(Check::new("baremetal elapsed", 16.0, r.baremetal, "s"));
    }
    Figure {
        id: "fig07",
        title: "kernbench elapsed time",
        unit: "seconds",
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
        assert!(r.deploy > r.baremetal, "deploy pays overhead");
        let devirt_overhead = (r.devirt / r.baremetal - 1.0).abs();
        assert!(
            devirt_overhead < 0.01,
            "devirt must be native, was {:+.2}%",
            devirt_overhead * 100.0
        );
        assert!(r.kvm > r.baremetal);
    }
}
