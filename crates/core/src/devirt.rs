//! De-virtualization (§3.4): turning the VMM off underneath a running
//! guest — and the inverse, re-virtualization, for the elasticity
//! lifecycle (M2, "Malleable Metal as a Service").
//!
//! Preconditions: deployment complete (bitmap full) and the mediated
//! device in a *consistent hardware state* (no held, queued, or
//! multiplexed command). Then, per CPU and at each CPU's own pace —
//! possible only because the mapping is constant identity, so no
//! IPI-based TLB shootdown is needed — nested paging is disabled and the
//! TLB invalidated; once every CPU is done, traps are cleared and VMXOFF
//! executed. From that instant no guest access can exit: bare metal.
//!
//! Re-virtualization runs the same steps backwards, again per CPU at
//! each CPU's own pace: VMXON, identity EPT re-established, device traps
//! re-armed, the polling preemption timer restarted. Once every CPU is
//! back under the VMM the mediator interposes again and the machine can
//! snapshot its dirty blocks back to the server and be reclaimed for a
//! new tenant.

use hwsim::vtx::VtxCpu;
use simkit::{SimDuration, SimTime, Spans, NO_SPAN};

/// Where the machine is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// VMM booting and taking control.
    Initialization,
    /// Streaming deployment: copy-on-read + background copy.
    Deployment,
    /// Per-CPU nested-paging teardown in progress.
    Devirtualization,
    /// The VMM is gone; the guest owns the hardware.
    BareMetal,
    /// Per-CPU VMXON + trap re-arming in progress: the VMM is taking the
    /// hardware back from a bare-metal tenant.
    Revirtualization,
    /// The VMM interposes again and streams the tenant's dirty blocks
    /// back to the server before the machine is reclaimed.
    SnapshotBack,
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Phase::Initialization => "initialization",
            Phase::Deployment => "deployment",
            Phase::Devirtualization => "de-virtualization",
            Phase::BareMetal => "bare-metal",
            Phase::Revirtualization => "re-virtualization",
            Phase::SnapshotBack => "snapshot-back",
        };
        f.write_str(s)
    }
}

/// Sequences the per-CPU de-virtualization steps.
///
/// # Examples
///
/// ```
/// use bmcast::devirt::DevirtSequencer;
/// use hwsim::vtx::VtxCpu;
/// use simkit::SimTime;
///
/// let mut cpus: Vec<VtxCpu> = (0..4).map(|_| { let mut c = VtxCpu::new(); c.vmxon(); c }).collect();
/// let mut seq = DevirtSequencer::new(cpus.len());
/// for i in 0..cpus.len() {
///     seq.devirtualize_cpu(SimTime::ZERO, i, &mut cpus[i]);
/// }
/// assert!(seq.all_done());
/// for cpu in &cpus {
///     assert!(!cpu.vmx_on());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct DevirtSequencer {
    done: Vec<bool>,
    total_cost: SimDuration,
    spans: Spans,
}

impl DevirtSequencer {
    /// A sequencer for `cpus` CPUs.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is zero.
    pub fn new(cpus: usize) -> DevirtSequencer {
        assert!(cpus > 0, "need at least one CPU");
        DevirtSequencer {
            done: vec![false; cpus],
            total_cost: SimDuration::ZERO,
            spans: Spans::disabled(),
        }
    }

    /// Attaches a flight-recorder span handle; per-CPU teardown spans on
    /// the `devirt` track land there.
    pub fn set_spans(&mut self, spans: Spans) {
        self.spans = spans;
    }

    /// De-virtualizes one CPU: EPT off, local TLB invalidation, trap
    /// clearing, VMXOFF. Each CPU can run this at any time relative to
    /// the others. Returns the cost on that CPU, recorded as a complete
    /// `devirt.cpu` span starting at `now`. Idempotent.
    pub fn devirtualize_cpu(
        &mut self,
        now: SimTime,
        index: usize,
        cpu: &mut VtxCpu,
    ) -> SimDuration {
        if self.done[index] {
            return SimDuration::ZERO;
        }
        let mut cost = cpu.disable_ept();
        cpu.vmxoff();
        // VMXOFF itself plus the state restoration dance (§4.3) is a few
        // microseconds of guest-context trampoline.
        cost += SimDuration::from_micros(5);
        self.done[index] = true;
        self.total_cost += cost;
        self.spans
            .record(now, now + cost, "devirt", "devirt.cpu", NO_SPAN, || {
                format!("cpu {index} vmxoff")
            });
        cost
    }

    /// Records that a CPU finished the *resident-mode* teardown (EPT and
    /// traps off, VMX still on so the VMM can keep hiding the management
    /// NIC). Counts toward [`DevirtSequencer::all_done`]; a
    /// `devirt.resident` instant at `now` marks the CPU.
    pub fn mark_resident(&mut self, now: SimTime, index: usize) {
        self.spans
            .instant(now, "devirt", "devirt.resident", NO_SPAN, || {
                format!("cpu {index} resident mode")
            });
        self.done[index] = true;
    }

    /// Re-virtualizes one CPU: VMXON, identity EPT re-established, TLB
    /// invalidated. Like teardown this needs no cross-CPU coordination,
    /// so each CPU re-enters VMX at its own pace. Stale trap ranges from
    /// the previous tenancy are dropped — the caller re-arms the device
    /// trap set and the polling preemption timer afterwards. Returns the
    /// cost on that CPU, recorded as a complete `revirt.cpu` span on the
    /// `devirt` track starting at `now`; idempotent (a CPU that never
    /// de-virtualized, or was already re-virtualized, costs nothing).
    pub fn revirtualize_cpu(
        &mut self,
        now: SimTime,
        index: usize,
        cpu: &mut VtxCpu,
    ) -> SimDuration {
        if !self.done[index] {
            return SimDuration::ZERO;
        }
        cpu.clear_traps();
        cpu.vmxon();
        // VMXON plus rebuilding the identity EPT root and the INVEPT on
        // re-entry mirror the teardown dance: a few microseconds.
        let cost = SimDuration::from_micros(7);
        self.done[index] = false;
        self.total_cost += cost;
        self.spans
            .record(now, now + cost, "devirt", "revirt.cpu", NO_SPAN, || {
                format!("cpu {index} vmxon")
            });
        cost
    }

    /// Whether every CPU is back under the VMM (the inverse of
    /// [`DevirtSequencer::all_done`]).
    pub fn all_virtualized(&self) -> bool {
        self.done.iter().all(|&d| !d)
    }

    /// Whether every CPU is bare-metal.
    pub fn all_done(&self) -> bool {
        self.done.iter().all(|&d| d)
    }

    /// Aggregate CPU time the teardown cost.
    pub fn total_cost(&self) -> SimDuration {
        self.total_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn virt_cpus(n: usize) -> Vec<VtxCpu> {
        (0..n)
            .map(|_| {
                let mut c = VtxCpu::new();
                c.vmxon();
                c.trap_pio_range(0x1F0, 0x1F7);
                c
            })
            .collect()
    }

    #[test]
    fn cpus_devirtualize_independently() {
        let mut cpus = virt_cpus(4);
        let mut seq = DevirtSequencer::new(4);
        // Out of order, as the paper allows ("at different timings").
        for i in [2, 0, 3, 1] {
            assert!(!seq.all_done());
            let cost = seq.devirtualize_cpu(SimTime::ZERO, i, &mut cpus[i]);
            assert!(cost > SimDuration::ZERO);
            assert!(!cpus[i].vmx_on());
            assert!(!cpus[i].ept_on());
        }
        assert!(seq.all_done());
    }

    #[test]
    fn partially_devirtualized_machine_mixes_states() {
        let mut cpus = virt_cpus(2);
        let mut seq = DevirtSequencer::new(2);
        seq.devirtualize_cpu(SimTime::ZERO, 0, &mut cpus[0]);
        assert!(!cpus[0].exits_on_pio(0x1F0), "cpu0 is bare metal");
        assert!(cpus[1].exits_on_pio(0x1F0), "cpu1 still traps");
    }

    #[test]
    fn idempotent_per_cpu() {
        let mut cpus = virt_cpus(1);
        let mut seq = DevirtSequencer::new(1);
        let first = seq.devirtualize_cpu(SimTime::ZERO, 0, &mut cpus[0]);
        let second = seq.devirtualize_cpu(SimTime::ZERO, 0, &mut cpus[0]);
        assert!(first > SimDuration::ZERO);
        assert_eq!(second, SimDuration::ZERO);
        assert_eq!(seq.total_cost(), first);
    }

    #[test]
    fn total_teardown_is_fast() {
        // The paper observes "no suspension or performance degradation
        // during the phase shift": the whole teardown is microseconds.
        let mut cpus = virt_cpus(24);
        let mut seq = DevirtSequencer::new(24);
        for (i, cpu) in cpus.iter_mut().enumerate() {
            seq.devirtualize_cpu(SimTime::ZERO, i, cpu);
        }
        assert!(seq.total_cost() < SimDuration::from_millis(1));
    }

    #[test]
    fn revirtualize_inverts_teardown() {
        let mut cpus = virt_cpus(4);
        let mut seq = DevirtSequencer::new(4);
        for (i, cpu) in cpus.iter_mut().enumerate() {
            seq.devirtualize_cpu(SimTime::ZERO, i, cpu);
        }
        assert!(seq.all_done());
        // Re-enter out of order, as independently as the teardown.
        for i in [3, 1, 0, 2] {
            assert!(!seq.all_virtualized());
            let cost = seq.revirtualize_cpu(SimTime::ZERO, i, &mut cpus[i]);
            assert!(cost > SimDuration::ZERO);
            assert!(cpus[i].vmx_on());
            assert!(cpus[i].ept_on());
        }
        assert!(seq.all_virtualized());
    }

    #[test]
    fn revirtualize_drops_stale_traps_and_is_idempotent() {
        let mut cpus = virt_cpus(1);
        let mut seq = DevirtSequencer::new(1);
        // A CPU that never de-virtualized re-enters for free.
        assert_eq!(
            seq.revirtualize_cpu(SimTime::ZERO, 0, &mut cpus[0]),
            SimDuration::ZERO
        );
        seq.devirtualize_cpu(SimTime::ZERO, 0, &mut cpus[0]);
        // vmxoff leaves the old trap vector in place (it is dead while
        // VMX is off); re-entry must not resurrect it.
        let first = seq.revirtualize_cpu(SimTime::ZERO, 0, &mut cpus[0]);
        assert!(first > SimDuration::ZERO);
        assert!(!cpus[0].exits_on_pio(0x1F0), "stale tenant traps dropped");
        cpus[0].trap_pio_range(0x1F0, 0x1F7);
        assert!(cpus[0].exits_on_pio(0x1F0), "caller re-arms traps");
        assert_eq!(
            seq.revirtualize_cpu(SimTime::ZERO, 0, &mut cpus[0]),
            SimDuration::ZERO
        );
    }

    #[test]
    fn lifecycle_round_trips_per_cpu() {
        let mut cpus = virt_cpus(2);
        let mut seq = DevirtSequencer::new(2);
        for _cycle in 0..3 {
            for (i, cpu) in cpus.iter_mut().enumerate() {
                seq.devirtualize_cpu(SimTime::ZERO, i, cpu);
            }
            assert!(seq.all_done());
            for (i, cpu) in cpus.iter_mut().enumerate() {
                seq.revirtualize_cpu(SimTime::ZERO, i, cpu);
            }
            assert!(seq.all_virtualized());
        }
    }

    #[test]
    fn phase_display() {
        assert_eq!(Phase::Deployment.to_string(), "deployment");
        assert_eq!(Phase::BareMetal.to_string(), "bare-metal");
        assert_eq!(Phase::Revirtualization.to_string(), "re-virtualization");
        assert_eq!(Phase::SnapshotBack.to_string(), "snapshot-back");
    }
}
