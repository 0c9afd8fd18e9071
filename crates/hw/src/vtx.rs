//! Intel VT-x model: VM exits, exit costs, EPT, preemption timer, VMXOFF.
//!
//! BMcast's overhead argument is about *which events exit* and *what each
//! exit costs*: the VMM traps only storage-controller PIO/MMIO, INIT/SIPI,
//! control-register writes, CPUID (architecturally unconditional), and its
//! preemption timer; everything else runs at native speed. This module
//! models exactly that: a per-CPU trap configuration, a cost accounting of
//! exits taken, and the nested-paging (EPT) TLB model behind the paper's
//! "TLB misses increased up to 5 times and TLB-miss latency doubled".

use simkit::SimDuration;

/// Why a VM exit occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExitReason {
    /// IN from a trapped port.
    PioRead(u16),
    /// OUT to a trapped port.
    PioWrite(u16),
    /// Read fault in an unmapped EPT range.
    MmioRead(u64),
    /// Write fault in an unmapped EPT range.
    MmioWrite(u64),
    /// CPUID executes (unconditional exit on VT-x).
    Cpuid,
    /// The VMX preemption timer fired (BMcast's polling tick).
    PreemptionTimer,
    /// INIT signal or Startup IPI (boot detection).
    InitSipi,
    /// A trapped CR0/CR4 bit changed.
    CrAccess,
}

impl ExitReason {
    /// Coarse category for counting.
    pub fn category(self) -> ExitCategory {
        match self {
            ExitReason::PioRead(_) | ExitReason::PioWrite(_) => ExitCategory::Pio,
            ExitReason::MmioRead(_) | ExitReason::MmioWrite(_) => ExitCategory::Mmio,
            ExitReason::Cpuid => ExitCategory::Cpuid,
            ExitReason::PreemptionTimer => ExitCategory::Timer,
            ExitReason::InitSipi | ExitReason::CrAccess => ExitCategory::Control,
        }
    }
}

/// Exit-reason categories for statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitCategory {
    /// Port I/O exits.
    Pio,
    /// EPT-violation (MMIO) exits.
    Mmio,
    /// CPUID exits.
    Cpuid,
    /// Preemption-timer exits.
    Timer,
    /// INIT/SIPI and CR-access exits.
    Control,
}

impl ExitCategory {
    /// All categories, in counter order.
    pub const ALL: [ExitCategory; 5] = [
        ExitCategory::Pio,
        ExitCategory::Mmio,
        ExitCategory::Cpuid,
        ExitCategory::Timer,
        ExitCategory::Control,
    ];

    fn index(self) -> usize {
        match self {
            ExitCategory::Pio => 0,
            ExitCategory::Mmio => 1,
            ExitCategory::Cpuid => 2,
            ExitCategory::Timer => 3,
            ExitCategory::Control => 4,
        }
    }
}

/// Cost of a VM exit round trip (exit + handler dispatch + resume).
#[derive(Debug, Clone)]
pub struct ExitCosts {
    /// World-switch cost paid by every exit.
    pub base: SimDuration,
    /// Extra decode cost for EPT-violation exits (page-walk + emulation).
    pub mmio_extra: SimDuration,
}

impl Default for ExitCosts {
    fn default() -> Self {
        ExitCosts {
            // ~1.2 us round trip on Westmere-class hardware.
            base: SimDuration::from_nanos(1_200),
            mmio_extra: SimDuration::from_nanos(400),
        }
    }
}

impl ExitCosts {
    /// Cost of one exit with the given reason.
    pub fn cost(&self, reason: ExitReason) -> SimDuration {
        match reason.category() {
            ExitCategory::Mmio => self.base + self.mmio_extra,
            _ => self.base,
        }
    }
}

/// Nested-paging TLB model.
///
/// With EPT enabled, page walks become two-dimensional: the paper measured
/// TLB misses increasing up to 5× and per-miss latency doubling.
#[derive(Debug, Clone)]
pub struct EptModel {
    /// Multiplier on TLB miss *rate* under nested paging.
    pub tlb_miss_rate_mult: f64,
    /// Multiplier on TLB miss *latency* (two-dimensional walk).
    pub tlb_miss_latency_mult: f64,
}

impl Default for EptModel {
    fn default() -> Self {
        EptModel {
            tlb_miss_rate_mult: 5.0,
            tlb_miss_latency_mult: 2.0,
        }
    }
}

impl EptModel {
    /// Runtime slowdown factor for a workload that spends `tlb_share` of
    /// its native runtime servicing TLB misses (e.g. 0.006 = 0.6%).
    ///
    /// Returns 1.0 when `tlb_share` is 0.
    pub fn slowdown(&self, tlb_share: f64) -> f64 {
        let share = tlb_share.clamp(0.0, 1.0);
        1.0 + share * (self.tlb_miss_rate_mult * self.tlb_miss_latency_mult - 1.0)
    }
}

/// One logical CPU's VT-x state.
///
/// # Examples
///
/// ```
/// use hwsim::vtx::{VtxCpu, ExitReason};
///
/// let mut cpu = VtxCpu::new();
/// cpu.vmxon();
/// cpu.trap_pio_range(0x1F0, 0x1F7);
/// assert!(cpu.exits_on_pio(0x1F0));
/// assert!(!cpu.exits_on_pio(0x80));
/// let cost = cpu.charge_exit(ExitReason::PioWrite(0x1F0));
/// assert!(cost.as_nanos() > 0);
/// cpu.disable_ept();
/// cpu.vmxoff();
/// assert!(!cpu.exits_on_pio(0x1F0)); // bare metal again
/// ```
#[derive(Debug, Clone)]
pub struct VtxCpu {
    vmx_on: bool,
    ept_on: bool,
    pio_ranges: Vec<(u16, u16)>,
    mmio_ranges: Vec<(u64, u64)>,
    preemption_timer: Option<SimDuration>,
    costs: ExitCosts,
    ept: EptModel,
    exit_counts: [u64; 5],
}

impl Default for VtxCpu {
    fn default() -> Self {
        VtxCpu::new()
    }
}

impl VtxCpu {
    /// A CPU in bare-metal state (VMX off).
    pub fn new() -> VtxCpu {
        VtxCpu {
            vmx_on: false,
            ept_on: false,
            pio_ranges: Vec::new(),
            mmio_ranges: Vec::new(),
            preemption_timer: None,
            costs: ExitCosts::default(),
            ept: EptModel::default(),
            exit_counts: [0; 5],
        }
    }

    /// Enters VMX root operation and enables EPT (identity-mapped, with
    /// the VMM region protected — mapping details are structural in this
    /// model).
    pub fn vmxon(&mut self) {
        self.vmx_on = true;
        self.ept_on = true;
    }

    /// Whether the CPU is running under the VMM.
    pub fn vmx_on(&self) -> bool {
        self.vmx_on
    }

    /// Whether nested paging is active.
    pub fn ept_on(&self) -> bool {
        self.ept_on
    }

    /// The configured exit-cost model.
    pub fn costs(&self) -> &ExitCosts {
        &self.costs
    }

    /// Adds an inclusive port range that triggers PIO exits.
    pub fn trap_pio_range(&mut self, lo: u16, hi: u16) {
        assert!(lo <= hi, "trap_pio_range: inverted range");
        self.pio_ranges.push((lo, hi));
    }

    /// Adds an inclusive physical-address range kept unmapped in EPT so
    /// accesses fault (MMIO exits).
    pub fn trap_mmio_range(&mut self, lo: u64, hi: u64) {
        assert!(lo <= hi, "trap_mmio_range: inverted range");
        self.mmio_ranges.push((lo, hi));
    }

    /// Removes all trap ranges (used at de-virtualization).
    pub fn clear_traps(&mut self) {
        self.pio_ranges.clear();
        self.mmio_ranges.clear();
    }

    /// Whether an access to `port` exits. Always false once VMX is off.
    pub fn exits_on_pio(&self, port: u16) -> bool {
        self.vmx_on
            && self
                .pio_ranges
                .iter()
                .any(|&(lo, hi)| (lo..=hi).contains(&port))
    }

    /// Whether an access to physical address `addr` exits.
    pub fn exits_on_mmio(&self, addr: u64) -> bool {
        self.vmx_on
            && self
                .mmio_ranges
                .iter()
                .any(|&(lo, hi)| (lo..=hi).contains(&addr))
    }

    /// Configures the VMX preemption timer (BMcast's polling tick), or
    /// disables it with `None`.
    pub fn set_preemption_timer(&mut self, interval: Option<SimDuration>) {
        self.preemption_timer = interval;
    }

    /// The preemption-timer interval, if armed.
    pub fn preemption_timer(&self) -> Option<SimDuration> {
        self.preemption_timer
    }

    /// Records a VM exit and returns its cost.
    ///
    /// # Panics
    ///
    /// Panics if VMX is off — exits cannot occur on bare metal.
    pub fn charge_exit(&mut self, reason: ExitReason) -> SimDuration {
        assert!(self.vmx_on, "VM exit while VMX is off");
        let cost = self.costs.cost(reason);
        self.exit_counts[reason.category().index()] += 1;
        cost
    }

    /// Exits taken in a category.
    pub fn exits_in(&self, cat: ExitCategory) -> u64 {
        self.exit_counts[cat.index()]
    }

    /// Total exits taken.
    pub fn total_exits(&self) -> u64 {
        self.exit_counts.iter().sum()
    }

    /// Runtime slowdown factor for a workload spending `tlb_share` of its
    /// native runtime in TLB misses. 1.0 whenever EPT is off.
    pub fn memory_slowdown(&self, tlb_share: f64) -> f64 {
        if self.ept_on {
            self.ept.slowdown(tlb_share)
        } else {
            1.0
        }
    }

    /// Turns nested paging off on this CPU and invalidates its TLB.
    ///
    /// No IPI-based shootdown is needed: the mapping is constant
    /// (identity) for the VMM's whole lifetime, so each CPU can do this at
    /// its own pace (§3.4). Returns the INVEPT + reconfiguration cost.
    pub fn disable_ept(&mut self) -> SimDuration {
        self.ept_on = false;
        SimDuration::from_micros(2)
    }

    /// Leaves VMX operation: the CPU is bare-metal afterwards.
    ///
    /// # Panics
    ///
    /// Panics if EPT is still enabled — BMcast disables nested paging on
    /// every CPU before terminating virtualization.
    pub fn vmxoff(&mut self) {
        assert!(
            !self.ept_on,
            "vmxoff requires nested paging to be disabled first"
        );
        self.vmx_on = false;
        self.preemption_timer = None;
        self.clear_traps();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traps_only_configured_ranges() {
        let mut cpu = VtxCpu::new();
        cpu.vmxon();
        cpu.trap_pio_range(0x1F0, 0x1F7);
        cpu.trap_mmio_range(0x1000, 0x1FFF);
        assert!(cpu.exits_on_pio(0x1F3));
        assert!(!cpu.exits_on_pio(0x2F8));
        assert!(cpu.exits_on_mmio(0x1800));
        assert!(!cpu.exits_on_mmio(0x2000));
    }

    #[test]
    fn no_exits_when_vmx_off() {
        let mut cpu = VtxCpu::new();
        cpu.trap_pio_range(0, u16::MAX);
        assert!(!cpu.exits_on_pio(0x1F0), "bare metal never exits");
    }

    #[test]
    fn exit_accounting() {
        let mut cpu = VtxCpu::new();
        cpu.vmxon();
        cpu.charge_exit(ExitReason::PioRead(0x1F7));
        cpu.charge_exit(ExitReason::PioWrite(0x1F7));
        cpu.charge_exit(ExitReason::MmioWrite(0x1000));
        cpu.charge_exit(ExitReason::Cpuid);
        assert_eq!(cpu.exits_in(ExitCategory::Pio), 2);
        assert_eq!(cpu.exits_in(ExitCategory::Mmio), 1);
        assert_eq!(cpu.exits_in(ExitCategory::Cpuid), 1);
        assert_eq!(cpu.total_exits(), 4);
        // MMIO exits cost more than PIO exits.
        let c = cpu.costs();
        assert!(c.cost(ExitReason::MmioRead(0)) > c.cost(ExitReason::PioRead(0)));
    }

    #[test]
    fn ept_slowdown_matches_model() {
        let ept = EptModel::default();
        // 5x misses at 2x latency: a 0.6% TLB share becomes ~6% overhead.
        let f = ept.slowdown(0.006);
        assert!((f - 1.054).abs() < 0.001, "factor was {f}");
        assert_eq!(ept.slowdown(0.0), 1.0);
    }

    #[test]
    fn memory_slowdown_gone_after_ept_off() {
        let mut cpu = VtxCpu::new();
        cpu.vmxon();
        assert!(cpu.memory_slowdown(0.01) > 1.0);
        cpu.disable_ept();
        assert_eq!(cpu.memory_slowdown(0.01), 1.0);
    }

    #[test]
    fn devirtualization_sequence() {
        let mut cpu = VtxCpu::new();
        cpu.vmxon();
        cpu.trap_pio_range(0x1F0, 0x1F7);
        cpu.set_preemption_timer(Some(SimDuration::from_micros(50)));
        cpu.disable_ept();
        cpu.vmxoff();
        assert!(!cpu.vmx_on());
        assert!(!cpu.exits_on_pio(0x1F0));
        assert!(cpu.preemption_timer().is_none());
    }

    #[test]
    #[should_panic(expected = "nested paging")]
    fn vmxoff_with_ept_on_panics() {
        let mut cpu = VtxCpu::new();
        cpu.vmxon();
        cpu.vmxoff();
    }

    #[test]
    #[should_panic(expected = "VMX is off")]
    fn exit_on_bare_metal_panics() {
        let mut cpu = VtxCpu::new();
        cpu.charge_exit(ExitReason::Cpuid);
    }
}
