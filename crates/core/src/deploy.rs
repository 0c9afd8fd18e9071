//! Deployment orchestration: the four-phase lifecycle (§3.1), startup
//! timelines, and the [`Runner`] facade that owns a machine plus its
//! event loop.

use crate::config::BmcastConfig;
use crate::devirt::Phase;
use crate::machine::{
    sample_flight_row, start_deployment, start_flight_sampler, start_program, DeployError,
    GuestProgram, Machine, MachineSim, MachineSpec,
};
use hwsim::firmware::{BootPath, FirmwareModel};
use simkit::{Metrics, MetricsSnapshot, Sampler, SimDuration, SimTime, Spans, Tracer};

/// Size of the network-booted VMM payload (kernel + ramdisk).
pub const VMM_PAYLOAD_BYTES: u64 = 16 << 20;

/// The VMM's own initialization time after PXE handoff. The paper
/// minimizes this by initializing only the dedicated NIC and
/// parallelizing; "the actual boot time is within a few seconds".
pub const VMM_INIT: SimDuration = SimDuration::from_millis(3_350);

/// Time for the BMcast VMM to network-boot and take control, from
/// end-of-POST to guest start. Composes PXE negotiation + payload
/// download + parallel init; ≈ 5 s, matching §5.1.
pub fn vmm_boot_time(fw: &FirmwareModel, link_bps: u64) -> SimDuration {
    fw.boot_handoff(
        BootPath::Pxe {
            payload_bytes: VMM_PAYLOAD_BYTES,
        },
        link_bps,
    ) + VMM_INIT
}

/// A labeled startup timeline (the bars of Figure 4).
#[derive(Debug, Clone, Default)]
pub struct StartupTimeline {
    /// `(label, duration)` segments in order.
    pub segments: Vec<(String, SimDuration)>,
}

impl StartupTimeline {
    /// Adds a segment.
    pub fn push(&mut self, label: impl Into<String>, d: SimDuration) {
        self.segments.push((label.into(), d));
    }

    /// Total startup time.
    pub fn total(&self) -> SimDuration {
        self.segments.iter().map(|(_, d)| *d).sum()
    }

    /// Total excluding firmware segments (the paper's "8.6 times faster
    /// (excluding the first firmware initialization)" comparison).
    pub fn total_excluding_firmware(&self) -> SimDuration {
        self.segments
            .iter()
            .filter(|(l, _)| !l.contains("firmware"))
            .map(|(_, d)| *d)
            .sum()
    }
}

impl std::fmt::Display for StartupTimeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (label, d) in &self.segments {
            writeln!(f, "  {label:<28} {:>8.1} s", d.as_secs_f64())?;
        }
        write!(f, "  {:<28} {:>8.1} s", "total", self.total().as_secs_f64())
    }
}

/// Wall-clock breakdown of the deployment lifecycle, derived from the
/// timestamps the machine records at each phase transition.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Start of deployment to bitmap-complete (§3 phases 2–3).
    pub deployment: Option<SimDuration>,
    /// Bitmap-complete to every CPU de-virtualized (§3.4).
    pub devirtualization: Option<SimDuration>,
}

impl std::fmt::Display for PhaseTimings {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fmt = |d: Option<SimDuration>| match d {
            Some(d) if d.as_micros() < 10_000 => format!("{} us", d.as_micros()),
            Some(d) => format!("{:.3} s", d.as_secs_f64()),
            None => "—".to_string(),
        };
        writeln!(f, "  {:<20} {}", "deployment", fmt(self.deployment))?;
        write!(
            f,
            "  {:<20} {}",
            "devirtualization",
            fmt(self.devirtualization)
        )
    }
}

/// Flight-recorder sizing: how much observability state a recorded run
/// keeps, and how often the timeline sampler ticks.
#[derive(Debug, Clone, Copy)]
pub struct FlightRecorderConfig {
    /// Trace-event ring capacity (events beyond this evict the oldest;
    /// the eviction count is reported as `trace.dropped`).
    pub trace_ring: usize,
    /// Span ring capacity. Per-kind duration histograms stay exact even
    /// when old spans are evicted.
    pub span_capacity: usize,
    /// Timeline sampler tick interval (virtual time).
    pub sample_interval: SimDuration,
}

impl Default for FlightRecorderConfig {
    fn default() -> FlightRecorderConfig {
        FlightRecorderConfig {
            trace_ring: 16384,
            // Sized for a paper-scale deployment (~100k spans: 32k
            // background fetches with nested AoE round-trips, server
            // service spans, guest redirects), so early-run spans — the
            // phase.initialization record, the guest's io.redirect
            // hierarchies — are not evicted by the long background-copy
            // tail. Rings preallocate lazily, so small runs pay nothing.
            span_capacity: 1 << 18,
            sample_interval: SimDuration::from_millis(250),
        }
    }
}

/// Owns a [`Machine`] and its simulator; the main entry point for
/// examples, tests, and benches.
pub struct Runner {
    machine: Machine,
    sim: MachineSim,
}

impl std::fmt::Debug for Runner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runner")
            .field("now", &self.sim.now())
            .field("phase", &self.machine.phase())
            .finish()
    }
}

impl Runner {
    /// A BMcast machine with deployment armed (it starts when
    /// [`Runner::start_program`] or any `run_*` method first runs the clock).
    pub fn bmcast(spec: &MachineSpec, cfg: BmcastConfig) -> Runner {
        Runner::from_machine(Machine::bmcast(spec, cfg))
    }

    /// Like [`Runner::bmcast`] with the whole observability plane on:
    /// metrics, the trace ring, hierarchical spans wired through the
    /// mediators, background copy, AoE endpoints and de-virtualization
    /// sequencer, and the periodic timeline sampler. Everything attaches
    /// *before* deployment is armed, so the retriever's first fetch
    /// burst, the first row and the `phase.initialization` span cover
    /// the whole run. Observing never moves the simulation.
    pub fn bmcast_flight_recorded(
        spec: &MachineSpec,
        cfg: BmcastConfig,
        rec: FlightRecorderConfig,
    ) -> Runner {
        let mut machine = Machine::bmcast(spec, cfg);
        machine.set_telemetry(Metrics::enabled(), Tracer::enabled(rec.trace_ring));
        machine.set_flight_recorder(
            Spans::enabled(rec.span_capacity),
            Sampler::enabled(rec.sample_interval),
        );
        Runner::from_machine(machine)
    }

    /// A bare-metal machine with the image pre-installed.
    pub fn bare_metal(spec: &MachineSpec) -> Runner {
        Runner {
            machine: Machine::bare_metal(spec),
            sim: MachineSim::new(),
        }
    }

    /// Wraps an existing machine (e.g. one rebuilt with
    /// [`Machine::bmcast_resumed`] after a reboot), re-arming deployment
    /// and the timeline sampler (a no-op unless one is attached) if a
    /// VMM is present.
    pub fn from_machine(mut machine: Machine) -> Runner {
        let mut sim = MachineSim::new();
        if machine.vmm.is_some() {
            start_deployment(&mut machine, &mut sim);
            start_flight_sampler(&mut machine, &mut sim);
        }
        Runner { machine, sim }
    }

    /// Extracts the machine, discarding pending events (a power-off).
    pub fn into_machine(self) -> Machine {
        self.machine
    }

    /// A point-in-time snapshot of every metric (`None` if telemetry is
    /// off). The tracer's own accounting is mirrored into the snapshot as
    /// `trace.emitted` / `trace.dropped` gauges, so ring overflow is
    /// visible from metrics alone.
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        if self.machine.tracer.is_enabled() {
            let t = &self.machine.tracer;
            self.machine
                .metrics
                .gauge_set("trace.emitted", t.emitted() as i64);
            self.machine
                .metrics
                .gauge_set("trace.dropped", t.dropped() as i64);
        }
        self.machine.metrics.snapshot()
    }

    /// The machine's tracer handle (disabled unless the runner was built
    /// with [`Runner::bmcast_flight_recorded`]).
    pub fn tracer(&self) -> &Tracer {
        &self.machine.tracer
    }

    /// The machine's span store (disabled unless the runner was built
    /// with [`Runner::bmcast_flight_recorded`]).
    pub fn spans(&self) -> &Spans {
        &self.machine.spans
    }

    /// The machine's timeline sampler (disabled unless the runner was
    /// built with [`Runner::bmcast_flight_recorded`]).
    pub fn sampler(&self) -> &Sampler {
        &self.machine.sampler
    }

    /// Records one final timeline row at the current virtual time, so an
    /// exported timeline ends at the terminal state (100% bitmap fill on
    /// a completed deployment). No-op when the sampler is disabled.
    pub fn record_final_sample(&mut self) {
        sample_flight_row(&self.machine, self.sim.now());
    }

    /// Per-phase wall-clock timings, populated as the lifecycle advances.
    pub fn phase_timings(&self) -> PhaseTimings {
        let Some(vmm) = self.machine.vmm.as_ref() else {
            return PhaseTimings::default();
        };
        let deployment = vmm
            .deployment_done_at
            .map(|t| t.duration_since(SimTime::ZERO));
        let devirtualization = match (vmm.deployment_done_at, vmm.bare_metal_at) {
            (Some(done), Some(bare)) => Some(bare.duration_since(done)),
            _ => None,
        };
        PhaseTimings {
            deployment,
            devirtualization,
        }
    }

    /// Installs and starts a guest program.
    pub fn start_program(&mut self, program: Box<dyn GuestProgram>) {
        self.machine.set_program(program);
        start_program(&mut self.machine, &mut self.sim);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Runs until `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.sim.run_until(&mut self.machine, deadline);
    }

    /// Runs until the guest program finishes or `limit` passes. Returns
    /// the exact finish time if it finished.
    pub fn run_to_finish(&mut self, limit: SimTime) -> Option<SimTime> {
        loop {
            if self.machine.guest.finished {
                return Some(self.sim.now());
            }
            match self.sim.next_event_at() {
                None => return None,
                Some(t) if t > limit => return None,
                Some(_) => {
                    self.sim.step(&mut self.machine);
                }
            }
        }
    }

    /// Terminal deployment failure, if the machine's retry budget
    /// tripped (see [`DeployError`]).
    pub fn deploy_error(&self) -> Option<DeployError> {
        self.machine.deploy_error()
    }

    /// Runs until the machine reaches bare metal (deployment +
    /// de-virtualization complete) or `limit` passes. Returns `None`
    /// early if the deployment surfaced a [`DeployError`] — check
    /// [`Runner::deploy_error`] to distinguish failure from timeout.
    pub fn run_to_bare_metal(&mut self, limit: SimTime) -> Option<SimTime> {
        loop {
            if self.machine.phase() == Phase::BareMetal {
                return self
                    .machine
                    .vmm
                    .as_ref()
                    .and_then(|v| v.bare_metal_at)
                    .or(Some(self.sim.now()));
            }
            if self.machine.deploy_error().is_some()
                || self.sim.now() >= limit
                || self.sim.pending_events() == 0
            {
                return None;
            }
            let next = (self.sim.now() + SimDuration::from_millis(500)).min(limit);
            self.sim.run_until(&mut self.machine, next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vmm_boots_in_about_five_seconds() {
        let fw = FirmwareModel::primergy_rx200();
        let t = vmm_boot_time(&fw, 1_000_000_000);
        assert!(
            (4.5..5.5).contains(&t.as_secs_f64()),
            "vmm boot {:.2}s",
            t.as_secs_f64()
        );
    }

    #[test]
    fn timeline_totals() {
        let mut tl = StartupTimeline::default();
        tl.push("firmware init", SimDuration::from_secs(133));
        tl.push("OS boot", SimDuration::from_secs(29));
        assert_eq!(tl.total().as_secs(), 162);
        assert_eq!(tl.total_excluding_firmware().as_secs(), 29);
        let s = tl.to_string();
        assert!(s.contains("OS boot"));
        assert!(s.contains("total"));
    }

    #[test]
    fn runner_deploys_small_machine() {
        let spec = MachineSpec {
            capacity_sectors: 1 << 12,
            image_sectors: 1 << 12,
            cpus: 2,
            ..MachineSpec::default()
        };
        let mut runner = Runner::bmcast(
            &spec,
            BmcastConfig {
                moderation: crate::config::Moderation::full_speed(),
                ..BmcastConfig::default()
            },
        );
        let done = runner.run_to_bare_metal(SimTime::from_secs(120));
        assert!(done.is_some(), "deployment should complete");
        assert_eq!(runner.machine().phase(), Phase::BareMetal);
    }
}
