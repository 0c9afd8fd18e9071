//! One flight-recorded deployment, the single source of both
//! `reproduce --metrics` (the telemetry report on stdout) and the
//! deployment bundle `reproduce --trace-out <dir>` writes
//! ([`crate::obs::Bundle::deployment`]). Given both flags, the
//! deployment is recorded once.
//!
//! Recording is split from rendering so tests can assert on the
//! recorder contents (phase spans tile the run, timelines replay
//! byte-identically) without touching the filesystem.

use crate::faults::FAULT_SEED;
use crate::Scale;
use bmcast::config::{BmcastConfig, Moderation};
use bmcast::deploy::{FlightRecorderConfig, PhaseTimings, Runner};
use bmcast::machine::MachineSpec;
use bmcast::programs::FioProgram;
use guestsim::workload::fio::FioJob;
use hwsim::block::Lba;
use simkit::fault::FaultPlan;
use simkit::metrics::LogHistogram;
use simkit::{MetricsSnapshot, SampleRow, SimDuration, SimTime, Span, TraceEvent};
use std::fmt::Write as _;

/// Trace events the telemetry report lists at its end.
const TRACE_TAIL: usize = 16;

/// Everything one flight-recorded deployment captured, detached from the
/// machine so exporters and assertions can consume it freely.
pub struct FlightRun {
    /// Finished spans, in completion order.
    pub spans: Vec<Span>,
    /// Per-span-kind duration histograms (µs), exact across ring
    /// eviction.
    pub kinds: Vec<(&'static str, LogHistogram)>,
    /// Sampled timeline rows.
    pub samples: Vec<SampleRow>,
    /// Every metric at the end of the run, the tracer's own accounting
    /// (`trace.emitted` / `trace.dropped`) included.
    pub metrics: MetricsSnapshot,
    /// Per-phase wall-clock timings.
    pub timings: PhaseTimings,
    /// The last 16 trace events, oldest first.
    pub trace_tail: Vec<TraceEvent>,
    /// When the machine reached bare metal.
    pub bare_metal_at: SimTime,
}

fn spec(scale: Scale) -> MachineSpec {
    match scale {
        Scale::Paper => MachineSpec::default(),
        Scale::Quick => MachineSpec {
            capacity_sectors: (1u64 << 30) / 512,
            image_sectors: (256u64 << 20) / 512,
            ..MachineSpec::default()
        },
    }
}

/// Runs one deployment with the full flight recorder attached, at its
/// default sizes.
///
/// `fault_preset` names a [`FaultPlan`] preset (seeded with
/// [`FAULT_SEED`], like the fault figures) to run under; `None` instead
/// drops a few frames (a quiet plan with 0.2% link loss) so the
/// retransmission spans carry signal.
///
/// # Panics
///
/// Panics if the preset name is unknown or the deployment fails.
pub fn record(scale: Scale, fault_preset: Option<&str>) -> FlightRun {
    let spec = spec(scale);
    let plan = match fault_preset {
        Some(name) => FaultPlan::preset(name, FAULT_SEED).expect("known fault preset"),
        None => {
            let mut lossy = FaultPlan::quiet(FAULT_SEED);
            lossy.link.drop_rate = 0.002;
            lossy
        }
    };
    let cfg = BmcastConfig {
        moderation: Moderation::full_speed(),
        faults: Some(plan),
        ..BmcastConfig::default()
    };
    let mut runner = Runner::bmcast_flight_recorded(&spec, cfg, FlightRecorderConfig::default());

    // Guest reads ahead of the background copy exercise the whole
    // per-I/O lifecycle: decode -> interpret -> redirect fetch -> DMA ->
    // dummy-read completion.
    let read_bytes = match scale {
        Scale::Paper => 64u64 << 20,
        Scale::Quick => 8 << 20,
    };
    runner.start_program(Box::new(FioProgram::new(FioJob {
        write: false,
        total_bytes: read_bytes,
        block_bytes: 1 << 20,
        start: Lba(1 << 16),
    })));
    runner.run_to_finish(runner.now() + SimDuration::from_secs(600));
    let bare_metal_at = runner
        .run_to_bare_metal(SimTime::from_secs(4 * 3600))
        .expect("flight-recorded deployment completes");
    runner.record_final_sample();

    let metrics = runner
        .metrics_snapshot()
        .expect("flight recorder enables metrics");
    let events = runner.tracer().events();
    FlightRun {
        spans: runner.spans().finished(),
        kinds: runner.spans().kind_histograms(),
        samples: runner.sampler().rows(),
        metrics,
        timings: runner.phase_timings(),
        trace_tail: events[events.len().saturating_sub(TRACE_TAIL)..].to_vec(),
        bare_metal_at,
    }
}

impl FlightRun {
    /// The telemetry report `reproduce --metrics` prints: per-phase
    /// timings, the counters that explain *why* the deployment took that
    /// long (copy-on-read redirects, background fills and discards, AoE
    /// retransmits, FIFO pressure), guest I/O latency percentiles, the
    /// full snapshot and the trace tail. Ring evictions produce a
    /// warning line.
    pub fn report(&self, scale: Scale) -> String {
        let snap = &self.metrics;
        let mut out = String::new();
        let _ = writeln!(out, "== deployment telemetry ({scale:?} scale) ==");
        let _ = writeln!(out, "phase timings:");
        let _ = writeln!(out, "{}", self.timings);
        let _ = writeln!(out, "key counters:");
        let key = [
            ("redirected guest reads", "machine.redirected_ios"),
            ("background fills", "bg.fills"),
            ("blocks discarded (guest won)", "bg.blocks_discarded"),
            ("blocks written", "bg.blocks_written"),
            ("AoE retransmits", "aoe.client.retransmits"),
        ];
        for (label, name) in key {
            let _ = writeln!(out, "  {label:<30} {}", snap.counter(name));
        }
        let _ = writeln!(
            out,
            "  {:<30} {}",
            "FIFO depth (final gauge)",
            snap.gauge("bg.fifo_depth")
        );
        if let Some(h) = snap.histogram("guest.io_latency_us") {
            let _ = writeln!(
                out,
                "  {:<30} p50 {} us, p99 {} us",
                "guest I/O latency",
                h.quantile(0.5),
                h.quantile(0.99)
            );
        }
        let _ = writeln!(out, "full snapshot:");
        let _ = write!(out, "{snap}");
        let dropped = snap.gauge("trace.dropped");
        let _ = writeln!(
            out,
            "trace: {} events emitted, {dropped} dropped; last {}:",
            snap.gauge("trace.emitted"),
            self.trace_tail.len()
        );
        for ev in &self.trace_tail {
            let _ = writeln!(out, "  {ev}");
        }
        if dropped > 0 {
            let _ = writeln!(
                out,
                "warning: {dropped} trace events were evicted from the \
                 FlightRecorderConfig::trace_ring ring",
            );
        }
        out
    }
}
