//! Fleet observability: the telemetry and flight-recorder enable paths,
//! the fleet timeline sample and the SLO input it feeds, snapshots, the
//! straggler report, and the Chrome trace.

use super::engine::FleetEvent;
use super::{Fleet, PEER_SHELF_BASE};
use crate::deploy::FlightRecorderConfig;
use aoe::AoeServer;
use simkit::slo::{Alert, SloEngine, SloInput};
use simkit::{
    Histogram, LogHistogram, Metrics, MetricsSnapshot, SampleRow, Sampler, SimTime, Span, Spans,
    Tracer,
};

/// One machine's boot-time decomposition in the straggler report
/// ([`Fleet::straggler_attribution`]). Every field is derived from that
/// member's own registry, span store, and client state in fixed member
/// order, so rows are deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct StragglerRow {
    /// Member index.
    pub machine: usize,
    /// Elapsed boot time (finish minus staggered start), seconds.
    pub boot_s: f64,
    /// `phase.initialization` span total, seconds.
    pub init_s: f64,
    /// `phase.deployment` span total, seconds (0 while still open).
    pub deploy_s: f64,
    /// `phase.devirtualization` span total, seconds.
    pub devirt_s: f64,
    /// Total AoE round-trip time (`aoe.rtt` spans), seconds.
    pub rtt_total_s: f64,
    /// Mean AoE round-trip, microseconds.
    pub rtt_mean_us: f64,
    /// Reads issued.
    pub reads: u64,
    /// Frames retransmitted.
    pub retransmits: u64,
    /// Server-busy hints received.
    pub busy_hints: u64,
    /// Retry-budget holds granted under busy grace.
    pub budget_holds: u64,
    /// Estimated elastic backoff spent yielding to busy servers,
    /// seconds (busy hints × the moderation backoff window).
    pub busy_backoff_s: f64,
    /// Estimated queueing excess: round-trip time beyond what this
    /// member's reads would cost at the fleet-median per-read RTT,
    /// seconds. The DRR wait and egress-backlog share of a straggler's
    /// boot shows up here.
    pub queue_excess_s: f64,
    /// Reads steered to rack-local serving peers.
    pub peer_reads: u64,
    /// Reads steered to origin replicas.
    pub origin_reads: u64,
}

/// The straggler attribution report: the slowest decile of booted
/// members decomposed and diffed against the fleet-median member.
#[derive(Debug, Clone, PartialEq)]
pub struct StragglerReport {
    /// Slowest-decile rows, slowest boot first.
    pub stragglers: Vec<StragglerRow>,
    /// The member at the median boot time — the baseline the straggler
    /// rows are diffed against.
    pub median: StragglerRow,
    /// Members booted (the population the decile was drawn from).
    pub booted: usize,
}

impl Fleet {
    /// Attaches a metrics registry to every member (its own
    /// [`Machine::metrics`](crate::machine::Machine::metrics), which
    /// reclaim re-attaches) and to the servers and fault injector (a
    /// shared fabric registry). A fleet's events are read from its
    /// flight recorder.
    /// [`Fleet::metrics_snapshot`] still folds everything into one
    /// aggregate (`server.cache.*`, `server.queue.*`,
    /// `machine.frames_tx`, ...), while [`Fleet::fleet_snapshot`] keeps
    /// the per-member attribution. Call before [`Fleet::start`].
    pub fn enable_telemetry(&mut self) {
        for m in &mut self.members {
            m.machine.set_telemetry(Metrics::enabled(), Tracer);
        }
        self.fabric.set_telemetry(Metrics::enabled());
    }

    /// Attaches a flight recorder to every member (its own span store
    /// and timeline sampler, exported as one Perfetto process per
    /// machine by [`Fleet::chrome_trace`]), a span store to the servers,
    /// the fleet-level timeline sampler (server cache hit ratio and
    /// queue depths over time), and the SLO watchdogs, which evaluate on
    /// that sampler's tick. Alert edges land in [`Fleet::alerts`] and in
    /// the fleet timeline's `fleet.alerts` column. Call before
    /// [`Fleet::start`].
    pub fn enable_flight_recorder(&mut self, rec: FlightRecorderConfig) {
        for m in &mut self.members {
            m.machine.set_flight_recorder(
                Spans::enabled(rec.span_capacity),
                Sampler::enabled(rec.sample_interval),
            );
        }
        self.fabric.set_spans(Spans::enabled(rec.span_capacity));
        self.fleet_sampler = Sampler::enabled(rec.sample_interval);
        self.slo = Some(SloEngine::new());
    }

    /// All SLO alert edges fired so far, in firing order (empty unless
    /// [`Fleet::enable_flight_recorder`] ran).
    pub fn alerts(&self) -> &[Alert] {
        self.slo.as_ref().map(|s| s.alerts()).unwrap_or(&[])
    }

    /// The SLO engine (armed by [`Fleet::enable_flight_recorder`]).
    pub fn slo(&self) -> Option<&SloEngine> {
        self.slo.as_ref()
    }

    /// Restarts the fleet-timeline sampler chain for a new run (the
    /// boot run's chain stops when its completion predicate holds).
    pub(super) fn rearm_fleet_sampler(&mut self) {
        if self.fleet_sampler.is_enabled() && !self.timeline.has_sample() {
            self.timeline
                .push(self.now + self.fleet_sampler.interval(), FleetEvent::Sample);
        }
    }

    /// Projected p99 boot time in seconds: nearest-rank p99 over every
    /// admitted member's boot duration, or its running elapsed time (a
    /// lower bound) while it still boots, so the boot-budget watchdog
    /// can fire during the run.
    fn projected_p99_s(&self, now: SimTime) -> f64 {
        let admitted = &self.members[..self.admitted.min(self.members.len())];
        let mut proj = Histogram::new();
        for m in admitted {
            let done = m.booted_at.unwrap_or(now);
            proj.record_duration(done.saturating_duration_since(m.start_at));
        }
        proj.percentile(99.0)
    }

    /// Records one fleet timeline row at `now` and evaluates the SLO
    /// watchdogs on it (no-op unless the flight recorder is on).
    pub(super) fn record_fleet_sample(&mut self, now: SimTime) {
        if !self.fleet_sampler.is_enabled() {
            return;
        }
        let fills = || self.members.iter().map(|m| m.machine.deployment_progress());
        let min_fill = fills().fold(1.0f64, f64::min);
        let sum = |f: fn(&AoeServer) -> u64| self.fabric.servers().map(f).sum::<u64>();
        let hits = sum(AoeServer::cache_hits);
        let misses = sum(AoeServer::cache_misses);
        let evictions = sum(AoeServer::cache_evictions);
        let hit_ratio = self.cache_hit_ratio();
        let queued: usize = self.fabric.servers().map(AoeServer::queued_total).sum();
        let max_client = self.fabric.servers().map(AoeServer::max_client_queue_depth);
        let max_client = max_client.max().unwrap_or(0);
        // SLO watchdogs: evaluated here, on the fleet timeline.
        let mut active_alerts = 0.0;
        let projected_p99_s = self.projected_p99_s(now);
        if let Some(slo) = self.slo.as_mut() {
            let vmms = self.members.iter().filter_map(|m| m.machine.vmm.as_ref());
            let retransmits_total = vmms.map(|v| v.client.retransmits()).sum();
            let fill_progress = fills().sum::<f64>() + self.booted as f64;
            let started = self.members[..self.admitted]
                .iter()
                .filter(|m| m.start_at <= now);
            let input = SloInput {
                at: now,
                retransmits_total,
                cache_hits: hits,
                cache_misses: misses,
                fill_progress,
                machines_booted: self.booted as u64,
                machines_started: started.count() as u64,
                machines_total: self.members.len() as u64,
                projected_p99_s,
            };
            slo.evaluate(&input);
            active_alerts = slo.active_count() as f64;
        }
        self.fleet_sampler.record_row(
            now,
            vec![
                ("server.cache.hit_ratio", hit_ratio),
                ("server.cache.hits", hits as f64),
                ("server.cache.misses", misses as f64),
                ("server.cache.evictions", evictions as f64),
                ("server.queue.total", queued as f64),
                ("server.queue.max_client", max_client as f64),
                ("server.queue.drops", sum(AoeServer::queue_drops) as f64),
                ("server.queue.dedups", sum(AoeServer::queue_dedups) as f64),
                ("server.busy_replies", sum(AoeServer::busy_replies) as f64),
                ("fleet.machines_booted", self.booted_count() as f64),
                ("fleet.min_fill_pct", min_fill * 100.0),
                ("fleet.peers_active", self.peers_active() as f64),
                ("fleet.alerts", active_alerts),
            ],
        );
    }

    /// Aggregate metrics snapshot (`None` unless
    /// [`Fleet::enable_telemetry`] ran): the fabric registry merged
    /// with every member registry in member order. Server cache and
    /// queue gauges are included — `server.cache.{hits,misses,evictions}`,
    /// `server.queue.{total,max_client}` — so the snapshot alone tells
    /// the scale-out story.
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        let mut snap = self.fabric.metrics().snapshot()?;
        let members = self
            .members
            .iter()
            .filter_map(|m| m.machine.metrics.snapshot());
        for ms in members {
            snap.merge(&ms);
        }
        Some(snap)
    }

    /// One namespaced fleet-wide snapshot (`None` unless
    /// [`Fleet::enable_telemetry`] ran), folded in canonical member
    /// order: fabric-side series keep their plain names, each member's
    /// registry is preserved under `machine.{i}.`, the member aggregate
    /// rides under `fleet.`, and computed fleet state (booted count,
    /// active peers, the boot-time distribution in µs) is added as
    /// `fleet.machines_booted` / `fleet.peers_active` /
    /// `fleet.startup_us`. Merge order is the fixed member index order,
    /// never completion order, so any two same-seed runs produce
    /// byte-identical JSON.
    pub fn fleet_snapshot(&self) -> Option<MetricsSnapshot> {
        let mut out = self.fabric.metrics().snapshot()?;
        let mut aggregate = MetricsSnapshot::default();
        for (i, m) in self.members.iter().enumerate() {
            if let Some(ms) = m.machine.metrics.snapshot() {
                out.merge(&ms.namespaced(&format!("machine.{i}.")));
                aggregate.merge(&ms);
            }
        }
        out.merge(&aggregate.namespaced("fleet."));
        let mut startup_us = LogHistogram::new();
        for d in self.startup_durations().into_iter().flatten() {
            startup_us.observe(d.as_nanos() / 1_000);
        }
        out.histograms.insert("fleet.startup_us".into(), startup_us);
        out.gauges
            .insert("fleet.machines_booted".into(), self.booted_count() as i64);
        out.gauges
            .insert("fleet.peers_active".into(), self.peers_active() as i64);
        Some(out)
    }

    /// Member `i`'s span duration histogram of `kind`, in µs (empty
    /// when it recorded none).
    fn span_kind(&self, i: usize, kind: &str) -> LogHistogram {
        let kinds = self.members[i].machine.spans.kind_histograms();
        let found = kinds.into_iter().find(|(k, _)| *k == kind);
        found.map(|(_, h)| h).unwrap_or_default()
    }

    /// One member's attribution row. `median_rtt_mean_us` is the
    /// fleet-median per-read round trip the queueing-excess estimate is
    /// normalized against.
    fn attribution_row(&self, i: usize, median_rtt_mean_us: f64) -> StragglerRow {
        let member = &self.members[i];
        let m = &member.machine;
        let boot_s = member
            .booted_at
            .map(|f| f.saturating_duration_since(member.start_at).as_secs_f64())
            .unwrap_or(0.0);
        let kind = |name: &str| self.span_kind(i, name);
        let rtt = kind("aoe.rtt");
        let rtt_total_s = rtt.sum() as f64 / 1e6;
        let snap = m.metrics.snapshot().unwrap_or_default();
        let reads = snap.counter("aoe.client.reads");
        let busy_hints = snap.counter("aoe.client.busy_hints");
        let expected_rtt_s = reads as f64 * median_rtt_mean_us / 1e6;
        let (mut peer_reads, mut origin_reads) = (0u64, 0u64);
        if let Some(vmm) = m.vmm.as_ref() {
            for (shelf, n) in vmm.client.reads_by_shelf() {
                if *shelf >= PEER_SHELF_BASE {
                    peer_reads += n;
                } else {
                    origin_reads += n;
                }
            }
        }
        // The initialization span starts at global ZERO; subtract the
        // member's admission offset so init measures time after its
        // own power-on, not the staggered arrival wait.
        let start_offset_s = member.start_at.as_secs_f64();
        let backoff_s = self.cfg.machine_cfg.moderation.server_busy_backoff;
        StragglerRow {
            machine: i,
            boot_s,
            init_s: (kind("phase.initialization").sum() as f64 / 1e6 - start_offset_s).max(0.0),
            deploy_s: kind("phase.deployment").sum() as f64 / 1e6,
            devirt_s: kind("phase.devirtualization").sum() as f64 / 1e6,
            rtt_total_s,
            rtt_mean_us: rtt.mean(),
            reads,
            retransmits: snap.counter("aoe.client.retransmits"),
            busy_hints,
            budget_holds: snap.counter("aoe.client.budget_holds"),
            busy_backoff_s: busy_hints as f64 * backoff_s.as_secs_f64(),
            queue_excess_s: (rtt_total_s - expected_rtt_s).max(0.0),
            peer_reads,
            origin_reads,
        }
    }

    /// The straggler attribution report: decomposes the slowest decile
    /// of booted members' boot times into phase spans, AoE round-trip
    /// and queueing shares, retransmit and busy-backoff costs, and the
    /// peer-vs-origin read mix, with the fleet-median member as the
    /// baseline. `None` unless both [`Fleet::enable_telemetry`] and
    /// [`Fleet::enable_flight_recorder`] ran, or before any member
    /// boots.
    pub fn straggler_attribution(&self) -> Option<StragglerReport> {
        if !self.fabric.metrics().is_enabled() || !self.fleet_sampler.is_enabled() {
            return None;
        }
        // Booted members, slowest elapsed boot first, ties by index —
        // a total order, so the decile cut is deterministic.
        let mut booted: Vec<(usize, f64)> = self
            .startup_durations()
            .into_iter()
            .enumerate()
            .filter_map(|(i, d)| d.map(|d| (i, d.as_secs_f64())))
            .collect();
        if booted.is_empty() {
            return None;
        }
        booted.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("durations are finite")
                .then(a.0.cmp(&b.0))
        });
        // Fleet-median per-read RTT, for the queueing-excess baseline.
        let mut rtt_means: Vec<f64> = booted
            .iter()
            .map(|&(i, _)| self.span_kind(i, "aoe.rtt").mean())
            .collect();
        rtt_means.sort_by(|a, b| a.partial_cmp(b).expect("means are finite"));
        let median_rtt_mean_us = rtt_means[rtt_means.len() / 2];

        let decile = booted.len().div_ceil(10);
        let stragglers = booted[..decile]
            .iter()
            .map(|&(i, _)| self.attribution_row(i, median_rtt_mean_us))
            .collect();
        let median_member = booted[booted.len() / 2].0;
        Some(StragglerReport {
            stragglers,
            median: self.attribution_row(median_member, median_rtt_mean_us),
            booted: booted.len(),
        })
    }

    /// The fleet-level timeline sampler (enabled by
    /// [`Fleet::enable_flight_recorder`]).
    pub fn fleet_sampler(&self) -> &Sampler {
        &self.fleet_sampler
    }

    /// Per-machine `(spans, sampler)` recorders: each member's own
    /// flight-recorder handles (empty unless
    /// [`Fleet::enable_flight_recorder`] ran).
    pub fn recorders(&self) -> Vec<(Spans, Sampler)> {
        if !self.fleet_sampler.is_enabled() {
            return Vec::new();
        }
        self.members
            .iter()
            .map(|m| (m.machine.spans.clone(), m.machine.sampler.clone()))
            .collect()
    }

    /// Exports the whole fleet as one Chrome trace: one Perfetto
    /// process per machine (named `machine<i>`) plus a `fleet` process
    /// carrying the servers' spans and the fleet timeline.
    pub fn chrome_trace(&self) -> String {
        let mut processes: Vec<(String, Vec<Span>, Vec<SampleRow>)> = self
            .recorders()
            .iter()
            .enumerate()
            .map(|(i, (spans, sampler))| (format!("machine{i}"), spans.finished(), sampler.rows()))
            .collect();
        let (spans, rows) = (self.fabric.spans().finished(), self.fleet_sampler.rows());
        processes.push(("fleet".into(), spans, rows));
        let refs: Vec<(&str, &[Span], &[SampleRow])> = processes
            .iter()
            .map(|(n, s, r)| (n.as_str(), s.as_slice(), r.as_slice()))
            .collect();
        simkit::export::chrome_trace_json_multi(&refs)
    }
}
