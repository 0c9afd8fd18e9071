//! Sim-time SLO watchdogs: a deterministic rule engine over fleet
//! telemetry.
//!
//! The fleet sampler tick feeds one [`SloInput`] per interval to an
//! [`SloEngine`]; each rule tracks its own state (rates need a previous
//! observation, stall detection needs a run of unchanged progress) and
//! fires *edge* events — an [`Alert`] when a condition becomes true and
//! another when it clears — rather than re-alerting every tick. Because
//! inputs are derived from sim-state at sim-timestamps and every
//! threshold comparison is pure, two same-seed runs produce identical
//! alert streams.
//!
//! The four rules mirror the operational questions the paper's agility
//! claim raises at fleet scale:
//!
//! - **retransmit-storm** — fleet-wide AoE retransmits/sec above
//!   [`RETRANSMIT_STORM_PER_SEC`] for [`STORM_TICKS`] consecutive
//!   intervals: the symptom of an overdriven fabric or a server that
//!   stopped answering. Healthy fleets burst past the rate during
//!   admission waves; only a *sustained* elevation raises.
//! - **cache-collapse** — server-side cache hit ratio below
//!   [`CACHE_HIT_FLOOR`] after [`CACHE_WARMUP_TICKS`] of warmup, which
//!   starts once two members have started (a lone member's reads can
//!   only miss): deployment traffic has outrun the cache.
//! - **stalled-member** — no deployment progress anywhere for
//!   [`STALL_TICKS`] consecutive intervals while started machines remain
//!   unbooted.
//! - **boot-budget** — the projected p99 boot time exceeds
//!   [`BOOT_BUDGET`]: the tail claim is failing *while the run is still
//!   going*.
//!
//! # Examples
//!
//! ```
//! use simkit::slo::{SloEngine, SloInput, SloRule, STORM_TICKS};
//! use simkit::SimTime;
//!
//! let mut slo = SloEngine::new();
//! let quiet = SloInput {
//!     at: SimTime::from_secs(1),
//!     retransmits_total: 0,
//!     cache_hits: 0,
//!     cache_misses: 0,
//!     fill_progress: 1.0,
//!     machines_booted: 0,
//!     machines_started: 4,
//!     machines_total: 4,
//!     projected_p99_s: 0.0,
//! };
//! assert!(slo.evaluate(&quiet).is_empty());
//! // An elevated interval is a burst, not a storm, until STORM_TICKS of
//! // them in a row ...
//! let stormy = |s: u64| SloInput {
//!     at: SimTime::from_secs(s),
//!     retransmits_total: 1_000_000 * s,
//!     fill_progress: s as f64, // deployment still progressing
//!     ..quiet
//! };
//! for s in 2..=u64::from(STORM_TICKS) {
//!     assert!(slo.evaluate(&stormy(s)).is_empty());
//! }
//! // ... and the next consecutive one raises.
//! let edges = slo.evaluate(&stormy(u64::from(STORM_TICKS) + 1));
//! assert_eq!(edges.len(), 1);
//! assert_eq!(edges[0].rule, SloRule::RetransmitStorm);
//! assert!(edges[0].raised);
//! ```

use crate::time::{SimDuration, SimTime};

/// The four watchdog rules, in canonical evaluation (and reporting)
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SloRule {
    /// Fleet-wide retransmits/sec above threshold.
    RetransmitStorm,
    /// Server cache hit ratio below floor after warmup.
    CacheCollapse,
    /// No deployment progress for K consecutive intervals.
    StalledMember,
    /// Projected p99 boot time over budget.
    BootBudget,
}

/// All rules in canonical order — the order alerts are evaluated and
/// reported in within one tick.
pub const ALL_RULES: [SloRule; 4] = [
    SloRule::RetransmitStorm,
    SloRule::CacheCollapse,
    SloRule::StalledMember,
    SloRule::BootBudget,
];

impl SloRule {
    /// Stable machine-readable rule name (used in exports and traces).
    pub fn name(&self) -> &'static str {
        match self {
            SloRule::RetransmitStorm => "retransmit-storm",
            SloRule::CacheCollapse => "cache-collapse",
            SloRule::StalledMember => "stalled-member",
            SloRule::BootBudget => "boot-budget",
        }
    }

    fn index(&self) -> usize {
        ALL_RULES.iter().position(|r| r == self).unwrap()
    }
}

/// Retransmits/sec (fleet-wide, over the last sampler interval) above
/// which an interval counts as elevated.
pub const RETRANSMIT_STORM_PER_SEC: f64 = 50.0;

/// Consecutive elevated intervals before the storm rule raises. Healthy
/// fleets burst past the rate threshold during admission waves; a storm
/// is a rate that *stays* elevated (a reply backlog feeding
/// retransmissions feeding the backlog).
pub const STORM_TICKS: u32 = 40;

/// Hit-ratio floor for the server cache (0..1).
pub const CACHE_HIT_FLOOR: f64 = 0.05;

/// Sampler ticks to ignore the cache rule for while it warms up, counted
/// from the first tick at which two members have started: before a
/// second member re-reads what the first fetched, every lookup is a cold
/// miss.
pub const CACHE_WARMUP_TICKS: u64 = 20;

/// Consecutive no-progress ticks before stalled-member raises.
pub const STALL_TICKS: u32 = 10;

/// Boot-time budget the projected p99 is held against.
pub const BOOT_BUDGET: SimDuration = SimDuration::from_secs(600);

/// One tick's worth of fleet telemetry, as read by the fleet sampler.
#[derive(Debug, Clone, Copy)]
pub struct SloInput {
    /// Sim-time of this evaluation (the sampler tick).
    pub at: SimTime,
    /// Cumulative AoE client retransmits across all members.
    pub retransmits_total: u64,
    /// Cumulative server cache hits (all server nodes).
    pub cache_hits: u64,
    /// Cumulative server cache misses (all server nodes).
    pub cache_misses: u64,
    /// A monotone progress scalar: any deployment progress anywhere
    /// must change it (e.g. summed fill fractions plus booted count).
    pub fill_progress: f64,
    /// Members that have finished booting.
    pub machines_booted: u64,
    /// Members whose deployment has started (a staggered member counts
    /// from its scheduled start).
    pub machines_started: u64,
    /// Total members in the run.
    pub machines_total: u64,
    /// Projected p99 boot time in seconds (0.0 when nothing booted
    /// yet and nothing is in flight).
    pub projected_p99_s: f64,
}

/// One edge event: a rule raised or cleared at a sim-instant.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// When the edge fired (the evaluating sampler tick).
    pub at: SimTime,
    /// Which rule changed state.
    pub rule: SloRule,
    /// `true` for a raise edge, `false` for a clear edge.
    pub raised: bool,
    /// Deterministically formatted measurement that caused the edge.
    pub detail: String,
}

/// The watchdog evaluator: feed it one [`SloInput`] per sampler tick.
#[derive(Debug, Default)]
pub struct SloEngine {
    /// Ticks seen since two members had started (the cache warmup).
    warm_ticks: u64,
    last: Option<SloInput>,
    storm_run: u32,
    stall_run: u32,
    active: [bool; 4],
    alerts: Vec<Alert>,
}

impl SloEngine {
    /// A fresh engine with no history: the first tick can only observe,
    /// never fire a rate-based rule.
    pub fn new() -> SloEngine {
        SloEngine::default()
    }

    /// Evaluates all rules against one tick of telemetry, returning the
    /// edge events this tick produced (also appended to
    /// [`SloEngine::alerts`]). Deterministic: same input sequence, same
    /// alert sequence.
    pub fn evaluate(&mut self, input: &SloInput) -> Vec<Alert> {
        if input.machines_started >= 2 {
            self.warm_ticks += 1;
        }

        // retransmit-storm: rate over the window since the previous
        // tick, sustained for `STORM_TICKS` consecutive intervals.
        let (storm, storm_detail) = match &self.last {
            Some(prev) if input.at > prev.at => {
                let secs = (input.at - prev.at).as_secs_f64();
                let rate = input
                    .retransmits_total
                    .saturating_sub(prev.retransmits_total) as f64
                    / secs;
                if rate > RETRANSMIT_STORM_PER_SEC {
                    self.storm_run = self.storm_run.saturating_add(1);
                } else {
                    self.storm_run = 0;
                }
                (
                    self.storm_run >= STORM_TICKS,
                    format!(
                        "{rate:.3}/s > {RETRANSMIT_STORM_PER_SEC:.3}/s for {} ticks",
                        self.storm_run
                    ),
                )
            }
            _ => (false, String::new()),
        };

        // cache-collapse: hit ratio under the floor, after a warmup that
        // starts once two members have started, and only once the cache
        // has seen traffic.
        let lookups = input.cache_hits + input.cache_misses;
        let ratio = if lookups > 0 {
            input.cache_hits as f64 / lookups as f64
        } else {
            1.0
        };
        let collapse =
            self.warm_ticks > CACHE_WARMUP_TICKS && lookups > 0 && ratio < CACHE_HIT_FLOOR;
        let collapse_detail = format!("hit_ratio {ratio:.4} < {CACHE_HIT_FLOOR:.4}");

        // stalled-member: progress scalar unchanged for K ticks while
        // started members remain unbooted. A member waiting for its
        // scheduled start has no progress to make.
        let unfinished = input.machines_booted < input.machines_started;
        match &self.last {
            Some(prev) if unfinished && input.fill_progress == prev.fill_progress => {
                self.stall_run += 1;
            }
            _ => self.stall_run = 0,
        }
        let stalled = unfinished && self.stall_run >= STALL_TICKS;
        let stalled_detail = format!(
            "no progress for {} ticks ({}/{} booted)",
            self.stall_run, input.machines_booted, input.machines_total
        );

        // boot-budget: projected p99 over budget.
        let budget_s = BOOT_BUDGET.as_secs_f64();
        let over_budget = input.projected_p99_s > 0.0 && input.projected_p99_s > budget_s;
        let budget_detail = format!(
            "projected p99 {:.3}s > budget {budget_s:.3}s",
            input.projected_p99_s
        );

        let mut edges = Vec::new();
        let conditions = [
            (SloRule::RetransmitStorm, storm, storm_detail),
            (SloRule::CacheCollapse, collapse, collapse_detail),
            (SloRule::StalledMember, stalled, stalled_detail),
            (SloRule::BootBudget, over_budget, budget_detail),
        ];
        for (rule, cond, detail) in conditions {
            let idx = rule.index();
            if cond != self.active[idx] {
                self.active[idx] = cond;
                edges.push(Alert {
                    at: input.at,
                    rule,
                    raised: cond,
                    detail,
                });
            }
        }
        self.alerts.extend(edges.iter().cloned());
        self.last = Some(*input);
        edges
    }

    /// All edge events so far, in firing order.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Rules currently in the raised state.
    pub fn active_count(&self) -> u64 {
        self.active.iter().filter(|a| **a).count() as u64
    }

    /// Whether `rule` is currently raised.
    pub fn is_active(&self, rule: SloRule) -> bool {
        self.active[rule.index()]
    }

    /// Total raise edges seen for `rule` across the run.
    pub fn raise_count(&self, rule: SloRule) -> u64 {
        self.alerts
            .iter()
            .filter(|a| a.rule == rule && a.raised)
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet(at_s: u64) -> SloInput {
        SloInput {
            at: SimTime::from_secs(at_s),
            retransmits_total: 0,
            cache_hits: 100,
            cache_misses: 0,
            fill_progress: at_s as f64,
            machines_booted: 0,
            machines_started: 4,
            machines_total: 4,
            projected_p99_s: 1.0,
        }
    }

    #[test]
    fn quiet_run_fires_nothing() {
        let mut slo = SloEngine::new();
        for s in 1..=100 {
            assert!(slo.evaluate(&quiet(s)).is_empty(), "tick {s}");
        }
        assert_eq!(slo.active_count(), 0);
        assert!(slo.alerts().is_empty());
    }

    #[test]
    fn storm_raises_once_sustained_then_clears() {
        let mut slo = SloEngine::new();
        slo.evaluate(&quiet(1));
        // Elevated rate every tick: silent until the STORM_TICKS-th
        // consecutive one.
        let last = u64::from(STORM_TICKS) + 1;
        for s in 2..=last {
            let mut stormy = quiet(s);
            stormy.retransmits_total = 10_000 * s;
            let edges = slo.evaluate(&stormy);
            if s < last {
                assert!(edges.is_empty(), "tick {s}: burst too short");
            } else {
                assert_eq!(edges.len(), 1, "tick {s} (elevated #{})", s - 1);
                assert_eq!(edges[0].rule, SloRule::RetransmitStorm);
                assert!(edges[0].raised);
                let want = format!("for {STORM_TICKS} ticks");
                assert!(edges[0].detail.contains(&want), "{}", edges[0].detail);
            }
        }
        assert!(slo.is_active(SloRule::RetransmitStorm));

        // Same cumulative count next tick: rate back to zero → clear edge.
        let mut calm = quiet(last + 1);
        calm.retransmits_total = 10_000 * last;
        let edges = slo.evaluate(&calm);
        assert_eq!(edges.len(), 1);
        assert!(!edges[0].raised);
        assert_eq!(slo.raise_count(SloRule::RetransmitStorm), 1);
        assert_eq!(slo.alerts().len(), 2);
    }

    #[test]
    fn admission_wave_burst_shorter_than_storm_ticks_is_silent() {
        let mut slo = SloEngine::new();
        let period = u64::from(STORM_TICKS);
        let mut total = 0u64;
        for s in 1..=4 * period {
            let mut tick = quiet(s);
            // Bursts of STORM_TICKS - 1 elevated ticks separated by calm
            // ticks never reach the sustained run a storm requires.
            if s % period != 0 {
                total += 1000;
            }
            tick.retransmits_total = total;
            assert!(slo.evaluate(&tick).is_empty(), "tick {s}");
        }
        assert_eq!(slo.raise_count(SloRule::RetransmitStorm), 0);
    }

    #[test]
    fn first_tick_cannot_fire_rate_rules() {
        let mut slo = SloEngine::new();
        let mut first = quiet(1);
        first.retransmits_total = 1_000_000;
        assert!(slo.evaluate(&first).is_empty(), "no previous tick, no rate");
    }

    #[test]
    fn cache_collapse_respects_warmup() {
        let mut slo = SloEngine::new();
        let cold = |s: u64| SloInput {
            cache_hits: 0,
            cache_misses: 1000,
            ..quiet(s)
        };
        for s in 1..=CACHE_WARMUP_TICKS {
            assert!(slo.evaluate(&cold(s)).is_empty(), "warmup tick {s}");
        }
        let edges = slo.evaluate(&cold(CACHE_WARMUP_TICKS + 1));
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].rule, SloRule::CacheCollapse);
    }

    #[test]
    fn cache_warmup_starts_with_the_second_member() {
        let mut slo = SloEngine::new();
        let cold = |s: u64, started: u64| SloInput {
            cache_hits: 0,
            cache_misses: 1000 * s,
            machines_started: started,
            ..quiet(s)
        };
        // A lone staggered member: every lookup misses, however long.
        let lone = 2 * CACHE_WARMUP_TICKS;
        for s in 1..=lone {
            assert!(
                slo.evaluate(&cold(s, 1)).is_empty(),
                "lone member, tick {s}"
            );
        }
        // The second member starts: the warmup ticks, then a cache that
        // still never hits has genuinely collapsed.
        for s in lone + 1..=lone + CACHE_WARMUP_TICKS {
            assert!(slo.evaluate(&cold(s, 2)).is_empty(), "warmup tick {s}");
        }
        let edges = slo.evaluate(&cold(lone + CACHE_WARMUP_TICKS + 1, 2));
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].rule, SloRule::CacheCollapse);
        assert!(edges[0].raised);
    }

    #[test]
    fn stall_needs_k_consecutive_flat_ticks() {
        let mut slo = SloEngine::new();
        let mut flat = quiet(1);
        flat.fill_progress = 5.0;
        slo.evaluate(&flat);
        let raise = u64::from(STALL_TICKS) + 1;
        for s in 2..raise {
            flat.at = SimTime::from_secs(s);
            assert!(slo.evaluate(&flat).is_empty(), "run too short at {s}");
        }
        flat.at = SimTime::from_secs(raise);
        let edges = slo.evaluate(&flat);
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].rule, SloRule::StalledMember);

        // Progress resumes: the run resets and the alert clears.
        flat.at = SimTime::from_secs(raise + 1);
        flat.fill_progress = 6.0;
        let edges = slo.evaluate(&flat);
        assert_eq!(edges.len(), 1);
        assert!(!edges[0].raised);
    }

    #[test]
    fn members_awaiting_their_start_do_not_stall() {
        let mut slo = SloEngine::new();
        // Two of four members started and booted; the other two wait
        // for their scheduled starts while nothing moves.
        let mut waiting = quiet(1);
        waiting.fill_progress = 2.0;
        waiting.machines_booted = 2;
        waiting.machines_started = 2;
        let wait = 2 * u64::from(STALL_TICKS);
        for s in 1..=wait {
            waiting.at = SimTime::from_secs(s);
            assert!(slo.evaluate(&waiting).is_empty(), "tick {s}");
        }
        // The third starts and makes no progress: a genuine stall.
        waiting.machines_started = 3;
        let raise = wait + u64::from(STALL_TICKS);
        for s in wait + 1..raise {
            waiting.at = SimTime::from_secs(s);
            assert!(slo.evaluate(&waiting).is_empty(), "run too short at {s}");
        }
        waiting.at = SimTime::from_secs(raise);
        let edges = slo.evaluate(&waiting);
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].rule, SloRule::StalledMember);
        assert!(edges[0].raised);
    }

    #[test]
    fn booted_fleet_never_stalls() {
        let mut slo = SloEngine::new();
        for s in 1..=3 * u64::from(STALL_TICKS) {
            let mut done = quiet(s);
            done.fill_progress = 100.0;
            done.machines_booted = 4;
            assert!(slo.evaluate(&done).is_empty(), "tick {s}");
        }
    }

    #[test]
    fn boot_budget_fires_on_projection() {
        let mut slo = SloEngine::new();
        let mut slow = quiet(1);
        slow.projected_p99_s = 3.0 * BOOT_BUDGET.as_secs_f64();
        let edges = slo.evaluate(&slow);
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].rule, SloRule::BootBudget);
        assert!(edges[0].detail.contains("1800.000"), "{}", edges[0].detail);
    }

    #[test]
    fn identical_input_sequences_give_identical_alerts() {
        let run = |spike_at: u64| {
            let mut slo = SloEngine::new();
            for s in 1..=2 * u64::from(STORM_TICKS) {
                let mut i = quiet(s);
                if s >= spike_at {
                    i.retransmits_total = s * 5_000;
                }
                slo.evaluate(&i);
            }
            slo.alerts().to_vec()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(9), "different stimulus, different stream");
    }
}
