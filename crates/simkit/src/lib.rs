//! Deterministic discrete-event simulation kit.
//!
//! `simkit` is the foundation of the BMcast reproduction: a virtual-time
//! event loop ([`Sim`]), time types ([`SimTime`], [`SimDuration`]), a
//! deterministic PRNG ([`rng::Prng`]), an exact-sample histogram
//! ([`stats::Histogram`]), and the observability layer — a
//! sim-timestamped trace ring ([`trace::Tracer`]), a
//! counter/gauge/histogram registry ([`metrics::Metrics`]), hierarchical
//! flight-recorder spans ([`span::Spans`]), a periodic timeline sampler
//! ([`sampler::Sampler`]), sim-time SLO watchdogs ([`slo::SloEngine`]),
//! and Perfetto/report exporters ([`export`]) — all zero-cost when
//! disabled.
//!
//! The engine is single-threaded and fully deterministic: events scheduled
//! at the same instant fire in scheduling order. The paper's "threads"
//! (retriever/writer threads, polling threads) are modeled as event chains,
//! which is faithful to BMcast's polling-based design.
//!
//! # Examples
//!
//! ```
//! use simkit::{Sim, SimDuration};
//!
//! #[derive(Default)]
//! struct World { ticks: u32 }
//!
//! let mut sim = Sim::<World>::new();
//! let mut world = World::default();
//! sim.schedule_in(SimDuration::from_millis(5), |w: &mut World, _sim| {
//!     w.ticks += 1;
//! });
//! sim.run(&mut world);
//! assert_eq!(world.ticks, 1);
//! assert_eq!(sim.now().as_millis(), 5);
//! ```

pub mod export;
pub mod fault;
pub mod metrics;
pub mod rng;
pub mod sampler;
pub mod slo;
pub mod span;
pub mod stats;
pub mod time;
pub mod trace;

pub use fault::{FaultCounters, FaultInjector, FaultPlan, LinkVerdict, ServerHealth};
pub use metrics::{LogHistogram, Metrics, MetricsSnapshot};
pub use rng::Prng;
pub use sampler::{SampleRow, Sampler};
pub use slo::{Alert, SloConfig, SloEngine, SloInput, SloRule};
pub use span::{Span, SpanId, Spans, NO_SPAN};
pub use stats::Histogram;
pub use time::{SimDuration, SimTime};
pub use trace::{TraceEvent, Tracer};

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A scheduled simulation event: a one-shot closure over the world.
/// `Send` so a whole `Sim<W>` (with its pending events) can move to
/// another thread.
type EventFn<W> = Box<dyn FnOnce(&mut W, &mut Sim<W>) + Send>;

struct Scheduled<W> {
    at: SimTime,
    seq: u64,
    f: EventFn<W>,
}

impl<W> PartialEq for Scheduled<W> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<W> Eq for Scheduled<W> {}
impl<W> PartialOrd for Scheduled<W> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<W> Ord for Scheduled<W> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A parked poll (see [`Sim::park`]): one pending tick of a
/// `fire`-every-`period` chain, kept outside the heap so its no-op
/// ticks cost nothing.
struct Parked<W> {
    /// The pending tick's key, as the chain's pending event would hold.
    at: SimTime,
    seq: u64,
    period: SimDuration,
    ready: fn(&W) -> bool,
    fire: fn(&mut W, &mut Sim<W>),
    /// `ready(world)` as of the last executed event: an armed tick is a
    /// visible event, a dormant one is skipped when something passes it.
    armed: bool,
}

/// A deterministic discrete-event simulator over a world type `W`.
///
/// Events are closures receiving `&mut W` and `&mut Sim<W>`; they may
/// schedule further events. Two events scheduled for the same instant fire
/// in the order they were scheduled, which makes runs bit-reproducible.
///
/// # Examples
///
/// ```
/// use simkit::{Sim, SimTime};
/// let mut sim = Sim::<Vec<u64>>::new();
/// let mut log = Vec::new();
/// sim.schedule_at(SimTime::from_nanos(10), |w: &mut Vec<u64>, s| {
///     w.push(s.now().as_nanos());
/// });
/// sim.run(&mut log);
/// assert_eq!(log, vec![10]);
/// ```
pub struct Sim<W> {
    now: SimTime,
    queue: BinaryHeap<Reverse<Scheduled<W>>>,
    seq: u64,
    executed: u64,
    parked: Option<Parked<W>>,
    /// Set while an event runs: inserts made outside one first catch
    /// the parked poll up to their time.
    in_event: bool,
}

impl<W> Default for Sim<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> std::fmt::Debug for Sim<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("pending", &self.pending_events())
            .field("executed", &self.executed)
            .finish()
    }
}

impl<W> Sim<W> {
    /// Creates a simulator with the clock at time zero and an empty queue.
    pub fn new() -> Self {
        Sim {
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            seq: 0,
            executed: 0,
            parked: None,
            in_event: false,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far. The ticks of a [`Sim::park`]ed
    /// poll that find the world not ready are skipped, not executed, so
    /// they are not counted (unless nothing else is pending and the
    /// clock spins through them one by one).
    pub fn executed_events(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending, a parked poll counting as one.
    pub fn pending_events(&self) -> usize {
        self.queue.len() + usize::from(self.parked.is_some())
    }

    /// Timestamp of the next pending event, if any. A parked poll shows
    /// only while it is armed or nothing else is pending: its dormant
    /// ticks are not events anyone can observe.
    pub fn next_event_at(&self) -> Option<SimTime> {
        let head = self.queue.peek().map(|Reverse(ev)| (ev.at, ev.seq));
        match (&self.parked, head) {
            (Some(p), Some(h)) if p.armed && (p.at, p.seq) < h => Some(p.at),
            (Some(p), None) => Some(p.at),
            (_, h) => h.map(|(at, _)| at),
        }
    }

    /// Parks a poll: equivalent to `fire` re-scheduling itself every
    /// `period` (first tick at `now + period`) until a tick finds
    /// `ready(world)`, whereupon that tick calls `fire`. The ticks that
    /// find the world not ready cost nothing.
    ///
    /// The parked tick holds one sequence number, as the scheduled
    /// event would, and skipping `k` dormant ticks consumes `k`, so
    /// every other event keeps the `(time, seq)` order the chain gave
    /// it. `ready` is re-evaluated after every executed event and must
    /// read only state that events change. An insert made outside an
    /// event at time `t` stands for a driver that has reached `t`: the
    /// dormant ticks before `t` are taken as fired first.
    ///
    /// # Panics
    ///
    /// Panics if a parked poll is already pending.
    pub fn park(
        &mut self,
        period: SimDuration,
        ready: fn(&W) -> bool,
        fire: fn(&mut W, &mut Sim<W>),
    ) {
        assert!(self.parked.is_none(), "a parked poll is already pending");
        let seq = self.seq;
        self.seq += 1;
        self.parked = Some(Parked {
            at: self.now + period,
            seq,
            period,
            ready,
            fire,
            // Until the world is next evaluated, show the tick: firing a
            // tick that is not ready just re-parks it, as the chain did.
            armed: true,
        });
    }

    /// Advances the parked poll past `k` dormant ticks, consuming one
    /// sequence number per tick as the chain's re-scheduling did.
    fn skip_ticks(&mut self, k: u64) {
        if let Some(p) = self.parked.as_mut().filter(|_| k > 0) {
            p.at += p.period * k;
            self.seq += k;
            p.seq = self.seq - 1;
        }
    }

    /// The number of ticks of the parked poll strictly before `t`.
    fn ticks_before(p: &Parked<W>, t: SimTime) -> u64 {
        if p.at >= t {
            return 0;
        }
        let gap = t.duration_since(p.at).as_nanos();
        gap.div_ceil(p.period.as_nanos())
    }

    /// Schedules `f` to run at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before [`Sim::now`]).
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        f: impl FnOnce(&mut W, &mut Sim<W>) + Send + 'static,
    ) {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: at={at:?} now={:?}",
            self.now
        );
        // An insert from outside any event means the driver has reached
        // `at`: the chain would have run its dormant ticks before it.
        if !self.in_event {
            if let Some(p) = self.parked.as_ref().filter(|p| !p.armed) {
                let k = Self::ticks_before(p, at);
                self.skip_ticks(k);
            }
        }
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Scheduled {
            at,
            seq,
            f: Box::new(f),
        }));
    }

    /// Schedules `f` to run after a delay of `d` from the current time.
    pub fn schedule_in(
        &mut self,
        d: SimDuration,
        f: impl FnOnce(&mut W, &mut Sim<W>) + Send + 'static,
    ) {
        self.schedule_at(self.now + d, f);
    }

    /// Executes the next pending event, if any, advancing the clock to its
    /// timestamp. Returns `false` when nothing is pending.
    pub fn step(&mut self, world: &mut W) -> bool {
        if let Some(p) = &self.parked {
            let head = self.queue.peek().map(|Reverse(ev)| (ev.at, ev.seq));
            match head {
                Some(h) if (p.at, p.seq) > h => {}
                Some((head_at, _)) if !p.armed => {
                    // Dormant ticks ahead of the head: skip them in one
                    // go. The first may share the head's instant (it
                    // holds the lower seq); every later one takes a
                    // fresh seq, so it passes the head only when
                    // strictly earlier.
                    debug_assert!(
                        !(p.ready)(world),
                        "parked poll became ready outside an event"
                    );
                    let k = Self::ticks_before(p, head_at).max(1);
                    self.skip_ticks(k);
                }
                _ => {
                    self.tick_parked(world);
                    return true;
                }
            }
        }
        match self.queue.pop() {
            Some(Reverse(ev)) => {
                debug_assert!(ev.at >= self.now);
                self.now = ev.at;
                self.executed += 1;
                self.in_event = true;
                (ev.f)(world, self);
                self.in_event = false;
                self.rearm(world);
                true
            }
            None => false,
        }
    }

    /// Executes the parked poll's pending tick as an event: `fire` if
    /// the world is ready, else re-park one period on.
    fn tick_parked(&mut self, world: &mut W) {
        let p = self.parked.as_ref().expect("a parked poll");
        debug_assert!(p.at >= self.now);
        self.now = p.at;
        self.executed += 1;
        if (p.ready)(world) {
            let fire = p.fire;
            self.parked = None;
            self.in_event = true;
            fire(world, self);
            self.in_event = false;
        } else {
            self.skip_ticks(1);
        }
        self.rearm(world);
    }

    /// Re-evaluates whether the parked poll's next tick would act.
    fn rearm(&mut self, world: &W) {
        if let Some(p) = &mut self.parked {
            p.armed = (p.ready)(world);
        }
    }

    /// Runs until the event queue drains.
    pub fn run(&mut self, world: &mut W) {
        while self.step(world) {}
    }

    /// Runs until the queue drains or the next event would fire after
    /// `deadline`. The clock is left at the last executed event (or at
    /// `deadline` if events remain beyond it).
    pub fn run_until(&mut self, world: &mut W, deadline: SimTime) {
        loop {
            match self.next_event_at() {
                Some(at) if at <= deadline => {
                    self.step(world);
                }
                Some(_) => {
                    self.now = deadline;
                    return;
                }
                None => return,
            }
        }
    }

    /// Runs until `pred(world)` becomes true, checking after every event.
    /// Returns `true` if the predicate was satisfied, `false` if the queue
    /// drained first.
    pub fn run_while(&mut self, world: &mut W, mut pred: impl FnMut(&W) -> bool) -> bool {
        loop {
            if !pred(world) {
                return true;
            }
            if !self.step(world) {
                return false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct W {
        log: Vec<(u64, &'static str)>,
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Sim::<W>::new();
        let mut w = W::default();
        sim.schedule_at(SimTime::from_nanos(30), |w: &mut W, s| {
            w.log.push((s.now().as_nanos(), "c"))
        });
        sim.schedule_at(SimTime::from_nanos(10), |w: &mut W, s| {
            w.log.push((s.now().as_nanos(), "a"))
        });
        sim.schedule_at(SimTime::from_nanos(20), |w: &mut W, s| {
            w.log.push((s.now().as_nanos(), "b"))
        });
        sim.run(&mut w);
        assert_eq!(w.log, vec![(10, "a"), (20, "b"), (30, "c")]);
    }

    #[test]
    fn simultaneous_events_fire_in_schedule_order() {
        let mut sim = Sim::<W>::new();
        let mut w = W::default();
        for name in ["first", "second", "third"] {
            sim.schedule_at(SimTime::from_nanos(5), move |w: &mut W, _| {
                w.log.push((5, name))
            });
        }
        sim.run(&mut w);
        assert_eq!(w.log, vec![(5, "first"), (5, "second"), (5, "third")]);
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim = Sim::<W>::new();
        let mut w = W::default();
        sim.schedule_at(SimTime::from_nanos(1), |_w: &mut W, s| {
            s.schedule_in(SimDuration::from_nanos(9), |w: &mut W, s| {
                w.log.push((s.now().as_nanos(), "inner"));
            });
        });
        sim.run(&mut w);
        assert_eq!(w.log, vec![(10, "inner")]);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Sim::<W>::new();
        let mut w = W::default();
        sim.schedule_at(SimTime::from_nanos(10), |w: &mut W, _| {
            w.log.push((10, "x"))
        });
        sim.schedule_at(SimTime::from_nanos(100), |w: &mut W, _| {
            w.log.push((100, "y"))
        });
        sim.run_until(&mut w, SimTime::from_nanos(50));
        assert_eq!(w.log, vec![(10, "x")]);
        assert_eq!(sim.now(), SimTime::from_nanos(50));
        assert_eq!(sim.pending_events(), 1);
        sim.run(&mut w);
        assert_eq!(w.log.len(), 2);
    }

    #[test]
    fn run_while_stops_on_predicate() {
        let mut sim = Sim::<W>::new();
        let mut w = W::default();
        for i in 1..=10u64 {
            sim.schedule_at(SimTime::from_nanos(i), |w: &mut W, s| {
                w.log.push((s.now().as_nanos(), "t"))
            });
        }
        let satisfied = sim.run_while(&mut w, |w| w.log.len() < 3);
        assert!(satisfied);
        assert_eq!(w.log.len(), 3);
    }

    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim = Sim::<W>::new();
        let mut w = W::default();
        sim.schedule_at(SimTime::from_nanos(10), |_w: &mut W, s| {
            s.schedule_at(SimTime::from_nanos(5), |_, _| {});
        });
        sim.run(&mut w);
    }

    #[test]
    fn executed_counter_counts() {
        let mut sim = Sim::<W>::new();
        let mut w = W::default();
        for i in 0..7u64 {
            sim.schedule_at(SimTime::from_nanos(i), |_, _| {});
        }
        sim.run(&mut w);
        assert_eq!(sim.executed_events(), 7);
        assert_eq!(sim.pending_events(), 0);
    }

    /// A world for the parked-poll tests: the poll waits for `open`.
    #[derive(Default)]
    struct Gate {
        open: bool,
        fired: Vec<u64>,
    }

    fn gate_open(g: &Gate) -> bool {
        g.open
    }

    fn gate_fire(g: &mut Gate, s: &mut Sim<Gate>) {
        g.fired.push(s.now().as_nanos());
    }

    const TICK: SimDuration = SimDuration::from_nanos(10);

    /// A sim with a poll parked at t=0 (first tick at 10 ns).
    fn parked_at_zero() -> (Sim<Gate>, Gate) {
        let mut sim = Sim::<Gate>::new();
        let mut g = Gate::default();
        sim.schedule_at(SimTime::ZERO, |_: &mut Gate, s| {
            s.park(TICK, gate_open, gate_fire)
        });
        sim.step(&mut g);
        (sim, g)
    }

    #[test]
    fn parked_poll_spins_tick_by_tick_on_an_empty_queue() {
        let (mut sim, mut g) = parked_at_zero();
        for k in 1..=5u64 {
            assert_eq!(sim.next_event_at(), Some(SimTime::from_nanos(10 * k)));
            assert!(sim.step(&mut g));
            assert_eq!(sim.now(), SimTime::from_nanos(10 * k));
            assert_eq!(sim.pending_events(), 1);
        }
        assert_eq!(sim.executed_events(), 6, "the spin ticks are events");
        g.open = true;
        assert!(sim.step(&mut g));
        assert_eq!(g.fired, vec![60]);
        assert_eq!(sim.pending_events(), 0);
        assert!(!sim.step(&mut g));
    }

    #[test]
    fn dormant_poll_is_hidden_and_armed_poll_is_shown() {
        let (mut sim, mut g) = parked_at_zero();
        sim.schedule_at(SimTime::from_nanos(95), |g: &mut Gate, _| g.open = true);
        // Dormant: the next visible event is the opener at 95 ns.
        assert_eq!(sim.pending_events(), 2);
        assert_eq!(sim.next_event_at(), Some(SimTime::from_nanos(95)));
        assert!(sim.step(&mut g));
        assert_eq!(sim.executed_events(), 2, "dormant ticks are not executed");
        // Armed: the tick at 100 ns shows and fires.
        assert_eq!(sim.pending_events(), 1);
        assert_eq!(sim.next_event_at(), Some(SimTime::from_nanos(100)));
        assert!(sim.step(&mut g));
        assert_eq!(g.fired, vec![100]);
        assert_eq!(sim.pending_events(), 0);
        assert_eq!(sim.next_event_at(), None);
    }

    #[test]
    fn dormant_ticks_consume_the_chains_sequence_numbers() {
        // Chain ticks at 10, 20, 30: the one at 30 is re-scheduled
        // (by the tick at 20) before the opener at 30 is scheduled at
        // 25, so it fires first and finds the gate shut; the poll acts
        // at 40.
        let (mut sim, mut g) = parked_at_zero();
        sim.schedule_at(SimTime::from_nanos(25), |_: &mut Gate, s| {
            s.schedule_at(SimTime::from_nanos(30), |g: &mut Gate, _| g.open = true);
        });
        sim.run(&mut g);
        assert_eq!(g.fired, vec![40]);
    }

    #[test]
    #[should_panic(expected = "a parked poll is already pending")]
    fn a_second_park_panics() {
        let (mut sim, mut g) = parked_at_zero();
        sim.schedule_at(SimTime::from_nanos(1), |_: &mut Gate, s| {
            s.park(TICK, gate_open, gate_fire)
        });
        sim.step(&mut g);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "parked poll became ready outside an event")]
    fn readiness_changed_outside_an_event_is_caught() {
        let (mut sim, mut g) = parked_at_zero();
        sim.schedule_at(SimTime::from_nanos(200), |_: &mut Gate, _| {});
        g.open = true;
        sim.step(&mut g);
    }
}
