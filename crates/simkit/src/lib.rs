//! Deterministic discrete-event simulation kit.
//!
//! `simkit` is the foundation of the BMcast reproduction: a virtual-time
//! event loop ([`Sim`]), time types ([`SimTime`], [`SimDuration`]), a
//! deterministic PRNG ([`rng::Prng`]), statistics collectors
//! ([`stats::Histogram`], [`stats::TimeSeries`]), and the observability
//! layer — a sim-timestamped trace ring ([`trace::Tracer`]), a
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
pub use stats::{Counter, Histogram, TimeSeries};
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
            .field("pending", &self.queue.len())
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
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn executed_events(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending in the queue.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Timestamp of the next pending event, if any.
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.queue.peek().map(|Reverse(ev)| ev.at)
    }

    /// Schedules `f` to run at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before [`Sim::now`]).
    pub fn schedule_at(&mut self, at: SimTime, f: impl FnOnce(&mut W, &mut Sim<W>) + Send + 'static) {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: at={at:?} now={:?}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Scheduled {
            at,
            seq,
            f: Box::new(f),
        }));
    }

    /// Schedules `f` to run after a delay of `d` from the current time.
    pub fn schedule_in(&mut self, d: SimDuration, f: impl FnOnce(&mut W, &mut Sim<W>) + Send + 'static) {
        self.schedule_at(self.now + d, f);
    }

    /// Executes the next pending event, if any, advancing the clock to its
    /// timestamp. Returns `false` when the queue is empty.
    pub fn step(&mut self, world: &mut W) -> bool {
        match self.queue.pop() {
            Some(Reverse(ev)) => {
                debug_assert!(ev.at >= self.now);
                self.now = ev.at;
                self.executed += 1;
                (ev.f)(world, self);
                true
            }
            None => false,
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
            match self.queue.peek() {
                Some(Reverse(ev)) if ev.at <= deadline => {
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
        assert_eq!(
            w.log,
            vec![(5, "first"), (5, "second"), (5, "third")]
        );
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
        sim.schedule_at(SimTime::from_nanos(10), |w: &mut W, _| w.log.push((10, "x")));
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
}
