//! Deterministic discrete-event simulation kit.
//!
//! `simkit` is the foundation of the BMcast reproduction: a virtual-time
//! event loop ([`Sim`]), time types ([`SimTime`], [`SimDuration`]), a
//! deterministic PRNG ([`rng::Prng`]), an exact-sample histogram
//! ([`stats::Histogram`]), and the observability layer — a
//! counter/gauge/histogram registry ([`metrics::Metrics`]), hierarchical
//! flight-recorder spans ([`span::Spans`], the one event log: phases,
//! redirects, retransmissions and failed requests are all spans), a
//! periodic timeline sampler ([`sampler::Sampler`]), sim-time SLO
//! watchdogs ([`slo::SloEngine`]), and Perfetto/report exporters
//! ([`export`]) — all zero-cost when disabled.
//!
//! The engine is single-threaded and fully deterministic: events scheduled
//! at the same instant fire in scheduling order. The paper's "threads"
//! (retriever/writer threads, polling threads) are modeled as event chains,
//! which is faithful to BMcast's polling-based design; chains that re-arm
//! themselves run on keyed timers ([`Sim::arm`]), whose ticks that would
//! do nothing cost no event.
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

pub use fault::{FaultCounters, FaultInjector, FaultPlan, LinkVerdict, ServerHealth};
pub use metrics::{LogHistogram, Metrics, MetricsSnapshot};
pub use rng::Prng;
pub use sampler::{SampleRow, Sampler};
pub use slo::{Alert, SloEngine, SloInput, SloRule};
pub use span::{Span, SpanId, Spans, NO_SPAN};
pub use stats::Histogram;
pub use time::{SimDuration, SimTime};

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Ignored: a handle that records nothing. Spans ([`Spans`]) are the one
/// event log; this stays only because the `bmbench` package still builds
/// one for `Machine::set_telemetry`. ROADMAP item 1 part A deletes it.
#[derive(Debug)]
pub struct Tracer;

impl Tracer {
    /// Ignored: `capacity` sizes nothing.
    pub fn enabled(_capacity: usize) -> Tracer {
        Tracer
    }

    /// The same inert handle as [`Tracer::enabled`].
    pub fn disabled() -> Tracer {
        Tracer
    }
}

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

/// What one pending tick of a keyed timer would do, judged by the
/// timer's plan from the world as it stands (see [`Sim::arm`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tick {
    /// The tick changes the world: its handler runs as an event.
    Act,
    /// The tick only re-arms the timers its plan put on the
    /// [`Rearms`] sink (none, when its chain ends).
    Idle,
    /// The tick only re-arms itself one `period` on, and so does every
    /// later tick until an event changes the world (a poll).
    Poll(SimDuration),
}

/// A keyed timer: one recurring purpose of the world (a poll, a gated
/// retry, a retransmission clock), standing for every event chain of
/// that purpose at once. `slot` names the purpose; a world gives each
/// of its timers its own.
pub struct Timer<W> {
    /// The purpose's slot index, below [`MAX_TIMERS`].
    pub slot: usize,
    /// Judges a tick due at the given instant. An [`Tick::Idle`] tick
    /// pushes the re-arms its handler would make, in the handler's
    /// order. Must read only state that events change.
    pub plan: fn(&W, SimTime, &mut Rearms<W>) -> Tick,
    /// The tick's handler: what an acting tick runs as an event, and
    /// what an idle tick's plan stands for.
    pub fire: fn(&mut W, &mut Sim<W>),
}

impl<W> Clone for Timer<W> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<W> Copy for Timer<W> {}

/// Slots a world may give its timers.
pub const MAX_TIMERS: usize = 4;

/// The re-arms an idle tick would make: the sink a [`Timer::plan`]
/// pushes onto.
pub struct Rearms<W>(Vec<(Timer<W>, SimTime)>);

impl<W> Rearms<W> {
    /// Records that the tick would arm `timer` at `at`.
    pub fn arm(&mut self, timer: Timer<W>, at: SimTime) {
        self.0.push((timer, at));
    }
}

/// A pending event's or tick's place in the order: `(time, seq)`.
type Key = (SimTime, u64);

/// The key of no tick: after every real one.
const NO_TICK: Key = (SimTime::from_nanos(u64::MAX), u64::MAX);

/// An idle tick taken ahead of the next event by the look ahead (see
/// [`Sim::arm`]), kept so an outside insert can take it back.
struct Ahead {
    slot: usize,
    tick: Key,
    /// The sequence counter before the tick's re-arms took theirs.
    seq_before: u64,
    /// Where the tick's re-arms start in `Timers::added`.
    added: usize,
    /// A poll's skip: its period and the dormant ticks taken at once.
    poll: Option<(SimDuration, u64)>,
}

/// How many idle ticks one look ahead takes before it shows the next
/// one as an event, so a long idle stretch costs one event per this
/// many ticks, and an outside insert takes back at most this many.
const LOOK_AHEAD_TICKS: usize = 64;

/// The keyed timers' state, out of line: the step after every event
/// reads only [`Sim`]'s inline summary of it.
struct Timers<W> {
    /// Each slot's first pending tick, [`NO_TICK`] when it has none.
    fronts: [Key; MAX_TIMERS],
    /// Each slot's later ticks, in key order.
    tails: [VecDeque<Key>; MAX_TIMERS],
    timers: [Option<Timer<W>>; MAX_TIMERS],
    /// Idle ticks taken ahead of the next event, oldest first.
    ahead: Vec<Ahead>,
    /// The ticks their re-arms added, as `(slot, key)`.
    added: Vec<(usize, Key)>,
    /// Every instant those re-arms aimed at, kept or dropped.
    rearmed: Vec<SimTime>,
    /// The poll set aside by the look ahead and skipped at its end,
    /// with the key it moved to.
    polled: Option<(Ahead, Key)>,
    rearms: Rearms<W>,
}

impl<W> Timers<W> {
    /// The earliest pending tick outside slot `except`, as `(key,
    /// slot)`; [`NO_TICK`] when there is none.
    fn earliest(&self, except: usize) -> (Key, usize) {
        let mut best = (NO_TICK, usize::MAX);
        for (i, &k) in self.fronts.iter().enumerate() {
            if k < best.0 && i != except {
                best = (k, i);
            }
        }
        best
    }

    /// Inserts a tick in slot `i`; returns whether it went last.
    fn insert(&mut self, i: usize, key: Key) -> bool {
        let front = self.fronts[i];
        if front == NO_TICK {
            self.fronts[i] = key;
            return true;
        }
        let tail = &mut self.tails[i];
        if key < front {
            tail.push_front(front);
            self.fronts[i] = key;
            return false;
        }
        if tail.back().is_none_or(|&b| b < key) {
            tail.push_back(key);
            return true;
        }
        let j = tail.partition_point(|&k| k < key);
        tail.insert(j, key);
        false
    }

    /// Removes a pending tick from slot `i`; returns whether it was
    /// the slot's last.
    fn remove(&mut self, i: usize, key: Key) -> bool {
        if self.fronts[i] == key {
            self.fronts[i] = self.tails[i].pop_front().unwrap_or(NO_TICK);
            return self.fronts[i] == NO_TICK;
        }
        let tail = &mut self.tails[i];
        let j = tail.partition_point(|&k| k < key);
        debug_assert_eq!(tail.get(j), Some(&key), "tick to remove is pending");
        tail.remove(j);
        j == tail.len()
    }
}

/// A deterministic discrete-event simulator over a world type `W`.
///
/// Events are closures receiving `&mut W` and `&mut Sim<W>`; they may
/// schedule further events. Two events scheduled for the same instant fire
/// in the order they were scheduled, which makes runs bit-reproducible.
/// Recurring work arms keyed timers instead ([`Sim::arm`]): their ticks
/// that would do nothing cost no event.
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
    /// The earliest pending tick, [`NO_TICK`] when there is none.
    floor: Key,
    /// The pending tick that runs next as an event, when it comes
    /// before the heap head: `(key, slot)`.
    due: Option<(Key, usize)>,
    /// Bit `i`: no sequence number has gone to anything due at
    /// `clean_at[i]`, the instant of slot `i`'s last tick, since that
    /// tick took its own.
    clean: u8,
    clean_at: [SimTime; MAX_TIMERS],
    /// Whether `due` is current and the ticks taken ahead are all the
    /// idle ones before it. An outside insert that takes ticks back
    /// clears it; the next step looks ahead again.
    planned: bool,
    /// Whether the last look ahead took any tick.
    took: bool,
    /// Set while an event runs: inserts made outside one first take
    /// back the idle ticks the driver has not reached.
    in_event: bool,
    timers: Box<Timers<W>>,
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
            floor: NO_TICK,
            due: None,
            clean: 0,
            clean_at: [SimTime::ZERO; MAX_TIMERS],
            planned: true,
            took: false,
            in_event: false,
            timers: Box::new(Timers {
                fronts: [NO_TICK; MAX_TIMERS],
                tails: std::array::from_fn(|_| VecDeque::new()),
                timers: [None; MAX_TIMERS],
                ahead: Vec::new(),
                added: Vec::new(),
                rearmed: Vec::new(),
                polled: None,
                rearms: Rearms(Vec::new()),
            }),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far. Timer ticks that would do
    /// nothing are skipped, not executed, so they are not counted
    /// (unless a long idle stretch shows one as an event).
    pub fn executed_events(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending, a keyed timer counting as one
    /// however many ticks it holds.
    pub fn pending_events(&self) -> usize {
        let armed = self.timers.fronts.iter().filter(|&&k| k != NO_TICK);
        self.queue.len() + armed.count()
    }

    /// The instants of the pending ticks of the timer in `slot`, in
    /// order.
    pub fn timer_ticks(&self, slot: usize) -> Vec<SimTime> {
        let t = &self.timers;
        let front = Some(t.fronts[slot]).filter(|&k| k != NO_TICK);
        let ticks = front.into_iter().chain(t.tails[slot].iter().copied());
        ticks.map(|(at, _)| at).collect()
    }

    /// Timestamp of the next pending event, if any. A timer tick shows
    /// only when it would act, or when it is all that is pending.
    pub fn next_event_at(&self) -> Option<SimTime> {
        let head = self.queue.peek().map(|Reverse(ev)| ev.at);
        let tick = if self.planned {
            self.due.map(|((at, _), _)| at)
        } else {
            // Taken back by an outside insert at `t`: every tick left is
            // at or after `t`, and so is nothing the insert comes before.
            Some(self.floor.0).filter(|_| self.floor != NO_TICK)
        };
        match (head, tick) {
            (Some(h), Some(t)) => Some(h.min(t)),
            (h, t) => h.or(t),
        }
    }

    /// Inserts a tick in slot `i`; returns whether it went last.
    fn insert_key(&mut self, i: usize, key: Key) -> bool {
        self.floor = self.floor.min(key);
        self.timers.insert(i, key)
    }

    /// Removes a pending tick from slot `i`.
    fn remove_tick(&mut self, i: usize, key: Key) {
        if self.timers.remove(i, key) {
            self.clean &= !(1 << i);
        }
        if key == self.floor {
            self.floor = self.timers.earliest(usize::MAX).0;
        }
    }

    /// Puts a taken-back tick back in slot `i`.
    fn restore_tick(&mut self, i: usize, key: Key) {
        if self.insert_key(i, key) {
            self.clean &= !(1 << i);
        }
    }

    /// Takes the next sequence number for something due at `at`.
    fn alloc(&mut self, at: SimTime) -> u64 {
        let mut bits = self.clean;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if self.clean_at[i] == at {
                self.clean &= !(1 << i);
            }
        }
        self.seq += 1;
        self.seq - 1
    }

    /// Arms `timer` for a tick at `at`: equivalent to scheduling an
    /// event at `at` that runs `timer.fire`, which re-arms through
    /// `arm` as a chain re-schedules itself. The tick takes one
    /// sequence number, as `schedule_at` would, so every event keeps
    /// the `(time, seq)` order the chains gave it.
    ///
    /// Before each step the sim looks ahead: each tick ordered before
    /// the next event is judged by `timer.plan` against the world as
    /// the last event left it. An acting tick runs as an event; an idle
    /// one only re-arms what its plan says, in O(1), without running.
    /// A tick armed at the instant of the purpose's last tick, with
    /// nothing taking a sequence number at that instant in between, is
    /// dropped: it would fire right after that tick and do nothing it
    /// did not. So a purpose holds at most one tick per instant.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before [`Sim::now`]), or if
    /// `timer.slot` is not below [`MAX_TIMERS`].
    pub fn arm(&mut self, timer: Timer<W>, at: SimTime) {
        assert!(
            at >= self.now,
            "cannot arm a timer in the past: at={at:?} now={:?}",
            self.now
        );
        if !self.in_event {
            self.take_back(self.now);
            self.planned = false;
        }
        self.add_tick(timer, at);
    }

    /// Adds a tick of `timer` at `at` under a fresh sequence number,
    /// unless it duplicates the purpose's last tick (see [`Sim::arm`]).
    /// Returns the kept tick's key.
    fn add_tick(&mut self, timer: Timer<W>, at: SimTime) -> Option<Key> {
        let i = timer.slot;
        self.timers.timers[i] = Some(timer);
        if self.clean & (1 << i) != 0 && self.clean_at[i] == at {
            return None;
        }
        let key = (at, self.alloc(at));
        if self.insert_key(i, key) {
            self.clean |= 1 << i;
            self.clean_at[i] = at;
        }
        Some(key)
    }

    /// Takes the idle tick `tick` of `slot`: it leaves, and its plan's
    /// re-arms take their sequence numbers in order.
    fn take_idle(&mut self, slot: usize, tick: Key, rearms: &Rearms<W>) {
        let (seq_before, added) = (self.seq, self.timers.added.len());
        self.remove_tick(slot, tick);
        for &(timer, at) in &rearms.0 {
            self.timers.rearmed.push(at);
            if let Some(key) = self.add_tick(timer, at) {
                self.timers.added.push((timer.slot, key));
            }
        }
        self.timers.ahead.push(Ahead {
            slot,
            tick,
            seq_before,
            added,
            poll: None,
        });
    }

    /// Takes `k` dormant ticks of the poll `tick` of `slot` at once: it
    /// moves `k` periods on under a fresh sequence number. Returns the
    /// record and the key it moved to ([`NO_TICK`] if it was dropped as
    /// a duplicate).
    fn take_poll(&mut self, slot: usize, tick: Key, period: SimDuration, k: u64) -> (Ahead, Key) {
        let seq_before = self.seq;
        let at = tick.0 + period * k;
        let key = if self.timers.tails[slot].is_empty() {
            // The poll's only tick moves on in place.
            let key = (at, self.alloc(at));
            self.timers.fronts[slot] = key;
            self.floor = self.timers.earliest(usize::MAX).0;
            self.clean |= 1 << slot;
            self.clean_at[slot] = at;
            key
        } else {
            let timer = self.timers.timers[slot].expect("a slot with ticks has a timer");
            self.remove_tick(slot, tick);
            self.add_tick(timer, at).unwrap_or(NO_TICK)
        };
        let a = Ahead {
            slot,
            tick,
            seq_before,
            added: self.timers.added.len(),
            poll: Some((period, k)),
        };
        (a, key)
    }

    /// Whether the front tick of `slot` is the only pending tick.
    fn last_tick(&self, slot: usize) -> bool {
        let t = &self.timers;
        t.tails[slot].is_empty() && t.earliest(slot).0 == NO_TICK
    }

    /// The earliest pending tick or event other than the front tick of
    /// `slot`.
    fn next_other(&self, slot: usize) -> Option<Key> {
        let head = self.queue.peek().map(|Reverse(ev)| (ev.at, ev.seq));
        let second = self.timers.tails[slot].front().copied();
        let other = self.timers.earliest(slot).0;
        [head, second, Some(other).filter(|&k| k != NO_TICK)]
            .into_iter()
            .flatten()
            .min()
    }

    /// Takes the idle ticks ordered before the next event, and finds
    /// the tick (if any) that acts before it: see [`Sim::arm`]. Runs
    /// after every event, so the case with no tick before the next
    /// event stays inline and cheap.
    #[inline]
    fn look_ahead(&mut self, world: &W) {
        if self.took {
            self.timers.ahead.clear();
            self.timers.added.clear();
            self.timers.polled = None;
            self.took = false;
        }
        self.due = None;
        self.planned = true;
        let floor = self.floor;
        if floor == NO_TICK
            || self
                .queue
                .peek()
                .is_some_and(|Reverse(h)| (h.at, h.seq) < floor)
        {
            return;
        }
        self.took = true;
        if !self.look_ahead_pass(world, false) {
            self.take_back(SimTime::ZERO);
            self.look_ahead_pass(world, true);
        }
    }

    /// One look ahead. A poll is set aside and skipped once at the end,
    /// which is exact unless some re-arm aims at its grid; then the pass
    /// returns `false` and is redone with the poll skipped group by
    /// group between the other ticks (`interleave`).
    fn look_ahead_pass(&mut self, world: &W, interleave: bool) -> bool {
        self.timers.ahead.clear();
        self.timers.added.clear();
        self.timers.rearmed.clear();
        self.due = None;
        self.planned = true;
        let head = self
            .queue
            .peek()
            .map_or(NO_TICK, |Reverse(ev)| (ev.at, ev.seq));
        let mut limit = head;
        let mut aside = None;
        let mut except = usize::MAX;
        for taken in 0.. {
            let (key, slot) = self.timers.earliest(except);
            if key == NO_TICK || key > head {
                break;
            }
            if taken == LOOK_AHEAD_TICKS {
                // A chain that idles on and on: show this tick as an event.
                (self.due, limit) = (Some((key, slot)), key);
                break;
            }
            let timer = self.timers.timers[slot].expect("a slot with ticks has a timer");
            let mut rearms = std::mem::replace(&mut self.timers.rearms, Rearms(Vec::new()));
            rearms.0.clear();
            match (timer.plan)(world, key.0, &mut rearms) {
                Tick::Act => (self.due, limit) = (Some((key, slot)), key),
                // The last pending thing runs as an event, so the sim
                // drains when and where the chain did.
                Tick::Idle if head == NO_TICK && rearms.0.is_empty() && self.last_tick(slot) => {
                    (self.due, limit) = (Some((key, slot)), key);
                }
                Tick::Idle => self.take_idle(slot, key, &rearms),
                Tick::Poll(period) if !interleave => {
                    aside = Some((slot, key, period));
                    except = slot;
                }
                Tick::Poll(period) => match self.next_other(slot) {
                    // Skip the dormant ticks before the next other tick
                    // or event at once. The first may share its instant
                    // (it holds the lower seq); every later one takes a
                    // fresh seq, so it passes only when strictly earlier.
                    Some((next, _)) => {
                        let k = ticks_before(key.0, period, next).max(1);
                        let (a, moved) = self.take_poll(slot, key, period, k);
                        if moved != NO_TICK {
                            self.timers.added.push((slot, moved));
                        }
                        self.timers.ahead.push(a);
                    }
                    // Nothing else is pending: spin tick by tick.
                    None => (self.due, limit) = (Some((key, slot)), key),
                },
            }
            self.timers.rearms = rearms;
            if self.due.is_some() {
                break;
            }
        }
        let Some((slot, tick, period)) = aside else {
            return true;
        };
        let on_grid =
            |x: SimTime| x >= tick.0 && (x - tick.0).as_nanos().is_multiple_of(period.as_nanos());
        if self.timers.rearmed.iter().any(|&x| on_grid(x)) {
            return false;
        }
        // Skip the poll past the last tick taken or up to the tick or
        // event that comes next; with nothing else pending, it spins
        // tick by tick from there.
        let spin = limit == NO_TICK;
        if spin {
            limit = self.timers.ahead.last().map_or(tick, |a| a.tick);
        }
        let k =
            ticks_before(tick.0, period, limit.0) + u64::from(tick.0 == limit.0 && tick < limit);
        let mut key = tick;
        if k > 0 {
            let (a, moved) = self.take_poll(slot, tick, period, k);
            self.timers.polled = Some((a, moved));
            key = if moved == NO_TICK {
                self.timers.fronts[slot]
            } else {
                moved
            };
        }
        if spin {
            self.due = Some((key, slot));
        }
        true
    }

    /// Takes back the idle ticks taken ahead at or after `t` (the time
    /// an outside insert stands for): an event the driver inserts at
    /// `t` comes before them, and may change what they would do.
    fn take_back(&mut self, t: SimTime) {
        if self.due.is_some_and(|((at, _), _)| at >= t) {
            self.due = None;
            self.planned = false;
        }
        if !self.took {
            return;
        }
        let stands = |a: &Ahead| match a.poll {
            Some((p, k)) => ticks_before(a.tick.0, p, t) >= k,
            None => a.tick.0 < t,
        };
        let timers = &self.timers;
        if timers.ahead.last().is_none_or(stands)
            && timers.polled.as_ref().is_none_or(|(a, _)| stands(a))
        {
            return;
        }
        self.planned = false;
        // The poll skipped at the end of the look ahead took the last
        // sequence number: undo it first, redo it last.
        let polled = self.timers.polled.take();
        if let Some((a, moved)) = &polled {
            if *moved != NO_TICK {
                self.remove_tick(a.slot, *moved);
            }
            self.seq = a.seq_before;
            self.restore_tick(a.slot, a.tick);
        }
        while let Some(a) = self.timers.ahead.pop() {
            if stands(&a) {
                self.timers.ahead.push(a);
                break;
            }
            while self.timers.added.len() > a.added {
                let (slot, key) = self.timers.added.pop().expect("checked the length");
                self.remove_tick(slot, key);
            }
            self.seq = a.seq_before;
            self.restore_tick(a.slot, a.tick);
            if let Some((period, _)) = a.poll.filter(|_| a.tick.0 < t) {
                // A poll skip straddling `t` keeps its ticks before `t`.
                let kept = ticks_before(a.tick.0, period, t);
                let (a, moved) = self.take_poll(a.slot, a.tick, period, kept);
                if moved != NO_TICK {
                    self.timers.added.push((a.slot, moved));
                }
                self.timers.ahead.push(a);
                break;
            }
        }
        if let Some((a, _)) = polled.filter(|(a, _)| a.tick.0 < t) {
            let (period, _) = a.poll.expect("a poll skip");
            let kept = ticks_before(a.tick.0, period, t);
            self.timers.polled = Some(self.take_poll(a.slot, a.tick, period, kept));
        }
    }

    /// Schedules `f` to run at absolute time `at`. Called from outside
    /// any event, the insert stands for a driver that has reached `at`
    /// (a fleet delivery): timer ticks before `at` are taken as fired
    /// first.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before [`Sim::now`]).
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        f: impl FnOnce(&mut W, &mut Sim<W>) + Send + 'static,
    ) {
        self.insert(at, at, Box::new(f));
    }

    /// Schedules `f` to run after a delay of `d` from the current time.
    /// Called from outside any event, the insert stands for a driver
    /// at [`Sim::now`].
    pub fn schedule_in(
        &mut self,
        d: SimDuration,
        f: impl FnOnce(&mut W, &mut Sim<W>) + Send + 'static,
    ) {
        self.insert(self.now + d, self.now, Box::new(f));
    }

    fn insert(&mut self, at: SimTime, driver_at: SimTime, f: EventFn<W>) {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: at={at:?} now={:?}",
            self.now
        );
        if !self.in_event {
            self.take_back(driver_at);
        }
        let seq = self.alloc(at);
        self.queue.push(Reverse(Scheduled { at, seq, f }));
    }

    /// Executes the next pending event, if any, advancing the clock to its
    /// timestamp. Returns `false` when nothing is pending.
    pub fn step(&mut self, world: &mut W) -> bool {
        if !self.planned {
            self.look_ahead(world);
        }
        // The idle ticks taken ahead stand: the next event follows them.
        match self.due.take() {
            Some((key, slot))
                if self
                    .queue
                    .peek()
                    .is_none_or(|Reverse(h)| key < (h.at, h.seq)) =>
            {
                self.remove_tick(slot, key);
                let fire = self.timers.timers[slot]
                    .expect("a due tick has a timer")
                    .fire;
                self.enter(key.0);
                fire(world, self);
            }
            _ => {
                let Some(Reverse(ev)) = self.queue.pop() else {
                    return false;
                };
                self.enter(ev.at);
                (ev.f)(world, self);
            }
        }
        self.in_event = false;
        self.look_ahead(world);
        true
    }

    /// Moves the clock to an event about to run at `at`.
    #[inline]
    fn enter(&mut self, at: SimTime) {
        debug_assert!(at >= self.now);
        self.now = at;
        self.executed += 1;
        self.in_event = true;
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
            if !self.planned {
                self.look_ahead(world);
            }
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

/// The ticks of a poll first due at `at`, every `period`, strictly
/// before `t`.
fn ticks_before(at: SimTime, period: SimDuration, t: SimTime) -> u64 {
    if at >= t {
        return 0;
    }
    match (t - at).as_nanos() {
        gap if gap <= period.as_nanos() => 1,
        gap => gap.div_ceil(period.as_nanos()),
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

    /// A world for the timer tests: a poll waits for `open`; a gated
    /// retry waits for `gate` and then acts once per armed chain.
    #[derive(Default)]
    struct Gate {
        open: bool,
        gate: u64,
        fired: Vec<(u64, &'static str)>,
    }

    fn poll_plan(g: &Gate, _: SimTime, _: &mut Rearms<Gate>) -> Tick {
        if g.open {
            Tick::Act
        } else {
            Tick::Poll(TICK)
        }
    }

    fn poll_fire(g: &mut Gate, s: &mut Sim<Gate>) {
        if g.open {
            g.fired.push((s.now().as_nanos(), "poll"));
        } else {
            s.arm(POLL, s.now() + TICK);
        }
    }

    fn retry_plan(g: &Gate, at: SimTime, r: &mut Rearms<Gate>) -> Tick {
        if at.as_nanos() < g.gate {
            r.arm(RETRY, SimTime::from_nanos(g.gate));
            Tick::Idle
        } else {
            Tick::Act
        }
    }

    fn retry_fire(g: &mut Gate, s: &mut Sim<Gate>) {
        if s.now().as_nanos() < g.gate {
            s.arm(RETRY, SimTime::from_nanos(g.gate));
        } else {
            g.fired.push((s.now().as_nanos(), "retry"));
        }
    }

    const TICK: SimDuration = SimDuration::from_nanos(10);
    const POLL: Timer<Gate> = Timer {
        slot: 0,
        plan: poll_plan,
        fire: poll_fire,
    };
    const RETRY: Timer<Gate> = Timer {
        slot: 1,
        plan: retry_plan,
        fire: retry_fire,
    };

    /// A sim with a poll armed at t=0 for its first tick at 10 ns.
    fn polling_at_zero() -> (Sim<Gate>, Gate) {
        let mut sim = Sim::<Gate>::new();
        let mut g = Gate::default();
        sim.schedule_at(SimTime::ZERO, |_: &mut Gate, s| s.arm(POLL, s.now() + TICK));
        sim.step(&mut g);
        (sim, g)
    }

    #[test]
    fn dormant_poll_spins_tick_by_tick_on_an_empty_queue() {
        let (mut sim, mut g) = polling_at_zero();
        for k in 1..=5u64 {
            assert_eq!(sim.next_event_at(), Some(SimTime::from_nanos(10 * k)));
            assert!(sim.step(&mut g));
            assert_eq!(sim.now(), SimTime::from_nanos(10 * k));
            assert_eq!(sim.pending_events(), 1);
        }
        assert_eq!(sim.executed_events(), 6, "the spin ticks are events");
        g.open = true;
        assert!(sim.step(&mut g));
        assert_eq!(g.fired, vec![(60, "poll")]);
        assert_eq!(sim.pending_events(), 0);
        assert!(!sim.step(&mut g));
    }

    #[test]
    fn dormant_poll_is_hidden_and_acting_poll_is_shown() {
        let mut sim = Sim::<Gate>::new();
        let mut g = Gate::default();
        sim.schedule_at(SimTime::ZERO, |_: &mut Gate, s| {
            s.arm(POLL, s.now() + TICK);
            s.schedule_at(SimTime::from_nanos(95), |g: &mut Gate, _| g.open = true);
        });
        sim.step(&mut g);
        assert_eq!(sim.pending_events(), 2);
        assert_eq!(sim.next_event_at(), Some(SimTime::from_nanos(95)));
        assert!(sim.step(&mut g));
        assert_eq!(sim.executed_events(), 2, "dormant ticks are not executed");
        assert_eq!(sim.next_event_at(), Some(SimTime::from_nanos(100)));
        assert!(sim.step(&mut g));
        assert_eq!(g.fired, vec![(100, "poll")]);
        assert_eq!(sim.next_event_at(), None);
    }

    #[test]
    fn dormant_ticks_keep_the_chains_order() {
        // Chain ticks at 10, 20, 30: the one at 30 is re-armed (by the
        // tick at 20) before the opener at 30 is scheduled at 25, so it
        // fires first and finds the gate shut; the poll acts at 40.
        let (mut sim, mut g) = polling_at_zero();
        sim.schedule_at(SimTime::from_nanos(25), |_: &mut Gate, s| {
            s.schedule_at(SimTime::from_nanos(30), |g: &mut Gate, _| g.open = true);
        });
        sim.run(&mut g);
        assert_eq!(g.fired, vec![(40, "poll")]);
    }

    #[test]
    fn gated_retries_collapse_to_one_tick_per_instant() {
        let mut sim = Sim::<Gate>::new();
        let mut g = Gate {
            gate: 100,
            ..Gate::default()
        };
        for at in [10, 20, 20, 100, 100] {
            sim.arm(RETRY, SimTime::from_nanos(at));
        }
        // The second arm at 20 and at 100 duplicate the last tick.
        assert_eq!(
            sim.timer_ticks(RETRY.slot),
            [10, 20, 100].map(SimTime::from_nanos)
        );
        sim.run(&mut g);
        // The ticks at 10 and 20 re-arm at 100 and merge into its tick.
        assert_eq!(g.fired, vec![(100, "retry")]);
        assert_eq!(sim.executed_events(), 1, "only the acting tick runs");
    }

    #[test]
    fn an_event_between_same_instant_arms_keeps_both_ticks() {
        let mut sim = Sim::<Gate>::new();
        let mut g = Gate::default();
        sim.schedule_at(SimTime::ZERO, |_: &mut Gate, s| {
            s.arm(RETRY, SimTime::from_nanos(50));
            s.schedule_at(SimTime::from_nanos(50), |g: &mut Gate, s| {
                g.fired.push((s.now().as_nanos(), "event"))
            });
            s.arm(RETRY, SimTime::from_nanos(50));
        });
        sim.run(&mut g);
        assert_eq!(g.fired, vec![(50, "retry"), (50, "event"), (50, "retry")]);
    }

    #[test]
    fn an_outside_insert_comes_before_the_ticks_it_reaches() {
        // The gate closes at 0 until 1000: the retry ticks at 10 and 20
        // re-arm at 1000 when taken ahead. An outside insert at 15 opens
        // the gate early, so the tick at 20 must be taken back and act.
        let mut sim = Sim::<Gate>::new();
        let mut g = Gate {
            gate: 1000,
            ..Gate::default()
        };
        sim.schedule_at(SimTime::ZERO, |_: &mut Gate, s| {
            s.arm(RETRY, SimTime::from_nanos(10));
            s.arm(RETRY, SimTime::from_nanos(20));
        });
        sim.step(&mut g);
        assert_eq!(sim.next_event_at(), Some(SimTime::from_nanos(1000)));
        sim.schedule_at(SimTime::from_nanos(15), |g: &mut Gate, _| g.gate = 0);
        sim.run(&mut g);
        assert_eq!(g.fired, vec![(20, "retry"), (1000, "retry")]);
    }

    #[test]
    #[should_panic(expected = "cannot arm a timer in the past")]
    fn arming_in_the_past_panics() {
        let mut sim = Sim::<Gate>::new();
        let mut g = Gate::default();
        sim.schedule_at(SimTime::from_nanos(10), |_: &mut Gate, s| {
            s.arm(RETRY, SimTime::from_nanos(5));
        });
        sim.run(&mut g);
    }
}
