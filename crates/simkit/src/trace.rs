//! Ring-buffered structured tracing with sim-timestamps.
//!
//! A [`Tracer`] is a cheap, cloneable handle that components use to emit
//! [`TraceEvent`]s at interesting moments (phase transitions, redirects,
//! retransmissions, moderation decisions). Like
//! [`Metrics`](crate::metrics::Metrics), the default handle is disabled
//! and every emit costs one branch — the detail closure is never called —
//! so tracing is zero-cost in uninstrumented runs.
//!
//! Events land in a bounded ring: when full, the oldest events are
//! dropped (and counted), so a tracer can stay attached to a long
//! deployment without unbounded memory growth. The ring keeps the *tail*
//! of the story, which is what post-mortem debugging of a stuck or
//! misbehaving deployment wants.
//!
//! # Examples
//!
//! ```
//! use simkit::trace::Tracer;
//! use simkit::SimTime;
//!
//! let t = Tracer::enabled(8);
//! t.emit(SimTime::from_millis(5), "phase", "deployment", || "start".into());
//! let events = t.events();
//! assert_eq!(events.len(), 1);
//! assert_eq!(events[0].subsystem, "phase");
//! assert_eq!(events[0].detail, "start");
//!
//! // Disabled: the closure never runs.
//! let off = Tracer::disabled();
//! off.emit(SimTime::ZERO, "x", "y", || unreachable!());
//! ```

use crate::time::SimTime;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use std::sync::Mutex;

/// One structured trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time the event was emitted.
    pub at: SimTime,
    /// Emitting subsystem (`"phase"`, `"mediator.ide"`, `"aoe.client"`, …).
    pub subsystem: &'static str,
    /// Event name within the subsystem (`"redirect"`, `"retransmit"`, …).
    pub event: &'static str,
    /// Free-form detail, rendered lazily at emit time.
    pub detail: String,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>12}] {}.{}: {}",
            format!("{}", self.at),
            self.subsystem,
            self.event,
            self.detail
        )
    }
}

/// The bounded event store behind enabled [`Tracer`] handles.
#[derive(Debug)]
pub struct TraceRing {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    emitted: u64,
    dropped: u64,
}

impl TraceRing {
    fn new(capacity: usize) -> TraceRing {
        TraceRing {
            buf: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
            emitted: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
        self.emitted += 1;
    }
}

/// A cheap, cloneable handle to a (possibly absent) trace ring.
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<Mutex<TraceRing>>>);

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tracer({})",
            if self.0.is_some() {
                "enabled"
            } else {
                "disabled"
            }
        )
    }
}

impl Tracer {
    /// A handle backed by a fresh ring holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enabled(capacity: usize) -> Tracer {
        assert!(capacity > 0, "trace ring needs capacity");
        Tracer(Some(Arc::new(Mutex::new(TraceRing::new(capacity)))))
    }

    /// An inert handle — emits are no-ops and detail closures never run.
    pub fn disabled() -> Tracer {
        Tracer(None)
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Emits an event. `detail` is only rendered when the tracer is
    /// enabled, so expensive formatting is free on the disabled path.
    pub fn emit(
        &self,
        at: SimTime,
        subsystem: &'static str,
        event: &'static str,
        detail: impl FnOnce() -> String,
    ) {
        if let Some(ring) = &self.0 {
            ring.lock().unwrap().push(TraceEvent {
                at,
                subsystem,
                event,
                detail: detail(),
            });
        }
    }

    /// The buffered events, oldest first (empty when disabled).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.0
            .as_ref()
            .map(|r| r.lock().unwrap().buf.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Total events emitted, including any that were dropped.
    pub fn emitted(&self) -> u64 {
        self.0
            .as_ref()
            .map(|r| r.lock().unwrap().emitted)
            .unwrap_or(0)
    }

    /// Events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.0
            .as_ref()
            .map(|r| r.lock().unwrap().dropped)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_tail() {
        let t = Tracer::enabled(3);
        for i in 0..5u64 {
            t.emit(SimTime::from_nanos(i), "s", "e", move || i.to_string());
        }
        let evs = t.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(
            evs.iter().map(|e| e.detail.as_str()).collect::<Vec<_>>(),
            vec!["2", "3", "4"],
            "oldest dropped, newest kept"
        );
        assert_eq!(t.emitted(), 5);
        assert_eq!(t.dropped(), 2);
    }

    #[test]
    fn clones_share_one_ring() {
        let a = Tracer::enabled(16);
        let b = a.clone();
        a.emit(SimTime::ZERO, "x", "from_a", String::new);
        b.emit(SimTime::ZERO, "x", "from_b", String::new);
        assert_eq!(a.events().len(), 2);
    }

    #[test]
    fn disabled_never_renders_detail() {
        let t = Tracer::disabled();
        t.emit(SimTime::ZERO, "x", "y", || panic!("must not render"));
        assert!(t.events().is_empty());
        assert_eq!(t.emitted(), 0);
    }

    #[test]
    fn drop_accounting_survives_multiple_wraparounds() {
        let t = Tracer::enabled(4);
        // 3 full wraps plus a partial: 4*4 + 2 = 18 emits through a
        // 4-slot ring.
        for i in 0..18u64 {
            t.emit(SimTime::from_nanos(i), "s", "e", move || i.to_string());
        }
        assert_eq!(t.emitted(), 18);
        assert_eq!(t.dropped(), 14);
        let evs = t.events();
        assert_eq!(evs.len(), 4);
        assert_eq!(
            evs.iter().map(|e| e.detail.as_str()).collect::<Vec<_>>(),
            vec!["14", "15", "16", "17"],
            "tail preserved across wraps"
        );
        assert_eq!(t.emitted() - t.dropped(), evs.len() as u64);
    }

    #[test]
    fn display_includes_names() {
        let t = Tracer::enabled(4);
        t.emit(SimTime::from_micros(3), "phase", "devirt", || {
            "cpu 0".into()
        });
        let s = t.events()[0].to_string();
        assert!(s.contains("phase.devirt"), "{s}");
        assert!(s.contains("cpu 0"), "{s}");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        Tracer::enabled(0);
    }
}
