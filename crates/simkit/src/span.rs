//! Hierarchical sim-clock spans: the flight-recorder view of *where
//! time went*.
//!
//! Spans are the simulator's one event log: phases, redirects, AoE
//! round trips, retransmissions and failed requests each leave a span
//! (or a zero-length instant), and the artifact bundle exports them. A
//! [`Spans`] handle works like [`Metrics`](crate::metrics::Metrics):
//! cheap to clone, disabled by default, and a single branch per call
//! when disabled. Components open a span when work starts
//! ([`Spans::begin`]) and close it when the work completes
//! ([`Spans::end`]); spans nest by passing the parent's
//! [`SpanId`], so a redirect span can own its AoE round-trip spans,
//! which own their retransmit spans.
//!
//! Completed spans land in a bounded ring (oldest dropped, counted),
//! but a per-kind [`LogHistogram`] of durations is kept *exactly* for
//! every finished span regardless of ring eviction — the ring bounds
//! memory, the histograms keep the statistics honest.
//!
//! # Examples
//!
//! ```
//! use simkit::span::{Spans, NO_SPAN};
//! use simkit::SimTime;
//!
//! let s = Spans::enabled(64);
//! let io = s.begin(SimTime::ZERO, "machine", "io.redirect", NO_SPAN, || "lba 8".into());
//! let fetch = s.begin(SimTime::from_micros(1), "aoe", "redirect.fetch", io, String::new);
//! s.end(SimTime::from_micros(9), fetch);
//! s.end(SimTime::from_micros(10), io);
//! let done = s.finished();
//! assert_eq!(done.len(), 2);
//! assert_eq!(done[1].kind, "io.redirect");
//! assert_eq!(done[0].parent, done[1].id);
//!
//! // Disabled: no ids are handed out, closures never run.
//! let off = Spans::disabled();
//! assert_eq!(off.begin(SimTime::ZERO, "x", "y", NO_SPAN, || unreachable!()), NO_SPAN);
//! ```

use crate::metrics::LogHistogram;
use crate::time::SimTime;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Arc;
use std::sync::Mutex;

/// Opaque identifier of a span within one [`Spans`] store.
///
/// Id 0 is reserved as [`NO_SPAN`], the "no parent" / "recorder
/// disabled" sentinel, so instrumented code can thread ids around
/// unconditionally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SpanId(pub u64);

/// The absent span: root parents and every id minted by a disabled
/// handle.
pub const NO_SPAN: SpanId = SpanId(0);

impl SpanId {
    /// Whether this id names a real span (false for [`NO_SPAN`]).
    pub fn is_some(self) -> bool {
        self != NO_SPAN
    }
}

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// This span's id.
    pub id: SpanId,
    /// Enclosing span, or [`NO_SPAN`] for roots.
    pub parent: SpanId,
    /// Display track (Perfetto thread): `"phase"`, `"mediator.ide"`, …
    pub track: &'static str,
    /// Span kind within the track: `"io.redirect"`, `"aoe.rtt"`, …
    pub kind: &'static str,
    /// Virtual time the work started.
    pub start: SimTime,
    /// Virtual time the work finished (`end >= start`).
    pub end: SimTime,
    /// Free-form detail, rendered lazily when the span opened.
    pub detail: String,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> crate::time::SimDuration {
        self.end.saturating_duration_since(self.start)
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} +{}] {}/{} {}",
            self.start,
            self.duration(),
            self.track,
            self.kind,
            self.detail
        )
    }
}

/// A span that has begun but not yet ended.
#[derive(Debug)]
struct OpenSpan {
    parent: SpanId,
    track: &'static str,
    kind: &'static str,
    start: SimTime,
    detail: String,
}

/// The bounded store behind enabled [`Spans`] handles.
#[derive(Debug)]
pub struct SpanStore {
    open: BTreeMap<u64, OpenSpan>,
    done: VecDeque<Span>,
    capacity: usize,
    next_id: u64,
    started: u64,
    dropped: u64,
    kinds: BTreeMap<&'static str, LogHistogram>,
}

impl SpanStore {
    fn new(capacity: usize) -> SpanStore {
        SpanStore {
            open: BTreeMap::new(),
            done: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
            next_id: 1,
            started: 0,
            dropped: 0,
            kinds: BTreeMap::new(),
        }
    }

    fn push_done(&mut self, span: Span) {
        self.kinds
            .entry(span.kind)
            .or_default()
            .observe(span.duration().as_micros());
        if self.done.len() == self.capacity {
            self.done.pop_front();
            self.dropped += 1;
        }
        self.done.push_back(span);
    }
}

/// A cheap, cloneable handle to a (possibly absent) span store.
#[derive(Clone, Default)]
pub struct Spans(Option<Arc<Mutex<SpanStore>>>);

impl fmt::Debug for Spans {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Spans({})",
            if self.0.is_some() {
                "enabled"
            } else {
                "disabled"
            }
        )
    }
}

impl Spans {
    /// A handle backed by a fresh store keeping at most `capacity`
    /// completed spans (per-kind histograms are unbounded-exact).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enabled(capacity: usize) -> Spans {
        assert!(capacity > 0, "span ring needs capacity");
        Spans(Some(Arc::new(Mutex::new(SpanStore::new(capacity)))))
    }

    /// An inert handle — begins return [`NO_SPAN`], everything else is a
    /// no-op and detail closures never run.
    pub fn disabled() -> Spans {
        Spans(None)
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Opens a span at `at` under `parent` (use [`NO_SPAN`] for roots).
    /// Returns the new span's id, or [`NO_SPAN`] when disabled.
    pub fn begin(
        &self,
        at: SimTime,
        track: &'static str,
        kind: &'static str,
        parent: SpanId,
        detail: impl FnOnce() -> String,
    ) -> SpanId {
        let Some(store) = &self.0 else {
            return NO_SPAN;
        };
        let mut s = store.lock().unwrap();
        let id = s.next_id;
        s.next_id += 1;
        s.started += 1;
        s.open.insert(
            id,
            OpenSpan {
                parent,
                track,
                kind,
                start: at,
                detail: detail(),
            },
        );
        SpanId(id)
    }

    /// Closes span `id` at `at`. Unknown or [`NO_SPAN`] ids are ignored,
    /// so `end` is safe to call unconditionally on threaded-through ids.
    pub fn end(&self, at: SimTime, id: SpanId) {
        let Some(store) = &self.0 else { return };
        let mut s = store.lock().unwrap();
        if let Some(open) = s.open.remove(&id.0) {
            s.push_done(Span {
                id,
                parent: open.parent,
                track: open.track,
                kind: open.kind,
                start: open.start,
                end: at.max(open.start),
                detail: open.detail,
            });
        }
    }

    /// Records a complete span in one call — for components that know
    /// both endpoints up front (e.g. a server that computed `ready_at`).
    pub fn record(
        &self,
        start: SimTime,
        end: SimTime,
        track: &'static str,
        kind: &'static str,
        parent: SpanId,
        detail: impl FnOnce() -> String,
    ) -> SpanId {
        let Some(store) = &self.0 else {
            return NO_SPAN;
        };
        let mut s = store.lock().unwrap();
        let id = s.next_id;
        s.next_id += 1;
        s.started += 1;
        s.push_done(Span {
            id: SpanId(id),
            parent,
            track,
            kind,
            start,
            end: end.max(start),
            detail: detail(),
        });
        SpanId(id)
    }

    /// Records a zero-duration marker span (e.g. a retransmission).
    pub fn instant(
        &self,
        at: SimTime,
        track: &'static str,
        kind: &'static str,
        parent: SpanId,
        detail: impl FnOnce() -> String,
    ) -> SpanId {
        self.record(at, at, track, kind, parent, detail)
    }

    /// The completed spans still in the ring, oldest first (empty when
    /// disabled).
    pub fn finished(&self) -> Vec<Span> {
        self.0
            .as_ref()
            .map(|s| s.lock().unwrap().done.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Completed spans of one kind still in the ring, oldest first.
    pub fn finished_of(&self, kind: &str) -> Vec<Span> {
        let mut v = self.finished();
        v.retain(|s| s.kind == kind);
        v
    }

    /// Spans begun and never ended (stuck work), oldest id first.
    pub fn open_count(&self) -> usize {
        self.0
            .as_ref()
            .map(|s| s.lock().unwrap().open.len())
            .unwrap_or(0)
    }

    /// Total spans opened (including still-open and ring-dropped ones).
    pub fn started(&self) -> u64 {
        self.0
            .as_ref()
            .map(|s| s.lock().unwrap().started)
            .unwrap_or(0)
    }

    /// Completed spans evicted from the ring.
    pub fn dropped(&self) -> u64 {
        self.0
            .as_ref()
            .map(|s| s.lock().unwrap().dropped)
            .unwrap_or(0)
    }

    /// Per-kind duration histograms (µs), ordered by kind name. Exact
    /// over all finished spans, including ring-dropped ones.
    pub fn kind_histograms(&self) -> Vec<(&'static str, LogHistogram)> {
        self.0
            .as_ref()
            .map(|s| {
                s.lock()
                    .unwrap()
                    .kinds
                    .iter()
                    .map(|(k, h)| (*k, h.clone()))
                    .collect()
            })
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn nesting_preserves_parent_links() {
        let s = Spans::enabled(16);
        let root = s.begin(SimTime::ZERO, "t", "root", NO_SPAN, String::new);
        let child = s.begin(SimTime::from_micros(2), "t", "child", root, String::new);
        let grand = s.begin(SimTime::from_micros(3), "t", "grand", child, String::new);
        s.end(SimTime::from_micros(4), grand);
        s.end(SimTime::from_micros(6), child);
        s.end(SimTime::from_micros(8), root);
        let done = s.finished();
        assert_eq!(
            done.iter().map(|x| x.kind).collect::<Vec<_>>(),
            vec!["grand", "child", "root"],
            "completion order"
        );
        assert_eq!(done[0].parent, done[1].id);
        assert_eq!(done[1].parent, done[2].id);
        assert_eq!(done[2].parent, NO_SPAN);
        assert_eq!(done[2].duration(), SimDuration::from_micros(8));
    }

    #[test]
    fn disabled_is_inert_and_mints_no_ids() {
        let s = Spans::disabled();
        let id = s.begin(SimTime::ZERO, "t", "k", NO_SPAN, || panic!("no render"));
        assert_eq!(id, NO_SPAN);
        assert!(!id.is_some());
        s.end(SimTime::from_secs(1), id);
        assert_eq!(
            s.record(SimTime::ZERO, SimTime::ZERO, "t", "k", NO_SPAN, || {
                panic!("no render")
            }),
            NO_SPAN
        );
        assert!(s.finished().is_empty());
        assert_eq!(s.started(), 0);
        assert!(s.kind_histograms().is_empty());
    }

    #[test]
    fn ring_drops_oldest_but_histograms_stay_exact() {
        let s = Spans::enabled(2);
        for i in 0..5u64 {
            let id = s.begin(SimTime::from_micros(i), "t", "k", NO_SPAN, String::new);
            s.end(SimTime::from_micros(i + 10), id);
        }
        assert_eq!(s.finished().len(), 2);
        assert_eq!(s.dropped(), 3);
        let kinds = s.kind_histograms();
        assert_eq!(kinds.len(), 1);
        assert_eq!(kinds[0].1.count(), 5, "histogram saw every span");
        assert_eq!(kinds[0].1.mean(), 10.0);
    }

    #[test]
    fn record_clamps_reversed_endpoints() {
        let s = Spans::enabled(4);
        s.record(
            SimTime::from_micros(5),
            SimTime::from_micros(3),
            "t",
            "k",
            NO_SPAN,
            String::new,
        );
        assert_eq!(s.finished()[0].duration(), SimDuration::ZERO);
    }

    #[test]
    fn ending_unknown_ids_is_harmless() {
        let s = Spans::enabled(4);
        s.end(SimTime::ZERO, SpanId(99));
        s.end(SimTime::ZERO, NO_SPAN);
        assert!(s.finished().is_empty());
        assert_eq!(s.open_count(), 0);
    }

    #[test]
    fn open_spans_are_counted_until_ended() {
        let s = Spans::enabled(4);
        let a = s.begin(SimTime::ZERO, "t", "k", NO_SPAN, String::new);
        let _b = s.begin(SimTime::ZERO, "t", "k", NO_SPAN, String::new);
        assert_eq!(s.open_count(), 2);
        s.end(SimTime::from_micros(1), a);
        assert_eq!(s.open_count(), 1);
        assert_eq!(s.started(), 2);
        assert_eq!(s.finished().len(), 1);
    }

    #[test]
    fn clones_share_one_store() {
        let a = Spans::enabled(8);
        let b = a.clone();
        let id = a.begin(SimTime::ZERO, "t", "k", NO_SPAN, String::new);
        b.end(SimTime::from_micros(1), id);
        assert_eq!(a.finished().len(), 1);
    }

    #[test]
    fn instant_spans_have_zero_duration() {
        let s = Spans::enabled(4);
        let id = s.instant(SimTime::from_micros(7), "t", "mark", NO_SPAN, || "x".into());
        assert!(id.is_some());
        let done = s.finished();
        assert_eq!(done[0].start, done[0].end);
        assert_eq!(done[0].detail, "x");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        Spans::enabled(0);
    }
}
