//! One block-stream engine for both directions of an image (§3.3, M2):
//! the background copy's retriever pulls image blocks from the server,
//! and snapshot-back's sender, "the retriever/writer of §3.3 run in
//! reverse", pushes dirty runs to it. A [`BlockStream`] holds what the
//! two share: the claim window, the cursor that rewinds over a failed
//! claim, the failure back-off (`10 ms · 2^(k−1)` after the `k`-th
//! consecutive failed request, capped at 1 s, cleared by a completion),
//! the open span per claim, and the counters. What a range *is* stays
//! with the owner: [`crate::background::BackgroundCopy`] keeps the
//! fetched data in its FIFO, [`crate::snapback::SnapshotBack`] claims
//! dirty runs out of the tracker.

use hwsim::block::{BlockRange, Lba};
use simkit::{Metrics, SimDuration, SimTime, SpanId, Spans, NO_SPAN};
use std::collections::BTreeMap;

/// First back-off step after a failed request.
const BACKOFF_BASE: SimDuration = SimDuration::from_millis(10);
/// Ceiling on the back-off while the server is unreachable.
const BACKOFF_CAP: SimDuration = SimDuration::from_millis(1_000);

/// A stream's span track, span label verb, and span and metric names:
/// a label, not a setting.
#[derive(Debug)]
pub(crate) struct StreamNames {
    track: &'static str,
    verb: &'static str,
    span: &'static str,
    failed: &'static str,
    claims: &'static str,
    failures: &'static str,
    backoffs: &'static str,
    bytes: &'static str,
    inflight: &'static str,
}

/// The names of the stream with metric prefix `$p` on track `$track`:
/// its span `<p>.<verb>`, the `_failed` instant and the counters.
macro_rules! stream_names {
    ($p:literal, $track:literal, $verb:literal, $claims:literal, $done:literal) => {
        StreamNames {
            track: $track,
            verb: $verb,
            span: concat!($p, ".", $verb),
            failed: concat!($p, ".", $verb, "_failed"),
            claims: concat!($p, ".", $claims),
            failures: concat!($p, ".", $verb, "_failures"),
            backoffs: concat!($p, ".", $verb, "_backoffs"),
            bytes: concat!($p, ".bytes_", $done),
            inflight: concat!($p, ".inflight"),
        }
    };
}

pub(crate) const BACKGROUND: StreamNames =
    stream_names!("bg", "background", "fetch", "fetches", "fetched");
pub(crate) const SNAPSHOT: StreamNames = stream_names!("snap", "snapback", "send", "sends", "sent");

/// The engine both streams share; see the [module docs](self). Its
/// owner reads the counters; only the engine moves them.
#[derive(Debug)]
pub struct BlockStream {
    names: &'static StreamNames,
    /// Claims in flight, the sectors they cover, and the pipeline depth.
    pub(crate) inflight: usize,
    pub(crate) inflight_sectors: u64,
    max_inflight: usize,
    /// Next LBA the owner scans from.
    pub(crate) cursor: Lba,
    /// Consecutive failed requests since the last completion.
    pub(crate) consecutive_failures: u32,
    ready_at: SimTime,
    /// Ranges claimed, re-claims included (claims, not wire requests: a
    /// batched or RDMA request carries several), claims whose request
    /// failed, and sectors of the completed claims.
    pub(crate) claims: u64,
    pub(crate) failures: u64,
    pub(crate) sectors_done: u64,
    pub(crate) metrics: Metrics,
    spans: Spans,
    /// Open span per claim in flight, keyed by start LBA.
    open: BTreeMap<u64, SpanId>,
}

impl BlockStream {
    /// A stream named by `names`, `max_inflight` claims deep.
    ///
    /// # Panics
    ///
    /// Panics if `max_inflight` is zero.
    pub(crate) fn new(names: &'static StreamNames, max_inflight: usize) -> BlockStream {
        assert!(max_inflight > 0, "a stream needs pipeline depth");
        BlockStream {
            names,
            inflight: 0,
            inflight_sectors: 0,
            max_inflight,
            cursor: Lba(0),
            consecutive_failures: 0,
            ready_at: SimTime::ZERO,
            claims: 0,
            failures: 0,
            sectors_done: 0,
            metrics: Metrics::disabled(),
            spans: Spans::disabled(),
            open: BTreeMap::new(),
        }
    }

    /// Attaches a metrics handle; the stream's counters and in-flight
    /// gauge land there.
    pub fn set_telemetry(&mut self, metrics: Metrics) {
        self.metrics = metrics;
    }

    /// Attaches a flight-recorder span handle; every claim in flight
    /// gets a span on the stream's track.
    pub fn set_spans(&mut self, spans: Spans) {
        self.spans = spans;
    }

    pub(crate) fn has_room(&self) -> bool {
        self.inflight < self.max_inflight
    }

    /// Earliest time the stream may claim again: the back-off gate
    /// (`SimTime::ZERO` when no failure is outstanding).
    pub fn ready_at(&self) -> SimTime {
        self.ready_at
    }

    /// The open span of the claim starting at `lba`, for the AoE round
    /// trip to nest under ([`NO_SPAN`] when none).
    pub(crate) fn span(&self, lba: u64) -> SpanId {
        self.open.get(&lba).copied().unwrap_or(NO_SPAN)
    }

    /// Takes `range` into the window and opens its span at `now`.
    pub(crate) fn claim(&mut self, now: SimTime, range: BlockRange) {
        self.inflight += 1;
        self.inflight_sectors += u64::from(range.sectors);
        self.claims += 1;
        self.metrics.inc(self.names.claims);
        self.metrics
            .gauge_set(self.names.inflight, self.inflight as i64);
        if self.spans.is_enabled() {
            let (names, verb) = (self.names, self.names.verb);
            let id = self.spans.begin(now, names.track, names.span, NO_SPAN, || {
                format!("{verb} lba {} x{}", range.lba.0, range.sectors)
            });
            self.open.insert(range.lba.0, id);
        }
    }

    /// The claim `range` completed at `now`; the failure streak clears.
    pub(crate) fn complete(&mut self, now: SimTime, range: BlockRange) {
        self.leave(now, range, false);
        self.sectors_done += u64::from(range.sectors);
        self.metrics.add(self.names.bytes, range.bytes());
        self.consecutive_failures = 0;
        self.ready_at = SimTime::ZERO;
    }

    /// A request covering `members` exhausted its wire retries: each
    /// member's span ends after the failed instant and the cursor
    /// rewinds over it (the owner makes it claimable again); then the
    /// stream backs off one step from `now`.
    pub(crate) fn fail(&mut self, now: SimTime, members: &[BlockRange]) {
        for &range in members {
            self.leave(now, range, true);
            self.failures += 1;
            self.metrics.inc(self.names.failures);
            self.cursor = self.cursor.min(range.lba);
        }
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        let shift = (self.consecutive_failures - 1).min(16);
        let delay = SimDuration::from_nanos(BACKOFF_BASE.as_nanos().saturating_mul(1u64 << shift));
        self.ready_at = now + delay.min(BACKOFF_CAP);
        self.metrics.inc(self.names.backoffs);
    }

    /// Takes the claim `range` out of the window at `now`, ending its
    /// span (after the failed instant if `failed`); panics if none was.
    fn leave(&mut self, now: SimTime, range: BlockRange, failed: bool) {
        if let Some(id) = self.open.remove(&range.lba.0) {
            if failed {
                let names = self.names;
                self.spans.instant(now, names.track, names.failed, id, || {
                    format!("lba {} x{}", range.lba.0, range.sectors)
                });
            }
            self.spans.end(now, id);
        }
        assert!(self.inflight > 0, "settled with nothing in flight");
        self.inflight -= 1;
        self.inflight_sectors -= u64::from(range.sectors);
        self.metrics
            .gauge_set(self.names.inflight, self.inflight as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_historical_metrics() {
        assert_eq!(BACKGROUND.span, "bg.fetch");
        assert_eq!(BACKGROUND.failed, "bg.fetch_failed");
        assert_eq!(BACKGROUND.claims, "bg.fetches");
        assert_eq!(BACKGROUND.failures, "bg.fetch_failures");
        assert_eq!(BACKGROUND.backoffs, "bg.fetch_backoffs");
        assert_eq!(BACKGROUND.bytes, "bg.bytes_fetched");
        assert_eq!(SNAPSHOT.span, "snap.send");
        assert_eq!(SNAPSHOT.failed, "snap.send_failed");
        assert_eq!(SNAPSHOT.claims, "snap.sends");
        assert_eq!(SNAPSHOT.failures, "snap.send_failures");
        assert_eq!(SNAPSHOT.backoffs, "snap.send_backoffs");
        assert_eq!(SNAPSHOT.bytes, "snap.bytes_sent");
        assert_eq!(SNAPSHOT.inflight, "snap.inflight");
    }

    #[test]
    fn backoff_doubles_per_request_caps_and_resets() {
        let mut s = BlockStream::new(&BACKGROUND, 8);
        let now = SimTime::from_millis(100);
        let block = |i: u64| BlockRange::new(Lba(i * 64), 64);
        for i in 0..4 {
            s.claim(now, block(i));
        }
        // One failed request of two claims is one step, not two.
        s.fail(now, &[block(0), block(1)]);
        assert_eq!(s.ready_at(), now + SimDuration::from_millis(10));
        assert_eq!((s.consecutive_failures, s.failures), (1, 2));
        s.fail(now, &[block(2)]);
        assert_eq!(s.ready_at(), now + SimDuration::from_millis(20));
        assert_eq!(s.cursor, Lba(0), "the cursor rewinds over the failures");
        for _ in 0..20 {
            s.claim(now, block(0));
            s.fail(now, &[block(0)]);
        }
        assert_eq!(
            s.ready_at(),
            now + SimDuration::from_millis(1_000),
            "back-off is capped"
        );
        s.complete(now, block(3));
        assert_eq!(s.ready_at(), SimTime::ZERO, "a completion resets it");
        assert_eq!(s.consecutive_failures, 0);
        assert_eq!((s.inflight, s.inflight_sectors), (0, 0));
    }
}
