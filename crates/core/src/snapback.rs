//! Snapshot-back: the mirror of the background copy, for the elasticity
//! lifecycle (M2, "Malleable Metal as a Service").
//!
//! While a tenant runs — streamed deployment, bare metal, and after
//! re-virtualization — the VMM records every guest write in a
//! [`DirtyTracker`]. When the machine is re-virtualized for reclaim, the
//! [`SnapshotBack`] engine walks the dirty bitmap low-to-high and streams
//! each dirty run to the AoE server as wire writes, re-using the client's
//! retransmit machinery and the deployment's failure budget. The server
//! image (golden image + streamed dirty blocks) then equals the guest's
//! final disk state, and the machine can be reclaimed for a new tenant.
//!
//! Consistency argument: a dirty range is *claimed* (cleared in the
//! tracker) when its send is issued, and re-marked if the send fails, so
//! every dirty sector is either still marked, in flight, or acknowledged
//! by the server. A guest write landing while its sector's send is in
//! flight re-marks the sector, and the engine sends it again with the
//! newer data — the stream therefore converges exactly when the tenant
//! quiesces, which reclaim requires anyway. Re-sending a range is
//! idempotent: server sector writes are last-writer-wins.

use crate::bitmap::BlockBitmap;
use hwsim::block::{BlockRange, Lba};
use simkit::{Metrics, SimDuration, SimTime, SpanId, Spans, NO_SPAN};
use std::collections::BTreeMap;

/// First sender back-off step after a send failure (mirrors the
/// retriever's fetch back-off).
const SEND_BACKOFF_BASE: SimDuration = SimDuration::from_millis(10);
/// Ceiling on the sender back-off while the server is unreachable.
const SEND_BACKOFF_CAP: SimDuration = SimDuration::from_millis(1_000);

/// Why a machine could not be reclaimed for a new tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReclaimError {
    /// Snapshot-back sends kept failing past the deploy failure budget;
    /// the machine fails the reclaim cleanly instead of wedging.
    RetryBudgetExhausted {
        /// Consecutive failed attempts when the budget tripped.
        consecutive: u32,
    },
    /// `reclaim()` was called while dirty blocks or in-flight sends
    /// remain — the server-side snapshot is not yet a faithful copy.
    SnapshotIncomplete {
        /// Dirty sectors still unstreamed.
        dirty_sectors: u64,
    },
}

impl std::fmt::Display for ReclaimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReclaimError::RetryBudgetExhausted { consecutive } => {
                write!(
                    f,
                    "snapshot-back retry budget exhausted after {consecutive} consecutive failures"
                )
            }
            ReclaimError::SnapshotIncomplete { dirty_sectors } => {
                write!(
                    f,
                    "snapshot-back incomplete: {dirty_sectors} dirty sectors unstreamed"
                )
            }
        }
    }
}

impl std::error::Error for ReclaimError {}

/// Records which image sectors the guest has written since deployment
/// started, so snapshot-back knows exactly what diverged from the golden
/// image.
///
/// Only the image prefix is tracked: writes beyond it (scratch space, the
/// persisted-bitmap region) never need to reach the server.
///
/// # Examples
///
/// ```
/// use bmcast::snapback::DirtyTracker;
/// use hwsim::block::{BlockRange, Lba};
///
/// let mut dt = DirtyTracker::new(1024);
/// dt.record(BlockRange::new(Lba(10), 4));
/// dt.record(BlockRange::new(Lba(1020), 16)); // clipped to the image
/// assert_eq!(dt.dirty_sectors(), 8);
/// assert!(dt.is_dirty(Lba(12)));
/// ```
#[derive(Debug, Clone)]
pub struct DirtyTracker {
    /// Filled = dirty, over the image prefix.
    dirty: BlockBitmap,
}

impl DirtyTracker {
    /// A clean tracker covering an image of `image_sectors`.
    pub fn new(image_sectors: u64) -> DirtyTracker {
        DirtyTracker {
            dirty: BlockBitmap::new(image_sectors),
        }
    }

    /// Sectors of the tracked image.
    pub fn image_sectors(&self) -> u64 {
        self.dirty.capacity_sectors()
    }

    /// Records a guest write, clipped to the image prefix. Overlapping
    /// and unaligned ranges union naturally (the tracker is a bitmap).
    pub fn record(&mut self, range: BlockRange) {
        let image = self.dirty.capacity_sectors();
        if range.lba.0 >= image || range.sectors == 0 {
            return;
        }
        let sectors = (range.sectors as u64).min(image - range.lba.0) as u32;
        self.dirty.mark_filled(BlockRange::new(range.lba, sectors));
    }

    /// Dirty sectors not yet claimed by the sender.
    pub fn dirty_sectors(&self) -> u64 {
        self.dirty.filled_sectors()
    }

    /// Whether nothing remains to stream.
    pub fn is_clean(&self) -> bool {
        self.dirty.filled_sectors() == 0
    }

    /// Whether `lba` is marked dirty (false beyond the image prefix).
    pub fn is_dirty(&self, lba: Lba) -> bool {
        lba.0 < self.dirty.capacity_sectors() && self.dirty.is_filled(lba)
    }

    /// The dirty runs inside `range`, coalesced.
    ///
    /// # Panics
    ///
    /// Panics if `range` extends past the image prefix.
    pub fn dirty_subranges(&self, range: BlockRange) -> Vec<BlockRange> {
        self.dirty.filled_subranges(range)
    }

    /// Un-marks a range the sender claimed (or that was acknowledged).
    fn clear(&mut self, range: BlockRange) {
        self.dirty.clear(range);
    }

    /// First dirty sector at or after `from`, wrapping once.
    fn next_dirty(&self, from: Lba) -> Option<Lba> {
        self.dirty.next_filled(from)
    }
}

/// Streams dirty blocks back to the AoE server: the retriever/writer of
/// [`crate::background`] run in reverse. The engine owns block selection,
/// the in-flight window, and failure back-off; the system layer issues
/// the actual wire writes and routes acks/failures back here.
#[derive(Debug)]
pub struct SnapshotBack {
    /// Preferred send granularity in sectors (dirty runs may be shorter).
    block_sectors: u32,
    /// Sends in flight to the server.
    inflight: usize,
    /// Maximum concurrent server writes (sender pipeline depth).
    max_inflight: usize,
    /// Next LBA the sender scans from.
    cursor: Lba,
    /// Consecutive send failures (reset on the first success); drives the
    /// sender back-off so a stalled server is probed gently.
    consecutive_failures: u32,
    /// Earliest time the sender may issue its next write.
    send_ready_at: SimTime,
    /// Statistics.
    sends: u64,
    send_failures: u64,
    sectors_sent: u64,
    metrics: Metrics,
    spans: Spans,
    /// Open `snap.send` span per in-flight send, keyed by start LBA.
    send_spans: BTreeMap<u64, SpanId>,
}

impl SnapshotBack {
    /// Creates the sender.
    ///
    /// # Panics
    ///
    /// Panics if `block_sectors` or `max_inflight` is zero.
    pub fn new(block_sectors: u32, max_inflight: usize) -> SnapshotBack {
        assert!(block_sectors > 0, "block size must be positive");
        assert!(max_inflight > 0, "sender needs pipeline depth");
        SnapshotBack {
            block_sectors,
            inflight: 0,
            max_inflight,
            cursor: Lba(0),
            consecutive_failures: 0,
            send_ready_at: SimTime::ZERO,
            sends: 0,
            send_failures: 0,
            sectors_sent: 0,
            metrics: Metrics::disabled(),
            spans: Spans::disabled(),
            send_spans: BTreeMap::new(),
        }
    }

    /// Attaches a metrics handle; `snap.*` counters land there.
    pub fn set_telemetry(&mut self, metrics: Metrics) {
        self.metrics = metrics;
    }

    /// Attaches a flight-recorder span handle; every in-flight send gets
    /// a `snap.send` span on the `snapback` track.
    pub fn set_spans(&mut self, spans: Spans) {
        self.spans = spans;
    }

    /// Sends in flight to the server.
    pub fn inflight(&self) -> usize {
        self.inflight
    }

    /// Write requests issued so far (including re-sends).
    pub fn sends(&self) -> u64 {
        self.sends
    }

    /// Sends that failed and were re-marked dirty.
    pub fn send_failures(&self) -> u64 {
        self.send_failures
    }

    /// Sectors acknowledged by the server so far.
    pub fn sectors_sent(&self) -> u64 {
        self.sectors_sent
    }

    /// Whether every dirty block reached the server: nothing marked,
    /// nothing in flight.
    pub fn complete(&self, tracker: &DirtyTracker) -> bool {
        self.inflight == 0 && tracker.is_clean()
    }

    /// The open `snap.send` span for the in-flight send starting at
    /// `lba`, so the AoE round-trip can nest under it ([`NO_SPAN`] when
    /// none).
    pub fn send_span(&self, lba: u64) -> SpanId {
        self.send_spans.get(&lba).copied().unwrap_or(NO_SPAN)
    }

    /// Whether [`SnapshotBack::next_send`] would claim a run: the
    /// window has room and a dirty sector is left.
    pub fn can_send(&self, tracker: &DirtyTracker) -> bool {
        self.inflight < self.max_inflight && tracker.next_dirty(self.cursor).is_some()
    }

    /// Picks the next dirty run to stream, *claiming* it in the tracker:
    /// the run starts at the first dirty sector at or after the cursor
    /// (wrapping once) and extends through contiguous dirty sectors up to
    /// the block grid. A chosen run opens a `snap.send` span at `now`.
    /// Returns `None` when nothing is dirty or the pipeline is full.
    pub fn next_send(&mut self, now: SimTime, tracker: &mut DirtyTracker) -> Option<BlockRange> {
        if self.inflight >= self.max_inflight {
            return None;
        }
        let start = tracker.next_dirty(self.cursor)?;
        let window = (self.block_sectors as u64).min(tracker.image_sectors() - start.0) as u32;
        let run = tracker.dirty_subranges(BlockRange::new(start, window))[0];
        debug_assert_eq!(run.lba, start, "run must start at the first dirty sector");
        tracker.clear(run);
        self.cursor = run.end();
        self.inflight += 1;
        self.sends += 1;
        self.metrics.inc("snap.sends");
        self.metrics
            .gauge_set("snap.inflight", self.inflight as i64);
        if self.spans.is_enabled() {
            let id = self.spans.begin(now, "snapback", "snap.send", NO_SPAN, || {
                format!("send lba {} x{}", run.lba.0, run.sectors)
            });
            self.send_spans.insert(run.lba.0, id);
        }
        Some(run)
    }

    /// The server acknowledged a send: the sectors are durable in the
    /// snapshot and the failure streak resets. The range's `snap.send`
    /// span ends at `now`.
    ///
    /// # Panics
    ///
    /// Panics if nothing was in flight.
    pub fn ack(&mut self, now: SimTime, range: BlockRange) {
        if let Some(id) = self.send_spans.remove(&range.lba.0) {
            self.spans.end(now, id);
        }
        assert!(self.inflight > 0, "ack without a send in flight");
        self.inflight -= 1;
        self.sectors_sent += range.sectors as u64;
        self.consecutive_failures = 0;
        self.send_ready_at = SimTime::ZERO;
        self.metrics.add("snap.bytes_sent", range.bytes());
        self.metrics
            .gauge_set("snap.inflight", self.inflight as i64);
    }

    /// A send exhausted its wire retries: the range is re-marked dirty
    /// (so it will be re-sent), the cursor rewinds to cover it, and the
    /// back-off gate advances from `now`. The range's `snap.send` span
    /// ends at `now` with a `snap.send_failed` instant.
    ///
    /// # Panics
    ///
    /// Panics if nothing was in flight.
    pub fn send_failed(&mut self, now: SimTime, range: BlockRange, tracker: &mut DirtyTracker) {
        if let Some(id) = self.send_spans.remove(&range.lba.0) {
            self.spans
                .instant(now, "snapback", "snap.send_failed", id, || {
                    format!("lba {} x{}", range.lba.0, range.sectors)
                });
            self.spans.end(now, id);
        }
        assert!(self.inflight > 0, "failure without a send in flight");
        self.inflight -= 1;
        self.send_failures += 1;
        self.metrics.inc("snap.send_failures");
        self.metrics
            .gauge_set("snap.inflight", self.inflight as i64);
        tracker.record(range);
        if range.lba < self.cursor {
            self.cursor = range.lba;
        }
        self.note_send_failure(now);
    }

    /// Notes a send failure for back-off purposes: the sender waits
    /// `base · 2^(failures-1)` (capped) before probing the server again.
    fn note_send_failure(&mut self, now: SimTime) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        let shift = (self.consecutive_failures - 1).min(16);
        let delay =
            SimDuration::from_nanos(SEND_BACKOFF_BASE.as_nanos().saturating_mul(1u64 << shift))
                .min(SEND_BACKOFF_CAP);
        self.send_ready_at = now + delay;
        self.metrics.inc("snap.send_backoffs");
    }

    /// Earliest time the sender may issue its next write (back-off gate;
    /// `SimTime::ZERO` when no failures are outstanding).
    pub fn send_ready_at(&self) -> SimTime {
        self.send_ready_at
    }

    /// Consecutive send failures since the last success.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_unions_and_clips() {
        let mut dt = DirtyTracker::new(1024);
        dt.record(BlockRange::new(Lba(10), 8));
        dt.record(BlockRange::new(Lba(14), 8)); // overlaps 14..18
        assert_eq!(dt.dirty_sectors(), 12);
        dt.record(BlockRange::new(Lba(1022), 64)); // clipped to 1022..1024
        assert_eq!(dt.dirty_sectors(), 14);
        dt.record(BlockRange::new(Lba(2048), 8)); // wholly beyond: ignored
        assert_eq!(dt.dirty_sectors(), 14);
        assert!(dt.is_dirty(Lba(1023)));
        assert!(!dt.is_dirty(Lba(2048)));
    }

    #[test]
    fn sender_walks_dirty_runs_low_to_high() {
        let mut dt = DirtyTracker::new(4096);
        dt.record(BlockRange::new(Lba(100), 10));
        dt.record(BlockRange::new(Lba(300), 200));
        let mut sb = SnapshotBack::new(64, 8);
        assert_eq!(
            sb.next_send(SimTime::ZERO, &mut dt),
            Some(BlockRange::new(Lba(100), 10))
        );
        // A long run is sent in block-grid pieces.
        assert_eq!(
            sb.next_send(SimTime::ZERO, &mut dt),
            Some(BlockRange::new(Lba(300), 64))
        );
        assert_eq!(
            sb.next_send(SimTime::ZERO, &mut dt),
            Some(BlockRange::new(Lba(364), 64))
        );
        assert_eq!(
            sb.next_send(SimTime::ZERO, &mut dt),
            Some(BlockRange::new(Lba(428), 64))
        );
        assert_eq!(
            sb.next_send(SimTime::ZERO, &mut dt),
            Some(BlockRange::new(Lba(492), 8))
        );
        assert_eq!(
            sb.next_send(SimTime::ZERO, &mut dt),
            None,
            "everything claimed"
        );
        assert!(dt.is_clean());
        assert!(!sb.complete(&dt), "claims are still in flight");
        for r in [
            BlockRange::new(Lba(100), 10),
            BlockRange::new(Lba(300), 64),
            BlockRange::new(Lba(364), 64),
            BlockRange::new(Lba(428), 64),
            BlockRange::new(Lba(492), 8),
        ] {
            sb.ack(SimTime::ZERO, r);
        }
        assert!(sb.complete(&dt));
        assert_eq!(sb.sectors_sent(), 210);
    }

    #[test]
    fn window_limits_inflight() {
        let mut dt = DirtyTracker::new(4096);
        dt.record(BlockRange::new(Lba(0), 1024));
        let mut sb = SnapshotBack::new(64, 2);
        assert!(sb.next_send(SimTime::ZERO, &mut dt).is_some());
        assert!(sb.next_send(SimTime::ZERO, &mut dt).is_some());
        assert!(
            sb.next_send(SimTime::ZERO, &mut dt).is_none(),
            "depth 2 reached"
        );
        assert_eq!(sb.inflight(), 2);
    }

    #[test]
    fn failed_send_is_remarked_and_resent() {
        let mut dt = DirtyTracker::new(4096);
        dt.record(BlockRange::new(Lba(128), 64));
        let mut sb = SnapshotBack::new(64, 8);
        let r = sb.next_send(SimTime::ZERO, &mut dt).unwrap();
        sb.send_failed(SimTime::ZERO, r, &mut dt);
        assert_eq!(dt.dirty_sectors(), 64, "failure re-marks the range");
        assert_eq!(
            sb.next_send(SimTime::ZERO, &mut dt),
            Some(r),
            "cursor rewound to it"
        );
        sb.ack(SimTime::ZERO, r);
        assert!(sb.complete(&dt));
    }

    #[test]
    fn guest_redirty_during_flight_is_resent() {
        // The snapshot-back consistency rule: a write racing an in-flight
        // send re-marks the sector and it goes out again with new data.
        let mut dt = DirtyTracker::new(4096);
        dt.record(BlockRange::new(Lba(0), 64));
        let mut sb = SnapshotBack::new(64, 8);
        let r = sb.next_send(SimTime::ZERO, &mut dt).unwrap();
        dt.record(BlockRange::new(Lba(10), 4)); // guest writes mid-flight
        sb.ack(SimTime::ZERO, r);
        assert!(!sb.complete(&dt), "re-dirtied sectors still pending");
        assert_eq!(
            sb.next_send(SimTime::ZERO, &mut dt),
            Some(BlockRange::new(Lba(10), 4))
        );
        sb.ack(SimTime::ZERO, BlockRange::new(Lba(10), 4));
        assert!(sb.complete(&dt));
    }

    #[test]
    fn send_backoff_doubles_caps_and_resets() {
        let mut sb = SnapshotBack::new(64, 4);
        let now = SimTime::from_millis(100);
        sb.note_send_failure(now);
        assert_eq!(sb.send_ready_at(), now + SimDuration::from_millis(10));
        sb.note_send_failure(now);
        assert_eq!(sb.send_ready_at(), now + SimDuration::from_millis(20));
        for _ in 0..20 {
            sb.note_send_failure(now);
        }
        assert_eq!(
            sb.send_ready_at(),
            now + SimDuration::from_millis(1_000),
            "back-off is capped"
        );
        let mut dt = DirtyTracker::new(64);
        dt.record(BlockRange::new(Lba(0), 1));
        let r = sb.next_send(SimTime::ZERO, &mut dt).unwrap();
        sb.ack(SimTime::ZERO, r);
        assert_eq!(sb.send_ready_at(), SimTime::ZERO, "success resets");
        assert_eq!(sb.consecutive_failures(), 0);
    }

    #[test]
    fn reclaim_error_formats() {
        let e = ReclaimError::RetryBudgetExhausted { consecutive: 9 };
        assert!(e.to_string().contains("9 consecutive"));
        let e = ReclaimError::SnapshotIncomplete { dirty_sectors: 42 };
        assert!(e.to_string().contains("42 dirty"));
    }
}
