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
use crate::stream::{BlockStream, SNAPSHOT};
use hwsim::block::{BlockRange, Lba};
use simkit::SimTime;

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
        /// Dirty sectors still unstreamed: those marked plus those in
        /// flight.
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
}

/// Streams dirty blocks back to the AoE server: the retriever/writer of
/// [`crate::background`] run in reverse, on the same [`BlockStream`]
/// (in-flight window, cursor rewind, failure back-off, spans). This
/// type keeps only the rule for claiming dirty runs; the system layer
/// issues the actual wire writes and routes acks/failures back here.
#[derive(Debug)]
pub struct SnapshotBack {
    /// Preferred send granularity in sectors (dirty runs may be shorter).
    block_sectors: u32,
    /// The sender: window, cursor, back-off, `snap.send` spans on the
    /// `snapback` track and the `snap.*` counters.
    pub stream: BlockStream,
}

impl SnapshotBack {
    /// Creates the sender.
    ///
    /// # Panics
    ///
    /// Panics if `block_sectors` or `max_inflight` is zero.
    pub fn new(block_sectors: u32, max_inflight: usize) -> SnapshotBack {
        assert!(block_sectors > 0, "block size must be positive");
        SnapshotBack {
            block_sectors,
            stream: BlockStream::new(&SNAPSHOT, max_inflight),
        }
    }

    /// Sends in flight to the server.
    pub fn inflight(&self) -> usize {
        self.stream.inflight
    }

    /// Dirty runs claimed so far, re-sends included (`snap.sends`).
    /// These are claims, not wire writes: a batched or RDMA write
    /// carries several.
    pub fn sends(&self) -> u64 {
        self.stream.claims
    }

    /// Claims whose write failed and were re-marked dirty.
    pub fn send_failures(&self) -> u64 {
        self.stream.failures
    }

    /// Sectors acknowledged by the server so far.
    pub fn sectors_sent(&self) -> u64 {
        self.stream.sectors_done
    }

    /// Consecutive failed writes since the last success.
    pub fn consecutive_failures(&self) -> u32 {
        self.stream.consecutive_failures
    }

    /// Whether every dirty block reached the server: nothing marked,
    /// nothing in flight.
    pub fn complete(&self, tracker: &DirtyTracker) -> bool {
        self.stream.inflight == 0 && tracker.is_clean()
    }

    /// Whether [`SnapshotBack::next_send`] would claim a run: the
    /// window has room and a dirty sector is left.
    pub fn can_send(&self, tracker: &DirtyTracker) -> bool {
        self.stream.has_room() && tracker.dirty.next_filled(self.stream.cursor).is_some()
    }

    /// Picks the next dirty run to stream, *claiming* it in the tracker:
    /// the run starts at the first dirty sector at or after the cursor
    /// (wrapping once) and extends through contiguous dirty sectors up to
    /// the block grid. A chosen run opens a `snap.send` span at `now`.
    /// Returns `None` when nothing is dirty or the pipeline is full.
    pub fn next_send(&mut self, now: SimTime, tracker: &mut DirtyTracker) -> Option<BlockRange> {
        if !self.stream.has_room() {
            return None;
        }
        let start = tracker.dirty.next_filled(self.stream.cursor)?;
        let window =
            (self.block_sectors as u64).min(tracker.dirty.capacity_sectors() - start.0) as u32;
        let run = tracker.dirty_subranges(BlockRange::new(start, window))[0];
        debug_assert_eq!(run.lba, start, "run must start at the first dirty sector");
        tracker.dirty.clear(run);
        self.stream.cursor = run.end();
        self.stream.claim(now, run);
        Some(run)
    }

    /// The server acknowledged the send of `range` at `now`: the sectors
    /// are durable in the snapshot and the failure streak resets.
    pub fn ack(&mut self, now: SimTime, range: BlockRange) {
        self.stream.complete(now, range);
    }

    /// [`SnapshotBack::request_failed`] for a write of the one claim
    /// `range`.
    pub fn send_failed(&mut self, now: SimTime, range: BlockRange, tracker: &mut DirtyTracker) {
        self.request_failed(now, &[range], tracker);
    }

    /// A write covering `members` exhausted its wire retries at `now`:
    /// each member is re-marked dirty, to be re-sent once the sender's
    /// back-off, one step longer, has passed.
    pub fn request_failed(&mut self, now: SimTime, members: &[BlockRange], dt: &mut DirtyTracker) {
        self.stream.fail(now, members);
        members.iter().for_each(|&range| dt.record(range));
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

    /// A run re-dirtied and claimed again while its first send is in
    /// flight gets a span of its own: each claim's span ends once, at
    /// its own ack.
    #[test]
    fn a_run_claimed_again_in_flight_keeps_each_span() {
        let spans = simkit::Spans::enabled(16);
        let mut dt = DirtyTracker::new(4096);
        dt.record(BlockRange::new(Lba(0), 64));
        let mut sb = SnapshotBack::new(64, 8);
        sb.stream.set_spans(spans.clone());
        let first = sb.next_send(SimTime::ZERO, &mut dt).unwrap();
        dt.record(BlockRange::new(Lba(0), 4));
        let second = sb.next_send(SimTime::from_millis(1), &mut dt).unwrap();
        assert_eq!(second, BlockRange::new(Lba(0), 4), "cursor wraps to it");
        sb.ack(SimTime::from_millis(2), first);
        sb.ack(SimTime::from_millis(3), second);
        assert_eq!(spans.open_count(), 0);
        let ends: Vec<(String, SimTime)> = spans
            .finished_of("snap.send")
            .into_iter()
            .map(|s| (s.detail, s.end))
            .collect();
        assert_eq!(
            ends,
            [
                ("send lba 0 x64".to_string(), SimTime::from_millis(2)),
                ("send lba 0 x4".to_string(), SimTime::from_millis(3)),
            ]
        );
    }

    #[test]
    fn reclaim_error_formats() {
        let e = ReclaimError::RetryBudgetExhausted { consecutive: 9 };
        assert!(e.to_string().contains("9 consecutive"));
        let e = ReclaimError::SnapshotIncomplete { dirty_sectors: 42 };
        assert!(e.to_string().contains("42 dirty"));
    }
}
