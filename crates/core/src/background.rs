//! Background copy (§3.3): retriever/writer threads, the FIFO between
//! them, and block-selection policy.
//!
//! The retriever pulls image blocks from the server and pushes them into a
//! bounded FIFO; the writer pops blocks, claims them in the bitmap, and
//! multiplexes writes onto the local disk at the moderated pace. Blocks
//! are filled "in order from low to high LBA", except that a recent guest
//! access moves the cursor next to it "to minimize seek".
//!
//! In the simulation the two "threads" are event chains driven by the
//! system layer; this module holds their shared state so the policy is
//! unit-testable in isolation. The retriever runs on the [`BlockStream`]
//! snapshot-back shares.

use crate::bitmap::BlockBitmap;
use crate::stream::{BlockStream, BACKGROUND};
use hwsim::block::{BlockRange, Lba, SectorBuf};
use simkit::SimTime;
use std::collections::VecDeque;

/// Capacity of the retriever→writer FIFO in blocks, counting fetches
/// still in flight: the retriever stops requesting once this many blocks
/// are on their way or waiting for the writer.
const FIFO_CAPACITY: usize = 16;

/// A fetched block waiting for the writer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchedBlock {
    /// Target sectors on the local disk (identical address space to the
    /// server image).
    pub range: BlockRange,
    /// The data, one fingerprint per sector. Shared: splitting a block
    /// into per-hole write pieces re-slices this buffer instead of
    /// copying it.
    pub data: SectorBuf,
}

/// Shared state of the background-copy machinery: the retriever's
/// [`BlockStream`] and what only the copy has, the FIFO, the fills,
/// the requested map and the guest-I/O window.
#[derive(Debug)]
pub struct BackgroundCopy {
    /// The retriever: window, cursor, back-off, `bg.fetch` spans on the
    /// `background` track and the `bg.*` stream counters.
    pub stream: BlockStream,
    /// Copy-on-read fills: data already fetched for redirected guest
    /// reads, written behind the guest with priority over the paced
    /// background stream.
    fills: VecDeque<FetchedBlock>,
    /// Bounded FIFO between retriever and writer.
    fifo: VecDeque<FetchedBlock>,
    /// Block size in sectors.
    block_sectors: u32,
    /// Sectors already requested from the server (so in-flight fetches
    /// are never duplicated).
    requested: BlockBitmap,
    /// Sliding window of recent guest disk I/O timestamps, for the
    /// moderation rate estimate.
    guest_io_window: VecDeque<SimTime>,
    /// Statistics.
    blocks_written: u64,
    blocks_discarded: u64,
    bytes_fetched: u64,
}

impl BackgroundCopy {
    /// Creates the machinery for a disk of `capacity_sectors`.
    ///
    /// # Panics
    ///
    /// Panics if `block_sectors` or `max_inflight` is zero.
    pub fn new(block_sectors: u32, max_inflight: usize, capacity_sectors: u64) -> BackgroundCopy {
        assert!(block_sectors > 0, "block size must be positive");
        BackgroundCopy {
            stream: BlockStream::new(&BACKGROUND, max_inflight),
            fills: VecDeque::new(),
            fifo: VecDeque::new(),
            block_sectors,
            requested: BlockBitmap::new(capacity_sectors),
            guest_io_window: VecDeque::new(),
            blocks_written: 0,
            blocks_discarded: 0,
            bytes_fetched: 0,
        }
    }

    /// Publishes the FIFO and pipeline depths as gauges.
    fn update_depth_gauges(&self) {
        let metrics = &self.stream.metrics;
        metrics.gauge_set("bg.fifo_depth", self.fifo.len() as i64);
        metrics.gauge_set("bg.inflight", self.stream.inflight as i64);
    }

    /// Blocks written to the local disk so far.
    pub fn blocks_written(&self) -> u64 {
        self.blocks_written
    }

    /// Fetched blocks discarded because the guest wrote them first.
    pub fn blocks_discarded(&self) -> u64 {
        self.blocks_discarded
    }

    /// Bytes fetched from the server so far.
    pub fn bytes_fetched(&self) -> u64 {
        self.bytes_fetched
    }

    /// Blocks in flight to the server.
    pub fn inflight(&self) -> usize {
        self.stream.inflight
    }

    /// Consecutive failed fetch requests since the last success.
    pub fn consecutive_failures(&self) -> u32 {
        self.stream.consecutive_failures
    }

    /// Blocks sitting in the retriever→writer FIFO.
    pub fn fifo_depth(&self) -> usize {
        self.fifo.len()
    }

    /// Whether the retriever may issue another request: FIFO has room for
    /// what's already coming and the pipeline depth allows it.
    fn can_fetch(&self) -> bool {
        self.fifo.len() + self.stream.inflight < FIFO_CAPACITY && self.stream.has_room()
    }

    /// Whether [`BackgroundCopy::next_fetch`] would do anything: the
    /// pipeline has room and some block is still unrequested.
    pub fn wants_fetch(&self) -> bool {
        self.can_fetch() && self.requested.next_empty(self.stream.cursor).is_some()
    }

    /// Records a guest disk access: moves the cursor adjacent to it (seek
    /// minimization) and feeds the moderation rate estimator.
    pub fn note_guest_io(&mut self, now: SimTime, end_of_access: Lba) {
        self.stream.cursor = end_of_access;
        self.guest_io_window.push_back(now);
        // Keep one second of history.
        while let Some(&t) = self.guest_io_window.front() {
            if now.saturating_duration_since(t).as_millis() > 1_000 {
                self.guest_io_window.pop_front();
            } else {
                break;
            }
        }
    }

    /// Guest disk-I/O frequency over the last second, requests/second.
    pub fn guest_io_rate(&self, now: SimTime) -> f64 {
        self.guest_io_window
            .iter()
            .filter(|&&t| now.saturating_duration_since(t).as_millis() <= 1_000)
            .count() as f64
    }

    /// Picks the next block for the retriever: starts at the cursor
    /// (adjacent to recent guest activity), aligned to the copy-block
    /// grid, skipping blocks already requested or already filled. A chosen
    /// block opens a `bg.fetch` span at `now`. Returns `None` when nothing
    /// is left to request or the pipeline is full.
    pub fn next_fetch(&mut self, now: SimTime, bitmap: &BlockBitmap) -> Option<BlockRange> {
        if !self.can_fetch() {
            return None;
        }
        loop {
            let start = self.requested.next_empty(self.stream.cursor)?;
            let aligned = Lba(start.0 - start.0 % self.block_sectors as u64);
            let end = (aligned.0 + self.block_sectors as u64).min(bitmap.capacity_sectors());
            let range = BlockRange::new(aligned, (end - aligned.0) as u32);
            self.stream.cursor = range.end();
            self.requested.mark_filled(range);
            // Guest writes may have filled it without a request; skip.
            if bitmap.all_filled(range) {
                continue;
            }
            self.stream.claim(now, range);
            self.update_depth_gauges();
            return Some(range);
        }
    }

    /// A fetch request covering `members` exhausted its retries at
    /// `now`: the blocks become requestable again so the deployment
    /// cannot stall, once the retriever's back-off, one step longer, has
    /// passed (copy-on-read is served meanwhile).
    pub fn request_failed(&mut self, now: SimTime, members: &[BlockRange]) {
        self.stream.fail(now, members);
        members
            .iter()
            .for_each(|&range| self.requested.clear(range));
        self.update_depth_gauges();
    }

    /// Delivers a block fetched by `now` into the FIFO (retriever side);
    /// the retriever's failure streak clears.
    pub fn deliver(&mut self, now: SimTime, block: FetchedBlock) {
        self.stream.complete(now, block.range);
        self.bytes_fetched += block.range.bytes();
        self.fifo.push_back(block);
        self.update_depth_gauges();
    }

    /// Pushes a copy-on-read fill: data already fetched for a redirected
    /// guest read is written behind the guest's back "for future use".
    /// Fills jump the FIFO (the data is in hand and the guest is known to
    /// want this region) and are exempt from moderation pacing.
    pub fn push_local_fill(&mut self, block: FetchedBlock) {
        self.bytes_fetched += block.range.bytes();
        let metrics = &self.stream.metrics;
        metrics.add("bg.bytes_fetched", block.range.bytes());
        metrics.inc("bg.fills");
        self.fills.push_back(block);
    }

    /// Whether copy-on-read fills are waiting.
    pub fn has_pending_fills(&self) -> bool {
        !self.fills.is_empty()
    }

    /// Pops the next block for the writer, claiming its still-empty
    /// sectors in the bitmap. Sectors the guest wrote while the fetch was
    /// in flight are dropped (the consistency rule); if every sector is
    /// already filled the whole block is discarded and the next one is
    /// tried. Returns the subranges (with data) that must go to disk.
    pub fn pop_for_write(&mut self, bitmap: &mut BlockBitmap) -> Option<Vec<FetchedBlock>> {
        loop {
            let block = self.fills.pop_front().or_else(|| self.fifo.pop_front())?;
            let holes = bitmap.empty_subranges(block.range);
            if holes.is_empty() {
                self.blocks_discarded += 1;
                self.stream.metrics.inc("bg.blocks_discarded");
                continue; // guest overwrote everything; try the next block
            }
            let mut pieces = Vec::with_capacity(holes.len());
            for hole in holes {
                let claimed = bitmap.try_claim(hole);
                debug_assert!(claimed, "hole was empty a moment ago");
                let offset = (hole.lba.0 - block.range.lba.0) as usize;
                pieces.push(FetchedBlock {
                    range: hole,
                    // A view into the block's buffer — no per-hole copy.
                    data: block.data.slice(offset, hole.sectors as usize),
                });
            }
            self.blocks_written += 1;
            self.stream.metrics.inc("bg.blocks_written");
            self.update_depth_gauges();
            return Some(pieces);
        }
    }

    /// Whether the writer has blocks waiting.
    pub fn has_pending_writes(&self) -> bool {
        !self.fifo.is_empty() || !self.fills.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwsim::block::BlockStore;

    fn fetched(range: BlockRange, seed: u64) -> FetchedBlock {
        FetchedBlock {
            data: range
                .iter()
                .map(|lba| BlockStore::image_content(seed, lba))
                .collect::<Vec<_>>()
                .into(),
            range,
        }
    }

    #[test]
    fn fetch_tiles_low_to_high() {
        let mut bg = BackgroundCopy::new(64, 4, 1 << 16);
        let bitmap = BlockBitmap::new(1024);
        let a = bg.next_fetch(SimTime::ZERO, &bitmap).unwrap();
        let b = bg.next_fetch(SimTime::ZERO, &bitmap).unwrap();
        assert_eq!(a, BlockRange::new(Lba(0), 64));
        assert_eq!(b, BlockRange::new(Lba(64), 64));
    }

    #[test]
    fn fetch_skips_filled_prefix() {
        let mut bg = BackgroundCopy::new(64, 4, 1 << 16);
        let mut bitmap = BlockBitmap::new(1024);
        bitmap.mark_filled(BlockRange::new(Lba(0), 130));
        let a = bg.next_fetch(SimTime::ZERO, &bitmap).unwrap();
        // First empty sector is 130 → aligned block 128..192.
        assert_eq!(a, BlockRange::new(Lba(128), 64));
    }

    #[test]
    fn guest_access_moves_cursor() {
        let mut bg = BackgroundCopy::new(64, 4, 1 << 16);
        let bitmap = BlockBitmap::new(4096);
        bg.note_guest_io(SimTime::ZERO, Lba(1000));
        let a = bg.next_fetch(SimTime::ZERO, &bitmap).unwrap();
        assert_eq!(a.lba, Lba(960), "aligned next to the guest access");
    }

    #[test]
    fn fifo_backpressure_limits_inflight() {
        let mut bg = BackgroundCopy::new(64, 4, 1 << 16);
        let bitmap = BlockBitmap::new(4096);
        // Fill the FIFO to one short of capacity with delivered blocks
        // the writer has not popped yet.
        for _ in 0..FIFO_CAPACITY - 1 {
            let r = bg.next_fetch(SimTime::ZERO, &bitmap).unwrap();
            bg.deliver(SimTime::ZERO, fetched(r, 7));
        }
        assert!(bg.next_fetch(SimTime::ZERO, &bitmap).is_some());
        assert!(
            bg.next_fetch(SimTime::ZERO, &bitmap).is_none(),
            "FIFO capacity reached with the window still open"
        );
        assert_eq!(bg.inflight(), 1);
        assert_eq!(bg.fifo_depth(), FIFO_CAPACITY - 1);
    }

    #[test]
    fn writer_claims_and_writes() {
        let mut bg = BackgroundCopy::new(64, 4, 1 << 16);
        let mut bitmap = BlockBitmap::new(4096);
        let r = bg.next_fetch(SimTime::ZERO, &bitmap).unwrap();
        bg.deliver(SimTime::ZERO, fetched(r, 7));
        let pieces = bg.pop_for_write(&mut bitmap).unwrap();
        assert_eq!(pieces.len(), 1);
        assert_eq!(pieces[0].range, r);
        assert!(bitmap.all_filled(r));
        assert_eq!(bg.blocks_written(), 1);
    }

    #[test]
    fn guest_write_during_fetch_is_respected() {
        // The §3.3 race, end to end at the policy level.
        let mut bg = BackgroundCopy::new(64, 4, 1 << 16);
        let mut bitmap = BlockBitmap::new(4096);
        let r = bg.next_fetch(SimTime::ZERO, &bitmap).unwrap();
        // Guest writes sectors 10..20 while the fetch is in flight.
        bitmap.mark_filled(BlockRange::new(Lba(10), 10));
        bg.deliver(SimTime::ZERO, fetched(r, 7));
        let pieces = bg.pop_for_write(&mut bitmap).unwrap();
        assert_eq!(
            pieces.iter().map(|p| p.range).collect::<Vec<_>>(),
            vec![BlockRange::new(Lba(0), 10), BlockRange::new(Lba(20), 44)],
            "the guest-written hole is never rewritten"
        );
    }

    #[test]
    fn fully_guest_written_block_discarded() {
        let mut bg = BackgroundCopy::new(64, 4, 1 << 16);
        let mut bitmap = BlockBitmap::new(4096);
        let r = bg.next_fetch(SimTime::ZERO, &bitmap).unwrap();
        bitmap.mark_filled(r);
        bg.deliver(SimTime::ZERO, fetched(r, 7));
        assert!(bg.pop_for_write(&mut bitmap).is_none());
        assert_eq!(bg.blocks_discarded(), 1);
    }

    #[test]
    fn failed_fetch_rerequested_exactly_once() {
        // Three fetches in flight; the middle one fails. The rewound
        // cursor re-walks `requested` marks left by the *other* in-flight
        // fetches — only the failed block may be reissued, exactly once.
        let mut bg = BackgroundCopy::new(64, 8, 1 << 16);
        let bitmap = BlockBitmap::new(4096);
        let a = bg.next_fetch(SimTime::ZERO, &bitmap).unwrap();
        let b = bg.next_fetch(SimTime::ZERO, &bitmap).unwrap();
        let c = bg.next_fetch(SimTime::ZERO, &bitmap).unwrap();
        assert_eq!(a, BlockRange::new(Lba(0), 64));
        assert_eq!(b, BlockRange::new(Lba(64), 64));
        assert_eq!(c, BlockRange::new(Lba(128), 64));

        bg.request_failed(SimTime::ZERO, &[b]);
        assert_eq!(bg.inflight(), 2);

        // The retry walks past `a` and `c` (still requested, still in
        // flight) and lands exactly on the failed block.
        let retry = bg.next_fetch(SimTime::ZERO, &bitmap).unwrap();
        assert_eq!(retry, b, "failed block is re-requested");
        assert_eq!(bg.inflight(), 3);

        // No duplicate: the next pick resumes after the in-flight tail.
        let next = bg.next_fetch(SimTime::ZERO, &bitmap).unwrap();
        assert_eq!(
            next,
            BlockRange::new(Lba(192), 64),
            "no block fetched twice"
        );
        assert_eq!(bg.inflight(), 4);
    }

    #[test]
    fn io_rate_window_expires() {
        let mut bg = BackgroundCopy::new(64, 4, 1 << 16);
        for ms in 0..50u64 {
            bg.note_guest_io(SimTime::from_millis(ms * 10), Lba(0));
        }
        let now = SimTime::from_millis(500);
        assert_eq!(bg.guest_io_rate(now), 50.0);
        let later = SimTime::from_millis(5_000);
        bg.note_guest_io(later, Lba(0));
        assert_eq!(bg.guest_io_rate(later), 1.0, "old samples age out");
    }

    #[test]
    fn complete_bitmap_ends_fetching() {
        let mut bg = BackgroundCopy::new(64, 4, 128);
        let mut bitmap = BlockBitmap::new(128);
        bitmap.mark_filled(BlockRange::new(Lba(0), 128));
        assert!(bg.next_fetch(SimTime::ZERO, &bitmap).is_none());
    }
}
