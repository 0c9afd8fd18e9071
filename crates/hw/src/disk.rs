//! Rotational-disk timing model.
//!
//! Models the evaluation machine's Seagate Constellation.2 ST9500620NS
//! (500 GB, 7200 rpm SATA): seek as `a + b·sqrt(distance)`, half-rotation
//! latency on non-sequential access, constant media transfer rate, a small
//! on-disk cache (the last few thousand sectors serviced; no readahead is
//! modelled), and per-command overhead. The model is stateful — it tracks
//! head position — so interleaving guest and VMM accesses to different
//! disk regions produces the seek interference the paper observes in
//! Figure 14.

use crate::block::{BlockRange, BlockStore, Lba, SectorData};
use simkit::SimDuration;
use std::collections::VecDeque;

/// The on-disk cache window: the last `cap` sector instances the media
/// serviced, reads and writes alike, duplicates included, oldest first.
///
/// Stored as a FIFO of `(start_lba, sectors)` runs. Each access appends
/// its range as one run (merged into the newest run when it continues
/// it), then the oldest runs are trimmed from the front until at most
/// `cap` instances remain. This holds exactly the window a per-sector
/// FIFO popped after every push would hold: a range is pushed in
/// ascending LBA order, so trimming after the whole push keeps the same
/// suffix, and eviction only ever shortens the oldest run from its front.
#[derive(Debug, Clone, Default)]
struct DriveCache {
    runs: VecDeque<(u64, u64)>,
    /// Sector instances held: the sum of the runs' lengths.
    held: u64,
}

impl DriveCache {
    /// Appends `range`'s sectors, then trims the window to `cap`. A
    /// zero-sector range is never remembered.
    fn remember(&mut self, range: BlockRange, cap: u64) {
        let (start, sectors) = (range.lba.0, range.sectors as u64);
        if sectors == 0 {
            return;
        }
        match self.runs.back_mut() {
            Some((s, n)) if *s + *n == start => *n += sectors,
            _ => self.runs.push_back((start, sectors)),
        }
        self.held += sectors;
        while self.held > cap {
            let excess = self.held - cap;
            let (s, n) = self.runs.front_mut().expect("held sectors without a run");
            if *n <= excess {
                self.held -= *n;
                self.runs.pop_front();
            } else {
                *s += excess;
                *n -= excess;
                self.held -= excess;
            }
        }
    }

    /// Whether every sector of `range` is covered by some run in the
    /// window (vacuously true for zero sectors).
    ///
    /// A cursor starts at the range's first sector; each pass over the
    /// runs, oldest first, moves it past every run that contains it. The
    /// answer is known when it reaches the range's end (hit) or a pass
    /// moves it nowhere (miss). Each pass but the last moves the cursor
    /// past at least one run for good, so the cost is at most one pass
    /// per run the cover needs, plus one. A 1-sector probe, a range
    /// inside one run, or a range covered by an ascending stream of runs
    /// costs a single pass over the window's runs, with no per-sector
    /// work and no allocation.
    fn covers(&self, range: BlockRange) -> bool {
        let (mut at, end) = (range.lba.0, range.end().0);
        if at == end {
            return true;
        }
        // The window holds `held` instances, so at most `held` distinct
        // sectors.
        if end - at > self.held {
            return false;
        }
        loop {
            let from = at;
            for &(s, n) in &self.runs {
                // `s <= at < s + n` in one comparison.
                if at.wrapping_sub(s) < n {
                    at = s + n;
                    if at >= end {
                        return true;
                    }
                }
            }
            if at == from {
                return false;
            }
        }
    }
}

/// Physical parameters of the disk model.
///
/// Defaults approximate the paper's 500 GB / 7200 rpm SATA drive:
/// 116.6 MB/s sequential read, 111.9 MB/s sequential write.
#[derive(Debug, Clone)]
pub struct DiskParams {
    /// Disk capacity in sectors.
    pub capacity_sectors: u64,
    /// Sequential read bandwidth, bytes/second.
    pub read_bps: u64,
    /// Sequential write bandwidth, bytes/second.
    pub write_bps: u64,
    /// Track-to-track (minimum nonzero) seek time.
    pub min_seek: SimDuration,
    /// Average seek time (used at one-third-of-capacity distance).
    pub avg_seek: SimDuration,
    /// Spindle speed in revolutions per minute.
    pub rpm: u64,
    /// Fixed per-command controller/firmware overhead.
    pub cmd_overhead: SimDuration,
    /// Service time for a read hitting the on-disk cache.
    pub cache_hit: SimDuration,
    /// Size of the on-disk cache window, in serviced sector instances:
    /// the cache remembers the last `cache_sectors` sectors the media
    /// serviced (every write, and every read the cache missed), counting a
    /// sector once per access. Rewriting the same sectors, or re-reading
    /// them in a read that misses elsewhere, therefore fills the window
    /// with duplicates; a read served from the cache is not remembered.
    pub cache_sectors: usize,
}

impl Default for DiskParams {
    fn default() -> Self {
        DiskParams {
            capacity_sectors: (500u64 << 30) / 512,
            read_bps: 116_600_000,
            write_bps: 111_900_000,
            min_seek: SimDuration::from_micros(800),
            avg_seek: SimDuration::from_micros(8_500),
            rpm: 7_200,
            cmd_overhead: SimDuration::from_micros(20),
            cache_hit: SimDuration::from_micros(50),
            cache_sectors: 4096,
        }
    }
}

impl DiskParams {
    /// Time for one full platter rotation.
    pub fn rotation(&self) -> SimDuration {
        SimDuration::from_nanos(60_000_000_000 / self.rpm)
    }
}

/// The kind of a disk access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskOp {
    /// Read sectors from the media (or cache).
    Read,
    /// Write sectors to the media.
    Write,
}

/// A rotational disk: timing model plus block contents.
///
/// # Examples
///
/// ```
/// use hwsim::disk::{DiskModel, DiskParams, DiskOp};
/// use hwsim::block::{BlockRange, BlockStore, Lba};
///
/// let params = DiskParams::default();
/// let store = BlockStore::zeroed(params.capacity_sectors);
/// let mut disk = DiskModel::new(params, store);
///
/// // A random read pays seek + rotation; the sequential follow-up does not.
/// let random = disk.access_time(DiskOp::Read, BlockRange::new(Lba(500_000_000), 8));
/// let sequential = disk.access_time(DiskOp::Read, BlockRange::new(Lba(500_000_008), 8));
/// assert!(sequential < random);
/// ```
#[derive(Debug, Clone)]
pub struct DiskModel {
    params: DiskParams,
    store: BlockStore,
    /// Next LBA the head would reach without repositioning.
    head: Lba,
    /// Recently serviced sectors retained in the on-disk cache.
    cache: DriveCache,
    total_busy: SimDuration,
    /// Fault-injection multiplier on every access time (1.0 = healthy).
    fault_latency_factor: f64,
    /// Fault injection: when set, writes report a device error and the
    /// caller must not commit data to the store.
    fault_write_errors: bool,
}

impl DiskModel {
    /// Creates a disk from parameters and contents.
    ///
    /// # Panics
    ///
    /// Panics if the store capacity disagrees with `params`.
    pub fn new(params: DiskParams, store: BlockStore) -> DiskModel {
        assert_eq!(
            store.capacity_sectors(),
            params.capacity_sectors,
            "store and params disagree on capacity"
        );
        DiskModel {
            params,
            store,
            head: Lba(0),
            cache: DriveCache::default(),
            total_busy: SimDuration::ZERO,
            fault_latency_factor: 1.0,
            fault_write_errors: false,
        }
    }

    /// Sets the fault-injection latency multiplier. `1.0` (the default)
    /// means a healthy disk; larger values stretch every access.
    pub fn set_fault_latency_factor(&mut self, factor: f64) {
        self.fault_latency_factor = if factor.is_finite() && factor > 0.0 {
            factor
        } else {
            1.0
        };
    }

    /// Enables or disables injected write errors.
    pub fn set_fault_write_errors(&mut self, faulted: bool) {
        self.fault_write_errors = faulted;
    }

    /// Whether writes currently fail with an injected device error.
    pub fn write_faulted(&self) -> bool {
        self.fault_write_errors
    }

    /// The disk parameters.
    pub fn params(&self) -> &DiskParams {
        &self.params
    }

    /// Read-only access to the block contents.
    pub fn store(&self) -> &BlockStore {
        &self.store
    }

    /// Mutable access to the block contents (used by DMA engines).
    pub fn store_mut(&mut self) -> &mut BlockStore {
        &mut self.store
    }

    /// Total time this disk has spent servicing commands.
    pub fn total_busy(&self) -> SimDuration {
        self.total_busy
    }

    /// Current head position (next sequential LBA).
    pub fn head(&self) -> Lba {
        self.head
    }

    /// Seek time for a head movement of `distance` sectors.
    fn seek_time(&self, distance: u64) -> SimDuration {
        if distance == 0 {
            return SimDuration::ZERO;
        }
        // a + b*sqrt(d): calibrated so d = capacity/3 gives avg_seek.
        let third = (self.params.capacity_sectors / 3).max(1) as f64;
        let b = (self.params.avg_seek.as_nanos() as f64 - self.params.min_seek.as_nanos() as f64)
            / third.sqrt();
        let ns = self.params.min_seek.as_nanos() as f64 + b * (distance as f64).sqrt();
        SimDuration::from_nanos(ns as u64)
    }

    /// Whether a read of `range` would be served from the on-disk cache.
    pub fn cache_hit(&self, range: BlockRange) -> bool {
        self.cache.covers(range)
    }

    /// Computes the service time for an access, updating head position and
    /// cache state. Contents are *not* transferred; use
    /// [`DiskModel::store`]/[`DiskModel::store_mut`] for data movement.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the end of the disk.
    pub fn access_time(&mut self, op: DiskOp, range: BlockRange) -> SimDuration {
        assert!(
            range.end().0 <= self.params.capacity_sectors,
            "access past end of disk"
        );
        let mut t = self.access_time_inner(op, range);
        if self.fault_latency_factor != 1.0 {
            t = t.mul_f64(self.fault_latency_factor);
        }
        self.total_busy += t;
        t
    }

    fn access_time_inner(&mut self, op: DiskOp, range: BlockRange) -> SimDuration {
        // Cached read: no mechanical latency at all. This is what makes the
        // mediator's dummy-sector trick ("reads a single dummy sector that
        // hits the disk cache") nearly free.
        if op == DiskOp::Read && self.cache_hit(range) {
            return self.params.cmd_overhead + self.params.cache_hit;
        }

        let distance = self.head.distance(range.lba);
        let mut t = self.params.cmd_overhead;
        if distance != 0 {
            t += self.seek_time(distance);
            // Average rotational latency: half a revolution.
            t += self.params.rotation() / 2;
        }
        let rate = match op {
            DiskOp::Read => self.params.read_bps,
            DiskOp::Write => self.params.write_bps,
        };
        t += SimDuration::from_nanos(range.bytes() * 1_000_000_000 / rate);

        self.head = range.end();
        self.cache.remember(range, self.params.cache_sectors as u64);
        t
    }

    /// Convenience: performs a read access, returning `(service_time,
    /// data)`.
    pub fn read(&mut self, range: BlockRange) -> (SimDuration, Vec<SectorData>) {
        let t = self.access_time(DiskOp::Read, range);
        (t, self.store.read_range(range))
    }

    /// Convenience: performs a write access of `data`, returning the
    /// service time.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != range.sectors`.
    pub fn write(&mut self, range: BlockRange, data: &[SectorData]) -> SimDuration {
        let t = self.access_time(DiskOp::Write, range);
        self.store.write_range(range, data);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_disk() -> DiskModel {
        let params = DiskParams {
            capacity_sectors: 1 << 20,
            ..DiskParams::default()
        };
        let store = BlockStore::zeroed(params.capacity_sectors);
        DiskModel::new(params, store)
    }

    #[test]
    fn sequential_read_hits_media_rate() {
        let mut d = small_disk();
        // Position head at 0 first.
        d.access_time(DiskOp::Read, BlockRange::new(Lba(0), 8));
        // Then read 100 MB sequentially in 1 MB chunks.
        let mut total = SimDuration::ZERO;
        let chunk = 2048u32; // 1 MB
        for i in 0..100u64 {
            total += d.access_time(
                DiskOp::Read,
                BlockRange::new(Lba(8 + i * chunk as u64), chunk),
            );
        }
        let mbps = (100.0 * 1_048_576.0 / 1e6) / total.as_secs_f64();
        assert!(
            (mbps - 116.6).abs() < 3.0,
            "sequential read rate was {mbps:.1} MB/s"
        );
    }

    #[test]
    fn sequential_write_hits_media_rate() {
        let mut d = small_disk();
        d.access_time(DiskOp::Write, BlockRange::new(Lba(0), 8));
        let mut total = SimDuration::ZERO;
        for i in 0..100u64 {
            total += d.access_time(DiskOp::Write, BlockRange::new(Lba(8 + i * 2048), 2048));
        }
        let mbps = (100.0 * 1_048_576.0 / 1e6) / total.as_secs_f64();
        assert!(
            (mbps - 111.9).abs() < 3.0,
            "sequential write rate was {mbps:.1} MB/s"
        );
    }

    #[test]
    fn random_access_pays_seek_and_rotation() {
        let mut d = small_disk();
        let far = d.params().capacity_sectors / 2;
        let t = d.access_time(DiskOp::Read, BlockRange::new(Lba(far), 8));
        // At least half a rotation (4.17 ms) plus some seek.
        assert!(t > SimDuration::from_millis(4), "random access took {t}");
    }

    #[test]
    fn repeated_read_hits_cache() {
        let mut d = small_disk();
        let r = BlockRange::new(Lba(1000), 1);
        let first = d.access_time(DiskOp::Read, r);
        let second = d.access_time(DiskOp::Read, r);
        assert!(second < first);
        assert!(second <= SimDuration::from_micros(200));
        assert!(d.cache_hit(r));
    }

    #[test]
    fn cache_window_counts_duplicate_sectors() {
        // 8 early sectors plus 511 rewrites of 8 others fill the 4,096
        // instance window exactly; the 512th rewrite evicts the early
        // range although only 16 distinct sectors were ever touched.
        let mut d = small_disk();
        let early = BlockRange::new(Lba(100), 8);
        let hot = BlockRange::new(Lba(5_000), 8);
        d.access_time(DiskOp::Read, early);
        for _ in 0..511 {
            d.access_time(DiskOp::Write, hot);
        }
        assert!(d.cache_hit(early));
        d.access_time(DiskOp::Write, hot);
        assert!(!d.cache_hit(early), "duplicates pushed the early range out");
        assert!(d.cache_hit(hot));
    }

    #[test]
    fn reads_served_from_cache_are_not_remembered() {
        // Re-reading 8 cached sectors 512 times adds nothing to the
        // window: only the first read, a miss, is remembered.
        let mut d = small_disk();
        let early = BlockRange::new(Lba(100), 8);
        let hot = BlockRange::new(Lba(5_000), 8);
        d.access_time(DiskOp::Read, early);
        for _ in 0..512 {
            d.access_time(DiskOp::Read, hot);
        }
        assert!(d.cache_hit(early));
    }

    #[test]
    fn interleaved_far_streams_are_slower_than_one_stream() {
        // The Figure 14 mechanism: two writers at distant regions force
        // seeks, so combined throughput drops below one sequential stream.
        let mut one = small_disk();
        let mut two = small_disk();
        let chunk = 256u32;
        let mut t_one = SimDuration::ZERO;
        for i in 0..200u64 {
            t_one += one.access_time(DiskOp::Write, BlockRange::new(Lba(i * chunk as u64), chunk));
        }
        let far = 1u64 << 19;
        let mut t_two = SimDuration::ZERO;
        for i in 0..100u64 {
            t_two += two.access_time(DiskOp::Write, BlockRange::new(Lba(i * chunk as u64), chunk));
            t_two += two.access_time(
                DiskOp::Write,
                BlockRange::new(Lba(far + i * chunk as u64), chunk),
            );
        }
        assert!(
            t_two > t_one.mul_f64(1.5),
            "interleaving should cost seeks: one={t_one} two={t_two}"
        );
    }

    #[test]
    fn head_tracks_last_access() {
        let mut d = small_disk();
        d.access_time(DiskOp::Read, BlockRange::new(Lba(10), 6));
        assert_eq!(d.head(), Lba(16));
    }

    #[test]
    fn read_write_move_data() {
        let mut d = small_disk();
        let r = BlockRange::new(Lba(5), 2);
        let data = vec![SectorData(11), SectorData(22)];
        d.write(r, &data);
        let (_, got) = d.read(r);
        assert_eq!(got, data);
    }

    #[test]
    fn busy_time_accumulates() {
        let mut d = small_disk();
        assert_eq!(d.total_busy(), SimDuration::ZERO);
        d.access_time(DiskOp::Read, BlockRange::new(Lba(0), 8));
        assert!(d.total_busy() > SimDuration::ZERO);
    }

    #[test]
    fn fault_latency_factor_stretches_accesses() {
        let mut healthy = small_disk();
        let mut slow = small_disk();
        slow.set_fault_latency_factor(4.0);
        let r = BlockRange::new(Lba(500_000), 64);
        let base = healthy.access_time(DiskOp::Read, r);
        let faulted = slow.access_time(DiskOp::Read, r);
        assert_eq!(faulted, base.mul_f64(4.0));
        // Resetting to 1.0 restores healthy timing for fresh accesses.
        slow.set_fault_latency_factor(1.0);
        let r2 = BlockRange::new(Lba(800_000), 64);
        let mut healthy2 = small_disk();
        healthy2.access_time(DiskOp::Read, r); // match head/cache state
        assert_eq!(
            slow.access_time(DiskOp::Read, r2),
            healthy2.access_time(DiskOp::Read, r2)
        );
    }

    #[test]
    fn write_fault_flag_toggles() {
        let mut d = small_disk();
        assert!(!d.write_faulted());
        d.set_fault_write_errors(true);
        assert!(d.write_faulted());
        d.set_fault_write_errors(false);
        assert!(!d.write_faulted());
    }

    #[test]
    #[should_panic(expected = "past end of disk")]
    fn access_past_end_panics() {
        let mut d = small_disk();
        let cap = d.params().capacity_sectors;
        d.access_time(DiskOp::Read, BlockRange::new(Lba(cap - 1), 2));
    }
}
