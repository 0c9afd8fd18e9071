//! The filled/empty block bitmap (§3.3).
//!
//! The VMM tracks which local-disk sectors already hold image (or
//! guest-written) data. The bitmap resolves the multi-queue consistency
//! race: before the background copy writes a block it *atomically checks
//! and claims* it, so a block the guest wrote while the copy's server
//! request was in flight is never overwritten ("the VMM holds a bitmap …
//! and atomically checks the status to prevent the VMM from writing to a
//! filled block").
//!
//! The bitmap is persisted to an unused region of the local disk (for
//! shutdown/reboot) and that region is protected from the guest by the
//! device mediator.

use hwsim::block::{BlockRange, BlockStore, Lba, SectorData};

/// Sector-granular filled/empty bitmap with atomic claim semantics.
///
/// All range operations are *word-parallel*: they touch whole `u64`
/// words with mask arithmetic instead of looping per sector, and a
/// two-level summary (one bit per fully-filled word) lets
/// [`BlockBitmap::next_empty`] skip 4096 sectors per summary-word probe,
/// so a scan over a 32-GB disk inspects ~16k summary words instead of
/// 67M sectors.
///
/// # Examples
///
/// ```
/// use bmcast::bitmap::BlockBitmap;
/// use hwsim::block::{BlockRange, Lba};
///
/// let mut bm = BlockBitmap::new(1024);
/// assert!(!bm.is_filled(Lba(5)));
/// bm.mark_filled(BlockRange::new(Lba(0), 8));
/// assert!(bm.is_filled(Lba(5)));
/// assert_eq!(bm.filled_sectors(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct BlockBitmap {
    words: Vec<u64>,
    /// Second level: bit `w % 64` of `summary[w / 64]` is set iff
    /// `words[w]` has every *valid* bit set (the word is fully filled).
    summary: Vec<u64>,
    sectors: u64,
    filled: u64,
}

impl BlockBitmap {
    /// An all-empty bitmap covering `sectors` sectors.
    pub fn new(sectors: u64) -> BlockBitmap {
        let nwords = sectors.div_ceil(64) as usize;
        BlockBitmap {
            words: vec![0; nwords],
            summary: vec![0; nwords.div_ceil(64)],
            sectors,
            filled: 0,
        }
    }

    /// The valid (in-capacity) bits of word `w`.
    #[inline]
    fn valid_mask(&self, w: usize) -> u64 {
        let base = (w as u64) * 64;
        if base + 64 <= self.sectors {
            !0
        } else {
            (1u64 << (self.sectors - base)) - 1
        }
    }

    /// Refreshes word `w`'s summary bit after its content changed.
    #[inline]
    fn update_summary(&mut self, w: usize) {
        let vm = self.valid_mask(w);
        let bit = 1u64 << (w % 64);
        if self.words[w] & vm == vm {
            self.summary[w / 64] |= bit;
        } else {
            self.summary[w / 64] &= !bit;
        }
    }

    /// `(word index, in-word mask)` pairs covering `range`.
    #[inline]
    fn word_spans(range: BlockRange) -> impl Iterator<Item = (usize, u64)> {
        let start = range.lba.0;
        let end = range.end().0;
        (start / 64..=(end - 1) / 64).map(move |w| {
            let base = w * 64;
            let lo = start.max(base) - base;
            let hi = end.min(base + 64) - base;
            let mask = if hi - lo == 64 {
                !0
            } else {
                ((1u64 << (hi - lo)) - 1) << lo
            };
            (w as usize, mask)
        })
    }

    /// Total sectors tracked.
    pub fn capacity_sectors(&self) -> u64 {
        self.sectors
    }

    /// Sectors currently marked filled.
    pub fn filled_sectors(&self) -> u64 {
        self.filled
    }

    /// Whether every sector is filled (deployment complete).
    pub fn is_complete(&self) -> bool {
        self.filled == self.sectors
    }

    /// Deployment progress in `[0, 1]`.
    pub fn progress(&self) -> f64 {
        if self.sectors == 0 {
            1.0
        } else {
            self.filled as f64 / self.sectors as f64
        }
    }

    /// Whether sector `lba` is filled.
    ///
    /// # Panics
    ///
    /// Panics if `lba` is out of range.
    pub fn is_filled(&self, lba: Lba) -> bool {
        assert!(lba.0 < self.sectors, "bitmap query out of range: {lba}");
        self.words[(lba.0 / 64) as usize] & (1 << (lba.0 % 64)) != 0
    }

    /// Whether every sector of `range` is filled.
    ///
    /// # Panics
    ///
    /// Panics if `range` extends past the bitmap's capacity.
    pub fn all_filled(&self, range: BlockRange) -> bool {
        assert!(
            range.end().0 <= self.sectors,
            "bitmap query out of range: {range:?}"
        );
        Self::word_spans(range).all(|(w, mask)| self.words[w] & mask == mask)
    }

    /// Whether any sector of `range` is empty.
    pub fn any_empty(&self, range: BlockRange) -> bool {
        !self.all_filled(range)
    }

    /// Marks `range` filled (guest writes and completed copy-on-read
    /// fills both land here).
    pub fn mark_filled(&mut self, range: BlockRange) {
        for (w, mask) in Self::word_spans(range) {
            let new = mask & !self.words[w];
            if new != 0 {
                self.words[w] |= mask;
                self.filled += new.count_ones() as u64;
                self.update_summary(w);
            }
        }
    }

    /// Clears `range` back to empty (used by the background copy's
    /// *requested* tracking when a server fetch fails and must be
    /// reissued).
    pub fn clear(&mut self, range: BlockRange) {
        for (w, mask) in Self::word_spans(range) {
            let hit = mask & self.words[w];
            if hit != 0 {
                self.words[w] &= !mask;
                self.filled -= hit.count_ones() as u64;
                self.update_summary(w);
            }
        }
    }

    /// Atomically claims `range` for a background write: succeeds (and
    /// marks it filled) only if **every** sector was still empty. This is
    /// the §3.3 consistency check — if the guest wrote any sector while
    /// the copy's server request was in flight, the claim fails and the
    /// stale data is discarded.
    pub fn try_claim(&mut self, range: BlockRange) -> bool {
        if Self::word_spans(range).any(|(w, mask)| self.words[w] & mask != 0) {
            return false;
        }
        for (w, mask) in Self::word_spans(range) {
            self.words[w] |= mask;
            self.filled += mask.count_ones() as u64;
            self.update_summary(w);
        }
        true
    }

    /// The empty subranges of `range`, coalesced — what copy-on-read must
    /// fetch from the server (filled holes are read locally).
    pub fn empty_subranges(&self, range: BlockRange) -> Vec<BlockRange> {
        let mut out = Vec::new();
        let mut run_start: Option<u64> = None;
        for (w, mask) in Self::word_spans(range) {
            let base = (w as u64) * 64;
            let empty = !self.words[w] & mask;
            if empty == 0 {
                // Whole span filled: close any run at the span's start.
                if let Some(s) = run_start.take() {
                    let at = base + mask.trailing_zeros() as u64;
                    out.push(BlockRange::new(Lba(s), (at - s) as u32));
                }
                continue;
            }
            if empty == mask && run_start.is_some() {
                continue; // whole span empty: the open run just extends
            }
            let lo = mask.trailing_zeros() as u64;
            let hi = 64 - mask.leading_zeros() as u64;
            let mut pos = lo;
            while pos < hi {
                if (empty >> pos) & 1 == 1 {
                    run_start.get_or_insert(base + pos);
                    pos += ((empty >> pos).trailing_ones() as u64).min(hi - pos);
                } else {
                    if let Some(s) = run_start.take() {
                        out.push(BlockRange::new(Lba(s), (base + pos - s) as u32));
                    }
                    let gap = (empty >> pos).trailing_zeros() as u64;
                    pos += gap.min(hi - pos);
                }
            }
        }
        if let Some(s) = run_start {
            out.push(BlockRange::new(Lba(s), (range.end().0 - s) as u32));
        }
        out
    }

    /// The filled subranges of `range`, coalesced — the complement of
    /// [`BlockBitmap::empty_subranges`]. The snapshot-back engine walks
    /// these when the bitmap tracks *dirty* (tenant-written) sectors.
    pub fn filled_subranges(&self, range: BlockRange) -> Vec<BlockRange> {
        let mut out = Vec::new();
        let mut cursor = range.lba.0;
        for hole in self.empty_subranges(range) {
            if hole.lba.0 > cursor {
                out.push(BlockRange::new(Lba(cursor), (hole.lba.0 - cursor) as u32));
            }
            cursor = hole.end().0;
        }
        if cursor < range.end().0 {
            out.push(BlockRange::new(
                Lba(cursor),
                (range.end().0 - cursor) as u32,
            ));
        }
        out
    }

    /// First filled sector in `[lo, hi)` (word-parallel scan).
    fn next_filled_in(&self, lo: u64, hi: u64) -> Option<u64> {
        if lo >= hi {
            return None;
        }
        for w in lo / 64..=(hi - 1) / 64 {
            let base = w * 64;
            let (span_lo, span_hi) = (lo.max(base) - base, hi.min(base + 64) - base);
            let mask = if span_hi - span_lo == 64 {
                !0
            } else {
                ((1u64 << (span_hi - span_lo)) - 1) << span_lo
            };
            let filled = self.words[w as usize] & mask;
            if filled != 0 {
                return Some(base + filled.trailing_zeros() as u64);
            }
        }
        None
    }

    /// First filled sector at or after `from`, wrapping once; `None` when
    /// the bitmap is all-empty. The snapshot-back cursor resumes from the
    /// last streamed block with this.
    pub fn next_filled(&self, from: Lba) -> Option<Lba> {
        if self.filled == 0 {
            return None;
        }
        let start = from.0.min(self.sectors.saturating_sub(1));
        self.next_filled_in(start, self.sectors)
            .or_else(|| self.next_filled_in(0, start))
            .map(Lba)
    }

    /// First empty sector in `[lo, hi)`, skipping fully-filled words via
    /// the summary level.
    fn next_empty_in(&self, lo: u64, hi: u64) -> Option<u64> {
        if lo >= hi {
            return None;
        }
        let w_lo = lo / 64;
        let w_hi = (hi - 1) / 64;
        for s in w_lo / 64..=w_hi / 64 {
            let mut not_full = !self.summary[s as usize];
            if s == w_lo / 64 {
                not_full &= !0 << (w_lo % 64);
            }
            if s == w_hi / 64 && w_hi % 64 < 63 {
                not_full &= (1u64 << (w_hi % 64 + 1)) - 1;
            }
            while not_full != 0 {
                let w = s * 64 + not_full.trailing_zeros() as u64;
                not_full &= not_full - 1;
                let base = w * 64;
                let (span_lo, span_hi) = (lo.max(base) - base, hi.min(base + 64) - base);
                let mask = if span_hi - span_lo == 64 {
                    !0
                } else {
                    ((1u64 << (span_hi - span_lo)) - 1) << span_lo
                };
                let empty = !self.words[w as usize] & mask;
                if empty != 0 {
                    return Some(base + empty.trailing_zeros() as u64);
                }
            }
        }
        None
    }

    /// First empty sector at or after `from`, wrapping once; `None` when
    /// complete. The background copy fills "in order from low to high LBA"
    /// but restarts "adjacent to that of the last-accessed block if the
    /// guest OS accessed the disk" — callers pass that hint as `from`.
    pub fn next_empty(&self, from: Lba) -> Option<Lba> {
        if self.is_complete() {
            return None;
        }
        let start = from.0.min(self.sectors.saturating_sub(1));
        self.next_empty_in(start, self.sectors)
            .or_else(|| self.next_empty_in(0, start))
            .map(Lba)
    }

    /// Serializes the bitmap into sector-sized units for persistence.
    pub fn to_sectors(&self) -> Vec<SectorData> {
        // Each sector fingerprint summarizes 64 sectors' worth of state;
        // a real implementation packs 4096 bits per sector, but the
        // *count* of persistence sectors below matches that real layout.
        self.words
            .chunks(64)
            .map(|chunk| {
                let mut h = 0xCBF2_9CE4_8422_2325u64;
                for &w in chunk {
                    h = (h ^ w).wrapping_mul(0x100_0000_01B3);
                }
                SectorData(h | 1)
            })
            .collect()
    }

    /// Number of disk sectors the persisted bitmap occupies (4096 tracked
    /// sectors per persistence sector, as a real 1-bit-per-sector layout
    /// would need).
    pub fn persisted_sectors(&self) -> u32 {
        self.words.len().div_ceil(64) as u32
    }

    /// Writes the bitmap into `region` of `store`.
    ///
    /// # Panics
    ///
    /// Panics if `region` is smaller than [`BlockBitmap::persisted_sectors`].
    pub fn save_to(&self, store: &mut BlockStore, region: BlockRange) {
        let sectors = self.to_sectors();
        assert!(
            region.sectors >= sectors.len() as u32,
            "persistence region too small: need {} sectors",
            sectors.len()
        );
        for (i, s) in sectors.iter().enumerate() {
            store.write(region.lba + i as u64, *s);
        }
    }

    /// Verifies a previously saved image matches this bitmap (used after
    /// reboot to detect torn saves; real recovery would deserialize).
    pub fn matches_saved(&self, store: &BlockStore, region: BlockRange) -> bool {
        self.to_sectors()
            .iter()
            .enumerate()
            .all(|(i, s)| store.read(region.lba + i as u64) == *s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty_and_fills() {
        let mut bm = BlockBitmap::new(256);
        assert_eq!(bm.filled_sectors(), 0);
        assert!(!bm.is_complete());
        bm.mark_filled(BlockRange::new(Lba(0), 256));
        assert!(bm.is_complete());
        assert_eq!(bm.progress(), 1.0);
    }

    #[test]
    fn mark_is_idempotent() {
        let mut bm = BlockBitmap::new(128);
        bm.mark_filled(BlockRange::new(Lba(10), 20));
        bm.mark_filled(BlockRange::new(Lba(15), 20));
        assert_eq!(bm.filled_sectors(), 25);
    }

    #[test]
    fn claim_fails_if_any_sector_filled() {
        let mut bm = BlockBitmap::new(128);
        bm.mark_filled(BlockRange::new(Lba(5), 1));
        assert!(!bm.try_claim(BlockRange::new(Lba(0), 8)));
        // A failed claim must not mark anything.
        assert_eq!(bm.filled_sectors(), 1);
        assert!(bm.try_claim(BlockRange::new(Lba(6), 8)));
        assert_eq!(bm.filled_sectors(), 9);
    }

    #[test]
    fn guest_write_beats_background_copy() {
        // The §3.3 race: VMM requests block 0..8 from the server; guest
        // writes sector 3 before the response arrives; claim must fail.
        let mut bm = BlockBitmap::new(64);
        let inflight = BlockRange::new(Lba(0), 8);
        bm.mark_filled(BlockRange::new(Lba(3), 1)); // guest write lands
        assert!(!bm.try_claim(inflight), "stale server data must be dropped");
    }

    #[test]
    fn empty_subranges_coalesce() {
        let mut bm = BlockBitmap::new(64);
        bm.mark_filled(BlockRange::new(Lba(2), 2)); // fill 2,3
        bm.mark_filled(BlockRange::new(Lba(6), 1)); // fill 6
        let holes = bm.empty_subranges(BlockRange::new(Lba(0), 8));
        assert_eq!(
            holes,
            vec![
                BlockRange::new(Lba(0), 2),
                BlockRange::new(Lba(4), 2),
                BlockRange::new(Lba(7), 1),
            ]
        );
    }

    #[test]
    fn empty_subranges_of_filled_range_is_empty() {
        let mut bm = BlockBitmap::new(64);
        bm.mark_filled(BlockRange::new(Lba(0), 64));
        assert!(bm.empty_subranges(BlockRange::new(Lba(0), 64)).is_empty());
    }

    #[test]
    fn filled_subranges_complement_empty() {
        let mut bm = BlockBitmap::new(64);
        bm.mark_filled(BlockRange::new(Lba(2), 2));
        bm.mark_filled(BlockRange::new(Lba(6), 1));
        let full = bm.filled_subranges(BlockRange::new(Lba(0), 8));
        assert_eq!(
            full,
            vec![BlockRange::new(Lba(2), 2), BlockRange::new(Lba(6), 1)]
        );
        assert!(bm.filled_subranges(BlockRange::new(Lba(8), 8)).is_empty());
        bm.mark_filled(BlockRange::new(Lba(0), 64));
        assert_eq!(
            bm.filled_subranges(BlockRange::new(Lba(0), 64)),
            vec![BlockRange::new(Lba(0), 64)]
        );
    }

    #[test]
    fn next_filled_scans_and_wraps() {
        let mut bm = BlockBitmap::new(1 << 16);
        assert_eq!(bm.next_filled(Lba(0)), None);
        bm.mark_filled(BlockRange::new(Lba(40_000), 3));
        assert_eq!(bm.next_filled(Lba(0)), Some(Lba(40_000)));
        assert_eq!(bm.next_filled(Lba(40_001)), Some(Lba(40_001)));
        // Wrap: nothing at or above `from`, hit below.
        assert_eq!(bm.next_filled(Lba(50_000)), Some(Lba(40_000)));
        assert_eq!(bm.next_filled(Lba((1 << 16) - 1)), Some(Lba(40_000)));
    }

    #[test]
    fn next_empty_scans_and_wraps() {
        let mut bm = BlockBitmap::new(16);
        bm.mark_filled(BlockRange::new(Lba(0), 8));
        assert_eq!(bm.next_empty(Lba(0)), Some(Lba(8)));
        assert_eq!(bm.next_empty(Lba(12)), Some(Lba(12)));
        bm.mark_filled(BlockRange::new(Lba(8), 8));
        assert_eq!(bm.next_empty(Lba(0)), None);
        // Wrap: everything above `from` is filled, hole below.
        let mut bm = BlockBitmap::new(16);
        bm.mark_filled(BlockRange::new(Lba(8), 8));
        assert_eq!(bm.next_empty(Lba(12)), Some(Lba(0)));
    }

    #[test]
    fn persistence_round_trips() {
        let mut bm = BlockBitmap::new(1 << 20);
        bm.mark_filled(BlockRange::new(Lba(1000), 5000));
        let mut store = BlockStore::zeroed(1 << 20);
        let region = BlockRange::new(Lba(900_000), bm.persisted_sectors());
        bm.save_to(&mut store, region);
        assert!(bm.matches_saved(&store, region));
        bm.mark_filled(BlockRange::new(Lba(0), 1));
        assert!(!bm.matches_saved(&store, region), "stale save detected");
    }

    #[test]
    fn persisted_size_is_small() {
        // 32 GB disk = 67M sectors → 1 bit each → ~8 MB → ~16k sectors.
        let bm = BlockBitmap::new((32u64 << 30) / 512);
        assert_eq!(bm.persisted_sectors(), 16_384);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_query_panics() {
        BlockBitmap::new(8).is_filled(Lba(8));
    }

    #[test]
    fn word_boundary_operations() {
        // Ranges straddling u64 word boundaries behave exactly like the
        // per-sector definition.
        let mut bm = BlockBitmap::new(256);
        bm.mark_filled(BlockRange::new(Lba(60), 10)); // 60..70 crosses word 0/1
        assert_eq!(bm.filled_sectors(), 10);
        assert!(bm.all_filled(BlockRange::new(Lba(60), 10)));
        assert!(!bm.all_filled(BlockRange::new(Lba(59), 11)));
        assert_eq!(bm.next_empty(Lba(60)), Some(Lba(70)));
        assert_eq!(
            bm.empty_subranges(BlockRange::new(Lba(0), 256)),
            vec![BlockRange::new(Lba(0), 60), BlockRange::new(Lba(70), 186)]
        );
        bm.clear(BlockRange::new(Lba(63), 2));
        assert_eq!(bm.filled_sectors(), 8);
        assert_eq!(bm.next_empty(Lba(60)), Some(Lba(63)));
        assert!(bm.try_claim(BlockRange::new(Lba(63), 2)));
        assert!(!bm.try_claim(BlockRange::new(Lba(0), 64)));
        assert_eq!(bm.filled_sectors(), 10);
    }

    #[test]
    fn next_empty_skips_filled_words_via_summary() {
        // Fill everything except one sector deep into the bitmap; the
        // scan must find it (and wrap correctly from beyond it).
        let mut bm = BlockBitmap::new(1 << 20);
        bm.mark_filled(BlockRange::new(Lba(0), 1 << 20));
        bm.clear(BlockRange::new(Lba(777_777), 1));
        assert_eq!(bm.next_empty(Lba(0)), Some(Lba(777_777)));
        assert_eq!(bm.next_empty(Lba(777_777)), Some(Lba(777_777)));
        assert_eq!(bm.next_empty(Lba(777_778)), Some(Lba(777_777)), "wraps");
        assert_eq!(bm.next_empty(Lba((1 << 20) - 1)), Some(Lba(777_777)));
    }

    #[test]
    fn partial_last_word_completes() {
        // Capacity not a multiple of 64: the tail word's invalid bits
        // must not confuse completeness or scans.
        let mut bm = BlockBitmap::new(100);
        bm.mark_filled(BlockRange::new(Lba(0), 99));
        assert!(!bm.is_complete());
        assert_eq!(bm.next_empty(Lba(0)), Some(Lba(99)));
        assert_eq!(bm.next_empty(Lba(99)), Some(Lba(99)));
        bm.mark_filled(BlockRange::new(Lba(99), 1));
        assert!(bm.is_complete());
        assert_eq!(bm.next_empty(Lba(0)), None);
    }
}
