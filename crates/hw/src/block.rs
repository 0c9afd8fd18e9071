//! Sectors, logical block addresses, and sparse block stores.
//!
//! Disk *contents* in this simulation are 64-bit fingerprints per 512-byte
//! sector rather than real byte arrays. A 32-GB image therefore costs
//! nothing until written, while every correctness property the paper cares
//! about — "copy-on-read returns exactly the server's data", "a guest write
//! is never overwritten by the background copy" — remains an exact equality
//! check on fingerprints.

use crate::hash::U64Map;
use std::collections::hash_map::Entry;
use std::fmt;
use std::ops::{Add, Deref};
use std::sync::Arc;

/// Bytes per sector. BMcast, like ATA, uses 512-byte logical sectors.
pub const SECTOR_SIZE: u64 = 512;

/// A logical block address: the index of a 512-byte sector on a disk.
///
/// # Examples
///
/// ```
/// use hwsim::block::Lba;
/// let lba = Lba(10) + 4;
/// assert_eq!(lba, Lba(14));
/// assert_eq!(Lba::from_bytes(1024), Lba(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lba(pub u64);

impl Lba {
    /// Converts a byte offset to the LBA containing it.
    pub const fn from_bytes(bytes: u64) -> Lba {
        Lba(bytes / SECTOR_SIZE)
    }

    /// Byte offset of the start of this sector.
    pub const fn to_bytes(self) -> u64 {
        self.0 * SECTOR_SIZE
    }

    /// Absolute distance in sectors between two LBAs.
    pub fn distance(self, other: Lba) -> u64 {
        self.0.abs_diff(other.0)
    }
}

impl Add<u64> for Lba {
    type Output = Lba;
    fn add(self, rhs: u64) -> Lba {
        Lba(self.0 + rhs)
    }
}

impl fmt::Display for Lba {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LBA {}", self.0)
    }
}

/// A contiguous range of sectors: `lba .. lba + sectors`.
///
/// # Examples
///
/// ```
/// use hwsim::block::{BlockRange, Lba};
/// let r = BlockRange::new(Lba(100), 8);
/// assert_eq!(r.end(), Lba(108));
/// assert_eq!(r.bytes(), 4096);
/// assert!(r.contains(Lba(107)));
/// assert!(!r.contains(Lba(108)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockRange {
    /// First sector of the range.
    pub lba: Lba,
    /// Number of sectors; always at least 1.
    pub sectors: u32,
}

impl BlockRange {
    /// Creates a range.
    ///
    /// # Panics
    ///
    /// Panics if `sectors` is zero.
    pub fn new(lba: Lba, sectors: u32) -> BlockRange {
        assert!(sectors > 0, "block range must span at least one sector");
        BlockRange { lba, sectors }
    }

    /// One past the last sector.
    pub fn end(self) -> Lba {
        self.lba + self.sectors as u64
    }

    /// Size in bytes.
    pub fn bytes(self) -> u64 {
        self.sectors as u64 * SECTOR_SIZE
    }

    /// Whether `lba` falls inside the range.
    pub fn contains(self, lba: Lba) -> bool {
        lba >= self.lba && lba < self.end()
    }

    /// Whether two ranges share any sector.
    pub fn overlaps(self, other: BlockRange) -> bool {
        self.lba < other.end() && other.lba < self.end()
    }

    /// Iterates over the LBAs in the range.
    pub fn iter(self) -> impl Iterator<Item = Lba> {
        (self.lba.0..self.end().0).map(Lba)
    }
}

/// The content fingerprint of one sector.
///
/// Equality of fingerprints stands in for byte-equality of sector data.
/// [`SectorData::ZERO`] is an all-zero sector (an uninitialized disk).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SectorData(pub u64);

impl SectorData {
    /// The all-zeroes sector.
    pub const ZERO: SectorData = SectorData(0);
}

impl fmt::Display for SectorData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sector:{:016x}", self.0)
    }
}

/// A cheaply cloneable, shareable run of sector contents.
///
/// Fetched blocks travel from the AoE client through the background
/// copy's FIFO to the writer, and may be split into per-hole pieces on
/// the way; `SectorBuf` lets every stage share one allocation instead of
/// re-copying the payload. Cloning and [`SectorBuf::slice`] are
/// reference-count bumps; the contents are reachable through `Deref` as
/// an ordinary `&[SectorData]`.
///
/// # Examples
///
/// ```
/// use hwsim::block::{SectorBuf, SectorData};
/// let buf: SectorBuf = (0..8).map(SectorData).collect::<Vec<_>>().into();
/// let tail = buf.slice(6, 2);
/// assert_eq!(&tail[..], &[SectorData(6), SectorData(7)]);
/// ```
#[derive(Debug, Clone)]
pub struct SectorBuf {
    buf: Arc<[SectorData]>,
    start: usize,
    len: usize,
}

impl SectorBuf {
    /// A view of `len` sectors starting `start` sectors into this view,
    /// sharing the same allocation.
    ///
    /// # Panics
    ///
    /// Panics if `start + len` exceeds this view's length.
    pub fn slice(&self, start: usize, len: usize) -> SectorBuf {
        assert!(start + len <= self.len, "slice out of bounds");
        SectorBuf {
            buf: Arc::clone(&self.buf),
            start: self.start + start,
            len,
        }
    }
}

impl Deref for SectorBuf {
    type Target = [SectorData];
    fn deref(&self) -> &[SectorData] {
        &self.buf[self.start..self.start + self.len]
    }
}

impl From<Vec<SectorData>> for SectorBuf {
    fn from(v: Vec<SectorData>) -> SectorBuf {
        let len = v.len();
        SectorBuf {
            buf: v.into(),
            start: 0,
            len,
        }
    }
}

impl PartialEq for SectorBuf {
    fn eq(&self, other: &SectorBuf) -> bool {
        self[..] == other[..]
    }
}

impl Eq for SectorBuf {}

/// Content generator for not-yet-written sectors of a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DefaultContent {
    /// All sectors read as zero until written (a blank local disk).
    Zeroes,
    /// Sectors read as a deterministic function of `(seed, lba)` — a
    /// pre-built OS image on the storage server.
    Image { seed: u64 },
}

/// Sectors per page of a [`BlockStore`]'s written data.
const PAGE_SECTORS: u64 = 64;

/// The written sectors of one 64-sector-aligned page of a store.
#[derive(Debug, Clone)]
struct Page {
    /// Bit `i` set: `data[i]` holds sector `64·page + i`. Never zero for
    /// a page in the map.
    present: u64,
    data: [SectorData; PAGE_SECTORS as usize],
}

/// The bits of the page-relative sectors `from..from + len`
/// (`from + len ≤ 64`, `len ≥ 1`).
fn page_mask(from: u64, len: u64) -> u64 {
    (u64::MAX >> (PAGE_SECTORS - len)) << from
}

/// A sparse store of sector contents with a default-content generator.
///
/// Written sectors live in 64-sector pages (a present mask plus 64
/// fingerprints), keyed by page index in a map that is never iterated.
/// A page is created by its first non-mirrored write and dropped when its
/// last sector leaves, so a range call costs at most one map lookup per
/// page it spans and none while the store holds no page.
///
/// # Examples
///
/// ```
/// use hwsim::block::{BlockStore, Lba, SectorData};
/// let mut local = BlockStore::zeroed(1 << 20);
/// assert_eq!(local.read(Lba(5)), SectorData::ZERO);
/// local.write(Lba(5), SectorData(42));
/// assert_eq!(local.read(Lba(5)), SectorData(42));
///
/// let image = BlockStore::image(1 << 20, 0xB00);
/// assert_ne!(image.read(Lba(5)), SectorData::ZERO);
/// assert_eq!(image.read(Lba(5)), BlockStore::image_content(0xB00, Lba(5)));
/// ```
#[derive(Debug, Clone)]
pub struct BlockStore {
    capacity_sectors: u64,
    default: DefaultContent,
    /// Written sectors not held as mirror bits, by page index.
    pages: U64Map<Box<Page>>,
    /// Present bits over all pages: [`BlockStore::written_sectors`].
    written: usize,
    /// Space optimization for deployment targets: sectors whose written
    /// content equals `image_content(mirror_seed, lba)` are tracked as one
    /// bit instead of a page entry, so copying a whole 32-GB image costs
    /// megabytes, not gigabytes. One word per page; a sector is never
    /// both a mirror bit and present in a page. Semantically invisible.
    mirror_seed: Option<u64>,
    mirror_bits: Vec<u64>,
}

impl BlockStore {
    fn new(capacity_sectors: u64, default: DefaultContent, mirror_seed: Option<u64>) -> BlockStore {
        let mirror_words = mirror_seed.map_or(0, |_| capacity_sectors.div_ceil(PAGE_SECTORS));
        BlockStore {
            capacity_sectors,
            default,
            pages: U64Map::default(),
            written: 0,
            mirror_seed,
            mirror_bits: vec![0; mirror_words as usize],
        }
    }

    /// A blank store (all sectors zero until written), e.g. a freshly
    /// leased bare-metal instance's local disk.
    pub fn zeroed(capacity_sectors: u64) -> BlockStore {
        BlockStore::new(capacity_sectors, DefaultContent::Zeroes, None)
    }

    /// A blank store expected to be filled with the image keyed by `seed`:
    /// writes that match the image's content are stored compactly.
    /// Contents behave identically to [`BlockStore::zeroed`].
    pub fn zeroed_with_mirror(capacity_sectors: u64, seed: u64) -> BlockStore {
        BlockStore::new(capacity_sectors, DefaultContent::Zeroes, Some(seed))
    }

    /// A store pre-filled with a deterministic image keyed by `seed`, e.g.
    /// the OS image on the storage server.
    pub fn image(capacity_sectors: u64, seed: u64) -> BlockStore {
        BlockStore::new(capacity_sectors, DefaultContent::Image { seed }, None)
    }

    /// The deterministic content of sector `lba` of an image with `seed`.
    ///
    /// Exposed so tests can predict what a copy-on-read must return.
    pub fn image_content(seed: u64, lba: Lba) -> SectorData {
        // SplitMix64-style mix of (seed, lba); avoids 0 for any seed so an
        // image sector is never confused with an uninitialized one.
        let mut z = seed ^ lba.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        SectorData((z ^ (z >> 31)) | 1)
    }

    /// Capacity in sectors.
    pub fn capacity_sectors(&self) -> u64 {
        self.capacity_sectors
    }

    /// Number of sectors holding a written value that is not tracked as a
    /// mirror bit. On a mirror store ([`BlockStore::zeroed_with_mirror`])
    /// an image-matching write is kept as a bit and not counted: it also
    /// drops any earlier value of that sector from the count.
    pub fn written_sectors(&self) -> usize {
        self.written
    }

    /// Splits `lba .. lba + sectors` into page-aligned chunks, calling
    /// `f(page, from, len)` with the page index and the chunk's
    /// page-relative start and length, in ascending order.
    fn for_each_chunk(lba: u64, sectors: u64, mut f: impl FnMut(u64, u64, u64)) {
        let (mut at, end) = (lba, lba + sectors);
        while at < end {
            let (page, from) = (at / PAGE_SECTORS, at % PAGE_SECTORS);
            let len = (PAGE_SECTORS - from).min(end - at);
            f(page, from, len);
            at += len;
        }
    }

    /// The page holding `page`'s written sectors, skipping the lookup
    /// while the store holds no page.
    fn page(&self, page: u64) -> Option<&Page> {
        if self.pages.is_empty() {
            return None;
        }
        self.pages.get(&page).map(|p| &**p)
    }

    /// Sector `i` of page `page`, whose written sectors are `written`.
    fn sector_in(&self, written: Option<&Page>, page: u64, i: u64) -> SectorData {
        if let Some(p) = written.filter(|p| p.present & 1 << i != 0) {
            return p.data[i as usize];
        }
        let lba = Lba(page * PAGE_SECTORS + i);
        match (self.mirror_seed, self.default) {
            (Some(seed), _) if self.mirror_bits[page as usize] & 1 << i != 0 => {
                Self::image_content(seed, lba)
            }
            (_, DefaultContent::Zeroes) => SectorData::ZERO,
            (_, DefaultContent::Image { seed }) => Self::image_content(seed, lba),
        }
    }

    /// Reads one sector.
    ///
    /// # Panics
    ///
    /// Panics if `lba` is beyond the store's capacity.
    pub fn read(&self, lba: Lba) -> SectorData {
        assert!(
            lba.0 < self.capacity_sectors,
            "read past end of store: {lba}"
        );
        let page = lba.0 / PAGE_SECTORS;
        self.sector_in(self.page(page), page, lba.0 % PAGE_SECTORS)
    }

    /// Reads a whole range into a vector.
    pub fn read_range(&self, range: BlockRange) -> Vec<SectorData> {
        let mut out = Vec::new();
        self.read_range_into(range, &mut out);
        out
    }

    /// Appends a whole range to `out`, reusing its allocation — the
    /// copy-light path for callers that recycle buffers or fill one
    /// buffer from several ranges.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the store's capacity.
    pub fn read_range_into(&self, range: BlockRange, out: &mut Vec<SectorData>) {
        let sectors = range.sectors as u64;
        if sectors == 0 {
            return;
        }
        self.check_in_bounds(range, "read");
        out.reserve(range.sectors as usize);
        Self::for_each_chunk(range.lba.0, sectors, |page, from, len| {
            let written = self.page(page);
            // A chunk with no written page and its mirror bits all clear
            // or all set reads as one content generator: zero, or an
            // image's, in one tight loop.
            let mask = page_mask(from, len);
            let mirrored = self.mirror_bits.get(page as usize).map_or(0, |w| w & mask);
            let image = match (written, mirrored, self.default) {
                (None, 0, DefaultContent::Zeroes) => None,
                (None, 0, DefaultContent::Image { seed }) => Some(seed),
                (None, bits, _) if bits == mask => self.mirror_seed,
                _ => {
                    out.extend((from..from + len).map(|i| self.sector_in(written, page, i)));
                    return;
                }
            };
            let first = page * PAGE_SECTORS + from;
            match image {
                None => out.resize(out.len() + len as usize, SectorData::ZERO),
                Some(seed) => {
                    out.extend((first..first + len).map(|l| Self::image_content(seed, Lba(l))))
                }
            }
        });
    }

    /// Panics, naming the first sector past the end, unless `range` fits.
    fn check_in_bounds(&self, range: BlockRange, what: &str) {
        assert!(
            range.end().0 <= self.capacity_sectors,
            "{what} past end of store: {}",
            Lba(range.lba.0.max(self.capacity_sectors))
        );
    }

    /// Writes one sector.
    ///
    /// # Panics
    ///
    /// Panics if `lba` is beyond the store's capacity.
    pub fn write(&mut self, lba: Lba, data: SectorData) {
        self.write_range(BlockRange::new(lba, 1), &[data]);
    }

    /// Writes a range from a slice of sector contents.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != range.sectors` or the range exceeds
    /// capacity.
    pub fn write_range(&mut self, range: BlockRange, data: &[SectorData]) {
        assert_eq!(
            data.len(),
            range.sectors as usize,
            "write_range: data length must match range"
        );
        if data.is_empty() {
            return;
        }
        self.check_in_bounds(range, "write");
        let start = range.lba.0;
        Self::for_each_chunk(start, data.len() as u64, |page, from, len| {
            let at = (page * PAGE_SECTORS + from - start) as usize;
            self.write_chunk(page, from, &data[at..at + len as usize]);
        });
    }

    /// Writes `data` to page `page` from page-relative sector `from`.
    fn write_chunk(&mut self, page: u64, from: u64, data: &[SectorData]) {
        let mask = page_mask(from, data.len() as u64);
        // Sectors that go into the page; the rest become mirror bits.
        let mut kept = mask;
        if let Some(seed) = self.mirror_seed {
            let base = page * PAGE_SECTORS + from;
            let image = data
                .iter()
                .enumerate()
                .filter(|&(k, &d)| d == Self::image_content(seed, Lba(base + k as u64)))
                .fold(0u64, |bits, (k, _)| bits | 1 << (from + k as u64));
            kept &= !image;
            let word = &mut self.mirror_bits[page as usize];
            *word = (*word | image) & !kept;
        }
        if kept == 0 && self.pages.is_empty() {
            return;
        }
        let mut slot = match self.pages.entry(page) {
            Entry::Occupied(slot) => slot,
            Entry::Vacant(slot) if kept != 0 => slot.insert_entry(Box::new(Page {
                present: 0,
                data: [SectorData::ZERO; PAGE_SECTORS as usize],
            })),
            // Image-matching writes to a page without tenant data.
            Entry::Vacant(_) => return,
        };
        let p = slot.get_mut();
        let before = p.present.count_ones() as usize;
        let from = from as usize;
        p.data[from..from + data.len()].copy_from_slice(data);
        p.present = (p.present & !mask) | kept;
        self.written = self.written - before + p.present.count_ones() as usize;
        if p.present == 0 {
            slot.remove();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lba_byte_conversions() {
        assert_eq!(Lba::from_bytes(0), Lba(0));
        assert_eq!(Lba::from_bytes(511), Lba(0));
        assert_eq!(Lba::from_bytes(512), Lba(1));
        assert_eq!(Lba(3).to_bytes(), 1536);
        assert_eq!(Lba(10).distance(Lba(3)), 7);
        assert_eq!(Lba(3).distance(Lba(10)), 7);
    }

    #[test]
    fn range_geometry() {
        let r = BlockRange::new(Lba(8), 4);
        assert_eq!(r.end(), Lba(12));
        assert_eq!(r.bytes(), 2048);
        assert_eq!(r.iter().count(), 4);
        assert!(r.contains(Lba(8)));
        assert!(!r.contains(Lba(12)));
    }

    #[test]
    fn range_overlap() {
        let a = BlockRange::new(Lba(0), 10);
        assert!(a.overlaps(BlockRange::new(Lba(9), 1)));
        assert!(!a.overlaps(BlockRange::new(Lba(10), 1)));
        assert!(BlockRange::new(Lba(5), 1).overlaps(a));
    }

    #[test]
    #[should_panic(expected = "at least one sector")]
    fn empty_range_panics() {
        BlockRange::new(Lba(0), 0);
    }

    #[test]
    fn zeroed_store_reads_zero_until_written() {
        let mut s = BlockStore::zeroed(100);
        assert_eq!(s.read(Lba(99)), SectorData::ZERO);
        s.write(Lba(99), SectorData(7));
        assert_eq!(s.read(Lba(99)), SectorData(7));
        assert_eq!(s.written_sectors(), 1);
    }

    #[test]
    fn image_store_is_deterministic_and_nonzero() {
        let a = BlockStore::image(1000, 0xDEAD);
        let b = BlockStore::image(1000, 0xDEAD);
        for lba in [Lba(0), Lba(1), Lba(999)] {
            assert_eq!(a.read(lba), b.read(lba));
            assert_ne!(a.read(lba), SectorData::ZERO);
        }
        let c = BlockStore::image(1000, 0xBEEF);
        assert_ne!(a.read(Lba(0)), c.read(Lba(0)));
    }

    #[test]
    fn image_writes_override_generator() {
        let mut s = BlockStore::image(10, 1);
        s.write(Lba(3), SectorData(1234));
        assert_eq!(s.read(Lba(3)), SectorData(1234));
        assert_eq!(s.read(Lba(4)), BlockStore::image_content(1, Lba(4)));
    }

    #[test]
    fn range_read_write_round_trip() {
        let mut s = BlockStore::zeroed(64);
        let r = BlockRange::new(Lba(10), 4);
        let data: Vec<SectorData> = (0..4).map(|i| SectorData(100 + i)).collect();
        s.write_range(r, &data);
        assert_eq!(s.read_range(r), data);
    }

    #[test]
    #[should_panic(expected = "past end of store")]
    fn read_past_capacity_panics() {
        BlockStore::zeroed(10).read(Lba(10));
    }

    #[test]
    fn mirror_store_behaves_like_zeroed() {
        let mut plain = BlockStore::zeroed(1000);
        let mut mirrored = BlockStore::zeroed_with_mirror(1000, 0x42);
        assert_eq!(mirrored.read(Lba(5)), SectorData::ZERO);
        // Writing image content is stored compactly but reads back.
        let img = BlockStore::image_content(0x42, Lba(5));
        plain.write(Lba(5), img);
        mirrored.write(Lba(5), img);
        assert_eq!(mirrored.read(Lba(5)), plain.read(Lba(5)));
        assert_eq!(mirrored.written_sectors(), 0, "stored as a bit");
        // Overwriting with different data falls back to the map.
        mirrored.write(Lba(5), SectorData(777));
        assert_eq!(mirrored.read(Lba(5)), SectorData(777));
        assert_eq!(mirrored.written_sectors(), 1);
        // And re-mirroring compacts again.
        mirrored.write(Lba(5), img);
        assert_eq!(mirrored.read(Lba(5)), img);
        assert_eq!(mirrored.written_sectors(), 0);
    }

    #[test]
    fn image_matching_write_drops_an_earlier_tenant_value() {
        let mut s = BlockStore::zeroed_with_mirror(1000, 0x42);
        // Tenant data straddling the first page boundary.
        s.write_range(BlockRange::new(Lba(60), 8), &[SectorData(9); 8]);
        assert_eq!(s.written_sectors(), 8);
        // Writing the image's content over one of them keeps a mirror
        // bit instead, and the tenant value leaves the count.
        let img = BlockStore::image_content(0x42, Lba(62));
        s.write(Lba(62), img);
        assert_eq!(s.read(Lba(62)), img);
        assert_eq!(s.read(Lba(63)), SectorData(9));
        assert_eq!(s.written_sectors(), 7);
        // Mirroring the rest of the first page empties it; the second
        // page keeps its four tenant sectors.
        for l in [60, 61, 63] {
            s.write(Lba(l), BlockStore::image_content(0x42, Lba(l)));
        }
        assert_eq!(s.written_sectors(), 4);
        assert_eq!(
            s.read_range(BlockRange::new(Lba(64), 4)),
            vec![SectorData(9); 4]
        );
    }

    #[test]
    fn capacity_accessors() {
        let s = BlockStore::zeroed(2048);
        assert_eq!(s.capacity_sectors(), 2048);
    }
}
