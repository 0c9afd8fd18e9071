//! AoE wire format: PDU encode/decode and fragmentation tags.
//!
//! The PDU layout follows the AoE specification: a 10-byte AoE header
//! (after the Ethernet header, which [`hwsim::eth`] models separately)
//! followed by a 12-byte ATA argument section and the sector payload.
//! Sector *contents* in the simulation are 64-bit fingerprints; on the
//! wire each sector is carried as its fingerprint in the first 8 bytes of
//! a 512-byte unit, so encoded sizes are exactly what real AoE would put
//! on the fabric.
//!
//! # Frame layout
//!
//! One table for the whole header, including every formerly-reserved
//! field this codebase has repurposed (they accreted across versions and
//! their docs had drifted apart):
//!
//! | Bytes | Field            | Meaning                                                        |
//! |-------|------------------|----------------------------------------------------------------|
//! | 0     | flags/version    | `ver << 4 \| R (0x08, response) \| E (0x04, error)`            |
//! | 1     | error            | AoE error code, valid when E is set                            |
//! | 2–3   | shelf            | Major address, big-endian                                      |
//! | 4     | slot             | Minor address                                                  |
//! | 5     | command          | 0 = ATA (the only command BMcast uses)                         |
//! | 6–9   | tag              | Big-endian; `request_id (20 bits) << 12 \| fragment (12 bits)` |
//! | 10    | aflags           | bit 0 write, bit 1 sprint (completion priority, requests only), bit 2 rdma lane |
//! | 11    | err/feature      | bit 0 server-busy hint (responses only)                        |
//! | 12–15 | sector count     | Big-endian; for v3 the *total* across the range table          |
//! | 16–21 | lba              | 48-bit big-endian; for v3 the first run's LBA                  |
//! | 22–23 | checksum         | Former reserved trailer: folded FNV-1a 64 over the frame with these two bytes zeroed |
//! | 24–   | payload          | v2: 512-byte sector units; v3: the range table (below)         |
//!
//! Version history of the repurposed fields: **v2** turned the two
//! reserved trailer bytes (22–23) into the frame checksum, put the
//! server-busy hint in the spare err/feature byte (11), and claimed
//! aflags bit 1 for the completion-priority (sprint) hint. Version-1
//! frames (none of the above) are rejected as
//! [`DecodeError::BadVersion`].
//!
//! # Version 3: multi-range (batched) read requests
//!
//! A v3 frame is a *read request* carrying a table of block runs instead
//! of sector payload, so one frame can ask for many coalesced
//! dirty/missing runs at once (the batched transport). The payload is:
//!
//! | Bytes          | Field     | Meaning                              |
//! |----------------|-----------|--------------------------------------|
//! | 24–25          | run count | Big-endian, ≥ 1                      |
//! | 26 + 10·i …    | run *i*   | 48-bit big-endian LBA (6 bytes) then big-endian sector count (4 bytes) |
//!
//! The header's sector count holds the total across all runs and the
//! header LBA holds the first run's LBA (the canonical form; decode
//! rejects frames where they disagree with the table). The table is
//! checksummed with the rest of the frame.
//!
//! ## Version negotiation
//!
//! * Requests: v2 single-range always works; a client configured for the
//!   batched or RDMA transport may send v3 multi-range *reads*. Writes
//!   and responses are always v2 — a v3 frame with the write aflag is
//!   rejected as [`DecodeError::BadRangeTable`].
//! * Responses: servers answer v3 reads with ordinary v2 response
//!   fragments whose fragment indices run globally across the run table
//!   in order, so the client's reassembly path is version-blind.
//! * The rdma aflag (bit 2) may ride on v2 or v3 requests; servers echo
//!   it on every response fragment so the fabric can route the reply
//!   burst over the IB lane with a cheap peek ([`peek_rdma`]).
//! * v1 (no checksum) and unknown versions are rejected as
//!   [`DecodeError::BadVersion`] and dropped by the routing peek.

use hwsim::block::{BlockRange, Lba, SectorData, SECTOR_SIZE};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// An encoded frame, shared and immutable.
///
/// Frames fan out along the data path — held pending for
/// retransmission, queued on NIC rings, scheduled across the fabric —
/// and the `Arc` inside makes every one of those hand-offs a
/// reference-count bump instead of a payload copy.
///
/// A frame has one of two forms; both stand for the same byte image:
/// - a *sector frame* holds the 24-byte header and one fingerprint per
///   512-byte sector unit. Its byte image is the header followed, for
///   each sector, by the fingerprint big-endian and 504 zero bytes.
///   [`AoePdu::into_frame`] and [`AoePdu::encode_frame`] build one for
///   every v2 frame that carries data (read replies and write requests),
///   so the padding is never written, hashed or scanned, and its
///   checksum is summed only when the byte image is asked for
///   ([`head`](Self::head), [`to_vec`](Self::to_vec));
/// - a *byte frame* holds the image itself: header-only frames, v3
///   range tables, and anything made from raw bytes (`From<Vec<u8>>`),
///   such as a frame corrupted in flight.
///
/// [`len`](Self::len) is the image's length, the frame's wire size.
/// Nothing mutates a frame in place: a change goes through
/// [`to_vec`](Self::to_vec) and back through `into()`, which yields a
/// byte frame that [`AoePdu::decode_frame`] checks byte by byte.
#[derive(Debug, Clone)]
pub struct FrameBytes(Repr);

#[derive(Debug, Clone)]
enum Repr {
    Sectors(Arc<SectorFrame>),
    Bytes(Arc<[u8]>),
}

/// Built only by the encoders and never mutated after, so its units are
/// the ones it was built from: [`AoePdu::decode_frame`] has no sum to
/// check, and the sum is taken only for a byte image.
#[derive(Debug)]
struct SectorFrame {
    /// The header, checksum field zero.
    head: [u8; HEAD],
    /// One fingerprint per sector unit, in order: the encoded PDU's
    /// data, moved in (the server's `read_range` result, say).
    units: Vec<SectorData>,
}

impl SectorFrame {
    /// The PDU of `head`, with no sum to check and no data yet.
    fn head_pdu(&self) -> Result<AoePdu, DecodeError> {
        let (_, pdu) = AoePdu::decode_head(&self.head, None::<fn() -> u16>)?;
        Ok(pdu)
    }

    /// The header of the byte image: `head` with its checksum summed.
    fn summed_head(&self) -> [u8; HEAD] {
        let mut head = self.head;
        let sum = fold16(self.units.iter().fold(head_hash(&head), unit_hash));
        head[CHECKSUM_OFFSET..].copy_from_slice(&sum.to_be_bytes());
        head
    }
}

impl FrameBytes {
    /// Length of the frame's byte image: its size on the wire.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Sectors(f) => HEAD + f.units.len() * SECTOR_SIZE as usize,
            Repr::Bytes(b) => b.len(),
        }
    }

    /// Whether the byte image is empty (only a raw byte frame can be).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The first [`AOE_HEADER_BYTES`] bytes of the image (all of it when
    /// shorter). A sector frame sums its checksum for this.
    pub fn head(&self) -> Cow<'_, [u8]> {
        match &self.0 {
            Repr::Sectors(f) => Cow::Owned(f.summed_head().to_vec()),
            Repr::Bytes(_) => Cow::Borrowed(self.peek_head()),
        }
    }

    /// [`head`](Self::head) with no sum taken: a sector frame's checksum
    /// field reads zero. What the routing peeks [`peek_shelf_slot`] and
    /// [`peek_rdma`] read, since no field they read is the checksum.
    pub fn peek_head(&self) -> &[u8] {
        match &self.0 {
            Repr::Sectors(f) => &f.head,
            Repr::Bytes(b) => &b[..b.len().min(HEAD)],
        }
    }

    /// A sector frame's fingerprints, one per 512-byte unit; `None` for
    /// a byte frame.
    pub fn sectors(&self) -> Option<&[SectorData]> {
        match &self.0 {
            Repr::Sectors(f) => Some(&f.units),
            Repr::Bytes(_) => None,
        }
    }

    /// Whether `a` and `b` share one allocation (one is a clone of the
    /// other), as [`Arc::ptr_eq`].
    pub fn ptr_eq(a: &FrameBytes, b: &FrameBytes) -> bool {
        match (&a.0, &b.0) {
            (Repr::Sectors(a), Repr::Sectors(b)) => Arc::ptr_eq(a, b),
            (Repr::Bytes(a), Repr::Bytes(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// The frame's full byte image.
    pub fn to_vec(&self) -> Vec<u8> {
        match &self.0 {
            Repr::Sectors(f) => {
                let mut out = vec![0; self.len()];
                out[..HEAD].copy_from_slice(&f.summed_head());
                put_units(&mut out[HEAD..], &f.units);
                out
            }
            Repr::Bytes(b) => b.to_vec(),
        }
    }
}

/// Frames are equal when their byte images are, whatever their forms.
impl PartialEq for FrameBytes {
    fn eq(&self, other: &FrameBytes) -> bool {
        self.len() == other.len() && self.to_vec() == other.to_vec()
    }
}

impl Eq for FrameBytes {}

impl From<Vec<u8>> for FrameBytes {
    /// A byte frame holding `bytes` as they are.
    fn from(bytes: Vec<u8>) -> FrameBytes {
        FrameBytes(Repr::Bytes(bytes.into()))
    }
}

/// A received frame in either form the endpoints take: a shared
/// [`FrameBytes`] off the fabric, or the dense bytes of a caller that
/// encoded with [`AoePdu::encode`]; by value or by reference.
pub trait WireFrame {
    /// Decodes the PDU the frame carries.
    ///
    /// # Errors
    ///
    /// As [`AoePdu::decode`].
    fn decode_pdu(&self) -> Result<AoePdu, DecodeError>;

    /// Decodes, taking the frame: a sector frame held nowhere else moves
    /// its data into the PDU; any other frame decodes as
    /// [`decode_pdu`](Self::decode_pdu).
    ///
    /// # Errors
    ///
    /// As [`AoePdu::decode`].
    fn into_pdu(self) -> Result<AoePdu, DecodeError>
    where
        Self: Sized,
    {
        self.decode_pdu()
    }
}

impl<T: WireFrame + ?Sized> WireFrame for &T {
    fn decode_pdu(&self) -> Result<AoePdu, DecodeError> {
        (**self).decode_pdu()
    }
}

impl WireFrame for FrameBytes {
    fn decode_pdu(&self) -> Result<AoePdu, DecodeError> {
        AoePdu::decode_frame(self)
    }

    fn into_pdu(self) -> Result<AoePdu, DecodeError> {
        match self.0 {
            Repr::Bytes(bytes) => AoePdu::decode(&bytes),
            Repr::Sectors(f) => {
                let mut pdu = f.head_pdu()?;
                pdu.data = Some(Arc::try_unwrap(f).map_or_else(|f| f.units.clone(), |f| f.units));
                Ok(pdu)
            }
        }
    }
}

impl WireFrame for [u8] {
    fn decode_pdu(&self) -> Result<AoePdu, DecodeError> {
        AoePdu::decode(self)
    }
}

impl WireFrame for Vec<u8> {
    fn decode_pdu(&self) -> Result<AoePdu, DecodeError> {
        AoePdu::decode(self)
    }
}

/// AoE + ATA-argument header size in bytes (excludes the Ethernet header).
pub const AOE_HEADER_BYTES: u32 = 24;

/// [`AOE_HEADER_BYTES`] as an index.
const HEAD: usize = AOE_HEADER_BYTES as usize;

/// AoE protocol version carried in every PDU. Version 2 adds the frame
/// checksum in the former reserved bytes; older frames are rejected.
pub const AOE_VERSION: u8 = 2;

/// Version of multi-range (batched) read requests: the payload is a
/// range table rather than sector data. Responses are always plain v2.
pub const AOE_VERSION_BATCH: u8 = 3;

/// Bytes per entry in a v3 range table: 48-bit LBA + 32-bit sectors.
const RANGE_ENTRY_BYTES: usize = 10;

/// Byte offset of the 16-bit frame checksum within the header.
const CHECKSUM_OFFSET: usize = 22;

/// FNV-1a 64 offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64 prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Longest run of zero words one table lookup folds: 63 words is the
/// padding of one 512-byte sector unit after its fingerprint.
const ZERO_RUN_MAX: usize = 63;

/// `ZERO_RUN_MUL[k]` is P^(8k) mod 2^64 for the FNV prime P: the whole
/// effect of FNV-1a over `8k` zero bytes. One step over a zero byte is
/// `(h ^ 0)·P = h·P`, and wrapping multiplication is associative, so
/// `8k` steps equal one multiply by P^(8k).
const ZERO_RUN_MUL: [u64; ZERO_RUN_MAX + 1] = {
    let mut t = [1u64; ZERO_RUN_MAX + 1];
    let mut k = 1;
    while k <= ZERO_RUN_MAX {
        let mut p = t[k - 1];
        let mut i = 0;
        while i < 8 {
            p = p.wrapping_mul(FNV_PRIME);
            i += 1;
        }
        t[k] = p;
        k += 1;
    }
    t
};

/// FNV-1a 64 steps over `bytes`, one byte at a time.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a 64 steps over `words` zero words (8 bytes each).
fn fnv1a_zero_words(mut h: u64, mut words: usize) -> u64 {
    while words > ZERO_RUN_MAX {
        h = h.wrapping_mul(ZERO_RUN_MUL[ZERO_RUN_MAX]);
        words -= ZERO_RUN_MAX;
    }
    h.wrapping_mul(ZERO_RUN_MUL[words])
}

/// One 8-byte word of the checksum walk: a zero word only extends the
/// pending run; any other word first folds the run, then hashes its
/// bytes.
fn fnv1a_word(h: u64, zero_words: &mut usize, w: &[u8]) -> u64 {
    if w == [0; 8] {
        *zero_words += 1;
        h
    } else {
        fnv1a(fnv1a_zero_words(h, std::mem::take(zero_words)), w)
    }
}

/// The 16-bit frame checksum: FNV-1a 64 over the whole frame with the
/// checksum field treated as zero, folded to 16 bits. Strong enough to
/// catch injected bit flips deterministically.
///
/// The bytes after the header are walked as 8-byte words (all-zero
/// 64-byte blocks in one test), and each run of zero words (the padding
/// of every sector unit) folds into one multiply from `ZERO_RUN_MUL`.
/// The result equals the byte-serial hash on every input, so host cost
/// scales with the bytes that carry data while the wire format is
/// unchanged.
pub fn frame_checksum(bytes: &[u8]) -> u16 {
    let (head, body) = bytes.split_at(bytes.len().min(HEAD));
    let mut h = head_hash(head);
    let mut zero_words = 0;
    let mut blocks = body.chunks_exact(64);
    for block in &mut blocks {
        let any = block
            .chunks_exact(8)
            .fold(0, |acc, w| acc | u64::from_ne_bytes(w.try_into().unwrap()));
        if any == 0 {
            zero_words += 8;
        } else {
            for w in block.chunks_exact(8) {
                h = fnv1a_word(h, &mut zero_words, w);
            }
        }
    }
    let mut words = blocks.remainder().chunks_exact(8);
    for w in &mut words {
        h = fnv1a_word(h, &mut zero_words, w);
    }
    fold16(fnv1a(fnv1a_zero_words(h, zero_words), words.remainder()))
}

/// FNV-1a 64 steps over one sector unit: the fingerprint's 8 bytes,
/// then one multiply for the 63 zero words of padding.
fn unit_hash(h: u64, s: &SectorData) -> u64 {
    fnv1a(h, &s.0.to_be_bytes()).wrapping_mul(ZERO_RUN_MUL[ZERO_RUN_MAX])
}

/// FNV-1a 64 from the offset basis over the header bytes, the checksum
/// field hashed as zero.
fn head_hash(head: &[u8]) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, &head[..head.len().min(CHECKSUM_OFFSET)]);
    for _ in CHECKSUM_OFFSET..head.len() {
        h = h.wrapping_mul(FNV_PRIME); // checksum bytes hash as zero
    }
    h
}

/// Folds the 64-bit hash to the 16-bit checksum field.
fn fold16(h: u64) -> u16 {
    (h ^ (h >> 16) ^ (h >> 32) ^ (h >> 48)) as u16
}

/// Writes each fingerprint big-endian into the first 8 bytes of its
/// 512-byte unit of `payload`, a zero-filled buffer.
fn put_units(payload: &mut [u8], units: &[SectorData]) {
    for (s, unit) in units
        .iter()
        .zip(payload.chunks_exact_mut(SECTOR_SIZE as usize))
    {
        unit[..8].copy_from_slice(&s.0.to_be_bytes());
    }
}

/// A fragmentation-aware tag: `(request id, fragment index)` packed into
/// the 32-bit AoE tag field — the paper's extension ("the VMM sets the tag
/// field in an AoE header to determine the offset of a received
/// fragment").
///
/// # Examples
///
/// ```
/// use aoe::wire::Tag;
/// let t = Tag::new(7, 3);
/// assert_eq!(t.request_id(), 7);
/// assert_eq!(t.fragment(), 3);
/// assert_eq!(Tag::from_raw(t.raw()), t);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tag(u32);

impl Tag {
    /// Maximum request id (20 bits).
    pub const MAX_REQUEST_ID: u32 = (1 << 20) - 1;
    /// Maximum fragment index (12 bits).
    pub const MAX_FRAGMENT: u32 = (1 << 12) - 1;

    /// Packs a request id and fragment index.
    ///
    /// # Panics
    ///
    /// Panics if either field exceeds its width.
    pub fn new(request_id: u32, fragment: u32) -> Tag {
        assert!(request_id <= Self::MAX_REQUEST_ID, "request id too large");
        assert!(fragment <= Self::MAX_FRAGMENT, "fragment index too large");
        Tag((request_id << 12) | fragment)
    }

    /// Reconstructs a tag from its raw field value.
    pub fn from_raw(raw: u32) -> Tag {
        Tag(raw)
    }

    /// The raw 32-bit field value.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// The request id.
    pub fn request_id(self) -> u32 {
        self.0 >> 12
    }

    /// The fragment index within the request.
    pub fn fragment(self) -> u32 {
        self.0 & 0xFFF
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req {} frag {}", self.request_id(), self.fragment())
    }
}

/// AoE command codes (subset: ATA is all BMcast needs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AoeCommand {
    /// Issue an ATA command (command code 0).
    Ata,
}

/// A decoded AoE protocol data unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AoePdu {
    /// True for responses (the R flag).
    pub response: bool,
    /// Error flag (the E flag); set with `error` code.
    pub error: Option<u8>,
    /// Shelf address (major).
    pub shelf: u16,
    /// Slot address (minor).
    pub slot: u8,
    /// Fragmentation tag.
    pub tag: Tag,
    /// True for writes (device receives data), false for reads.
    pub write: bool,
    /// Completion-priority hint on requests (aflags bit 1): the sender's
    /// deployment bitmap is nearly full and finishing it converts the
    /// machine into a serving peer, so the server may weight this
    /// client's scheduling quantum up. Never set on responses.
    pub sprint: bool,
    /// Server-busy hint piggybacked on responses (spare err/feature
    /// byte): the server is congested and elastic traffic — the
    /// background copy — should back off. Never set on requests.
    pub busy: bool,
    /// RDMA-lane flag (aflags bit 2): the request asks for one-sided
    /// service priced by the IB fabric rather than the server's worker
    /// pool, and the server echoes the flag on every response fragment
    /// so the fabric routes the reply burst over the IB lane.
    pub rdma: bool,
    /// Target sectors. For a response fragment this is the fragment's own
    /// span, not the whole request's; for a v3 multi-range request it is
    /// the canonical cover (first run's LBA, total sectors).
    pub range: BlockRange,
    /// The v3 range table: the block runs a multi-range read requests,
    /// in table order. Empty for every v2 frame.
    pub ranges: Vec<BlockRange>,
    /// Sector payload: present on write requests and read responses.
    pub data: Option<Vec<SectorData>>,
}

impl AoePdu {
    /// A read request for `range`.
    pub fn read_request(shelf: u16, slot: u8, tag: Tag, range: BlockRange) -> AoePdu {
        AoePdu {
            response: false,
            error: None,
            shelf,
            slot,
            tag,
            write: false,
            sprint: false,
            busy: false,
            rdma: false,
            range,
            ranges: Vec::new(),
            data: None,
        }
    }

    /// A v3 multi-range read request for `runs` (the batched transport).
    /// The header range is the canonical cover: first run's LBA, total
    /// sectors across the table.
    ///
    /// # Panics
    ///
    /// Panics if `runs` is empty, holds a zero-sector run, or exceeds
    /// the 16-bit table count.
    pub fn read_multi_request(shelf: u16, slot: u8, tag: Tag, runs: Vec<BlockRange>) -> AoePdu {
        assert!(!runs.is_empty(), "multi-range read needs at least one run");
        assert!(
            runs.len() <= u16::MAX as usize,
            "range table count overflow"
        );
        let total: u32 = runs
            .iter()
            .map(|r| {
                assert!(r.sectors > 0, "zero-sector run");
                r.sectors
            })
            .sum();
        AoePdu {
            response: false,
            error: None,
            shelf,
            slot,
            tag,
            write: false,
            sprint: false,
            busy: false,
            rdma: false,
            range: BlockRange::new(runs[0].lba, total),
            ranges: runs,
            data: None,
        }
    }

    /// A write request carrying `data` for `range`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != range.sectors`.
    pub fn write_request(
        shelf: u16,
        slot: u8,
        tag: Tag,
        range: BlockRange,
        data: Vec<SectorData>,
    ) -> AoePdu {
        assert_eq!(data.len(), range.sectors as usize, "payload/range mismatch");
        AoePdu {
            response: false,
            error: None,
            shelf,
            slot,
            tag,
            write: true,
            sprint: false,
            busy: false,
            rdma: false,
            range,
            ranges: Vec::new(),
            data: Some(data),
        }
    }

    /// Encoded size in bytes (header + payload).
    pub fn encoded_len(&self) -> u32 {
        let payload = if self.ranges.is_empty() {
            self.data
                .as_ref()
                .map(|d| d.len() as u32 * SECTOR_SIZE as u32)
                .unwrap_or(0)
        } else {
            2 + RANGE_ENTRY_BYTES as u32 * self.ranges.len() as u32
        };
        AOE_HEADER_BYTES + payload
    }

    /// Encodes to bytes: the dense byte image, every padding byte
    /// written and checksummed.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![0; self.encoded_len() as usize];
        out[..HEAD].copy_from_slice(&self.encode_head());
        let payload = &mut out[HEAD..];
        if !self.ranges.is_empty() {
            // v3 payload: the range table.
            debug_assert!(self.data.is_none(), "multi-range frames carry no sectors");
            payload[..2].copy_from_slice(&(self.ranges.len() as u16).to_be_bytes());
            for (r, entry) in self
                .ranges
                .iter()
                .zip(payload[2..].chunks_exact_mut(RANGE_ENTRY_BYTES))
            {
                entry[..6].copy_from_slice(&r.lba.0.to_be_bytes()[2..8]);
                entry[6..].copy_from_slice(&r.sectors.to_be_bytes());
            }
        } else if let Some(data) = &self.data {
            // v2 payload: one 512-byte unit per sector, fingerprint in
            // the first 8 bytes, remainder zero.
            put_units(payload, data);
        }
        let sum = frame_checksum(&out);
        out[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 2].copy_from_slice(&sum.to_be_bytes());
        out
    }

    /// Encodes to a shared frame, ready to be held pending and put on
    /// the wire without further copies: [`into_frame`](Self::into_frame)
    /// with a copy of this PDU's data.
    pub fn encode_frame(&self) -> FrameBytes {
        match &self.data {
            Some(units) if self.is_sector_frame(units) => self.sector_frame(units.clone()),
            _ => self.encode().into(),
        }
    }

    /// Encodes to a shared frame, taking the PDU. A v2 frame carrying
    /// data becomes a sector frame: the header and the data, moved in,
    /// with no sum taken (a server's reply burst or a client's write
    /// fragments cost one allocation per frame). Any other frame is a
    /// byte frame of [`encode`](Self::encode)'s bytes. Either way
    /// [`FrameBytes::to_vec`] equals [`encode`](Self::encode).
    ///
    /// # Examples
    ///
    /// ```
    /// use aoe::wire::{AoePdu, Tag};
    /// use hwsim::block::{BlockRange, Lba, SectorData};
    ///
    /// let range = BlockRange::new(Lba(17), 17);
    /// let pdu = AoePdu::write_request(0, 0, Tag::new(1, 1), range, vec![SectorData(5); 17]);
    /// let frame = pdu.clone().into_frame();
    /// assert_eq!(frame.sectors(), pdu.data.as_deref());
    /// assert_eq!(frame.to_vec(), pdu.encode());
    /// ```
    pub fn into_frame(mut self) -> FrameBytes {
        match self.data.take() {
            Some(units) if self.is_sector_frame(&units) => self.sector_frame(units),
            data => {
                self.data = data;
                self.encode().into()
            }
        }
    }

    /// Whether this PDU with `units` as its data is a sector frame: v2,
    /// carrying at least one sector.
    fn is_sector_frame(&self, units: &[SectorData]) -> bool {
        self.ranges.is_empty() && !units.is_empty()
    }

    /// The sector frame of this PDU's header and `units`.
    fn sector_frame(&self, units: Vec<SectorData>) -> FrameBytes {
        let head = self.encode_head();
        FrameBytes(Repr::Sectors(Arc::new(SectorFrame { head, units })))
    }

    /// The 24-byte header with the checksum field zero: the one header
    /// encoder both frame forms share.
    fn encode_head(&self) -> [u8; HEAD] {
        let mut out = [0; HEAD];
        let ver = if self.ranges.is_empty() {
            AOE_VERSION
        } else {
            AOE_VERSION_BATCH
        };
        out[0] = ver << 4
            | if self.response { 0x08 } else { 0 }
            | if self.error.is_some() { 0x04 } else { 0 };
        out[1] = self.error.unwrap_or(0);
        out[2..4].copy_from_slice(&self.shelf.to_be_bytes());
        out[4] = self.slot;
        // Byte 5, command: 0 = ATA.
        out[6..10].copy_from_slice(&self.tag.raw().to_be_bytes());
        // ATA argument section.
        // aflags: bit 0 direction, bit 1 completion-priority (sprint),
        // bit 2 rdma lane.
        out[10] = if self.write { 0x01 } else { 0x00 }
            | if self.sprint { 0x02 } else { 0x00 }
            | if self.rdma { 0x04 } else { 0x00 };
        out[11] = if self.busy { 0x01 } else { 0x00 }; // err/feature: busy hint
        out[12..16].copy_from_slice(&self.range.sectors.to_be_bytes());
        out[16..22].copy_from_slice(&self.range.lba.0.to_be_bytes()[2..8]); // 48-bit LBA
        out
    }

    /// Decodes a PDU from bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on short input, a bad version, a checksum
    /// mismatch, an empty range, a payload that is not a whole number of
    /// sectors, or a malformed v3 range table.
    pub fn decode(bytes: &[u8]) -> Result<AoePdu, DecodeError> {
        if bytes.len() < HEAD {
            return Err(DecodeError::Truncated {
                got: bytes.len(),
                need: HEAD,
            });
        }
        let (ver, mut pdu) = Self::decode_head(&bytes[..HEAD], Some(|| frame_checksum(bytes)))?;
        let payload = &bytes[HEAD..];
        if ver == AOE_VERSION_BATCH {
            pdu.ranges = Self::decode_range_table(pdu.write, pdu.range, payload)?;
        } else if !payload.is_empty() {
            if !payload.len().is_multiple_of(SECTOR_SIZE as usize) {
                return Err(DecodeError::RaggedPayload(payload.len()));
            }
            pdu.data = Some(
                payload
                    .chunks_exact(SECTOR_SIZE as usize)
                    .map(|c| SectorData(u64::from_be_bytes(c[..8].try_into().unwrap())))
                    .collect(),
            );
        }
        Ok(pdu)
    }

    /// Decodes a shared frame, copying a sector frame's data
    /// ([`WireFrame::into_pdu`] moves it). A sector frame's fingerprints
    /// are read in O(sectors), with no byte scan and no sum: its units
    /// are the ones it was built from. A byte frame goes through
    /// [`decode`](Self::decode), every byte summed. The result equals
    /// `decode(&frame.to_vec())` on every frame.
    ///
    /// # Errors
    ///
    /// As [`decode`](Self::decode).
    pub fn decode_frame(frame: &FrameBytes) -> Result<AoePdu, DecodeError> {
        match &frame.0 {
            Repr::Bytes(bytes) => Self::decode(bytes),
            Repr::Sectors(f) => {
                let mut pdu = f.head_pdu()?;
                pdu.data = Some(f.units.clone());
                Ok(pdu)
            }
        }
    }

    /// Parses the 24-byte header: the version, then the carried checksum
    /// against `checksum()` (the sum of the whole byte image; `None` for
    /// a sector frame, which carries no sum), then the fields. The one
    /// header parser both frame forms share. Returns the version and the
    /// PDU without payload.
    fn decode_head(
        head: &[u8],
        checksum: Option<impl FnOnce() -> u16>,
    ) -> Result<(u8, AoePdu), DecodeError> {
        let ver = head[0] >> 4;
        if ver != AOE_VERSION && ver != AOE_VERSION_BATCH {
            return Err(DecodeError::BadVersion(ver));
        }
        let want = u16::from_be_bytes([head[CHECKSUM_OFFSET], head[CHECKSUM_OFFSET + 1]]);
        if let Some(got) = checksum.map(|sum| sum()) {
            if got != want {
                return Err(DecodeError::BadChecksum { got, want });
            }
        }
        let sectors = u32::from_be_bytes([head[12], head[13], head[14], head[15]]);
        if sectors == 0 {
            return Err(DecodeError::EmptyRange);
        }
        let mut lba_bytes = [0u8; 8];
        lba_bytes[2..8].copy_from_slice(&head[16..22]);
        let pdu = AoePdu {
            response: head[0] & 0x08 != 0,
            error: (head[0] & 0x04 != 0).then_some(head[1]),
            shelf: u16::from_be_bytes([head[2], head[3]]),
            slot: head[4],
            tag: Tag::from_raw(u32::from_be_bytes([head[6], head[7], head[8], head[9]])),
            write: head[10] & 0x01 != 0,
            sprint: head[10] & 0x02 != 0,
            busy: head[11] & 0x01 != 0,
            rdma: head[10] & 0x04 != 0,
            range: BlockRange::new(Lba(u64::from_be_bytes(lba_bytes)), sectors),
            ranges: Vec::new(),
            data: None,
        };
        Ok((ver, pdu))
    }

    /// Parses and validates a v3 range table against the header's
    /// canonical cover. Total — every malformation is a
    /// [`DecodeError::BadRangeTable`], never a panic.
    fn decode_range_table(
        write: bool,
        cover: BlockRange,
        payload: &[u8],
    ) -> Result<Vec<BlockRange>, DecodeError> {
        // Multi-range applies to reads only (negotiation rule): batched
        // snapback coalesces into single-range v2 writes instead.
        if write || payload.len() < 2 {
            return Err(DecodeError::BadRangeTable(payload.len()));
        }
        let count = u16::from_be_bytes([payload[0], payload[1]]) as usize;
        if count == 0 || payload.len() != 2 + count * RANGE_ENTRY_BYTES {
            return Err(DecodeError::BadRangeTable(payload.len()));
        }
        let mut runs = Vec::with_capacity(count);
        let mut total: u64 = 0;
        for entry in payload[2..].chunks_exact(RANGE_ENTRY_BYTES) {
            let mut lba_bytes = [0u8; 8];
            lba_bytes[2..8].copy_from_slice(&entry[..6]);
            let sectors = u32::from_be_bytes([entry[6], entry[7], entry[8], entry[9]]);
            if sectors == 0 {
                return Err(DecodeError::BadRangeTable(payload.len()));
            }
            total += sectors as u64;
            runs.push(BlockRange::new(Lba(u64::from_be_bytes(lba_bytes)), sectors));
        }
        // The header must carry the canonical cover, so there is exactly
        // one encoding of a given run set and decode→encode is a
        // byte-level fixpoint.
        if total != cover.sectors as u64 || runs[0].lba != cover.lba {
            return Err(DecodeError::BadRangeTable(payload.len()));
        }
        Ok(runs)
    }
}

/// Reads the shelf/slot address out of an encoded frame without a full
/// decode — the fabric's routing peek. Returns `None` when the frame is
/// shorter than the fixed header or carries an unknown version; checksum
/// validation is left to the addressed server's real decode.
pub fn peek_shelf_slot(bytes: &[u8]) -> Option<(u16, u8)> {
    if bytes.len() < HEAD {
        return None;
    }
    let ver = bytes[0] >> 4;
    if ver != AOE_VERSION && ver != AOE_VERSION_BATCH {
        return None;
    }
    Some((u16::from_be_bytes([bytes[2], bytes[3]]), bytes[4]))
}

/// Reads the rdma-lane aflag out of an encoded frame without a full
/// decode — the fabric's lane peek for routing RDMA reply bursts past
/// the Ethernet egress queue. Unknown versions and short frames answer
/// `false` (they are not RDMA traffic, whatever else they are).
pub fn peek_rdma(bytes: &[u8]) -> bool {
    peek_shelf_slot(bytes).is_some() && bytes[10] & 0x04 != 0
}

/// Errors from [`AoePdu::decode`] and [`AoePdu::decode_frame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Input shorter than the fixed header.
    Truncated {
        /// Bytes available.
        got: usize,
        /// Bytes required.
        need: usize,
    },
    /// Unknown protocol version.
    BadVersion(u8),
    /// Frame checksum mismatch (corruption in flight).
    BadChecksum {
        /// Checksum computed over the received bytes.
        got: u16,
        /// Checksum carried in the frame.
        want: u16,
    },
    /// Sector count of zero.
    EmptyRange,
    /// Payload not a whole number of sectors.
    RaggedPayload(usize),
    /// v3 range table malformed: wrong payload length for its count,
    /// zero runs, a zero-sector run, a header cover disagreeing with
    /// the table, or the write aflag on a multi-range frame. Carries
    /// the payload length.
    BadRangeTable(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { got, need } => {
                write!(f, "truncated pdu: {got} bytes, need {need}")
            }
            DecodeError::BadVersion(v) => write!(f, "unsupported aoe version {v}"),
            DecodeError::BadChecksum { got, want } => {
                write!(
                    f,
                    "frame checksum mismatch: got {got:#06x}, want {want:#06x}"
                )
            }
            DecodeError::EmptyRange => write!(f, "sector count of zero"),
            DecodeError::RaggedPayload(n) => {
                write!(f, "payload of {n} bytes is not sector-aligned")
            }
            DecodeError::BadRangeTable(n) => {
                write!(f, "malformed multi-range table ({n} payload bytes)")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// The fragment subranges of a reply burst over `runs` at `spf`
/// sectors per frame, in fragment order: each run fragments
/// independently and the indices run across the whole table. How a
/// server numbers a (batched) reply burst, and how a client numbers its
/// reassembly slots.
pub fn fragment_subranges(runs: &[BlockRange], spf: u32) -> impl Iterator<Item = BlockRange> + '_ {
    runs.iter().flat_map(move |r| {
        (0..r.sectors.div_ceil(spf)).map(move |i| {
            let offset = i * spf;
            BlockRange::new(r.lba + offset as u64, spf.min(r.sectors - offset))
        })
    })
}

/// How many sectors fit in one response frame at the given MTU.
///
/// # Panics
///
/// Panics if the MTU cannot fit the header plus one sector.
pub fn sectors_per_frame(mtu: u32) -> u32 {
    let n = (mtu.saturating_sub(AOE_HEADER_BYTES)) / SECTOR_SIZE as u32;
    assert!(n > 0, "mtu {mtu} cannot carry even one sector");
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_packing_round_trips() {
        for (req, frag) in [(0, 0), (1, 5), (Tag::MAX_REQUEST_ID, Tag::MAX_FRAGMENT)] {
            let t = Tag::new(req, frag);
            assert_eq!(t.request_id(), req);
            assert_eq!(t.fragment(), frag);
            assert_eq!(Tag::from_raw(t.raw()), t);
        }
    }

    #[test]
    #[should_panic(expected = "request id too large")]
    fn oversized_request_id_panics() {
        Tag::new(Tag::MAX_REQUEST_ID + 1, 0);
    }

    #[test]
    fn read_request_round_trips() {
        let pdu = AoePdu::read_request(3, 1, Tag::new(42, 0), BlockRange::new(Lba(0xABCDEF), 16));
        let bytes = pdu.encode();
        assert_eq!(bytes.len() as u32, AOE_HEADER_BYTES);
        assert_eq!(AoePdu::decode(&bytes).unwrap(), pdu);
    }

    #[test]
    fn busy_hint_round_trips_and_is_checksummed() {
        let mut pdu = AoePdu::read_request(0, 0, Tag::new(9, 0), BlockRange::new(Lba(64), 8));
        pdu.response = true;
        pdu.busy = true;
        let bytes = pdu.encode();
        assert_eq!(bytes[11], 0x01, "busy rides the spare err/feature byte");
        assert!(AoePdu::decode(&bytes).unwrap().busy);
        // Flipping the busy bit in flight must fail the frame checksum,
        // like any other payload mutation.
        let mut mutated = bytes.clone();
        mutated[11] ^= 0x01;
        assert!(matches!(
            AoePdu::decode(&mutated),
            Err(DecodeError::BadChecksum { .. })
        ));
    }

    #[test]
    fn sprint_flag_round_trips_and_is_checksummed() {
        let mut pdu = AoePdu::read_request(0, 0, Tag::new(4, 0), BlockRange::new(Lba(128), 8));
        pdu.sprint = true;
        let bytes = pdu.encode();
        assert_eq!(bytes[10], 0x02, "sprint rides aflags bit 1");
        assert!(AoePdu::decode(&bytes).unwrap().sprint);
        let mut mutated = bytes.clone();
        mutated[10] ^= 0x02;
        assert!(matches!(
            AoePdu::decode(&mutated),
            Err(DecodeError::BadChecksum { .. })
        ));
        // A plain request encodes exactly as before the flag existed.
        pdu.sprint = false;
        assert_eq!(pdu.encode()[10], 0x00);
    }

    #[test]
    fn peek_shelf_slot_matches_full_decode() {
        let pdu = AoePdu::read_request(0x1042, 3, Tag::new(7, 0), BlockRange::new(Lba(9), 4));
        let bytes = pdu.encode();
        assert_eq!(peek_shelf_slot(&bytes), Some((0x1042, 3)));
        assert_eq!(peek_shelf_slot(&bytes[..10]), None, "short frame");
        let mut v1 = bytes.clone();
        v1[0] = 0x10;
        assert_eq!(peek_shelf_slot(&v1), None, "unknown version");
    }

    #[test]
    fn write_request_round_trips_with_payload() {
        let data: Vec<SectorData> = (0..4).map(|i| SectorData(1000 + i)).collect();
        let pdu = AoePdu::write_request(0, 0, Tag::new(1, 0), BlockRange::new(Lba(77), 4), data);
        let bytes = pdu.encode();
        assert_eq!(bytes.len() as u32, AOE_HEADER_BYTES + 4 * 512);
        assert_eq!(AoePdu::decode(&bytes).unwrap(), pdu);
    }

    #[test]
    fn response_flag_round_trips() {
        let mut pdu = AoePdu::read_request(0, 0, Tag::new(9, 2), BlockRange::new(Lba(5), 2));
        pdu.response = true;
        pdu.data = Some(vec![SectorData(1), SectorData(2)]);
        let decoded = AoePdu::decode(&pdu.encode()).unwrap();
        assert!(decoded.response);
        assert_eq!(decoded.tag.fragment(), 2);
        assert_eq!(decoded.data.unwrap(), vec![SectorData(1), SectorData(2)]);
    }

    #[test]
    fn error_flag_round_trips() {
        let mut pdu = AoePdu::read_request(0, 0, Tag::new(1, 0), BlockRange::new(Lba(1), 1));
        pdu.response = true;
        pdu.error = Some(2);
        let decoded = AoePdu::decode(&pdu.encode()).unwrap();
        assert_eq!(decoded.error, Some(2));
    }

    #[test]
    fn large_lba_round_trips() {
        let lba = Lba((1 << 48) - 1);
        let pdu = AoePdu::read_request(0, 0, Tag::new(1, 0), BlockRange::new(lba, 1));
        assert_eq!(AoePdu::decode(&pdu.encode()).unwrap().range.lba, lba);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(matches!(
            AoePdu::decode(&[0u8; 4]),
            Err(DecodeError::Truncated { .. })
        ));
        let mut bytes =
            AoePdu::read_request(0, 0, Tag::new(1, 0), BlockRange::new(Lba(1), 1)).encode();
        bytes[0] = 0x10; // version 1: pre-checksum wire format
        assert_eq!(AoePdu::decode(&bytes), Err(DecodeError::BadVersion(1)));
    }

    #[test]
    fn decode_rejects_corrupted_frames() {
        let data: Vec<SectorData> = (0..3).map(|i| SectorData(7000 + i)).collect();
        let pdu = AoePdu::write_request(0, 0, Tag::new(2, 0), BlockRange::new(Lba(9), 3), data);
        let clean = pdu.encode();
        assert_eq!(AoePdu::decode(&clean).unwrap(), pdu);
        // Flip one bit anywhere — header field or payload — and the
        // checksum catches it.
        for &idx in &[1usize, 5, 13, 30, clean.len() - 1] {
            let mut bytes = clean.clone();
            bytes[idx] ^= 0x40;
            assert!(
                matches!(AoePdu::decode(&bytes), Err(DecodeError::BadChecksum { .. })),
                "flip at byte {idx} not caught"
            );
        }
    }

    #[test]
    fn checksum_occupies_reserved_bytes() {
        let bytes = AoePdu::read_request(0, 0, Tag::new(1, 0), BlockRange::new(Lba(1), 1)).encode();
        let carried = u16::from_be_bytes([bytes[22], bytes[23]]);
        assert_eq!(carried, frame_checksum(&bytes));
        assert_ne!(carried, 0, "this frame's checksum happens to be nonzero");
    }

    /// The byte-serial FNV-1a 64 that [`frame_checksum`] must equal.
    fn frame_checksum_oracle(bytes: &[u8]) -> u16 {
        let mut h = FNV_OFFSET;
        for (i, &b) in bytes.iter().enumerate() {
            let b = if i == CHECKSUM_OFFSET || i == CHECKSUM_OFFSET + 1 {
                0
            } else {
                b
            };
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        (h ^ (h >> 16) ^ (h >> 32) ^ (h >> 48)) as u16
    }

    #[test]
    fn checksum_equals_byte_serial_oracle() {
        // Every length up to three sector units, sparse non-zero bytes
        // (including the checksum field), and zero runs both shorter and
        // longer than one table lookup.
        let mut state = 0x5EED_u64;
        for len in (0..1600).chain([8728, 9000]) {
            let mut bytes = vec![0u8; len];
            for _ in 0..len / 97 + 1 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if len > 0 {
                    bytes[(state >> 33) as usize % len] = (state >> 8) as u8;
                }
            }
            if len > 23 {
                bytes[22] = 0xA5;
                bytes[23] = 0x5A;
            }
            assert_eq!(
                frame_checksum(&bytes),
                frame_checksum_oracle(&bytes),
                "length {len}"
            );
        }
        let data = (0..17)
            .map(|i| SectorData(0x1234_5678_9ABC_DEF0 ^ i))
            .collect();
        let mut frame =
            AoePdu::write_request(0, 0, Tag::new(3, 0), BlockRange::new(Lba(0), 17), data).encode();
        assert_eq!(frame_checksum(&frame), frame_checksum_oracle(&frame));
        frame[4000] ^= 0x10;
        assert_eq!(frame_checksum(&frame), frame_checksum_oracle(&frame));
    }

    #[test]
    fn encode_frame_equals_encode() {
        let data = (0..17).map(SectorData).collect();
        let mut pdu =
            AoePdu::write_request(2, 1, Tag::new(5, 4), BlockRange::new(Lba(99), 17), data);
        assert_eq!(pdu.encode_frame().to_vec(), pdu.encode());
        pdu.data = None;
        pdu.write = false;
        assert_eq!(pdu.encode_frame().to_vec(), pdu.encode());
        let multi = AoePdu::read_multi_request(
            0,
            0,
            Tag::new(1, 0),
            vec![BlockRange::new(Lba(8), 8), BlockRange::new(Lba(80), 3)],
        );
        assert_eq!(multi.encode_frame().to_vec(), multi.encode());
    }

    #[test]
    fn decode_rejects_ragged_payload() {
        let mut bytes =
            AoePdu::read_request(0, 0, Tag::new(1, 0), BlockRange::new(Lba(1), 1)).encode();
        bytes.extend_from_slice(&[0u8; 100]);
        let sum = frame_checksum(&bytes).to_be_bytes();
        bytes[22..24].copy_from_slice(&sum); // valid checksum, ragged payload
        assert_eq!(AoePdu::decode(&bytes), Err(DecodeError::RaggedPayload(100)));
    }

    #[test]
    fn multi_range_read_round_trips() {
        let runs = vec![
            BlockRange::new(Lba(100), 32),
            BlockRange::new(Lba(500), 8),
            BlockRange::new(Lba(0xAB_CDEF), 2048),
        ];
        let pdu = AoePdu::read_multi_request(3, 1, Tag::new(77, 0), runs.clone());
        assert_eq!(pdu.range, BlockRange::new(Lba(100), 32 + 8 + 2048));
        let bytes = pdu.encode();
        assert_eq!(bytes[0] >> 4, AOE_VERSION_BATCH);
        assert_eq!(bytes.len(), AOE_HEADER_BYTES as usize + 2 + 3 * 10);
        let decoded = AoePdu::decode(&bytes).unwrap();
        assert_eq!(decoded, pdu);
        assert_eq!(decoded.ranges, runs);
        // Decode→encode is a byte-level fixpoint (the canonical-cover
        // rule leaves exactly one encoding per run set).
        assert_eq!(decoded.encode(), bytes);
    }

    #[test]
    fn multi_range_rejects_malformed_tables() {
        let pdu = AoePdu::read_multi_request(
            0,
            0,
            Tag::new(1, 0),
            vec![BlockRange::new(Lba(10), 4), BlockRange::new(Lba(90), 4)],
        );
        let clean = pdu.encode();
        let resum = |mut bytes: Vec<u8>| {
            let sum = frame_checksum(&bytes).to_be_bytes();
            bytes[22..24].copy_from_slice(&sum);
            bytes
        };
        // Truncated table (checksum fixed so the table check is reached).
        let short = resum(clean[..clean.len() - 3].to_vec());
        assert!(matches!(
            AoePdu::decode(&short),
            Err(DecodeError::BadRangeTable(_))
        ));
        // Count disagreeing with the payload length.
        let mut wrong_count = clean.clone();
        wrong_count[25] = 9;
        assert!(matches!(
            AoePdu::decode(&resum(wrong_count)),
            Err(DecodeError::BadRangeTable(_))
        ));
        // Zero-sector run.
        let mut zero_run = clean.clone();
        zero_run[32..36].copy_from_slice(&0u32.to_be_bytes());
        assert!(matches!(
            AoePdu::decode(&resum(zero_run)),
            Err(DecodeError::BadRangeTable(_))
        ));
        // Header cover disagreeing with the table total.
        let mut bad_cover = clean.clone();
        bad_cover[12..16].copy_from_slice(&999u32.to_be_bytes());
        assert!(matches!(
            AoePdu::decode(&resum(bad_cover)),
            Err(DecodeError::BadRangeTable(_))
        ));
        // Multi-range writes are not a thing.
        let mut write = clean.clone();
        write[10] |= 0x01;
        assert!(matches!(
            AoePdu::decode(&resum(write)),
            Err(DecodeError::BadRangeTable(_))
        ));
        // And an in-flight bit flip is still a checksum error, caught
        // before any table parsing.
        let mut flipped = clean.clone();
        flipped[30] ^= 0x20;
        assert!(matches!(
            AoePdu::decode(&flipped),
            Err(DecodeError::BadChecksum { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn empty_run_set_panics() {
        AoePdu::read_multi_request(0, 0, Tag::new(1, 0), Vec::new());
    }

    #[test]
    fn rdma_flag_round_trips_and_is_checksummed() {
        let mut pdu = AoePdu::read_request(0, 0, Tag::new(6, 0), BlockRange::new(Lba(40), 16));
        pdu.rdma = true;
        let bytes = pdu.encode();
        assert_eq!(bytes[10], 0x04, "rdma rides aflags bit 2");
        assert!(AoePdu::decode(&bytes).unwrap().rdma);
        assert!(peek_rdma(&bytes));
        let mut mutated = bytes.clone();
        mutated[10] ^= 0x04;
        assert!(matches!(
            AoePdu::decode(&mutated),
            Err(DecodeError::BadChecksum { .. })
        ));
        // The flag composes with v3 multi-range requests.
        let mut multi =
            AoePdu::read_multi_request(0, 0, Tag::new(7, 0), vec![BlockRange::new(Lba(8), 8)]);
        multi.rdma = true;
        let decoded = AoePdu::decode(&multi.encode()).unwrap();
        assert!(decoded.rdma && !decoded.ranges.is_empty());
        // Plain frames are not RDMA traffic.
        assert!(!peek_rdma(
            &AoePdu::read_request(0, 0, Tag::new(8, 0), BlockRange::new(Lba(0), 1)).encode()
        ));
        assert!(!peek_rdma(&[0u8; 10]));
    }

    #[test]
    fn peek_shelf_slot_accepts_v3() {
        let pdu =
            AoePdu::read_multi_request(0x1042, 3, Tag::new(7, 0), vec![BlockRange::new(Lba(9), 4)]);
        assert_eq!(peek_shelf_slot(&pdu.encode()), Some((0x1042, 3)));
    }

    #[test]
    fn frame_capacity_matches_mtu() {
        assert_eq!(sectors_per_frame(1500), 2);
        assert_eq!(sectors_per_frame(9000), 17);
    }

    #[test]
    #[should_panic(expected = "cannot carry")]
    fn tiny_mtu_panics() {
        sectors_per_frame(100);
    }
}
