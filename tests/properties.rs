//! Property-based tests over the core invariants.

use bmcast_repro::aoe::wire::{
    fragment_subranges, frame_checksum, peek_rdma, peek_shelf_slot, sectors_per_frame, AoePdu,
    DecodeError, FrameBytes, Tag, WireFrame,
};
use bmcast_repro::aoe::{AoeClient, AoeServer, ClientConfig, ServerConfig};
use bmcast_repro::bmcast::bitmap::BlockBitmap;
use bmcast_repro::bmcast::config::{BmcastConfig, ControllerKind, Moderation};
use bmcast_repro::bmcast::deploy::Runner;
use bmcast_repro::bmcast::fabric::corrupt_frame_bytes;
use bmcast_repro::bmcast::machine::MachineSpec;
use bmcast_repro::bmcast::programs::StreamProgram;
use bmcast_repro::bmcast::snapback::{DirtyTracker, SnapshotBack};
use bmcast_repro::bmcast::transport::coalesce_runs;
use bmcast_repro::hwsim::block::{BlockRange, BlockStore, Lba, SectorData};
use bmcast_repro::hwsim::disk::{DiskModel, DiskOp, DiskParams};
use bmcast_repro::simkit::{Rearms, Sim, SimDuration, SimTime, Tick, Timer, NO_SPAN};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet, VecDeque};

/// Byte-serial FNV-1a 64 with bytes 22–23 (the checksum field) hashed
/// as zero, folded to 16 bits: the wire-v2 checksum's definition.
fn fnv1a_reference(bytes: &[u8]) -> u16 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (i, &b) in bytes.iter().enumerate() {
        let b = if i == 22 || i == 23 { 0 } else { b };
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    (h ^ (h >> 16) ^ (h >> 32) ^ (h >> 48)) as u16
}

/// The checksum of a fixed 8,728-byte read reply fragment (17 sectors
/// at a 9000-byte MTU) is pinned: the wire format must not drift.
#[test]
fn frame_checksum_of_reference_reply_is_pinned() {
    let range = BlockRange::new(Lba(4096), 17);
    let mut pdu = AoePdu::read_request(0, 0, Tag::new(1021, 120), range);
    pdu.response = true;
    pdu.data = Some(
        range
            .iter()
            .map(|l| BlockStore::image_content(7, l))
            .collect(),
    );
    let bytes = pdu.encode();
    assert_eq!(bytes.len(), 8728);
    assert_eq!(frame_checksum(&bytes), 0x2816);
    assert_eq!(u16::from_be_bytes([bytes[22], bytes[23]]), 0x2816);
    // The sector frame carries the same checksum, computed without the
    // padding, and the same byte image.
    let frame = pdu.encode_frame();
    assert_eq!(frame.sectors(), pdu.data.as_deref());
    assert_eq!(
        u16::from_be_bytes([frame.head()[22], frame.head()[23]]),
        0x2816
    );
    assert_eq!(frame.len(), 8728);
    assert_eq!(frame.to_vec(), bytes);
}

/// A checksum-valid response fragment of request `req` for `range`,
/// carrying `sectors` sectors of data, as the sector frame the fabric
/// would deliver.
fn read_reply(req: &AoePdu, frag: u32, range: BlockRange, sectors: u32) -> FrameBytes {
    let mut pdu = AoePdu::read_request(
        req.shelf,
        req.slot,
        Tag::new(req.tag.request_id(), frag),
        range,
    );
    pdu.response = true;
    pdu.data = Some(
        (0..sectors as u64)
            .map(|i| SectorData(range.lba.0 * 3 + i + 1))
            .collect(),
    );
    pdu.encode_frame()
}

/// A read fragment must match the slot its tag names: a v2 read of 8
/// sectors never completes on a reply whose range or data holds fewer.
/// Each wrong-shaped fragment is dropped and counted, and the
/// retransmitted request's well-formed reply completes the read.
#[test]
fn read_fragment_of_the_wrong_shape_is_dropped() {
    let mut client = AoeClient::new(ClientConfig::default());
    let range = BlockRange::new(Lba(64), 8);
    let (id, frames) = client.read(SimTime::ZERO, range, NO_SPAN);
    let req = AoePdu::decode_frame(&frames[0]).unwrap();
    for (bad, sectors) in [
        (BlockRange::new(Lba(64), 1), 1), // 1 sector of data for 8
        (BlockRange::new(Lba(65), 8), 8), // the wrong 8 sectors
        (range, 1),                       // header says 8, data holds 1
    ] {
        assert!(client
            .on_frame(SimTime::ZERO, read_reply(&req, 0, bad, sectors))
            .is_none());
    }
    assert_eq!(client.bad_fragments(), 3);
    assert_eq!(client.outstanding(), 1, "the read stays pending");
    let due = client.next_retransmit_at().expect("a deadline is armed");
    assert_eq!(
        client.poll_retransmit(due).len(),
        1,
        "the read is re-requested"
    );
    let good = read_reply(&req, 0, range, 8);
    let done = client
        .on_frame(due, &good)
        .expect("the well-formed reply completes");
    assert_eq!(done.request_id, id);
    assert_eq!(Some(done.data), AoePdu::decode_frame(&good).unwrap().data);
    assert_eq!(client.bad_fragments(), 3);
}

/// A batched read given 1-sector fragments for its two 4-sector runs
/// drops both (it used to complete and then panic splitting the data
/// per run), and so does a fragment in the other run's slot; the
/// well-formed fragments then complete it with the right parts.
#[test]
fn batched_read_fragment_of_the_wrong_shape_is_dropped() {
    let mut client = AoeClient::new(ClientConfig::default());
    let runs = vec![BlockRange::new(Lba(0), 4), BlockRange::new(Lba(100), 4)];
    let (_, frames) = client.read_multi(SimTime::ZERO, &runs, NO_SPAN);
    let req = AoePdu::decode_frame(&frames[0]).unwrap();
    let one = |r: BlockRange| BlockRange::new(r.lba, 1);
    assert!(client
        .on_frame(SimTime::ZERO, read_reply(&req, 0, one(runs[0]), 1))
        .is_none());
    assert!(client
        .on_frame(SimTime::ZERO, read_reply(&req, 1, one(runs[1]), 1))
        .is_none());
    assert!(client
        .on_frame(SimTime::ZERO, read_reply(&req, 0, runs[1], 4))
        .is_none());
    assert_eq!(client.bad_fragments(), 3);
    assert_eq!(client.outstanding(), 1);
    let good: Vec<FrameBytes> = (0..2)
        .map(|i| read_reply(&req, i, runs[i as usize], 4))
        .collect();
    assert!(client.on_frame(SimTime::ZERO, &good[0]).is_none());
    let done = client.on_frame(SimTime::ZERO, &good[1]).expect("completes");
    // The data splits back per run by the runs' sector counts.
    let (first, second) = done.data.split_at(runs[0].sectors as usize);
    for (part, frame) in [first, second].into_iter().zip(&good) {
        assert_eq!(
            Some(part.to_vec()),
            AoePdu::decode_frame(frame).unwrap().data
        );
    }
}

/// A legal PDU of `kind` 0 (v2 header-only), 1 (v2 with data, zero
/// fingerprints included) or 2 (v3 multi-range read over `runs`), with
/// the response, write, sprint, busy and rdma flags from the bits of
/// `flags` and any error code. The write flag is never set on v3.
fn legal_pdu(
    kind: u8,
    flags: u8,
    error: Option<u8>,
    (shelf, slot, tag): (u16, u8, Tag),
    range: BlockRange,
    seed: u64,
    runs: &[(u64, u32)],
) -> AoePdu {
    let mut pdu = match kind {
        0 => AoePdu::read_request(shelf, slot, tag, range),
        1 => {
            let data = (0..range.sectors as u64)
                .map(|i| {
                    SectorData(if seed >> (i % 64) & 1 == 0 {
                        0
                    } else {
                        seed ^ i
                    })
                })
                .collect();
            AoePdu::write_request(shelf, slot, tag, range, data)
        }
        _ => {
            let runs = runs
                .iter()
                .map(|&(l, n)| BlockRange::new(Lba(l), n))
                .collect();
            AoePdu::read_multi_request(shelf, slot, tag, runs)
        }
    };
    let bit = |i: u8| flags >> i & 1 == 1;
    pdu.response = bit(0);
    pdu.write = bit(1) && kind != 2;
    (pdu.sprint, pdu.busy, pdu.rdma) = (bit(2), bit(3), bit(4));
    pdu.error = error;
    pdu
}

proptest! {
    /// The shared frame and the dense encoding are one wire image: same
    /// bytes, same length, same peeks, same decode. Every v2 frame with
    /// data takes the sector form.
    #[test]
    fn frame_forms_agree_on_legal_pdus(
        kind in 0u8..3,
        flags in any::<u8>(),
        error in proptest::option::of(any::<u8>()),
        shelf in any::<u16>(),
        slot in any::<u8>(),
        id in 0..=Tag::MAX_REQUEST_ID,
        frag in 0..=Tag::MAX_FRAGMENT,
        lba in 0u64..(1 << 47),
        sectors in 1u32..40,
        seed in any::<u64>(),
        runs in proptest::collection::vec((0u64..(1 << 47), 1u32..4096), 1..8),
    ) {
        let range = BlockRange::new(Lba(lba), sectors);
        let pdu = legal_pdu(kind, flags, error, (shelf, slot, Tag::new(id, frag)), range, seed, &runs);
        let dense = pdu.encode();
        let frame = pdu.encode_frame();
        prop_assert_eq!(frame.to_vec(), dense.clone());
        prop_assert_eq!(frame.len(), dense.len());
        prop_assert_eq!(&frame.head()[..], &dense[..24]);
        prop_assert_eq!(peek_shelf_slot(frame.peek_head()), peek_shelf_slot(&dense));
        prop_assert_eq!(peek_rdma(frame.peek_head()), peek_rdma(&dense));
        prop_assert_eq!(AoePdu::decode_frame(&frame), AoePdu::decode(&dense));
        prop_assert_eq!(frame.sectors().is_some(), pdu.data.is_some());
        prop_assert_eq!(AoePdu::decode_frame(&frame), Ok(pdu));
    }

    /// A frame corrupted in flight becomes a byte frame one byte away
    /// from the clean image, and its decode verdict is the dense
    /// verdict on those bytes.
    #[test]
    fn corrupted_frames_decode_as_their_dense_bytes(
        kind in 0u8..3,
        flags in any::<u8>(),
        error in proptest::option::of(any::<u8>()),
        lba in 0u64..(1 << 47),
        sectors in 1u32..40,
        seed in any::<u64>(),
        runs in proptest::collection::vec((0u64..(1 << 47), 1u32..4096), 1..8),
        entropy in any::<u64>(),
    ) {
        let range = BlockRange::new(Lba(lba), sectors);
        let pdu = legal_pdu(kind, flags, error, (1, 2, Tag::new(9, 4)), range, seed, &runs);
        let frame = pdu.encode_frame();
        let corrupted = corrupt_frame_bytes(&frame, entropy);
        let bytes = corrupted.to_vec();
        prop_assert!(corrupted.sectors().is_none());
        prop_assert_eq!(bytes.len(), frame.len());
        prop_assert_eq!(bytes.iter().zip(frame.to_vec()).filter(|(a, b)| **a != *b).count(), 1);
        prop_assert_eq!(AoePdu::decode_frame(&corrupted), AoePdu::decode(&bytes));
        prop_assert_eq!(peek_shelf_slot(corrupted.peek_head()), peek_shelf_slot(&bytes));
        prop_assert_eq!(peek_rdma(corrupted.peek_head()), peek_rdma(&bytes));
    }

    /// The frames a burst builds by moving each PDU in (`into_frame`)
    /// are the frames `encode_frame` builds from a borrowed PDU, and
    /// their images are the dense `encode`: same bytes, length, header
    /// and decode, for bursts of 1-9 fragments over 1-3 runs, each run
    /// ending in a ragged fragment, as a read reply (busy and rdma
    /// flags) or as write fragments. A corrupted burst frame still
    /// decodes exactly as its dense bytes.
    #[test]
    fn burst_frames_equal_one_at_a_time_frames(
        runs in proptest::collection::vec((0u64..(1 << 40), 0u32..3, 1u32..=17), 1..4),
        write in any::<bool>(),
        busy in any::<bool>(),
        rdma in any::<bool>(),
        base in 0u32..8,
        seed in any::<u64>(),
        pick in any::<usize>(),
        entropy in any::<u64>(),
    ) {
        let spf = sectors_per_frame(9000);
        let runs: Vec<BlockRange> = runs
            .iter()
            .map(|&(lba, full, tail)| BlockRange::new(Lba(lba), full * spf + tail))
            .collect();
        let pdus: Vec<AoePdu> = (base..)
            .zip(fragment_subranges(&runs, spf))
            .map(|(frag, sub)| {
                let tag = Tag::new(77, frag);
                let data = sub
                    .iter()
                    .map(|l| SectorData(if (seed ^ l.0).is_multiple_of(5) { 0 } else { seed ^ l.0 }))
                    .collect();
                if write {
                    return AoePdu::write_request(3, 1, tag, sub, data);
                }
                let mut reply = AoePdu::read_request(3, 1, tag, sub);
                (reply.response, reply.busy, reply.rdma) = (true, busy, rdma);
                reply.data = Some(data);
                reply
            })
            .collect();
        prop_assert!((1..=9).contains(&pdus.len()));
        let frames: Vec<FrameBytes> = pdus.iter().cloned().map(AoePdu::into_frame).collect();
        prop_assert_eq!(frames.len(), pdus.len());
        for (frame, pdu) in frames.iter().zip(&pdus) {
            let single = pdu.encode_frame();
            let dense = pdu.encode();
            prop_assert_eq!(frame.to_vec(), single.to_vec());
            prop_assert_eq!(frame.to_vec(), dense.clone());
            prop_assert_eq!(frame.len(), single.len());
            prop_assert_eq!(frame.head(), single.head());
            prop_assert_eq!(&frame.head()[..], &dense[..24]);
            prop_assert_eq!(AoePdu::decode_frame(frame), AoePdu::decode_frame(&single));
            prop_assert_eq!(AoePdu::decode_frame(frame), AoePdu::decode(&dense));
            prop_assert_eq!(AoePdu::decode_frame(frame), Ok(pdu.clone()));
        }
        let corrupted = corrupt_frame_bytes(&frames[pick % frames.len()], entropy);
        prop_assert_eq!(AoePdu::decode_frame(&corrupted), AoePdu::decode(&corrupted.to_vec()));
    }

    /// A server's reply frames decode by value to the dense decode of
    /// their bytes, whether a frame is held once (its data moves out,
    /// no copy) or twice, as a duplicating link leaves it (the first
    /// handle copies and leaves the second intact, which then moves).
    /// A reply frame's byte image, its checksum summed on demand, fails
    /// the checksum once any byte past the version is flipped.
    #[test]
    fn owned_and_shared_frames_decode_as_their_bytes(
        runs in proptest::collection::vec((0u64..4000, 1u32..60), 1..4),
        rdma in any::<bool>(),
        seed in any::<u64>(),
        dup in any::<usize>(),
        flip in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let runs: Vec<BlockRange> = runs
            .iter()
            .map(|&(lba, sectors)| BlockRange::new(Lba(lba), sectors))
            .collect();
        let params = DiskParams { capacity_sectors: 1 << 13, ..DiskParams::default() };
        let store = BlockStore::image(params.capacity_sectors, seed);
        let mut server = AoeServer::new(ServerConfig::default(), DiskModel::new(params, store));
        let mut request = AoePdu::read_multi_request(0, 0, Tag::new(5, 0), runs);
        request.rdma = rdma;
        let frames = server
            .handle(SimTime::ZERO, &request.encode())
            .unwrap()
            .expect("addressed to the server")
            .frames;
        let dup = dup % frames.len();
        for (i, frame) in frames.into_iter().enumerate() {
            let bytes = frame.to_vec();
            let want = AoePdu::decode(&bytes);
            prop_assert!(want.is_ok());
            if i == dup {
                let copy = frame.clone();
                prop_assert_eq!(copy.into_pdu(), want.clone());
                prop_assert_eq!(frame.to_vec(), bytes.clone(), "the copy left the frame intact");
            }
            let units = frame.sectors().expect("a reply is a sector frame").as_ptr();
            let pdu = frame.into_pdu();
            prop_assert_eq!(
                pdu.as_ref().unwrap().data.as_ref().unwrap().as_ptr(),
                units,
                "a frame held once moves its data"
            );
            prop_assert_eq!(pdu, want);
            let mut corrupted = bytes;
            let at = 1 + flip % (corrupted.len() - 1);
            corrupted[at] ^= mask;
            prop_assert!(matches!(
                AoePdu::decode_frame(&corrupted.into()),
                Err(DecodeError::BadChecksum { .. })
            ));
        }
    }
}

proptest! {
    /// Any legal AoE PDU round-trips through encode/decode.
    #[test]
    fn aoe_pdu_roundtrip(
        response in any::<bool>(),
        error in proptest::option::of(0u8..8),
        shelf in 0u16..100,
        slot in 0u8..16,
        req_id in 0u32..Tag::MAX_REQUEST_ID,
        frag in 0u32..Tag::MAX_FRAGMENT,
        lba in 0u64..(1 << 48),
        sectors in 1u32..64,
        write in any::<bool>(),
        sprint in any::<bool>(),
        busy in any::<bool>(),
        rdma in any::<bool>(),
        payload_seed in any::<u64>(),
    ) {
        let data = (write || response).then(|| {
            (0..sectors as u64).map(|i| SectorData(payload_seed ^ i)).collect::<Vec<_>>()
        });
        let pdu = AoePdu {
            response,
            error,
            shelf,
            slot,
            tag: Tag::new(req_id, frag),
            write,
            sprint,
            busy,
            rdma,
            range: BlockRange::new(Lba(lba), sectors),
            ranges: Vec::new(),
            data,
        };
        let decoded = AoePdu::decode(&pdu.encode()).unwrap();
        prop_assert_eq!(decoded, pdu);
    }

    /// Decode is total: arbitrary bytes never panic it, and whatever it
    /// accepts re-encodes to the same PDU (no garbage smuggled through).
    #[test]
    fn aoe_decode_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..3000),
    ) {
        if let Ok(pdu) = AoePdu::decode(&bytes) {
            prop_assert!(pdu.range.sectors > 0);
            prop_assert_eq!(AoePdu::decode(&pdu.encode()).unwrap(), pdu);
        }
    }

    /// Mutating any bytes of a valid frame never panics decode, and the
    /// checksum rejects every mutation that changes covered bytes — a
    /// corrupted frame can only surface as a decode error, never as a
    /// different PDU.
    #[test]
    fn aoe_decode_rejects_mutated_frames(
        sectors in 1u32..12,
        lba in 0u64..(1 << 48),
        seed in any::<u64>(),
        muts in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..6),
    ) {
        let data: Vec<SectorData> = (0..sectors as u64)
            .map(|i| SectorData(seed ^ i))
            .collect();
        let pdu = AoePdu::write_request(
            1, 2, Tag::new(7, 3), BlockRange::new(Lba(lba), sectors), data);
        let clean = pdu.encode();
        let mut bytes = clean.clone();
        for (idx, xor) in muts {
            bytes[idx % clean.len()] ^= xor;
        }
        match AoePdu::decode(&bytes) {
            // All mutations may have cancelled out (xor of 0, or pairs
            // hitting the same byte): only the original may decode.
            Ok(decoded) => {
                prop_assert_eq!(&bytes, &clean, "corruption decoded successfully");
                prop_assert_eq!(decoded, pdu);
            }
            Err(e) => prop_assert!(
                matches!(e, DecodeError::BadChecksum { .. } | DecodeError::BadVersion(_)
                    | DecodeError::EmptyRange | DecodeError::BadRangeTable(_)),
                "unexpected decode error {e:?}"
            ),
        }
    }

    /// Any legal v3 multi-range (batched) read round-trips through
    /// encode/decode: the run table survives in order, and the header
    /// range is the canonical cover (first run's LBA, total sectors).
    #[test]
    fn aoe_multi_range_roundtrip(
        shelf in 0u16..100,
        slot in 0u8..16,
        req_id in 0u32..Tag::MAX_REQUEST_ID,
        runs in proptest::collection::vec(
            (0u64..(1 << 40), 1u32..1500), 1..60),
        sprint in any::<bool>(),
        rdma in any::<bool>(),
    ) {
        let runs: Vec<BlockRange> = runs
            .into_iter()
            .map(|(lba, sectors)| BlockRange::new(Lba(lba), sectors))
            .collect();
        let total: u32 = runs.iter().map(|r| r.sectors).sum();
        let mut pdu = AoePdu::read_multi_request(
            shelf, slot, Tag::new(req_id, 0), runs.clone());
        pdu.sprint = sprint;
        pdu.rdma = rdma;
        let decoded = AoePdu::decode(&pdu.encode()).unwrap();
        prop_assert_eq!(&decoded.ranges, &runs, "table survives in order");
        prop_assert_eq!(decoded.range, BlockRange::new(runs[0].lba, total));
        prop_assert_eq!(decoded, pdu);
    }

    /// Mutating a valid v3 frame never panics decode and can only
    /// surface as a decode error (or the untouched original): corruption
    /// cannot smuggle a *different* run table through the checksum.
    #[test]
    fn aoe_multi_range_rejects_mutated_frames(
        runs in proptest::collection::vec((0u64..(1 << 40), 1u32..200), 1..20),
        muts in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..6),
    ) {
        let runs: Vec<BlockRange> = runs
            .into_iter()
            .map(|(lba, sectors)| BlockRange::new(Lba(lba), sectors))
            .collect();
        let pdu = AoePdu::read_multi_request(3, 1, Tag::new(19, 0), runs);
        let clean = pdu.encode();
        let mut bytes = clean.clone();
        for (idx, xor) in muts {
            bytes[idx % clean.len()] ^= xor;
        }
        match AoePdu::decode(&bytes) {
            Ok(decoded) => {
                prop_assert_eq!(&bytes, &clean, "corruption decoded successfully");
                prop_assert_eq!(decoded, pdu);
            }
            Err(e) => prop_assert!(
                matches!(e, DecodeError::BadChecksum { .. } | DecodeError::BadVersion(_)
                    | DecodeError::EmptyRange | DecodeError::BadRangeTable(_)),
                "unexpected decode error {e:?}"
            ),
        }
    }

    /// The word-walking frame checksum equals byte-serial FNV-1a on
    /// arbitrary bytes, whatever their length modulo 8.
    #[test]
    fn frame_checksum_equals_byte_serial_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..3000),
    ) {
        prop_assert_eq!(frame_checksum(&bytes), fnv1a_reference(&bytes));
    }

    /// ... and on zero-heavy buffers with sparse non-zero bytes, the
    /// shape of real data frames, including the checksum field itself.
    #[test]
    fn frame_checksum_equals_byte_serial_on_sparse_bytes(
        len in 0usize..3000,
        hot in proptest::collection::vec((any::<usize>(), 1u8..=255), 0..12),
        checksum_field in (any::<u8>(), any::<u8>()),
    ) {
        let mut bytes = vec![0u8; len];
        for (at, b) in hot {
            if len > 0 {
                bytes[at % len] = b;
            }
        }
        if len >= 24 {
            bytes[22] = checksum_field.0;
            bytes[23] = checksum_field.1;
        }
        prop_assert_eq!(frame_checksum(&bytes), fnv1a_reference(&bytes));
    }

    /// ... and on MTU-sized encoded data frames with arbitrary mutations
    /// (the corrupted frames decode must still reject).
    #[test]
    fn frame_checksum_equals_byte_serial_on_mutated_frames(
        seed in any::<u64>(),
        lba in 0u64..(1 << 40),
        muts in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..6),
    ) {
        let sectors = sectors_per_frame(9000);
        let range = BlockRange::new(Lba(lba), sectors);
        let mut pdu = AoePdu::read_request(0, 0, Tag::new(9, 4), range);
        pdu.response = true;
        pdu.data = Some(range.iter().map(|l| BlockStore::image_content(seed, l)).collect());
        let mut bytes = pdu.encode();
        prop_assert_eq!(bytes.len(), 8728);
        prop_assert_eq!(frame_checksum(&bytes), fnv1a_reference(&bytes));
        for (idx, xor) in muts {
            let at = idx % bytes.len();
            bytes[at] ^= xor;
        }
        prop_assert_eq!(frame_checksum(&bytes), fnv1a_reference(&bytes));
    }

    /// Run coalescing is exact: the output covers precisely the union of
    /// the input's sectors (none gained, none lost), sorted by LBA, with
    /// no overlapping or even adjacent pair left unfused.
    #[test]
    fn coalesced_runs_cover_exactly_the_input(
        runs in proptest::collection::vec((0u64..4000, 1u32..80), 0..40),
    ) {
        let runs: Vec<BlockRange> = runs
            .into_iter()
            .map(|(lba, sectors)| BlockRange::new(Lba(lba), sectors))
            .collect();
        let out = coalesce_runs(&runs);
        let mut model = vec![false; 4096];
        for r in &runs {
            for l in r.lba.0..r.lba.0 + r.sectors as u64 {
                model[l as usize] = true;
            }
        }
        let mut covered = vec![false; 4096];
        for r in &out {
            prop_assert!(r.sectors > 0, "no empty output runs");
            for l in r.lba.0..r.lba.0 + r.sectors as u64 {
                prop_assert!(!covered[l as usize], "output runs must not overlap");
                covered[l as usize] = true;
            }
        }
        prop_assert_eq!(covered, model, "exactly the input's sector set");
        for pair in out.windows(2) {
            prop_assert!(
                pair[1].lba.0 > pair[0].lba.0 + pair[0].sectors as u64,
                "sorted with a real gap between consecutive runs: {:?}", pair
            );
        }
    }

    /// Any strict prefix of a valid frame is rejected — truncation can
    /// never decode, let alone panic.
    #[test]
    fn aoe_decode_rejects_truncation(
        sectors in 1u32..12,
        seed in any::<u64>(),
        cut in any::<usize>(),
    ) {
        let data: Vec<SectorData> = (0..sectors as u64)
            .map(|i| SectorData(seed ^ i))
            .collect();
        let pdu = AoePdu::write_request(
            0, 0, Tag::new(11, 0), BlockRange::new(Lba(64), sectors), data);
        let bytes = pdu.encode();
        let prefix = &bytes[..cut % bytes.len()];
        prop_assert!(AoePdu::decode(prefix).is_err());
    }

    /// Reassembly is order- and duplication-insensitive: any permutation
    /// of response fragments (with random duplicates) completes a read
    /// with the right data.
    #[test]
    fn aoe_reassembly_tolerates_reorder_and_duplicates(
        sectors in 1u32..200,
        order_seed in any::<u64>(),
        dup_every in 1usize..5,
    ) {
        let mut client = AoeClient::new(ClientConfig::default());
        let range = BlockRange::new(Lba(1000), sectors);
        let (_, frames) = client.read(SimTime::ZERO, range, NO_SPAN);
        let req = AoePdu::decode_frame(&frames[0]).unwrap();

        // Build the server's fragments.
        let spf = bmcast_repro::aoe::wire::sectors_per_frame(9000);
        let mut responses = Vec::new();
        let mut offset = 0u32;
        let mut frag = 0u32;
        while offset < sectors {
            let n = spf.min(sectors - offset);
            let sub = BlockRange::new(range.lba + offset as u64, n);
            let mut pdu = AoePdu::read_request(req.shelf, req.slot,
                Tag::new(req.tag.request_id(), frag), sub);
            pdu.response = true;
            pdu.data = Some(sub.iter().map(|l| SectorData(l.0 * 7 + 1)).collect());
            responses.push(pdu.encode());
            offset += n;
            frag += 1;
        }
        // Shuffle deterministically and duplicate some frames.
        let mut prng = bmcast_repro::simkit::Prng::new(order_seed);
        prng.shuffle(&mut responses);
        let with_dups: Vec<Vec<u8>> = responses
            .iter()
            .enumerate()
            .flat_map(|(i, f)| {
                if i % dup_every == 0 {
                    vec![f.clone(), f.clone()]
                } else {
                    vec![f.clone()]
                }
            })
            .collect();

        let mut completion = None;
        for f in &with_dups {
            if let Some(done) = client.on_frame(SimTime::ZERO, f) {
                prop_assert!(completion.is_none(), "must complete exactly once");
                completion = Some(done);
            }
        }
        let done = completion.expect("all fragments delivered");
        prop_assert_eq!(done.range, range);
        let expect: Vec<SectorData> = range.iter().map(|l| SectorData(l.0 * 7 + 1)).collect();
        prop_assert_eq!(done.data, expect);
    }

    /// Reassembly against a real server, v2 or batched: the server's
    /// fragments arrive shuffled, some twice, mixed with checksum-valid
    /// fragments of the wrong range, and a retransmit round comes part
    /// way through. The round re-requests exactly the empty slots (the
    /// original request when none is filled); the read completes exactly
    /// once, on the frame that fills its last slot, with the server's
    /// data.
    #[test]
    fn reassembly_completes_once_when_every_slot_is_filled(
        runs in proptest::collection::vec((0u64..4000, 1u32..60), 1..4),
        batched in any::<bool>(),
        order_seed in any::<u64>(),
        dup_every in 1usize..5,
        bad_every in 1usize..5,
        cut in any::<usize>(),
    ) {
        let runs: Vec<BlockRange> = runs
            .iter()
            .map(|&(lba, sectors)| BlockRange::new(Lba(lba), sectors))
            .collect();
        let runs = if batched { runs } else { runs[..1].to_vec() };
        let params = DiskParams { capacity_sectors: 1 << 13, ..DiskParams::default() };
        let store = BlockStore::image(params.capacity_sectors, order_seed);
        let expect: Vec<SectorData> = runs.iter().flat_map(|&r| store.read_range(r)).collect();
        let mut server = AoeServer::new(ServerConfig::default(), DiskModel::new(params, store));
        let mut client = AoeClient::new(ClientConfig::default());
        let (id, request) = if batched {
            client.read_multi(SimTime::ZERO, &runs, NO_SPAN)
        } else {
            client.read(SimTime::ZERO, runs[0], NO_SPAN)
        };
        let req = AoePdu::decode_frame(&request[0]).unwrap();
        let serve = |server: &mut AoeServer, at: SimTime, frame: &FrameBytes| {
            let reply = server.handle(at, frame).unwrap().expect("addressed to the server");
            reply.frames.into_iter().map(|f| {
                let slot = AoePdu::decode_frame(&f).unwrap().tag.fragment();
                (f, Some(slot))
            })
        };
        // The stream: the server's fragments shuffled, every
        // `dup_every`-th twice and every `bad_every`-th followed by a
        // fragment one sector off its slot's range (dropped as bad).
        let mut prng = bmcast_repro::simkit::Prng::new(order_seed);
        let mut fragments: Vec<_> = serve(&mut server, SimTime::ZERO, &request[0]).collect();
        let slots = fragments.len();
        prng.shuffle(&mut fragments);
        let mut stream = Vec::new();
        for (i, (frame, slot)) in fragments.into_iter().enumerate() {
            let pdu = AoePdu::decode_frame(&frame).unwrap();
            if i % dup_every == 0 {
                stream.push((frame.clone(), slot));
            }
            stream.push((frame, slot));
            if i % bad_every == 0 {
                let off = BlockRange::new(pdu.range.lba + 1, pdu.range.sectors);
                let bad = read_reply(&req, pdu.tag.fragment(), off, off.sectors);
                stream.push((bad, None));
            }
        }
        let mut filled = HashSet::new();
        let mut completions = 0;
        let mut deliver = |client: &mut AoeClient, at: SimTime, stream: Vec<(FrameBytes, Option<u32>)>| {
            for (frame, slot) in stream {
                let last = slot.is_some_and(|s| filled.insert(s)) && filled.len() == slots;
                let done = client.on_frame(at, frame);
                prop_assert_eq!(done.is_some(), last, "completes on its last slot only");
                if let Some(done) = done {
                    prop_assert_eq!(done.request_id, id);
                    prop_assert_eq!(&done.data, &expect);
                    completions += 1;
                }
            }
            (0..slots as u32).filter(|s| !filled.contains(s)).collect::<Vec<u32>>()
        };
        let mut rest = stream.split_off(cut % (stream.len() + 1));
        let empty = deliver(&mut client, SimTime::ZERO, stream);
        match client.next_retransmit_at() {
            None => prop_assert!(empty.is_empty(), "only a completed read has no deadline"),
            Some(due) => {
                let resent = client.poll_retransmit(due);
                let asked: Vec<u32> = resent
                    .iter()
                    .map(|f| AoePdu::decode_frame(f).unwrap().tag.fragment())
                    .collect();
                if empty.len() == slots {
                    prop_assert_eq!(resent.len(), 1);
                    prop_assert_eq!(resent[0].to_vec(), request[0].to_vec(), "the original request");
                } else {
                    prop_assert_eq!(asked, empty, "exactly the empty slots");
                }
                for frame in &resent {
                    rest.extend(serve(&mut server, due, frame));
                }
                prng.shuffle(&mut rest);
            }
        }
        deliver(&mut client, SimTime::ZERO, rest);
        prop_assert_eq!(completions, 1);
        prop_assert_eq!(client.outstanding(), 0);
    }

    /// Bitmap accounting never drifts and claims are atomic.
    #[test]
    fn bitmap_claims_are_atomic(
        ops in proptest::collection::vec((0u64..960, 1u32..32, any::<bool>()), 1..60),
    ) {
        let mut bm = BlockBitmap::new(1024);
        let mut model = vec![false; 1024];
        for (lba, sectors, claim) in ops {
            let range = BlockRange::new(Lba(lba), sectors.min((1024 - lba) as u32).max(1));
            if claim {
                let any_filled = range.iter().any(|l| model[l.0 as usize]);
                let ok = bm.try_claim(range);
                prop_assert_eq!(ok, !any_filled, "claim iff all empty");
                if ok {
                    for l in range.iter() { model[l.0 as usize] = true; }
                }
            } else {
                bm.mark_filled(range);
                for l in range.iter() { model[l.0 as usize] = true; }
            }
            let filled = model.iter().filter(|&&f| f).count() as u64;
            prop_assert_eq!(bm.filled_sectors(), filled, "count never drifts");
            for l in 0..1024u64 {
                prop_assert_eq!(bm.is_filled(Lba(l)), model[l as usize]);
            }
        }
    }

    /// A mirror-optimized store is observationally identical to a plain
    /// one under arbitrary write sequences.
    #[test]
    fn mirror_store_equals_plain_store(
        writes in proptest::collection::vec((0u64..512, any::<u64>(), any::<bool>()), 0..80),
        seed in any::<u64>(),
    ) {
        let mut plain = BlockStore::zeroed(512);
        let mut mirror = BlockStore::zeroed_with_mirror(512, seed);
        for (lba, value, use_image_content) in writes {
            let data = if use_image_content {
                BlockStore::image_content(seed, Lba(lba))
            } else {
                SectorData(value)
            };
            plain.write(Lba(lba), data);
            mirror.write(Lba(lba), data);
        }
        for lba in 0..512u64 {
            prop_assert_eq!(plain.read(Lba(lba)), mirror.read(Lba(lba)));
        }
    }

    /// The dirty tracker equals a ground-truth diff model under arbitrary
    /// write sequences — overlapping, unaligned, clipped at the image
    /// boundary, or wholly beyond it.
    #[test]
    fn dirty_tracker_equals_ground_truth_diff(
        writes in proptest::collection::vec((0u64..1100, 1u32..90), 0..60),
    ) {
        let image = 1024u64;
        let mut dt = DirtyTracker::new(image);
        let mut model = vec![false; image as usize];
        for &(lba, sectors) in &writes {
            dt.record(BlockRange::new(Lba(lba), sectors));
            for l in lba..(lba + sectors as u64).min(image) {
                model[l as usize] = true;
            }
        }
        let truth = model.iter().filter(|&&d| d).count() as u64;
        prop_assert_eq!(dt.dirty_sectors(), truth, "count equals the diff");
        for l in 0..image {
            prop_assert_eq!(dt.is_dirty(Lba(l)), model[l as usize], "sector {}", l);
        }
        // The coalesced runs partition exactly the dirty set.
        let mut covered = vec![false; image as usize];
        for run in dt.dirty_subranges(BlockRange::new(Lba(0), image as u32)) {
            for l in run.iter() {
                prop_assert!(!covered[l.0 as usize], "runs must not overlap");
                covered[l.0 as usize] = true;
            }
        }
        prop_assert_eq!(covered, model);
    }

    /// Snapshot-back converges to server == local under arbitrary dirty
    /// sets, block grids, and periodic send failures; re-streaming an
    /// already-sent range afterwards is idempotent.
    #[test]
    fn snapshot_back_converges_and_is_idempotent(
        writes in proptest::collection::vec((0u64..1000, 1u32..50, any::<u64>()), 1..40),
        block in prop_oneof![Just(16u32), Just(64), Just(128)],
        fail_every in 0usize..4, // 0 = sends never fail
    ) {
        let image = 1024u64;
        let mut local: Vec<SectorData> =
            (0..image).map(|l| BlockStore::image_content(0xAB, Lba(l))).collect();
        let mut server = local.clone();
        let mut dt = DirtyTracker::new(image);
        for &(lba, sectors, val) in &writes {
            let r = BlockRange::new(Lba(lba), sectors);
            dt.record(r);
            for l in lba..(lba + sectors as u64).min(image) {
                local[l as usize] = SectorData(val);
            }
        }
        let dirty_total = dt.dirty_sectors();
        let mut sb = SnapshotBack::new(block, 4);
        let stream = |sb: &mut SnapshotBack,
                      dt: &mut DirtyTracker,
                      server: &mut Vec<SectorData>| {
            let mut n = 0usize;
            while !sb.complete(dt) {
                let run = sb.next_send(SimTime::ZERO, dt).expect("dirty remains, pipeline empty");
                n += 1;
                if fail_every > 0 && n.is_multiple_of(fail_every + 1) {
                    sb.send_failed(SimTime::ZERO, run, dt); // re-marked, re-sent later
                    continue;
                }
                for l in run.iter() {
                    server[l.0 as usize] = local[l.0 as usize];
                }
                sb.ack(SimTime::ZERO, run);
            }
        };
        stream(&mut sb, &mut dt, &mut server);
        prop_assert_eq!(&server, &local, "snapshot equals the final disk");
        prop_assert!(sb.sectors_sent() >= dirty_total, "every dirty sector acked");

        // Idempotence: re-dirty the first range (data unchanged) and
        // stream again — the cursor wraps, the server stays equal, and
        // only that range moves again.
        let first = BlockRange::new(Lba(writes[0].0), writes[0].1);
        let sent_before = sb.sectors_sent();
        dt.record(first);
        let remarked = dt.dirty_sectors();
        stream(&mut sb, &mut dt, &mut server);
        prop_assert_eq!(&server, &local, "re-send is a no-op on the server");
        prop_assert!(dt.is_clean());
        prop_assert!(sb.sectors_sent() >= sent_before + remarked);
    }

    /// Disk service times are positive and deterministic given the same
    /// access sequence.
    #[test]
    fn disk_model_is_deterministic(
        accesses in proptest::collection::vec((0u64..60_000, 1u32..64, any::<bool>()), 1..40),
    ) {
        let params = DiskParams { capacity_sectors: 1 << 16, ..DiskParams::default() };
        let mk = || DiskModel::new(params.clone(), BlockStore::zeroed(params.capacity_sectors));
        let (mut a, mut b) = (mk(), mk());
        for (lba, sectors, write) in &accesses {
            let range = BlockRange::new(Lba(*lba), *sectors);
            let op = if *write { DiskOp::Write } else { DiskOp::Read };
            let ta = a.access_time(op, range);
            let tb = b.access_time(op, range);
            prop_assert_eq!(ta, tb);
            prop_assert!(ta > SimDuration::ZERO);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// The golden end-to-end invariant: after any deployment with a
    /// concurrent guest write stream, the local disk equals the server
    /// image overlaid with the guest's writes — regardless of moderation
    /// parameters or controller.
    #[test]
    fn deployed_disk_is_image_overlaid_with_guest_writes(
        write_lba in 100u64..6_000,
        write_span in 2u32..1000,
        interval_us in prop_oneof![Just(0u64), Just(500), Just(5_000)],
        ahci in any::<bool>(),
    ) {
        let spec = MachineSpec {
            capacity_sectors: 1 << 13,
            image_sectors: 1 << 13,
            image_seed: 0x90D,
            cpus: 2,
            mem_bytes: 1 << 30,
            controller: if ahci { ControllerKind::Ahci } else { ControllerKind::Ide },
        };
        let cfg = BmcastConfig {
            moderation: Moderation {
                guest_io_threshold_per_sec: f64::INFINITY,
                vmm_write_interval: SimDuration::from_micros(interval_us),
                vmm_write_suspend_interval: SimDuration::from_micros(interval_us),
                ..Moderation::default()
            },
            ..BmcastConfig::default()
        };
        let mut runner = Runner::bmcast(&spec, cfg);
        let region = BlockRange::new(Lba(write_lba), write_span);
        runner.start_program(Box::new(StreamProgram::sequential(
            region, true, 64, SimTime::from_millis(400), write_lba,
        )));
        let done = runner.run_to_bare_metal(SimTime::from_secs(1_200));
        prop_assert!(done.is_some(), "deployment must complete");

        let m = runner.machine();
        let bitmap_region = m.vmm.as_ref().unwrap().bitmap_region;
        let wrote = m.guest.bytes_completed / 512;
        let guest_end = region.lba.0 + wrote.min(region.sectors as u64);
        for lba in (0..spec.image_sectors).step_by(13) {
            let lba = Lba(lba);
            if bitmap_region.contains(lba) {
                continue;
            }
            let got = m.hw.disk.store().read(lba);
            if lba.0 >= region.lba.0 && lba.0 < guest_end {
                prop_assert_eq!(got, SectorData(0x5EA1), "guest sector {} intact", lba);
            } else if !region.contains(lba) {
                prop_assert_eq!(
                    got,
                    BlockStore::image_content(0x90D, lba),
                    "image sector {} deployed", lba
                );
            }
        }
    }
}

// ---------------------- telemetry merge laws -----------------------

use bmcast_repro::simkit::{LogHistogram, Metrics};

/// One synthetic machine's telemetry stream: counter adds and
/// histogram observations.
fn drive(metrics: &Metrics, stream: &[(u8, u64)]) {
    for &(kind, v) in stream {
        match kind % 3 {
            0 => metrics.add("events", v % 1000),
            1 => metrics.observe("latency_us", v),
            _ => metrics.observe("bytes", v % (1 << 40)),
        }
    }
}

proptest! {
    /// `LogHistogram::merge` is associative and commutative, and a
    /// merge of independently-observed parts answers every query
    /// exactly like one histogram that observed the concatenated
    /// stream.
    #[test]
    fn log_histogram_merge_is_a_monoid_fold(
        a in proptest::collection::vec(any::<u64>(), 0..200),
        b in proptest::collection::vec(any::<u64>(), 0..200),
        c in proptest::collection::vec(any::<u64>(), 0..200),
    ) {
        let of = |vals: &[u64]| {
            let mut h = LogHistogram::new();
            for &v in vals {
                h.observe(v);
            }
            h
        };
        let (ha, hb, hc) = (of(&a), of(&b), of(&c));

        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut right_tail = hb.clone();
        right_tail.merge(&hc);
        let mut right = ha.clone();
        right.merge(&right_tail);
        prop_assert_eq!(&left, &right, "associativity");

        // a ⊕ b == b ⊕ a
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(&ab, &ba, "commutativity");

        // Merged parts == one observer of the whole stream.
        let whole: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        let hw = of(&whole);
        prop_assert_eq!(&left, &hw, "concatenation equivalence");
        prop_assert_eq!(left.count(), hw.count());
        prop_assert_eq!(left.min(), hw.min());
        prop_assert_eq!(left.max(), hw.max());
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(left.quantile(q), hw.quantile(q), "q={}", q);
        }
    }

    /// Merging N machines' individually-recorded snapshots equals one
    /// registry that observed every machine's stream — the law that
    /// makes `Fleet::fleet_snapshot`'s aggregate honest.
    #[test]
    fn snapshot_merge_equals_shared_observation(
        streams in proptest::collection::vec(
            proptest::collection::vec((any::<u8>(), any::<u64>()), 0..60),
            1..6,
        ),
    ) {
        let shared = Metrics::enabled();
        let mut merged = None;
        for stream in &streams {
            let own = Metrics::enabled();
            drive(&own, stream);
            drive(&shared, stream);
            let snap = own.snapshot().unwrap();
            match &mut merged {
                None => merged = Some(snap),
                Some(m) => m.merge(&snap),
            }
        }
        let merged = merged.unwrap();
        let expected = shared.snapshot().unwrap();
        prop_assert_eq!(&merged.counters, &expected.counters);
        prop_assert_eq!(&merged.histograms, &expected.histograms);
        // Byte-for-byte: the exported artifact agrees too.
        prop_assert_eq!(merged.to_json(), expected.to_json());
    }
}

/// The poll period of the poll-timer equivalence world. Event times
/// and delays below are multiples of 10 ns, so many land exactly on a
/// poll grid instant.
const POLL: SimDuration = SimDuration::from_nanos(50);
/// Trace label of the poll's acting tick.
const POLL_FIRED: u32 = u32::MAX;
/// Trace label recorded (with `now()`) after each `run_until`.
const DEADLINE: u32 = u32::MAX - 1;

/// What a scripted event does after logging its label.
#[derive(Clone, Copy, Debug)]
enum PollOp {
    /// Sets whether the poll's resource is busy.
    Busy(bool),
    /// Starts a poll `delay` ns on, unless one is already pending.
    Kick(u64),
    /// Schedules a follow-up `delay` ns on (0 allowed) that logs
    /// `label + 1000` and flips the busy flag.
    Follow(u64),
}

/// A world whose poll waits for `!busy`, run once with the poll as a
/// re-arming event chain and once on a keyed timer.
#[derive(Default)]
struct PollWorld {
    keyed: bool,
    busy: bool,
    polling: bool,
    trace: Vec<(u64, u32)>,
}

fn poll_ready(w: &PollWorld) -> bool {
    !w.busy
}

fn poll_act(w: &mut PollWorld, sim: &mut Sim<PollWorld>) {
    w.trace.push((sim.now().as_nanos(), POLL_FIRED));
    w.polling = false;
}

/// The reference: a tick that re-schedules itself until ready.
fn chained_tick(w: &mut PollWorld, sim: &mut Sim<PollWorld>) {
    if poll_ready(w) {
        poll_act(w, sim);
    } else {
        sim.schedule_in(POLL, chained_tick);
    }
}

/// The same poll on a keyed timer: idle ticks wait as one poll.
const POLL_TIMER: Timer<PollWorld> = Timer {
    slot: 0,
    plan: |w, _, _| {
        if poll_ready(w) {
            Tick::Act
        } else {
            Tick::Poll(POLL)
        }
    },
    fire: keyed_tick,
};

fn keyed_tick(w: &mut PollWorld, sim: &mut Sim<PollWorld>) {
    if poll_ready(w) {
        poll_act(w, sim);
    } else {
        sim.arm(POLL_TIMER, sim.now() + POLL);
    }
}

fn scripted(label: u32, op: PollOp) -> impl FnOnce(&mut PollWorld, &mut Sim<PollWorld>) + Send {
    move |w: &mut PollWorld, sim: &mut Sim<PollWorld>| {
        w.trace.push((sim.now().as_nanos(), label));
        match op {
            PollOp::Busy(b) => w.busy = b,
            PollOp::Kick(delay) => {
                if !w.polling {
                    w.polling = true;
                    let at = sim.now() + SimDuration::from_nanos(delay);
                    if w.keyed {
                        sim.arm(POLL_TIMER, at);
                    } else {
                        sim.schedule_at(at, chained_tick);
                    }
                }
            }
            PollOp::Follow(delay) => {
                sim.schedule_in(
                    SimDuration::from_nanos(delay),
                    move |w: &mut PollWorld, sim| {
                        w.trace.push((sim.now().as_nanos(), label + 1000));
                        w.busy = !w.busy;
                    },
                );
            }
        }
    }
}

/// How the test drives the sim between its own calls.
#[derive(Clone, Copy, Debug)]
enum Drive {
    /// Runs this many logged events.
    Step(u8),
    RunFor(u64),
    /// An insert made outside any event, at the current time.
    InsertNow(PollOp),
}

fn poll_op() -> impl Strategy<Value = PollOp> {
    prop_oneof![
        any::<bool>().prop_map(PollOp::Busy),
        (0u64..8).prop_map(|d| PollOp::Kick(d * 10)),
        (0u64..12).prop_map(|d| PollOp::Follow(d * 10)),
    ]
}

/// Runs the script and the drive plan; returns the firing trace and
/// `pending_events()` after every drive step.
fn run_poll_world(
    keyed: bool,
    script: &[(u64, PollOp)],
    drive: &[Drive],
) -> (Vec<(u64, u32)>, Vec<usize>) {
    let mut sim = Sim::<PollWorld>::new();
    let mut w = PollWorld {
        keyed,
        busy: true,
        ..PollWorld::default()
    };
    for (label, &(at, op)) in script.iter().enumerate() {
        sim.schedule_at(SimTime::from_nanos(at * 10), scripted(label as u32, op));
    }
    let mut pending = Vec::new();
    for (i, d) in drive.iter().enumerate() {
        match *d {
            Drive::Step(n) => {
                // A dormant tick is a step of the chain but not of the
                // keyed sim, so step by logged events: until the trace
                // grows, or only a poll that cannot fire is left.
                for _ in 0..n {
                    let logged = w.trace.len();
                    while w.trace.len() == logged
                        && !(sim.pending_events() == 1 && w.polling && !poll_ready(&w))
                        && sim.step(&mut w)
                    {}
                }
            }
            Drive::RunFor(ns) => {
                let deadline = sim.now() + SimDuration::from_nanos(ns);
                sim.run_until(&mut w, deadline);
                w.trace.push((sim.now().as_nanos(), DEADLINE));
            }
            Drive::InsertNow(op) => {
                let now = sim.now();
                sim.schedule_at(now, scripted(500 + i as u32, op));
            }
        }
        pending.push(sim.pending_events());
    }
    // Drain everything but a poll that can never become ready.
    let horizon = sim.now() + SimDuration::from_micros(20);
    sim.run_until(&mut w, horizon);
    w.trace.push((sim.now().as_nanos(), DEADLINE));
    (w.trace, pending)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]
    /// A poll on a keyed timer is indistinguishable from the event
    /// chain it replaces: the same `(time, label)` firing trace, the
    /// same clock after every deadline and the same pending count,
    /// whatever the event times (grid instants and zero-delay
    /// follow-ups included), the readiness flips, the outside inserts
    /// and the deadlines.
    #[test]
    fn parked_poll_equals_rearming_chain(
        script in proptest::collection::vec((0u64..200, poll_op()), 1..40),
        drive in proptest::collection::vec(
            prop_oneof![
                (1u8..6).prop_map(Drive::Step),
                (0u64..60).prop_map(|d| Drive::RunFor(d * 10)),
                poll_op().prop_map(Drive::InsertNow),
            ],
            0..30,
        ),
    ) {
        let chained = run_poll_world(false, &script, &drive);
        let keyed = run_poll_world(true, &script, &drive);
        prop_assert_eq!(chained, keyed);
    }
}

/// Trace labels of the stacked-chains world's acting ticks.
const RETRY_ACTED: u32 = u32::MAX - 2;
const CLOCK_ACTED: u32 = u32::MAX - 3;
/// The clock's period: a multiple of the grid, so clock ticks, poll
/// ticks and scripted events keep landing on one instant.
const CLOCK: SimDuration = SimDuration::from_nanos(70);

/// A world with the three kinds of chain a BMcast machine runs, driven
/// once as stacked event chains and once on keyed timers:
/// - a gated retry (the retriever): a tick before `gate` re-arms at
///   `gate`; one after it claims all `work`, if any;
/// - a clock (the retransmit guard): a tick acts when a deadline is
///   due, calls the retry as the guard calls the retriever, and re-arms
///   one period on while `alive`;
/// - the poll of [`PollWorld`] (the writer), waiting for `ready`.
#[derive(Default)]
struct ChainWorld {
    keyed: bool,
    gate: u64,
    work: u32,
    deadlines: Vec<u64>,
    alive: bool,
    ready: bool,
    polling: bool,
    trace: Vec<(u64, u32)>,
}

/// What a scripted event of the chain world does after logging.
#[derive(Clone, Copy, Debug)]
enum ChainOp {
    /// Calls the retry `n` times at once (duplicate arms).
    Retry(u8),
    /// Closes the retry's gate until `d` ns on (0 opens it).
    Gate(u64),
    /// Adds work without calling the retry (a multiplex pop).
    Work,
    /// Starts a clock chain one period on.
    Clock,
    /// Adds a clock deadline `d` ns on.
    Deadline(u64),
    /// Sets whether clock chains live on.
    Alive(bool),
    /// Starts the poll `d` ns on, unless one is pending.
    Poll(u64),
    /// Sets whether the poll's resource is ready.
    Ready(bool),
    /// Runs `op` again `d` ns on (0 allowed): same-instant events.
    Follow(u64, u8),
}

fn chain_op() -> impl Strategy<Value = ChainOp> {
    // Short delays on a 10 ns grid, so arms, gates and follow-ups keep
    // meeting at one instant.
    prop_oneof![
        (1u8..3).prop_map(ChainOp::Retry),
        (0u64..6).prop_map(|d| ChainOp::Gate(d * 10)),
        Just(ChainOp::Work),
        Just(ChainOp::Clock),
        (0u64..8).prop_map(|d| ChainOp::Deadline(d * 10)),
        any::<bool>().prop_map(ChainOp::Alive),
        (0u64..6).prop_map(|d| ChainOp::Poll(d * 10)),
        any::<bool>().prop_map(ChainOp::Ready),
        ((0u64..6), 0u8..8).prop_map(|(d, op)| ChainOp::Follow(d * 10, op)),
    ]
}

/// The leaf op a `Follow` replays.
fn follow_op(n: u8) -> ChainOp {
    match n {
        0 => ChainOp::Retry(1),
        1 => ChainOp::Work,
        2 => ChainOp::Gate(0),
        3 => ChainOp::Clock,
        4 => ChainOp::Deadline(0),
        5 => ChainOp::Ready(true),
        6 => ChainOp::Ready(false),
        _ => ChainOp::Alive(false),
    }
}

const RETRY_TIMER: Timer<ChainWorld> = Timer {
    slot: 1,
    plan: retry_plan,
    fire: retry_fire,
};
const CLOCK_TIMER: Timer<ChainWorld> = Timer {
    slot: 2,
    plan: clock_plan,
    fire: clock_fire,
};
const CHAIN_POLL_TIMER: Timer<ChainWorld> = Timer {
    slot: 0,
    plan: |w, _, _| {
        if w.ready {
            Tick::Act
        } else {
            Tick::Poll(POLL)
        }
    },
    fire: chain_poll_fire,
};

fn retry_plan(w: &ChainWorld, at: SimTime, rearms: &mut Rearms<ChainWorld>) -> Tick {
    if at.as_nanos() < w.gate {
        rearms.arm(RETRY_TIMER, SimTime::from_nanos(w.gate));
        Tick::Idle
    } else if w.work > 0 {
        Tick::Act
    } else {
        Tick::Idle
    }
}

/// One retry tick, or a direct call: chained, a closed gate schedules
/// another chain; keyed, it arms the retry timer.
fn retry_fire(w: &mut ChainWorld, sim: &mut Sim<ChainWorld>) {
    let now = sim.now().as_nanos();
    if now < w.gate {
        let at = SimTime::from_nanos(w.gate);
        if w.keyed {
            sim.arm(RETRY_TIMER, at);
        } else {
            sim.schedule_at(at, retry_fire);
        }
    } else if w.work > 0 {
        w.trace.push((now, RETRY_ACTED));
        w.work = 0;
    }
}

fn clock_plan(w: &ChainWorld, at: SimTime, rearms: &mut Rearms<ChainWorld>) -> Tick {
    if w.deadlines.iter().any(|&d| d <= at.as_nanos()) || retry_plan(w, at, rearms) == Tick::Act {
        return Tick::Act;
    }
    if w.alive {
        rearms.arm(CLOCK_TIMER, at + CLOCK);
    }
    Tick::Idle
}

fn clock_fire(w: &mut ChainWorld, sim: &mut Sim<ChainWorld>) {
    let now = sim.now().as_nanos();
    if w.deadlines.iter().any(|&d| d <= now) {
        w.trace.push((now, CLOCK_ACTED));
        w.deadlines.retain(|&d| d > now);
    }
    retry_fire(w, sim);
    if w.alive {
        start_clock(w, sim);
    }
}

fn start_clock(w: &mut ChainWorld, sim: &mut Sim<ChainWorld>) {
    let at = sim.now() + CLOCK;
    if w.keyed {
        sim.arm(CLOCK_TIMER, at);
    } else {
        sim.schedule_at(at, clock_fire);
    }
}

fn chain_poll_fire(w: &mut ChainWorld, sim: &mut Sim<ChainWorld>) {
    if w.ready {
        w.trace.push((sim.now().as_nanos(), POLL_FIRED));
        w.polling = false;
    } else if w.keyed {
        sim.arm(CHAIN_POLL_TIMER, sim.now() + POLL);
    } else {
        sim.schedule_in(POLL, chain_poll_fire);
    }
}

fn chain_step(
    label: u32,
    op: ChainOp,
) -> impl FnOnce(&mut ChainWorld, &mut Sim<ChainWorld>) + Send {
    move |w: &mut ChainWorld, sim: &mut Sim<ChainWorld>| {
        let now = sim.now().as_nanos();
        w.trace.push((now, label));
        match op {
            ChainOp::Retry(n) => {
                for _ in 0..n {
                    retry_fire(w, sim);
                }
            }
            ChainOp::Gate(d) => w.gate = now + d,
            ChainOp::Work => w.work += 1,
            ChainOp::Clock => start_clock(w, sim),
            ChainOp::Deadline(d) => w.deadlines.push(now + d),
            ChainOp::Alive(a) => w.alive = a,
            ChainOp::Poll(d) => {
                if !w.polling {
                    w.polling = true;
                    let at = sim.now() + SimDuration::from_nanos(d);
                    if w.keyed {
                        sim.arm(CHAIN_POLL_TIMER, at);
                    } else {
                        sim.schedule_at(at, chain_poll_fire);
                    }
                }
            }
            ChainOp::Ready(r) => w.ready = r,
            ChainOp::Follow(d, n) => {
                sim.schedule_in(
                    SimDuration::from_nanos(d),
                    chain_step(label + 1000, follow_op(n)),
                );
            }
        }
    }
}

/// Runs the script, with outside inserts and `run_until` deadlines in
/// between; returns the trace of scripted events and acting ticks.
fn run_chain_world(
    keyed: bool,
    script: &[(u64, ChainOp)],
    drive: &[(u64, Option<ChainOp>)],
) -> Vec<(u64, u32)> {
    let mut sim = Sim::<ChainWorld>::new();
    let mut w = ChainWorld {
        keyed,
        alive: true,
        ..ChainWorld::default()
    };
    for (label, &(at, op)) in script.iter().enumerate() {
        sim.schedule_at(SimTime::from_nanos(at * 10), chain_step(label as u32, op));
    }
    for (i, &(ns, insert)) in drive.iter().enumerate() {
        let deadline = sim.now() + SimDuration::from_nanos(ns);
        sim.run_until(&mut w, deadline);
        w.trace.push((sim.now().as_nanos(), DEADLINE));
        if let Some(op) = insert {
            let now = sim.now();
            sim.schedule_at(now, chain_step(500 + i as u32, op));
        }
    }
    // Drain past every scripted time; live clocks and a poll that can
    // never fire keep ticking, so stop at a horizon.
    let horizon = sim.now() + SimDuration::from_micros(20);
    sim.run_until(&mut w, horizon);
    w.trace.push((sim.now().as_nanos(), DEADLINE));
    w.trace
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]
    /// Keyed timers are indistinguishable from the stacked event chains
    /// they stand for: K retry chains, clock chains and a poll, with
    /// duplicate arms at one instant, gates that move earlier and
    /// later, work that appears between same-instant ticks without a
    /// call (the multiplex-pop case), outside inserts and `run_until`
    /// deadlines give the same `(time, label)` trace of scripted events
    /// and acting ticks.
    #[test]
    fn keyed_timers_equal_stacked_chains(
        script in proptest::collection::vec((0u64..60, chain_op()), 1..40),
        drive in proptest::collection::vec(
            ((0u64..60).prop_map(|d| d * 10), proptest::option::of(chain_op())),
            0..12,
        ),
    ) {
        let chained = run_chain_world(false, &script, &drive);
        let keyed = run_chain_world(true, &script, &drive);
        prop_assert_eq!(chained, keyed);
    }
}

/// The drive model as it was before its cache window became a run FIFO:
/// one `VecDeque` entry per serviced sector instance, popped after every
/// push. The per-sector count map only stands in for `VecDeque::contains`
/// so the oracle stays quick in debug builds; it answers the same
/// membership question.
struct SectorFifoDisk {
    params: DiskParams,
    head: u64,
    fifo: VecDeque<u64>,
    held: HashMap<u64, u32>,
    busy: SimDuration,
}

impl SectorFifoDisk {
    fn new(params: DiskParams) -> SectorFifoDisk {
        SectorFifoDisk {
            params,
            head: 0,
            fifo: VecDeque::new(),
            held: HashMap::new(),
            busy: SimDuration::ZERO,
        }
    }

    fn cache_hit(&self, range: BlockRange) -> bool {
        range.iter().all(|lba| self.held.contains_key(&lba.0))
    }

    fn seek_time(&self, distance: u64) -> SimDuration {
        let p = &self.params;
        let third = (p.capacity_sectors / 3).max(1) as f64;
        let b = (p.avg_seek.as_nanos() as f64 - p.min_seek.as_nanos() as f64) / third.sqrt();
        SimDuration::from_nanos(
            (p.min_seek.as_nanos() as f64 + b * (distance as f64).sqrt()) as u64,
        )
    }

    fn access_time(&mut self, op: DiskOp, range: BlockRange) -> SimDuration {
        let t = if op == DiskOp::Read && self.cache_hit(range) {
            self.params.cmd_overhead + self.params.cache_hit
        } else {
            let distance = self.head.abs_diff(range.lba.0);
            let mut t = self.params.cmd_overhead;
            if distance != 0 {
                t += self.seek_time(distance) + self.params.rotation() / 2;
            }
            let rate = match op {
                DiskOp::Read => self.params.read_bps,
                DiskOp::Write => self.params.write_bps,
            };
            t += SimDuration::from_nanos(range.bytes() * 1_000_000_000 / rate);
            self.head = range.end().0;
            for lba in range.iter() {
                self.fifo.push_back(lba.0);
                *self.held.entry(lba.0).or_default() += 1;
                if self.fifo.len() > self.params.cache_sectors {
                    let old = self.fifo.pop_front().unwrap();
                    let n = self.held.get_mut(&old).unwrap();
                    *n -= 1;
                    if *n == 0 {
                        self.held.remove(&old);
                    }
                }
            }
            t
        };
        self.busy += t;
        t
    }
}

/// A range near one of four cluster bases, so hits, partial overlaps and
/// sequential continuations are common. `sectors` may be zero.
fn clustered_range(cap: u64, cluster: u64, offset: u64, sectors: u32) -> BlockRange {
    let base = [0, 4_096, 300_000, cap - 8_000][cluster as usize];
    BlockRange {
        lba: Lba(base + offset),
        sectors,
    }
}

/// A strategy for a range length: mostly short, sometimes up to 6,000.
fn range_len() -> impl Strategy<Value = u32> {
    prop_oneof![1u32..9, 1u32..65, 1u32..6_001]
}

/// A store of one of the three kinds, and its naive twin.
fn store_pair(kind: u8, cap: u64, seed: u64) -> (BlockStore, SectorMapStore) {
    let store = match kind {
        0 => BlockStore::zeroed(cap),
        1 => BlockStore::zeroed_with_mirror(cap, seed),
        _ => BlockStore::image(cap, seed),
    };
    let oracle = SectorMapStore {
        written: HashMap::new(),
        mirrored: HashSet::new(),
        mirror_seed: (kind == 1).then_some(seed),
        image_seed: (kind == 2).then_some(seed),
    };
    (store, oracle)
}

/// The block store as it was before pages: one `HashMap` entry per
/// written sector, and one mirror flag per image-matching sector of a
/// mirror store.
#[derive(Clone)]
struct SectorMapStore {
    written: HashMap<u64, SectorData>,
    mirrored: HashSet<u64>,
    mirror_seed: Option<u64>,
    image_seed: Option<u64>,
}

impl SectorMapStore {
    fn read(&self, lba: u64) -> SectorData {
        if let Some(&d) = self.written.get(&lba) {
            return d;
        }
        match (self.mirror_seed, self.image_seed) {
            (Some(seed), _) if self.mirrored.contains(&lba) => {
                BlockStore::image_content(seed, Lba(lba))
            }
            (_, Some(seed)) => BlockStore::image_content(seed, Lba(lba)),
            _ => SectorData::ZERO,
        }
    }

    fn write(&mut self, lba: u64, data: SectorData) {
        if let Some(seed) = self.mirror_seed {
            if data == BlockStore::image_content(seed, Lba(lba)) {
                self.mirrored.insert(lba);
                self.written.remove(&lba);
                return;
            }
            self.mirrored.remove(&lba);
        }
        self.written.insert(lba, data);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]
    /// The run-FIFO drive cache is the per-sector FIFO it replaced: at
    /// every step of a random access sequence (reads, writes, bursts of
    /// 1-sector dummy reads, zero-sector accesses, chunked streams in
    /// either direction) the service time,
    /// head, busy total and a probe `cache_hit` agree, at window sizes
    /// from none to the default 4,096 sectors.
    #[test]
    fn drive_cache_equals_sector_fifo(
        window in 0usize..4,
        steps in proptest::collection::vec(
            ((0u8..5, 0u64..4, 0u64..2_000, range_len()), (0u64..4, 0u64..2_000, range_len())),
            1..48,
        ),
    ) {
        let params = DiskParams {
            capacity_sectors: 1 << 20,
            cache_sectors: [0, 1, 7, 4_096][window],
            ..DiskParams::default()
        };
        let cap = params.capacity_sectors;
        let mut disk = DiskModel::new(params.clone(), BlockStore::zeroed(cap));
        let mut oracle = SectorFifoDisk::new(params);
        for ((kind, cluster, offset, sectors), (p_cluster, p_offset, p_sectors)) in steps {
            let mut range = clustered_range(cap, cluster, offset, sectors);
            let accesses = match kind {
                0 => vec![(DiskOp::Read, range)],
                1 => vec![(DiskOp::Write, range)],
                // A burst of 1-sector dummy reads over two sectors.
                2 => (0..sectors % 24 + 1)
                    .map(|k| (DiskOp::Read, BlockRange::new(range.lba + (k % 2) as u64, 1)))
                    .collect(),
                3 => {
                    let op = if offset % 2 == 0 { DiskOp::Read } else { DiskOp::Write };
                    vec![(op, BlockRange { sectors: 0, ..range })]
                }
                // A stream of adjacent chunks, ascending or descending,
                // with a far dummy read after each so no two chunks
                // merge; `range` becomes the whole stream, whose cover
                // spans one run per chunk.
                _ => {
                    let (chunks, len) = (2 + offset % 5, (sectors % 64 + 1) as u64);
                    range.sectors = (chunks * len) as u32;
                    let op = if sectors % 3 == 0 { DiskOp::Read } else { DiskOp::Write };
                    (0..chunks)
                        .map(|i| if offset % 2 == 0 { i } else { chunks - 1 - i })
                        .flat_map(|i| {
                            [
                                (op, BlockRange::new(range.lba + i * len, len as u32)),
                                (DiskOp::Read, BlockRange::new(Lba(cap - 1), 1)),
                            ]
                        })
                        .collect()
                }
            };
            for (op, r) in accesses {
                prop_assert_eq!(disk.access_time(op, r), oracle.access_time(op, r), "{:?} {:?}", op, r);
                prop_assert_eq!(disk.head(), Lba(oracle.head));
                prop_assert_eq!(disk.total_busy(), oracle.busy);
            }
            let probe = clustered_range(cap, p_cluster, p_offset, p_sectors);
            prop_assert_eq!(disk.cache_hit(probe), oracle.cache_hit(probe), "probe {:?}", probe);
            prop_assert_eq!(disk.cache_hit(range), oracle.cache_hit(range), "range {:?}", range);
        }
    }

    /// The paged block store is the per-sector map it replaced, for all
    /// three store kinds: random single and range writes (image-matching
    /// and tenant data mixed, ranges straddling pages and ending at
    /// capacity), reads, appending range reads and clones agree with the
    /// naive map on every read and on `written_sectors()` at every step.
    #[test]
    fn block_store_equals_sector_map(
        kind in 0u8..3,
        seed in any::<u64>(),
        ops in proptest::collection::vec((0u8..6, 0u64..400, 1u32..140, any::<u64>()), 1..60),
    ) {
        // Five full pages and a partial one.
        let cap = 5 * 64 + 17;
        let (mut store, mut oracle) = store_pair(kind, cap, seed);
        let mut forks = Vec::new();
        for (op, lba, sectors, salt) in ops {
            let lba = lba % cap;
            // Kind 5 ends the range exactly at capacity.
            let sectors = if op == 5 { (cap - lba) as u32 } else { sectors.min((cap - lba) as u32) };
            let range = BlockRange::new(Lba(lba), sectors);
            // Per sector: the image's content (of the mirror or image
            // seed), or one of a few tenant values.
            let data: Vec<SectorData> = range
                .iter()
                .map(|l| {
                    let mix = salt.rotate_left((l.0 % 64) as u32);
                    if mix % 3 == 0 {
                        SectorData(mix % 5)
                    } else {
                        BlockStore::image_content(seed, l)
                    }
                })
                .collect();
            match op {
                0 => {
                    store.write(Lba(lba), data[0]);
                    oracle.write(lba, data[0]);
                }
                1 | 5 => {
                    store.write_range(range, &data);
                    for (l, &d) in range.iter().zip(&data) {
                        oracle.write(l.0, d);
                    }
                }
                2 => prop_assert_eq!(store.read(Lba(lba)), oracle.read(lba)),
                3 => {
                    let mut out = vec![SectorData(salt)];
                    store.read_range_into(range, &mut out);
                    let mut expect = vec![SectorData(salt)];
                    expect.extend(range.iter().map(|l| oracle.read(l.0)));
                    prop_assert_eq!(out, expect);
                }
                _ => {
                    forks.push((store.clone(), oracle.clone()));
                }
            }
            prop_assert_eq!(store.written_sectors(), oracle.written.len());
        }
        forks.push((store, oracle));
        for (store, oracle) in forks {
            let all = store.read_range(BlockRange::new(Lba(0), cap as u32));
            let expect: Vec<SectorData> = (0..cap).map(|l| oracle.read(l)).collect();
            prop_assert_eq!(all, expect);
            prop_assert_eq!(store.written_sectors(), oracle.written.len());
        }
    }
}

proptest! {
    /// Bulk range reads equal sector-at-a-time reads on all three store
    /// kinds after random writes: runs of tenant data, runs of the
    /// image's content (mirror bits on a mirror store), per-sector mixes
    /// of both, and overwrites of each by the others. Whole pages end up
    /// written, mirrored, mixed or untouched, and every range read,
    /// across page boundaries and to the end of the store, is checked
    /// against `read` of each of its sectors.
    #[test]
    fn bulk_image_reads_equal_sector_reads(
        kind in 0u8..3,
        seed in any::<u64>(),
        writes in proptest::collection::vec((0u8..3, 0u64..700, 1u32..200, any::<u64>()), 0..24),
        reads in proptest::collection::vec((0u64..700, 1u32..400), 1..24),
    ) {
        // Ten full pages and a partial one.
        let cap = 10 * 64 + 23;
        let (mut store, _) = store_pair(kind, cap, seed);
        for (what, lba, sectors, salt) in writes {
            let lba = lba % cap;
            let range = BlockRange::new(Lba(lba), sectors.min((cap - lba) as u32));
            let data: Vec<SectorData> = range
                .iter()
                .map(|l| {
                    let tenant = match what {
                        0 => true,
                        1 => false,
                        _ => salt.rotate_left((l.0 % 64) as u32) % 2 == 0,
                    };
                    if tenant {
                        SectorData(salt ^ l.0)
                    } else {
                        BlockStore::image_content(seed, l)
                    }
                })
                .collect();
            store.write_range(range, &data);
        }
        for (lba, sectors) in reads {
            let lba = lba % cap;
            let range = BlockRange::new(Lba(lba), sectors.min((cap - lba) as u32));
            let expect: Vec<SectorData> = range.iter().map(|l| store.read(l)).collect();
            prop_assert_eq!(store.read_range(range), expect, "{:?}", range);
        }
    }
}

// ---------------------------------------------------------------------------
// Mediation policy: one decision for every controller.
// ---------------------------------------------------------------------------

use bmcast_repro::bmcast::mediator::{
    AhciMediator, IdeMediator, MediatorMode, MegasasMediator, MegasasVerdict, MmioVerdict,
    PioVerdict,
};
use bmcast_repro::hwsim::ahci::{
    preg, AhciCmdHeader, AhciCmdList, AhciCmdTable, H2dFis, PORT_BASE, PORT_STRIDE,
};
use bmcast_repro::hwsim::ide::{AtaOp, IdeReg, PrdEntry, PrdTable};
use bmcast_repro::hwsim::megasas::{reg as mfi_reg, MfiFrame, MfiOp, MfiStatus};
use bmcast_repro::hwsim::mem::{DmaBuffer, PhysAddr, PhysMem};

/// Sectors of the mediated disks below.
const MEDIATED_CAP: u64 = 1024;

/// What a mediator decided for one guest command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Routed {
    Forward,
    Redirect,
    Protected,
}

/// Programs one EXT DMA command through the IDE taskfile and starts the
/// bus-master engine, which arms it; a held command is released at once
/// and the engine stopped, so every command starts from an idle device.
fn ide_route(
    med: &mut IdeMediator,
    bm: &mut BlockBitmap,
    write: bool,
    range: BlockRange,
) -> Routed {
    let (lba, n) = (range.lba.0, range.sectors);
    let taskfile = [
        (IdeReg::BmPrdAddr, 0x2000u32),
        (IdeReg::SectorCount, (n >> 8) & 0xFF),
        (IdeReg::SectorCount, n & 0xFF),
        (IdeReg::LbaLow, ((lba >> 24) & 0xFF) as u32),
        (IdeReg::LbaLow, (lba & 0xFF) as u32),
        (IdeReg::LbaMid, ((lba >> 32) & 0xFF) as u32),
        (IdeReg::LbaMid, ((lba >> 8) & 0xFF) as u32),
        (IdeReg::LbaHigh, ((lba >> 40) & 0xFF) as u32),
        (IdeReg::LbaHigh, ((lba >> 16) & 0xFF) as u32),
        (IdeReg::Device, 0x40),
        (IdeReg::Command, if write { 0x35 } else { 0x25 }),
    ];
    for (reg, val) in taskfile {
        assert_eq!(med.on_guest_write(reg, val, bm), PioVerdict::Forward);
    }
    let routed = match med.on_guest_write(IdeReg::BmCommand, 0x01, bm) {
        PioVerdict::Forward => Routed::Forward,
        PioVerdict::StartRedirect(r) => {
            assert_eq!(r.cmd.range, range);
            assert!(med.finish_redirect().is_empty());
            if r.protected {
                Routed::Protected
            } else {
                Routed::Redirect
            }
        }
        v => panic!("unexpected IDE verdict {v:?}"),
    };
    assert_eq!(
        med.on_guest_write(IdeReg::BmCommand, 0x00, bm),
        PioVerdict::Forward
    );
    routed
}

/// Issues one command in AHCI slot 0 of the guest's command list; a held
/// slot is released at once.
fn ahci_route(
    med: &mut AhciMediator,
    mem: &mut PhysMem,
    clb: PhysAddr,
    bm: &mut BlockBitmap,
    write: bool,
    range: BlockRange,
) -> Routed {
    let op = if write {
        AtaOp::WriteDma
    } else {
        AtaOp::ReadDma
    };
    let buf = mem.alloc(DmaBuffer::new(range.sectors as usize));
    let ctba = mem.alloc(AhciCmdTable {
        cfis: H2dFis { op, range },
        prdt: PrdTable {
            entries: vec![PrdEntry {
                buf,
                sectors: range.sectors,
            }],
        },
    });
    mem.get_mut::<AhciCmdList>(clb).expect("command list").slots[0] =
        Some(AhciCmdHeader { ctba, write });
    let MmioVerdict::Ci {
        forward_mask,
        redirects,
    } = med.on_guest_write(PORT_BASE + preg::CI, 1, mem, bm)
    else {
        panic!("a CI write yields a CI verdict");
    };
    match (forward_mask, redirects.as_slice()) {
        (1, []) => Routed::Forward,
        (0, [r]) => {
            assert_eq!((r.slot, r.range), (0, range));
            med.release_held(0);
            if r.protected {
                Routed::Protected
            } else {
                Routed::Redirect
            }
        }
        v => panic!("unexpected AHCI verdict {v:?}"),
    }
}

/// Posts one MFI frame; a held frame is released at once.
fn megasas_route(
    med: &mut MegasasMediator,
    mem: &mut PhysMem,
    bm: &mut BlockBitmap,
    write: bool,
    range: BlockRange,
) -> Routed {
    let buffer = mem.alloc(DmaBuffer::new(range.sectors as usize));
    let frame = mem.alloc(MfiFrame {
        op: if write { MfiOp::LdWrite } else { MfiOp::LdRead },
        range,
        buffer,
        status: MfiStatus::Pending,
    });
    match med.on_guest_write(mfi_reg::IQP, frame.0, mem, bm) {
        MegasasVerdict::Forward => Routed::Forward,
        MegasasVerdict::StartRedirect(r) => {
            assert_eq!(r.range, range);
            assert!(med.finish_redirect().is_empty());
            if r.protected {
                Routed::Protected
            } else {
                Routed::Redirect
            }
        }
        MegasasVerdict::Swallow => panic!("an idle mediator swallowed a post"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The IDE, AHCI and MegaRAID mediators, each given the same protected
    /// region (or none), reach the same verdict for the same guest
    /// reads and writes over the same bitmap — a read of any empty or
    /// protected sector is held, a protected write is converted, every
    /// other command forwards and a forwarded write fills its range —
    /// and end with the same bitmap and the same statistics.
    #[test]
    fn mediators_share_one_policy(
        fill in proptest::collection::vec((0u64..MEDIATED_CAP, 1u32..128), 0..12),
        protected in proptest::option::of((0u64..MEDIATED_CAP, 1u32..48)),
        cmds in proptest::collection::vec((any::<bool>(), 0u64..MEDIATED_CAP, 1u32..64), 1..24),
    ) {
        let clamp = |lba: u64, n: u32| BlockRange::new(Lba(lba), n.min((MEDIATED_CAP - lba) as u32));
        let mut model = BlockBitmap::new(MEDIATED_CAP);
        for &(lba, n) in &fill {
            model.mark_filled(clamp(lba, n));
        }
        let protected = protected.map(|(lba, n)| clamp(lba, n));
        let (mut ide_bm, mut ahci_bm, mut mfi_bm) = (model.clone(), model.clone(), model.clone());
        let mut ide = IdeMediator::new(protected);
        let mut ahci = AhciMediator::new(protected);
        let mut mfi = MegasasMediator::new(protected);
        let mut mem = PhysMem::new(1 << 30);
        let clb = mem.alloc(AhciCmdList::new());
        ahci.on_guest_write(PORT_BASE + preg::CLB, clb.0, &mem, &mut ahci_bm);

        for (write, lba, n) in cmds {
            let range = clamp(lba, n);
            let hits_protected = protected.is_some_and(|p| p.overlaps(range));
            let expect = if hits_protected {
                Routed::Protected
            } else if !write && model.any_empty(range) {
                Routed::Redirect
            } else {
                if write {
                    model.mark_filled(range);
                }
                Routed::Forward
            };
            prop_assert_eq!(ide_route(&mut ide, &mut ide_bm, write, range), expect, "IDE {:?}", range);
            prop_assert_eq!(
                ahci_route(&mut ahci, &mut mem, clb, &mut ahci_bm, write, range),
                expect,
                "AHCI {:?}",
                range
            );
            prop_assert_eq!(
                megasas_route(&mut mfi, &mut mem, &mut mfi_bm, write, range),
                expect,
                "MegaRAID {:?}",
                range
            );
        }

        let whole = BlockRange::new(Lba(0), MEDIATED_CAP as u32);
        let filled = model.filled_subranges(whole);
        prop_assert_eq!(ide_bm.filled_subranges(whole), filled.clone());
        prop_assert_eq!(ahci_bm.filled_subranges(whole), filled.clone());
        prop_assert_eq!(mfi_bm.filled_subranges(whole), filled);
        let stats = ide.mediation.stats();
        prop_assert_eq!(ahci.mediation.stats(), stats);
        prop_assert_eq!(mfi.mediation.stats(), stats);
        for mode in [ide.mediation.mode(), ahci.mediation.mode(), mfi.mediation.mode()] {
            prop_assert_eq!(mode, MediatorMode::Normal);
        }
    }

    /// The AHCI HBA has one port, so the mediator interprets port 0's
    /// register bank only. Accesses to any other port's bank, interleaved
    /// with port-0 commands, forward untouched: a write is `Forward`, a
    /// read returns the raw value, neither moves the shadowed command
    /// list, the mode or the statistics, and every port-0 command still
    /// routes as the shared policy says.
    #[test]
    fn ahci_other_port_banks_pass_through(
        fill in proptest::collection::vec((0u64..MEDIATED_CAP, 1u32..128), 0..12),
        protected in proptest::option::of((0u64..MEDIATED_CAP, 1u32..48)),
        steps in proptest::collection::vec(
            (
                (any::<bool>(), 0u64..MEDIATED_CAP, 1u32..64),
                (
                    1u64..32,
                    0usize..6,
                    any::<u32>(),
                    any::<bool>(),
                ),
            ),
            1..24,
        ),
    ) {
        let clamp = |lba: u64, n: u32| BlockRange::new(Lba(lba), n.min((MEDIATED_CAP - lba) as u32));
        let mut model = BlockBitmap::new(MEDIATED_CAP);
        for &(lba, n) in &fill {
            model.mark_filled(clamp(lba, n));
        }
        let protected = protected.map(|(lba, n)| clamp(lba, n));
        let mut bm = model.clone();
        let mut ahci = AhciMediator::new(protected);
        let mut mem = PhysMem::new(1 << 30);
        let clb = mem.alloc(AhciCmdList::new());
        ahci.on_guest_write(PORT_BASE + preg::CLB, clb.0, &mem, &mut bm);

        for ((write, lba, n), (port, reg, val, read)) in steps {
            // Slot 0 holds the previous command (if any), so a foreign CI
            // write with bit 0 set would reissue it if it were
            // interpreted.
            let reg = [preg::CLB, preg::IS, preg::IE, preg::CMD, preg::TFD, preg::CI][reg];
            let offset = PORT_BASE + port * PORT_STRIDE + reg;
            let stats = ahci.mediation.stats();
            if read {
                prop_assert_eq!(ahci.filter_read(offset, u64::from(val)), u64::from(val));
            } else {
                let v = ahci.on_guest_write(offset, u64::from(val | 1), &mem, &mut bm);
                prop_assert_eq!(v, MmioVerdict::Forward, "port {} reg {:#x}", port, reg);
            }
            prop_assert_eq!(ahci.clb(), Some(clb));
            prop_assert_eq!(ahci.mediation.mode(), MediatorMode::Normal);
            prop_assert_eq!(ahci.mediation.stats(), stats);

            let range = clamp(lba, n);
            let expect = if protected.is_some_and(|p| p.overlaps(range)) {
                Routed::Protected
            } else if !write && model.any_empty(range) {
                Routed::Redirect
            } else {
                if write {
                    model.mark_filled(range);
                }
                Routed::Forward
            };
            prop_assert_eq!(
                ahci_route(&mut ahci, &mut mem, clb, &mut bm, write, range),
                expect,
                "AHCI {:?}",
                range
            );
        }
        let whole = BlockRange::new(Lba(0), MEDIATED_CAP as u32);
        prop_assert_eq!(bm.filled_subranges(whole), model.filled_subranges(whole));
    }
}

// --------------------------- block streams ---------------------------

use bmcast_repro::bmcast::background::{BackgroundCopy, FetchedBlock};
use bmcast_repro::simkit::Spans;
use std::collections::BTreeSet;

/// Blocks of the image both streams copy, and their size in sectors.
const STREAM_BLOCKS: u64 = 16;
const STREAM_BLOCK: u32 = 64;

/// One step of a block-stream schedule.
#[derive(Debug, Clone)]
enum StreamOp {
    /// Claim up to this many ranges into one request.
    Issue(usize),
    /// The outstanding request at this index (modulo their count)
    /// completes (`true`) or exhausts its retries (`false`).
    Settle(usize, bool),
    /// This many milliseconds pass.
    Advance(u64),
}

fn stream_op() -> impl Strategy<Value = StreamOp> {
    prop_oneof![
        (1usize..=4).prop_map(StreamOp::Issue),
        (any::<usize>(), 0u8..5).prop_map(|(i, roll)| StreamOp::Settle(i, roll < 2)),
        (0u64..400).prop_map(StreamOp::Advance),
    ]
}

/// What a block stream must do, written out without the engine: which
/// blocks are claimable, where the cursor stands, and the back-off.
#[derive(Debug)]
struct StreamModel {
    unclaimed: BTreeSet<u64>,
    cursor: u64,
    inflight: usize,
    streak: u32,
    ready_at: SimTime,
    completed: usize,
    failed: usize,
}

impl StreamModel {
    /// The next claim: the first claimable block at or after the
    /// cursor, wrapping once.
    fn next(&self) -> Option<u64> {
        let after = self.unclaimed.range(self.cursor..).next();
        after.or(self.unclaimed.iter().next()).copied()
    }
}

/// Checks one stream's spans against the model: one open span per claim
/// in flight, one finished span per settled claim, and one failed
/// instant per failed claim, stamped on that claim's span as it ends.
fn check_stream_spans(spans: &Spans, kind: &str, failed: &str, model: &StreamModel) {
    prop_assert_eq!(spans.open_count(), model.inflight, "{} open", kind);
    let ended = spans.finished_of(kind);
    prop_assert_eq!(
        ended.len(),
        model.completed + model.failed,
        "{} ended",
        kind
    );
    let instants = spans.finished_of(failed);
    prop_assert_eq!(instants.len(), model.failed, "{}", failed);
    for f in &instants {
        prop_assert!(
            ended.iter().any(|s| s.id == f.parent && s.end == f.start),
            "{} not on an ending {}",
            failed,
            kind
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The background copy and snapshot-back, driven through the same
    /// random requests and outcomes, claim the same blocks in the same
    /// order and agree with an independent model: the window never holds
    /// more than its depth; the `k`-th consecutive failed request backs
    /// off 10 ms · 2^(k−1), capped at 1 s, however many claims it
    /// carried, and a completion resets it; every claim in flight has
    /// one open span and a failed one ends with its `*_failed` instant;
    /// and a failed range becomes claimable again, from a cursor rewound
    /// over it.
    #[test]
    fn streams_share_one_policy(
        depth in 1usize..=4,
        ops in proptest::collection::vec(stream_op(), 1..60),
    ) {
        let capacity = STREAM_BLOCKS * u64::from(STREAM_BLOCK);
        let bitmap = BlockBitmap::new(capacity);
        let mut bg = BackgroundCopy::new(STREAM_BLOCK, depth, capacity);
        let mut dirty = DirtyTracker::new(capacity);
        dirty.record(BlockRange::new(Lba(0), capacity as u32));
        let mut snap = SnapshotBack::new(STREAM_BLOCK, depth);
        let (bg_spans, snap_spans) = (Spans::enabled(1 << 12), Spans::enabled(1 << 12));
        bg.stream.set_spans(bg_spans.clone());
        snap.stream.set_spans(snap_spans.clone());
        let mut model = StreamModel {
            unclaimed: (0..STREAM_BLOCKS).collect(),
            cursor: 0,
            inflight: 0,
            streak: 0,
            ready_at: SimTime::ZERO,
            completed: 0,
            failed: 0,
        };
        let mut outstanding: Vec<Vec<BlockRange>> = Vec::new();
        let mut now = SimTime::ZERO;
        let block = |b: u64| BlockRange::new(Lba(b * u64::from(STREAM_BLOCK)), STREAM_BLOCK);

        for op in ops {
            match op {
                StreamOp::Issue(k) => {
                    let mut members = Vec::new();
                    while members.len() < k {
                        let expect = model.next().filter(|_| model.inflight < depth);
                        let fetched = bg.next_fetch(now, &bitmap);
                        let sent = snap.next_send(now, &mut dirty);
                        prop_assert_eq!(fetched, expect.map(block), "retriever claim");
                        prop_assert_eq!(sent, expect.map(block), "sender claim");
                        let Some(b) = expect else { break };
                        model.unclaimed.remove(&b);
                        model.cursor = b + 1;
                        model.inflight += 1;
                        members.push(block(b));
                    }
                    if !members.is_empty() {
                        outstanding.push(members);
                    }
                }
                StreamOp::Settle(i, ok) => {
                    if outstanding.is_empty() {
                        continue;
                    }
                    let members = outstanding.remove(i % outstanding.len());
                    model.inflight -= members.len();
                    if ok {
                        for &range in &members {
                            let data = vec![SectorData(0); range.sectors as usize].into();
                            bg.deliver(now, FetchedBlock { range, data });
                            snap.ack(now, range);
                        }
                        model.completed += members.len();
                        model.streak = 0;
                        model.ready_at = SimTime::ZERO;
                    } else {
                        bg.request_failed(now, &members);
                        snap.request_failed(now, &members, &mut dirty);
                        for range in &members {
                            let b = range.lba.0 / u64::from(STREAM_BLOCK);
                            model.unclaimed.insert(b);
                            model.cursor = model.cursor.min(b);
                        }
                        model.failed += members.len();
                        model.streak += 1;
                        let wait_ms = (10u64 << (model.streak - 1).min(10)).min(1_000);
                        model.ready_at = now + SimDuration::from_millis(wait_ms);
                    }
                }
                StreamOp::Advance(ms) => now += SimDuration::from_millis(ms),
            }
            prop_assert!(model.inflight <= depth);
            prop_assert_eq!(bg.inflight(), model.inflight);
            prop_assert_eq!(snap.inflight(), model.inflight);
            prop_assert_eq!(bg.stream.ready_at(), model.ready_at);
            prop_assert_eq!(snap.stream.ready_at(), model.ready_at);
            prop_assert_eq!(bg.consecutive_failures(), model.streak);
            prop_assert_eq!(snap.consecutive_failures(), model.streak);
            check_stream_spans(&bg_spans, "bg.fetch", "bg.fetch_failed", &model);
            check_stream_spans(&snap_spans, "snap.send", "snap.send_failed", &model);
        }
    }
}
