//! Microbenchmarks for the deployment-phase hot paths.
//!
//! The bitmap targets run at the paper's 32-GB image scale (67,108,864
//! sectors) where the word-parallel + summary implementation must win:
//! every guest I/O consults the bitmap and every background block is
//! claimed through it, so these operations bound the whole deployment.
//! `next_empty_per_sector_reference` re-implements the old linear scan
//! so the speedup is measured in the same run.
//!
//! The `aoe_wire` targets time one frame of the wire layer: checksum,
//! encode and decode of an MTU-sized read reply, and a v3 multi-range
//! request. The reply is timed on the sector path (`encode_frame`,
//! `decode_frame`) next to the dense byte path it replaced;
//! `checksum_mtu_frame_byte_serial_reference` is the seed's byte-serial
//! checksum, for the same in-run comparison. The `aoe_server` targets
//! time `AoeServer::handle` on one 8-sector read, cache hit and miss.

use aoe::wire::{frame_checksum, sectors_per_frame, AoePdu, Tag};
use aoe::{AoeClient, AoeServer, ClientConfig, ServerConfig};
use bmcast::bitmap::BlockBitmap;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hwsim::block::{BlockRange, BlockStore, Lba};
use hwsim::disk::{DiskModel, DiskParams};
use simkit::SimTime;
use std::time::Duration;

/// 32 GB of 512-byte sectors — the paper's deployment image size.
const SECTORS_32GB: u64 = (32u64 << 30) / 512;

/// Deterministic pseudo-random LBA stream (no entropy in benches).
fn lba_stream(seed: u64, n: usize, span: u64) -> Vec<u64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 16) % span
        })
        .collect()
}

/// A 32-GB bitmap that is ~99% filled: the regime late in a deployment
/// where `next_empty` formerly crawled sector-by-sector over filled runs.
fn mostly_filled() -> BlockBitmap {
    let mut bm = BlockBitmap::new(SECTORS_32GB);
    let mut lba = 0u64;
    while lba < SECTORS_32GB {
        let sectors = (SECTORS_32GB - lba).min(1 << 22) as u32;
        bm.mark_filled(BlockRange::new(Lba(lba), sectors));
        lba += sectors as u64;
    }
    // Punch sparse holes so there is always a next empty sector to find.
    for hole in lba_stream(0x5EED, 64, SECTORS_32GB) {
        bm.clear(BlockRange::new(Lba(hole), 1));
    }
    bm
}

/// The seed's `next_empty`: a per-sector linear probe with wrap-around.
fn next_empty_per_sector(bm: &BlockBitmap, from: Lba) -> Option<Lba> {
    let cap = bm.capacity_sectors();
    let start = from.0.min(cap);
    let probe = |lo: u64, hi: u64| {
        (lo..hi).find(|&s| !bm.is_filled(Lba(s))).map(Lba)
    };
    probe(start, cap).or_else(|| probe(0, start))
}

fn bench_bitmap(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitmap_32gb");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_secs(1))
        .measurement_time(Duration::from_secs(5));

    let ranges: Vec<BlockRange> = lba_stream(0x5EED, 1024, SECTORS_32GB - 2048)
        .into_iter()
        .map(|lba| BlockRange::new(Lba(lba), 2048))
        .collect();

    group.bench_function("mark_filled_1mb_blocks", |b| {
        let mut bm = BlockBitmap::new(SECTORS_32GB);
        let mut i = 0;
        b.iter(|| {
            bm.mark_filled(ranges[i % ranges.len()]);
            i += 1;
        })
    });

    group.bench_function("try_claim_1mb_blocks", |b| {
        let mut bm = BlockBitmap::new(SECTORS_32GB);
        let mut i = 0;
        b.iter(|| {
            let r = ranges[i % ranges.len()];
            if !bm.try_claim(r) {
                bm.clear(r);
            }
            i += 1;
        })
    });

    group.bench_function("empty_subranges_half_filled", |b| {
        let mut bm = BlockBitmap::new(SECTORS_32GB);
        // Alternate filled/empty 4 KB stripes: the worst case for run
        // assembly without being a pathological single-sector checker.
        let mut lba = 0u64;
        while lba < SECTORS_32GB {
            bm.mark_filled(BlockRange::new(Lba(lba), 8));
            lba += 16;
        }
        let mut i = 0;
        b.iter(|| {
            let r = ranges[i % ranges.len()];
            i += 1;
            bm.empty_subranges(r).len()
        })
    });

    let bm = mostly_filled();
    // A different seed than the holes: probes must land on filled
    // runs, not on the holes themselves.
    let probes = lba_stream(0xD15C, 256, SECTORS_32GB);

    group.bench_function("next_empty_summary", |b| {
        let mut i = 0;
        b.iter(|| {
            let from = Lba(probes[i % probes.len()]);
            i += 1;
            bm.next_empty(from)
        })
    });

    group.bench_function("next_empty_per_sector_reference", |b| {
        let mut i = 0;
        b.iter(|| {
            let from = Lba(probes[i % probes.len()]);
            i += 1;
            next_empty_per_sector(&bm, from)
        })
    });

    group.finish();
}

/// `AoeServer::handle` for one 8-sector read request: decode, cache
/// lookup, disk pricing on a miss, worker assignment and the one-frame
/// reply. The hit target re-reads one warm range; the miss target walks
/// ranges four times the cache's capacity, so every lookup misses and
/// evicts.
fn bench_server(c: &mut Criterion) {
    let mut group = c.benchmark_group("aoe_server");
    group
        .sample_size(1_000)
        .warm_up_time(Duration::from_secs(1))
        .measurement_time(Duration::from_secs(3));

    const CACHE: usize = 64;
    let server = || {
        let params = DiskParams {
            capacity_sectors: 1 << 16,
            ..DiskParams::default()
        };
        let store = BlockStore::image(params.capacity_sectors, 7);
        let cfg = ServerConfig {
            cache_entries: CACHE,
            ..ServerConfig::default()
        };
        AoeServer::new(cfg, DiskModel::new(params, store))
    };
    let requests: Vec<Vec<u8>> = (0..4 * CACHE as u64)
        .map(|i| {
            let range = BlockRange::new(Lba(i * 8), 8);
            AoePdu::read_request(0, 0, Tag::new(i as u32, 0), range).encode()
        })
        .collect();

    group.bench_function("handle_read_cache_hit", |b| {
        let mut s = server();
        s.handle(SimTime::ZERO, &requests[0]).expect("decodes");
        b.iter(|| {
            s.handle(SimTime::ZERO, black_box(&requests[0]))
                .expect("decodes")
                .expect("replies")
        })
    });
    group.bench_function("handle_read_cache_miss", |b| {
        let mut s = server();
        let mut next = requests.iter().cycle();
        b.iter(|| {
            let req = next.next().expect("cycles forever");
            s.handle(SimTime::ZERO, black_box(req))
                .expect("decodes")
                .expect("replies")
        })
    });

    group.finish();
}

fn bench_aoe(c: &mut Criterion) {
    let mut group = c.benchmark_group("aoe_roundtrip");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_secs(1))
        .measurement_time(Duration::from_secs(5));

    // A 1 MB read: encode the request, let the server build the fragment
    // train against its store, and feed every fragment back through the
    // client's reassembly. This is the whole wire path of one background
    // copy block.
    group.bench_function("read_1mb_encode_handle_decode", |b| {
        let params = DiskParams {
            capacity_sectors: 1 << 16,
            ..DiskParams::default()
        };
        let store = BlockStore::image(params.capacity_sectors, 7);
        let mut server = AoeServer::new(ServerConfig::default(), DiskModel::new(params, store));
        let mut client = AoeClient::new(ClientConfig::default());
        let range = BlockRange::new(Lba(0), 2048);
        b.iter(|| {
            let (_, frames) = client.read(SimTime::ZERO, range);
            let reply = server
                .handle(SimTime::ZERO, &frames[0])
                .expect("decodes")
                .expect("replies");
            let mut done = None;
            for f in &reply.frames {
                if let Some(c) = client.on_frame(SimTime::ZERO, f) {
                    done = Some(c);
                }
            }
            done.expect("read completes").data.len()
        })
    });

    group.finish();
}

/// The seed's byte-serial frame checksum, for the in-run comparison.
fn frame_checksum_byte_serial(bytes: &[u8]) -> u16 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (i, &b) in bytes.iter().enumerate() {
        let b = if i == 22 || i == 23 { 0 } else { b };
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    (h ^ (h >> 16) ^ (h >> 32) ^ (h >> 48)) as u16
}

/// The AoE wire layer on its own, one frame per iteration: a 9000-MTU
/// read reply fragment (17 sectors, 8,728 bytes; a snapshot-back write
/// has the same shape) and a v3 multi-range read of 64 runs (the
/// batched transport's request).
fn bench_wire(c: &mut Criterion) {
    let mut group = c.benchmark_group("aoe_wire");
    group
        .sample_size(10_000)
        .warm_up_time(Duration::from_secs(1))
        .measurement_time(Duration::from_secs(3));

    let sectors = sectors_per_frame(9000);
    let range = BlockRange::new(Lba(4096), sectors);
    let data = range
        .iter()
        .map(|l| BlockStore::image_content(7, l))
        .collect();
    let mut mtu = AoePdu::read_request(0, 0, Tag::new(1, 0), range);
    mtu.response = true;
    mtu.data = Some(data);
    let mtu_bytes = mtu.encode();
    let mtu_frame = mtu.encode_frame();

    group.bench_function("checksum_mtu_frame", |b| {
        b.iter(|| frame_checksum(black_box(&mtu_bytes)))
    });
    group.bench_function("checksum_mtu_frame_byte_serial_reference", |b| {
        b.iter(|| frame_checksum_byte_serial(black_box(&mtu_bytes)))
    });
    group.bench_function("encode_frame_mtu_reply", |b| b.iter(|| mtu.encode_frame()));
    group.bench_function("encode_mtu_reply_dense_reference", |b| {
        b.iter(|| mtu.encode())
    });
    group.bench_function("decode_frame_mtu_reply", |b| {
        b.iter(|| AoePdu::decode_frame(black_box(&mtu_frame)).expect("frame decodes"))
    });
    group.bench_function("decode_mtu_reply_dense_reference", |b| {
        b.iter(|| AoePdu::decode(black_box(&mtu_bytes)).expect("frame decodes"))
    });

    let runs: Vec<BlockRange> = lba_stream(0xBA7C, 64, 1 << 30)
        .into_iter()
        .map(|lba| BlockRange::new(Lba(lba), 8))
        .collect();
    let multi = AoePdu::read_multi_request(0, 0, Tag::new(2, 0), runs);
    let multi_bytes = multi.encode();
    group.bench_function("encode_v3_multi_range_64_runs", |b| {
        b.iter(|| multi.encode_frame())
    });
    group.bench_function("decode_v3_multi_range_64_runs", |b| {
        b.iter(|| AoePdu::decode(black_box(&multi_bytes)).expect("frame decodes"))
    });

    group.finish();
}

criterion_group!(benches, bench_bitmap, bench_aoe, bench_server, bench_wire);
criterion_main!(benches);
