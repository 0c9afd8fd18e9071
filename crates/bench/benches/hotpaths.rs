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
//! time the queued server path (`enqueue` + `dispatch`) on one 8-sector
//! read, cache hit and miss, and on one warm 1 MiB copy block.
//!
//! The `mediator` targets time command decode: an IDE READ DMA EXT's
//! register sequence and an AHCI command issue, each passed through.
//!
//! The `hw_disk` targets time the disk layer every copy-on-read fill,
//! background write and dummy-sector read goes through: the drive
//! model's `access_time` (a cached and a cold 1 MiB read, and one
//! sector against the worst-case window of 4,096 one-sector runs, as a
//! miss and as a hit), `BlockStore::write_range` of a 1 MiB image block
//! into a mirror store, with and without 32 MiB of tenant pages, and
//! `read_range` of one 17-sector MTU fragment from an image store.
//!
//! The `block_store` and `aoe_client` targets time the two ends of a
//! 1 MiB copy block's reply: the origin reading it out of its image
//! store, and the client reassembling the server's 121-frame reply
//! burst, each frame handed to `on_frame` by value.

use aoe::server::ServerReply;
use aoe::wire::{frame_checksum, sectors_per_frame, AoePdu, FrameBytes, Tag};
use aoe::{AoeClient, AoeServer, ClientConfig, Enqueued, ServerConfig};
use bmcast::bitmap::BlockBitmap;
use bmcast::mediator::{AhciMediator, IdeMediator, PioVerdict};
use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use hwsim::ahci::{preg, AhciCmdHeader, AhciCmdList, AhciCmdTable, H2dFis, PORT_BASE};
use hwsim::block::{BlockRange, BlockStore, Lba, SectorData};
use hwsim::disk::{DiskModel, DiskOp, DiskParams};
use hwsim::ide::{AtaOp, IdeReg, PrdEntry, PrdTable};
use hwsim::mem::{DmaBuffer, PhysMem};
use simkit::{SimTime, NO_SPAN};
use std::cell::RefCell;
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
    let probe = |lo: u64, hi: u64| (lo..hi).find(|&s| !bm.is_filled(Lba(s))).map(Lba);
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

    // Each range is cleared untimed before it is marked, so every
    // iteration fills empty sectors however many iterations run.
    group.bench_function("mark_filled_1mb_blocks", |b| {
        let bm = RefCell::new(BlockBitmap::new(SECTORS_32GB));
        let mut i = 0;
        b.iter_batched(
            || {
                let r = ranges[i % ranges.len()];
                i += 1;
                bm.borrow_mut().clear(r);
                r
            },
            |r| bm.borrow_mut().mark_filled(r),
            BatchSize::SmallInput,
        )
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

/// Serves `frame` on the queued path every simulated run takes: enqueue
/// it, then dispatch it once a worker is free, `now` moving on to that
/// instant.
fn serve_queued(server: &mut AoeServer, now: &mut SimTime, frame: &[u8]) -> ServerReply {
    let queued = server.enqueue(*now, 0, frame).expect("decodes");
    assert_eq!(queued, Enqueued::Queued);
    *now = (*now).max(server.next_dispatch_at().expect("a request is queued"));
    server.dispatch(*now).expect("a worker is free").1
}

/// The queued server path (`enqueue` + `dispatch`) for one read request:
/// decode, queueing, the DRR pick, cache lookup, disk pricing on a miss,
/// worker assignment and the reply burst. The 8-sector hit target
/// re-reads one warm range; the miss target walks ranges four times the
/// cache's capacity, so every lookup misses and evicts.
/// `dispatch_read_1mib` serves one warm 1 MiB copy block: its 121-frame
/// reply burst.
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
    let read = |id: usize, lba: u64, sectors: u32| {
        let range = BlockRange::new(Lba(lba), sectors);
        AoePdu::read_request(0, 0, Tag::new(id as u32, 0), range).encode()
    };
    let requests: Vec<Vec<u8>> = (0..4 * CACHE).map(|i| read(i, i as u64 * 8, 8)).collect();

    group.bench_function("dispatch_read_cache_hit", |b| {
        let (mut s, mut now) = (server(), SimTime::ZERO);
        serve_queued(&mut s, &mut now, &requests[0]);
        b.iter(|| serve_queued(&mut s, &mut now, black_box(&requests[0])))
    });
    group.bench_function("dispatch_read_cache_miss", |b| {
        let (mut s, mut now) = (server(), SimTime::ZERO);
        let mut next = requests.iter().cycle();
        b.iter(|| {
            let req = next.next().expect("cycles forever");
            serve_queued(&mut s, &mut now, black_box(req))
        })
    });
    let block = read(1, 4096, 2048);
    group.bench_function("dispatch_read_1mib", |b| {
        let (mut s, mut now) = (server(), SimTime::ZERO);
        serve_queued(&mut s, &mut now, &block);
        b.iter(|| serve_queued(&mut s, &mut now, black_box(&block)))
    });

    group.finish();
}

/// Mediator decode, one guest command per iteration, each a read over
/// filled sectors, so it passes through and the mediator ends as it
/// began: the IDE target is a READ DMA EXT's whole register sequence
/// (PRD pointer, the two-byte taskfile, device, command) through
/// `IdeMediator::on_guest_write`, then the bus-master start that arms it
/// and the stop; the AHCI target is one `PxCI` write issuing a
/// READ DMA slot, which `AhciMediator::on_guest_write` decodes by
/// walking the guest's command list and table.
fn bench_mediator(c: &mut Criterion) {
    let mut group = c.benchmark_group("mediator");
    group
        .sample_size(10_000)
        .warm_up_time(Duration::from_secs(1))
        .measurement_time(Duration::from_secs(3));
    let mut bitmap = BlockBitmap::new(1 << 16);
    bitmap.mark_filled(BlockRange::new(Lba(0), 1 << 16));

    let mut ide = IdeMediator::new(None);
    let sequence = [
        (IdeReg::BmPrdAddr, 0x1000),
        (IdeReg::SectorCount, 0),
        (IdeReg::SectorCount, 8),
        (IdeReg::LbaLow, 0),
        (IdeReg::LbaLow, 64),
        (IdeReg::LbaMid, 0),
        (IdeReg::LbaMid, 0),
        (IdeReg::LbaHigh, 0),
        (IdeReg::LbaHigh, 0),
        (IdeReg::Device, 0x40),
        (IdeReg::Command, 0x25),
        (IdeReg::BmCommand, 0x01),
        (IdeReg::BmCommand, 0x00),
    ];
    group.bench_function("ide_read_dma_ext_register_sequence", |b| {
        b.iter(|| {
            for &(reg, val) in &sequence {
                let verdict = ide.on_guest_write(reg, black_box(val), &mut bitmap);
                assert_eq!(verdict, PioVerdict::Forward);
            }
        })
    });

    let mut mem = PhysMem::new(1 << 30);
    let mut ahci = AhciMediator::new(None);
    let clb = mem.alloc(AhciCmdList::new());
    ahci.on_guest_write(PORT_BASE + preg::CLB, clb.0, &mem, &mut bitmap);
    let range = BlockRange::new(Lba(64), 8);
    let buf = mem.alloc(DmaBuffer::new(8));
    let table = mem.alloc(AhciCmdTable {
        cfis: H2dFis {
            op: AtaOp::ReadDma,
            range,
        },
        prdt: PrdTable {
            entries: vec![PrdEntry { buf, sectors: 8 }],
        },
    });
    mem.get_mut::<AhciCmdList>(clb).expect("command list").slots[0] = Some(AhciCmdHeader {
        ctba: table,
        write: false,
    });
    group.bench_function("ahci_command_issue", |b| {
        b.iter(|| ahci.on_guest_write(PORT_BASE + preg::CI, black_box(1), &mem, &mut bitmap))
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
            let (_, frames) = client.read(SimTime::ZERO, range, NO_SPAN);
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

/// The hw disk layer, one call per iteration. Every target leaves the
/// model as it found it, or cycles through states of the same cost.
fn bench_disk(c: &mut Criterion) {
    let mut group = c.benchmark_group("hw_disk");
    group
        .sample_size(2_000)
        .warm_up_time(Duration::from_secs(1))
        .measurement_time(Duration::from_secs(3));
    let params = DiskParams::default();
    let cap = params.capacity_sectors;
    let disk = || DiskModel::new(params.clone(), BlockStore::zeroed(cap));
    let mib = |i: u64| BlockRange::new(Lba(i * 2048), 2048);

    // A cached read is answered without being remembered again.
    let mut cached = disk();
    cached.access_time(DiskOp::Write, mib(0));
    group.bench_function("access_time_1mib_read_cached", |b| {
        b.iter(|| cached.access_time(DiskOp::Read, black_box(mib(0))))
    });
    // Three 1 MiB ranges in turn against a 2 MiB window: always a miss.
    let mut cold = disk();
    let mut turn = 0u64;
    group.bench_function("access_time_1mib_read_cold", |b| {
        b.iter(|| {
            turn = (turn + 1) % 3;
            cold.access_time(DiskOp::Read, black_box(mib(turn * 1000)))
        })
    });
    // 4,097 one-sector runs two sectors apart, pushed in turn: the window
    // holds all but the one evicted last, so probing them in push order
    // misses every time and keeps the window at 4,096 runs.
    let runs = params.cache_sectors as u64 + 1;
    let one = |i: u64| BlockRange::new(Lba(2 * (i % runs)), 1);
    let mut window = disk();
    for i in 0..runs {
        window.access_time(DiskOp::Write, one(i));
    }
    let mut next = 0u64;
    group.bench_function("access_time_4096_runs_miss", |b| {
        b.iter(|| {
            let t = window.access_time(DiskOp::Read, black_box(one(next)));
            next += 1;
            t
        })
    });
    // The newest run: a hit found at the end of a full pass.
    let newest = one(next + runs - 1);
    assert!(window.cache_hit(newest));
    group.bench_function("access_time_4096_runs_hit", |b| {
        b.iter(|| window.access_time(DiskOp::Read, black_box(newest)))
    });

    let seed = 0x1DE;
    let block = mib(4096);
    let image: Vec<_> = block
        .iter()
        .map(|l| BlockStore::image_content(seed, l))
        .collect();
    let mut mirror = BlockStore::zeroed_with_mirror(SECTORS_32GB, seed);
    group.bench_function("write_range_1mib_image_block_mirror", |b| {
        b.iter(|| mirror.write_range(black_box(block), &image))
    });
    // 32 MiB of tenant data elsewhere: one page lookup per 64 sectors.
    let tenant = vec![SectorData(7); 2048];
    for i in 0..32 {
        mirror.write_range(mib(i * 2), &tenant);
    }
    group.bench_function("write_range_1mib_image_block_mirror_32mib_tenant", |b| {
        b.iter(|| mirror.write_range(black_box(block), &image))
    });

    let server = BlockStore::image(SECTORS_32GB, seed);
    let fragment = BlockRange::new(Lba(4096), sectors_per_frame(9000));
    group.bench_function("read_range_mtu_fragment_image", |b| {
        b.iter(|| server.read_range(black_box(fragment)))
    });
    group.finish();
}

/// One 1 MiB copy block's reply, at each end: `read_range` of the block
/// from a 32-GB image store, and the client's reassembly of the
/// server's reply burst, frame by frame and by value, so each frame's
/// data moves into its slot. Each burst is served before the timer
/// starts, so only `on_frame` is timed.
fn bench_reply_path(c: &mut Criterion) {
    let block = BlockRange::new(Lba(4096), 2048);
    let mut group = c.benchmark_group("block_store");
    group
        .sample_size(1_000)
        .warm_up_time(Duration::from_secs(1))
        .measurement_time(Duration::from_secs(3));
    let image = BlockStore::image(SECTORS_32GB, 0x1DE);
    group.bench_function("read_range_image_1mib", |b| {
        b.iter(|| image.read_range(black_box(block)))
    });
    group.finish();

    let mut group = c.benchmark_group("aoe_client");
    group
        .sample_size(200)
        .warm_up_time(Duration::from_secs(1))
        .measurement_time(Duration::from_secs(3));
    let params = DiskParams {
        capacity_sectors: 1 << 16,
        ..DiskParams::default()
    };
    let store = BlockStore::image(params.capacity_sectors, 7);
    let mut server = AoeServer::new(ServerConfig::default(), DiskModel::new(params, store));
    let client = RefCell::new(AoeClient::new(ClientConfig::default()));
    let mut serve = || -> Vec<FrameBytes> {
        let (_, request) = client.borrow_mut().read(SimTime::ZERO, block, NO_SPAN);
        let reply = server.handle(SimTime::ZERO, &request[0]).expect("decodes");
        reply.expect("replies").frames
    };
    group.bench_function("reassemble_1mib_reply", |b| {
        b.iter_batched(
            &mut serve,
            |burst| {
                let mut client = client.borrow_mut();
                let mut done = None;
                for f in burst {
                    done = done.or(client.on_frame(SimTime::ZERO, f));
                }
                done.expect("read completes").data.len()
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_bitmap,
    bench_aoe,
    bench_server,
    bench_mediator,
    bench_wire,
    bench_disk,
    bench_reply_path
);
criterion_main!(benches);
