//! Per-layer measurements: counters read from a traced pass's metrics
//! snapshot and getters, and host-time loops over each layer's public
//! functions with inputs shaped like the workload.

use aoe::wire::{sectors_per_frame, AoePdu, Tag};
use aoe::{AoeServer, ServerConfig};
use bmcast::bitmap::BlockBitmap;
use bmcast::machine::Machine;
use hwsim::block::{BlockRange, BlockStore, Lba, SectorData};
use hwsim::disk::{DiskModel, DiskParams};
use simkit::{Histogram, MetricsSnapshot, Prng, Sim, SimDuration, SimTime, Spans};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::{median, p50_tail};

/// Per-layer metric values by name.
pub type Readout = BTreeMap<&'static str, f64>;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Reads every counter-backed per-layer metric from a metrics snapshot
/// (a single machine's, or a fleet's merged one).
pub fn read_snapshot(snap: &MetricsSnapshot, out: &mut Readout) {
    let c = |name: &str| snap.counter(name) as f64;
    let requests = c("aoe.server.requests");
    let (hits, misses) = (c("server.cache.hits"), c("server.cache.misses"));
    let (drops, dedups) = (c("server.queue.drops"), c("server.queue.dedups"));
    out.insert("aoe.server.requests", requests);
    out.insert("aoe.server.sectors_read", c("aoe.server.sectors_read"));
    out.insert(
        "aoe.server.sectors_written",
        c("aoe.server.sectors_written"),
    );
    out.insert("aoe.server.cache_hit_ratio", ratio(hits, hits + misses));
    out.insert("aoe.server.queue_drops", drops);
    out.insert("aoe.server.queue_dedups", dedups);
    out.insert("aoe.server.busy_replies", c("aoe.server.busy_replies"));
    // Request frames that reached a worker, of all that arrived.
    out.insert(
        "aoe.server.useful_ratio",
        ratio(requests, requests + drops + dedups),
    );

    let (reads, writes) = (c("aoe.client.reads"), c("aoe.client.writes"));
    let retransmits = c("aoe.client.retransmits");
    out.insert("aoe.client.reads", reads);
    out.insert("aoe.client.writes", writes);
    out.insert("aoe.client.retransmits", retransmits);
    out.insert("aoe.client.failures", c("aoe.client.failures"));
    out.insert("aoe.client.busy_hints", c("aoe.client.busy_hints"));
    // First transmissions, of all request frames sent.
    out.insert(
        "aoe.client.useful_ratio",
        ratio(reads + writes, reads + writes + retransmits),
    );

    let (written, discarded) = (c("bg.blocks_written"), c("bg.blocks_discarded"));
    out.insert("bg.fetches", c("bg.fetches"));
    out.insert("bg.fetch_backoffs", c("bg.fetch_backoffs"));
    out.insert("bg.blocks_discarded", discarded);
    // Fetched blocks that landed on disk rather than being dropped
    // because the guest wrote the range first.
    out.insert("bg.useful_ratio", ratio(written, written + discarded));

    let mediators = |suffix: &str| -> f64 {
        ["ide", "ahci", "megasas"]
            .iter()
            .map(|m| c(&format!("mediator.{m}.{suffix}")))
            .sum()
    };
    out.insert(
        "mediator.interpreted_commands",
        mediators("interpreted_commands"),
    );
    out.insert("mediator.redirects", mediators("redirects"));
    out.insert("mediator.multiplexes", mediators("multiplexes"));
    out.insert("mediator.queued_accesses", mediators("queued_accesses"));
    let (redirected, local) = (c("machine.redirected_ios"), c("machine.local_ios"));
    out.insert(
        "machine.redirect_share",
        ratio(redirected, redirected + local),
    );

    out.insert("snap.sends", c("snap.sends"));
    out.insert("snap.bytes_sent", c("snap.bytes_sent"));
    out.insert("snap.send_failures", c("snap.send_failures"));
    out.insert("snap.send_backoffs", c("snap.send_backoffs"));
}

/// Guest I/O latency p50 and tail over every machine, in µs.
pub fn read_guest_latency<'a>(machines: impl Iterator<Item = &'a Machine>, out: &mut Readout) {
    let mut all = Histogram::new();
    for m in machines {
        all.merge(&m.guest.io_latency);
    }
    let (p50, tail) = p50_tail(&mut all);
    out.insert("guest.io_latency_p50_us", p50 * 1e6);
    out.insert("guest.io_latency_tail_us", tail * 1e6);
}

/// AoE round-trip p50 and tail in µs, from the flight recorder's
/// `aoe.rtt` spans.
pub fn read_rtt<'a>(stores: impl Iterator<Item = &'a Spans>, out: &mut Readout) {
    let mut us = Histogram::new();
    for span in stores.flat_map(|s| s.finished_of("aoe.rtt")) {
        us.record(span.duration().as_nanos() as f64 / 1e3);
    }
    let (p50, tail) = p50_tail(&mut us);
    out.insert("aoe.rtt_p50_us", p50);
    out.insert("aoe.rtt_tail_us", tail);
}

/// Workload-shaped inputs for the host-time loops.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Image size in sectors (bitmap size, server volume size).
    pub image_sectors: u64,
    /// Image content seed.
    pub image_seed: u64,
    /// Sectors per background-copy block (server read size).
    pub block_sectors: u32,
    /// Fabric MTU (fragment size of read replies).
    pub mtu: u32,
    /// Input seed of the loops.
    pub seed: u64,
}

/// Median over `reps` batches of `f`'s nanoseconds per operation; `f`
/// runs one batch and returns how many operations it did.
fn ns_per_op(reps: usize, mut f: impl FnMut() -> u64) -> f64 {
    let per: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let ops = f().max(1);
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&per)
}

/// The event loop's world for the dispatch loop: each event schedules
/// its successor a pseudo-random delay later, keeping a fixed number
/// of events pending, as a fleet's member timelines do.
struct Ticker {
    prng: Prng,
    remaining: u64,
}

fn tick(w: &mut Ticker, sim: &mut Sim<Ticker>) {
    if w.remaining > 0 {
        w.remaining -= 1;
        let d = SimDuration::from_nanos(1 + w.prng.below(50_000));
        sim.schedule_in(d, tick);
    }
}

/// `simkit.dispatch_ns`: one schedule plus one step, per event.
fn dispatch_ns(seed: u64) -> f64 {
    const PENDING: u64 = 4096;
    const EVENTS: u64 = 200_000;
    ns_per_op(5, || {
        let mut sim = Sim::<Ticker>::new();
        let mut world = Ticker {
            prng: Prng::new(seed),
            remaining: EVENTS - PENDING,
        };
        for i in 0..PENDING {
            sim.schedule_at(SimTime::from_nanos(i), tick);
        }
        while sim.step(&mut world) {}
        black_box(sim.executed_events())
    })
}

/// `aoe.server.handle_{hit,miss}_ns`: one read request per call, first
/// over distinct block ranges (every one a cache miss), then the same
/// ranges again (every one a hit). The cache holds every range, as the
/// fleet's does.
fn handle_ns(shape: &Shape) -> (f64, f64) {
    let block = shape.block_sectors.min(shape.image_sectors as u32);
    let blocks = (shape.image_sectors / block as u64).clamp(1, 64);
    let mut prng = Prng::new(shape.seed ^ 0x4A4E);
    let mut order: Vec<u64> = (0..blocks).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, prng.below(i as u64 + 1) as usize);
    }
    let frames: Vec<Vec<u8>> = order
        .iter()
        .enumerate()
        .map(|(i, &b)| {
            let range = BlockRange::new(Lba(b * block as u64), block);
            AoePdu::read_request(0, 0, Tag::new(i as u32, 0), range).encode()
        })
        .collect();
    let server = || {
        let params = DiskParams {
            capacity_sectors: shape.image_sectors,
            ..DiskParams::default()
        };
        AoeServer::new(
            ServerConfig {
                cache_entries: blocks as usize,
                mtu: shape.mtu,
                ..ServerConfig::default()
            },
            DiskModel::new(
                params,
                BlockStore::image(shape.image_sectors, shape.image_seed),
            ),
        )
    };
    let serve_all = |srv: &mut AoeServer, now: &mut SimTime| {
        for f in &frames {
            let reply = srv.handle(*now, f).expect("request decodes");
            black_box(reply.expect("request is for this server").frames.len());
            *now += SimDuration::from_micros(100);
        }
        frames.len() as u64
    };
    let mut misses = Vec::new();
    let mut hits = Vec::new();
    for _ in 0..(320 / blocks).max(5) {
        let mut srv = server();
        let mut now = SimTime::ZERO;
        let t = Instant::now();
        let n = serve_all(&mut srv, &mut now);
        misses.push(t.elapsed().as_nanos() as f64 / n as f64);
        let t = Instant::now();
        let n = serve_all(&mut srv, &mut now);
        hits.push(t.elapsed().as_nanos() as f64 / n as f64);
    }
    (median(&hits), median(&misses))
}

/// `aoe.wire.{encode,decode}_ns`: one MTU-sized data frame (a read
/// reply fragment or a snapshot-back write) per call.
fn wire_ns(shape: &Shape) -> (f64, f64) {
    let sectors = sectors_per_frame(shape.mtu);
    let pdus: Vec<AoePdu> = (0..256u64)
        .map(|i| {
            let range = BlockRange::new(Lba(i * sectors as u64), sectors);
            let data = (0..sectors as u64)
                .map(|s| BlockStore::image_content(shape.image_seed, Lba(i * 64 + s)))
                .collect::<Vec<SectorData>>();
            AoePdu::write_request(0, 0, Tag::new(i as u32, 0), range, data)
        })
        .collect();
    let encoded: Vec<Vec<u8>> = pdus.iter().map(|p| p.encode()).collect();
    let encode = ns_per_op(7, || {
        for _ in 0..40 {
            for p in &pdus {
                black_box(p.encode());
            }
        }
        40 * pdus.len() as u64
    });
    let decode = ns_per_op(7, || {
        for _ in 0..40 {
            for e in &encoded {
                black_box(AoePdu::decode(e).expect("frame decodes"));
            }
        }
        40 * encoded.len() as u64
    });
    (encode, decode)
}

/// `bitmap.{try_claim,next_empty,empty_subranges}_ns` on a bitmap the
/// size of the workload's image: claims walk the copy blocks in the
/// retriever's order, scans probe a half-filled bitmap (alternating
/// 4 KiB stripes) at pseudo-random points, with guest-I/O-sized ranges.
fn bitmap_ns(shape: &Shape) -> (f64, f64, f64) {
    let cap = shape.image_sectors;
    let block = shape.block_sectors.min(cap as u32) as u64;
    let claim = ns_per_op(5, || {
        let mut bm = BlockBitmap::new(cap);
        let mut n = 0;
        let mut lba = 0;
        while lba + block <= cap {
            black_box(bm.try_claim(BlockRange::new(Lba(lba), block as u32)));
            lba += block;
            n += 1;
        }
        n
    });
    let mut striped = BlockBitmap::new(cap);
    let mut lba = 0;
    while lba + 8 <= cap {
        striped.mark_filled(BlockRange::new(Lba(lba), 8));
        lba += 16;
    }
    let mut prng = Prng::new(shape.seed ^ 0xB17);
    let probes: Vec<u64> = (0..1024).map(|_| prng.below(cap - block)).collect();
    let next_empty = ns_per_op(5, || {
        for &p in &probes {
            black_box(striped.next_empty(Lba(p)));
        }
        probes.len() as u64
    });
    let subranges = ns_per_op(5, || {
        for &p in &probes {
            black_box(
                striped
                    .empty_subranges(BlockRange::new(Lba(p), block as u32))
                    .len(),
            );
        }
        probes.len() as u64
    });
    (claim, next_empty, subranges)
}

/// Runs every host-time loop and records its metric.
pub fn time_loops(shape: &Shape, out: &mut Readout) {
    out.insert("simkit.dispatch_ns", dispatch_ns(shape.seed));
    let (hit, miss) = handle_ns(shape);
    out.insert("aoe.server.handle_hit_ns", hit);
    out.insert("aoe.server.handle_miss_ns", miss);
    let (enc, dec) = wire_ns(shape);
    out.insert("aoe.wire.encode_ns", enc);
    out.insert("aoe.wire.decode_ns", dec);
    let (claim, next, sub) = bitmap_ns(shape);
    out.insert("bitmap.try_claim_ns", claim);
    out.insert("bitmap.next_empty_ns", next);
    out.insert("bitmap.empty_subranges_ns", sub);
}
