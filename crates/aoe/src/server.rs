//! vblade-style AoE storage server with a worker-pool timing model.
//!
//! The paper uses *vblade* as the server but finds it "cannot fully
//! utilize the network bandwidth because it is single-threaded and becomes
//! a performance bottleneck when the VMM sends a significant volume of
//! read requests", so they add a thread pool. This model captures exactly
//! that: each request is assigned to the earliest-free worker, pays a
//! per-request CPU cost plus the server disk's access time, and the reply
//! carries a `ready_at` timestamp the fabric layer uses for scheduling.
//! With `workers = 1` the server serializes (original vblade); with a pool
//! it overlaps disk time across requests.

use crate::wire::{
    fragment_subranges, sectors_per_frame, AoePdu, BurstEncoder, DecodeError, FrameBytes, Tag,
    WireFrame,
};
use hwsim::block::BlockRange;
use hwsim::disk::{DiskModel, DiskOp};
use hwsim::ib::{IbConfig, IbHca};
use simkit::{Metrics, SimDuration, SimTime, Spans, NO_SPAN};
use std::collections::{BTreeMap, VecDeque};

/// Per-request CPU cost of a worker (syscall + packetization), paid
/// before any disk time; a block-cache hit pays only this.
const PER_REQUEST_CPU: SimDuration = SimDuration::from_micros(40);

/// Deficit round-robin quantum in sectors: how much service one client
/// may consume per scheduling turn before yielding (times
/// [`ServerConfig::sprint_boost`] for a sprinting client).
const DRR_QUANTUM_SECTORS: u64 = 64;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Shelf address served.
    pub shelf: u16,
    /// Slot address served.
    pub slot: u8,
    /// Fabric MTU; read replies are fragmented to this size.
    pub mtu: u32,
    /// Worker threads. 1 reproduces stock vblade.
    pub workers: usize,
    /// Block-cache capacity in (slot, lba, sectors) entries; 0 disables
    /// the cache entirely (the single-machine default — one reader never
    /// re-reads a range, so a cache would only burn memory).
    pub cache_entries: usize,
    /// Per-client pending-queue bound on the queued (fleet) path;
    /// requests arriving past it are dropped and recovered by client
    /// retransmission.
    pub client_queue_limit: usize,
    /// Queued-request total at which replies start carrying the busy
    /// hint (only ever raised with two or more distinct clients, so a
    /// lone machine never throttles itself).
    pub busy_queue_threshold: usize,
    /// DRR quantum multiplier for clients whose latest queued request
    /// carries the completion-priority (sprint) flag: a machine whose
    /// deployment bitmap is nearly full is about to become a serving
    /// peer, and finishing it early *creates* capacity. 1 disables the
    /// weighting (every client gets the plain quantum).
    pub sprint_boost: u32,
    /// When set, the server exports its image over an InfiniBand HCA
    /// built from this config and serves rdma-flagged reads as one-sided
    /// READs: no worker, no per-request CPU, no disk access — the image
    /// is pinned in registered memory at export time and the transfer is
    /// priced purely by the shared HCA (serialization at the link rate
    /// plus one base latency per doorbell). `None` (the default) makes
    /// the server ignore the rdma flag and serve such requests on the
    /// normal worker path without echoing the flag.
    pub rdma: Option<IbConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shelf: 0,
            slot: 0,
            mtu: 9000,
            workers: 8,
            cache_entries: 0,
            client_queue_limit: 256,
            busy_queue_threshold: 24,
            sprint_boost: 1,
            rdma: None,
        }
    }
}

/// A served request: when the reply frames are ready to transmit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerReply {
    /// Time the assigned worker finishes the request.
    pub ready_at: SimTime,
    /// Encoded reply frames (fragments for reads, one ack for writes),
    /// as shared bytes the fabric can fan out without copying.
    pub frames: Vec<FrameBytes>,
}

/// Outcome of queueing a frame on the fleet path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enqueued {
    /// Accepted into the client's pending queue.
    Queued,
    /// The client's queue was full; the frame was dropped (client
    /// retransmission recovers it).
    Dropped,
    /// An identical request (same tag, range, direction) from the same
    /// client is already queued — this is a retransmit of work the
    /// server has not lost, so serving it twice would only amplify the
    /// congestion that delayed the first copy.
    Deduped,
    /// Decodable but not addressed to this server (or a response frame).
    NotForUs,
}

/// Cache key: the served volume (slot) plus the exact block range. The
/// slot is part of the key because one server can export several volumes
/// holding *different images* — without it, two tenants reading the same
/// LBA of different images would share a timing entry, i.e. one tenant's
/// warm blocks would price another tenant's cold ones as cache hits.
type CacheKey = (u8, u64, u32);

/// Deterministic LRU presence cache over served read ranges.
///
/// Models the server's page cache: the first reader of a range pays the
/// disk, every later reader of the *same* range on the *same* volume is
/// served from memory. Only timing is cached — payload bytes always come
/// from the addressed volume's store, so the cache can never serve stale
/// data it merely mis-prices. Keys are exact (slot, lba, sectors)
/// triples: concurrent identical boots issue identical redirect/
/// background ranges, which is precisely the fleet sharing this cache
/// exists to exploit.
#[derive(Debug, Default)]
struct BlockCache {
    capacity: usize,
    /// Monotonic use counter; recency order without wall/sim time.
    stamp: u64,
    by_key: BTreeMap<CacheKey, u64>,
    by_stamp: BTreeMap<u64, CacheKey>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl BlockCache {
    fn new(capacity: usize) -> BlockCache {
        BlockCache {
            capacity,
            ..BlockCache::default()
        }
    }

    /// Looks up `range` on volume `slot`, inserting it on a miss.
    /// Returns whether the lookup hit. Disabled (capacity 0) caches
    /// always miss and store nothing.
    fn touch(&mut self, slot: u8, range: BlockRange) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let key = (slot, range.lba.0, range.sectors);
        self.stamp += 1;
        if let Some(old) = self.by_key.insert(key, self.stamp) {
            self.by_stamp.remove(&old);
            self.by_stamp.insert(self.stamp, key);
            self.hits += 1;
            return true;
        }
        self.by_stamp.insert(self.stamp, key);
        self.misses += 1;
        if self.by_key.len() > self.capacity {
            let (&oldest, &victim) = self
                .by_stamp
                .iter()
                .next()
                .expect("non-empty over capacity");
            self.by_stamp.remove(&oldest);
            self.by_key.remove(&victim);
            self.evictions += 1;
        }
        false
    }

    /// Drops every entry on volume `slot` overlapping `range` (a write
    /// landed there). The deployment path never writes to the image
    /// server, so this is a correctness backstop, not a hot path — a
    /// full scan is fine.
    fn invalidate(&mut self, slot: u8, range: BlockRange) {
        if self.by_key.is_empty() {
            return;
        }
        let (start, end) = (range.lba.0, range.lba.0 + range.sectors as u64);
        let stale: Vec<(CacheKey, u64)> = self
            .by_key
            .iter()
            .filter(|(&(s, lba, sectors), _)| {
                s == slot && lba < end && lba + sectors as u64 > start
            })
            .map(|(&k, &s)| (k, s))
            .collect();
        for (key, stamp) in stale {
            self.by_key.remove(&key);
            self.by_stamp.remove(&stamp);
        }
    }

    fn clear(&mut self) {
        self.by_key.clear();
        self.by_stamp.clear();
    }
}

/// One client's pending queue plus its deficit round-robin state.
#[derive(Debug, Default)]
struct ClientQueue {
    /// Pending requests with their arrival instants.
    queue: VecDeque<(SimTime, AoePdu)>,
    /// Sectors of service this client may still consume this turn.
    deficit: u64,
    /// Whether the client's latest queued request carried the
    /// completion-priority flag; decides its DRR quantum weighting.
    sprint: bool,
}

/// The AoE storage server.
///
/// # Examples
///
/// ```
/// use aoe::{AoeServer, ServerConfig, AoePdu, Tag};
/// use hwsim::block::{BlockRange, BlockStore, Lba};
/// use hwsim::disk::{DiskModel, DiskParams};
/// use simkit::SimTime;
///
/// let params = DiskParams { capacity_sectors: 1 << 16, ..DiskParams::default() };
/// let disk = DiskModel::new(params.clone(), BlockStore::image(params.capacity_sectors, 5));
/// let mut server = AoeServer::new(ServerConfig::default(), disk);
///
/// let req = AoePdu::read_request(0, 0, Tag::new(1, 0), BlockRange::new(Lba(0), 4));
/// let reply = server.handle(SimTime::ZERO, &req.encode()).unwrap().unwrap();
/// assert_eq!(reply.frames.len(), 1);
/// assert!(reply.ready_at > SimTime::ZERO);
/// ```
#[derive(Debug)]
pub struct AoeServer {
    cfg: ServerConfig,
    disk: DiskModel,
    /// Additional exported volumes by slot address — distinct images
    /// behind one server. The primary volume stays at `cfg.slot` in
    /// `disk`; every volume shares the worker pool and the (slot-keyed)
    /// block cache.
    volumes: BTreeMap<u8, DiskModel>,
    /// Busy-until time per worker.
    workers: Vec<SimTime>,
    cache: BlockCache,
    /// Per-client pending queues for the fleet path, keyed by the
    /// fleet-assigned client index (BTreeMap: deterministic iteration).
    queues: BTreeMap<usize, ClientQueue>,
    /// Deficit round-robin ring over clients with pending work.
    drr_ring: VecDeque<usize>,
    queued_total: usize,
    /// The InfiniBand HCA serving rdma-flagged reads, when configured.
    hca: Option<IbHca>,
    /// RDMA replies priced at enqueue time, awaiting pickup on the
    /// fleet path: `(client, reply, available_at)`. One-sided READs
    /// never enter the DRR queues — the whole point is that the worker
    /// pool and its backlog stay out of the data path.
    rdma_ready: VecDeque<(usize, ServerReply, SimTime)>,
    rdma_reads: u64,
    queue_drops: u64,
    queue_dedups: u64,
    busy_replies: u64,
    requests: u64,
    sectors_read: u64,
    sectors_written: u64,
    write_errors: u64,
    restarts: u64,
    metrics: Metrics,
    spans: Spans,
}

/// AoE error code for a device that cannot service the request (write
/// failure injected on the server disk).
pub const AOE_ERR_DEVICE_UNAVAILABLE: u8 = 3;

impl AoeServer {
    /// Creates a server exporting `disk` (which holds the OS image).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.workers` is zero.
    pub fn new(cfg: ServerConfig, disk: DiskModel) -> AoeServer {
        assert!(cfg.workers > 0, "server needs at least one worker");
        let workers = vec![SimTime::ZERO; cfg.workers];
        let cache = BlockCache::new(cfg.cache_entries);
        let hca = cfg.rdma.map(IbHca::from_config);
        AoeServer {
            cfg,
            disk,
            volumes: BTreeMap::new(),
            workers,
            cache,
            queues: BTreeMap::new(),
            drr_ring: VecDeque::new(),
            queued_total: 0,
            hca,
            rdma_ready: VecDeque::new(),
            rdma_reads: 0,
            queue_drops: 0,
            queue_dedups: 0,
            busy_replies: 0,
            requests: 0,
            sectors_read: 0,
            sectors_written: 0,
            write_errors: 0,
            restarts: 0,
            metrics: Metrics::disabled(),
            spans: Spans::disabled(),
        }
    }

    /// Restarts the server after a crash: all in-flight worker state,
    /// pending queues, and the block cache (it models page cache, which
    /// dies with the process) are lost — requests being serviced or
    /// queued simply never answer and the clients' retransmission
    /// recovers them. The disk contents survive, as a real storage
    /// server's would.
    pub fn restart(&mut self) {
        self.workers = vec![SimTime::ZERO; self.cfg.workers];
        self.cache.clear();
        self.queues.clear();
        self.drr_ring.clear();
        self.queued_total = 0;
        // In-flight RDMA state dies with the process too: queue pairs
        // must be re-established, so priced-but-undelivered replies are
        // lost and the HCA's link pipeline starts idle.
        self.hca = self.cfg.rdma.map(IbHca::from_config);
        self.rdma_ready.clear();
        self.restarts += 1;
        self.metrics.inc("aoe.server.restarts");
    }

    /// Attaches a metrics handle; `aoe.server.*` counters and the
    /// busy-worker gauge land there.
    pub fn set_telemetry(&mut self, metrics: Metrics) {
        self.metrics = metrics;
    }

    /// Attaches the flight-recorder span store; each served request
    /// becomes an `aoe.server.request` span from its arrival (queue
    /// wait included, on the queued fleet path) to `ready_at`.
    pub fn set_spans(&mut self, spans: Spans) {
        self.spans = spans;
    }

    /// The configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// The exported primary disk (the volume at `cfg.slot`).
    pub fn disk(&self) -> &DiskModel {
        &self.disk
    }

    /// Mutable access to the exported primary disk (fault injection
    /// hooks).
    pub fn disk_mut(&mut self) -> &mut DiskModel {
        &mut self.disk
    }

    /// Sets the disk fault state on every exported volume, the primary
    /// and the additional ones alike: a disk fault plan models the
    /// storage array, which holds them all.
    pub fn set_disk_faults(&mut self, latency_factor: f64, write_errors: bool) {
        for disk in std::iter::once(&mut self.disk).chain(self.volumes.values_mut()) {
            disk.set_fault_latency_factor(latency_factor);
            disk.set_fault_write_errors(write_errors);
        }
    }

    /// Exports an additional volume at `slot` — a different image behind
    /// the same server. All volumes share the worker pool; the block
    /// cache keys entries by slot so their timing never cross-talks.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is the primary slot or already exported.
    pub fn add_volume(&mut self, slot: u8, disk: DiskModel) {
        assert_ne!(slot, self.cfg.slot, "slot {slot} is the primary volume");
        assert!(
            self.volumes.insert(slot, disk).is_none(),
            "slot {slot} exported twice"
        );
    }

    /// Whether this server answers requests addressed to `slot`.
    pub fn serves_slot(&self, slot: u8) -> bool {
        slot == self.cfg.slot || self.volumes.contains_key(&slot)
    }

    /// The volume exported at `slot`, if any.
    pub fn volume(&self, slot: u8) -> Option<&DiskModel> {
        if slot == self.cfg.slot {
            Some(&self.disk)
        } else {
            self.volumes.get(&slot)
        }
    }

    fn volume_mut(&mut self, slot: u8) -> &mut DiskModel {
        if slot == self.cfg.slot {
            &mut self.disk
        } else {
            self.volumes
                .get_mut(&slot)
                .expect("addressed slot is served")
        }
    }

    /// Adds `predecessor`'s lifetime counters (requests, sectors, cache
    /// lookups, drops, dedups, busy replies, write errors, restarts,
    /// RDMA reads) to this server's, so a server that takes over a
    /// retired one's place keeps that place's totals.
    pub fn carry_counters(&mut self, predecessor: &AoeServer) {
        self.requests += predecessor.requests;
        self.sectors_read += predecessor.sectors_read;
        self.sectors_written += predecessor.sectors_written;
        self.write_errors += predecessor.write_errors;
        self.restarts += predecessor.restarts;
        self.cache.hits += predecessor.cache.hits;
        self.cache.misses += predecessor.cache.misses;
        self.cache.evictions += predecessor.cache.evictions;
        self.queue_drops += predecessor.queue_drops;
        self.queue_dedups += predecessor.queue_dedups;
        self.busy_replies += predecessor.busy_replies;
        self.rdma_reads += predecessor.rdma_reads;
    }

    /// Requests served so far.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Sectors served to readers so far.
    pub fn sectors_read(&self) -> u64 {
        self.sectors_read
    }

    /// Sectors written by clients so far.
    pub fn sectors_written(&self) -> u64 {
        self.sectors_written
    }

    /// Writes refused with a device error (injected write faults).
    pub fn write_errors(&self) -> u64 {
        self.write_errors
    }

    /// Crash restarts so far.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Block-cache hits so far.
    pub fn cache_hits(&self) -> u64 {
        self.cache.hits
    }

    /// Block-cache misses so far.
    pub fn cache_misses(&self) -> u64 {
        self.cache.misses
    }

    /// Block-cache LRU evictions so far.
    pub fn cache_evictions(&self) -> u64 {
        self.cache.evictions
    }

    /// Fraction of read lookups served from cache (0 when none yet).
    pub fn cache_hit_ratio(&self) -> f64 {
        let total = self.cache.hits + self.cache.misses;
        if total == 0 {
            0.0
        } else {
            self.cache.hits as f64 / total as f64
        }
    }

    /// Requests currently queued across all clients (fleet path).
    pub fn queued_total(&self) -> usize {
        self.queued_total
    }

    /// Clients that have ever enqueued on the fleet path.
    pub fn clients(&self) -> usize {
        self.queues.len()
    }

    /// Deepest per-client pending queue right now (fleet path).
    pub fn max_client_queue_depth(&self) -> usize {
        self.queues
            .values()
            .map(|q| q.queue.len())
            .max()
            .unwrap_or(0)
    }

    /// Frames dropped because a client's queue was full.
    pub fn queue_drops(&self) -> u64 {
        self.queue_drops
    }

    /// Retransmits absorbed because an identical request was already
    /// queued for the same client.
    pub fn queue_dedups(&self) -> u64 {
        self.queue_dedups
    }

    /// Replies that carried the busy hint.
    pub fn busy_replies(&self) -> u64 {
        self.busy_replies
    }

    /// Reads served as one-sided RDMA operations (requires an HCA).
    pub fn rdma_reads(&self) -> u64 {
        self.rdma_reads
    }

    fn assign_worker(&mut self, now: SimTime, service: SimDuration) -> SimTime {
        let (idx, _) = self
            .workers
            .iter()
            .enumerate()
            .min_by_key(|&(_, &t)| t)
            .expect("at least one worker");
        let start = now.max(self.workers[idx]);
        let done = start + service;
        self.workers[idx] = done;
        if self.metrics.is_enabled() {
            let busy = self.workers.iter().filter(|&&t| t > now).count();
            self.metrics
                .gauge_set("aoe.server.busy_workers", busy as i64);
            self.metrics
                .observe("aoe.server.service_us", service.as_micros());
            let queued = start.saturating_duration_since(now);
            self.metrics
                .observe("aoe.server.queue_wait_us", queued.as_micros());
        }
        done
    }

    /// Handles one request frame arriving at `now` — the synchronous
    /// single-client path (no queueing, no fairness; FIFO is fair when
    /// there is exactly one client).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] for undecodable frames. Frames addressed to
    /// another shelf/slot, and response frames, are answered with `None`
    /// inside an `Ok` — they are simply not for us.
    pub fn handle<F: WireFrame + ?Sized>(
        &mut self,
        now: SimTime,
        frame: &F,
    ) -> Result<Option<ServerReply>, DecodeError> {
        let pdu = frame.decode_pdu()?;
        if pdu.response || pdu.shelf != self.cfg.shelf || !self.serves_slot(pdu.slot) {
            return Ok(None);
        }
        Ok(Some(self.serve(now, now, pdu, false)))
    }

    /// Serves one decoded request at `now`: worker assignment, disk/cache
    /// timing, reply encoding. Shared by the synchronous path and the
    /// queued fleet path; `busy` stamps the congestion hint into every
    /// reply frame.
    fn serve(&mut self, now: SimTime, arrived: SimTime, pdu: AoePdu, busy: bool) -> ServerReply {
        self.requests += 1;
        self.metrics.inc("aoe.server.requests");
        if busy {
            self.busy_replies += 1;
            self.metrics.inc("aoe.server.busy_replies");
        }
        let (id, range, is_write) = (pdu.tag.request_id(), pdu.range, pdu.write);
        let reply = if pdu.write {
            self.handle_write(now, pdu, busy)
        } else if pdu.rdma && self.hca.is_some() {
            self.handle_read_rdma(now, pdu)
        } else {
            self.handle_read(now, pdu, busy)
        };
        // The worker knows its finish time up front, so the span is
        // recorded complete: arrival to ready_at is queue wait + service.
        self.spans.record(
            arrived,
            reply.ready_at,
            "aoe.server",
            "aoe.server.request",
            NO_SPAN,
            || {
                format!(
                    "{} req {id} lba {} x{}",
                    if is_write { "write" } else { "read" },
                    range.lba.0,
                    range.sectors
                )
            },
        );
        reply
    }

    /// The run set a read request asks for: the single header range for
    /// v2, the table for a v3 multi-range (batched) read.
    fn read_runs(pdu: &AoePdu) -> Vec<BlockRange> {
        if pdu.ranges.is_empty() {
            vec![pdu.range]
        } else {
            pdu.ranges.clone()
        }
    }

    /// Encodes the reply burst for `runs`: response fragments at the MTU
    /// with indices running globally across the run set, starting from
    /// the request's fragment base — the paper's tag-offset extension,
    /// so a re-requested lost fragment slots straight back into the
    /// client's reassembly buffer, and a batched reply is scatter-gather
    /// into one burst under one request id.
    fn reply_burst(
        &self,
        pdu: &AoePdu,
        runs: &[BlockRange],
        busy: bool,
        rdma: bool,
    ) -> Vec<FrameBytes> {
        let spf = sectors_per_frame(self.cfg.mtu);
        let store = self
            .volume(pdu.slot)
            .expect("addressed slot is served")
            .store();
        let frags: u32 = runs.iter().map(|r| r.sectors.div_ceil(spf)).sum();
        let mut burst = BurstEncoder::with_capacity(frags as usize);
        for (frag, sub) in (pdu.tag.fragment()..).zip(fragment_subranges(runs, spf)) {
            let mut reply = AoePdu::read_request(
                pdu.shelf,
                pdu.slot,
                Tag::new(pdu.tag.request_id(), frag),
                sub,
            );
            reply.response = true;
            reply.busy = busy;
            reply.rdma = rdma;
            // Each fragment is read straight from the addressed
            // volume's store into its own payload, which then moves
            // into its frame: no staging buffer, no copy.
            reply.data = Some(store.read_range(sub));
            burst.push(reply);
        }
        burst.finish()
    }

    fn handle_read(&mut self, now: SimTime, pdu: AoePdu, busy: bool) -> ServerReply {
        let runs = Self::read_runs(&pdu);
        // A cached range skips the disk and costs only the per-request
        // CPU; the payload still comes from the store either way (the
        // cache prices reads, it does not hold bytes). The key carries
        // the slot: volumes hold different images, so a warm range on
        // one volume says nothing about the same LBAs on another. A
        // batched read prices each run against the cache independently
        // and sums the disk time of the misses.
        let mut disk_time = SimDuration::ZERO;
        for run in &runs {
            let evictions_before = self.cache.evictions;
            let hit = self.cache.touch(pdu.slot, *run);
            if self.cache.capacity > 0 {
                self.metrics.inc(if hit {
                    "server.cache.hits"
                } else {
                    "server.cache.misses"
                });
                if self.cache.evictions > evictions_before {
                    self.metrics.inc("server.cache.evictions");
                }
            }
            if !hit {
                disk_time += self.volume_mut(pdu.slot).access_time(DiskOp::Read, *run);
            }
        }
        let ready_at = self.assign_worker(now, PER_REQUEST_CPU + disk_time);
        let total: u64 = runs.iter().map(|r| r.sectors as u64).sum();
        self.sectors_read += total;
        self.metrics.add("aoe.server.sectors_read", total);
        let frames = self.reply_burst(&pdu, &runs, busy, false);
        ServerReply { ready_at, frames }
    }

    /// Serves an rdma-flagged read as a one-sided READ: the image is in
    /// registered memory, so no worker is assigned, no per-request CPU
    /// is charged, and the disk is never touched — completion is priced
    /// purely by the shared HCA (serialization at the link rate plus one
    /// base latency for the whole request: a multi-range batch is one
    /// doorbell, amortizing the per-op base latency across its runs).
    /// Replies echo the rdma flag so the fabric routes the burst over
    /// the IB lane, and never carry the busy hint — there is no queue to
    /// be busy.
    fn handle_read_rdma(&mut self, now: SimTime, pdu: AoePdu) -> ServerReply {
        let runs = Self::read_runs(&pdu);
        let total: u64 = runs.iter().map(|r| r.sectors as u64).sum();
        let bytes = total * hwsim::block::SECTOR_SIZE;
        let ready_at = self
            .hca
            .as_mut()
            .expect("rdma service requires an HCA")
            .rdma(now, bytes, SimDuration::ZERO);
        self.rdma_reads += 1;
        self.metrics.inc("aoe.server.rdma_reads");
        self.sectors_read += total;
        self.metrics.add("aoe.server.sectors_read", total);
        let frames = self.reply_burst(&pdu, &runs, false, true);
        ServerReply { ready_at, frames }
    }

    fn handle_write(&mut self, now: SimTime, pdu: AoePdu, busy: bool) -> ServerReply {
        let disk_time = self
            .volume_mut(pdu.slot)
            .access_time(DiskOp::Write, pdu.range);
        let ready_at = self.assign_worker(now, PER_REQUEST_CPU + disk_time);
        let mut ack = pdu.clone();
        ack.response = true;
        ack.busy = busy;
        ack.data = None;
        if self.volume_mut(pdu.slot).write_faulted() {
            // Injected write fault: the media rejected the write. Nothing
            // is committed; the error ack tells the client, whose
            // retransmission retries once the fault clears.
            self.write_errors += 1;
            self.metrics.inc("aoe.server.write_errors");
            ack.error = Some(AOE_ERR_DEVICE_UNAVAILABLE);
        } else if let Some(data) = &pdu.data {
            self.volume_mut(pdu.slot)
                .store_mut()
                .write_range(pdu.range, data);
            self.cache.invalidate(pdu.slot, pdu.range);
            self.sectors_written += pdu.range.sectors as u64;
            self.metrics
                .add("aoe.server.sectors_written", pdu.range.sectors as u64);
        }
        ServerReply {
            ready_at,
            frames: vec![ack.encode_frame()],
        }
    }

    fn update_queue_gauges(&mut self) {
        if self.metrics.is_enabled() {
            self.metrics
                .gauge_set("server.queue.total", self.queued_total as i64);
            self.metrics.gauge_set(
                "server.queue.max_client",
                self.max_client_queue_depth() as i64,
            );
        }
    }

    /// Queues one request frame from `client` — the fleet path, where
    /// many machines share this server and service order is decided by
    /// the deficit-round-robin scheduler rather than arrival order.
    /// Per-client queues are bounded by
    /// [`ServerConfig::client_queue_limit`]; overflow drops the frame
    /// (the client's retransmission recovers it, by which time the
    /// queue has drained).
    ///
    /// An rdma-flagged read on a server with an HCA never touches the
    /// DRR machinery: the one-sided READ is priced immediately against
    /// the HCA at `now` (arrival order *is* doorbell order) and its
    /// reply is held until [`AoeServer::dispatch`] reaches the HCA
    /// completion time. It cannot be dropped or deduplicated — there is
    /// no queue to overflow, and re-serving a retransmit is idempotent.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] for undecodable frames, exactly like
    /// [`AoeServer::handle`].
    pub fn enqueue<F: WireFrame + ?Sized>(
        &mut self,
        now: SimTime,
        client: usize,
        frame: &F,
    ) -> Result<Enqueued, DecodeError> {
        let pdu = frame.decode_pdu()?;
        if pdu.response || pdu.shelf != self.cfg.shelf || !self.serves_slot(pdu.slot) {
            return Ok(Enqueued::NotForUs);
        }
        if !pdu.write && pdu.rdma && self.hca.is_some() {
            let reply = self.serve(now, now, pdu, false);
            let available_at = reply.ready_at;
            self.rdma_ready.push_back((client, reply, available_at));
            return Ok(Enqueued::Queued);
        }
        let limit = self.cfg.client_queue_limit;
        let q = self.queues.entry(client).or_default();
        if q.queue.iter().any(|(_, held)| {
            held.tag == pdu.tag && held.range == pdu.range && held.write == pdu.write
        }) {
            // A retransmit of a request that is still queued: the first
            // copy will be served, so a second would double the disk,
            // CPU, and egress cost exactly when the server can least
            // afford it. Absorb it here.
            self.queue_dedups += 1;
            self.metrics.inc("server.queue.dedups");
            return Ok(Enqueued::Deduped);
        }
        if q.queue.len() >= limit {
            self.queue_drops += 1;
            self.metrics.inc("server.queue.drops");
            return Ok(Enqueued::Dropped);
        }
        let was_empty = q.queue.is_empty();
        // The latest request's flag decides the client's DRR weighting:
        // a machine in its post-boot endgame flags everything, one still
        // booting flags nothing, so the latch tracks the phase change.
        q.sprint = pdu.sprint;
        q.queue.push_back((now, pdu));
        self.queued_total += 1;
        if was_empty {
            self.drr_ring.push_back(client);
        }
        self.update_queue_gauges();
        Ok(Enqueued::Queued)
    }

    /// Earliest instant [`AoeServer::dispatch`] can next make progress:
    /// the head of the RDMA completion queue (if any reply is pending)
    /// or the earliest-free worker (if anything is queued), whichever
    /// is sooner. May be in the past (a worker is idle right now).
    pub fn next_dispatch_at(&self) -> Option<SimTime> {
        let rdma = self.rdma_ready.front().map(|(_, _, at)| *at);
        let worker = if self.queued_total == 0 {
            None
        } else {
            self.workers.iter().copied().min()
        };
        match (rdma, worker) {
            (Some(r), Some(w)) => Some(r.min(w)),
            (r, w) => r.or(w),
        }
    }

    /// Dispatches at most one queued request at `now`: the deficit
    /// round-robin pick across client queues, so one machine's deep
    /// background-copy backlog cannot starve another's copy-on-read.
    /// Returns `None` when nothing is queued or every worker is still
    /// busy at `now` — the caller re-polls at
    /// [`AoeServer::next_dispatch_at`].
    pub fn dispatch(&mut self, now: SimTime) -> Option<(usize, ServerReply)> {
        // RDMA completions drain ahead of the DRR lane: they were priced
        // at enqueue time, so once the HCA says the data has landed the
        // reply burst is released regardless of how deep the worker
        // queues are — the server CPU was never in that path.
        if self.rdma_ready.front().is_some_and(|(_, _, at)| *at <= now) {
            let (client, reply, _) = self.rdma_ready.pop_front().expect("checked front");
            return Some((client, reply));
        }
        if self.queued_total == 0 {
            return None;
        }
        if *self.workers.iter().min().expect("at least one worker") > now {
            return None;
        }
        // DRR: the ring head spends deficit to dispatch its head request,
        // or gains a quantum and yields the turn. A drained client leaves
        // the ring and forfeits leftover deficit (no hoarding credit for
        // later bursts).
        loop {
            let client = *self.drr_ring.front().expect("queued requests imply a ring");
            let q = self
                .queues
                .get_mut(&client)
                .expect("ring member has a queue");
            let cost = q
                .queue
                .front()
                .expect("ring member queue is non-empty")
                .1
                .range
                .sectors
                .max(1) as u64;
            if q.deficit < cost {
                // Sprinting clients earn a boosted quantum per turn:
                // finishing a nearly-full bitmap converts that machine
                // into a serving peer, which grows fleet capacity faster
                // than strict fairness would.
                let boost = if q.sprint {
                    self.cfg.sprint_boost.max(1) as u64
                } else {
                    1
                };
                q.deficit += DRR_QUANTUM_SECTORS * boost;
                let turn = self.drr_ring.pop_front().expect("non-empty");
                self.drr_ring.push_back(turn);
                continue;
            }
            q.deficit -= cost;
            let (arrived, pdu) = q.queue.pop_front().expect("non-empty");
            self.queued_total -= 1;
            if q.queue.is_empty() {
                q.deficit = 0;
                self.drr_ring.pop_front();
            }
            // The hint reflects post-dispatch backlog, and only ever
            // fires with at least two clients on record: a lone machine
            // queueing against itself is load, not contention.
            let busy = self.queued_total >= self.cfg.busy_queue_threshold && self.queues.len() >= 2;
            self.update_queue_gauges();
            let reply = self.serve(now, arrived, pdu, busy);
            return Some((client, reply));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwsim::block::{BlockStore, Lba, SectorData};
    use hwsim::disk::DiskParams;

    fn server(workers: usize) -> AoeServer {
        let params = DiskParams {
            capacity_sectors: 1 << 18,
            ..DiskParams::default()
        };
        let disk = DiskModel::new(
            params.clone(),
            BlockStore::image(params.capacity_sectors, 0xCAFE),
        );
        AoeServer::new(
            ServerConfig {
                workers,
                ..ServerConfig::default()
            },
            disk,
        )
    }

    fn read_req(id: u32, lba: u64, sectors: u32) -> Vec<u8> {
        AoePdu::read_request(0, 0, Tag::new(id, 0), BlockRange::new(Lba(lba), sectors)).encode()
    }

    #[test]
    fn read_returns_image_data_fragmented() {
        let mut s = server(4);
        let reply = s
            .handle(SimTime::ZERO, &read_req(1, 100, 40))
            .unwrap()
            .unwrap();
        assert_eq!(reply.frames.len(), 3, "40 sectors at 17/frame");
        let first = AoePdu::decode_frame(&reply.frames[0]).unwrap();
        assert!(first.response);
        assert_eq!(first.tag.fragment(), 0);
        assert_eq!(
            first.data.unwrap()[0],
            BlockStore::image_content(0xCAFE, Lba(100))
        );
        let last = AoePdu::decode_frame(&reply.frames[2]).unwrap();
        assert_eq!(last.range.sectors, 6);
        assert_eq!(s.sectors_read(), 40);
    }

    #[test]
    fn write_persists_and_acks() {
        let mut s = server(4);
        let data = vec![SectorData(123), SectorData(456)];
        let req = AoePdu::write_request(0, 0, Tag::new(2, 0), BlockRange::new(Lba(7), 2), data);
        let reply = s.handle(SimTime::ZERO, &req.encode()).unwrap().unwrap();
        assert_eq!(reply.frames.len(), 1);
        let ack = AoePdu::decode_frame(&reply.frames[0]).unwrap();
        assert!(ack.response);
        assert!(ack.data.is_none());
        assert_eq!(s.disk().store().read(Lba(7)), SectorData(123));
        assert_eq!(s.sectors_written(), 2);
    }

    #[test]
    fn wrong_address_ignored() {
        let mut s = server(1);
        let req = AoePdu::read_request(9, 9, Tag::new(1, 0), BlockRange::new(Lba(0), 1));
        assert_eq!(s.handle(SimTime::ZERO, &req.encode()).unwrap(), None);
        assert_eq!(s.requests(), 0);
    }

    #[test]
    fn garbage_is_a_decode_error() {
        let mut s = server(1);
        assert!(s.handle(SimTime::ZERO, &[0xFF; 3][..]).is_err());
    }

    #[test]
    fn single_worker_serializes_pool_overlaps() {
        // The paper's vblade bottleneck: with one worker, N concurrent
        // requests finish one after another; a pool overlaps them.
        let burst = |workers: usize| {
            let mut s = server(workers);
            let mut last = SimTime::ZERO;
            for i in 0..16 {
                let reply = s
                    .handle(SimTime::ZERO, &read_req(i + 1, (i as u64) * 16_000, 32))
                    .unwrap()
                    .unwrap();
                last = last.max(reply.ready_at);
            }
            last
        };
        let single = burst(1);
        let pooled = burst(8);
        assert!(
            single.as_secs_f64() > pooled.as_secs_f64() * 3.0,
            "pool should overlap: single={single} pooled={pooled}"
        );
    }

    #[test]
    fn worker_assignment_prefers_idle() {
        let mut s = server(2);
        let a = s
            .handle(SimTime::ZERO, &read_req(1, 0, 8))
            .unwrap()
            .unwrap();
        let b = s
            .handle(SimTime::ZERO, &read_req(2, 100_000, 8))
            .unwrap()
            .unwrap();
        // Both requests start immediately on different workers, so neither
        // waits for the other's full service time.
        let both_by = a.ready_at.max(b.ready_at);
        assert!(both_by < a.ready_at + (b.ready_at - SimTime::ZERO));
    }

    #[test]
    fn faulted_write_errors_and_commits_nothing() {
        let mut s = server(4);
        s.disk_mut().set_fault_write_errors(true);
        let before = s.disk().store().read(Lba(7));
        let data = vec![SectorData(999)];
        let req = AoePdu::write_request(0, 0, Tag::new(3, 0), BlockRange::new(Lba(7), 1), data);
        let reply = s.handle(SimTime::ZERO, &req.encode()).unwrap().unwrap();
        let ack = AoePdu::decode_frame(&reply.frames[0]).unwrap();
        assert_eq!(ack.error, Some(AOE_ERR_DEVICE_UNAVAILABLE));
        assert_eq!(s.disk().store().read(Lba(7)), before, "nothing committed");
        assert_eq!(s.write_errors(), 1);
        assert_eq!(s.sectors_written(), 0);
        // Fault clears: the retried write goes through.
        s.disk_mut().set_fault_write_errors(false);
        let data = vec![SectorData(999)];
        let req = AoePdu::write_request(0, 0, Tag::new(4, 0), BlockRange::new(Lba(7), 1), data);
        let reply = s.handle(SimTime::ZERO, &req.encode()).unwrap().unwrap();
        assert!(AoePdu::decode_frame(&reply.frames[0])
            .unwrap()
            .error
            .is_none());
        assert_eq!(s.disk().store().read(Lba(7)), SectorData(999));
    }

    #[test]
    fn restart_resets_workers_but_keeps_disk() {
        let mut s = server(2);
        // Load both workers.
        s.handle(SimTime::ZERO, &read_req(1, 0, 32)).unwrap();
        s.handle(SimTime::ZERO, &read_req(2, 50_000, 32)).unwrap();
        let data = vec![SectorData(7)];
        let req = AoePdu::write_request(0, 0, Tag::new(3, 0), BlockRange::new(Lba(1), 1), data);
        s.handle(SimTime::ZERO, &req.encode()).unwrap();
        s.restart();
        assert_eq!(s.restarts(), 1);
        assert_eq!(
            s.disk().store().read(Lba(1)),
            SectorData(7),
            "disk survives"
        );
        // Workers are idle again: a request at t=0 starts immediately.
        let reply = s
            .handle(SimTime::ZERO, &read_req(4, 0, 1))
            .unwrap()
            .unwrap();
        assert!(reply.ready_at < SimTime::from_millis(60));
    }

    fn caching_server(workers: usize, cache_entries: usize) -> AoeServer {
        let params = DiskParams {
            capacity_sectors: 1 << 18,
            ..DiskParams::default()
        };
        let disk = DiskModel::new(
            params.clone(),
            BlockStore::image(params.capacity_sectors, 0xCAFE),
        );
        AoeServer::new(
            ServerConfig {
                workers,
                cache_entries,
                ..ServerConfig::default()
            },
            disk,
        )
    }

    #[test]
    fn cache_hit_skips_disk_time_and_serves_same_data() {
        let mut s = caching_server(1, 64);
        let miss = s
            .handle(SimTime::ZERO, &read_req(1, 100, 8))
            .unwrap()
            .unwrap();
        let later = miss.ready_at;
        let hit = s.handle(later, &read_req(2, 100, 8)).unwrap().unwrap();
        assert_eq!(s.cache_misses(), 1);
        assert_eq!(s.cache_hits(), 1);
        let miss_service = miss.ready_at.saturating_duration_since(SimTime::ZERO);
        let hit_service = hit.ready_at.saturating_duration_since(later);
        assert!(
            hit_service < miss_service,
            "hit {hit_service} not faster than miss {miss_service}"
        );
        assert_eq!(hit_service, PER_REQUEST_CPU, "hit pays CPU only");
        // Same bytes either way: the cache prices reads, it holds none.
        assert_eq!(
            AoePdu::decode_frame(&miss.frames[0]).unwrap().data,
            AoePdu::decode_frame(&hit.frames[0]).unwrap().data
        );
    }

    #[test]
    fn cache_requires_exact_range_key() {
        let mut s = caching_server(1, 64);
        s.handle(SimTime::ZERO, &read_req(1, 100, 8)).unwrap();
        s.handle(SimTime::ZERO, &read_req(2, 100, 4)).unwrap();
        assert_eq!(s.cache_hits(), 0, "sub-range is a different key");
        assert_eq!(s.cache_misses(), 2);
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        let mut s = caching_server(1, 2);
        s.handle(SimTime::ZERO, &read_req(1, 0, 8)).unwrap(); // A
        s.handle(SimTime::ZERO, &read_req(2, 100, 8)).unwrap(); // B
        s.handle(SimTime::ZERO, &read_req(3, 0, 8)).unwrap(); // A again: hit
        s.handle(SimTime::ZERO, &read_req(4, 200, 8)).unwrap(); // C evicts B (LRU)
        assert_eq!(s.cache_evictions(), 1);
        s.handle(SimTime::ZERO, &read_req(5, 0, 8)).unwrap(); // A survives
        s.handle(SimTime::ZERO, &read_req(6, 100, 8)).unwrap(); // B is gone
        assert_eq!(s.cache_hits(), 2, "A twice; B was the eviction victim");
    }

    #[test]
    fn write_invalidates_overlapping_cache_entries() {
        let mut s = caching_server(1, 64);
        s.handle(SimTime::ZERO, &read_req(1, 100, 8)).unwrap();
        s.handle(SimTime::ZERO, &read_req(2, 200, 8)).unwrap();
        // Overlaps [100, 108) but not [200, 208).
        let w = AoePdu::write_request(
            0,
            0,
            Tag::new(3, 0),
            BlockRange::new(Lba(104), 2),
            vec![SectorData(1), SectorData(2)],
        );
        s.handle(SimTime::ZERO, &w.encode()).unwrap();
        s.handle(SimTime::ZERO, &read_req(4, 100, 8)).unwrap(); // miss again
        s.handle(SimTime::ZERO, &read_req(5, 200, 8)).unwrap(); // still cached
        assert_eq!(s.cache_hits(), 1);
        assert_eq!(s.cache_misses(), 3);
    }

    #[test]
    fn disabled_cache_never_hits() {
        let mut s = caching_server(1, 0);
        s.handle(SimTime::ZERO, &read_req(1, 0, 8)).unwrap();
        s.handle(SimTime::ZERO, &read_req(2, 0, 8)).unwrap();
        assert_eq!(s.cache_hits(), 0);
        assert_eq!(s.cache_misses(), 0, "disabled cache counts nothing");
        assert_eq!(s.cache_hit_ratio(), 0.0);
    }

    fn image_disk(seed: u64) -> DiskModel {
        let params = DiskParams {
            capacity_sectors: 1 << 18,
            ..DiskParams::default()
        };
        DiskModel::new(
            params.clone(),
            BlockStore::image(params.capacity_sectors, seed),
        )
    }

    #[test]
    fn cache_never_leaks_blocks_across_volumes() {
        // Regression: the cache used to be keyed (lba, sectors) only, so
        // with two exported images the second tenant's cold read of an
        // LBA the first tenant had warmed was priced as a hit — one
        // tenant's working set leaking into another's timing — and
        // before per-volume stores, served the wrong image's bytes.
        let mut s = AoeServer::new(
            ServerConfig {
                workers: 1,
                cache_entries: 64,
                ..ServerConfig::default()
            },
            image_disk(0xAAAA),
        );
        s.add_volume(1, image_disk(0xBBBB));
        assert!(s.serves_slot(0) && s.serves_slot(1) && !s.serves_slot(2));

        let req = |slot: u8, id: u32| {
            AoePdu::read_request(0, slot, Tag::new(id, 0), BlockRange::new(Lba(100), 8)).encode()
        };
        // Tenant A warms (100, 8) on its volume.
        let a = s.handle(SimTime::ZERO, &req(0, 1)).unwrap().unwrap();
        assert_eq!((s.cache_hits(), s.cache_misses()), (0, 1));
        // Tenant B reads the same range on a *different* image: must be
        // a miss, and must carry B's image bytes, not A's.
        let b = s.handle(SimTime::ZERO, &req(1, 2)).unwrap().unwrap();
        assert_eq!(
            (s.cache_hits(), s.cache_misses()),
            (0, 2),
            "cross-image leak"
        );
        assert_eq!(
            AoePdu::decode_frame(&b.frames[0]).unwrap().data.unwrap()[0],
            BlockStore::image_content(0xBBBB, Lba(100)),
            "served the wrong tenant's blocks"
        );
        assert_ne!(
            AoePdu::decode_frame(&a.frames[0]).unwrap().data,
            AoePdu::decode_frame(&b.frames[0]).unwrap().data
        );
        // Each tenant's own re-read is the hit the cache exists for.
        s.handle(SimTime::ZERO, &req(0, 3)).unwrap().unwrap();
        s.handle(SimTime::ZERO, &req(1, 4)).unwrap().unwrap();
        assert_eq!((s.cache_hits(), s.cache_misses()), (2, 2));
    }

    #[test]
    fn writes_land_on_the_addressed_volume_and_invalidate_only_it() {
        let mut s = AoeServer::new(
            ServerConfig {
                workers: 1,
                cache_entries: 64,
                ..ServerConfig::default()
            },
            image_disk(0xAAAA),
        );
        s.add_volume(1, image_disk(0xBBBB));
        let read = |slot: u8, id: u32| {
            AoePdu::read_request(0, slot, Tag::new(id, 0), BlockRange::new(Lba(7), 1)).encode()
        };
        s.handle(SimTime::ZERO, &read(0, 1)).unwrap();
        s.handle(SimTime::ZERO, &read(1, 2)).unwrap();
        let w = AoePdu::write_request(
            0,
            1,
            Tag::new(3, 0),
            BlockRange::new(Lba(7), 1),
            vec![SectorData(4242)],
        );
        s.handle(SimTime::ZERO, &w.encode()).unwrap();
        assert_eq!(s.volume(1).unwrap().store().read(Lba(7)), SectorData(4242));
        assert_eq!(
            s.disk().store().read(Lba(7)),
            BlockStore::image_content(0xAAAA, Lba(7)),
            "write bled onto the primary volume"
        );
        // Volume 0's entry survived the invalidation; volume 1's did not.
        s.handle(SimTime::ZERO, &read(0, 4)).unwrap();
        s.handle(SimTime::ZERO, &read(1, 5)).unwrap();
        assert_eq!((s.cache_hits(), s.cache_misses()), (1, 3));
    }

    #[test]
    #[should_panic(expected = "primary volume")]
    fn exporting_the_primary_slot_twice_panics() {
        let mut s = server(1);
        s.add_volume(0, image_disk(1));
    }

    #[test]
    fn sprint_clients_earn_a_boosted_quantum() {
        let params = DiskParams {
            capacity_sectors: 1 << 18,
            ..DiskParams::default()
        };
        let disk = DiskModel::new(
            params.clone(),
            BlockStore::image(params.capacity_sectors, 0xCAFE),
        );
        let mut s = AoeServer::new(
            ServerConfig {
                workers: 1,
                sprint_boost: 4,
                ..ServerConfig::default()
            },
            disk,
        );
        // Two equal backlogs of 32-sector reads; client 1's carry the
        // completion-priority flag.
        for i in 0..16u32 {
            s.enqueue(SimTime::ZERO, 0, &read_req(i + 1, (i as u64) * 1024, 32))
                .unwrap();
            let mut pdu = AoePdu::read_request(
                0,
                0,
                Tag::new(i + 101, 0),
                BlockRange::new(Lba(130_000 + (i as u64) * 1024), 32),
            );
            pdu.sprint = true;
            s.enqueue(SimTime::ZERO, 1, &pdu.encode()).unwrap();
        }
        let mut now = SimTime::ZERO;
        let mut served = [0usize; 2];
        while served[1] < 16 {
            match s.dispatch(now) {
                Some((client, _)) => served[client] += 1,
                None => now = s.next_dispatch_at().expect("work remains"),
            }
        }
        // Boost 4 ⇒ client 1 serves ~4 requests per turn to client 0's
        // ~2 (quantum 64 covers two 32-sector reads).
        assert!(
            served[1] >= 2 * served[0],
            "sprint client not prioritized: {served:?}"
        );
        // And with the default boost of 1 the same workload stays fair.
        let mut s = server(1);
        for i in 0..16u32 {
            s.enqueue(SimTime::ZERO, 0, &read_req(i + 1, (i as u64) * 1024, 32))
                .unwrap();
            let mut pdu = AoePdu::read_request(
                0,
                0,
                Tag::new(i + 101, 0),
                BlockRange::new(Lba(130_000 + (i as u64) * 1024), 32),
            );
            pdu.sprint = true;
            s.enqueue(SimTime::ZERO, 1, &pdu.encode()).unwrap();
        }
        let mut now = SimTime::ZERO;
        let mut served = [0usize; 2];
        while s.queued_total() > 0 {
            match s.dispatch(now) {
                Some((client, _)) => served[client] += 1,
                None => now = s.next_dispatch_at().expect("work remains"),
            }
        }
        assert_eq!(served, [16, 16], "boost 1 must stay strictly fair");
    }

    #[test]
    fn queued_single_client_matches_synchronous_timing() {
        // One client through the queue must time out exactly like the
        // synchronous path: DRR over one queue is FIFO, and dispatching
        // at the earliest-free-worker instant reproduces assign_worker's
        // max(arrival, busy_until) start times.
        let reqs: Vec<Vec<u8>> = (0..12)
            .map(|i| read_req(i + 1, (i as u64) * 4096, 24))
            .collect();
        let mut sync = server(2);
        let sync_ready: Vec<SimTime> = reqs
            .iter()
            .map(|r| sync.handle(SimTime::ZERO, r).unwrap().unwrap().ready_at)
            .collect();
        let mut queued = server(2);
        for r in &reqs {
            assert_eq!(
                queued.enqueue(SimTime::ZERO, 0, r).unwrap(),
                Enqueued::Queued
            );
        }
        let mut now = SimTime::ZERO;
        let mut queued_ready = Vec::new();
        while queued.queued_total() > 0 {
            match queued.dispatch(now) {
                Some((client, reply)) => {
                    assert_eq!(client, 0);
                    queued_ready.push(reply.ready_at);
                }
                None => now = queued.next_dispatch_at().expect("work remains"),
            }
        }
        assert_eq!(queued_ready, sync_ready);
    }

    #[test]
    fn drr_interleaves_a_flood_with_a_trickle() {
        // Client 0 floods 32 requests; client 1 then queues one. Strict
        // FIFO would serve client 1 last; DRR serves it within a few
        // turns.
        let mut s = server(1);
        for i in 0..32 {
            s.enqueue(SimTime::ZERO, 0, &read_req(i + 1, (i as u64) * 1024, 32))
                .unwrap();
        }
        s.enqueue(SimTime::ZERO, 1, &read_req(100, 250_000, 32))
            .unwrap();
        let mut now = SimTime::ZERO;
        let mut order = Vec::new();
        while s.queued_total() > 0 {
            match s.dispatch(now) {
                Some((client, _)) => order.push(client),
                None => now = s.next_dispatch_at().expect("work remains"),
            }
        }
        let pos = order.iter().position(|&c| c == 1).unwrap();
        assert!(
            pos <= 2,
            "trickle client served at position {pos} behind a 32-deep flood"
        );
    }

    #[test]
    fn drr_shares_service_between_equal_clients() {
        let mut s = server(1);
        for i in 0..16u32 {
            s.enqueue(SimTime::ZERO, 0, &read_req(i + 1, (i as u64) * 1024, 32))
                .unwrap();
            s.enqueue(
                SimTime::ZERO,
                1,
                &read_req(i + 101, 130_000 + (i as u64) * 1024, 32),
            )
            .unwrap();
        }
        let mut now = SimTime::ZERO;
        let mut served = [0usize; 2];
        let mut max_lead = 0i64;
        while s.queued_total() > 0 {
            match s.dispatch(now) {
                Some((client, _)) => {
                    served[client] += 1;
                    max_lead = max_lead.max((served[0] as i64 - served[1] as i64).abs());
                }
                None => now = s.next_dispatch_at().expect("work remains"),
            }
        }
        assert_eq!(served, [16, 16]);
        assert!(max_lead <= 2, "one client got {max_lead} requests ahead");
    }

    #[test]
    fn busy_hint_needs_backlog_and_two_clients() {
        let mut s = server(1);
        // A deep single-client backlog never raises busy.
        for i in 0..40 {
            s.enqueue(SimTime::ZERO, 0, &read_req(i + 1, (i as u64) * 1024, 8))
                .unwrap();
        }
        let (_, reply) = s.dispatch(SimTime::ZERO).unwrap();
        assert!(!AoePdu::decode_frame(&reply.frames[0]).unwrap().busy);
        assert_eq!(s.busy_replies(), 0);
        // A second client tips the same backlog into congestion.
        s.enqueue(SimTime::ZERO, 1, &read_req(100, 200_000, 8))
            .unwrap();
        let (_, reply) = s.dispatch(s.next_dispatch_at().unwrap()).unwrap();
        assert!(AoePdu::decode_frame(&reply.frames[0]).unwrap().busy);
        assert!(s.busy_replies() > 0);
        // Backlog below threshold: calm again, even with two clients.
        let mut now = s.next_dispatch_at().unwrap();
        let mut last_busy = true;
        while s.queued_total() > 0 {
            match s.dispatch(now) {
                Some((_, reply)) => {
                    last_busy = AoePdu::decode_frame(&reply.frames[0]).unwrap().busy;
                }
                None => now = s.next_dispatch_at().expect("work remains"),
            }
        }
        assert!(!last_busy, "final dispatch with empty backlog still busy");
    }

    #[test]
    fn full_client_queue_drops_and_counts() {
        let params = DiskParams {
            capacity_sectors: 1 << 18,
            ..DiskParams::default()
        };
        let disk = DiskModel::new(
            params.clone(),
            BlockStore::image(params.capacity_sectors, 0xCAFE),
        );
        let mut s = AoeServer::new(
            ServerConfig {
                workers: 1,
                client_queue_limit: 4,
                ..ServerConfig::default()
            },
            disk,
        );
        for i in 0..4 {
            assert_eq!(
                s.enqueue(SimTime::ZERO, 0, &read_req(i + 1, (i as u64) * 64, 1))
                    .unwrap(),
                Enqueued::Queued
            );
        }
        assert_eq!(
            s.enqueue(SimTime::ZERO, 0, &read_req(5, 999, 1)).unwrap(),
            Enqueued::Dropped
        );
        assert_eq!(s.queue_drops(), 1);
        assert_eq!(s.queued_total(), 4);
        // The other client's queue is unaffected by the full one.
        assert_eq!(
            s.enqueue(SimTime::ZERO, 1, &read_req(6, 1234, 1)).unwrap(),
            Enqueued::Queued
        );
    }

    #[test]
    fn retransmit_of_a_queued_request_is_deduped() {
        let mut s = server(2);
        let req = read_req(7, 512, 8);
        assert_eq!(s.enqueue(SimTime::ZERO, 0, &req).unwrap(), Enqueued::Queued);
        // Same client, byte-identical retransmit: absorbed, not queued.
        assert_eq!(
            s.enqueue(SimTime::ZERO, 0, &req).unwrap(),
            Enqueued::Deduped
        );
        assert_eq!(s.queue_dedups(), 1);
        assert_eq!(s.queued_total(), 1);
        // A different client's identical request is its own work.
        assert_eq!(s.enqueue(SimTime::ZERO, 1, &req).unwrap(), Enqueued::Queued);
        // Once served, a late retransmit re-queues (its reply may have
        // been lost on the wire — the server must answer again).
        assert!(s.dispatch(SimTime::ZERO).is_some());
        assert!(s.dispatch(SimTime::ZERO).is_some());
        assert_eq!(s.enqueue(SimTime::ZERO, 0, &req).unwrap(), Enqueued::Queued);
    }

    #[test]
    fn a_queued_request_span_covers_its_queue_wait() {
        let mut s = server(1);
        let spans = Spans::enabled(16);
        s.set_spans(spans.clone());
        s.enqueue(SimTime::ZERO, 0, &read_req(1, 0, 64)).unwrap();
        s.enqueue(SimTime::ZERO, 1, &read_req(2, 4096, 64)).unwrap();
        let (_, first) = s.dispatch(SimTime::ZERO).expect("a worker is free");
        assert!(
            s.dispatch(SimTime::ZERO).is_none(),
            "the only worker is busy"
        );
        let free = s.next_dispatch_at().expect("client 1 still queued");
        let (client, _) = s.dispatch(free).expect("the worker came free");
        assert_eq!(client, 1);
        let waited = free.duration_since(SimTime::ZERO);
        assert!(waited >= first.ready_at.duration_since(SimTime::ZERO));
        let second = spans
            .finished_of("aoe.server.request")
            .into_iter()
            .find(|sp| sp.start == SimTime::ZERO && sp.end > free)
            .expect("the waiting request's span");
        assert!(second.duration() >= waited, "the span starts at arrival");
    }

    #[test]
    fn enqueue_filters_addresses_like_handle() {
        let mut s = server(1);
        let stray = AoePdu::read_request(9, 9, Tag::new(1, 0), BlockRange::new(Lba(0), 1));
        assert_eq!(
            s.enqueue(SimTime::ZERO, 0, &stray.encode()).unwrap(),
            Enqueued::NotForUs
        );
        assert_eq!(s.queued_total(), 0);
        assert!(s.enqueue(SimTime::ZERO, 0, &[0xFF; 3][..]).is_err());
    }

    #[test]
    fn restart_clears_queues_and_cache() {
        let mut s = caching_server(1, 16);
        s.handle(SimTime::ZERO, &read_req(1, 0, 8)).unwrap();
        s.enqueue(SimTime::ZERO, 0, &read_req(2, 64, 8)).unwrap();
        s.enqueue(SimTime::ZERO, 1, &read_req(3, 128, 8)).unwrap();
        s.restart();
        assert_eq!(s.queued_total(), 0);
        assert_eq!(s.next_dispatch_at(), None);
        assert!(s.dispatch(SimTime::ZERO).is_none());
        // The warmed range misses again: page cache died with the crash.
        s.handle(SimTime::ZERO, &read_req(4, 0, 8)).unwrap();
        assert_eq!(s.cache_hits(), 0);
    }

    fn rdma_server(workers: usize) -> AoeServer {
        let params = DiskParams {
            capacity_sectors: 1 << 18,
            ..DiskParams::default()
        };
        let disk = DiskModel::new(
            params.clone(),
            BlockStore::image(params.capacity_sectors, 0xCAFE),
        );
        AoeServer::new(
            ServerConfig {
                workers,
                rdma: Some(IbConfig::qdr_4x()),
                ..ServerConfig::default()
            },
            disk,
        )
    }

    fn rdma_read_req(id: u32, lba: u64, sectors: u32) -> Vec<u8> {
        let mut pdu =
            AoePdu::read_request(0, 0, Tag::new(id, 0), BlockRange::new(Lba(lba), sectors));
        pdu.rdma = true;
        pdu.encode()
    }

    #[test]
    fn batched_read_scatter_gathers_one_burst() {
        let mut s = server(4);
        let runs = vec![BlockRange::new(Lba(100), 20), BlockRange::new(Lba(500), 5)];
        let req = AoePdu::read_multi_request(0, 0, Tag::new(7, 0), runs).encode();
        let reply = s.handle(SimTime::ZERO, &req).unwrap().unwrap();
        // 20 sectors = frames 0,1 (17+3); 5 sectors = frame 2: global
        // fragment indices across the run table.
        assert_eq!(reply.frames.len(), 3);
        let frags: Vec<u32> = reply
            .frames
            .iter()
            .map(|f| AoePdu::decode_frame(f).unwrap().tag.fragment())
            .collect();
        assert_eq!(frags, vec![0, 1, 2]);
        let second_run = AoePdu::decode_frame(&reply.frames[2]).unwrap();
        assert_eq!(second_run.range, BlockRange::new(Lba(500), 5));
        assert_eq!(
            second_run.data.unwrap()[0],
            BlockStore::image_content(0xCAFE, Lba(500))
        );
        assert_eq!(s.sectors_read(), 25);
        assert_eq!(s.requests(), 1, "one request, one worker assignment");
    }

    #[test]
    fn batched_read_prices_each_run_against_the_cache() {
        let mut s = caching_server(4, 16);
        // Warm one of the two runs via a plain read.
        s.handle(SimTime::ZERO, &read_req(1, 0, 8)).unwrap();
        let runs = vec![BlockRange::new(Lba(0), 8), BlockRange::new(Lba(64), 8)];
        let req = AoePdu::read_multi_request(0, 0, Tag::new(2, 0), runs).encode();
        s.handle(SimTime::ZERO, &req).unwrap().unwrap();
        assert_eq!(s.cache_hits(), 1, "warm run hits");
        assert_eq!(s.cache_misses(), 2, "cold warm-up + cold run miss");
    }

    #[test]
    fn rdma_read_skips_workers_and_echoes_the_flag() {
        let mut s = rdma_server(1);
        // Saturate the lone worker with a big plain read first.
        let plain = s
            .handle(SimTime::ZERO, &read_req(1, 0, 2048))
            .unwrap()
            .unwrap();
        let reply = s
            .handle(SimTime::ZERO, &rdma_read_req(2, 4096, 64))
            .unwrap()
            .unwrap();
        assert!(
            reply.ready_at < plain.ready_at,
            "one-sided READ never waits for the busy worker"
        );
        for frame in &reply.frames {
            let pdu = AoePdu::decode_frame(frame).unwrap();
            assert!(pdu.rdma, "replies echo the rdma flag for IB-lane routing");
            assert!(!pdu.busy, "no queue, no busy hint");
        }
        assert_eq!(s.rdma_reads(), 1);
        assert_eq!(s.sectors_read(), 2048 + 64);
    }

    #[test]
    fn rdma_flag_without_hca_serves_on_the_worker_path() {
        let mut s = server(1);
        let reply = s
            .handle(SimTime::ZERO, &rdma_read_req(1, 0, 8))
            .unwrap()
            .unwrap();
        assert_eq!(s.rdma_reads(), 0);
        let pdu = AoePdu::decode_frame(&reply.frames[0]).unwrap();
        assert!(!pdu.rdma, "flag is not echoed when served by a worker");
    }

    #[test]
    fn rdma_batch_amortizes_one_base_latency() {
        // A 3-run batched rdma read rings one doorbell and pays the HCA
        // base latency once. Three dependent single-run reads (each
        // issued when the previous completes — the shape of a
        // window-limited copier) pay it per round trip.
        let total = |reqs: Vec<Vec<u8>>| {
            let mut s = rdma_server(4);
            let mut now = SimTime::ZERO;
            for r in reqs {
                now = s.handle(now, &r).unwrap().unwrap().ready_at;
            }
            now
        };
        let runs = vec![
            BlockRange::new(Lba(0), 32),
            BlockRange::new(Lba(1024), 32),
            BlockRange::new(Lba(4096), 32),
        ];
        let mut batched = AoePdu::read_multi_request(0, 0, Tag::new(1, 0), runs.clone());
        batched.rdma = true;
        let one = total(vec![batched.encode()]);
        let three = total(
            runs.iter()
                .enumerate()
                .map(|(i, r)| rdma_read_req(i as u32 + 1, r.lba.0, r.sectors))
                .collect(),
        );
        assert!(
            one < three,
            "batched doorbell must amortize: one={one} three={three}"
        );
    }

    #[test]
    fn enqueued_rdma_reads_bypass_the_drr_lane() {
        let mut s = rdma_server(1);
        // Fill the worker lane with plain queued reads from two clients.
        for i in 0..4 {
            s.enqueue(SimTime::ZERO, 0, &read_req(i + 1, (i as u64) * 1024, 32))
                .unwrap();
            s.enqueue(
                SimTime::ZERO,
                1,
                &read_req(i + 10, 50_000 + (i as u64) * 1024, 32),
            )
            .unwrap();
        }
        let queued_before = s.queued_total();
        s.enqueue(SimTime::ZERO, 2, &rdma_read_req(100, 200_000, 64))
            .unwrap();
        assert_eq!(
            s.queued_total(),
            queued_before,
            "rdma never joins the DRR queues"
        );
        // Once the HCA completion time has passed, the rdma reply drains
        // ahead of the DRR lane no matter how deep the worker backlog is.
        let at = SimTime::from_secs(1);
        let (client, reply) = s.dispatch(at).expect("rdma head drains first");
        assert_eq!(client, 2);
        assert!(AoePdu::decode_frame(&reply.frames[0]).unwrap().rdma);
        assert_eq!(s.rdma_reads(), 1);
        // The worker lane is untouched and still drains normally.
        assert_eq!(s.queued_total(), queued_before);
        assert!(s.dispatch(at).is_some());
    }

    #[test]
    fn rdma_replies_travel_as_shared_arc_views_not_copies() {
        // The zero-copy pin: an rdma reply burst is a set of shared
        // `FrameBytes` allocations, and every hop of the
        // fabric — switch, egress, the fleet's IB-lane Deliver event —
        // moves *views* of those allocations. Cloning must be a
        // refcount bump (same allocation address), and the view the
        // far end decodes must be the very bytes the server produced.
        // RDMA's large transfer units make an accidental `to_vec()` on
        // this path expensive, so the identity is pinned here.
        let mut s = rdma_server(1);
        s.enqueue(SimTime::ZERO, 0, &rdma_read_req(9, 4096, 256))
            .unwrap();
        let (_, reply) = s.dispatch(SimTime::from_secs(1)).expect("rdma reply ready");
        assert!(reply.frames.len() > 1, "a large read fragments");
        for frame in &reply.frames {
            let fabric_hop: FrameBytes = frame.clone();
            assert!(
                FrameBytes::ptr_eq(frame, &fabric_hop),
                "cloning a frame must share the allocation, not copy it"
            );
            // The delivered view decodes to the same wire contents.
            let a = AoePdu::decode_frame(frame).unwrap();
            let b = AoePdu::decode_frame(&fabric_hop).unwrap();
            assert_eq!(a, b);
            assert!(b.rdma);
        }
    }

    #[test]
    fn restart_drops_pending_rdma_completions() {
        let mut s = rdma_server(1);
        s.enqueue(SimTime::ZERO, 0, &rdma_read_req(1, 0, 64))
            .unwrap();
        assert!(s.next_dispatch_at().is_some());
        s.restart();
        assert_eq!(s.next_dispatch_at(), None);
        assert!(s.dispatch(SimTime::from_secs(1)).is_none());
        // The rebuilt HCA still serves: registered memory is re-pinned.
        s.enqueue(SimTime::ZERO, 0, &rdma_read_req(2, 0, 64))
            .unwrap();
        assert_eq!(s.dispatch(SimTime::from_secs(1)).unwrap().0, 0);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let params = DiskParams {
            capacity_sectors: 1 << 10,
            ..DiskParams::default()
        };
        let disk = DiskModel::new(params.clone(), BlockStore::zeroed(params.capacity_sectors));
        AoeServer::new(
            ServerConfig {
                workers: 0,
                ..ServerConfig::default()
            },
            disk,
        );
    }
}
