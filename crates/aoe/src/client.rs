//! AoE client: request tracking, fragment reassembly, retransmission.
//!
//! The VMM-side endpoint of the extended protocol. A read of N sectors is
//! one request frame; the server answers with `ceil(N / sectors_per_frame)`
//! fragments which the client reassembles by tag. Requests unanswered
//! within the retransmission timeout are re-sent (the server simply
//! re-serves them — reads are idempotent and writes here are
//! last-writer-wins on whole sectors), up to a retry budget. The timeout
//! backs off exponentially per attempt, capped at
//! [`ClientConfig::max_rto`], with deterministic jitter so a burst of
//! simultaneous requests doesn't retransmit in lockstep against a stalled
//! server. Replies to requests that already completed or failed are
//! suppressed by request id (the fabric may deliver a reply long after a
//! retransmit already finished the request).
//!
//! Two signals temper retransmission under congestion. Each arriving
//! fragment refreshes its request's deadline (a long reply train on a
//! backlogged egress link is progress, not loss), and a recent busy hint
//! holds the retry budget in abeyance ([`ClientConfig::busy_grace`]): the
//! budget detects dead servers, and a busy server is demonstrably alive.
//! Without both, a fleet-scale burst collapses — every queued-but-slow
//! request is retransmitted, re-served, and finally *failed*, killing
//! deployments against a perfectly healthy server.
//!
//! The client can read from a *set* of server endpoints (a replicated
//! image store, plus any rack-local serving peers registered at runtime).
//! Reads are steered by LBA stripe ([`ClientConfig::stripe_sectors`]) so
//! each endpoint sees a disjoint, stable working set and its block cache
//! stays hot; writes always go to the primary endpoint (the configured
//! shelf/slot), which is the single write-ordering point. Every pending
//! request remembers the endpoint it was issued to: retransmissions go
//! back to the same endpoint byte-identically, and the busy/liveness
//! latch is kept *per endpoint* — a busy hint from a live server proves
//! that server alive, not the rest of the fleet, so it holds the retry
//! budget open only for requests pending on that endpoint.

use crate::wire::{fragment_subranges, sectors_per_frame, AoePdu, FrameBytes, Tag, WireFrame};
use hwsim::block::{BlockRange, SectorData};
use simkit::{Metrics, Prng, SimDuration, SimTime, SpanId, Spans};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// How many completed/failed request ids are remembered for stale-reply
/// suppression before the oldest is forgotten.
const RETIRED_CAPACITY: usize = 4096;

/// Client configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Target shelf (major address).
    pub shelf: u16,
    /// Target slot (minor address).
    pub slot: u8,
    /// Fabric MTU in payload bytes; determines fragment size.
    pub mtu: u32,
    /// Initial retransmission timeout; doubles per attempt.
    pub rto: SimDuration,
    /// Ceiling on the backed-off retransmission timeout.
    pub max_rto: SimDuration,
    /// Retransmissions before a request is failed.
    pub max_retries: u32,
    /// How long after the last busy hint the retry budget is held in
    /// abeyance. The budget exists to detect a *dead* server; a busy
    /// hint is proof of life, so while one is fresh an exhausted request
    /// keeps retransmitting at the capped RTO instead of failing — the
    /// alternative under fleet-scale congestion is a wave of spurious
    /// failures against a server that was merely backlogged. Liveness is
    /// tracked per endpoint: only hints from the endpoint a request is
    /// pending on hold that request's budget.
    pub busy_grace: SimDuration,
    /// Read-striping granularity in sectors across the endpoint set: the
    /// endpoint for a read is `endpoints[(lba / stripe_sectors) % k]`.
    /// Aligned with the background copier's block size by default so each
    /// copy block maps to exactly one endpoint.
    pub stripe_sectors: u32,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            shelf: 0,
            slot: 0,
            mtu: 9000,
            rto: SimDuration::from_millis(20),
            max_rto: SimDuration::from_millis(500),
            max_retries: 8,
            busy_grace: SimDuration::from_secs(2),
            stripe_sectors: 2048,
        }
    }
}

impl ClientConfig {
    /// The retransmission interval before attempt `retries + 1`:
    /// `min(rto · 2^retries, max_rto)`.
    fn backoff(&self, retries: u32) -> SimDuration {
        let mult = 1u64 << retries.min(16);
        let backed = SimDuration::from_nanos(self.rto.as_nanos().saturating_mul(mult));
        backed.min(self.max_rto.max(self.rto))
    }
}

/// Deterministic jitter in `[0, interval/4]`, drawn from the client's
/// own PRNG stream so retransmit schedules desynchronize reproducibly.
fn jitter(prng: &mut Prng, interval: SimDuration) -> SimDuration {
    SimDuration::from_nanos(prng.below(interval.as_nanos() / 4 + 1))
}

/// The `frag`-th item of [`fragment_subranges`], found in O(runs);
/// `None` past the last fragment.
fn fragment_subrange(runs: &[BlockRange], spf: u32, mut frag: u32) -> Option<BlockRange> {
    for r in runs {
        let frags = r.sectors.div_ceil(spf);
        if frag < frags {
            let offset = frag * spf;
            return Some(BlockRange::new(
                r.lba + offset as u64,
                spf.min(r.sectors - offset),
            ));
        }
        frag -= frags;
    }
    None
}

/// A finished request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// The id returned when the request was issued.
    pub request_id: u32,
    /// The sectors the request covered. For a multi-range read this is
    /// the canonical cover (first run's LBA, total sectors).
    pub range: BlockRange,
    /// Read data in LBA order (for a multi-range read: the runs'
    /// data concatenated in table order); empty for completed writes.
    pub data: Vec<SectorData>,
}

#[derive(Debug)]
struct Pending {
    range: BlockRange,
    is_write: bool,
    /// The endpoint this request was issued to. Retransmissions go back
    /// to the same endpoint (byte-identical for full-loss reads, so the
    /// server's dedup and cache keys still match), and the busy-hint
    /// budget hold consults this endpoint's latch only.
    shelf: u16,
    slot: u8,
    /// Whether the request carried the completion-priority flag; kept so
    /// retransmissions re-encode the original bytes exactly.
    sprint: bool,
    /// Whether the request carried the rdma-lane flag; kept for the same
    /// byte-identical-retransmit reason as `sprint`.
    rdma: bool,
    /// The run table of a multi-range (batched) read, in table order.
    /// Empty for single-range requests and writes. Kept so a full-loss
    /// retransmit re-encodes the original v3 frame exactly, and so the
    /// completion can split the reply data back per run.
    runs: Vec<BlockRange>,
    /// Per-fragment reassembly slots (reads) or ack flags (writes).
    frags: Vec<Option<Vec<SectorData>>>,
    /// How many of `frags` are filled: the completion check and the
    /// nothing-arrived check read it instead of scanning the slots.
    filled: usize,
    /// Write fragments kept for retransmission, shared with the frames
    /// handed to the wire (a retransmit is a reference-count bump).
    /// Empty for reads: missing read fragments are re-encoded as
    /// subrange requests, so nothing is retained.
    request_frames: Vec<FrameBytes>,
    /// Next retransmission instant (backed-off RTO + jitter).
    deadline: SimTime,
    retries: u32,
    /// Flight-recorder round-trip span, open from issue to completion
    /// or failure ([`NO_SPAN`](simkit::NO_SPAN) when the recorder is off).
    span: SpanId,
}

impl Pending {
    fn done(&self) -> bool {
        self.filled == self.frags.len()
    }
}

/// The AoE client endpoint.
///
/// The client is a pure protocol state machine: `read`/`write` return the
/// encoded frames to put on the wire, `on_frame` consumes received frames,
/// and `poll_retransmit` returns frames due for re-sending. The caller
/// owns all timing and the fabric.
///
/// # Examples
///
/// ```
/// use aoe::{AoeClient, ClientConfig};
/// use hwsim::block::{BlockRange, Lba};
/// use simkit::{SimTime, NO_SPAN};
///
/// let mut client = AoeClient::new(ClientConfig::default());
/// let (id, frames) = client.read(SimTime::ZERO, BlockRange::new(Lba(0), 8), NO_SPAN);
/// assert_eq!(frames.len(), 1); // a read request is one frame
/// assert_eq!(client.outstanding(), 1);
/// # let _ = id;
/// ```
/// A deadline no request has.
const NEVER: SimTime = SimTime::from_nanos(u64::MAX);

#[derive(Debug)]
pub struct AoeClient {
    cfg: ClientConfig,
    next_id: u32,
    /// Outstanding requests by id. Ordered map: `poll_retransmit` walks
    /// it, and iteration order decides retransmit order under loss — a
    /// hash map's per-process seed would make lossy runs nondeterministic.
    pending: BTreeMap<u32, Pending>,
    /// At or below every outstanding request's retransmission deadline
    /// (deadlines only ever move later): lets
    /// [`AoeClient::retransmit_due`] answer most calls without a scan.
    deadline_floor: Cell<SimTime>,
    /// Recently completed/failed ids, for stale-reply suppression. The
    /// set answers membership; the queue evicts FIFO at capacity.
    retired: BTreeSet<u32>,
    retired_order: VecDeque<u32>,
    /// Jitter stream; seeded from the client's address so two clients on
    /// one fabric desynchronize while each run stays reproducible.
    prng: Prng,
    retransmits: u64,
    completions: u64,
    stale_replies: u64,
    decode_errors: u64,
    bad_fragments: u64,
    /// Reads issued per target shelf, in shelf order. The straggler
    /// attribution report derives each machine's peer-vs-origin read mix
    /// from this (peer shelves live in a distinct address range).
    shelf_reads: BTreeMap<u16, u64>,
    /// Read endpoints in registration order: the primary (configured
    /// shelf/slot) first, then replicas and runtime-registered peers.
    endpoints: Vec<(u16, u8)>,
    /// Last instant a reply from each endpoint carried the server-busy
    /// hint. Fed into the background-copy throttle by fleet-aware
    /// moderation, and consulted per endpoint by the retry-budget hold.
    busy_at: BTreeMap<(u16, u8), SimTime>,
    /// The latest of `busy_at`.
    busy_latest: Option<SimTime>,
    /// When set, reads carry the completion-priority (sprint) flag.
    sprint: bool,
    /// When set, reads carry the rdma-lane flag (the RDMA transport):
    /// the server prices them on the IB fabric and the fabric routes the
    /// reply burst past the Ethernet egress queue.
    rdma: bool,
    /// Write target override: snapshot-back streams a reclaimed tenant's
    /// dirty blocks to an archive volume instead of the primary image.
    write_target: Option<(u16, u8)>,
    failures: Vec<u32>,
    metrics: Metrics,
    spans: Spans,
}

impl AoeClient {
    /// Creates a client.
    pub fn new(cfg: ClientConfig) -> AoeClient {
        let seed = 0xA0EC_11E7_u64 ^ ((cfg.shelf as u64) << 8) ^ cfg.slot as u64;
        let endpoints = vec![(cfg.shelf, cfg.slot)];
        AoeClient {
            cfg,
            endpoints,
            next_id: 1,
            pending: BTreeMap::new(),
            deadline_floor: Cell::new(NEVER),
            retired: BTreeSet::new(),
            retired_order: VecDeque::new(),
            prng: Prng::new(seed),
            retransmits: 0,
            completions: 0,
            stale_replies: 0,
            decode_errors: 0,
            bad_fragments: 0,
            shelf_reads: BTreeMap::new(),
            busy_at: BTreeMap::new(),
            busy_latest: None,
            sprint: false,
            rdma: false,
            write_target: None,
            failures: Vec::new(),
            metrics: Metrics::disabled(),
            spans: Spans::disabled(),
        }
    }

    /// Attaches the metrics registry: every `aoe.client.*` counter lands
    /// in `metrics`.
    pub fn set_telemetry(&mut self, metrics: Metrics) {
        self.metrics = metrics;
    }

    /// Attaches the flight-recorder span store. Each request then carries
    /// an `aoe.rtt` span from issue to completion/failure, with
    /// retransmissions as nested instant spans.
    pub fn set_spans(&mut self, spans: Spans) {
        self.spans = spans;
    }

    /// The configuration.
    pub fn config(&self) -> &ClientConfig {
        &self.cfg
    }

    /// Requests outstanding (issued, not yet completed or failed).
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// Whether some outstanding request's retransmission deadline is at
    /// or before `at`, i.e. whether [`AoeClient::poll_retransmit`] at
    /// `at` would do anything. A scan runs only once `at` reaches the
    /// floor the last one left.
    pub fn retransmit_due(&self, at: SimTime) -> bool {
        if self.deadline_floor.get() > at {
            return false;
        }
        let min = self.pending.values().map(|p| p.deadline).min();
        self.deadline_floor.set(min.unwrap_or(NEVER));
        min.is_some_and(|d| d <= at)
    }

    /// Tracks a newly issued request.
    fn insert_pending(&mut self, id: u32, pending: Pending) {
        self.deadline_floor
            .set(self.deadline_floor.get().min(pending.deadline));
        self.pending.insert(id, pending);
    }

    /// Total retransmitted frames.
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }

    /// Total completed requests.
    pub fn completions(&self) -> u64 {
        self.completions
    }

    /// Replies dropped because their request already completed or failed.
    pub fn stale_replies(&self) -> u64 {
        self.stale_replies
    }

    /// Frames dropped because they failed to decode (truncation, bad
    /// version, checksum mismatch — i.e. corruption caught on the wire).
    pub fn decode_errors(&self) -> u64 {
        self.decode_errors
    }

    /// Checksum-valid read fragments dropped because their range or
    /// sector count did not match the fragment slot their tag named.
    pub fn bad_fragments(&self) -> u64 {
        self.bad_fragments
    }

    /// Reads issued per target shelf, in shelf order. Counts initial
    /// issues only (retransmissions go back to the same endpoint and are
    /// counted separately in [`AoeClient::retransmits`]).
    pub fn reads_by_shelf(&self) -> &BTreeMap<u16, u64> {
        &self.shelf_reads
    }

    /// Takes over `predecessor`'s per-shelf read tally, so that
    /// [`AoeClient::reads_by_shelf`] covers a machine's whole life when a
    /// reclaim replaces its client, as the machine's counters do.
    pub fn carry_reads_by_shelf(&mut self, predecessor: &AoeClient) {
        self.shelf_reads = predecessor.shelf_reads.clone();
    }

    /// Last instant a reply from *any* endpoint carried the server-busy
    /// hint, if any ever did. Moderation compares this against its
    /// backoff window to decide whether elastic traffic should yield —
    /// congestion anywhere in the store is reason to yield everywhere.
    pub fn server_busy_at(&self) -> Option<SimTime> {
        self.busy_latest
    }

    /// The current read endpoints, primary first.
    pub fn read_endpoints(&self) -> &[(u16, u8)] {
        &self.endpoints
    }

    /// Replaces the read-endpoint set (a replicated store's shelves).
    /// Affects only requests issued afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `endpoints` is empty.
    pub fn set_read_endpoints(&mut self, endpoints: Vec<(u16, u8)>) {
        assert!(
            !endpoints.is_empty(),
            "a client needs at least one endpoint"
        );
        self.endpoints = endpoints;
    }

    /// Registers an additional read endpoint (a peer that just turned
    /// serving) unless already present. Affects only future reads:
    /// outstanding requests keep retransmitting to their issue endpoint.
    pub fn add_read_endpoint(&mut self, endpoint: (u16, u8)) {
        if !self.endpoints.contains(&endpoint) {
            self.endpoints.push(endpoint);
        }
    }

    /// Unregisters a read endpoint (a peer being re-virtualized or
    /// reclaimed, whose image view is about to go stale). Affects only
    /// future reads: requests already outstanding keep retransmitting to
    /// their issue endpoint and are the fabric's problem to fail over.
    /// The last endpoint is never removed — a client always has a
    /// primary to read from.
    pub fn remove_read_endpoint(&mut self, endpoint: (u16, u8)) {
        if self.endpoints.len() > 1 {
            self.endpoints.retain(|&e| e != endpoint);
        }
    }

    /// Redirects future writes to `shelf`/`slot` instead of the
    /// configured primary. Snapshot-back uses this to stream a departing
    /// tenant's dirty blocks into its archive volume; the single
    /// write-ordering point per request is preserved (each write still
    /// goes to exactly one endpoint).
    pub fn set_write_target(&mut self, shelf: u16, slot: u8) {
        self.write_target = Some((shelf, slot));
    }

    /// The endpoint the next write will be issued to.
    pub fn write_endpoint(&self) -> (u16, u8) {
        self.write_target.unwrap_or((self.cfg.shelf, self.cfg.slot))
    }

    /// Overrides the read-striping granularity (keep aligned with the
    /// background copier's block size).
    pub fn set_stripe_sectors(&mut self, sectors: u32) {
        assert!(sectors > 0, "stripe must cover at least one sector");
        self.cfg.stripe_sectors = sectors;
    }

    /// Turns the completion-priority (sprint) flag on or off for future
    /// reads. Set once the deployment enters its post-boot endgame: the
    /// server weights flagged clients up so they convert into serving
    /// peers sooner.
    pub fn set_sprint(&mut self, sprint: bool) {
        self.sprint = sprint;
    }

    /// Whether future reads carry the completion-priority flag.
    pub fn sprint(&self) -> bool {
        self.sprint
    }

    /// Turns the rdma-lane flag on or off for future reads. Set once at
    /// deployment start when the machine's transport is RDMA; requests
    /// then ask for one-sided service and their replies ride the IB
    /// lane.
    pub fn set_rdma(&mut self, rdma: bool) {
        self.rdma = rdma;
    }

    /// Whether future reads carry the rdma-lane flag.
    pub fn rdma(&self) -> bool {
        self.rdma
    }

    /// The endpoint a read of `range` will be issued to under the
    /// current endpoint set: stable LBA striping so each endpoint keeps
    /// a disjoint, cache-friendly share of the image.
    pub fn endpoint_for(&self, range: BlockRange) -> (u16, u8) {
        let stripe = self.cfg.stripe_sectors as u64;
        let idx = (range.lba.0 / stripe) % self.endpoints.len() as u64;
        self.endpoints[idx as usize]
    }

    /// Replaces the jitter PRNG stream. Fleet machines share one client
    /// address (every VMM talks to shelf 0 slot 0), so the address-derived
    /// default seed would retransmit the whole fleet in lockstep; the
    /// fleet reseeds each client from a per-machine forked stream.
    pub fn reseed_jitter(&mut self, seed: u64) {
        self.prng = Prng::new(seed);
    }

    /// Earliest pending retransmission deadline, if any request is
    /// outstanding. Exposes the backoff schedule for tests and for
    /// callers that want to poll exactly when something is due.
    pub fn next_retransmit_at(&self) -> Option<SimTime> {
        self.pending.values().map(|p| p.deadline).min()
    }

    fn alloc_id(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id = if self.next_id >= Tag::MAX_REQUEST_ID {
            1
        } else {
            self.next_id + 1
        };
        // A reused id is a live request again: stop suppressing it.
        if self.retired.remove(&id) {
            self.retired_order.retain(|&r| r != id);
        }
        id
    }

    fn retire_id(&mut self, id: u32) {
        if self.retired.insert(id) {
            self.retired_order.push_back(id);
            if self.retired_order.len() > RETIRED_CAPACITY {
                let evict = self.retired_order.pop_front().expect("non-empty");
                self.retired.remove(&evict);
            }
        }
    }

    /// Issues a read of `range`, its round-trip span nested under
    /// `parent` (e.g. the redirect fetch that issued it;
    /// [`NO_SPAN`](simkit::NO_SPAN) for none). Returns the request id and
    /// the encoded request frame(s) to transmit (always exactly one for
    /// reads).
    pub fn read(
        &mut self,
        now: SimTime,
        range: BlockRange,
        parent: SpanId,
    ) -> (u32, Vec<FrameBytes>) {
        self.read_multi(now, std::slice::from_ref(&range), parent)
    }

    /// Issues one read for `runs`: a single run goes out as a plain v2
    /// read ([`AoeClient::read`]); several go out as one multi-range (v3)
    /// request — the batched transport's request shape: one frame, one
    /// request id, one reply burst whose fragment indices run globally
    /// across the table. The caller groups runs by endpoint first (see
    /// [`AoeClient::endpoint_for`]); the request is issued to the first
    /// run's endpoint. The round-trip span nests under `parent`.
    ///
    /// # Panics
    ///
    /// Panics if `runs` is empty or a batch's reply burst would overflow
    /// the 12-bit fragment index.
    pub fn read_multi(
        &mut self,
        now: SimTime,
        runs: &[BlockRange],
        parent: SpanId,
    ) -> (u32, Vec<FrameBytes>) {
        assert!(!runs.is_empty(), "read needs at least one run");
        let batched = runs.len() > 1;
        self.metrics.inc("aoe.client.reads");
        if batched {
            self.metrics.inc("aoe.client.batched_reads");
        }
        let id = self.alloc_id();
        let (shelf, slot) = self.endpoint_for(runs[0]);
        *self.shelf_reads.entry(shelf).or_insert(0) += 1;
        let (sprint, rdma) = (self.sprint, self.rdma);
        let spf = sectors_per_frame(self.cfg.mtu);
        let nfrags: u32 = runs.iter().map(|r| r.sectors.div_ceil(spf)).sum();
        assert!(
            !batched || nfrags <= Tag::MAX_FRAGMENT + 1,
            "batch of {nfrags} fragments overflows the fragment index"
        );
        let tag = Tag::new(id, 0);
        let mut pdu = if batched {
            AoePdu::read_multi_request(shelf, slot, tag, runs.to_vec())
        } else {
            AoePdu::read_request(shelf, slot, tag, runs[0])
        };
        pdu.sprint = sprint;
        pdu.rdma = rdma;
        let cover = pdu.range;
        let frames = vec![pdu.encode_frame()];
        let deadline = now + self.cfg.backoff(0) + jitter(&mut self.prng, self.cfg.rto);
        let span = self.spans.begin(now, "aoe.client", "aoe.rtt", parent, || {
            let (lba, n) = (cover.lba.0, cover.sectors);
            match runs.len() {
                1 => format!("read req {id} lba {lba} x{n} @ {shelf}.{slot}"),
                k => format!("batch req {id} lba {lba} x{n} ({k} runs) @ {shelf}.{slot}"),
            }
        });
        self.insert_pending(
            id,
            Pending {
                range: cover,
                is_write: false,
                shelf,
                slot,
                sprint,
                rdma,
                runs: pdu.ranges,
                frags: vec![None; nfrags as usize],
                filled: 0,
                // Reads keep nothing: retransmission re-encodes exactly
                // the missing subranges (see `poll_retransmit`).
                request_frames: Vec::new(),
                deadline,
                retries: 0,
                span,
            },
        );
        (id, frames)
    }

    /// Issues a write of `data` to `range`. Large writes are fragmented
    /// into one request frame per MTU-sized piece; each fragment is acked
    /// independently and the write completes when all acks arrive. The
    /// round-trip span nests under `parent`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != range.sectors`.
    pub fn write(
        &mut self,
        now: SimTime,
        range: BlockRange,
        data: &[SectorData],
        parent: SpanId,
    ) -> (u32, Vec<FrameBytes>) {
        assert_eq!(data.len(), range.sectors as usize, "payload/range mismatch");
        self.metrics.inc("aoe.client.writes");
        let id = self.alloc_id();
        let (wshelf, wslot) = self.write_endpoint();
        let spf = sectors_per_frame(self.cfg.mtu);
        let subs = fragment_subranges(std::slice::from_ref(&range), spf);
        let frames: Vec<FrameBytes> = (0..)
            .zip(subs)
            .zip(data.chunks(spf as usize))
            .map(|((frag, sub), payload)| {
                AoePdu::write_request(wshelf, wslot, Tag::new(id, frag), sub, payload.to_vec())
                    .into_frame()
            })
            .collect();
        let deadline = now + self.cfg.backoff(0) + jitter(&mut self.prng, self.cfg.rto);
        let span = self.spans.begin(now, "aoe.client", "aoe.rtt", parent, || {
            format!("write req {id} lba {} x{}", range.lba.0, range.sectors)
        });
        self.insert_pending(
            id,
            Pending {
                range,
                is_write: true,
                // Writes target a single endpoint (the primary, or the
                // snapshot-back archive override): one write-ordering
                // point keeps the replicated store trivially consistent.
                shelf: wshelf,
                slot: wslot,
                sprint: false,
                rdma: false,
                runs: Vec::new(),
                frags: vec![None; frames.len()],
                filled: 0,
                // Shares the allocations just handed to the wire.
                request_frames: frames.clone(),
                deadline,
                retries: 0,
                span,
            },
        );
        (id, frames)
    }

    /// Consumes a frame from the wire at `now`. Returns a completion if
    /// this frame finished a request. Unknown, duplicate, and
    /// non-response frames are ignored (the fabric may duplicate after a
    /// spurious retransmit). A frame passed by value and held nowhere
    /// else moves its data into the reassembly slot
    /// ([`WireFrame::into_pdu`]); one passed by reference copies it.
    pub fn on_frame<F: WireFrame>(&mut self, now: SimTime, frame: F) -> Option<Completion> {
        let pdu = match frame.into_pdu() {
            Ok(pdu) => pdu,
            Err(_) => {
                // Truncated, old-version, or corrupted frame: drop it and
                // let retransmission recover.
                self.decode_errors += 1;
                self.metrics.inc("aoe.client.decode_errors");
                return None;
            }
        };
        if pdu.response && pdu.busy {
            // Latch the busy hint even off error replies or stale
            // duplicates: congestion news is news regardless of which
            // request carried it — but it is news about one endpoint,
            // so it latches under that endpoint's key only.
            self.busy_at.insert((pdu.shelf, pdu.slot), now);
            self.busy_latest = self.busy_latest.max(Some(now));
            self.metrics.inc("aoe.client.busy_hints");
        }
        if !pdu.response || pdu.error.is_some() {
            return None;
        }
        let id = pdu.tag.request_id();
        let frag = pdu.tag.fragment() as usize;
        let Some(pending) = self.pending.get_mut(&id) else {
            if self.retired.contains(&id) {
                // Reply to a request that already finished (a duplicate,
                // or a late reply racing a retransmit).
                self.stale_replies += 1;
                self.metrics.inc("aoe.client.stale_replies");
            }
            return None;
        };
        if frag >= pending.frags.len() || pending.frags[frag].is_some() {
            self.metrics.inc("aoe.client.dup_frags");
            return None;
        }
        let data = if pending.is_write {
            Vec::new()
        } else {
            // A read fragment fills its slot only if it carries exactly
            // the subrange the slot stands for. Anything else (a wrong
            // range, or data that does not match its sector count) is
            // dropped, and retransmission re-requests the slot.
            let whole = std::slice::from_ref(&pending.range);
            let runs: &[BlockRange] = if pending.runs.is_empty() {
                whole
            } else {
                &pending.runs
            };
            let expected = fragment_subrange(runs, sectors_per_frame(self.cfg.mtu), frag as u32);
            match pdu.data {
                Some(data)
                    if Some(pdu.range) == expected && data.len() == pdu.range.sectors as usize =>
                {
                    data
                }
                _ => {
                    self.bad_fragments += 1;
                    self.metrics.inc("aoe.client.bad_fragments");
                    return None;
                }
            }
        };
        pending.frags[frag] = Some(data);
        pending.filled += 1;
        if !pending.done() {
            // Fragment progress proves the request is in service: push
            // the retransmission deadline out so a reply train strung
            // across a congested egress path isn't re-requested while
            // its tail is still in flight.
            pending.deadline = pending
                .deadline
                .max(now + self.cfg.backoff(pending.retries));
            return None;
        }
        let pending = self.pending.remove(&id).expect("just present");
        self.retire_id(id);
        self.completions += 1;
        self.metrics.inc("aoe.client.completions");
        self.spans.end(now, pending.span);
        // The slots concatenate in fragment order: a one-fragment read's
        // data moves through whole, and a write's slots are empty.
        let mut frags = pending
            .frags
            .into_iter()
            .map(|f| f.expect("all fragments present"));
        let mut data = frags.next().unwrap_or_default();
        if !pending.is_write {
            data.reserve(pending.range.sectors as usize - data.len());
            frags.for_each(|f| data.extend(f));
        }
        Some(Completion {
            request_id: id,
            range: pending.range,
            data,
        })
    }

    /// Returns encoded frames due for retransmission at `now`. Requests
    /// that exhaust their retry budget are failed (see
    /// [`AoeClient::take_failures`]).
    pub fn poll_retransmit(&mut self, now: SimTime) -> Vec<FrameBytes> {
        let mut out = Vec::new();
        let max = self.cfg.max_retries;
        let mut dead = Vec::new();
        // Split the borrows so the telemetry handles are used in place:
        // this runs once per simulated tick, and cloning them every call
        // would churn their reference counts per poll for nothing.
        let Self {
            cfg,
            pending,
            prng,
            retransmits,
            busy_at,
            metrics,
            spans,
            ..
        } = self;
        for (&id, p) in pending.iter_mut() {
            if now < p.deadline {
                continue;
            }
            if p.retries >= max {
                // A fresh busy hint means a server is alive and shedding
                // load, not gone — but only a hint from *this* request's
                // endpoint is proof of that endpoint's life. A live
                // replica must not hold the budget open for a dead one.
                let busy_recent = busy_at
                    .get(&(p.shelf, p.slot))
                    .is_some_and(|&t| now.saturating_duration_since(t) <= cfg.busy_grace);
                if !busy_recent {
                    dead.push(id);
                    continue;
                }
                // Budget spent but the endpoint is provably alive: keep
                // retransmitting at the capped cadence until the busy
                // news goes stale.
                metrics.inc("aoe.client.budget_holds");
            } else {
                p.retries += 1;
            }
            let interval = cfg.backoff(p.retries);
            p.deadline = now + interval + jitter(prng, interval);
            let before = out.len();
            if p.is_write {
                // Writes are already one request frame per fragment:
                // resend only the unacknowledged ones (shared bytes, so
                // each resend is a reference-count bump).
                for (i, frame) in p.request_frames.iter().enumerate() {
                    if p.frags.get(i).is_none_or(|f| f.is_none()) {
                        out.push(frame.clone());
                        *retransmits += 1;
                        metrics.inc("aoe.client.retransmits");
                    }
                }
            } else if p.filled == 0 {
                // Nothing arrived: resend the original full read to its
                // original endpoint. Identical bytes mean the server
                // sees the same cache key (a drop-then-retransmit still
                // shares the fleet block cache) and can dedup it against
                // a still-queued first copy. The canonical v3 encoding
                // makes this exact for batched reads too.
                let mut pdu = if p.runs.is_empty() {
                    AoePdu::read_request(p.shelf, p.slot, Tag::new(id, 0), p.range)
                } else {
                    AoePdu::read_multi_request(p.shelf, p.slot, Tag::new(id, 0), p.runs.clone())
                };
                pdu.sprint = p.sprint;
                pdu.rdma = p.rdma;
                out.push(pdu.encode_frame());
                *retransmits += 1;
                metrics.inc("aoe.client.retransmits");
            } else {
                // Selective retransmission for reads: re-request only the
                // missing fragments, each as a subrange read whose tag
                // carries the fragment index (the server replies with
                // that index as the fragment base). For a batched read
                // the index runs globally across the run table, so each
                // missing fragment maps back through the table.
                let spf = sectors_per_frame(cfg.mtu);
                let whole = std::slice::from_ref(&p.range);
                let runs: &[BlockRange] = if p.runs.is_empty() { whole } else { &p.runs };
                for (i, (f, sub)) in p
                    .frags
                    .iter()
                    .zip(fragment_subranges(runs, spf))
                    .enumerate()
                {
                    if f.is_some() {
                        continue;
                    }
                    let mut pdu =
                        AoePdu::read_request(p.shelf, p.slot, Tag::new(id, i as u32), sub);
                    pdu.sprint = p.sprint;
                    pdu.rdma = p.rdma;
                    out.push(pdu.encode_frame());
                    *retransmits += 1;
                    metrics.inc("aoe.client.retransmits");
                }
            }
            let resent = out.len() - before;
            spans.instant(now, "aoe.client", "aoe.retransmit", p.span, || {
                format!("req {id} retry {} frames {resent}", p.retries)
            });
        }
        for id in dead {
            let p = self.pending.remove(&id).expect("collected above");
            self.spans
                .instant(now, "aoe.client", "aoe.failed", p.span, || {
                    format!("req {id} exhausted retry budget")
                });
            self.spans.end(now, p.span);
            self.retire_id(id);
            self.failures.push(id);
            self.metrics.inc("aoe.client.failures");
        }
        out
    }

    /// Drains the ids of requests that exhausted their retries.
    pub fn take_failures(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwsim::block::Lba;
    use simkit::NO_SPAN;

    fn mk_response(
        request: &FrameBytes,
        frag_data: &[(u32, BlockRange, Vec<SectorData>)],
    ) -> Vec<Vec<u8>> {
        let req = AoePdu::decode_frame(request).unwrap();
        frag_data
            .iter()
            .map(|(frag, range, data)| {
                let mut pdu = AoePdu::read_request(
                    req.shelf,
                    req.slot,
                    Tag::new(req.tag.request_id(), *frag),
                    *range,
                );
                pdu.response = true;
                pdu.data = Some(data.clone());
                pdu.encode()
            })
            .collect()
    }

    #[test]
    fn single_fragment_read_completes() {
        let mut c = AoeClient::new(ClientConfig::default());
        let range = BlockRange::new(Lba(100), 8);
        let (id, frames) = c.read(SimTime::ZERO, range, NO_SPAN);
        let data: Vec<SectorData> = (0..8).map(SectorData).collect();
        let responses = mk_response(&frames[0], &[(0, range, data.clone())]);
        let done = c.on_frame(SimTime::ZERO, &responses[0]).unwrap();
        assert_eq!(done.request_id, id);
        assert_eq!(done.data, data);
        assert_eq!(c.outstanding(), 0);
        assert_eq!(c.completions(), 1);
    }

    #[test]
    fn multi_fragment_read_reassembles_out_of_order() {
        let mut c = AoeClient::new(ClientConfig::default());
        // 40 sectors at MTU 9000 → 17 + 17 + 6.
        let range = BlockRange::new(Lba(0), 40);
        let (_, frames) = c.read(SimTime::ZERO, range, NO_SPAN);
        let d0: Vec<SectorData> = (0..17).map(SectorData).collect();
        let d1: Vec<SectorData> = (17..34).map(SectorData).collect();
        let d2: Vec<SectorData> = (34..40).map(SectorData).collect();
        let rs = mk_response(
            &frames[0],
            &[
                (0, BlockRange::new(Lba(0), 17), d0),
                (1, BlockRange::new(Lba(17), 17), d1),
                (2, BlockRange::new(Lba(34), 6), d2),
            ],
        );
        assert!(c.on_frame(SimTime::ZERO, &rs[2]).is_none());
        assert!(c.on_frame(SimTime::ZERO, &rs[0]).is_none());
        let done = c.on_frame(SimTime::ZERO, &rs[1]).unwrap();
        assert_eq!(done.data, (0..40).map(SectorData).collect::<Vec<_>>());
    }

    #[test]
    fn duplicate_fragments_ignored() {
        let mut c = AoeClient::new(ClientConfig::default());
        let range = BlockRange::new(Lba(0), 1);
        let (_, frames) = c.read(SimTime::ZERO, range, NO_SPAN);
        let rs = mk_response(&frames[0], &[(0, range, vec![SectorData(1)])]);
        assert!(c.on_frame(SimTime::ZERO, &rs[0]).is_some());
        assert!(
            c.on_frame(SimTime::ZERO, &rs[0]).is_none(),
            "late duplicate is dropped"
        );
    }

    #[test]
    fn write_fragments_and_completes_on_all_acks() {
        let mut c = AoeClient::new(ClientConfig::default());
        let range = BlockRange::new(Lba(0), 20);
        let data: Vec<SectorData> = (0..20).map(SectorData).collect();
        let (id, frames) = c.write(SimTime::ZERO, range, &data, NO_SPAN);
        assert_eq!(frames.len(), 2, "20 sectors at 17/frame → 2 fragments");
        // Ack each fragment.
        for frame in &frames {
            let req = AoePdu::decode_frame(frame).unwrap();
            let mut ack = req.clone();
            ack.response = true;
            ack.data = None;
            let result = c.on_frame(SimTime::ZERO, ack.encode());
            if req.tag.fragment() == 1 {
                let done = result.unwrap();
                assert_eq!(done.request_id, id);
                assert!(done.data.is_empty());
            } else {
                assert!(result.is_none());
            }
        }
    }

    #[test]
    fn retransmit_after_rto() {
        let mut c = AoeClient::new(ClientConfig {
            rto: SimDuration::from_millis(10),
            ..ClientConfig::default()
        });
        c.read(SimTime::ZERO, BlockRange::new(Lba(0), 1), NO_SPAN);
        // Before the first deadline (≥ rto) nothing is due.
        assert!(c.poll_retransmit(SimTime::from_millis(5)).is_empty());
        let due = c.next_retransmit_at().unwrap();
        assert!(due >= SimTime::from_millis(10), "deadline before rto");
        let resent = c.poll_retransmit(due);
        assert_eq!(resent.len(), 1);
        assert_eq!(c.retransmits(), 1);
        // Clock hasn't reached the backed-off deadline: nothing more.
        assert!(c
            .poll_retransmit(due + SimDuration::from_millis(1))
            .is_empty());
    }

    #[test]
    fn retransmit_schedule_backs_off_exponentially_and_caps() {
        let mut c = AoeClient::new(ClientConfig {
            rto: SimDuration::from_millis(10),
            max_rto: SimDuration::from_millis(40),
            max_retries: 20,
            ..ClientConfig::default()
        });
        c.read(SimTime::ZERO, BlockRange::new(Lba(0), 1), NO_SPAN);
        // Intervals between consecutive deadlines: 10, 20, 40, 40, ... ms,
        // each stretched by at most interval/4 of jitter.
        let mut prev = SimTime::ZERO;
        for want_ms in [10u64, 20, 40, 40, 40] {
            let due = c.next_retransmit_at().unwrap();
            let gap = due.saturating_duration_since(prev);
            let want = SimDuration::from_millis(want_ms);
            assert!(gap >= want, "gap {gap} below base interval {want}");
            assert!(
                gap <= want + want / 4,
                "gap {gap} exceeds interval {want} plus max jitter"
            );
            assert_eq!(c.poll_retransmit(due).len(), 1);
            prev = due;
        }
    }

    #[test]
    fn jitter_desynchronizes_equal_requests() {
        let mut c = AoeClient::new(ClientConfig::default());
        let deadlines: Vec<SimTime> = (0..8)
            .map(|_| {
                c.read(SimTime::ZERO, BlockRange::new(Lba(0), 1), NO_SPAN);
                c.pending.values().last().unwrap().deadline
            })
            .collect();
        let unique: std::collections::BTreeSet<_> = deadlines.iter().collect();
        assert!(unique.len() > 1, "all deadlines identical: no jitter");
        // And the schedule is reproducible: a fresh client draws the same.
        let mut c2 = AoeClient::new(ClientConfig::default());
        let again: Vec<SimTime> = (0..8)
            .map(|_| {
                c2.read(SimTime::ZERO, BlockRange::new(Lba(0), 1), NO_SPAN);
                c2.pending.values().last().unwrap().deadline
            })
            .collect();
        assert_eq!(deadlines, again);
    }

    #[test]
    fn request_fails_after_retry_budget() {
        let mut c = AoeClient::new(ClientConfig {
            rto: SimDuration::from_millis(1),
            max_retries: 2,
            ..ClientConfig::default()
        });
        let (id, _) = c.read(SimTime::ZERO, BlockRange::new(Lba(0), 1), NO_SPAN);
        let mut polls = 0;
        while c.outstanding() > 0 {
            let due = c.next_retransmit_at().unwrap();
            c.poll_retransmit(due);
            polls += 1;
            assert!(polls < 10, "request never failed");
        }
        assert_eq!(c.retransmits(), 2);
        assert_eq!(c.take_failures(), vec![id]);
        assert!(c.take_failures().is_empty(), "failures drain once");
    }

    #[test]
    fn full_loss_retransmits_the_original_request() {
        let mut c = AoeClient::new(ClientConfig::default());
        // Large enough to span several reply fragments.
        let range = BlockRange::new(Lba(0), 40);
        let (id, frames) = c.read(SimTime::ZERO, range, NO_SPAN);
        let due = c.next_retransmit_at().unwrap();
        let resent = c.poll_retransmit(due);
        // Nothing arrived: one frame, byte-identical to the original —
        // the server sees the same cache key and can dedup it.
        assert_eq!(resent.len(), 1);
        assert_eq!(resent[0], frames[0]);
        let pdu = AoePdu::decode_frame(&resent[0]).unwrap();
        assert_eq!(pdu.range, range);
        assert_eq!(pdu.tag, Tag::new(id, 0));
    }

    #[test]
    fn partial_loss_retransmits_only_missing_subranges() {
        let mut c = AoeClient::new(ClientConfig::default());
        let spf = sectors_per_frame(ClientConfig::default().mtu);
        let range = BlockRange::new(Lba(0), 2 * spf);
        let (_, frames) = c.read(SimTime::ZERO, range, NO_SPAN);
        let first = BlockRange::new(Lba(0), spf);
        let rs = mk_response(
            &frames[0],
            &[(0, first, (0..spf as u64).map(SectorData).collect())],
        );
        assert!(c.on_frame(SimTime::ZERO, &rs[0]).is_none());
        let due = c.next_retransmit_at().unwrap();
        let resent = c.poll_retransmit(due);
        assert_eq!(resent.len(), 1);
        let pdu = AoePdu::decode_frame(&resent[0]).unwrap();
        assert_eq!(pdu.range, BlockRange::new(Lba(spf as u64), spf));
        assert_eq!(pdu.tag.fragment(), 1);
    }

    #[test]
    fn fragment_progress_defers_the_retransmit_deadline() {
        let mut c = AoeClient::new(ClientConfig::default());
        let spf = sectors_per_frame(ClientConfig::default().mtu);
        let range = BlockRange::new(Lba(0), 2 * spf);
        let (_, frames) = c.read(SimTime::ZERO, range, NO_SPAN);
        let before = c.next_retransmit_at().unwrap();
        // One fragment lands just shy of the deadline: the reply train
        // is in flight, so the deadline moves out past it.
        let first = BlockRange::new(Lba(0), spf);
        let rs = mk_response(
            &frames[0],
            &[(0, first, (0..spf as u64).map(SectorData).collect())],
        );
        let almost = before - SimDuration::from_nanos(1);
        assert!(c.on_frame(almost, &rs[0]).is_none());
        let after = c.next_retransmit_at().unwrap();
        assert!(after > before, "deadline did not move: {after} <= {before}");
        assert!(c.poll_retransmit(before).is_empty());
    }

    #[test]
    fn busy_hint_holds_the_retry_budget_open() {
        let mut c = AoeClient::new(ClientConfig {
            rto: SimDuration::from_millis(1),
            max_retries: 1,
            busy_grace: SimDuration::from_millis(50),
            ..ClientConfig::default()
        });
        let range = BlockRange::new(Lba(0), 1);
        let (_, frames) = c.read(SimTime::ZERO, range, NO_SPAN);
        // A busy error-reply delivers the hint without completing the
        // request (error replies are otherwise ignored).
        let mut busy = AoePdu::decode_frame(&frames[0]).unwrap();
        busy.response = true;
        busy.busy = true;
        busy.error = Some(1);
        assert!(c.on_frame(SimTime::ZERO, busy.encode()).is_none());
        // Budget exhausts, but the fresh busy news keeps it alive and
        // retransmitting at the capped cadence.
        let mut now = SimTime::ZERO;
        for _ in 0..4 {
            now = c.next_retransmit_at().unwrap();
            assert!(!c.poll_retransmit(now).is_empty(), "kept retransmitting");
            assert_eq!(c.outstanding(), 1);
        }
        assert!(c.take_failures().is_empty(), "no failure while busy");
        // Once the busy news goes stale, the budget verdict lands.
        let stale = now + SimDuration::from_secs(1);
        c.poll_retransmit(stale);
        assert_eq!(c.take_failures().len(), 1, "dead server detected");
    }

    #[test]
    fn reads_stripe_across_endpoints_and_writes_stay_primary() {
        let mut c = AoeClient::new(ClientConfig {
            stripe_sectors: 8,
            ..ClientConfig::default()
        });
        c.set_read_endpoints(vec![(0, 0), (1, 0), (2, 0)]);
        for (lba, want_shelf) in [(0u64, 0u16), (8, 1), (16, 2), (24, 0), (7, 0), (9, 1)] {
            let (_, frames) = c.read(SimTime::ZERO, BlockRange::new(Lba(lba), 1), NO_SPAN);
            let pdu = AoePdu::decode_frame(&frames[0]).unwrap();
            assert_eq!(pdu.shelf, want_shelf, "lba {lba} steered to wrong endpoint");
        }
        // Writes ignore the stripe: the primary is the write-ordering point.
        let (_, frames) = c.write(
            SimTime::ZERO,
            BlockRange::new(Lba(16), 1),
            &[SectorData(1)],
            NO_SPAN,
        );
        assert_eq!(AoePdu::decode_frame(&frames[0]).unwrap().shelf, 0);
        // A peer registered mid-run only affects future reads.
        c.add_read_endpoint((9, 0));
        c.add_read_endpoint((9, 0)); // duplicate registration is a no-op
        assert_eq!(c.read_endpoints().len(), 4);
        let (_, frames) = c.read(SimTime::ZERO, BlockRange::new(Lba(24), 1), NO_SPAN);
        assert_eq!(AoePdu::decode_frame(&frames[0]).unwrap().shelf, 9);
    }

    #[test]
    fn shelf_read_tally_tracks_issue_endpoints() {
        let mut c = AoeClient::new(ClientConfig {
            stripe_sectors: 8,
            ..ClientConfig::default()
        });
        c.set_read_endpoints(vec![(0, 0), (1, 0)]);
        for lba in [0u64, 8, 16, 24] {
            c.read(SimTime::ZERO, BlockRange::new(Lba(lba), 1), NO_SPAN);
        }
        assert_eq!(c.reads_by_shelf().get(&0), Some(&2));
        assert_eq!(c.reads_by_shelf().get(&1), Some(&2));
        // Writes are not reads: the tally must not move.
        c.write(
            SimTime::ZERO,
            BlockRange::new(Lba(0), 1),
            &[SectorData(1)],
            NO_SPAN,
        );
        assert_eq!(c.reads_by_shelf().values().sum::<u64>(), 4);
    }

    #[test]
    fn removed_endpoint_gets_no_future_reads() {
        let mut c = AoeClient::new(ClientConfig {
            stripe_sectors: 8,
            ..ClientConfig::default()
        });
        c.set_read_endpoints(vec![(0, 0), (1, 0), (2, 0)]);
        // lba 8 stripes to shelf 1; retire that endpoint.
        c.remove_read_endpoint((1, 0));
        assert_eq!(c.read_endpoints(), &[(0, 0), (2, 0)]);
        for lba in (0..64).step_by(8) {
            let (_, frames) = c.read(SimTime::ZERO, BlockRange::new(Lba(lba), 1), NO_SPAN);
            let pdu = AoePdu::decode_frame(&frames[0]).unwrap();
            assert_ne!(pdu.shelf, 1, "reclaimed endpoint must see no reads");
        }
        // The last endpoint is never removed.
        c.remove_read_endpoint((0, 0));
        c.remove_read_endpoint((2, 0));
        assert_eq!(c.read_endpoints(), &[(2, 0)]);
    }

    #[test]
    fn write_target_override_redirects_writes_only() {
        let mut c = AoeClient::new(ClientConfig {
            stripe_sectors: 8,
            ..ClientConfig::default()
        });
        c.set_read_endpoints(vec![(0, 0), (1, 0)]);
        assert_eq!(c.write_endpoint(), (0, 0));
        c.set_write_target(0, 7);
        assert_eq!(c.write_endpoint(), (0, 7));
        let (_, frames) = c.write(
            SimTime::ZERO,
            BlockRange::new(Lba(3), 1),
            &[SectorData(5)],
            NO_SPAN,
        );
        let pdu = AoePdu::decode_frame(&frames[0]).unwrap();
        assert_eq!((pdu.shelf, pdu.slot), (0, 7), "write goes to the archive");
        // Reads still stripe over the read set.
        let (_, frames) = c.read(SimTime::ZERO, BlockRange::new(Lba(8), 1), NO_SPAN);
        assert_eq!(AoePdu::decode_frame(&frames[0]).unwrap().slot, 0);
    }

    #[test]
    fn busy_hint_from_one_endpoint_does_not_hold_anothers_budget() {
        // Regression: with k servers, the busy latch used to be one
        // global timestamp, so a live server's hint kept requests to a
        // dead server retransmitting forever instead of failing.
        let cfg = ClientConfig {
            rto: SimDuration::from_millis(1),
            max_retries: 1,
            busy_grace: SimDuration::from_millis(50),
            stripe_sectors: 8,
            ..ClientConfig::default()
        };
        let busy_from = |shelf: u16| {
            let mut pdu =
                AoePdu::read_request(shelf, 0, Tag::new(999, 0), BlockRange::new(Lba(0), 1));
            pdu.response = true;
            pdu.busy = true;
            pdu.error = Some(1);
            pdu.encode()
        };
        // Request pending on shelf 1, busy news from shelf 0: the budget
        // verdict must land — shelf 0's life says nothing about shelf 1.
        let mut c = AoeClient::new(cfg.clone());
        c.set_read_endpoints(vec![(0, 0), (1, 0)]);
        let (id, _) = c.read(SimTime::ZERO, BlockRange::new(Lba(8), 1), NO_SPAN);
        let mut now = SimTime::ZERO;
        while c.outstanding() > 0 {
            assert!(c.on_frame(now, busy_from(0)).is_none());
            now = c.next_retransmit_at().unwrap();
            c.poll_retransmit(now);
        }
        assert_eq!(c.take_failures(), vec![id], "dead endpoint not detected");
        // Same shape, but the busy news comes from the pending request's
        // own endpoint: the budget is held open.
        let mut c = AoeClient::new(cfg);
        c.set_read_endpoints(vec![(0, 0), (1, 0)]);
        c.read(SimTime::ZERO, BlockRange::new(Lba(8), 1), NO_SPAN);
        let mut now = SimTime::ZERO;
        let mut last_hint = now;
        for _ in 0..4 {
            last_hint = now;
            assert!(c.on_frame(now, busy_from(1)).is_none());
            now = c.next_retransmit_at().unwrap();
            assert!(!c.poll_retransmit(now).is_empty(), "kept retransmitting");
            assert_eq!(c.outstanding(), 1);
        }
        assert!(
            c.take_failures().is_empty(),
            "live endpoint spuriously failed"
        );
        // The aggregate latch still reports the newest hint for moderation.
        assert_eq!(c.server_busy_at(), Some(last_hint));
    }

    #[test]
    fn retransmit_returns_to_the_issue_endpoint_with_the_sprint_flag() {
        let mut c = AoeClient::new(ClientConfig {
            stripe_sectors: 8,
            ..ClientConfig::default()
        });
        c.set_read_endpoints(vec![(0, 0), (1, 0)]);
        c.set_sprint(true);
        let (_, frames) = c.read(SimTime::ZERO, BlockRange::new(Lba(8), 40), NO_SPAN);
        let pdu = AoePdu::decode_frame(&frames[0]).unwrap();
        assert_eq!((pdu.shelf, pdu.sprint), (1, true));
        // Even after the endpoint set and sprint mode change, a full-loss
        // retransmit is byte-identical to the original frame.
        c.set_read_endpoints(vec![(5, 0)]);
        c.set_sprint(false);
        let resent = c.poll_retransmit(c.next_retransmit_at().unwrap());
        assert_eq!(resent.len(), 1);
        assert_eq!(resent[0], frames[0]);
        // Partial-loss subrange retransmits also stick to the endpoint.
        let spf = sectors_per_frame(c.config().mtu);
        let first = BlockRange::new(Lba(8), spf);
        let rs = mk_response(
            &frames[0],
            &[(0, first, (0..spf as u64).map(SectorData).collect())],
        );
        assert!(c.on_frame(SimTime::ZERO, &rs[0]).is_none());
        let resent = c.poll_retransmit(c.next_retransmit_at().unwrap());
        let pdu = AoePdu::decode_frame(&resent[0]).unwrap();
        assert_eq!((pdu.shelf, pdu.sprint), (1, true));
    }

    #[test]
    fn stale_replies_are_suppressed_and_counted() {
        let mut c = AoeClient::new(ClientConfig::default());
        let range = BlockRange::new(Lba(0), 1);
        let (_, frames) = c.read(SimTime::ZERO, range, NO_SPAN);
        let rs = mk_response(&frames[0], &[(0, range, vec![SectorData(1)])]);
        assert!(c.on_frame(SimTime::ZERO, &rs[0]).is_some());
        // The same reply again: the request is gone, so this is stale.
        assert!(c.on_frame(SimTime::ZERO, &rs[0]).is_none());
        assert_eq!(c.stale_replies(), 1);
        // Replies for ids never issued are not counted as stale.
        let mut stray = AoePdu::read_request(0, 0, Tag::new(999, 0), range);
        stray.response = true;
        stray.data = Some(vec![SectorData(1)]);
        assert!(c.on_frame(SimTime::ZERO, stray.encode()).is_none());
        assert_eq!(c.stale_replies(), 1);
    }

    #[test]
    fn corrupted_frames_count_as_decode_errors() {
        let mut c = AoeClient::new(ClientConfig::default());
        let range = BlockRange::new(Lba(0), 1);
        let (_, frames) = c.read(SimTime::ZERO, range, NO_SPAN);
        let mut reply = mk_response(&frames[0], &[(0, range, vec![SectorData(1)])]).remove(0);
        reply[30] ^= 0xFF; // corrupt the payload: checksum must catch it
        assert!(c.on_frame(SimTime::ZERO, &reply).is_none());
        assert_eq!(c.decode_errors(), 1);
        assert_eq!(c.outstanding(), 1, "request still pending for retransmit");
    }

    #[test]
    fn busy_hint_latches_with_reply_timestamp() {
        let mut c = AoeClient::new(ClientConfig::default());
        let range = BlockRange::new(Lba(0), 1);
        let (_, frames) = c.read(SimTime::ZERO, range, NO_SPAN);
        assert_eq!(c.server_busy_at(), None);
        let mut reply = AoePdu::decode_frame(&frames[0]).unwrap();
        reply.response = true;
        reply.busy = true;
        reply.data = Some(vec![SectorData(1)]);
        let at = SimTime::from_millis(3);
        assert!(c.on_frame(at, reply.encode()).is_some());
        assert_eq!(c.server_busy_at(), Some(at));
        // A later calm reply does not clear the latch; the caller owns
        // the backoff-window comparison.
        let (_, frames) = c.read(at, range, NO_SPAN);
        let mut calm = AoePdu::decode_frame(&frames[0]).unwrap();
        calm.response = true;
        calm.data = Some(vec![SectorData(1)]);
        assert!(c.on_frame(SimTime::from_millis(9), calm.encode()).is_some());
        assert_eq!(c.server_busy_at(), Some(at));
    }

    #[test]
    fn reseed_jitter_changes_the_retransmit_schedule() {
        let deadlines = |seed: Option<u64>| -> Vec<SimTime> {
            let mut c = AoeClient::new(ClientConfig::default());
            if let Some(s) = seed {
                c.reseed_jitter(s);
            }
            (0..8)
                .map(|_| {
                    c.read(SimTime::ZERO, BlockRange::new(Lba(0), 1), NO_SPAN);
                    c.pending.values().last().unwrap().deadline
                })
                .collect()
        };
        let base = deadlines(None);
        let forked = deadlines(Some(0xF1EE7));
        assert_ne!(base, forked, "reseed left the jitter stream unchanged");
        assert_eq!(
            forked,
            deadlines(Some(0xF1EE7)),
            "reseeded stream reproducible"
        );
    }

    #[test]
    fn batched_read_completes_with_per_run_parts() {
        let mut c = AoeClient::new(ClientConfig::default());
        // Runs of 20 (2 fragments at 17/frame) and 5 (1 fragment):
        // global fragment indices 0,1 then 2.
        let runs = vec![BlockRange::new(Lba(0), 20), BlockRange::new(Lba(100), 5)];
        let (id, frames) = c.read_multi(SimTime::ZERO, &runs, NO_SPAN);
        assert_eq!(frames.len(), 1, "a batched read is one v3 frame");
        let req = AoePdu::decode_frame(&frames[0]).unwrap();
        assert_eq!(req.ranges, runs);
        let d0: Vec<SectorData> = (0..17).map(SectorData).collect();
        let d1: Vec<SectorData> = (17..20).map(SectorData).collect();
        let d2: Vec<SectorData> = (100..105).map(SectorData).collect();
        let rs = mk_response(
            &frames[0],
            &[
                (0, BlockRange::new(Lba(0), 17), d0),
                (1, BlockRange::new(Lba(17), 3), d1),
                (2, BlockRange::new(Lba(100), 5), d2),
            ],
        );
        // Out-of-order arrival, like any fragment train.
        assert!(c.on_frame(SimTime::ZERO, &rs[2]).is_none());
        assert!(c.on_frame(SimTime::ZERO, &rs[0]).is_none());
        let done = c.on_frame(SimTime::ZERO, &rs[1]).unwrap();
        assert_eq!(done.request_id, id);
        assert_eq!(done.data.len(), 25, "concatenation across runs");
        // The runs' data, split back by their sector counts.
        let (part0, part1) = done.data.split_at(runs[0].sectors as usize);
        assert_eq!(part0, (0..20).map(SectorData).collect::<Vec<_>>());
        assert_eq!(part1, (100..105).map(SectorData).collect::<Vec<_>>());
    }

    #[test]
    fn batched_full_loss_retransmits_the_original_v3_frame() {
        let mut c = AoeClient::new(ClientConfig::default());
        c.set_sprint(true);
        let runs = vec![BlockRange::new(Lba(8), 40), BlockRange::new(Lba(200), 8)];
        let (_, frames) = c.read_multi(SimTime::ZERO, &runs, NO_SPAN);
        // Mode changes after issue must not leak into the retransmit.
        c.set_sprint(false);
        let resent = c.poll_retransmit(c.next_retransmit_at().unwrap());
        assert_eq!(resent.len(), 1);
        assert_eq!(resent[0], frames[0], "byte-identical");
    }

    #[test]
    fn batched_partial_loss_maps_global_fragments_to_run_subranges() {
        let mut c = AoeClient::new(ClientConfig::default());
        // Run 0: 20 sectors → fragments 0 (lba 0 x17) and 1 (lba 17 x3);
        // run 1: 5 sectors → fragment 2 (lba 100 x5).
        let runs = vec![BlockRange::new(Lba(0), 20), BlockRange::new(Lba(100), 5)];
        let (id, frames) = c.read_multi(SimTime::ZERO, &runs, NO_SPAN);
        // Only global fragment 1 arrives.
        let rs = mk_response(
            &frames[0],
            &[(
                1,
                BlockRange::new(Lba(17), 3),
                (17..20).map(SectorData).collect(),
            )],
        );
        assert!(c.on_frame(SimTime::ZERO, &rs[0]).is_none());
        let resent = c.poll_retransmit(c.next_retransmit_at().unwrap());
        assert_eq!(resent.len(), 2, "two missing fragments re-requested");
        let p0 = AoePdu::decode_frame(&resent[0]).unwrap();
        assert_eq!(p0.tag, Tag::new(id, 0));
        assert_eq!(p0.range, BlockRange::new(Lba(0), 17));
        assert!(p0.ranges.is_empty(), "subrange rereads are plain v2");
        let p2 = AoePdu::decode_frame(&resent[1]).unwrap();
        assert_eq!(p2.tag, Tag::new(id, 2));
        assert_eq!(p2.range, BlockRange::new(Lba(100), 5));
    }

    #[test]
    fn rdma_mode_flags_reads_and_their_retransmits() {
        let mut c = AoeClient::new(ClientConfig::default());
        c.set_rdma(true);
        let (_, single) = c.read(SimTime::ZERO, BlockRange::new(Lba(0), 40), NO_SPAN);
        assert!(AoePdu::decode_frame(&single[0]).unwrap().rdma);
        // Two runs: one multi-range (v3) request.
        let runs = [BlockRange::new(Lba(50), 4), BlockRange::new(Lba(60), 4)];
        let (_, multi) = c.read_multi(SimTime::ZERO, &runs, NO_SPAN);
        let req = AoePdu::decode_frame(&multi[0]).unwrap();
        assert_eq!(req.ranges, runs, "two runs encode as v3");
        assert!(req.rdma);
        // The flag survives mode changes on every retransmit shape: the
        // v2 read's and the whole v3 request's.
        // (Poll past both jittered deadlines so each request resends.)
        c.set_rdma(false);
        let resent = c.poll_retransmit(SimTime::from_secs(5));
        assert_eq!(resent.len(), 2);
        let resent: Vec<AoePdu> = resent
            .iter()
            .map(|f| AoePdu::decode_frame(f).unwrap())
            .collect();
        assert!(resent.iter().all(|p| p.rdma), "retransmit lost the flag");
        assert!(
            resent.iter().any(|p| p.ranges == runs),
            "the v3 request resends whole"
        );
        // Writes never carry it (RDMA-assisted snapback is future work).
        let (_, w) = c.write(
            SimTime::ZERO,
            BlockRange::new(Lba(0), 1),
            &[SectorData(1)],
            NO_SPAN,
        );
        assert!(!AoePdu::decode_frame(&w[0]).unwrap().rdma);
    }

    #[test]
    fn unknown_frames_ignored() {
        let mut c = AoeClient::new(ClientConfig::default());
        assert!(c.on_frame(SimTime::ZERO, &[1, 2, 3][..]).is_none());
        let mut stray = AoePdu::read_request(0, 0, Tag::new(999, 0), BlockRange::new(Lba(0), 1));
        stray.response = true;
        stray.data = Some(vec![SectorData(1)]);
        assert!(c.on_frame(SimTime::ZERO, stray.encode()).is_none());
    }
}
