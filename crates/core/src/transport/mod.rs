//! Deployment transports.
//!
//! Everything the VMM moves over the management fabric — background-copy
//! fetches, copy-on-read redirect fetches, and snapshot-back writes —
//! goes through one of these transports. The transport decides how a set
//! of wanted block runs becomes wire requests and how the endpoints are
//! configured; the machine code is transport-agnostic and speaks only in
//! [`ReadPlan`]s and [`WritePlan`]s, planned by the methods of the
//! closed [`TransportKind`] enum a machine's configuration names.
//!
//! The planners are deterministic: the same claims always yield the
//! same plans, so same-seed runs replay byte-identically — the
//! committed chaos and transport digests depend on it.

use aoe::{AoeClient, ServerConfig, Tag};
use hwsim::block::BlockRange;
use hwsim::ib::IbConfig;

/// Which deployment transport a machine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// The paper's extended AoE, one request per run: exactly the shape
    /// every §5 figure was measured with. Its planner is the identity
    /// (claims pass through one per request, in arrival order), the
    /// client is left unconfigured, and the server exports over plain
    /// Ethernet.
    #[default]
    Aoe,
    /// Batched AoE: adjacent runs are coalesced and non-adjacent runs
    /// share one v3 frame's range table, which the server
    /// scatter-gathers into one reply burst under one request id. The
    /// win is per request, not per byte: each avoided request saves a
    /// round trip, a per-request server CPU charge and a DRR slot — the
    /// deployment's small-run tail (redirect holes, bitmap stragglers).
    /// Batches are fragment-budgeted so a reply burst fits the 12-bit
    /// fragment index space, and endpoint-grouped so a request never
    /// spans servers.
    Batched,
    /// RDMA: batched planning, with every read flagged for the server's
    /// InfiniBand HCA — built from the same shared [`IbConfig`] the
    /// Figure 12/13 microbenchmarks use — and served as a one-sided
    /// READ: no server worker, no DRR turn, one doorbell (base latency)
    /// per request however many runs it carries, and the reply burst on
    /// the fabric's IB lane past the Ethernet egress queue. Writes
    /// (snapshot-back) still take the AoE worker path, which must
    /// invalidate the block cache and order them against reads, but
    /// keep the batched coalescing.
    Rdma,
}

impl TransportKind {
    /// Every kind, in race order.
    pub const ALL: [TransportKind; 3] = [
        TransportKind::Aoe,
        TransportKind::Batched,
        TransportKind::Rdma,
    ];

    /// Parses a CLI label.
    pub fn parse(s: &str) -> Option<TransportKind> {
        TransportKind::ALL.into_iter().find(|k| k.label() == s)
    }

    /// Stable CLI/JSON label.
    pub fn label(self) -> &'static str {
        match self {
            TransportKind::Aoe => "aoe",
            TransportKind::Batched => "batched",
            TransportKind::Rdma => "rdma",
        }
    }

    /// Configures a freshly built client for this transport: the RDMA
    /// transport flags every read for the IB lane.
    pub fn configure_client(self, client: &mut AoeClient) {
        if self == TransportKind::Rdma {
            client.set_rdma(true);
        }
    }

    /// Server-side export configuration for this transport: the RDMA
    /// transport attaches the shared-config InfiniBand HCA.
    pub fn server_config(self, base: ServerConfig) -> ServerConfig {
        match self {
            TransportKind::Aoe | TransportKind::Batched => base,
            TransportKind::Rdma => ServerConfig {
                rdma: Some(IbConfig::qdr_4x()),
                ..base
            },
        }
    }

    /// Groups wanted read claims into wire requests. Claims must be
    /// disjoint; order is preserved for plain AoE and normalized to LBA
    /// order per batch otherwise.
    pub fn plan_reads(self, client: &AoeClient, claims: &[BlockRange]) -> Vec<ReadPlan> {
        match self {
            TransportKind::Aoe => claims
                .iter()
                .map(|&claim| ReadPlan {
                    runs: vec![claim],
                    members: vec![claim],
                })
                .collect(),
            TransportKind::Batched | TransportKind::Rdma => plan_reads_batched(client, claims),
        }
    }

    /// Groups dirty write claims into wire requests. Claims must be
    /// disjoint.
    pub fn plan_writes(self, client: &AoeClient, claims: &[BlockRange]) -> Vec<WritePlan> {
        match self {
            TransportKind::Aoe => claims
                .iter()
                .map(|&claim| WritePlan {
                    range: claim,
                    members: vec![claim],
                })
                .collect(),
            TransportKind::Batched | TransportKind::Rdma => plan_writes_batched(client, claims),
        }
    }
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One planned read request: `runs` is what goes on the wire (a single
/// run encodes as a v2 read, several as a v3 multi-range table);
/// `members` are the caller's original claims the request covers, in LBA
/// order within each run. The completed payload is the members'
/// concatenation in `members` order, so callers slice it back into
/// per-claim deliveries without any index bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadPlan {
    /// Wire runs: disjoint, each contiguous; one table entry each.
    pub runs: Vec<BlockRange>,
    /// Original claims covered, tiling `runs` exactly.
    pub members: Vec<BlockRange>,
}

/// One planned write request: a single contiguous `range` on the wire
/// (AoE writes are always v2) covering the original dirty `members`, so
/// acks and failures can be mapped back per claim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WritePlan {
    /// The contiguous merged range written in one request.
    pub range: BlockRange,
    /// Original dirty claims covered, tiling `range` exactly.
    pub members: Vec<BlockRange>,
}

/// Merges a set of disjoint block runs into the minimal sorted set of
/// contiguous runs: sorts by LBA and fuses every adjacent pair. The
/// output covers exactly the input's sector set (no sector gained, none
/// lost) with no overlap — `tests/properties.rs` pins both.
pub fn coalesce_runs(runs: &[BlockRange]) -> Vec<BlockRange> {
    let mut sorted: Vec<BlockRange> = runs.iter().copied().filter(|r| r.sectors > 0).collect();
    sorted.sort_by_key(|r| r.lba);
    let mut out: Vec<BlockRange> = Vec::with_capacity(sorted.len());
    for run in sorted {
        match out.last_mut() {
            Some(prev) if prev.end() >= run.lba => {
                let end = prev.end().0.max(run.end().0);
                prev.sectors = (end - prev.lba.0) as u32;
            }
            _ => out.push(run),
        }
    }
    out
}

/// Fragments a read of `sectors` needs at `spf` sectors per frame.
fn frags(sectors: u32, spf: u32) -> u32 {
    sectors.div_ceil(spf.max(1))
}

/// Shared batched planner: groups claims by endpoint (a multi-range
/// request addresses exactly one server), chunks each group so the reply
/// burst fits the 12-bit fragment index space, and coalesces adjacent
/// claims within each chunk into single table entries.
fn plan_reads_batched(client: &AoeClient, claims: &[BlockRange]) -> Vec<ReadPlan> {
    let spf = aoe::sectors_per_frame(client.config().mtu);
    let budget = Tag::MAX_FRAGMENT + 1;
    let mut plans = Vec::new();
    for group in group_by_endpoint(client, claims) {
        let mut members: Vec<BlockRange> = Vec::new();
        let mut cost = 0u32;
        for claim in group {
            let c = frags(claim.sectors, spf);
            if !members.is_empty() && cost + c > budget {
                plans.push(seal_read_chunk(std::mem::take(&mut members)));
                cost = 0;
            }
            cost += c;
            members.push(claim);
        }
        if !members.is_empty() {
            plans.push(seal_read_chunk(members));
        }
    }
    plans
}

fn seal_read_chunk(mut members: Vec<BlockRange>) -> ReadPlan {
    members.sort_by_key(|r| r.lba);
    let runs = coalesce_runs(&members);
    ReadPlan { runs, members }
}

/// Shared batched write planner: endpoint-grouped, fragment-budgeted,
/// and each *contiguous* coalesced run becomes one write (an AoE write
/// carries one range, so non-adjacent dirty claims stay separate
/// requests — only true neighbors merge).
fn plan_writes_batched(client: &AoeClient, claims: &[BlockRange]) -> Vec<WritePlan> {
    let spf = aoe::sectors_per_frame(client.config().mtu);
    let budget = Tag::MAX_FRAGMENT + 1;
    let mut plans = Vec::new();
    for group in group_by_endpoint(client, claims) {
        let mut sorted = group;
        sorted.sort_by_key(|r| r.lba);
        let mut members: Vec<BlockRange> = Vec::new();
        for claim in sorted {
            let contiguous = members
                .last()
                .is_some_and(|prev: &BlockRange| prev.end() == claim.lba);
            let total: u32 = members.iter().map(|r| r.sectors).sum();
            if !members.is_empty() && (!contiguous || frags(total + claim.sectors, spf) > budget) {
                plans.push(seal_write_chunk(std::mem::take(&mut members)));
            }
            members.push(claim);
        }
        if !members.is_empty() {
            plans.push(seal_write_chunk(members));
        }
    }
    plans
}

fn seal_write_chunk(members: Vec<BlockRange>) -> WritePlan {
    let total: u32 = members.iter().map(|r| r.sectors).sum();
    let range = BlockRange::new(members[0].lba, total);
    WritePlan { range, members }
}

/// Splits `claims` into per-endpoint groups, preserving first-seen
/// endpoint order and claim order within each group (both matter for
/// determinism).
fn group_by_endpoint(client: &AoeClient, claims: &[BlockRange]) -> Vec<Vec<BlockRange>> {
    let mut order: Vec<(u16, u8)> = Vec::new();
    let mut groups: Vec<Vec<BlockRange>> = Vec::new();
    for claim in claims {
        let ep = client.endpoint_for(*claim);
        match order.iter().position(|&e| e == ep) {
            Some(i) => groups[i].push(*claim),
            None => {
                order.push(ep);
                groups.push(vec![*claim]);
            }
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use aoe::ClientConfig;
    use hwsim::block::Lba;

    fn client() -> AoeClient {
        AoeClient::new(ClientConfig::default())
    }

    fn r(lba: u64, sectors: u32) -> BlockRange {
        BlockRange::new(Lba(lba), sectors)
    }

    #[test]
    fn kind_labels_round_trip() {
        for kind in TransportKind::ALL {
            assert_eq!(TransportKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(TransportKind::parse("carrier-pigeon"), None);
        assert_eq!(TransportKind::default(), TransportKind::Aoe);
    }

    #[test]
    fn coalesce_merges_adjacent_and_overlapping() {
        let out = coalesce_runs(&[r(10, 5), r(0, 10), r(20, 4), r(15, 6)]);
        assert_eq!(out, vec![r(0, 24)]);
        let out = coalesce_runs(&[r(0, 4), r(8, 4)]);
        assert_eq!(out, vec![r(0, 4), r(8, 4)]);
        assert!(coalesce_runs(&[]).is_empty());
    }

    #[test]
    fn plain_plans_one_request_per_claim_in_order() {
        let c = client();
        let claims = [r(100, 8), r(0, 8), r(50, 8)];
        let plans = TransportKind::Aoe.plan_reads(&c, &claims);
        assert_eq!(plans.len(), 3);
        for (plan, claim) in plans.iter().zip(claims) {
            assert_eq!(plan.runs, vec![claim]);
            assert_eq!(plan.members, vec![claim]);
        }
    }

    #[test]
    fn batched_plans_coalesce_into_one_request() {
        let c = client();
        // Two adjacent claims plus one distant: one request, two runs.
        let claims = [r(0, 2048), r(2048, 2048), r(100_000, 2048)];
        let plans = TransportKind::Batched.plan_reads(&c, &claims);
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].runs, vec![r(0, 4096), r(100_000, 2048)]);
        assert_eq!(plans[0].members.len(), 3);
    }

    #[test]
    fn batched_plans_respect_the_fragment_budget() {
        let c = client();
        let spf = aoe::sectors_per_frame(c.config().mtu);
        let budget = Tag::MAX_FRAGMENT + 1;
        // Enough adjacent claims to overflow one request's reply burst.
        let per_claim = 2048u32;
        let n = (budget / frags(per_claim, spf) + 2) as usize;
        let claims: Vec<BlockRange> = (0..n)
            .map(|i| r(i as u64 * per_claim as u64, per_claim))
            .collect();
        let plans = TransportKind::Batched.plan_reads(&c, &claims);
        assert!(plans.len() >= 2, "must split past the budget");
        for plan in &plans {
            let total: u32 = plan.runs.iter().map(|run| frags(run.sectors, spf)).sum();
            assert!(total <= budget);
        }
        let covered: usize = plans.iter().map(|p| p.members.len()).sum();
        assert_eq!(covered, n, "every claim lands in exactly one plan");
    }

    #[test]
    fn write_plans_merge_only_contiguous_claims() {
        let c = client();
        let claims = [r(0, 64), r(64, 64), r(200, 64)];
        let plans = TransportKind::Rdma.plan_writes(&c, &claims);
        assert_eq!(plans.len(), 2);
        assert_eq!(plans[0].range, r(0, 128));
        assert_eq!(plans[0].members, vec![r(0, 64), r(64, 64)]);
        assert_eq!(plans[1].range, r(200, 64));
        // Plain never merges.
        let plain = TransportKind::Aoe.plan_writes(&c, &claims);
        assert_eq!(plain.len(), 3);
    }

    #[test]
    fn rdma_transport_flags_the_client_and_arms_the_server() {
        let mut c = client();
        let t = TransportKind::Rdma;
        t.configure_client(&mut c);
        assert!(c.rdma());
        let sc = t.server_config(ServerConfig::default());
        assert_eq!(sc.rdma, Some(hwsim::ib::IbConfig::qdr_4x()));
        // The other transports leave both alone.
        for kind in [TransportKind::Aoe, TransportKind::Batched] {
            let mut c2 = client();
            kind.configure_client(&mut c2);
            assert!(!c2.rdma());
            assert_eq!(kind.server_config(ServerConfig::default()).rdma, None);
        }
    }
}
