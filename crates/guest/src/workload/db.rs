//! Database performance models: memcached and Cassandra under YCSB.
//!
//! Figure 5 plots throughput/latency *ratios to bare metal* over a
//! 20-minute run that spans the deployment phase and de-virtualization.
//! Simulating 35 million memcached operations discretely is pointless —
//! the per-op math never changes within a sampling window — so the
//! databases are modeled per window from **measured machine state**:
//!
//! - `mem_slowdown` — from the VT-x model: EPT on/off × the workload's
//!   TLB-miss share (the paper's "primary reason ... TLB pollution").
//! - `vmm_cpu_share` — CPU time consumed by the VMM's deployment threads
//!   (paper: 5% streaming threads + 1% VMM core during deploy, 0 after).
//! - `extra_io_latency_us` — measured inflation of the workload's own
//!   disk writes (Cassandra's commit log) through the mediated disk.
//! - `extra_latency_us` — additive per-op latency from the I/O path
//!   (virtual interrupts/IOMMU on KVM; ~0 on BMcast).
//!
//! The *workload side* (what Cassandra writes to disk) is a real demand
//! stream ([`CommitLogStream`]) that runs through the driver → mediator →
//! disk path, so deployment-phase interference is simulated, not assumed.

use crate::io::{IoRequest, RequestId};
use hwsim::block::{BlockRange, Lba, SectorData};
use simkit::Prng;

/// Machine state sampled over one measurement window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfEnv {
    /// Memory-access slowdown factor (1.0 = native; EPT-dependent).
    pub mem_slowdown: f64,
    /// Fraction of total CPU time consumed by VMM threads.
    pub vmm_cpu_share: f64,
    /// Measured extra latency on the workload's own disk I/O, µs.
    pub extra_io_latency_us: f64,
    /// Additive per-operation latency from the I/O/interrupt path, µs.
    pub extra_latency_us: f64,
}

impl PerfEnv {
    /// Bare metal: no overhead of any kind.
    pub fn bare_metal() -> PerfEnv {
        PerfEnv {
            mem_slowdown: 1.0,
            vmm_cpu_share: 0.0,
            extra_io_latency_us: 0.0,
            extra_latency_us: 0.0,
        }
    }
}

/// A closed-loop database serving model.
#[derive(Debug, Clone)]
pub struct DbPerfModel {
    /// Display name.
    pub name: &'static str,
    /// Bare-metal throughput, kilo-transactions/second.
    pub base_throughput_ktps: f64,
    /// Bare-metal mean latency, µs.
    pub base_latency_us: f64,
    /// Fraction of native runtime spent in TLB misses (EPT sensitivity).
    pub tlb_share: f64,
    /// Weight of VMM CPU share on service time: deployment threads run
    /// partly on otherwise-idle cores, so a 6% CPU share does not cost 6%.
    pub vmm_cpu_weight: f64,
    /// Latency amplification: queueing turns a service-time increase of x
    /// into a latency increase of `latency_amplification * x`.
    pub latency_amplification: f64,
    /// Weight of measured disk-latency inflation on throughput (writes on
    /// the critical path: commit-log syncs).
    pub disk_sensitivity: f64,
}

impl DbPerfModel {
    /// memcached under YCSB 95/5 (paper: 36.4 KT/s, 281 µs on bare metal).
    pub fn memcached() -> DbPerfModel {
        DbPerfModel {
            name: "memcached",
            base_throughput_ktps: 36.4,
            base_latency_us: 281.0,
            tlb_share: 0.005,
            vmm_cpu_weight: 0.17,
            latency_amplification: 0.65,
            disk_sensitivity: 0.0, // in-memory store: no disk on the path
        }
    }

    /// Cassandra under YCSB 30/70 (paper: 60.0 KT/s, 2443 µs on bare
    /// metal).
    pub fn cassandra() -> DbPerfModel {
        DbPerfModel {
            name: "cassandra",
            base_throughput_ktps: 60.0,
            base_latency_us: 2_443.0,
            tlb_share: 0.005,
            vmm_cpu_weight: 0.17,
            latency_amplification: 0.6,
            disk_sensitivity: 0.0095,
        }
    }

    /// Per-operation service-time inflation factor under `env`.
    pub fn service_factor(&self, env: &PerfEnv) -> f64 {
        env.mem_slowdown * (1.0 + env.vmm_cpu_weight_applied(self.vmm_cpu_weight))
    }

    /// Throughput in KT/s under `env`.
    pub fn throughput_ktps(&self, env: &PerfEnv) -> f64 {
        self.base_throughput_ktps / self.throughput_inflation(env)
    }

    /// Throughput as a ratio to bare metal (1.0 = native).
    pub fn throughput_ratio(&self, env: &PerfEnv) -> f64 {
        1.0 / self.throughput_inflation(env)
    }

    fn throughput_inflation(&self, env: &PerfEnv) -> f64 {
        self.service_factor(env) + self.disk_term(env)
    }

    /// Throughput/latency penalty from inflated disk writes, as a fraction
    /// of base latency.
    fn disk_term(&self, env: &PerfEnv) -> f64 {
        self.disk_sensitivity * env.extra_io_latency_us / self.base_latency_us.max(1.0)
    }

    /// Mean latency in µs under `env`.
    pub fn latency_us(&self, env: &PerfEnv) -> f64 {
        self.base_latency_us * self.latency_ratio(env)
    }

    /// Latency as a ratio to bare metal.
    pub fn latency_ratio(&self, env: &PerfEnv) -> f64 {
        let sf = self.service_factor(env);
        1.0 + self.latency_amplification * (sf - 1.0)
            + env.extra_latency_us / self.base_latency_us.max(1.0)
            + self.disk_term(env)
    }
}

impl PerfEnv {
    fn vmm_cpu_weight_applied(&self, weight: f64) -> f64 {
        self.vmm_cpu_share * weight
    }
}

/// Cassandra's disk demand: an append-only commit log with periodic
/// memtable flushes, both sequential — the stream that keeps the disk busy
/// enough to stretch the deployment phase from 16 to 17 minutes.
///
/// # Examples
///
/// ```
/// use guestsim::workload::db::CommitLogStream;
/// use hwsim::block::{BlockRange, Lba};
/// use simkit::Prng;
///
/// let mut log = CommitLogStream::new(BlockRange::new(Lba(1 << 20), 1 << 20), 4);
/// let mut prng = Prng::new(1);
/// let reqs = log.demand_for_ops(51_400, &mut prng); // one second at 51.4 KT/s
/// assert!(!reqs.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct CommitLogStream {
    region: BlockRange,
    next: Lba,
    batch_sectors: u32,
    ops_per_batch: u64,
    pending_ops: u64,
    next_id: u64,
    flush_every_batches: u64,
    batches_done: u64,
}

impl CommitLogStream {
    /// A commit log confined to `region`, batching roughly
    /// `ops_per_kilobatch × 1000` operations per 256 KB log write.
    pub fn new(region: BlockRange, ops_per_kilobatch: u64) -> CommitLogStream {
        CommitLogStream {
            region,
            next: region.lba,
            batch_sectors: 512, // 256 KB
            ops_per_batch: ops_per_kilobatch.max(1) * 1000,
            pending_ops: 0,
            next_id: 1 << 32,
            flush_every_batches: 64,
            batches_done: 0,
        }
    }

    fn alloc(&mut self, sectors: u32) -> BlockRange {
        if self.next.0 + sectors as u64 > self.region.end().0 {
            self.next = self.region.lba; // wrap: logs are recycled
        }
        let r = BlockRange::new(self.next, sectors);
        self.next = r.end();
        r
    }

    /// Disk writes implied by `ops` database operations.
    pub fn demand_for_ops(&mut self, ops: u64, prng: &mut Prng) -> Vec<IoRequest> {
        self.pending_ops += ops;
        let mut out = Vec::new();
        while self.pending_ops >= self.ops_per_batch {
            self.pending_ops -= self.ops_per_batch;
            let range = self.alloc(self.batch_sectors);
            let data: Vec<SectorData> = (0..range.sectors)
                .map(|_| SectorData(prng.next_u64() | 1))
                .collect();
            self.next_id += 1;
            out.push(IoRequest::write(RequestId(self.next_id), range, data));
            self.batches_done += 1;
            // Periodic memtable flush: a larger sequential write burst.
            if self.batches_done.is_multiple_of(self.flush_every_batches) {
                let flush = self.alloc(4096); // 2 MB
                let data: Vec<SectorData> = (0..flush.sectors)
                    .map(|_| SectorData(prng.next_u64() | 1))
                    .collect();
                self.next_id += 1;
                out.push(IoRequest::write(RequestId(self.next_id), flush, data));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deployment-phase environment shaped like the paper's measurements.
    fn deploy_env() -> PerfEnv {
        PerfEnv {
            mem_slowdown: 1.045, // EPT at tlb_share 0.005
            vmm_cpu_share: 0.06,
            extra_io_latency_us: 0.0,
            extra_latency_us: 0.0,
        }
    }

    #[test]
    fn memcached_deploy_matches_figure_5a() {
        let m = DbPerfModel::memcached();
        let r = m.throughput_ratio(&deploy_env());
        assert!((r - 0.948).abs() < 0.015, "throughput ratio {r:.3}");
        // The paper's measured numbers: 291 us during deploy over a
        // 281 us base, i.e. +3.6%.
        let l = m.latency_ratio(&deploy_env());
        assert!((l - 1.036).abs() < 0.01, "latency ratio {l:.3}");
    }

    #[test]
    fn bare_metal_is_unity() {
        for m in [DbPerfModel::memcached(), DbPerfModel::cassandra()] {
            assert_eq!(m.throughput_ratio(&PerfEnv::bare_metal()), 1.0);
            assert_eq!(m.latency_ratio(&PerfEnv::bare_metal()), 1.0);
            assert_eq!(
                m.throughput_ktps(&PerfEnv::bare_metal()),
                m.base_throughput_ktps
            );
        }
    }

    #[test]
    fn cassandra_feels_disk_inflation() {
        let m = DbPerfModel::cassandra();
        let mut env = deploy_env();
        let before = m.throughput_ratio(&env);
        env.extra_io_latency_us = 9_800.0; // measured commit-log inflation
        let after = m.throughput_ratio(&env);
        assert!(after < before, "disk inflation must cost throughput");
        assert!((0.89..0.94).contains(&after), "ratio {after:.3}");
    }

    #[test]
    fn memcached_ignores_disk() {
        let m = DbPerfModel::memcached();
        let mut env = deploy_env();
        env.extra_io_latency_us = 10_000.0;
        assert_eq!(m.throughput_ratio(&env), m.throughput_ratio(&deploy_env()));
    }

    #[test]
    fn extra_latency_is_additive_only_on_latency() {
        let m = DbPerfModel::memcached();
        let mut env = PerfEnv::bare_metal();
        env.extra_latency_us = 28.1; // 10% of base
        assert!((m.latency_ratio(&env) - 1.1).abs() < 1e-9);
        assert_eq!(m.throughput_ratio(&env), 1.0);
    }

    #[test]
    fn commit_log_is_sequential_until_wrap() {
        let mut log = CommitLogStream::new(BlockRange::new(Lba(1000), 1 << 20), 4);
        let mut prng = Prng::new(1);
        let reqs = log.demand_for_ops(20_000, &mut prng);
        assert_eq!(reqs.len(), 5, "20k ops / 4k per batch");
        for w in reqs.windows(2) {
            assert_eq!(w[1].range.lba, w[0].range.end(), "log appends");
        }
        assert!(reqs.iter().all(|r| r.is_write()));
    }

    #[test]
    fn commit_log_wraps_in_region() {
        let region = BlockRange::new(Lba(0), 2048); // room for 4 batches
        let mut log = CommitLogStream::new(region, 1);
        let mut prng = Prng::new(2);
        let reqs = log.demand_for_ops(10_000, &mut prng);
        for r in &reqs {
            assert!(r.range.lba.0 + r.range.sectors as u64 <= region.end().0 + 4096);
        }
    }

    #[test]
    fn commit_log_accumulates_partial_batches() {
        let mut log = CommitLogStream::new(BlockRange::new(Lba(0), 1 << 20), 4);
        let mut prng = Prng::new(3);
        assert!(log.demand_for_ops(3_000, &mut prng).is_empty());
        assert_eq!(log.demand_for_ops(1_500, &mut prng).len(), 1);
    }
}
