//! The conventional-VMM baseline: KVM with the ELI patch.
//!
//! The paper compares BMcast against "a state-of-the-art VMM, i.e.,
//! kernel-based virtual machine (KVM) with exit-less interrupts (ELI)",
//! configured with CPU pinning and 2-GB huge pages. Its residual overheads
//! are exactly the mechanisms named in §5, each modeled here:
//!
//! - **always-on nested paging** (two-dimensional page walks) and **cache
//!   pollution** by the VMM + host OS → memory-bench and database costs;
//! - **lock-holder preemption** — a vCPU descheduled while its guest
//!   thread holds a lock convoys every waiter → the thread-bench blowup;
//! - **virtual I/O devices** (virtio) → per-request storage overhead;
//! - **IOMMU + interrupt path** on assigned devices → InfiniBand latency
//!   and MPI per-message cost.

use guestsim::os::BootProfile;
use guestsim::workload::db::PerfEnv;
use guestsim::workload::mpi::MpiParams;
use guestsim::workload::sysbench::{MemoryBenchJob, ThreadBenchJob};
use simkit::SimDuration;

use crate::netboot::analytic_boot_time;

/// Guest disk backends used in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvmStorage {
    /// virtio-blk over a local raw disk.
    LocalVirtio,
    /// Disk image on NFS.
    Nfs,
    /// Disk image over iSCSI.
    Iscsi,
}

/// The KVM platform model.
#[derive(Debug, Clone)]
pub struct KvmModel {
    /// Exit-less interrupts enabled (the ELI patch).
    pub eli: bool,
    /// 2-GB huge pages backing the guest.
    pub huge_pages: bool,
    /// vCPUs pinned to physical cores.
    pub cpu_pinning: bool,
}

impl Default for KvmModel {
    fn default() -> Self {
        // The paper's configuration.
        KvmModel {
            eli: true,
            huge_pages: true,
            cpu_pinning: true,
        }
    }
}

impl KvmModel {
    /// Time for the KVM host (a full Linux) to boot: 30 s in §5.1, six
    /// times the BMcast VMM's 5 s.
    pub fn host_boot_time(&self) -> SimDuration {
        SimDuration::from_secs(30)
    }

    /// Per-read guest storage latency for a boot-time read.
    fn boot_read_latency(&self, storage: KvmStorage) -> SimDuration {
        match storage {
            KvmStorage::LocalVirtio => SimDuration::from_micros(2_400),
            KvmStorage::Nfs => SimDuration::from_micros(3_250),
            KvmStorage::Iscsi => SimDuration::from_micros(6_500),
        }
    }

    /// Guest OS boot time on the given backend (Figure 4's KVM bars:
    /// 42 s on NFS, 55 s on iSCSI).
    pub fn guest_boot_time(&self, profile: &BootProfile, storage: KvmStorage) -> SimDuration {
        analytic_boot_time(
            profile,
            self.boot_read_latency(storage),
            self.memory_factor_base(),
        )
    }

    /// The guest's baseline memory slowdown: nested paging (tempered by
    /// huge pages) plus host/VMM cache pollution.
    fn memory_factor_base(&self) -> f64 {
        if self.huge_pages {
            1.05
        } else {
            1.09
        }
    }

    /// Database-model environment (Figure 5's KVM curves). KVM performs
    /// no deployment; its costs are pure virtualization.
    pub fn db_perf_env(&self) -> PerfEnv {
        PerfEnv {
            mem_slowdown: 1.055,
            // qemu I/O threads + vhost kicks consume host CPU.
            vmm_cpu_share: 0.12,
            // virtio-blk request inflation on the commit-log path.
            extra_io_latency_us: 400.0,
            // Virtual interrupt delivery / notification path per op.
            extra_latency_us: if self.eli { 38.0 } else { 85.0 },
        }
    }

    /// Elapsed-time inflation factor for the SysBench thread benchmark
    /// (Figure 8): the lock-holder preemption model.
    ///
    /// A vCPU is preempted by host work (I/O threads, timers) at some
    /// rate; if its guest thread holds a mutex, every waiter convoys until
    /// the vCPU is rescheduled a host timeslice later. The cost therefore
    /// scales with the probability of holding a lock and the number of
    /// waiters per lock.
    pub fn lock_holder_factor(&self, job: &ThreadBenchJob, threads: u32, cores: u32) -> f64 {
        let preempt_rate_per_sec = if self.cpu_pinning { 200.0 } else { 450.0 };
        let resched_delay_sec = 0.00455; // ~half a host scheduling period
        let crit_share = job.crit_ns / (job.crit_ns + job.yield_ns);
        let waiters_per_lock = (threads as f64 / job.locks as f64 - 1.0).max(0.0);
        let convoy = preempt_rate_per_sec * resched_delay_sec * crit_share * waiters_per_lock;
        let base_tax = 0.03; // exit/timer noise even uncontended
        let _ = cores;
        1.0 + base_tax + convoy
    }

    /// Elapsed-time inflation for the SysBench memory benchmark
    /// (Figure 9): nested-paging TLB cost plus cache pollution, both
    /// growing with block size.
    pub fn memory_factor(&self, job: &MemoryBenchJob, block_bytes: u64) -> f64 {
        let ept = job.tlb_share(block_bytes) * 9.0; // 5x misses at 2x latency
        let kb = block_bytes as f64 / 1024.0;
        let pollution = 0.02 + 0.017 * kb;
        1.0 + ept + pollution
    }

    /// Per-request virtio storage overhead (exit + host block layer +
    /// completion notification) for large sequential requests.
    pub fn virtio_request_overhead(&self, write: bool, storage: KvmStorage) -> SimDuration {
        let base = if write {
            SimDuration::from_micros(1_680)
        } else {
            SimDuration::from_micros(1_240)
        };
        match storage {
            KvmStorage::LocalVirtio => base,
            KvmStorage::Nfs | KvmStorage::Iscsi => base + SimDuration::from_micros(260),
        }
    }

    /// fio throughput in MB/s for 1-MB requests (Figure 10's KVM bars).
    pub fn fio_throughput_mbps(&self, write: bool, storage: KvmStorage) -> f64 {
        let base_rate = if write { 111.9e6 } else { 116.6e6 };
        let per_req = 1_048_576.0 / base_rate // media transfer
            + 20e-6                            // command overhead
            + self.virtio_request_overhead(write, storage).as_secs_f64();
        1_048_576.0 / per_req / 1e6
    }

    /// Extra RDMA latency on an assigned InfiniBand device: IOMMU
    /// translations, cache pollution, and nested paging add 23.6% in
    /// Figure 13.
    pub fn ib_latency_overhead(&self, base: SimDuration) -> SimDuration {
        base.mul_f64(0.236)
    }

    /// MPI point-to-point parameters on KVM (Figure 6): the fabric's α
    /// plus a per-message software cost (notification handling survives
    /// even with ELI for inter-node completions), and polluted reduction
    /// compute.
    pub fn mpi_params(&self) -> MpiParams {
        let base = MpiParams::bare_metal();
        let msg_overhead = if self.eli {
            SimDuration::from_nanos(1_100)
        } else {
            SimDuration::from_nanos(2_600)
        };
        // A blocked receiver vCPU resumes through the virtual interrupt
        // and host scheduler — several microseconds per hand-off.
        let wakeup = if self.eli {
            SimDuration::from_nanos(3_200)
        } else {
            SimDuration::from_nanos(7_000)
        };
        MpiParams {
            alpha: base.alpha + msg_overhead,
            compute_factor: 1.45,
            idle_wakeup: wakeup,
            ..base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guestsim::workload::db::DbPerfModel;

    #[test]
    fn guest_boot_times_match_figure_4() {
        let kvm = KvmModel::default();
        let profile = BootProfile::ubuntu_14_04(1);
        let nfs = kvm.guest_boot_time(&profile, KvmStorage::Nfs).as_secs_f64();
        let iscsi = kvm
            .guest_boot_time(&profile, KvmStorage::Iscsi)
            .as_secs_f64();
        assert!((40.0..44.0).contains(&nfs), "KVM/NFS boot {nfs:.1}s");
        assert!((53.0..57.0).contains(&iscsi), "KVM/iSCSI boot {iscsi:.1}s");
        assert!(iscsi > nfs);
    }

    #[test]
    fn memcached_env_matches_figure_5() {
        let kvm = KvmModel::default();
        let m = DbPerfModel::memcached();
        let env = kvm.db_perf_env();
        let tput = m.throughput_ratio(&env);
        assert!((tput - 0.929).abs() < 0.01, "KVM memcached tput {tput:.3}");
        // 291 us x 1.148 (BMcast was "14.8% faster") over the 281 us
        // base = ~1.19.
        let lat = m.latency_ratio(&env);
        assert!((lat - 1.19).abs() < 0.03, "KVM memcached latency {lat:.3}");
    }

    #[test]
    fn lock_holder_blowup_at_24_threads() {
        let kvm = KvmModel::default();
        let job = ThreadBenchJob::default();
        let f24 = kvm.lock_holder_factor(&job, 24, 12);
        assert!((f24 - 1.68).abs() < 0.06, "24-thread factor {f24:.3}");
        let f8 = kvm.lock_holder_factor(&job, 8, 12);
        assert!(f8 < 1.08, "uncontended factor {f8:.3}");
        let f1 = kvm.lock_holder_factor(&job, 1, 12);
        assert!(f1 < f24);
        // Unpinned vCPUs are strictly worse.
        let sloppy = KvmModel {
            cpu_pinning: false,
            ..kvm
        };
        assert!(sloppy.lock_holder_factor(&job, 24, 12) > f24);
    }

    #[test]
    fn memory_overhead_peaks_at_16kb() {
        let kvm = KvmModel::default();
        let job = MemoryBenchJob::default();
        let f16 = kvm.memory_factor(&job, 16 << 10);
        assert!((f16 - 1.35).abs() < 0.03, "16KB factor {f16:.3}");
        let f1 = kvm.memory_factor(&job, 1 << 10);
        assert!(f1 < f16, "overhead must grow with block size");
    }

    #[test]
    fn fio_matches_figure_10() {
        let kvm = KvmModel::default();
        let rl = kvm.fio_throughput_mbps(false, KvmStorage::LocalVirtio);
        let wl = kvm.fio_throughput_mbps(true, KvmStorage::LocalVirtio);
        let rn = kvm.fio_throughput_mbps(false, KvmStorage::Nfs);
        let wn = kvm.fio_throughput_mbps(true, KvmStorage::Nfs);
        assert!(
            (rl / 116.6 - 0.878).abs() < 0.015,
            "local read ratio {}",
            rl / 116.6
        );
        assert!(
            (wl / 111.9 - 0.846).abs() < 0.015,
            "local write ratio {}",
            wl / 111.9
        );
        assert!(rn < rl && wn < wl, "NFS is slower than local");
        assert!((rn / 116.6 - 0.856).abs() < 0.02);
        assert!((wn / 111.9 - 0.827).abs() < 0.02);
    }

    #[test]
    fn ib_latency_adds_23_6_percent() {
        let kvm = KvmModel::default();
        let base = SimDuration::from_micros(20);
        let extra = kvm.ib_latency_overhead(base);
        assert!((extra.as_secs_f64() / base.as_secs_f64() - 0.236).abs() < 1e-9);
    }

    #[test]
    fn eli_halves_interrupt_costs() {
        let with = KvmModel::default();
        let without = KvmModel {
            eli: false,
            ..with.clone()
        };
        assert!(without.db_perf_env().extra_latency_us > with.db_perf_env().extra_latency_us);
        assert!(
            without.mpi_params().alpha > with.mpi_params().alpha,
            "ELI removes interrupt-delivery exits from the message path"
        );
    }
}
