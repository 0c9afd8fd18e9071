//! SysBench thread and memory benchmark models.
//!
//! Figures 8 and 9: the thread benchmark performs acquire-yield-release
//! sequences on 8 mutexes from 1–24 threads; the memory benchmark
//! repeatedly allocates a block and fills it until 1 MB has been written,
//! for block sizes 1–16 KB. The native models here produce the bare-metal
//! curves; platform overheads (BMcast's trap-only exits, KVM's lock-holder
//! preemption and cache pollution) are multiplicative factors supplied by
//! the platform models.

/// The SysBench `threads` test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreadBenchJob {
    /// Number of mutexes cycled through.
    pub locks: u32,
    /// Lock/yield/unlock iterations per thread.
    pub iterations: u32,
    /// Time holding a lock per iteration, ns.
    pub crit_ns: f64,
    /// Time in `sched_yield` and loop overhead per iteration, ns.
    pub yield_ns: f64,
    /// Context-switch cost when runnable threads exceed cores, ns.
    pub ctx_switch_ns: f64,
}

impl Default for ThreadBenchJob {
    fn default() -> Self {
        ThreadBenchJob {
            locks: 8,
            iterations: 1000,
            crit_ns: 500.0,
            yield_ns: 900.0,
            ctx_switch_ns: 1800.0,
        }
    }
}

impl ThreadBenchJob {
    /// Native elapsed seconds for `threads` threads on `cores` cores.
    ///
    /// Threads run in parallel; each iteration pays the critical section,
    /// the yield, expected lock-wait (waiters queue behind holders), and a
    /// context switch once threads oversubscribe cores.
    ///
    /// # Panics
    ///
    /// Panics if `threads` or `cores` is zero.
    pub fn native_elapsed_secs(&self, threads: u32, cores: u32) -> f64 {
        assert!(
            threads > 0 && cores > 0,
            "threads and cores must be positive"
        );
        let per_lock = threads as f64 / self.locks as f64;
        // Expected queueing behind the lock: half the other contenders'
        // critical sections, only once a lock has >1 expected user.
        let wait = (per_lock - 1.0).max(0.0) * self.crit_ns / 2.0;
        let switch = if threads > cores {
            self.ctx_switch_ns * (threads - cores) as f64 / threads as f64
        } else {
            0.0
        };
        let per_iter_ns = self.crit_ns + self.yield_ns + wait + switch;
        // All threads run concurrently; elapsed is the per-thread path,
        // stretched once cores are oversubscribed.
        let oversub = (threads as f64 / cores as f64).max(1.0);
        self.iterations as f64 * per_iter_ns * oversub / 1e9
    }
}

/// The SysBench `memory` test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryBenchJob {
    /// Total bytes written per pass.
    pub total_bytes: u64,
    /// Per-allocation overhead, ns.
    pub alloc_ns: f64,
    /// Native write bandwidth, bytes/ns.
    pub write_bw_bytes_per_ns: f64,
}

impl Default for MemoryBenchJob {
    fn default() -> Self {
        MemoryBenchJob {
            total_bytes: 1 << 20,
            alloc_ns: 90.0,
            write_bw_bytes_per_ns: 8.0, // ~8 GB/s single-thread fill
        }
    }
}

impl MemoryBenchJob {
    /// Native elapsed seconds for the given block size.
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is zero.
    pub fn native_elapsed_secs(&self, block_bytes: u64) -> f64 {
        assert!(block_bytes > 0, "block size must be positive");
        let blocks = (self.total_bytes / block_bytes).max(1) as f64;
        let ns = blocks * self.alloc_ns + self.total_bytes as f64 / self.write_bw_bytes_per_ns;
        ns / 1e9
    }

    /// Native throughput in MB/s for the given block size.
    pub fn native_throughput_mbps(&self, block_bytes: u64) -> f64 {
        self.total_bytes as f64 / 1e6 / self.native_elapsed_secs(block_bytes)
    }

    /// TLB-miss share of runtime as a function of block size: larger
    /// blocks stream through more pages between reuse, raising the miss
    /// share — this is what makes nested-paging overhead grow with block
    /// size in Figure 9.
    pub fn tlb_share(&self, block_bytes: u64) -> f64 {
        let kb = (block_bytes as f64 / 1024.0).max(0.25);
        (0.0016 * kb.powf(0.5)).min(0.05)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_elapsed_grows_with_threads() {
        let job = ThreadBenchJob::default();
        let mut prev = 0.0;
        for threads in [1u32, 4, 8, 12, 16, 24] {
            let t = job.native_elapsed_secs(threads, 12);
            assert!(t > prev || threads <= 8, "t({threads}) = {t}");
            prev = t;
        }
    }

    #[test]
    fn oversubscription_costs_extra() {
        let job = ThreadBenchJob::default();
        let fits = job.native_elapsed_secs(12, 12);
        let oversub = job.native_elapsed_secs(24, 12);
        assert!(oversub > fits * 1.8, "24 threads on 12 cores must stretch");
    }

    #[test]
    fn no_lock_wait_below_contention() {
        let job = ThreadBenchJob::default();
        // 8 threads on 8 locks: one user per lock, no queueing; elapsed
        // equals the 1-thread path.
        assert_eq!(
            job.native_elapsed_secs(1, 12),
            job.native_elapsed_secs(8, 12)
        );
    }

    #[test]
    fn memory_throughput_rises_with_block_size() {
        let job = MemoryBenchJob::default();
        let small = job.native_throughput_mbps(1 << 10);
        let big = job.native_throughput_mbps(16 << 10);
        assert!(
            big > small,
            "bigger blocks amortize allocation: {small} vs {big}"
        );
    }

    #[test]
    fn tlb_share_rises_with_block_size_to_paper_point() {
        let job = MemoryBenchJob::default();
        assert!(job.tlb_share(1 << 10) < job.tlb_share(16 << 10));
        // 16 KB blocks: EPT factor 1 + share×9 should be ≈ 1.06 (the
        // paper's 6% BMcast overhead point).
        let f = 1.0 + job.tlb_share(16 << 10) * 9.0;
        assert!((f - 1.06).abs() < 0.01, "EPT factor at 16KB was {f:.3}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threads_panics() {
        ThreadBenchJob::default().native_elapsed_secs(0, 12);
    }
}
