//! kernbench demand stream: parallel kernel compilation.
//!
//! Figure 7's workload: compile Linux 2.6.32 with `allnoconfig` and
//! `make -j 12` — about 16 s of CPU across 12 jobs on the evaluation
//! machine, with light disk traffic (read sources, write objects). The
//! deployment-phase +8% comes from compile I/O occasionally queueing
//! behind multiplexed VMM writes, and from EPT on the (small) TLB-miss
//! share of compilation; both effects flow through the machine model.

use crate::io::{IoRequest, RequestId};
use hwsim::block::{BlockRange, Lba, SectorData};
use simkit::{Prng, SimDuration};

/// One unit of compile work: CPU, then an optional disk request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileChunk {
    /// CPU time of this compilation unit at native speed.
    pub cpu: SimDuration,
    /// Source read or object write accompanying the unit.
    pub io: Option<IoRequest>,
}

/// A kernbench job specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernbenchJob {
    /// Total native CPU seconds across all jobs.
    pub cpu_secs: f64,
    /// Parallel jobs (`make -j`).
    pub jobs: u32,
    /// Number of compilation units.
    pub units: u32,
    /// TLB-miss share of compile runtime (EPT sensitivity).
    pub tlb_share: f64,
    /// Source tree location on disk.
    pub tree: Lba,
}

impl KernbenchJob {
    /// The paper's job: allnoconfig, `-j 12`, ~16 s.
    pub fn paper(tree: Lba) -> KernbenchJob {
        KernbenchJob {
            cpu_secs: 14.6,
            jobs: 12,
            units: 480,
            tlb_share: 0.006,
            tree,
        }
    }

    /// Generates the compile chunks (deterministic in `seed`). Roughly
    /// half the units read a source file, a third write an object file.
    pub fn chunks(&self, seed: u64) -> Vec<CompileChunk> {
        let mut prng = Prng::new(seed);
        let cpu_per_unit =
            SimDuration::from_secs_f64(self.cpu_secs * self.jobs as f64 / self.units as f64);
        let mut next_obj = self.tree + (1 << 20);
        (0..self.units)
            .map(|i| {
                // Jitter unit cost 0.5x..1.5x around the mean.
                let cpu = cpu_per_unit.mul_f64(0.5 + prng.next_f64());
                let io = match prng.below(6) {
                    0..=2 => {
                        // Read a source file: 8..64 KB somewhere in the tree.
                        let sectors = 16 + prng.below(112) as u32;
                        let lba = self.tree + prng.below(1 << 20);
                        Some(IoRequest::read(
                            RequestId(i as u64),
                            BlockRange::new(lba, sectors),
                        ))
                    }
                    3 | 4 => {
                        // Write an object file: 4..32 KB appended.
                        let sectors = 8 + prng.below(56) as u32;
                        let range = BlockRange::new(next_obj, sectors);
                        next_obj = range.end();
                        let data = vec![SectorData(0x0B | 1); sectors as usize];
                        Some(IoRequest::write(RequestId(i as u64), range, data))
                    }
                    _ => None,
                };
                CompileChunk { cpu, io }
            })
            .collect()
    }

    /// Elapsed wall-clock at native speed given perfect `-j` scaling:
    /// `cpu_secs` (the per-core critical path) — I/O overlaps with
    /// computation except where the platform stalls it.
    pub fn native_elapsed_secs(&self) -> f64 {
        self.cpu_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_cpu_sums_to_total_work() {
        let job = KernbenchJob::paper(Lba(0));
        let chunks = job.chunks(1);
        assert_eq!(chunks.len(), 480);
        let total: f64 = chunks.iter().map(|c| c.cpu.as_secs_f64()).sum();
        // Total CPU across 12 jobs ≈ 14.6 s × 12, within jitter.
        assert!((total - 175.2).abs() < 15.0, "total cpu {total:.1}s");
    }

    #[test]
    fn mix_of_reads_writes_and_pure_cpu() {
        let chunks = KernbenchJob::paper(Lba(0)).chunks(2);
        let reads = chunks
            .iter()
            .filter(|c| c.io.as_ref().is_some_and(|r| !r.is_write()))
            .count();
        let writes = chunks
            .iter()
            .filter(|c| c.io.as_ref().is_some_and(|r| r.is_write()))
            .count();
        let none = chunks.iter().filter(|c| c.io.is_none()).count();
        assert!(
            reads > 180 && writes > 100 && none > 30,
            "mix was {reads}/{writes}/{none}"
        );
    }

    #[test]
    fn object_writes_are_appended() {
        let chunks = KernbenchJob::paper(Lba(0)).chunks(3);
        let writes: Vec<_> = chunks
            .iter()
            .filter_map(|c| c.io.as_ref())
            .filter(|r| r.is_write())
            .collect();
        for w in writes.windows(2) {
            assert!(w[1].range.lba >= w[0].range.end(), "objects append");
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let job = KernbenchJob::paper(Lba(0));
        assert_eq!(job.chunks(5), job.chunks(5));
    }
}
