//! Guest OS boot profiles.
//!
//! A boot profile is the *demand stream* of an operating system booting:
//! alternating CPU work and disk reads. Replaying the same profile on bare
//! metal, on BMcast during deployment, on KVM, or from a network root is
//! what makes Figure 4's startup-time comparison apples-to-apples: the OS
//! does identical work everywhere; only the platform underneath changes.
//!
//! The default profile is shaped like the paper's Ubuntu 14.04 boot:
//! roughly 29 s end-to-end on bare metal, reading ~72 MB from disk in
//! clustered, mostly-sequential bursts (kernel, initrd, services, shared
//! libraries).

use crate::io::{IoRequest, RequestId};
use hwsim::block::{BlockRange, Lba};
use simkit::{Prng, SimDuration};

/// One step of a boot: think for `cpu`, then (optionally) read `range` and
/// wait for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BootStep {
    /// CPU work before the read.
    pub cpu: SimDuration,
    /// Disk read issued after the CPU work, if any.
    pub read: Option<BlockRange>,
}

/// A deterministic boot demand stream.
///
/// # Examples
///
/// ```
/// use guestsim::os::BootProfile;
/// let p = BootProfile::ubuntu_14_04(42);
/// // ~72 MB of reads, ~27.5 s of CPU: a 29 s bare-metal boot.
/// assert!((p.total_read_bytes() as f64 / 1e6 - 72.0).abs() < 8.0);
/// assert!((p.total_cpu().as_secs_f64() - 27.5).abs() < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct BootProfile {
    name: String,
    steps: Vec<BootStep>,
}

impl BootProfile {
    /// The Ubuntu 14.04 (kernel 3.13)-shaped profile used throughout the
    /// evaluation: ~72 MB over ~4000 small reads (real boots issue
    /// thousands of metadata/library reads). Deterministic in `seed`.
    pub fn ubuntu_14_04(seed: u64) -> BootProfile {
        Self::generate("ubuntu-14.04", seed, 4000, 72 << 20, 27_500, 16 << 30)
    }

    /// A smaller profile for fast tests: ~8 MB over 100 reads, 2 s CPU,
    /// confined to the first 4 MB + read spans of a small disk.
    pub fn tiny(seed: u64) -> BootProfile {
        Self::generate("tiny", seed, 100, 8 << 20, 2_000, 4 << 20)
    }

    /// A fully parameterized profile: `requests` reads totalling
    /// `total_bytes` spread over the first `span_bytes` of the disk, plus
    /// `cpu_ms` of CPU work. Deterministic in `seed`.
    pub fn custom(
        name: &str,
        seed: u64,
        requests: usize,
        total_bytes: u64,
        cpu_ms: u64,
        span_bytes: u64,
    ) -> BootProfile {
        Self::generate(name, seed, requests, total_bytes, cpu_ms, span_bytes)
    }

    /// Generates a clustered read pattern:
    /// `requests` reads totalling `total_bytes`, plus CPU work summing to
    /// `cpu_ms`, targeting the first `span_bytes` of the disk.
    fn generate(
        name: &str,
        seed: u64,
        requests: usize,
        total_bytes: u64,
        cpu_ms: u64,
        span_bytes: u64,
    ) -> BootProfile {
        let mut prng = Prng::new(seed);
        let avg_sectors = (total_bytes / requests as u64 / 512).max(1);
        let span_sectors = span_bytes / 512;
        let mut steps = Vec::with_capacity(requests + 1);
        let cpu_per_step = SimDuration::from_micros(cpu_ms * 1000 / requests as u64);

        // Reads come in clusters: a seek to a new file region, then several
        // sequential reads (a package, a service's libraries, ...).
        let mut remaining = requests;
        let mut next_lba = Lba(0);
        let mut in_cluster = 0u32;
        while remaining > 0 {
            if in_cluster == 0 {
                in_cluster = 8 + prng.below(24) as u32;
                next_lba = Lba(prng.below(span_sectors.saturating_sub(1 << 14).max(1)));
            }
            // Sizes jitter around the average (0.5x .. 1.5x).
            let sectors = (avg_sectors / 2 + prng.below(avg_sectors.max(1))).clamp(1, 2048) as u32;
            let range = BlockRange::new(next_lba, sectors);
            steps.push(BootStep {
                cpu: cpu_per_step,
                read: Some(range),
            });
            next_lba = range.end();
            in_cluster -= 1;
            remaining -= 1;
        }
        BootProfile {
            name: name.to_string(),
            steps,
        }
    }

    /// The profile's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The steps in order.
    pub fn steps(&self) -> &[BootStep] {
        &self.steps
    }

    /// Total CPU demand.
    pub fn total_cpu(&self) -> SimDuration {
        self.steps.iter().map(|s| s.cpu).sum()
    }

    /// Total bytes read.
    pub fn total_read_bytes(&self) -> u64 {
        self.steps
            .iter()
            .filter_map(|s| s.read)
            .map(|r| r.bytes())
            .sum()
    }

    /// Number of read requests.
    pub fn read_count(&self) -> usize {
        self.steps.iter().filter(|s| s.read.is_some()).count()
    }

    /// The read of step `i` as an [`IoRequest`] with id `i`.
    pub fn request_for(&self, i: usize) -> Option<IoRequest> {
        let range = self.steps.get(i)?.read?;
        Some(IoRequest::read(RequestId(i as u64), range))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ubuntu_profile_matches_paper_shape() {
        let p = BootProfile::ubuntu_14_04(1);
        let mb = p.total_read_bytes() as f64 / 1e6;
        assert!((64.0..80.0).contains(&mb), "read {mb:.1} MB");
        assert_eq!(p.read_count(), 4000);
        let cpu = p.total_cpu().as_secs_f64();
        assert!((27.0..28.0).contains(&cpu), "cpu {cpu:.1} s");
    }

    #[test]
    fn deterministic_in_seed() {
        let a = BootProfile::ubuntu_14_04(7);
        let b = BootProfile::ubuntu_14_04(7);
        assert_eq!(a.steps(), b.steps());
        let c = BootProfile::ubuntu_14_04(8);
        assert_ne!(a.steps(), c.steps());
    }

    #[test]
    fn reads_are_clustered_sequentially() {
        let p = BootProfile::ubuntu_14_04(2);
        // Count adjacent step pairs where the second read continues the
        // first: most reads should be sequential within a cluster.
        let reads: Vec<BlockRange> = p.steps().iter().filter_map(|s| s.read).collect();
        let seq = reads.windows(2).filter(|w| w[1].lba == w[0].end()).count();
        assert!(
            seq * 10 >= reads.len() * 7,
            "only {seq}/{} sequential",
            reads.len()
        );
    }

    #[test]
    fn request_for_maps_steps() {
        let p = BootProfile::tiny(1);
        let r = p.request_for(0).unwrap();
        assert_eq!(r.id, RequestId(0));
        assert!(p.request_for(p.steps().len()).is_none());
    }

    #[test]
    fn tiny_profile_is_small() {
        let p = BootProfile::tiny(3);
        assert!(p.total_read_bytes() < 16 << 20);
        assert_eq!(p.read_count(), 100);
    }
}
