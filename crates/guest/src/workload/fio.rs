//! fio (Flexible I/O Tester) demand streams.
//!
//! The paper's storage-throughput benchmark (Figure 10): read or write
//! 200 MB with a 1 MB block size using direct I/O. The stream is a plain
//! sequence of [`IoRequest`]s replayed through whatever stack is being
//! measured; throughput is `bytes / elapsed`.

use crate::io::{IoRequest, RequestId};
use hwsim::block::{BlockRange, Lba, SectorData};

/// A fio job specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FioJob {
    /// Whether the job writes (true) or reads (false).
    pub write: bool,
    /// Total bytes to transfer.
    pub total_bytes: u64,
    /// Block size in bytes.
    pub block_bytes: u64,
    /// First LBA of the file region.
    pub start: Lba,
}

impl FioJob {
    /// Number of requests the job issues.
    pub fn request_count(&self) -> u64 {
        self.total_bytes / self.block_bytes
    }

    /// Generates the request sequence.
    ///
    /// # Panics
    ///
    /// Panics if the block size is not sector-aligned or zero.
    pub fn requests(&self) -> Vec<IoRequest> {
        assert!(
            self.block_bytes > 0 && self.block_bytes.is_multiple_of(512),
            "block size must be a positive multiple of 512"
        );
        let sectors = (self.block_bytes / 512) as u32;
        (0..self.request_count())
            .map(|i| {
                let range = BlockRange::new(self.start + i * sectors as u64, sectors);
                if self.write {
                    let data = vec![SectorData(0xF10 | (i << 8) | 1); sectors as usize];
                    IoRequest::write(RequestId(i), range, data)
                } else {
                    IoRequest::read(RequestId(i), range)
                }
            })
            .collect()
    }

    /// Throughput in MB/s (decimal) given the measured elapsed seconds.
    pub fn throughput_mbps(&self, elapsed_secs: f64) -> f64 {
        if elapsed_secs <= 0.0 {
            return 0.0;
        }
        self.total_bytes as f64 / 1e6 / elapsed_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's read job: 200 MB in 1 MB blocks.
    fn paper_read(start: Lba) -> FioJob {
        FioJob {
            write: false,
            total_bytes: 200 << 20,
            block_bytes: 1 << 20,
            start,
        }
    }

    #[test]
    fn requests_are_sequential_and_sized() {
        let job = paper_read(Lba(1000));
        assert_eq!(job.request_count(), 200);
        let reqs = job.requests();
        assert_eq!(reqs.len(), 200);
        assert_eq!(reqs[0].range.lba, Lba(1000));
        assert_eq!(reqs[0].range.sectors, 2048);
        for w in reqs.windows(2) {
            assert_eq!(w[1].range.lba, w[0].range.end());
        }
        assert!(reqs.iter().all(|r| !r.is_write()));
    }

    #[test]
    fn write_job_carries_data() {
        let job = FioJob {
            write: true,
            total_bytes: 1 << 20,
            block_bytes: 512 * 8,
            start: Lba(0),
        };
        let reqs = job.requests();
        assert!(reqs.iter().all(|r| r.is_write()));
        assert_eq!(reqs[0].data.as_ref().unwrap().len(), 8);
    }

    #[test]
    fn throughput_math() {
        let job = paper_read(Lba(0));
        let mbps = job.throughput_mbps(1.7986);
        assert!((mbps - 116.6).abs() < 0.5, "{mbps}");
        assert_eq!(job.throughput_mbps(0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "multiple of 512")]
    fn unaligned_block_panics() {
        FioJob {
            write: false,
            total_bytes: 1024,
            block_bytes: 100,
            start: Lba(0),
        }
        .requests();
    }
}
