//! Guest programs: the OS/workload scenarios that drive machines in the
//! evaluation.
//!
//! Each implements [`crate::machine::GuestProgram`]: a small state machine
//! alternating CPU bursts ([`crate::machine::GuestCtl::compute`], which
//! the platform stretches by its current memory slowdown) with block I/O
//! submitted through the *real* driver → mediator → disk path.

use crate::machine::{GuestCtl, GuestProgram};
use guestsim::io::{CompletedIo, IoRequest, RequestId};
use guestsim::os::BootProfile;
use guestsim::workload::db::CommitLogStream;
use guestsim::workload::fio::FioJob;
use guestsim::workload::ioping::IopingJob;
use guestsim::workload::kernbench::{CompileChunk, KernbenchJob};
use hwsim::block::{BlockRange, Lba, SectorData};
use simkit::{Prng, SimDuration, SimTime};

/// Boots an OS by replaying a [`BootProfile`]: think, read, repeat.
#[derive(Debug)]
pub struct BootProgram {
    profile: BootProfile,
    step: usize,
    /// TLB-miss share of boot CPU work.
    tlb_share: f64,
    /// Set when the boot finished.
    pub booted_at: Option<SimTime>,
}

impl BootProgram {
    /// Creates a boot program from a profile.
    pub fn new(profile: BootProfile) -> BootProgram {
        BootProgram {
            profile,
            step: 0,
            tlb_share: 0.002,
            booted_at: None,
        }
    }

    fn advance(&mut self, ctl: &mut GuestCtl) {
        if self.step >= self.profile.steps().len() {
            self.booted_at = Some(ctl.now());
            ctl.finish();
            return;
        }
        let cpu = self.profile.steps()[self.step].cpu;
        ctl.compute(cpu, self.tlb_share, self.step as u64);
    }
}

impl GuestProgram for BootProgram {
    fn name(&self) -> &str {
        "os-boot"
    }

    fn start(&mut self, ctl: &mut GuestCtl) {
        self.advance(ctl);
    }

    fn on_timer(&mut self, _token: u64, ctl: &mut GuestCtl) {
        // CPU burst done: issue the step's read (or move on).
        match self.profile.request_for(self.step) {
            Some(req) => ctl.submit(req),
            None => {
                self.step += 1;
                self.advance(ctl);
            }
        }
    }

    fn on_io_complete(&mut self, _io: &CompletedIo, ctl: &mut GuestCtl) {
        self.step += 1;
        self.advance(ctl);
    }
}

/// Replays an [`FioJob`] sequentially and records the elapsed time.
#[derive(Debug)]
pub struct FioProgram {
    requests: Vec<IoRequest>,
    next: usize,
    started: Option<SimTime>,
    /// Per-request syscall + block-layer gap between direct I/Os.
    think: SimDuration,
    /// Set when the job finished: `(elapsed, bytes)`.
    pub result: Option<(SimDuration, u64)>,
    bytes: u64,
}

impl FioProgram {
    /// Creates the program for a job.
    pub fn new(job: FioJob) -> FioProgram {
        FioProgram {
            requests: job.requests(),
            next: 0,
            started: None,
            think: SimDuration::from_micros(100),
            result: None,
            bytes: job.total_bytes,
        }
    }

    fn pump(&mut self, ctl: &mut GuestCtl) {
        if self.next < self.requests.len() {
            let req = self.requests[self.next].clone();
            self.next += 1;
            ctl.submit(req);
        } else {
            let started = self.started.expect("started before finishing");
            self.result = Some((ctl.now().duration_since(started), self.bytes));
            ctl.finish();
        }
    }
}

impl GuestProgram for FioProgram {
    fn name(&self) -> &str {
        "fio"
    }
    fn start(&mut self, ctl: &mut GuestCtl) {
        self.started = Some(ctl.now());
        self.pump(ctl);
    }
    fn on_io_complete(&mut self, _io: &CompletedIo, ctl: &mut GuestCtl) {
        ctl.compute(self.think, 0.0, 0);
    }
    fn on_timer(&mut self, _token: u64, ctl: &mut GuestCtl) {
        self.pump(ctl);
    }
}

/// Replays an [`IopingJob`]; per-request latency lands in the machine's
/// `guest.io_latency` histogram.
#[derive(Debug)]
pub struct IopingProgram {
    requests: Vec<IoRequest>,
    next: usize,
    /// Pause between probes: ioping's default is one probe per second.
    think: SimDuration,
}

impl IopingProgram {
    /// Creates the program (deterministic in `seed`).
    pub fn new(job: IopingJob, seed: u64) -> IopingProgram {
        IopingProgram {
            requests: job.requests(seed),
            next: 0,
            think: SimDuration::from_secs(1),
        }
    }
}

impl GuestProgram for IopingProgram {
    fn name(&self) -> &str {
        "ioping"
    }
    fn start(&mut self, ctl: &mut GuestCtl) {
        ctl.compute(self.think, 0.0, 0);
    }
    fn on_timer(&mut self, _token: u64, ctl: &mut GuestCtl) {
        if self.next < self.requests.len() {
            let req = self.requests[self.next].clone();
            self.next += 1;
            ctl.submit(req);
        } else {
            ctl.finish();
        }
    }
    fn on_io_complete(&mut self, _io: &CompletedIo, ctl: &mut GuestCtl) {
        ctl.compute(self.think, 0.0, 0);
    }
}

/// kernbench: 12 parallel compile lanes sharing the disk.
#[derive(Debug)]
pub struct KernbenchProgram {
    lanes: Vec<Vec<CompileChunk>>,
    /// Next chunk index per lane.
    cursor: Vec<usize>,
    live_lanes: usize,
    tlb_share: f64,
    started: Option<SimTime>,
    /// Elapsed wall-clock when every lane finished.
    pub elapsed: Option<SimDuration>,
    next_req_id: u64,
}

impl KernbenchProgram {
    /// Creates the program from a job spec (deterministic in `seed`).
    pub fn new(job: KernbenchJob, seed: u64) -> KernbenchProgram {
        let chunks = job.chunks(seed);
        let jobs = job.jobs as usize;
        let mut lanes: Vec<Vec<CompileChunk>> = vec![Vec::new(); jobs];
        for (i, c) in chunks.into_iter().enumerate() {
            lanes[i % jobs].push(c);
        }
        KernbenchProgram {
            live_lanes: lanes.len(),
            cursor: vec![0; lanes.len()],
            lanes,
            tlb_share: job.tlb_share,
            started: None,
            elapsed: None,
            next_req_id: 1 << 40,
        }
    }

    fn lane_step(&mut self, lane: usize, ctl: &mut GuestCtl) {
        if self.cursor[lane] >= self.lanes[lane].len() {
            self.live_lanes -= 1;
            if self.live_lanes == 0 {
                self.elapsed = Some(ctl.now().duration_since(self.started.expect("started")));
                ctl.finish();
            }
            return;
        }
        let cpu = self.lanes[lane][self.cursor[lane]].cpu;
        ctl.compute(cpu, self.tlb_share, lane as u64);
    }
}

impl GuestProgram for KernbenchProgram {
    fn name(&self) -> &str {
        "kernbench"
    }

    fn start(&mut self, ctl: &mut GuestCtl) {
        self.started = Some(ctl.now());
        for lane in 0..self.lanes.len() {
            self.lane_step(lane, ctl);
        }
    }

    fn on_timer(&mut self, lane: u64, ctl: &mut GuestCtl) {
        let lane = lane as usize;
        let chunk = &self.lanes[lane][self.cursor[lane]];
        match &chunk.io {
            Some(req) => {
                // Re-key the request id so lanes don't collide, and tag it
                // with the lane for completion routing.
                let mut req = req.clone();
                self.next_req_id += 1;
                req.id = RequestId((self.next_req_id << 8) | lane as u64);
                ctl.submit(req);
            }
            None => {
                self.cursor[lane] += 1;
                self.lane_step(lane, ctl);
            }
        }
    }

    fn on_io_complete(&mut self, io: &CompletedIo, ctl: &mut GuestCtl) {
        let lane = (io.id.0 & 0xFF) as usize;
        self.cursor[lane] += 1;
        self.lane_step(lane, ctl);
    }
}

/// A paced guest I/O stream: either a database commit log or a raw
/// sequential read/write stream (Figure 14's full-speed guest).
#[derive(Debug)]
pub struct StreamProgram {
    kind: StreamKind,
    /// Runs until this deadline, then finishes.
    until: SimTime,
    prng: Prng,
    next_id: u64,
    /// Bytes completed (throughput numerator for the caller).
    pub bytes_done: u64,
}

#[derive(Debug)]
enum StreamKind {
    /// Cassandra-style commit log at a target operation rate.
    CommitLog {
        stream: CommitLogStream,
        ops_per_sec: f64,
        window: SimDuration,
    },
    /// Back-to-back sequential I/O in a region, with per-request guest
    /// think time (syscall + block-layer work between direct I/Os).
    Sequential {
        region: BlockRange,
        write: bool,
        block_sectors: u32,
        cursor: Lba,
        think: SimDuration,
    },
}

impl StreamProgram {
    /// A commit-log stream at `ops_per_sec`, running until `until`.
    pub fn commit_log(
        region: BlockRange,
        ops_per_sec: f64,
        until: SimTime,
        seed: u64,
    ) -> StreamProgram {
        StreamProgram {
            kind: StreamKind::CommitLog {
                stream: CommitLogStream::new(region, 4),
                ops_per_sec,
                window: SimDuration::from_millis(100),
            },
            until,
            prng: Prng::new(seed),
            next_id: 1 << 48,
            bytes_done: 0,
        }
    }

    /// A full-speed sequential stream over `region` until `until`.
    pub fn sequential(
        region: BlockRange,
        write: bool,
        block_sectors: u32,
        until: SimTime,
        seed: u64,
    ) -> StreamProgram {
        StreamProgram {
            kind: StreamKind::Sequential {
                region,
                write,
                block_sectors,
                cursor: region.lba,
                think: SimDuration::from_micros(150),
            },
            until,
            prng: Prng::new(seed),
            next_id: 1 << 48,
            bytes_done: 0,
        }
    }

    fn alloc_id(&mut self) -> RequestId {
        self.next_id += 1;
        RequestId(self.next_id)
    }

    fn step(&mut self, ctl: &mut GuestCtl) {
        if ctl.now() >= self.until {
            ctl.finish();
            return;
        }
        match &mut self.kind {
            StreamKind::CommitLog {
                stream,
                ops_per_sec,
                window,
            } => {
                let ops = (*ops_per_sec * window.as_secs_f64()) as u64;
                let reqs = stream.demand_for_ops(ops, &mut self.prng);
                let window = *window;
                for mut req in reqs {
                    self.next_id += 1;
                    req.id = RequestId(self.next_id);
                    ctl.submit(req);
                }
                ctl.compute(window, 0.0, 0);
            }
            StreamKind::Sequential {
                region,
                write,
                block_sectors,
                cursor,
                ..
            } => {
                if cursor.0 >= region.end().0 {
                    *cursor = region.lba;
                }
                // Clamp to the region tail: an unaligned region ends with a
                // short request rather than skipping the tail sectors or
                // spilling past the region end.
                let remaining = (region.end().0 - cursor.0).min(*block_sectors as u64) as u32;
                let range = BlockRange::new(*cursor, remaining);
                *cursor = range.end();
                let write = *write;
                let id = self.alloc_id();
                let req = if write {
                    IoRequest::write(id, range, vec![SectorData(0x5EA1); range.sectors as usize])
                } else {
                    IoRequest::read(id, range)
                };
                ctl.submit(req);
            }
        }
    }
}

impl GuestProgram for StreamProgram {
    fn name(&self) -> &str {
        "stream"
    }
    fn start(&mut self, ctl: &mut GuestCtl) {
        self.step(ctl);
    }
    fn on_timer(&mut self, _token: u64, ctl: &mut GuestCtl) {
        self.step(ctl);
    }
    fn on_io_complete(&mut self, io: &CompletedIo, ctl: &mut GuestCtl) {
        self.bytes_done += io.range.bytes();
        if let StreamKind::Sequential { think, .. } = self.kind {
            ctl.compute(think, 0.0, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BmcastConfig;
    use crate::deploy::Runner;
    use crate::machine::MachineSpec;
    use simkit::SimTime;

    fn tiny_spec() -> MachineSpec {
        MachineSpec {
            capacity_sectors: 1 << 14,
            image_sectors: 1 << 14,
            cpus: 2,
            ..MachineSpec::default()
        }
    }

    #[test]
    fn boot_program_finishes_on_bare_metal() {
        let mut runner = Runner::bare_metal(&tiny_spec());
        runner.start_program(Box::new(BootProgram::new(BootProfile::tiny(1))));
        let done = runner.run_to_finish(SimTime::from_secs(60));
        assert!(done.is_some(), "tiny boot should finish");
        let t = done.unwrap().as_secs_f64();
        // ~2 s CPU + a little disk time.
        assert!((2.0..6.0).contains(&t), "boot took {t:.2}s");
        assert_eq!(runner.machine().guest.ios_completed, 100);
    }

    #[test]
    fn boot_program_finishes_under_bmcast_deployment() {
        // Slow the copier so boot reads reliably find empty blocks on
        // this tiny image (at full scale the image dwarfs the boot set).
        let cfg = BmcastConfig {
            moderation: crate::config::Moderation {
                vmm_write_interval: simkit::SimDuration::from_secs(2),
                vmm_write_suspend_interval: simkit::SimDuration::from_secs(2),
                ..Default::default()
            },
            ..BmcastConfig::default()
        };
        let mut runner = Runner::bmcast(&tiny_spec(), cfg);
        runner.start_program(Box::new(BootProgram::new(BootProfile::tiny(1))));
        let done = runner.run_to_finish(SimTime::from_secs(120));
        assert!(done.is_some(), "boot under deployment should finish");
        // Some reads were redirected (disk started empty).
        assert!(runner.machine().stats.redirected_ios > 0);
    }

    #[test]
    fn fio_program_measures_throughput() {
        let mut runner = Runner::bare_metal(&tiny_spec());
        let job = FioJob {
            write: false,
            total_bytes: 4 << 20,
            block_bytes: 1 << 20,
            start: Lba(64),
        };
        runner.start_program(Box::new(FioProgram::new(job)));
        assert!(runner.run_to_finish(SimTime::from_secs(30)).is_some());
        assert_eq!(runner.machine().guest.bytes_completed, 4 << 20);
    }

    #[test]
    fn sequential_stream_wraps_region() {
        let mut runner = Runner::bare_metal(&tiny_spec());
        let region = BlockRange::new(Lba(0), 2048);
        runner.start_program(Box::new(StreamProgram::sequential(
            region,
            true,
            256,
            SimTime::from_millis(500),
            1,
        )));
        assert!(runner.run_to_finish(SimTime::from_secs(10)).is_some());
        assert!(
            runner.machine().guest.ios_completed > 8,
            "wrapped at least once"
        );
    }
}
