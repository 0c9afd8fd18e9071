//! Figure 14: moderation of the background copy.
//!
//! Sweeps the VMM-write interval from 1 s down to 1 µs and finally
//! "Full-speed" while the guest runs a full-speed sequential read (14a)
//! or write (14b) stream over an already-present file. Both the guest and
//! VMM throughputs are measured from the discrete machine, so the two
//! effects the paper reports emerge from the disk model: throughput
//! trades off along the sweep, and the *sum* stays below bare metal
//! because the two streams seek against each other.

use crate::platform::{finish, Platform};
use crate::{Check, Figure, Row, Scale};
use bmcast::config::Moderation;
use bmcast::deploy::Runner;
use bmcast::programs::{FioProgram, StreamProgram};
use guestsim::workload::fio::FioJob;
use hwsim::block::{BlockRange, Lba};
use simkit::SimDuration;

/// The swept VMM-write intervals, as labels + values (`None` =
/// full-speed).
pub fn sweep() -> Vec<(&'static str, Option<SimDuration>)> {
    vec![
        ("1 s", Some(SimDuration::from_secs(1))),
        ("100 ms", Some(SimDuration::from_millis(100))),
        ("10 ms", Some(SimDuration::from_millis(10))),
        ("1 ms", Some(SimDuration::from_millis(1))),
        ("100 us", Some(SimDuration::from_micros(100))),
        ("1 us", Some(SimDuration::from_micros(1))),
        ("Full-speed", None),
    ]
}

/// One sweep point: guest and VMM throughput in MB/s.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// Guest stream throughput.
    pub guest_mbps: f64,
    /// VMM background-write throughput.
    pub vmm_mbps: f64,
}

/// Measures one sweep point.
pub fn measure_point(scale: Scale, guest_write: bool, interval: Option<SimDuration>) -> SweepPoint {
    let moderation = match interval {
        Some(d) => Moderation {
            guest_io_threshold_per_sec: f64::INFINITY,
            vmm_write_interval: d,
            vmm_write_suspend_interval: d,
            ..Moderation::default()
        },
        None => Moderation::full_speed(),
    };
    let mut runner = Platform::Deploy(moderation).runner(&scale.spec(2 << 30, 1 << 30));
    // Lay out the guest's file so its stream never redirects.
    let file = Lba(1 << 16);
    let file_bytes: u64 = match scale {
        Scale::Paper => 256 << 20,
        Scale::Quick => 64 << 20,
    };
    finish(
        &mut runner,
        FioProgram::new(FioJob {
            write: true,
            total_bytes: file_bytes,
            block_bytes: 1 << 20,
            start: file,
        }),
    );

    // Measure over a fixed window.
    let window = match scale {
        Scale::Paper => SimDuration::from_secs(20),
        Scale::Quick => SimDuration::from_secs(5),
    };
    let t0 = runner.now();
    let guest_bytes0 = runner.machine().guest.bytes_completed;
    let vmm_bytes0 = vmm_written_bytes(&runner);
    runner.start_program(Box::new(StreamProgram::sequential(
        BlockRange::new(file, (file_bytes / 512) as u32),
        guest_write,
        2048, // 1 MB requests, like the fio jobs
        t0 + window,
        5,
    )));
    runner.run_until(t0 + window + SimDuration::from_millis(100));
    let dt = runner.now().duration_since(t0).as_secs_f64();
    let guest_mbps = (runner.machine().guest.bytes_completed - guest_bytes0) as f64 / 1e6 / dt;
    let vmm_mbps = (vmm_written_bytes(&runner) - vmm_bytes0) as f64 / 1e6 / dt;
    SweepPoint {
        guest_mbps,
        vmm_mbps,
    }
}

fn vmm_written_bytes(runner: &Runner) -> u64 {
    runner
        .machine()
        .vmm
        .as_ref()
        .map(|v| v.bg.blocks_written() * (1 << 20))
        .unwrap_or(0)
}

/// Regenerates Figure 14 (both panels).
pub fn run(scale: Scale) -> Figure {
    let mut rows = Vec::new();
    // Bare-metal reference bars.
    rows.push(Row::new(
        "Baremetal",
        vec![
            ("guest read".into(), 116.6),
            ("guest write".into(), 111.9),
            ("VMM write".into(), 0.0),
        ],
    ));
    let mut first_guest_read = 0.0;
    let mut last_guest_read = 0.0;
    let mut last_vmm = 0.0;
    let mut max_sum: f64 = 0.0;
    for (label, interval) in sweep() {
        let a = measure_point(scale, false, interval);
        let b = measure_point(scale, true, interval);
        if interval == Some(SimDuration::from_secs(1)) {
            first_guest_read = a.guest_mbps;
        }
        if interval.is_none() {
            last_guest_read = a.guest_mbps;
            last_vmm = a.vmm_mbps;
        }
        max_sum = max_sum.max(a.guest_mbps + a.vmm_mbps);
        rows.push(Row::new(
            label,
            vec![
                ("guest read".into(), a.guest_mbps),
                ("VMM write".into(), a.vmm_mbps),
                ("guest write".into(), b.guest_mbps),
                ("VMM write (b)".into(), b.vmm_mbps),
            ],
        ));
    }
    let checks = vec![
        Check::new(
            "guest read at 1s interval (≈ bare metal)",
            116.6,
            first_guest_read,
            "MB/s",
        ),
        Check::new(
            "guest read degrades at full speed",
            1.0,
            (last_guest_read < first_guest_read * 0.8) as u32 as f64,
            "bool",
        ),
        Check::new(
            "VMM makes real progress at full speed",
            1.0,
            (last_vmm > 20.0) as u32 as f64,
            "bool",
        ),
        Check::new(
            "sum stays below bare metal (seek interference)",
            1.0,
            (max_sum < 116.6) as u32 as f64,
            "bool",
        ),
    ];
    Figure {
        id: "fig14",
        title: "guest and VMM I/O throughput vs VMM-write interval",
        unit: "MB/s",
        rows,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_trades_guest_for_vmm_throughput() {
        let slow = measure_point(Scale::Quick, false, Some(SimDuration::from_secs(1)));
        let fast = measure_point(Scale::Quick, false, None);
        assert!(
            slow.guest_mbps > fast.guest_mbps,
            "guest: slow {:.1} fast {:.1}",
            slow.guest_mbps,
            fast.guest_mbps
        );
        assert!(
            fast.vmm_mbps > slow.vmm_mbps,
            "vmm: slow {:.1} fast {:.1}",
            slow.vmm_mbps,
            fast.vmm_mbps
        );
        // The sum never reaches bare metal: alternating streams seek.
        assert!(
            fast.guest_mbps + fast.vmm_mbps < 116.6,
            "sum {:.1}",
            fast.guest_mbps + fast.vmm_mbps
        );
        assert!(fast.vmm_mbps > 5.0, "VMM must make progress");
    }

    #[test]
    fn write_panel_behaves_like_read_panel() {
        let slow = measure_point(Scale::Quick, true, Some(SimDuration::from_secs(1)));
        let fast = measure_point(Scale::Quick, true, None);
        assert!(slow.guest_mbps > fast.guest_mbps);
        assert!(fast.vmm_mbps > slow.vmm_mbps);
    }
}
