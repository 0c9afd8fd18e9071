//! Figure 9: SysBench memory benchmark (1–16 KB blocks, 1 MB total).
//!
//! Throughput per block size on Baremetal, BMcast-while-deploying
//! (nested-paging TLB cost only — 6% at 16 KB), and KVM (nested paging +
//! cache pollution — 35% at 16 KB).

use crate::{Check, Figure, Row, Scale};
use bmcast_baselines::kvm::KvmModel;
use guestsim::workload::sysbench::MemoryBenchJob;

/// BMcast's elapsed factor while deploying: pure EPT cost on the
/// workload's block-size-dependent TLB share.
pub fn bmcast_deploy_factor(job: &MemoryBenchJob, block_bytes: u64) -> f64 {
    1.0 + job.tlb_share(block_bytes) * 9.0
}

/// Regenerates Figure 9.
pub fn run(_scale: Scale) -> Figure {
    let job = MemoryBenchJob::default();
    let kvm = KvmModel::default();
    let mut rows = Vec::new();
    let mut kvm16 = 0.0;
    let mut bm16 = 0.0;
    for kb in [1u64, 2, 4, 8, 16] {
        let block = kb << 10;
        let native = job.native_throughput_mbps(block);
        let deploy = native / bmcast_deploy_factor(&job, block);
        let on_kvm = native / kvm.memory_factor(&job, block);
        if kb == 16 {
            bm16 = native / deploy;
            kvm16 = native / on_kvm;
        }
        rows.push(Row::new(
            format!("{kb} KB blocks"),
            vec![
                ("Baremetal MB/s".into(), native),
                ("Deploy MB/s".into(), deploy),
                ("KVM MB/s".into(), on_kvm),
            ],
        ));
    }
    Figure {
        id: "fig09",
        title: "SysBench memory: write throughput by block size",
        unit: "MB/s",
        rows,
        checks: vec![
            Check::new(
                "KVM overhead at 16KB blocks",
                35.0,
                (kvm16 - 1.0) * 100.0,
                "%",
            ),
            Check::new(
                "BMcast overhead at 16KB blocks",
                6.0,
                (bm16 - 1.0) * 100.0,
                "%",
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_hold() {
        let fig = run(Scale::Quick);
        for check in &fig.checks {
            assert!(
                check.deviation() < 0.1,
                "{}: paper {} measured {}",
                check.metric,
                check.paper,
                check.measured
            );
        }
    }

    #[test]
    fn kvm_gap_widens_with_block_size() {
        let fig = run(Scale::Quick);
        let ratio = |row: &Row| {
            let bare = row
                .values
                .iter()
                .find(|(n, _)| n == "Baremetal MB/s")
                .unwrap()
                .1;
            let kvm = row.values.iter().find(|(n, _)| n == "KVM MB/s").unwrap().1;
            bare / kvm
        };
        assert!(ratio(&fig.rows[0]) < ratio(&fig.rows[4]));
    }

    #[test]
    fn deploy_always_beats_kvm() {
        let fig = run(Scale::Quick);
        for row in &fig.rows {
            let deploy = row
                .values
                .iter()
                .find(|(n, _)| n == "Deploy MB/s")
                .unwrap()
                .1;
            let kvm = row.values.iter().find(|(n, _)| n == "KVM MB/s").unwrap().1;
            assert!(deploy > kvm, "{}", row.label);
        }
    }
}
