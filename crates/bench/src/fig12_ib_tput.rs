//! Figure 12: InfiniBand RDMA throughput (`ib_rdma_bw`: 64 KB × 1000).
//!
//! All configurations tie: the link saturates and per-operation overhead
//! hides under the RDMA hardware's command queuing. The experiment runs
//! pipelined transfers through the HCA model with each platform's
//! per-operation latency adder and shows the adders not mattering.

use crate::{Check, Figure, Row, Scale};
use bmcast_baselines::kvm::KvmModel;
use hwsim::ib::{IbConfig, IbHca};
use simkit::{SimDuration, SimTime};

/// Pipelined throughput in GB/s with a per-op latency adder. The HCA is
/// built from the shared [`IbConfig`] the RDMA deployment transport also
/// uses, so the microbenchmark and the transport can never drift apart.
pub fn pipelined_gbps(overhead: SimDuration, ops: u32, bytes: u64) -> f64 {
    let mut hca = IbHca::from_config(IbConfig::qdr_4x());
    let mut done = SimTime::ZERO;
    for _ in 0..ops {
        done = hca.rdma(SimTime::ZERO, bytes, overhead);
    }
    ops as f64 * bytes as f64 / done.as_secs_f64() / 1e9
}

/// Regenerates Figure 12.
pub fn run(scale: Scale) -> Figure {
    let ops = match scale {
        Scale::Paper => 1000,
        Scale::Quick => 100,
    };
    let bytes = 64 << 10;
    let hca = IbHca::from_config(IbConfig::qdr_4x());
    let kvm = KvmModel::default();

    let bare = pipelined_gbps(SimDuration::ZERO, ops, bytes);
    let deploy = pipelined_gbps(SimDuration::from_nanos(60), ops, bytes);
    let devirt = pipelined_gbps(SimDuration::ZERO, ops, bytes);
    let kvm_gbps = pipelined_gbps(
        kvm.ib_latency_overhead(hca.one_way_latency(bytes, SimDuration::ZERO)),
        ops,
        bytes,
    );

    let rows = vec![
        Row::new("Baremetal", vec![("GB/s".into(), bare)]),
        Row::new("Deploy", vec![("GB/s".into(), deploy)]),
        Row::new("Devirt", vec![("GB/s".into(), devirt)]),
        Row::new("KVM/Direct", vec![("GB/s".into(), kvm_gbps)]),
    ];
    Figure {
        id: "fig12",
        title: "InfiniBand RDMA throughput (64 KB transfers)",
        unit: "GB/s",
        rows,
        checks: vec![
            Check::new(
                "KVM throughput ratio to baremetal",
                1.0,
                kvm_gbps / bare,
                "x",
            ),
            Check::new(
                "Deploy throughput ratio to baremetal",
                1.0,
                deploy / bare,
                "x",
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn everyone_saturates_the_link() {
        let fig = run(Scale::Quick);
        let values: Vec<f64> = fig.rows.iter().map(|r| r.values[0].1).collect();
        let max = values.iter().cloned().fold(0.0, f64::max);
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            (max - min) / max < 0.02,
            "throughput must tie across platforms: {values:?}"
        );
        assert!((3.5..4.5).contains(&max), "QDR 4x ~4 GB/s, got {max:.2}");
    }
}
