//! Figure 13: InfiniBand RDMA latency (`ib_rdma_lat`: 64 KB × 1000).
//!
//! Unlike throughput, per-operation latency exposes the virtualization
//! adders directly: KVM's IOMMU + cache pollution + nested paging add
//! 23.6%; BMcast adds under 1% even while deploying.

use crate::{Check, Figure, Row, Scale};
use bmcast_baselines::kvm::KvmModel;
use hwsim::ib::{IbConfig, IbHca};
use simkit::SimDuration;

/// Regenerates Figure 13. The HCA comes from the shared [`IbConfig`]
/// the RDMA deployment transport also uses (single-sourced timing).
pub fn run(_scale: Scale) -> Figure {
    let hca = IbHca::from_config(IbConfig::qdr_4x());
    let kvm = KvmModel::default();
    let bytes = 64 << 10;

    let bare = hca.one_way_latency(bytes, SimDuration::ZERO);
    let deploy = hca.one_way_latency(bytes, SimDuration::from_nanos(60));
    let devirt = hca.one_way_latency(bytes, SimDuration::ZERO);
    let kvm_lat = hca.one_way_latency(bytes, kvm.ib_latency_overhead(bare));

    let us = |d: SimDuration| d.as_secs_f64() * 1e6;
    let rows = vec![
        Row::new("Baremetal", vec![("latency us".into(), us(bare))]),
        Row::new("Deploy", vec![("latency us".into(), us(deploy))]),
        Row::new("Devirt", vec![("latency us".into(), us(devirt))]),
        Row::new("KVM/Direct", vec![("latency us".into(), us(kvm_lat))]),
    ];
    Figure {
        id: "fig13",
        title: "InfiniBand RDMA latency (64 KB transfers)",
        unit: "us",
        rows,
        checks: vec![
            Check::new(
                "KVM latency overhead",
                23.6,
                (us(kvm_lat) / us(bare) - 1.0) * 100.0,
                "%",
            ),
            Check::new(
                "Deploy latency overhead",
                1.0,
                (us(deploy) / us(bare) - 1.0) * 100.0,
                "%",
            ),
            Check::new(
                "Devirt latency overhead",
                0.0,
                (us(devirt) / us(bare) - 1.0) * 100.0,
                "%",
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_kvm_pays() {
        let fig = run(Scale::Quick);
        let get = |label: &str| fig.rows.iter().find(|r| r.label == label).unwrap().values[0].1;
        let bare = get("Baremetal");
        assert!((get("KVM/Direct") / bare - 1.236).abs() < 0.01);
        assert!(get("Deploy") / bare < 1.01, "BMcast under 1%");
        assert_eq!(get("Devirt"), bare, "devirt is exactly native");
    }
}
