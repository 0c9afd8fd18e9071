//! Polled NIC drivers for the VMM's dedicated management NIC.
//!
//! BMcast ships four deliberately tiny drivers (PRO/1000: 718 LOC, X540:
//! 614, RTL816x: 757, NetXtreme: 620) because the VMM only needs "minimal
//! functions to send and receive packets with polling" — no interrupts, no
//! offloads, no power management. This module mirrors that: one polled
//! send/receive core parameterized by the hardware model, with per-model
//! initialization quirks.

use aoe::FrameBytes;
use hwsim::eth::{Frame, MacAddr};
use hwsim::nic::{Nic, NicModel};

/// A polled driver bound to one NIC.
///
/// # Examples
///
/// ```
/// use bmcast::netdrv::PolledNic;
/// use hwsim::nic::NicModel;
/// use hwsim::eth::MacAddr;
///
/// let mut drv = PolledNic::new(NicModel::IntelPro1000, MacAddr::host(1));
/// drv.send(MacAddr::host(2), vec![1, 2, 3].into());
/// assert_eq!(drv.nic_mut().pop_tx().unwrap().payload.to_vec(), [1, 2, 3]);
/// ```
#[derive(Debug)]
pub struct PolledNic {
    nic: Nic<FrameBytes>,
    polls: u64,
}

impl PolledNic {
    /// Initializes the driver for `model` at `mac`: ring setup plus the
    /// model-specific reset sequence (abstracted to a ring-size choice
    /// here; the real quirks are register pokes with no timing effect).
    pub fn new(model: NicModel, mac: MacAddr) -> PolledNic {
        let ring = match model {
            // e1000 and NetXtreme bring up 256-descriptor rings; the
            // RTL816x family is limited to 64; X540 defaults deeper.
            NicModel::IntelPro1000 | NicModel::BroadcomNetXtreme => 256,
            NicModel::RealtekRtl816x => 64,
            NicModel::IntelX540 => 512,
        };
        PolledNic {
            nic: Nic::new(model, mac, ring),
            polls: 0,
        }
    }

    /// The driver's MAC address.
    pub fn mac(&self) -> MacAddr {
        self.nic.mac()
    }

    /// The underlying NIC (the system layer wires it to the switch).
    pub fn nic_mut(&mut self) -> &mut Nic<FrameBytes> {
        &mut self.nic
    }

    /// Immutable view of the NIC.
    pub fn nic(&self) -> &Nic<FrameBytes> {
        &self.nic
    }

    /// Queues an encoded PDU for transmission (shared bytes: queuing
    /// never copies the payload).
    pub fn send(&mut self, dst: MacAddr, payload: FrameBytes) {
        let frame = Frame {
            src: self.nic.mac(),
            dst,
            payload_bytes: payload.len() as u32,
            payload,
        };
        self.nic.transmit(frame);
    }

    /// Polls the receive ring once; returns the oldest pending payload.
    pub fn poll(&mut self) -> Option<FrameBytes> {
        self.polls += 1;
        self.nic.poll_rx().map(|f| f.payload)
    }

    /// Number of poll operations performed.
    pub fn polls(&self) -> u64 {
        self.polls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_frames_carry_src_and_dst() {
        let mut drv = PolledNic::new(NicModel::IntelX540, MacAddr::host(7));
        drv.send(MacAddr::host(9), vec![0xAA].into());
        let f = drv.nic_mut().pop_tx().unwrap();
        assert_eq!(f.src, MacAddr::host(7));
        assert_eq!(f.dst, MacAddr::host(9));
        assert_eq!(f.payload_bytes, 1);
    }

    #[test]
    fn poll_drains_rx_in_order() {
        let mut drv = PolledNic::new(NicModel::BroadcomNetXtreme, MacAddr::host(1));
        for i in 0..3u8 {
            drv.nic_mut().deliver(Frame {
                src: MacAddr::host(2),
                dst: MacAddr::host(1),
                payload_bytes: 1,
                payload: vec![i].into(),
            });
        }
        let drained: Vec<Vec<u8>> = std::iter::from_fn(|| drv.poll())
            .map(|p| p.to_vec())
            .collect();
        assert_eq!(drained, vec![vec![0], vec![1], vec![2]]);
        assert!(drv.poll().is_none());
        assert_eq!(drv.polls(), 5, "3 hits + miss inside drain + final miss");
    }

    #[test]
    fn rtl_ring_is_smallest() {
        let mut rtl = PolledNic::new(NicModel::RealtekRtl816x, MacAddr::host(1));
        for i in 0..100u8 {
            rtl.nic_mut().deliver(Frame {
                src: MacAddr::host(2),
                dst: MacAddr::host(1),
                payload_bytes: 1,
                payload: vec![i].into(),
            });
        }
        assert_eq!(rtl.nic().rx_overflow(), 36, "64-deep ring overflows");
    }
}
