//! Ethernet frames, links, and a store-and-forward switch.
//!
//! Models the evaluation fabric: a gigabit switch with a 9000-byte MTU
//! (jumbo frames), per-link serialization delay and propagation latency.
//! The switch loses nothing on its own: lost, duplicated or delayed
//! frames are fault-injection verdicts the fabric applies.
//!
//! Frames are generic over their payload type so upper layers (the AoE
//! crate, the system crate) can carry typed messages without this crate
//! depending on them.

use simkit::{SimDuration, SimTime};
use std::fmt;

/// A MAC address (stored as the low 48 bits of a `u64`).
///
/// # Examples
///
/// ```
/// use hwsim::eth::MacAddr;
/// let m = MacAddr::new(0x02_00_00_00_00_01);
/// assert_eq!(m.to_string(), "02:00:00:00:00:01");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MacAddr(u64);

impl MacAddr {
    /// Creates an address from its 48-bit value.
    ///
    /// # Panics
    ///
    /// Panics if `raw` exceeds 48 bits.
    pub fn new(raw: u64) -> MacAddr {
        assert!(raw < (1 << 48), "MAC address exceeds 48 bits");
        MacAddr(raw)
    }

    /// A locally administered address derived from a small host index.
    pub const fn host(index: u16) -> MacAddr {
        MacAddr(0x02_00_00_00_00_00 | index as u64)
    }

    /// The raw 48-bit value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0.to_be_bytes();
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[2], b[3], b[4], b[5], b[6], b[7]
        )
    }
}

/// Ethernet header + FCS overhead per frame, in bytes.
pub const FRAME_OVERHEAD: u32 = 18;

/// An Ethernet frame carrying a typed payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame<P> {
    /// Source MAC.
    pub src: MacAddr,
    /// Destination MAC.
    pub dst: MacAddr,
    /// Payload length in bytes (for timing; the typed payload itself is
    /// carried out-of-band).
    pub payload_bytes: u32,
    /// The typed payload.
    pub payload: P,
}

impl<P> Frame<P> {
    /// Total on-wire size including header and FCS.
    pub fn wire_bytes(&self) -> u32 {
        self.payload_bytes + FRAME_OVERHEAD
    }
}

/// A point-to-point link: bandwidth, propagation delay, and a busy-until
/// time modeling serialization queueing.
#[derive(Debug, Clone)]
pub struct Link {
    /// Line rate in bits per second.
    pub rate_bps: u64,
    /// One-way propagation + forwarding latency.
    pub latency: SimDuration,
    next_free: SimTime,
}

impl Link {
    /// A link with the given rate and latency.
    pub fn new(rate_bps: u64, latency: SimDuration) -> Link {
        Link {
            rate_bps,
            latency,
            next_free: SimTime::ZERO,
        }
    }

    /// A gigabit Ethernet link with typical switch latency.
    pub fn gigabit() -> Link {
        Link::new(1_000_000_000, SimDuration::from_micros(30))
    }

    /// Queues `bytes` for transmission at `now`; returns the arrival time
    /// at the far end. Back-to-back sends queue behind each other.
    pub fn transmit(&mut self, now: SimTime, bytes: u32) -> SimTime {
        let start = now.max(self.next_free);
        let ser = SimDuration::from_nanos(bytes as u64 * 8 * 1_000_000_000 / self.rate_bps);
        self.next_free = start + ser;
        self.next_free + self.latency
    }

    /// The earliest time a new transmission could start.
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }
}

/// Why a switch refused a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchError {
    /// The frame exceeded the switch MTU.
    FrameTooBig {
        /// The frame's payload size.
        payload: u32,
        /// The configured MTU.
        mtu: u32,
    },
    /// No port has learned the destination MAC.
    UnknownDestination(MacAddr),
}

impl fmt::Display for SwitchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwitchError::FrameTooBig { payload, mtu } => {
                write!(f, "frame payload {payload} exceeds mtu {mtu}")
            }
            SwitchError::UnknownDestination(mac) => {
                write!(f, "no port for destination {mac}")
            }
        }
    }
}

impl std::error::Error for SwitchError {}

/// A successfully forwarded frame: where and when it arrives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery<P> {
    /// Destination port index.
    pub port: usize,
    /// Arrival time at the destination NIC.
    pub at: SimTime,
    /// The frame.
    pub frame: Frame<P>,
}

/// A store-and-forward Ethernet switch with static MAC learning.
///
/// # Examples
///
/// ```
/// use hwsim::eth::{Switch, Link, MacAddr, Frame};
/// use simkit::SimTime;
///
/// let mut sw: Switch<&'static str> = Switch::new(9000);
/// let a = sw.attach(MacAddr::host(1), Link::gigabit());
/// let b = sw.attach(MacAddr::host(2), Link::gigabit());
/// let frame = Frame { src: MacAddr::host(1), dst: MacAddr::host(2),
///                     payload_bytes: 1000, payload: "hello" };
/// let d = sw.forward(SimTime::ZERO, frame).unwrap();
/// assert_eq!(d.port, b);
/// # let _ = a;
/// ```
#[derive(Debug, Clone)]
pub struct Switch<P> {
    mtu: u32,
    ports: Vec<(MacAddr, Link)>,
    _marker: std::marker::PhantomData<fn() -> P>,
}

impl<P> Switch<P> {
    /// Creates a switch with the given MTU (payload bytes).
    pub fn new(mtu: u32) -> Switch<P> {
        Switch {
            mtu,
            ports: Vec::new(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Attaches a host; returns its port index.
    pub fn attach(&mut self, mac: MacAddr, link: Link) -> usize {
        self.ports.push((mac, link));
        self.ports.len() - 1
    }

    /// Forwards a frame submitted at `now`, charging serialization on the
    /// egress link.
    ///
    /// # Errors
    ///
    /// Returns [`SwitchError`] if the frame exceeds the MTU or the
    /// destination is unknown.
    pub fn forward(&mut self, now: SimTime, frame: Frame<P>) -> Result<Delivery<P>, SwitchError> {
        if frame.payload_bytes > self.mtu {
            return Err(SwitchError::FrameTooBig {
                payload: frame.payload_bytes,
                mtu: self.mtu,
            });
        }
        let port = self
            .ports
            .iter()
            .position(|&(mac, _)| mac == frame.dst)
            .ok_or(SwitchError::UnknownDestination(frame.dst))?;
        let wire = frame.wire_bytes();
        let at = self.ports[port].1.transmit(now, wire);
        Ok(Delivery { port, at, frame })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(dst: MacAddr, bytes: u32) -> Frame<u32> {
        Frame {
            src: MacAddr::host(1),
            dst,
            payload_bytes: bytes,
            payload: 0,
        }
    }

    #[test]
    fn link_serialization_time() {
        let mut l = Link::new(1_000_000_000, SimDuration::ZERO);
        // 1250 bytes at 1 Gb/s = 10 us.
        let arrival = l.transmit(SimTime::ZERO, 1250);
        assert_eq!(arrival, SimTime::from_micros(10));
    }

    #[test]
    fn link_queues_back_to_back() {
        let mut l = Link::new(1_000_000_000, SimDuration::from_micros(5));
        let a = l.transmit(SimTime::ZERO, 1250);
        let b = l.transmit(SimTime::ZERO, 1250);
        assert_eq!(a, SimTime::from_micros(15));
        assert_eq!(b, SimTime::from_micros(25), "second frame queues");
    }

    #[test]
    fn switch_delivers_to_learned_port() {
        let mut sw: Switch<u32> = Switch::new(9000);
        sw.attach(MacAddr::host(1), Link::gigabit());
        let b = sw.attach(MacAddr::host(2), Link::gigabit());
        let d = sw
            .forward(SimTime::ZERO, frame(MacAddr::host(2), 512))
            .unwrap();
        assert_eq!(d.port, b);
        assert!(d.at > SimTime::ZERO);
    }

    #[test]
    fn switch_rejects_oversize() {
        let mut sw: Switch<u32> = Switch::new(1500);
        sw.attach(MacAddr::host(2), Link::gigabit());
        let err = sw
            .forward(SimTime::ZERO, frame(MacAddr::host(2), 1501))
            .unwrap_err();
        assert!(matches!(err, SwitchError::FrameTooBig { .. }));
    }

    #[test]
    fn switch_rejects_unknown_destination() {
        let mut sw: Switch<u32> = Switch::new(1500);
        let err = sw
            .forward(SimTime::ZERO, frame(MacAddr::host(9), 100))
            .unwrap_err();
        assert_eq!(err, SwitchError::UnknownDestination(MacAddr::host(9)));
    }

    #[test]
    fn gigabit_saturates_near_line_rate_with_jumbo() {
        // 9000-byte payloads: 100 MB should take ~0.81 s at 1 Gb/s.
        let mut sw: Switch<u32> = Switch::new(9000);
        sw.attach(MacAddr::host(2), Link::gigabit());
        let frames = 100_000_000 / 9000;
        let mut last = SimTime::ZERO;
        for _ in 0..frames {
            // Submit back-to-back; the egress link queues them.
            last = sw
                .forward(SimTime::ZERO, frame(MacAddr::host(2), 9000))
                .unwrap()
                .at;
        }
        let mbps = 100.0 / last.as_secs_f64();
        assert!(
            (mbps - 120.0).abs() < 15.0,
            "jumbo gigabit rate was {mbps:.1} MB/s"
        );
    }

    #[test]
    fn mac_display() {
        assert_eq!(MacAddr::host(0xAB).to_string(), "02:00:00:00:00:ab");
    }

    #[test]
    #[should_panic(expected = "48 bits")]
    fn mac_too_wide_panics() {
        MacAddr::new(1 << 48);
    }
}
