//! Seeded, deterministic fault injection.
//!
//! A [`FaultPlan`] describes the adversity a deployment should face —
//! per-link drop/duplicate/reorder/corrupt rates, server stall and
//! crash-and-restart windows, slow-disk and write-error injection — and a
//! [`FaultInjector`] turns the plan into per-event verdicts. Every
//! stochastic decision flows through PRNG streams forked from the plan's
//! seed in a fixed order (one stream per fault class), so the same seed and
//! plan replay a scenario byte-identically regardless of which classes are
//! enabled: a plan with `drop_rate: 0.0` consumes exactly the same draws as
//! one with `drop_rate: 0.1`.
//!
//! The injector is policy-free: it says *what happens* to a frame or a disk
//! access ([`LinkVerdict`], [`ServerHealth`], latency factors); the machine
//! wiring applies the verdict. Injection totals are kept in
//! [`FaultCounters`] and mirrored to `fault.*` metrics when a
//! [`Metrics`] handle is attached.
//!
//! # Examples
//!
//! ```
//! use simkit::fault::{FaultInjector, FaultPlan};
//! use simkit::SimTime;
//!
//! let mut a = FaultInjector::new(FaultPlan::chaos(7));
//! let mut b = FaultInjector::new(FaultPlan::chaos(7));
//! let t = SimTime::from_millis(1);
//! for _ in 0..100 {
//!     assert_eq!(a.link_verdict_tx(t), b.link_verdict_tx(t));
//! }
//! ```

use crate::metrics::Metrics;
use crate::rng::Prng;
use crate::time::{SimDuration, SimTime};

/// A half-open window of virtual time: `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// First instant inside the window.
    pub from: SimTime,
    /// First instant after the window.
    pub until: SimTime,
}

impl Window {
    /// Constructs a window covering `[from, until)`.
    pub fn new(from: SimTime, until: SimTime) -> Window {
        Window { from, until }
    }

    /// Whether `t` falls inside the window.
    pub fn contains(&self, t: SimTime) -> bool {
        t >= self.from && t < self.until
    }
}

/// Per-link stochastic fault rates. Rates are per-frame probabilities in
/// `[0, 1]`; at most one fault applies to a frame, with precedence
/// drop > corrupt > duplicate > reorder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaultSpec {
    /// Probability a frame is silently dropped.
    pub drop_rate: f64,
    /// Probability a frame is delivered twice.
    pub duplicate_rate: f64,
    /// Probability a frame is delayed past later traffic.
    pub reorder_rate: f64,
    /// Probability a frame's bytes are flipped in flight.
    pub corrupt_rate: f64,
    /// Extra latency applied to reordered frames.
    pub reorder_delay: SimDuration,
    /// When set, faults only fire inside this window.
    pub window: Option<Window>,
}

impl Default for LinkFaultSpec {
    fn default() -> Self {
        LinkFaultSpec {
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            reorder_rate: 0.0,
            corrupt_rate: 0.0,
            reorder_delay: SimDuration::from_millis(2),
            window: None,
        }
    }
}

/// Server availability faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerFaultSpec {
    /// Unresponsive window: frames to the server vanish, state survives.
    pub stall: Option<Window>,
    /// Crash window: frames vanish and the server restarts (losing
    /// in-flight work) at the window's end.
    pub crash: Option<Window>,
}

/// Disk-level faults (applies to whichever disk the wiring points it at).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskFaultSpec {
    /// Multiplier on every access time while active (1.0 = no fault).
    pub latency_factor: f64,
    /// When set, the latency factor only applies inside this window;
    /// when `None`, it applies for the whole run.
    pub latency_window: Option<Window>,
    /// Writes inside this window fail with a device error.
    pub write_error_window: Option<Window>,
}

impl Default for DiskFaultSpec {
    fn default() -> Self {
        DiskFaultSpec {
            latency_factor: 1.0,
            latency_window: None,
            write_error_window: None,
        }
    }
}

/// A complete, seeded fault scenario. Same plan + same seed ⇒ the same
/// verdict sequence, byte for byte.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for all of the injector's PRNG streams.
    pub seed: u64,
    /// Link faults applied to frames leaving the client side.
    pub link: LinkFaultSpec,
    /// Server availability faults.
    pub server: ServerFaultSpec,
    /// Disk faults.
    pub disk: DiskFaultSpec,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a base to customize).
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            link: LinkFaultSpec::default(),
            server: ServerFaultSpec::default(),
            disk: DiskFaultSpec::default(),
        }
    }

    /// 5% frame drop on both directions.
    pub fn drop(seed: u64) -> FaultPlan {
        let mut p = FaultPlan::quiet(seed);
        p.link.drop_rate = 0.05;
        p
    }

    /// 5% frame duplication.
    pub fn duplicate(seed: u64) -> FaultPlan {
        let mut p = FaultPlan::quiet(seed);
        p.link.duplicate_rate = 0.05;
        p
    }

    /// 10% of frames delayed past later traffic.
    pub fn reorder(seed: u64) -> FaultPlan {
        let mut p = FaultPlan::quiet(seed);
        p.link.reorder_rate = 0.10;
        p
    }

    /// 2% frame corruption (caught by the AoE checksum).
    pub fn corrupt(seed: u64) -> FaultPlan {
        let mut p = FaultPlan::quiet(seed);
        p.link.corrupt_rate = 0.02;
        p
    }

    /// Server unresponsive from 200 ms to 1.2 s.
    pub fn stall(seed: u64) -> FaultPlan {
        let mut p = FaultPlan::quiet(seed);
        p.server.stall = Some(Window::new(
            SimTime::from_millis(200),
            SimTime::from_millis(1200),
        ));
        p
    }

    /// Server crashes at 150 ms and restarts (state reset) at 450 ms —
    /// early enough that even a quick-scale deployment crosses the
    /// outage.
    pub fn crash(seed: u64) -> FaultPlan {
        let mut p = FaultPlan::quiet(seed);
        p.server.crash = Some(Window::new(
            SimTime::from_millis(150),
            SimTime::from_millis(450),
        ));
        p
    }

    /// Server disk 4× slower for the whole run.
    pub fn slow_disk(seed: u64) -> FaultPlan {
        let mut p = FaultPlan::quiet(seed);
        p.disk.latency_factor = 4.0;
        p
    }

    /// Server-disk writes fail from 100 ms to 600 ms.
    pub fn write_errors(seed: u64) -> FaultPlan {
        let mut p = FaultPlan::quiet(seed);
        p.disk.write_error_window = Some(Window::new(
            SimTime::from_millis(100),
            SimTime::from_millis(600),
        ));
        p
    }

    /// Everything at once, at rates a deployment can still survive.
    pub fn chaos(seed: u64) -> FaultPlan {
        let mut p = FaultPlan::quiet(seed);
        p.link.drop_rate = 0.02;
        p.link.duplicate_rate = 0.02;
        p.link.reorder_rate = 0.05;
        p.link.corrupt_rate = 0.01;
        p.server.stall = Some(Window::new(
            SimTime::from_millis(400),
            SimTime::from_millis(900),
        ));
        p.disk.latency_factor = 2.0;
        p.disk.latency_window = Some(Window::new(
            SimTime::from_millis(0),
            SimTime::from_millis(1500),
        ));
        p.disk.write_error_window = Some(Window::new(
            SimTime::from_millis(100),
            SimTime::from_millis(300),
        ));
        p
    }

    /// Names accepted by [`FaultPlan::preset`], in canonical order.
    pub const PRESET_NAMES: &'static [&'static str] = &[
        "drop",
        "duplicate",
        "reorder",
        "corrupt",
        "stall",
        "crash",
        "slowdisk",
        "writeerr",
        "chaos",
    ];

    /// Looks up a preset plan by name (the `reproduce --faults` spelling).
    pub fn preset(name: &str, seed: u64) -> Option<FaultPlan> {
        Some(match name {
            "drop" => FaultPlan::drop(seed),
            "duplicate" => FaultPlan::duplicate(seed),
            "reorder" => FaultPlan::reorder(seed),
            "corrupt" => FaultPlan::corrupt(seed),
            "stall" => FaultPlan::stall(seed),
            "crash" => FaultPlan::crash(seed),
            "slowdisk" => FaultPlan::slow_disk(seed),
            "writeerr" => FaultPlan::write_errors(seed),
            "chaos" => FaultPlan::chaos(seed),
            _ => return None,
        })
    }
}

/// What happens to one frame on the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkVerdict {
    /// Deliver normally.
    Deliver,
    /// Silently drop.
    Drop,
    /// Deliver twice.
    Duplicate,
    /// Deliver with bytes flipped; `entropy` seeds the mutation.
    Corrupt {
        /// Deterministic randomness for choosing which bytes to flip.
        entropy: u64,
    },
    /// Deliver after an extra delay (reordering it past later traffic).
    Delay(SimDuration),
}

/// Server availability at an instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerHealth {
    /// Serving normally.
    Up,
    /// First probe after a crash window: the caller must reset server
    /// state (in-flight work is lost) and may then serve.
    Restarting,
    /// Stalled or crashed: frames to the server vanish.
    Down,
}

/// Running totals of injected faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounters {
    /// Frames dropped on the link.
    pub link_dropped: u64,
    /// Frames delivered twice.
    pub link_duplicated: u64,
    /// Frames delayed for reordering.
    pub link_reordered: u64,
    /// Frames corrupted in flight.
    pub link_corrupted: u64,
    /// Frames that vanished into a stalled/crashed server.
    pub server_dropped: u64,
    /// Server restarts after crash windows.
    pub server_restarts: u64,
    /// Disk accesses that paid the slow-disk factor.
    pub disk_slowed: u64,
    /// Disk writes failed with a device error.
    pub disk_write_faults: u64,
}

impl FaultCounters {
    /// Every injected fault, of every class.
    pub fn total(&self) -> u64 {
        self.link_dropped
            + self.link_duplicated
            + self.link_reordered
            + self.link_corrupted
            + self.server_dropped
            + self.server_restarts
            + self.disk_slowed
            + self.disk_write_faults
    }

    /// The injector events witnessing that the [`FaultPlan::preset`]
    /// named `preset` fired (0 for an unknown name). Chaos mixes every
    /// class; any link fault plus the stall counts for it.
    pub fn fired(&self, preset: &str) -> u64 {
        match preset {
            "drop" => self.link_dropped,
            "duplicate" => self.link_duplicated,
            "reorder" => self.link_reordered,
            "corrupt" => self.link_corrupted,
            "stall" => self.server_dropped,
            "crash" => self.server_dropped + self.server_restarts,
            "slowdisk" => self.disk_slowed,
            "writeerr" => self.disk_write_faults,
            "chaos" => {
                self.link_dropped
                    + self.link_duplicated
                    + self.link_reordered
                    + self.link_corrupted
                    + self.server_dropped
            }
            _ => 0,
        }
    }
}

/// Turns a [`FaultPlan`] into deterministic per-event verdicts.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    link_tx: Prng,
    link_rx: Prng,
    corrupt: Prng,
    counters: FaultCounters,
    restart_pending: bool,
    metrics: Metrics,
}

impl FaultInjector {
    /// Builds an injector, forking one PRNG stream per fault class from
    /// the plan's seed in a fixed order.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        let mut root = Prng::new(plan.seed);
        let link_tx = root.fork();
        let link_rx = root.fork();
        let corrupt = root.fork();
        FaultInjector {
            plan,
            link_tx,
            link_rx,
            corrupt,
            counters: FaultCounters::default(),
            restart_pending: false,
            metrics: Metrics::disabled(),
        }
    }

    /// The plan this injector replays.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Attaches a metrics handle; injection totals mirror to `fault.*`.
    pub fn set_metrics(&mut self, metrics: Metrics) {
        self.metrics = metrics;
    }

    /// Injection totals so far.
    pub fn counters(&self) -> FaultCounters {
        self.counters
    }

    /// Verdict for a frame leaving the client side (requests).
    pub fn link_verdict_tx(&mut self, now: SimTime) -> LinkVerdict {
        let Self {
            plan,
            link_tx,
            corrupt,
            counters,
            metrics,
            ..
        } = self;
        Self::link_verdict(&plan.link, link_tx, corrupt, counters, metrics, now)
    }

    /// Verdict for a frame leaving the server side (replies).
    pub fn link_verdict_rx(&mut self, now: SimTime) -> LinkVerdict {
        let Self {
            plan,
            link_rx,
            corrupt,
            counters,
            metrics,
            ..
        } = self;
        Self::link_verdict(&plan.link, link_rx, corrupt, counters, metrics, now)
    }

    fn link_verdict(
        spec: &LinkFaultSpec,
        prng: &mut Prng,
        corrupt: &mut Prng,
        counters: &mut FaultCounters,
        metrics: &Metrics,
        now: SimTime,
    ) -> LinkVerdict {
        // Always consume the same draws, active or not, so enabling one
        // class never perturbs another class's stream.
        let drop = prng.chance(spec.drop_rate);
        let dup = prng.chance(spec.duplicate_rate);
        let reorder = prng.chance(spec.reorder_rate);
        let corr = prng.chance(spec.corrupt_rate);
        if let Some(w) = &spec.window {
            if !w.contains(now) {
                return LinkVerdict::Deliver;
            }
        }
        if drop {
            counters.link_dropped += 1;
            metrics.inc("fault.link_dropped");
            LinkVerdict::Drop
        } else if corr {
            counters.link_corrupted += 1;
            metrics.inc("fault.link_corrupted");
            LinkVerdict::Corrupt {
                entropy: corrupt.next_u64(),
            }
        } else if dup {
            counters.link_duplicated += 1;
            metrics.inc("fault.link_duplicated");
            LinkVerdict::Duplicate
        } else if reorder {
            counters.link_reordered += 1;
            metrics.inc("fault.link_reordered");
            LinkVerdict::Delay(spec.reorder_delay)
        } else {
            LinkVerdict::Deliver
        }
    }

    /// Server availability for a frame arriving at `now`. Returns
    /// [`ServerHealth::Restarting`] exactly once per crash window, on the
    /// first probe after the window closes.
    pub fn server_health(&mut self, now: SimTime) -> ServerHealth {
        if let Some(w) = &self.plan.server.crash {
            if w.contains(now) {
                self.restart_pending = true;
                self.counters.server_dropped += 1;
                self.metrics.inc("fault.server_dropped");
                return ServerHealth::Down;
            }
            if now >= w.until && self.restart_pending {
                self.restart_pending = false;
                self.counters.server_restarts += 1;
                self.metrics.inc("fault.server_restarts");
                return ServerHealth::Restarting;
            }
        }
        if let Some(w) = &self.plan.server.stall {
            if w.contains(now) {
                self.counters.server_dropped += 1;
                self.metrics.inc("fault.server_dropped");
                return ServerHealth::Down;
            }
        }
        ServerHealth::Up
    }

    /// Disk access-time multiplier at `now` (1.0 when no fault applies).
    pub fn disk_latency_factor(&mut self, now: SimTime) -> f64 {
        let spec = &self.plan.disk;
        if spec.latency_factor == 1.0 {
            return 1.0;
        }
        let active = match &spec.latency_window {
            Some(w) => w.contains(now),
            None => true,
        };
        if active {
            self.counters.disk_slowed += 1;
            self.metrics.inc("fault.disk_slowed");
            spec.latency_factor
        } else {
            1.0
        }
    }

    /// Whether a disk write at `now` fails with a device error.
    pub fn disk_write_error(&mut self, now: SimTime) -> bool {
        let faulted = self
            .plan
            .disk
            .write_error_window
            .as_ref()
            .is_some_and(|w| w.contains(now));
        if faulted {
            self.counters.disk_write_faults += 1;
            self.metrics.inc("fault.disk_write_faults");
        }
        faulted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_is_half_open() {
        let w = Window::new(SimTime::from_nanos(10), SimTime::from_nanos(20));
        assert!(!w.contains(SimTime::from_nanos(9)));
        assert!(w.contains(SimTime::from_nanos(10)));
        assert!(w.contains(SimTime::from_nanos(19)));
        assert!(!w.contains(SimTime::from_nanos(20)));
    }

    #[test]
    fn same_plan_same_verdicts() {
        let mut a = FaultInjector::new(FaultPlan::chaos(42));
        let mut b = FaultInjector::new(FaultPlan::chaos(42));
        for i in 0..1000u64 {
            let t = SimTime::from_micros(i * 10);
            assert_eq!(a.link_verdict_tx(t), b.link_verdict_tx(t));
            assert_eq!(a.link_verdict_rx(t), b.link_verdict_rx(t));
            assert_eq!(a.server_health(t), b.server_health(t));
        }
        assert_eq!(a.counters(), b.counters());
    }

    #[test]
    fn tx_and_rx_streams_are_independent() {
        let mut inj = FaultInjector::new(FaultPlan::drop(1));
        let t = SimTime::ZERO;
        let tx: Vec<_> = (0..200).map(|_| inj.link_verdict_tx(t)).collect();
        let mut inj2 = FaultInjector::new(FaultPlan::drop(1));
        let rx: Vec<_> = (0..200).map(|_| inj2.link_verdict_rx(t)).collect();
        assert_ne!(tx, rx);
    }

    #[test]
    fn enabling_one_class_does_not_shift_another() {
        // Same seed, drop-only vs drop+duplicate: the drop decisions must
        // be identical because each frame consumes a fixed set of draws.
        let mut only_drop = FaultInjector::new(FaultPlan::drop(9));
        let mut plan = FaultPlan::drop(9);
        plan.link.duplicate_rate = 0.5;
        let mut both = FaultInjector::new(plan);
        let t = SimTime::ZERO;
        for _ in 0..500 {
            let a = only_drop.link_verdict_tx(t);
            let b = both.link_verdict_tx(t);
            assert_eq!(a == LinkVerdict::Drop, b == LinkVerdict::Drop);
        }
    }

    #[test]
    fn quiet_plan_injects_nothing() {
        let mut inj = FaultInjector::new(FaultPlan::quiet(3));
        for i in 0..100u64 {
            let t = SimTime::from_millis(i * 10);
            assert_eq!(inj.link_verdict_tx(t), LinkVerdict::Deliver);
            assert_eq!(inj.server_health(t), ServerHealth::Up);
            assert_eq!(inj.disk_latency_factor(t), 1.0);
            assert!(!inj.disk_write_error(t));
        }
        assert_eq!(inj.counters(), FaultCounters::default());
    }

    #[test]
    fn crash_restarts_exactly_once() {
        let mut inj = FaultInjector::new(FaultPlan::crash(5));
        assert_eq!(
            inj.server_health(SimTime::from_millis(100)),
            ServerHealth::Up
        );
        assert_eq!(
            inj.server_health(SimTime::from_millis(200)),
            ServerHealth::Down
        );
        assert_eq!(
            inj.server_health(SimTime::from_millis(500)),
            ServerHealth::Restarting
        );
        assert_eq!(
            inj.server_health(SimTime::from_millis(501)),
            ServerHealth::Up
        );
        assert_eq!(inj.counters().server_restarts, 1);
    }

    #[test]
    fn stall_drops_inside_window_only() {
        let mut inj = FaultInjector::new(FaultPlan::stall(6));
        assert_eq!(
            inj.server_health(SimTime::from_millis(100)),
            ServerHealth::Up
        );
        assert_eq!(
            inj.server_health(SimTime::from_millis(600)),
            ServerHealth::Down
        );
        assert_eq!(
            inj.server_health(SimTime::from_millis(1300)),
            ServerHealth::Up
        );
        assert_eq!(inj.counters().server_dropped, 1);
        assert_eq!(inj.counters().server_restarts, 0);
    }

    #[test]
    fn slow_disk_and_write_errors_respect_windows() {
        let mut plan = FaultPlan::slow_disk(7);
        plan.disk.latency_window = Some(Window::new(
            SimTime::from_millis(100),
            SimTime::from_millis(200),
        ));
        plan.disk.write_error_window = Some(Window::new(
            SimTime::from_millis(150),
            SimTime::from_millis(250),
        ));
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.disk_latency_factor(SimTime::from_millis(50)), 1.0);
        assert_eq!(inj.disk_latency_factor(SimTime::from_millis(150)), 4.0);
        assert!(!inj.disk_write_error(SimTime::from_millis(100)));
        assert!(inj.disk_write_error(SimTime::from_millis(200)));
        assert_eq!(inj.counters().disk_slowed, 1);
        assert_eq!(inj.counters().disk_write_faults, 1);
    }

    #[test]
    fn presets_resolve_by_name() {
        for name in FaultPlan::PRESET_NAMES {
            let plan = FaultPlan::preset(name, 1).unwrap();
            assert_ne!(plan, FaultPlan::quiet(1), "{name} must inject something");
        }
        assert!(FaultPlan::preset("nonsense", 1).is_none());
    }

    #[test]
    fn fired_maps_each_preset_and_total_sums_every_class() {
        let c = FaultCounters {
            link_dropped: 1,
            link_duplicated: 2,
            link_reordered: 4,
            link_corrupted: 8,
            server_dropped: 16,
            server_restarts: 32,
            disk_slowed: 64,
            disk_write_faults: 128,
        };
        let fired: Vec<u64> = FaultPlan::PRESET_NAMES
            .iter()
            .map(|name| c.fired(name))
            .collect();
        assert_eq!(fired, [1, 2, 4, 8, 16, 48, 64, 128, 31]);
        assert_eq!(c.fired("unknown"), 0);
        assert_eq!(c.total(), 255);
    }

    #[test]
    fn metrics_mirror_counters() {
        let m = Metrics::enabled();
        let mut inj = FaultInjector::new(FaultPlan::drop(8));
        inj.set_metrics(m.clone());
        let t = SimTime::ZERO;
        for _ in 0..500 {
            inj.link_verdict_tx(t);
        }
        let snap = m.snapshot().unwrap();
        assert!(inj.counters().link_dropped > 0);
        assert_eq!(
            snap.counter("fault.link_dropped"),
            inj.counters().link_dropped
        );
    }
}
