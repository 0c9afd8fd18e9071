//! Virtual time types.
//!
//! [`SimTime`] is an absolute instant on the simulation clock and
//! [`SimDuration`] is a span between instants. Both count nanoseconds in a
//! `u64`, giving ~584 years of range — far beyond any experiment here.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant of virtual time, in nanoseconds since simulation
/// start.
///
/// # Examples
///
/// ```
/// use simkit::{SimTime, SimDuration};
/// let t = SimTime::from_millis(2) + SimDuration::from_micros(500);
/// assert_eq!(t.as_micros(), 2500);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use simkit::SimDuration;
/// let d = SimDuration::from_secs(1) / 4;
/// assert_eq!(d.as_millis(), 250);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

macro_rules! time_ctors {
    ($ty:ident) => {
        impl $ty {
            /// Zero value.
            pub const ZERO: $ty = $ty(0);

            /// Constructs from nanoseconds.
            pub const fn from_nanos(ns: u64) -> Self {
                $ty(ns)
            }
            /// Constructs from microseconds.
            pub const fn from_micros(us: u64) -> Self {
                $ty(us * 1_000)
            }
            /// Constructs from milliseconds.
            pub const fn from_millis(ms: u64) -> Self {
                $ty(ms * 1_000_000)
            }
            /// Constructs from seconds.
            pub const fn from_secs(s: u64) -> Self {
                $ty(s * 1_000_000_000)
            }
            /// Value in whole nanoseconds.
            pub const fn as_nanos(self) -> u64 {
                self.0
            }
            /// Value in whole microseconds (truncated).
            pub const fn as_micros(self) -> u64 {
                self.0 / 1_000
            }
            /// Value in whole milliseconds (truncated).
            pub const fn as_millis(self) -> u64 {
                self.0 / 1_000_000
            }
            /// Value in whole seconds (truncated).
            pub const fn as_secs(self) -> u64 {
                self.0 / 1_000_000_000
            }
            /// Value in seconds as a float.
            pub fn as_secs_f64(self) -> f64 {
                self.0 as f64 / 1e9
            }
        }
    };
}

time_ctors!(SimTime);
time_ctors!(SimDuration);

impl SimDuration {
    /// Constructs from fractional seconds, rounding to the nearest
    /// nanosecond. Negative or non-finite inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((s * 1e9).round() as u64)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies by a float factor, rounding to the nearest nanosecond.
    /// Negative or non-finite factors clamp to zero.
    pub fn mul_f64(self, k: f64) -> SimDuration {
        if !k.is_finite() || k <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((self.0 as f64 * k).round() as u64)
    }
}

impl SimTime {
    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier <= self,
            "duration_since: earlier is later than self"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// Saturating duration since `earlier` (zero if `earlier` is later).
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}
impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}
impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}
impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}
impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}
impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}
impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}
impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}
impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}
impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}
impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", format_ns(self.0))
    }
}
impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}
impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}
impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimDuration::from_secs(3).as_millis(), 3_000);
        assert_eq!(SimDuration::from_millis(7).as_micros(), 7_000);
        assert_eq!(SimDuration::from_micros(9).as_nanos(), 9_000);
        assert_eq!(SimTime::from_secs(1).as_secs_f64(), 1.0);
    }

    #[test]
    fn arithmetic() {
        let t0 = SimTime::from_millis(10);
        let t1 = t0 + SimDuration::from_millis(5);
        assert_eq!(t1 - t0, SimDuration::from_millis(5));
        assert_eq!(t1.duration_since(t0).as_millis(), 5);
        assert_eq!(t0.saturating_duration_since(t1), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs(1) * 3, SimDuration::from_secs(3));
        assert_eq!(SimDuration::from_secs(3) / 3, SimDuration::from_secs(1));
    }

    #[test]
    fn from_secs_f64_clamps() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_millis(), 500);
    }

    #[test]
    fn mul_f64() {
        assert_eq!(
            SimDuration::from_secs(2).mul_f64(1.5),
            SimDuration::from_secs(3)
        );
        assert_eq!(SimDuration::from_secs(2).mul_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn display_formats_scale() {
        assert_eq!(SimDuration::from_nanos(5).to_string(), "5ns");
        assert_eq!(SimDuration::from_micros(5).to_string(), "5.000us");
        assert_eq!(SimDuration::from_millis(5).to_string(), "5.000ms");
        assert_eq!(SimDuration::from_secs(5).to_string(), "5.000s");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
    }

    #[test]
    #[should_panic(expected = "earlier is later")]
    fn duration_since_panics_when_reversed() {
        SimTime::from_nanos(1).duration_since(SimTime::from_nanos(2));
    }
}
