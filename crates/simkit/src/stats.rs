//! Statistics collectors used by the benchmark harness.
//!
//! [`Histogram`] stores exact samples for precise percentiles (evaluation
//! runs here are at most millions of samples, so exactness is affordable),
//! [`TimeSeries`] records `(time, value)` pairs for the figures that plot
//! performance over elapsed time, and [`Counter`] is a simple monotonic
//! event counter with rate extraction.

use crate::time::{SimDuration, SimTime};

/// An exact-sample histogram with percentile and moment queries.
///
/// # Examples
///
/// ```
/// use simkit::Histogram;
/// let mut h = Histogram::new();
/// for v in [1.0, 2.0, 3.0, 4.0] {
///     h.record(v);
/// }
/// assert_eq!(h.mean(), 2.5);
/// assert_eq!(h.percentile(50.0), 2.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<f64>,
    sorted: bool,
    sum: f64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample. Non-finite samples are ignored.
    pub fn record(&mut self, v: f64) {
        if v.is_finite() {
            self.samples.push(v);
            self.sum += v;
            self.sorted = false;
        }
    }

    /// Records a duration sample in seconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_secs_f64());
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.sum / self.samples.len() as f64
        }
    }

    /// Smallest sample, or 0.0 when empty.
    pub fn min(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .min(if self.samples.is_empty() {
                0.0
            } else {
                f64::INFINITY
            })
    }

    /// Largest sample, or 0.0 when empty.
    pub fn max(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max)
        }
    }

    /// Population standard deviation, or 0.0 when fewer than two samples.
    pub fn std_dev(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        let var =
            self.samples.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / self.samples.len() as f64;
        var.sqrt()
    }

    /// The `p`-th percentile (nearest-rank), `p` in `[0, 100]`.
    ///
    /// Returns 0.0 when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&mut self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        if self.samples.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("no NaN stored"));
            self.sorted = true;
        }
        let n = self.samples.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        self.samples[rank.clamp(1, n) - 1]
    }

    /// Merges another histogram's samples into this one.
    ///
    /// Samples are concatenated, so the internal order depends on merge
    /// order — but every query (`percentile`, `mean`, `min`, `max`)
    /// sorts or folds over the full set, so merged histograms answer
    /// identically regardless of the order the parts arrived in.
    pub fn merge(&mut self, other: &Histogram) {
        self.samples.extend_from_slice(&other.samples);
        self.sum += other.sum;
        self.sorted = false;
    }
}

/// A `(time, value)` series for figures plotted against elapsed time.
///
/// # Examples
///
/// ```
/// use simkit::{TimeSeries, SimTime};
/// let mut ts = TimeSeries::new();
/// ts.push(SimTime::from_secs(1), 10.0);
/// ts.push(SimTime::from_secs(2), 20.0);
/// assert_eq!(ts.len(), 2);
/// assert_eq!(ts.mean(), 15.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Appends a point. Points should be pushed in nondecreasing time
    /// order; this is asserted in debug builds.
    pub fn push(&mut self, t: SimTime, v: f64) {
        debug_assert!(
            self.points.last().is_none_or(|&(lt, _)| lt <= t),
            "time series points must be pushed in order"
        );
        self.points.push((t, v));
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Immutable view of the points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Mean of the values, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            0.0
        } else {
            self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64
        }
    }

    /// Mean of values within `[from, to)`, or 0.0 if none fall there.
    pub fn mean_between(&self, from: SimTime, to: SimTime) -> f64 {
        let vals: Vec<f64> = self
            .points
            .iter()
            .filter(|&&(t, _)| t >= from && t < to)
            .map(|&(_, v)| v)
            .collect();
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    }

    /// Downsamples the series into `buckets` fixed-width windows between
    /// the first and last timestamps, averaging values per window. Empty
    /// windows are skipped. Useful for printing figure-shaped output.
    pub fn bucketed(&self, buckets: usize) -> Vec<(SimTime, f64)> {
        if self.points.is_empty() || buckets == 0 {
            return Vec::new();
        }
        let t0 = self.points[0].0;
        let t1 = self.points[self.points.len() - 1].0;
        let span = (t1 - t0).as_nanos().max(1);
        let width = (span / buckets as u64).max(1);
        let mut out = Vec::new();
        let mut idx = 0usize;
        for b in 0..buckets {
            let lo = t0 + SimDuration::from_nanos(b as u64 * width);
            let hi = if b + 1 == buckets {
                t1 + SimDuration::from_nanos(1)
            } else {
                t0 + SimDuration::from_nanos((b as u64 + 1) * width)
            };
            let mut sum = 0.0;
            let mut n = 0u64;
            while idx < self.points.len() && self.points[idx].0 < hi {
                if self.points[idx].0 >= lo {
                    sum += self.points[idx].1;
                    n += 1;
                }
                idx += 1;
            }
            if n > 0 {
                out.push((lo, sum / n as f64));
            }
        }
        out
    }
}

/// A monotonic event counter with rate extraction.
///
/// # Examples
///
/// ```
/// use simkit::{Counter, SimTime};
/// let mut c = Counter::new();
/// c.add(5);
/// c.add(3);
/// assert_eq!(c.value(), 8);
/// assert_eq!(c.rate_per_sec(SimTime::from_secs(2)), 4.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Increments by one.
    pub fn incr(&mut self) {
        self.value += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Average rate per second over the interval `[0, now]`.
    /// Returns 0.0 at time zero.
    pub fn rate_per_sec(&self, now: SimTime) -> f64 {
        let secs = now.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.value as f64 / secs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_moments() {
        let mut h = Histogram::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            h.record(v);
        }
        assert_eq!(h.len(), 8);
        assert!((h.mean() - 5.0).abs() < 1e-12);
        assert!((h.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(h.min(), 2.0);
        assert_eq!(h.max(), 9.0);
    }

    #[test]
    fn histogram_percentiles() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(v as f64);
        }
        assert_eq!(h.percentile(50.0), 50.0);
        assert_eq!(h.percentile(99.0), 99.0);
        assert_eq!(h.percentile(100.0), 100.0);
        assert_eq!(h.percentile(0.0), 1.0);
    }

    #[test]
    fn histogram_ignores_non_finite() {
        let mut h = Histogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(1.0);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn histogram_empty_is_zeroes() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(50.0), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        a.record(1.0);
        let mut b = Histogram::new();
        b.record(3.0);
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.mean(), 2.0);
    }

    #[test]
    fn series_mean_between() {
        let mut ts = TimeSeries::new();
        for s in 0..10u64 {
            ts.push(SimTime::from_secs(s), s as f64);
        }
        assert_eq!(
            ts.mean_between(SimTime::from_secs(2), SimTime::from_secs(5)),
            3.0
        );
        assert_eq!(
            ts.mean_between(SimTime::from_secs(20), SimTime::from_secs(30)),
            0.0
        );
    }

    #[test]
    fn series_bucketing_averages() {
        let mut ts = TimeSeries::new();
        for s in 0..100u64 {
            ts.push(SimTime::from_secs(s), 1.0);
        }
        let buckets = ts.bucketed(10);
        assert_eq!(buckets.len(), 10);
        for (_, v) in buckets {
            assert_eq!(v, 1.0);
        }
    }

    #[test]
    fn counter_rate() {
        let mut c = Counter::new();
        c.incr();
        c.add(9);
        assert_eq!(c.value(), 10);
        assert_eq!(c.rate_per_sec(SimTime::from_secs(5)), 2.0);
        assert_eq!(c.rate_per_sec(SimTime::ZERO), 0.0);
    }

    // Zero-duration / degenerate-input behavior is part of the public
    // contract the fleet observability plane builds on; the tests below
    // pin it so a refactor can't silently change the convention.

    #[test]
    fn single_sample_percentile_is_that_sample_at_every_p() {
        let mut h = Histogram::new();
        h.record(7.5);
        assert_eq!(h.percentile(0.0), 7.5);
        assert_eq!(h.percentile(50.0), 7.5);
        assert_eq!(h.percentile(99.0), 7.5);
        assert_eq!(h.percentile(100.0), 7.5);
        assert_eq!(h.min(), 7.5);
        assert_eq!(h.max(), 7.5);
        assert_eq!(h.std_dev(), 0.0, "one sample has no spread");
    }

    #[test]
    fn empty_histogram_min_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.std_dev(), 0.0);
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let mut a = Histogram::new();
        a.record(2.0);
        let empty = Histogram::new();
        a.merge(&empty);
        assert_eq!(a.len(), 1);
        assert_eq!(a.percentile(50.0), 2.0);

        let mut b = Histogram::new();
        b.merge(&a);
        assert_eq!(b.len(), 1);
        assert_eq!(b.mean(), 2.0);
    }

    #[test]
    fn counter_rate_at_zero_elapsed_is_zero_even_with_events() {
        let mut c = Counter::new();
        c.add(1_000_000);
        // A counter that already has events at t=0 must not report an
        // infinite or NaN rate: the convention is 0.0 until time moves.
        assert_eq!(c.rate_per_sec(SimTime::ZERO), 0.0);
        let tiny = c.rate_per_sec(SimTime::from_nanos(1));
        assert!(tiny.is_finite());
    }

    #[test]
    fn zero_counter_rate_is_zero_at_any_time() {
        let c = Counter::new();
        assert_eq!(c.rate_per_sec(SimTime::from_secs(100)), 0.0);
    }
}
