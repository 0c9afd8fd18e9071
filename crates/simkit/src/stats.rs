//! The benchmark harness's statistics collector.
//!
//! [`Histogram`] stores exact samples for precise percentiles (evaluation
//! runs here are at most millions of samples, so exactness is affordable).

use crate::time::SimDuration;

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
}
