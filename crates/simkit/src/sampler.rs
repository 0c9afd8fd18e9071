//! Periodic sim-time series sampling: the flight recorder's timeline.
//!
//! Where [`Spans`](crate::span::Spans) answer "where did this I/O spend
//! its time", a [`Sampler`] answers "how did the system evolve over the
//! run": bitmap fill %, FIFO depths, in-flight requests, throttle state —
//! one row of named values per tick. The driver (the machine's sampler
//! tick) reads the gauges and calls [`Sampler::record_row`]; the sampler
//! itself holds no references into the machine, so it stays a plain
//! cloneable handle like the rest of the observability family (disabled
//! by default, one branch per call when disabled).
//!
//! Rows are recorded in virtual time, so two same-seed runs produce
//! byte-identical timelines.
//!
//! # Examples
//!
//! ```
//! use simkit::sampler::Sampler;
//! use simkit::{SimDuration, SimTime};
//!
//! let s = Sampler::enabled(SimDuration::from_millis(100));
//! s.record_row(SimTime::ZERO, vec![("bitmap.fill_pct", 0.0)]);
//! s.record_row(SimTime::from_millis(100), vec![("bitmap.fill_pct", 12.5)]);
//! assert_eq!(s.rows().len(), 2);
//! assert_eq!(s.last_value("bitmap.fill_pct"), Some(12.5));
//!
//! // Disabled: nothing is stored.
//! let off = Sampler::disabled();
//! off.record_row(SimTime::ZERO, vec![("x", 1.0)]);
//! assert!(off.rows().is_empty());
//! ```

use crate::time::{SimDuration, SimTime};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;
use std::sync::Mutex;

/// One timeline row: a sim-timestamp and named values.
///
/// Series names are `Cow<'static, str>` so per-machine drivers can emit
/// static keys for free while fleet-level drivers build dynamic keys
/// (`machine.3.fill_pct`) without a leak or a registry.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleRow {
    /// Virtual time the row was sampled.
    pub at: SimTime,
    /// `(series name, value)` pairs, in the driver's emission order.
    pub values: Vec<(Cow<'static, str>, f64)>,
}

impl SampleRow {
    /// The value of series `name` in this row, if present.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| n.as_ref() == name)
            .map(|(_, v)| *v)
    }
}

#[derive(Debug)]
struct SamplerStore {
    interval: SimDuration,
    rows: Vec<SampleRow>,
}

/// A cheap, cloneable handle to a (possibly absent) timeline store.
#[derive(Clone, Default)]
pub struct Sampler(Option<Arc<Mutex<SamplerStore>>>);

impl fmt::Debug for Sampler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Sampler({})",
            if self.0.is_some() {
                "enabled"
            } else {
                "disabled"
            }
        )
    }
}

impl Sampler {
    /// A handle recording one row per `interval` tick (the interval is
    /// advisory: the driver schedules ticks, the sampler just stores it
    /// for reporting).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn enabled(interval: SimDuration) -> Sampler {
        assert!(
            interval > SimDuration::ZERO,
            "sampler interval must be positive"
        );
        Sampler(Some(Arc::new(Mutex::new(SamplerStore {
            interval,
            rows: Vec::new(),
        }))))
    }

    /// An inert handle — records are no-ops.
    pub fn disabled() -> Sampler {
        Sampler(None)
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The configured tick interval ([`SimDuration::ZERO`] when
    /// disabled).
    pub fn interval(&self) -> SimDuration {
        self.0
            .as_ref()
            .map(|s| s.lock().unwrap().interval)
            .unwrap_or(SimDuration::ZERO)
    }

    /// Appends one timeline row.
    ///
    /// Keys are anything convertible to `Cow<'static, str>`: `&'static
    /// str` (the common per-machine case, no allocation) or `String`
    /// (dynamic fleet keys). On a disabled handle this returns before
    /// converting any key, so the fast path stays one branch.
    pub fn record_row<K: Into<Cow<'static, str>>>(&self, at: SimTime, values: Vec<(K, f64)>) {
        let Some(s) = &self.0 else { return };
        let values = values.into_iter().map(|(k, v)| (k.into(), v)).collect();
        s.lock().unwrap().rows.push(SampleRow { at, values });
    }

    /// All rows, in record order (empty when disabled).
    pub fn rows(&self) -> Vec<SampleRow> {
        self.0
            .as_ref()
            .map(|s| s.lock().unwrap().rows.clone())
            .unwrap_or_default()
    }

    /// Number of rows recorded.
    pub fn len(&self) -> usize {
        self.0
            .as_ref()
            .map(|s| s.lock().unwrap().rows.len())
            .unwrap_or(0)
    }

    /// Whether no rows have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The most recent value of series `name`, scanning rows backwards.
    pub fn last_value(&self, name: &str) -> Option<f64> {
        let store = self.0.as_ref()?;
        let store = store.lock().unwrap();
        store.rows.iter().rev().find_map(|r| r.value(name))
    }

    /// Timestamp of the most recent row, if any.
    pub fn last_at(&self) -> Option<SimTime> {
        let store = self.0.as_ref()?;
        let at = store.lock().unwrap().rows.last().map(|r| r.at);
        at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_accumulate_in_order() {
        let s = Sampler::enabled(SimDuration::from_millis(10));
        s.record_row(SimTime::ZERO, vec![("a", 1.0), ("b", 2.0)]);
        s.record_row(SimTime::from_millis(10), vec![("a", 3.0)]);
        let rows = s.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].value("b"), Some(2.0));
        assert_eq!(rows[1].value("b"), None);
        assert_eq!(s.last_value("a"), Some(3.0));
        assert_eq!(s.last_value("b"), Some(2.0), "found in earlier row");
        assert_eq!(s.interval(), SimDuration::from_millis(10));
    }

    #[test]
    fn disabled_stores_nothing() {
        let s = Sampler::disabled();
        s.record_row(SimTime::ZERO, vec![("a", 1.0)]);
        assert!(s.is_empty());
        assert_eq!(s.last_value("a"), None);
        assert!(!s.is_enabled());
        assert_eq!(s.interval(), SimDuration::ZERO);
    }

    #[test]
    fn clones_share_one_store() {
        let a = Sampler::enabled(SimDuration::from_millis(1));
        let b = a.clone();
        a.record_row(SimTime::ZERO, vec![("x", 1.0)]);
        b.record_row(SimTime::from_millis(1), vec![("x", 2.0)]);
        assert_eq!(a.len(), 2);
    }

    #[test]
    #[should_panic(expected = "interval")]
    fn zero_interval_panics() {
        Sampler::enabled(SimDuration::ZERO);
    }

    #[test]
    fn dynamic_string_keys_are_accepted() {
        let s = Sampler::enabled(SimDuration::from_millis(1));
        s.record_row(
            SimTime::ZERO,
            vec![(format!("machine.{}.fill_pct", 3), 42.0)],
        );
        assert_eq!(s.last_value("machine.3.fill_pct"), Some(42.0));
    }
}
