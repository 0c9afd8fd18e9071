//! A lightweight metrics registry: counters, gauges, and log-scale
//! latency histograms behind a cheap, cloneable handle.
//!
//! Components hold a [`Metrics`] handle (disabled by default) and call
//! [`Metrics::inc`]/[`Metrics::observe`] at their hot paths. When the
//! handle is disabled every call is a single `Option` check — no
//! allocation, no map lookup — so instrumented code costs nothing in
//! uninstrumented runs. When enabled, all clones of a handle share one
//! [`Registry`], so the machine wiring can hand the same registry to the
//! mediators, the background copy, the AoE endpoints, and the system
//! layer, and a single [`Metrics::snapshot`] sees everything.
//!
//! Names are `&'static str` in dotted `subsystem.metric` form
//! (`"machine.redirected_ios"`, `"bg.fifo_depth"`); the registry is
//! ordered, so snapshots print deterministically.
//!
//! # Examples
//!
//! ```
//! use simkit::metrics::Metrics;
//!
//! let m = Metrics::enabled();
//! m.inc("aoe.client.retransmits");
//! m.add("bg.bytes_fetched", 4096);
//! m.gauge_set("bg.fifo_depth", 3);
//! m.observe("guest.io_latency_us", 740);
//! let snap = m.snapshot().unwrap();
//! assert_eq!(snap.counter("aoe.client.retransmits"), 1);
//! assert_eq!(snap.counter("bg.bytes_fetched"), 4096);
//! assert_eq!(snap.gauge("bg.fifo_depth"), 3);
//!
//! // Disabled handles are free and inert.
//! let off = Metrics::disabled();
//! off.inc("anything");
//! assert!(off.snapshot().is_none());
//! ```

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use std::sync::Mutex;

/// A log-scale (power-of-two bucket) histogram of `u64` samples.
///
/// Bucket `i` counts samples whose value needs `i` bits (bucket 0 holds
/// zero). Exact count/sum/min/max ride along, so means are exact and
/// percentiles are bucket-resolution (within 2× of the true value) —
/// plenty for latency distributions spanning decades.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram::default()
    }

    /// Records one sample.
    pub fn observe(&mut self, value: u64) {
        let bucket = 64 - value.leading_zeros() as usize; // bits needed
        self.buckets[bucket] += 1;
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact (saturating) sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact mean of all samples, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Bucket-resolution quantile: the upper bound of the bucket holding
    /// the `q`-quantile sample (q in `[0, 1]`). 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Upper bound of bucket i, clamped to the observed max.
                // Bucket 64 holds values needing all 64 bits; its upper
                // bound is u64::MAX (1 << 64 would overflow).
                let upper = if i == 0 {
                    0
                } else if i >= 64 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                };
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Folds `other` into `self`: bucket-wise addition with exact
    /// count/sum/min/max bookkeeping. Equivalent to having observed both
    /// sample streams into one histogram, in any order — the operation
    /// is associative and commutative, so per-machine histograms merge
    /// into a deterministic fleet aggregate regardless of fold shape
    /// (the merge-law proptests in `tests/properties.rs` pin this).
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += *o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }
}

/// The shared store behind enabled [`Metrics`] handles.
#[derive(Debug, Default)]
pub struct Registry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, i64>,
    histograms: BTreeMap<&'static str, LogHistogram>,
}

/// A point-in-time copy of the registry, detached from the handles.
///
/// Keys are `Cow<'static, str>`: live registries record under
/// `&'static str` names (borrowed, no allocation), while merged fleet
/// snapshots carry dynamic namespaced keys (`machine.3.aoe.client.reads`)
/// as owned strings.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<Cow<'static, str>, u64>,
    /// Last-set gauge values by name.
    pub gauges: BTreeMap<Cow<'static, str>, i64>,
    /// Log-scale histograms by name.
    pub histograms: BTreeMap<Cow<'static, str>, LogHistogram>,
}

impl MetricsSnapshot {
    /// A counter's value, 0 if never incremented.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's value, 0 if never set.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// A histogram by name, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms.get(name)
    }

    /// Folds `other` into `self`, key by key: counters and gauges add,
    /// histograms [`LogHistogram::merge`]. All three operations are
    /// associative and commutative, so merging N per-machine snapshots
    /// yields the same aggregate as recording everything into one shared
    /// registry — for counters and histograms exactly (increments and
    /// observations commute), and for gauges under the summation
    /// convention (a fleet's "queue depth" gauges add; a shared registry
    /// would instead keep one member's last write, which is meaningless
    /// across machines).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            *self.gauges.entry(name.clone()).or_insert(0) += v;
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
    }

    /// A copy of the snapshot with `prefix` prepended to every key —
    /// the namespacing step of a fleet fold (`machine.{i}.` per member),
    /// keeping per-member detail and aggregate totals disjoint in one
    /// merged snapshot.
    pub fn namespaced(&self, prefix: &str) -> MetricsSnapshot {
        let key = |name: &Cow<'static, str>| Cow::Owned(format!("{prefix}{name}"));
        MetricsSnapshot {
            counters: self.counters.iter().map(|(n, v)| (key(n), *v)).collect(),
            gauges: self.gauges.iter().map(|(n, v)| (key(n), *v)).collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(n, h)| (key(n), h.clone()))
                .collect(),
        }
    }

    /// Renders the snapshot as JSON (hand-rolled — the workspace carries
    /// no serde): counters and gauges as flat maps, histograms as
    /// count/mean/min/p50/p99/max summaries. BTreeMap iteration keeps
    /// the output deterministic.
    pub fn to_json(&self) -> String {
        fn escape(s: &str) -> String {
            crate::export::json_escape(s)
        }
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            out.push_str(if i > 0 { ",\n    " } else { "\n    " });
            out.push_str(&format!("\"{}\": {v}", escape(name)));
        }
        out.push_str(if self.counters.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            out.push_str(if i > 0 { ",\n    " } else { "\n    " });
            out.push_str(&format!("\"{}\": {v}", escape(name)));
        }
        out.push_str(if self.gauges.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            out.push_str(if i > 0 { ",\n    " } else { "\n    " });
            out.push_str(&format!(
                "\"{}\": {{\"count\": {}, \"mean\": {:.3}, \"min\": {}, \
                 \"p50\": {}, \"p99\": {}, \"max\": {}}}",
                escape(name),
                h.count(),
                h.mean(),
                h.min(),
                h.quantile(0.50),
                h.quantile(0.99),
                h.max()
            ));
        }
        out.push_str(if self.histograms.is_empty() {
            "}\n"
        } else {
            "\n  }\n"
        });
        out.push_str("}\n");
        out
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
            .map(|k| k.len())
            .max()
            .unwrap_or(0);
        if !self.counters.is_empty() {
            writeln!(f, "counters:")?;
            for (name, v) in &self.counters {
                writeln!(f, "  {name:<width$}  {v}")?;
            }
        }
        if !self.gauges.is_empty() {
            writeln!(f, "gauges:")?;
            for (name, v) in &self.gauges {
                writeln!(f, "  {name:<width$}  {v}")?;
            }
        }
        if !self.histograms.is_empty() {
            writeln!(f, "histograms:")?;
            for (name, h) in &self.histograms {
                writeln!(
                    f,
                    "  {name:<width$}  n={} min={} mean={:.1} p50≈{} p99≈{} max={}",
                    h.count(),
                    h.min(),
                    h.mean(),
                    h.quantile(0.50),
                    h.quantile(0.99),
                    h.max(),
                )?;
            }
        }
        Ok(())
    }
}

/// A cheap, cloneable handle to a (possibly absent) metrics registry.
///
/// `Metrics::default()` is disabled; every recording call on a disabled
/// handle is a no-op after one branch.
#[derive(Clone, Default)]
pub struct Metrics(Option<Arc<Mutex<Registry>>>);

impl fmt::Debug for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Metrics({})",
            if self.0.is_some() {
                "enabled"
            } else {
                "disabled"
            }
        )
    }
}

impl Metrics {
    /// A handle backed by a fresh registry. Clones share the registry.
    pub fn enabled() -> Metrics {
        Metrics(Some(Arc::new(Mutex::new(Registry::default()))))
    }

    /// An inert handle — every call is a no-op.
    pub fn disabled() -> Metrics {
        Metrics(None)
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Increments counter `name` by 1.
    pub fn inc(&self, name: &'static str) {
        self.add(name, 1);
    }

    /// Increments counter `name` by `n`.
    pub fn add(&self, name: &'static str, n: u64) {
        if let Some(r) = &self.0 {
            *r.lock().unwrap().counters.entry(name).or_insert(0) += n;
        }
    }

    /// Sets gauge `name` to `value`.
    pub fn gauge_set(&self, name: &'static str, value: i64) {
        if let Some(r) = &self.0 {
            r.lock().unwrap().gauges.insert(name, value);
        }
    }

    /// Records one sample into histogram `name`.
    pub fn observe(&self, name: &'static str, value: u64) {
        if let Some(r) = &self.0 {
            r.lock()
                .unwrap()
                .histograms
                .entry(name)
                .or_default()
                .observe(value);
        }
    }

    /// Copies the registry out, or `None` when disabled.
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.0.as_ref().map(|r| {
            let reg = r.lock().unwrap();
            MetricsSnapshot {
                counters: reg
                    .counters
                    .iter()
                    .map(|(&n, &v)| (Cow::Borrowed(n), v))
                    .collect(),
                gauges: reg
                    .gauges
                    .iter()
                    .map(|(&n, &v)| (Cow::Borrowed(n), v))
                    .collect(),
                histograms: reg
                    .histograms
                    .iter()
                    .map(|(&n, h)| (Cow::Borrowed(n), h.clone()))
                    .collect(),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_clones() {
        let a = Metrics::enabled();
        let b = a.clone();
        a.inc("x");
        b.add("x", 4);
        assert_eq!(a.snapshot().unwrap().counter("x"), 5);
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let m = Metrics::disabled();
        m.inc("x");
        m.gauge_set("g", 9);
        m.observe("h", 100);
        assert!(m.snapshot().is_none());
        assert!(!m.is_enabled());
    }

    #[test]
    fn gauges_keep_last_value() {
        let m = Metrics::enabled();
        m.gauge_set("depth", 3);
        m.gauge_set("depth", 7);
        m.gauge_set("depth", 2);
        assert_eq!(m.snapshot().unwrap().gauge("depth"), 2);
    }

    #[test]
    fn histogram_tracks_exact_count_sum_bounds() {
        let mut h = LogHistogram::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 221.2).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles_are_bucket_resolution() {
        let mut h = LogHistogram::new();
        for _ in 0..99 {
            h.observe(10);
        }
        h.observe(5000);
        // p50 lands in the bucket holding 10: upper bound 15.
        assert_eq!(h.quantile(0.5), 15);
        // p100 is the max.
        assert_eq!(h.quantile(1.0), 5000);
        // Zero-valued samples live in bucket 0.
        let mut z = LogHistogram::new();
        z.observe(0);
        assert_eq!(z.quantile(0.5), 0);
    }

    #[test]
    fn quantile_on_empty_histogram_is_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(1.0), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn quantile_on_all_zero_samples_is_zero() {
        let mut h = LogHistogram::new();
        for _ in 0..1000 {
            h.observe(0);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.quantile(1.0), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn quantile_handles_u64_max_without_overflow() {
        let mut h = LogHistogram::new();
        h.observe(u64::MAX);
        // The top bucket's upper bound must not wrap (1 << 64).
        assert_eq!(h.quantile(0.5), u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        // Sum saturates rather than wrapping.
        h.observe(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.5), u64::MAX);
        // Out-of-range q is clamped, not UB.
        assert_eq!(h.quantile(2.0), u64::MAX);
        assert_eq!(h.quantile(-1.0), u64::MAX);
    }

    #[test]
    fn histogram_merge_equals_observing_both_streams() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut both = LogHistogram::new();
        for v in [1u64, 7, 300] {
            a.observe(v);
            both.observe(v);
        }
        for v in [0u64, 9000, 2] {
            b.observe(v);
            both.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
        // Merging an empty side is the identity, both ways.
        let empty = LogHistogram::new();
        let mut c = both.clone();
        c.merge(&empty);
        assert_eq!(c, both);
        let mut d = LogHistogram::new();
        d.merge(&both);
        assert_eq!(d, both);
    }

    #[test]
    fn snapshot_merge_adds_counters_gauges_and_histograms() {
        let a = Metrics::enabled();
        a.add("reads", 3);
        a.gauge_set("depth", 2);
        a.observe("lat", 10);
        let b = Metrics::enabled();
        b.add("reads", 4);
        b.add("writes", 1);
        b.gauge_set("depth", 5);
        b.observe("lat", 1000);
        let mut merged = a.snapshot().unwrap();
        merged.merge(&b.snapshot().unwrap());
        assert_eq!(merged.counter("reads"), 7);
        assert_eq!(merged.counter("writes"), 1);
        assert_eq!(merged.gauge("depth"), 7, "gauges merge by summation");
        let h = merged.histogram("lat").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 1000);
    }

    #[test]
    fn namespaced_snapshot_prefixes_every_key() {
        let m = Metrics::enabled();
        m.inc("reads");
        m.gauge_set("depth", 4);
        m.observe("lat", 8);
        let ns = m.snapshot().unwrap().namespaced("machine.3.");
        assert_eq!(ns.counter("machine.3.reads"), 1);
        assert_eq!(ns.counter("reads"), 0);
        assert_eq!(ns.gauge("machine.3.depth"), 4);
        assert!(ns.histogram("machine.3.lat").is_some());
        // Disjoint prefixes merge without collisions.
        let mut fleet = ns.clone();
        fleet.merge(&m.snapshot().unwrap().namespaced("machine.10."));
        assert_eq!(fleet.counter("machine.3.reads"), 1);
        assert_eq!(fleet.counter("machine.10.reads"), 1);
    }

    #[test]
    fn snapshot_to_json_is_deterministic_and_balanced() {
        let m = Metrics::enabled();
        m.inc("b.second");
        m.add("a.first", 3);
        m.gauge_set("c.gauge", -7);
        m.observe("d.hist", 8);
        m.observe("d.hist", 1000);
        let snap = m.snapshot().unwrap();
        let json = snap.to_json();
        assert_eq!(json, snap.to_json(), "deterministic");
        assert!(json.contains("\"a.first\": 3"), "{json}");
        assert!(json.contains("\"c.gauge\": -7"), "{json}");
        assert!(json.contains("\"count\": 2"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let a = json.find("a.first").unwrap();
        let b = json.find("b.second").unwrap();
        assert!(a < b, "ordered:\n{json}");
        // Empty snapshot is still valid JSON shape.
        let empty = MetricsSnapshot::default().to_json();
        assert_eq!(empty.matches('{').count(), empty.matches('}').count());
    }

    #[test]
    fn snapshot_display_is_deterministic() {
        let m = Metrics::enabled();
        m.inc("b.second");
        m.inc("a.first");
        m.gauge_set("c.gauge", -1);
        m.observe("d.hist", 8);
        let s = m.snapshot().unwrap().to_string();
        let a = s.find("a.first").unwrap();
        let b = s.find("b.second").unwrap();
        assert!(a < b, "ordered output:\n{s}");
        assert!(s.contains("c.gauge"));
        assert!(s.contains("d.hist"));
    }
}
