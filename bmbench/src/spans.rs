//! Benchmark-side spans: host-time intervals around each call into a
//! layer, kept in memory and written out once when the benchmark ends.
//! Only the traced pass records; the timed passes use a disabled log,
//! whose calls do nothing.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran, e.g. `fleet.run_to_all_booted`.
    pub name: String,
    /// Host nanoseconds since the log was created.
    pub start_ns: u64,
    /// Host nanoseconds since the log was created (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The pass this span belongs to; spans of one pass share it.
    pub run: u32,
}

/// An append-only span log.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    epoch: Instant,
    run: u32,
    spans: Vec<Span>,
}

/// Handle of an open span (`None` when the log is disabled).
pub type SpanId = Option<usize>;

impl SpanLog {
    /// A log that records.
    pub fn enabled() -> SpanLog {
        SpanLog {
            enabled: true,
            epoch: Instant::now(),
            run: 0,
            spans: Vec::new(),
        }
    }

    /// A log whose calls do nothing.
    pub fn disabled() -> SpanLog {
        SpanLog {
            enabled: false,
            ..SpanLog::enabled()
        }
    }

    /// Starts the next pass: later spans carry a new run id.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    /// Opens a span under `parent`.
    pub fn begin(&mut self, name: &str, parent: SpanId) -> SpanId {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            run: self.run,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes `id`.
    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `i`: its duration minus the part its direct
    /// children cover.
    pub fn self_ns(&self, i: usize) -> u64 {
        let s = &self.spans[i];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(i))
            .map(|c| c.end_ns.saturating_sub(c.start_ns))
            .sum();
        s.end_ns.saturating_sub(s.start_ns).saturating_sub(children)
    }

    /// The log as JSON lines, one span per line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"self_ns\": {}, \"parent\": {parent}, \"run\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_ns(i),
                s.run
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::disabled();
        let id = log.begin("x", None);
        log.end(id);
        assert!(id.is_none() && log.spans().is_empty());
    }

    #[test]
    fn self_time_excludes_children() {
        let mut log = SpanLog::enabled();
        let outer = log.begin("outer", None);
        log.time("inner", outer, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        log.end(outer);
        let total = log.spans()[0].end_ns - log.spans()[0].start_ns;
        assert!(log.self_ns(0) < total);
        assert!(log.to_json_lines().contains("\"parent\": 0"));
    }
}
