//! Flight-recorder exporters: Chrome trace-event JSON (Perfetto) and
//! the structured deployment report.
//!
//! Pure functions over [`Span`]s, [`SampleRow`]s, and per-kind
//! [`LogHistogram`]s — no handles, no machine types — so the same
//! exporters serve the bench harness, tests, and ad-hoc tooling. All
//! JSON is hand-rolled (the workspace deliberately carries no serde)
//! with deterministic formatting: the same recorder contents always
//! produce byte-identical output.
//!
//! The trace format is the Chrome trace-event JSON Array/Object format
//! that <https://ui.perfetto.dev> loads directly: spans become `X`
//! (complete) events on one named track per subsystem, timeline samples
//! become `C` (counter) tracks.
//!
//! # Examples
//!
//! ```
//! use simkit::export::chrome_trace_json;
//! use simkit::span::{Spans, NO_SPAN};
//! use simkit::SimTime;
//!
//! let s = Spans::enabled(8);
//! let id = s.begin(SimTime::ZERO, "phase", "deployment", NO_SPAN, String::new);
//! s.end(SimTime::from_secs(2), id);
//! let json = chrome_trace_json(&s.finished(), &[]);
//! assert!(json.contains("\"ph\": \"X\""));
//! assert!(json.contains("\"name\": \"deployment\""));
//! ```

use crate::metrics::LogHistogram;
use crate::sampler::SampleRow;
use crate::slo::Alert;
use crate::span::{Span, NO_SPAN};
use crate::time::SimTime;
use std::fmt::Write as _;

/// Escapes `s` for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats a sim-instant as trace-event microseconds (`ts` field):
/// fixed three decimals, so output is deterministic.
fn ts_micros(t: SimTime) -> String {
    let ns = t.as_nanos();
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Deterministic rendering of a sample value.
fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// Renders spans and timeline samples as Chrome trace-event JSON: the
/// one-process case of [`chrome_trace_json_multi`], without a
/// `process_name` event.
///
/// Each distinct span `track` becomes one named thread (`M`
/// thread_name metadata + a stable `tid` by first appearance); each
/// sample series becomes one counter track. Span ids and parent links
/// ride in `args` so the hierarchy survives into Perfetto's detail
/// pane.
pub fn chrome_trace_json(spans: &[Span], samples: &[SampleRow]) -> String {
    let mut events = Vec::new();
    push_process_events(&mut events, 1, None, spans, samples);
    trace_document(&events)
}

/// Renders several recorders as one Chrome trace with one *process*
/// per entry — the multi-machine (fleet) form of
/// [`chrome_trace_json`]. Each `(name, spans, samples)` tuple becomes
/// pid `i + 1` with a `process_name` metadata event, its span tracks
/// numbered per-process, and its counter tracks scoped to its pid, so
/// Perfetto shows `machine0`, `machine1`, ... side by side.
pub fn chrome_trace_json_multi(processes: &[(&str, &[Span], &[SampleRow])]) -> String {
    let mut events = Vec::new();
    for (i, (name, spans, samples)) in processes.iter().enumerate() {
        push_process_events(&mut events, i + 1, Some(name), spans, samples);
    }
    trace_document(&events)
}

/// Appends one process's trace events as `pid`: its `process_name`
/// (when named), one `thread_name` per span track, one `X` event per
/// span and one `C` event per sample value.
fn push_process_events(
    events: &mut Vec<String>,
    pid: usize,
    name: Option<&str>,
    spans: &[Span],
    samples: &[SampleRow],
) {
    if let Some(name) = name {
        events.push(format!(
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {}, \
             \"args\": {{\"name\": \"{}\"}}}}",
            pid,
            json_escape(name)
        ));
    }
    let mut tracks: Vec<&'static str> = Vec::new();
    for s in spans {
        if !tracks.contains(&s.track) {
            tracks.push(s.track);
        }
    }
    let tid_of = |track: &str| tracks.iter().position(|t| *t == track).unwrap() + 1;
    for (j, track) in tracks.iter().enumerate() {
        events.push(format!(
            "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {}, \"tid\": {}, \
             \"args\": {{\"name\": \"{}\"}}}}",
            pid,
            j + 1,
            json_escape(track)
        ));
    }
    for s in spans {
        let dur_ns = s.duration().as_nanos();
        let mut args = format!("\"id\": {}", s.id.0);
        if s.parent != NO_SPAN {
            let _ = write!(args, ", \"parent\": {}", s.parent.0);
        }
        if !s.detail.is_empty() {
            let _ = write!(args, ", \"detail\": \"{}\"", json_escape(&s.detail));
        }
        events.push(format!(
            "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {}, \
             \"dur\": {}.{:03}, \"pid\": {}, \"tid\": {}, \"args\": {{{}}}}}",
            json_escape(s.kind),
            json_escape(s.track),
            ts_micros(s.start),
            dur_ns / 1_000,
            dur_ns % 1_000,
            pid,
            tid_of(s.track),
            args
        ));
    }
    for row in samples {
        for (name, value) in &row.values {
            events.push(format!(
                "{{\"name\": \"{}\", \"ph\": \"C\", \"ts\": {}, \"pid\": {}, \
                 \"args\": {{\"value\": {}}}}}",
                json_escape(name),
                ts_micros(row.at),
                pid,
                fmt_value(*value)
            ));
        }
    }
}

/// Wraps trace events in the trace-event JSON object, one per line.
fn trace_document(events: &[String]) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    for (i, ev) in events.iter().enumerate() {
        out.push_str("  ");
        out.push_str(ev);
        out.push_str(if i + 1 < events.len() { ",\n" } else { "\n" });
    }
    out.push_str("], \"displayTimeUnit\": \"ms\"}\n");
    out
}

/// Renders the timeline alone as a line-oriented JSON document
/// (`{"rows": [{"t_s": ..., "series": {...}}, ...]}`) — the
/// `timeline.json` artifact of `reproduce --trace-out`.
pub fn timeline_json(samples: &[SampleRow]) -> String {
    let mut out = String::from("{\"rows\": [\n");
    for (i, row) in samples.iter().enumerate() {
        let mut series = String::new();
        for (j, (name, value)) in row.values.iter().enumerate() {
            let _ = write!(
                series,
                "{}\"{}\": {}",
                if j > 0 { ", " } else { "" },
                json_escape(name),
                fmt_value(*value)
            );
        }
        let ns = row.at.as_nanos();
        let _ = writeln!(
            out,
            "  {{\"t_s\": {}.{:09}, \"series\": {{{}}}}}{}",
            ns / 1_000_000_000,
            ns % 1_000_000_000,
            series,
            if i + 1 < samples.len() { "," } else { "" }
        );
    }
    out.push_str("]}\n");
    out
}

/// Renders the SLO alert timeline as a line-oriented JSON document
/// (`{"alerts": [{"t_s": ..., "rule": ..., "edge": ..., "detail": ...},
/// ...]}`) — the `alerts.json` artifact of a fleet's `reproduce
/// --trace-out` bundle. Edge events appear in firing order;
/// deterministic.
pub fn alerts_json(alerts: &[Alert]) -> String {
    let mut out = String::from("{\"alerts\": [\n");
    for (i, a) in alerts.iter().enumerate() {
        let ns = a.at.as_nanos();
        let _ = writeln!(
            out,
            "  {{\"t_s\": {}.{:09}, \"rule\": \"{}\", \"edge\": \"{}\", \"detail\": \"{}\"}}{}",
            ns / 1_000_000_000,
            ns % 1_000_000_000,
            json_escape(a.rule.name()),
            if a.raised { "raise" } else { "clear" },
            json_escape(&a.detail),
            if i + 1 < alerts.len() { "," } else { "" }
        );
    }
    out.push_str("]}\n");
    out
}

/// Renders the SLO alert timeline as aligned human-readable text.
pub fn alerts_text(alerts: &[Alert]) -> String {
    let mut out = String::from("fleet alerts\n============\n\n");
    if alerts.is_empty() {
        out.push_str("  (none fired)\n");
        return out;
    }
    let width = alerts
        .iter()
        .map(|a| a.rule.name().len())
        .max()
        .unwrap_or(0);
    for a in alerts {
        let _ = writeln!(
            out,
            "  [{:>12}] {:<width$}  {:<5}  {}",
            format!("{}", a.at),
            a.rule.name(),
            if a.raised { "RAISE" } else { "clear" },
            a.detail,
        );
    }
    out
}

/// Per-phase rows for the deployment report: every span on the
/// `"phase"` track, in start order, as `(kind, start, end)`.
fn phase_rows(spans: &[Span]) -> Vec<(&'static str, SimTime, SimTime)> {
    let mut rows: Vec<_> = spans
        .iter()
        .filter(|s| s.track == "phase")
        .map(|s| (s.kind, s.start, s.end))
        .collect();
    rows.sort_by_key(|r| (r.1, r.2));
    rows
}

/// Renders the structured deployment report as JSON: per-phase timings
/// plus per-span-kind duration summaries (count/mean/p50/p99/max, µs).
pub fn report_json(spans: &[Span], kinds: &[(&'static str, LogHistogram)]) -> String {
    let mut out = String::from("{\n  \"phases\": [\n");
    let phases = phase_rows(spans);
    for (i, (kind, start, end)) in phases.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"phase\": \"{}\", \"start_s\": {:.9}, \"end_s\": {:.9}, \
             \"duration_s\": {:.9}}}{}",
            json_escape(kind),
            start.as_secs_f64(),
            end.as_secs_f64(),
            end.saturating_duration_since(*start).as_secs_f64(),
            if i + 1 < phases.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"span_kinds\": [\n");
    for (i, (kind, h)) in kinds.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"kind\": \"{}\", \"count\": {}, \"mean_us\": {:.3}, \
             \"p50_us\": {}, \"p99_us\": {}, \"max_us\": {}}}{}",
            json_escape(kind),
            h.count(),
            h.mean(),
            h.quantile(0.50),
            h.quantile(0.99),
            h.max(),
            if i + 1 < kinds.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders the deployment report as aligned human-readable text.
pub fn report_text(spans: &[Span], kinds: &[(&'static str, LogHistogram)]) -> String {
    let mut out = String::from("deployment report\n=================\n\nphases:\n");
    let phases = phase_rows(spans);
    let width = phases
        .iter()
        .map(|(k, _, _)| k.len())
        .chain(kinds.iter().map(|(k, _)| k.len()))
        .max()
        .unwrap_or(0);
    for (kind, start, end) in &phases {
        let _ = writeln!(
            out,
            "  {kind:<width$}  start {:>12}  duration {:>12}",
            format!("{start}"),
            format!("{}", end.saturating_duration_since(*start)),
        );
    }
    if phases.is_empty() {
        out.push_str("  (none recorded)\n");
    }
    out.push_str("\nspan kinds (durations in us):\n");
    for (kind, h) in kinds {
        let _ = writeln!(
            out,
            "  {kind:<width$}  n={:<8} mean={:<12.1} p50≈{:<10} p99≈{:<10} max={}",
            h.count(),
            h.mean(),
            h.quantile(0.50),
            h.quantile(0.99),
            h.max(),
        );
    }
    if kinds.is_empty() {
        out.push_str("  (none recorded)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Spans;
    use crate::time::SimDuration;

    fn sample_spans() -> Vec<Span> {
        let s = Spans::enabled(16);
        let dep = s.begin(SimTime::ZERO, "phase", "deployment", NO_SPAN, String::new);
        let io = s.begin(
            SimTime::from_micros(10),
            "machine",
            "io.redirect",
            NO_SPAN,
            || "lba 8".into(),
        );
        s.end(SimTime::from_micros(250), io);
        s.end(SimTime::from_secs(3), dep);
        let dv = s.begin(
            SimTime::from_secs(3),
            "phase",
            "devirt",
            NO_SPAN,
            String::new,
        );
        s.end(SimTime::from_secs(4), dv);
        s.finished()
    }

    #[test]
    fn trace_json_has_tracks_spans_and_counters() {
        let rows = vec![SampleRow {
            at: SimTime::from_millis(5),
            values: vec![
                ("bitmap.fill_pct".into(), 12.5),
                ("bg.fifo_depth".into(), 3.0),
            ],
        }];
        let json = chrome_trace_json(&sample_spans(), &rows);
        assert!(json.contains("\"ph\": \"M\""), "thread metadata:\n{json}");
        assert!(json.contains("\"name\": \"phase\""));
        assert!(json.contains("\"name\": \"io.redirect\""));
        assert!(json.contains("\"ph\": \"C\""));
        assert!(json.contains("\"value\": 12.5"));
        assert!(json.contains("\"detail\": \"lba 8\""));
        // Same tid for both phase spans, distinct from the machine track.
        let phase_tid = json.match_indices("\"cat\": \"phase\"").count();
        assert_eq!(phase_tid, 2);
        // Balanced structure.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces:\n{json}"
        );
        assert!(json.ends_with("\"displayTimeUnit\": \"ms\"}\n"));
    }

    #[test]
    fn trace_json_is_deterministic() {
        let spans = sample_spans();
        assert_eq!(
            chrome_trace_json(&spans, &[]),
            chrome_trace_json(&spans, &[])
        );
    }

    #[test]
    fn ts_is_fixed_point_micros() {
        assert_eq!(ts_micros(SimTime::from_nanos(1_234_567)), "1234.567");
        assert_eq!(ts_micros(SimTime::ZERO), "0.000");
    }

    #[test]
    fn timeline_json_round_numbers() {
        let rows = vec![
            SampleRow {
                at: SimTime::ZERO,
                values: vec![("bitmap.fill_pct".into(), 0.0)],
            },
            SampleRow {
                at: SimTime::from_millis(1500),
                values: vec![("bitmap.fill_pct".into(), 100.0)],
            },
        ];
        let json = timeline_json(&rows);
        assert!(json.contains("\"t_s\": 1.500000000"), "{json}");
        assert!(json.contains("\"bitmap.fill_pct\": 100.0"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn report_lists_phases_in_start_order_and_kind_summaries() {
        let spans = sample_spans();
        let mut h = LogHistogram::new();
        h.observe(240);
        let kinds = vec![("io.redirect", h)];
        let json = report_json(&spans, &kinds);
        let dep = json.find("\"deployment\"").unwrap();
        let dv = json.find("\"devirt\"").unwrap();
        assert!(dep < dv, "start order:\n{json}");
        assert!(json.contains("\"duration_s\": 3.000000000"));
        assert!(json.contains("\"count\": 1"));
        let text = report_text(&spans, &kinds);
        assert!(text.contains("deployment"), "{text}");
        assert!(text.contains("io.redirect"), "{text}");
    }

    #[test]
    fn empty_report_renders_placeholders() {
        let text = report_text(&[], &[]);
        assert!(text.contains("(none recorded)"));
        let json = report_json(&[], &[]);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn alerts_render_in_firing_order() {
        use crate::slo::SloRule;
        let alerts = vec![
            Alert {
                at: SimTime::from_millis(1500),
                rule: SloRule::RetransmitStorm,
                raised: true,
                detail: "123.000/s > 50.000/s".into(),
            },
            Alert {
                at: SimTime::from_secs(3),
                rule: SloRule::RetransmitStorm,
                raised: false,
                detail: "0.000/s > 50.000/s".into(),
            },
        ];
        let json = alerts_json(&alerts);
        assert!(json.contains("\"t_s\": 1.500000000"), "{json}");
        assert!(json.contains("\"rule\": \"retransmit-storm\""), "{json}");
        assert!(json.contains("\"edge\": \"raise\""), "{json}");
        assert!(json.contains("\"edge\": \"clear\""), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let raise = json.find("raise").unwrap();
        let clear = json.find("clear").unwrap();
        assert!(raise < clear, "firing order:\n{json}");

        let text = alerts_text(&alerts);
        assert!(text.contains("RAISE"), "{text}");
        assert!(text.contains("retransmit-storm"), "{text}");
        assert!(alerts_text(&[]).contains("(none fired)"));
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn span_duration_sum_matches_phase_total() {
        // The acceptance property in miniature: phase spans tile the run.
        let spans = sample_spans();
        let total: SimDuration = spans
            .iter()
            .filter(|s| s.track == "phase")
            .map(|s| s.duration())
            .sum();
        assert_eq!(total, SimDuration::from_secs(4));
    }
}
