//! Golden-file test for the Perfetto (Chrome trace-event) exporter.
//!
//! The exporter promises byte-stable output for the same recorder
//! contents; this pins the actual bytes so accidental format drift (a
//! reordered field, a float formatting change) is caught, not just
//! structural breakage. To regenerate after an intentional format
//! change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p simkit --test golden_export
//! ```

use simkit::export::chrome_trace_json;
use simkit::sampler::Sampler;
use simkit::span::{Spans, NO_SPAN};
use simkit::{SimDuration, SimTime};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/trace.json");

/// A miniature deployment's worth of recorder state: nested redirect
/// spans, a phase span, an instant, and two sampler rows — every event
/// shape the exporter emits.
fn recorder_fixture() -> String {
    let spans = Spans::enabled(32);
    let sampler = Sampler::enabled(SimDuration::from_millis(100));

    let dep = spans.begin(SimTime::ZERO, "phase", "phase.deployment", NO_SPAN, || {
        "copy-on-read + background copy".into()
    });
    let redirect = spans.begin(
        SimTime::from_micros(150),
        "machine",
        "io.redirect",
        NO_SPAN,
        || "lba 2048 x8".into(),
    );
    let fetch = spans.begin(
        SimTime::from_micros(150),
        "machine",
        "redirect.fetch",
        redirect,
        String::new,
    );
    spans.record(
        SimTime::from_micros(160),
        SimTime::from_micros(420),
        "aoe",
        "aoe.rtt",
        fetch,
        || "tag 7".into(),
    );
    spans.end(SimTime::from_micros(500), fetch);
    spans.instant(
        SimTime::from_micros(505),
        "aoe",
        "aoe.retransmit",
        NO_SPAN,
        || "tag 9 \"quoted\"".into(),
    );
    spans.end(SimTime::from_micros(700), redirect);
    spans.end(SimTime::from_secs(2), dep);

    sampler.record_row(
        SimTime::ZERO,
        vec![("bitmap.fill_pct", 0.0), ("bg.fifo_depth", 0.0)],
    );
    sampler.record_row(
        SimTime::from_millis(100),
        vec![("bitmap.fill_pct", 12.3456789), ("bg.fifo_depth", 3.0)],
    );

    chrome_trace_json(&spans.finished(), &sampler.rows())
}

#[test]
fn perfetto_export_matches_golden_file() {
    let got = recorder_fixture();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN)
        .expect("golden file exists (regenerate with UPDATE_GOLDEN=1)");
    assert_eq!(
        got, want,
        "exporter output drifted from the golden file; if intentional, \
         regenerate with UPDATE_GOLDEN=1"
    );
}
