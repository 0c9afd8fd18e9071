//! Acceptance tests for the deployment flight recorder: phase spans tile
//! the run, the per-I/O hierarchy is internally consistent, the sampled
//! timeline is deterministic — including under chaos faults — and the
//! `--metrics` report renders from the recording.

use bmcast_bench::flight::{record, FlightRun};
use bmcast_bench::Scale;
use simkit::export::timeline_json;
use simkit::{SimDuration, Span};

fn quick_run() -> FlightRun {
    record(Scale::Quick, None)
}

/// Sum of the durations of `kind` spans among `spans`.
fn kind_total(spans: &[Span], kind: &str) -> SimDuration {
    spans
        .iter()
        .filter(|s| s.kind == kind)
        .map(|s| s.duration())
        .sum()
}

#[test]
fn phase_spans_tile_the_deployment() {
    let run = quick_run();
    let phases: Vec<&Span> = run.spans.iter().filter(|s| s.track == "phase").collect();
    assert_eq!(phases.len(), 3, "init + deployment + devirt");
    let total: SimDuration = phases.iter().map(|s| s.duration()).sum();
    let bare_metal = run.bare_metal_at.duration_since(simkit::SimTime::ZERO);
    assert_eq!(
        total, bare_metal,
        "phase spans must sum exactly to the reported deployment time"
    );
    // Contiguity: each phase starts where the previous ended.
    let mut sorted = phases.clone();
    sorted.sort_by_key(|s| s.start);
    for w in sorted.windows(2) {
        assert_eq!(w[0].end, w[1].start, "{} -> {}", w[0].kind, w[1].kind);
    }
}

#[test]
fn redirect_children_sum_to_parent() {
    let run = quick_run();
    let parents: Vec<&Span> = run
        .spans
        .iter()
        .filter(|s| s.kind == "io.redirect")
        .collect();
    assert!(!parents.is_empty(), "guest read-ahead forces redirects");
    for p in parents {
        let children: Vec<&Span> = run.spans.iter().filter(|s| s.parent == p.id).collect();
        assert_eq!(
            children.len(),
            3,
            "redirect {} has fetch + finalize + restart",
            p.id.0
        );
        let child_ns: u128 = children
            .iter()
            .map(|c| c.duration().as_nanos() as u128)
            .sum();
        let parent_ns = p.duration().as_nanos() as u128;
        assert!(parent_ns > 0, "redirect span has extent");
        let diff = parent_ns.abs_diff(child_ns);
        assert!(
            diff * 100 <= parent_ns,
            "children ({child_ns} ns) must sum within 1% of parent ({parent_ns} ns)"
        );
    }
}

#[test]
fn aoe_rtt_nests_under_background_fetch() {
    let run = quick_run();
    let fetch_ids: Vec<_> = run
        .spans
        .iter()
        .filter(|s| s.kind == "bg.fetch")
        .map(|s| s.id)
        .collect();
    assert!(!fetch_ids.is_empty());
    let nested = run
        .spans
        .iter()
        .filter(|s| s.kind == "aoe.rtt" && fetch_ids.contains(&s.parent))
        .count();
    assert!(nested > 0, "AoE round-trips nest under bg.fetch spans");
}

#[test]
fn per_kind_histograms_match_span_population() {
    let run = quick_run();
    // No ring eviction at default capacity, so every kind histogram's
    // count equals the number of finished spans of that kind, and its
    // total roughly matches the summed durations (bucketized).
    for (kind, h) in &run.kinds {
        let n = run.spans.iter().filter(|s| s.kind == *kind).count() as u64;
        assert_eq!(h.count(), n, "{kind}");
        let total_us = kind_total(&run.spans, kind).as_micros();
        assert!(
            h.max() <= total_us.max(1),
            "{kind}: max {} vs total {}",
            h.max(),
            total_us
        );
    }
}

#[test]
fn timeline_replays_byte_identically() {
    let a = quick_run();
    let b = quick_run();
    assert_eq!(
        timeline_json(&a.samples),
        timeline_json(&b.samples),
        "same-seed timelines must be byte-identical"
    );
    // And the whole span population agrees too.
    assert_eq!(a.spans.len(), b.spans.len());
    assert_eq!(a.bare_metal_at, b.bare_metal_at);
}

#[test]
fn timeline_replays_byte_identically_under_chaos() {
    let a = record(Scale::Quick, Some("chaos"));
    let b = record(Scale::Quick, Some("chaos"));
    assert_eq!(
        timeline_json(&a.samples),
        timeline_json(&b.samples),
        "chaos-fault timelines must replay byte-identically"
    );
    assert_eq!(a.bare_metal_at, b.bare_metal_at);
}

#[test]
fn sampled_fill_is_monotone_and_ends_full() {
    let run = quick_run();
    let fills: Vec<f64> = run
        .samples
        .iter()
        .filter_map(|r| r.value("bitmap.fill_pct"))
        .collect();
    assert!(fills.len() >= 2, "sampler ticked");
    for w in fills.windows(2) {
        assert!(w[1] >= w[0], "bitmap fill must be monotone: {fills:?}");
    }
    assert_eq!(*fills.last().unwrap(), 100.0, "timeline ends at 100%");
}

#[test]
fn quick_report_carries_signal() {
    let s = quick_run().report(Scale::Quick);
    assert!(
        s.contains("== deployment telemetry (Quick scale) =="),
        "{s}"
    );
    assert!(s.contains("phase timings"), "{s}");
    assert!(s.contains("deployment"), "{s}");
    assert!(s.contains("machine.redirected_ios"), "{s}");
    assert!(s.contains("bg.fills"), "{s}");
    // It closes with the last 16 finished spans, the phase span that
    // ends at bare metal among them; none were evicted.
    assert!(s.contains(" 0 dropped; last 16:"), "{s}");
    assert!(s.contains("phase/phase.devirtualization"), "{s}");
}
