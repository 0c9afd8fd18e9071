//! bmbench: the BMcast reproduction's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path bmbench/Cargo.toml -- \
//!     --workload <deploy-io|boot-storm|upgrade-wave> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats the workload for `--seconds` with telemetry off
//! and reports the end-to-end metrics; `--trace 1` runs one untraced
//! and one traced pass plus the per-layer host-time loops and reports
//! the per-layer metrics. Human-readable lines come first; the last
//! line of standard output is one JSON object. See `bmbench/README.md`.

mod layers;
mod spans;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use simkit::SimTime;
use spans::SpanLog;
use stats::{derive, median, proc_status_mb};
use workloads::{boot_storm_prefix, Mode, Pass, Workload};

const USAGE: &str = "usage: bmbench --workload <deploy-io|boot-storm|upgrade-wave> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// Set-up-only rounds before each timed pass; `setup_s` is their median.
const SETUP_ROUNDS_PER_PASS: usize = 5;

/// Passes every timed run makes, however short `--seconds`. The
/// simulated metrics are medians over exactly these, so they depend on
/// the seed alone, never on how many passes the host fits in.
const SIM_PASSES: usize = 3;

/// Salt of the per-pass seeds of a timed run.
const PASS_SALT: u64 = 8;

/// The boot storm's engine comparison runs this much simulated time on
/// both engines (the full 2-worker run costs four times the sequential
/// one).
const BOOT_STORM_PREFIX_S: u64 = 4;

/// The n = 64 plain-AoE point of the committed `BENCH_transport.json`:
/// the boot storm at seed 0 must reproduce it.
const REFERENCE_REQUESTS: f64 = 8493.0;
const REFERENCE_P99: &str = "22.079051";

/// The paper's Figure 10 deploy-phase read drop, percent.
const PAPER_DEPLOY_READ_DROP_PCT: f64 = 4.1;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// What the run reports.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

fn mode(spans: &mut SpanLog, threads: usize, traced: bool, setup_only: bool) -> Mode<'_> {
    Mode {
        threads,
        traced,
        spans,
        setup_only,
    }
}

fn print_pass(label: &str, p: &Pass) {
    println!(
        "{label}: setup {:.6} s, wall {:.6} s, {} events, {}/{} failed, sim digest {:016x}",
        p.setup_s,
        p.wall_s,
        p.events,
        p.failures.len(),
        p.attempted,
        p.digest
    );
}

/// Checks every pass against the first; returns whether all agree.
fn same_results(passes: &[&Pass]) -> bool {
    let first = passes[0];
    let mut ok = true;
    for p in &passes[1..] {
        if p.digest != first.digest {
            println!(
                "DRIFT: simulated results differ between passes ({:016x} vs {:016x})",
                first.digest, p.digest
            );
            ok = false;
        }
    }
    ok
}

/// At seed 0 the boot storm must reproduce the committed transport
/// race's n = 64 plain-AoE point.
fn reference_holds(w: Workload, seed: u64, p: &Pass) -> bool {
    if w != Workload::BootStorm || seed != 0 {
        return true;
    }
    let named = |k: &str| {
        p.sim
            .named
            .iter()
            .find(|n| n.0 == k)
            .map_or(f64::NAN, |n| n.1)
    };
    let ok = named("origin_requests") == REFERENCE_REQUESTS
        && format!("{:.6}", named("boot_p99_s")) == REFERENCE_P99;
    println!(
        "reference (BENCH_transport.json aoe n=64): requests {} p99 {:.6} -> {}",
        named("origin_requests"),
        named("boot_p99_s"),
        if ok { "match" } else { "MISMATCH" }
    );
    ok
}

fn print_sim(w: Workload, seed: u64, p: &Pass) {
    let s = &p.sim;
    for (name, value, unit) in &s.named {
        println!("{}: {name} = {value} {unit}", w.name());
    }
    println!("{}: operation tail is {}", w.name(), s.tail_label);
    if w == Workload::DeployIo {
        let bare = workloads::baremetal_read_mbps(seed);
        let read = s
            .named
            .iter()
            .find(|n| n.0 == "guest_read_mbps")
            .map_or(0.0, |n| n.1);
        let drop = (1.0 - read / bare) * 100.0;
        println!(
            "deploy-io: bare-metal read {bare:.3} MB/s; deploy read drop {drop:.2}% \
             (paper Fig 10: {PAPER_DEPLOY_READ_DROP_PCT}%, simulator error {:+.2} points)",
            drop - PAPER_DEPLOY_READ_DROP_PCT
        );
    }
    for f in &p.failures {
        println!("FAILED: {f}");
    }
    println!(
        "{}: failed_share = {}/{} = {:.6}",
        w.name(),
        p.failures.len(),
        p.attempted,
        p.failures.len() as f64 / p.attempted.max(1) as f64
    );
}

/// `--trace 0`: passes for `seconds` (at least [`SIM_PASSES`]) with
/// telemetry off, each after a few set-up-only rounds. Pass 0 runs the
/// seed itself and pass k a seed derived from it, so a run's medians
/// span several input draws: the boot storm's congestion turns any
/// change in its jitter streams into a ±10% spread of boot times and
/// host work across single draws.
fn timed_run(args: &Args) -> Report {
    let w = args.workload;
    let mut quiet = SpanLog::disabled();
    let setup_round = |quiet: &mut SpanLog| {
        w.pass(args.seed, mode(quiet, w.threads(), false, true))
            .setup_s
    };
    let mut setups = Vec::new();
    let started = Instant::now();
    let mut passes = Vec::new();
    loop {
        // Set-up rounds are spread over the run, so their median
        // samples the host across it rather than in one instant.
        for _ in 0..SETUP_ROUNDS_PER_PASS {
            setups.push(setup_round(&mut quiet));
        }
        let seed = derive(args.seed, passes.len() as u64, PASS_SALT);
        let p = w.pass(seed, mode(&mut quiet, w.threads(), false, false));
        print_pass(&format!("pass {} (seed {seed})", passes.len() + 1), &p);
        passes.push(p);
        if passes.len() >= SIM_PASSES && started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    println!(
        "set-up samples (ms): {}",
        setups
            .iter()
            .map(|s| format!("{:.3}", s * 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let first = &passes[0];
    print_sim(w, args.seed, first);
    let over =
        |passes: &[Pass], f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let sim = &passes[..SIM_PASSES];
    Report {
        correct: reference_holds(w, args.seed, first),
        attempted: passes.iter().map(|p| p.attempted).sum(),
        failed: passes.iter().map(|p| p.failures.len() as u64).sum(),
        metrics: vec![
            ("setup_s", median(&setups), "s"),
            ("wall_s", over(&passes, |p| p.wall_s), "s"),
            ("peak_rss_mb", proc_status_mb("VmHWM"), "MB"),
            ("sim_mean_s", over(sim, |p| p.sim.mean_s), "s"),
            ("sim_tail_s", over(sim, |p| p.sim.tail_s), "s"),
            ("sim_makespan_s", over(sim, |p| p.sim.makespan_s), "s"),
        ],
    }
}

/// The per-layer metrics and their units, in report order.
const PER_LAYER: [(&str, &str); 49] = [
    ("simkit.events", "count"),
    ("simkit.ns_per_event", "ns"),
    ("simkit.dispatch_ns", "ns"),
    ("fleet.run_s", "s"),
    ("fleet.wave_s", "s"),
    ("fleet.host_s_per_sim_s", "s/s"),
    ("fleet.parallel_slowdown", "ratio"),
    ("aoe.server.requests", "count"),
    ("aoe.server.sectors_read", "count"),
    ("aoe.server.sectors_written", "count"),
    ("aoe.server.cache_hit_ratio", "ratio"),
    ("aoe.server.queue_drops", "count"),
    ("aoe.server.queue_dedups", "count"),
    ("aoe.server.busy_replies", "count"),
    ("aoe.server.useful_ratio", "ratio"),
    ("aoe.server.handle_hit_ns", "ns"),
    ("aoe.server.handle_miss_ns", "ns"),
    ("aoe.client.reads", "count"),
    ("aoe.client.writes", "count"),
    ("aoe.client.retransmits", "count"),
    ("aoe.client.failures", "count"),
    ("aoe.client.busy_hints", "count"),
    ("aoe.client.useful_ratio", "ratio"),
    ("aoe.rtt_p50_us", "us"),
    ("aoe.rtt_tail_us", "us"),
    ("aoe.wire.encode_ns", "ns"),
    ("aoe.wire.decode_ns", "ns"),
    ("bitmap.try_claim_ns", "ns"),
    ("bitmap.next_empty_ns", "ns"),
    ("bitmap.empty_subranges_ns", "ns"),
    ("bg.fetches", "count"),
    ("bg.fetch_backoffs", "count"),
    ("bg.blocks_discarded", "count"),
    ("bg.useful_ratio", "ratio"),
    ("mediator.interpreted_commands", "count"),
    ("mediator.redirects", "count"),
    ("mediator.multiplexes", "count"),
    ("mediator.queued_accesses", "count"),
    ("machine.redirect_share", "ratio"),
    ("guest.io_latency_p50_us", "us"),
    ("guest.io_latency_tail_us", "us"),
    ("deploy.deployment_s", "s"),
    ("deploy.devirtualization_s", "s"),
    ("snap.sends", "count"),
    ("snap.bytes_sent", "bytes"),
    ("snap.send_failures", "count"),
    ("snap.send_backoffs", "count"),
    ("obs.overhead_ratio", "ratio"),
    ("obs.rss_overhead_mb", "MB"),
];

/// `--trace 1`: one untraced pass, one traced pass with spans, the
/// engine comparison and the host-time loops.
fn traced_run(args: &Args) -> Report {
    let w = args.workload;
    let seed = args.seed;
    let mut quiet = SpanLog::disabled();
    let mut spans = SpanLog::enabled();

    let plain = w.pass(seed, mode(&mut quiet, w.threads(), false, false));
    print_pass("untraced pass", &plain);
    spans.next_run();
    let traced = w.pass(seed, mode(&mut spans, w.threads(), true, false));
    print_pass("traced pass", &traced);
    let mut same = same_results(&[&plain, &traced]);

    let mut layers = traced.layers.clone();
    layers.insert("simkit.events", plain.events as f64);
    layers.insert(
        "simkit.ns_per_event",
        plain.wall_s * 1e9 / plain.events.max(1) as f64,
    );
    layers.insert("obs.overhead_ratio", traced.wall_s / plain.wall_s);
    layers.insert("obs.rss_overhead_mb", traced.rss_mb - plain.rss_mb);

    spans.next_run();
    let engines = spans.begin("engine_comparison", None);
    let slowdown = match w {
        Workload::DeployIo => 0.0,
        Workload::BootStorm => {
            let until = SimTime::from_secs(BOOT_STORM_PREFIX_S);
            let (seq, seq_events) = boot_storm_prefix(seed, 1, until);
            let (par, par_events) = boot_storm_prefix(seed, 2, until);
            println!(
                "engines: first {BOOT_STORM_PREFIX_S} sim-s, 1 worker {seq:.6} s, \
                 2 workers {par:.6} s, events {seq_events} / {par_events}"
            );
            if seq_events != par_events {
                println!("DRIFT: engines executed different event counts");
                same = false;
            }
            par / seq
        }
        Workload::UpgradeWave => {
            let seq = w.pass(seed, mode(&mut quiet, 1, false, false));
            print_pass("1-worker pass", &seq);
            same &= same_results(&[&plain, &seq]);
            plain.wall_s / seq.wall_s
        }
    };
    spans.end(engines);
    layers.insert("fleet.parallel_slowdown", slowdown);

    let loops = spans.begin("host_time_loops", None);
    layers::time_loops(&w.shape(seed), &mut layers);
    spans.end(loops);

    write_spans(args, &spans);
    print_sim(w, seed, &traced);
    let mut metrics = Vec::new();
    for (name, unit) in PER_LAYER {
        let value = layers.get(name).copied().unwrap_or(0.0);
        println!("{}: {name} = {value} {unit}", w.name());
        metrics.push((name, value, unit));
    }
    Report {
        correct: same && reference_holds(w, seed, &plain),
        attempted: plain.attempted + traced.attempted,
        failed: (plain.failures.len() + traced.failures.len()) as u64,
        metrics,
    }
}

/// Writes the span log to `bmbench/out/` (JSON lines).
fn write_spans(args: &Args, spans: &SpanLog) {
    let dir = std::path::Path::new("bmbench/out");
    let path = dir.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, spans.to_json_lines())) {
        Ok(()) => println!(
            "spans: {} written to {}",
            spans.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bmbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "bmbench {} seed {} seconds {} trace {} ({} host threads)",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut report = if args.trace {
        traced_run(&args)
    } else {
        timed_run(&args)
    };
    for (name, value, _) in &mut report.metrics {
        if !value.is_finite() {
            println!("NON-FINITE: {name}");
            *value = 0.0;
            report.correct = false;
        }
    }
    for (name, value, unit) in &report.metrics {
        println!("metric {name} = {value} {unit}");
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "boot-storm",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload, Workload::BootStorm);
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10.0, true));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "deploy-io", "--trace", "2"]).is_err());
    }

    #[test]
    fn json_line_has_the_report_keys() {
        let r = Report {
            correct: true,
            attempted: 4,
            failed: 1,
            metrics: vec![("wall_s", 1.25, "s")],
        };
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 1, \
             \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
