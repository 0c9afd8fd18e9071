//! Regenerates the BMcast paper's figures and prints paper-vs-measured
//! comparison tables.
//!
//! ```text
//! reproduce [--quick] [--metrics] [--jobs N]
//!           [--faults PLAN|all] [--scaleout] [--elasticity]
//!           [--transport aoe|batched|rdma|all]
//!           [--fleet-obs DIR] [--trace-out DIR] [--trace-ring N]
//!           [fig04 fig05 ... | all]
//! ```
//!
//! Every figure's pass/fail invariants are gate checks (see
//! [`Check::gate`]): `reproduce` prints its tables and writes its JSON
//! records and artifacts, then exits 1 naming every gate that failed.
//! Comparisons against the paper's numbers are informational. An
//! invalid command line exits 2 with the usage text before any work.
//!
//! `--scaleout` runs the fleet scale-out topology figure: one
//! [`bmcast::fleet::Fleet`] per point (n machines, one shared
//! switch/server with the block cache and DRR scheduler), points spread
//! over `--jobs` threads, and writes `BENCH_scaleout.json`. With no
//! explicit figure ids, only the scale-out figure runs.
//!
//! `--scaleout --transport <kind|all>` runs the deployment **transport
//! race** instead of the topology figure: plain AoE vs batched AoE vs
//! the RDMA backend on the single-server topology, every fleet with
//! the observability plane (flight recorder, SLO watchdogs, straggler
//! attribution) on. A single extension kind always races against the
//! plain-AoE baseline. Writes `BENCH_transport.json` (points plus the
//! per-transport two-run chaos determinism lock).
//!
//! `--elasticity` runs the reverse-lifecycle figure: rolling image
//! upgrades (re-virtualize → snapshot-back → reclaim → redeploy) and
//! scale-down/scale-up waves on measured fleets, plus per-fault-class
//! snapshot-back survivability and a two-run chaos determinism lock.
//! Writes `BENCH_elasticity.json`; with `--trace-out <dir>` the first
//! chaos wave's flight-recorder trace lands in
//! `<dir>/elasticity_trace.json`.
//!
//! `--fleet-obs <dir>` adds one fully-instrumented observability fleet
//! to each of `--scaleout` and `--elasticity`: telemetry registries,
//! flight recorder, and the SLO watchdogs all on, reduced to the
//! artifact directories `<dir>/scaleout/` and `<dir>/elasticity/`
//! (fleet snapshot, alert timeline, straggler attribution report,
//! Perfetto trace, digests — see `bmcast_bench::obs`). The scaleout
//! obs fleet is the figure's n=64 peer-to-peer point; the elasticity
//! one runs the same fleet under the chaos fault plan. Artifacts are
//! byte-identical across same-seed runs, and their consistency checks
//! are gates too.
//!
//! `--metrics` and `--trace-out <dir>` observe one flight-recorded
//! deployment (`bmcast_bench::flight`), recorded once when both are
//! given. `--metrics` prints its telemetry report (per-phase timings,
//! redirect/fill/discard/retransmit counters, FIFO depth, guest I/O
//! latency percentiles, the full snapshot and the trace tail);
//! `--trace-out` writes its artifacts into `<dir>`: `trace.json`
//! (Perfetto-loadable), `timeline.json`, `report.json`, `report.txt`,
//! `metrics.json`. With `--faults <plan>` the recorded run executes
//! under that fault plan (`all` records the chaos plan). `--trace-ring N`
//! sizes the trace-event ring (default 16384, `FlightRecorderConfig`'s;
//! evictions are reported).
//!
//! `--faults <plan>` adds the fault-injection scenario figures for the
//! named preset (`drop`, `stall`, `chaos`, ... — or `all` for the whole
//! matrix). With no explicit figure ids, *only* the fault figures run,
//! so `reproduce --quick --faults all` is the CI fault-matrix job.
//!
//! The paper figures run when named (`fig04`, ..., `all`) or with
//! `--faults`, and by default when none of `--scaleout`,
//! `--elasticity`, `--metrics` or `--trace-out` was given.
//!
//! `--quick` shrinks image sizes and run lengths (same mechanisms, same
//! shape); the default is the paper's parameters.
//!
//! Independent figures run concurrently on a bounded thread pool (each
//! figure owns its whole simulated world, so there is no shared state).
//! Output stays deterministic: tables are printed in figure order after
//! all selected figures complete, and `BENCH_reproduce.json` records the
//! per-figure wall-clock so the perf trajectory is tracked over time.

use bmcast_bench::*;
use simkit::fault::FaultPlan;
use std::path::Path;
use std::time::Instant;

type FigureFn = fn(Scale) -> Figure;

const USAGE: &str = "usage: reproduce [--quick] [--metrics] [--jobs N]
                 [--faults PLAN|all] [--scaleout] [--elasticity]
                 [--transport aoe|batched|rdma|all]
                 [--fleet-obs DIR] [--trace-out DIR] [--trace-ring N]
                 [fig04 fig05 ... | all]";

/// The flags that take no value.
const SWITCHES: [&str; 4] = ["--quick", "--metrics", "--scaleout", "--elasticity"];

/// The flags that take a value, as `--flag VALUE` or `--flag=VALUE`.
const VALUE_FLAGS: [&str; 6] = [
    "--jobs",
    "--faults",
    "--trace-out",
    "--fleet-obs",
    "--trace-ring",
    "--transport",
];

/// One completed figure: the table plus how long it took on the wall.
struct FigureRun {
    id: &'static str,
    fig: Figure,
    wall_s: f64,
}

/// Every gate that failed in this run, one line each.
#[derive(Default)]
struct FailedGates(Vec<String>);

impl FailedGates {
    /// Records the failed gates among `checks`, from `source`.
    fn collect<'a>(&mut self, source: &str, checks: impl IntoIterator<Item = &'a Check>) {
        for c in checks.into_iter().filter(|c| c.failed()) {
            self.0.push(format!(
                "{source}: {} (measured {}, required {})",
                c.metric, c.measured, c.paper
            ));
        }
    }

    /// Names every failed gate and exits 1; returns if all held.
    fn exit_if_any(self) {
        if self.0.is_empty() {
            return;
        }
        for line in &self.0 {
            eprintln!("[reproduce] FAILED GATE {line}");
        }
        eprintln!("[reproduce] {} gate(s) failed", self.0.len());
        std::process::exit(1);
    }
}

/// Writes one record or artifact (creating its directory), or exits 1.
fn write_file(path: &Path, body: &str) {
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, body));
    match written {
        Ok(()) => eprintln!("[reproduce] wrote {}", path.display()),
        Err(e) => {
            eprintln!("[reproduce] failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// Runs one extension figure (`run` returns the figure, its JSON record
/// and its bench data), prints it, writes `BENCH_<name>.json`, and
/// collects its failed gates. Returns the bench data.
fn extension<B>(
    name: &str,
    what: &str,
    scale: Scale,
    jobs: usize,
    gates: &mut FailedGates,
    run: impl FnOnce() -> (Figure, String, B),
) -> B {
    eprintln!("[reproduce] {what} at {scale:?} scale ({jobs} jobs) ...");
    let started = Instant::now();
    let (fig, json, bench) = run();
    eprintln!(
        "[reproduce] {name} done in {:.1}s wall",
        started.elapsed().as_secs_f64()
    );
    println!("{fig}");
    write_file(Path::new(&format!("BENCH_{name}.json")), &json);
    gates.collect(fig.id, &fig.checks);
    bench
}

/// Hand-rolled JSON (the workspace deliberately carries no serde): the
/// schema is flat enough that string assembly is clearer than a codec.
fn bench_json(scale: Scale, jobs: usize, total_wall_s: f64, runs: &[FigureRun]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"scale\": \"{scale:?}\",\n"));
    out.push_str(&format!("  \"parallelism\": {jobs},\n"));
    out.push_str(&format!("  \"total_wall_s\": {total_wall_s:.3},\n"));
    out.push_str("  \"figures\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let checks = r.fig.checks.len();
        let within = r
            .fig
            .checks
            .iter()
            .filter(|c| c.deviation() <= 0.10)
            .count();
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"wall_s\": {:.3}, \"checks\": {}, \"within_10pct\": {}}}{}\n",
            r.id,
            r.wall_s,
            checks,
            within,
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Runs one fully-instrumented observability fleet (the scale-out
/// figure's n=64 p2p point; `chaos` adds the chaos fault plan for the
/// elasticity flavor), writes its artifact directory under
/// `<dir>/<kind>/`, and collects its failed gates.
fn write_fleet_obs(dir: &str, kind: &str, chaos: bool, gates: &mut FailedGates) {
    eprintln!(
        "[reproduce] collecting {kind} observability fleet (n={}, p2p{}) ...",
        obs::OBS_FLEET_N,
        if chaos { ", chaos faults" } else { "" },
    );
    let started = Instant::now();
    let mut cfg = obs::obs_fleet_cfg(ext_scaleout::Topology::PeerToPeer);
    if chaos {
        cfg.faults = FaultPlan::preset("chaos", 7);
    }
    let (_, profile) = ext_scaleout::fleet_geometry();
    let o = obs::collect_fleet_obs(cfg, &profile);
    let out = Path::new(dir).join(kind);
    match o.write(&out) {
        Ok(()) => eprintln!(
            "[reproduce] wrote {} ({} booted, {} alert raises) in {:.1}s wall",
            out.display(),
            o.booted,
            o.raises(),
            started.elapsed().as_secs_f64(),
        ),
        Err(e) => {
            eprintln!("[reproduce] failed to write {}: {e}", out.display());
            std::process::exit(1);
        }
    }
    gates.collect(&format!("obs/{kind}"), &o.gates());
}

/// Runs the selected paper figures (and the `--faults` figures) on the
/// worker pool, prints them in figure order with the summary, and
/// writes `BENCH_reproduce.json`.
fn run_paper_figures(
    scale: Scale,
    jobs: usize,
    wanted: &[&str],
    faults_sel: Option<&str>,
    gates: &mut FailedGates,
) {
    let all = wanted.is_empty() || wanted.contains(&"all");
    let figures: Vec<(&'static str, FigureFn)> = vec![
        ("fig04", fig04_startup::run),
        ("fig05", fig05_database::run),
        ("fig06", fig06_mpi::run),
        ("fig07", fig07_kernbench::run),
        ("fig08", fig08_threads::run),
        ("fig09", fig09_memory::run),
        ("fig10", fig10_storage_tput::run),
        ("fig11", fig11_storage_lat::run),
        ("fig12", fig12_ib_tput::run),
        ("fig13", fig13_ib_lat::run),
        ("fig14", fig14_moderation::run),
        ("ext01", ext_ablation::run),
        ("ext02", ext_scaleout::run),
    ];
    let mut selected: Vec<(&'static str, FigureFn)> = if faults_sel.is_some() && wanted.is_empty() {
        // --faults alone: run only the fault matrix.
        Vec::new()
    } else {
        figures
            .into_iter()
            .filter(|(id, _)| all || wanted.contains(id))
            .collect()
    };
    if let Some(sel) = faults_sel {
        selected.extend(
            faults::registry()
                .into_iter()
                .filter(|(id, _)| sel == "all" || id.strip_prefix("faults_") == Some(sel)),
        );
    }

    let started = Instant::now();
    let runs = par_map(jobs, &selected, |&(id, f)| {
        eprintln!("[reproduce] running {id} at {scale:?} scale ...");
        let started = Instant::now();
        let fig = f(scale);
        let wall_s = started.elapsed().as_secs_f64();
        eprintln!("[reproduce] {id} done in {wall_s:.1}s");
        FigureRun { id, fig, wall_s }
    });
    let total_wall_s = started.elapsed().as_secs_f64();

    for r in &runs {
        println!("{}", r.fig);
        gates.collect(r.id, &r.fig.checks);
    }

    // Summary table across all checks.
    if runs.len() > 1 {
        println!("== summary: paper vs measured across all figures ==");
        let mut worst: Option<&Check> = None;
        let mut total = 0usize;
        let mut within_10 = 0usize;
        for r in &runs {
            for c in &r.fig.checks {
                total += 1;
                if c.deviation() <= 0.10 {
                    within_10 += 1;
                }
                if worst.map(|w| c.deviation() > w.deviation()).unwrap_or(true) {
                    worst = Some(c);
                }
            }
        }
        println!("  checks: {total}, within 10% of paper: {within_10}");
        if let Some(w) = worst {
            println!(
                "  largest deviation: {} ({:.1}%)",
                w.metric,
                w.deviation() * 100.0
            );
        }
    }

    let json_path = Path::new("BENCH_reproduce.json");
    if runs.is_empty() {
        // Nothing to record (unknown figure ids only): keep the last
        // record rather than overwrite it with an empty one.
        eprintln!(
            "[reproduce] no figures ran; {} left unchanged",
            json_path.display()
        );
        return;
    }
    eprintln!(
        "[reproduce] {} figures in {total_wall_s:.1}s wall ({jobs} jobs)",
        runs.len()
    );
    write_file(json_path, &bench_json(scale, jobs, total_wall_s, &runs));
}

/// Prints `problem` and the usage text, then exits 2 before any work.
fn usage_error(problem: &str) -> ! {
    eprintln!("reproduce: {problem}\n{USAGE}");
    std::process::exit(2);
}

/// Parses a positive integer flag value.
fn positive(flag: &str, value: &str) -> usize {
    match value.parse() {
        Ok(n) if n >= 1 => n,
        _ => usage_error(&format!("{flag} takes a positive integer, got {value:?}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut switches: Vec<&str> = Vec::new();
    let mut values: Vec<(&str, &str)> = Vec::new();
    let mut wanted: Vec<&str> = Vec::new();
    let mut it = args.iter().map(String::as_str);
    while let Some(a) = it.next() {
        let (flag, inline) = match a.split_once('=') {
            Some((flag, value)) if flag.starts_with("--") => (flag, Some(value)),
            _ => (a, None),
        };
        if VALUE_FLAGS.contains(&flag) {
            // The value is inline or the next token; a missing one (flag
            // last, or followed by another flag) must not swallow that
            // flag or fall through to a default run.
            match inline.or_else(|| it.next()) {
                Some(v) if inline.is_some() || !v.starts_with("--") => values.push((flag, v)),
                _ => usage_error(&format!("{flag} takes a value")),
            }
        } else if SWITCHES.contains(&a) {
            switches.push(a);
        } else if a.starts_with("--") {
            // A mistyped flag must not fall through to a default run
            // (every figure, or the paper-scale one without --quick).
            usage_error(&format!("unknown flag {a}"));
        } else {
            wanted.push(a);
        }
    }
    let on = |switch: &str| switches.contains(&switch);
    // The last occurrence of a value flag wins.
    let value = |flag: &str| {
        values
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|&(_, v)| v)
    };
    let scale = if on("--quick") {
        Scale::Quick
    } else {
        Scale::Paper
    };
    let jobs = value("--jobs").map_or_else(
        || std::thread::available_parallelism().map_or(1, |n| n.get()),
        |v| positive("--jobs", v),
    );
    let trace_ring = value("--trace-ring").map(|v| positive("--trace-ring", v));
    let faults_sel = value("--faults");
    if let Some(sel) = faults_sel {
        if sel != "all" && !FaultPlan::PRESET_NAMES.contains(&sel) {
            usage_error(&format!(
                "--faults takes one of {:?} or all, got {sel:?}",
                FaultPlan::PRESET_NAMES
            ));
        }
    }
    let trace_out = value("--trace-out");
    let fleet_obs = value("--fleet-obs");
    // `--scaleout --transport <kind|all>` runs the transport race
    // instead of the topology figure.
    let transport = value("--transport").map(|sel| {
        if !on("--scaleout") {
            usage_error("--transport requires --scaleout");
        }
        ext_transport::kinds_for(sel).unwrap_or_else(|| {
            usage_error(&format!(
                "--transport takes aoe|batched|rdma|all, got {sel:?}"
            ))
        })
    });

    let mut gates = FailedGates::default();
    if let Some(kinds) = &transport {
        let labels: Vec<&str> = kinds.iter().map(|k| k.label()).collect();
        let what = format!("racing deployment transports {labels:?}");
        extension("transport", &what, scale, jobs, &mut gates, || {
            let (fig, bench) = ext_transport::run_transport(scale, jobs, kinds);
            (fig, ext_transport::transport_json(scale, &bench), ())
        });
    } else if on("--scaleout") {
        let what = "measuring fleet scale-out";
        extension("scaleout", what, scale, jobs, &mut gates, || {
            let (fig, points) = ext_scaleout::run_scaleout(scale, jobs);
            (fig, ext_scaleout::scaleout_json(scale, &points), ())
        });
        if let Some(dir) = fleet_obs {
            write_fleet_obs(dir, "scaleout", false, &mut gates);
        }
    }

    if on("--elasticity") {
        let what = "measuring elasticity lifecycle";
        let chaos_trace = extension("elasticity", what, scale, jobs, &mut gates, || {
            let (fig, bench) = ext_elasticity::run_elasticity(scale, jobs);
            let json = ext_elasticity::elasticity_json(scale, &bench);
            (fig, json, bench.chaos_trace)
        });
        if let Some(dir) = fleet_obs {
            write_fleet_obs(dir, "elasticity", true, &mut gates);
        }
        // `--trace-out` records the first chaos wave's trace here
        // instead of a deployment trace.
        if let Some(dir) = trace_out {
            write_file(&Path::new(dir).join("elasticity_trace.json"), &chaos_trace);
        }
    }

    // `--metrics` and a deployment `--trace-out` read one recording.
    let deploy_trace = trace_out.filter(|_| !on("--elasticity"));
    if on("--metrics") || deploy_trace.is_some() {
        // `--faults all` exercises the whole matrix below; record the
        // chaos plan, the superset.
        let preset = faults_sel.map(|s| if s == "all" { "chaos" } else { s });
        let mut rec = bmcast::deploy::FlightRecorderConfig::default();
        if let Some(n) = trace_ring {
            rec.trace_ring = n;
        }
        eprintln!(
            "[reproduce] recording flight-recorded deployment at {scale:?} scale{} ...",
            preset.map(|p| format!(" under {p} faults")).unwrap_or_default()
        );
        let run = flight::record(scale, rec, preset);
        if on("--metrics") {
            print!("{}", run.report(scale));
        }
        if let Some(dir) = deploy_trace {
            if let Err(e) = run.write_artifacts(Path::new(dir)) {
                eprintln!("[reproduce] failed to write trace artifacts to {dir}: {e}");
                std::process::exit(1);
            }
            eprintln!(
                "[reproduce] bare metal at {}; wrote {} spans, {} timeline rows to {dir}/",
                run.bare_metal_at,
                run.spans.len(),
                run.samples.len()
            );
            let dropped = run.metrics.gauge("trace.dropped");
            if dropped > 0 {
                eprintln!(
                    "[reproduce] warning: {dropped} trace events evicted from the ring; \
                     raise --trace-ring to keep them"
                );
            }
        }
    }

    // The paper figures run when asked for by id or by `--faults`, and
    // by default when no other section was asked for.
    let other_sections =
        on("--scaleout") || on("--elasticity") || on("--metrics") || trace_out.is_some();
    if !wanted.is_empty() || faults_sel.is_some() || !other_sections {
        run_paper_figures(scale, jobs, &wanted, faults_sel, &mut gates);
    }
    gates.exit_if_any();
}
