//! Regenerates the BMcast paper's figures and prints paper-vs-measured
//! comparison tables.
//!
//! ```text
//! reproduce [--quick] [--metrics] [--jobs N]
//!           [--faults PLAN|all] [--scaleout] [--elasticity]
//!           [--transport aoe|batched|rdma|all]
//!           [--trace-out DIR] [fig04 fig05 ... | all]
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
//! Writes `BENCH_elasticity.json`.
//!
//! `--metrics` prints the telemetry report of one flight-recorded
//! deployment (`bmcast_bench::flight`): per-phase timings,
//! redirect/fill/discard/retransmit counters, FIFO depth, guest I/O
//! latency percentiles, the full snapshot and the trace tail. With
//! `--faults <plan>` the recorded run executes under that fault plan
//! (`all` records the chaos plan).
//!
//! `--trace-out <dir>` writes one artifact bundle per observed section
//! (`bmcast_bench::obs::Bundle`: named artifacts plus `digest.json`,
//! byte-identical across same-seed runs, with gates of their own):
//!
//! - `<dir>/deployment/`: the deployment `--metrics` reports on (one
//!   recording serves both flags). It is recorded with `--metrics`, or
//!   with `--trace-out` when neither `--scaleout` nor `--elasticity`
//!   was given.
//! - `<dir>/scaleout/` (with `--scaleout`): the scale-out figure's n=64
//!   peer-to-peer fleet with telemetry, flight recorder and SLO
//!   watchdogs on, and its straggler attribution.
//! - `<dir>/elasticity/` (with `--elasticity`): the elasticity figure's
//!   first chaos upgrade wave, which it records with telemetry on.
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
                 [--trace-out DIR] [fig04 fig05 ... | all]";

/// The flags that take no value.
const SWITCHES: [&str; 4] = ["--quick", "--metrics", "--scaleout", "--elasticity"];

/// The flags that take a value, as `--flag VALUE` or `--flag=VALUE`.
const VALUE_FLAGS: [&str; 4] = ["--jobs", "--faults", "--trace-out", "--transport"];

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

/// Reports that `path` was written, or exits 1 naming the error.
fn wrote(path: &Path, written: std::io::Result<()>) {
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
    let path = format!("BENCH_{name}.json");
    wrote(Path::new(&path), std::fs::write(&path, json));
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

/// Writes one artifact bundle into `<dir>/<section>/` (or exits 1) and
/// collects its failed gates.
fn write_bundle(dir: &Path, section: &str, bundle: &obs::Bundle, gates: &mut FailedGates) {
    let out = dir.join(section);
    wrote(&out, bundle.write(&out));
    gates.collect(&format!("obs/{section}"), &bundle.gates);
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
    let json = bench_json(scale, jobs, total_wall_s, &runs);
    wrote(json_path, std::fs::write(json_path, json));
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
    let faults_sel = value("--faults");
    if let Some(sel) = faults_sel {
        if sel != "all" && !FaultPlan::PRESET_NAMES.contains(&sel) {
            usage_error(&format!(
                "--faults takes one of {:?} or all, got {sel:?}",
                FaultPlan::PRESET_NAMES
            ));
        }
    }
    let trace_out = value("--trace-out").map(Path::new);
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
    }
    if let Some(dir) = trace_out.filter(|_| on("--scaleout")) {
        eprintln!(
            "[reproduce] recording the n={} p2p scale-out fleet ...",
            obs::OBS_FLEET_N
        );
        let (_, profile) = ext_scaleout::fleet_geometry();
        let bundle = obs::boot_bundle(obs::obs_fleet_cfg(), &profile);
        write_bundle(dir, "scaleout", &bundle, &mut gates);
    }

    if on("--elasticity") {
        let what = "measuring elasticity lifecycle";
        let chaos = extension("elasticity", what, scale, jobs, &mut gates, || {
            let (fig, bench) = ext_elasticity::run_elasticity(scale, jobs);
            let json = ext_elasticity::elasticity_json(scale, &bench);
            (fig, json, bench.chaos_recording)
        });
        if let Some(dir) = trace_out {
            write_bundle(dir, "elasticity", &chaos, &mut gates);
        }
    }

    // `--metrics` and `--trace-out` read one deployment recording.
    let fleet_sections = on("--scaleout") || on("--elasticity");
    if on("--metrics") || (trace_out.is_some() && !fleet_sections) {
        // `--faults all` exercises the whole matrix below; record the
        // chaos plan, the superset.
        let preset = faults_sel.map(|s| if s == "all" { "chaos" } else { s });
        eprintln!(
            "[reproduce] recording flight-recorded deployment at {scale:?} scale{} ...",
            preset
                .map(|p| format!(" under {p} faults"))
                .unwrap_or_default()
        );
        let run = flight::record(scale, preset);
        if on("--metrics") {
            print!("{}", run.report(scale));
        }
        if let Some(dir) = trace_out {
            eprintln!(
                "[reproduce] bare metal at {}; {} spans, {} timeline rows",
                run.bare_metal_at,
                run.spans.len(),
                run.samples.len()
            );
            let bundle = obs::Bundle::deployment(&run);
            write_bundle(dir, "deployment", &bundle, &mut gates);
        }
    }

    // The paper figures run when asked for by id or by `--faults`, and
    // by default when no other section was asked for.
    let other_sections = fleet_sections || on("--metrics") || trace_out.is_some();
    if !wanted.is_empty() || faults_sel.is_some() || !other_sections {
        run_paper_figures(scale, jobs, &wanted, faults_sel, &mut gates);
    }
    gates.exit_if_any();
}
