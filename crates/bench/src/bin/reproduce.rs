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
//! `--scaleout` runs the *measured* fleet scale-out figure: one
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
//! per-transport two-run chaos determinism lock) and exits non-zero on
//! a divergence.
//!
//! `--elasticity` runs the reverse-lifecycle figure: rolling image
//! upgrades (re-virtualize → snapshot-back → reclaim → redeploy) and
//! scale-down/scale-up waves on measured fleets, plus per-fault-class
//! snapshot-back survivability and a two-run chaos determinism lock.
//! Writes `BENCH_elasticity.json`; with `--trace-out <dir>` the first
//! chaos wave's flight-recorder trace lands in
//! `<dir>/elasticity_trace.json`. Exits non-zero on a chaos determinism
//! break.
//!
//! `--fleet-obs <dir>` adds one fully-instrumented observability fleet
//! to each of `--scaleout` and `--elasticity`: telemetry registries,
//! flight recorder, and the SLO watchdogs all on, reduced to the
//! artifact directories `<dir>/scaleout/` and `<dir>/elasticity/`
//! (fleet snapshot, alert timeline, straggler attribution report,
//! Perfetto trace, digests — see `bmcast_bench::obs`). The scaleout
//! obs fleet is the figure's n=64 peer-to-peer point; the elasticity
//! one runs the same fleet under the chaos fault plan. Artifacts are
//! byte-identical across same-seed runs (`check_figures.py --obs`
//! validates a directory).
//!
//! `--metrics` runs one instrumented deployment first and prints the
//! observability report (per-phase timings, redirect/fill/discard/
//! retransmit counters, FIFO depth, guest I/O latency percentiles).
//!
//! `--trace-out <dir>` runs one flight-recorded deployment and writes
//! the trace artifacts into `<dir>`: `trace.json` (Perfetto-loadable),
//! `timeline.json`, `report.json`, `report.txt`, `metrics.json`. With
//! `--faults <plan>` the recorded run executes under that fault plan
//! (`all` records the chaos plan). `--trace-ring N` sizes the
//! trace-event ring (default 16384 for trace runs, 4096 for
//! `--metrics`; evictions are reported).
//!
//! `--faults <plan>` adds the fault-injection scenario figures for the
//! named preset (`drop`, `stall`, `chaos`, ... — or `all` for the whole
//! matrix). With no explicit figure ids, *only* the fault figures run,
//! so `reproduce --quick --faults all` is the CI fault-matrix job.
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
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

type FigureFn = fn(Scale) -> Figure;

const USAGE: &str = "usage: reproduce [--quick] [--metrics] [--jobs N]
                 [--faults PLAN|all] [--scaleout] [--elasticity]
                 [--transport aoe|batched|rdma|all]
                 [--fleet-obs DIR] [--trace-out DIR] [--trace-ring N]
                 [fig04 fig05 ... | all]";

/// The flags that take no value (the value flags are parsed by name).
const SWITCHES: [&str; 4] = ["--quick", "--metrics", "--scaleout", "--elasticity"];

/// One completed figure: the table plus how long it took on the wall.
struct FigureRun {
    id: &'static str,
    fig: Figure,
    wall_s: f64,
}

/// Runs the selected figures on at most `jobs` worker threads and returns
/// the results in the original figure order regardless of completion
/// order (work-stealing via a shared index; slot-addressed results).
fn run_figures(jobs: usize, scale: Scale, selected: &[(&'static str, FigureFn)]) -> Vec<FigureRun> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<FigureRun>>> =
        selected.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(selected.len()).max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(id, f)) = selected.get(i) else {
                    break;
                };
                eprintln!("[reproduce] running {id} at {scale:?} scale ...");
                let started = Instant::now();
                let fig = f(scale);
                let wall_s = started.elapsed().as_secs_f64();
                eprintln!("[reproduce] {id} done in {wall_s:.1}s");
                *slots[i].lock().unwrap() = Some(FigureRun { id, fig, wall_s });
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("figure slot filled"))
        .collect()
}

/// Hand-rolled JSON (the workspace deliberately carries no serde): the
/// schema is flat enough that string assembly is clearer than a codec.
fn write_bench_json(
    path: &str,
    scale: Scale,
    jobs: usize,
    total_wall_s: f64,
    runs: &[FigureRun],
) -> std::io::Result<()> {
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
    std::fs::write(path, out)
}

/// Runs one fully-instrumented observability fleet (the scale-out
/// figure's n=64 p2p point; `chaos` adds the chaos fault plan for the
/// elasticity flavor) and writes its artifact directory under
/// `<dir>/<kind>/`.
fn write_fleet_obs(dir: &str, kind: &str, chaos: bool) {
    eprintln!(
        "[reproduce] collecting {kind} observability fleet (n={}, p2p{}) ...",
        obs::OBS_FLEET_N,
        if chaos { ", chaos faults" } else { "" },
    );
    let started = Instant::now();
    let mut cfg = obs::obs_fleet_cfg(ext_scaleout::Topology::PeerToPeer);
    if chaos {
        cfg.faults = simkit::fault::FaultPlan::preset("chaos", 7);
    }
    let (_, profile) = ext_scaleout::fleet_geometry();
    let o = obs::collect_fleet_obs(cfg, &profile);
    let out = std::path::Path::new(dir).join(kind);
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
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--quick") {
        Scale::Quick
    } else {
        Scale::Paper
    };
    let mut jobs = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut wanted: Vec<&str> = Vec::new();
    let mut faults_sel: Option<&str> = None;
    let mut trace_out: Option<&str> = None;
    let mut fleet_obs: Option<&str> = None;
    let mut trace_ring: Option<usize> = None;
    let mut transport_sel: Option<&str> = None;
    let mut take_jobs = false;
    let mut take_faults = false;
    let mut take_trace_out = false;
    let mut take_fleet_obs = false;
    let mut take_trace_ring = false;
    let mut take_transport = false;
    for a in &args {
        if take_jobs {
            jobs = a.parse().expect("--jobs takes a positive integer");
            take_jobs = false;
        } else if take_faults {
            faults_sel = Some(a.as_str());
            take_faults = false;
        } else if take_trace_out {
            trace_out = Some(a.as_str());
            take_trace_out = false;
        } else if take_fleet_obs {
            fleet_obs = Some(a.as_str());
            take_fleet_obs = false;
        } else if take_trace_ring {
            trace_ring = Some(a.parse().expect("--trace-ring takes a positive integer"));
            take_trace_ring = false;
        } else if take_transport {
            transport_sel = Some(a.as_str());
            take_transport = false;
        } else if a == "--transport" {
            take_transport = true;
        } else if a == "--jobs" {
            take_jobs = true;
        } else if a == "--faults" {
            take_faults = true;
        } else if a == "--trace-out" {
            take_trace_out = true;
        } else if a == "--fleet-obs" {
            take_fleet_obs = true;
        } else if a == "--trace-ring" {
            take_trace_ring = true;
        } else if let Some(n) = a.strip_prefix("--jobs=") {
            jobs = n.parse().expect("--jobs takes a positive integer");
        } else if let Some(p) = a.strip_prefix("--faults=") {
            faults_sel = Some(p);
        } else if let Some(p) = a.strip_prefix("--trace-out=") {
            trace_out = Some(p);
        } else if let Some(p) = a.strip_prefix("--fleet-obs=") {
            fleet_obs = Some(p);
        } else if let Some(n) = a.strip_prefix("--trace-ring=") {
            trace_ring = Some(n.parse().expect("--trace-ring takes a positive integer"));
        } else if let Some(t) = a.strip_prefix("--transport=") {
            transport_sel = Some(t);
        } else if !a.starts_with("--") {
            wanted.push(a.as_str());
        } else if !SWITCHES.contains(&a.as_str()) {
            // A mistyped flag must not fall through to a default run
            // (every figure, or the paper-scale one without --quick).
            eprintln!("reproduce: unknown flag {a}\n{USAGE}");
            std::process::exit(2);
        }
    }
    assert!(jobs >= 1, "--jobs takes a positive integer");
    assert!(!take_jobs, "--jobs takes a positive integer");
    assert!(!take_faults, "--faults takes a plan name or 'all'");
    assert!(!take_trace_out, "--trace-out takes a directory path");
    assert!(!take_fleet_obs, "--fleet-obs takes a directory path");
    assert!(!take_trace_ring, "--trace-ring takes a positive integer");
    assert!(trace_ring != Some(0), "--trace-ring takes a positive integer");
    assert!(!take_transport, "--transport takes aoe|batched|rdma|all");

    // `--scaleout --transport <kind|all>` runs the transport race
    // instead of the topology figure; plain `--scaleout` is untouched
    // (byte-identical artifacts).
    if let Some(sel) = transport_sel {
        assert!(
            args.iter().any(|a| a == "--scaleout"),
            "--transport requires --scaleout"
        );
        let kinds = ext_transport::kinds_for(sel)
            .unwrap_or_else(|| panic!("--transport takes aoe|batched|rdma|all, got {sel:?}"));
        eprintln!(
            "[reproduce] racing deployment transports {:?} at {scale:?} scale ({jobs} jobs) ...",
            kinds.iter().map(|k| k.label()).collect::<Vec<_>>()
        );
        let started = Instant::now();
        let (fig, bench) = ext_transport::run_transport(scale, jobs, &kinds);
        eprintln!(
            "[reproduce] transport race done in {:.1}s wall",
            started.elapsed().as_secs_f64()
        );
        println!("{fig}");
        if let Some(c) = bench.chaos.iter().find(|c| !c.identical) {
            eprintln!(
                "[reproduce] CHAOS DETERMINISM BREAK on {} transport: run A {} vs run B {}",
                c.transport, c.digest_a, c.digest_b
            );
            std::process::exit(1);
        }
        let json_path = "BENCH_transport.json";
        match ext_transport::write_transport_json(json_path, scale, &bench) {
            Ok(()) => eprintln!("[reproduce] wrote {json_path}"),
            Err(e) => {
                eprintln!("[reproduce] failed to write {json_path}: {e}");
                std::process::exit(1);
            }
        }
        if wanted.is_empty()
            && faults_sel.is_none()
            && trace_out.is_none()
            && !args.iter().any(|a| a == "--elasticity")
        {
            return;
        }
    }

    if args.iter().any(|a| a == "--scaleout") && transport_sel.is_none() {
        eprintln!("[reproduce] measuring fleet scale-out at {scale:?} scale ({jobs} jobs) ...");
        let started = Instant::now();
        let (fig, points) = ext_scaleout::run_scaleout(scale, jobs);
        eprintln!(
            "[reproduce] scaleout done in {:.1}s wall",
            started.elapsed().as_secs_f64()
        );
        println!("{fig}");
        let json_path = "BENCH_scaleout.json";
        match ext_scaleout::write_scaleout_json(json_path, scale, &points) {
            Ok(()) => eprintln!("[reproduce] wrote {json_path}"),
            Err(e) => {
                eprintln!("[reproduce] failed to write {json_path}: {e}");
                std::process::exit(1);
            }
        }
        if let Some(dir) = fleet_obs {
            write_fleet_obs(dir, "scaleout", false);
        }
        if wanted.is_empty()
            && faults_sel.is_none()
            && trace_out.is_none()
            && !args.iter().any(|a| a == "--elasticity")
        {
            return;
        }
    }

    if args.iter().any(|a| a == "--elasticity") {
        eprintln!(
            "[reproduce] measuring elasticity lifecycle at {scale:?} scale ({jobs} jobs) ..."
        );
        let started = Instant::now();
        let (fig, bench) = ext_elasticity::run_elasticity(scale, jobs);
        eprintln!(
            "[reproduce] elasticity done in {:.1}s wall",
            started.elapsed().as_secs_f64()
        );
        println!("{fig}");
        if !(bench.chaos.identical && bench.chaos.trace_identical) {
            eprintln!(
                "[reproduce] CHAOS DETERMINISM BREAK: run A {} vs run B {} (traces identical: {})",
                bench.chaos.digest_a, bench.chaos.digest_b, bench.chaos.trace_identical
            );
            std::process::exit(1);
        }
        let json_path = "BENCH_elasticity.json";
        match ext_elasticity::write_elasticity_json(json_path, scale, &bench) {
            Ok(()) => eprintln!("[reproduce] wrote {json_path}"),
            Err(e) => {
                eprintln!("[reproduce] failed to write {json_path}: {e}");
                std::process::exit(1);
            }
        }
        if let Some(dir) = fleet_obs {
            write_fleet_obs(dir, "elasticity", true);
        }
        if let Some(dir) = trace_out {
            let path = std::path::Path::new(dir).join("elasticity_trace.json");
            match std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, &bench.chaos_trace))
            {
                Ok(()) => eprintln!("[reproduce] wrote {}", path.display()),
                Err(e) => {
                    eprintln!("[reproduce] failed to write {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
        }
        // `--trace-out` is consumed above (the chaos wave's trace), so it
        // alone does not pull in the default deployment-trace recording.
        if wanted.is_empty() && faults_sel.is_none() {
            return;
        }
    }

    if args.iter().any(|a| a == "--metrics") {
        eprintln!("[reproduce] running instrumented deployment at {scale:?} scale ...");
        print!("{}", telemetry::report(scale, trace_ring.unwrap_or(4096)));
        if wanted.is_empty() && trace_out.is_none() {
            return;
        }
    }

    if let Some(dir) = trace_out {
        // `--faults all` exercises the whole matrix below; record the
        // chaos plan, the superset, in the trace.
        let preset = faults_sel.map(|s| if s == "all" { "chaos" } else { s });
        let mut rec = bmcast::deploy::FlightRecorderConfig::default();
        if let Some(n) = trace_ring {
            rec.trace_ring = n;
        }
        eprintln!(
            "[reproduce] recording flight-recorded deployment at {scale:?} scale{} ...",
            preset.map(|p| format!(" under {p} faults")).unwrap_or_default()
        );
        match flight::write_artifacts(scale, std::path::Path::new(dir), rec, preset) {
            Ok(s) => {
                eprintln!(
                    "[reproduce] bare metal at {}; wrote {} spans, {} timeline rows to {dir}/",
                    s.bare_metal_at, s.spans, s.rows
                );
                if s.trace_dropped > 0 {
                    eprintln!(
                        "[reproduce] warning: {} trace events evicted from the ring; \
                         raise --trace-ring to keep them",
                        s.trace_dropped
                    );
                }
            }
            Err(e) => {
                eprintln!("[reproduce] failed to write trace artifacts to {dir}: {e}");
                std::process::exit(1);
            }
        }
        if wanted.is_empty() && faults_sel.is_none() {
            return;
        }
    }

    let all = wanted.is_empty() || wanted.contains(&"all");
    let want = |id: &str| all || wanted.contains(&id);

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
        figures.into_iter().filter(|(id, _)| want(id)).collect()
    };
    if let Some(sel) = faults_sel {
        let matching: Vec<(&'static str, FigureFn)> = faults::registry()
            .into_iter()
            .filter(|(id, _)| sel == "all" || id.strip_prefix("faults_") == Some(sel))
            .collect();
        assert!(
            !matching.is_empty(),
            "--faults takes one of {:?} or 'all'",
            simkit::fault::FaultPlan::PRESET_NAMES
        );
        selected.extend(matching);
    }

    let started = Instant::now();
    let runs = run_figures(jobs, scale, &selected);
    let total_wall_s = started.elapsed().as_secs_f64();

    for r in &runs {
        println!("{}", r.fig);
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

    let json_path = "BENCH_reproduce.json";
    if runs.is_empty() {
        // Nothing to record (unknown figure ids only): keep the last
        // record rather than overwrite it with an empty one.
        eprintln!("[reproduce] no figures ran; {json_path} left unchanged");
        return;
    }
    match write_bench_json(json_path, scale, jobs, total_wall_s, &runs) {
        Ok(()) => eprintln!(
            "[reproduce] {} figures in {total_wall_s:.1}s wall ({jobs} jobs); wrote {json_path}",
            runs.len()
        ),
        Err(e) => eprintln!("[reproduce] failed to write {json_path}: {e}"),
    }
}
