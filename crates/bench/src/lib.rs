//! Benchmark harness regenerating every figure of the BMcast evaluation.
//!
//! One module per figure. Each exposes `run(scale) -> Figure`, where
//! [`Scale`] trades image size / run length for wall-clock time:
//! [`Scale::Paper`] uses the paper's parameters (32-GB image, 20-minute
//! database runs), [`Scale::Quick`] shrinks them for CI and Criterion
//! while preserving every mechanism.
//!
//! The `reproduce` binary prints figures and the paper-vs-measured
//! comparison table recorded in `EXPERIMENTS.md`, and exits 1 when a
//! figure's pass/fail invariant (a gate [`Check`]) does not hold.

pub mod ext_ablation;
pub mod ext_elasticity;
pub mod ext_scaleout;
pub mod ext_transport;
pub mod faults;
pub mod fig04_startup;
pub mod fig05_database;
pub mod fig06_mpi;
pub mod fig07_kernbench;
pub mod fig08_threads;
pub mod fig09_memory;
pub mod fig10_storage_tput;
pub mod fig11_storage_lat;
pub mod fig12_ib_tput;
pub mod fig13_ib_lat;
pub mod fig14_moderation;
pub mod flight;
pub mod obs;

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's parameters.
    Paper,
    /// Shrunk for fast iteration; same mechanisms, same shape.
    Quick,
}

/// One reproduced figure: labeled rows of named series values.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Figure id, e.g. `"fig04"`.
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Unit of the values.
    pub unit: &'static str,
    /// Rows (x-axis points or bars).
    pub rows: Vec<Row>,
    /// Paper-vs-measured checks for the experiment log.
    pub checks: Vec<Check>,
}

/// One row of a figure.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (bar name or x value).
    pub label: String,
    /// `(series name, value)` pairs.
    pub values: Vec<(String, f64)>,
}

impl Row {
    /// Builds a row.
    pub fn new(label: impl Into<String>, values: Vec<(String, f64)>) -> Row {
        Row {
            label: label.into(),
            values,
        }
    }
}

/// A paper-vs-measured comparison point, or a gate: a pass/fail
/// invariant that holds iff `measured == paper`.
#[derive(Debug, Clone)]
pub struct Check {
    /// What is being compared.
    pub metric: String,
    /// The paper's reported value (a gate's required value).
    pub paper: f64,
    /// Our measured value.
    pub measured: f64,
    /// Unit for display.
    pub unit: &'static str,
    /// Whether this is a gate; `reproduce` exits 1 when one fails.
    pub gate: bool,
}

impl Check {
    /// Builds an informational check.
    pub fn new(metric: impl Into<String>, paper: f64, measured: f64, unit: &'static str) -> Check {
        Check {
            metric: metric.into(),
            paper,
            measured,
            unit,
            gate: false,
        }
    }

    /// Builds a gate: it holds iff `measured == required`.
    pub fn gate(
        metric: impl Into<String>,
        required: f64,
        measured: f64,
        unit: &'static str,
    ) -> Check {
        Check {
            gate: true,
            ..Check::new(metric, required, measured, unit)
        }
    }

    /// A boolean gate, shown as `paper 1` / `measured 1` (or `0`).
    pub fn holds(metric: impl Into<String>, holds: bool) -> Check {
        Check::gate(metric, 1.0, holds as u32 as f64, "")
    }

    /// A gate on a count that must be zero.
    pub fn zero(metric: impl Into<String>, count: u64) -> Check {
        Check::gate(metric, 0.0, count as f64, "")
    }

    /// Whether this is a gate that does not hold.
    pub fn failed(&self) -> bool {
        self.gate && self.measured != self.paper
    }

    /// Relative deviation from the paper value (0.0 = exact).
    pub fn deviation(&self) -> f64 {
        if self.paper == 0.0 {
            return self.measured.abs();
        }
        (self.measured - self.paper).abs() / self.paper.abs()
    }
}

/// Maps `f` over `items` on at most `jobs` scoped worker threads and
/// returns the results in `items` order, whatever order they finish in:
/// each worker takes the next unclaimed index and fills that index's
/// slot. Every caller's items own their whole simulated world, so the
/// results are the same at any `jobs`.
pub fn par_map<T: Sync, R: Send>(jobs: usize, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(items.len()).max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                *slots[i].lock().unwrap() = Some(f(item));
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("every slot filled"))
        .collect()
}

impl fmt::Display for Figure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} — {} [{}] ==", self.id, self.title, self.unit)?;
        // Collect the full series set, in first-appearance order.
        let mut series: Vec<&str> = Vec::new();
        for row in &self.rows {
            for (name, _) in &row.values {
                if !series.contains(&name.as_str()) {
                    series.push(name);
                }
            }
        }
        write!(f, "{:<26}", "")?;
        for s in &series {
            write!(f, "{s:>14}")?;
        }
        writeln!(f)?;
        for row in &self.rows {
            write!(f, "{:<26}", row.label)?;
            for s in &series {
                match row.values.iter().find(|(n, _)| n == s) {
                    Some((_, v)) => write!(f, "{v:>14.2}")?,
                    None => write!(f, "{:>14}", "-")?,
                }
            }
            writeln!(f)?;
        }
        if !self.checks.is_empty() {
            writeln!(f, "  paper vs measured:")?;
            for c in &self.checks {
                writeln!(
                    f,
                    "    {:<44} paper {:>9.2} {:<6} measured {:>9.2} {:<6} ({:+.1}%)",
                    c.metric,
                    c.paper,
                    c.unit,
                    c.measured,
                    c.unit,
                    (c.measured - c.paper) / if c.paper != 0.0 { c.paper } else { 1.0 } * 100.0
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_renders_all_series() {
        let fig = Figure {
            id: "figXX",
            title: "demo",
            unit: "s",
            rows: vec![
                Row::new("a", vec![("x".into(), 1.0), ("y".into(), 2.0)]),
                Row::new("b", vec![("y".into(), 3.0)]),
            ],
            checks: vec![Check::new("a.x", 1.0, 1.1, "s")],
        };
        let s = fig.to_string();
        assert!(s.contains("figXX"));
        assert!(s.contains("x") && s.contains("y"));
        assert!(s.contains("+10.0%"));
    }

    #[test]
    fn failed_names_only_the_gates_that_do_not_hold() {
        let fig = Figure {
            id: "figXX",
            title: "demo",
            unit: "",
            rows: Vec::new(),
            checks: vec![
                Check::new("informational, far off", 1.0, 9.0, "s"),
                Check::holds("holds", true),
                Check::holds("broken", false),
                Check::zero("no drops", 0),
                Check::zero("drops", 3),
                Check::gate("exact", 2.0, 2.0, "x"),
            ],
        };
        let failed: Vec<&str> = fig
            .checks
            .iter()
            .filter(|c| c.failed())
            .map(|c| c.metric.as_str())
            .collect();
        assert_eq!(failed, ["broken", "drops"]);
        // A gate prints like any other check.
        assert!(fig.to_string().contains("broken"));
    }

    #[test]
    fn par_map_keeps_item_order_at_any_job_count() {
        let items: Vec<u64> = (0..37).collect();
        let want: Vec<u64> = items.iter().map(|i| i * i).collect();
        for jobs in [1, 2, 5, 64] {
            assert_eq!(par_map(jobs, &items, |i| i * i), want, "jobs={jobs}");
        }
        assert!(par_map(4, &[] as &[u64], |i| *i).is_empty());
    }

    #[test]
    fn check_deviation() {
        assert!((Check::new("m", 100.0, 110.0, "s").deviation() - 0.1).abs() < 1e-12);
        assert_eq!(Check::new("m", 0.0, 0.5, "s").deviation(), 0.5);
    }
}
