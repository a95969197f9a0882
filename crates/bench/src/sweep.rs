//! The shared sweep engine behind every figure and ablation.
//!
//! A figure is a sweep of independent `(scenario, seed, load-point)` cells.
//! This module owns the three things every sweep needs:
//!
//! 1. **CLI** — [`SweepArgs`] is the `--threads N` / `--seeds N` surface;
//! 2. **execution** — [`run_cells`] fans [`Cell`]s across a thread pool via
//!    [`wifi_sim::runner::run_parallel`], with per-cell wall-clock timing.
//!    Each cell builds its own seeded simulator, so results are
//!    bit-identical whatever `--threads` says;
//! 3. **observability** — a [`RunReport`] written as JSON under `results/`
//!    next to the printed tables, plus a one-line summary on stderr.
//!
//! Cross-seed aggregation uses [`congestion::mean_ci95`]
//! (mean ± 95 % Student-t confidence interval).

use ietf_workloads::{Scenario, ScenarioResult};
use wifi_sim::runner::{run_parallel, timed, CellReport, RunReport};

/// The sweep options: worker threads and seeds per configuration.
#[derive(Clone, Copy, Debug)]
pub struct SweepArgs {
    /// Worker threads for the cell pool (default: available parallelism).
    pub threads: usize,
    /// Seeds per swept configuration (default: per artifact).
    pub seeds: usize,
}

impl SweepArgs {
    /// Parses `--threads N` / `--seeds N` (also `--threads=N` forms).
    /// `--help` and an unknown argument come back as [`Usage`], so typos
    /// never silently run the default sweep.
    pub fn from_args(argv: &[String], default_seeds: usize) -> Result<SweepArgs, Usage> {
        let mut args = SweepArgs {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            seeds: default_seeds,
        };
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) => (f, Some(v.to_string())),
                None => (arg.as_str(), None),
            };
            let mut value = |name: &str| -> Result<usize, Usage> {
                let raw = match inline.clone() {
                    Some(v) => v,
                    None => it
                        .next()
                        .cloned()
                        .ok_or_else(|| Usage::Error(format!("{name} needs a value")))?,
                };
                let v: usize = raw.parse().map_err(|_| {
                    Usage::Error(format!("{name} needs a positive integer, got {raw:?}"))
                })?;
                if v == 0 {
                    return Err(Usage::Error(format!("{name} must be at least 1")));
                }
                Ok(v)
            };
            match flag {
                "--threads" => args.threads = value("--threads")?,
                "--seeds" => args.seeds = value("--seeds")?,
                "--help" | "-h" => return Err(Usage::Help),
                other => return Err(Usage::Error(format!("unknown argument {other:?}"))),
            }
        }
        Ok(args)
    }

    /// The seed list for one swept configuration: `base, base+1, …` —
    /// consecutive so a report's cells are self-describing, distinct per
    /// configuration through the base.
    pub fn seed_list(&self, base: u64) -> Vec<u64> {
        (0..self.seeds as u64).map(|i| base + i).collect()
    }
}

/// Outcome of [`SweepArgs::from_args`] when it cannot return options.
#[derive(Debug)]
pub enum Usage {
    /// `--help` was requested.
    Help,
    /// A malformed or unknown argument.
    Error(String),
}

/// One independent sweep cell: a label for the run report, the seed it is
/// built from, and the scenario constructor (run on a worker thread).
pub struct Cell {
    /// Cell identity in the run report, e.g. `"ramp seed=11 fps=1.7"`.
    pub label: String,
    /// The cell's RNG seed (also recorded in the report).
    pub seed: u64,
    build: Box<dyn Fn() -> Scenario + Send + Sync>,
}

impl Cell {
    /// A cell that builds its scenario with `build` when scheduled.
    pub fn new(
        label: impl Into<String>,
        seed: u64,
        build: impl Fn() -> Scenario + Send + Sync + 'static,
    ) -> Cell {
        Cell {
            label: label.into(),
            seed,
            build: Box::new(build),
        }
    }

    /// Builds a fresh scenario instance for this cell.
    pub fn build_scenario(&self) -> Scenario {
        (self.build)()
    }
}

/// Runs the cells on `args.threads` workers and returns their results in
/// cell order plus the [`RunReport`].
///
/// The report is written to `results/<name>.run.json` (failure to write is
/// reported on stderr, never fatal) and its one-line summary is printed to
/// stderr so stdout stays a clean table stream.
pub fn run_cells(
    name: &str,
    args: &SweepArgs,
    cells: Vec<Cell>,
) -> (Vec<ScenarioResult>, RunReport) {
    let (outcomes, total_wall_ms) =
        timed(|| run_parallel(&cells, args.threads, |cell| timed(|| (cell.build)().run())));
    let mut results = Vec::with_capacity(outcomes.len());
    let mut reports = Vec::with_capacity(outcomes.len());
    for (cell, (result, wall_ms)) in cells.iter().zip(outcomes) {
        reports.push(CellReport {
            label: cell.label.clone(),
            seed: cell.seed,
            wall_ms,
            events: result.events_processed,
            frames_on_air: result.frames_on_air,
            queue: result.queue,
            frames_captured: result.sniffer_stats.iter().map(|s| s.captured).sum(),
            frames_missed: result
                .sniffer_stats
                .iter()
                .map(|s| s.total_on_air() - s.captured)
                .sum(),
        });
        results.push(result);
    }
    let report = RunReport {
        name: name.to_string(),
        threads: args.threads,
        total_wall_ms,
        cells: reports,
    };
    let path = std::path::Path::new("results").join(format!("{name}.run.json"));
    match report.write_json(&path) {
        Ok(()) => eprintln!("{}\nrun report: {}", report.summary(), path.display()),
        Err(e) => eprintln!("{}\nrun report not written ({e})", report.summary()),
    }
    (results, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<SweepArgs, Usage> {
        let argv: Vec<String> = words.iter().map(|s| s.to_string()).collect();
        SweepArgs::from_args(&argv, 3)
    }

    #[test]
    fn defaults_and_flags() {
        let d = parse(&[]).unwrap();
        assert_eq!(d.seeds, 3);
        assert!(d.threads >= 1);
        let a = parse(&["--threads", "4", "--seeds", "2"]).unwrap();
        assert_eq!((a.threads, a.seeds), (4, 2));
        let b = parse(&["--threads=8", "--seeds=5"]).unwrap();
        assert_eq!((b.threads, b.seeds), (8, 5));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(matches!(parse(&["--threads"]), Err(Usage::Error(_))));
        assert!(matches!(
            parse(&["--threads", "zero"]),
            Err(Usage::Error(_))
        ));
        assert!(matches!(parse(&["--seeds", "0"]), Err(Usage::Error(_))));
        assert!(matches!(parse(&["--frobnicate"]), Err(Usage::Error(_))));
        assert!(matches!(parse(&["--help"]), Err(Usage::Help)));
    }

    #[test]
    fn seed_lists_are_consecutive_from_base() {
        let args = parse(&["--seeds", "4"]).unwrap();
        assert_eq!(args.seed_list(101), vec![101, 102, 103, 104]);
        assert_eq!(parse(&["--seeds", "1"]).unwrap().seed_list(41), vec![41]);
    }
}
