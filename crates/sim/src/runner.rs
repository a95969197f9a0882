//! Parallel cell execution and run-report observability.
//!
//! Every figure of the paper is a sweep: the same scenario re-run across
//! seeds, offered loads, or policy variants, then aggregated. The cells of
//! such a sweep are *independent* — each builds its own [`crate::Simulator`]
//! from its own seed — so they parallelize perfectly. [`run_parallel`] is the
//! work queue that fans cells across a thread pool while keeping the result
//! order identical to serial execution, which is what makes parallel sweeps
//! bit-identical to `--threads 1` runs: determinism comes from per-cell
//! seeding (no shared RNG), order-independence from putting each result
//! back at its cell's index after the workers join.
//!
//! [`RunReport`] is the observability side: per-cell wall-clock, events
//! processed, frame counts, and events-per-second throughput, serialized as
//! JSON next to the results so a slow sweep can be diagnosed cell by cell.
//! The JSON is hand-rolled (the build environment vendors no serializer);
//! the format is flat enough that this costs a few lines.

use crate::events::QueueStats;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Maps `f` over `items` on `threads` worker threads, preserving input
/// order in the output.
///
/// A shared atomic index hands out the next unclaimed cell to whichever
/// worker is free (a work queue, not a static partition — cells vary widely
/// in cost because offered load varies). Each worker returns its
/// `(index, result)` pairs from its join, and the caller puts them back in
/// index order, so the returned vector is independent of scheduling:
/// `run_parallel(items, 1, f)` and `run_parallel(items, 8, f)` return
/// identical vectors whenever `f` is deterministic per item.
///
/// `threads` is clamped to `[1, items.len()]`; with one thread the loop
/// runs inline with no pool at all.
pub fn run_parallel<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads == 1 {
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break done;
                        }
                        done.push((i, f(&items[i])));
                    }
                })
            })
            .collect();
        let joined = workers
            .into_iter()
            .map(|w| w.join().expect("a worker panicked"));
        joined.flatten().collect()
    });
    // The work queue handed out each index exactly once.
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Runs `f` and returns its result with the elapsed wall-clock milliseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64() * 1e3)
}

/// Observability record of one sweep cell.
#[derive(Clone, Debug)]
pub struct CellReport {
    /// Human-readable cell identity, e.g. `"ramp seed=11 fps=1.7"`.
    pub label: String,
    /// The cell's RNG seed.
    pub seed: u64,
    /// Wall-clock time of the cell, milliseconds (build + run).
    pub wall_ms: f64,
    /// Discrete events the simulator processed
    /// ([`crate::Simulator::events_processed`]).
    pub events: u64,
    /// Frames that went on air (ground-truth transmissions).
    pub frames_on_air: u64,
    /// Frames captured, summed over the cell's sniffers.
    pub frames_captured: u64,
    /// Frames missed (out of range + bit error + hardware drop), summed
    /// over the cell's sniffers.
    pub frames_missed: u64,
    /// Event-queue churn (pushed/popped/stale-dropped/cascaded) — the
    /// scheduler-side cost structure behind `events`.
    pub queue: QueueStats,
}

impl CellReport {
    /// Simulator throughput of this cell: events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            return 0.0;
        }
        self.events as f64 / (self.wall_ms / 1e3)
    }
}

/// Observability record of one sweep: the run's cells plus totals.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Sweep name (the figure or ablation identifier).
    pub name: String,
    /// Worker threads the sweep ran on.
    pub threads: usize,
    /// Wall-clock of the whole sweep, milliseconds — less than the sum of
    /// cell times whenever parallelism helped.
    pub total_wall_ms: f64,
    /// Per-cell records, in cell order.
    pub cells: Vec<CellReport>,
}

impl RunReport {
    /// Total simulator events across cells.
    pub fn total_events(&self) -> u64 {
        self.cells.iter().map(|c| c.events).sum()
    }

    /// Aggregate throughput: total events over total (wall-clock) sweep
    /// time, counting parallel speedup.
    pub fn events_per_sec(&self) -> f64 {
        if self.total_wall_ms <= 0.0 {
            return 0.0;
        }
        self.total_events() as f64 / (self.total_wall_ms / 1e3)
    }

    /// Sum of per-cell wall-clock times — the serial-equivalent cost. The
    /// ratio to [`RunReport::total_wall_ms`] is the achieved speedup.
    pub fn cell_wall_ms(&self) -> f64 {
        self.cells.iter().map(|c| c.wall_ms).sum()
    }

    /// One-line human summary for stderr.
    pub fn summary(&self) -> String {
        format!(
            "[{}] {} cells on {} thread(s): {:.0} ms wall ({:.0} ms cell time, {:.1}x), \
             {} events, {:.0} events/s",
            self.name,
            self.cells.len(),
            self.threads,
            self.total_wall_ms,
            self.cell_wall_ms(),
            if self.total_wall_ms > 0.0 {
                self.cell_wall_ms() / self.total_wall_ms
            } else {
                1.0
            },
            self.total_events(),
            self.events_per_sec(),
        )
    }

    /// The report as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.cells.len() * 192);
        out.push_str("{\n");
        out.push_str(&format!("  \"name\": {},\n", json_str(&self.name)));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!(
            "  \"total_wall_ms\": {},\n",
            json_f64(self.total_wall_ms)
        ));
        out.push_str(&format!(
            "  \"cell_wall_ms\": {},\n",
            json_f64(self.cell_wall_ms())
        ));
        out.push_str(&format!("  \"total_events\": {},\n", self.total_events()));
        out.push_str(&format!(
            "  \"events_per_sec\": {},\n",
            json_f64(self.events_per_sec())
        ));
        out.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"label\": {}, \"seed\": {}, \"wall_ms\": {}, \"events\": {}, \
                 \"frames_on_air\": {}, \"frames_captured\": {}, \"frames_missed\": {}, \
                 \"queue_pushed\": {}, \"queue_popped\": {}, \"queue_stale_dropped\": {}, \
                 \"queue_cascaded\": {}, \"events_per_sec\": {}}}{}\n",
                json_str(&c.label),
                c.seed,
                json_f64(c.wall_ms),
                c.events,
                c.frames_on_air,
                c.frames_captured,
                c.frames_missed,
                c.queue.pushed,
                c.queue.popped,
                c.queue.stale_dropped,
                c.queue.cascaded,
                json_f64(c.events_per_sec()),
                if i + 1 < self.cells.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the JSON report to `path`, creating parent directories.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json())
    }
}

/// A JSON string literal (the labels here are ASCII; escaping handles the
/// JSON-mandatory set anyway).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number (JSON has no NaN/Infinity; those become 0).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = run_parallel(&items, 4, |&x| x * x);
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_serial() {
        // A cost function deliberately skewed so cells finish out of order.
        let items: Vec<u64> = (0..40).collect();
        let f = |&x: &u64| -> u64 {
            let spins = (40 - x) * 1000;
            let mut acc = x;
            for i in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            acc
        };
        assert_eq!(run_parallel(&items, 1, f), run_parallel(&items, 8, f));
    }

    #[test]
    fn parallel_degenerate_shapes() {
        let empty: Vec<u32> = Vec::new();
        assert!(run_parallel(&empty, 4, |&x| x).is_empty());
        assert_eq!(run_parallel(&[7u32], 16, |&x| x + 1), vec![8]);
        assert_eq!(run_parallel(&[1u32, 2], 0, |&x| x), vec![1, 2]);
    }

    #[test]
    fn report_json_shape() {
        let report = RunReport {
            name: "test \"sweep\"".to_string(),
            threads: 2,
            total_wall_ms: 10.0,
            cells: vec![
                CellReport {
                    label: "a".into(),
                    seed: 1,
                    wall_ms: 8.0,
                    events: 4000,
                    frames_on_air: 100,
                    frames_captured: 90,
                    frames_missed: 10,
                    queue: QueueStats {
                        pushed: 4100,
                        popped: 4000,
                        stale_dropped: 100,
                        cascaded: 5,
                    },
                },
                CellReport {
                    label: "b".into(),
                    seed: 2,
                    wall_ms: 7.0,
                    events: 2000,
                    frames_on_air: 50,
                    frames_captured: 50,
                    frames_missed: 0,
                    queue: QueueStats::default(),
                },
            ],
        };
        assert_eq!(report.total_events(), 6000);
        assert!((report.cell_wall_ms() - 15.0).abs() < 1e-9);
        assert!((report.events_per_sec() - 600_000.0).abs() < 1e-6);
        let json = report.to_json();
        assert!(json.contains("\"test \\\"sweep\\\"\""));
        assert!(json.contains("\"threads\": 2"));
        assert!(json.contains("\"events\": 4000"));
        assert!(json.contains("\"queue_stale_dropped\": 100"));
        assert!(json.contains("\"queue_cascaded\": 5"));
        // Exactly one comma between the two cell objects, none trailing.
        assert_eq!(json.matches("},\n").count(), 1);
        assert!(report.summary().contains("2 cells on 2 thread(s)"));
    }

    #[test]
    fn timed_measures_something() {
        let (v, ms) = timed(|| 42);
        assert_eq!(v, 42);
        assert!(ms >= 0.0);
    }

    #[test]
    fn nonfinite_json_numbers_are_sanitized() {
        assert_eq!(json_f64(f64::NAN), "0");
        assert_eq!(json_f64(f64::INFINITY), "0");
        assert_eq!(json_f64(1.5), "1.500");
    }
}
