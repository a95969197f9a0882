//! # congestion-bench
//!
//! The figure-regeneration harness. The `figures` binary renders every
//! table, figure and ablation of the paper ([`figures::ARTIFACTS`]):
//! `figures <artifact>` prints one, `figures all` writes each to
//! `results/<artifact>.txt`, and `figures --help` lists them. The shared
//! datasets are built at most once per invocation ([`figures::Datasets`]),
//! on the sweep engine ([`sweep`]). Set `CONG_QUICK=1` to shrink runs for
//! smoke-testing.
//!
//! One more binary is not a paper artifact: `chaos_smoke` pushes seeded
//! corrupted captures through the lossy ingesters (`--budget N`).
//! Performance is measured by the repository benchmark in `perfbench/`,
//! which drives [`streaming`]'s entry points.

#![warn(missing_docs)]

pub mod figures;
pub mod streaming;
pub mod sweep;

use congestion::analyze;
use congestion::persec::SecondStats;
use ietf_workloads::{ietf_day, ietf_plenary, load_ramp, SessionScale};
pub use sweep::{run_cells, Cell, SweepArgs};
use wifi_sim::runner::RunReport;

/// True when the `CONG_QUICK` environment variable asks for smoke-scale
/// runs.
pub fn quick() -> bool {
    std::env::var("CONG_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Scales a count down in quick mode.
pub fn scaled(full: u64, quick_value: u64) -> u64 {
    if quick() {
        quick_value
    } else {
        full
    }
}

/// `scale`, shrunk to 40 users over 20 s in quick mode.
fn quick_session(mut scale: SessionScale) -> SessionScale {
    if quick() {
        (scale.users, scale.duration_s) = (40, 20);
    }
    scale
}

/// The day-session scale at the requested seed, shrunk in quick mode.
pub fn day_scale(seed: u64) -> SessionScale {
    quick_session(SessionScale::day_default(seed))
}

/// The plenary-session scale at the requested seed, shrunk in quick mode.
pub fn plenary_scale(seed: u64) -> SessionScale {
    quick_session(SessionScale::plenary_default(seed))
}

/// Base seed of the day session (plenary uses the next base).
pub const DAY_SEED: u64 = 21;
/// Base seed of the plenary session.
pub const PLENARY_SEED: u64 = 22;
/// Base seed of the load-ramp sweep behind Figures 6–15.
pub const RAMP_SEED: u64 = 11;

/// The pooled per-second dataset behind Figures 6–15: load-ramp sweeps (to
/// populate every utilization bin) plus the day and plenary sessions —
/// mirroring the paper's pooling of both sessions. The ramp runs
/// `args.seeds` seeds (one in quick mode); all cells execute on the sweep
/// engine's thread pool, and pooling happens in fixed cell order so the
/// dataset is identical for every `--threads` value.
pub fn figure_dataset(name: &str, args: &SweepArgs) -> (Vec<SecondStats>, RunReport) {
    let ramp_users = scaled(320, 60) as usize;
    let ramp_dur = scaled(700, 60);
    let ramp_seeds = if quick() {
        vec![RAMP_SEED]
    } else {
        args.seed_list(RAMP_SEED)
    };
    let mut cells: Vec<Cell> = ramp_seeds
        .into_iter()
        .map(|seed| {
            Cell::new(format!("ramp seed={seed}"), seed, move || {
                load_ramp(seed, ramp_users, ramp_dur, 1.7)
            })
        })
        .collect();
    cells.push(Cell::new(format!("day seed={DAY_SEED}"), DAY_SEED, || {
        ietf_day(day_scale(DAY_SEED))
    }));
    cells.push(Cell::new(
        format!("plenary seed={PLENARY_SEED}"),
        PLENARY_SEED,
        || ietf_plenary(plenary_scale(PLENARY_SEED)),
    ));
    let (results, report) = run_cells(name, args, cells);
    let mut seconds = Vec::new();
    for result in &results {
        for trace in &result.traces {
            seconds.extend(analyze(trace));
        }
    }
    (seconds, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_env_parsing() {
        // Not set in the test environment unless the harness set it.
        let _ = quick();
        assert_eq!(scaled(100, 5), if quick() { 5 } else { 100 });
    }
}
