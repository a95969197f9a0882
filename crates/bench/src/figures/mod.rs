//! The paper's tables, figures and ablations as render functions. Figures
//! 6–15 share one pooled per-second dataset ([`figure_dataset`]) and
//! Figures 4–5 the two sessions ([`session_results`]); a [`Datasets`] value
//! builds each at most once, however many artifacts read it.

use congestion::persec::SecondStats;
use ietf_workloads::{ietf_day, ietf_plenary, ScenarioResult};

use crate::{day_scale, figure_dataset, plenary_scale, run_cells, Cell, SweepArgs};
use crate::{DAY_SEED, PLENARY_SEED};

mod ablations;
mod binned;
mod sessions;
mod sim_ablations;
mod tables;

/// Renders one artifact's text into `out`, building the datasets it needs
/// through `data`; `args` carries the artifact's seed count.
pub type Render = fn(data: &mut Datasets, args: &SweepArgs, out: &mut Text);

/// One paper artifact: its name (the `figures` argument and the stem of
/// `results/<name>.txt`), its default seeds per swept configuration (`None`
/// when it runs no seeded sweep and ignores `--seeds`), and its renderer.
pub type Artifact = (&'static str, Option<usize>, Render);

/// Default seeds of the Figures 6–15 load ramp.
const FIGURE_SEEDS: Option<usize> = Some(3);
/// Default seeds of the day and plenary sessions behind Figures 4–5.
const SESSION_SEEDS: Option<usize> = Some(1);

/// Every artifact, in the order `figures all` renders them. Figures 4–5
/// come last: the sessions they share hold whole traces, so `figures all`
/// builds them after every other sweep has dropped its own.
pub const ARTIFACTS: &[Artifact] = &[
    ("table1", None, tables::table1),
    ("table2", None, tables::table2),
    ("fig6", FIGURE_SEEDS, binned::fig6),
    ("fig7", FIGURE_SEEDS, binned::fig7),
    ("fig8_9", FIGURE_SEEDS, binned::fig8_9),
    ("fig10_13", FIGURE_SEEDS, binned::fig10_13),
    ("fig14", FIGURE_SEEDS, binned::fig14),
    ("fig15", FIGURE_SEEDS, binned::fig15),
    ("ablation_rate", None, ablations::ablation_rate),
    ("ablation_rtscts", Some(1), ablations::ablation_rtscts),
    ("ablation_knee", Some(3), ablations::ablation_knee),
    ("ablation_unrecorded", None, ablations::ablation_unrecorded),
    ("ablation_beacon", None, ablations::ablation_beacon),
    (
        "ablation_channelmgmt",
        None,
        sim_ablations::ablation_channelmgmt,
    ),
    ("ablation_frag", None, sim_ablations::ablation_frag),
    ("ablation_interval", None, ablations::ablation_interval),
    ("ablation_bianchi", None, sim_ablations::ablation_bianchi),
    ("fig4", SESSION_SEEDS, sessions::fig4),
    ("fig5", SESSION_SEEDS, sessions::fig5),
];

/// The day and plenary runs behind Figures 4–5; the first run of each is
/// the canonical seed ([`DAY_SEED`] / [`PLENARY_SEED`]).
pub struct Sessions {
    /// Day-session runs, one per seed.
    pub day: Vec<ScenarioResult>,
    /// Plenary-session runs, one per seed.
    pub plenary: Vec<ScenarioResult>,
}

/// The shared datasets, each built on first use and kept for every later
/// artifact of the same invocation, so each sweep's run report is written
/// once, to `results/<dataset>.run.json`. Every artifact that reads a
/// dataset has the same default seeds (`FIGURE_SEEDS`, `SESSION_SEEDS`),
/// and `--seeds` overrides them all alike.
#[derive(Default)]
pub struct Datasets {
    figure: Option<Vec<SecondStats>>,
    sessions: Option<Sessions>,
}

impl Datasets {
    /// The pooled per-second dataset behind Figures 6–15.
    pub fn figure(&mut self, args: &SweepArgs) -> &[SecondStats] {
        self.figure
            .get_or_insert_with(|| figure_dataset("figure_dataset", args).0)
    }

    /// The day and plenary sessions behind Figures 4–5.
    pub fn sessions(&mut self, args: &SweepArgs) -> &Sessions {
        self.sessions
            .get_or_insert_with(|| session_results("sessions", args))
    }
}

/// Runs the two sessions across `args.seeds` seeds each as one sweep
/// named `name`.
pub fn session_results(name: &str, args: &SweepArgs) -> Sessions {
    let mut cells = Vec::new();
    for seed in args.seed_list(DAY_SEED) {
        cells.push(Cell::new(format!("day seed={seed}"), seed, move || {
            ietf_day(day_scale(seed))
        }));
    }
    for seed in args.seed_list(PLENARY_SEED) {
        cells.push(Cell::new(format!("plenary seed={seed}"), seed, move || {
            ietf_plenary(plenary_scale(seed))
        }));
    }
    let (mut day, _report) = run_cells(name, args, cells);
    let plenary = day.split_off(args.seeds);
    Sessions { day, plenary }
}

/// An artifact's text, built whole and then printed or written to a file.
#[derive(Default)]
pub struct Text(pub String);

impl Text {
    /// Appends `line` and a newline.
    pub fn line(&mut self, line: impl AsRef<str>) {
        self.0.push_str(line.as_ref());
        self.0.push('\n');
    }

    /// Appends a table: a `== title ==` line, then the header and rows with
    /// tab-separated cells for easy copy-paste into plotting tools.
    pub fn series(&mut self, title: &str, header: &[&str], rows: &[Vec<String>]) {
        self.line(format!("\n== {title} =="));
        self.line(header.join("\t"));
        for row in rows {
            self.line(row.join("\t"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_tabs_cells_under_a_titled_header() {
        let mut out = Text::default();
        out.series("test", &["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(out.0, "\n== test ==\na\tb\n1\t2\n");
    }
}
