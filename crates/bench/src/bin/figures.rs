//! Regenerates the paper's tables, figures and ablations (`figures --help`).

use std::io::{self, Write};
use std::process::ExitCode;

use congestion_bench::figures::{Artifact, Datasets, Text, ARTIFACTS};
use congestion_bench::sweep::Usage;
use congestion_bench::SweepArgs;

const USAGE: &str = "usage: figures <artifact|all> [--threads N] [--seeds N]

--threads N  worker threads for the scenario sweeps (default: all
             cores; results are identical for every N)
--seeds N    seeds per swept configuration, for every artifact
             (default: per artifact, below); more seeds tighten
             the ±95% CI columns

Set CONG_QUICK=1 to shrink scenario scale for smoke runs. Each sweep
writes a run report to results/<dataset>.run.json.

artifacts (default seeds; - runs no seeded sweep):
  all                   every artifact, written to results/<artifact>.txt";

/// Renders one artifact with `--seeds` if it was given, else with the
/// artifact's default. `from_args` rejects `--seeds 0`, so 0 marks "not
/// given".
fn render(&(_, default_seeds, draw): &Artifact, data: &mut Datasets, parsed: &SweepArgs) -> Text {
    let seeds = match parsed.seeds {
        0 => default_seeds.unwrap_or(1),
        n => n,
    };
    let mut text = Text::default();
    draw(data, &SweepArgs { seeds, ..*parsed }, &mut text);
    text
}

fn write_all(data: &mut Datasets, parsed: &SweepArgs) -> io::Result<()> {
    let at = |path: &str, e: io::Error| io::Error::new(e.kind(), format!("{path}: {e}"));
    std::fs::create_dir_all("results").map_err(|e| at("results", e))?;
    for a in ARTIFACTS {
        let path = format!("results/{}.txt", a.0);
        std::fs::write(&path, render(a, data, parsed).0).map_err(|e| at(&path, e))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (name, flags) = match argv.split_first() {
        Some((name, flags)) if !name.starts_with('-') => (Some(name.as_str()), flags),
        _ => (None, &argv[..]),
    };
    let error = |msg: &str| {
        eprintln!("error: {msg} (try --help)");
        ExitCode::from(2)
    };
    let parsed = match SweepArgs::from_args(flags, 0) {
        Ok(parsed) => parsed,
        Err(Usage::Help) => {
            println!("{USAGE}");
            for (name, seeds, _) in ARTIFACTS {
                let seeds = seeds.map_or("-".to_string(), |n| n.to_string());
                println!("  {name:<21} {seeds}");
            }
            return ExitCode::SUCCESS;
        }
        Err(Usage::Error(msg)) => return error(&msg),
    };
    let mut data = Datasets::default();
    let done = match name {
        None => return error("name an artifact or `all`"),
        Some("all") => write_all(&mut data, &parsed),
        Some(name) => match ARTIFACTS.iter().find(|a| a.0 == name) {
            None => return error(&format!("unknown artifact {name:?}")),
            Some(a) => io::stdout().write_all(render(a, &mut data, &parsed).0.as_bytes()),
        },
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
