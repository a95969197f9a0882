//! The `figures` binary: its artifact table covers every committed
//! `results/*.txt`, static tables print exactly what is committed, and bad
//! arguments are usage errors.

use std::path::Path;
use std::process::{Command, Output};

use congestion_bench::figures::ARTIFACTS;

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .env_remove("CONG_QUICK")
        .output()
        .expect("figures runs")
}

fn results_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"))
}

#[test]
fn artifact_table_matches_committed_results() {
    let mut committed: Vec<String> = std::fs::read_dir(results_dir())
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().into_string().unwrap();
            name.strip_suffix(".txt").map(str::to_string)
        })
        .collect();
    committed.sort();
    let mut names: Vec<String> = ARTIFACTS.iter().map(|a| a.0.to_string()).collect();
    names.sort();
    assert_eq!(names, committed);
    assert_eq!(names.len(), 19);
}

#[test]
fn static_tables_print_the_committed_text() {
    for name in ["table1", "table2"] {
        let out = figures(&[name]);
        assert!(out.status.success(), "{name}: {out:?}");
        let committed = std::fs::read(results_dir().join(format!("{name}.txt"))).unwrap();
        assert_eq!(
            String::from_utf8(out.stdout).unwrap(),
            String::from_utf8(committed).unwrap(),
            "{name}"
        );
    }
}

#[test]
fn bad_arguments_exit_2() {
    for args in [
        &["table1", "--frobnicate"][..],
        &["nosuch"],
        &[],
        &["table1", "--seeds", "0"],
    ] {
        let out = figures(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn help_lists_every_artifact() {
    let out = figures(&["--help"]);
    assert!(out.status.success());
    let help = String::from_utf8(out.stdout).unwrap();
    for (name, _, _) in ARTIFACTS {
        assert!(help.contains(&format!("\n  {name} ")), "{name}");
    }
}
