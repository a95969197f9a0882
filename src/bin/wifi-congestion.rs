//! `wifi-congestion` — command-line front end to the congestion analysis.
//!
//! ```text
//! wifi-congestion analyze <trace.pcap>...   per-second + summary analysis
//! wifi-congestion serve <trace.pcap>... [--socket PATH] ...
//!                                             the same analysis over live,
//!                                             growing captures
//! wifi-congestion histogram <trace.pcap>      Fig 5(c) utilization histogram
//! wifi-congestion unrecorded <trace.pcap>     Eq. 1 capture-loss estimate
//! wifi-congestion aps <trace.pcap>            Fig 4(a) AP ranking
//! wifi-congestion simulate <day|plenary|ramp> --out DIR [--seed N]
//!                                             generate pcap traces
//! ```
//!
//! Works on any classic pcap with the radiotap link type — including files
//! produced by real RFMon captures, not just this repo's simulator.
//!
//! `analyze` takes one capture or several per-sniffer captures of the same
//! channel (merged with online deduplication) and streams them — a capture
//! larger than RAM analyzes in constant memory.

use congestion::ap_stats::{infer_aps, rank_aps, top_k_share};
use congestion::{analyze, estimate_unrecorded, UtilizationBins};
use ietf80211_congestion::ingest::{analyze_capture_streams, render_analysis, StreamAnalysis};
use ietf80211_congestion::serve::{run_serve, ServeConfig};
use ietf80211_congestion::trace::{write_capture, CaptureStream};
use ietf_workloads::{ietf_day, ietf_plenary, load_ramp, Scenario, SessionScale};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("histogram") => with_trace(&args, cmd_histogram),
        Some("unrecorded") => with_trace(&args, cmd_unrecorded),
        Some("aps") => with_trace(&args, cmd_aps),
        Some("simulate") => cmd_simulate(&args),
        Some("help") | Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}` (try `help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    eprintln!(
        "wifi-congestion — IEEE 802.11b congestion analysis (IMC 2005 reproduction)

USAGE:
  wifi-congestion analyze    <trace.pcap>...
                                            per-second analysis + summary;
                                            several files are treated as
                                            per-sniffer captures of one
                                            channel and merged (streaming)
  wifi-congestion serve      <trace.pcap>... [--socket PATH] [--poll-ms N]
                             [--skew-horizon-us N|none] [--stall-ms N|none]
                             [--heartbeat-s N] [--max-duration-s N]
                                            resident service: tail live /
                                            rotating captures, merge online,
                                            classify congestion per second;
                                            status JSON over the unix socket
                                            (`status`, `seconds`,
                                            `shutdown` commands)
  wifi-congestion histogram  <trace.pcap>   utilization histogram (Fig 5c)
  wifi-congestion unrecorded <trace.pcap>   capture-loss estimate (Eq. 1)
  wifi-congestion aps        <trace.pcap>   AP activity ranking (Fig 4a)
  wifi-congestion simulate   <day|plenary|ramp> --out DIR
                             [--seed N] [--users N] [--duration SECONDS]
                                            generate radiotap pcap traces"
    );
}

/// Reads one capture the way `analyze` does: lossily, noting any skips on
/// stderr and failing only on a hard error; then runs `f` over its records.
fn with_trace(
    args: &[String],
    f: fn(&[wifi_frames::FrameRecord]) -> Result<(), String>,
) -> Result<(), String> {
    let path = args
        .get(1)
        .ok_or_else(|| "missing <trace.pcap> argument".to_string())?;
    let cannot_read = |e| format!("cannot read {path}: {e}");
    let mut stream = CaptureStream::open(Path::new(path)).map_err(cannot_read)?;
    let records: Vec<_> = stream.by_ref().collect();
    let report = stream.finish().map_err(cannot_read)?;
    if !report.is_clean() {
        eprintln!("note: {path} had skips: {}", report.to_json());
    }
    if records.is_empty() {
        return Err(format!("{path} contains no parseable 802.11 records"));
    }
    f(&records)
}

/// Prints each source's damage accounting and hard error on stderr (clean
/// sources stay silent), then the merge's first-capture split.
fn report_sources(paths: &[PathBuf], out: &StreamAnalysis) {
    for (p, source) in paths.iter().zip(&out.sources) {
        if !source.report.is_clean() {
            eprintln!(
                "note: {} had skips: {}",
                p.display(),
                source.report.to_json()
            );
        }
        if let Some(e) = &source.error {
            eprintln!("error: cannot read {}: {e} (source degraded)", p.display());
        }
    }
    if paths.len() > 1 {
        eprintln!(
            "merged {} records; first-capture split: {:?}",
            out.merged_records, out.contributed
        );
    }
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let mut paths: Vec<PathBuf> = Vec::new();
    for a in args {
        match a.as_str() {
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            p => paths.push(PathBuf::from(p)),
        }
    }
    if paths.is_empty() {
        return Err("missing <trace.pcap> argument".to_string());
    }
    let out =
        analyze_capture_streams(&paths).map_err(|e| format!("cannot read {:?}: {e}", paths))?;
    report_sources(&paths, &out);
    if out.per_second.is_empty() {
        return Err("no parseable 802.11 records in the input".to_string());
    }
    print!("{}", render_analysis(&out.per_second, out.merged_records));
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut cfg = ServeConfig::new(Vec::new());
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        let int = |v: &String, flag: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} must be an integer"))
        };
        let int_or_none = |v: &String, flag: &str| match v.as_str() {
            "none" => Ok(None),
            _ => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{flag} must be an integer or `none`")),
        };
        match arg.as_str() {
            "--socket" => cfg.socket = Some(PathBuf::from(value(arg)?)),
            "--poll-ms" => cfg.poll_ms = int(value(arg)?, arg)?,
            "--skew-horizon-us" => cfg.skew_horizon_us = int_or_none(value(arg)?, arg)?,
            "--stall-ms" => cfg.stall_timeout_ms = int_or_none(value(arg)?, arg)?,
            "--heartbeat-s" => cfg.heartbeat_s = int(value(arg)?, arg)?,
            "--max-duration-s" => cfg.max_duration_s = Some(int(value(arg)?, arg)?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            p => cfg.paths.push(PathBuf::from(p)),
        }
    }
    if cfg.paths.is_empty() {
        return Err("missing <trace.pcap> argument".to_string());
    }
    let out = run_serve(&cfg).map_err(|e| format!("serve failed: {e}"))?;
    report_sources(&cfg.paths, &out);
    print!("{}", render_analysis(&out.per_second, out.merged_records));
    Ok(())
}

fn cmd_histogram(records: &[wifi_frames::FrameRecord]) -> Result<(), String> {
    let stats = analyze(records);
    let bins = UtilizationBins::build(&stats);
    let max = bins
        .histogram()
        .iter()
        .map(|&(_, n)| n)
        .max()
        .unwrap_or(1)
        .max(1);
    for (u, n) in bins.histogram() {
        if n > 0 {
            let bar = "#".repeat((n * 60 / max) as usize);
            println!("{u:3}% {n:6} {bar}");
        }
    }
    println!("\nmode: {:?}%", bins.mode());
    Ok(())
}

fn cmd_unrecorded(records: &[wifi_frames::FrameRecord]) -> Result<(), String> {
    let est = estimate_unrecorded(records);
    println!("captured frames:        {}", est.captured);
    println!("inferred missing DATA:  {}", est.counts.data);
    println!("inferred missing RTS:   {}", est.counts.rts);
    println!("inferred missing CTS:   {}", est.counts.cts);
    println!("unrecorded percentage:  {:.2}%", est.unrecorded_pct());
    Ok(())
}

fn cmd_aps(records: &[wifi_frames::FrameRecord]) -> Result<(), String> {
    let aps = infer_aps(records);
    if aps.is_empty() {
        return Err("no beacons in trace: cannot identify APs".into());
    }
    let ranked = rank_aps(records, &aps);
    println!("rank\tAP\t\t\tframes");
    for (i, ap) in ranked.iter().take(15).enumerate() {
        println!("{}\t{}\t{}", i + 1, ap.mac, ap.frames);
    }
    println!(
        "\ntop-{} share: {:.2}%",
        ranked.len().min(15),
        top_k_share(&ranked, 15)
    );
    Ok(())
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let kind = args
        .get(1)
        .ok_or_else(|| "missing scenario: day | plenary | ramp".to_string())?
        .clone();
    let mut out: Option<PathBuf> = None;
    let mut seed = 1u64;
    let mut users: Option<usize> = None;
    let mut duration_s: Option<u64> = None;
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                out = Some(PathBuf::from(
                    args.get(i + 1).ok_or("--out needs a directory")?,
                ));
                i += 2;
            }
            "--seed" => {
                seed = args
                    .get(i + 1)
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|_| "--seed must be an integer")?;
                i += 2;
            }
            "--users" => {
                users = Some(
                    args.get(i + 1)
                        .ok_or("--users needs a value")?
                        .parse()
                        .map_err(|_| "--users must be an integer")?,
                );
                i += 2;
            }
            "--duration" => {
                duration_s = Some(
                    args.get(i + 1)
                        .ok_or("--duration needs seconds")?
                        .parse()
                        .map_err(|_| "--duration must be an integer (seconds)")?,
                );
                i += 2;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let out = out.ok_or("missing --out DIR")?;
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {out:?}: {e}"))?;

    let scenario: Scenario = match kind.as_str() {
        "day" => {
            let mut scale = SessionScale::day_default(seed);
            if let Some(u) = users {
                scale.users = u;
            }
            if let Some(d) = duration_s {
                scale.duration_s = d;
            }
            ietf_day(scale)
        }
        "plenary" => {
            let mut scale = SessionScale::plenary_default(seed);
            if let Some(u) = users {
                scale.users = u;
            }
            if let Some(d) = duration_s {
                scale.duration_s = d;
            }
            ietf_plenary(scale)
        }
        "ramp" => load_ramp(seed, users.unwrap_or(200), duration_s.unwrap_or(240), 1.7),
        other => return Err(format!("unknown scenario `{other}`")),
    };
    eprintln!("running scenario `{kind}` (seed {seed}) …");
    let result = scenario.run();
    for (i, trace) in result.traces.iter().enumerate() {
        let path = out.join(format!("{kind}_sniffer{i}.pcap"));
        let n = write_capture(&path, trace).map_err(|e| format!("write {path:?}: {e}"))?;
        println!("{}: {n} records", path.display());
    }
    Ok(())
}
