//! Figures 4–5: the day and plenary sessions, each pooled across its
//! channels (one sniffer per channel).

use congestion::ap_stats::{infer_aps, rank_aps, top_k_share, unrecorded_by_rank, ApActivity};
use congestion::users::{peak_users, users_per_window};
use congestion::{analyze, estimate_unrecorded, mean_ci95, UnrecordedEstimate, UtilizationBins};
use ietf_workloads::ScenarioResult;

use super::{Datasets, SweepArgs, Text};

/// One session run as Figure 4 reads it.
struct Session {
    /// APs ranked by frames sent and received, over all channels.
    ranked: Vec<ApActivity>,
    /// How many of them Figure 4 shows: 15, or fewer if there are fewer.
    top: usize,
    /// Users associated per 30 s window.
    windows: Vec<(u64, usize)>,
    /// The unrecorded-frame estimate, summed over channels.
    unrecorded: UnrecordedEstimate,
}

fn session(result: &ScenarioResult) -> Session {
    let mut pooled = result.traces.concat();
    pooled.sort_by_key(|r| r.timestamp_us);
    let aps = infer_aps(&pooled);
    // The estimator runs per channel (atomicity holds within a channel's
    // capture), then per-AP numbers are summed.
    let mut unrecorded = UnrecordedEstimate::default();
    for trace in &result.traces {
        let est = estimate_unrecorded(trace);
        unrecorded.captured += est.captured;
        unrecorded.counts.data += est.counts.data;
        unrecorded.counts.rts += est.counts.rts;
        unrecorded.counts.cts += est.counts.cts;
        for (mac, node) in est.per_node {
            let e = unrecorded.per_node.entry(mac).or_default();
            e.captured += node.captured;
            e.unrecorded += node.unrecorded;
        }
    }
    let ranked = rank_aps(&pooled, &aps);
    Session {
        top: 15.min(ranked.len()),
        ranked,
        windows: users_per_window(&pooled, &aps, 30),
        unrecorded,
    }
}

fn fig4_report(out: &mut Text, result: &ScenarioResult) {
    let name = &result.name;
    let s = session(result);
    let top = s.top;

    // Fig 4(a).
    let rows: Vec<Vec<String>> = s.ranked[..top]
        .iter()
        .enumerate()
        .map(|(i, a)| vec![(i + 1).to_string(), a.mac.to_string(), a.frames.to_string()])
        .collect();
    out.series(
        &format!("Fig 4(a) [{name}]: frames sent+received by the {top} most active APs"),
        &["rank", "AP", "frames"],
        &rows,
    );
    out.line(format!(
        "top-{top} share: {:.2}% (paper: 90.33% day / 95.37% plenary)",
        top_k_share(&s.ranked, top)
    ));

    // Fig 4(b).
    let rows: Vec<Vec<String>> = s
        .windows
        .iter()
        .map(|&(t, n)| vec![t.to_string(), n.to_string()])
        .collect();
    out.series(
        &format!("Fig 4(b) [{name}]: users per 30 s window"),
        &["window start (s)", "users"],
        &rows,
    );
    out.line(format!(
        "peak users: {} (paper: 523 day / 325 plenary, at full scale)",
        peak_users(&s.windows)
    ));

    // Fig 4(c): unrecorded percentage per ranked AP.
    let rows: Vec<Vec<String>> = unrecorded_by_rank(&s.ranked[..top], &s.unrecorded)
        .into_iter()
        .enumerate()
        .map(|(i, (mac, pct))| vec![(i + 1).to_string(), mac.to_string(), format!("{pct:.2}")])
        .collect();
    out.series(
        &format!(
            "Fig 4(c) [{name}]: unrecorded percentage per AP (paper: 3–15% day, 5–20% plenary)"
        ),
        &["rank", "AP", "unrecorded %"],
        &rows,
    );
    out.line(format!(
        "network-wide unrecorded: {:.2}%",
        s.unrecorded.unrecorded_pct()
    ));
}

fn cross_seed_summary(out: &mut Text, name: &str, runs: &[ScenarioResult]) {
    let sessions: Vec<Session> = runs.iter().map(session).collect();
    let col = |f: fn(&Session) -> f64| -> String {
        mean_ci95(&sessions.iter().map(f).collect::<Vec<_>>())
            .map_or("-".into(), |ci| format!("{ci:.2}"))
    };
    out.series(
        &format!("Fig 4 [{name}]: cross-seed summary ({} seeds)", runs.len()),
        &["metric", "mean ± 95% CI"],
        &[
            vec!["peak users".into(), col(|s| peak_users(&s.windows) as f64)],
            vec![
                "top-AP share %".into(),
                col(|s| top_k_share(&s.ranked, s.top)),
            ],
            vec![
                "unrecorded %".into(),
                col(|s| s.unrecorded.unrecorded_pct()),
            ],
        ],
    );
}

/// Figure 4: (a) frames sent + received by the 15 most active APs,
/// (b) users associated over time (30 s means), (c) unrecorded-frame
/// percentage per AP — for the day and plenary sessions.
///
/// With `--seeds N > 1` the detailed tables still come from the canonical
/// seed, and a cross-seed summary (peak users, top-AP share, network-wide
/// unrecorded %, each as mean ± 95 % CI) is appended per session.
pub fn fig4(data: &mut Datasets, args: &SweepArgs, out: &mut Text) {
    let sessions = data.sessions(args);
    fig4_report(out, &sessions.day[0]);
    fig4_report(out, &sessions.plenary[0]);
    if args.seeds > 1 {
        cross_seed_summary(out, "day", &sessions.day);
        cross_seed_summary(out, "plenary", &sessions.plenary);
    }
}

/// Figure 5: (a, b) per-channel utilization time series for the day and
/// plenary sessions, (c) the frequency distribution of utilization values.
pub fn fig5(data: &mut Datasets, args: &SweepArgs, out: &mut Text) {
    let sessions = data.sessions(args);
    let mut bins = Vec::new();
    for result in [&sessions.day[0], &sessions.plenary[0]] {
        let name = &result.name;
        let mut all_seconds = Vec::new();
        for (ch, trace) in result.traces.iter().enumerate() {
            let stats = analyze(trace);
            // Time series, decimated to every 10 s for terminal readability.
            let rows: Vec<Vec<String>> = stats
                .iter()
                .step_by(10)
                .map(|s| vec![s.second.to_string(), format!("{:.1}", s.utilization_pct())])
                .collect();
            out.series(
                &format!(
                    "Fig 5({}) [{name} ch{ch}]: utilization time series (every 10th second)",
                    if name == "day" { "a" } else { "b" }
                ),
                &["second", "utilization %"],
                &rows,
            );
            all_seconds.extend(stats);
        }
        bins.push(UtilizationBins::build(&all_seconds));
    }

    for ((name, paper_mode), bins) in [("day", 55), ("plenary", 86)].into_iter().zip(&bins) {
        let rows: Vec<Vec<String>> = bins
            .histogram()
            .into_iter()
            .filter(|&(_, n)| n > 0)
            .map(|(u, n)| vec![u.to_string(), n.to_string()])
            .collect();
        out.series(
            &format!("Fig 5(c) [{name}]: seconds per utilization percentage"),
            &["utilization %", "seconds"],
            &rows,
        );
        out.line(format!("mode: {:?} (paper: ≈{paper_mode}%)", bins.mode()));
    }
}
