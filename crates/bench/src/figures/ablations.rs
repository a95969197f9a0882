//! Ablations over the study's workloads: load ramps and the two sessions,
//! analyzed as the paper analyzes its traces (A1–A5, A8).

use congestion::ap_stats::infer_aps;
use congestion::beacon_metric::{pearson, reliability_per_second};
use congestion::busy_time::utilization_series;
use congestion::{analyze, estimate_unrecorded, find_knee, mean_ci95, UtilizationBins};
use ietf_workloads::{ietf_day, ietf_plenary, load_ramp, load_ramp_with, StationSummary};
use wifi_frames::phy::Rate;
use wifi_sim::rate::RateAdaptation;

use super::{Datasets, SweepArgs, Text};
use crate::{day_scale, plenary_scale, run_cells, scaled, Cell};

/// Ablation A1: rate-adaptation algorithms under congestion.
///
/// Section 7 of the paper argues that reacting to congestion losses by
/// lowering the rate is self-defeating, and that SNR-based selection "may
/// offer some relief". This ablation runs the same overloaded channel under
/// ARF, AARF, fixed-11 and SNR-threshold adaptation and reports goodput and
/// delivery statistics for each.
pub fn ablation_rate(_data: &mut Datasets, _args: &SweepArgs, out: &mut Text) {
    let users = scaled(260, 50) as usize;
    let duration = scaled(360, 30);
    let mut rows = Vec::new();
    for (name, adaptation) in [
        ("ARF", RateAdaptation::Arf(Rate::R11)),
        ("AARF", RateAdaptation::Aarf(Rate::R11)),
        ("Fixed-11", RateAdaptation::Fixed(Rate::R11)),
        ("SNR(3dB)", RateAdaptation::Snr(3.0)),
    ] {
        let result = load_ramp_with(31, users, duration, 1.7, adaptation, 0.02).run();
        let stats = analyze(&result.traces[0]);
        // Score over the congested tail (last 40% of the run).
        let tail_from = duration * 6 / 10;
        let tail: Vec<_> = stats.iter().filter(|s| s.second >= tail_from).collect();
        let n = tail.len().max(1) as f64;
        let goodput: f64 = tail.iter().map(|s| s.goodput_mbps()).sum::<f64>() / n;
        let throughput: f64 = tail.iter().map(|s| s.throughput_mbps()).sum::<f64>() / n;
        let util: f64 = tail.iter().map(|s| s.utilization_pct()).sum::<f64>() / n;
        let delivered: u64 = result.stations.iter().map(|s| s.delivered).sum();
        let drops: u64 = result.stations.iter().map(|s| s.retry_drops).sum();
        rows.push(vec![
            name.to_string(),
            format!("{util:.1}"),
            format!("{throughput:.2}"),
            format!("{goodput:.2}"),
            delivered.to_string(),
            drops.to_string(),
        ]);
    }
    out.series(
        "A1: rate adaptation under a congested channel (tail averages)",
        &[
            "algorithm",
            "util %",
            "throughput Mbps",
            "goodput Mbps",
            "delivered",
            "retry drops",
        ],
        &rows,
    );
    out.line(
        "\npaper's position: congestion-blind downshifting (ARF) should underperform \
              schemes that hold high rates (Fixed-11) or track SNR only.",
    );
}

const FRACTIONS: [f64; 5] = [0.0, 0.02, 0.1, 0.3, 1.0];

/// Per-run fairness numbers: RTS-client count and the four per-client means.
struct RunStats {
    rts_clients: usize,
    delivered_rts: f64,
    delivered_plain: f64,
    drops_rts: f64,
    drops_plain: f64,
}

fn run_stats(stations: &[StationSummary]) -> RunStats {
    let clients: Vec<&StationSummary> = stations.iter().filter(|s| !s.is_ap).collect();
    let (rts_users, plain): (Vec<&StationSummary>, Vec<&StationSummary>) =
        clients.iter().partition(|s| s.uses_rts);
    let mean = |set: &[&StationSummary], f: fn(&StationSummary) -> u64| -> f64 {
        if set.is_empty() {
            return f64::NAN;
        }
        set.iter().map(|s| f(s) as f64).sum::<f64>() / set.len() as f64
    };
    RunStats {
        rts_clients: rts_users.len(),
        delivered_rts: mean(&rts_users, |s| s.delivered),
        delivered_plain: mean(&plain, |s| s.delivered),
        drops_rts: mean(&rts_users, |s| s.retry_drops),
        drops_plain: mean(&plain, |s| s.retry_drops),
    }
}

/// Formats a cross-seed column: plain mean for one seed, `mean ± CI` for
/// more; `-` when no run had stations in the class.
fn col(stats: &[RunStats], prec: usize, f: fn(&RunStats) -> f64) -> String {
    let xs: Vec<f64> = stats.iter().map(f).filter(|v| v.is_finite()).collect();
    match mean_ci95(&xs) {
        None => "-".into(),
        Some(ci) if ci.n == 1 => format!("{:.prec$}", ci.mean),
        Some(ci) => format!("{ci:.prec$}"),
    }
}

/// Ablation A2: RTS/CTS adoption and fairness.
///
/// Section 6.1 concludes that when only a few stations use RTS/CTS in a
/// congested network, those stations are denied fair channel access: their
/// exchanges require two extra vulnerable control frames. This ablation
/// sweeps the RTS-using fraction and compares per-station delivery between
/// users and non-users of the mechanism. The `(fraction, seed)` grid runs
/// as one parallel sweep; with `--seeds N > 1` each column is a cross-seed
/// mean ± 95 % CI.
pub fn ablation_rtscts(_data: &mut Datasets, args: &SweepArgs, out: &mut Text) {
    let users = scaled(260, 50) as usize;
    let duration = scaled(360, 30);
    let seeds = args.seed_list(41);

    let mut cells = Vec::new();
    for &fraction in &FRACTIONS {
        for &seed in &seeds {
            cells.push(Cell::new(
                format!("ramp seed={seed} rts={:.0}%", fraction * 100.0),
                seed,
                move || {
                    load_ramp_with(
                        seed,
                        users,
                        duration,
                        1.7,
                        RateAdaptation::Arf(Rate::R11),
                        fraction,
                    )
                },
            ));
        }
    }
    let (results, _report) = run_cells("ablation_rtscts", args, cells);

    // Cells are (fraction-major, seed-minor); fold each fraction's seeds.
    let rows: Vec<Vec<String>> = FRACTIONS
        .iter()
        .enumerate()
        .map(|(fi, fraction)| {
            let stats: Vec<RunStats> = results[fi * seeds.len()..(fi + 1) * seeds.len()]
                .iter()
                .map(|r| run_stats(&r.stations))
                .collect();
            let mean_clients =
                stats.iter().map(|s| s.rts_clients).sum::<usize>() as f64 / stats.len() as f64;
            vec![
                format!("{:.0}%", fraction * 100.0),
                format!("{mean_clients:.0}"),
                col(&stats, 1, |s| s.delivered_rts),
                col(&stats, 1, |s| s.delivered_plain),
                col(&stats, 2, |s| s.drops_rts),
                col(&stats, 2, |s| s.drops_plain),
            ]
        })
        .collect();
    out.series(
        &format!(
            "A2: RTS/CTS adoption sweep — per-client uplink delivery under congestion \
             ({} seed(s))",
            seeds.len()
        ),
        &[
            "RTS fraction",
            "RTS clients",
            "delivered/RTS client",
            "delivered/plain client",
            "drops/RTS client",
            "drops/plain client",
        ],
        &rows,
    );
    out.line(
        "\npaper's position: a small RTS/CTS minority is starved relative to \
              non-users; the deficit should shrink as adoption approaches 100%.",
    );
}

const LOADS: [f64; 3] = [1.3, 1.7, 2.2];

/// Ablation A3: stability of the congestion knee.
///
/// The paper fixes the high-congestion threshold at 84% from one network's
/// throughput curve. How stable is a measured knee across seeds and
/// workload intensities? This ablation re-estimates it under both: the
/// `(seed, offered load)` grid runs as one parallel sweep, and per load the
/// knees are aggregated across seeds as mean ± 95 % CI.
pub fn ablation_knee(_data: &mut Datasets, args: &SweepArgs, out: &mut Text) {
    let users = scaled(320, 60) as usize;
    let duration = scaled(700, 60);
    let seeds = args.seed_list(101);

    let mut cells = Vec::new();
    for &seed in &seeds {
        for fps in LOADS {
            cells.push(Cell::new(
                format!("ramp seed={seed} fps={fps:.1}"),
                seed,
                move || load_ramp(seed, users, duration, fps),
            ));
        }
    }
    let (results, _report) = run_cells("ablation_knee", args, cells);

    // Per-cell knee estimates, in the (seed-major, load-minor) cell order.
    let mut rows = Vec::new();
    let mut knees = vec![Vec::new(); LOADS.len()]; // per load, across seeds
    for (i, result) in results.iter().enumerate() {
        let seed = seeds[i / LOADS.len()];
        let load_idx = i % LOADS.len();
        let stats = analyze(&result.traces[0]);
        let bins = UtilizationBins::build(&stats);
        let knee = find_knee(&bins);
        if let Some(k) = knee {
            knees[load_idx].push(k);
        }
        rows.push(vec![
            seed.to_string(),
            format!("{:.1}", LOADS[load_idx]),
            knee.map_or("none".into(), |k| format!("{k:.0}%")),
            bins.mode().map_or("-".into(), |m| m.to_string()),
        ]);
    }
    out.series(
        "A3: congestion-knee estimate across seeds and offered loads",
        &["seed", "per-user fps", "knee", "utilization mode"],
        &rows,
    );

    let rows: Vec<Vec<String>> = LOADS
        .iter()
        .zip(&knees)
        .map(|(fps, ks)| {
            vec![
                format!("{fps:.1}"),
                format!("{}/{}", ks.len(), seeds.len()),
                mean_ci95(ks).map_or("none".into(), |ci| format!("{ci:.1}%")),
            ]
        })
        .collect();
    out.series(
        &format!(
            "A3: knee across {} seeds per load (mean ± 95% CI)",
            seeds.len()
        ),
        &["per-user fps", "knees found", "knee"],
        &rows,
    );
    out.line(
        "\npaper's 84% threshold is one draw from this distribution; the knee \
              should sit in the mid-80s whenever the run saturates.",
    );
}

/// Ablation A4: validating the unrecorded-frame estimator against ground
/// truth — the check the original study could never run, because it had no
/// ground truth. The simulator knows exactly which frames the sniffer
/// missed; Equation 1's estimate is compared against that.
pub fn ablation_unrecorded(_data: &mut Datasets, _args: &SweepArgs, out: &mut Text) {
    let scenarios = vec![
        ietf_day(day_scale(51)).run(),
        ietf_plenary(plenary_scale(52)).run(),
        load_ramp(53, scaled(320, 50) as usize, scaled(400, 30), 1.7).run(),
    ];
    let mut rows = Vec::new();
    for result in &scenarios {
        for (ch, trace) in result.traces.iter().enumerate() {
            let est = estimate_unrecorded(trace);
            let st = &result.sniffer_stats[ch];
            let missed = st.missed_range + st.missed_bit_error + st.missed_hardware;
            let true_pct = missed as f64 / (missed + st.captured).max(1) as f64 * 100.0;
            rows.push(vec![
                format!("{} ch{}", result.name, ch),
                st.captured.to_string(),
                missed.to_string(),
                format!("{:.2}", true_pct),
                format!("{:.2}", est.unrecorded_pct()),
                est.counts.data.to_string(),
                est.counts.rts.to_string(),
                est.counts.cts.to_string(),
            ]);
        }
    }
    out.series(
        "A4: unrecorded-frame estimator vs simulator ground truth",
        &[
            "trace",
            "captured",
            "truly missed",
            "true %",
            "estimated %",
            "est. DATA",
            "est. RTS",
            "est. CTS",
        ],
        &rows,
    );
    out.line(
        "\nThe estimate is a LOWER bound (the paper notes exchanges losing both \
              frames are invisible); it should track the true loss rate from below.",
    );
}

/// Ablation A5: the beacon-reliability congestion metric (the authors'
/// prior work, reference \[10\]) against the busy-time metric of this paper.
/// Both are computed per second over the same traces and correlated.
pub fn ablation_beacon(_data: &mut Datasets, _args: &SweepArgs, out: &mut Text) {
    let users = scaled(320, 50) as usize;
    let duration = scaled(500, 30);
    let result = load_ramp(61, users, duration, 1.7).run();
    let trace = &result.traces[0];
    let stats = analyze(trace);
    let aps = infer_aps(trace);
    let reliability = reliability_per_second(trace, &aps);

    // Align the two series on seconds.
    let mut util = Vec::new();
    let mut rel = Vec::new();
    for s in &stats {
        if let Some(&(_, r)) = reliability.iter().find(|&&(sec, _)| sec == s.second) {
            util.push(s.utilization_pct());
            rel.push(r);
        }
    }
    let corr = pearson(&util, &rel);

    let rows: Vec<Vec<String>> = stats
        .iter()
        .step_by((stats.len() / 25).max(1))
        .filter_map(|s| {
            let r = reliability.iter().find(|&&(sec, _)| sec == s.second)?;
            Some(vec![
                s.second.to_string(),
                format!("{:.1}", s.utilization_pct()),
                format!("{:.2}", r.1),
            ])
        })
        .collect();
    out.series(
        "A5: busy-time utilization vs beacon reliability (sampled seconds)",
        &["second", "utilization %", "beacon reliability"],
        &rows,
    );
    out.line(format!(
        "\nPearson correlation (utilization vs reliability): {:?}",
        corr.map(|c| (c * 1000.0).round() / 1000.0)
    ));
    out.line(
        "expected: a clear negative correlation — beacons go missing as the \
              channel saturates — but noisier than the direct busy-time measure, \
              which is the paper's argument for preferring busy time.",
    );
}

/// Ablation A8: sensitivity of the busy-time metric to the aggregation
/// interval.
///
/// Section 5.1 of the paper fixes the interval at one second and calls it
/// "an appropriate granularity" without evidence. This ablation recomputes
/// the utilization distribution of the same trace at intervals from 100 ms
/// to 10 s: too short and the histogram smears toward the extremes (an
/// interval holds either a frame or silence); too long and congestion
/// episodes are averaged away. One second sits on the plateau between the
/// two failure modes — quantified support for the paper's choice.
pub fn ablation_interval(_data: &mut Datasets, _args: &SweepArgs, out: &mut Text) {
    let users = scaled(260, 50) as usize;
    let duration = scaled(360, 30);
    let result = load_ramp(0xA8, users, duration, 1.7).run();
    let trace = &result.traces[0];
    // Judge each interval by the spread of measured utilization over the
    // *steady saturated tail* — the true channel state is near-constant
    // there, so spread is measurement noise.
    let tail_from = (duration * 7 / 10) * 1_000_000;
    let mut rows = Vec::new();
    for interval_ms in [100u64, 250, 500, 1000, 2000, 5000, 10000] {
        let series = utilization_series(trace, interval_ms * 1000);
        let tail: Vec<f64> = series
            .iter()
            .filter(|&&(t, _)| t >= tail_from)
            .map(|&(_, u)| u)
            .collect();
        if tail.len() < 2 {
            continue;
        }
        let n = tail.len() as f64;
        let mean = tail.iter().sum::<f64>() / n;
        let var = tail.iter().map(|u| (u - mean) * (u - mean)).sum::<f64>() / n;
        let over100 = tail.iter().filter(|&&u| u > 100.0).count();
        rows.push(vec![
            format!("{interval_ms}"),
            tail.len().to_string(),
            format!("{mean:.1}"),
            format!("{:.1}", var.sqrt()),
            over100.to_string(),
        ]);
    }
    out.series(
        "A8: aggregation-interval sensitivity over the saturated tail",
        &[
            "interval ms",
            "samples",
            "mean util %",
            "std dev",
            ">100% samples",
        ],
        &rows,
    );
    out.line(
        "\nexpected: the standard deviation falls steeply up to ~1 s and flattens \
         after; sub-second intervals also produce nonsense >100% samples (one \
         long 1 Mbps frame overflows a 100 ms bucket). The paper's one-second \
         choice is the shortest interval on the stable plateau.",
    );
}
