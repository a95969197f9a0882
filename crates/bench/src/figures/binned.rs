//! Figures 6–15: per-second quantities conditioned on channel utilization,
//! each a mean over the pooled dataset's seconds in one utilization bin
//! (Sections 5.2–6.5).

use congestion::theory::{tmt_bps, tmt_with_backoff_bps};
use congestion::{find_knee, BinAgg, CongestionClassifier, DelayAgg, SizeClass, UtilizationBins};
use wifi_frames::phy::Rate;

use super::{Datasets, SweepArgs, Text};

/// The utilization bins the paper's figures plot (30–99 %), restricted to
/// bins with enough seconds to average meaningfully.
fn occupied_bins(bins: &UtilizationBins) -> Vec<usize> {
    bins.occupied()
        .filter(|&(u, b)| (30..=99).contains(&u) && b.seconds >= 2)
        .map(|(u, _)| u)
        .collect()
}

/// One row per plotted utilization bin `u`: `u`, then `values(u)` at `prec`
/// decimals.
fn bin_rows<V: IntoIterator<Item = f64>>(
    bins: &UtilizationBins,
    prec: usize,
    values: impl Fn(usize) -> V,
) -> Vec<Vec<String>> {
    occupied_bins(bins)
        .into_iter()
        .map(|u| {
            let mut row = vec![u.to_string()];
            row.extend(values(u).into_iter().map(|v| format!("{v:.prec$}")));
            row
        })
        .collect()
}

/// Figure 6: channel throughput and goodput per second versus channel
/// utilization, and the congestion classification derived from the curve
/// (Section 5.2–5.3).
pub fn fig6(data: &mut Datasets, args: &SweepArgs, out: &mut Text) {
    let bins = UtilizationBins::build(data.figure(args));
    let rows: Vec<Vec<String>> = occupied_bins(&bins)
        .into_iter()
        .map(|u| {
            let b = bins.bin(u);
            vec![
                u.to_string(),
                b.seconds.to_string(),
                format!("{:.2}", b.mean_throughput_mbps()),
                format!("{:.2}", b.mean_goodput_mbps()),
            ]
        })
        .collect();
    out.series(
        "Fig 6: throughput & goodput vs utilization (paper: peak 4.9/4.4 Mbps at 84%, falling to 2.8/2.6 by 98%)",
        &["utilization %", "seconds", "throughput Mbps", "goodput Mbps"],
        &rows,
    );

    let knee = find_knee(&bins);
    out.line(format!(
        "\nestimated congestion knee: {knee:?} (paper: 84%)"
    ));
    out.line(format!(
        "theoretical ceilings (ref [11]): TMT(1472 B @ 11 Mbps) = {:.2} Mbps, \
         with mean backoff = {:.2} Mbps — the paper compares its 4.9 Mbps peak \
         against these",
        tmt_bps(1472, Rate::R11) / 1e6,
        tmt_with_backoff_bps(1472, Rate::R11) / 1e6
    ));
    let classifier = CongestionClassifier::from_measurements(&bins);
    out.line(format!(
        "congestion classes: uncongested < {:.0}%, moderate {:.0}–{:.0}%, high > {:.0}%",
        classifier.low_pct, classifier.low_pct, classifier.high_pct, classifier.high_pct
    ));
}

/// Figure 7: average RTS and CTS frames transmitted per second versus
/// channel utilization (Section 6.1). The paper observes RTS rising from
/// ~5/s to ~8/s across 80–84% utilization, then collapsing under high
/// congestion, with CTS failing to keep pace.
pub fn fig7(data: &mut Datasets, args: &SweepArgs, out: &mut Text) {
    let bins = UtilizationBins::build(data.figure(args));
    out.series(
        "Fig 7: RTS & CTS frames per second vs utilization",
        &["utilization %", "RTS/s", "CTS/s"],
        &bin_rows(&bins, 2, |u| {
            let b = bins.bin(u);
            [b.mean_rts_per_sec(), b.mean_cts_per_sec()]
        }),
    );
}

/// Figures 8 and 9: per-rate channel busy time (fraction of each second)
/// and per-rate bytes transmitted per second, versus channel utilization
/// (Section 6.2). The paper's headline numbers: the 1 Mbps share grows from
/// 0.43 s to 0.54 s under high congestion while 11 Mbps moves ≈300% more
/// bytes in about half the air time.
pub fn fig8_9(data: &mut Datasets, args: &SweepArgs, out: &mut Text) {
    let bins = UtilizationBins::build(data.figure(args));
    let rates = ["utilization %", "1 Mbps", "2 Mbps", "5.5 Mbps", "11 Mbps"];
    out.series(
        "Fig 8: channel busy-time share of each rate (seconds of each second)",
        &rates,
        &bin_rows(&bins, 3, |u| bins.bin(u).mean_busy_share_by_rate()),
    );
    out.series(
        "Fig 9: bytes transmitted per second at each rate",
        &rates,
        &bin_rows(&bins, 0, |u| bins.bin(u).mean_bytes_by_rate()),
    );

    // The paper's 300%/half-the-time comparison, over high-congestion bins.
    let high: Vec<&BinAgg> = occupied_bins(&bins)
        .into_iter()
        .filter(|&u| u >= 85)
        .map(|u| bins.bin(u))
        .collect();
    if !high.is_empty() {
        let time = |r: usize| {
            high.iter()
                .map(|b| b.mean_busy_share_by_rate()[r])
                .sum::<f64>()
        };
        let bytes = |r: usize| high.iter().map(|b| b.mean_bytes_by_rate()[r]).sum::<f64>();
        out.line(format!(
            "\nhigh congestion (≥85%): 11 Mbps air time is {:.0}% of 1 Mbps's (paper ≈50%), \
             and moves {:.0}% of 1 Mbps's bytes (paper ≈300%+)",
            time(3) / time(0) * 100.0,
            bytes(3) / bytes(0) * 100.0,
        ));
    }
}

/// Figures 10–13: average data frames transmitted per second by size class
/// and rate, versus channel utilization (Section 6.3).
///
/// * Fig 10 — small frames at each rate (S-11 dominates);
/// * Fig 11 — extra-large frames at each rate (XL-11 dominates);
/// * Fig 12 — 1 Mbps frames of each size class (S-1 above XL-1, both rising
///   under congestion);
/// * Fig 13 — 11 Mbps frames of each size class.
pub fn fig10_13(data: &mut Datasets, args: &SweepArgs, out: &mut Text) {
    let bins = UtilizationBins::build(data.figure(args));

    // Figs 10 & 11: one size class across rates.
    for (fig, size, label) in [
        ("Fig 10", SizeClass::Small, "small (S)"),
        ("Fig 11", SizeClass::ExtraLarge, "extra-large (XL)"),
    ] {
        out.series(
            &format!("{fig}: {label} data frames per second at each rate"),
            &["utilization %", "-1", "-2", "-5.5", "-11"],
            &bin_rows(&bins, 1, |u| {
                let b = bins.bin(u);
                (0..4).map(move |rate| b.mean_tx_per_sec(size.index(), rate))
            }),
        );
    }

    // Figs 12 & 13: one rate across size classes.
    for (fig, rate, label) in [("Fig 12", 0usize, "1 Mbps"), ("Fig 13", 3, "11 Mbps")] {
        out.series(
            &format!("{fig}: {label} data frames per second in each size class"),
            &["utilization %", "S", "M", "L", "XL"],
            &bin_rows(&bins, 1, |u| {
                let b = bins.bin(u);
                (0..4).map(move |size| b.mean_tx_per_sec(size, rate))
            }),
        );
    }
}

/// Figure 14: average data frames successfully acknowledged per second at
/// their first transmission attempt, by rate, versus channel utilization
/// (Section 6.4). The paper sees 11 Mbps dip across 80–84% (contention)
/// then recover under high congestion.
pub fn fig14(data: &mut Datasets, args: &SweepArgs, out: &mut Text) {
    let seconds = data.figure(args);
    let bins = UtilizationBins::build(seconds);
    out.series(
        "Fig 14: data frames acknowledged at first attempt per second, by rate",
        &["utilization %", "1 Mbps", "2 Mbps", "5.5 Mbps", "11 Mbps"],
        &bin_rows(&bins, 1, |u| bins.bin(u).mean_first_ack_by_rate()),
    );

    // Companion series (extension): the retransmission rate the paper
    // attributes the Figs 12–13 growth to, measured directly.
    let mut per_bin = [(0u64, 0u64); 101];
    for s in seconds {
        let u = s.utilization_pct().round().clamp(0.0, 100.0) as usize;
        per_bin[u].0 += s.retries;
        per_bin[u].1 += 1;
    }
    out.series(
        "Extension: data-frame retransmissions per second vs utilization",
        &["utilization %", "retries/s"],
        &bin_rows(&bins, 1, |u| {
            [per_bin[u].0 as f64 / per_bin[u].1.max(1) as f64]
        }),
    );
}

/// Figure 15: acceptance delay (seconds) for S-1, XL-1, S-11 and XL-11
/// frames versus channel utilization (Section 6.5). The paper's key
/// observation: 1 Mbps frames suffer larger acceptance delays than 11 Mbps
/// frames *regardless of size* — S-1 is slower than XL-11.
pub fn fig15(data: &mut Datasets, args: &SweepArgs, out: &mut Text) {
    let bins = UtilizationBins::build(data.figure(args));
    let cats = [
        ("S-1", SizeClass::Small.index(), 0usize),
        ("XL-1", SizeClass::ExtraLarge.index(), 0),
        ("S-11", SizeClass::Small.index(), 3),
        ("XL-11", SizeClass::ExtraLarge.index(), 3),
    ];
    let rows: Vec<Vec<String>> = occupied_bins(&bins)
        .into_iter()
        .map(|u| {
            let b = bins.bin(u);
            let mut row = vec![u.to_string()];
            for &(_, si, ri) in &cats {
                row.push(
                    b.mean_acceptance_delay_s(si, ri)
                        .map_or("-".into(), |d| format!("{d:.4}")),
                );
            }
            row
        })
        .collect();
    out.series(
        "Fig 15: acceptance delay (s) vs utilization (paper: S-1 and XL-1 >> S-11, XL-11; S-1 > XL-11)",
        &["utilization %", "S-1", "XL-1", "S-11", "XL-11"],
        &rows,
    );

    // The headline inequality over high-congestion bins.
    let mut agg = [DelayAgg::default(); 4];
    for u in occupied_bins(&bins).into_iter().filter(|&u| u >= 80) {
        let b = bins.bin(u);
        for (i, &(_, si, ri)) in cats.iter().enumerate() {
            agg[i].merge(&b.acc_delay[si][ri]);
        }
    }
    out.line("");
    for (i, &(name, _, _)) in cats.iter().enumerate() {
        if let Some(d) = agg[i].mean_seconds() {
            out.line(format!(
                "mean acceptance delay at ≥80% utilization, {name}: {d:.4} s ({} samples)",
                agg[i].count
            ));
        }
    }
}
