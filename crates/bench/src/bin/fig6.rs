//! Figure 6: channel throughput and goodput per second versus channel
//! utilization, and the congestion classification derived from the curve
//! (Section 5.2–5.3).

use congestion::theory::{tmt_bps, tmt_with_backoff_bps};
use congestion::{find_knee, CongestionClassifier};
use congestion_bench::{bins_of, figure_dataset, occupied_bins, print_series, SweepArgs};
use wifi_frames::phy::Rate;

fn main() {
    let args = SweepArgs::parse(3);
    let (seconds, _report) = figure_dataset("fig6", &args);
    let bins = bins_of(&seconds);
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
    print_series(
        "Fig 6: throughput & goodput vs utilization (paper: peak 4.9/4.4 Mbps at 84%, falling to 2.8/2.6 by 98%)",
        &["utilization %", "seconds", "throughput Mbps", "goodput Mbps"],
        &rows,
    );

    let knee = find_knee(&bins);
    println!("\nestimated congestion knee: {knee:?} (paper: 84%)");
    println!(
        "theoretical ceilings (ref [11]): TMT(1472 B @ 11 Mbps) = {:.2} Mbps, \
         with mean backoff = {:.2} Mbps — the paper compares its 4.9 Mbps peak \
         against these",
        tmt_bps(1472, Rate::R11) / 1e6,
        tmt_with_backoff_bps(1472, Rate::R11) / 1e6
    );
    let classifier = CongestionClassifier::from_measurements(&bins);
    println!(
        "congestion classes: uncongested < {:.0}%, moderate {:.0}–{:.0}%, high > {:.0}%",
        classifier.low_pct, classifier.low_pct, classifier.high_pct, classifier.high_pct
    );
}
