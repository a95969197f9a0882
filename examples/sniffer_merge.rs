//! Multi-sniffer coverage: the day session ran three sniffers in one room.
//! Two sniffers watching the *same* channel from different seats miss
//! different frames; merging their captures (with duplicate suppression)
//! recovers coverage neither had alone — and tightens the busy-time metric.
//!
//! ```sh
//! cargo run --release --example sniffer_merge
//! ```

use congestion::merge::{coverage_gain, MergeStream};
use ietf80211_congestion::prelude::*;
use wifi_sim::geometry::Pos;
use wifi_sim::rate::RateAdaptation;
use wifi_sim::sniffer::SnifferConfig;
use wifi_sim::station::RtsPolicy;
use wifi_sim::traffic::TrafficProfile;

fn main() {
    // A busy cell observed by two same-channel sniffers at opposite ends.
    let mut sim = Simulator::new(SimConfig {
        seed: 11,
        radio: ietf_workloads::ietf_radio(11),
        ..SimConfig::default()
    });
    sim.add_ap(Pos::new(32.0, 18.0), 0, 6);
    for i in 0..40 {
        let angle = i as f64 * 0.9;
        sim.add_client(ClientConfig {
            pos: Pos::new(32.0 + 22.0 * angle.cos(), 18.0 + 14.0 * angle.sin()),
            channel_idx: 0,
            rts_policy: RtsPolicy::Never,
            adaptation: RateAdaptation::Arf(Rate::R11),
            traffic: TrafficProfile::symmetric(6.0),
            join_at_us: 0,
            leave_at_us: None,
            power_save_interval_us: None,
            frag_threshold: None,
        });
    }
    for pos in [Pos::new(12.0, 8.0), Pos::new(52.0, 28.0)] {
        sim.add_sniffer(SnifferConfig {
            pos,
            channel_idx: 0,
            ..SnifferConfig::default()
        });
    }
    sim.run_until(60_000_000);

    let a = sim.sniffers()[0].trace.clone();
    let b = sim.sniffers()[1].trace.clone();
    let on_air = sim.ground_truth.transmissions as usize;
    println!("frames on air:        {on_air}");
    println!(
        "sniffer A captured:   {} ({:.1}%)",
        a.len(),
        pct(a.len(), on_air)
    );
    println!(
        "sniffer B captured:   {} ({:.1}%)",
        b.len(),
        pct(b.len(), on_air)
    );

    let merged: Vec<_> = MergeStream::new(vec![a.iter().copied(), b.iter().copied()]).collect();
    let gain = coverage_gain(&[&a, &b]);
    println!(
        "merged (deduplicated): {} ({:.1}%) — +{} frames over the best single sniffer",
        merged.len(),
        pct(gain.merged, on_air),
        gain.merged - gain.best_single
    );
    println!(
        "first-capture split:   A {} / B {}",
        gain.contributed[0], gain.contributed[1]
    );

    // The merged trace tightens the busy-time measurement.
    let util = |records: &[wifi_frames::FrameRecord]| {
        let stats = analyze(records);
        let n = stats.len().max(1) as f64;
        stats.iter().map(|s| s.utilization_pct()).sum::<f64>() / n
    };
    println!("\nmean measured utilization:");
    println!("  sniffer A: {:.1}%", util(&a));
    println!("  sniffer B: {:.1}%", util(&b));
    println!(
        "  merged:    {:.1}%  (closer to the channel's true occupancy)",
        util(&merged)
    );
}

fn pct(n: usize, of: usize) -> f64 {
    n as f64 / of.max(1) as f64 * 100.0
}
