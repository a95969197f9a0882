//! Ablation A9: the simulator against Bianchi's saturation theory.
//!
//! Bianchi's model predicts the DCF's saturation throughput and per-attempt
//! collision probability for `n` permanently-backlogged stations. Running
//! the simulator in exactly that regime (fixed rate, no fading, everyone in
//! carrier-sense range, saturated queues) and comparing is the standard
//! credibility check for any DCF implementation.

use congestion::theory::{bianchi, tmt_bps};
use congestion_bench::{print_series, scaled};
use wifi_frames::phy::Rate;
use wifi_sim::geometry::Pos;
use wifi_sim::rate::RateAdaptation;
use wifi_sim::station::RtsPolicy;
use wifi_sim::traffic::{FlowConfig, SizeDist, TrafficProfile};
use wifi_sim::{ClientConfig, SimConfig, Simulator};

const PAYLOAD: u32 = 1000;

fn simulate(n: usize, duration_s: u64) -> (f64, f64) {
    let mut sim = Simulator::new(SimConfig {
        seed: 0xA9 + n as u64,
        ..SimConfig::default()
    });
    sim.add_ap(Pos::new(0.0, 0.0), 0, 6);
    for i in 0..n {
        let angle = i as f64 / n as f64 * std::f64::consts::TAU;
        sim.add_client(ClientConfig {
            pos: Pos::new(6.0 * angle.cos(), 6.0 * angle.sin()),
            channel_idx: 0,
            rts_policy: RtsPolicy::Never,
            adaptation: RateAdaptation::Fixed(Rate::R11),
            // Far beyond per-station capacity: permanently backlogged.
            traffic: TrafficProfile {
                uplink: FlowConfig::poisson(2000.0 / n as f64, SizeDist::fixed(PAYLOAD)),
                downlink: FlowConfig::off(),
            },
            join_at_us: 0,
            leave_at_us: None,
            power_save_interval_us: None,
            frag_threshold: None,
        });
    }
    sim.run_until(duration_s * 1_000_000);
    let delivered: u64 = sim
        .stations()
        .iter()
        .filter(|s| !s.is_ap())
        .map(|s| s.stats.delivered.saturating_sub(2)) // probe + assoc
        .sum();
    let throughput_bps = delivered as f64 * PAYLOAD as f64 * 8.0 / duration_s as f64;
    let (tx, collisions) = sim.medium_stats()[0];
    let p_collision = collisions as f64 / tx.max(1) as f64;
    (throughput_bps, p_collision)
}

fn main() {
    let duration = scaled(60, 10);
    let mut rows = Vec::new();
    for n in [2usize, 5, 10, 20, 40] {
        let theory = bianchi(n, PAYLOAD, Rate::R11);
        let (sim_bps, sim_p) = simulate(n, duration);
        rows.push(vec![
            n.to_string(),
            format!("{:.2}", theory.throughput_bps / 1e6),
            format!("{:.2}", sim_bps / 1e6),
            format!("{:.3}", theory.p),
            format!("{:.3}", sim_p),
        ]);
    }
    print_series(
        "A9: Bianchi saturation theory vs simulator (1000 B @ 11 Mbps, basic access)",
        &[
            "stations",
            "theory Mbps",
            "sim Mbps",
            "theory p(coll)",
            "sim p(coll)",
        ],
        &rows,
    );
    println!(
        "\nnote: the simulator's collision counter tallies overlapping *transmissions* \
         (a vulnerability-window event), while Bianchi's p is per-attempt conditional \
         collision probability; shapes and magnitudes should track, not match exactly. \
         TMT ceiling for this frame size: {:.2} Mbps.",
        tmt_bps(PAYLOAD, Rate::R11) / 1e6
    );
}
